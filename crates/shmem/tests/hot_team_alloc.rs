//! Allocator-locality guard for the hot team.
//!
//! A region must allocate nothing that a worker frees (or allocates)
//! itself: with glibc's per-thread caches, a hand-off object allocated by
//! the caller and dropped last by a worker fills the worker's cache with
//! the caller's chunks, so later small allocations on the two threads
//! share cache lines. This binary's counting allocator counts only
//! threads other than the test thread; after warm-up, empty regions on a
//! two-thread team must make no allocation and no free there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use pdc_shmem::Team;

struct OffThreadCounter;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static FREES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static TEST_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn off_test_thread() -> bool {
    ARMED.load(Ordering::Relaxed) && !TEST_THREAD.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counters are plain atomics and never allocate.
unsafe impl GlobalAlloc for OffThreadCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if off_test_thread() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if off_test_thread() {
            FREES.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if off_test_thread() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            FREES.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: OffThreadCounter = OffThreadCounter;

#[test]
fn hot_team_regions_allocate_nothing_on_workers() {
    TEST_THREAD.with(|t| t.set(true));
    let team = Team::new(2);
    // Warm-up: spawn the worker and let its thread-locals settle.
    for _ in 0..100 {
        team.parallel(|_| {});
    }
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..1000 {
        team.parallel(|_| {});
    }
    ARMED.store(false, Ordering::SeqCst);
    let counts = (ALLOCS.load(Ordering::SeqCst), FREES.load(Ordering::SeqCst));
    assert_eq!(counts, (0, 0), "(allocations, frees) off the test thread");
}
