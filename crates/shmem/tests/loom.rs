//! Model checks for the hand-built synchronization primitives.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (see the `loom` CI job):
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p pdc-shmem --test loom --release
//! ```
//!
//! Each check wraps a small, fixed-thread-count scenario in
//! `loom::model`, which replays it under scheduler perturbation. With
//! the genuine loom crate that is an exhaustive interleaving search;
//! with the vendored stand-in it is bounded randomized stress (see
//! `vendor/loom/src/lib.rs`) — either way, the properties checked are
//! the ones the race detector in `pdc-analyze` *assumes* about these
//! primitives: a `SpinLock` release happens-before the next acquire, a
//! `TicketLock` serves strictly in ticket order, and a `SenseBarrier`
//! separates phases for every member. The `WaitCell` model checks the
//! property both runtimes' blocking waits rest on: a notify is never
//! lost, whether the waiter is checking, spinning or parked when it
//! lands.

#![cfg(loom)]

use std::time::{Duration, Instant};

use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use loom::sync::Arc;

use pdc_shmem::sync::{deadline_after, Barrier, SenseBarrier, SpinLock, TicketLock, WaitCell};

/// Mutual exclusion + release/acquire visibility: two threads each do a
/// read-modify-write under the lock; no update may be lost.
#[test]
fn spinlock_mutual_exclusion() {
    loom::model(|| {
        let lock = Arc::new(SpinLock::new(0usize));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let lock = Arc::clone(&lock);
                loom::thread::spawn(move || {
                    for _ in 0..2 {
                        *lock.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.lock(), 4, "an increment was lost under the lock");
    });
}

/// While a guard is held, nobody else may observe the critical section:
/// a non-atomic flag flipped inside the lock is never seen mid-flip.
#[test]
fn spinlock_critical_section_is_atomic() {
    loom::model(|| {
        let lock = Arc::new(SpinLock::new((0usize, 0usize)));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let lock = Arc::clone(&lock);
                loom::thread::spawn(move || {
                    let mut g = lock.lock();
                    // Write the two halves separately; the pair must
                    // never be observed torn by the other thread.
                    g.0 += 1;
                    g.1 += 1;
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let g = lock.lock();
        assert_eq!(g.0, g.1, "critical section observed torn: {:?}", *g);
    });
}

/// FIFO fairness: tickets are served in issue order. The main thread
/// holds the lock while a contender enqueues its ticket, so the service
/// order is forced and must be respected.
#[test]
fn ticketlock_serves_in_ticket_order() {
    loom::model(|| {
        let lock = Arc::new(TicketLock::new(Vec::new()));
        let holder = lock.lock(); // ticket 0

        let l2 = Arc::clone(&lock);
        let first = loom::thread::spawn(move || {
            l2.lock().push("first"); // ticket 1
        });
        // Wait until the contender's ticket is actually queued before
        // issuing the next one, so ticket order is deterministic.
        while lock.tickets_issued() < 2 {
            loom::thread::yield_now();
        }
        let l3 = Arc::clone(&lock);
        let second = loom::thread::spawn(move || {
            l3.lock().push("second"); // ticket 2
        });
        while lock.tickets_issued() < 3 {
            loom::thread::yield_now();
        }

        drop(holder);
        first.join().unwrap();
        second.join().unwrap();
        assert_eq!(*lock.lock(), vec!["first", "second"], "FIFO order violated");
    });
}

/// Barrier separation: after `wait()` returns for phase `p`, every
/// member's phase-`p` contribution is visible, and the generation
/// counter has advanced exactly once per phase.
#[test]
fn sense_barrier_separates_phases() {
    const MEMBERS: usize = 2;
    const PHASES: usize = 3;
    loom::model(|| {
        let barrier = Arc::new(SenseBarrier::new(MEMBERS));
        let contributions = Arc::new(AtomicUsize::new(0));
        let leaders = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..MEMBERS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let contributions = Arc::clone(&contributions);
                let leaders = Arc::clone(&leaders);
                loom::thread::spawn(move || {
                    for p in 0..PHASES {
                        contributions.fetch_add(1, Ordering::SeqCst);
                        if barrier.wait() {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                        let seen = contributions.load(Ordering::SeqCst);
                        assert!(
                            seen >= (p + 1) * MEMBERS,
                            "phase {p}: saw {seen} contributions, wanted >= {}",
                            (p + 1) * MEMBERS
                        );
                        barrier.wait(); // phase separator
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(barrier.generation(), 2 * PHASES);
        assert_eq!(
            leaders.load(Ordering::SeqCst),
            PHASES,
            "each phase must elect exactly one leader"
        );
    });
}

/// Notify against park: two waiters, one on the cell's state and one on
/// a flag outside it (a bump that leaves the state unchanged, as a crash
/// interrupt does), race a notifier. A lost wake-up parks a waiter until
/// its 10 s deadline, whose final check then succeeds, so the elapsed
/// time is what catches it.
#[test]
fn wait_cell_never_loses_a_notify() {
    fn wait(cell: &WaitCell<bool>, spin: Duration, check: impl FnMut(&mut bool) -> Option<()>) {
        let (start, watchdog) = (Instant::now(), Duration::from_secs(10));
        let woke = cell.wait_until(spin, deadline_after(Some(watchdog)), check);
        assert!(
            woke.is_some() && start.elapsed() < watchdog,
            "spin {spin:?}: lost wake-up"
        );
    }
    loom::model(|| {
        for spin in [Duration::ZERO, Duration::from_micros(5)] {
            let cell = Arc::new(WaitCell::new(false));
            let flag = Arc::new(AtomicBool::new(false));
            let (c2, f2) = (Arc::clone(&cell), Arc::clone(&flag));
            let bystander = loom::thread::spawn(move || {
                wait(&c2, spin, |_| f2.load(Ordering::SeqCst).then_some(()));
            });
            let (c3, f3) = (Arc::clone(&cell), Arc::clone(&flag));
            let notifier = loom::thread::spawn(move || {
                let mut set = c3.lock();
                *set = true;
                set.notify();
                f3.store(true, Ordering::SeqCst);
                c3.lock().notify();
            });
            wait(&cell, spin, |set| set.then_some(()));
            notifier.join().unwrap();
            bystander.join().unwrap();
        }
    });
}
