//! Hand-built synchronization primitives.
//!
//! Built from `std::sync::atomic` in the style of *Rust Atomics and Locks*:
//! no OS mutexes in the fast path, and every spin loop yields so the
//! primitives stay live on oversubscribed (or single-core) hosts.
//! [`WaitCell`], the wait behind the hot team and pdc-mpc's mailboxes,
//! spins for at most [`SPIN_BUDGET`] and then parks on a condvar.

mod atomicf64;
mod barrier;
mod counter;
mod rwlock;
mod spinlock;
mod ticket;
mod tracked;
mod wait;

pub use atomicf64::AtomicF64;
pub use barrier::{Barrier, BarrierKind, BlockingBarrier, SenseBarrier};
pub use counter::AtomicCounter;
pub use rwlock::{ReadGuard, RwSpinLock, WriteGuard};
pub use spinlock::{SpinLock, SpinLockGuard};
pub use ticket::{TicketLock, TicketLockGuard};
pub use tracked::Tracked;
pub use wait::{deadline_after, spin_budget, WaitCell, WaitGuard, SPIN_BUDGET};

/// Spin-wait backoff: spin briefly, then yield to the scheduler.
///
/// `iteration` is the caller's current retry count; the first few retries
/// use the CPU `pause` hint, later ones yield the time slice so waiting
/// threads never starve the thread they are waiting on (essential on a
/// single-core host, where pure spinning would livelock).
#[inline]
pub fn backoff(iteration: u32) {
    if iteration < 8 {
        for _ in 0..(1 << iteration.min(6)) {
            std::hint::spin_loop();
        }
    } else {
        std::thread::yield_now();
    }
}
