//! The spin-then-park wait shared by both runtimes: pdc-shmem's hot team
//! waits on a [`WaitCell`] for a job and for the join, pdc-mpc's
//! mailboxes and sync-send latches for a message or an open.
//!
//! A waiter runs its predicate under the cell's lock. If that fails it
//! notes the cell's *version* in the same lock hold, drops the lock and
//! polls the version with [`std::hint::spin_loop`], yielding every 64th
//! poll so it never starves the thread it waits on, and re-runs the
//! predicate whenever the version moves. The spin lasts at most its
//! budget ([`spin_budget`]) and never past the caller's deadline; then
//! the waiter re-runs the predicate and parks as a counted sleeper in one
//! lock hold. A notifier bumps the version under the lock and calls the
//! condvar only when a sleeper is counted, so a hand-off between running
//! threads is a cache-line transfer, not two futex calls. No wake-up is
//! lost: a notify after a failed predicate moves the version a spinner
//! polls, and `Condvar::wait` releases the lock and parks atomically.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

/// How long a wait polls before parking when every thread has a core:
/// enough for a small message's round trip or an empty region, short
/// enough that a thread waiting on real work parks almost at once.
pub const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Spin budget for a team or world of `threads` threads: [`SPIN_BUDGET`]
/// when every thread can have a core of its own, zero when the threads
/// oversubscribe the host or the host has one core. The core count is
/// read once per process: `available_parallelism` reads cgroup files,
/// too slow to repeat on every region or world.
pub fn spin_budget(threads: usize) -> Duration {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    if cores > 1 && threads <= cores {
        SPIN_BUDGET
    } else {
        Duration::ZERO
    }
}

/// Deadline for an optional timeout; `None` (forever) also when
/// `now + timeout` overflows `Instant`.
pub fn deadline_after(timeout: Option<Duration>) -> Option<Instant> {
    timeout.and_then(|d| Instant::now().checked_add(d))
}

/// State `T` that threads wait on with a spin-then-park
/// [`WaitCell::wait_until`] and change under a [`WaitGuard`] that ends
/// with [`WaitGuard::notify`] (see the module doc).
#[derive(Debug, Default)]
pub struct WaitCell<T> {
    slot: Mutex<Slot<T>>,
    /// Bumped under the lock by every notify; spinners poll it without
    /// the lock. It only says "look again": the lock orders the state.
    version: AtomicU64,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct Slot<T> {
    value: T,
    /// Waiters parked on `cv`; a notify calls it only when nonzero.
    sleepers: usize,
}

/// The locked state of a [`WaitCell`]. Dropping it wakes no one;
/// [`WaitGuard::notify`] does.
pub struct WaitGuard<'a, T> {
    cell: &'a WaitCell<T>,
    slot: MutexGuard<'a, Slot<T>>,
}

impl<T> WaitCell<T> {
    /// A cell holding `value`.
    pub fn new(value: T) -> Self {
        Self {
            slot: Mutex::new(Slot { value, sleepers: 0 }),
            version: AtomicU64::new(0),
            cv: Condvar::new(),
        }
    }

    /// Lock the state.
    pub fn lock(&self) -> WaitGuard<'_, T> {
        WaitGuard {
            cell: self,
            slot: self.slot.lock(),
        }
    }

    /// Number of waiters parked on the cell right now (diagnostic).
    pub fn parked(&self) -> usize {
        self.slot.lock().sleepers
    }

    /// Block until `check` returns a value, and return it; `None` once
    /// `deadline` passes (`None` waits forever). `check` runs under the
    /// lock: at once, whenever a spin of at most `spin` sees the version
    /// move, when the spin ends, and after every park, including a
    /// timed-out one, so a change landing at the deadline is not missed.
    pub fn wait_until<R>(
        &self,
        spin: Duration,
        deadline: Option<Instant>,
        mut check: impl FnMut(&mut T) -> Option<R>,
    ) -> Option<R> {
        let seen = {
            let mut slot = self.slot.lock();
            if let Some(found) = check(&mut slot.value) {
                return Some(found);
            }
            self.version.load(Ordering::Relaxed)
        };
        self.wait_after(seen, spin, deadline, check)
    }

    /// [`WaitCell::wait_until`] without its first check, for a caller
    /// whose own lock hold saw `check` fail and ended with the
    /// [`WaitGuard::notify`] that returned `seen`: it spins from `seen` at
    /// once and leaves the lock to the thread it waits on. Were `check`
    /// to hold at `seen`, the wait would be late by the spin, not lost.
    pub fn wait_after<R>(
        &self,
        mut seen: u64,
        spin: Duration,
        deadline: Option<Instant>,
        mut check: impl FnMut(&mut T) -> Option<R>,
    ) -> Option<R> {
        let mut spinning = !spin.is_zero();
        let mut spin_end = None;
        let mut timed_out = false;
        loop {
            if spinning {
                let until = *spin_end.get_or_insert_with(|| {
                    let now = Instant::now();
                    let end = now.checked_add(spin).unwrap_or(now);
                    deadline.map_or(end, |dl| end.min(dl))
                });
                spinning = self.spin_while_at(seen, until);
            }
            let mut slot = self.slot.lock();
            loop {
                if let Some(found) = check(&mut slot.value) {
                    return Some(found);
                }
                if timed_out {
                    return None;
                }
                if spinning {
                    seen = self.version.load(Ordering::Relaxed);
                    break;
                }
                slot.sleepers += 1;
                timed_out = match deadline {
                    None => {
                        self.cv.wait(&mut slot);
                        false
                    }
                    Some(dl) => self.cv.wait_until(&mut slot, dl).timed_out(),
                };
                slot.sleepers -= 1;
            }
        }
    }

    /// Poll the version until it differs from `seen` (true) or `until`
    /// passes (false).
    fn spin_while_at(&self, seen: u64, until: Instant) -> bool {
        let mut polls = 0u32;
        loop {
            // Acquire pairs with the Release bump in `notify`.
            if self.version.load(Ordering::Acquire) != seen {
                return true;
            }
            polls = polls.wrapping_add(1);
            if polls.is_multiple_of(64) {
                if Instant::now() >= until {
                    return false;
                }
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

impl<T> WaitGuard<'_, T> {
    /// Release the lock and make every waiter re-run its check, also when
    /// the state is unchanged (a check may read state outside the cell).
    /// The condvar is called after the unlock: a sleeper counted under the
    /// lock entered `Condvar::wait` before releasing it. Returns the
    /// version this notify set, for a later [`WaitCell::wait_after`].
    pub fn notify(self) -> u64 {
        let WaitGuard { cell, slot } = self;
        let version = cell.version.fetch_add(1, Ordering::Release) + 1;
        let parked = slot.sleepers > 0;
        drop(slot);
        if parked {
            cell.cv.notify_all();
        }
        version
    }
}

impl<T> Deref for WaitGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.slot.value
    }
}

impl<T> DerefMut for WaitGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.slot.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Arc};

    /// Longest any test here waits for a wake-up before failing.
    const WATCHDOG: Duration = Duration::from_secs(10);

    /// Run `wait` on its own thread; the returned closure yields its
    /// result, or fails with `lost` at [`WATCHDOG`] instead of hanging.
    fn waiter<R: Send + 'static>(
        wait: impl FnOnce() -> R + Send + 'static,
    ) -> impl FnOnce(&str) -> R {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(wait());
        });
        move |lost| {
            rx.recv_timeout(WATCHDOG)
                .unwrap_or_else(|_| panic!("{lost}"))
        }
    }

    /// Set the cell's state to `value` and notify.
    fn set<T>(cell: &WaitCell<T>, value: T) {
        let mut g = cell.lock();
        *g = value;
        g.notify();
    }

    #[test]
    fn parked_waiter_wakes_on_notify() {
        let cell = Arc::new(WaitCell::new(0u32));
        let c2 = Arc::clone(&cell);
        let woke = waiter(move || c2.wait_until(Duration::ZERO, None, |v| (*v == 1).then_some(*v)));
        let start = Instant::now();
        while cell.parked() == 0 {
            assert!(start.elapsed() < WATCHDOG, "the waiter never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        set(&cell, 1);
        assert_eq!(woke("a parked waiter missed the notify"), Some(1));
    }

    #[test]
    fn a_bump_alone_wakes_a_spinning_waiter() {
        // The waiter's check reads a flag outside the cell, as a receive
        // reads a peer's death: only the version can end its 60 s spin.
        let cell = Arc::new(WaitCell::new(()));
        let flag = Arc::new(AtomicBool::new(false));
        let (checked_tx, checked) = mpsc::channel();
        let (c2, f2) = (Arc::clone(&cell), Arc::clone(&flag));
        let woke = waiter(move || {
            c2.wait_until(Duration::from_secs(60), None, |_| {
                let up = f2.load(Ordering::SeqCst);
                let _ = checked_tx.send(());
                up.then_some(())
            })
        });
        // The first check ran and failed, so the waiter noted the version
        // before this thread can take the lock to bump it.
        checked
            .recv_timeout(WATCHDOG)
            .expect("the waiter never checked");
        flag.store(true, Ordering::SeqCst);
        cell.lock().notify();
        assert_eq!(woke("the spin missed the version bump"), Some(()));
    }

    #[test]
    fn wait_after_spins_from_the_notified_version() {
        // The waiter starts from the version its own notify returned and
        // spins for 60 s: only a later notify can end the wait in time.
        let cell = Arc::new(WaitCell::new(false));
        let seen = cell.lock().notify();
        let c2 = Arc::clone(&cell);
        let woke =
            waiter(move || c2.wait_after(seen, Duration::from_secs(60), None, |v| v.then_some(())));
        set(&cell, true);
        assert_eq!(woke("the spin missed the notify"), Some(()));
    }

    #[test]
    fn a_short_deadline_caps_a_long_spin() {
        // A 10 µs deadline, far shorter than a 60 s spin, must end the
        // wait near 10 µs. Best of five, so one descheduling of this
        // thread by a busy host cannot fail the test.
        let best = waiter(|| {
            let cell = WaitCell::new(());
            (0..5)
                .map(|_| {
                    let start = Instant::now();
                    let deadline = deadline_after(Some(Duration::from_micros(10)));
                    let got = cell.wait_until(Duration::from_secs(60), deadline, |_| None::<()>);
                    assert_eq!(got, None);
                    start.elapsed()
                })
                .min()
                .expect("five attempts")
        })("the deadline did not cap the spin");
        assert!(
            best < Duration::from_millis(2),
            "10 µs deadline took {best:?}"
        );
    }

    #[test]
    fn duration_max_does_not_panic() {
        // `Instant::now() + Duration::MAX` would panic: as a timeout it
        // means forever, and as a spin it cannot overflow the deadline.
        assert_eq!(deadline_after(Some(Duration::MAX)), None);
        let cell = Arc::new(WaitCell::new(false));
        let c2 = Arc::clone(&cell);
        let woke = waiter(move || {
            c2.wait_until(Duration::MAX, deadline_after(Some(Duration::MAX)), |v| {
                v.then_some(())
            })
        });
        set(&cell, true);
        assert_eq!(woke("woken"), Some(()));
    }

    #[test]
    fn spin_budget_follows_the_core_count() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(spin_budget(cores + 1), Duration::ZERO);
        let want = SPIN_BUDGET * u32::from(cores > 1);
        assert_eq!(spin_budget(cores), want);
        assert_eq!(spin_budget(1), want);
    }
}
