//! Per-rank mailboxes with MPI matching semantics.
//!
//! Each world rank owns one [`Mailbox`]. A send deposits an `Envelope`
//! at the destination's mailbox; a receive removes the *oldest* matching
//! envelope, blocking until one arrives. Because the queue is scanned in
//! arrival order, the MPI **non-overtaking** guarantee holds: two messages
//! from the same sender with the same tag are received in send order.
//!
//! ## Waiting: spin, yield, park
//!
//! Every blocking wait here — a receive or probe with no match yet, a
//! synchronous sender on its [`Latch`] — goes through one discipline:
//!
//! 1. **Spin.** After a failed scan the receiver notes the mailbox's
//!    `epoch` (bumped under the queue lock by every deposit and
//!    interrupt), drops the lock and polls the epoch with
//!    [`std::hint::spin_loop`], calling [`std::thread::yield_now`] every
//!    64th poll — the rule pdc-shmem's spin loops follow, so a spinning
//!    rank never starves the thread it waits on. The spin lasts at most
//!    the mailbox's budget (~50 µs) and never past the caller's deadline.
//!    When the epoch moves it re-locks and rescans.
//! 2. **Park.** Once the budget is spent the receiver re-locks, rescans,
//!    consults its failure predicate and only then parks on the condvar,
//!    counted as a sleeper. Deposits notify only when a sleeper is
//!    counted, so a spinning receiver costs its sender no futex call.
//!
//! In a thread-mode world a rank hand-off is then a cache-line transfer
//! rather than two futex wake-ups, which is most of a small message's
//! round trip. The budget is derived, not configured: the fabric gives
//! ~50 µs to thread-mode worlds whose ranks each have a core
//! (`np ≤ available_parallelism()`, the core count read once per
//! process), and zero — park at once — to oversubscribed worlds, to
//! 1-core hosts like the paper's Colab VM, and to wire ranks attached
//! with `World::attach`. Wire ranks do not spin: their messages arrive
//! through pdc-net's reader and writer pumps, which need the same CPUs,
//! and on a 2-vCPU host a variant that spun them cut the wire lab's
//! time by ~29% but raised its CPU per lab by ~27%.
//!
//! The missed-wakeup rules hold on both paths: predicates (queue
//! contents, `fail`) are read only under the queue lock; state changes
//! (deposit, interrupt, crash registration) happen under that lock, bump
//! the epoch and read the sleeper count there; the epoch a spinner polls
//! is recorded under the same lock hold as its failed scan; and a parked
//! receiver registers as a sleeper and parks in one lock hold, since
//! `Condvar::wait` releases the lock and parks atomically.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::envelope::{Envelope, Source, TagSel};
use crate::error::{MpcError, Result};

/// How long a blocked wait polls before parking, in a world whose ranks
/// each have a core. Long enough to cover a small message's round trip
/// between two running ranks, short enough that a rank waiting on real
/// work (a worker computing a ligand) parks almost at once.
const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Spin budget for the mailboxes and latches of a thread-mode world of
/// `np` ranks: [`SPIN_BUDGET`] when every rank can have a core of its
/// own, zero when the world is oversubscribed or the host has one core
/// (a spinner would only delay the thread it waits on). The core count
/// is read once per process: `available_parallelism` reads cgroup files,
/// too slow to repeat on every `World::run`.
pub(crate) fn thread_world_spin(np: usize) -> Duration {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    if cores > 1 && np <= cores {
        SPIN_BUDGET
    } else {
        Duration::ZERO
    }
}

/// Poll `ready` until it holds or `until` passes, with `spin_loop`
/// between polls and `yield_now` every 64th. Returns whether `ready`
/// held.
fn spin_until(until: Instant, ready: impl Fn() -> bool) -> bool {
    let mut polls = 0u32;
    loop {
        if ready() {
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

/// End of a spin of at most `spin`, never past `deadline`.
fn spin_end(spin: Duration, deadline: Option<Instant>) -> Instant {
    let now = Instant::now();
    let end = now.checked_add(spin).unwrap_or(now);
    deadline.map_or(end, |dl| end.min(dl))
}

/// A one-shot completion latch used by synchronous sends: the sender
/// blocks on [`Latch::wait`] until the receiver calls [`Latch::open`]
/// at match time — the rendezvous that makes `ssend` deadlock-capable.
///
/// A latch may also carry an *open hook*, run exactly once when the
/// latch opens. The wire transport uses it to queue an Ack frame back
/// to a remote sender at match time — the cross-process analog of the
/// in-process waiter wakeup.
#[derive(Default)]
pub struct Latch {
    state: Mutex<LatchState>,
    /// Set under the state lock (`Release`); a spinning waiter polls it
    /// without the lock (`Acquire`), so it sees everything the opener
    /// did before opening.
    open: AtomicBool,
    cv: Condvar,
    spin: Duration,
}

#[derive(Default)]
struct LatchState {
    hook: Option<Box<dyn FnOnce() + Send>>,
    /// Waiters parked on `cv`; `open` notifies only when nonzero.
    sleepers: usize,
}

impl std::fmt::Debug for Latch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("Latch")
            .field("open", &self.is_open())
            .field("hook", &st.hook.is_some())
            .finish()
    }
}

impl Latch {
    /// Create a closed latch whose waiters park at once.
    pub fn new() -> Self {
        Self::default()
    }

    /// A closed latch whose waiters spin for up to `spin` before parking
    /// (see the module doc).
    pub(crate) fn with_spin(spin: Duration) -> Self {
        Self {
            spin,
            ..Self::default()
        }
    }

    fn is_open(&self) -> bool {
        self.open.load(Ordering::Acquire)
    }

    /// Attach a hook to run once when the latch opens. Attach before
    /// publishing the latch: if it is already open the hook is dropped
    /// unrun.
    pub fn set_hook(&self, hook: Box<dyn FnOnce() + Send>) {
        let mut st = self.state.lock();
        if !self.is_open() {
            st.hook = Some(hook);
        }
    }

    /// Open the latch, waking all waiters. Idempotent; the open hook
    /// (if any) runs exactly once, after waiters are notified, outside
    /// the latch lock.
    pub fn open(&self) {
        let hook = {
            let mut st = self.state.lock();
            self.open.store(true, Ordering::Release);
            if st.sleepers > 0 {
                self.cv.notify_all();
            }
            st.hook.take()
        };
        if let Some(hook) = hook {
            hook();
        }
    }

    /// Block until the latch opens, or until `timeout` (None = forever).
    /// Returns `false` on timeout. A timeout too large to represent as
    /// an `Instant` deadline is treated as forever rather than panicking
    /// on the overflowing deadline arithmetic.
    pub fn wait(&self, timeout: Option<Duration>) -> bool {
        let deadline = deadline_after(timeout);
        if !self.spin.is_zero() && spin_until(spin_end(self.spin, deadline), || self.is_open()) {
            return true;
        }
        let mut st = self.state.lock();
        while !self.is_open() {
            st.sleepers += 1;
            let timed_out = match deadline {
                None => {
                    self.cv.wait(&mut st);
                    false
                }
                Some(dl) => self.cv.wait_until(&mut st, dl).timed_out(),
            };
            st.sleepers -= 1;
            if timed_out {
                return self.is_open();
            }
        }
        true
    }
}

/// Deadline for an optional timeout. `None` — wait forever — when no
/// timeout was given *or* when `now + timeout` overflows `Instant`:
/// a deadline too far away to represent might as well be never.
fn deadline_after(timeout: Option<Duration>) -> Option<Instant> {
    timeout.and_then(|d| Instant::now().checked_add(d))
}

/// The pending-message queue of one rank.
#[derive(Debug, Default)]
pub struct Mailbox {
    queue: Mutex<Queue>,
    arrived: Condvar,
    /// Bumped under the queue lock by every deposit and interrupt; a
    /// spinning receiver polls it without the lock. It only says "look
    /// again": the receiver re-takes the lock to rescan, and the lock
    /// orders the queue contents.
    epoch: AtomicU64,
    /// How long a blocked wait spins before parking; zero parks at once.
    spin: Duration,
}

#[derive(Debug, Default)]
struct Queue {
    envelopes: VecDeque<Envelope>,
    /// Waiters parked on `arrived`; deposits notify only when nonzero.
    sleepers: usize,
}

impl Mailbox {
    /// Empty mailbox whose receivers park at once.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty mailbox whose receivers spin for up to `spin` before
    /// parking (see the module doc).
    pub(crate) fn with_spin(spin: Duration) -> Self {
        Self {
            spin,
            ..Self::default()
        }
    }

    /// This mailbox's spin budget.
    #[cfg(test)]
    pub(crate) fn spin(&self) -> Duration {
        self.spin
    }

    /// Deposit a message (called by the sender's thread).
    pub(crate) fn deposit(&self, env: Envelope) {
        self.push(env, VecDeque::push_back);
    }

    /// Deposit a message at the *front* of the queue, ahead of all
    /// pending traffic. Used only by fault injection to model network
    /// reordering — it deliberately violates the non-overtaking
    /// guarantee [`Mailbox::deposit`] provides.
    pub(crate) fn deposit_front(&self, env: Envelope) {
        self.push(env, VecDeque::push_front);
    }

    fn push(&self, env: Envelope, put: fn(&mut VecDeque<Envelope>, Envelope)) {
        let (depth, parked) = {
            let mut q = self.queue.lock();
            put(&mut q.envelopes, env);
            self.epoch.fetch_add(1, Ordering::Release);
            (q.envelopes.len(), q.sleepers > 0)
        };
        // Sampled on every deposit/removal, the gauge traces the queue
        // depth over time — backlog spikes show up as a sawtooth in the
        // timeline rather than only as an end-of-run total — while the
        // histogram keeps the depth *distribution* (p50/p90/p99).
        pdc_trace::gauge("mpc", "mailbox_depth", depth as f64);
        pdc_trace::hist("mpc", "mailbox_depth", depth as u64);
        // A sleeper counted under the lock entered `Condvar::wait` before
        // releasing it, so a notify after the unlock still reaches it.
        if parked {
            self.arrived.notify_all();
        }
    }

    /// Wake every blocked waiter without delivering anything, so it
    /// re-evaluates its failure predicate. Called when a rank crashes:
    /// receivers blocked on the dead rank return `PeerGone` promptly
    /// instead of waiting out their timeout.
    pub(crate) fn interrupt(&self) {
        // Under the lock, a waiter is either inside its predicate check
        // (it sees the new state on its next iteration), spinning (it
        // sees the epoch move) or parked (the notify wakes it). A waiter
        // cannot decide to park and still miss the notification, because
        // `Condvar::wait` releases the lock and parks atomically.
        let q = self.queue.lock();
        self.epoch.fetch_add(1, Ordering::Release);
        if q.sleepers > 0 {
            self.arrived.notify_all();
        }
    }

    /// Remove and return the oldest envelope matching the selectors,
    /// blocking until one arrives or `timeout` elapses (None = forever).
    ///
    /// Opens the envelope's sync latch (if any) *at match time*, which is
    /// when a synchronous send is allowed to complete.
    #[cfg(test)]
    pub(crate) fn take_matching(
        &self,
        comm_id: u64,
        src: Source,
        tag: TagSel,
        timeout: Option<Duration>,
    ) -> Result<Envelope> {
        self.take_matching_checked(comm_id, src, tag, timeout, &|| None)
    }

    /// [`Mailbox::take_matching`] with a failure predicate, evaluated
    /// under the queue lock before every wait. Ordering matters: the
    /// queue is always scanned *before* `fail` is consulted, so messages
    /// deposited by a peer before it died remain receivable — only a
    /// wait that would otherwise block surfaces the failure.
    pub(crate) fn take_matching_checked(
        &self,
        comm_id: u64,
        src: Source,
        tag: TagSel,
        timeout: Option<Duration>,
        fail: &dyn Fn() -> Option<MpcError>,
    ) -> Result<Envelope> {
        self.wait_for(timeout, "recv", fail, |q| {
            let pos = q.iter().position(|e| e.matches(comm_id, &src, &tag))?;
            let env = q.remove(pos).expect("position just found");
            pdc_trace::gauge("mpc", "mailbox_depth", q.len() as f64);
            pdc_trace::hist("mpc", "mailbox_depth", q.len() as u64);
            if let Some(latch) = &env.sync_ack {
                latch.open();
            }
            Some(env)
        })
    }

    /// Peek at the oldest matching envelope without removing it,
    /// returning its (src, tag, payload length). Blocks like a receive.
    #[cfg(test)]
    pub(crate) fn peek_matching(
        &self,
        comm_id: u64,
        src: Source,
        tag: TagSel,
        timeout: Option<Duration>,
    ) -> Result<(usize, i32, usize)> {
        self.peek_matching_checked(comm_id, src, tag, timeout, &|| None)
    }

    /// [`Mailbox::peek_matching`] with a failure predicate; same scan
    /// ordering and wait path as [`Mailbox::take_matching_checked`].
    pub(crate) fn peek_matching_checked(
        &self,
        comm_id: u64,
        src: Source,
        tag: TagSel,
        timeout: Option<Duration>,
        fail: &dyn Fn() -> Option<MpcError>,
    ) -> Result<(usize, i32, usize)> {
        self.wait_for(timeout, "probe", fail, |q| {
            q.iter()
                .find(|e| e.matches(comm_id, &src, &tag))
                .map(|e| (e.src, e.tag, e.payload.len()))
        })
    }

    /// The one blocking wait (see the module doc): `scan` the queue,
    /// consult `fail`, spin while the budget lasts, then park. A timeout
    /// performs one final scan after waking, so a message or failure
    /// that lands exactly at the deadline is never dropped on the floor.
    fn wait_for<R>(
        &self,
        timeout: Option<Duration>,
        operation: &'static str,
        fail: &dyn Fn() -> Option<MpcError>,
        mut scan: impl FnMut(&mut VecDeque<Envelope>) -> Option<R>,
    ) -> Result<R> {
        let deadline = deadline_after(timeout);
        let mut spinning = !self.spin.is_zero();
        let mut spin_deadline = None;
        let mut q = self.queue.lock();
        loop {
            if let Some(found) = scan(&mut q.envelopes) {
                return Ok(found);
            }
            if let Some(err) = fail() {
                return Err(err);
            }
            if spinning {
                let until = *spin_deadline.get_or_insert_with(|| spin_end(self.spin, deadline));
                let seen = self.epoch.load(Ordering::Relaxed);
                drop(q);
                spinning = spin_until(until, || self.epoch.load(Ordering::Acquire) != seen);
                // Whether the epoch moved or the budget ran out, rescan
                // under the re-taken lock before parking.
                q = self.queue.lock();
                continue;
            }
            q.sleepers += 1;
            let timed_out = match deadline {
                None => {
                    self.arrived.wait(&mut q);
                    false
                }
                Some(dl) => self.arrived.wait_until(&mut q, dl).timed_out(),
            };
            q.sleepers -= 1;
            if timed_out {
                // One final scan in case a message arrived exactly at
                // the deadline.
                if let Some(found) = scan(&mut q.envelopes) {
                    return Ok(found);
                }
                if let Some(err) = fail() {
                    return Err(err);
                }
                return Err(MpcError::Timeout {
                    waited: timeout.expect("deadline implies timeout"),
                    operation,
                });
            }
        }
    }

    /// Non-blocking probe: oldest matching envelope's (src, tag, len).
    pub(crate) fn try_peek_matching(
        &self,
        comm_id: u64,
        src: Source,
        tag: TagSel,
    ) -> Option<(usize, i32, usize)> {
        let q = self.queue.lock();
        q.envelopes
            .iter()
            .find(|e| e.matches(comm_id, &src, &tag))
            .map(|e| (e.src, e.tag, e.payload.len()))
    }

    /// Number of queued messages (diagnostic).
    pub fn pending(&self) -> usize {
        self.queue.lock().envelopes.len()
    }
}

/// Convenience Arc alias.
pub(crate) type SharedMailbox = Arc<Mailbox>;

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn env(comm_id: u64, src: usize, tag: i32, body: &[u8]) -> Envelope {
        Envelope {
            comm_id,
            src,
            tag,
            payload: Bytes::copy_from_slice(body),
            sync_ack: None,
        }
    }

    #[test]
    fn take_in_fifo_order_per_sender_tag() {
        let mb = Mailbox::new();
        mb.deposit(env(0, 1, 7, b"first"));
        mb.deposit(env(0, 1, 7, b"second"));
        let a = mb
            .take_matching(0, Source::Rank(1), TagSel::Tag(7), None)
            .unwrap();
        let b = mb
            .take_matching(0, Source::Rank(1), TagSel::Tag(7), None)
            .unwrap();
        assert_eq!(&a.payload[..], b"first");
        assert_eq!(&b.payload[..], b"second");
    }

    #[test]
    fn selector_skips_nonmatching_but_preserves_order() {
        let mb = Mailbox::new();
        mb.deposit(env(0, 2, 1, b"fromtwo"));
        mb.deposit(env(0, 1, 1, b"fromone"));
        // Ask for rank 1 first: must skip the rank-2 message, not consume it.
        let a = mb
            .take_matching(0, Source::Rank(1), TagSel::Any, None)
            .unwrap();
        assert_eq!(&a.payload[..], b"fromone");
        assert_eq!(mb.pending(), 1);
        let b = mb.take_matching(0, Source::Any, TagSel::Any, None).unwrap();
        assert_eq!(&b.payload[..], b"fromtwo");
    }

    #[test]
    fn any_source_takes_oldest() {
        let mb = Mailbox::new();
        mb.deposit(env(0, 3, 0, b"old"));
        mb.deposit(env(0, 1, 0, b"new"));
        let got = mb.take_matching(0, Source::Any, TagSel::Any, None).unwrap();
        assert_eq!(&got.payload[..], b"old");
        assert_eq!(got.src, 3);
    }

    #[test]
    fn timeout_on_empty_mailbox() {
        let mb = Mailbox::new();
        let err = mb
            .take_matching(0, Source::Any, TagSel::Any, Some(Duration::from_millis(30)))
            .unwrap_err();
        assert!(matches!(err, MpcError::Timeout { .. }));
    }

    #[test]
    fn blocking_take_wakes_on_deposit() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || {
            mb2.take_matching(0, Source::Rank(0), TagSel::Tag(5), None)
                .unwrap()
        });
        std::thread::sleep(Duration::from_millis(20));
        mb.deposit(env(0, 0, 5, b"wake"));
        let got = handle.join().unwrap();
        assert_eq!(&got.payload[..], b"wake");
    }

    #[test]
    fn comm_ids_isolate_messages() {
        let mb = Mailbox::new();
        mb.deposit(env(42, 0, 0, b"other-comm"));
        let err = mb
            .take_matching(0, Source::Any, TagSel::Any, Some(Duration::from_millis(20)))
            .unwrap_err();
        assert!(matches!(err, MpcError::Timeout { .. }));
        assert_eq!(mb.pending(), 1);
    }

    #[test]
    fn peek_does_not_consume() {
        let mb = Mailbox::new();
        mb.deposit(env(0, 4, 9, b"xyz"));
        let (src, tag, len) = mb.peek_matching(0, Source::Any, TagSel::Any, None).unwrap();
        assert_eq!((src, tag, len), (4, 9, 3));
        assert_eq!(mb.pending(), 1);
    }

    #[test]
    fn try_peek_nonblocking() {
        let mb = Mailbox::new();
        assert!(mb.try_peek_matching(0, Source::Any, TagSel::Any).is_none());
        mb.deposit(env(0, 0, 1, b"a"));
        assert_eq!(
            mb.try_peek_matching(0, Source::Any, TagSel::Any),
            Some((0, 1, 1))
        );
    }

    #[test]
    fn latch_open_wait() {
        let latch = Arc::new(Latch::new());
        let l2 = Arc::clone(&latch);
        let h = std::thread::spawn(move || l2.wait(Some(Duration::from_secs(5))));
        std::thread::sleep(Duration::from_millis(10));
        latch.open();
        assert!(h.join().unwrap());
    }

    #[test]
    fn latch_timeout_returns_false() {
        let latch = Latch::new();
        assert!(!latch.wait(Some(Duration::from_millis(20))));
    }

    #[test]
    fn huge_timeouts_do_not_panic() {
        // `Instant::now() + Duration::MAX` would panic; the checked
        // deadline falls back to an untimed wait instead.
        let latch = Arc::new(Latch::new());
        let l2 = Arc::clone(&latch);
        let h = std::thread::spawn(move || l2.wait(Some(Duration::MAX)));
        std::thread::sleep(Duration::from_millis(10));
        latch.open();
        assert!(h.join().unwrap());

        let mb = Mailbox::new();
        mb.deposit(env(0, 1, 0, b"x"));
        let got = mb
            .take_matching(0, Source::Any, TagSel::Any, Some(Duration::MAX))
            .unwrap();
        assert_eq!(&got.payload[..], b"x");
        mb.deposit(env(0, 1, 0, b"y"));
        let (src, _, _) = mb
            .peek_matching(0, Source::Any, TagSel::Any, Some(Duration::MAX))
            .unwrap();
        assert_eq!(src, 1);
    }

    #[test]
    fn latch_hook_runs_once_at_open() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = Arc::new(AtomicUsize::new(0));
        let latch = Latch::new();
        let c2 = Arc::clone(&calls);
        latch.set_hook(Box::new(move || {
            c2.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        latch.open();
        latch.open(); // idempotent: hook must not rerun
        assert_eq!(calls.load(Ordering::SeqCst), 1);

        // A hook attached after the open is dropped unrun.
        let late = Arc::clone(&calls);
        latch.set_hook(Box::new(move || {
            late.fetch_add(10, Ordering::SeqCst);
        }));
        latch.open();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn deposit_front_overtakes() {
        let mb = Mailbox::new();
        mb.deposit(env(0, 1, 7, b"first"));
        mb.deposit_front(env(0, 1, 7, b"jumped"));
        let a = mb.take_matching(0, Source::Any, TagSel::Any, None).unwrap();
        assert_eq!(&a.payload[..], b"jumped");
    }

    #[test]
    fn checked_take_scans_queue_before_failing() {
        let mb = Mailbox::new();
        mb.deposit(env(0, 1, 0, b"already-sent"));
        let fail = || Some(MpcError::PeerGone { rank: 1 });
        // The pre-death message is still delivered...
        let got = mb
            .take_matching_checked(0, Source::Rank(1), TagSel::Any, None, &fail)
            .unwrap();
        assert_eq!(&got.payload[..], b"already-sent");
        // ...and only a would-block wait surfaces the failure.
        let err = mb
            .take_matching_checked(0, Source::Rank(1), TagSel::Any, None, &fail)
            .unwrap_err();
        assert!(matches!(err, MpcError::PeerGone { rank: 1 }));
    }

    #[test]
    fn interrupt_wakes_blocked_checked_take() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let mb = Arc::new(Mailbox::new());
        let dead = Arc::new(AtomicBool::new(false));
        let (mb2, dead2) = (Arc::clone(&mb), Arc::clone(&dead));
        let h = std::thread::spawn(move || {
            mb2.take_matching_checked(0, Source::Rank(1), TagSel::Any, None, &|| {
                dead2
                    .load(Ordering::SeqCst)
                    .then_some(MpcError::PeerGone { rank: 1 })
            })
        });
        std::thread::sleep(Duration::from_millis(20));
        dead.store(true, Ordering::SeqCst);
        mb.interrupt();
        let err = h.join().unwrap().unwrap_err();
        assert!(matches!(err, MpcError::PeerGone { rank: 1 }));
    }

    #[test]
    fn spinning_take_parks_and_still_wakes() {
        // Deposit only once the receiver has spent its spin budget and
        // parked, so the notify to a counted sleeper is what wakes it.
        let mb = Arc::new(Mailbox::with_spin(SPIN_BUDGET));
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || {
            mb2.take_matching(0, Source::Rank(0), TagSel::Tag(5), None)
                .unwrap()
        });
        while mb.queue.lock().sleepers == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        mb.deposit(env(0, 0, 5, b"late"));
        let got = handle.join().unwrap();
        assert_eq!(&got.payload[..], b"late");
    }

    #[test]
    fn interrupt_during_spin_surfaces_peer_gone() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // A budget far longer than the test: the receiver is still
        // spinning when the interrupt lands, so only the epoch can wake it.
        let mb = Arc::new(Mailbox::with_spin(Duration::from_secs(60)));
        let dead = Arc::new(AtomicBool::new(false));
        let (mb2, dead2) = (Arc::clone(&mb), Arc::clone(&dead));
        let start = Instant::now();
        let h = std::thread::spawn(move || {
            mb2.take_matching_checked(0, Source::Rank(1), TagSel::Any, None, &|| {
                dead2
                    .load(Ordering::SeqCst)
                    .then_some(MpcError::PeerGone { rank: 1 })
            })
        });
        std::thread::sleep(Duration::from_millis(5));
        dead.store(true, Ordering::SeqCst);
        mb.interrupt();
        let err = h.join().unwrap().unwrap_err();
        assert!(matches!(err, MpcError::PeerGone { rank: 1 }));
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "woken by the epoch, not the budget"
        );
    }

    #[test]
    fn short_timeout_caps_the_spin() {
        // A 10 µs timeout, shorter than the spin budget, must time out
        // near 10 µs. Best of five, so one descheduling of this thread by
        // a busy host cannot fail the test.
        for spin in [SPIN_BUDGET, Duration::from_secs(60)] {
            let mb = Mailbox::with_spin(spin);
            let best = (0..5)
                .map(|_| {
                    let start = Instant::now();
                    let err = mb
                        .take_matching(0, Source::Any, TagSel::Any, Some(Duration::from_micros(10)))
                        .unwrap_err();
                    assert!(matches!(
                        err,
                        MpcError::Timeout {
                            operation: "recv",
                            ..
                        }
                    ));
                    start.elapsed()
                })
                .min()
                .unwrap();
            assert!(
                best < Duration::from_millis(2),
                "10 µs timeout took {best:?}"
            );
        }
    }

    #[test]
    fn spinning_latch_opens_and_times_out() {
        // Opened while the waiter spins (a budget far longer than the
        // test) and, on a second latch, after it has parked.
        for (spin, parked) in [(Duration::from_secs(60), false), (SPIN_BUDGET, true)] {
            let latch = Arc::new(Latch::with_spin(spin));
            let l2 = Arc::clone(&latch);
            let start = Instant::now();
            let h = std::thread::spawn(move || l2.wait(None));
            while parked && latch.state.lock().sleepers == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            latch.open();
            assert!(h.join().unwrap());
            assert!(start.elapsed() < Duration::from_secs(10));
        }

        let latch = Latch::with_spin(Duration::from_secs(60));
        let start = Instant::now();
        assert!(!latch.wait(Some(Duration::from_millis(5))));
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the deadline caps the spin"
        );
    }

    #[test]
    fn take_opens_sync_latch() {
        let mb = Mailbox::new();
        let latch = Arc::new(Latch::new());
        mb.deposit(Envelope {
            comm_id: 0,
            src: 0,
            tag: 0,
            payload: Bytes::new(),
            sync_ack: Some(Arc::clone(&latch)),
        });
        assert!(
            !latch.wait(Some(Duration::from_millis(1))),
            "not yet received"
        );
        mb.take_matching(0, Source::Any, TagSel::Any, None).unwrap();
        assert!(
            latch.wait(Some(Duration::from_millis(1))),
            "opened at match time"
        );
    }
}
