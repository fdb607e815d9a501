//! Per-rank mailboxes with MPI matching semantics.
//!
//! Each world rank owns one [`Mailbox`]. A send deposits an `Envelope`
//! at the destination's mailbox; a receive removes the *oldest* matching
//! envelope, blocking until one arrives. Because the queue is scanned in
//! arrival order, the MPI **non-overtaking** guarantee holds: two messages
//! from the same sender with the same tag are received in send order.
//!
//! ## Waiting
//!
//! Every blocking wait — a receive or probe with no match yet, a
//! synchronous sender on its [`Latch`] — is a wait on pdc-shmem's
//! [`WaitCell`], which holds the spin-then-park protocol. A receive scans
//! the queue *before* it consults its failure predicate, so messages a
//! dead peer deposited stay receivable; a crash (`Mailbox::interrupt`)
//! notifies without changing the queue. Wire ranks (`World::attach`)
//! never spin: pdc-net's reader pumps need the same CPUs, and on a
//! 2-vCPU host spinning them cut the wire lab's time by ~29% but raised
//! its CPU per lab by ~27%.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use pdc_shmem::sync::{deadline_after, WaitCell};

use crate::envelope::{Envelope, Source, TagSel};
use crate::error::{MpcError, Result};

/// A one-shot completion latch used by synchronous sends: the sender
/// blocks on [`Latch::wait`] until the receiver calls [`Latch::open`]
/// at match time — the rendezvous that makes `ssend` deadlock-capable.
///
/// A latch may also carry an *open hook*, run exactly once when the
/// latch opens. The wire transport uses it to write an Ack frame back
/// to a remote sender at match time — the cross-process analog of the
/// in-process waiter wakeup.
#[derive(Default)]
pub struct Latch {
    cell: WaitCell<LatchState>,
    spin: Duration,
}

#[derive(Default)]
struct LatchState {
    open: bool,
    hook: Option<Box<dyn FnOnce() + Send>>,
}

impl std::fmt::Debug for Latch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.cell.lock();
        f.debug_struct("Latch")
            .field("open", &st.open)
            .field("hook", &st.hook.is_some())
            .finish()
    }
}

impl Latch {
    /// Create a closed latch whose waiters park at once.
    pub fn new() -> Self {
        Self::default()
    }

    /// A closed latch whose waiters spin for up to `spin` before parking.
    pub(crate) fn with_spin(spin: Duration) -> Self {
        Self {
            spin,
            ..Self::default()
        }
    }

    /// Attach a hook to run once when the latch opens. Attach before
    /// publishing the latch: if it is already open the hook is dropped
    /// unrun.
    pub fn set_hook(&self, hook: Box<dyn FnOnce() + Send>) {
        let mut st = self.cell.lock();
        if !st.open {
            st.hook = Some(hook);
        }
    }

    /// Open the latch, waking all waiters. Idempotent; the open hook
    /// (if any) runs exactly once, after waiters are notified, outside
    /// the latch lock.
    pub fn open(&self) {
        let mut st = self.cell.lock();
        st.open = true;
        let hook = st.hook.take();
        st.notify();
        if let Some(hook) = hook {
            hook();
        }
    }

    /// Block until the latch opens, or until `timeout` (None = forever).
    /// Returns `false` on timeout. A timeout too large for an `Instant`
    /// deadline waits forever.
    pub fn wait(&self, timeout: Option<Duration>) -> bool {
        self.cell
            .wait_until(self.spin, deadline_after(timeout), |st| {
                st.open.then_some(())
            })
            .is_some()
    }
}

/// The pending-message queue of one rank.
#[derive(Debug, Default)]
pub struct Mailbox {
    queue: WaitCell<VecDeque<Envelope>>,
    /// How long a blocked wait spins before parking; zero parks at once.
    spin: Duration,
}

impl Mailbox {
    /// Empty mailbox whose receivers park at once.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty mailbox whose receivers spin for up to `spin` before
    /// parking.
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
        let depth = {
            let mut q = self.queue.lock();
            put(&mut q, env);
            let depth = q.len();
            q.notify();
            depth
        };
        // Sampled on every deposit/removal, the gauge traces the queue
        // depth over time — backlog spikes show up as a sawtooth in the
        // timeline rather than only as an end-of-run total — while the
        // histogram keeps the depth *distribution* (p50/p90/p99).
        pdc_trace::gauge("mpc", "mailbox_depth", depth as f64);
        pdc_trace::hist("mpc", "mailbox_depth", depth as u64);
    }

    /// Wake every blocked waiter without delivering anything, so it
    /// re-evaluates its failure predicate. Called when a rank crashes:
    /// receivers blocked on the dead rank return `PeerGone` promptly
    /// instead of waiting out their timeout.
    pub(crate) fn interrupt(&self) {
        self.queue.lock().notify();
    }

    /// Remove and return the oldest envelope matching the selectors,
    /// blocking until one arrives or `timeout` elapses (None = forever).
    ///
    /// Opens the envelope's sync latch (if any) *at match time*, which is
    /// when a synchronous send is allowed to complete. The latch opens
    /// after the queue lock is released: its hook may write an ack to a
    /// socket, and a write that blocks must not stall deposits.
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
        let env = self.wait_for(timeout, "recv", fail, |q| {
            let pos = q.iter().position(|e| e.matches(comm_id, &src, &tag))?;
            let env = q.remove(pos).expect("position just found");
            pdc_trace::gauge("mpc", "mailbox_depth", q.len() as f64);
            pdc_trace::hist("mpc", "mailbox_depth", q.len() as u64);
            Some(env)
        })?;
        if let Some(latch) = &env.sync_ack {
            latch.open();
        }
        Ok(env)
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

    /// The one blocking wait (see the module doc): `scan` the queue, and
    /// only if it finds nothing consult `fail`. A timeout scans once more
    /// after waking, so a message or failure that lands exactly at the
    /// deadline is never dropped on the floor.
    fn wait_for<R>(
        &self,
        timeout: Option<Duration>,
        operation: &'static str,
        fail: &dyn Fn() -> Option<MpcError>,
        mut scan: impl FnMut(&mut VecDeque<Envelope>) -> Option<R>,
    ) -> Result<R> {
        self.queue
            .wait_until(self.spin, deadline_after(timeout), |q| match scan(q) {
                Some(found) => Some(Ok(found)),
                None => fail().map(Err),
            })
            .unwrap_or_else(|| {
                Err(MpcError::Timeout {
                    waited: timeout.expect("only a timed wait times out"),
                    operation,
                })
            })
    }

    /// Non-blocking probe: oldest matching envelope's (src, tag, len).
    pub(crate) fn try_peek_matching(
        &self,
        comm_id: u64,
        src: Source,
        tag: TagSel,
    ) -> Option<(usize, i32, usize)> {
        self.queue
            .lock()
            .iter()
            .find(|e| e.matches(comm_id, &src, &tag))
            .map(|e| (e.src, e.tag, e.payload.len()))
    }

    /// Number of queued messages (diagnostic).
    pub fn pending(&self) -> usize {
        self.queue.lock().len()
    }
}

/// Convenience Arc alias.
pub(crate) type SharedMailbox = Arc<Mailbox>;

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use pdc_shmem::sync::SPIN_BUDGET;
    use std::time::Instant;

    /// Longest a test here waits for a wake-up before failing.
    const WATCHDOG: Duration = Duration::from_secs(10);

    /// Wait until `parked` reports a parked waiter, failing at [`WATCHDOG`].
    fn until_parked(parked: impl Fn() -> usize) {
        let start = Instant::now();
        while parked() == 0 {
            assert!(start.elapsed() < WATCHDOG, "the waiter never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

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
        // A lost interrupt would surface only at the timeout's final
        // check: the elapsed time tells the two apart.
        let h = std::thread::spawn(move || {
            let start = Instant::now();
            let got =
                mb2.take_matching_checked(0, Source::Rank(1), TagSel::Any, Some(WATCHDOG), &|| {
                    dead2
                        .load(Ordering::SeqCst)
                        .then_some(MpcError::PeerGone { rank: 1 })
                });
            (got, start.elapsed())
        });
        until_parked(|| mb.queue.parked());
        dead.store(true, Ordering::SeqCst);
        mb.interrupt();
        let (got, waited) = h.join().unwrap();
        assert!(matches!(got, Err(MpcError::PeerGone { rank: 1 })));
        assert!(waited < WATCHDOG, "woken by the interrupt, not the timeout");
    }

    #[test]
    fn blocking_take_wakes_on_deposit() {
        // Deposit only once the receiver has parked (at once, or after
        // its spin budget), so the notify to a counted sleeper is what
        // wakes it. A lost notify would leave it parked until its
        // timeout, whose final scan finds the message: the elapsed time
        // tells them apart.
        for spin in [Duration::ZERO, SPIN_BUDGET] {
            let mb = Arc::new(Mailbox::with_spin(spin));
            let mb2 = Arc::clone(&mb);
            let handle = std::thread::spawn(move || {
                let start = Instant::now();
                let got = mb2
                    .take_matching(0, Source::Rank(0), TagSel::Tag(5), Some(WATCHDOG))
                    .unwrap();
                (got, start.elapsed())
            });
            until_parked(|| mb.queue.parked());
            mb.deposit(env(0, 0, 5, b"wake"));
            let (got, waited) = handle.join().unwrap();
            assert_eq!(&got.payload[..], b"wake");
            assert!(waited < WATCHDOG, "woken by the deposit, not the timeout");
        }
    }

    #[test]
    fn interrupt_during_spin_surfaces_peer_gone() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // A budget far longer than the test: the receiver is still
        // spinning when the interrupt lands, so only the version can wake it.
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
            "woken by the version, not the budget"
        );
    }

    #[test]
    fn short_timeout_caps_the_spin() {
        // A 10 µs timeout must time out near 10 µs, whatever the spin
        // budget. Best of five, so one descheduling of this thread by a
        // busy host cannot fail the test.
        for spin in [Duration::ZERO, SPIN_BUDGET, Duration::from_secs(60)] {
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
        // test) and, on other latches, after it has parked.
        for (spin, parked) in [
            (Duration::from_secs(60), false),
            (SPIN_BUDGET, true),
            (Duration::ZERO, true),
        ] {
            let latch = Arc::new(Latch::with_spin(spin));
            let l2 = Arc::clone(&latch);
            let start = Instant::now();
            let h = std::thread::spawn(move || l2.wait(Some(WATCHDOG)));
            if parked {
                until_parked(|| latch.cell.parked());
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
