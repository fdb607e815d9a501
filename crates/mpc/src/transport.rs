//! The wire-transport abstraction: how a [`Comm`](crate::Comm) reaches
//! ranks that are *not* threads in this process.
//!
//! The default fabric runs every rank as a thread and every send as a
//! mailbox deposit. A [`Transport`] replaces that deposit with a frame
//! handed to a real wire (pdc-net's TCP backend, a future RDMA backend)
//! while everything above the chokepoint — matching semantics,
//! collectives, `ssend` rendezvous, `send_reliable`, the `DeadSet`, and
//! injected message faults — runs unchanged:
//!
//! - Outbound: `send_bytes_inner` applies the fault injector's verdict,
//!   frames the message as a [`WireFrame`] and calls
//!   [`Transport::send_frame`] once per copy (none for a drop).
//! - Inbound: whichever thread reads a link — the transport's receive
//!   pump, or a rank blocked on that link ([`Transport::progress`]) —
//!   calls [`WireHandle::deliver`], depositing into the one local
//!   mailbox.
//! - Rendezvous/acks: a sender needing a delivery ack registers its
//!   [`Latch`] in the fabric's ack table and ships the id; the
//!   receiving side echoes the id in an ack frame at *match time*
//!   (via the latch open hook), and [`WireHandle::complete_ack`] opens
//!   the sender's latch — `ssend` and `send_reliable` never know the
//!   receiver was another OS process.
//! - Failure: the transport's failure detector (heartbeat timeouts,
//!   exhausted reconnects, explicit crash notices) calls
//!   [`WireHandle::mark_dead`], feeding the same `DeadSet` that
//!   cooperative thread crashes feed — so `is_alive`, `PeerGone`, and
//!   `shrink` behave identically on both fabrics.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::envelope::{Envelope, Tag};
use crate::mailbox::Latch;
use crate::world::Fabric;

/// One logical message bound for a remote rank — what the send
/// chokepoint hands to [`Transport::send_frame`], and what the thread
/// reading a link hands back to [`WireHandle::deliver`].
#[derive(Debug, Clone)]
pub struct WireFrame {
    /// Destination communicator id.
    pub comm_id: u64,
    /// Sender's *group* rank within that communicator (what the
    /// receiver's `Status::source` reports).
    pub src_group: usize,
    /// Message tag; negative tags are runtime-internal collective
    /// traffic riding the reliable control plane.
    pub tag: Tag,
    /// Serialized payload.
    pub payload: Bytes,
    /// Nonzero when the sender wants a delivery ack at match time
    /// (`ssend` rendezvous, `send_reliable`): the receiving side must
    /// echo this id back once a receive matches the message.
    pub ack_id: u64,
    /// Deliver ahead of all queued traffic — fault-injected reordering
    /// (deliberately violates the non-overtaking guarantee).
    pub overtake: bool,
}

/// A wire between this process (hosting exactly one world rank) and its
/// peers. Implementations are expected to be `Arc`-shared with the
/// fabric and with whatever launched them.
pub trait Transport: Send + Sync {
    /// World rank this process hosts.
    fn rank(&self) -> usize;

    /// World size.
    fn size(&self) -> usize;

    /// Per-rank processor names; must return `size()` entries.
    fn hostnames(&self) -> Vec<String>;

    /// Called once by `World::attach`, handing the transport its route
    /// back into the fabric. Pumps must not deliver before `start`.
    fn start(&self, wire: WireHandle);

    /// Hand one frame to the wire toward world rank `dst` (never this
    /// process's own rank — self-sends short-circuit at the chokepoint).
    /// Delivery still depends on the wire — reliability is layered
    /// above, not promised here — and sends to dead or unreachable peers
    /// succeed vacuously, like depositing into a mailbox nobody will
    /// ever drain.
    fn send_frame(&self, dst: usize, frame: WireFrame);

    /// This process is abandoning the world (a *cooperative* crash):
    /// notify peers so their failure detectors need not wait out a
    /// heartbeat timeout. A real kill never gets to call this — that is
    /// the case heartbeats exist for.
    fn announce_crash(&self) {}

    /// Graceful teardown: say goodbye to peers after every frame already
    /// sent, stop the transport's threads. Idempotent.
    fn shutdown(&self) {}

    /// Progress hook of a rank about to block on a wire wait (a receive,
    /// a probe, a sync-send or reliable-send latch). `link` is the one
    /// world rank whose frames can end the wait, or `None` when several
    /// links (or none) can.
    ///
    /// With a `link`, a transport may read and handle that link's frames
    /// on the calling thread — the waiter drives the network, as in
    /// MPICH's progress engine — running `ready` (the wait's own check,
    /// failure predicate included) before every read, and return as soon
    /// as `ready` returns `true`. Deposits that do not come off `link`
    /// (another thread's self-send, a crash verdict) reach a leading
    /// waiter at its next socket read timeout at the latest.
    ///
    /// A transport declines a wait by returning before `ready` holds: no
    /// hook, no `link`, no link up, or a `deadline` nearer than one
    /// socket read timeout (a read could overrun it; a non-blocking poll
    /// passes a deadline of now). The caller then parks on its wait cell
    /// as a thread-mode rank does, and the transport must keep reading
    /// every link the wait could be ended by. The default declines every
    /// wait.
    fn progress(
        &self,
        link: Option<usize>,
        deadline: Option<Instant>,
        ready: &mut dyn FnMut() -> bool,
    ) {
        let _ = (link, deadline, ready);
    }
}

/// A blocked wait on a wire fabric: the transport whose progress hook
/// it runs, and the one link that can end it, if just one can.
#[derive(Clone, Copy)]
pub(crate) struct Lead<'a> {
    pub(crate) transport: &'a dyn Transport,
    pub(crate) link: Option<usize>,
}

impl Lead<'_> {
    /// Run `check` through [`Transport::progress`] until it yields;
    /// `None` when the transport declines, and the caller parks instead.
    pub(crate) fn drive<R>(
        self,
        deadline: Option<Instant>,
        mut check: impl FnMut() -> Option<R>,
    ) -> Option<R> {
        let mut found = None;
        self.transport.progress(self.link, deadline, &mut || {
            found = check();
            found.is_some()
        });
        found
    }

    /// A poll that does not wait (`iprobe`, `test`): a zero deadline,
    /// which every transport declines, so any link a rank kept reading
    /// goes back to a pump and the poll sees frames as they arrive.
    pub(crate) fn poke(self) {
        self.transport
            .progress(self.link, Some(Instant::now()), &mut || false);
    }
}

/// Pending delivery acks by id — the cross-process analog of handing an
/// `Arc<Latch>` to an in-process receiver.
///
/// Entries for copies that are never matched (duplicates a receiver
/// never drains, copies outlived by their sender's retry loop) stay
/// registered for the fabric's lifetime; bounded by the retry budget
/// this is a deliberate small leak, not a hazard — a late ack for an
/// already-removed id is simply ignored.
#[derive(Debug, Default)]
pub(crate) struct AckTable {
    next: AtomicU64,
    /// id -> (latch, registration time in trace-ns; 0 when tracing was
    /// off at registration, so no sample is recorded at completion).
    pending: Mutex<HashMap<u64, (Arc<Latch>, u64)>>,
}

impl AckTable {
    /// Register a latch; returns its nonzero ack id.
    pub(crate) fn register(&self, latch: Arc<Latch>) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed) + 1; // 0 = "no ack wanted"
        let registered_ns = if pdc_trace::is_enabled() {
            pdc_trace::now_ns()
        } else {
            0
        };
        self.pending.lock().insert(id, (latch, registered_ns));
        id
    }

    /// Remove and return a registered latch, if still present. The
    /// register-to-take interval is the frame's application-level round
    /// trip — send to matched-and-acked — recorded as the `frame_rtt`
    /// histogram.
    pub(crate) fn take(&self, id: u64) -> Option<Arc<Latch>> {
        let (latch, registered_ns) = self.pending.lock().remove(&id)?;
        if registered_ns != 0 {
            pdc_trace::hist(
                "mpc",
                "frame_rtt",
                pdc_trace::now_ns().saturating_sub(registered_ns),
            );
        }
        Some(latch)
    }
}

/// The transport's route back into this process's fabric: deliver
/// inbound frames, complete acks, report peer death. Handed to the
/// transport by `World::attach`; clone-cheap.
#[derive(Clone)]
pub struct WireHandle {
    fabric: Arc<Fabric>,
}

impl std::fmt::Debug for WireHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireHandle")
            .field("rank", &self.rank())
            .finish()
    }
}

impl WireHandle {
    pub(crate) fn new(fabric: Arc<Fabric>) -> Self {
        Self { fabric }
    }

    /// World rank this process hosts.
    pub fn rank(&self) -> usize {
        self.fabric
            .transport()
            .expect("WireHandle exists only for wire fabrics")
            .rank()
    }

    /// Deliver one inbound frame into the local mailbox. When the frame
    /// asked for an ack (`ack_id != 0`) the caller supplies `ack`, run
    /// exactly once at *match time* — when a receive takes the message,
    /// not when it is deposited — typically writing an Ack frame back
    /// to the sender. That timing is what preserves `ssend` rendezvous
    /// semantics across the wire.
    pub fn deliver(&self, frame: WireFrame, ack: Option<Box<dyn FnOnce() + Send>>) {
        let sync_ack = ack.map(|hook| {
            let latch = Arc::new(Latch::new());
            latch.set_hook(hook);
            latch
        });
        let env = Envelope {
            comm_id: frame.comm_id,
            src: frame.src_group,
            tag: frame.tag,
            payload: frame.payload,
            sync_ack,
        };
        let mailbox = self.fabric.local_mailbox(self.rank());
        if frame.overtake {
            mailbox.deposit_front(env);
        } else {
            mailbox.deposit(env);
        }
    }

    /// A peer acked delivery of the frame registered under `id`.
    /// Unknown ids (late acks for abandoned attempts) are ignored.
    pub fn complete_ack(&self, id: u64) {
        if let Some(latch) = self.fabric.acks.take(id) {
            latch.open();
        }
    }

    /// Register a world rank as dead — the failure detector's verdict
    /// (heartbeat timeout, exhausted reconnects) or a peer's crash
    /// notice. Wakes local blocked receivers so they observe `PeerGone`
    /// promptly. Returns `true` the first time.
    pub fn mark_dead(&self, world_rank: usize) -> bool {
        if self.fabric.dead.mark(world_rank) {
            pdc_trace::instant("net", "peer_dead", vec![("rank", world_rank.into())]);
            self.fabric.local_mailbox(self.rank()).interrupt();
            true
        } else {
            false
        }
    }

    /// Is `world_rank` registered dead?
    pub fn is_dead(&self, world_rank: usize) -> bool {
        self.fabric.dead.contains(world_rank)
    }
}
