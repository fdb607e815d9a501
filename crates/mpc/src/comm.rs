//! Communicators and point-to-point messaging.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use serde::de::DeserializeOwned;
use serde::Serialize;

use pdc_chaos::SendFault;

use crate::analysis::{self, OpKind};
use crate::envelope::{Envelope, Source, Tag, TagSel};
use crate::error::{MpcError, Result};
use crate::mailbox::{Latch, Mailbox};
use crate::transport::{Lead, WireFrame};
use crate::world::{Fabric, Route};

/// What became of one transmission at the send chokepoint — internal,
/// so `send_reliable` can count injected drops it must later recover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendOutcome {
    /// At least one copy was deposited at the destination.
    Delivered,
    /// The fault injector silently dropped the message.
    InjectedDrop,
}

/// Delivery metadata for a received message — the `MPI_Status` analog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Group rank of the sender.
    pub source: usize,
    /// Tag the message was sent with.
    pub tag: Tag,
    /// Serialized payload length in bytes.
    pub len: usize,
}

/// A communicator: a group of ranks that can exchange messages, isolated
/// from every other communicator's traffic — the `MPI_Comm` analog.
///
/// Cloning is cheap (it is a handle).
#[derive(Clone)]
pub struct Comm {
    pub(crate) fabric: Arc<Fabric>,
    pub(crate) comm_id: u64,
    /// Maps group rank → world rank.
    pub(crate) group: Arc<Vec<usize>>,
    /// This process's rank within the group.
    pub(crate) rank: usize,
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("comm_id", &self.comm_id)
            .field("rank", &self.rank)
            .field("size", &self.group.len())
            .finish()
    }
}

impl Comm {
    /// This process's rank in the communicator — `Get_rank()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator — `Get_size()`.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// The simulated host this rank runs on — `Get_processor_name()`.
    pub fn processor_name(&self) -> &str {
        &self.fabric.hostnames[self.world_rank(self.rank)]
    }

    /// World rank underlying a group rank.
    pub(crate) fn world_rank(&self, group_rank: usize) -> usize {
        self.group[group_rank]
    }

    fn check_rank(&self, rank: usize) -> Result<()> {
        if rank >= self.size() {
            return Err(MpcError::RankOutOfRange {
                rank,
                size: self.size(),
            });
        }
        Ok(())
    }

    fn check_user_tag(tag: Tag) -> Result<()> {
        if tag < 0 {
            return Err(MpcError::ReservedTag(tag));
        }
        Ok(())
    }

    /// Failure predicate for blocking receives: a receive from a
    /// specific rank that is registered dead fails with `PeerGone`
    /// (after the queue has been scanned — pre-death messages are still
    /// deliverable). `Source::Any` keeps waiting: some peer may yet send.
    fn peer_gone_check(&self, src: Source) -> impl Fn() -> Option<MpcError> + '_ {
        move || match src {
            Source::Rank(r) if r < self.group.len() && self.fabric.dead.contains(self.group[r]) => {
                Some(MpcError::PeerGone { rank: r })
            }
            _ => None,
        }
    }

    /// A wire wait's [`Lead`]: the one link a message from `src` can
    /// arrive on — `src` itself, or for `ANY_SOURCE` the only live peer
    /// in the group — or none. `None` on a thread fabric.
    pub(crate) fn lead(&self, src: Source) -> Option<Lead<'_>> {
        let transport = self.fabric.transport()?;
        let me = self.world_rank(self.rank);
        let link = match src {
            Source::Rank(r) => self.group.get(r).copied().filter(|&w| w != me),
            Source::Any => {
                let mut live = self
                    .group
                    .iter()
                    .copied()
                    .filter(|&w| w != me && !self.fabric.dead.contains(w));
                live.next().filter(|_| live.next().is_none())
            }
        };
        Some(Lead {
            transport: transport.as_ref(),
            link,
        })
    }

    // ------------------------------------------------------------------
    // Raw byte path (used internally and by zero-overhead benches).
    // ------------------------------------------------------------------

    /// Send raw bytes. Internal variant: permits reserved (negative) tags.
    pub(crate) fn send_bytes_internal(
        &self,
        dest: usize,
        tag: Tag,
        payload: Bytes,
        sync_ack: Option<Arc<Latch>>,
    ) -> Result<SendOutcome> {
        self.send_bytes_inner(dest, tag, payload, sync_ack, false)
    }

    /// The single send chokepoint: every message — user, collective, or
    /// retransmission — passes through here, on either fabric, which is
    /// where fault injection applies (`exempt` marks control-plane
    /// traffic that the injector must deliver: retransmissions from
    /// `send_reliable`).
    pub(crate) fn send_bytes_inner(
        &self,
        dest: usize,
        tag: Tag,
        payload: Bytes,
        sync_ack: Option<Arc<Latch>>,
        exempt: bool,
    ) -> Result<SendOutcome> {
        self.check_rank(dest)?;
        let src_w = self.world_rank(self.rank);
        let dst_w = self.world_rank(dest);
        let bytes = payload.len();
        let mut span = pdc_trace::span("mpc", "send");
        span.arg("src", src_w);
        span.arg("dst", dst_w);
        span.arg("tag", tag);
        span.arg("bytes", bytes);
        let env = Envelope {
            comm_id: self.comm_id,
            src: self.rank,
            tag,
            payload,
            sync_ack,
        };
        // The injector's verdict, as the copies to send and whether they
        // overtake queued traffic. First transmissions only: exempting
        // retransmissions keeps the straggler_delays counter a pure
        // function of how many logical messages the slow rank sends, and
        // consults the injector once per logical message. Internal
        // collective traffic (negative tags) rides the reliable control
        // plane: `on_send` delivers it, so message faults apply to user
        // messages only, ULFM-style.
        let (copies, front) = match &self.fabric.injector {
            Some(inj) if !exempt => {
                if let Some(extra) = inj.straggle(src_w) {
                    std::thread::sleep(extra);
                }
                let (fault, copies, front) = match inj.on_send(src_w, dst_w, tag >= 0) {
                    SendFault::Deliver => (None, 1, false),
                    SendFault::Drop => (Some("drop"), 0, false),
                    SendFault::Duplicate => (Some("duplicate"), 2, false),
                    SendFault::Delay(extra) => {
                        std::thread::sleep(extra);
                        (Some("delay"), 1, false)
                    }
                    SendFault::Reorder => (Some("reorder"), 1, true),
                };
                if let Some(fault) = fault {
                    pdc_trace::instant(
                        "chaos",
                        "fault_injected",
                        vec![
                            ("fault", fault.into()),
                            ("dst", dst_w.into()),
                            ("tag", i64::from(tag).into()),
                        ],
                    );
                }
                (copies, front)
            }
            _ => (1, false),
        };
        match &self.fabric.route {
            Route::Threads(mailboxes) => deposit(&mailboxes[dst_w], env, copies, front),
            // Self-send: a loopback deposit, never a wire frame.
            Route::Wire { local, transport } if dst_w == transport.rank() => {
                deposit(local, env, copies, front)
            }
            // Remote: register the ack latch (if any) and frame each
            // copy; only the first copy carries the ack id.
            Route::Wire { transport, .. } if copies > 0 => {
                let ack_id = match &env.sync_ack {
                    Some(latch) => self.fabric.acks.register(Arc::clone(latch)),
                    None => 0,
                };
                let frame = WireFrame {
                    comm_id: self.comm_id,
                    src_group: self.rank,
                    tag,
                    payload: env.payload,
                    ack_id,
                    overtake: front,
                };
                let twin = (copies == 2).then(|| WireFrame {
                    ack_id: 0,
                    ..frame.clone()
                });
                transport.send_frame(dst_w, frame);
                if let Some(twin) = twin {
                    transport.send_frame(dst_w, twin);
                }
            }
            // A dropped remote message reaches no wire and registers no ack.
            Route::Wire { .. } => {}
        }
        // One op per send, counting the copies that reached the
        // destination: the traffic matrix folds these, so it reflects
        // what actually crossed the fabric.
        if let Some(rec) = &self.fabric.recorder {
            let kind = OpKind::Send {
                dst: dst_w,
                tag,
                bytes,
                user: tag >= 0,
                copies,
            };
            rec.record(src_w, kind);
        }
        Ok(if copies == 0 {
            SendOutcome::InjectedDrop
        } else {
            SendOutcome::Delivered
        })
    }

    pub(crate) fn recv_bytes_internal(
        &self,
        src: Source,
        tag: TagSel,
        timeout: Option<Duration>,
    ) -> Result<(Bytes, Status)> {
        let me = self.world_rank(self.rank);
        // The span covers the blocking wait, so its duration is the time
        // this rank spent idle for the message.
        let mut span = pdc_trace::span("mpc", "recv");
        let env = match self.fabric.local_mailbox(me).take_matching_checked(
            self.comm_id,
            src,
            tag,
            timeout,
            &self.peer_gone_check(src),
            self.lead(src),
        ) {
            Ok(env) => env,
            Err(e) => {
                // Record the *failed* wait: this rank was blocked on `src`
                // and never got a message — the raw material of the
                // wait-for graph the deadlock analyzer builds.
                if let Some(rec) = &self.fabric.recorder {
                    let user = match tag {
                        TagSel::Tag(t) => t >= 0,
                        TagSel::Any => true,
                    };
                    rec.record(
                        me,
                        OpKind::RecvFailed {
                            src: analysis::failed_src(src, &self.group),
                            tag: analysis::failed_tag(tag),
                            user,
                            reason: analysis::failure_reason(&e),
                        },
                    );
                }
                return Err(e);
            }
        };
        if let Some(rec) = &self.fabric.recorder {
            rec.record(
                me,
                OpKind::RecvDone {
                    src: self.world_rank(env.src),
                    tag: env.tag,
                    user: env.tag >= 0,
                },
            );
        }
        span.arg("src", self.world_rank(env.src));
        span.arg("dst", me);
        span.arg("tag", env.tag);
        span.arg("bytes", env.payload.len());
        let status = Status {
            source: env.src,
            tag: env.tag,
            len: env.payload.len(),
        };
        Ok((env.payload, status))
    }

    /// Buffered send of raw bytes with a user tag (`tag >= 0`).
    pub fn send_bytes(&self, dest: usize, tag: Tag, payload: Bytes) -> Result<()> {
        Self::check_user_tag(tag)?;
        self.send_bytes_internal(dest, tag, payload, None)
            .map(|_| ())
    }

    /// Receive raw bytes.
    pub fn recv_bytes(
        &self,
        src: impl Into<Source>,
        tag: impl Into<TagSel>,
    ) -> Result<(Bytes, Status)> {
        self.recv_bytes_internal(src.into(), tag.into(), None)
    }

    // ------------------------------------------------------------------
    // Typed (serde) path — the mpi4py-flavoured API the patternlets use.
    // ------------------------------------------------------------------

    /// Buffered (asynchronous, non-blocking) send of any serializable
    /// value — mpi4py's `comm.send(obj, dest, tag)`.
    ///
    /// Completes immediately regardless of whether the receive has been
    /// posted; the runtime buffers the message. Use [`Comm::ssend`] for
    /// rendezvous semantics.
    pub fn send<T: Serialize>(&self, dest: usize, tag: Tag, value: &T) -> Result<()> {
        Self::check_user_tag(tag)?;
        let bytes = encode(value);
        self.send_bytes_internal(dest, tag, bytes, None).map(|_| ())
    }

    /// Synchronous send — `MPI_Ssend`. Blocks until the destination has
    /// *matched* the message with a receive. Two ranks ssend-ing to each
    /// other before receiving deadlock, exactly like the paper's
    /// message-passing deadlock discussion.
    pub fn ssend<T: Serialize>(&self, dest: usize, tag: Tag, value: &T) -> Result<()> {
        self.ssend_timeout(dest, tag, value, None)
    }

    /// [`Comm::ssend`] with an optional timeout — lets tests demonstrate
    /// the deadlock without hanging the suite.
    pub fn ssend_timeout<T: Serialize>(
        &self,
        dest: usize,
        tag: Tag,
        value: &T,
        timeout: Option<Duration>,
    ) -> Result<()> {
        Self::check_user_tag(tag)?;
        let bytes = encode(value);
        let latch = Arc::new(Latch::with_spin(self.fabric.spin));
        self.send_bytes_internal(dest, tag, bytes, Some(Arc::clone(&latch)))?;
        if latch.wait_on(timeout, self.lead(Source::Rank(dest))) {
            Ok(())
        } else {
            Err(MpcError::Timeout {
                waited: timeout.expect("timeout path requires a duration"),
                operation: "ssend",
            })
        }
    }

    /// Blocking receive — mpi4py's `comm.recv(source=…, tag=…)`.
    pub fn recv<T: DeserializeOwned>(
        &self,
        src: impl Into<Source>,
        tag: impl Into<TagSel>,
    ) -> Result<T> {
        self.recv_status(src, tag).map(|(v, _)| v)
    }

    /// Blocking receive returning the value and its [`Status`].
    pub fn recv_status<T: DeserializeOwned>(
        &self,
        src: impl Into<Source>,
        tag: impl Into<TagSel>,
    ) -> Result<(T, Status)> {
        let (bytes, status) = self.recv_bytes_internal(src.into(), tag.into(), None)?;
        Ok((decode(&bytes)?, status))
    }

    /// Receive with a deadline; times out with [`MpcError::Timeout`] —
    /// the runtime's deadlock detector for teaching examples.
    pub fn recv_timeout<T: DeserializeOwned>(
        &self,
        src: impl Into<Source>,
        tag: impl Into<TagSel>,
        timeout: Duration,
    ) -> Result<(T, Status)> {
        let (bytes, status) = self.recv_bytes_internal(src.into(), tag.into(), Some(timeout))?;
        Ok((decode(&bytes)?, status))
    }

    /// Combined send + receive — `MPI_Sendrecv`. Because sends are
    /// buffered this cannot deadlock, making it the safe way to write the
    /// neighbour-exchange pattern.
    pub fn sendrecv<T: Serialize, U: DeserializeOwned>(
        &self,
        dest: usize,
        send_tag: Tag,
        value: &T,
        src: impl Into<Source>,
        recv_tag: impl Into<TagSel>,
    ) -> Result<(U, Status)> {
        self.send(dest, send_tag, value)?;
        self.recv_status(src, recv_tag)
    }

    /// Non-blocking send — `MPI_Isend`. Buffered sends complete
    /// immediately, so the returned request is already complete; it exists
    /// so patternlet code reads like its MPI original.
    pub fn isend<T: Serialize>(&self, dest: usize, tag: Tag, value: &T) -> Result<SendRequest> {
        self.send(dest, tag, value)?;
        Ok(SendRequest { _done: true })
    }

    /// Non-blocking receive — `MPI_Irecv`. Matching is deferred to
    /// [`RecvRequest::wait`]; [`RecvRequest::test`] polls.
    pub fn irecv<T: DeserializeOwned>(
        &self,
        src: impl Into<Source>,
        tag: impl Into<TagSel>,
    ) -> RecvRequest<T> {
        RecvRequest {
            comm: self.clone(),
            src: src.into(),
            tag: tag.into(),
            _marker: PhantomData,
        }
    }

    /// Blocking probe — `MPI_Probe`: wait until a matching message is
    /// pending and report its status without consuming it.
    pub fn probe(&self, src: impl Into<Source>, tag: impl Into<TagSel>) -> Result<Status> {
        let me = self.world_rank(self.rank);
        let src = src.into();
        let (source, tag, len) = self.fabric.local_mailbox(me).peek_matching_checked(
            self.comm_id,
            src,
            tag.into(),
            None,
            &self.peer_gone_check(src),
            self.lead(src),
        )?;
        Ok(Status { source, tag, len })
    }

    /// Non-blocking probe — `MPI_Iprobe`.
    pub fn iprobe(&self, src: impl Into<Source>, tag: impl Into<TagSel>) -> Option<Status> {
        let me = self.world_rank(self.rank);
        let src = src.into();
        if let Some(lead) = self.lead(src) {
            lead.poke();
        }
        self.fabric
            .local_mailbox(me)
            .try_peek_matching(self.comm_id, src, tag.into())
            .map(|(source, tag, len)| Status { source, tag, len })
    }
}

/// Completed-send handle returned by [`Comm::isend`].
#[derive(Debug)]
pub struct SendRequest {
    _done: bool,
}

impl SendRequest {
    /// Wait for completion (immediate for buffered sends).
    pub fn wait(self) -> Result<()> {
        Ok(())
    }
}

/// Pending-receive handle returned by [`Comm::irecv`].
pub struct RecvRequest<T> {
    comm: Comm,
    src: Source,
    tag: TagSel,
    _marker: PhantomData<fn() -> T>,
}

impl<T: DeserializeOwned> RecvRequest<T> {
    /// Block until the message arrives — `MPI_Wait`.
    pub fn wait(self) -> Result<(T, Status)> {
        let (bytes, status) = self.comm.recv_bytes_internal(self.src, self.tag, None)?;
        Ok((decode(&bytes)?, status))
    }

    /// Wait with a deadline.
    pub fn wait_timeout(self, timeout: Duration) -> Result<(T, Status)> {
        let (bytes, status) = self
            .comm
            .recv_bytes_internal(self.src, self.tag, Some(timeout))?;
        Ok((decode(&bytes)?, status))
    }

    /// Poll — `MPI_Test`: `Err(self)` to retry while nothing matching is
    /// pending, otherwise `Ok` with the completed receive — which is
    /// itself an error when the payload does not decode as `T`
    /// (`MpcError::Decode`) or the take fails.
    #[allow(clippy::result_large_err)]
    pub fn test(self) -> std::result::Result<Result<(T, Status)>, Self> {
        let me = self.comm.world_rank(self.comm.rank);
        if let Some(lead) = self.comm.lead(self.src) {
            lead.poke();
        }
        if self
            .comm
            .fabric
            .local_mailbox(me)
            .try_peek_matching(self.comm.comm_id, self.src, self.tag)
            .is_none()
        {
            return Err(self);
        }
        // A matching message is pending; the blocking take cannot block
        // for long (only this thread consumes our mailbox).
        Ok(self
            .comm
            .recv_bytes_internal(self.src, self.tag, None)
            .and_then(|(bytes, status)| Ok((decode(&bytes)?, status))))
    }
}

/// Wait on many receive requests — `MPI_Waitall`. Results are returned
/// in request order; the call blocks until every request completes.
///
/// ```
/// use pdc_mpc::{comm::wait_all, World};
///
/// let out = World::new(3).run(|c| {
///     if c.rank() == 0 {
///         let reqs = vec![c.irecv::<u32>(1, 0), c.irecv::<u32>(2, 0)];
///         wait_all(reqs).unwrap().into_iter().map(|(v, _)| v).sum()
///     } else {
///         c.send(0, 0, &(c.rank() as u32 * 10)).unwrap();
///         0
///     }
/// });
/// assert_eq!(out[0], 30);
/// ```
pub fn wait_all<T: DeserializeOwned>(requests: Vec<RecvRequest<T>>) -> Result<Vec<(T, Status)>> {
    requests.into_iter().map(RecvRequest::wait).collect()
}

/// Deposit `copies` of `env`, at the front of the queue when `front`.
/// A duplicate's twin carries no `sync_ack`: only one copy completes an
/// `ssend` rendezvous.
fn deposit(mailbox: &Mailbox, env: Envelope, copies: u8, front: bool) {
    match copies {
        0 => {}
        1 if front => mailbox.deposit_front(env),
        1 => mailbox.deposit(env),
        _ => {
            let twin = Envelope {
                sync_ack: None,
                ..env.clone()
            };
            mailbox.deposit(env);
            mailbox.deposit(twin);
        }
    }
}

/// Serialize a payload in serde's compact binary form
/// (`serde::binary`): a tag byte per value, little-endian scalars,
/// length-prefixed sequences and strings, and slices of `f64`, `u64` and
/// `u8` copied in bulk. Like mpi4py's pickled `comm.send`, the receiver
/// needs no schema beyond the type it asks for; the raw-bytes APIs play
/// the part of `comm.Send`'s buffers.
pub(crate) fn encode<T: Serialize + ?Sized>(value: &T) -> Bytes {
    // Each thread encodes into one reused buffer, so a message costs one
    // allocation: its `Bytes`.
    thread_local! {
        static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    }
    /// A buffer past this capacity is released after its message.
    const KEEP: usize = 1 << 20;
    SCRATCH.with(|scratch| {
        let Ok(mut buf) = scratch.try_borrow_mut() else {
            return Bytes::from(serde::binary::to_vec(value));
        };
        buf.clear();
        value.write_bin(&mut buf);
        let bytes = Bytes::copy_from_slice(&buf);
        if buf.capacity() > KEEP {
            *buf = Vec::new();
        }
        bytes
    })
}

/// Deserialize a payload. Total: bytes from a peer that are truncated,
/// hostile or of another type are an [`MpcError::Decode`], never a panic.
pub(crate) fn decode<T: DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    serde::binary::from_slice(bytes).map_err(|e| MpcError::Decode(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{Transport, WireHandle};
    use crate::World;
    use parking_lot::Mutex;
    use pdc_chaos::{FaultInjector, FaultPlan, FaultStats};

    /// Rank 0 of a two-rank wire world whose wire records every frame.
    #[derive(Default)]
    struct Loopback {
        sent: Mutex<Vec<(usize, WireFrame)>>,
    }

    impl Transport for Loopback {
        fn rank(&self) -> usize {
            0
        }
        fn size(&self) -> usize {
            2
        }
        fn hostnames(&self) -> Vec<String> {
            vec!["localhost".into(); 2]
        }
        fn start(&self, _wire: WireHandle) {}
        fn send_frame(&self, dst: usize, frame: WireFrame) {
            self.sent.lock().push((dst, frame));
        }
    }

    /// A wire world's rank 0 under `plan`, with its recording wire and
    /// injector.
    fn wired(plan: FaultPlan) -> (Comm, Arc<Loopback>, Arc<FaultInjector>) {
        let wire = Arc::new(Loopback::default());
        let inj = Arc::new(FaultInjector::new(plan));
        let comm = World::new(2)
            .with_fault_injector(Arc::clone(&inj))
            .attach(wire.clone());
        (comm, wire, inj)
    }

    fn ssend_to_1(comm: &Comm, tag: Tag, exempt: bool) -> SendOutcome {
        let latch = Arc::new(Latch::new());
        comm.send_bytes_inner(1, tag, Bytes::copy_from_slice(b"x"), Some(latch), exempt)
            .unwrap()
    }

    #[test]
    fn wire_drop_sends_nothing_and_registers_no_ack() {
        let (comm, wire, inj) = wired(FaultPlan::new(1).with_drop_rate(1.0));
        for _ in 0..4 {
            assert_eq!(ssend_to_1(&comm, 3, false), SendOutcome::InjectedDrop);
        }
        assert!(wire.sent.lock().is_empty());
        assert!((1..=4).all(|id| comm.fabric.acks.take(id).is_none()));
        assert_eq!(inj.stats().drops, 4);
    }

    #[test]
    fn wire_duplicate_sends_a_twin_without_the_ack_id() {
        let (comm, wire, _) = wired(FaultPlan::new(1).with_duplicate_rate(1.0));
        assert_eq!(ssend_to_1(&comm, 3, false), SendOutcome::Delivered);
        let sent = wire.sent.lock();
        assert_eq!(sent.len(), 2);
        assert_ne!(sent[0].1.ack_id, 0, "the original carries the ack id");
        assert_eq!(sent[1].1.ack_id, 0, "the twin must not double-ack");
        assert!(comm.fabric.acks.take(sent[0].1.ack_id).is_some());
    }

    #[test]
    fn wire_reorder_sets_the_overtake_flag() {
        let (comm, wire, _) = wired(FaultPlan::new(1).with_reorder_rate(1.0));
        comm.send_bytes(1, 3, Bytes::copy_from_slice(b"x")).unwrap();
        let sent = wire.sent.lock();
        assert_eq!(sent.len(), 1);
        assert!(sent[0].1.overtake);
    }

    #[test]
    fn wire_control_plane_and_switched_off_faults_pass_untouched() {
        let (comm, wire, inj) = wired(FaultPlan::new(1).with_drop_rate(1.0));
        // Negative tag: collective control traffic.
        assert_eq!(ssend_to_1(&comm, -3, false), SendOutcome::Delivered);
        // A `send_reliable` retransmission.
        assert_eq!(ssend_to_1(&comm, 3, true), SendOutcome::Delivered);
        // Message faults off: user traffic passes.
        inj.set_send_faults(false);
        assert_eq!(ssend_to_1(&comm, 3, false), SendOutcome::Delivered);
        let sent = wire.sent.lock();
        assert_eq!(sent.len(), 3);
        assert!(sent
            .iter()
            .all(|(dst, f)| *dst == 1 && f.ack_id != 0 && !f.overtake));
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn wire_self_send_applies_the_verdict_to_the_local_mailbox() {
        let (comm, wire, _) = wired(FaultPlan::new(1).with_duplicate_rate(1.0));
        comm.send_bytes(0, 3, Bytes::copy_from_slice(b"me"))
            .unwrap();
        for _ in 0..2 {
            assert_eq!(&comm.recv_bytes(0, 3).unwrap().0[..], b"me");
        }
        assert!(comm.iprobe(0, 3).is_none());
        assert!(wire.sent.lock().is_empty());
    }

    #[test]
    fn both_fabrics_apply_one_verdict_path() {
        // The same plan and the same 64 user sends from rank 0 to rank 1,
        // between two threads and onto a recording wire: the ledgers and
        // the copies of every send must agree.
        const SENDS: u32 = 64;
        let plan = FaultPlan::new(9)
            .with_drop_rate(0.25)
            .with_duplicate_rate(0.25)
            .with_delay(0.1, 1)
            .with_reorder_rate(0.2);
        let payload = |i: u32| Bytes::copy_from_slice(&i.to_le_bytes());
        let index = |b: &[u8]| u32::from_le_bytes(b.try_into().unwrap()) as usize;

        let threads = Arc::new(FaultInjector::new(plan.clone()));
        let out = World::new(2)
            .with_fault_injector(Arc::clone(&threads))
            .run(|c| {
                let mut copies = vec![0usize; SENDS as usize];
                if c.rank() == 0 {
                    for i in 0..SENDS {
                        c.send_bytes(1, 3, payload(i)).unwrap();
                    }
                }
                c.barrier().unwrap();
                while c.iprobe(0, 3).is_some() {
                    copies[index(&c.recv_bytes(0, 3).unwrap().0)] += 1;
                }
                copies
            });

        let (comm, wire, wired_inj) = wired(plan);
        for i in 0..SENDS {
            comm.send_bytes(1, 3, payload(i)).unwrap();
        }
        let mut copies = vec![0usize; SENDS as usize];
        for (_, frame) in wire.sent.lock().iter() {
            copies[index(&frame.payload)] += 1;
        }

        let stats = threads.stats();
        assert!(
            stats.drops > 0 && stats.duplicates > 0 && stats.delays > 0 && stats.reorders > 0,
            "the plan missed a fault kind: {stats:?}"
        );
        assert_eq!(wired_inj.stats(), stats);
        assert_eq!(out[1], copies);
    }
}
