//! Communicators and point-to-point messaging.

use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::envelope::{Envelope, Source, Tag, TagSel};
use crate::error::{MpcError, Result};
use crate::mailbox::Latch;
use crate::transport::{FrameOutcome, WireFrame};
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
    /// retransmission — passes through here, which is where fault
    /// injection applies (`exempt` marks control-plane traffic that the
    /// injector must deliver: retransmissions from `send_reliable`).
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
        let payload_len = payload.len();
        let mut span = pdc_trace::span("mpc", "send");
        span.arg("src", src_w);
        span.arg("dst", dst_w);
        span.arg("tag", tag);
        span.arg("bytes", payload.len());
        let env = Envelope {
            comm_id: self.comm_id,
            src: self.rank,
            tag,
            payload,
            sync_ack,
        };
        // Straggler delay applies to first transmissions only (both
        // routes): exempting retransmissions keeps the straggler_delays
        // counter a pure function of how many logical messages the slow
        // rank sends.
        if !exempt {
            if let Some(inj) = &self.fabric.injector {
                if let Some(extra) = inj.straggle(src_w) {
                    std::thread::sleep(extra);
                }
            }
        }
        let mailboxes = match &self.fabric.route {
            Route::Threads(mailboxes) => mailboxes,
            Route::Wire { local, transport } => {
                if dst_w == transport.rank() {
                    // Self-send: a loopback deposit, never a wire frame.
                    if let Some(traffic) = &self.fabric.traffic {
                        traffic.record(src_w, dst_w, env.payload.len());
                    }
                    local.deposit(env);
                    self.record_send(src_w, dst_w, tag, payload_len, true);
                    return Ok(SendOutcome::Delivered);
                }
                // Remote: register the ack latch (if any) and frame the
                // message. Frame-level faults are a fault-injecting
                // transport wrapper's business, not the chokepoint's —
                // in wire mode the injector here only serves the
                // crash/straggler schedules.
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
                    overtake: false,
                    exempt,
                };
                return match transport.send_frame(dst_w, frame) {
                    Ok(FrameOutcome::Sent) => {
                        if let Some(traffic) = &self.fabric.traffic {
                            traffic.record(src_w, dst_w, payload_len);
                        }
                        self.record_send(src_w, dst_w, tag, payload_len, true);
                        Ok(SendOutcome::Delivered)
                    }
                    Ok(FrameOutcome::InjectedDrop) => {
                        span.arg("fault", "drop");
                        if ack_id != 0 {
                            self.fabric.acks.take(ack_id);
                        }
                        self.record_send(src_w, dst_w, tag, payload_len, false);
                        Ok(SendOutcome::InjectedDrop)
                    }
                    Err(e) => {
                        if ack_id != 0 {
                            self.fabric.acks.take(ack_id);
                        }
                        Err(e)
                    }
                };
            }
        };
        // Traffic is recorded per *delivered* copy (drops don't count,
        // duplicates count twice), so the matrix reflects what actually
        // crossed the wire.
        let deliver = |env: Envelope| {
            if let Some(traffic) = &self.fabric.traffic {
                traffic.record(src_w, dst_w, env.payload.len());
            }
            mailboxes[dst_w].deposit(env);
        };
        let Some(inj) = &self.fabric.injector else {
            deliver(env);
            self.record_send(src_w, dst_w, tag, payload_len, true);
            return Ok(SendOutcome::Delivered);
        };
        let verdict = if exempt {
            pdc_chaos::SendFault::Deliver
        } else {
            // Internal collective traffic (negative tags) rides the
            // reliable control plane: injected faults apply to user
            // messages only, ULFM-style.
            inj.on_send(src_w, dst_w, tag >= 0)
        };
        match verdict {
            pdc_chaos::SendFault::Deliver => deliver(env),
            pdc_chaos::SendFault::Drop => {
                span.arg("fault", "drop");
                self.record_send(src_w, dst_w, tag, payload_len, false);
                return Ok(SendOutcome::InjectedDrop);
            }
            pdc_chaos::SendFault::Duplicate => {
                span.arg("fault", "duplicate");
                let twin = Envelope {
                    sync_ack: None, // only one copy carries the ssend latch
                    ..env.clone()
                };
                deliver(env);
                deliver(twin);
            }
            pdc_chaos::SendFault::Delay(extra) => {
                span.arg("fault", "delay");
                std::thread::sleep(extra);
                deliver(env);
            }
            pdc_chaos::SendFault::Reorder => {
                span.arg("fault", "reorder");
                if let Some(traffic) = &self.fabric.traffic {
                    traffic.record(src_w, dst_w, env.payload.len());
                }
                mailboxes[dst_w].deposit_front(env);
            }
        }
        self.record_send(src_w, dst_w, tag, payload_len, true);
        Ok(SendOutcome::Delivered)
    }

    /// Record one send at the chokepoint, if a communication log is
    /// attached to this world.
    fn record_send(&self, src_w: usize, dst_w: usize, tag: Tag, bytes: usize, delivered: bool) {
        if let Some(rec) = &self.fabric.analysis {
            rec.record(
                src_w,
                crate::analysis::OpKind::Send {
                    dst: dst_w,
                    tag,
                    bytes,
                    user: tag >= 0,
                    delivered,
                },
            );
        }
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
        ) {
            Ok(env) => env,
            Err(e) => {
                // Record the *failed* wait: this rank was blocked on `src`
                // and never got a message — the raw material of the
                // wait-for graph the deadlock analyzer builds.
                if let Some(rec) = &self.fabric.analysis {
                    let user = match tag {
                        TagSel::Tag(t) => t >= 0,
                        TagSel::Any => true,
                    };
                    rec.record(
                        me,
                        crate::analysis::OpKind::RecvFailed {
                            src: crate::analysis::failed_src(src, &self.group),
                            tag: crate::analysis::failed_tag(tag),
                            user,
                            reason: crate::analysis::failure_reason(&e),
                        },
                    );
                }
                return Err(e);
            }
        };
        if let Some(rec) = &self.fabric.analysis {
            rec.record(
                me,
                crate::analysis::OpKind::RecvDone {
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
        let bytes = encode(value)?;
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
        let bytes = encode(value)?;
        let latch = Arc::new(Latch::with_spin(self.fabric.spin));
        self.send_bytes_internal(dest, tag, bytes, Some(Arc::clone(&latch)))?;
        if latch.wait(timeout) {
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
        )?;
        Ok(Status { source, tag, len })
    }

    /// Non-blocking probe — `MPI_Iprobe`.
    pub fn iprobe(&self, src: impl Into<Source>, tag: impl Into<TagSel>) -> Option<Status> {
        let me = self.world_rank(self.rank);
        self.fabric
            .local_mailbox(me)
            .try_peek_matching(self.comm_id, src.into(), tag.into())
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

/// Serialize a payload (JSON wire format — human-readable, mirroring the
/// teaching materials' Python objects; raw-bytes APIs exist for benches).
pub(crate) fn encode<T: Serialize>(value: &T) -> Result<Bytes> {
    serde_json::to_vec(value)
        .map(Bytes::from)
        .map_err(|e| MpcError::Decode(format!("encode: {e}")))
}

/// Deserialize a payload.
pub(crate) fn decode<T: DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    serde_json::from_slice(bytes).map_err(|e| MpcError::Decode(e.to_string()))
}
