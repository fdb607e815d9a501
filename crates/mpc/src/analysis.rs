//! Per-rank operation recording: the one op stream of a thread-mode
//! [`World`](crate::World) run.
//!
//! A run records when a [`CommLog`] is in scope on the thread that calls
//! `World::run` ([`record_into`]) or when it is
//! [`World::run_traced`](crate::World::run_traced). Every rank's
//! operations are then recorded at the runtime's existing chokepoints:
//! the single send path (`send_bytes_inner`), the single receive path
//! (`recv_bytes_internal`), and the per-collective trace span (`cspan`).
//! Each operation carries the acting rank and a per-rank sequence
//! number, so an analyzer can replay each rank's program order and
//! compare orders *across* ranks. The run's
//! [`TrafficMatrix`] is folded from the same stream's sends.
//!
//! The recording is deliberately dumb: no interpretation happens here.
//! The wait-for graph, collective-mismatch, and unmatched-send analyses
//! all live in `pdc-analyze`, keeping this crate free of any dependency
//! on the analysis layer (the same inversion `pdc-trace` uses).

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::envelope::{Source, Tag, TagSel};
use crate::error::MpcError;
use crate::traffic::TrafficMatrix;

/// One recorded operation kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// A point-to-point send left this rank.
    Send {
        /// Destination world rank.
        dst: usize,
        /// Message tag (negative = internal collective traffic).
        tag: Tag,
        /// Serialized payload size.
        bytes: usize,
        /// Whether this was user traffic (non-negative tag).
        user: bool,
        /// Copies that reached the destination mailbox: 1 normally, 0
        /// when the fault injector dropped the message, 2 when it
        /// duplicated it.
        copies: u8,
    },
    /// A receive completed on this rank.
    RecvDone {
        /// World rank of the sender.
        src: usize,
        /// Tag of the matched message.
        tag: Tag,
        /// Whether the matched message was user traffic.
        user: bool,
    },
    /// A receive failed (timeout, peer death) on this rank.
    RecvFailed {
        /// The specific world rank waited on, if the receive named one
        /// (`None` for `Source::Any`).
        src: Option<usize>,
        /// The tag waited for, if the receive named one.
        tag: Option<Tag>,
        /// Whether the receive would have matched user traffic.
        user: bool,
        /// Short failure label: `"timeout"`, `"peer-gone"`, …
        reason: &'static str,
    },
    /// This rank entered a collective operation.
    Collective {
        /// The collective's name (`"barrier"`, `"bcast"`, …).
        op: &'static str,
        /// Communicator id the collective ran on.
        comm: u64,
    },
}

/// One operation as recorded: the acting world rank, its position in that
/// rank's program order, and what happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommOp {
    /// Acting world rank.
    pub rank: usize,
    /// 0-based position in the rank's own operation sequence.
    pub seq: usize,
    /// The operation.
    pub kind: OpKind,
}

/// Everything recorded during one `World::run`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// 0-based index of the run within the log's lifetime.
    pub run: usize,
    /// World size of the run.
    pub np: usize,
    /// All recorded operations, in recording order (interleaved across
    /// ranks; use `rank`/`seq` to recover per-rank order).
    pub ops: Vec<CommOp>,
}

impl RunRecord {
    /// The operations of one rank, in program order.
    pub fn rank_ops(&self, rank: usize) -> Vec<&CommOp> {
        let mut ops: Vec<&CommOp> = self.ops.iter().filter(|o| o.rank == rank).collect();
        ops.sort_by_key(|o| o.seq);
        ops
    }
}

/// A shared, cloneable sink for communication records. Run worlds inside
/// [`record_into`], then [`CommLog::take`] the per-run records for
/// analysis.
#[derive(Debug, Clone, Default)]
pub struct CommLog {
    inner: Arc<CommLogInner>,
}

#[derive(Debug, Default)]
struct CommLogInner {
    next_run: AtomicUsize,
    runs: Mutex<Vec<RunRecord>>,
}

impl CommLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Remove and return every completed run record.
    pub fn take(&self) -> Vec<RunRecord> {
        std::mem::take(&mut *lock(&self.inner.runs))
    }

    /// Number of completed runs currently held.
    pub fn len(&self) -> usize {
        lock(&self.inner.runs).len()
    }

    /// Whether no run has completed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Live recorder for one `World::run`; held by the fabric.
#[derive(Debug)]
pub(crate) struct RunRecorder {
    /// Where the finished run is published, with its index there.
    log: Option<(CommLog, usize)>,
    np: usize,
    seqs: Vec<AtomicUsize>,
    /// `None` once the run is finished.
    ops: Mutex<Option<Vec<CommOp>>>,
}

impl RunRecorder {
    /// A recorder for one `np`-rank run, publishing to `log` if given.
    pub(crate) fn new(np: usize, log: Option<CommLog>) -> Self {
        Self {
            log: log.map(|log| {
                let run = log.inner.next_run.fetch_add(1, Ordering::Relaxed);
                (log, run)
            }),
            np,
            seqs: (0..np).map(|_| AtomicUsize::new(0)).collect(),
            ops: Mutex::new(Some(Vec::new())),
        }
    }

    pub(crate) fn record(&self, rank: usize, kind: OpKind) {
        let seq = self.seqs[rank].fetch_add(1, Ordering::Relaxed);
        if let Some(ops) = lock(&self.ops).as_mut() {
            ops.push(CommOp { rank, seq, kind });
        }
    }

    /// Called after every rank has been joined: publish the run to the
    /// log, if any, and return its traffic. A second call publishes
    /// nothing and returns empty traffic. (`&self` because the recorder
    /// lives inside the `Arc`-shared fabric.)
    pub(crate) fn finish(&self) -> TrafficMatrix {
        let Some(ops) = lock(&self.ops).take() else {
            return TrafficMatrix::fold(self.np, &[]);
        };
        let traffic = TrafficMatrix::fold(self.np, &ops);
        if let Some((log, run)) = &self.log {
            lock(&log.inner.runs).push(RunRecord {
                run: *run,
                np: self.np,
                ops,
            });
        }
        traffic
    }
}

/// Classify a receive failure for the record.
pub(crate) fn failure_reason(err: &MpcError) -> &'static str {
    match err {
        MpcError::Timeout { .. } => "timeout",
        MpcError::PeerGone { .. } => "peer-gone",
        MpcError::Crashed { .. } => "crashed",
        _ => "error",
    }
}

/// The source a failed receive was waiting on, as a world rank.
pub(crate) fn failed_src(src: Source, group: &[usize]) -> Option<usize> {
    match src {
        Source::Rank(r) => group.get(r).copied(),
        Source::Any => None,
    }
}

/// The tag a failed receive was waiting on, if specific.
pub(crate) fn failed_tag(tag: TagSel) -> Option<Tag> {
    match tag {
        TagSel::Tag(t) => Some(t),
        TagSel::Any => None,
    }
}

thread_local! {
    static SCOPED: RefCell<Option<CommLog>> = const { RefCell::new(None) };
}

/// Run `f` with every `World::run` it calls on this thread recorded into
/// `log`, one [`RunRecord`] per run. Worlds that other threads run at
/// the same time are not recorded. The previous log comes back when `f`
/// returns or unwinds.
pub fn record_into<R>(log: &CommLog, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<CommLog>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED.with(|slot| *slot.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(SCOPED.with(|slot| slot.borrow_mut().replace(log.clone())));
    f()
}

/// The log of the calling thread's [`record_into`] scope, if any.
pub(crate) fn scoped_log() -> Option<CommLog> {
    SCOPED.with(|slot| slot.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_starts_empty_and_runs_accumulate() {
        let log = CommLog::new();
        assert!(log.is_empty());
        let rec = RunRecorder::new(2, Some(log.clone()));
        rec.record(
            0,
            OpKind::Send {
                dst: 1,
                tag: 0,
                bytes: 4,
                user: true,
                copies: 1,
            },
        );
        rec.record(
            1,
            OpKind::RecvDone {
                src: 0,
                tag: 0,
                user: true,
            },
        );
        assert_eq!(rec.finish().total_messages(), 1);
        // A second finish publishes nothing.
        assert_eq!(rec.finish().total_messages(), 0);
        let runs = log.take();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].np, 2);
        assert_eq!(runs[0].ops.len(), 2);
        assert_eq!(runs[0].rank_ops(0).len(), 1);
        assert!(log.is_empty());
    }

    #[test]
    fn per_rank_sequence_numbers_are_dense() {
        let log = CommLog::new();
        let rec = RunRecorder::new(1, Some(log.clone()));
        for _ in 0..3 {
            rec.record(
                0,
                OpKind::Collective {
                    op: "barrier",
                    comm: 0,
                },
            );
        }
        rec.finish();
        let runs = log.take();
        let seqs: Vec<usize> = runs[0].rank_ops(0).iter().map(|o| o.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }
}
