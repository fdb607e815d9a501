//! FastTrack-style vector-clock data-race detection over the
//! `pdc-shmem` event stream.
//!
//! The detector consumes [`SyncEvent`]s and maintains:
//!
//! * a vector clock per live thread *epoch* (OS thread ids are remapped
//!   on every `ChildStart`, since one OS thread runs many children: the
//!   hot team's workers serve region after region, and the calling
//!   thread runs each region's thread 0),
//! * a clock per lock (the classic release-acquire transfer),
//! * per-barrier generation state (everything before any arrival
//!   happens-before everything after the matching release), and
//! * per-cell shadow state: the last plain write, plain read, and atomic
//!   access of each thread, with the site that performed it.
//!
//! Two accesses race when they touch the same cell, at least one is a
//! plain (non-atomic) write — or a plain access conflicting with an
//! atomic write — and neither happens-before the other. Atomic-vs-atomic
//! pairs never race: the modelled program declared them synchronized.
//!
//! Detection is deterministic for unsynchronized code: happens-before
//! is reconstructed from the fork/join/lock/barrier edges alone, so a
//! racy pair is flagged even on runs where the interleaving happened to
//! produce the right answer.

use std::collections::{BTreeSet, HashMap};
use std::thread::ThreadId;

use parking_lot::Mutex;
use serde::Serialize;

use pdc_shmem::hooks::{AccessKind, ObjId, Site, SyncEvent, SyncObserver};

use crate::vc::VectorClock;
use crate::{canonicalize, Detector, Diagnostic, Severity};

/// Counters summarizing what a run actually exercised — the catalog
/// linter uses these to check a patternlet against its `Pattern` tag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Evidence {
    /// Parallel regions forked.
    pub forks: usize,
    /// Parallel regions joined.
    pub joins: usize,
    /// Exclusive lock acquisitions (locks, critical sections).
    pub acquires: usize,
    /// Shared (read-side) lock acquisitions.
    pub shared_acquires: usize,
    /// Barrier arrivals.
    pub barrier_arrivals: usize,
    /// Plain (non-atomic) shared-cell accesses.
    pub plain_accesses: usize,
    /// Atomic shared-cell accesses.
    pub atomic_accesses: usize,
}

/// One prior access in a cell's shadow state.
#[derive(Debug, Clone, Copy)]
struct Prior {
    tid: u64,
    clock: u32,
    site: Site,
    kind: AccessKind,
}

#[derive(Debug, Default)]
struct CellState {
    what: &'static str,
    plain_writes: HashMap<u64, Prior>,
    plain_reads: HashMap<u64, Prior>,
    atomics: HashMap<u64, Prior>,
}

#[derive(Debug)]
struct ForkRegion {
    /// Parent clock at the fork: every child starts from it.
    snapshot: VectorClock,
    /// Join of every finished child's final clock.
    finished: VectorClock,
}

#[derive(Debug, Default)]
struct BarrierState {
    /// Join of all clocks arrived in the current generation.
    current: VectorClock,
    arrived: usize,
    generation: u64,
    /// Which generation each waiting thread arrived in.
    arrival_gen: HashMap<u64, u64>,
    /// Released generations still owed to leavers: clock + leavers left.
    released: HashMap<u64, (VectorClock, usize)>,
}

/// One side of a deduplicated race pair: where and how it accessed.
type AccessAt = (Site, AccessKind);

#[derive(Debug, Default)]
struct State {
    next_tid: u64,
    threads: HashMap<ThreadId, u64>,
    vcs: HashMap<u64, VectorClock>,
    locks: HashMap<ObjId, VectorClock>,
    forks: HashMap<u64, ForkRegion>,
    barriers: HashMap<ObjId, BarrierState>,
    cells: HashMap<ObjId, CellState>,
    seen: BTreeSet<(&'static str, AccessAt, AccessAt)>,
    diags: Vec<Diagnostic>,
    evidence: Evidence,
}

impl State {
    /// The epoch id of the current OS thread, created on first sight
    /// with a fresh clock (own component = 1).
    fn tid_of(&mut self, os: ThreadId) -> u64 {
        if let Some(&tid) = self.threads.get(&os) {
            return tid;
        }
        let tid = self.fresh_epoch(os);
        let mut vc = VectorClock::new();
        vc.tick(tid);
        self.vcs.insert(tid, vc);
        tid
    }

    fn fresh_epoch(&mut self, os: ThreadId) -> u64 {
        let tid = self.next_tid;
        self.next_tid += 1;
        self.threads.insert(os, tid);
        tid
    }

    fn vc_mut(&mut self, tid: u64) -> &mut VectorClock {
        self.vcs.entry(tid).or_default()
    }

    fn child_start(&mut self, os: ThreadId, token: u64) {
        // Force a fresh epoch: the OS thread may be a hot-team worker
        // that ran a child of an earlier region, or the forking thread
        // itself running child 0.
        let tid = self.fresh_epoch(os);
        let mut vc = self
            .forks
            .get(&token)
            .map(|r| r.snapshot.clone())
            .unwrap_or_default();
        vc.tick(tid);
        self.vcs.insert(tid, vc);
    }

    fn child_end(&mut self, os: ThreadId, token: u64) {
        let tid = self.tid_of(os);
        if let Some(vc) = self.vcs.remove(&tid) {
            if let Some(region) = self.forks.get_mut(&token) {
                region.finished.join(&vc);
            }
        }
        self.threads.remove(&os);
    }

    fn barrier_arrive(&mut self, tid: u64, barrier: ObjId, members: usize) {
        self.evidence.barrier_arrivals += 1;
        let vc = self.vcs.get(&tid).cloned().unwrap_or_default();
        let bs = self.barriers.entry(barrier).or_default();
        bs.current.join(&vc);
        bs.arrival_gen.insert(tid, bs.generation);
        bs.arrived += 1;
        if bs.arrived == members {
            let released = std::mem::take(&mut bs.current);
            bs.released.insert(bs.generation, (released, members));
            bs.generation += 1;
            bs.arrived = 0;
        }
    }

    fn barrier_leave(&mut self, tid: u64, barrier: ObjId) {
        let Some(bs) = self.barriers.get_mut(&barrier) else {
            return;
        };
        let Some(gen) = bs.arrival_gen.remove(&tid) else {
            return;
        };
        let joined = match bs.released.get_mut(&gen) {
            Some((vc, remaining)) => {
                let joined = vc.clone();
                *remaining -= 1;
                if *remaining == 0 {
                    bs.released.remove(&gen);
                }
                Some(joined)
            }
            None => None,
        };
        if let Some(vc) = joined {
            let my = self.vc_mut(tid);
            my.join(&vc);
            my.tick(tid);
        }
    }

    fn access(&mut self, tid: u64, cell: ObjId, what: &'static str, kind: AccessKind, site: Site) {
        if kind.is_atomic() {
            self.evidence.atomic_accesses += 1;
        } else {
            self.evidence.plain_accesses += 1;
        }
        let vc = self.vcs.get(&tid).cloned().unwrap_or_default();
        let clock = vc.get(tid);
        let me = Prior {
            tid,
            clock,
            site,
            kind,
        };

        let cs = self.cells.entry(cell).or_default();
        if cs.what.is_empty() {
            cs.what = what;
        }

        let ordered = |p: &Prior| p.tid == tid || vc.get(p.tid) >= p.clock;
        let mut racing: Vec<Prior> = Vec::new();
        {
            let unordered_in = |map: &HashMap<u64, Prior>, out: &mut Vec<Prior>| {
                out.extend(map.values().filter(|p| !ordered(p)).copied());
            };
            match kind {
                AccessKind::Write => {
                    // A plain write conflicts with everything concurrent.
                    unordered_in(&cs.plain_writes, &mut racing);
                    unordered_in(&cs.plain_reads, &mut racing);
                    unordered_in(&cs.atomics, &mut racing);
                }
                AccessKind::Read => {
                    // A plain read conflicts with concurrent writes of
                    // either flavour.
                    unordered_in(&cs.plain_writes, &mut racing);
                    racing.extend(
                        cs.atomics
                            .values()
                            .filter(|p| p.kind.is_write() && !ordered(p))
                            .copied(),
                    );
                }
                AccessKind::AtomicRead | AccessKind::AtomicWrite | AccessKind::AtomicRmw => {
                    // Atomics conflict only with concurrent *plain*
                    // accesses (atomic-vs-atomic is synchronized by
                    // declaration).
                    unordered_in(&cs.plain_writes, &mut racing);
                    if kind.is_write() {
                        unordered_in(&cs.plain_reads, &mut racing);
                    }
                }
            }
            let slot = match kind {
                AccessKind::Write => &mut cs.plain_writes,
                AccessKind::Read => &mut cs.plain_reads,
                _ => &mut cs.atomics,
            };
            slot.insert(tid, me);
        }

        for other in racing {
            let (a, b) = if (other.site, other.kind) <= (site, kind) {
                ((other.site, other.kind), (site, kind))
            } else {
                ((site, kind), (other.site, other.kind))
            };
            if !self.seen.insert((what, a, b)) {
                continue;
            }
            self.diags.push(Diagnostic::new(
                Detector::Race,
                "race.data-race",
                Severity::Error,
                format!(
                    "data race on {what}: {} at {} and {} at {} are unordered",
                    a.1.label(),
                    a.0,
                    b.1.label(),
                    b.0,
                ),
                vec![a.0.to_string(), b.0.to_string()],
            ));
        }
    }
}

/// The vector-clock race detector. Run the code under test inside
/// [`pdc_shmem::hooks::observe`] with it (the [`crate::with_race_analysis`]
/// harness does this for you), then call [`RaceDetector::report`].
#[derive(Default)]
pub struct RaceDetector {
    state: Mutex<State>,
}

impl RaceDetector {
    /// A detector with empty shadow state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The evidence counters and deduplicated race diagnostics so far.
    pub fn report(&self) -> (Evidence, Vec<Diagnostic>) {
        let state = self.state.lock();
        (state.evidence, canonicalize(state.diags.clone()))
    }
}

impl SyncObserver for RaceDetector {
    fn on_event(&self, event: &SyncEvent) {
        let os = std::thread::current().id();
        let mut st = self.state.lock();
        match *event {
            SyncEvent::Fork { token, .. } => {
                st.evidence.forks += 1;
                let tid = st.tid_of(os);
                let snapshot = st.vcs.get(&tid).cloned().unwrap_or_default();
                st.forks.insert(
                    token,
                    ForkRegion {
                        snapshot,
                        finished: VectorClock::new(),
                    },
                );
                st.vc_mut(tid).tick(tid);
            }
            SyncEvent::ChildStart { token, .. } => st.child_start(os, token),
            SyncEvent::ChildEnd { token, .. } => st.child_end(os, token),
            SyncEvent::Join { token } => {
                st.evidence.joins += 1;
                let tid = st.tid_of(os);
                if let Some(region) = st.forks.remove(&token) {
                    st.vc_mut(tid).join(&region.finished);
                }
                st.vc_mut(tid).tick(tid);
            }
            SyncEvent::Acquire { lock } => {
                st.evidence.acquires += 1;
                let tid = st.tid_of(os);
                if let Some(lvc) = st.locks.get(&lock).cloned() {
                    st.vc_mut(tid).join(&lvc);
                }
            }
            SyncEvent::Release { lock } => {
                let tid = st.tid_of(os);
                let vc = st.vcs.get(&tid).cloned().unwrap_or_default();
                st.locks.insert(lock, vc);
                st.vc_mut(tid).tick(tid);
            }
            SyncEvent::AcquireShared { lock } => {
                st.evidence.shared_acquires += 1;
                let tid = st.tid_of(os);
                if let Some(lvc) = st.locks.get(&lock).cloned() {
                    st.vc_mut(tid).join(&lvc);
                }
            }
            SyncEvent::ReleaseShared { lock } => {
                // Conservative: a reader's release also feeds the lock
                // clock, so later writers happen-after all readers. This
                // can only hide races between two pure readers — which
                // are not races at all.
                let tid = st.tid_of(os);
                let vc = st.vcs.get(&tid).cloned().unwrap_or_default();
                st.locks.entry(lock).or_default().join(&vc);
                st.vc_mut(tid).tick(tid);
            }
            SyncEvent::BarrierArrive { barrier, members } => {
                let tid = st.tid_of(os);
                st.barrier_arrive(tid, barrier, members);
            }
            SyncEvent::BarrierLeave { barrier } => {
                let tid = st.tid_of(os);
                st.barrier_leave(tid, barrier);
            }
            SyncEvent::Access {
                cell,
                what,
                kind,
                site,
            } => {
                let tid = st.tid_of(os);
                st.access(tid, cell, what, kind, site);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(line: u32) -> Site {
        Site {
            file: "test.rs",
            line,
        }
    }

    /// Drive the detector with a hand-built event sequence — no real
    /// threads needed, since epoch mapping only consults ThreadId for
    /// identity and all events here come from this one test thread with
    /// explicit ChildStart/ChildEnd remappings.
    #[test]
    fn unordered_writes_race_and_lock_ordered_writes_do_not() {
        let det = RaceDetector::new();
        let cell = 0xc0ffee;
        let lock = 0xbeef;

        // Parent forks two children; each writes the cell under no lock.
        det.on_event(&SyncEvent::Fork {
            token: 1,
            children: 2,
        });
        det.on_event(&SyncEvent::ChildStart {
            token: 1,
            child_index: 0,
        });
        det.on_event(&SyncEvent::Access {
            cell,
            what: "Cell",
            kind: AccessKind::Write,
            site: site(10),
        });
        det.on_event(&SyncEvent::ChildEnd {
            token: 1,
            child_index: 0,
        });
        det.on_event(&SyncEvent::ChildStart {
            token: 1,
            child_index: 1,
        });
        det.on_event(&SyncEvent::Access {
            cell,
            what: "Cell",
            kind: AccessKind::Write,
            site: site(20),
        });
        det.on_event(&SyncEvent::ChildEnd {
            token: 1,
            child_index: 1,
        });
        det.on_event(&SyncEvent::Join { token: 1 });
        let (ev, diags) = det.report();
        assert_eq!(ev.forks, 1);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("test.rs:10"));
        assert!(diags[0].message.contains("test.rs:20"));

        // Same shape, but lock-protected: no new diagnostics.
        let det = RaceDetector::new();
        det.on_event(&SyncEvent::Fork {
            token: 2,
            children: 2,
        });
        for child in 0..2usize {
            det.on_event(&SyncEvent::ChildStart {
                token: 2,
                child_index: child,
            });
            det.on_event(&SyncEvent::Acquire { lock });
            det.on_event(&SyncEvent::Access {
                cell,
                what: "Cell",
                kind: AccessKind::Write,
                site: site(30 + child as u32),
            });
            det.on_event(&SyncEvent::Release { lock });
            det.on_event(&SyncEvent::ChildEnd {
                token: 2,
                child_index: child,
            });
        }
        det.on_event(&SyncEvent::Join { token: 2 });
        let (_, diags) = det.report();
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn post_join_access_is_ordered() {
        let det = RaceDetector::new();
        let cell = 7;
        det.on_event(&SyncEvent::Fork {
            token: 3,
            children: 1,
        });
        det.on_event(&SyncEvent::ChildStart {
            token: 3,
            child_index: 0,
        });
        det.on_event(&SyncEvent::Access {
            cell,
            what: "Cell",
            kind: AccessKind::Write,
            site: site(1),
        });
        det.on_event(&SyncEvent::ChildEnd {
            token: 3,
            child_index: 0,
        });
        det.on_event(&SyncEvent::Join { token: 3 });
        // Parent reads after the join: ordered, no race.
        det.on_event(&SyncEvent::Access {
            cell,
            what: "Cell",
            kind: AccessKind::Read,
            site: site(2),
        });
        let (_, diags) = det.report();
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn atomic_vs_atomic_never_races_but_atomic_vs_plain_does() {
        let det = RaceDetector::new();
        let cell = 9;
        det.on_event(&SyncEvent::Fork {
            token: 4,
            children: 2,
        });
        det.on_event(&SyncEvent::ChildStart {
            token: 4,
            child_index: 0,
        });
        det.on_event(&SyncEvent::Access {
            cell,
            what: "Cell",
            kind: AccessKind::AtomicRmw,
            site: site(5),
        });
        det.on_event(&SyncEvent::ChildEnd {
            token: 4,
            child_index: 0,
        });
        det.on_event(&SyncEvent::ChildStart {
            token: 4,
            child_index: 1,
        });
        det.on_event(&SyncEvent::Access {
            cell,
            what: "Cell",
            kind: AccessKind::AtomicRmw,
            site: site(6),
        });
        let (_, diags) = det.report();
        assert!(diags.is_empty(), "atomic pair must not race: {diags:?}");
        det.on_event(&SyncEvent::Access {
            cell,
            what: "Cell",
            kind: AccessKind::Read,
            site: site(7),
        });
        let (_, diags) = det.report();
        assert_eq!(diags.len(), 1, "plain read vs atomic rmw: {diags:?}");
    }

    #[test]
    fn barrier_orders_across_phases() {
        let det = RaceDetector::new();
        let cell = 11;
        let barrier = 12;
        det.on_event(&SyncEvent::Fork {
            token: 5,
            children: 2,
        });
        // Child 0 writes before the barrier; child 1 reads after it.
        // (Events arrive in a real interleaving: both arrivals precede
        // both leaves — the runtime guarantees this because the emitting
        // thread blocks in the barrier right after Arrive.)
        det.on_event(&SyncEvent::ChildStart {
            token: 5,
            child_index: 0,
        });
        det.on_event(&SyncEvent::Access {
            cell,
            what: "Cell",
            kind: AccessKind::Write,
            site: site(1),
        });
        det.on_event(&SyncEvent::BarrierArrive {
            barrier,
            members: 2,
        });
        det.on_event(&SyncEvent::ChildEnd {
            token: 5,
            child_index: 0,
        });
        det.on_event(&SyncEvent::ChildStart {
            token: 5,
            child_index: 1,
        });
        det.on_event(&SyncEvent::BarrierArrive {
            barrier,
            members: 2,
        });
        det.on_event(&SyncEvent::BarrierLeave { barrier });
        det.on_event(&SyncEvent::Access {
            cell,
            what: "Cell",
            kind: AccessKind::Read,
            site: site(2),
        });
        det.on_event(&SyncEvent::ChildEnd {
            token: 5,
            child_index: 1,
        });
        det.on_event(&SyncEvent::Join { token: 5 });
        let (ev, diags) = det.report();
        assert_eq!(ev.barrier_arrivals, 2);
        assert!(diags.is_empty(), "barrier must order phases: {diags:?}");
    }
}
