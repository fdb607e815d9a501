//! The live half of a fault plan: per-run counters, armed crash
//! schedules, and the fault/recovery ledger.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::plan::{hash01, CrashPoint, FaultPlan};

/// What the injector decided to do with one outgoing message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFault {
    /// Deliver normally.
    Deliver,
    /// Silently lose the message.
    Drop,
    /// Deliver the message twice.
    Duplicate,
    /// Deliver after sleeping this long.
    Delay(Duration),
    /// Deliver ahead of already-queued traffic (breaks non-overtaking).
    Reorder,
}

/// Shared fault/recovery ledger. Every increment is mirrored to
/// `pdc-trace` as a `chaos/<name>` counter, so `reproduce --trace
/// --chaos` can reconcile the ledger against the trace stream exactly.
#[derive(Debug, Default)]
pub struct FaultLog {
    drops: AtomicU64,
    partition_drops: AtomicU64,
    duplicates: AtomicU64,
    delays: AtomicU64,
    reorders: AtomicU64,
    straggler_delays: AtomicU64,
    crashes: AtomicU64,
    retries: AtomicU64,
    drops_recovered: AtomicU64,
    crashes_recovered: AtomicU64,
    shrinks: AtomicU64,
    checkpoints_saved: AtomicU64,
    checkpoints_restored: AtomicU64,
    team_panics_isolated: AtomicU64,
}

macro_rules! bump {
    ($self:ident, $field:ident, $name:literal) => {{
        $self.$field.fetch_add(1, Ordering::Relaxed);
        pdc_trace::counter("chaos", $name, 1);
    }};
}

impl FaultLog {
    /// Record an injected message drop.
    pub fn drop_injected(&self) {
        bump!(self, drops, "faults_dropped");
    }
    /// Record a message lost to a partition window.
    pub fn partition_drop_injected(&self) {
        bump!(self, partition_drops, "faults_partitioned");
    }
    /// Record a duplicate delivery.
    pub fn duplicate_injected(&self) {
        bump!(self, duplicates, "faults_duplicated");
    }
    /// Record a delayed delivery.
    pub fn delay_injected(&self) {
        bump!(self, delays, "faults_delayed");
    }
    /// Record a reordered delivery.
    pub fn reorder_injected(&self) {
        bump!(self, reorders, "faults_reordered");
    }
    /// Record one straggler slow-down.
    pub fn straggle_injected(&self) {
        bump!(self, straggler_delays, "faults_straggled");
    }
    /// Record an injected rank crash.
    pub fn crash_injected(&self) {
        bump!(self, crashes, "faults_crashed");
    }
    /// Record a reliable-send retransmission.
    pub fn retry(&self) {
        bump!(self, retries, "retries");
    }
    /// Record that `n` previously dropped copies of a message were made
    /// good by a successful (re)delivery.
    pub fn drops_recovered(&self, n: u64) {
        if n > 0 {
            self.drops_recovered.fetch_add(n, Ordering::Relaxed);
            pdc_trace::counter("chaos", "drops_recovered", n as i64);
        }
    }
    /// Record that an injected crash was recovered (survivors took over
    /// the dead rank's work and completed the workload regardless).
    pub fn crash_recovered(&self) {
        bump!(self, crashes_recovered, "crashes_recovered");
    }
    /// Record one `Comm::shrink` call.
    pub fn shrink(&self) {
        bump!(self, shrinks, "shrinks");
    }
    /// Record a checkpoint write.
    pub fn checkpoint_saved(&self) {
        bump!(self, checkpoints_saved, "checkpoints_saved");
    }
    /// Record a checkpoint hit (a survivor restored a dead rank's work).
    pub fn checkpoint_restored(&self) {
        bump!(self, checkpoints_restored, "checkpoints_restored");
    }
    /// Record a worker panic contained by `Team::try_parallel`.
    pub fn team_panic_isolated(&self) {
        bump!(self, team_panics_isolated, "team_panics_isolated");
    }

    /// Snapshot the ledger.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            drops: self.drops.load(Ordering::Relaxed),
            partition_drops: self.partition_drops.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
            reorders: self.reorders.load(Ordering::Relaxed),
            straggler_delays: self.straggler_delays.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            drops_recovered: self.drops_recovered.load(Ordering::Relaxed),
            crashes_recovered: self.crashes_recovered.load(Ordering::Relaxed),
            shrinks: self.shrinks.load(Ordering::Relaxed),
            checkpoints_saved: self.checkpoints_saved.load(Ordering::Relaxed),
            checkpoints_restored: self.checkpoints_restored.load(Ordering::Relaxed),
            team_panics_isolated: self.team_panics_isolated.load(Ordering::Relaxed),
        }
    }
}

/// Immutable snapshot of a [`FaultLog`]; the serializable record that
/// `BENCH_chaos.json` archives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultStats {
    /// User messages silently dropped.
    pub drops: u64,
    /// User messages lost to partition windows.
    pub partition_drops: u64,
    /// User messages delivered twice.
    pub duplicates: u64,
    /// User messages delivered late.
    pub delays: u64,
    /// User messages delivered out of order.
    pub reorders: u64,
    /// Straggler per-op slow-downs applied.
    pub straggler_delays: u64,
    /// Ranks crashed by schedule.
    pub crashes: u64,
    /// Reliable-send retransmissions.
    pub retries: u64,
    /// Dropped copies made good by later delivery.
    pub drops_recovered: u64,
    /// Injected crashes the workload recovered from.
    pub crashes_recovered: u64,
    /// Communicator shrinks performed (one count per calling rank).
    pub shrinks: u64,
    /// Checkpoints written.
    pub checkpoints_saved: u64,
    /// Checkpoints restored (work skipped).
    pub checkpoints_restored: u64,
    /// Worker panics contained by `Team::try_parallel`.
    pub team_panics_isolated: u64,
}

impl FaultStats {
    /// Faults the runtime is expected to *recover* (not merely
    /// tolerate): drops of reliable messages, partition losses, and
    /// scheduled crashes.
    pub fn recoverable_injected(&self) -> u64 {
        self.drops + self.partition_drops + self.crashes
    }

    /// Recoveries actually performed.
    pub fn recovered(&self) -> u64 {
        self.drops_recovered + self.crashes_recovered
    }

    /// True when every recoverable injected fault was recovered — the
    /// invariant the chaos CI job enforces.
    pub fn all_recovered(&self) -> bool {
        self.recovered() == self.recoverable_injected()
    }

    /// Any fault injected at all (used to flag degraded result rows).
    pub fn any_injected(&self) -> bool {
        self.drops
            + self.partition_drops
            + self.duplicates
            + self.delays
            + self.reorders
            + self.straggler_delays
            + self.crashes
            > 0
    }

    /// Element-wise sum, for aggregating per-study ledgers.
    pub fn merged(&self, other: &FaultStats) -> FaultStats {
        FaultStats {
            drops: self.drops + other.drops,
            partition_drops: self.partition_drops + other.partition_drops,
            duplicates: self.duplicates + other.duplicates,
            delays: self.delays + other.delays,
            reorders: self.reorders + other.reorders,
            straggler_delays: self.straggler_delays + other.straggler_delays,
            crashes: self.crashes + other.crashes,
            retries: self.retries + other.retries,
            drops_recovered: self.drops_recovered + other.drops_recovered,
            crashes_recovered: self.crashes_recovered + other.crashes_recovered,
            shrinks: self.shrinks + other.shrinks,
            checkpoints_saved: self.checkpoints_saved + other.checkpoints_saved,
            checkpoints_restored: self.checkpoints_restored + other.checkpoints_restored,
            team_panics_isolated: self.team_panics_isolated + other.team_panics_isolated,
        }
    }
}

// Decision streams (decorrelate the different uses of the seed).
const STREAM_FAULT: u64 = 0x464C54; // "FLT"
const STREAM_PAIR: u64 = 0x505253; // "PRS"

/// The live injector one `World` run consults at its communication
/// chokepoint.
///
/// Decisions are **counter-based**: the nth user message on a given
/// (src, dst) channel always receives the same verdict for a given
/// plan, independent of thread scheduling — so a workload whose
/// per-channel message sequence is deterministic injects a
/// bit-identical fault history on every run.
///
/// Crash schedule entries are **consumed**: after a rank has crashed at
/// its step once, a later run under the same injector does not re-fire
/// it.
pub struct FaultInjector {
    plan: FaultPlan,
    log: Arc<FaultLog>,
    /// Per-(src, dst) user-message counters.
    pair_ops: Mutex<HashMap<(usize, usize), u64>>,
    /// Per-rank compute-step counters.
    rank_steps: Mutex<HashMap<usize, u64>>,
    /// Global op counter (partition windows index into this).
    global_ops: AtomicU64,
    /// Crash points not yet fired.
    armed_crashes: Mutex<Vec<CrashPoint>>,
    /// Message faults on? See [`FaultInjector::set_send_faults`].
    send_faults: AtomicBool,
}

impl FaultInjector {
    /// Arm a plan.
    pub fn new(plan: FaultPlan) -> Self {
        let armed = plan.crashes.clone();
        Self {
            plan,
            log: Arc::new(FaultLog::default()),
            pair_ops: Mutex::new(HashMap::new()),
            rank_steps: Mutex::new(HashMap::new()),
            global_ops: AtomicU64::new(0),
            armed_crashes: Mutex::new(armed),
            send_faults: AtomicBool::new(true),
        }
    }

    /// Turn message faults on or off (on by default). While off,
    /// [`FaultInjector::on_send`] delivers every message and advances no
    /// counter, so the faulted phases of a run see the same verdicts
    /// whatever ran in between — the wire study's traced, fault-free
    /// patternlet phase runs this way before its chaos phase. Crash and
    /// straggler schedules are not affected.
    pub fn set_send_faults(&self, on: bool) {
        self.send_faults.store(on, Ordering::SeqCst);
    }

    /// The plan this injector is running.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Shared handle to the ledger.
    pub fn log(&self) -> Arc<FaultLog> {
        Arc::clone(&self.log)
    }

    /// Snapshot the ledger.
    pub fn stats(&self) -> FaultStats {
        self.log.stats()
    }

    /// Decide the fate of one outgoing message. `user` is true for
    /// user-tag traffic; internal collective traffic is exempt from
    /// injection (the "reliable control plane" assumption).
    ///
    /// The caller is responsible for *applying* the verdict; this
    /// method only decides and accounts.
    pub fn on_send(&self, src: usize, dst: usize, user: bool) -> SendFault {
        if !self.send_faults.load(Ordering::Relaxed) {
            return SendFault::Deliver;
        }
        let op = self.global_ops.fetch_add(1, Ordering::Relaxed);
        if !user {
            return SendFault::Deliver;
        }
        if self.in_partition(src, dst, op) {
            self.log.partition_drop_injected();
            return SendFault::Drop;
        }
        let n = {
            let mut pairs = self.pair_ops.lock();
            let c = pairs.entry((src, dst)).or_insert(0);
            let n = *c;
            *c += 1;
            n
        };
        let pair_stream = STREAM_PAIR ^ ((src as u64) << 20) ^ (dst as u64);
        let u = hash01(self.plan.seed ^ STREAM_FAULT, pair_stream, n);
        let p = &self.plan;
        if u < p.drop_rate {
            self.log.drop_injected();
            SendFault::Drop
        } else if u < p.drop_rate + p.duplicate_rate {
            self.log.duplicate_injected();
            SendFault::Duplicate
        } else if u < p.drop_rate + p.duplicate_rate + p.delay_rate {
            self.log.delay_injected();
            SendFault::Delay(Duration::from_millis(p.delay_ms))
        } else if u < p.drop_rate + p.duplicate_rate + p.delay_rate + p.reorder_rate {
            self.log.reorder_injected();
            SendFault::Reorder
        } else {
            SendFault::Deliver
        }
    }

    fn in_partition(&self, src: usize, dst: usize, op: u64) -> bool {
        self.plan.partitions.iter().any(|w| {
            op >= w.from_op
                && op < w.until_op
                && ((w.a.contains(&src) && w.b.contains(&dst))
                    || (w.b.contains(&src) && w.a.contains(&dst)))
        })
    }

    /// The extra latency this rank suffers per op, if it is a
    /// scheduled straggler. Accounts one slow-down when `Some`.
    pub fn straggle(&self, rank: usize) -> Option<Duration> {
        let s = self.plan.stragglers.iter().find(|s| s.rank == rank)?;
        self.log.straggle_injected();
        Some(Duration::from_millis(s.per_op_delay_ms))
    }

    /// Advance `rank`'s compute-step counter; `true` means the rank
    /// crashes *now* (the schedule entry is consumed, so a restart of
    /// the same injector proceeds past it).
    #[must_use = "a true return means this rank must stop working"]
    pub fn compute_step(&self, rank: usize) -> bool {
        let step = {
            let mut steps = self.rank_steps.lock();
            let c = steps.entry(rank).or_insert(0);
            let s = *c;
            *c += 1;
            s
        };
        let mut armed = self.armed_crashes.lock();
        if let Some(pos) = armed.iter().position(|c| c.rank == rank && c.step == step) {
            armed.remove(pos);
            drop(armed);
            self.log.crash_injected();
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_channel() {
        let mk = || FaultInjector::new(FaultPlan::new(5).with_drop_rate(0.4));
        let a = mk();
        let b = mk();
        let verdicts = |inj: &FaultInjector| -> Vec<SendFault> {
            (0..64).map(|_| inj.on_send(0, 1, true)).collect()
        };
        assert_eq!(verdicts(&a), verdicts(&b));
        assert!(verdicts(&a).contains(&SendFault::Drop));
    }

    #[test]
    fn internal_traffic_is_exempt() {
        let inj = FaultInjector::new(FaultPlan::new(5).with_drop_rate(1.0));
        for _ in 0..16 {
            assert_eq!(inj.on_send(0, 1, false), SendFault::Deliver);
        }
        assert_eq!(inj.stats().drops, 0);
    }

    #[test]
    fn send_faults_off_delivers_and_keeps_the_verdict_stream() {
        let plan = FaultPlan::new(5)
            .with_drop_rate(0.4)
            .with_partition(vec![0], vec![1], 3, 6);
        let verdicts = |inj: &FaultInjector| -> Vec<SendFault> {
            (0..32).map(|_| inj.on_send(0, 1, true)).collect()
        };
        let want = verdicts(&FaultInjector::new(plan.clone()));
        let inj = FaultInjector::new(plan);
        inj.set_send_faults(false);
        for user in [true, false, true] {
            assert_eq!(inj.on_send(0, 1, user), SendFault::Deliver);
        }
        assert_eq!(inj.stats(), FaultStats::default());
        inj.set_send_faults(true);
        assert_eq!(verdicts(&inj), want, "no counter moved while off");
    }

    #[test]
    fn crash_fires_once_at_scheduled_step() {
        let inj = FaultInjector::new(FaultPlan::new(1).with_crash(2, 3));
        let fired: Vec<bool> = (0..6).map(|_| inj.compute_step(2)).collect();
        assert_eq!(fired, vec![false, false, false, true, false, false]);
        assert_eq!(inj.stats().crashes, 1);
        // Other ranks never crash.
        assert!((0..6).all(|_| !inj.compute_step(1)));
    }

    #[test]
    fn straggler_only_slows_its_rank() {
        let inj = FaultInjector::new(FaultPlan::new(1).with_straggler(1, 7));
        assert_eq!(inj.straggle(0), None);
        assert_eq!(inj.straggle(1), Some(Duration::from_millis(7)));
        assert_eq!(inj.stats().straggler_delays, 1);
    }

    #[test]
    fn partition_window_cuts_both_directions_then_heals() {
        let plan = FaultPlan::new(1).with_partition(vec![0], vec![1], 0, 2);
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.on_send(0, 1, true), SendFault::Drop); // op 0
        assert_eq!(inj.on_send(1, 0, true), SendFault::Drop); // op 1
        assert_eq!(inj.on_send(0, 1, true), SendFault::Deliver); // op 2: healed
        assert_eq!(inj.stats().partition_drops, 2);
    }

    #[test]
    fn ledger_recovery_bookkeeping() {
        let log = FaultLog::default();
        log.drop_injected();
        log.drop_injected();
        log.crash_injected();
        assert!(!log.stats().all_recovered());
        log.drops_recovered(2);
        log.crash_recovered();
        let s = log.stats();
        assert_eq!(s.recoverable_injected(), 3);
        assert_eq!(s.recovered(), 3);
        assert!(s.all_recovered());
    }

    #[test]
    fn stats_merge_adds_fields() {
        let a = FaultStats {
            drops: 1,
            retries: 2,
            ..Default::default()
        };
        let b = FaultStats {
            drops: 3,
            crashes: 1,
            ..Default::default()
        };
        let m = a.merged(&b);
        assert_eq!((m.drops, m.retries, m.crashes), (4, 2, 1));
    }
}
