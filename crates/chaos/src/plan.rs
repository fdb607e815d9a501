//! Fault plans: the deterministic, seedable description of *what goes
//! wrong* during a run.
//!
//! A [`FaultPlan`] is pure data — rates, schedules, and windows — with a
//! single `seed` from which every probabilistic decision is derived by
//! counter-based hashing (see [`hash01`]). Two runs with the same plan
//! and the same per-channel message sequence therefore inject exactly
//! the same faults, which is what makes chaos studies reproducible and
//! lets CI assert `faults_recovered == recoverable faults_injected`.

use serde::{Deserialize, Serialize};

/// Crash schedule entry: the given rank fails permanently when it
/// reaches compute step `step` (steps are counted by the workload via
/// [`crate::FaultInjector::compute_step`], 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashPoint {
    /// World rank that crashes.
    pub rank: usize,
    /// 0-based compute step at which it crashes.
    pub step: u64,
}

/// Straggler entry: every fault-checked operation on this rank is
/// slowed by `per_op_delay_ms` — the "one student's Pi is thermal
/// throttling" model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Straggler {
    /// World rank that runs slow.
    pub rank: usize,
    /// Added latency per operation, milliseconds.
    pub per_op_delay_ms: u64,
}

/// A network partition window: while the *global* operation counter is
/// in `[from_op, until_op)`, user messages between side `a` and side
/// `b` are dropped (both directions).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// One side of the cut.
    pub a: Vec<usize>,
    /// The other side.
    pub b: Vec<usize>,
    /// First global op index inside the window.
    pub from_op: u64,
    /// First global op index after the window.
    pub until_op: u64,
}

/// The full description of the faults one run is subjected to.
///
/// All rates apply to **user** messages only (tags `>= 0`): the
/// runtime's internal collective traffic is carried on a "control
/// plane" assumed reliable, the same split ULFM-style MPI runtimes
/// make. Crash schedules and stragglers apply to ranks regardless of
/// what traffic they carry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed all probabilistic decisions derive from.
    pub seed: u64,
    /// Probability a user message is silently dropped.
    pub drop_rate: f64,
    /// Probability a user message is delivered twice.
    pub duplicate_rate: f64,
    /// Probability a user message is delayed by `delay_ms` before
    /// delivery.
    pub delay_rate: f64,
    /// Delay applied to delayed messages, milliseconds.
    pub delay_ms: u64,
    /// Probability a user message jumps the destination queue
    /// (delivered ahead of earlier traffic — breaks non-overtaking).
    pub reorder_rate: f64,
    /// Per-rank crash schedule.
    pub crashes: Vec<CrashPoint>,
    /// Per-rank slow-down schedule.
    pub stragglers: Vec<Straggler>,
    /// Partition windows over the global op counter.
    pub partitions: Vec<Partition>,
}

impl FaultPlan {
    /// A plan that injects nothing (seed only).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            delay_rate: 0.0,
            delay_ms: 0,
            reorder_rate: 0.0,
            crashes: Vec::new(),
            stragglers: Vec::new(),
            partitions: Vec::new(),
        }
    }

    /// Set the user-message drop rate.
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.drop_rate = rate;
        self
    }

    /// Set the duplicate-delivery rate.
    pub fn with_duplicate_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.duplicate_rate = rate;
        self
    }

    /// Set the delayed-delivery rate and per-message delay.
    pub fn with_delay(mut self, rate: f64, delay_ms: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.delay_rate = rate;
        self.delay_ms = delay_ms;
        self
    }

    /// Set the queue-jumping reorder rate.
    pub fn with_reorder_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.reorder_rate = rate;
        self
    }

    /// Schedule `rank` to crash at compute step `step`.
    pub fn with_crash(mut self, rank: usize, step: u64) -> Self {
        self.crashes.push(CrashPoint { rank, step });
        self
    }

    /// Make `rank` a straggler: `per_op_delay_ms` added to each op.
    pub fn with_straggler(mut self, rank: usize, per_op_delay_ms: u64) -> Self {
        self.stragglers.push(Straggler {
            rank,
            per_op_delay_ms,
        });
        self
    }

    /// Add a partition window.
    pub fn with_partition(
        mut self,
        a: Vec<usize>,
        b: Vec<usize>,
        from_op: u64,
        until_op: u64,
    ) -> Self {
        assert!(from_op <= until_op);
        self.partitions.push(Partition {
            a,
            b,
            from_op,
            until_op,
        });
        self
    }

    /// True if the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.drop_rate > 0.0
            || self.duplicate_rate > 0.0
            || self.delay_rate > 0.0
            || self.reorder_rate > 0.0
            || !self.crashes.is_empty()
            || !self.stragglers.is_empty()
            || !self.partitions.is_empty()
    }
}

/// SplitMix64 finalizer — the avalanche stage is enough to decorrelate
/// the structured `(seed, stream, counter)` inputs we feed it. The
/// workspace's other counter-based generators build on it too.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Deterministic hash of a decision coordinate to a `u64`.
pub fn hash_u64(seed: u64, stream: u64, counter: u64) -> u64 {
    splitmix64(splitmix64(seed ^ stream.wrapping_mul(0xD1B54A32D192ED03)) ^ counter)
}

/// Deterministic hash of a decision coordinate to a uniform `[0, 1)`.
pub fn hash01(seed: u64, stream: u64, counter: u64) -> f64 {
    // 53 mantissa bits → exact dyadic rational in [0,1).
    (hash_u64(seed, stream, counter) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inactive() {
        assert!(!FaultPlan::new(7).is_active());
        assert!(FaultPlan::new(7).with_drop_rate(0.1).is_active());
        assert!(FaultPlan::new(7).with_crash(1, 3).is_active());
    }

    #[test]
    fn hash01_is_deterministic_and_in_range() {
        for c in 0..1000 {
            let a = hash01(42, 3, c);
            let b = hash01(42, 3, c);
            assert_eq!(a, b);
            assert!((0.0..1.0).contains(&a));
        }
    }

    #[test]
    fn hash01_rate_is_roughly_uniform() {
        let n = 10_000;
        let hits = (0..n).filter(|&c| hash01(9, 1, c) < 0.3).count();
        let rate = hits as f64 / n as f64;
        assert!((0.25..0.35).contains(&rate), "rate {rate}");
    }

    #[test]
    fn distinct_seeds_give_distinct_streams() {
        let a: Vec<u64> = (0..16).map(|c| hash_u64(1, 0, c)).collect();
        let b: Vec<u64> = (0..16).map(|c| hash_u64(2, 0, c)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn plan_serde_round_trip() {
        let plan = FaultPlan::new(11)
            .with_drop_rate(0.3)
            .with_delay(0.1, 5)
            .with_crash(2, 4)
            .with_straggler(1, 2)
            .with_partition(vec![0], vec![1, 2], 10, 20);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
