//! # pdc-chaos — deterministic fault injection and recovery
//!
//! The paper teaches PDC on unreliable remote substrates — student
//! Raspberry Pi clusters, home networks, free-tier VMs — so the
//! runtimes must *survive* faults, not just report them. This crate is
//! the workspace's chaos layer:
//!
//! - [`FaultPlan`] — pure, seedable data describing what goes wrong:
//!   message drop/duplicate/delay/reorder rates, crash-at-step
//!   schedules, straggler slow-downs, partition windows.
//! - [`FaultInjector`] — the live form a `World` consults at its
//!   send/recv chokepoint. Decisions are counter-based hashes of
//!   `(seed, channel, message index)`, so they are independent of
//!   thread scheduling.
//! - [`FaultLog`] / [`FaultStats`] — the fault/recovery ledger. Every
//!   increment is mirrored to `pdc-trace` as a `chaos/...` counter so
//!   trace summaries reconcile with the ledger exactly.
//! - [`CheckpointStore`] — keyed checkpoints, in memory or on disk,
//!   that a recovering rank restores a dead rank's work from.
//! - [`RetryPolicy`] — capped exponential backoff with deterministic
//!   jitter, used by `Comm::send_reliable`.
//!
//! The mpc runtime's *internal* collective traffic is exempt from
//! probabilistic faults — a reliable "control plane", the same split
//! ULFM-style MPI fault tolerance assumes. Crashes and stragglers
//! apply to ranks regardless.

pub mod checkpoint;
pub mod injector;
pub mod plan;

pub use checkpoint::CheckpointStore;
pub use injector::{FaultInjector, FaultLog, FaultStats, SendFault};
pub use plan::{hash01, hash_u64, splitmix64, CrashPoint, FaultPlan, Partition, Straggler};

use std::sync::Arc;
use std::time::Duration;

/// Retry schedule for reliable sends: capped exponential backoff with
/// deterministic jitter derived from the attempt coordinate (no shared
/// RNG state, so retry timing never perturbs fault determinism).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Give up after this many attempts (>= 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base: Duration,
    /// Ceiling on any single backoff.
    pub cap: Duration,
    /// How long `Comm::send_reliable` waits for the receiver to match a
    /// transmitted copy before retransmitting (floored at `cap`).
    ///
    /// Determinism rationale: the window must comfortably exceed one
    /// receiver scheduling quantum, so a healthy-but-slow receiver
    /// practically never triggers a spurious retransmit — keeping the
    /// `retries` counter a pure function of the injected drops
    /// (retries == drops) rather than of host load. A spurious
    /// retransmit would still be harmless (duplicate delivery; the
    /// injector is never consulted again), merely nondeterministic in
    /// the ledger. Shrinking this below a few hundred milliseconds
    /// trades ledger determinism for recovery latency.
    pub ack_window: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 12,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(50),
            ack_window: Duration::from_millis(800),
        }
    }
}

impl RetryPolicy {
    /// Backoff to sleep before attempt `attempt` (1-based; attempt 0 is
    /// the initial try and sleeps nothing). Exponential in the attempt
    /// number, capped, with ±25% deterministic jitter keyed on
    /// `(seed, stream, attempt)`.
    pub fn backoff(&self, seed: u64, stream: u64, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let exp = self
            .base
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.cap);
        let jitter = hash01(seed, stream ^ 0x524A54, attempt as u64); // "RJT"
        let scale = 0.75 + 0.5 * jitter;
        Duration::from_secs_f64(exp.as_secs_f64() * scale)
    }
}

/// Everything a chaos run carries: the plan, its armed injector, the
/// checkpoint store, and the retry policy. Clone-cheap (Arc inside).
#[derive(Clone)]
pub struct ChaosContext {
    /// The armed injector for this run (holds the plan).
    pub injector: Arc<FaultInjector>,
    /// In-memory checkpoint store shared by every rank of the run.
    pub checkpoints: CheckpointStore,
    /// Retry schedule for reliable sends.
    pub retry: RetryPolicy,
}

impl ChaosContext {
    /// Arm a plan into a fresh context.
    pub fn new(plan: FaultPlan) -> Self {
        let injector = Arc::new(FaultInjector::new(plan));
        let checkpoints = CheckpointStore::new(injector.log());
        Self {
            injector,
            checkpoints,
            retry: RetryPolicy::default(),
        }
    }

    /// The plan this context runs.
    pub fn plan(&self) -> &FaultPlan {
        self.injector.plan()
    }

    /// Snapshot the fault/recovery ledger.
    pub fn stats(&self) -> FaultStats {
        self.injector.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(20),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff(1, 1, 0), Duration::ZERO);
        let b1 = p.backoff(1, 1, 1);
        let b3 = p.backoff(1, 1, 3);
        let b7 = p.backoff(1, 1, 7);
        assert!(b1 < b3, "{b1:?} < {b3:?}");
        // Cap * max jitter bound.
        assert!(b7 <= Duration::from_secs_f64(0.020 * 1.25 + 1e-9));
        assert!(b7 >= Duration::from_secs_f64(0.020 * 0.75 - 1e-9));
    }

    #[test]
    fn backoff_is_deterministic() {
        let p = RetryPolicy::default();
        for a in 0..6 {
            assert_eq!(p.backoff(9, 4, a), p.backoff(9, 4, a));
        }
    }

    #[test]
    fn context_shares_ledger_with_checkpoints() {
        let ctx = ChaosContext::new(FaultPlan::new(3));
        ctx.checkpoints.save("k", &1u8);
        assert_eq!(ctx.stats().checkpoints_saved, 1);
    }
}
