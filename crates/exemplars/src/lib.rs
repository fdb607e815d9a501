#![warn(missing_docs)]

//! # pdc-exemplars
//!
//! The three *exemplar* applications the paper's modules end with —
//! complete programs (bigger than patternlets) whose run time is worth
//! measuring, used for the hands-on benchmarking studies:
//!
//! * [`integration`] — **numerical integration** (Module A exemplar 1):
//!   trapezoidal quadrature, the classic π computation. Embarrassingly
//!   parallel; a reduction.
//! * [`drugdesign`] — **drug design** (Module A exemplar 2 *and* a Module
//!   B option): score randomly generated ligands against a protein by
//!   longest-common-subsequence matching; find the best binders. Task
//!   costs are irregular (score cost grows with ligand length), which
//!   motivates dynamic scheduling and master-worker dealing.
//! * [`forestfire`] — **forest-fire simulation** (Module B exemplar):
//!   a probabilistic cellular automaton; Monte-Carlo sweep of burn
//!   probability vs. final forest damage. The sweep's independent trials
//!   distribute naturally over ranks.
//!
//! Every exemplar ships **three implementations** — sequential,
//! shared-memory ([`pdc_shmem`]), and message-passing ([`pdc_mpc`]) — with
//! seeded randomness arranged so all three produce *identical* results,
//! making the parallelizations machine-checkably correct.
//!
//! The Module B exemplars additionally ship **recoverable** variants
//! (`run_mpc_recoverable`) that run under a [`pdc_chaos`] fault plan and
//! survive injected message loss, stragglers, and rank crashes in one
//! world launch: reliable sends retransmit dropped messages, and rank 0
//! takes over a dead rank's work, restoring what it checkpointed.
//! Drug design's master deals a dead worker's tasks to the survivors;
//! forest fire's rank 0 adopts a dead rank's trials. Each returns a
//! [`RecoveredRun`] whose value is bit-identical to the fault-free run.

pub mod drugdesign;
pub mod forestfire;
pub mod heat;
pub mod integration;
pub mod pandemic;
pub mod recovery;
pub mod sorting;
#[cfg(test)]
mod testkit;

pub use drugdesign::{DrugConfig, DrugResult};
pub use forestfire::{FireConfig, FirePoint};
pub use heat::HeatConfig;
pub use integration::IntegrationResult;
pub use pandemic::{DayStats, PandemicConfig};
pub use recovery::RecoveredRun;
