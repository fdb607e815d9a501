//! `pdc-analyze` — race, deadlock, and collective-mismatch detection for
//! both of the workspace's runtimes.
//!
//! Three detectors share one [`Diagnostic`] currency:
//!
//! * [`race::RaceDetector`] — a FastTrack-style vector-clock detector fed
//!   by `pdc-shmem`'s [`hooks`](pdc_shmem::hooks) event stream. It
//!   reconstructs happens-before from fork/join, lock acquire/release,
//!   and barrier edges, and flags any pair of unordered accesses to the
//!   same cell where at least one is a plain (non-atomic) write.
//! * [`comm`] — an MPI-style communication analyzer over the per-rank
//!   operation logs `pdc-mpc` records ([`pdc_mpc::CommLog`]): collective
//!   sequence mismatches, sends that were never received, and wait-for
//!   cycles (deadlock). It also runs offline over `pdc-trace` JSONL.
//! * [`lint`] — a catalog linter: every patternlet must actually exercise
//!   the runtime calls its `Pattern` tag advertises, the known-racy
//!   patternlet must be *detected* by the race detector, the known-clean
//!   ones must not be flagged, and courseware references must resolve.
//!
//! The harnesses that *run* code — [`with_race_analysis`],
//! [`with_comm_analysis`], [`with_comm_records`] and
//! [`lint::lint_catalog`] — scope their observers to the calling thread
//! and the threads it starts (`pdc_shmem::hooks::observe`,
//! `pdc_mpc::analysis::record_into`), so any number of them may run at
//! once, next to unobserved code, without seeing each other's events.

pub mod comm;
pub mod lint;
pub mod race;
pub mod traceio;
pub mod vc;

use std::fmt;
use std::sync::Arc;

use serde::Serialize;

pub use race::{Evidence, RaceDetector};
pub use vc::VectorClock;

/// Which detector produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Detector {
    /// The shared-memory race detector.
    Race,
    /// The message-passing communication analyzer.
    Comm,
    /// The catalog/courseware linter.
    Lint,
}

/// How bad a finding is. `Error` findings fail `reproduce --analyze`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Severity {
    /// A definite correctness problem.
    Error,
    /// Suspicious but survivable (e.g. a message that was never received).
    Warning,
}

/// One finding, in the shape all three detectors emit.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct Diagnostic {
    /// Which detector found it.
    pub detector: Detector,
    /// Stable machine-readable code, e.g. `race.data-race`,
    /// `comm.deadlock-cycle`, `lint.pattern-not-exercised`.
    pub code: String,
    /// Severity.
    pub severity: Severity,
    /// Human-readable one-liner.
    pub message: String,
    /// Source sites involved (`file:line`), sorted; empty when the
    /// finding has no meaningful source anchor.
    pub sites: Vec<String>,
}

impl Diagnostic {
    /// Build a diagnostic; `sites` is sorted for deterministic output.
    pub fn new(
        detector: Detector,
        code: &str,
        severity: Severity,
        message: String,
        mut sites: Vec<String>,
    ) -> Self {
        sites.sort();
        sites.dedup();
        Self {
            detector,
            code: code.to_owned(),
            severity,
            message,
            sites,
        }
    }

    /// Whether this finding should fail a gate.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)?;
        if !self.sites.is_empty() {
            write!(f, " ({})", self.sites.join(", "))?;
        }
        Ok(())
    }
}

/// Sort + dedup a batch of diagnostics into canonical report order.
pub fn canonicalize(mut diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags.sort();
    diags.dedup();
    diags
}

/// Run `f` under the shared-memory race detector and return its result
/// plus any data-race diagnostics. Fork/join, lock, and barrier edges
/// from `pdc-shmem` order the accesses; unordered conflicting accesses
/// to the same tracked cell are flagged with both source sites.
pub fn with_race_analysis<R>(f: impl FnOnce() -> R) -> (R, Vec<Diagnostic>) {
    let detector = Arc::new(RaceDetector::new());
    let result = pdc_shmem::hooks::observe(detector.clone(), f);
    let (_evidence, diags) = detector.report();
    (result, diags)
}

/// Run `f` with a [`pdc_mpc::CommLog`] in scope, then analyze every
/// `World::run` it performed for collective mismatches, unmatched
/// sends, and wait-for deadlock cycles.
pub fn with_comm_analysis<R>(f: impl FnOnce() -> R) -> (R, Vec<Diagnostic>) {
    let (result, _runs, diags) = with_comm_records(f);
    (result, diags)
}

/// Like [`with_comm_analysis`], but also hands back the raw per-run
/// records for callers that want to do their own counting.
pub fn with_comm_records<R>(
    f: impl FnOnce() -> R,
) -> (R, Vec<pdc_mpc::analysis::RunRecord>, Vec<Diagnostic>) {
    let log = pdc_mpc::CommLog::new();
    let result = pdc_mpc::analysis::record_into(&log, f);
    let runs = log.take();
    let diags = comm::analyze_runs(&runs);
    (result, runs, diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostics_sort_deterministically() {
        let a = Diagnostic::new(
            Detector::Race,
            "race.data-race",
            Severity::Error,
            "b".into(),
            vec!["z.rs:9".into(), "a.rs:1".into()],
        );
        let b = Diagnostic::new(
            Detector::Comm,
            "comm.deadlock-cycle",
            Severity::Error,
            "a".into(),
            vec![],
        );
        assert_eq!(a.sites, vec!["a.rs:1".to_owned(), "z.rs:9".to_owned()]);
        let sorted = canonicalize(vec![a.clone(), b.clone(), a.clone()]);
        assert_eq!(sorted.len(), 2);
        assert_eq!(sorted[0], a, "race sorts before comm");
    }

    #[test]
    fn display_includes_code_and_sites() {
        let d = Diagnostic::new(
            Detector::Race,
            "race.data-race",
            Severity::Error,
            "boom".into(),
            vec!["f.rs:3".into()],
        );
        assert_eq!(d.to_string(), "[race.data-race] boom (f.rs:3)");
    }
}
