//! # pdc-insight: cross-rank trace analytics
//!
//! Offline analytics over `pdc-trace` JSONL exports, closing the loop
//! the course's observability layer opened: `pdc-trace` records,
//! `pdc-analyze` checks correctness (races, deadlocks, collective
//! mismatches), and this crate explains **performance** — the question
//! every speedup table raises but cannot answer: *where did the time
//! go?*
//!
//! Four pieces:
//!
//! * [`dag`] — reconstructs the cross-rank happens-before DAG from
//!   spans plus communication edges (send→recv matching, collective
//!   rendezvous) and extracts the **critical path**, attributing every
//!   nanosecond of the wall interval to compute, barrier wait, lock
//!   contention, wire transfer, or untraced idle time.
//! * [`hist`][crate::histset] — folds the per-process
//!   `pdc_trace::Histogram` lines of a merged trace back into mergeable
//!   percentile summaries (p50/p90/p99) per metric.
//! * [`flame`] — collapsed-stack flamegraph text (`a;b;c count`
//!   format, directly loadable by standard flamegraph tooling) built
//!   from each lane's span nesting.
//! * [`diff`] — the perf gate: an exact comparison of the counts in
//!   two perfbench result lines; [`report`] carries the serializable
//!   artifact and [`dashboard`] renders the self-contained instructor
//!   HTML.
//!
//! Everything here is deterministic given its input bytes: maps are
//! `BTreeMap`s, floats are formatted through fixed-precision helpers,
//! and no wall clock is consulted.

pub mod dag;
pub mod dashboard;
pub mod diff;
pub mod flame;
pub mod histset;
pub mod report;

pub use dag::{critical_path, Breakdown, Category, CriticalPath};
pub use flame::collapsed_stacks;
pub use histset::HistogramSet;
pub use report::{HistSummary, InsightReport, PathSummary, ScalingRow, StudyInsight};
