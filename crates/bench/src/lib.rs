//! # pdc-bench
//!
//! The `reproduce` binary prints every paper artifact without timing:
//!
//! ```text
//! cargo run -p pdc-bench --bin reproduce            # everything
//! cargo run -p pdc-bench --bin reproduce -- fig2    # one experiment
//! ```
//!
//! The Criterion targets are **ablations** (`ablate_*`,
//! `parallel_algorithms`): they quantify the design choices DESIGN.md
//! calls out (loop scheduling, the reduction ladder, linear vs. tree
//! collectives, spinning vs. blocking barriers, the parallel
//! algorithms). Everything else is measured elsewhere: the golden tests
//! pin the tables and figures, and perfbench times regions, message
//! round trips, the exemplars' speedups and the cost of tracing
//! (`shmem.region_us`, `mpc.rtt_typed_u64_us`, `exemplars.*`,
//! `trace.overhead_pct`).

use criterion::Criterion;

/// A Criterion instance tuned for this workspace's CI budget: small
/// sample counts and short windows, because the interesting output is
/// the *relative* timings.
pub fn criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(600))
        .configure_from_args()
}
