//! # pdc-bench
//!
//! The benchmark harness. Two kinds of targets:
//!
//! * **Table/figure regenerators** (`table1_*`, `table2_*`, `fig*`,
//!   `module*_speedup`): each prints the corresponding paper artifact —
//!   the same rows/series the paper reports — and then Criterion-times
//!   the computation behind it.
//! * **Ablations** (`ablate_*`): quantify the design choices DESIGN.md
//!   calls out (loop scheduling, the reduction ladder, linear vs. tree
//!   collectives, spinning vs. blocking barriers, tracing overhead).
//!   Thread hand-offs and message round trips are timed by perfbench
//!   instead (`shmem.region_us`, `mpc.rtt_typed_u64_us`).
//!
//! The `reproduce` binary prints every artifact without timing:
//!
//! ```text
//! cargo run -p pdc-bench --bin reproduce            # everything
//! cargo run -p pdc-bench --bin reproduce -- fig2    # one experiment
//! ```

use criterion::Criterion;

/// A Criterion instance tuned for this workspace's CI budget: small
/// sample counts and short windows, because the interesting output is
/// the printed artifact and the *relative* timings.
pub fn criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(600))
        .configure_from_args()
}
