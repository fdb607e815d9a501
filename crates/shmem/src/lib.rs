#![warn(missing_docs)]

//! # pdc-shmem
//!
//! A from-scratch **shared-memory parallel runtime** modelled on OpenMP —
//! the substrate beneath the paper's Module A ("OpenMP on the Raspberry
//! Pi"). Every concept the module's patternlets teach is a first-class API
//! here, with the same semantics as the corresponding OpenMP construct:
//!
//! | OpenMP construct | pdc-shmem API |
//! |---|---|
//! | `#pragma omp parallel` | [`Team::parallel`] (fork-join over a hot thread team: the caller is thread 0, workers stay parked between regions) |
//! | `omp_get_thread_num()` / `omp_get_num_threads()` | [`ThreadCtx::thread_num`] / [`ThreadCtx::num_threads`] |
//! | `#pragma omp for schedule(static/dynamic/guided)` | [`parallel_for()`] + [`Schedule`] |
//! | `reduction(+:x)` | [`parallel_reduce`] (private accumulators + combine) |
//! | `#pragma omp critical` | [`ThreadCtx::critical`] (named critical sections) |
//! | `#pragma omp atomic` | [`sync::AtomicF64`], [`sync::AtomicCounter`] |
//! | `#pragma omp barrier` | [`ThreadCtx::barrier`] |
//! | `#pragma omp single` / `master` | [`constructs::SingleSite`], [`ThreadCtx::is_master`] |
//! | `#pragma omp sections` | [`constructs::sections`] |
//! | `omp_init_lock` … | [`sync::SpinLock`], [`sync::TicketLock`] |
//!
//! The synchronization primitives are hand-built from atomics in the style
//! of *Rust Atomics and Locks* (Bos 2023): a sense-reversing barrier, a
//! test-and-test-and-set spin lock with yielding backoff, a FIFO ticket
//! lock, and a CAS-loop `AtomicF64`. Two barrier variants and three
//! reduction strategies exist side-by-side because the paper's pedagogy
//! (and our ablation benches) compare them.
//!
//! ## Single-core friendliness
//!
//! The reproduction host — like the Google Colab VM in the paper's Module B
//! — may have a single core. Every spin loop in this crate therefore backs
//! off to [`std::thread::yield_now`] so that oversubscribed threads always
//! make progress; nothing here assumes true hardware parallelism.
//!
//! ## Example
//!
//! ```
//! use pdc_shmem::{Team, parallel_reduce, Schedule};
//!
//! // Numerically integrate x² over [0,1] with 4 threads (answer: 1/3).
//! let team = Team::new(4);
//! let n = 100_000;
//! let h = 1.0 / n as f64;
//! let area = parallel_reduce(
//!     &team,
//!     0..n,
//!     Schedule::default(),
//!     0.0f64,
//!     |i| {
//!         let x = (i as f64 + 0.5) * h;
//!         x * x * h
//!     },
//!     |a, b| a + b,
//! );
//! assert!((area - 1.0 / 3.0).abs() < 1e-6);
//! ```

pub mod constructs;
pub mod hooks;
pub mod ordered;
pub mod parallel_for;
pub mod reduce;
pub mod scan;
pub mod schedule;
pub mod sync;
pub mod team;

pub use parallel_for::{parallel_for, parallel_for_each, parallel_for_each_indexed};
pub use reduce::{parallel_reduce, reduce_with_atomic, reduce_with_critical, reduce_with_race};
pub use schedule::Schedule;
pub use team::{Team, TeamError, ThreadCtx};

/// The crate prelude: everything a patternlet needs in scope.
pub mod prelude {
    pub use crate::constructs::{sections, SingleSite};
    pub use crate::parallel_for::{parallel_for, parallel_for_each};
    pub use crate::reduce::parallel_reduce;
    pub use crate::schedule::Schedule;
    pub use crate::sync::{AtomicCounter, AtomicF64, SpinLock, TicketLock};
    pub use crate::team::{Team, TeamError, ThreadCtx};
}
