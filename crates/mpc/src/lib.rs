#![warn(missing_docs)]

//! # pdc-mpc — Message-Passing Computing
//!
//! A from-scratch **MPI-analog message-passing runtime**, the substrate
//! beneath the paper's Module B ("MPI & Distributed Cluster Computing").
//! The paper teaches message passing through `mpi4py` patternlets executed
//! by `mpirun -np N`; Rust's MPI bindings are thin, so this crate
//! implements the runtime itself: *processes* are OS threads, the
//! *network* is a set of in-process mailboxes with MPI matching semantics,
//! and `mpirun` is [`World::run`].
//!
//! That is the same substitution Google Colab itself makes in the paper —
//! `mpirun` on a single-core VM runs all ranks on one processor, and "the
//! key concepts of message passing can still be demonstrated" (§III-B).
//!
//! | MPI / mpi4py | pdc-mpc |
//! |---|---|
//! | `mpirun -np N prog` | [`World::new(N).run(prog)`](World::run) |
//! | `MPI.COMM_WORLD` | the [`Comm`] passed to the rank closure |
//! | `Get_rank()` / `Get_size()` | [`Comm::rank`] / [`Comm::size`] |
//! | `Get_processor_name()` | [`Comm::processor_name`] |
//! | `send(obj, dest, tag)` | [`Comm::send`] (buffered, non-blocking) |
//! | `Ssend` | [`Comm::ssend`] (rendezvous; can deadlock — by design) |
//! | `recv(source, tag)` | [`Comm::recv`], [`Comm::recv_status`] |
//! | `ANY_SOURCE` / `ANY_TAG` | [`Source::Any`] / [`TagSel::Any`] |
//! | `Sendrecv` | [`Comm::sendrecv`] |
//! | `Irecv` + `wait` | [`Comm::irecv`] + [`RecvRequest::wait`] |
//! | `Probe` / `Iprobe` | [`Comm::probe`] / [`Comm::iprobe`] |
//! | `Barrier/Bcast/Scatter/Gather/Reduce/...` | [`collectives`] on [`Comm`] |
//! | `Split` | [`Comm::split`] |
//!
//! Messages carry any `serde`-serializable payload, encoded in the compact
//! binary `serde::binary` form (as mpi4py's `comm.send` pickles its
//! objects). Matching follows the
//! MPI standard: a receive matches the *oldest* pending message whose
//! (source, tag) fits the selectors, and messages between one
//! (sender, receiver, tag) triple are never reordered (non-overtaking).
//!
//! ## Example — the SPMD patternlet of the paper's Figure 2
//!
//! ```
//! use pdc_mpc::World;
//!
//! let greetings = World::new(4).run(|comm| {
//!     format!(
//!         "Greetings from process {} of {} on {}",
//!         comm.rank(),
//!         comm.size(),
//!         comm.processor_name()
//!     )
//! });
//! assert_eq!(greetings.len(), 4);
//! assert!(greetings[2].starts_with("Greetings from process 2 of 4"));
//! ```

pub mod analysis;
pub mod cart;
pub mod collectives;
pub mod comm;
pub mod envelope;
pub mod error;
pub mod failure;
pub mod mailbox;
pub mod reduce_op;
pub mod traffic;
pub mod transport;
pub mod world;

pub use analysis::CommLog;
pub use cart::{dims_create, CartComm};
pub use collectives::CollectiveAlgo;
pub use comm::{Comm, RecvRequest, SendRequest, Status};
pub use envelope::{Source, Tag, TagSel};
pub use error::MpcError;
pub use failure::DeadSet;
pub use reduce_op::ops;
pub use traffic::TrafficMatrix;
pub use transport::{FrameOutcome, Transport, WireFrame, WireHandle};
pub use world::{World, DEFAULT_COLLECTIVE_TIMEOUT};

/// Crate prelude for patternlets and exemplars.
pub mod prelude {
    pub use crate::collectives::CollectiveAlgo;
    pub use crate::comm::{Comm, Status};
    pub use crate::envelope::{Source, TagSel};
    pub use crate::error::MpcError;
    pub use crate::reduce_op::ops;
    pub use crate::world::World;
}
