//! Message-passing (MPI-style) patternlets — the Module B catalog, the
//! Rust transliteration of the CSinParallel `mpi4py` patternlets the
//! paper runs in Google Colab (reference \[14\], Figure 2).
//!
//! Each patternlet's program is one `fn(&Comm) -> Vec<String>` beside its
//! record. The record's runner runs it on a thread-mode world, and
//! [`netsuite::NET_SUITE`] runs the same function on a borrowed
//! communicator, such as one rank of a `pdc-net` world.

pub mod basics;
pub mod collectives;
pub mod netsuite;
pub mod p2p;
pub mod worker;

use pdc_mpc::{Comm, World};

use crate::{Patternlet, RunOutput};

/// All message-passing patternlets, in notebook order.
pub static ALL: &[&Patternlet] = &[
    &basics::SPMD,
    &basics::ORDERED,
    &p2p::SEND_RECV,
    &p2p::RING_PASS,
    &p2p::EXCHANGE,
    &p2p::DEADLOCK,
    &worker::MASTER_WORKER,
    &worker::EQUAL_CHUNKS,
    &worker::CHUNKS_OF_ONE,
    &collectives::BROADCAST,
    &collectives::SCATTER,
    &collectives::GATHER,
    &collectives::ALLGATHER,
    &collectives::REDUCE,
    &collectives::SCAN,
];

/// Run `body` on a fresh thread-mode world of `n` ranks; the lines are
/// the per-rank outputs flattened in rank order.
fn run_ranks(n: usize, body: fn(&Comm) -> Vec<String>) -> RunOutput {
    RunOutput {
        lines: World::new(n)
            .run(|c| body(&c))
            .into_iter()
            .flatten()
            .collect(),
        deterministic_order: true,
    }
}
