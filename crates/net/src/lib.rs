#![warn(missing_docs)]

//! # pdc-net — a real wire under the message-passing runtime
//!
//! The paper's Module B teaches message passing with `mpirun -np N`
//! launching real OS processes; `pdc-mpc` reproduces the semantics with
//! threads and in-process mailboxes. This crate closes the remaining
//! gap: the **same** `World`/`Comm` programs, unchanged, running as
//! `np` OS processes on localhost connected by real TCP sockets — with
//! everything a real wire forces you to face: framing, checksums,
//! handshakes, keepalives, link loss, reconnection, and peers that die
//! without saying goodbye.
//!
//! | `mpirun` world | pdc-net |
//! |---|---|
//! | `mpirun -np N prog` | `pdc-run -np N -- prog` ([`launch`]) |
//! | process manager rendezvous | rank 0's address file ([`TcpTransport::connect`]) |
//! | interconnect | length-framed, checksummed TCP ([`frame`]) |
//! | failure detector | heartbeats + redial exhaustion ([`transport`]) |
//! | `MPIX_Comm_shrink` after a node dies | same `Comm::shrink`, fed by the wire detector |
//!
//! ## The pieces
//!
//! - [`frame`] — the wire format: 40-byte header, CRC-32, versioned.
//! - [`transport`] — [`TcpTransport`]: rendezvous, full mesh,
//!   write-through sends, reads by the waiting rank or a per-peer
//!   reader pump, heartbeat failure detection, reconnect with
//!   deterministic backoff.
//! - [`launcher`] — [`launch`] and the `pdc-run` binary: the `mpirun`
//!   analog.
//!
//! ## Joining a world
//!
//! ```no_run
//! use pdc_mpc::{Transport, World};
//! use pdc_net::{NetConfig, TcpTransport};
//!
//! // Identity arrives via PDC_NET_* (set by pdc-run or `launch`).
//! let cfg = NetConfig::from_env()?;
//! let np = cfg.size;
//! let transport = TcpTransport::connect(cfg)?;
//! let comm = World::new(np).attach(transport.clone());
//! let rank_sum: u64 = comm.allreduce(comm.rank() as u64, pdc_mpc::ops::sum).unwrap();
//! transport.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod frame;
pub mod launcher;
pub mod transport;

pub use frame::{crc32, Frame, FrameKind, Hello, Welcome, MAX_PAYLOAD, WIRE_MAGIC, WIRE_VERSION};
pub use launcher::{launch, LaunchSpec, RankExit};
pub use transport::{NetConfig, TcpTransport};
