//! Two-rank pdc-net meshes over TCP loopback, each rank a thread of
//! this process with its own `TcpTransport`, as the workspace's wire
//! tests do. Rendezvous files live under the benchmark's scratch dir.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pdc_mpc::{Comm, Transport, World};
use pdc_net::{NetConfig, TcpTransport};

use crate::labs::NP;

/// One rank's end of a mesh: its transport and the attached world comm.
pub struct Rank {
    pub transport: Arc<TcpTransport>,
    pub comm: Comm,
}

static SESSIONS: AtomicU64 = AtomicU64::new(0);

/// The heartbeat timing the workspace's failure-detection tests use.
pub fn fast_heartbeats(cfg: &mut NetConfig) {
    cfg.heartbeat_interval = Duration::from_millis(20);
    cfg.heartbeat_timeout = Duration::from_millis(400);
}

/// Rendezvous, mesh formation and `World::attach` for both ranks. Rank 0
/// joins on a helper thread; rank 1 joins on the calling thread once rank
/// 0 has published its address. A fixed launch order keeps the set-up
/// time from depending on which thread the OS happens to run first, since
/// pdc-net polls for the rendezvous file and for connections.
pub fn form(scratch: &Path, tune: impl Fn(&mut NetConfig) + Sync) -> [Rank; NP] {
    let n = SESSIONS.fetch_add(1, Ordering::Relaxed);
    let session = (u64::from(std::process::id()) << 24) | n;
    let rendezvous: PathBuf = scratch.join(format!("rendezvous-{session:x}.addr"));
    let join = |rank: usize| {
        let mut cfg = NetConfig::new(rank, NP, session, rendezvous.clone());
        tune(&mut cfg);
        let transport = TcpTransport::connect(cfg).expect("join the loopback mesh");
        let comm = World::new(NP).attach(transport.clone() as Arc<dyn Transport>);
        Rank { transport, comm }
    };
    let (r0, r1) = std::thread::scope(|s| {
        let r0 = s.spawn(|| join(0));
        while !rendezvous.exists() && !r0.is_finished() {
            std::thread::sleep(Duration::from_micros(50));
        }
        let r1 = join(1);
        (r0.join().expect("rank 0 joined"), r1)
    });
    let _ = std::fs::remove_file(&rendezvous);
    [r0, r1]
}

/// Shut both ranks down concurrently (each waits up to one heartbeat
/// interval for its pumps).
pub fn shutdown(ranks: &[Rank; NP]) {
    std::thread::scope(|s| {
        s.spawn(|| ranks[1].transport.shutdown());
        ranks[0].transport.shutdown();
    });
}
