//! The wire study: Module B over real sockets, with a real process kill.
//!
//! The thread-mode chaos study ([`crate::chaos`]) proves the recovery
//! *logic*; this study proves the recovery *machinery* against the
//! failure mode threads cannot have — an OS process dying mid-run. Four
//! rank processes are launched with `pdc-net`'s `mpirun` analog and run
//! two phases over a TCP mesh:
//!
//! 1. **Patternlets** (traced, injection disarmed): the full Module B
//!    catalog runs over the wire via
//!    [`pdc_patternlets::mp::netsuite::run_suite`], every rank exporting
//!    a pid-stamped JSONL trace. The driver merges the per-rank traces
//!    and runs the offline `pdc-analyze` communication pass over them —
//!    a clean suite must yield zero diagnostics.
//! 2. **Recoverable forest fire** (injection armed): every rank runs
//!    [`forestfire::sweep_recoverable`], the same sweep the thread-mode
//!    chaos study runs. Trials stride across ranks and every result is
//!    checkpointed in a [`CheckpointStore`] on a directory all rank
//!    processes share. The canonical plan drops user frames (the
//!    workers' reports to rank 0, recovered by `send_reliable`
//!    retransmission) and kills rank 2 — really kills it, via
//!    `std::process::abort`, with no farewell on the wire. Rank 0
//!    detects the death from silence (heartbeat timeout or redial
//!    exhaustion), adopts the dead rank's unreported trials (restoring
//!    the ones it checkpointed before dying) and assembles a series that
//!    must be bit-identical to [`forestfire::run_seq`].
//!
//! The resulting [`NetReport`] (`artifacts/BENCH_net.json`) carries
//! only scheduling-independent facts — fault verdicts are counter-based
//! hashes and message sequences are deterministic per channel — so two
//! runs with the same seed produce byte-identical artifacts.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use pdc_chaos::{CheckpointStore, FaultInjector, FaultPlan, FaultStats};
use pdc_exemplars::forestfire::{self, FireConfig};
use pdc_mpc::{MpcError, Transport, World};
use pdc_net::{launch, FlakyTransport, LaunchSpec, NetConfig, TcpTransport};
use pdc_patternlets::mp::netsuite;

use crate::chaos::ChaosCounters;
use crate::study::Scale;

/// World size every canonical wire run uses.
pub const NET_NP: usize = 4;

/// The hidden argv flag that turns the `reproduce` binary into one rank
/// of the wire study (the launcher re-executes the binary with it).
pub const WORKER_FLAG: &str = "--net-worker";

/// Canonical fault plan for the wire study: lossy user plane (25%
/// drops, recovered by retransmission) plus rank 2 killed at its third
/// compute step. No stragglers — over real sockets a straggler's delay
/// interacts with wall-clock heartbeats, and this artifact must stay a
/// pure function of the seed.
pub fn canonical_net_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with_drop_rate(0.25).with_crash(2, 2)
}

/// The sweep the wire study runs. 5 probabilities x 8 trials = 40
/// trials, so with `NET_NP = 4` the killed rank 2 owns 10 of them: it
/// checkpoints 2 before dying, and rank 0 restores those and computes
/// the other 8.
pub fn net_fire_config(seed: u64, scale: Scale) -> FireConfig {
    FireConfig {
        size: match scale {
            Scale::Quick => 13,
            Scale::Full => 25,
        },
        trials: 8,
        probabilities: vec![0.2, 0.4, 0.6, 0.8, 1.0],
        seed,
    }
}

/// Render a scale for the worker's argv.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    }
}

/// Parse a scale from the worker's argv.
pub fn parse_scale(s: &str) -> Option<Scale> {
    match s {
        "quick" => Some(Scale::Quick),
        "full" => Some(Scale::Full),
        _ => None,
    }
}

fn write_ledger(dir: &Path, rank: usize, injector: &FaultInjector) {
    let body = serde_json::to_string(&injector.stats()).expect("ledger serializes");
    let _ = std::fs::write(dir.join(format!("ledger_rank{rank}.json")), body);
}

/// One rank of the wire study. Runs inside a process launched by
/// [`net_study`]; reads its identity from the `PDC_NET_*` environment.
/// Returns `Err` with a description if this rank observed a failure it
/// could not recover from (the process should then exit nonzero).
///
/// Rank 2 does not return: the canonical plan's crash point fires on
/// its third compute step and the process aborts — a *real* kill, with
/// no crash announcement on the wire.
pub fn net_worker(seed: u64, scale: Scale) -> Result<(), String> {
    let mut cfg = NetConfig::from_env().map_err(|e| e.to_string())?;
    // Classroom-scale failure detection: fast enough that a killed peer
    // is declared dead in ~1s, slow enough that a loaded CI host never
    // false-positives a healthy one.
    cfg.heartbeat_interval = Duration::from_millis(50);
    cfg.heartbeat_timeout = Duration::from_millis(1000);
    let dir: PathBuf = cfg
        .rendezvous
        .parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| "rendezvous path has no parent directory".to_owned())?;
    let (rank, np) = (cfg.rank, cfg.size);

    let injector = Arc::new(FaultInjector::new(canonical_net_plan(seed)));
    let tcp = TcpTransport::connect(cfg).map_err(|e| format!("mesh formation failed: {e}"))?;
    let flaky = FlakyTransport::new(tcp, Arc::clone(&injector));
    flaky.set_armed(false);
    let comm = World::new(np)
        .with_fault_injector(Arc::clone(&injector))
        .with_collective_timeout(Duration::from_secs(3))
        .attach(flaky.clone());

    // Phase 1: the traced patternlet suite, injection disarmed.
    pdc_trace::reset();
    pdc_trace::enable();
    pdc_trace::set_process_label(format!("rank {rank}"));
    let summaries = netsuite::run_suite(&comm)?;
    pdc_trace::disable();
    let events = pdc_trace::drain();
    // Events first, then this process's pre-aggregated histograms
    // (frame RTTs, mailbox depths, heartbeat gaps): the driver's merged
    // stream folds same-keyed hist lines from every rank by plain
    // bucket addition, giving cross-process percentiles.
    let mut export = pdc_trace::export::jsonl(&events);
    export.push_str(&pdc_trace::export::hist_jsonl(
        &pdc_trace::drain_histograms(),
    ));
    std::fs::write(dir.join(format!("trace_rank{rank}.jsonl")), export)
        .map_err(|e| format!("trace export failed: {e}"))?;
    if rank == 0 {
        let body = serde_json::to_string(&summaries).expect("summaries serialize");
        std::fs::write(dir.join("patternlets.json"), body)
            .map_err(|e| format!("patternlet report failed: {e}"))?;
    }

    // Phase 2: the recoverable sweep, injection armed. The checkpoint
    // store is a directory shared by all rank processes, so what a rank
    // saves survives its death.
    //
    // A real kill races the wire: the barrier that ended phase 1
    // releases rank 3 through rank 2 (binomial bcast). Rank 2's send of
    // that release returns once the frame is on its socket, but the
    // scheduled abort resets the connection, and rank 3 may not have
    // read the frame yet — a peer then starves in a fault-free phase.
    // Give every link a drain window while every rank is idle and
    // nobody can die.
    std::thread::sleep(Duration::from_millis(250));
    flaky.set_armed(true);
    let store = CheckpointStore::open(dir.join("ckpt"), injector.log())
        .map_err(|e| format!("checkpoint store failed: {e}"))?;
    let config = net_fire_config(seed, scale);
    let ok = match forestfire::sweep_recoverable(&config, &comm, &store) {
        Ok(None) => true,
        Ok(Some(series)) => {
            let ok = series == forestfire::run_seq(&config);
            std::fs::write(dir.join("net_result.json"), format!("{{\"matches\":{ok}}}"))
                .map_err(|e| format!("result write failed: {e}"))?;
            ok
        }
        Err(MpcError::Crashed { .. }) => {
            // The scheduled kill. Persist this rank's ledger for the
            // driver's post-mortem merge, then die without a word:
            // peers must detect the death from wire silence alone.
            write_ledger(&dir, rank, &injector);
            std::process::abort();
        }
        Err(e) => return Err(format!("recoverable sweep failed: {e}")),
    };

    write_ledger(&dir, rank, &injector);
    flaky.shutdown();
    if ok {
        Ok(())
    } else {
        Err("recovered series does not match the sequential sweep".to_owned())
    }
}

/// The wire study artifact (`artifacts/BENCH_net.json`). Every field is
/// scheduling-independent, so the file is byte-identical across runs
/// with the same seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetReport {
    /// Seed the canonical plan was built from.
    pub seed: u64,
    /// World size (rank processes launched).
    pub world_size: usize,
    /// Patternlets that ran clean over the wire (of 15).
    pub patternlets_ok: usize,
    /// Ranks that died by signal (the scheduled kill), in rank order.
    pub killed_ranks: Vec<usize>,
    /// Ranks still alive at the end.
    pub survivors: usize,
    /// Rank processes that exited with a nonzero status (not signals).
    pub worker_errors: usize,
    /// The merged fault/recovery ledger (deterministic slice).
    pub counters: ChaosCounters,
    /// True when the recovered sweep matched [`forestfire::run_seq`]
    /// bit for bit.
    pub matches_fault_free: bool,
    /// Diagnostics from the offline analysis of the merged patternlet
    /// trace (must be 0).
    pub diagnostics: usize,
}

impl NetReport {
    /// What the CI net job asserts: the suite ran clean, exactly the
    /// scheduled kills happened, every recoverable fault was recovered,
    /// and the sweep's value is exact.
    pub fn passed(&self) -> bool {
        self.patternlets_ok == netsuite::NET_SUITE.len()
            && self.worker_errors == 0
            && self.diagnostics == 0
            && self.killed_ranks.len() as u64 == self.counters.crashes
            && self.counters.all_recovered()
            && self.matches_fault_free
    }

    /// Human-readable rendering for the terminal.
    pub fn render(&self) -> String {
        let c = &self.counters;
        let mut out = format!(
            "Wire study (seed {}, np {}): TCP mesh, real process kill\n",
            self.seed, self.world_size
        );
        out.push_str(&format!(
            "  patternlets over the wire: {}/{} ok; offline analysis: {} diagnostic(s)\n",
            self.patternlets_ok,
            netsuite::NET_SUITE.len(),
            self.diagnostics
        ));
        out.push_str(&format!(
            "  killed by signal: {:?}; survivors {}/{}; worker errors {}\n",
            self.killed_ranks, self.survivors, self.world_size, self.worker_errors
        ));
        out.push_str(&format!(
            "  injected: {} drops, {} crashes — recovered {}/{}\n",
            c.drops, c.crashes, c.recovered, c.recoverable_injected
        ));
        out.push_str(&format!(
            "  checkpoints: {} saved, {} restored; shrinks: {}; exact value: {}\n",
            c.checkpoints_saved, c.checkpoints_restored, c.shrinks, self.matches_fault_free
        ));
        out.push_str(&format!(
            "  verdict: {}\n",
            if self.passed() {
                "survived the kill; all faults recovered; values exact"
            } else {
                "FAILED (unrecovered faults, inexact values, or dirty trace)"
            }
        ));
        out
    }

    /// Deterministic pretty JSON (byte-identical for a fixed seed).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

/// Launch [`NET_NP`] rank processes of `worker_exe` (any binary that
/// dispatches [`WORKER_FLAG`] to [`net_worker`] — `reproduce` does),
/// wait for the run including the scheduled kill and recovery, then
/// merge the per-rank ledgers and traces into a [`NetReport`].
pub fn net_study(seed: u64, scale: Scale, worker_exe: &Path) -> std::io::Result<NetReport> {
    let dir = std::env::temp_dir().join(format!("pdc-net-study-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = LaunchSpec {
        np: NET_NP,
        session: seed ^ 0x4E455453, // "NETS"
        dir: dir.clone(),
        program: worker_exe.to_path_buf(),
        args: vec![
            WORKER_FLAG.to_owned(),
            seed.to_string(),
            scale_name(scale).to_owned(),
        ],
        envs: Vec::new(),
    };
    let exits = launch(&spec)?;

    let killed_ranks: Vec<usize> = exits
        .iter()
        .filter(|e| e.signaled())
        .map(|e| e.rank)
        .collect();
    let worker_errors = exits.iter().filter(|e| !e.ok() && !e.signaled()).count();

    let patternlets_ok = std::fs::read_to_string(dir.join("patternlets.json"))
        .ok()
        .and_then(|s| serde_json::from_str::<Vec<String>>(&s).ok())
        .map(|v| v.iter().filter(|s| s.contains(": ok (")).count())
        .unwrap_or(0);
    let matches_fault_free = std::fs::read_to_string(dir.join("net_result.json"))
        .is_ok_and(|s| s.contains("\"matches\":true"));

    let mut merged = FaultStats::default();
    for r in 0..NET_NP {
        if let Some(stats) = std::fs::read_to_string(dir.join(format!("ledger_rank{r}.json")))
            .ok()
            .and_then(|s| serde_json::from_str::<FaultStats>(&s).ok())
        {
            merged = merged.merged(&stats);
        }
    }

    let mut trace = String::new();
    for r in 0..NET_NP {
        if let Ok(part) = std::fs::read_to_string(dir.join(format!("trace_rank{r}.jsonl"))) {
            trace.push_str(&part);
        }
    }
    let diagnostics = pdc_analyze::comm::analyze_jsonl(&trace).len();

    let _ = std::fs::remove_dir_all(&dir);
    Ok(NetReport {
        seed,
        world_size: NET_NP,
        patternlets_ok,
        killed_ranks: killed_ranks.clone(),
        survivors: NET_NP - killed_ranks.len(),
        worker_errors,
        counters: ChaosCounters::from_stats(&merged),
        matches_fault_free,
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_plan_drops_and_kills_rank_2() {
        let plan = canonical_net_plan(9);
        assert_eq!(plan.seed, 9);
        assert!(plan.drop_rate > 0.0);
        assert_eq!(plan.crashes.len(), 1);
        assert_eq!((plan.crashes[0].rank, plan.crashes[0].step), (2, 2));
        assert!(plan.stragglers.is_empty(), "no stragglers over real time");
    }

    #[test]
    fn fire_config_gives_the_killed_rank_ten_trials() {
        let config = net_fire_config(1, Scale::Quick);
        let total = config.probabilities.len() * config.trials;
        assert_eq!(total, 40);
        let rank2: Vec<usize> = (2..total).step_by(NET_NP).collect();
        assert_eq!(rank2.len(), 10);
        // The crash fires at compute step 2, so exactly keys 2 and 6
        // are checkpointed before the kill.
        assert_eq!(&rank2[..2], &[2, 6]);
    }

    #[test]
    fn scale_names_round_trip() {
        for scale in [Scale::Quick, Scale::Full] {
            assert_eq!(parse_scale(scale_name(scale)), Some(scale));
        }
        assert_eq!(parse_scale("medium"), None);
    }

    #[test]
    fn report_serializes_and_judges() {
        let mut report = NetReport {
            seed: 4,
            world_size: NET_NP,
            patternlets_ok: netsuite::NET_SUITE.len(),
            killed_ranks: vec![2],
            survivors: 3,
            worker_errors: 0,
            counters: ChaosCounters {
                drops: 3,
                partition_drops: 0,
                crashes: 1,
                drops_recovered: 3,
                crashes_recovered: 1,
                recoverable_injected: 4,
                recovered: 4,
                checkpoints_saved: 40,
                checkpoints_restored: 2,
                shrinks: 0,
            },
            matches_fault_free: true,
            diagnostics: 0,
        };
        assert!(report.passed());
        let back: NetReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
        assert!(report.render().contains("survived the kill"));

        report.diagnostics = 1;
        assert!(!report.passed(), "a dirty trace must fail the study");
        report.diagnostics = 0;
        report.killed_ranks.clear();
        assert!(!report.passed(), "a kill that never happened must fail");
    }

    #[test]
    fn run_trial_matches_run_seq_cellwise() {
        let config = net_fire_config(7, Scale::Quick);
        for (pi, &prob) in config.probabilities.iter().enumerate() {
            for t in 0..config.trials {
                let seed = forestfire::trial_seed(config.seed, pi, t);
                assert_eq!(
                    forestfire::run_trial(&config, pi * config.trials + t),
                    forestfire::simulate_fire(config.size, prob, seed),
                    "trial ({pi}, {t})"
                );
            }
        }
        let want = forestfire::run_seq(&config);
        let series = forestfire::series(&config, |k| forestfire::run_trial(&config, k));
        assert_eq!(series, want, "per-trial recomputation must be exact");
    }
}
