//! The labs: one pass over a workload's exemplar/patternlet mix through
//! the public entry points, checked against the sequential references.
//!
//! Every call into a layer sits inside a `bench` span. Spans are inert
//! unless tracing is on, so the untraced runs pay one relaxed load each.

use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pdc_exemplars::{
    drugdesign, forestfire, heat, integration, DrugConfig, DrugResult, FireConfig, FirePoint,
    HeatConfig,
};
use pdc_mpc::{Comm, Transport, World};
use pdc_patternlets::mp::netsuite::{NetPatternlet, NET_SUITE};
use pdc_shmem::{Schedule, Team};

use crate::wire;

/// Ranks and team threads in every workload (the host has two cores).
pub const NP: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Module A exemplars on a `Team::new(2)`.
    ModuleA,
    /// Module B exemplars and the patternlet suite on thread-mode worlds.
    ModuleBThreads,
    /// The Module B patternlet suite over a pdc-net loopback mesh.
    ModuleBWire,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ModuleA,
        Workload::ModuleBThreads,
        Workload::ModuleBWire,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ModuleA => "moduleA-shmem",
            Workload::ModuleBThreads => "moduleB-threads",
            Workload::ModuleBWire => "moduleB-wire",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// splitmix64: derives the exemplar config seeds from `--seed`.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Exemplar inputs. The seed picks the ligands and the fires; the rod
/// and the π integral are fixed.
pub struct Inputs {
    pub heat: HeatConfig,
    pub drug: DrugConfig,
    pub fire: FireConfig,
    pub pi_n: usize,
}

impl Inputs {
    pub fn from_seed(seed: u64) -> Inputs {
        Inputs {
            heat: HeatConfig {
                cells: 64,
                steps: 150,
                ..HeatConfig::default()
            },
            drug: DrugConfig {
                num_ligands: 1500,
                max_len: 6,
                seed: mix(seed, 1),
                ..DrugConfig::default()
            },
            fire: FireConfig {
                size: 24,
                trials: 40,
                seed: mix(seed, 2),
                ..FireConfig::default()
            },
            pi_n: 2_000_000,
        }
    }
}

/// The sequential answers every lab must reproduce.
pub struct Refs {
    heat: Vec<f64>,
    drug: DrugResult,
    fire: Vec<FirePoint>,
    pi: f64,
}

impl Refs {
    pub fn compute(inputs: &Inputs) -> Refs {
        Refs {
            heat: heat::run_seq(&inputs.heat),
            drug: drugdesign::run_seq(&inputs.drug),
            fire: forestfire::run_seq(&inputs.fire),
            pi: integration::trapezoid_seq(integration::pi_integrand, 0.0, 1.0, inputs.pi_n).value,
        }
    }

    /// Heat, drug design and forest fire must match bit for bit; the π
    /// sum is reassociated across threads, so it gets 1e-10.
    fn check(
        &self,
        heat: &[f64],
        drug: &DrugResult,
        fire: &[FirePoint],
        pi: f64,
    ) -> Result<(), String> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        if bits(heat) != bits(&self.heat) {
            return Err("heat: rod differs from run_seq".into());
        }
        if *drug != self.drug {
            return Err(format!("drug: {drug:?} != run_seq {:?}", self.drug));
        }
        if fire != self.fire.as_slice() {
            return Err("fire: sweep differs from run_seq".into());
        }
        if (pi - self.pi).abs() >= 1e-10 {
            return Err(format!("pi: {pi} vs run_seq {}", self.pi));
        }
        Ok(())
    }
}

/// Inputs and references for one seed.
pub struct Lab {
    pub inputs: Inputs,
    refs: Refs,
}

impl Lab {
    pub fn new(seed: u64) -> Lab {
        let inputs = Inputs::from_seed(seed);
        let refs = Refs::compute(&inputs);
        Lab { inputs, refs }
    }
}

/// Run `f` inside a `bench` span named after the entry point.
fn entry<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = pdc_trace::span("bench", name);
    f()
}

fn lab_shmem(team: &Team, lab: &Lab) -> Result<(), String> {
    let inp = &lab.inputs;
    let heat = entry("heat_shmem", || heat::run_shmem(&inp.heat, team));
    let drug = entry("drug_shmem", || {
        drugdesign::run_shmem(&inp.drug, team, Schedule::Dynamic { chunk: 1 })
    });
    let fire = entry("fire_shmem", || forestfire::run_shmem(&inp.fire, team));
    let pi = entry("pi_shmem", || {
        integration::trapezoid_shmem(integration::pi_integrand, 0.0, 1.0, inp.pi_n, team).value
    });
    lab.refs.check(&heat, &drug, &fire, pi)
}

fn lab_mpc(lab: &Lab) -> Result<(), String> {
    let inp = &lab.inputs;
    let heat = entry("heat_mpc", || heat::run_mpc(&inp.heat, NP));
    let drug = entry("drug_mpc", || drugdesign::run_mpc(&inp.drug, NP));
    let fire = entry("fire_mpc", || forestfire::run_mpc(&inp.fire, NP));
    let pi = entry("pi_mpc", || {
        integration::trapezoid_mpc(integration::pi_integrand, 0.0, 1.0, inp.pi_n, NP).value
    });
    lab.refs.check(&heat, &drug, &fire, pi)?;
    entry("suite", || World::new(NP).run(|comm| suite_pass(&comm)))
        .into_iter()
        .collect()
}

/// The Module B patternlet suite minus `mp.deadlock`, whose fixed 100 ms
/// receive timeout would swamp the lab.
pub fn suite() -> impl Iterator<Item = &'static NetPatternlet> {
    NET_SUITE.iter().filter(|p| p.id != "mp.deadlock")
}

fn rank_span(name: &'static str, comm: &Comm) -> pdc_trace::SpanGuard {
    let mut span = pdc_trace::span("bench", name);
    span.arg("rank", comm.rank());
    span
}

/// One pass of the suite on a borrowed comm: body, gather, check at rank
/// 0, barrier. A failed check does not stop the pass, so the peer never
/// waits on a rank that left early.
pub fn suite_pass(comm: &Comm) -> Result<(), String> {
    let _pass = rank_span("suite_pass", comm);
    let mut first_failure = None;
    for p in suite() {
        let lines = (p.body)(comm);
        let gathered = {
            let _g = rank_span("suite_gather", comm);
            comm.gather(0, lines)
        }
        .map_err(|e| format!("{}: gather failed: {e}", p.id))?;
        if let Some(per_rank) = gathered {
            if let Err(e) = (p.check)(comm.size(), &per_rank) {
                first_failure.get_or_insert(e);
            }
        }
        {
            let _b = rank_span("suite_barrier", comm);
            comm.barrier()
        }
        .map_err(|e| format!("{}: barrier failed: {e}", p.id))?;
    }
    first_failure.map_or(Ok(()), Err)
}

enum Cmd {
    Lab,
    Shutdown,
}

/// Rank 1 of a wire mesh, parked on a helper thread that runs one suite
/// pass per `Cmd::Lab`.
pub struct Peer {
    go: mpsc::Sender<Cmd>,
    done: mpsc::Receiver<Result<(), String>>,
    thread: JoinHandle<()>,
}

impl Peer {
    fn spawn(rank: wire::Rank) -> Peer {
        let (go, go_rx) = mpsc::channel();
        let (done_tx, done) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            while let Ok(Cmd::Lab) = go_rx.recv() {
                let result = suite_pass(&rank.comm);
                // Rank 0 drains the trace after each lab; hand over ours.
                pdc_trace::flush_thread();
                if done_tx.send(result).is_err() {
                    break;
                }
            }
            rank.transport.shutdown();
            pdc_trace::flush_thread();
        });
        Peer { go, done, thread }
    }
}

/// A workload ready to run labs, built by [`setup`].
pub enum Rig<'a> {
    Shmem { team: Team, lab: &'a Lab },
    Threads { lab: &'a Lab },
    Wire { rank0: wire::Rank, peer: Peer },
}

impl Rig<'_> {
    /// One closed-loop lab: issued, run to completion and checked.
    pub fn run_lab(&mut self) -> Result<(), String> {
        match self {
            Rig::Shmem { team, lab } => lab_shmem(team, lab),
            Rig::Threads { lab } => lab_mpc(lab),
            Rig::Wire { rank0, peer } => {
                peer.go
                    .send(Cmd::Lab)
                    .map_err(|_| "rank 1 thread is gone")?;
                let mine = suite_pass(&rank0.comm);
                let theirs = peer.done.recv().map_err(|_| "rank 1 thread is gone")?;
                mine.and(theirs)
            }
        }
    }

    /// Stop the rig's threads and sockets and wait for them to end.
    pub fn teardown(self) {
        if let Rig::Wire { rank0, peer } = self {
            let _ = peer.go.send(Cmd::Shutdown);
            rank0.transport.shutdown();
            peer.thread.join().expect("rank 1 thread");
        }
    }
}

/// Timed set-ups per run; the reported `setup_s` is their median.
pub fn setup_reps(workload: Workload) -> usize {
    match workload {
        Workload::ModuleBWire => 7,
        _ => 101,
    }
}

/// Build the workload `reps` times, timing each build until it is ready
/// for its first lab: Team construction plus its first region, World
/// construction plus its first spawn, or rendezvous plus mesh plus
/// attach. Keeps the last build as the rig.
pub fn setup<'a>(
    workload: Workload,
    lab: &'a Lab,
    scratch: &std::path::Path,
    reps: usize,
) -> (Vec<Duration>, Rig<'a>) {
    let mut times = Vec::with_capacity(reps);
    let mut timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        times.push(t.elapsed());
    };
    let rig = match workload {
        Workload::ModuleA => {
            let mut team = None;
            for _ in 0..reps {
                timed(&mut || {
                    let t = Team::new(NP);
                    t.parallel(|_| {});
                    team = Some(t);
                });
            }
            Rig::Shmem {
                team: team.expect("at least one set-up"),
                lab,
            }
        }
        Workload::ModuleBThreads => {
            for _ in 0..reps {
                timed(&mut || {
                    World::new(NP).run(|_| ());
                });
            }
            Rig::Threads { lab }
        }
        Workload::ModuleBWire => {
            let mut mesh = None;
            for _ in 0..reps {
                if let Some(old) = mesh.take() {
                    wire::shutdown(&old);
                }
                timed(&mut || mesh = Some(wire::form(scratch, |_| {})));
            }
            let [rank0, rank1] = mesh.expect("at least one set-up");
            Rig::Wire {
                rank0,
                peer: Peer::spawn(rank1),
            }
        }
    };
    (times, rig)
}
