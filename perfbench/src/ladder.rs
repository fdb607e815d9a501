//! Per-layer probes, run untraced on a persistent Team, World or mesh,
//! each call timed from outside by the benchmark. Two-rank probes run the
//! same fixed sequence on both ranks and report rank 0's median.

use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use pdc_mpc::{ops, CollectiveAlgo, Comm, MpcError, Source, TagSel, Transport, World};
use pdc_shmem::{parallel_for, Schedule, Team};
use serde::de::DeserializeOwned;
use serde::Serialize;

use pdc_exemplars::{drugdesign, forestfire, heat, integration};

use crate::labs::{suite_pass, Lab, NP};
use crate::report::Metrics;
use crate::stats::{median, ms, p50_us, us};
use crate::wire;

/// Probe outcomes: a probe whose answer is wrong counts as a failure.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// pdc-shmem: fork-join, one `parallel_for` per schedule over a
/// heat-sized range, and a barrier crossing.
pub fn shmem(m: &mut Metrics, cells: usize) {
    let team = Team::new(NP);
    m.put(
        "shmem.region_us",
        p50_us(2000, || team.parallel(|_| {})),
        "us",
    );
    let schedules = [
        ("shmem.for_static_us", Schedule::Static { chunk: None }),
        ("shmem.for_dynamic_us", Schedule::Dynamic { chunk: 1 }),
        ("shmem.for_guided_us", Schedule::Guided { min_chunk: 1 }),
    ];
    for (name, schedule) in schedules {
        let t = p50_us(2000, || {
            parallel_for(&team, 0..cells, schedule, |i, _| {
                black_box(i);
            })
        });
        m.put(name, t, "us");
    }
    let crossings = team.parallel_map(|ctx| {
        (0..5000)
            .map(|_| {
                let t = Instant::now();
                ctx.barrier();
                us(t.elapsed())
            })
            .collect::<Vec<f64>>()
    });
    m.put("shmem.barrier_us", median(&crossings[0]), "us");
}

/// Round trips of `value`: rank 0 sends, rank 1 echoes. Returns rank 0's
/// median in µs and whether every echo came back intact.
fn rtt_typed<T>(comm: &Comm, reps: usize, value: &T) -> (f64, bool)
where
    T: Serialize + DeserializeOwned + PartialEq,
{
    let mut samples = Vec::with_capacity(reps);
    let mut ok = true;
    for _ in 0..reps {
        if comm.rank() == 0 {
            let t = Instant::now();
            comm.send(1, 0, value).expect("typed send");
            let back: T = comm.recv(1, 0).expect("typed echo");
            samples.push(us(t.elapsed()));
            ok &= back == *value;
        } else {
            let v: T = comm.recv(0, 0).expect("typed recv");
            comm.send(0, 0, &v).expect("typed echo send");
        }
    }
    (median(&samples), ok)
}

/// [`rtt_typed`] for a raw byte payload of `len` bytes.
fn rtt_raw(comm: &Comm, reps: usize, len: usize) -> (f64, bool) {
    let payload = Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let mut samples = Vec::with_capacity(reps);
    let mut ok = true;
    for _ in 0..reps {
        if comm.rank() == 0 {
            let t = Instant::now();
            comm.send_bytes(1, 0, payload.clone()).expect("raw send");
            let (back, _) = comm.recv_bytes(1, 0).expect("raw echo");
            samples.push(us(t.elapsed()));
            ok &= back[..] == payload[..];
        } else {
            let (v, _) = comm.recv_bytes(0, 0).expect("raw recv");
            comm.send_bytes(0, 0, v).expect("raw echo send");
        }
    }
    (median(&samples), ok)
}

/// Barrier-separated calls of `op`, timed at rank 0. `op` reports
/// whether its answer was right.
fn collective(comm: &Comm, reps: usize, op: impl Fn(&Comm) -> bool) -> (f64, bool) {
    let mut samples = Vec::with_capacity(reps);
    let mut ok = true;
    for _ in 0..reps {
        comm.barrier().expect("separating barrier");
        let t = Instant::now();
        ok &= op(comm);
        samples.push(us(t.elapsed()));
    }
    (median(&samples), ok)
}

fn halo_sendrecv(comm: &Comm) -> bool {
    let peer = 1 - comm.rank();
    let (got, _) = comm
        .sendrecv::<Option<f64>, Option<f64>>(peer, 0, &Some(comm.rank() as f64), peer, 0)
        .expect("sendrecv");
    got == Some(peer as f64)
}

fn bcast(comm: &Comm) -> bool {
    comm.bcast(0, (comm.rank() == 0).then_some(42u64))
        .expect("bcast")
        == 42
}

fn gather(comm: &Comm) -> bool {
    let got = comm.gather(0, comm.rank() as u64).expect("gather");
    match got {
        Some(all) => all == (0..comm.size() as u64).collect::<Vec<_>>(),
        None => comm.rank() != 0,
    }
}

fn allreduce(comm: &Comm) -> bool {
    let n = comm.size() as u64;
    comm.allreduce(comm.rank() as u64 + 1, ops::sum)
        .expect("allreduce")
        == n * (n + 1) / 2
}

fn barrier(comm: &Comm) -> bool {
    comm.barrier().is_ok()
}

/// A collective call that reports whether its answer was right.
type Collective = fn(&Comm) -> bool;

/// One named two-rank probe result.
type Probe = (&'static str, f64, bool);

fn mpc_probes(comm: &Comm) -> Vec<Probe> {
    let mut out = Vec::new();
    let mut add = |name, (t, ok): (f64, bool)| out.push((name, t, ok));
    add("mpc.rtt_typed_u64_us", rtt_typed(comm, 1000, &7u64));
    add("mpc.sendrecv_us", collective(comm, 1000, halo_sendrecv));
    add("mpc.bcast_us", collective(comm, 500, bcast));
    add("mpc.gather_us", collective(comm, 500, gather));
    add("mpc.allreduce_us", collective(comm, 500, allreduce));
    add("mpc.barrier_us", collective(comm, 500, barrier));
    let block: Vec<f64> = (0..4096).map(|i| i as f64 * 0.5).collect();
    add("mpc.rtt_typed_f64x4096_us", rtt_typed(comm, 15, &block));
    add("mpc.rtt_raw_32k_us", rtt_raw(comm, 300, 32 * 1024));
    out
}

fn net_probes(comm: &Comm) -> Vec<Probe> {
    let mut out = Vec::new();
    let mut add = |name, (t, ok): (f64, bool)| out.push((name, t, ok));
    add("net.rtt_typed_u64_us", rtt_typed(comm, 300, &7u64));
    add("net.rtt_raw_32k_us", rtt_raw(comm, 200, 32 * 1024));
    add("net.gather_us", collective(comm, 300, gather));
    add("net.barrier_us", collective(comm, 300, barrier));
    out
}

fn put_probes(m: &mut Metrics, checks: &mut Checks, probes: &[Probe]) {
    for &(name, t, ok) in probes {
        m.put(name, t, "us");
        checks.expect(ok, || format!("{name}: wrong answer"));
    }
}

/// pdc-mpc in thread mode: world spawn, point-to-point and collectives
/// on one persistent two-rank world.
pub fn mpc(m: &mut Metrics, checks: &mut Checks) {
    let spawn = p50_us(300, || {
        World::new(NP).run(|_| ());
    });
    m.put("mpc.world_spawn_us", spawn, "us");
    let probes = World::new(NP).run(|comm| mpc_probes(&comm)).swap_remove(0);
    put_probes(m, checks, &probes);
    let time = |name: &str| probes.iter().find(|p| p.0 == name).map_or(0.0, |p| p.1);
    let ratio = time("mpc.rtt_typed_f64x4096_us") / time("mpc.rtt_raw_32k_us");
    m.put("mpc.typed_over_raw", ratio, "ratio");
}

/// Exact message and byte counts from `World::run_traced`: one suite pass
/// at np = 2, and bcast/allreduce at np = 2, 4, 8 with both algorithms.
/// Counts only: with more ranks than cores, wall time says nothing.
pub fn traffic(m: &mut Metrics, checks: &mut Checks) {
    let (results, tm) = World::new(NP).run_traced(|comm| suite_pass(&comm));
    checks.expect(results.iter().all(Result::is_ok), || {
        format!("traffic suite pass: {results:?}")
    });
    m.put("mpc.suite_msgs", tm.total_messages() as f64, "count");
    m.put("mpc.suite_bytes", tm.total_bytes() as f64, "B");
    let ops: [(&str, Collective); 2] = [("bcast", bcast), ("allreduce", allreduce)];
    for (op, f) in ops {
        for np in [2, 4, 8] {
            for (algo, label) in [
                (CollectiveAlgo::BinomialTree, "tree"),
                (CollectiveAlgo::Linear, "linear"),
            ] {
                let (oks, tm) = World::new(np).with_algo(algo).run_traced(|comm| f(&comm));
                checks.expect(oks.iter().all(|&ok| ok), || format!("{op} np={np} {label}"));
                m.put(
                    format!("mpc.{op}_msgs_np{np}_{label}"),
                    tm.total_messages() as f64,
                    "count",
                );
            }
        }
    }
}

/// pdc-net over loopback TCP: point-to-point and collectives on one
/// persistent mesh with the default heartbeat timing.
pub fn net(m: &mut Metrics, checks: &mut Checks, scratch: &std::path::Path) {
    let mesh = wire::form(scratch, |_| {});
    let probes = std::thread::scope(|s| {
        let peer = s.spawn(|| net_probes(&mesh[1].comm));
        let mine = net_probes(&mesh[0].comm);
        peer.join().expect("rank 1 probes");
        mine
    });
    wire::shutdown(&mesh);
    put_probes(m, checks, &probes);
}

/// Failure detection with the fast heartbeat timing (20 ms / 400 ms):
/// time from rank 1's `sever()` until rank 0's blocked `recv` returns
/// `PeerGone`.
pub fn convict(m: &mut Metrics, checks: &mut Checks, scratch: &std::path::Path) {
    let [rank0, rank1] = wire::form(scratch, wire::fast_heartbeats);
    let (severed_tx, severed_rx) = mpsc::channel();
    let (outcome, done) = std::thread::scope(|s| {
        s.spawn(move || {
            // Give rank 0 time to block in its receive first.
            std::thread::sleep(Duration::from_millis(50));
            let at = Instant::now();
            rank1.transport.sever();
            severed_tx.send(at).expect("report the sever time");
        });
        let outcome = rank0.comm.recv::<u64>(Source::Rank(1), TagSel::Tag(9));
        (outcome, Instant::now())
    });
    let severed_at = severed_rx.recv().expect("sever time");
    rank0.transport.shutdown();
    let gone = matches!(outcome, Err(MpcError::PeerGone { rank: 1 }));
    checks.expect(gone, || {
        format!("convict: expected PeerGone, got {outcome:?}")
    });
    m.put(
        "net.convict_ms",
        ms(done.saturating_duration_since(severed_at)),
        "ms",
    );
}

/// The single-threaded baselines for this seed's inputs, median of five
/// calls each, in heat/drug/fire/pi order.
pub fn seq_ms(lab: &Lab) -> [f64; 4] {
    let inp = &lab.inputs;
    let time = |f: &dyn Fn()| p50_us(5, f) / 1e3;
    [
        time(&|| {
            black_box(heat::run_seq(&inp.heat));
        }),
        time(&|| {
            black_box(drugdesign::run_seq(&inp.drug));
        }),
        time(&|| {
            black_box(forestfire::run_seq(&inp.fire));
        }),
        time(&|| {
            black_box(integration::trapezoid_seq(
                integration::pi_integrand,
                0.0,
                1.0,
                inp.pi_n,
            ));
        }),
    ]
}
