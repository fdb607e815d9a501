//! Wire-transport tests: the pdc-net TCP backend driven through the
//! full workspace stack — `World::attach`, the Module B patternlet
//! suite, fault injection, and failure recovery — over real sockets.
//! Each test fakes np processes as np threads, every rank with its own
//! `TcpTransport` joined to a private rendezvous session, so the whole
//! frame/handshake/heartbeat path runs without forking.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pdc_chaos::{FaultInjector, FaultPlan, FaultStats};
use pdc_mpc::{MpcError, Source, TagSel, Transport, World};
use pdc_net::{NetConfig, TcpTransport};
use pdc_patternlets::mp::netsuite;

static SESSION_SALT: AtomicUsize = AtomicUsize::new(0);

/// A scratch dir + session id unique to one test.
fn scratch(name: &str) -> (PathBuf, u64) {
    let salt = SESSION_SALT.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("pdc-net-ws-{name}-{pid}-{salt}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let session = ((pid as u64) << 24) | (0x50 << 16) | salt as u64;
    (dir, session)
}

/// Run `body(rank, transport)` for every rank on its own thread, each
/// with a fresh transport joined to the same session.
fn with_mesh<T: Send + 'static>(
    name: &str,
    np: usize,
    tune: impl Fn(&mut NetConfig) + Sync,
    body: impl Fn(usize, Arc<TcpTransport>) -> T + Sync,
) -> Vec<T> {
    let (dir, session) = scratch(name);
    let rendezvous = dir.join("rendezvous.addr");
    let results: Vec<T> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..np)
            .map(|rank| {
                let rendezvous = rendezvous.clone();
                let tune = &tune;
                let body = &body;
                scope.spawn(move || {
                    let mut cfg = NetConfig::new(rank, np, session, rendezvous);
                    tune(&mut cfg);
                    let transport = TcpTransport::connect(cfg).expect("join");
                    body(rank, transport)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let _ = std::fs::remove_dir_all(&dir);
    results
}

#[test]
fn module_b_suite_runs_over_real_sockets() {
    let outputs = with_mesh(
        "suite",
        4,
        |_| {},
        |_rank, transport| {
            let comm = World::new(4).attach(transport.clone() as Arc<dyn Transport>);
            let summaries = netsuite::run_suite(&comm).unwrap();
            transport.shutdown();
            summaries
        },
    );
    // Rank 0 checked and summarized every patternlet; the other ranks
    // contribute lines but hold no verdicts.
    assert_eq!(outputs[0].len(), netsuite::NET_SUITE.len());
    for summary in &outputs[0] {
        assert!(summary.contains(": ok ("), "unexpected summary {summary:?}");
    }
    for out in &outputs[1..] {
        assert!(out.is_empty());
    }
}

#[test]
fn injected_wire_drops_are_recovered_by_send_reliable() {
    const N: u64 = 30;
    // One injector per rank, as in real multi-process runs — verdicts
    // are per (src, dst) channel counters, so each sender sees its own
    // deterministic fault stream.
    let outputs: Vec<(Vec<u64>, FaultStats)> = with_mesh(
        "drops",
        2,
        |_| {},
        |rank, transport| {
            let injector = Arc::new(FaultInjector::new(FaultPlan::new(21).with_drop_rate(0.4)));
            let comm = World::new(2)
                .with_fault_injector(Arc::clone(&injector))
                .attach(transport.clone() as Arc<dyn Transport>);
            let received = if rank == 0 {
                for i in 0..N {
                    comm.send_reliable(1, 7, &i).unwrap();
                }
                Vec::new()
            } else {
                (0..N)
                    .map(|_| comm.recv::<u64>(Source::Rank(0), TagSel::Tag(7)).unwrap())
                    .collect()
            };
            let stats = injector.stats();
            transport.shutdown();
            (received, stats)
        },
    );
    // Nothing lost, nothing duplicated, order preserved: the sender
    // acks each message before the next leaves.
    assert_eq!(outputs[1].0, (0..N).collect::<Vec<u64>>());
    let sender = &outputs[0].1;
    assert!(
        sender.drops > 0,
        "a 40% plan over 30 sends injected nothing"
    );
    assert_eq!(sender.drops_recovered, sender.drops);
    assert!(sender.all_recovered());
}

#[test]
fn seeded_wire_reorder_plan_cannot_lose_or_invent_messages() {
    // The wire twin of the thread-mode regression in `failure_modes`:
    // three sender processes hammer rank 0 through a plan that reorders
    // (overtake-flagged frames) and delays deliveries. The receiver must
    // see exactly the multiset sent.
    const PER_SENDER: usize = 100;
    let outputs: Vec<(Vec<(usize, usize)>, FaultStats)> = with_mesh(
        "reorder",
        4,
        |_| {},
        |rank, transport| {
            let injector = Arc::new(FaultInjector::new(
                FaultPlan::new(21).with_reorder_rate(0.4).with_delay(0.2, 1),
            ));
            let comm = World::new(4)
                .with_fault_injector(Arc::clone(&injector))
                .attach(transport.clone() as Arc<dyn Transport>);
            let mut got: Vec<(usize, usize)> = Vec::new();
            if rank == 0 {
                for _ in 0..3 * PER_SENDER {
                    let (msg, _) = comm
                        .recv_timeout(Source::Any, TagSel::Any, Duration::from_secs(5))
                        .expect("no message may be lost");
                    got.push(msg);
                }
                got.sort_unstable();
            } else {
                for i in 0..PER_SENDER {
                    comm.send(0, rank as i32, &(rank, i)).unwrap();
                }
            }
            let stats = injector.stats();
            transport.shutdown();
            (got, stats)
        },
    );
    let mut want: Vec<(usize, usize)> = (1..4)
        .flat_map(|r| (0..PER_SENDER).map(move |i| (r, i)))
        .collect();
    want.sort_unstable();
    assert_eq!(outputs[0].0, want);
    let s = outputs
        .iter()
        .fold(FaultStats::default(), |acc, (_, s)| acc.merged(s));
    assert!(
        s.reorders > 0 && s.delays > 0,
        "the plan injected nothing: {s:?}"
    );
}

#[test]
fn severed_wire_rank_shrinks_away_and_the_suite_continues() {
    let fast = |cfg: &mut NetConfig| {
        cfg.heartbeat_interval = Duration::from_millis(20);
        cfg.heartbeat_timeout = Duration::from_millis(400);
    };
    let outputs = with_mesh("sever", 4, fast, |rank, transport| {
        let comm = World::new(4).attach(transport.clone() as Arc<dyn Transport>);
        if rank == 3 {
            // Die without a goodbye — no Bye frame, no crash notice;
            // peers must convict on heartbeat silence alone.
            transport.sever();
            return None;
        }
        let err = comm
            .recv::<u64>(Source::Rank(3), TagSel::Tag(9))
            .unwrap_err();
        assert!(
            matches!(err, MpcError::PeerGone { rank: 3 }),
            "expected PeerGone for rank 3, got {err:?}"
        );
        let alive = comm.shrink().unwrap();
        // The full Module B suite still runs on the shrunk wire world.
        let summaries = netsuite::run_suite(&alive).unwrap();
        transport.shutdown();
        Some((alive.size(), summaries.len()))
    });
    assert_eq!(outputs[3], None, "the severed rank unwound");
    assert_eq!(outputs[0], Some((3, netsuite::NET_SUITE.len())));
    assert_eq!(outputs[1], Some((3, 0)));
    assert_eq!(outputs[2], Some((3, 0)));
}
