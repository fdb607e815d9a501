//! The world: process launch and the shared message fabric.
//!
//! [`World`] is the `mpirun` analog: configure the number of processes
//! (and optionally hostnames and collective algorithm), then [`World::run`]
//! a rank closure on every process, collecting per-rank return values.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pdc_chaos::{FaultInjector, FaultPlan, RetryPolicy};

use crate::analysis::{self, RunRecorder};
use crate::collectives::CollectiveAlgo;
use crate::comm::Comm;
use crate::failure::DeadSet;
use crate::mailbox::{Mailbox, SharedMailbox};
use crate::transport::{AckTable, Transport, WireHandle};

/// Default internal timeout for collectives: generous enough that a
/// healthy classroom run never trips it, but a mismatched collective
/// (one rank never arrives) returns `MpcError::Timeout` instead of
/// hanging the process forever.
pub const DEFAULT_COLLECTIVE_TIMEOUT: Duration = Duration::from_secs(30);

/// How a fabric's messages travel between ranks.
pub(crate) enum Route {
    /// All ranks are threads in this process: one mailbox per world
    /// rank, a send is a deposit into the destination's mailbox.
    Threads(Vec<SharedMailbox>),
    /// This process hosts exactly one world rank; every other rank is
    /// reached through a wire [`Transport`]. Inbound traffic lands in
    /// the single local mailbox via [`WireHandle::deliver`].
    Wire {
        local: SharedMailbox,
        transport: Arc<dyn Transport>,
    },
}

/// Shared communication state: the message route plus the
/// communicator-id allocator. Internal; reachable only through [`Comm`].
pub(crate) struct Fabric {
    pub(crate) route: Route,
    pub(crate) hostnames: Vec<String>,
    pub(crate) algo: CollectiveAlgo,
    pub(crate) injector: Option<Arc<FaultInjector>>,
    pub(crate) dead: DeadSet,
    pub(crate) collective_timeout: Duration,
    pub(crate) retry: RetryPolicy,
    /// The run's op stream: present in a [`World::run_traced`] run and in
    /// a run inside [`analysis::record_into`].
    pub(crate) recorder: Option<RunRecorder>,
    pub(crate) acks: AckTable,
    /// Spin budget of this fabric's mailboxes and sync latches: nonzero
    /// only for thread-mode worlds with a core per rank (see the
    /// `mailbox` module doc).
    pub(crate) spin: Duration,
    next_comm_id: AtomicU64,
}

impl Fabric {
    /// Reserve `n` consecutive communicator ids; returns the first.
    pub(crate) fn alloc_comm_ids(&self, n: u64) -> u64 {
        self.next_comm_id.fetch_add(n, Ordering::Relaxed)
    }

    /// The mailbox this process receives on for `world_rank`. A wire
    /// fabric hosts exactly one rank, so there is exactly one answer.
    pub(crate) fn local_mailbox(&self, world_rank: usize) -> &SharedMailbox {
        match &self.route {
            Route::Threads(mailboxes) => &mailboxes[world_rank],
            Route::Wire { local, transport } => {
                debug_assert_eq!(
                    world_rank,
                    transport.rank(),
                    "a wire fabric hosts exactly one rank"
                );
                local
            }
        }
    }

    /// The wire transport, when this fabric is socket-backed.
    pub(crate) fn transport(&self) -> Option<&Arc<dyn Transport>> {
        match &self.route {
            Route::Wire { transport, .. } => Some(transport),
            Route::Threads(_) => None,
        }
    }
}

/// Launch configuration for a message-passing computation — the
/// `mpirun -np N` analog.
///
/// ```
/// use pdc_mpc::World;
///
/// let ranks: Vec<usize> = World::new(3).run(|comm| comm.rank());
/// assert_eq!(ranks, vec![0, 1, 2]);
/// ```
#[derive(Clone)]
pub struct World {
    np: usize,
    hostnames: Vec<String>,
    algo: CollectiveAlgo,
    injector: Option<Arc<FaultInjector>>,
    collective_timeout: Duration,
    retry: RetryPolicy,
}

impl World {
    /// A world of `np` processes (threads), all on one simulated host
    /// named `localhost` — like `mpirun` on a single machine.
    pub fn new(np: usize) -> Self {
        assert!(np >= 1, "need at least one process");
        Self {
            np,
            hostnames: vec!["localhost".to_owned(); np],
            algo: CollectiveAlgo::default(),
            injector: None,
            collective_timeout: DEFAULT_COLLECTIVE_TIMEOUT,
            retry: RetryPolicy::default(),
        }
    }

    /// Number of processes.
    pub fn np(&self) -> usize {
        self.np
    }

    /// Set every rank's reported processor name (the paper's Colab
    /// example reports the container hostname `d6ff4f902ed6` for all 4
    /// ranks; a cluster run reports one name per node).
    pub fn with_hostname(mut self, name: &str) -> Self {
        self.hostnames = vec![name.to_owned(); self.np];
        self
    }

    /// Set per-rank processor names; `names.len()` must equal `np`.
    pub fn with_hostnames(mut self, names: Vec<String>) -> Self {
        assert_eq!(names.len(), self.np, "one hostname per rank");
        self.hostnames = names;
        self
    }

    /// Choose the collective algorithm (default: binomial tree).
    pub fn with_algo(mut self, algo: CollectiveAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// Run under a fault plan: arm a fresh [`FaultInjector`] for `plan`
    /// and apply it at the send/recv chokepoint. See `pdc-chaos`.
    pub fn with_faults(self, plan: FaultPlan) -> Self {
        self.with_fault_injector(Arc::new(FaultInjector::new(plan)))
    }

    /// Run under an already-armed injector that the caller shares with
    /// the rest of the run, so one fault ledger records all of it: a
    /// `pdc_chaos::ChaosContext`'s checkpoint store logs its saves and
    /// restores into the same injector, and the wire study switches its
    /// message faults between phases (`FaultInjector::set_send_faults`).
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Override the internal collective timeout
    /// ([`DEFAULT_COLLECTIVE_TIMEOUT`]). A mismatched collective returns
    /// `MpcError::Timeout` after this long instead of hanging.
    pub fn with_collective_timeout(mut self, timeout: Duration) -> Self {
        self.collective_timeout = timeout;
        self
    }

    /// Override the retry schedule `Comm::send_reliable` uses.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Run `body` on every rank, each on its own OS thread, passing the
    /// world communicator. Returns every rank's result, in rank order —
    /// `mpirun -np N`, with the process's exit values collected. Inside
    /// [`analysis::record_into`] on the calling thread, every rank's
    /// operations are recorded into that log.
    ///
    /// Panics in any rank propagate after all ranks have been joined or
    /// abandoned, mirroring `mpirun`'s job abort. **Caveat** (as with
    /// real MPI jobs): a rank that dies while peers block in `recv` on
    /// it leaves those peers waiting forever — the join-in-rank-order
    /// teardown then hangs rather than aborting. Use the `*_timeout`
    /// receive variants in code that must survive peer failure.
    pub fn run<F, T>(&self, body: F) -> Vec<T>
    where
        F: Fn(Comm) -> T + Sync,
        T: Send,
    {
        let recorder = analysis::scoped_log().map(|log| RunRecorder::new(self.np, Some(log)));
        self.run_inner(body, recorder).0
    }

    /// Like [`World::run`], but with message-traffic tracing enabled:
    /// also returns the per-(sender, receiver) message/byte counts,
    /// including the runtime's internal collective traffic.
    pub fn run_traced<F, T>(&self, body: F) -> (Vec<T>, crate::traffic::TrafficMatrix)
    where
        F: Fn(Comm) -> T + Sync,
        T: Send,
    {
        let recorder = RunRecorder::new(self.np, analysis::scoped_log());
        let (results, traffic) = self.run_inner(body, Some(recorder));
        (results, traffic.expect("a traced run has a recorder"))
    }

    /// Attach this OS process to a wire [`Transport`] as one rank of a
    /// distributed world — the socket-backed counterpart of
    /// [`World::run`]. Where `run` spawns `np` threads and returns when
    /// they all finish, `attach` returns the world communicator for the
    /// *one* rank this process hosts; the other `np - 1` ranks are
    /// other OS processes reached over the wire.
    ///
    /// Builder configuration carries over: collective algorithm and
    /// timeout, retry policy, and the fault injector, whose message
    /// faults the send chokepoint applies to frames just as it does to
    /// thread-mode deposits. Hostnames come from the transport. Online
    /// analysis is thread-mode only (a per-process recorder would see a
    /// torn view of the world); wire runs use the offline JSONL pass
    /// instead.
    ///
    /// The caller keeps ownership of the transport and is responsible
    /// for [`Transport::shutdown`] when the rank is done.
    pub fn attach(&self, transport: Arc<dyn Transport>) -> Comm {
        assert_eq!(
            self.np,
            transport.size(),
            "transport world size must match World::new(np)"
        );
        let rank = transport.rank();
        assert!(rank < self.np, "transport rank out of range");
        let hostnames = transport.hostnames();
        assert_eq!(hostnames.len(), self.np, "one hostname per rank");
        let fabric = Arc::new(Fabric {
            route: Route::Wire {
                local: Arc::new(Mailbox::new()),
                transport: Arc::clone(&transport),
            },
            hostnames,
            algo: self.algo,
            injector: self.injector.clone(),
            dead: DeadSet::new(),
            collective_timeout: self.collective_timeout,
            retry: self.retry,
            recorder: None,
            acks: AckTable::default(),
            // Wire ranks never spin: the transport's readers need the same
            // CPUs (see the `mailbox` module doc).
            spin: Duration::ZERO,
            next_comm_id: AtomicU64::new(1),
        });
        transport.start(WireHandle::new(Arc::clone(&fabric)));
        pdc_trace::instant(
            "mpc",
            "world_attach",
            vec![("rank", rank.into()), ("np", self.np.into())],
        );
        Comm {
            fabric,
            comm_id: 0,
            group: Arc::new((0..self.np).collect()),
            rank,
        }
    }

    /// Run `body` on `np` rank threads; with a `recorder`, also return
    /// the run's traffic.
    fn run_inner<F, T>(
        &self,
        body: F,
        recorder: Option<RunRecorder>,
    ) -> (Vec<T>, Option<crate::traffic::TrafficMatrix>)
    where
        F: Fn(Comm) -> T + Sync,
        T: Send,
    {
        let spin = pdc_shmem::sync::spin_budget(self.np);
        let fabric = Arc::new(Fabric {
            route: Route::Threads(
                (0..self.np)
                    .map(|_| Arc::new(Mailbox::with_spin(spin)))
                    .collect(),
            ),
            hostnames: self.hostnames.clone(),
            algo: self.algo,
            injector: self.injector.clone(),
            dead: DeadSet::new(),
            collective_timeout: self.collective_timeout,
            retry: self.retry,
            recorder,
            acks: AckTable::default(),
            spin,
            next_comm_id: AtomicU64::new(1),
        });
        let group: Arc<Vec<usize>> = Arc::new((0..self.np).collect());

        let mut run_span = pdc_trace::span("mpc", "world_run");
        run_span.arg("np", self.np);
        let mut results: Vec<Option<T>> = (0..self.np).map(|_| None).collect();
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(self.np);
            for (rank, slot) in results.iter_mut().enumerate() {
                let fabric = Arc::clone(&fabric);
                let group = Arc::clone(&group);
                let body = &body;
                handles.push(s.spawn(move || {
                    if pdc_trace::is_enabled() {
                        pdc_trace::set_thread_label(format!("rank {rank}"));
                    }
                    let mut rank_span = pdc_trace::span("mpc", "rank");
                    rank_span.arg("rank", rank);
                    let comm = Comm {
                        fabric,
                        comm_id: 0,
                        group,
                        rank,
                    };
                    *slot = Some(body(comm));
                    // Close the span, then park this rank's buffered
                    // events: the scoped join only waits for the closure,
                    // not for TLS destructors, so a drop-time flush could
                    // race a post-join drain().
                    drop(rank_span);
                    pdc_trace::flush_thread();
                }));
            }
            for h in handles {
                if let Err(e) = h.join() {
                    std::panic::resume_unwind(e);
                }
            }
        });
        let traffic = fabric.recorder.as_ref().map(RunRecorder::finish);
        (
            results
                .into_iter()
                .map(|r| r.expect("every rank produced a result"))
                .collect(),
            traffic,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{Source, TagSel};
    use crate::error::MpcError;
    use std::time::Duration;

    #[test]
    fn spmd_ranks_and_sizes() {
        let out = World::new(4).run(|c| (c.rank(), c.size()));
        assert_eq!(out, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn processor_names_default_and_custom() {
        let names = World::new(2).run(|c| c.processor_name().to_owned());
        assert_eq!(names, vec!["localhost", "localhost"]);
        let names = World::new(2)
            .with_hostname("d6ff4f902ed6")
            .run(|c| c.processor_name().to_owned());
        assert_eq!(names, vec!["d6ff4f902ed6", "d6ff4f902ed6"]);
        let names = World::new(2)
            .with_hostnames(vec!["node0".into(), "node1".into()])
            .run(|c| c.processor_name().to_owned());
        assert_eq!(names, vec!["node0", "node1"]);
    }

    #[test]
    fn send_recv_ring() {
        // Each rank sends its rank to the next; receives from the previous.
        let out = World::new(5).run(|c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 0, &c.rank()).unwrap();
            let got: usize = c.recv(prev, 0).unwrap();
            got
        });
        assert_eq!(out, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn messages_not_overtaken() {
        let out = World::new(2).run(|c| {
            if c.rank() == 0 {
                for i in 0..100 {
                    c.send(1, 7, &i).unwrap();
                }
                Vec::new()
            } else {
                (0..100)
                    .map(|_| c.recv::<i32>(0, 7).unwrap())
                    .collect::<Vec<_>>()
            }
        });
        assert_eq!(out[1], (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn any_source_any_tag() {
        let out = World::new(3).run(|c| {
            if c.rank() == 0 {
                let mut seen = Vec::new();
                for _ in 0..2 {
                    let (v, st) = c.recv_status::<String>(Source::Any, TagSel::Any).unwrap();
                    seen.push((st.source, st.tag, v));
                }
                seen.sort();
                seen
            } else {
                c.send(0, c.rank() as i32 * 10, &format!("hi from {}", c.rank()))
                    .unwrap();
                Vec::new()
            }
        });
        assert_eq!(
            out[0],
            vec![
                (1, 10, "hi from 1".to_owned()),
                (2, 20, "hi from 2".to_owned())
            ]
        );
    }

    #[test]
    fn deadlock_detected_by_timeout() {
        // Both ranks receive before sending: the deadlock patternlet.
        let out = World::new(2).run(|c| {
            let peer = 1 - c.rank();
            let r: Result<(u32, _), _> = c.recv_timeout(peer, 0, Duration::from_millis(50));
            r.err()
        });
        for e in out {
            assert!(matches!(e, Some(MpcError::Timeout { .. })));
        }
    }

    #[test]
    fn ssend_rendezvous_deadlocks_and_buffered_send_does_not() {
        // ssend to each other: both block (timeout). Buffered send: fine.
        let out = World::new(2).run(|c| {
            let peer = 1 - c.rank();
            let sync_err = c
                .ssend_timeout(peer, 1, &c.rank(), Some(Duration::from_millis(50)))
                .is_err();
            // Both ranks must observe their timeout before either drains,
            // or the drain-recv would *match* the peer's pending ssend and
            // legitimately complete it.
            c.barrier().unwrap();
            // Drain the buffered message so the world ends clean.
            let _: usize = c.recv(peer, 1).unwrap();
            // Now the buffered exchange, which cannot deadlock:
            c.send(peer, 2, &c.rank()).unwrap();
            let got: usize = c.recv(peer, 2).unwrap();
            (sync_err, got)
        });
        assert_eq!(out, vec![(true, 1), (true, 0)]);
    }

    #[test]
    fn sendrecv_exchange() {
        let out = World::new(4).run(|c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            let (got, st): (usize, _) = c.sendrecv(next, 3, &c.rank(), prev, 3).unwrap();
            assert_eq!(st.source, prev);
            got
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn irecv_isend_roundtrip() {
        let out = World::new(2).run(|c| {
            if c.rank() == 0 {
                let req = c.irecv::<String>(1, 0);
                c.isend(1, 0, &"ping".to_owned()).unwrap().wait().unwrap();
                let (v, _) = req.wait().unwrap();
                v
            } else {
                let req = c.irecv::<String>(0, 0);
                c.send(0, 0, &"pong".to_owned()).unwrap();
                let (v, _) = req.wait().unwrap();
                v
            }
        });
        assert_eq!(out, vec!["pong", "ping"]);
    }

    #[test]
    fn irecv_test_polls() {
        let out = World::new(2).run(|c| {
            if c.rank() == 0 {
                let mut req = c.irecv::<u8>(1, 0);
                let mut polls = 0usize;
                loop {
                    match req.test() {
                        Ok(done) => {
                            let (v, _) = done.unwrap();
                            return (v, polls > 0 || v == 9);
                        }
                        Err(r) => {
                            req = r;
                            polls += 1;
                            std::thread::yield_now();
                        }
                    }
                }
            } else {
                std::thread::sleep(Duration::from_millis(10));
                c.send(0, 0, &9u8).unwrap();
                (9, true)
            }
        });
        assert_eq!(out[0].0, 9);
    }

    #[test]
    fn irecv_test_reports_decode_errors() {
        let out = World::new(2).run(|c| {
            if c.rank() == 0 {
                let mut req = c.irecv::<u64>(1, 0);
                loop {
                    match req.test() {
                        Ok(done) => return Some(done),
                        Err(r) => {
                            req = r;
                            std::thread::yield_now();
                        }
                    }
                }
            } else {
                c.send(0, 0, &"not a number").unwrap();
                None
            }
        });
        assert!(matches!(out[0], Some(Err(MpcError::Decode(_)))));
    }

    #[test]
    fn pingpong_with_random_pauses_loses_no_wakeups() {
        // 100k messages, each side pausing at random for 0–200 µs before
        // one send in 16: waits end both while the receiver still spins
        // and after it has parked. A lost wake-up hangs a rank, so the
        // world runs under a watchdog.
        const ROUNDS: u64 = 50_000;
        let (tx, rx) = std::sync::mpsc::channel();
        let world = std::thread::spawn(move || {
            let out = World::new(2).run(|c| {
                let peer = 1 - c.rank();
                let mut lcg = 0x9E37_79B9_7F4A_7C15u64 ^ c.rank() as u64;
                let mut pause = || {
                    lcg = lcg
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    if (lcg >> 60) == 0 {
                        std::thread::sleep(Duration::from_micros((lcg >> 32) % 200));
                    }
                };
                let mut sum = 0u64;
                for i in 0..ROUNDS {
                    if c.rank() == 0 {
                        pause();
                        c.send(peer, 0, &i).unwrap();
                        sum += c.recv::<u64>(peer, 0).unwrap();
                    } else {
                        let v: u64 = c.recv(peer, 0).unwrap();
                        pause();
                        c.send(peer, 0, &v).unwrap();
                        sum += v;
                    }
                }
                sum
            });
            let _ = tx.send(out);
        });
        let out = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("ping-pong stalled: a wake-up was lost");
        world.join().unwrap();
        let expect = ROUNDS * (ROUNDS - 1) / 2;
        assert_eq!(out, vec![expect, expect]);
    }

    #[test]
    fn traced_traffic_counts_every_delivered_copy() {
        // Three 8-byte user messages from rank 0 to rank 1, never
        // received: a duplicating plan delivers two copies of each, a
        // dropping plan none.
        let traffic = |plan: FaultPlan| {
            let (_, traffic) = World::new(2).with_faults(plan).run_traced(|c| {
                if c.rank() == 0 {
                    for _ in 0..3 {
                        c.send_bytes(1, 0, bytes::Bytes::copy_from_slice(&[7; 8]))
                            .unwrap();
                    }
                }
            });
            (
                traffic.messages(0, 1),
                traffic.bytes(0, 1),
                traffic.total_messages(),
            )
        };
        let duplicated = traffic(FaultPlan::new(1).with_duplicate_rate(1.0));
        assert_eq!(duplicated, (6, 48, 6));
        let dropped = traffic(FaultPlan::new(1).with_drop_rate(1.0));
        assert_eq!(dropped, (0, 0, 0));
    }

    #[test]
    fn thread_worlds_spin_by_the_shared_budget() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for np in [cores, cores + 1] {
            let spins = World::new(np).run(|c| {
                let me = c.world_rank(c.rank());
                (c.fabric.local_mailbox(me).spin(), c.fabric.spin)
            });
            let want = pdc_shmem::sync::spin_budget(np);
            assert!(
                spins.iter().all(|&s| s == (want, want)),
                "np {np}: {spins:?}"
            );
        }
    }

    #[test]
    fn attached_wire_ranks_never_spin() {
        struct Solo;
        impl Transport for Solo {
            fn rank(&self) -> usize {
                0
            }
            fn size(&self) -> usize {
                1
            }
            fn hostnames(&self) -> Vec<String> {
                vec!["solo".to_owned()]
            }
            fn start(&self, _wire: WireHandle) {}
            fn send_frame(&self, _dst: usize, _frame: crate::transport::WireFrame) {
                unreachable!("a one-rank world has no peers")
            }
        }
        let c = World::new(1).attach(Arc::new(Solo));
        assert_eq!(c.fabric.local_mailbox(0).spin(), Duration::ZERO);
        assert_eq!(c.fabric.spin, Duration::ZERO);
    }

    #[test]
    fn probe_reports_without_consuming() {
        let out = World::new(2).run(|c| {
            if c.rank() == 0 {
                let st = c.probe(1, TagSel::Any).unwrap();
                let v: u64 = c.recv(st.source, st.tag).unwrap();
                (st.source, st.tag, v)
            } else {
                c.send(0, 5, &123u64).unwrap();
                (0, 0, 0)
            }
        });
        assert_eq!(out[0], (1, 5, 123));
    }

    #[test]
    fn tag_validation() {
        World::new(1).run(|c| {
            assert!(matches!(
                c.send(0, -3, &0u8),
                Err(MpcError::ReservedTag(-3))
            ));
            assert!(matches!(
                c.send(5, 0, &0u8),
                Err(MpcError::RankOutOfRange { rank: 5, size: 1 })
            ));
        });
    }

    #[test]
    fn rank_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            World::new(2).run(|c| {
                if c.rank() == 1 {
                    panic!("rank abort");
                }
            });
        });
        assert!(r.is_err());
    }
}
