//! The drug-design exemplar.
//!
//! From the CSinParallel exemplars the paper's modules use in their final
//! half hour: generate a population of random *ligands* (short strings
//! over an amino-acid-like alphabet), score each against a fixed
//! *protein* string — the score is the length of the longest common
//! subsequence — and report the maximum score and all ligands achieving
//! it. Scoring cost grows with ligand length × protein length, so task
//! costs are irregular: the exemplar that motivates **dynamic
//! scheduling** (shared memory) and **master-worker dealing** (message
//! passing).
//!
//! Both message-passing runs share one master-worker deal: rank 0 hands
//! out chunks of ligands, and each result a worker returns doubles as its
//! request for the next chunk. Fault-free ([`run_mpc`]), chunks follow
//! the guided rule of the shared-memory `schedule(guided)`: large while
//! much is queued, one ligand at the tail. Rank 0 scores a guided chunk
//! of its own once every `np − 1` results, so it takes about one rank's
//! share: of 1,500 ligands at np = 2 the master scores 766 in 9 chunks
//! and the worker 734 in 10 tasks, and at np = 5 the master scores 257
//! and the four workers 1,243. Every worker holds two tasks at a time,
//! so with the next one already queued it only scores. Under a fault plan
//! ([`run_mpc_recoverable`]) the same loop deals one ligand per task,
//! sends reliably, checkpoints each score and deals a dead worker's tasks
//! to the survivors, one task per worker: a reliable send blocks until
//! its receiver matches it, so with two the master could block dealing a
//! worker its second task while that worker blocks returning its first
//! result. The master also holds back queued tasks until every doomed
//! worker has been dealt the task its crash point names, so each
//! scheduled crash fires whatever the schedule.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use pdc_chaos::{ChaosContext, CheckpointStore};
use pdc_mpc::{Comm, MpcError, Source, World};
use pdc_shmem::schedule::guided_chunk;
use pdc_shmem::{parallel_for, Schedule, Team};

use crate::recovery::{RecoveredRun, POLL};

/// Alphabet the generator draws from (as in the CSinParallel original).
const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz";

/// Master-worker tags: the master's task, a `(start, end)` range of
/// ligand indices (an empty range dismisses), and a worker's
/// `(start, scores)` result.
const TAG_TASK: i32 = 1;
const TAG_RESULT: i32 = 2;

/// Workload configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrugConfig {
    /// Number of ligands to generate and score.
    pub num_ligands: usize,
    /// Maximum ligand length (lengths are drawn from 2..=max_len).
    pub max_len: usize,
    /// The protein to score against.
    pub protein: String,
    /// RNG seed (same seed ⇒ same ligands ⇒ same result everywhere).
    pub seed: u64,
}

impl Default for DrugConfig {
    /// The workshop-scale default: 120 ligands of length ≤ 6 against a
    /// 240-character protein.
    fn default() -> Self {
        Self {
            num_ligands: 120,
            max_len: 6,
            protein: make_protein(240, 0xC51F),
            seed: 2020,
        }
    }
}

/// Result: the best score and every ligand achieving it (sorted).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrugResult {
    /// Highest score found.
    pub max_score: usize,
    /// All ligands attaining `max_score`, lexicographically sorted.
    pub best_ligands: Vec<String>,
}

/// Deterministically generate a protein of length `len` from `seed`.
pub fn make_protein(len: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
        .collect()
}

/// Generate the ligand population for a config. Ligand `i` depends only
/// on `(seed, i)`, so any partitioning of the population across workers
/// sees identical strings.
pub fn make_ligands(config: &DrugConfig) -> Vec<String> {
    (0..config.num_ligands)
        .map(|i| {
            let mut rng =
                StdRng::seed_from_u64(config.seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
            let len = rng.gen_range(2..=config.max_len);
            (0..len)
                .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
                .collect()
        })
        .collect()
}

/// Score a ligand against a protein: longest-common-subsequence length
/// (the CSinParallel exemplar's matching function). O(|ligand|·|protein|)
/// time, two-row DP.
pub fn score(ligand: &str, protein: &str) -> usize {
    let l: &[u8] = ligand.as_bytes();
    let p: &[u8] = protein.as_bytes();
    if l.is_empty() || p.is_empty() {
        return 0;
    }
    let mut prev = vec![0usize; p.len() + 1];
    let mut cur = vec![0usize; p.len() + 1];
    for &lc in l {
        for (j, &pc) in p.iter().enumerate() {
            cur[j + 1] = if lc == pc {
                prev[j] + 1
            } else {
                prev[j + 1].max(cur[j])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[p.len()]
}

/// The best score and its ligands, from `scores[i]` = score of
/// `ligands[i]`. Only the winners are cloned.
fn collect_best(ligands: &[String], scores: &[usize]) -> DrugResult {
    assert_eq!(ligands.len(), scores.len(), "one score per ligand");
    let max_score = scores.iter().copied().max().unwrap_or(0);
    let mut best_ligands: Vec<String> = ligands
        .iter()
        .zip(scores)
        .filter(|&(_, &s)| s == max_score)
        .map(|(l, _)| l.clone())
        .collect();
    best_ligands.sort();
    best_ligands.dedup();
    DrugResult {
        max_score,
        best_ligands,
    }
}

/// Sequential baseline.
pub fn run_seq(config: &DrugConfig) -> DrugResult {
    let ligands = make_ligands(config);
    let scores: Vec<usize> = ligands.iter().map(|l| score(l, &config.protein)).collect();
    collect_best(&ligands, &scores)
}

/// Shared-memory version: the scoring loop is work-shared under the given
/// schedule (dynamic balances the irregular scoring costs).
pub fn run_shmem(config: &DrugConfig, team: &Team, schedule: Schedule) -> DrugResult {
    let ligands = make_ligands(config);
    let slots: Vec<parking_lot_free::Slot> = (0..ligands.len())
        .map(|_| parking_lot_free::Slot::new())
        .collect();
    parallel_for(team, 0..ligands.len(), schedule, |i, _| {
        slots[i].set(score(&ligands[i], &config.protein));
    });
    let scores: Vec<usize> = slots.iter().map(parking_lot_free::Slot::get).collect();
    collect_best(&ligands, &scores)
}

/// Tiny lock-free write-once cell so the parallel loop can publish one
/// score per index without locks (each index is written exactly once).
mod parking_lot_free {
    use std::sync::atomic::{AtomicUsize, Ordering};

    const UNSET: usize = usize::MAX;

    /// Write-once score slot.
    pub struct Slot(AtomicUsize);

    impl Slot {
        /// New, unset.
        pub fn new() -> Self {
            Slot(AtomicUsize::new(UNSET))
        }
        /// Publish the value (must happen exactly once).
        pub fn set(&self, v: usize) {
            debug_assert_ne!(v, UNSET);
            let prev = self.0.swap(v, Ordering::Release);
            debug_assert_eq!(prev, UNSET, "slot written twice");
        }
        /// Read the published value.
        pub fn get(&self) -> usize {
            let v = self.0.load(Ordering::Acquire);
            assert_ne!(v, UNSET, "slot never written");
            v
        }
    }
}

/// Tasks each worker holds at once in a fault-free deal: one it is
/// scoring and one waiting in its mailbox, so the round trip that returns
/// a result and fetches the next task overlaps the next score. On a
/// 2-vCPU host, depths 4 and 8 measured no faster than 2, and a deeper
/// queue deals the tail of the population less evenly. A faulted deal
/// holds one task per worker (see the module docs).
const DEPTH: usize = 2;

/// Message-passing version: the master-worker pattern, pipelined and
/// guided. Rank 0 primes every worker with up to `DEPTH` (two) tasks;
/// each `(start, scores)` result a worker returns doubles as its request
/// for more, which the master answers with the next undealt chunk. Rank
/// 0 also scores: once every `np − 1` results, before the top-up, it
/// claims a chunk of its own, and scores it before it waits for the next
/// result. Every chunk is the guided share of what is still queued,
/// `queued / (DEPTH × workers + 1)` ligands but at least one (the master
/// is one part of depth 1, claimed as often as one worker asks), so the
/// deal stays dynamic (a fast worker asks more often, and the tail goes
/// out one ligand at a time) while a run sends a few dozen messages, not
/// two per ligand. Once every score is in, the master dismisses each
/// worker with an empty range, assembles the result and broadcasts it.
/// [`run_mpc_recoverable`] runs the same deal under a fault plan.
pub fn run_mpc(config: &DrugConfig, np: usize) -> DrugResult {
    assert!(np >= 1);
    if np == 1 {
        return run_seq(config);
    }
    let ligands = make_ligands(config);
    master_result(World::new(np).run(|comm| deal(config, &ligands, &comm, None)))
}

/// Chaos-hardened master-worker run: the deal of [`run_mpc`] in one world
/// launch under the fault plan armed in `ctx`.
///
/// Each task is one ligand, each worker holds one task at a time, and the
/// master tracks which ligand index is outstanding on which worker. When
/// a worker's crash point fires, the master deals its stranded task to a
/// survivor, or scores the rest itself if no worker is left. Every message rides
/// [`Comm::send_reliable`], so dropped deals and results are
/// retransmitted; the master deduplicates results by ligand index, since
/// at-least-once delivery may repeat them, and checkpoints each new score
/// (a run under a context that already holds scores resumes from them).
///
/// A crash point `(rank, step)` fires on the `step`-th (0-based) task
/// that worker receives. The master counts the tasks it deals each
/// worker and holds back queued tasks until every doomed worker has been
/// dealt the one its crash point names, so each crash fires whatever the
/// schedule (given enough ligands to reach every step) and the fault
/// history depends only on the plan. The master takes no steps, so a
/// crash point on rank 0 never fires. The finale is ULFM-style: survivors
/// [`Comm::shrink`] past the dead ranks and the result is broadcast over
/// the shrunken communicator. The returned value is bit-identical to
/// [`run_seq`].
pub fn run_mpc_recoverable(
    config: &DrugConfig,
    np: usize,
    ctx: &ChaosContext,
) -> RecoveredRun<DrugResult> {
    assert!(np >= 1);
    let value = if np == 1 {
        run_seq(config)
    } else {
        let ligands = make_ligands(config);
        master_result(
            World::new(np)
                .with_fault_injector(Arc::clone(&ctx.injector))
                .with_retry_policy(ctx.retry)
                .run(|comm| deal(config, &ligands, &comm, Some(&ctx.checkpoints))),
        )
    };
    // The run completed despite every crash that fired: mark them
    // recovered so the ledger reconciles (recovered == recoverable).
    let log = ctx.injector.log();
    let s = log.stats();
    for _ in s.crashes_recovered..s.crashes {
        log.crash_recovered();
    }
    let stats = ctx.stats();
    RecoveredRun {
        value,
        degraded: stats.any_injected(),
        survivors: np.saturating_sub(stats.crashes as usize),
        world_size: np,
    }
}

/// Rank 0's value from a world that ran [`deal`]. The master takes no
/// crash steps, so it always finishes.
fn master_result(outs: Vec<Option<DrugResult>>) -> DrugResult {
    outs.into_iter()
        .next()
        .flatten()
        .expect("the master finishes every deal")
}

/// Checkpoint key for ligand index `i`.
fn drug_key(i: usize) -> String {
    format!("drug/{i}")
}

/// The master-worker deal both message-passing runs share. Rank 0 deals
/// ranges of ligand indices on `TAG_TASK`, each worker answers every task
/// with a `(start, scores)` on `TAG_RESULT` that also asks for the next,
/// and an empty range dismisses a worker. Every rank that finishes
/// returns the broadcast result; a worker that crashed or lost the master
/// returns `None`.
///
/// Whether the world has a fault injector decides the rest. Without one,
/// sends are plain, receives block, each worker holds [`DEPTH`] tasks of
/// guided size and nothing is checkpointed (`store` is `None`); each pass
/// the master tops the workers up and blocks for one result, and on every
/// `np − 1`-th pass, starting with the first, it first claims its own
/// guided chunk and scores it after the top-up. Claiming on every pass
/// would give the master one chunk per worker result, as much as all the
/// workers together, and make it the critical path past np = 2. It
/// claims before the top-up: after it, its first chunk would be too small
/// to cover the workers' first two tasks and it would idle in `recv`. The
/// order is fixed and counted in results, so the chunk sizes and the
/// message count depend only on the population and `np`; which worker
/// gets each top-up follows the result order.
/// With one, every task is one ligand, sends are reliable, each worker
/// holds one task, the master scores nothing until no worker is left,
/// polls for results, requeues the tasks of dead workers and checkpoints
/// each new score into `store`, and the survivors shrink before the
/// broadcast.
fn deal(
    config: &DrugConfig,
    ligands: &[String],
    comm: &Comm,
    store: Option<&CheckpointStore>,
) -> Option<DrugResult> {
    let injector = comm.fault_injector();
    let faulted = injector.is_some();
    if comm.rank() != 0 {
        loop {
            // A receive from rank 0 fails if the master dies, so a worker
            // never polls.
            let (start, end): (usize, usize) = comm.recv(0, TAG_TASK).ok()?;
            if start >= end {
                break;
            }
            comm.chaos_step().ok()?; // this worker's crash point: unwind
            let scores: Vec<usize> = ligands[start..end]
                .iter()
                .map(|l| score(l, &config.protein))
                .collect();
            post(comm, faulted, 0, TAG_RESULT, &(start, scores)).ok()?;
        }
        return finish(comm, faulted, None);
    }
    let size = comm.size();
    let depth = if faulted { 1 } else { DEPTH };
    let alive = |w: usize| !faulted || comm.is_alive(w);
    // Resume from whatever the store holds (`load` counts it restored).
    let mut scores: Vec<Option<usize>> = (0..ligands.len())
        .map(|i| store.and_then(|s| s.load(&drug_key(i))))
        .collect();
    let mut queue: VecDeque<usize> = (0..ligands.len())
        .filter(|&i| scores[i].is_none())
        .collect();
    let mut missing = queue.len();
    // The step of each worker's first crash point this deal can reach.
    let dies_at: Vec<Option<u64>> = (0..size)
        .map(|w| {
            let crashes = &injector.as_ref()?.plan().crashes;
            crashes
                .iter()
                .filter(|c| c.rank == w && c.step < missing as u64)
                .map(|c| c.step)
                .min()
        })
        .collect();
    // Per worker: the tasks it holds unanswered, and how many it was dealt.
    let mut held: Vec<Vec<Range<usize>>> = vec![Vec::new(); size];
    let mut dealt = vec![0u64; size];
    // Fault-free, the master is one more part of the guided split.
    let parts = DEPTH * (size - 1) + 1;
    // A fault-free queue is one ascending run, and a faulted deal takes one
    // ligand, so the first `len` queued indices are `start..start + len`.
    let claim = |queue: &mut VecDeque<usize>| {
        let start = *queue.front()?;
        let len = if faulted {
            1
        } else {
            guided_chunk(queue.len(), parts, 1)
        };
        queue.drain(..len);
        Some(start..start + len)
    };
    // Results taken so far: the master claims once per `size − 1` of them.
    let mut pass = 0;
    while missing > 0 {
        // A dead worker's tasks go back on the queue.
        for (w, tasks) in held.iter_mut().enumerate() {
            if !alive(w) {
                for i in tasks.drain(..).flat_map(Range::rev) {
                    queue.push_front(i);
                }
            }
        }
        // Fault-free, the master's own chunk, claimed before the top-up.
        let own = if faulted || pass % (size - 1) != 0 {
            None
        } else {
            claim(&mut queue)
        };
        pass += 1;
        // Top every live worker up to `depth`, round by round so that all
        // start at once. Queued tasks a doomed worker still needs to reach
        // its crash point go to no other worker.
        for _ in 0..depth {
            for w in 1..size {
                let owed = |v: usize| match dies_at[v] {
                    Some(step) if alive(v) => (step + 1).saturating_sub(dealt[v]),
                    _ => 0,
                };
                let reserved: u64 = (1..size).map(owed).sum();
                let held_back = owed(w) == 0 && queue.len() as u64 <= reserved;
                if held[w].len() >= depth || !alive(w) || held_back {
                    continue;
                }
                let Some(task) = claim(&mut queue) else { break };
                if post(comm, faulted, w, TAG_TASK, &(task.start, task.end)).is_ok() {
                    held[w].push(task);
                    dealt[w] += 1;
                } else {
                    // The worker died: requeue.
                    for i in task.rev() {
                        queue.push_front(i);
                    }
                }
            }
        }
        // The master's share, scored while the workers score theirs.
        for i in own.into_iter().flatten() {
            missing -= bank(&mut scores, store, i, score(&ligands[i], &config.protein)) as usize;
        }
        // Nothing is in flight after the top-up, so every queued ligand
        // went to the master, or no worker is left to deal to: score the
        // rest here. The study still completes, just without parallel help.
        if held.iter().all(Vec::is_empty) {
            while let Some(i) = queue.pop_front() {
                bank(&mut scores, store, i, score(&ligands[i], &config.protein));
            }
            break;
        }
        let got = if faulted {
            comm.recv_timeout::<(usize, Vec<usize>)>(Source::Any, TAG_RESULT, POLL)
        } else {
            comm.recv_status::<(usize, Vec<usize>)>(Source::Any, TAG_RESULT)
        };
        let ((start, scored), st) = match got {
            Ok(got) => got,
            Err(_) if faulted => continue, // look for dead workers again
            Err(e) => panic!("drug-design deal: {e}"),
        };
        // Only a result for a task the worker holds earns it another.
        if let Some(pos) = held[st.source].iter().position(|t| t.start == start) {
            held[st.source].remove(pos);
        }
        for (i, s) in (start..).zip(scored) {
            missing -= bank(&mut scores, store, i, s) as usize;
        }
    }
    // Per-pair order is FIFO, so each dismissal lands behind the
    // worker's last task.
    for w in (1..size).filter(|&w| alive(w)) {
        let _ = post(comm, faulted, w, TAG_TASK, &(0usize, 0usize));
    }
    let scores: Vec<usize> = scores
        .into_iter()
        .map(|s| s.expect("every ligand scored"))
        .collect();
    finish(comm, faulted, Some(collect_best(ligands, &scores)))
}

/// Keep the first score that arrives for ligand `i` (at-least-once
/// delivery may repeat a result), checkpointed if the deal keeps
/// checkpoints. True when it was new.
fn bank(scores: &mut [Option<usize>], store: Option<&CheckpointStore>, i: usize, s: usize) -> bool {
    match scores.get_mut(i) {
        Some(slot @ None) => {
            if let Some(store) = store {
                store.save(&drug_key(i), &s);
            }
            *slot = Some(s);
            true
        }
        _ => false,
    }
}

/// Send one deal message, reliably (at least once) in a faulted deal.
fn post<T: Serialize>(
    comm: &Comm,
    faulted: bool,
    dest: usize,
    tag: i32,
    value: &T,
) -> Result<(), MpcError> {
    if faulted {
        comm.send_reliable(dest, tag, value)
    } else {
        comm.send(dest, tag, value)
    }
}

/// Broadcast rank 0's result. A faulted deal first shrinks past the dead
/// ranks, ULFM-style.
fn finish(comm: &Comm, faulted: bool, result: Option<DrugResult>) -> Option<DrugResult> {
    if faulted {
        comm.shrink().ok()?.bcast(0, result).ok()
    } else {
        comm.bcast(0, result).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{watchdog, Spinner};
    use pdc_chaos::FaultPlan;
    use pdc_mpc::analysis::{record_into, CommLog, OpKind};

    #[test]
    fn score_is_lcs() {
        assert_eq!(score("abc", "abc"), 3);
        assert_eq!(score("abc", "xaxbxc"), 3);
        assert_eq!(score("acb", "abc"), 2);
        assert_eq!(score("xyz", "abc"), 0);
        assert_eq!(score("", "abc"), 0);
        assert_eq!(score("abc", ""), 0);
    }

    #[test]
    fn score_bounded_by_ligand_length() {
        let protein = make_protein(100, 7);
        for lig in ["ab", "hello", "qqqqqq"] {
            assert!(score(lig, &protein) <= lig.len());
        }
    }

    #[test]
    fn ligand_generation_is_deterministic_and_bounded() {
        let config = DrugConfig::default();
        let a = make_ligands(&config);
        let b = make_ligands(&config);
        assert_eq!(a, b);
        assert_eq!(a.len(), 120);
        for l in &a {
            assert!(l.len() >= 2 && l.len() <= 6, "{l}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let c2 = DrugConfig {
            seed: 99,
            ..Default::default()
        };
        assert_ne!(make_ligands(&DrugConfig::default()), make_ligands(&c2));
    }

    #[test]
    fn seq_result_is_consistent() {
        let config = DrugConfig::default();
        let r = run_seq(&config);
        assert!(r.max_score > 0);
        assert!(!r.best_ligands.is_empty());
        // Every winner really has the max score.
        for l in &r.best_ligands {
            assert_eq!(score(l, &config.protein), r.max_score);
        }
    }

    #[test]
    fn shmem_matches_seq_under_all_schedules() {
        let config = DrugConfig::default();
        let want = run_seq(&config);
        for schedule in [
            Schedule::default(),
            Schedule::round_robin(),
            Schedule::Dynamic { chunk: 1 },
            Schedule::Guided { min_chunk: 2 },
        ] {
            for threads in [1, 2, 4] {
                let got = run_shmem(&config, &Team::new(threads), schedule);
                assert_eq!(got, want, "threads={threads} {schedule:?}");
            }
        }
    }

    #[test]
    fn mpc_matches_seq() {
        // 0..=5 ligands leave some primed slots empty (zero ligands: every
        // worker is only dismissed; one ligand: the master's first claim
        // takes it, so the master scores it alone and the workers are only
        // dismissed), and at np 3 and 5 the population is smaller than
        // DEPTH × workers + 1; 40 keeps every worker busy.
        let mut cases: Vec<(usize, usize)> = [0, 1, 2, 3, 4, 5, 40]
            .into_iter()
            .flat_map(|l| [1, 2, 3, 5].map(|np| (l, np)))
            .collect();
        // The perfbench population: guided chunks of hundreds of ligands.
        cases.extend([(1500, 2), (1500, 3), (1500, 5)]);
        for (num_ligands, np) in cases {
            let config = DrugConfig {
                num_ligands,
                ..DrugConfig::default()
            };
            let want = run_seq(&config);
            let what = format!("run_mpc(num_ligands={num_ligands}, np={np})");
            let got = watchdog(what.clone(), move || run_mpc(&config, np));
            assert_eq!(got, want, "{what}");
        }
    }

    /// The chunk lengths a fault-free deal of `l` ligands among `workers`
    /// hands the master and the workers. On every `workers`-th pass,
    /// starting with the first, the master claims its guided share; each
    /// pass it tops the workers up to `DEPTH` tasks each, then takes one
    /// result back, which frees one slot. Every chunk is the guided share
    /// of what is still queued over `DEPTH × workers + 1` parts.
    fn claim_first(l: usize, workers: usize) -> (Vec<usize>, Vec<usize>) {
        let parts = DEPTH * workers + 1;
        let (mut queued, mut held, mut pass) = (l, 0, 0);
        let (mut master, mut tasks) = (Vec::new(), Vec::new());
        let take = |queued: &mut usize, into: &mut Vec<usize>| {
            let len = guided_chunk(*queued, parts, 1);
            *queued -= len;
            into.push(len);
        };
        while queued > 0 || held > 0 {
            if queued > 0 && pass % workers == 0 {
                take(&mut queued, &mut master);
            }
            pass += 1;
            while held < DEPTH * workers && queued > 0 {
                take(&mut queued, &mut tasks);
                held += 1;
            }
            if held == 0 {
                break;
            }
            held -= 1;
        }
        (master, tasks)
    }

    /// Run `(l, np, recoverable)` cases under [`record_into`] and check
    /// the user messages they send. Fault-free: `T` worker tasks from
    /// [`claim_first`], a result per task and a dismissal per worker, so
    /// `2T + (np − 1)` user sends, and the workers' results carry exactly
    /// the ligands the master did not score. The recoverable run under an
    /// empty plan deals one ligand per task: `2l + (np − 1)`.
    fn check_deal_counts(cases: &[(usize, usize, bool)]) {
        // A result's encoded size grows by a fixed width per score.
        let result_bytes = |n: usize| serde::binary::to_vec(&(0usize, vec![0usize; n])).len();
        let per_score = result_bytes(1) - result_bytes(0);
        for &(l, np, recoverable) in cases {
            let config = DrugConfig {
                num_ligands: l,
                ..DrugConfig::default()
            };
            let what = format!("l={l} np={np} recoverable={recoverable}");
            let log = CommLog::new();
            let l2 = log.clone();
            watchdog(what.clone(), move || {
                record_into(&l2, || {
                    if recoverable {
                        let ctx = ChaosContext::new(FaultPlan::new(5));
                        run_mpc_recoverable(&config, np, &ctx).value
                    } else {
                        run_mpc(&config, np)
                    }
                })
            });
            let runs = log.take();
            assert_eq!(runs.len(), 1, "{what}");
            let ops = &runs[0].ops;
            let user_sends = ops
                .iter()
                .filter(|o| matches!(o.kind, OpKind::Send { user: true, .. }))
                .count();
            let (tasks, master_ligands) = if recoverable {
                (l, 0)
            } else {
                let (master, tasks) = claim_first(l, np - 1);
                (tasks.len(), master.iter().sum())
            };
            assert_eq!(user_sends, 2 * tasks + (np - 1), "{what}");
            assert!(
                !ops.iter()
                    .any(|o| matches!(o.kind, OpKind::Send { tag: 0, .. })),
                "{what}: a message on the retired ready tag"
            );
            let (mut received, mut worker_ligands) = (0, 0);
            for w in 1..np {
                let got = ops
                    .iter()
                    .filter(|o| {
                        o.rank == w && matches!(o.kind, OpKind::RecvDone { tag: TAG_TASK, .. })
                    })
                    .count();
                let results: Vec<usize> = ops
                    .iter()
                    .filter(|o| o.rank == w)
                    .filter_map(|o| match o.kind {
                        OpKind::Send {
                            tag: TAG_RESULT,
                            bytes,
                            ..
                        } => Some((bytes - result_bytes(0)) / per_score),
                        _ => None,
                    })
                    .collect();
                assert_eq!(
                    results.len() + 1,
                    got,
                    "{what} worker {w}: one result per task"
                );
                received += got;
                worker_ligands += results.iter().sum::<usize>();
            }
            assert_eq!(received, tasks + (np - 1), "{what}: tasks and dismissals");
            assert_eq!(
                worker_ligands,
                l - master_ligands,
                "{what}: the workers' ligands"
            );
        }
    }

    #[test]
    fn mpc_deals_guided_chunks_and_one_result_per_task() {
        let mut cases: Vec<(usize, usize, bool)> = [2, 3, 5]
            .into_iter()
            .flat_map(|np| [(40, np, false), (40, np, true)])
            .collect();
        cases.extend([
            (1, 3, false),
            (1500, 2, false),
            (1500, 5, false),
            (1500, 8, false),
            (120, 8, false),
        ]);
        check_deal_counts(&cases);
        // The perfbench population: the master scores 766 ligands in 9
        // chunks, and the one worker 734 in 10 tasks.
        let (master, tasks) = claim_first(1500, 1);
        assert_eq!(master, [500, 148, 66, 29, 13, 6, 2, 1, 1]);
        assert_eq!(tasks, [333, 222, 99, 44, 19, 9, 4, 2, 1, 1]);
        assert_eq!(master.iter().sum::<usize>(), 766);
        // With more workers the master still claims one part's worth.
        let (master, tasks) = claim_first(1500, 4);
        assert_eq!(master, [166, 40, 23, 12, 7, 4, 2, 1, 1, 1]);
        assert_eq!((tasks.len(), tasks.iter().sum::<usize>()), (47, 1243));
        let (master, tasks) = claim_first(1500, 7);
        assert_eq!(master, [100, 23, 13, 8, 4, 3, 1, 1, 1, 1]);
        assert_eq!((tasks.len(), tasks.iter().sum::<usize>()), (80, 1345));
        let (master, tasks) = claim_first(120, 7);
        assert_eq!(master, [8, 2, 1, 1, 1]);
        assert_eq!((tasks.len(), tasks.iter().sum::<usize>()), (47, 107));
        // One ligand is the master's first claim: no worker gets a task.
        assert_eq!(claim_first(1, 2), (vec![1], vec![]));
    }

    #[test]
    fn mpc_master_scores_about_one_ranks_share() {
        // Module B's study runs 24 and 120 ligands at np 2…64, and
        // perfbench 1,500 at np 2. The master scores at most 5 % (and one
        // ligand) more than the workers' mean, so it never becomes the
        // critical path. Claiming on every pass instead gave it as much
        // as all the workers together: 442 of 1,500 ligands at np = 5.
        let cases = [24, 120]
            .into_iter()
            .flat_map(|l| [2, 4, 8, 16, 32, 64].map(|np| (l, np)))
            .chain((2..=8).map(|np| (1500, np)));
        for (l, np) in cases {
            let workers = np - 1;
            let (master, _) = claim_first(l, workers);
            let mine: usize = master.iter().sum();
            let mean = (l - mine) / workers;
            assert!(
                mine <= mean * 21 / 20 + 1,
                "l={l} np={np}: master {mine}, workers' mean {mean}"
            );
            assert!(mine > 0, "l={l} np={np}: the master scores");
        }
    }

    #[test]
    fn mpc_deal_counts_hold_under_any_schedule() {
        // Which worker's result arrives first decides which worker the
        // next task goes to, never how many tasks are dealt or how large.
        let _spinner = Spinner::start();
        for _ in 0..5 {
            check_deal_counts(&[
                (40, 2, false),
                (40, 3, false),
                (40, 5, false),
                (1500, 2, false),
                (1500, 5, false),
            ]);
        }
    }

    #[test]
    fn tiny_population() {
        let config = DrugConfig {
            num_ligands: 1,
            ..DrugConfig::default()
        };
        let r = run_seq(&config);
        assert_eq!(r.best_ligands.len(), 1);
        assert_eq!(run_mpc(&config, 3), r);
    }

    /// Run `run_mpc_recoverable` under `plan` on the watchdog; returns the
    /// run and its context, for the ledger.
    fn recover(
        config: &DrugConfig,
        np: usize,
        plan: FaultPlan,
    ) -> (RecoveredRun<DrugResult>, ChaosContext) {
        let ctx = ChaosContext::new(plan);
        let (c, x) = (config.clone(), ctx.clone());
        let what = format!("run_mpc_recoverable(np={np}, {:?})", ctx.plan());
        let run = watchdog(what, move || run_mpc_recoverable(&c, np, &x));
        (run, ctx)
    }

    #[test]
    fn recoverable_matches_seq_without_faults() {
        let config = DrugConfig {
            num_ligands: 30,
            ..DrugConfig::default()
        };
        let (run, _) = recover(&config, 3, FaultPlan::new(5));
        assert_eq!(run.value, run_seq(&config));
        assert!(!run.degraded);
        assert_eq!(run.survivors, 3);
    }

    #[test]
    fn recoverable_survives_worker_crash_in_run() {
        let config = DrugConfig {
            num_ligands: 40,
            ..DrugConfig::default()
        };
        // Rank 2 dies on its third task; rank 1 runs slow.
        let plan = FaultPlan::new(77).with_crash(2, 2).with_straggler(1, 1);
        let (run, ctx) = recover(&config, 4, plan);
        assert_eq!(run.value, run_seq(&config), "recovery must be exact");
        assert!(run.degraded);
        assert_eq!(run.survivors, 3);
        let s = ctx.stats();
        assert_eq!(s.crashes, 1, "scheduled crash fired");
        assert!(s.all_recovered(), "{s:?}");
        assert!(s.shrinks >= 1, "survivors shrank past the dead rank");
    }

    #[test]
    fn recoverable_survives_dropped_protocol_messages() {
        let config = DrugConfig {
            num_ligands: 25,
            ..DrugConfig::default()
        };
        let (run, ctx) = recover(&config, 3, FaultPlan::new(13).with_drop_rate(0.3));
        assert_eq!(run.value, run_seq(&config));
        let s = ctx.stats();
        assert!(s.all_recovered(), "{s:?}");
    }

    #[test]
    fn recoverable_crash_fires_under_any_schedule() {
        // The chaos study's plan and world: rank 2 dies on its third task,
        // whichever worker wins each deal. With 3–5 ligands it only gets a
        // third task if the master holds tasks back for it; 24 is the
        // study's population.
        let _spinner = Spinner::start();
        for seed in 0..20 {
            let config = DrugConfig {
                num_ligands: [3, 4, 5, 24][seed as usize % 4],
                ..DrugConfig::default()
            };
            let plan = FaultPlan::new(seed).with_crash(2, 2).with_straggler(1, 1);
            let (run, ctx) = recover(&config, 4, plan);
            let what = format!("run {seed}, {} ligands", config.num_ligands);
            assert_eq!(ctx.stats().crashes, 1, "{what}: the crash fired");
            assert_eq!(run.survivors, 3, "{what}");
            assert_eq!(run.value, run_seq(&config), "{what}");
        }
    }
}
