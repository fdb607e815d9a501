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
//! The master-worker deal ([`run_mpc`]) is pipelined: each result a
//! worker returns doubles as its request for the next task, and every
//! worker holds two tasks at a time. A ligand costs about as much to
//! score as a message round trip, so a worker that asked and then waited
//! for each task would spend about half its time waiting; with the next
//! task already queued, it only scores. The recoverable run
//! ([`run_mpc_recoverable`]) keeps the plain ready-task-result handshake,
//! which its retransmission and reassignment logic is built on.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use pdc_chaos::ChaosContext;
use pdc_mpc::{Comm, MpcError, Source, TagSel, World};
use pdc_shmem::{parallel_for, Schedule, Team};

use crate::recovery::RecoveredRun;

/// Alphabet the generator draws from (as in the CSinParallel original).
const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz";

/// Master-worker tags: a worker's `Ready` (recoverable run only), the
/// master's task index (`-1` dismisses), a worker's result.
const TAG_READY: i32 = 0;
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

/// Tasks each worker of [`run_mpc`] holds at once: one it is scoring and
/// one waiting in its mailbox, so the round trip that returns a result
/// and fetches the next task overlaps the next score. On a 2-vCPU host,
/// depths 4 and 8 measured no faster than 2, and a deeper queue deals
/// the tail of the population less evenly.
const DEPTH: usize = 2;

/// Message-passing version: the master-worker pattern, pipelined. Rank 0
/// primes every worker with up to [`DEPTH`] ligand indices; each
/// `(index, score)` result a worker returns doubles as its request for
/// more, which the master answers with the next undealt index. The deal
/// stays dynamic (a fast worker asks more often) but a worker never waits
/// a round trip for work: while it scores one ligand, the next is
/// already in its mailbox. That is two messages per ligand. Once every
/// score is in, the master dismisses each worker with `-1`, assembles the
/// result and broadcasts it.
pub fn run_mpc(config: &DrugConfig, np: usize) -> DrugResult {
    assert!(np >= 1);
    if np == 1 {
        return run_seq(config);
    }
    let ligands = make_ligands(config);
    let results = World::new(np).run(|comm| {
        if comm.rank() == 0 {
            let n = ligands.len();
            let mut scores = vec![0usize; n];
            let mut next = 0usize;
            // Prime round by round, so every worker starts at once.
            for _ in 0..DEPTH {
                for w in 1..comm.size() {
                    if next < n {
                        comm.send(w, TAG_TASK, &(next as i64)).unwrap();
                        next += 1;
                    }
                }
            }
            for _ in 0..n {
                let ((index, s), st) = comm
                    .recv_status::<(usize, usize)>(Source::Any, TagSel::Tag(TAG_RESULT))
                    .unwrap();
                scores[index] = s;
                if next < n {
                    comm.send(st.source, TAG_TASK, &(next as i64)).unwrap();
                    next += 1;
                }
            }
            // Per-pair order is FIFO, so each dismissal lands behind the
            // worker's last task.
            for w in 1..comm.size() {
                comm.send(w, TAG_TASK, &-1i64).unwrap();
            }
            comm.bcast(0, Some(collect_best(&ligands, &scores)))
                .unwrap()
        } else {
            loop {
                let idx: i64 = comm.recv(0, TAG_TASK).unwrap();
                if idx < 0 {
                    break;
                }
                let i = idx as usize;
                let s = score(&ligands[i], &config.protein);
                comm.send(0, TAG_RESULT, &(i, s)).unwrap();
            }
            comm.bcast::<DrugResult>(0, None).unwrap()
        }
    });
    results.into_iter().next().expect("at least one rank")
}

/// Checkpoint key for ligand index `i`.
fn drug_key(i: usize) -> String {
    format!("drug/{i}")
}

/// Chaos-hardened master-worker run: the dealing of [`run_mpc`] rebuilt
/// to survive the fault plan armed in `ctx`. Workers still ask for each
/// task with a `Ready` message, the handshake its retransmission and
/// reassignment are built on.
///
/// Recovery is *in-run* for worker failures: the master tracks which
/// ligand indices are outstanding on which worker, and when a worker's
/// crash schedule fires it reassigns the stranded tasks to the
/// survivors (or scores them itself if no worker is left). All
/// protocol messages ride [`Comm::send_reliable`], so dropped deals and
/// results are retransmitted; the master deduplicates results by ligand
/// index, since at-least-once delivery may duplicate them. Scores are
/// checkpointed as they arrive — if the *master* dies, the driver
/// relaunches the world and the restart resumes from the checkpoints.
/// The finale is ULFM-style: survivors [`Comm::shrink`] past the dead
/// ranks and the result is broadcast over the shrunken communicator.
/// The returned value is bit-identical to [`run_seq`].
pub fn run_mpc_recoverable(
    config: &DrugConfig,
    np: usize,
    ctx: &ChaosContext,
) -> RecoveredRun<DrugResult> {
    assert!(np >= 1);
    if np == 1 {
        let value = run_seq(config);
        let stats = ctx.stats();
        return RecoveredRun {
            value,
            degraded: stats.any_injected(),
            attempts: 1,
            survivors: 1,
            world_size: 1,
        };
    }
    let ligands = make_ligands(config);
    let log = ctx.injector.log();
    // One restart per scheduled crash, plus one slack attempt.
    let max_attempts = ctx.plan().crashes.len() as u32 + 2;
    let mut attempts = 0u32;
    let mut value: Option<DrugResult> = None;
    while attempts < max_attempts && value.is_none() {
        attempts += 1;
        let outs = World::new(np)
            .with_fault_injector(Arc::clone(&ctx.injector))
            .with_retry_policy(ctx.retry)
            .run(|comm| drug_attempt(config, &ligands, ctx, &comm));
        value = outs.into_iter().flatten().next();
    }
    // Ultimate fallback: finish sequentially from the checkpoints. The
    // result is still exact — checkpointed scores are reused, missing
    // ones recomputed.
    let value = value.unwrap_or_else(|| {
        let scores: Vec<usize> = ligands
            .iter()
            .enumerate()
            .map(|(i, l)| {
                ctx.checkpoints
                    .peek::<usize>(&drug_key(i))
                    .unwrap_or_else(|| score(l, &config.protein))
            })
            .collect();
        collect_best(&ligands, &scores)
    });
    // The run completed despite every crash that fired: mark them
    // recovered so the ledger reconciles (recovered == recoverable).
    let s = log.stats();
    for _ in s.crashes_recovered..s.crashes {
        log.crash_recovered();
    }
    let stats = ctx.stats();
    RecoveredRun {
        value,
        degraded: stats.any_injected(),
        attempts,
        survivors: np.saturating_sub(stats.crashes as usize),
        world_size: np,
    }
}

/// One world launch of the recoverable master-worker run. The master
/// always produces `Some(result)` once every ligand is scored; workers
/// return what the shrunken broadcast hands them, or `None` if they
/// crashed or lost the master.
fn drug_attempt(
    config: &DrugConfig,
    ligands: &[String],
    ctx: &ChaosContext,
    comm: &Comm,
) -> Option<DrugResult> {
    let store = &ctx.checkpoints;
    let n = ligands.len();
    if comm.rank() == 0 {
        // Resume from whatever earlier attempts checkpointed (`load`
        // counts the skipped work as restored).
        let mut scores: Vec<Option<usize>> =
            (0..n).map(|i| store.load::<usize>(&drug_key(i))).collect();
        let mut pending: VecDeque<usize> = (0..n).filter(|&i| scores[i].is_none()).collect();
        let mut outstanding: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut idle: VecDeque<usize> = VecDeque::new();
        while scores.iter().any(Option::is_none) {
            // Reassign tasks stranded on dead workers.
            for w in 1..comm.size() {
                if !comm.is_alive(w) {
                    idle.retain(|&x| x != w);
                    for i in outstanding.remove(&w).unwrap_or_default() {
                        if scores[i].is_none() && !pending.contains(&i) {
                            pending.push_front(i);
                        }
                    }
                }
            }
            // Deal work to idle workers.
            while !pending.is_empty() && !idle.is_empty() {
                let w = idle.pop_front().expect("checked non-empty");
                if !comm.is_alive(w) {
                    continue;
                }
                let i = pending.pop_front().expect("checked non-empty");
                match comm.send_reliable(w, TAG_TASK, &(i as i64)) {
                    Ok(()) => outstanding.entry(w).or_default().push(i),
                    Err(_) => pending.push_front(i), // next sweep reassigns
                }
            }
            // Every worker dead? Score the remainder inline: the study
            // still completes, just without parallel help.
            if (1..comm.size()).all(|w| !comm.is_alive(w)) {
                for i in 0..n {
                    if scores[i].is_none() {
                        let s = score(&ligands[i], &config.protein);
                        store.save(&drug_key(i), &s);
                        scores[i] = Some(s);
                    }
                }
                break;
            }
            match comm.recv_timeout::<WorkerMsg>(
                Source::Any,
                TagSel::Any,
                Duration::from_millis(100),
            ) {
                Ok((WorkerMsg::Ready, st)) => {
                    if !idle.contains(&st.source) {
                        idle.push_back(st.source);
                    }
                }
                Ok((WorkerMsg::Result { index, score: s }, st)) => {
                    if let Some(mine) = outstanding.get_mut(&st.source) {
                        mine.retain(|&x| x != index);
                    }
                    // Dedup by index: at-least-once delivery may repeat.
                    if index < n && scores[index].is_none() {
                        store.save(&drug_key(index), &s);
                        scores[index] = Some(s);
                    }
                }
                Err(_) => {} // timeout: loop re-checks liveness
            }
        }
        // Dismiss every surviving worker. Workers re-send Ready while
        // undealt, so each one surfaces here within its poll interval.
        let mut dismissed: HashSet<usize> = HashSet::new();
        let mut patience = 0u32;
        loop {
            let all_dismissed = (1..comm.size())
                .filter(|&w| comm.is_alive(w))
                .all(|w| dismissed.contains(&w));
            if all_dismissed {
                break;
            }
            match comm.recv_timeout::<WorkerMsg>(
                Source::Any,
                TagSel::Tag(TAG_READY),
                Duration::from_millis(500),
            ) {
                Ok((_, st)) => {
                    if dismissed.insert(st.source) {
                        let _ = comm.send_reliable(st.source, TAG_TASK, &-1i64);
                    }
                }
                Err(_) => {
                    patience += 1;
                    if patience > 40 {
                        break; // ~20 s of silence: give up waiting
                    }
                }
            }
        }
        let scores: Vec<usize> = scores.iter().map(|s| s.expect("all scored")).collect();
        let result = collect_best(ligands, &scores);
        // ULFM finale: continue degraded on the shrunken communicator.
        if let Ok(alive) = comm.shrink() {
            let _ = alive.bcast(0, Some(result.clone()));
        }
        Some(result)
    } else {
        loop {
            if comm.send_reliable(0, TAG_READY, &WorkerMsg::Ready).is_err() {
                return None; // master gone: the driver restarts
            }
            match comm.recv_timeout::<i64>(0, TAG_TASK, Duration::from_millis(500)) {
                Ok((idx, _)) if idx < 0 => break,
                Ok((idx, _)) => {
                    if comm.chaos_step().is_err() {
                        return None; // crash schedule fired: unwind
                    }
                    let i = idx as usize;
                    let s = score(&ligands[i], &config.protein);
                    if comm
                        .send_reliable(0, TAG_RESULT, &WorkerMsg::Result { index: i, score: s })
                        .is_err()
                    {
                        return None;
                    }
                }
                // A dropped deal: announce readiness again and keep
                // polling — the master deduplicates extra Readys.
                Err(MpcError::Timeout { .. }) => continue,
                Err(_) => return None,
            }
        }
        comm.shrink().ok()?.bcast::<DrugResult>(0, None).ok()
    }
}

/// Worker-to-master messages of the recoverable run.
#[derive(Debug, Serialize, Deserialize)]
enum WorkerMsg {
    /// "Give me work."
    Ready,
    /// A completed scoring task.
    Result {
        /// Ligand index.
        index: usize,
        /// Its score.
        score: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_mpc::analysis::{record_into, CommLog, OpKind};
    use std::sync::mpsc::{self, RecvTimeoutError};

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

    /// Run `f` on its own thread and fail after 10 s instead of hanging,
    /// so a lost task or dismissal fails the test.
    fn watchdog<R: Send + 'static>(what: String, f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => panic!("watchdog: {what} still running after 10 s"),
            Err(RecvTimeoutError::Disconnected) => panic!("{what} panicked"),
        }
    }

    #[test]
    fn mpc_matches_seq() {
        // 0..=5 ligands leave some primed slots empty (zero ligands: every
        // worker is only dismissed); 40 keeps every worker busy.
        for num_ligands in [0, 1, 2, 3, 4, 5, 40] {
            let config = DrugConfig {
                num_ligands,
                ..DrugConfig::default()
            };
            let want = run_seq(&config);
            for np in [1, 2, 3, 5] {
                let what = format!("run_mpc(num_ligands={num_ligands}, np={np})");
                let c = config.clone();
                let got = watchdog(what.clone(), move || run_mpc(&c, np));
                assert_eq!(got, want, "{what}");
            }
        }
    }

    #[test]
    fn mpc_sends_one_task_and_one_result_per_ligand() {
        let l = 40;
        let config = DrugConfig {
            num_ligands: l,
            ..DrugConfig::default()
        };
        for np in [2, 3, 5] {
            let log = CommLog::new();
            let c = config.clone();
            let l2 = log.clone();
            watchdog(format!("run_mpc(np={np})"), move || {
                record_into(&l2, || run_mpc(&c, np))
            });
            let runs = log.take();
            assert_eq!(runs.len(), 1, "np={np}");
            let ops = &runs[0].ops;
            let user_sends = ops
                .iter()
                .filter(|o| matches!(o.kind, OpKind::Send { user: true, .. }))
                .count();
            // A task and a result per ligand, a dismissal per worker.
            assert_eq!(user_sends, 2 * l + (np - 1), "np={np}");
            for w in 1..np {
                let tasks = ops
                    .iter()
                    .filter(|o| {
                        o.rank == w && matches!(o.kind, OpKind::RecvDone { tag: TAG_TASK, .. })
                    })
                    .count();
                let results = ops
                    .iter()
                    .filter(|o| {
                        o.rank == w
                            && matches!(
                                o.kind,
                                OpKind::Send {
                                    tag: TAG_RESULT,
                                    ..
                                }
                            )
                    })
                    .count();
                assert_eq!(
                    results + 1,
                    tasks,
                    "np={np} worker {w}: one result per task"
                );
            }
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

    #[test]
    fn recoverable_matches_seq_without_faults() {
        let config = DrugConfig {
            num_ligands: 30,
            ..DrugConfig::default()
        };
        let ctx = ChaosContext::new(pdc_chaos::FaultPlan::new(5));
        let run = run_mpc_recoverable(&config, 3, &ctx);
        assert_eq!(run.value, run_seq(&config));
        assert!(!run.degraded);
        assert_eq!(run.attempts, 1);
        assert_eq!(run.survivors, 3);
    }

    #[test]
    fn recoverable_survives_worker_crash_in_run() {
        let config = DrugConfig {
            num_ligands: 40,
            ..DrugConfig::default()
        };
        // Rank 2 dies after its third scored task; rank 1 runs slow.
        let plan = pdc_chaos::FaultPlan::new(77)
            .with_crash(2, 2)
            .with_straggler(1, 1);
        let ctx = ChaosContext::new(plan);
        let run = run_mpc_recoverable(&config, 4, &ctx);
        assert_eq!(run.value, run_seq(&config), "recovery must be exact");
        assert!(run.degraded);
        assert_eq!(run.attempts, 1, "worker crash is recovered in-run");
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
        let plan = pdc_chaos::FaultPlan::new(13).with_drop_rate(0.3);
        let ctx = ChaosContext::new(plan);
        let run = run_mpc_recoverable(&config, 3, &ctx);
        assert_eq!(run.value, run_seq(&config));
        let s = ctx.stats();
        assert!(s.all_recovered(), "{s:?}");
    }
}
