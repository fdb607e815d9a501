//! The forest-fire simulation exemplar.
//!
//! The Module B exemplar several workshop participants "planned to
//! incorporate into their courses" (§IV-B): a probabilistic cellular
//! automaton on an N×N grid of trees. The centre tree ignites; each
//! step, every burning tree tries to ignite each unburnt 4-neighbour
//! with probability `p`, then burns out. A Monte-Carlo sweep over `p`
//! produces the classic percolation S-curve of forest damage vs. burn
//! probability — the series the module has learners plot and then
//! parallelize.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use pdc_chaos::{ChaosContext, CheckpointStore};
use pdc_mpc::{Comm, MpcError, Source, World};
use pdc_shmem::{parallel_for, Schedule, Team};

use crate::recovery::{RecoveredRun, POLL};

/// Cell states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tree {
    /// Alive and flammable.
    Unburnt,
    /// Currently on fire (for one step).
    Burning,
    /// Consumed.
    Burnt,
}

/// One simulated fire.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialResult {
    /// Percent of trees burnt when the fire dies (0–100).
    pub burned_pct: f64,
    /// Steps until no tree was burning.
    pub iterations: usize,
}

/// Sweep configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FireConfig {
    /// Forest edge length (grid is `size × size`).
    pub size: usize,
    /// Monte-Carlo trials per probability.
    pub trials: usize,
    /// Burn probabilities to sweep.
    pub probabilities: Vec<f64>,
    /// Base RNG seed; trial `(i, t)` derives its own stream from it.
    pub seed: u64,
}

impl Default for FireConfig {
    /// Workshop scale: 40×40 forest, 20 trials, p = 0.1 … 1.0.
    fn default() -> Self {
        Self {
            size: 40,
            trials: 20,
            probabilities: (1..=10).map(|i| i as f64 / 10.0).collect(),
            seed: 1871, // the Peshtigo fire
        }
    }
}

/// One point of the sweep's output series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FirePoint {
    /// Burn probability.
    pub prob: f64,
    /// Mean percent of forest burnt over the trials.
    pub avg_burned_pct: f64,
    /// Mean steps until burnout.
    pub avg_iterations: f64,
}

/// Deterministic seed of trial `trial` at probability index `prob_idx`.
pub fn trial_seed(base: u64, prob_idx: usize, trial: usize) -> u64 {
    base ^ (prob_idx as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((trial as u64).wrapping_mul(0xD1B54A32D192ED03))
}

/// Simulate one fire on a `size × size` forest with burn probability
/// `prob`, from the given seed. Deterministic in its arguments.
pub fn simulate_fire(size: usize, prob: f64, seed: u64) -> TrialResult {
    assert!(size >= 1);
    assert!((0.0..=1.0).contains(&prob), "probability in [0,1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut grid = vec![Tree::Unburnt; size * size];
    let centre = (size / 2) * size + size / 2;
    grid[centre] = Tree::Burning;
    let mut burning: Vec<usize> = vec![centre];
    let mut iterations = 0usize;

    while !burning.is_empty() {
        iterations += 1;
        let mut next: Vec<usize> = Vec::new();
        for &cell in &burning {
            let (r, c) = (cell / size, cell % size);
            // 4-neighbourhood, fixed N-S-W-E order for determinism.
            let neighbours = [
                (r > 0).then(|| cell - size),
                (r + 1 < size).then(|| cell + size),
                (c > 0).then(|| cell - 1),
                (c + 1 < size).then(|| cell + 1),
            ];
            for n in neighbours.into_iter().flatten() {
                if grid[n] == Tree::Unburnt && rng.gen::<f64>() < prob {
                    grid[n] = Tree::Burning;
                    next.push(n);
                }
            }
        }
        for &cell in &burning {
            grid[cell] = Tree::Burnt;
        }
        burning = next;
    }

    let burnt = grid.iter().filter(|&&t| t == Tree::Burnt).count();
    TrialResult {
        burned_pct: 100.0 * burnt as f64 / (size * size) as f64,
        iterations,
    }
}

/// Run flat trial `k` of the sweep: trial `k % trials` at probability
/// index `k / trials`. Every runner numbers trials this way and
/// assembles them with [`series`], so each matches [`run_seq`] exactly.
pub fn run_trial(config: &FireConfig, k: usize) -> TrialResult {
    let (pi, t) = (k / config.trials, k % config.trials);
    simulate_fire(
        config.size,
        config.probabilities[pi],
        trial_seed(config.seed, pi, t),
    )
}

/// Checkpoint key for flat trial index `k`.
fn fire_key(k: usize) -> String {
    format!("fire/{k}")
}

/// Assemble the output series from per-trial results, `trial(k)` giving
/// flat trial `k`. Means are summed in trial order, so every driver gets
/// bit-identical output.
pub fn series(config: &FireConfig, mut trial: impl FnMut(usize) -> TrialResult) -> Vec<FirePoint> {
    let n = config.trials as f64;
    config
        .probabilities
        .iter()
        .enumerate()
        .map(|(pi, &prob)| {
            let trials: Vec<TrialResult> = (0..config.trials)
                .map(|t| trial(pi * config.trials + t))
                .collect();
            FirePoint {
                prob,
                avg_burned_pct: trials.iter().map(|t| t.burned_pct).sum::<f64>() / n,
                avg_iterations: trials.iter().map(|t| t.iterations as f64).sum::<f64>() / n,
            }
        })
        .collect()
}

/// Sequential sweep.
pub fn run_seq(config: &FireConfig) -> Vec<FirePoint> {
    series(config, |k| run_trial(config, k))
}

/// Shared-memory sweep: the (probability × trial) grid of independent
/// simulations is one dynamically-scheduled parallel loop.
pub fn run_shmem(config: &FireConfig, team: &Team) -> Vec<FirePoint> {
    let npoints = config.probabilities.len();
    let total = npoints * config.trials;
    let results: Vec<parking_lot::Mutex<Option<TrialResult>>> =
        (0..total).map(|_| parking_lot::Mutex::new(None)).collect();
    parallel_for(team, 0..total, Schedule::Dynamic { chunk: 1 }, |k, _| {
        *results[k].lock() = Some(run_trial(config, k));
    });
    series(config, |k| results[k].lock().expect("trial ran"))
}

/// Message-passing sweep: trials stride across ranks; rank 0 gathers all
/// trial results, averages them in trial order, and broadcasts the series.
pub fn run_mpc(config: &FireConfig, np: usize) -> Vec<FirePoint> {
    assert!(np >= 1);
    let results = World::new(np).run(|comm| {
        let npoints = config.probabilities.len();
        let total = npoints * config.trials;
        // Round-robin ownership of flat trial indices.
        let mine: Vec<(usize, TrialResult)> = (comm.rank()..total)
            .step_by(comm.size())
            .map(|k| (k, run_trial(config, k)))
            .collect();
        let gathered = comm.gather(0, mine).unwrap();
        let points = gathered.map(|per_rank| {
            let mut flat: Vec<(usize, TrialResult)> = per_rank.into_iter().flatten().collect();
            flat.sort_by_key(|(k, _)| *k);
            series(config, |k| flat[k].1)
        });
        comm.bcast(0, points).unwrap()
    });
    results.into_iter().next().expect("at least one rank")
}

/// Tag a worker reports a checkpointed trial's flat index on.
const TAG_REPORT: i32 = 5;

/// How long rank 0 of [`sweep_recoverable`] waits, after its own stride,
/// for every trial to be reported or orphaned by a death.
const PATIENCE: Duration = Duration::from_secs(30);

/// Chaos-hardened message-passing sweep: [`sweep_recoverable`] in one
/// thread-mode world launch under the fault plan armed in `ctx`, with
/// checkpoints in `ctx`'s store. A rank whose crash point fires dies by
/// [`Comm::crash`]; rank 0 adopts its trials, so the output is
/// bit-identical to [`run_seq`].
pub fn run_mpc_recoverable(
    config: &FireConfig,
    np: usize,
    ctx: &ChaosContext,
) -> RecoveredRun<Vec<FirePoint>> {
    assert!(np >= 1);
    let outs = World::new(np)
        .with_fault_injector(Arc::clone(&ctx.injector))
        .with_retry_policy(ctx.retry)
        .run(|comm| {
            let swept = sweep_recoverable(config, &comm, &ctx.checkpoints);
            if swept.is_err() {
                comm.crash();
            }
            swept
        });
    let value = match outs.into_iter().next() {
        Some(Ok(Some(series))) => series,
        other => panic!("forest fire: rank 0 did not finish the sweep: {other:?}"),
    };
    let stats = ctx.stats();
    RecoveredRun {
        value,
        degraded: stats.any_injected(),
        survivors: np.saturating_sub(stats.crashes as usize),
        world_size: np,
    }
}

/// The recoverable sweep, written once for thread-mode and wire-mode
/// worlds. Trials stride across the ranks of `comm` as in [`run_mpc`]
/// (rank `r` owns every flat index `k` with `k % np == r`), and every
/// finished trial is saved to `store`, which every rank must see (shared
/// memory for threads, a shared directory for processes). There is no
/// barrier, shrink or collective, so no rank waits out a collective
/// timeout.
///
/// A worker takes one crash step of `comm`'s fault injector before each
/// trial. When its crash point fires, this returns `Err(Crashed)` without
/// registering the death: the caller dies its own way (a thread calls
/// [`Comm::crash`], a process aborts). A worker that finishes its stride
/// reports each index to rank 0 with [`Comm::send_reliable`]; if a report
/// fails, it crashes itself so rank 0 adopts its trials.
///
/// Rank 0 takes no crash steps. After its own stride it collects reports
/// (duplicates are harmless) until every trial is reported or owned by a
/// dead rank, then adopts each unreported trial: it restores the ones
/// the dead owner checkpointed (a counted restore) and computes the rest.
/// It marks one crash recovered per dead rank and returns the assembled
/// series; workers return `None`. If the collection outlasts 30 s,
/// rank 0 returns `Err(Timeout)`.
pub fn sweep_recoverable(
    config: &FireConfig,
    comm: &Comm,
    store: &CheckpointStore,
) -> Result<Option<Vec<FirePoint>>, MpcError> {
    let total = config.probabilities.len() * config.trials;
    let (rank, np) = (comm.rank(), comm.size());
    let injector = comm.fault_injector();
    for k in (rank..total).step_by(np) {
        if rank != 0 && injector.as_ref().is_some_and(|inj| inj.compute_step(rank)) {
            return Err(MpcError::Crashed { rank });
        }
        store.save(&fire_key(k), &run_trial(config, k));
    }
    if rank != 0 {
        for k in (rank..total).step_by(np) {
            if let Err(e) = comm.send_reliable(0, TAG_REPORT, &k) {
                comm.crash();
                return Err(e);
            }
        }
        return Ok(None);
    }
    let mut reported: Vec<bool> = (0..total).map(|k| k % np == 0).collect();
    let deadline = Instant::now() + PATIENCE;
    while (0..total).any(|k| !reported[k] && comm.is_alive(k % np)) {
        if Instant::now() >= deadline {
            return Err(MpcError::Timeout {
                waited: PATIENCE,
                operation: "forest-fire report collection",
            });
        }
        match comm.recv_timeout::<usize>(Source::Any, TAG_REPORT, POLL) {
            Ok((k, _)) => {
                if let Some(seen) = reported.get_mut(k) {
                    *seen = true;
                }
            }
            Err(MpcError::Timeout { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    for k in (0..total).filter(|&k| !reported[k]) {
        if store.load::<TrialResult>(&fire_key(k)).is_none() {
            store.save(&fire_key(k), &run_trial(config, k));
        }
    }
    if let Some(inj) = &injector {
        for _ in comm.failed_ranks() {
            inj.log().crash_recovered();
        }
    }
    Ok(Some(series(config, |k| {
        store.peek(&fire_key(k)).expect("every trial checkpointed")
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{watchdog, Spinner};
    use pdc_chaos::FaultPlan;
    use pdc_mpc::analysis::{record_into, CommLog, OpKind};
    use pdc_mpc::Tag;

    #[test]
    fn zero_probability_burns_only_centre() {
        let r = simulate_fire(11, 0.0, 42);
        assert_eq!(r.iterations, 1);
        let pct = 100.0 / 121.0;
        assert!((r.burned_pct - pct).abs() < 1e-12);
    }

    #[test]
    fn certain_fire_burns_everything() {
        let r = simulate_fire(11, 1.0, 42);
        assert!((r.burned_pct - 100.0).abs() < 1e-12);
        // Fire spreads one Manhattan ring per step from the centre: the
        // farthest corner is 10 steps away, +1 final burn-out step.
        assert_eq!(r.iterations, 11);
    }

    #[test]
    fn simulation_is_deterministic_in_seed() {
        let a = simulate_fire(25, 0.5, 7);
        let b = simulate_fire(25, 0.5, 7);
        assert_eq!(a, b);
        let c = simulate_fire(25, 0.5, 8);
        // Different seed *may* coincide, but pct+iters both matching is
        // vanishingly unlikely at p=0.5; treat as regression canary.
        assert!(a != c, "distinct seeds produced identical fires");
    }

    #[test]
    fn damage_is_monotone_ish_in_probability() {
        // Averaged over enough trials, higher p burns more forest.
        let lo = (0..30)
            .map(|t| simulate_fire(21, 0.2, t).burned_pct)
            .sum::<f64>()
            / 30.0;
        let hi = (0..30)
            .map(|t| simulate_fire(21, 0.8, t).burned_pct)
            .sum::<f64>()
            / 30.0;
        assert!(hi > lo + 20.0, "lo={lo:.1} hi={hi:.1}");
    }

    #[test]
    fn s_curve_shape() {
        // The sweep's signature shape: low p → tiny damage; high p →
        // near-total damage; the middle is, well, in the middle.
        let config = FireConfig {
            size: 31,
            trials: 16,
            ..FireConfig::default()
        };
        let series = run_seq(&config);
        let at = |p: f64| {
            series
                .iter()
                .find(|pt| (pt.prob - p).abs() < 1e-9)
                .unwrap()
                .avg_burned_pct
        };
        assert!(at(0.1) < 5.0, "p=0.1 burned {}", at(0.1));
        assert!(at(1.0) > 99.0, "p=1.0 burned {}", at(1.0));
        assert!(at(0.5) > at(0.2), "mid must exceed low");
        assert!(at(0.9) > at(0.5), "high must exceed mid");
    }

    #[test]
    fn shmem_bitwise_matches_seq() {
        let config = FireConfig {
            size: 15,
            trials: 6,
            ..FireConfig::default()
        };
        let want = run_seq(&config);
        for threads in [1, 2, 4] {
            assert_eq!(run_shmem(&config, &Team::new(threads)), want, "t={threads}");
        }
    }

    #[test]
    fn mpc_bitwise_matches_seq() {
        let config = FireConfig {
            size: 15,
            trials: 6,
            probabilities: vec![0.3, 0.6, 0.9],
            ..FireConfig::default()
        };
        let want = run_seq(&config);
        for np in [1, 2, 3, 4] {
            assert_eq!(run_mpc(&config, np), want, "np={np}");
        }
    }

    #[test]
    fn one_by_one_forest() {
        let r = simulate_fire(1, 0.7, 0);
        assert_eq!(r.burned_pct, 100.0);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    #[should_panic(expected = "probability in [0,1]")]
    fn bad_probability_rejected() {
        simulate_fire(5, 1.5, 0);
    }

    /// Run `run_mpc_recoverable` under `plan` on the watchdog; returns the
    /// run and its context, for the ledger.
    fn recover(
        config: &FireConfig,
        np: usize,
        plan: FaultPlan,
    ) -> (RecoveredRun<Vec<FirePoint>>, ChaosContext) {
        let ctx = ChaosContext::new(plan);
        let (c, x) = (config.clone(), ctx.clone());
        let what = format!("run_mpc_recoverable(np={np}, {:?})", ctx.plan());
        let run = watchdog(what, move || run_mpc_recoverable(&c, np, &x));
        (run, ctx)
    }

    #[test]
    fn recoverable_matches_seq_without_faults() {
        let config = FireConfig {
            size: 15,
            trials: 4,
            probabilities: vec![0.3, 0.7],
            ..FireConfig::default()
        };
        let (run, _) = recover(&config, 3, FaultPlan::new(7));
        assert_eq!(run.value, run_seq(&config));
        assert!(!run.degraded);
        assert_eq!(run.survivors, 3);
    }

    #[test]
    fn recoverable_survives_drops_straggler_and_crash() {
        let config = FireConfig {
            size: 15,
            trials: 5,
            probabilities: vec![0.3, 0.6, 0.9],
            ..FireConfig::default()
        };
        let plan = FaultPlan::new(42)
            .with_drop_rate(0.3)
            .with_straggler(1, 1)
            .with_crash(2, 2);
        let (run, ctx) = recover(&config, 4, plan);
        assert_eq!(run.value, run_seq(&config), "recovery must be exact");
        assert!(run.degraded);
        assert_eq!(run.survivors, 3);
        let s = ctx.stats();
        assert_eq!(s.crashes, 1, "scheduled crash fired");
        assert!(s.all_recovered(), "{s:?}");
    }

    #[test]
    fn recoverable_is_deterministic_in_recoverable_counters() {
        let config = FireConfig {
            size: 11,
            trials: 4,
            probabilities: vec![0.4, 0.8],
            ..FireConfig::default()
        };
        let run_once = || {
            let plan = FaultPlan::new(99).with_drop_rate(0.25).with_crash(1, 3);
            let (run, ctx) = recover(&config, 3, plan);
            let s = ctx.stats();
            (
                run.value,
                run.survivors,
                s.drops,
                s.crashes,
                s.recoverable_injected(),
                s.recovered(),
                s.checkpoints_saved,
                s.checkpoints_restored,
            )
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn recoverable_adopts_the_dead_rank_under_any_schedule() {
        // The chaos study's fire plan and world: rank 2 dies before its
        // third of ten trials, so rank 0 restores the two it saved and
        // computes the other eight, whatever the schedule.
        let config = FireConfig {
            size: 15,
            trials: 4,
            ..FireConfig::default()
        };
        let plan = || {
            FaultPlan::new(2020)
                .with_drop_rate(0.2)
                .with_straggler(1, 1)
                .with_crash(2, 2)
        };
        let want = run_seq(&config);
        let _spinner = Spinner::start();
        let mut first = None;
        for n in 0..20 {
            let (run, ctx) = recover(&config, 4, plan());
            let s = ctx.stats();
            assert_eq!(s.crashes, 1, "run {n}: the crash fired");
            assert_eq!(s.checkpoints_restored, 2, "run {n}");
            assert_eq!(run.value, want, "run {n}");
            assert_eq!(*first.get_or_insert(s), s, "run {n}: the ledger moved");
        }
    }

    #[test]
    fn recoverable_sends_one_report_per_worker_trial() {
        let config = FireConfig {
            size: 11,
            trials: 3,
            probabilities: vec![0.2, 0.5, 0.8, 1.0],
            ..FireConfig::default()
        };
        let total = 12;
        for np in [2, 3, 5] {
            let what = format!("np={np}");
            let log = CommLog::new();
            let (c, l) = (config.clone(), log.clone());
            let value = watchdog(what.clone(), move || {
                record_into(&l, || {
                    run_mpc_recoverable(&c, np, &ChaosContext::new(FaultPlan::new(3))).value
                })
            });
            assert_eq!(value, run_seq(&config), "{what}");
            let runs = log.take();
            assert_eq!(runs.len(), 1, "{what}");
            let sends: Vec<Tag> = runs[0]
                .ops
                .iter()
                .filter_map(|o| match o.kind {
                    OpKind::Send {
                        user: true, tag, ..
                    } => Some(tag),
                    _ => None,
                })
                .collect();
            let worker_trials = (0..total).filter(|k| k % np != 0).count();
            assert_eq!(sends.len(), worker_trials, "{what}");
            assert!(sends.iter().all(|&t| t == TAG_REPORT), "{what}: {sends:?}");
        }
    }
}
