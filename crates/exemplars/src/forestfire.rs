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
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use pdc_chaos::ChaosContext;
use pdc_mpc::{Comm, MpcError, Source, World};
use pdc_shmem::{parallel_for, Schedule, Team};

use crate::recovery::RecoveredRun;

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
/// index `k / trials`. Public, with [`fire_key`] and [`series`], so
/// distributed drivers (e.g. the wire-mode study in `pdc-core`) number,
/// checkpoint and assemble trials exactly as [`run_seq`] does.
pub fn run_trial(config: &FireConfig, k: usize) -> TrialResult {
    let (pi, t) = (k / config.trials, k % config.trials);
    simulate_fire(
        config.size,
        config.probabilities[pi],
        trial_seed(config.seed, pi, t),
    )
}

/// Checkpoint key for flat trial index `k`.
pub fn fire_key(k: usize) -> String {
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

/// Tag recoverable workers use to report `(flat trial index, result)`.
const TAG_FIRE_RESULT: i32 = 5;

/// Chaos-hardened message-passing sweep: [`run_mpc`] rebuilt to survive
/// the fault plan armed in `ctx`.
///
/// Trials keep the same round-robin ownership as `run_mpc`, but every
/// completed trial is checkpointed on rank 0 the moment it exists:
/// workers push `(k, result)` to rank 0 with [`Comm::send_reliable`]
/// (at-least-once beats the lossy user plane), and rank 0 banks its own
/// trials directly. A rank whose crash schedule fires unwinds
/// cooperatively; the driver relaunches the world — *sharing the same
/// injector*, so consumed crash points stay consumed — and the restart
/// skips everything already checkpointed. Trials a dead rank never
/// finished are recomputed inline at the end, so the sweep always
/// completes and the output is bit-identical to [`run_seq`].
pub fn run_mpc_recoverable(
    config: &FireConfig,
    np: usize,
    ctx: &ChaosContext,
) -> RecoveredRun<Vec<FirePoint>> {
    assert!(np >= 1);
    let total = config.probabilities.len() * config.trials;
    let store = &ctx.checkpoints;
    let log = ctx.injector.log();
    // One restart per scheduled crash, plus one slack attempt.
    let max_attempts = ctx.plan().crashes.len() as u32 + 2;
    let mut attempts = 0u32;
    while attempts < max_attempts && !(0..total).all(|k| store.contains(&fire_key(k))) {
        attempts += 1;
        World::new(np)
            .with_fault_injector(Arc::clone(&ctx.injector))
            .with_retry_policy(ctx.retry)
            .run(|comm| fire_attempt(config, ctx, &comm));
    }
    // Trials still missing (owned by a rank that died in the final
    // attempt) are recomputed inline: degraded, but the sweep completes
    // with full, bit-identical data.
    for k in 0..total {
        if !store.contains(&fire_key(k)) {
            store.save(&fire_key(k), &run_trial(config, k));
        }
    }
    // The sweep completed despite every crash that fired: mark them
    // recovered so the ledger reconciles (recovered == recoverable).
    let s = log.stats();
    for _ in s.crashes_recovered..s.crashes {
        log.crash_recovered();
    }
    let value = series(config, |k| {
        store.peek(&fire_key(k)).expect("all trials checkpointed")
    });
    let stats = ctx.stats();
    RecoveredRun {
        value,
        degraded: stats.any_injected(),
        attempts,
        survivors: np.saturating_sub(stats.crashes as usize),
        world_size: np,
    }
}

/// One world launch of the recoverable sweep. Returns `true` if this
/// rank crashed (information only; the driver decides what to do next).
fn fire_attempt(config: &FireConfig, ctx: &ChaosContext, comm: &Comm) -> bool {
    let total = config.probabilities.len() * config.trials;
    let np = comm.size();
    let store = &ctx.checkpoints;
    if comm.rank() == 0 {
        let bank = |k: usize, r: &TrialResult| {
            if !store.contains(&fire_key(k)) {
                store.save(&fire_key(k), r);
            }
        };
        // Drain any worker results already waiting, without blocking.
        let drain = || {
            while comm.iprobe(Source::Any, TAG_FIRE_RESULT).is_some() {
                match comm.recv::<(usize, TrialResult)>(Source::Any, TAG_FIRE_RESULT) {
                    Ok((k, r)) => bank(k, &r),
                    Err(_) => break,
                }
            }
        };
        for k in (0..total).step_by(np) {
            if comm.chaos_step().is_err() {
                return true; // rank 0's own crash: unwind, driver restarts
            }
            // `load` (not `peek`): skipping a trial a previous attempt
            // banked *is* restored work, and is counted as such.
            if store.load::<TrialResult>(&fire_key(k)).is_none() {
                let r = run_trial(config, k);
                store.save(&fire_key(k), &r);
            }
            drain();
        }
        // Collection: wait for the remaining worker results. Stop when
        // everything is banked, or the only missing trials belong to
        // dead ranks (a restart or the inline fallback will cover them).
        let mut idle_rounds = 0u32;
        loop {
            let missing: Vec<usize> = (0..total)
                .filter(|&k| !store.contains(&fire_key(k)))
                .collect();
            if missing.is_empty() {
                return false;
            }
            if missing.iter().all(|&k| !comm.is_alive(k % np)) {
                return false;
            }
            match comm.recv_timeout::<(usize, TrialResult)>(
                Source::Any,
                TAG_FIRE_RESULT,
                Duration::from_millis(100),
            ) {
                Ok(((k, r), _)) => {
                    bank(k, &r);
                    idle_rounds = 0;
                }
                Err(MpcError::Timeout { .. }) => {
                    idle_rounds += 1;
                    if idle_rounds > 100 {
                        return false; // safety valve (~10 s of silence)
                    }
                }
                Err(_) => return false,
            }
        }
    } else {
        for k in (comm.rank()..total).step_by(np) {
            if comm.chaos_step().is_err() {
                return true;
            }
            if store.load::<TrialResult>(&fire_key(k)).is_some() {
                continue; // restored from a previous attempt
            }
            let r = run_trial(config, k);
            if comm.send_reliable(0, TAG_FIRE_RESULT, &(k, r)).is_err() {
                return true; // master gone or delivery failed: unwind
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn recoverable_matches_seq_without_faults() {
        let config = FireConfig {
            size: 15,
            trials: 4,
            probabilities: vec![0.3, 0.7],
            ..FireConfig::default()
        };
        let ctx = ChaosContext::new(pdc_chaos::FaultPlan::new(7));
        let run = run_mpc_recoverable(&config, 3, &ctx);
        assert_eq!(run.value, run_seq(&config));
        assert!(!run.degraded);
        assert_eq!(run.attempts, 1);
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
        let plan = pdc_chaos::FaultPlan::new(42)
            .with_drop_rate(0.3)
            .with_straggler(1, 1)
            .with_crash(2, 2);
        let ctx = ChaosContext::new(plan);
        let run = run_mpc_recoverable(&config, 4, &ctx);
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
        let make_plan = || {
            pdc_chaos::FaultPlan::new(99)
                .with_drop_rate(0.25)
                .with_crash(1, 3)
        };
        let run_once = || {
            let ctx = ChaosContext::new(make_plan());
            let run = run_mpc_recoverable(&config, 3, &ctx);
            let s = ctx.stats();
            (
                run.value,
                run.attempts,
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
}
