//! The chaos study: Module B's exemplars run under a canonical fault
//! plan, recover, and report degraded-but-valid rows.
//!
//! The paper's remote-learning substrates fail in predictable ways — a
//! student's Pi node dies mid-run, a home network drops packets, one
//! free-tier VM runs hot and slow. This module packages those failure
//! classes as *canonical fault plans* (seeded, deterministic) and runs
//! both Module B studies under them with the recoverable runners from
//! `pdc-exemplars`. The output is a [`ChaosReport`]: per-study rows
//! flagged `degraded` where faults were injected, plus the fault/
//! recovery ledger CI asserts over (`faults_recovered` must equal the
//! recoverable `faults_injected`).
//!
//! Everything in the report is a pure function of the seed — no wall
//! timings — so two runs with the same seed produce byte-identical
//! artifacts (`reproduce --chaos` relies on this).

use serde::{Deserialize, Serialize};

use pdc_chaos::{ChaosContext, FaultPlan, FaultStats};
use pdc_exemplars::{drugdesign, forestfire};

use crate::study::Scale;

/// World size every canonical chaos run uses.
pub const CHAOS_NP: usize = 4;

/// Canonical fault plan for the forest-fire sweep: lossy network (20%
/// user-message drops — the flaky home Wi-Fi), one straggler rank (the
/// thermal-throttling Pi), and one mid-run crash (the dead node).
///
/// The sweep's message sequence is deterministic, so drop faults keep
/// the ledger deterministic too.
pub fn canonical_fire_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_drop_rate(0.2)
        .with_straggler(1, 1)
        .with_crash(2, 2)
}

/// Canonical fault plan for the drug-design master-worker run: one
/// straggler and one worker crash mid-study.
///
/// No probabilistic message faults here: master-worker dealing is
/// scheduling-dependent, so per-message faults would make the ledger
/// nondeterministic. A crash step counts the tasks the doomed worker
/// receives, and which worker wins each deal depends on the schedule; the
/// master therefore holds back queued tasks until the doomed worker has
/// been dealt the one its crash point names. The crash always fires, so
/// the ledger stays a pure function of the seed.
pub fn canonical_drug_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with_straggler(1, 1).with_crash(2, 2)
}

/// Row names of the two studies; a row finds its canonical plan by name.
const FIRE_ROW: &str = "forest fire (Monte-Carlo sweep)";
const DRUG_ROW: &str = "drug design (master-worker)";

/// Crashes the canonical plan of the study row named `exemplar` schedules.
fn scheduled_crashes(exemplar: &str, seed: u64) -> u64 {
    let plan = match exemplar {
        FIRE_ROW => canonical_fire_plan(seed),
        DRUG_ROW => canonical_drug_plan(seed),
        _ => return 0,
    };
    plan.crashes.len() as u64
}

/// The deterministic slice of the fault/recovery ledger a chaos row
/// reports. Timing-ish counters (retries, straggler delays) are
/// deliberately absent: they are visible in `--trace` summaries, but an
/// artifact that must be byte-identical across runs cannot carry them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosCounters {
    /// User messages dropped by rate-based injection.
    pub drops: u64,
    /// User messages dropped by a partition window.
    pub partition_drops: u64,
    /// Ranks crashed by schedule.
    pub crashes: u64,
    /// Drops recovered by reliable-send retransmission.
    pub drops_recovered: u64,
    /// Crashes recovered: one per dead rank whose work survivors took
    /// over (drug design's master re-deals its tasks, forest fire's rank
    /// 0 adopts its trials).
    pub crashes_recovered: u64,
    /// Recoverable faults injected (drops + partition drops + crashes).
    pub recoverable_injected: u64,
    /// Recoverable faults recovered.
    pub recovered: u64,
    /// Checkpoints written.
    pub checkpoints_saved: u64,
    /// Checkpoints read back as restored work.
    pub checkpoints_restored: u64,
    /// Survivor communicators built (ULFM-style shrink calls).
    pub shrinks: u64,
}

impl ChaosCounters {
    /// Project the deterministic slice out of a full ledger snapshot.
    pub fn from_stats(s: &FaultStats) -> Self {
        Self {
            drops: s.drops,
            partition_drops: s.partition_drops,
            crashes: s.crashes,
            drops_recovered: s.drops_recovered,
            crashes_recovered: s.crashes_recovered,
            recoverable_injected: s.recoverable_injected(),
            recovered: s.recovered(),
            checkpoints_saved: s.checkpoints_saved,
            checkpoints_restored: s.checkpoints_restored,
            shrinks: s.shrinks,
        }
    }

    /// The CI invariant: every recoverable fault was recovered.
    pub fn all_recovered(&self) -> bool {
        self.recovered == self.recoverable_injected
    }
}

/// One study row of the chaos report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosStudyRow {
    /// Exemplar name.
    pub exemplar: String,
    /// `"ok"` or `"degraded"` (faults injected, value still exact).
    pub status: String,
    /// True when the recovered value equals the fault-free run's.
    pub matches_fault_free: bool,
    /// Ranks alive at the end.
    pub survivors: usize,
    /// World size the run started with.
    pub world_size: usize,
    /// This row's fault/recovery ledger (each study runs under its own
    /// [`ChaosContext`], so counts are per-exemplar, not cumulative).
    pub counters: ChaosCounters,
}

/// The full chaos study artifact (`artifacts/BENCH_chaos.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Seed the canonical plans were built from.
    pub seed: u64,
    /// World size used.
    pub world_size: usize,
    /// Per-exemplar rows.
    pub rows: Vec<ChaosStudyRow>,
}

impl ChaosReport {
    /// True when every row recovered every recoverable fault, fired every
    /// crash its canonical plan schedules, and still matched the
    /// fault-free value — what the CI chaos job asserts. A scheduled crash
    /// that never fired left its recovery path unexercised, so a row with
    /// too few crashes fails even though it has nothing left unrecovered.
    pub fn all_recovered(&self) -> bool {
        self.rows.iter().all(|r| {
            r.counters.all_recovered()
                && r.matches_fault_free
                && r.counters.crashes >= scheduled_crashes(&r.exemplar, self.seed)
        })
    }

    /// Human-readable rendering for the terminal.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Chaos study (seed {}, np {}): {} studies\n",
            self.seed,
            self.world_size,
            self.rows.len()
        );
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<34} {:<9} survivors {}/{} exact {}\n",
                r.exemplar, r.status, r.survivors, r.world_size, r.matches_fault_free
            ));
            let c = &r.counters;
            out.push_str(&format!(
                "    injected: {} drops, {} partition drops, {} crashes — recovered {}/{}\n",
                c.drops, c.partition_drops, c.crashes, c.recovered, c.recoverable_injected
            ));
            out.push_str(&format!(
                "    checkpoints: {} saved, {} restored; shrinks: {}\n",
                c.checkpoints_saved, c.checkpoints_restored, c.shrinks
            ));
        }
        out.push_str(&format!(
            "  verdict: {}\n",
            if self.all_recovered() {
                "all recoverable faults recovered; values exact"
            } else {
                "UNRECOVERED FAULTS, MISSED CRASHES OR INEXACT VALUES"
            }
        ));
        out
    }

    /// Deterministic JSON (pretty, sorted keys — byte-identical for a
    /// fixed seed).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

/// Run both Module B exemplars under their canonical fault plans and
/// assemble the report. Deterministic in `seed`.
pub fn module_b_chaos_study(seed: u64, scale: Scale) -> ChaosReport {
    let (grid, trials, ligands) = match scale {
        Scale::Quick => (15usize, 4usize, 24usize),
        Scale::Full => (40, 20, 120),
    };
    let mut rows = Vec::new();

    let fire_config = forestfire::FireConfig {
        size: grid,
        trials,
        ..Default::default()
    };
    let fire_ctx = ChaosContext::new(canonical_fire_plan(seed));
    let fire_run = forestfire::run_mpc_recoverable(&fire_config, CHAOS_NP, &fire_ctx);
    let fire_ok = fire_run.value == forestfire::run_seq(&fire_config);
    rows.push(ChaosStudyRow {
        exemplar: FIRE_ROW.into(),
        status: fire_run.status().into(),
        matches_fault_free: fire_ok,
        survivors: fire_run.survivors,
        world_size: fire_run.world_size,
        counters: ChaosCounters::from_stats(&fire_ctx.stats()),
    });

    let drug_config = drugdesign::DrugConfig {
        num_ligands: ligands,
        ..Default::default()
    };
    let drug_ctx = ChaosContext::new(canonical_drug_plan(seed));
    let drug_run = drugdesign::run_mpc_recoverable(&drug_config, CHAOS_NP, &drug_ctx);
    let drug_ok = drug_run.value == drugdesign::run_seq(&drug_config);
    rows.push(ChaosStudyRow {
        exemplar: DRUG_ROW.into(),
        status: drug_run.status().into(),
        matches_fault_free: drug_ok,
        survivors: drug_run.survivors,
        world_size: drug_run.world_size,
        counters: ChaosCounters::from_stats(&drug_ctx.stats()),
    });

    ChaosReport {
        seed,
        world_size: CHAOS_NP,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_study_recovers_everything() {
        let report = module_b_chaos_study(2020, Scale::Quick);
        assert_eq!(report.rows.len(), 2);
        assert!(report.all_recovered(), "{}", report.render());
        for r in &report.rows {
            assert_eq!(r.status, "degraded", "canonical plans inject faults");
            assert!(r.matches_fault_free, "{}: value drifted", r.exemplar);
            assert_eq!(r.world_size, CHAOS_NP);
            assert_eq!(r.survivors, CHAOS_NP - 1, "one scheduled crash");
            assert!(r.counters.crashes >= 1);
        }
    }

    #[test]
    fn a_scheduled_crash_that_never_fired_fails_the_verdict() {
        // The drug row a run writes when its crash never fires: nothing
        // injected, so nothing left unrecovered, and the value is exact.
        let missed = ChaosStudyRow {
            exemplar: DRUG_ROW.into(),
            status: "degraded".into(),
            matches_fault_free: true,
            survivors: CHAOS_NP,
            world_size: CHAOS_NP,
            counters: ChaosCounters {
                drops: 0,
                partition_drops: 0,
                crashes: 0,
                drops_recovered: 0,
                crashes_recovered: 0,
                recoverable_injected: 0,
                recovered: 0,
                checkpoints_saved: 24,
                checkpoints_restored: 0,
                shrinks: 4,
            },
        };
        assert!(missed.counters.all_recovered());
        let report = |row: ChaosStudyRow| ChaosReport {
            seed: 2020,
            world_size: CHAOS_NP,
            rows: vec![row],
        };
        let bad = report(missed.clone());
        assert!(!bad.all_recovered(), "{}", bad.render());
        assert!(bad.render().contains("MISSED CRASHES"));
        // The same row once its crash fired and was recovered passes.
        let mut fired = missed;
        fired.survivors = CHAOS_NP - 1;
        fired.counters.crashes = 1;
        fired.counters.crashes_recovered = 1;
        fired.counters.recoverable_injected = 1;
        fired.counters.recovered = 1;
        fired.counters.shrinks = 3;
        assert!(report(fired).all_recovered());
    }

    #[test]
    fn chaos_report_is_deterministic_for_a_seed() {
        let a = module_b_chaos_study(7, Scale::Quick);
        let b = module_b_chaos_study(7, Scale::Quick);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn different_seeds_change_the_fault_history() {
        // Drop *counts* can coincide across two seeds, so sample a few:
        // some pair must differ if decisions really depend on the seed.
        let drops: Vec<u64> = (1..=3)
            .map(|s| module_b_chaos_study(s, Scale::Quick).rows[0].counters.drops)
            .collect();
        assert!(
            drops.iter().any(|&d| d != drops[0]) || drops[0] > 0,
            "no drops injected across any seed: {drops:?}"
        );
    }

    #[test]
    fn report_renders_and_serializes() {
        let report = module_b_chaos_study(3, Scale::Quick);
        let text = report.render();
        assert!(text.contains("forest fire"));
        assert!(text.contains("drug design"));
        assert!(text.contains("all recoverable faults recovered"));
        let back: ChaosReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }
}
