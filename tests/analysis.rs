//! Integration: the `pdc-analyze` detectors over the real runtimes.
//!
//! True positives: the deliberately broken programs (the `sm.race`
//! patternlet, a mismatched collective, a receive-receive deadlock)
//! must be flagged with actionable diagnostics. True negatives: the
//! fixed ladder rungs and clean communication patterns must produce no
//! findings. Plus byte-identical determinism of the full study artifact.
//! The offline path (JSONL trace -> same analyzer) has its own binary,
//! `tests/offline_analysis.rs`.

use std::time::Duration;

use pdc_analyze::{with_comm_analysis, with_race_analysis};
use pdc_mpc::World;
use pdc_patternlets::registry;

/// Timeout for the deliberately broken communication scenarios.
const BROKEN_TIMEOUT: Duration = Duration::from_millis(75);

#[test]
fn race_detector_flags_the_racy_patternlet_with_both_sites() {
    let racy = registry::find("sm.race").expect("sm.race is in the catalog");
    let (_, diags) = with_race_analysis(|| racy.run(4));
    assert!(
        !diags.is_empty(),
        "the known-racy patternlet must be detected"
    );
    for d in &diags {
        assert_eq!(d.code, "race.data-race");
        assert!(d.is_error());
        assert!(
            d.sites.iter().all(|s| s.contains("races.rs:")),
            "sites must point into the patternlet source: {:?}",
            d.sites
        );
    }
    // The unprotected counter update races read-vs-write *and*
    // write-vs-write; the detector reports both distinct pairs.
    assert_eq!(diags.len(), 2, "expected both racing access pairs");
}

#[test]
fn race_detector_stays_quiet_on_the_fixed_ladder_rungs() {
    for id in [
        "sm.private",
        "sm.critical",
        "sm.atomic",
        "sm.locks",
        "sm.reduction",
    ] {
        let p = registry::find(id).expect("ladder rung is in the catalog");
        let (_, diags) = with_race_analysis(|| p.run(4));
        assert!(
            diags.is_empty(),
            "{id} is a correct fix but was flagged: {:?}",
            diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
        );
    }
}

#[test]
fn comm_analyzer_accepts_clean_collectives() {
    let (_, diags) = with_comm_analysis(|| {
        World::new(2).run(|comm| {
            let v = comm
                .bcast(0, if comm.rank() == 0 { Some(17u64) } else { None })
                .expect("bcast");
            comm.barrier().expect("barrier");
            let _ = comm.reduce(0, v, |a: u64, b| a + b).expect("reduce");
        });
    });
    assert!(
        diags.is_empty(),
        "clean collectives flagged: {:?}",
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
    );
}

#[test]
fn comm_analyzer_names_both_sides_of_a_collective_mismatch() {
    let (_, diags) = with_comm_analysis(|| {
        World::new(2)
            .with_collective_timeout(BROKEN_TIMEOUT)
            .run(|comm| {
                if comm.rank() == 0 {
                    let _ = comm.bcast(0, Some(1u64));
                } else {
                    let _ = comm.barrier();
                }
            });
    });
    let mismatch = diags
        .iter()
        .find(|d| d.code == "comm.collective-mismatch")
        .expect("mismatched collective must be detected");
    assert!(mismatch.is_error());
    assert!(
        mismatch.message.contains("bcast") && mismatch.message.contains("barrier"),
        "diagnostic must name the diverging collectives: {}",
        mismatch.message
    );
}

#[test]
fn comm_analyzer_reports_the_deadlock_cycle_path() {
    let (_, diags) = with_comm_analysis(|| {
        World::new(2).run(|comm| {
            // Both ranks receive first: the 0 -> 1 -> 0 wait-for cycle.
            let other = 1 - comm.rank();
            let _: Result<(u64, _), _> = comm.recv_timeout(other, 0, BROKEN_TIMEOUT);
        });
    });
    let cycle = diags
        .iter()
        .find(|d| d.code == "comm.deadlock-cycle")
        .expect("receive-receive deadlock must be detected");
    assert!(cycle.is_error());
    assert!(
        cycle.message.contains("0 -> 1 -> 0"),
        "diagnostic must spell out the cycle: {}",
        cycle.message
    );
}

#[test]
fn catalog_lint_is_clean() {
    let diags = pdc_analyze::lint::lint_catalog();
    assert!(
        diags.is_empty(),
        "catalog lint found problems: {:?}",
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
    );
}

#[test]
fn analysis_artifact_is_byte_identical_across_runs() {
    let first = pdc_core::analysis::full_analysis(pdc_core::study::Scale::Quick);
    let second = pdc_core::analysis::full_analysis(pdc_core::study::Scale::Quick);
    assert!(first.passed(), "the canonical study must pass");
    assert_eq!(
        first.to_json(),
        second.to_json(),
        "BENCH_analyze.json must be deterministic"
    );
}
