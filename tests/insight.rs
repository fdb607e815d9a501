//! Integration: the `pdc-insight` analytics pipeline end to end —
//! histograms merged across processes, critical-path extraction on a
//! hand-built 3-rank trace with a known longest path, the committed
//! perfbench count baselines `pdc-insight diff` gates on, and the
//! deterministic `reproduce --insight` artifact.

use pdc_analyze::traceio::parse_jsonl;
use pdc_insight::{critical_path, diff, HistogramSet, InsightReport};
use pdc_trace::Histogram;

/// Serialize one aggregated histogram line the way `hist_jsonl` does,
/// stamped with the emitting process's pid.
fn hist_line(cat: &str, name: &str, pid: u64, h: &Histogram) -> String {
    format!(
        "{{\"kind\":\"hist\",\"cat\":\"{cat}\",\"name\":\"{name}\",\"pid\":{pid},{}\n",
        &h.to_json()[1..]
    )
}

#[test]
fn histograms_merge_across_processes() {
    // Three "rank processes" each record a third of the samples into
    // their own local histogram; a fourth reference histogram sees all
    // of them in one pass.
    let mut reference = Histogram::new();
    let mut jsonl = String::new();
    for rank in 0..3u64 {
        let mut local = Histogram::new();
        for i in 0..200u64 {
            // Deterministic spread over ~3 decades, different per rank.
            let v = 1_000 + (rank * 200 + i) * (rank * 977 + 313);
            local.record(v);
            reference.record(v);
        }
        jsonl.push_str(&hist_line("net", "frame_rtt", 4000 + rank, &local));
    }

    let set = HistogramSet::from_lines(&parse_jsonl(&jsonl));
    let merged = set.get("net", "frame_rtt").expect("folded histogram");

    assert_eq!(merged.count(), 600);
    assert_eq!(merged.count(), reference.count());
    // Bucketed merge is exact at bucket granularity: every quantile of
    // the fold equals the quantile of single-pass recording, and the
    // extremes match a reference round-tripped through the same sparse
    // bucket serialization (exact min/max collapse to bucket bounds).
    assert_eq!(merged.quantiles(), reference.quantiles());
    let round_tripped = Histogram::from_buckets(&reference.nonzero_buckets());
    assert_eq!(merged.min(), round_tripped.min());
    assert_eq!(merged.max(), round_tripped.max());
}

#[test]
fn histogram_set_keeps_metrics_separate_while_folding_pids() {
    let mut a = Histogram::new();
    a.record(10);
    let mut b = Histogram::new();
    b.record(1_000_000);
    let jsonl = [
        hist_line("net", "heartbeat_gap", 1, &a),
        hist_line("net", "heartbeat_gap", 2, &a),
        hist_line("net", "frame_rtt", 1, &b),
    ]
    .concat();

    let set = HistogramSet::from_lines(&parse_jsonl(&jsonl));
    assert_eq!(set.len(), 2);
    assert_eq!(set.get("net", "heartbeat_gap").unwrap().count(), 2);
    assert_eq!(set.get("net", "frame_rtt").unwrap().count(), 1);
}

/// A hand-built 3-rank (3-process) trace with one known longest path.
///
/// Timeline (ns), one lane per pid, tids all 1:
///
/// ```text
/// rank0 (pid 100): setup[0,20)  recv[20,95)              reduce[95,110)
/// rank1 (pid 200): work [0,40)  send->0 [40,50)
/// rank2 (pid 300): work [0,80)  send->0 [80,90)
/// ```
///
/// rank0's recv of rank2's result returns at 95; the longest chain is
/// rank2 work (80 compute) -> rank2 send (10 wire) -> the tail of
/// rank0's recv [90,95) (5 wire) -> reduce (15 compute), for
/// 95 compute + 15 wire = 110 ns with zero idle.
fn three_rank_jsonl() -> String {
    let mut s = String::new();
    let span = |s: &mut String, pid: u64, name: &str, ts: u64, dur: u64| {
        s.push_str(&format!(
            "{{\"kind\":\"span\",\"cat\":\"app\",\"name\":\"{name}\",\"ts_ns\":{ts},\"tid\":1,\"pid\":{pid},\"dur_ns\":{dur}}}\n"
        ));
    };
    let msg = |s: &mut String, pid: u64, name: &str, ts: u64, dur: u64, src: u64, dst: u64| {
        s.push_str(&format!(
            "{{\"kind\":\"span\",\"cat\":\"mpc\",\"name\":\"{name}\",\"ts_ns\":{ts},\"tid\":1,\"pid\":{pid},\"dur_ns\":{dur},\"args\":{{\"src\":{src},\"dst\":{dst},\"tag\":7}}}}\n"
        ));
    };
    span(&mut s, 100, "setup", 0, 20);
    msg(&mut s, 100, "recv", 20, 75, 2, 0); // matches rank2's send
    span(&mut s, 100, "reduce", 95, 15);
    span(&mut s, 200, "work", 0, 40);
    msg(&mut s, 200, "send", 40, 10, 1, 0);
    span(&mut s, 300, "work", 0, 80);
    msg(&mut s, 300, "send", 80, 10, 2, 0);
    s
}

#[test]
fn critical_path_follows_the_slowest_rank_across_the_wire() {
    let lines = parse_jsonl(&three_rank_jsonl());
    let cp = critical_path(&lines).expect("path");

    assert_eq!(cp.wall_ns, 110);
    assert_eq!(cp.breakdown.compute_ns, 95);
    assert_eq!(cp.breakdown.wire_ns, 15);
    assert_eq!(cp.breakdown.idle_ns, 0);
    assert_eq!(cp.breakdown.total_ns(), cp.wall_ns);

    // The path must visit rank0 and rank2 but never rank1: rank1's
    // send was not the last arrival rank0 waited on.
    let pids: Vec<Option<u64>> = cp.steps.iter().map(|s| cp.lanes[s.lane].pid).collect();
    assert!(pids.contains(&Some(100)));
    assert!(pids.contains(&Some(300)));
    assert!(!pids.contains(&Some(200)));

    // Walking backward, the jump off rank0's recv lands inside rank2's
    // send — the happens-before edge crosses processes.
    let first_wire = cp
        .steps
        .iter()
        .find(|s| s.name == "send")
        .expect("send step on the path");
    assert_eq!(cp.lanes[first_wire.lane].pid, Some(300));
}

#[test]
fn faster_remote_work_moves_the_critical_path() {
    // When the remote rank finishes well before the recv even starts,
    // the happens-before edge is not binding: the recv's own duration
    // is the cost, and the path never leaves rank0.
    let jsonl = r#"
{"kind":"span","cat":"app","name":"setup","ts_ns":0,"tid":1,"pid":100,"dur_ns":20}
{"kind":"span","cat":"mpc","name":"recv","ts_ns":20,"tid":1,"pid":100,"dur_ns":5,"args":{"src":2,"dst":0,"tag":7}}
{"kind":"span","cat":"app","name":"reduce","ts_ns":25,"tid":1,"pid":100,"dur_ns":15}
{"kind":"span","cat":"app","name":"work","ts_ns":0,"tid":1,"pid":300,"dur_ns":8}
{"kind":"span","cat":"mpc","name":"send","ts_ns":8,"tid":1,"pid":300,"dur_ns":2,"args":{"src":2,"dst":0,"tag":7}}
"#;
    let cp = critical_path(&parse_jsonl(jsonl)).expect("path");
    assert_eq!(cp.wall_ns, 40);
    // The recv is no longer the bottleneck's tail: the whole recv span
    // counts as wire on rank0's own lane, and rank2 never appears.
    assert!(cp.steps.iter().all(|s| cp.lanes[s.lane].pid == Some(100)));
    assert_eq!(cp.breakdown.compute_ns, 35);
    assert_eq!(cp.breakdown.wire_ns, 5);
}

fn perf_counts(workload: &str) -> String {
    let path = format!(
        "{}/tests/golden/perf_counts/{workload}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn committed_count_baselines_gate_themselves() {
    for w in ["moduleA-shmem", "moduleB-threads", "moduleB-wire"] {
        let base = perf_counts(w);
        assert_eq!(
            diff::gate(&base, &base),
            (0, "counts match\n".into()),
            "{w}"
        );
    }
}

#[test]
fn both_module_b_baselines_gate_the_same_suite_traffic() {
    // The wire suite runs the thread-mode patternlet bodies, so a count
    // regenerated for one Module B workload must match the other.
    let suite = |w: &str| {
        let r: serde_json::Value = serde_json::from_str(&perf_counts(w)).unwrap();
        ["mpc.suite_msgs", "mpc.suite_bytes"].map(|k| r["metrics"][k]["value"].as_u64())
    };
    assert_eq!(suite("moduleB-threads"), [Some(82), Some(1413)]);
    assert_eq!(suite("moduleB-wire"), suite("moduleB-threads"));
}

#[test]
fn insight_artifact_is_deterministic_and_round_trips() {
    let a = pdc_core::insight::insight_report();
    let b = pdc_core::insight::insight_report();
    assert_eq!(a.to_json(), b.to_json(), "artifact must be byte-identical");
    assert!(a.passed());

    let back = InsightReport::from_json(&a.to_json()).expect("parse own artifact");
    assert_eq!(back.to_json(), a.to_json());
    assert_eq!(back.studies.len(), 3, "module A, module B, net");
}

#[test]
fn insight_artifact_matches_the_committed_baseline() {
    // tests/golden/BENCH_insight.json is teaching output, not a perf
    // baseline; the virtual-time replay must regenerate it byte for
    // byte. An intentional model change regenerates it with:
    //
    //   cargo run -p pdc-bench --bin reproduce -- --insight && \
    //     cp artifacts/BENCH_insight.json tests/golden/BENCH_insight.json
    let path = format!(
        "{}/tests/golden/BENCH_insight.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let want = std::fs::read_to_string(&path).expect("committed baseline");
    let got = pdc_core::insight::insight_report().to_json();
    assert_eq!(got, want, "BENCH_insight.json drifted from the baseline");
}

#[test]
fn measured_module_a_trace_yields_a_full_attribution() {
    // Run the real Module A study under tracing on this host — plus an
    // explicit barriered team region, so the barrier-wait histogram is
    // guaranteed to fire — and push the resulting export through the
    // same parse -> DAG pipeline the dashboard uses: attribution must
    // cover the wall clock with no unexplained time, whatever this
    // machine's timings are.
    let (_report, events) = pdc_trace::with_tracing(|| {
        let team = pdc_shmem::Team::new(3);
        team.parallel(|ctx| {
            std::thread::sleep(std::time::Duration::from_micros(
                50 * (ctx.thread_num() as u64 + 1),
            ));
            ctx.barrier();
        });
        pdc_core::study::module_a_study(pdc_core::study::Scale::Quick)
    });
    let mut jsonl = pdc_trace::export::jsonl(&events);
    jsonl.push_str(&pdc_trace::export::hist_jsonl(
        &pdc_trace::drain_histograms(),
    ));

    let lines = parse_jsonl(&jsonl);
    let cp = critical_path(&lines).expect("traced study has a path");
    assert!(cp.wall_ns > 0);
    assert_eq!(cp.breakdown.total_ns(), cp.wall_ns);

    // The shared-memory barrier instrumentation must surface as a
    // foldable percentile histogram.
    let set = HistogramSet::from_lines(&lines);
    let barrier = set.get("shmem", "barrier_wait").expect("barrier histogram");
    assert!(barrier.count() > 0);
    let (p50, p90, p99) = barrier.quantiles();
    assert!(p50 <= p90 && p90 <= p99);
}
