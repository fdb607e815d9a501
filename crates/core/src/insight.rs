//! The insight study: deterministic performance diagnosis artifacts.
//!
//! `reproduce --insight` must emit a **byte-identical**
//! `artifacts/BENCH_insight.json` on every run, yet critical paths and
//! wait histograms from a *live* run depend on the host scheduler. The
//! study therefore splits its outputs the way [`crate::study`] splits a
//! row into measured and modeled halves:
//!
//! * **The artifact** comes from a *virtual-time replay*: canonical
//!   Module A / Module B / wire workloads are laid out as synthetic
//!   traces whose timestamps derive from the calibrated
//!   [`pdc_platform`] model (the same predictions the speedup tables
//!   print), and synthetic wait/RTT distributions come from a fixed
//!   LCG. Those traces run through the *real* `pdc-insight` pipeline —
//!   JSONL parse, happens-before DAG, critical-path walk,
//!   cross-process histogram fold — so the artifact exercises every
//!   code path while staying a pure function of the models.
//! * **The dashboard and flamegraph** artifacts come from really
//!   running the Module A/B studies under tracing; they are
//!   illustrative, not byte-compared.
//!
//! The synthetic traces are also the fixtures the integration tests
//! pin exact attributions against.

use pdc_insight::report::{hist_summaries, InsightReport, ScalingRow, StudyInsight};
use pdc_insight::{critical_path, HistogramSet};
use pdc_platform::{laws, presets, ExecutionModel, Platform};

use pdc_platform::model::CommShape;
use pdc_trace::export::{hist_jsonl_for_pid, jsonl_for_pid};
use pdc_trace::{Event, EventKind, Histogram, MetricKey};

/// Nominal single-worker seconds the canonical models are anchored at —
/// the same workshop-scale anchors [`crate::study`] uses.
const NOMINAL_A_S: f64 = 4.0;
const NOMINAL_B_S: f64 = 10.0;

/// A tiny deterministic generator for the synthetic wait/RTT samples
/// (insight's distributions just need to be fixed, not shared with any
/// other generator).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// A value in `[lo, hi)`.
    fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

fn ns(seconds: f64) -> u64 {
    (seconds * 1e9).round() as u64
}

/// A span on thread `tid` of a synthetic process.
fn span(category: &'static str, name: &'static str, ts_ns: u64, tid: u32, dur_ns: u64) -> Event {
    Event {
        kind: EventKind::Span { dur_ns },
        category,
        name,
        ts_ns,
        tid,
        args: Vec::new(),
    }
}

/// A point-to-point `mpc` span on thread 0, matched by its endpoints and tag.
fn msg_span(name: &'static str, ts_ns: u64, dur_ns: u64, src: u64, dst: u64, tag: i64) -> Event {
    Event {
        args: vec![
            ("src", src.into()),
            ("dst", dst.into()),
            ("tag", tag.into()),
        ],
        ..span("mpc", name, ts_ns, 0, dur_ns)
    }
}

/// Hist lines stamped with a synthetic `pid`: one histogram per
/// `(metric, n, lo, hi)` entry, in order, of `n` LCG samples in
/// `[lo, hi)` nanoseconds.
fn hist_lines(pid: u32, rng: &mut Lcg, specs: &[(MetricKey, usize, u64, u64)]) -> String {
    let hists: Vec<(MetricKey, Histogram)> = specs
        .iter()
        .map(|&(key, n, lo, hi)| {
            let mut h = Histogram::new();
            for _ in 0..n {
                h.record(rng.in_range(lo, hi));
            }
            (key, h)
        })
        .collect();
    hist_jsonl_for_pid(hists.iter().map(|(k, h)| (k, h)), pid)
}

/// The canonical Module A workload model (integration exemplar) at the
/// workshop anchor, and the platform its study table predicts for.
fn model_a() -> (ExecutionModel, Platform, Vec<usize>) {
    (
        ExecutionModel::new(0.001 * NOMINAL_A_S * 2.0, 0.999 * NOMINAL_A_S * 2.0),
        presets::raspberry_pi_4(),
        vec![1, 2, 3, 4],
    )
}

/// The canonical Module B workload model (forest-fire sweep, workshop
/// grid) on the 64-core VM.
fn model_b() -> (ExecutionModel, Platform, Vec<usize>) {
    let fire_bytes = 40 * 40; // Full-scale grid's result traffic
    (
        ExecutionModel::new(0.005 * NOMINAL_B_S * 2.0, 0.995 * NOMINAL_B_S * 2.0).with_comm(
            1,
            fire_bytes,
            CommShape::AllToRoot,
        ),
        presets::stolaf_vm(),
        vec![1, 2, 4, 8, 16, 32, 64],
    )
}

/// The wire study's workload model: the recoverable forest fire on a
/// 4-node Pi Beowulf — slow Ethernet, so the scalability knee is real.
fn model_net() -> (ExecutionModel, Platform, Vec<usize>) {
    (
        ExecutionModel::new(0.005 * NOMINAL_B_S * 2.0, 0.995 * NOMINAL_B_S * 2.0).with_comm(
            5,
            13 * 13,
            CommShape::AllToRoot,
        ),
        presets::pi_beowulf(4),
        vec![1, 2, 4, 8, 16],
    )
}

fn scaling_rows(model: &ExecutionModel, plat: &Platform, ps: &[usize]) -> Vec<ScalingRow> {
    ps.iter()
        .map(|&p| {
            let pred = plat.predict(model, p);
            let kf = if p > 1 {
                laws::karp_flatt(pred.speedup.max(f64::MIN_POSITIVE), p)
            } else {
                0.0
            };
            ScalingRow::new(p, pred.total_s, pred.speedup, pred.efficiency, kf)
        })
        .collect()
}

/// Synthetic Module A trace: one process, four shmem threads. Thread 0
/// does the serial setup, arrives last at the barrier (so the critical
/// path never leaves a traced lane), and reduces at the end.
pub fn synthetic_module_a() -> String {
    let (model, plat, _) = model_a();
    let pred = plat.predict(&model, 4);
    let pid = 1000;
    let head = ns(plat.compute_seconds(model.serial_ref_s));
    let work = ns(pred.total_s - pred.comm_s) - 2 * head;
    let bar = ns(pred.comm_s).max(40_000);
    // Thread 0 is the slowest worker: deterministic skew.
    let skew = [1.00, 0.97, 0.99, 0.94];
    let mut events = vec![span("app", "serial_setup", 0, 0, head)];
    let release = head + work;
    for (t, s) in (0..).zip(skew) {
        let w = (work as f64 * s) as u64;
        events.push(span("app", "chunk_sum", head, t, w));
        let wait = release + bar - (head + w);
        events.push(span("shmem", "barrier_wait", head + w, t, wait));
    }
    events.push(span("app", "serial_reduce", release + bar, 0, head));

    // Synthetic per-thread wait distributions (one process, so one
    // hist line per metric — the multi-pid fold is Module B's job).
    let mut rng = Lcg(0xA11CE);
    let hists = [
        (("shmem", "barrier_wait"), 64, 2_000, 400_000),
        (("shmem", "lock_wait"), 48, 500, 50_000),
    ];
    jsonl_for_pid(&events, pid) + &hist_lines(pid, &mut rng, &hists)
}

/// Synthetic Module B trace: a master-worker round over four rank
/// *processes* (distinct pids). The root sends assignments, workers
/// compute and send results back; every interval on the critical path
/// is covered by a span, so attribution is exact.
pub fn synthetic_module_b() -> String {
    let (model, plat, _) = model_b();
    let pred = plat.predict(&model, 4);
    let total = ns(pred.total_s);
    let wire = ns(pred.comm_s).max(60_000) / 8;
    let sd = wire / 2; // send-side cost
    let pid_of = |r: u64| 2000 + r as u32;

    // Root assigns work: back-to-back sends to ranks 1..=3.
    let sends: Vec<Event> = (1..=3u64)
        .map(|r| msg_span("send", (r - 1) * sd, sd, 0, r, 1))
        .collect();
    let mut out = jsonl_for_pid(&sends, pid_of(0));
    // Workers: recv the assignment (posted at 0, completes one wire
    // delay after the send lands), compute, send the result back.
    let work = total - 3 * sd - 3 * (sd + wire);
    let mut result_at = Vec::new();
    for r in 1..=3u64 {
        let assigned = r * sd + wire;
        // Later ranks hold slightly more work: completion stays ordered.
        let w = work + (r - 1) * 2 * (sd + wire);
        let worker = [
            msg_span("recv", 0, assigned, 0, r, 1),
            span("app", "score_ligands", assigned, 0, w),
            msg_span("send", assigned + w, sd, r, 0, 2),
        ];
        out += &jsonl_for_pid(&worker, pid_of(r));
        result_at.push(assigned + w + sd);
    }
    // Root collects results in rank order.
    let mut cursor = 3 * sd;
    let mut root = Vec::new();
    for (r, at) in (1..).zip(result_at) {
        let done = at + wire;
        root.push(msg_span("recv", cursor, done - cursor, r, 0, 2));
        cursor = done;
    }
    root.push(span("app", "combine", cursor, 0, 2 * sd));
    out += &jsonl_for_pid(&root, pid_of(0));

    // Per-rank mailbox / frame-RTT distributions: one hist line per
    // pid and metric, folded across processes by the reader.
    let mut rng = Lcg(0xB0B);
    let hists = [
        (("mpc", "mailbox_depth"), 32, 0, 12),
        (("mpc", "frame_rtt"), 40, 30_000, 2_000_000),
    ];
    for r in 0..4 {
        out += &hist_lines(pid_of(r), &mut rng, &hists);
    }
    out
}

/// Synthetic wire-study trace: three rank processes compute, meet at an
/// `allreduce`, rank 0 writes the report; the fault injector's
/// decisions appear as `chaos/fault_injected` instants, as the send
/// chokepoint records them, for the dashboard overlay.
pub fn synthetic_net() -> String {
    let (model, plat, _) = model_net();
    let pred = plat.predict(&model, 4);
    let total = ns(pred.total_s);
    let coll = ns(pred.comm_s).max(90_000);
    let tail = total / 20;
    let work = total - coll - tail;
    let skew = [0.93, 0.97, 1.00];
    let pid_of = |r: u32| 3000 + r;
    let release = work; // last arrival (rank 2, skew 1.00)
    let mut out = String::new();
    for (r, s) in (0..).zip(skew) {
        let w = (work as f64 * s) as u64;
        let rank = [
            span("app", "fire_trials", 0, 0, w),
            span("mpc", "allreduce", w, 0, release + coll - w),
        ];
        out += &jsonl_for_pid(&rank, pid_of(r));
    }
    let report = span("app", "write_report", release + coll, 0, tail);
    out += &jsonl_for_pid(&[report], pid_of(0));

    // Injected-fault decisions along rank 1's compute phase.
    let mut rng = Lcg(0xFA017);
    let faults: Vec<Event> = ["drop", "delay", "drop", "duplicate", "reorder"]
        .into_iter()
        .map(|kind| Event {
            kind: EventKind::Instant,
            args: vec![
                ("fault", kind.into()),
                ("dst", 0u64.into()),
                ("tag", 7u64.into()),
            ],
            ..span(
                "chaos",
                "fault_injected",
                rng.in_range(work / 10, work),
                0,
                0,
            )
        })
        .collect();
    out += &jsonl_for_pid(&faults, pid_of(1));

    // Wire distributions, one hist line per rank process.
    let hists = [
        (("net", "heartbeat_gap"), 50, 45_000_000, 70_000_000),
        (("mpc", "frame_rtt"), 30, 80_000, 5_000_000),
    ];
    for r in 0..3 {
        out += &hist_lines(pid_of(r), &mut rng, &hists);
    }
    out
}

fn study_insight(
    name: &str,
    jsonl: &str,
    model: &ExecutionModel,
    plat: &Platform,
    ps: &[usize],
) -> StudyInsight {
    let lines = pdc_analyze::traceio::parse_jsonl(jsonl);
    let cp = critical_path(&lines).expect("synthetic traces have spans");
    let hists = HistogramSet::from_lines(&lines);
    StudyInsight {
        study: name.to_owned(),
        path: (&cp).into(),
        scaling: scaling_rows(model, plat, ps),
        histograms: hist_summaries(&hists),
    }
}

/// The synthetic traces the artifact is derived from, labeled —
/// also the dashboard's fallback timelines.
pub fn synthetic_traces() -> Vec<(String, String)> {
    vec![
        ("module A".to_owned(), synthetic_module_a()),
        ("module B".to_owned(), synthetic_module_b()),
        ("net".to_owned(), synthetic_net()),
    ]
}

/// Build the deterministic insight artifact: critical-path breakdowns
/// and percentile histograms from the virtual-time replay, scaling
/// tables (speedup / efficiency / Karp–Flatt) from the platform model.
pub fn insight_report() -> InsightReport {
    let (ma, pa, psa) = model_a();
    let (mb, pb, psb) = model_b();
    let (mn, pn, psn) = model_net();
    InsightReport::new(vec![
        study_insight("module A", &synthetic_module_a(), &ma, &pa, &psa),
        study_insight("module B", &synthetic_module_b(), &mb, &pb, &psb),
        study_insight("net", &synthetic_net(), &mn, &pn, &psn),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_deterministic_and_passes() {
        let a = insight_report();
        let b = insight_report();
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.passed(), "{}", a.render());
    }

    #[test]
    fn every_study_has_path_scaling_and_histograms() {
        let r = insight_report();
        let names: Vec<&str> = r.studies.iter().map(|s| s.study.as_str()).collect();
        assert_eq!(names, vec!["module A", "module B", "net"]);
        for s in &r.studies {
            assert_eq!(s.path.total_ns(), s.path.wall_ns, "{}", s.study);
            assert!(
                s.path.idle_ns == 0,
                "{}: synthetic traces cover every ns",
                s.study
            );
            assert!(s.scaling.len() >= 4, "{}", s.study);
            assert_eq!(s.scaling[0].speedup, 1.0);
            assert!(s.histograms.len() >= 2, "{}", s.study);
            // Karp–Flatt columns present for p > 1 and plausible.
            for row in s.scaling.iter().filter(|r| r.p > 1) {
                assert!(row.karp_flatt > 0.0 && row.karp_flatt < 0.6, "{:?}", row);
            }
        }
    }

    #[test]
    fn module_a_path_is_mostly_compute_with_a_barrier() {
        let r = insight_report();
        let a = &r.studies[0];
        assert!(a.path.compute_ns > a.path.barrier_ns);
        assert!(a.path.barrier_ns > 0);
        assert_eq!(a.path.wire_ns, 0, "no messages in the shmem study");
    }

    #[test]
    fn module_b_path_crosses_the_wire() {
        let r = insight_report();
        let b = &r.studies[1];
        assert!(b.path.wire_ns > 0, "master-worker must show wire time");
        assert!(b.path.compute_ns > 0);
    }

    #[test]
    fn net_study_folds_histograms_across_three_processes() {
        let lines = pdc_analyze::traceio::parse_jsonl(&synthetic_net());
        let set = HistogramSet::from_lines(&lines);
        let rtt = set.get("mpc", "frame_rtt").expect("rtt folded");
        assert_eq!(rtt.count(), 3 * 30, "all three ranks' samples");
        assert!(set.get("net", "heartbeat_gap").is_some());
    }
}
