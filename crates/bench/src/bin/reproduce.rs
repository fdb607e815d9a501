//! Reproduce the paper's tables and figures.
//!
//! ```text
//! reproduce                    # print every experiment
//! reproduce fig3               # print one
//! reproduce --list             # list experiment ids
//! reproduce --trace trace.json # run traced; write a Chrome trace
//! reproduce --chaos 2020       # run the chaos study under seed 2020
//! reproduce --analyze          # run the detector study (pdc-analyze)
//! reproduce --net 2020         # run the wire study under seed 2020
//! reproduce --insight          # run the insight study (pdc-insight)
//! ```
//!
//! With `--trace <path>` the runtimes' tracer is enabled for the run:
//! the captured events are exported as Chrome trace-event JSON (open in
//! Perfetto / `chrome://tracing`), or JSONL when the path ends in
//! `.jsonl`; a plain-text metric summary is printed after the
//! experiments; and machine-readable per-experiment timings go to
//! `artifacts/BENCH_trace.json`.
//!
//! With `--chaos <seed>` the Module B studies run under the canonical
//! fault plans (seeded drops, a straggler, a mid-run crash) with the
//! recoverable runners, and the fault/recovery ledger is written to
//! `artifacts/BENCH_chaos.json` — a deterministic artifact for a fixed
//! seed. The exit status is nonzero if any recoverable fault went
//! unrecovered. Combine with `--trace` to reconcile the ledger against
//! the tracer's `chaos/...` counters.
//!
//! With `--analyze` the `pdc-analyze` detectors run their canonical
//! study: the race detector over the mutual-exclusion ladder (the
//! known-racy `sm.race` must be flagged with its racing sites, the
//! fixed variants must not), the communication analyzer over four
//! canonical scenarios (clean collectives, mismatched collective,
//! receive-receive deadlock, unmatched send), both full module studies
//! under analysis, and the catalog lint. The report is written to
//! `artifacts/BENCH_analyze.json` — deterministic and byte-identical
//! across runs — and the exit status is nonzero when a known bug went
//! undetected or known-clean code was flagged. Combine with `--trace`
//! to reconcile the artifact against the tracer's `analyze/...`
//! counters.
//!
//! With `--net <seed>` the wire study runs: this binary is re-launched
//! as four real rank processes over a TCP mesh (`pdc-net`), the Module
//! B patternlet suite runs over the wire, and the recoverable forest
//! fire survives a *real* process kill (heartbeat detection → shrink →
//! checkpoint restart). The deterministic report is written to
//! `artifacts/BENCH_net.json`; the exit status is nonzero unless the
//! kill happened, every fault recovered, and the values came out exact.
//!
//! With `--insight` the `pdc-insight` study runs: the deterministic
//! virtual-time replay of the canonical Module A / Module B / wire
//! workloads produces `artifacts/BENCH_insight.json` (critical-path
//! breakdowns, cross-process p50/p90/p99 histograms, Karp–Flatt
//! tables; byte-identical across runs), the Module A/B studies really
//! run under tracing to feed the illustrative artifacts
//! (`artifacts/insight_dashboard.html`, `artifacts/insight_flame.txt`),
//! and the exit status is nonzero if the report fails its internal
//! consistency gate. The artifact is teaching output: a test pins it to
//! `tests/golden/BENCH_insight.json`, and no perf gate reads it.

use std::time::Instant;

use pdc_core::experiments;

struct Cli {
    list: bool,
    trace: Option<String>,
    chaos: Option<u64>,
    analyze: bool,
    net: Option<u64>,
    insight: bool,
    id: Option<String>,
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        list: false,
        trace: None,
        chaos: None,
        analyze: false,
        net: None,
        insight: false,
        id: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => cli.list = true,
            "--trace" => match args.next() {
                Some(path) => cli.trace = Some(path),
                None => {
                    eprintln!("--trace requires a path argument");
                    std::process::exit(2);
                }
            },
            "--chaos" => match args.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(seed) => cli.chaos = Some(seed),
                None => {
                    eprintln!("--chaos requires a numeric seed argument");
                    std::process::exit(2);
                }
            },
            "--analyze" => cli.analyze = true,
            "--insight" => cli.insight = true,
            "--net" => match args.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(seed) => cli.net = Some(seed),
                None => {
                    eprintln!("--net requires a numeric seed argument");
                    std::process::exit(2);
                }
            },
            other => cli.id = Some(other.to_owned()),
        }
    }
    cli
}

fn main() {
    // Hidden dispatch: `net_study` re-launches this binary as rank
    // processes with `--net-worker <seed> <scale>`. Handled before any
    // normal parsing — a worker must never fall through to the
    // experiment driver.
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some(pdc_core::netstudy::WORKER_FLAG) {
        let parsed = match (
            argv.get(2).and_then(|s| s.parse::<u64>().ok()),
            argv.get(3).and_then(|s| pdc_core::netstudy::parse_scale(s)),
        ) {
            (Some(seed), Some(scale)) => (seed, scale),
            _ => {
                eprintln!("usage: reproduce --net-worker <seed> <quick|full>");
                std::process::exit(2);
            }
        };
        match pdc_core::netstudy::net_worker(parsed.0, parsed.1) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("net worker failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let cli = parse_args();
    if cli.list {
        for e in experiments::all() {
            println!("{:14} {}", e.id, e.title);
        }
        return;
    }

    if cli.trace.is_some() {
        pdc_trace::reset();
        pdc_trace::enable();
    }

    // (experiment id, wall seconds) for the machine-readable report.
    let mut timings: Vec<(String, f64)> = Vec::new();
    let chaos_failed = cli.chaos.is_some_and(|seed| {
        let report = run_study(
            &mut timings,
            "moduleB-chaos",
            "BENCH_chaos.json",
            || pdc_core::chaos::module_b_chaos_study(seed, pdc_core::study::Scale::Quick),
            |r| (r.render(), r.to_json()),
        );
        !report.all_recovered()
    });

    let net_failed = cli.net.is_some_and(|seed| {
        let exe = std::env::current_exe().unwrap_or_else(|e| {
            eprintln!("cannot locate own executable for rank launch: {e}");
            std::process::exit(1);
        });
        let report = run_study(
            &mut timings,
            "moduleB-net",
            "BENCH_net.json",
            || {
                pdc_core::netstudy::net_study(seed, pdc_core::study::Scale::Quick, &exe)
                    .unwrap_or_else(|e| {
                        eprintln!("wire study launch failed: {e}");
                        std::process::exit(1);
                    })
            },
            |r| (r.render(), r.to_json()),
        );
        !report.passed()
    });

    let mut insight_failed = false;
    if cli.insight {
        let report = run_study(
            &mut timings,
            "insight-study",
            "BENCH_insight.json",
            pdc_core::insight::insight_report,
            |r| (r.render(), r.to_json()),
        );
        insight_failed = !report.passed();

        // Illustrative artifacts: really run the Module A/B studies
        // under tracing (skipped under an outer --trace, whose stream
        // must stay whole) and pair the measured timeline with the
        // model-replay timelines the artifact was derived from.
        let measured = if pdc_trace::is_enabled() {
            None
        } else {
            pdc_trace::reset();
            pdc_trace::enable();
            let _ = pdc_core::study::module_a_study(pdc_core::study::Scale::Quick);
            let _ = pdc_core::study::module_b_study(pdc_core::study::Scale::Quick);
            pdc_trace::disable();
            let events = pdc_trace::drain();
            let mut jsonl = pdc_trace::export::jsonl(&events);
            jsonl.push_str(&pdc_trace::export::hist_jsonl(
                &pdc_trace::drain_histograms(),
            ));
            Some(jsonl)
        };
        let mut timelines = Vec::new();
        if let Some(jsonl) = &measured {
            timelines.push((
                "module A+B (measured on this host)".to_owned(),
                pdc_analyze::traceio::parse_jsonl(jsonl),
            ));
        }
        for (label, jsonl) in pdc_core::insight::synthetic_traces() {
            timelines.push((
                format!("{label} (model replay)"),
                pdc_analyze::traceio::parse_jsonl(&jsonl),
            ));
        }
        let html = pdc_insight::dashboard::render(&report, &timelines);
        let flame_input = measured.unwrap_or_else(|| {
            pdc_core::insight::synthetic_traces()
                .into_iter()
                .map(|(_, jsonl)| jsonl)
                .collect()
        });
        let flame = pdc_insight::collapsed_stacks(&pdc_analyze::traceio::parse_jsonl(&flame_input));
        std::fs::write("artifacts/insight_dashboard.html", html)
            .and_then(|()| std::fs::write("artifacts/insight_flame.txt", flame))
            .unwrap_or_else(|e| {
                eprintln!("failed to write insight dashboard/flamegraph: {e}");
                std::process::exit(1);
            });
        eprintln!("wrote artifacts/insight_dashboard.html, artifacts/insight_flame.txt");
    }

    let analysis_report = cli.analyze.then(|| {
        run_study(
            &mut timings,
            "analysis-study",
            "BENCH_analyze.json",
            || pdc_core::analysis::full_analysis(pdc_core::study::Scale::Quick),
            |r| (r.render(), r.to_json()),
        )
    });
    let analyze_failed = analysis_report.as_ref().is_some_and(|r| !r.passed());

    if cli.chaos.is_none() && !cli.analyze && cli.net.is_none() && !cli.insight {
        match cli.id.as_deref() {
            Some(id) => {
                let Some(exp) = experiments::all().into_iter().find(|e| e.id == id) else {
                    eprintln!("unknown experiment '{id}'; try --list");
                    std::process::exit(2);
                };
                let start = Instant::now();
                let output = (exp.run)();
                timings.push((exp.id.to_owned(), start.elapsed().as_secs_f64()));
                println!("{output}");
            }
            None => {
                for e in experiments::all() {
                    println!("================================================================");
                    println!("{} — {}", e.id, e.title);
                    println!("================================================================");
                    let start = Instant::now();
                    let output = (e.run)();
                    timings.push((e.id.to_owned(), start.elapsed().as_secs_f64()));
                    println!("{output}");
                }
            }
        }
    }

    if let Some(path) = cli.trace {
        pdc_trace::disable();
        let events = pdc_trace::drain();
        let exported = if path.ends_with(".jsonl") {
            pdc_trace::export::jsonl(&events)
        } else {
            pdc_trace::export::chrome_trace(&events)
        };
        if let Err(e) = std::fs::write(&path, exported) {
            eprintln!("failed to write trace to {path}: {e}");
            std::process::exit(1);
        }
        println!("================================================================");
        println!("runtime metrics ({} events -> {path})", events.len());
        println!("================================================================");
        println!("{}", pdc_trace::export::summary(&events));

        if let Err(e) = write_bench_report(&timings, &events, &path) {
            eprintln!("failed to write artifacts/BENCH_trace.json: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote artifacts/BENCH_trace.json");

        if let Some(report) = &analysis_report {
            if !reconcile_analysis(report, &events) {
                eprintln!("analysis study: artifact and trace counters disagree");
                std::process::exit(1);
            }
        }
    }

    if chaos_failed {
        eprintln!(
            "chaos study: unrecovered faults, missed crashes or inexact values \
             (see artifacts/BENCH_chaos.json)"
        );
        std::process::exit(1);
    }
    if analyze_failed {
        eprintln!("analysis study: detector mismatch (see artifacts/BENCH_analyze.json)");
        std::process::exit(1);
    }
    if net_failed {
        eprintln!("wire study: failed (see artifacts/BENCH_net.json)");
        std::process::exit(1);
    }
    if insight_failed {
        eprintln!("insight study: inconsistent report (see artifacts/BENCH_insight.json)");
        std::process::exit(1);
    }
}

/// Run one `--<mode>` study: time it as `id`, print its rendered report
/// and write its JSON to `artifacts/<artifact>`; `show` gives both.
/// Exits the process when the artifact cannot be written.
fn run_study<R>(
    timings: &mut Vec<(String, f64)>,
    id: &str,
    artifact: &str,
    study: impl FnOnce() -> R,
    show: impl FnOnce(&R) -> (String, String),
) -> R {
    let start = Instant::now();
    let report = study();
    timings.push((id.to_owned(), start.elapsed().as_secs_f64()));
    let (rendered, json) = show(&report);
    println!("{rendered}");
    let path = format!("artifacts/{artifact}");
    std::fs::create_dir_all("artifacts")
        .and_then(|()| std::fs::write(&path, json))
        .unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        });
    eprintln!("wrote {path}");
    report
}

/// Cross-check the analysis artifact against the `analyze/...` counters
/// the study published to the tracer: every total in the report must
/// equal the summed counter deltas in the trace stream.
fn reconcile_analysis(
    report: &pdc_core::analysis::AnalysisReport,
    events: &[pdc_trace::Event],
) -> bool {
    use pdc_trace::EventKind;
    println!("================================================================");
    println!("analysis reconciliation (artifact vs analyze/* trace counters)");
    println!("================================================================");
    let mut ok = true;
    for (name, want) in report.counter_totals() {
        let got: i64 = events
            .iter()
            .filter(|e| e.category == "analyze" && e.name == name)
            .filter_map(|e| match e.kind {
                EventKind::Counter { delta } => Some(delta),
                _ => None,
            })
            .sum();
        let matches = got == want;
        ok &= matches;
        println!(
            "  analyze/{name:<22} artifact {want:>4}  trace {got:>4}  {}",
            if matches { "ok" } else { "MISMATCH" }
        );
    }
    ok
}

/// Machine-readable run report: per-experiment wall timings plus trace
/// stream statistics, for CI to archive and diff.
fn write_bench_report(
    timings: &[(String, f64)],
    events: &[pdc_trace::Event],
    trace_path: &str,
) -> std::io::Result<()> {
    use pdc_trace::EventKind;
    let count = |f: fn(&EventKind) -> bool| events.iter().filter(|e| f(&e.kind)).count();
    let report = serde_json::json!({
        "schema": "pdc-bench/trace-report/v1",
        "command": "reproduce --trace",
        "trace_path": trace_path,
        "experiments": timings
            .iter()
            .map(|(id, secs)| serde_json::json!({ "id": id, "wall_s": secs }))
            .collect::<Vec<_>>(),
        "trace": {
            "events": events.len(),
            "spans": count(|k| matches!(k, EventKind::Span { .. })),
            "instants": count(|k| matches!(k, EventKind::Instant)),
            "counters": count(|k| matches!(k, EventKind::Counter { .. })),
            "gauges": count(|k| matches!(k, EventKind::Gauge { .. })),
        },
    });
    std::fs::create_dir_all("artifacts")?;
    let body = serde_json::to_string_pretty(&report)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write("artifacts/BENCH_trace.json", body)
}
