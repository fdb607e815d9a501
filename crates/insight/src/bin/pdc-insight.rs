//! `pdc-insight` — offline trace analytics at the shell.
//!
//! ```text
//! pdc-insight analyze  TRACE.jsonl...            critical path + histograms
//! pdc-insight flame    TRACE.jsonl... [-o FILE]  collapsed-stack flamegraph text
//! pdc-insight dashboard REPORT.json [TRACE...] -o FILE
//!                                                self-contained HTML dashboard
//! pdc-insight diff     BASE.json CAND.json       perf gate: exact perfbench counts
//! ```
//!
//! Multiple trace files are merged before analysis (the per-rank files
//! a distributed study writes are one logical trace). Argument parsing
//! is by hand, like `reproduce` — the workspace takes no CLI deps.

use std::process::ExitCode;

use pdc_analyze::traceio::{parse_jsonl, TraceLine};
use pdc_insight::report::hist_summaries;
use pdc_insight::{collapsed_stacks, critical_path, dashboard, diff, HistogramSet, InsightReport};

fn usage() -> ! {
    eprintln!(
        "usage: pdc-insight analyze TRACE.jsonl...\n\
         \x20      pdc-insight flame TRACE.jsonl... [-o FILE]\n\
         \x20      pdc-insight dashboard REPORT.json [TRACE.jsonl...] -o FILE\n\
         \x20      pdc-insight diff BASE.json CAND.json"
    );
    std::process::exit(2);
}

fn read(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pdc-insight: cannot read {path}: {e}");
            std::process::exit(2);
        }
    }
}

/// Parse and merge trace files into one line stream.
fn load_traces(paths: &[String]) -> Vec<TraceLine> {
    let mut lines = Vec::new();
    for p in paths {
        lines.extend(parse_jsonl(&read(p)));
    }
    lines
}

fn cmd_analyze(traces: Vec<String>) -> ExitCode {
    if traces.is_empty() {
        usage();
    }
    let lines = load_traces(&traces);
    match critical_path(&lines) {
        Some(cp) => {
            println!(
                "critical path: {:.3} ms over {} steps across {} lanes",
                cp.wall_ns as f64 / 1e6,
                cp.steps.len(),
                cp.lanes.len()
            );
            let b = cp.breakdown;
            for (label, ns) in [
                ("compute", b.compute_ns),
                ("barrier", b.barrier_ns),
                ("lock", b.lock_ns),
                ("wire", b.wire_ns),
                ("idle", b.idle_ns),
            ] {
                if ns > 0 {
                    println!(
                        "  {label:<8} {:>12.3} ms  ({:>5.1}%)",
                        ns as f64 / 1e6,
                        100.0 * ns as f64 / cp.wall_ns as f64
                    );
                }
            }
        }
        None => println!("no spans in trace — nothing to analyze"),
    }
    let hists = HistogramSet::from_lines(&lines);
    for h in hist_summaries(&hists) {
        println!(
            "hist {}/{:<16} n={:<7} p50={}ns p90={}ns p99={}ns max={}ns",
            h.cat, h.name, h.count, h.p50_ns, h.p90_ns, h.p99_ns, h.max_ns
        );
    }
    ExitCode::SUCCESS
}

fn cmd_flame(mut rest: Vec<String>) -> ExitCode {
    let mut out_path = None;
    if let Some(pos) = rest.iter().position(|a| a == "-o") {
        if pos + 1 >= rest.len() {
            usage();
        }
        out_path = Some(rest.remove(pos + 1));
        rest.remove(pos);
    }
    if rest.is_empty() {
        usage();
    }
    let text = collapsed_stacks(&load_traces(&rest));
    match out_path {
        Some(p) => {
            if let Err(e) = std::fs::write(&p, &text) {
                eprintln!("pdc-insight: cannot write {p}: {e}");
                return ExitCode::from(2);
            }
            eprintln!("wrote {} stacks to {p}", text.lines().count());
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

fn cmd_dashboard(mut rest: Vec<String>) -> ExitCode {
    let Some(pos) = rest.iter().position(|a| a == "-o") else {
        usage();
    };
    if pos + 1 >= rest.len() {
        usage();
    }
    let out_path = rest.remove(pos + 1);
    rest.remove(pos);
    if rest.is_empty() {
        usage();
    }
    let report = match InsightReport::from_json(&read(&rest[0])) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pdc-insight: {e}");
            return ExitCode::from(2);
        }
    };
    let traces: Vec<(String, Vec<TraceLine>)> = rest[1..]
        .iter()
        .map(|p| {
            let label = std::path::Path::new(p)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| p.clone());
            (label, parse_jsonl(&read(p)))
        })
        .collect();
    let html = dashboard::render(&report, &traces);
    if let Err(e) = std::fs::write(&out_path, &html) {
        eprintln!("pdc-insight: cannot write {out_path}: {e}");
        return ExitCode::from(2);
    }
    eprintln!("wrote dashboard to {out_path}");
    ExitCode::SUCCESS
}

/// `diff BASE CAND`: exact comparison of perfbench result lines
/// (see [`pdc_insight::diff`]); exit 0 match, 1 mismatch, 2 bad input.
fn cmd_diff(rest: Vec<String>) -> ExitCode {
    let [base, cand] = rest.as_slice() else {
        usage();
    };
    if base.starts_with('-') || cand.starts_with('-') {
        usage();
    }
    let (code, text) = diff::gate(&read(base), &read(cand));
    if code == 2 {
        eprint!("{text}");
    } else {
        print!("{text}");
    }
    ExitCode::from(code)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "analyze" => cmd_analyze(args),
        "flame" => cmd_flame(args),
        "dashboard" => cmd_dashboard(args),
        "diff" => cmd_diff(args),
        _ => usage(),
    }
}
