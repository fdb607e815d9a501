//! perfbench: the repository benchmark. Runs one workload of Module A/B
//! labs as a closed loop (one client, next lab only after the previous
//! one completed and was checked) and prints one JSON result line.
//!
//! ```text
//! perfbench --workload <moduleA-shmem|moduleB-threads|moduleB-wire>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics from untraced labs.
//! `--trace 1` reports the per-layer metrics: untraced and traced labs
//! side by side, then the layer probes. See `perfbench/README.md`.

mod alloc;
mod fold;
mod labs;
mod ladder;
mod report;
mod stats;
mod sys;
mod wire;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use labs::{Lab, Rig, Workload, NP};
use report::Metrics;
use stats::{median, ms, quantile};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perfbench --workload <moduleA-shmem|moduleB-threads|moduleB-wire> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Labs run (and checked) before any timing.
const WARMUP_LABS: usize = 3;
/// The end-to-end window runs at least this many labs, so that at least
/// ten lie beyond the p90.
const MIN_LABS: usize = 100;
/// Hard stop for one window, whatever `--seconds` and `MIN_LABS` ask.
const MAX_WINDOW: Duration = Duration::from_secs(100);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Labs timed in one window.
struct Window {
    lab_ms: Vec<f64>,
    cpu: Duration,
    failures: Vec<String>,
}

impl Window {
    fn labs(&self) -> f64 {
        self.lab_ms.len() as f64
    }
}

/// Run checked labs back to back for `seconds` and at least `min_labs`
/// labs. `after` runs after each lab, outside its timing.
fn run_window(rig: &mut Rig, seconds: f64, min_labs: usize, mut after: impl FnMut()) -> Window {
    let target = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let cpu0 = sys::process_cpu();
    let mut lab_ms = Vec::new();
    let mut failures = Vec::new();
    loop {
        let t = Instant::now();
        let outcome = rig.run_lab();
        lab_ms.push(ms(t.elapsed()));
        if let Err(e) = outcome {
            failures.push(e);
        }
        after();
        let elapsed = start.elapsed();
        if (elapsed >= target && lab_ms.len() >= min_labs) || elapsed >= MAX_WINDOW {
            break;
        }
    }
    Window {
        lab_ms,
        cpu: sys::process_cpu() - cpu0,
        failures,
    }
}

fn warm_up(rig: &mut Rig) -> Vec<String> {
    (0..WARMUP_LABS)
        .filter_map(|_| rig.run_lab().err())
        .collect()
}

/// What a run found: its metrics and every failed check.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failures: Vec<String>,
    labs: usize,
}

/// Untraced labs: the five end-to-end metrics.
fn end_to_end(args: &Args, lab: &Lab, scratch: &Path) -> Outcome {
    let reps = labs::setup_reps(args.workload);
    let (setups, mut rig) = labs::setup(args.workload, lab, scratch, reps);
    let mut failures = warm_up(&mut rig);
    let window = run_window(&mut rig, args.seconds, MIN_LABS, || {});
    let rss = sys::peak_rss_mb();
    rig.teardown();

    let mut m = Metrics::default();
    let setup_s: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    m.put("setup_s", median(&setup_s), "s");
    m.put("lab_ms_p50", quantile(&window.lab_ms, 0.5), "ms");
    m.put("lab_ms_p90", quantile(&window.lab_ms, 0.9), "ms");
    m.put("cpu_ms_per_lab", ms(window.cpu) / window.labs(), "ms");
    m.put("peak_rss_mb", rss, "MB");
    failures.extend(window.failures);
    Outcome {
        metrics: m,
        attempted: (WARMUP_LABS + window.lab_ms.len()) as u64,
        failures,
        labs: window.lab_ms.len(),
    }
}

/// Untraced and traced labs side by side, then the layer probes.
fn per_layer(args: &Args, lab: &Lab, scratch: &Path) -> Outcome {
    let wire = args.workload == Workload::ModuleBWire;
    let (_, mut rig) = labs::setup(args.workload, lab, scratch, 1);
    let mut failures = warm_up(&mut rig);
    let half = args.seconds / 2.0;

    alloc::start();
    let plain = run_window(&mut rig, half, MIN_LABS / 2, || {});
    let (allocs, alloc_bytes) = alloc::stop();

    pdc_trace::reset();
    pdc_trace::enable();
    let traced_from = Instant::now();
    let mut fold = fold::TraceFold::default();
    let traced = run_window(&mut rig, half, 20, || fold.lab(pdc_trace::drain()));
    // Tracing stays on through teardown: pdc-net's pumps hand over their
    // counters as they exit.
    rig.teardown();
    pdc_trace::disable();
    let traced_s = traced_from.elapsed().as_secs_f64();
    fold.count(&pdc_trace::drain());
    pdc_trace::reset();
    failures.extend(plain.failures.iter().chain(&traced.failures).cloned());

    let mut m = Metrics::default();
    let mut checks = ladder::Checks::default();
    let cells = lab.inputs.heat.cells;
    ladder::shmem(&mut m, cells);

    let seq = ladder::seq_ms(lab);
    for (x, seq_ms) in ["heat", "drug", "fire", "pi"].into_iter().zip(seq) {
        m.put(format!("exemplars.{x}_seq_ms"), seq_ms, "ms");
        for mode in ["shmem", "mpc"] {
            let t = fold.entry_ms(&format!("{x}_{mode}"));
            m.put(format!("exemplars.{x}_{mode}_ms"), t, "ms");
            let speedup = if t > 0.0 { seq_ms / t } else { 0.0 };
            m.put(format!("exemplars.{x}_speedup_{mode}"), speedup, "ratio");
        }
    }

    ladder::mpc(&mut m, &mut checks);
    ladder::traffic(&mut m, &mut checks);
    ladder::net(&mut m, &mut checks, scratch);

    // Each rank says goodbye to its peer on teardown: frames outside the labs.
    let byes = if wire { (NP * (NP - 1)) as i64 } else { 0 };
    let per_traced_lab = |x: f64| x / fold.labs.max(1) as f64;
    m.put(
        "net.frames_per_lab",
        per_traced_lab((fold.frames - byes) as f64),
        "count",
    );
    m.put(
        "net.wire_bytes_per_lab",
        per_traced_lab((fold.wire_bytes - byes * 40) as f64),
        "B",
    );
    m.put(
        "net.heartbeats_per_s",
        fold.heartbeats as f64 / traced_s,
        "1/s",
    );
    ladder::convict(&mut m, &mut checks, scratch);

    let suite_ns = fold.suite_ns.max(1) as f64;
    m.put(
        "suite.gather_share",
        fold.gather_ns as f64 / suite_ns,
        "ratio",
    );
    m.put(
        "suite.barrier_share",
        fold.barrier_ns as f64 / suite_ns,
        "ratio",
    );
    m.put("alloc.per_lab", allocs as f64 / plain.labs(), "count");
    m.put(
        "alloc.bytes_per_lab",
        alloc_bytes as f64 / plain.labs(),
        "B",
    );
    let overhead = quantile(&traced.lab_ms, 0.5) / quantile(&plain.lab_ms, 0.5) - 1.0;
    m.put("trace.overhead_pct", 100.0 * overhead, "%");
    m.put(
        "trace.events_per_lab",
        per_traced_lab(fold.events as f64),
        "count",
    );
    for (category, pct) in fold.path_pct() {
        m.put(format!("insight.{category}_pct"), pct, "%");
    }

    let labs = plain.lab_ms.len() + traced.lab_ms.len();
    failures.extend(checks.failures);
    Outcome {
        metrics: m,
        attempted: (WARMUP_LABS + labs) as u64 + checks.attempted,
        failures,
        labs,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch_root = Path::new(".perfbench-tmp");
    let scratch = scratch_root.join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }

    let lab = Lab::new(args.seed);
    let outcome = if args.trace {
        per_layer(&args, &lab, &scratch)
    } else {
        end_to_end(&args, &lab, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    // Fails, harmlessly, while another run still uses it.
    let _ = std::fs::remove_dir(scratch_root);

    for failure in &outcome.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    println!(
        "{{\"perfbench\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"labs\":{},\"host\":{}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.labs,
        sys::fingerprint_json(),
    );
    println!(
        "{}",
        outcome
            .metrics
            .result_json(outcome.attempted, outcome.failures.len() as u64)
    );
    ExitCode::SUCCESS
}
