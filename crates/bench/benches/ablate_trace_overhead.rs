//! Ablation: cost of the tracing layer on hot runtime paths.
//!
//! While disabled, `pdc-trace` costs one relaxed atomic load per
//! instrumentation site. This bench times two hot paths — a shmem
//! `parallel_reduce` and a 4-rank mpc broadcast — with tracing disabled
//! and enabled, and prints the enabled-over-disabled ratio: the cost of
//! recording events. It does not measure the disabled-mode cost itself,
//! which would need a build without the instrumentation.

use criterion::{BenchmarkId, Criterion};
use pdc_mpc::World;
use pdc_shmem::{parallel_reduce, Schedule, Team};

fn reduce_workload(team: &Team) -> u64 {
    parallel_reduce(
        team,
        0..20_000,
        Schedule::default(),
        0u64,
        |i| i as u64,
        |a, b| a + b,
    )
}

fn bcast_workload() -> usize {
    World::new(4)
        .run(|c| c.bcast(0, (c.rank() == 0).then_some(42usize)).unwrap())
        .into_iter()
        .sum()
}

fn bench(c: &mut Criterion) {
    let team = Team::new(4);

    // Tracing disabled: the instrumented fast path we promise is cheap.
    pdc_trace::disable();
    pdc_trace::reset();
    {
        let mut group = c.benchmark_group("ablate/trace/parallel_reduce");
        group.bench_with_input(BenchmarkId::from_parameter("disabled"), &(), |b, ()| {
            b.iter(|| reduce_workload(&team))
        });
        // Enabled: events buffer per thread; drain between samples so
        // memory stays bounded.
        pdc_trace::enable();
        group.bench_with_input(BenchmarkId::from_parameter("enabled"), &(), |b, ()| {
            b.iter(|| {
                let r = reduce_workload(&team);
                pdc_trace::drain();
                r
            })
        });
        pdc_trace::disable();
        pdc_trace::reset();
        group.finish();
    }

    {
        let mut group = c.benchmark_group("ablate/trace/bcast4");
        group.bench_with_input(BenchmarkId::from_parameter("disabled"), &(), |b, ()| {
            b.iter(bcast_workload)
        });
        pdc_trace::enable();
        group.bench_with_input(BenchmarkId::from_parameter("enabled"), &(), |b, ()| {
            b.iter(|| {
                let r = bcast_workload();
                pdc_trace::drain();
                r
            })
        });
        pdc_trace::disable();
        pdc_trace::reset();
        group.finish();
    }
}

fn report_overhead(c: &Criterion) {
    println!("\ntracing overhead (median ns, enabled / disabled):");
    for path in ["ablate/trace/parallel_reduce", "ablate/trace/bcast4"] {
        let lookup = |variant: &str| {
            let id = format!("{path}/{variant}");
            c.results()
                .iter()
                .find(|(name, _)| *name == id)
                .map(|(_, ns)| *ns)
        };
        if let (Some(disabled), Some(enabled)) = (lookup("disabled"), lookup("enabled")) {
            println!(
                "  {path}: {disabled:.0} -> {enabled:.0} ({:+.1}%)",
                (enabled / disabled - 1.0) * 100.0
            );
        }
    }
    println!("(both rows carry the disabled-mode instrumentation; its own cost is not");
    println!(" measured here.)");
}

fn main() {
    let mut c = pdc_bench::criterion();
    bench(&mut c);
    report_overhead(&c);
    c.final_summary();
}
