//! Ablation: spawning fresh threads for every region vs. the hot team.
//!
//! `spawn_per_region` forks and joins `threads` scoped OS threads per
//! region — the cost the platform model's `thread_spawn_us` charges per
//! thread per region. `hot_team` runs the same regions through
//! `Team::parallel`, whose workers stay parked between regions as in a
//! real OpenMP runtime, with the calling thread as team thread 0.

use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{BenchmarkId, Criterion};
use pdc_shmem::Team;

const REGIONS: usize = 20;

fn spawn_per_region(threads: usize, sink: &AtomicU64) {
    for r in 0..REGIONS {
        std::thread::scope(|s| {
            for id in 0..threads {
                s.spawn(move || {
                    sink.fetch_add((r + id) as u64, Ordering::Relaxed);
                });
            }
        });
    }
}

fn hot_team(team: &Team, sink: &AtomicU64) {
    for r in 0..REGIONS {
        team.parallel(|ctx| {
            sink.fetch_add((r + ctx.thread_num()) as u64, Ordering::Relaxed);
        });
    }
}

fn bench(c: &mut Criterion) {
    println!("\nablate_spawn: {REGIONS} tiny regions; scoped spawn per region vs hot Team");
    for threads in [2usize, 4] {
        let mut group = c.benchmark_group(format!("ablate/spawn/{threads}threads"));
        let sink = AtomicU64::new(0);
        group.bench_with_input(
            BenchmarkId::from_parameter("spawn_per_region"),
            &threads,
            |b, &t| b.iter(|| spawn_per_region(t, &sink)),
        );
        let team = Team::new(threads);
        group.bench_with_input(BenchmarkId::from_parameter("hot_team"), &threads, |b, _| {
            b.iter(|| hot_team(&team, &sink))
        });
        group.finish();
    }
}

fn main() {
    let mut c = pdc_bench::criterion();
    bench(&mut c);
    c.final_summary();
}
