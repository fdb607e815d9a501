//! Ablation: point-to-point message paths — typed (binary serde) vs. raw
//! bytes, and ping-pong latency vs. payload size.
//!
//! Each measured batch runs its rounds inside one persistent 2-rank
//! world and times only the rounds, so a row is the cost of one round
//! trip on the message path, not of spawning the world's threads.

use std::time::{Duration, Instant};

use bytes::Bytes;
use criterion::{BenchmarkId, Criterion};
use pdc_mpc::{Comm, World};

/// Time `iters` ping-pong rounds on one world; rank 0's clock is the
/// measurement. `echo` is rank 1's half of a round, `round` rank 0's.
fn pingpong(iters: u64, round: impl Fn(&Comm) + Sync, echo: impl Fn(&Comm) + Sync) -> Duration {
    World::new(2).run(|comm| {
        comm.barrier().unwrap();
        let start = Instant::now();
        for _ in 0..iters {
            if comm.rank() == 0 {
                round(&comm);
            } else {
                echo(&comm);
            }
        }
        start.elapsed()
    })[0]
}

/// Typed round trips: rank 1 decodes each value and re-encodes it.
macro_rules! pingpong_typed {
    ($iters:expr, $payload:expr, $ty:ty) => {
        pingpong(
            $iters,
            |comm| {
                comm.send(1, 0, $payload).unwrap();
                let _: $ty = comm.recv(1, 0).unwrap();
            },
            |comm| {
                let v: $ty = comm.recv(0, 0).unwrap();
                comm.send(0, 0, &v).unwrap();
            },
        )
    };
}

fn pingpong_bytes(iters: u64, payload: &Bytes) -> Duration {
    pingpong(
        iters,
        |comm| {
            comm.send_bytes(1, 0, payload.clone()).unwrap();
            let _ = comm.recv_bytes(1, 0).unwrap();
        },
        |comm| {
            let (b, _) = comm.recv_bytes(0, 0).unwrap();
            comm.send_bytes(0, 0, b).unwrap();
        },
    )
}

fn bench(c: &mut Criterion) {
    println!("\np2p_messaging: 2-rank ping-pong round trip on a persistent world; typed (binary serde) vs raw-bytes path");
    let mut group = c.benchmark_group("p2p/pingpong");
    group.bench_function("typed_u64", |b| {
        b.iter_custom(|iters| pingpong_typed!(iters, &7u64, u64))
    });
    for n in [16usize, 256, 4096] {
        let payload: Vec<f64> = (0..n).map(|i| i as f64).collect();
        group.bench_with_input(BenchmarkId::new("typed_f64s", n), &payload, |b, p| {
            b.iter_custom(|iters| pingpong_typed!(iters, p, Vec<f64>))
        });
        let raw = Bytes::from(vec![0u8; n * 8]);
        group.bench_with_input(BenchmarkId::new("raw_bytes", n * 8), &raw, |b, p| {
            b.iter_custom(|iters| pingpong_bytes(iters, p))
        });
    }
    group.finish();
}

fn main() {
    let mut c = pdc_bench::criterion();
    bench(&mut c);
    c.final_summary();
}
