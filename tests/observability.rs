//! Cross-runtime invariants of the pdc-trace observability layer.
//!
//! The tracer's enable flag and registry are process-global, so every
//! test here serializes on one mutex — they all live in this one
//! integration binary for exactly that reason.

use std::sync::Mutex;

use pdc_mpc::World;
use pdc_shmem::{parallel_for, Schedule, Team};
use pdc_trace::{ArgValue, EventKind};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Sum of the `bytes` args on all spans with the given name.
fn span_bytes(events: &[pdc_trace::Event], name: &str) -> u64 {
    events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Span { .. }) && e.name == name)
        .filter_map(|e| {
            e.args.iter().find_map(|(k, v)| match (k, v) {
                (&"bytes", ArgValue::U64(b)) => Some(*b),
                _ => None,
            })
        })
        .sum()
}

#[test]
fn barrier_wait_events_are_threads_times_barriers() {
    let _guard = TRACE_LOCK.lock().unwrap();
    const THREADS: usize = 4;
    const BARRIERS: usize = 5;
    let ((), events) = pdc_trace::with_tracing(|| {
        let team = Team::new(THREADS);
        team.parallel(|ctx| {
            for _ in 0..BARRIERS {
                ctx.barrier();
            }
        });
    });
    let waits = events
        .iter()
        .filter(|e| e.category == "shmem" && e.name == "barrier_wait")
        .count();
    assert_eq!(
        waits,
        THREADS * BARRIERS,
        "each thread records one barrier_wait span per crossing"
    );
    // Every wait is a span with a duration and a thread arg.
    for e in events.iter().filter(|e| e.name == "barrier_wait") {
        assert!(matches!(e.kind, EventKind::Span { .. }));
        assert!(e.args.iter().any(|(k, _)| *k == "thread"));
    }
}

#[test]
fn traffic_spans_reconcile_with_traffic_matrix() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let ((_, matrix), events) = pdc_trace::with_tracing(|| {
        World::new(4).run_traced(|c| {
            // A ring exchange plus a collective, so both the user path
            // and the internal reserved-tag path carry traffic.
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 0, &vec![c.rank(); 8]).unwrap();
            let _: Vec<usize> = c.recv(prev, 0).unwrap();
            c.allreduce(c.rank() as u64, |a, b| a + b).unwrap()
        })
    });

    let send_spans = events
        .iter()
        .filter(|e| e.category == "mpc" && e.name == "send")
        .count() as u64;
    assert_eq!(
        send_spans,
        matrix.total_messages(),
        "every message the matrix counted has exactly one send span"
    );
    assert_eq!(
        span_bytes(&events, "send"),
        matrix.total_bytes(),
        "send-span byte args sum to the matrix's byte total"
    );
    // Every byte sent was received: recv spans reconcile too.
    assert_eq!(span_bytes(&events, "recv"), matrix.total_bytes());
}

#[test]
fn disabled_tracer_records_no_events() {
    let _guard = TRACE_LOCK.lock().unwrap();
    pdc_trace::reset();
    pdc_trace::disable();

    // Exercise both runtimes' instrumented paths with tracing off.
    let team = Team::new(3);
    let hits = std::sync::atomic::AtomicUsize::new(0);
    parallel_for(&team, 0..64, Schedule::Dynamic { chunk: 4 }, |_, _| {
        hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    });
    assert_eq!(hits.into_inner(), 64);
    team.parallel(|ctx| {
        ctx.barrier();
    });
    let _ = World::new(3).run(|c| c.allgather(c.rank()).unwrap());

    assert!(
        pdc_trace::drain().is_empty(),
        "disabled tracer must record nothing"
    );
}

#[test]
fn chunk_events_cover_the_range_once_per_schedule() {
    let _guard = TRACE_LOCK.lock().unwrap();
    for schedule in [
        Schedule::Static { chunk: Some(7) },
        Schedule::Dynamic { chunk: 5 },
        Schedule::Guided { min_chunk: 2 },
    ] {
        let ((), events) = pdc_trace::with_tracing(|| {
            let team = Team::new(3);
            parallel_for(&team, 0..100, schedule, |_, _| {});
        });
        let mut covered = 0usize;
        for e in events.iter().filter(|e| e.name == "chunk") {
            let get = |key: &str| {
                e.args.iter().find_map(|(k, v)| match v {
                    ArgValue::U64(n) if *k == key => Some(*n as usize),
                    _ => None,
                })
            };
            covered += get("len").expect("chunk has len");
            let label = e
                .args
                .iter()
                .find_map(|(k, v)| match v {
                    ArgValue::Str(s) if *k == "schedule" => Some(*s),
                    _ => None,
                })
                .expect("chunk is keyed by schedule");
            assert_eq!(label, schedule.kind_label());
        }
        assert_eq!(covered, 100, "chunk events tile the range ({schedule:?})");
    }
}

#[test]
fn chaos_ledger_reconciles_with_trace_counters() {
    let _guard = TRACE_LOCK.lock().unwrap();
    use pdc_chaos::ChaosContext;
    use pdc_exemplars::forestfire;

    // Run the canonical chaos workload under tracing: every FaultLog
    // increment is mirrored as a `chaos/<name>` counter, so the trace
    // stream's totals must equal the ledger exactly — injected vs.
    // observed reconcile to the message.
    let (stats, events) = pdc_trace::with_tracing(|| {
        let ctx = ChaosContext::new(pdc_core::chaos::canonical_fire_plan(2020));
        let config = forestfire::FireConfig {
            size: 15,
            trials: 4,
            ..Default::default()
        };
        let run = forestfire::run_mpc_recoverable(&config, pdc_core::chaos::CHAOS_NP, &ctx);
        assert_eq!(run.value, forestfire::run_seq(&config));
        ctx.stats()
    });

    let total = |name: &str| pdc_trace::export::counter_total(&events, "chaos", name) as u64;
    assert!(stats.drops > 0 && stats.crashes > 0, "{stats:?}");
    assert_eq!(total("faults_dropped"), stats.drops);
    assert_eq!(total("faults_straggled"), stats.straggler_delays);
    assert_eq!(total("faults_crashed"), stats.crashes);
    assert_eq!(total("retries"), stats.retries);
    assert_eq!(total("drops_recovered"), stats.drops_recovered);
    assert_eq!(total("crashes_recovered"), stats.crashes_recovered);
    assert_eq!(total("checkpoints_saved"), stats.checkpoints_saved);
    assert_eq!(total("checkpoints_restored"), stats.checkpoints_restored);
    assert_eq!(total("shrinks"), stats.shrinks);
    assert!(stats.all_recovered(), "{stats:?}");
    // The crash is also visible as a discrete instant event.
    assert!(events
        .iter()
        .any(|e| e.category == "chaos" && e.name == "rank_crashed"));
}

#[test]
fn every_injected_message_fault_is_one_fault_injected_instant() {
    let _guard = TRACE_LOCK.lock().unwrap();
    use pdc_chaos::{FaultInjector, FaultPlan};
    use std::sync::Arc;

    // Every kind of message fault on user sends between three thread
    // ranks, with a partition window cutting the 0 <-> 1 channels for
    // the whole run; the closing barrier's control traffic must add no
    // instant.
    let inj = Arc::new(FaultInjector::new(
        FaultPlan::new(11)
            .with_drop_rate(0.2)
            .with_duplicate_rate(0.2)
            .with_delay(0.1, 1)
            .with_reorder_rate(0.2)
            .with_partition(vec![0], vec![1], 0, 1_000),
    ));
    let ((), events) = pdc_trace::with_tracing(|| {
        World::new(3)
            .with_fault_injector(Arc::clone(&inj))
            .run(|c| {
                for i in 0..40u32 {
                    c.send((c.rank() + 1 + (i as usize % 2)) % 3, 5, &i)
                        .unwrap();
                }
                c.barrier().unwrap();
            });
    });
    let s = inj.stats();
    assert!(
        s.drops > 0 && s.partition_drops > 0 && s.duplicates > 0 && s.delays > 0 && s.reorders > 0,
        "the plan missed a fault kind: {s:?}"
    );
    let instants: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Instant) && e.name == "fault_injected")
        .collect();
    assert_eq!(
        instants.len() as u64,
        s.drops + s.partition_drops + s.duplicates + s.delays + s.reorders
    );
    let kind = |want: &str| {
        instants
            .iter()
            .filter(|e| {
                e.category == "chaos"
                    && e.args
                        .iter()
                        .any(|(k, v)| *k == "fault" && matches!(v, ArgValue::Str(f) if *f == want))
            })
            .count() as u64
    };
    assert_eq!(kind("drop"), s.drops + s.partition_drops);
    assert_eq!(kind("duplicate"), s.duplicates);
    assert_eq!(kind("delay"), s.delays);
    assert_eq!(kind("reorder"), s.reorders);
}

#[test]
fn chrome_export_of_a_mixed_run_is_valid_json() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let ((), events) = pdc_trace::with_tracing(|| {
        let team = Team::new(2);
        team.parallel(|ctx| {
            ctx.barrier();
        });
        let _ = World::new(2).run(|c| c.bcast(0, (c.rank() == 0).then_some(1u8)).unwrap());
    });
    let chrome = pdc_trace::export::chrome_trace(&events);
    let parsed: serde_json::Value = serde_json::from_str(&chrome).expect("valid JSON");
    let entries = parsed.as_array().expect("chrome trace is a JSON array");
    assert!(entries
        .iter()
        .any(|e| e["cat"] == "shmem" && e["ph"] == "X"));
    assert!(entries.iter().any(|e| e["cat"] == "mpc" && e["ph"] == "X"));
}
