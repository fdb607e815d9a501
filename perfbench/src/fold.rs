//! Folds the events of traced labs into per-layer numbers: the
//! benchmark's own entry-point spans, pdc-net's `net/*` counters, and
//! pdc-insight's critical-path attribution of each lab.

use std::collections::BTreeMap;

use pdc_analyze::traceio::parse_jsonl;
use pdc_insight::{critical_path, Breakdown};
use pdc_trace::{export, ArgValue, Event, EventKind};

use crate::stats::median;

/// A span on the client thread around a whole entry point or world: the
/// benchmark's own entry spans (rank spans carry a `rank` arg) and
/// pdc-mpc's `world_run`.
fn wraps_world(e: &Event) -> bool {
    matches!(e.kind, EventKind::Span { .. })
        && match e.category {
            "bench" => !e.args.iter().any(|(k, _)| *k == "rank"),
            "mpc" => e.name == "world_run",
            _ => false,
        }
}

#[derive(Default)]
pub struct TraceFold {
    pub labs: u64,
    pub events: u64,
    /// Entry-point span durations in ms, from the client thread or rank 0.
    entries: BTreeMap<&'static str, Vec<f64>>,
    pub suite_ns: u64,
    pub gather_ns: u64,
    pub barrier_ns: u64,
    pub path: Breakdown,
    pub frames: i64,
    pub wire_bytes: i64,
    pub heartbeats: i64,
}

impl TraceFold {
    /// Everything one lab recorded, drained right after it.
    ///
    /// The critical path has no edge from a thread into the ranks it
    /// spawns, so a span that wraps a whole world on the spawning thread
    /// would claim the entire interval as compute. Each entry point's
    /// interval is therefore attributed on its own, without such wrappers.
    pub fn lab(&mut self, events: Vec<Event>) {
        self.labs += 1;
        self.count(&events);
        let entries: Vec<(u64, u64)> = events
            .iter()
            .filter(|e| e.category == "bench" && wraps_world(e))
            .filter_map(|e| match e.kind {
                EventKind::Span { dur_ns } => Some((e.ts_ns, e.ts_ns + dur_ns)),
                _ => None,
            })
            .collect();
        let inner = |e: &&Event| !wraps_world(e);
        if entries.is_empty() {
            self.attribute(events.iter().filter(inner).cloned().collect());
        }
        for (start, end) in entries {
            let window = events
                .iter()
                .filter(|e| (start..end).contains(&e.ts_ns))
                .filter(inner)
                .cloned()
                .collect();
            self.attribute(window);
        }
    }

    fn attribute(&mut self, events: Vec<Event>) {
        if let Some(cp) = critical_path(&parse_jsonl(&export::jsonl(&events))) {
            let b = cp.breakdown;
            self.path.compute_ns += b.compute_ns;
            self.path.barrier_ns += b.barrier_ns;
            self.path.lock_ns += b.lock_ns;
            self.path.wire_ns += b.wire_ns;
            self.path.idle_ns += b.idle_ns;
        }
    }

    /// Count events, entry-span times and net counters. [`Self::lab`]
    /// does this for each lab; call it alone for events that surface only
    /// after the labs, such as the counters pdc-net's pumps hand over as
    /// they exit.
    pub fn count(&mut self, events: &[Event]) {
        self.events += events.len() as u64;
        for e in events {
            match (e.category, &e.kind) {
                ("bench", EventKind::Span { dur_ns }) => {
                    let off_rank0 = e
                        .args
                        .iter()
                        .any(|(k, v)| *k == "rank" && *v != ArgValue::U64(0));
                    if off_rank0 {
                        continue;
                    }
                    match e.name {
                        "suite_pass" => self.suite_ns += dur_ns,
                        "suite_gather" => self.gather_ns += dur_ns,
                        "suite_barrier" => self.barrier_ns += dur_ns,
                        name => self
                            .entries
                            .entry(name)
                            .or_default()
                            .push(*dur_ns as f64 / 1e6),
                    }
                }
                ("net", EventKind::Counter { delta }) => match e.name {
                    "frames_sent" => self.frames += delta,
                    "bytes_sent" => self.wire_bytes += delta,
                    "heartbeats_sent" => self.heartbeats += delta,
                    _ => {}
                },
                _ => {}
            }
        }
    }

    /// Median time of one call of the entry point `name`, or 0 when the
    /// labs never called it.
    pub fn entry_ms(&self, name: &str) -> f64 {
        self.entries.get(name).map_or(0.0, |v| median(v))
    }

    /// Share of the critical path in each category, in percent.
    pub fn path_pct(&self) -> [(&'static str, f64); 5] {
        let b = &self.path;
        let total = b.total_ns().max(1) as f64;
        [
            ("compute", b.compute_ns),
            ("barrier", b.barrier_ns),
            ("lock", b.lock_ns),
            ("wire", b.wire_ns),
            ("idle", b.idle_ns),
        ]
        .map(|(k, ns)| (k, 100.0 * ns as f64 / total))
    }
}
