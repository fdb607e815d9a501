//! Exporters for recorded traces: Chrome trace-event JSON (Perfetto /
//! `chrome://tracing`), JSONL, and a plain-text summary table.
//!
//! All three are hand-written serializers so `pdc-trace` stays
//! dependency-free; the JSON subset emitted here (numbers, escaped
//! strings, flat objects) is small enough that this is safe.

use crate::hist::Histogram;
use crate::{ArgValue, Event, EventKind, MetricKey};
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn arg_json(v: &ArgValue, out: &mut String) {
    match v {
        ArgValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        ArgValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        ArgValue::F64(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        ArgValue::F64(_) => out.push_str("null"),
        ArgValue::Str(s) => escape_into(s, out),
    }
}

fn args_json(args: &[(&'static str, ArgValue)], out: &mut String) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(k, out);
        out.push(':');
        arg_json(v, out);
    }
    out.push('}');
}

/// Render events as a Chrome trace-event JSON array. Load the output in
/// Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`: spans
/// appear as nested intervals per thread row, counters and gauges as
/// value tracks. Thread labels registered via
/// [`crate::set_thread_label`] become row names.
pub fn chrome_trace(events: &[Event]) -> String {
    // The real OS pid: merged traces from several rank processes keep
    // their rows apart instead of colliding on a synthetic pid 0.
    let pid = std::process::id();
    let mut out = String::from("[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
    };

    if let Some(label) = crate::process_label() {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":"
        );
        escape_into(&label, &mut out);
        out.push_str("}}");
    }

    for (tid, label) in crate::thread_labels() {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":"
        );
        escape_into(&label, &mut out);
        out.push_str("}}");
    }

    // Counters are recorded as deltas; Chrome counter tracks want the
    // running level, so accumulate per (category, name).
    let mut running: BTreeMap<(&str, &str), i64> = BTreeMap::new();

    for e in events {
        sep(&mut out);
        let ts_us = e.ts_ns as f64 / 1_000.0;
        match &e.kind {
            EventKind::Span { dur_ns } => {
                let dur_us = *dur_ns as f64 / 1_000.0;
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts_us},\"dur\":{dur_us},\"pid\":{pid},\"tid\":{},\"args\":",
                    e.name, e.category, e.tid
                );
                args_json(&e.args, &mut out);
                out.push('}');
            }
            EventKind::Instant => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"ts\":{ts_us},\"s\":\"t\",\"pid\":{pid},\"tid\":{},\"args\":",
                    e.name, e.category, e.tid
                );
                args_json(&e.args, &mut out);
                out.push('}');
            }
            EventKind::Counter { delta } => {
                let level = running.entry((e.category, e.name)).or_insert(0);
                *level += delta;
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"C\",\"ts\":{ts_us},\"pid\":{pid},\"tid\":{},\"args\":{{\"{}\":{}}}}}",
                    e.name, e.category, e.tid, e.name, *level
                );
            }
            EventKind::Gauge { value } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"C\",\"ts\":{ts_us},\"pid\":{pid},\"tid\":{},\"args\":{{\"{}\":{}}}}}",
                    e.name,
                    e.category,
                    e.tid,
                    e.name,
                    if value.is_finite() { *value } else { 0.0 }
                );
            }
        }
    }
    out.push_str("\n]\n");
    out
}

/// Render events as JSONL: one self-describing JSON object per line,
/// the same shape other workspace telemetry (e.g.
/// `TrafficMatrix::to_jsonl`) uses, so streams can be concatenated.
pub fn jsonl(events: &[Event]) -> String {
    // Stamp each line with the emitting OS pid so streams merged from
    // several rank processes stay attributable (and `pdc-analyze` can
    // tell a multi-process run from sequential same-process runs).
    jsonl_for_pid(events, std::process::id())
}

/// [`jsonl`] stamped with a given `pid` instead of this process's: the
/// writer for traces laid out on behalf of other (or virtual) processes.
pub fn jsonl_for_pid(events: &[Event], pid: u32) -> String {
    let mut out = String::new();
    for e in events {
        out.push('{');
        let kind = match &e.kind {
            EventKind::Span { .. } => "span",
            EventKind::Instant => "instant",
            EventKind::Counter { .. } => "counter",
            EventKind::Gauge { .. } => "gauge",
        };
        let _ = write!(
            out,
            "\"kind\":\"{kind}\",\"cat\":\"{}\",\"name\":\"{}\",\"ts_ns\":{},\"tid\":{},\"pid\":{pid}",
            e.category, e.name, e.ts_ns, e.tid
        );
        match &e.kind {
            EventKind::Span { dur_ns } => {
                let _ = write!(out, ",\"dur_ns\":{dur_ns}");
            }
            EventKind::Counter { delta } => {
                let _ = write!(out, ",\"delta\":{delta}");
            }
            EventKind::Gauge { value } if value.is_finite() => {
                let _ = write!(out, ",\"value\":{value}");
            }
            EventKind::Gauge { .. } => out.push_str(",\"value\":null"),
            EventKind::Instant => {}
        }
        if !e.args.is_empty() {
            out.push_str(",\"args\":");
            args_json(&e.args, &mut out);
        }
        out.push_str("}\n");
    }
    out
}

/// Render drained histograms as JSONL lines, one per metric:
/// `{"kind":"hist","cat":..,"name":..,"pid":..,"count":..,"sum":..,"min":..,"max":..,"buckets":[[idx,count],..]}`.
/// Lines concatenate with the event JSONL stream; rank processes in the
/// wire study append theirs to the per-rank trace file and the driver
/// (or `pdc-insight`) merges same-keyed histograms by bucket addition.
pub fn hist_jsonl(hists: &BTreeMap<MetricKey, Histogram>) -> String {
    hist_jsonl_for_pid(hists, std::process::id())
}

/// [`hist_jsonl`] stamped with a given `pid`, one line per histogram in
/// the iterator's order.
pub fn hist_jsonl_for_pid<'a>(
    hists: impl IntoIterator<Item = (&'a MetricKey, &'a Histogram)>,
    pid: u32,
) -> String {
    let mut out = String::new();
    for ((cat, name), h) in hists {
        let _ = write!(out, "{{\"kind\":\"hist\",\"cat\":");
        escape_into(cat, &mut out);
        out.push_str(",\"name\":");
        escape_into(name, &mut out);
        let _ = write!(out, ",\"pid\":{pid},");
        // Histogram::to_json renders `{"count":..,...}`; splice its
        // body (everything past the opening brace) onto our prefix.
        out.push_str(&h.to_json()[1..]);
        out.push('\n');
    }
    out
}

#[derive(Default)]
struct SpanStats {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    /// Duration distribution; the summary table renders it through
    /// [`Histogram::log2_us_cells`] so there is exactly one bucketing
    /// implementation in the workspace.
    hist: Histogram,
}

impl SpanStats {
    fn record(&mut self, dur_ns: u64) {
        self.count += 1;
        self.total_ns += dur_ns;
        if self.count == 1 || dur_ns < self.min_ns {
            self.min_ns = dur_ns;
        }
        self.max_ns = self.max_ns.max(dur_ns);
        self.hist.record(dur_ns);
    }
}

/// Width of the summary table's log2(µs) histogram column.
const SUMMARY_CELLS: usize = 12;

fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

/// Aggregate per-(category, name) statistics a study or dashboard can
/// fold into its own reporting.
pub struct MetricSummary {
    pub spans: Vec<SpanLine>,
    pub counters: Vec<CounterLine>,
    pub gauges: Vec<GaugeLine>,
}

pub struct SpanLine {
    pub category: String,
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub mean_ns: u64,
    pub max_ns: u64,
}

pub struct CounterLine {
    pub category: String,
    pub name: String,
    pub events: u64,
    pub total: i64,
}

pub struct GaugeLine {
    pub category: String,
    pub name: String,
    pub samples: u64,
    pub min: f64,
    pub mean: f64,
    pub max: f64,
}

/// Fold events into per-metric aggregates.
pub fn summarize(events: &[Event]) -> MetricSummary {
    let mut spans: BTreeMap<(&str, &str), SpanStats> = BTreeMap::new();
    let mut counters: BTreeMap<(&str, &str), (u64, i64)> = BTreeMap::new();
    let mut gauges: BTreeMap<(&str, &str), (u64, f64, f64, f64)> = BTreeMap::new();
    for e in events {
        let key = (e.category, e.name);
        match &e.kind {
            EventKind::Span { dur_ns } => {
                spans.entry(key).or_default().record(*dur_ns);
            }
            EventKind::Instant => {}
            EventKind::Counter { delta } => {
                let entry = counters.entry(key).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += delta;
            }
            EventKind::Gauge { value } => {
                let entry = gauges
                    .entry(key)
                    .or_insert((0, f64::INFINITY, 0.0, f64::NEG_INFINITY));
                entry.0 += 1;
                entry.1 = entry.1.min(*value);
                entry.2 += value;
                entry.3 = entry.3.max(*value);
            }
        }
    }
    MetricSummary {
        spans: spans
            .into_iter()
            .map(|((cat, name), s)| SpanLine {
                category: cat.to_string(),
                name: name.to_string(),
                count: s.count,
                total_ns: s.total_ns,
                min_ns: s.min_ns,
                mean_ns: s.total_ns / s.count.max(1),
                max_ns: s.max_ns,
            })
            .collect(),
        counters: counters
            .into_iter()
            .map(|((cat, name), (events, total))| CounterLine {
                category: cat.to_string(),
                name: name.to_string(),
                events,
                total,
            })
            .collect(),
        gauges: gauges
            .into_iter()
            .map(|((cat, name), (n, min, sum, max))| GaugeLine {
                category: cat.to_string(),
                name: name.to_string(),
                samples: n,
                min,
                mean: sum / n.max(1) as f64,
                max,
            })
            .collect(),
    }
}

/// Sum of one named counter's deltas across an event stream.
///
/// This is the reconciliation primitive for fault accounting:
/// `reproduce --trace --chaos` (and the chaos test suite) check that
/// the tracer's `chaos/...` counter totals equal the fault ledger's
/// fields *exactly* — every injected fault observed, every observed
/// fault injected. Returns 0 when the counter never fired.
pub fn counter_total(events: &[Event], category: &str, name: &str) -> i64 {
    events
        .iter()
        .filter(|e| e.category == category && e.name == name)
        .map(|e| match e.kind {
            EventKind::Counter { delta } => delta,
            _ => 0,
        })
        .sum()
}

/// Every counter total within one category, sorted by name — the
/// category's complete ledger as seen by the tracer.
pub fn counter_totals(events: &[Event], category: &str) -> Vec<(String, i64)> {
    summarize(events)
        .counters
        .into_iter()
        .filter(|c| c.category == category)
        .map(|c| (c.name, c.total))
        .collect()
}

/// Render a plain-text summary table: one line per span metric with a
/// count / total / min / mean / max breakdown and a log-scale duration
/// histogram, then counter totals and gauge ranges.
pub fn summary(events: &[Event]) -> String {
    let mut spans: BTreeMap<(&str, &str), SpanStats> = BTreeMap::new();
    for e in events {
        if let EventKind::Span { dur_ns } = &e.kind {
            spans
                .entry((e.category, e.name))
                .or_default()
                .record(*dur_ns);
        }
    }
    let agg = summarize(events);

    let mut out = String::new();
    let _ = writeln!(out, "trace summary: {} events", events.len());
    if !agg.spans.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}  histogram(µs, log2)",
            "span", "count", "total", "min", "mean", "max"
        );
        for line in &agg.spans {
            let stats = &spans[&(line.category.as_str(), line.name.as_str())];
            let hist: String = stats
                .hist
                .log2_us_cells(SUMMARY_CELLS)
                .iter()
                .map(|&b| match b {
                    0 => '.',
                    1..=9 => char::from(b'0' + b as u8),
                    _ => '#',
                })
                .collect();
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}  [{hist}]",
                format!("{}/{}", line.category, line.name),
                line.count,
                fmt_ns(line.total_ns),
                fmt_ns(line.min_ns),
                fmt_ns(line.mean_ns),
                fmt_ns(line.max_ns),
            );
        }
    }
    if !agg.counters.is_empty() {
        let _ = writeln!(out, "\n{:<28} {:>8} {:>10}", "counter", "events", "total");
        for line in &agg.counters {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>10}",
                format!("{}/{}", line.category, line.name),
                line.events,
                line.total,
            );
        }
    }
    if !agg.gauges.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<28} {:>8} {:>10} {:>10} {:>10}",
            "gauge", "samples", "min", "mean", "max"
        );
        for line in &agg.gauges {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>10.2} {:>10.2} {:>10.2}",
                format!("{}/{}", line.category, line.name),
                line.samples,
                line.min,
                line.mean,
                line.max,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, EventKind};

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                kind: EventKind::Span { dur_ns: 5_000 },
                category: "shmem",
                name: "barrier_wait",
                ts_ns: 100,
                tid: 1,
                args: vec![("thread", ArgValue::U64(1))],
            },
            Event {
                kind: EventKind::Counter { delta: 3 },
                category: "shmem",
                name: "spinlock_contended",
                ts_ns: 200,
                tid: 1,
                args: Vec::new(),
            },
            Event {
                kind: EventKind::Gauge { value: 2.0 },
                category: "mpc",
                name: "queue_depth",
                ts_ns: 300,
                tid: 2,
                args: Vec::new(),
            },
            Event {
                kind: EventKind::Instant,
                category: "shmem",
                name: "chunk",
                ts_ns: 400,
                tid: 1,
                args: vec![
                    ("len", ArgValue::U64(16)),
                    ("sched", ArgValue::Str("static")),
                ],
            },
        ]
    }

    #[test]
    fn chrome_trace_shape() {
        let text = chrome_trace(&sample_events());
        assert!(text.trim_start().starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"C\""));
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("barrier_wait"));
    }

    #[test]
    fn jsonl_one_line_per_event() {
        let events = sample_events();
        let text = jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(text.contains("\"dur_ns\":5000"));
        assert!(text.contains("\"sched\":\"static\""));
    }

    #[test]
    fn counter_total_sums_only_matching_deltas() {
        let mut events = sample_events();
        events.push(Event {
            kind: EventKind::Counter { delta: 4 },
            category: "shmem",
            name: "spinlock_contended",
            ts_ns: 500,
            tid: 2,
            args: Vec::new(),
        });
        assert_eq!(counter_total(&events, "shmem", "spinlock_contended"), 7);
        assert_eq!(counter_total(&events, "shmem", "nope"), 0);
        assert_eq!(
            counter_totals(&events, "shmem"),
            vec![("spinlock_contended".to_string(), 7)]
        );
        assert!(counter_totals(&events, "mpc").is_empty());
    }

    #[test]
    fn hist_jsonl_one_line_per_metric() {
        let mut hists: BTreeMap<MetricKey, Histogram> = BTreeMap::new();
        hists.entry(("net", "rtt")).or_default().record(1_000);
        hists.entry(("shmem", "wait")).or_default().record_n(7, 3);
        let text = hist_jsonl(&hists);
        assert_eq!(text.lines().count(), 2);
        assert!(text
            .lines()
            .all(|l| l.starts_with("{\"kind\":\"hist\"") && l.ends_with('}')));
        assert!(text.contains("\"cat\":\"net\",\"name\":\"rtt\""));
        assert!(text.contains("\"count\":3"));
        assert!(text.contains(&format!("[{},3]", crate::hist::bucket_index(7))));
    }

    #[test]
    fn summary_aggregates() {
        let text = summary(&sample_events());
        assert!(text.contains("shmem/barrier_wait"));
        assert!(text.contains("shmem/spinlock_contended"));
        assert!(text.contains("mpc/queue_depth"));
        let agg = summarize(&sample_events());
        assert_eq!(agg.spans.len(), 1);
        assert_eq!(agg.spans[0].count, 1);
        assert_eq!(agg.counters[0].total, 3);
        assert_eq!(agg.gauges[0].samples, 1);
    }
}
