//! # pdc-trace — structured tracing & metrics for both PDC runtimes
//!
//! A dependency-free event recorder shared by `pdc-shmem` (OpenMP-style
//! threads) and `pdc-mpc` (MPI-style ranks). The paper's pedagogy is
//! *seeing* parallel behaviour; this crate is how the runtimes become
//! visible: fork/join and barrier spans, lock-contention counters,
//! per-chunk dispatch events, message/collective spans, queue-depth
//! gauges.
//!
//! ## Design
//!
//! - **Globally disabled by default.** Every recording call starts with
//!   a single `Relaxed` atomic load; when tracing is off nothing else
//!   happens — no allocation, no clock read, no locking.
//! - **Buffered per thread.** Events append to a thread-local `Vec`;
//!   the shared registry is only touched when a thread exits (its
//!   buffer is parked via a TLS destructor) or when [`drain`] runs on
//!   the calling thread. The hot path never takes a lock.
//! - **Monotonic timestamps.** All events carry nanoseconds since a
//!   process-wide epoch captured on first use, so spans from different
//!   threads and ranks line up on one timeline.
//! - **Three exporters** (see [`export`]): Chrome trace-event JSON
//!   (loadable in Perfetto / `chrome://tracing`), JSONL (one event per
//!   line, easy to grep and join with other JSONL telemetry), and a
//!   plain-text summary table with wait-time histograms.
//!
//! ## Example
//!
//! ```
//! pdc_trace::enable();
//! {
//!     let _span = pdc_trace::span("demo", "work");
//!     pdc_trace::counter("demo", "items", 3);
//! }
//! pdc_trace::disable();
//! let events = pdc_trace::drain();
//! assert_eq!(events.len(), 2);
//! let chrome = pdc_trace::export::chrome_trace(&events);
//! assert!(chrome.starts_with('['));
//! ```

pub mod export;
pub mod hist;

pub use hist::Histogram;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Key identifying one recorded metric: `(category, name)`.
pub type MetricKey = (&'static str, &'static str);

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// A single argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(&'static str),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}

impl From<i32> for ArgValue {
    fn from(v: i32) -> Self {
        ArgValue::I64(v as i64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(v)
    }
}

pub type Args = Vec<(&'static str, ArgValue)>;

/// What kind of measurement an [`Event`] carries.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A closed interval; `dur_ns` is its length.
    Span { dur_ns: u64 },
    /// A point in time.
    Instant,
    /// A monotonic increment (e.g. lock contention count += delta).
    Counter { delta: i64 },
    /// A sampled level (e.g. mailbox queue depth right now).
    Gauge { value: f64 },
}

/// One recorded event. `ts_ns` is nanoseconds since the process-wide
/// trace epoch; for spans it marks the *start* of the interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub kind: EventKind,
    /// Coarse subsystem, e.g. `"shmem"`, `"mpc"`.
    pub category: &'static str,
    /// Event name, e.g. `"barrier_wait"`, `"bcast"`.
    pub name: &'static str,
    pub ts_ns: u64,
    /// Small sequential id of the recording OS thread.
    pub tid: u32,
    pub args: Args,
}

// ---------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn registry() -> &'static Mutex<RegistryInner> {
    static REGISTRY: OnceLock<Mutex<RegistryInner>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(RegistryInner::default()))
}

#[derive(Default)]
struct RegistryInner {
    /// Buffers parked by exited threads (or drained from live ones).
    parked: Vec<Event>,
    /// Histograms parked/flushed by threads, merged per metric.
    parked_hists: BTreeMap<MetricKey, Histogram>,
    /// Labels registered for thread ids (`set_thread_label`).
    labels: Vec<(u32, String)>,
    /// Label for this whole process (`set_process_label`).
    process_label: Option<String>,
}

impl RegistryInner {
    fn merge_hists(&mut self, hists: BTreeMap<MetricKey, Histogram>) {
        for (key, h) in hists {
            self.parked_hists.entry(key).or_default().merge(&h);
        }
    }
}

/// Turn tracing on. Events recorded while enabled stay buffered until
/// [`drain`] is called.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn tracing off. In-flight spans created while enabled still record
/// on drop so the trace has no dangling intervals.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// The fast-path check every recording call makes first.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the process-wide trace epoch.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

struct ThreadBuffer {
    tid: u32,
    events: RefCell<Vec<Event>>,
    hists: RefCell<BTreeMap<MetricKey, Histogram>>,
}

impl Drop for ThreadBuffer {
    fn drop(&mut self) {
        let events = std::mem::take(&mut *self.events.borrow_mut());
        let hists = std::mem::take(&mut *self.hists.borrow_mut());
        if !events.is_empty() || !hists.is_empty() {
            let mut reg = registry().lock().expect("trace registry");
            reg.parked.extend(events);
            reg.merge_hists(hists);
        }
    }
}

thread_local! {
    static BUFFER: ThreadBuffer = ThreadBuffer {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        events: RefCell::new(Vec::new()),
        hists: RefCell::new(BTreeMap::new()),
    };
}

#[inline]
fn push(kind: EventKind, category: &'static str, name: &'static str, ts_ns: u64, args: Args) {
    BUFFER.with(|buf| {
        buf.events.borrow_mut().push(Event {
            kind,
            category,
            name,
            ts_ns,
            tid: buf.tid,
            args,
        });
    });
}

/// Park the calling thread's buffered events in the shared registry so
/// a later [`drain`] (from any thread) sees them. Worker threads must
/// call this before their work returns: a scoped-thread join waits only
/// for the closure, not for TLS destructors, and a hot-team worker never
/// exits at all, so relying on the drop-time flush alone can race with
/// (or never reach) `drain`. Both runtimes call this
/// at their join points; the destructor remains as a backstop for
/// ad-hoc threads.
pub fn flush_thread() {
    let (events, hists) = BUFFER.with(|buf| {
        (
            std::mem::take(&mut *buf.events.borrow_mut()),
            std::mem::take(&mut *buf.hists.borrow_mut()),
        )
    });
    if !events.is_empty() || !hists.is_empty() {
        let mut reg = registry().lock().expect("trace registry");
        reg.parked.extend(events);
        reg.merge_hists(hists);
    }
}

/// Collect everything recorded so far: the calling thread's own buffer
/// plus all buffers flushed or parked by other threads. Call it after
/// joining workers. Events come back sorted by timestamp.
pub fn drain() -> Vec<Event> {
    let mut own = BUFFER.with(|buf| std::mem::take(&mut *buf.events.borrow_mut()));
    {
        let mut reg = registry().lock().expect("trace registry");
        own.append(&mut reg.parked);
    }
    own.sort_by_key(|e| e.ts_ns);
    own
}

/// Put previously [`drain`]ed events back into the shared registry so a
/// later drain still sees them. Lets an intermediate observer (e.g. the
/// speedup studies) split the stream, compute row-local statistics, and
/// hand the events on to whoever exports the full timeline.
pub fn inject(events: Vec<Event>) {
    if events.is_empty() {
        return;
    }
    registry()
        .lock()
        .expect("trace registry")
        .parked
        .extend(events);
}

/// Collect the histograms recorded so far (this thread's plus every
/// flushed/parked thread's), merged per metric, and clear them. Worker
/// threads must have called [`flush_thread`] (both runtimes do at their
/// join points) for their histograms to be visible here.
pub fn drain_histograms() -> BTreeMap<MetricKey, Histogram> {
    let mut own = BUFFER.with(|buf| std::mem::take(&mut *buf.hists.borrow_mut()));
    {
        let mut reg = registry().lock().expect("trace registry");
        for (key, h) in std::mem::take(&mut reg.parked_hists) {
            own.entry(key).or_default().merge(&h);
        }
    }
    own
}

/// Drop everything recorded so far, including parked buffers and
/// thread labels. Intended for tests and for re-arming between runs.
pub fn reset() {
    BUFFER.with(|buf| {
        buf.events.borrow_mut().clear();
        buf.hists.borrow_mut().clear();
    });
    let mut reg = registry().lock().expect("trace registry");
    reg.parked.clear();
    reg.parked_hists.clear();
    reg.labels.clear();
    reg.process_label = None;
}

/// Attach a human-readable label (e.g. `"rank 2"`, `"worker 3"`) to the
/// calling thread; exporters use it to name timeline rows.
pub fn set_thread_label(label: impl Into<String>) {
    if !is_enabled() {
        return;
    }
    let tid = BUFFER.with(|buf| buf.tid);
    let mut reg = registry().lock().expect("trace registry");
    reg.labels.retain(|(t, _)| *t != tid);
    reg.labels.push((tid, label.into()));
}

/// Snapshot of registered thread labels, for exporters.
pub fn thread_labels() -> Vec<(u32, String)> {
    registry().lock().expect("trace registry").labels.clone()
}

/// Attach a human-readable label (e.g. `"rank 2 (pid 4711)"`) to this
/// whole *process*; exporters use it to name the process group when
/// traces from several OS processes are merged on one timeline.
pub fn set_process_label(label: impl Into<String>) {
    registry().lock().expect("trace registry").process_label = Some(label.into());
}

/// The registered process label, if any.
pub fn process_label() -> Option<String> {
    registry()
        .lock()
        .expect("trace registry")
        .process_label
        .clone()
}

// ---------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------

/// RAII span: records a [`EventKind::Span`] covering its lifetime.
/// When tracing is disabled at construction this is inert (no clock
/// read, no allocation).
#[must_use = "a span records its interval when dropped"]
pub struct SpanGuard {
    start_ns: u64,
    category: &'static str,
    name: &'static str,
    args: Args,
    active: bool,
    /// Also record the duration into the `(category, name)` histogram
    /// (see [`span_hist`]).
    to_hist: bool,
}

impl SpanGuard {
    /// Attach an argument to the span after construction (recorded at
    /// drop). No-op on inert spans.
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if self.active {
            self.args.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            let dur_ns = now_ns().saturating_sub(self.start_ns);
            if self.to_hist {
                hist(self.category, self.name, dur_ns);
            }
            push(
                EventKind::Span { dur_ns },
                self.category,
                self.name,
                self.start_ns,
                std::mem::take(&mut self.args),
            );
        }
    }
}

/// Open a span; it records when dropped.
#[inline]
pub fn span(category: &'static str, name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard {
            start_ns: 0,
            category,
            name,
            args: Vec::new(),
            active: false,
            to_hist: false,
        };
    }
    SpanGuard {
        start_ns: now_ns(),
        category,
        name,
        args: Vec::new(),
        active: true,
        to_hist: false,
    }
}

/// Open a span that *additionally* records its duration (nanoseconds)
/// into the `(category, name)` [`Histogram`] on drop, so the metric
/// gets both a timeline interval and a percentile distribution.
#[inline]
pub fn span_hist(category: &'static str, name: &'static str) -> SpanGuard {
    let mut guard = span(category, name);
    guard.to_hist = guard.active;
    guard
}

/// Open a span with arguments attached up front.
#[inline]
pub fn span_with(category: &'static str, name: &'static str, args: Args) -> SpanGuard {
    let mut guard = span(category, name);
    if guard.active {
        guard.args = args;
    }
    guard
}

/// Record a point-in-time event.
#[inline]
pub fn instant(category: &'static str, name: &'static str, args: Args) {
    if !is_enabled() {
        return;
    }
    push(EventKind::Instant, category, name, now_ns(), args);
}

/// Record a monotonic counter increment.
#[inline]
pub fn counter(category: &'static str, name: &'static str, delta: i64) {
    if !is_enabled() {
        return;
    }
    push(
        EventKind::Counter { delta },
        category,
        name,
        now_ns(),
        Vec::new(),
    );
}

/// Record a sampled gauge level.
#[inline]
pub fn gauge(category: &'static str, name: &'static str, value: f64) {
    if !is_enabled() {
        return;
    }
    push(
        EventKind::Gauge { value },
        category,
        name,
        now_ns(),
        Vec::new(),
    );
}

/// Record one sample into the `(category, name)` histogram — barrier
/// waits, queue depths, RTTs. Unlike events, histogram samples are
/// pre-aggregated per thread (fixed memory however many samples) and
/// come back merged via [`drain_histograms`]; percentiles merged across
/// threads or processes are exact over the union of samples.
#[inline]
pub fn hist(category: &'static str, name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    BUFFER.with(|buf| {
        buf.hists
            .borrow_mut()
            .entry((category, name))
            .or_default()
            .record(value);
    });
}

/// Run `f` with tracing enabled and hand back its result plus every
/// event it recorded. Restores the previous enabled state afterwards.
pub fn with_tracing<R>(f: impl FnOnce() -> R) -> (R, Vec<Event>) {
    let was_enabled = is_enabled();
    reset();
    enable();
    let result = f();
    if !was_enabled {
        disable();
    }
    (result, drain())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The enable flag and registry are process-global; serialize the
    // tests that toggle them.
    static GUARD: StdMutex<()> = StdMutex::new(());

    #[test]
    fn disabled_records_nothing() {
        let _g = GUARD.lock().unwrap();
        reset();
        disable();
        {
            let _span = span("t", "noop");
            counter("t", "c", 1);
            gauge("t", "g", 2.0);
            instant("t", "i", Vec::new());
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn span_counter_gauge_roundtrip() {
        let _g = GUARD.lock().unwrap();
        let ((), events) = with_tracing(|| {
            let mut s = span("t", "outer");
            s.arg("k", 7u64);
            counter("t", "hits", 2);
            gauge("t", "depth", 1.5);
        });
        assert_eq!(events.len(), 3);
        let span_ev = events.iter().find(|e| e.name == "outer").unwrap();
        assert!(matches!(span_ev.kind, EventKind::Span { .. }));
        assert_eq!(span_ev.args, vec![("k", ArgValue::U64(7))]);
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::Counter { delta: 2 }));
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::Gauge { value: 1.5 }));
    }

    #[test]
    fn worker_thread_buffers_park_on_exit() {
        let _g = GUARD.lock().unwrap();
        let ((), events) = with_tracing(|| {
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    scope.spawn(|| {
                        {
                            let _s = span("t", "worker");
                        }
                        flush_thread();
                    });
                }
            });
        });
        assert_eq!(events.iter().filter(|e| e.name == "worker").count(), 3);
        // Three distinct worker thread ids.
        let tids: std::collections::BTreeSet<u32> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 3);
    }

    #[test]
    fn histograms_record_flush_and_drain() {
        let _g = GUARD.lock().unwrap();
        reset();
        enable();
        hist("t", "rtt", 100);
        hist("t", "rtt", 300);
        {
            let _s = span_hist("t", "wait");
        }
        std::thread::scope(|scope| {
            scope.spawn(|| {
                hist("t", "rtt", 200);
                flush_thread();
            });
        });
        disable();
        let hists = drain_histograms();
        let rtt = &hists[&("t", "rtt")];
        assert_eq!(rtt.count(), 3);
        assert_eq!((rtt.min(), rtt.max()), (100, 300));
        assert_eq!(hists[&("t", "wait")].count(), 1);
        // Drained means gone: a second drain is empty.
        assert!(drain_histograms().is_empty());
        reset();
    }

    #[test]
    fn disabled_hist_records_nothing() {
        let _g = GUARD.lock().unwrap();
        reset();
        disable();
        hist("t", "rtt", 5);
        let _s = span_hist("t", "wait");
        drop(_s);
        assert!(drain_histograms().is_empty());
    }

    #[test]
    fn timestamps_are_monotone_after_drain_sort() {
        let _g = GUARD.lock().unwrap();
        let ((), events) = with_tracing(|| {
            for _ in 0..10 {
                instant("t", "tick", Vec::new());
            }
        });
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }
}
