//! The recorder: thread-local buffers merged into a global registry.
//!
//! # Determinism contract
//!
//! Instrumented code runs under `CT_THREADS`-way parallelism, so the
//! recorder follows the same discipline as `SuffStats` in `ct-core`:
//! every merge is associative and commutative, and a [`snapshot`] sorts
//! events by their [`Event::stable_key`]. The *content* of a snapshot
//! (event names and non-volatile fields, counter values, span hit counts)
//! is therefore identical across thread counts; only timing-valued fields
//! (`wall_ns`, `cpu_ticks`) vary run to run.
//!
//! Each thread accumulates into a thread-local buffer; the buffer drains
//! into the global registry when the thread calls
//! [`snapshot`]/[`drain_thread`], with the TLS destructor as a last-resort
//! drain at thread exit. Thread pools must drain **explicitly** at the end
//! of each worker closure (`ct-stats::par_map` does): `thread::scope`
//! unblocks when worker closures return, but TLS destructors run *after*
//! that signal, so a coordinator relying on the destructor drain can
//! snapshot before worker buffers merge and undercount by a
//! thread-schedule-dependent amount.
//!
//! Span and counter aggregation is always on (it is cheap and feeds the
//! run manifest); the *event stream* is gated by [`stream_enabled`], which
//! defaults to on only when `CT_TRACE` or `CT_TRACE_JSON` is set.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, Once};
use std::time::Instant;

use crate::event::{Event, Value};
use crate::hist::HistData;

/// Aggregated statistics for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// Number of times the span was entered.
    pub count: u64,
    /// Total wall-clock time inside the span, nanoseconds.
    pub wall_ns: u64,
    /// Total process CPU time (user+system, `/proc` clock ticks) elapsed
    /// while inside the span. Process-wide, so overlapping spans on
    /// different threads double-count; meaningful for the coarse,
    /// non-overlapping pipeline-stage spans. Zero off Linux.
    pub cpu_ticks: u64,
}

impl SpanAgg {
    fn absorb(&mut self, other: SpanAgg) {
        self.count += other.count;
        self.wall_ns = self.wall_ns.saturating_add(other.wall_ns);
        self.cpu_ticks = self.cpu_ticks.saturating_add(other.cpu_ticks);
    }
}

#[derive(Debug, Default)]
struct Buffers {
    spans: BTreeMap<String, SpanAgg>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, HistData>,
    events: Vec<Event>,
}

impl Buffers {
    const fn new() -> Self {
        Buffers {
            spans: BTreeMap::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            events: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.events.is_empty()
    }

    /// Commutative, associative merge (gauges resolve by max).
    fn absorb(&mut self, other: Buffers) {
        for (name, agg) in other.spans {
            self.spans.entry(name).or_default().absorb(agg);
        }
        for (name, n) in other.counters {
            *self.counters.entry(name).or_insert(0) += n;
        }
        for (name, v) in other.gauges {
            let slot = self.gauges.entry(name).or_insert(f64::NEG_INFINITY);
            if v > *slot {
                *slot = v;
            }
        }
        for (name, h) in other.hists {
            match self.hists.get_mut(&name) {
                Some(slot) => slot.merge(&h),
                None => {
                    self.hists.insert(name, h);
                }
            }
        }
        self.events.extend(other.events);
    }
}

static GLOBAL: Mutex<Buffers> = Mutex::new(Buffers::new());

fn global() -> MutexGuard<'static, Buffers> {
    // A panic while holding the lock leaves valid (if partial) data;
    // recover rather than propagate the poison.
    GLOBAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// Wrapper whose TLS destructor drains the buffer into the registry.
struct LocalBuf(Buffers);

impl Drop for LocalBuf {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.0);
        if !buf.is_empty() {
            global().absorb(buf);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = const { RefCell::new(LocalBuf(Buffers::new())) };
}

/// Runs `f` on the thread-local buffer, falling back to the global
/// registry during TLS teardown.
fn with_local(f: impl FnOnce(&mut Buffers)) {
    let mut f = Some(f);
    let recorded = LOCAL
        .try_with(|cell| match cell.try_borrow_mut() {
            Ok(mut buf) => {
                if let Some(f) = f.take() {
                    f(&mut buf.0);
                }
                true
            }
            Err(_) => false,
        })
        .unwrap_or(false);
    if !recorded {
        if let Some(f) = f.take() {
            f(&mut global());
        }
    }
}

// ---------------------------------------------------------------------------
// Event-stream gating
// ---------------------------------------------------------------------------

static STREAM_INIT: Once = Once::new();
static STREAM_ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether trace events are being recorded. Lazily initialized from the
/// environment: on if `CT_TRACE` or `CT_TRACE_JSON` is set (and non-`0`).
pub fn stream_enabled() -> bool {
    STREAM_INIT.call_once(|| {
        let on = |k: &str| std::env::var(k).is_ok_and(|v| !v.is_empty() && v != "0");
        if on("CT_TRACE") || on("CT_TRACE_JSON") {
            STREAM_ENABLED.store(true, Ordering::Relaxed);
        }
    });
    STREAM_ENABLED.load(Ordering::Relaxed)
}

/// Forces the event stream on or off, overriding the environment. Used by
/// tests and by binaries that decide gating themselves.
pub fn set_stream_enabled(enabled: bool) {
    STREAM_INIT.call_once(|| {});
    STREAM_ENABLED.store(enabled, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// Reads process CPU time (user+system) in clock ticks from `/proc`.
/// Returns 0 where unavailable.
fn process_cpu_ticks() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised comm: state is index 0, so
            // utime/stime are indices 11 and 12.
            if let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) {
                let mut it = rest.split_whitespace().skip(11);
                let utime = it.next().and_then(|f| f.parse::<u64>().ok());
                let stime = it.next().and_then(|f| f.parse::<u64>().ok());
                if let (Some(u), Some(s)) = (utime, stime) {
                    return u.saturating_add(s);
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// An RAII span: measures wall (and coarse CPU) time from [`Span::enter`]
/// to drop, aggregated per name.
#[derive(Debug)]
pub struct Span {
    name: String,
    start: Instant,
    cpu0: u64,
}

impl Span {
    /// Enters a span. Timing stops when the guard drops.
    pub fn enter(name: impl Into<String>) -> Span {
        Span {
            name: name.into(),
            start: Instant::now(),
            cpu0: process_cpu_ticks(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let wall_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let cpu_ticks = process_cpu_ticks().saturating_sub(self.cpu0);
        let name = std::mem::take(&mut self.name);
        with_local(|buf| {
            buf.spans.entry(name).or_default().absorb(SpanAgg {
                count: 1,
                wall_ns,
                cpu_ticks,
            });
        });
    }
}

/// A named monotonic counter. Cheap to construct; identity is the name.
#[derive(Debug, Clone, Copy)]
pub struct Counter(&'static str);

impl Counter {
    /// A counter handle for `name`.
    pub const fn new(name: &'static str) -> Counter {
        Counter(name)
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        counter_add(self.0, n);
    }

    /// Adds 1.
    pub fn incr(&self) {
        self.add(1);
    }
}

/// Adds `n` to counter `name`. The dynamic-name sibling of
/// [`Counter::add`], for metrics whose name is built at runtime (the
/// service's per-shard counters). Allocates only the first time a thread
/// sees a name; steady-state increments are a map lookup.
pub fn counter_add(name: &str, n: u64) {
    with_local(|buf| match buf.counters.get_mut(name) {
        Some(slot) => *slot += n,
        None => {
            buf.counters.insert(name.to_string(), n);
        }
    });
}

/// A named gauge. Merges across threads by maximum, which keeps the
/// registry order-insensitive (last-write-wins would not be).
#[derive(Debug, Clone, Copy)]
pub struct Gauge(&'static str);

impl Gauge {
    /// A gauge handle for `name`.
    pub const fn new(name: &'static str) -> Gauge {
        Gauge(name)
    }

    /// Records an observation; the registry keeps the maximum.
    pub fn set(&self, v: f64) {
        let name = self.0;
        with_local(|buf| match buf.gauges.get_mut(name) {
            Some(slot) => {
                if v > *slot {
                    *slot = v;
                }
            }
            None => {
                buf.gauges.insert(name.to_string(), v);
            }
        });
    }
}

/// A named log-bucketed histogram (see [`crate::hist`]). Like counters,
/// recording is always on: observations land in the thread-local buffer
/// and merge deterministically into the registry.
#[derive(Debug, Clone, Copy)]
pub struct Hist(&'static str);

impl Hist {
    /// A histogram handle for `name`.
    pub const fn new(name: &'static str) -> Hist {
        Hist(name)
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        hist_record(self.0, v);
    }
}

/// Records `v` into histogram `name`. The dynamic-name sibling of
/// [`Hist::record`] (per-shard queue-depth histograms build their names at
/// service launch). Allocates only the first time a thread sees a name.
pub fn hist_record(name: &str, v: u64) {
    with_local(|buf| match buf.hists.get_mut(name) {
        Some(h) => h.record(v),
        None => {
            let mut h = HistData::default();
            h.record(v);
            buf.hists.insert(name.to_string(), h);
        }
    });
}

/// Records a trace event. No-op unless the event stream is enabled or the
/// flight recorder is capturing (the flight recorder sees recent events
/// even when the full stream is off — that is its whole point).
pub fn emit(name: &str, fields: Vec<(&'static str, Value)>) {
    let stream = stream_enabled();
    let flight = crate::flight::enabled();
    if !stream && !flight {
        return;
    }
    let event = Event::new(name, fields);
    if flight {
        crate::flight::record(&event);
    }
    if stream {
        with_local(|buf| buf.events.push(event));
    }
}

// ---------------------------------------------------------------------------
// Reading the registry
// ---------------------------------------------------------------------------

/// A point-in-time copy of the registry, events sorted deterministically.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Per-span aggregates, sorted by name.
    pub spans: Vec<(String, SpanAgg)>,
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values (max-merged), sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histograms (deterministically merged), sorted by name.
    pub hists: Vec<(String, HistData)>,
    /// Events, sorted by [`Event::stable_key`] (stable across
    /// `CT_THREADS`).
    pub events: Vec<Event>,
}

/// Drains the calling thread's buffer into the registry.
pub fn drain_thread() {
    let buf = LOCAL
        .try_with(|cell| match cell.try_borrow_mut() {
            Ok(mut local) => std::mem::take(&mut local.0),
            Err(_) => Buffers::new(),
        })
        .unwrap_or_else(|_| Buffers::new());
    if !buf.is_empty() {
        global().absorb(buf);
    }
}

/// Drains the calling thread, then copies the registry. Worker threads
/// spawned by `par_map` have already drained (scoped threads join before
/// the call returns), so a snapshot taken by the coordinating thread sees
/// everything recorded so far.
pub fn snapshot() -> Snapshot {
    drain_thread();
    let g = global();
    let mut events = g.events.clone();
    events.sort_by_cached_key(Event::stable_key);
    Snapshot {
        spans: g.spans.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        counters: g.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        gauges: g.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        hists: g
            .hists
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
        events,
    }
}

/// Clears the registry and the calling thread's buffer (test support).
pub fn reset() {
    let _ = LOCAL.try_with(|cell| {
        if let Ok(mut local) = cell.try_borrow_mut() {
            local.0 = Buffers::new();
        }
    });
    *global() = Buffers::new();
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Renders a snapshot as a JSONL stream: a `trace.meta` header, every
/// event, then `span`/`counter`/`gauge` summary lines.
pub fn render_jsonl(snap: &Snapshot) -> String {
    let mut out = String::new();
    let header = Event::new(
        "trace.meta",
        vec![
            ("schema", crate::SCHEMA_VERSION.into()),
            ("events", snap.events.len().into()),
        ],
    );
    out.push_str(&header.to_jsonl());
    out.push('\n');
    for e in &snap.events {
        out.push_str(&e.to_jsonl());
        out.push('\n');
    }
    for (name, agg) in &snap.spans {
        let line = Event::new(
            "span",
            vec![
                ("name", name.as_str().into()),
                ("count", agg.count.into()),
                ("wall_ns", agg.wall_ns.into()),
                ("cpu_ticks", agg.cpu_ticks.into()),
            ],
        );
        out.push_str(&line.to_jsonl());
        out.push('\n');
    }
    for (name, n) in &snap.counters {
        let line = Event::new(
            "counter",
            vec![("name", name.as_str().into()), ("value", (*n).into())],
        );
        out.push_str(&line.to_jsonl());
        out.push('\n');
    }
    for (name, v) in &snap.gauges {
        let line = Event::new(
            "gauge",
            vec![("name", name.as_str().into()), ("value", (*v).into())],
        );
        out.push_str(&line.to_jsonl());
        out.push('\n');
    }
    for (name, h) in &snap.hists {
        let line = Event::new(
            "hist",
            vec![
                ("name", name.as_str().into()),
                ("count", h.count().into()),
                ("sum", h.sum().into()),
                ("min", h.min().into()),
                ("max", h.max().into()),
                ("p50", h.p50().into()),
                ("p90", h.p90().into()),
                ("p99", h.p99().into()),
                ("buckets", h.render_buckets().into()),
            ],
        );
        out.push_str(&line.to_jsonl());
        out.push('\n');
    }
    out
}

/// Writes [`render_jsonl`] output of a fresh snapshot to `path`.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    let snap = snapshot();
    let mut f = std::fs::File::create(path)?;
    f.write_all(render_jsonl(&snap).as_bytes())
}

/// Renders the human `--trace` table (spans, counters, warnings).
pub fn render_table(snap: &Snapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "-- trace: spans --");
    let _ = writeln!(
        out,
        "{:<28} {:>8} {:>12} {:>10}",
        "span", "count", "wall_ms", "cpu_ticks"
    );
    for (name, agg) in &snap.spans {
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12.3} {:>10}",
            name,
            agg.count,
            agg.wall_ns as f64 / 1e6,
            agg.cpu_ticks
        );
    }
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "-- trace: counters --");
        for (name, n) in &snap.counters {
            let _ = writeln!(out, "{name:<28} {n:>8}");
        }
    }
    if !snap.hists.is_empty() {
        let _ = writeln!(out, "-- trace: hists --");
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "hist", "count", "p50", "p90", "p99", "max"
        );
        for (name, h) in &snap.hists {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}",
                name,
                h.count(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.max()
            );
        }
    }
    let warnings: Vec<&Event> = snap
        .events
        .iter()
        .filter(|e| e.name.starts_with("warn."))
        .collect();
    if !warnings.is_empty() {
        let _ = writeln!(out, "-- trace: warnings --");
        for w in warnings {
            let _ = writeln!(out, "{}", w.to_jsonl());
        }
    }
    out
}

/// Flushes sinks selected by the environment: JSONL to `CT_TRACE_JSON`
/// (if set) and the human table to stderr (if `CT_TRACE` is set).
/// Call once at the end of a binary; errors are reported to stderr, not
/// propagated (tracing must never fail the run).
pub fn flush_env_sinks() {
    let snap = snapshot();
    if let Ok(path) = std::env::var("CT_TRACE_JSON") {
        if !path.is_empty() && path != "0" {
            let res = std::fs::File::create(&path)
                .and_then(|mut f| f.write_all(render_jsonl(&snap).as_bytes()));
            if let Err(e) = res {
                eprintln!("ct-obs: failed to write {path}: {e}");
            }
        }
    }
    if std::env::var("CT_TRACE").is_ok_and(|v| !v.is_empty() && v != "0") {
        eprint!("{}", render_table(&snap));
    }
    crate::metrics::write_env_exposition(&snap);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and tests run concurrently, so each
    // test uses its own key namespace instead of calling reset().

    #[test]
    fn spans_and_counters_aggregate() {
        {
            let _s = Span::enter("t.spans.alpha");
            std::hint::black_box(42);
        }
        {
            let _s = Span::enter("t.spans.alpha");
        }
        Counter::new("t.spans.hits").add(2);
        Counter::new("t.spans.hits").incr();
        let snap = snapshot();
        let span = snap
            .spans
            .iter()
            .find(|(n, _)| n == "t.spans.alpha")
            .map(|(_, a)| *a)
            .unwrap_or_default();
        assert_eq!(span.count, 2);
        let hits = snap
            .counters
            .iter()
            .find(|(n, _)| n == "t.spans.hits")
            .map(|(_, v)| *v);
        assert_eq!(hits, Some(3));
    }

    #[test]
    fn gauge_merges_by_max() {
        Gauge::new("t.gauge.conf").set(0.25);
        Gauge::new("t.gauge.conf").set(0.75);
        Gauge::new("t.gauge.conf").set(0.5);
        let snap = snapshot();
        let v = snap
            .gauges
            .iter()
            .find(|(n, _)| n == "t.gauge.conf")
            .map(|(_, v)| *v);
        assert_eq!(v, Some(0.75));
    }

    #[test]
    fn cross_thread_buffers_merge_on_join() {
        set_stream_enabled(true);
        // Join each thread explicitly: a thread's buffer merges in its
        // thread-local destructor, which the join waits for, but the end of
        // `thread::scope` only waits for the closures to return.
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4u64)
                .map(|i| {
                    scope.spawn(move || {
                        Counter::new("t.threads.work").add(i + 1);
                        emit("t.threads.evt", vec![("worker", i.into())]);
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("worker thread");
            }
        });
        let snap = snapshot();
        let total = snap
            .counters
            .iter()
            .find(|(n, _)| n == "t.threads.work")
            .map(|(_, v)| *v);
        assert_eq!(total, Some(10));
        let mine: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.name == "t.threads.evt")
            .collect();
        assert_eq!(mine.len(), 4);
        // snapshot() sorts by stable key -> worker ids appear in order,
        // regardless of which thread finished first.
        let ids: Vec<_> = mine
            .iter()
            .map(|e| {
                e.fields
                    .iter()
                    .find(|(k, _)| k == "worker")
                    .map(|(_, v)| v.clone())
            })
            .collect();
        assert_eq!(
            ids,
            (0..4u64).map(|i| Some(Value::U64(i))).collect::<Vec<_>>()
        );
    }

    #[test]
    fn jsonl_roundtrips_through_parser() {
        set_stream_enabled(true);
        emit(
            "t.jsonl.evt",
            vec![("k", "v\"quoted\"".into()), ("n", 7u64.into())],
        );
        let snap = snapshot();
        for line in render_jsonl(&snap).lines() {
            let doc = crate::json::parse(line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
            assert!(doc.get("event").is_some(), "line missing event key: {line}");
        }
    }

    #[test]
    fn hists_merge_across_threads_deterministically() {
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                scope.spawn(move || {
                    for i in 0..100u64 {
                        hist_record("t.hist.merge", t * 100 + i);
                    }
                    Hist::new("t.hist.handle").record(t);
                    drain_thread();
                });
            }
        });
        let snap = snapshot();
        let h = snap
            .hists
            .iter()
            .find(|(n, _)| n == "t.hist.merge")
            .map(|(_, h)| h.clone())
            .unwrap_or_default();
        // Same observations recorded monolithically must be bitwise equal.
        let mut mono = HistData::default();
        (0..400u64).for_each(|v| mono.record(v));
        assert_eq!(h, mono);
        let handle = snap
            .hists
            .iter()
            .find(|(n, _)| n == "t.hist.handle")
            .map(|(_, h)| h.count());
        assert_eq!(handle, Some(4));
    }

    // Stream-gating behavior is covered by tests/gating.rs, which owns its
    // process: toggling the global flag here would race sibling tests.
}
