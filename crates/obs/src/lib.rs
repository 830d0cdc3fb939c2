//! # obs — the pipeline observability layer
//!
//! Zero-dependency structured spans, counters, and histograms shared by
//! every crate of the OFence pipeline. A [`Recorder`] is cheap enough to
//! always be on: hot loops batch their counts locally and flush once, and
//! spans are opened per file / per phase, never per statement.
//!
//! Three consumers sit on top of one [`Snapshot`]:
//!
//! * [`Snapshot::chrome_trace_json`] — a `chrome://tracing` /
//!   Perfetto-compatible span file (`ofence analyze --trace-out`),
//! * [`Snapshot::prometheus_text`] — Prometheus text-format metrics
//!   (`ofence analyze --metrics-out`),
//! * phase aggregation ([`Snapshot::total_us_of`]) — the per-phase
//!   sub-timings of `Stats::render`.
//!
//! ```
//! let rec = obs::Recorder::new();
//! {
//!     let _run = rec.span("analyze");
//!     let _p = rec.span_with("parse", &[("file", "a.c")]);
//!     rec.count("barriers_seen", 2);
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.count_of("barriers_seen"), 2);
//! assert!(snap.chrome_trace_json().contains("\"parse\""));
//! ```
#![deny(unsafe_code)]

mod event;
pub mod request;
pub mod serve;

pub use event::{Event, NdjsonSink};
pub use request::{quantiles_us, MethodQuantiles, RequestTrace, TraceStore};
pub use serve::{Listener, Live};

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// A finished span: a named interval with attributes, thread, and parent.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within this recorder (monotonic open order).
    pub id: u64,
    /// Id of the span that was open on the same thread when this one
    /// started, if any.
    pub parent: Option<u64>,
    pub name: String,
    pub attrs: Vec<(String, String)>,
    /// Microseconds since the recorder was created/reset.
    pub start_us: u64,
    pub dur_us: u64,
    /// Small dense thread number (0 = first thread seen).
    pub tid: u64,
}

impl SpanRecord {
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }

    /// Does this span's interval contain the other's?
    pub fn contains(&self, other: &SpanRecord) -> bool {
        self.start_us <= other.start_us && other.end_us() <= self.end_us()
    }
}

/// Exponential bucket upper bounds used by every histogram (unit-free;
/// callers pick the unit, e.g. microseconds or item counts).
pub const BUCKET_BOUNDS: [u64; 12] = [
    1, 2, 5, 10, 25, 50, 100, 500, 1_000, 10_000, 100_000, 1_000_000,
];

/// A fixed-bucket histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[i]` counts observations `<= BUCKET_BOUNDS[i]`; values above
    /// the last bound only appear in `count`/`sum` (the `+Inf` bucket).
    pub buckets: [u64; BUCKET_BOUNDS.len()],
    pub count: u64,
    pub sum: u64,
}

impl Histogram {
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        for (i, &bound) in BUCKET_BOUNDS.iter().enumerate() {
            if value <= bound {
                self.buckets[i] += 1;
            }
        }
    }
}

#[derive(Debug)]
struct OpenSpan {
    id: u64,
    name: String,
    attrs: Vec<(String, String)>,
    start: Instant,
}

#[derive(Default)]
struct Inner {
    spans: Vec<SpanRecord>,
    /// Per-thread stack of open spans (nesting is per thread).
    open: HashMap<ThreadId, Vec<OpenSpan>>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    /// ThreadId -> dense small number for trace output.
    tids: HashMap<ThreadId, u64>,
    next_span_id: u64,
    /// Live event consumers. Emission happens under this struct's lock,
    /// so every sink observes a totally ordered stream (an open always
    /// precedes its close).
    sinks: Vec<Arc<NdjsonSink>>,
}

impl Inner {
    fn tid_no(&mut self, tid: ThreadId) -> u64 {
        let next = self.tids.len() as u64;
        *self.tids.entry(tid).or_insert(next)
    }

    fn emit(&self, ev: &Event) {
        for sink in &self.sinks {
            sink.emit(ev);
        }
    }
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("spans", &self.spans.len())
            .field("counters", &self.counters)
            .field("histograms", &self.histograms.len())
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

/// Thread-safe recorder for spans, counters, and histograms.
///
/// All methods take `&self`; a recorder can be shared freely across the
/// engine's scoped worker threads.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::with_epoch(Instant::now())
    }

    /// A recorder whose span times count from `epoch`: recorders that
    /// share an epoch put their spans on one clock, so their traces merge.
    pub fn with_epoch(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Drop the counters and histograms. Spans stay until a
    /// [`Recorder::take_snapshot`] takes them, so spans recorded between
    /// two runs (a cache load) land in the next run's snapshot. Open spans
    /// survive a reset: they re-register on close. The engine resets at
    /// the start of every run so incremental re-analysis reports per-run,
    /// not cumulative, numbers. Attached sinks survive resets: the event
    /// stream spans the process lifetime, not one run.
    pub fn reset(&self) {
        let mut inner = self.lock();
        inner.counters.clear();
        inner.histograms.clear();
    }

    /// Attach a live event sink; every span open/close, counter add, and
    /// histogram observation is forwarded to it as it happens. Multiple
    /// sinks all receive every event. With no sinks attached (the
    /// default), the streaming path costs one empty-vec check.
    pub fn add_sink(&self, sink: Arc<NdjsonSink>) {
        self.lock().sinks.push(sink);
    }

    /// Flush every attached sink (end of run / end of iteration).
    pub fn flush_sinks(&self) {
        // Clone the sink list out so flush (which may do I/O) runs
        // without holding the recorder lock.
        let sinks = self.lock().sinks.clone();
        for sink in sinks {
            sink.flush();
        }
    }

    /// Open a span; it closes when the guard drops.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        self.span_with(name, &[])
    }

    /// Open a span with attributes (e.g. `[("file", "mm/ksm.c")]`).
    pub fn span_with(&self, name: &str, attrs: &[(&str, &str)]) -> SpanGuard<'_> {
        self.span_since(name, attrs, Instant::now())
    }

    /// Open a span that started at `start`, for work that ran before the
    /// caller knew it would be recorded (e.g. a check that decides
    /// whether the rest of a phase runs at all).
    pub fn span_since(&self, name: &str, attrs: &[(&str, &str)], start: Instant) -> SpanGuard<'_> {
        let tid = std::thread::current().id();
        // Allocate before taking the lock every worker contends for.
        let attrs: Vec<(String, String)> = attrs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let owned_name = name.to_string();
        let mut inner = self.lock();
        let id = inner.next_span_id;
        inner.next_span_id += 1;
        let tid_no = inner.tid_no(tid);
        if !inner.sinks.is_empty() {
            inner.emit(&Event::SpanOpen {
                id,
                name: name.to_string(),
                attrs: attrs.clone(),
                ts_us: start.saturating_duration_since(self.epoch).as_micros() as u64,
                tid: tid_no,
            });
        }
        inner.open.entry(tid).or_default().push(OpenSpan {
            id,
            name: owned_name,
            attrs,
            start,
        });
        SpanGuard { rec: self, id }
    }

    /// Open a span and return its raw id instead of a guard. For callers
    /// that need `&mut self` access between open and close (a guard would
    /// hold the recorder borrowed); close with [`Recorder::close`].
    pub fn open(&self, name: &str) -> u64 {
        let guard = self.span(name);
        let id = guard.id;
        std::mem::forget(guard);
        id
    }

    /// Close a span opened with [`Recorder::open`]. Must run on the same
    /// thread that opened it (span stacks are per-thread).
    pub fn close(&self, id: u64) {
        self.close_span(id);
    }

    /// Add attributes to the innermost span named `name` still open on
    /// this thread, for values known only after the span was opened. A
    /// no-op when there is no such span.
    pub fn annotate(&self, name: &str, attrs: &[(&str, &str)]) {
        let tid = std::thread::current().id();
        let mut inner = self.lock();
        let open = inner.open.entry(tid).or_default();
        if let Some(span) = open.iter_mut().rev().find(|s| s.name == name) {
            span.attrs
                .extend(attrs.iter().map(|(k, v)| (k.to_string(), v.to_string())));
        }
    }

    /// Add to a named monotonic counter.
    pub fn count(&self, name: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        let mut inner = self.lock();
        // Nearly every call finds its counter: look it up by `&str` first.
        match inner.counters.get_mut(name) {
            Some(total) => *total += delta,
            None => {
                inner.counters.insert(name.to_string(), delta);
            }
        }
        if !inner.sinks.is_empty() {
            inner.emit(&Event::Counter {
                name: name.to_string(),
                delta,
                ts_us: self.epoch.elapsed().as_micros() as u64,
            });
        }
    }

    /// Record one observation into a named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        let mut inner = self.lock();
        match inner.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => inner
                .histograms
                .entry(name.to_string())
                .or_default()
                .observe(value),
        }
        if !inner.sinks.is_empty() {
            inner.emit(&Event::Observe {
                name: name.to_string(),
                value,
                ts_us: self.epoch.elapsed().as_micros() as u64,
            });
        }
    }

    /// Copy out the counters alone: what a caller diffs to learn which
    /// counts a stretch of work added, without copying its spans.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.lock().counters.clone()
    }

    /// Copy out everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        let mut spans = inner.spans.clone();
        spans.sort_by_key(|s| (s.start_us, s.id));
        Snapshot {
            spans,
            counters: inner.counters.clone(),
            histograms: inner.histograms.clone(),
        }
    }

    /// [`Recorder::snapshot`], moving the finished spans out instead of
    /// copying them: for the end of a run, after which nobody reads them
    /// here again. Counters and histograms stay.
    pub fn take_snapshot(&self) -> Snapshot {
        let mut inner = self.lock();
        let mut spans = std::mem::take(&mut inner.spans);
        let (counters, histograms) = (inner.counters.clone(), inner.histograms.clone());
        drop(inner);
        // Span ids are unique, so an unstable sort gives the one order.
        spans.sort_unstable_by_key(|s| (s.start_us, s.id));
        Snapshot {
            spans,
            counters,
            histograms,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned lock only means a worker panicked mid-span; the
        // telemetry itself is still consistent.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn close_span(&self, id: u64) {
        let tid = std::thread::current().id();
        let end = Instant::now();
        let mut inner = self.lock();
        let tid_no = inner.tid_no(tid);
        let stack = inner.open.entry(tid).or_default();
        let Some(pos) = stack.iter().rposition(|s| s.id == id) else {
            return; // closed twice or across threads; ignore
        };
        let span = stack.remove(pos);
        let parent = stack.last().map(|s| s.id);
        let start_us = span.start.saturating_duration_since(self.epoch).as_micros() as u64;
        let dur_us = end.saturating_duration_since(span.start).as_micros() as u64;
        if !inner.sinks.is_empty() {
            inner.emit(&Event::SpanClose {
                id: span.id,
                name: span.name.clone(),
                ts_us: end.saturating_duration_since(self.epoch).as_micros() as u64,
                dur_us,
                tid: tid_no,
            });
        }
        inner.spans.push(SpanRecord {
            id: span.id,
            parent,
            name: span.name,
            attrs: span.attrs,
            start_us,
            dur_us,
            tid: tid_no,
        });
    }
}

/// Ends its span when dropped.
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    id: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.rec.close_span(self.id);
    }
}

/// An immutable copy of a recorder's data, plus the exporters.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub spans: Vec<SpanRecord>,
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, Histogram>,
}

impl Snapshot {
    pub fn count_of(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A copy of this snapshot with extra counters merged in (added to
    /// any existing value) — lets a driver export its own counters next
    /// to the engine's.
    pub fn with_counters(&self, extra: impl IntoIterator<Item = (String, u64)>) -> Snapshot {
        let mut out = self.clone();
        for (name, value) in extra {
            *out.counters.entry(name).or_default() += value;
        }
        out
    }

    /// The counters and histograms, with the spans folded to one per
    /// name carrying that name's total duration: all that
    /// [`Snapshot::prometheus_text`] reads, without a copy of every
    /// per-file span.
    pub fn totals(&self) -> Snapshot {
        let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
        for s in &self.spans {
            *totals.entry(&s.name).or_default() += s.dur_us;
        }
        let spans = totals
            .into_iter()
            .map(|(name, dur_us)| SpanRecord {
                name: name.to_string(),
                dur_us,
                ..SpanRecord::default()
            })
            .collect();
        Snapshot {
            spans,
            counters: self.counters.clone(),
            histograms: self.histograms.clone(),
        }
    }

    /// All finished spans with the given name.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total duration of all spans with the given name, in microseconds.
    /// For per-file spans running on parallel workers this is CPU time
    /// summed across threads, not wall-clock.
    pub fn total_us_of(&self, name: &str) -> u64 {
        self.spans_named(name).map(|s| s.dur_us).sum()
    }

    /// Chrome-tracing / Perfetto JSON (`{"traceEvents": [...]}` with
    /// complete `"ph": "X"` events).
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"ofence\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{",
                json_string(&s.name),
                s.start_us,
                s.dur_us,
                s.tid
            ));
            for (j, (k, v)) in s.attrs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{}:{}", json_string(k), json_string(v)));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Prometheus text exposition format: counters, span-duration gauges
    /// per span name, and histograms.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let metric = sanitize_metric_name(&format!("ofence_{name}_total"));
            out.push_str(&format!("# TYPE {metric} counter\n{metric} {value}\n"));
        }
        let mut names: Vec<&str> = self.spans.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if !names.is_empty() {
            out.push_str("# TYPE ofence_span_duration_seconds gauge\n");
            for name in names {
                out.push_str(&format!(
                    "ofence_span_duration_seconds{{span={}}} {}\n",
                    json_string(name),
                    self.total_us_of(name) as f64 / 1e6
                ));
            }
        }
        for (name, h) in &self.histograms {
            render_histogram(&mut out, name, h);
        }
        out
    }
}

/// Append one histogram in Prometheus text format as `ofence_<name>`.
pub(crate) fn render_histogram(out: &mut String, name: &str, h: &Histogram) {
    let metric = sanitize_metric_name(&format!("ofence_{name}"));
    out.push_str(&format!("# TYPE {metric} histogram\n"));
    for (i, &bound) in BUCKET_BOUNDS.iter().enumerate() {
        out.push_str(&format!(
            "{metric}_bucket{{le=\"{bound}\"}} {}\n",
            h.buckets[i]
        ));
    }
    out.push_str(&format!("{metric}_bucket{{le=\"+Inf\"}} {}\n", h.count));
    out.push_str(&format!("{metric}_sum {}\n", h.sum));
    out.push_str(&format!("{metric}_count {}\n", h.count));
}

/// JSON-escape a string, with quotes.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`.
pub(crate) fn sanitize_metric_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_per_thread() {
        let rec = Recorder::new();
        {
            let _outer = rec.span("outer");
            {
                let _inner = rec.span_with("inner", &[("file", "a.c")]);
            }
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let outer = snap.spans_named("outer").next().unwrap();
        let inner = snap.spans_named("inner").next().unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.contains(inner));
        assert_eq!(inner.attr("file"), Some("a.c"));
    }

    #[test]
    fn annotate_reaches_the_innermost_open_span_of_that_name() {
        let rec = Recorder::new();
        {
            let _outer = rec.span_with("request", &[("method", "analyze")]);
            let _inner = rec.span("walk");
            rec.annotate("request", &[("files", "3")]);
            rec.annotate("absent", &[("ignored", "1")]);
        }
        let snap = rec.snapshot();
        let request = snap.spans_named("request").next().unwrap();
        assert_eq!(request.attr("method"), Some("analyze"));
        assert_eq!(request.attr("files"), Some("3"));
        assert!(snap.spans_named("walk").next().unwrap().attrs.is_empty());
    }

    #[test]
    fn span_since_counts_work_done_before_it_opened() {
        let rec = Recorder::new();
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(5));
        drop(rec.span_since("check", &[], start));
        let span = rec.snapshot().spans_named("check").next().unwrap().clone();
        assert!(span.dur_us >= 5_000, "{span:?}");
    }

    #[test]
    fn sibling_spans_share_parent() {
        let rec = Recorder::new();
        {
            let _root = rec.span("root");
            drop(rec.span("a"));
            drop(rec.span("b"));
        }
        let snap = rec.snapshot();
        let root_id = snap.spans_named("root").next().unwrap().id;
        assert_eq!(snap.spans_named("a").next().unwrap().parent, Some(root_id));
        assert_eq!(snap.spans_named("b").next().unwrap().parent, Some(root_id));
    }

    #[test]
    fn threads_do_not_inherit_parents() {
        let rec = Recorder::new();
        let _outer = rec.span("outer");
        std::thread::scope(|s| {
            s.spawn(|| drop(rec.span("worker")));
        });
        drop(_outer);
        let snap = rec.snapshot();
        let worker = snap.spans_named("worker").next().unwrap();
        assert_eq!(worker.parent, None, "nesting is per-thread");
        let outer = snap.spans_named("outer").next().unwrap();
        assert_ne!(worker.tid, outer.tid);
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let rec = Recorder::new();
        rec.count("x", 2);
        rec.count("x", 3);
        rec.count("zero", 0);
        assert_eq!(rec.snapshot().count_of("x"), 5);
        assert!(!rec.snapshot().counters.contains_key("zero"));
        rec.reset();
        assert_eq!(rec.snapshot().count_of("x"), 0);
        rec.count("x", 1);
        assert_eq!(
            rec.snapshot().count_of("x"),
            1,
            "post-reset counts are per-run"
        );
    }

    #[test]
    fn counters_are_thread_safe() {
        let rec = Recorder::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        rec.count("hits", 1);
                    }
                });
            }
        });
        assert_eq!(rec.snapshot().count_of("hits"), 8000);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut h = Histogram::default();
        h.observe(1);
        h.observe(7);
        h.observe(2_000_000); // beyond the last bound: +Inf only
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 2_000_008);
        assert_eq!(h.buckets[0], 1); // <= 1
        assert_eq!(h.buckets[3], 2); // <= 10
        assert_eq!(h.buckets[BUCKET_BOUNDS.len() - 1], 2); // <= 1e6
    }

    #[test]
    fn chrome_trace_shape() {
        let rec = Recorder::new();
        drop(rec.span_with("parse", &[("file", "a\"b.c")]));
        let json = rec.snapshot().chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\\\"")); // attribute value is escaped
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn prometheus_text_shape() {
        let rec = Recorder::new();
        rec.count("pairs considered", 4);
        rec.observe("window_stmts", 12);
        drop(rec.span("pair"));
        let text = rec.snapshot().prometheus_text();
        assert!(text.contains("# TYPE ofence_pairs_considered_total counter"));
        assert!(text.contains("ofence_pairs_considered_total 4"));
        assert!(text.contains("ofence_span_duration_seconds{span=\"pair\"}"));
        assert!(text.contains("ofence_window_stmts_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("ofence_window_stmts_count 1"));
    }

    #[test]
    fn totals_render_the_same_prometheus_text() {
        let rec = Recorder::new();
        rec.count("files", 3);
        rec.observe("window_stmts", 12);
        for file in ["a.c", "b.c", "c.c"] {
            drop(rec.span_with("parse", &[("file", file)]));
        }
        drop(rec.span("pair"));
        let snap = rec.snapshot();
        let totals = snap.totals();
        assert_eq!(totals.spans.len(), 2);
        assert_eq!(totals.prometheus_text(), snap.prometheus_text());
    }

    #[test]
    fn take_snapshot_moves_the_spans_and_reset_keeps_them() {
        let rec = Recorder::new();
        drop(rec.span("load"));
        rec.count("x", 1);
        rec.reset();
        drop(rec.span("run"));
        let snap = rec.take_snapshot();
        let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["load", "run"]);
        assert_eq!(snap.count_of("x"), 0);
        assert!(rec.take_snapshot().spans.is_empty());
        // Recorders on one epoch share a clock.
        let other = Recorder::with_epoch(rec.epoch());
        drop(other.span("later"));
        assert!(other.snapshot().spans[0].start_us >= snap.spans[1].start_us);
    }

    #[test]
    fn open_spans_do_not_appear_in_snapshot() {
        let rec = Recorder::new();
        let guard = rec.span("still-open");
        assert_eq!(rec.snapshot().spans.len(), 0);
        drop(guard);
        assert_eq!(rec.snapshot().spans.len(), 1);
    }
}
