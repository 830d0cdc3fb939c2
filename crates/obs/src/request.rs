//! Request-scoped trace capture and request metrics.
//!
//! Each request records its spans into a private [`crate::Recorder`]
//! owned by the request context; when the request completes, the session
//! folds the finished spans plus outcome metadata into a [`RequestTrace`]
//! and hands it to [`crate::Live::record_trace`]. Every request metric —
//! latency histograms, per-method quantiles, request-span totals — is
//! derived from that one record. A bounded [`TraceStore`] keeps the N
//! most recent and N slowest completed traces so `GET /debug/requests`,
//! `GET /debug/trace/<id>`, and the in-band `trace` method can answer
//! "what did request X spend its time on?" long after the request
//! returned.
//!
//! Everything here is hand-rendered JSON (this crate is dependency-free);
//! the consumers (`ofence trace`, CI gates) parse it with whatever JSON
//! reader they already have.

use crate::{json_string, render_histogram, Histogram, SpanRecord};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// One completed daemon request: identity, outcome, and its span tree.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// Server-assigned or client-supplied id, echoed in the response.
    pub request_id: String,
    pub method: String,
    /// Wall-clock from envelope parse to response, in microseconds.
    pub latency_us: u64,
    /// `"ok"` or `"error"`.
    pub outcome: String,
    /// True when this request joined another request's in-flight run.
    pub coalesced: bool,
    /// The analysis run this request returned (the leader's run for
    /// coalesced joiners); absent for requests that never touch a run.
    pub run_id: Option<String>,
    /// Finished spans recorded during the request, insertion order.
    pub spans: Vec<SpanRecord>,
}

impl RequestTrace {
    /// One summary line for the `/debug/requests` listing.
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"request_id\":{},\"method\":{},\"latency_us\":{},\"outcome\":{},\"coalesced\":{},\"run_id\":{}}}",
            json_string(&self.request_id),
            json_string(&self.method),
            self.latency_us,
            json_string(&self.outcome),
            self.coalesced,
            match &self.run_id {
                Some(id) => json_string(id),
                None => "null".to_string(),
            }
        )
    }

    /// The full trace as JSON: the summary fields plus `span_count` and a
    /// nested `spans` tree built from the recorded parent links. Children
    /// are ordered by start time; spans whose parent never closed (or
    /// closed on another thread) surface as roots rather than being
    /// dropped, so `span_count` always equals the number of nodes in the
    /// tree.
    pub fn tree_json(&self) -> String {
        let by_id: HashMap<u64, &SpanRecord> = self.spans.iter().map(|s| (s.id, s)).collect();
        let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
        let mut roots: Vec<&SpanRecord> = Vec::new();
        for s in &self.spans {
            match s.parent.filter(|p| by_id.contains_key(p)) {
                Some(p) => children.entry(p).or_default().push(s),
                None => roots.push(s),
            }
        }
        let sort = |v: &mut Vec<&SpanRecord>| v.sort_by_key(|s| (s.start_us, s.id));
        sort(&mut roots);
        for v in children.values_mut() {
            sort(v);
        }
        let mut out = format!(
            "{{\"request_id\":{},\"method\":{},\"latency_us\":{},\"outcome\":{},\"coalesced\":{},\"run_id\":{},\"span_count\":{},\"spans\":[",
            json_string(&self.request_id),
            json_string(&self.method),
            self.latency_us,
            json_string(&self.outcome),
            self.coalesced,
            match &self.run_id {
                Some(id) => json_string(id),
                None => "null".to_string(),
            },
            self.spans.len()
        );
        for (i, root) in roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render_node(&mut out, root, &children);
        }
        out.push_str("]}");
        out
    }
}

fn render_node(out: &mut String, span: &SpanRecord, children: &HashMap<u64, Vec<&SpanRecord>>) {
    out.push_str(&format!(
        "{{\"name\":{},\"start_us\":{},\"dur_us\":{},\"attrs\":{{",
        json_string(&span.name),
        span.start_us,
        span.dur_us
    ));
    for (i, (k, v)) in span.attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{}", json_string(k), json_string(v)));
    }
    out.push_str("},\"children\":[");
    if let Some(kids) = children.get(&span.id) {
        for (i, kid) in kids.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render_node(out, kid, children);
        }
    }
    out.push_str("]}");
}

/// Bounded retention of completed request traces: the `cap` most recent
/// plus the `cap` slowest, deduplicated on lookup. Not itself
/// synchronized — [`crate::Live`] wraps it in a mutex.
#[derive(Debug)]
pub struct TraceStore {
    cap: usize,
    recent: VecDeque<Arc<RequestTrace>>,
    /// Sorted by `latency_us` descending; ties keep the earlier arrival.
    slowest: Vec<Arc<RequestTrace>>,
}

impl Default for TraceStore {
    fn default() -> Self {
        TraceStore::new(32)
    }
}

impl TraceStore {
    pub fn new(cap: usize) -> TraceStore {
        TraceStore {
            cap: cap.max(1),
            recent: VecDeque::new(),
            slowest: Vec::new(),
        }
    }

    pub fn record(&mut self, trace: Arc<RequestTrace>) {
        if self.recent.len() == self.cap {
            self.recent.pop_front();
        }
        self.recent.push_back(trace.clone());
        let pos = self
            .slowest
            .partition_point(|t| t.latency_us >= trace.latency_us);
        if pos < self.cap {
            self.slowest.insert(pos, trace);
            self.slowest.truncate(self.cap);
        }
    }

    /// Look a trace up by request id in either ring.
    pub fn find(&self, request_id: &str) -> Option<Arc<RequestTrace>> {
        self.recent
            .iter()
            .rev()
            .chain(self.slowest.iter())
            .find(|t| t.request_id == request_id)
            .cloned()
    }

    pub fn len(&self) -> usize {
        self.recent.len()
    }

    pub fn is_empty(&self) -> bool {
        self.recent.is_empty()
    }

    /// The `/debug/requests` body: recent (newest first) and slowest
    /// summary lists.
    pub fn summaries_json(&self) -> String {
        let render = |traces: &mut dyn Iterator<Item = &Arc<RequestTrace>>| {
            let mut out = String::from("[");
            for (i, t) in traces.enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&t.summary_json());
            }
            out.push(']');
            out
        };
        format!(
            "{{\"recent\":{},\"slowest\":{}}}",
            render(&mut self.recent.iter().rev()),
            render(&mut self.slowest.iter())
        )
    }
}

/// Latency samples kept per method for exact quantiles: small enough to
/// re-sort per scrape, large enough that p99 over it is meaningful.
const QUANTILE_WINDOW: usize = 512;

/// Request telemetry derived from completed [`RequestTrace`]s, one
/// [`RequestStats::record`] per request: cumulative latency histograms
/// (all methods, and one per method), a bounded sample window per
/// method for exact quantiles, and span time by span name since the
/// last publish. Not itself synchronized — [`crate::Live`] keeps it
/// under its state lock, so one scrape sees all of it at one instant.
#[derive(Debug, Default)]
pub(crate) struct RequestStats {
    all: Histogram,
    methods: BTreeMap<String, (Histogram, VecDeque<u64>)>,
    span_us: BTreeMap<String, u64>,
}

impl RequestStats {
    pub(crate) fn record(&mut self, trace: &RequestTrace) {
        self.all.observe(trace.latency_us);
        let (hist, window) = self.methods.entry(trace.method.clone()).or_default();
        hist.observe(trace.latency_us);
        if window.len() == QUANTILE_WINDOW {
            window.pop_front();
        }
        window.push_back(trace.latency_us);
        for span in &trace.spans {
            *self.span_us.entry(span.name.clone()).or_default() += span.dur_us;
        }
    }

    /// Span time per span name since the previous call.
    pub(crate) fn take_span_totals(&mut self) -> BTreeMap<String, u64> {
        std::mem::take(&mut self.span_us)
    }

    /// Count and p50/p95/p99 per method, method order.
    pub(crate) fn quantiles(&self) -> Vec<MethodQuantiles> {
        self.methods
            .iter()
            .map(|(method, (hist, window))| {
                let mut samples: Vec<u64> = window.iter().copied().collect();
                let (p50_us, p95_us, p99_us) = quantiles_us(&mut samples);
                MethodQuantiles {
                    method: method.clone(),
                    count: hist.count,
                    p50_us,
                    p95_us,
                    p99_us,
                }
            })
            .collect()
    }

    /// Append the `serve_request_duration_us` histograms (all methods,
    /// then `_<method>`) and the per-method quantile summary; nothing
    /// before the first request.
    pub(crate) fn render_prometheus(&self, out: &mut String) {
        if self.methods.is_empty() {
            return;
        }
        render_histogram(out, "serve_request_duration_us", &self.all);
        for (method, (hist, _)) in &self.methods {
            render_histogram(out, &format!("serve_request_duration_us_{method}"), hist);
        }
        out.push_str("# TYPE ofence_serve_method_duration_us summary\n");
        for q in self.quantiles() {
            let method = json_string(&q.method);
            for (label, value) in [("0.5", q.p50_us), ("0.95", q.p95_us), ("0.99", q.p99_us)] {
                out.push_str(&format!(
                    "ofence_serve_method_duration_us{{method={method},quantile=\"{label}\"}} {value}\n"
                ));
            }
            out.push_str(&format!(
                "ofence_serve_method_duration_us_count{{method={method}}} {}\n",
                q.count
            ));
        }
    }
}

/// Pre-computed per-method latency quantiles, published next to the raw
/// histograms so dashboards need no bucket interpolation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MethodQuantiles {
    pub method: String,
    pub count: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
}

/// Exact nearest-rank p50/p95/p99 over a sample window. Sorts in place;
/// returns zeros for an empty slice.
pub fn quantiles_us(samples: &mut [u64]) -> (u64, u64, u64) {
    if samples.is_empty() {
        return (0, 0, 0);
    }
    samples.sort_unstable();
    let rank = |q: f64| {
        let idx = ((q * samples.len() as f64).ceil() as usize).max(1) - 1;
        samples[idx.min(samples.len() - 1)]
    };
    (rank(0.50), rank(0.95), rank(0.99))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            attrs: vec![("file".to_string(), "a.c".to_string())],
            start_us,
            dur_us,
            tid: 0,
        }
    }

    fn trace(id: &str, latency_us: u64) -> Arc<RequestTrace> {
        Arc::new(RequestTrace {
            request_id: id.to_string(),
            method: "analyze".to_string(),
            latency_us,
            outcome: "ok".to_string(),
            coalesced: false,
            run_id: Some("r123".to_string()),
            spans: vec![
                span(1, None, "request", 0, latency_us),
                span(2, Some(1), "serve_run", 1, latency_us / 2),
            ],
        })
    }

    #[test]
    fn tree_json_nests_children_under_parents() {
        let t = trace("req-1", 100);
        let json = t.tree_json();
        assert!(json.contains("\"request_id\":\"req-1\""), "{json}");
        assert!(json.contains("\"span_count\":2"), "{json}");
        // serve_run appears inside request's children array.
        let request_pos = json.find("\"name\":\"request\"").unwrap();
        let child_pos = json.find("\"name\":\"serve_run\"").unwrap();
        assert!(child_pos > request_pos);
        assert!(
            json.contains("\"children\":[{\"name\":\"serve_run\""),
            "{json}"
        );
    }

    #[test]
    fn orphan_spans_surface_as_roots() {
        let t = RequestTrace {
            request_id: "req-2".into(),
            method: "explain".into(),
            latency_us: 5,
            outcome: "ok".into(),
            coalesced: false,
            run_id: None,
            spans: vec![span(7, Some(99), "dangling", 0, 5)],
        };
        let json = t.tree_json();
        assert!(json.contains("\"span_count\":1"), "{json}");
        assert!(json.contains("\"spans\":[{\"name\":\"dangling\""), "{json}");
        assert!(json.contains("\"run_id\":null"), "{json}");
    }

    #[test]
    fn store_retains_recent_and_slowest_separately() {
        let mut store = TraceStore::new(2);
        store.record(trace("slow", 1000));
        store.record(trace("a", 1));
        store.record(trace("b", 2));
        store.record(trace("c", 3));
        // "slow" fell out of the recent ring but lives in slowest.
        assert!(store.find("slow").is_some());
        assert!(store.find("c").is_some());
        assert!(store.find("a").is_none(), "evicted from both rings");
        let json = store.summaries_json();
        let recent = json.split("\"slowest\"").next().unwrap();
        assert!(recent.contains("\"request_id\":\"c\""), "{json}");
        assert!(!recent.contains("\"request_id\":\"slow\""), "{json}");
        let slowest = json.split("\"slowest\"").nth(1).unwrap();
        assert!(slowest.contains("\"request_id\":\"slow\""), "{json}");
    }

    #[test]
    fn slowest_ring_is_bounded_and_sorted() {
        let mut store = TraceStore::new(3);
        for (i, lat) in [5u64, 50, 10, 500, 1].iter().enumerate() {
            store.record(trace(&format!("t{i}"), *lat));
        }
        let lats: Vec<u64> = store.slowest.iter().map(|t| t.latency_us).collect();
        assert_eq!(lats, vec![500, 50, 10]);
    }

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let mut samples: Vec<u64> = (1..=100).collect();
        let (p50, p95, p99) = quantiles_us(&mut samples);
        assert_eq!((p50, p95, p99), (50, 95, 99));
        let (a, b, c) = quantiles_us(&mut [42]);
        assert_eq!((a, b, c), (42, 42, 42));
        assert_eq!(quantiles_us(&mut []), (0, 0, 0));
    }
}
