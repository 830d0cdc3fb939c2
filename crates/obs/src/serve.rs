//! The workspace's one TCP accept loop, and the live metrics endpoint
//! built on it.
//!
//! [`listen`] binds a `std::net::TcpListener` and hands every accepted
//! connection to a handler on its own named thread (`<name>-conn-<n>`),
//! so a slow or stuck client never blocks the next one. Both servers use
//! it: [`serve`] (`/metrics` and friends, below) and the analysis daemon
//! (`ofence::server`). A handler returns [`ControlFlow::Break`] to stop
//! the listener — the daemon's `shutdown` method; [`Listener::shutdown`]
//! or dropping the handle stops it from outside.
//!
//! [`Live`] is the shared state a long-running driver (`ofence watch`,
//! `ofence serve`) publishes into. Every engine run publishes its
//! snapshot ([`Live::publish`]); every completed request is recorded
//! exactly once ([`Live::record_trace`]), and that record alone feeds
//! the request-latency histograms, the per-method quantiles, the
//! request and error counters and the trace rings. Everything else a
//! session counts goes into the same cumulative counter map
//! ([`Live::count`]). [`serve`] answers from that state:
//!
//! * `GET /metrics` — the latest run's Prometheus text (the exact output
//!   of [`crate::Snapshot::prometheus_text`], pre-rendered at publish
//!   time so a scrape never observes a half-updated snapshot), followed
//!   by the cumulative counters, gauges, request histograms and
//!   quantiles rendered at scrape time under the same lock;
//! * `GET /health` — a small JSON document: run count, last-iteration
//!   duration, cache hit rate, deviation totals, and — once a counter is
//!   counted — queue depth, coalesced joins and completed requests;
//! * `GET /debug/requests`, `GET /debug/trace/<id>` — captured traces.
//!
//! The endpoint is deliberately minimal — HTTP/1.x, `Connection: close`
//! — because its only clients are scrapers (`curl`, Prometheus) hitting
//! it a few times a minute. No external crates, no async runtime.

use crate::request::{MethodQuantiles, RequestStats, RequestTrace, TraceStore};
use crate::{json_string, Snapshot, SpanRecord};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

#[derive(Debug, Default)]
struct LiveState {
    /// Pre-rendered Prometheus text of the latest published snapshot.
    metrics_text: String,
    /// Analysis runs published so far.
    runs: u64,
    /// Wall-clock of the most recent run, in microseconds.
    last_iteration_us: u64,
    /// Deviations reported by the most recent run.
    deviations_total: u64,
    /// Cumulative cache hits / files analyzed across all published runs.
    cache_hits: u64,
    files_analyzed: u64,
    /// Cumulative counters ([`Live::count`], [`Live::record_trace`]),
    /// e.g. `serve_requests`. Empty, and omitted from all bodies, until
    /// the first count.
    counters: BTreeMap<String, u64>,
    /// Point-in-time gauges ([`Live::add_gauge`], e.g.
    /// `serve_connections_active`). Rendered into `/metrics` and `/health`
    /// only once set, so drivers that never set one (watch, one-shot
    /// analyze) keep byte-identical output.
    gauges: BTreeMap<String, u64>,
    /// Completed-request telemetry ([`Live::record_trace`]); empty, and
    /// omitted from all bodies, until the first request completes.
    requests: RequestStats,
}

impl LiveState {
    fn count(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_default() += delta;
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The counter map plus `serve_runs` — the run count, not a stored
    /// counter — once any counter exists.
    fn counters(&self) -> BTreeMap<String, u64> {
        let mut out = self.counters.clone();
        if !out.is_empty() {
            out.insert("serve_runs".to_string(), self.runs);
        }
        out
    }

    /// See [`Live::queue_depth`].
    fn queue_depth(&self) -> u64 {
        self.counter("serve_queue_enqueued")
            .saturating_sub(self.counter("serve_queue_dequeued"))
    }
}

/// Shared live telemetry: the publisher half is the analysis driver, the
/// consumer half is the HTTP server (and anything else holding the Arc).
///
/// All methods take `&self`; the state swap is atomic under one mutex,
/// so a concurrent scrape sees either the previous run's telemetry or
/// the new run's — never a torn mixture.
#[derive(Debug, Default)]
pub struct Live {
    inner: Mutex<LiveState>,
    /// Completed request traces, behind their own lock so rendering a
    /// trace tree never holds up a scrape.
    traces: Mutex<TraceStore>,
}

impl Live {
    pub fn new() -> Live {
        Live::default()
    }

    fn state(&self) -> MutexGuard<'_, LiveState> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publish a finished run: its observability snapshot, the number of
    /// deviations it reported, and its wall-clock duration. Span time of
    /// the requests completed since the previous publish is folded into
    /// the snapshot's span gauge.
    pub fn publish(&self, snapshot: &Snapshot, deviations_total: u64, iteration_us: u64) {
        let request_spans = self.state().requests.take_span_totals();
        let mut merged = snapshot.clone();
        merged
            .spans
            .extend(request_spans.into_iter().map(|(name, dur_us)| SpanRecord {
                name,
                dur_us,
                ..SpanRecord::default()
            }));
        let metrics_text = merged.prometheus_text();
        let mut inner = self.state();
        inner.metrics_text = metrics_text;
        inner.runs += 1;
        inner.last_iteration_us = iteration_us;
        inner.deviations_total = deviations_total;
        inner.cache_hits += snapshot.count_of("engine_cache_hits");
        inner.files_analyzed += snapshot.count_of("engine_files_analyzed");
    }

    /// Add `delta` to the cumulative counter `name` (`0` registers it).
    /// Counters render into `/metrics` as `ofence_<name>_total` and drive
    /// `/health`'s queue, coalesced and request fields from the first
    /// call on; publishers that never count see unchanged output.
    pub fn count(&self, name: &str, delta: u64) {
        self.state().count(name, delta);
    }

    /// Every cumulative counter as of now, plus `serve_runs` (the run
    /// count) once any counter exists: what `/metrics` renders.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.state().counters()
    }

    /// Requests waiting for the engine lock, from the queue counters.
    /// `serve_queue_dequeued` is counted as soon as a request takes the
    /// lock, so the request holding the engine is not part of the depth.
    pub fn queue_depth(&self) -> u64 {
        self.state().queue_depth()
    }

    /// Move a point-in-time gauge (e.g. `serve_connections_active`) by
    /// `delta`, saturating at zero. Under the state lock, so concurrent
    /// movers never publish a stale value. Gauges render into `/metrics`
    /// and `/health` from the first call on; drivers that never move one
    /// see unchanged output.
    pub fn add_gauge(&self, name: &str, delta: i64) {
        let mut inner = self.state();
        let value = inner.gauges.entry(name.to_string()).or_default();
        *value = value.saturating_add_signed(delta);
    }

    /// Record one completed request — the only place requests are
    /// counted. Feeds the request-latency histograms, the per-method
    /// quantile window, the request-span totals and the
    /// `serve_requests` / `serve_errors` / `serve_coalesced` counters,
    /// all under one lock, and retains the trace in the bounded
    /// recent/slowest rings behind `/debug/requests` and
    /// `/debug/trace/<id>`.
    pub fn record_trace(&self, trace: RequestTrace) {
        {
            let mut inner = self.state();
            inner.requests.record(&trace);
            inner.count("serve_requests", 1);
            inner.count("serve_errors", u64::from(trace.outcome != "ok"));
            inner.count("serve_coalesced", u64::from(trace.coalesced));
        }
        let mut traces = self.traces.lock().unwrap_or_else(|e| e.into_inner());
        traces.record(Arc::new(trace));
    }

    /// Per-method request count and latency quantiles, method order.
    pub fn request_quantiles(&self) -> Vec<MethodQuantiles> {
        self.state().requests.quantiles()
    }

    /// The full span tree of a captured trace, as JSON; `None` when the
    /// id is unknown or already evicted from both rings.
    pub fn trace_json(&self, request_id: &str) -> Option<String> {
        let traces = self.traces.lock().unwrap_or_else(|e| e.into_inner());
        traces.find(request_id).map(|t| t.tree_json())
    }

    /// The `/debug/requests` body: recent + slowest summaries.
    pub fn traces_summary_json(&self) -> String {
        let traces = self.traces.lock().unwrap_or_else(|e| e.into_inner());
        traces.summaries_json()
    }

    /// Runs published so far.
    pub fn runs(&self) -> u64 {
        self.state().runs
    }

    /// The `/metrics` body: the latest published run (empty before the
    /// first publish), then the cumulative counters, any gauges, and the
    /// request histograms and per-method quantile summaries as of this
    /// scrape.
    pub fn metrics_text(&self) -> String {
        let inner = self.state();
        let mut out = inner.metrics_text.clone();
        for (name, value) in inner.counters() {
            let metric = crate::sanitize_metric_name(&format!("ofence_{name}_total"));
            out.push_str(&format!("# TYPE {metric} counter\n{metric} {value}\n"));
        }
        for (name, value) in &inner.gauges {
            let metric = crate::sanitize_metric_name(&format!("ofence_{name}"));
            out.push_str(&format!("# TYPE {metric} gauge\n{metric} {value}\n"));
        }
        inner.requests.render_prometheus(&mut out);
        out
    }

    /// The `/health` body: one flat JSON object.
    pub fn health_json(&self) -> String {
        let s = self.state();
        let seen = s.cache_hits + s.files_analyzed;
        let hit_rate = if seen > 0 {
            s.cache_hits as f64 / seen as f64
        } else {
            0.0
        };
        let server = if s.counters.is_empty() {
            String::new()
        } else {
            format!(
                ",\"queue_depth\":{},\"coalesced\":{},\"requests\":{}",
                s.queue_depth(),
                s.counter("serve_coalesced"),
                s.counter("serve_requests")
            )
        };
        let mut extra = String::new();
        for (name, value) in &s.gauges {
            extra.push_str(&format!(",{}:{value}", json_string(name)));
        }
        let quantiles = s.requests.quantiles();
        if !quantiles.is_empty() {
            extra.push_str(",\"methods\":{");
            for (i, q) in quantiles.iter().enumerate() {
                if i > 0 {
                    extra.push(',');
                }
                extra.push_str(&format!(
                    "{}:{{\"count\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
                    json_string(&q.method),
                    q.count,
                    q.p50_us,
                    q.p95_us,
                    q.p99_us
                ));
            }
            extra.push('}');
        }
        format!(
            "{{\"status\":\"{}\",\"runs\":{},\"last_iteration_us\":{},\"cache_hit_rate\":{:.4},\"deviations_total\":{}{server}{extra}}}",
            if s.runs > 0 { "ok" } else { "starting" },
            s.runs,
            s.last_iteration_us,
            hit_rate,
            s.deviations_total
        )
    }
}

/// Handle on a running [`listen`] loop. Dropping it (or calling
/// [`Listener::shutdown`]) stops accepting; connection threads end when
/// their handlers return.
pub struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Listener {
    /// The actually bound address — with port `0` the OS picks, and this
    /// is where callers learn it.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until a connection handler stops the listener (returns
    /// [`ControlFlow::Break`]).
    pub fn wait(mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }

    /// Stop accepting connections and join the listener thread. Open
    /// connections are not waited for.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            stop_listener(&self.stop, self.addr);
            let _ = handle.join();
        }
    }
}

/// Raise the stop flag and unblock `accept()` with a throwaway
/// connection, so the loop observes the flag.
fn stop_listener(stop: &AtomicBool, addr: SocketAddr) {
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
}

/// Bind `addr` (e.g. `127.0.0.1:9464`, or port `0` to let the OS pick)
/// and run `handler` on every accepted connection, each on its own
/// thread named `<name>-conn-<n>` (the accept thread is
/// `ofence-<name>`), until a handler returns [`ControlFlow::Break`] or
/// the returned handle is shut down or dropped.
pub fn listen<H>(addr: &str, name: &str, handler: H) -> Result<Listener, String>
where
    H: Fn(TcpStream) -> ControlFlow<()> + Send + Sync + 'static,
{
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = stop.clone();
    let handler = Arc::new(handler);
    let conn_name = format!("{name}-conn");
    let handle = std::thread::Builder::new()
        .name(format!("ofence-{name}"))
        .spawn(move || {
            let mut accepted = 0u64;
            for stream in listener.incoming() {
                if thread_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let handler = handler.clone();
                let stop = thread_stop.clone();
                let _ = std::thread::Builder::new()
                    .name(format!("{conn_name}-{accepted}"))
                    .spawn(move || {
                        if handler(stream).is_break() {
                            stop_listener(&stop, local);
                        }
                    });
                accepted += 1;
            }
        })
        .map_err(|e| format!("spawn listener thread: {e}"))?;
    Ok(Listener {
        addr: local,
        stop,
        handle: Some(handle),
    })
}

/// Serve `GET /metrics`, `/health` and the `/debug` routes from `live`
/// on `addr` until the returned handle is shut down or dropped.
pub fn serve(addr: &str, live: Arc<Live>) -> Result<Listener, String> {
    listen(addr, "metrics", move |stream| {
        handle_connection(stream, &live);
        ControlFlow::Continue(())
    })
}

const ROUTES_HINT: &str = "/metrics, /health, /debug/requests, or /debug/trace/<request-id>";

fn handle_connection(mut stream: TcpStream, live: &Live) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let Some((method, path)) = read_request_line(&mut stream) else {
        return; // malformed head: nothing sensible to answer
    };
    let mut allow_header = "";
    let (status, content_type, body) = if method != "GET" {
        allow_header = "Allow: GET\r\n";
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            format!("method {method} not allowed; this endpoint is GET-only\n"),
        )
    } else {
        match path.as_str() {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                live.metrics_text(),
            ),
            "/health" => ("200 OK", "application/json", live.health_json()),
            "/debug/requests" => ("200 OK", "application/json", live.traces_summary_json()),
            p if p.starts_with("/debug/trace/") => {
                let id = &p["/debug/trace/".len()..];
                match live.trace_json(id) {
                    Some(json) => ("200 OK", "application/json", json),
                    None => (
                        "404 Not Found",
                        "text/plain; charset=utf-8",
                        format!("no captured trace for request id `{id}`; see /debug/requests\n"),
                    ),
                }
            }
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                format!("not found; try {ROUTES_HINT}\n"),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{allow_header}Connection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Read the request head (up to 8 KiB) and return the method and path of
/// the request line. `None` only on malformed requests — non-GET methods
/// are returned to the caller so it can answer `405`.
fn read_request_line(stream: &mut TcpStream) -> Option<(String, String)> {
    let mut buf = [0u8; 8192];
    let mut filled = 0usize;
    loop {
        if filled == buf.len() {
            return None; // oversized request head
        }
        let n = stream.read(&mut buf[filled..]).ok()?;
        if n == 0 {
            break;
        }
        filled += n;
        if buf[..filled].windows(4).any(|w| w == b"\r\n\r\n")
            || buf[..filled].windows(2).any(|w| w == b"\n\n")
        {
            break;
        }
    }
    let head = std::str::from_utf8(&buf[..filled]).ok()?;
    let request_line = head.lines().next()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    // Ignore any query string; scrapers sometimes add one.
    let path = path.split('?').next().unwrap_or(path).to_string();
    Some((method.to_string(), path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a header/body split");
        (head.to_string(), body.to_string())
    }

    fn sample_snapshot() -> Snapshot {
        let rec = Recorder::new();
        rec.count("watch_iterations", 1);
        rec.count("engine_cache_hits", 3);
        rec.count("engine_files_analyzed", 1);
        drop(rec.span("analyze"));
        rec.snapshot()
    }

    #[test]
    fn serves_metrics_and_health() {
        let live = Arc::new(Live::new());
        live.publish(&sample_snapshot(), 2, 1234);
        let server = serve("127.0.0.1:0", live.clone()).unwrap();
        let (head, body) = get(server.addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain"), "{head}");
        assert!(body.contains("ofence_watch_iterations_total 1"), "{body}");
        let (head, body) = get(server.addr(), "/health");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"runs\":1"), "{body}");
        assert!(body.contains("\"last_iteration_us\":1234"), "{body}");
        assert!(body.contains("\"cache_hit_rate\":0.75"), "{body}");
        assert!(body.contains("\"deviations_total\":2"), "{body}");
        server.shutdown();
    }

    #[test]
    fn unknown_route_is_404_and_lists_routes() {
        let live = Arc::new(Live::new());
        let server = serve("127.0.0.1:0", live).unwrap();
        let (head, body) = get(server.addr(), "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        for route in ["/metrics", "/health", "/debug/requests", "/debug/trace/"] {
            assert!(body.contains(route), "404 body should list {route}: {body}");
        }
        server.shutdown();
    }

    #[test]
    fn non_get_method_is_405_with_allow_header() {
        let live = Arc::new(Live::new());
        let server = serve("127.0.0.1:0", live).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, _) = response.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 405"), "{head}");
        assert!(head.contains("Allow: GET"), "{head}");
        server.shutdown();
    }

    #[test]
    fn debug_routes_serve_captured_traces() {
        let live = Arc::new(Live::new());
        let server = serve("127.0.0.1:0", live.clone()).unwrap();
        // Before any trace: empty rings, and trace lookup 404s.
        let (head, body) = get(server.addr(), "/debug/requests");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "{\"recent\":[],\"slowest\":[]}");
        let (head, _) = get(server.addr(), "/debug/trace/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        live.record_trace(crate::RequestTrace {
            request_id: "r-7".into(),
            method: "analyze".into(),
            latency_us: 4200,
            outcome: "ok".into(),
            coalesced: false,
            run_id: Some("run-1".into()),
            spans: vec![],
        });
        let (_, body) = get(server.addr(), "/debug/requests");
        assert!(body.contains("\"request_id\":\"r-7\""), "{body}");
        assert!(body.contains("\"latency_us\":4200"), "{body}");
        let (head, body) = get(server.addr(), "/debug/trace/r-7");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"span_count\":0"), "{body}");
        assert!(body.contains("\"run_id\":\"run-1\""), "{body}");
        server.shutdown();
    }

    #[test]
    fn gauges_and_quantiles_render_only_when_set() {
        let live = Live::new();
        live.publish(&sample_snapshot(), 0, 10);
        let before_metrics = live.metrics_text();
        let before_health = live.health_json();
        assert!(!before_metrics.contains("serve_connections_active"));
        assert!(!before_metrics.contains("quantile"));
        assert!(!before_health.contains("methods"));
        live.add_gauge("serve_connections_active", 4);
        live.add_gauge("serve_connections_active", -1);
        // Twelve `analyze` requests, 1..=12 ms: nearest-rank quantiles
        // over the window.
        for ms in 1..=12u64 {
            live.record_trace(crate::RequestTrace {
                request_id: format!("r{ms}"),
                method: "analyze".into(),
                latency_us: ms * 1000,
                outcome: "ok".into(),
                coalesced: false,
                run_id: None,
                spans: vec![],
            });
        }
        let metrics = live.metrics_text();
        assert!(
            metrics.contains("# TYPE ofence_serve_connections_active gauge"),
            "{metrics}"
        );
        assert!(
            metrics.contains("ofence_serve_connections_active 3"),
            "{metrics}"
        );
        assert!(
            metrics.contains(
                "ofence_serve_method_duration_us{method=\"analyze\",quantile=\"0.99\"} 12000"
            ),
            "{metrics}"
        );
        assert!(
            metrics.contains("ofence_serve_method_duration_us_count{method=\"analyze\"} 12"),
            "{metrics}"
        );
        let health = live.health_json();
        assert!(
            health.contains("\"serve_connections_active\":3"),
            "{health}"
        );
        assert!(
            health.contains(
                "\"analyze\":{\"count\":12,\"p50_us\":6000,\"p95_us\":12000,\"p99_us\":12000}"
            ),
            "{health}"
        );
        // Everything published before the daemon set these is untouched.
        assert!(live.metrics_text().starts_with(&before_metrics));
    }

    #[test]
    fn health_before_first_publish_reports_starting() {
        let live = Arc::new(Live::new());
        let server = serve("127.0.0.1:0", live).unwrap();
        let (head, body) = get(server.addr(), "/health");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"status\":\"starting\""), "{body}");
        assert!(body.contains("\"runs\":0"), "{body}");
        server.shutdown();
    }

    #[test]
    fn shutdown_frees_the_port() {
        // A handler that blocks until its client hangs up: shutdown must
        // not wait for it.
        let server = listen("127.0.0.1:0", "test", |mut stream| {
            let _ = stream.read(&mut [0u8; 1]);
            ControlFlow::Continue(())
        })
        .unwrap();
        let addr = server.addr();
        let idle = TcpStream::connect(addr).unwrap();
        let t0 = std::time::Instant::now();
        server.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
        // After shutdown the listener is gone: a fresh bind to the same
        // port succeeds, the idle connection notwithstanding.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "{rebound:?}");
        drop(idle);
    }

    #[test]
    fn counters_drive_health_server_fields_and_metrics() {
        let live = Arc::new(Live::new());
        live.publish(&sample_snapshot(), 0, 10);
        // Before any request or count: no server fields, no counters.
        assert!(!live.health_json().contains("queue_depth"));
        assert!(live.counters().is_empty());
        live.count("serve_queue_enqueued", 3);
        live.count("serve_queue_dequeued", 1);
        for (i, (outcome, coalesced)) in [("ok", false), ("ok", true), ("error", true)]
            .into_iter()
            .enumerate()
        {
            live.record_trace(crate::RequestTrace {
                request_id: format!("r{i}"),
                method: "analyze".into(),
                latency_us: 100,
                outcome: outcome.into(),
                coalesced,
                run_id: None,
                spans: vec![],
            });
        }
        let body = live.health_json();
        assert!(body.contains("\"queue_depth\":2"), "{body}");
        assert!(body.contains("\"coalesced\":2"), "{body}");
        assert!(body.contains("\"requests\":3"), "{body}");
        assert!(body.contains("\"analyze\":{\"count\":3,"), "{body}");
        let counters = live.counters();
        assert_eq!(counters["serve_requests"], 3);
        assert_eq!(counters["serve_errors"], 1);
        assert_eq!(counters["serve_runs"], 1, "the run count: {counters:?}");
        let metrics = live.metrics_text();
        for (name, value) in &counters {
            let line = format!("ofence_{name}_total {value}\n");
            assert!(metrics.contains(&line), "{line} in:\n{metrics}");
        }
        assert!(metrics.contains("ofence_serve_request_duration_us_count 3\n"));
    }

    #[test]
    fn publish_is_visible_to_subsequent_scrapes() {
        let live = Arc::new(Live::new());
        let server = serve("127.0.0.1:0", live.clone()).unwrap();
        live.publish(&sample_snapshot(), 0, 10);
        live.publish(&sample_snapshot(), 5, 20);
        let (_, body) = get(server.addr(), "/health");
        assert!(body.contains("\"runs\":2"), "{body}");
        assert!(body.contains("\"deviations_total\":5"), "{body}");
        assert!(body.contains("\"last_iteration_us\":20"), "{body}");
        server.shutdown();
    }
}
