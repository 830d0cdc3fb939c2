//! Live-telemetry integration tests: the NDJSON event stream and the
//! `/metrics` + `/health` endpoint under concurrent load.
//!
//! Two invariants matter here:
//!
//! * the event stream is a totally ordered, well-formed NDJSON log —
//!   every line parses, and every `span_open` is matched by exactly one
//!   `span_close` with the same id (events are emitted under the
//!   recorder's lock, so no interleaving can break this);
//! * a scrape racing an active re-analysis never observes a torn
//!   snapshot — `/metrics` is always a complete, valid Prometheus text
//!   document, because the text is pre-rendered at publish time.

use ofence::obs::serve::serve;
use ofence::obs::{Live, NdjsonSink};
use ofence::{AnalysisConfig, Engine, SourceFile};
use ofence_bench::harness;
use ofence_corpus::{generate, CorpusSpec};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

fn corpus_sources(seed: u64, files: usize) -> Vec<SourceFile> {
    let spec = CorpusSpec {
        files,
        ..CorpusSpec::small(seed)
    };
    harness::to_source_files(&generate(&spec))
}

/// Shared writer that collects the NDJSON stream into a buffer the test
/// can read back after the run.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("head/body split");
    (head.to_string(), body.to_string())
}

/// Check one NDJSON stream: every line parses as a flat JSON object with
/// an `ev` discriminator, and span opens/closes pair up exactly by id.
fn check_event_stream(text: &str) {
    let mut open: BTreeMap<u64, String> = BTreeMap::new();
    let mut events = 0usize;
    for line in text.lines() {
        let v: serde_json::Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("bad NDJSON line `{line}`: {e}"));
        assert!(v.as_object().is_some(), "not an object: {line}");
        events += 1;
        match v["ev"].as_str().expect("ev discriminator") {
            "span_open" => {
                let id = v["id"].as_u64().expect("span id");
                let name = v["name"].as_str().expect("span name").to_string();
                let prev = open.insert(id, name);
                assert!(prev.is_none(), "span id {id} opened twice");
            }
            "span_close" => {
                let id = v["id"].as_u64().expect("span id");
                let name = v["name"].as_str().expect("span name");
                let opened = open
                    .remove(&id)
                    .unwrap_or_else(|| panic!("close without open for span id {id}"));
                assert_eq!(opened, name, "span id {id} closed under a different name");
                assert!(
                    v["dur_us"].as_u64().is_some(),
                    "close missing dur_us: {line}"
                );
            }
            "counter" => {
                assert!(
                    v["delta"].as_u64().is_some(),
                    "counter missing delta: {line}"
                );
            }
            "observe" => {
                assert!(
                    v["value"].as_u64().is_some(),
                    "observe missing value: {line}"
                );
            }
            other => panic!("unknown event kind `{other}`"),
        }
    }
    assert!(events > 0, "stream is empty");
    assert!(
        open.is_empty(),
        "spans left open at end of stream: {open:?}"
    );
}

#[test]
fn ndjson_stream_is_well_formed_and_balanced() {
    let buf = SharedBuf::default();
    let engine_buf = buf.clone();
    let mut engine = Engine::new(AnalysisConfig::default());
    engine
        .recorder()
        .add_sink(Arc::new(NdjsonSink::new(engine_buf)));
    let sources = corpus_sources(7, 6);
    let result = engine.analyze(&sources);
    engine.recorder().flush_sinks();
    assert!(result.stats.files_total > 0);
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    check_event_stream(&text);
    // The stream must cover the whole pipeline, not just the root span.
    for phase in ["analyze", "parse", "pair", "check"] {
        assert!(
            text.contains(&format!("\"name\":\"{phase}\"")),
            "no {phase} span in stream"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any corpus shape and seed yields a well-formed, balanced stream.
    #[test]
    fn event_stream_well_formed_for_any_corpus(seed in any::<u64>(), files in 1usize..5) {
        let buf = SharedBuf::default();
        let mut engine = Engine::new(AnalysisConfig::default());
        engine.recorder().add_sink(Arc::new(NdjsonSink::new(buf.clone())));
        engine.analyze(&corpus_sources(seed, files));
        engine.recorder().flush_sinks();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        check_event_stream(&text);
    }
}

/// Scrape `/metrics` and `/health` in a tight loop while another thread
/// republishes fresh snapshots from live re-analysis. Every response
/// must be complete and internally consistent — the pre-rendered text
/// swap means a scrape can never see half an update.
#[test]
fn concurrent_scrape_during_reanalysis_never_tears() {
    let live = Arc::new(Live::new());
    let server = serve("127.0.0.1:0", live.clone()).unwrap();
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));

    let publisher = {
        let live = live.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut engine = Engine::new(AnalysisConfig::default());
            let sources = corpus_sources(23, 5);
            let mut iterations = 0u64;
            while !stop.load(Ordering::Relaxed) {
                iterations += 1;
                let result = engine.analyze(&sources);
                let obs = result
                    .obs
                    .with_counters([("watch_iterations".to_string(), iterations)]);
                live.publish(&obs, result.deviations.len() as u64, 1000);
            }
            iterations
        })
    };

    // Wait for the first publish, then hammer both endpoints.
    while live.runs() == 0 {
        std::thread::yield_now();
    }
    for i in 0..50 {
        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "scrape {i}: {head}");
        // Valid Prometheus text: every exposition line is `name value`
        // with a parseable number, and the iteration counter is present.
        assert!(
            body.contains("ofence_watch_iterations_total"),
            "scrape {i} missing counter: {body}"
        );
        for line in body
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let (_, value) = line.rsplit_once(' ').expect("name value");
            assert!(
                value.parse::<f64>().is_ok(),
                "scrape {i}: bad line `{line}`"
            );
        }
        // A complete body ends in a newline — a torn write would not.
        assert!(body.ends_with('\n'), "scrape {i}: truncated body");

        let (head, body) = http_get(addr, "/health");
        assert!(head.starts_with("HTTP/1.1 200"), "scrape {i}: {head}");
        let v: serde_json::Value = serde_json::from_str(&body)
            .unwrap_or_else(|e| panic!("scrape {i}: /health not JSON ({e}): {body}"));
        assert_eq!(v["status"], "ok", "scrape {i}: {body}");
        assert!(v["runs"].as_u64().unwrap() >= 1, "scrape {i}: {body}");
    }

    stop.store(true, Ordering::Relaxed);
    let iterations = publisher.join().unwrap();
    assert!(iterations >= 1);
    assert_eq!(live.runs(), iterations);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Span trees of interleaved daemon requests stay balanced and correctly
// attributed.
// ---------------------------------------------------------------------------

/// Nodes in a `/debug/trace` span tree, counted recursively.
fn count_trace_nodes(nodes: &[serde_json::Value]) -> u64 {
    nodes
        .iter()
        .map(|n| 1 + count_trace_nodes(n["children"].as_array().unwrap_or(&[])))
        .sum()
}

/// Every `request_id` attribute anywhere in the tree (root span plus any
/// coalesce spans must name the owning request, never the other one).
fn collect_request_id_attrs(nodes: &[serde_json::Value], into: &mut Vec<String>) {
    for n in nodes {
        if let Some(id) = n["attrs"]["request_id"].as_str() {
            into.push(id.to_string());
        }
        if let Some(children) = n["children"].as_array() {
            collect_request_id_attrs(children, into);
        }
    }
}

#[test]
fn interleaved_requests_keep_their_span_trees_balanced_and_attributed() {
    let dir = std::env::temp_dir().join(format!(
        "ofence-telemetry-interleave-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for f in &generate(&CorpusSpec::small(41)).files {
        let path = dir.join(&f.name);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).unwrap();
        }
        std::fs::write(path, &f.content).unwrap();
    }

    let session = Arc::new(ofence::Session::new(ofence::SessionOptions {
        config: AnalysisConfig::default(),
        paths: vec![dir.display().to_string()],
        cache_dir: None,
        history_dir: None,
    }));

    // Two requests in flight at once, spans recorded concurrently.
    const REQUESTS: usize = 2;
    let barrier = std::sync::Barrier::new(REQUESTS);
    std::thread::scope(|scope| {
        for t in 0..REQUESTS {
            let session = session.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                let ctx = session.begin_request("analyze", Some(format!("interleaved-{t}")));
                barrier.wait();
                session.analyze_document(&ctx, None).unwrap();
            });
        }
    });

    let live = session.live();
    for t in 0..REQUESTS {
        let id = format!("interleaved-{t}");
        let tree: serde_json::Value =
            serde_json::from_str(&live.trace_json(&id).expect("trace captured")).unwrap();
        assert_eq!(tree["request_id"].as_str(), Some(id.as_str()));
        assert_eq!(tree["method"], "analyze");
        assert_eq!(tree["outcome"], "ok");
        // Balanced: the reconstructed tree holds every recorded span.
        let roots = tree["spans"].as_array().unwrap();
        let counted = count_trace_nodes(roots);
        assert_eq!(counted, tree["span_count"].as_u64().unwrap());
        assert!(counted >= 2, "request plus the run/coalesce span: {tree}");
        assert_eq!(roots[0]["name"], "request");
        // Attributed: no span in this request's tree names the other
        // request, however the two runs interleaved.
        let mut ids = Vec::new();
        collect_request_id_attrs(roots, &mut ids);
        assert!(!ids.is_empty());
        for seen in ids {
            assert_eq!(seen, id, "foreign span attributed to {id}");
        }
    }
}
