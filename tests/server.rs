//! End-to-end tests for `ofence serve` — the analysis daemon (DESIGN §15).
//!
//! The daemon runs as a real child process (`CARGO_BIN_EXE_ofence serve`)
//! against a generated corpus on disk, and the tests speak the wire
//! protocol over TCP, exactly as an editor integration would:
//!
//! * **byte-identity** — `analyze`, `explain`, and `diff` responses must
//!   match the single-shot CLI output byte for byte (after scrubbing the
//!   per-run volatile fields: `run_id`, `stats`, `observability`).
//! * **coalescing** — a barrage of identical concurrent requests shares
//!   runs: `serve_runs` equals the number of distinct run ids and the
//!   `serve_coalesced` counter is exercised (> 0).
//! * **torn results** — concurrent atomic corpus edits racing analyzes
//!   never produce a response mixing two corpus versions, and never
//!   corrupt the on-disk cache shards (proptest, PR 7 shard integrity).
//! * **protocol fuzz** — garbage, truncated, oversized, and non-UTF-8
//!   requests get structured errors, never a panic, and the daemon's
//!   thread count returns to its post-warmup baseline.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ofence_corpus::generator::{generate, inject_deviation, inject_edit, Corpus, CorpusSpec};
use proptest::prelude::*;
use serde_json::Value;

// ---------------------------------------------------------------------------
// Harness: corpus on disk, daemon child process, wire client, CLI runner.
// ---------------------------------------------------------------------------

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ofence-server-test-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write every corpus file under `dir`, creating parents as needed.
fn write_corpus(dir: &Path, corpus: &Corpus) {
    for f in &corpus.files {
        let path = dir.join(&f.name);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).unwrap();
        }
        std::fs::write(path, &f.content).unwrap();
    }
}

/// Atomically replace one corpus file on disk (write + rename), so a
/// racing snapshot sees either the old or the new content, never a
/// half-written file.
fn rewrite_file_atomic(dir: &Path, name: &str, content: &str) {
    let path = dir.join(name);
    let tmp = dir.join(format!("{name}.tmp-swap"));
    std::fs::write(&tmp, content).unwrap();
    std::fs::rename(&tmp, &path).unwrap();
}

/// A daemon child process. Spawns `ofence serve`, parses the bound
/// address off stdout, and kills the child on drop if it is still alive.
struct Daemon {
    child: Child,
    addr: String,
    /// Bound address of the `--metrics` HTTP endpoint, when enabled.
    metrics_addr: Option<String>,
}

impl Daemon {
    fn spawn(corpus_dir: &Path, cache_dir: &Path, history_dir: &Path) -> Daemon {
        Daemon::spawn_with(corpus_dir, cache_dir, history_dir, &[])
    }

    /// Spawn with extra `serve` flags. With `--metrics ADDR`, the bound
    /// HTTP address is parsed off the same stdout contract scripts use
    /// (`ci/serve-soak.sh`).
    fn spawn_with(
        corpus_dir: &Path,
        cache_dir: &Path,
        history_dir: &Path,
        extra: &[&str],
    ) -> Daemon {
        let metrics = extra.contains(&"--metrics");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_ofence"));
        cmd.arg("serve")
            .arg(corpus_dir)
            .args(["--addr", "127.0.0.1:0"])
            .arg("--cache-dir")
            .arg(cache_dir)
            .arg("--history-dir")
            .arg(history_dir)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let mut child = cmd.spawn().expect("spawn ofence serve");
        let stdout = child.stdout.take().unwrap();
        let mut reader = BufReader::new(stdout);
        let mut addr = None;
        let mut metrics_addr = None;
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap_or(0) > 0 {
            let trimmed = line.trim_end();
            if let Some(rest) =
                trimmed.strip_prefix("serve: serving /metrics and /health on http://")
            {
                metrics_addr = Some(rest.to_string());
            }
            if let Some(rest) = trimmed.strip_prefix("serve: listening on ") {
                addr = Some(rest.to_string());
                break;
            }
            line.clear();
        }
        let addr = addr.expect("daemon printed its listen address");
        assert_eq!(
            metrics_addr.is_some(),
            metrics,
            "daemon printed its metrics address iff --metrics was given"
        );
        // Keep draining stdout so the child never blocks on a full pipe.
        std::thread::spawn(move || {
            let mut sink = String::new();
            let _ = reader.read_to_string(&mut sink);
        });
        Daemon {
            child,
            addr,
            metrics_addr,
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr)
    }

    /// Ask the daemon to stop, then wait for the process to exit.
    fn shutdown(&mut self) {
        let mut c = self.client();
        let _ = c.call(serde_json::json!({"id": "bye", "method": "shutdown"}));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait().unwrap().is_some() {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("daemon did not exit after shutdown");
    }

    /// `status` once the daemon has counted `requests` completed requests.
    /// A request is counted after its last byte is written, so a client
    /// on another connection can read the reply a moment before that.
    fn status_after(&self, requests: u64) -> Value {
        let mut client = self.client();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let status = client.ok(serde_json::json!({"id": "s", "method": "status"}));
            let counted = status["counters"]["serve_requests"].as_u64().unwrap();
            if counted >= requests || Instant::now() > deadline {
                return status;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// `Threads:` from /proc/<pid>/status — the daemon's live thread count.
    fn thread_count(&self) -> usize {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).unwrap();
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("Threads: line in /proc status")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.child.try_wait().map(|s| s.is_none()).unwrap_or(false) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One wire connection: newline-delimited JSON requests and responses.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn call(&mut self, request: Value) -> Value {
        let mut line = serde_json::to_string(&request).unwrap();
        line.push('\n');
        self.writer.write_all(line.as_bytes()).unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        assert!(
            !response.is_empty(),
            "daemon closed the connection instead of answering"
        );
        serde_json::from_str(&response).expect("daemon response is valid JSON")
    }

    /// Call and unwrap a successful result document.
    fn ok(&mut self, request: Value) -> Value {
        let response = self.call(request);
        assert_eq!(
            response["ok"],
            true,
            "request failed: {}",
            serde_json::to_string(&response).unwrap()
        );
        response["result"].clone()
    }
}

/// Run the single-shot CLI; returns captured stdout. Panics on non-zero
/// exit so a broken comparison command fails loudly.
fn run_cli(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ofence"))
        .args(args)
        .output()
        .expect("run ofence CLI");
    assert!(
        out.status.success(),
        "ofence {:?} failed: {}",
        args,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("CLI output is UTF-8")
}

/// Null out the fields that legitimately differ between two runs over
/// identical corpus bytes: the run id and the timing/counter blocks.
/// Everything else — sites, pairings, findings, patches, files — must
/// match byte for byte.
fn scrub_volatile(doc: &mut Value) {
    if let Value::Object(map) = doc {
        for key in ["run_id", "stats", "observability"] {
            if map.contains_key(key) {
                map.insert(key.to_string(), Value::Null);
            }
        }
    }
}

fn pretty_scrubbed(mut doc: Value) -> String {
    scrub_volatile(&mut doc);
    serde_json::to_string_pretty(&doc).unwrap()
}

// ---------------------------------------------------------------------------
// Satellite 1: daemon responses are byte-identical to the single-shot CLI.
// ---------------------------------------------------------------------------

#[test]
fn daemon_matches_single_shot_cli_byte_for_byte() {
    let corpus_dir = temp_dir("e2e-corpus");
    let cache_dir = temp_dir("e2e-cache");
    let history_dir = temp_dir("e2e-history");
    let mut corpus = generate(&CorpusSpec::small(11));
    write_corpus(&corpus_dir, &corpus);
    let corpus_path = corpus_dir.display().to_string();

    let mut daemon = Daemon::spawn(&corpus_dir, &cache_dir, &history_dir);
    let mut client = daemon.client();

    // analyze: same document the CLI prints for `analyze --json`.
    let served = client.ok(serde_json::json!({"id": 1, "method": "analyze"}));
    assert_eq!(served["schema_version"], 3);
    for key in ["run_id", "sites", "pairings", "findings", "files"] {
        assert!(served.get(key).is_some(), "analyze document has `{key}`");
    }
    let run_id_1 = served["run_id"].as_str().unwrap().to_string();
    let cli_stdout = run_cli(&[
        "analyze",
        &corpus_path,
        "--json",
        "--fail-on",
        "none",
        "--no-history",
        "--no-cache",
    ]);
    let cli_doc: Value = serde_json::from_str(&cli_stdout).unwrap();
    assert_eq!(
        pretty_scrubbed(served.clone()),
        pretty_scrubbed(cli_doc),
        "daemon analyze differs from single-shot CLI"
    );

    // explain: replay one pairing decision for a real barrier site.
    let site = &served["sites"][0]["site"];
    let file = site["file_name"].as_str().unwrap().to_string();
    let line = site["line"].as_u64().unwrap();
    let served_explain = client.ok(serde_json::json!({
        "id": 2,
        "method": "explain",
        "params": {"file": file, "line": line},
    }));
    let cli_explain = run_cli(&[
        "explain",
        &format!("{file}:{line}"),
        &corpus_path,
        "--json",
        "--no-history",
        "--no-cache",
    ]);
    assert_eq!(
        serde_json::to_string_pretty(&served_explain).unwrap(),
        cli_explain.trim_end(),
        "daemon explain differs from single-shot CLI"
    );

    // diff: edit the corpus, analyze again, then classify the two ledger
    // runs through both front ends.
    let edited = inject_edit(&mut corpus, 77);
    let content = corpus
        .files
        .iter()
        .find(|f| f.name == edited)
        .unwrap()
        .content
        .clone();
    rewrite_file_atomic(&corpus_dir, &edited, &content);
    let second = client.ok(serde_json::json!({"id": 3, "method": "analyze"}));
    let run_id_2 = second["run_id"].as_str().unwrap().to_string();
    assert_ne!(run_id_1, run_id_2, "edited corpus produces a fresh run");
    let served_diff = client.ok(serde_json::json!({
        "id": 4,
        "method": "diff",
        "params": {"old": run_id_1, "new": run_id_2},
    }));
    let cli_diff = run_cli(&[
        "diff",
        &run_id_1,
        &run_id_2,
        "--json",
        "--fail-on",
        "none",
        "--history-dir",
        &history_dir.display().to_string(),
    ]);
    assert_eq!(
        serde_json::to_string_pretty(&served_diff).unwrap(),
        cli_diff.trim_end(),
        "daemon diff differs from single-shot CLI"
    );

    // analyze-file: a coherent slice of the full document — the same
    // findings the full run reports for that file (the run id is fresh;
    // only concurrent requests share runs).
    let slice = client.ok(serde_json::json!({
        "id": 5,
        "method": "analyze-file",
        "params": {"file": file},
    }));
    assert_eq!(slice["schema_version"], 3);
    assert_eq!(slice["file"].as_str().unwrap(), file);
    let full_findings = Value::Array(
        second["findings"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|f| f["file"].as_str() == Some(file.as_str()))
            .cloned()
            .collect(),
    );
    assert_eq!(
        slice["findings"], full_findings,
        "analyze-file slice differs from the full document's findings"
    );

    daemon.shutdown();
}

/// A line with no barrier gets one answer from both front ends: the
/// daemon's `explain` error lists the file's barriers, word for word the
/// message `ofence explain` exits 2 with.
#[test]
fn daemon_explain_at_a_wrong_line_lists_the_files_barriers() {
    let corpus_dir = temp_dir("explain-miss-corpus");
    let state_dir = temp_dir("explain-miss-state");
    write_corpus(&corpus_dir, &generate(&CorpusSpec::small(11)));
    let mut daemon = Daemon::spawn(
        &corpus_dir,
        &state_dir.join("cache"),
        &state_dir.join("history"),
    );
    let mut client = daemon.client();
    let served = client.ok(serde_json::json!({"id": 1, "method": "analyze"}));
    let site = &served["sites"][0]["site"];
    let file = site["file_name"].as_str().unwrap().to_string();
    let line = site["line"].as_u64().unwrap();
    let response = client.call(serde_json::json!({
        "id": 2,
        "method": "explain",
        "params": {"file": file, "line": 999_999},
    }));
    assert_eq!(response["ok"], false, "{response}");
    let message = response["error"]["message"].as_str().unwrap();
    assert!(
        message.starts_with(&format!(
            "no barrier at {file}:999999; barriers in that file:"
        )),
        "{message}"
    );
    assert!(
        message.contains(&format!("\n  {file}:{line} (")),
        "{message}"
    );
    let cli = Command::new(env!("CARGO_BIN_EXE_ofence"))
        .args(["explain", &format!("{file}:999999")])
        .arg(&corpus_dir)
        .args(["--no-history", "--no-cache"])
        .output()
        .expect("run ofence CLI");
    assert_eq!(cli.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&cli.stderr);
    assert!(stderr.contains(message), "{stderr}");
    daemon.shutdown();
}

/// `serve --events-out` streams the session engine's events, and the
/// session flushes them after every run: after one `analyze`, with the
/// daemon still up, the file is whole NDJSON with every span closed.
#[test]
fn serve_events_out_streams_balanced_spans() {
    let corpus_dir = temp_dir("events-corpus");
    let state_dir = temp_dir("events-state");
    write_corpus(&corpus_dir, &generate(&CorpusSpec::small(5)));
    let events = state_dir.join("events.ndjson");
    let events_arg = events.display().to_string();
    let mut daemon = Daemon::spawn_with(
        &corpus_dir,
        &state_dir.join("cache"),
        &state_dir.join("history"),
        &["--events-out", &events_arg],
    );
    daemon
        .client()
        .ok(serde_json::json!({"id": 1, "method": "analyze"}));
    let text = std::fs::read_to_string(&events).unwrap();
    let mut open = HashSet::new();
    for line in text.lines() {
        let ev: Value = serde_json::from_str(line).expect("every event line is JSON");
        let id = ev["id"].as_u64();
        match ev["ev"].as_str() {
            Some("span_open") => assert!(open.insert(id.unwrap()), "{line}"),
            Some("span_close") => assert!(open.remove(&id.unwrap()), "{line}"),
            _ => {}
        }
    }
    assert!(!text.is_empty(), "no events streamed");
    assert!(open.is_empty(), "unclosed spans: {open:?}");
    daemon.shutdown();
}

// ---------------------------------------------------------------------------
// Satellite 1 (cont.): identical concurrent requests coalesce.
// ---------------------------------------------------------------------------

#[test]
fn concurrent_identical_requests_coalesce() {
    let corpus_dir = temp_dir("coalesce-corpus");
    let cache_dir = temp_dir("coalesce-cache");
    let history_dir = temp_dir("coalesce-history");
    // A larger corpus than `small` so each run takes long enough for the
    // barrage to overlap in flight.
    let spec = CorpusSpec {
        files: 24,
        ..CorpusSpec::small(23)
    };
    write_corpus(&corpus_dir, &generate(&spec));

    let mut daemon = Daemon::spawn(&corpus_dir, &cache_dir, &history_dir);

    const THREADS: usize = 8;
    const ROUNDS: usize = 3;
    let barrier = std::sync::Barrier::new(THREADS);
    let mut run_ids: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let addr = daemon.addr.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(&addr);
                    let mut ids = Vec::new();
                    for round in 0..ROUNDS {
                        barrier.wait();
                        let doc = client.ok(
                            serde_json::json!({"id": format!("{t}-{round}"), "method": "analyze"}),
                        );
                        ids.push(doc["run_id"].as_str().unwrap().to_string());
                    }
                    ids
                })
            })
            .collect();
        for h in handles {
            run_ids.extend(h.join().unwrap());
        }
    });

    assert_eq!(run_ids.len(), THREADS * ROUNDS);
    let distinct: HashSet<&String> = run_ids.iter().collect();
    let status = daemon.status_after((THREADS * ROUNDS) as u64);
    let counter = |name: &str| status["counters"][name].as_u64().unwrap();
    // Every analyze either led a run or joined one; nothing is lost and
    // nothing is double-counted.
    assert_eq!(
        counter("serve_runs"),
        distinct.len() as u64,
        "one engine run per distinct run id"
    );
    assert_eq!(
        counter("serve_runs") + counter("serve_coalesced"),
        (THREADS * ROUNDS) as u64,
        "every request either leads or joins"
    );
    assert!(
        counter("serve_coalesced") > 0,
        "the barrage must actually exercise coalescing \
         (got {} runs for {} requests)",
        counter("serve_runs"),
        THREADS * ROUNDS
    );
    assert_eq!(counter("serve_errors"), 0);

    daemon.shutdown();
}

// ---------------------------------------------------------------------------
// Satellite 2: concurrent edits racing analyzes — no torn results, no
// corrupt cache shards.
// ---------------------------------------------------------------------------

/// Group the injected bugs by file, in injection order. A snapshot that
/// mixes corpus versions *within* one file would surface as a gap in
/// this sequence (bug k visible while bug j < k of the same file is not).
fn per_file_prefixes(bugs: &[(String, String)]) -> Vec<(String, Vec<String>)> {
    let mut grouped: Vec<(String, Vec<String>)> = Vec::new();
    for (file, function) in bugs {
        match grouped.iter_mut().find(|(f, _)| f == file) {
            Some((_, fns)) => fns.push(function.clone()),
            None => grouped.push((file.clone(), vec![function.clone()])),
        }
    }
    grouped
}

fn assert_untorn(doc: &Value, bugs: &[(String, String)]) {
    let findings = doc["findings"].as_array().expect("findings array");
    let found: HashSet<String> = findings
        .iter()
        .filter_map(|f| f["function"].as_str())
        .map(str::to_string)
        .collect();
    for (file, functions) in per_file_prefixes(bugs) {
        let visible: Vec<bool> = functions.iter().map(|f| found.contains(f)).collect();
        let first_missing = visible.iter().position(|v| !v).unwrap_or(visible.len());
        assert!(
            visible[first_missing..].iter().all(|v| !v),
            "torn result for {file}: injected bugs visible out of order \
             ({functions:?} -> {visible:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn edits_racing_analyzes_never_tear(seed in 0u64..500) {
        let corpus_dir = temp_dir("race-corpus");
        let cache_dir = temp_dir("race-cache");
        let history_dir = temp_dir("race-history");
        let mut corpus = generate(&CorpusSpec::small(seed));
        write_corpus(&corpus_dir, &corpus);

        let mut daemon = Daemon::spawn(&corpus_dir, &cache_dir, &history_dir);

        const EDITS: usize = 6;
        // Writer: inject one misplaced-access bug at a time, rewriting
        // the touched file atomically, while readers keep analyzing.
        let mut injected: Vec<(String, String)> = Vec::new();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let addr = daemon.addr.clone();
            let stop_ref = &stop;
            let readers: Vec<_> = (0..2)
                .map(|r| {
                    let addr = addr.clone();
                    scope.spawn(move || {
                        let mut client = Client::connect(&addr);
                        let mut docs = Vec::new();
                        while !stop_ref.load(Ordering::Relaxed) {
                            let doc = client.ok(
                                serde_json::json!({"id": format!("r{r}"), "method": "analyze"}),
                            );
                            docs.push(doc);
                        }
                        docs
                    })
                })
                .collect();

            for j in 0..EDITS {
                let bug = inject_deviation(&mut corpus, seed * 16 + j as u64);
                let content = corpus
                    .files
                    .iter()
                    .find(|f| f.name == bug.file)
                    .unwrap()
                    .content
                    .clone();
                rewrite_file_atomic(&corpus_dir, &bug.file, &content);
                injected.push((bug.file.clone(), bug.function.clone()));
                std::thread::sleep(Duration::from_millis(30));
            }
            stop.store(true, Ordering::Relaxed);
            for reader in readers {
                // Every response observed mid-race must be a coherent
                // snapshot: per file, injected bugs appear oldest-first
                // with no gaps.
                for doc in reader.join().unwrap() {
                    assert_untorn(&doc, &injected);
                }
            }
        });

        // The settled corpus shows every injected bug.
        let final_doc = daemon
            .client()
            .ok(serde_json::json!({"id": "final", "method": "analyze"}));
        let found: HashSet<String> = final_doc["findings"]
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|f| f["function"].as_str())
            .map(str::to_string)
            .collect();
        for (_, function) in &injected {
            prop_assert!(
                found.contains(function),
                "settled run is missing injected bug {function}"
            );
        }
        let status = daemon
            .client()
            .ok(serde_json::json!({"id": "s", "method": "status"}));
        prop_assert_eq!(status["counters"]["serve_errors"].as_u64(), Some(0));

        daemon.shutdown();

        // The disk cache survived the race: the shards reload cleanly
        // instead of being discarded as corrupt (PR 7 shard integrity).
        let mut engine = ofence::Engine::new(ofence::AnalysisConfig::default());
        if let ofence::LoadOutcome::Discarded { reason } = engine.load_disk_cache(&cache_dir) {
            prop_assert!(false, "cache shards corrupted by the race: {}", reason);
        }
    }
}

// ---------------------------------------------------------------------------
// Satellite 3: protocol fuzz — structured errors, no panics, no thread
// leaks.
// ---------------------------------------------------------------------------

/// Send raw bytes on a fresh connection and return the response line, if
/// the daemon sent one before we closed.
fn raw_exchange(addr: &str, payload: &[u8], expect_reply: bool) -> Option<Value> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(payload).unwrap();
    if !expect_reply {
        return None;
    }
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    if line.is_empty() {
        None
    } else {
        Some(serde_json::from_str(&line).expect("error responses are valid JSON"))
    }
}

fn error_code(response: &Value) -> String {
    assert_eq!(response["ok"], false);
    response["error"]["code"].as_str().unwrap().to_string()
}

#[test]
fn protocol_fuzz_yields_structured_errors_and_no_thread_leak() {
    let corpus_dir = temp_dir("fuzz-corpus");
    let cache_dir = temp_dir("fuzz-cache");
    let history_dir = temp_dir("fuzz-history");
    write_corpus(&corpus_dir, &generate(&CorpusSpec::small(5)));

    let metrics_flag = ["--metrics", "127.0.0.1:0"];
    let mut daemon = Daemon::spawn_with(&corpus_dir, &cache_dir, &history_dir, &metrics_flag);
    let metrics_addr = daemon.metrics_addr.clone().unwrap();
    // Every error response the storm receives; `serve_errors` must match.
    let mut error_responses = 0u64;
    let mut expect_error = |r: &Value, code: &str| {
        assert_eq!(error_code(r), code, "{r}");
        error_responses += 1;
    };

    // Warm up: one analyze (its worker threads are gone once it
    // replies), then take the thread baseline the storm must return to.
    let mut client = daemon.client();
    client.ok(serde_json::json!({"id": 0, "method": "analyze"}));
    let baseline = daemon.thread_count();

    // Garbage that is not JSON.
    let r = raw_exchange(&daemon.addr, b"this is not json\n", true).unwrap();
    expect_error(&r, "bad_request");

    // Valid JSON that is not a request object.
    let r = raw_exchange(&daemon.addr, b"[1,2,3]\n", true).unwrap();
    expect_error(&r, "bad_request");

    // Missing method.
    let r = raw_exchange(&daemon.addr, b"{\"id\": 9}\n", true).unwrap();
    expect_error(&r, "bad_request");
    assert_eq!(r["id"], 9, "the request id is echoed even on errors");

    // Invalid UTF-8.
    let r = raw_exchange(&daemon.addr, b"\xff\xfe{\"id\":1}\n", true).unwrap();
    expect_error(&r, "bad_request");

    // Unknown method.
    let r = raw_exchange(
        &daemon.addr,
        b"{\"id\": 1, \"method\": \"frobnicate\"}\n",
        true,
    )
    .unwrap();
    expect_error(&r, "unknown_method");

    // Missing params for a method that requires them.
    let r = raw_exchange(
        &daemon.addr,
        b"{\"id\": 2, \"method\": \"explain\"}\n",
        true,
    )
    .unwrap();
    expect_error(&r, "bad_request");

    // Oversized line (> 4 MiB): rejected, and the connection survives to
    // serve the next request.
    {
        let mut stream = TcpStream::connect(&daemon.addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut huge = vec![b'x'; 5 * 1024 * 1024];
        huge.push(b'\n');
        stream.write_all(&huge).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let r: Value = serde_json::from_str(&line).unwrap();
        expect_error(&r, "oversized");
        stream
            .write_all(b"{\"id\": \"after\", \"method\": \"ping\"}\n")
            .unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        let r: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(r["ok"], true, "connection survives an oversized line");
    }

    // Mid-request disconnects: a partial line with no newline, and an
    // immediate close. No reply expected; the daemon must just shrug.
    for _ in 0..10 {
        raw_exchange(&daemon.addr, b"{\"id\": 1, \"method\": \"anal", false);
        let _ = TcpStream::connect(&daemon.addr).unwrap();
    }

    // The daemon still answers on a fresh connection.
    let pong = daemon
        .client()
        .ok(serde_json::json!({"id": "alive", "method": "ping"}));
    assert_eq!(pong["pong"], true);

    // Connection threads wind down to the post-warmup baseline.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        // One live client of our own (`client`) is still connected.
        if daemon.thread_count() <= baseline {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "thread leak: {} threads, baseline {}",
            daemon.thread_count(),
            baseline
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Protocol errors never reach a session method, yet `status` and
    // `/metrics` both count every one of them, with no analysis run
    // since the warm-up to publish them.
    let status = client.ok(serde_json::json!({"id": "count", "method": "status"}));
    assert_eq!(
        status["counters"]["serve_errors"], error_responses,
        "{status}"
    );
    assert_eq!(status["counters"]["serve_runs"], 1, "{status}");
    let (_, metrics) = http_get(&metrics_addr, "/metrics");
    let errors_line = format!("ofence_serve_errors_total {error_responses}\n");
    assert!(
        metrics.contains(&errors_line),
        "want {errors_line} in:\n{metrics}"
    );

    daemon.shutdown();
}

// ---------------------------------------------------------------------------
// PR 10 tentpole: request ids and captured traces round-trip end to end —
// wire `trace` method, `/debug/*` HTTP routes, and the `ofence trace` CLI.
// ---------------------------------------------------------------------------

/// Minimal HTTP GET against the daemon's `--metrics` endpoint; returns
/// (status line, body).
fn http_get(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut raw = String::new();
    BufReader::new(stream).read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("HTTP header terminator");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

/// Nodes in a `/debug/trace` span tree, counted recursively.
fn count_trace_nodes(nodes: &[Value]) -> u64 {
    nodes
        .iter()
        .map(|n| 1 + count_trace_nodes(n["children"].as_array().unwrap_or(&[])))
        .sum()
}

#[test]
fn trace_round_trips_from_wire_to_debug_routes_to_cli() {
    let corpus_dir = temp_dir("trace-corpus");
    let cache_dir = temp_dir("trace-cache");
    let history_dir = temp_dir("trace-history");
    // Large enough that a concurrent barrage overlaps in flight, so the
    // coalesced-joiner assertions below have something to bite on.
    let spec = CorpusSpec {
        files: 24,
        ..CorpusSpec::small(31)
    };
    write_corpus(&corpus_dir, &generate(&spec));

    let metrics_flag = ["--metrics", "127.0.0.1:0"];
    let mut daemon = Daemon::spawn_with(&corpus_dir, &cache_dir, &history_dir, &metrics_flag);
    let metrics_addr = daemon.metrics_addr.clone().unwrap();
    let mut client = daemon.client();

    // A request under a client-supplied id: the envelope echoes it.
    let response = client.call(serde_json::json!({
        "id": 1,
        "request_id": "want-this-trace",
        "method": "analyze",
    }));
    assert_eq!(response["ok"], true);
    assert_eq!(
        response["request_id"], "want-this-trace",
        "the envelope echoes the client-supplied request id"
    );

    // A coalescing barrage, every request under a distinct client id.
    const THREADS: usize = 8;
    const ROUNDS: usize = 2;
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let addr = daemon.addr.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                let mut client = Client::connect(&addr);
                for round in 0..ROUNDS {
                    barrier.wait();
                    let response = client.call(serde_json::json!({
                        "id": format!("{t}-{round}"),
                        "request_id": format!("barrage-{t}-{round}"),
                        "method": "analyze",
                    }));
                    assert_eq!(response["ok"], true);
                }
            });
        }
    });
    // Every barrage request is recorded before the listings below.
    daemon.status_after((1 + THREADS * ROUNDS) as u64);

    // Wire `trace`: the captured span tree of the first request.
    let doc = client.ok(serde_json::json!({
        "id": 2,
        "method": "trace",
        "params": {"request_id": "want-this-trace"},
    }));
    assert_eq!(doc["request_id"], "want-this-trace");
    assert_eq!(doc["method"], "analyze");
    assert_eq!(doc["outcome"], "ok");
    assert_eq!(doc["coalesced"], false);
    assert!(
        doc["run_id"].as_str().is_some(),
        "a led analyze records its run id"
    );
    // The tree is balanced: every recorded span appears exactly once.
    let roots = doc["spans"].as_array().unwrap();
    let counted = count_trace_nodes(roots);
    assert_eq!(
        counted,
        doc["span_count"].as_u64().unwrap(),
        "span tree nodes equal span_count"
    );
    assert!(counted >= 2, "at least the request and serve_run spans");
    // The root is the request span and its time fits the recorded latency.
    assert_eq!(roots[0]["name"], "request");
    assert_eq!(roots[0]["attrs"]["request_id"], "want-this-trace");
    assert!(
        roots[0]["dur_us"].as_u64().unwrap() <= doc["latency_us"].as_u64().unwrap(),
        "root span duration fits inside the recorded request latency"
    );

    // Unknown ids are a structured `failed` error, not a hang or panic.
    let missing = client.call(serde_json::json!({
        "id": 3,
        "method": "trace",
        "params": {"request_id": "never-seen"},
    }));
    assert_eq!(missing["ok"], false);
    assert_eq!(missing["error"]["code"], "failed");

    // `/debug/requests` lists the captured summaries; coalesced joiners
    // reference the run they joined, which some leader also reports.
    let (status, body) = http_get(&metrics_addr, "/debug/requests");
    assert!(status.contains("200"), "{status}");
    let listing: Value = serde_json::from_str(&body).unwrap();
    let summaries: Vec<&Value> = listing["recent"]
        .as_array()
        .unwrap()
        .iter()
        .chain(listing["slowest"].as_array().unwrap())
        .collect();
    assert!(
        summaries
            .iter()
            .any(|s| s["request_id"] == "want-this-trace"),
        "/debug/requests lists the traced request: {body}"
    );
    let leader_runs: HashSet<&str> = summaries
        .iter()
        .filter(|s| s["coalesced"] == false)
        .filter_map(|s| s["run_id"].as_str())
        .collect();
    let joiners: Vec<&&Value> = summaries
        .iter()
        .filter(|s| s["coalesced"] == true)
        .collect();
    assert!(
        !joiners.is_empty(),
        "the barrage must exercise coalescing: {body}"
    );
    for joiner in joiners {
        let run = joiner["run_id"].as_str().expect("joiners record a run id");
        assert!(
            leader_runs.contains(run),
            "joiner {} references run {run}, which no leader reports",
            joiner["request_id"]
        );
    }

    // `/debug/trace/<id>` serves the same document the wire method does.
    let (status, body) = http_get(&metrics_addr, "/debug/trace/want-this-trace");
    assert!(status.contains("200"), "{status}");
    assert_eq!(serde_json::from_str::<Value>(&body).unwrap(), doc);
    let (status, _) = http_get(&metrics_addr, "/debug/trace/never-seen");
    assert!(status.contains("404"), "{status}");

    // `ofence trace` CLI round-trip: `--json` is the wire document, the
    // default rendering names the request and shows the span tree.
    let cli_json = run_cli(&["trace", &daemon.addr, "want-this-trace", "--json"]);
    assert_eq!(serde_json::from_str::<Value>(&cli_json).unwrap(), doc);
    let rendered = run_cli(&["trace", &daemon.addr, "want-this-trace"]);
    assert!(
        rendered.starts_with("request want-this-trace (analyze): ok in "),
        "{rendered}"
    );
    assert!(rendered.contains("run: "), "{rendered}");
    assert!(rendered.contains("\n  request "), "{rendered}");
    assert!(rendered.contains("serve_run"), "{rendered}");

    // `/metrics` publishes per-method latency quantiles and the live
    // connection gauge alongside the counters.
    let (status, metrics) = http_get(&metrics_addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    for quantile in ["0.5", "0.95", "0.99"] {
        assert!(
            metrics.contains(&format!(
                "ofence_serve_method_duration_us{{method=\"analyze\",quantile=\"{quantile}\"}}"
            )),
            "missing analyze p{quantile} in metrics:\n{metrics}"
        );
    }
    assert!(
        metrics.contains("ofence_serve_connections_active"),
        "missing connection gauge:\n{metrics}"
    );

    // The request ledger recorded every completed request.
    let (records, skipped) =
        ofence::ledger::load::<ofence::perf::RequestRecord>(&history_dir).unwrap();
    assert_eq!(skipped, 0);
    let ids: HashSet<&str> = records.iter().map(|r| r.request_id.as_str()).collect();
    assert!(ids.contains("want-this-trace"));
    assert!(ids.contains("barrage-0-0"));
    let trends = ofence::perf::render_request_trends(&records, records.len());
    assert!(trends.contains("analyze"), "{trends}");

    daemon.shutdown();
}

// ---------------------------------------------------------------------------
// Request traces cover the layers of a one-edit `analyze`.
// ---------------------------------------------------------------------------

/// The children of a request's root span, and the share of the root's
/// time they cover.
fn trace_coverage(doc: &Value) -> (Vec<Value>, f64) {
    let root = &doc["spans"][0];
    assert_eq!(root["name"], "request", "{doc}");
    let children = root["children"].as_array().unwrap().to_vec();
    let covered: u64 = children.iter().map(|c| c["dur_us"].as_u64().unwrap()).sum();
    let total = root["dur_us"].as_u64().unwrap().max(1);
    (children, covered as f64 / total as f64)
}

/// `serve` checks the corpus with one pass before it listens, and that
/// pass shows in the snapshot counters before any request.
#[test]
fn the_start_up_pass_is_counted_before_any_request() {
    let corpus_dir = temp_dir("startup-corpus");
    let cache_dir = temp_dir("startup-cache");
    let history_dir = temp_dir("startup-history");
    let corpus = generate(&CorpusSpec::small(5));
    write_corpus(&corpus_dir, &corpus);
    let mut daemon = Daemon::spawn(&corpus_dir, &cache_dir, &history_dir);
    let status = daemon
        .client()
        .ok(serde_json::json!({"id": 1, "method": "status"}));
    let counters = &status["counters"];
    assert!(
        counters["serve_snapshot_full_passes"].as_u64() >= Some(1),
        "{status}"
    );
    let sources = corpus.files.iter().filter(|f| f.name.ends_with(".c"));
    assert_eq!(
        counters["serve_snapshot_files_statted"].as_u64(),
        Some(sources.count() as u64),
        "{status}"
    );
    daemon.shutdown();
    for dir in [corpus_dir, cache_dir, history_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn one_edit_analyze_traces_cover_the_request() {
    let corpus_dir = temp_dir("cover-corpus");
    let cache_dir = temp_dir("cover-cache");
    let history_dir = temp_dir("cover-history");
    let mut corpus = generate(&CorpusSpec::tier("1200", 23).unwrap());
    write_corpus(&corpus_dir, &corpus);
    // Backdate the tree so only edited files are racily clean.
    let an_hour_ago = std::time::SystemTime::now() - Duration::from_secs(3600);
    for f in &corpus.files {
        std::fs::File::options()
            .write(true)
            .open(corpus_dir.join(&f.name))
            .unwrap()
            .set_modified(an_hour_ago)
            .unwrap();
    }
    let mut daemon = Daemon::spawn(&corpus_dir, &cache_dir, &history_dir);
    let mut client = daemon.client();
    client.ok(serde_json::json!({"id": 0, "method": "analyze"}));

    // Every round edits the same file, so it is the only racily clean one.
    let edited = inject_edit(&mut corpus, 100);
    let mut content = corpus
        .files
        .iter()
        .find(|f| f.name == edited)
        .unwrap()
        .content
        .clone();
    let mut coverages = Vec::new();
    let mut run_coverages = Vec::new();
    for round in 0..3u64 {
        content.push_str(&format!(
            "int cover_edit_{round}(void) {{ return {round}; }}\n"
        ));
        rewrite_file_atomic(&corpus_dir, &edited, &content);
        let request_id = format!("edit-{round}");
        client.ok(serde_json::json!({
            "id": round, "request_id": request_id, "method": "analyze",
        }));
        let doc = client.ok(serde_json::json!({
            "id": "t", "method": "trace", "params": {"request_id": request_id},
        }));
        let (children, coverage) = trace_coverage(&doc);
        let names: Vec<&str> = children
            .iter()
            .map(|c| c["name"].as_str().unwrap())
            .collect();
        assert_eq!(
            names,
            [
                "snapshot",
                "serve_run",
                "ledger",
                "publish",
                "render",
                "send"
            ],
            "{doc}"
        );
        // Two journal passes: the first stats and reads only the edited
        // file, the second finds nothing to stat (no racy re-read: the
        // watch was in place before the read).
        let passes = children[0]["children"].as_array().unwrap();
        assert_eq!(passes.len(), 2, "{doc}");
        for (pass, touched) in passes.iter().zip(["1", "0"]) {
            assert_eq!(pass["name"], "snapshot_pass");
            assert_eq!(pass["attrs"]["mode"], "journal", "{doc}");
            assert_eq!(pass["attrs"]["statted"], touched, "{doc}");
            assert_eq!(pass["attrs"]["read"], touched, "{doc}");
        }
        coverages.push(coverage);
        // The edit kept the layout: one run of 64 rows is rendered at
        // most, the rest come from the last reply.
        let rows =
            |key: &str| -> usize { children[4]["attrs"][key].as_str().unwrap().parse().unwrap() };
        let sources = corpus.files.iter().filter(|f| f.name.ends_with(".c"));
        assert!(rows("rows_rendered") <= 64, "{doc}");
        assert_eq!(
            rows("rows_reused") + rows("rows_rendered"),
            sources.count(),
            "{doc}"
        );
        // `serve_run` splits into the engine-lock wait, the run, which
        // looked up and analyzed only the edited file, and the save.
        let run = &children[1]["children"];
        let names: Vec<&str> = (run.as_array().unwrap().iter())
            .map(|c| c["name"].as_str().unwrap())
            .collect();
        assert_eq!(names, ["engine_lock", "engine", "cache_save"], "{doc}");
        assert_eq!(run[1]["attrs"]["lookups"], "1", "{doc}");
        assert_eq!(run[1]["attrs"]["analyzed"], "1", "{doc}");
        let covered: u64 = (run.as_array().unwrap().iter())
            .map(|c| c["dur_us"].as_u64().unwrap())
            .sum();
        let total = children[1]["dur_us"].as_u64().unwrap().max(1);
        run_coverages.push(covered as f64 / total as f64);
    }
    assert!(
        coverages.iter().any(|&c| c >= 0.95),
        "no one-edit request had ≥ 95% of its time in child spans: {coverages:?}"
    );
    assert!(
        run_coverages.iter().any(|&c| c >= 0.95),
        "no one-edit serve_run had ≥ 95% of its time in child spans: {run_coverages:?}"
    );
    daemon.shutdown();
}
