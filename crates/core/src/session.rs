//! An analysis session: the one pipeline that turns a tree into an
//! [`AnalysisResult`].
//!
//! [`Session`] owns every piece of a run — the [`Engine`] with its
//! parsed-AST/summary cache, the sharded disk cache, the history and
//! perf ledgers, and the live telemetry publisher. Every driver is a
//! session: a one-shot CLI subcommand makes one request, `ofence watch`
//! adds a poll loop ([`Session::snapshot_key`]), and `ofence serve` puts
//! a socket in front of it, serving many concurrent `analyze` /
//! `explain` / `diff` / `baseline-gate` requests against one warm cache.
//! A run analyzes its changed files in parallel with
//! [`crate::pool::for_each`]; a panic there fails the request that ran
//! it, like any other panic in the analysis.
//!
//! The session never fails a run over its disk side: a discarded cache,
//! a failed cache save or a failed ledger append is carried on the
//! [`RunHandle`], and the driver decides what is fatal.
//!
//! ## Snapshot consistency
//!
//! Every analysis request starts by snapshotting the corpus from disk.
//! Requests race with editors, so a naive single pass over the files
//! could observe file A before an edit and file B after it — a **torn**
//! corpus whose findings belong to two different snapshots. The session
//! instead passes over the corpus repeatedly until two consecutive passes
//! hash identically ([`SNAPSHOT_ATTEMPTS`] tries): any edit landing inside
//! a pass flips the next pass's hash, so a stable double pass is a
//! consistent snapshot (assuming writers replace files atomically, the
//! usual tmp+rename discipline). The analysis then runs entirely from
//! that in-memory snapshot — the response is a pure function of it.
//!
//! A pass goes through the session's one [`SourceIndex`], so it costs a
//! `stat` per file: only files whose stamp changed (or that are racily
//! clean, see [`crate::walk`]) are read and hashed again, and the corpus
//! key reuses each file's hash. An edit changes the stamp it lands in,
//! so the double pass still catches it. Each request reports the files
//! it statted and read as `snapshot_files_statted` / `snapshot_files_read`
//! attributes on its `request` span.
//!
//! Every pass stats every file. A second pass that re-stats only the
//! files the first one read would tear snapshots under writers that
//! rewrite files in place: pass 1 stats A (unchanged), an editor then
//! rewrites A and B, and pass 1 reads the new B. Re-statting only B
//! agrees with pass 1, and the request would return {A_old, B_new}; a
//! full pass 2 sees A's new stamp and retries.
//!
//! ## Batching and coalescing
//!
//! Requests are keyed by `(corpus snapshot hash, config fingerprint)`.
//! A request arriving while an analysis with the same key is already in
//! flight does not queue a second run: it **joins** the in-flight one
//! and receives the very same [`RunHandle`] — identical findings,
//! identical `run_id` — which is how a CI fleet pushing the same commit
//! a hundred times costs one analysis. Distinct keys serialize on the
//! engine lock (the queue), each running against the cache the previous
//! request warmed. Coalesce and queue-depth counters are exported on
//! `/metrics` via [`obs::Live`].

use crate::cache::{self, LoadOutcome};
use crate::config::AnalysisConfig;
use crate::engine::{AnalysisResult, Engine, SourceFile};
use crate::fingerprint::FindingRecord;
use crate::ledger::Record;
use crate::walk::{PassStats, SourceIndex};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Passes the corpus snapshot loop makes before giving up on stability.
/// Two consecutive identical hashes end the loop early; a corpus edited
/// faster than it can be read twice is served best-effort from the last
/// pass (counted in `serve_snapshot_unstable`).
pub const SNAPSHOT_ATTEMPTS: usize = 8;

/// How a session is wired to disk: what it analyzes and where it keeps
/// its caches and ledgers. `None` directories disable that layer, the
/// same contract as the CLI's `--no-cache` / `--no-history`.
#[derive(Clone, Debug)]
pub struct SessionOptions {
    pub config: AnalysisConfig,
    /// Files or directories the session serves (searched for `*.c`).
    pub paths: Vec<String>,
    pub cache_dir: Option<PathBuf>,
    pub history_dir: Option<PathBuf>,
}

/// One finished (or joined) analysis run, shared by every request that
/// coalesced onto it.
pub struct RunHandle {
    /// The snapshot key this run was computed from.
    pub corpus_key: u64,
    /// The full analysis result (sites, pairing, findings, stats, obs).
    pub result: Arc<AnalysisResult>,
    /// The disk-cache load the session started from: `Some` on the
    /// session's first run only, and only with a cache directory.
    pub cache_load: Option<LoadOutcome>,
    /// Why saving the cache after this run failed. The findings stand;
    /// the unwritten shards stay dirty for the next save.
    pub cache_save_error: Option<String>,
    /// Why appending this run to the history or perf ledger failed.
    pub ledger_error: Option<String>,
}

/// An in-flight analysis other requests can join: the leader publishes
/// into `slot` and notifies; joiners wait on the condvar.
struct Flight {
    slot: Mutex<Option<Result<Arc<RunHandle>, String>>>,
    done: Condvar,
}

/// One request's identity and trace state, created at the server
/// boundary ([`Session::begin_request`]) and threaded through the
/// session method handling it. Every span the request emits goes into
/// its private recorder; on completion the session folds the finished
/// spans into a [`obs::RequestTrace`] retained behind `/debug/requests`
/// and the `trace` method.
pub struct RequestCtx {
    id: String,
    method: String,
    /// Request-scoped recorder overlay: spans recorded here belong to
    /// exactly this request.
    pub rec: obs::Recorder,
    coalesced: AtomicBool,
    run_id: Mutex<Option<String>>,
}

impl RequestCtx {
    /// The id echoed in the wire response (client-supplied or
    /// server-assigned).
    pub fn request_id(&self) -> &str {
        &self.id
    }

    pub fn method(&self) -> &str {
        &self.method
    }

    /// True once this request joined another request's in-flight run.
    pub fn coalesced(&self) -> bool {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// The analysis run this request returned — for coalesced joiners,
    /// the leader's run.
    pub fn run_id(&self) -> Option<String> {
        self.run_id
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn set_run_id(&self, run_id: &str) {
        *self.run_id.lock().unwrap_or_else(|e| e.into_inner()) = Some(run_id.to_string());
    }
}

/// The session's cumulative counters, kept in [`obs::Live`] and
/// registered at zero so `status` and `/metrics` show every one from the
/// start (as `ofence_serve_*_total`). `serve_requests`, `serve_errors`
/// and `serve_coalesced` are counted from each completed request's trace
/// ([`obs::Live::record_trace`]); the wire layer adds the errors that
/// never reach a session method. `serve_runs` is the live run count.
const COUNTERS: [&str; 9] = [
    "serve_requests",
    "serve_errors",
    "serve_coalesced",
    "serve_queue_enqueued",
    "serve_queue_dequeued",
    "serve_snapshot_retries",
    "serve_snapshot_unstable",
    // Files statted / read by snapshot passes, all requests together.
    "serve_snapshot_files_statted",
    "serve_snapshot_files_read",
];

pub struct Session {
    opts: SessionOptions,
    /// The engine — and with it the in-memory parsed-AST/summary cache —
    /// shared by every request. One analysis at a time; the per-file
    /// parallelism inside a run comes from [`crate::pool::for_each`].
    engine: Mutex<Engine>,
    /// What loading the disk cache at start-up found, until the first
    /// run takes it onto its [`RunHandle`].
    cache_load: Mutex<Option<LoadOutcome>>,
    /// Stamps and texts of the corpus as the last snapshot pass saw it.
    /// Passes hold the lock, so concurrent requests take turns walking.
    index: Mutex<SourceIndex>,
    /// In-flight analyses by snapshot key, for coalescing.
    inflight: Mutex<HashMap<u64, Arc<Flight>>>,
    /// Live telemetry: every engine run is published to it, every
    /// completed request recorded in it, and every session counter kept
    /// in it; `ofence serve --metrics` and `status` read it.
    live: Arc<obs::Live>,
    /// Monotonic source of server-assigned request ids.
    request_seq: AtomicU64,
    started: Instant,
    /// Test hook: make the next [`Session::lead_run`] panic, to prove
    /// flight cleanup survives an unwinding analysis.
    #[cfg(test)]
    panic_next_lead: std::sync::atomic::AtomicBool,
}

impl Session {
    /// Create a session over a default engine for `opts.config`.
    pub fn new(opts: SessionOptions) -> Session {
        let engine = Engine::new(opts.config.clone());
        Session::with_engine(opts, engine)
    }

    /// Create a session around an engine the caller configured (event
    /// sinks, slow-file ranking; its config must be `opts.config`) and
    /// hydrate it from the disk cache. A stale or corrupt cache is
    /// discarded; the first run reports that as its `cache_load`.
    pub fn with_engine(opts: SessionOptions, mut engine: Engine) -> Session {
        let cache_load = opts
            .cache_dir
            .as_ref()
            .map(|dir| engine.load_disk_cache(dir));
        let live = Arc::new(obs::Live::new());
        for name in COUNTERS {
            live.count(name, 0);
        }
        Session {
            opts,
            engine: Mutex::new(engine),
            cache_load: Mutex::new(cache_load),
            index: Mutex::new(SourceIndex::default()),
            inflight: Mutex::new(HashMap::new()),
            live,
            request_seq: AtomicU64::new(0),
            started: Instant::now(),
            #[cfg(test)]
            panic_next_lead: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// The live telemetry publisher (hand to [`obs::serve::serve`] for a
    /// `/metrics` + `/health` endpoint).
    pub fn live(&self) -> Arc<obs::Live> {
        self.live.clone()
    }

    /// Snapshot the corpus from disk, passing over it until two
    /// consecutive passes hash identically (see module docs). Returns the
    /// sources, the snapshot key (corpus hash ⊕ config fingerprint), and
    /// the files the passes statted and read, all passes together. `rec`
    /// gets a `snapshot` span, the wait for the index included, with one
    /// `snapshot_pass` child per pass.
    fn snapshot_sources(
        &self,
        rec: &obs::Recorder,
    ) -> Result<(Arc<Vec<SourceFile>>, u64, PassStats), String> {
        let _span = rec.span("snapshot");
        let mut index = self.index.lock().unwrap_or_else(|e| e.into_inner());
        let mut total = PassStats::default();
        let mut passes = || {
            let mut last: Option<(Arc<Vec<SourceFile>>, u64)> = None;
            for _ in 0..SNAPSHOT_ATTEMPTS {
                // Let go of the last pass's corpus first, so the index
                // updates it in place instead of copying it.
                let prev_key = last.take().map(|(_, key)| key);
                let _pass = rec.span("snapshot_pass");
                let (sources, pass) = index.refresh(&self.opts.paths)?;
                rec.annotate(
                    "snapshot_pass",
                    &[
                        ("statted", &pass.statted.to_string()),
                        ("read", &pass.read.to_string()),
                    ],
                );
                total.statted += pass.statted;
                total.read += pass.read;
                let key = corpus_key(&sources, &self.opts.config);
                match prev_key {
                    Some(prev_key) if prev_key == key => return Ok((sources, key)),
                    Some(_) => self.live.count("serve_snapshot_retries", 1),
                    None => {}
                }
                last = Some((sources, key));
            }
            self.live.count("serve_snapshot_unstable", 1);
            Ok(last.expect("at least one snapshot pass ran"))
        };
        let outcome = passes();
        self.live
            .count("serve_snapshot_files_statted", total.statted as u64);
        self.live
            .count("serve_snapshot_files_read", total.read as u64);
        outcome.map(|(sources, key)| (sources, key, total))
    }

    /// One stat-first pass over the corpus, without analyzing: the key a
    /// run would get if nothing changes meanwhile. A poller compares it
    /// with the last [`RunHandle::corpus_key`] to decide when to re-run.
    pub fn snapshot_key(&self) -> Result<u64, String> {
        let mut index = self.index.lock().unwrap_or_else(|e| e.into_inner());
        let (sources, _) = index.refresh(&self.opts.paths)?;
        Ok(corpus_key(&sources, &self.opts.config))
    }

    /// A fresh server-assigned request id (`r000001`, `r000002`, ...).
    /// The wire layer uses these for requests whose clients did not
    /// supply an id — including requests too broken to dispatch.
    pub fn assign_request_id(&self) -> String {
        format!(
            "r{:06}",
            self.request_seq.fetch_add(1, Ordering::Relaxed) + 1
        )
    }

    /// Open a request context: the identity + trace state every tracked
    /// session method takes. `client_id` is the wire envelope's
    /// `request_id` when the client supplied one.
    pub fn begin_request(&self, method: &str, client_id: Option<String>) -> Arc<RequestCtx> {
        let id = client_id.unwrap_or_else(|| self.assign_request_id());
        Arc::new(RequestCtx {
            id,
            method: method.to_string(),
            rec: obs::Recorder::new(),
            coalesced: AtomicBool::new(false),
            run_id: Mutex::new(None),
        })
    }

    /// Run one request around `f` (joins included), then finish it:
    /// build its one trace, append the ledger line derived from it, and
    /// record it in the live telemetry, which counts the request and
    /// derives its latency metrics. A request is counted when it
    /// completes.
    fn tracked<T>(
        &self,
        ctx: &RequestCtx,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, String> {
        let t0 = Instant::now();
        let out = f();
        let trace = obs::RequestTrace {
            request_id: ctx.id.clone(),
            method: ctx.method.clone(),
            latency_us: t0.elapsed().as_micros() as u64,
            outcome: if out.is_ok() { "ok" } else { "error" }.to_string(),
            coalesced: ctx.coalesced(),
            run_id: ctx.run_id(),
            spans: ctx.rec.snapshot().spans,
        };
        if let Some(dir) = &self.opts.history_dir {
            let _ = crate::ledger::append(dir, &crate::perf::RequestRecord::from(&trace));
        }
        self.live.record_trace(trace);
        out
    }

    /// The current analysis of the watched corpus: snapshot, coalesce,
    /// run. Every analysis-backed method funnels through here.
    pub fn current_run(&self) -> Result<Arc<RunHandle>, String> {
        let ctx = self.begin_request("analyze", None);
        self.tracked(&ctx, || {
            let _span = self.request_span(&ctx);
            self.current_run_inner(&ctx)
        })
    }

    fn current_run_inner(&self, ctx: &RequestCtx) -> Result<Arc<RunHandle>, String> {
        let (sources, key, pass) = self.snapshot_sources(&ctx.rec)?;
        ctx.rec.annotate(
            "request",
            &[
                ("snapshot_files_statted", &pass.statted.to_string()),
                ("snapshot_files_read", &pass.read.to_string()),
            ],
        );
        // Join an in-flight run of the same snapshot, or lead a new one.
        let (flight, leader) = {
            let mut map = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            match map.get(&key) {
                Some(f) => (f.clone(), false),
                None => {
                    let f = Arc::new(Flight {
                        slot: Mutex::new(None),
                        done: Condvar::new(),
                    });
                    map.insert(key, f.clone());
                    (f, true)
                }
            }
        };
        if !leader {
            drop(sources);
            ctx.coalesced.store(true, Ordering::Relaxed);
            let outcome = {
                let _span = ctx
                    .rec
                    .span_with("coalesce", &[("request_id", ctx.request_id())]);
                let mut slot = flight.slot.lock().unwrap_or_else(|e| e.into_inner());
                while slot.is_none() {
                    slot = flight.done.wait(slot).unwrap_or_else(|e| e.into_inner());
                }
                slot.clone().expect("leader published before notify")
            };
            // Record which leader run this request joined.
            if let Ok(handle) = &outcome {
                ctx.set_run_id(&handle.result.run_id);
            }
            return outcome;
        }
        // The leader MUST reach the cleanup below even if the analysis
        // panics: an unwind that skipped it would leave the dead flight
        // in `inflight` with an empty slot, wedging every waiting and
        // future request for this key on the condvar forever. Convert
        // the panic to an error so joiners are notified and the flight
        // retires; the engine's own lock recovers from the poisoning.
        let t0 = Instant::now();
        let outcome = match catch_unwind(AssertUnwindSafe(|| self.lead_run(ctx, &sources, key))) {
            Ok(outcome) => outcome,
            Err(panic) => Err(format!(
                "analysis panicked: {}",
                panic_message(panic.as_ref())
            )),
        };
        // The index updates its corpus in place only once nobody holds it.
        drop(sources);
        // Publish to the live telemetry and to joiners, and retire the
        // flight — later identical requests start a fresh (warm, cheap)
        // run rather than receiving a stale result forever.
        let _span = ctx.rec.span("publish");
        if let Ok(handle) = &outcome {
            ctx.set_run_id(&handle.result.run_id);
            // The engine's per-run snapshot: span totals, not every
            // per-file span. Publishing counts the run (`serve_runs`).
            self.live.publish(
                &handle.result.obs.totals(),
                handle.result.deviation_records.len() as u64,
                t0.elapsed().as_micros() as u64,
            );
        }
        {
            let mut map = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            map.remove(&key);
        }
        let mut slot = flight.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(outcome.clone());
        flight.done.notify_all();
        outcome
    }

    /// Run the engine over a snapshot (leader side of a flight).
    fn lead_run(
        &self,
        ctx: &RequestCtx,
        sources: &[SourceFile],
        key: u64,
    ) -> Result<Arc<RunHandle>, String> {
        #[cfg(test)]
        if self.panic_next_lead.swap(false, Ordering::SeqCst) {
            panic!("injected lead_run panic");
        }
        self.live.count("serve_queue_enqueued", 1);
        let run_span = ctx.rec.open("serve_run");
        let mut engine = self.engine.lock().unwrap_or_else(|e| e.into_inner());
        self.live.count("serve_queue_dequeued", 1);
        let cache_load = self
            .cache_load
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        let result = engine.analyze_incremental(sources);
        // A full disk is not a failed analysis: the result stands, the
        // next save retries the dirty shards.
        let cache_save_error = self
            .opts
            .cache_dir
            .as_ref()
            .and_then(|dir| engine.save_disk_cache(dir).err());
        // Event streams end every run on a line boundary, so a consumer
        // tailing one (or a driver killed between runs) sees whole events.
        engine.recorder().flush_sinks();
        drop(engine);
        ctx.rec.close(run_span);
        let ledger_span = ctx.rec.span("ledger");
        let ledger_error = self.opts.history_dir.as_ref().and_then(|dir| {
            let records = result.deviation_records.clone();
            let run_record = crate::history::record_of(&result, &self.opts.config, records);
            let history = append_traced(&ctx.rec, dir, &run_record);
            let perf_record = crate::perf::record_of(&result, &self.opts.config, None);
            let perf = append_traced(&ctx.rec, dir, &perf_record);
            history.and(perf).err()
        });
        drop(ledger_span);
        Ok(Arc::new(RunHandle {
            corpus_key: key,
            result: Arc::new(result),
            cache_load,
            cache_save_error,
            ledger_error,
        }))
    }

    /// Open this request's root span on its private recorder; every
    /// later span (coalesce wait, engine run) nests under it, and both
    /// attributes ride into the captured trace.
    fn request_span<'a>(&self, ctx: &'a RequestCtx) -> obs::SpanGuard<'a> {
        ctx.rec.span_with(
            "request",
            &[("method", ctx.method()), ("request_id", ctx.request_id())],
        )
    }

    /// `analyze`: the full schema-v3 report as compact JSON text — the
    /// document `ofence analyze --json` prints for the same snapshot —
    /// rendered straight from the result inside the request (its
    /// `render` span).
    pub fn analyze_document(&self, ctx: &RequestCtx) -> Result<String, String> {
        self.tracked(ctx, || {
            let _span = self.request_span(ctx);
            let handle = self.current_run_inner(ctx)?;
            let _render = ctx.rec.span("render");
            let text = serde_json::to_string(&handle.result.report()).expect("report serializes");
            // The last request to let go of a run frees it: inside the span.
            drop(handle);
            Ok(text)
        })
    }

    /// `analyze-file`: the slice of the current run belonging to one
    /// file (exact name, or unambiguous path suffix).
    pub fn analyze_file_document(
        &self,
        ctx: &RequestCtx,
        file: &str,
    ) -> Result<serde_json::Value, String> {
        self.tracked(ctx, || {
            let _span = self.request_span(ctx);
            let handle = self.current_run_inner(ctx)?;
            let result = &handle.result;
            let matches: Vec<usize> = result
                .files
                .iter()
                .enumerate()
                .filter(|(_, fa)| name_matches(&fa.name, file))
                .map(|(i, _)| i)
                .collect();
            let idx = match matches.as_slice() {
                [one] => *one,
                [] => return Err(format!("no corpus file matches `{file}`")),
                _ => {
                    return Err(format!(
                        "`{file}` is ambiguous: matches {} corpus files",
                        matches.len()
                    ))
                }
            };
            let fa = &result.files[idx];
            let findings: Vec<&FindingRecord> = result
                .deviation_records
                .iter()
                .filter(|r| r.file == fa.name)
                .collect();
            Ok(serde_json::json!({
                "schema_version": crate::json::SCHEMA_VERSION,
                "run_id": result.run_id,
                "file": fa.name,
                "barriers": fa.sites.len(),
                "functions": fa.function_count,
                "parse_errors": fa.parse_error_count,
                "findings": findings,
            }))
        })
    }

    /// `explain`: replay the pairing decision for the barrier at
    /// `file:line` — the exact document `ofence explain --json` prints.
    pub fn explain_document(
        &self,
        ctx: &RequestCtx,
        file: &str,
        line: u32,
    ) -> Result<serde_json::Value, String> {
        self.tracked(ctx, || {
            let _span = self.request_span(ctx);
            let handle = self.current_run_inner(ctx)?;
            let explanation =
                crate::explain::explain_at(&handle.result, &self.opts.config, file, line)?;
            Ok(serde_json::to_value(&explanation))
        })
    }

    /// `diff`: classify findings across two ledger runs (ids or
    /// unambiguous prefixes) — the exact document `ofence diff --json`
    /// prints for the same operands.
    pub fn diff_document(
        &self,
        ctx: &RequestCtx,
        old: &str,
        new: &str,
    ) -> Result<serde_json::Value, String> {
        self.tracked(ctx, || {
            let _span = self.request_span(ctx);
            let dir = self
                .opts
                .history_dir
                .as_ref()
                .ok_or("this session runs without a history ledger; diff is unavailable")?;
            let old_records = crate::history::find(dir, old)?.findings;
            let new_records = crate::history::find(dir, new)?.findings;
            Ok(crate::diffing::classify(&old_records, &new_records).to_json())
        })
    }

    /// `baseline-gate`: analyze the current corpus, classify against an
    /// inline baseline document, and report whether the `fail_on`
    /// policy passes.
    pub fn baseline_gate_document(
        &self,
        ctx: &RequestCtx,
        baseline: &serde_json::Value,
        fail_on: crate::diffing::FailOn,
    ) -> Result<serde_json::Value, String> {
        self.tracked(ctx, || {
            let _span = self.request_span(ctx);
            let known = crate::diffing::records_from_json(baseline)
                .map_err(|e| format!("baseline document: {e}"))?;
            let handle = self.current_run_inner(ctx)?;
            let report = crate::diffing::classify(&known, &handle.result.deviation_records);
            Ok(serde_json::json!({
                "run_id": handle.result.run_id,
                "pass": !report.fails(fail_on),
                "report": report.to_json(),
            }))
        })
    }

    /// `status`: session health — uptime, counters, queue depth, cache
    /// economics, and per-method latency quantiles. Cheap: never
    /// triggers an analysis.
    pub fn status_document(&self) -> serde_json::Value {
        let counters: serde_json::Map<String, serde_json::Value> = self
            .live
            .counters()
            .into_iter()
            .map(|(k, v)| (k, serde_json::Value::from(v)))
            .collect();
        let methods: serde_json::Map<String, serde_json::Value> = self
            .live
            .request_quantiles()
            .into_iter()
            .map(|q| {
                (
                    q.method,
                    serde_json::json!({
                        "count": q.count,
                        "p50_us": q.p50_us,
                        "p95_us": q.p95_us,
                        "p99_us": q.p99_us,
                    }),
                )
            })
            .collect();
        serde_json::json!({
            "uptime_us": self.started.elapsed().as_micros() as u64,
            "paths": self.opts.paths,
            "queue_depth": self.live.queue_depth(),
            "counters": counters,
            "methods": methods,
        })
    }

    /// `trace`: the captured span tree of a completed request, looked up
    /// by request id in the bounded recent/slowest rings. Cheap and
    /// untracked, like `status` — fetching a trace never perturbs the
    /// latency data it reports.
    pub fn trace_document(&self, request_id: &str) -> Result<serde_json::Value, String> {
        let json = self.live.trace_json(request_id).ok_or_else(|| {
            format!("no captured trace for request id `{request_id}` (evicted or never seen)")
        })?;
        serde_json::from_str(&json)
            .map_err(|e| format!("internal: captured trace is not valid JSON: {e}"))
    }
}

/// Append one record to its ledger in `dir` under an `append` span whose
/// `ledger` attribute names the file.
fn append_traced<T: Record>(rec: &obs::Recorder, dir: &Path, record: &T) -> Result<(), String> {
    let _span = rec.span_with("append", &[("ledger", T::FILE_NAME)]);
    crate::ledger::append(dir, record)
}

/// Best-effort text of a caught panic payload (shared with the wire
/// protocol's handler-panic backstop in [`crate::server`]).
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

/// Exact name, or path-suffix match in either direction: how `explain`
/// and `analyze-file` resolve a file a user names.
pub fn name_matches(name: &str, wanted: &str) -> bool {
    name == wanted || name.ends_with(&format!("/{wanted}")) || wanted.ends_with(&format!("/{name}"))
}

/// The coalescing key: FNV over every `(path, content hash)` pair plus
/// the config fingerprint. Two requests share a key iff they observe the
/// same corpus bytes under the same analysis configuration. Each file's
/// hash was computed when it was read, so the key costs O(paths).
pub fn corpus_key(sources: &[SourceFile], config: &AnalysisConfig) -> u64 {
    let mut h = cache::FNV_OFFSET;
    for s in sources {
        h = cache::fnv1a_extend(h, s.name.as_bytes());
        h = cache::fnv1a_extend(h, &[0]);
        h = cache::fnv1a_extend(h, &s.hash().to_le_bytes());
    }
    cache::fnv1a_extend(h, &cache::config_fingerprint(config).to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ofence-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const CLEAN: &str = "struct m { int init; int y; };\n\
void reader(struct m *a) { if (!a->init) return; smp_rmb(); f(a->y); }\n\
void writer(struct m *b) { b->y = 1; smp_wmb(); b->init = 1; }\n";

    fn session_over(dir: &std::path::Path) -> Session {
        session_with(dir, AnalysisConfig::default(), None)
    }

    fn session_with(
        dir: &std::path::Path,
        config: AnalysisConfig,
        history_dir: Option<PathBuf>,
    ) -> Session {
        Session::new(SessionOptions {
            config,
            paths: vec![dir.display().to_string()],
            cache_dir: None,
            history_dir,
        })
    }

    fn ctx(session: &Session, method: &str) -> Arc<RequestCtx> {
        session.begin_request(method, None)
    }

    fn counter(session: &Session, name: &str) -> u64 {
        session.live().counters()[name]
    }

    #[test]
    fn analyze_document_matches_engine_output() {
        let dir = tempdir("doc");
        std::fs::write(dir.join("m.c"), CLEAN).unwrap();
        let session = session_over(&dir);
        let text = session.analyze_document(&ctx(&session, "analyze")).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(doc["schema_version"], crate::json::SCHEMA_VERSION);
        assert_eq!(doc["sites"].as_array().unwrap().len(), 2);
        assert_eq!(doc["pairings"].as_array().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn identical_snapshots_share_a_key_and_edits_change_it() {
        let dir = tempdir("key");
        std::fs::write(dir.join("m.c"), CLEAN).unwrap();
        let session = session_over(&dir);
        let rec = obs::Recorder::new();
        let (s1, k1, _) = session.snapshot_sources(&rec).unwrap();
        let (_, k2, _) = session.snapshot_sources(&rec).unwrap();
        assert_eq!(k1, k2);
        assert_eq!(s1.len(), 1);
        std::fs::write(dir.join("m.c"), format!("{CLEAN}\nint pad;\n")).unwrap();
        let (_, k3, _) = session.snapshot_sources(&rec).unwrap();
        assert_ne!(k1, k3);
        // Config changes the key too: same bytes, different analysis.
        let config = AnalysisConfig {
            write_window: 9,
            ..Default::default()
        };
        let other = session_with(&dir, config, None);
        let (_, k4, _) = other.snapshot_sources(&rec).unwrap();
        assert_ne!(k3, k4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `touch` changes the stamp but not the bytes: the file is read
    /// again, and neither the key nor the engine notices.
    #[test]
    fn touch_keeps_the_key_and_reanalyzes_nothing() {
        let dir = tempdir("touch");
        let file = dir.join("m.c");
        std::fs::write(&file, CLEAN).unwrap();
        let session = session_over(&dir);
        let first = session.current_run().unwrap();
        std::fs::File::options()
            .write(true)
            .open(&file)
            .unwrap()
            .set_modified(std::time::SystemTime::now() + std::time::Duration::from_secs(5))
            .unwrap();
        let second = session.current_run().unwrap();
        assert_eq!(first.corpus_key, second.corpus_key);
        assert_eq!(second.result.obs.count_of("engine_files_analyzed"), 0);
        assert_eq!(second.result.obs.count_of("engine_cache_hits"), 1);
        // No per-file work ran, so no worker did either.
        assert_eq!(first.result.stats.workers, 1);
        assert_eq!(second.result.stats.workers, 0);
        assert_eq!(second.result.stats.worker_busy_us, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn requests_report_what_their_snapshot_statted_and_read() {
        let dir = tempdir("snapshot-attrs");
        std::fs::write(dir.join("a.c"), CLEAN).unwrap();
        std::fs::write(dir.join("b.c"), "int b;\n").unwrap();
        let session = session_over(&dir);
        session.analyze_document(&ctx(&session, "analyze")).unwrap();
        let doc = session.trace_document("r000001").unwrap();
        let attrs = &doc["spans"][0]["attrs"];
        // Two passes over two files; the second pass re-reads both
        // because they were written moments before the first read them.
        assert_eq!(attrs["snapshot_files_statted"], "4", "{doc}");
        assert_eq!(attrs["snapshot_files_read"], "4", "{doc}");
        assert_eq!(counter(&session, "serve_snapshot_files_statted"), 4);
        assert_eq!(counter(&session, "serve_snapshot_files_read"), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequential_requests_do_not_coalesce_but_reuse_the_cache() {
        let dir = tempdir("seq");
        std::fs::write(dir.join("m.c"), CLEAN).unwrap();
        let session = session_over(&dir);
        let a = session.current_run().unwrap();
        let b = session.current_run().unwrap();
        // Two sequential runs: distinct run ids, zero coalescing, warm
        // second run.
        assert_ne!(a.result.run_id, b.result.run_id);
        assert_eq!(counter(&session, "serve_coalesced"), 0);
        assert_eq!(b.result.obs.count_of("engine_cache_hits"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overlapping_identical_requests_coalesce_to_one_run_id() {
        let dir = tempdir("coalesce");
        // A corpus big enough that the analysis has an in-flight window.
        for i in 0..24 {
            std::fs::write(dir.join(format!("f{i:02}.c")), CLEAN).unwrap();
        }
        let session = Arc::new(session_over(&dir));
        let mut run_ids: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let session = session.clone();
                    scope.spawn(move || session.current_run().unwrap().result.run_id.clone())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        run_ids.sort();
        run_ids.dedup();
        let coalesced = counter(&session, "serve_coalesced");
        // Exactly one engine run per distinct run id; every other
        // request joined one of them.
        assert_eq!(
            run_ids.len() as u64 + coalesced,
            8,
            "run_ids={run_ids:?} coalesced={coalesced}"
        );
        assert_eq!(counter(&session, "serve_runs"), run_ids.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explain_and_file_slice_work_from_one_warm_run() {
        let dir = tempdir("methods");
        std::fs::write(dir.join("m.c"), CLEAN).unwrap();
        let session = session_over(&dir);
        let explanation = session
            .explain_document(&ctx(&session, "explain"), "m.c", 2)
            .unwrap();
        assert!(explanation["target"].is_object(), "{explanation}");
        let slice = session
            .analyze_file_document(&ctx(&session, "analyze-file"), "m.c")
            .unwrap();
        assert_eq!(slice["barriers"], 2);
        assert!(session
            .explain_document(&ctx(&session, "explain"), "m.c", 999)
            .is_err());
        assert!(session
            .analyze_file_document(&ctx(&session, "analyze-file"), "nope.c")
            .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn diff_resolves_ledger_runs() {
        let dir = tempdir("diff");
        let corpus = dir.join("src");
        std::fs::create_dir_all(&corpus).unwrap();
        std::fs::write(corpus.join("m.c"), CLEAN).unwrap();
        let session = session_with(&corpus, AnalysisConfig::default(), Some(dir.join("ledger")));
        let a = session.current_run().unwrap().result.run_id.clone();
        // Introduce a bug: reader loses its fence ordering — simplest is
        // a misplaced access corpus pattern appended to the file.
        let buggy = format!(
            "{CLEAN}\nstruct rpc {{ int len; int recd; }};\n\
void complete(struct rpc *req) {{ req->len = 4; smp_wmb(); req->recd = 1; }}\n\
void decode(struct rpc *req) {{ smp_rmb(); if (!req->recd) return; g(req->len); }}\n"
        );
        std::fs::write(corpus.join("m.c"), buggy).unwrap();
        let b = session.current_run().unwrap().result.run_id.clone();
        let report = session
            .diff_document(&ctx(&session, "diff"), &a, &b)
            .unwrap();
        assert_eq!(report["summary"]["new"], 1, "{report}");
        assert_eq!(report["summary"]["fixed"], 0, "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn baseline_gate_passes_and_fails() {
        let dir = tempdir("gate");
        let buggy = "struct rpc { int len; int recd; };\n\
void complete(struct rpc *req) { req->len = 4; smp_wmb(); req->recd = 1; }\n\
void decode(struct rpc *req) { smp_rmb(); if (!req->recd) return; g(req->len); }\n";
        std::fs::write(dir.join("m.c"), buggy).unwrap();
        let session = session_over(&dir);
        // Empty baseline: the finding is new, the gate fails.
        let empty = serde_json::json!({ "findings": [] });
        let out = session
            .baseline_gate_document(
                &ctx(&session, "baseline-gate"),
                &empty,
                crate::diffing::FailOn::New,
            )
            .unwrap();
        assert_eq!(out["pass"], false, "{out}");
        // Baseline = current findings: nothing new, the gate passes.
        let text = session.analyze_document(&ctx(&session, "analyze")).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let out = session
            .baseline_gate_document(
                &ctx(&session, "baseline-gate"),
                &doc,
                crate::diffing::FailOn::New,
            )
            .unwrap();
        assert_eq!(out["pass"], true, "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leader_panic_retires_the_flight_and_reports_an_error() {
        let dir = tempdir("panic");
        std::fs::write(dir.join("m.c"), CLEAN).unwrap();
        let session = session_over(&dir);
        session
            .panic_next_lead
            .store(true, std::sync::atomic::Ordering::SeqCst);
        // The panicking leader must come back as an error, not an unwind
        // that strands the flight.
        let err = session.current_run().err().expect("leader panic surfaced");
        assert!(err.contains("analysis panicked"), "{err}");
        assert!(err.contains("injected lead_run panic"), "{err}");
        assert_eq!(counter(&session, "serve_errors"), 1);
        // The dead flight was removed: the same key leads a fresh run
        // instead of joining it (which would hang forever).
        assert!(
            session
                .inflight
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .is_empty(),
            "panicked flight left in the inflight map"
        );
        let handle = session.current_run().unwrap();
        assert!(
            !handle.result.deviation_records.is_empty() || handle.result.stats.files_total == 1
        );
        assert_eq!(counter(&session, "serve_coalesced"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_file_fails_its_request_instead_of_hanging_it() {
        use std::sync::atomic::AtomicBool;
        use std::time::Duration;
        let dir = tempdir("file-panic");
        for i in 0..8 {
            std::fs::write(dir.join(format!("f{i:02}.c")), CLEAN).unwrap();
        }
        let session = Arc::new(session_over(&dir));
        // One file's per-file analysis panics, on whichever worker takes
        // it, once it is released.
        let release = Arc::new(AtomicBool::new(false));
        session.engine.lock().unwrap().panic_on_file = Some(crate::engine::PanicOnFile {
            file: "f03.c".to_string(),
            release: release.clone(),
        });
        // Requests report over a channel and are joined only once all
        // have reported, so a hung request fails this test by timeout
        // instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let request = || {
            let (session, tx) = (session.clone(), tx.clone());
            std::thread::spawn(move || {
                let _ = tx.send(session.current_run().map(|_| ()));
            })
        };
        let flight_holders = || {
            let map = session.inflight.lock().unwrap_or_else(|e| e.into_inner());
            map.values().map(Arc::strong_count).max().unwrap_or(0)
        };
        let wait_for = |holders: usize| {
            let t0 = Instant::now();
            while flight_holders() < holders {
                assert!(t0.elapsed() < Duration::from_secs(30), "no flight");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        // The leader's flight is held by the map and the leader; each
        // joiner that coalesces onto it holds one more.
        let mut threads = vec![request()];
        wait_for(2);
        threads.extend([request(), request()]);
        wait_for(4);
        release.store(true, Ordering::SeqCst);
        for _ in 0..3 {
            let outcome = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("request hung on a panicking file");
            let err = outcome.expect_err("the panic fails the request");
            assert!(err.contains("analysis panicked"), "{err}");
            assert!(err.contains("injected panic analyzing"), "{err}");
            assert!(err.contains("f03.c"), "{err}");
        }
        for t in threads {
            t.join().expect("request thread");
        }
        assert_eq!(counter(&session, "serve_errors"), 3);
        assert_eq!(counter(&session, "serve_coalesced"), 2);
        assert!(session
            .inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty());
        // The engine lock recovers from the poisoning and the next
        // request analyzes the file it failed on.
        session
            .engine
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .panic_on_file = None;
        let handle = session.current_run().unwrap();
        assert_eq!(handle.result.stats.files_total, 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn joiners_survive_a_panicking_leader() {
        let dir = tempdir("panic-join");
        for i in 0..24 {
            std::fs::write(dir.join(format!("f{i:02}.c")), CLEAN).unwrap();
        }
        let session = Arc::new(session_over(&dir));
        // Exactly one request leads and panics; everyone who coalesced
        // onto it must be woken with the leader's error, and later
        // requests must be able to run clean.
        session
            .panic_next_lead
            .store(true, std::sync::atomic::Ordering::SeqCst);
        let outcomes: Vec<Result<Arc<RunHandle>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let session = session.clone();
                    scope.spawn(move || session.current_run())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // No thread hung (we got here), and every outcome is either the
        // panic error or a successful run led after the flight retired.
        assert!(outcomes.iter().any(|o| o.is_err()), "panic never surfaced");
        for outcome in &outcomes {
            if let Err(e) = outcome {
                assert!(e.contains("analysis panicked"), "{e}");
            }
        }
        assert!(session
            .inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty());
        assert!(session.current_run().is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn method_failures_count_as_request_errors() {
        let dir = tempdir("errcount");
        std::fs::write(dir.join("m.c"), CLEAN).unwrap();
        let session = session_over(&dir);
        assert!(session
            .analyze_file_document(&ctx(&session, "analyze-file"), "nope.c")
            .is_err());
        assert!(session
            .explain_document(&ctx(&session, "explain"), "m.c", 999)
            .is_err());
        let bad = serde_json::json!({ "findings": "not-a-list" });
        assert!(session
            .baseline_gate_document(
                &ctx(&session, "baseline-gate"),
                &bad,
                crate::diffing::FailOn::New
            )
            .is_err());
        // Each failed request counted exactly once — including failures
        // that happen *after* the underlying analysis succeeded.
        assert_eq!(counter(&session, "serve_errors"), 3);
        assert_eq!(counter(&session, "serve_requests"), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_is_cheap_and_counts_nothing() {
        let dir = tempdir("status");
        std::fs::write(dir.join("m.c"), CLEAN).unwrap();
        let session = session_over(&dir);
        let status = session.status_document();
        assert_eq!(status["queue_depth"], 0);
        assert_eq!(counter(&session, "serve_runs"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_requests_leave_fetchable_traces() {
        let dir = tempdir("trace");
        std::fs::write(dir.join("m.c"), CLEAN).unwrap();
        let session = session_over(&dir);
        let handle = session.current_run().unwrap();
        // The first server-assigned id is r000001; its trace carries the
        // leader's run id and a tree with the request + serve_run spans.
        let doc = session.trace_document("r000001").unwrap();
        assert_eq!(doc["method"], "analyze");
        assert_eq!(doc["outcome"], "ok");
        assert_eq!(doc["coalesced"], false);
        assert_eq!(doc["run_id"], handle.result.run_id.as_str());
        assert!(doc["span_count"].as_u64().unwrap() >= 2, "{doc}");
        let root = &doc["spans"][0];
        assert_eq!(root["name"], "request");
        assert_eq!(root["attrs"]["request_id"], "r000001");
        let children = root["children"].as_array().unwrap();
        assert!(children.iter().any(|c| c["name"] == "serve_run"), "{doc}");
        // Total tree time fits inside the reported latency.
        let latency = doc["latency_us"].as_u64().unwrap();
        assert!(root["dur_us"].as_u64().unwrap() <= latency, "{doc}");
        // Unknown ids fail cleanly, without counting a request.
        assert!(session.trace_document("nope").is_err());
        assert_eq!(counter(&session, "serve_requests"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn client_supplied_request_ids_are_preserved() {
        let dir = tempdir("client-id");
        std::fs::write(dir.join("m.c"), CLEAN).unwrap();
        let session = session_over(&dir);
        let ctx = session.begin_request("analyze", Some("ci-42".to_string()));
        assert_eq!(ctx.request_id(), "ci-42");
        session.analyze_document(&ctx).unwrap();
        let doc = session.trace_document("ci-42").unwrap();
        assert_eq!(doc["request_id"], "ci-42");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn coalesced_joiners_record_the_leader_run() {
        let dir = tempdir("join-attr");
        for i in 0..24 {
            std::fs::write(dir.join(format!("f{i:02}.c")), CLEAN).unwrap();
        }
        let session = Arc::new(session_over(&dir));
        let run_ids: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let session = session.clone();
                    scope.spawn(move || session.current_run().unwrap().result.run_id.clone())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let summary: serde_json::Value =
            serde_json::from_str(&session.live().traces_summary_json()).unwrap();
        let recent = summary["recent"].as_array().unwrap();
        assert_eq!(recent.len(), 8);
        let coalesced = counter(&session, "serve_coalesced");
        let marked = recent.iter().filter(|t| t["coalesced"] == true).count() as u64;
        assert_eq!(marked, coalesced, "{summary}");
        for t in recent {
            // Every trace — joiner or leader — names the run it returned,
            // and that run really happened.
            let run_id = t["run_id"].as_str().expect("run_id recorded");
            assert!(run_ids.iter().any(|r| r == run_id), "{summary}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn request_metrics_agree_within_one_scrape() {
        let dir = tempdir("quantiles");
        std::fs::write(dir.join("m.c"), CLEAN).unwrap();
        let session = session_over(&dir);
        // Five tracked requests over three methods. The fourth fails
        // after its analysis ran, so the final publish precedes its end;
        // the fifth, a `diff` on a session with no ledger, fails without
        // producing a run.
        const N: u64 = 5;
        session.analyze_document(&ctx(&session, "analyze")).unwrap();
        session.analyze_document(&ctx(&session, "analyze")).unwrap();
        session
            .explain_document(&ctx(&session, "explain"), "m.c", 2)
            .unwrap();
        assert!(session
            .explain_document(&ctx(&session, "explain"), "m.c", 999)
            .is_err());
        assert!(session
            .diff_document(&ctx(&session, "diff"), "a", "b")
            .is_err());
        // One scrape: the request and error counters, the all-methods
        // histogram, the per-method histograms, the quantile summaries,
        // `/health` and `status` all count every completed request.
        let metrics = session.live().metrics_text();
        let value = |name: &str| -> u64 {
            let prefix = format!("{name} ");
            let line = metrics.lines().find_map(|l| l.strip_prefix(&prefix));
            line.unwrap_or_else(|| panic!("no `{name}` in:\n{metrics}"))
                .parse()
                .unwrap()
        };
        assert_eq!(value("ofence_serve_request_duration_us_count"), N);
        assert_eq!(value("ofence_serve_requests_total"), N);
        assert_eq!(value("ofence_serve_errors_total"), 2);
        let status = session.status_document();
        assert_eq!(status["methods"].as_object().unwrap().len(), 3, "{status}");
        let mut sum = 0;
        for method in ["analyze", "explain"] {
            let count = value(&format!("ofence_serve_request_duration_us_{method}_count"));
            assert_eq!(count, 2, "{metrics}");
            assert_eq!(
                value(&format!(
                    "ofence_serve_method_duration_us_count{{method=\"{method}\"}}"
                )),
                count
            );
            let q = &status["methods"][method];
            assert_eq!(q["count"], count, "{status}");
            assert!(q["p50_us"].as_u64().unwrap() <= q["p99_us"].as_u64().unwrap());
            assert!(
                value(&format!(
                    "ofence_serve_method_duration_us{{method=\"{method}\",quantile=\"0.99\"}}"
                )) > 0
            );
            sum += count;
        }
        let diffs = value("ofence_serve_method_duration_us_count{method=\"diff\"}");
        assert_eq!(diffs, 1);
        assert_eq!(status["methods"]["diff"]["count"], diffs, "{status}");
        assert_eq!(sum + diffs, N);
        // `status` reports exactly the scrape's counters.
        let counters = status["counters"].as_object().unwrap();
        assert_eq!(counters.len(), COUNTERS.len() + 1, "{status}");
        for (name, count) in counters.iter() {
            assert_eq!(*count, value(&format!("ofence_{name}_total")), "{name}");
        }
        // `/health` counts the requests its per-method counts add up to.
        let health: serde_json::Value =
            serde_json::from_str(&session.live().health_json()).unwrap();
        let per_method: u64 = health["methods"]
            .as_object()
            .unwrap()
            .iter()
            .map(|(_, m)| m["count"].as_u64().unwrap())
            .sum();
        assert_eq!(health["requests"], N, "{health}");
        assert_eq!(per_method, N, "{health}");
        // Request span time still reaches the span gauge.
        for span in ["request", "serve_run"] {
            let line = format!("ofence_span_duration_seconds{{span=\"{span}\"}} ");
            assert!(metrics.contains(&line), "{metrics}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn requests_ledger_records_every_completed_request() {
        let dir = tempdir("req-ledger");
        let corpus = dir.join("src");
        std::fs::create_dir_all(&corpus).unwrap();
        std::fs::write(corpus.join("m.c"), CLEAN).unwrap();
        let ledger = dir.join("ledger");
        let session = session_with(&corpus, AnalysisConfig::default(), Some(ledger.clone()));
        session.analyze_document(&ctx(&session, "analyze")).unwrap();
        assert!(session
            .analyze_file_document(&ctx(&session, "analyze-file"), "nope.c")
            .is_err());
        let (records, skipped) =
            crate::ledger::load::<crate::perf::RequestRecord>(&ledger).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].method, "analyze");
        assert!(records[0].ok);
        assert!(records[0].run_id.is_some());
        assert_eq!(records[1].method, "analyze-file");
        assert!(!records[1].ok);
        assert!(!records[0].request_id.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod snapshot_props {
    use super::*;
    use proptest::prelude::*;

    /// Texts a step can write: a clean pair, a misplaced-access bug, a
    /// barrier-free helper, an unparseable file, and a pair whose writer
    /// reaches its payload only through `fill` in another file (composed
    /// at `ipa_depth` ≥ 1).
    const TEXTS: &[&str] = &[
        "struct m { int init; int y; };\n\
void reader(struct m *a) { if (!a->init) return; smp_rmb(); f(a->y); }\n\
void writer(struct m *b) { b->y = 1; smp_wmb(); b->init = 1; }\n",
        "struct rpc { int len; int recd; };\n\
void complete(struct rpc *req) { req->len = 4; smp_wmb(); req->recd = 1; }\n\
void decode(struct rpc *req) { smp_rmb(); if (!req->recd) return; g(req->len); }\n",
        "int helper(int x) { return x + 1; }\n",
        "int @ garbage",
        "struct c { int a; int flag; };\n\
void publish(struct c *p) { fill(p); smp_wmb(); p->flag = 1; }\n\
void consume(struct c *p) { if (!p->flag) return; smp_rmb(); g(p->a); }\n",
        "struct c { int a; int flag; };\nvoid fill(struct c *p) { p->a = 7; }\n",
    ];

    #[derive(Clone, Copy, Debug)]
    enum Step {
        Edit(usize, usize),
        Add(usize),
        Delete(usize),
        Rename(usize),
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0usize..8, 0usize..TEXTS.len()).prop_map(|(f, t)| Step::Edit(f, t)),
            (0usize..TEXTS.len()).prop_map(Step::Add),
            (0usize..8).prop_map(Step::Delete),
            (0usize..8).prop_map(Step::Rename),
        ]
    }

    fn corpus_files(dir: &std::path::Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = ["", "sub"]
            .iter()
            .flat_map(|d| std::fs::read_dir(dir.join(d)).unwrap())
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "c"))
            .collect();
        files.sort();
        files
    }

    fn apply(dir: &std::path::Path, step: Step, serial: &mut usize) {
        let files = corpus_files(dir);
        *serial += 1;
        let fresh = dir
            .join(if serial.is_multiple_of(2) { "sub" } else { "" })
            .join(format!("n{serial}.c"));
        match step {
            Step::Edit(f, t) => std::fs::write(&files[f % files.len()], TEXTS[t]).unwrap(),
            Step::Add(t) => std::fs::write(fresh, TEXTS[t]).unwrap(),
            // Never empty the corpus: an empty tree is an error, not a report.
            Step::Delete(f) if files.len() > 1 => {
                std::fs::remove_file(&files[f % files.len()]).unwrap()
            }
            Step::Delete(_) => {}
            Step::Rename(f) => std::fs::rename(&files[f % files.len()], fresh).unwrap(),
        }
    }

    fn scrubbed(result: &AnalysisResult) -> serde_json::Value {
        let mut doc = result.to_json();
        if let serde_json::Value::Object(map) = &mut doc {
            for key in ["run_id", "stats", "observability"] {
                map.insert(key.to_string(), serde_json::Value::Null);
            }
        }
        doc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Whatever the edit history and composition depth, a session's
        /// report equals a cold analysis of the tree, and its dirty-shard
        /// saves leave a cache that a new engine hits on every file.
        #[test]
        fn session_runs_match_cold_analysis(
            steps in proptest::collection::vec(arb_step(), 1..8),
            ipa_depth in prop_oneof![Just(0u32), Just(2u32)],
        ) {
            let root = std::env::temp_dir().join(format!(
                "ofence-session-props-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let (dir, cache_dir) = (root.join("src"), root.join("cache"));
            let _ = std::fs::remove_dir_all(&root);
            std::fs::create_dir_all(dir.join("sub")).unwrap();
            for (i, text) in TEXTS.iter().enumerate() {
                std::fs::write(dir.join(format!("f{i}.c")), text).unwrap();
            }
            let config = AnalysisConfig {
                ipa_depth,
                ..Default::default()
            };
            let paths = vec![dir.display().to_string()];
            let session = Session::new(SessionOptions {
                config: config.clone(),
                paths: paths.clone(),
                cache_dir: Some(cache_dir.clone()),
                history_dir: None,
            });
            session.current_run().unwrap();
            let mut serial = 0;
            for step in steps {
                apply(&dir, step, &mut serial);
                let served = session.current_run().unwrap();
                let sources = crate::walk::collect_sources(&paths).unwrap();
                let cold = Engine::new(config.clone()).analyze(&sources);
                prop_assert_eq!(scrubbed(&served.result), scrubbed(&cold), "after {:?}", step);

                let mut reloaded = Engine::new(config.clone());
                reloaded.load_disk_cache(&cache_dir);
                let warm = reloaded.analyze(&sources);
                prop_assert_eq!(
                    warm.obs.count_of("engine_cache_hits"),
                    sources.len() as u64,
                    "after {:?}",
                    step
                );
            }
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    /// One cache dir reused at depth 0, then 2, then 0: each flip
    /// discards the other depth's cache (and counts it), and every report
    /// equals a fresh analysis at its own depth.
    #[test]
    fn depth_flips_discard_the_cache_and_match_cold_analysis() {
        let root =
            std::env::temp_dir().join(format!("ofence-session-depths-{}", std::process::id()));
        let (dir, cache_dir) = (root.join("src"), root.join("cache"));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&dir).unwrap();
        for (i, text) in TEXTS.iter().enumerate() {
            std::fs::write(dir.join(format!("f{i}.c")), text).unwrap();
        }
        let paths = vec![dir.display().to_string()];
        let sources = crate::walk::collect_sources(&paths).unwrap();
        let mut pairings = Vec::new();
        for (run, ipa_depth) in [0u32, 2, 0].into_iter().enumerate() {
            let config = AnalysisConfig {
                ipa_depth,
                ..Default::default()
            };
            let session = Session::new(SessionOptions {
                config: config.clone(),
                paths: paths.clone(),
                cache_dir: Some(cache_dir.clone()),
                history_dir: None,
            });
            let served = session.current_run().unwrap();
            let cold = Engine::new(config).analyze(&sources);
            assert_eq!(
                scrubbed(&served.result),
                scrubbed(&cold),
                "depth {ipa_depth}"
            );
            let flipped = u64::from(run > 0);
            assert_eq!(served.result.obs.count_of("cache_discarded"), flipped);
            assert_eq!(
                matches!(served.cache_load, Some(LoadOutcome::Discarded { .. })),
                run > 0,
                "{:?}",
                served.cache_load
            );
            pairings.push(served.result.pairing.pairings.len());
        }
        // Composition changes the answer here, so the flips matter.
        assert!(pairings[1] > pairings[0], "{pairings:?}");
        assert_eq!(pairings[2], pairings[0]);
        let _ = std::fs::remove_dir_all(&root);
    }

    static SEQ: AtomicU64 = AtomicU64::new(0);
}
