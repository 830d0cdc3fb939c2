//! An analysis session: the one pipeline that turns a tree into an
//! [`AnalysisResult`].
//!
//! [`Session`] owns every piece of a run — the [`Engine`] with its
//! parsed-AST/summary cache, the sharded disk cache, the history and
//! perf ledgers, and the live telemetry publisher. Every driver is a
//! session: a one-shot CLI subcommand makes one request, `ofence watch`
//! adds a poll loop ([`Session::snapshot_key`]), and `ofence serve` puts
//! a socket in front of it, serving many concurrent `analyze` /
//! `explain` / `diff` / `baseline-gate` requests against one warm cache
//! and one persistent worker pool.
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
use crate::fingerprint::{finding_records, FindingRecord};
use crate::walk::{PassStats, SourceIndex};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
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
    /// Diffable records of the run's deviations, in report order.
    pub records: Vec<FindingRecord>,
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

/// Cumulative session counters, exported on `/metrics` (as
/// `ofence_serve_*_total`) and in `status` responses. Queue depth is
/// `queue_enqueued - queue_dequeued`.
#[derive(Debug, Default)]
pub struct SessionCounters {
    pub requests: AtomicU64,
    pub errors: AtomicU64,
    pub coalesced: AtomicU64,
    pub runs: AtomicU64,
    pub queue_enqueued: AtomicU64,
    pub queue_dequeued: AtomicU64,
    pub snapshot_retries: AtomicU64,
    pub snapshot_unstable: AtomicU64,
    /// Files statted / read by snapshot passes, all requests together.
    pub snapshot_files_statted: AtomicU64,
    pub snapshot_files_read: AtomicU64,
}

impl SessionCounters {
    fn get(v: &AtomicU64) -> u64 {
        v.load(Ordering::Relaxed)
    }

    fn bump(v: &AtomicU64) {
        v.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one error response (the wire protocol calls this for
    /// failures that never reach a session method, e.g. parse errors).
    pub fn bump_errors(&self) {
        Self::bump(&self.errors);
    }

    /// Requests currently waiting for (or holding) the engine.
    pub fn queue_depth(&self) -> u64 {
        Self::get(&self.queue_enqueued).saturating_sub(Self::get(&self.queue_dequeued))
    }

    /// The counter pairs exported next to the engine's per-run counters.
    pub fn export(&self) -> Vec<(String, u64)> {
        [
            ("serve_requests", Self::get(&self.requests)),
            ("serve_errors", Self::get(&self.errors)),
            ("serve_coalesced", Self::get(&self.coalesced)),
            ("serve_runs", Self::get(&self.runs)),
            ("serve_queue_enqueued", Self::get(&self.queue_enqueued)),
            ("serve_queue_dequeued", Self::get(&self.queue_dequeued)),
            ("serve_snapshot_retries", Self::get(&self.snapshot_retries)),
            (
                "serve_snapshot_unstable",
                Self::get(&self.snapshot_unstable),
            ),
            (
                "serve_snapshot_files_statted",
                Self::get(&self.snapshot_files_statted),
            ),
            (
                "serve_snapshot_files_read",
                Self::get(&self.snapshot_files_read),
            ),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

pub struct Session {
    opts: SessionOptions,
    /// The engine — and with it the in-memory parsed-AST/summary cache —
    /// shared by every request. One analysis at a time; the per-file
    /// parallelism inside a run comes from the persistent global pool.
    engine: Mutex<Engine>,
    /// What loading the disk cache at start-up found, until the first
    /// run takes it onto its [`RunHandle`].
    cache_load: Mutex<Option<LoadOutcome>>,
    /// Stamps and texts of the corpus as the last snapshot pass saw it.
    /// Passes hold the lock, so concurrent requests take turns walking.
    index: Mutex<SourceIndex>,
    /// In-flight analyses by snapshot key, for coalescing.
    inflight: Mutex<HashMap<u64, Arc<Flight>>>,
    pub counters: SessionCounters,
    /// Live telemetry: every engine run is published to it and every
    /// completed request recorded in it; `ofence serve --metrics`
    /// scrapes it.
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
        Session {
            opts,
            engine: Mutex::new(engine),
            cache_load: Mutex::new(cache_load),
            index: Mutex::new(SourceIndex::default()),
            inflight: Mutex::new(HashMap::new()),
            counters: SessionCounters::default(),
            live: Arc::new(obs::Live::new()),
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
    /// the files the passes statted and read, all passes together.
    fn snapshot_sources(&self) -> Result<(Vec<SourceFile>, u64, PassStats), String> {
        let mut index = self.index.lock().unwrap_or_else(|e| e.into_inner());
        let mut total = PassStats::default();
        let mut passes = || {
            let mut prev: Option<(Vec<SourceFile>, u64)> = None;
            for _ in 0..SNAPSHOT_ATTEMPTS {
                let (sources, pass) = index.refresh(&self.opts.paths)?;
                total.statted += pass.statted;
                total.read += pass.read;
                let key = corpus_key(&sources, &self.opts.config);
                match prev {
                    Some((_, prev_key)) if prev_key == key => return Ok((sources, key)),
                    Some(_) => SessionCounters::bump(&self.counters.snapshot_retries),
                    None => {}
                }
                prev = Some((sources, key));
            }
            SessionCounters::bump(&self.counters.snapshot_unstable);
            Ok(prev.expect("at least one snapshot pass ran"))
        };
        let outcome = passes();
        self.counters
            .snapshot_files_statted
            .fetch_add(total.statted as u64, Ordering::Relaxed);
        self.counters
            .snapshot_files_read
            .fetch_add(total.read as u64, Ordering::Relaxed);
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

    /// Count and time one request around `f` (joins included): bumps
    /// `serve_requests`, bumps `serve_errors` on failure, and records the
    /// request's trace, which the latency metrics derive from.
    fn tracked<T>(
        &self,
        ctx: &RequestCtx,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, String> {
        let t0 = Instant::now();
        SessionCounters::bump(&self.counters.requests);
        let out = f();
        if out.is_err() {
            SessionCounters::bump(&self.counters.errors);
        }
        let latency_us = t0.elapsed().as_micros() as u64;
        self.finish_request(ctx, out.is_ok(), latency_us);
        out
    }

    /// Close out a completed request: append its ledger line and record
    /// its trace in the live telemetry.
    fn finish_request(&self, ctx: &RequestCtx, ok: bool, latency_us: u64) {
        if let Some(dir) = &self.opts.history_dir {
            let _ = crate::perf::append_request(
                dir,
                &crate::perf::request_record_of(
                    ctx.request_id(),
                    ctx.method(),
                    ok,
                    latency_us,
                    ctx.coalesced(),
                    ctx.run_id(),
                ),
            );
        }
        self.live.record_trace(obs::RequestTrace {
            request_id: ctx.id.clone(),
            method: ctx.method.clone(),
            latency_us,
            outcome: if ok { "ok" } else { "error" }.to_string(),
            coalesced: ctx.coalesced(),
            run_id: ctx.run_id(),
            spans: ctx.rec.snapshot().spans,
        });
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
        let (sources, key, pass) = self.snapshot_sources()?;
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
                Some(f) => {
                    SessionCounters::bump(&self.counters.coalesced);
                    (f.clone(), false)
                }
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
        let outcome = match catch_unwind(AssertUnwindSafe(|| self.lead_run(ctx, &sources, key))) {
            Ok(outcome) => outcome,
            Err(panic) => Err(format!(
                "analysis panicked: {}",
                panic_message(panic.as_ref())
            )),
        };
        if let Ok(handle) = &outcome {
            ctx.set_run_id(&handle.result.run_id);
        }
        // Publish to joiners and retire the flight — later identical
        // requests start a fresh (warm, cheap) run rather than receiving
        // a stale result forever.
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
        let t0 = Instant::now();
        SessionCounters::bump(&self.counters.queue_enqueued);
        let run_span = ctx.rec.open("serve_run");
        let mut engine = self.engine.lock().unwrap_or_else(|e| e.into_inner());
        SessionCounters::bump(&self.counters.queue_dequeued);
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
        SessionCounters::bump(&self.counters.runs);
        let records = finding_records(&result.deviations, &result.sites, &result.files);
        let ledger_error = self.opts.history_dir.as_ref().and_then(|dir| {
            let run_record = crate::history::record_of(&result, &self.opts.config, records.clone());
            let history = crate::history::append(dir, &run_record);
            let perf_record = crate::perf::record_of(&result, &self.opts.config, None);
            history.and(crate::perf::append(dir, &perf_record)).err()
        });
        let handle = Arc::new(RunHandle {
            corpus_key: key,
            result: Arc::new(result),
            records,
            cache_load,
            cache_save_error,
            ledger_error,
        });
        self.publish(&handle, t0.elapsed().as_micros() as u64);
        Ok(handle)
    }

    /// Publish the latest run (which took `run_us`) to the live endpoint:
    /// the engine's per-run snapshot (span totals, not every per-file
    /// span) merged with the session's cumulative counters.
    fn publish(&self, handle: &RunHandle, run_us: u64) {
        let merged = handle
            .result
            .obs
            .totals()
            .with_counters(self.counters.export());
        self.live
            .publish(&merged, handle.records.len() as u64, run_us);
        self.live.set_server_stats(
            self.counters.queue_depth(),
            SessionCounters::get(&self.counters.coalesced),
            SessionCounters::get(&self.counters.requests),
        );
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

    /// `analyze`: the full schema-v3 report — the exact document
    /// `ofence analyze --json` prints for the same snapshot.
    pub fn analyze_document(&self, ctx: &RequestCtx) -> Result<serde_json::Value, String> {
        self.tracked(ctx, || {
            let _span = self.request_span(ctx);
            let handle = self.current_run_inner(ctx)?;
            Ok(handle.result.to_json())
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
            let findings: Vec<&FindingRecord> = handle
                .records
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
            let result = &handle.result;
            let site = result
                .sites
                .iter()
                .find(|s| name_matches(&s.site.file_name, file) && s.site.line == line)
                .ok_or_else(|| format!("no barrier at {file}:{line}"))?;
            let explanation = crate::explain::explain_site_with(
                &result.sites,
                &result.pairing,
                &self.opts.config,
                site.id,
            )
            .expect("site id comes from this result");
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
            let report = crate::diffing::classify(&known, &handle.records);
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
            .counters
            .export()
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
            "queue_depth": self.counters.queue_depth(),
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
    use std::collections::BTreeMap;

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

    #[test]
    fn analyze_document_matches_engine_output() {
        let dir = tempdir("doc");
        std::fs::write(dir.join("m.c"), CLEAN).unwrap();
        let session = session_over(&dir);
        let doc = session.analyze_document(&ctx(&session, "analyze")).unwrap();
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
        let (s1, k1, _) = session.snapshot_sources().unwrap();
        let (_, k2, _) = session.snapshot_sources().unwrap();
        assert_eq!(k1, k2);
        assert_eq!(s1.len(), 1);
        std::fs::write(dir.join("m.c"), format!("{CLEAN}\nint pad;\n")).unwrap();
        let (_, k3, _) = session.snapshot_sources().unwrap();
        assert_ne!(k1, k3);
        // Config changes the key too: same bytes, different analysis.
        let config = AnalysisConfig {
            write_window: 9,
            ..Default::default()
        };
        let other = session_with(&dir, config, None);
        let (_, k4, _) = other.snapshot_sources().unwrap();
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
        let counters: BTreeMap<String, u64> = session.counters.export().into_iter().collect();
        assert_eq!(counters["serve_snapshot_files_statted"], 4);
        assert_eq!(counters["serve_snapshot_files_read"], 4);
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
        assert_eq!(SessionCounters::get(&session.counters.coalesced), 0);
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
        let coalesced = SessionCounters::get(&session.counters.coalesced);
        // Exactly one engine run per distinct run id; every other
        // request joined one of them.
        assert_eq!(
            run_ids.len() as u64 + coalesced,
            8,
            "run_ids={run_ids:?} coalesced={coalesced}"
        );
        assert_eq!(
            SessionCounters::get(&session.counters.runs),
            run_ids.len() as u64
        );
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
        let doc = session.analyze_document(&ctx(&session, "analyze")).unwrap();
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
        assert_eq!(SessionCounters::get(&session.counters.errors), 1);
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
        assert!(!handle.records.is_empty() || handle.result.stats.files_total == 1);
        assert_eq!(SessionCounters::get(&session.counters.coalesced), 0);
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
        assert_eq!(SessionCounters::get(&session.counters.errors), 3);
        assert_eq!(SessionCounters::get(&session.counters.requests), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_is_cheap_and_counts_nothing() {
        let dir = tempdir("status");
        std::fs::write(dir.join("m.c"), CLEAN).unwrap();
        let session = session_over(&dir);
        let status = session.status_document();
        assert_eq!(status["queue_depth"], 0);
        assert_eq!(SessionCounters::get(&session.counters.runs), 0);
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
        assert_eq!(SessionCounters::get(&session.counters.requests), 1);
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
        let coalesced = SessionCounters::get(&session.counters.coalesced);
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
        // Four tracked requests over two methods. The last one fails
        // after its analysis ran, so the final publish precedes its end.
        const N: u64 = 4;
        session.analyze_document(&ctx(&session, "analyze")).unwrap();
        session.analyze_document(&ctx(&session, "analyze")).unwrap();
        session
            .explain_document(&ctx(&session, "explain"), "m.c", 2)
            .unwrap();
        assert!(session
            .explain_document(&ctx(&session, "explain"), "m.c", 999)
            .is_err());
        // One scrape: the all-methods histogram, the per-method
        // histograms, the quantile summaries and `status` all count
        // every completed request.
        let metrics = session.live().metrics_text();
        let value = |name: &str| -> u64 {
            let prefix = format!("{name} ");
            let line = metrics.lines().find_map(|l| l.strip_prefix(&prefix));
            line.unwrap_or_else(|| panic!("no `{name}` in:\n{metrics}"))
                .parse()
                .unwrap()
        };
        assert_eq!(value("ofence_serve_request_duration_us_count"), N);
        let status = session.status_document();
        assert_eq!(status["methods"].as_object().unwrap().len(), 2, "{status}");
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
        assert_eq!(sum, N);
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
        let (records, skipped) = crate::perf::load_requests(&ledger).unwrap();
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
