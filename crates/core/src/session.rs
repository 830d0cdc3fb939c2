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
//! A pass goes through the session's one [`SourceIndex`], which keeps a
//! change journal ([`crate::walk`]): only the session's first pass, and
//! a pass that has to fall back, walks the tree and stats every file.
//! Every other pass drains the journal and re-stats, and if needed reads,
//! only the files its events name; a pass that drains nothing costs one
//! `read(2)` and hands out the same shared corpus, and the corpus key
//! reuses the index's digest, so it hashes nothing either. An edit
//! raises an event that the next pass drains, so the double pass still
//! catches it. Each request reports the files it statted and read as
//! `snapshot_files_statted` / `snapshot_files_read` attributes on its
//! `request` span, and each pass its `mode` (`full` or `journal`) and,
//! when it replaced the journal, the `fallback` reason.
//!
//! Pass 2 may not re-stat only what pass 1 read: that tears snapshots
//! under writers that rewrite files in place. Pass 1 stats A (unchanged),
//! an editor then rewrites A and B, and pass 1 reads the new B.
//! Re-statting only B agrees with pass 1, and the request would return
//! {A_old, B_new}. A full pass 2 sees A's new stamp and retries; so does
//! a journal pass 2, since A's write raised an event after pass 1
//! drained. The journal's watches were added before the walk read each
//! directory, and the kernel queues an event before the write returns,
//! so no write after a file was read goes unseen. Racily clean entries
//! need no re-read on a journal pass for the same reason.
//!
//! ## Seeded index: text only where a phase reads it
//!
//! A new session seeds its index from the disk cache it loaded
//! ([`crate::walk::SourceIndex::seeded`]), so even its first pass stats
//! rather than reads. It seeds every entry with a stamp whose analysis
//! holds no site, and nothing under `detect_missing`, whose detector
//! parses every file. A seeded file carries its cached hash and no text.
//! The snapshot therefore holds the text of every file a phase reads:
//! site-holding files (patches, annotations, suppressions and finding
//! records read their lines), files the run re-analyzes (their stamp
//! changed, so the pass read them), and under `--missing` every file. No
//! phase loads text later, and the run stays a pure function of the
//! snapshot. The one exception is a race: another request's run may
//! evict an unread file's entry after this snapshot was taken, if the
//! file left that run's snapshot. The engine then reads the file when
//! its lookup misses and checks its hash, failing the request if the
//! file changed.
//!
//! A seeded entry is read when its stamp changed or it is racily clean
//! against the read time the cache recorded, not against the save time:
//! the save comes later, so it would trust writes that landed between
//! the read and the save. If any recorded read time lies in the future,
//! the clock stepped back, and the session seeds nothing.
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
use crate::json::{RowMemo, Text};
use crate::ledger::Record;
use crate::walk::{Corpus, PassStats, SourceIndex};
use std::borrow::Cow;
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

/// Where a request's answer goes: the daemon passes one per request,
/// which writes the reply around the method's document (`Ok`) or its
/// error message (`Err`) to the connection. The session calls it inside
/// the request, under a `send` span, so the request's latency, trace and
/// ledger line end with the last byte written.
pub type ReplyTo<'a> = &'a mut dyn FnMut(Result<&Text, &str>);

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
const COUNTERS: [&str; 10] = [
    "serve_requests",
    "serve_errors",
    "serve_coalesced",
    "serve_queue_enqueued",
    "serve_queue_dequeued",
    "serve_snapshot_retries",
    "serve_snapshot_unstable",
    // Files statted / read by snapshot passes: every request's, and the
    // key-only passes of `snapshot_key` (`serve` start-up, `watch` polls).
    "serve_snapshot_files_statted",
    "serve_snapshot_files_read",
    // Snapshot passes that walked the tree instead of draining the
    // journal: a session's first, and every fallback.
    "serve_snapshot_full_passes",
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
    /// The `files` rows of the last `analyze` reply, which the next one
    /// reuses where the records did not change.
    rows: Mutex<RowMemo>,
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
    /// discarded; the first run reports that as its `cache_load`. The
    /// snapshot index is seeded from the loaded entries whose text no
    /// phase reads (see module docs).
    pub fn with_engine(opts: SessionOptions, mut engine: Engine) -> Session {
        let cache_load = opts
            .cache_dir
            .as_ref()
            .map(|dir| engine.load_disk_cache(dir));
        let index = if opts.config.detect_missing {
            SourceIndex::default()
        } else {
            SourceIndex::seeded(engine.cache.seeds(crate::walk::wall_clock_ns()))
        };
        let index = index.journaled();
        let live = Arc::new(obs::Live::new());
        for name in COUNTERS {
            live.count(name, 0);
        }
        Session {
            opts,
            engine: Mutex::new(engine),
            cache_load: Mutex::new(cache_load),
            index: Mutex::new(index),
            inflight: Mutex::new(HashMap::new()),
            rows: Mutex::new(RowMemo::default()),
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
    /// sources with their layout id, the snapshot key (corpus hash ⊕
    /// config fingerprint), and the files the passes statted and read,
    /// all passes together. `rec` gets a `snapshot` span, the wait for the
    /// index included, with one `snapshot_pass` child per pass.
    fn snapshot_sources(
        &self,
        rec: &obs::Recorder,
    ) -> Result<(Arc<Corpus>, u64, PassStats), String> {
        let _span = rec.span("snapshot");
        let mut index = self.index.lock().unwrap_or_else(|e| e.into_inner());
        let mut total = PassStats::default();
        let mut passes = || {
            let mut last: Option<(Arc<Corpus>, u64)> = None;
            for _ in 0..SNAPSHOT_ATTEMPTS {
                // Let go of the last pass's corpus first, so the index
                // updates it in place instead of copying it.
                let prev_key = last.take().map(|(_, key)| key);
                let _pass = rec.span("snapshot_pass");
                let (sources, pass) = index.refresh(&self.opts.paths)?;
                let (statted, read) = (pass.statted.to_string(), pass.read.to_string());
                let mode = if pass.journal { "journal" } else { "full" };
                let mut attrs = vec![("statted", &*statted), ("read", &*read), ("mode", mode)];
                attrs.extend(pass.fallback.map(|reason| ("fallback", reason)));
                rec.annotate("snapshot_pass", &attrs);
                self.count_pass(&pass);
                total.statted += pass.statted;
                total.read += pass.read;
                let key = self.key(&index, &sources);
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
        passes().map(|(sources, key)| (sources, key, total))
    }

    /// Add one snapshot pass to the `serve_snapshot_*` counters.
    fn count_pass(&self, pass: &PassStats) {
        if !pass.journal {
            self.live.count("serve_snapshot_full_passes", 1);
        }
        let live = &self.live;
        live.count("serve_snapshot_files_statted", pass.statted as u64);
        live.count("serve_snapshot_files_read", pass.read as u64);
    }

    /// One stat-first pass over the corpus, without analyzing: the key a
    /// run would get if nothing changes meanwhile. A poller compares it
    /// with the last [`RunHandle::corpus_key`] to decide when to re-run.
    pub fn snapshot_key(&self) -> Result<u64, String> {
        let mut index = self.index.lock().unwrap_or_else(|e| e.into_inner());
        let (sources, pass) = index.refresh(&self.opts.paths)?;
        self.count_pass(&pass);
        Ok(self.key(&index, &sources))
    }

    /// The corpus key of `sources`, the corpus of `index`'s last pass,
    /// from the digest the index keeps current: no pass but a walk
    /// hashes the whole corpus for it.
    fn key(&self, index: &SourceIndex, sources: &[SourceFile]) -> u64 {
        let key = key_of(index.digest(), &self.opts.config);
        debug_assert_eq!(key, corpus_key(sources, &self.opts.config));
        key
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

    /// Run one request around `f` (joins included) under its `request`
    /// span, hand the outcome to `send` inside that span, then finish the
    /// request: build its one trace, append the ledger line derived from
    /// it, and record it in the live telemetry, which counts the request
    /// and derives its latency metrics. A request is counted when it
    /// completes, after its reply was sent.
    fn tracked<T>(
        &self,
        ctx: &RequestCtx,
        f: impl FnOnce() -> Result<T, String>,
        send: impl FnOnce(&Result<T, String>),
    ) -> Result<T, String> {
        let t0 = Instant::now();
        let out = {
            let _span = self.request_span(ctx);
            let out = f();
            send(&out);
            out
        };
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

    /// [`Self::tracked`] for a method with a document to answer: the
    /// outcome goes through `reply`, when there is one, under a `send`
    /// span.
    fn answered<T: Answer>(
        &self,
        ctx: &RequestCtx,
        reply: Option<ReplyTo<'_>>,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, String> {
        self.tracked(ctx, f, |out| {
            let Some(reply) = reply else { return };
            let text = out.as_ref().map(|doc| doc.text(&ctx.rec));
            let _span = ctx.rec.span("send");
            match &text {
                Ok(text) => reply(Ok(&**text)),
                Err(message) => reply(Err(message.as_str())),
            }
        })
    }

    /// The current analysis of the watched corpus: snapshot, coalesce,
    /// run. Every analysis-backed method funnels through here.
    pub fn current_run(&self) -> Result<Arc<RunHandle>, String> {
        let ctx = self.begin_request("analyze", None);
        self.tracked(&ctx, || self.current_run_inner(&ctx), |_| {})
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

    /// Run the engine over a snapshot (leader side of a flight). The
    /// `serve_run` span has three children: `engine_lock` (the wait for
    /// the engine), `engine` (the run: its cache lookups, the files it
    /// analyzed, and whether it reused, ran or bypassed the global phases)
    /// and `cache_save` (the save and the event sinks' flush).
    fn lead_run(
        &self,
        ctx: &RequestCtx,
        sources: &Corpus,
        key: u64,
    ) -> Result<Arc<RunHandle>, String> {
        #[cfg(test)]
        if self.panic_next_lead.swap(false, Ordering::SeqCst) {
            panic!("injected lead_run panic");
        }
        self.live.count("serve_queue_enqueued", 1);
        let run_span = ctx.rec.span("serve_run");
        let mut engine = {
            let _span = ctx.rec.span("engine_lock");
            self.engine.lock().unwrap_or_else(|e| e.into_inner())
        };
        self.live.count("serve_queue_dequeued", 1);
        let cache_load = self
            .cache_load
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        let result = {
            let _span = ctx.rec.span("engine");
            // A failed run still ends the event streams whole, its `analyze` span closed.
            let result = engine.analyze_snapshot(sources).inspect_err(|_| {
                engine.recorder().flush_sinks();
            })?;
            let counter = |name| result.obs.count_of(name).to_string();
            ctx.rec.annotate(
                "engine",
                &[
                    ("lookups", &counter("engine_cache_lookups")),
                    ("analyzed", &counter("engine_files_analyzed")),
                    ("global", engine.global_phases(&result)),
                ],
            );
            result
        };
        let cache_save_error = {
            let _span = ctx.rec.span("cache_save");
            // A full disk is not a failed analysis: the result stands,
            // the next save retries the dirty shards.
            let saved =
                (self.opts.cache_dir.as_ref()).and_then(|dir| engine.save_disk_cache(dir).err());
            // Event streams end every run on a line boundary, so a
            // consumer tailing one (or a driver killed between runs) sees
            // whole events.
            engine.recorder().flush_sinks();
            saved
        };
        drop(engine);
        drop(run_span);
        let ledger_span = ctx.rec.span("ledger");
        let ledger_error = self.opts.history_dir.as_ref().and_then(|dir| {
            let records = result.deviation_records.to_vec();
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
    /// rendered inside the request (its `render` span), the `files` rows
    /// reused from the last reply where their records did not change.
    pub fn analyze_document(
        &self,
        ctx: &RequestCtx,
        reply: Option<ReplyTo<'_>>,
    ) -> Result<Text, String> {
        self.answered(ctx, reply, || {
            let handle = self.current_run_inner(ctx)?;
            let text = self.render_report(ctx, &handle.result);
            // The last request to let go of a run frees it: inside the span.
            drop(handle);
            Ok(text)
        })
    }

    /// `result`'s report as [`Text`] under a `render` span, whose
    /// `rows_reused` / `rows_rendered` attributes count the `files` rows
    /// taken from the session's memo and rendered anew.
    fn render_report(&self, ctx: &RequestCtx, result: &AnalysisResult) -> Text {
        let _render = ctx.rec.span("render");
        let (text, rows) = result.report().to_text(&self.rows);
        ctx.rec.annotate(
            "render",
            &[
                ("rows_reused", &rows.reused.to_string()),
                ("rows_rendered", &rows.rendered.to_string()),
            ],
        );
        text
    }

    /// `analyze-file`: the slice of the current run belonging to one
    /// file (exact name, or unambiguous path suffix).
    pub fn analyze_file_document(
        &self,
        ctx: &RequestCtx,
        file: &str,
        reply: Option<ReplyTo<'_>>,
    ) -> Result<serde_json::Value, String> {
        self.answered(ctx, reply, || {
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
        reply: Option<ReplyTo<'_>>,
    ) -> Result<serde_json::Value, String> {
        self.answered(ctx, reply, || {
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
        reply: Option<ReplyTo<'_>>,
    ) -> Result<serde_json::Value, String> {
        self.answered(ctx, reply, || {
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
        reply: Option<ReplyTo<'_>>,
    ) -> Result<serde_json::Value, String> {
        self.answered(ctx, reply, || {
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

/// A method's document, as the text a reply sends.
trait Answer {
    fn text(&self, rec: &obs::Recorder) -> Cow<'_, Text>;
}

/// The `analyze` report, rendered inside the method.
impl Answer for Text {
    fn text(&self, _: &obs::Recorder) -> Cow<'_, Text> {
        Cow::Borrowed(self)
    }
}

/// A tree document, rendered for the reply under a `render` span.
impl Answer for serde_json::Value {
    fn text(&self, rec: &obs::Recorder) -> Cow<'_, Text> {
        let _span = rec.span("render");
        let text = serde_json::to_string(self).expect("document serializes");
        Cow::Owned(text.into())
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

/// The coalescing key: the [`crate::walk::digest`] of every `(path,
/// content hash)` pair, extended by the config fingerprint. Two requests
/// share a key iff they observe the same corpus bytes under the same
/// analysis configuration. Each file's hash was computed when it was
/// read, so the key costs O(paths) from scratch.
pub fn corpus_key(sources: &[SourceFile], config: &AnalysisConfig) -> u64 {
    key_of(crate::walk::digest(sources), config)
}

/// The corpus key of a corpus whose [`crate::walk::digest`] is `digest`.
fn key_of(digest: u64, config: &AnalysisConfig) -> u64 {
    cache::fnv1a_extend(digest, &cache::config_fingerprint(config).to_le_bytes())
}

#[cfg(test)]
pub(crate) mod tests {
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

    pub(super) fn counter(session: &Session, name: &str) -> u64 {
        session.live().counters()[name]
    }

    #[test]
    fn analyze_document_matches_engine_output() {
        let dir = tempdir("doc");
        std::fs::write(dir.join("m.c"), CLEAN).unwrap();
        let session = session_over(&dir);
        let text = session
            .analyze_document(&ctx(&session, "analyze"), None)
            .unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text.joined()).unwrap();
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
        session
            .analyze_document(&ctx(&session, "analyze"), None)
            .unwrap();
        let doc = session.trace_document("r000001").unwrap();
        let attrs = &doc["spans"][0]["attrs"];
        // A full pass stats and reads both files and arms the journal; the
        // second pass drains it, finds nothing and stats nothing, though
        // both files were written moments before the first pass read them.
        assert_eq!(attrs["snapshot_files_statted"], "2", "{doc}");
        assert_eq!(attrs["snapshot_files_read"], "2", "{doc}");
        let passes = &doc["spans"][0]["children"][0]["children"];
        assert_eq!(passes[0]["attrs"]["mode"], "full", "{doc}");
        assert_eq!(passes[1]["attrs"]["mode"], "journal", "{doc}");
        assert_eq!(passes[1]["attrs"]["statted"], "0", "{doc}");
        assert_eq!(counter(&session, "serve_snapshot_files_statted"), 2);
        assert_eq!(counter(&session, "serve_snapshot_files_read"), 2);
        assert_eq!(counter(&session, "serve_snapshot_full_passes"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Backdate `path`'s mtime past the racy window, so that a new
    /// session trusts its stamp.
    pub(super) fn age(path: &Path) {
        let old = std::time::SystemTime::now() - std::time::Duration::from_secs(3600);
        let file = std::fs::File::options().write(true).open(path).unwrap();
        file.set_modified(old).unwrap();
    }

    /// A session over `dir` that keeps its cache in `cache`.
    fn cached_session(dir: &Path, cache: &Path, config: AnalysisConfig) -> Session {
        Session::new(SessionOptions {
            config,
            paths: vec![dir.display().to_string()],
            cache_dir: Some(cache.to_path_buf()),
            history_dir: None,
        })
    }

    /// A tree of one file with two sites and four site-free files, all
    /// aged past the racy window, under `root/src`, and a cache in
    /// `root/cache` that one session run primed.
    fn primed(tag: &str, config: &AnalysisConfig) -> (PathBuf, PathBuf, PathBuf) {
        let root = tempdir(tag);
        let (dir, cache) = (root.join("src"), root.join("cache"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("m.c"), CLEAN).unwrap();
        for i in 0..4 {
            let text = format!("int h{i}(int x) {{ return x + {i}; }}\n");
            std::fs::write(dir.join(format!("h{i}.c")), text).unwrap();
        }
        for entry in std::fs::read_dir(&dir).unwrap() {
            age(&entry.unwrap().path());
        }
        cached_session(&dir, &cache, config.clone())
            .current_run()
            .unwrap();
        (root, dir, cache)
    }

    /// A report with its run id, timings and counters nulled.
    pub(crate) fn scrubbed(result: &AnalysisResult) -> serde_json::Value {
        scrub(result.to_json())
    }

    /// `doc`, a report, with its run id, timings and counters nulled.
    pub(super) fn scrub(mut doc: serde_json::Value) -> serde_json::Value {
        if let serde_json::Value::Object(map) = &mut doc {
            for key in ["run_id", "stats", "observability"] {
                map.insert(key.to_string(), serde_json::Value::Null);
            }
        }
        doc
    }

    /// A cold analysis of the tree under `dir`.
    fn cold(dir: &Path, config: &AnalysisConfig) -> AnalysisResult {
        let sources = crate::walk::collect_sources(&[dir.display().to_string()]).unwrap();
        Engine::new(config.clone()).analyze(&sources)
    }

    /// The first request of a new session over `dir` and `cache`: checks
    /// that its report equals a cold analysis, and returns how many files
    /// its snapshot read.
    fn restart(dir: &Path, cache: &Path, config: &AnalysisConfig) -> u64 {
        let session = cached_session(dir, cache, config.clone());
        let served = session.current_run().unwrap();
        assert_eq!(scrubbed(&served.result), scrubbed(&cold(dir, config)));
        counter(&session, "serve_snapshot_files_read")
    }

    #[test]
    fn restarted_session_reads_only_site_holding_files() {
        let config = AnalysisConfig::default();
        let (root, dir, cache) = primed("restart", &config);
        assert_eq!(restart(&dir, &cache, &config), 1, "only m.c holds a site");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn restarted_session_under_missing_reads_every_file() {
        let config = AnalysisConfig {
            detect_missing: true,
            ..Default::default()
        };
        let (root, dir, cache) = primed("restart-missing", &config);
        assert_eq!(restart(&dir, &cache, &config), 5);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A file written moments before the priming run read it is racily
    /// clean in the cache, so a new session's full first pass reads it;
    /// the journal pass after it does not.
    #[test]
    fn racily_clean_entry_is_reread_after_a_restart() {
        let config = AnalysisConfig::default();
        let root = tempdir("restart-racy");
        let (dir, cache) = (root.join("src"), root.join("cache"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("h.c"), "int h(int x) { return x; }\n").unwrap();
        age(&dir.join("h.c"));
        std::fs::write(dir.join("racy.c"), "int r(int x) { return x; }\n").unwrap();
        cached_session(&dir, &cache, config.clone())
            .current_run()
            .unwrap();
        assert_eq!(restart(&dir, &cache, &config), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The same names over new inodes: every stamp differs, so every
    /// file is read, and the cache records the new stamps.
    #[test]
    fn cache_beside_a_copy_of_the_tree_reads_every_file() {
        let config = AnalysisConfig::default();
        let (root, dir, cache) = primed("restart-copy", &config);
        let original = root.join("original");
        std::fs::rename(&dir, &original).unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(&original).unwrap() {
            let from = entry.unwrap().path();
            let to = dir.join(from.file_name().unwrap());
            std::fs::copy(&from, &to).unwrap();
            age(&to);
        }
        assert_eq!(restart(&dir, &cache, &config), 5);
        assert_eq!(restart(&dir, &cache, &config), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A read time after the present means the clock stepped back: the
    /// session seeds nothing and reads every file.
    #[test]
    fn future_read_time_seeds_nothing() {
        let config = AnalysisConfig::default();
        let (root, dir, cache) = primed("restart-future", &config);
        let shard = cache.join(cache::shard_file_name(cache::shard_of(
            &dir.join("h0.c").display().to_string(),
        )));
        let text = std::fs::read_to_string(&shard).unwrap();
        let at = text.find("\"stamp\":[").unwrap();
        let end = at + text[at..].find(']').unwrap();
        let last = at + text[at..end].rfind(',').unwrap();
        // The read time becomes ~32 years after the mtime.
        let offset = 1_000_000_000_000_000_000i64;
        let future = format!("{}{offset}{}", &text[..=last], &text[end..]);
        std::fs::write(&shard, future).unwrap();
        assert_eq!(restart(&dir, &cache, &config), 5);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A restarted session serves an unchanged site-free record as the
    /// cached `Arc` itself on every request: no text is written into it.
    #[test]
    fn restarted_session_shares_unchanged_site_free_records() {
        let config = AnalysisConfig::default();
        let (root, dir, cache) = primed("restart-shared", &config);
        let session = cached_session(&dir, &cache, config);
        let first = session.current_run().unwrap();
        let second = session.current_run().unwrap();
        let pairs = first.result.files.iter().zip(&second.result.files);
        let site_free: Vec<_> = pairs.filter(|(a, _)| a.sites.is_empty()).collect();
        assert_eq!(site_free.len(), 4);
        for (a, b) in site_free {
            assert!(Arc::ptr_eq(a, b), "{}", a.name);
            assert!(a.source.is_empty(), "{} was not read", a.name);
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A `touch` of a site-free file between two runs of one session
    /// changes its slot, not its hash. The second run reuses every other
    /// position unlooked-up, but looks the touched file up, so its new
    /// stamp reaches the cache: its shard is rewritten, and a restarted
    /// session reads only the site holder.
    #[test]
    fn touched_file_is_looked_up_and_its_stamp_saved() {
        let config = AnalysisConfig::default();
        let (root, dir, cache) = primed("touch-reuse", &config);
        let session = cached_session(&dir, &cache, config.clone());
        let first = session.current_run().unwrap();
        assert_eq!(first.result.obs.count_of("engine_cache_lookups"), 5);
        let touched = dir.join("h0.c");
        let shard = cache.join(cache::shard_file_name(cache::shard_of(
            &touched.display().to_string(),
        )));
        let inode = || std::os::unix::fs::MetadataExt::ino(&std::fs::metadata(&shard).unwrap());
        let before = inode();
        let a_minute_ago = std::time::SystemTime::now() - std::time::Duration::from_secs(60);
        let file = std::fs::File::options().write(true).open(&touched).unwrap();
        file.set_modified(a_minute_ago).unwrap();
        let second = session.current_run().unwrap();
        assert_eq!(first.corpus_key, second.corpus_key);
        assert_eq!(second.result.obs.count_of("engine_cache_lookups"), 1);
        assert_eq!(second.result.obs.count_of("engine_cache_hits"), 5);
        assert_ne!(
            inode(),
            before,
            "the touched file's shard was not rewritten"
        );
        drop(session);
        assert_eq!(restart(&dir, &cache, &config), 1, "only m.c holds a site");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A snapshot holds an unread file whose cache entry a run evicted
    /// after the snapshot was taken: the file is read at run time, and
    /// a file that changed meanwhile fails the request.
    #[test]
    fn evicted_unread_file_is_read_at_run_time() {
        let config = AnalysisConfig::default();
        let (root, dir, cache) = primed("restart-evicted", &config);
        let session = cached_session(&dir, &cache, config.clone());
        let rec = obs::Recorder::new();
        let (sources, key, _) = session.snapshot_sources(&rec).unwrap();
        let evict = |name: &str| {
            let mut engine = session.engine.lock().unwrap();
            engine.cache.retain(|path| !path.ends_with(name));
        };
        evict("h0.c");
        let ctx = ctx(&session, "analyze");
        let served = session.lead_run(&ctx, &sources, key).unwrap();
        assert_eq!(scrubbed(&served.result), scrubbed(&cold(&dir, &config)));
        evict("h1.c");
        std::fs::write(dir.join("h1.c"), "int h1;\n").unwrap();
        let err = session.lead_run(&ctx, &sources, key).err().unwrap();
        assert!(err.contains("h1.c: changed during the request"), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A run that fails on an evicted file that changed leaves no trace
    /// half done: the event stream is flushed with the engine's `analyze`
    /// span closed, and the counts queued by the last save reach the next
    /// run that succeeds.
    #[test]
    fn failed_run_closes_its_span_and_keeps_queued_counts() {
        #[derive(Clone, Default)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let config = AnalysisConfig::default();
        let (root, dir, cache) = primed("failed-run", &config);
        let session = cached_session(&dir, &cache, config.clone());
        let evict = |name: &str| {
            let mut engine = session.engine.lock().unwrap();
            engine.cache.retain(|path| !path.ends_with(name));
        };
        session.current_run().unwrap();
        // The run after this eviction writes h0.c's shard again.
        evict("h0.c");
        session.current_run().unwrap();
        let out = Shared::default();
        let sink = obs::NdjsonSink::new(std::io::BufWriter::new(out.clone()));
        (session.engine.lock().unwrap().recorder()).add_sink(Arc::new(sink));
        let rec = obs::Recorder::new();
        let (sources, key, _) = session.snapshot_sources(&rec).unwrap();
        evict("h1.c");
        std::fs::write(dir.join("h1.c"), "int h1;\n").unwrap();
        let ctx = ctx(&session, "analyze");
        assert!(session.lead_run(&ctx, &sources, key).is_err());
        let events = String::from_utf8(out.0.lock().unwrap().clone()).unwrap();
        assert!(events.ends_with('\n'), "{events}");
        let analyze_spans = |ev: &str| {
            let ev = format!("\"ev\":\"{ev}\"");
            (events.lines())
                .filter(|l| l.contains(&ev) && l.contains("\"name\":\"analyze\""))
                .count()
        };
        assert_eq!(analyze_spans("span_open"), 1, "{events}");
        assert_eq!(analyze_spans("span_close"), 1, "{events}");
        let next = session.current_run().unwrap();
        assert_eq!(scrubbed(&next.result), scrubbed(&cold(&dir, &config)));
        assert_eq!(next.result.obs.count_of("cache_shards_written"), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A site-free file edited during a session is racily clean when the
    /// run caches it. A run after the racy window settles its slot and
    /// writes its shard, so a restarted session trusts the file's stamp
    /// and reads only the site holder. So with the journal, and with
    /// every pass a full one.
    #[test]
    fn settled_read_time_reaches_the_cache() {
        let config = AnalysisConfig::default();
        let trees = [("settle-journal", false), ("settle-full", true)].map(|(tag, full)| {
            let (root, dir, cache) = primed(tag, &config);
            let session = cached_session(&dir, &cache, config.clone());
            session.index.lock().unwrap().expire_journals = full;
            std::fs::write(dir.join("h0.c"), "int h0(int x) { return x * 2; }\n").unwrap();
            session.current_run().unwrap();
            (root, dir, cache, session)
        });
        std::thread::sleep(std::time::Duration::from_millis(2100));
        for (root, dir, cache, session) in trees {
            session.current_run().unwrap();
            drop(session);
            assert_eq!(restart(&dir, &cache, &config), 1, "only m.c holds a site");
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    /// A lost journal (here a forced queue overflow) makes the next pass
    /// a full one: its span says why, and the session counts it.
    #[test]
    fn overflow_forces_a_counted_full_pass() {
        let dir = tempdir("overflow");
        std::fs::write(dir.join("m.c"), CLEAN).unwrap();
        let session = session_over(&dir);
        session.current_run().unwrap();
        assert_eq!(counter(&session, "serve_snapshot_full_passes"), 1);
        session.index.lock().unwrap().overflow_next = true;
        std::fs::write(dir.join("m.c"), format!("{CLEAN}\nint pad;\n")).unwrap();
        let served = session.current_run().unwrap();
        assert_eq!(
            scrubbed(&served.result),
            scrubbed(&cold(&dir, &AnalysisConfig::default()))
        );
        assert_eq!(counter(&session, "serve_snapshot_full_passes"), 2);
        let doc = session.trace_document("r000002").unwrap();
        let passes = &doc["spans"][0]["children"][0]["children"];
        let attrs = &passes[0]["attrs"];
        assert_eq!(attrs["mode"], "full", "{doc}");
        assert_eq!(attrs["fallback"], "overflow", "{doc}");
        assert_eq!(passes[1]["attrs"]["mode"], "journal", "{doc}");
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
            .explain_document(&ctx(&session, "explain"), "m.c", 2, None)
            .unwrap();
        assert!(explanation["target"].is_object(), "{explanation}");
        let slice = session
            .analyze_file_document(&ctx(&session, "analyze-file"), "m.c", None)
            .unwrap();
        assert_eq!(slice["barriers"], 2);
        assert!(session
            .explain_document(&ctx(&session, "explain"), "m.c", 999, None)
            .is_err());
        assert!(session
            .analyze_file_document(&ctx(&session, "analyze-file"), "nope.c", None)
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
            .diff_document(&ctx(&session, "diff"), &a, &b, None)
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
                None,
            )
            .unwrap();
        assert_eq!(out["pass"], false, "{out}");
        // Baseline = current findings: nothing new, the gate passes.
        let text = session
            .analyze_document(&ctx(&session, "analyze"), None)
            .unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text.joined()).unwrap();
        let out = session
            .baseline_gate_document(
                &ctx(&session, "baseline-gate"),
                &doc,
                crate::diffing::FailOn::New,
                None,
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
            .analyze_file_document(&ctx(&session, "analyze-file"), "nope.c", None)
            .is_err());
        assert!(session
            .explain_document(&ctx(&session, "explain"), "m.c", 999, None)
            .is_err());
        let bad = serde_json::json!({ "findings": "not-a-list" });
        assert!(session
            .baseline_gate_document(
                &ctx(&session, "baseline-gate"),
                &bad,
                crate::diffing::FailOn::New,
                None
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
        session.analyze_document(&ctx, None).unwrap();
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
        session
            .analyze_document(&ctx(&session, "analyze"), None)
            .unwrap();
        session
            .analyze_document(&ctx(&session, "analyze"), None)
            .unwrap();
        session
            .explain_document(&ctx(&session, "explain"), "m.c", 2, None)
            .unwrap();
        assert!(session
            .explain_document(&ctx(&session, "explain"), "m.c", 999, None)
            .is_err());
        assert!(session
            .diff_document(&ctx(&session, "diff"), "a", "b", None)
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
        session
            .analyze_document(&ctx(&session, "analyze"), None)
            .unwrap();
        assert!(session
            .analyze_file_document(&ctx(&session, "analyze-file"), "nope.c", None)
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
    use super::tests::{age, counter, scrub, scrubbed};
    use super::*;
    use crate::json::ROWS_PER_RUN;
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
        /// Rewrite a file in place at the same length, then put its old
        /// mtime back: only the ctime shows the change.
        RewriteSameSize(usize),
        /// Drop the session and open a new one over the same cache.
        Restart,
        /// Add a file whose path sorts before every other one.
        AddFirst(usize),
        /// Put a call after a file's first write barrier, or take it out
        /// again: an edit inside the barrier's window.
        WindowEdit(usize),
        /// Add a barrier call at the top of a file's first function body,
        /// or remove it again.
        ToggleBarrier(usize),
        /// Put an `ofence-ignore` comment above a file's first read
        /// barrier's line, or remove it again.
        ToggleIgnore(usize),
        /// Append a function to a file with no barrier call.
        EditSiteFree(usize),
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0usize..8, 0usize..TEXTS.len()).prop_map(|(f, t)| Step::Edit(f, t)),
            (0usize..TEXTS.len()).prop_map(Step::Add),
            (0usize..8).prop_map(Step::Delete),
            (0usize..8).prop_map(Step::Rename),
            (0usize..8).prop_map(Step::RewriteSameSize),
            Just(Step::Restart),
            (0usize..8).prop_map(Step::WindowEdit),
            (0usize..8).prop_map(Step::ToggleBarrier),
            (0usize..8).prop_map(Step::ToggleIgnore),
            (0usize..8).prop_map(Step::EditSiteFree),
        ]
    }

    /// `text` with `with` in place of the first `what`, or `what` in place
    /// of the first `with`: a step that a second application undoes.
    fn toggle(text: &str, what: &str, with: &str) -> String {
        if text.contains(with) {
            text.replacen(with, what, 1)
        } else {
            text.replacen(what, with, 1)
        }
    }

    /// `text` with an `ofence-ignore` line above its first `smp_rmb` line,
    /// or without the one it has.
    fn toggle_ignore(text: &str) -> String {
        const IGNORE: &str = "/* ofence-ignore */\n";
        match text.find("smp_rmb") {
            _ if text.contains(IGNORE) => text.replacen(IGNORE, "", 1),
            Some(at) => {
                let line = text[..at].rfind('\n').map_or(0, |i| i + 1);
                format!("{}{IGNORE}{}", &text[..line], &text[line..])
            }
            None => text.to_string(),
        }
    }

    fn set_mtime(path: &std::path::Path, mtime: std::time::SystemTime) {
        let file = std::fs::File::options().write(true).open(path).unwrap();
        file.set_modified(mtime).unwrap();
    }

    /// `text` changed at one place, at the same length: a read fence
    /// becomes a write fence and back, or else the first letter flips
    /// case.
    fn same_size_change(text: &str) -> String {
        if text.contains("smp_rmb") {
            text.replacen("smp_rmb", "smp_wmb", 1)
        } else if text.contains("smp_wmb") {
            text.replacen("smp_wmb", "smp_rmb", 1)
        } else {
            let mut bytes = text.as_bytes().to_vec();
            bytes[0] ^= 0x20;
            String::from_utf8(bytes).unwrap()
        }
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
            Step::Edit(f, t) => {
                let file = &files[f % files.len()];
                std::fs::write(file, TEXTS[t]).unwrap();
                age(file);
            }
            Step::Add(t) => {
                std::fs::write(&fresh, TEXTS[t]).unwrap();
                age(&fresh);
            }
            // Never empty the corpus: an empty tree is an error, not a report.
            Step::Delete(f) if files.len() > 1 => {
                std::fs::remove_file(&files[f % files.len()]).unwrap()
            }
            Step::Delete(_) => {}
            Step::Rename(f) => std::fs::rename(&files[f % files.len()], fresh).unwrap(),
            Step::RewriteSameSize(f) => {
                let file = &files[f % files.len()];
                let mtime = std::fs::metadata(file).unwrap().modified().unwrap();
                let text = same_size_change(&std::fs::read_to_string(file).unwrap());
                // Let the clock move past the ctime the last pass saw.
                std::thread::sleep(std::time::Duration::from_millis(20));
                std::fs::write(file, text).unwrap();
                set_mtime(file, mtime);
            }
            Step::Restart => {}
            Step::AddFirst(t) => {
                let first = dir.join(format!("a{serial}.c"));
                std::fs::write(&first, TEXTS[t]).unwrap();
                age(&first);
            }
            Step::WindowEdit(f) => rewrite(&files[f % files.len()], |text| {
                toggle(text, "smp_wmb();", "smp_wmb(); kick();")
            }),
            Step::ToggleBarrier(f) => rewrite(&files[f % files.len()], |text| {
                toggle(text, ") { ", ") { smp_mb(); ")
            }),
            Step::ToggleIgnore(f) => rewrite(&files[f % files.len()], toggle_ignore),
            Step::EditSiteFree(f) => {
                let read = |file: &PathBuf| std::fs::read_to_string(file).unwrap();
                let free: Vec<&PathBuf> =
                    files.iter().filter(|p| !read(p).contains("smp_")).collect();
                if let Some(file) = free.get(f % free.len().max(1)) {
                    let added = format!("int sf{serial}(void) {{ return {serial}; }}\n");
                    rewrite(file, |text| format!("{text}{added}"));
                }
            }
        }
    }

    /// Rewrite `file` through `edit`, and age it.
    fn rewrite(file: &std::path::Path, edit: impl Fn(&str) -> String) {
        let text = std::fs::read_to_string(file).unwrap();
        std::fs::write(file, edit(&text)).unwrap();
        age(file);
    }

    /// Name and text of each site-holding record, in corpus order.
    fn holders(result: &AnalysisResult) -> Vec<(String, Arc<str>)> {
        (result.files.iter())
            .filter(|fa| !fa.sites.is_empty())
            .map(|fa| (fa.name.clone(), fa.source.clone()))
            .collect()
    }

    /// The counters the global phases emit: what a run that reuses their
    /// outputs must replay.
    fn decision_counters(obs: &obs::Snapshot) -> Vec<(&String, &u64)> {
        let phase = |name: &str| {
            [
                "pair",
                "check_",
                "barriers_",
                "suppressed",
                "patches_",
                "annotations_",
            ]
            .iter()
            .any(|prefix| name.starts_with(prefix))
        };
        obs.counters
            .iter()
            .filter(|(name, _)| phase(name))
            .collect()
    }

    /// Whatever the edit history, restarts included, and composition
    /// depth, a session's report equals a cold analysis of the tree, and
    /// its dirty-shard saves leave a cache that a new engine hits on every
    /// file. Files are aged past the racy window, so a restarted session
    /// takes their hashes from the cache unread. `full_passes` makes every
    /// pass after a session's first fall back from the journal to a walk.
    fn runs_match_cold_analysis(
        steps: Vec<Step>,
        ipa_depth: u32,
        full_passes: bool,
    ) -> Result<(), TestCaseError> {
        let root = std::env::temp_dir().join(format!(
            "ofence-session-props-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let (dir, cache_dir) = (root.join("src"), root.join("cache"));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        for (i, text) in TEXTS.iter().enumerate() {
            let file = dir.join(format!("f{i}.c"));
            std::fs::write(&file, text).unwrap();
            age(&file);
        }
        let config = AnalysisConfig {
            ipa_depth,
            ..Default::default()
        };
        let paths = vec![dir.display().to_string()];
        let open = || {
            let session = Session::new(SessionOptions {
                config: config.clone(),
                paths: paths.clone(),
                cache_dir: Some(cache_dir.clone()),
                history_dir: None,
            });
            session.index.lock().unwrap().expire_journals = full_passes;
            session
        };
        let mut session = open();
        let mut last = session.current_run().unwrap();
        let mut serial = 0;
        for step in steps {
            let names = corpus_files(&dir);
            apply(&dir, step, &mut serial);
            if let Step::Restart = step {
                drop(session);
                session = open();
            }
            let ctx = session.begin_request("analyze", None);
            let served = session.current_run_inner(&ctx).unwrap();
            let reply = session.render_report(&ctx, &served.result).joined();
            let sources = crate::walk::collect_sources(&paths).unwrap();
            let cold = Engine::new(config.clone()).analyze(&sources);
            prop_assert_eq!(
                scrubbed(&served.result),
                scrubbed(&cold),
                "after {:?}",
                step
            );
            let cold_reply = serde_json::to_string(&cold.report()).unwrap();
            let parsed = |text: &str| scrub(serde_json::from_str(text).unwrap());
            prop_assert_eq!(parsed(&reply), parsed(&cold_reply));
            // The per-record totals, kept by delta, equal a full count.
            let (kept, full) = (&served.result.stats, &cold.stats);
            prop_assert_eq!(
                (kept.files_total, kept.functions_total, kept.parse_errors),
                (full.files_total, full.functions_total, full.parse_errors)
            );
            prop_assert_eq!(
                (kept.files_with_barriers, kept.functions_with_barriers),
                (full.files_with_barriers, full.functions_with_barriers)
            );
            // The global phases are reused exactly when the step kept the
            // layout and left every site-holding file as it was, and then
            // their counters are replayed.
            let same_layout = !matches!(step, Step::Restart) && corpus_files(&dir) == names;
            let reusable = ipa_depth == 0 && same_layout && holders(&last.result) == holders(&cold);
            let reused = served.result.obs.count_of("global_phases_reused");
            prop_assert_eq!(reused, u64::from(reusable), "after {:?}", step);
            prop_assert_eq!(
                decision_counters(&served.result.obs),
                decision_counters(&cold.obs),
                "after {:?}",
                step
            );
            // Only what the step changed is looked up in the cache, or
            // every file when the layout changed or the session is new.
            let lookups = served.result.obs.count_of("engine_cache_lookups");
            if matches!(step, Step::Restart) || corpus_files(&dir) != names {
                prop_assert_eq!(lookups, sources.len() as u64, "after {:?}", step);
            } else {
                let changed = !matches!(step, Step::Delete(_) | Step::Restart);
                prop_assert!(
                    lookups <= u64::from(changed),
                    "{} after {:?}",
                    lookups,
                    step
                );
            }

            let mut reloaded = Engine::new(config.clone());
            reloaded.load_disk_cache(&cache_dir);
            let warm = reloaded.analyze(&sources);
            prop_assert_eq!(
                warm.obs.count_of("engine_cache_hits"),
                sources.len() as u64,
                "after {:?}",
                step
            );
            last = served;
        }
        // The last session walked once, or on every pass.
        let walks = counter(&session, "serve_snapshot_full_passes");
        prop_assert!(
            if full_passes { walks >= 2 } else { walks == 1 },
            "{} walks",
            walks
        );
        let _ = std::fs::remove_dir_all(&root);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Every pass after a session's first drains the journal.
        #[test]
        fn session_runs_match_cold_analysis(
            steps in proptest::collection::vec(arb_step(), 1..8),
            ipa_depth in prop_oneof![Just(0u32), Just(2u32)],
        ) {
            runs_match_cold_analysis(steps, ipa_depth, false)?;
        }

        /// Every pass walks the tree: the journal's fallback.
        #[test]
        fn session_runs_match_cold_analysis_on_full_passes(
            steps in proptest::collection::vec(arb_step(), 1..8),
            ipa_depth in prop_oneof![Just(0u32), Just(2u32)],
        ) {
            runs_match_cold_analysis(steps, ipa_depth, true)?;
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

    /// Whatever the edit history, every `analyze` reply's text is the
    /// compact report of the run it answered, though its `files` rows come
    /// from the session's memo of the last reply. The corpus spans three
    /// runs of rows. A step that keeps the layout renders at most one run
    /// again; `hold` keeps the run's result alive across the next request.
    fn replies_match_their_run(steps: Vec<(Step, bool)>) -> Result<(), TestCaseError> {
        let dir = std::env::temp_dir().join(format!(
            "ofence-session-replies-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        let fillers = (0..140).map(|i| format!("int h{i}(int x) {{ return x + {i}; }}\n"));
        for (i, text) in TEXTS
            .iter()
            .map(|t| t.to_string())
            .chain(fillers)
            .enumerate()
        {
            let file = dir.join(format!("f{i:03}.c"));
            std::fs::write(&file, text).unwrap();
            age(&file);
        }
        let session = Session::new(SessionOptions {
            config: AnalysisConfig::default(),
            paths: vec![dir.display().to_string()],
            cache_dir: None,
            history_dir: None,
        });
        // One request: the reply's text, the run it answered, and the
        // rows its `render` span says were rendered again.
        let request = || {
            let ctx = session.begin_request("analyze", None);
            let handle = session.current_run_inner(&ctx).unwrap();
            let text = session.render_report(&ctx, &handle.result);
            let spans = ctx.rec.snapshot();
            let render = spans.spans_named("render").last().unwrap();
            let rendered: usize = render.attr("rows_rendered").unwrap().parse().unwrap();
            (text, handle, rendered)
        };
        let (_, mut held, _) = request();
        let mut serial = 0;
        for (step, hold) in steps {
            let names = corpus_files(&dir);
            apply(&dir, step, &mut serial);
            if !hold {
                drop(held);
            }
            let (text, handle, rendered) = request();
            let report = serde_json::to_string(&handle.result.report()).unwrap();
            prop_assert!(text.joined() == report, "after {:?}", step);
            if corpus_files(&dir) == names {
                prop_assert!(rendered <= ROWS_PER_RUN, "{} after {:?}", rendered, step);
            }
            held = handle;
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn analyze_replies_match_their_run(
            steps in proptest::collection::vec(
                (prop_oneof![arb_step(), (0usize..TEXTS.len()).prop_map(Step::AddFirst)], any::<bool>()),
                1..8,
            ),
        ) {
            replies_match_their_run(steps)?;
        }
    }

    static SEQ: AtomicU64 = AtomicU64::new(0);
}
