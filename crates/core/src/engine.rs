//! The whole-corpus analysis engine.
//!
//! Parses and analyzes files in parallel (one worker per core, like
//! OFence's 16-core 8-minute kernel runs), performs the global pairing,
//! runs the checkers, synthesizes patches, and computes statistics.
//! A per-file cache keyed by content hash gives the paper's <30 s
//! single-file incremental re-analysis (§6.1).
//!
//! A run over a session's snapshot ([`Engine::analyze_snapshot`]) also
//! skips the cache lookup for every file that did not change. The cache
//! keeps a table of the last such run: each corpus position's content
//! hash, a key of its slot and read-ness, and its record. When the new
//! corpus has the same layout (see [`Corpus`]), a position whose hash
//! and key match reuses its record as is: the lookup would find the same
//! entry with the same slot, so it would change nothing and return that
//! record. Only the other positions are looked up, so a one-edit run
//! makes one lookup, not one per file. A file the snapshot did not read
//! whose lookup misses (another run evicted its entry since the snapshot
//! was taken) is read then, and must hash as the snapshot says.
//!
//! The same table keeps the [`Stats`] totals over its records, updated
//! at the looked-up positions only, and the *global-phase memo*: the
//! outputs of site-id assignment, pair, check, suppression, patch,
//! annotate and finding records. At depth 0 without `--missing` those
//! phases read only the site-holding records, so their outputs are a
//! function of the config and of the ordered (position, record) list of
//! the site holders. A run over the same layout changes that list only
//! at the positions it looked up; where the old or the new record there
//! holds a site and the two are not the same `Arc`, the memo is dropped.
//! Both records are alive while they are compared, and the rows hold
//! every other key record, so no address is reused and no `make_mut`
//! changes a key record in place. A run that finds the memo with its
//! config's fingerprint puts the memo's id-stamped records back at their
//! positions, shares its outputs and replays the decision counters the
//! phases emitted (`global_phases_reused` 1). `--ipa-depth` ≥ 1 and
//! `--missing` read more than the site holders and bypass the memo.

use crate::annotate;
use crate::cache::{Row, Table};
use crate::config::AnalysisConfig;
use crate::deviation::{check_all_traced, Deviation};
use crate::fingerprint::{finding_records, FindingRecord};
use crate::ir::*;
use crate::pairing::{pair_barriers_traced, PairingResult};
use crate::patch::{synthesize, Patch};
use crate::report::{DistanceHistogram, RecordTotals, Stats};
use crate::sites::FileAnalysis;
use crate::walk::{Corpus, Slot};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// An input file.
#[derive(Clone)]
pub struct SourceFile {
    pub name: String,
    /// The file's text, except for a file the walker took from a
    /// disk-cache entry without reading it: then it is empty, and
    /// [`SourceFile::text`] is `None`.
    pub content: std::sync::Arc<str>,
    /// FNV-1a hash of the text, computed once when the file was read (or
    /// taken from the cache entry of an unread file).
    hashed: Hashed,
    /// Stamp and read time of a file read from disk (see
    /// [`crate::walk`]); `None` for an in-memory source.
    pub(crate) slot: Option<Slot>,
}

/// A content hash and the text it was computed from. Holding that `Arc`
/// (a refcount, not a copy) lets [`SourceFile::hash`] notice a caller
/// that assigned new text to the public `content` field.
#[derive(Clone)]
struct Hashed {
    of: Arc<str>,
    hash: u64,
    /// False for a file whose text was never read.
    read: bool,
}

impl SourceFile {
    pub fn new(name: impl Into<String>, content: impl Into<std::sync::Arc<str>>) -> Self {
        let content: Arc<str> = content.into();
        let hashed = Hashed {
            of: content.clone(),
            hash: fnv1a(content.as_bytes()),
            read: true,
        };
        SourceFile {
            name: name.into(),
            content,
            hashed,
            slot: None,
        }
    }

    /// A file known by its cached hash and slot, without its text.
    pub(crate) fn unread(name: &str, hash: u64, slot: Slot) -> Self {
        let content: Arc<str> = Arc::from("");
        let hashed = Hashed {
            of: content.clone(),
            hash,
            read: false,
        };
        SourceFile {
            name: name.to_string(),
            content,
            hashed,
            slot: Some(slot),
        }
    }

    /// FNV-1a hash of `content` — the cache and snapshot key — computed
    /// once per text, not once per use.
    pub fn hash(&self) -> u64 {
        if Arc::ptr_eq(&self.hashed.of, &self.content) {
            self.hashed.hash
        } else {
            fnv1a(self.content.as_bytes())
        }
    }

    /// The file's text, or `None` if it was never read.
    pub(crate) fn text(&self) -> Option<&Arc<str>> {
        let read = self.hashed.read || !Arc::ptr_eq(&self.hashed.of, &self.content);
        read.then_some(&self.content)
    }

    /// Whether `text` is this file's text: compared byte for byte, or by
    /// hash if the file was never read.
    pub(crate) fn holds(&self, text: &str) -> bool {
        match self.text() {
            Some(own) => **own == *text,
            None => self.hash() == fnv1a(text.as_bytes()),
        }
    }
}

impl PartialEq for SourceFile {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && match (self.text(), other.text()) {
                (Some(a), Some(b)) => a == b,
                _ => self.hash() == other.hash(),
            }
    }
}

impl Eq for SourceFile {}

impl std::fmt::Debug for SourceFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = f.debug_struct("SourceFile");
        out.field("name", &self.name);
        match self.text() {
            Some(text) => out.field("content", text),
            None => out.field("unread_hash", &self.hash()),
        };
        out.finish()
    }
}

/// Complete result of one analysis run.
#[derive(Debug)]
pub struct AnalysisResult {
    /// Unique id of this run (`run-` + 16 hex digits), recorded in the
    /// JSON report and the `.ofence/history.jsonl` ledger so reports and
    /// ledger entries can be cross-referenced by `ofence diff`.
    pub run_id: String,
    /// Per-file analyses, shared with the engine's cache: an `Arc` whose
    /// copy-on-write mutations (global site ids, IPA augmentation) touch
    /// only the files that actually have barrier sites.
    pub files: Vec<Arc<FileAnalysis>>,
    /// All barrier sites, globally numbered. This and the other outputs
    /// of the global phases are shared with the engine's memo, and with
    /// the next run's result when it reuses them (see module docs).
    pub sites: Arc<Vec<BarrierSite>>,
    pub pairing: Arc<PairingResult>,
    pub deviations: Arc<Vec<Deviation>>,
    pub patches: Arc<Vec<Patch>>,
    /// §7 annotation findings and patches, kept separate from bug fixes.
    pub annotations: Arc<Vec<Deviation>>,
    pub annotation_patches: Arc<Vec<Patch>>,
    /// Diffable, fingerprinted records of `deviations` / `annotations`,
    /// in report order: computed once per run, read by the JSON and SARIF
    /// reports, the history ledger, baselines and diffs.
    pub deviation_records: Arc<Vec<FindingRecord>>,
    pub annotation_records: Arc<Vec<FindingRecord>>,
    pub stats: Stats,
    /// Observability snapshot of this run: phase spans with per-file
    /// attribution, decision counters, histograms. Feeds `--trace-out`
    /// (Chrome tracing) and `--metrics-out` (Prometheus text).
    pub obs: obs::Snapshot,
}

impl AnalysisResult {
    /// The site with a given id (ids are dense indices into `sites`).
    pub fn site(&self, id: BarrierId) -> &BarrierSite {
        &self.sites[id.0 as usize]
    }

    /// Figure 7 data: distances of read accesses around read barriers.
    pub fn read_distance_histogram(&self) -> DistanceHistogram {
        let mut h = DistanceHistogram::default();
        for s in self.sites.iter() {
            if !s.is_read_barrier() {
                continue;
            }
            for a in &s.accesses {
                if a.kind == AccessKind::Read {
                    h.record(a.distance);
                }
            }
        }
        h
    }

    /// Figure 6 companion: distances of write accesses around write
    /// barriers.
    pub fn write_distance_histogram(&self) -> DistanceHistogram {
        let mut h = DistanceHistogram::default();
        for s in self.sites.iter() {
            if !s.is_write_barrier() {
                continue;
            }
            for a in &s.accesses {
                if a.kind == AccessKind::Write {
                    h.record(a.distance);
                }
            }
        }
        h
    }
}

/// Per-worker result slot: locked only by its owning worker.
type WorkerSlot = Mutex<Vec<(usize, Arc<FileAnalysis>)>>;

/// The part of a position's reuse check besides its content hash: a key
/// of the file's slot, and whether the snapshot read the file (a record
/// served for a read file must hold its text).
fn reuse_key(f: &SourceFile) -> u64 {
    f.slot.map_or(0, Slot::key) ^ u64::from(f.text().is_some())
}

/// Position `i`'s row: its file's hash and reuse key, and its record.
fn row(files: &[SourceFile], results: &[Arc<FileAnalysis>], i: usize) -> Row {
    Row {
        hash: files[i].hash(),
        key: reuse_key(&files[i]),
        analysis: results[i].clone(),
    }
}

/// The analysis engine. Holds configuration, the incremental cache, and
/// the run recorder.
pub struct Engine {
    pub config: AnalysisConfig,
    /// file path -> (content hash, slot, cached per-file analysis), in one
    /// map per disk shard. An entry is used only when both the path and
    /// the content hash match; a run evicts the entries whose path left
    /// its corpus. Entries are `Arc`-shared with run results, so a warm
    /// hit is a refcount bump instead of a deep `FileAnalysis` clone. The
    /// store tracks which disk shards its inserts and evictions dirtied,
    /// and keeps the last snapshot run's per-position table.
    pub(crate) cache: crate::cache::Store,
    /// Observability recorder, reset at the start of every run so spans
    /// and counters are per-run (never cumulative across incremental
    /// re-analyses).
    recorder: obs::Recorder,
    /// Counters accumulated between runs (e.g. by a disk-cache load) and
    /// flushed into the recorder right after the per-run reset, so they
    /// land in the next run's snapshot.
    pending_counts: Vec<(String, u64)>,
    /// How many entries the "slowest files" ranking keeps (`--slow-files`).
    /// Presentation only — deliberately not part of [`AnalysisConfig`],
    /// so changing it never invalidates caches or fingerprints.
    slow_files: usize,
    /// Test hook: panic inside one file's per-file analysis, to prove a
    /// worker's panic fails the request instead of hanging it.
    #[cfg(test)]
    pub(crate) panic_on_file: Option<PanicOnFile>,
}

/// Test hook (see [`Engine::panic_on_file`]): the analysis of the file
/// whose name ends with `file` waits until `release` is set, then panics.
#[cfg(test)]
pub(crate) struct PanicOnFile {
    pub file: String,
    pub release: Arc<std::sync::atomic::AtomicBool>,
}

#[cfg(test)]
impl PanicOnFile {
    fn hit(&self, name: &str) {
        if !name.ends_with(&self.file) {
            return;
        }
        let t0 = std::time::Instant::now();
        while !self.release.load(Ordering::SeqCst) && t0.elapsed().as_secs() < 30 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("injected panic analyzing {name}");
    }
}

impl Engine {
    pub fn new(config: AnalysisConfig) -> Engine {
        Engine {
            config,
            cache: crate::cache::Store::default(),
            recorder: obs::Recorder::new(),
            pending_counts: Vec::new(),
            slow_files: DEFAULT_SLOW_FILES,
            #[cfg(test)]
            panic_on_file: None,
        }
    }

    /// Keep the top `n` slowest files in [`Stats::slowest_files`]
    /// (default [`DEFAULT_SLOW_FILES`]).
    pub fn set_slow_files(&mut self, n: usize) {
        self.slow_files = n;
    }

    /// The engine's recorder (e.g. to add caller-side spans around a run).
    pub fn recorder(&self) -> &obs::Recorder {
        &self.recorder
    }

    /// Hydrate the incremental cache from `dir` (see [`crate::cache`]).
    /// Stale or corrupt caches are discarded, never an error; the number
    /// of loaded entries is reported as `cache_loads` in the next run's
    /// counters.
    pub fn load_disk_cache(&mut self, dir: &std::path::Path) -> crate::cache::LoadOutcome {
        let t0 = std::time::Instant::now();
        let (loaded, outcome) = self.cache.load(dir, &self.config);
        self.pending_counts
            .push(("shard_load_us".to_string(), t0.elapsed().as_micros() as u64));
        self.pending_counts
            .push(("cache_loads".to_string(), loaded as u64));
        if matches!(outcome, crate::cache::LoadOutcome::Discarded { .. }) {
            self.pending_counts.push(("cache_discarded".to_string(), 1));
        }
        outcome
    }

    /// Flush the incremental cache to `dir`, creating it if needed: only
    /// the shards whose entries changed since the last load or save are
    /// written. Returns the number of entries in the cache. The wall time
    /// and the shard count are queued as `shard_save_us` and
    /// `cache_shards_written` for the *next* run's snapshot (a save
    /// happens after the current run's snapshot is already taken).
    pub fn save_disk_cache(&mut self, dir: &std::path::Path) -> Result<usize, String> {
        let t0 = std::time::Instant::now();
        let saved = self.cache.save(dir, &self.config);
        self.pending_counts
            .push(("shard_save_us".to_string(), t0.elapsed().as_micros() as u64));
        let written = match &saved {
            Ok(stats) => stats.shards_written,
            Err(_) => 0,
        };
        self.pending_counts
            .push(("cache_shards_written".to_string(), written as u64));
        saved.map(|stats| stats.entries)
    }

    /// Analyze a corpus: files whose path and content hash match a cache
    /// entry are served from the cache, the rest are analyzed and cached
    /// for the next run. Pairing and checking always run over every site.
    /// Every file is looked up: only a snapshot run reuses positions.
    pub fn analyze(&mut self, files: &[SourceFile]) -> AnalysisResult {
        self.run(files, None)
            .unwrap_or_else(|e| panic!("an unread file could not be read: {e}"))
    }

    /// [`Engine::analyze`] of a session's snapshot, looking up only the
    /// positions that changed since the last snapshot run (see module
    /// docs). Fails when a file the snapshot did not read has to be read
    /// now and cannot be, or no longer hashes as the snapshot says.
    pub(crate) fn analyze_snapshot(&mut self, corpus: &Corpus) -> Result<AnalysisResult, String> {
        self.run(corpus, Some(corpus.layout()))
    }

    fn run(&mut self, files: &[SourceFile], layout: Option<u64>) -> Result<AnalysisResult, String> {
        self.recorder.reset();
        for (name, delta) in &self.pending_counts {
            self.recorder.count(name, *delta);
        }
        let root = self.recorder.open("analyze");
        // The last run's table, if it ran over this layout; it is empty
        // otherwise, and its records are let go before any hit could
        // copy one on write.
        let mut table = self.cache.take_table(layout);
        match self.analyze_files(files, layout.is_some(), &mut table) {
            Ok(analyses) => {
                self.pending_counts.clear();
                let result = self.finish(analyses, &mut table, root);
                if let Some(layout) = layout {
                    self.cache.keep_table(layout, table);
                }
                Ok(result)
            }
            // No run happened: its span closes, and the queued counts
            // wait for the next run.
            Err(e) => {
                self.recorder.close(root);
                Err(e)
            }
        }
    }

    /// Alias of [`Engine::analyze`], kept only because the frozen
    /// `bench-e2e/` replay calls it; every other caller uses `analyze`.
    pub fn analyze_incremental(&mut self, files: &[SourceFile]) -> AnalysisResult {
        self.analyze(files)
    }

    /// The run's per-file records, from `table`'s rows, the cache, or a
    /// fresh analysis. A snapshot run (`keep`) leaves its rows in `table`;
    /// every run leaves the [`RecordTotals`] over its records there.
    fn analyze_files(
        &mut self,
        files: &[SourceFile],
        keep: bool,
        table: &mut Table,
    ) -> Result<Vec<Arc<FileAnalysis>>, String> {
        debug_assert_eq!(
            (files.iter().map(|f| f.name.as_str()))
                .collect::<std::collections::HashSet<_>>()
                .len(),
            files.len(),
            "corpus names are not unique"
        );
        let rows = &table.rows;
        debug_assert!(rows.is_empty() || rows.len() == files.len());
        let scan = self.recorder.span("rows");
        // Split into reused, cached and to-do. Hits are counted once per
        // run, not once per file: a count takes the recorder's lock.
        let mut results: Vec<Option<Arc<FileAnalysis>>> = vec![None; files.len()];
        let mut looked_up: Vec<usize> = Vec::new();
        let mut todo: Vec<(usize, Cow<SourceFile>)> = Vec::new();
        for (i, f) in files.iter().enumerate() {
            let hash = f.hash();
            if let Some(row) = rows.get(i) {
                if row.hash == hash && row.key == reuse_key(f) {
                    results[i] = Some(row.analysis.clone());
                    continue;
                }
            }
            looked_up.push(i);
            match self.cache.hit(&f.name, hash, f.slot) {
                Some(fa) => {
                    // Warm hit: a refcount bump. The cached entry is
                    // patched in place (copy-on-write) the first time it
                    // is served at a new corpus position, or without its
                    // source text when the snapshot read the file
                    // (disk-loaded entries carry none — the hash match
                    // guarantees it equals the live content). A file the
                    // snapshot did not read has no text to restore; no
                    // phase reads it.
                    let text = f.text().filter(|t| fa.source.is_empty() && !t.is_empty());
                    if fa.file != i || text.is_some() {
                        let m = Arc::make_mut(fa);
                        m.file = i;
                        if let Some(text) = text {
                            m.source = text.clone();
                        }
                        for s in &mut m.sites {
                            s.site.file = i;
                        }
                    }
                    results[i] = Some(fa.clone());
                }
                // A file the snapshot did not read had an entry when the
                // snapshot was seeded, so a run evicted it since: read it
                // now, as the snapshot says it is.
                None => match f.text() {
                    Some(_) => todo.push((i, Cow::Borrowed(f))),
                    None => todo.push((i, Cow::Owned(crate::walk::read_text(f)?))),
                },
            }
        }
        drop(scan);
        self.recorder
            .count("engine_cache_hits", (files.len() - todo.len()) as u64);
        // Only a snapshot run can look up fewer files than it has.
        if keep {
            self.recorder
                .count("engine_cache_lookups", looked_up.len() as u64);
        }
        self.recorder
            .count("engine_files_analyzed", todo.len() as u64);
        // Parallel per-file analysis of the remainder, largest files
        // first: workers take files in order, so the heavy head spreads
        // across them and the tail is one small file.
        todo.sort_by_key(|(_, f)| std::cmp::Reverse(f.content.len()));
        let slots: Vec<WorkerSlot> = (0..crate::pool::threads().min(todo.len()))
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        let config = &self.config;
        let rec = &self.recorder;
        #[cfg(test)]
        let panic_on_file = &self.panic_on_file;
        crate::pool::for_each(&todo, Some(rec), |w, (i, f)| {
            #[cfg(test)]
            if let Some(hook) = panic_on_file {
                hook.hit(&f.name);
            }
            let fa = crate::sites::analyze_source_traced(*i, f, config, rec);
            slots[w]
                .lock()
                .expect("worker slot")
                .push((*i, Arc::new(fa)));
        });
        drop(todo);
        for slot in slots {
            for (i, fa) in slot.into_inner().expect("worker slot") {
                // The cache and the result share the same `Arc`: no deep
                // clone on insert, and `finish`'s mutations copy-on-write
                // only the files they touch.
                let f = &files[i];
                self.cache
                    .insert(f.name.clone(), f.hash(), f.slot, fa.clone());
                results[i] = Some(fa);
            }
        }
        // Evict entries whose path is gone from the corpus: a rename or
        // deletion must not leave a stale FileAnalysis that a future save
        // would write back to disk. Every corpus path now has an entry,
        // and the names are unique, so there is a stale entry exactly
        // when the cache holds more entries than the corpus has files.
        if self.cache.len() > files.len() {
            let current: std::collections::HashSet<&str> =
                files.iter().map(|f| f.name.as_str()).collect();
            let evicted = self.cache.retain(|path| current.contains(path));
            self.recorder.count("cache_evictions", evicted as u64);
        }
        let results: Vec<Arc<FileAnalysis>> = results
            .into_iter()
            .map(|r| r.expect("every file analyzed"))
            .collect();
        // Every record a phase reads the text of has it: site holders,
        // and under `--missing` every file.
        debug_assert!(
            files.iter().zip(&results).all(|(f, fa)| f.text().is_some()
                || (fa.sites.is_empty() && !self.config.detect_missing)),
            "a record a phase reads has no text"
        );
        // Keep this run's table for the next run over the same layout:
        // updated in place at the positions looked up, or built afresh.
        let _update = self.recorder.span("rows");
        if table.rows.is_empty() {
            table.totals = RecordTotals::over(&results);
            if keep {
                table
                    .rows
                    .extend((0..files.len()).map(|i| row(files, &results, i)));
            }
            return Ok(results);
        }
        for i in looked_up {
            let old = std::mem::replace(&mut table.rows[i], row(files, &results, i)).analysis;
            let new = &results[i];
            table.totals.replace(&old, new);
            // The memo's key holds every site-holding record at its
            // position, compared by `Arc`: it changed if one came, went
            // or was replaced here.
            let holds_sites = !old.sites.is_empty() || !new.sites.is_empty();
            if holds_sites && !Arc::ptr_eq(&old, new) {
                table.memo = None;
            }
        }
        debug_assert_eq!(table.totals, RecordTotals::over(&results));
        Ok(results)
    }

    fn finish(
        &self,
        mut files: Vec<Arc<FileAnalysis>>,
        table: &mut Table,
        root: u64,
    ) -> AnalysisResult {
        let rec = &self.recorder;
        // Inter-procedural summary composition: merge (transitive) callee
        // accesses into barrier windows before pairing. Runs on the
        // cached per-file artifacts only — no re-parsing — so it is cheap
        // even on warm-cache incremental runs.
        let composed = if self.config.ipa_depth > 0 {
            let _span = rec.span("compose");
            // Composition is rooted at the callees named in barrier
            // windows: only their call cones can ever be spliced, so the
            // pass scales with the barrier neighborhood, not the corpus.
            let roots: Vec<(usize, String)> = files
                .iter()
                .flat_map(|fa| {
                    fa.window_calls
                        .iter()
                        .flatten()
                        .map(|c| (fa.file, c.callee.clone()))
                })
                .collect();
            let index =
                crate::summary::ComposedIndex::build_rooted(&files, self.config.ipa_depth, &roots);
            rec.count("ipa_compose_functions", index.len() as u64);
            let (touched, added) = crate::summary::augment_sites(&mut files, &index, &self.config);
            rec.count("ipa_sites_augmented", touched);
            rec.count("ipa_composed_accesses", added);
            Some(index)
        } else {
            None
        };
        let config = crate::cache::config_fingerprint(&self.config);
        let memo = table.memo.take().filter(|memo| memo.config == config);
        let global = match memo {
            Some(memo) => {
                let _span = rec.span("global_reuse");
                for fa in &memo.holders {
                    debug_assert_eq!(files[fa.file].name, fa.name);
                    files[fa.file] = fa.clone();
                }
                for (name, delta) in &memo.counters {
                    rec.count(name, *delta);
                }
                rec.count("global_phases_reused", 1);
                memo
            }
            None => self.run_global_phases(&mut files, composed.as_ref(), config),
        };
        let mut stats = {
            let _span = rec.span("stats");
            Stats::compute(
                files.len(),
                table.totals,
                &global.sites,
                &global.pairing,
                &global.deviations,
                global.patches.len(),
            )
        };
        // Close the root span so the snapshot contains it, then derive the
        // run's wall-clock from that span (replaces the old ad-hoc Instant).
        rec.close(root);
        let obs = rec.snapshot();
        stats.add_timings(&obs, self.slow_files);
        let result = AnalysisResult {
            run_id: fresh_run_id(config),
            files,
            sites: global.sites.clone(),
            pairing: global.pairing.clone(),
            deviations: global.deviations.clone(),
            patches: global.patches.clone(),
            annotations: global.annotations.clone(),
            annotation_patches: global.annotation_patches.clone(),
            deviation_records: global.deviation_records.clone(),
            annotation_records: global.annotation_records.clone(),
            stats,
            obs,
        };
        if self.memoizes() {
            table.memo = Some(global);
        }
        result
    }

    /// Whether a run keeps its global phases' outputs for the next run:
    /// at depth 0 without `--missing`, where they read only the
    /// site-holding records (see module docs).
    fn memoizes(&self) -> bool {
        self.config.ipa_depth == 0 && !self.config.detect_missing
    }

    /// What a run did with the global phases, for the request trace:
    /// `reused` the last run's outputs, `ran` them, or `bypassed` the memo
    /// (a mode whose phases read more than the site-holding records).
    pub fn global_phases(&self, result: &AnalysisResult) -> &'static str {
        if result.obs.count_of("global_phases_reused") > 0 {
            "reused"
        } else if self.memoizes() {
            "ran"
        } else {
            "bypassed"
        }
    }

    /// Site ids, pair, check, suppression, patch, annotate and finding
    /// records over every site, stamping the ids into the site-holding
    /// records of `files`.
    fn run_global_phases(
        &self,
        files: &mut [Arc<FileAnalysis>],
        composed: Option<&crate::summary::ComposedIndex>,
        config: u64,
    ) -> Global {
        let rec = &self.recorder;
        let before = rec.counters();
        // Assign global barrier ids, deterministic in file order.
        // Copy-on-write: only files that actually have sites are cloned
        // out of the cache-shared `Arc`s; site-free files stay shared.
        let mut sites: Vec<BarrierSite> = Vec::new();
        let mut holders = Vec::new();
        {
            let _span = rec.span("site_ids");
            for fa in files.iter_mut() {
                if fa.sites.is_empty() {
                    continue;
                }
                let m = Arc::make_mut(fa);
                for site in &mut m.sites {
                    site.id = BarrierId(sites.len() as u32);
                    sites.push(site.clone());
                }
                holders.push(fa.clone());
            }
        }
        let files = &*files;
        let pairing = pair_barriers_traced(&sites, &self.config, rec);
        let mut deviations = check_all_traced(&sites, &pairing, files, &self.config, rec);
        if self.config.detect_missing {
            deviations.extend(crate::missing::detect_traced(
                files,
                &sites,
                &pairing,
                &self.config,
                composed,
                rec,
            ));
        }
        // Inline suppression: drop findings whose anchor line (or the
        // line above it) carries an `ofence-ignore` comment. Happens
        // before patch synthesis so suppressed findings produce nothing.
        let before_suppression = deviations.len();
        deviations.retain(|d| !suppressed(d, files));
        rec.count("suppressed", (before_suppression - deviations.len()) as u64);
        let patches: Vec<Patch> = {
            let _span = rec.span("patch");
            deviations
                .iter()
                .filter_map(|d| synthesize(d, &files[d.site.file]))
                .collect()
        };
        rec.count("patches_emitted", patches.len() as u64);
        let (annotations, annotation_patches) = {
            let _span = rec.span("annotate");
            let mut annotations = annotate::find_missing_annotations(&sites, &pairing);
            annotations.retain(|d| !suppressed(d, files));
            let annotation_patches: Vec<Patch> = annotations
                .iter()
                .filter_map(|d| annotate::synthesize_annotation(d, &files[d.site.file]))
                .collect();
            (annotations, annotation_patches)
        };
        rec.count("annotations_emitted", annotations.len() as u64);
        let (deviation_records, annotation_records) = {
            let _span = rec.span("records");
            (
                finding_records(&deviations, &sites, files),
                finding_records(&annotations, &sites, files),
            )
        };
        let counters = (rec.counters().into_iter())
            .filter_map(|(name, n)| {
                let delta = n - before.get(&name).copied().unwrap_or(0);
                (delta > 0).then_some((name, delta))
            })
            .collect();
        Global {
            config,
            holders,
            sites: Arc::new(sites),
            pairing: Arc::new(pairing),
            deviations: Arc::new(deviations),
            patches: Arc::new(patches),
            annotations: Arc::new(annotations),
            annotation_patches: Arc::new(annotation_patches),
            deviation_records: Arc::new(deviation_records),
            annotation_records: Arc::new(annotation_records),
            counters,
        }
    }
}

/// The outputs of one run's global phases. At depth 0 without
/// `--missing` the engine keeps them in its table as the memo that the
/// next run over the same layout reuses while no site-holding record
/// changed (see module docs).
pub(crate) struct Global {
    /// Fingerprint of the config the phases ran with.
    config: u64,
    /// The id-stamped site-holding records, in corpus order; each one's
    /// `file` is its position.
    holders: Vec<Arc<FileAnalysis>>,
    sites: Arc<Vec<BarrierSite>>,
    pairing: Arc<PairingResult>,
    deviations: Arc<Vec<Deviation>>,
    patches: Arc<Vec<Patch>>,
    annotations: Arc<Vec<Deviation>>,
    annotation_patches: Arc<Vec<Patch>>,
    deviation_records: Arc<Vec<FindingRecord>>,
    annotation_records: Arc<Vec<FindingRecord>>,
    /// The decision counters the phases added, replayed on a reuse so
    /// the run's counters read as if they ran.
    counters: Vec<(String, u64)>,
}

/// Default length of the "slowest files" ranking (the historical top-5).
pub const DEFAULT_SLOW_FILES: usize = 5;

/// FNV-1a content hash for the incremental cache (shared with the disk
/// cache format).
use crate::cache::content_hash as fnv1a;

/// True when the finding's anchor line, or the line directly above it,
/// carries an `ofence-ignore` comment.
fn suppressed(d: &Deviation, files: &[Arc<FileAnalysis>]) -> bool {
    let Some(fa) = files.get(d.site.file) else {
        return false;
    };
    let anchor = d.access_span.unwrap_or(d.site.span);
    let lo = (anchor.lo as usize).min(fa.source.len());
    let line_start = fa.source[..lo].rfind('\n').map(|i| i + 1).unwrap_or(0);
    let line_end = fa.source[lo..]
        .find('\n')
        .map(|i| lo + i)
        .unwrap_or(fa.source.len());
    if fa.source[line_start..line_end].contains("ofence-ignore") {
        return true;
    }
    if line_start == 0 {
        return false;
    }
    let prev_start = fa.source[..line_start - 1]
        .rfind('\n')
        .map(|i| i + 1)
        .unwrap_or(0);
    fa.source[prev_start..line_start - 1].contains("ofence-ignore")
}

/// A unique run id: hash of the config fingerprint, the wall clock, and
/// a process-wide counter (so two runs in the same nanosecond still get
/// distinct ids). Not content-derived on purpose — two identical runs
/// are still two ledger entries.
fn fresh_run_id(config_fingerprint: u64) -> String {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let seed = format!(
        "{config_fingerprint:016x}:{nanos}:{seq}:{}",
        std::process::id()
    );
    format!("run-{:016x}", fnv1a(seed.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::tests::scrubbed;

    fn listing1_files() -> Vec<SourceFile> {
        vec![
            SourceFile::new(
                "reader.c",
                r#"struct my_struct { int init; int y; };
void reader(struct my_struct *a) {
    if (!a->init)
        return;
    smp_rmb();
    f(a->y);
}
"#,
            ),
            SourceFile::new(
                "writer.c",
                r#"struct my_struct { int init; int y; };
void writer(struct my_struct *b) {
    b->y = 1;
    smp_wmb();
    b->init = 1;
}
"#,
            ),
        ]
    }

    #[test]
    fn cross_file_pairing() {
        let mut engine = Engine::new(AnalysisConfig::default());
        let r = engine.analyze(&listing1_files());
        assert_eq!(r.sites.len(), 2);
        assert_eq!(r.pairing.pairings.len(), 1);
        let p = &r.pairing.pairings[0];
        let files: Vec<usize> = p.members.iter().map(|&m| r.site(m).site.file).collect();
        assert!(files.contains(&0) && files.contains(&1));
    }

    #[test]
    fn site_ids_are_dense_and_ordered() {
        let mut engine = Engine::new(AnalysisConfig::default());
        let r = engine.analyze(&listing1_files());
        for (i, s) in r.sites.iter().enumerate() {
            assert_eq!(s.id.0 as usize, i);
        }
    }

    #[test]
    fn incremental_reuses_cache() {
        let files = listing1_files();
        let mut engine = Engine::new(AnalysisConfig::default());
        let r1 = engine.analyze(&files);
        // Unchanged re-run: identical results.
        let r2 = engine.analyze(&files);
        assert_eq!(r1.stats.pairings, r2.stats.pairings);
        assert_eq!(r1.sites.len(), r2.sites.len());
    }

    #[test]
    fn incremental_picks_up_edits() {
        let mut files = listing1_files();
        let mut engine = Engine::new(AnalysisConfig::default());
        let r1 = engine.analyze(&files);
        assert_eq!(r1.pairing.pairings.len(), 1);
        // Break the reader: remove its barrier.
        files[0].content = files[0].content.replace("smp_rmb();", ";").into();
        let r2 = engine.analyze(&files);
        assert_eq!(r2.sites.len(), 1);
        assert!(r2.pairing.pairings.is_empty());
    }

    #[test]
    fn stats_reflect_run() {
        let mut engine = Engine::new(AnalysisConfig::default());
        let r = engine.analyze(&listing1_files());
        assert_eq!(r.stats.files_total, 2);
        assert_eq!(r.stats.files_with_barriers, 2);
        assert_eq!(r.stats.barriers_total, 2);
        assert_eq!(r.stats.barriers_by_kind["smp_rmb"], 1);
        assert_eq!(r.stats.barriers_by_kind["smp_wmb"], 1);
        assert_eq!(r.stats.pairings, 1);
        assert!((r.stats.coverage - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unparseable_file_does_not_abort_run() {
        let mut files = listing1_files();
        files.push(SourceFile::new("broken.c", "int @ garbage"));
        let mut engine = Engine::new(AnalysisConfig::default());
        let r = engine.analyze(&files);
        assert_eq!(r.stats.files_total, 3);
        assert!(r.stats.parse_errors > 0);
        assert_eq!(r.pairing.pairings.len(), 1);
    }

    #[test]
    fn histograms_populated() {
        let mut engine = Engine::new(AnalysisConfig::default());
        let r = engine.analyze(&listing1_files());
        assert!(r.read_distance_histogram().total() > 0);
        assert!(r.write_distance_histogram().total() > 0);
    }

    #[test]
    fn window_sweep_monotone_until_plateau() {
        let files = listing1_files();
        let sweep: Vec<(u32, usize)> = [1, 2, 5, 10]
            .into_iter()
            .map(|w| {
                let config = AnalysisConfig {
                    write_window: w,
                    ..AnalysisConfig::default()
                };
                (w, Engine::new(config).analyze(&files).stats.pairings)
            })
            .collect();
        assert_eq!(sweep.len(), 4);
        // Pairings never decrease with a larger window on this corpus.
        for w in sweep.windows(2) {
            assert!(w[1].1 >= w[0].1, "{sweep:?}");
        }
    }

    /// A snapshot run: one over the same layout as the last one.
    fn rerun(engine: &mut Engine, files: &[SourceFile]) -> AnalysisResult {
        engine.run(files, Some(1)).unwrap()
    }

    #[test]
    fn edit_to_a_site_free_file_reuses_the_global_phases() {
        let mut files = listing1_files();
        files.push(SourceFile::new(
            "helper.c",
            "int helper(int x) { return x; }\n",
        ));
        let mut engine = Engine::new(AnalysisConfig::default());
        let first = rerun(&mut engine, &files);
        assert_eq!(first.obs.count_of("global_phases_reused"), 0);
        assert_eq!(engine.global_phases(&first), "ran");
        files[2] = SourceFile::new("helper.c", "int helper(int x) { return x + 1; }\n");
        let second = rerun(&mut engine, &files);
        assert_eq!(second.obs.count_of("global_phases_reused"), 1);
        assert_eq!(engine.global_phases(&second), "reused");
        assert!(Arc::ptr_eq(&first.pairing, &second.pairing));
        assert!(Arc::ptr_eq(&first.files[0], &second.files[0]));
        assert_eq!(first.stats.pairings, second.stats.pairings);
        // A phase that did not run has no span, so no `phase_us` entry.
        for phase in ["pair", "check", "patch", "annotate"] {
            assert!(first.stats.phase_us.contains_key(phase), "{phase}");
            assert!(!second.stats.phase_us.contains_key(phase), "{phase}");
        }
        let has = |r: &AnalysisResult, name| r.obs.spans_named(name).next().is_some();
        for name in ["rows", "site_ids", "records", "stats"] {
            assert!(has(&first, name), "{name}");
        }
        assert!(!has(&first, "global_reuse") && has(&second, "global_reuse"));
        assert!(!has(&second, "site_ids") && !has(&second, "records"));
        let cold = Engine::new(AnalysisConfig::default()).analyze(&files);
        assert_eq!(scrubbed(&second), scrubbed(&cold));
        assert_eq!(second.obs.count_of("pairings_formed"), 1);
    }

    #[test]
    fn same_length_edit_to_a_site_holder_runs_the_global_phases() {
        let mut files = listing1_files();
        let mut engine = Engine::new(AnalysisConfig::default());
        let first = rerun(&mut engine, &files);
        // The reader's fence becomes a write fence: a new record of the
        // same length.
        let text = files[0].content.replace("smp_rmb", "smp_wmb");
        files[0] = SourceFile::new("reader.c", text);
        let edited = rerun(&mut engine, &files);
        assert_eq!(edited.obs.count_of("global_phases_reused"), 0);
        assert_ne!(scrubbed(&edited), scrubbed(&first));
        let cold = Engine::new(AnalysisConfig::default()).analyze(&files);
        assert_eq!(scrubbed(&edited), scrubbed(&cold));
    }

    #[test]
    fn memo_misses_after_a_config_change() {
        let files = listing1_files();
        let mut engine = Engine::new(AnalysisConfig::default());
        assert_eq!(rerun(&mut engine, &files).pairing.pairings.len(), 1);
        // Listing 1's barriers share two objects: three unpairs them.
        engine.config.min_shared_objects = 3;
        let changed = rerun(&mut engine, &files);
        assert_eq!(changed.obs.count_of("global_phases_reused"), 0);
        assert!(changed.pairing.pairings.is_empty());
        let cold = Engine::new(engine.config.clone()).analyze(&files);
        assert_eq!(scrubbed(&changed), scrubbed(&cold));
        let again = rerun(&mut engine, &files);
        assert_eq!(again.obs.count_of("global_phases_reused"), 1);
        assert_eq!(scrubbed(&again), scrubbed(&cold));
    }

    #[test]
    fn depth_and_missing_bypass_the_memo() {
        let files = listing1_files();
        for config in [
            AnalysisConfig {
                ipa_depth: 1,
                ..Default::default()
            },
            AnalysisConfig {
                detect_missing: true,
                ..Default::default()
            },
        ] {
            let mut engine = Engine::new(config);
            rerun(&mut engine, &files);
            let second = rerun(&mut engine, &files);
            assert_eq!(second.obs.count_of("global_phases_reused"), 0);
            assert_eq!(engine.global_phases(&second), "bypassed");
            assert!(second.stats.phase_us.contains_key("pair"));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let files = listing1_files();
        let r1 = Engine::new(AnalysisConfig::default()).analyze(&files);
        let r2 = Engine::new(AnalysisConfig::default()).analyze(&files);
        assert_eq!(
            format!("{:?}", r1.pairing.pairings),
            format!("{:?}", r2.pairing.pairings)
        );
        assert_eq!(r1.deviations.len(), r2.deviations.len());
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    #[test]
    fn pair_with_atomics_end_to_end() {
        let files = vec![SourceFile::new(
            "refcount.c",
            r#"struct obj { int data; atomic_t refs; };
void producer(struct obj *p, int v) {
    p->data = v;
    smp_wmb();
    atomic_inc(&p->refs);
}
void consumer(struct obj *p) {
    if (atomic_dec_and_test(&p->refs))
        release(p->data);
}
"#,
        )];
        let off = Engine::new(AnalysisConfig::default()).analyze(&files);
        assert!(off.pairing.pairings.is_empty());
        assert_eq!(off.stats.barriers_total, 1);

        let on = Engine::new(AnalysisConfig {
            pair_with_atomics: true,
            ..Default::default()
        })
        .analyze(&files);
        assert_eq!(on.pairing.pairings.len(), 1);
        assert_eq!(on.stats.barriers_total, 2);
        assert!(on
            .stats
            .barriers_by_kind
            .contains_key("atomic-rmw (pair_with_atomics)"));
        // Promoted atomics must never be reported as removable barriers.
        assert!(on
            .deviations
            .iter()
            .all(|d| !matches!(d.kind, crate::DeviationKind::UnneededBarrier { .. })));
    }

    #[test]
    fn annotations_exposed_on_result() {
        let files = vec![SourceFile::new(
            "m.c",
            r#"struct m { int init; int y; };
void reader(struct m *a) { if (!a->init) return; smp_rmb(); f(a->y); }
void writer(struct m *b) { b->y = 1; smp_wmb(); b->init = 1; }
"#,
        )];
        let r = Engine::new(AnalysisConfig::default()).analyze(&files);
        assert_eq!(r.annotations.len(), 4); // init + y, both sides
        assert_eq!(r.annotation_patches.len(), 4);
        for p in r.annotation_patches.iter() {
            assert!(p.diff.contains("ONCE("), "{}", p.diff);
        }
    }

    #[test]
    fn read_window_zero_sees_only_implied_accesses() {
        let files = vec![SourceFile::new(
            "m.c",
            r#"struct s { int data; int flag; };
void w(struct s *p) { p->data = 1; smp_store_release(&p->flag, 1); }
int r(struct s *p) { if (!smp_load_acquire(&p->flag)) return 0; return p->data; }
"#,
        )];
        let r = Engine::new(AnalysisConfig {
            read_window: 0,
            write_window: 0,
            ..Default::default()
        })
        .analyze(&files);
        // The primitives' own accesses (flag) remain; data is outside.
        for s in r.sites.iter() {
            assert!(s
                .accesses
                .iter()
                .all(|a| a.object == crate::SharedObject::new("s", "flag")));
        }
        // One common object < 2 minimum: no pairing.
        assert!(r.pairing.pairings.is_empty());
    }
}
