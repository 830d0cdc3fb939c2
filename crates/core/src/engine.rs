//! The whole-corpus analysis engine.
//!
//! Parses and analyzes files in parallel (one worker per core, like
//! OFence's 16-core 8-minute kernel runs), performs the global pairing,
//! runs the checkers, synthesizes patches, and computes statistics.
//! A per-file cache keyed by content hash gives the paper's <30 s
//! single-file incremental re-analysis (§6.1).

use crate::annotate;
use crate::config::AnalysisConfig;
use crate::deviation::{check_all_traced, Deviation};
use crate::fingerprint::{finding_records, FindingRecord};
use crate::ir::*;
use crate::pairing::{pair_barriers_traced, PairingResult};
use crate::patch::{synthesize, Patch};
use crate::report::{DistanceHistogram, Stats};
use crate::sites::FileAnalysis;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// An input file.
#[derive(Clone)]
pub struct SourceFile {
    pub name: String,
    pub content: std::sync::Arc<str>,
    /// FNV-1a hash of `content`, computed once when the file was read.
    hashed: Hashed,
}

/// A content hash and the text it was computed from. Holding that `Arc`
/// (a refcount, not a copy) lets [`SourceFile::hash`] notice a caller
/// that assigned new text to the public `content` field.
#[derive(Clone)]
struct Hashed {
    of: Arc<str>,
    hash: u64,
}

impl SourceFile {
    pub fn new(name: impl Into<String>, content: impl Into<std::sync::Arc<str>>) -> Self {
        let content: Arc<str> = content.into();
        let hashed = Hashed {
            of: content.clone(),
            hash: fnv1a(content.as_bytes()),
        };
        SourceFile {
            name: name.into(),
            content,
            hashed,
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
}

impl PartialEq for SourceFile {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.content == other.content
    }
}

impl Eq for SourceFile {}

impl std::fmt::Debug for SourceFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SourceFile")
            .field("name", &self.name)
            .field("content", &self.content)
            .finish()
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
    /// All barrier sites, globally numbered.
    pub sites: Vec<BarrierSite>,
    pub pairing: PairingResult,
    pub deviations: Vec<Deviation>,
    pub patches: Vec<Patch>,
    /// §7 annotation findings and patches, kept separate from bug fixes.
    pub annotations: Vec<Deviation>,
    pub annotation_patches: Vec<Patch>,
    /// Diffable, fingerprinted records of `deviations` / `annotations`,
    /// in report order: computed once per run, read by the JSON and SARIF
    /// reports, the history ledger, baselines and diffs.
    pub deviation_records: Vec<FindingRecord>,
    pub annotation_records: Vec<FindingRecord>,
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
        for s in &self.sites {
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
        for s in &self.sites {
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

/// The analysis engine. Holds configuration, the incremental cache, and
/// the run recorder.
pub struct Engine {
    pub config: AnalysisConfig,
    /// file path -> (content hash, cached per-file analysis). An entry is
    /// used only when both the path and the content hash match; entries
    /// whose path vanished from the corpus are evicted on every run.
    /// Entries are `Arc`-shared with run results, so a warm hit is a
    /// refcount bump instead of a deep `FileAnalysis` clone. The store
    /// tracks which disk shards its inserts and evictions dirtied.
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
    pub fn analyze(&mut self, files: &[SourceFile]) -> AnalysisResult {
        self.recorder.reset();
        for (name, delta) in self.pending_counts.drain(..) {
            self.recorder.count(&name, delta);
        }
        let root = self.recorder.open("analyze");
        let analyses = self.analyze_files(files);
        self.finish(analyses, root)
    }

    /// Re-analyze after edits: unchanged files come from the cache, only
    /// changed files are re-parsed; pairing and checking always re-run
    /// globally (they are cheap relative to parsing).
    pub fn analyze_incremental(&mut self, files: &[SourceFile]) -> AnalysisResult {
        self.analyze(files)
    }

    fn analyze_files(&mut self, files: &[SourceFile]) -> Vec<Arc<FileAnalysis>> {
        // Evict entries whose path is gone from the corpus: a rename or
        // deletion must not leave a stale FileAnalysis that a future save
        // would write back to disk.
        let current: std::collections::HashSet<&str> =
            files.iter().map(|f| f.name.as_str()).collect();
        let evicted = self.cache.retain(|path| current.contains(path));
        self.recorder.count("cache_evictions", evicted as u64);
        // Split into cached and to-do.
        let mut results: Vec<Option<Arc<FileAnalysis>>> = vec![None; files.len()];
        let mut todo: Vec<usize> = Vec::new();
        for (i, f) in files.iter().enumerate() {
            match self.cache.get_mut(&f.name) {
                Some((ch, fa)) if *ch == f.hash() => {
                    // Warm hit: a refcount bump. The cached entry is
                    // patched in place (copy-on-write) the first time it
                    // is served at a new corpus position or without its
                    // source text (disk-loaded entries carry none — the
                    // hash match guarantees it equals the live content);
                    // steady-state watch iterations clone nothing.
                    if fa.file != i || fa.source.is_empty() {
                        let m = Arc::make_mut(fa);
                        m.file = i;
                        if m.source.is_empty() {
                            m.source = f.content.clone();
                        }
                        for s in &mut m.sites {
                            s.site.file = i;
                        }
                    }
                    results[i] = Some(fa.clone());
                    self.recorder.count("engine_cache_hits", 1);
                }
                _ => todo.push(i),
            }
        }
        self.recorder
            .count("engine_files_analyzed", todo.len() as u64);
        // Parallel per-file analysis of the remainder, largest files
        // first: workers take files in order, so the heavy head spreads
        // across them and the tail is one small file.
        todo.sort_by_key(|&i| std::cmp::Reverse(files[i].content.len()));
        let slots: Vec<WorkerSlot> = (0..crate::pool::threads().min(todo.len()))
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        let config = &self.config;
        let rec = &self.recorder;
        #[cfg(test)]
        let panic_on_file = &self.panic_on_file;
        crate::pool::for_each(&todo, Some(rec), |w, &i| {
            #[cfg(test)]
            if let Some(hook) = panic_on_file {
                hook.hit(&files[i].name);
            }
            let fa = crate::sites::analyze_source_traced(i, &files[i], config, rec);
            slots[w]
                .lock()
                .expect("worker slot")
                .push((i, Arc::new(fa)));
        });
        for slot in slots {
            for (i, fa) in slot.into_inner().expect("worker slot") {
                // The cache and the result share the same `Arc`: no deep
                // clone on insert, and `finish`'s mutations copy-on-write
                // only the files they touch.
                self.cache
                    .insert(files[i].name.clone(), files[i].hash(), fa.clone());
                results[i] = Some(fa);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every file analyzed"))
            .collect()
    }

    fn finish(&self, mut files: Vec<Arc<FileAnalysis>>, root: u64) -> AnalysisResult {
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
        // Assign global barrier ids, deterministic in file order.
        // Copy-on-write: only files that actually have sites are cloned
        // out of the cache-shared `Arc`s; site-free files stay shared.
        let mut sites: Vec<BarrierSite> = Vec::new();
        for fa in &mut files {
            if fa.sites.is_empty() {
                continue;
            }
            let m = Arc::make_mut(fa);
            for site in &mut m.sites {
                site.id = BarrierId(sites.len() as u32);
                sites.push(site.clone());
            }
        }
        let pairing = pair_barriers_traced(&sites, &self.config, rec);
        let mut deviations = check_all_traced(&sites, &pairing, &files, &self.config, rec);
        if self.config.detect_missing {
            deviations.extend(crate::missing::detect_traced(
                &files,
                &sites,
                &pairing,
                &self.config,
                composed.as_ref(),
                rec,
            ));
        }
        // Inline suppression: drop findings whose anchor line (or the
        // line above it) carries an `ofence-ignore` comment. Happens
        // before patch synthesis so suppressed findings produce nothing.
        let before = deviations.len();
        deviations.retain(|d| !suppressed(d, &files));
        rec.count("suppressed", (before - deviations.len()) as u64);
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
            annotations.retain(|d| !suppressed(d, &files));
            let annotation_patches: Vec<Patch> = annotations
                .iter()
                .filter_map(|d| annotate::synthesize_annotation(d, &files[d.site.file]))
                .collect();
            (annotations, annotation_patches)
        };
        rec.count("annotations_emitted", annotations.len() as u64);
        let deviation_records = finding_records(&deviations, &sites, &files);
        let annotation_records = finding_records(&annotations, &sites, &files);
        // Close the root span so the snapshot contains it, then derive the
        // run's wall-clock from that span (replaces the old ad-hoc Instant).
        rec.close(root);
        let obs = rec.snapshot();
        let stats = Stats::compute(
            &files,
            &sites,
            &pairing,
            &deviations,
            patches.len(),
            &obs,
            self.slow_files,
        );
        AnalysisResult {
            run_id: fresh_run_id(&self.config),
            files,
            sites,
            pairing,
            deviations,
            patches,
            annotations,
            annotation_patches,
            deviation_records,
            annotation_records,
            stats,
            obs,
        }
    }

    /// Figure 6: number of pairings as a function of the write-barrier
    /// exploration window.
    pub fn sweep_write_window(
        files: &[SourceFile],
        base: &AnalysisConfig,
        windows: impl IntoIterator<Item = u32>,
    ) -> Vec<(u32, usize)> {
        windows
            .into_iter()
            .map(|w| {
                let mut engine = Engine::new(AnalysisConfig {
                    write_window: w,
                    ..base.clone()
                });
                let r = engine.analyze(files);
                (w, r.stats.pairings)
            })
            .collect()
    }
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
fn fresh_run_id(config: &AnalysisConfig) -> String {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let seed = format!(
        "{:016x}:{nanos}:{seq}:{}",
        crate::cache::config_fingerprint(config),
        std::process::id()
    );
    format!("run-{:016x}", fnv1a(seed.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let r2 = engine.analyze_incremental(&files);
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
        let r2 = engine.analyze_incremental(&files);
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
        let sweep = Engine::sweep_write_window(&files, &AnalysisConfig::default(), [1, 2, 5, 10]);
        assert_eq!(sweep.len(), 4);
        // Pairings never decrease with a larger window on this corpus.
        for w in sweep.windows(2) {
            assert!(w[1].1 >= w[0].1, "{sweep:?}");
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
        for p in &r.annotation_patches {
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
        for s in &r.sites {
            assert!(s
                .accesses
                .iter()
                .all(|a| a.object == crate::SharedObject::new("s", "flag")));
        }
        // One common object < 2 minimum: no pairing.
        assert!(r.pairing.pairings.is_empty());
    }
}
