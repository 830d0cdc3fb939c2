//! Persistent on-disk incremental cache (`.ofence-cache/`).
//!
//! The engine's per-file cache maps a path to `(content hash,
//! FileAnalysis)`. This module makes that map survive the process: it is
//! flushed to disk after a run and re-hydrated before the next one, so a
//! second `ofence analyze` (or every iteration of `ofence watch`) only
//! re-parses the files that actually changed.
//!
//! ## Format (v5)
//!
//! The cache is **sharded**: entries are distributed across
//! [`SHARD_COUNT`] (256) files, `shard-00.json` … `shard-255.json`, by an
//! FNV hash of the entry's path. Each shard is a self-contained JSON
//! document with its own header and entry list:
//!
//! ```json
//! {
//!   "format_version": 5,
//!   "summary_version": 1,
//!   "tool_version": "0.1.0",
//!   "config_fingerprint": 1234567890,
//!   "entries": [ { "path": "...", "hash": 42, "analysis": { ... } } ]
//! }
//! ```
//!
//! Sharding buys three things on monorepo-scale corpora:
//!
//! * **Dirty-shard saves.** A [`Store`] remembers which shards differ
//!   from the copy on disk, and a save writes only those. A one-file edit
//!   rewrites one shard — about 1/256 of the cache — instead of the
//!   whole cache. v3 had 16 shards and rewrote all of them on every
//!   save.
//! * **Parallel I/O.** A cold save or load spreads its shards over one
//!   worker per core.
//! * **Isolated corruption.** A truncated or hand-edited shard only drops
//!   its own entries (they become cold misses) instead of poisoning the
//!   whole cache.
//!
//! A shard is dirty when an entry in it was inserted or evicted, when it
//! was absent, corrupt or stale at load, when its last save failed, or
//! when the save goes to a different directory than the one the store
//! was loaded from or last saved to (or that directory has vanished).
//! Every other shard on disk already holds exactly the store's entries.
//! Shards written by different runs or processes can coexist: entries
//! are keyed by path *and* content hash, so at worst a stale shard means
//! a cold miss, never a wrong result.
//!
//! ## Invalidation rules
//!
//! A shard is **never trusted blindly**. The whole shard is discarded
//! (its entries simply re-analyzed cold) when any of these mismatch:
//!
//! * `format_version` — bumped whenever the serialized shape changes;
//! * `tool_version` — a different build may analyze differently;
//! * `config_fingerprint` — a hash of the full [`AnalysisConfig`], so a
//!   run with different windows/toggles never reuses results computed
//!   under other settings;
//! * any read or decode failure — an unreadable, truncated or
//!   hand-edited shard is dropped, not an error. Only a shard file that
//!   does not exist counts as absent; every other failure is a discard.
//!
//! Per entry, the engine additionally compares the stored content hash
//! against the current file content, so stale entries are simply misses.
//!
//! ## What is (and isn't) stored
//!
//! An entry holds only what the analysis under its config reads:
//!
//! * No source text: an entry is only ever used when its content hash
//!   matches the file on disk, so the engine restores
//!   `FileAnalysis::source` from the live corpus.
//! * Functions (CFG and AST) only for files with barrier sites. Every
//!   downstream consumer of `FileAnalysis::functions` (re-read dataflow
//!   gate, patch synthesis, annotation synthesis) reaches a function
//!   only through a barrier site in the same file, and the
//!   missing-barrier detector re-lowers from source; site-free files —
//!   most files of a realistic tree — store just `function_count`.
//! * Function summaries only when `ipa_depth > 0`: nothing else reads
//!   them, and the config fingerprint covers the depth, so a depth-0
//!   entry is never served to a composing run.

use crate::config::AnalysisConfig;
use crate::ir::BarrierSite;
use crate::sites::{FileAnalysis, FunctionInfo};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Bump on any change to the serialized cache shape.
/// v3: sharded container (`shard-NN.json` per path-hash bucket) replaced
/// the single monolithic `cache.json`.
/// v4: 256 shards instead of 16, so a dirty-shard save stays small.
/// v5: entries hold only what their config reads: no summaries at
/// `ipa_depth` 0, and a function count instead of name/span stubs for
/// site-free files.
pub const CACHE_FORMAT_VERSION: u32 = 5;

/// Number of shard files the cache is split into. Path-hash modulo; a
/// power of two so the bucket spread is uniform under FNV.
pub const SHARD_COUNT: usize = 256;

/// path -> (content hash, cached per-file analysis).
type Entries = HashMap<String, (u64, Arc<FileAnalysis>)>;

/// Per-shard load result: `None` = file absent, `Ok` = decoded entries,
/// `Err` = read failure, corruption or version reason.
type ShardOutcome = Option<Result<Vec<CacheEntry>, String>>;

/// Default cache directory name (relative to the working directory).
pub const DEFAULT_CACHE_DIR: &str = ".ofence-cache";

/// FNV-1a offset basis: the hash of no bytes.
pub(crate) const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Continue an FNV-1a hash `h` over `bytes`. Hashing a sequence of
/// fields this way equals [`content_hash`] of their concatenation,
/// without building it.
pub(crate) fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// FNV-1a content hash — the cache key component for file contents.
pub fn content_hash(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Which shard a path's entry lives in.
pub fn shard_of(path: &str) -> usize {
    (content_hash(path.as_bytes()) % SHARD_COUNT as u64) as usize
}

/// File name of shard `i` inside the cache directory.
pub fn shard_file_name(i: usize) -> String {
    format!("shard-{i:02}.json")
}

/// Fingerprint of the analysis configuration: any config change must
/// invalidate the cache, because cached `FileAnalysis` values embed
/// config-dependent decisions (window sizes, expansions, promotions).
pub fn config_fingerprint(config: &AnalysisConfig) -> u64 {
    let text = serde_json::to_string(config).expect("config serializes");
    content_hash(text.as_bytes())
}

/// What `load` found on disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoadOutcome {
    /// At least one valid shard was hydrated, `entries` total. Corrupt
    /// or stale sibling shards (if any) were dropped without poisoning
    /// the healthy ones — their entries just re-analyze cold.
    Loaded { entries: usize },
    /// No cache exists yet.
    Missing,
    /// A cache exists but nothing in it was usable; it was ignored.
    Discarded { reason: String },
}

#[derive(Serialize, Deserialize)]
struct CacheDoc {
    format_version: u32,
    /// Version of the cached [`crate::summary::FnSummary`] shape and its
    /// extraction rules — tracked separately from `format_version` so
    /// summary-only changes invalidate warm caches without renumbering
    /// the container format.
    summary_version: u32,
    tool_version: String,
    config_fingerprint: u64,
    entries: Vec<CacheEntry>,
}

#[derive(Serialize, Deserialize)]
struct CacheEntry {
    path: String,
    hash: u64,
    analysis: CachedFile,
}

/// `FileAnalysis` minus the source text, restored from the live corpus
/// on a hash match.
#[derive(Serialize, Deserialize)]
struct CachedFile {
    name: String,
    sites: Vec<BarrierSite>,
    /// Empty for site-free files, which keep only `function_count`.
    functions: Vec<FunctionInfo>,
    function_count: usize,
    parse_error_count: usize,
    /// Per-function summaries for the inter-procedural composition pass;
    /// cached so a warm run composes without re-parsing unchanged files.
    /// Empty unless the config composes (`ipa_depth > 0`).
    summaries: Vec<crate::summary::FnSummary>,
    /// Window calls aligned with `sites` (see [`FileAnalysis`]).
    window_calls: Vec<Vec<crate::summary::WindowCall>>,
}

impl CachedFile {
    fn from_analysis(fa: &FileAnalysis) -> CachedFile {
        CachedFile {
            name: fa.name.clone(),
            sites: fa.sites.clone(),
            functions: fa.functions.clone(),
            function_count: fa.function_count,
            parse_error_count: fa.parse_error_count,
            summaries: fa.summaries.clone(),
            window_calls: fa.window_calls.clone(),
        }
    }

    fn into_analysis(self) -> FileAnalysis {
        FileAnalysis {
            file: 0, // re-indexed by the engine on every hit
            name: self.name,
            source: "".into(), // restored from the live corpus
            sites: self.sites,
            functions: self.functions,
            function_count: self.function_count,
            parse_error_count: self.parse_error_count,
            summaries: self.summaries,
            window_calls: self.window_calls,
        }
    }
}

fn doc_header_error(doc: &CacheDoc, fp: u64) -> Option<String> {
    if doc.format_version != CACHE_FORMAT_VERSION {
        return Some(format!(
            "format version {} (expected {CACHE_FORMAT_VERSION})",
            doc.format_version
        ));
    }
    if doc.summary_version != crate::summary::SUMMARY_VERSION {
        return Some(format!(
            "summary version {} (expected {})",
            doc.summary_version,
            crate::summary::SUMMARY_VERSION
        ));
    }
    if doc.tool_version != env!("CARGO_PKG_VERSION") {
        return Some(format!(
            "written by ofence {} (this is {})",
            doc.tool_version,
            env!("CARGO_PKG_VERSION")
        ));
    }
    if doc.config_fingerprint != fp {
        return Some("analysis configuration changed".to_string());
    }
    None
}

/// Decode one shard's text into its entries, or the reason it is
/// unusable. Each shard carries a full header, so a stale or truncated
/// shard invalidates only itself.
fn decode_shard(text: &str, fp: u64) -> Result<Vec<CacheEntry>, String> {
    let doc: CacheDoc = serde_json::from_str(text).map_err(|e| format!("unreadable cache: {e}"))?;
    match doc_header_error(&doc, fp) {
        Some(reason) => Err(reason),
        None => Ok(doc.entries),
    }
}

fn encode_doc(mut entries: Vec<CacheEntry>, fp: u64) -> String {
    entries.sort_by(|a, b| a.path.cmp(&b.path));
    let doc = CacheDoc {
        format_version: CACHE_FORMAT_VERSION,
        summary_version: crate::summary::SUMMARY_VERSION,
        tool_version: env!("CARGO_PKG_VERSION").to_string(),
        config_fingerprint: fp,
        entries,
    };
    serde_json::to_string(&doc).expect("cache serializes")
}

/// Read and decode every shard in `dir`, in parallel. Only a shard that
/// does not exist is absent: any other read failure (permissions, a
/// directory in its place, invalid UTF-8) is that shard's discard reason.
fn read_shards(dir: &Path, fp: u64) -> Vec<ShardOutcome> {
    let slots: Vec<(usize, Mutex<ShardOutcome>)> =
        (0..SHARD_COUNT).map(|i| (i, Mutex::new(None))).collect();
    crate::pool::for_each(&slots, None, |_w, (i, slot)| {
        let path = dir.join(shard_file_name(*i));
        let outcome = match std::fs::read_to_string(&path) {
            Ok(text) => Some(decode_shard(&text, fp)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => Some(Err(format!("unreadable shard {}: {e}", path.display()))),
        };
        *slot.lock().expect("shard slot") = outcome;
    });
    slots
        .into_iter()
        .map(|(_, slot)| slot.into_inner().expect("shard slot"))
        .collect()
}

/// The entries of every usable shard, what the load amounts to, and
/// which shards were usable.
fn hydrate(outcomes: Vec<ShardOutcome>) -> (Entries, LoadOutcome, Vec<bool>) {
    let mut map = HashMap::new();
    let mut valid = vec![false; SHARD_COUNT];
    let mut entries = 0usize;
    let mut present = 0usize;
    let mut first_reason: Option<String> = None;
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let Some(result) = outcome else { continue };
        present += 1;
        match result {
            Ok(shard_entries) => {
                valid[i] = true;
                entries += shard_entries.len();
                for e in shard_entries {
                    map.insert(e.path, (e.hash, Arc::new(e.analysis.into_analysis())));
                }
            }
            Err(reason) => {
                if first_reason.is_none() {
                    first_reason = Some(reason);
                }
            }
        }
    }
    let outcome = match first_reason {
        // Some shards were unusable but others loaded: partial hydration.
        Some(_) if entries > 0 => LoadOutcome::Loaded { entries },
        Some(reason) => LoadOutcome::Discarded { reason },
        None if present == 0 => LoadOutcome::Missing,
        None => LoadOutcome::Loaded { entries },
    };
    (map, outcome, valid)
}

/// What one [`Store::save`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SaveStats {
    /// Entries in the store, all of them now on disk.
    pub entries: usize,
    /// Shard files written; the others already matched the store.
    pub shards_written: usize,
}

/// The engine's per-file cache, plus what a save needs to write only the
/// shards that changed (see the module docs for the dirty rules).
#[derive(Debug)]
pub(crate) struct Store {
    entries: Entries,
    /// Per shard: its entries may differ from the copy in `synced`.
    dirty: Vec<bool>,
    /// The directory whose clean shards match `entries`: the last load or
    /// save target. `None` until then, when every shard is dirty.
    synced: Option<PathBuf>,
}

impl Default for Store {
    fn default() -> Store {
        Store {
            entries: HashMap::new(),
            dirty: vec![true; SHARD_COUNT],
            synced: None,
        }
    }
}

impl Store {
    /// `path`'s entry. Edits through it dirty no shard: the engine only
    /// re-stamps the corpus position and restores the source text, which
    /// every hit on a loaded entry redoes anyway.
    pub fn get_mut(&mut self, path: &str) -> Option<&mut (u64, Arc<FileAnalysis>)> {
        self.entries.get_mut(path)
    }

    /// Insert or replace `path`'s entry, dirtying its shard.
    pub fn insert(&mut self, path: String, hash: u64, analysis: Arc<FileAnalysis>) {
        self.dirty[shard_of(&path)] = true;
        self.entries.insert(path, (hash, analysis));
    }

    /// Evict every entry whose path fails `keep`, dirtying the evicted
    /// entries' shards. Returns how many were evicted.
    pub fn retain(&mut self, keep: impl Fn(&str) -> bool) -> usize {
        let dirty = &mut self.dirty;
        let before = self.entries.len();
        self.entries.retain(|path, _| {
            let kept = keep(path);
            if !kept {
                dirty[shard_of(path)] = true;
            }
            kept
        });
        before - self.entries.len()
    }

    /// Which shards a save to `dir` would write.
    pub fn dirty_shards(&self, dir: &Path) -> Vec<usize> {
        let all = self.synced.as_deref() != Some(dir) || !dir.is_dir();
        (0..SHARD_COUNT).filter(|&i| all || self.dirty[i]).collect()
    }

    /// Merge the cache in `dir` into the store (disk entries win) and
    /// return how many entries it held. Never fails: stale or corrupt
    /// shards are dropped (reported in the outcome only when *nothing* was
    /// usable) and treated as empty. Shards are read and decoded in
    /// parallel. Afterwards a shard is clean iff it loaded cleanly and the
    /// store held none of its paths before.
    pub fn load(&mut self, dir: &Path, config: &AnalysisConfig) -> (usize, LoadOutcome) {
        let (map, outcome, valid) = hydrate(read_shards(dir, config_fingerprint(config)));
        let mut held = vec![false; SHARD_COUNT];
        for path in self.entries.keys() {
            held[shard_of(path)] = true;
        }
        for i in 0..SHARD_COUNT {
            self.dirty[i] = held[i] || !valid[i];
        }
        self.synced = Some(dir.to_path_buf());
        let loaded = map.len();
        self.entries.extend(map);
        (loaded, outcome)
    }

    /// Write the dirty shards to `dir` (created if needed), in parallel,
    /// each to a temporary file first and renamed, so a crashed writer
    /// never leaves a truncated shard behind. A shard whose write fails
    /// stays dirty for the next save; the first error is returned.
    pub fn save(&mut self, dir: &Path, config: &AnalysisConfig) -> Result<SaveStats, String> {
        let todo = self.dirty_shards(dir);
        let mut stats = SaveStats {
            entries: self.entries.len(),
            shards_written: 0,
        };
        if todo.is_empty() {
            return Ok(stats);
        }
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let fp = config_fingerprint(config);
        let mut buckets: Vec<Option<Vec<CacheEntry>>> = (0..SHARD_COUNT).map(|_| None).collect();
        for &i in &todo {
            buckets[i] = Some(Vec::new());
        }
        for (path, (hash, fa)) in &self.entries {
            if let Some(bucket) = &mut buckets[shard_of(path)] {
                bucket.push(CacheEntry {
                    path: path.clone(),
                    hash: *hash,
                    analysis: CachedFile::from_analysis(fa),
                });
            }
        }
        let jobs: Vec<(usize, Mutex<Vec<CacheEntry>>)> = todo
            .iter()
            .map(|&i| (i, Mutex::new(buckets[i].take().unwrap_or_default())))
            .collect();
        let results = Mutex::new(Vec::with_capacity(jobs.len()));
        crate::pool::for_each(&jobs, None, |_w, (i, entries)| {
            let entries = std::mem::take(&mut *entries.lock().expect("shard slot"));
            let result = write_shard(dir, *i, encode_doc(entries, fp));
            results.lock().expect("shard results").push((*i, result));
        });
        let mut first_error = None;
        for (i, result) in results.into_inner().expect("shard results") {
            match result {
                Ok(()) => {
                    self.dirty[i] = false;
                    stats.shards_written += 1;
                }
                Err(e) => {
                    self.dirty[i] = true;
                    first_error.get_or_insert(e);
                }
            }
        }
        self.synced = Some(dir.to_path_buf());
        match first_error {
            Some(e) => Err(e),
            None => Ok(stats),
        }
    }
}

/// Write shard `i`'s text via a temporary file and a rename.
fn write_shard(dir: &Path, i: usize, text: String) -> Result<(), String> {
    let name = shard_file_name(i);
    let tmp = dir.join(format!("{name}.tmp.{}", std::process::id()));
    let path = dir.join(&name);
    std::fs::write(&tmp, text)
        .map_err(|e| format!("{}: {e}", tmp.display()))
        .and_then(|()| std::fs::rename(&tmp, &path).map_err(|e| format!("{}: {e}", path.display())))
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, SourceFile};

    /// Load `dir` into a fresh store, as the engine does, and hand back
    /// its entries.
    fn load(dir: &Path, config: &AnalysisConfig) -> (Entries, LoadOutcome) {
        let mut store = Store::default();
        let (_, outcome) = store.load(dir, config);
        (store.entries, outcome)
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ofence-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn demo_files() -> Vec<SourceFile> {
        vec![
            SourceFile::new(
                "m.c",
                r#"struct m { int init; int y; };
void reader(struct m *a) { if (!a->init) return; smp_rmb(); f(a->y); }
void writer(struct m *b) { b->y = 1; smp_wmb(); b->init = 1; }
"#,
            ),
            SourceFile::new("plain.c", "int helper(int x) { return x + 1; }\n"),
        ]
    }

    /// The shard file holding `path`'s entry for the current layout.
    fn shard_path(dir: &Path, path: &str) -> std::path::PathBuf {
        dir.join(shard_file_name(shard_of(path)))
    }

    #[test]
    fn roundtrip_preserves_results() {
        let dir = tempdir("roundtrip");
        let config = AnalysisConfig::default();
        let files = demo_files();

        let mut e1 = Engine::new(config.clone());
        let r1 = e1.analyze(&files);
        e1.save_disk_cache(&dir).unwrap();

        let mut e2 = Engine::new(config.clone());
        let outcome = e2.load_disk_cache(&dir);
        assert_eq!(outcome, LoadOutcome::Loaded { entries: 2 });
        let r2 = e2.analyze(&files);
        assert_eq!(r2.obs.count_of("engine_cache_hits"), 2);
        assert_eq!(r2.obs.count_of("cache_loads"), 2);
        assert_eq!(r1.sites.len(), r2.sites.len());
        assert_eq!(r1.pairing.pairings.len(), r2.pairing.pairings.len());
        assert_eq!(r1.deviations.len(), r2.deviations.len());
        assert_eq!(r1.annotations.len(), r2.annotations.len());
        // Sources are restored from the live corpus, not the cache file.
        for (a, b) in r1.files.iter().zip(&r2.files) {
            assert_eq!(a.source, b.source);
            assert_eq!(a.functions.len(), b.functions.len());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The sharded on-disk layout is an implementation detail: a save →
    /// load cycle hydrates exactly the map a single-document round-trip
    /// through the same entry codec would produce.
    #[test]
    fn sharded_roundtrip_equals_monolithic() {
        let dir = tempdir("shard-eq-mono");
        let config = AnalysisConfig::default();
        let mut e = Engine::new(config.clone());
        e.analyze(&demo_files());
        e.save_disk_cache(&dir).unwrap();
        let (sharded, outcome) = load(&dir, &config);
        assert_eq!(outcome, LoadOutcome::Loaded { entries: 2 });

        // Monolithic reference: all entries through one CacheDoc.
        let fp = config_fingerprint(&config);
        let entries: Vec<CacheEntry> = sharded
            .iter()
            .map(|(path, (hash, fa))| CacheEntry {
                path: path.clone(),
                hash: *hash,
                analysis: CachedFile::from_analysis(fa),
            })
            .collect();
        let mono = decode_shard(&encode_doc(entries, fp), fp).unwrap();
        assert_eq!(mono.len(), sharded.len());
        for e in mono {
            let (hash, fa) = &sharded[&e.path];
            assert_eq!(e.hash, *hash);
            let rebuilt = e.analysis.into_analysis();
            assert_eq!(rebuilt.name, fa.name);
            assert_eq!(
                serde_json::to_string(&rebuilt.sites).unwrap(),
                serde_json::to_string(&fa.sites).unwrap()
            );
            assert_eq!(rebuilt.parse_error_count, fa.parse_error_count);
            assert_eq!(rebuilt.summaries.len(), fa.summaries.len());
            assert_eq!(
                serde_json::to_string(&rebuilt.window_calls).unwrap(),
                serde_json::to_string(&fa.window_calls).unwrap()
            );
            assert_eq!(rebuilt.functions.len(), fa.functions.len());
            assert_eq!(rebuilt.function_count, fa.function_count);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Corrupting one shard drops only its entries; sibling shards stay
    /// hydrated, and the engine's counters match what an undamaged cache
    /// would produce for the surviving entries.
    #[test]
    fn corrupt_shard_does_not_poison_siblings() {
        let dir = tempdir("shard-isolate");
        let config = AnalysisConfig::default();
        let files = demo_files();
        // The two demo paths must land in different shards for the test
        // to mean anything.
        assert_ne!(shard_of("m.c"), shard_of("plain.c"));

        let mut e = Engine::new(config.clone());
        e.analyze(&files);
        e.save_disk_cache(&dir).unwrap();

        std::fs::write(shard_path(&dir, "m.c"), "{ truncated").unwrap();
        let (map, outcome) = load(&dir, &config);
        assert_eq!(outcome, LoadOutcome::Loaded { entries: 1 });
        assert!(map.contains_key("plain.c"));
        assert!(!map.contains_key("m.c"));

        // A warm engine over the damaged cache: one hit, one re-analysis.
        let mut warm = Engine::new(config.clone());
        warm.load_disk_cache(&dir);
        let r = warm.analyze(&files);
        assert_eq!(r.obs.count_of("engine_cache_hits"), 1);
        assert_eq!(r.obs.count_of("engine_files_analyzed"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Eviction and hit counters behave identically whether the cache
    /// came from a sharded disk load or was built in-process — sharding
    /// must be invisible to the engine's accounting.
    #[test]
    fn shard_load_matches_in_process_counters() {
        let dir = tempdir("shard-counters");
        let config = AnalysisConfig::default();
        let files = demo_files();

        // Baseline: warm run against the in-process cache.
        let mut live = Engine::new(config.clone());
        live.analyze(&files);
        let live_warm = live.analyze(&files);

        // Same corpus, warm run against a disk-hydrated cache.
        let mut writer = Engine::new(config.clone());
        writer.analyze(&files);
        writer.save_disk_cache(&dir).unwrap();
        let mut loaded = Engine::new(config.clone());
        loaded.load_disk_cache(&dir);
        let loaded_warm = loaded.analyze(&files);

        for counter in [
            "engine_cache_hits",
            "cache_evictions",
            "engine_files_analyzed",
        ] {
            assert_eq!(
                live_warm.obs.count_of(counter),
                loaded_warm.obs.count_of(counter),
                "{counter} diverged between in-process and sharded-load caches"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Inode of every shard file present in `dir`.
    fn inodes(dir: &Path) -> Vec<Option<u64>> {
        use std::os::unix::fs::MetadataExt;
        (0..SHARD_COUNT)
            .map(|i| {
                std::fs::metadata(dir.join(shard_file_name(i)))
                    .ok()
                    .map(|m| m.ino())
            })
            .collect()
    }

    fn changed(before: &[Option<u64>], after: &[Option<u64>]) -> Vec<usize> {
        (0..SHARD_COUNT)
            .filter(|&i| before[i] != after[i])
            .collect()
    }

    #[test]
    fn cold_save_writes_every_shard_and_a_clean_save_none() {
        let dir = tempdir("dirty-cold");
        let mut e = Engine::new(AnalysisConfig::default());
        e.analyze(&demo_files());
        let mut store = std::mem::take(&mut e.cache);
        let stats = store.save(&dir, &e.config).unwrap();
        assert_eq!(
            stats,
            SaveStats {
                entries: 2,
                shards_written: SHARD_COUNT
            }
        );
        assert!(inodes(&dir).iter().all(Option::is_some));
        assert_eq!(store.save(&dir, &e.config).unwrap().shards_written, 0);
        // Another directory has none of the shards yet.
        let other = dir.join("elsewhere");
        assert_eq!(
            store.save(&other, &e.config).unwrap().shards_written,
            SHARD_COUNT
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_edit_after_a_warm_load_rewrites_one_shard() {
        let dir = tempdir("dirty-edit");
        let config = AnalysisConfig::default();
        let mut files = demo_files();
        let mut cold = Engine::new(config.clone());
        cold.analyze(&files);
        cold.save_disk_cache(&dir).unwrap();

        let mut warm = Engine::new(config.clone());
        warm.load_disk_cache(&dir);
        let before = inodes(&dir);
        files[1] = SourceFile::new("plain.c", "int helper(int x) { return x + 2; }\n");
        warm.analyze(&files);
        warm.save_disk_cache(&dir).unwrap();
        assert_eq!(changed(&before, &inodes(&dir)), [shard_of("plain.c")]);
        let r = warm.analyze(&files);
        assert_eq!(r.obs.count_of("cache_shards_written"), 1);

        // Nothing changed since: the next save writes nothing.
        warm.save_disk_cache(&dir).unwrap();
        let r = warm.analyze(&files);
        assert_eq!(r.obs.count_of("cache_shards_written"), 0);

        // The rewritten shard loads warm.
        let mut again = Engine::new(config);
        again.load_disk_cache(&dir);
        assert_eq!(again.analyze(&files).obs.count_of("engine_cache_hits"), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_dirties_the_evicted_path_shard() {
        let dir = tempdir("dirty-evict");
        let config = AnalysisConfig::default();
        let files = demo_files();
        let mut e = Engine::new(config.clone());
        e.analyze(&files);
        e.save_disk_cache(&dir).unwrap();
        assert!(e.cache.dirty_shards(&dir).is_empty());
        e.analyze(&files[..1]);
        assert_eq!(e.cache.dirty_shards(&dir), [shard_of("plain.c")]);
        e.save_disk_cache(&dir).unwrap();
        let (map, _) = load(&dir, &config);
        assert!(map.contains_key("m.c") && !map.contains_key("plain.c"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_or_missing_shards_load_dirty() {
        let dir = tempdir("dirty-load");
        let config = AnalysisConfig::default();
        let mut e = Engine::new(config.clone());
        e.analyze(&demo_files());
        e.save_disk_cache(&dir).unwrap();
        std::fs::write(shard_path(&dir, "m.c"), "{ truncated").unwrap();
        std::fs::remove_file(shard_path(&dir, "plain.c")).unwrap();
        let mut store = Store::default();
        store.load(&dir, &config);
        let mut expected = vec![shard_of("m.c"), shard_of("plain.c")];
        expected.sort();
        assert_eq!(store.dirty_shards(&dir), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_saves_leave_their_shards_dirty() {
        let root = tempdir("dirty-fail");
        let dir = root.join("cache");
        let config = AnalysisConfig::default();
        let mut e = Engine::new(config.clone());
        e.analyze(&demo_files());

        // A file where the directory should be: nothing can be written.
        std::fs::write(&dir, "blocker").unwrap();
        assert!(e.save_disk_cache(&dir).is_err());
        std::fs::remove_file(&dir).unwrap();
        assert_eq!(e.cache.dirty_shards(&dir).len(), SHARD_COUNT);
        assert_eq!(
            e.cache.save(&dir, &config).unwrap().shards_written,
            SHARD_COUNT
        );

        // A directory where one shard should be: only that shard fails,
        // and only it is written once the blocker is gone.
        let blocked = shard_of("plain.c");
        let shard = dir.join(shard_file_name(blocked));
        std::fs::remove_file(&shard).unwrap();
        std::fs::create_dir(&shard).unwrap();
        e.analyze(&demo_files()[..1]);
        assert!(e.save_disk_cache(&dir).is_err());
        assert_eq!(e.cache.dirty_shards(&dir), [blocked]);
        assert!(std::fs::read_dir(&dir).unwrap().all(|f| !f
            .unwrap()
            .file_name()
            .to_string_lossy()
            .contains(".tmp.")));
        std::fs::remove_dir(&shard).unwrap();
        assert_eq!(e.cache.save(&dir, &config).unwrap().shards_written, 1);
        let (map, _) = load(&dir, &config);
        assert_eq!(map.len(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_cache_reported() {
        let dir = tempdir("missing");
        let (map, outcome) = load(&dir.join("nope"), &AnalysisConfig::default());
        assert!(map.is_empty());
        assert_eq!(outcome, LoadOutcome::Missing);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_discarded() {
        let dir = tempdir("corrupt");
        for i in 0..SHARD_COUNT {
            std::fs::write(dir.join(shard_file_name(i)), "{ not json").unwrap();
        }
        let (map, outcome) = load(&dir, &AnalysisConfig::default());
        assert!(map.is_empty());
        assert!(
            matches!(outcome, LoadOutcome::Discarded { .. }),
            "{outcome:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A shard that exists but cannot be read is a discard, not an absent
    /// cache: a directory in one shard's place and non-UTF-8 bytes in all
    /// the others load as `Discarded`, and the engine counts it.
    #[test]
    fn unreadable_shards_are_discarded_not_missing() {
        let dir = tempdir("unreadable");
        std::fs::create_dir(dir.join(shard_file_name(0))).unwrap();
        for i in 1..SHARD_COUNT {
            std::fs::write(dir.join(shard_file_name(i)), [0xff, 0xfe, b'{']).unwrap();
        }
        let (map, outcome) = load(&dir, &AnalysisConfig::default());
        assert!(map.is_empty());
        match outcome {
            LoadOutcome::Discarded { reason } => assert!(reason.contains("shard-00"), "{reason}"),
            other => panic!("{other:?}"),
        }
        let mut e = Engine::new(AnalysisConfig::default());
        e.load_disk_cache(&dir);
        assert_eq!(e.analyze(&demo_files()).obs.count_of("cache_discarded"), 1);

        // A lone unreadable shard beside healthy ones drops only itself.
        let _ = std::fs::remove_dir_all(&dir);
        e.save_disk_cache(&dir).unwrap();
        std::fs::write(shard_path(&dir, "plain.c"), [0xff, 0xfe]).unwrap();
        let (map, outcome) = load(&dir, &AnalysisConfig::default());
        assert_eq!(outcome, LoadOutcome::Loaded { entries: 1 });
        assert!(map.contains_key("m.c") && !map.contains_key("plain.c"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn format_version_mismatch_discarded() {
        let dir = tempdir("version");
        let config = AnalysisConfig::default();
        let mut e = Engine::new(config.clone());
        e.analyze(&demo_files());
        e.save_disk_cache(&dir).unwrap();
        for i in 0..SHARD_COUNT {
            let path = dir.join(shard_file_name(i));
            let text = std::fs::read_to_string(&path).unwrap().replacen(
                &format!("\"format_version\":{CACHE_FORMAT_VERSION}"),
                "\"format_version\":999",
                1,
            );
            std::fs::write(&path, text).unwrap();
        }
        let (map, outcome) = load(&dir, &config);
        assert!(map.is_empty());
        match outcome {
            LoadOutcome::Discarded { reason } => assert!(reason.contains("format version")),
            other => panic!("{other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_change_discards_cache() {
        let dir = tempdir("config");
        let mut e = Engine::new(AnalysisConfig::default());
        e.analyze(&demo_files());
        e.save_disk_cache(&dir).unwrap();
        let other = AnalysisConfig {
            write_window: 9,
            ..Default::default()
        };
        let (map, outcome) = load(&dir, &other);
        assert!(map.is_empty());
        match outcome {
            LoadOutcome::Discarded { reason } => assert!(reason.contains("configuration")),
            other => panic!("{other:?}"),
        }
        // The original config still loads.
        let (map, outcome) = load(&dir, &AnalysisConfig::default());
        assert_eq!(map.len(), 2);
        assert_eq!(outcome, LoadOutcome::Loaded { entries: 2 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_depends_on_config() {
        let a = config_fingerprint(&AnalysisConfig::default());
        let b = config_fingerprint(&AnalysisConfig {
            read_window: 7,
            ..Default::default()
        });
        assert_ne!(a, b);
    }

    /// A warm cache written at one `--ipa-depth` must not be silently
    /// reused at another: depth-0 entries carry no summaries, and the
    /// composed accesses derived from them depend on the depth, so the
    /// fingerprint has to cover the depth.
    #[test]
    fn ipa_depth_change_discards_cache() {
        let dir = tempdir("ipa-depth");
        let mut e = Engine::new(AnalysisConfig::default());
        e.analyze(&demo_files());
        e.save_disk_cache(&dir).unwrap();
        let deep = AnalysisConfig {
            ipa_depth: 2,
            ..Default::default()
        };
        assert_ne!(
            config_fingerprint(&AnalysisConfig::default()),
            config_fingerprint(&deep)
        );
        let (map, outcome) = load(&dir, &deep);
        assert!(map.is_empty());
        match outcome {
            LoadOutcome::Discarded { reason } => assert!(reason.contains("configuration")),
            other => panic!("{other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn site_free_files_round_trip_as_a_function_count() {
        let dir = tempdir("slim");
        let config = AnalysisConfig::default();
        let files = demo_files();
        let mut cold = Engine::new(config.clone());
        let r_cold = cold.analyze(&files);
        cold.save_disk_cache(&dir).unwrap();
        let text = std::fs::read_to_string(shard_path(&dir, "plain.c")).unwrap();
        // plain.c has no barriers: nothing of helper is stored.
        assert!(!text.contains("helper"), "expected slim entry: {text}");
        let (map, _) = load(&dir, &config);
        let (_, fa) = &map["plain.c"];
        assert!(fa.functions.is_empty());
        assert_eq!(fa.function_count, 1);

        let mut warm = Engine::new(config);
        warm.load_disk_cache(&dir);
        let r_warm = warm.analyze(&files);
        assert_eq!(r_warm.obs.count_of("engine_cache_hits"), 2);
        assert_eq!(r_cold.stats.functions_total, 3);
        assert_eq!(r_warm.stats.functions_total, r_cold.stats.functions_total);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
