//! The performance ledger: `.ofence/perf.jsonl`.
//!
//! Where [`crate::history`] records *what* a run found (findings with
//! stable fingerprints, for diffing), this ledger records *how fast* it
//! ran: phase timings, throughput, cache economics, and worker
//! utilization. Every analysis session run (CLI, watch, daemon) and the
//! scale benchmark (`--perf-ledger`) append one [`PerfRecord`] line.
//!
//! `ofence perf` reads the ledger back as a trend table, and
//! `ofence perf --gate --max-regress-pct <p>` turns it into a CI
//! regression gate: the newest record is compared against the median
//! elapsed time of earlier *comparable* records (same config
//! fingerprint, same corpus size, same cold/warm mode), and the command
//! exits non-zero if it is more than `p` percent slower.
//!
//! All three ledgers (history, perf, requests) share one file format and
//! one pair of functions, [`append_to`] and [`load_file`]: one JSON object
//! per line, corrupt lines skipped on load, appends never rewrite
//! existing lines.

use crate::engine::AnalysisResult;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Ledger file name inside the history directory (next to
/// [`crate::history::HISTORY_FILE_NAME`]).
pub const PERF_FILE_NAME: &str = "perf.jsonl";

/// Request ledger file name inside the history directory: one line per
/// completed daemon request (`ofence perf --requests` reads it back).
pub const REQUESTS_FILE_NAME: &str = "requests.jsonl";

/// One request ledger line: who asked, what happened, how long it took.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RequestRecord {
    /// The id echoed in the wire response (client-supplied or
    /// server-assigned).
    pub request_id: String,
    /// Milliseconds since the Unix epoch at record time.
    pub timestamp_ms: u64,
    pub method: String,
    pub ok: bool,
    pub latency_us: u64,
    /// True when the request joined another request's in-flight run.
    pub coalesced: bool,
    /// The analysis run the request returned, if it reached one.
    pub run_id: Option<String>,
}

/// Build the ledger record of one completed daemon request.
pub fn request_record_of(
    request_id: &str,
    method: &str,
    ok: bool,
    latency_us: u64,
    coalesced: bool,
    run_id: Option<String>,
) -> RequestRecord {
    RequestRecord {
        request_id: request_id.to_string(),
        timestamp_ms: now_ms(),
        method: method.to_string(),
        ok,
        latency_us,
        coalesced,
        run_id,
    }
}

/// Path of the request ledger file inside `dir`.
pub fn requests_path(dir: &Path) -> PathBuf {
    dir.join(REQUESTS_FILE_NAME)
}

/// Append one request record to the ledger in `dir`.
pub fn append_request(dir: &Path, record: &RequestRecord) -> Result<(), String> {
    append_to(&requests_path(dir), record)
}

/// Load every parseable request record from `dir`'s ledger (see
/// [`load_file`]).
pub fn load_requests(dir: &Path) -> Result<(Vec<RequestRecord>, usize), String> {
    load_file(&requests_path(dir))
}

/// Render per-method latency trends over the last `last` request records
/// as a fixed-width table. Used by `ofence perf --requests`.
pub fn render_request_trends(records: &[RequestRecord], last: usize) -> String {
    let mut out = String::new();
    if records.is_empty() {
        out.push_str("request ledger is empty\n");
        return out;
    }
    let start = records.len().saturating_sub(last);
    let window = &records[start..];
    let mut by_method: BTreeMap<&str, Vec<&RequestRecord>> = BTreeMap::new();
    for r in window {
        by_method.entry(r.method.as_str()).or_default().push(r);
    }
    out.push_str(&format!(
        "{:<14} {:>6} {:>6} {:>9} {:>9} {:>9} {:>9}\n",
        "method", "count", "errors", "coalesced", "p50_us", "p95_us", "p99_us"
    ));
    for (method, rs) in &by_method {
        let mut latencies: Vec<u64> = rs.iter().map(|r| r.latency_us).collect();
        let (p50, p95, p99) = obs::quantiles_us(&mut latencies);
        out.push_str(&format!(
            "{:<14} {:>6} {:>6} {:>9} {:>9} {:>9} {:>9}\n",
            method,
            rs.len(),
            rs.iter().filter(|r| !r.ok).count(),
            rs.iter().filter(|r| r.coalesced).count(),
            p50,
            p95,
            p99
        ));
    }
    out.push_str(&format!(
        "{} of {} requests shown across {} methods\n",
        window.len(),
        records.len(),
        by_method.len()
    ));
    out
}

/// One perf ledger line: the timing and throughput profile of one run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerfRecord {
    pub run_id: String,
    /// Milliseconds since the Unix epoch at record time.
    pub timestamp_ms: u64,
    pub tool_version: String,
    /// [`crate::cache::config_fingerprint`] of the analysis config.
    /// Records with different fingerprints are never compared by the
    /// gate — a config change legitimately changes the cost profile.
    pub config_fingerprint: String,
    pub files_total: usize,
    /// True when the run started without a usable cache (first run, or
    /// the bench's cold pass). Cold and warm runs have different cost
    /// profiles, so the gate only compares like with like.
    pub cold: bool,
    pub cache_hits: u64,
    pub cache_loads: u64,
    pub cache_evictions: u64,
    /// Worker threads of the parallel per-file phase, and their summed
    /// busy/idle time in microseconds.
    pub workers: usize,
    pub worker_busy_us: u64,
    pub worker_idle_us: u64,
    /// Wall-clock of the run in milliseconds, and the derived
    /// throughput.
    pub elapsed_ms: u64,
    pub files_per_sec: f64,
    /// Per-phase wall time in microseconds, from the obs recorder.
    pub phase_us: BTreeMap<String, u64>,
    pub deviations_total: usize,
}

/// Build the perf record of a finished run. The third argument is
/// ignored: it carried watch's iteration wall-clock, which records no
/// longer hold (older ledger lines with an `iteration_us` still load).
pub fn record_of(
    result: &AnalysisResult,
    config: &crate::config::AnalysisConfig,
    _iteration_us: Option<u64>,
) -> PerfRecord {
    let stats = &result.stats;
    let cache_hits = result.obs.count_of("engine_cache_hits");
    let elapsed_ms = stats.elapsed_ms;
    let files_per_sec = if elapsed_ms > 0 {
        stats.files_total as f64 * 1000.0 / elapsed_ms as f64
    } else {
        0.0
    };
    PerfRecord {
        run_id: result.run_id.clone(),
        timestamp_ms: now_ms(),
        tool_version: env!("CARGO_PKG_VERSION").to_string(),
        config_fingerprint: format!("{:016x}", crate::cache::config_fingerprint(config)),
        files_total: stats.files_total,
        cold: cache_hits == 0,
        cache_hits,
        cache_loads: result.obs.count_of("cache_loads"),
        cache_evictions: result.obs.count_of("cache_evictions"),
        workers: stats.workers,
        worker_busy_us: stats.worker_busy_us,
        worker_idle_us: stats.worker_idle_us,
        elapsed_ms,
        files_per_sec,
        phase_us: stats.phase_us.clone(),
        deviations_total: stats.deviations_total,
    }
}

/// Path of the perf ledger file inside `dir`.
pub fn ledger_path(dir: &Path) -> PathBuf {
    dir.join(PERF_FILE_NAME)
}

/// Append one record to the ledger in `dir`, creating the directory and
/// file on first use.
pub fn append(dir: &Path, record: &PerfRecord) -> Result<(), String> {
    append_to(&ledger_path(dir), record)
}

/// Milliseconds since the Unix epoch: every ledger record's timestamp.
pub(crate) fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Append one record as a JSON line to a ledger file, creating its
/// directory and the file on first use (the bench's `--perf-ledger FILE`
/// path, and under every ledger's `append`).
///
/// All appends in the process go through one shared appender per ledger
/// file: several sessions in one process can write the same
/// `.ofence/perf.jsonl`, and two writers opening the file
/// independently could interleave partial lines. The appender serializes
/// whole-line writes under a per-file mutex (and each write is a single
/// `O_APPEND` `write_all`, so even writers in *different* processes
/// interleave at line granularity on POSIX).
pub fn append_to<T: Serialize>(path: &Path, record: &T) -> Result<(), String> {
    let mut line =
        serde_json::to_string(record).map_err(|e| format!("serialize ledger record: {e}"))?;
    line.push('\n');
    appender_for(path)?.append(line.as_bytes())
}

/// One ledger file's process-wide append handle.
struct Appender {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

impl Appender {
    fn append(&self, line: &[u8]) -> Result<(), String> {
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        // The ledger can be rotated or deleted externally while the
        // daemon runs; a cached handle would then append to the unlinked
        // inode and silently lose the record. Re-stat the path before
        // every write and reopen when the handle no longer matches.
        if !handle_is_current(&file, &self.path) {
            if let Some(parent) = self.path.parent() {
                if !parent.as_os_str().is_empty() {
                    let _ = std::fs::create_dir_all(parent);
                }
            }
            *file = open_append(&self.path)?;
        }
        file.write_all(line)
            .map_err(|e| format!("append to {}: {e}", self.path.display()))
    }
}

/// True when the open handle still refers to the file at `path` (same
/// device and inode). A missing path or unreadable metadata counts as
/// stale so the appender reopens.
fn handle_is_current(file: &std::fs::File, path: &Path) -> bool {
    let Ok(on_disk) = std::fs::metadata(path) else {
        return false;
    };
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        file.metadata()
            .map(|held| held.dev() == on_disk.dev() && held.ino() == on_disk.ino())
            .unwrap_or(false)
    }
    #[cfg(not(unix))]
    {
        let _ = (file, on_disk);
        true
    }
}

fn open_append(path: &Path) -> Result<std::fs::File, String> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))
}

/// The process-global appender registry: canonical ledger path → shared
/// handle. The file is opened (and its directory created) on first
/// append; [`Appender::append`] reopens it if the ledger is rotated or
/// deleted underneath the cached handle.
fn appender_for(path: &Path) -> Result<Arc<Appender>, String> {
    static REGISTRY: OnceLock<Mutex<HashMap<PathBuf, Arc<Appender>>>> = OnceLock::new();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
    }
    // Canonicalize so `.ofence/perf.jsonl` and an absolute spelling of
    // the same file share one handle (the file exists by open time; the
    // parent was just created, so canonicalize the parent + file name).
    let canonical = match (path.parent(), path.file_name()) {
        (Some(parent), Some(name)) if !parent.as_os_str().is_empty() => parent
            .canonicalize()
            .map(|p| p.join(name))
            .unwrap_or_else(|_| path.to_path_buf()),
        _ => path.to_path_buf(),
    };
    let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    let mut registry = registry.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(appender) = registry.get(&canonical) {
        return Ok(appender.clone());
    }
    let file = open_append(path)?;
    let appender = Arc::new(Appender {
        path: canonical.clone(),
        file: Mutex::new(file),
    });
    registry.insert(canonical, appender.clone());
    Ok(appender)
}

/// Load every parseable record from a ledger file, oldest first. Corrupt
/// lines are counted, not fatal.
pub fn load_file<T: Deserialize>(path: &Path) -> Result<(Vec<T>, usize), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut records = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match serde_json::from_str::<T>(line) {
            Ok(r) => records.push(r),
            Err(_) => skipped += 1,
        }
    }
    Ok((records, skipped))
}

/// Load the ledger in `dir` (see [`load_file`]).
pub fn load(dir: &Path) -> Result<(Vec<PerfRecord>, usize), String> {
    load_file(&ledger_path(dir))
}

/// Render the last `last` records as a fixed-width trend table, newest
/// last, with a summary line. Used by `ofence perf`.
pub fn render_trend(records: &[PerfRecord], last: usize) -> String {
    let mut out = String::new();
    if records.is_empty() {
        out.push_str("perf ledger is empty\n");
        return out;
    }
    let start = records.len().saturating_sub(last);
    out.push_str(&format!(
        "{:<14} {:>6} {:>5} {:>9} {:>10} {:>6} {:>7} {:>6}\n",
        "run", "files", "cold", "elapsed", "files/s", "hits", "busy%", "dev"
    ));
    for r in &records[start..] {
        let short = r
            .run_id
            .strip_prefix("run-")
            .unwrap_or(&r.run_id)
            .chars()
            .take(12)
            .collect::<String>();
        let busy_pct = {
            let total = r.worker_busy_us + r.worker_idle_us;
            if total > 0 {
                r.worker_busy_us as f64 * 100.0 / total as f64
            } else {
                0.0
            }
        };
        out.push_str(&format!(
            "{:<14} {:>6} {:>5} {:>7}ms {:>10.1} {:>6} {:>6.1}% {:>6}\n",
            short,
            r.files_total,
            if r.cold { "cold" } else { "warm" },
            r.elapsed_ms,
            r.files_per_sec,
            r.cache_hits,
            busy_pct,
            r.deviations_total
        ));
    }
    let shown = records.len() - start;
    out.push_str(&format!(
        "{} of {} records shown ({} total runs in ledger)\n",
        shown,
        records.len(),
        records.len()
    ));
    out
}

/// The outcome of a regression-gate evaluation (`ofence perf --gate`).
#[derive(Clone, Debug, Serialize)]
pub struct GateOutcome {
    /// False when the newest record regressed past the threshold.
    pub pass: bool,
    /// The newest record's run id and elapsed time.
    pub run_id: String,
    pub elapsed_ms: u64,
    /// Median elapsed of the comparable baseline records, and how many
    /// records formed it. Zero comparables ⇒ automatic pass.
    pub baseline_median_ms: u64,
    pub baseline_runs: usize,
    /// Signed regression in percent (positive = slower than baseline);
    /// 0 when there is no baseline.
    pub regress_pct: f64,
    /// The threshold the outcome was judged against.
    pub max_regress_pct: f64,
    /// Human-readable one-liner of the verdict.
    pub note: String,
}

/// Evaluate the newest ledger record against the median of earlier
/// comparable records. Comparable means: same config fingerprint, same
/// `files_total`, same cold/warm mode — anything else measures a
/// different workload, not a regression.
pub fn gate(records: &[PerfRecord], max_regress_pct: f64) -> Result<GateOutcome, String> {
    let latest = records
        .last()
        .ok_or("perf ledger is empty; nothing to gate")?;
    let mut comparable: Vec<u64> = records[..records.len() - 1]
        .iter()
        .filter(|r| {
            r.config_fingerprint == latest.config_fingerprint
                && r.files_total == latest.files_total
                && r.cold == latest.cold
        })
        .map(|r| r.elapsed_ms)
        .collect();
    if comparable.is_empty() {
        return Ok(GateOutcome {
            pass: true,
            run_id: latest.run_id.clone(),
            elapsed_ms: latest.elapsed_ms,
            baseline_median_ms: 0,
            baseline_runs: 0,
            regress_pct: 0.0,
            max_regress_pct,
            note: "no comparable baseline runs; pass by default".to_string(),
        });
    }
    comparable.sort_unstable();
    let mid = comparable.len() / 2;
    let median = if comparable.len() % 2 == 1 {
        comparable[mid]
    } else {
        (comparable[mid - 1] + comparable[mid]) / 2
    };
    let regress_pct = if median > 0 {
        (latest.elapsed_ms as f64 - median as f64) * 100.0 / median as f64
    } else if latest.elapsed_ms > 0 {
        // Baseline too fast to measure but the latest run is not: treat
        // each elapsed millisecond as 100% regression over the floor.
        latest.elapsed_ms as f64 * 100.0
    } else {
        0.0
    };
    let pass = regress_pct <= max_regress_pct;
    let note = format!(
        "{}: {}ms vs median {}ms over {} comparable runs ({}{:.1}% vs limit {:.1}%)",
        if pass { "pass" } else { "REGRESSION" },
        latest.elapsed_ms,
        median,
        comparable.len(),
        if regress_pct >= 0.0 { "+" } else { "" },
        regress_pct,
        max_regress_pct
    );
    Ok(GateOutcome {
        pass,
        run_id: latest.run_id.clone(),
        elapsed_ms: latest.elapsed_ms,
        baseline_median_ms: median,
        baseline_runs: comparable.len(),
        regress_pct,
        max_regress_pct,
        note,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use crate::engine::{Engine, SourceFile};

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ofence-perf-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_once() -> PerfRecord {
        let config = AnalysisConfig::default();
        let r = Engine::new(config.clone()).analyze(&[SourceFile::new(
            "m.c",
            r#"struct m { int init; int y; };
void reader(struct m *a) { if (!a->init) return; smp_rmb(); f(a->y); }
void writer(struct m *b) { b->y = 1; smp_wmb(); b->init = 1; }
"#,
        )]);
        record_of(&r, &config, None)
    }

    fn synthetic(elapsed_ms: u64) -> PerfRecord {
        let mut r = run_once();
        r.elapsed_ms = elapsed_ms;
        r
    }

    #[test]
    fn append_load_roundtrip() {
        let dir = tmp("roundtrip");
        let rec = run_once();
        append(&dir, &rec).unwrap();
        append(&dir, &rec).unwrap();
        let (records, skipped) = load(&dir).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(skipped, 0);
        assert_eq!(records[0].run_id, rec.run_id);
        assert_eq!(records[0].files_total, 1);
        assert!(records[0].cold);
        assert!(records[0].phase_us.contains_key("pair"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appender_survives_ledger_rotation_and_deletion() {
        // The registry caches one handle per ledger for the process
        // lifetime; rotating or deleting the file must not send later
        // appends to the unlinked inode.
        let dir = tmp("rotate");
        let path = ledger_path(&dir);
        let mut rec = run_once();
        rec.run_id = "before-rotate".to_string();
        append_to(&path, &rec).unwrap();
        // Rotate: the cached handle now points at the renamed inode.
        let rotated = dir.join("perf.jsonl.1");
        std::fs::rename(&path, &rotated).unwrap();
        rec.run_id = "after-rotate".to_string();
        append_to(&path, &rec).unwrap();
        let (records, _) = load_file::<PerfRecord>(&path).unwrap();
        assert_eq!(records.len(), 1, "record lost to the rotated inode");
        assert_eq!(records[0].run_id, "after-rotate");
        let (old, _) = load_file::<PerfRecord>(&rotated).unwrap();
        assert_eq!(old.len(), 1);
        assert_eq!(old[0].run_id, "before-rotate");
        // Delete: the handle points at an unlinked inode.
        std::fs::remove_file(&path).unwrap();
        rec.run_id = "after-delete".to_string();
        append_to(&path, &rec).unwrap();
        let (records, _) = load_file::<PerfRecord>(&path).unwrap();
        assert_eq!(records.len(), 1, "record lost to the unlinked inode");
        assert_eq!(records[0].run_id, "after-delete");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writers_interleave_whole_lines() {
        // The watch loop and the analysis daemon can share one ledger;
        // simultaneous appends must interleave at line granularity —
        // every line parseable, every record accounted for.
        let dir = tmp("interleave");
        let path = ledger_path(&dir);
        let template = run_once();
        const WRITERS: usize = 4;
        const PER_WRITER: usize = 50;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let mut record = template.clone();
                record.run_id = format!("writer-{w}");
                let path = &path;
                scope.spawn(move || {
                    for _ in 0..PER_WRITER {
                        append_to(path, &record).unwrap();
                    }
                });
            }
        });
        let (records, skipped) = load_file::<PerfRecord>(&path).unwrap();
        assert_eq!(skipped, 0, "torn JSONL lines");
        assert_eq!(records.len(), WRITERS * PER_WRITER);
        for w in 0..WRITERS {
            let id = format!("writer-{w}");
            assert_eq!(
                records.iter().filter(|r| r.run_id == id).count(),
                PER_WRITER
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn path_spellings_share_one_appender() {
        // A relative and an absolute spelling of the same ledger file
        // resolve to the same process-wide appender (the registry keys
        // by canonical path), so they serialize against each other.
        let dir = tmp("spelling");
        let path = ledger_path(&dir);
        let rec = run_once();
        append_to(&path, &rec).unwrap();
        let respelled = dir.join(".").join(PERF_FILE_NAME);
        append_to(&respelled, &rec).unwrap();
        let (records, skipped) = load_file::<PerfRecord>(&path).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(records.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        let dir = tmp("corrupt");
        let rec = run_once();
        append(&dir, &rec).unwrap();
        let path = ledger_path(&dir);
        let mut text = std::fs::read_to_string(&path).unwrap();
        // A line from an older tool that still recorded watch iterations:
        // the unknown field is ignored, the record loads.
        let legacy = text.replacen('{', "{\"iteration_us\":149435,", 1);
        text.push_str(&legacy);
        text.push_str("{not json\n");
        std::fs::write(&path, text).unwrap();
        append(&dir, &rec).unwrap();
        let (records, skipped) = load(&dir).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(skipped, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gate_passes_within_threshold_and_fails_past_it() {
        let mut records: Vec<PerfRecord> = (0..5).map(|_| synthetic(100)).collect();
        records.push(synthetic(105)); // +5% over the 100ms median
        let ok = gate(&records, 10.0).unwrap();
        assert!(ok.pass, "{}", ok.note);
        assert_eq!(ok.baseline_median_ms, 100);
        assert_eq!(ok.baseline_runs, 5);

        records.pop();
        records.push(synthetic(130)); // +30%
        let bad = gate(&records, 25.0).unwrap();
        assert!(!bad.pass, "{}", bad.note);
        assert!(bad.regress_pct > 25.0, "{}", bad.regress_pct);
    }

    #[test]
    fn gate_ignores_incomparable_records() {
        let mut records = vec![synthetic(10)];
        records[0].files_total = 999; // different corpus size
        records.push(synthetic(500));
        let out = gate(&records, 10.0).unwrap();
        assert!(out.pass, "{}", out.note);
        assert_eq!(out.baseline_runs, 0);
        assert!(out.note.contains("no comparable baseline"), "{}", out.note);
    }

    #[test]
    fn gate_on_empty_ledger_errors() {
        assert!(gate(&[], 10.0).is_err());
    }

    #[test]
    fn faster_runs_always_pass() {
        let mut records: Vec<PerfRecord> = (0..4).map(|_| synthetic(200)).collect();
        records.push(synthetic(120)); // 40% faster
        let out = gate(&records, 0.0).unwrap();
        assert!(out.pass, "{}", out.note);
        assert!(out.regress_pct < 0.0);
    }

    #[test]
    fn request_ledger_roundtrip_and_trends() {
        let dir = tmp("requests");
        for i in 0..6 {
            let rec = request_record_of(
                &format!("r{i:06}"),
                if i % 2 == 0 { "analyze" } else { "explain" },
                i != 5,
                (i as u64 + 1) * 100,
                i == 4,
                (i != 5).then(|| format!("run-{i}")),
            );
            append_request(&dir, &rec).unwrap();
        }
        let (records, skipped) = load_requests(&dir).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(records.len(), 6);
        assert_eq!(records[0].request_id, "r000000");
        assert!(records[4].coalesced);
        assert!(!records[5].ok);
        assert!(records[5].run_id.is_none());
        let table = render_request_trends(&records, 6);
        assert!(table.contains("analyze"), "{table}");
        assert!(table.contains("explain"), "{table}");
        assert!(
            table.contains("6 of 6 requests shown across 2 methods"),
            "{table}"
        );
        // A smaller window only counts what it shows.
        let table = render_request_trends(&records, 2);
        assert!(table.contains("2 of 6 requests shown"), "{table}");
        assert!(render_request_trends(&[], 5).contains("empty"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trend_renders_every_shown_record() {
        let records: Vec<PerfRecord> = (0..3).map(|_| synthetic(50)).collect();
        let table = render_trend(&records, 2);
        assert!(table.contains("2 of 3 records shown"), "{table}");
        assert!(table.contains("files/s"), "{table}");
        assert!(render_trend(&[], 5).contains("empty"));
    }
}
