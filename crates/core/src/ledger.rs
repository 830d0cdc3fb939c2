//! The ledgers: append-only JSONL files in one directory (`--history-dir`,
//! default [`DEFAULT_DIR`]), one file per [`Record`] type.
//!
//! This module is the only code that knows the format: each record type
//! names its file once ([`Record::FILE_NAME`]), a line is one JSON object,
//! and every append and load goes through [`append`] / [`load`] (or
//! [`append_file`] / [`load_file`] for an explicit file, such as `ofence
//! perf --ledger`). Appends never rewrite existing lines, and a crashed
//! append must not brick a ledger:
//!
//! 1. A corrupt line — not JSON, the wrong shape, or not UTF-8 — is
//!    counted and skipped on load.
//! 2. An appender that opens a non-empty file whose last byte is not `\n`
//!    writes a `\n` first, so a torn last line cannot swallow the next
//!    record. A concurrent writer can at worst add a blank line, which
//!    the loader ignores.

use crate::history::RunRecord;
use crate::perf::{PerfRecord, RequestRecord};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Default ledger directory, relative to the working directory.
pub const DEFAULT_DIR: &str = ".ofence";

/// A ledger line type: it names its file inside the ledger directory.
pub trait Record: Serialize + Deserialize {
    const FILE_NAME: &'static str;
}

impl Record for RunRecord {
    const FILE_NAME: &'static str = "history.jsonl";
}

impl Record for PerfRecord {
    const FILE_NAME: &'static str = "perf.jsonl";
}

impl Record for RequestRecord {
    const FILE_NAME: &'static str = "requests.jsonl";
}

/// Path of `T`'s ledger file inside `dir`.
pub fn path<T: Record>(dir: &Path) -> PathBuf {
    dir.join(T::FILE_NAME)
}

/// Append one record to its ledger in `dir`, creating the directory and
/// file on first use.
pub fn append<T: Record>(dir: &Path, record: &T) -> Result<(), String> {
    append_file(&path::<T>(dir), record)
}

/// Load every parseable record of `T`'s ledger in `dir` ([`load_file`]).
pub fn load<T: Record>(dir: &Path) -> Result<(Vec<T>, usize), String> {
    load_file(&path::<T>(dir))
}

/// Milliseconds since the Unix epoch: every ledger record's timestamp.
pub(crate) fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Append one record as a JSON line to a ledger file, creating its
/// directory and the file on first use.
///
/// All appends in the process go through one shared appender per ledger
/// file: several sessions in one process can write the same
/// `.ofence/perf.jsonl`, and two writers opening the file
/// independently could interleave partial lines. The appender serializes
/// whole-line writes under a per-file mutex (and each write is a single
/// `O_APPEND` `write_all`, so even writers in *different* processes
/// interleave at line granularity on POSIX).
pub fn append_file<T: Serialize>(path: &Path, record: &T) -> Result<(), String> {
    let mut line =
        serde_json::to_string(record).map_err(|e| format!("serialize ledger record: {e}"))?;
    line.push('\n');
    appender_for(path)?.append(line.as_bytes())
}

/// Load every parseable record from a ledger file, oldest first. Corrupt
/// lines, non-UTF-8 ones included, are counted, not fatal; blank lines
/// are ignored.
pub fn load_file<T: Deserialize>(path: &Path) -> Result<(Vec<T>, usize), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let parsed: Vec<Option<T>> = bytes
        .split(|&b| b == b'\n')
        .filter(|line| !line.iter().all(u8::is_ascii_whitespace))
        .map(|line| serde_json::from_slice(line).ok())
        .collect();
    let skipped = parsed.iter().filter(|r| r.is_none()).count();
    Ok((parsed.into_iter().flatten().collect(), skipped))
}

/// One ledger file's process-wide append handle.
struct Appender {
    path: PathBuf,
    file: Mutex<File>,
}

impl Appender {
    fn append(&self, line: &[u8]) -> Result<(), String> {
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        // The ledger can be rotated or deleted externally while the
        // daemon runs; a cached handle would then append to the unlinked
        // inode and silently lose the record. Re-stat the path before
        // every write and reopen when the handle no longer matches.
        if !handle_is_current(&file, &self.path) {
            ensure_dir(&self.path)?;
            *file = open_append(&self.path)?;
        }
        file.write_all(line)
            .map_err(|e| format!("append to {}: {e}", self.path.display()))
    }
}

/// True when the open handle still refers to the file at `path` (same
/// device and inode). A missing path or unreadable metadata counts as
/// stale so the appender reopens.
fn handle_is_current(file: &File, path: &Path) -> bool {
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

/// Create a ledger file's directory (on first use, or after it was
/// removed under a running daemon) and return the file's canonical path,
/// so `.ofence/perf.jsonl` and an absolute spelling of the same file
/// share one appender.
fn ensure_dir(path: &Path) -> Result<PathBuf, String> {
    let Some(name) = path.file_name() else {
        return Ok(path.to_path_buf());
    };
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let dir = dir.unwrap_or(Path::new("."));
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir
        .canonicalize()
        .map_or_else(|_| path.to_path_buf(), |d| d.join(name)))
}

/// Open a ledger file for appending, closing a torn last line first
/// (crash rule 2 in the module docs).
fn open_append(path: &Path) -> Result<File, String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut last = [0u8];
    let torn = file.seek(SeekFrom::End(-1)).is_ok()
        && file.read_exact(&mut last).is_ok()
        && last[0] != b'\n';
    if torn {
        file.write_all(b"\n")
            .map_err(|e| format!("append to {}: {e}", path.display()))?;
    }
    Ok(file)
}

/// The process-global appender registry: canonical ledger path → shared
/// handle. The file is opened (and its directory created) on first
/// append; [`Appender::append`] reopens it if the ledger is rotated or
/// deleted underneath the cached handle.
fn appender_for(path: &Path) -> Result<Arc<Appender>, String> {
    static REGISTRY: OnceLock<Mutex<HashMap<PathBuf, Arc<Appender>>>> = OnceLock::new();
    let canonical = ensure_dir(path)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use crate::engine::{Engine, SourceFile};
    use crate::fingerprint::finding_records;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ofence-ledger-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// One line of each ledger, as one analysis run and its request
    /// would write them.
    fn records_of_one_run() -> (RunRecord, PerfRecord, RequestRecord) {
        let config = AnalysisConfig::default();
        let r = Engine::new(config.clone()).analyze(&[SourceFile::new(
            "m.c",
            r#"struct m { int init; int y; };
void reader(struct m *a) { if (!a->init) return; smp_rmb(); f(a->y); }
void writer(struct m *b) { b->y = 1; smp_wmb(); b->init = 1; }
"#,
        )]);
        let findings = finding_records(&r.deviations, &r.sites, &r.files);
        let trace = obs::RequestTrace {
            request_id: "r000001".into(),
            method: "analyze".into(),
            latency_us: 100,
            outcome: "ok".into(),
            coalesced: false,
            run_id: Some(r.run_id.clone()),
            spans: vec![],
        };
        (
            crate::history::record_of(&r, &config, findings),
            crate::perf::record_of(&r, &config, None),
            RequestRecord::from(&trace),
        )
    }

    fn load_counted<T: Record>(dir: &Path, records: usize, skipped: usize) -> Vec<T> {
        let (loaded, n) = load::<T>(dir).unwrap();
        assert_eq!((loaded.len(), n), (records, skipped), "{}", T::FILE_NAME);
        loaded
    }

    fn push_lines(path: &Path, lines: &str) {
        let mut text = std::fs::read_to_string(path).unwrap();
        text.push_str(lines);
        std::fs::write(path, text).unwrap();
    }

    #[test]
    fn every_record_type_roundtrips_and_skips_corrupt_lines() {
        let dir = tmp("roundtrip");
        let (run, perf, request) = records_of_one_run();
        for _ in 0..2 {
            append(&dir, &run).unwrap();
            append(&dir, &perf).unwrap();
            append(&dir, &request).unwrap();
        }
        let runs = load_counted::<RunRecord>(&dir, 2, 0);
        assert_eq!(runs[0].run_id, run.run_id);
        assert_eq!(runs[0].schema_version, crate::json::SCHEMA_VERSION);
        assert!(runs[0].phase_us.contains_key("pair"));
        let perfs = load_counted::<PerfRecord>(&dir, 2, 0);
        assert_eq!(perfs[0].run_id, perf.run_id);
        assert_eq!(perfs[0].files_total, 1);
        assert!(perfs[0].cold);
        assert!(perfs[0].phase_us.contains_key("pair"));
        let requests = load_counted::<RequestRecord>(&dir, 2, 0);
        assert_eq!(requests[0].request_id, "r000001");
        assert_eq!(requests[0].run_id, Some(run.run_id.clone()));

        // Every ledger gets a line that is not JSON and one of the wrong
        // shape; both are skipped, and later appends still load.
        for file in [
            RunRecord::FILE_NAME,
            PerfRecord::FILE_NAME,
            RequestRecord::FILE_NAME,
        ] {
            push_lines(&dir.join(file), "{not json\n{\"run_id\": 42}\n");
        }
        // A line from an older tool that still recorded watch iterations:
        // the unknown field is ignored, the record loads.
        let perf_path = path::<PerfRecord>(&dir);
        let first = std::fs::read_to_string(&perf_path).unwrap();
        let first = first.lines().next().unwrap();
        push_lines(
            &perf_path,
            &format!("{}\n", first.replacen('{', "{\"iteration_us\":149435,", 1)),
        );
        append(&dir, &run).unwrap();
        append(&dir, &perf).unwrap();
        append(&dir, &request).unwrap();
        load_counted::<RunRecord>(&dir, 3, 2);
        load_counted::<PerfRecord>(&dir, 4, 2);
        load_counted::<RequestRecord>(&dir, 3, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_non_utf8_line_is_skipped_not_fatal() {
        let dir = tmp("utf8");
        let (run, _, _) = records_of_one_run();
        append(&dir, &run).unwrap();
        // A crash tore a multi-byte character ("café") in half.
        let path = path::<RunRecord>(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"run_id\":\"caf\xc3\n");
        std::fs::write(&path, bytes).unwrap();
        append(&dir, &run).unwrap();
        load_counted::<RunRecord>(&dir, 2, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_torn_last_line_does_not_swallow_the_next_record() {
        let dir = tmp("torn");
        let (_, perf, _) = records_of_one_run();
        // A writer crashed mid-append: its file ends inside a record,
        // with no `\n`. This process opens it fresh and appends.
        let line = serde_json::to_string(&perf).unwrap();
        std::fs::write(path::<PerfRecord>(&dir), &line.as_bytes()[..120]).unwrap();
        append(&dir, &perf).unwrap();
        let perfs = load_counted::<PerfRecord>(&dir, 1, 1);
        assert_eq!(perfs[0].run_id, perf.run_id);
        std::fs::remove_dir_all(&dir).ok();
    }
}
