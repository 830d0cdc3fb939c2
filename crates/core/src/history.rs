//! The append-only run ledger: `.ofence/history.jsonl`.
//!
//! Every analysis session run (CLI, watch, daemon) appends one
//! [`RunRecord`] line — config fingerprint, corpus stats, per-check
//! deviation counts, wall-time phases from the obs recorder, and the full
//! finding list with fingerprints. `ofence diff <old-run-id> <new-run-id>` resolves its
//! operands here, so regressions can be traced across arbitrary history
//! without keeping `--json` reports around.
//!
//! The file format, appends, loads and their crash rules live in
//! [`crate::ledger`].

use crate::engine::AnalysisResult;
use crate::fingerprint::FindingRecord;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// [`crate::ledger::append`] under the old name `bench-e2e` still calls.
pub use crate::ledger::append;

/// One ledger line: everything needed to diff against this run later
/// and to read corpus/timing trends straight off the file.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunRecord {
    pub run_id: String,
    /// Milliseconds since the Unix epoch at record time.
    pub timestamp_ms: u64,
    /// JSON report schema version in force when the record was written.
    pub schema_version: u32,
    pub tool_version: String,
    /// [`crate::cache::config_fingerprint`] of the analysis config, so a
    /// diff across incompatible configs can be flagged by consumers.
    pub config_fingerprint: String,
    pub files_total: usize,
    pub barriers_total: usize,
    pub pairings: usize,
    pub deviations_total: usize,
    /// Per-class deviation counts (Table 3 shape).
    pub deviations_by_kind: BTreeMap<String, usize>,
    /// Per-phase wall time in microseconds, from the obs recorder.
    pub phase_us: BTreeMap<String, u64>,
    pub elapsed_ms: u64,
    /// The run's findings with stable fingerprints — the diffable payload.
    pub findings: Vec<FindingRecord>,
}

/// Build the ledger record of a finished run.
pub fn record_of(
    result: &AnalysisResult,
    config: &crate::config::AnalysisConfig,
    findings: Vec<FindingRecord>,
) -> RunRecord {
    RunRecord {
        run_id: result.run_id.clone(),
        timestamp_ms: crate::ledger::now_ms(),
        schema_version: crate::json::SCHEMA_VERSION,
        tool_version: env!("CARGO_PKG_VERSION").to_string(),
        config_fingerprint: format!("{:016x}", crate::cache::config_fingerprint(config)),
        files_total: result.stats.files_total,
        barriers_total: result.stats.barriers_total,
        pairings: result.stats.pairings,
        deviations_total: result.stats.deviations_total,
        deviations_by_kind: result.stats.deviations_by_kind.clone(),
        phase_us: result.stats.phase_us.clone(),
        elapsed_ms: result.stats.elapsed_ms,
        findings,
    }
}

/// [`crate::ledger::load`] of run records, for `bench-e2e`: concrete,
/// because it reads fields off the result with no `T` to infer.
pub fn load(dir: &Path) -> Result<(Vec<RunRecord>, usize), String> {
    crate::ledger::load(dir)
}

/// Find a run by id, allowing unambiguous prefixes (`run-3fa` or just
/// `3fa`). Latest records win exact matches; ambiguous prefixes error.
pub fn find(dir: &Path, id: &str) -> Result<RunRecord, String> {
    let (records, _) = load(dir)?;
    if let Some(r) = records.iter().rev().find(|r| r.run_id == id) {
        return Ok(r.clone());
    }
    let matches: Vec<&RunRecord> = records
        .iter()
        .filter(|r| {
            r.run_id.starts_with(id)
                || r.run_id
                    .strip_prefix("run-")
                    .is_some_and(|s| s.starts_with(id))
        })
        .collect();
    match matches.len() {
        0 => Err(format!(
            "no run '{id}' in {} ({} runs recorded)",
            crate::ledger::path::<RunRecord>(dir).display(),
            records.len()
        )),
        1 => Ok(matches[0].clone()),
        n => Err(format!(
            "run id '{id}' is ambiguous: {n} matches (first: {}, last: {})",
            matches[0].run_id,
            matches[n - 1].run_id
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use crate::engine::{Engine, SourceFile};
    use crate::fingerprint::finding_records;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ofence-history-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_once() -> (RunRecord, AnalysisConfig) {
        let config = AnalysisConfig::default();
        let r = Engine::new(config.clone()).analyze(&[SourceFile::new(
            "m.c",
            r#"struct m { int init; int y; };
void reader(struct m *a) { if (!a->init) return; smp_rmb(); f(a->y); }
void writer(struct m *b) { b->y = 1; smp_wmb(); b->init = 1; }
"#,
        )]);
        let findings = finding_records(&r.deviations, &r.sites, &r.files);
        (record_of(&r, &config, findings), config)
    }

    #[test]
    fn find_resolves_exact_and_prefix() {
        let dir = tmp("find");
        let (rec, _) = run_once();
        append(&dir, &rec).unwrap();
        assert_eq!(find(&dir, &rec.run_id).unwrap().run_id, rec.run_id);
        // Prefix without the "run-" part.
        let bare = rec.run_id.strip_prefix("run-").unwrap();
        assert_eq!(find(&dir, &bare[..8]).unwrap().run_id, rec.run_id);
        assert!(find(&dir, "run-ffffdoesnotexist").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn find_reports_missing_ledger() {
        let dir = tmp("missing");
        std::fs::remove_dir_all(&dir).ok();
        assert!(find(&dir, "anything").is_err());
    }
}
