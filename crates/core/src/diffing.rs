//! Classifying findings across runs: new / fixed / unchanged.
//!
//! Both `ofence diff` and watch mode go through [`classify`], so the two
//! can never disagree about what counts as a new finding. The inputs are
//! [`FindingRecord`] lists, which can come from a live engine run, a
//! `--json` report (schema ≥ 2), a baseline file, or a ledger entry —
//! [`records_from_json`] accepts all of those document shapes.

use crate::fingerprint::FindingRecord;
use serde::{Deserialize, Serialize};
use std::io::Write as _;
use std::path::Path;

/// The outcome of comparing two runs.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DiffReport {
    /// Present now, absent before.
    pub new: Vec<FindingRecord>,
    /// Present before, absent now.
    pub fixed: Vec<FindingRecord>,
    /// Present in both (the current run's copy, so lines are fresh).
    pub unchanged: Vec<FindingRecord>,
}

impl DiffReport {
    /// Whether `policy` fails a run with this report: `new` on a new
    /// finding, `any` on any current finding, `none` never.
    pub fn fails(&self, policy: FailOn) -> bool {
        match policy {
            FailOn::Any => !self.new.is_empty() || !self.unchanged.is_empty(),
            FailOn::New => !self.new.is_empty(),
            FailOn::None => false,
        }
    }

    pub fn is_clean(&self) -> bool {
        self.new.is_empty() && self.fixed.is_empty()
    }

    /// Human rendering, one block per class, `+`/`-`/`=` prefixed.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "diff: {} new, {} fixed, {} unchanged\n",
            self.new.len(),
            self.fixed.len(),
            self.unchanged.len()
        ));
        for r in &self.new {
            out.push_str(&format!("  + {}  [{}]\n", r.render_line(), r.fingerprint));
        }
        for r in &self.fixed {
            out.push_str(&format!("  - {}  [{}]\n", r.render_line(), r.fingerprint));
        }
        for r in &self.unchanged {
            out.push_str(&format!("  = {}  [{}]\n", r.render_line(), r.fingerprint));
        }
        out
    }

    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "new": self.new,
            "fixed": self.fixed,
            "unchanged": self.unchanged,
            "summary": {
                "new": self.new.len(),
                "fixed": self.fixed.len(),
                "unchanged": self.unchanged.len(),
            },
        })
    }
}

/// Match findings between two runs by fingerprint. Fingerprints are
/// unique within a run (ordinal disambiguation), so set semantics are
/// exact; should duplicates appear anyway, the surplus copies on either
/// side count as new/fixed rather than silently merging.
pub fn classify(old: &[FindingRecord], current: &[FindingRecord]) -> DiffReport {
    let mut old_left: Vec<&FindingRecord> = old.iter().collect();
    let mut report = DiffReport::default();
    for cur in current {
        match old_left
            .iter()
            .position(|o| o.fingerprint == cur.fingerprint)
        {
            Some(i) => {
                old_left.swap_remove(i);
                report.unchanged.push(cur.clone());
            }
            None => report.new.push(cur.clone()),
        }
    }
    report.fixed = old_left.into_iter().cloned().collect();
    sort_records(&mut report.new);
    sort_records(&mut report.fixed);
    sort_records(&mut report.unchanged);
    report
}

fn sort_records(records: &mut [FindingRecord]) {
    records
        .sort_by(|a, b| (&a.file, a.line, &a.fingerprint).cmp(&(&b.file, b.line, &b.fingerprint)));
}

/// Exit-code policy for CI gating (`--fail-on=new|any|none`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailOn {
    /// Fail only on findings not present in the comparison base.
    New,
    /// Fail on any finding at all (the pre-baseline behaviour).
    Any,
    /// Never fail because of findings (reporting only).
    None,
}

impl FailOn {
    pub fn parse(s: &str) -> Result<FailOn, String> {
        match s {
            "new" => Ok(FailOn::New),
            "any" => Ok(FailOn::Any),
            "none" => Ok(FailOn::None),
            other => Err(format!(
                "invalid --fail-on value '{other}' (expected new, any, or none)"
            )),
        }
    }
}

/// A checked-in snapshot of known findings, written by `ofence baseline
/// write` and consumed by `analyze --baseline` / `ofence diff --baseline`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Baseline {
    pub schema_version: u32,
    pub tool_version: String,
    /// The run the baseline was written from.
    pub created_run_id: String,
    pub findings: Vec<FindingRecord>,
}

/// Format version of the baseline file itself.
pub const BASELINE_VERSION: u32 = 1;

impl Baseline {
    pub fn new(run_id: &str, findings: Vec<FindingRecord>) -> Baseline {
        Baseline {
            schema_version: BASELINE_VERSION,
            tool_version: env!("CARGO_PKG_VERSION").to_string(),
            created_run_id: run_id.to_string(),
            findings,
        }
    }
}

/// Write a baseline atomically (tmp + rename, like the disk cache).
pub fn write_baseline(path: &Path, baseline: &Baseline) -> Result<(), String> {
    let text =
        serde_json::to_string_pretty(baseline).map_err(|e| format!("serialize baseline: {e}"))?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let tmp = path.with_extension("tmp");
    let mut f =
        std::fs::File::create(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    f.write_all(text.as_bytes())
        .and_then(|_| f.write_all(b"\n"))
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| format!("rename to {}: {e}", path.display()))
}

/// Load a baseline file, rejecting unknown format versions.
pub fn load_baseline(path: &Path) -> Result<Baseline, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let baseline: Baseline = serde_json::from_str(&text)
        .map_err(|e| format!("{} is not a baseline file: {e}", path.display()))?;
    if baseline.schema_version > BASELINE_VERSION {
        return Err(format!(
            "{}: baseline version {} is newer than this tool understands ({})",
            path.display(),
            baseline.schema_version,
            BASELINE_VERSION
        ));
    }
    Ok(baseline)
}

/// Extract [`FindingRecord`]s from any of the JSON documents ofence
/// emits: a baseline or ledger record (top-level `findings` array), or an
/// `analyze --json` report (schema ≥ 2: `deviations` entries carrying
/// `fingerprint`). Returns an error naming what was missing otherwise.
pub fn records_from_json(doc: &serde_json::Value) -> Result<Vec<FindingRecord>, String> {
    let top = doc
        .as_object()
        .ok_or_else(|| "document is not a JSON object".to_string())?;
    if let Some(findings) = top.get("findings") {
        return Vec::<FindingRecord>::from_value(findings)
            .map_err(|e| format!("malformed findings array: {e}"));
    }
    if let Some(devs) = top.get("deviations").and_then(|d| d.as_array()) {
        let version = top
            .get("schema_version")
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        if version < 2 {
            return Err(format!(
                "report has schema_version {version}; fingerprints need version 2 \
                 (re-run analyze with this ofence build)"
            ));
        }
        return devs
            .iter()
            .map(|d| {
                let f = d
                    .as_object()
                    .and_then(|m| m.get("finding"))
                    .ok_or_else(|| "deviation entry without finding record".to_string())?;
                FindingRecord::from_value(f).map_err(|e| format!("malformed finding record: {e}"))
            })
            .collect();
    }
    Err("document has neither a 'findings' nor a 'deviations' array".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(fp: &str, file: &str, line: u32) -> FindingRecord {
        FindingRecord {
            fingerprint: fp.to_string(),
            class: "misplaced memory access".to_string(),
            rule: "misplaced-access".to_string(),
            file: file.to_string(),
            function: "f".to_string(),
            line,
            column: 1,
            object: None,
            message: "m".to_string(),
            via_calls: Vec::new(),
        }
    }

    #[test]
    fn classify_partitions_by_fingerprint() {
        let old = vec![rec("aa", "a.c", 3), rec("bb", "a.c", 9)];
        let new = vec![rec("bb", "a.c", 109), rec("cc", "b.c", 4)];
        let d = classify(&old, &new);
        assert_eq!(d.new.len(), 1);
        assert_eq!(d.new[0].fingerprint, "cc");
        assert_eq!(d.fixed.len(), 1);
        assert_eq!(d.fixed[0].fingerprint, "aa");
        assert_eq!(d.unchanged.len(), 1);
        // The unchanged record is the *current* copy — fresh line number.
        assert_eq!(d.unchanged[0].line, 109);
        assert!(!d.is_clean());
        assert!(classify(&new, &new).is_clean());
    }

    #[test]
    fn classify_keeps_duplicate_surplus() {
        let old = vec![rec("aa", "a.c", 1)];
        let new = vec![rec("aa", "a.c", 1), rec("aa", "a.c", 5)];
        let d = classify(&old, &new);
        assert_eq!(d.unchanged.len(), 1);
        assert_eq!(d.new.len(), 1);
    }

    #[test]
    fn render_and_json_agree_on_counts() {
        let d = classify(&[rec("aa", "a.c", 1)], &[rec("bb", "b.c", 2)]);
        let text = d.render();
        assert!(text.starts_with("diff: 1 new, 1 fixed, 0 unchanged"));
        assert!(text.contains("+ b.c:2:"));
        assert!(text.contains("- a.c:1:"));
        let j = d.to_json();
        assert_eq!(j["summary"]["new"], 1);
        assert_eq!(j["summary"]["fixed"], 1);
    }

    #[test]
    fn fail_on_parses() {
        assert_eq!(FailOn::parse("new"), Ok(FailOn::New));
        assert_eq!(FailOn::parse("any"), Ok(FailOn::Any));
        assert_eq!(FailOn::parse("none"), Ok(FailOn::None));
        assert!(FailOn::parse("sometimes").is_err());
    }

    #[test]
    fn baseline_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ofence-diff-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        let b = Baseline::new("run-00", vec![rec("aa", "a.c", 1)]);
        write_baseline(&path, &b).unwrap();
        let back = load_baseline(&path).unwrap();
        assert_eq!(back.created_run_id, "run-00");
        assert_eq!(back.findings, b.findings);
        // And the same file parses through records_from_json.
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(records_from_json(&doc).unwrap(), b.findings);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn records_from_json_rejects_v1_reports() {
        let doc = serde_json::json!({"schema_version": 1, "deviations": []});
        let err = records_from_json(&doc).unwrap_err();
        assert!(err.contains("schema_version 1"), "{err}");
        let doc = serde_json::json!({"stats": {}});
        assert!(records_from_json(&doc).is_err());
    }
}
