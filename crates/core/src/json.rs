//! Stable JSON serialization of [`AnalysisResult`].
//!
//! `ofence analyze --json` used to dump an ad-hoc subset of the result;
//! tooling built on it broke whenever a field moved. This module defines
//! the versioned schema documented in `docs/SCHEMA.md`: a top-level
//! `schema_version` integer, the same `stats` / `pairings` / `deviations`
//! keys as before (so existing consumers keep working), plus the full
//! site list, unpaired reasons, patches, annotations, per-file summaries,
//! and the run's observability data (per-phase timings and counters).
//!
//! Compatibility rule: within a `schema_version`, keys are only added,
//! never renamed or removed. Renames/removals bump the version.
//!
//! Schema v2 adds finding provenance: a top-level `run_id`, a `findings`
//! array of [`crate::fingerprint::FindingRecord`]s, and a `fingerprint` +
//! `finding` pair injected into every `deviations` / `annotations` entry.
//! All v1 keys are preserved unchanged.
//!
//! Schema v3 adds inter-procedural provenance: site accesses and finding
//! records gain a `via_calls` array (the callee chain the summary
//! composition pass walked to reach the access). The field is omitted
//! when empty, so depth-0 reports are byte-identical to v2 apart from
//! the version number. All v2 keys are preserved unchanged.

use crate::engine::AnalysisResult;
use crate::fingerprint::finding_records;
use crate::ir::UnpairedReason;

/// Bump on any backwards-incompatible change to [`AnalysisResult::to_json`].
/// v2: stable fingerprints on every finding, `run_id`, `findings` array.
/// v3: `via_calls` call-chain provenance on accesses and findings.
pub const SCHEMA_VERSION: u32 = 3;

impl AnalysisResult {
    /// The full result as a `serde_json::Value` following the documented
    /// stable schema (see `docs/SCHEMA.md`).
    pub fn to_json(&self) -> serde_json::Value {
        self.to_json_with(&self.obs)
    }

    /// [`Self::to_json`] reporting `obs` in place of the run's own
    /// snapshot, for drivers that add counters of their own (e.g.
    /// `findings_new` against a baseline).
    pub fn to_json_with(&self, obs: &obs::Snapshot) -> serde_json::Value {
        let files: Vec<serde_json::Value> = self
            .files
            .iter()
            .map(|fa| {
                serde_json::json!({
                    "name": fa.name,
                    "barriers": fa.sites.len(),
                    "functions": fa.function_count,
                    "parse_errors": fa.parse_error_count,
                })
            })
            .collect();
        let unpaired: Vec<serde_json::Value> = self
            .pairing
            .unpaired
            .iter()
            .map(|(id, reason)| {
                serde_json::json!({
                    "id": id.0,
                    "reason": match reason {
                        UnpairedReason::ImplicitIpc => "implicit_ipc",
                        UnpairedReason::NoMatch => "no_match",
                    },
                })
            })
            .collect();
        // Schema v2: every finding entry carries its stable fingerprint
        // plus the full diffable record (what `ofence diff` consumes).
        let dev_records = finding_records(&self.deviations, &self.sites, &self.files);
        let ann_records = finding_records(&self.annotations, &self.sites, &self.files);
        let with_provenance =
            |items: &[crate::deviation::Deviation],
             records: &[crate::fingerprint::FindingRecord]| {
                items
                    .iter()
                    .zip(records)
                    .map(|(d, r)| {
                        let mut v = serde_json::to_value(d);
                        if let serde_json::Value::Object(ref mut obj) = v {
                            obj.insert(
                                "fingerprint".to_string(),
                                serde_json::to_value(&r.fingerprint),
                            );
                            obj.insert("finding".to_string(), serde_json::to_value(r));
                        }
                        v
                    })
                    .collect::<Vec<serde_json::Value>>()
            };
        serde_json::json!({
            "schema_version": SCHEMA_VERSION,
            "run_id": self.run_id,
            "stats": self.stats,
            "sites": self.sites,
            "pairings": self.pairing.pairings,
            "unpaired": unpaired,
            "findings": dev_records,
            "deviations": with_provenance(&self.deviations, &dev_records),
            "patches": self.patches,
            "annotations": with_provenance(&self.annotations, &ann_records),
            "annotation_patches": self.annotation_patches,
            "files": files,
            "observability": {
                "phase_us": self.stats.phase_us,
                "slowest_files": self.stats.slowest_files,
                "counters": obs.counters,
                "cache": {
                    "hits": obs.count_of("engine_cache_hits"),
                    "loads": obs.count_of("cache_loads"),
                    "evictions": obs.count_of("cache_evictions"),
                },
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::config::AnalysisConfig;
    use crate::engine::{Engine, SourceFile};

    fn demo_files() -> Vec<SourceFile> {
        vec![SourceFile::new(
            "demo.c",
            r#"struct m { int init; int y; };
void reader(struct m *a) { if (!a->init) return; smp_rmb(); f(a->y); }
void writer(struct m *b) { b->y = 1; smp_wmb(); b->init = 1; }
"#,
        )]
    }

    #[test]
    fn schema_has_all_top_level_keys() {
        let r = Engine::new(AnalysisConfig::default()).analyze(&demo_files());
        let v = r.to_json();
        for key in [
            "schema_version",
            "run_id",
            "stats",
            "sites",
            "pairings",
            "unpaired",
            "findings",
            "deviations",
            "patches",
            "annotations",
            "annotation_patches",
            "files",
            "observability",
        ] {
            assert!(
                v.as_object().unwrap().contains_key(key),
                "missing key {key}"
            );
        }
        assert_eq!(v["schema_version"], super::SCHEMA_VERSION);
        assert_eq!(v["sites"].as_array().unwrap().len(), 2);
        assert_eq!(v["pairings"].as_array().unwrap().len(), 1);
        assert_eq!(v["files"].as_array().unwrap().len(), 1);
        assert!(v["run_id"].as_str().unwrap().starts_with("run-"));
    }

    #[test]
    fn v2_findings_carry_fingerprints() {
        let r = Engine::new(AnalysisConfig::default()).analyze(&demo_files());
        let v = r.to_json();
        // Every deviation and annotation entry carries fingerprint + the
        // full finding record, and the report parses back through the
        // diff engine's document reader.
        for list in ["deviations", "annotations"] {
            for entry in v[list].as_array().unwrap() {
                assert_eq!(entry["fingerprint"].as_str().unwrap().len(), 16);
                assert_eq!(entry["finding"]["fingerprint"], entry["fingerprint"]);
            }
        }
        let records = crate::diffing::records_from_json(&v).unwrap();
        assert_eq!(records.len(), r.deviations.len());
    }

    #[test]
    fn json_roundtrips_through_text() {
        let r = Engine::new(AnalysisConfig::default()).analyze(&demo_files());
        let text = serde_json::to_string_pretty(&r.to_json()).unwrap();
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back["schema_version"], super::SCHEMA_VERSION);
        assert!(back["observability"]["phase_us"].as_object().is_some());
    }

    #[test]
    fn observability_counters_present() {
        let r = Engine::new(AnalysisConfig::default()).analyze(&demo_files());
        let v = r.to_json();
        let counters = v["observability"]["counters"].as_object().unwrap();
        assert!(counters.contains_key("ckit_files_parsed"), "{counters:?}");
        assert!(
            counters.contains_key("extract_barriers_found"),
            "{counters:?}"
        );
    }

    #[test]
    fn observability_cache_section_present() {
        let files = demo_files();
        let mut engine = Engine::new(AnalysisConfig::default());
        engine.analyze(&files);
        let r = engine.analyze(&files); // warm: everything from cache
        let v = r.to_json();
        assert_eq!(v["observability"]["cache"]["hits"], 1);
        assert_eq!(v["observability"]["cache"]["loads"], 0);
        assert_eq!(v["observability"]["cache"]["evictions"], 0);
    }
}
