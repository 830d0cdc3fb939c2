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
//! The document is defined once, by [`ReportDoc`]: a borrowed view of the
//! result that the serializer writes straight to text (what the CLI and
//! the daemon send) or turns into a tree ([`AnalysisResult::to_json`]).
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

use crate::deviation::Deviation;
use crate::engine::AnalysisResult;
use crate::fingerprint::FindingRecord;
use crate::ir::{BarrierId, UnpairedReason};
use crate::sites::FileAnalysis;
use serde::{Fields, Record, Serialize, Writer};
use std::sync::Arc;

/// Bump on any backwards-incompatible change to [`AnalysisResult::to_json`].
/// v2: stable fingerprints on every finding, `run_id`, `findings` array.
/// v3: `via_calls` call-chain provenance on accesses and findings.
pub const SCHEMA_VERSION: u32 = 3;

impl AnalysisResult {
    /// The full result as a `serde_json::Value` following the documented
    /// stable schema (see `docs/SCHEMA.md`).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::to_value(&self.report())
    }

    /// The schema-v3 report as a serializable view: render it with
    /// `serde_json::to_string` / `to_string_pretty`, no tree built.
    pub fn report(&self) -> ReportDoc<'_> {
        self.report_with(&self.obs)
    }

    /// [`Self::report`] with `obs` in place of the run's own snapshot.
    pub fn report_with<'a>(&'a self, obs: &'a obs::Snapshot) -> ReportDoc<'a> {
        ReportDoc { result: self, obs }
    }
}

/// The schema-v3 document of one [`AnalysisResult`], borrowed: the one
/// definition of the report, behind both the text the CLI and the daemon
/// write and the tree [`AnalysisResult::to_json`] returns.
pub struct ReportDoc<'a> {
    result: &'a AnalysisResult,
    obs: &'a obs::Snapshot,
}

impl Record for ReportDoc<'_> {
    fn fields<F: Fields>(&self, f: &mut F) {
        let r = self.result;
        f.field("schema_version", &SCHEMA_VERSION);
        f.field("run_id", &r.run_id);
        f.field("stats", &r.stats);
        f.field("sites", &r.sites);
        f.field("pairings", &r.pairing.pairings);
        f.field("unpaired", &Rows(&r.pairing.unpaired, Unpaired));
        f.field("findings", &r.deviation_records);
        f.field(
            "deviations",
            &Rows(&zip(&r.deviations, &r.deviation_records), Finding),
        );
        f.field("patches", &r.patches);
        f.field(
            "annotations",
            &Rows(&zip(&r.annotations, &r.annotation_records), Finding),
        );
        f.field("annotation_patches", &r.annotation_patches);
        f.field("files", &Rows(&r.files, FileRow));
        f.field("observability", &Observability(r, self.obs));
    }
}

fn zip<'a>(
    items: &'a [Deviation],
    records: &'a [FindingRecord],
) -> Vec<(&'a Deviation, &'a FindingRecord)> {
    items.iter().zip(records).collect()
}

/// A slice written as an array of per-item views.
struct Rows<'s, T, V>(&'s [T], fn(&'s T) -> V);

impl<'s, T, V: Serialize> Serialize for Rows<'s, T, V> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Array(self.0.iter().map(|x| (self.1)(x).to_value()).collect())
    }

    fn write_json(&self, w: &mut Writer<'_>) {
        let mut a = w.array();
        for x in self.0 {
            a.elem(&(self.1)(x));
        }
        a.end();
    }
}

struct Unpaired<'a>(&'a (BarrierId, UnpairedReason));

impl Record for Unpaired<'_> {
    fn fields<F: Fields>(&self, f: &mut F) {
        let (id, reason) = self.0;
        f.field("id", &id.0);
        f.field(
            "reason",
            match reason {
                UnpairedReason::ImplicitIpc => "implicit_ipc",
                UnpairedReason::NoMatch => "no_match",
            },
        );
    }
}

/// Schema v2: every finding entry carries its stable fingerprint plus
/// the full diffable record (what `ofence diff` consumes).
struct Finding<'a>(&'a (&'a Deviation, &'a FindingRecord));

impl Record for Finding<'_> {
    fn fields<F: Fields>(&self, f: &mut F) {
        let (dev, record) = *self.0;
        dev.fields(f);
        f.field("fingerprint", &record.fingerprint);
        f.field("finding", record);
    }
}

struct FileRow<'a>(&'a Arc<FileAnalysis>);

impl Record for FileRow<'_> {
    fn fields<F: Fields>(&self, f: &mut F) {
        let fa = self.0;
        f.field("name", &fa.name);
        f.field("barriers", &fa.sites.len());
        f.field("functions", &fa.function_count);
        f.field("parse_errors", &fa.parse_error_count);
    }
}

struct Observability<'a>(&'a AnalysisResult, &'a obs::Snapshot);

impl Record for Observability<'_> {
    fn fields<F: Fields>(&self, f: &mut F) {
        let Observability(r, obs) = *self;
        f.field("phase_us", &r.stats.phase_us);
        f.field("slowest_files", &r.stats.slowest_files);
        f.field("counters", &obs.counters);
        f.field("cache", &CacheCounters(obs));
    }
}

struct CacheCounters<'a>(&'a obs::Snapshot);

impl Record for CacheCounters<'_> {
    fn fields<F: Fields>(&self, f: &mut F) {
        f.field("hits", &self.0.count_of("engine_cache_hits"));
        f.field("loads", &self.0.count_of("cache_loads"));
        f.field("evictions", &self.0.count_of("cache_evictions"));
    }
}

serde::serialize_record!(
    ReportDoc<'_>,
    Unpaired<'_>,
    Finding<'_>,
    FileRow<'_>,
    Observability<'_>,
    CacheCounters<'_>,
);

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
