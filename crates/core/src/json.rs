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
//! result that the serializer writes straight to text (what the CLI
//! prints) or turns into a tree ([`AnalysisResult::to_json`]). The daemon
//! writes the same bytes as [`Text`] ([`ReportDoc::to_text`]): the `files`
//! rows in runs that a [`RowMemo`] keeps from one reply to the next, and
//! around them the rest of the document, rendered from the same
//! definition.
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
use serde::{Fields, ObjectWriter, Record, Serialize, Writer};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

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

impl ReportDoc<'_> {
    /// The document as [`Text`], byte for byte what `serde_json::to_string`
    /// writes: the `files` rows as the runs of `memo` (see [`RowMemo`]),
    /// and everything around them rendered from [`ReportDoc`]'s fields.
    /// The memo is locked only while the runs are gathered; one that a
    /// panic poisoned may be half updated, so it starts over empty.
    pub fn to_text(&self, memo: &Mutex<RowMemo>) -> (Text, RowCounts) {
        let mut head = String::new();
        let mut w = Writer::compact(&mut head);
        let mut doc = w.object();
        self.fields(&mut Before {
            doc: &mut doc,
            done: false,
        });
        let mut rows = memo.lock().unwrap_or_else(|poisoned| {
            memo.clear_poison();
            let mut rows = poisoned.into_inner();
            *rows = RowMemo::default();
            rows
        });
        let (runs, counts) = rows.runs(&self.result.files);
        drop(rows);
        let mut tail = String::from("]");
        self.fields(&mut After {
            w: &mut Writer::compact(&mut tail),
            started: false,
        });
        tail.push('}');
        (Text { head, runs, tail }, counts)
    }
}

/// The fields up to `files` into the open document, then the `files` key
/// and the bracket that opens its array.
struct Before<'d, 'w, 'a> {
    doc: &'d mut ObjectWriter<'w, 'a>,
    done: bool,
}

impl Fields for Before<'_, '_, '_> {
    fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        if self.done {
            return;
        }
        if key == "files" {
            self.doc.key(key).raw("[");
            self.done = true;
        } else {
            self.doc.field(key, value);
        }
    }
}

/// The fields after `files`, each as the `,"key":value` a compact object
/// writes after its first field.
struct After<'w, 'a> {
    w: &'w mut Writer<'a>,
    started: bool,
}

impl Fields for After<'_, '_> {
    fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        if self.started {
            self.w.raw(",");
            self.w.str(key);
            self.w.raw(":");
            value.write_json(self.w);
        }
        self.started |= key == "files";
    }
}

/// Corpus positions per run of `files` rows that a [`RowMemo`] keeps.
pub const ROWS_PER_RUN: usize = 64;

/// A document as compact JSON text in pieces: `head`, then every run,
/// then `tail`, written back to back, are its bytes. The runs are shared
/// with the [`RowMemo`] that rendered them, never copied.
#[derive(Clone, Debug, Default)]
pub struct Text {
    pub head: String,
    pub runs: Vec<Arc<str>>,
    pub tail: String,
}

impl Text {
    /// The pieces in order.
    pub fn pieces(&self) -> impl Iterator<Item = &str> {
        let runs = self.runs.iter().map(|run| &**run);
        std::iter::once(&*self.head)
            .chain(runs)
            .chain(std::iter::once(&*self.tail))
    }

    /// The document as one string.
    pub fn joined(&self) -> String {
        self.pieces().collect()
    }
}

impl From<String> for Text {
    fn from(head: String) -> Text {
        Text {
            head,
            ..Text::default()
        }
    }
}

/// How many `files` rows a [`RowMemo::runs`] took from the memo, and how
/// many it rendered.
#[derive(Clone, Copy, Debug, Default)]
pub struct RowCounts {
    pub reused: usize,
    pub rendered: usize,
}

/// The `files` rows of the last report rendered through it, as runs of
/// [`ROWS_PER_RUN`] corpus positions: each run's text (the comma before
/// it included, but for the first), and what each position's row was
/// rendered from.
///
/// A run is reused when every position holds the same record `Arc` as
/// before ([`Arc::ptr_eq`], no dereference) or, where the `Arc` differs,
/// a record with the same four row fields. Anything else is rendered
/// again. The memo holds the `Arc`s it compares against, so a record it
/// remembers is never freed, and a new record can never sit at its
/// address; nor can it change, since `Arc::make_mut` copies a shared one.
/// A record that arrives as a new copy of an equal row (the site holders
/// `Engine::finish` copies on every run) is remembered by its row fields
/// instead, so the memo keeps no run's copies alive.
#[derive(Default)]
pub struct RowMemo {
    /// Per position, the record its row was rendered from; `None` for a
    /// copy, whose fields are in `copies`.
    records: Vec<Option<Arc<FileAnalysis>>>,
    copies: HashMap<usize, RowFields>,
    runs: Vec<Arc<str>>,
}

impl RowMemo {
    /// The runs of `files`' rows, and the counts of reused and rendered
    /// rows; the memo then holds `files`' runs.
    pub fn runs(&mut self, files: &[Arc<FileAnalysis>]) -> (Vec<Arc<str>>, RowCounts) {
        let mut counts = RowCounts::default();
        let old_len = self.records.len();
        self.runs.truncate(files.len().div_ceil(ROWS_PER_RUN));
        for (k, chunk) in files.chunks(ROWS_PER_RUN).enumerate() {
            let start = k * ROWS_PER_RUN;
            // A run is comparable only if it covered the same positions.
            let mut same =
                k < self.runs.len() && old_len.min(start + ROWS_PER_RUN) == start + chunk.len();
            for (i, fa) in (start..).zip(chunk) {
                same &= self.remember(i, fa);
            }
            if same {
                counts.reused += chunk.len();
                continue;
            }
            counts.rendered += chunk.len();
            let text = render_run(chunk, k > 0);
            match self.runs.get_mut(k) {
                Some(run) => *run = text,
                None => self.runs.push(text),
            }
        }
        self.records.truncate(files.len());
        self.copies.retain(|&i, _| i < files.len());
        (self.runs.clone(), counts)
    }

    /// Remember `fa` at position `i`; whether its row is the one the
    /// memo had there.
    fn remember(&mut self, i: usize, fa: &Arc<FileAnalysis>) -> bool {
        let Some(slot) = self.records.get_mut(i) else {
            self.records.push(Some(fa.clone()));
            return false;
        };
        match slot {
            Some(old) if Arc::ptr_eq(old, fa) => true,
            Some(old) if RowFields::of(old).matches(fa) => {
                self.copies.insert(i, RowFields::of(fa));
                *slot = None;
                true
            }
            None if self.copies[&i].matches(fa) => true,
            _ => {
                *slot = Some(fa.clone());
                self.copies.remove(&i);
                false
            }
        }
    }
}

/// What a `files` row is rendered from: [`FileRow`]'s fields. The memo
/// keeps them for a copy instead of the copy.
struct RowFields {
    name: String,
    barriers: usize,
    functions: usize,
    parse_errors: usize,
}

impl RowFields {
    fn of(fa: &FileAnalysis) -> RowFields {
        RowFields {
            name: fa.name.clone(),
            barriers: fa.sites.len(),
            functions: fa.function_count,
            parse_errors: fa.parse_error_count,
        }
    }

    fn matches(&self, fa: &FileAnalysis) -> bool {
        self.name == fa.name
            && self.barriers == fa.sites.len()
            && self.functions == fa.function_count
            && self.parse_errors == fa.parse_error_count
    }
}

/// One run's rows, comma-separated, after a comma when another run
/// precedes it.
fn render_run(chunk: &[Arc<FileAnalysis>], after_another: bool) -> Arc<str> {
    let mut text = String::with_capacity(chunk.len() * 80);
    let mut w = Writer::compact(&mut text);
    for (i, fa) in chunk.iter().enumerate() {
        if after_another || i > 0 {
            w.raw(",");
        }
        FileRow(fa).write_json(&mut w);
    }
    text.into()
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
    use super::RowMemo;
    use crate::config::AnalysisConfig;
    use crate::engine::{AnalysisResult, Engine, SourceFile};
    use std::sync::Mutex;

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

    /// `n` files: every tenth holds the demo's barrier pair, the rest a
    /// barrier-free helper.
    fn corpus(n: usize) -> Vec<SourceFile> {
        let pair = demo_files()[0].content.clone();
        (0..n)
            .map(|i| {
                let text = if i % 10 == 0 {
                    pair.to_string()
                } else {
                    format!("int h{i}(int x) {{ return x + {i}; }}\n")
                };
                SourceFile::new(format!("f{i:03}.c"), text)
            })
            .collect()
    }

    /// The report as text through `memo`, checked against the compact
    /// report, and the rows it reused and rendered.
    fn text_through(memo: &Mutex<RowMemo>, r: &AnalysisResult) -> (usize, usize) {
        let (text, rows) = r.report().to_text(memo);
        assert_eq!(text.joined(), serde_json::to_string(&r.report()).unwrap());
        assert_eq!(rows.reused + rows.rendered, r.files.len());
        (rows.reused, rows.rendered)
    }

    #[test]
    fn text_reuses_the_runs_of_unchanged_rows() {
        let mut files = corpus(150);
        let mut engine = Engine::new(AnalysisConfig::default());
        let memo = Mutex::new(RowMemo::default());
        assert_eq!(text_through(&memo, &engine.analyze(&files)), (0, 150));
        // Same records: every run reused, the site holders' copies too.
        assert_eq!(text_through(&memo, &engine.analyze(&files)), (150, 0));
        // One edit that changes the row: its run of 64 is rendered.
        files[70] = SourceFile::new("f070.c", "int h70(int x); int g(void);\n");
        assert_eq!(text_through(&memo, &engine.analyze(&files)), (86, 64));
        // A file that sorts first moves every position: all rendered.
        files.insert(0, SourceFile::new("a.c", "int a;\n"));
        assert_eq!(text_through(&memo, &engine.analyze(&files)), (0, 151));
        // Dropping the last file shortens only the last run.
        files.pop();
        assert_eq!(text_through(&memo, &engine.analyze(&files)), (128, 22));
        // No rows at all.
        let empty = Engine::new(AnalysisConfig::default()).analyze(&[]);
        assert_eq!(text_through(&memo, &empty), (0, 0));
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
