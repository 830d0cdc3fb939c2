//! End-to-end tests of the observability layer: span nesting and
//! per-file attribution through the full pipeline, counter aggregation
//! (and reset) across incremental runs, validity of both export formats,
//! and the pairing explainer on the paper's seqcount fixture.

use ofence::{explain_site_with, AnalysisConfig, Engine, SourceFile};
use ofence_corpus::fixtures;

fn demo_files() -> Vec<SourceFile> {
    vec![
        SourceFile::new(
            "reader.c",
            r#"struct m { int init; int y; };
void reader(struct m *a) { if (!a->init) return; smp_rmb(); f(a->y); }
"#,
        ),
        SourceFile::new(
            "writer.c",
            r#"struct m { int init; int y; };
void writer(struct m *b) { b->y = 1; smp_wmb(); b->init = 1; }
"#,
        ),
    ]
}

#[test]
fn all_pipeline_phases_have_spans() {
    let r = Engine::new(AnalysisConfig::default()).analyze(&demo_files());
    for phase in ["analyze", "parse", "cfg", "extract", "pair", "check"] {
        assert!(
            r.obs.spans_named(phase).next().is_some(),
            "no `{phase}` span in {:?}",
            r.obs.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    }
    // Per-file phases ran once per file.
    assert_eq!(r.obs.spans_named("parse").count(), 2);
    assert_eq!(r.obs.spans_named("cfg").count(), 2);
    assert_eq!(r.obs.spans_named("extract").count(), 2);
    // Global phases ran once per run.
    assert_eq!(r.obs.spans_named("pair").count(), 1);
    assert_eq!(r.obs.spans_named("analyze").count(), 1);
}

#[test]
fn spans_carry_per_file_attribution() {
    let r = Engine::new(AnalysisConfig::default()).analyze(&demo_files());
    let mut parse_files: Vec<&str> = r
        .obs
        .spans_named("parse")
        .filter_map(|s| s.attr("file"))
        .collect();
    parse_files.sort_unstable();
    assert_eq!(parse_files, ["reader.c", "writer.c"]);
    // cfg-build spans additionally name the function.
    assert!(r
        .obs
        .spans_named("cfg-build")
        .any(|s| s.attr("function") == Some("writer")));
}

#[test]
fn nested_frontend_spans_point_at_parse() {
    let r = Engine::new(AnalysisConfig::default()).analyze(&demo_files());
    let parse_ids: Vec<u64> = r.obs.spans_named("parse").map(|s| s.id).collect();
    for sub in ["lex", "pp", "parse-tokens"] {
        for s in r.obs.spans_named(sub) {
            let parent = s.parent.expect("frontend sub-span has a parent");
            assert!(
                parse_ids.contains(&parent),
                "`{sub}` span nested under {parent}, not a parse span"
            );
        }
    }
}

#[test]
fn counters_reset_between_incremental_runs() {
    let files = demo_files();
    let mut engine = Engine::new(AnalysisConfig::default());
    let r1 = engine.analyze(&files);
    let pairs1 = r1.obs.count_of("pairings_formed");
    assert_eq!(pairs1, 1);
    assert_eq!(r1.obs.count_of("ckit_files_parsed"), 2);

    // Unchanged re-run: everything cached, counters must NOT accumulate.
    let r2 = engine.analyze(&files);
    assert_eq!(r2.obs.count_of("pairings_formed"), 1, "accumulated!");
    assert_eq!(r2.obs.count_of("ckit_files_parsed"), 0, "cache was hot");
    assert_eq!(r2.obs.count_of("engine_cache_hits"), 2);

    // Touch one file: exactly one re-parse.
    let mut files = files;
    files[0].content = format!("{}\n/* touched */\n", files[0].content).into();
    let r3 = engine.analyze(&files);
    assert_eq!(r3.obs.count_of("ckit_files_parsed"), 1);
    assert_eq!(r3.obs.count_of("engine_cache_hits"), 1);
}

#[test]
fn decision_counters_match_result() {
    let r = Engine::new(AnalysisConfig::default()).analyze(&demo_files());
    assert_eq!(
        r.obs.count_of("extract_barriers_found") as usize,
        r.sites.len()
    );
    assert_eq!(
        r.obs.count_of("pairings_formed") as usize,
        r.pairing.pairings.len()
    );
    assert_eq!(
        r.obs.count_of("check_deviations_emitted") as usize
            + r.obs.count_of("missing_reports_emitted") as usize,
        r.deviations.len()
    );
    assert!(r.obs.count_of("pair_candidates_considered") > 0);
}

#[test]
fn chrome_trace_parses_and_names_phases() {
    let r = Engine::new(AnalysisConfig::default()).analyze(&demo_files());
    let trace = r.obs.chrome_trace_json();
    let v: serde_json::Value = serde_json::from_str(&trace).expect("trace is valid JSON");
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    let names: Vec<&str> = events.iter().filter_map(|e| e["name"].as_str()).collect();
    for phase in ["analyze", "parse", "cfg", "extract", "pair", "check"] {
        assert!(names.contains(&phase), "trace missing `{phase}`: {names:?}");
    }
    // Per-file attribution survives the export.
    assert!(events.iter().any(|e| e["args"]["file"] == "writer.c"));
}

#[test]
fn prometheus_text_is_well_formed() {
    let r = Engine::new(AnalysisConfig::default()).analyze(&demo_files());
    let text = r.obs.prometheus_text();
    assert!(text.contains("# TYPE ofence_pairings_formed_total counter"));
    assert!(text.contains("ofence_pairings_formed_total 1"));
    assert!(text.contains("ofence_span_duration_seconds{span=\"pair\"}"));
    // Every non-comment line is `name{labels} value` or `name value`.
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (name, value) = line.rsplit_once(' ').expect("name value");
        assert!(!name.is_empty());
        assert!(value.parse::<f64>().is_ok(), "bad value in `{line}`");
    }
}

#[test]
fn stats_phase_breakdown_covers_pipeline() {
    let r = Engine::new(AnalysisConfig::default()).analyze(&demo_files());
    for phase in ["parse", "extract", "pair", "check"] {
        assert!(
            r.stats.phase_us.contains_key(phase),
            "stats missing phase {phase}: {:?}",
            r.stats.phase_us
        );
    }
    assert!(!r.stats.slowest_files.is_empty());
    let rendered = r.stats.render();
    assert!(
        rendered.contains(&format!(
            "top {} slowest files:",
            r.stats.slowest_files.len()
        )),
        "{rendered}"
    );
    assert!(rendered.contains("pair"), "{rendered}");
}

#[test]
fn explain_seqcount_double_pairing() {
    // The paper's Listing 3: four seqcount barriers over the same two
    // counters merge into one multi-barrier group. The explainer must
    // show the full candidate set with weights for the write-side begin.
    let files = vec![SourceFile::new("xt.c", fixtures::LISTING3)];
    let r = Engine::new(AnalysisConfig::default()).analyze(&files);
    assert_eq!(r.sites.len(), 4);
    let writer = r
        .sites
        .iter()
        .find(|s| s.site.function == "do_add_counters" && s.is_write_barrier())
        .expect("write-side seqcount barrier");
    let e = explain_site_with(&r.sites, &r.pairing, &AnalysisConfig::default(), writer.id)
        .expect("explanation");
    // All three other barriers are candidates sharing the counters.
    assert_eq!(e.candidates.len(), 3, "{e:?}");
    assert!(e.candidates.iter().all(|c| !c.shared_objects.is_empty()));
    match &e.outcome {
        ofence::explain::Outcome::Paired { members, multi, .. } => {
            assert!(*multi, "seqcount group is a multi-pairing");
            assert_eq!(members.len(), 4);
        }
        other => panic!("expected Paired, got {other:?}"),
    }
    let text = e.render();
    assert!(text.contains("candidates (3 evaluated"), "{text}");
    assert!(text.contains("weight"), "{text}");
    assert!(text.contains("multi-barrier group"), "{text}");
}

#[test]
fn json_schema_exposes_observability() {
    let r = Engine::new(AnalysisConfig::default()).analyze(&demo_files());
    let v = r.to_json();
    assert_eq!(v["schema_version"], ofence::json::SCHEMA_VERSION);
    assert!(v["observability"]["counters"]["pairings_formed"] == 1);
    assert!(v["observability"]["phase_us"]["pair"].as_u64().is_some());
}
