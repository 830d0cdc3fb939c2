//! Golden-file snapshot tests for the machine-readable surfaces:
//! `analyze --json` (schema v2) and the `explain` rendering, pinned on
//! the paper's own fixtures.
//!
//! Run-dependent fields (`elapsed_ms`, `phase_us`, `slowest_files`,
//! `run_id`) are scrubbed before comparison; everything else — site extraction,
//! pairings, deviations, patches, annotations, counters — must match the
//! checked-in snapshot byte for byte. To regenerate after an intentional
//! output change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use ofence::{AnalysisConfig, Engine, SourceFile};
use ofence_corpus::fixtures;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "output drifted from {name}; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

/// Replace run-dependent values anywhere in the tree so snapshots only
/// pin semantic output.
fn scrub(v: serde_json::Value) -> serde_json::Value {
    use serde_json::Value;
    match v {
        // Worker counters are dropped (not value-scrubbed) because their
        // *presence* is run-dependent: a zero-valued counter (e.g. no
        // worker idle time on a tiny corpus) is never created at all.
        Value::Object(m) => Value::Object(
            m.into_iter()
                .filter(|(k, _)| {
                    !matches!(
                        k.as_str(),
                        "workers" | "worker_busy_us" | "worker_idle_us" | "worker_utilization"
                    )
                })
                .map(|(k, v)| {
                    let v = if matches!(
                        k.as_str(),
                        "elapsed_ms" | "phase_us" | "slowest_files" | "run_id"
                    ) {
                        Value::String("<scrubbed>".to_string())
                    } else {
                        scrub(v)
                    };
                    (k, v)
                })
                .collect(),
        ),
        Value::Array(a) => Value::Array(a.into_iter().map(scrub).collect()),
        other => other,
    }
}

fn analyze(name: &str, source: &str) -> ofence::AnalysisResult {
    Engine::new(AnalysisConfig::default()).analyze(&[SourceFile::new(name, source)])
}

fn json_snapshot(result: &ofence::AnalysisResult) -> String {
    let mut text = serde_json::to_string_pretty(&scrub(result.to_json())).unwrap();
    text.push('\n');
    text
}

#[test]
fn analyze_json_listing1_matches_golden() {
    let r = analyze("listing1.c", fixtures::LISTING1);
    check_golden("analyze_listing1.json", &json_snapshot(&r));
}

#[test]
fn analyze_json_patch1_matches_golden() {
    let r = analyze("xprt.c", fixtures::PATCH1_BUGGY);
    check_golden("analyze_patch1.json", &json_snapshot(&r));
}

#[test]
fn explain_patch1_matches_golden() {
    let r = analyze("xprt.c", fixtures::PATCH1_BUGGY);
    assert!(!r.sites.is_empty());
    // Explain every barrier in the fixture, in site order, so the
    // snapshot pins the whole decision replay surface.
    let mut out = String::new();
    for site in &r.sites {
        let e =
            ofence::explain_site_with(&r.sites, &r.pairing, &AnalysisConfig::default(), site.id)
                .expect("site id from this result");
        out.push_str(&e.render());
        out.push('\n');
    }
    check_golden("explain_patch1.txt", &out);
}

#[test]
fn explain_json_listing1_matches_golden() {
    let r = analyze("listing1.c", fixtures::LISTING1);
    let site = r.sites.first().expect("listing1 has barriers");
    let e = ofence::explain_site_with(&r.sites, &r.pairing, &AnalysisConfig::default(), site.id)
        .expect("site id from this result");
    let mut text = serde_json::to_string_pretty(&serde_json::to_value(&e)).unwrap();
    text.push('\n');
    check_golden("explain_listing1.json", &text);
}

/// The report view writes exactly the bytes of its own tree, compact and
/// pretty: over every paper fixture and over a 1.2k corpus with injected
/// bugs, at depth 0, at depth 2, and with missing-barrier detection.
#[test]
fn report_text_matches_its_tree() {
    let configs = [
        AnalysisConfig::default(),
        AnalysisConfig {
            ipa_depth: 2,
            ..AnalysisConfig::default()
        },
        AnalysisConfig {
            detect_missing: true,
            ..AnalysisConfig::default()
        },
    ];
    let fixture_files: Vec<SourceFile> = [
        ("listing1.c", fixtures::LISTING1),
        ("listing2.c", fixtures::LISTING2),
        ("listing3.c", fixtures::LISTING3),
        ("bnx2x.c", fixtures::LISTING4_BNX2X),
        ("patch1_buggy.c", fixtures::PATCH1_BUGGY),
        ("patch1_fixed.c", fixtures::PATCH1_FIXED),
        ("patch3_buggy.c", fixtures::PATCH3_BUGGY),
        ("patch4_buggy.c", fixtures::PATCH4_BUGGY),
        ("patch5_unannotated.c", fixtures::PATCH5_UNANNOTATED),
        ("perf_rb_missing_rmb.c", fixtures::PERF_RB_MISSING_RMB),
        ("perf_rb_fixed.c", fixtures::PERF_RB_FIXED),
    ]
    .into_iter()
    .map(|(name, text)| SourceFile::new(name, text))
    .collect();
    let spec = ofence_corpus::CorpusSpec {
        bugs: ofence_corpus::BugPlan {
            misplaced: 4,
            repeated_read: 2,
            wrong_type: 1,
            unneeded: 4,
            missing_barrier: 2,
        },
        ..ofence_corpus::CorpusSpec::tier("1200", 7).unwrap()
    };
    let generated: Vec<SourceFile> = ofence_corpus::generate(&spec)
        .files
        .into_iter()
        .map(|f| SourceFile::new(f.name, f.content))
        .collect();
    for config in &configs {
        let mut results: Vec<(String, ofence::AnalysisResult)> = fixture_files
            .iter()
            .map(|f| {
                let r = Engine::new(config.clone()).analyze(std::slice::from_ref(f));
                (f.name.clone(), r)
            })
            .collect();
        let corpus = Engine::new(config.clone()).analyze(&generated);
        assert!(!corpus.deviations.is_empty());
        results.push(("1.2k corpus".to_string(), corpus));
        for (what, r) in &results {
            let view = r.report();
            let tree = serde_json::to_value(&view);
            assert_eq!(
                serde_json::to_string(&view).unwrap(),
                tree.to_string(),
                "{what} (ipa_depth {}, missing {})",
                config.ipa_depth,
                config.detect_missing
            );
            assert_eq!(
                serde_json::to_string_pretty(&view).unwrap(),
                serde_json::to_string_pretty(&tree).unwrap(),
                "{what} (ipa_depth {}, missing {})",
                config.ipa_depth,
                config.detect_missing
            );
        }
    }
}
