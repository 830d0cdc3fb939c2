//! Inter-procedural analysis, end to end: cross-file chain corpora,
//! composition-vs-inlining equivalence, recursion fixtures, depth-0
//! conservatism, and cache invalidation under `--ipa-depth`.

use ofence::{AnalysisConfig, Engine, SourceFile};
use ofence_bench::harness::to_source_files;
use ofence_corpus::{generate, BugKind, CorpusSpec, PatternKind};
use proptest::prelude::*;

fn depth_config(depth: u32) -> AnalysisConfig {
    AnalysisConfig {
        ipa_depth: depth,
        ..Default::default()
    }
}

fn chain_spec(seed: u64, chains: usize, depth: usize, bugs: usize) -> CorpusSpec {
    let mut spec = CorpusSpec::small(seed);
    spec.files = 12;
    spec.cross_file_chains = chains;
    spec.chain_depth = depth;
    spec.chain_bugs = bugs;
    spec
}

/// Function sets of the reported pairings, sorted for comparison.
fn pairing_functions(result: &ofence::AnalysisResult) -> Vec<Vec<String>> {
    let mut sets: Vec<Vec<String>> = result
        .pairing
        .pairings
        .iter()
        .map(|p| {
            let mut fns: Vec<String> = p
                .members
                .iter()
                .map(|&m| result.site(m).site.function.clone())
                .collect();
            fns.sort();
            fns.dedup();
            fns
        })
        .collect();
    sets.sort();
    sets
}

#[test]
fn cross_file_chains_pair_only_at_sufficient_depth() {
    let corpus = generate(&chain_spec(51, 5, 2, 0));
    let files = to_source_files(&corpus);
    let chains: Vec<_> = corpus
        .manifest
        .expected_pairings
        .iter()
        .filter(|p| p.kind == PatternKind::CrossFileChain)
        .collect();
    assert_eq!(chains.len(), 5);

    // Depth 0: the chain barriers see one shared object each — invisible.
    let shallow = Engine::new(depth_config(0)).analyze(&files);
    let shallow_fns = pairing_functions(&shallow);
    for exp in &chains {
        assert!(
            !shallow_fns
                .iter()
                .any(|fns| exp.functions.iter().all(|f| fns.contains(f))),
            "chain {:?} paired at depth 0",
            exp.functions
        );
    }

    // Depth 1 is one call level short of the accesses.
    let mid = Engine::new(depth_config(1)).analyze(&files);
    let mid_fns = pairing_functions(&mid);
    for exp in &chains {
        assert!(
            !mid_fns
                .iter()
                .any(|fns| exp.functions.iter().all(|f| fns.contains(f))),
            "chain {:?} paired at depth 1",
            exp.functions
        );
    }

    // Depth 2 (== chain depth): ≥90% recall required, and here all 5.
    let deep = Engine::new(depth_config(2)).analyze(&files);
    let deep_fns = pairing_functions(&deep);
    let found = chains
        .iter()
        .filter(|exp| {
            deep_fns
                .iter()
                .any(|fns| exp.functions.iter().all(|f| fns.contains(f)))
        })
        .count();
    assert!(
        found as f64 >= 0.9 * chains.len() as f64,
        "cross-file recall {found}/{} at depth 2",
        chains.len()
    );
    // Provenance: the assisting pairings are counted.
    assert!(
        deep.obs.count_of("pair_ipa_assisted") >= found as u64,
        "pair_ipa_assisted={}",
        deep.obs.count_of("pair_ipa_assisted")
    );
}

#[test]
fn deep_callee_misplaced_read_found_only_interprocedurally() {
    let corpus = generate(&chain_spec(52, 4, 2, 2));
    let files = to_source_files(&corpus);
    let injected: Vec<_> = corpus
        .manifest
        .bugs
        .iter()
        .filter(|b| b.kind == BugKind::Misplaced && b.function.starts_with("chain"))
        .collect();
    assert_eq!(injected.len(), 2);

    let matches = |result: &ofence::AnalysisResult| {
        injected
            .iter()
            .filter(|b| {
                result.deviations.iter().any(|d| {
                    d.site.function == b.function
                        && matches!(d.kind, ofence::DeviationKind::Misplaced { .. })
                        && d.object.as_ref().is_some_and(|o| o.field == b.field)
                })
            })
            .count()
    };

    let shallow = Engine::new(depth_config(0)).analyze(&files);
    assert_eq!(matches(&shallow), 0, "deep bug visible at depth 0");

    let deep = Engine::new(depth_config(2)).analyze(&files);
    assert_eq!(matches(&deep), 2, "{:#?}", deep.deviations);

    // The finding's provenance names the peek chain.
    let records = ofence::fingerprint::finding_records(&deep.deviations, &deep.sites, &deep.files);
    let with_chain = records
        .iter()
        .filter(|r| r.rule == "misplaced-access" && !r.via_calls.is_empty())
        .count();
    assert!(with_chain >= 1, "no misplaced finding carries via_calls");
}

#[test]
fn depth_zero_reports_identical_to_pre_ipa_pipeline() {
    // On a corpus with no chains, every depth-0 report must be exactly
    // the default pipeline's (the IPA pass is a strict no-op when off).
    let corpus = generate(&CorpusSpec::small(53));
    let files = to_source_files(&corpus);
    let default = Engine::new(AnalysisConfig::default()).analyze(&files);
    let depth0 = Engine::new(depth_config(0)).analyze(&files);
    // Drop run-specific keys (run id, timings) before comparing.
    let scrub = |v: serde_json::Value| -> serde_json::Value {
        let serde_json::Value::Object(m) = v else {
            panic!("report is not an object")
        };
        serde_json::Value::Object(
            m.into_iter()
                .filter(|(k, _)| k != "run_id" && k != "stats" && k != "observability")
                .collect(),
        )
    };
    let a = scrub(default.to_json());
    let b = scrub(depth0.to_json());
    assert_eq!(
        serde_json::to_string_pretty(&a).unwrap(),
        serde_json::to_string_pretty(&b).unwrap()
    );
}

#[test]
fn existing_fixtures_gain_no_findings_at_depth_two() {
    // 0 new false positives on the paper fixtures when IPA is on.
    use ofence_corpus::fixtures as fx;
    let fixtures: [(&str, &str); 11] = [
        ("listing1.c", fx::LISTING1),
        ("listing2.c", fx::LISTING2),
        ("listing3.c", fx::LISTING3),
        ("listing4.c", fx::LISTING4_BNX2X),
        ("patch1_buggy.c", fx::PATCH1_BUGGY),
        ("patch1_fixed.c", fx::PATCH1_FIXED),
        ("patch3_buggy.c", fx::PATCH3_BUGGY),
        ("patch4_buggy.c", fx::PATCH4_BUGGY),
        ("patch5.c", fx::PATCH5_UNANNOTATED),
        ("perf_rb_missing.c", fx::PERF_RB_MISSING_RMB),
        ("perf_rb_fixed.c", fx::PERF_RB_FIXED),
    ];
    for (name, src) in fixtures {
        let files = vec![SourceFile::new(name, src)];
        let base = Engine::new(AnalysisConfig::default()).analyze(&files);
        let deep = Engine::new(depth_config(2)).analyze(&files);
        let fp = |r: &ofence::AnalysisResult| {
            let mut v: Vec<String> = r
                .deviations
                .iter()
                .map(|d| format!("{:?}@{}:{:?}", d.kind, d.site.function, d.object))
                .collect();
            v.sort();
            v
        };
        assert_eq!(fp(&base), fp(&deep), "fixture {name} changed at depth 2");
    }
}

/// Inline a chain program by hand: every chain callee's accesses pasted
/// into its caller, matching what depth-N composition should see.
fn chain_inlined_source(n: usize, buggy: bool) -> String {
    let st = format!("chain{n}_obj");
    let peek = if buggy { "\tpat_sink(r->d0);\n" } else { "" };
    let take = if buggy {
        "\tpat_sink(r->d1);\n"
    } else {
        "\tpat_sink(r->d0);\n\tpat_sink(r->d1);\n"
    };
    format!(
        "struct {st} {{\n\tint d0;\n\tint d1;\n\tint ready;\n}};\n\
         void chain{n}_publish(struct {st} *w, int v)\n{{\n\tw->d0 = v;\n\tw->d1 = v + 1;\n\tsmp_wmb();\n\tw->ready = 1;\n}}\n\
         void chain{n}_consume(struct {st} *r)\n{{\n\tif (!r->ready)\n\t\treturn;\n{peek}\tsmp_rmb();\n{take}}}\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Depth-N summary composition finds the same protocols as direct
    /// analysis of the hand-inlined program: identical pairing function
    /// membership (modulo the helper names that only exist in the
    /// chain form) and identical deviation kinds per function.
    #[test]
    fn composition_equivalent_to_inlining(
        seed in 0u64..500,
        chains in 1usize..4,
        depth in 1usize..4,
        bugs in 0usize..2,
    ) {
        let bugs = bugs.min(chains);
        let corpus = generate(&chain_spec(seed, chains, depth, bugs));
        let composed = Engine::new(depth_config(depth as u32)).analyze(&to_source_files(&corpus));

        // The equivalent inlined program: same callers, no helpers.
        let inlined_files: Vec<SourceFile> = (0..chains)
            .map(|c| {
                let id = 90_000 + c;
                SourceFile::new(
                    format!("inline/chain{c}.c"),
                    chain_inlined_source(id, c < bugs),
                )
            })
            .collect();
        let inlined = Engine::new(AnalysisConfig::default()).analyze(&inlined_files);

        // Every chain pairing of the inlined program appears in the
        // composed run (the composed run additionally holds the base
        // corpus's own pairings).
        let composed_fns = pairing_functions(&composed);
        for fns in pairing_functions(&inlined) {
            prop_assert!(
                composed_fns.iter().any(|c| fns.iter().all(|f| c.contains(f))),
                "inlined pairing {fns:?} missing from composed run ({composed_fns:?})"
            );
        }

        // Deviation kinds per chain caller agree.
        let devs = |r: &ofence::AnalysisResult| {
            let mut v: Vec<String> = r
                .deviations
                .iter()
                .filter(|d| d.site.function.starts_with("chain"))
                .map(|d| {
                    format!(
                        "{}:{}",
                        d.site.function,
                        match d.kind {
                            ofence::DeviationKind::Misplaced { .. } => "misplaced",
                            ofence::DeviationKind::RepeatedRead { .. } => "reread",
                            ofence::DeviationKind::WrongBarrierType { .. } => "wrongtype",
                            ofence::DeviationKind::UnneededBarrier { .. } => "unneeded",
                            ofence::DeviationKind::MissingBarrier { .. } => "missing",
                            ofence::DeviationKind::MissingOnce { .. } => "once",
                        }
                    )
                })
                .collect();
            v.sort();
            v.dedup();
            v
        };
        prop_assert_eq!(devs(&composed), devs(&inlined));
    }
}

#[test]
fn recursion_terminates_with_stable_fingerprints() {
    // An SCC with a self-call and a mutual cycle feeding the barrier's
    // window: composition must terminate and produce identical
    // fingerprints run over run.
    let src = r#"
struct rec { int d0; int d1; int ready; };
void rec_self(struct rec *p, int n) {
    if (n > 0)
        rec_self(p, n - 1);
    p->d0 = n;
}
void rec_a(struct rec *p);
void rec_b(struct rec *p) {
    p->d1 = 2;
    rec_a(p);
}
void rec_a(struct rec *p) {
    rec_b(p);
}
void rec_pub(struct rec *p) {
    rec_self(p, 3);
    rec_b(p);
    smp_wmb();
    p->ready = 1;
}
void rec_sub(struct rec *p) {
    if (!p->ready)
        return;
    smp_rmb();
    pat_sink(p->d0);
    pat_sink(p->d1);
}
"#;
    let files = vec![
        SourceFile::new("rec_w.c", src),
        SourceFile::new(
            "rec_r.c",
            "struct other { int x; int y; };\nvoid other_noise(struct other *p) { p->x = p->y; }\n",
        ),
    ];
    let run = |_: usize| Engine::new(depth_config(3)).analyze(&files);
    let a = run(0);
    let b = run(1);
    // The recursive writer still pairs with the reader.
    let fns = pairing_functions(&a);
    assert!(
        fns.iter()
            .any(|f| f.contains(&"rec_pub".to_string()) && f.contains(&"rec_sub".to_string())),
        "recursive chain did not pair: {fns:?}"
    );
    let prints = |r: &ofence::AnalysisResult| {
        let mut v: Vec<String> =
            ofence::fingerprint::finding_records(&r.deviations, &r.sites, &r.files)
                .into_iter()
                .map(|rec| rec.fingerprint)
                .collect();
        v.sort();
        v
    };
    assert_eq!(prints(&a), prints(&b));
}

#[test]
fn missing_barrier_exoneration_uses_callee_fences() {
    // A reader whose fence lives two call levels down — beyond the ±1
    // expansion window, so the writer stays unpaired and the intra-
    // procedural missing-barrier detector sees a fence-less guarded
    // reader. Whole-corpus summary evidence exonerates it at depth ≥ 2.
    let src = r#"
struct exo { int flag; int data; int spare; };
void exo_pub(struct exo *p) {
    p->data = 1;
    p->spare = 2;
    smp_wmb();
    p->flag = 1;
}
void exo_inner(struct exo *p) {
    smp_rmb();
    pat_sink(p->data);
}
void exo_mid(struct exo *p) {
    exo_inner(p);
}
void exo_outer(struct exo *p) {
    if (!p->flag)
        return;
    exo_mid(p);
    pat_sink(p->spare);
}
"#;
    let files = vec![SourceFile::new("exo.c", src)];
    let missing_cfg = |depth: u32| AnalysisConfig {
        detect_missing: true,
        outlier_rule: false,
        ipa_depth: depth,
        ..Default::default()
    };
    let flagged = |r: &ofence::AnalysisResult| {
        r.deviations
            .iter()
            .filter(|d| {
                matches!(d.kind, ofence::DeviationKind::MissingBarrier { .. })
                    && d.site.function == "exo_outer"
            })
            .count()
    };
    let shallow = Engine::new(missing_cfg(0)).analyze(&files);
    assert!(
        flagged(&shallow) > 0,
        "depth 0 should flag the outer reader: {:#?}",
        shallow.deviations
    );
    let short = Engine::new(missing_cfg(1)).analyze(&files);
    assert!(
        flagged(&short) > 0,
        "the fence is two calls down; depth 1 cannot see it: {:#?}",
        short.deviations
    );
    let deep = Engine::new(missing_cfg(2)).analyze(&files);
    assert_eq!(
        flagged(&deep),
        0,
        "callee fence must exonerate the outer reader"
    );
    assert!(deep.obs.count_of("missing_readers_exonerated") >= 1);
}

#[test]
fn warm_cache_at_new_depth_recomputes() {
    // End-to-end satellite check: a cache warmed at depth 0 must not
    // serve a depth-2 run (the config fingerprint covers ipa_depth).
    let dir = std::env::temp_dir().join(format!("ofence-ipa-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus = generate(&chain_spec(54, 2, 2, 0));
    let files = to_source_files(&corpus);

    let mut cold = Engine::new(depth_config(0));
    cold.analyze(&files);
    cold.save_disk_cache(&dir).unwrap();

    let mut deep = Engine::new(depth_config(2));
    deep.load_disk_cache(&dir);
    let result = deep.analyze(&files);
    assert_eq!(
        result.obs.count_of("engine_cache_hits"),
        0,
        "depth-0 cache entries served a depth-2 run"
    );
    // The deep run still finds the chains.
    assert!(result.obs.count_of("ipa_compose_functions") > 0);
    let _ = std::fs::remove_dir_all(&dir);
}
