//! End-to-end corpus evaluation: the analyzer graded against generator
//! ground truth at several scales and seeds. These tests pin the
//! reproduction's quality bar (the §6 numbers).

use ofence::{AnalysisConfig, Engine};
use ofence_bench::harness::{evaluate_corpus, to_source_files};
use ofence_corpus::{generate, BugKind, BugPlan, Corpus, CorpusSpec};

fn grade(corpus: &Corpus) -> (ofence::AnalysisResult, ofence_corpus::EvalSummary) {
    evaluate_corpus(corpus, AnalysisConfig::default())
}

#[test]
fn clean_corpus_has_no_ordering_findings() {
    let corpus = generate(&CorpusSpec::small(3));
    let (result, summary) = grade(&corpus);
    // Only decoy-driven findings are allowed on a bug-free corpus.
    assert_eq!(summary.bugs_found, 0);
    assert!(
        summary.bug_false_positives <= corpus.manifest.decoy_pairings().count(),
        "{:?}",
        result.deviations
    );
    assert_eq!(summary.pairing_recall, 1.0, "{summary:?}");
}

#[test]
fn all_bug_classes_detected_across_seeds() {
    for seed in [1u64, 7, 99] {
        let spec = CorpusSpec {
            seed,
            files: 40,
            patterns_per_file: 2,
            noise_per_file: 1,
            decoy_pairs: 0,
            far_decoy_pairs: 0,
            lone_per_file: 0,
            split_fraction: 0.2,
            reread_decoys: 0,
            unfenced_decoys: 0,
            filler_files: 0,
            cross_file_chains: 0,
            chain_depth: 2,
            chain_bugs: 0,
            bugs: BugPlan {
                misplaced: 6,
                repeated_read: 3,
                wrong_type: 1,
                unneeded: 6,
                missing_barrier: 3,
            },
        };
        let corpus = generate(&spec);
        let (_, summary) = evaluate_corpus(
            &corpus,
            AnalysisConfig {
                detect_missing: true,
                ..Default::default()
            },
        );
        assert_eq!(
            summary.bugs_found, summary.bugs_injected,
            "seed {seed}: all injected bugs must be found: {summary:#?}"
        );
        for (kind, injected, found) in &summary.per_kind {
            assert_eq!(injected, found, "seed {seed}, class {kind}");
        }
    }
}

#[test]
fn paper_scale_shape_holds() {
    let corpus = generate(&CorpusSpec::paper_scale(42));
    let (result, summary) = grade(&corpus);

    // §6.4 shape: coverage near 50%, several hundred pairings.
    assert!(
        result.stats.coverage > 0.40 && result.stats.coverage < 0.60,
        "coverage {:.2} out of the paper's ballpark",
        result.stats.coverage
    );
    assert!(
        result.stats.pairings >= 400 && result.stats.pairings <= 600,
        "pairings {} far from the paper's 456",
        result.stats.pairings
    );
    // Table 3 + §6.3 recall.
    assert_eq!(summary.bugs_found, 65, "{summary:#?}");
    // §6.4: 15 incorrect pairings, 12 incorrect patches (50% FP ratio).
    assert_eq!(summary.decoy_pairings_found, 15, "{summary:#?}");
    assert_eq!(summary.bug_false_positives, 12, "{summary:#?}");
    assert_eq!(summary.unexplained_pairings, 0, "{summary:#?}");
}

#[test]
fn wakeup_writers_classified_implicit_ipc() {
    let corpus = generate(&CorpusSpec::small(11));
    let result = Engine::new(AnalysisConfig::default()).analyze(&to_source_files(&corpus));
    for writer in &corpus.manifest.implicit_ipc_writers {
        let site = result
            .sites
            .iter()
            .find(|s| &s.site.function == writer)
            .unwrap_or_else(|| panic!("site for {writer}"));
        assert!(
            result
                .pairing
                .unpaired
                .iter()
                .any(|(id, r)| *id == site.id && *r == ofence::UnpairedReason::ImplicitIpc),
            "{writer} must be implicit-IPC unpaired"
        );
    }
}

#[test]
fn generation_and_analysis_deterministic() {
    let spec = CorpusSpec {
        bugs: BugPlan {
            misplaced: 2,
            repeated_read: 1,
            wrong_type: 1,
            unneeded: 1,
            missing_barrier: 1,
        },
        ..CorpusSpec::small(5)
    };
    let (r1, s1) = grade(&generate(&spec));
    let (r2, s2) = grade(&generate(&spec));
    assert_eq!(
        format!("{:?}", r1.deviations),
        format!("{:?}", r2.deviations)
    );
    assert_eq!(format!("{s1:?}"), format!("{s2:?}"));
}

#[test]
fn pattern_counts_recorded() {
    let corpus = generate(&CorpusSpec::small(2));
    let total: usize = corpus.manifest.pattern_counts.values().sum();
    assert_eq!(total, 16); // 8 files × 2 patterns
}

#[test]
fn figure6_shape_rising_then_plateau() {
    let corpus = generate(&CorpusSpec::paper_scale(42));
    let files = to_source_files(&corpus);
    let counts: Vec<usize> = [1u32, 3, 5, 10, 20]
        .into_iter()
        .map(|w| {
            let config = AnalysisConfig {
                write_window: w,
                ..AnalysisConfig::default()
            };
            Engine::new(config).analyze(&files).stats.pairings
        })
        .collect();
    // Rising edge: window 1 finds clearly fewer pairings than window 5.
    assert!(
        (counts[0] as f64) < 0.9 * counts[2] as f64,
        "no rising edge: {counts:?}"
    );
    // Plateau: window 5 ≈ window 20 (within 5%).
    let at5 = counts[2] as f64;
    let at20 = counts[4] as f64;
    assert!((at20 - at5).abs() / at20 < 0.05, "no plateau: {counts:?}");
}

#[test]
fn missing_detector_full_recall_without_false_positives() {
    let spec = CorpusSpec {
        seed: 77,
        files: 30,
        patterns_per_file: 2,
        noise_per_file: 2,
        decoy_pairs: 0,
        far_decoy_pairs: 0,
        lone_per_file: 1,
        split_fraction: 0.2,
        reread_decoys: 0,
        unfenced_decoys: 4,
        filler_files: 0,
        cross_file_chains: 0,
        chain_depth: 2,
        chain_bugs: 0,
        bugs: BugPlan {
            missing_barrier: 5,
            ..BugPlan::none()
        },
    };
    let corpus = generate(&spec);
    assert_eq!(corpus.manifest.count_bugs(BugKind::MissingBarrier), 5);

    // Detector off (default): the injected bugs are invisible.
    let (_, off) = grade(&corpus);
    assert_eq!(off.bugs_found, 0, "{off:#?}");

    // Detector on: every fence-less guarded reader is found, and the
    // outlier rule keeps the unfenced decoys quiet.
    let (_, on) = evaluate_corpus(
        &corpus,
        AnalysisConfig {
            detect_missing: true,
            ..Default::default()
        },
    );
    assert_eq!(on.bugs_found, 5, "{on:#?}");
    assert!(on.bug_recall >= 0.9, "{on:#?}");
    assert_eq!(on.bug_false_positives, 0, "{on:#?}");

    // Ablation: without the outlier rule the detector reports both
    // fence-less readers of every decoy.
    let (_, no_outlier) = evaluate_corpus(
        &corpus,
        AnalysisConfig {
            detect_missing: true,
            outlier_rule: false,
            ..Default::default()
        },
    );
    assert_eq!(no_outlier.bugs_found, 5, "{no_outlier:#?}");
    assert!(
        no_outlier.bug_false_positives >= 2 * 4,
        "outlier ablation should flag the unfenced decoys: {no_outlier:#?}"
    );
}

#[test]
fn dataflow_reread_strictly_fewer_false_positives_than_window() {
    let spec = CorpusSpec {
        seed: 33,
        files: 20,
        patterns_per_file: 2,
        noise_per_file: 1,
        decoy_pairs: 0,
        far_decoy_pairs: 0,
        lone_per_file: 0,
        split_fraction: 0.0,
        reread_decoys: 5,
        unfenced_decoys: 0,
        filler_files: 0,
        cross_file_chains: 0,
        chain_depth: 2,
        chain_bugs: 0,
        bugs: BugPlan {
            repeated_read: 4,
            ..BugPlan::none()
        },
    };
    let corpus = generate(&spec);
    let (_, dataflow) = grade(&corpus);
    let (_, window) = evaluate_corpus(
        &corpus,
        AnalysisConfig {
            dataflow_reread: false,
            ..Default::default()
        },
    );
    // Both configurations find every injected racy re-read...
    assert_eq!(dataflow.bugs_found, 4, "{dataflow:#?}");
    assert_eq!(window.bugs_found, 4, "{window:#?}");
    // ...but the bounded-window heuristic also flags every benign decoy,
    // while reaching definitions prove the re-reads observe the reader's
    // own store.
    assert_eq!(dataflow.bug_false_positives, 0, "{dataflow:#?}");
    assert_eq!(window.bug_false_positives, 5, "{window:#?}");
}

#[test]
fn figure7_read_distances_spread_out() {
    let corpus = generate(&CorpusSpec::paper_scale(42));
    let result = Engine::new(AnalysisConfig::default()).analyze(&to_source_files(&corpus));
    let h = result.read_distance_histogram();
    // Reads are spread: a meaningful share beyond 5 statements...
    assert!(
        h.cumulative_at(5) < 0.95,
        "reads all hug the barrier: {:?}",
        h.counts
    );
    // ...including a tail past 20 (the paper's Patch 3 was at 26).
    let far: usize = h.counts.iter().skip(21).sum();
    assert!(far > 0, "no far-read tail");
    // Writes hug the barrier (Figure 6's caption).
    let wh = result.write_distance_histogram();
    assert!(wh.cumulative_at(5) > 0.95, "{:?}", wh.counts);
}
