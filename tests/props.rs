//! Property-based tests over the whole stack: random corpus shapes, bug
//! plans, and seeds must uphold the analyzer's invariants.

use ofence::{AnalysisConfig, Engine, SourceFile};
use ofence_bench::harness;
use ofence_corpus::{generate, BugPlan, CorpusSpec};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = CorpusSpec> {
    (
        any::<u64>(),
        1usize..6,
        1usize..4,
        0usize..3,
        0usize..3,
        0usize..2,
        0.0f64..0.6,
        (0usize..3, 0usize..3, 0usize..2, 0usize..3, 0usize..2),
        0usize..2,
        0usize..2,
    )
        .prop_map(
            |(
                seed,
                files,
                ppf,
                noise,
                decoys,
                lone,
                split,
                (misplaced, repeated, wrong, unneeded, missing),
                reread_decoys,
                unfenced_decoys,
            )| CorpusSpec {
                seed,
                files,
                patterns_per_file: ppf,
                noise_per_file: noise,
                decoy_pairs: decoys,
                far_decoy_pairs: 0,
                lone_per_file: lone,
                split_fraction: split,
                reread_decoys,
                unfenced_decoys,
                filler_files: 0,
                cross_file_chains: 0,
                chain_depth: 2,
                chain_bugs: 0,
                bugs: BugPlan {
                    misplaced,
                    repeated_read: repeated,
                    wrong_type: wrong,
                    unneeded,
                    missing_barrier: missing,
                },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated corpus parses cleanly with the ckit front end.
    #[test]
    fn generated_corpora_always_parse(spec in arb_spec()) {
        let corpus = generate(&spec);
        for f in &corpus.files {
            let parsed = ckit::parse_string(&f.name, &f.content).expect("front end ok");
            prop_assert!(parsed.errors.is_empty(), "{}: {:?}", f.name, parsed.errors);
        }
    }

    /// The engine never panics, produces dense site ids, and each barrier
    /// belongs to at most one pairing.
    #[test]
    fn analysis_invariants(spec in arb_spec()) {
        let corpus = generate(&spec);
        let files = harness::to_source_files(&corpus);
        let r = Engine::new(AnalysisConfig::default()).analyze(&files);
        for (i, s) in r.sites.iter().enumerate() {
            prop_assert_eq!(s.id.0 as usize, i);
        }
        let mut seen = std::collections::HashSet::new();
        for p in &r.pairing.pairings {
            prop_assert!(p.members.len() >= 2);
            prop_assert!(p.members.contains(&p.writer));
            prop_assert!(p.objects.len() >= 2);
            for m in &p.members {
                prop_assert!(seen.insert(*m), "barrier {m} in two pairings");
            }
        }
        // Unpaired + paired partitions the sites.
        let unpaired: std::collections::HashSet<_> =
            r.pairing.unpaired.iter().map(|(id, _)| *id).collect();
        for s in r.sites.iter() {
            prop_assert!(seen.contains(&s.id) != unpaired.contains(&s.id));
        }
        // Every deviation refers to an existing site and file.
        for d in r.deviations.iter() {
            prop_assert!(d.site.file < r.files.len());
            prop_assert!((d.barrier.0 as usize) < r.sites.len());
        }
    }

    /// Pretty-printing a generated file and reparsing reaches a fixpoint
    /// after one round (print ∘ parse is a projection).
    #[test]
    fn pretty_print_projection(spec in arb_spec()) {
        let corpus = generate(&spec);
        for f in corpus.files.iter().take(2) {
            let parsed = ckit::parse_string(&f.name, &f.content).expect("parse");
            prop_assume!(parsed.errors.is_empty());
            let once = ckit::pretty::print_unit(&parsed.unit);
            let reparsed = ckit::parse_string(&f.name, &once).expect("reparse");
            prop_assert!(reparsed.errors.is_empty(), "{}\n{once}", f.name);
            let twice = ckit::pretty::print_unit(&reparsed.unit);
            prop_assert_eq!(once, twice);
        }
    }

    /// All patches apply (edits never overlap) and leave parseable C.
    #[test]
    fn patches_always_apply_cleanly(spec in arb_spec()) {
        let corpus = generate(&spec);
        let files = harness::to_source_files(&corpus);
        let r = Engine::new(AnalysisConfig::default()).analyze(&files);
        for d in r.deviations.iter() {
            let fa = &r.files[d.site.file];
            if let Some(patch) = ofence::patch::synthesize(d, fa) {
                let fixed = ofence::apply_edits(&fa.source, &patch.edits);
                prop_assert!(fixed.is_some(), "overlapping edits: {:?}", patch.edits);
                let reparsed = ckit::parse_string(&fa.name, &fixed.unwrap()).expect("parse");
                prop_assert!(
                    reparsed.errors.is_empty(),
                    "patch broke {}: {:?}",
                    fa.name,
                    reparsed.errors
                );
            }
        }
    }

    /// Larger read windows only add accesses; they never remove them
    /// (distance monotonicity).
    #[test]
    fn window_monotonicity(seed in any::<u64>()) {
        let spec = CorpusSpec::small(seed);
        let corpus = generate(&spec);
        let files = harness::to_source_files(&corpus);
        let narrow = Engine::new(AnalysisConfig {
            read_window: 10,
            ..Default::default()
        })
        .analyze(&files);
        let wide = Engine::new(AnalysisConfig {
            read_window: 50,
            ..Default::default()
        })
        .analyze(&files);
        prop_assert_eq!(narrow.sites.len(), wide.sites.len());
        for (n, w) in narrow.sites.iter().zip(wide.sites.iter()) {
            prop_assert!(w.accesses.len() >= n.accesses.len());
        }
    }

    /// Every injected missing-barrier bug is detected by the dataflow
    /// detector, and the synthesized fence-insertion patch removes the
    /// diagnostic on re-analysis (machine verification).
    #[test]
    fn missing_barrier_bugs_detected_and_patch_verified(
        seed in any::<u64>(),
        nbugs in 1usize..4,
    ) {
        let spec = CorpusSpec {
            seed,
            files: 12,
            patterns_per_file: 2,
            noise_per_file: 1,
            decoy_pairs: 0,
            far_decoy_pairs: 0,
            lone_per_file: 0,
            // Keep both protocol sides in one file so single-file
            // re-analysis can observe the repaired pairing.
            split_fraction: 0.0,
            reread_decoys: 0,
            unfenced_decoys: 0,
            filler_files: 0,
            cross_file_chains: 0,
            chain_depth: 2,
            chain_bugs: 0,
            bugs: BugPlan {
                missing_barrier: nbugs,
                ..BugPlan::none()
            },
        };
        let corpus = generate(&spec);
        prop_assert_eq!(corpus.manifest.bugs.len(), nbugs);
        let files = harness::to_source_files(&corpus);
        let config = AnalysisConfig {
            detect_missing: true,
            ..Default::default()
        };
        let r = Engine::new(config.clone()).analyze(&files);
        for bug in &corpus.manifest.bugs {
            let dev = r
                .deviations
                .iter()
                .find(|d| {
                    matches!(d.kind, ofence::DeviationKind::MissingBarrier { .. })
                        && d.site.function == bug.function
                });
            prop_assert!(dev.is_some(), "missed {} in {}", bug.function, bug.file);
            let dev = dev.unwrap();
            let fa = &r.files[dev.site.file];
            let patch = ofence::patch::synthesize(dev, fa);
            prop_assert!(patch.is_some(), "no patch for {}", bug.function);
            let fixed = ofence::apply_edits(&fa.source, &patch.unwrap().edits);
            prop_assert!(fixed.is_some());
            let r2 = Engine::new(config.clone())
                .analyze(&[SourceFile::new(fa.name.clone(), fixed.unwrap())]);
            prop_assert!(
                !r2.deviations.iter().any(|d2| {
                    matches!(d2.kind, ofence::DeviationKind::MissingBarrier { .. })
                        && d2.site.function == bug.function
                }),
                "patch did not eliminate the missing-barrier finding in {}",
                bug.function
            );
        }
    }

    /// The incremental engine agrees with a fresh engine on any edit —
    /// not just in counts: the same sites, the same pairings, the same
    /// deviations and annotations, bit for bit.
    #[test]
    fn incremental_equals_fresh(seed in any::<u64>(), touch in 0usize..8) {
        let corpus = generate(&CorpusSpec::small(seed));
        let mut files = harness::to_source_files(&corpus);
        let mut engine = Engine::new(AnalysisConfig::default());
        let _ = engine.analyze(&files);
        let idx = touch % files.len();
        files[idx].content =
            format!("{}\nint prop_added(void) {{ return 1; }}\n", files[idx].content).into();
        let incremental = engine.analyze(&files);
        let fresh = Engine::new(AnalysisConfig::default()).analyze(&files);
        prop_assert_eq!(result_fingerprint(&incremental), result_fingerprint(&fresh));
    }

    /// Same equivalence across a **disk** round-trip: save the cache,
    /// edit one file, load the cache into a brand-new engine (a new
    /// process image), and the warm run must match a cold fresh run
    /// exactly — while actually hitting the cache for every unchanged
    /// file.
    #[test]
    fn disk_roundtrip_equals_fresh(spec in arb_spec(), edit_seed in any::<u64>()) {
        let mut corpus = generate(&spec);
        let files = harness::to_source_files(&corpus);
        let dir = std::env::temp_dir().join(format!(
            "ofence-prop-cache-{}-{}-{}",
            std::process::id(),
            spec.seed,
            edit_seed
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mut cold_engine = Engine::new(AnalysisConfig::default());
        let _ = cold_engine.analyze(&files);
        cold_engine.save_disk_cache(&dir).expect("save cache");

        let edited = ofence_corpus::inject_edit(&mut corpus, edit_seed);
        let files2 = harness::to_source_files(&corpus);

        let mut warm_engine = Engine::new(AnalysisConfig::default());
        let outcome = warm_engine.load_disk_cache(&dir);
        prop_assert!(
            matches!(outcome, ofence::LoadOutcome::Loaded { entries } if entries == files2.len()),
            "cache load failed: {outcome:?}"
        );
        let warm = warm_engine.analyze(&files2);
        prop_assert_eq!(
            warm.obs.count_of("engine_cache_hits") as usize,
            files2.len() - 1,
            "every file except {} must hit",
            edited
        );

        let fresh = Engine::new(AnalysisConfig::default()).analyze(&files2);
        prop_assert_eq!(result_fingerprint(&warm), result_fingerprint(&fresh));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Everything semantically observable about a run, in one comparable
/// string: sites (with their extracted accesses), pairings, unpaired
/// reasons, deviations, and annotations. Timing and per-file internals
/// (which legitimately differ between cached and fresh runs) stay out.
fn result_fingerprint(r: &ofence::AnalysisResult) -> String {
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
        r.sites, r.pairing.pairings, r.pairing.unpaired, r.deviations, r.annotations
    )
}
