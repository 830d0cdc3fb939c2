//! Patch round-trip guarantees: every generated patch applies cleanly,
//! the patched file still parses, the diagnostic it fixes disappears,
//! and no new diagnostics of the same class appear in that file.

use ofence::{AnalysisConfig, DeviationKind, Engine, SourceFile};
use ofence_corpus::{generate, BugPlan, CorpusSpec};

fn bug_corpus(seed: u64) -> Vec<SourceFile> {
    let spec = CorpusSpec {
        seed,
        files: 30,
        patterns_per_file: 2,
        noise_per_file: 1,
        decoy_pairs: 0, // decoys intentionally produce wrong patches; exclude here
        far_decoy_pairs: 0,
        lone_per_file: 0,
        split_fraction: 0.0, // keep each pattern in one file so single-file re-analysis sees both sides
        reread_decoys: 0,
        unfenced_decoys: 0,
        filler_files: 0,
        cross_file_chains: 0,
        chain_depth: 2,
        chain_bugs: 0,
        bugs: BugPlan {
            misplaced: 6,
            repeated_read: 4,
            wrong_type: 2,
            unneeded: 5,
            missing_barrier: 0,
        },
    };
    generate(&spec)
        .files
        .into_iter()
        .map(|f| SourceFile::new(f.name, f.content))
        .collect()
}

fn class_of(kind: &DeviationKind) -> &'static str {
    match kind {
        DeviationKind::Misplaced { .. } => "misplaced",
        DeviationKind::RepeatedRead { .. } => "re-read",
        DeviationKind::WrongBarrierType { .. } => "wrong-type",
        DeviationKind::UnneededBarrier { .. } => "unneeded",
        DeviationKind::MissingOnce { .. } => "annotation",
        DeviationKind::MissingBarrier { .. } => "missing-fence",
    }
}

#[test]
fn every_patch_applies_and_eliminates_its_diagnostic() {
    let files = bug_corpus(17);
    let result = Engine::new(AnalysisConfig::default()).analyze(&files);
    assert!(!result.deviations.is_empty());
    let mut patched_count = 0;
    for dev in result.deviations.iter() {
        let fa = &result.files[dev.site.file];
        let Some(patch) = ofence::patch::synthesize(dev, fa) else {
            continue;
        };
        patched_count += 1;
        // 1. The edits apply.
        let fixed =
            ofence::apply_edits(&fa.source, &patch.edits).expect("edits are non-overlapping");
        // 2. The patched file parses without new errors.
        let reparsed = ckit::parse_string(&fa.name, &fixed).expect("front end");
        assert!(
            reparsed.errors.is_empty(),
            "patch broke the file {}: {:?}\n{fixed}",
            fa.name,
            reparsed.errors
        );
        // 3. The diagnostic is gone, and no new same-class diagnostic
        //    appeared in this function.
        let r2 = Engine::new(AnalysisConfig::default())
            .analyze(&[SourceFile::new(fa.name.clone(), fixed)]);
        let still: Vec<_> = r2
            .deviations
            .iter()
            .filter(|d| {
                d.site.function == dev.site.function && class_of(&d.kind) == class_of(&dev.kind)
            })
            .collect();
        assert!(
            still.is_empty(),
            "patch for {} in {} did not eliminate the diagnostic: {still:?}\npatch:\n{}",
            class_of(&dev.kind),
            dev.site.function,
            patch.diff
        );
    }
    assert!(
        patched_count >= result.deviations.len() / 2,
        "too few deviations were patchable: {patched_count}/{}",
        result.deviations.len()
    );
}

#[test]
fn patch_diffs_are_well_formed() {
    let files = bug_corpus(23);
    let result = Engine::new(AnalysisConfig::default()).analyze(&files);
    for dev in result.deviations.iter() {
        let fa = &result.files[dev.site.file];
        if let Some(patch) = ofence::patch::synthesize(dev, fa) {
            assert!(patch.diff.starts_with("--- a/"), "{}", patch.diff);
            assert!(patch.diff.contains("+++ b/"));
            assert!(patch.diff.contains("@@"), "diff without hunks");
            assert!(!patch.explanation.is_empty());
            // The diff replays: applying the edits and re-diffing gives
            // the same text.
            let fixed = ofence::apply_edits(&fa.source, &patch.edits).unwrap();
            let rediff = ofence::patch::line_diff(&fa.source, &fixed, &fa.name);
            assert_eq!(patch.diff, rediff);
        }
    }
}

#[test]
fn annotation_patches_compose_per_file() {
    let files = bug_corpus(29);
    let result = Engine::new(AnalysisConfig::default()).analyze(&files);
    // Compose annotation edits per file through the library's
    // conflict-resolving path.
    let mut by_file: std::collections::BTreeMap<usize, Vec<&ofence::Deviation>> =
        Default::default();
    for dev in result.annotations.iter() {
        by_file.entry(dev.site.file).or_default().push(dev);
    }
    assert!(!by_file.is_empty(), "corpus must need annotations");
    for (file, devs) in by_file {
        let fa = &result.files[file];
        let edits = ofence::annotate::file_annotation_edits(&devs, fa);
        assert!(!edits.is_empty(), "no edits composed for {}", fa.name);
        let fixed = ofence::apply_edits(&fa.source, &edits)
            .unwrap_or_else(|| panic!("annotation edits overlap in {}", fa.name));
        let reparsed = ckit::parse_string(&fa.name, &fixed).expect("front end");
        assert!(
            reparsed.errors.is_empty(),
            "annotations broke {}: {:?}\n{fixed}",
            fa.name,
            reparsed.errors
        );
    }
}

#[test]
fn fixing_everything_yields_clean_corpus() {
    // Apply all ordering patches file by file, then re-analyze the whole
    // corpus: every injected bug class must be gone.
    let files = bug_corpus(31);
    let result = Engine::new(AnalysisConfig::default()).analyze(&files);
    let mut fixed_files: Vec<SourceFile> = files.clone();
    let mut edits_by_file: std::collections::BTreeMap<usize, Vec<ofence::patch::Edit>> =
        Default::default();
    for dev in result.deviations.iter() {
        let fa = &result.files[dev.site.file];
        if let Some(patch) = ofence::patch::synthesize(dev, fa) {
            edits_by_file
                .entry(dev.site.file)
                .or_default()
                .extend(patch.edits);
        }
    }
    for (file, mut edits) in edits_by_file {
        edits.sort_by_key(|e| (e.span.lo, e.span.hi));
        edits.dedup();
        // Patches within one file may collide (rare); drop later
        // conflicting edits, mirroring a maintainer applying them one by
        // one.
        let mut kept: Vec<ofence::patch::Edit> = Vec::new();
        for e in edits {
            if kept
                .last()
                .map(|prev| e.span.lo >= prev.span.hi)
                .unwrap_or(true)
            {
                kept.push(e);
            }
        }
        let fixed = ofence::apply_edits(&files[file].content, &kept).expect("apply");
        fixed_files[file].content = fixed.into();
    }
    let r2 = Engine::new(AnalysisConfig::default()).analyze(&fixed_files);
    assert!(
        r2.deviations.len() < result.deviations.len() / 4,
        "fixing everything should eliminate almost all findings: {} -> {}\n{:#?}",
        result.deviations.len(),
        r2.deviations.len(),
        r2.deviations
    );
}
