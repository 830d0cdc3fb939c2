//! Corpus-level fingerprint stability: deviation fingerprints must
//! survive the edits a developer actually makes between two analysis
//! runs — line shifts, unrelated renames, reordered siblings — while any
//! genuinely new deviation, and only it, classifies as new.

use ofence::{classify, AnalysisConfig, Engine, FindingRecord};
use ofence_bench::harness;
use ofence_corpus::{
    generate, inject_deviation, prepend_comment_lines, BugPlan, Corpus, CorpusSpec,
};

fn buggy_spec(seed: u64) -> CorpusSpec {
    let mut spec = CorpusSpec::small(seed);
    spec.files = 12;
    spec.patterns_per_file = 2;
    spec.bugs = BugPlan {
        misplaced: 3,
        repeated_read: 2,
        wrong_type: 1,
        unneeded: 2,
        missing_barrier: 1,
    };
    spec
}

fn records(corpus: &Corpus) -> Vec<FindingRecord> {
    let sources = harness::to_source_files(corpus);
    let result = Engine::new(AnalysisConfig::default()).analyze(&sources);
    ofence::finding_records(&result.deviations, &result.sites, &result.files)
}

#[test]
fn comment_prepend_changes_no_fingerprint() {
    let base = generate(&buggy_spec(101));
    let before = records(&base);
    assert!(!before.is_empty(), "corpus produced no findings");

    let mut shifted = base.clone();
    prepend_comment_lines(&mut shifted, 100);
    let after = records(&shifted);

    let delta = classify(&before, &after);
    assert!(
        delta.is_clean(),
        "line shift changed fingerprints: {}",
        delta.render()
    );
    assert_eq!(delta.unchanged.len(), before.len());
    // Lines moved, fingerprints did not.
    let old_line: std::collections::HashMap<&str, u32> = before
        .iter()
        .map(|r| (r.fingerprint.as_str(), r.line))
        .collect();
    for b in &delta.unchanged {
        assert_eq!(b.fingerprint.len(), 16);
        let a = old_line[b.fingerprint.as_str()];
        assert_eq!(b.line, a + 100, "{}", b.render_line());
    }
}

#[test]
fn renaming_unrelated_functions_changes_no_fingerprint() {
    let base = generate(&buggy_spec(102));
    let before = records(&base);
    assert!(!before.is_empty());

    // Rename every barrier-free noise helper (`pat{n}_helper{i}`); the
    // flagged protocols never touch them.
    let mut renamed = base.clone();
    let mut hits = 0;
    for f in &mut renamed.files {
        hits += f.content.matches("_helper").count();
        f.content = f.content.replace("_helper", "_rewired");
    }
    assert!(hits > 0, "corpus has no noise helpers to rename");
    let after = records(&renamed);

    let delta = classify(&before, &after);
    assert!(
        delta.is_clean(),
        "unrelated rename changed fingerprints: {}",
        delta.render()
    );
}

#[test]
fn injected_deviation_is_exactly_one_new_finding() {
    let base = generate(&buggy_spec(103));
    let before = records(&base);

    // A fresh bug plus a 20-line shift of everything else: the diff must
    // be exactly the injected deviation, with zero spurious churn.
    let mut edited = base.clone();
    let bug = inject_deviation(&mut edited, 7);
    prepend_comment_lines(&mut edited, 20);
    let after = records(&edited);

    let delta = classify(&before, &after);
    assert_eq!(delta.fixed.len(), 0, "{}", delta.render());
    assert_eq!(delta.new.len(), 1, "{}", delta.render());
    assert_eq!(delta.unchanged.len(), before.len());
    let fresh = &delta.new[0];
    assert_eq!(fresh.function, bug.function);
    assert_eq!(fresh.file, bug.file);
    assert_eq!(fresh.class, "misplaced memory access");
}

#[test]
fn ofence_ignore_classifies_as_fixed() {
    let base = generate(&buggy_spec(104));
    let before = records(&base);
    let target = before.first().expect("corpus produced findings").clone();

    // Insert a suppression comment on its own line right above the
    // flagged statement: the finding disappears, everything else —
    // shifted one line down in that file — keeps its fingerprint.
    let mut suppressed = base.clone();
    let f = suppressed
        .files
        .iter_mut()
        .find(|f| f.name == target.file)
        .unwrap();
    let mut lines: Vec<&str> = f.content.lines().collect();
    lines.insert(target.line as usize - 1, "\t/* ofence-ignore */");
    f.content = lines.join("\n");
    f.content.push('\n');
    let after = records(&suppressed);

    let delta = classify(&before, &after);
    assert_eq!(delta.new.len(), 0, "{}", delta.render());
    assert_eq!(delta.fixed.len(), 1, "{}", delta.render());
    assert_eq!(delta.fixed[0].fingerprint, target.fingerprint);
}
