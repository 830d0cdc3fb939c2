//! Shared harness: run the analyzer on a generated corpus and convert the
//! results into the corpus crate's evaluation records, plus the bench
//! bins' command-line entry point over [`ofence::flags`].

use ofence::flags::{parse_args, Args};
use ofence::{AnalysisConfig, AnalysisResult, DeviationKind, Engine, SourceFile};
use ofence_corpus::{evaluate, BugKind, Corpus, EvalSummary, FoundBug, FoundPairing};

/// Convert generated files into engine inputs.
pub fn to_source_files(corpus: &Corpus) -> Vec<SourceFile> {
    corpus
        .files
        .iter()
        .map(|f| SourceFile::new(f.name.clone(), f.content.clone()))
        .collect()
}

/// Run a full analysis over a corpus.
pub fn analyze_corpus(corpus: &Corpus, config: AnalysisConfig) -> AnalysisResult {
    let files = to_source_files(corpus);
    Engine::new(config).analyze(&files)
}

/// Map an analyzer deviation class onto the corpus bug taxonomy.
pub fn bug_kind_of(kind: &DeviationKind) -> Option<BugKind> {
    Some(match kind {
        DeviationKind::Misplaced { .. } => BugKind::Misplaced,
        DeviationKind::RepeatedRead { .. } => BugKind::RepeatedRead,
        DeviationKind::WrongBarrierType { .. } => BugKind::WrongBarrierType,
        DeviationKind::UnneededBarrier { .. } => BugKind::UnneededBarrier,
        DeviationKind::MissingBarrier { .. } => BugKind::MissingBarrier,
        DeviationKind::MissingOnce { .. } => return None,
    })
}

/// Convert analyzer output into evaluation records.
pub fn found_records(result: &AnalysisResult) -> (Vec<FoundBug>, Vec<FoundPairing>) {
    let bugs = result
        .deviations
        .iter()
        .filter_map(|d| {
            let kind = bug_kind_of(&d.kind)?;
            Some(FoundBug {
                function: d.site.function.clone(),
                kind,
                strukt: d
                    .object
                    .as_ref()
                    .map(|o| o.strukt.clone())
                    .unwrap_or_default(),
                field: d
                    .object
                    .as_ref()
                    .map(|o| o.field.clone())
                    .unwrap_or_default(),
            })
        })
        .collect();
    let pairings = result
        .pairing
        .pairings
        .iter()
        .map(|p| FoundPairing {
            functions: p
                .members
                .iter()
                .map(|&m| result.site(m).site.function.clone())
                .collect(),
        })
        .collect();
    (bugs, pairings)
}

/// Analyze + evaluate in one step.
pub fn evaluate_corpus(corpus: &Corpus, config: AnalysisConfig) -> (AnalysisResult, EvalSummary) {
    let result = analyze_corpus(corpus, config);
    let (bugs, pairings) = found_records(&result);
    let summary = evaluate(&corpus.manifest, &bugs, &pairings);
    (result, summary)
}

/// Parse the process's command line against the bin's valued `flags` and
/// allowed bare `words` and turn it into the bin's options with `read`;
/// on any error print it with the bin's `usage` line to stderr and exit 2.
pub fn cli<T>(
    usage: &str,
    flags: &[&str],
    words: &[&str],
    read: impl FnOnce(Args) -> Result<T, String>,
) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_args(&args, flags, &[], Some(words))
        .and_then(read)
        .unwrap_or_else(|err| {
            eprintln!("error: {err}\nusage: {usage}");
            std::process::exit(2);
        })
}

/// The shared parser as the bench bins call it (valued flags, a fixed
/// word list), plus the switches and `--flag=value` spelling the `ofence`
/// binary also uses.
#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[&str] = &["--scale", "--seed", "--json"];
    const SWITCHES: &[&str] = &["--fast"];
    const WORDS: &[&str] = &["table3", "all"];

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&args, FLAGS, SWITCHES, Some(WORDS))
    }

    #[test]
    fn valid_line_parses() {
        let args = parse("--seed 7 table3 --scale small --json out.json all").unwrap();
        assert_eq!(args.parsed("--seed", 42u64), Ok(7));
        assert_eq!(
            args.one_of("--scale", &["small", "paper"], "paper"),
            Ok("small".to_string())
        );
        assert_eq!(args.value("--json"), Some("out.json"));
        assert_eq!(args.words, ["table3", "all"]);
        assert!(!args.has("--fast"));
        // Switches take no value; `--flag=value` is the same as `--flag value`.
        let args = parse("--fast --seed=7 --json=--out.json all").unwrap();
        assert!(args.has("--fast"));
        assert_eq!(args.parsed("--seed", 42u64), Ok(7));
        assert_eq!(args.value("--json"), Some("--out.json"));
        assert_eq!(
            args.flags().collect::<Vec<_>>(),
            ["--fast", "--seed", "--json"]
        );
        assert_eq!(args.words, ["all"]);
        let empty = parse("").unwrap();
        assert_eq!(empty.parsed("--seed", 42u64), Ok(42));
        assert_eq!(
            empty.one_of("--scale", &["small"], "paper"),
            Ok("paper".into())
        );
        assert!(empty.words.is_empty());
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse("--sede 7").unwrap_err();
        assert!(err.contains("`--sede`"), "{err}");
        let err = parse("--sede=7").unwrap_err();
        assert!(err.contains("`--sede`"), "{err}");
    }

    #[test]
    fn unknown_word_is_rejected() {
        let err = parse("tabel3").unwrap_err();
        assert!(err.contains("`tabel3`"), "{err}");
    }

    #[test]
    fn missing_value_is_rejected() {
        for line in ["--seed", "--seed --json out.json", "--seed --fast"] {
            let err = parse(line).unwrap_err();
            assert!(err.contains("`--seed` needs a value"), "{line}: {err}");
        }
    }

    #[test]
    fn unparsable_value_is_rejected() {
        let args = parse("--seed x").unwrap();
        let err = args.parsed("--seed", 42u64).unwrap_err();
        assert!(err.contains("`x`"), "{err}");
        let err = parse("--seed=x").unwrap().get::<u64>("--seed").unwrap_err();
        assert!(err.contains("`x`"), "{err}");
    }

    #[test]
    fn switch_with_a_value_is_rejected() {
        let err = parse("--fast=yes").unwrap_err();
        assert!(err.contains("`--fast` takes no value"), "{err}");
    }

    #[test]
    fn value_outside_its_choices_is_rejected() {
        let args = parse("--scale smal").unwrap();
        let err = args
            .one_of("--scale", &["small", "paper"], "paper")
            .unwrap_err();
        assert!(err.contains("`smal`"), "{err}");
    }
}
