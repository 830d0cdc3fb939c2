//! Whole-corpus scan: generate a synthetic kernel with injected bugs,
//! run the engine end to end, and grade the result against the ground
//! truth — a miniature of the paper's §6 evaluation.
//!
//! ```text
//! cargo run -p ofence-examples --example corpus_scan [files] [seed]
//! ```

use ofence::AnalysisConfig;
use ofence_bench::harness;
use ofence_corpus::{generate, BugPlan, CorpusSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let files: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(60);
    let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1);

    let spec = CorpusSpec {
        seed,
        files,
        patterns_per_file: 1,
        noise_per_file: 2,
        decoy_pairs: 2,
        far_decoy_pairs: 0,
        lone_per_file: 1,
        split_fraction: 0.2,
        reread_decoys: 0,
        unfenced_decoys: 0,
        filler_files: 0,
        cross_file_chains: 0,
        chain_depth: 2,
        chain_bugs: 0,
        bugs: BugPlan {
            misplaced: 3,
            repeated_read: 2,
            wrong_type: 1,
            unneeded: 4,
            missing_barrier: 0,
        },
    };
    let corpus = generate(&spec);
    println!(
        "generated {} files; injected {} bugs; planted {} decoys\n",
        corpus.files.len(),
        corpus.manifest.bugs.len(),
        corpus.manifest.decoy_pairings().count()
    );

    let (result, summary) = harness::evaluate_corpus(&corpus, AnalysisConfig::default());
    println!("{}", result.stats.render());

    println!("== findings");
    for d in result.deviations.iter() {
        println!("  {}:{} {}", d.site.file_name, d.site.line, d.explanation);
    }

    println!("\n== grading vs ground truth");
    println!(
        "  bug recall     {:.0}% ({}/{})",
        summary.bug_recall * 100.0,
        summary.bugs_found,
        summary.bugs_injected
    );
    println!(
        "  pairing recall {:.0}% ({}/{})",
        summary.pairing_recall * 100.0,
        summary.pairings_found,
        summary.pairings_expected
    );
    println!(
        "  false positives: {} (decoy pairings: {})",
        summary.bug_false_positives, summary.decoy_pairings_found
    );
}
