//! §7 extension: find concurrent accesses missing READ_ONCE/WRITE_ONCE
//! and produce annotation patches (the paper's Patch 5).
//!
//! ```text
//! cargo run -p ofence-examples --example annotate_once
//! ```

use ofence::{AnalysisConfig, Engine, SourceFile};
use ofence_corpus::fixtures;

fn main() {
    let result = Engine::new(AnalysisConfig::default())
        .analyze(&[SourceFile::new("fs/select.c", fixtures::PATCH5_UNANNOTATED)]);

    assert!(
        !result.pairing.pairings.is_empty(),
        "pollwake/poll_schedule_timeout must pair first — annotation only \
         applies to inferred-concurrent code"
    );
    println!(
        "pairing inferred on {:?}\n",
        result.pairing.pairings[0].objects
    );

    println!("== unannotated concurrent accesses");
    for a in result.annotations.iter() {
        println!("  {}", a.explanation);
    }
    assert!(
        !result.annotations.is_empty(),
        "the unannotated accesses must be found"
    );

    println!("\n== generated annotation patches (Patch 5)");
    for p in result.annotation_patches.iter() {
        println!("{}", p.diff);
    }

    // Apply all annotation patches together and verify the file still
    // parses and nothing remains to annotate.
    let fa = &result.files[0];
    let all_edits: Vec<_> = result
        .annotation_patches
        .iter()
        .flat_map(|p| p.edits.clone())
        .collect();
    let annotated = ofence::apply_edits(&fa.source, &all_edits).expect("edits compose");
    let result2 = Engine::new(AnalysisConfig::default())
        .analyze(&[SourceFile::new("fs/select.c", annotated.clone())]);
    assert!(
        result2.annotations.is_empty(),
        "after annotation, nothing is left to annotate: {:?}",
        result2.annotations
    );
    println!("verified: the annotated file is fully covered.");
}
