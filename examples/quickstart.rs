//! Quickstart: pair the barriers of the paper's Listing 1 and inspect
//! what the analysis inferred.
//!
//! ```text
//! cargo run -p ofence-examples --example quickstart
//! ```

use ofence::{AnalysisConfig, Engine, SourceFile};

fn main() {
    // The canonical lockless publication pattern (paper Listing 1): the
    // writer initializes `y`, issues a write barrier, then sets `init`;
    // the reader checks `init`, issues a read barrier, then reads `y`.
    let code = r#"
struct my_struct {
	int init;
	int y;
};

void reader(struct my_struct *a)
{
	if (!a->init)
		return;
	smp_rmb();
	f(a->y);
}

void writer(struct my_struct *b)
{
	b->y = 1;
	smp_wmb();
	b->init = 1;
}
"#;

    let files = vec![SourceFile::new("listing1.c", code)];
    let result = Engine::new(AnalysisConfig::default()).analyze(&files);

    println!("== barrier sites");
    for site in result.sites.iter() {
        println!(
            "  {} {}() in {}() at line {}",
            site.id,
            site.kind.name(),
            site.site.function,
            site.site.line
        );
        for (obj, dist) in site.objects() {
            println!("      orders {obj} (distance {dist})");
        }
    }

    println!("\n== pairings (Figure 4)");
    for p in &result.pairing.pairings {
        let functions: Vec<_> = p
            .members
            .iter()
            .map(|&m| result.site(m).site.function.clone())
            .collect();
        println!(
            "  {:?} inferred to run concurrently, matched on {:?} (weight {})",
            functions, p.objects, p.weight
        );
    }

    println!("\n== deviations");
    if result.deviations.is_empty() {
        println!("  none — Listing 1 uses its barriers correctly");
    }
    for d in result.deviations.iter() {
        println!("  {}", d.explanation);
    }

    println!("\n== stats\n{}", result.stats.render());
    assert_eq!(result.pairing.pairings.len(), 1, "Listing 1 must pair");
}
