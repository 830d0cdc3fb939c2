//! Walk the paper's Listing 3 (the ARP/xtables seqcount counters)
//! through the pairing explainer: for every barrier of the 4-member
//! "double pairing" (Figure 5), replay the decision — candidate set,
//! shared-object overlap, distance-product weights, and why the group
//! formed. Then show the two unpaired outcomes on a wake-up writer.
//!
//! ```text
//! cargo run -p ofence-examples --example explain_pairing
//! ```

use ofence::{explain_site_with, AnalysisConfig, Engine, SourceFile};
use ofence_corpus::fixtures;

const WAKER: &str = r#"
struct done { int token; int extra; struct task *t; };
void complete_and_wake(struct done *p)
{
	p->token = 1;
	p->extra = 2;
	smp_wmb();
	wake_up_process(p->t);
}
void wait_side(struct done *p)
{
	if (!p->token)
		return;
	smp_rmb();
	consume(p->extra);
}
"#;

fn main() {
    let config = AnalysisConfig::default();

    println!("== Listing 3: seqcount double pairing, explained\n");
    let files = vec![SourceFile::new("xt.c", fixtures::LISTING3)];
    let r = Engine::new(config.clone()).analyze(&files);
    assert_eq!(r.sites.len(), 4, "Listing 3 has four seqcount barriers");
    // Explain the write-side begin — the anchor of the pairing.
    let writer = r
        .sites
        .iter()
        .find(|s| s.site.function == "do_add_counters" && s.is_write_barrier())
        .expect("write-side barrier");
    let e = explain_site_with(&r.sites, &r.pairing, &config, writer.id).expect("explanation");
    print!("{}", e.render());

    println!("\n== Every member of the group sees the same outcome\n");
    for s in r.sites.iter() {
        let e = explain_site_with(&r.sites, &r.pairing, &config, s.id).unwrap();
        let outcome = match &e.outcome {
            ofence::explain::Outcome::Paired { members, multi, .. } => format!(
                "paired ({} members{})",
                members.len(),
                if *multi { ", multi" } else { "" }
            ),
            ofence::explain::Outcome::UnpairedImplicitIpc { .. } => "implicit IPC".into(),
            ofence::explain::Outcome::UnpairedNoMatch => "unpaired".into(),
        };
        println!(
            "  #{} {} in {}(): {} candidates -> {}",
            s.id.0,
            e.target.kind,
            s.site.function,
            e.candidates.len(),
            outcome
        );
    }

    println!("\n== A wake-up writer: intentionally unpaired (implicit read barrier)\n");
    let files = vec![SourceFile::new("waker.c", WAKER)];
    let r = Engine::new(config.clone()).analyze(&files);
    let wmb = r
        .sites
        .iter()
        .find(|s| s.site.function == "complete_and_wake")
        .expect("waker barrier");
    let e = explain_site_with(&r.sites, &r.pairing, &config, wmb.id).expect("explanation");
    print!("{}", e.render());
}
