//! Audit seqcount protocols: the paper's Listing 3 (ARP counters, a
//! correct 4-barrier "double pairing", Figure 5) plus a broken variant
//! where one field escapes the retry loop.
//!
//! ```text
//! cargo run -p ofence-examples --example seqcount_audit
//! ```

use ofence::{AnalysisConfig, Engine, PairingShape, SourceFile};
use ofence_corpus::fixtures;

const BROKEN: &str = r#"
static seqcount_t stats_seq;

struct dev_stats {
	long rx;
	long tx;
};

void dev_stats_update(struct dev_stats *s, long r, long t)
{
	write_seqcount_begin(&stats_seq);
	s->rx += r;
	s->tx += t;
	write_seqcount_end(&stats_seq);
}

void dev_stats_read(struct dev_stats *out, struct dev_stats *s)
{
	unsigned int seq;
	do {
		seq = read_seqcount_begin(&stats_seq);
		out->rx = s->rx;
	} while (read_seqcount_retry(&stats_seq, seq));
	out->tx = s->tx;
}
"#;

fn main() {
    println!("== Listing 3: the ARP counters (correct protocol)\n");
    let result = Engine::new(AnalysisConfig::default())
        .analyze(&[SourceFile::new("net/ipv4/arp_tables.c", fixtures::LISTING3)]);
    let p = result
        .pairing
        .pairings
        .first()
        .expect("the four seqcount barriers must pair");
    assert_eq!(p.shape, PairingShape::Multi, "Figure 5 double pairing");
    println!(
        "multi-barrier pairing of {} barriers: {:?}",
        p.members.len(),
        p.members
            .iter()
            .map(|&m| format!(
                "{}:{}",
                result.site(m).site.function,
                result.site(m).kind.name()
            ))
            .collect::<Vec<_>>()
    );
    assert!(
        result.deviations.is_empty(),
        "the correct protocol must be clean: {:?}",
        result.deviations
    );
    println!("no deviations — the version re-check protects both counters.\n");

    println!("== broken variant: `tx` read outside the retry loop\n");
    let result = Engine::new(AnalysisConfig::default())
        .analyze(&[SourceFile::new("drivers/net/dev_stats.c", BROKEN)]);
    assert!(!result.deviations.is_empty(), "the escape must be caught");
    for d in result.deviations.iter() {
        println!("finding: {}", d.explanation);
        if let Some(patch) = ofence::patch::synthesize(d, &result.files[d.site.file]) {
            println!("\n{}", patch.diff);
        }
    }
}
