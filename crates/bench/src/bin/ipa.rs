//! Inter-procedural depth-sweep benchmark.
//!
//! Measures what `--ipa-depth` costs on the kernel-shaped 1200-file
//! corpus (a small barrier-heavy core plus cross-file accessor chains
//! and hundreds of barrier-free filler files), cold and warm, at depths
//! 0 / 2 / 4. The acceptance bar is the **warm** path: summaries ride
//! the per-file cache, so on an edit-free re-run the composition pass
//! is the only depth-dependent work and must stay within 20% of the
//! depth-0 warm time. `warm_overhead_pct` is therefore computed from
//! the `compose` span (min over runs) against the depth-0 warm time —
//! end-to-end wall-clock deltas at this scale (tens of ms) are
//! dominated by scheduler noise, while the span isolates exactly the
//! work depth adds. Raw cold/warm times per depth are reported too.
//! Results land in `BENCH_ipa.json`.
#![deny(unsafe_code)]

use std::time::Instant;

use ofence::{AnalysisConfig, Engine};
use ofence_bench::harness;
use ofence_corpus::{generate, CorpusSpec};

const USAGE: &str = "ipa [--seed N] [--out PATH] [--runs N]";

fn bench_spec(seed: u64) -> CorpusSpec {
    CorpusSpec {
        seed,
        files: 40,
        patterns_per_file: 1,
        noise_per_file: 2,
        decoy_pairs: 2,
        far_decoy_pairs: 0,
        lone_per_file: 1,
        split_fraction: 0.2,
        reread_decoys: 0,
        unfenced_decoys: 0,
        filler_files: 1160,
        cross_file_chains: 12,
        chain_depth: 2,
        chain_bugs: 0,
        bugs: ofence_corpus::BugPlan::none(),
    }
}

struct DepthRow {
    depth: u32,
    cold_ms: u64,
    warm_us: u64,
    compose_us: u64,
    pairings: usize,
    ipa_assisted: u64,
    phase_us: std::collections::BTreeMap<String, u64>,
}

fn main() {
    let (seed, out, runs) = harness::cli(USAGE, &["--seed", "--out", "--runs"], &[], |a| {
        Ok((
            a.parsed("--seed", 42u64)?,
            a.value("--out").unwrap_or("BENCH_ipa.json").to_string(),
            a.parsed("--runs", 3usize)?,
        ))
    });

    eprintln!("generating corpus (seed={seed})...");
    let corpus = generate(&bench_spec(seed));
    let files = harness::to_source_files(&corpus);

    let mut rows = Vec::new();
    for depth in [0u32, 2, 4] {
        let config = AnalysisConfig {
            ipa_depth: depth,
            ..AnalysisConfig::default()
        };
        // Cold: fresh engine each run, best-of-N against scheduler noise.
        let mut cold_ms = u64::MAX;
        for _ in 0..runs.max(1) {
            let mut engine = Engine::new(config.clone());
            let start = Instant::now();
            engine.analyze(&files);
            cold_ms = cold_ms.min(start.elapsed().as_millis() as u64);
        }
        // Warm: one engine, edit-free re-analysis — every file is an
        // in-memory cache hit, leaving composition as the marginal cost.
        let mut engine = Engine::new(config.clone());
        engine.analyze(&files);
        let mut warm_us = u64::MAX;
        let mut compose_us = u64::MAX;
        let mut pairings = 0;
        let mut ipa_assisted = 0;
        let mut phase_us = std::collections::BTreeMap::new();
        for _ in 0..runs.max(1) {
            let start = Instant::now();
            let result = engine.analyze(&files);
            warm_us = warm_us.min(start.elapsed().as_micros() as u64);
            assert_eq!(
                result.obs.count_of("engine_cache_hits") as usize,
                files.len(),
                "edit-free warm run should hit on every file"
            );
            pairings = result.pairing.pairings.len();
            ipa_assisted = result.obs.count_of("pair_ipa_assisted");
            compose_us = compose_us.min(result.stats.phase_us.get("compose").copied().unwrap_or(0));
            phase_us = result.stats.phase_us.clone();
        }
        let warm_ms = warm_us / 1000;
        println!(
            "depth {depth}: cold {cold_ms} ms, warm {warm_ms} ms \
             (compose {compose_us} us), {pairings} pairings \
             ({ipa_assisted} summary-assisted)"
        );
        rows.push(DepthRow {
            depth,
            cold_ms,
            warm_us,
            compose_us,
            pairings,
            ipa_assisted,
            phase_us,
        });
    }

    // The cross-file chains only pair once the depth reaches them.
    assert!(
        rows[1].pairings > rows[0].pairings,
        "depth 2 should pair the cross-file chains: {} vs {}",
        rows[1].pairings,
        rows[0].pairings
    );
    // The composition span is the only depth-dependent warm-path work;
    // relate its worst case to the depth-0 warm time. (Wall-clock warm
    // deltas are recorded per depth but are noise-bound at this scale.)
    let base = rows[0].warm_us.max(1) as f64;
    let worst = rows.iter().map(|r| r.compose_us).max().unwrap_or(0) as f64;
    let warm_overhead_pct = worst / base * 100.0;
    println!("warm overhead (compose span) vs depth 0: {warm_overhead_pct:.1}%");

    let payload = serde_json::json!({
        "seed": seed,
        "runs": runs,
        "files": files.len(),
        "chains": 12,
        "chain_depth": 2,
        "depths": rows.iter().map(|r| serde_json::json!({
            "depth": r.depth,
            "cold_ms": r.cold_ms,
            "warm_us": r.warm_us,
            "compose_us": r.compose_us,
            "pairings": r.pairings,
            "ipa_assisted": r.ipa_assisted,
            "warm_phase_us": r.phase_us,
        })).collect::<Vec<_>>(),
        "warm_overhead_pct": warm_overhead_pct,
    });
    let text = serde_json::to_string_pretty(&payload).expect("serialize ipa report");
    std::fs::write(&out, text).expect("write ipa report");
    eprintln!("wrote {out}");
}
