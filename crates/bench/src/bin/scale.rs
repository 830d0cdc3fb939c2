//! Monorepo-scale throughput benchmark.
//!
//! Measures cold and warm files-per-second at increasing corpus sizes
//! (1.2k / 12k / 100k synthetic files, filler-dominated like a real
//! kernel tree). Cold analyzes a fresh corpus with an empty cache; warm
//! re-analyzes after a one-file edit with the sharded disk cache loaded
//! in a fresh engine (a new process image), so warm cost scales with the
//! edit set, not the corpus. Per-tier phase timings, cache economics, and
//! worker utilization (busy/idle) come from the run's obs
//! snapshot, so the report shows *where* the time goes, not just totals.
//!
//! `--baseline FILE` merges a previously recorded BENCH_scale.json (e.g.
//! one captured before a refactor) and reports cold/warm speedups per
//! tier against it. `--perf-ledger FILE` appends the best cold and warm
//! 1.2k-tier runs as [`ofence::perf`] records for `ofence perf --gate`.
#![deny(unsafe_code)]

use std::time::Instant;

use ofence::{AnalysisConfig, Engine};
use ofence_bench::harness;
use ofence_corpus::{generate, inject_edit, CorpusSpec};

const USAGE: &str = "scale [--tiers 1200,12k[,100k]] [--seed N] [--out BENCH_scale.json] \
     [--runs N] [--baseline FILE] [--perf-ledger FILE]";

/// Phase span names folded into the per-tier breakdown.
const PHASES: &[&str] = &[
    "parse",
    "lex",
    "pp",
    "parse-tokens",
    "cfg",
    "extract",
    "pair",
    "check",
    "patch",
    "annotate",
];

fn main() {
    let flags = [
        "--tiers",
        "--seed",
        "--out",
        "--runs",
        "--baseline",
        "--perf-ledger",
    ];
    let (tiers, seed, out, runs, baseline, perf_ledger) = harness::cli(USAGE, &flags, &[], |a| {
        let tiers: Vec<String> = a
            .value("--tiers")
            .unwrap_or("1200,12k")
            .split(',')
            .map(str::to_string)
            .collect();
        if let Some(bad) = tiers.iter().find(|t| CorpusSpec::tier(t, 0).is_none()) {
            return Err(format!(
                "unknown tier `{bad}` (expected 1200, 12k, or 100k)"
            ));
        }
        Ok((
            tiers,
            a.parsed("--seed", 42u64)?,
            a.value("--out").unwrap_or("BENCH_scale.json").to_string(),
            a.parsed("--runs", 2usize)?,
            a.value("--baseline").map(str::to_string),
            a.value("--perf-ledger").map(str::to_string),
        ))
    });

    let config = AnalysisConfig::default();
    let mut tier_reports: Vec<serde_json::Value> = Vec::new();
    let mut ledger_records = Vec::new();

    for tier in &tiers {
        let spec = CorpusSpec::tier(tier, seed).expect("tiers are checked when parsed");
        eprintln!("tier {tier}: generating corpus...");
        let gen_start = Instant::now();
        let mut corpus = generate(&spec);
        let gen_ms = gen_start.elapsed().as_millis() as u64;
        let n_files = corpus.files.len();
        let cold_files = harness::to_source_files(&corpus);

        let cache_dir =
            std::env::temp_dir().join(format!("ofence-scale-{tier}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);

        // Cold: fresh engine, empty cache. Best-of-N.
        let mut cold_ms = u64::MAX;
        let mut best_cold = None;
        for _ in 0..runs.max(1) {
            let mut engine = Engine::new(config.clone());
            let start = Instant::now();
            let result = engine.analyze(&cold_files);
            let elapsed = start.elapsed().as_millis() as u64;
            assert_eq!(result.obs.count_of("engine_cache_hits"), 0);
            if elapsed < cold_ms {
                cold_ms = elapsed;
                best_cold = Some((result, engine));
            }
        }
        let (cold_result, mut cold_engine) = best_cold.expect("at least one cold run");
        let save_start = Instant::now();
        let saved = cold_engine.save_disk_cache(&cache_dir).expect("save cache");
        let save_ms = save_start.elapsed().as_millis() as u64;
        // Extract everything the report needs from the cold run, then
        // drop it: a real warm run is a fresh process, and keeping the
        // full cold result + engine cache alive while the warm runs
        // parse the on-disk shards measures allocator pressure the
        // warm path would never see.
        let mut cold_phases = serde_json::Map::new();
        for p in PHASES {
            let us = cold_result.obs.total_us_of(p);
            if us > 0 {
                cold_phases.insert(p.to_string(), serde_json::Value::from(us));
            }
        }
        let cold_counts: std::collections::HashMap<&str, u64> =
            ["workers", "worker_busy_us", "worker_idle_us"]
                .into_iter()
                .map(|c| (c, cold_result.obs.count_of(c)))
                .collect();
        let cold_record = ofence::perf::record_of(&cold_result, &config, None);
        drop(cold_result);
        drop(cold_engine);
        drop(cold_files);

        // One edit, then warm runs in fresh engines (new process images).
        let edited = inject_edit(&mut corpus, seed ^ 1);
        let warm_files = harness::to_source_files(&corpus);
        let mut warm_ms = u64::MAX;
        let mut load_ms = 0u64;
        let mut best_warm = None;
        for _ in 0..runs.max(1) {
            let mut engine = Engine::new(config.clone());
            let start = Instant::now();
            engine.load_disk_cache(&cache_dir);
            let this_load = start.elapsed().as_millis() as u64;
            let result = engine.analyze(&warm_files);
            let elapsed = start.elapsed().as_millis() as u64;
            assert_eq!(
                result.obs.count_of("engine_files_analyzed"),
                1,
                "warm run must re-analyze exactly the edited file"
            );
            if elapsed < warm_ms {
                warm_ms = elapsed;
                load_ms = this_load;
                best_warm = Some(result);
            }
        }
        let warm_result = best_warm.expect("at least one warm run");
        let _ = std::fs::remove_dir_all(&cache_dir);

        let cold_fps = n_files as f64 * 1000.0 / cold_ms.max(1) as f64;
        let warm_fps = n_files as f64 * 1000.0 / warm_ms.max(1) as f64;
        eprintln!(
            "tier {tier}: {n_files} files — cold {cold_ms} ms ({cold_fps:.0} files/s), \
             warm {warm_ms} ms ({warm_fps:.0} files/s, load {load_ms} ms), save {save_ms} ms"
        );

        tier_reports.push(serde_json::json!({
            "tier": tier,
            "files": n_files,
            "gen_ms": gen_ms,
            "cold_ms": cold_ms,
            "cold_files_per_sec": cold_fps,
            "warm_ms": warm_ms,
            "warm_files_per_sec": warm_fps,
            "cache_load_ms": load_ms,
            "cache_save_ms": save_ms,
            "cache_entries": saved,
            "edited_file": edited,
            "warm_files_reanalyzed": warm_result.obs.count_of("engine_files_analyzed"),
            "cold_phase_us": serde_json::Value::Object(cold_phases),
            "workers": cold_counts["workers"],
            "worker_busy_us": cold_counts["worker_busy_us"],
            "worker_idle_us": cold_counts["worker_idle_us"],
            "shard_load_us": warm_result.obs.count_of("shard_load_us"),
        }));

        if tier == "1200" {
            ledger_records.push(ofence::perf::record_of(&warm_result, &config, None));
            ledger_records.push(cold_record);
        }
    }

    // Merge a pre-recorded baseline (if any) and compute per-tier speedups.
    let mut payload = serde_json::json!({
        "seed": seed,
        "runs": runs,
        "tiers": tier_reports.clone(),
    });
    if let Some(path) = baseline {
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Ok(base) = serde_json::from_str::<serde_json::Value>(&text) {
                let mut speedups: Vec<serde_json::Value> = Vec::new();
                if let Some(base_tiers) = base["tiers"].as_array() {
                    for t in &tier_reports {
                        let tier = t["tier"].as_str().unwrap_or_default();
                        if let Some(b) =
                            base_tiers.iter().find(|b| b["tier"].as_str() == Some(tier))
                        {
                            let cold = t["cold_files_per_sec"].as_f64().unwrap_or(0.0)
                                / b["cold_files_per_sec"].as_f64().unwrap_or(f64::INFINITY);
                            let warm = t["warm_files_per_sec"].as_f64().unwrap_or(0.0)
                                / b["warm_files_per_sec"].as_f64().unwrap_or(f64::INFINITY);
                            eprintln!("tier {tier}: cold {cold:.2}x, warm {warm:.2}x vs baseline");
                            speedups.push(serde_json::json!({
                                "tier": tier,
                                "cold_speedup": cold,
                                "warm_speedup": warm,
                            }));
                        }
                    }
                }
                if let serde_json::Value::Object(ref mut m) = payload {
                    m.insert("baseline".to_string(), base);
                    m.insert(
                        "speedup_vs_baseline".to_string(),
                        serde_json::Value::Array(speedups),
                    );
                }
            }
        }
    }

    let text = serde_json::to_string_pretty(&payload).expect("serialize scale report");
    std::fs::write(&out, text).expect("write scale report");
    eprintln!("wrote {out}");

    if let Some(ledger) = perf_ledger {
        let path = std::path::Path::new(&ledger);
        for record in &ledger_records {
            ofence::ledger::append_file(path, record).expect("append perf ledger");
        }
        eprintln!("appended {} records to {ledger}", ledger_records.len());
    }
}
