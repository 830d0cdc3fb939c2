//! The traced run: one operation replayed in-process through the
//! library's public calls, in the order the CLI (`commands.rs`) or the
//! daemon (`Session`) makes them, with each call timed from here — no
//! tracing inside the program. A second, single-threaded pass over the
//! re-analyzed files times the front end and the per-file analysis, and
//! a last one the global pairing and checking.

use crate::corpus::{Reference, Tree};
use crate::metrics::Report;
use ofence::{AnalysisConfig, Engine, SourceFile};
use std::os::unix::fs::MetadataExt;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub enum Style {
    /// A fresh `ofence analyze` process: one walk, cache load, analyze,
    /// cache save, ledgers, pretty JSON on stdout.
    Cli { cold: bool },
    /// A request to a warm daemon: two snapshot walks and keys, analyze
    /// on the in-memory engine, cache save, ledgers, compact JSON reply.
    Serve,
}

/// Below this share of the operation's wall time accounted for by the
/// replayed layers, a layer is missing from the replay.
pub const MIN_COVERAGE: f64 = 0.95;

/// The layers whose times add up to the replayed operation (no key for
/// the CLI, which never computes one).
const OP_LAYERS: &[&str] = &[
    "walk.busy_ms",
    "session.key_ms",
    "engine.analyze_ms",
    "cache.save_ms",
    "fingerprint.records_ms",
    "history.append_ms",
    "perf.append_ms",
    "json.render_ms",
];

/// Wall time of `f` in milliseconds, added to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_secs_f64() * 1e3;
    out
}

/// `trace.coverage`: how much of the operation's wall time the replayed
/// layers account for.
pub fn coverage(layer_ms: &[f64], op_ms: f64) -> f64 {
    layer_ms.iter().sum::<f64>() / op_ms
}

/// One cache shard file as found on disk. A save that rewrites a shard
/// renames a new file into place, so a new inode means "written".
#[derive(Clone, Copy)]
struct Shard {
    inode: u64,
    bytes: u64,
    hash: u64,
}

/// Every shard slot of a cache directory (`None`: no such file).
fn shard_state(dir: &Path) -> Vec<Option<Shard>> {
    (0..ofence::cache::SHARD_COUNT)
        .map(|i| {
            let path = dir.join(ofence::cache::shard_file_name(i));
            let meta = std::fs::metadata(&path).ok()?;
            let hash = ofence::cache::content_hash(&std::fs::read(&path).ok()?);
            Some(Shard {
                inode: meta.ino(),
                bytes: meta.len(),
                hash,
            })
        })
        .collect()
}

pub fn replay(
    style: Style,
    tree: &mut Tree,
    cache: &Path,
    history: &Path,
    config: &AnalysisConfig,
    reference: &Reference,
    report: &mut Report,
) -> Result<(), String> {
    let dir = tree.dir.clone();
    let paths = std::slice::from_ref(&dir);

    // What happens before the operation: the daemon's engine is loaded
    // once at start and warmed; a CLI process starts from an empty one.
    let mut engine = Engine::new(config.clone());
    let mut load_ms = 0.0;
    let mut load_entries = 0;
    match style {
        Style::Cli { cold: true } => {
            let _ = std::fs::remove_dir_all(cache);
        }
        Style::Cli { cold: false } => {}
        Style::Serve => {
            load_entries = loaded(timed(&mut load_ms, || engine.load_disk_cache(cache)));
            let sources = ofence::collect_sources(paths)?;
            engine.analyze_incremental(&sources);
            engine.save_disk_cache(cache)?;
        }
    }
    let edited = match style {
        Style::Cli { cold: true } => None,
        _ => Some(tree.edit().map_err(|e| format!("edit: {e}"))?),
    };
    let shards_before = shard_state(cache);

    let (mut walk, mut key, mut analyze, mut save, mut records_ms) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut history_ms, mut perf_ms, mut render_ms) = (0.0, 0.0, 0.0);
    let mut walks = 0;
    let t_op = Instant::now();
    let (sources, result) = match style {
        Style::Cli { .. } => {
            let sources = timed(&mut walk, || ofence::collect_sources(paths))?;
            walks += 1;
            load_entries = loaded(timed(&mut load_ms, || engine.load_disk_cache(cache)));
            let result = timed(&mut analyze, || engine.analyze(&sources));
            (sources, result)
        }
        Style::Serve => {
            // Session::snapshot_sources: read until two passes agree.
            let mut prev = None;
            let sources = loop {
                let sources = timed(&mut walk, || ofence::collect_sources(paths))?;
                walks += 1;
                let k = timed(&mut key, || ofence::session::corpus_key(&sources, config));
                if prev == Some(k) || walks == ofence::session::SNAPSHOT_ATTEMPTS {
                    break sources;
                }
                prev = Some(k);
            };
            let result = timed(&mut analyze, || engine.analyze_incremental(&sources));
            (sources, result)
        }
    };
    timed(&mut save, || engine.save_disk_cache(cache))?;
    let records = timed(&mut records_ms, || {
        ofence::finding_records(&result.deviations, &result.sites, &result.files)
    });
    timed(&mut history_ms, || {
        let record = ofence::history::record_of(&result, config, records.clone());
        ofence::history::append(history, &record)
    })?;
    timed(&mut perf_ms, || {
        ofence::perf::append(history, &ofence::perf::record_of(&result, config, None))
    })?;
    let rendered = timed(&mut render_ms, || match style {
        Style::Cli { .. } => serde_json::to_string_pretty(&result.to_json()),
        Style::Serve => serde_json::to_string(&serde_json::json!({
            "id": 0, "request_id": "replay", "ok": true, "result": result.to_json(),
        })),
    })
    .expect("report serializes");
    let op_ms = t_op.elapsed().as_secs_f64() * 1e3;
    let shards_after = shard_state(cache);

    if let Err(e) = crate::client::check_report(&result.to_json(), reference) {
        report.problems.push(format!("replayed operation: {e}"));
    }
    let obs = &result.obs;
    let files = sources.len() as f64;
    report.set("walk.calls", walks as f64);
    report.set("walk.files", files);
    report.set(
        "walk.bytes",
        sources.iter().map(|s| s.content.len()).sum::<usize>() as f64,
    );
    report.set("walk.busy_ms", walk);
    if let Style::Serve = style {
        report.set("session.key_ms", key);
    }
    report.set("cache.load_ms", load_ms);
    report.set("cache.load_entries", load_entries as f64);
    report.set("engine.analyze_ms", analyze);
    report.set(
        "engine.files_analyzed",
        obs.count_of("engine_files_analyzed") as f64,
    );
    report.set(
        "engine.cache_hit_ratio",
        obs.count_of("engine_cache_hits") as f64 / files,
    );
    report.set("cache.save_ms", save);
    let shards = || shards_after.iter().zip(&shards_before);
    let written: Vec<&Shard> = shards()
        .filter_map(|(after, before)| {
            after
                .as_ref()
                .filter(|a| before.map(|b| b.inode) != Some(a.inode))
        })
        .collect();
    report.set(
        "cache.save_bytes",
        written.iter().map(|s| s.bytes).sum::<u64>() as f64,
    );
    report.set("cache.shards_written", written.len() as f64);
    report.set(
        "cache.shards_changed",
        shards()
            .filter(|(after, before)| after.map(|a| a.hash) != before.map(|b| b.hash))
            .count() as f64,
    );
    report.set("fingerprint.records_ms", records_ms);
    report.set("history.append_ms", history_ms);
    report.set("perf.append_ms", perf_ms);
    report.set("json.render_ms", render_ms);
    report.set("json.bytes", rendered.len() as f64);
    report.set("pool.workers", obs.count_of("workers") as f64);
    report.set("pool.busy_ms", obs.count_of("worker_busy_us") as f64 / 1e3);
    report.set("pool.idle_ms", obs.count_of("worker_idle_us") as f64 / 1e3);
    report.set("pool.steals", obs.count_of("pool_steals") as f64);

    // A CLI process loads its cache inside the operation; the daemon
    // loaded it once, at start.
    let load = matches!(style, Style::Cli { .. }).then_some("cache.load_ms");
    let layer_ms: Vec<f64> = OP_LAYERS
        .iter()
        .chain(&load)
        .filter_map(|name| report.values.get(*name).copied())
        .collect();
    let cov = coverage(&layer_ms, op_ms);
    report.set("trace.op_ms", op_ms);
    report.set("trace.coverage", cov);
    if let Some(p50) = report.values.get("latency_p50_ms").copied() {
        report.set("trace.replay_vs_e2e", op_ms / p50);
    }
    if cov < MIN_COVERAGE {
        report
            .problems
            .push(format!("trace.coverage {cov:.3} < {MIN_COVERAGE}"));
    }

    // The files this operation re-analyzed, one at a time.
    let redone: Vec<(usize, &SourceFile)> = match &edited {
        None => sources.iter().enumerate().collect(),
        Some(path) => {
            let name = path.display().to_string();
            sources
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == name)
                .collect()
        }
    };
    frontend_pass(&redone, config, report);
    let mut pair_ms = 0.0;
    let pairing = timed(&mut pair_ms, || {
        ofence::pairing::pair_barriers(&result.sites, config)
    });
    let mut check_ms = 0.0;
    let findings = timed(&mut check_ms, || {
        ofence::deviation::check_all(&result.sites, &pairing, &result.files, config)
    });
    report.set("pairing.pair_ms", pair_ms);
    report.set("pairing.pairings", pairing.pairings.len() as f64);
    report.set("deviation.check_ms", check_ms);
    report.set("deviation.findings", findings.len() as f64);
    Ok(())
}

fn loaded(outcome: ofence::LoadOutcome) -> usize {
    match outcome {
        ofence::LoadOutcome::Loaded { entries } => entries,
        _ => 0,
    }
}

/// Lex, preprocess, parse and extract each file on this thread.
fn frontend_pass(files: &[(usize, &SourceFile)], config: &AnalysisConfig, report: &mut Report) {
    let frontend = ckit::FrontendConfig::default();
    let (mut lex, mut pp, mut parse, mut extract) = (0.0, 0.0, 0.0, 0.0);
    let (mut tokens, mut barriers) = (0usize, 0usize);
    for &(i, f) in files {
        let Ok(toks) = timed(&mut lex, || ckit::lexer::lex(&f.content)) else {
            continue;
        };
        tokens += toks.len();
        let Ok(ppo) = timed(&mut pp, || ckit::pp::preprocess(toks, &frontend.pp)) else {
            continue;
        };
        let out = timed(&mut parse, || {
            ckit::parser::parse_tokens(ppo.tokens, &frontend.parser)
        });
        let parsed = ckit::ParsedFile {
            unit: out.unit,
            map: ckit::SourceMap::new(f.name.clone(), &f.content),
            source: f.content.clone(),
            errors: out.errors,
            includes: ppo.includes,
        };
        let fa = timed(&mut extract, || {
            ofence::sites::analyze_file(i, &parsed, config)
        });
        barriers += fa.sites.len();
    }
    report.set("ckit.lex_ms", lex);
    report.set("ckit.pp_ms", pp);
    report.set("ckit.parse_ms", parse);
    report.set("ckit.tokens", tokens as f64);
    report.set("sites.analyze_file_ms", extract);
    report.set("sites.barriers", barriers as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_is_the_layer_sum_over_the_operation() {
        assert_eq!(coverage(&[60.0, 30.0, 7.5], 100.0), 0.975);
        assert!(coverage(&[60.0, 30.0], 100.0) < MIN_COVERAGE);
        // A layer double-counted shows up as coverage above 1.
        assert!(coverage(&[80.0, 80.0], 100.0) > 1.0);
    }
}
