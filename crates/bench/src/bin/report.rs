//! Regenerate every table and figure of the OFence paper's evaluation.
//!
//! Each section prints the paper's artifact next to the measured value so
//! the shape comparison is immediate. `--json` additionally dumps the raw
//! numbers for archival (EXPERIMENTS.md is generated from this output).
#![deny(unsafe_code)]

use ofence::{AnalysisConfig, DeviationKind, Engine, SourceFile};
use ofence_bench::harness;
use ofence_corpus::{generate, BugKind, Corpus, CorpusSpec};
use std::collections::BTreeMap;

const USAGE: &str = "report [--scale small|paper] [--seed N] [--json PATH] \
     [table1|table2|table3|fig6|fig7|runtime|patches|coverage|missing|reread|ablation|all]...";

const SECTIONS: &[&str] = &[
    "table1", "table2", "table3", "fig6", "fig7", "runtime", "patches", "coverage", "missing",
    "reread", "ablation", "all",
];

fn main() {
    let flags = ["--scale", "--seed", "--json"];
    let (scale, seed, json_path, mut sections) = harness::cli(USAGE, &flags, SECTIONS, |a| {
        Ok((
            a.one_of("--scale", &["small", "paper"], "paper")?,
            a.parsed("--seed", 42u64)?,
            a.value("--json").map(str::to_string),
            a.words,
        ))
    });
    if sections.is_empty() {
        sections.push("all".into());
    }
    let want = |name: &str| sections.iter().any(|s| s == name || s == "all");

    let spec = if scale == "small" {
        CorpusSpec::small(seed)
    } else {
        CorpusSpec::paper_scale(seed)
    };
    eprintln!("generating corpus (scale={scale}, seed={seed})...");
    let corpus = generate(&spec);
    eprintln!(
        "corpus: {} files, {} expected pairings, {} injected bugs",
        corpus.files.len(),
        corpus.manifest.expected_pairings.len(),
        corpus.manifest.bugs.len()
    );

    let mut json = serde_json::Map::new();
    json.insert("scale".into(), scale.clone().into());
    json.insert("seed".into(), seed.into());

    if want("table1") {
        table1(&mut json);
    }
    if want("table2") {
        table2(&mut json);
    }
    let needs_run = ["table3", "fig7", "runtime", "patches", "coverage"]
        .iter()
        .any(|s| want(s));
    if needs_run {
        let (result, summary) = harness::evaluate_corpus(&corpus, AnalysisConfig::default());
        if want("table3") {
            table3(&result, &corpus, &mut json);
        }
        if want("fig7") {
            fig7(&result, &mut json);
        }
        if want("runtime") {
            runtime(&corpus, &result, &mut json);
        }
        if want("patches") {
            patches(&result, &mut json);
        }
        if want("coverage") {
            coverage(&result, &summary, &mut json);
        }
    }
    if want("fig6") {
        fig6(&corpus, &mut json);
    }
    if want("missing") {
        missing(&corpus, &mut json);
    }
    if want("reread") {
        reread(&corpus, &mut json);
    }
    if want("ablation") {
        ablation(&corpus, &mut json);
    }

    if let Some(path) = json_path {
        let text = serde_json::to_string_pretty(&serde_json::Value::Object(json))
            .expect("serialize report");
        std::fs::write(&path, text).expect("write json report");
        eprintln!("wrote {path}");
    }
}

fn header(title: &str) {
    println!("\n==== {title}");
}

/// Table 1: the eight barrier primitives are recognized and classified.
fn table1(json: &mut serde_json::Map<String, serde_json::Value>) {
    header("Table 1 — barriers used by Linux (recognized primitives)");
    println!(
        "{:<28} {:<11} {:<10} Description",
        "Primitive", "write-side", "read-side"
    );
    let mut rows = Vec::new();
    for kind in kmodel::BarrierKind::ALL {
        println!(
            "{:<28} {:<11} {:<10} {}",
            format!("{}()", kind.name()),
            kind.is_write_side(),
            kind.is_read_side(),
            kind.description()
        );
        rows.push(serde_json::json!({
            "primitive": kind.name(),
            "orders_reads": kind.orders_reads(),
            "orders_writes": kind.orders_writes(),
        }));
    }
    json.insert("table1".into(), rows.into());
}

/// Table 2: barrier-semantics classification of atomics/bitops/wake-ups.
fn table2(json: &mut serde_json::Map<String, serde_json::Value>) {
    header("Table 2 — functions with/without barrier semantics");
    let rows = [
        ("atomic_inc", false),
        ("atomic_inc_and_test", true),
        ("set_bit", false),
        ("test_and_set_bit", true),
        ("wake_up_process", true),
    ];
    println!("{:<26} {:<18} paper", "Primitive", "measured-barrier");
    let mut out = Vec::new();
    for (name, paper) in rows {
        let measured = kmodel::has_full_barrier_semantics(name);
        println!("{:<26} {:<18} {}", format!("{name}()"), measured, paper);
        assert_eq!(measured, paper, "Table 2 row mismatch for {name}");
        out.push(serde_json::json!({"primitive": name, "barrier": measured}));
    }
    json.insert("table2".into(), out.into());
}

/// Table 3: bug breakdown on the injected corpus.
fn table3(
    result: &ofence::AnalysisResult,
    corpus: &Corpus,
    json: &mut serde_json::Map<String, serde_json::Value>,
) {
    header("Table 3 — breakdown of bugs found (paper: 8 / 3 / 1)");
    let (bugs, _) = harness::found_records(result);
    let mut found: BTreeMap<String, usize> = BTreeMap::new();
    for b in &bugs {
        // Count only findings that match an injection (true positives).
        let hit = corpus.manifest.bugs.iter().any(|inj| {
            inj.kind == b.kind
                && inj.function == b.function
                && (inj.strukt.is_empty() || inj.strukt == b.strukt)
        });
        if hit {
            *found.entry(format!("{:?}", b.kind)).or_default() += 1;
        }
    }
    println!(
        "{:<46} {:>8} {:>8} {:>8}",
        "Description", "injected", "found", "paper"
    );
    let rows = [
        (BugKind::Misplaced, "Misplaced memory access", 8usize),
        (
            BugKind::RepeatedRead,
            "Racy variable re-read after the read barrier",
            3,
        ),
        (
            BugKind::WrongBarrierType,
            "Read barrier used instead of a write barrier",
            1,
        ),
    ];
    let mut out = Vec::new();
    for (kind, desc, paper) in rows {
        let injected = corpus.manifest.count_bugs(kind);
        let f = found
            .get(&format!("{kind:?}"))
            .copied()
            .unwrap_or(0)
            .min(injected);
        println!("{desc:<46} {injected:>8} {f:>8} {paper:>8}");
        out.push(serde_json::json!({
            "class": desc, "injected": injected, "found": f, "paper": paper
        }));
    }
    json.insert("table3".into(), out.into());
}

/// Figure 6: pairings vs statements analyzed around write barriers, with
/// the caption's companion metric: incorrect (decoy) pairings.
fn fig6(corpus: &Corpus, json: &mut serde_json::Map<String, serde_json::Value>) {
    header("Figure 6 — pairings vs write-barrier exploration window");
    let windows = [1u32, 2, 3, 4, 5, 7, 10, 15, 20];
    println!(
        "{:<8} {:>9} {:>10}  (paper: plateau at ~5; incorrect pairings rise beyond)",
        "window", "correct", "incorrect"
    );
    let mut out = Vec::new();
    let mut correct_at_5 = 0usize;
    let mut correct_max = 1usize;
    for w in windows {
        let config = AnalysisConfig {
            write_window: w,
            ..Default::default()
        };
        let (_, summary) = harness::evaluate_corpus(corpus, config);
        let correct = summary.pairings_found;
        let incorrect = summary.decoy_pairings_found;
        let bar = "#".repeat(correct * 40 / summary.pairings_expected.max(1));
        println!("{w:<8} {correct:>9} {incorrect:>10}  {bar}");
        out.push(serde_json::json!({
            "window": w, "correct": correct, "incorrect": incorrect
        }));
        if w == 5 {
            correct_at_5 = correct;
        }
        correct_max = correct_max.max(correct);
    }
    println!(
        "plateau check: window=5 reaches {:.0}% of the maximum correct-pairing count",
        100.0 * correct_at_5 as f64 / correct_max as f64
    );
    json.insert("fig6".into(), out.into());
}

/// Figure 7: distance distribution of read-side accesses.
fn fig7(result: &ofence::AnalysisResult, json: &mut serde_json::Map<String, serde_json::Value>) {
    header("Figure 7 — distance between read barriers and read shared objects");
    let h = result.read_distance_histogram();
    let buckets = [(1u32, 1u32), (2, 2), (3, 5), (6, 10), (11, 20), (21, 50)];
    let total = h.total().max(1);
    let mut out = Vec::new();
    for (lo, hi) in buckets {
        let count: usize = (lo..=hi)
            .map(|d| h.counts.get(d as usize).copied().unwrap_or(0))
            .sum();
        let pct = 100.0 * count as f64 / total as f64;
        let bar = "#".repeat((pct / 2.0) as usize);
        println!("{lo:>5}-{hi:<5} {count:>7} ({pct:>5.1}%)  {bar}");
        out.push(serde_json::json!({"lo": lo, "hi": hi, "count": count}));
    }
    println!(
        "cumulative within 5 statements: {:.1}% (paper: reads spread out, tail to ~50)",
        100.0 * h.cumulative_at(5)
    );
    let wh = result.write_distance_histogram();
    println!(
        "write-side within 5 statements: {:.1}% (paper Fig. 6: writes hug the barrier)",
        100.0 * wh.cumulative_at(5)
    );
    json.insert("fig7".into(), out.into());
}

/// §6.1: runtime of the full analysis and of incremental re-analysis,
/// with the per-phase breakdown from the run's own spans (the engine no
/// longer needs external stopwatches).
fn runtime(
    corpus: &Corpus,
    result: &ofence::AnalysisResult,
    json: &mut serde_json::Map<String, serde_json::Value>,
) {
    header("§6.1 — analysis runtime");
    println!(
        "full corpus ({} files): {} ms  (paper: 8 min for 614 kernel files on 16 cores)",
        corpus.files.len(),
        result.stats.elapsed_ms
    );
    for phase in ofence::report::PHASES {
        if let Some(us) = result.stats.phase_us.get(phase) {
            println!("  {phase:<12} {:.1} ms", *us as f64 / 1000.0);
        }
    }
    if !result.stats.slowest_files.is_empty() {
        println!("  slowest files:");
        for (f, us) in &result.stats.slowest_files {
            println!("    {f} ({:.1} ms)", *us as f64 / 1000.0);
        }
    }
    // Incremental: re-analyze after touching one file.
    let mut files = harness::to_source_files(corpus);
    let mut engine = Engine::new(AnalysisConfig::default());
    let _ = engine.analyze(&files);
    let touched = files.len() / 2;
    files[touched].content = format!("{}\n/* touched */\n", files[touched].content).into();
    let inc = engine.analyze(&files);
    println!(
        "single-file incremental:  {} ms  (paper: <30 s per file)",
        inc.stats.elapsed_ms
    );
    json.insert(
        "runtime".into(),
        serde_json::json!({
            "full_ms": result.stats.elapsed_ms,
            "incremental_ms": inc.stats.elapsed_ms,
            "files": corpus.files.len(),
            "phase_us": result.stats.phase_us,
            "slowest_files": result.stats.slowest_files,
            "incremental_cache_hits": inc.obs.counters.get("engine_cache_hits").copied().unwrap_or(0),
        }),
    );
}

/// §6.2/6.3: patches generated, verified by re-analysis.
fn patches(result: &ofence::AnalysisResult, json: &mut serde_json::Map<String, serde_json::Value>) {
    header("§6.2/§6.3 — generated patches (verified: checker no longer fires)");
    let mut per_class: BTreeMap<&str, usize> = BTreeMap::new();
    let mut verified = 0usize;
    let mut failed = 0usize;
    for (dev, patch) in result.deviations.iter().filter_map(|d| {
        let fa = &result.files[d.site.file];
        ofence::patch::synthesize(d, fa).map(|p| (d, p))
    }) {
        let class = match &dev.kind {
            DeviationKind::Misplaced { .. } => "misplaced",
            DeviationKind::RepeatedRead { .. } => "re-read",
            DeviationKind::WrongBarrierType { .. } => "wrong-type",
            DeviationKind::UnneededBarrier { .. } => "unneeded",
            DeviationKind::MissingOnce { .. } => "annotation",
            DeviationKind::MissingBarrier { .. } => "missing-fence",
        };
        *per_class.entry(class).or_default() += 1;
        // Verify: apply and re-analyze the single file.
        let fa = &result.files[dev.site.file];
        match ofence::apply_edits(&fa.source, &patch.edits) {
            Some(newsrc) => {
                let mut engine = Engine::new(AnalysisConfig::default());
                let r = engine.analyze(&[SourceFile::new(fa.name.clone(), newsrc)]);
                let still = r.deviations.iter().any(|d2| {
                    d2.site.function == dev.site.function
                        && std::mem::discriminant(&d2.kind) == std::mem::discriminant(&dev.kind)
                });
                if still {
                    failed += 1;
                } else {
                    verified += 1;
                }
            }
            None => failed += 1,
        }
    }
    for (class, count) in &per_class {
        println!("{class:<12} {count}");
    }
    println!("verified by re-analysis: {verified}; not eliminated: {failed}");
    println!(
        "annotation patches (§7): {}",
        result.annotation_patches.len()
    );
    json.insert(
        "patches".into(),
        serde_json::json!({
            "per_class": per_class.iter().map(|(k, v)| (k.to_string(), *v)).collect::<BTreeMap<_,_>>(),
            "verified": verified,
            "failed": failed,
            "annotations": result.annotation_patches.len(),
        }),
    );
}

/// Dataflow extension: missing-barrier detection — recall on injected
/// fence-less readers, false positives under the outlier rule and
/// without it, and machine verification of the synthesized fences.
fn missing(corpus: &Corpus, json: &mut serde_json::Map<String, serde_json::Value>) {
    header("Missing-barrier detector (dataflow extension)");
    let config = AnalysisConfig {
        detect_missing: true,
        ..Default::default()
    };
    let result = harness::analyze_corpus(corpus, config.clone());
    let injected = corpus.manifest.count_bugs(BugKind::MissingBarrier);
    let devs: Vec<&ofence::Deviation> = result
        .deviations
        .iter()
        .filter(|d| matches!(d.kind, DeviationKind::MissingBarrier { .. }))
        .collect();
    let detected = corpus
        .manifest
        .bugs
        .iter()
        .filter(|b| {
            b.kind == BugKind::MissingBarrier && devs.iter().any(|d| d.site.function == b.function)
        })
        .count();
    let fps = devs
        .iter()
        .filter(|d| {
            !corpus
                .manifest
                .bugs
                .iter()
                .any(|b| b.kind == BugKind::MissingBarrier && b.function == d.site.function)
        })
        .count();
    // Machine verification: insert the fence, re-analyze, finding gone.
    let mut verified = 0usize;
    for d in &devs {
        let fa = &result.files[d.site.file];
        let Some(patch) = ofence::patch::synthesize(d, fa) else {
            continue;
        };
        let Some(fixed) = ofence::apply_edits(&fa.source, &patch.edits) else {
            continue;
        };
        let r2 = Engine::new(config.clone()).analyze(&[SourceFile::new(fa.name.clone(), fixed)]);
        if !r2.deviations.iter().any(|d2| {
            matches!(d2.kind, DeviationKind::MissingBarrier { .. })
                && d2.site.function == d.site.function
        }) {
            verified += 1;
        }
    }
    let no_outlier = harness::analyze_corpus(
        corpus,
        AnalysisConfig {
            detect_missing: true,
            outlier_rule: false,
            ..Default::default()
        },
    );
    let fps_no_outlier = no_outlier
        .deviations
        .iter()
        .filter(|d| {
            matches!(d.kind, DeviationKind::MissingBarrier { .. })
                && !corpus
                    .manifest
                    .bugs
                    .iter()
                    .any(|b| b.kind == BugKind::MissingBarrier && b.function == d.site.function)
        })
        .count();
    let recall = if injected > 0 {
        detected as f64 / injected as f64
    } else {
        0.0
    };
    println!("injected fence-less readers:   {injected}");
    println!(
        "detected:                      {detected} ({:.0}% recall, target >= 90%)",
        recall * 100.0
    );
    println!("false positives (outlier on):  {fps}");
    println!("false positives (outlier off): {fps_no_outlier}");
    println!("patches verified by re-analysis: {verified}/{}", devs.len());
    json.insert(
        "missing".into(),
        serde_json::json!({
            "injected": injected,
            "detected": detected,
            "recall": recall,
            "false_positives": fps,
            "false_positives_no_outlier": fps_no_outlier,
            "patches_verified": verified,
        }),
    );
}

/// Dataflow extension: benign re-reads — FP comparison between the
/// bounded-window heuristic and the reaching-definitions check.
fn reread(corpus: &Corpus, json: &mut serde_json::Map<String, serde_json::Value>) {
    header("Re-read checker: window heuristic vs reaching definitions");
    let count = |dataflow: bool| {
        let result = harness::analyze_corpus(
            corpus,
            AnalysisConfig {
                dataflow_reread: dataflow,
                ..Default::default()
            },
        );
        let (bugs, _) = harness::found_records(&result);
        let rereads: Vec<_> = bugs
            .iter()
            .filter(|b| b.kind == BugKind::RepeatedRead)
            .collect();
        let hits = corpus
            .manifest
            .bugs
            .iter()
            .filter(|inj| {
                inj.kind == BugKind::RepeatedRead
                    && rereads.iter().any(|b| b.function == inj.function)
            })
            .count();
        let fps = rereads
            .iter()
            .filter(|b| {
                !corpus
                    .manifest
                    .bugs
                    .iter()
                    .any(|inj| inj.kind == BugKind::RepeatedRead && inj.function == b.function)
            })
            .count();
        (hits, fps)
    };
    let (window_hits, window_fps) = count(false);
    let (dataflow_hits, dataflow_fps) = count(true);
    let injected = corpus.manifest.count_bugs(BugKind::RepeatedRead);
    println!("injected racy re-reads:  {injected}");
    println!("window heuristic:        {window_hits} found, {window_fps} false positives");
    println!("reaching definitions:    {dataflow_hits} found, {dataflow_fps} false positives");
    println!(
        "benign re-read decoys suppressed by dataflow: {}",
        window_fps.saturating_sub(dataflow_fps)
    );
    json.insert(
        "reread".into(),
        serde_json::json!({
            "injected": injected,
            "window": {"found": window_hits, "false_positives": window_fps},
            "dataflow": {"found": dataflow_hits, "false_positives": dataflow_fps},
        }),
    );
}

/// §6.4: pairing count, coverage, false positives vs ground truth.
fn coverage(
    result: &ofence::AnalysisResult,
    summary: &ofence_corpus::EvalSummary,
    json: &mut serde_json::Map<String, serde_json::Value>,
) {
    header("§6.4 — pairings, false positives, coverage");
    println!(
        "pairings found:          {} (paper: 456 in 614 files)",
        result.stats.pairings
    );
    println!(
        "barrier coverage:        {:.1}% (paper: ~50%)",
        result.stats.coverage * 100.0
    );
    println!(
        "incorrect pairings:      {} (paper: 15)",
        summary.decoy_pairings_found
    );
    println!(
        "bug recall:              {:.1}% ({} of {})",
        summary.bug_recall * 100.0,
        summary.bugs_found,
        summary.bugs_injected
    );
    println!(
        "incorrect patches (FPs): {} (paper: 12)",
        summary.bug_false_positives
    );
    let ordering_real: usize = summary
        .per_kind
        .iter()
        .filter(|(k, _, _)| k != "UnneededBarrier")
        .map(|(_, _, f)| f)
        .sum();
    let fp_ratio = summary.bug_false_positives as f64
        / (summary.bug_false_positives + ordering_real).max(1) as f64;
    println!(
        "measured FP ratio on ordering patches: {:.0}% (paper: 50%)",
        fp_ratio * 100.0
    );
    println!(
        "unneeded barriers found: {} (paper: 53)",
        result
            .stats
            .deviations_by_kind
            .get("unneeded barrier")
            .copied()
            .unwrap_or(0)
    );
    json.insert(
        "coverage".into(),
        serde_json::json!({
            "pairings": result.stats.pairings,
            "coverage": result.stats.coverage,
            "incorrect_pairings": summary.decoy_pairings_found,
            "bug_recall": summary.bug_recall,
            "incorrect_patches": summary.bug_false_positives,
            "fp_ratio": fp_ratio,
        }),
    );
}

/// The design choices DESIGN.md calls out, each switched off or widened
/// against the default configuration.
fn ablation_variants() -> Vec<(&'static str, AnalysisConfig)> {
    let base = AnalysisConfig::default();
    vec![
        ("baseline", base.clone()),
        (
            "no_distance_weighting",
            AnalysisConfig {
                distance_weighting: false,
                ..base.clone()
            },
        ),
        (
            "no_callee_expansion",
            AnalysisConfig {
                callee_expansion: false,
                caller_expansion: false,
                ..base.clone()
            },
        ),
        (
            "no_implicit_ipc",
            AnalysisConfig {
                implicit_ipc: false,
                ..base.clone()
            },
        ),
        (
            "min_objects_3",
            AnalysisConfig {
                min_shared_objects: 3,
                ..base.clone()
            },
        ),
        (
            "narrow_windows_2_10",
            AnalysisConfig {
                write_window: 2,
                read_window: 10,
                ..base.clone()
            },
        ),
        (
            "wide_windows_20_100",
            AnalysisConfig {
                write_window: 20,
                read_window: 100,
                ..base.clone()
            },
        ),
        (
            "pair_with_atomics",
            AnalysisConfig {
                pair_with_atomics: true,
                ..base.clone()
            },
        ),
        // The bounded-window re-read heuristic instead of dataflow.
        (
            "window_reread",
            AnalysisConfig {
                dataflow_reread: false,
                ..base.clone()
            },
        ),
        // The missing-barrier detector on, then without its outlier rule.
        (
            "missing_detector",
            AnalysisConfig {
                detect_missing: true,
                ..base.clone()
            },
        ),
        (
            "missing_no_outlier",
            AnalysisConfig {
                detect_missing: true,
                outlier_rule: false,
                ..base
            },
        ),
    ]
}

/// Ablations: each design choice's effect on pairing and bug quality,
/// with the cost of the run.
fn ablation(corpus: &Corpus, json: &mut serde_json::Map<String, serde_json::Value>) {
    header("Ablations — design choices vs the default configuration");
    println!(
        "{:<22} {:>8} {:>7} {:>7} {:>9} {:>5} {:>7}",
        "variant", "pairings", "recall", "decoys", "bugs", "FPs", "ms"
    );
    let mut rows = Vec::new();
    for (name, config) in ablation_variants() {
        let (result, summary) = harness::evaluate_corpus(corpus, config);
        let bugs = format!("{}/{}", summary.bugs_found, summary.bugs_injected);
        println!(
            "{name:<22} {:>8} {:>7.3} {:>7} {bugs:>9} {:>5} {:>7}",
            result.stats.pairings,
            summary.pairing_recall,
            summary.decoy_pairings_found,
            summary.bug_false_positives,
            result.stats.elapsed_ms
        );
        rows.push(serde_json::json!({
            "name": name,
            "pairings": result.stats.pairings,
            "pairing_recall": summary.pairing_recall,
            "decoy_pairings": summary.decoy_pairings_found,
            "bugs_found": summary.bugs_found,
            "bugs_injected": summary.bugs_injected,
            "false_positives": summary.bug_false_positives,
            "elapsed_ms": result.stats.elapsed_ms,
        }));
    }
    json.insert("ablation".into(), rows.into());
}
