//! Live telemetry: attach an event sink to the engine, analyze a small
//! corpus, and count what streamed out — the in-process mirror of
//! `ofence analyze --events-out` and `ofence watch --serve-metrics`.
//!
//! An NDJSON sink writes every event of the run to a file; the example
//! reads the file back, counts its events by kind and checks that every
//! span that opened also closed. At the end the run is also published to
//! a [`Live`] endpoint state, the same object the `/metrics` + `/health`
//! server reads from.
//!
//! ```text
//! cargo run -p ofence-examples --example live_telemetry [files] [seed]
//! ```

use ofence::obs::{Live, NdjsonSink};
use ofence::{AnalysisConfig, Engine, SourceFile};
use ofence_corpus::{generate, CorpusSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let files: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(12);
    let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(5);

    let spec = CorpusSpec {
        files,
        ..CorpusSpec::small(seed)
    };
    let sources: Vec<SourceFile> = generate(&spec)
        .files
        .iter()
        .map(|f| SourceFile::new(f.name.clone(), f.content.clone()))
        .collect();

    // Every event as one NDJSON line, streamed while the analysis runs
    // (what `--events-out` wires up in the CLI).
    let path = std::env::temp_dir().join("ofence-live-telemetry.ndjson");
    let file = std::fs::File::create(&path).expect("create event log");
    let ndjson = Arc::new(NdjsonSink::new(std::io::BufWriter::new(file)));

    let mut engine = Engine::new(AnalysisConfig::default());
    engine.recorder().add_sink(ndjson.clone());

    let result = engine.analyze(&sources);
    engine.recorder().flush_sinks();

    println!(
        "analyzed {} files: {} barriers, {} pairings, {} deviations",
        result.stats.files_total,
        result.stats.barriers_total,
        result.stats.pairings,
        result.stats.deviations_total
    );

    // Count what streamed, by kind: each line opens `{"ev":"<kind>"`.
    let text = std::fs::read_to_string(&path).expect("read event log");
    let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
    for line in text.lines() {
        let kind = line
            .strip_prefix("{\"ev\":\"")
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_else(|| panic!("not an event line: {line}"));
        *by_kind.entry(kind).or_default() += 1;
    }
    let of = |kind: &str| by_kind.get(kind).copied().unwrap_or(0);
    assert_eq!(text.lines().count() as u64, ndjson.emitted());
    assert!(of("span_open") > 0, "the run opened no span");
    assert_eq!(of("span_open"), of("span_close"), "a span never closed");
    println!(
        "ndjson sink: {} events written to {} — {} opens, {} closes, {} counters, {} observes",
        ndjson.emitted(),
        path.display(),
        of("span_open"),
        of("span_close"),
        of("counter"),
        of("observe")
    );

    // Publish to the same live state the /metrics server scrapes.
    let live = Live::new();
    live.publish(&result.obs, result.stats.deviations_total as u64, 0);
    println!("\n/health after publish:\n{}", live.health_json());
    let metrics = live.metrics_text();
    let preview: Vec<&str> = metrics.lines().take(8).collect();
    println!(
        "\n/metrics preview ({} lines total):\n{}",
        metrics.lines().count(),
        preview.join("\n")
    );
}
