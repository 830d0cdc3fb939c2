//! Subcommand implementations.

use crate::args::{
    BaselineWriteOpts, CallOpts, Command, DiffOpts, ExplainOpts, GenOpts, PerfOpts, RunOpts,
    ServeOpts, TraceOpts, WatchOpts,
};
use crate::walk::collect_sources;
use ofence::obs::NdjsonSink;
use ofence::{AnalysisResult, Engine, FailOn, FindingRecord, LoadOutcome, Patch};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

pub fn run(cmd: Command) -> Result<ExitCode, String> {
    match cmd {
        Command::Analyze(o) => analyze(o),
        Command::Patch(o) => patch(o),
        Command::Annotate(o) => annotate(o),
        Command::Stats(o) => stats(o),
        Command::Explain(o) => explain(o),
        Command::Watch(o) => watch(o),
        Command::Serve(o) => serve(o),
        Command::Call(o) => call(o),
        Command::Trace(o) => trace(o),
        Command::Diff(o) => diff(o),
        Command::BaselineWrite(o) => baseline_write(o),
        Command::Perf(o) => perf(o),
        Command::Gen(o) => gen(o),
    }
}

/// Where this invocation keeps its on-disk cache, if anywhere.
fn cache_dir_of(opts: &RunOpts) -> Option<PathBuf> {
    if opts.no_cache {
        return None;
    }
    Some(PathBuf::from(
        opts.cache_dir
            .as_deref()
            .unwrap_or(ofence::cache::DEFAULT_CACHE_DIR),
    ))
}

/// Load the on-disk cache into `engine` (never fatal: a stale or corrupt
/// cache is discarded with a note and the run proceeds cold).
fn load_cache(engine: &mut Engine, dir: &std::path::Path) {
    if let LoadOutcome::Discarded { reason } = engine.load_disk_cache(dir) {
        eprintln!(
            "ofence: discarding cache in {} ({reason}); analyzing cold",
            dir.display()
        );
    }
}

/// Flush the engine's cache to disk. Failing to write an explicitly
/// requested `--cache-dir` is an error; the implicit default directory
/// only warns (the analysis itself succeeded).
fn save_cache(engine: &mut Engine, opts: &RunOpts, dir: &std::path::Path) -> Result<(), String> {
    match engine.save_disk_cache(dir) {
        Ok(_) => Ok(()),
        Err(e) if opts.cache_dir.is_some() => Err(format!("--cache-dir {}: {e}", dir.display())),
        Err(e) => {
            eprintln!("ofence: could not write cache to {}: {e}", dir.display());
            Ok(())
        }
    }
}

/// Build the engine for an invocation: config, presentation knobs, and
/// the live event stream (`--events-out`), which attaches before any
/// analysis so the stream covers the whole run. The sink handle comes
/// back too, so the caller can flush it and report write errors when
/// the run ends.
fn build_engine(opts: &RunOpts) -> Result<(Engine, Option<Arc<NdjsonSink>>), String> {
    let mut engine = Engine::new(opts.config.clone());
    if let Some(n) = opts.slow_files {
        engine.set_slow_files(n);
    }
    let mut events = None;
    if let Some(path) = &opts.events_out {
        let writer: Box<dyn std::io::Write + Send> = if path == "-" {
            Box::new(std::io::stdout())
        } else {
            let f = std::fs::File::create(path).map_err(|e| format!("--events-out {path}: {e}"))?;
            Box::new(std::io::BufWriter::new(f))
        };
        let sink = Arc::new(NdjsonSink::new(writer));
        engine.recorder().add_sink(sink.clone());
        events = Some(sink);
    }
    Ok((engine, events))
}

/// Flush the event stream and warn (never fail) on write errors — a
/// broken event stream must not turn a finished analysis into a
/// failure.
fn finish_events(engine: &Engine, events: &Option<Arc<NdjsonSink>>) {
    let Some(sink) = events else { return };
    engine.recorder().flush_sinks();
    if sink.write_errors() > 0 {
        eprintln!(
            "ofence: {} event(s) lost to write errors on the --events-out stream",
            sink.write_errors()
        );
    }
}

/// Run the engine over `opts.paths` without writing any observability
/// outputs — callers that inject their own counters (analyze, diff,
/// baseline) do that first and then call [`write_observability`].
fn run_engine_raw(opts: &RunOpts) -> Result<AnalysisResult, String> {
    let sources = collect_sources(&opts.paths)?;
    let (mut engine, events) = build_engine(opts)?;
    let cache_dir = cache_dir_of(opts);
    if let Some(dir) = &cache_dir {
        load_cache(&mut engine, dir);
    }
    let result = engine.analyze(&sources);
    if let Some(dir) = &cache_dir {
        save_cache(&mut engine, opts, dir)?;
    }
    finish_events(&engine, &events);
    append_perf(opts, &result, None)?;
    Ok(result)
}

fn run_engine(opts: &RunOpts) -> Result<AnalysisResult, String> {
    let result = run_engine_raw(opts)?;
    write_observability(opts, &result)?;
    Ok(result)
}

/// Where this invocation appends its run ledger, if anywhere.
fn history_dir_of(opts: &RunOpts) -> Option<PathBuf> {
    if opts.no_history {
        return None;
    }
    Some(PathBuf::from(
        opts.history_dir
            .as_deref()
            .unwrap_or(ofence::history::DEFAULT_HISTORY_DIR),
    ))
}

/// Append the run to the ledger. Failing to write an explicitly
/// requested `--history-dir` is an error; the implicit default directory
/// only warns (mirrors the cache policy).
fn append_history(
    opts: &RunOpts,
    result: &AnalysisResult,
    records: &[FindingRecord],
) -> Result<(), String> {
    let Some(dir) = history_dir_of(opts) else {
        return Ok(());
    };
    let record = ofence::history::record_of(result, &opts.config, records.to_vec());
    match ofence::history::append(&dir, &record) {
        Ok(()) => Ok(()),
        Err(e) if opts.history_dir.is_some() => Err(format!("--history-dir: {e}")),
        Err(e) => {
            eprintln!("ofence: could not append run ledger: {e}");
            Ok(())
        }
    }
}

/// Append the run's timing profile to the perf ledger (next to the
/// history ledger, same `--history-dir` / `--no-history` policy).
fn append_perf(
    opts: &RunOpts,
    result: &AnalysisResult,
    iteration_us: Option<u64>,
) -> Result<(), String> {
    let Some(dir) = history_dir_of(opts) else {
        return Ok(());
    };
    let record = ofence::perf::record_of(result, &opts.config, iteration_us);
    match ofence::perf::append(&dir, &record) {
        Ok(()) => Ok(()),
        Err(e) if opts.history_dir.is_some() => Err(format!("--history-dir: {e}")),
        Err(e) => {
            eprintln!("ofence: could not append perf ledger: {e}");
            Ok(())
        }
    }
}

/// `ofence perf` — print the perf-ledger trend, or gate CI on a
/// regression of the newest record against the baseline median.
fn perf(opts: PerfOpts) -> Result<ExitCode, String> {
    let history_dir = Path::new(
        opts.history_dir
            .as_deref()
            .unwrap_or(ofence::history::DEFAULT_HISTORY_DIR),
    );
    if opts.requests {
        // Daemon request ledger instead of the analysis perf ledger.
        let ledger = match &opts.ledger {
            Some(path) => PathBuf::from(path),
            None => ofence::perf::requests_path(history_dir),
        };
        let (records, skipped) = ofence::perf::load_requests_file(&ledger)?;
        if skipped > 0 {
            eprintln!("ofence: skipped {skipped} corrupt request-ledger line(s)");
        }
        if opts.json {
            let shown = &records[records.len().saturating_sub(opts.last)..];
            println!("{}", serde_json::to_string_pretty(&shown).unwrap());
        } else {
            print!(
                "{}",
                ofence::perf::render_request_trends(&records, opts.last)
            );
        }
        return Ok(ExitCode::SUCCESS);
    }
    let ledger = match &opts.ledger {
        Some(path) => PathBuf::from(path),
        None => ofence::perf::ledger_path(history_dir),
    };
    let (records, skipped) = ofence::perf::load_file(&ledger)?;
    if skipped > 0 {
        eprintln!("ofence: skipped {skipped} corrupt perf-ledger line(s)");
    }
    if opts.gate {
        let outcome = ofence::perf::gate(&records, opts.max_regress_pct)?;
        if opts.json {
            println!("{}", serde_json::to_string_pretty(&outcome).unwrap());
        } else {
            println!("perf gate: {}", outcome.note);
        }
        return Ok(if outcome.pass {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        });
    }
    if opts.json {
        let shown = &records[records.len().saturating_sub(opts.last)..];
        println!("{}", serde_json::to_string_pretty(&shown).unwrap());
    } else {
        print!("{}", ofence::perf::render_trend(&records, opts.last));
    }
    Ok(ExitCode::SUCCESS)
}

/// Honor `--sarif-out` for any subcommand that ran the engine.
fn write_sarif(opts: &RunOpts, result: &AnalysisResult) -> Result<(), String> {
    if let Some(path) = &opts.sarif_out {
        let doc = serde_json::to_string_pretty(&ofence::to_sarif(result)).unwrap();
        std::fs::write(path, doc + "\n").map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote SARIF to {path}");
    }
    Ok(())
}

/// Honor `--trace-out` / `--metrics-out` for any analysis subcommand.
fn write_observability(opts: &RunOpts, result: &AnalysisResult) -> Result<(), String> {
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, result.obs.chrome_trace_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote trace to {path} (open in chrome://tracing or Perfetto)");
    }
    if let Some(path) = &opts.metrics_out {
        std::fs::write(path, result.obs.prometheus_text()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote metrics to {path}");
    }
    Ok(())
}

/// `ofence analyze` — findings + pairing summary. The exit code follows
/// the `--fail-on` policy (default `any`: exit 1 when any deviation was
/// found, the historical CI-friendly behaviour).
fn analyze(opts: RunOpts) -> Result<ExitCode, String> {
    let mut result = run_engine_raw(&opts)?;
    let records = ofence::finding_records(&result.deviations, &result.sites, &result.files);
    // Against a baseline, classify so `--fail-on=new` gates only on
    // regressions; without one, every finding counts as new.
    let baseline = opts
        .baseline
        .as_deref()
        .map(|p| ofence::diffing::load_baseline(Path::new(p)))
        .transpose()?;
    let delta = match &baseline {
        Some(b) => ofence::classify(&b.findings, &records),
        None => ofence::classify(&[], &records),
    };
    result.obs = result.obs.with_counters([
        ("findings_new".to_string(), delta.new.len() as u64),
        ("findings_fixed".to_string(), delta.fixed.len() as u64),
    ]);
    write_observability(&opts, &result)?;
    write_sarif(&opts, &result)?;
    append_history(&opts, &result, &records)?;
    if opts.json {
        // The stable, versioned schema documented in docs/SCHEMA.md.
        println!(
            "{}",
            serde_json::to_string_pretty(&result.to_json()).unwrap()
        );
    } else {
        println!("{}", result.stats.render());
        if !result.pairing.pairings.is_empty() {
            println!("pairings:");
            for p in &result.pairing.pairings {
                let fns: Vec<String> = p
                    .members
                    .iter()
                    .map(|&m| {
                        let s = result.site(m);
                        format!("{}:{}", s.site.file_name, s.site.function)
                    })
                    .collect();
                println!("  {} on {:?}", fns.join(" <-> "), p.objects);
            }
        }
        if result.deviations.is_empty() {
            println!("\nno barrier-ordering issues found.");
        } else {
            println!();
            for d in &result.deviations {
                println!("{}", d.render(&result.files[d.site.file].source));
            }
        }
        if baseline.is_some() {
            println!(
                "baseline: {} known, {} new, {} fixed",
                delta.unchanged.len(),
                delta.new.len(),
                delta.fixed.len()
            );
        }
    }
    let fail = match opts.fail_on.unwrap_or(FailOn::Any) {
        FailOn::Any => !result.deviations.is_empty(),
        FailOn::New => !delta.new.is_empty(),
        FailOn::None => false,
    };
    Ok(if fail {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// `ofence serve` — the long-running analysis daemon: one shared
/// [`ofence::Session`] (warm engine cache, persistent worker pool,
/// coalesced identical requests) behind newline-delimited JSON-RPC.
/// Runs until a client sends `shutdown`.
fn serve(opts: ServeOpts) -> Result<ExitCode, String> {
    // Fail fast on an unservable corpus (nonexistent path, no .c files)
    // before binding anything.
    ofence::collect_sources(&opts.run.paths)?;
    let session = Arc::new(ofence::Session::new(ofence::SessionOptions {
        config: opts.run.config.clone(),
        paths: opts.run.paths.clone(),
        cache_dir: cache_dir_of(&opts.run),
        history_dir: history_dir_of(&opts.run),
    }));
    let metrics = match &opts.metrics {
        Some(addr) => {
            let s = ofence::obs::serve::serve(addr, session.live())
                .map_err(|e| format!("--metrics: {e}"))?;
            println!("serve: serving /metrics and /health on http://{}", s.addr());
            Some(s)
        }
        None => None,
    };
    let server = ofence::server::serve(&opts.addr, session).map_err(|e| format!("--addr: {e}"))?;
    // Scripts read the bound address back from this line (port 0 lets
    // the OS pick) — same contract as watch's --serve-metrics print.
    println!("serve: listening on {}", server.addr());
    while !server.stopped() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    server.shutdown();
    drop(metrics);
    println!("serve: shut down");
    Ok(ExitCode::SUCCESS)
}

/// `ofence call` — one-shot daemon client: send a single request, print
/// the `result` document pretty-printed (so `call ADDR analyze` output
/// is comparable to `analyze --json`), exit non-zero on error responses.
fn call(opts: CallOpts) -> Result<ExitCode, String> {
    let params: Option<serde_json::Value> = match &opts.params {
        Some(text) => {
            Some(serde_json::from_str(text).map_err(|e| format!("--params is not JSON: {e}"))?)
        }
        None => None,
    };
    let request = match params {
        Some(p) => serde_json::json!({ "id": 0, "method": opts.method, "params": p }),
        None => serde_json::json!({ "id": 0, "method": opts.method }),
    };
    let response = rpc_once(&opts.addr, &request)?;
    if response["ok"] == true {
        println!(
            "{}",
            serde_json::to_string_pretty(&response["result"]).unwrap()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        Err(rpc_error_of(&response))
    }
}

/// Send one newline-delimited JSON-RPC request and read the one-line
/// response (the `call` / `trace` transport).
fn rpc_once(addr: &str, request: &serde_json::Value) -> Result<serde_json::Value, String> {
    use std::io::{BufRead, BufReader, Write as _};
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut line = serde_json::to_string(request).unwrap();
    line.push('\n');
    stream
        .write_all(line.as_bytes())
        .map_err(|e| format!("send to {addr}: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader
        .read_line(&mut response)
        .map_err(|e| format!("read from {addr}: {e}"))?;
    if response.is_empty() {
        return Err(format!("{addr}: connection closed before a response"));
    }
    serde_json::from_str(&response).map_err(|e| format!("malformed response: {e}"))
}

/// Render an error response, including the server-assigned request id
/// so the failure can be traced with `ofence trace`.
fn rpc_error_of(response: &serde_json::Value) -> String {
    let mut msg = format!(
        "server error ({}): {}",
        response["error"]["code"].as_str().unwrap_or("unknown"),
        response["error"]["message"].as_str().unwrap_or("?")
    );
    if let Some(id) = response["request_id"].as_str() {
        if !id.is_empty() {
            msg.push_str(&format!(" [request {id}]"));
        }
    }
    msg
}

/// `ofence trace` — fetch the captured span tree of a completed daemon
/// request and render it as an indented per-span duration tree, the way
/// `explain` renders pairing decisions.
fn trace(opts: TraceOpts) -> Result<ExitCode, String> {
    let request = serde_json::json!({
        "id": 0,
        "method": "trace",
        "params": { "request_id": opts.request_id },
    });
    let response = rpc_once(&opts.addr, &request)?;
    if response["ok"] != true {
        return Err(rpc_error_of(&response));
    }
    let doc = &response["result"];
    if opts.json {
        println!("{}", serde_json::to_string_pretty(doc).unwrap());
    } else {
        print!("{}", render_trace(doc));
    }
    Ok(ExitCode::SUCCESS)
}

/// Pretty-print a trace document (`/debug/trace/<id>` shape): header
/// lines, then the span tree with per-span durations; at each level the
/// slowest child is flagged so the hot path reads top to bottom.
fn render_trace(doc: &serde_json::Value) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "request {} ({}): {} in {} µs\n",
        doc["request_id"].as_str().unwrap_or("?"),
        doc["method"].as_str().unwrap_or("?"),
        doc["outcome"].as_str().unwrap_or("?"),
        doc["latency_us"].as_u64().unwrap_or(0),
    ));
    if let Some(run_id) = doc["run_id"].as_str() {
        let via = if doc["coalesced"] == true {
            " (coalesced into the leader's analysis)"
        } else {
            ""
        };
        out.push_str(&format!("run: {run_id}{via}\n"));
    }
    out.push_str(&format!(
        "spans: {}\n",
        doc["span_count"].as_u64().unwrap_or(0)
    ));
    if let Some(roots) = doc["spans"].as_array() {
        if !roots.is_empty() {
            out.push('\n');
            render_trace_nodes(&mut out, roots, 1, false);
        }
    }
    out
}

fn render_trace_nodes(
    out: &mut String,
    nodes: &[serde_json::Value],
    depth: usize,
    mark_slowest: bool,
) {
    let slowest = nodes
        .iter()
        .map(|n| n["dur_us"].as_u64().unwrap_or(0))
        .max()
        .unwrap_or(0);
    for node in nodes {
        let dur = node["dur_us"].as_u64().unwrap_or(0);
        let mut line = format!(
            "{}{} {} µs",
            "  ".repeat(depth),
            node["name"].as_str().unwrap_or("?"),
            dur,
        );
        if let Some(attrs) = node["attrs"].as_object() {
            if !attrs.is_empty() {
                let rendered: Vec<String> = attrs
                    .iter()
                    .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("?")))
                    .collect();
                line.push_str(&format!(" [{}]", rendered.join(" ")));
            }
        }
        // Flag the slowest sibling only where there is a choice to make.
        if mark_slowest && nodes.len() > 1 && dur == slowest {
            line.push_str("  <- slowest");
        }
        out.push_str(&line);
        out.push('\n');
        if let Some(children) = node["children"].as_array() {
            render_trace_nodes(out, children, depth + 1, true);
        }
    }
}

/// `ofence diff` — classify findings across two runs by their stable
/// fingerprints. Operands are ledger run ids or `--json` report files;
/// with `--baseline FILE` the given paths are analyzed and compared to
/// the baseline. Exit code follows `--fail-on` (default `new`).
fn diff(opts: DiffOpts) -> Result<ExitCode, String> {
    let report = match (&opts.old, &opts.new) {
        (Some(old), Some(new)) => {
            let old_records = resolve_operand(&opts.run, old)?;
            let new_records = resolve_operand(&opts.run, new)?;
            ofence::classify(&old_records, &new_records)
        }
        _ => {
            let path = opts.run.baseline.as_deref().expect("parser guarantees");
            let baseline = ofence::diffing::load_baseline(Path::new(path))?;
            let mut result = run_engine_raw(&opts.run)?;
            let records = ofence::finding_records(&result.deviations, &result.sites, &result.files);
            let report = ofence::classify(&baseline.findings, &records);
            result.obs = result.obs.with_counters([
                ("findings_new".to_string(), report.new.len() as u64),
                ("findings_fixed".to_string(), report.fixed.len() as u64),
            ]);
            write_observability(&opts.run, &result)?;
            write_sarif(&opts.run, &result)?;
            append_history(&opts.run, &result, &records)?;
            report
        }
    };
    if opts.run.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report.to_json()).unwrap()
        );
    } else {
        print!("{}", report.render());
    }
    let fail = match opts.run.fail_on.unwrap_or(FailOn::New) {
        FailOn::Any => !report.new.is_empty() || !report.unchanged.is_empty(),
        FailOn::New => !report.new.is_empty(),
        FailOn::None => false,
    };
    Ok(if fail {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Resolve a diff operand: an existing file is parsed as a JSON document
/// (report, baseline, or ledger record); anything else is looked up in
/// the run ledger by id or unambiguous prefix.
fn resolve_operand(opts: &RunOpts, operand: &str) -> Result<Vec<FindingRecord>, String> {
    let path = Path::new(operand);
    if path.is_file() {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{operand}: {e}"))?;
        let doc: serde_json::Value =
            serde_json::from_str(&text).map_err(|e| format!("{operand}: not JSON: {e}"))?;
        return ofence::diffing::records_from_json(&doc).map_err(|e| format!("{operand}: {e}"));
    }
    let dir = history_dir_of(opts).ok_or_else(|| {
        format!("`{operand}` is not a file, and --no-history disables run-id lookup")
    })?;
    Ok(ofence::history::find(&dir, operand)?.findings)
}

/// `ofence baseline write` — analyze the given paths and snapshot every
/// current finding so future runs can gate on regressions only.
fn baseline_write(opts: BaselineWriteOpts) -> Result<ExitCode, String> {
    let result = run_engine(&opts.run)?;
    let records = ofence::finding_records(&result.deviations, &result.sites, &result.files);
    let count = records.len();
    let baseline = ofence::Baseline::new(&result.run_id, records);
    ofence::diffing::write_baseline(Path::new(&opts.out), &baseline)
        .map_err(|e| format!("baseline: {e}"))?;
    println!(
        "baseline: recorded {count} finding(s) from {} to {}",
        result.run_id, opts.out
    );
    Ok(ExitCode::SUCCESS)
}

/// `ofence patch` — print (or apply) the generated fixes.
fn patch(opts: RunOpts) -> Result<ExitCode, String> {
    let result = run_engine(&opts)?;
    let patches: Vec<(usize, Patch)> = result
        .deviations
        .iter()
        .filter_map(|d| {
            ofence::patch::synthesize(d, &result.files[d.site.file]).map(|p| (d.site.file, p))
        })
        .collect();
    if opts.json {
        let payload: Vec<_> = patches.iter().map(|(_, p)| p).collect();
        println!("{}", serde_json::to_string_pretty(&payload).unwrap());
    } else {
        for (_, p) in &patches {
            println!("{}", p.title);
            println!("    {}", p.explanation);
            println!("{}", p.diff);
        }
        if patches.is_empty() {
            println!("nothing to patch.");
        }
    }
    if opts.apply {
        apply_grouped(&result, patches.iter().map(|(f, p)| (*f, p.edits.clone())))?;
    }
    Ok(if patches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `ofence annotate` — §7 READ_ONCE/WRITE_ONCE patches.
fn annotate(opts: RunOpts) -> Result<ExitCode, String> {
    let result = run_engine(&opts)?;
    // Compose per file so nested read/write annotations merge.
    let mut by_file: std::collections::BTreeMap<usize, Vec<&ofence::Deviation>> =
        Default::default();
    for d in &result.annotations {
        by_file.entry(d.site.file).or_default().push(d);
    }
    let mut grouped: Vec<(usize, Vec<ofence::patch::Edit>)> = Vec::new();
    for (&file, devs) in &by_file {
        let fa = &result.files[file];
        let edits = ofence::annotate::file_annotation_edits(devs, fa);
        if !edits.is_empty() {
            grouped.push((file, edits));
        }
    }
    if opts.json {
        let payload: Vec<_> = result.annotations.iter().collect();
        println!("{}", serde_json::to_string_pretty(&payload).unwrap());
    } else {
        for (file, edits) in &grouped {
            let fa = &result.files[*file];
            if let Some(fixed) = ofence::apply_edits(&fa.source, edits) {
                println!("{}", ofence::patch::line_diff(&fa.source, &fixed, &fa.name));
            }
        }
        if grouped.is_empty() {
            println!("all concurrent accesses are already annotated.");
        }
    }
    if opts.apply {
        apply_grouped(&result, grouped.into_iter())?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `ofence stats` — statistics only.
fn stats(opts: RunOpts) -> Result<ExitCode, String> {
    let result = run_engine(&opts)?;
    if opts.json {
        println!("{}", serde_json::to_string_pretty(&result.stats).unwrap());
    } else {
        println!("{}", result.stats.render());
    }
    Ok(ExitCode::SUCCESS)
}

/// `ofence explain <file:line>` — replay the pairing decision for one
/// barrier: candidate set, shared-object overlap, weights, outcome.
fn explain(opts: ExplainOpts) -> Result<ExitCode, String> {
    let result = run_engine(&opts.run)?;
    // Match by exact name, then suffix, then basename, so both
    // `ofence explain dir/f.c:12 dir/` and `ofence explain f.c:12 dir/`
    // work.
    let matches_file = |name: &str| {
        name == opts.file
            || name.ends_with(&format!("/{}", opts.file))
            || opts.file.ends_with(&format!("/{name}"))
    };
    let site = result
        .sites
        .iter()
        .find(|s| matches_file(&s.site.file_name) && s.site.line == opts.line);
    let Some(site) = site else {
        let mut lines: Vec<String> = result
            .sites
            .iter()
            .filter(|s| matches_file(&s.site.file_name))
            .map(|s| format!("{}:{} ({})", s.site.file_name, s.site.line, s.kind.name()))
            .collect();
        lines.sort();
        return Err(if lines.is_empty() {
            format!("no barrier found in `{}`", opts.file)
        } else {
            format!(
                "no barrier at {}:{}; barriers in that file:\n  {}",
                opts.file,
                opts.line,
                lines.join("\n  ")
            )
        });
    };
    let explanation =
        ofence::explain_site_with(&result.sites, &result.pairing, &opts.run.config, site.id)
            .expect("site id comes from this result");
    if opts.run.json {
        println!("{}", serde_json::to_string_pretty(&explanation).unwrap());
    } else {
        print!("{}", explanation.render());
    }
    Ok(ExitCode::SUCCESS)
}

/// `ofence watch` — poll the given paths and re-run the incremental
/// analysis whenever a file's content hash changes, printing only the
/// deviation delta (`+` new findings, `-` fixed ones). The engine — and
/// therefore the in-memory per-file cache — stays alive across runs, so
/// each re-analysis costs roughly one changed file, not the whole tree.
/// Polls go through one [`ofence::walk::SourceIndex`]: a poll of an
/// unchanged tree stats every file and reads none.
fn watch(opts: WatchOpts) -> Result<ExitCode, String> {
    let (mut engine, events) = build_engine(&opts.run)?;
    let cache_dir = cache_dir_of(&opts.run);
    if let Some(dir) = &cache_dir {
        load_cache(&mut engine, dir);
    }

    // `--serve-metrics`: live /metrics + /health on a background thread,
    // fed after every iteration. The bound address is printed (port 0
    // lets the OS pick, so scripts need to read it back).
    let live = Arc::new(ofence::obs::Live::new());
    let server = match &opts.serve_metrics {
        Some(addr) => {
            let s = ofence::obs::serve::serve(addr, live.clone())
                .map_err(|e| format!("--serve-metrics: {e}"))?;
            println!("watch: serving /metrics and /health on http://{}", s.addr());
            Some(s)
        }
        None => None,
    };

    // Fail fast on unwatchable paths (nonexistent directory, no .c files)
    // before entering the loop.
    let mut index = ofence::walk::SourceIndex::default();
    let (mut sources, _) = index.refresh(&opts.run.paths)?;
    let corpus_key =
        |sources: &[ofence::SourceFile]| ofence::session::corpus_key(sources, &opts.run.config);
    let mut last_key = corpus_key(&sources);
    // A baseline seeds the known set, so long-known findings don't show
    // up as `+` noise on the first iteration.
    let mut known: Vec<FindingRecord> = match opts.run.baseline.as_deref() {
        Some(p) => ofence::diffing::load_baseline(Path::new(p))?.findings,
        None => Vec::new(),
    };
    let mut runs = 0u64;
    // Session-cumulative iteration-duration histogram: exported in every
    // iteration's metrics and on /metrics, so scrapers see the full
    // session's latency distribution, not just the last run.
    let mut iteration_hist = ofence::obs::Histogram::default();

    loop {
        runs += 1;
        let iteration_start = std::time::Instant::now();
        // The recorder resets per run, so queue the cumulative count:
        // every snapshot (and metrics file) reports total runs so far.
        engine.queue_count("watch_iterations", runs);
        let mut result = engine.analyze_incremental(&sources);
        if let Some(dir) = &cache_dir {
            save_cache(&mut engine, &opts.run, dir)?;
        }

        // The same fingerprint diff engine `ofence diff` uses: watch and
        // diff can never disagree about what counts as a new finding.
        let records = ofence::finding_records(&result.deviations, &result.sites, &result.files);
        let delta = ofence::classify(&known, &records);
        result.obs = result.obs.with_counters([
            ("findings_new".to_string(), delta.new.len() as u64),
            ("findings_fixed".to_string(), delta.fixed.len() as u64),
        ]);
        let iteration_us = iteration_start.elapsed().as_micros() as u64;
        iteration_hist.observe(iteration_us);
        result.obs = result
            .obs
            .with_histogram("iteration_duration_us", iteration_hist.clone());
        write_observability(&opts.run, &result)?;
        append_history(&opts.run, &result, &records)?;
        append_perf(&opts.run, &result, Some(iteration_us))?;
        live.publish(&result.obs, records.len() as u64, iteration_us);
        // Flush the event stream at every iteration boundary, so a
        // consumer tailing `--events-out` (or a watch session that gets
        // killed while polling) always sees complete, balanced events.
        engine.recorder().flush_sinks();
        println!(
            "watch: run {} — {} files, {} deviations ({} new, {} fixed)",
            runs,
            sources.len(),
            records.len(),
            delta.new.len(),
            delta.fixed.len()
        );
        // `--slow-files N` opts into a per-iteration hot-file listing
        // (same ranking `analyze` prints in its stats block).
        if opts.run.slow_files.is_some() && !result.stats.slowest_files.is_empty() {
            let listing: Vec<String> = result
                .stats
                .slowest_files
                .iter()
                .map(|(f, us)| format!("{f} ({us}us)"))
                .collect();
            println!("  slowest: {}", listing.join(", "));
        }
        for r in &delta.new {
            println!("  + {}", r.render_line());
        }
        for r in &delta.fixed {
            println!("  - {}", r.render_line());
        }
        known = records;

        if opts.max_iterations.is_some_and(|max| runs >= max) {
            finish_events(&engine, &events);
            if let Some(s) = server {
                s.shutdown();
            }
            return Ok(ExitCode::SUCCESS);
        }

        // Poll until something changes.
        loop {
            std::thread::sleep(std::time::Duration::from_millis(opts.interval_ms));
            sources = index.refresh(&opts.run.paths)?.0;
            let key = corpus_key(&sources);
            if key != last_key {
                last_key = key;
                break;
            }
        }
    }
}

/// `ofence gen` — write a synthetic corpus to disk for experimentation.
fn gen(opts: GenOpts) -> Result<ExitCode, String> {
    if let Some(name) = &opts.tier {
        let spec = ofence_corpus::CorpusSpec::tier(name, opts.seed)
            .ok_or_else(|| format!("unknown tier `{name}` (expected 1200, 12k, or 100k)"))?;
        return write_corpus(&ofence_corpus::generate(&spec), &opts.out);
    }
    let spec = ofence_corpus::CorpusSpec {
        seed: opts.seed,
        files: opts.files,
        patterns_per_file: 1,
        noise_per_file: 2,
        decoy_pairs: (opts.files / 20).max(1),
        far_decoy_pairs: 0,
        lone_per_file: 1,
        split_fraction: 0.2,
        reread_decoys: 0,
        unfenced_decoys: 0,
        filler_files: 0,
        cross_file_chains: opts.chains,
        chain_depth: opts.chain_depth,
        chain_bugs: opts.chain_bugs,
        bugs: if opts.with_bugs {
            ofence_corpus::BugPlan {
                misplaced: (opts.files / 10).max(1),
                repeated_read: (opts.files / 20).max(1),
                wrong_type: 1,
                unneeded: (opts.files / 10).max(1),
                missing_barrier: (opts.files / 20).max(1),
            }
        } else {
            ofence_corpus::BugPlan::none()
        },
    };
    let corpus = ofence_corpus::generate(&spec);
    write_corpus(&corpus, &opts.out)
}

/// Write a generated corpus (plus its ground-truth manifest) to `out`.
fn write_corpus(corpus: &ofence_corpus::Corpus, out: &str) -> Result<ExitCode, String> {
    let out = std::path::Path::new(out);
    let mut made_dirs = std::collections::HashSet::new();
    for f in &corpus.files {
        let path = out.join(&f.name);
        if let Some(parent) = path.parent() {
            // One mkdir per distinct directory, not per file: the 100k
            // tier writes 100k files into a handful of directories.
            if made_dirs.insert(parent.to_path_buf()) {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("{}: {e}", parent.display()))?;
            }
        }
        std::fs::write(&path, &f.content).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let manifest = serde_json::to_string_pretty(&corpus.manifest).unwrap();
    std::fs::write(out.join("manifest.json"), manifest).map_err(|e| format!("manifest: {e}"))?;
    println!(
        "wrote {} files (+ manifest.json with ground truth) to {}",
        corpus.files.len(),
        out.display()
    );
    Ok(ExitCode::SUCCESS)
}

/// Apply grouped edits to the files on disk.
fn apply_grouped(
    result: &AnalysisResult,
    groups: impl Iterator<Item = (usize, Vec<ofence::patch::Edit>)>,
) -> Result<(), String> {
    // Merge all edits per file, dropping conflicts conservatively.
    let mut by_file: std::collections::BTreeMap<usize, Vec<ofence::patch::Edit>> =
        Default::default();
    for (file, edits) in groups {
        by_file.entry(file).or_default().extend(edits);
    }
    for (file, mut edits) in by_file {
        let fa = &result.files[file];
        edits.sort_by_key(|e| (e.span.lo, e.span.hi));
        edits.dedup();
        let mut kept: Vec<ofence::patch::Edit> = Vec::new();
        let mut dropped = 0;
        for e in edits {
            if kept
                .last()
                .map(|prev| e.span.lo >= prev.span.hi)
                .unwrap_or(true)
            {
                kept.push(e);
            } else {
                dropped += 1;
            }
        }
        if dropped > 0 {
            eprintln!(
                "{}: {dropped} conflicting edit(s) skipped — re-run after applying",
                fa.name
            );
        }
        let fixed = ofence::apply_edits(&fa.source, &kept)
            .ok_or_else(|| format!("{}: edits failed to apply", fa.name))?;
        std::fs::write(&fa.name, fixed).map_err(|e| format!("{}: {e}", fa.name))?;
        println!("patched {}", fa.name);
    }
    Ok(())
}
