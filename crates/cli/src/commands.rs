//! Subcommand implementations.

use crate::args::{
    BaselineWriteOpts, CallOpts, Command, DiffOpts, ExplainOpts, GenOpts, PerfOpts, RunOpts,
    ServeOpts, TraceOpts, WatchOpts,
};
use ofence::ledger::{self, Record};
use ofence::obs::NdjsonSink;
use ofence::session::RunHandle;
use ofence::{AnalysisResult, DiffReport, Engine, FailOn, FindingRecord, LoadOutcome};
use std::collections::HashMap;
use std::io::Write;
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
    let dir = opts.cache_dir.as_deref();
    (!opts.no_cache).then(|| dir.unwrap_or(ofence::cache::DEFAULT_CACHE_DIR).into())
}

/// Where this invocation appends its ledgers, if anywhere.
fn history_dir_of(opts: &RunOpts) -> Option<PathBuf> {
    let dir = opts.history_dir.as_deref();
    (!opts.no_history).then(|| dir.unwrap_or(ledger::DEFAULT_DIR).into())
}

/// Build the engine for an invocation: config, presentation knobs, and
/// the live event stream (`--events-out`), which attaches before any
/// analysis so the stream covers the whole run. The sink handle comes
/// back too, so the caller can report write errors when it is done.
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

/// The session an invocation analyzes through: its engine behind the
/// cache and ledger directories the flags select.
fn open_session(opts: &RunOpts) -> Result<(ofence::Session, Option<Arc<NdjsonSink>>), String> {
    let (engine, events) = build_engine(opts)?;
    let session_opts = ofence::SessionOptions {
        config: opts.config.clone(),
        paths: opts.paths.clone(),
        cache_dir: cache_dir_of(opts),
        history_dir: history_dir_of(opts),
    };
    Ok((ofence::Session::with_engine(session_opts, engine), events))
}

/// Analyze `opts.paths` as a one-request session: the same snapshot,
/// cache and ledger path the daemon serves from. The session is not torn
/// down: by now the run has appended its ledger lines and flushed the
/// event sinks, and the process exits after printing, so freeing the
/// engine and its cache (tens of milliseconds at 12k files) is waste.
fn run_once(opts: &RunOpts) -> Result<Arc<RunHandle>, String> {
    let (session, events) = open_session(opts)?;
    let handle = session.current_run()?;
    check_faults(opts, &handle)?;
    finish_events(&events);
    std::mem::forget(session);
    Ok(handle)
}

/// A one-shot command's exit code, its run left unfreed: everything it
/// prints is out, and the process exits next.
fn exit_with<R>(run: R, code: ExitCode) -> Result<ExitCode, String> {
    std::mem::forget(run);
    Ok(code)
}

/// The CLI's policy for a run's disk-side faults: a discarded cache is a
/// note. Failing to write an explicitly requested `--cache-dir` or
/// `--history-dir` is an error; the implicit default directories only
/// warn (the analysis itself succeeded).
fn check_faults(opts: &RunOpts, handle: &RunHandle) -> Result<(), String> {
    let cache_dir = cache_dir_of(opts).unwrap_or_default();
    if let Some(LoadOutcome::Discarded { reason }) = &handle.cache_load {
        eprintln!(
            "ofence: discarding cache in {} ({reason}); analyzing cold",
            cache_dir.display()
        );
    }
    if let Some(e) = &handle.cache_save_error {
        if opts.cache_dir.is_some() {
            return Err(format!("--cache-dir {}: {e}", cache_dir.display()));
        }
        eprintln!(
            "ofence: could not write cache to {}: {e}",
            cache_dir.display()
        );
    }
    if let Some(e) = &handle.ledger_error {
        if opts.history_dir.is_some() {
            return Err(format!("--history-dir: {e}"));
        }
        eprintln!("ofence: could not append run ledger: {e}");
    }
    Ok(())
}

/// Warn (never fail) on event-stream write errors — a broken event
/// stream must not turn a finished analysis into a failure. The session
/// flushes the stream after every run.
fn finish_events(events: &Option<Arc<NdjsonSink>>) {
    if let Some(sink) = events.as_ref().filter(|s| s.write_errors() > 0) {
        eprintln!(
            "ofence: {} event(s) lost to write errors on the --events-out stream",
            sink.write_errors()
        );
    }
}

/// The findings of `--baseline FILE`; none without one.
fn baseline_findings(opts: &RunOpts) -> Result<Vec<FindingRecord>, String> {
    match opts.baseline.as_deref() {
        Some(path) => Ok(ofence::diffing::load_baseline(Path::new(path))?.findings),
        None => Ok(Vec::new()),
    }
}

/// The run's counters and span totals plus the finding delta against a
/// baseline (`findings_new` / `findings_fixed`): all that the report and
/// `--metrics-out` read, without a copy of every per-file span.
fn with_delta(result: &AnalysisResult, delta: &DiffReport) -> ofence::obs::Snapshot {
    result.obs.totals().with_counters([
        ("findings_new".to_string(), delta.new.len() as u64),
        ("findings_fixed".to_string(), delta.fixed.len() as u64),
    ])
}

/// `ofence perf` — print the perf-ledger trend, or gate CI on a
/// regression of the newest record against the baseline median.
fn perf(opts: PerfOpts) -> Result<ExitCode, String> {
    if opts.requests {
        // The request ledger instead of the analysis perf ledger.
        show_ledger(&opts, "request", ofence::perf::render_request_trends)?;
        return Ok(ExitCode::SUCCESS);
    }
    let records = show_ledger(&opts, "perf", ofence::perf::render_trend)?;
    if !opts.gate {
        return Ok(ExitCode::SUCCESS);
    }
    let outcome = ofence::perf::gate(&records, opts.max_regress_pct)?;
    if opts.json {
        println!("{}", serde_json::to_string_pretty(&outcome).unwrap());
    } else {
        println!("perf gate: {}", outcome.note);
    }
    Ok(ExitCode::from(u8::from(!outcome.pass)))
}

/// Load `T`'s ledger from `--history-dir` (or the `--ledger FILE`
/// override) and warn about skipped corrupt lines. Unless `--gate` is
/// to judge the records, print the last `--last` of them: as JSON under
/// `--json`, else through `render`.
fn show_ledger<T: Record>(
    opts: &PerfOpts,
    what: &str,
    render: fn(&[T], usize) -> String,
) -> Result<Vec<T>, String> {
    let dir = opts.history_dir.as_deref().unwrap_or(ledger::DEFAULT_DIR);
    let (records, skipped) = match &opts.ledger {
        Some(file) => ledger::load_file(Path::new(file))?,
        None => ledger::load::<T>(Path::new(dir))?,
    };
    if skipped > 0 {
        eprintln!("ofence: skipped {skipped} corrupt {what}-ledger line(s)");
    }
    if opts.gate {
        return Ok(records);
    }
    if opts.json {
        let shown = &records[records.len().saturating_sub(opts.last)..];
        println!("{}", serde_json::to_string_pretty(&shown).unwrap());
    } else {
        print!("{}", render(&records, opts.last));
    }
    Ok(records)
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

/// Honor `--trace-out` (the run's spans) / `--metrics-out` (`metrics`:
/// the run's snapshot, or one with driver counters added) for any
/// analysis subcommand.
fn write_observability(
    opts: &RunOpts,
    result: &AnalysisResult,
    metrics: &ofence::obs::Snapshot,
) -> Result<(), String> {
    if let Some(path) = &opts.trace_out {
        let trace = result.obs.chrome_trace_json();
        std::fs::write(path, trace).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote trace to {path} (open in chrome://tracing or Perfetto)");
    }
    if let Some(path) = &opts.metrics_out {
        std::fs::write(path, metrics.prometheus_text()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote metrics to {path}");
    }
    Ok(())
}

/// `ofence analyze` — findings + pairing summary. The exit code follows
/// the `--fail-on` policy (default `any`: exit 1 when any deviation was
/// found, the historical CI-friendly behaviour).
fn analyze(opts: RunOpts) -> Result<ExitCode, String> {
    // Load the baseline first: a bad file fails before the analysis.
    let known = baseline_findings(&opts)?;
    let handle = run_once(&opts)?;
    let result = &handle.result;
    // Against a baseline, classify so `--fail-on=new` gates only on
    // regressions; without one, every finding counts as new.
    let delta = ofence::classify(&known, &result.deviation_records);
    let obs = with_delta(result, &delta);
    write_observability(&opts, result, &obs)?;
    write_sarif(&opts, result)?;
    if opts.json {
        // The stable, versioned schema documented in docs/SCHEMA.md,
        // rendered straight from the result.
        let mut text = serde_json::to_string_pretty(&result.report_with(&obs)).unwrap();
        text.push('\n');
        std::io::stdout()
            .lock()
            .write_all(text.as_bytes())
            .map_err(|e| format!("stdout: {e}"))?;
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
            for d in result.deviations.iter() {
                println!("{}", d.render(&result.files[d.site.file].source));
            }
        }
        if opts.baseline.is_some() {
            println!(
                "baseline: {} known, {} new, {} fixed",
                delta.unchanged.len(),
                delta.new.len(),
                delta.fixed.len()
            );
        }
    }
    // Every current finding is new or known, so `any` fails on any
    // deviation at all.
    let fail = delta.fails(opts.fail_on.unwrap_or(FailOn::Any));
    exit_with(handle, ExitCode::from(u8::from(fail)))
}

/// `ofence serve` — the long-running analysis daemon: one shared
/// [`ofence::Session`] (warm engine cache, coalesced identical requests,
/// a panicking analysis failing its requests instead of hanging them)
/// behind newline-delimited JSON-RPC.
/// Runs until a client sends `shutdown`.
fn serve(opts: ServeOpts) -> Result<ExitCode, String> {
    let (session, events) = open_session(&opts.run)?;
    // Fail fast on an unservable corpus (nonexistent path, no .c files)
    // before binding anything. This is the session's own first snapshot
    // pass, so the first request only stats what it found.
    session.snapshot_key()?;
    let session = Arc::new(session);
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
    server.wait();
    drop(metrics);
    finish_events(&events);
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
    let (report, handle) = match (&opts.old, &opts.new) {
        (Some(old), Some(new)) => {
            let old_records = resolve_operand(&opts.run, old)?;
            let new_records = resolve_operand(&opts.run, new)?;
            (ofence::classify(&old_records, &new_records), None)
        }
        _ => {
            let known = baseline_findings(&opts.run)?;
            let handle = run_once(&opts.run)?;
            let report = ofence::classify(&known, &handle.result.deviation_records);
            let obs = with_delta(&handle.result, &report);
            write_observability(&opts.run, &handle.result, &obs)?;
            write_sarif(&opts.run, &handle.result)?;
            (report, Some(handle))
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
    let fail = report.fails(opts.run.fail_on.unwrap_or(FailOn::New));
    exit_with(handle, ExitCode::from(u8::from(fail)))
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
    let handle = run_once(&opts.run)?;
    write_observability(&opts.run, &handle.result, &handle.result.obs)?;
    let run_id = &handle.result.run_id;
    let count = handle.result.deviation_records.len();
    let baseline = ofence::Baseline::new(run_id, handle.result.deviation_records.to_vec());
    ofence::diffing::write_baseline(Path::new(&opts.out), &baseline)
        .map_err(|e| format!("baseline: {e}"))?;
    println!(
        "baseline: recorded {count} finding(s) from {run_id} to {}",
        opts.out
    );
    exit_with(handle, ExitCode::SUCCESS)
}

/// `ofence patch` — print (or apply) the generated fixes.
fn patch(opts: RunOpts) -> Result<ExitCode, String> {
    let handle = run_once(&opts)?;
    write_observability(&opts, &handle.result, &handle.result.obs)?;
    let result = &handle.result;
    let patches = &result.patches[..];
    if opts.json {
        println!("{}", serde_json::to_string_pretty(patches).unwrap());
    } else {
        for p in patches {
            println!("{}", p.title);
            println!("    {}", p.explanation);
            println!("{}", p.diff);
        }
        if patches.is_empty() {
            println!("nothing to patch.");
        }
    }
    if opts.apply {
        let index: HashMap<&str, usize> = result
            .files
            .iter()
            .enumerate()
            .map(|(i, fa)| (fa.name.as_str(), i))
            .collect();
        apply_grouped(
            result,
            patches
                .iter()
                .map(|p| (index[p.file.as_str()], p.edits.clone())),
        )?;
    }
    let code = ExitCode::from(u8::from(!patches.is_empty()));
    exit_with(handle, code)
}

/// `ofence annotate` — §7 READ_ONCE/WRITE_ONCE patches.
fn annotate(opts: RunOpts) -> Result<ExitCode, String> {
    let handle = run_once(&opts)?;
    write_observability(&opts, &handle.result, &handle.result.obs)?;
    let result = &handle.result;
    // Compose per file so nested read/write annotations merge.
    let mut by_file: std::collections::BTreeMap<usize, Vec<&ofence::Deviation>> =
        Default::default();
    for d in result.annotations.iter() {
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
        apply_grouped(result, grouped.into_iter())?;
    }
    exit_with(handle, ExitCode::SUCCESS)
}

/// `ofence stats` — statistics only.
fn stats(opts: RunOpts) -> Result<ExitCode, String> {
    let handle = run_once(&opts)?;
    write_observability(&opts, &handle.result, &handle.result.obs)?;
    let result = &handle.result;
    if opts.json {
        println!("{}", serde_json::to_string_pretty(&result.stats).unwrap());
    } else {
        println!("{}", result.stats.render());
    }
    exit_with(handle, ExitCode::SUCCESS)
}

/// `ofence explain <file:line>` — replay the pairing decision for one
/// barrier: candidate set, shared-object overlap, weights, outcome.
fn explain(opts: ExplainOpts) -> Result<ExitCode, String> {
    let handle = run_once(&opts.run)?;
    write_observability(&opts.run, &handle.result, &handle.result.obs)?;
    let explanation = ofence::explain_at(&handle.result, &opts.run.config, &opts.file, opts.line)?;
    if opts.run.json {
        println!("{}", serde_json::to_string_pretty(&explanation).unwrap());
    } else {
        print!("{}", explanation.render());
    }
    exit_with(handle, ExitCode::SUCCESS)
}

/// `ofence watch` — a session plus a poll loop: re-run the analysis
/// whenever the corpus changes, printing only the deviation delta (`+`
/// new findings, `-` fixed ones). The session's engine — and therefore
/// the in-memory per-file cache — stays alive across runs, so each
/// re-analysis costs roughly one changed file, not the whole tree. A
/// poll is one pass through the session's source index: on an unchanged
/// tree it stats every file and reads none.
fn watch(opts: WatchOpts) -> Result<ExitCode, String> {
    let (session, events) = open_session(&opts.run)?;
    // `--serve-metrics`: the session's live /metrics + /health on a
    // background thread. The bound address is printed (port 0 lets the
    // OS pick, so scripts need to read it back).
    let server = match &opts.serve_metrics {
        Some(addr) => {
            let s = ofence::obs::serve::serve(addr, session.live())
                .map_err(|e| format!("--serve-metrics: {e}"))?;
            println!("watch: serving /metrics and /health on http://{}", s.addr());
            Some(s)
        }
        None => None,
    };
    // A baseline seeds the known set, so long-known findings don't show
    // up as `+` noise on the first iteration.
    let mut known = baseline_findings(&opts.run)?;
    let mut runs = 0u64;

    loop {
        runs += 1;
        // The first run also fails fast on unwatchable paths
        // (nonexistent directory, no .c files).
        let handle = session.current_run()?;
        check_faults(&opts.run, &handle)?;
        let result = &handle.result;
        // The same fingerprint diff engine `ofence diff` uses: watch and
        // diff can never disagree about what counts as a new finding.
        let delta = ofence::classify(&known, &result.deviation_records);
        // Metrics files carry the session's cumulative counters too
        // (`serve_runs`: total runs so far).
        let obs = with_delta(result, &delta).with_counters(session.live().counters());
        write_observability(&opts.run, result, &obs)?;
        println!(
            "watch: run {} — {} files, {} deviations ({} new, {} fixed)",
            runs,
            result.files.len(),
            result.deviation_records.len(),
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
        known = result.deviation_records.to_vec();

        if opts.max_iterations.is_some_and(|max| runs >= max) {
            finish_events(&events);
            if let Some(s) = server {
                s.shutdown();
            }
            return Ok(ExitCode::SUCCESS);
        }

        // Poll until something changes.
        loop {
            std::thread::sleep(std::time::Duration::from_millis(opts.interval_ms));
            if session.snapshot_key()? != handle.corpus_key {
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
    for (file, edits) in by_file {
        let fa = &result.files[file];
        let (kept, dropped) = ofence::patch::without_overlaps(edits);
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
