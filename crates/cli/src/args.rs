//! Argument parsing (hand-rolled; the tool has a small, stable surface).

use ofence::{AnalysisConfig, FailOn};

pub const USAGE: &str = "\
usage:
  ofence analyze  <paths...> [--json] [--sarif-out FILE] [--baseline FILE]
                  [--fail-on new|any|none] [output options] [window options]
  ofence patch    <paths...> [--apply] [--json] [window options]
  ofence annotate <paths...> [--apply] [--json] [window options]
  ofence stats    <paths...> [--json] [window options]
  ofence explain  <file:line> <paths...> [--json] [window options]
  ofence watch    <paths...> [--interval-ms N] [--max-iterations N]
                  [--serve-metrics ADDR] [...]
  ofence serve    <paths...> [--addr HOST:PORT] [--metrics HOST:PORT]
                  [--events-out FILE] [--slow-files N]
                  [cache/history/window options]
  ofence call     <host:port> <method> [--params JSON]
  ofence trace    <host:port> <request-id> [--json]
  ofence diff     <old> <new> [--json] [--history-dir DIR]
  ofence diff     --baseline FILE <paths...> [--json] [window options]
  ofence baseline write <paths...> [--out FILE] [window options]
  ofence perf     [--ledger FILE] [--history-dir DIR] [--last N]
                  [--gate] [--max-regress-pct P] [--requests] [--json]
  ofence gen      --out DIR [--files N | --tier 1200|12k|100k] [--seed S]
                  [--bugs] [--chains N] [--chain-depth D] [--chain-bugs B]

output options:
  --trace-out FILE   write a Chrome-tracing JSON trace of the run
  --metrics-out FILE write Prometheus text-format metrics of the run
  --events-out FILE  stream span/counter events as NDJSON while the
                     analysis runs (`-` for stdout)
  --sarif-out FILE   write findings as SARIF 2.1.0 with stable
                     fingerprints in partialFingerprints
  --slow-files N     list the top N slowest files in stats output
                     (default 5)

triage options (analyze and watch):
  --baseline FILE    compare findings against this baseline; known
                     findings are reported as baselined
  --fail-on POLICY   exit non-zero on: new (findings not in the
                     baseline), any (default; any finding), none
  --history-dir DIR  append the run record to DIR/history.jsonl
                     (default: .ofence)
  --no-history       do not write the run ledger

cache options (analysis subcommands and watch):
  --cache-dir DIR    persist the per-file analysis cache here
                     (default: .ofence-cache)
  --no-cache         do not read or write the on-disk cache

window options:
  --write-window N   statements explored around write barriers (default 5)
  --read-window N    statements explored around read barriers (default 50)
  --no-ipc           disable implicit wake-up barrier detection
  --no-expand        disable callee/caller expansion
  --ipa-depth N      compose function summaries across up to N call
                     levels (inter-procedural pairing; default 0 = off)
  --missing          enable the missing-barrier detector (dataflow)
  --no-outlier       report all fence-less readers, not just outliers
  --window-reread    use the bounded-window re-read heuristic (no dataflow)

`explain` replays the pairing decision for the barrier at <file:line>:
the candidate set, shared-object overlap, distance-product weights, and
why the winner won (or why the barrier stayed unpaired).

`watch` polls the given paths (a stat per file, no inotify dependency)
and re-runs the incremental analysis when a file changes, printing only
the finding delta (+ new, - fixed). `--interval-ms` sets the poll period
(default 500); `--max-iterations` exits after N analysis runs (default:
run until interrupted). `--serve-metrics ADDR` (e.g. 127.0.0.1:9464,
port 0 for an OS-picked port) serves live `GET /metrics` (Prometheus
text) and `GET /health` (JSON) from the latest run on a background
thread.

`serve` runs the analysis daemon: newline-delimited JSON-RPC over TCP
(default --addr 127.0.0.1:0; the bound address is printed). Per-run
outputs (--trace-out, --metrics-out, --sarif-out) and exit policies
(--baseline, --fail-on) are refused; --events-out streams every run's
events. Concurrent clients share one warm engine cache, and identical
overlapping requests coalesce into a single analysis.
Methods: ping, status, trace, analyze, analyze-file, explain, diff,
baseline-gate, shutdown. `--metrics HOST:PORT` additionally serves live
`GET /metrics` + `GET /health` + `GET /debug/requests` +
`GET /debug/trace/<request-id>`. `call` is the matching one-shot
client: it sends one request and pretty-prints the `result` document
(identical to the corresponding one-shot subcommand's `--json`
output), exiting non-zero on an error response (the message includes
the server-assigned request id, for `ofence trace`).

`trace` fetches the captured span tree of a completed daemon request
by its request id (every response envelope carries one) and renders
it as an indented tree with per-span durations, marking the slowest
child at each level; `--json` prints the raw tree document instead.

`perf` reads the performance ledger (DIR/perf.jsonl, appended by every
analysis run) and prints the last `--last N`
records as a trend table (default 10). With `--gate`, the newest
record is compared against the median elapsed time of earlier
comparable records (same config fingerprint, corpus size, and
cold/warm mode) and the command exits non-zero when it is more than
`--max-regress-pct P` percent slower (default 10). With `--requests`,
the request ledger (DIR/requests.jsonl, appended by every completed
`serve` request, CLI analysis and watch run) is read instead and
summarised as a per-method latency table (count, errors, coalesced,
p50/p95/p99).

`diff` classifies findings as new / fixed / unchanged by their stable
fingerprints. <old> and <new> are ledger run ids (prefixes work) or
`analyze --json` report files; with `--baseline FILE` the given paths
are analyzed and compared against the baseline instead.

`baseline write` analyzes the given paths and records every current
finding (default: ofence-baseline.json) so `--fail-on=new` only gates
on regressions. Inline `// ofence-ignore` comments suppress a finding
at its source line.";

/// A parsed invocation.
#[derive(Debug, PartialEq)]
pub enum Command {
    Analyze(RunOpts),
    Patch(RunOpts),
    Annotate(RunOpts),
    Stats(RunOpts),
    Explain(ExplainOpts),
    Watch(WatchOpts),
    Serve(ServeOpts),
    Call(CallOpts),
    Trace(TraceOpts),
    Diff(DiffOpts),
    BaselineWrite(BaselineWriteOpts),
    Perf(PerfOpts),
    Gen(GenOpts),
}

/// Options shared by the analysis subcommands.
#[derive(Debug, PartialEq)]
pub struct RunOpts {
    pub paths: Vec<String>,
    pub json: bool,
    pub apply: bool,
    /// Write a Chrome-tracing JSON trace of the run to this file.
    pub trace_out: Option<String>,
    /// Write Prometheus text-format metrics of the run to this file.
    pub metrics_out: Option<String>,
    /// Stream NDJSON span/counter events here while the analysis runs
    /// (`-` for stdout).
    pub events_out: Option<String>,
    /// Top-N slowest files to list in stats output (`--slow-files`);
    /// `None` means the engine default of 5.
    pub slow_files: Option<usize>,
    /// Write findings as a SARIF 2.1.0 document to this file.
    pub sarif_out: Option<String>,
    /// Compare findings against this baseline file.
    pub baseline: Option<String>,
    /// Exit-code policy; `None` means the subcommand's default.
    pub fail_on: Option<FailOn>,
    /// Run-ledger directory (`--history-dir`); `None` means the default
    /// `.ofence` directory.
    pub history_dir: Option<String>,
    /// `--no-history`: skip appending to the run ledger.
    pub no_history: bool,
    /// Where to persist the per-file analysis cache (`--cache-dir`);
    /// `None` means the default `.ofence-cache` directory.
    pub cache_dir: Option<String>,
    /// `--no-cache`: skip reading and writing the on-disk cache.
    pub no_cache: bool,
    pub config: AnalysisConfig,
}

/// `ofence diff` — compare two runs (or the current run vs a baseline).
#[derive(Debug, PartialEq)]
pub struct DiffOpts {
    /// Two-operand mode: ledger run ids or `--json` report files.
    /// Empty in `--baseline` mode (then `run.paths` holds the sources).
    pub old: Option<String>,
    pub new: Option<String>,
    pub run: RunOpts,
}

/// `ofence baseline write` — snapshot current findings to a file.
#[derive(Debug, PartialEq)]
pub struct BaselineWriteOpts {
    /// Output file (default `ofence-baseline.json`).
    pub out: String,
    pub run: RunOpts,
}

/// `ofence watch <paths...>` — poll for changes and re-analyze.
#[derive(Debug, PartialEq)]
pub struct WatchOpts {
    pub run: RunOpts,
    /// Poll period in milliseconds.
    pub interval_ms: u64,
    /// Exit after this many analysis runs (`None`: until interrupted).
    pub max_iterations: Option<u64>,
    /// Serve live `GET /metrics` + `GET /health` on this address
    /// (`--serve-metrics`, e.g. `127.0.0.1:9464`; port 0 lets the OS
    /// pick).
    pub serve_metrics: Option<String>,
}

/// `ofence serve <paths...>` — the long-running analysis daemon.
#[derive(Debug, PartialEq)]
pub struct ServeOpts {
    pub run: RunOpts,
    /// Listen address (`--addr`; default `127.0.0.1:0`, port 0 lets the
    /// OS pick — the bound address is printed).
    pub addr: String,
    /// Also serve live `GET /metrics` + `GET /health` here (`--metrics`).
    pub metrics: Option<String>,
}

/// `ofence call <host:port> <method>` — one-shot daemon client.
#[derive(Debug, PartialEq)]
pub struct CallOpts {
    pub addr: String,
    pub method: String,
    /// Raw JSON for the request's `params` field (`--params`).
    pub params: Option<String>,
}

/// `ofence trace <host:port> <request-id>` — fetch a captured request
/// trace from a live daemon and pretty-print its span tree.
#[derive(Debug, PartialEq)]
pub struct TraceOpts {
    pub addr: String,
    pub request_id: String,
    /// Print the raw trace document instead of the rendered tree.
    pub json: bool,
}

/// `ofence perf` — read the perf ledger as a trend table or CI gate.
#[derive(Debug, PartialEq)]
pub struct PerfOpts {
    /// Explicit ledger file; overrides `--history-dir`.
    pub ledger: Option<String>,
    /// History directory holding `perf.jsonl` (default `.ofence`).
    pub history_dir: Option<String>,
    /// Records to show in the trend table.
    pub last: usize,
    /// Gate mode: compare the newest record against the baseline median.
    pub gate: bool,
    /// Maximum tolerated slowdown in percent for `--gate`.
    pub max_regress_pct: f64,
    /// Read the daemon request ledger (`requests.jsonl`) instead and
    /// print per-method latency trends.
    pub requests: bool,
    pub json: bool,
}

/// `ofence explain <file:line> <paths...>`.
#[derive(Debug, PartialEq)]
pub struct ExplainOpts {
    /// Target barrier location, as given (`file:line`).
    pub file: String,
    pub line: u32,
    pub run: RunOpts,
}

#[derive(Debug, PartialEq)]
pub struct GenOpts {
    pub out: String,
    pub files: usize,
    pub seed: u64,
    pub with_bugs: bool,
    /// Cross-file call-chain instances (`--chains`).
    pub chains: usize,
    /// Call levels between each chain barrier and its accesses
    /// (`--chain-depth`, default 2).
    pub chain_depth: usize,
    /// Chain instances carrying a deep-callee misplaced read
    /// (`--chain-bugs`).
    pub chain_bugs: usize,
    /// Named throughput tier (`--tier 1200|12k|100k`): use the shared
    /// `CorpusSpec::tier` shape instead of `--files`, so the CLI, the
    /// scale bench, and CI all generate the same corpus.
    pub tier: Option<String>,
}

pub fn parse(argv: &[String]) -> Result<Command, String> {
    let Some(sub) = argv.first() else {
        return Err("missing subcommand".into());
    };
    let rest = &argv[1..];
    match sub.as_str() {
        "analyze" => Ok(Command::Analyze(parse_run(rest)?)),
        "patch" => Ok(Command::Patch(parse_run(rest)?)),
        "annotate" => Ok(Command::Annotate(parse_run(rest)?)),
        "stats" => Ok(Command::Stats(parse_run(rest)?)),
        "explain" => Ok(Command::Explain(parse_explain(rest)?)),
        "watch" => Ok(Command::Watch(parse_watch(rest)?)),
        "serve" => Ok(Command::Serve(parse_serve(rest)?)),
        "call" => Ok(Command::Call(parse_call(rest)?)),
        "trace" => Ok(Command::Trace(parse_trace(rest)?)),
        "diff" => Ok(Command::Diff(parse_diff(rest)?)),
        "baseline" => Ok(Command::BaselineWrite(parse_baseline(rest)?)),
        "perf" => Ok(Command::Perf(parse_perf(rest)?)),
        "gen" => Ok(Command::Gen(parse_gen(rest)?)),
        "--help" | "-h" | "help" => Err("".into()),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn parse_run(argv: &[String]) -> Result<RunOpts, String> {
    let opts = parse_run_inner(argv)?;
    if opts.paths.is_empty() {
        return Err("no input paths given".into());
    }
    Ok(opts)
}

fn parse_run_inner(argv: &[String]) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        paths: Vec::new(),
        json: false,
        apply: false,
        trace_out: None,
        metrics_out: None,
        events_out: None,
        slow_files: None,
        sarif_out: None,
        baseline: None,
        fail_on: None,
        history_dir: None,
        no_history: false,
        cache_dir: None,
        no_cache: false,
        config: AnalysisConfig::default(),
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--json" => opts.json = true,
            "--apply" => opts.apply = true,
            "--cache-dir" => {
                i += 1;
                opts.cache_dir = Some(
                    argv.get(i)
                        .ok_or("--cache-dir needs a directory")?
                        .to_string(),
                );
            }
            "--no-cache" => opts.no_cache = true,
            "--trace-out" => {
                i += 1;
                opts.trace_out = Some(argv.get(i).ok_or("--trace-out needs a file")?.to_string());
            }
            "--metrics-out" => {
                i += 1;
                opts.metrics_out =
                    Some(argv.get(i).ok_or("--metrics-out needs a file")?.to_string());
            }
            "--events-out" => {
                i += 1;
                opts.events_out = Some(argv.get(i).ok_or("--events-out needs a file")?.to_string());
            }
            "--slow-files" => {
                i += 1;
                opts.slow_files = Some(num(argv.get(i), "--slow-files")? as usize);
            }
            "--sarif-out" => {
                i += 1;
                opts.sarif_out = Some(argv.get(i).ok_or("--sarif-out needs a file")?.to_string());
            }
            "--baseline" => {
                i += 1;
                opts.baseline = Some(argv.get(i).ok_or("--baseline needs a file")?.to_string());
            }
            "--fail-on" => {
                i += 1;
                let v = argv.get(i).ok_or("--fail-on needs new, any, or none")?;
                opts.fail_on = Some(FailOn::parse(v)?);
            }
            flag if flag.starts_with("--fail-on=") => {
                opts.fail_on = Some(FailOn::parse(&flag["--fail-on=".len()..])?);
            }
            "--history-dir" => {
                i += 1;
                opts.history_dir = Some(
                    argv.get(i)
                        .ok_or("--history-dir needs a directory")?
                        .to_string(),
                );
            }
            "--no-history" => opts.no_history = true,
            "--no-ipc" => opts.config.implicit_ipc = false,
            "--no-expand" => {
                opts.config.callee_expansion = false;
                opts.config.caller_expansion = false;
            }
            "--missing" => opts.config.detect_missing = true,
            "--no-outlier" => opts.config.outlier_rule = false,
            "--window-reread" => opts.config.dataflow_reread = false,
            "--write-window" => {
                i += 1;
                opts.config.write_window = num(argv.get(i), "--write-window")?;
            }
            "--read-window" => {
                i += 1;
                opts.config.read_window = num(argv.get(i), "--read-window")?;
            }
            "--ipa-depth" => {
                i += 1;
                opts.config.ipa_depth = num(argv.get(i), "--ipa-depth")?;
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown option `{flag}`"));
            }
            path => opts.paths.push(path.to_string()),
        }
        i += 1;
    }
    if opts.no_cache && opts.cache_dir.is_some() {
        return Err("--cache-dir and --no-cache are mutually exclusive".into());
    }
    if opts.no_history && opts.history_dir.is_some() {
        return Err("--history-dir and --no-history are mutually exclusive".into());
    }
    Ok(opts)
}

fn parse_diff(argv: &[String]) -> Result<DiffOpts, String> {
    let mut run = parse_run_inner(argv)?;
    if run.apply {
        return Err("--apply is not supported by diff".into());
    }
    if run.baseline.is_some() {
        // Baseline mode: analyze the given paths, compare to the file.
        if run.paths.is_empty() {
            return Err("diff --baseline requires input paths to analyze".into());
        }
        return Ok(DiffOpts {
            old: None,
            new: None,
            run,
        });
    }
    // Two-operand mode: run ids or report files.
    if run.paths.len() != 2 {
        return Err(
            "diff requires exactly two operands (ledger run ids or --json report files), \
             or --baseline FILE with input paths"
                .into(),
        );
    }
    let new = run.paths.pop();
    let old = run.paths.pop();
    Ok(DiffOpts { old, new, run })
}

fn parse_baseline(argv: &[String]) -> Result<BaselineWriteOpts, String> {
    match argv.first().map(String::as_str) {
        Some("write") => {}
        Some(other) => {
            return Err(format!(
                "unknown baseline action `{other}` (expected write)"
            ))
        }
        None => return Err("baseline requires an action (write)".into()),
    }
    // Extract `--out FILE`; everything else goes to the shared parser.
    let mut rest: Vec<String> = Vec::new();
    let mut out = "ofence-baseline.json".to_string();
    let args = &argv[1..];
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--out" {
            i += 1;
            out = args.get(i).ok_or("--out needs a file")?.to_string();
        } else {
            rest.push(args[i].clone());
        }
        i += 1;
    }
    let run = parse_run(&rest)?;
    if run.apply {
        return Err("--apply is not supported by baseline write".into());
    }
    if run.baseline.is_some() {
        return Err("--baseline is not supported by baseline write (use --out)".into());
    }
    Ok(BaselineWriteOpts { out, run })
}

fn parse_watch(argv: &[String]) -> Result<WatchOpts, String> {
    // Split off the watch-specific flags, hand the rest to `parse_run`.
    let mut rest: Vec<String> = Vec::new();
    let mut interval_ms = 500u64;
    let mut max_iterations = None;
    let mut serve_metrics = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--interval-ms" => {
                i += 1;
                interval_ms = num64(argv.get(i), "--interval-ms")?;
            }
            "--max-iterations" => {
                i += 1;
                max_iterations = Some(num64(argv.get(i), "--max-iterations")?);
            }
            "--serve-metrics" => {
                i += 1;
                serve_metrics = Some(
                    argv.get(i)
                        .ok_or("--serve-metrics needs an address (host:port)")?
                        .to_string(),
                );
            }
            other => rest.push(other.to_string()),
        }
        i += 1;
    }
    let run = parse_run(&rest)?;
    if run.apply {
        return Err("--apply is not supported in watch mode".into());
    }
    Ok(WatchOpts {
        run,
        interval_ms,
        max_iterations,
        serve_metrics,
    })
}

fn parse_serve(argv: &[String]) -> Result<ServeOpts, String> {
    // Split off the serve-specific flags, hand the rest to `parse_run`.
    let mut rest: Vec<String> = Vec::new();
    let mut addr = "127.0.0.1:0".to_string();
    let mut metrics = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => {
                i += 1;
                addr = argv
                    .get(i)
                    .ok_or("--addr needs an address (host:port)")?
                    .to_string();
            }
            "--metrics" => {
                i += 1;
                metrics = Some(
                    argv.get(i)
                        .ok_or("--metrics needs an address (host:port)")?
                        .to_string(),
                );
            }
            other => rest.push(other.to_string()),
        }
        i += 1;
    }
    let run = parse_run(&rest)?;
    if run.apply {
        return Err("--apply is not supported by serve".into());
    }
    if run.json {
        return Err("--json is not supported by serve (responses are always JSON)".into());
    }
    // Per-run files and exit policies mean nothing to a daemon serving
    // many requests: refuse them rather than drop them silently.
    let refused = [
        ("--trace-out", run.trace_out.is_some()),
        ("--metrics-out", run.metrics_out.is_some()),
        ("--sarif-out", run.sarif_out.is_some()),
        ("--baseline", run.baseline.is_some()),
        ("--fail-on", run.fail_on.is_some()),
    ];
    if let Some((flag, _)) = refused.iter().find(|(_, given)| *given) {
        return Err(format!(
            "{flag} is not supported by serve (it applies to one run; \
             use `ofence trace` or the baseline-gate method)"
        ));
    }
    Ok(ServeOpts { run, addr, metrics })
}

fn parse_call(argv: &[String]) -> Result<CallOpts, String> {
    let mut positional: Vec<String> = Vec::new();
    let mut params = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--params" => {
                i += 1;
                params = Some(
                    argv.get(i)
                        .ok_or("--params needs a JSON value")?
                        .to_string(),
                );
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown call option `{flag}`"));
            }
            other => positional.push(other.to_string()),
        }
        i += 1;
    }
    let [addr, method] = positional.as_slice() else {
        return Err("call requires exactly <host:port> and <method>".into());
    };
    Ok(CallOpts {
        addr: addr.clone(),
        method: method.clone(),
        params,
    })
}

fn parse_trace(argv: &[String]) -> Result<TraceOpts, String> {
    let mut positional: Vec<String> = Vec::new();
    let mut json = false;
    for arg in argv {
        match arg.as_str() {
            "--json" => json = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown trace option `{flag}`"));
            }
            other => positional.push(other.to_string()),
        }
    }
    let [addr, request_id] = positional.as_slice() else {
        return Err("trace requires exactly <host:port> and <request-id>".into());
    };
    Ok(TraceOpts {
        addr: addr.clone(),
        request_id: request_id.clone(),
        json,
    })
}

fn parse_perf(argv: &[String]) -> Result<PerfOpts, String> {
    let mut opts = PerfOpts {
        ledger: None,
        history_dir: None,
        last: 10,
        gate: false,
        max_regress_pct: 10.0,
        requests: false,
        json: false,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--ledger" => {
                i += 1;
                opts.ledger = Some(argv.get(i).ok_or("--ledger needs a file")?.to_string());
            }
            "--history-dir" => {
                i += 1;
                opts.history_dir = Some(
                    argv.get(i)
                        .ok_or("--history-dir needs a directory")?
                        .to_string(),
                );
            }
            "--last" => {
                i += 1;
                opts.last = num(argv.get(i), "--last")? as usize;
            }
            "--gate" => opts.gate = true,
            "--max-regress-pct" => {
                i += 1;
                let v = argv.get(i).ok_or("--max-regress-pct needs a number")?;
                opts.max_regress_pct = v
                    .parse()
                    .map_err(|_| "--max-regress-pct needs a number".to_string())?;
            }
            "--requests" => opts.requests = true,
            "--json" => opts.json = true,
            other => return Err(format!("unknown perf option `{other}`")),
        }
        i += 1;
    }
    if opts.ledger.is_some() && opts.history_dir.is_some() {
        return Err("--ledger and --history-dir are mutually exclusive".into());
    }
    if opts.requests && opts.gate {
        return Err("--requests and --gate are mutually exclusive".into());
    }
    Ok(opts)
}

fn parse_explain(argv: &[String]) -> Result<ExplainOpts, String> {
    let Some(target) = argv.first() else {
        return Err("explain requires a <file:line> target".into());
    };
    let Some((file, line)) = target.rsplit_once(':') else {
        return Err(format!("`{target}` is not a <file:line> target"));
    };
    let line: u32 = line
        .parse()
        .map_err(|_| format!("`{target}` is not a <file:line> target"))?;
    let run = parse_run(&argv[1..])?;
    Ok(ExplainOpts {
        file: file.to_string(),
        line,
        run,
    })
}

fn parse_gen(argv: &[String]) -> Result<GenOpts, String> {
    let mut opts = GenOpts {
        out: String::new(),
        files: 20,
        seed: 1,
        with_bugs: false,
        chains: 0,
        chain_depth: 2,
        chain_bugs: 0,
        tier: None,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--out" => {
                i += 1;
                opts.out = argv.get(i).ok_or("--out needs a directory")?.to_string();
            }
            "--tier" => {
                i += 1;
                opts.tier = Some(argv.get(i).ok_or("--tier needs a name")?.to_string());
            }
            "--files" => {
                i += 1;
                opts.files = num(argv.get(i), "--files")? as usize;
            }
            "--seed" => {
                i += 1;
                opts.seed = num64(argv.get(i), "--seed")?;
            }
            "--bugs" => opts.with_bugs = true,
            "--chains" => {
                i += 1;
                opts.chains = num(argv.get(i), "--chains")? as usize;
            }
            "--chain-depth" => {
                i += 1;
                opts.chain_depth = num(argv.get(i), "--chain-depth")? as usize;
            }
            "--chain-bugs" => {
                i += 1;
                opts.chain_bugs = num(argv.get(i), "--chain-bugs")? as usize;
            }
            other => return Err(format!("unknown gen option `{other}`")),
        }
        i += 1;
    }
    if opts.out.is_empty() {
        return Err("gen requires --out DIR".into());
    }
    Ok(opts)
}

fn num(v: Option<&String>, flag: &str) -> Result<u32, String> {
    v.ok_or_else(|| format!("{flag} needs a number"))?
        .parse()
        .map_err(|_| format!("{flag} needs a number"))
}

fn num64(v: Option<&String>, flag: &str) -> Result<u64, String> {
    v.ok_or_else(|| format!("{flag} needs a number"))?
        .parse()
        .map_err(|_| format!("{flag} needs a number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn analyze_with_paths() {
        let cmd = parse(&argv("analyze a.c dir/")).unwrap();
        match cmd {
            Command::Analyze(o) => {
                assert_eq!(o.paths, vec!["a.c", "dir/"]);
                assert!(!o.json);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn windows_override_config() {
        let cmd = parse(&argv("stats x.c --write-window 3 --read-window 20")).unwrap();
        match cmd {
            Command::Stats(o) => {
                assert_eq!(o.config.write_window, 3);
                assert_eq!(o.config.read_window, 20);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn toggles() {
        let cmd = parse(&argv("patch x.c --apply --no-ipc --no-expand --json")).unwrap();
        match cmd {
            Command::Patch(o) => {
                assert!(o.apply && o.json);
                assert!(!o.config.implicit_ipc);
                assert!(!o.config.callee_expansion);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn missing_detector_flags() {
        let cmd = parse(&argv("analyze x.c --missing --no-outlier --window-reread")).unwrap();
        match cmd {
            Command::Analyze(o) => {
                assert!(o.config.detect_missing);
                assert!(!o.config.outlier_rule);
                assert!(!o.config.dataflow_reread);
            }
            other => panic!("{other:?}"),
        }
        // Defaults stay conservative.
        let cmd = parse(&argv("analyze x.c")).unwrap();
        match cmd {
            Command::Analyze(o) => {
                assert!(!o.config.detect_missing);
                assert!(o.config.outlier_rule);
                assert!(o.config.dataflow_reread);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn gen_options() {
        let cmd = parse(&argv("gen --out /tmp/x --files 5 --seed 9 --bugs")).unwrap();
        assert_eq!(
            cmd,
            Command::Gen(GenOpts {
                out: "/tmp/x".into(),
                files: 5,
                seed: 9,
                with_bugs: true,
                chains: 0,
                chain_depth: 2,
                chain_bugs: 0,
                tier: None,
            })
        );
        let cmd = parse(&argv("gen --out /tmp/x --tier 12k")).unwrap();
        match cmd {
            Command::Gen(o) => assert_eq!(o.tier.as_deref(), Some("12k")),
            other => panic!("{other:?}"),
        }
        let cmd = parse(&argv(
            "gen --out /tmp/x --chains 4 --chain-depth 3 --chain-bugs 1",
        ))
        .unwrap();
        match cmd {
            Command::Gen(o) => {
                assert_eq!(o.chains, 4);
                assert_eq!(o.chain_depth, 3);
                assert_eq!(o.chain_bugs, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ipa_depth_flag() {
        match parse(&argv("analyze x.c --ipa-depth 2")).unwrap() {
            Command::Analyze(o) => assert_eq!(o.config.ipa_depth, 2),
            other => panic!("{other:?}"),
        }
        // Off by default — the paper's intra-procedural pipeline.
        match parse(&argv("analyze x.c")).unwrap() {
            Command::Analyze(o) => assert_eq!(o.config.ipa_depth, 0),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("analyze x.c --ipa-depth")).is_err());
        assert!(parse(&argv("analyze x.c --ipa-depth deep")).is_err());
    }

    #[test]
    fn trace_and_metrics_outputs() {
        let cmd = parse(&argv(
            "analyze x.c --trace-out trace.json --metrics-out metrics.txt",
        ))
        .unwrap();
        match cmd {
            Command::Analyze(o) => {
                assert_eq!(o.trace_out.as_deref(), Some("trace.json"));
                assert_eq!(o.metrics_out.as_deref(), Some("metrics.txt"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn events_and_slow_files_flags() {
        let cmd = parse(&argv(
            "analyze x.c --events-out events.ndjson --slow-files 12",
        ))
        .unwrap();
        match cmd {
            Command::Analyze(o) => {
                assert_eq!(o.events_out.as_deref(), Some("events.ndjson"));
                assert_eq!(o.slow_files, Some(12));
            }
            other => panic!("{other:?}"),
        }
        // `-` streams to stdout; defaults stay off.
        match parse(&argv("analyze x.c --events-out -")).unwrap() {
            Command::Analyze(o) => {
                assert_eq!(o.events_out.as_deref(), Some("-"));
                assert_eq!(o.slow_files, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("analyze x.c --events-out")).is_err());
        assert!(parse(&argv("analyze x.c --slow-files many")).is_err());
    }

    #[test]
    fn watch_serve_metrics() {
        match parse(&argv("watch src/ --serve-metrics 127.0.0.1:0")).unwrap() {
            Command::Watch(o) => {
                assert_eq!(o.serve_metrics.as_deref(), Some("127.0.0.1:0"));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("watch src/")).unwrap() {
            Command::Watch(o) => assert_eq!(o.serve_metrics, None),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("watch src/ --serve-metrics")).is_err());
    }

    #[test]
    fn serve_options() {
        match parse(&argv(
            "serve src/ --addr 127.0.0.1:7433 --metrics 127.0.0.1:0",
        ))
        .unwrap()
        {
            Command::Serve(o) => {
                assert_eq!(o.run.paths, vec!["src/"]);
                assert_eq!(o.addr, "127.0.0.1:7433");
                assert_eq!(o.metrics.as_deref(), Some("127.0.0.1:0"));
            }
            other => panic!("{other:?}"),
        }
        // Defaults: OS-picked port, no metrics endpoint; run options
        // (cache, windows) flow through to the session.
        match parse(&argv("serve src/ --no-cache --ipa-depth 2")).unwrap() {
            Command::Serve(o) => {
                assert_eq!(o.addr, "127.0.0.1:0");
                assert_eq!(o.metrics, None);
                assert!(o.run.no_cache);
                assert_eq!(o.run.config.ipa_depth, 2);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve")).is_err()); // no paths
        assert!(parse(&argv("serve src/ --addr")).is_err());
        assert!(parse(&argv("serve src/ --apply")).is_err());
        assert!(parse(&argv("serve src/ --json")).is_err());
        // Engine-level flags flow through to the session's engine.
        match parse(&argv("serve src/ --events-out ev.ndjson --slow-files 3")).unwrap() {
            Command::Serve(o) => {
                assert_eq!(o.run.events_out.as_deref(), Some("ev.ndjson"));
                assert_eq!(o.run.slow_files, Some(3));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serve_rejects_per_run_flags() {
        for flag in [
            "--trace-out t.json",
            "--metrics-out m.txt",
            "--sarif-out f.sarif",
            "--baseline b.json",
            "--fail-on new",
            "--fail-on=none",
        ] {
            let err = parse(&argv(&format!("serve src/ {flag}"))).unwrap_err();
            let name = flag.split([' ', '=']).next().unwrap();
            assert!(err.starts_with(name), "{flag}: {err}");
            assert!(err.contains("not supported by serve"), "{flag}: {err}");
        }
    }

    #[test]
    fn call_options() {
        match parse(&argv("call 127.0.0.1:7433 analyze")).unwrap() {
            Command::Call(o) => {
                assert_eq!(o.addr, "127.0.0.1:7433");
                assert_eq!(o.method, "analyze");
                assert_eq!(o.params, None);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&[
            "call".into(),
            "127.0.0.1:7433".into(),
            "explain".into(),
            "--params".into(),
            "{\"file\": \"m.c\", \"line\": 2}".into(),
        ])
        .unwrap();
        match cmd {
            Command::Call(o) => {
                assert_eq!(o.method, "explain");
                assert_eq!(
                    o.params.as_deref(),
                    Some("{\"file\": \"m.c\", \"line\": 2}")
                );
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("call 127.0.0.1:7433")).is_err());
        assert!(parse(&argv("call 127.0.0.1:7433 ping extra")).is_err());
        assert!(parse(&argv("call 127.0.0.1:7433 ping --params")).is_err());
        assert!(parse(&argv("call 127.0.0.1:7433 ping --bogus")).is_err());
    }

    #[test]
    fn trace_options() {
        match parse(&argv("trace 127.0.0.1:7433 r000042")).unwrap() {
            Command::Trace(o) => {
                assert_eq!(o.addr, "127.0.0.1:7433");
                assert_eq!(o.request_id, "r000042");
                assert!(!o.json);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("trace 127.0.0.1:7433 ci-7 --json")).unwrap() {
            Command::Trace(o) => {
                assert_eq!(o.request_id, "ci-7");
                assert!(o.json);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("trace 127.0.0.1:7433")).is_err());
        assert!(parse(&argv("trace 127.0.0.1:7433 r1 extra")).is_err());
        assert!(parse(&argv("trace 127.0.0.1:7433 r1 --bogus")).is_err());
    }

    #[test]
    fn perf_options() {
        match parse(&argv("perf")).unwrap() {
            Command::Perf(o) => {
                assert_eq!(o.ledger, None);
                assert_eq!(o.history_dir, None);
                assert_eq!(o.last, 10);
                assert!(!o.gate && !o.json && !o.requests);
                assert_eq!(o.max_regress_pct, 10.0);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv(
            "perf --ledger p.jsonl --last 3 --gate --max-regress-pct 25 --json",
        ))
        .unwrap()
        {
            Command::Perf(o) => {
                assert_eq!(o.ledger.as_deref(), Some("p.jsonl"));
                assert_eq!(o.last, 3);
                assert!(o.gate && o.json);
                assert_eq!(o.max_regress_pct, 25.0);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("perf --history-dir .h")).unwrap() {
            Command::Perf(o) => assert_eq!(o.history_dir.as_deref(), Some(".h")),
            other => panic!("{other:?}"),
        }
        match parse(&argv("perf --requests --last 5")).unwrap() {
            Command::Perf(o) => {
                assert!(o.requests);
                assert_eq!(o.last, 5);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("perf --requests --gate")).is_err());
        assert!(parse(&argv("perf --ledger a --history-dir b")).is_err());
        assert!(parse(&argv("perf --max-regress-pct soon")).is_err());
        assert!(parse(&argv("perf stray-operand")).is_err());
    }

    #[test]
    fn explain_target() {
        let cmd = parse(&argv("explain writer.c:12 src/ --write-window 3")).unwrap();
        match cmd {
            Command::Explain(o) => {
                assert_eq!(o.file, "writer.c");
                assert_eq!(o.line, 12);
                assert_eq!(o.run.paths, vec!["src/"]);
                assert_eq!(o.run.config.write_window, 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cache_flags() {
        let cmd = parse(&argv("analyze x.c --cache-dir /tmp/c")).unwrap();
        match cmd {
            Command::Analyze(o) => {
                assert_eq!(o.cache_dir.as_deref(), Some("/tmp/c"));
                assert!(!o.no_cache);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&argv("stats x.c --no-cache")).unwrap();
        match cmd {
            Command::Stats(o) => assert!(o.no_cache && o.cache_dir.is_none()),
            other => panic!("{other:?}"),
        }
        let err = parse(&argv("analyze x.c --cache-dir d --no-cache")).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn watch_options() {
        let cmd = parse(&argv(
            "watch src/ --interval-ms 50 --max-iterations 3 --no-cache --missing",
        ))
        .unwrap();
        match cmd {
            Command::Watch(o) => {
                assert_eq!(o.run.paths, vec!["src/"]);
                assert_eq!(o.interval_ms, 50);
                assert_eq!(o.max_iterations, Some(3));
                assert!(o.run.no_cache);
                assert!(o.run.config.detect_missing);
            }
            other => panic!("{other:?}"),
        }
        // Defaults.
        let cmd = parse(&argv("watch src/")).unwrap();
        match cmd {
            Command::Watch(o) => {
                assert_eq!(o.interval_ms, 500);
                assert_eq!(o.max_iterations, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert!(parse(&argv("")).is_err());
        assert!(parse(&argv("bogus")).is_err());
        assert!(parse(&argv("analyze")).is_err());
        assert!(parse(&argv("analyze x.c --write-window")).is_err());
        assert!(parse(&argv("analyze x.c --trace-out")).is_err());
        assert!(parse(&argv("analyze x.c --cache-dir")).is_err());
        assert!(parse(&argv("gen --files 3")).is_err());
        assert!(parse(&argv("explain")).is_err());
        assert!(parse(&argv("explain not-a-target x.c")).is_err());
        assert!(parse(&argv("explain f.c:12")).is_err()); // no paths
        assert!(parse(&argv("watch")).is_err()); // no paths
        assert!(parse(&argv("watch d --interval-ms")).is_err());
        assert!(parse(&argv("watch d --apply")).is_err());
    }

    #[test]
    fn triage_flags() {
        let cmd = parse(&argv(
            "analyze x.c --sarif-out out.sarif --baseline base.json --fail-on new",
        ))
        .unwrap();
        match cmd {
            Command::Analyze(o) => {
                assert_eq!(o.sarif_out.as_deref(), Some("out.sarif"));
                assert_eq!(o.baseline.as_deref(), Some("base.json"));
                assert_eq!(o.fail_on, Some(FailOn::New));
            }
            other => panic!("{other:?}"),
        }
        // `--fail-on=new` form and the other policies.
        for (flag, want) in [
            ("--fail-on=new", FailOn::New),
            ("--fail-on=any", FailOn::Any),
            ("--fail-on=none", FailOn::None),
        ] {
            match parse(&argv(&format!("analyze x.c {flag}"))).unwrap() {
                Command::Analyze(o) => assert_eq!(o.fail_on, Some(want)),
                other => panic!("{other:?}"),
            }
        }
        assert!(parse(&argv("analyze x.c --fail-on sometimes")).is_err());
        assert!(parse(&argv("analyze x.c --fail-on")).is_err());
        assert!(parse(&argv("analyze x.c --sarif-out")).is_err());
    }

    #[test]
    fn history_flags() {
        match parse(&argv("analyze x.c --history-dir /tmp/h")).unwrap() {
            Command::Analyze(o) => {
                assert_eq!(o.history_dir.as_deref(), Some("/tmp/h"));
                assert!(!o.no_history);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("analyze x.c --no-history")).unwrap() {
            Command::Analyze(o) => assert!(o.no_history && o.history_dir.is_none()),
            other => panic!("{other:?}"),
        }
        let err = parse(&argv("analyze x.c --history-dir d --no-history")).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn diff_two_operands() {
        match parse(&argv("diff old.json new.json --json")).unwrap() {
            Command::Diff(o) => {
                assert_eq!(o.old.as_deref(), Some("old.json"));
                assert_eq!(o.new.as_deref(), Some("new.json"));
                assert!(o.run.json);
                assert!(o.run.paths.is_empty());
            }
            other => panic!("{other:?}"),
        }
        // Run ids work the same way syntactically.
        match parse(&argv("diff run-0011 run-0022 --history-dir .h")).unwrap() {
            Command::Diff(o) => {
                assert_eq!(o.old.as_deref(), Some("run-0011"));
                assert_eq!(o.run.history_dir.as_deref(), Some(".h"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("diff only-one")).is_err());
        assert!(parse(&argv("diff a b c")).is_err());
        assert!(parse(&argv("diff")).is_err());
        assert!(parse(&argv("diff a b --apply")).is_err());
    }

    #[test]
    fn diff_baseline_mode() {
        match parse(&argv("diff --baseline base.json src/ --missing")).unwrap() {
            Command::Diff(o) => {
                assert_eq!(o.old, None);
                assert_eq!(o.new, None);
                assert_eq!(o.run.baseline.as_deref(), Some("base.json"));
                assert_eq!(o.run.paths, vec!["src/"]);
                assert!(o.run.config.detect_missing);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("diff --baseline base.json")).is_err()); // no paths
    }

    #[test]
    fn baseline_write_options() {
        match parse(&argv("baseline write src/ --out known.json --missing")).unwrap() {
            Command::BaselineWrite(o) => {
                assert_eq!(o.out, "known.json");
                assert_eq!(o.run.paths, vec!["src/"]);
                assert!(o.run.config.detect_missing);
            }
            other => panic!("{other:?}"),
        }
        // Default output file.
        match parse(&argv("baseline write src/")).unwrap() {
            Command::BaselineWrite(o) => assert_eq!(o.out, "ofence-baseline.json"),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("baseline")).is_err());
        assert!(parse(&argv("baseline erase src/")).is_err());
        assert!(parse(&argv("baseline write")).is_err()); // no paths
        assert!(parse(&argv("baseline write src/ --out")).is_err());
        assert!(parse(&argv("baseline write src/ --baseline b.json")).is_err());
    }
}
