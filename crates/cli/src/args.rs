//! Argument parsing: one table of the flags each subcommand reads, read
//! through the shared [`ofence::flags`] parser.

use ofence::flags::{self, Args};
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
  ofence diff     <old> <new> [--json] [--fail-on new|any|none]
                  [--history-dir DIR | --no-history]
  ofence diff     --baseline FILE <paths...> [--json] [window options]
  ofence baseline write <paths...> [--out FILE] [window options]
  ofence perf     [--ledger FILE] [--history-dir DIR] [--last N]
                  [--gate] [--max-regress-pct P] [--requests] [--json]
  ofence gen      --out DIR [--files N | --tier 1200|12k|100k] [--seed S]
                  [--bugs] [--chains N] [--chain-depth D] [--chain-bugs B]

A valued flag also takes the `--flag=value` spelling (`--fail-on=new`);
an argument that starts with `--` is never a flag's value. A subcommand
rejects any flag it does not use (`analyze --apply`, `watch --json`).

output options:
  --trace-out FILE   write a Chrome-tracing JSON trace of the run
  --metrics-out FILE write Prometheus text-format metrics of the run
  --events-out FILE  stream span/counter events as NDJSON while the
                     analysis runs (`-` for stdout)
  --sarif-out FILE   write findings as SARIF 2.1.0 with stable
                     fingerprints in partialFingerprints (analyze, diff)
  --slow-files N     list the top N slowest files in stats output
                     (default 5)

triage options:
  --baseline FILE    compare findings against this baseline; known
                     findings are reported as baselined (analyze, diff,
                     watch)
  --fail-on POLICY   exit non-zero on: new (findings not in the
                     baseline), any (default; any finding), none
                     (analyze, diff)
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
`analyze --json` report files, and no analysis flag applies; with
`--baseline FILE` the given paths are analyzed and compared against the
baseline instead.

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

/// The valued flags and switches every analysis subcommand reads: the
/// engine, window, cache and ledger options.
#[rustfmt::skip]
const RUN_FLAGS: &[&str] = &[
    "--write-window", "--read-window", "--ipa-depth", "--slow-files", "--events-out",
    "--cache-dir", "--history-dir",
];
#[rustfmt::skip]
const RUN_SWITCHES: &[&str] = &[
    "--no-ipc", "--no-expand", "--missing", "--no-outlier", "--window-reread", "--no-cache",
    "--no-history",
];

/// The one flag table: per subcommand, whether it analyzes (and so also
/// reads [`RUN_FLAGS`] and [`RUN_SWITCHES`]), then the other valued flags
/// and switches it reads. A flag outside its row is refused.
type Flags = &'static [&'static str];
type Row = (&'static str, bool, Flags, Flags);
#[rustfmt::skip]
const SUBCOMMANDS: &[Row] = &[
    ("analyze", true, &["--trace-out", "--metrics-out", "--sarif-out", "--baseline", "--fail-on"],
        &["--json"]),
    ("patch", true, &["--trace-out", "--metrics-out"], &["--json", "--apply"]),
    ("annotate", true, &["--trace-out", "--metrics-out"], &["--json", "--apply"]),
    ("stats", true, &["--trace-out", "--metrics-out"], &["--json"]),
    ("explain", true, &["--trace-out", "--metrics-out"], &["--json"]),
    ("watch", true, &["--trace-out", "--metrics-out", "--baseline", "--interval-ms",
        "--max-iterations", "--serve-metrics"], &[]),
    ("serve", true, &["--addr", "--metrics"], &[]),
    ("diff", true, &["--trace-out", "--metrics-out", "--sarif-out", "--baseline", "--fail-on"],
        &["--json"]),
    ("baseline", true, &["--trace-out", "--metrics-out", "--out"], &[]),
    ("call", false, &["--params"], &[]),
    ("trace", false, &[], &["--json"]),
    ("perf", false, &["--ledger", "--history-dir", "--last", "--max-regress-pct"],
        &["--gate", "--requests", "--json"]),
    ("gen", false, &["--out", "--tier", "--files", "--seed", "--chains", "--chain-depth",
        "--chain-bugs"], &["--bugs"]),
];

pub fn parse(argv: &[String]) -> Result<Command, String> {
    let Some(sub) = argv.first() else {
        return Err("missing subcommand".into());
    };
    if matches!(sub.as_str(), "--help" | "-h" | "help") {
        return Err(String::new());
    }
    let Some(&(sub, runs, valued, switches)) = SUBCOMMANDS.iter().find(|row| row.0 == sub) else {
        return Err(format!("unknown subcommand `{sub}`"));
    };
    // Parse against every flag `ofence` knows, so one that another
    // subcommand reads is refused by name rather than as unknown.
    let (mut all_valued, mut all_switches) = (RUN_FLAGS.to_vec(), RUN_SWITCHES.to_vec());
    for row in SUBCOMMANDS {
        all_valued.extend(row.2);
        all_switches.extend(row.3);
    }
    let a = flags::parse_args(&argv[1..], &all_valued, &all_switches, None)?;
    let reads = |f: &str| {
        [valued, switches].concat().contains(&f)
            || runs && [RUN_FLAGS, RUN_SWITCHES].concat().contains(&f)
    };
    if let Some(flag) = a.flags().find(|f| !reads(f)) {
        return Err(format!("{flag} is not supported by {sub}"));
    }
    let words = &a.words;
    Ok(match sub {
        "analyze" => Command::Analyze(run_opts(&a, paths(words)?)?),
        "patch" => Command::Patch(run_opts(&a, paths(words)?)?),
        "annotate" => Command::Annotate(run_opts(&a, paths(words)?)?),
        "stats" => Command::Stats(run_opts(&a, paths(words)?)?),
        "explain" => {
            let Some(target) = words.first() else {
                return Err("explain requires a <file:line> target".into());
            };
            let not_target = || format!("`{target}` is not a <file:line> target");
            let (file, line) = target.rsplit_once(':').ok_or_else(not_target)?;
            Command::Explain(ExplainOpts {
                file: file.to_string(),
                line: line.parse().map_err(|_| not_target())?,
                run: run_opts(&a, paths(&words[1..])?)?,
            })
        }
        "watch" => Command::Watch(WatchOpts {
            run: run_opts(&a, paths(words)?)?,
            interval_ms: a.parsed("--interval-ms", 500)?,
            max_iterations: a.get("--max-iterations")?,
            serve_metrics: a.value("--serve-metrics").map(str::to_string),
        }),
        "serve" => Command::Serve(ServeOpts {
            run: run_opts(&a, paths(words)?)?,
            addr: a.value("--addr").unwrap_or("127.0.0.1:0").to_string(),
            metrics: a.value("--metrics").map(str::to_string),
        }),
        "diff" if a.value("--baseline").is_some() => {
            // Baseline mode: analyze the given paths, compare to the file.
            if words.is_empty() {
                return Err("diff --baseline requires input paths to analyze".into());
            }
            Command::Diff(DiffOpts {
                old: None,
                new: None,
                run: run_opts(&a, words.clone())?,
            })
        }
        "diff" => {
            // Two-operand mode: run ids or report files. It compares
            // recorded findings, so it reads no analysis flag.
            const READS: &[&str] = &["--json", "--fail-on", "--history-dir", "--no-history"];
            if let Some(flag) = a.flags().find(|f| !READS.contains(f)) {
                return Err(format!("{flag} is not supported by diff OLD NEW"));
            }
            let [old, new] = words.as_slice() else {
                return Err(
                    "diff requires exactly two operands (ledger run ids or --json report files), \
                     or --baseline FILE with input paths"
                        .into(),
                );
            };
            Command::Diff(DiffOpts {
                old: Some(old.clone()),
                new: Some(new.clone()),
                run: run_opts(&a, Vec::new())?,
            })
        }
        "baseline" => {
            match words.first().map(String::as_str) {
                Some("write") => {}
                Some(other) => {
                    return Err(format!(
                        "unknown baseline action `{other}` (expected write)"
                    ))
                }
                None => return Err("baseline requires an action (write)".into()),
            }
            Command::BaselineWrite(BaselineWriteOpts {
                out: a
                    .value("--out")
                    .unwrap_or("ofence-baseline.json")
                    .to_string(),
                run: run_opts(&a, paths(&words[1..])?)?,
            })
        }
        "call" => {
            let [addr, method] = words.as_slice() else {
                return Err("call requires exactly <host:port> and <method>".into());
            };
            Command::Call(CallOpts {
                addr: addr.clone(),
                method: method.clone(),
                params: a.value("--params").map(str::to_string),
            })
        }
        "trace" => {
            let [addr, request_id] = words.as_slice() else {
                return Err("trace requires exactly <host:port> and <request-id>".into());
            };
            Command::Trace(TraceOpts {
                addr: addr.clone(),
                request_id: request_id.clone(),
                json: a.has("--json"),
            })
        }
        "perf" => {
            no_words(words)?;
            let opts = PerfOpts {
                ledger: a.value("--ledger").map(str::to_string),
                history_dir: a.value("--history-dir").map(str::to_string),
                last: a.parsed("--last", 10)?,
                gate: a.has("--gate"),
                max_regress_pct: a.parsed("--max-regress-pct", 10.0)?,
                requests: a.has("--requests"),
                json: a.has("--json"),
            };
            if opts.ledger.is_some() && opts.history_dir.is_some() {
                return Err("--ledger and --history-dir are mutually exclusive".into());
            }
            if opts.requests && opts.gate {
                return Err("--requests and --gate are mutually exclusive".into());
            }
            Command::Perf(opts)
        }
        "gen" => {
            no_words(words)?;
            Command::Gen(GenOpts {
                out: a
                    .value("--out")
                    .ok_or("gen requires --out DIR")?
                    .to_string(),
                files: a.parsed("--files", 20)?,
                seed: a.parsed("--seed", 1)?,
                with_bugs: a.has("--bugs"),
                chains: a.parsed("--chains", 0)?,
                chain_depth: a.parsed("--chain-depth", 2)?,
                chain_bugs: a.parsed("--chain-bugs", 0)?,
                tier: a.value("--tier").map(str::to_string),
            })
        }
        _ => unreachable!("every subcommand in the table has an arm"),
    })
}

/// The input paths of an analysis subcommand: at least one.
fn paths(words: &[String]) -> Result<Vec<String>, String> {
    if words.is_empty() {
        return Err("no input paths given".into());
    }
    Ok(words.to_vec())
}

fn no_words(words: &[String]) -> Result<(), String> {
    match words.first() {
        Some(word) => Err(format!("unexpected argument `{word}`")),
        None => Ok(()),
    }
}

/// The options every analysis subcommand shares, read from `a`.
fn run_opts(a: &Args, paths: Vec<String>) -> Result<RunOpts, String> {
    let d = AnalysisConfig::default();
    let opts = RunOpts {
        paths,
        json: a.has("--json"),
        apply: a.has("--apply"),
        trace_out: a.value("--trace-out").map(str::to_string),
        metrics_out: a.value("--metrics-out").map(str::to_string),
        events_out: a.value("--events-out").map(str::to_string),
        slow_files: a.get("--slow-files")?,
        sarif_out: a.value("--sarif-out").map(str::to_string),
        baseline: a.value("--baseline").map(str::to_string),
        fail_on: a.value("--fail-on").map(FailOn::parse).transpose()?,
        history_dir: a.value("--history-dir").map(str::to_string),
        no_history: a.has("--no-history"),
        cache_dir: a.value("--cache-dir").map(str::to_string),
        no_cache: a.has("--no-cache"),
        config: AnalysisConfig {
            write_window: a.parsed("--write-window", d.write_window)?,
            read_window: a.parsed("--read-window", d.read_window)?,
            ipa_depth: a.parsed("--ipa-depth", d.ipa_depth)?,
            implicit_ipc: d.implicit_ipc && !a.has("--no-ipc"),
            callee_expansion: d.callee_expansion && !a.has("--no-expand"),
            caller_expansion: d.caller_expansion && !a.has("--no-expand"),
            detect_missing: d.detect_missing || a.has("--missing"),
            outlier_rule: d.outlier_rule && !a.has("--no-outlier"),
            dataflow_reread: d.dataflow_reread && !a.has("--window-reread"),
            ..d
        },
    };
    if opts.no_cache && opts.cache_dir.is_some() {
        return Err("--cache-dir and --no-cache are mutually exclusive".into());
    }
    if opts.no_history && opts.history_dir.is_some() {
        return Err("--history-dir and --no-history are mutually exclusive".into());
    }
    Ok(opts)
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
    fn diff_of_two_operands_refuses_analysis_flags() {
        for flag in [
            "--sarif-out x.sarif",
            "--missing",
            "--ipa-depth 2",
            "--cache-dir /tmp/c",
            "--trace-out t.json",
            "--no-cache",
        ] {
            let err = parse(&argv(&format!("diff a.json b.json {flag}"))).unwrap_err();
            let name = flag.split(' ').next().unwrap();
            assert_eq!(err, format!("{name} is not supported by diff OLD NEW"));
        }
        for ok in ["--json --fail-on=any --history-dir h", "--no-history"] {
            assert!(
                parse(&argv(&format!("diff a.json b.json {ok}"))).is_ok(),
                "{ok}"
            );
        }
    }

    #[test]
    fn valued_flag_never_takes_a_flag_as_its_value() {
        for line in [
            "analyze x.c --trace-out --json",
            "analyze x.c --cache-dir --no-cache",
            "analyze x.c --history-dir --no-history",
        ] {
            let err = parse(&argv(line)).unwrap_err();
            assert!(err.contains("needs a value"), "{line}: {err}");
        }
    }

    #[test]
    fn flags_a_subcommand_does_not_read_are_refused() {
        for (line, flag, sub) in [
            ("analyze x.c --apply", "--apply", "analyze"),
            ("stats x.c --sarif-out f", "--sarif-out", "stats"),
            ("watch d --json", "--json", "watch"),
            ("explain f.c:1 x.c --fail-on=new", "--fail-on", "explain"),
            ("baseline write d --json", "--json", "baseline"),
        ] {
            let err = parse(&argv(line)).unwrap_err();
            assert_eq!(err, format!("{flag} is not supported by {sub}"), "{line}");
        }
        let err = parse(&argv("analyze x.c --bogus")).unwrap_err();
        assert!(err.contains("unknown argument `--bogus`"), "{err}");
    }

    #[test]
    fn equals_spelling() {
        match parse(&argv(
            "analyze x.c --cache-dir=/tmp/c --fail-on=new --ipa-depth=2",
        ))
        .unwrap()
        {
            Command::Analyze(o) => {
                assert_eq!(o.cache_dir.as_deref(), Some("/tmp/c"));
                assert_eq!(o.fail_on, Some(FailOn::New));
                assert_eq!(o.config.ipa_depth, 2);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("analyze x.c --json=yes")).is_err());
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
