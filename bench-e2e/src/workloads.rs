//! The four workloads. Each is a closed loop — a CLI user or an editor
//! plugin waits for every answer before asking again — run for a fixed
//! wall time against the real `ofence` binary:
//!
//! * `cli-cold-12k` — whole-tree `analyze --json` with an empty cache:
//!   the paper's headline run, dominated by parse and extract;
//! * `cli-edit-12k` — edit one file, re-run `analyze` on the warm disk
//!   cache: a developer's re-run, dominated by cache load/save and walk;
//! * `serve-edit-12k` — edit, then one `analyze` request to a warm
//!   `ofence serve`: the per-request O(repo) costs of the daemon;
//! * `serve-mix-1200` — two clients cycling analyze / explain / status
//!   while files are saved every 300 ms, the traffic of
//!   `ci/serve-soak.sh`: coalescing, engine-lock waits and fixed
//!   per-request costs.

use crate::client::{check_reply, check_report, Client, Op};
use crate::corpus::{Reference, Tree, WorkDir};
use crate::metrics::Report;
use crate::procs::{run_cli, CliRun, Daemon};
use crate::replay::Style;
use crate::stats::{median, tail};
use ofence::AnalysisConfig;
use std::time::{Duration, Instant};

pub const WORKLOADS: &[&str] = &[
    "cli-cold-12k",
    "cli-edit-12k",
    "serve-edit-12k",
    "serve-mix-1200",
];

/// Set-up is repeated at least `SETUPS` times, and more, up to
/// `MAX_SETUPS`, until the repetitions took `SETUP_SECONDS` in all;
/// `setup_s` is their median. A set-up shorter than a CLI cold run (a
/// daemon start) so gets a steadier median.
const SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_SECONDS: f64 = 4.0;
/// Timed operations run even when one takes longer than the budget.
pub const MIN_OPS: usize = 3;
/// Untimed requests to a fresh daemon before the timed phase.
const WARMUPS: usize = 1;
/// The `serve-mix` traffic is the one daemon mix the repository records,
/// `ci/serve-soak.sh`'s: client `n` cycles these methods starting at the
/// `n`th, and a file is saved every `MIX_EDIT_PERIOD` (here by client 0,
/// between its requests). The proportions are the soak's; none were
/// measured from real editor traffic.
const MIX_CYCLE: [Op; 3] = [Op::Analyze, Op::Explain, Op::Status];
const MIX_EDIT_PERIOD: Duration = Duration::from_millis(300);
/// Request traces fetched per client in a traced serve run: the daemon
/// keeps only its 32 most recent traced requests, and the two clients'
/// last ones interleave.
const TRACES_PER_CLIENT: usize = 12;

pub struct Params {
    pub seed: u64,
    /// Timed-phase budget; each client still makes `min_ops` operations.
    pub seconds: f64,
    pub min_ops: usize,
    pub trace: bool,
}

/// One timed operation as the user saw it.
#[derive(Clone, Copy)]
struct Sample {
    start: Instant,
    latency: Duration,
    ttfb: Duration,
    transfer: Duration,
    bytes: usize,
    ok: bool,
}

impl Sample {
    /// An operation that got no answer (stuck, disconnected, refused).
    fn failed(start: Instant) -> Sample {
        Sample {
            start,
            latency: start.elapsed(),
            ttfb: start.elapsed(),
            transfer: Duration::ZERO,
            bytes: 0,
            ok: false,
        }
    }
}

/// Everything one workload run owns. Field order is drop order: the
/// daemon (if any) dies before its scratch directory is removed.
struct Run {
    daemon: Option<Daemon>,
    work: WorkDir,
    tree: Tree,
    reference: Reference,
    config: AnalysisConfig,
    report: Report,
}

impl Run {
    /// Write the corpus and compute its reference.
    fn new(name: &str, spec: &ofence_corpus::CorpusSpec) -> Result<Run, String> {
        let work = WorkDir::create(name).map_err(|e| format!("work dir: {e}"))?;
        let tree =
            Tree::write(spec, &work.join("corpus")).map_err(|e| format!("write corpus: {e}"))?;
        let config = AnalysisConfig::default();
        let reference = Reference::compute(&tree, &config)?;
        let mut report = Report::new(name);
        report.problems.extend(reference.floor_problem());
        report.note("files", tree.files);
        report.note("findings", reference.fingerprints.len());
        Ok(Run {
            daemon: None,
            work,
            tree,
            reference,
            config,
            report,
        })
    }

    /// The traced run (after the timed one, on the same state).
    fn replay(&mut self, style: Style) -> Result<(), String> {
        let (cache, history) = (self.cache(), self.history());
        crate::replay::replay(
            style,
            &mut self.tree,
            &cache,
            &history,
            &self.config,
            &self.reference,
            &mut self.report,
        )
    }

    fn cache(&self) -> std::path::PathBuf {
        self.work.join("cache")
    }

    fn history(&self) -> std::path::PathBuf {
        self.work.join("history")
    }

    /// Empty the cache and ledger directories (a first-ever run).
    fn reset_state(&self) {
        let _ = std::fs::remove_dir_all(self.cache());
        let _ = std::fs::remove_dir_all(self.history());
    }

    fn analyze_cli(&self) -> Result<CliRun, String> {
        let (cache, history) = (self.cache(), self.history());
        run_cli(&[
            "analyze",
            &self.tree.dir,
            "--json",
            "--cache-dir",
            &cache.display().to_string(),
            "--history-dir",
            &history.display().to_string(),
        ])
        .map_err(|e| format!("run ofence analyze: {e}"))
    }

    /// Judge a CLI run: exit 0 or 1 (1 = findings exist), not stuck, and
    /// the report's findings match the reference.
    fn check_cli(&self, run: &CliRun) -> Result<serde_json::Value, String> {
        match run.code {
            Some(0 | 1) => {}
            _ if run.stuck => return Err("analyze stuck".into()),
            other => return Err(format!("analyze exited with {other:?}")),
        }
        let doc: serde_json::Value = serde_json::from_slice(&run.stdout)
            .map_err(|e| format!("analyze output is not JSON: {e}"))?;
        check_report(&doc, &self.reference)?;
        Ok(doc)
    }

    /// A cold CLI run that primes the disk cache; records the pool size
    /// it used and the tool version from the ledger it wrote.
    fn prime(&mut self) -> Result<Duration, String> {
        self.reset_state();
        let run = self.analyze_cli()?;
        let doc = self.check_cli(&run)?;
        self.report.note(
            "pool_workers",
            doc["observability"]["counters"]["workers"].clone(),
        );
        if let Ok((records, _)) = ofence::history::load(&self.history()) {
            if let Some(last) = records.last() {
                self.report.note("tool_version", last.tool_version.clone());
            }
        }
        Ok(run.latency)
    }
}

pub fn run(name: &str, p: &Params) -> Result<Report, String> {
    let tier = if name.ends_with("-12k") {
        "12k"
    } else {
        "1200"
    };
    let mut run = Run::new(name, &crate::corpus::spec(tier, p.seed))?;
    match name {
        "cli-cold-12k" => cli(&mut run, p, false)?,
        "cli-edit-12k" => cli(&mut run, p, true)?,
        "serve-edit-12k" => serve(&mut run, p, 1)?,
        "serve-mix-1200" => serve(&mut run, p, 2)?,
        other => return Err(format!("unknown workload `{other}`")),
    }
    if p.trace {
        run.replay(match name {
            "cli-cold-12k" => Style::Cli { cold: true },
            "cli-edit-12k" => Style::Cli { cold: false },
            _ => Style::Serve,
        })?;
    }
    Ok(std::mem::take(&mut run.report))
}

/// Fold the timed samples into the end-to-end metrics.
fn summarize(report: &mut Report, samples: &[Sample], setup: &[Duration], peak_rss_mb: f64) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let latencies: Vec<f64> = samples.iter().map(|s| ms(s.latency)).collect();
    let failed = samples.iter().filter(|s| !s.ok).count();
    report.attempted += samples.len();
    report.failed += failed;
    report.set("latency_p50_ms", median(&latencies));
    // With 20 samples or fewer the rule lands at or below the median,
    // which is no tail: report none rather than a misleading one.
    if let Some((p, v)) = tail(&latencies).filter(|(p, _)| *p > 50.0) {
        report.set("latency_tail_ms", v);
        report.note("tail_percentile", p);
    }
    report.note("samples", samples.len());
    let first = samples.iter().map(|s| s.start).min();
    let last = samples.iter().map(|s| s.start + s.latency).max();
    if let (Some(first), Some(last)) = (first, last) {
        report.set(
            "ops_per_s",
            samples.len() as f64 / (last - first).as_secs_f64(),
        );
    }
    report.set("error_rate", failed as f64 / samples.len().max(1) as f64);
    report.set("peak_rss_mb", peak_rss_mb);
    let setup: Vec<f64> = setup.iter().map(Duration::as_secs_f64).collect();
    report.set("setup_s", median(&setup));
    report.note("setups", setup.len());
    report.set(
        "reply.ttfb_ms",
        median(&samples.iter().map(|s| ms(s.ttfb)).collect::<Vec<_>>()),
    );
    report.set(
        "reply.transfer_ms",
        median(&samples.iter().map(|s| ms(s.transfer)).collect::<Vec<_>>()),
    );
    report.set(
        "reply.bytes",
        median(&samples.iter().map(|s| s.bytes as f64).collect::<Vec<_>>()),
    );
}

fn enough_setups(done: &[Duration]) -> bool {
    done.len() >= MAX_SETUPS
        || (done.len() >= SETUPS && done.iter().sum::<Duration>().as_secs_f64() >= SETUP_SECONDS)
}

/// `cli-cold-12k` (`edit` false) and `cli-edit-12k` (`edit` true).
/// Set-up is the cold priming run that fills the disk cache.
fn cli(run: &mut Run, p: &Params, edit: bool) -> Result<(), String> {
    let mut setup = Vec::new();
    while !enough_setups(&setup) {
        setup.push(run.prime()?);
    }
    let mut samples = Vec::new();
    let mut peak_kb = 0;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < p.seconds || samples.len() < p.min_ops {
        if edit {
            run.tree.edit().map_err(|e| format!("edit: {e}"))?;
        } else {
            run.reset_state();
        }
        let start = Instant::now();
        let out = run.analyze_cli()?;
        let ok = run.check_cli(&out);
        if let Err(e) = &ok {
            eprintln!("{}: {e}", run.report.workload);
        }
        peak_kb = peak_kb.max(out.peak_rss_kb);
        samples.push(Sample {
            start,
            latency: out.latency,
            ttfb: out.ttfb,
            transfer: out.transfer,
            bytes: out.stdout.len(),
            ok: ok.is_ok(),
        });
    }
    summarize(&mut run.report, &samples, &setup, peak_kb as f64 / 1024.0);
    let p50_s = run.report.values["latency_p50_ms"] / 1e3;
    run.report.set("files_per_s", run.tree.files as f64 / p50_s);
    Ok(())
}

/// Start a daemon over the primed cache and wait for a `ping` answer:
/// one set-up, timed from spawn.
fn start_daemon(run: &Run) -> Result<(Daemon, Duration), String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(&run.tree.dir, &run.cache(), &run.history())?;
    let mut client = Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let pong = client
        .call(&serde_json::json!({"id": 0, "method": "ping"}))
        .map_err(|e| format!("ping: {e}"))?;
    let elapsed = t0.elapsed();
    let doc: serde_json::Value = serde_json::from_slice(&pong.line).unwrap_or_default();
    if doc["result"]["pong"] != true {
        return Err(format!("ping answered {doc}"));
    }
    Ok((daemon, elapsed))
}

/// `serve-edit-12k` (one client, an edit before every request) and
/// `serve-mix-1200` (two clients, [`MIX_CYCLE`]). Set-up is a daemon
/// start over the primed cache, until `ping` answers.
fn serve(run: &mut Run, p: &Params, clients: usize) -> Result<(), String> {
    run.prime()?;
    let mut setup = Vec::new();
    let daemon = loop {
        let (daemon, elapsed) = start_daemon(run)?;
        setup.push(elapsed);
        if enough_setups(&setup) {
            break daemon;
        }
        daemon.shutdown();
    };
    run.daemon = Some(daemon);
    let addr = run.daemon.as_ref().expect("daemon started").addr.clone();
    let samples = drive(run, p, &addr, clients)?;
    let daemon = run.daemon.take().expect("daemon started");
    let peak = daemon.peak_rss_mb().unwrap_or(f64::NAN);
    daemon.shutdown();
    summarize(&mut run.report, &samples, &setup, peak);
    Ok(())
}

/// Everything a serve workload sends to a listening daemon: warm-up
/// requests, the timed phase, and in a traced run the daemon's own
/// counters and request traces around it.
fn drive(run: &mut Run, p: &Params, addr: &str, clients: usize) -> Result<Vec<Sample>, String> {
    let mut warm = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for i in 0..WARMUPS {
        run.tree.edit().map_err(|e| format!("edit: {e}"))?;
        let reply = warm
            .call(&Op::Analyze.request(i as u64, &format!("warmup-{i}"), &run.reference))
            .map_err(|e| format!("warm-up request: {e}"))?;
        check_reply(Op::Analyze, &reply.line, &run.reference)?;
    }
    let mut call = |req: serde_json::Value| -> serde_json::Value {
        warm.call(&req)
            .ok()
            .and_then(|r| serde_json::from_slice::<serde_json::Value>(&r.line).ok())
            .filter(|doc| doc["ok"] == true)
            .map(|doc| doc["result"].clone())
            .unwrap_or_default()
    };
    let status = serde_json::json!({"id": 0, "method": "status"});
    let before = if p.trace {
        call(status.clone())
    } else {
        serde_json::Value::Null
    };
    let per_client = timed_clients(run, p, addr, clients);
    if p.trace {
        let after = call(status);
        let ids: Vec<&String> = per_client
            .iter()
            .flat_map(|(_, ids)| &ids[ids.len().saturating_sub(TRACES_PER_CLIENT)..])
            .collect();
        run.report.note("traces_requested", ids.len());
        let traces: Vec<serde_json::Value> = ids
            .into_iter()
            .map(|id| {
                call(serde_json::json!({"id": 0, "method": "trace", "params": {"request_id": id}}))
            })
            .filter(|doc| !doc.is_null())
            .collect();
        session_metrics(&mut run.report, &before, &after, &traces);
    }
    Ok(per_client.into_iter().flat_map(|(s, _)| s).collect())
}

/// The timed phase of a serve workload: `clients` threads, one
/// connection each, until the time budget is spent. Returns each
/// client's samples and the ids of its requests the daemon traces.
fn timed_clients(
    run: &mut Run,
    p: &Params,
    addr: &str,
    clients: usize,
) -> Vec<(Vec<Sample>, Vec<String>)> {
    let reference = &run.reference;
    let tree = std::sync::Mutex::new(&mut run.tree);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let tree = &tree;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut ids = Vec::new();
                    let mut client = match Client::connect(addr) {
                        Ok(client) => client,
                        Err(e) => {
                            eprintln!("connect: {e}");
                            samples.push(Sample::failed(Instant::now()));
                            return (samples, ids);
                        }
                    };
                    let mut k = 0usize;
                    let mut next_edit = Instant::now();
                    while t0.elapsed().as_secs_f64() < p.seconds || k < p.min_ops {
                        let (op, edit) = if clients == 1 {
                            (Op::Analyze, true)
                        } else {
                            let op = MIX_CYCLE[(c + k) % MIX_CYCLE.len()];
                            (op, c == 0 && Instant::now() >= next_edit)
                        };
                        if edit {
                            next_edit = Instant::now() + MIX_EDIT_PERIOD;
                            let mut tree = tree.lock().expect("edit lock");
                            if let Err(e) = tree.edit() {
                                eprintln!("edit: {e}");
                            }
                        }
                        let id = format!("c{c}-{k}");
                        let start = Instant::now();
                        let reply = client.call(&op.request(k as u64, &id, reference));
                        // The daemon keeps no trace of a `status` request.
                        if op != Op::Status {
                            ids.push(id);
                        }
                        k += 1;
                        match reply {
                            Ok(r) => {
                                let ok = check_reply(op, &r.line, reference);
                                if let Err(e) = &ok {
                                    eprintln!("{op:?}: {e}");
                                }
                                samples.push(Sample {
                                    start,
                                    latency: r.latency,
                                    ttfb: r.ttfb,
                                    transfer: r.transfer,
                                    bytes: r.line.len(),
                                    ok: ok.is_ok(),
                                });
                            }
                            Err(e) => {
                                // Stuck or disconnected: count it and stop
                                // this client, whose stream is now unusable.
                                eprintln!("{op:?}: {e}");
                                samples.push(Sample::failed(start));
                                break;
                            }
                        }
                    }
                    (samples, ids)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// `session.*` from the daemon's own `status` counters (deltas over the
/// timed phase) and captured request traces.
fn session_metrics(
    report: &mut Report,
    before: &serde_json::Value,
    after: &serde_json::Value,
    traces: &[serde_json::Value],
) {
    let delta = |key: &str| {
        let get = |doc: &serde_json::Value| doc["counters"][key].as_f64().unwrap_or(0.0);
        get(after) - get(before)
    };
    let requests = delta("serve_requests").max(1.0);
    report.set("session.runs_per_request", delta("serve_runs") / requests);
    report.set(
        "session.coalesced_ratio",
        delta("serve_coalesced") / requests,
    );
    report.set("session.snapshot_retries", delta("serve_snapshot_retries"));
    let mut run_ms = Vec::new();
    let mut wait_ms = Vec::new();
    let mut request_ms = Vec::new();
    for t in traces {
        request_ms.push(t["latency_us"].as_f64().unwrap_or(f64::NAN) / 1e3);
        let mut stack: Vec<&serde_json::Value> = t["spans"]
            .as_array()
            .map(|a| a.iter().collect())
            .unwrap_or_default();
        let mut waited = 0.0;
        while let Some(span) = stack.pop() {
            let dur = span["dur_us"].as_f64().unwrap_or(0.0) / 1e3;
            match span["name"].as_str() {
                Some("serve_run") => run_ms.push(dur),
                Some("coalesce") => waited += dur,
                _ => {}
            }
            if let Some(children) = span["children"].as_array() {
                stack.extend(children);
            }
        }
        wait_ms.push(waited);
    }
    report.note("traces_fetched", traces.len());
    if !traces.is_empty() {
        report.set("session.request_ms", median(&request_ms));
        // Mean, not median: most requests never wait, and the mean is
        // what waiting adds to the average request.
        report.set(
            "session.coalesce_wait_ms",
            wait_ms.iter().sum::<f64>() / wait_ms.len() as f64,
        );
    }
    if !run_ms.is_empty() {
        report.set("session.run_ms", median(&run_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::metrics;
    use std::sync::Arc;

    /// The serve-mix client, checker, summary and traced replay against
    /// an in-process daemon over a 60-file corpus.
    #[test]
    fn serve_mix_smoke_in_process() {
        let mut spec = crate::corpus::spec("1200", 42);
        spec.filler_files = 20;
        let mut run = Run::new("serve-mix-smoke", &spec).unwrap();
        assert_eq!(run.tree.files, 60);
        let session = Arc::new(ofence::Session::new(ofence::SessionOptions {
            config: run.config.clone(),
            paths: vec![run.tree.dir.clone()],
            cache_dir: Some(run.cache()),
            history_dir: Some(run.history()),
        }));
        let t0 = Instant::now();
        let server = ofence::server::serve("127.0.0.1:0", session).unwrap();
        let setup = t0.elapsed();
        let p = Params {
            seed: 42,
            seconds: 0.0,
            // 22 requests: a tail needs more than 20 samples.
            min_ops: 11,
            trace: true,
        };
        let samples = drive(&mut run, &p, &server.addr().to_string(), 2).unwrap();
        server.shutdown();
        assert_eq!(samples.len(), 22);
        // 15 of the 22 are `analyze` or `explain`; the daemon keeps a
        // trace of each, and the 7 `status` ids are never asked for.
        assert_eq!(run.report.notes["traces_requested"], 15);
        assert_eq!(run.report.notes["traces_fetched"], 15);
        summarize(&mut run.report, &samples, &[setup], 1.0);
        run.replay(Style::Serve).unwrap();
        assert_eq!(run.report.values["error_rate"], 0.0);
        assert!(run.report.correct(), "{:?}", run.report.problems);
        let printed = run.report.lines().join("\n");
        for m in metrics().iter().filter(|m| m.name != "files_per_s") {
            assert!(
                printed.contains(&format!("serve-mix-smoke {} ", m.name)),
                "{} not printed:\n{printed}",
                m.name
            );
        }
        assert_eq!(run.report.values["engine.files_analyzed"], 1.0);
        assert_eq!(run.report.values["walk.calls"], 2.0);
    }
}
