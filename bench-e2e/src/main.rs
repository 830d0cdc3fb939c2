//! `e2e` — the repository's end-to-end benchmark: `ofence analyze` and
//! `ofence serve` latency as a user sees it, split by layer.
//!
//! ```text
//! e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! e2e compare PARENT.json... -- CHANGE.json...
//! ```
//!
//! A run generates each workload's corpus from the seed, drives the
//! release `ofence` binary next to this executable for `--seconds` of
//! closed-loop operations, checks every output against an in-process
//! reference, and prints `workload metric value unit` lines. With
//! `--trace 1` a traced in-process replay adds the per-layer metrics.
//! The last stdout line of each workload is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`): the `BENCHMARK.json`
//! end-to-end metrics, or with `--trace 1` its per-layer ones.
//! `--out` writes every metric, plus the host, as a result file that
//! `compare` reads. See `README.md`.

mod client;
mod compare;
mod corpus;
mod metrics;
mod procs;
mod replay;
mod stats;
mod workloads;

use metrics::Kind;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       \
         e2e compare PARENT.json... -- CHANGE.json...\nworkloads: {}",
        workloads::WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::run(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("e2e compare: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut names: Vec<String> = workloads::WORKLOADS.iter().map(|s| s.to_string()).collect();
    let mut params = workloads::Params {
        seed: 42,
        seconds: 12.0,
        min_ops: workloads::MIN_OPS,
        trace: true,
    };
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" if workloads::WORKLOADS.contains(&value.as_str()) => {
                names = vec![value.clone()];
                true
            }
            "--seed" => value.parse().map(|v| params.seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| params.seconds = v).is_ok(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    params.trace = value == "1";
                    true
                }
                _ => false,
            },
            "--out" => {
                out = Some(value.clone());
                true
            }
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    if !procs::ofence_bin().is_file() {
        eprintln!(
            "e2e: {} not found; build it with `cargo build --release -p ofence-cli`",
            procs::ofence_bin().display()
        );
        return ExitCode::FAILURE;
    }

    let host = host(&params);
    for (k, v) in host.as_object().expect("host is an object").iter() {
        println!("host {k} {v}");
    }
    let mut results = Vec::new();
    let mut all_correct = true;
    for name in &names {
        let mut report = match workloads::run(name, &params) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("e2e: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for (k, v) in &report.notes {
            println!("note {name} {k} {v}");
        }
        for line in report.lines() {
            println!("{line}");
        }
        let kind = if params.trace {
            Kind::Layer
        } else {
            Kind::EndToEnd
        };
        let line = report.result_line(kind);
        for p in &report.problems {
            eprintln!("e2e: {name}: {p}");
        }
        all_correct &= report.correct();
        results.push(report.to_json());
        println!("{}", serde_json::to_string(&line).expect("line serializes"));
    }
    if let Some(path) = out {
        let doc = serde_json::json!({ "host": host, "workloads": results });
        let text = serde_json::to_string_pretty(&doc).expect("result serializes");
        if let Err(e) = std::fs::write(&path, text + "\n") {
            eprintln!("e2e: {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The machine and settings a result was measured with.
fn host(params: &workloads::Params) -> serde_json::Value {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let osrelease = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    serde_json::json!({
        "available_parallelism": cores,
        "osrelease": osrelease,
        "seed": params.seed,
        "seconds": params.seconds,
        "trace": params.trace,
    })
}
