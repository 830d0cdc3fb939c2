//! The metric table — every metric's name, unit, which direction is
//! better and its regression bound — plus the per-workload report built
//! from it.
//!
//! The metrics every workload reports are the `end_to_end` and
//! `per_layer` lists of `BENCHMARK.json`, read at build time; no
//! end-to-end one can read 0. [`EXTRA`] holds the others, printed and
//! recorded only where they apply: `latency_tail_ms` needs more than
//! twenty samples, `files_per_s` is a CLI figure, `session.*` come from
//! the daemon, and `error_rate` is 0 on a healthy run (the result line
//! carries it as `failed` / `attempted`).

use crate::stats::Better;
use std::collections::BTreeMap;
use std::sync::OnceLock;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// What a user of the CLI or the daemon sees; timed with tracing off.
    EndToEnd,
    /// One layer of one operation, from the traced run.
    Layer,
}

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: Option<f64>,
    pub kind: Kind,
    /// Listed in `BENCHMARK.json`, so reported by every workload.
    pub in_benchmark: bool,
}

use Better::{Higher as H, Lower as L};
use Kind::{EndToEnd as E, Layer as Y};

/// Metrics that only some workloads report, so `BENCHMARK.json` cannot
/// list them: `(name, unit, better, bound, kind)`.
const EXTRA: &[(&str, &str, Better, Option<f64>, Kind)] = &[
    ("latency_tail_ms", "ms", L, Some(0.25), E),
    ("files_per_s", "files/s", H, Some(0.25), E),
    ("error_rate", "ratio", L, Some(0.0), E),
    ("session.key_ms", "ms", L, None, Y),
    ("session.runs_per_request", "ratio", L, None, Y),
    ("session.coalesced_ratio", "ratio", H, None, Y),
    ("session.snapshot_retries", "count", L, None, Y),
    ("session.coalesce_wait_ms", "ms", L, None, Y),
    ("session.run_ms", "ms", L, None, Y),
    ("session.request_ms", "ms", L, None, Y),
];

/// Every metric: `BENCHMARK.json`'s, end-to-end first, then [`EXTRA`].
pub fn metrics() -> &'static [Metric] {
    static TABLE: OnceLock<Vec<Metric>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let doc: serde_json::Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is JSON");
        let mut table = Vec::new();
        for (key, kind) in [("end_to_end", E), ("per_layer", Y)] {
            for entry in doc[key].as_array().expect("BENCHMARK.json lists metrics") {
                let text = |field: &str| {
                    entry[field]
                        .as_str()
                        .unwrap_or_else(|| panic!("BENCHMARK.json {key}: no `{field}`"))
                        .to_string()
                };
                table.push(Metric {
                    name: text("name"),
                    unit: text("unit"),
                    better: match text("better").as_str() {
                        "lower" => L,
                        "higher" => H,
                        other => panic!("BENCHMARK.json {key}: `better` is {other}"),
                    },
                    bound: entry["bound"].as_f64(),
                    kind,
                    in_benchmark: true,
                });
            }
        }
        table.extend(
            EXTRA
                .iter()
                .map(|&(name, unit, better, bound, kind)| Metric {
                    name: name.to_string(),
                    unit: unit.to_string(),
                    better,
                    bound,
                    kind,
                    in_benchmark: false,
                }),
        );
        table
    })
}

pub fn metric(name: &str) -> Option<&'static Metric> {
    metrics().iter().find(|m| m.name == name)
}

/// One workload's outcome: measured values plus the bookkeeping the
/// result line and the result file need.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub values: BTreeMap<String, f64>,
    pub attempted: usize,
    pub failed: usize,
    /// Reasons the run is not correct (reference recall, coverage, ...).
    pub problems: Vec<String>,
    /// Free-form facts recorded with the result (sample counts, tail
    /// percentile, corpus size).
    pub notes: BTreeMap<String, serde_json::Value>,
}

impl Report {
    pub fn new(workload: &str) -> Report {
        Report {
            workload: workload.to_string(),
            ..Default::default()
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(metric(name).is_some(), "unknown metric {name}");
        self.values.insert(name.to_string(), value);
    }

    pub fn note(&mut self, key: &str, value: impl Into<serde_json::Value>) {
        self.notes.insert(key.to_string(), value.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// `workload metric value unit` lines, end-to-end metrics first.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for kind in [Kind::EndToEnd, Kind::Layer] {
            for m in metrics().iter().filter(|m| m.kind == kind) {
                if let Some(v) = self.values.get(&m.name) {
                    out.push(format!("{} {} {} {}", self.workload, m.name, v, m.unit));
                }
            }
        }
        out
    }

    /// The JSON result line: every `BENCHMARK.json` metric of `kind`.
    /// A missing one makes the run incorrect rather than silently short.
    pub fn result_line(&mut self, kind: Kind) -> serde_json::Value {
        let mut line = serde_json::Map::new();
        for m in metrics()
            .iter()
            .filter(|m| m.in_benchmark && m.kind == kind)
        {
            match self.values.get(&m.name) {
                Some(v) => {
                    line.insert(
                        m.name.clone(),
                        serde_json::json!({ "value": *v, "unit": m.unit }),
                    );
                }
                None => self
                    .problems
                    .push(format!("metric {} not measured", m.name)),
            }
        }
        serde_json::json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": serde_json::Value::Object(line),
        })
    }

    /// This workload's entry in a result file.
    pub fn to_json(&self) -> serde_json::Value {
        let values: serde_json::Map<String, serde_json::Value> = self
            .values
            .iter()
            .map(|(k, v)| (k.clone(), serde_json::Value::from(*v)))
            .collect();
        serde_json::json!({
            "workload": self.workload,
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "notes": serde_json::Value::Object(self.notes.clone().into_iter().collect()),
            "metrics": serde_json::Value::Object(values),
        })
    }
}
