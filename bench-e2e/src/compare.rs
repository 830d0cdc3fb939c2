//! `e2e compare PARENT.json... -- CHANGE.json...`: judge every workload
//! × metric of a change against its parent, one result file per run,
//! runs paired in the order given (see [`crate::stats::judge`]).

use crate::metrics::metrics;
use crate::stats::{judge, median, relative_spread};
use std::collections::BTreeMap;

/// workload -> metric -> one value per run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(paths: &[String]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc: serde_json::Value =
            serde_json::from_str(&text).map_err(|e| format!("{path}: not JSON: {e}"))?;
        let workloads = doc["workloads"]
            .as_array()
            .ok_or_else(|| format!("{path}: no `workloads` array"))?;
        for w in workloads {
            let name = w["workload"].as_str().unwrap_or_default().to_string();
            let entry = runs.entry(name).or_default();
            for (metric, value) in w["metrics"].as_object().into_iter().flat_map(|m| m.iter()) {
                if let Some(v) = value.as_f64() {
                    entry.entry(metric.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(runs)
}

pub fn run(args: &[String]) -> Result<(), String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("expected PARENT.json... -- CHANGE.json...")?;
    let (old, new) = (load(&args[..split])?, load(&args[split + 1..])?);
    println!("workload metric verdict parent_median change_median unit parent_spread runs");
    for (workload, old_metrics) in &old {
        let Some(new_metrics) = new.get(workload) else {
            continue;
        };
        for m in metrics() {
            let (Some(a), Some(b)) = (old_metrics.get(&m.name), new_metrics.get(&m.name)) else {
                continue;
            };
            let verdict = judge(a, b, m.better, m.bound);
            println!(
                "{workload} {} {} {} {} {} {} {}/{}",
                m.name,
                verdict.name(),
                median(a),
                median(b),
                m.unit,
                relative_spread(a).unwrap_or(f64::NAN),
                a.len(),
                b.len()
            );
        }
    }
    Ok(())
}
