//! Analysis statistics and reporting — the numbers §6 of the paper is
//! built from.

use crate::deviation::{Deviation, DeviationKind};
use crate::ir::*;
use crate::pairing::PairingResult;
use crate::sites::FileAnalysis;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Corpus-level statistics of one analysis run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Stats {
    pub files_total: usize,
    /// Files containing at least one barrier (the paper's "669 files that
    /// contain memory barriers" denominator).
    pub files_with_barriers: usize,
    pub functions_total: usize,
    /// Functions containing at least one barrier.
    pub functions_with_barriers: usize,
    pub parse_errors: usize,

    /// Barrier occurrences by primitive (Table 1 shape).
    pub barriers_by_kind: BTreeMap<String, usize>,
    pub barriers_total: usize,

    pub pairings: usize,
    pub multi_pairings: usize,
    pub paired_barriers: usize,
    pub unpaired_implicit_ipc: usize,
    pub unpaired_no_match: usize,
    /// Fraction of barriers in a pairing (the paper's ~50% coverage).
    pub coverage: f64,

    /// Deviations by class (Table 3 shape).
    pub deviations_by_kind: BTreeMap<String, usize>,
    pub deviations_total: usize,
    pub patches_generated: usize,

    /// Wall-clock analysis time in milliseconds (duration of the run's
    /// root `analyze` span).
    pub elapsed_ms: u64,
    /// Per-phase wall-clock breakdown in microseconds, summed over all
    /// spans of each phase (parse / cfg / extract / pair / check /
    /// missing / patch / annotate). Parallel phases can sum to more than
    /// `elapsed_ms`.
    pub phase_us: BTreeMap<String, u64>,
    /// Top-N slowest files by per-file analysis time (parse + cfg +
    /// extract spans), `(file, microseconds)` sorted descending. N is 5
    /// by default and `--slow-files N` from the CLI.
    pub slowest_files: Vec<(String, u64)>,

    /// Worker threads the parallel per-file phase ran with.
    pub workers: usize,
    /// Summed per-file work time across all workers, in microseconds.
    pub worker_busy_us: u64,
    /// Summed non-work time inside worker lifetimes (queue exhaustion
    /// tail, lock waits), in microseconds.
    pub worker_idle_us: u64,
    /// busy / (busy + idle); 0 when no per-file work ran.
    pub worker_utilization: f64,
}

/// Span names that make up the per-phase breakdown. The nested ckit
/// sub-spans (`lex`/`pp`/`parse-tokens`) and per-function `cfg-build`
/// spans are deliberately excluded — their time is already inside their
/// parents and would double-count.
pub const PHASES: [&str; 9] = [
    "parse", "cfg", "extract", "compose", "pair", "check", "missing", "patch", "annotate",
];

/// Span names carrying per-file attribution; their summed durations give
/// the per-file cost used for the "slowest files" ranking.
const PER_FILE_PHASES: [&str; 3] = ["parse", "cfg", "extract"];

/// Short human-readable class name for a deviation (used in rendered
/// reports and by `ofence watch` to key its deviation delta).
pub fn deviation_class(kind: &DeviationKind) -> &'static str {
    match kind {
        DeviationKind::Misplaced { .. } => "misplaced memory access",
        DeviationKind::WrongBarrierType { .. } => "wrong barrier type",
        DeviationKind::RepeatedRead { .. } => "racy variable re-read",
        DeviationKind::UnneededBarrier { .. } => "unneeded barrier",
        DeviationKind::MissingOnce { .. } => "missing READ_ONCE/WRITE_ONCE",
        DeviationKind::MissingBarrier { .. } => "missing memory barrier",
    }
}

/// The part of [`Stats`] summed over every per-file record. A run over
/// the last run's layout keeps it by delta (see [`crate::engine`]): it
/// takes out the old record's share and adds the new one's at each
/// position it looked up, so the site-free files it did not touch are
/// never read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RecordTotals {
    functions_total: usize,
    parse_errors: usize,
    files_with_barriers: usize,
    functions_with_barriers: usize,
}

impl RecordTotals {
    /// The totals over `files`, computed in full.
    pub fn over(files: &[Arc<FileAnalysis>]) -> RecordTotals {
        let mut totals = RecordTotals::default();
        for fa in files {
            totals.add(&RecordTotals::of(fa));
        }
        totals
    }

    /// Replace `old`'s share of the totals by `new`'s.
    pub fn replace(&mut self, old: &FileAnalysis, new: &FileAnalysis) {
        let (old, new) = (RecordTotals::of(old), RecordTotals::of(new));
        self.functions_total = self.functions_total - old.functions_total + new.functions_total;
        self.parse_errors = self.parse_errors - old.parse_errors + new.parse_errors;
        self.files_with_barriers =
            self.files_with_barriers - old.files_with_barriers + new.files_with_barriers;
        self.functions_with_barriers = self.functions_with_barriers - old.functions_with_barriers
            + new.functions_with_barriers;
    }

    /// One record's share.
    fn of(fa: &FileAnalysis) -> RecordTotals {
        let mut fns: Vec<&str> = fa
            .sites
            .iter()
            .map(|site| site.site.function.as_str())
            .collect();
        fns.sort_unstable();
        fns.dedup();
        RecordTotals {
            functions_total: fa.function_count,
            parse_errors: fa.parse_error_count,
            files_with_barriers: usize::from(!fa.sites.is_empty()),
            functions_with_barriers: fns.len(),
        }
    }

    fn add(&mut self, other: &RecordTotals) {
        self.functions_total += other.functions_total;
        self.parse_errors += other.parse_errors;
        self.files_with_barriers += other.files_with_barriers;
        self.functions_with_barriers += other.functions_with_barriers;
    }
}

impl Stats {
    /// Everything but the timings: from the record totals and the global
    /// phases' outputs, which hold only the site-holding files.
    pub(crate) fn compute(
        files_total: usize,
        totals: RecordTotals,
        sites: &[BarrierSite],
        pairing: &PairingResult,
        deviations: &[Deviation],
        patches_generated: usize,
    ) -> Stats {
        let mut s = Stats {
            files_total,
            functions_total: totals.functions_total,
            parse_errors: totals.parse_errors,
            files_with_barriers: totals.files_with_barriers,
            functions_with_barriers: totals.functions_with_barriers,
            patches_generated,
            ..Default::default()
        };
        for site in sites {
            let key = if site.from_atomic.is_some() {
                "atomic-rmw (pair_with_atomics)".to_string()
            } else {
                site.kind.name().to_string()
            };
            *s.barriers_by_kind.entry(key).or_default() += 1;
            s.barriers_total += 1;
        }
        s.pairings = pairing.pairings.len();
        s.multi_pairings = pairing
            .pairings
            .iter()
            .filter(|p| p.shape == PairingShape::Multi)
            .count();
        s.paired_barriers = pairing.pairings.iter().map(|p| p.members.len()).sum();
        s.unpaired_implicit_ipc = pairing
            .unpaired
            .iter()
            .filter(|(_, r)| *r == UnpairedReason::ImplicitIpc)
            .count();
        s.unpaired_no_match = pairing
            .unpaired
            .iter()
            .filter(|(_, r)| *r == UnpairedReason::NoMatch)
            .count();
        s.coverage = if s.barriers_total > 0 {
            s.paired_barriers as f64 / s.barriers_total as f64
        } else {
            0.0
        };
        for d in deviations {
            *s.deviations_by_kind
                .entry(deviation_class(&d.kind).to_string())
                .or_default() += 1;
            s.deviations_total += 1;
        }
        s
    }

    /// Fill in the timings from the run's snapshot, taken once its root
    /// `analyze` span closed.
    pub(crate) fn add_timings(&mut self, obs: &obs::Snapshot, slow_files: usize) {
        self.elapsed_ms = obs
            .spans_named("analyze")
            .map(|sp| sp.dur_us)
            .max()
            .unwrap_or(0)
            / 1000;
        // A phase ran when it has a span, however short it was.
        for phase in PHASES {
            if obs.spans_named(phase).next().is_some() {
                self.phase_us
                    .insert(phase.to_string(), obs.total_us_of(phase));
            }
        }
        let mut per_file: BTreeMap<String, u64> = BTreeMap::new();
        for sp in &obs.spans {
            if !PER_FILE_PHASES.contains(&sp.name.as_str()) {
                continue;
            }
            if let Some(file) = sp.attr("file") {
                *per_file.entry(file.to_string()).or_default() += sp.dur_us;
            }
        }
        let mut ranked: Vec<(String, u64)> = per_file.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(slow_files);
        self.slowest_files = ranked;
        self.workers = obs.count_of("workers") as usize;
        self.worker_busy_us = obs.count_of("worker_busy_us");
        self.worker_idle_us = obs.count_of("worker_idle_us");
        let worker_wall = self.worker_busy_us + self.worker_idle_us;
        self.worker_utilization = if worker_wall > 0 {
            self.worker_busy_us as f64 / worker_wall as f64
        } else {
            0.0
        };
    }

    /// Human-readable one-screen summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "files analyzed:        {} ({} with barriers)\n",
            self.files_total, self.files_with_barriers
        ));
        out.push_str(&format!(
            "functions:             {} ({} with barriers)\n",
            self.functions_total, self.functions_with_barriers
        ));
        out.push_str(&format!("barriers found:        {}\n", self.barriers_total));
        for (kind, count) in &self.barriers_by_kind {
            out.push_str(&format!("  {kind:<24} {count}\n"));
        }
        out.push_str(&format!(
            "pairings:              {} ({} multi-barrier)\n",
            self.pairings, self.multi_pairings
        ));
        out.push_str(&format!(
            "barrier coverage:      {:.1}% paired, {} implicit-IPC, {} unmatched\n",
            self.coverage * 100.0,
            self.unpaired_implicit_ipc,
            self.unpaired_no_match
        ));
        out.push_str(&format!(
            "deviations:            {} ({} patches)\n",
            self.deviations_total, self.patches_generated
        ));
        for (kind, count) in &self.deviations_by_kind {
            out.push_str(&format!("  {kind:<24} {count}\n"));
        }
        out.push_str(&format!("analysis time:         {} ms\n", self.elapsed_ms));
        if self.workers > 0 {
            out.push_str(&format!(
                "workers:               {} ({:.1}% busy, {:.1} ms busy / {:.1} ms idle)\n",
                self.workers,
                self.worker_utilization * 100.0,
                self.worker_busy_us as f64 / 1000.0,
                self.worker_idle_us as f64 / 1000.0
            ));
        }
        if !self.phase_us.is_empty() {
            // Fixed pipeline order, not BTreeMap (alphabetical) order.
            for phase in PHASES {
                if let Some(us) = self.phase_us.get(phase) {
                    out.push_str(&format!("  {phase:<24} {:.1} ms\n", *us as f64 / 1000.0));
                }
            }
        }
        if !self.slowest_files.is_empty() {
            let list = self
                .slowest_files
                .iter()
                .map(|(f, us)| format!("{f} ({:.1} ms)", *us as f64 / 1000.0))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "top {} slowest files:   {list}\n",
                self.slowest_files.len()
            ));
        }
        out
    }
}

/// Distance histogram data for Figures 6/7.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DistanceHistogram {
    /// `counts[d]` = number of accesses at distance `d` (index 0 unused).
    pub counts: Vec<usize>,
}

impl DistanceHistogram {
    pub fn record(&mut self, distance: u32) {
        let d = distance as usize;
        if self.counts.len() <= d {
            self.counts.resize(d + 1, 0);
        }
        self.counts[d] += 1;
    }

    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Cumulative fraction of accesses within `d` statements.
    pub fn cumulative_at(&self, d: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let within: usize = self.counts.iter().take(d + 1).sum();
        within as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_and_accumulates() {
        let mut h = DistanceHistogram::default();
        h.record(1);
        h.record(1);
        h.record(3);
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts[1], 2);
        assert!((h.cumulative_at(1) - 2.0 / 3.0).abs() < 1e-9);
        assert!((h.cumulative_at(3) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stats_render_is_complete() {
        let s = Stats {
            files_total: 3,
            barriers_total: 5,
            coverage: 0.5,
            ..Default::default()
        };
        let text = s.render();
        assert!(text.contains("files analyzed:        3"));
        assert!(text.contains("50.0% paired"));
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;

    #[test]
    fn stats_json_roundtrip() {
        let mut s = Stats {
            files_total: 10,
            barriers_total: 4,
            coverage: 0.5,
            ..Default::default()
        };
        s.barriers_by_kind.insert("smp_wmb".into(), 2);
        s.deviations_by_kind.insert("unneeded barrier".into(), 1);
        let json = serde_json::to_string(&s).unwrap();
        let back: Stats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.files_total, 10);
        assert_eq!(back.barriers_by_kind["smp_wmb"], 2);
        assert!((back.coverage - 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_json_roundtrip() {
        let mut h = DistanceHistogram::default();
        h.record(3);
        h.record(7);
        let json = serde_json::to_string(&h).unwrap();
        let back: DistanceHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back.total(), 2);
        assert_eq!(back.counts[7], 1);
    }
}
