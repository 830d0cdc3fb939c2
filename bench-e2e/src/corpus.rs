//! Workload inputs: the seeded corpus on disk, the edits applied to it,
//! and the in-process reference every program output is checked against.

use ofence::{AnalysisConfig, Engine};
use ofence_corpus::{BugPlan, CorpusSpec, Manifest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// First id of the functions edits append, above every generator range
/// (filler stops below 200_000 + filler count), so names never collide.
const EDIT_ID_BASE: usize = 500_000;

/// The bug mix every workload corpus carries: 11 injected findings the
/// reference must recover at any tier.
const BUGS: BugPlan = BugPlan {
    misplaced: 4,
    repeated_read: 2,
    wrong_type: 1,
    unneeded: 4,
    missing_barrier: 0,
};

/// A throughput tier (`1200`, `12k`) with the workload bug mix.
pub fn spec(tier: &str, seed: u64) -> CorpusSpec {
    let mut spec = CorpusSpec::tier(tier, seed).expect("workload tiers are known tiers");
    spec.bugs = BUGS;
    spec
}

/// Where workload scratch lives: `e2e-work/` in the target directory the
/// bench binary was built into, so a run writes only inside its checkout.
fn work_root() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running bench");
    exe.ancestors()
        .nth(2)
        .expect("bench binary sits in <target>/<profile>/")
        .join("e2e-work")
}

/// A scratch directory removed on drop — also when a workload panics —
/// so corpus, cache and ledger copies never outlive their run.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn create(tag: &str) -> std::io::Result<WorkDir> {
        let path = work_root().join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A generated corpus written to disk, plus the seeded editor.
pub struct Tree {
    pub dir: String,
    pub files: usize,
    manifest: Manifest,
    fillers: Vec<PathBuf>,
    rng: StdRng,
    edits: usize,
}

impl Tree {
    pub fn write(spec: &CorpusSpec, dir: &Path) -> std::io::Result<Tree> {
        let corpus = ofence_corpus::generate(spec);
        let mut fillers = Vec::new();
        for f in &corpus.files {
            let path = dir.join(&f.name);
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(&path, &f.content)?;
            if f.name.starts_with("gen/filler") {
                fillers.push(path);
            }
        }
        Ok(Tree {
            dir: dir.display().to_string(),
            files: corpus.files.len(),
            manifest: corpus.manifest,
            fillers,
            rng: StdRng::seed_from_u64(spec.seed ^ 0xed17),
            edits: 0,
        })
    }

    /// Append a fresh barrier-free function to a seeded filler file, the
    /// way an editor saves: write a sibling temp file (not `*.c`, so no
    /// walker ever sees it) and rename it over the original. Findings
    /// never change, and exactly one file's content hash does.
    pub fn edit(&mut self) -> std::io::Result<PathBuf> {
        let path = self.fillers[self.rng.gen_range(0..self.fillers.len())].clone();
        let mut content = std::fs::read_to_string(&path)?;
        content.push_str(&ofence_corpus::patterns::noise_function(
            EDIT_ID_BASE + self.edits,
            0,
            &mut self.rng,
        ));
        self.edits += 1;
        let tmp = path.with_extension("c.e2e-tmp");
        std::fs::write(&tmp, content)?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

/// Sorted fingerprints of a report document's `findings` — the multiset
/// an output must reproduce.
pub fn fingerprints(doc: &serde_json::Value) -> Option<Vec<String>> {
    let mut out = doc["findings"]
        .as_array()?
        .iter()
        .map(|f| f["fingerprint"].as_str().map(str::to_string))
        .collect::<Option<Vec<String>>>()?;
    out.sort();
    Some(out)
}

/// What a correct output looks like, from a fresh in-process
/// `Engine::analyze` of the corpus as the program sees it on disk.
pub struct Reference {
    pub fingerprints: Vec<String>,
    /// A paired barrier (`explain` target) and its expected outcome.
    pub explain_file: String,
    pub explain_line: u32,
    pub explain_outcome: serde_json::Value,
    pub bug_recall: f64,
    pub pairing_recall: f64,
}

impl Reference {
    pub fn compute(tree: &Tree, config: &AnalysisConfig) -> Result<Reference, String> {
        let sources = ofence::collect_sources(std::slice::from_ref(&tree.dir))?;
        let result = Engine::new(config.clone()).analyze(&sources);
        let (bugs, pairings) = ofence_bench::harness::found_records(&result);
        let eval = ofence_corpus::evaluate(&tree.manifest, &bugs, &pairings);
        let fingerprints = fingerprints(&serde_json::json!({
            "findings": ofence::finding_records(&result.deviations, &result.sites, &result.files),
        }))
        .expect("finding records carry fingerprints");
        let target = result
            .sites
            .iter()
            .find(|s| result.pairing.pairing_of(s.id).is_some())
            .ok_or("the reference pairs no barrier")?;
        let explanation =
            ofence::explain_site_with(&result.sites, &result.pairing, config, target.id)
                .expect("site id comes from this result");
        Ok(Reference {
            fingerprints,
            explain_file: target.site.file_name.clone(),
            explain_line: target.site.line,
            explain_outcome: serde_json::to_value(&explanation.outcome),
            bug_recall: eval.bug_recall,
            pairing_recall: eval.pairing_recall,
        })
    }

    /// The recall floor: the reference itself must find every injected
    /// bug and every expected pairing, or its verdicts mean nothing.
    pub fn floor_problem(&self) -> Option<String> {
        (self.bug_recall < 1.0 || self.pairing_recall < 1.0).then(|| {
            format!(
                "reference recall below 1.0 (bugs {}, pairings {})",
                self.bug_recall, self.pairing_recall
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filler_edits_leave_the_reference_multiset_unchanged() {
        let work = WorkDir::create("test-edits").unwrap();
        let mut spec = spec("1200", 42);
        spec.filler_files = 20;
        let mut tree = Tree::write(&spec, &work.join("corpus")).unwrap();
        let config = AnalysisConfig::default();
        let before = Reference::compute(&tree, &config).unwrap();
        assert!(
            before.floor_problem().is_none(),
            "{:?}",
            before.floor_problem()
        );
        assert_eq!(before.fingerprints.len(), 13, "11 injected bugs + 2 decoys");
        let mut edited = std::collections::BTreeSet::new();
        for _ in 0..5 {
            let path = tree.edit().unwrap();
            assert!(path.to_string_lossy().contains("gen/filler"));
            edited.insert(path);
        }
        let after = Reference::compute(&tree, &config).unwrap();
        assert_eq!(before.fingerprints, after.fingerprints);
        assert_eq!(before.explain_outcome, after.explain_outcome);
        // The edits really changed the corpus, and left no temp files.
        let sources = ofence::collect_sources(std::slice::from_ref(&tree.dir)).unwrap();
        assert_eq!(sources.len(), tree.files);
        let appended = sources
            .iter()
            .filter(|s| s.content.contains("pat50000"))
            .count();
        assert_eq!(appended, edited.len());
    }
}
