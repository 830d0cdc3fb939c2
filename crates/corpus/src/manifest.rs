//! Ground-truth manifest: what the generator put into the corpus.
//!
//! The real paper could only validate OFence by manually reviewing its
//! output; a synthetic corpus lets us measure recall and precision
//! exactly against this manifest.

use serde::{Deserialize, Serialize};

/// The barrier idiom a code fragment instantiates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PatternKind {
    /// Listing 1: init fields, `smp_wmb`, set flag / check flag,
    /// `smp_rmb`, read fields.
    InitFlag,
    /// Producer/consumer ring: write slot, `smp_wmb`, bump head.
    RingBuffer,
    /// Figure 5 / Listing 3: seqcount reader/writer.
    Seqcount,
    /// Publish + wake-up call: implicit read barrier, writer stays
    /// unpaired.
    WakeupPublish,
    /// `smp_store_release` / `smp_load_acquire`.
    AcquireRelease,
    /// `smp_mb__before_atomic` + relaxed atomic counter.
    AtomicBarrier,
    /// One writer, several readers.
    MultiReader,
    /// RCU publish/subscribe: `rcu_assign_pointer` / `rcu_dereference`.
    RcuPublish,
    /// Sleep/wake handshake: `smp_store_mb` on the waiter side, `smp_mb`
    /// on the waker side (the classic lost-wakeup protocol).
    SleepWake,
    /// `atomic_inc` upgraded by `smp_mb__after_atomic`.
    AfterAtomic,
    /// Cross-file call chain: the barrier sits in a caller while the
    /// payload accesses live several call levels away, each level in a
    /// different file. Invisible intra-procedurally (the barrier sees a
    /// single shared object); pairs only at `--ipa-depth >=` the chain
    /// depth.
    CrossFileChain,
}

impl PatternKind {
    pub const ALL: [PatternKind; 11] = [
        PatternKind::InitFlag,
        PatternKind::RingBuffer,
        PatternKind::Seqcount,
        PatternKind::WakeupPublish,
        PatternKind::AcquireRelease,
        PatternKind::AtomicBarrier,
        PatternKind::MultiReader,
        PatternKind::RcuPublish,
        PatternKind::SleepWake,
        PatternKind::AfterAtomic,
        PatternKind::CrossFileChain,
    ];
}

/// Class of injected bug — mirrors paper Table 3 plus unneeded barriers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BugKind {
    /// Deviation #1: an access on the wrong side of a barrier.
    Misplaced,
    /// Deviation #3: a racy re-read after the read barrier.
    RepeatedRead,
    /// Deviation #2: read barrier used where a write barrier belongs.
    WrongBarrierType,
    /// §5.1: barrier adjacent to an operation with barrier semantics.
    UnneededBarrier,
    /// Dataflow extension: the reader's fence is missing entirely — the
    /// writer stays unpaired and the guarded reads are unordered.
    MissingBarrier,
}

impl BugKind {
    pub const ALL: [BugKind; 5] = [
        BugKind::Misplaced,
        BugKind::RepeatedRead,
        BugKind::WrongBarrierType,
        BugKind::UnneededBarrier,
        BugKind::MissingBarrier,
    ];
}

/// A pairing the analysis is expected to find.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpectedPairing {
    /// Functions whose barriers belong to the pairing.
    pub functions: Vec<String>,
    /// `(struct, field)` tuples the pairing should match on (subset).
    pub objects: Vec<(String, String)>,
    pub kind: PatternKind,
    /// True for generic-type decoys: a pairing the analysis will likely
    /// report but that is *not* real concurrency (counts as an incorrect
    /// pairing, §6.4).
    pub decoy: bool,
}

/// A bug the generator injected.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectedBug {
    pub file: String,
    /// Function containing the buggy access/barrier.
    pub function: String,
    pub kind: BugKind,
    /// The shared object involved (empty strings for unneeded barriers).
    pub strukt: String,
    pub field: String,
}

/// Everything the generator knows about the corpus it produced.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Manifest {
    pub expected_pairings: Vec<ExpectedPairing>,
    pub bugs: Vec<InjectedBug>,
    /// Writer functions intentionally left unpaired (wake-up pattern).
    pub implicit_ipc_writers: Vec<String>,
    /// Total pattern instances per kind.
    pub pattern_counts: std::collections::BTreeMap<String, usize>,
    /// Generator seed, for reproducibility.
    pub seed: u64,
}

impl Manifest {
    pub fn count_bugs(&self, kind: BugKind) -> usize {
        self.bugs.iter().filter(|b| b.kind == kind).count()
    }

    pub fn real_pairings(&self) -> impl Iterator<Item = &ExpectedPairing> {
        self.expected_pairings.iter().filter(|p| !p.decoy)
    }

    pub fn decoy_pairings(&self) -> impl Iterator<Item = &ExpectedPairing> {
        self.expected_pairings.iter().filter(|p| p.decoy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bug_counting() {
        let m = Manifest {
            bugs: vec![
                InjectedBug {
                    file: "a.c".into(),
                    function: "f".into(),
                    kind: BugKind::Misplaced,
                    strukt: "s".into(),
                    field: "x".into(),
                },
                InjectedBug {
                    file: "b.c".into(),
                    function: "g".into(),
                    kind: BugKind::Misplaced,
                    strukt: "t".into(),
                    field: "y".into(),
                },
            ],
            ..Default::default()
        };
        assert_eq!(m.count_bugs(BugKind::Misplaced), 2);
        assert_eq!(m.count_bugs(BugKind::RepeatedRead), 0);
    }

    #[test]
    fn pairing_filters() {
        let m = Manifest {
            expected_pairings: vec![
                ExpectedPairing {
                    functions: vec!["w".into(), "r".into()],
                    objects: vec![],
                    kind: PatternKind::InitFlag,
                    decoy: false,
                },
                ExpectedPairing {
                    functions: vec!["d1".into(), "d2".into()],
                    objects: vec![],
                    kind: PatternKind::InitFlag,
                    decoy: true,
                },
            ],
            ..Default::default()
        };
        assert_eq!(m.real_pairings().count(), 1);
        assert_eq!(m.decoy_pairings().count(), 1);
    }

    #[test]
    fn wakeup_pattern_expects_no_pairing() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let emit = |kind, rng: &mut _| crate::patterns::emit(kind, 1, rng, None).expected;
        assert!(emit(PatternKind::WakeupPublish, &mut rng).is_none());
        assert!(emit(PatternKind::Seqcount, &mut rng).is_some());
    }
}
