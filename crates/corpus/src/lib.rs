//! # ofence-corpus — synthetic kernel corpus with ground truth
//!
//! The OFence paper evaluates on the Linux kernel; this crate substitutes
//! a deterministic generator that emits the same barrier idioms the
//! kernel uses (init-flag publication, ring buffers, seqcount protocols,
//! wake-up paths, acquire/release, barrier-before-atomic), at a
//! configurable scale, with:
//!
//! * a **ground-truth manifest** of expected pairings,
//! * seeded **bug injection** for every deviation class of paper Table 3,
//! * **generic-type decoys** reproducing the incorrect-pairing mechanism
//!   of §6.4,
//! * the paper's own listings and patches as fixtures.
//!
//! ```
//! use ofence_corpus::{generate, CorpusSpec};
//! let corpus = generate(&CorpusSpec::small(42));
//! assert_eq!(corpus.files.len(), 8);
//! assert!(corpus.manifest.expected_pairings.len() > 0);
//! ```
#![deny(unsafe_code)]

pub mod eval;
pub mod fixtures;
pub mod generator;
pub mod manifest;
pub mod patterns;

pub use eval::{evaluate, EvalSummary, FoundBug, FoundPairing};
pub use generator::{
    generate, inject_deviation, inject_edit, prepend_comment_lines, BugPlan, Corpus, CorpusSpec,
    GenFile,
};
pub use manifest::{BugKind, ExpectedPairing, InjectedBug, Manifest, PatternKind};
