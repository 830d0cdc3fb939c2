//! # ofence — pairing memory barriers to find concurrency bugs
//!
//! A from-scratch Rust reproduction of *"OFence: Pairing Barriers to Find
//! Concurrency Bugs in the Linux Kernel"* (Lepers, Giet, Lawall,
//! Zwaenepoel — EuroSys 2023).
//!
//! The analysis pipeline:
//!
//! 1. [`sites`] finds memory barriers (kernel Table 1 primitives plus the
//!    seqcount API) and extracts the `(struct, field)` **shared objects**
//!    accessed in a bounded statement window around each barrier.
//! 2. [`pairing`] pairs barriers that order the same objects (Algorithm 1),
//!    inferring which functions may run concurrently.
//! 3. [`deviation`] checks paired code for misplaced accesses, wrong
//!    barrier types, racy re-reads, and unneeded barriers (§5).
//! 4. [`patch`] turns every finding into a self-explanatory unified diff.
//! 5. [`annotate`] adds missing `READ_ONCE`/`WRITE_ONCE` annotations (§7).
//! 6. [`engine`] drives whole-corpus runs: parallel, incremental, with
//!    [`report::Stats`] matching the paper's evaluation numbers.
//!
//! Every run is observable: the engine threads an [`obs::Recorder`]
//! through the pipeline, so [`AnalysisResult::obs`] carries per-phase
//! spans (parse / cfg / extract / pair / check) with per-file
//! attribution plus decision counters — exportable as a Chrome trace or
//! Prometheus text. [`explain`] replays the pairing decision for a
//! single barrier, and [`json`] serializes results to a stable schema.
//!
//! ```
//! use ofence::{AnalysisConfig, Engine, SourceFile};
//!
//! let files = vec![SourceFile::new("demo.c", r#"
//! struct m { int init; int y; };
//! void reader(struct m *a) { if (!a->init) return; smp_rmb(); f(a->y); }
//! void writer(struct m *b) { b->y = 1; smp_wmb(); b->init = 1; }
//! "#)];
//! let result = Engine::new(AnalysisConfig::default()).analyze(&files);
//! assert_eq!(result.pairing.pairings.len(), 1);
//! ```
#![deny(unsafe_code)]

pub mod annotate;
pub mod cache;
pub mod config;
pub mod deviation;
pub mod diffing;
pub mod engine;
pub mod explain;
pub mod extract;
pub mod fingerprint;
pub mod flags;
pub mod history;
pub mod ir;
pub mod json;
pub mod ledger;
pub mod missing;
pub mod pairing;
pub mod patch;
pub mod perf;
pub mod pool;
pub mod report;
pub mod sarif;
pub mod server;
pub mod session;
pub mod sites;
pub mod summary;
pub mod walk;

pub use obs;

pub use cache::LoadOutcome;
pub use config::AnalysisConfig;
pub use deviation::{Deviation, DeviationKind};
pub use diffing::{classify, Baseline, DiffReport, FailOn};
pub use engine::{AnalysisResult, Engine, SourceFile};
pub use explain::{explain_at, explain_site_with, Explanation};
pub use fingerprint::{finding_records, FindingRecord};
pub use history::RunRecord;
pub use ir::*;
pub use patch::{apply_edits, Patch};
pub use perf::{GateOutcome, PerfRecord};
pub use report::{DistanceHistogram, Stats};
pub use sarif::to_sarif;
pub use session::{Session, SessionOptions};
pub use summary::{ComposedIndex, FnSummary, WindowCall, SUMMARY_VERSION};
pub use walk::collect_sources;
