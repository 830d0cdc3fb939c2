//! # cfgir — the Smatch-like analysis substrate
//!
//! Per-function statement-level control-flow graphs, symbol tables, and
//! expression type resolution over [`ckit`] ASTs. This is the layer the
//! OFence analysis (crate `ofence`) is built on, mirroring the role Smatch
//! plays for the original tool: provide a CFG per function plus enough
//! type information to identify `(struct, field)` tuples.
//!
//! ```
//! let parsed = ckit::parse_string("t.c", "struct s { int x; };\nvoid f(struct s *p) { p->x = 1; }").unwrap();
//! let lowered = cfgir::LoweredFile::lower(&parsed);
//! assert_eq!(lowered.cfgs.len(), 1);
//! ```
#![deny(unsafe_code)]

pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod symbols;
pub mod types;
pub mod walk;

pub use callgraph::{CallGraph, Condensation};
pub use cfg::{Cfg, Node, NodeId, NodeKind};
pub use dataflow::{dominators, reaching_definitions, Def, DomTree, ReachingDefs};
pub use symbols::{FileSymbols, FnSig};
pub use types::TypeEnv;
pub use walk::{walk, Dir, Step};

use ckit::ParsedFile;

/// A fully lowered translation unit: symbol table plus one CFG per
/// function with a body.
pub struct LoweredFile<'a> {
    pub parsed: &'a ParsedFile,
    pub symbols: FileSymbols,
    /// CFGs in source order, aligned with `functions`.
    pub cfgs: Vec<Cfg>,
    /// The function definitions, same order as `cfgs`.
    pub functions: Vec<&'a ckit::ast::FunctionDef>,
}

impl<'a> LoweredFile<'a> {
    /// Lower a parsed file: build symbols and all CFGs.
    pub fn lower(parsed: &'a ParsedFile) -> LoweredFile<'a> {
        let rec = obs::Recorder::new();
        Self::lower_traced(parsed, &rec)
    }

    /// Lower a parsed file, recording a per-file `cfg` span (with
    /// per-function attribution) and construction counters.
    pub fn lower_traced(parsed: &'a ParsedFile, rec: &obs::Recorder) -> LoweredFile<'a> {
        let file = parsed.map.file.as_str();
        let _span = rec.span_with("cfg", &[("file", file)]);
        let symbols = FileSymbols::build(&parsed.unit);
        let functions: Vec<_> = parsed.unit.functions().collect();
        let cfgs: Vec<Cfg> = functions
            .iter()
            .map(|f| {
                let _fn_span =
                    rec.span_with("cfg-build", &[("file", file), ("function", &f.sig.name)]);
                Cfg::build(f)
            })
            .collect();
        rec.count("cfgir_cfgs_built", cfgs.len() as u64);
        rec.count(
            "cfgir_nodes",
            cfgs.iter().map(|c| c.ids().count() as u64).sum(),
        );
        LoweredFile {
            parsed,
            symbols,
            cfgs,
            functions,
        }
    }

    /// Index of the function named `name`.
    pub fn function_index(&self, name: &str) -> Option<usize> {
        self.functions.iter().position(|f| f.sig.name == name)
    }

    /// Typing environment for function `idx`.
    pub fn env(&self, idx: usize) -> TypeEnv<'_> {
        TypeEnv::for_function(&self.symbols, self.functions[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_builds_all_cfgs() {
        let parsed = ckit::parse_string(
            "t.c",
            "struct s { int x; };\nvoid a(struct s *p) { p->x = 1; }\nint b(void) { return 2; }",
        )
        .unwrap();
        let lowered = LoweredFile::lower(&parsed);
        assert_eq!(lowered.cfgs.len(), 2);
        assert_eq!(lowered.function_index("b"), Some(1));
        assert_eq!(lowered.function_index("missing"), None);
        assert!(lowered.symbols.structs.contains_key("s"));
    }
}
