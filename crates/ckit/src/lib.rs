//! # ckit — a kernel-C front end
//!
//! Lexer, preprocessor-lite, recursive-descent parser, AST, and
//! pretty-printer for the subset of C used by Linux kernel code around
//! memory barriers. This crate is the substrate that replaces Smatch's C
//! front end in the OFence reproduction (see the workspace `DESIGN.md`).
//!
//! ```
//! let out = ckit::parse_string("example.c", "int f(void) { return 1; }").unwrap();
//! assert!(out.errors.is_empty());
//! assert_eq!(out.unit.functions().count(), 1);
//! ```
#![deny(unsafe_code)]

pub mod ast;
pub mod error;
pub mod intern;
pub mod lexer;
pub mod parser;
pub mod pp;
pub mod pretty;
pub mod span;
pub mod token;

pub use ast::TranslationUnit;
pub use error::{Error, Result};
pub use intern::{Interner, Name};
pub use parser::{Counts, ParseOutput, ParserConfig};
pub use pp::{PpConfig, PpOutput};
pub use span::{SourceMap, Span};

/// A fully parsed source file: AST, source map, recovered errors, and the
/// original text (kept for span-based patch synthesis, shared rather
/// than copied — `Arc<str>` clones are refcount bumps).
#[derive(Clone, Debug)]
pub struct ParsedFile {
    pub unit: TranslationUnit,
    pub map: SourceMap,
    pub source: std::sync::Arc<str>,
    pub errors: Vec<Error>,
    pub includes: Vec<String>,
}

/// Front-end options bundling preprocessor and parser configuration.
#[derive(Clone, Debug, Default)]
pub struct FrontendConfig {
    pub pp: PpConfig,
    pub parser: ParserConfig,
}

/// Parse a source string with default configuration.
///
/// Returns `Err` only on unrecoverable lexer/preprocessor failures;
/// item-level parse errors are recovered from and reported in
/// [`ParseOutput::errors`] / [`ParsedFile::errors`].
pub fn parse_string(file: &str, src: &str) -> Result<ParsedFile> {
    let (config, rec) = (FrontendConfig::default(), obs::Recorder::new());
    match count_or_parse_traced(file, &std::sync::Arc::from(src), &config, &rec, None)? {
        FrontEnd::Parsed(parsed) => Ok(parsed),
        FrontEnd::Counted(_) => unreachable!("only a watched parse counts"),
    }
}

/// What [`count_or_parse_traced`] kept of a file.
#[derive(Debug)]
pub enum FrontEnd {
    /// The full parse: some call name passed the watch, or there was none.
    Parsed(ParsedFile),
    /// Only the counts: no call name passed the watch, so no AST was
    /// built.
    Counted(Counts),
}

/// Count first, parse only if needed: run the grammar once without
/// building a tree ([`parser::count_tokens`]), and parse the same tokens
/// again in full only when some call's callee passed `watch`. Without a
/// watch, parse in full at once. Records a per-file `parse` span (with
/// nested `lex`/`pp`/`parse-tokens` sub-spans; both parses fall in
/// `parse-tokens`) and the front-end counters. A watched parse counts
/// `ckit_files_counted` or `ckit_files_reparsed`.
pub fn count_or_parse_traced(
    file: &str,
    src: &std::sync::Arc<str>,
    config: &FrontendConfig,
    rec: &obs::Recorder,
    watch: Option<&dyn Fn(&str) -> bool>,
) -> Result<FrontEnd> {
    let _span = rec.span_with("parse", &[("file", file)]);
    let tokens = {
        let _lex = rec.span_with("lex", &[("file", file)]);
        lexer::lex(src)?
    };
    rec.count("ckit_tokens", tokens.len() as u64);
    let ppo = {
        let _pp = rec.span_with("pp", &[("file", file)]);
        pp::preprocess(tokens, &config.pp)?
    };
    let out = {
        let _parse = rec.span_with("parse-tokens", &[("file", file)]);
        match watch.map(|w| parser::count_tokens(&ppo.tokens, &config.parser, w)) {
            Some(counts) if !counts.watched_call => {
                drop(ppo.tokens);
                Err(counts)
            }
            _ => Ok(parser::parse_tokens(ppo.tokens, &config.parser)),
        }
    };
    rec.count("ckit_files_parsed", 1);
    let out = match out {
        Err(counts) => {
            rec.count("ckit_files_counted", 1);
            rec.count("ckit_parse_errors", counts.parse_error_count as u64);
            rec.count("ckit_functions", counts.function_count as u64);
            return Ok(FrontEnd::Counted(counts));
        }
        Ok(out) => out,
    };
    if watch.is_some() {
        rec.count("ckit_files_reparsed", 1);
    }
    rec.count("ckit_parse_errors", out.errors.len() as u64);
    rec.count("ckit_functions", out.unit.functions().count() as u64);
    Ok(FrontEnd::Parsed(ParsedFile {
        unit: out.unit,
        map: SourceMap::new(file, src),
        source: src.clone(),
        errors: out.errors,
        includes: ppo.includes,
    }))
}
