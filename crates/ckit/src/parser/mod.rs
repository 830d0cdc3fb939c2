//! Recursive-descent parser for the kernel-C subset.
//!
//! Top-level recovery: if an item fails to parse, the error is recorded and
//! the parser skips to a synchronization point (`;` or a balanced `}`) and
//! continues — a static analyzer must survive files it only half
//! understands, the way Smatch does.

mod expr;
mod sink;
mod stmt;
mod types;

#[cfg(test)]
mod tests;

use crate::ast::*;
use crate::error::{Error, Result};
use crate::span::Span;
use crate::token::{Token, TokenKind};
use sink::{Ast, Count, NodeList, Sink, TypeName};
use std::collections::HashSet;
use std::sync::OnceLock;

/// Typedef names assumed known even without their headers: the common
/// kernel and libc type vocabulary. Anything else can be registered through
/// [`ParserConfig::typedefs`].
const BUILTIN_TYPEDEFS: &[&str] = &[
    "u8",
    "u16",
    "u32",
    "u64",
    "s8",
    "s16",
    "s32",
    "s64",
    "__u8",
    "__u16",
    "__u32",
    "__u64",
    "__s8",
    "__s16",
    "__s32",
    "__s64",
    "uint8_t",
    "uint16_t",
    "uint32_t",
    "uint64_t",
    "int8_t",
    "int16_t",
    "int32_t",
    "int64_t",
    "size_t",
    "ssize_t",
    "ptrdiff_t",
    "uintptr_t",
    "intptr_t",
    "loff_t",
    "off_t",
    "pid_t",
    "gfp_t",
    "dma_addr_t",
    "phys_addr_t",
    "atomic_t",
    "atomic64_t",
    "atomic_long_t",
    "seqcount_t",
    "seqlock_t",
    "spinlock_t",
    "raw_spinlock_t",
    "rwlock_t",
    "wait_queue_head_t",
    "completion_t",
    "ktime_t",
    "cpumask_t",
    "bool_t",
    "uint",
    "ulong",
    "ushort",
    "uchar",
];

/// The [`BUILTIN_TYPEDEFS`] lookup set, built once per process.
fn builtin_typedefs() -> &'static HashSet<&'static str> {
    static SET: OnceLock<HashSet<&'static str>> = OnceLock::new();
    SET.get_or_init(|| BUILTIN_TYPEDEFS.iter().copied().collect())
}

/// Declaration-specifier keywords and kernel annotations that we accept and
/// discard (they never affect the barrier analysis).
const SKIPPED_ATTRS: &[&str] = &[
    "__rcu",
    "__percpu",
    "__user",
    "__iomem",
    "__kernel",
    "__force",
    "__init",
    "__exit",
    "__initdata",
    "__exitdata",
    "__read_mostly",
    "__always_inline",
    "__maybe_unused",
    "__must_check",
    "__used",
    "__cold",
    "__hot",
    "__weak",
    "__packed",
    "__pure",
    "__noreturn",
    "noinline",
    "asmlinkage",
    "__cacheline_aligned",
    "__cacheline_aligned_in_smp",
    "__randomize_layout",
    "__visible",
    "__ref",
    "__refdata",
    "__sched",
    "__latent_entropy",
    "__private",
];

/// Can `name` be a kernel annotation [`Parser::skip_attributes`] skips?
/// A first-byte filter in front of the [`SKIPPED_ATTRS`] scan: nearly
/// every identifier fails it at once.
fn may_be_attribute(name: &str) -> bool {
    matches!(name.as_bytes().first(), Some(b'_' | b'a' | b'n'))
}

/// The name of an abstract declarator (and of an anonymous tag).
const NO_NAME: &str = "";

/// Parser options.
#[derive(Clone, Debug, Default)]
pub struct ParserConfig {
    /// Additional typedef names to recognize.
    pub typedefs: Vec<String>,
}

/// Parse outcome: the (possibly partial) unit and item-level errors that
/// were recovered from.
#[derive(Clone, Debug)]
pub struct ParseOutput {
    pub unit: TranslationUnit,
    pub errors: Vec<Error>,
}

/// What a counting parse ([`count_tokens`]) reports: exactly the numbers a
/// full parse would give, and no tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Function definitions, as `unit.functions().count()` would give.
    pub function_count: usize,
    /// Recovered item-level errors, as `errors.len()` would give.
    pub parse_error_count: usize,
    /// Did some call's callee, a bare identifier, satisfy the watch
    /// predicate? A superset of what a walk of the full AST's function
    /// bodies finds: calls outside function bodies, and in items that
    /// later failed to parse, count too.
    pub watched_call: bool,
}

/// Parse a preprocessed token stream.
pub fn parse_tokens(tokens: Vec<Token<'_>>, config: &ParserConfig) -> ParseOutput {
    parse_token_slice(&tokens, config)
}

/// Parse a preprocessed token stream without taking it, so the same
/// tokens can be parsed again (see [`count_tokens`]).
pub fn parse_token_slice(tokens: &[Token<'_>], config: &ParserConfig) -> ParseOutput {
    let mut p = Parser::new(tokens, config, Ast::default());
    let items = p.parse_unit();
    ParseOutput {
        unit: TranslationUnit { items },
        errors: p.errors,
    }
}

/// Run the grammar over a token stream without building a tree: the
/// same productions and recovery as [`parse_tokens`], so the counts match
/// a full parse exactly. `watch` is asked about each call whose callee is
/// a bare identifier, and only about those.
pub fn count_tokens(
    tokens: &[Token<'_>],
    config: &ParserConfig,
    watch: &dyn Fn(&str) -> bool,
) -> Counts {
    let mut p = Parser::new(tokens, config, Count { watch, hit: false });
    p.parse_unit();
    Counts {
        function_count: p.functions,
        parse_error_count: p.errors.len(),
        watched_call: p.sink.hit,
    }
}

pub(crate) struct Parser<'t, S: Sink<'t>> {
    toks: &'t [Token<'t>],
    pos: usize,
    sink: S,
    /// Typedef names this file declares, plus [`ParserConfig::typedefs`];
    /// [`BUILTIN_TYPEDEFS`] is looked up separately.
    typedefs: HashSet<&'t str>,
    errors: Vec<Error>,
    /// Function definitions parsed so far.
    functions: usize,
    /// Parameters of the most recently parsed function declarator; consumed
    /// by `take_last_params` when a declarator turns out to be a function
    /// definition or prototype.
    last_params: S::List<S::Param>,
}

impl<'t, S: Sink<'t>> Parser<'t, S> {
    fn new(toks: &'t [Token<'t>], config: &'t ParserConfig, sink: S) -> Self {
        Parser {
            toks,
            pos: 0,
            sink,
            typedefs: config.typedefs.iter().map(String::as_str).collect(),
            errors: Vec::new(),
            functions: 0,
            last_params: Default::default(),
        }
    }

    /// Is `name` a known typedef name?
    pub(crate) fn is_typedef(&self, name: &str) -> bool {
        builtin_typedefs().contains(name)
            || (!self.typedefs.is_empty() && self.typedefs.contains(name))
    }

    // ---- cursor -------------------------------------------------------

    pub(crate) fn peek(&self) -> &'t TokenKind<'t> {
        &self.toks[self.pos.min(self.toks.len() - 1)].kind
    }

    pub(crate) fn peek_n(&self, n: usize) -> &'t TokenKind<'t> {
        &self.toks[(self.pos + n).min(self.toks.len() - 1)].kind
    }

    pub(crate) fn span(&self) -> Span {
        self.toks[self.pos.min(self.toks.len() - 1)].span
    }

    pub(crate) fn prev_span(&self) -> Span {
        self.toks[self.pos.saturating_sub(1).min(self.toks.len() - 1)].span
    }

    pub(crate) fn bump(&mut self) {
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
    }

    pub(crate) fn at(&self, kind: &TokenKind<'_>) -> bool {
        self.peek() == kind
    }

    pub(crate) fn at_ident(&self, name: &str) -> bool {
        self.peek().ident() == Some(name)
    }

    pub(crate) fn eat(&mut self, kind: &TokenKind<'_>) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    pub(crate) fn eat_ident(&mut self, name: &str) -> bool {
        if self.at_ident(name) {
            self.bump();
            true
        } else {
            false
        }
    }

    pub(crate) fn expect(&mut self, kind: &TokenKind<'_>) -> Result<Span> {
        if self.at(kind) {
            let sp = self.span();
            self.bump();
            Ok(sp)
        } else {
            Err(Error::parse(
                format!(
                    "expected `{}`, found {}",
                    kind.lexeme(),
                    self.peek().describe()
                ),
                self.span(),
            ))
        }
    }

    pub(crate) fn expect_ident(&mut self) -> Result<(&'t str, Span)> {
        match *self.peek() {
            TokenKind::Ident(s) => {
                let sp = self.span();
                self.bump();
                Ok((s, sp))
            }
            other => Err(Error::parse(
                format!("expected identifier, found {}", other.describe()),
                self.span(),
            )),
        }
    }

    pub(crate) fn at_eof(&self) -> bool {
        self.peek().is_eof()
    }

    /// Skip `__attribute__((...))` and bare kernel annotation identifiers.
    pub(crate) fn skip_attributes(&mut self) {
        while let Some(name) = self.peek().ident() {
            if !may_be_attribute(name) {
                break;
            }
            if name == "__attribute__" || name == "__attribute" {
                self.bump();
                if self.at(&TokenKind::LParen) {
                    self.skip_balanced_parens();
                }
                continue;
            }
            // `__aligned(8)`, `__section("...")`-style annotations.
            if matches!(name, "__aligned" | "__section" | "____cacheline_aligned")
                && self.peek_n(1) == &TokenKind::LParen
            {
                self.bump();
                self.skip_balanced_parens();
                continue;
            }
            if SKIPPED_ATTRS.contains(&name) {
                self.bump();
                continue;
            }
            break;
        }
    }

    fn skip_balanced_parens(&mut self) {
        debug_assert!(self.at(&TokenKind::LParen));
        let mut depth = 0usize;
        loop {
            match self.peek() {
                TokenKind::LParen => depth += 1,
                TokenKind::RParen => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                TokenKind::Eof => return,
                _ => {}
            }
            self.bump();
        }
    }

    // ---- items --------------------------------------------------------

    fn parse_unit(&mut self) -> S::List<S::Item> {
        let mut items = S::List::default();
        while !self.at_eof() {
            let before = self.pos;
            match self.parse_item() {
                Ok(new_items) => items.append(new_items),
                Err(e) => {
                    self.errors.push(e);
                    self.recover_item(before);
                }
            }
        }
        items
    }

    /// Skip to the next plausible item start after a parse error.
    fn recover_item(&mut self, before: usize) {
        if self.pos == before {
            self.bump(); // guarantee progress
        }
        let mut depth = 0usize;
        while !self.at_eof() {
            match self.peek() {
                TokenKind::LBrace => depth += 1,
                TokenKind::RBrace => {
                    if depth <= 1 {
                        self.bump();
                        self.eat(&TokenKind::Semi);
                        return;
                    }
                    depth -= 1;
                }
                TokenKind::Semi if depth == 0 => {
                    self.bump();
                    return;
                }
                _ => {}
            }
            self.bump();
        }
    }

    /// Parse one top-level item. May produce several AST items (e.g.
    /// `struct s { ... } v;` yields a struct def and a global).
    fn parse_item(&mut self) -> Result<S::List<S::Item>> {
        self.skip_attributes();
        if self.eat(&TokenKind::Semi) {
            return Ok(S::List::default());
        }
        // `typedef ...`
        if self.at_ident("typedef") {
            return self.parse_typedef().map(one);
        }
        // struct/union/enum definitions (possibly with trailing declarators).
        if self.at_ident("struct") || self.at_ident("union") || self.at_ident("enum") {
            if let Some(items) = self.try_parse_tag_definition()? {
                return Ok(items);
            }
        }
        // Everything else: specifiers + declarator(s) → function or global.
        self.parse_function_or_global()
    }

    fn parse_typedef(&mut self) -> Result<S::Item> {
        let start = self.span();
        self.bump(); // typedef
        let (base, _flags) = self.parse_decl_specifiers()?;
        let (name, ty, _dspan) = self.parse_declarator(base.clone())?;
        let span = start.to(self.span());
        self.expect(&TokenKind::Semi)?;
        if name.is_empty() {
            return Err(Error::parse("typedef without a name", span));
        }
        self.typedefs.insert(name);
        Ok(self.sink.typedef(name, ty, span))
    }

    /// Try to parse `struct X { ... } [declarators] ;` or `enum X { ... };`.
    /// Returns `None` if this is just a type reference (`struct X *p = ...`),
    /// letting the general declaration path handle it.
    fn try_parse_tag_definition(&mut self) -> Result<Option<S::List<S::Item>>> {
        let start = self.span();
        let keyword = self.peek().ident().unwrap_or("");
        // Lookahead: `struct [name] {` is a definition.
        let has_name = matches!(self.peek_n(1), TokenKind::Ident(_));
        let brace_off = if has_name { 2 } else { 1 };
        if self.peek_n(brace_off) != &TokenKind::LBrace {
            return Ok(None);
        }
        self.bump(); // struct/union/enum
        let name = if has_name {
            self.expect_ident()?.0
        } else {
            NO_NAME
        };
        self.expect(&TokenKind::LBrace)?;
        let mut items = S::List::default();
        let is_union = keyword == "union";
        if keyword == "enum" {
            let variants = self.parse_enum_body()?;
            let span = start.to(self.prev_span());
            items.push(self.sink.enum_def(name, variants, span));
        } else {
            let fields = self.parse_struct_body()?;
            let span = start.to(self.prev_span());
            items.push(self.sink.struct_def(name, is_union, fields, span));
        }
        self.skip_attributes();
        // Optional trailing declarators: `struct s { ... } a, *b;`
        if !self.at(&TokenKind::Semi) {
            let kind = match keyword {
                "enum" => TypeName::Enum,
                "union" => TypeName::Union,
                _ => TypeName::Struct,
            };
            let base = self.sink.named_type(kind, name);
            let decl = self.parse_declarator_list(base, start)?;
            items.push(self.sink.global(decl));
        }
        self.expect(&TokenKind::Semi)?;
        Ok(Some(items))
    }

    pub(crate) fn parse_struct_body(&mut self) -> Result<S::List<S::Field>> {
        let mut fields = S::List::default();
        while !self.at(&TokenKind::RBrace) && !self.at_eof() {
            self.skip_attributes();
            if self.eat(&TokenKind::Semi) {
                continue;
            }
            // Anonymous nested struct/union: flatten its fields, matching
            // how C name lookup works for anonymous members.
            if (self.at_ident("struct") || self.at_ident("union"))
                && self.peek_n(1) == &TokenKind::LBrace
            {
                self.bump();
                self.expect(&TokenKind::LBrace)?;
                let inner = self.parse_struct_body()?;
                self.skip_attributes();
                if self.at(&TokenKind::Semi) {
                    // truly anonymous: flatten
                    fields.append(inner);
                    self.bump();
                } else {
                    // named member of anonymous struct type: keep the member
                    let (mname, msp) = self.expect_ident()?;
                    let ty = self.sink.named_type(TypeName::Struct, NO_NAME);
                    fields.push(self.sink.field(mname, ty, msp));
                    self.expect(&TokenKind::Semi)?;
                }
                continue;
            }
            let (base, _) = self.parse_decl_specifiers()?;
            loop {
                let (name, ty, dspan) = self.parse_declarator(base.clone())?;
                // Bitfield `int x : 3;`
                if self.eat(&TokenKind::Colon) {
                    let _width = self.parse_conditional()?;
                }
                if !name.is_empty() {
                    fields.push(self.sink.field(name, ty, dspan));
                }
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::Semi)?;
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(fields)
    }

    fn parse_enum_body(&mut self) -> Result<S::List<S::Variant>> {
        let mut variants = S::List::default();
        while !self.at(&TokenKind::RBrace) && !self.at_eof() {
            let (name, _) = self.expect_ident()?;
            let value = if self.eat(&TokenKind::Assign) {
                Some(self.parse_conditional()?)
            } else {
                None
            };
            variants.push(self.sink.variant(name, value));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(variants)
    }

    fn parse_function_or_global(&mut self) -> Result<S::List<S::Item>> {
        let start = self.span();
        let (base, flags) = self.parse_decl_specifiers()?;
        // `int;` — pointless but legal-ish; skip.
        if self.eat(&TokenKind::Semi) {
            return Ok(S::List::default());
        }
        let (name, ty, _dspan) = self.parse_declarator(base.clone())?;
        self.skip_attributes();
        // Function definition?
        if let Some(arity) = S::func_arity(&ty) {
            if self.at(&TokenKind::LBrace) {
                let params = self.take_last_params(arity);
                let sig_span = start.to(self.prev_span());
                let sig = self.sink.sig(name, &ty, params, flags, sig_span);
                self.expect(&TokenKind::LBrace)?;
                let body = self.parse_block_stmts()?;
                let span = start.to(self.prev_span());
                self.functions += 1;
                return Ok(one(self.sink.function(sig, body, span)));
            }
            // Prototype.
            if self.at(&TokenKind::Semi) {
                self.bump();
                let params = self.take_last_params(arity);
                let sig = self
                    .sink
                    .sig(name, &ty, params, flags, start.to(self.prev_span()));
                return Ok(one(self.sink.prototype(sig)));
            }
        }
        // Global variable(s).
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.parse_initializer()?)
        } else {
            None
        };
        let mut decls = S::List::default();
        let span = start.to(self.prev_span());
        decls.push(self.sink.declarator(name, ty, init, span));
        while self.eat(&TokenKind::Comma) {
            let (n2, t2, sp2) = self.parse_declarator(base.clone())?;
            let init2 = if self.eat(&TokenKind::Assign) {
                Some(self.parse_initializer()?)
            } else {
                None
            };
            decls.push(self.sink.declarator(n2, t2, init2, sp2));
        }
        self.expect(&TokenKind::Semi)?;
        let decls = self.sink.decls(decls, start.to(self.prev_span()));
        Ok(one(self.sink.global(decls)))
    }

    /// Parse `base d1 [, d2]* ;`-style declarator lists (used after a tag
    /// definition). Does not consume the trailing `;`.
    fn parse_declarator_list(&mut self, base: S::Type, start: Span) -> Result<S::DeclStmt> {
        let mut decls = S::List::default();
        loop {
            let (name, ty, dspan) = self.parse_declarator(base.clone())?;
            let init = if self.eat(&TokenKind::Assign) {
                Some(self.parse_initializer()?)
            } else {
                None
            };
            decls.push(self.sink.declarator(name, ty, init, dspan));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(self.sink.decls(decls, start.to(self.prev_span())))
    }
}

/// A one-node list.
fn one<T, L: NodeList<T>>(node: T) -> L {
    let mut list = L::default();
    list.push(node);
    list
}

#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SpecFlags {
    pub is_static: bool,
    pub is_inline: bool,
    pub is_extern: bool,
    pub is_typedef: bool,
}
