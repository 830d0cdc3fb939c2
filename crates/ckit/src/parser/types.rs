//! Declaration specifiers and declarators.

use super::sink::{NodeList, Sink, TypeName};
use super::{Parser, SpecFlags, NO_NAME};
use crate::ast::*;
use crate::error::{Error, Result};
use crate::span::Span;
use crate::token::TokenKind;

impl<'t, S: Sink<'t>> Parser<'t, S> {
    /// Does the current token begin a type (declaration specifiers)?
    pub(crate) fn at_type_start(&self) -> bool {
        let Some(name) = self.peek().ident() else {
            return false;
        };
        matches!(
            name,
            "void"
                | "char"
                | "short"
                | "int"
                | "long"
                | "float"
                | "double"
                | "signed"
                | "unsigned"
                | "bool"
                | "_Bool"
                | "struct"
                | "union"
                | "enum"
                | "const"
                | "volatile"
                | "static"
                | "extern"
                | "inline"
                | "register"
                | "restrict"
                | "auto"
                | "typedef"
                | "typeof"
                | "__typeof__"
                | "__typeof"
        ) || self.is_typedef(name)
    }

    /// Heuristic: does a declaration start here? Covers `at_type_start`
    /// plus the `unknown_type *name` / `unknown_type name` patterns that
    /// appear when a typedef comes from an unseen header.
    pub(crate) fn at_decl_start(&self) -> bool {
        if self.at_type_start() {
            // `ident` alone could still be an expression if the next token
            // is an operator — but for real type keywords it's always a
            // declaration. A typedef name starts one only when a
            // declarator follows: `T (x)` is a call through `T`.
            if let Some(name) = self.peek().ident() {
                if self.is_typedef(name) {
                    return matches!(self.peek_n(1), TokenKind::Ident(_) | TokenKind::Star);
                }
            }
            return true;
        }
        // `foo_t x;` / `foo_t *x;` with unknown foo_t.
        if let TokenKind::Ident(name) = self.peek() {
            if crate::token::is_keyword(name) {
                return false;
            }
            match (self.peek_n(1), self.peek_n(2)) {
                // `T name ;/=/,/[/(`  — declaration
                (TokenKind::Ident(second), follow) if !crate::token::is_keyword(second) => {
                    matches!(
                        follow,
                        TokenKind::Semi
                            | TokenKind::Assign
                            | TokenKind::Comma
                            | TokenKind::LBracket
                    )
                }
                // `T *name ;/=/,` — declaration (disambiguates `a * b;`,
                // which as an expression statement would be dead code).
                (TokenKind::Star, TokenKind::Ident(second))
                    if !crate::token::is_keyword(second) =>
                {
                    matches!(
                        self.peek_n(3),
                        TokenKind::Semi | TokenKind::Assign | TokenKind::Comma
                    )
                }
                _ => false,
            }
        } else {
            false
        }
    }

    /// Parse declaration specifiers into a base type + flags.
    pub(crate) fn parse_decl_specifiers(&mut self) -> Result<(S::Type, SpecFlags)> {
        let mut flags = SpecFlags::default();
        let mut unsigned: Option<bool> = None;
        let mut rank: Option<IntRank> = None;
        let mut longs = 0u8;
        let mut base: Option<S::Type> = None;
        let start = self.span();
        loop {
            self.skip_attributes();
            let Some(name) = self.peek().ident() else {
                break;
            };
            match name {
                "const" | "volatile" | "register" | "restrict" | "auto" => {
                    self.bump();
                }
                "static" => {
                    flags.is_static = true;
                    self.bump();
                }
                "extern" => {
                    flags.is_extern = true;
                    self.bump();
                }
                "inline" | "__inline" | "__inline__" => {
                    flags.is_inline = true;
                    self.bump();
                }
                "typedef" => {
                    flags.is_typedef = true;
                    self.bump();
                }
                "signed" => {
                    unsigned = Some(false);
                    self.bump();
                }
                "unsigned" => {
                    unsigned = Some(true);
                    self.bump();
                }
                "void" => {
                    base = Some(self.sink.leaf_type(Type::Void));
                    self.bump();
                }
                "bool" | "_Bool" => {
                    base = Some(self.sink.leaf_type(Type::Bool));
                    self.bump();
                }
                "char" => {
                    rank = Some(IntRank::Char);
                    self.bump();
                }
                "short" => {
                    rank = Some(IntRank::Short);
                    self.bump();
                }
                "int" => {
                    if rank.is_none() && longs == 0 {
                        rank = Some(IntRank::Int);
                    }
                    self.bump();
                }
                "long" => {
                    longs += 1;
                    self.bump();
                }
                "float" => {
                    base = Some(self.sink.leaf_type(Type::Float));
                    self.bump();
                }
                "typeof" | "__typeof__" | "__typeof" => {
                    // GNU typeof: the sink makes an opaque named type.
                    self.bump();
                    self.expect(&TokenKind::LParen)?;
                    let ty = if self.at_type_start() {
                        let (b, _) = self.parse_decl_specifiers()?;
                        let (_, ty, _) = self.parse_declarator(b)?;
                        self.sink.typeof_type(&ty)
                    } else {
                        let e = self.parse_expr()?;
                        self.sink.typeof_expr(&e)
                    };
                    self.expect(&TokenKind::RParen)?;
                    base = Some(ty);
                }
                "double" => {
                    base = Some(self.sink.leaf_type(Type::Double));
                    self.bump();
                }
                "struct" | "union" => {
                    let is_union = name == "union";
                    self.bump();
                    self.skip_attributes();
                    let tag = match *self.peek() {
                        TokenKind::Ident(n) => {
                            self.bump();
                            n
                        }
                        _ => NO_NAME,
                    };
                    // Inline body in a declaration context (e.g. inside
                    // another struct): parse and discard the body shape —
                    // callers that need the fields use
                    // `try_parse_tag_definition` instead.
                    if self.at(&TokenKind::LBrace) {
                        self.bump();
                        let _fields = self.parse_struct_body()?;
                    }
                    let kind = if is_union {
                        TypeName::Union
                    } else {
                        TypeName::Struct
                    };
                    base = Some(self.sink.named_type(kind, tag));
                }
                "enum" => {
                    self.bump();
                    let tag = match *self.peek() {
                        TokenKind::Ident(n) => {
                            self.bump();
                            n
                        }
                        _ => NO_NAME,
                    };
                    if self.at(&TokenKind::LBrace) {
                        // Skip the enumerator list.
                        let mut depth = 0usize;
                        loop {
                            match self.peek() {
                                TokenKind::LBrace => depth += 1,
                                TokenKind::RBrace => {
                                    depth -= 1;
                                    if depth == 0 {
                                        self.bump();
                                        break;
                                    }
                                }
                                TokenKind::Eof => break,
                                _ => {}
                            }
                            self.bump();
                        }
                    }
                    base = Some(self.sink.named_type(TypeName::Enum, tag));
                }
                other => {
                    // Typedef name — only if we have no base yet and the
                    // name is known (or nothing else matched and an
                    // identifier follows, the unknown-typedef heuristic).
                    if base.is_none()
                        && rank.is_none()
                        && longs == 0
                        && unsigned.is_none()
                        && !crate::token::is_keyword(other)
                    {
                        let known = self.is_typedef(other);
                        let next_is_declaratorish =
                            matches!(self.peek_n(1), TokenKind::Ident(_) | TokenKind::Star);
                        if known || next_is_declaratorish {
                            base = Some(self.sink.named_type(TypeName::Typedef, name));
                            self.bump();
                        }
                    }
                    break;
                }
            }
            if base.is_some() {
                // A base type is set; stop unless qualifiers follow.
                if !matches!(
                    self.peek().ident(),
                    Some("const" | "volatile" | "restrict" | "static" | "extern" | "inline")
                ) {
                    break;
                }
            }
        }
        let ty = if let Some(b) = base {
            return Ok((b, flags));
        } else if longs > 0 {
            Type::Int {
                unsigned: unsigned.unwrap_or(false),
                rank: if longs >= 2 {
                    IntRank::LongLong
                } else {
                    IntRank::Long
                },
            }
        } else if let Some(r) = rank {
            Type::Int {
                unsigned: unsigned.unwrap_or(false),
                rank: r,
            }
        } else if let Some(u) = unsigned {
            Type::Int {
                unsigned: u,
                rank: IntRank::Int,
            }
        } else {
            return Err(Error::parse(
                format!("expected type, found {}", self.peek().describe()),
                start,
            ));
        };
        Ok((self.sink.leaf_type(ty), flags))
    }

    /// Parse a declarator against a base type. Returns the declared name
    /// (empty for abstract declarators), the full type, and the name span.
    ///
    /// Handles pointers (`*`, with qualifiers), parenthesized declarators
    /// (function pointers), array suffixes, and function parameter lists.
    pub(crate) fn parse_declarator(&mut self, base: S::Type) -> Result<(&'t str, S::Type, Span)> {
        let mut ty = base;
        self.skip_attributes();
        while self.at(&TokenKind::Star) {
            self.bump();
            // qualifiers after `*`
            while matches!(self.peek().ident(), Some("const" | "volatile" | "restrict")) {
                self.bump();
            }
            self.skip_attributes();
            ty = self.sink.ptr(ty);
        }
        self.skip_attributes();
        // Direct declarator.
        let (name, name_span, inner_is_ptr) = match *self.peek() {
            TokenKind::Ident(n) if !crate::token::is_keyword(n) => {
                let sp = self.span();
                self.bump();
                (n, sp, false)
            }
            TokenKind::LParen if self.is_paren_declarator() => {
                // `( * name )` — function pointer / grouped declarator.
                self.bump();
                while self.eat(&TokenKind::Star) {
                    while matches!(self.peek().ident(), Some("const" | "volatile" | "restrict")) {
                        self.bump();
                    }
                }
                self.skip_attributes();
                let (n, sp) = match *self.peek() {
                    TokenKind::Ident(n) => {
                        let sp = self.span();
                        self.bump();
                        (n, sp)
                    }
                    _ => (NO_NAME, self.span()),
                };
                self.expect(&TokenKind::RParen)?;
                (n, sp, true)
            }
            _ => (NO_NAME, self.span(), false),
        };
        // Suffixes: arrays and parameter lists.
        loop {
            if self.at(&TokenKind::LBracket) {
                self.bump();
                let len = match self.peek() {
                    TokenKind::Int { value, .. } => {
                        let v = *value;
                        self.bump();
                        Some(v)
                    }
                    TokenKind::RBracket => None,
                    _ => {
                        // Arbitrary constant expression; evaluate lazily as
                        // unknown length.
                        let _ = self.parse_conditional()?;
                        None
                    }
                };
                self.expect(&TokenKind::RBracket)?;
                ty = self.sink.array(ty, len);
                continue;
            }
            if self.at(&TokenKind::LParen) {
                self.bump();
                let (params, variadic) = self.parse_param_list()?;
                self.expect(&TokenKind::RParen)?;
                let fty = self.sink.func_type(ty, &params, variadic);
                self.last_params = params;
                ty = if inner_is_ptr {
                    self.sink.ptr(fty)
                } else {
                    fty
                };
                self.skip_attributes();
                continue;
            }
            break;
        }
        self.skip_attributes();
        Ok((name, ty, name_span))
    }

    fn is_paren_declarator(&self) -> bool {
        // `(*` or `(^` introduces a grouped declarator; `(type` would be a
        // parameter list of an unnamed function declarator (rare; ignore).
        matches!(self.peek_n(1), TokenKind::Star)
    }

    fn parse_param_list(&mut self) -> Result<(S::List<S::Param>, bool)> {
        let mut params = S::List::default();
        let mut variadic = false;
        if self.at(&TokenKind::RParen) {
            return Ok((params, variadic));
        }
        // `(void)`
        if self.at_ident("void") && self.peek_n(1) == &TokenKind::RParen {
            self.bump();
            return Ok((params, variadic));
        }
        loop {
            if self.at(&TokenKind::Ellipsis) {
                self.bump();
                variadic = true;
                break;
            }
            let start = self.span();
            let (base, _) = self.parse_decl_specifiers()?;
            let (name, ty, _) = self.parse_declarator(base)?;
            let span = start.to(self.prev_span());
            params.push(self.sink.param(name, ty, span));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok((params, variadic))
    }

    /// Retrieve the parameters recorded for the most recently parsed
    /// function declarator (see `last_params`). Falls back to synthesized
    /// unnamed parameters when counts disagree (nested declarators).
    pub(crate) fn take_last_params(&mut self, expected: usize) -> S::List<S::Param> {
        let mut params = std::mem::take(&mut self.last_params);
        params.truncate(expected);
        params
    }
}
