//! Preprocessor-lite.
//!
//! Operates on the raw token stream from [`crate::lexer`]. Supported, which
//! covers everything the corpus generator and the paper fixtures emit plus
//! the common patterns in kernel C:
//!
//! * `#include` — recorded (for provenance) and skipped; we analyze single
//!   translation units the way Smatch does per-file runs.
//! * `#define` / `#undef` — object-like and function-like macros, with
//!   argument substitution and a recursion guard. `#`/`##` operators are not
//!   expanded (rare around barrier code); their tokens are passed through.
//! * `#if` / `#ifdef` / `#ifndef` / `#elif` / `#else` / `#endif` — full
//!   conditional evaluation with `defined(X)`, integer arithmetic, logical
//!   and comparison operators. Undefined identifiers evaluate to 0, matching
//!   cpp.
//! * `#pragma`, `#error`, `#warning` — skipped.
//!
//! Expanded tokens keep the span of the macro *invocation site* so that all
//! downstream diagnostics and patches point into real source text; their
//! text travels in their payloads.

use crate::error::{Error, Result};
use crate::span::Span;
use crate::token::{Token, TokenKind};
use std::collections::{BTreeSet, HashMap};
use std::sync::Mutex;

/// A macro definition, borrowing its text from the source that defined
/// it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MacroDef<'src> {
    pub name: &'src str,
    /// `None` for object-like macros; parameter names for function-like.
    pub params: Option<Vec<&'src str>>,
    /// Whether a function-like macro is variadic (`...` last parameter).
    pub variadic: bool,
    pub body: Vec<Token<'src>>,
}

/// Preprocessor configuration: the initial define set (think `-D` flags and
/// the kernel config).
#[derive(Clone, Debug, Default)]
pub struct PpConfig {
    /// Its text lives as long as the process (see [`config_text`]), so the
    /// tokens a pass expands these macros to outlive the pass and the
    /// config both.
    pub defines: HashMap<String, MacroDef<'static>>,
}

impl PpConfig {
    /// Define an object-like macro expanding to a single integer.
    pub fn define_int(&mut self, name: &str, value: u64) -> &mut Self {
        self.defines.insert(
            name.to_string(),
            MacroDef {
                name: config_text(name),
                params: None,
                variadic: false,
                body: vec![Token::new(
                    TokenKind::Int {
                        raw: config_text(&value.to_string()),
                        value,
                    },
                    Span::DUMMY,
                )],
            },
        );
        self
    }
}

/// Text a [`PpConfig`] makes up rather than finds in a file: kept once
/// per distinct string for the life of the process, since a token
/// borrows its text and a config's tokens end up in every file's output.
/// Configs are few and small, so this set stays tiny.
fn config_text(text: &str) -> &'static str {
    static TEXT: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut set = TEXT.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&kept) = set.get(text) {
        return kept;
    }
    let kept: &'static str = Box::leak(text.into());
    set.insert(kept);
    kept
}

/// Result of preprocessing one file.
#[derive(Clone, Debug, Default)]
pub struct PpOutput<'src> {
    /// Token stream ready for the parser (no `Hash` tokens, `Eof`-terminated).
    pub tokens: Vec<Token<'src>>,
    /// Include paths seen, in order.
    pub includes: Vec<String>,
    /// Macros defined by the file itself (after processing).
    pub defines: HashMap<&'src str, MacroDef<'src>>,
}

/// Preprocess a lexed token stream.
pub fn preprocess<'src>(tokens: Vec<Token<'src>>, config: &PpConfig) -> Result<PpOutput<'src>> {
    // Most files define no macros, so the output is about as long as
    // the input: one allocation instead of a doubling series.
    let mut pp = Pp {
        out: Vec::with_capacity(tokens.len() + 1),
        toks: tokens,
        pos: 0,
        macros: (config.defines.values())
            .map(|def| (def.name, def.clone()))
            .collect(),
        includes: Vec::new(),
        // Condition stack: (currently_active, any_branch_taken_yet)
        conds: Vec::new(),
    };
    pp.run()?;
    let eof_span = pp.out.last().map(|t| t.span).unwrap_or(Span::DUMMY);
    pp.out.push(Token::new(TokenKind::Eof, eof_span));
    Ok(PpOutput {
        tokens: pp.out,
        includes: pp.includes,
        defines: pp.macros,
    })
}

struct Pp<'src> {
    /// The input.
    toks: Vec<Token<'src>>,
    pos: usize,
    macros: HashMap<&'src str, MacroDef<'src>>,
    out: Vec<Token<'src>>,
    includes: Vec<String>,
    conds: Vec<(bool, bool)>,
}

impl<'src> Pp<'src> {
    fn active(&self) -> bool {
        self.conds.iter().all(|&(a, _)| a)
    }

    fn peek(&self) -> &Token<'src> {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    /// The current token; advance.
    fn take(&mut self) -> Token<'src> {
        self.pos += 1;
        self.toks[self.pos - 1]
    }

    fn run(&mut self) -> Result<()> {
        while self.pos < self.toks.len() {
            let head = &self.toks[self.pos];
            match head.kind {
                TokenKind::Eof => break,
                TokenKind::Hash if head.at_line_start => {
                    let span = head.span;
                    self.pos += 1;
                    self.directive(span)?;
                }
                _ => {
                    let tok = self.take();
                    if self.active() {
                        // Fast path: a token that can't start a macro
                        // expansion goes straight to the output. This is
                        // the overwhelmingly common case (most files
                        // define no macros at all), and skipping the
                        // general expansion machinery avoids a Vec
                        // allocation per token.
                        let expandable = tok
                            .kind
                            .ident()
                            .is_some_and(|n| self.macros.contains_key(n));
                        if expandable {
                            self.emit(tok)?;
                        } else {
                            self.out.push(tok);
                        }
                    }
                }
            }
        }
        if self.conds.last().is_some() {
            return Err(Error::pp(
                "unterminated #if/#ifdef block",
                self.toks.last().map(|t| t.span).unwrap_or(Span::DUMMY),
            ));
        }
        Ok(())
    }

    /// Collect the remaining tokens of the current directive line.
    fn directive_line(&mut self) -> Vec<Token<'src>> {
        let mut line = Vec::new();
        while self.pos < self.toks.len() {
            let t = &self.toks[self.pos];
            if t.kind.is_eof() || t.at_line_start {
                break;
            }
            line.push(self.take());
        }
        line
    }

    fn directive(&mut self, hash_span: Span) -> Result<()> {
        let line = self.directive_line();
        let Some(first) = line.first() else {
            return Ok(()); // null directive `#`
        };
        let Some(name) = first.kind.ident() else {
            // `#if` with weird shape etc.; tolerate unknown directives.
            return Ok(());
        };
        let rest = &line[1..];
        match name {
            "include" if self.active() => {
                let path = rest
                    .iter()
                    .map(|t| match &t.kind {
                        TokenKind::Str(s) => s.trim_matches('"'),
                        TokenKind::Ident(n) => n,
                        k => k.lexeme(),
                    })
                    .collect::<String>();
                self.includes.push(path);
            }
            "define" if self.active() => {
                self.handle_define(rest, hash_span)?;
            }
            "undef" if self.active() => {
                if let Some(n) = rest.first().and_then(|t| t.kind.ident()) {
                    self.macros.remove(n);
                }
            }
            "ifdef" | "ifndef" => {
                let defined = rest
                    .first()
                    .and_then(|t| t.kind.ident())
                    .map(|n| self.macros.contains_key(n))
                    .unwrap_or(false);
                let val = if name == "ifdef" { defined } else { !defined };
                let active = self.active() && val;
                self.conds.push((active, active));
            }
            "if" => {
                let val = self.active() && self.eval_condition(rest, hash_span)? != 0;
                self.conds.push((val, val));
            }
            "elif" => {
                let Some((_, taken)) = self.conds.pop() else {
                    return Err(Error::pp("#elif without #if", hash_span));
                };
                let parent_active = self.active();
                let val = parent_active && !taken && self.eval_condition(rest, hash_span)? != 0;
                self.conds.push((val, taken || val));
            }
            "else" => {
                let Some((_, taken)) = self.conds.pop() else {
                    return Err(Error::pp("#else without #if", hash_span));
                };
                let parent_active = self.active();
                let val = parent_active && !taken;
                self.conds.push((val, true));
            }
            "endif" if self.conds.pop().is_none() => {
                return Err(Error::pp("#endif without #if", hash_span));
            }
            "pragma" | "error" | "warning" | "line" => {}
            _ => {} // unknown directive: skip, keep going
        }
        Ok(())
    }

    fn handle_define(&mut self, rest: &[Token<'src>], span: Span) -> Result<()> {
        let Some(name_tok) = rest.first() else {
            return Err(Error::pp("#define without a name", span));
        };
        let Some(name) = name_tok.kind.ident() else {
            return Err(Error::pp("#define name must be an identifier", span));
        };
        // Function-like iff `(` immediately follows the name with no space.
        // We approximate "no space" by adjacency of spans, which the lexer
        // guarantees for adjacent source bytes.
        let is_fnlike = rest.len() > 1
            && rest[1].kind == TokenKind::LParen
            && rest[1].span.lo == name_tok.span.hi;
        if !is_fnlike {
            self.macros.insert(
                name,
                MacroDef {
                    name,
                    params: None,
                    variadic: false,
                    body: rest[1..].to_vec(),
                },
            );
            return Ok(());
        }
        let mut params = Vec::new();
        let mut variadic = false;
        let mut i = 2;
        loop {
            let Some(t) = rest.get(i) else {
                return Err(Error::pp("unterminated macro parameter list", span));
            };
            match &t.kind {
                TokenKind::RParen => {
                    i += 1;
                    break;
                }
                TokenKind::Comma => i += 1,
                TokenKind::Ellipsis => {
                    variadic = true;
                    i += 1;
                }
                TokenKind::Ident(p) => {
                    params.push(*p);
                    i += 1;
                }
                _ => {
                    return Err(Error::pp(
                        format!("unexpected {} in macro parameter list", t.kind.describe()),
                        t.span,
                    ))
                }
            }
        }
        self.macros.insert(
            name,
            MacroDef {
                name,
                params: Some(params),
                variadic,
                body: rest[i..].to_vec(),
            },
        );
        Ok(())
    }

    /// Emit a token, expanding macros.
    fn emit(&mut self, tok: Token<'src>) -> Result<()> {
        let expanded = self.expand_token(tok, &mut Vec::new())?;
        self.out.extend(expanded);
        Ok(())
    }

    /// Expand one token (possibly consuming following argument tokens from
    /// the main stream for function-like macros). `hide` is the set of macro
    /// names currently being expanded — the standard recursion guard.
    fn expand_token(
        &mut self,
        tok: Token<'src>,
        hide: &mut Vec<&'src str>,
    ) -> Result<Vec<Token<'src>>> {
        let Some(name) = tok.kind.ident() else {
            return Ok(vec![tok]);
        };
        if hide.contains(&name) {
            return Ok(vec![tok]);
        }
        let Some(def) = self.macros.get(name).cloned() else {
            return Ok(vec![tok]);
        };
        match def.params {
            None => {
                hide.push(name);
                let result = self.expand_body(&def.body, &HashMap::new(), tok.span, hide)?;
                hide.pop();
                Ok(result)
            }
            Some(ref params) => {
                // Function-like macro: only expands when followed by `(`.
                if self.peek().kind != TokenKind::LParen {
                    return Ok(vec![tok]);
                }
                self.pos += 1; // consume `(`
                let args = self.collect_args(tok.span)?;
                if args.len() < params.len() && !(params.is_empty() && args.is_empty()) {
                    // Tolerate too-few args (kernel macros get weird); pad.
                }
                let mut binding: HashMap<&str, Vec<Token<'src>>> = HashMap::new();
                for (i, &p) in params.iter().enumerate() {
                    binding.insert(p, args.get(i).cloned().unwrap_or_default());
                }
                if def.variadic {
                    let extra: Vec<Token<'src>> = args
                        .iter()
                        .skip(params.len())
                        .enumerate()
                        .flat_map(|(i, a)| {
                            let mut v = Vec::new();
                            if i > 0 {
                                v.push(Token::new(TokenKind::Comma, tok.span));
                            }
                            v.extend_from_slice(a);
                            v
                        })
                        .collect();
                    binding.insert("__VA_ARGS__", extra);
                }
                hide.push(name);
                let result = self.expand_body(&def.body, &binding, tok.span, hide)?;
                hide.pop();
                Ok(result)
            }
        }
    }

    /// Collect macro call arguments after the opening paren (consumed).
    fn collect_args(&mut self, call_span: Span) -> Result<Vec<Vec<Token<'src>>>> {
        let mut args: Vec<Vec<Token<'src>>> = Vec::new();
        let mut cur: Vec<Token<'src>> = Vec::new();
        let mut depth = 0usize;
        let mut saw_any = false;
        loop {
            if self.pos >= self.toks.len() || self.peek().kind.is_eof() {
                return Err(Error::pp("unterminated macro invocation", call_span));
            }
            let t = self.take();
            match t.kind {
                TokenKind::Hash if t.at_line_start => {
                    return Err(Error::pp(
                        "preprocessor directive inside macro invocation",
                        t.span,
                    ));
                }
                TokenKind::LParen | TokenKind::LBrace | TokenKind::LBracket => {
                    depth += 1;
                    saw_any = true;
                    cur.push(t);
                }
                TokenKind::RParen if depth == 0 => {
                    if saw_any || !args.is_empty() {
                        args.push(cur);
                    }
                    return Ok(args);
                }
                TokenKind::RParen | TokenKind::RBrace | TokenKind::RBracket => {
                    depth = depth.saturating_sub(1);
                    saw_any = true;
                    cur.push(t);
                }
                TokenKind::Comma if depth == 0 => {
                    args.push(std::mem::take(&mut cur));
                    saw_any = true;
                }
                _ => {
                    saw_any = true;
                    cur.push(t);
                }
            }
        }
    }

    /// Substitute parameters into a macro body and rescan for further
    /// expansions. All produced tokens take the invocation-site span.
    fn expand_body(
        &mut self,
        body: &[Token<'src>],
        binding: &HashMap<&str, Vec<Token<'src>>>,
        site: Span,
        hide: &mut Vec<&'src str>,
    ) -> Result<Vec<Token<'src>>> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < body.len() {
            let t = &body[i];
            // Skip stringize/paste operators; splice operands directly.
            if t.kind == TokenKind::Hash {
                i += 1;
                continue;
            }
            if let Some(name) = t.kind.ident() {
                if let Some(arg) = binding.get(name) {
                    for &a in arg {
                        let mut a = a;
                        a.span = site;
                        a.at_line_start = false;
                        // Rescan argument tokens for nested object-like macros.
                        let expanded = self.expand_inline(a, hide)?;
                        out.extend(expanded);
                    }
                    i += 1;
                    continue;
                }
                // Nested macro in the body itself.
                let mut t2 = *t;
                t2.span = site;
                t2.at_line_start = false;
                // Function-like nested macros need their args from the body,
                // which `expand_inline` cannot consume from the main stream;
                // handle the common object-like case and pass fn-like through
                // (their call parens are in the body and will be re-expanded
                // token by token below — good enough for barrier code).
                let expanded = self.expand_inline(t2, hide)?;
                out.extend(expanded);
                i += 1;
                continue;
            }
            let mut t2 = *t;
            t2.span = site;
            t2.at_line_start = false;
            out.push(t2);
            i += 1;
        }
        Ok(out)
    }

    /// Expand a single token without access to the following main-stream
    /// tokens (so function-like macros are left alone unless their `(` is
    /// adjacent in the stream — handled by the caller at top level).
    fn expand_inline(
        &mut self,
        tok: Token<'src>,
        hide: &mut Vec<&'src str>,
    ) -> Result<Vec<Token<'src>>> {
        let Some(name) = tok.kind.ident() else {
            return Ok(vec![tok]);
        };
        if hide.contains(&name) {
            return Ok(vec![tok]);
        }
        let Some(def) = self.macros.get(name).cloned() else {
            return Ok(vec![tok]);
        };
        if def.params.is_some() {
            return Ok(vec![tok]); // function-like: leave for rescan
        }
        hide.push(name);
        let result = self.expand_body(&def.body, &HashMap::new(), tok.span, hide)?;
        hide.pop();
        Ok(result)
    }

    /// Evaluate a `#if`/`#elif` condition.
    fn eval_condition(&mut self, toks: &[Token<'src>], span: Span) -> Result<i64> {
        // First pass: resolve `defined(X)` / `defined X`, expand macros.
        let mut resolved: Vec<Token<'src>> = Vec::new();
        let mut i = 0;
        while i < toks.len() {
            let t = &toks[i];
            if t.kind.ident() == Some("defined") {
                let (name, consumed) =
                    if toks.get(i + 1).map(|t| &t.kind) == Some(&TokenKind::LParen) {
                        let n = toks
                            .get(i + 2)
                            .and_then(|t| t.kind.ident())
                            .ok_or_else(|| Error::pp("malformed defined()", span))?;
                        if toks.get(i + 3).map(|t| &t.kind) != Some(&TokenKind::RParen) {
                            return Err(Error::pp("malformed defined()", span));
                        }
                        (n, 4)
                    } else {
                        let n = toks
                            .get(i + 1)
                            .and_then(|t| t.kind.ident())
                            .ok_or_else(|| Error::pp("malformed defined", span))?;
                        (n, 2)
                    };
                let v = u64::from(self.macros.contains_key(name));
                let raw = if v == 1 { "1" } else { "0" };
                resolved.push(Token::new(TokenKind::Int { raw, value: v }, t.span));
                i += consumed;
                continue;
            }
            if let Some(name) = t.kind.ident() {
                if let Some(def) = self.macros.get(name).cloned() {
                    if def.params.is_none() {
                        // Substitute object-like macro body inline (shallow:
                        // one level is enough for config-style conditions).
                        resolved.extend_from_slice(&def.body);
                        i += 1;
                        continue;
                    }
                }
                // Undefined identifier → 0, per the C standard.
                resolved.push(Token::new(TokenKind::Int { raw: "0", value: 0 }, t.span));
                i += 1;
                continue;
            }
            resolved.push(*t);
            i += 1;
        }
        let mut ev = CondEval {
            toks: &resolved,
            pos: 0,
            span,
        };
        let v = ev.expr(0)?;
        Ok(v)
    }
}

/// Minimal Pratt evaluator for `#if` integer expressions.
struct CondEval<'a, 'src> {
    toks: &'a [Token<'src>],
    pos: usize,
    span: Span,
}

impl<'src> CondEval<'_, 'src> {
    fn peek(&self) -> Option<TokenKind<'src>> {
        self.toks.get(self.pos).map(|t| t.kind)
    }

    fn bump(&mut self) -> Option<TokenKind<'src>> {
        let k = self.peek();
        self.pos += 1;
        k
    }

    fn atom(&mut self) -> Result<i64> {
        match self.bump() {
            Some(TokenKind::Int { value, .. }) => Ok(value as i64),
            Some(TokenKind::Char(_)) => Ok(1),
            Some(TokenKind::LParen) => {
                let v = self.expr(0)?;
                if self.bump() != Some(TokenKind::RParen) {
                    return Err(Error::pp("expected `)` in #if expression", self.span));
                }
                Ok(v)
            }
            Some(TokenKind::Bang) => Ok((self.atom()? == 0) as i64),
            Some(TokenKind::Minus) => Ok(-self.atom()?),
            Some(TokenKind::Plus) => self.atom(),
            Some(TokenKind::Tilde) => Ok(!self.atom()?),
            _ => Err(Error::pp("malformed #if expression", self.span)),
        }
    }

    fn expr(&mut self, min_bp: u8) -> Result<i64> {
        let mut lhs = self.atom()?;
        while let Some(op) = self.peek() {
            let bp = match op {
                TokenKind::Star | TokenKind::Slash | TokenKind::Percent => 10,
                TokenKind::Plus | TokenKind::Minus => 9,
                TokenKind::Shl | TokenKind::Shr => 8,
                TokenKind::Lt | TokenKind::Gt | TokenKind::Le | TokenKind::Ge => 7,
                TokenKind::EqEq | TokenKind::Ne => 6,
                TokenKind::Amp => 5,
                TokenKind::Caret => 4,
                TokenKind::Pipe => 3,
                TokenKind::AmpAmp => 2,
                TokenKind::PipePipe => 1,
                _ => break,
            };
            if bp < min_bp {
                break;
            }
            self.pos += 1;
            let rhs = self.expr(bp + 1)?;
            lhs = match op {
                TokenKind::Star => lhs.wrapping_mul(rhs),
                TokenKind::Slash => {
                    if rhs == 0 {
                        return Err(Error::pp("division by zero in #if", self.span));
                    }
                    lhs / rhs
                }
                TokenKind::Percent => {
                    if rhs == 0 {
                        return Err(Error::pp("modulo by zero in #if", self.span));
                    }
                    lhs % rhs
                }
                TokenKind::Plus => lhs.wrapping_add(rhs),
                TokenKind::Minus => lhs.wrapping_sub(rhs),
                TokenKind::Shl => lhs.wrapping_shl(rhs as u32),
                TokenKind::Shr => lhs.wrapping_shr(rhs as u32),
                TokenKind::Lt => (lhs < rhs) as i64,
                TokenKind::Gt => (lhs > rhs) as i64,
                TokenKind::Le => (lhs <= rhs) as i64,
                TokenKind::Ge => (lhs >= rhs) as i64,
                TokenKind::EqEq => (lhs == rhs) as i64,
                TokenKind::Ne => (lhs != rhs) as i64,
                TokenKind::Amp => lhs & rhs,
                TokenKind::Caret => lhs ^ rhs,
                TokenKind::Pipe => lhs | rhs,
                TokenKind::AmpAmp => ((lhs != 0) && (rhs != 0)) as i64,
                TokenKind::PipePipe => ((lhs != 0) || (rhs != 0)) as i64,
                _ => unreachable!(),
            };
        }
        Ok(lhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn pp(src: &str) -> PpOutput<'_> {
        preprocess(lex(src).unwrap(), &PpConfig::default()).unwrap()
    }

    fn texts(out: &PpOutput) -> Vec<String> {
        out.tokens
            .iter()
            .filter(|t| !t.kind.is_eof())
            .map(|t| match &t.kind {
                TokenKind::Ident(s) => s.to_string(),
                TokenKind::Int { raw, .. } => raw.to_string(),
                TokenKind::Str(s) => s.to_string(),
                k => k.lexeme().to_string(),
            })
            .collect()
    }

    #[test]
    fn object_macro_expands() {
        let out = pp("#define N 4\nint x = N;");
        assert_eq!(texts(&out), vec!["int", "x", "=", "4", ";"]);
    }

    #[test]
    fn nested_object_macros() {
        let out = pp("#define A B\n#define B 7\nint x = A;");
        assert_eq!(texts(&out), vec!["int", "x", "=", "7", ";"]);
    }

    #[test]
    fn recursive_macro_terminates() {
        let out = pp("#define A A\nint A;");
        assert_eq!(texts(&out), vec!["int", "A", ";"]);
    }

    #[test]
    fn function_macro_substitutes_args() {
        let out = pp("#define MAX(a, b) ((a) > (b) ? (a) : (b))\nint m = MAX(x, 3);");
        assert_eq!(
            texts(&out).join(" "),
            "int m = ( ( x ) > ( 3 ) ? ( x ) : ( 3 ) ) ;"
        );
    }

    #[test]
    fn function_macro_without_parens_not_expanded() {
        let out = pp("#define F(x) x\nint F;");
        assert_eq!(texts(&out), vec!["int", "F", ";"]);
    }

    #[test]
    fn ifdef_blocks() {
        let out = pp("#define CONFIG_SMP\n#ifdef CONFIG_SMP\nint a;\n#else\nint b;\n#endif");
        assert_eq!(texts(&out), vec!["int", "a", ";"]);
        let out = pp("#ifdef CONFIG_SMP\nint a;\n#else\nint b;\n#endif");
        assert_eq!(texts(&out), vec!["int", "b", ";"]);
    }

    #[test]
    fn if_expression() {
        let out = pp("#if 2 * 3 == 6 && defined(X)\nint a;\n#endif\nint z;");
        assert_eq!(texts(&out), vec!["int", "z", ";"]);
        let out = pp("#define X 1\n#if 2 * 3 == 6 && defined(X)\nint a;\n#endif");
        assert_eq!(texts(&out), vec!["int", "a", ";"]);
    }

    #[test]
    fn elif_chain() {
        let src = "#define V 2\n#if V == 1\nint a;\n#elif V == 2\nint b;\n#else\nint c;\n#endif";
        assert_eq!(texts(&pp(src)), vec!["int", "b", ";"]);
    }

    #[test]
    fn nested_conditionals() {
        let src = "#if 1\n#if 0\nint a;\n#endif\nint b;\n#endif";
        assert_eq!(texts(&pp(src)), vec!["int", "b", ";"]);
    }

    #[test]
    fn if_zero_skips_garbage() {
        let src = "#if 0\nthis is ! not , valid ; c code\n#endif\nint x;";
        assert_eq!(texts(&pp(src)), vec!["int", "x", ";"]);
    }

    #[test]
    fn include_recorded() {
        let out = pp("#include <linux/kernel.h>\n#include \"local.h\"\nint x;");
        assert_eq!(out.includes, vec!["<linux/kernel.h>", "local.h"]);
        assert_eq!(texts(&out), vec!["int", "x", ";"]);
    }

    #[test]
    fn undef_works() {
        let out = pp("#define A 1\n#undef A\nint x = A;");
        assert_eq!(texts(&out), vec!["int", "x", "=", "A", ";"]);
    }

    #[test]
    fn line_continuation_in_define() {
        let out = pp("#define SUM(a, b) \\\n ((a) + (b))\nint s = SUM(1, 2);");
        assert_eq!(texts(&out).join(" "), "int s = ( ( 1 ) + ( 2 ) ) ;");
    }

    #[test]
    fn unbalanced_endif_errors() {
        let toks = lex("#endif\n").unwrap();
        assert!(preprocess(toks, &PpConfig::default()).is_err());
    }

    #[test]
    fn unterminated_if_errors() {
        let toks = lex("#if 1\nint x;\n").unwrap();
        let last = toks.last().unwrap().span;
        let err = preprocess(toks, &PpConfig::default()).unwrap_err();
        assert_eq!(err.phase, crate::error::Phase::Preprocess);
        // The span points at the input's last token (its `Eof`).
        assert_eq!(err.span, last);
        // Without a trailing `Eof`, the last token was moved out on the
        // way; its span still stands.
        let mut toks = lex("#if 1\nint x;\n").unwrap();
        toks.pop();
        let semi = toks.last().unwrap().span;
        let err = preprocess(toks, &PpConfig::default()).unwrap_err();
        assert_eq!(err.span, semi);
    }

    #[test]
    fn expansion_keeps_call_site_span() {
        let src = "#define FLAG 1\nint x = FLAG;";
        let out = pp(src);
        let one = out
            .tokens
            .iter()
            .find(|t| matches!(t.kind, TokenKind::Int { .. }))
            .unwrap();
        assert_eq!(one.span.slice(src), "FLAG");
    }

    #[test]
    fn variadic_macro() {
        let out = pp("#define P(fmt, ...) printk(fmt, __VA_ARGS__)\nP(\"x\", a, b);");
        assert_eq!(texts(&out).join(" "), "printk ( \"x\" , a , b ) ;");
    }

    #[test]
    fn expanded_identifiers_keep_their_own_text() {
        // Every expanded token takes the call site's span, so its text
        // must travel in its payload: the span slices to the macro name.
        let mut cfg = PpConfig::default();
        cfg.define_int("NR_SLOTS", 8);
        let src = "#define FLAG ready\n#define LOAD(p, f) READ_ONCE((p)->f)\n\
                   int x = FLAG + LOAD(ring, seq) + NR_SLOTS;";
        let out = preprocess(lex(src).unwrap(), &cfg).unwrap();
        assert_eq!(
            texts(&out).join(" "),
            "int x = ready + READ_ONCE ( ( ring ) -> seq ) + 8 ;"
        );
        let span_of = |text: &str| {
            let tok = out.tokens.iter().find(|t| match t.kind {
                TokenKind::Ident(s) | TokenKind::Int { raw: s, .. } => s == text,
                _ => false,
            });
            tok.unwrap().span.slice(src)
        };
        assert_eq!(span_of("ready"), "FLAG");
        for arg in ["READ_ONCE", "ring", "seq"] {
            assert_eq!(span_of(arg), "LOAD");
        }
        assert_eq!(span_of("8"), "NR_SLOTS");
        // The parser builds its names from that text, not from the spans.
        let unit = crate::parser::parse_tokens(out.tokens, &Default::default()).unit;
        let crate::ast::Item::Global(decls) = &unit.items[0] else {
            panic!("{unit:?}")
        };
        let init = crate::pretty::print_expr(decls.decls[0].init.as_ref().unwrap());
        assert_eq!(init, "ready + READ_ONCE(ring->seq) + 8");
    }

    #[test]
    fn config_defines() {
        let mut cfg = PpConfig::default();
        cfg.define_int("CONFIG_NR_CPUS", 8);
        let out = preprocess(lex("int n = CONFIG_NR_CPUS;").unwrap(), &cfg).unwrap();
        assert_eq!(texts(&out), vec!["int", "n", "=", "8", ";"]);
    }
}
