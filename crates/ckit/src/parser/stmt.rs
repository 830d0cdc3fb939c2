//! Statement parsing.

use super::sink::{NodeList, Sink};
use super::Parser;
use crate::ast::*;
use crate::error::Result;
use crate::token::TokenKind;

impl<'t, S: Sink<'t>> Parser<'t, S> {
    /// Parse statements until the closing `}` of the current block (the
    /// opening brace has been consumed by the caller).
    pub(crate) fn parse_block_stmts(&mut self) -> Result<S::List<S::Stmt>> {
        let mut stmts = S::List::default();
        while !self.at(&TokenKind::RBrace) && !self.at_eof() {
            stmts.push(self.parse_stmt()?);
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(stmts)
    }

    /// The statement after a label or case: one may end a block
    /// (`out: }`), which labels an empty statement.
    fn parse_labeled(&mut self) -> Result<S::Stmt> {
        if self.at(&TokenKind::RBrace) {
            Ok(self.sink.leaf_stmt(StmtKind::Empty, self.prev_span()))
        } else {
            self.parse_stmt()
        }
    }

    pub(crate) fn parse_stmt(&mut self) -> Result<S::Stmt> {
        let start = self.span();
        // Label: `name: stmt` (but not `default:` which is handled below,
        // and not ternary — a label is an identifier directly followed by
        // `:` at statement position).
        if let TokenKind::Ident(name) = *self.peek() {
            if !crate::token::is_keyword(name) && self.peek_n(1) == &TokenKind::Colon {
                self.bump();
                self.bump();
                let stmt = self.parse_labeled()?;
                return Ok(self.sink.label(name, stmt, start));
            }
        }
        if self.at(&TokenKind::LBrace) {
            self.bump();
            let stmts = self.parse_block_stmts()?;
            return Ok(self.sink.block(stmts, start.to(self.prev_span())));
        }
        if self.eat(&TokenKind::Semi) {
            return Ok(self.sink.leaf_stmt(StmtKind::Empty, start));
        }
        if let Some(kw) = self.peek().ident() {
            match kw {
                "asm" | "__asm__" | "__asm" => return self.parse_asm(),
                "if" => return self.parse_if(),
                "while" => return self.parse_while(),
                "do" => return self.parse_do_while(),
                "for" => return self.parse_for(),
                "switch" => return self.parse_switch(),
                "case" => {
                    self.bump();
                    let value = self.parse_conditional()?;
                    // GNU case ranges `case A ... B:` — keep the low bound.
                    if self.at(&TokenKind::Ellipsis) {
                        self.bump();
                        let _ = self.parse_conditional()?;
                    }
                    self.expect(&TokenKind::Colon)?;
                    let stmt = self.parse_labeled()?;
                    return Ok(self.sink.case(Some(value), stmt, start));
                }
                "default" => {
                    self.bump();
                    self.expect(&TokenKind::Colon)?;
                    let stmt = self.parse_labeled()?;
                    return Ok(self.sink.case(None, stmt, start));
                }
                "goto" => {
                    self.bump();
                    let (label, _) = self.expect_ident()?;
                    let span = start.to(self.span());
                    self.expect(&TokenKind::Semi)?;
                    return Ok(self.sink.goto(label, span));
                }
                "return" => {
                    self.bump();
                    let value = if self.at(&TokenKind::Semi) {
                        None
                    } else {
                        Some(self.parse_expr()?)
                    };
                    let span = start.to(self.span());
                    self.expect(&TokenKind::Semi)?;
                    return Ok(self.sink.ret(value, span));
                }
                "break" | "continue" => {
                    let kind = if kw == "break" {
                        StmtKind::Break
                    } else {
                        StmtKind::Continue
                    };
                    self.bump();
                    let span = start.to(self.span());
                    self.expect(&TokenKind::Semi)?;
                    return Ok(self.sink.leaf_stmt(kind, span));
                }
                _ => {}
            }
        }
        // Declaration?
        if self.at_decl_start() && !self.at_ident("sizeof") {
            let decl = self.parse_local_decl()?;
            return Ok(self.sink.decl_stmt(decl));
        }
        // Expression statement.
        let expr = self.parse_expr()?;
        let span = start.to(self.span());
        self.expect(&TokenKind::Semi)?;
        Ok(self.sink.expr_stmt(expr, span))
    }

    pub(crate) fn parse_local_decl(&mut self) -> Result<S::DeclStmt> {
        let start = self.span();
        let (base, _flags) = self.parse_decl_specifiers()?;
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
        let span = start.to(self.span());
        self.expect(&TokenKind::Semi)?;
        Ok(self.sink.decls(decls, span))
    }

    /// `asm [volatile|goto] ( ... ) ;` — the parenthesized blob is kept as
    /// raw token text.
    fn parse_asm(&mut self) -> Result<S::Stmt> {
        let start = self.span();
        self.bump(); // asm
        let mut volatile = false;
        while let Some(q) = self.peek().ident() {
            match q {
                "volatile" | "__volatile__" | "__volatile" => {
                    volatile = true;
                    self.bump();
                }
                "goto" | "inline" => {
                    self.bump();
                }
                _ => break,
            }
        }
        self.expect(&TokenKind::LParen)?;
        let body_start = self.pos;
        let mut depth = 1usize;
        let body_end = loop {
            match self.peek() {
                TokenKind::LParen => depth += 1,
                TokenKind::RParen => {
                    depth -= 1;
                    if depth == 0 {
                        let end = self.pos;
                        self.bump();
                        break end;
                    }
                }
                TokenKind::Eof => {
                    return Err(crate::error::Error::parse(
                        "unterminated asm statement",
                        start,
                    ))
                }
                _ => {}
            }
            self.bump();
        };
        let span = start.to(self.span());
        self.expect(&TokenKind::Semi)?;
        let body = &self.toks[body_start..body_end];
        Ok(self.sink.asm(volatile, body, span))
    }

    fn parse_if(&mut self) -> Result<S::Stmt> {
        let start = self.span();
        self.bump(); // if
        self.expect(&TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::RParen)?;
        let then_branch = self.parse_stmt()?;
        let else_branch = if self.at_ident("else") {
            self.bump();
            Some(self.parse_stmt()?)
        } else {
            None
        };
        Ok(self.sink.if_stmt(cond, then_branch, else_branch, start))
    }

    fn parse_while(&mut self) -> Result<S::Stmt> {
        let start = self.span();
        self.bump(); // while
        self.expect(&TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::RParen)?;
        let body = self.parse_stmt()?;
        Ok(self.sink.while_stmt(cond, body, start))
    }

    fn parse_do_while(&mut self) -> Result<S::Stmt> {
        let start = self.span();
        self.bump(); // do
        let body = self.parse_stmt()?;
        if !self.eat_ident("while") {
            return Err(crate::error::Error::parse(
                "expected `while` after do-block",
                self.span(),
            ));
        }
        self.expect(&TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::RParen)?;
        let span = start.to(self.span());
        self.expect(&TokenKind::Semi)?;
        Ok(self.sink.do_while(body, cond, span))
    }

    fn parse_for(&mut self) -> Result<S::Stmt> {
        let start = self.span();
        self.bump(); // for
        self.expect(&TokenKind::LParen)?;
        let init = if self.at(&TokenKind::Semi) {
            self.bump();
            None
        } else if self.at_decl_start() {
            let d = self.parse_local_decl()?;
            Some(self.sink.decl_stmt(d))
        } else {
            let e = self.parse_expr()?;
            let span = S::expr_span(&e);
            self.expect(&TokenKind::Semi)?;
            Some(self.sink.expr_stmt(e, span))
        };
        let cond = if self.at(&TokenKind::Semi) {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect(&TokenKind::Semi)?;
        let step = if self.at(&TokenKind::RParen) {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect(&TokenKind::RParen)?;
        let body = self.parse_stmt()?;
        Ok(self.sink.for_stmt(init, cond, step, body, start))
    }

    fn parse_switch(&mut self) -> Result<S::Stmt> {
        let start = self.span();
        self.bump(); // switch
        self.expect(&TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::RParen)?;
        let body = self.parse_stmt()?;
        Ok(self.sink.switch(cond, body, start))
    }
}
