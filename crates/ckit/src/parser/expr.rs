//! Expression parsing — precedence climbing over the full C operator set.

use super::sink::{NodeList, Sink};
use super::Parser;
use crate::ast::*;
use crate::error::{Error, Result};
use crate::token::TokenKind;

impl<'t, S: Sink<'t>> Parser<'t, S> {
    /// Full expression, including the comma operator.
    pub(crate) fn parse_expr(&mut self) -> Result<S::Expr> {
        let mut expr = self.parse_assignment()?;
        while self.eat(&TokenKind::Comma) {
            let rhs = self.parse_assignment()?;
            expr = self.sink.comma(expr, rhs);
        }
        Ok(expr)
    }

    /// Assignment expression (no top-level comma) — the grammar production
    /// used for call arguments and initializers.
    pub(crate) fn parse_assignment(&mut self) -> Result<S::Expr> {
        let lhs = self.parse_conditional()?;
        let op = match self.peek() {
            TokenKind::Assign => AssignOp::Assign,
            TokenKind::PlusEq => AssignOp::Add,
            TokenKind::MinusEq => AssignOp::Sub,
            TokenKind::StarEq => AssignOp::Mul,
            TokenKind::SlashEq => AssignOp::Div,
            TokenKind::PercentEq => AssignOp::Rem,
            TokenKind::AmpEq => AssignOp::BitAnd,
            TokenKind::PipeEq => AssignOp::BitOr,
            TokenKind::CaretEq => AssignOp::BitXor,
            TokenKind::ShlEq => AssignOp::Shl,
            TokenKind::ShrEq => AssignOp::Shr,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.parse_assignment()?; // right-associative
        Ok(self.sink.assign(op, lhs, rhs))
    }

    /// Conditional (ternary) expression; also the "constant expression"
    /// production used by enum values, case labels, bitfields.
    pub(crate) fn parse_conditional(&mut self) -> Result<S::Expr> {
        let cond = self.parse_binary(0)?;
        if !self.eat(&TokenKind::Question) {
            return Ok(cond);
        }
        let then_expr = self.parse_expr()?;
        self.expect(&TokenKind::Colon)?;
        let else_expr = self.parse_assignment()?;
        Ok(self.sink.ternary(cond, then_expr, else_expr))
    }

    fn binop(kind: &TokenKind<'_>) -> Option<(BinOp, u8)> {
        use TokenKind::*;
        Some(match kind {
            PipePipe => (BinOp::Or, 1),
            AmpAmp => (BinOp::And, 2),
            Pipe => (BinOp::BitOr, 3),
            Caret => (BinOp::BitXor, 4),
            Amp => (BinOp::BitAnd, 5),
            EqEq => (BinOp::Eq, 6),
            Ne => (BinOp::Ne, 6),
            Lt => (BinOp::Lt, 7),
            Gt => (BinOp::Gt, 7),
            Le => (BinOp::Le, 7),
            Ge => (BinOp::Ge, 7),
            Shl => (BinOp::Shl, 8),
            Shr => (BinOp::Shr, 8),
            Plus => (BinOp::Add, 9),
            Minus => (BinOp::Sub, 9),
            Star => (BinOp::Mul, 10),
            Slash => (BinOp::Div, 10),
            Percent => (BinOp::Rem, 10),
            _ => return None,
        })
    }

    fn parse_binary(&mut self, min_bp: u8) -> Result<S::Expr> {
        let mut lhs = self.parse_unary()?;
        while let Some((op, bp)) = Self::binop(self.peek()) {
            if bp < min_bp {
                break;
            }
            self.bump();
            let rhs = self.parse_binary(bp + 1)?;
            lhs = self.sink.binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<S::Expr> {
        let start = self.span();
        let op = match self.peek() {
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Plus => Some(UnOp::Plus),
            TokenKind::Bang => Some(UnOp::Not),
            TokenKind::Tilde => Some(UnOp::BitNot),
            TokenKind::Star => Some(UnOp::Deref),
            TokenKind::Amp => Some(UnOp::Addr),
            TokenKind::PlusPlus => Some(UnOp::PreInc),
            TokenKind::MinusMinus => Some(UnOp::PreDec),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = self.parse_unary()?;
            return Ok(self.sink.unary(op, operand, start));
        }
        if self.at_ident("sizeof") {
            self.bump();
            if self.at(&TokenKind::LParen) && self.type_in_parens() {
                self.bump();
                let (base, _) = self.parse_decl_specifiers()?;
                let (_, ty, _) = self.parse_declarator(base)?;
                let end = self.expect(&TokenKind::RParen)?;
                return Ok(self.sink.sizeof_type(ty, start.to(end)));
            }
            let operand = self.parse_unary()?;
            return Ok(self.sink.sizeof_expr(operand, start));
        }
        // Cast or compound literal: `(type) expr` / `(type){...}`.
        if self.at(&TokenKind::LParen) && self.type_in_parens() {
            self.bump();
            let (base, _) = self.parse_decl_specifiers()?;
            let (_, ty, _) = self.parse_declarator(base)?;
            self.expect(&TokenKind::RParen)?;
            let operand = if self.at(&TokenKind::LBrace) {
                self.parse_initializer()?
            } else {
                self.parse_unary()?
            };
            return Ok(self.sink.cast(ty, operand, start));
        }
        self.parse_postfix()
    }

    /// Lookahead: do the tokens after the current `(` start a type?
    fn type_in_parens(&self) -> bool {
        let next = self.peek_n(1);
        let Some(name) = next.ident() else {
            return false;
        };
        let typeish = matches!(
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
        ) || self.is_typedef(name);
        if !typeish {
            return false;
        }
        // Guard against a parenthesized expression whose first identifier
        // happens to be a shadowing variable: a cast's type is followed by
        // `*`, `)`, an identifier (struct tag), or another specifier.
        match name {
            "struct" | "union" | "enum" => true,
            _ => !matches!(
                self.peek_n(2),
                TokenKind::Dot
                    | TokenKind::Arrow
                    | TokenKind::LBracket
                    | TokenKind::PlusPlus
                    | TokenKind::MinusMinus
                    | TokenKind::Assign
                    | TokenKind::Plus
                    | TokenKind::Minus
                    | TokenKind::Slash
                    | TokenKind::Percent
                    | TokenKind::EqEq
                    | TokenKind::Ne
                    | TokenKind::Lt
                    | TokenKind::Gt
                    | TokenKind::Le
                    | TokenKind::Ge
                    | TokenKind::AmpAmp
                    | TokenKind::PipePipe
                    | TokenKind::Question
                    | TokenKind::Comma
            ),
        }
    }

    fn parse_postfix(&mut self) -> Result<S::Expr> {
        let mut expr = self.parse_primary()?;
        loop {
            match self.peek() {
                TokenKind::LParen => {
                    self.bump();
                    let mut args = S::List::default();
                    if !self.at(&TokenKind::RParen) {
                        loop {
                            args.push(self.parse_assignment()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    let end = self.expect(&TokenKind::RParen)?;
                    expr = self.sink.call(expr, args, end);
                }
                TokenKind::LBracket => {
                    self.bump();
                    let index = self.parse_expr()?;
                    let end = self.expect(&TokenKind::RBracket)?;
                    expr = self.sink.index(expr, index, end);
                }
                TokenKind::Dot | TokenKind::Arrow => {
                    let arrow = self.at(&TokenKind::Arrow);
                    self.bump();
                    let (field, fspan) = self.expect_ident()?;
                    expr = self.sink.member(expr, field, arrow, fspan);
                }
                TokenKind::PlusPlus | TokenKind::MinusMinus => {
                    let op = if self.at(&TokenKind::PlusPlus) {
                        PostOp::Inc
                    } else {
                        PostOp::Dec
                    };
                    let end = self.span();
                    self.bump();
                    expr = self.sink.post(op, expr, end);
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn parse_primary(&mut self) -> Result<S::Expr> {
        let span = self.span();
        let tok = self.peek();
        match *tok {
            TokenKind::Ident(name) => {
                if crate::token::is_keyword(name) && name != "sizeof" {
                    return Err(Error::parse(
                        format!("unexpected keyword `{name}` in expression"),
                        span,
                    ));
                }
                self.bump();
                Ok(self.sink.ident(name, span))
            }
            TokenKind::Int { .. } | TokenKind::Float(_) | TokenKind::Char(_) => {
                self.bump();
                Ok(self.sink.literal(tok, span))
            }
            TokenKind::Str(_) => {
                // Adjacent string literals concatenate.
                let first = self.pos;
                self.bump();
                while let TokenKind::Str(_) = self.peek() {
                    self.bump();
                }
                let strings = &self.toks[first..self.pos];
                Ok(self.sink.string(strings, span.to(self.prev_span())))
            }
            TokenKind::LParen => {
                self.bump();
                // GNU statement expression `({ ... })`.
                if self.at(&TokenKind::LBrace) {
                    self.bump();
                    let stmts = self.parse_block_stmts()?;
                    let end = self.expect(&TokenKind::RParen)?;
                    return Ok(self.sink.stmt_expr(stmts, span.to(end)));
                }
                let inner = self.parse_expr()?;
                let end = self.expect(&TokenKind::RParen)?;
                Ok(self.sink.paren(inner, span.to(end)))
            }
            TokenKind::LBrace => self.parse_initializer(),
            other => Err(Error::parse(
                format!("expected expression, found {}", other.describe()),
                span,
            )),
        }
    }

    /// Initializer: either a plain assignment expression or a brace list
    /// with optional designators.
    pub(crate) fn parse_initializer(&mut self) -> Result<S::Expr> {
        if !self.at(&TokenKind::LBrace) {
            return self.parse_assignment();
        }
        let start = self.span();
        self.bump();
        let mut inits = S::List::default();
        while !self.at(&TokenKind::RBrace) && !self.at_eof() {
            let designator = if self.at(&TokenKind::Dot) {
                self.bump();
                let (name, _) = self.expect_ident()?;
                self.expect(&TokenKind::Assign)?;
                Some(name)
            } else if self.at(&TokenKind::LBracket) {
                // `[idx] = val` array designator: record no field name.
                self.bump();
                let _ = self.parse_conditional()?;
                self.expect(&TokenKind::RBracket)?;
                self.expect(&TokenKind::Assign)?;
                None
            } else {
                None
            };
            let value = self.parse_initializer()?;
            inits.push(self.sink.initializer(designator, value));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let end = self.expect(&TokenKind::RBrace)?;
        Ok(self.sink.init_list(inits, start.to(end)))
    }
}
