//! Node sinks: what the grammar does with each node it recognizes.
//!
//! The grammar in this module's siblings is written once, generic over a
//! [`Sink`]. [`Ast`] builds today's [`TranslationUnit`]; [`Count`] builds
//! nothing and only notes whether any call names a function the caller
//! cares about (a barrier, for the analysis). Both run the same
//! productions, the same lookahead and the same item-level recovery, so
//! they accept the same inputs, report the same errors and see the same
//! functions — a second copy of the grammar would drift.
//!
//! The grammar never inspects a built node except through this trait:
//! [`Sink::func_arity`] (function definition vs. global) and
//! [`Sink::expr_span`] (a `for` initializer's span). Every other span is
//! passed in by the grammar or derived by the sink from its children.
//!
//! The grammar hands a sink names as the tokens' borrowed text. [`Ast`]
//! interns each name it stores, one interner per file, so equal names in
//! one tree share storage; [`Count`] stores none, so a counting parse
//! interns nothing.

use crate::ast::*;
use crate::intern::{Interner, Name};
use crate::span::Span;
use crate::token::{Token, TokenKind};

use super::SpecFlags;

/// A growable sequence of nodes; [`Vec`] for the AST, [`Discard`] when
/// counting.
pub(crate) trait NodeList<T>: Default {
    fn push(&mut self, node: T);
    fn append(&mut self, other: Self);
    fn truncate(&mut self, len: usize);
}

impl<T> NodeList<T> for Vec<T> {
    fn push(&mut self, node: T) {
        Vec::push(self, node)
    }

    fn append(&mut self, mut other: Self) {
        Vec::append(self, &mut other)
    }

    fn truncate(&mut self, len: usize) {
        Vec::truncate(self, len)
    }
}

/// The node (and node list) of a sink that keeps nothing.
#[derive(Default)]
pub(crate) struct Discard;

impl<T> NodeList<T> for Discard {
    fn push(&mut self, _: T) {}
    fn append(&mut self, _: Self) {}
    fn truncate(&mut self, _: usize) {}
}

/// What the name of a named leaf type names.
#[derive(Clone, Copy)]
pub(crate) enum TypeName {
    Typedef,
    Struct,
    Union,
    Enum,
}

/// What the grammar hands each recognized node to.
///
/// `start`/`end` arguments are the spans of a node's first/last token as
/// the grammar saw them; the AST sink joins them with its children's
/// spans exactly as the parser always has.
pub(crate) trait Sink<'t> {
    type Expr;
    type Stmt;
    type Type: Clone;
    type Param;
    type Field;
    type Decl;
    type DeclStmt;
    type Init;
    type Sig;
    type Variant;
    type Item;
    type List<T>: NodeList<T>;

    /// The parameter count of a function type; `None` for any other type.
    fn func_arity(ty: &Self::Type) -> Option<usize>;
    fn expr_span(e: &Self::Expr) -> Span;

    // ---- types --------------------------------------------------------
    /// A type with no child types and no name (`int`, `void`...).
    fn leaf_type(&mut self, ty: Type) -> Self::Type;
    /// A type with no child types that has a name (`struct s`, a typedef
    /// name...); an anonymous tag's name is empty.
    fn named_type(&mut self, kind: TypeName, name: &'t str) -> Self::Type;
    fn ptr(&mut self, to: Self::Type) -> Self::Type;
    fn array(&mut self, of: Self::Type, len: Option<u64>) -> Self::Type;
    fn func_type(
        &mut self,
        ret: Self::Type,
        params: &Self::List<Self::Param>,
        variadic: bool,
    ) -> Self::Type;
    fn typeof_type(&mut self, inner: &Self::Type) -> Self::Type;
    fn typeof_expr(&mut self, inner: &Self::Expr) -> Self::Type;

    // ---- expressions --------------------------------------------------
    fn ident(&mut self, name: &'t str, span: Span) -> Self::Expr;
    /// A literal token (integer, float, char).
    fn literal(&mut self, tok: &TokenKind<'t>, span: Span) -> Self::Expr;
    /// Adjacent string literals, concatenated.
    fn string(&mut self, toks: &[Token<'t>], span: Span) -> Self::Expr;
    /// `( inner )`: the inner node, re-spanned to cover the parens.
    fn paren(&mut self, inner: Self::Expr, span: Span) -> Self::Expr;
    fn stmt_expr(&mut self, body: Self::List<Self::Stmt>, span: Span) -> Self::Expr;
    fn unary(&mut self, op: UnOp, operand: Self::Expr, start: Span) -> Self::Expr;
    fn post(&mut self, op: PostOp, operand: Self::Expr, end: Span) -> Self::Expr;
    fn binary(&mut self, op: BinOp, lhs: Self::Expr, rhs: Self::Expr) -> Self::Expr;
    fn assign(&mut self, op: AssignOp, lhs: Self::Expr, rhs: Self::Expr) -> Self::Expr;
    fn comma(&mut self, lhs: Self::Expr, rhs: Self::Expr) -> Self::Expr;
    fn ternary(&mut self, cond: Self::Expr, then: Self::Expr, els: Self::Expr) -> Self::Expr;
    fn call(&mut self, callee: Self::Expr, args: Self::List<Self::Expr>, end: Span) -> Self::Expr;
    fn index(&mut self, base: Self::Expr, index: Self::Expr, end: Span) -> Self::Expr;
    fn member(&mut self, base: Self::Expr, field: &'t str, arrow: bool, end: Span) -> Self::Expr;
    fn cast(&mut self, ty: Self::Type, operand: Self::Expr, start: Span) -> Self::Expr;
    fn sizeof_type(&mut self, ty: Self::Type, span: Span) -> Self::Expr;
    fn sizeof_expr(&mut self, operand: Self::Expr, start: Span) -> Self::Expr;
    fn init_list(&mut self, inits: Self::List<Self::Init>, span: Span) -> Self::Expr;
    fn initializer(&mut self, designator: Option<&'t str>, value: Self::Expr) -> Self::Init;

    // ---- statements ---------------------------------------------------
    /// A statement with no child nodes and no name (`break`, `;`...).
    fn leaf_stmt(&mut self, kind: StmtKind, span: Span) -> Self::Stmt;
    fn goto(&mut self, label: &'t str, span: Span) -> Self::Stmt;
    fn expr_stmt(&mut self, e: Self::Expr, span: Span) -> Self::Stmt;
    fn decl_stmt(&mut self, d: Self::DeclStmt) -> Self::Stmt;
    fn block(&mut self, stmts: Self::List<Self::Stmt>, span: Span) -> Self::Stmt;
    fn ret(&mut self, value: Option<Self::Expr>, span: Span) -> Self::Stmt;
    fn label(&mut self, name: &'t str, stmt: Self::Stmt, start: Span) -> Self::Stmt;
    fn case(&mut self, value: Option<Self::Expr>, stmt: Self::Stmt, start: Span) -> Self::Stmt;
    fn if_stmt(
        &mut self,
        cond: Self::Expr,
        then: Self::Stmt,
        els: Option<Self::Stmt>,
        start: Span,
    ) -> Self::Stmt;
    fn while_stmt(&mut self, cond: Self::Expr, body: Self::Stmt, start: Span) -> Self::Stmt;
    fn do_while(&mut self, body: Self::Stmt, cond: Self::Expr, span: Span) -> Self::Stmt;
    fn for_stmt(
        &mut self,
        init: Option<Self::Stmt>,
        cond: Option<Self::Expr>,
        step: Option<Self::Expr>,
        body: Self::Stmt,
        start: Span,
    ) -> Self::Stmt;
    fn switch(&mut self, cond: Self::Expr, body: Self::Stmt, start: Span) -> Self::Stmt;
    /// `asm(...)`: `body` is the parenthesized token run, parens excluded.
    fn asm(&mut self, volatile: bool, body: &[Token<'t>], span: Span) -> Self::Stmt;

    // ---- declarations and items --------------------------------------
    fn declarator(
        &mut self,
        name: &'t str,
        ty: Self::Type,
        init: Option<Self::Expr>,
        span: Span,
    ) -> Self::Decl;
    fn decls(&mut self, decls: Self::List<Self::Decl>, span: Span) -> Self::DeclStmt;
    fn param(&mut self, name: &'t str, ty: Self::Type, span: Span) -> Self::Param;
    fn field(&mut self, name: &'t str, ty: Self::Type, span: Span) -> Self::Field;
    /// A function signature; `ty` is a function type (see `func_arity`).
    fn sig(
        &mut self,
        name: &'t str,
        ty: &Self::Type,
        params: Self::List<Self::Param>,
        flags: SpecFlags,
        span: Span,
    ) -> Self::Sig;
    fn function(&mut self, sig: Self::Sig, body: Self::List<Self::Stmt>, span: Span) -> Self::Item;
    fn prototype(&mut self, sig: Self::Sig) -> Self::Item;
    fn global(&mut self, decls: Self::DeclStmt) -> Self::Item;
    fn typedef(&mut self, name: &'t str, ty: Self::Type, span: Span) -> Self::Item;
    fn struct_def(
        &mut self,
        name: &'t str,
        is_union: bool,
        fields: Self::List<Self::Field>,
        span: Span,
    ) -> Self::Item;
    fn variant(&mut self, name: &'t str, value: Option<Self::Expr>) -> Self::Variant;
    fn enum_def(
        &mut self,
        name: &'t str,
        variants: Self::List<Self::Variant>,
        span: Span,
    ) -> Self::Item;
}

/// Builds the [`TranslationUnit`], interning every name it stores in the
/// file's own symbol table. SipHash, not a faster hash: file contents
/// are untrusted, and a fixed hash would let a file flood the table.
#[derive(Default)]
pub(crate) struct Ast {
    names: Interner,
}

impl Ast {
    fn name(&mut self, name: &str) -> Name {
        self.names.intern(name)
    }
}

impl<'t> Sink<'t> for Ast {
    type Expr = Expr;
    type Stmt = Stmt;
    type Type = Type;
    type Param = Param;
    type Field = FieldDecl;
    type Decl = Declarator;
    type DeclStmt = DeclStmt;
    type Init = Initializer;
    type Sig = FunctionSig;
    type Variant = (Name, Option<Expr>);
    type Item = Item;
    type List<T> = Vec<T>;

    fn func_arity(ty: &Type) -> Option<usize> {
        match ty {
            Type::Func { params, .. } => Some(params.len()),
            _ => None,
        }
    }

    fn expr_span(e: &Expr) -> Span {
        e.span
    }

    fn leaf_type(&mut self, ty: Type) -> Type {
        ty
    }

    fn named_type(&mut self, kind: TypeName, name: &'t str) -> Type {
        let name = self.name(name);
        match kind {
            TypeName::Typedef => Type::Named(name),
            TypeName::Struct | TypeName::Union => Type::Struct {
                name,
                is_union: matches!(kind, TypeName::Union),
            },
            TypeName::Enum => Type::Enum(name),
        }
    }

    fn ptr(&mut self, to: Type) -> Type {
        to.ptr()
    }

    fn array(&mut self, of: Type, len: Option<u64>) -> Type {
        Type::Array(Box::new(of), len)
    }

    fn func_type(&mut self, ret: Type, params: &Vec<Param>, variadic: bool) -> Type {
        Type::Func {
            ret: Box::new(ret),
            params: params.iter().map(|p| p.ty.clone()).collect(),
            variadic,
        }
    }

    // GNU typeof: an opaque named type whose name is the canonical
    // `typeof(...)` text, so printing round-trips.
    fn typeof_type(&mut self, inner: &Type) -> Type {
        let inner = crate::pretty::print_decl(inner, "");
        Type::Named(self.name(&format!("typeof({inner})")))
    }

    fn typeof_expr(&mut self, inner: &Expr) -> Type {
        let inner = crate::pretty::print_expr(inner);
        Type::Named(self.name(&format!("typeof({inner})")))
    }

    fn ident(&mut self, name: &'t str, span: Span) -> Expr {
        Expr {
            kind: ExprKind::Ident(self.name(name)),
            span,
        }
    }

    fn literal(&mut self, tok: &TokenKind<'t>, span: Span) -> Expr {
        let kind = match *tok {
            TokenKind::Int { raw, value } => ExprKind::IntLit {
                raw: self.name(raw),
                value,
            },
            TokenKind::Float(raw) => ExprKind::FloatLit(raw.to_string()),
            TokenKind::Char(c) => ExprKind::CharLit(c.to_string()),
            other => unreachable!("not a literal token: {other:?}"),
        };
        Expr { kind, span }
    }

    fn string(&mut self, toks: &[Token<'t>], span: Span) -> Expr {
        let mut text = String::new();
        for t in toks {
            if let TokenKind::Str(s) = t.kind {
                text.push_str(s);
            }
        }
        Expr {
            kind: ExprKind::StrLit(text),
            span,
        }
    }

    fn paren(&mut self, inner: Expr, span: Span) -> Expr {
        Expr {
            kind: inner.kind,
            span,
        }
    }

    fn stmt_expr(&mut self, body: Vec<Stmt>, span: Span) -> Expr {
        Expr {
            kind: ExprKind::StmtExpr(body),
            span,
        }
    }

    fn unary(&mut self, op: UnOp, operand: Expr, start: Span) -> Expr {
        let span = start.to(operand.span);
        Expr {
            kind: ExprKind::Unary(op, Box::new(operand)),
            span,
        }
    }

    fn post(&mut self, op: PostOp, operand: Expr, end: Span) -> Expr {
        let span = operand.span.to(end);
        Expr {
            kind: ExprKind::Post(op, Box::new(operand)),
            span,
        }
    }

    fn binary(&mut self, op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        let span = lhs.span.to(rhs.span);
        Expr {
            kind: ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
            span,
        }
    }

    fn assign(&mut self, op: AssignOp, lhs: Expr, rhs: Expr) -> Expr {
        let span = lhs.span.to(rhs.span);
        Expr {
            kind: ExprKind::Assign(op, Box::new(lhs), Box::new(rhs)),
            span,
        }
    }

    fn comma(&mut self, lhs: Expr, rhs: Expr) -> Expr {
        let span = lhs.span.to(rhs.span);
        Expr {
            kind: ExprKind::Comma(Box::new(lhs), Box::new(rhs)),
            span,
        }
    }

    fn ternary(&mut self, cond: Expr, then: Expr, els: Expr) -> Expr {
        let span = cond.span.to(els.span);
        Expr {
            kind: ExprKind::Ternary {
                cond: Box::new(cond),
                then_expr: Box::new(then),
                else_expr: Box::new(els),
            },
            span,
        }
    }

    fn call(&mut self, callee: Expr, args: Vec<Expr>, end: Span) -> Expr {
        let span = callee.span.to(end);
        Expr {
            kind: ExprKind::Call {
                callee: Box::new(callee),
                args,
            },
            span,
        }
    }

    fn index(&mut self, base: Expr, index: Expr, end: Span) -> Expr {
        let span = base.span.to(end);
        Expr {
            kind: ExprKind::Index(Box::new(base), Box::new(index)),
            span,
        }
    }

    fn member(&mut self, base: Expr, field: &'t str, arrow: bool, end: Span) -> Expr {
        let span = base.span.to(end);
        Expr {
            kind: ExprKind::Member {
                base: Box::new(base),
                field: self.name(field),
                arrow,
            },
            span,
        }
    }

    fn cast(&mut self, ty: Type, operand: Expr, start: Span) -> Expr {
        let span = start.to(operand.span);
        Expr {
            kind: ExprKind::Cast(ty, Box::new(operand)),
            span,
        }
    }

    fn sizeof_type(&mut self, ty: Type, span: Span) -> Expr {
        Expr {
            kind: ExprKind::SizeofType(ty),
            span,
        }
    }

    fn sizeof_expr(&mut self, operand: Expr, start: Span) -> Expr {
        let span = start.to(operand.span);
        Expr {
            kind: ExprKind::SizeofExpr(Box::new(operand)),
            span,
        }
    }

    fn init_list(&mut self, inits: Vec<Initializer>, span: Span) -> Expr {
        Expr {
            kind: ExprKind::InitList(inits),
            span,
        }
    }

    fn initializer(&mut self, designator: Option<&'t str>, value: Expr) -> Initializer {
        Initializer {
            designator: designator.map(|d| self.name(d)),
            value,
        }
    }

    fn leaf_stmt(&mut self, kind: StmtKind, span: Span) -> Stmt {
        Stmt { kind, span }
    }

    fn goto(&mut self, label: &'t str, span: Span) -> Stmt {
        Stmt {
            kind: StmtKind::Goto(self.name(label)),
            span,
        }
    }

    fn expr_stmt(&mut self, e: Expr, span: Span) -> Stmt {
        Stmt {
            kind: StmtKind::Expr(e),
            span,
        }
    }

    fn decl_stmt(&mut self, d: DeclStmt) -> Stmt {
        let span = d.span;
        Stmt {
            kind: StmtKind::Decl(d),
            span,
        }
    }

    fn block(&mut self, stmts: Vec<Stmt>, span: Span) -> Stmt {
        Stmt {
            kind: StmtKind::Block(stmts),
            span,
        }
    }

    fn ret(&mut self, value: Option<Expr>, span: Span) -> Stmt {
        Stmt {
            kind: StmtKind::Return(value),
            span,
        }
    }

    fn label(&mut self, name: &'t str, stmt: Stmt, start: Span) -> Stmt {
        let span = start.to(stmt.span);
        Stmt {
            kind: StmtKind::Label {
                name: self.name(name),
                stmt: Box::new(stmt),
            },
            span,
        }
    }

    fn case(&mut self, value: Option<Expr>, stmt: Stmt, start: Span) -> Stmt {
        let span = start.to(stmt.span);
        Stmt {
            kind: StmtKind::Case {
                value,
                stmt: Box::new(stmt),
            },
            span,
        }
    }

    fn if_stmt(&mut self, cond: Expr, then: Stmt, els: Option<Stmt>, start: Span) -> Stmt {
        let span = start.to(els.as_ref().map_or(then.span, |e| e.span));
        Stmt {
            kind: StmtKind::If {
                cond,
                then_branch: Box::new(then),
                else_branch: els.map(Box::new),
            },
            span,
        }
    }

    fn while_stmt(&mut self, cond: Expr, body: Stmt, start: Span) -> Stmt {
        let span = start.to(body.span);
        Stmt {
            kind: StmtKind::While {
                cond,
                body: Box::new(body),
            },
            span,
        }
    }

    fn do_while(&mut self, body: Stmt, cond: Expr, span: Span) -> Stmt {
        Stmt {
            kind: StmtKind::DoWhile {
                body: Box::new(body),
                cond,
            },
            span,
        }
    }

    fn for_stmt(
        &mut self,
        init: Option<Stmt>,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Stmt,
        start: Span,
    ) -> Stmt {
        let span = start.to(body.span);
        Stmt {
            kind: StmtKind::For {
                init: init.map(Box::new),
                cond,
                step,
                body: Box::new(body),
            },
            span,
        }
    }

    fn switch(&mut self, cond: Expr, body: Stmt, start: Span) -> Stmt {
        let span = start.to(body.span);
        Stmt {
            kind: StmtKind::Switch {
                cond,
                body: Box::new(body),
            },
            span,
        }
    }

    fn asm(&mut self, volatile: bool, body: &[Token<'t>], span: Span) -> Stmt {
        let mut text = String::new();
        for t in body {
            if !text.is_empty() {
                text.push(' ');
            }
            match t.kind {
                TokenKind::Ident(s) => text.push_str(s),
                TokenKind::Str(s) => text.push_str(s),
                TokenKind::Int { raw, .. } => text.push_str(raw),
                other => text.push_str(other.lexeme()),
            }
        }
        Stmt {
            kind: StmtKind::Asm {
                volatile,
                body: text,
            },
            span,
        }
    }

    fn declarator(
        &mut self,
        name: &'t str,
        ty: Type,
        init: Option<Expr>,
        span: Span,
    ) -> Declarator {
        Declarator {
            name: self.name(name),
            ty,
            init,
            span,
        }
    }

    fn decls(&mut self, decls: Vec<Declarator>, span: Span) -> DeclStmt {
        DeclStmt { decls, span }
    }

    fn param(&mut self, name: &'t str, ty: Type, span: Span) -> Param {
        Param {
            name: self.name(name),
            ty,
            span,
        }
    }

    fn field(&mut self, name: &'t str, ty: Type, span: Span) -> FieldDecl {
        FieldDecl {
            name: self.name(name),
            ty,
            span,
        }
    }

    fn sig(
        &mut self,
        name: &'t str,
        ty: &Type,
        params: Vec<Param>,
        flags: SpecFlags,
        span: Span,
    ) -> FunctionSig {
        let Type::Func { ret, variadic, .. } = ty else {
            unreachable!("a signature needs a function type")
        };
        FunctionSig {
            name: self.name(name),
            ret: (**ret).clone(),
            params,
            variadic: *variadic,
            is_static: flags.is_static,
            is_inline: flags.is_inline,
            span,
        }
    }

    fn function(&mut self, sig: FunctionSig, body: Vec<Stmt>, span: Span) -> Item {
        Item::Function(FunctionDef { sig, body, span })
    }

    fn prototype(&mut self, sig: FunctionSig) -> Item {
        Item::Prototype(sig)
    }

    fn global(&mut self, decls: DeclStmt) -> Item {
        Item::Global(decls)
    }

    fn typedef(&mut self, name: &'t str, ty: Type, span: Span) -> Item {
        Item::Typedef(Typedef {
            name: self.name(name),
            ty,
            span,
        })
    }

    fn struct_def(
        &mut self,
        name: &'t str,
        is_union: bool,
        fields: Vec<FieldDecl>,
        span: Span,
    ) -> Item {
        Item::Struct(StructDef {
            name: self.name(name),
            is_union,
            fields,
            span,
        })
    }

    fn variant(&mut self, name: &'t str, value: Option<Expr>) -> (Name, Option<Expr>) {
        (self.name(name), value)
    }

    fn enum_def(&mut self, name: &'t str, variants: Vec<(Name, Option<Expr>)>, span: Span) -> Item {
        Item::Enum(EnumDef {
            name: self.name(name),
            variants,
            span,
        })
    }
}

/// Builds nothing. Remembers only whether some call's callee is a bare
/// identifier that `watch` accepts — the same test `Expr::call_name`
/// makes on the AST, applied wherever the grammar recognizes a call.
pub(crate) struct Count<'w> {
    pub(crate) watch: &'w dyn Fn(&str) -> bool,
    pub(crate) hit: bool,
}

/// A counted expression: the identifier it is, if it is a bare one (a
/// parenthesized identifier still is, as in the AST).
pub(crate) struct CountExpr<'t>(Option<&'t str>);

/// A counted type: only whether it is a function type.
#[derive(Clone, Copy)]
pub(crate) struct CountType {
    func: bool,
}

const NOT_FUNC: CountType = CountType { func: false };
const OTHER: CountExpr<'static> = CountExpr(None);

impl<'t> Sink<'t> for Count<'_> {
    type Expr = CountExpr<'t>;
    type Stmt = Discard;
    type Type = CountType;
    type Param = Discard;
    type Field = Discard;
    type Decl = Discard;
    type DeclStmt = Discard;
    type Init = Discard;
    type Sig = Discard;
    type Variant = Discard;
    type Item = Discard;
    type List<T> = Discard;

    fn func_arity(ty: &CountType) -> Option<usize> {
        // The count is only used to trim the parameter list, which this
        // sink does not keep.
        ty.func.then_some(0)
    }

    fn expr_span(_: &CountExpr<'t>) -> Span {
        Span::DUMMY
    }

    fn leaf_type(&mut self, _: Type) -> CountType {
        NOT_FUNC
    }

    fn named_type(&mut self, _: TypeName, _: &'t str) -> CountType {
        NOT_FUNC
    }

    fn ptr(&mut self, _: CountType) -> CountType {
        NOT_FUNC
    }

    fn array(&mut self, _: CountType, _: Option<u64>) -> CountType {
        NOT_FUNC
    }

    fn func_type(&mut self, _: CountType, _: &Discard, _: bool) -> CountType {
        CountType { func: true }
    }

    fn typeof_type(&mut self, _: &CountType) -> CountType {
        NOT_FUNC
    }

    fn typeof_expr(&mut self, _: &CountExpr<'t>) -> CountType {
        NOT_FUNC
    }

    fn ident(&mut self, name: &'t str, _: Span) -> CountExpr<'t> {
        CountExpr(Some(name))
    }

    fn literal(&mut self, _: &TokenKind<'t>, _: Span) -> CountExpr<'t> {
        OTHER
    }

    fn string(&mut self, _: &[Token<'t>], _: Span) -> CountExpr<'t> {
        OTHER
    }

    fn paren(&mut self, inner: CountExpr<'t>, _: Span) -> CountExpr<'t> {
        inner
    }

    fn stmt_expr(&mut self, _: Discard, _: Span) -> CountExpr<'t> {
        OTHER
    }

    fn unary(&mut self, _: UnOp, _: CountExpr<'t>, _: Span) -> CountExpr<'t> {
        OTHER
    }

    fn post(&mut self, _: PostOp, _: CountExpr<'t>, _: Span) -> CountExpr<'t> {
        OTHER
    }

    fn binary(&mut self, _: BinOp, _: CountExpr<'t>, _: CountExpr<'t>) -> CountExpr<'t> {
        OTHER
    }

    fn assign(&mut self, _: AssignOp, _: CountExpr<'t>, _: CountExpr<'t>) -> CountExpr<'t> {
        OTHER
    }

    fn comma(&mut self, _: CountExpr<'t>, _: CountExpr<'t>) -> CountExpr<'t> {
        OTHER
    }

    fn ternary(&mut self, _: CountExpr<'t>, _: CountExpr<'t>, _: CountExpr<'t>) -> CountExpr<'t> {
        OTHER
    }

    fn call(&mut self, callee: CountExpr<'t>, _: Discard, _: Span) -> CountExpr<'t> {
        if let CountExpr(Some(name)) = callee {
            self.hit = self.hit || (self.watch)(name);
        }
        OTHER
    }

    fn index(&mut self, _: CountExpr<'t>, _: CountExpr<'t>, _: Span) -> CountExpr<'t> {
        OTHER
    }

    fn member(&mut self, _: CountExpr<'t>, _: &'t str, _: bool, _: Span) -> CountExpr<'t> {
        OTHER
    }

    fn cast(&mut self, _: CountType, _: CountExpr<'t>, _: Span) -> CountExpr<'t> {
        OTHER
    }

    fn sizeof_type(&mut self, _: CountType, _: Span) -> CountExpr<'t> {
        OTHER
    }

    fn sizeof_expr(&mut self, _: CountExpr<'t>, _: Span) -> CountExpr<'t> {
        OTHER
    }

    fn init_list(&mut self, _: Discard, _: Span) -> CountExpr<'t> {
        OTHER
    }

    fn initializer(&mut self, _: Option<&'t str>, _: CountExpr<'t>) -> Discard {
        Discard
    }

    fn leaf_stmt(&mut self, _: StmtKind, _: Span) -> Discard {
        Discard
    }

    fn goto(&mut self, _: &'t str, _: Span) -> Discard {
        Discard
    }

    fn expr_stmt(&mut self, _: CountExpr<'t>, _: Span) -> Discard {
        Discard
    }

    fn decl_stmt(&mut self, _: Discard) -> Discard {
        Discard
    }

    fn block(&mut self, _: Discard, _: Span) -> Discard {
        Discard
    }

    fn ret(&mut self, _: Option<CountExpr<'t>>, _: Span) -> Discard {
        Discard
    }

    fn label(&mut self, _: &'t str, _: Discard, _: Span) -> Discard {
        Discard
    }

    fn case(&mut self, _: Option<CountExpr<'t>>, _: Discard, _: Span) -> Discard {
        Discard
    }

    fn if_stmt(&mut self, _: CountExpr<'t>, _: Discard, _: Option<Discard>, _: Span) -> Discard {
        Discard
    }

    fn while_stmt(&mut self, _: CountExpr<'t>, _: Discard, _: Span) -> Discard {
        Discard
    }

    fn do_while(&mut self, _: Discard, _: CountExpr<'t>, _: Span) -> Discard {
        Discard
    }

    fn for_stmt(
        &mut self,
        _: Option<Discard>,
        _: Option<CountExpr<'t>>,
        _: Option<CountExpr<'t>>,
        _: Discard,
        _: Span,
    ) -> Discard {
        Discard
    }

    fn switch(&mut self, _: CountExpr<'t>, _: Discard, _: Span) -> Discard {
        Discard
    }

    fn asm(&mut self, _: bool, _: &[Token<'t>], _: Span) -> Discard {
        Discard
    }

    fn declarator(
        &mut self,
        _: &'t str,
        _: CountType,
        _: Option<CountExpr<'t>>,
        _: Span,
    ) -> Discard {
        Discard
    }

    fn decls(&mut self, _: Discard, _: Span) -> Discard {
        Discard
    }

    fn param(&mut self, _: &'t str, _: CountType, _: Span) -> Discard {
        Discard
    }

    fn field(&mut self, _: &'t str, _: CountType, _: Span) -> Discard {
        Discard
    }

    fn sig(&mut self, _: &'t str, _: &CountType, _: Discard, _: SpecFlags, _: Span) -> Discard {
        Discard
    }

    fn function(&mut self, _: Discard, _: Discard, _: Span) -> Discard {
        Discard
    }

    fn prototype(&mut self, _: Discard) -> Discard {
        Discard
    }

    fn global(&mut self, _: Discard) -> Discard {
        Discard
    }

    fn typedef(&mut self, _: &'t str, _: CountType, _: Span) -> Discard {
        Discard
    }

    fn struct_def(&mut self, _: &'t str, _: bool, _: Discard, _: Span) -> Discard {
        Discard
    }

    fn variant(&mut self, _: &'t str, _: Option<CountExpr<'t>>) -> Discard {
        Discard
    }

    fn enum_def(&mut self, _: &'t str, _: Discard, _: Span) -> Discard {
        Discard
    }
}
