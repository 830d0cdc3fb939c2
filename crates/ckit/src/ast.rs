//! Abstract syntax tree for the kernel-C subset.
//!
//! The AST is `Box`-based with interned [`Name`] identifiers: names are
//! shared `Arc<str>`s from the file's lexer symbol table, so cloning a
//! subtree (into `FunctionInfo`, CFG lowering, summaries) bumps
//! refcounts instead of copying strings. Every node carries a [`Span`]
//! back into the original source — patch synthesis depends on it.

use crate::intern::Name;
use crate::span::Span;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One parsed source file.
#[derive(Clone, Debug, PartialEq)]
pub struct TranslationUnit {
    pub items: Vec<Item>,
}

/// Top-level item.
#[derive(Clone, Debug, PartialEq)]
pub enum Item {
    Struct(StructDef),
    Enum(EnumDef),
    Typedef(Typedef),
    Function(FunctionDef),
    /// Function prototype (no body).
    Prototype(FunctionSig),
    /// Global variable declaration(s).
    Global(DeclStmt),
}

impl Item {
    pub fn span(&self) -> Span {
        match self {
            Item::Struct(s) => s.span,
            Item::Enum(e) => e.span,
            Item::Typedef(t) => t.span,
            Item::Function(f) => f.span,
            Item::Prototype(p) => p.span,
            Item::Global(g) => g.span,
        }
    }
}

/// `struct`/`union` definition.
#[derive(Clone, Debug, PartialEq)]
pub struct StructDef {
    pub name: Name,
    pub is_union: bool,
    pub fields: Vec<FieldDecl>,
    pub span: Span,
}

#[derive(Clone, Debug, PartialEq)]
pub struct FieldDecl {
    pub name: Name,
    pub ty: Type,
    pub span: Span,
}

#[derive(Clone, Debug, PartialEq)]
pub struct EnumDef {
    pub name: Name,
    pub variants: Vec<(Name, Option<Expr>)>,
    pub span: Span,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Typedef {
    pub name: Name,
    pub ty: Type,
    pub span: Span,
}

/// Function signature shared by definitions and prototypes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FunctionSig {
    pub name: Name,
    pub ret: Type,
    pub params: Vec<Param>,
    pub variadic: bool,
    pub is_static: bool,
    pub is_inline: bool,
    pub span: Span,
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Param {
    pub name: Name,
    pub ty: Type,
    pub span: Span,
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FunctionDef {
    pub sig: FunctionSig,
    pub body: Vec<Stmt>,
    pub span: Span,
}

/// Types. Qualifiers (`const`, `volatile`) and kernel annotations
/// (`__rcu`, `__percpu`, …) are dropped during parsing: the analysis is
/// qualifier-insensitive, exactly like the paper's `(struct, field)` tuples.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Type {
    Void,
    Bool,
    /// Any integer flavour; `signed` + rank captured loosely since the
    /// analysis never needs exact widths.
    Int {
        unsigned: bool,
        rank: IntRank,
    },
    Float,
    Double,
    /// A typedef name (`u64`, `atomic_t`, `seqcount_t`, …).
    Named(Name),
    /// `struct foo` / `union foo` reference.
    Struct {
        name: Name,
        is_union: bool,
    },
    Enum(Name),
    Ptr(Box<Type>),
    Array(Box<Type>, Option<u64>),
    /// Function type (for function pointers).
    Func {
        ret: Box<Type>,
        params: Vec<Type>,
        variadic: bool,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IntRank {
    Char,
    Short,
    Int,
    Long,
    LongLong,
}

impl Type {
    pub fn ptr(self) -> Type {
        Type::Ptr(Box::new(self))
    }

    pub fn strukt(name: &str) -> Type {
        Type::Struct {
            name: name.into(),
            is_union: false,
        }
    }

    pub fn int() -> Type {
        Type::Int {
            unsigned: false,
            rank: IntRank::Int,
        }
    }

    /// Strip pointers and arrays down to the pointee/element type.
    pub fn base(&self) -> &Type {
        match self {
            Type::Ptr(t) | Type::Array(t, _) => t.base(),
            t => t,
        }
    }

    /// Struct name if this (or its pointee) is a struct/union type.
    pub fn struct_name(&self) -> Option<&str> {
        match self.base() {
            Type::Struct { name, .. } => Some(name),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Bool => write!(f, "bool"),
            Type::Int { unsigned, rank } => {
                if *unsigned {
                    write!(f, "unsigned ")?;
                }
                match rank {
                    IntRank::Char => write!(f, "char"),
                    IntRank::Short => write!(f, "short"),
                    IntRank::Int => write!(f, "int"),
                    IntRank::Long => write!(f, "long"),
                    IntRank::LongLong => write!(f, "long long"),
                }
            }
            Type::Float => write!(f, "float"),
            Type::Double => write!(f, "double"),
            Type::Named(n) => write!(f, "{n}"),
            Type::Struct { name, is_union } => {
                write!(f, "{} {name}", if *is_union { "union" } else { "struct" })
            }
            Type::Enum(n) => write!(f, "enum {n}"),
            Type::Ptr(t) => write!(f, "{t} *"),
            Type::Array(t, Some(n)) => write!(f, "{t}[{n}]"),
            Type::Array(t, None) => write!(f, "{t}[]"),
            Type::Func {
                ret,
                params,
                variadic,
            } => {
                write!(f, "{ret} (*)(")?;
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                if *variadic {
                    if !params.is_empty() {
                        write!(f, ", ")?;
                    }
                    write!(f, "...")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A declaration statement: `int a = 1, *b;` is one `DeclStmt` with two
/// declarators.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeclStmt {
    pub decls: Vec<Declarator>,
    pub span: Span,
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Declarator {
    pub name: Name,
    pub ty: Type,
    pub init: Option<Expr>,
    pub span: Span,
}

/// Statements.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Stmt {
    pub kind: StmtKind,
    pub span: Span,
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum StmtKind {
    Expr(Expr),
    Decl(DeclStmt),
    Block(Vec<Stmt>),
    If {
        cond: Expr,
        then_branch: Box<Stmt>,
        else_branch: Option<Box<Stmt>>,
    },
    While {
        cond: Expr,
        body: Box<Stmt>,
    },
    DoWhile {
        body: Box<Stmt>,
        cond: Expr,
    },
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Box<Stmt>,
    },
    Switch {
        cond: Expr,
        body: Box<Stmt>,
    },
    /// `case expr:` / `default:` label; `value == None` is `default`.
    Case {
        value: Option<Expr>,
        stmt: Box<Stmt>,
    },
    Goto(Name),
    Label {
        name: Name,
        stmt: Box<Stmt>,
    },
    Return(Option<Expr>),
    Break,
    Continue,
    /// Inline assembly, kept as raw text (`asm volatile("..." ::: "memory")`).
    /// The analysis treats it as an opaque statement with no tracked
    /// memory accesses; a `"memory"` clobber is a *compiler* barrier only.
    Asm {
        volatile: bool,
        body: String,
    },
    Empty,
}

/// Expressions.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Expr {
    pub kind: ExprKind,
    pub span: Span,
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ExprKind {
    Ident(Name),
    IntLit {
        raw: Name,
        value: u64,
    },
    FloatLit(String),
    StrLit(String),
    CharLit(String),
    Unary(UnOp, Box<Expr>),
    /// `expr++` / `expr--`.
    Post(PostOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    Assign(AssignOp, Box<Expr>, Box<Expr>),
    Ternary {
        cond: Box<Expr>,
        then_expr: Box<Expr>,
        else_expr: Box<Expr>,
    },
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
    },
    /// `base.field` (`arrow == false`) or `base->field` (`arrow == true`).
    Member {
        base: Box<Expr>,
        field: Name,
        arrow: bool,
    },
    Index(Box<Expr>, Box<Expr>),
    Cast(Type, Box<Expr>),
    SizeofType(Type),
    SizeofExpr(Box<Expr>),
    Comma(Box<Expr>, Box<Expr>),
    /// Brace initializer `{ .a = 1, 2 }`.
    InitList(Vec<Initializer>),
    /// GNU statement expression `({ ...; v; })`, ubiquitous in kernel macros.
    StmtExpr(Vec<Stmt>),
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Initializer {
    /// `.field =` designator, if present.
    pub designator: Option<Name>,
    pub value: Expr,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    Neg,    // -
    Plus,   // +
    Not,    // !
    BitNot, // ~
    Deref,  // *
    Addr,   // &
    PreInc,
    PreDec,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PostOp {
    Inc,
    Dec,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And, // &&
    Or,  // ||
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AssignOp {
    Assign,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
}

impl Expr {
    /// The identifier if this expression is a bare name.
    pub fn as_ident(&self) -> Option<&str> {
        match &self.kind {
            ExprKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Callee name if this is a direct call `f(...)`.
    pub fn call_name(&self) -> Option<&str> {
        match &self.kind {
            ExprKind::Call { callee, .. } => callee.as_ident(),
            _ => None,
        }
    }

    /// Walk this expression and all sub-expressions, outermost first.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match &self.kind {
            ExprKind::Ident(_)
            | ExprKind::IntLit { .. }
            | ExprKind::FloatLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::CharLit(_)
            | ExprKind::SizeofType(_) => {}
            ExprKind::Unary(_, e)
            | ExprKind::Post(_, e)
            | ExprKind::Cast(_, e)
            | ExprKind::SizeofExpr(e) => e.walk(f),
            ExprKind::Binary(_, a, b)
            | ExprKind::Assign(_, a, b)
            | ExprKind::Index(a, b)
            | ExprKind::Comma(a, b) => {
                a.walk(f);
                b.walk(f);
            }
            ExprKind::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                cond.walk(f);
                then_expr.walk(f);
                else_expr.walk(f);
            }
            ExprKind::Call { callee, args } => {
                callee.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::Member { base, .. } => base.walk(f),
            ExprKind::InitList(inits) => {
                for i in inits {
                    i.value.walk(f);
                }
            }
            ExprKind::StmtExpr(stmts) => {
                for s in stmts {
                    s.walk_exprs(f);
                }
            }
        }
    }
}

impl Stmt {
    /// Visit every expression contained in this statement (not descending
    /// into nested statements' expressions? — it does descend: blocks, ifs,
    /// loops are all walked recursively).
    pub fn walk_exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match &self.kind {
            StmtKind::Expr(e) => e.walk(f),
            StmtKind::Decl(d) => {
                for decl in &d.decls {
                    if let Some(init) = &decl.init {
                        init.walk(f);
                    }
                }
            }
            StmtKind::Block(stmts) => {
                for s in stmts {
                    s.walk_exprs(f);
                }
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                cond.walk(f);
                then_branch.walk_exprs(f);
                if let Some(e) = else_branch {
                    e.walk_exprs(f);
                }
            }
            StmtKind::While { cond, body } => {
                cond.walk(f);
                body.walk_exprs(f);
            }
            StmtKind::DoWhile { body, cond } => {
                body.walk_exprs(f);
                cond.walk(f);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    i.walk_exprs(f);
                }
                if let Some(c) = cond {
                    c.walk(f);
                }
                if let Some(s) = step {
                    s.walk(f);
                }
                body.walk_exprs(f);
            }
            StmtKind::Switch { cond, body } => {
                cond.walk(f);
                body.walk_exprs(f);
            }
            StmtKind::Case { value, stmt } => {
                if let Some(v) = value {
                    v.walk(f);
                }
                stmt.walk_exprs(f);
            }
            StmtKind::Label { stmt, .. } => stmt.walk_exprs(f),
            StmtKind::Return(Some(e)) => e.walk(f),
            StmtKind::Goto(_)
            | StmtKind::Return(None)
            | StmtKind::Break
            | StmtKind::Continue
            | StmtKind::Asm { .. }
            | StmtKind::Empty => {}
        }
    }
}

impl TranslationUnit {
    pub fn functions(&self) -> impl Iterator<Item = &FunctionDef> {
        self.items.iter().filter_map(|i| match i {
            Item::Function(f) => Some(f),
            _ => None,
        })
    }

    pub fn structs(&self) -> impl Iterator<Item = &StructDef> {
        self.items.iter().filter_map(|i| match i {
            Item::Struct(s) => Some(s),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_display() {
        assert_eq!(Type::strukt("foo").ptr().to_string(), "struct foo *");
        assert_eq!(
            Type::Int {
                unsigned: true,
                rank: IntRank::Long
            }
            .to_string(),
            "unsigned long"
        );
    }

    #[test]
    fn type_base_strips_pointers() {
        let t = Type::strukt("req").ptr().ptr();
        assert_eq!(t.struct_name(), Some("req"));
        let arr = Type::Array(Box::new(Type::strukt("sock").ptr()), Some(4));
        assert_eq!(arr.struct_name(), Some("sock"));
    }

    #[test]
    fn expr_walk_visits_all() {
        // a->b + f(c)
        let e = Expr {
            span: Span::DUMMY,
            kind: ExprKind::Binary(
                BinOp::Add,
                Box::new(Expr {
                    span: Span::DUMMY,
                    kind: ExprKind::Member {
                        base: Box::new(Expr {
                            span: Span::DUMMY,
                            kind: ExprKind::Ident("a".into()),
                        }),
                        field: "b".into(),
                        arrow: true,
                    },
                }),
                Box::new(Expr {
                    span: Span::DUMMY,
                    kind: ExprKind::Call {
                        callee: Box::new(Expr {
                            span: Span::DUMMY,
                            kind: ExprKind::Ident("f".into()),
                        }),
                        args: vec![Expr {
                            span: Span::DUMMY,
                            kind: ExprKind::Ident("c".into()),
                        }],
                    },
                }),
            ),
        };
        let mut count = 0;
        e.walk(&mut |_| count += 1);
        assert_eq!(count, 6);
    }
}
