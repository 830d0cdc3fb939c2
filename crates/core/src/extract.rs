//! Extraction of shared-object accesses from expressions.
//!
//! Turns every structure-field access in an expression into a
//! [`SharedObject`] + read/write classification, resolving the struct
//! identity through the typing environment (paper §3: "we rely on data
//! types and field names to distinguish objects").

use crate::ir::{AccessKind, SharedObject};
use cfgir::TypeEnv;
use ckit::ast::{Expr, ExprKind, PostOp, UnOp};
use ckit::span::Span;
use kmodel::{CallSemantics, OnceKind};

/// An access found in a single expression (no barrier-relative data yet).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawAccess {
    pub object: SharedObject,
    pub kind: AccessKind,
    pub span: Span,
    /// Wrapped in `READ_ONCE`/`WRITE_ONCE`.
    pub annotated: bool,
}

/// Extract all shared-object accesses in `expr`.
pub fn accesses_in_expr(expr: &Expr, env: &TypeEnv<'_>) -> Vec<RawAccess> {
    let mut out = Vec::new();
    collect(expr, env, Ctx::Read, false, &mut out);
    out
}

/// Calls in `expr` that are *not* concurrency primitives (candidates for
/// callee expansion), with their callee names.
pub fn plain_calls_in_expr(expr: &Expr) -> Vec<(String, Span)> {
    let mut out = Vec::new();
    expr.walk(&mut |e| {
        if let Some(name) = e.call_name() {
            if matches!(kmodel::classify_call(name), CallSemantics::Plain) {
                out.push((name.to_string(), e.span));
            }
        }
    });
    out
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Ctx {
    Read,
    Write,
    ReadWrite,
}

impl Ctx {
    fn kinds(self) -> &'static [AccessKind] {
        match self {
            Ctx::Read => &[AccessKind::Read],
            Ctx::Write => &[AccessKind::Write],
            Ctx::ReadWrite => &[AccessKind::Read, AccessKind::Write],
        }
    }
}

fn collect(e: &Expr, env: &TypeEnv<'_>, ctx: Ctx, annotated: bool, out: &mut Vec<RawAccess>) {
    match &e.kind {
        ExprKind::Ident(name) => {
            // A bare identifier is a shared object only if it's a global
            // variable (not a local, not an enum constant, not a function).
            if env.vars.contains_key(name.as_str())
                || env.file.enum_consts.contains_key(name.as_str())
                || env.file.functions.contains_key(name.as_str())
            {
                return;
            }
            if env.file.globals.contains_key(name.as_str()) {
                for &k in ctx.kinds() {
                    out.push(RawAccess {
                        object: SharedObject::global(name.to_string()),
                        kind: k,
                        span: e.span,
                        annotated,
                    });
                }
            }
        }
        ExprKind::Member { base, field, .. } => {
            if let Some(strukt) = env.member_struct(base) {
                for &k in ctx.kinds() {
                    out.push(RawAccess {
                        object: SharedObject::new(strukt.clone(), field.clone()),
                        kind: k,
                        span: e.span,
                        annotated,
                    });
                }
            }
            // The base pointer itself is read.
            collect(base, env, Ctx::Read, false, out);
        }
        ExprKind::Index(base, index) => {
            // Writing `a->arr[i]` writes the `arr` field's memory.
            collect(base, env, ctx, annotated, out);
            collect(index, env, Ctx::Read, false, out);
        }
        ExprKind::Unary(UnOp::Deref, inner) => {
            // `*p = v` writes through p; p itself is read.
            collect(inner, env, ctx_deref(ctx), annotated, out);
        }
        ExprKind::Unary(UnOp::Addr, inner) => {
            // Taking an address is not an access; but `&a->x` names the
            // object for primitives, which handle it themselves. In plain
            // context, no access happens.
            if let ExprKind::Member { base, .. } = &inner.kind {
                collect(base, env, Ctx::Read, false, out);
            } else {
                // &arr[i]: index read
                if let ExprKind::Index(b, i) = &inner.kind {
                    collect(b, env, Ctx::Read, false, out);
                    collect(i, env, Ctx::Read, false, out);
                }
            }
        }
        ExprKind::Unary(UnOp::PreInc | UnOp::PreDec, inner) => {
            collect(inner, env, Ctx::ReadWrite, annotated, out);
        }
        ExprKind::Unary(_, inner) => collect(inner, env, Ctx::Read, false, out),
        ExprKind::Post(PostOp::Inc | PostOp::Dec, inner) => {
            collect(inner, env, Ctx::ReadWrite, annotated, out);
        }
        ExprKind::Assign(op, lhs, rhs) => {
            let lhs_ctx = if *op == ckit::ast::AssignOp::Assign {
                Ctx::Write
            } else {
                Ctx::ReadWrite // compound assignment reads then writes
            };
            collect(lhs, env, lhs_ctx, annotated, out);
            collect(rhs, env, Ctx::Read, false, out);
        }
        ExprKind::Binary(_, a, b) | ExprKind::Comma(a, b) => {
            collect(a, env, Ctx::Read, false, out);
            collect(b, env, Ctx::Read, false, out);
        }
        ExprKind::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            collect(cond, env, Ctx::Read, false, out);
            collect(then_expr, env, ctx, annotated, out);
            collect(else_expr, env, ctx, annotated, out);
        }
        ExprKind::Call { callee, args } => {
            let name = callee.as_ident().unwrap_or("");
            collect_call(name, args, e.span, env, out);
        }
        ExprKind::Cast(_, inner) => collect(inner, env, ctx, annotated, out),
        ExprKind::SizeofExpr(_) | ExprKind::SizeofType(_) => {
            // sizeof does not evaluate its operand.
        }
        ExprKind::InitList(inits) => {
            for i in inits {
                collect(&i.value, env, Ctx::Read, false, out);
            }
        }
        ExprKind::StmtExpr(stmts) => {
            for s in stmts {
                collect_stmt(s, env, out);
            }
        }
        ExprKind::IntLit { .. }
        | ExprKind::FloatLit(_)
        | ExprKind::StrLit(_)
        | ExprKind::CharLit(_) => {}
    }
}

/// Extract accesses from the expressions of a CFG node.
pub fn accesses_in_node(kind: &cfgir::NodeKind, env: &TypeEnv<'_>) -> Vec<RawAccess> {
    let mut out = Vec::new();
    for e in kind.exprs() {
        collect(e, env, Ctx::Read, false, &mut out);
    }
    out
}

fn collect_stmt(s: &ckit::ast::Stmt, env: &TypeEnv<'_>, out: &mut Vec<RawAccess>) {
    use ckit::ast::StmtKind;
    match &s.kind {
        StmtKind::Expr(e) => collect(e, env, Ctx::Read, false, out),
        StmtKind::Decl(d) => {
            for decl in &d.decls {
                if let Some(init) = &decl.init {
                    collect(init, env, Ctx::Read, false, out);
                }
            }
        }
        StmtKind::Block(stmts) => {
            for s in stmts {
                collect_stmt(s, env, out);
            }
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            collect(cond, env, Ctx::Read, false, out);
            collect_stmt(then_branch, env, out);
            if let Some(e) = else_branch {
                collect_stmt(e, env, out);
            }
        }
        StmtKind::Return(Some(e)) => collect(e, env, Ctx::Read, false, out),
        _ => {}
    }
}

fn ctx_deref(ctx: Ctx) -> Ctx {
    // Writing through `*p` reads p. The pointed-to object's identity is
    // lost unless p is itself a member (handled recursively as a read).
    match ctx {
        Ctx::Write | Ctx::ReadWrite => Ctx::Read,
        Ctx::Read => Ctx::Read,
    }
}

/// Accesses performed by a call, interpreting kernel primitives.
fn collect_call(
    name: &str,
    args: &[Expr],
    call_span: Span,
    env: &TypeEnv<'_>,
    out: &mut Vec<RawAccess>,
) {
    match kmodel::classify_call(name) {
        CallSemantics::Once(kind) => {
            // READ_ONCE(x) / WRITE_ONCE(x, v)
            if let Some(target) = args.first() {
                let ctx = match kind {
                    OnceKind::Read => Ctx::Read,
                    OnceKind::Write => Ctx::Write,
                };
                collect(target, env, ctx, true, out);
            }
            if let (OnceKind::Write, Some(v)) = (kind, args.get(1)) {
                collect(v, env, Ctx::Read, false, out);
            }
        }
        CallSemantics::Barrier(kind) => {
            // smp_store_release(&x, v) / smp_load_acquire(&x) /
            // smp_store_mb(&x, v): the primitive accesses its target.
            use kmodel::ImpliedAccess;
            match kind.implied_access() {
                ImpliedAccess::StoreBefore | ImpliedAccess::StoreAfter => {
                    if let Some(t) = args.first() {
                        collect_target(t, env, Ctx::Write, call_span, out);
                    }
                    if let Some(v) = args.get(1) {
                        collect(v, env, Ctx::Read, false, out);
                    }
                }
                ImpliedAccess::LoadBefore => {
                    if let Some(t) = args.first() {
                        collect_target(t, env, Ctx::Read, call_span, out);
                    }
                }
                ImpliedAccess::None => {}
            }
        }
        CallSemantics::Atomic(sem) => {
            // atomic_*(…, &target) / bitops(nr, &addr): conventionally the
            // *last* pointer argument is the target.
            let ctx = match (sem.reads, sem.writes) {
                (true, true) => Ctx::ReadWrite,
                (false, true) => Ctx::Write,
                _ => Ctx::Read,
            };
            if let Some(target) = atomic_target(args) {
                collect_target(target, env, ctx, call_span, out);
            }
            for a in args {
                if atomic_target(args).map(|t| std::ptr::eq(t, a)) != Some(true) {
                    collect(a, env, Ctx::Read, false, out);
                }
            }
        }
        CallSemantics::Seqcount(op) => {
            // The counter access.
            let ctx = if op.writes_counter() {
                Ctx::ReadWrite
            } else {
                Ctx::Read
            };
            if let Some(t) = args.first() {
                collect_target(t, env, ctx, call_span, out);
            }
        }
        CallSemantics::WakeUp | CallSemantics::Plain => {
            for a in args {
                collect(a, env, Ctx::Read, false, out);
            }
        }
    }
}

/// The conventional target argument of an atomic/bitop: the last argument
/// that syntactically looks like an address (`&x`) or a pointer variable.
fn atomic_target(args: &[Expr]) -> Option<&Expr> {
    args.iter()
        .rev()
        .find(|a| matches!(a.kind, ExprKind::Unary(UnOp::Addr, _)))
        .or_else(|| args.last())
}

/// Resolve a primitive's target argument (typically `&a->x` or `&counter`)
/// to an access on the pointed-at object.
fn collect_target(
    target: &Expr,
    env: &TypeEnv<'_>,
    ctx: Ctx,
    call_span: Span,
    out: &mut Vec<RawAccess>,
) {
    let inner = match &target.kind {
        ExprKind::Unary(UnOp::Addr, inner) => inner,
        _ => target,
    };
    match &inner.kind {
        ExprKind::Member { base, field, .. } => {
            if let Some(strukt) = env.member_struct(base) {
                for &k in ctx.kinds() {
                    out.push(RawAccess {
                        object: SharedObject::new(strukt.clone(), field.clone()),
                        kind: k,
                        span: inner.span,
                        annotated: false,
                    });
                }
            }
            collect(base, env, Ctx::Read, false, out);
        }
        ExprKind::Ident(name) => {
            // Global counters (`static seqcount_t seq;`) and locals that
            // alias per-cpu counters. A local pointer to a seqcount is
            // typed; name the object by its type when we can.
            if env.file.globals.contains_key(name.as_str()) {
                for &k in ctx.kinds() {
                    out.push(RawAccess {
                        object: SharedObject::global(name.to_string()),
                        kind: k,
                        span: inner.span,
                        annotated: false,
                    });
                }
            } else if let Some(ty) = env.vars.get(name.as_str()) {
                // Local pointer/variable: identify the object by its type
                // name (e.g. `seqcount_t`) so reader and writer match.
                let tyname = type_object_name(ty);
                if let Some(tyname) = tyname {
                    for &k in ctx.kinds() {
                        out.push(RawAccess {
                            object: SharedObject::new("<typed>", tyname.clone()),
                            kind: k,
                            span: inner.span,
                            annotated: false,
                        });
                    }
                }
            }
            let _ = call_span;
        }
        // `&per_cpu(xt_recseq, cpu)`-style: name the object after the
        // first argument symbol.
        ExprKind::Call { args, .. } => {
            if let Some(first) = args.first() {
                if let Some(sym) = first.as_ident() {
                    for &k in ctx.kinds() {
                        out.push(RawAccess {
                            object: SharedObject::global(sym.to_string()),
                            kind: k,
                            span: inner.span,
                            annotated: false,
                        });
                    }
                }
            }
        }
        _ => collect(inner, env, ctx, false, out),
    }
}

/// Name a type for object identity of non-member targets.
fn type_object_name(ty: &ckit::ast::Type) -> Option<String> {
    use ckit::ast::Type;
    match ty {
        Type::Named(n) => Some(n.to_string()),
        Type::Ptr(inner) | Type::Array(inner, _) => type_object_name(inner),
        Type::Struct { name, .. } if !name.is_empty() => Some(name.to_string()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfgir::{FileSymbols, TypeEnv};
    use ckit::parse_string;

    /// Extract accesses from the body of the *last* function in `src`,
    /// statement by statement.
    fn extract(src: &str) -> Vec<(String, AccessKind, bool)> {
        let out = parse_string("t.c", src).unwrap();
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        let sym = FileSymbols::build(&out.unit);
        let f = out.unit.functions().last().unwrap();
        let env = TypeEnv::for_function(&sym, f);
        let mut result = Vec::new();
        for s in &f.body {
            let mut raw = Vec::new();
            collect_stmt(s, &env, &mut raw);
            for r in raw {
                result.push((r.object.to_string(), r.kind, r.annotated));
            }
        }
        result
    }

    #[test]
    fn plain_write() {
        let acc = extract("struct s { int x; };\nvoid f(struct s *p) { p->x = 1; }");
        assert_eq!(
            acc,
            vec![("(struct s, x)".into(), AccessKind::Write, false)]
        );
    }

    #[test]
    fn plain_read() {
        let acc = extract("struct s { int x; };\nint f(struct s *p) { return p->x; }");
        assert_eq!(acc, vec![("(struct s, x)".into(), AccessKind::Read, false)]);
    }

    #[test]
    fn compound_assign_reads_and_writes() {
        let acc = extract("struct s { int x; };\nvoid f(struct s *p) { p->x += 2; }");
        assert_eq!(
            acc,
            vec![
                ("(struct s, x)".into(), AccessKind::Read, false),
                ("(struct s, x)".into(), AccessKind::Write, false),
            ]
        );
    }

    #[test]
    fn increment_is_read_write() {
        let acc = extract("struct s { int n; };\nvoid f(struct s *p) { p->n++; }");
        assert_eq!(acc.len(), 2);
        assert!(acc.iter().any(|a| a.1 == AccessKind::Read));
        assert!(acc.iter().any(|a| a.1 == AccessKind::Write));
    }

    #[test]
    fn array_element_write_hits_field() {
        let src = "struct sock { int id; };\nstruct reuse { struct sock *socks[8]; int num; };\nvoid f(struct reuse *r, struct sock *sk) { r->socks[r->num] = sk; }";
        let acc = extract(src);
        assert!(acc.contains(&("(struct reuse, socks)".into(), AccessKind::Write, false)));
        assert!(acc.contains(&("(struct reuse, num)".into(), AccessKind::Read, false)));
    }

    #[test]
    fn rhs_member_reads() {
        let src = "struct req { int a; int b; };\nvoid f(struct req *r) { r->a = r->b + 1; }";
        let acc = extract(src);
        assert!(acc.contains(&("(struct req, a)".into(), AccessKind::Write, false)));
        assert!(acc.contains(&("(struct req, b)".into(), AccessKind::Read, false)));
    }

    #[test]
    fn condition_reads() {
        let src = "struct s { int init; int y; };\nvoid f(struct s *a) { if (!a->init) return; a->y = 2; }";
        let acc = extract(src);
        assert_eq!(acc[0], ("(struct s, init)".into(), AccessKind::Read, false));
    }

    #[test]
    fn read_once_is_annotated() {
        let src = "struct s { int x; };\nvoid f(struct s *p) { int v = READ_ONCE(p->x); }";
        let acc = extract(src);
        assert_eq!(acc, vec![("(struct s, x)".into(), AccessKind::Read, true)]);
    }

    #[test]
    fn write_once_is_annotated_write() {
        let src = "struct s { int x; };\nvoid f(struct s *p) { WRITE_ONCE(p->x, 1); }";
        let acc = extract(src);
        assert_eq!(acc, vec![("(struct s, x)".into(), AccessKind::Write, true)]);
    }

    #[test]
    fn store_release_writes_target() {
        let src =
            "struct s { int flag; };\nvoid f(struct s *p) { smp_store_release(&p->flag, 1); }";
        let acc = extract(src);
        assert_eq!(
            acc,
            vec![("(struct s, flag)".into(), AccessKind::Write, false)]
        );
    }

    #[test]
    fn load_acquire_reads_target() {
        let src =
            "struct s { int flag; };\nint f(struct s *p) { return smp_load_acquire(&p->flag); }";
        let acc = extract(src);
        assert_eq!(
            acc,
            vec![("(struct s, flag)".into(), AccessKind::Read, false)]
        );
    }

    #[test]
    fn atomic_inc_member_target() {
        let src = "struct s { atomic_t refs; };\nvoid f(struct s *p) { atomic_inc(&p->refs); }";
        let acc = extract(src);
        assert!(acc.contains(&("(struct s, refs)".into(), AccessKind::Write, false)));
        assert!(acc.contains(&("(struct s, refs)".into(), AccessKind::Read, false)));
    }

    #[test]
    fn set_bit_targets_last_addr_arg() {
        let src =
            "struct s { unsigned long state; };\nvoid f(struct s *p) { set_bit(3, &p->state); }";
        let acc = extract(src);
        assert!(acc.contains(&("(struct s, state)".into(), AccessKind::Write, false)));
    }

    #[test]
    fn seqcount_global_counter() {
        let src = "static seqcount_t seq;\nstruct d { int v; };\nvoid f(struct d *p) { write_seqcount_begin(&seq); p->v = 1; write_seqcount_end(&seq); }";
        let acc = extract(src);
        assert!(acc.contains(&("seq".into(), AccessKind::Write, false)));
        assert!(acc.contains(&("seq".into(), AccessKind::Read, false)));
        assert!(acc.contains(&("(struct d, v)".into(), AccessKind::Write, false)));
    }

    #[test]
    fn seqcount_local_pointer_uses_type_identity() {
        let src = "void f(void) { seqcount_t *s = get(); int v = read_seqcount_begin(s); }";
        let acc = extract(src);
        assert!(acc.contains(&(
            "(struct <typed>, seqcount_t)".into(),
            AccessKind::Read,
            false
        )));
    }

    #[test]
    fn global_variable_access() {
        let src = "static int state;\nvoid f(void) { state = 1; }";
        let acc = extract(src);
        assert_eq!(acc, vec![("state".into(), AccessKind::Write, false)]);
    }

    #[test]
    fn locals_are_not_shared_objects() {
        let src = "void f(void) { int local = 0; local = 1; }";
        let acc = extract(src);
        assert!(acc.is_empty());
    }

    #[test]
    fn sizeof_does_not_access() {
        let src = "struct s { int x; };\nvoid f(struct s *p) { int n = sizeof(p->x); }";
        let acc = extract(src);
        assert!(acc.is_empty());
    }

    #[test]
    fn call_args_read() {
        let src = "struct s { int x; };\nvoid f(struct s *p) { consume(p->x); }";
        let acc = extract(src);
        assert_eq!(acc, vec![("(struct s, x)".into(), AccessKind::Read, false)]);
    }

    #[test]
    fn nested_member_chain_yields_both_tuples() {
        let src = "struct inner { int c; };\nstruct outer { struct inner b; };\nvoid f(struct outer *a) { int v = a->b.c; }";
        let acc = extract(src);
        assert!(acc.contains(&("(struct inner, c)".into(), AccessKind::Read, false)));
        assert!(acc.contains(&("(struct outer, b)".into(), AccessKind::Read, false)));
    }

    #[test]
    fn plain_calls_found() {
        let out = parse_string("t.c", "void f(void) { helper(1); smp_wmb(); }").unwrap();
        let f = out.unit.functions().next().unwrap();
        let mut calls = Vec::new();
        for s in &f.body {
            s.walk_exprs(&mut |e| {
                if let ExprKind::Call { .. } = e.kind {
                    calls.extend(plain_calls_in_expr(e));
                }
            });
        }
        let names: Vec<_> = calls.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"helper"));
        assert!(!names.contains(&"smp_wmb"));
    }
}
