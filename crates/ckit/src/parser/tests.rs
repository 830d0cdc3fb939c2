//! Parser unit tests: each exercises a distinct grammar corner used by
//! kernel barrier code.

use crate::ast::*;
use crate::parse_string;

fn parse_ok(src: &str) -> TranslationUnit {
    let out = parse_string("test.c", src).expect("front end");
    assert!(out.errors.is_empty(), "parse errors: {:#?}", out.errors);
    out.unit
}

fn only_fn(src: &str) -> FunctionDef {
    let unit = parse_ok(src);
    let mut fns: Vec<_> = unit.functions().cloned().collect();
    assert_eq!(fns.len(), 1, "expected exactly one function");
    fns.pop().unwrap()
}

#[test]
fn empty_unit() {
    assert!(parse_ok("").items.is_empty());
}

#[test]
fn struct_definition() {
    let unit = parse_ok("struct my_struct { int x; int init; struct other *next; };");
    let s = unit.structs().next().unwrap();
    assert_eq!(s.name, "my_struct");
    assert_eq!(s.fields.len(), 3);
    assert_eq!(s.fields[0].name, "x");
    assert_eq!(s.fields[2].ty, Type::strukt("other").ptr());
}

#[test]
fn union_definition() {
    let unit = parse_ok("union u { int a; char b; };");
    let s = unit.structs().next().unwrap();
    assert!(s.is_union);
}

#[test]
fn anonymous_nested_struct_flattens() {
    let unit = parse_ok("struct s { int a; struct { int b; int c; }; int d; };");
    let s = unit.structs().next().unwrap();
    let names: Vec<_> = s.fields.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, vec!["a", "b", "c", "d"]);
}

#[test]
fn struct_with_trailing_declarator() {
    let unit = parse_ok("struct s { int a; } instance;");
    assert_eq!(unit.items.len(), 2);
    assert!(matches!(unit.items[0], Item::Struct(_)));
    match &unit.items[1] {
        Item::Global(g) => {
            assert_eq!(g.decls[0].name, "instance");
            assert_eq!(g.decls[0].ty, Type::strukt("s"));
        }
        other => panic!("expected global, got {other:?}"),
    }
}

#[test]
fn bitfields_parse() {
    let unit = parse_ok("struct s { unsigned int a : 3; unsigned int b : 5; };");
    let s = unit.structs().next().unwrap();
    assert_eq!(s.fields.len(), 2);
}

#[test]
fn enum_definition() {
    let unit = parse_ok("enum state { IDLE, BUSY = 4, DONE };");
    match &unit.items[0] {
        Item::Enum(e) => {
            assert_eq!(e.name, "state");
            assert_eq!(e.variants.len(), 3);
            assert_eq!(e.variants[1].0, "BUSY");
            assert!(e.variants[1].1.is_some());
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn typedef_registers_name() {
    let unit = parse_ok("typedef unsigned long long u64_alias; u64_alias v;");
    assert!(matches!(unit.items[0], Item::Typedef(_)));
    match &unit.items[1] {
        Item::Global(g) => assert_eq!(g.decls[0].ty, Type::Named("u64_alias".into())),
        other => panic!("{other:?}"),
    }
}

#[test]
fn function_with_params() {
    let f = only_fn("static int add(int a, long b) { return a + b; }");
    assert_eq!(f.sig.name, "add");
    assert!(f.sig.is_static);
    assert_eq!(f.sig.params.len(), 2);
    assert_eq!(f.sig.params[0].name, "a");
    assert_eq!(
        f.sig.params[1].ty,
        Type::Int {
            unsigned: false,
            rank: IntRank::Long
        }
    );
}

#[test]
fn function_void_params() {
    let f = only_fn("void f(void) { }");
    assert!(f.sig.params.is_empty());
    assert_eq!(f.sig.ret, Type::Void);
}

#[test]
fn function_struct_pointer_param() {
    let f = only_fn("void reader(struct my_struct *a) { }");
    assert_eq!(f.sig.params[0].ty, Type::strukt("my_struct").ptr());
}

#[test]
fn variadic_function() {
    let f = only_fn("int printk_like(const char *fmt, ...) { return 0; }");
    assert!(f.sig.variadic);
    assert_eq!(f.sig.params.len(), 1);
}

#[test]
fn prototype() {
    let unit = parse_ok("extern int foo(struct s *p);");
    match &unit.items[0] {
        Item::Prototype(sig) => {
            assert_eq!(sig.name, "foo");
            assert_eq!(sig.params.len(), 1);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn global_with_initializer() {
    let unit = parse_ok("static int threshold = 42;");
    match &unit.items[0] {
        Item::Global(g) => {
            assert!(matches!(
                g.decls[0].init.as_ref().unwrap().kind,
                ExprKind::IntLit { value: 42, .. }
            ));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn multi_declarator_global() {
    let unit = parse_ok("int a, *b, c[4];");
    match &unit.items[0] {
        Item::Global(g) => {
            assert_eq!(g.decls.len(), 3);
            assert_eq!(g.decls[1].ty, Type::int().ptr());
            assert_eq!(g.decls[2].ty, Type::Array(Box::new(Type::int()), Some(4)));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn local_declarations() {
    let f = only_fn("void f(void) { int i = 0; struct s *p; u32 x; }");
    assert_eq!(f.body.len(), 3);
    assert!(matches!(f.body[0].kind, StmtKind::Decl(_)));
    match &f.body[2].kind {
        StmtKind::Decl(d) => assert_eq!(d.decls[0].ty, Type::Named("u32".into())),
        other => panic!("{other:?}"),
    }
}

#[test]
fn unknown_typedef_heuristic() {
    // `mytype_t` was never declared but `mytype_t *x;` must parse as a decl.
    let f = only_fn("void f(void) { mytype_t *x; x = 0; }");
    assert!(matches!(f.body[0].kind, StmtKind::Decl(_)));
    assert!(matches!(f.body[1].kind, StmtKind::Expr(_)));
}

#[test]
fn if_else_chain() {
    let f = only_fn("void f(int a) { if (a) return; else if (a > 2) a = 0; else a = 1; }");
    match &f.body[0].kind {
        StmtKind::If { else_branch, .. } => assert!(else_branch.is_some()),
        other => panic!("{other:?}"),
    }
}

#[test]
fn loops() {
    let f = only_fn(
        "void f(int n) { while (n) n--; do { n++; } while (n < 4); for (int i = 0; i < n; i++) ; }",
    );
    assert!(matches!(f.body[0].kind, StmtKind::While { .. }));
    assert!(matches!(f.body[1].kind, StmtKind::DoWhile { .. }));
    assert!(matches!(f.body[2].kind, StmtKind::For { .. }));
}

#[test]
fn for_without_clauses() {
    let f = only_fn("void f(void) { for (;;) break; }");
    match &f.body[0].kind {
        StmtKind::For {
            init, cond, step, ..
        } => {
            assert!(init.is_none());
            assert!(cond.is_none());
            assert!(step.is_none());
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn switch_cases() {
    let f =
        only_fn("void f(int a) { switch (a) { case 1: a = 0; break; case 2: default: a = 9; } }");
    assert!(matches!(f.body[0].kind, StmtKind::Switch { .. }));
}

#[test]
fn goto_and_labels() {
    let f = only_fn("void f(int a) { if (a) goto out; a = 1; out: return; }");
    assert!(matches!(f.body[2].kind, StmtKind::Label { .. }));
}

#[test]
fn label_at_block_end() {
    let f = only_fn("void f(int a) { if (a) goto out; a = 1; out: }");
    match &f.body[2].kind {
        StmtKind::Label { stmt, .. } => assert!(matches!(stmt.kind, StmtKind::Empty)),
        other => panic!("{other:?}"),
    }
}

#[test]
fn member_access_chain() {
    let f = only_fn("void f(struct a *p) { p->b.c->d = 1; }");
    match &f.body[0].kind {
        StmtKind::Expr(e) => match &e.kind {
            ExprKind::Assign(AssignOp::Assign, lhs, _) => match &lhs.kind {
                ExprKind::Member {
                    field, arrow: true, ..
                } => assert_eq!(field, "d"),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }
}

#[test]
fn precedence() {
    let f = only_fn("int f(int a, int b) { return a + b * 2 == a << 1; }");
    match &f.body[0].kind {
        StmtKind::Return(Some(e)) => match &e.kind {
            // `==` binds loosest: (a + b*2) == (a << 1)
            ExprKind::Binary(BinOp::Eq, _, _) => {}
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }
}

#[test]
fn ternary() {
    let f = only_fn("int f(int a) { return a ? a : -a; }");
    match &f.body[0].kind {
        StmtKind::Return(Some(e)) => assert!(matches!(e.kind, ExprKind::Ternary { .. })),
        other => panic!("{other:?}"),
    }
}

#[test]
fn cast_expression() {
    let f = only_fn("void f(void *p) { struct s *q = (struct s *)p; }");
    match &f.body[0].kind {
        StmtKind::Decl(d) => {
            assert!(matches!(
                d.decls[0].init.as_ref().unwrap().kind,
                ExprKind::Cast(_, _)
            ));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn paren_expr_not_cast() {
    // `(a) - b` where `a` is a variable, not a type.
    let f = only_fn("int f(int a, int b) { return (a) - b; }");
    match &f.body[0].kind {
        StmtKind::Return(Some(e)) => assert!(matches!(e.kind, ExprKind::Binary(BinOp::Sub, _, _))),
        other => panic!("{other:?}"),
    }
}

#[test]
fn sizeof_both_forms() {
    let f = only_fn("void f(int a) { int x = sizeof(struct s); int y = sizeof a; }");
    match &f.body[0].kind {
        StmtKind::Decl(d) => assert!(matches!(
            d.decls[0].init.as_ref().unwrap().kind,
            ExprKind::SizeofType(_)
        )),
        other => panic!("{other:?}"),
    }
    match &f.body[1].kind {
        StmtKind::Decl(d) => assert!(matches!(
            d.decls[0].init.as_ref().unwrap().kind,
            ExprKind::SizeofExpr(_)
        )),
        other => panic!("{other:?}"),
    }
}

#[test]
fn compound_assignment_ops() {
    let f = only_fn("void f(int a) { a += 1; a <<= 2; a |= 4; }");
    for stmt in &f.body {
        assert!(matches!(
            stmt.kind,
            StmtKind::Expr(Expr {
                kind: ExprKind::Assign(_, _, _),
                ..
            })
        ));
    }
}

#[test]
fn pre_post_incdec() {
    let f = only_fn("void f(int a) { ++a; a--; }");
    match &f.body[0].kind {
        StmtKind::Expr(e) => assert!(matches!(e.kind, ExprKind::Unary(UnOp::PreInc, _))),
        other => panic!("{other:?}"),
    }
    match &f.body[1].kind {
        StmtKind::Expr(e) => assert!(matches!(e.kind, ExprKind::Post(PostOp::Dec, _))),
        other => panic!("{other:?}"),
    }
}

#[test]
fn array_index_assignment() {
    let f = only_fn("void f(struct r *r, struct sock *sk) { r->socks[r->num] = sk; }");
    match &f.body[0].kind {
        StmtKind::Expr(e) => match &e.kind {
            ExprKind::Assign(_, lhs, _) => assert!(matches!(lhs.kind, ExprKind::Index(_, _))),
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }
}

#[test]
fn function_pointer_declarator() {
    let unit = parse_ok("int (*handler)(struct ev *e);");
    match &unit.items[0] {
        Item::Global(g) => {
            assert!(matches!(g.decls[0].ty, Type::Ptr(_)));
            assert_eq!(g.decls[0].name, "handler");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn designated_initializer() {
    let unit = parse_ok("struct ops o = { .open = do_open, .flags = 3 };");
    match &unit.items[0] {
        Item::Global(g) => match &g.decls[0].init.as_ref().unwrap().kind {
            ExprKind::InitList(inits) => {
                assert_eq!(inits[0].designator.as_deref(), Some("open"));
            }
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }
}

#[test]
fn statement_expression() {
    let f = only_fn("int f(int a) { int x = ({ int t = a; t + 1; }); return x; }");
    match &f.body[0].kind {
        StmtKind::Decl(d) => assert!(matches!(
            d.decls[0].init.as_ref().unwrap().kind,
            ExprKind::StmtExpr(_)
        )),
        other => panic!("{other:?}"),
    }
}

#[test]
fn kernel_attributes_skipped() {
    let unit = parse_ok(
        "static __always_inline int __init probe(struct dev *d) __attribute__((cold)) { return 0; }",
    );
    assert_eq!(unit.functions().count(), 1);
}

#[test]
fn rcu_annotations_skipped() {
    let unit = parse_ok("struct s { struct other __rcu *ptr; int __percpu *ctr; };");
    let s = unit.structs().next().unwrap();
    assert_eq!(s.fields.len(), 2);
    assert_eq!(s.fields[0].ty, Type::strukt("other").ptr());
}

#[test]
fn error_recovery_keeps_later_items() {
    let out = parse_string("t.c", "int x = ; int good(void) { return 1; }").unwrap();
    assert!(!out.errors.is_empty());
    assert!(out.unit.functions().any(|f| f.sig.name == "good"));
}

#[test]
fn comma_operator() {
    let f = only_fn("void f(int a, int b) { a = 1, b = 2; }");
    match &f.body[0].kind {
        StmtKind::Expr(e) => assert!(matches!(e.kind, ExprKind::Comma(_, _))),
        other => panic!("{other:?}"),
    }
}

#[test]
fn barrier_calls_parse_as_calls() {
    let f = only_fn("void w(struct s *b) { b->y = 1; smp_wmb(); b->init = 1; }");
    assert_eq!(f.body.len(), 3);
    match &f.body[1].kind {
        StmtKind::Expr(e) => assert_eq!(e.call_name(), Some("smp_wmb")),
        other => panic!("{other:?}"),
    }
}

#[test]
fn spans_point_into_source() {
    let src = "void w(struct s *b) { b->y = 1; smp_wmb(); }";
    let out = parse_string("t.c", src).unwrap();
    let f = out.unit.functions().next().unwrap();
    let barrier_stmt = &f.body[1];
    assert_eq!(barrier_stmt.span.slice(src), "smp_wmb();");
}

#[test]
fn negative_enum_value() {
    let unit = parse_ok("enum e { NEG = -1, POS = 1 };");
    match &unit.items[0] {
        Item::Enum(e) => assert_eq!(e.variants.len(), 2),
        other => panic!("{other:?}"),
    }
}

#[test]
fn nested_blocks() {
    let f = only_fn("void f(void) { { { int deep = 1; } } }");
    assert!(matches!(f.body[0].kind, StmtKind::Block(_)));
}

#[test]
fn asm_statement() {
    let f = only_fn(r#"void f(void) { asm volatile("mfence" ::: "memory"); }"#);
    match &f.body[0].kind {
        StmtKind::Asm { volatile, body } => {
            assert!(volatile);
            assert!(body.contains("mfence"), "{body}");
            assert!(body.contains("memory"));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn asm_between_statements() {
    let f = only_fn(
        r#"void f(struct s *p) { p->a = 1; __asm__ __volatile__("" : : : "memory"); p->b = 2; }"#,
    );
    assert_eq!(f.body.len(), 3);
    assert!(matches!(f.body[1].kind, StmtKind::Asm { .. }));
}

#[test]
fn asm_with_operands() {
    let f = only_fn(r#"void f(unsigned long x) { asm("bsf %1,%0" : "=r" (x) : "rm" (x)); }"#);
    assert!(matches!(
        f.body[0].kind,
        StmtKind::Asm {
            volatile: false,
            ..
        }
    ));
}

#[test]
fn typeof_declarations() {
    let f = only_fn("void f(struct s *p) { typeof(p->len) saved = p->len; saved = saved + 1; }");
    match &f.body[0].kind {
        StmtKind::Decl(d) => {
            assert_eq!(d.decls[0].name, "saved");
            assert_eq!(d.decls[0].ty, Type::Named("typeof(p->len)".into()));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn typeof_roundtrips_through_printer() {
    let src = "void f(struct s *p) { typeof(p->len) saved = p->len; }";
    let out = parse_string("t.c", src).unwrap();
    assert!(out.errors.is_empty());
    let printed = crate::pretty::print_unit(&out.unit);
    let again = parse_string("t.c", &printed).unwrap();
    assert!(again.errors.is_empty(), "{printed}\n{:?}", again.errors);
}

#[test]
fn string_concatenation() {
    let f = only_fn(r#"void f(void) { printk("a" "b"); }"#);
    match &f.body[0].kind {
        StmtKind::Expr(e) => match &e.kind {
            ExprKind::Call { args, .. } => match &args[0].kind {
                ExprKind::StrLit(s) => assert_eq!(s, r#""a""b""#),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }
}

#[test]
fn typedef_name_then_paren_is_an_expression() {
    // A typedef name starts a declaration only when a declarator follows:
    // `u32 (x);` is a call through `u32`, `u32 x;` and `u32 *p;` declare.
    let f = only_fn("void f(void) { u32 (x); u32 y; u32 *p; }");
    match &f.body[0].kind {
        StmtKind::Expr(e) => assert_eq!(e.call_name(), Some("u32")),
        other => panic!("expected a call statement, got {other:?}"),
    }
    for stmt in &f.body[1..] {
        assert!(matches!(stmt.kind, StmtKind::Decl(_)), "{stmt:?}");
    }
    // The same holds for a file's own typedefs.
    let unit = parse_ok("typedef int my_t; void f(void) { my_t (x); my_t y; }");
    let f = unit.functions().next().unwrap();
    assert!(matches!(f.body[0].kind, StmtKind::Expr(_)));
    assert!(matches!(f.body[1].kind, StmtKind::Decl(_)));
}

#[test]
fn every_skipped_attribute_passes_the_first_byte_filter() {
    for name in super::SKIPPED_ATTRS
        .iter()
        .chain(&["__attribute__", "__attribute", "__aligned", "__section"])
        .chain(&["____cacheline_aligned"])
    {
        assert!(super::may_be_attribute(name), "{name}");
    }
}

/// Tokens of `src`, preprocessed.
fn pp_tokens(src: &str) -> Vec<crate::token::Token<'_>> {
    let toks = crate::lexer::lex(src).unwrap();
    crate::pp::preprocess(toks, &Default::default())
        .unwrap()
        .tokens
}

#[test]
fn counting_parse_reports_the_full_parse_counts() {
    let config = super::ParserConfig::default();
    for src in [
        "",
        "int f(void) { return 1; }\nint g(int x) { return x; }",
        "int broken( { ; }\nint ok(void) { return 0; }\nstruct s { int a; };",
        "typedef unsigned int u; u h(u x) { u y = x; return y; }\nint p(void);",
        "void w(int *p) { for (int i = 0; i < 3; i++) { *p = i; } smp_wmb(); }",
    ] {
        let toks = pp_tokens(src);
        let full = super::parse_token_slice(&toks, &config);
        let counts = super::count_tokens(&toks, &config, &|_| false);
        assert_eq!(
            counts.function_count,
            full.unit.functions().count(),
            "{src}"
        );
        assert_eq!(counts.parse_error_count, full.errors.len(), "{src}");
        assert!(!counts.watched_call);
    }
}

#[test]
fn counting_parse_watches_only_bare_callee_names() {
    let config = super::ParserConfig::default();
    let watched = |src: &str| {
        let toks = pp_tokens(src);
        super::count_tokens(&toks, &config, &|n| n == "smp_wmb").watched_call
    };
    assert!(watched("void f(void) { smp_wmb(); }"));
    // A parenthesized callee is still a bare name, as in the AST.
    assert!(watched("void f(void) { (smp_wmb)(); }"));
    // Nested in an argument, a statement expression, an initializer.
    assert!(watched("void f(void) { g(1, smp_wmb()); }"));
    assert!(watched("void f(void) { int x = ({ smp_wmb(); 1; }); }"));
    // Named but not called, or called through a member: not a site call.
    assert!(!watched("void f(void) { void *p = smp_wmb; }"));
    assert!(!watched("void f(struct o *o) { o->smp_wmb(); }"));
    assert!(!watched("void f(void) { smp_rmb(); }"));
}

#[test]
fn equal_names_of_one_parse_share_storage() {
    use crate::intern::Name;
    let src = "struct s { int flag; };\nint f(struct s *p) { int flag = p->flag; return flag; }";
    let unit = parse_ok(src);
    let (Item::Struct(def), Item::Function(f)) = (&unit.items[0], &unit.items[1]) else {
        panic!("{unit:?}")
    };
    let StmtKind::Decl(local) = &f.body[0].kind else {
        panic!("{f:?}")
    };
    let Some(ExprKind::Member { field, .. }) = local.decls[0].init.as_ref().map(|e| &e.kind) else {
        panic!("{local:?}")
    };
    let StmtKind::Return(Some(Expr {
        kind: ExprKind::Ident(used),
        ..
    })) = &f.body[1].kind
    else {
        panic!("{f:?}")
    };
    let flags = [&def.fields[0].name, &local.decls[0].name, field, used];
    for name in flags {
        assert_eq!(name, "flag");
        assert!(Name::ptr_eq(name, flags[0]), "{name} is a second copy");
    }
    let Type::Ptr(param) = &f.sig.params[0].ty else {
        panic!("{:?}", f.sig)
    };
    let Type::Struct { name: tag, .. } = &**param else {
        panic!("{param:?}")
    };
    assert!(Name::ptr_eq(tag, &def.name));
    // Another parse has its own symbol table.
    let again = parse_ok(src);
    let Item::Struct(other) = &again.items[0] else {
        panic!("{again:?}")
    };
    assert_eq!(other.name, def.name);
    assert!(!Name::ptr_eq(&other.name, &def.name));
}
