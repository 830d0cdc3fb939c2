//! Pretty-printer: AST → C source.
//!
//! Used by the parser to name GNU `typeof(...)` types by their canonical
//! text, and by the property tests (print ∘ parse must be a projection:
//! printing a parsed unit and reparsing it yields an identical AST).
//! Patch synthesis does not use it: patches are span edits over the
//! original source.

use crate::ast::*;
use std::fmt::Write;

/// Pretty-print a full translation unit.
pub fn print_unit(unit: &TranslationUnit) -> String {
    let mut p = Printer::default();
    for item in &unit.items {
        p.item(item);
        p.out.push('\n');
    }
    p.out
}

/// Pretty-print a single statement at the given indent level.
pub fn print_stmt(stmt: &Stmt, indent: usize) -> String {
    let mut p = Printer {
        indent,
        ..Printer::default()
    };
    p.stmt(stmt);
    p.out
}

/// Pretty-print a single expression.
pub fn print_expr(expr: &Expr) -> String {
    let mut p = Printer::default();
    p.expr(expr, 0);
    p.out
}

/// Render a declaration of `name` with type `ty` (C's inside-out syntax).
pub fn print_decl(ty: &Type, name: &str) -> String {
    decl_string(ty, name)
}

#[derive(Default)]
struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push('\t');
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn open(&mut self, text: &str) {
        self.line(text);
        self.indent += 1;
    }

    fn close(&mut self, text: &str) {
        self.indent -= 1;
        self.line(text);
    }

    fn item(&mut self, item: &Item) {
        match item {
            Item::Struct(s) => {
                let kw = if s.is_union { "union" } else { "struct" };
                self.open(&format!("{kw} {} {{", s.name));
                for f in &s.fields {
                    let d = decl_string(&f.ty, &f.name);
                    self.line(&format!("{d};"));
                }
                self.close("};");
            }
            Item::Enum(e) => {
                self.open(&format!("enum {} {{", e.name));
                for (name, value) in &e.variants {
                    match value {
                        Some(v) => self.line(&format!("{name} = {},", print_expr(v))),
                        None => self.line(&format!("{name},")),
                    }
                }
                self.close("};");
            }
            Item::Typedef(t) => {
                let d = decl_string(&t.ty, &t.name);
                self.line(&format!("typedef {d};"));
            }
            Item::Function(f) => {
                let sig = signature_string(&f.sig);
                self.open(&format!("{sig} {{"));
                for s in &f.body {
                    self.stmt(s);
                }
                self.close("}");
            }
            Item::Prototype(sig) => {
                self.line(&format!("{};", signature_string(sig)));
            }
            Item::Global(g) => {
                let text = decl_stmt_string(g);
                self.line(&text);
            }
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::Expr(e) => {
                let text = print_expr(e);
                self.line(&format!("{text};"));
            }
            StmtKind::Decl(d) => {
                let text = decl_stmt_string(d);
                self.line(&text);
            }
            StmtKind::Block(stmts) => {
                self.open("{");
                for s in stmts {
                    self.stmt(s);
                }
                self.close("}");
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.open(&format!("if ({}) {{", print_expr(cond)));
                self.stmt_inner(then_branch);
                match else_branch {
                    Some(e) => {
                        self.indent -= 1;
                        self.line("} else {");
                        self.indent += 1;
                        self.stmt_inner(e);
                        self.close("}");
                    }
                    None => self.close("}"),
                }
            }
            StmtKind::While { cond, body } => {
                self.open(&format!("while ({}) {{", print_expr(cond)));
                self.stmt_inner(body);
                self.close("}");
            }
            StmtKind::DoWhile { body, cond } => {
                self.open("do {");
                self.stmt_inner(body);
                self.close(&format!("}} while ({});", print_expr(cond)));
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let init_s = match init {
                    Some(s) => {
                        let text = print_stmt(s, 0);
                        text.trim_end().trim_end_matches(';').to_string() + ";"
                    }
                    None => ";".to_string(),
                };
                let cond_s = cond.as_ref().map(print_expr).unwrap_or_default();
                let step_s = step.as_ref().map(print_expr).unwrap_or_default();
                self.open(&format!("for ({init_s} {cond_s}; {step_s}) {{"));
                self.stmt_inner(body);
                self.close("}");
            }
            StmtKind::Switch { cond, body } => {
                self.open(&format!("switch ({}) {{", print_expr(cond)));
                self.stmt_inner(body);
                self.close("}");
            }
            StmtKind::Case { value, stmt } => {
                match value {
                    Some(v) => self.line(&format!("case {}:", print_expr(v))),
                    None => self.line("default:"),
                }
                self.indent += 1;
                self.stmt(stmt);
                self.indent -= 1;
            }
            StmtKind::Goto(label) => self.line(&format!("goto {label};")),
            StmtKind::Label { name, stmt } => {
                self.line(&format!("{name}:"));
                self.stmt(stmt);
            }
            StmtKind::Return(Some(e)) => self.line(&format!("return {};", print_expr(e))),
            StmtKind::Return(None) => self.line("return;"),
            StmtKind::Break => self.line("break;"),
            StmtKind::Continue => self.line("continue;"),
            StmtKind::Asm { volatile, body } => {
                let v = if *volatile { " volatile" } else { "" };
                self.line(&format!("asm{v}({body});"));
            }
            StmtKind::Empty => self.line(";"),
        }
    }

    /// Print a statement that is the body of a control construct: blocks
    /// are flattened into the surrounding braces the printer just opened.
    fn stmt_inner(&mut self, stmt: &Stmt) {
        if let StmtKind::Block(stmts) = &stmt.kind {
            for s in stmts {
                self.stmt(s);
            }
        } else {
            self.stmt(stmt);
        }
    }

    fn expr(&mut self, e: &Expr, parent_prec: u8) {
        let text = expr_string(e, parent_prec);
        self.out.push_str(&text);
    }
}

fn signature_string(sig: &FunctionSig) -> String {
    let mut s = String::new();
    if sig.is_static {
        s.push_str("static ");
    }
    if sig.is_inline {
        s.push_str("inline ");
    }
    let mut params = String::new();
    if sig.params.is_empty() && !sig.variadic {
        params.push_str("void");
    } else {
        for (i, p) in sig.params.iter().enumerate() {
            if i > 0 {
                params.push_str(", ");
            }
            params.push_str(&decl_string(&p.ty, &p.name));
        }
        if sig.variadic {
            if !sig.params.is_empty() {
                params.push_str(", ");
            }
            params.push_str("...");
        }
    }
    let decl = decl_string(&sig.ret, &format!("{}({params})", sig.name));
    write!(s, "{decl}").unwrap();
    s
}

fn decl_stmt_string(d: &DeclStmt) -> String {
    // Multi-declarator statements are printed one per line to keep the
    // printer simple; semantics are identical.
    let mut parts = Vec::new();
    for decl in &d.decls {
        let mut text = decl_string(&decl.ty, &decl.name);
        if let Some(init) = &decl.init {
            write!(text, " = {}", print_expr(init)).unwrap();
        }
        text.push(';');
        parts.push(text);
    }
    parts.join(" ")
}

/// C declaration syntax: type + declarator, inside-out.
fn decl_string(ty: &Type, name: &str) -> String {
    match ty {
        Type::Ptr(inner) => match inner.as_ref() {
            Type::Func {
                ret,
                params,
                variadic,
            } => {
                let mut ps = String::new();
                if params.is_empty() && !variadic {
                    ps.push_str("void");
                } else {
                    for (i, p) in params.iter().enumerate() {
                        if i > 0 {
                            ps.push_str(", ");
                        }
                        ps.push_str(&decl_string(p, ""));
                    }
                    if *variadic {
                        if !params.is_empty() {
                            ps.push_str(", ");
                        }
                        ps.push_str("...");
                    }
                }
                decl_string(ret, &format!("(*{name})({ps})"))
            }
            _ => decl_string(inner, &format!("*{name}")),
        },
        Type::Array(inner, len) => {
            let suffix = match len {
                Some(n) => format!("{name}[{n}]"),
                None => format!("{name}[]"),
            };
            decl_string(inner, &suffix)
        }
        Type::Func {
            ret,
            params,
            variadic,
        } => {
            let mut ps = String::new();
            if params.is_empty() && !variadic {
                ps.push_str("void");
            } else {
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        ps.push_str(", ");
                    }
                    ps.push_str(&decl_string(p, ""));
                }
                if *variadic {
                    if !params.is_empty() {
                        ps.push_str(", ");
                    }
                    ps.push_str("...");
                }
            }
            decl_string(ret, &format!("{name}({ps})"))
        }
        base => {
            if name.is_empty() {
                format!("{base}").trim_end().to_string()
            } else {
                // normalize: `struct s * name` → `struct s *name`
                format!("{base} {name}").replace("* ", "*")
            }
        }
    }
}

fn prec_of(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::BitOr => 3,
        BinOp::BitXor => 4,
        BinOp::BitAnd => 5,
        BinOp::Eq | BinOp::Ne => 6,
        BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => 7,
        BinOp::Shl | BinOp::Shr => 8,
        BinOp::Add | BinOp::Sub => 9,
        BinOp::Mul | BinOp::Div | BinOp::Rem => 10,
    }
}

fn binop_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::And => "&&",
        BinOp::Or => "||",
        BinOp::BitAnd => "&",
        BinOp::BitOr => "|",
        BinOp::BitXor => "^",
        BinOp::Shl => "<<",
        BinOp::Shr => ">>",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Gt => ">",
        BinOp::Le => "<=",
        BinOp::Ge => ">=",
    }
}

fn assign_str(op: AssignOp) -> &'static str {
    match op {
        AssignOp::Assign => "=",
        AssignOp::Add => "+=",
        AssignOp::Sub => "-=",
        AssignOp::Mul => "*=",
        AssignOp::Div => "/=",
        AssignOp::Rem => "%=",
        AssignOp::BitAnd => "&=",
        AssignOp::BitOr => "|=",
        AssignOp::BitXor => "^=",
        AssignOp::Shl => "<<=",
        AssignOp::Shr => ">>=",
    }
}

fn expr_string(e: &Expr, parent_prec: u8) -> String {
    match &e.kind {
        ExprKind::Ident(s) => s.to_string(),
        ExprKind::IntLit { raw, .. } => raw.to_string(),
        ExprKind::FloatLit(raw) => raw.clone(),
        ExprKind::StrLit(s) => s.clone(),
        ExprKind::CharLit(c) => c.clone(),
        ExprKind::Unary(op, inner) => {
            let sym = match op {
                UnOp::Neg => "-",
                UnOp::Plus => "+",
                UnOp::Not => "!",
                UnOp::BitNot => "~",
                UnOp::Deref => "*",
                UnOp::Addr => "&",
                UnOp::PreInc => "++",
                UnOp::PreDec => "--",
            };
            let text = format!("{sym}{}", expr_string(inner, 11));
            wrap(text, 11, parent_prec)
        }
        ExprKind::Post(op, inner) => {
            let sym = match op {
                PostOp::Inc => "++",
                PostOp::Dec => "--",
            };
            format!("{}{sym}", expr_string(inner, 12))
        }
        ExprKind::Binary(op, a, b) => {
            let p = prec_of(*op);
            let text = format!(
                "{} {} {}",
                expr_string(a, p),
                binop_str(*op),
                expr_string(b, p + 1)
            );
            wrap(text, p, parent_prec)
        }
        ExprKind::Assign(op, a, b) => {
            let text = format!(
                "{} {} {}",
                expr_string(a, 1),
                assign_str(*op),
                expr_string(b, 0)
            );
            wrap(text, 0, parent_prec)
        }
        ExprKind::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            let text = format!(
                "{} ? {} : {}",
                expr_string(cond, 1),
                expr_string(then_expr, 0),
                expr_string(else_expr, 0)
            );
            wrap(text, 0, parent_prec)
        }
        ExprKind::Call { callee, args } => {
            let mut s = expr_string(callee, 12);
            s.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&expr_string(a, 0));
            }
            s.push(')');
            s
        }
        ExprKind::Member { base, field, arrow } => {
            format!(
                "{}{}{field}",
                expr_string(base, 12),
                if *arrow { "->" } else { "." }
            )
        }
        ExprKind::Index(base, index) => {
            format!("{}[{}]", expr_string(base, 12), expr_string(index, 0))
        }
        ExprKind::Cast(ty, inner) => {
            let text = format!("({}){}", decl_string(ty, ""), expr_string(inner, 11));
            wrap(text, 11, parent_prec)
        }
        ExprKind::SizeofType(ty) => format!("sizeof({})", decl_string(ty, "")),
        ExprKind::SizeofExpr(inner) => format!("sizeof({})", expr_string(inner, 0)),
        ExprKind::Comma(a, b) => {
            let text = format!("{}, {}", expr_string(a, 0), expr_string(b, 0));
            format!("({text})")
        }
        ExprKind::InitList(inits) => {
            let mut s = String::from("{ ");
            for (i, init) in inits.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                if let Some(d) = &init.designator {
                    write!(s, ".{d} = ").unwrap();
                }
                s.push_str(&expr_string(&init.value, 0));
            }
            s.push_str(" }");
            s
        }
        ExprKind::StmtExpr(stmts) => {
            let mut s = String::from("({ ");
            for st in stmts {
                let text = print_stmt(st, 0);
                s.push_str(text.trim());
                s.push(' ');
            }
            s.push_str("})");
            s
        }
    }
}

fn wrap(text: String, my_prec: u8, parent_prec: u8) -> String {
    if my_prec < parent_prec {
        format!("({text})")
    } else {
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_string;

    fn roundtrip(src: &str) -> String {
        let out = parse_string("t.c", src).expect("parse");
        assert!(out.errors.is_empty(), "errors: {:?}", out.errors);
        print_unit(&out.unit)
    }

    #[test]
    fn simple_function() {
        let printed = roundtrip("int f(int a) { return a + 1; }");
        assert!(printed.contains("int f(int a) {"), "{printed}");
        assert!(printed.contains("return a + 1;"), "{printed}");
    }

    #[test]
    fn precedence_parens_preserved() {
        let printed = roundtrip("int f(void) { return (1 + 2) * 3; }");
        assert!(printed.contains("(1 + 2) * 3"), "{printed}");
    }

    #[test]
    fn member_chain() {
        let printed = roundtrip("void f(struct s *a) { a->b.c = 1; }");
        assert!(printed.contains("a->b.c = 1;"), "{printed}");
    }

    #[test]
    fn pointer_decl() {
        let printed = roundtrip("struct s *g;");
        assert!(printed.contains("struct s *g;"), "{printed}");
    }

    #[test]
    fn print_parse_is_projection() {
        let src = r#"
struct req { int len; int flag; };
static int f(struct req *r, int n) {
    int i;
    for (i = 0; i < n; i++) {
        if (r->flag & 0x4)
            continue;
        r->len += i;
    }
    do { n--; } while (n > 0);
    switch (n) {
    case 1:
        return 1;
    default:
        break;
    }
    return r->len ? r->len : -1;
}
"#;
        let once = roundtrip(src);
        let out2 = parse_string("t.c", &once).expect("reparse");
        assert!(out2.errors.is_empty(), "{:?}", out2.errors);
        let twice = print_unit(&out2.unit);
        assert_eq!(once, twice);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::parse_string;

    fn fixpoint(src: &str) -> String {
        let out = parse_string("t.c", src).expect("parse");
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        let once = print_unit(&out.unit);
        let again = parse_string("t.c", &once).expect("reparse");
        assert!(again.errors.is_empty(), "{once}\n{:?}", again.errors);
        assert_eq!(once, print_unit(&again.unit), "not a fixpoint:\n{once}");
        once
    }

    #[test]
    fn asm_statement_roundtrips() {
        let printed = fixpoint(r#"void f(void) { asm volatile("mfence" ::: "memory"); }"#);
        assert!(printed.contains("asm volatile("), "{printed}");
    }

    #[test]
    fn goto_and_labels_roundtrip() {
        let printed = fixpoint("void f(int a) { if (a) goto out; a = 1; out: return; }");
        assert!(printed.contains("goto out;"));
        assert!(printed.contains("out:"));
    }

    #[test]
    fn switch_roundtrips() {
        let printed =
            fixpoint("void f(int a) { switch (a) { case 1: a = 2; break; default: a = 0; } }");
        assert!(printed.contains("case 1:"));
        assert!(printed.contains("default:"));
    }

    #[test]
    fn do_while_roundtrips() {
        let printed = fixpoint("void f(int n) { do { n--; } while (n > 0); }");
        assert!(printed.contains("} while (n > 0);"), "{printed}");
    }

    #[test]
    fn unary_and_cast_precedence() {
        let printed = fixpoint("int f(int a) { return -(a + 1) * (int)a; }");
        assert!(printed.contains("-(a + 1) * (int)a"), "{printed}");
    }

    #[test]
    fn ternary_nested() {
        fixpoint("int f(int a, int b) { return a ? b : a ? 1 : 2; }");
    }

    #[test]
    fn designated_initializer_roundtrips() {
        let printed = fixpoint("struct ops o = { .open = 1, .close = 2 };");
        assert!(printed.contains(".open = 1"), "{printed}");
    }

    #[test]
    fn function_pointer_signature() {
        let printed = fixpoint("int (*handler)(struct ev *e);");
        assert!(printed.contains("(*handler)"), "{printed}");
    }

    #[test]
    fn enum_with_values_roundtrips() {
        let printed = fixpoint("enum e { A = 1, B, C = 7 };");
        assert!(printed.contains("A = 1,"));
        assert!(printed.contains("B,"));
    }

    #[test]
    fn print_stmt_indent() {
        let out = parse_string("t.c", "void f(void) { g(); }").unwrap();
        let f = out.unit.functions().next().unwrap();
        let text = print_stmt(&f.body[0], 2);
        assert_eq!(text, "\t\tg();\n");
    }

    #[test]
    fn comma_operator_keeps_parens() {
        fixpoint("void f(int a, int b) { a = 1, b = 2; }");
    }

    #[test]
    fn array_of_pointers_decl() {
        let printed = fixpoint("struct sock *socks[16];");
        assert!(printed.contains("*socks[16]"), "{printed}");
    }
}
