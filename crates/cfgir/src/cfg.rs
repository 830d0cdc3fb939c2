//! Statement-level control-flow graphs.
//!
//! One node per atomic statement (expression statement, declaration,
//! branch condition, return). OFence's distance metric counts statements,
//! so this is exactly the granularity the analysis needs — finer (basic
//! blocks of instructions) would change the numbers, coarser would lose
//! the barrier positions.

use ckit::ast::{self, Stmt, StmtKind};
use ckit::span::Span;
use std::collections::HashMap;

pub type NodeId = usize;

/// Kind of a CFG node.
#[derive(Clone, Debug)]
pub enum NodeKind {
    Entry,
    Exit,
    /// An expression statement.
    Expr(ast::Expr),
    /// A local declaration (initializers count as writes).
    Decl(ast::DeclStmt),
    /// A branch condition (`if`/`while`/`do-while`/`for`/`switch`).
    Cond(ast::Expr),
    /// `return [expr]`.
    Return(Option<ast::Expr>),
    /// A `case`/`default` label (no computation).
    CaseLabel,
    /// Inline assembly (opaque; no tracked accesses).
    Asm,
    /// A `goto` (no computation; single successor is the label target).
    Goto(ckit::Name),
    /// A named label.
    Label(ckit::Name),
}

impl NodeKind {
    /// The expressions evaluated at this node: the statement, condition
    /// or return value, or each declarator's initialiser in a `Decl`.
    pub fn exprs(&self) -> impl Iterator<Item = &ast::Expr> {
        let (single, decls) = match self {
            NodeKind::Expr(e) | NodeKind::Cond(e) | NodeKind::Return(Some(e)) => (Some(e), &[][..]),
            NodeKind::Decl(d) => (None, &d.decls[..]),
            _ => (None, &[][..]),
        };
        single
            .into_iter()
            .chain(decls.iter().filter_map(|d| d.init.as_ref()))
    }

    /// Is this a "real" statement for distance counting? Labels and
    /// gotos are free: developers don't think of them as memory-access
    /// carrying statements.
    pub fn counts_for_distance(&self) -> bool {
        !matches!(
            self,
            NodeKind::Entry
                | NodeKind::Exit
                | NodeKind::CaseLabel
                | NodeKind::Goto(_)
                | NodeKind::Label(_)
        )
    }
}

#[derive(Clone, Debug)]
pub struct Node {
    pub kind: NodeKind,
    pub span: Span,
    pub succs: Vec<NodeId>,
    pub preds: Vec<NodeId>,
}

/// A function's CFG.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Function name.
    pub name: String,
    pub nodes: Vec<Node>,
    pub entry: NodeId,
    pub exit: NodeId,
}

impl Cfg {
    /// Build the CFG of a function body.
    pub fn build(func: &ast::FunctionDef) -> Cfg {
        let mut b = Builder {
            nodes: vec![
                Node {
                    kind: NodeKind::Entry,
                    span: func.sig.span,
                    succs: vec![],
                    preds: vec![],
                },
                Node {
                    kind: NodeKind::Exit,
                    span: Span::new(func.span.hi.saturating_sub(1), func.span.hi),
                    succs: vec![],
                    preds: vec![],
                },
            ],
            labels: HashMap::new(),
            goto_fixups: Vec::new(),
            breaks: Vec::new(),
            continues: Vec::new(),
        };
        let frontier = b.lower_stmts(&func.body, vec![ENTRY]);
        b.connect_all(&frontier, EXIT);
        // Patch gotos whose label appeared later.
        for (node, label) in std::mem::take(&mut b.goto_fixups) {
            let target = b.labels.get(&label).copied().unwrap_or(EXIT);
            b.connect(node, target);
        }
        Cfg {
            name: func.sig.name.to_string(),
            nodes: b.nodes,
            entry: ENTRY,
            exit: EXIT,
        }
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Iterate node ids in creation (roughly program) order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> {
        0..self.nodes.len()
    }
}

const ENTRY: NodeId = 0;
const EXIT: NodeId = 1;

struct Builder {
    nodes: Vec<Node>,
    labels: HashMap<ckit::Name, NodeId>,
    goto_fixups: Vec<(NodeId, ckit::Name)>,
    breaks: Vec<Vec<NodeId>>,
    continues: Vec<Vec<NodeId>>,
}

impl Builder {
    fn add(&mut self, kind: NodeKind, span: Span, preds: &[NodeId]) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Node {
            kind,
            span,
            succs: vec![],
            preds: vec![],
        });
        for &p in preds {
            self.connect(p, id);
        }
        id
    }

    fn connect(&mut self, from: NodeId, to: NodeId) {
        if !self.nodes[from].succs.contains(&to) {
            self.nodes[from].succs.push(to);
            self.nodes[to].preds.push(from);
        }
    }

    fn connect_all(&mut self, from: &[NodeId], to: NodeId) {
        for &f in from {
            self.connect(f, to);
        }
    }

    fn lower_stmts(&mut self, stmts: &[Stmt], mut frontier: Vec<NodeId>) -> Vec<NodeId> {
        for s in stmts {
            frontier = self.lower_stmt(s, frontier);
        }
        frontier
    }

    /// Lower one statement. `frontier` is the set of nodes whose control
    /// flow falls into this statement; the return value is the new
    /// fall-through frontier (empty after `return`/`goto`/…).
    fn lower_stmt(&mut self, stmt: &Stmt, frontier: Vec<NodeId>) -> Vec<NodeId> {
        match &stmt.kind {
            StmtKind::Expr(e) => {
                let n = self.add(NodeKind::Expr(e.clone()), stmt.span, &frontier);
                vec![n]
            }
            StmtKind::Decl(d) => {
                let n = self.add(NodeKind::Decl(d.clone()), stmt.span, &frontier);
                vec![n]
            }
            StmtKind::Block(stmts) => self.lower_stmts(stmts, frontier),
            StmtKind::Empty => frontier,
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.add(NodeKind::Cond(cond.clone()), cond.span, &frontier);
                let then_exit = self.lower_stmt(then_branch, vec![c]);
                let mut out = then_exit;
                match else_branch {
                    Some(e) => {
                        let else_exit = self.lower_stmt(e, vec![c]);
                        out.extend(else_exit);
                    }
                    None => out.push(c),
                }
                out
            }
            StmtKind::While { cond, body } => {
                let c = self.add(NodeKind::Cond(cond.clone()), cond.span, &frontier);
                self.breaks.push(vec![]);
                self.continues.push(vec![]);
                let body_exit = self.lower_stmt(body, vec![c]);
                self.connect_all(&body_exit, c);
                let continues = self.continues.pop().unwrap();
                self.connect_all(&continues, c);
                let mut out = self.breaks.pop().unwrap();
                out.push(c);
                out
            }
            StmtKind::DoWhile { body, cond } => {
                self.breaks.push(vec![]);
                self.continues.push(vec![]);
                // Body entry: remember where to loop back to. We need the
                // first node of the body; lower into a placeholder frontier
                // then find it via a pre-node.
                let head = self.add(NodeKind::Label("<do>".into()), stmt.span, &frontier);
                let body_exit = self.lower_stmt(body, vec![head]);
                let c = self.add(NodeKind::Cond(cond.clone()), cond.span, &body_exit);
                let continues = self.continues.pop().unwrap();
                self.connect_all(&continues, c);
                self.connect(c, head);
                let mut out = self.breaks.pop().unwrap();
                out.push(c);
                out
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let mut cur = frontier;
                if let Some(i) = init {
                    cur = self.lower_stmt(i, cur);
                }
                let c = match cond {
                    Some(cond) => self.add(NodeKind::Cond(cond.clone()), cond.span, &cur),
                    None => self.add(NodeKind::Label("<for>".into()), stmt.span, &cur),
                };
                self.breaks.push(vec![]);
                self.continues.push(vec![]);
                let body_exit = self.lower_stmt(body, vec![c]);
                let continues = self.continues.pop().unwrap();
                let mut step_preds = body_exit;
                step_preds.extend(continues);
                let back = match step {
                    Some(s) => self.add(NodeKind::Expr(s.clone()), s.span, &step_preds),
                    None => {
                        // no step: loop straight back
                        self.connect_all(&step_preds, c);
                        c
                    }
                };
                if step.is_some() {
                    self.connect(back, c);
                }
                let mut out = self.breaks.pop().unwrap();
                if cond.is_some() {
                    out.push(c);
                }
                out
            }
            StmtKind::Switch { cond, body } => {
                let c = self.add(NodeKind::Cond(cond.clone()), cond.span, &frontier);
                self.breaks.push(vec![]);
                // Lower the body with an empty fall-in frontier; case
                // labels connect themselves to the switch head.
                let body_exit = self.lower_switch_body(body, c);
                let mut out = self.breaks.pop().unwrap();
                out.extend(body_exit);
                // If no `default:` label exists, control may skip the body.
                if !switch_has_default(body) {
                    out.push(c);
                }
                out
            }
            StmtKind::Case { .. } => {
                // A case label outside a switch body lowering (shouldn't
                // happen); treat as its inner statement.
                if let StmtKind::Case { stmt: inner, .. } = &stmt.kind {
                    self.lower_stmt(inner, frontier)
                } else {
                    unreachable!()
                }
            }
            StmtKind::Goto(label) => {
                let n = self.add(NodeKind::Goto(label.clone()), stmt.span, &frontier);
                match self.labels.get(label) {
                    Some(&target) => self.connect(n, target),
                    None => self.goto_fixups.push((n, label.clone())),
                }
                vec![]
            }
            StmtKind::Label { name, stmt: inner } => {
                let n = self.add(NodeKind::Label(name.clone()), stmt.span, &frontier);
                self.labels.insert(name.clone(), n);
                self.lower_stmt(inner, vec![n])
            }
            StmtKind::Asm { .. } => {
                // Opaque statement: counts for distance, carries no
                // analyzable expression.
                let n = self.add(NodeKind::Asm, stmt.span, &frontier);
                vec![n]
            }
            StmtKind::Return(e) => {
                let n = self.add(NodeKind::Return(e.clone()), stmt.span, &frontier);
                self.connect(n, EXIT);
                vec![]
            }
            StmtKind::Break => {
                if let Some(breaks) = self.breaks.last_mut() {
                    breaks.extend(frontier);
                } else {
                    self.connect_all(&frontier, EXIT);
                }
                vec![]
            }
            StmtKind::Continue => {
                if let Some(conts) = self.continues.last_mut() {
                    conts.extend(frontier);
                } else {
                    self.connect_all(&frontier, EXIT);
                }
                vec![]
            }
        }
    }

    /// Lower a switch body: each `case`/`default` entry point becomes a
    /// successor of the switch condition; statements between labels chain
    /// as fall-through.
    fn lower_switch_body(&mut self, body: &Stmt, switch_head: NodeId) -> Vec<NodeId> {
        let stmts: Vec<&Stmt> = match &body.kind {
            StmtKind::Block(stmts) => stmts.iter().collect(),
            _ => vec![body],
        };
        let mut frontier: Vec<NodeId> = vec![];
        for s in stmts {
            frontier = self.lower_switch_stmt(s, frontier, switch_head);
        }
        frontier
    }

    fn lower_switch_stmt(
        &mut self,
        stmt: &Stmt,
        frontier: Vec<NodeId>,
        switch_head: NodeId,
    ) -> Vec<NodeId> {
        if let StmtKind::Case { stmt: inner, .. } = &stmt.kind {
            let label = self.add(NodeKind::CaseLabel, stmt.span, &frontier);
            self.connect(switch_head, label);
            // Nested chains of `case 1: case 2: stmt`.
            return self.lower_switch_stmt(inner, vec![label], switch_head);
        }
        self.lower_stmt(stmt, frontier)
    }
}

fn switch_has_default(body: &Stmt) -> bool {
    fn check(stmt: &Stmt) -> bool {
        match &stmt.kind {
            StmtKind::Case { value: None, .. } => true,
            StmtKind::Case {
                stmt: inner,
                value: Some(_),
            } => check(inner),
            StmtKind::Block(stmts) => stmts.iter().any(check),
            _ => false,
        }
    }
    check(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckit::parse_string;

    fn cfg_of(src: &str) -> Cfg {
        let out = parse_string("t.c", src).unwrap();
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        let f = out.unit.functions().next().expect("function");
        Cfg::build(f)
    }

    fn reachable_count(cfg: &Cfg) -> usize {
        let mut seen = vec![false; cfg.nodes.len()];
        let mut stack = vec![cfg.entry];
        seen[cfg.entry] = true;
        let mut count = 0;
        while let Some(n) = stack.pop() {
            count += 1;
            for &s in &cfg.nodes[n].succs {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        count
    }

    #[test]
    fn straight_line() {
        let cfg = cfg_of("void f(int a) { a = 1; a = 2; a = 3; }");
        // entry, 3 stmts, exit
        assert_eq!(cfg.nodes.len(), 5);
        assert_eq!(reachable_count(&cfg), 5);
        // Linear chain.
        let mut cur = cfg.entry;
        for _ in 0..4 {
            assert_eq!(cfg.node(cur).succs.len(), 1);
            cur = cfg.node(cur).succs[0];
        }
        assert_eq!(cur, cfg.exit);
    }

    #[test]
    fn if_without_else_has_two_paths() {
        let cfg = cfg_of("void f(int a) { if (a) a = 1; a = 2; }");
        let cond = cfg
            .ids()
            .find(|&i| matches!(cfg.node(i).kind, NodeKind::Cond(_)))
            .unwrap();
        assert_eq!(cfg.node(cond).succs.len(), 2);
    }

    #[test]
    fn if_else_joins() {
        let cfg = cfg_of("void f(int a) { if (a) a = 1; else a = 2; a = 3; }");
        // The join statement (a = 3) must have two predecessors.
        let join = cfg
            .ids()
            .filter(|&i| matches!(cfg.node(i).kind, NodeKind::Expr(_)))
            .last()
            .unwrap();
        assert_eq!(cfg.node(join).preds.len(), 2);
    }

    #[test]
    fn early_return_cuts_flow() {
        let cfg = cfg_of("void f(int a) { if (!a) return; a = 1; }");
        let ret = cfg
            .ids()
            .find(|&i| matches!(cfg.node(i).kind, NodeKind::Return(_)))
            .unwrap();
        assert_eq!(cfg.node(ret).succs, vec![cfg.exit]);
        // a = 1 has only the condition as predecessor.
        let assign = cfg
            .ids()
            .filter(|&i| matches!(cfg.node(i).kind, NodeKind::Expr(_)))
            .last()
            .unwrap();
        assert_eq!(cfg.node(assign).preds.len(), 1);
    }

    #[test]
    fn while_loop_back_edge() {
        let cfg = cfg_of("void f(int n) { while (n) n--; }");
        let cond = cfg
            .ids()
            .find(|&i| matches!(cfg.node(i).kind, NodeKind::Cond(_)))
            .unwrap();
        let body = cfg
            .ids()
            .find(|&i| matches!(cfg.node(i).kind, NodeKind::Expr(_)))
            .unwrap();
        assert!(cfg.node(cond).succs.contains(&body));
        assert!(cfg.node(body).succs.contains(&cond));
        assert!(cfg.node(cond).succs.contains(&cfg.exit));
    }

    #[test]
    fn do_while_runs_body_first() {
        let cfg = cfg_of("void f(int n) { do { n--; } while (n); }");
        // Entry's successor chain must hit the body before the condition.
        let first_real = cfg.node(cfg.entry).succs[0];
        // `<do>` head label, then body.
        let mut cur = first_real;
        while !matches!(cfg.node(cur).kind, NodeKind::Expr(_) | NodeKind::Cond(_)) {
            cur = cfg.node(cur).succs[0];
        }
        assert!(matches!(cfg.node(cur).kind, NodeKind::Expr(_)));
    }

    #[test]
    fn for_loop_structure() {
        let cfg = cfg_of("void f(int n) { for (int i = 0; i < n; i++) n--; }");
        let decl = cfg
            .ids()
            .find(|&i| matches!(cfg.node(i).kind, NodeKind::Decl(_)))
            .unwrap();
        let cond = cfg
            .ids()
            .find(|&i| matches!(cfg.node(i).kind, NodeKind::Cond(_)))
            .unwrap();
        assert!(cfg.node(decl).succs.contains(&cond));
        // Condition exits the loop and enters the body.
        assert_eq!(cfg.node(cond).succs.len(), 2);
    }

    #[test]
    fn break_exits_loop() {
        let cfg = cfg_of("void f(int n) { while (1) { if (n) break; n++; } n = 7; }");
        // The final statement must be reachable.
        let last = cfg
            .ids()
            .filter(|&i| matches!(cfg.node(i).kind, NodeKind::Expr(_)))
            .last()
            .unwrap();
        assert!(!cfg.node(last).preds.is_empty());
    }

    #[test]
    fn continue_targets_condition() {
        let cfg = cfg_of("void f(int n) { while (n) { if (n == 2) continue; n--; } }");
        let cond = cfg
            .ids()
            .find(|&i| matches!(cfg.node(i).kind, NodeKind::Cond(_)))
            .unwrap();
        // while-cond has >= 2 preds: entry-side and the continue/back edges.
        assert!(cfg.node(cond).preds.len() >= 2);
    }

    #[test]
    fn goto_forward() {
        let cfg = cfg_of("void f(int a) { if (a) goto out; a = 1; out: a = 2; }");
        let goto = cfg
            .ids()
            .find(|&i| matches!(cfg.node(i).kind, NodeKind::Goto(_)))
            .unwrap();
        let label = cfg
            .ids()
            .find(|&i| matches!(&cfg.node(i).kind, NodeKind::Label(l) if l == "out"))
            .unwrap();
        assert!(cfg.node(goto).succs.contains(&label));
    }

    #[test]
    fn goto_backward() {
        let cfg = cfg_of("void f(int a) { again: a--; if (a) goto again; }");
        let goto = cfg
            .ids()
            .find(|&i| matches!(cfg.node(i).kind, NodeKind::Goto(_)))
            .unwrap();
        let label = cfg
            .ids()
            .find(|&i| matches!(&cfg.node(i).kind, NodeKind::Label(l) if l == "again"))
            .unwrap();
        assert!(cfg.node(goto).succs.contains(&label));
    }

    #[test]
    fn switch_cases_branch_from_head() {
        let cfg = cfg_of(
            "void f(int a) { switch (a) { case 1: a = 1; break; case 2: a = 2; break; default: a = 9; } }",
        );
        let cond = cfg
            .ids()
            .find(|&i| matches!(cfg.node(i).kind, NodeKind::Cond(_)))
            .unwrap();
        // three case labels
        assert_eq!(cfg.node(cond).succs.len(), 3);
    }

    #[test]
    fn switch_without_default_can_skip() {
        let cfg = cfg_of("void f(int a) { switch (a) { case 1: a = 1; } a = 5; }");
        let cond = cfg
            .ids()
            .find(|&i| matches!(cfg.node(i).kind, NodeKind::Cond(_)))
            .unwrap();
        let last = cfg
            .ids()
            .filter(|&i| matches!(cfg.node(i).kind, NodeKind::Expr(_)))
            .last()
            .unwrap();
        // Path from switch head directly to the statement after the switch.
        assert!(cfg.node(last).preds.contains(&cond) || cfg.node(last).preds.len() >= 2);
    }

    #[test]
    fn switch_fallthrough_chains() {
        let cfg = cfg_of("void f(int a) { switch (a) { case 1: a = 1; case 2: a = 2; } }");
        let first = cfg
            .ids()
            .find(|&i| matches!(cfg.node(i).kind, NodeKind::Expr(_)))
            .unwrap();
        // a = 1 falls through into the `case 2:` label node.
        let succ = cfg.node(first).succs[0];
        assert!(matches!(cfg.node(succ).kind, NodeKind::CaseLabel));
    }

    #[test]
    fn infinite_loop_body_reachable() {
        let cfg = cfg_of("void f(int n) { for (;;) { n++; } }");
        let body = cfg
            .ids()
            .find(|&i| matches!(cfg.node(i).kind, NodeKind::Expr(_)))
            .unwrap();
        assert!(!cfg.node(body).preds.is_empty());
    }

    #[test]
    fn all_nonexit_nodes_reachable() {
        let cfg = cfg_of(
            "int f(int a) { int r = 0; if (a > 0) { r = 1; } else if (a < 0) { r = -1; } for (int i = 0; i < a; i++) r += i; return r; }",
        );
        assert_eq!(reachable_count(&cfg), cfg.nodes.len());
    }
}
