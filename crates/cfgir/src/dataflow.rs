//! Intra-procedural dataflow analyses over a [`Cfg`].
//!
//! Two classic frameworks, sized for the small per-function CFGs this
//! workspace builds:
//!
//! * **dominator trees** (iterative Cooper–Harvey–Kennedy over a
//!   reverse-postorder numbering),
//! * **reaching definitions** (forward may-analysis over caller-supplied
//!   definition sites, so the framework stays agnostic of what a
//!   "variable" is — `crates/core` instantiates it with shared-object
//!   keys).
//!
//! Both tolerate unreachable nodes (the CFG builder keeps statements
//! after a `return`): such nodes are reported as unreachable and excluded
//! from dominance and dataflow facts.

use crate::cfg::{Cfg, NodeId};

/// A dominator tree, rooted at the CFG entry over successor edges.
#[derive(Clone, Debug)]
pub struct DomTree {
    root: NodeId,
    /// Immediate dominator per node; `idom[root] == root`, unreachable
    /// nodes are `None`.
    idom: Vec<Option<NodeId>>,
}

impl DomTree {
    /// The immediate dominator of `n` (`None` for the root and for nodes
    /// unreachable from it).
    pub fn idom(&self, n: NodeId) -> Option<NodeId> {
        if n == self.root {
            return None;
        }
        self.idom[n]
    }

    /// Is `n` reachable from the tree's root along the analyzed edges?
    pub fn is_reachable(&self, n: NodeId) -> bool {
        n == self.root || self.idom[n].is_some()
    }

    /// Does `a` dominate `b` (reflexively)? `false` if either node is
    /// unreachable.
    pub fn dominates(&self, a: NodeId, b: NodeId) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == self.root {
                return false;
            }
            cur = self.idom[cur].expect("reachable non-root has an idom");
        }
    }
}

/// Dominator tree rooted at the CFG entry.
pub fn dominators(cfg: &Cfg) -> DomTree {
    let (n, root) = (cfg.nodes.len(), cfg.entry);
    let rpo = reverse_postorder(n, root, &|id| &cfg.node(id).succs);
    let mut rpo_num = vec![usize::MAX; n];
    for (i, &node) in rpo.iter().enumerate() {
        rpo_num[node] = i;
    }
    let mut idom: Vec<Option<NodeId>> = vec![None; n];
    idom[root] = Some(root);
    let mut changed = true;
    while changed {
        changed = false;
        for &node in rpo.iter().skip(1) {
            let mut new_idom: Option<NodeId> = None;
            // Unreachable predecessors never get an idom and are skipped.
            for &p in &cfg.node(node).preds {
                if idom[p].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, &rpo_num, cur, p),
                });
            }
            if let Some(ni) = new_idom {
                if idom[node] != Some(ni) {
                    idom[node] = Some(ni);
                    changed = true;
                }
            }
        }
    }
    // Normalize: the root's stored idom stays `Some(root)` internally but
    // `idom()` reports `None`; unreachable nodes keep `None`.
    DomTree { root, idom }
}

fn intersect(idom: &[Option<NodeId>], rpo_num: &[usize], mut a: NodeId, mut b: NodeId) -> NodeId {
    while a != b {
        while rpo_num[a] > rpo_num[b] {
            a = idom[a].expect("processed node has an idom");
        }
        while rpo_num[b] > rpo_num[a] {
            b = idom[b].expect("processed node has an idom");
        }
    }
    a
}

fn reverse_postorder<'a>(
    n: usize,
    root: NodeId,
    fwd: &impl Fn(NodeId) -> &'a Vec<NodeId>,
) -> Vec<NodeId> {
    let mut seen = vec![false; n];
    let mut post = Vec::with_capacity(n);
    // Iterative DFS with an explicit edge cursor per frame.
    let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
    seen[root] = true;
    while let Some(&mut (node, ref mut cursor)) = stack.last_mut() {
        let edges = fwd(node);
        if *cursor < edges.len() {
            let next = edges[*cursor];
            *cursor += 1;
            if !seen[next] {
                seen[next] = true;
                stack.push((next, 0));
            }
        } else {
            post.push(node);
            stack.pop();
        }
    }
    post.reverse();
    post
}

/// A definition site: node `node` (re)defines the value named by `key`.
///
/// The key type is caller-chosen: a local variable name, a
/// `(struct, field)` pair, anything with equality.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Def<K> {
    pub node: NodeId,
    pub key: K,
}

/// The reaching-definitions solution: for every node, which definition
/// sites (by index into the `defs` slice passed to
/// [`reaching_definitions`]) may reach the *entry* of that node.
#[derive(Clone, Debug)]
pub struct ReachingDefs {
    words: usize,
    in_sets: Vec<u64>,
}

impl ReachingDefs {
    /// Does definition `def_index` reach the entry of `node`?
    pub fn reaches(&self, def_index: usize, node: NodeId) -> bool {
        let bit = self.in_sets[node * self.words + def_index / 64];
        bit >> (def_index % 64) & 1 == 1
    }
}

/// Forward may-analysis: a definition reaches a node if some path from
/// the definition to the node contains no other definition of the same
/// key. Definitions in unreachable code never reach anything.
pub fn reaching_definitions<K: PartialEq>(cfg: &Cfg, defs: &[Def<K>]) -> ReachingDefs {
    let n = cfg.nodes.len();
    let words = defs.len().div_ceil(64).max(1);
    let mut gen_sets = vec![0u64; n * words];
    let mut kill = vec![0u64; n * words];
    for (i, d) in defs.iter().enumerate() {
        gen_sets[d.node * words + i / 64] |= 1 << (i % 64);
        for (j, other) in defs.iter().enumerate() {
            if j != i && other.key == d.key {
                kill[d.node * words + j / 64] |= 1 << (j % 64);
            }
        }
    }
    // A node both generating and killing a def keeps its own generation.
    for w in 0..n * words {
        kill[w] &= !gen_sets[w];
    }
    let rpo = reverse_postorder(n, cfg.entry, &|id| &cfg.node(id).succs);
    let mut in_sets = vec![0u64; n * words];
    let mut out_sets = vec![0u64; n * words];
    let mut changed = true;
    while changed {
        changed = false;
        for &node in &rpo {
            let mut new_in = vec![0u64; words];
            for &p in &cfg.node(node).preds {
                for w in 0..words {
                    new_in[w] |= out_sets[p * words + w];
                }
            }
            for w in 0..words {
                let new_out = gen_sets[node * words + w] | (new_in[w] & !kill[node * words + w]);
                if new_in[w] != in_sets[node * words + w] || new_out != out_sets[node * words + w] {
                    changed = true;
                    in_sets[node * words + w] = new_in[w];
                    out_sets[node * words + w] = new_out;
                }
            }
        }
    }
    ReachingDefs { words, in_sets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::NodeKind;
    use ckit::parse_string;

    fn cfg_of(src: &str) -> Cfg {
        let out = parse_string("t.c", src).unwrap();
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        let cfg = Cfg::build(out.unit.functions().next().unwrap());
        cfg
    }

    /// Node id of the statement whose source text contains `text`.
    fn node_containing(cfg: &Cfg, src: &str, text: &str) -> NodeId {
        cfg.ids()
            .find(|&i| {
                let n = cfg.node(i);
                !matches!(n.kind, NodeKind::Entry | NodeKind::Exit)
                    && n.span.slice(src).contains(text)
            })
            .unwrap_or_else(|| panic!("no node containing {text:?}"))
    }

    #[test]
    fn straight_line_dominators() {
        let src = "void f(int a) { a = 1; a = 2; a = 3; }";
        let cfg = cfg_of(src);
        let dom = dominators(&cfg);
        let n1 = node_containing(&cfg, src, "a = 1");
        let n2 = node_containing(&cfg, src, "a = 2");
        let n3 = node_containing(&cfg, src, "a = 3");
        assert!(dom.dominates(n1, n2));
        assert!(dom.dominates(n1, n3));
        assert!(dom.dominates(n2, n3));
        assert!(!dom.dominates(n3, n1));
        assert_eq!(dom.idom(n2), Some(n1));
        assert!(dom.dominates(cfg.entry, n3));
        assert_eq!(dom.idom(cfg.entry), None);
    }

    #[test]
    fn diamond_joins_at_entry_branch() {
        let src = "void f(int a) { a = 0; if (a) { a = 1; } else { a = 2; } a = 3; }";
        let cfg = cfg_of(src);
        let dom = dominators(&cfg);
        let cond = cfg
            .ids()
            .find(|&i| matches!(cfg.node(i).kind, NodeKind::Cond(_)))
            .unwrap();
        let t = node_containing(&cfg, src, "a = 1");
        let e = node_containing(&cfg, src, "a = 2");
        let join = node_containing(&cfg, src, "a = 3");
        assert!(dom.dominates(cond, t));
        assert!(dom.dominates(cond, e));
        // Neither arm dominates the join; the condition does.
        assert!(!dom.dominates(t, join));
        assert!(!dom.dominates(e, join));
        assert_eq!(dom.idom(join), Some(cond));
    }

    #[test]
    fn loop_head_dominates_body() {
        let src = "void f(int n) { n = 0; while (n < 3) { n++; } n = 9; }";
        let cfg = cfg_of(src);
        let dom = dominators(&cfg);
        let head = node_containing(&cfg, src, "n < 3");
        let body = node_containing(&cfg, src, "n++");
        let after = node_containing(&cfg, src, "n = 9");
        assert!(dom.dominates(head, body));
        assert!(dom.dominates(head, after));
        assert!(!dom.dominates(body, after));
    }

    #[test]
    fn unreachable_nodes_are_excluded() {
        let src = "int f(int a) { a = 1; return a; a = 2; }";
        let cfg = cfg_of(src);
        let dom = dominators(&cfg);
        let live = node_containing(&cfg, src, "a = 1");
        let dead = node_containing(&cfg, src, "a = 2");
        assert!(dom.is_reachable(live));
        assert!(!dom.is_reachable(dead));
        assert!(!dom.dominates(live, dead));
        assert!(!dom.dominates(dead, live));
    }

    #[test]
    fn reaching_defs_straight_line_kill() {
        let src = "void f(int a, int b) { a = 1; b = a; a = 2; b = a; }";
        let cfg = cfg_of(src);
        let d1 = node_containing(&cfg, src, "a = 1");
        let d2 = node_containing(&cfg, src, "a = 2");
        let u1 = cfg
            .ids()
            .filter(|&i| cfg.node(i).span.slice(src).contains("b = a"))
            .min()
            .unwrap();
        let u2 = cfg
            .ids()
            .filter(|&i| cfg.node(i).span.slice(src).contains("b = a"))
            .max()
            .unwrap();
        let defs = vec![Def { node: d1, key: "a" }, Def { node: d2, key: "a" }];
        let rd = reaching_definitions(&cfg, &defs);
        // First use sees only the first def; second use only the second.
        assert!(rd.reaches(0, u1));
        assert!(!rd.reaches(1, u1));
        assert!(!rd.reaches(0, u2));
        assert!(rd.reaches(1, u2));
    }

    #[test]
    fn reaching_defs_merge_at_join() {
        let src = "void f(int a, int c) { if (c) { a = 1; } else { a = 2; } c = a; }";
        let cfg = cfg_of(src);
        let d1 = node_containing(&cfg, src, "a = 1");
        let d2 = node_containing(&cfg, src, "a = 2");
        let join = node_containing(&cfg, src, "c = a");
        let defs = vec![Def { node: d1, key: "a" }, Def { node: d2, key: "a" }];
        let rd = reaching_definitions(&cfg, &defs);
        assert!(rd.reaches(0, join));
        assert!(rd.reaches(1, join));
    }

    #[test]
    fn reaching_defs_through_loop_back_edge() {
        let src = "void f(int n, int s) { n = 0; while (n < 3) { s = n; n = n + 1; } }";
        let cfg = cfg_of(src);
        let d_init = node_containing(&cfg, src, "n = 0");
        let d_inc = node_containing(&cfg, src, "n = n + 1");
        let use_in_body = node_containing(&cfg, src, "s = n");
        let defs = vec![
            Def {
                node: d_init,
                key: "n",
            },
            Def {
                node: d_inc,
                key: "n",
            },
        ];
        let rd = reaching_definitions(&cfg, &defs);
        // Both the initialization and the increment reach the body read.
        assert!(rd.reaches(0, use_in_body));
        assert!(rd.reaches(1, use_in_body));
    }

    #[test]
    fn def_use_chains_link_across_branch() {
        let src = "void f(int a, int c) { a = 1; if (c) { a = 2; } c = a; }";
        let cfg = cfg_of(src);
        let d1 = node_containing(&cfg, src, "a = 1");
        let d2 = node_containing(&cfg, src, "a = 2");
        let u = node_containing(&cfg, src, "c = a");
        let defs = vec![Def { node: d1, key: "a" }, Def { node: d2, key: "a" }];
        let rd = reaching_definitions(&cfg, &defs);
        assert!(rd.reaches(0, u));
        assert!(rd.reaches(1, u));
    }

    #[test]
    fn intervening_def_breaks_chain() {
        let src = "void f(int a, int c) { a = 1; a = 2; c = a; }";
        let cfg = cfg_of(src);
        let d1 = node_containing(&cfg, src, "a = 1");
        let d2 = node_containing(&cfg, src, "a = 2");
        let u = node_containing(&cfg, src, "c = a");
        let defs = vec![Def { node: d1, key: "a" }, Def { node: d2, key: "a" }];
        let rd = reaching_definitions(&cfg, &defs);
        assert!(!rd.reaches(0, u));
        assert!(rd.reaches(1, u));
    }

    #[test]
    fn many_defs_cross_word_boundary() {
        // More than 64 defs exercises the multi-word bitset path.
        let mut body = String::new();
        for i in 0..70 {
            body.push_str(&format!("a = {i}; "));
        }
        body.push_str("b = a;");
        let src = format!("void f(int a, int b) {{ {body} }}");
        let cfg = cfg_of(&src);
        let u = node_containing(&cfg, &src, "b = a");
        let defs: Vec<Def<&str>> = (0..70)
            .map(|i| Def {
                node: node_containing(&cfg, &src, &format!("a = {i};")),
                key: "a",
            })
            .collect();
        let rd = reaching_definitions(&cfg, &defs);
        // Only the last assignment survives.
        let reaching: Vec<usize> = (0..70).filter(|&d| rd.reaches(d, u)).collect();
        assert_eq!(reaching, vec![69]);
    }
}
