//! Inter-procedural function summaries and their composition.
//!
//! Per function, [`FnSummary`] records the shared objects it reads and
//! writes (with min/max statement distance from the function entry), the
//! strongest barrier semantics observed on any path, and its plain
//! callees. Summaries are extracted per file (so the content-hash cache
//! invalidates exactly the summaries of edited files) and composed
//! corpus-wide at pairing time: the call graph is condensed into SCCs
//! (cycle-safe — recursion collapses to one composite node) and walked
//! callees-first, merging each callee's accesses into its callers up to
//! [`crate::AnalysisConfig::ipa_depth`] call edges.
//!
//! This replaces the paper's ±1-call-level window for depths ≥ 1: a
//! `smp_wmb` in `caller.c` can order a `READ_ONCE` two callee levels
//! away in another translation unit. Composition bounds at callees that
//! contain an explicit barrier (walking into them would cross a bounding
//! barrier), mirroring the intra-procedural window rules.

use crate::config::AnalysisConfig;
use crate::extract::accesses_in_node;
use crate::ir::{Access, AccessKind, SharedObject, Side};
use crate::sites::FileAnalysis;
use cfgir::{walk, CallGraph, Dir, LoweredFile, Step, TypeEnv};
use ckit::span::Span;
use kmodel::SummaryBarrier;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Version tag of the on-disk summary format, stored in the cache
/// document separately from [`crate::cache::CACHE_FORMAT_VERSION`]: bump
/// it whenever [`FnSummary`] or the extraction rules change, and warm
/// caches carrying older summaries are discarded wholesale.
pub const SUMMARY_VERSION: u32 = 1;

/// Statements explored from the function entry when summarizing, and the
/// cap on retained accesses — summaries must stay compact (they are
/// cached per file and composed corpus-wide).
const SUMMARY_WINDOW: u32 = 64;
const SUMMARY_ACCESS_CAP: usize = 64;
const COMPOSED_ACCESS_CAP: usize = 128;

/// One shared-object access visible from a function's entry.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SummaryAccess {
    pub object: SharedObject,
    pub kind: AccessKind,
    pub annotated: bool,
    /// Min/max statement distance from the function entry at which the
    /// object is accessed ("site distances" for callers composing this
    /// summary into their windows).
    pub min_dist: u32,
    pub max_dist: u32,
    pub span: Span,
}

/// A compact, composable summary of one function.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FnSummary {
    pub name: String,
    /// Shared objects read/written anywhere in the function (deduped by
    /// object + kind, distances merged).
    pub accesses: Vec<SummaryAccess>,
    /// Strongest barrier semantics on any path: `Explicit` forbids
    /// composing this function's accesses into a caller's window.
    pub barrier: SummaryBarrierTag,
    /// Plain (non-primitive) callees invoked, deduped, in call order.
    pub callees: Vec<String>,
}

/// Serializable mirror of [`kmodel::SummaryBarrier`] (kmodel stays
/// serde-free).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SummaryBarrierTag {
    None,
    Full,
    Explicit,
}

impl From<SummaryBarrier> for SummaryBarrierTag {
    fn from(b: SummaryBarrier) -> Self {
        match b {
            SummaryBarrier::None => SummaryBarrierTag::None,
            SummaryBarrier::Full => SummaryBarrierTag::Full,
            SummaryBarrier::Explicit => SummaryBarrierTag::Explicit,
        }
    }
}

impl FnSummary {
    /// May callers merge this function's accesses into their windows?
    pub fn composable(&self) -> bool {
        self.barrier != SummaryBarrierTag::Explicit
    }
}

/// A plain call observed inside a barrier's exploration window, recorded
/// during per-file extraction so the corpus-global composition pass can
/// splice summary accesses into the site without re-walking CFGs.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowCall {
    pub callee: String,
    pub side: Side,
    /// Statement distance of the call node from the barrier.
    pub distance: u32,
}

/// Extract summaries for every function of a lowered file.
pub fn extract_summaries(lowered: &LoweredFile<'_>, envs: &[TypeEnv<'_>]) -> Vec<FnSummary> {
    lowered
        .functions
        .iter()
        .enumerate()
        .map(|(fi, f)| {
            let cfg = &lowered.cfgs[fi];
            let env = &envs[fi];
            let mut barrier = SummaryBarrier::None;
            let mut callees: Vec<String> = Vec::new();
            let mut by_key: HashMap<(SharedObject, AccessKind), SummaryAccess> = HashMap::new();
            let mut order: Vec<(SharedObject, AccessKind)> = Vec::new();
            walk(cfg, cfg.entry, Dir::Fwd, SUMMARY_WINDOW, |node, dist| {
                for raw in accesses_in_node(&cfg.node(node).kind, env) {
                    let key = (raw.object.clone(), raw.kind);
                    match by_key.get_mut(&key) {
                        Some(sa) => {
                            sa.min_dist = sa.min_dist.min(dist);
                            sa.max_dist = sa.max_dist.max(dist);
                            sa.annotated |= raw.annotated;
                        }
                        None => {
                            by_key.insert(
                                key.clone(),
                                SummaryAccess {
                                    object: raw.object,
                                    kind: raw.kind,
                                    annotated: raw.annotated,
                                    min_dist: dist,
                                    max_dist: dist,
                                    span: raw.span,
                                },
                            );
                            order.push(key);
                        }
                    }
                }
                for expr in cfg.node(node).kind.exprs() {
                    expr.walk(&mut |e| {
                        if let Some(name) = e.call_name() {
                            barrier = barrier.join(kmodel::summary_barrier_of_call(name));
                            if matches!(kmodel::classify_call(name), kmodel::CallSemantics::Plain)
                                && !callees.iter().any(|c| c == name)
                            {
                                callees.push(name.to_string());
                            }
                        }
                    });
                }
                Step::Continue
            });
            let mut accesses: Vec<SummaryAccess> = order
                .into_iter()
                .filter_map(|key| by_key.remove(&key))
                .collect();
            accesses.truncate(SUMMARY_ACCESS_CAP);
            FnSummary {
                name: f.sig.name.to_string(),
                accesses,
                barrier: barrier.into(),
                callees,
            }
        })
        .collect()
}

/// One access of a *composed* summary: a callee access as seen from a
/// function, after following `depth` call edges.
#[derive(Clone, Debug)]
pub struct ComposedAccess {
    pub object: SharedObject,
    pub kind: AccessKind,
    pub annotated: bool,
    pub span: Span,
    /// Call edges between the owning function and the access (0 = the
    /// function's own access).
    pub depth: u32,
    /// Callee chain walked (outermost first); `depth` entries.
    pub via: Vec<String>,
}

/// Corpus-wide composed summaries, indexed by `(file, function name)`.
pub struct ComposedIndex {
    /// Flattened function handles: `(file index, summary)`.
    nodes: Vec<(usize, FnSummary)>,
    /// `(file, name)` -> handle; plus a global name -> handles map for
    /// cross-file resolution.
    by_file_name: HashMap<(usize, String), usize>,
    by_name: HashMap<String, Vec<usize>>,
    /// Per handle: composed accesses up to the requested depth.
    composed: Vec<Vec<ComposedAccess>>,
}

impl ComposedIndex {
    /// Build and compose summaries up to `depth` call edges, composing
    /// only the functions reachable within `depth` edges from the given
    /// `(file, function)` roots — the engine passes every callee named in
    /// a barrier window. Functions outside that cone keep empty composed
    /// sets (nothing downstream asks for them; `fence_within` walks raw
    /// summaries), which keeps the pass proportional to the barrier
    /// neighborhood rather than the corpus: on a kernel-shaped tree most
    /// functions are nowhere near a barrier.
    pub fn build_rooted(
        files: &[std::sync::Arc<FileAnalysis>],
        depth: u32,
        roots: &[(usize, String)],
    ) -> ComposedIndex {
        let mut nodes: Vec<(usize, FnSummary)> = Vec::new();
        let mut by_file_name: HashMap<(usize, String), usize> = HashMap::new();
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        // `(position in files, summary index)` per handle, so access lists
        // — the expensive part of a summary clone — can be copied in
        // lazily, only for the handles the root cone actually composes.
        let mut origin: Vec<(usize, usize)> = Vec::new();
        for (pos, fa) in files.iter().enumerate() {
            for (si, s) in fa.summaries.iter().enumerate() {
                let h = nodes.len();
                by_file_name.insert((fa.file, s.name.clone()), h);
                by_name.entry(s.name.clone()).or_default().push(h);
                nodes.push((
                    fa.file,
                    FnSummary {
                        name: s.name.clone(),
                        accesses: Vec::new(),
                        barrier: s.barrier,
                        callees: s.callees.clone(),
                    },
                ));
                origin.push((pos, si));
            }
        }
        // Call graph over handles; edges resolved same-file first, then
        // unique global match (a name defined in several files is
        // ambiguous for a cross-file call and is skipped).
        let mut graph = CallGraph::with_nodes(nodes.len());
        for (h, &(file, ref summary)) in nodes.iter().enumerate() {
            for callee in &summary.callees {
                if let Some(&target) = by_file_name.get(&(file, callee.clone())) {
                    graph.add_call(h, target);
                } else if let Some(cands) = by_name.get(callee) {
                    if cands.len() == 1 {
                        graph.add_call(h, cands[0]);
                    }
                }
            }
        }
        let cond = graph.condense();

        // Which handles need a composed set at all? BFS `depth` call
        // edges down from the roots; accesses any deeper could never
        // survive the `ipa_depth` filter at a splice site, so pruned
        // handles' sets are never observed incomplete.
        let mut active = vec![false; nodes.len()];
        let mut frontier: Vec<usize> = Vec::new();
        for (file, name) in roots {
            let target = by_file_name
                .get(&(*file, name.clone()))
                .copied()
                .or_else(|| by_name.get(name).filter(|c| c.len() == 1).map(|c| c[0]));
            if let Some(h) = target {
                if !active[h] {
                    active[h] = true;
                    frontier.push(h);
                }
            }
        }
        for _ in 0..depth {
            let mut next = Vec::new();
            for &h in &frontier {
                for &t in graph.callees(h) {
                    if !active[t] {
                        active[t] = true;
                        next.push(t);
                    }
                }
            }
            frontier = next;
        }
        for h in 0..nodes.len() {
            if active[h] {
                let (pos, si) = origin[h];
                nodes[h].1.accesses = files[pos].summaries[si].accesses.clone();
            }
        }

        // Callees-first over the condensation DAG. Within a cyclic SCC
        // the members' own accesses form one composite unit: each member
        // sees the union at depth 1 (further unrolling adds nothing new —
        // this is what makes recursion terminate).
        let mut composed: Vec<Vec<ComposedAccess>> = vec![Vec::new(); nodes.len()];
        for scc in cond.topo_order() {
            // Own accesses at depth 0.
            for &h in &cond.sccs[scc] {
                if !active[h] {
                    continue;
                }
                let own: Vec<ComposedAccess> = nodes[h]
                    .1
                    .accesses
                    .iter()
                    .map(|sa| ComposedAccess {
                        object: sa.object.clone(),
                        kind: sa.kind,
                        annotated: sa.annotated,
                        span: sa.span,
                        depth: 0,
                        via: Vec::new(),
                    })
                    .collect();
                composed[h] = own;
            }
            // Cross-SCC (DAG) composition: merge each callee's already
            // composed set, one call edge deeper. Callee SCCs have
            // smaller ids, so their sets are final.
            for &h in &cond.sccs[scc] {
                if !active[h] {
                    continue;
                }
                let (file, _) = nodes[h];
                let callees: Vec<String> = nodes[h].1.callees.clone();
                for callee in callees {
                    let target = by_file_name
                        .get(&(file, callee.clone()))
                        .copied()
                        .or_else(|| by_name.get(&callee).filter(|c| c.len() == 1).map(|c| c[0]));
                    let Some(t) = target else { continue };
                    if cond.scc_of[t] == scc {
                        continue; // handled by the intra-SCC union below
                    }
                    if !nodes[t].1.composable() {
                        continue;
                    }
                    let callee_set = composed[t].clone();
                    for ca in callee_set {
                        push_composed(&mut composed[h], ca, 1, &callee, depth);
                    }
                }
            }
            // Intra-SCC composition: every member of a cycle absorbs the
            // other members' composed sets (own accesses plus whatever
            // they pulled from external callees) at one extra call edge.
            // A single union pass is exact modulo distances — further
            // unrolling of the cycle adds no new objects — which is what
            // makes recursion terminate.
            if cond.cyclic[scc] {
                let members = cond.sccs[scc].clone();
                let snapshots: Vec<Vec<ComposedAccess>> =
                    members.iter().map(|&m| composed[m].clone()).collect();
                for &h in &members {
                    if !active[h] {
                        continue;
                    }
                    for (&m, snap) in members.iter().zip(&snapshots) {
                        if m == h || !nodes[m].1.composable() {
                            continue;
                        }
                        for ca in snap {
                            push_composed(&mut composed[h], ca.clone(), 1, &nodes[m].1.name, depth);
                        }
                    }
                }
            }
            for &h in &cond.sccs[scc] {
                composed[h].truncate(COMPOSED_ACCESS_CAP);
            }
        }
        ComposedIndex {
            nodes,
            by_file_name,
            by_name,
            composed,
        }
    }

    /// Resolve a call from `file` to `callee`: same-file definition
    /// first, else a unique cross-file definition.
    pub fn resolve(&self, file: usize, callee: &str) -> Option<usize> {
        self.by_file_name
            .get(&(file, callee.to_string()))
            .copied()
            .or_else(|| {
                self.by_name
                    .get(callee)
                    .filter(|c| c.len() == 1)
                    .map(|c| c[0])
            })
    }

    /// The summary of a resolved handle.
    pub fn summary(&self, handle: usize) -> &FnSummary {
        &self.nodes[handle].1
    }

    /// Composed accesses of a resolved handle.
    pub fn composed(&self, handle: usize) -> &[ComposedAccess] {
        &self.composed[handle]
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whole-corpus evidence for the missing-barrier detector: does
    /// `func` in `file` reach an explicit fence within `depth` call
    /// edges? A reader whose fence lives in a (possibly cross-file)
    /// callee is not fence-less and must not be reported.
    pub fn fence_within(&self, file: usize, func: &str, depth: u32) -> bool {
        let Some(start) = self.by_file_name.get(&(file, func.to_string())).copied() else {
            return false;
        };
        let mut seen = vec![false; self.nodes.len()];
        seen[start] = true;
        let mut frontier = vec![start];
        for _ in 0..=depth {
            let mut next = Vec::new();
            for &h in &frontier {
                if self.nodes[h].1.barrier == SummaryBarrierTag::Explicit {
                    return true;
                }
                for callee in &self.nodes[h].1.callees {
                    if let Some(t) = self.resolve(self.nodes[h].0, callee) {
                        if !seen[t] {
                            seen[t] = true;
                            next.push(t);
                        }
                    }
                }
            }
            frontier = next;
        }
        false
    }
}

/// Merge one callee access into a caller's composed set: bump the depth,
/// prepend the callee to the chain, dedup by (object, kind) keeping the
/// shallowest occurrence. Accesses deeper than `max_depth` total call
/// edges are dropped — callers filter again by the live `ipa_depth`, but
/// bounding here keeps composed sets small.
fn push_composed(
    set: &mut Vec<ComposedAccess>,
    ca: ComposedAccess,
    edges: u32,
    callee: &str,
    max_depth: u32,
) {
    let depth = ca.depth + edges;
    if depth > max_depth {
        return;
    }
    let mut via = Vec::with_capacity(ca.via.len() + 1);
    via.push(callee.to_string());
    via.extend(ca.via.iter().cloned());
    match set
        .iter_mut()
        .find(|e| e.object == ca.object && e.kind == ca.kind)
    {
        Some(existing) => {
            if depth < existing.depth {
                existing.depth = depth;
                existing.via = via;
                existing.span = ca.span;
                existing.annotated = ca.annotated;
            }
        }
        None => set.push(ComposedAccess {
            object: ca.object,
            kind: ca.kind,
            annotated: ca.annotated,
            span: ca.span,
            depth,
            via,
        }),
    }
}

/// Splice composed callee accesses into every barrier site whose window
/// contains a call to a summarized function. Runs corpus-globally after
/// per-file extraction; a no-op at `ipa_depth == 0`. Returns
/// `(sites touched, accesses added)`.
pub fn augment_sites(
    files: &mut [std::sync::Arc<FileAnalysis>],
    index: &ComposedIndex,
    config: &AnalysisConfig,
) -> (u64, u64) {
    if config.ipa_depth == 0 {
        return (0, 0);
    }
    let mut sites_touched = 0u64;
    let mut added_total = 0u64;
    for fa in files.iter_mut() {
        let file = fa.file;
        for si in 0..fa.sites.len() {
            let calls = fa.window_calls.get(si).cloned().unwrap_or_default();
            if calls.is_empty() {
                continue;
            }
            let mut added = 0u64;
            for call in &calls {
                let Some(handle) = index.resolve(file, &call.callee) else {
                    continue;
                };
                if !index.summary(handle).composable() {
                    continue;
                }
                for ca in index.composed(handle) {
                    // `ca.depth` edges inside the callee, +1 for the call
                    // itself: total must fit the configured depth.
                    if ca.depth + 1 > config.ipa_depth {
                        continue;
                    }
                    if config.is_generic_type(&ca.object.strukt) {
                        continue;
                    }
                    // Copy-on-write: the first mutation clones the
                    // cache-shared analysis; after that the Arc is unique
                    // and `make_mut` is a plain `get_mut`.
                    let site = &mut std::sync::Arc::make_mut(fa).sites[si];
                    // Skip objects the site already sees on this side with
                    // this kind (notably the same-file ±1 expansion).
                    if site
                        .accesses
                        .iter()
                        .any(|a| a.object == ca.object && a.kind == ca.kind && a.side == call.side)
                    {
                        continue;
                    }
                    let mut via = Vec::with_capacity(ca.via.len() + 1);
                    via.push(call.callee.clone());
                    via.extend(ca.via.iter().cloned());
                    site.accesses.push(Access {
                        object: ca.object.clone(),
                        kind: ca.kind,
                        side: call.side,
                        // One statement per call edge below the call site:
                        // mirrors what inlining the chain would cost.
                        distance: call.distance.saturating_add(ca.depth),
                        span: ca.span,
                        annotated: ca.annotated,
                        cross_function: true,
                        via_calls: via,
                    });
                    added += 1;
                }
            }
            if added > 0 {
                sites_touched += 1;
                added_total += added;
            }
        }
    }
    (sites_touched, added_total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::analyze_file;

    /// Analyze at `ipa_depth` 1: summaries are extracted only when the
    /// composition pass runs.
    fn analyze_named(name: &str, src: &str) -> FileAnalysis {
        let parsed = ckit::parse_string(name, src).unwrap();
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        let config = AnalysisConfig {
            ipa_depth: 1,
            ..Default::default()
        };
        analyze_file(0, &parsed, &config)
    }

    /// The engine's composition, rooted at one function as a barrier
    /// window naming it would root it.
    fn rooted(
        files: &[std::sync::Arc<FileAnalysis>],
        depth: u32,
        file: usize,
        root: &str,
    ) -> ComposedIndex {
        ComposedIndex::build_rooted(files, depth, &[(file, root.to_string())])
    }

    #[test]
    fn summaries_extracted_for_every_function() {
        let fa = analyze_named(
            "t.c",
            r#"
struct s { int a; int b; };
static void leaf(struct s *p) { p->a = 1; }
void mid(struct s *p) { leaf(p); p->b = 2; }
void top(struct s *p) { mid(p); smp_wmb(); }
"#,
        );
        assert_eq!(fa.summaries.len(), 3);
        let leaf = &fa.summaries[0];
        assert_eq!(leaf.name, "leaf");
        assert_eq!(leaf.barrier, SummaryBarrierTag::None);
        assert!(leaf
            .accesses
            .iter()
            .any(|a| a.object == SharedObject::new("s", "a") && a.kind == AccessKind::Write));
        let mid = &fa.summaries[1];
        assert_eq!(mid.callees, vec!["leaf".to_string()]);
        let top = &fa.summaries[2];
        assert_eq!(top.barrier, SummaryBarrierTag::Explicit);
        assert!(!top.composable());
    }

    #[test]
    fn summary_barrier_ranks_full_atomics() {
        let fa = analyze_named(
            "t.c",
            r#"
struct s { atomic_t r; };
void f(struct s *p) { atomic_inc_and_test(&p->r); }
void g(struct s *p) { atomic_inc(&p->r); }
"#,
        );
        assert_eq!(fa.summaries[0].barrier, SummaryBarrierTag::Full);
        assert!(fa.summaries[0].composable());
        assert_eq!(fa.summaries[1].barrier, SummaryBarrierTag::None);
    }

    #[test]
    fn composition_reaches_two_levels() {
        let caller = analyze_named(
            "caller.c",
            r#"
struct s { int a; int flag; };
void pub(struct s *p) { fill(p); smp_wmb(); p->flag = 1; }
"#,
        );
        let mid = analyze_named(
            "mid.c",
            r#"
struct s { int a; int flag; };
void fill(struct s *p) { deep_fill(p); }
"#,
        );
        let leaf = analyze_named(
            "leaf.c",
            r#"
struct s { int a; int flag; };
void deep_fill(struct s *p) { p->a = 7; }
"#,
        );
        let mut files = vec![caller, mid, leaf];
        for (i, f) in files.iter_mut().enumerate() {
            f.file = i;
        }
        let files: Vec<std::sync::Arc<FileAnalysis>> =
            files.into_iter().map(std::sync::Arc::new).collect();
        let index = rooted(&files, 2, 0, "fill");
        let h = index.resolve(0, "fill").expect("fill resolved cross-file");
        let composed = index.composed(h);
        let a = composed
            .iter()
            .find(|c| c.object == SharedObject::new("s", "a"))
            .expect("deep access composed");
        assert_eq!(a.depth, 1);
        assert_eq!(a.via, vec!["deep_fill".to_string()]);
    }

    #[test]
    fn composition_stops_at_callee_barriers() {
        let a = analyze_named(
            "a.c",
            r#"
struct s { int x; };
void outer(struct s *p) { fenced(p); }
"#,
        );
        let b = analyze_named(
            "b.c",
            r#"
struct s { int x; };
void fenced(struct s *p) { smp_mb(); p->x = 1; }
"#,
        );
        let mut files = vec![a, b];
        for (i, f) in files.iter_mut().enumerate() {
            f.file = i;
        }
        let files: Vec<std::sync::Arc<FileAnalysis>> =
            files.into_iter().map(std::sync::Arc::new).collect();
        let index = rooted(&files, 4, 0, "outer");
        let h = index.resolve(0, "outer").unwrap();
        // outer's composed set must not contain fenced's access.
        assert!(index
            .composed(h)
            .iter()
            .all(|c| c.object != SharedObject::new("s", "x") || c.depth == 0));
    }

    #[test]
    fn self_recursion_terminates_and_composes() {
        let fa = analyze_named(
            "r.c",
            r#"
struct s { int x; };
void rec(struct s *p, int n) { if (n) rec(p, n - 1); p->x = 1; }
void user(struct s *p) { rec(p, 3); }
"#,
        );
        let mut files = vec![fa];
        files[0].file = 0;
        let files: Vec<std::sync::Arc<FileAnalysis>> =
            files.into_iter().map(std::sync::Arc::new).collect();
        let index = rooted(&files, 8, 0, "user");
        let h = index.resolve(0, "rec").unwrap();
        // One access, despite the self-call (SCC collapsed).
        let xs: Vec<_> = index
            .composed(h)
            .iter()
            .filter(|c| c.object == SharedObject::new("s", "x"))
            .collect();
        assert_eq!(xs.len(), 1);
        let hu = index.resolve(0, "user").unwrap();
        let x = index
            .composed(hu)
            .iter()
            .find(|c| c.object == SharedObject::new("s", "x"))
            .unwrap();
        assert_eq!(x.depth, 1);
        assert_eq!(x.via, vec!["rec".to_string()]);
    }

    #[test]
    fn mutual_recursion_terminates() {
        let fa = analyze_named(
            "m.c",
            r#"
struct s { int x; int y; };
void ping(struct s *p, int n) { if (n) pong(p, n - 1); p->x = 1; }
void pong(struct s *p, int n) { if (n) ping(p, n - 1); p->y = 1; }
"#,
        );
        let mut files = vec![fa];
        files[0].file = 0;
        let files: Vec<std::sync::Arc<FileAnalysis>> =
            files.into_iter().map(std::sync::Arc::new).collect();
        let index = rooted(&files, 8, 0, "ping");
        let h = index.resolve(0, "ping").unwrap();
        let objs: Vec<_> = index.composed(h).iter().map(|c| &c.object).collect();
        assert!(objs.contains(&&SharedObject::new("s", "x")));
        assert!(objs.contains(&&SharedObject::new("s", "y")));
    }

    #[test]
    fn ambiguous_cross_file_names_are_skipped() {
        let a = analyze_named(
            "a.c",
            "struct s { int x; };\nvoid helper(struct s*p){p->x=1;}",
        );
        let b = analyze_named(
            "b.c",
            "struct s { int y; };\nvoid helper(struct s*p){p->y=1;}",
        );
        let c = analyze_named(
            "c.c",
            "struct s { int z; };\nvoid top(struct s*p){helper(p);}",
        );
        let mut files = vec![a, b, c];
        for (i, f) in files.iter_mut().enumerate() {
            f.file = i;
        }
        let files: Vec<std::sync::Arc<FileAnalysis>> =
            files.into_iter().map(std::sync::Arc::new).collect();
        let index = rooted(&files, 2, 2, "top");
        assert!(index.resolve(2, "helper").is_none());
        let h = index.resolve(2, "top").unwrap();
        assert_eq!(index.composed(h).len(), 0);
    }
}
