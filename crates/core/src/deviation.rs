//! Deviation checkers — paper §5.
//!
//! Three cases cover all barrier usages: unpaired barriers (§5.1, unneeded
//! barrier elimination), a write barrier paired with one read barrier
//! (§5.2, deviations #1-#3), and multi-barrier pairings (§5.3, checked per
//! duo of barriers).

use crate::config::AnalysisConfig;
use crate::ir::*;
use crate::pairing::PairingResult;
use crate::sites::FileAnalysis;
use cfgir::{Cfg, NodeId, NodeKind};
use ckit::span::Span;
use kmodel::{BarrierKind, OnceKind, SeqcountOp};
use serde::{Deserialize, Serialize};

/// What kind of deviation was found.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeviationKind {
    /// Deviation #1: a shared object accessed on the same side of both
    /// barriers of a pairing; the access must move to `correct_side`.
    Misplaced { correct_side: Side },
    /// Deviation #2: the barrier orders only the other kind of access.
    WrongBarrierType { replacement: BarrierKind },
    /// Deviation #3: a variable correctly read before the read barrier is
    /// racily re-read after it; the patch reuses the first read.
    RepeatedRead { first_read_span: Span },
    /// §5.1: the barrier is adjacent to an operation that already provides
    /// its ordering; it can be removed.
    UnneededBarrier { provided_by: String },
    /// §7 extension: a correctly ordered concurrent access lacks
    /// `READ_ONCE`/`WRITE_ONCE`.
    MissingOnce { once: OnceKind },
    /// Dataflow extension: a fence-less reader consumes objects published
    /// by a write barrier Algorithm 1 left unpaired — the read-side fence
    /// is missing entirely. The site points into the reader; the patch
    /// inserts `fence` between the guard load and the dependent loads.
    MissingBarrier {
        /// Function containing the unpaired write barrier.
        writer_function: String,
        /// Fence to insert (`smp_rmb`, or `smp_load_acquire` when the
        /// writer publishes via a release store).
        fence: String,
    },
}

/// One finding, self-contained enough to render a report and synthesize a
/// patch.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Deviation {
    pub kind: DeviationKind,
    /// The barrier at fault (for `Misplaced`/`RepeatedRead`, the barrier
    /// on whose side the bad access sits — biased to readers, §5.2).
    pub barrier: BarrierId,
    pub site: SiteRef,
    /// The shared object involved, when one is.
    pub object: Option<SharedObject>,
    /// Span of the offending access in the barrier's file.
    pub access_span: Option<Span>,
    /// Paper-style human explanation, embedded in the generated patch.
    pub explanation: String,
}

impl Deviation {
    /// Render a compiler-style diagnostic with the offending source line
    /// and a caret under the access (or the barrier, for barrier-level
    /// findings).
    pub fn render(&self, source: &str) -> String {
        let map = ckit::SourceMap::new(self.site.file_name.clone(), source);
        let span = self.access_span.unwrap_or(self.site.span);
        let pos = map.lookup(span.lo);
        let mut out = format!(
            "{}:{}:{}: warning: {}\n",
            self.site.file_name,
            pos.line,
            pos.col,
            crate::report::deviation_class(&self.kind)
        );
        if let Some(line_span) = map.line_span(pos.line) {
            let line_text = line_span.slice(source);
            out.push_str(&format!("  {line_text}\n"));
            let caret_col = (pos.col as usize).saturating_sub(1);
            let width =
                (span.len() as usize).clamp(1, line_text.len().saturating_sub(caret_col).max(1));
            // Reproduce tabs so the caret aligns under the code.
            let lead: String = line_text
                .chars()
                .take(caret_col)
                .map(|c| if c == '\t' { '\t' } else { ' ' })
                .collect();
            out.push_str(&format!("  {lead}{}\n", "^".repeat(width)));
        }
        out.push_str(&format!("  note: {}\n", self.explanation));
        out
    }
}

/// Per-run context threaded through the duo checkers: the per-file
/// analyses give the checkers the function ASTs their dataflow
/// evidence is built from. `files[i]` is the record of corpus position
/// `i`, so a site's record is `files[site.file]`.
pub(crate) struct CheckCtx<'a> {
    pub files: &'a [std::sync::Arc<FileAnalysis>],
    pub config: &'a AnalysisConfig,
}

/// [`check_all`] with a `check` phase span and per-class counters.
pub fn check_all_traced(
    sites: &[BarrierSite],
    pairing: &PairingResult,
    files: &[std::sync::Arc<FileAnalysis>],
    config: &AnalysisConfig,
    rec: &obs::Recorder,
) -> Vec<Deviation> {
    let _span = rec.span("check");
    let out = check_all(sites, pairing, files, config);
    rec.count("check_deviations_emitted", out.len() as u64);
    for d in &out {
        rec.count(
            &format!("check_{}", crate::report::deviation_class(&d.kind)),
            1,
        );
    }
    out
}

/// Run every checker over the pairing results.
pub fn check_all(
    sites: &[BarrierSite],
    pairing: &PairingResult,
    files: &[std::sync::Arc<FileAnalysis>],
    config: &AnalysisConfig,
) -> Vec<Deviation> {
    let ctx = CheckCtx { files, config };
    let mut out = Vec::new();
    let by_id = |id: BarrierId| &sites[id.0 as usize];

    // §5.1 — unpaired barriers: unneeded-barrier elimination.
    for (id, _reason) in &pairing.unpaired {
        let site = by_id(*id);
        check_unneeded(site, &mut out);
    }

    // §5.3 — seqcount protocols, grouped by their counter object (the
    // pairing may split the four Figure 5 barriers into two pairs when
    // data accesses sit outside one barrier's window — precisely the
    // buggy case — so group by counter, not by pairing membership).
    let mut handled: std::collections::HashSet<BarrierId> = Default::default();
    let mut counters: Vec<&SharedObject> =
        sites.iter().filter_map(|s| s.counter.as_ref()).collect();
    counters.sort();
    counters.dedup();
    for counter in counters {
        let group: Vec<&BarrierSite> = sites
            .iter()
            .filter(|s| s.counter.as_ref() == Some(counter))
            .collect();
        // Only check groups that participate in at least one pairing —
        // otherwise we have no evidence of concurrency.
        let in_pairing = group.iter().any(|s| pairing.pairing_of(s.id).is_some());
        if !in_pairing {
            continue;
        }
        if check_seqcount_protocol(counter, &group, &ctx, &mut out) {
            for s in &group {
                handled.insert(s.id);
            }
        }
    }

    // §5.2 — remaining paired barriers.
    for p in &pairing.pairings {
        if p.members.iter().all(|m| handled.contains(m)) {
            continue;
        }
        let members: Vec<&BarrierSite> = p.members.iter().map(|&m| by_id(m)).collect();
        check_plain_pairing(p, &members, &ctx, &mut out);
    }

    // Deduplicate: symmetric duo checks can report the same finding from
    // both directions.
    let mut seen: std::collections::HashSet<(String, Option<Span>, BarrierId)> = Default::default();
    out.retain(|d| {
        seen.insert((
            format!("{:?}", std::mem::discriminant(&d.kind)),
            d.access_span,
            d.barrier,
        ))
    });

    out
}

/// §5.1: a barrier immediately adjacent to another barrier or to a
/// function with barrier semantics that covers its ordering is unneeded.
fn check_unneeded(site: &BarrierSite, out: &mut Vec<Deviation>) {
    if site.seqcount.is_some() || site.from_atomic.is_some() {
        // seqcount calls and promoted atomics are not removable barriers.
        return;
    }
    let Some(adj) = &site.adjacent_full_barrier else {
        return;
    };
    // Ordering provided by the adjacent operation.
    let (adj_reads, adj_writes) = match kmodel::classify_call(&adj.callee) {
        kmodel::CallSemantics::Barrier(k) => (k.orders_reads(), k.orders_writes()),
        kmodel::CallSemantics::WakeUp => (true, true),
        kmodel::CallSemantics::Atomic(sem) => {
            let full = sem.strength == kmodel::BarrierStrength::Full;
            (full, full)
        }
        _ => (false, false),
    };
    if (site.kind.orders_reads() && !adj_reads) || (site.kind.orders_writes() && !adj_writes) {
        return;
    }
    out.push(Deviation {
        kind: DeviationKind::UnneededBarrier {
            provided_by: adj.callee.clone(),
        },
        barrier: site.id,
        site: site.site.clone(),
        object: None,
        access_span: None,
        explanation: format!(
            "{}() at {}:{} is unneeded: the adjacent call to {}() already \
             provides the ordering",
            site.kind.name(),
            site.site.file_name,
            site.site.line,
            adj.callee
        ),
    });
}

/// §5.2: single write barrier + read barrier(s). For pairings with more
/// than one reader, each (writer, reader) pair is checked independently.
/// Handshake protocols (sleep/wake) have *two* write barriers; every
/// member that writes a pairing object takes the writer role in turn.
fn check_plain_pairing(
    p: &Pairing,
    members: &[&BarrierSite],
    ctx: &CheckCtx,
    out: &mut Vec<Deviation>,
) {
    let mut writers: Vec<&BarrierSite> = members
        .iter()
        .filter(|m| m.is_write_barrier() && writes_objects(m, &p.objects))
        .copied()
        .collect();
    if writers.is_empty() {
        // Salvage: fall back to the pairing's designated anchor.
        if let Some(w) = members.iter().find(|m| m.id == p.writer) {
            writers.push(w);
        }
    }
    for writer in &writers {
        for reader in members.iter().filter(|m| m.id != writer.id) {
            check_duo(writer, reader, &p.objects, ctx, out);
        }
    }
    // Deviation #2 — wrong barrier type, per member.
    for m in members {
        check_wrong_type(m, &p.objects, out);
    }
}

fn writes_objects(site: &BarrierSite, objects: &[SharedObject]) -> bool {
    site.accesses
        .iter()
        .any(|a| a.kind == AccessKind::Write && objects.contains(&a.object))
}

/// Check one writer/reader duo for misplaced accesses (#1) and repeated
/// reads (#3).
fn check_duo(
    writer: &BarrierSite,
    reader: &BarrierSite,
    objects: &[SharedObject],
    ctx: &CheckCtx,
    out: &mut Vec<Deviation>,
) {
    for obj in objects {
        let writes: Vec<&Access> = writer
            .accesses
            .iter()
            .filter(|a| &a.object == obj && a.kind == AccessKind::Write)
            .collect();
        let write_sides: std::collections::HashSet<Side> = writes.iter().map(|a| a.side).collect();
        // Written on *both* sides of the write barrier: this breaks the
        // "accessed either before or after a barrier" assumption. The
        // reader's (single-sided) reads decide the intended side, and the
        // writer's other-side write is flagged — reproducing the paper's
        // documented bnx2x-style false positive (Listing 4) rather than
        // silently skipping.
        if write_sides.len() == 2 {
            let read_sides: std::collections::HashSet<Side> = reader
                .accesses
                .iter()
                .filter(|a| &a.object == obj && a.kind == AccessKind::Read)
                .map(|a| a.side)
                .collect();
            if read_sides.len() == 1 {
                let r_side = *read_sides.iter().next().unwrap();
                let correct_write_side = r_side.flip();
                let bad_write = writes
                    .iter()
                    .filter(|a| a.side == r_side)
                    .min_by_key(|a| a.distance)
                    .unwrap();
                out.push(Deviation {
                    kind: DeviationKind::Misplaced {
                        correct_side: correct_write_side,
                    },
                    barrier: writer.id,
                    site: writer.site.clone(),
                    object: Some(obj.clone()),
                    access_span: Some(bad_write.span),
                    explanation: format!(
                        "{} is written on both sides of the write barrier in \
                         {}() while {}() reads it {} its barrier; move the \
                         write {} the barrier",
                        obj,
                        writer.site.function,
                        reader.site.function,
                        side_word(r_side),
                        side_word(correct_write_side),
                    ),
                });
            }
            continue;
        }
        // Side the writer writes this object on (closest write wins).
        let write_side = writes.iter().min_by_key(|a| a.distance).map(|a| a.side);
        let Some(write_side) = write_side else {
            continue;
        };
        let correct_read_side = write_side.flip();

        let reads: Vec<&Access> = reader
            .accesses
            .iter()
            .filter(|a| &a.object == obj && a.kind == AccessKind::Read)
            .collect();
        if reads.is_empty() {
            continue;
        }
        let good: Vec<&&Access> = reads
            .iter()
            .filter(|a| a.side == correct_read_side)
            .collect();
        let bad: Vec<&&Access> = reads.iter().filter(|a| a.side == write_side).collect();
        if bad.is_empty() {
            continue;
        }
        let bad_access = bad.iter().min_by_key(|a| a.distance).map(|a| **a).unwrap();
        if !good.is_empty() {
            // Read on both sides: the wrong-side read is a racy re-read
            // (deviation #3) — reuse the correctly read value.
            let first: &Access = good.iter().min_by_key(|a| a.distance).unwrap();
            if !reread_is_live(ctx, reader, obj, first, bad_access) {
                continue;
            }
            out.push(Deviation {
                kind: DeviationKind::RepeatedRead {
                    first_read_span: first.span,
                },
                barrier: reader.id,
                site: reader.site.clone(),
                object: Some(obj.clone()),
                access_span: Some(bad_access.span),
                explanation: format!(
                    "{} was correctly read {} the barrier in {}() and is \
                     racily re-read {} it; reuse the previously read value",
                    obj,
                    side_word(correct_read_side),
                    reader.site.function,
                    side_word(write_side),
                ),
            });
        } else {
            // Read only on the wrong side: misplaced memory access
            // (deviation #1) — move the read (bias towards the writer's
            // correctness, §5.2).
            out.push(Deviation {
                kind: DeviationKind::Misplaced {
                    correct_side: correct_read_side,
                },
                barrier: reader.id,
                site: reader.site.clone(),
                object: Some(obj.clone()),
                access_span: Some(bad_access.span),
                explanation: format!(
                    "{} is written {} the write barrier in {}() but read {} \
                     the read barrier in {}(): the barriers provide no \
                     ordering; move the read {} the barrier",
                    obj,
                    side_word(write_side),
                    writer.site.function,
                    side_word(write_side),
                    reader.site.function,
                    side_word(correct_read_side),
                ),
            });
        }
    }
}

/// Dataflow refinement for deviation #3: a wrong-side load only counts as
/// a racy re-read when the first (correct-side) load is still live at it —
/// i.e. the pseudo-definition made by the first load reaches the second
/// along some path with no intervening store to the same object, and the
/// two loads are not on mutually unreachable branches. Any failure to map
/// spans onto the reader's CFG keeps the flag (conservative: the window
/// heuristic's answer). Returns `true` when the finding should be kept.
fn reread_is_live(
    ctx: &CheckCtx,
    reader: &BarrierSite,
    obj: &SharedObject,
    first: &Access,
    second: &Access,
) -> bool {
    if !ctx.config.dataflow_reread {
        return true;
    }
    if first.cross_function || second.cross_function {
        return true;
    }
    let Some(fa) = ctx.files.get(reader.site.file) else {
        return true;
    };
    debug_assert_eq!(fa.file, reader.site.file, "records sit at their positions");
    let Some(func) = fa.function(&reader.site.function) else {
        return true;
    };
    let cfg = &cfgir::Cfg::build(func);
    let (Some(n_first), Some(n_second)) = (
        node_of_span(cfg, first.span),
        node_of_span(cfg, second.span),
    ) else {
        return true;
    };
    if n_first == n_second {
        return true;
    }
    // Order the two loads by control flow.
    let (from, to) = if cfg_reaches(cfg, n_first, n_second) {
        (n_first, n_second)
    } else if cfg_reaches(cfg, n_second, n_first) {
        (n_second, n_first)
    } else {
        // Loads on disjoint branches never observe each other: at most one
        // executes per run, so there is no held value being re-read.
        return false;
    };
    // Definitions: the pseudo-def made by the first load, plus every
    // same-function store to the object in the reader's window.
    let mut defs = vec![cfgir::Def {
        node: from,
        key: 0usize,
    }];
    for a in &reader.accesses {
        if a.kind == AccessKind::Write && &a.object == obj && !a.cross_function {
            if let Some(n) = node_of_span(cfg, a.span) {
                if n != from {
                    defs.push(cfgir::Def {
                        node: n,
                        key: 0usize,
                    });
                }
            }
        }
    }
    let rd = cfgir::reaching_definitions(cfg, &defs);
    rd.reaches(0, to)
}

/// Smallest real CFG node whose span contains `span`.
fn node_of_span(cfg: &Cfg, span: Span) -> Option<NodeId> {
    cfg.ids()
        .filter(|&i| {
            let n = cfg.node(i);
            !matches!(n.kind, NodeKind::Entry | NodeKind::Exit)
                && n.span.lo <= span.lo
                && span.hi <= n.span.hi
        })
        .min_by_key(|&i| cfg.node(i).span.len())
}

/// Forward reachability `from` → `to` along CFG edges (excluding the empty
/// path: `from` reaches itself only through a cycle).
fn cfg_reaches(cfg: &Cfg, from: NodeId, to: NodeId) -> bool {
    let mut seen = vec![false; cfg.nodes.len()];
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        for &s in &cfg.node(n).succs {
            if !seen[s] {
                seen[s] = true;
                if s == to {
                    return true;
                }
                stack.push(s);
            }
        }
    }
    false
}

/// Deviation #2: a barrier whose ordered accesses are all of the other
/// kind.
fn check_wrong_type(site: &BarrierSite, objects: &[SharedObject], out: &mut Vec<Deviation>) {
    if site.seqcount.is_some() {
        return;
    }
    // Only the pure single-direction primitives can be "the wrong one".
    if !matches!(site.kind, BarrierKind::Rmb | BarrierKind::Wmb) {
        return;
    }
    let relevant: Vec<&Access> = site
        .accesses
        .iter()
        .filter(|a| objects.contains(&a.object))
        .collect();
    if relevant.is_empty() {
        return;
    }
    let all_reads = relevant.iter().all(|a| a.kind == AccessKind::Read);
    let all_writes = relevant.iter().all(|a| a.kind == AccessKind::Write);
    let replacement = match (site.kind, all_reads, all_writes) {
        (BarrierKind::Rmb, false, true) => BarrierKind::Wmb,
        (BarrierKind::Wmb, true, false) => BarrierKind::Rmb,
        _ => return,
    };
    out.push(Deviation {
        kind: DeviationKind::WrongBarrierType { replacement },
        barrier: site.id,
        site: site.site.clone(),
        object: None,
        access_span: None,
        explanation: format!(
            "{}() in {}() only orders {}; replace it with {}()",
            site.kind.name(),
            site.site.function,
            if replacement == BarrierKind::Wmb {
                "writes"
            } else {
                "reads"
            },
            replacement.name(),
        ),
    });
}

/// §5.3: seqcount-style double pairing, checked per duo of barriers: the
/// first write barrier pairs with the second read barrier and vice versa
/// (Figure 5). Returns `true` when the group formed a complete protocol
/// and was checked (so the plain §5.2 checks skip its pairings).
fn check_seqcount_protocol(
    counter: &SharedObject,
    group: &[&BarrierSite],
    ctx: &CheckCtx,
    out: &mut Vec<Deviation>,
) -> bool {
    // Writer functions: have WriteBegin + WriteEnd; readers: ReadBegin +
    // ReadRetry. Several functions may serve either role.
    let in_fn =
        |s: &&BarrierSite, op: SeqcountOp, f: &str| s.seqcount == Some(op) && s.site.function == f;
    let mut functions: Vec<&str> = group.iter().map(|s| s.site.function.as_str()).collect();
    functions.sort_unstable();
    functions.dedup();
    let mut writers: Vec<(&BarrierSite, &BarrierSite)> = Vec::new();
    let mut readers: Vec<(&BarrierSite, &BarrierSite)> = Vec::new();
    for f in &functions {
        let find = |op| group.iter().find(|s| in_fn(s, op, f)).copied();
        if let (Some(b), Some(e)) = (find(SeqcountOp::WriteBegin), find(SeqcountOp::WriteEnd)) {
            writers.push((b, e));
        }
        if let (Some(b), Some(r)) = (find(SeqcountOp::ReadBegin), find(SeqcountOp::ReadRetry)) {
            readers.push((b, r));
        }
    }
    if writers.is_empty() || readers.is_empty() {
        return false;
    }
    for (wb1, wb2) in &writers {
        for (rb1, rb2) in &readers {
            // Data objects: everything the duo endpoints share, minus the
            // counter itself.
            let mut data = common_objects(wb1, rb2);
            data.extend(common_objects(wb2, rb1));
            data.sort();
            data.dedup();
            data.retain(|o| o != counter);
            // Duo 1: writes after WriteBegin ↔ reads before ReadRetry.
            check_duo(wb1, rb2, &data, ctx, out);
            // Duo 2: writes before WriteEnd ↔ reads after ReadBegin.
            check_duo(wb2, rb1, &data, ctx, out);
        }
    }
    true
}

fn common_objects(a: &BarrierSite, b: &BarrierSite) -> Vec<SharedObject> {
    let bo: std::collections::HashSet<SharedObject> =
        b.objects().into_iter().map(|(o, _)| o).collect();
    a.objects()
        .into_iter()
        .map(|(o, _)| o)
        .filter(|o| bo.contains(o))
        .collect()
}

fn side_word(side: Side) -> &'static str {
    match side {
        Side::Before => "before",
        Side::After => "after",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::pair_barriers;
    use crate::sites::analyze_file;

    fn run(src: &str) -> Vec<Deviation> {
        run_with(src, AnalysisConfig::default())
    }

    fn run_with(src: &str, config: AnalysisConfig) -> Vec<Deviation> {
        let parsed = ckit::parse_string("t.c", src).unwrap();
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        let mut fa = analyze_file(0, &parsed, &config);
        for (i, s) in fa.sites.iter_mut().enumerate() {
            s.id = BarrierId(i as u32);
        }
        let pairing = pair_barriers(&fa.sites, &config);
        check_all(
            &fa.sites,
            &pairing,
            &[std::sync::Arc::new(fa.clone())],
            &config,
        )
    }

    #[test]
    fn correct_listing1_is_clean() {
        let src = r#"
struct my_struct { int init; int y; };
void reader(struct my_struct *a) {
    if (!a->init)
        return;
    smp_rmb();
    f(a->y);
}
void writer(struct my_struct *b) {
    b->y = 1;
    smp_wmb();
    b->init = 1;
}
"#;
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn misplaced_read_detected() {
        // Patch 1 shape: the flag is read *after* the read barrier.
        let src = r#"
struct rpc { int len; int recd; int out; };
void complete(struct rpc *req) {
    req->len = 4;
    smp_wmb();
    req->recd = 1;
}
void decode(struct rpc *req) {
    smp_rmb();
    if (!req->recd)
        return;
    req->out = req->len;
}
"#;
        let devs = run(src);
        let mis: Vec<_> = devs
            .iter()
            .filter(|d| matches!(d.kind, DeviationKind::Misplaced { .. }))
            .collect();
        assert_eq!(mis.len(), 1, "{devs:?}");
        let d = mis[0];
        assert_eq!(d.object, Some(SharedObject::new("rpc", "recd")));
        assert_eq!(d.site.function, "decode");
        assert!(matches!(
            d.kind,
            DeviationKind::Misplaced {
                correct_side: Side::Before
            }
        ));
        assert!(d.explanation.contains("recd"));
    }

    #[test]
    fn repeated_read_detected() {
        // Patch 3 shape: num read before the barrier (guard) and re-read
        // after it.
        let src = r#"
struct reuse { int num; struct sock *socks[8]; int len; };
void add_sock(struct reuse *r, struct sock *sk) {
    r->socks[r->num] = sk;
    r->len = 1;
    smp_wmb();
    r->num++;
}
void select_sock(struct reuse *r) {
    int n = r->num;
    int l = r->len;
    smp_rmb();
    if (n) {
        pick(r->socks[r->num]);
    }
}
"#;
        let devs = run(src);
        let rr: Vec<_> = devs
            .iter()
            .filter(|d| matches!(d.kind, DeviationKind::RepeatedRead { .. }))
            .collect();
        assert_eq!(rr.len(), 1, "{devs:?}");
        assert_eq!(rr[0].object, Some(SharedObject::new("reuse", "num")));
        assert_eq!(rr[0].site.function, "select_sock");
    }

    #[test]
    fn benign_reread_after_own_store_suppressed() {
        // The value read before the barrier is overwritten by the reader's
        // own store before the second load: the second load observes the
        // local store, not a racy re-read of the held value. Reaching
        // definitions kill the pseudo-def, so the finding is suppressed.
        let src = r#"
struct q { int num; int data; };
void writer(struct q *p) {
    p->data = 1;
    smp_wmb();
    p->num = 2;
}
void reader(struct q *p) {
    int n = p->num;
    smp_rmb();
    if (n) {
        p->num = 0;
        g(p->num, p->data);
    }
}
"#;
        let devs = run(src);
        assert!(
            devs.iter()
                .all(|d| !matches!(d.kind, DeviationKind::RepeatedRead { .. })),
            "{devs:?}"
        );
    }

    #[test]
    fn window_heuristic_flags_benign_reread() {
        // Ablation: with the window heuristic, the same shape is a false
        // positive — any read on both sides is flagged.
        let src = r#"
struct q { int num; int data; };
void writer(struct q *p) {
    p->data = 1;
    smp_wmb();
    p->num = 2;
}
void reader(struct q *p) {
    int n = p->num;
    smp_rmb();
    if (n) {
        p->num = 0;
        g(p->num, p->data);
    }
}
"#;
        let config = AnalysisConfig {
            dataflow_reread: false,
            ..AnalysisConfig::default()
        };
        let devs = run_with(src, config);
        assert!(
            devs.iter()
                .any(|d| matches!(d.kind, DeviationKind::RepeatedRead { .. })),
            "{devs:?}"
        );
    }

    #[test]
    fn wrong_barrier_type_detected() {
        // A "read barrier" in the writer that only orders writes.
        let src = r#"
struct s { int data; int flag; };
void writer(struct s *p) {
    p->data = 1;
    smp_rmb();
    p->flag = 1;
}
void reader(struct s *p) {
    if (!p->flag)
        return;
    smp_rmb();
    g(p->data);
}
"#;
        let devs = run(src);
        let wt: Vec<_> = devs
            .iter()
            .filter(|d| matches!(d.kind, DeviationKind::WrongBarrierType { .. }))
            .collect();
        assert_eq!(wt.len(), 1, "{devs:?}");
        assert_eq!(wt[0].site.function, "writer");
        assert!(matches!(
            wt[0].kind,
            DeviationKind::WrongBarrierType {
                replacement: BarrierKind::Wmb
            }
        ));
    }

    #[test]
    fn unneeded_barrier_before_wakeup() {
        // Patch 4 shape.
        let src = r#"
struct d { int got_token; struct task *task; };
void rq_qos_wake(struct d *data) {
    data->got_token = 1;
    smp_wmb();
    wake_up_process(data->task);
}
"#;
        let devs = run(src);
        let un: Vec<_> = devs
            .iter()
            .filter(|d| matches!(d.kind, DeviationKind::UnneededBarrier { .. }))
            .collect();
        assert_eq!(un.len(), 1, "{devs:?}");
        match &un[0].kind {
            DeviationKind::UnneededBarrier { provided_by } => {
                assert_eq!(provided_by, "wake_up_process")
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn unneeded_double_barrier() {
        let src = r#"
struct s { int a; int b; };
void f(struct s *p) {
    p->a = 1;
    smp_wmb();
    smp_mb();
    p->b = 2;
}
"#;
        let devs = run(src);
        assert!(
            devs.iter()
                .any(|d| matches!(d.kind, DeviationKind::UnneededBarrier { .. })),
            "{devs:?}"
        );
    }

    #[test]
    fn needed_barrier_not_flagged() {
        // wmb followed by a *relaxed* atomic provides no write ordering by
        // itself — the barrier is needed.
        let src = r#"
struct s { int a; atomic_t c; };
void f(struct s *p) {
    p->a = 1;
    smp_wmb();
    atomic_inc(&p->c);
}
"#;
        let devs = run(src);
        assert!(
            devs.iter()
                .all(|d| !matches!(d.kind, DeviationKind::UnneededBarrier { .. })),
            "{devs:?}"
        );
    }

    #[test]
    fn correct_seqcount_is_clean() {
        let src = r#"
static seqcount_t rs;
struct counters { long bcnt; long pcnt; };
void get_counters(struct counters *c, struct counters *tmp) {
    unsigned int v;
    do {
        v = read_seqcount_begin(&rs);
        c->bcnt = tmp->bcnt;
        c->pcnt = tmp->pcnt;
    } while (read_seqcount_retry(&rs, v));
}
void add_counters(struct counters *t, struct counters *paddc) {
    write_seqcount_begin(&rs);
    t->bcnt += paddc->bcnt;
    t->pcnt += paddc->pcnt;
    write_seqcount_end(&rs);
}
"#;
        let devs = run(src);
        assert!(devs.is_empty(), "{devs:?}");
    }

    #[test]
    fn seqcount_read_outside_window_detected() {
        // A data read AFTER the retry check — not protected by the
        // version re-check.
        let src = r#"
static seqcount_t rs;
struct counters { long bcnt; long pcnt; };
void get_counters(struct counters *c, struct counters *tmp) {
    unsigned int v;
    do {
        v = read_seqcount_begin(&rs);
        c->bcnt = tmp->bcnt;
    } while (read_seqcount_retry(&rs, v));
    c->pcnt = tmp->pcnt;
}
void add_counters(struct counters *t, struct counters *paddc) {
    write_seqcount_begin(&rs);
    t->bcnt += paddc->bcnt;
    t->pcnt += paddc->pcnt;
    write_seqcount_end(&rs);
}
"#;
        let devs = run(src);
        assert!(
            devs.iter().any(|d| {
                d.object == Some(SharedObject::new("counters", "pcnt"))
                    && matches!(
                        d.kind,
                        DeviationKind::Misplaced { .. } | DeviationKind::RepeatedRead { .. }
                    )
            }),
            "{devs:?}"
        );
    }

    #[test]
    fn multi_reader_pairing_checks_each_reader() {
        let src = r#"
struct s { int flag; int data; };
void ok_reader(struct s *p) {
    if (!p->flag) return;
    smp_rmb();
    g(p->data);
}
void bad_reader(struct s *p) {
    smp_rmb();
    if (!p->flag) return;
    h(p->data);
}
void writer(struct s *p) {
    p->data = 1;
    smp_wmb();
    p->flag = 1;
}
"#;
        let devs = run(src);
        let mis: Vec<_> = devs
            .iter()
            .filter(|d| matches!(d.kind, DeviationKind::Misplaced { .. }))
            .collect();
        assert_eq!(mis.len(), 1, "{devs:?}");
        assert_eq!(mis[0].site.function, "bad_reader");
    }

    #[test]
    fn write_both_sides_still_produces_finding() {
        // The bnx2x-style pattern the paper documents as its main false
        // positive source: the same field written on both sides of the
        // barrier. OFence is *expected* to produce a (wrong) patch here.
        let src = r#"
struct bp { unsigned long sp_state; int other; };
void sp_event(struct bp *b) {
    set_bit(1, &b->sp_state);
    b->other = 2;
    smp_wmb();
    clear_bit(2, &b->sp_state);
}
void sp_reader(struct bp *b) {
    if (b->sp_state)
        return;
    smp_rmb();
    g(b->other);
}
"#;
        let devs = run(src);
        assert!(
            devs.iter()
                .any(|d| d.object == Some(SharedObject::new("bp", "sp_state"))),
            "expected the documented false positive to be produced: {devs:?}"
        );
    }
}

#[cfg(test)]
mod render_tests {
    use super::*;
    use crate::pairing::pair_barriers;
    use crate::sites::analyze_file;

    #[test]
    fn render_points_at_the_access() {
        let src = r#"struct rpc { int len; int recd; int out; };
void complete(struct rpc *req) {
	req->len = 4;
	smp_wmb();
	req->recd = 1;
}
void decode(struct rpc *req) {
	smp_rmb();
	if (!req->recd)
		return;
	req->out = req->len;
}
"#;
        let config = AnalysisConfig::default();
        let parsed = ckit::parse_string("xprt.c", src).unwrap();
        let mut fa = analyze_file(0, &parsed, &config);
        for (i, s) in fa.sites.iter_mut().enumerate() {
            s.id = BarrierId(i as u32);
        }
        let pairing = pair_barriers(&fa.sites, &config);
        let devs = check_all(
            &fa.sites,
            &pairing,
            &[std::sync::Arc::new(fa.clone())],
            &config,
        );
        assert!(!devs.is_empty());
        let text = devs[0].render(src);
        assert!(text.contains("xprt.c:9:"), "{text}");
        assert!(text.contains("warning: misplaced memory access"), "{text}");
        assert!(text.contains("if (!req->recd)"), "{text}");
        assert!(text.contains('^'), "{text}");
        assert!(text.contains("note:"), "{text}");
    }
}

#[cfg(test)]
mod more_unneeded_tests {
    use super::*;
    use crate::pairing::pair_barriers;
    use crate::sites::analyze_file;

    fn run(src: &str) -> Vec<Deviation> {
        let config = AnalysisConfig::default();
        let parsed = ckit::parse_string("t.c", src).unwrap();
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        let mut fa = analyze_file(0, &parsed, &config);
        for (i, s) in fa.sites.iter_mut().enumerate() {
            s.id = BarrierId(i as u32);
        }
        let pairing = pair_barriers(&fa.sites, &config);
        check_all(
            &fa.sites,
            &pairing,
            &[std::sync::Arc::new(fa.clone())],
            &config,
        )
    }

    #[test]
    fn barrier_right_after_full_atomic_is_unneeded() {
        let src = r#"
struct s { unsigned long bits; int x; };
void f(struct s *p) {
    test_and_set_bit(1, &p->bits);
    smp_mb();
    p->x = 2;
}
"#;
        let devs = run(src);
        let un: Vec<_> = devs
            .iter()
            .filter(|d| matches!(d.kind, DeviationKind::UnneededBarrier { .. }))
            .collect();
        assert_eq!(un.len(), 1, "{devs:?}");
        match &un[0].kind {
            DeviationKind::UnneededBarrier { provided_by } => {
                assert_eq!(provided_by, "test_and_set_bit")
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn wmb_after_relaxed_bitop_is_needed() {
        // set_bit has no barrier semantics: the wmb stays.
        let src = r#"
struct s { unsigned long bits; int x; };
void f(struct s *p) {
    set_bit(1, &p->bits);
    smp_wmb();
    p->x = 2;
}
"#;
        let devs = run(src);
        assert!(
            devs.iter()
                .all(|d| !matches!(d.kind, DeviationKind::UnneededBarrier { .. })),
            "{devs:?}"
        );
    }

    #[test]
    fn rmb_before_full_barrier_not_covered_by_wmb() {
        // smp_rmb adjacent to smp_wmb: the wmb does NOT order reads, so
        // the rmb is not redundant.
        let src = r#"
struct s { int a; int b; };
void f(struct s *p) {
    int x = p->a;
    smp_rmb();
    smp_wmb();
    p->b = x;
}
"#;
        let devs = run(src);
        assert!(
            devs.iter().all(|d| {
                !matches!(&d.kind, DeviationKind::UnneededBarrier { provided_by } if provided_by == "smp_wmb")
            }),
            "{devs:?}"
        );
    }

    #[test]
    fn spin_lock_does_not_make_barrier_unneeded() {
        // Lock acquire is not a full barrier.
        let src = r#"
struct s { int a; int b; };
void f(struct s *p) {
    p->a = 1;
    smp_wmb();
    spin_lock(&lock);
    p->b = 2;
    spin_unlock(&lock);
}
"#;
        let devs = run(src);
        assert!(
            devs.iter()
                .all(|d| !matches!(d.kind, DeviationKind::UnneededBarrier { .. })),
            "{devs:?}"
        );
    }
}
