//! Missing-barrier detection — a dataflow extension beyond the paper's
//! deviation list.
//!
//! Algorithm 1 leaves a write barrier unpaired when no read barrier shares
//! its objects. Usually that means no concurrent reader exists — but
//! sometimes the reader exists and simply *lacks its fence*. This pass
//! hunts for such readers: barrier-free functions that load the objects an
//! unpaired write barrier publishes, in the ordering-sensitive
//! guard-then-payload shape, and reports the absent read fence with a
//! machine-verifiable insertion patch (applying it makes the writer pair
//! on re-analysis, which removes the diagnostic).
//!
//! The *outlier rule* keeps the false-positive rate in check: a fence-less
//! reader is only reported when the guard load conditionally dominates the
//! dependent loads (the shape a fence protects) and the reader is the
//! anomaly among its siblings — either every other reader of the same
//! objects kept its fence, or it is the only reader of the protocol at
//! all. Disabling the rule ([`crate::AnalysisConfig::outlier_rule`])
//! reports every object overlap, which the ablation benchmark shows is
//! noisy.

use crate::config::AnalysisConfig;
use crate::deviation::{Deviation, DeviationKind};
use crate::extract::accesses_in_node;
use crate::ir::*;
use crate::pairing::PairingResult;
use crate::sites::FileAnalysis;
use crate::summary::ComposedIndex;
use cfgir::{dominators, Cfg, LoweredFile, NodeId, NodeKind};
use ckit::span::Span;

/// One load in a candidate reader function.
struct Load {
    object: SharedObject,
    node: NodeId,
    span: Span,
    line: u32,
}

/// A barrier-free function, summarized for the detector.
struct Reader {
    file: usize,
    file_name: String,
    name: String,
    reads: Vec<Load>,
    /// Objects the function stores to (a true reader has none of the
    /// protocol's).
    writes: Vec<SharedObject>,
    /// Nodes that are branch conditions.
    cond_nodes: Vec<NodeId>,
    dom: cfgir::DomTree,
}

/// The evidence a candidate produced: which guard/payload loads matched.
struct Candidate<'a> {
    reader: &'a Reader,
    guard: &'a Load,
    payload: &'a Load,
    /// Guard load sits in a condition that dominates the payload load and
    /// the reader never stores the protocol objects.
    strict: bool,
}

/// Detect missing read-side fences for every unpaired-without-match write
/// barrier, under a `missing` phase span with decision counters. Called by
/// the engine when [`AnalysisConfig::detect_missing`] is set. When a
/// [`ComposedIndex`] is supplied (`ipa_depth > 0`), readers whose fence
/// lives in a transitively reachable callee are exonerated — corpus-wide
/// evidence the ±1 view cannot provide.
pub fn detect_traced(
    files: &[std::sync::Arc<FileAnalysis>],
    sites: &[BarrierSite],
    pairing: &PairingResult,
    config: &AnalysisConfig,
    index: Option<&ComposedIndex>,
    rec: &obs::Recorder,
) -> Vec<Deviation> {
    let _span = rec.span("missing");
    let out = detect_inner(files, sites, pairing, config, index, rec);
    rec.count("missing_reports_emitted", out.len() as u64);
    out
}

fn detect_inner(
    files: &[std::sync::Arc<FileAnalysis>],
    sites: &[BarrierSite],
    pairing: &PairingResult,
    config: &AnalysisConfig,
    index: Option<&ComposedIndex>,
    rec: &obs::Recorder,
) -> Vec<Deviation> {
    let writers: Vec<&BarrierSite> = pairing
        .unpaired
        .iter()
        .filter(|(_, r)| *r == UnpairedReason::NoMatch)
        .filter_map(|(id, _)| sites.iter().find(|s| s.id == *id))
        .filter(|s| s.is_write_barrier() && s.seqcount.is_none() && s.wakeup_after.is_none())
        .collect();
    rec.count("missing_writers_examined", writers.len() as u64);
    if writers.is_empty() {
        return Vec::new();
    }

    let mut readers = collect_readers(files, config);
    if let Some(index) = index {
        // Inter-procedural exoneration: a candidate whose fence lives in
        // a callee within `ipa_depth` call edges is not fence-less.
        let before = readers.len();
        readers.retain(|r| !index.fence_within(r.file, &r.name, config.ipa_depth));
        rec.count(
            "missing_readers_exonerated",
            (before - readers.len()) as u64,
        );
    }
    rec.count("missing_readers_summarized", readers.len() as u64);
    let mut out = Vec::new();
    for writer in writers {
        detect_for_writer(writer, &readers, sites, config, &mut out);
    }
    out
}

/// Re-lower every file and summarize its barrier-free functions. The
/// engine's [`FileAnalysis`] keeps only barrier-window accesses, so the
/// whole-function view needed here is rebuilt from source (the pass is
/// opt-in, and parsing dominates neither the paper's nor our runtime).
fn collect_readers(files: &[std::sync::Arc<FileAnalysis>], config: &AnalysisConfig) -> Vec<Reader> {
    let mut readers = Vec::new();
    for fa in files {
        let Ok(parsed) = ckit::parse_string(&fa.name, &fa.source) else {
            continue;
        };
        let lowered = LoweredFile::lower(&parsed);
        for (fi, cfg) in lowered.cfgs.iter().enumerate() {
            if function_has_fence(cfg) {
                continue;
            }
            let env = lowered.env(fi);
            let mut reads = Vec::new();
            let mut writes = Vec::new();
            let mut cond_nodes = Vec::new();
            for node in cfg.ids() {
                if matches!(cfg.node(node).kind, NodeKind::Cond(_)) {
                    cond_nodes.push(node);
                }
                for raw in accesses_in_node(&cfg.node(node).kind, &env) {
                    if config.is_generic_type(&raw.object.strukt) {
                        continue;
                    }
                    match raw.kind {
                        AccessKind::Read => reads.push(Load {
                            object: raw.object,
                            node,
                            span: raw.span,
                            line: parsed.map.lookup(raw.span.lo).line,
                        }),
                        AccessKind::Write => writes.push(raw.object),
                    }
                }
            }
            if reads.is_empty() {
                continue;
            }
            readers.push(Reader {
                file: fa.file,
                file_name: fa.name.clone(),
                name: lowered.functions[fi].sig.name.to_string(),
                reads,
                writes,
                cond_nodes,
                dom: dominators(cfg),
            });
        }
    }
    readers
}

/// Does the function contain any call with fence semantics (explicit
/// barrier, seqcount API, wake-up, or full-barrier atomic)? Such functions
/// are never "fence-less readers".
fn function_has_fence(cfg: &Cfg) -> bool {
    let mut found = false;
    for node in cfg.ids() {
        for expr in cfg.node(node).kind.exprs() {
            expr.walk(&mut |e| {
                if let Some(name) = e.call_name() {
                    if matches!(
                        kmodel::classify_call(name),
                        kmodel::CallSemantics::Barrier(_) | kmodel::CallSemantics::Seqcount(_)
                    ) || kmodel::has_full_barrier_semantics(name)
                    {
                        found = true;
                    }
                }
            });
        }
        if found {
            return true;
        }
    }
    false
}

fn detect_for_writer(
    writer: &BarrierSite,
    readers: &[Reader],
    sites: &[BarrierSite],
    config: &AnalysisConfig,
    out: &mut Vec<Deviation>,
) {
    // The protocol the write barrier implements: payload objects are
    // stored before it, the guard objects after (the publish store).
    let mut guards: Vec<&SharedObject> = Vec::new();
    let mut payloads: Vec<&SharedObject> = Vec::new();
    for a in &writer.accesses {
        if a.kind != AccessKind::Write {
            continue;
        }
        let bucket = match a.side {
            Side::After => &mut guards,
            Side::Before => &mut payloads,
        };
        if !bucket.contains(&&a.object) {
            bucket.push(&a.object);
        }
    }
    payloads.retain(|o| !guards.contains(o));
    if guards.is_empty() || payloads.is_empty() {
        return;
    }

    // Sibling readers that kept their fence: read barriers loading at
    // least one guard and one payload object.
    let fenced = sites
        .iter()
        .filter(|s| s.id != writer.id && s.is_read_barrier())
        .filter(|s| {
            let reads = |o: &SharedObject| {
                s.accesses
                    .iter()
                    .any(|a| a.kind == AccessKind::Read && &a.object == o)
            };
            guards.iter().any(|g| reads(g)) && payloads.iter().any(|p| reads(p))
        })
        .count();

    // Fence-less candidates.
    let mut candidates: Vec<Candidate<'_>> = Vec::new();
    for reader in readers {
        let guard_reads: Vec<&Load> = reader
            .reads
            .iter()
            .filter(|l| guards.contains(&&l.object))
            .collect();
        let payload_reads: Vec<&Load> = reader
            .reads
            .iter()
            .filter(|l| payloads.contains(&&l.object))
            .collect();
        if guard_reads.is_empty() || payload_reads.is_empty() {
            continue;
        }
        // Strict guard→payload shape: a guard load in a branch condition
        // that dominates a payload load — exactly where a fence belongs.
        let pure = !reader
            .writes
            .iter()
            .any(|w| guards.contains(&w) || payloads.contains(&w));
        let mut best: Option<(&Load, &Load)> = None;
        if pure {
            'search: for g in &guard_reads {
                if !reader.cond_nodes.contains(&g.node) {
                    continue;
                }
                for p in &payload_reads {
                    if p.node != g.node && reader.dom.dominates(g.node, p.node) {
                        best = Some((*g, *p));
                        break 'search;
                    }
                }
            }
        }
        let strict = best.is_some();
        let (guard, payload) = best.unwrap_or((guard_reads[0], payload_reads[0]));
        candidates.push(Candidate {
            reader,
            guard,
            payload,
            strict,
        });
    }

    let unfenced = candidates.len();
    for c in candidates {
        // Outlier rule: the fence — not the writer's barrier — must be
        // the anomaly. Either the unfenced reader is outvoted by fenced
        // siblings, or it is the protocol's only reader.
        let report = if config.outlier_rule {
            c.strict && (fenced > unfenced || unfenced == 1)
        } else {
            true
        };
        if !report {
            continue;
        }
        let fence = kmodel::idioms::suggested_fence_for_writer(writer.kind.name()).to_string();
        out.push(Deviation {
            kind: DeviationKind::MissingBarrier {
                writer_function: writer.site.function.clone(),
                fence: fence.clone(),
            },
            barrier: writer.id,
            site: SiteRef {
                file: c.reader.file,
                file_name: c.reader.file_name.clone(),
                function: c.reader.name.clone(),
                node: c.payload.node,
                span: c.guard.span,
                line: c.guard.line,
            },
            object: Some(c.guard.object.clone()),
            access_span: Some(c.payload.span),
            explanation: format!(
                "{}() reads {} then {} with no read fence, but {}() in {}() \
                 publishes them in order ({} then barrier then {}); insert \
                 {}() between the loads",
                c.reader.name,
                c.guard.object,
                c.payload.object,
                writer.kind.name(),
                writer.site.function,
                c.payload.object,
                c.guard.object,
                fence,
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, SourceFile};

    fn config_missing() -> AnalysisConfig {
        AnalysisConfig {
            detect_missing: true,
            ..AnalysisConfig::default()
        }
    }

    fn missing_of(devs: &[Deviation]) -> Vec<&Deviation> {
        devs.iter()
            .filter(|d| matches!(d.kind, DeviationKind::MissingBarrier { .. }))
            .collect()
    }

    const UNFENCED_READER: &str = r#"
struct box { int ready; int value; };
void publish(struct box *b, int v) {
    b->value = v;
    smp_wmb();
    b->ready = 1;
}
int consume(struct box *b) {
    if (!b->ready)
        return 0;
    return b->value;
}
"#;

    #[test]
    fn unfenced_guarded_reader_detected() {
        let files = vec![SourceFile::new("m.c", UNFENCED_READER)];
        let r = Engine::new(config_missing()).analyze(&files);
        let miss = missing_of(&r.deviations);
        assert_eq!(miss.len(), 1, "{:?}", r.deviations);
        let d = miss[0];
        assert_eq!(d.site.function, "consume");
        assert_eq!(d.object, Some(SharedObject::new("box", "ready")));
        match &d.kind {
            DeviationKind::MissingBarrier {
                writer_function,
                fence,
            } => {
                assert_eq!(writer_function, "publish");
                assert_eq!(fence, "smp_rmb");
            }
            _ => unreachable!(),
        }
    }

    /// At depth 0 the front end is count-first under `--missing` too: the
    /// fence-less reader's file holds no barrier, so it is only counted
    /// (no AST), and the detector still finds the reader by re-parsing
    /// the file's source.
    #[test]
    fn depth0_run_counts_the_site_free_reader_file_and_still_reports_it() {
        let (writer, reader) =
            UNFENCED_READER.split_at(UNFENCED_READER.find("int consume").unwrap());
        let files = vec![
            SourceFile::new("writer.c", writer),
            SourceFile::new(
                "reader.c",
                format!("struct box {{ int ready; int value; }};\n{reader}"),
            ),
            SourceFile::new("plain.c", "int helper(int x) { return x + 1; }\n"),
        ];
        let r = Engine::new(config_missing()).analyze(&files);
        assert_eq!(r.obs.count_of("ckit_files_counted"), 2);
        assert_eq!(r.obs.count_of("ckit_files_reparsed"), 1);
        let miss = missing_of(&r.deviations);
        assert_eq!(miss.len(), 1, "{:?}", r.deviations);
        assert_eq!(miss[0].site.file_name, "reader.c");
        assert_eq!(miss[0].site.function, "consume");
    }

    #[test]
    fn off_by_default() {
        let files = vec![SourceFile::new("m.c", UNFENCED_READER)];
        let r = Engine::new(AnalysisConfig::default()).analyze(&files);
        assert!(missing_of(&r.deviations).is_empty());
    }

    #[test]
    fn fenced_reader_not_flagged() {
        let src = r#"
struct box { int ready; int value; };
void publish(struct box *b, int v) {
    b->value = v;
    smp_wmb();
    b->ready = 1;
}
int consume(struct box *b) {
    if (!b->ready)
        return 0;
    smp_rmb();
    return b->value;
}
"#;
        let files = vec![SourceFile::new("m.c", src)];
        let r = Engine::new(config_missing()).analyze(&files);
        assert!(missing_of(&r.deviations).is_empty(), "{:?}", r.deviations);
    }

    #[test]
    fn release_store_writer_suggests_load_acquire() {
        let src = r#"
struct slot { struct item *cur; int epoch; };
void install(struct slot *s, struct item *it) {
    s->epoch = 1;
    smp_store_release(&s->cur, it);
}
int peek(struct slot *s) {
    if (!s->cur)
        return 0;
    return s->epoch;
}
"#;
        let files = vec![SourceFile::new("m.c", src)];
        let r = Engine::new(config_missing()).analyze(&files);
        let miss = missing_of(&r.deviations);
        assert_eq!(miss.len(), 1, "{:?}", r.deviations);
        match &miss[0].kind {
            DeviationKind::MissingBarrier { fence, .. } => {
                assert_eq!(fence, "smp_load_acquire")
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn unconditional_reads_need_ablation_mode() {
        // Reads with no guard→payload shape: the outlier rule keeps quiet,
        // the ablation mode reports.
        let src = r#"
struct st { int a; int b; };
void w(struct st *p) {
    p->a = 1;
    smp_wmb();
    p->b = 2;
}
int scan(struct st *p) {
    return p->a + p->b;
}
int scan2(struct st *p) {
    return p->b - p->a;
}
"#;
        let files = vec![SourceFile::new("m.c", src)];
        let strictr = Engine::new(config_missing()).analyze(&files);
        assert!(
            missing_of(&strictr.deviations).is_empty(),
            "{:?}",
            strictr.deviations
        );
        let loose = Engine::new(AnalysisConfig {
            outlier_rule: false,
            ..config_missing()
        })
        .analyze(&files);
        assert!(!missing_of(&loose.deviations).is_empty());
    }

    #[test]
    fn implicit_ipc_writer_skipped() {
        let src = r#"
struct d { int token; int state; };
void waker(struct d *p) {
    p->state = 2;
    smp_wmb();
    p->token = 1;
    wake_up_process(p);
}
int watcher(struct d *p) {
    if (!p->token)
        return 0;
    return p->state;
}
"#;
        let files = vec![SourceFile::new("m.c", src)];
        let r = Engine::new(config_missing()).analyze(&files);
        assert!(
            missing_of(&r.deviations).is_empty(),
            "the woken side needs no fence: {:?}",
            r.deviations
        );
    }
}
