//! Per-file analysis: find barrier sites and the accesses around them.
//!
//! Implements §4.1 (finding barriers) and the exploration rules of §4.2:
//! bounded statement windows (5 for write barriers, 50 for read barriers),
//! bounding at other barriers and at atomics with barrier semantics,
//! one-level callee and caller expansion, and wake-up call detection.

use crate::config::AnalysisConfig;
use crate::extract::{accesses_in_node, plain_calls_in_expr, RawAccess};
use crate::ir::*;
use crate::summary::{FnSummary, WindowCall};
use cfgir::{walk, Cfg, Dir, LoweredFile, NodeId, Step, TypeEnv};
use ckit::ast::{Expr, ExprKind};
use ckit::span::Span;
use ckit::ParsedFile;
use kmodel::{BarrierKind, CallSemantics, ImpliedAccess, SeqcountOp};
use std::collections::HashMap;

/// A function retained for downstream passes (checkers, patches).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct FunctionInfo {
    pub name: String,
    pub cfg: Cfg,
    pub span: Span,
    /// The AST, kept for statement-level patch synthesis.
    pub def: ckit::ast::FunctionDef,
}

/// Analysis result of one file.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct FileAnalysis {
    pub file: usize,
    pub name: String,
    pub source: std::sync::Arc<str>,
    pub sites: Vec<BarrierSite>,
    /// The file's functions with their CFG and AST — empty iff `sites`
    /// is: every consumer (re-read dataflow gate, patch and annotation
    /// synthesis) reaches a function only through a barrier site in the
    /// same file, and the missing-barrier detector re-lowers from source.
    pub functions: Vec<FunctionInfo>,
    /// How many functions the file defines; always set, whether or not
    /// `functions` holds them.
    pub function_count: usize,
    pub parse_error_count: usize,
    /// Composable per-function summaries (inter-procedural pass input),
    /// same order as the file's functions — extracted only when
    /// `ipa_depth > 0`, empty otherwise.
    pub summaries: Vec<FnSummary>,
    /// Plain calls observed in each site's exploration window, aligned
    /// with `sites` — consumed by the corpus-global summary composition.
    pub window_calls: Vec<Vec<WindowCall>>,
}

/// A barrier call found in a CFG node.
struct FoundBarrier {
    func: usize,
    node: NodeId,
    kind: BarrierKind,
    seqcount: Option<SeqcountOp>,
    /// Callee name when this is a promoted fully-ordered atomic
    /// (`pair_with_atomics` extension).
    from_atomic: Option<String>,
    call_span: Span,
    args: Vec<Expr>,
}

/// Extraction counters, accumulated locally per file and flushed to the
/// recorder in one batch (keeps the hot walk loops lock-free).
#[derive(Default)]
struct ExtractCounters {
    windows_swept: u64,
    accesses_collected: u64,
    callee_expansions: u64,
    promoted_atomics: u64,
}

/// How a node bounds (or doesn't) a barrier window.
enum NodeClass {
    /// Another explicit barrier / seqcount call: skip entirely.
    Barrier,
    /// Full-barrier atomic: collect its accesses, then stop.
    FullAtomic,
    /// Wake-up / IPC call: collect, record, stop.
    Wakeup(String),
    Plain,
}

/// Analyze one parsed file.
///
/// Barrier-first: at `ipa_depth` 0 only a barrier site's surroundings are
/// ever read, so a file whose AST names no site call is not lowered at
/// all and returns the same site-free analysis the full path would.
pub fn analyze_file(file: usize, parsed: &ParsedFile, config: &AnalysisConfig) -> FileAnalysis {
    extract_traced(file, parsed, config, &obs::Recorder::new()).0
}

/// Front end and extraction for one source file, as the engine runs
/// them. The parse is freed inside the file's `extract` span, so the
/// per-file spans account for the whole of a worker's time on the file.
///
/// At `ipa_depth` 0 only a barrier site's surroundings are ever read (the
/// missing-barrier detector re-parses from `source`), so the parse is
/// count-first: a counting parse builds no AST and notes whether any call
/// name passes [`site_call`] — exactly the calls [`may_hold_site`] tests,
/// and more.
/// Only a file with such a call is parsed again in full; every other file
/// gets the site-free analysis the full path would have returned.
pub fn analyze_source_traced(
    file: usize,
    src: &crate::SourceFile,
    config: &AnalysisConfig,
    rec: &obs::Recorder,
) -> FileAnalysis {
    let opens_site = |name: &str| site_call(name, config).is_some();
    let watch: Option<&dyn Fn(&str) -> bool> = (config.ipa_depth == 0).then_some(&opens_site);
    let frontend = ckit::FrontendConfig::default();
    match ckit::count_or_parse_traced(&src.name, &src.content, &frontend, rec, watch) {
        Ok(ckit::FrontEnd::Parsed(parsed)) => {
            let (fa, span) = extract_traced(file, &parsed, config, rec);
            drop(parsed);
            drop(span);
            fa
        }
        Ok(ckit::FrontEnd::Counted(counts)) => {
            let _span = rec.span_with("extract", &[("file", src.name.as_str())]);
            FileAnalysis::site_free(
                file,
                src.name.clone(),
                src.content.clone(),
                counts.function_count,
                counts.parse_error_count,
            )
        }
        Err(_) => {
            rec.count("engine_unparseable_files", 1);
            FileAnalysis::site_free(file, src.name.clone(), src.content.clone(), 0, 1)
        }
    }
}

/// [`analyze_file`] into the given recorder, handing back the file's
/// still-open `extract` span so a caller that owns the parse can free it
/// inside the span.
fn extract_traced<'r>(
    file: usize,
    parsed: &ParsedFile,
    config: &AnalysisConfig,
    rec: &'r obs::Recorder,
) -> (FileAnalysis, obs::SpanGuard<'r>) {
    // A skipped file's `extract` span starts before the pre-check, so the
    // check's time is counted. A lowered file keeps its usual `cfg` and
    // `extract` spans, and its pre-check falls just before them. Either
    // way each file has exactly one `extract` span.
    let start = std::time::Instant::now();
    if config.ipa_depth == 0 && !may_hold_site(&parsed.unit, config) {
        let span = rec.span_since("extract", &[("file", parsed.map.file.as_str())], start);
        let fa = FileAnalysis::site_free(
            file,
            parsed.map.file.clone(),
            parsed.source.clone(),
            parsed.unit.functions().count(),
            parsed.errors.len(),
        );
        return (fa, span);
    }
    lower_and_extract(file, parsed, config, rec)
}

impl FileAnalysis {
    /// The analysis of a file with no barrier site: only its counts.
    fn site_free(
        file: usize,
        name: String,
        source: std::sync::Arc<str>,
        function_count: usize,
        parse_error_count: usize,
    ) -> FileAnalysis {
        FileAnalysis {
            file,
            name,
            source,
            sites: Vec::new(),
            functions: Vec::new(),
            function_count,
            parse_error_count,
            summaries: Vec::new(),
            window_calls: Vec::new(),
        }
    }
}

/// The full per-file path: lower every function, then find the sites and
/// sweep their windows (and extract summaries at `ipa_depth` >= 1). The
/// `extract` span is handed back open; the lowered CFGs are freed in it.
fn lower_and_extract<'r>(
    file: usize,
    parsed: &ParsedFile,
    config: &AnalysisConfig,
    rec: &'r obs::Recorder,
) -> (FileAnalysis, obs::SpanGuard<'r>) {
    let lowered = LoweredFile::lower_traced(parsed, rec);
    let span = rec.span_with("extract", &[("file", parsed.map.file.as_str())]);
    let envs: Vec<TypeEnv<'_>> = (0..lowered.functions.len())
        .map(|i| lowered.env(i))
        .collect();

    // Find every barrier call in every function.
    let mut found: Vec<FoundBarrier> = Vec::new();
    for (fi, cfg) in lowered.cfgs.iter().enumerate() {
        for node in cfg.ids() {
            // §6.4 extension: fully-ordered atomic RMWs become pairable
            // sites unless the node already holds a real barrier, which
            // subsumes the atomic's ordering role.
            let mut atomics = Vec::new();
            let before = found.len();
            for expr in cfg.node(node).kind.exprs() {
                expr.walk(&mut |e| {
                    let ExprKind::Call { callee, args } = &e.kind else {
                        return;
                    };
                    let Some(name) = callee.as_ident() else {
                        return;
                    };
                    let fb = |kind, seqcount, from_atomic| FoundBarrier {
                        func: fi,
                        node,
                        kind,
                        seqcount,
                        from_atomic,
                        call_span: e.span,
                        args: args.clone(),
                    };
                    match site_call(name, config) {
                        Some(SiteCall::Barrier(kind, seqcount)) => {
                            found.push(fb(kind, seqcount, None))
                        }
                        Some(SiteCall::FullAtomic) => {
                            atomics.push(fb(BarrierKind::Mb, None, Some(name.to_string())))
                        }
                        None => {}
                    }
                });
            }
            if found.len() == before {
                found.append(&mut atomics);
            }
        }
    }

    // Per-function access summaries for callee expansion — only for
    // barrier-free functions (walking into a function that has its own
    // barrier would cross a bounding barrier).
    let has_barrier: Vec<bool> = (0..lowered.functions.len())
        .map(|fi| found.iter().any(|b| b.func == fi))
        .collect();
    let summaries: HashMap<String, Vec<RawAccess>> = lowered
        .functions
        .iter()
        .enumerate()
        .filter(|(fi, _)| !has_barrier[*fi])
        .map(|(fi, f)| {
            let mut acc = Vec::new();
            for node in lowered.cfgs[fi].ids() {
                acc.extend(accesses_in_node(
                    &lowered.cfgs[fi].node(node).kind,
                    &envs[fi],
                ));
            }
            acc.truncate(64); // helper functions are small; cap the blast radius
            (f.sig.name.to_string(), acc)
        })
        .collect();

    // Same-file call graph: callee name -> (caller fn, call node).
    let mut callers: HashMap<String, Vec<(usize, NodeId)>> = HashMap::new();
    for (fi, cfg) in lowered.cfgs.iter().enumerate() {
        for node in cfg.ids() {
            for expr in cfg.node(node).kind.exprs() {
                for (name, _) in plain_calls_in_expr(expr) {
                    if lowered.function_index(&name).is_some() {
                        callers.entry(name).or_default().push((fi, node));
                    }
                }
            }
        }
    }

    let mut sites = Vec::new();
    let mut window_calls: Vec<Vec<WindowCall>> = Vec::new();
    let mut ctr = ExtractCounters::default();
    for fb in &found {
        let mut calls = Vec::new();
        let site = build_site(
            fb, &lowered, &envs, &summaries, &callers, config, file, parsed, &mut ctr, &mut calls,
        );
        rec.observe("accesses_per_site", site.accesses.len() as u64);
        ctr.accesses_collected += site.accesses.len() as u64;
        if site.from_atomic.is_some() {
            ctr.promoted_atomics += 1;
        }
        sites.push(site);
        window_calls.push(calls);
    }

    // Inter-procedural summaries for every function — cached with the
    // file and composed corpus-globally by the engine. Only composition
    // reads them, so depth-0 runs neither extract nor cache them (the
    // config fingerprint covers the depth, so a depth-0 cache entry is
    // never served to a composing run).
    let fn_summaries = if config.ipa_depth > 0 {
        let fn_summaries = crate::summary::extract_summaries(&lowered, &envs);
        rec.count("ipa_summaries_extracted", fn_summaries.len() as u64);
        fn_summaries
    } else {
        Vec::new()
    };
    // Batched flush: one lock per counter per file, not per site.
    rec.count("extract_barriers_found", sites.len() as u64);
    rec.count("extract_windows_swept", ctr.windows_swept);
    rec.count("extract_accesses_collected", ctr.accesses_collected);
    rec.count("extract_callee_expansions", ctr.callee_expansions);
    rec.count("extract_promoted_atomics", ctr.promoted_atomics);

    // Files without barrier sites keep only their function count: on a
    // kernel-shaped corpus most files have no barriers, so this drops the
    // bulk of the retained AST/CFG memory and of the disk cache.
    let functions = if sites.is_empty() {
        Vec::new()
    } else {
        lowered
            .functions
            .iter()
            .zip(&lowered.cfgs)
            .map(|(f, cfg)| FunctionInfo {
                name: f.sig.name.to_string(),
                cfg: cfg.clone(),
                span: f.span,
                def: (*f).clone(),
            })
            .collect()
    };
    let fa = FileAnalysis {
        file,
        name: parsed.map.file.clone(),
        source: parsed.source.clone(),
        sites,
        functions,
        function_count: lowered.functions.len(),
        parse_error_count: parsed.errors.len(),
        summaries: fn_summaries,
        window_calls,
    };
    drop(envs);
    drop(lowered);
    (fa, span)
}

/// How a call opens a barrier site.
enum SiteCall {
    /// An explicit barrier or seqcount primitive.
    Barrier(BarrierKind, Option<SeqcountOp>),
    /// A fully-ordered atomic RMW that reads or writes, promoted to a
    /// site under `pair_with_atomics` (§6.4 extension).
    FullAtomic,
}

/// The site a call to `name` opens under `config`, if any. The one
/// predicate behind both barrier discovery and [`may_hold_site`].
fn site_call(name: &str, config: &AnalysisConfig) -> Option<SiteCall> {
    match kmodel::classify_call(name) {
        CallSemantics::Barrier(kind) => Some(SiteCall::Barrier(kind, None)),
        CallSemantics::Seqcount(op) => Some(SiteCall::Barrier(op.barrier(), Some(op))),
        CallSemantics::Atomic(sem)
            if config.pair_with_atomics
                && sem.strength == kmodel::BarrierStrength::Full
                && (sem.reads || sem.writes) =>
        {
            Some(SiteCall::FullAtomic)
        }
        _ => None,
    }
}

/// Can any function of this file hold a barrier site? `Cfg::build` only
/// clones expressions out of the function bodies and `walk_exprs` visits
/// every one of them, so "no site call in the AST" implies "no site in
/// the CFGs".
fn may_hold_site(unit: &ckit::ast::TranslationUnit, config: &AnalysisConfig) -> bool {
    let mut hit = false;
    for stmt in unit.functions().flat_map(|f| &f.body) {
        stmt.walk_exprs(&mut |e| {
            if !hit {
                hit = e
                    .call_name()
                    .is_some_and(|n| site_call(n, config).is_some());
            }
        });
        if hit {
            return true;
        }
    }
    false
}

/// Classify how a node bounds a window.
fn classify_node(cfg: &Cfg, node: NodeId) -> NodeClass {
    let mut class = NodeClass::Plain;
    for expr in cfg.node(node).kind.exprs() {
        expr.walk(&mut |e| {
            if let Some(name) = e.call_name() {
                match kmodel::classify_call(name) {
                    CallSemantics::Barrier(_) | CallSemantics::Seqcount(_) => {
                        class = NodeClass::Barrier;
                    }
                    CallSemantics::WakeUp if !matches!(class, NodeClass::Barrier) => {
                        class = NodeClass::Wakeup(name.to_string());
                    }
                    CallSemantics::Atomic(sem) if sem.strength == kmodel::BarrierStrength::Full => {
                        if matches!(class, NodeClass::Plain) {
                            class = NodeClass::FullAtomic;
                        }
                    }
                    _ => {}
                }
            }
        });
    }
    class
}

#[allow(clippy::too_many_arguments)]
fn build_site(
    fb: &FoundBarrier,
    lowered: &LoweredFile<'_>,
    envs: &[TypeEnv<'_>],
    summaries: &HashMap<String, Vec<RawAccess>>,
    callers: &HashMap<String, Vec<(usize, NodeId)>>,
    config: &AnalysisConfig,
    file: usize,
    parsed: &ParsedFile,
    ctr: &mut ExtractCounters,
    window_calls: &mut Vec<WindowCall>,
) -> BarrierSite {
    let cfg = &lowered.cfgs[fb.func];
    let env = &envs[fb.func];
    let fname = &lowered.functions[fb.func].sig.name;

    // Window size by barrier role (the paper keys this off write vs read
    // barriers; full barriers get the wider read window).
    let write_only = fb.kind.is_write_side() && !fb.kind.is_read_side();
    let window = config.window_for(write_only);

    let mut accesses: Vec<Access> = Vec::new();
    let mut wakeup_after: Option<u32> = None;
    let mut adjacent: Option<AdjacentBarrier> = None;

    // The barrier primitive's own access (store_release & co, seqcount
    // counter accesses).
    push_implied_accesses(fb, env, &mut accesses, config);
    // For seqcount calls, the implied access *is* the counter.
    let counter = if fb.seqcount.is_some() {
        accesses.first().map(|a| a.object.clone())
    } else {
        None
    };

    // Accesses in the barrier's own statement that are not part of the
    // barrier call (e.g. `v = read_seqcount_begin(s)` — v is usually a
    // local, but be thorough).
    for raw in accesses_in_node(&cfg.node(fb.node).kind, env) {
        if !fb.call_span.contains(raw.span) {
            push_access(&mut accesses, raw, Side::Before, 1, false, config);
        }
    }

    // Walk both directions.
    for (dir, side) in [(Dir::Bwd, Side::Before), (Dir::Fwd, Side::After)] {
        ctr.windows_swept += 1;
        walk(
            cfg,
            fb.node,
            dir,
            window,
            |node, dist| match classify_node(cfg, node) {
                NodeClass::Barrier => Step::Prune,
                NodeClass::FullAtomic => {
                    collect_node(
                        cfg,
                        node,
                        env,
                        side,
                        dist,
                        summaries,
                        config,
                        &mut accesses,
                        ctr,
                        window_calls,
                    );
                    if dist == 1 {
                        if let Some(name) = first_call_name(cfg, node, is_full_atomic) {
                            adjacent.get_or_insert(AdjacentBarrier {
                                side,
                                callee: name,
                                span: cfg.node(node).span,
                            });
                        }
                    }
                    Step::Stop
                }
                NodeClass::Wakeup(name) => {
                    if side == Side::After {
                        wakeup_after = Some(wakeup_after.map_or(dist, |d| d.min(dist)));
                    }
                    collect_node(
                        cfg,
                        node,
                        env,
                        side,
                        dist,
                        summaries,
                        config,
                        &mut accesses,
                        ctr,
                        window_calls,
                    );
                    if dist == 1 {
                        adjacent.get_or_insert(AdjacentBarrier {
                            side,
                            callee: name,
                            span: cfg.node(node).span,
                        });
                    }
                    Step::Stop
                }
                NodeClass::Plain => {
                    collect_node(
                        cfg,
                        node,
                        env,
                        side,
                        dist,
                        summaries,
                        config,
                        &mut accesses,
                        ctr,
                        window_calls,
                    );
                    Step::Continue
                }
            },
        );
    }

    // Adjacent explicit barrier (distance 1) — the walk prunes barrier
    // nodes before visiting, so check direct neighbours explicitly.
    if adjacent.is_none() {
        for (neighbors, side) in [
            (&cfg.node(fb.node).preds, Side::Before),
            (&cfg.node(fb.node).succs, Side::After),
        ] {
            for &n in neighbors.iter() {
                if matches!(classify_node(cfg, n), NodeClass::Barrier) {
                    if let Some(name) = first_call_name(cfg, n, is_barrier) {
                        adjacent = Some(AdjacentBarrier {
                            side,
                            callee: name,
                            span: cfg.node(n).span,
                        });
                    }
                }
            }
        }
    }

    // Caller expansion: accesses around same-file call sites of this
    // function (§4.2: a barrier may order accesses of immediate callers).
    if config.caller_expansion {
        if let Some(call_sites) = callers.get(fname.as_str()) {
            for &(caller_fi, call_node) in call_sites {
                let ccfg = &lowered.cfgs[caller_fi];
                let cenv = &envs[caller_fi];
                for (dir, side) in [(Dir::Bwd, Side::Before), (Dir::Fwd, Side::After)] {
                    ctr.windows_swept += 1;
                    walk(
                        ccfg,
                        call_node,
                        dir,
                        window.saturating_sub(1),
                        |node, dist| match classify_node(ccfg, node) {
                            NodeClass::Barrier => Step::Prune,
                            NodeClass::FullAtomic | NodeClass::Wakeup(_) => Step::Stop,
                            NodeClass::Plain => {
                                for raw in accesses_in_node(&ccfg.node(node).kind, cenv) {
                                    push_access(&mut accesses, raw, side, dist + 1, true, config);
                                }
                                Step::Continue
                            }
                        },
                    );
                }
            }
        }
    }

    let line = parsed.map.lookup(fb.call_span.lo).line;
    BarrierSite {
        id: BarrierId(0), // assigned globally by the engine
        kind: fb.kind,
        seqcount: fb.seqcount,
        from_atomic: fb.from_atomic.clone(),
        site: SiteRef {
            file,
            file_name: parsed.map.file.clone(),
            function: fname.to_string(),
            node: fb.node,
            span: fb.call_span,
            line,
        },
        accesses,
        counter,
        wakeup_after,
        adjacent_full_barrier: adjacent,
    }
}

/// Name of the first call in a node whose semantics `accept` matches,
/// for adjacency reporting.
fn first_call_name(
    cfg: &Cfg,
    node: NodeId,
    accept: impl Fn(CallSemantics) -> bool,
) -> Option<String> {
    let mut name = None;
    for expr in cfg.node(node).kind.exprs() {
        expr.walk(&mut |e| {
            if name.is_none() {
                if let Some(n) = e.call_name() {
                    if accept(kmodel::classify_call(n)) {
                        name = Some(n.to_string());
                    }
                }
            }
        });
    }
    name
}

fn is_full_atomic(sem: CallSemantics) -> bool {
    matches!(sem, CallSemantics::Atomic(a) if a.strength == kmodel::BarrierStrength::Full)
}

fn is_barrier(sem: CallSemantics) -> bool {
    matches!(sem, CallSemantics::Barrier(_) | CallSemantics::Seqcount(_))
}

/// The barrier primitive's own memory accesses (§4.1: store/load variants
/// and seqcount counter bumps).
fn push_implied_accesses(
    fb: &FoundBarrier,
    env: &TypeEnv<'_>,
    accesses: &mut Vec<Access>,
    config: &AnalysisConfig,
) {
    if let Some(name) = &fb.from_atomic {
        // A fully-ordered RMW acts as a barrier *at* the access: its
        // target is orderable against both sides.
        let call = Expr {
            kind: ExprKind::Call {
                callee: Box::new(Expr {
                    kind: ExprKind::Ident(name.as_str().into()),
                    span: fb.call_span,
                }),
                args: fb.args.clone(),
            },
            span: fb.call_span,
        };
        for raw in crate::extract::accesses_in_expr(&call, env) {
            push_access(accesses, raw.clone(), Side::Before, 1, false, config);
            push_access(accesses, raw, Side::After, 1, false, config);
        }
        return;
    }
    if let Some(op) = fb.seqcount {
        // Counter access: read or read-modify-write of the seqcount.
        let side = if op.access_before_barrier() {
            Side::Before
        } else {
            Side::After
        };
        if let Some(target) = fb.args.first() {
            for raw in crate::extract::accesses_in_expr(&wrap_counter_access(target, op), env) {
                push_access(accesses, raw, side, 1, false, config);
            }
        }
        return;
    }
    match fb.kind.implied_access() {
        ImpliedAccess::None => {}
        ImpliedAccess::StoreBefore | ImpliedAccess::StoreAfter | ImpliedAccess::LoadBefore => {
            // extract.rs already interprets the primitive's args; but here
            // we must fix the SIDE relative to the fence, which extraction
            // cannot know.
            let side = match fb.kind.implied_access() {
                ImpliedAccess::StoreBefore | ImpliedAccess::LoadBefore => Side::Before,
                _ => Side::After,
            };
            let call = Expr {
                kind: ExprKind::Call {
                    callee: Box::new(Expr {
                        kind: ExprKind::Ident(fb.kind.name().into()),
                        span: fb.call_span,
                    }),
                    args: fb.args.clone(),
                },
                span: fb.call_span,
            };
            for raw in crate::extract::accesses_in_expr(&call, env) {
                push_access(accesses, raw, side, 1, false, config);
            }
        }
    }
}

/// Re-synthesize the seqcount call so extraction interprets the counter
/// access (read for readers, read-modify-write for writers).
fn wrap_counter_access(target: &Expr, op: SeqcountOp) -> Expr {
    let name = if op.writes_counter() {
        "write_seqcount_begin"
    } else {
        "read_seqcount_begin"
    };
    Expr {
        kind: ExprKind::Call {
            callee: Box::new(Expr {
                kind: ExprKind::Ident(name.into()),
                span: target.span,
            }),
            args: vec![target.clone()],
        },
        span: target.span,
    }
}

#[allow(clippy::too_many_arguments)]
fn collect_node(
    cfg: &Cfg,
    node: NodeId,
    env: &TypeEnv<'_>,
    side: Side,
    dist: u32,
    summaries: &HashMap<String, Vec<RawAccess>>,
    config: &AnalysisConfig,
    accesses: &mut Vec<Access>,
    ctr: &mut ExtractCounters,
    window_calls: &mut Vec<WindowCall>,
) {
    for raw in accesses_in_node(&cfg.node(node).kind, env) {
        push_access(accesses, raw, side, dist, false, config);
    }
    for expr in cfg.node(node).kind.exprs() {
        for (name, _) in plain_calls_in_expr(expr) {
            // Record every plain call for the corpus-global summary
            // composition pass (it resolves callees across files).
            window_calls.push(WindowCall {
                callee: name.clone(),
                side,
                distance: dist,
            });
            // Same-file ±1 callee expansion (§4.2).
            if config.callee_expansion {
                if let Some(summary) = summaries.get(&name) {
                    ctr.callee_expansions += 1;
                    for raw in summary {
                        push_access(accesses, raw.clone(), side, dist, true, config);
                    }
                }
            }
        }
    }
}

fn push_access(
    accesses: &mut Vec<Access>,
    raw: RawAccess,
    side: Side,
    distance: u32,
    cross_function: bool,
    config: &AnalysisConfig,
) {
    if config.is_generic_type(&raw.object.strukt) {
        return;
    }
    accesses.push(Access {
        object: raw.object,
        kind: raw.kind,
        side,
        distance,
        span: raw.span,
        annotated: raw.annotated,
        cross_function,
        via_calls: Vec::new(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> FileAnalysis {
        let parsed = ckit::parse_string("t.c", src).unwrap();
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        analyze_file(0, &parsed, &AnalysisConfig::default())
    }

    const LISTING1: &str = r#"
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

    #[test]
    fn finds_both_barriers_in_listing1() {
        let fa = analyze(LISTING1);
        assert_eq!(fa.sites.len(), 2);
        assert_eq!(fa.sites[0].kind, BarrierKind::Rmb);
        assert_eq!(fa.sites[0].site.function, "reader");
        assert_eq!(fa.sites[1].kind, BarrierKind::Wmb);
        assert_eq!(fa.sites[1].site.function, "writer");
    }

    #[test]
    fn listing1_reader_accesses() {
        let fa = analyze(LISTING1);
        let reader = &fa.sites[0];
        let init = SharedObject::new("my_struct", "init");
        let y = SharedObject::new("my_struct", "y");
        let init_acc = reader.accesses.iter().find(|a| a.object == init).unwrap();
        assert_eq!(init_acc.side, Side::Before);
        assert_eq!(init_acc.kind, AccessKind::Read);
        let y_acc = reader.accesses.iter().find(|a| a.object == y).unwrap();
        assert_eq!(y_acc.side, Side::After);
        assert!(reader.orders(&init, &y));
    }

    #[test]
    fn listing1_writer_accesses() {
        let fa = analyze(LISTING1);
        let writer = &fa.sites[1];
        let init = SharedObject::new("my_struct", "init");
        let y = SharedObject::new("my_struct", "y");
        let y_acc = writer.accesses.iter().find(|a| a.object == y).unwrap();
        assert_eq!((y_acc.side, y_acc.kind), (Side::Before, AccessKind::Write));
        let init_acc = writer.accesses.iter().find(|a| a.object == init).unwrap();
        assert_eq!(
            (init_acc.side, init_acc.kind),
            (Side::After, AccessKind::Write)
        );
    }

    #[test]
    fn distances_count_statements() {
        let src = r#"
struct s { int a; int b; int c; };
void w(struct s *p) {
    p->a = 1;
    p->b = 2;
    smp_wmb();
    p->c = 3;
}
"#;
        let fa = analyze(src);
        let site = &fa.sites[0];
        assert_eq!(site.distance_of(&SharedObject::new("s", "b")), Some(1));
        assert_eq!(site.distance_of(&SharedObject::new("s", "a")), Some(2));
        assert_eq!(site.distance_of(&SharedObject::new("s", "c")), Some(1));
    }

    #[test]
    fn write_window_bounds_exploration() {
        // 7 statements before the barrier; only the closest 5 are seen.
        let src = r#"
struct s { int f0; int f1; int f2; int f3; int f4; int f5; int f6; int done; };
void w(struct s *p) {
    p->f0 = 1;
    p->f1 = 1;
    p->f2 = 1;
    p->f3 = 1;
    p->f4 = 1;
    p->f5 = 1;
    p->f6 = 1;
    smp_wmb();
    p->done = 1;
}
"#;
        let fa = analyze(src);
        let site = &fa.sites[0];
        assert!(site.distance_of(&SharedObject::new("s", "f2")).is_some());
        assert!(site.distance_of(&SharedObject::new("s", "f1")).is_none());
        assert!(site.distance_of(&SharedObject::new("s", "f0")).is_none());
    }

    #[test]
    fn read_window_is_wide() {
        let mut body = String::new();
        for i in 0..30 {
            body.push_str(&format!("    consume({i});\n"));
        }
        let src = format!(
            "struct s {{ int flag; int data; }};\nvoid r(struct s *p) {{\n    if (!p->flag) return;\n    smp_rmb();\n{body}    use_it(p->data);\n}}"
        );
        let fa = analyze(&src);
        let site = &fa.sites[0];
        // data is ~31 statements after the rmb — inside the 50 window.
        assert!(site.distance_of(&SharedObject::new("s", "data")).is_some());
    }

    #[test]
    fn window_stops_at_other_barrier() {
        let src = r#"
struct s { int a; int b; int c; };
void w(struct s *p) {
    p->a = 1;
    smp_wmb();
    p->b = 2;
    smp_wmb();
    p->c = 3;
}
"#;
        let fa = analyze(src);
        let first = &fa.sites[0];
        // First barrier sees a and b but NOT c (blocked by second barrier).
        assert!(first.distance_of(&SharedObject::new("s", "a")).is_some());
        assert!(first.distance_of(&SharedObject::new("s", "b")).is_some());
        assert!(first.distance_of(&SharedObject::new("s", "c")).is_none());
    }

    #[test]
    fn window_stops_at_full_atomic() {
        let src = r#"
struct s { atomic_t refs; int a; int b; };
void w(struct s *p) {
    smp_wmb();
    p->a = 1;
    atomic_inc_and_test(&p->refs);
    p->b = 2;
}
"#;
        let fa = analyze(src);
        let site = &fa.sites[0];
        assert!(site.distance_of(&SharedObject::new("s", "a")).is_some());
        // The full atomic's own access is seen...
        assert!(site.distance_of(&SharedObject::new("s", "refs")).is_some());
        // ...but nothing beyond it.
        assert!(site.distance_of(&SharedObject::new("s", "b")).is_none());
    }

    #[test]
    fn relaxed_atomic_does_not_stop() {
        let src = r#"
struct s { atomic_t refs; int a; int b; };
void w(struct s *p) {
    smp_wmb();
    p->a = 1;
    atomic_inc(&p->refs);
    p->b = 2;
}
"#;
        let fa = analyze(src);
        let site = &fa.sites[0];
        assert!(site.distance_of(&SharedObject::new("s", "b")).is_some());
    }

    #[test]
    fn wakeup_detected_after_write_barrier() {
        let src = r#"
struct d { int got_token; struct task *task; };
void f(struct d *data) {
    data->got_token = 1;
    smp_wmb();
    wake_up_process(data->task);
}
"#;
        let fa = analyze(src);
        let site = &fa.sites[0];
        assert_eq!(site.wakeup_after, Some(1));
        let adj = site.adjacent_full_barrier.as_ref().unwrap();
        assert_eq!(adj.callee, "wake_up_process");
        assert_eq!(adj.side, Side::After);
    }

    #[test]
    fn adjacent_double_barrier_detected() {
        let src = r#"
struct s { int a; int b; };
void f(struct s *p) {
    p->a = 1;
    smp_wmb();
    smp_mb();
    p->b = 2;
}
"#;
        let fa = analyze(src);
        let first = &fa.sites[0];
        let adj = first.adjacent_full_barrier.as_ref().unwrap();
        assert_eq!(adj.callee, "smp_mb");
    }

    #[test]
    fn store_release_implied_write_after() {
        let src = r#"
struct s { int data; int flag; };
void w(struct s *p) {
    p->data = 42;
    smp_store_release(&p->flag, 1);
}
"#;
        let fa = analyze(src);
        let site = &fa.sites[0];
        assert_eq!(site.kind, BarrierKind::StoreRelease);
        let flag = site
            .accesses
            .iter()
            .find(|a| a.object == SharedObject::new("s", "flag"))
            .unwrap();
        assert_eq!((flag.side, flag.kind), (Side::After, AccessKind::Write));
        assert_eq!(flag.distance, 1);
        let data = site
            .accesses
            .iter()
            .find(|a| a.object == SharedObject::new("s", "data"))
            .unwrap();
        assert_eq!((data.side, data.kind), (Side::Before, AccessKind::Write));
    }

    #[test]
    fn load_acquire_implied_read_before() {
        let src = r#"
struct s { int data; int flag; };
int r(struct s *p) {
    if (!smp_load_acquire(&p->flag))
        return 0;
    return p->data;
}
"#;
        let fa = analyze(src);
        let site = &fa.sites[0];
        assert_eq!(site.kind, BarrierKind::LoadAcquire);
        let flag = site
            .accesses
            .iter()
            .find(|a| a.object == SharedObject::new("s", "flag"))
            .unwrap();
        assert_eq!((flag.side, flag.kind), (Side::Before, AccessKind::Read));
        let data = site
            .accesses
            .iter()
            .find(|a| a.object == SharedObject::new("s", "data"))
            .unwrap();
        assert_eq!(data.side, Side::After);
    }

    #[test]
    fn seqcount_counter_sides() {
        let src = r#"
static seqcount_t seq;
struct d { int v; };
void w(struct d *p) {
    write_seqcount_begin(&seq);
    p->v = 1;
    write_seqcount_end(&seq);
}
"#;
        let fa = analyze(src);
        assert_eq!(fa.sites.len(), 2);
        let begin = &fa.sites[0];
        assert_eq!(begin.seqcount, Some(SeqcountOp::WriteBegin));
        let ctr = begin
            .accesses
            .iter()
            .find(|a| a.object == SharedObject::global("seq"))
            .unwrap();
        assert_eq!(ctr.side, Side::Before);
        let end = &fa.sites[1];
        assert_eq!(end.seqcount, Some(SeqcountOp::WriteEnd));
        let ctr = end
            .accesses
            .iter()
            .filter(|a| a.object == SharedObject::global("seq"))
            .find(|a| a.side == Side::After)
            .unwrap();
        assert_eq!(ctr.distance, 1);
    }

    #[test]
    fn callee_expansion_pulls_helper_accesses() {
        let src = r#"
struct s { int data; int flag; };
static void fill(struct s *p) {
    p->data = 7;
}
void w(struct s *p) {
    fill(p);
    smp_wmb();
    p->flag = 1;
}
"#;
        let fa = analyze(src);
        let site = fa.sites.iter().find(|s| s.site.function == "w").unwrap();
        let data = site
            .accesses
            .iter()
            .find(|a| a.object == SharedObject::new("s", "data"))
            .expect("callee access merged");
        assert!(data.cross_function);
        assert_eq!(data.side, Side::Before);
    }

    #[test]
    fn callee_expansion_disabled_by_config() {
        let src = r#"
struct s { int data; int flag; };
static void fill(struct s *p) { p->data = 7; }
void w(struct s *p) {
    fill(p);
    smp_wmb();
    p->flag = 1;
}
"#;
        let parsed = ckit::parse_string("t.c", src).unwrap();
        let config = AnalysisConfig {
            callee_expansion: false,
            ..Default::default()
        };
        let fa = analyze_file(0, &parsed, &config);
        let site = fa.sites.iter().find(|s| s.site.function == "w").unwrap();
        assert!(site
            .accesses
            .iter()
            .all(|a| a.object != SharedObject::new("s", "data")));
    }

    #[test]
    fn caller_expansion_sees_surrounding_accesses() {
        let src = r#"
struct s { int data; int flag; };
static void publish(struct s *p) {
    smp_wmb();
    p->flag = 1;
}
void outer(struct s *p) {
    p->data = 9;
    publish(p);
}
"#;
        let fa = analyze(src);
        let site = &fa.sites[0];
        let data = site
            .accesses
            .iter()
            .find(|a| a.object == SharedObject::new("s", "data"))
            .expect("caller access merged");
        assert!(data.cross_function);
        assert_eq!(data.side, Side::Before);
    }

    #[test]
    fn barrier_line_numbers() {
        let fa = analyze(LISTING1);
        assert_eq!(fa.sites[0].site.line, 6); // smp_rmb() line in LISTING1
        assert_eq!(fa.sites[1].site.line, 11);
    }

    #[test]
    fn rcu_publish_subscribe_modeled_as_release_acquire() {
        let src = r#"
struct item { int a; };
struct gate { struct item *cur; };
void install(struct gate *g, struct item *it, int v) {
    it->a = v;
    rcu_assign_pointer(g->cur, it);
}
int lookup(struct gate *g) {
    struct item *it;
    rcu_read_lock();
    it = rcu_dereference(g->cur);
    if (!it)
        return 0;
    return it->a;
}
"#;
        let fa = analyze(src);
        assert_eq!(fa.sites.len(), 2);
        let wr = &fa.sites[0];
        assert_eq!(wr.kind, BarrierKind::StoreRelease);
        let cur = wr
            .accesses
            .iter()
            .find(|a| a.object == SharedObject::new("gate", "cur"))
            .unwrap();
        assert_eq!((cur.side, cur.kind), (Side::After, AccessKind::Write));
        let a_field = wr
            .accesses
            .iter()
            .find(|a| a.object == SharedObject::new("item", "a"))
            .unwrap();
        assert_eq!(a_field.side, Side::Before);

        let rd = &fa.sites[1];
        assert_eq!(rd.kind, BarrierKind::LoadAcquire);
        let cur = rd
            .accesses
            .iter()
            .find(|a| a.object == SharedObject::new("gate", "cur"))
            .unwrap();
        assert_eq!((cur.side, cur.kind), (Side::Before, AccessKind::Read));
        // The dereferenced item's field is typed through rcu_dereference.
        let a_field = rd
            .accesses
            .iter()
            .find(|a| a.object == SharedObject::new("item", "a"))
            .unwrap();
        assert_eq!(a_field.side, Side::After);
    }

    #[test]
    fn asm_counts_for_distance_but_carries_no_accesses() {
        // A compiler barrier (`asm volatile ::: "memory"`) is NOT a memory
        // barrier: it neither bounds the window nor adds accesses, but it
        // does count as a statement for distances.
        let src = r#"
struct s { int a; int b; };
void w(struct s *p) {
    p->a = 1;
    asm volatile("" : : : "memory");
    smp_wmb();
    p->b = 2;
}
"#;
        let fa = analyze(src);
        assert_eq!(fa.sites.len(), 1, "the asm is not a barrier site");
        let site = &fa.sites[0];
        // `a` is 2 statements away (the asm counts as one).
        assert_eq!(site.distance_of(&SharedObject::new("s", "a")), Some(2));
        assert_eq!(site.distance_of(&SharedObject::new("s", "b")), Some(1));
    }

    #[test]
    fn synchronize_rcu_bounds_window() {
        let src = r#"
struct s { int a; int b; };
void f(struct s *p) {
    smp_wmb();
    p->a = 1;
    synchronize_rcu();
    p->b = 2;
}
"#;
        let fa = analyze(src);
        let site = &fa.sites[0];
        assert!(site.distance_of(&SharedObject::new("s", "a")).is_some());
        assert!(site.distance_of(&SharedObject::new("s", "b")).is_none());
    }

    #[test]
    fn before_after_atomic_found() {
        let src = r#"
struct s { atomic_t c; int x; };
void f(struct s *p) {
    p->x = 1;
    smp_mb__before_atomic();
    atomic_inc(&p->c);
}
"#;
        let fa = analyze(src);
        assert_eq!(fa.sites.len(), 1);
        assert_eq!(fa.sites[0].kind, BarrierKind::BeforeAtomic);
        // The atomic's target is on the After side.
        let c = fa.sites[0]
            .accesses
            .iter()
            .find(|a| a.object == SharedObject::new("s", "c"))
            .unwrap();
        assert_eq!(c.side, Side::After);
    }

    #[test]
    fn summaries_only_when_composition_runs() {
        let parsed = ckit::parse_string("t.c", LISTING1).unwrap();
        let flat = analyze_file(0, &parsed, &AnalysisConfig::default());
        assert!(flat.summaries.is_empty());
        let deep = AnalysisConfig {
            ipa_depth: 1,
            ..Default::default()
        };
        let fa = analyze_file(0, &parsed, &deep);
        let names: Vec<&str> = fa.summaries.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["reader", "writer"]);
    }

    #[test]
    fn site_free_files_keep_only_a_function_count() {
        let fa = analyze("int f(int x) { return x; }\nint g(void) { return f(1); }\n");
        assert!(fa.sites.is_empty() && fa.functions.is_empty());
        assert_eq!(fa.function_count, 2);
        let fa = analyze(LISTING1);
        assert_eq!(fa.function_count, 2);
        assert_eq!(fa.functions.len(), 2);
    }

    /// A site's identity and accesses, without byte offsets.
    fn site_shape(site: &BarrierSite) -> (BarrierKind, String, u32, Vec<String>) {
        let accesses = site
            .accesses
            .iter()
            .map(|a| format!("{:?} {:?} {:?} {}", a.object, a.kind, a.side, a.distance))
            .collect();
        (
            site.kind,
            site.site.function.clone(),
            site.site.line,
            accesses,
        )
    }

    #[test]
    fn declaration_initialiser_barrier_is_a_site() {
        let assign = analyze(
            "struct m { int flag; int y; };\nint r(struct m *m) { int f;\n    f = smp_load_acquire(&m->flag);\n    return f ? m->y : 0;\n}\n",
        );
        let decl = analyze(
            "struct m { int flag; int y; };\nint r(struct m *m) {\n    int f = smp_load_acquire(&m->flag);\n    return f ? m->y : 0;\n}\n",
        );
        assert_eq!(assign.sites.len(), 1);
        assert_eq!(decl.sites.len(), 1);
        assert_eq!(site_shape(&decl.sites[0]), site_shape(&assign.sites[0]));
    }

    #[test]
    fn declaration_form_rcu_reader_pairs_with_writer() {
        let files = [
            crate::SourceFile::new(
                "w.c",
                "struct item { int a; };\nstruct gate { struct item *cur; };\nvoid install(struct gate *g, struct item *it, int v) {\n    it->a = v;\n    rcu_assign_pointer(g->cur, it);\n}\n",
            ),
            crate::SourceFile::new(
                "r.c",
                "struct item { int a; };\nstruct gate { struct item *cur; };\nint lookup(struct gate *g) {\n    struct item *it = rcu_dereference(g->cur);\n    if (!it)\n        return 0;\n    return it->a;\n}\n",
            ),
        ];
        let r = crate::Engine::new(AnalysisConfig::default()).analyze(&files);
        assert_eq!(r.sites.len(), 2);
        let reader = r
            .sites
            .iter()
            .find(|s| s.site.function == "lookup")
            .unwrap();
        assert_eq!(reader.kind, BarrierKind::LoadAcquire);
        let pairing = r.pairing.pairing_of(reader.id).expect("reader is paired");
        assert_eq!(pairing.members.len(), 2);
    }

    /// Every source the pre-check soundness test runs over: the paper
    /// fixtures, a generated corpus with bugs and cross-file call chains
    /// (whose intermediate files hold no barrier), and hand-written edge
    /// cases.
    fn precheck_sources() -> Vec<(String, String)> {
        use ofence_corpus::fixtures::*;
        let mut out: Vec<(String, String)> = [
            LISTING1,
            LISTING2,
            LISTING3,
            LISTING4_BNX2X,
            PATCH1_BUGGY,
            PATCH1_FIXED,
            PATCH3_BUGGY,
            PATCH4_BUGGY,
            PATCH5_UNANNOTATED,
            PERF_RB_MISSING_RMB,
            PERF_RB_FIXED,
        ]
        .iter()
        .enumerate()
        .map(|(i, src)| (format!("fixture{i}.c"), src.to_string()))
        .collect();
        let spec = ofence_corpus::CorpusSpec {
            seed: 7,
            files: 300,
            patterns_per_file: 1,
            noise_per_file: 2,
            decoy_pairs: 15,
            far_decoy_pairs: 0,
            lone_per_file: 1,
            split_fraction: 0.2,
            reread_decoys: 0,
            unfenced_decoys: 0,
            filler_files: 0,
            cross_file_chains: 8,
            chain_depth: 3,
            chain_bugs: 0,
            bugs: ofence_corpus::BugPlan {
                misplaced: 30,
                repeated_read: 15,
                wrong_type: 1,
                unneeded: 30,
                missing_barrier: 15,
            },
        };
        out.extend(
            ofence_corpus::generate(&spec)
                .files
                .into_iter()
                .map(|f| (f.name, f.content)),
        );
        out.push(("plain.c".into(), "int f(int x) { return x; }\n".into()));
        out.push((
            "paren_callee.c".into(),
            "struct m { int flag; };\nvoid w(struct m *m) { m->flag = 1; (smp_wmb)(); }\n".into(),
        ));
        out.push((
            "decl_only.c".into(),
            "struct m { int flag; };\nint r(struct m *m) { int f = smp_load_acquire(&m->flag); return f; }\n".into(),
        ));
        out.push((
            "atomic_only.c".into(),
            "struct s { atomic_t n; int x; };\nint f(struct s *p) { p->x = 1; return atomic_inc_return(&p->n); }\n".into(),
        ));
        out
    }

    /// Count-first against the full parse on one source, at both
    /// `pair_with_atomics` and both `detect_missing` settings: the counting
    /// parse reports the full parse's counts, flags the file whenever
    /// `may_hold_site` would lower it, and the engine's per-file result is
    /// byte-identical either way.
    fn assert_count_first_matches_full(name: &str, src: &str) {
        let Ok(toks) = ckit::lexer::lex(src) else {
            return;
        };
        let Ok(ppo) = ckit::pp::preprocess(toks, &Default::default()) else {
            return;
        };
        let parser = ckit::ParserConfig::default();
        let full = ckit::parser::parse_token_slice(&ppo.tokens, &parser);
        let parsed = ckit::parse_string(name, src).expect("lex and pp passed");
        for (pair_with_atomics, detect_missing) in
            [(false, false), (true, false), (false, true), (true, true)]
        {
            let config = AnalysisConfig {
                pair_with_atomics,
                detect_missing,
                ..Default::default()
            };
            let opens_site = |n: &str| site_call(n, &config).is_some();
            let counts = ckit::parser::count_tokens(&ppo.tokens, &parser, &opens_site);
            assert_eq!(
                (counts.function_count, counts.parse_error_count),
                (full.unit.functions().count(), full.errors.len()),
                "{name}: counting and full parse disagree"
            );
            if may_hold_site(&full.unit, &config) {
                assert!(
                    counts.watched_call,
                    "{name}: counting parse missed a site call"
                );
            }
            let source = crate::SourceFile::new(name, src);
            let fast = analyze_source_traced(0, &source, &config, &obs::Recorder::new());
            let slow = analyze_file(0, &parsed, &config);
            assert_eq!(
                serde_json::to_string(&fast).unwrap(),
                serde_json::to_string(&slow).unwrap(),
                "{name}"
            );
        }
    }

    #[test]
    fn count_first_matches_the_full_parse_on_fixtures_and_corpora() {
        for (name, src) in precheck_sources() {
            assert_count_first_matches_full(&name, &src);
        }
        // Bug-free corpora with barrier-free filler files, as the
        // throughput tiers are shaped.
        for seed in [1, 2] {
            let spec = ofence_corpus::CorpusSpec {
                filler_files: 30,
                noise_per_file: 2,
                ..ofence_corpus::CorpusSpec::small(seed)
            };
            for f in ofence_corpus::generate(&spec).files {
                assert_count_first_matches_full(&f.name, &f.content);
            }
        }
    }

    /// Source-ish token soup, biased towards barrier and atomic calls and
    /// towards the grammar's corners (casts, labels, typedefs, asm).
    fn arb_soup() -> impl proptest::prelude::Strategy<Value = String> {
        use proptest::prelude::*;
        let token = prop_oneof![
            Just("int"),
            Just("u32"),
            Just("struct"),
            Just("typedef"),
            Just("if"),
            Just("else"),
            Just("return"),
            Just("for"),
            Just("case"),
            Just("sizeof"),
            Just("asm"),
            Just("smp_wmb"),
            Just("smp_load_acquire"),
            Just("atomic_inc_return"),
            Just("atomic_read"),
            Just("f"),
            Just("x"),
            Just("("),
            Just(")"),
            Just("{"),
            Just("}"),
            Just("["),
            Just("]"),
            Just(";"),
            Just(","),
            Just(":"),
            Just("?"),
            Just("*"),
            Just("->"),
            Just("="),
            Just("&"),
            Just("1"),
            Just("\"s\""),
            Just("#define"),
            Just("#if"),
            Just("#endif"),
            Just("\n"),
        ];
        proptest::collection::vec(token, 0..80).prop_map(|v| v.join(" "))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn count_first_matches_the_full_parse_on_token_soup(src in arb_soup()) {
            assert_count_first_matches_full("soup.c", &src);
        }

        /// Generated files cut short: malformed, but mostly real code.
        #[test]
        fn count_first_matches_the_full_parse_on_truncated_files(
            seed in proptest::prelude::any::<u64>(),
            cut in 0.0f64..1.0,
        ) {
            let spec = ofence_corpus::CorpusSpec {
                files: 2,
                bugs: ofence_corpus::BugPlan::none(),
                ..ofence_corpus::CorpusSpec::small(seed)
            };
            for f in ofence_corpus::generate(&spec).files {
                let mut end = (f.content.len() as f64 * cut) as usize;
                while !f.content.is_char_boundary(end) {
                    end -= 1;
                }
                assert_count_first_matches_full(&f.name, &f.content[..end]);
            }
        }
    }

    #[test]
    fn precheck_never_skips_a_site() {
        let sources = precheck_sources();
        for config in [
            AnalysisConfig::default(),
            AnalysisConfig {
                pair_with_atomics: true,
                ..Default::default()
            },
        ] {
            let (mut skipped, mut lowered) = (0, 0);
            for (name, src) in &sources {
                let parsed = ckit::parse_string(name, src).unwrap();
                let full = lower_and_extract(0, &parsed, &config, &obs::Recorder::new()).0;
                if may_hold_site(&parsed.unit, &config) {
                    lowered += 1;
                    continue;
                }
                skipped += 1;
                assert!(full.sites.is_empty(), "{name}: pre-check skipped a site");
                // The skip path returns exactly what the full path does:
                // cache shards stay byte-identical.
                let fast = analyze_file(0, &parsed, &config);
                assert_eq!(fast.function_count, full.function_count, "{name}");
                assert_eq!(fast.parse_error_count, full.parse_error_count, "{name}");
                assert_eq!(
                    serde_json::to_string(&fast).unwrap(),
                    serde_json::to_string(&full).unwrap(),
                    "{name}"
                );
            }
            // Both paths are exercised.
            assert!(
                skipped > 0 && lowered > 0,
                "skipped {skipped}, lowered {lowered}"
            );
        }
    }

    #[test]
    fn only_files_that_can_hold_a_site_are_lowered() {
        let files = [
            crate::SourceFile::new("b.c", LISTING1),
            crate::SourceFile::new(
                "free.c",
                "int f(int x) { return x; }\nint g(void) { return f(1); }\nint h(void) { return g(); }\n",
            ),
        ];
        let run = |config: AnalysisConfig| crate::Engine::new(config).analyze(&files);
        let r = run(AnalysisConfig::default());
        assert_eq!(r.obs.count_of("cfgir_cfgs_built"), 2);
        assert_eq!(r.obs.count_of("ckit_functions"), 5);
        assert_eq!(r.stats.functions_total, 5);
        let r = run(AnalysisConfig {
            ipa_depth: 1,
            ..Default::default()
        });
        assert_eq!(r.obs.count_of("cfgir_cfgs_built"), 5);

        // A file whose only ordering is a full atomic is lowered only
        // when atomics are paired.
        let atomic = [crate::SourceFile::new(
            "a.c",
            "struct s { atomic_t n; int x; };\nint f(struct s *p) { p->x = 1; return atomic_inc_return(&p->n); }\n",
        )];
        let built = |pair_with_atomics: bool| {
            let config = AnalysisConfig {
                pair_with_atomics,
                ..Default::default()
            };
            crate::Engine::new(config)
                .analyze(&atomic)
                .obs
                .count_of("cfgir_cfgs_built")
        };
        assert_eq!(built(true), 1);
        assert_eq!(built(false), 0);
    }
}
