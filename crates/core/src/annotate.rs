//! §7 extension: add missing `READ_ONCE`/`WRITE_ONCE` annotations.
//!
//! For barriers that correctly order reads and writes to shared objects,
//! the accesses to those concurrently-accessed objects should be
//! annotated to prevent compiler load/store tearing and fusing. This pass
//! finds unannotated accesses in paired windows and produces patches that
//! add the annotation (paper Patch 5).

use crate::deviation::{Deviation, DeviationKind};
use crate::ir::*;
use crate::pairing::PairingResult;
use crate::patch::{apply_edits, line_diff, without_overlaps, Edit, Patch};
use crate::sites::FileAnalysis;
use ckit::ast::{AssignOp, ExprKind, Stmt, StmtKind};
use ckit::span::Span;
use kmodel::OnceKind;
use std::collections::HashMap;

/// Find unannotated concurrent accesses in paired barrier windows.
pub fn find_missing_annotations(sites: &[BarrierSite], pairing: &PairingResult) -> Vec<Deviation> {
    let mut out = Vec::new();
    let mut seen = SeenSpans::default();
    for p in &pairing.pairings {
        for &member in &p.members {
            let site = &sites[member.0 as usize];
            for a in &site.accesses {
                if a.annotated || a.cross_function {
                    continue;
                }
                if !p.objects.contains(&a.object) {
                    continue;
                }
                // The barrier primitive's own access (store_release etc.)
                // is already tear-proof.
                if site.site.span.contains(a.span) {
                    continue;
                }
                // Seqcount counters are handled by the seqcount API.
                if site.counter.as_ref() == Some(&a.object) {
                    continue;
                }
                // Nested member chains (`l->fa->fb`) yield accesses with
                // overlapping spans; annotating both would produce
                // conflicting edits. Keep the first (outermost reported).
                if !seen.admit(site.site.file, a.span) {
                    continue;
                }
                let once = match a.kind {
                    AccessKind::Read => OnceKind::Read,
                    AccessKind::Write => OnceKind::Write,
                };
                out.push(Deviation {
                    kind: DeviationKind::MissingOnce { once },
                    barrier: site.id,
                    site: site.site.clone(),
                    object: Some(a.object.clone()),
                    access_span: Some(a.span),
                    explanation: format!(
                        "{} is accessed concurrently (the barrier in {}() is \
                         paired); annotate the {} with {}() to prevent \
                         compiler tearing/fusing",
                        a.object,
                        site.site.function,
                        match a.kind {
                            AccessKind::Read => "read",
                            AccessKind::Write => "write",
                        },
                        once.name(),
                    ),
                });
            }
        }
    }
    out
}

/// The access spans the annotation pass has met, per file. A span is
/// admitted once, and only if it overlaps no span met before it in its
/// file; a span that was met but not admitted still blocks the spans
/// after it.
#[derive(Default)]
struct SeenSpans(HashMap<usize, Vec<Span>>);

impl SeenSpans {
    /// Meet `span` in `file`: true if it is new and overlaps no span met
    /// before it. Overlap is strict (`s.lo < span.hi && span.lo < s.hi`),
    /// so spans that only touch do not overlap.
    fn admit(&mut self, file: usize, span: Span) -> bool {
        let met = self.0.entry(file).or_default();
        if met.contains(&span) {
            return false;
        }
        let overlaps = met.iter().any(|s| s.lo < span.hi && span.lo < s.hi);
        met.push(span);
        !overlaps
    }
}

/// Produce the annotation patch for a `MissingOnce` deviation.
pub fn synthesize_annotation(dev: &Deviation, fa: &FileAnalysis) -> Option<Patch> {
    let DeviationKind::MissingOnce { once } = &dev.kind else {
        return None;
    };
    let access_span = dev.access_span?;
    let func = fa.function(&dev.site.function)?;
    let edits = match once {
        OnceKind::Read => {
            let text = access_span.slice(&fa.source);
            vec![Edit {
                span: access_span,
                replacement: format!("READ_ONCE({text})"),
            }]
        }
        OnceKind::Write => {
            // Rewrite the enclosing simple assignment `x = v;` as
            // `WRITE_ONCE(x, v);`. Compound assignments and increments
            // are not annotatable this way — skip them.
            let stmt = crate::patch::enclosing_stmt(&func.body, access_span)?;
            let (lhs_span, rhs_span, assign_span) = simple_assignment(stmt, access_span)?;
            let lhs = lhs_span.slice(&fa.source);
            let rhs = rhs_span.slice(&fa.source);
            vec![Edit {
                span: assign_span,
                replacement: format!("WRITE_ONCE({lhs}, {rhs})"),
            }]
        }
    };
    let new_source = apply_edits(&fa.source, &edits)?;
    Some(Patch {
        file: fa.name.clone(),
        title: format!(
            "{}: add {} in {}()",
            fa.name,
            once.name(),
            dev.site.function
        ),
        explanation: dev.explanation.clone(),
        edits,
        diff: line_diff(&fa.source, &new_source, &fa.name),
    })
}

/// Compose all annotation edits for one file into a single conflict-free
/// edit list.
///
/// A `WRITE_ONCE` rewrite replaces the whole assignment, so `READ_ONCE`
/// annotations on reads nested in its right-hand side must be folded into
/// the rewrite's replacement text instead of emitted as separate
/// (overlapping) edits.
pub fn file_annotation_edits(devs: &[&Deviation], fa: &FileAnalysis) -> Vec<Edit> {
    // Raw edits: (deviation, edits) — writes first so reads can fold in.
    let mut write_edits: Vec<Edit> = Vec::new();
    let mut read_edits: Vec<Edit> = Vec::new();
    for dev in devs {
        let Some(patch) = synthesize_annotation(dev, fa) else {
            continue;
        };
        for e in patch.edits {
            match dev.kind {
                DeviationKind::MissingOnce {
                    once: OnceKind::Write,
                } => write_edits.push(e),
                _ => read_edits.push(e),
            }
        }
    }
    let mut out: Vec<Edit> = Vec::new();
    let mut consumed = vec![false; read_edits.len()];
    for w in write_edits {
        // Fold nested reads into the write's replacement: re-derive the
        // replacement by applying the nested read edits to the original
        // slice first.
        let nested: Vec<&Edit> = read_edits
            .iter()
            .enumerate()
            .filter(|(i, r)| {
                let inside = w.span.contains(r.span);
                if inside {
                    consumed[*i] = true;
                }
                inside
            })
            .map(|(_, r)| r)
            .collect();
        if nested.is_empty() {
            out.push(w);
            continue;
        }
        // Apply the nested edits inside the original assignment text, then
        // rebuild the WRITE_ONCE rewrite around the result.
        let shifted: Vec<Edit> = nested
            .iter()
            .map(|r| Edit {
                span: Span::new(r.span.lo - w.span.lo, r.span.hi - w.span.lo),
                replacement: r.replacement.clone(),
            })
            .collect();
        let original = w.span.slice(&fa.source);
        if let Some(inner_annotated) = apply_edits(original, &shifted) {
            // The write replacement has shape `WRITE_ONCE(lhs, rhs)`;
            // regenerate it from the annotated assignment text.
            if let Some(eq) = split_assignment(&inner_annotated) {
                let (lhs, rhs) = eq;
                out.push(Edit {
                    span: w.span,
                    replacement: format!("WRITE_ONCE({}, {})", lhs.trim(), rhs.trim()),
                });
                continue;
            }
        }
        // Fallback: keep the write rewrite, drop the nested reads.
        out.push(w);
    }
    for (i, r) in read_edits.into_iter().enumerate() {
        if !consumed[i] {
            out.push(r);
        }
    }
    // Drop any residual overlaps conservatively (outermost first).
    without_overlaps(out).0
}

/// Split `lhs = rhs` at the top-level `=` (not `==`, `<=`, …).
fn split_assignment(text: &str) -> Option<(&str, &str)> {
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    for i in 0..bytes.len() {
        match bytes[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth = depth.saturating_sub(1),
            b'=' if depth == 0 => {
                let prev = if i > 0 { bytes[i - 1] } else { 0 };
                let next = *bytes.get(i + 1).unwrap_or(&0);
                if next != b'='
                    && !matches!(
                        prev,
                        b'=' | b'!'
                            | b'<'
                            | b'>'
                            | b'+'
                            | b'-'
                            | b'*'
                            | b'/'
                            | b'%'
                            | b'&'
                            | b'|'
                            | b'^'
                    )
                {
                    return Some((&text[..i], &text[i + 1..]));
                }
            }
            _ => {}
        }
    }
    None
}

/// If `stmt` contains a simple assignment whose LHS is exactly the access,
/// return (lhs span, rhs span, whole-assignment span).
fn simple_assignment(stmt: &Stmt, access_span: Span) -> Option<(Span, Span, Span)> {
    let mut found = None;
    if let StmtKind::Expr(e) = &stmt.kind {
        e.walk(&mut |expr| {
            if found.is_none() {
                if let ExprKind::Assign(AssignOp::Assign, lhs, rhs) = &expr.kind {
                    if lhs.span == access_span {
                        found = Some((lhs.span, rhs.span, expr.span));
                    }
                }
            }
        });
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use crate::pairing::pair_barriers;
    use crate::sites::analyze_file;

    fn annotations(src: &str) -> (FileAnalysis, Vec<Deviation>, Vec<Patch>) {
        let config = AnalysisConfig::default();
        let parsed = ckit::parse_string("t.c", src).unwrap();
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        let mut fa = analyze_file(0, &parsed, &config);
        for (i, s) in fa.sites.iter_mut().enumerate() {
            s.id = BarrierId(i as u32);
        }
        let pairing = pair_barriers(&fa.sites, &config);
        let devs = find_missing_annotations(&fa.sites, &pairing);
        let patches = devs
            .iter()
            .filter_map(|d| synthesize_annotation(d, &fa))
            .collect();
        (fa, devs, patches)
    }

    const LISTING1: &str = r#"struct my_struct { int init; int y; };
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
    fn finds_all_unannotated_accesses() {
        let (_, devs, _) = annotations(LISTING1);
        // init + y on both sides: 4 accesses, none annotated.
        assert_eq!(devs.len(), 4, "{devs:?}");
    }

    #[test]
    fn read_annotation_wraps_access() {
        let (fa, _, patches) = annotations(LISTING1);
        let read_patch = patches
            .iter()
            .find(|p| p.title.contains("READ_ONCE") && p.explanation.contains("init"))
            .expect("read patch");
        let patched = apply_edits(&fa.source, &read_patch.edits).unwrap();
        assert!(patched.contains("READ_ONCE(a->init)"), "{patched}");
    }

    #[test]
    fn write_annotation_rewrites_assignment() {
        let (fa, _, patches) = annotations(LISTING1);
        let write_patch = patches
            .iter()
            .find(|p| p.title.contains("WRITE_ONCE") && p.explanation.contains("init"))
            .expect("write patch");
        let patched = apply_edits(&fa.source, &write_patch.edits).unwrap();
        assert!(patched.contains("WRITE_ONCE(b->init, 1)"), "{patched}");
    }

    #[test]
    fn annotated_accesses_are_skipped() {
        let src = r#"struct my_struct { int init; int y; };
void reader(struct my_struct *a) {
    if (!READ_ONCE(a->init))
        return;
    smp_rmb();
    f(READ_ONCE(a->y));
}
void writer(struct my_struct *b) {
    WRITE_ONCE(b->y, 1);
    smp_wmb();
    WRITE_ONCE(b->init, 1);
}
"#;
        let (_, devs, _) = annotations(src);
        assert!(devs.is_empty(), "{devs:?}");
    }

    #[test]
    fn store_release_target_not_flagged() {
        let src = r#"struct s { int data; int flag; };
void writer(struct s *p) {
    WRITE_ONCE(p->data, 1);
    smp_store_release(&p->flag, 1);
}
int reader(struct s *p) {
    if (!smp_load_acquire(&p->flag))
        return 0;
    return READ_ONCE(p->data);
}
"#;
        let (_, devs, _) = annotations(src);
        assert!(devs.is_empty(), "{devs:?}");
    }

    #[test]
    fn unpaired_barriers_not_annotated() {
        // Without a pairing there is no inferred concurrency, so no
        // annotations are proposed.
        let src = r#"struct s { int a; int b; };
void lonely(struct s *p) {
    p->a = 1;
    smp_wmb();
    p->b = 2;
}
"#;
        let (_, devs, _) = annotations(src);
        assert!(devs.is_empty(), "{devs:?}");
    }

    #[test]
    fn annotation_patches_apply_cleanly_together() {
        let (fa, _, patches) = annotations(LISTING1);
        // All edits combined must be non-overlapping and yield valid C.
        let all: Vec<Edit> = patches.iter().flat_map(|p| p.edits.clone()).collect();
        let patched = apply_edits(&fa.source, &all).expect("non-overlapping");
        let reparsed = ckit::parse_string("t.c", &patched).unwrap();
        assert!(
            reparsed.errors.is_empty(),
            "{:?}\n{patched}",
            reparsed.errors
        );
    }

    /// The overlap check as it was first written: a scan of every span
    /// met so far, in every file. [`SeenSpans`] must agree with it on
    /// every sequence.
    #[derive(Default)]
    struct ScannedSpans(std::collections::HashSet<(usize, Span)>);

    impl ScannedSpans {
        fn admit(&mut self, file: usize, span: Span) -> bool {
            if !self.0.insert((file, span)) {
                return false;
            }
            !self
                .0
                .iter()
                .any(|&(f, s)| f == file && s != span && s.lo < span.hi && span.lo < s.hi)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Small coordinates make nested, identical, touching and empty
        /// spans common.
        #[test]
        fn seen_spans_admit_what_the_scan_admits(
            spans in proptest::collection::vec((0usize..3, 0u32..24, 0u32..8), 0..64),
        ) {
            let (mut fast, mut scan) = (SeenSpans::default(), ScannedSpans::default());
            for (file, lo, len) in spans {
                let span = Span::new(lo, lo + len);
                proptest::prop_assert_eq!(
                    fast.admit(file, span),
                    scan.admit(file, span),
                    "{:?} in file {}", span, file
                );
            }
        }
    }
}
