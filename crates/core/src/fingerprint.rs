//! Stable, content-based finding fingerprints.
//!
//! Every deviation (and annotation finding) gets an identity that
//! survives unrelated edits: prepending comments, renaming unrelated
//! functions, or reordering sibling functions must not change it, while
//! moving or rewriting the flagged statement must. This is what makes
//! longitudinal triage possible — the run ledger ([`crate::history`]),
//! `ofence diff` ([`crate::diffing`]), baselines, and the SARIF
//! `partialFingerprints` export all key on it, in the same spirit as
//! clang-tidy/CodeChecker issue hashes.
//!
//! ## What goes into a fingerprint
//!
//! * a **kind digest** — the deviation class plus its stable payload
//!   (correct side, replacement barrier, providing callee, …);
//! * the **barrier kind** at fault (`smp_wmb`, `smp_rmb`, …);
//! * the **shared object** `(struct, field)`, when one is involved;
//! * the **file name** and **function name** containing the finding;
//! * a **context digest**: the normalized tokens of the source line(s)
//!   holding the anchor statement (the flagged access, or the barrier
//!   itself for barrier-level findings). Byte offsets and line numbers
//!   are deliberately excluded, so line shifts are invisible;
//! * an **ordinal** distinguishing otherwise-identical findings in the
//!   same file (k-th occurrence, ordered by position).

use crate::deviation::{Deviation, DeviationKind};
use crate::ir::BarrierSite;
use crate::sites::FileAnalysis;
use ckit::span::Span;
use serde::Deserialize;

/// Bump when the fingerprint recipe changes; stored in SARIF as the
/// `partialFingerprints` key suffix (`ofenceFingerprint/v1`).
pub const FINGERPRINT_VERSION: u32 = 1;

/// A finding reduced to its longitudinal identity plus enough metadata
/// to render a one-line report. This is the unit the ledger, baselines,
/// and `ofence diff` operate on.
///
/// `Serialize`/`Deserialize` are hand-written so `via_calls` is omitted
/// when empty: schema v2 consumers and depth-0 reports see the exact
/// pre-IPA shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FindingRecord {
    /// Stable content-based identity, 16 hex digits.
    pub fingerprint: String,
    /// Human class name (`deviation_class`), e.g. "misplaced memory access".
    pub class: String,
    /// Kebab-case rule id (`deviation_rule`), e.g. "misplaced-access".
    pub rule: String,
    pub file: String,
    pub function: String,
    /// 1-based line of the anchor at record time — display only, never
    /// part of the identity.
    pub line: u32,
    /// 1-based column of the anchor — display only.
    pub column: u32,
    /// The shared object involved, rendered, when one is.
    pub object: Option<String>,
    pub message: String,
    /// Call chain the summary composition pass walked from the barrier's
    /// function to reach the finding's object (outermost callee first).
    /// Empty for intra-procedural findings and below `--ipa-depth 1`.
    /// Provenance only — never part of the fingerprint, so a finding
    /// keeps its identity whether it was found directly or via calls.
    pub via_calls: Vec<String>,
}

impl serde::Record for FindingRecord {
    fn fields<F: serde::Fields>(&self, f: &mut F) {
        f.field("fingerprint", &self.fingerprint);
        f.field("class", &self.class);
        f.field("rule", &self.rule);
        f.field("file", &self.file);
        f.field("function", &self.function);
        f.field("line", &self.line);
        f.field("column", &self.column);
        f.field("object", &self.object);
        f.field("message", &self.message);
        if !self.via_calls.is_empty() {
            f.field("via_calls", &self.via_calls);
        }
    }
}

serde::serialize_record!(FindingRecord);

impl Deserialize for FindingRecord {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let serde::Value::Object(m) = v else {
            return Err(serde::Error::new("FindingRecord: expected object"));
        };
        Ok(FindingRecord {
            fingerprint: serde::de_field(m.get("fingerprint"), "fingerprint")?,
            class: serde::de_field(m.get("class"), "class")?,
            rule: serde::de_field(m.get("rule"), "rule")?,
            file: serde::de_field(m.get("file"), "file")?,
            function: serde::de_field(m.get("function"), "function")?,
            line: serde::de_field(m.get("line"), "line")?,
            column: serde::de_field(m.get("column"), "column")?,
            object: serde::de_field(m.get("object"), "object")?,
            message: serde::de_field(m.get("message"), "message")?,
            via_calls: match m.get("via_calls") {
                Some(v) => Deserialize::from_value(v)?,
                None => Vec::new(),
            },
        })
    }
}

impl FindingRecord {
    /// The one-line rendering shared by `ofence watch` and `ofence diff`.
    pub fn render_line(&self) -> String {
        format!(
            "{}:{}: {} in {}",
            self.file, self.line, self.class, self.function
        )
    }
}

/// Kebab-case rule id for a deviation class (SARIF `ruleId`, baseline
/// bookkeeping). Stable; new classes append, existing ids never change.
pub fn deviation_rule(kind: &DeviationKind) -> &'static str {
    match kind {
        DeviationKind::Misplaced { .. } => "misplaced-access",
        DeviationKind::WrongBarrierType { .. } => "wrong-barrier-type",
        DeviationKind::RepeatedRead { .. } => "repeated-read",
        DeviationKind::UnneededBarrier { .. } => "unneeded-barrier",
        DeviationKind::MissingOnce { .. } => "missing-once",
        DeviationKind::MissingBarrier { .. } => "missing-barrier",
    }
}

/// The class digest: rule id plus the payload fields that are part of the
/// finding's meaning (but none that encode positions).
fn kind_digest(kind: &DeviationKind) -> String {
    match kind {
        DeviationKind::Misplaced { correct_side } => {
            format!("misplaced-access:{correct_side:?}")
        }
        DeviationKind::WrongBarrierType { replacement } => {
            format!("wrong-barrier-type:{}", replacement.name())
        }
        // `first_read_span` is positional: excluded.
        DeviationKind::RepeatedRead { .. } => "repeated-read".to_string(),
        DeviationKind::UnneededBarrier { provided_by } => {
            format!("unneeded-barrier:{provided_by}")
        }
        DeviationKind::MissingOnce { once } => format!("missing-once:{once:?}"),
        DeviationKind::MissingBarrier {
            writer_function,
            fence,
        } => format!("missing-barrier:{writer_function}:{fence}"),
    }
}

/// Hash of the normalized tokens of the full source line(s) covered by
/// `span`. Tokens are maximal `[A-Za-z0-9_]` runs plus single punctuation
/// characters; all whitespace (indentation, alignment, line breaks inside
/// the statement) collapses to a single separator. Out-of-range spans
/// hash the empty token stream rather than panicking.
pub fn context_digest(source: &str, span: Span) -> u64 {
    let len = source.len();
    let lo = (span.lo as usize).min(len);
    let hi = (span.hi as usize).clamp(lo, len);
    let start = source[..lo].rfind('\n').map(|i| i + 1).unwrap_or(0);
    let end = source[hi..].find('\n').map(|i| hi + i).unwrap_or(len);
    let mut normalized = String::new();
    let mut in_word = false;
    for c in source[start..end].chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            if !in_word && !normalized.is_empty() {
                normalized.push(' ');
            }
            normalized.push(c);
            in_word = true;
        } else {
            in_word = false;
            if !c.is_whitespace() {
                if !normalized.is_empty() {
                    normalized.push(' ');
                }
                normalized.push(c);
            }
        }
    }
    crate::cache::content_hash(normalized.as_bytes())
}

/// The anchor span of a finding: the flagged access when there is one,
/// the barrier statement otherwise.
fn anchor_span(d: &Deviation) -> Span {
    d.access_span.unwrap_or(d.site.span)
}

/// Position-independent base fingerprint (before ordinal disambiguation).
fn base_fingerprint(d: &Deviation, barrier_kind: &str, source: &str) -> u64 {
    let object = d
        .object
        .as_ref()
        .map(|o| format!("{}#{}", o.strukt, o.field))
        .unwrap_or_default();
    let parts = [
        format!("v{FINGERPRINT_VERSION}"),
        kind_digest(&d.kind),
        barrier_kind.to_string(),
        object,
        d.site.file_name.clone(),
        d.site.function.clone(),
        format!("{:016x}", context_digest(source, anchor_span(d))),
    ];
    crate::cache::content_hash(parts.join("\u{1f}").as_bytes())
}

/// Compute the [`FindingRecord`] of every deviation, with identical
/// findings in the same file disambiguated by occurrence order (the k-th
/// copy keeps ordinal k, which is stable under line shifts because the
/// relative order of statements is preserved).
pub fn finding_records(
    devs: &[Deviation],
    sites: &[BarrierSite],
    files: &[std::sync::Arc<FileAnalysis>],
) -> Vec<FindingRecord> {
    // Base fingerprints first, in deviation order.
    let bases: Vec<u64> = devs
        .iter()
        .map(|d| {
            let barrier_kind = sites
                .get(d.barrier.0 as usize)
                .map(|s| s.kind.name())
                .unwrap_or("");
            let source = files.get(d.site.file).map(|f| &*f.source).unwrap_or("");
            base_fingerprint(d, barrier_kind, source)
        })
        .collect();
    // Ordinals: among findings sharing a base, order by anchor position.
    let mut order: Vec<usize> = (0..devs.len()).collect();
    order.sort_by_key(|&i| (bases[i], anchor_span(&devs[i]).lo, i));
    let mut ordinals = vec![0usize; devs.len()];
    for w in 0..order.len() {
        if w > 0 && bases[order[w]] == bases[order[w - 1]] {
            ordinals[order[w]] = ordinals[order[w - 1]] + 1;
        }
    }
    devs.iter()
        .enumerate()
        .map(|(i, d)| {
            let fp =
                crate::cache::content_hash(format!("{:016x}#{}", bases[i], ordinals[i]).as_bytes());
            let source = files.get(d.site.file).map(|f| &*f.source).unwrap_or("");
            let pos = if source.is_empty() {
                ckit::span::LineCol {
                    line: d.site.line,
                    col: 1,
                }
            } else {
                ckit::SourceMap::new(d.site.file_name.clone(), source).lookup(anchor_span(d).lo)
            };
            // Provenance: the call chain through which the barrier's
            // window sees the finding's object, when it only sees it via
            // the summary pass.
            let via_calls = match (&d.object, sites.get(d.barrier.0 as usize)) {
                (Some(o), Some(s)) => s.via_of(o).map(<[String]>::to_vec).unwrap_or_default(),
                _ => Vec::new(),
            };
            FindingRecord {
                fingerprint: format!("{fp:016x}"),
                class: crate::report::deviation_class(&d.kind).to_string(),
                rule: deviation_rule(&d.kind).to_string(),
                file: d.site.file_name.clone(),
                function: d.site.function.clone(),
                line: pos.line,
                column: pos.col,
                object: d.object.as_ref().map(|o| o.to_string()),
                message: d.explanation.clone(),
                via_calls,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use crate::engine::{Engine, SourceFile};

    const BUGGY: &str = r#"struct rpc { int len; int recd; int out; };
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

    fn fingerprints_of(src: &str) -> Vec<String> {
        let r = Engine::new(AnalysisConfig::default()).analyze(&[SourceFile::new("xprt.c", src)]);
        let mut fps: Vec<String> = finding_records(&r.deviations, &r.sites, &r.files)
            .into_iter()
            .map(|rec| rec.fingerprint)
            .collect();
        fps.sort();
        fps
    }

    #[test]
    fn context_digest_ignores_whitespace() {
        let a = "x = req->len;\n";
        let b = "\t\tx   =  req ->len ;\n";
        let sa = Span::new(0, a.len() as u32 - 1);
        let sb = Span::new(2, b.len() as u32 - 1);
        assert_eq!(context_digest(a, sa), context_digest(b, sb));
    }

    #[test]
    fn context_digest_sees_token_changes() {
        let a = "x = req->len;\n";
        let b = "x = req->cap;\n";
        let s = Span::new(0, 13);
        assert_ne!(context_digest(a, s), context_digest(b, s));
    }

    #[test]
    fn context_digest_out_of_range_is_safe() {
        // Out-of-range spans clamp to the end of the source (no panic)
        // and digest the line they land on.
        assert_eq!(
            context_digest("short", Span::new(100, 200)),
            context_digest("short", Span::new(0, 5))
        );
        assert_eq!(
            context_digest("", Span::new(10, 20)),
            context_digest("", Span::new(0, 0))
        );
    }

    #[test]
    fn prepending_comments_keeps_fingerprints() {
        let base = fingerprints_of(BUGGY);
        assert!(!base.is_empty());
        let mut banner = String::new();
        for i in 0..100 {
            banner.push_str(&format!("/* shift {i} */\n"));
        }
        let shifted = format!("{banner}{BUGGY}");
        assert_eq!(base, fingerprints_of(&shifted));
        // Blank lines too.
        let blank = format!("\n\n\n\n{BUGGY}");
        assert_eq!(base, fingerprints_of(&blank));
    }

    #[test]
    fn reordering_sibling_functions_keeps_fingerprints() {
        let swapped = r#"struct rpc { int len; int recd; int out; };
void decode(struct rpc *req) {
    smp_rmb();
    if (!req->recd)
        return;
    req->out = req->len;
}
void complete(struct rpc *req) {
    req->len = 4;
    smp_wmb();
    req->recd = 1;
}
"#;
        assert_eq!(fingerprints_of(BUGGY), fingerprints_of(swapped));
    }

    #[test]
    fn rewriting_the_flagged_statement_changes_fingerprints() {
        // The misplaced read moves into a different statement: same class,
        // same object, same function — but a different anchor.
        let moved = BUGGY.replace(
            "    if (!req->recd)\n        return;",
            "    int done = req->recd;\n    if (!done)\n        return;",
        );
        assert_ne!(fingerprints_of(BUGGY), fingerprints_of(&moved));
    }

    #[test]
    fn identical_findings_get_distinct_ordinals() {
        // Two copies of the same buggy pattern in one file, with the same
        // struct/function-irrelevant shape: records must not collide.
        let r = Engine::new(AnalysisConfig::default()).analyze(&[SourceFile::new(
            "dup.c",
            r#"struct d { int len; int recd; };
void dec(struct d *req) {
    smp_rmb();
    if (!req->recd)
        g(req->len);
    smp_rmb();
    if (!req->recd)
        g(req->len);
}
void com(struct d *req) {
    req->len = 4;
    smp_wmb();
    req->recd = 1;
}
"#,
        )]);
        let recs = finding_records(&r.deviations, &r.sites, &r.files);
        let mut fps: Vec<&str> = recs.iter().map(|r| r.fingerprint.as_str()).collect();
        fps.sort_unstable();
        let before = fps.len();
        fps.dedup();
        assert_eq!(before, fps.len(), "fingerprints collided: {recs:?}");
    }

    #[test]
    fn records_carry_display_metadata() {
        let r = Engine::new(AnalysisConfig::default()).analyze(&[SourceFile::new("xprt.c", BUGGY)]);
        let recs = finding_records(&r.deviations, &r.sites, &r.files);
        let mis = recs
            .iter()
            .find(|r| r.rule == "misplaced-access")
            .expect("misplaced finding");
        assert_eq!(mis.file, "xprt.c");
        assert_eq!(mis.function, "decode");
        assert_eq!(mis.line, 9);
        assert_eq!(mis.object.as_deref(), Some("(struct rpc, recd)"));
        assert!(mis.render_line().contains("xprt.c:9:"));
        assert_eq!(mis.fingerprint.len(), 16);
    }
}
