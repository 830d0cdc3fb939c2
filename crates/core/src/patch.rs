//! Patch synthesis — paper §5.4.
//!
//! Every deviation becomes a span-based edit list over the original
//! source, rendered as a unified diff with the paper-style explanation in
//! the header ("the patch documents which shared objects were used to
//! pair the barriers and the type of constraint that was fixed").

use crate::deviation::{Deviation, DeviationKind};
use crate::ir::Side;
use crate::sites::FileAnalysis;
use ckit::ast::{FunctionDef, Stmt, StmtKind};
use ckit::span::Span;
use serde::{Deserialize, Serialize};

/// A single replace-span edit. Deletion is an empty replacement;
/// insertion is an empty span.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edit {
    pub span: Span,
    pub replacement: String,
}

/// A generated patch.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Patch {
    pub file: String,
    pub title: String,
    /// Why the original code was erroneous (embedded in the diff header).
    pub explanation: String,
    pub edits: Vec<Edit>,
    /// Rendered unified diff.
    pub diff: String,
}

/// Apply edits to a source string. Edits must not overlap; returns `None`
/// if they do (a bug upstream, surfaced rather than corrupting output).
pub fn apply_edits(source: &str, edits: &[Edit]) -> Option<String> {
    let mut sorted: Vec<&Edit> = edits.iter().collect();
    sorted.sort_by_key(|e| (e.span.lo, e.span.hi));
    for pair in sorted.windows(2) {
        if pair[1].span.lo < pair[0].span.hi {
            return None;
        }
    }
    let mut out = String::with_capacity(source.len());
    let mut pos = 0usize;
    for e in sorted {
        let lo = e.span.lo as usize;
        let hi = e.span.hi as usize;
        if lo > source.len() || hi > source.len() || lo < pos {
            return None;
        }
        out.push_str(&source[pos..lo]);
        out.push_str(&e.replacement);
        pos = hi;
    }
    out.push_str(&source[pos..]);
    Some(out)
}

/// Make `edits` conflict-free, conservatively: sort them, drop exact
/// duplicates, and drop every edit that overlaps one kept before it
/// (outermost first). Returns the kept edits and how many were dropped
/// for overlapping.
pub fn without_overlaps(mut edits: Vec<Edit>) -> (Vec<Edit>, usize) {
    edits.sort_by_key(|e| (e.span.lo, e.span.hi));
    edits.dedup();
    let mut kept: Vec<Edit> = Vec::new();
    let mut dropped = 0;
    for e in edits {
        if kept.last().is_none_or(|prev| e.span.lo >= prev.span.hi) {
            kept.push(e);
        } else {
            dropped += 1;
        }
    }
    (kept, dropped)
}

/// The largest LCS table [`line_diff`] fills (4 M cells: two changed
/// regions of ~2 000 lines each).
const MAX_DIFF_CELLS: usize = 4_000_000;

/// Lines of context around each change.
const CTX: usize = 3;

/// One line of an edit script: its kind (`' '`, `'-'` or `'+'`), its
/// line numbers in the old and in the new text, and its text.
type Op<'t> = (char, usize, usize, &'t str);

/// Render a unified diff (line-based LCS, 3 lines of context).
///
/// The LCS runs only over the lines between the longest runs of whole
/// lines the two texts share at the start and at the end, found by
/// comparing bytes, so a one-line fix in a file of any size splits and
/// diffs a line or two (see [`edit_script`] for why the result equals
/// an LCS over the whole file). Only a changed region of more than
/// [`MAX_DIFF_CELLS`] prints `(diff too large)`.
pub fn line_diff(old: &str, new: &str, file: &str) -> String {
    let (head, tail) = shared_lines(old.as_bytes(), new.as_bytes());
    let Some(ops) = edit_script(old, new, head, tail) else {
        return format!("--- a/{file}\n+++ b/{file}\n(diff too large)\n");
    };
    // Group into hunks with CTX lines of context.
    let mut out = format!("--- a/{file}\n+++ b/{file}\n");
    let changes: Vec<usize> = ops
        .iter()
        .enumerate()
        .filter(|(_, op)| op.0 != ' ')
        .map(|(p, _)| p)
        .collect();
    if changes.is_empty() {
        return out;
    }
    let mut hunk_start = changes[0].saturating_sub(CTX);
    let mut hunk_end = (changes[0] + CTX + 1).min(ops.len());
    let mut hunks: Vec<(usize, usize)> = Vec::new();
    for &c in &changes[1..] {
        if c.saturating_sub(CTX) <= hunk_end {
            hunk_end = (c + CTX + 1).min(ops.len());
        } else {
            hunks.push((hunk_start, hunk_end));
            hunk_start = c.saturating_sub(CTX);
            hunk_end = (c + CTX + 1).min(ops.len());
        }
    }
    hunks.push((hunk_start, hunk_end));
    for (s, e) in hunks {
        let old_start = ops[s].1 + 1;
        let new_start = ops[s].2 + 1;
        let old_count = ops[s..e].iter().filter(|op| op.0 != '+').count();
        let new_count = ops[s..e].iter().filter(|op| op.0 != '-').count();
        out.push_str(&format!(
            "@@ -{old_start},{old_count} +{new_start},{new_count} @@\n"
        ));
        for &(k, _, _, text) in &ops[s..e] {
            out.push(k);
            out.push_str(text);
            out.push('\n');
        }
    }
    out
}

/// Byte lengths of the whole lines that `a` and `b` share at their start
/// (`head`) and, after that, at their end (`tail`). Both end at a line
/// boundary, so splitting either text into lines splits its head, its
/// middle and its tail in turn.
fn shared_lines(a: &[u8], b: &[u8]) -> (usize, usize) {
    let head = a[..common_prefix(a, b)]
        .iter()
        .rposition(|&c| c == b'\n')
        .map_or(0, |i| i + 1);
    let (a, b) = (&a[head..], &b[head..]);
    let starts_line = |t: &[u8], k: usize| k == t.len() || t[t.len() - k - 1] == b'\n';
    let tail = (0..=common_suffix(a, b))
        .rev()
        .find(|&k| starts_line(a, k) && starts_line(b, k))
        .unwrap_or(0);
    (head, tail)
}

/// How many bytes `a` and `b` share at the start: whole 64-byte blocks
/// first, one slice comparison each, then byte by byte.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let blocks = (a.chunks_exact(64).zip(b.chunks_exact(64)))
        .take_while(|(x, y)| x == y)
        .count()
        * 64;
    blocks
        + (a[blocks..].iter().zip(&b[blocks..]))
            .take_while(|(x, y)| x == y)
            .count()
}

/// How many bytes `a` and `b` share at the end (see [`common_prefix`]).
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let blocks = (a.rchunks_exact(64).zip(b.rchunks_exact(64)))
        .take_while(|(x, y)| x == y)
        .count()
        * 64;
    let (a, b) = (&a[..a.len() - blocks], &b[..b.len() - blocks]);
    blocks
        + (a.iter().rev().zip(b.iter().rev()))
            .take_while(|(x, y)| x == y)
            .count()
}

/// The edit script an LCS over all the lines of `old` and `new` yields,
/// given that their first `head` and last `tail` bytes are whole lines
/// the two share; `None` when the table it fills would pass
/// [`MAX_DIFF_CELLS`]. Only the middle region goes through the table,
/// and the script is still the whole-file one:
///
/// - the walk matches equal lines before it consults the table, so it
///   steps through the shared head with `' '` ops either way;
/// - `LCS(U·S, V·S) = LCS(U, V) + |S|` for a shared tail `S`, so every
///   table comparison inside the middle decides the same way;
/// - the walk can only diverge when it leaves the middle with lines
///   left over on one side: there the whole-file walk matches a
///   left-over line equal to the first tail line, where this one
///   deletes or inserts it. Exactly then the table is filled again
///   with no tail stripped.
///
/// Of the shared lines, only the `CTX` next to the middle become ops: a
/// hunk reaches no further than `CTX` lines from a change, so ops
/// beyond them never show.
fn edit_script<'t>(old: &'t str, new: &'t str, head: usize, tail: usize) -> Option<Vec<Op<'t>>> {
    let a: Vec<&str> = old[head..old.len() - tail].lines().collect();
    let b: Vec<&str> = new[head..new.len() - tail].lines().collect();
    let (n, m) = (a.len(), b.len());
    if n * m > MAX_DIFF_CELLS {
        return None;
    }
    let mut dp = vec![0u32; (n + 1) * (m + 1)];
    let idx = |i: usize, j: usize| i * (m + 1) + j;
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            dp[idx(i, j)] = if a[i] == b[j] {
                dp[idx(i + 1, j + 1)] + 1
            } else {
                dp[idx(i + 1, j)].max(dp[idx(i, j + 1)])
            };
        }
    }
    // The middle's first line number: the head holds whole lines.
    let first = old.as_bytes()[..head]
        .iter()
        .filter(|&&c| c == b'\n')
        .count();
    let before: Vec<&str> = old[..head].lines().rev().take(CTX).collect();
    let mut ops: Vec<Op> = (before.iter().rev())
        .zip(first - before.len()..)
        .map(|(&text, l)| (' ', l, l, text))
        .collect();
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if a[i] == b[j] {
            ops.push((' ', first + i, first + j, a[i]));
            i += 1;
            j += 1;
        } else if dp[idx(i + 1, j)] >= dp[idx(i, j + 1)] {
            ops.push(('-', first + i, first + j, a[i]));
            i += 1;
        } else {
            ops.push(('+', first + i, first + j, b[j]));
            j += 1;
        }
    }
    let mut after = old[old.len() - tail..].lines();
    if let Some(s0) = after.clone().next() {
        if a[i..].contains(&s0) || b[j..].contains(&s0) {
            return edit_script(old, new, head, 0);
        }
    }
    ops.extend((i..n).map(|i| ('-', first + i, first + j, a[i])));
    ops.extend((j..m).map(|j| ('+', first + n, first + j, b[j])));
    ops.extend(
        (after.by_ref().take(CTX).zip(0..))
            .map(|(text, k)| (' ', first + n + k, first + m + k, text)),
    );
    Some(ops)
}

/// Synthesize a patch for a deviation against its file's analysis.
///
/// Returns `None` when a fix cannot be expressed as a safe span edit
/// (the deviation is still reported, just without an automatic patch).
pub fn synthesize(dev: &Deviation, fa: &FileAnalysis) -> Option<Patch> {
    // A missing-barrier reader holds no site, so `fa` keeps no AST of it:
    // parse its file again, as the detector did, to find the statement.
    let reparsed;
    let func = if matches!(dev.kind, DeviationKind::MissingBarrier { .. }) {
        reparsed = ckit::parse_string(&fa.name, &fa.source).ok()?;
        reparsed
            .unit
            .functions()
            .find(|f| f.sig.name == dev.site.function)?
    } else {
        fa.function(&dev.site.function)?
    };
    let edits = match &dev.kind {
        DeviationKind::Misplaced { correct_side } => misplaced_edits(dev, fa, func, *correct_side)?,
        DeviationKind::WrongBarrierType { replacement } => {
            vec![Edit {
                span: dev.site.span,
                replacement: format!("{}()", replacement.name()),
            }]
        }
        DeviationKind::RepeatedRead { first_read_span } => {
            repeated_read_edits(dev, fa, func, *first_read_span)?
        }
        DeviationKind::UnneededBarrier { .. } => {
            let stmt = enclosing_stmt(&func.body, dev.site.span)?;
            vec![delete_line_edit(&fa.source, stmt.span)]
        }
        DeviationKind::MissingOnce { .. } => return None, // handled by annotate
        DeviationKind::MissingBarrier { fence, .. } => {
            // Insert the fence on its own line just above the statement
            // holding the first dependent (payload) load. The guard load
            // is before it by construction, so the fence lands between
            // the two — re-analysis then pairs the writer and the
            // diagnostic disappears (machine verification).
            let payload_span = dev.access_span?;
            let stmt = enclosing_stmt(&func.body, payload_span)?;
            let at = line_start(&fa.source, stmt.span.lo);
            let indent = line_indent(&fa.source, stmt.span.lo);
            vec![Edit {
                span: Span::new(at, at),
                replacement: format!("{indent}{fence}();\n"),
            }]
        }
    };
    let new_source = apply_edits(&fa.source, &edits)?;
    let diff = line_diff(&fa.source, &new_source, &fa.name);
    Some(Patch {
        file: fa.name.clone(),
        title: title_for(dev),
        explanation: dev.explanation.clone(),
        edits,
        diff,
    })
}

fn title_for(dev: &Deviation) -> String {
    let what = match &dev.kind {
        DeviationKind::Misplaced { .. } => "fix misplaced memory access",
        DeviationKind::WrongBarrierType { .. } => "use the correct barrier type",
        DeviationKind::RepeatedRead { .. } => "avoid racy re-read",
        DeviationKind::UnneededBarrier { .. } => "remove unneeded barrier",
        DeviationKind::MissingOnce { .. } => "annotate concurrent access",
        DeviationKind::MissingBarrier { .. } => "insert missing read fence",
    };
    format!(
        "{}: {} in {}()",
        dev.site.file_name, what, dev.site.function
    )
}

/// Move the statement containing the misplaced access to the other side
/// of the barrier statement.
fn misplaced_edits(
    dev: &Deviation,
    fa: &FileAnalysis,
    func: &FunctionDef,
    correct_side: Side,
) -> Option<Vec<Edit>> {
    let access_span = dev.access_span?;
    let moved = enclosing_stmt(&func.body, access_span)?;
    let barrier_stmt = enclosing_stmt(&func.body, dev.site.span)?;
    if moved.span.contains(barrier_stmt.span) {
        // The access lives in a construct wrapping the barrier (e.g. the
        // loop condition); moving it would drag the barrier along.
        return None;
    }
    // Data-dependency guard: moving the statement above code that assigns
    // a variable it reads (e.g. hoisting `it->a` above
    // `it = rcu_dereference(...)`) would produce wrong code. Such
    // deviations are reported without an automatic patch ("may require
    // manual intervention", §5.4).
    if correct_side == Side::Before && moved.span.lo > barrier_stmt.span.lo {
        let gap = Span::new(barrier_stmt.span.lo, moved.span.lo);
        if moved_reads_assigned_in_gap(&func.body, moved, gap) {
            return None;
        }
    }
    let stmt_text = full_line_text(&fa.source, moved.span);
    let delete = delete_line_edit(&fa.source, moved.span);
    // When the barrier sits in a do-while condition (the seqcount retry
    // idiom), "before the barrier" means the end of the loop body — not
    // before the whole loop, which would leave the access unprotected.
    let dowhile = find_dowhile_cond(&func.body, dev.site.span);
    let insert_at = match (correct_side, dowhile) {
        (Side::Before, Some(dw)) => {
            // Line of the closing `} while (...)` — insert just above it.
            line_start(&fa.source, body_end(dw))
        }
        (Side::Before, None) => line_start(&fa.source, barrier_stmt.span.lo),
        (Side::After, _) => line_end(&fa.source, barrier_stmt.span.hi).saturating_add(1),
    };
    // Moving into a loop body adds one indentation level ("checking the
    // orderings and fixing them is easy to perform automatically, but may
    // require manual intervention to fix styling issues" — §5.4; we fix
    // the common case).
    let text = if matches!((correct_side, dowhile), (Side::Before, Some(_))) {
        stmt_text
            .lines()
            .map(|l| format!("\t{l}"))
            .collect::<Vec<_>>()
            .join("\n")
    } else {
        stmt_text
    };
    let insert = Edit {
        span: Span::new(insert_at, insert_at),
        replacement: format!("{text}\n"),
    };
    // Inserting inside the deleted range would corrupt; guard.
    if delete.span.contains(insert.span) {
        return None;
    }
    Some(vec![delete, insert])
}

/// Replace the re-read expression with the previously read value.
fn repeated_read_edits(
    dev: &Deviation,
    fa: &FileAnalysis,
    func: &FunctionDef,
    first_read_span: Span,
) -> Option<Vec<Edit>> {
    let reread_span = dev.access_span?;
    if reread_span == first_read_span {
        return None;
    }
    // Find the variable that received the first read.
    if let Some(var) = receiving_variable(&func.body, first_read_span) {
        return Some(vec![Edit {
            span: reread_span,
            replacement: var,
        }]);
    }
    // No variable: hoist the first read into a fresh local before its
    // statement and reuse it at both sites.
    let first_stmt = enclosing_stmt(&func.body, first_read_span)?;
    let obj = dev.object.as_ref()?;
    let var = format!("__{}", obj.field);
    let read_text = first_read_span.slice(&fa.source).to_string();
    let indent = line_indent(&fa.source, first_stmt.span.lo);
    let insert_at = line_start(&fa.source, first_stmt.span.lo);
    Some(vec![
        Edit {
            span: Span::new(insert_at, insert_at),
            replacement: format!("{indent}typeof({read_text}) {var} = {read_text};\n"),
        },
        Edit {
            span: first_read_span,
            replacement: var.clone(),
        },
        Edit {
            span: reread_span,
            replacement: var,
        },
    ])
}

/// The variable a read was stored into: `int n = READ;` or `n = READ;`.
fn receiving_variable(body: &[Stmt], read_span: Span) -> Option<String> {
    let stmt = enclosing_stmt(body, read_span)?;
    match &stmt.kind {
        StmtKind::Decl(d) => {
            for decl in &d.decls {
                if let Some(init) = &decl.init {
                    if init.span.contains(read_span) && !decl.name.is_empty() {
                        return Some(decl.name.to_string());
                    }
                }
            }
            None
        }
        StmtKind::Expr(e) => {
            if let ckit::ast::ExprKind::Assign(ckit::ast::AssignOp::Assign, lhs, rhs) = &e.kind {
                if rhs.span.contains(read_span) {
                    return lhs.as_ident().map(str::to_string);
                }
            }
            None
        }
        _ => None,
    }
}

/// Does the statement to move read any local variable that is assigned or
/// declared by statements inside `gap` (the region it would be hoisted
/// over)?
fn moved_reads_assigned_in_gap(body: &[Stmt], moved: &Stmt, gap: Span) -> bool {
    use ckit::ast::ExprKind;
    // Variables assigned/declared within the gap.
    let mut assigned: std::collections::HashSet<String> = Default::default();
    fn collect_assigned(s: &Stmt, gap: Span, out: &mut std::collections::HashSet<String>) {
        if s.span.hi <= gap.lo || s.span.lo >= gap.hi {
            return;
        }
        if let StmtKind::Decl(d) = &s.kind {
            for decl in &d.decls {
                out.insert(decl.name.to_string());
            }
        }
        s.walk_exprs(&mut |e| {
            if e.span.lo >= gap.lo && e.span.hi <= gap.hi {
                if let ckit::ast::ExprKind::Assign(_, lhs, _) = &e.kind {
                    if let Some(name) = lhs.as_ident() {
                        out.insert(name.to_string());
                    }
                }
            }
        });
        // Recurse into compound statements.
        match &s.kind {
            StmtKind::Block(stmts) => {
                for inner in stmts {
                    collect_assigned(inner, gap, out);
                }
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                collect_assigned(then_branch, gap, out);
                if let Some(e) = else_branch {
                    collect_assigned(e, gap, out);
                }
            }
            StmtKind::While { body, .. }
            | StmtKind::DoWhile { body, .. }
            | StmtKind::For { body, .. }
            | StmtKind::Switch { body, .. } => collect_assigned(body, gap, out),
            StmtKind::Case { stmt, .. } | StmtKind::Label { stmt, .. } => {
                collect_assigned(stmt, gap, out)
            }
            _ => {}
        }
    }
    for s in body {
        collect_assigned(s, gap, &mut assigned);
    }
    if assigned.is_empty() {
        return false;
    }
    // Identifiers the moved statement reads.
    let mut reads_assigned = false;
    moved.walk_exprs(&mut |e| {
        if let ExprKind::Ident(name) = &e.kind {
            if assigned.contains(name.as_str()) {
                reads_assigned = true;
            }
        }
    });
    reads_assigned
}

/// The deepest `do { … } while (cond)` whose *condition* contains `span`.
fn find_dowhile_cond<'a>(body: &'a [Stmt], span: Span) -> Option<&'a Stmt> {
    let mut found: Option<&'a Stmt> = None;
    fn visit<'a>(s: &'a Stmt, span: Span, found: &mut Option<&'a Stmt>) {
        if !s.span.contains(span) {
            return;
        }
        match &s.kind {
            StmtKind::DoWhile { body, cond } => {
                if cond.span.contains(span) {
                    *found = Some(s);
                }
                visit(body, span, found);
            }
            StmtKind::Block(stmts) => {
                for inner in stmts {
                    visit(inner, span, found);
                }
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                visit(then_branch, span, found);
                if let Some(e) = else_branch {
                    visit(e, span, found);
                }
            }
            StmtKind::While { body, .. }
            | StmtKind::For { body, .. }
            | StmtKind::Switch { body, .. } => visit(body, span, found),
            StmtKind::Case { stmt, .. } | StmtKind::Label { stmt, .. } => visit(stmt, span, found),
            _ => {}
        }
    }
    for s in body {
        visit(s, span, &mut found);
    }
    found
}

/// Byte offset of the end of a do-while's body (its closing brace).
fn body_end(dowhile: &Stmt) -> u32 {
    match &dowhile.kind {
        StmtKind::DoWhile { body, .. } => body.span.hi,
        _ => dowhile.span.hi,
    }
}

/// Smallest movable statement (direct child of a block/body) containing
/// `span`.
pub fn enclosing_stmt(body: &[Stmt], span: Span) -> Option<&Stmt> {
    for s in body {
        if !s.span.contains(span) {
            continue;
        }
        // Descend into blocks to find a tighter movable statement.
        let inner: Option<&Stmt> = match &s.kind {
            StmtKind::Block(stmts) => enclosing_stmt(stmts, span),
            StmtKind::If {
                then_branch,
                else_branch,
                cond,
            } => {
                if cond.span.contains(span) {
                    None // condition belongs to the if itself
                } else {
                    enclosing_stmt(std::slice::from_ref(then_branch), span).or_else(|| {
                        else_branch
                            .as_deref()
                            .and_then(|e| enclosing_stmt(std::slice::from_ref(e), span))
                    })
                }
            }
            StmtKind::While { body: b, cond } | StmtKind::DoWhile { body: b, cond } => {
                if cond.span.contains(span) {
                    None
                } else {
                    enclosing_stmt(std::slice::from_ref(b), span)
                }
            }
            StmtKind::For { body: b, .. } | StmtKind::Switch { body: b, .. } => {
                enclosing_stmt(std::slice::from_ref(b), span)
            }
            StmtKind::Case { stmt, .. } | StmtKind::Label { stmt, .. } => {
                enclosing_stmt(std::slice::from_ref(stmt), span)
            }
            _ => None,
        };
        return Some(inner.unwrap_or(s));
    }
    None
}

// ---- text helpers -----------------------------------------------------

fn line_start(src: &str, offset: u32) -> u32 {
    let bytes = src.as_bytes();
    let mut i = offset as usize;
    while i > 0 && bytes[i - 1] != b'\n' {
        i -= 1;
    }
    i as u32
}

fn line_end(src: &str, offset: u32) -> u32 {
    let bytes = src.as_bytes();
    let mut i = offset as usize;
    while i < bytes.len() && bytes[i] != b'\n' {
        i += 1;
    }
    i as u32
}

fn line_indent(src: &str, offset: u32) -> String {
    let start = line_start(src, offset) as usize;
    src[start..]
        .chars()
        .take_while(|c| *c == ' ' || *c == '\t')
        .collect()
}

/// The statement's text including full lines (used when moving it).
fn full_line_text(src: &str, span: Span) -> String {
    let lo = line_start(src, span.lo);
    let hi = line_end(src, span.hi);
    src[lo as usize..hi as usize].to_string()
}

/// Delete the statement's full lines (including the trailing newline).
fn delete_line_edit(src: &str, span: Span) -> Edit {
    let lo = line_start(src, span.lo);
    let mut hi = line_end(src, span.hi);
    if (hi as usize) < src.len() {
        hi += 1; // eat the newline
    }
    Edit {
        span: Span::new(lo, hi),
        replacement: String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use crate::ir::BarrierId;
    use crate::pairing::pair_barriers;
    use crate::sites::analyze_file;

    fn patches_for(src: &str) -> (FileAnalysis, Vec<Patch>) {
        let config = AnalysisConfig::default();
        let parsed = ckit::parse_string("t.c", src).unwrap();
        assert!(parsed.errors.is_empty(), "{:?}", parsed.errors);
        let mut fa = analyze_file(0, &parsed, &config);
        for (i, s) in fa.sites.iter_mut().enumerate() {
            s.id = BarrierId(i as u32);
        }
        let pairing = pair_barriers(&fa.sites, &config);
        let devs = crate::deviation::check_all(
            &fa.sites,
            &pairing,
            &[std::sync::Arc::new(fa.clone())],
            &config,
        );
        let patches = devs.iter().filter_map(|d| synthesize(d, &fa)).collect();
        (fa, patches)
    }

    #[test]
    fn apply_edits_basic() {
        let src = "abc def ghi";
        let out = apply_edits(
            src,
            &[
                Edit {
                    span: Span::new(4, 7),
                    replacement: "XYZ".into(),
                },
                Edit {
                    span: Span::new(0, 3),
                    replacement: "A".into(),
                },
            ],
        )
        .unwrap();
        assert_eq!(out, "A XYZ ghi");
    }

    #[test]
    fn apply_edits_rejects_overlap() {
        let src = "abcdef";
        assert!(apply_edits(
            src,
            &[
                Edit {
                    span: Span::new(0, 4),
                    replacement: String::new(),
                },
                Edit {
                    span: Span::new(2, 6),
                    replacement: String::new(),
                },
            ],
        )
        .is_none());
    }

    #[test]
    fn diff_renders_hunks() {
        let old = "a\nb\nc\nd\ne\nf\ng\n";
        let new = "a\nb\nc\nX\ne\nf\ng\n";
        let diff = line_diff(old, new, "t.c");
        assert!(diff.contains("--- a/t.c"));
        assert!(diff.contains("-d"));
        assert!(diff.contains("+X"));
        assert!(diff.contains("@@"));
    }

    #[test]
    fn diff_empty_when_equal() {
        let diff = line_diff("same\n", "same\n", "t.c");
        assert!(!diff.contains("@@"));
    }

    /// One LCS over both whole files, split into lines: the reference
    /// that [`line_diff`] must match byte for byte.
    fn whole_file_line_diff(old: &str, new: &str, file: &str) -> String {
        let a: Vec<&str> = old.lines().collect();
        let b: Vec<&str> = new.lines().collect();
        if a.len() * b.len() > 4_000_000 {
            return format!("--- a/{file}\n+++ b/{file}\n(diff too large)\n");
        }
        let n = a.len();
        let m = b.len();
        let mut dp = vec![0u32; (n + 1) * (m + 1)];
        let idx = |i: usize, j: usize| i * (m + 1) + j;
        for i in (0..n).rev() {
            for j in (0..m).rev() {
                dp[idx(i, j)] = if a[i] == b[j] {
                    dp[idx(i + 1, j + 1)] + 1
                } else {
                    dp[idx(i + 1, j)].max(dp[idx(i, j + 1)])
                };
            }
        }
        let mut ops: Vec<(char, usize, usize)> = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < n && j < m {
            if a[i] == b[j] {
                ops.push((' ', i, j));
                i += 1;
                j += 1;
            } else if dp[idx(i + 1, j)] >= dp[idx(i, j + 1)] {
                ops.push(('-', i, j));
                i += 1;
            } else {
                ops.push(('+', i, j));
                j += 1;
            }
        }
        while i < n {
            ops.push(('-', i, j));
            i += 1;
        }
        while j < m {
            ops.push(('+', i, j));
            j += 1;
        }
        const CTX: usize = 3;
        let mut out = format!("--- a/{file}\n+++ b/{file}\n");
        let changes: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, (k, _, _))| *k != ' ')
            .map(|(p, _)| p)
            .collect();
        if changes.is_empty() {
            return out;
        }
        let mut hunk_start = changes[0].saturating_sub(CTX);
        let mut hunk_end = (changes[0] + CTX + 1).min(ops.len());
        let mut hunks: Vec<(usize, usize)> = Vec::new();
        for &c in &changes[1..] {
            if c.saturating_sub(CTX) <= hunk_end {
                hunk_end = (c + CTX + 1).min(ops.len());
            } else {
                hunks.push((hunk_start, hunk_end));
                hunk_start = c.saturating_sub(CTX);
                hunk_end = (c + CTX + 1).min(ops.len());
            }
        }
        hunks.push((hunk_start, hunk_end));
        for (s, e) in hunks {
            let old_start = ops[s].1 + 1;
            let new_start = ops[s].2 + 1;
            let old_count = ops[s..e].iter().filter(|(k, _, _)| *k != '+').count();
            let new_count = ops[s..e].iter().filter(|(k, _, _)| *k != '-').count();
            out.push_str(&format!(
                "@@ -{old_start},{old_count} +{new_start},{new_count} @@\n"
            ));
            for &(k, oi, nj) in &ops[s..e] {
                let text = match k {
                    '-' | ' ' => a.get(oi).copied().unwrap_or(""),
                    _ => b.get(nj).copied().unwrap_or(""),
                };
                out.push(k);
                out.push_str(text);
                out.push('\n');
            }
        }
        out
    }

    #[test]
    fn a_left_over_line_equal_to_the_suffix_redoes_the_table_whole() {
        // Shared suffix "a". The middle, "c" against "a b", leaves both
        // new lines over, and the first equals the suffix's line: the
        // whole-file walk keeps old "a" against new line 1.
        let (old, new) = ("c\na\n", "a\nb\na\n");
        let diff = line_diff(old, new, "t.c");
        assert_eq!(diff, whole_file_line_diff(old, new, "t.c"));
        assert_eq!(
            diff,
            "--- a/t.c\n+++ b/t.c\n@@ -1,2 +1,3 @@\n-c\n a\n+b\n+a\n"
        );
    }

    #[test]
    fn a_small_edit_in_a_long_file_gets_its_hunk() {
        let filler: String = (0..2500).map(|i| format!("int f{i};\n")).collect();
        let old = format!("{filler}x = 1;\n{filler}");
        let new = format!("{filler}x = READ_ONCE(1);\n{filler}");
        assert!(whole_file_line_diff(&old, &new, "t.c").contains("(diff too large)"));
        let diff = line_diff(&old, &new, "t.c");
        assert_eq!(
            diff,
            "--- a/t.c\n+++ b/t.c\n@@ -2498,7 +2498,7 @@\n int f2497;\n int f2498;\n \
             int f2499;\n-x = 1;\n+x = READ_ONCE(1);\n int f0;\n int f1;\n int f2;\n"
        );
    }

    /// Lines from a four-line alphabet: duplicates everywhere, so the
    /// shared head and tail are often long and the fallback common. Its
    /// `"a\r"` is the line `"a"` once a newline follows it, but not as
    /// bytes, and its long line makes texts of several 64-byte blocks.
    fn arb_lines() -> impl proptest::prelude::Strategy<Value = Vec<usize>> {
        proptest::collection::vec(0usize..4, 0..40)
    }

    /// `lines` as text; `trailing` ends the last line with a newline.
    fn text(lines: &[usize], trailing: bool) -> String {
        const ALPHABET: [&str; 4] = ["a", "", "a\r", "\tp->flag = READ_ONCE(q->flag);"];
        let mut s = lines
            .iter()
            .map(|&l| ALPHABET[l])
            .collect::<Vec<_>>()
            .join("\n");
        if trailing && !lines.is_empty() {
            s.push('\n');
        }
        s
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        /// Random edit sets (insert, delete or replace a line at a random
        /// place) applied to random texts.
        #[test]
        fn line_diff_matches_the_whole_file_lcs(
            old in arb_lines(),
            edits in proptest::collection::vec((0usize..32, 0usize..3, 0usize..4), 0..6),
            trailing in 0usize..4,
        ) {
            let mut new = old.clone();
            for (at, kind, line) in edits {
                let at = at % (new.len() + 1);
                match kind {
                    0 => new.insert(at, line),
                    _ if at == new.len() => new.push(line),
                    1 => {
                        new.remove(at);
                    }
                    _ => new[at] = line,
                }
            }
            let (old, new) = (text(&old, trailing & 1 == 1), text(&new, trailing & 2 == 2));
            proptest::prop_assert_eq!(
                line_diff(&old, &new, "t.c"),
                whole_file_line_diff(&old, &new, "t.c")
            );
        }
    }

    #[test]
    fn misplaced_patch_moves_statement() {
        // Patch 1 shape: flag read after the barrier, moved before it.
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
        let (fa, patches) = patches_for(src);
        assert_eq!(patches.len(), 1, "{patches:?}");
        let p = &patches[0];
        let patched = apply_edits(&fa.source, &p.edits).unwrap();
        // The guard must now appear before the rmb.
        let rmb_pos = patched.find("smp_rmb").unwrap();
        let guard_pos = patched.find("if (!req->recd)").unwrap();
        assert!(guard_pos < rmb_pos, "patched:\n{patched}");
        // The patch explains itself.
        assert!(p.explanation.contains("recd"));
        assert!(p.diff.contains("+"));
    }

    #[test]
    fn wrong_type_patch_replaces_barrier() {
        let src = r#"struct s { int data; int flag; };
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
        let (fa, patches) = patches_for(src);
        let p = patches
            .iter()
            .find(|p| p.title.contains("correct barrier type"))
            .expect("wrong-type patch");
        let patched = apply_edits(&fa.source, &p.edits).unwrap();
        assert!(patched.contains("smp_wmb()"), "{patched}");
        // Only the writer's barrier changed.
        assert_eq!(patched.matches("smp_rmb").count(), 1);
    }

    #[test]
    fn repeated_read_patch_reuses_variable() {
        let src = r#"struct reuse { int num; struct sock *socks[8]; int len; };
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
        let (fa, patches) = patches_for(src);
        let p = patches
            .iter()
            .find(|p| p.title.contains("racy re-read"))
            .expect("re-read patch");
        let patched = apply_edits(&fa.source, &p.edits).unwrap();
        assert!(patched.contains("pick(r->socks[n])"), "{patched}");
    }

    #[test]
    fn unneeded_patch_deletes_barrier_line() {
        let src = r#"struct d { int got_token; struct task *task; };
void rq_qos_wake(struct d *data) {
    data->got_token = 1;
    smp_wmb();
    wake_up_process(data->task);
}
"#;
        let (fa, patches) = patches_for(src);
        assert_eq!(patches.len(), 1, "{patches:?}");
        let patched = apply_edits(&fa.source, &patches[0].edits).unwrap();
        assert!(!patched.contains("smp_wmb"), "{patched}");
        assert!(patched.contains("wake_up_process"));
    }

    #[test]
    fn patched_file_reanalyzes_clean() {
        // End-to-end: applying the generated patch removes the diagnostic.
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
        let (fa, patches) = patches_for(src);
        let patched = apply_edits(&fa.source, &patches[0].edits).unwrap();
        let (_, patches2) = patches_for(&patched);
        assert!(
            patches2.is_empty(),
            "patched code still flagged: {patches2:?}"
        );
    }
}
