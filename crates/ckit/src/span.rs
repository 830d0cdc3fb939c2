//! Byte-offset spans and line/column mapping over a single source file.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A half-open byte range `[lo, hi)` into one source file.
///
/// Spans are produced by the lexer and threaded through every AST node so
/// that downstream passes (diagnostics, patch synthesis) can point back at
/// the original text.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Span {
    pub lo: u32,
    pub hi: u32,
}

impl Span {
    pub const DUMMY: Span = Span { lo: 0, hi: 0 };

    pub fn new(lo: u32, hi: u32) -> Self {
        debug_assert!(lo <= hi, "inverted span {lo}..{hi}");
        Span { lo, hi }
    }

    /// Smallest span covering both `self` and `other`.
    ///
    /// A dummy span is the identity: joining with it returns the other span
    /// unchanged, so synthesized nodes do not drag real spans to offset 0.
    pub fn to(self, other: Span) -> Span {
        if self == Span::DUMMY {
            return other;
        }
        if other == Span::DUMMY {
            return self;
        }
        Span::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    pub fn len(self) -> u32 {
        self.hi - self.lo
    }

    pub fn is_empty(self) -> bool {
        self.lo == self.hi
    }

    pub fn contains(self, other: Span) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Extract the spanned text out of the original source.
    pub fn slice(self, src: &str) -> &str {
        &src[self.lo as usize..self.hi as usize]
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.lo, self.hi)
    }
}

/// 1-based line/column position.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct LineCol {
    pub line: u32,
    pub col: u32,
}

/// Maps byte offsets of one file to line/column positions.
///
/// Built once per file; lookups are `O(log #lines)`.
#[derive(Clone, Debug)]
pub struct SourceMap {
    /// Name used in diagnostics (e.g. `net/core/sock_reuseport.c`).
    pub file: String,
    /// Byte offset of the start of each line; `line_starts[0] == 0`.
    line_starts: Vec<u32>,
    len: u32,
}

impl SourceMap {
    pub fn new(file: impl Into<String>, src: &str) -> Self {
        let mut line_starts = vec![0u32];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        SourceMap {
            file: file.into(),
            line_starts,
            len: src.len() as u32,
        }
    }

    pub fn len(&self) -> u32 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Line/column of a byte offset. Offsets past the end clamp to the last
    /// position rather than panicking: diagnostics should never abort a run.
    pub fn lookup(&self, offset: u32) -> LineCol {
        let offset = offset.min(self.len);
        let line = match self.line_starts.binary_search(&offset) {
            Ok(l) => l,
            Err(l) => l - 1,
        };
        LineCol {
            line: line as u32 + 1,
            col: offset - self.line_starts[line] + 1,
        }
    }

    /// Byte span of an entire (1-based) line, excluding the newline.
    pub fn line_span(&self, line: u32) -> Option<Span> {
        let idx = line.checked_sub(1)? as usize;
        let lo = *self.line_starts.get(idx)?;
        let hi = self
            .line_starts
            .get(idx + 1)
            .map(|&next| next.saturating_sub(1))
            .unwrap_or(self.len);
        Some(Span::new(lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_join() {
        let a = Span::new(4, 10);
        let b = Span::new(7, 20);
        assert_eq!(a.to(b), Span::new(4, 20));
        assert_eq!(b.to(a), Span::new(4, 20));
        assert_eq!(Span::DUMMY.to(a), a);
        assert_eq!(a.to(Span::DUMMY), a);
    }

    #[test]
    fn span_slice() {
        let src = "hello world";
        assert_eq!(Span::new(6, 11).slice(src), "world");
    }

    #[test]
    fn lookup_first_line() {
        let sm = SourceMap::new("t.c", "abc\ndef\n");
        assert_eq!(sm.lookup(0), LineCol { line: 1, col: 1 });
        assert_eq!(sm.lookup(2), LineCol { line: 1, col: 3 });
    }

    #[test]
    fn lookup_second_line() {
        let sm = SourceMap::new("t.c", "abc\ndef\n");
        assert_eq!(sm.lookup(4), LineCol { line: 2, col: 1 });
        assert_eq!(sm.lookup(6), LineCol { line: 2, col: 3 });
    }

    #[test]
    fn lookup_at_newline_belongs_to_current_line() {
        let sm = SourceMap::new("t.c", "ab\ncd");
        assert_eq!(sm.lookup(2), LineCol { line: 1, col: 3 });
    }

    #[test]
    fn lookup_clamps_past_end() {
        let sm = SourceMap::new("t.c", "ab");
        assert_eq!(sm.lookup(100), LineCol { line: 1, col: 3 });
    }

    #[test]
    fn line_span_roundtrip() {
        let src = "one\ntwo\nthree";
        let sm = SourceMap::new("t.c", src);
        assert_eq!(sm.line_span(1).unwrap().slice(src), "one");
        assert_eq!(sm.line_span(2).unwrap().slice(src), "two");
        assert_eq!(sm.line_span(3).unwrap().slice(src), "three");
        assert_eq!(sm.line_span(4), None);
        assert_eq!(sm.line_span(0), None);
    }

    #[test]
    fn empty_file() {
        let sm = SourceMap::new("t.c", "");
        assert_eq!(sm.line_span(1).map(|s| s.slice("")), Some(""));
        assert_eq!(sm.line_span(2), None);
        assert_eq!(sm.lookup(0), LineCol { line: 1, col: 1 });
    }
}
