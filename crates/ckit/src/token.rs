//! Token definitions for the kernel-C lexer.
//!
//! A token borrows its text from the source it was lexed from (or, for a
//! token a [`crate::pp::PpConfig`] macro expands to, from text the config
//! keeps for the life of the process), so a token is `Copy`: lexing
//! allocates only the token vector, and the preprocessor's copies and the
//! final drop cost nothing. Only the AST interns names (see
//! [`crate::parser`]).

use crate::span::Span;
use std::fmt;

/// Kind of a single lexed token.
///
/// Keywords are folded into `Ident` at the lexer level and recognized by the
/// parser via [`TokenKind::Ident`] text comparison against [`is_keyword`];
/// kernel code is full of macro identifiers that shadow near-keywords, so a
/// permissive lexer keeps the front end robust.
///
/// Every payload is the token's own text. It cannot be recovered from
/// the token's span: a macro expansion re-stamps the tokens it produces
/// with the call site's span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind<'src> {
    Ident(&'src str),
    /// Integer literal; we keep the raw text (suffixes like `UL` included)
    /// and the decoded value when it fits in u64.
    Int {
        raw: &'src str,
        value: u64,
    },
    Float(&'src str),
    Str(&'src str),
    Char(&'src str),

    // Punctuation / operators, one variant per lexeme.
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Colon,
    Question,
    Dot,
    Arrow,    // ->
    Ellipsis, // ...
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    Ne,
    AmpAmp,
    PipePipe,
    Shl,
    Shr,
    PlusPlus,
    MinusMinus,
    Assign,
    PlusEq,
    MinusEq,
    StarEq,
    SlashEq,
    PercentEq,
    AmpEq,
    PipeEq,
    CaretEq,
    ShlEq,
    ShrEq,
    /// `#` at start of a preprocessor directive (only emitted by the raw
    /// lexer; the preprocessor consumes these).
    Hash,
    Eof,
}

impl<'src> TokenKind<'src> {
    pub fn ident(&self) -> Option<&'src str> {
        match *self {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    pub fn is_eof(&self) -> bool {
        matches!(self, TokenKind::Eof)
    }

    /// Human-readable lexeme for diagnostics.
    pub fn describe(&self) -> String {
        use TokenKind::*;
        match self {
            Ident(s) => format!("`{s}`"),
            Int { raw, .. } => format!("`{raw}`"),
            Float(s) => format!("`{s}`"),
            Str(_) => "string literal".into(),
            Char(_) => "char literal".into(),
            Eof => "end of file".into(),
            other => format!("`{}`", other.lexeme()),
        }
    }

    /// Fixed lexeme for punctuation tokens; empty for variable tokens.
    pub fn lexeme(&self) -> &'static str {
        use TokenKind::*;
        match self {
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBracket => "[",
            RBracket => "]",
            Semi => ";",
            Comma => ",",
            Colon => ":",
            Question => "?",
            Dot => ".",
            Arrow => "->",
            Ellipsis => "...",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            Amp => "&",
            Pipe => "|",
            Caret => "^",
            Tilde => "~",
            Bang => "!",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            EqEq => "==",
            Ne => "!=",
            AmpAmp => "&&",
            PipePipe => "||",
            Shl => "<<",
            Shr => ">>",
            PlusPlus => "++",
            MinusMinus => "--",
            Assign => "=",
            PlusEq => "+=",
            MinusEq => "-=",
            StarEq => "*=",
            SlashEq => "/=",
            PercentEq => "%=",
            AmpEq => "&=",
            PipeEq => "|=",
            CaretEq => "^=",
            ShlEq => "<<=",
            ShrEq => ">>=",
            Hash => "#",
            _ => "",
        }
    }
}

/// A token with its source span.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Token<'src> {
    pub kind: TokenKind<'src>,
    pub span: Span,
    /// True when this token is the first on its source line (pre-expansion);
    /// the preprocessor uses it to delimit directives.
    pub at_line_start: bool,
}

impl fmt::Debug for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}@{:?}", self.kind, self.span)
    }
}

impl<'src> Token<'src> {
    pub fn new(kind: TokenKind<'src>, span: Span) -> Self {
        Token {
            kind,
            span,
            at_line_start: false,
        }
    }
}

/// C keywords we treat specially in the parser. Everything else that looks
/// like an identifier is an identifier (typedef names are resolved by the
/// parser's type-name heuristics).
pub fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "auto"
            | "break"
            | "case"
            | "char"
            | "const"
            | "continue"
            | "default"
            | "do"
            | "double"
            | "else"
            | "enum"
            | "extern"
            | "float"
            | "for"
            | "goto"
            | "if"
            | "inline"
            | "int"
            | "long"
            | "register"
            | "restrict"
            | "return"
            | "short"
            | "signed"
            | "sizeof"
            | "static"
            | "struct"
            | "switch"
            | "typedef"
            | "union"
            | "unsigned"
            | "void"
            | "volatile"
            | "while"
            | "_Bool"
            | "bool"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_recognized() {
        assert!(is_keyword("struct"));
        assert!(is_keyword("volatile"));
        assert!(!is_keyword("smp_wmb"));
        assert!(!is_keyword("u64"));
    }

    #[test]
    fn describe_punct() {
        assert_eq!(TokenKind::Arrow.describe(), "`->`");
        assert_eq!(TokenKind::ShlEq.describe(), "`<<=`");
    }

    #[test]
    fn describe_ident() {
        assert_eq!(TokenKind::Ident("foo").describe(), "`foo`");
    }
}
