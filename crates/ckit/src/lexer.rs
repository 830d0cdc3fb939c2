//! Hand-written lexer for kernel C.
//!
//! Produces raw tokens including `#` (preprocessor directives are handled by
//! [`crate::pp`] on the token stream). Comments and whitespace are skipped;
//! line continuations (`\` + newline) are honoured inside directives by the
//! preprocessor via the `at_line_start` flag on each token.
//!
//! Every token's payload is a slice of the source, so the token vector
//! is the one allocation a lex makes.

use crate::error::{Error, Result};
use crate::span::Span;
use crate::token::{Token, TokenKind};

pub struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// True until the first token of the current line is produced.
    line_start: bool,
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line_start: true,
        }
    }

    /// Lex the whole input. The final token is always `Eof`.
    pub fn tokenize(mut self) -> Result<Vec<Token<'a>>> {
        let mut out = Vec::with_capacity(self.src.len() / 4);
        loop {
            let tok = self.next_token()?;
            let eof = tok.kind.is_eof();
            out.push(tok);
            if eof {
                break;
            }
        }
        Ok(out)
    }

    fn peek(&self) -> u8 {
        *self.bytes.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.bytes.get(self.pos + 1).unwrap_or(&0)
    }

    fn peek3(&self) -> u8 {
        *self.bytes.get(self.pos + 2).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek();
        self.pos += 1;
        b
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                b'\n' => {
                    self.line_start = true;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' | 0x0b | 0x0c => {
                    self.pos += 1;
                }
                b'\\' if self.peek2() == b'\n' => {
                    // Line continuation: the next physical line is a logical
                    // continuation, so it does NOT start a new line.
                    self.pos += 2;
                }
                b'\\' if self.peek2() == b'\r' && self.peek3() == b'\n' => {
                    self.pos += 3;
                }
                b'/' if self.peek2() == b'/' => {
                    while self.peek() != b'\n' && self.peek() != 0 {
                        self.pos += 1;
                    }
                }
                b'/' if self.peek2() == b'*' => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        if self.pos >= self.bytes.len() {
                            return Err(Error::lex(
                                "unterminated block comment",
                                Span::new(start as u32, self.pos as u32),
                            ));
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.pos += 2;
                            break;
                        }
                        if self.peek() == b'\n' {
                            self.line_start = true;
                        }
                        self.pos += 1;
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Token<'a>> {
        self.skip_trivia()?;
        let at_line_start = self.line_start;
        self.line_start = false;
        let start = self.pos;
        let kind = self.next_kind(start)?;
        let mut tok = Token::new(kind, Span::new(start as u32, self.pos as u32));
        tok.at_line_start = at_line_start;
        Ok(tok)
    }

    fn next_kind(&mut self, start: usize) -> Result<TokenKind<'a>> {
        use TokenKind::*;
        let c = self.peek();
        if c == 0 {
            return Ok(Eof);
        }
        if c.is_ascii_alphabetic() || c == b'_' || c == b'$' {
            return Ok(self.ident(start));
        }
        if c.is_ascii_digit() {
            return self.number(start);
        }
        if c == b'.' && self.peek2().is_ascii_digit() {
            return self.number(start);
        }
        if c == b'"' {
            return self.string(start);
        }
        if c == b'\'' {
            return self.char_lit(start);
        }
        self.bump();
        let two = |l: &mut Self, next: u8, yes: TokenKind<'a>, no: TokenKind<'a>| {
            if l.peek() == next {
                l.bump();
                yes
            } else {
                no
            }
        };
        Ok(match c {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b'?' => Question,
            b'~' => Tilde,
            b'#' => Hash,
            b':' => Colon,
            b'.' => {
                if self.peek() == b'.' && self.peek2() == b'.' {
                    self.pos += 2;
                    Ellipsis
                } else {
                    Dot
                }
            }
            b'+' => {
                if self.peek() == b'+' {
                    self.bump();
                    PlusPlus
                } else {
                    two(self, b'=', PlusEq, Plus)
                }
            }
            b'-' => {
                if self.peek() == b'-' {
                    self.bump();
                    MinusMinus
                } else if self.peek() == b'>' {
                    self.bump();
                    Arrow
                } else {
                    two(self, b'=', MinusEq, Minus)
                }
            }
            b'*' => two(self, b'=', StarEq, Star),
            b'/' => two(self, b'=', SlashEq, Slash),
            b'%' => two(self, b'=', PercentEq, Percent),
            b'^' => two(self, b'=', CaretEq, Caret),
            b'!' => two(self, b'=', Ne, Bang),
            b'=' => two(self, b'=', EqEq, Assign),
            b'&' => {
                if self.peek() == b'&' {
                    self.bump();
                    AmpAmp
                } else {
                    two(self, b'=', AmpEq, Amp)
                }
            }
            b'|' => {
                if self.peek() == b'|' {
                    self.bump();
                    PipePipe
                } else {
                    two(self, b'=', PipeEq, Pipe)
                }
            }
            b'<' => {
                if self.peek() == b'<' {
                    self.bump();
                    two(self, b'=', ShlEq, Shl)
                } else {
                    two(self, b'=', Le, Lt)
                }
            }
            b'>' => {
                if self.peek() == b'>' {
                    self.bump();
                    two(self, b'=', ShrEq, Shr)
                } else {
                    two(self, b'=', Ge, Gt)
                }
            }
            other => {
                return Err(Error::lex(
                    format!("unexpected character `{}`", other as char),
                    Span::new(start as u32, self.pos as u32),
                ))
            }
        })
    }

    fn ident(&mut self, start: usize) -> TokenKind<'a> {
        while {
            let c = self.peek();
            c.is_ascii_alphanumeric() || c == b'_' || c == b'$'
        } {
            self.pos += 1;
        }
        TokenKind::Ident(&self.src[start..self.pos])
    }

    fn number(&mut self, start: usize) -> Result<TokenKind<'a>> {
        let mut is_float = false;
        if self.peek() == b'0' && (self.peek2() | 0x20) == b'x' {
            self.pos += 2;
            while self.peek().is_ascii_hexdigit() {
                self.pos += 1;
            }
        } else {
            while self.peek().is_ascii_digit() {
                self.pos += 1;
            }
            if self.peek() == b'.' && self.peek2() != b'.' {
                is_float = true;
                self.pos += 1;
                while self.peek().is_ascii_digit() {
                    self.pos += 1;
                }
            }
            if (self.peek() | 0x20) == b'e'
                && (self.peek2().is_ascii_digit()
                    || ((self.peek2() == b'+' || self.peek2() == b'-')
                        && self.peek3().is_ascii_digit()))
            {
                is_float = true;
                self.pos += 2;
                while self.peek().is_ascii_digit() {
                    self.pos += 1;
                }
            }
        }
        // Integer/float suffixes: u, l, ll, f combinations (case-insensitive).
        while matches!(self.peek() | 0x20, b'u' | b'l' | b'f') {
            if (self.peek() | 0x20) == b'f' {
                is_float = true;
            }
            self.pos += 1;
        }
        let raw = &self.src[start..self.pos];
        if is_float {
            return Ok(TokenKind::Float(raw));
        }
        let digits = raw.trim_end_matches(['u', 'U', 'l', 'L']);
        let value = if let Some(hex) = digits.strip_prefix("0x").or(digits.strip_prefix("0X")) {
            u64::from_str_radix(hex, 16).unwrap_or(u64::MAX)
        } else if digits.len() > 1 && digits.starts_with('0') {
            u64::from_str_radix(&digits[1..], 8).unwrap_or(u64::MAX)
        } else {
            digits.parse().unwrap_or(u64::MAX)
        };
        Ok(TokenKind::Int { raw, value })
    }

    fn string(&mut self, start: usize) -> Result<TokenKind<'a>> {
        self.bump(); // opening quote
        while self.peek() != b'"' {
            match self.peek() {
                0 | b'\n' => {
                    return Err(Error::lex(
                        "unterminated string literal",
                        Span::new(start as u32, self.pos as u32),
                    ))
                }
                b'\\' => {
                    self.pos += 2;
                }
                _ => self.pos += 1,
            }
        }
        self.bump(); // closing quote
        Ok(TokenKind::Str(&self.src[start..self.pos]))
    }

    fn char_lit(&mut self, start: usize) -> Result<TokenKind<'a>> {
        self.bump(); // opening quote
        while self.peek() != b'\'' {
            match self.peek() {
                0 | b'\n' => {
                    return Err(Error::lex(
                        "unterminated char literal",
                        Span::new(start as u32, self.pos as u32),
                    ))
                }
                b'\\' => self.pos += 2,
                _ => self.pos += 1,
            }
        }
        self.bump();
        Ok(TokenKind::Char(&self.src[start..self.pos]))
    }
}

/// Convenience: lex a full source string.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>> {
    Lexer::new(src).tokenize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .filter(|k| !k.is_eof())
            .collect()
    }

    #[test]
    fn punctuation_maximal_munch() {
        assert_eq!(kinds("a->b"), vec![Ident("a"), Arrow, Ident("b")]);
        assert_eq!(kinds("<<="), vec![ShlEq]);
        assert_eq!(kinds("< <="), vec![Lt, Le]);
        assert_eq!(
            kinds("a---b"),
            vec![Ident("a"), MinusMinus, Minus, Ident("b")]
        );
    }

    #[test]
    fn integers() {
        assert_eq!(
            kinds("0x1fUL 42 010"),
            vec![
                Int {
                    raw: "0x1fUL",
                    value: 31
                },
                Int {
                    raw: "42",
                    value: 42
                },
                Int {
                    raw: "010",
                    value: 8
                },
            ]
        );
    }

    #[test]
    fn floats() {
        assert_eq!(kinds("1.5"), vec![Float("1.5")]);
        assert_eq!(kinds("2e10"), vec![Float("2e10")]);
        assert_eq!(kinds("3.0f"), vec![Float("3.0f")]);
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("a /* hi */ b // tail\nc"),
            vec![Ident("a"), Ident("b"), Ident("c")]
        );
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(lex("/* oops").is_err());
    }

    #[test]
    fn strings_and_chars() {
        assert_eq!(
            kinds(r#""he\"y" 'x' '\n'"#),
            vec![Str(r#""he\"y""#), Char("'x'"), Char(r"'\n'")]
        );
    }

    #[test]
    fn line_start_flags() {
        let toks = lex("#define A 1\nint x;").unwrap();
        assert_eq!(toks[0].kind, Hash);
        assert!(toks[0].at_line_start);
        assert!(!toks[1].at_line_start); // define
        assert!(toks[4].at_line_start); // int
    }

    #[test]
    fn line_continuation_not_line_start() {
        let toks = lex("#define A \\\n 1\nint").unwrap();
        // `1` continues the directive line.
        let one = toks.iter().find(|t| matches!(t.kind, Int { .. })).unwrap();
        assert!(!one.at_line_start);
        let int_kw = toks.iter().find(|t| t.kind.ident() == Some("int")).unwrap();
        assert!(int_kw.at_line_start);
    }

    #[test]
    fn ellipsis_vs_dots() {
        assert_eq!(kinds("f(...)"), vec![Ident("f"), LParen, Ellipsis, RParen]);
        assert_eq!(kinds("a.b"), vec![Ident("a"), Dot, Ident("b")]);
    }

    #[test]
    fn spans_cover_source() {
        let src = "ab + cd";
        let toks = lex(src).unwrap();
        assert_eq!(toks[0].span.slice(src), "ab");
        assert_eq!(toks[1].span.slice(src), "+");
        assert_eq!(toks[2].span.slice(src), "cd");
    }

    #[test]
    fn bad_char_errors() {
        assert!(lex("int @x;").is_err());
    }
}
