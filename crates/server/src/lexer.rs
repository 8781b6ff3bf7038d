//! Hand-rolled lexer for the query language: keywords, numbers and
//! punctuation, each token carrying its byte span for error reporting.
//!
//! A [`Lexer`] yields one token at a time and allocates nothing: a word
//! borrows the statement text as written (keywords are matched with
//! [`str::eq_ignore_ascii_case`]), and a number is parsed where it stands.

use std::fmt;

/// Half-open byte range into the statement text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// First byte of the token.
    pub start: usize,
    /// One past the last byte.
    pub end: usize,
}

impl Span {
    /// A span covering `start..end`.
    pub fn new(start: usize, end: usize) -> Self {
        Self { start, end }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// What a token is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TokenKind<'a> {
    /// A bare word (keyword candidate), as written.
    Word(&'a str),
    /// A numeric literal (integer or float, optional sign/exponent).
    Number {
        /// The literal's value, correctly rounded.
        value: f64,
        /// The exact value of a plain decimal literal (`[+]digits`) that
        /// fits a `u64`, which `value` loses above 2^53.
        integer: Option<u64>,
    },
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
}

impl TokenKind<'_> {
    /// Short human name for diagnostics (a word uppercased).
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Word(w) => format!("word `{}`", w.to_ascii_uppercase()),
            TokenKind::Number { .. } => "number".to_string(),
            TokenKind::LParen => "`(`".to_string(),
            TokenKind::RParen => "`)`".to_string(),
            TokenKind::Comma => "`,`".to_string(),
            TokenKind::Semi => "`;`".to_string(),
        }
    }
}

/// One lexed token with its source span.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Token<'a> {
    /// The classified token.
    pub kind: TokenKind<'a>,
    /// Where it sits in the statement text.
    pub span: Span,
}

/// A lex-level failure (unexpected byte, malformed number).
#[derive(Clone, Debug, PartialEq)]
pub struct LexError {
    /// The offending bytes.
    pub span: Span,
    /// What went wrong.
    pub message: String,
}

/// The tokens of one statement, in order. Whitespace separates tokens and
/// is otherwise insignificant. After an error the lexer is exhausted.
pub struct Lexer<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self { text, pos: 0 }
    }

    fn punct(&mut self, kind: TokenKind<'a>) -> Token<'a> {
        self.pos += 1;
        Token {
            kind,
            span: Span::new(self.pos - 1, self.pos),
        }
    }

    fn number(&mut self) -> Result<Token<'a>, LexError> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut i = start + 1;
        while i < bytes.len() && matches!(bytes[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        {
            // `+`/`-` continue a number only right after an exponent
            // marker; otherwise they would swallow the next token.
            if matches!(bytes[i], b'+' | b'-') && !matches!(bytes[i - 1], b'e' | b'E') {
                break;
            }
            i += 1;
        }
        self.pos = i;
        let raw = &self.text[start..i];
        let span = Span::new(start, i);
        // A plain decimal literal (`[+]digits`) that fits a `u64`.
        let integer = raw.parse::<u64>().ok();
        let value = match integer {
            // Exact below 2^53, and above it rounded to nearest-even like
            // the decimal parse of the same digits.
            Some(n) => n as f64,
            None => raw.parse().map_err(|_| LexError {
                span,
                message: format!("malformed number `{raw}`"),
            })?,
        };
        Ok(Token {
            kind: TokenKind::Number { value, integer },
            span,
        })
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Token<'a>, LexError>;

    fn next(&mut self) -> Option<Self::Item> {
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() && matches!(bytes[self.pos], b' ' | b'\t' | b'\r' | b'\n') {
            self.pos += 1;
        }
        let start = self.pos;
        let token = match *bytes.get(start)? {
            b'(' => Ok(self.punct(TokenKind::LParen)),
            b')' => Ok(self.punct(TokenKind::RParen)),
            b',' => Ok(self.punct(TokenKind::Comma)),
            b';' => Ok(self.punct(TokenKind::Semi)),
            b'+' | b'-' | b'.' | b'0'..=b'9' => self.number(),
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let mut i = start;
                while i < bytes.len()
                    && matches!(bytes[i], b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
                {
                    i += 1;
                }
                self.pos = i;
                Ok(Token {
                    kind: TokenKind::Word(&self.text[start..i]),
                    span: Span::new(start, i),
                })
            }
            _ => {
                // Report the whole (possibly multi-byte) char, not one byte.
                let ch_len = self.text[start..].chars().next().map_or(1, char::len_utf8);
                Err(LexError {
                    span: Span::new(start, start + ch_len),
                    message: format!(
                        "unexpected character `{}`",
                        &self.text[start..start + ch_len]
                    ),
                })
            }
        };
        if token.is_err() {
            self.pos = bytes.len();
        }
        Some(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(text: &str) -> Result<Vec<Token<'_>>, LexError> {
        Lexer::new(text).collect()
    }

    fn number(value: f64, integer: Option<u64>) -> TokenKind<'static> {
        TokenKind::Number { value, integer }
    }

    #[test]
    fn keywords_are_case_insensitive_and_spanned() {
        let toks = lex("insert Rect (1.0, 2.0)").unwrap();
        assert_eq!(toks[0].kind, TokenKind::Word("insert"));
        assert_eq!(toks[0].span, Span::new(0, 6));
        assert_eq!(toks[1].kind, TokenKind::Word("Rect"));
        assert_eq!(toks[1].kind.describe(), "word `RECT`");
        assert_eq!(toks[2].kind, TokenKind::LParen);
        assert_eq!(toks[3].kind, number(1.0, None));
        assert_eq!(toks[3].span, Span::new(13, 16));
    }

    #[test]
    fn numbers_cover_signs_and_exponents() {
        let toks = lex("-1.5 +2 3e-4 .25").unwrap();
        let vals: Vec<f64> = toks
            .iter()
            .map(|t| match t.kind {
                TokenKind::Number { value, .. } => value,
                _ => panic!("expected number"),
            })
            .collect();
        assert_eq!(vals, vec![-1.5, 2.0, 3e-4, 0.25]);
    }

    #[test]
    fn plain_decimal_literals_carry_their_exact_integer() {
        let toks = lex("+7 007 18446744073709551615 18446744073709551616 -1 5.0 1e3").unwrap();
        let kinds: Vec<_> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            [
                number(7.0, Some(7)),
                number(7.0, Some(7)),
                number(u64::MAX as f64, Some(u64::MAX)),
                number(18446744073709551616.0, None),
                number(-1.0, None),
                number(5.0, None),
                number(1000.0, None),
            ]
        );
        // Above 2^53 the value rounds as the decimal parse does.
        for raw in [
            "9007199254740993",
            "9007199254740995",
            "12345678901234567891",
        ] {
            let value: f64 = raw.parse().unwrap();
            assert_eq!(lex(raw).unwrap()[0].kind, number(value, raw.parse().ok()));
        }
    }

    #[test]
    fn minus_after_digits_does_not_extend_the_number() {
        // `1-2` is two numbers (no infix operators in this grammar).
        let toks = lex("1-2").unwrap();
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].kind, number(1.0, Some(1)));
        assert_eq!(toks[1].kind, number(-2.0, None));
    }

    #[test]
    fn bad_bytes_are_rejected_with_spans() {
        let err = lex("SEARCH @ WINDOW").unwrap_err();
        assert_eq!(err.span, Span::new(7, 8));
        let err = lex("PING é").unwrap_err();
        assert_eq!(err.span, Span::new(5, 7));
        let err = lex("1.2.3 +").unwrap_err();
        assert_eq!(err.span, Span::new(0, 5));
        assert_eq!(err.message, "malformed number `1.2.3`");
        // Nothing follows an error.
        let mut lexer = Lexer::new("@ PING");
        assert!(lexer.next().unwrap().is_err());
        assert!(lexer.next().is_none());
    }
}
