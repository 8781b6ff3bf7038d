//! Recursive-descent parser for the query language.
//!
//! # Grammar
//!
//! ```text
//! statement := insert | delete | search | stab | nearest
//!            | record | asof | within
//!            | "FLUSH" | "PING" | "STATS" | "METRICS"            [";"]
//! insert    := "INSERT" "RECT" point point "ID" integer
//! delete    := "DELETE" "ID" integer "RECT" point point
//! search    := "SEARCH" "WINDOW" point point
//! stab      := "STAB" "POINT" point
//! nearest   := "NEAREST" "POINT" point "K" integer
//! record    := "RECORD" integer "VALUE" number "AT" number
//! asof      := "AS" "OF" number
//! within    := "WITHIN" "(" number "," number ")" "DURATION" number number
//! point     := "(" number { "," number } ")"
//! ```
//!
//! Keywords are case-insensitive; an optional trailing `;` is accepted.
//! Points are dimension-agnostic at parse time (`Vec<f64>`); arity is
//! validated when the statement is executed against a `D`-dimensional
//! index, so the same parser serves every instantiation.
//!
//! The parser pulls borrowed tokens from a [`Lexer`] one at a time, so a
//! statement parses without allocating: a point's coordinates are the
//! only heap memory a parsed statement holds, and error paths alone build
//! strings.

use crate::lexer::{LexError, Lexer, Span, Token, TokenKind};
use std::fmt;

/// A parsed point: one coordinate per dimension.
pub type Point = Vec<f64>;

/// One parsed statement of the query language.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    /// `INSERT RECT (lo…) (hi…) ID n`
    Insert {
        /// Low corner of the rectangle.
        lo: Point,
        /// High corner of the rectangle.
        hi: Point,
        /// Caller-assigned record id.
        id: u64,
    },
    /// `DELETE ID n RECT (lo…) (hi…)`
    Delete {
        /// Record id to delete.
        id: u64,
        /// Low corner the record was inserted with.
        lo: Point,
        /// High corner the record was inserted with.
        hi: Point,
    },
    /// `SEARCH WINDOW (lo…) (hi…)`
    Search {
        /// Low corner of the query window.
        lo: Point,
        /// High corner of the query window.
        hi: Point,
    },
    /// `STAB POINT (p…)`
    Stab {
        /// The stabbing point.
        point: Point,
    },
    /// `NEAREST POINT (p…) K n`
    Nearest {
        /// The query point.
        point: Point,
        /// How many neighbours to return.
        k: usize,
    },
    /// `RECORD k VALUE v AT t` — open a new temporal version of key `k`
    /// (closing its predecessor, paper Figure 1 style).
    Record {
        /// The key whose history is extended.
        key: u64,
        /// The attribute value the new version carries.
        value: f64,
        /// Valid-time start of the new version.
        at: f64,
    },
    /// `AS OF t` — temporal stab: every version valid at time `t`.
    AsOf {
        /// The query timestamp.
        t: f64,
    },
    /// `WITHIN (t1, t2) DURATION lo hi` — versions overlapping the time
    /// window whose lifetime (open versions measured to the horizon)
    /// falls in `[lo, hi]`.
    Within {
        /// Start of the time window.
        t1: f64,
        /// End of the time window.
        t2: f64,
        /// Minimum version duration (inclusive).
        lo: f64,
        /// Maximum version duration (inclusive).
        hi: f64,
    },
    /// `FLUSH` — wait until every submitted write is applied.
    Flush,
    /// `PING` — liveness check.
    Ping,
    /// `STATS` — one-line server counters.
    Stats,
    /// `METRICS` — full metrics registry as JSON.
    Metrics,
}

/// The statement kinds, as `segidx_server_requests_total` labels them
/// (`op`), in export order; [`Statement::op`] indexes it.
pub const OPS: [&str; 12] = [
    "search", "stab", "nearest", "insert", "delete", "record", "as_of", "within", "flush", "ping",
    "stats", "metrics",
];

impl Statement {
    /// This statement's kind: its index into [`OPS`].
    pub fn op(&self) -> usize {
        match self {
            Statement::Search { .. } => 0,
            Statement::Stab { .. } => 1,
            Statement::Nearest { .. } => 2,
            Statement::Insert { .. } => 3,
            Statement::Delete { .. } => 4,
            Statement::Record { .. } => 5,
            Statement::AsOf { .. } => 6,
            Statement::Within { .. } => 7,
            Statement::Flush => 8,
            Statement::Ping => 9,
            Statement::Stats => 10,
            Statement::Metrics => 11,
        }
    }

    /// Whether this statement mutates the index (or the temporal table).
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Statement::Insert { .. } | Statement::Delete { .. } | Statement::Record { .. }
        )
    }
}

fn write_point(f: &mut fmt::Formatter<'_>, p: &[f64]) -> fmt::Result {
    write!(f, "(")?;
    for (i, c) in p.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        // `{:?}` prints the shortest representation that round-trips the
        // f64 exactly, which the proptest print→parse test relies on.
        write!(f, "{c:?}")?;
    }
    write!(f, ")")
}

impl fmt::Display for Statement {
    /// Prints the canonical form, which re-parses to an equal statement.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Insert { lo, hi, id } => {
                write!(f, "INSERT RECT ")?;
                write_point(f, lo)?;
                write!(f, " ")?;
                write_point(f, hi)?;
                write!(f, " ID {id}")
            }
            Statement::Delete { id, lo, hi } => {
                write!(f, "DELETE ID {id} RECT ")?;
                write_point(f, lo)?;
                write!(f, " ")?;
                write_point(f, hi)
            }
            Statement::Search { lo, hi } => {
                write!(f, "SEARCH WINDOW ")?;
                write_point(f, lo)?;
                write!(f, " ")?;
                write_point(f, hi)
            }
            Statement::Stab { point } => {
                write!(f, "STAB POINT ")?;
                write_point(f, point)
            }
            Statement::Nearest { point, k } => {
                write!(f, "NEAREST POINT ")?;
                write_point(f, point)?;
                write!(f, " K {k}")
            }
            Statement::Record { key, value, at } => {
                write!(f, "RECORD {key} VALUE {value:?} AT {at:?}")
            }
            Statement::AsOf { t } => write!(f, "AS OF {t:?}"),
            Statement::Within { t1, t2, lo, hi } => {
                write!(f, "WITHIN ({t1:?}, {t2:?}) DURATION {lo:?} {hi:?}")
            }
            Statement::Flush => write!(f, "FLUSH"),
            Statement::Ping => write!(f, "PING"),
            Statement::Stats => write!(f, "STATS"),
            Statement::Metrics => write!(f, "METRICS"),
        }
    }
}

/// A parse (or lex) failure with the byte span it points at.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Byte range of the offending text (empty span at end-of-input for
    /// truncated statements).
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Pulls tokens from the lexer one at a time; nothing but the points'
/// coordinate vectors is allocated.
struct Parser<'a> {
    tokens: Lexer<'a>,
    eof: usize,
}

impl<'a> Parser<'a> {
    fn next(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        self.tokens.next().transpose().map_err(ParseError::from)
    }

    /// The error for `found` (a token, or the end of the statement) where
    /// `expected` should have been.
    fn unexpected(&self, expected: &str, found: Option<Token<'a>>) -> ParseError {
        match found {
            Some(t) => ParseError {
                span: t.span,
                message: format!("expected {expected}, found {}", t.kind.describe()),
            },
            None => ParseError {
                span: Span::new(self.eof, self.eof),
                message: format!("expected {expected}, found end of statement"),
            },
        }
    }

    fn expect_word(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next()? {
            Some(Token {
                kind: TokenKind::Word(w),
                ..
            }) if w.eq_ignore_ascii_case(kw) => Ok(()),
            found => Err(self.unexpected(&format!("`{kw}`"), found)),
        }
    }

    fn expect_kind(&mut self, kind: TokenKind<'_>, what: &str) -> Result<(), ParseError> {
        match self.next()? {
            Some(t) if t.kind == kind => Ok(()),
            found => Err(self.unexpected(what, found)),
        }
    }

    /// A number: its value, its exact integer if it is a plain decimal
    /// literal that fits a `u64`, and its span.
    fn number(&mut self, what: &str) -> Result<(f64, Option<u64>, Span), ParseError> {
        match self.next()? {
            Some(Token {
                kind: TokenKind::Number { value, integer },
                span,
            }) => Ok((value, integer, span)),
            found => Err(self.unexpected(what, found)),
        }
    }

    fn integer(&mut self, what: &str) -> Result<u64, ParseError> {
        let (v, exact, span) = self.number(what)?;
        // The token value is an f64, which loses precision above 2^53;
        // plain decimal literals carry their exact digits' value so every
        // u64 id round-trips exactly. Exponent/decimal forms (`1e3`,
        // `5.0`) fall through to the f64 path, which stops at 2^53: above
        // it the f64 has already rounded to a neighbouring integer, and
        // from 2^64 up `as u64` saturates — either way the statement
        // would name a different id than the client wrote.
        if let Some(exact) = exact {
            return Ok(exact);
        }
        if v < 0.0 || v.fract() != 0.0 || v >= 9_007_199_254_740_992.0 {
            return Err(ParseError {
                span,
                message: format!("expected non-negative integer for {what}, found `{v}`"),
            });
        }
        Ok(v as u64)
    }

    /// A number that must be finite (timestamps, values, durations).
    fn finite(&mut self, what: &str) -> Result<f64, ParseError> {
        let (v, _, span) = self.number(what)?;
        if !v.is_finite() {
            return Err(ParseError {
                span,
                message: format!("{what} must be finite"),
            });
        }
        Ok(v)
    }

    fn point(&mut self) -> Result<Point, ParseError> {
        self.expect_kind(TokenKind::LParen, "`(`")?;
        let mut coords = Vec::new();
        loop {
            let (v, _, span) = self.number("coordinate")?;
            if !v.is_finite() {
                return Err(ParseError {
                    span,
                    message: "coordinates must be finite".to_string(),
                });
            }
            coords.push(v);
            match self.next()? {
                Some(Token {
                    kind: TokenKind::Comma,
                    ..
                }) => continue,
                Some(Token {
                    kind: TokenKind::RParen,
                    ..
                }) => break,
                found => return Err(self.unexpected("`,` or `)`", found)),
            }
        }
        Ok(coords)
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        let (head, span) = match self.next()? {
            Some(Token {
                kind: TokenKind::Word(w),
                span,
            }) => (w, span),
            Some(t) => {
                return Err(ParseError {
                    span: t.span,
                    message: format!("expected a statement keyword, found {}", t.kind.describe()),
                })
            }
            None => {
                return Err(ParseError {
                    span: Span::new(0, 0),
                    message: "empty statement".to_string(),
                })
            }
        };
        let is = |kw: &str| head.eq_ignore_ascii_case(kw);
        let stmt = if is("INSERT") {
            self.expect_word("RECT")?;
            let lo = self.point()?;
            let hi = self.point()?;
            self.expect_word("ID")?;
            let id = self.integer("record id")?;
            Statement::Insert { lo, hi, id }
        } else if is("DELETE") {
            self.expect_word("ID")?;
            let id = self.integer("record id")?;
            self.expect_word("RECT")?;
            let lo = self.point()?;
            let hi = self.point()?;
            Statement::Delete { id, lo, hi }
        } else if is("SEARCH") {
            self.expect_word("WINDOW")?;
            let lo = self.point()?;
            let hi = self.point()?;
            Statement::Search { lo, hi }
        } else if is("STAB") {
            self.expect_word("POINT")?;
            let point = self.point()?;
            Statement::Stab { point }
        } else if is("NEAREST") {
            self.expect_word("POINT")?;
            let point = self.point()?;
            self.expect_word("K")?;
            let k = self.integer("neighbour count")? as usize;
            Statement::Nearest { point, k }
        } else if is("RECORD") {
            let key = self.integer("key")?;
            self.expect_word("VALUE")?;
            let value = self.finite("value")?;
            self.expect_word("AT")?;
            let at = self.finite("timestamp")?;
            Statement::Record { key, value, at }
        } else if is("AS") {
            self.expect_word("OF")?;
            let t = self.finite("timestamp")?;
            Statement::AsOf { t }
        } else if is("WITHIN") {
            self.expect_kind(TokenKind::LParen, "`(`")?;
            let t1 = self.finite("window start")?;
            self.expect_kind(TokenKind::Comma, "`,`")?;
            let t2 = self.finite("window end")?;
            self.expect_kind(TokenKind::RParen, "`)`")?;
            self.expect_word("DURATION")?;
            let lo = self.finite("minimum duration")?;
            let hi = self.finite("maximum duration")?;
            Statement::Within { t1, t2, lo, hi }
        } else if is("FLUSH") {
            Statement::Flush
        } else if is("PING") {
            Statement::Ping
        } else if is("STATS") {
            Statement::Stats
        } else if is("METRICS") {
            Statement::Metrics
        } else {
            return Err(ParseError {
                span,
                message: format!("unknown statement `{}`", head.to_ascii_uppercase()),
            });
        };
        // Optional trailing semicolon, then end of input.
        let mut after = self.next()?;
        if matches!(after, Some(t) if t.kind == TokenKind::Semi) {
            after = self.next()?;
        }
        if let Some(t) = after {
            return Err(ParseError {
                span: t.span,
                message: format!("trailing {} after statement", t.kind.describe()),
            });
        }
        Ok(stmt)
    }
}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            span: e.span,
            message: e.message,
        }
    }
}

/// Parses one statement of the query language.
///
/// A statement that does not lex is refused for its first bad token, even
/// where the grammar went wrong earlier: the error is the one a whole-text
/// lex would report first.
pub fn parse(text: &str) -> Result<Statement, ParseError> {
    let mut p = Parser {
        tokens: Lexer::new(text),
        eof: text.len(),
    };
    p.statement()
        .map_err(|e| p.tokens.find_map(Result::err).map_or(e, ParseError::from))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_statement_form_parses() {
        assert_eq!(
            parse("INSERT RECT (1.0, 2.0) (3.0, 4.0) ID 7").unwrap(),
            Statement::Insert {
                lo: vec![1.0, 2.0],
                hi: vec![3.0, 4.0],
                id: 7
            }
        );
        assert_eq!(
            parse("delete id 7 rect (1, 2) (3, 4);").unwrap(),
            Statement::Delete {
                id: 7,
                lo: vec![1.0, 2.0],
                hi: vec![3.0, 4.0]
            }
        );
        assert_eq!(
            parse("SEARCH WINDOW (0,0) (10,10)").unwrap(),
            Statement::Search {
                lo: vec![0.0, 0.0],
                hi: vec![10.0, 10.0]
            }
        );
        assert_eq!(
            parse("STAB POINT (5.5, -2e3)").unwrap(),
            Statement::Stab {
                point: vec![5.5, -2e3]
            }
        );
        assert_eq!(
            parse("NEAREST POINT (1, 1) K 3").unwrap(),
            Statement::Nearest {
                point: vec![1.0, 1.0],
                k: 3
            }
        );
        assert_eq!(parse("FLUSH").unwrap(), Statement::Flush);
        assert_eq!(parse("ping;").unwrap(), Statement::Ping);
        assert_eq!(parse("STATS").unwrap(), Statement::Stats);
        assert_eq!(parse("METRICS").unwrap(), Statement::Metrics);
    }

    #[test]
    fn temporal_statement_forms_parse() {
        assert_eq!(
            parse("RECORD 1 VALUE 30000 AT 1975.0").unwrap(),
            Statement::Record {
                key: 1,
                value: 30_000.0,
                at: 1975.0
            }
        );
        assert_eq!(
            parse("as of 1977.5;").unwrap(),
            Statement::AsOf { t: 1977.5 }
        );
        assert_eq!(
            parse("WITHIN (1975, 1980) DURATION 0 2.5").unwrap(),
            Statement::Within {
                t1: 1975.0,
                t2: 1980.0,
                lo: 0.0,
                hi: 2.5
            }
        );
    }

    #[test]
    fn temporal_error_spans_point_at_the_offending_token() {
        let err = parse("RECORD 1 VALUE 3 BY 5").unwrap_err();
        assert_eq!(err.span, Span::new(17, 19));
        assert!(err.message.contains("expected `AT`"), "{}", err.message);

        let err = parse("AS OF 1e999").unwrap_err();
        assert_eq!(err.span, Span::new(6, 11));
        assert!(err.message.contains("finite"), "{}", err.message);

        let err = parse("WITHIN (1, 2) DURATION 0").unwrap_err();
        assert_eq!(err.span, Span::new(24, 24));
        assert!(err.message.contains("end of statement"), "{}", err.message);
    }

    #[test]
    fn error_spans_point_at_the_offending_token() {
        let err = parse("INSERT RECT (1,2) (3,4) IDX 7").unwrap_err();
        assert_eq!(err.span, Span::new(24, 27));
        assert!(err.message.contains("expected `ID`"), "{}", err.message);

        let err = parse("SEARCH WINDOW (1,2)").unwrap_err();
        assert_eq!(err.span, Span::new(19, 19));
        assert!(err.message.contains("end of statement"), "{}", err.message);

        let err = parse("NEAREST POINT (1,1) K -2").unwrap_err();
        assert_eq!(err.span, Span::new(22, 24));
        assert!(
            err.message.contains("non-negative integer"),
            "{}",
            err.message
        );

        let err = parse("SEARCH WINDOW (1e999, 0) (1, 1)").unwrap_err();
        assert!(err.message.contains("finite"), "{}", err.message);

        let err = parse("BOGUS 1 2 3").unwrap_err();
        assert_eq!(err.span, Span::new(0, 5));
    }

    #[test]
    fn large_u64_ids_keep_full_precision() {
        // Above 2^53 the lexer's f64 token value rounds; the parser must
        // recover the exact id from the raw digits.
        let id = u64::MAX - 1403;
        let stmt = parse(&format!("DELETE ID {id} RECT (0) (1)")).unwrap();
        assert_eq!(
            stmt,
            Statement::Delete {
                id,
                lo: vec![0.0],
                hi: vec![1.0]
            }
        );
        // Non-literal integer forms still go through the f64 path.
        assert_eq!(
            parse("NEAREST POINT (0) K 1e3").unwrap(),
            Statement::Nearest {
                point: vec![0.0],
                k: 1000
            }
        );
    }

    #[test]
    fn integers_an_f64_cannot_hold_exactly_are_refused_not_rounded() {
        // 2^64 (`u64::MAX as f64` is 2^64 too, so `>` let it through and
        // `as u64` saturated it onto the real id `u64::MAX`), the same
        // value in exponent form, and 2^53 + 1 written so that only the
        // f64 path can read it (it would come back as 2^53).
        for literal in [
            "18446744073709551616",
            "1.8446744073709552e19",
            "9007199254740993.0",
            "9007199254740992.0",
        ] {
            for text in [
                format!("INSERT RECT (0) (1) ID {literal}"),
                format!("DELETE ID {literal} RECT (0) (1)"),
                format!("RECORD {literal} VALUE 1 AT 11"),
                format!("NEAREST POINT (0) K {literal}"),
            ] {
                let err = parse(&text).unwrap_err();
                assert!(
                    err.message.contains("expected non-negative integer"),
                    "{text}: {}",
                    err.message
                );
            }
        }
        // What the f64 path does hold exactly still parses, as does every
        // plain decimal literal up to `u64::MAX`.
        for (literal, id) in [
            ("9007199254740991.0", (1u64 << 53) - 1),
            ("9007199254740993", (1u64 << 53) + 1),
            ("18446744073709551615", u64::MAX),
            ("1e3", 1000),
        ] {
            assert_eq!(
                parse(&format!("RECORD {literal} VALUE 1 AT 11")).unwrap(),
                Statement::Record {
                    key: id,
                    value: 1.0,
                    at: 11.0
                }
            );
        }
    }

    #[test]
    fn trailing_tokens_are_rejected() {
        let err = parse("PING PING").unwrap_err();
        assert_eq!(err.span, Span::new(5, 9));
        assert!(err.message.contains("trailing"), "{}", err.message);
    }

    #[test]
    fn display_round_trips() {
        for text in [
            "INSERT RECT (1.25, -3.5) (2.0, 4.0) ID 42",
            "DELETE ID 9 RECT (0.0, 0.0) (1.0, 1.0)",
            "SEARCH WINDOW (-5.0, -5.0) (5.0, 5.0)",
            "STAB POINT (0.1, 0.2)",
            "NEAREST POINT (7.0, 8.0) K 12",
            "RECORD 3 VALUE 41000.0 AT 1979.5",
            "AS OF 1977.25",
            "WITHIN (1975.0, 1980.0) DURATION 0.5 4.0",
            "FLUSH",
            "PING",
            "STATS",
            "METRICS",
        ] {
            let stmt = parse(text).unwrap();
            let printed = stmt.to_string();
            assert_eq!(parse(&printed).unwrap(), stmt, "via `{printed}`");
        }
    }

    /// Every statement form books its requests under its own `op` label,
    /// and together they cover [`OPS`].
    #[test]
    fn every_statement_form_has_its_own_op_label() {
        let forms = [
            ("SEARCH WINDOW (0, 0) (1, 1)", "search"),
            ("STAB POINT (0, 0)", "stab"),
            ("NEAREST POINT (0, 0) K 1", "nearest"),
            ("INSERT RECT (0, 0) (1, 1) ID 1", "insert"),
            ("DELETE ID 1 RECT (0, 0) (1, 1)", "delete"),
            ("RECORD 1 VALUE 2 AT 3", "record"),
            ("AS OF 1", "as_of"),
            ("WITHIN (0, 1) DURATION 0 1", "within"),
            ("FLUSH", "flush"),
            ("PING", "ping"),
            ("STATS", "stats"),
            ("METRICS", "metrics"),
        ];
        let mut ops: Vec<usize> = forms
            .iter()
            .map(|(text, label)| {
                let op = parse(text).unwrap().op();
                assert_eq!(OPS[op], *label, "{text}");
                op
            })
            .collect();
        ops.sort_unstable();
        ops.dedup();
        assert_eq!(ops.len(), OPS.len());
    }
}
