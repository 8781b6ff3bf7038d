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
//! point     := "(" number { "," number } ")"       -- DIMS numbers
//! ```
//!
//! Keywords are case-insensitive; an optional trailing `;` is accepted.
//! A statement parses into what the connection executes: a point has the
//! server's [`DIMS`] coordinates, a rectangle's corners are ordered on
//! every axis, and a `WITHIN` window and duration band are ordered. A
//! statement of the wrong shape — a point of another arity, an inverted
//! rectangle, window or band — is refused with the span of the offending
//! point(s) or numbers, but only once the rest of it has parsed, so a
//! syntax or lex error anywhere in the statement wins over its shape.
//!
//! The parser pulls borrowed tokens from a [`Lexer`] one at a time, so a
//! statement parses without allocating: only error paths build strings.

use crate::lexer::{LexError, Lexer, Span, Token, TokenKind};
use crate::server::DIMS;
use segidx_geom::{Point, Rect};
use std::fmt;

/// One parsed statement of the query language.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    /// `INSERT RECT (x, y) (x, y) ID n`
    Insert {
        /// The record's rectangle.
        rect: Rect<DIMS>,
        /// Caller-assigned record id.
        id: u64,
    },
    /// `DELETE ID n RECT (x, y) (x, y)`
    Delete {
        /// Record id to delete.
        id: u64,
        /// The rectangle the record was inserted with.
        rect: Rect<DIMS>,
    },
    /// `SEARCH WINDOW (x, y) (x, y)`
    Search {
        /// The query window.
        window: Rect<DIMS>,
    },
    /// `STAB POINT (x, y)`
    Stab {
        /// The stabbing point.
        point: Point<DIMS>,
    },
    /// `NEAREST POINT (x, y) K n`
    Nearest {
        /// The query point.
        point: Point<DIMS>,
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
}

fn write_point(f: &mut fmt::Formatter<'_>, p: &[f64; DIMS]) -> fmt::Result {
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

fn write_rect(f: &mut fmt::Formatter<'_>, r: &Rect<DIMS>) -> fmt::Result {
    write_point(f, r.lo_coords())?;
    write!(f, " ")?;
    write_point(f, r.hi_coords())
}

impl fmt::Display for Statement {
    /// Prints the canonical form, which re-parses to an equal statement.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Insert { rect, id } => {
                write!(f, "INSERT RECT ")?;
                write_rect(f, rect)?;
                write!(f, " ID {id}")
            }
            Statement::Delete { id, rect } => {
                write!(f, "DELETE ID {id} RECT ")?;
                write_rect(f, rect)
            }
            Statement::Search { window } => {
                write!(f, "SEARCH WINDOW ")?;
                write_rect(f, window)
            }
            Statement::Stab { point } => {
                write!(f, "STAB POINT ")?;
                write_point(f, point.coords())
            }
            Statement::Nearest { point, k } => {
                write!(f, "NEAREST POINT ")?;
                write_point(f, point.coords())?;
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

/// Pulls tokens from the lexer one at a time, allocating nothing.
struct Parser<'a> {
    tokens: Lexer<'a>,
    eof: usize,
    /// The first shape error met (see the module docs), reported once the
    /// statement has otherwise parsed.
    shape: Option<ParseError>,
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

    fn expect_kind(&mut self, kind: TokenKind<'_>, what: &str) -> Result<Span, ParseError> {
        match self.next()? {
            Some(t) if t.kind == kind => Ok(t.span),
            found => Err(self.unexpected(what, found)),
        }
    }

    /// Records a shape error over `span`, unless an earlier one stands.
    fn refuse_shape(&mut self, span: Span, message: String) {
        self.shape.get_or_insert(ParseError { span, message });
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

    /// A number that must be finite (timestamps, values, durations), and
    /// its span.
    fn finite(&mut self, what: &str) -> Result<(f64, Span), ParseError> {
        let (v, _, span) = self.number(what)?;
        if !v.is_finite() {
            return Err(ParseError {
                span,
                message: format!("{what} must be finite"),
            });
        }
        Ok((v, span))
    }

    /// A point and its span, parentheses included. A list of other than
    /// [`DIMS`] coordinates is read to its `)` and refused as a shape
    /// error.
    fn point(&mut self) -> Result<(Point<DIMS>, Span), ParseError> {
        let open = self.expect_kind(TokenKind::LParen, "`(`")?;
        let mut coords = [0.0; DIMS];
        let mut n = 0;
        let close = loop {
            let (v, _, span) = self.number("coordinate")?;
            if !v.is_finite() {
                return Err(ParseError {
                    span,
                    message: "coordinates must be finite".to_string(),
                });
            }
            if let Some(c) = coords.get_mut(n) {
                *c = v;
            }
            n += 1;
            match self.next()? {
                Some(Token {
                    kind: TokenKind::Comma,
                    ..
                }) => continue,
                Some(Token {
                    kind: TokenKind::RParen,
                    span,
                }) => break span,
                found => return Err(self.unexpected("`,` or `)`", found)),
            }
        };
        let span = Span::new(open.start, close.end);
        if n != DIMS {
            self.refuse_shape(span, format!("expected {DIMS} coordinates, got {n}"));
        }
        Ok((Point::new(coords), span))
    }

    /// Two points, the low corner and the high, ordered on every axis.
    fn rect(&mut self) -> Result<Rect<DIMS>, ParseError> {
        let (lo, lo_span) = self.point()?;
        let (hi, hi_span) = self.point()?;
        Ok(
            Rect::checked(*lo.coords(), *hi.coords()).unwrap_or_else(|| {
                self.refuse_shape(
                    Span::new(lo_span.start, hi_span.end),
                    "invalid rectangle: each lo must be <= the matching hi".to_string(),
                );
                Rect::from_point(lo) // never returned: the statement is refused
            }),
        )
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
            let rect = self.rect()?;
            self.expect_word("ID")?;
            let id = self.integer("record id")?;
            Statement::Insert { rect, id }
        } else if is("DELETE") {
            self.expect_word("ID")?;
            let id = self.integer("record id")?;
            self.expect_word("RECT")?;
            let rect = self.rect()?;
            Statement::Delete { id, rect }
        } else if is("SEARCH") {
            self.expect_word("WINDOW")?;
            let window = self.rect()?;
            Statement::Search { window }
        } else if is("STAB") {
            self.expect_word("POINT")?;
            let (point, _) = self.point()?;
            Statement::Stab { point }
        } else if is("NEAREST") {
            self.expect_word("POINT")?;
            let (point, _) = self.point()?;
            self.expect_word("K")?;
            let k = self.integer("neighbour count")? as usize;
            Statement::Nearest { point, k }
        } else if is("RECORD") {
            let key = self.integer("key")?;
            self.expect_word("VALUE")?;
            let (value, _) = self.finite("value")?;
            self.expect_word("AT")?;
            let (at, _) = self.finite("timestamp")?;
            Statement::Record { key, value, at }
        } else if is("AS") {
            self.expect_word("OF")?;
            let (t, _) = self.finite("timestamp")?;
            Statement::AsOf { t }
        } else if is("WITHIN") {
            let open = self.expect_kind(TokenKind::LParen, "`(`")?;
            let (t1, _) = self.finite("window start")?;
            self.expect_kind(TokenKind::Comma, "`,`")?;
            let (t2, _) = self.finite("window end")?;
            let close = self.expect_kind(TokenKind::RParen, "`)`")?;
            self.expect_word("DURATION")?;
            let (lo, lo_span) = self.finite("minimum duration")?;
            let (hi, hi_span) = self.finite("maximum duration")?;
            if t2 < t1 {
                let window = Span::new(open.start, close.end);
                self.refuse_shape(window, format!("invalid time window: {t1} > {t2}"));
            }
            if hi < lo {
                let band = Span::new(lo_span.start, hi_span.end);
                self.refuse_shape(band, format!("invalid duration band: {lo} > {hi}"));
            }
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
        match self.shape.take() {
            Some(e) => Err(e),
            None => Ok(stmt),
        }
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
/// lex would report first. A statement of the wrong shape is refused only
/// once it has otherwise parsed (module docs).
pub fn parse(text: &str) -> Result<Statement, ParseError> {
    let mut p = Parser {
        tokens: Lexer::new(text),
        eof: text.len(),
        shape: None,
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
                rect: Rect::new([1.0, 2.0], [3.0, 4.0]),
                id: 7
            }
        );
        assert_eq!(
            parse("delete id 7 rect (1, 2) (3, 4);").unwrap(),
            Statement::Delete {
                id: 7,
                rect: Rect::new([1.0, 2.0], [3.0, 4.0])
            }
        );
        assert_eq!(
            parse("SEARCH WINDOW (0,0) (10,10)").unwrap(),
            Statement::Search {
                window: Rect::new([0.0, 0.0], [10.0, 10.0])
            }
        );
        assert_eq!(
            parse("STAB POINT (5.5, -2e3)").unwrap(),
            Statement::Stab {
                point: Point::new([5.5, -2e3])
            }
        );
        assert_eq!(
            parse("NEAREST POINT (1, 1) K 3").unwrap(),
            Statement::Nearest {
                point: Point::new([1.0, 1.0]),
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
        let stmt = parse(&format!("DELETE ID {id} RECT (0, 0) (1, 1)")).unwrap();
        assert_eq!(
            stmt,
            Statement::Delete {
                id,
                rect: Rect::new([0.0, 0.0], [1.0, 1.0])
            }
        );
        // Non-literal integer forms still go through the f64 path.
        assert_eq!(
            parse("NEAREST POINT (0, 0) K 1e3").unwrap(),
            Statement::Nearest {
                point: Point::origin(),
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
                format!("INSERT RECT (0, 0) (1, 1) ID {literal}"),
                format!("DELETE ID {literal} RECT (0, 0) (1, 1)"),
                format!("RECORD {literal} VALUE 1 AT 11"),
                format!("NEAREST POINT (0, 0) K {literal}"),
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

    /// A statement of the wrong shape is refused with the span of what is
    /// wrong and the message execution used to answer it with.
    #[test]
    fn statements_of_the_wrong_shape_are_refused_with_their_span() {
        for (text, span, message) in [
            ("STAB POINT (1)", (11, 14), "expected 2 coordinates, got 1"),
            (
                "STAB POINT (1, 2, 3)",
                (11, 20),
                "expected 2 coordinates, got 3",
            ),
            (
                "NEAREST POINT (1, 2, 3) K 4",
                (14, 23),
                "expected 2 coordinates, got 3",
            ),
            (
                "INSERT RECT (0, 0) (1) ID 1",
                (19, 22),
                "expected 2 coordinates, got 1",
            ),
            // The first point of the wrong arity wins over the second.
            (
                "SEARCH WINDOW (0) (1, 1, 1)",
                (14, 17),
                "expected 2 coordinates, got 1",
            ),
            // Arity is judged before order.
            (
                "SEARCH WINDOW (5, 5) (1)",
                (21, 24),
                "expected 2 coordinates, got 1",
            ),
            (
                "INSERT RECT (2, 0) (1, 1) ID 5",
                (12, 25),
                "invalid rectangle: each lo must be <= the matching hi",
            ),
            (
                "DELETE ID 5 RECT (0, 2) (1, 1)",
                (17, 30),
                "invalid rectangle: each lo must be <= the matching hi",
            ),
            (
                "search window (0, 0.5) (-1, 0.25);",
                (14, 33),
                "invalid rectangle: each lo must be <= the matching hi",
            ),
            (
                "WITHIN (5, 1) DURATION 0 1",
                (7, 13),
                "invalid time window: 5 > 1",
            ),
            (
                "WITHIN (1, 5) DURATION 2.5 0.5",
                (23, 30),
                "invalid duration band: 2.5 > 0.5",
            ),
            // The window is judged before the band.
            (
                "WITHIN (5, 1) DURATION 2 1",
                (7, 13),
                "invalid time window: 5 > 1",
            ),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.span, Span::new(span.0, span.1), "{text}");
            assert_eq!(err.message, message, "{text}");
        }
        // A degenerate rectangle is not an inverted one.
        assert!(parse("SEARCH WINDOW (1, 1) (1, 1)").is_ok());
    }

    /// A shape error is reported only once the rest of the statement has
    /// parsed: any syntax or lex error in it wins.
    #[test]
    fn syntax_and_lex_errors_win_over_the_shape() {
        let err = parse("INSERT RECT (1, 1) (0, 0) ID -1").unwrap_err();
        assert_eq!(err.span, Span::new(29, 31));
        assert!(
            err.message.contains("expected non-negative integer"),
            "{}",
            err.message
        );
        let err = parse("SEARCH WINDOW (1, 1) (0, 0) @").unwrap_err();
        assert_eq!(err.span, Span::new(28, 29));
        assert_eq!(err.message, "unexpected character `@`");
        let err = parse("STAB POINT (1, 2, 3) (4, 5)").unwrap_err();
        assert!(err.message.contains("trailing"), "{}", err.message);
        let err = parse("WITHIN (5, 1) DURATION 0").unwrap_err();
        assert!(err.message.contains("end of statement"), "{}", err.message);
        let err = parse("STAB POINT (1, 2, 1e999)").unwrap_err();
        assert!(err.message.contains("finite"), "{}", err.message);
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
