//! Property tests for the wire layer: the query language's canonical
//! print form must re-parse to an equal statement for *arbitrary*
//! statements (exact f64 round-tripping included), the frame codec must
//! reassemble arbitrary pipelines under arbitrary chunking and answer
//! malformed bytes with a typed error inside its frame cap, the reply
//! kernel must print what `fmt` prints, and — over real sockets — a
//! pipeline's replies must come back in request order and show exactly
//! what the burst rule promises a client (module docs of `conn.rs`): in
//! either framing, however the bytes are chunked, with the queue full, and
//! with a neighbour that hangs up mid-pipeline.

use proptest::collection::vec;
use proptest::prelude::*;
use segidx_geom::{Point, Rect};
use segidx_server::frame::{
    encode_request, encode_response, put_f64, put_u64, put_vers_row, FrameDecoder, FrameError, Mode,
};
use segidx_server::lexer::Span;
use segidx_server::parser::{parse, Statement};
use segidx_server::{Server, ServerConfig, DIMS};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Finite, non-NaN coordinates across the full exponent range so the
/// shortest-round-trip printing (`{:?}`) is genuinely exercised.
fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e9..1e9f64,
        -1.0..1.0f64,
        Just(0.0),
        Just(-0.0),
        Just(f64::MIN_POSITIVE),
        any::<i32>().prop_map(|v| v as f64 * 1e-6),
    ]
}

/// A rectangle of the server's dimensionality, its corners ordered on
/// every axis (degenerate on an axis where the two draws tie).
fn rect() -> impl Strategy<Value = Rect<DIMS>> {
    (vec(coord(), DIMS..DIMS + 1), vec(coord(), DIMS..DIMS + 1)).prop_map(|(a, b)| {
        let (mut lo, mut hi) = ([0.0; DIMS], [0.0; DIMS]);
        for d in 0..DIMS {
            (lo[d], hi[d]) = (a[d].min(b[d]), a[d].max(b[d]));
        }
        Rect::new(lo, hi)
    })
}

/// Any statement of the language: points of the server's `DIMS`, ordered
/// rectangles, and ordered `WITHIN` windows and duration bands — the
/// shapes `parse` accepts.
fn statement() -> impl Strategy<Value = Statement> {
    (
        0usize..12,         // which statement form
        rect(),             // rectangle, or its low corner as a point
        vec(coord(), 4..5), // temporal numbers
        any::<u64>(),       // record id / temporal key
        0usize..1000,       // NEAREST's K
    )
        .prop_map(|(form, rect, a, id, k)| {
            let point = Point::new(*rect.lo_coords());
            match form {
                0 => Statement::Insert { rect, id },
                1 => Statement::Delete { id, rect },
                2 => Statement::Search { window: rect },
                3 => Statement::Stab { point },
                4 => Statement::Nearest { point, k },
                5 => Statement::Record {
                    key: id,
                    value: a[0],
                    at: a[1],
                },
                6 => Statement::AsOf { t: a[0] },
                7 => Statement::Within {
                    t1: a[0].min(a[1]),
                    t2: a[0].max(a[1]),
                    lo: a[2].min(a[3]),
                    hi: a[2].max(a[3]),
                },
                8 => Statement::Flush,
                9 => Statement::Ping,
                10 => Statement::Stats,
                _ => Statement::Metrics,
            }
        })
}

/// Printable-ASCII payload text (frames carry arbitrary statement text;
/// the codec never inspects it beyond the line terminator).
fn text(max_len: usize) -> impl Strategy<Value = String> {
    vec(0x20u8..0x7f, 1..max_len).prop_map(|bytes| String::from_utf8(bytes).unwrap())
}

/// The frame cap of the untrusted-edge properties.
const CAP: usize = 256;

/// Feeds `pieces` to a decoder capped at [`CAP`], draining it after each,
/// until the bytes run out or the decoder gives the stream up — checking on
/// the way what no byte stream may break: nothing panics (the parser
/// included, on whatever does decode), no more is buffered than one frame
/// and the piece just fed, and no frame is longer than the cap. Returns the
/// frames decoded and the error that ended the stream, if one did.
fn drive_capped<'a>(
    pieces: impl IntoIterator<Item = &'a [u8]>,
) -> Result<(Vec<String>, Option<FrameError>), TestCaseError> {
    let mut dec = FrameDecoder::with_max_frame(CAP);
    let mut texts = Vec::new();
    for piece in pieces {
        dec.feed(piece);
        prop_assert!(
            dec.buffered() <= dec.max_frame() + 4 + piece.len(),
            "{} bytes buffered after a {}-byte piece",
            dec.buffered(),
            piece.len()
        );
        loop {
            match dec.next_frame() {
                Ok(Some(frame)) => {
                    prop_assert!(
                        frame.text.len() <= CAP,
                        "a {}-byte {:?} frame under a {CAP}-byte cap",
                        frame.text.len(),
                        frame.mode
                    );
                    let _ = parse(&frame.text);
                    texts.push(frame.text);
                }
                Ok(None) => break,
                Err(e) => return Ok((texts, Some(e))),
            }
        }
    }
    Ok((texts, None))
}

/// Every bit pattern there is: NaNs with payloads, subnormals, both zeros.
fn any_bits() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

/// Whole numbers and the values around the kernel's two boundaries — 1e16,
/// where `{:?}` turns to exponents, and 2^53, where not every integer is an
/// `f64` any more — plus the small end (1e-4, subnormals) it must leave to
/// `fmt`. `nudge` steps to a neighbouring `f64`, `negate` flips the sign.
fn integral_heavy() -> impl Strategy<Value = f64> {
    const TWO53: f64 = 9_007_199_254_740_992.0;
    let base = prop_oneof![
        4 => any::<u32>().prop_map(f64::from),
        4 => (0u64..10_000_000_000_000_000).prop_map(|v| v as f64),
        2 => (0u64..200_000).prop_map(|v| v as f64 / 2.0),
        1 => Just(0.0),
        1 => Just(TWO53),
        1 => Just(1e16),
        1 => Just(1e15),
        1 => Just(1e-4),
        1 => Just(f64::MIN_POSITIVE),
        1 => Just(f64::from_bits(1)),
        1 => Just(f64::MAX),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NAN),
    ];
    (base, 0u64..3, any::<bool>()).prop_map(|(x, nudge, negate)| {
        let x = match nudge {
            1 if x.is_finite() => f64::from_bits(x.to_bits() + 1),
            2 if x.is_finite() && x != 0.0 => f64::from_bits(x.to_bits() - 1),
            _ => x,
        };
        if negate {
            -x
        } else {
            x
        }
    })
}

/// Ids and keys at the edges of a digit count (and `u64::MAX`), or
/// anywhere.
fn edge_u64() -> impl Strategy<Value = u64> {
    const EDGES: [u64; 6] = [0, 9, 10, 99, 100, u64::MAX];
    prop_oneof![
        1 => (0..EDGES.len()).prop_map(|i| EDGES[i]),
        1 => any::<u64>(),
    ]
}

/// What a `VERS` row's value must print right: `-0.0`, negatives,
/// fractions, both sides of 1e16 and past 2^53, subnormals, infinities
/// and NaN — or any boundary value, or any bits.
fn vers_value() -> impl Strategy<Value = f64> {
    const EDGES: [f64; 14] = [
        -0.0,
        -1.0,
        -73_512.0,
        0.5,
        -1234.0625,
        1e16 - 2.0,
        1e16,
        9_007_199_254_740_994.0, // 2^53 + 2
        f64::MIN_POSITIVE / 4.0,
        -5e-324, // the smallest subnormal
        5e-324,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    prop_oneof![
        2 => (0..EDGES.len()).prop_map(|i| EDGES[i]),
        1 => integral_heavy(),
        1 => any_bits(),
    ]
}

/// A server every case of the wire-ordering property shares, preloaded
/// with what the property's reads see: records in `[0, 100]^2` (its writes
/// all land beyond `x = 1000`) and forty closed temporal versions. Nothing
/// a case does changes the answer to any read, so a case's two sessions —
/// and cases running before or after it — cannot disturb each other.
fn shared_server() -> SocketAddr {
    static SERVER: OnceLock<SocketAddr> = OnceLock::new();
    *SERVER.get_or_init(|| {
        let server = Server::start(ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let mut setup = Vec::new();
        for i in 0..60u32 {
            let (x, y) = (f64::from(i % 10) * 10.0, f64::from(i / 10) * 15.0);
            setup.push(format!(
                "INSERT RECT ({x:?}, {y:?}) ({:?}, {:?}) ID {i}",
                x + 12.5,
                y + 4.0
            ));
        }
        setup.push("FLUSH".to_string());
        for i in 0..48u32 {
            setup.push(format!("RECORD {} VALUE {}.5 AT {}", i % 8, i * 3, i * 10));
        }
        let mut conn = TcpStream::connect(addr).unwrap();
        for statement in &setup {
            let reply = converse(&mut conn, &mut FrameDecoder::new(), statement, Mode::Binary);
            assert!(reply.starts_with("OK "), "{statement} -> {reply}");
        }
        // Leaked on purpose: the listener serves until the process exits.
        std::mem::forget(server);
        addr
    })
}

/// Appends one request in `mode`.
fn encode(statement: &str, mode: Mode, wire: &mut Vec<u8>) {
    match mode {
        Mode::Binary => encode_request(statement, wire),
        Mode::Line => {
            wire.extend_from_slice(statement.as_bytes());
            wire.push(b'\n');
        }
    }
}

/// Reads until `decoder` yields `n` replies.
fn read_replies(conn: &mut TcpStream, decoder: &mut FrameDecoder, n: usize) -> Vec<(Mode, String)> {
    let mut replies = Vec::with_capacity(n);
    let mut buf = [0u8; 4096];
    while replies.len() < n {
        while let Some(frame) = decoder.next_frame().unwrap() {
            replies.push((frame.mode, frame.text));
        }
        if replies.len() < n {
            let got = conn.read(&mut buf).unwrap();
            assert!(
                got > 0,
                "server closed with {} of {n} replies sent",
                replies.len()
            );
            decoder.feed(&buf[..got]);
        }
    }
    replies
}

/// One statement, one reply: the session a pipeline must be equal to.
fn converse(
    conn: &mut TcpStream,
    decoder: &mut FrameDecoder,
    statement: &str,
    mode: Mode,
) -> String {
    let mut wire = Vec::new();
    encode(statement, mode, &mut wire);
    conn.write_all(&wire).unwrap();
    let (got, text) = read_replies(conn, decoder, 1).remove(0);
    assert_eq!(got, mode, "a reply mirrors its request's framing");
    text
}

/// A statement of the wire-ordering property and whether the reader thread
/// can answer it itself (`true`) or its reply waits for a commit.
fn wire_statement() -> impl Strategy<Value = (String, bool)> {
    let coord = || (0u32..400).prop_map(|v| f64::from(v) / 4.0);
    prop_oneof![
        3 => (coord(), coord(), coord(), coord()).prop_map(|(a, b, c, d)| {
            let text = format!(
                "SEARCH WINDOW ({:?}, {:?}) ({:?}, {:?})",
                a.min(c), b.min(d), a.max(c), b.max(d)
            );
            (text, true)
        }),
        2 => (coord(), coord()).prop_map(|(x, y)| (format!("STAB POINT ({x:?}, {y:?})"), true)),
        3 => (0u32..1_000).prop_map(|t| (format!("AS OF {}.25", t / 2), true)),
        1 => Just(("PING".to_string(), true)),
        1 => Just(("AS OF 1e308".to_string(), true)), // a typed error, answered in place
        4 => (0u64..64, coord()).prop_map(|(id, y)| {
            (format!("INSERT RECT (1000, {y:?}) (1001, {:?}) ID {}", y + 1.0, 10_000 + id), false)
        }),
        2 => (0u64..64, coord()).prop_map(|(id, y)| {
            (format!("DELETE ID {} RECT (1000, {y:?}) (1001, {:?})", 10_000 + id, y + 1.0), false)
        }),
    ]
}

/// One step of the visibility property's program, over eight record
/// slots laid side by side in a strip of the plane no other case touches.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// `INSERT` the slot's record if the program has it absent here,
    /// `DELETE` it if present — so the serial model is never ambiguous.
    Toggle(usize),
    /// `SEARCH` the strip between two offsets: a window writes land inside.
    Search(u32, u32),
    /// `STAB` the strip at one offset.
    Stab(u32),
    Flush,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        5 => (0usize..8).prop_map(Step::Toggle),
        4 => (0u32..80, 0u32..80).prop_map(|(a, b)| Step::Search(a.min(b), a.max(b))),
        2 => (0u32..80).prop_map(Step::Stab),
        1 => Just(Step::Flush),
    ]
}

/// A strip of the shared server's plane, and the ids that live there.
struct Strip {
    x0: f64,
    id0: u64,
}

impl Strip {
    /// A strip no other case, session or test has used.
    fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        Strip {
            x0: 10_000.0 + 100.0 * n as f64,
            id0: 1_000_000 + 8 * n,
        }
    }

    /// Slot `k` occupies `[10k, 10k + 8]` of the strip's 80 units.
    fn span(k: usize) -> (u32, u32) {
        (10 * k as u32, 10 * k as u32 + 8)
    }

    /// The statement for `step` when the serial model holds `present`.
    fn text(&self, step: Step, present: &[bool; 8]) -> String {
        let x = |offset: u32| self.x0 + f64::from(offset);
        match step {
            Step::Toggle(k) => {
                let (lo, hi) = (x(Self::span(k).0), x(Self::span(k).1));
                let id = self.id0 + k as u64;
                if present[k] {
                    format!("DELETE ID {id} RECT ({lo:?}, 0) ({hi:?}, 8)")
                } else {
                    format!("INSERT RECT ({lo:?}, 0) ({hi:?}, 8) ID {id}")
                }
            }
            Step::Search(a, b) => format!("SEARCH WINDOW ({:?}, 2) ({:?}, 6)", x(a), x(b)),
            Step::Stab(a) => format!("STAB POINT ({:?}, 4)", x(a)),
            Step::Flush => "FLUSH".to_string(),
        }
    }

    /// What the serial model answers a read with when it holds `present`,
    /// in slot numbers.
    fn rows(step: Step, present: &[bool; 8]) -> String {
        let (a, b) = match step {
            Step::Search(a, b) => (a, b),
            Step::Stab(a) => (a, a),
            _ => unreachable!("only reads have rows"),
        };
        let slots: Vec<String> = (0..8)
            .filter(|&k| present[k] && Self::span(k).0 <= b && a <= Self::span(k).1)
            .map(|k| format!(" {k}"))
            .collect();
        format!("ROWS {}{}", slots.len(), slots.concat())
    }

    /// A `ROWS` reply over this strip with its ids turned to slot numbers.
    fn slots(&self, reply: &str) -> String {
        let mut words = reply.split(' ');
        let mut out: Vec<String> = words.by_ref().take(2).map(str::to_string).collect();
        out.extend(words.map(|id| (id.parse::<u64>().unwrap() - self.id0).to_string()));
        out.join(" ")
    }
}

/// The serial model's state before each step of `program`, and after all.
fn serial_states(program: &[Step]) -> Vec<[bool; 8]> {
    let mut present = [false; 8];
    let mut states = vec![present];
    for step in program {
        if let Step::Toggle(k) = *step {
            present[k] = !present[k];
        }
        states.push(present);
    }
    states
}

/// Polls `probe` until it holds, for at most ten seconds.
fn eventually(what: &str, probe: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// With four queue slots and 64 writes in one packet, most are refused:
/// every reply still comes back in its place — `PONG`s mark every fifth —
/// and once `FLUSH`ed the index holds the acknowledged writes and no other.
#[test]
fn a_full_queue_answers_busy_in_place_and_applies_what_it_acknowledged() {
    let server = Server::start(ServerConfig {
        queue_capacity: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut packet = Vec::new();
    let mut sent = Vec::new();
    for i in 0..64u64 {
        let mode = if i % 3 == 0 { Mode::Line } else { Mode::Binary };
        encode(
            &format!("INSERT RECT ({i}, 0) ({i}.5, 1) ID {i}"),
            mode,
            &mut packet,
        );
        sent.push(Some(i));
        if i % 4 == 3 {
            encode("PING", mode, &mut packet);
            sent.push(None);
        }
    }
    encode("FLUSH", Mode::Binary, &mut packet);
    encode("SEARCH WINDOW (0, 0) (100, 1)", Mode::Binary, &mut packet);
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    conn.write_all(&packet).unwrap();
    let replies = read_replies(&mut conn, &mut FrameDecoder::new(), sent.len() + 2);

    let mut acknowledged = Vec::new();
    let mut refused = 0;
    for (what, (_, reply)) in sent.iter().zip(&replies) {
        match what {
            None => assert_eq!(reply, "PONG"),
            Some(id) if reply.starts_with("OK epoch=") => acknowledged.push(*id),
            Some(id) => {
                assert!(reply.starts_with("BUSY depth="), "INSERT {id} -> {reply}");
                refused += 1;
            }
        }
    }
    assert!(
        refused > 0 && !acknowledged.is_empty(),
        "{refused} refused of 64"
    );
    assert!(replies[sent.len()].1.starts_with("OK epoch="));
    let ids: Vec<String> = acknowledged.iter().map(|id| format!(" {id}")).collect();
    assert_eq!(
        replies[sent.len() + 1].1,
        format!("ROWS {}{}", ids.len(), ids.concat())
    );
    let summary = server.stats().summary_line();
    assert!(summary.contains(&format!(" busy={refused} ")), "{summary}");
    server.shutdown();
}

/// An id, key or `K` the statement's number cannot carry exactly is a
/// parse error, never a write to the integer it rounds or saturates to:
/// `2^64` used to close the open version of the real key `u64::MAX`.
#[test]
fn an_integer_out_of_range_is_refused_not_written_to_its_neighbour() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut decoder = FrameDecoder::new();
    let mut ask = |statement: &str| converse(&mut conn, &mut decoder, statement, Mode::Line);

    assert!(ask("RECORD 18446744073709551615 VALUE 1 AT 10").starts_with("OK version="));
    for literal in [
        "18446744073709551616",
        "1.8446744073709552e19",
        "9007199254740993.0",
    ] {
        for statement in [
            format!("INSERT RECT (0, 0) (1, 1) ID {literal}"),
            format!("RECORD {literal} VALUE 2 AT 11"),
            format!("NEAREST POINT (0, 0) K {literal}"),
        ] {
            let reply = ask(&statement);
            assert!(
                reply.starts_with("ERR parse") && reply.contains("expected non-negative integer"),
                "{statement} -> {reply}"
            );
        }
    }
    for (literal, at) in [("9007199254740993", 2.0), ("1e3", 4.0)] {
        let reply = ask(&format!(
            "INSERT RECT ({at:?}, {at:?}) ({:?}, {:?}) ID {literal}",
            at + 1.0,
            at + 1.0
        ));
        assert!(reply.starts_with("OK epoch="), "ID {literal} -> {reply}");
    }
    assert!(ask("INSERT RECT (0, 0) (1, 1) ID 18446744073709551615").starts_with("OK epoch="));
    assert!(ask("FLUSH").starts_with("OK epoch="));
    assert_eq!(
        ask("SEARCH WINDOW (0, 0) (5, 5)"),
        "ROWS 3 1000 9007199254740993 18446744073709551615"
    );
    // The refused `RECORD`s closed nothing: the version opened first is
    // still the only one, and still open.
    assert_eq!(ask("AS OF 12"), "VERS 1 0:18446744073709551615=1.0");
    let summary = server.stats().summary_line();
    assert!(summary.contains(" parse_errors=9 "), "{summary}");
    server.shutdown();
}

/// A client that hangs up on a pipeline it never read the replies of: its
/// connection thread exits, what the server had read of it commits — a
/// prefix, in order — and a neighbour's replies are what they always were.
#[test]
fn a_client_that_hangs_up_mid_pipeline_takes_nothing_else_down() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut neighbour = TcpStream::connect(server.local_addr()).unwrap();
    neighbour
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut decoder = FrameDecoder::new();
    let mut ask = |statement: &str| converse(&mut neighbour, &mut decoder, statement, Mode::Binary);
    assert!(ask("INSERT RECT (500, 500) (501, 501) ID 999999").starts_with("OK epoch="));

    // Several reads' worth of writes; the replies pile up unread, so the
    // hang-up reaches the server as a reset with writes still in flight.
    const WRITES: u64 = 5_000;
    let mut pipeline = Vec::new();
    for i in 0..WRITES {
        encode_request(
            &format!("INSERT RECT ({i}, 0) ({i}.5, 1) ID {i}"),
            &mut pipeline,
        );
    }
    let stats = std::sync::Arc::clone(server.stats());
    let mut rude = TcpStream::connect(server.local_addr()).unwrap();
    rude.write_all(&pipeline).unwrap();
    assert_eq!(ask("STAB POINT (500.5, 500.5)"), "ROWS 1 999999");
    eventually("the pipeline is being served", || {
        stats.connections_total() == 2
    });
    drop(rude);

    eventually("only the neighbour is connected", || {
        stats.connections_active() == 1
    });
    assert_eq!(ask("STAB POINT (500.5, 500.5)"), "ROWS 1 999999");
    assert!(ask("FLUSH").starts_with("OK epoch="));
    let rows = ask(&format!("SEARCH WINDOW (0, 0) ({WRITES}, 1)"));
    let committed: Vec<u64> = rows
        .split(' ')
        .skip(2)
        .map(|id| id.parse().unwrap())
        .collect();
    assert!(!committed.is_empty(), "{rows}");
    assert!(
        committed.iter().copied().eq(0..committed.len() as u64),
        "not a prefix of the pipeline: {rows:.200}"
    );
    drop(neighbour);
    eventually("nobody is connected", || stats.connections_active() == 0);
    let summary = stats.summary_line();
    assert!(summary.contains(" protocol_errors=0 "), "{summary}");
    server.shutdown();
}

proptest! {
    /// The kernel's digits are `fmt`'s, for every `u64`.
    #[test]
    fn put_u64_is_to_string(v in any::<u64>(), shift in 0u32..64) {
        for v in [v, v >> shift] {
            let mut out = Vec::new();
            put_u64(&mut out, v);
            prop_assert_eq!(String::from_utf8(out).unwrap(), v.to_string());
        }
    }

    /// `put_f64(x)` is `format!("{x:?}")` — for arbitrary bit patterns, and
    /// for the whole numbers and boundary values the fast path decides on.
    #[test]
    fn put_f64_is_debug(a in any_bits(), b in integral_heavy()) {
        for x in [a, b] {
            let mut out = Vec::new();
            put_f64(&mut out, x);
            prop_assert_eq!(String::from_utf8(out).unwrap(), format!("{x:?}"), "bits {:#x}", x.to_bits());
        }
    }

    /// A `VERS` row formatted whole on the stack is the bytes the
    /// field-by-field kernel writes — and `fmt`'s.
    #[test]
    fn put_vers_row_is_put_u64_and_put_f64(
        rows in vec((edge_u64(), edge_u64(), vers_value()), 1..8),
    ) {
        let (mut whole, mut by_field) = (Vec::new(), Vec::new());
        for &(id, key, value) in &rows {
            put_vers_row(&mut whole, id, key, value);
            by_field.push(b' ');
            put_u64(&mut by_field, id);
            by_field.push(b':');
            put_u64(&mut by_field, key);
            by_field.push(b'=');
            put_f64(&mut by_field, value);
        }
        prop_assert_eq!(&whole, &by_field);
        let printed: String = rows.iter().map(|(id, key, v)| format!(" {id}:{key}={v:?}")).collect();
        prop_assert_eq!(String::from_utf8(whole).unwrap(), printed);
    }

    /// Display prints a canonical form that parses back to an equal
    /// statement — including every f64 bit pattern the strategy produces
    /// (`{:?}` prints the shortest exactly-round-tripping decimal).
    #[test]
    fn print_then_parse_round_trips(stmt in statement()) {
        let printed = stmt.to_string();
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("`{printed}` failed to re-parse: {e}"));
        prop_assert_eq!(reparsed, stmt, "via `{}`", printed);
    }

    /// A rectangle's corners swapped are refused wherever the rectangle is
    /// not degenerate on every axis, with the span of both points, in every
    /// statement that carries one.
    #[test]
    fn swapped_corners_are_refused_with_the_span_of_both_points(
        rect in rect(),
        id in any::<u64>(),
    ) {
        let point = |c: &[f64; DIMS]| {
            let coords: Vec<String> = c.iter().map(|v| format!("{v:?}")).collect();
            format!("({})", coords.join(", "))
        };
        let corners = format!("{} {}", point(rect.hi_coords()), point(rect.lo_coords()));
        for (text, start) in [
            (format!("INSERT RECT {corners} ID {id}"), "INSERT RECT ".len()),
            (format!("DELETE ID {id} RECT {corners}"), format!("DELETE ID {id} RECT ").len()),
            (format!("SEARCH WINDOW {corners}"), "SEARCH WINDOW ".len()),
        ] {
            let parsed = parse(&text);
            if rect.lo_coords() == rect.hi_coords() {
                prop_assert!(parsed.is_ok(), "{}: {:?}", text, parsed);
                continue;
            }
            let err = parsed.expect_err(&text);
            prop_assert_eq!(err.span, Span::new(start, start + corners.len()), "{}", text);
            prop_assert_eq!(
                err.message.as_str(),
                "invalid rectangle: each lo must be <= the matching hi"
            );
        }
    }

    /// A pipeline of binary frames survives any chunking of the byte
    /// stream: the decoder yields exactly the texts encoded, in order,
    /// regardless of where the transport split the bytes.
    #[test]
    fn frame_pipeline_survives_arbitrary_chunking(
        texts in vec(text(65), 1..20),
        chunk in 1usize..17,
    ) {
        let mut wire = Vec::new();
        for t in &texts {
            encode_request(t, &mut wire);
        }
        let mut dec = FrameDecoder::new();
        let mut decoded = Vec::new();
        for piece in wire.chunks(chunk) {
            dec.feed(piece);
            while let Some(f) = dec.next_frame().unwrap() {
                prop_assert_eq!(f.mode, Mode::Binary);
                decoded.push(f.text);
            }
        }
        prop_assert_eq!(decoded, texts);
    }

    /// Response encoding in a frame's own mode decodes back to the
    /// payload (modulo line mode's documented newline flattening).
    #[test]
    fn response_encoding_round_trips(payload in text(129)) {
        for mode in [Mode::Binary, Mode::Line] {
            let mut wire = Vec::new();
            encode_response(mode, &payload, &mut wire);
            let mut dec = FrameDecoder::new();
            dec.feed(&wire);
            let f = dec.next_frame().unwrap().unwrap();
            prop_assert_eq!(&f.text, &payload);
        }
    }

    /// Bytes no client library produced: runs of printable text (some
    /// longer than the cap), runs of anything, newlines and the zeros a
    /// small length prefix starts with — so both framings, over-long lines
    /// and prefixes of every size all occur.
    #[test]
    fn arbitrary_bytes_meet_a_typed_error_or_a_capped_frame(
        runs in vec(
            prop_oneof![
                3 => vec(0x20u8..0x7f, 0..400),
                2 => vec(any::<u8>(), 0..12),
                2 => Just(vec![b'\n']),
                1 => Just(vec![0u8, 0]),
            ],
            0..12,
        ),
        chunk in 1usize..300,
    ) {
        drive_capped(runs.concat().chunks(chunk))?;
    }

    /// A well-formed pipeline of both framings, damaged the ways a hostile
    /// or broken peer damages one — bits flipped, the tail cut off, a length
    /// prefix over the cap — and split in two at every offset. The prefix is
    /// refused from its four bytes alone: nothing follows it here, and
    /// everything before it still decodes.
    #[test]
    fn damaged_pipelines_are_refused_in_bounds_at_every_split(
        frames in vec((text(200), any::<bool>()), 1..8),
        flips in vec((any::<usize>(), 0u32..8), 0..4),
        cut in any::<usize>(),
        bad_at in any::<usize>(),
        bad_len in (CAP as u32 + 1)..0x2000_0000,
    ) {
        let bad_at = bad_at % (frames.len() + 1);
        let encoded = |frames: &[(String, bool)]| {
            let mut wire = Vec::new();
            for (text, line) in frames {
                encode(text, if *line { Mode::Line } else { Mode::Binary }, &mut wire);
            }
            wire
        };
        let mut wire = encoded(&frames);
        let mut refused = encoded(&frames[..bad_at]);
        refused.extend_from_slice(&bad_len.to_be_bytes());
        for (at, bit) in flips {
            let at = at % wire.len();
            wire[at] ^= 1 << bit;
        }
        wire.truncate(cut % (wire.len() + 1));

        for split in 0..=wire.len() {
            drive_capped([&wire[..split], &wire[split..]])?;
        }
        for split in 0..=refused.len() {
            let (texts, error) = drive_capped([&refused[..split], &refused[split..]])?;
            prop_assert_eq!(
                error,
                Some(FrameError::TooLarge { len: bad_len as usize, max: CAP }),
                "split at {}", split
            );
            prop_assert!(texts.iter().eq(frames[..bad_at].iter().map(|(text, _)| text)));
        }
    }

    /// `K` is the client's number, not a size the server may allocate: any
    /// `u64` is answered with the neighbours that exist (once, `K` of ten
    /// trillion aborted the process on a failed allocation and `u64::MAX`
    /// panicked the connection thread), and the server goes on serving.
    #[test]
    fn nearest_with_any_k_answers_with_what_exists(
        k in prop_oneof![
            2 => any::<u64>(),
            1 => 0u64..100,
            1 => Just(10_000_000_000_000u64),
            1 => Just(u64::MAX),
        ],
    ) {
        let addr = shared_server();
        let mut conn = TcpStream::connect(addr).unwrap();
        let statement = format!("NEAREST POINT (0, 0) K {k}");
        let reply = converse(&mut conn, &mut FrameDecoder::new(), &statement, Mode::Line);
        prop_assert!(reply.starts_with("NEAR "), "`{}` -> {}", statement, reply);
        let found: u64 = reply.split(' ').nth(1).unwrap().parse().unwrap();
        prop_assert!(found <= k, "`{}` -> {}", statement, reply);
        let mut other = TcpStream::connect(addr).unwrap();
        let pong = converse(&mut other, &mut FrameDecoder::new(), "PING", Mode::Line);
        prop_assert_eq!(pong, "PONG");
    }

    /// Replies come back in request order, and are the replies of a session
    /// that sends one statement at a time, whatever mix of statements the
    /// connection thread renders at once (`SEARCH`/`STAB`/`AS OF`/`PING`)
    /// and statements whose reply waits for a commit (`INSERT`/`DELETE`) is
    /// pipelined, in whatever framing, however the bytes are chunked — so
    /// wherever the bursts and their holes fall. A commit's epoch depends on
    /// how writes were grouped, so those replies are compared up to the
    /// number; everything else byte for byte.
    #[test]
    fn pipelined_replies_equal_a_serial_session(
        statements in vec((wire_statement(), any::<bool>()), 1..48),
        chunk in 1usize..200,
    ) {
        let addr = shared_server();
        let statements: Vec<(String, bool, Mode)> = statements
            .into_iter()
            .map(|((text, sync), line)| (text, sync, if line { Mode::Line } else { Mode::Binary }))
            .collect();

        let mut serial = TcpStream::connect(addr).unwrap();
        let mut decoder = FrameDecoder::new();
        let expected: Vec<String> = statements
            .iter()
            .map(|(text, _, mode)| converse(&mut serial, &mut decoder, text, *mode))
            .collect();

        let mut wire = Vec::new();
        for (text, _, mode) in &statements {
            encode(text, *mode, &mut wire);
        }
        let mut pipelined = TcpStream::connect(addr).unwrap();
        pipelined.set_nodelay(true).unwrap();
        for piece in wire.chunks(chunk) {
            pipelined.write_all(piece).unwrap();
        }
        let got = read_replies(&mut pipelined, &mut FrameDecoder::new(), statements.len());

        for (((text, sync, mode), expected), (got_mode, got)) in
            statements.iter().zip(&expected).zip(&got)
        {
            prop_assert_eq!(got_mode, mode, "framing of the reply to `{}`", text);
            if *sync {
                prop_assert_eq!(got, expected, "reply to `{}`", text);
            } else {
                prop_assert!(expected.starts_with("OK epoch="), "`{}` -> {}", text, expected);
                prop_assert!(got.starts_with("OK epoch="), "`{}` -> {}", text, got);
            }
        }
    }

    /// What a pipelined read may see. A read is answered from the snapshot
    /// pinned when its segment began — somewhere between the last `FLUSH`
    /// before it (or the start) and itself, depending on how the bytes fell
    /// into bursts — so its reply is the serial model's at one of those
    /// points: never a record whose `INSERT` follows it, never short of one
    /// whose `DELETE` follows it, and exactly the model's right behind a
    /// `FLUSH`; the pins of successive reads never go backwards. Sent as one
    /// packet the program is one burst, and every read sees the model as it
    /// stood right behind the last `FLUSH`: none of its own segment's
    /// writes, earlier or later. Sent one statement at a time, it equals
    /// the model at every step.
    #[test]
    fn a_pipelined_read_sees_the_model_at_its_segments_start(
        program in vec((step(), any::<bool>()), 1..40),
        chunk in 1usize..160,
    ) {
        let addr = shared_server();
        let modes: Vec<Mode> = program
            .iter()
            .map(|(_, line)| if *line { Mode::Line } else { Mode::Binary })
            .collect();
        let program: Vec<Step> = program.into_iter().map(|(step, _)| step).collect();
        let states = serial_states(&program);
        // The replies to the program sent over a fresh strip, `chunk` bytes
        // to a write, with every write acknowledged.
        let pipeline = |chunk: usize| -> Result<Vec<String>, TestCaseError> {
            let strip = Strip::fresh();
            let mut wire = Vec::new();
            for ((step, mode), present) in program.iter().zip(&modes).zip(&states) {
                encode(&strip.text(*step, present), *mode, &mut wire);
            }
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.set_nodelay(true).unwrap();
            for piece in wire.chunks(chunk) {
                conn.write_all(piece).unwrap();
            }
            let got = read_replies(&mut conn, &mut FrameDecoder::new(), program.len());
            let mut replies = Vec::with_capacity(got.len());
            for (i, ((step, mode), (got_mode, reply))) in program.iter().zip(&modes).zip(got).enumerate() {
                prop_assert_eq!(got_mode, *mode, "framing of the reply to step {}", i);
                replies.push(match step {
                    Step::Toggle(_) | Step::Flush => {
                        prop_assert!(reply.starts_with("OK epoch="), "step {} {:?} -> {}", i, step, reply);
                        reply
                    }
                    // Reads come back in the strip's own ids: make them the
                    // model's slot numbers.
                    Step::Search(..) | Step::Stab(_) => strip.slots(&reply),
                });
            }
            Ok(replies)
        };
        let model = |step: Step, at: usize| Strip::rows(step, &states[at]);
        let is_read = |step: &Step| matches!(step, Step::Search(..) | Step::Stab(_));

        // Arbitrary chunking: each read at some point of its window.
        let mut floor = 0;
        for (i, (step, reply)) in program.iter().zip(pipeline(chunk)?).enumerate() {
            if matches!(step, Step::Flush) {
                floor = i + 1;
            } else if is_read(step) {
                let pin = (floor..=i).find(|&at| reply == model(*step, at));
                prop_assert!(
                    pin.is_some(),
                    "step {} {:?} -> {}: the model says {} at step {} and {} at this one",
                    i, step, reply, model(*step, floor), floor, model(*step, i)
                );
                // One reply can match several states: keep the earliest.
                floor = pin.unwrap();
            }
        }

        // One packet: each read at the start of its segment.
        let mut segment = 0;
        for (i, (step, reply)) in program.iter().zip(pipeline(usize::MAX)?).enumerate() {
            if matches!(step, Step::Flush) {
                segment = i + 1;
            } else if is_read(step) {
                prop_assert_eq!(reply, model(*step, segment), "step {} {:?}, segment from {}", i, step, segment);
            }
        }

        // One statement at a time (a one-byte chunk would still pipeline):
        // each read exactly where it stands.
        let strip = Strip::fresh();
        let mut serial = TcpStream::connect(addr).unwrap();
        let mut decoder = FrameDecoder::new();
        for (i, ((step, mode), present)) in program.iter().zip(&modes).zip(&states).enumerate() {
            let reply = converse(&mut serial, &mut decoder, &strip.text(*step, present), *mode);
            if is_read(step) {
                prop_assert_eq!(strip.slots(&reply), model(*step, i), "step {} {:?}", i, step);
            } else {
                prop_assert!(reply.starts_with("OK epoch="), "step {} {:?} -> {}", i, step, reply);
            }
        }
    }
}
