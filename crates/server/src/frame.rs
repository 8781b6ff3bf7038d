//! The wire framing: length-prefixed binary frames with a netcat-friendly
//! line mode, decoded incrementally from a growing byte buffer.
//!
//! # Frame layout
//!
//! **Binary mode** — a 4-byte big-endian payload length `N` followed by
//! `N` bytes of UTF-8 statement text. `N` must be in `1..=max_frame`
//! (default [`DEFAULT_MAX_FRAME`]); larger prefixes are rejected with the
//! typed [`FrameError::TooLarge`] *before* any payload is buffered, so an
//! attacker-supplied length cannot balloon memory.
//!
//! **Line mode** — any frame whose first byte is a printable ASCII
//! character (`0x20..=0x7e`) is read as a newline-terminated line (a
//! trailing `\r` is stripped). Because binary lengths are capped at
//! `max_frame` ≤ 16 MiB, a valid length prefix always starts with a byte
//! `< 0x20`, so the two modes cannot be confused. Line mode is what makes
//! the server `netcat`-able; responses mirror the mode of their request.
//!
//! Both modes pipeline: a client may write any number of back-to-back
//! frames before reading a single response, and the decoder yields them
//! one by one regardless of how the bytes were chunked by the transport.
//!
//! # Reply kernel
//!
//! A reply is mostly numbers — an `AS OF` answer is three per row — and
//! `core::fmt` costs several times what the digits do. [`put_u64`] and
//! [`put_f64`] append exactly the bytes `{}` and `{:?}` would, without
//! `fmt`, and every number a successful reply carries goes through their
//! one digit loop ([`put_vers_row`] formats a whole `VERS` row with it).

use std::fmt;
use std::io::Write;

/// Default inbound frame-size cap: 1 MiB of statement text.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Hard ceiling on configurable frame caps (keeps the binary/line mode
/// disambiguation sound: `16 MiB >> 24 = 0x01 < 0x20`).
pub const MAX_FRAME_CEILING: usize = 16 << 20;

/// How a frame arrived (and therefore how its response must be encoded).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// 4-byte big-endian length prefix + payload.
    Binary,
    /// Newline-terminated text (the `netcat` mode).
    Line,
}

impl Mode {
    /// Stable lowercase name for metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Binary => "binary",
            Mode::Line => "line",
        }
    }
}

/// One decoded request frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The framing the bytes arrived in.
    pub mode: Mode,
    /// The statement text (UTF-8, validated).
    pub text: String,
}

/// Why the byte stream could not be framed. All variants are protocol
/// errors: the connection is no longer in a decodable state and must be
/// closed after reporting the error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// A length prefix (or an unterminated line) exceeded the cap.
    TooLarge {
        /// The offending length (buffered bytes so far for a line).
        len: usize,
        /// The configured cap.
        max: usize,
    },
    /// A zero-length binary frame.
    Empty,
    /// The payload was not valid UTF-8.
    InvalidUtf8,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Empty => write!(f, "zero-length frame"),
            FrameError::InvalidUtf8 => write!(f, "frame payload is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Incremental frame decoder: [`feed`](Self::feed) raw bytes in whatever
/// chunks the socket produced, then pull complete frames with
/// [`next_frame`](Self::next_frame) until it returns `Ok(None)`.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted once it outgrows the tail.
    start: usize,
    max_frame: usize,
}

impl FrameDecoder {
    /// A decoder enforcing [`DEFAULT_MAX_FRAME`].
    pub fn new() -> Self {
        Self::with_max_frame(DEFAULT_MAX_FRAME)
    }

    /// A decoder enforcing a custom cap (clamped to
    /// [`MAX_FRAME_CEILING`]).
    pub fn with_max_frame(max_frame: usize) -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            max_frame: max_frame.clamp(1, MAX_FRAME_CEILING),
        }
    }

    /// The enforced frame-size cap.
    pub fn max_frame(&self) -> usize {
        self.max_frame
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Appends freshly read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: the consumed prefix is dead weight.
        if self.start > 0 && self.start >= self.buf.len().saturating_sub(self.start) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Decodes the next complete frame, `Ok(None)` if more bytes are
    /// needed. After an `Err` the stream is unrecoverable: report the
    /// error and close.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let pending = &self.buf[self.start..];
        let Some(&first) = pending.first() else {
            return Ok(None);
        };
        if (0x20..=0x7e).contains(&first) {
            return self.next_line();
        }
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
        if len == 0 {
            return Err(FrameError::Empty);
        }
        if len > self.max_frame {
            // Reject on the prefix alone: the payload is never buffered.
            return Err(FrameError::TooLarge {
                len,
                max: self.max_frame,
            });
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let payload = &pending[4..4 + len];
        let text = std::str::from_utf8(payload)
            .map_err(|_| FrameError::InvalidUtf8)?
            .to_string();
        self.start += 4 + len;
        Ok(Some(Frame {
            mode: Mode::Binary,
            text,
        }))
    }

    fn next_line(&mut self) -> Result<Option<Frame>, FrameError> {
        let pending = &self.buf[self.start..];
        let nl = pending.iter().position(|&b| b == b'\n');
        // The cap holds for the line so far, whether or not its newline has
        // arrived: one that came in the same read is no excuse.
        let len = nl.unwrap_or(pending.len());
        if len > self.max_frame {
            return Err(FrameError::TooLarge {
                len,
                max: self.max_frame,
            });
        }
        let Some(nl) = nl else {
            return Ok(None);
        };
        let mut line = &pending[..nl];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        let text = std::str::from_utf8(line)
            .map_err(|_| FrameError::InvalidUtf8)?
            .to_string();
        self.start += nl + 1;
        Ok(Some(Frame {
            mode: Mode::Line,
            text,
        }))
    }
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

/// Encodes one response in the mode of the request it answers, appending
/// to `out` (so a flusher can pack many responses into one socket write).
/// Line-mode payloads must not contain `\n`; the encoder replaces any
/// with spaces to keep the stream framed.
pub fn encode_response(mode: Mode, payload: &str, out: &mut Vec<u8>) {
    let start = begin_response(mode, out);
    out.extend_from_slice(payload.as_bytes());
    finish_response(mode, out, start);
}

/// Opens a response frame at the end of `out` so its payload can be
/// rendered in place; returns where the frame starts. Append the payload's
/// UTF-8 bytes, then call [`finish_response`] with the same `mode` and the
/// returned start.
pub(crate) fn begin_response(mode: Mode, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    if mode == Mode::Binary {
        out.extend_from_slice(&[0; 4]); // the length, known at the end
    }
    start
}

/// Closes the frame [`begin_response`] opened at `start`.
pub(crate) fn finish_response(mode: Mode, out: &mut Vec<u8>, start: usize) {
    match mode {
        Mode::Binary => {
            let len = (out.len() - start - 4) as u32;
            out[start..start + 4].copy_from_slice(&len.to_be_bytes());
        }
        Mode::Line => {
            // `\n` is ASCII, so it is never part of a longer UTF-8 sequence.
            for b in &mut out[start..] {
                if *b == b'\n' {
                    *b = b' ';
                }
            }
            out.push(b'\n');
        }
    }
}

/// `00`, `01`, … `99`: the digit pairs [`StackLine::put_u64`] stores.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Appends `v` in decimal: the bytes of `v.to_string()`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    let mut line = StackLine::default();
    line.put_u64(v);
    out.extend_from_slice(line.as_bytes());
}

/// Appends `x` as `{:?}` prints it — the shortest decimal that parses back
/// to the same bits. A whole number below 1e16 in magnitude (where `{:?}`
/// turns to exponents) is its integer digits and `.0`, sign kept for
/// `-0.0`: every such `f64` is an exact integer, so the shortest digits
/// that round-trip are the integer's own. Everything else — fractions,
/// huge values, infinities, NaN — is left to `fmt`.
pub fn put_f64(out: &mut Vec<u8>, x: f64) {
    let mut line = StackLine::default();
    line.put_f64(x);
    out.extend_from_slice(line.as_bytes());
}

/// Appends one `VERS` row, ` <id>:<key>=<value>`: the bytes [`put_u64`]
/// and [`put_f64`] write field by field, formatted on the stack and
/// appended in one copy.
pub fn put_vers_row(out: &mut Vec<u8>, id: u64, key: u64, value: f64) {
    let mut line = StackLine::default();
    line.put_f64(value);
    line.push(b'=');
    line.put_u64(key);
    line.push(b':');
    line.put_u64(id);
    line.push(b' ');
    out.extend_from_slice(line.as_bytes());
}

/// A reply fragment built on the stack, right to left: digits come out of
/// a number last first, so each pair is stored where it belongs and the
/// fragment is copied once, to the reply. 72 bytes hold the longest `VERS`
/// row: a space, two 20-digit integers, two separators and the longest
/// `{:?}` of an `f64` (24 bytes, `-2.2250738585072014e-308`).
struct StackLine {
    bytes: [u8; 72],
    /// Where the fragment starts; it ends at the end of `bytes`.
    at: usize,
}

impl Default for StackLine {
    fn default() -> Self {
        Self {
            bytes: [0; 72],
            at: 72,
        }
    }
}

impl StackLine {
    fn as_bytes(&self) -> &[u8] {
        &self.bytes[self.at..]
    }

    /// Prepends one byte.
    fn push(&mut self, b: u8) {
        self.at -= 1;
        self.bytes[self.at] = b;
    }

    /// Prepends `s`.
    fn put(&mut self, s: &[u8]) {
        self.at -= s.len();
        self.bytes[self.at..self.at + s.len()].copy_from_slice(s);
    }

    /// Prepends two digits, `00` to `99`.
    fn put_pair(&mut self, pair: u64) {
        let pair = pair as usize * 2;
        self.at -= 2;
        self.bytes[self.at..self.at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }

    /// Prepends `v` in decimal, as [`put_u64`] writes it. Four digits come
    /// off per division, and their two pairs from a second one that does
    /// not wait for the next: half the dependent divisions of a pair at a
    /// time.
    fn put_u64(&mut self, mut v: u64) {
        while v >= 10_000 {
            let four = v % 10_000;
            v /= 10_000;
            self.put_pair(four % 100);
            self.put_pair(four / 100);
        }
        if v >= 100 {
            self.put_pair(v % 100);
            v /= 100;
        }
        if v >= 10 {
            self.put_pair(v);
        } else {
            self.push(b'0' + v as u8);
        }
    }

    /// Prepends `x` as [`put_f64`] writes it.
    fn put_f64(&mut self, x: f64) {
        let mag = x.abs();
        if mag < 1e16 && mag == mag.trunc() {
            self.put(b".0");
            self.put_u64(mag as u64);
            if x.is_sign_negative() {
                self.push(b'-');
            }
        } else {
            let mut printed = std::io::Cursor::new([0u8; 32]);
            write!(printed, "{x:?}").expect("an f64's shortest form is at most 24 bytes");
            let len = printed.position() as usize;
            self.put(&printed.get_ref()[..len]);
        }
    }
}

/// Encodes one request frame in binary mode (the client-side helper the
/// load generator and tests use).
pub fn encode_request(payload: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_frame_roundtrip() {
        let mut out = Vec::new();
        encode_request("PING", &mut out);
        let mut dec = FrameDecoder::new();
        dec.feed(&out);
        let frame = dec.next_frame().unwrap().unwrap();
        assert_eq!(frame.mode, Mode::Binary);
        assert_eq!(frame.text, "PING");
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn partial_reads_reassemble() {
        let mut out = Vec::new();
        encode_request("SEARCH WINDOW (0.0, 0.0) (1.0, 1.0)", &mut out);
        let mut dec = FrameDecoder::new();
        // Feed one byte at a time: no chunking may confuse the decoder.
        for b in &out {
            assert_eq!(dec.next_frame().unwrap(), None);
            dec.feed(std::slice::from_ref(b));
        }
        let frame = dec.next_frame().unwrap().unwrap();
        assert_eq!(frame.text, "SEARCH WINDOW (0.0, 0.0) (1.0, 1.0)");
    }

    #[test]
    fn pipelined_back_to_back_frames() {
        let mut out = Vec::new();
        for i in 0..100 {
            encode_request(&format!("STAB POINT ({i}.5, 2.0)"), &mut out);
        }
        // Mix a line-mode frame into the pipeline.
        out.extend_from_slice(b"PING\r\n");
        encode_request("FLUSH", &mut out);
        let mut dec = FrameDecoder::new();
        dec.feed(&out);
        for i in 0..100 {
            let f = dec.next_frame().unwrap().unwrap();
            assert_eq!(f.mode, Mode::Binary);
            assert_eq!(f.text, format!("STAB POINT ({i}.5, 2.0)"));
        }
        let ping = dec.next_frame().unwrap().unwrap();
        assert_eq!((ping.mode, ping.text.as_str()), (Mode::Line, "PING"));
        let flush = dec.next_frame().unwrap().unwrap();
        assert_eq!((flush.mode, flush.text.as_str()), (Mode::Binary, "FLUSH"));
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn oversized_binary_frame_is_rejected_from_the_prefix_alone() {
        let mut dec = FrameDecoder::with_max_frame(1024);
        // Length prefix alone, no payload: must reject immediately.
        dec.feed(&(2048u32).to_be_bytes());
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::TooLarge {
                len: 2048,
                max: 1024
            })
        );
    }

    #[test]
    fn oversized_line_is_rejected_with_or_without_its_newline() {
        for terminator in ["", "\n"] {
            let mut dec = FrameDecoder::with_max_frame(64);
            dec.feed(&[b'A'; 80]);
            dec.feed(terminator.as_bytes());
            assert_eq!(
                dec.next_frame(),
                Err(FrameError::TooLarge { len: 80, max: 64 }),
                "terminator {terminator:?}"
            );
        }
        // At the cap exactly, the line is a frame.
        let mut dec = FrameDecoder::with_max_frame(64);
        dec.feed(&[b'A'; 64]);
        dec.feed(b"\n");
        assert_eq!(dec.next_frame().unwrap().unwrap().text.len(), 64);
    }

    #[test]
    fn zero_length_and_bad_utf8_are_typed() {
        let mut dec = FrameDecoder::new();
        dec.feed(&0u32.to_be_bytes());
        assert_eq!(dec.next_frame(), Err(FrameError::Empty));

        let mut dec = FrameDecoder::new();
        dec.feed(&2u32.to_be_bytes());
        dec.feed(&[0xff, 0xfe]);
        assert_eq!(dec.next_frame(), Err(FrameError::InvalidUtf8));
    }

    #[test]
    fn line_mode_strips_carriage_return() {
        let mut dec = FrameDecoder::new();
        dec.feed(b"STATS\r\nPING\n");
        assert_eq!(dec.next_frame().unwrap().unwrap().text, "STATS");
        assert_eq!(dec.next_frame().unwrap().unwrap().text, "PING");
    }

    #[test]
    fn kernel_prints_what_fmt_prints() {
        fn u(v: u64) -> String {
            let mut out = Vec::new();
            put_u64(&mut out, v);
            String::from_utf8(out).unwrap()
        }
        fn f(x: f64) -> String {
            let mut out = Vec::new();
            put_f64(&mut out, x);
            String::from_utf8(out).unwrap()
        }
        for v in [0, 7, 10, 99, 100, 101, 12_345, u64::MAX, u64::MAX - 1] {
            assert_eq!(u(v), v.to_string());
        }
        for p in 0..20 {
            let v = 10u64.pow(p);
            assert_eq!(u(v), v.to_string());
            assert_eq!(u(v - 1), (v - 1).to_string());
        }
        let two53 = 9_007_199_254_740_992.0f64;
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            30_000.0,
            0.5,
            -41_000.25,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            1e16,
            9_999_999_999_999_998.0,
            1e-4,
            9.9e-5,
            5e-324,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            assert_eq!(f(x), format!("{x:?}"));
        }
    }

    #[test]
    fn response_encoding_mirrors_mode() {
        let mut out = Vec::new();
        encode_response(Mode::Binary, "OK epoch=1", &mut out);
        assert_eq!(&out[..4], &(10u32).to_be_bytes());
        assert_eq!(&out[4..], b"OK epoch=1");

        let mut out = Vec::new();
        encode_response(Mode::Line, "multi\nline", &mut out);
        assert_eq!(out, b"multi line\n");
    }
}
