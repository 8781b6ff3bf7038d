//! The load generator's side of the wire: one TCP connection speaking
//! binary frames, driven closed loop (a fixed number of requests in
//! flight) or open loop (requests sent on a schedule whatever the server
//! does).

use crate::model::Model;
use crate::ops::Op;
use crate::stats::sample_ns;
use segidx_obs::json::{self, Value};
use segidx_server::{encode_request, FrameDecoder};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a reply may take before the request counts as unanswered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// One client connection.
pub struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    inbuf: Vec<u8>,
}

impl Conn {
    /// Connects with Nagle off (requests are small and latency matters).
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Self {
            stream,
            // METRICS replies outgrow the default request-sized cap.
            decoder: FrameDecoder::with_max_frame(16 << 20),
            inbuf: vec![0u8; 64 * 1024],
        })
    }

    /// One blocking read into the decoder; `Ok(false)` when the reply
    /// timeout passed with nothing to read.
    fn fill(&mut self) -> io::Result<bool> {
        match self.stream.read(&mut self.inbuf) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Ok(n) => {
                self.decoder.feed(&self.inbuf[..n]);
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    fn next_reply(&mut self) -> io::Result<Option<String>> {
        self.decoder
            .next_frame()
            .map(|f| f.map(|f| f.text))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Sends one statement and waits for its reply.
    pub fn call(&mut self, text: &str) -> io::Result<String> {
        let mut out = Vec::new();
        encode_request(text, &mut out);
        self.stream.write_all(&out)?;
        loop {
            if let Some(reply) = self.next_reply()? {
                return Ok(reply);
            }
            if !self.fill()? {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply"));
            }
        }
    }
}

/// Whether `reply` is the success form for `op`.
fn is_ok(op: &Op, reply: &str) -> bool {
    let prefix = match op {
        Op::Search(_) | Op::Stab(_) => "ROWS ",
        Op::Nearest(..) => "NEAR ",
        Op::Insert { .. } | Op::Delete { .. } => "OK epoch=",
        Op::Record { .. } => "OK version=",
        Op::AsOf(_) | Op::Within { .. } => "VERS ",
    };
    reply.starts_with(prefix)
}

/// What one connection observed over one phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Latency of every answered read, ns.
    pub read_ns: Vec<u32>,
    /// Latency of every answered write, ns.
    pub write_ns: Vec<u32>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests refused, answered with an error, contradicted by the
    /// model, or never answered.
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
    /// From the phase's start to the last reply.
    pub wall: Duration,
    /// The first answered requests with their replies, for layer replay.
    pub captured: Vec<(Op, String)>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// Folds in the `reply` to `op`, answered `latency` after it began.
    fn reply(&mut self, op: &Op, reply: &str, latency: Duration, model: &mut dyn Model) {
        if op.is_write() {
            self.write_ns.push(sample_ns(latency));
        } else {
            self.read_ns.push(sample_ns(latency));
        }
        if !is_ok(op, reply) {
            self.fail(format!("`{}` -> `{:.60}`", op.text(), reply));
        } else if op.is_write() && !model.acknowledged(op, reply) {
            self.fail(format!(
                "`{}` -> `{reply}` contradicts the model",
                op.text()
            ));
        }
    }

    /// Requests answered.
    pub fn answered(&self) -> u64 {
        (self.read_ns.len() + self.write_ns.len()) as u64
    }

    /// Folds another connection's observations of the same phase in.
    pub fn merge(&mut self, other: Tally) {
        self.read_ns.extend(other.read_ns);
        self.write_ns.extend(other.write_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.wall = self.wall.max(other.wall);
        self.captured.extend(other.captured);
    }
}

/// Closed loop: keeps `depth` requests of `next` in flight until `next`
/// runs dry, then drains. Latency runs from the send, `wall` from `start`
/// (the instant every connection of the phase shares). The first `capture`
/// answered requests are kept with their replies.
pub fn closed_loop(
    conn: &mut Conn,
    mut next: impl FnMut() -> Option<Op>,
    depth: usize,
    start: Instant,
    capture: usize,
    model: &mut dyn Model,
) -> io::Result<Tally> {
    let mut tally = Tally::default();
    let mut inflight: VecDeque<(Op, Instant)> = VecDeque::with_capacity(depth);
    let mut out = Vec::with_capacity(16 * 1024);
    let mut text = String::with_capacity(128);
    let mut dry = false;
    loop {
        out.clear();
        while inflight.len() < depth && !dry {
            let Some(op) = next() else {
                dry = true;
                break;
            };
            text.clear();
            op.render(&mut text);
            encode_request(&text, &mut out);
            inflight.push_back((op, Instant::now()));
            tally.attempted += 1;
        }
        if inflight.is_empty() {
            break;
        }
        conn.stream.write_all(&out)?;
        let mut got = 0;
        while got == 0 {
            if !conn.fill()? {
                for (op, _) in inflight.drain(..) {
                    tally.fail(format!("`{}` unanswered", op.text()));
                }
                tally.wall = start.elapsed();
                return Ok(tally);
            }
            let now = Instant::now();
            while let Some(reply) = conn.next_reply()? {
                let Some((op, sent)) = inflight.pop_front() else {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "unsolicited reply",
                    ));
                };
                tally.reply(&op, &reply, now - sent, model);
                if tally.captured.len() < capture {
                    tally.captured.push((op, reply));
                }
                got += 1;
            }
        }
    }
    tally.wall = start.elapsed();
    Ok(tally)
}

/// Sends every operation of `ops` pipelined `depth` deep; any failure is
/// an error (set-up must succeed whole).
pub fn preload(
    conn: &mut Conn,
    ops: impl IntoIterator<Item = Op>,
    depth: usize,
    model: &mut dyn Model,
) -> io::Result<()> {
    let mut ops = ops.into_iter();
    let tally = closed_loop(conn, || ops.next(), depth, Instant::now(), 0, model)?;
    if tally.failed > 0 {
        return Err(io::Error::other(format!(
            "preload failed: {:?}",
            tally.errors
        )));
    }
    Ok(())
}

/// What one connection observed over one open-loop rate step.
#[derive(Debug)]
pub struct Step {
    /// Replies, with latency from the *intended* send time.
    pub tally: Tally,
    /// How late each request left, ns (actual send - intended send).
    pub lateness_ns: Vec<u32>,
    /// Requests in flight at the step's midpoint.
    pub inflight_mid: u64,
    /// Requests in flight when the last one was sent.
    pub inflight_end: u64,
    /// From the first intended send to the last actual send.
    pub send_span: Duration,
}

/// Open loop: sends `count` operations of `next`, the `i`-th due at
/// `start + i / rate`, whether or not earlier ones were answered. A sender
/// thread sleeps until the next request is due; this thread reads replies.
/// Latency runs from the intended send time, so a stall charges every
/// request it delayed (no coordinated omission).
pub fn open_loop(
    conn: &mut Conn,
    mut next: impl FnMut() -> Op + Send,
    rate: f64,
    count: u64,
    start: Instant,
    model: &mut dyn Model,
) -> io::Result<Step> {
    let gap = Duration::from_secs_f64(1.0 / rate);
    let mut step = Step {
        tally: Tally::default(),
        lateness_ns: Vec::new(),
        inflight_mid: 0,
        inflight_end: 0,
        send_span: Duration::ZERO,
    };
    let due = move |i: u64| start + gap.mul_f64(i as f64);
    let (tx, rx) = mpsc::channel::<(Op, Instant)>();
    let answered = &AtomicU64::new(0);
    let mut write_half = conn.stream.try_clone()?;

    let sender_out = std::thread::scope(|scope| -> io::Result<_> {
        let sender = scope.spawn(move || -> io::Result<(Vec<u32>, u64, u64, Duration)> {
            let mut lateness = Vec::with_capacity(count as usize);
            let mut out = Vec::with_capacity(4096);
            let mut text = String::with_capacity(128);
            let (mut inflight_mid, mut i) = (0, 0u64);
            while i < count {
                let mut now = Instant::now();
                if now < due(i) {
                    std::thread::sleep(due(i) - now);
                    now = Instant::now();
                }
                out.clear();
                while i < count && due(i) <= now {
                    let op = next();
                    text.clear();
                    op.render(&mut text);
                    encode_request(&text, &mut out);
                    lateness.push(sample_ns(now - due(i)));
                    // Queued before the bytes leave, so the reader always
                    // knows what a reply answers.
                    if tx.send((op, due(i))).is_err() {
                        return Err(io::Error::other("reader gone"));
                    }
                    i += 1;
                    if i == count / 2 {
                        inflight_mid = i - answered.load(Relaxed);
                    }
                }
                write_half.write_all(&out)?;
            }
            let inflight_end = count - answered.load(Relaxed);
            drop(tx);
            Ok((lateness, inflight_mid, inflight_end, Instant::now() - start))
        });

        let mut last_read = Instant::now();
        let mut timed_out = false;
        for (op, intended) in rx.iter() {
            step.tally.attempted += 1;
            if timed_out {
                step.tally.fail(format!("`{}` unanswered", op.text()));
                continue;
            }
            let reply = loop {
                if let Some(reply) = conn.next_reply()? {
                    break Some(reply);
                }
                if !conn.fill()? {
                    break None;
                }
                last_read = Instant::now();
            };
            match reply {
                Some(reply) => {
                    let latency = last_read.saturating_duration_since(intended);
                    step.tally.reply(&op, &reply, latency, model);
                    answered.fetch_add(1, Relaxed);
                }
                None => {
                    timed_out = true;
                    step.tally.fail(format!("`{}` unanswered", op.text()));
                }
            }
        }
        step.tally.wall = Instant::now().saturating_duration_since(start);
        sender.join().expect("sender thread panicked")
    })?;
    (
        step.lateness_ns,
        step.inflight_mid,
        step.inflight_end,
        step.send_span,
    ) = sender_out;
    Ok(step)
}

/// Sends each probe and compares the reply with what the model expects;
/// returns a description of every mismatch.
pub fn verify(conn: &mut Conn, probes: &[(String, String)]) -> io::Result<Vec<String>> {
    let mut mismatches = Vec::new();
    for (statement, expected) in probes {
        let reply = conn.call(statement)?;
        if reply != *expected {
            mismatches.push(format!(
                "`{statement}`: server `{reply:.80}` != model `{expected:.80}`"
            ));
        }
    }
    Ok(mismatches)
}

/// The server's metrics registry, fetched with the `METRICS` statement.
pub struct WireMetrics(Value);

impl WireMetrics {
    /// Fetches a snapshot over a fresh connection.
    pub fn fetch(addr: SocketAddr) -> io::Result<Self> {
        let reply = Conn::connect(addr)?.call("METRICS")?;
        json::parse(&reply)
            .map(Self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("METRICS: {e:?}")))
    }

    fn find(&self, name: &str) -> impl Iterator<Item = &Value> + '_ {
        let name = name.to_string();
        self.0
            .get("metrics")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter(move |m| m.get("name").and_then(Value::as_str) == Some(name.as_str()))
    }

    /// Sum of field `field` over every series called `name` (`value` of
    /// counters and gauges; `count`, `sum`, `max`, `p50` of histograms).
    /// 0 when the family is absent.
    pub fn sum(&self, name: &str, field: &str) -> f64 {
        self.find(name)
            .filter_map(|m| m.get(field).and_then(Value::as_f64))
            .sum()
    }
}
