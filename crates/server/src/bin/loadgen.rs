//! Socket-level load generator for `segidx_server`.
//!
//! Drives a mixed read/write workload over real TCP connections with
//! pipelined binary frames, measures sustained QPS and client-observed
//! latency percentiles, then **verifies** the server: every committed
//! write (a pipelined `INSERT`/`DELETE` answered `OK`) is replayed into a
//! serial model, and a seeded set of `SEARCH`/`STAB` queries must come
//! back bit-identical to what the model computes. `BUSY` rejections are
//! admission control, not errors — they are counted and excluded from the
//! model, exactly mirroring what the server refused to apply.
//!
//! ```text
//! loadgen [--addr HOST:PORT]      target a running server (default:
//!                                 self-host one in-process on a free port)
//!         [--connections N]       concurrent client connections (4)
//!         [--ops N]               measured statements per connection (100000)
//!         [--seed N]              workload seed (1)
//!         [--metrics-out PATH]    save the server's METRICS snapshot
//!         [--check]               gate on floors/ceilings (CI mode)
//!         [--min-qps N]           --check: sustained QPS floor (50000)
//!         [--max-p99-ms N]        --check: read+write p99 ceiling (50)
//! ```
//!
//! Each connection keeps [`PIPELINE`] frames in flight after a
//! [`PRELOAD`]-insert warm-up. The run fails (exit 1) on a protocol error
//! or a verification mismatch; `--check` also fails it on QPS under the
//! floor or p99 over the ceiling. Throughput across versions is
//! segbench's `serve-mixed` to compare; this is a gate.

use segidx_geom::{Point, Rect};
use segidx_obs::{HistogramSnapshot, LatencyHistogram};
use segidx_server::{encode_request, FrameDecoder, Mode, Server, ServerConfig};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Instant;

const DIMS: usize = segidx_server::DIMS;

/// Coordinate domain the workload draws from.
const DOMAIN: [f64; 2] = [1_000_000.0, 1_000_000.0];

/// In-flight frames per connection.
const PIPELINE: usize = 256;

/// Warm-up inserts per connection, before the measured phase.
const PRELOAD: usize = 2_000;

struct Args {
    addr: Option<String>,
    connections: usize,
    ops: usize,
    seed: u64,
    metrics_out: Option<String>,
    check: bool,
    min_qps: f64,
    max_p99_ms: f64,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: None,
            connections: 4,
            ops: 100_000,
            seed: 1,
            metrics_out: None,
            check: false,
            min_qps: 50_000.0,
            max_p99_ms: 50.0,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        if flag == "--check" {
            args.check = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--addr" => args.addr = Some(value),
            "--connections" => args.connections = value.parse().map_err(|e| bad(&e))?,
            "--ops" => args.ops = value.parse().map_err(|e| bad(&e))?,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--metrics-out" => args.metrics_out = Some(value),
            "--min-qps" => args.min_qps = value.parse().map_err(|e| bad(&e))?,
            "--max-p99-ms" => args.max_p99_ms = value.parse().map_err(|e| bad(&e))?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.connections == 0 {
        return Err("--connections must be positive".into());
    }
    Ok(args)
}

/// xorshift64*: deterministic, seedable, no dependencies.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn random_rect(rng: &mut Rng, max_extent: f64) -> Rect<DIMS> {
    let mut lo = [0.0; DIMS];
    let mut hi = [0.0; DIMS];
    for d in 0..DIMS {
        let center = rng.f64() * DOMAIN[d];
        let half = rng.f64() * max_extent / 2.0;
        lo[d] = (center - half).max(0.0);
        hi[d] = (center + half).min(DOMAIN[d]);
    }
    Rect::new(lo, hi)
}

fn random_point(rng: &mut Rng) -> Point<DIMS> {
    Point::new([rng.f64() * DOMAIN[0], rng.f64() * DOMAIN[1]])
}

fn fmt_rect(r: &Rect<DIMS>) -> String {
    let (lo, hi) = (r.lo_coords(), r.hi_coords());
    format!("({:?}, {:?}) ({:?}, {:?})", lo[0], lo[1], hi[0], hi[1])
}

/// What one pipelined statement was, so its response can be classified.
enum Sent {
    Insert { id: u64, rect: Rect<DIMS> },
    Delete { id: u64 },
    Read,
    Flush,
}

/// Per-connection outcome handed back to the coordinator.
struct ConnResult {
    /// Final committed state: id -> rect for every OK'd insert minus
    /// every OK'd delete, applied in pipeline order.
    committed: HashMap<u64, Rect<DIMS>>,
    read_latency: HistogramSnapshot,
    write_latency: HistogramSnapshot,
    ops_done: u64,
    busy: u64,
    errors: Vec<String>,
    started: Instant,
    finished: Instant,
}

/// A sliding-window pipelined client: keeps up to `pipeline` frames in
/// flight, classifies each in-order response against what was sent, and
/// maintains the committed-write model as OKs arrive.
struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
    outbuf: Vec<u8>,
    inbuf: Vec<u8>,
    inflight: std::collections::VecDeque<(Sent, Instant)>,
    committed: HashMap<u64, Rect<DIMS>>,
    /// Ids confirmed live (committed, not yet targeted by a delete) —
    /// the pool deletes draw from.
    live: Vec<u64>,
    read_latency: LatencyHistogram,
    write_latency: LatencyHistogram,
    busy: u64,
    errors: Vec<String>,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            decoder: FrameDecoder::new(),
            outbuf: Vec::with_capacity(64 * 1024),
            inbuf: vec![0u8; 64 * 1024],
            inflight: std::collections::VecDeque::new(),
            committed: HashMap::new(),
            live: Vec::new(),
            read_latency: LatencyHistogram::default(),
            write_latency: LatencyHistogram::default(),
            busy: 0,
            errors: Vec::new(),
        })
    }

    fn send(&mut self, sent: Sent, text: &str) {
        encode_request(text, &mut self.outbuf);
        self.inflight.push_back((sent, Instant::now()));
    }

    fn flush_socket(&mut self) -> std::io::Result<()> {
        if !self.outbuf.is_empty() {
            self.stream.write_all(&self.outbuf)?;
            self.outbuf.clear();
        }
        Ok(())
    }

    /// Blocks until at least one response arrives, processing everything
    /// decodable. Returns how many responses were consumed.
    fn pump(&mut self) -> std::io::Result<usize> {
        self.flush_socket()?;
        let mut consumed = self.drain_decoded()?;
        while consumed == 0 {
            let n = self.stream.read(&mut self.inbuf)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-pipeline",
                ));
            }
            let chunk = self.inbuf[..n].to_vec();
            self.decoder.feed(&chunk);
            consumed = self.drain_decoded()?;
        }
        Ok(consumed)
    }

    fn drain_decoded(&mut self) -> std::io::Result<usize> {
        let mut consumed = 0;
        loop {
            match self.decoder.next_frame() {
                Ok(Some(frame)) => {
                    self.on_response(&frame.text, frame.mode);
                    consumed += 1;
                }
                Ok(None) => return Ok(consumed),
                Err(e) => {
                    self.errors.push(format!("frame decode: {e}"));
                    return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "x"));
                }
            }
        }
    }

    fn on_response(&mut self, text: &str, mode: Mode) {
        let Some((sent, t0)) = self.inflight.pop_front() else {
            self.errors.push(format!("unsolicited response: {text}"));
            return;
        };
        if mode != Mode::Binary {
            self.errors
                .push(format!("response in wrong framing mode: {text}"));
        }
        let elapsed = t0.elapsed();
        match sent {
            Sent::Insert { id, rect } => {
                self.write_latency.record_duration(elapsed);
                if text.starts_with("OK epoch=") {
                    self.committed.insert(id, rect);
                    self.live.push(id);
                } else if text.starts_with("BUSY") {
                    self.busy += 1;
                } else {
                    self.errors.push(format!("insert {id}: {text}"));
                }
            }
            Sent::Delete { id } => {
                self.write_latency.record_duration(elapsed);
                if text.starts_with("OK epoch=") {
                    self.committed.remove(&id);
                } else if text.starts_with("BUSY") {
                    // Refused: the record stays live; put it back in the pool.
                    self.busy += 1;
                    self.live.push(id);
                } else {
                    self.errors.push(format!("delete {id}: {text}"));
                }
            }
            Sent::Read => {
                self.read_latency.record_duration(elapsed);
                if !(text.starts_with("ROWS ") || text.starts_with("NEAR ")) {
                    self.errors.push(format!("read: {text}"));
                }
            }
            Sent::Flush => {
                if !text.starts_with("OK epoch=") {
                    self.errors.push(format!("flush: {text}"));
                }
            }
        }
    }

    /// Drains every in-flight response.
    fn drain_all(&mut self) -> std::io::Result<()> {
        while !self.inflight.is_empty() {
            self.pump()?;
        }
        Ok(())
    }
}

/// Runs one connection's workload: preload, flush, measured mixed phase.
fn run_connection(addr: &str, conn_id: usize, args: &Args) -> Result<ConnResult, String> {
    let fail = |e: std::io::Error| format!("connection {conn_id}: {e}");
    let mut client = Client::connect(addr).map_err(fail)?;
    let mut rng = Rng::new(args.seed ^ ((conn_id as u64 + 1) << 32));
    // Connection-disjoint id space: ids never collide across connections,
    // so the union of per-connection committed maps is the index state.
    let id_base = (conn_id as u64 + 1) << 40;
    let mut next_id = id_base;

    // Preload: a confirmed-live pool so the measured phase can delete
    // from the first statement.
    for _ in 0..PRELOAD {
        if client.inflight.len() >= PIPELINE {
            client.pump().map_err(fail)?;
        }
        let rect = random_rect(&mut rng, 200.0);
        let id = next_id;
        next_id += 1;
        client.send(
            Sent::Insert { id, rect },
            &format!("INSERT RECT {} ID {id}", fmt_rect(&rect)),
        );
    }
    client.send(Sent::Flush, "FLUSH");
    client.drain_all().map_err(fail)?;

    // Measured phase: 40% search, 20% stab, 5% nearest, 20% insert,
    // 15% delete.
    let started = Instant::now();
    let mut text = String::with_capacity(128);
    for _ in 0..args.ops {
        if client.inflight.len() >= PIPELINE {
            client.pump().map_err(fail)?;
        }
        text.clear();
        let roll = rng.next() % 100;
        let sent = if roll < 40 {
            let w = random_rect(&mut rng, 500.0);
            text.push_str(&format!("SEARCH WINDOW {}", fmt_rect(&w)));
            Sent::Read
        } else if roll < 60 {
            let p = random_point(&mut rng);
            let c = p.coords();
            text.push_str(&format!("STAB POINT ({:?}, {:?})", c[0], c[1]));
            Sent::Read
        } else if roll < 65 {
            let p = random_point(&mut rng);
            let c = p.coords();
            text.push_str(&format!("NEAREST POINT ({:?}, {:?}) K 4", c[0], c[1]));
            Sent::Read
        } else if roll < 85 || client.live.is_empty() {
            let rect = random_rect(&mut rng, 200.0);
            let id = next_id;
            next_id += 1;
            text.push_str(&format!("INSERT RECT {} ID {id}", fmt_rect(&rect)));
            Sent::Insert { id, rect }
        } else {
            let slot = rng.below(client.live.len());
            let id = client.live.swap_remove(slot);
            // The rect it was committed with; deletes always target a
            // record the model knows is live.
            let rect = client.committed[&id];
            text.push_str(&format!("DELETE ID {id} RECT {}", fmt_rect(&rect)));
            Sent::Delete { id }
        };
        client.send(sent, &text);
    }
    client.drain_all().map_err(fail)?;
    let finished = Instant::now();

    Ok(ConnResult {
        committed: client.committed,
        read_latency: client.read_latency.snapshot(),
        write_latency: client.write_latency.snapshot(),
        ops_done: args.ops as u64,
        busy: client.busy,
        errors: client.errors,
        started,
        finished,
    })
}

/// Replays the committed union into sorted form and checks a seeded query
/// set bit-for-bit against the live server. Returns (queries, mismatches).
fn verify(
    addr: &str,
    model: &HashMap<u64, Rect<DIMS>>,
    seed: u64,
) -> Result<(usize, Vec<String>), String> {
    let fail = |e: std::io::Error| format!("verify connection: {e}");
    let mut client = Client::connect(addr).map_err(fail)?;
    client.send(Sent::Flush, "FLUSH");
    client.drain_all().map_err(fail)?;

    // Deterministic scan order for the model.
    let mut entries: Vec<(u64, Rect<DIMS>)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    entries.sort_unstable_by_key(|(id, _)| *id);

    let expect_rows = |ids: Vec<u64>| {
        let mut out = format!("ROWS {}", ids.len());
        for id in ids {
            out.push(' ');
            out.push_str(&id.to_string());
        }
        out
    };

    let mut rng = Rng::new(seed ^ 0xdead_beef);
    let mut queries = Vec::new();
    for _ in 0..256 {
        let w = random_rect(&mut rng, 2_000.0);
        let expected = expect_rows(
            entries
                .iter()
                .filter(|(_, r)| r.intersects(&w))
                .map(|(id, _)| *id)
                .collect(),
        );
        queries.push((format!("SEARCH WINDOW {}", fmt_rect(&w)), expected));

        let p = random_point(&mut rng);
        let c = p.coords();
        let expected = expect_rows(
            entries
                .iter()
                .filter(|(_, r)| r.contains_point(&p))
                .map(|(id, _)| *id)
                .collect(),
        );
        queries.push((format!("STAB POINT ({:?}, {:?})", c[0], c[1]), expected));
    }

    let mut mismatches = Vec::new();
    for (query, expected) in &queries {
        let mut out = Vec::new();
        encode_request(query, &mut out);
        client.stream.write_all(&out).map_err(fail)?;
        let reply = loop {
            match client.decoder.next_frame() {
                Ok(Some(f)) => break f.text,
                Ok(None) => {
                    let n = client.stream.read(&mut client.inbuf).map_err(fail)?;
                    if n == 0 {
                        return Err("verify: server closed".into());
                    }
                    let chunk = client.inbuf[..n].to_vec();
                    client.decoder.feed(&chunk);
                }
                Err(e) => return Err(format!("verify: frame decode: {e}")),
            }
        };
        if &reply != expected {
            mismatches.push(format!(
                "`{query}`: server `{}…` != model `{}…`",
                &reply[..reply.len().min(80)],
                &expected[..expected.len().min(80)]
            ));
        }
    }
    Ok((queries.len(), mismatches))
}

/// Fetches the server's METRICS snapshot (raw JSON text).
fn fetch_metrics(addr: &str) -> Result<String, String> {
    let fail = |e: std::io::Error| format!("metrics connection: {e}");
    let mut stream = TcpStream::connect(addr).map_err(fail)?;
    let mut out = Vec::new();
    encode_request("METRICS", &mut out);
    stream.write_all(&out).map_err(fail)?;
    let mut decoder = FrameDecoder::with_max_frame(16 << 20);
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        match decoder.next_frame() {
            Ok(Some(f)) => return Ok(f.text),
            Ok(None) => {
                let n = stream.read(&mut buf).map_err(fail)?;
                if n == 0 {
                    return Err("metrics: server closed".into());
                }
                decoder.feed(&buf[..n]);
            }
            Err(e) => return Err(format!("metrics: frame decode: {e}")),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::from(2);
        }
    };

    // Self-host unless pointed at a live server. The self-hosted server
    // still goes through real TCP sockets — same code path CI smokes.
    let hosted = if args.addr.is_none() {
        match Server::start(ServerConfig::default()) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("loadgen: self-host failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let addr = match (&args.addr, &hosted) {
        (Some(a), _) => a.clone(),
        (None, Some(s)) => s.local_addr().to_string(),
        (None, None) => unreachable!(),
    };
    eprintln!(
        "loadgen: driving {addr} with {} connections x {} ops (pipeline {PIPELINE})",
        args.connections, args.ops
    );

    // Fan the connections out, one thread each.
    let results: Vec<Result<ConnResult, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.connections)
            .map(|conn_id| {
                let addr = addr.as_str();
                let args = &args;
                scope.spawn(move || run_connection(addr, conn_id, args))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut conns = Vec::new();
    for r in results {
        match r {
            Ok(c) => conns.push(c),
            Err(e) => {
                eprintln!("loadgen: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Aggregate.
    let started = conns.iter().map(|c| c.started).min().unwrap();
    let finished = conns.iter().map(|c| c.finished).max().unwrap();
    let duration = finished.duration_since(started);
    let total_ops: u64 = conns.iter().map(|c| c.ops_done).sum();
    let busy: u64 = conns.iter().map(|c| c.busy).sum();
    let qps = total_ops as f64 / duration.as_secs_f64();
    let mut read_latency = HistogramSnapshot::default();
    let mut write_latency = HistogramSnapshot::default();
    let mut protocol_errors: Vec<String> = Vec::new();
    let mut model: HashMap<u64, Rect<DIMS>> = HashMap::new();
    for c in &conns {
        read_latency.merge(&c.read_latency);
        write_latency.merge(&c.write_latency);
        protocol_errors.extend(c.errors.iter().cloned());
        model.extend(c.committed.iter().map(|(k, v)| (*k, *v)));
    }

    // Differential verification against the committed-prefix model.
    let (verify_queries, mismatches) = match verify(&addr, &model, args.seed) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &args.metrics_out {
        match fetch_metrics(&addr) {
            Ok(json) => {
                if let Some(dir) = std::path::Path::new(path).parent() {
                    std::fs::create_dir_all(dir).expect("create output dir");
                }
                std::fs::write(path, json).expect("write metrics");
                eprintln!("loadgen: wrote server metrics to {path}");
            }
            Err(e) => {
                eprintln!("loadgen: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let p99_ms = |h: &HistogramSnapshot| h.p99().unwrap_or(0) as f64 / 1e6;
    let worst_p99_ms = p99_ms(&read_latency).max(p99_ms(&write_latency));
    let verified = mismatches.is_empty();
    let qps_ok = qps >= args.min_qps;
    let p99_ok = worst_p99_ms <= args.max_p99_ms;
    let clean = protocol_errors.is_empty();
    let passed = verified && clean && (!args.check || (qps_ok && p99_ok));

    eprintln!(
        "loadgen: {total_ops} ops in {:.2}s = {qps:.0} QPS | read p50/p99 {}us/{}us | \
         write p50/p99 {}us/{}us | busy {busy} | verify {}/{} matched",
        duration.as_secs_f64(),
        read_latency.p50().unwrap_or(0) / 1_000,
        read_latency.p99().unwrap_or(0) / 1_000,
        write_latency.p50().unwrap_or(0) / 1_000,
        write_latency.p99().unwrap_or(0) / 1_000,
        verify_queries - mismatches.len(),
        verify_queries,
    );
    for e in protocol_errors.iter().take(5) {
        eprintln!("loadgen: protocol error: {e}");
    }
    for m in mismatches.iter().take(5) {
        eprintln!("loadgen: verify mismatch: {m}");
    }
    if args.check {
        if !qps_ok {
            eprintln!(
                "loadgen: CHECK FAILED: {qps:.0} QPS under the {:.0} floor",
                args.min_qps
            );
        }
        if !p99_ok {
            eprintln!(
                "loadgen: CHECK FAILED: p99 {worst_p99_ms:.2}ms over the {:.1}ms ceiling",
                args.max_p99_ms
            );
        }
    }
    if !clean {
        eprintln!(
            "loadgen: CHECK FAILED: {} protocol errors",
            protocol_errors.len()
        );
    }
    if !verified {
        eprintln!(
            "loadgen: CHECK FAILED: {} verify mismatches",
            mismatches.len()
        );
    }

    if let Some(s) = hosted {
        s.shutdown();
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
