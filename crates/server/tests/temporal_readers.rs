//! `AS OF` / `WITHIN` readers racing `RECORD` writers over real sockets.
//!
//! A temporal read pins the table, searches the pinned tiers with no lock
//! held, then resolves ids to rows — while writers on other connections
//! keep recording, sealing the memtable and merging tiers underneath.
//! Recording only ever appends: whatever happens later, a query about the
//! already-frozen past has one right answer, computed here from a model
//! before the writers start. Every reply must equal it byte for byte.

use segidx_obs::MetricValue;
use segidx_server::frame::{encode_request, FrameDecoder};
use segidx_server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

const KEYS: u64 = 64;
const PRELOAD: u64 = 12_000;
/// With the preload, five 8 192-version seals: the 4th hands a merge to
/// the worker and the 5th splices it in while the readers race.
const PER_WRITER: u64 = 16_000;
/// Lifetimes `WITHIN` asks for; the writers start further than this past
/// the frozen prefix, so a version they close never falls inside the band.
const BAND: f64 = 100.0;

struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        Self {
            stream: TcpStream::connect(addr).unwrap(),
            decoder: FrameDecoder::new(),
        }
    }

    /// Pipelines `statements` and returns their replies, in order.
    fn call(&mut self, statements: &[String]) -> Vec<String> {
        let mut out = Vec::new();
        for s in statements {
            encode_request(s, &mut out);
        }
        self.stream.write_all(&out).unwrap();
        let mut replies = Vec::with_capacity(statements.len());
        let mut buf = [0u8; 16 * 1024];
        while replies.len() < statements.len() {
            let n = self.stream.read(&mut buf).unwrap();
            assert!(n > 0, "server closed the connection");
            self.decoder.feed(&buf[..n]);
            while let Some(frame) = self.decoder.next_frame().unwrap() {
                replies.push(frame.text);
            }
        }
        replies
    }
}

/// One recorded version of the frozen prefix, ids in acknowledgement order.
struct Row {
    key: u64,
    value: f64,
    from: f64,
    /// `None`: still open when the prefix froze (closed later, past it).
    to: Option<f64>,
}

/// Counts a writer out when it stops, by finishing or by panicking, so a
/// failed writer fails the test instead of leaving the readers looping.
struct CountOut<'a>(&'a AtomicUsize);

impl Drop for CountOut<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn vers<'a>(rows: impl Iterator<Item = (usize, &'a Row)>) -> String {
    let rows: Vec<String> = rows
        .map(|(id, r)| format!(" {id}:{}={:?}", r.key, r.value))
        .collect();
    format!("VERS {}{}", rows.len(), rows.concat())
}

fn counter(server: &Server, name: &str) -> u64 {
    let snap = server.registry().snapshot();
    match snap
        .get(name, &[("component", "temporal")])
        .map(|m| &m.value)
    {
        Some(MetricValue::Counter(n)) => *n,
        other => panic!("{name}: {other:?}"),
    }
}

#[test]
fn frozen_past_reads_are_byte_identical_while_records_stream() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // The frozen prefix: PRELOAD versions over KEYS keys, one time unit
    // apart, so key k's versions last KEYS units each.
    let mut rows: Vec<Row> = Vec::new();
    let mut open: Vec<Option<usize>> = vec![None; KEYS as usize];
    let mut statements = Vec::new();
    for i in 0..PRELOAD {
        let (key, value, at) = (i % KEYS, (i * 7 % 1_000) as f64 + 0.5, i as f64);
        if let Some(prev) = open[key as usize].replace(rows.len()) {
            rows[prev].to = Some(at);
        }
        rows.push(Row {
            key,
            value,
            from: at,
            to: None,
        });
        statements.push(format!("RECORD {key} VALUE {value:?} AT {at:?}"));
    }
    let mut setup = Client::connect(addr);
    for (i, reply) in setup.call(&statements).iter().enumerate() {
        assert_eq!(reply, &format!("OK version={i}"));
    }
    let frozen = PRELOAD as f64 - 1.0;

    // Probes in the frozen past, with the replies the model dictates.
    let mut probes: Vec<(String, String)> = Vec::new();
    for j in 0..48u64 {
        let t = (j * 251 % (PRELOAD - 100)) as f64 + if j % 3 == 0 { 0.0 } else { 0.5 };
        let valid = |r: &&Row| r.from <= t && r.to.is_none_or(|to| t < to);
        let at_t = rows.iter().enumerate().filter(|(_, r)| valid(r));
        probes.push((format!("AS OF {t:?}"), vers(at_t)));
        let (t1, t2) = (t, t + 30.0);
        let short = |r: &&Row| {
            // Closed-interval overlap; an open version's lifetime runs to
            // the horizon, and once closed it is longer than BAND.
            r.to.is_some_and(|to| r.from <= t2 && to >= t1 && to - r.from <= BAND)
        };
        let within = rows.iter().enumerate().filter(|(_, r)| short(r));
        probes.push((
            format!("WITHIN ({t1:?}, {t2:?}) DURATION 0 {BAND:?}"),
            vers(within),
        ));
    }
    let (questions, answers): (Vec<String>, Vec<String>) = probes.into_iter().unzip();
    assert_eq!(setup.call(&questions), answers, "before the writers start");
    assert!(answers.iter().all(|a| !a.starts_with("VERS 0")));

    let seals_before = counter(&server, "segidx_temporal_seals_total");
    let writers_left = AtomicUsize::new(2);
    let start = Barrier::new(4);
    let (writers_left, start) = (&writers_left, &start);
    std::thread::scope(|scope| {
        for w in 0..2u64 {
            scope.spawn(move || {
                let _out = CountOut(writers_left);
                let mut client = Client::connect(addr);
                start.wait();
                // Own keys (a key's history must arrive in time order), own
                // clock, starting more than BAND past the frozen prefix.
                let statements: Vec<String> = (0..PER_WRITER)
                    .map(|i| {
                        let key = (i * 2 + w) % KEYS;
                        let at = frozen + BAND + 1.0 + i as f64;
                        format!("RECORD {key} VALUE {i}.25 AT {at:?}")
                    })
                    .collect();
                for batch in statements.chunks(64) {
                    for reply in client.call(batch) {
                        assert!(reply.starts_with("OK version="), "{reply}");
                    }
                }
            });
        }
        for _ in 0..2 {
            let (questions, answers) = (&questions, &answers);
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                start.wait();
                // Keep reading for as long as a writer is writing, and once
                // more after the last one stopped.
                loop {
                    let done = writers_left.load(Ordering::SeqCst) == 0;
                    for (q, a) in questions.chunks(8).zip(answers.chunks(8)) {
                        assert_eq!(client.call(q), a, "while RECORDs stream");
                    }
                    if done {
                        break;
                    }
                }
            });
        }
    });

    // The writers did race seals and at least one merge past the readers.
    let seals = counter(&server, "segidx_temporal_seals_total") - seals_before;
    assert!(seals >= 2, "{seals} seals while reading");
    assert!(counter(&server, "segidx_temporal_merges_total") >= 1);
    let now = setup.call(&[format!(
        "AS OF {:?}",
        frozen + BAND + 1.0 + PER_WRITER as f64
    )]);
    assert!(now[0].starts_with(&format!("VERS {KEYS} ")), "{}", now[0]);
    server.shutdown();
}
