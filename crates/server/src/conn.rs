//! Per-connection machinery: one thread that decodes, parses and executes
//! pipelined frames a *burst* at a time, and writes every reply itself.
//!
//! # A burst is one pin, one submission, one write per 128 replies
//!
//! A burst is what one `read` returned: every complete frame in it is
//! decoded and parsed before anything executes. It is cut into *segments*
//! after each `FLUSH`, and a segment runs in four steps:
//!
//! 1. **Pin.** If the segment holds a `SEARCH`/`STAB`/`NEAREST`, one
//!    snapshot is pinned ([`IndexHandle::snapshot`]) and every one of
//!    them is answered from it. There is no unpinned read — a read that
//!    pinned for itself could see writes the reads around it did not.
//! 2. **Submit.** All of its `INSERT`/`DELETE` go to
//!    [`IndexHandle::submit_batch`] as one call, in request order: one
//!    queue lock, one writer wake-up, and — unless the writer was already
//!    busy — one group commit.
//! 3. **Read.** The statements execute in request order. Each reply the
//!    thread can render goes into the per-connection buffer; a write leaves
//!    a [`Hole`] (where its reply belongs, and its ticket), or, if it was
//!    refused, its `BUSY depth=`/`ERR commit` text in place. The group
//!    commit runs on the writer thread meanwhile.
//! 4. **Settle** at the end of the burst, and earlier each time
//!    [`DIRECT_WRITE_REPLIES`] replies wait and no hole is among them (or
//!    past [`DIRECT_WRITE_BYTES`]): wait on each hole's ticket in order —
//!    they have usually resolved — splice `OK epoch=…` in, and send the lot
//!    with one `write_all`. A burst of up to 128 statements, or one with
//!    an admitted write, is still answered with one write; a longer burst
//!    without writes streams, so a client pipelining deeper than 128 reads
//!    the first replies, and sends more, while the rest execute.
//!
//! The pin comes *before* the submission so that what a pipelined read sees
//! does not depend on how fast the writer is: none of the writes sharing
//! its segment, earlier or later. What a client may rely on:
//!
//! * replies arrive in request order;
//! * a statement sent after a write's `OK epoch=` was *received* sees that
//!   write (the reply is sent only after the commit published);
//! * everything after a `FLUSH` sees everything before it, pipelined in
//!   one packet or not (`FLUSH` ends its segment; the next one pins and
//!   submits afresh);
//! * a pipelined read sees none of the writes of its own segment.
//!
//! Backpressure is the submission queue's (`BUSY depth=…` when the writer
//! is behind) and TCP's: a thread waiting on a commit or blocked in
//! `write_all` is not draining its socket. The writer thread runs no
//! connection code; it completes tickets and nothing else.
//!
//! [`IndexHandle::snapshot`]: segidx_concurrent::IndexHandle::snapshot
//! [`IndexHandle::submit_batch`]: segidx_concurrent::IndexHandle::submit_batch

use crate::frame::{
    begin_response, finish_response, put_f64, put_u64, put_vers_row, FrameDecoder, Mode,
};
use crate::parser::{parse, Statement};
use crate::server::{Shared, DIMS};
use crate::telemetry::ConnStats;
use segidx_concurrent::{CommitError, CommitTicket, IndexOp, SubmitError};
use segidx_core::RecordId;
use segidx_geom::Interval;
use segidx_obs::OpClass;
use segidx_temporal::{PinnedQuery, TemporalError, TemporalTable, Version, VersionId};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// One `k`-nearest result row: record id + distance.
type NearHit = (RecordId, f64);

/// Rendered bytes past which the thread settles and writes out without
/// waiting for the end of the burst, so one read of small statements with
/// large answers holds a bounded buffer. A bound, not a knob.
const DIRECT_WRITE_BYTES: usize = 256 * 1024;

/// Replies waiting, none of them a hole, at which the thread settles
/// without waiting for the end of the burst. Each write stays amortised
/// over this many replies, and the first reply of a long burst waits for
/// at most this many statements. A bound, not a knob.
const DIRECT_WRITE_REPLIES: usize = 128;

struct Pending {
    mode: Mode,
    t0: Instant,
    /// The statement, or the `ERR parse` reply refusing it.
    parsed: Result<Statement, String>,
}

/// Where an admitted write's reply goes once its commit is known.
struct Hole {
    /// Offset in [`Replies::buf`] the reply is spliced in at.
    at: usize,
    mode: Mode,
    t0: Instant,
    ticket: CommitTicket,
}

/// The replies of the burst in progress, in request order (see the module
/// docs). Everything here is allocated once per connection.
struct Replies<'a> {
    socket: &'a TcpStream,
    stats: &'a ConnStats,
    /// Every reply rendered so far, back to back, bar the holes.
    buf: Vec<u8>,
    /// The writes still to be answered, ascending by `at`.
    holes: Vec<Hole>,
    /// `buf` with its holes filled, when it has any.
    spliced: Vec<u8>,
    /// Replies rendered into `buf` since the last settle.
    waiting: usize,
    /// A write to the socket failed: discard from here, the connection
    /// ends with this burst.
    dead: bool,
}

impl Replies<'_> {
    /// Renders one reply, in its frame, behind those before it, and sends
    /// what waits once it reaches either bound (see the module docs).
    fn put(&mut self, mode: Mode, render: impl FnOnce(&mut Vec<u8>)) {
        framed(&mut self.buf, mode, render);
        self.waiting += 1;
        if self.buf.len() >= DIRECT_WRITE_BYTES
            || (self.waiting >= DIRECT_WRITE_REPLIES && self.holes.is_empty())
        {
            self.settle();
        }
    }

    fn put_text(&mut self, mode: Mode, text: &str) {
        self.put(mode, |buf| buf.extend_from_slice(text.as_bytes()));
    }

    /// Leaves a hole behind everything rendered so far for the reply to an
    /// admitted write.
    fn hole(&mut self, mode: Mode, t0: Instant, ticket: CommitTicket) {
        let at = self.buf.len();
        self.holes.push(Hole {
            at,
            mode,
            t0,
            ticket,
        });
    }

    /// Waits for the commits outstanding, fills their holes, and sends
    /// everything rendered with one write. Called at the end of every burst
    /// and from [`Replies::put`].
    fn settle(&mut self) {
        let mut bytes = &self.buf;
        if !self.holes.is_empty() {
            let mut from = 0;
            for hole in self.holes.drain(..) {
                self.spliced.extend_from_slice(&self.buf[from..hole.at]);
                from = hole.at;
                let result = hole.ticket.wait();
                self.stats.write_latency.record_duration(hole.t0.elapsed());
                let epoch = result.map(|receipt| receipt.epoch);
                framed(&mut self.spliced, hole.mode, |buf| {
                    render_commit(buf, epoch)
                });
            }
            self.spliced.extend_from_slice(&self.buf[from..]);
            bytes = &self.spliced;
        }
        if !self.dead && !bytes.is_empty() {
            // Counted before it is made: a client holding the bytes sees
            // the write in `METRICS`.
            self.stats.count_write();
            let mut socket = self.socket; // `&TcpStream` is `Write`
            if socket.write_all(bytes).is_ok() {
                self.stats.add_bytes_written(bytes.len() as u64);
            } else {
                self.dead = true;
            }
        }
        self.buf.clear();
        self.spliced.clear();
        self.waiting = 0;
    }
}

/// Appends one reply to `buf`: what `render` writes, in `mode`'s frame.
fn framed(buf: &mut Vec<u8>, mode: Mode, render: impl FnOnce(&mut Vec<u8>)) {
    let start = begin_response(mode, buf);
    render(buf);
    finish_response(mode, buf, start);
}

/// `OK epoch=<e>` for a commit (or a flush) that happened, or why it never
/// will.
fn render_commit(buf: &mut Vec<u8>, epoch: Result<u64, CommitError>) {
    match epoch {
        Ok(epoch) => {
            buf.extend_from_slice(b"OK epoch=");
            put_u64(buf, epoch);
        }
        Err(e) => buf.extend_from_slice(format!("ERR commit {e}").as_bytes()),
    }
}

/// `ROWS <n> <id>…` with ids sorted ascending, so responses depend only
/// on index *contents*, never on tree shape — the property the load
/// generator's serial model replay checks bit-for-bit. The ids come from
/// `search_batch`/`stab_batch`, which return them sorted and deduplicated
/// ([`Tree::search_batch`](segidx_core::Tree::search_batch)).
fn render_rows(buf: &mut Vec<u8>, ids: Vec<RecordId>) {
    debug_assert!(
        ids.windows(2).all(|w| w[0].0 < w[1].0),
        "search results arrive sorted and deduplicated"
    );
    buf.extend_from_slice(b"ROWS ");
    put_u64(buf, ids.len() as u64);
    for id in ids {
        buf.push(b' ');
        put_u64(buf, id.0);
    }
}

/// `VERS <n> <id>:<key>=<value>…` over versions sorted by id (as
/// [`PinnedQuery::finish`] returns them) — like [`render_rows`], the reply
/// depends only on table contents, never on the backing tier layout. Each
/// row is formatted whole and appended once ([`put_vers_row`]).
fn render_vers(buf: &mut Vec<u8>, versions: &[(VersionId, Version)]) {
    buf.extend_from_slice(b"VERS ");
    put_u64(buf, versions.len() as u64);
    for (id, v) in versions {
        put_vers_row(buf, id.0, v.key, v.value);
    }
}

/// Nearest first; equal distances by id, and NaN (after every number, by
/// `f64::total_cmp`) wherever it appears — a total order, so the reply does
/// not depend on the order the index found the hits in.
fn sort_nearest(hits: &mut [NearHit]) {
    hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0 .0.cmp(&b.0 .0)));
}

/// `NEAR <n> <id>=<distance>…`, nearest first.
fn render_near(buf: &mut Vec<u8>, hits: &[NearHit]) {
    buf.extend_from_slice(b"NEAR ");
    put_u64(buf, hits.len() as u64);
    for (id, dist) in hits {
        buf.push(b' ');
        put_u64(buf, id.0);
        buf.push(b'=');
        put_f64(buf, *dist);
    }
}

/// `AS OF` / `WITHIN`: the table's lock is taken once, briefly, to pin,
/// and is not held while the pinned tiers are searched or the reply is
/// rendered, so readers on other connections overlap and a `RECORD` never
/// queues behind either (protocol: [`PinnedQuery`]).
fn temporal_read(
    shared: &Shared,
    replies: &mut Replies<'_>,
    mode: Mode,
    pin: impl FnOnce(&TemporalTable) -> Result<PinnedQuery, TemporalError>,
) {
    let pinned = pin(&shared.temporal_read());
    match pinned {
        Ok(pinned) => {
            let versions = pinned.finish();
            replies.put(mode, |buf| render_vers(buf, &versions));
        }
        Err(e) => replies.put_text(mode, &format!("ERR exec {e}")),
    }
}

/// The maximal run of `items` from `i` on that `pick` accepts, and the
/// index just past it.
fn run_of<T>(
    items: &[Pending],
    i: usize,
    pick: impl Fn(&Statement) -> Option<T>,
) -> (Vec<T>, usize) {
    let run: Vec<T> = items[i..]
        .iter()
        .map_while(|item| item.parsed.as_ref().ok().and_then(&pick))
        .collect();
    let end = i + run.len();
    (run, end)
}

/// Executes one segment of a burst — no `FLUSH` but, possibly, its last
/// statement — as the module docs lay out: pin, submit, read.
fn execute_segment(
    shared: &Shared,
    stats: &ConnStats,
    replies: &mut Replies<'_>,
    items: &[Pending],
) {
    let reads_index = |item: &Pending| {
        matches!(
            item.parsed,
            Ok(Statement::Search { .. } | Statement::Stab { .. } | Statement::Nearest { .. })
        )
    };
    let pin = items
        .iter()
        .any(reads_index)
        .then(|| shared.index.snapshot());
    let pinned = || pin.as_ref().expect("a segment with index reads is pinned");

    let writes: Vec<IndexOp<DIMS>> = items
        .iter()
        .filter_map(|item| match item.parsed {
            Ok(Statement::Insert { rect, id }) => Some(IndexOp::Insert {
                rect,
                record: RecordId(id),
            }),
            Ok(Statement::Delete { id, rect }) => Some(IndexOp::Delete {
                rect,
                record: RecordId(id),
            }),
            _ => None,
        })
        .collect();
    let mut submitted = if writes.is_empty() {
        Vec::new() // not worth the queue's lock
    } else {
        shared.index.submit_batch(writes)
    }
    .into_iter();

    let mut i = 0;
    while i < items.len() {
        let item = &items[i];
        let mode = item.mode;
        match &item.parsed {
            Err(reply) => replies.put_text(mode, reply),
            Ok(Statement::Search { .. }) => {
                let (queries, j) = run_of(items, i, |s| match s {
                    Statement::Search { window } => Some(*window),
                    _ => None,
                });
                let _trace = shared.tracer.start(OpClass::Search, "server.search_batch");
                let results = pinned().search_batch(&queries);
                for (item, ids) in items[i..j].iter().zip(results) {
                    replies.put(item.mode, |buf| render_rows(buf, ids));
                    stats.read_latency.record_duration(item.t0.elapsed());
                }
                i = j;
                continue;
            }
            Ok(Statement::Stab { .. }) => {
                let (points, j) = run_of(items, i, |s| match s {
                    Statement::Stab { point } => Some(*point),
                    _ => None,
                });
                let _trace = shared.tracer.start(OpClass::Stab, "server.stab_batch");
                let results = pinned().stab_batch(&points);
                for (item, ids) in items[i..j].iter().zip(results) {
                    replies.put(item.mode, |buf| render_rows(buf, ids));
                    stats.read_latency.record_duration(item.t0.elapsed());
                }
                i = j;
                continue;
            }
            Ok(Statement::Insert { .. } | Statement::Delete { .. }) => {
                // Its latency is taken when the commit is observed.
                match submitted.next().expect("one outcome per write") {
                    Ok(ticket) => replies.hole(mode, item.t0, ticket),
                    Err(SubmitError::Overloaded { depth }) => {
                        stats.count_busy();
                        replies.put(mode, |buf| {
                            buf.extend_from_slice(b"BUSY depth=");
                            put_u64(buf, depth as u64);
                        });
                    }
                    Err(SubmitError::Closed) => {
                        replies.put_text(mode, "ERR commit submission queue closed");
                    }
                }
                i += 1;
                continue;
            }
            Ok(Statement::Nearest { point, k }) => {
                let _trace = shared.tracer.start(OpClass::Nearest, "server.nearest");
                let mut hits: Vec<NearHit> = pinned()
                    .nearest(point, *k)
                    .into_iter()
                    .map(|n| (n.record, n.distance))
                    .collect();
                sort_nearest(&mut hits);
                replies.put(mode, |buf| render_near(buf, &hits));
            }
            Ok(Statement::Record { key, value, at }) => {
                // A writer that panicked under the lock may have left the
                // table half-written: refuse to write on top of that.
                let recorded = match shared.temporal.lock() {
                    Ok(mut table) => Some(table.try_insert(*key, *value, *at)),
                    Err(_) => None,
                };
                match recorded {
                    Some(Ok(id)) => replies.put(mode, |buf| {
                        buf.extend_from_slice(b"OK version=");
                        put_u64(buf, id.0);
                    }),
                    Some(Err(e)) => replies.put_text(mode, &format!("ERR exec {e}")),
                    None => replies.put_text(
                        mode,
                        "ERR exec temporal table poisoned by a panicked writer",
                    ),
                }
            }
            Ok(Statement::AsOf { t }) => {
                temporal_read(shared, replies, mode, |table| table.pin_as_of(*t));
            }
            Ok(Statement::Within { t1, t2, lo, hi }) => {
                temporal_read(shared, replies, mode, |table| {
                    table.pin_within(Interval::new(*t1, *t2), *lo, *hi)
                });
            }
            Ok(Statement::Flush) => {
                let epoch = shared.index.flush().map(|r| r.epoch);
                replies.put(mode, |buf| render_commit(buf, epoch));
            }
            Ok(Statement::Ping) => replies.put_text(mode, "PONG"),
            Ok(Statement::Stats) => replies.put(mode, |buf| {
                buf.extend_from_slice(b"STATS ");
                buf.extend_from_slice(shared.stats.summary_line().as_bytes());
                buf.extend_from_slice(b" records=");
                put_u64(buf, shared.index.snapshot().len() as u64);
                buf.extend_from_slice(b" epoch=");
                put_u64(buf, shared.index.epoch());
            }),
            Ok(Statement::Metrics) => {
                replies.put_text(mode, &shared.registry.snapshot().to_json());
            }
        }
        // The single-statement arms end here (the others have timed their
        // items, or left that to `settle`, and moved `i` themselves).
        let latency = match item.parsed {
            Ok(Statement::Record { .. }) => &stats.write_latency,
            _ => &stats.read_latency,
        };
        latency.record_duration(item.t0.elapsed());
        i += 1;
    }
}

/// Serves one accepted connection to completion, on the connection's one
/// thread.
pub(crate) fn serve(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let stats = shared.stats.open_connection();
    let mut read_half = &stream;
    let mut replies = Replies {
        socket: &stream,
        stats: &stats,
        buf: Vec::new(),
        holes: Vec::new(),
        spliced: Vec::new(),
        waiting: 0,
        dead: false,
    };
    let mut decoder = FrameDecoder::with_max_frame(shared.max_frame);
    let mut buf = vec![0u8; 64 * 1024];
    let mut items = Vec::new();
    loop {
        let n = match read_half.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        stats.add_bytes_read(n as u64);
        decoder.feed(&buf[..n]);

        // Drain every complete frame from this read before executing: the
        // burst is the unit of pinning, submission and socket writes.
        items.clear();
        let fatal = loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => {
                    stats.count_frame(frame.mode);
                    let t0 = Instant::now();
                    let parsed = match parse(&frame.text) {
                        Ok(stmt) => {
                            stats.count_request(stmt.op());
                            Ok(stmt)
                        }
                        Err(e) => {
                            stats.count_parse_error();
                            Err(format!("ERR parse {e}"))
                        }
                    };
                    items.push(Pending {
                        mode: frame.mode,
                        t0,
                        parsed,
                    });
                }
                Ok(None) => break None,
                Err(e) => {
                    stats.count_protocol_error();
                    break Some(e);
                }
            }
        };
        for segment in items.split_inclusive(|item| matches!(item.parsed, Ok(Statement::Flush))) {
            execute_segment(&shared, &stats, &mut replies, segment);
        }
        if let Some(e) = &fatal {
            // The stream is undecodable from here: answer in line mode
            // (readable either way) and drop the connection.
            replies.put_text(Mode::Line, &format!("ERR protocol {e}"));
        }
        replies.settle();
        if fatal.is_some() || replies.dead {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use crate::telemetry::{COMPONENT, PARSE_ERRORS_TOTAL, REQUESTS_TOTAL, WRITES_TOTAL};
    use segidx_obs::Family;
    use segidx_obs::MetricValue;
    use std::time::Duration;

    /// A line-mode client that fails, not hangs, when no reply comes.
    struct Client(TcpStream);

    impl Client {
        fn connect(server: &Server) -> Self {
            let stream = TcpStream::connect(server.local_addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            Self(stream)
        }

        fn send(&mut self, statements: &str) {
            self.0.write_all(statements.as_bytes()).unwrap();
        }

        fn line(&mut self) -> String {
            let mut line = Vec::new();
            let mut byte = [0u8; 1];
            loop {
                let n = self.0.read(&mut byte).expect("a reply within the timeout");
                assert!(n > 0, "server closed before newline");
                if byte[0] == b'\n' {
                    return String::from_utf8(line).unwrap();
                }
                line.push(byte[0]);
            }
        }

        fn ask(&mut self, statement: &str) -> String {
            self.send(statement);
            self.line()
        }

        /// Sends `statements` with one `write_all` (one read of the
        /// connection's 64 KiB buffer) and returns their replies and the
        /// socket writes the server made to answer them.
        fn burst(&mut self, server: &Server, statements: &[String]) -> (Vec<String>, u64) {
            let before = counter(server, WRITES_TOTAL, &[]);
            self.send(&statements.concat());
            let replies = statements.iter().map(|_| self.line()).collect();
            (replies, counter(server, WRITES_TOTAL, &[]) - before)
        }
    }

    /// The server's counter `family` with the `extra` labels, as `METRICS`
    /// exports it.
    fn counter(server: &Server, family: Family, extra: &[(&str, &str)]) -> u64 {
        let snap = server.registry().snapshot();
        let labels: Vec<_> = [COMPONENT].iter().chain(extra).copied().collect();
        match snap.get(family.name, &labels).map(|m| &m.value) {
            Some(MetricValue::Counter(n)) => *n,
            other => panic!("no counter {} {extra:?}: {other:?}", family.name),
        }
    }

    /// Each statement's reply when it is sent alone, on a fresh server.
    fn replies_alone(statements: &[String]) -> Vec<String> {
        let server = Server::start(ServerConfig::default()).unwrap();
        let mut c = Client::connect(&server);
        let replies = statements.iter().map(|s| c.ask(s)).collect();
        server.shutdown();
        replies
    }

    /// Statement `i` of a pipeline of temporal writes and reads and pings,
    /// over eight keys so every reply stays short.
    fn temporal_statement(i: usize) -> String {
        match i % 3 {
            0 => format!("RECORD {} VALUE {i}.5 AT {i}\n", i % 8),
            1 => format!("AS OF {}\n", i / 2),
            _ => "PING\n".to_string(),
        }
    }

    fn insert_statement(i: usize) -> String {
        format!("INSERT RECT ({i}, {i}) ({i}.5, {i}.5) ID {i}\n")
    }

    #[test]
    fn a_long_burst_without_writes_streams_its_replies_in_order() {
        let statements: Vec<String> = (0..300).map(temporal_statement).collect();
        let server = Server::start(ServerConfig::default()).unwrap();
        let mut c = Client::connect(&server);
        let (replies, writes) = c.burst(&server, &statements);
        assert_eq!(
            writes, 3,
            "one write per 128 replies: 300 / 128, rounded up"
        );
        assert_eq!(replies, replies_alone(&statements));
        server.shutdown();
    }

    #[test]
    fn a_burst_with_admitted_writes_is_answered_with_one_write() {
        let statements: Vec<String> = (0..300)
            .map(|i| match i % 4 {
                3 => insert_statement(i),
                _ => temporal_statement(i),
            })
            .collect();
        let server = Server::start(ServerConfig::default()).unwrap();
        let mut c = Client::connect(&server);
        let (replies, writes) = c.burst(&server, &statements);
        assert_eq!(writes, 1, "a hole waits on the commit until the end");
        for ((statement, reply), alone) in statements
            .iter()
            .zip(&replies)
            .zip(replies_alone(&statements))
        {
            if statement.starts_with("INSERT") {
                // Alone, each write is its own commit and epoch.
                assert!(reply.starts_with("OK epoch="), "{statement}: {reply}");
            } else {
                assert_eq!(*reply, alone, "{statement}");
            }
        }
        server.shutdown();
    }

    #[test]
    fn what_follows_a_flush_in_a_long_burst_sees_everything_before_it() {
        let inserted: Vec<usize> = (0..200).filter(|i| i % 4 == 3).collect();
        let statements: Vec<String> = (0..300)
            .map(|i| match i {
                200 => "FLUSH\n".to_string(),
                i if i < 200 && i % 4 == 3 => insert_statement(i),
                i if i % 5 == 0 => "SEARCH WINDOW (0, 0) (300, 300)\n".to_string(),
                i if i % 5 == 1 => format!("STAB POINT ({i}.25, {i}.25)\n", i = i % 200),
                i => temporal_statement(i),
            })
            .collect();
        let server = Server::start(ServerConfig::default()).unwrap();
        let mut c = Client::connect(&server);
        let (replies, _) = c.burst(&server, &statements);
        let all = format!(
            "ROWS {}{}",
            inserted.len(),
            inserted.iter().map(|i| format!(" {i}")).collect::<String>()
        );
        // Before the cut a read sees none of its segment's writes; after
        // it, every one, as if each statement had been sent alone.
        assert_eq!(replies[5], "ROWS 0");
        assert!(replies[200].starts_with("OK epoch="), "{}", replies[200]);
        assert_eq!(replies[205], all);
        let alone = replies_alone(&statements);
        assert_eq!(alone[205], all);
        assert_eq!(replies[201..], alone[201..]);
        server.shutdown();
    }

    /// A statement of the wrong shape is a parse error, answered in its
    /// place in the burst; the connection stays up and the rest execute.
    #[test]
    fn statements_of_the_wrong_shape_are_refused_in_place() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let mut c = Client::connect(&server);
        let parse_errors = || counter(&server, PARSE_ERRORS_TOTAL, &[]);
        let inserts = || counter(&server, REQUESTS_TOTAL, &[("op", "insert")]);
        let before = (parse_errors(), inserts());
        let statements = [
            "INSERT RECT (1, 1) (2, 2) ID 7\n",
            "INSERT RECT (2, 2) (1, 1) ID 5\n",
            "SEARCH WINDOW (0, 0) (3, 3)\n",
            "STAB POINT (1, 2, 3)\n",
            "PING\n",
        ]
        .map(String::from);
        let (replies, _) = c.burst(&server, &statements);
        assert!(replies[0].starts_with("OK epoch="), "{}", replies[0]);
        assert_eq!(
            replies[1],
            "ERR parse 12..25 invalid rectangle: each lo must be <= the matching hi"
        );
        assert!(replies[2].starts_with("ROWS "), "{}", replies[2]);
        assert_eq!(replies[3], "ERR parse 11..20 expected 2 coordinates, got 3");
        assert_eq!(replies[4], "PONG");
        assert!(c.ask("FLUSH\n").starts_with("OK epoch="));
        assert_eq!(c.ask("SEARCH WINDOW (0, 0) (3, 3)\n"), "ROWS 1 7");
        assert_eq!((parse_errors(), inserts()), (before.0 + 2, before.1 + 1));
        server.shutdown();
    }

    #[test]
    fn a_dead_index_writer_answers_its_connection_and_spares_the_others() {
        // Regression: a writer that panicked mid-commit dropped the tickets
        // it had drained, and a connection thread waiting on one — or on
        // `FLUSH`'s barrier — parked forever. The client's read timeout
        // turns a hang into a failure.
        let server = Server::start_with(ServerConfig::default(), |index| {
            index.commit_hook(Box::new(|epoch| {
                assert!(epoch < 2, "commit hook failure injected by the test");
            }))
        })
        .unwrap();
        let mut a = Client::connect(&server);
        assert_eq!(a.ask("INSERT RECT (1, 1) (2, 2) ID 7\n"), "OK epoch=1");
        assert_eq!(
            a.ask("INSERT RECT (1, 1) (2, 2) ID 8\n"),
            "ERR commit writer exited before commit"
        );
        assert_eq!(
            a.ask("INSERT RECT (1, 1) (2, 2) ID 9\n"),
            "ERR commit submission queue closed"
        );
        assert_eq!(a.ask("FLUSH\n"), "ERR commit writer exited before commit");
        // Reads never needed the writer: on another connection and on this.
        let mut b = Client::connect(&server);
        assert_eq!(b.ask("SEARCH WINDOW (0, 0) (3, 3)\n"), "ROWS 1 7");
        assert_eq!(a.ask("STAB POINT (1.5, 1.5)\n"), "ROWS 1 7");
        server.shutdown();
    }

    #[test]
    fn nearest_order_is_total_under_ties_and_nan() {
        let hit = |id: u64, d: f64| (RecordId(id), d);
        let mut hits = vec![
            hit(9, f64::NAN),
            hit(4, 2.0),
            hit(7, 0.5),
            hit(2, 2.0),
            hit(5, f64::NAN),
            hit(3, 2.0),
            hit(1, f64::INFINITY),
            hit(8, 0.0),
            hit(6, -0.0),
        ];
        let mut other_way = hits.clone();
        other_way.reverse();
        sort_nearest(&mut hits);
        sort_nearest(&mut other_way);
        let ids = |hits: &[NearHit]| hits.iter().map(|h| h.0 .0).collect::<Vec<_>>();
        // -0.0 before 0.0, ties by id, infinity then NaN (by id) last —
        // whatever order the index produced them in.
        assert_eq!(ids(&hits), [6, 8, 7, 2, 3, 4, 1, 5, 9]);
        assert_eq!(ids(&other_way), ids(&hits));
        let mut buf = Vec::new();
        render_near(&mut buf, &hits[..4]);
        assert_eq!(buf, b"NEAR 4 6=-0.0 8=0.0 7=0.5 2=2.0");
    }

    #[test]
    fn a_burst_past_the_direct_write_threshold_arrives_whole_and_counted() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let mut c = Client::connect(&server);
        let mut received = 0;
        for key in 0..200 {
            let reply = c.ask(&format!("RECORD {key} VALUE {key}.5 AT {key}\n"));
            assert_eq!(reply, format!("OK version={key}"));
            received += reply.len() + 1;
        }
        let expected = c.ask("AS OF 1000\n");
        assert!(
            expected.starts_with("VERS 200 0:0=0.5 1:1=1.5 "),
            "{expected}"
        );
        received += expected.len() + 1;

        // One write of small statements whose answers add up to several
        // times the threshold: the reader writes out part way through the
        // burst, more than once, and every byte is counted.
        let burst = 4 * DIRECT_WRITE_BYTES / expected.len();
        c.send(&"AS OF 1000\n".repeat(burst));
        for i in 0..burst {
            assert_eq!(c.line(), expected, "reply {i} of {burst}");
        }
        received += burst * (expected.len() + 1);
        let stats = c.ask("STATS\n");
        assert!(
            stats.contains(&format!(" bytes_out={received} ")),
            "{received} bytes received, but {stats}"
        );
        server.shutdown();
    }
}
