//! Per-connection machinery: a reader thread that decodes, parses, and
//! executes pipelined frames, and a flusher thread that writes the
//! responses of commits back in request order.
//!
//! # Who writes to the socket
//!
//! Two threads may, never at once. The [`Outbox`] — ordered response slots
//! — is the only ordering authority; the rule that keeps the reader inside
//! it is one flag under the outbox's lock:
//!
//! * **Idle rule.** The outbox is *idle* when no slot is reserved and the
//!   flusher is not in the middle of a write. Only the reader reserves
//!   slots and the flusher writes only slots, so an outbox the reader has
//!   seen idle stays idle until the reader itself reserves. While it is,
//!   every earlier reply is already on the wire, and the reader renders the
//!   synchronous replies of a burst (searches, temporal statements, `PING`,
//!   errors — everything it can answer itself) into one per-connection
//!   buffer and writes it with one `write_all`: no slot, no wake-up, no
//!   second copy.
//! * **Flush before reserve.** A write's reply comes later, from the index
//!   writer thread, so it needs a slot. Before reserving the first one of a
//!   burst the reader writes out what it has rendered; from there to the
//!   end of the burst replies go through slots — each run of consecutive
//!   synchronous replies as *one* slot — and the flusher sends them.
//!
//! # Why no thread parks per in-flight write
//!
//! Writes are submitted in batches ([`Backend::submit_batch`]) and their
//! responses are produced by `CommitTicket::on_complete` callbacks that
//! run on the index writer thread. The reader thread never blocks on a
//! commit: it reserves an ordered response slot in the [`Outbox`] and
//! moves on to the next frame. The flusher wakes only when the *next*
//! response in order is ready, packs every contiguous ready response into
//! one socket write, and sleeps again — so a connection with hundreds of
//! in-flight writes costs two parked threads total, not one per write.
//!
//! Backpressure is two-layered: the submission queue rejects writes with
//! `BUSY depth=…` when the writer is behind (admission control), and the
//! outbox caps reserved-but-unflushed responses, suspending the reader —
//! which stops draining the socket and lets TCP push back on the client.
//! A reader writing its own replies is pushed back on by TCP directly.
//!
//! [`Backend::submit_batch`]: crate::backend::Backend::submit_batch

use crate::backend::{NearHit, DIMS};
use crate::frame::{begin_response, finish_response, put_f64, put_u64, FrameDecoder, Mode};
use crate::parser::{parse, Statement};
use crate::server::Shared;
use crate::telemetry::ConnStats;
use segidx_concurrent::{CommitTicket, IndexOp, SubmitError};
use segidx_core::RecordId;
use segidx_geom::{Interval, Point, Rect};
use segidx_obs::OpClass;
use segidx_temporal::{PinnedQuery, TemporalError, TemporalTable, Version, VersionId};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Cap on reserved-but-unflushed responses per connection. Hitting it
/// suspends the reader (TCP backpressure), it does not drop anything.
const OUTBOX_CAPACITY: usize = 64 * 1024;

/// Rendered bytes past which the reader writes out without waiting for the
/// end of the burst, so one read of small statements with large answers
/// holds a bounded buffer, as the flusher streaming slots used to.
const DIRECT_WRITE_BYTES: usize = 256 * 1024;

/// Ordered response slots shared by the reader, the flusher, and commit
/// callbacks. `reserve` hands out sequence numbers in request order;
/// `fill` may complete them in any order; the flusher only ever sends the
/// contiguous filled prefix.
pub(crate) struct Outbox {
    inner: Mutex<OutboxInner>,
    /// Signals the flusher: front slot filled, closed, or aborted.
    ready: Condvar,
    /// Signals the reader: capacity freed.
    space: Condvar,
}

struct OutboxInner {
    slots: VecDeque<Option<Vec<u8>>>,
    /// Sequence number of `slots[0]`.
    base: u64,
    /// Next sequence number to hand out.
    next: u64,
    /// No more reservations will arrive (reader is done).
    closed: bool,
    /// Socket is dead; discard instead of buffering.
    aborted: bool,
    /// The flusher holds a chunk it has not finished writing.
    writing: bool,
}

impl Outbox {
    fn new() -> Self {
        Self {
            inner: Mutex::new(OutboxInner {
                slots: VecDeque::new(),
                base: 0,
                next: 0,
                closed: false,
                aborted: false,
                writing: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// The lock, poisoned or not. `fill` runs on the index writer thread,
    /// which every connection shares: a connection thread that panicked
    /// under its own outbox's lock must not take the writer down with it.
    /// Recovering is sound because no step under the lock can panic part
    /// way through an update — slots and their counters move together.
    fn lock(&self) -> MutexGuard<'_, OutboxInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether every earlier reply is on the wire: nothing reserved, and
    /// the flusher not mid-write. Never true once the socket is dead.
    fn idle(&self) -> bool {
        let g = self.lock();
        g.slots.is_empty() && !g.writing && !g.aborted
    }

    /// Reserves the next `n` in-order response slots, blocking while the
    /// outbox is at capacity; returns the first one's sequence number.
    fn reserve(&self, n: usize) -> u64 {
        let mut g = self.wait_for_space();
        let first = g.next;
        if !g.aborted {
            g.slots.extend((0..n).map(|_| None));
            g.next += n as u64;
        }
        first
    }

    /// Completes slot `seq`. Safe from any thread, in any order.
    fn fill(&self, seq: u64, bytes: Vec<u8>) {
        let mut g = self.lock();
        if g.aborted {
            return;
        }
        let idx = (seq - g.base) as usize;
        g.slots[idx] = Some(bytes);
        if idx == 0 {
            self.ready.notify_one();
        }
    }

    /// Reserves the next slot and completes it at once: replies the reader
    /// rendered itself while earlier slots were still open.
    fn push(&self, bytes: Vec<u8>) {
        let mut g = self.wait_for_space();
        if g.aborted {
            return;
        }
        g.slots.push_back(Some(bytes));
        g.next += 1;
        if g.slots.len() == 1 {
            self.ready.notify_one();
        }
    }

    fn wait_for_space(&self) -> MutexGuard<'_, OutboxInner> {
        let mut g = self.lock();
        while g.slots.len() >= OUTBOX_CAPACITY && !g.aborted {
            g = self.space.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        g
    }

    /// Marks that no further reservations will be made; the flusher exits
    /// once everything reserved has been filled and sent.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_one();
    }

    /// Drops all pending output (socket died) and unblocks both sides.
    fn abort(&self) {
        let mut g = self.lock();
        g.aborted = true;
        g.slots.clear();
        self.ready.notify_one();
        self.space.notify_all();
    }

    /// Blocks until at least one in-order response is ready, then returns
    /// the whole contiguous ready prefix as one buffer. `None` means the
    /// connection is finished (closed and drained, or aborted). Only the
    /// flusher calls this, each time having written the chunk before.
    fn next_chunk(&self) -> Option<Vec<u8>> {
        let mut g = self.lock();
        g.writing = false;
        loop {
            if g.aborted {
                return None;
            }
            // The first ready response is the chunk; any behind it are
            // appended, so the common single one is sent without a copy.
            let mut chunk: Option<Vec<u8>> = None;
            while matches!(g.slots.front(), Some(Some(_))) {
                let bytes = g.slots.pop_front().flatten().expect("front is filled");
                g.base += 1;
                match &mut chunk {
                    None => chunk = Some(bytes),
                    Some(buf) => buf.extend_from_slice(&bytes),
                }
            }
            if chunk.is_some() {
                g.writing = true;
                self.space.notify_all();
                return chunk;
            }
            if g.closed && g.slots.is_empty() {
                return None;
            }
            g = self.ready.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A statement validated against the index dimensionality, ready to
/// execute (or an error response ready to send).
enum Prepared {
    Search(Rect<DIMS>),
    Stab(Point<DIMS>),
    Write(IndexOp<DIMS>),
    Nearest(Point<DIMS>, usize),
    Record {
        key: u64,
        value: f64,
        at: f64,
    },
    AsOf(f64),
    Within {
        t1: f64,
        t2: f64,
        lo: f64,
        hi: f64,
    },
    Flush,
    Stats,
    Metrics,
    /// Response already decided: PONG, parse errors, validation errors.
    Reply(String),
}

fn point2(p: &[f64]) -> Result<Point<DIMS>, String> {
    if p.len() != DIMS {
        return Err(format!("expected {DIMS} coordinates, got {}", p.len()));
    }
    Ok(Point::new([p[0], p[1]]))
}

fn rect2(lo: &[f64], hi: &[f64]) -> Result<Rect<DIMS>, String> {
    let lo = point2(lo)?;
    let hi = point2(hi)?;
    Rect::checked(*lo.coords(), *hi.coords())
        .ok_or_else(|| "invalid rectangle: each lo must be <= the matching hi".to_string())
}

fn prepare(text: &str, stats: &ConnStats) -> Prepared {
    let stmt = match parse(text) {
        Ok(s) => s,
        Err(e) => {
            stats.count_parse_error();
            return Prepared::Reply(format!("ERR parse {e}"));
        }
    };
    stats.count_request(stmt.op_name());
    let validated = match stmt {
        Statement::Insert { lo, hi, id } => rect2(&lo, &hi).map(|rect| {
            Prepared::Write(IndexOp::Insert {
                rect,
                record: RecordId(id),
            })
        }),
        Statement::Delete { id, lo, hi } => rect2(&lo, &hi).map(|rect| {
            Prepared::Write(IndexOp::Delete {
                rect,
                record: RecordId(id),
            })
        }),
        Statement::Search { lo, hi } => rect2(&lo, &hi).map(Prepared::Search),
        Statement::Stab { point } => point2(&point).map(Prepared::Stab),
        Statement::Nearest { point, k } => point2(&point).map(|p| Prepared::Nearest(p, k)),
        Statement::Record { key, value, at } => Ok(Prepared::Record { key, value, at }),
        Statement::AsOf { t } => Ok(Prepared::AsOf(t)),
        Statement::Within { t1, t2, lo, hi } => {
            if t2 < t1 {
                Err(format!("invalid time window: {t1} > {t2}"))
            } else if hi < lo {
                Err(format!("invalid duration band: {lo} > {hi}"))
            } else {
                Ok(Prepared::Within { t1, t2, lo, hi })
            }
        }
        Statement::Flush => Ok(Prepared::Flush),
        Statement::Ping => Ok(Prepared::Reply("PONG".to_string())),
        Statement::Stats => Ok(Prepared::Stats),
        Statement::Metrics => Ok(Prepared::Metrics),
    };
    validated.unwrap_or_else(|msg| Prepared::Reply(format!("ERR exec {msg}")))
}

struct Pending {
    mode: Mode,
    t0: Instant,
    prepared: Prepared,
}

/// The reader's end of reply ordering (see the module docs): where the
/// replies it renders itself go, and the one place slots are reserved.
struct Replies<'a> {
    outbox: &'a Outbox,
    socket: &'a TcpStream,
    stats: &'a ConnStats,
    /// Rendered replies not yet handed on. Allocated once per connection.
    buf: Vec<u8>,
    /// `buf` goes straight to the socket (the outbox was idle when the
    /// burst began and nothing has been reserved since); otherwise it is
    /// the next slot in the making.
    direct: bool,
}

impl Replies<'_> {
    fn begin_burst(&mut self) {
        self.direct = self.outbox.idle();
    }

    /// Renders one synchronous reply, in its frame, behind those before it.
    fn put(&mut self, mode: Mode, render: impl FnOnce(&mut Vec<u8>)) {
        framed(&mut self.buf, mode, render);
        if self.direct && self.buf.len() >= DIRECT_WRITE_BYTES {
            self.hand_on();
        }
    }

    fn put_text(&mut self, mode: Mode, text: &str) {
        self.put(mode, |buf| buf.extend_from_slice(text.as_bytes()));
    }

    /// Reserves `n` slots for replies that come later, in order behind
    /// everything rendered so far; returns the first one's sequence number.
    fn reserve(&mut self, n: usize) -> u64 {
        self.hand_on();
        self.direct = false;
        self.outbox.reserve(n)
    }

    /// Hands on what has been rendered — to the socket, or to the outbox
    /// as one slot. Called at the end of every burst.
    fn hand_on(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        if self.direct {
            let mut socket = self.socket; // `&TcpStream` is `Write`
            if socket.write_all(&self.buf).is_ok() {
                self.stats.add_bytes_written(self.buf.len() as u64);
            } else {
                // As when the flusher's write fails: drop what is pending,
                // let the flusher shut the socket down, discard from here.
                self.outbox.abort();
                self.direct = false;
            }
        } else {
            self.outbox.push(self.buf.as_slice().to_vec());
        }
        self.buf.clear();
    }
}

/// Appends one reply to `buf`: what `render` writes, in `mode`'s frame.
fn framed(buf: &mut Vec<u8>, mode: Mode, render: impl FnOnce(&mut Vec<u8>)) {
    let start = begin_response(mode, buf);
    render(buf);
    finish_response(mode, buf, start);
}

/// Completes slot `seq` with one reply rendered into its frame.
fn fill_with(outbox: &Outbox, seq: u64, mode: Mode, render: impl FnOnce(&mut Vec<u8>)) {
    let mut buf = Vec::with_capacity(32);
    framed(&mut buf, mode, render);
    outbox.fill(seq, buf);
}

/// Has `ticket`'s outcome fill slot `seq` when it is known. That happens on
/// the index writer thread; nothing on this connection parks waiting.
fn answer_commit(
    ticket: CommitTicket,
    outbox: Arc<Outbox>,
    stats: Arc<ConnStats>,
    seq: u64,
    mode: Mode,
    t0: Instant,
) {
    ticket.on_complete(move |result| {
        stats.write_latency.record_duration(t0.elapsed());
        fill_with(&outbox, seq, mode, |buf| match result {
            Ok(receipt) => render_epoch(buf, receipt.epoch),
            Err(e) => buf.extend_from_slice(format!("ERR commit {e}").as_bytes()),
        });
    });
}

fn render_epoch(buf: &mut Vec<u8>, epoch: u64) {
    buf.extend_from_slice(b"OK epoch=");
    put_u64(buf, epoch);
}

/// `ROWS <n> <id>…` with ids sorted ascending, so responses depend only
/// on index *contents*, never on tree shape — the property the load
/// generator's serial model replay checks bit-for-bit.
fn render_rows(buf: &mut Vec<u8>, mut ids: Vec<RecordId>) {
    ids.sort_unstable_by_key(|r| r.0);
    buf.extend_from_slice(b"ROWS ");
    put_u64(buf, ids.len() as u64);
    for id in ids {
        buf.push(b' ');
        put_u64(buf, id.0);
    }
}

/// `VERS <n> <id>:<key>=<value>…` over versions sorted by id (as
/// [`TemporalTable::resolve`] returns them) — like [`render_rows`], the
/// reply depends only on table contents, never on the backing tier layout.
fn render_vers(buf: &mut Vec<u8>, versions: &[(VersionId, Version)]) {
    buf.extend_from_slice(b"VERS ");
    put_u64(buf, versions.len() as u64);
    for (id, v) in versions {
        buf.push(b' ');
        put_u64(buf, id.0);
        buf.push(b':');
        put_u64(buf, v.key);
        buf.push(b'=');
        put_f64(buf, v.value);
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

/// `AS OF` / `WITHIN`: the table's lock is taken twice, briefly — to pin
/// and to resolve — and is not held while the pinned tiers are searched or
/// the reply is rendered, so readers on other connections overlap and a
/// `RECORD` never queues behind either (protocol: [`PinnedQuery`]).
fn temporal_read(
    shared: &Shared,
    replies: &mut Replies<'_>,
    mode: Mode,
    pin: impl FnOnce(&TemporalTable) -> Result<PinnedQuery, TemporalError>,
) {
    let pinned = pin(&shared.temporal_read());
    match pinned {
        Ok(pinned) => {
            let searched = pinned.search();
            let versions = shared.temporal_read().resolve(searched);
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
    pick: impl Fn(&Prepared) -> Option<T>,
) -> (Vec<T>, usize) {
    let run: Vec<T> = items[i..]
        .iter()
        .map_while(|item| pick(&item.prepared))
        .collect();
    let end = i + run.len();
    (run, end)
}

/// Executes one burst of decoded frames. Consecutive searches, stabs, and
/// writes are executed as single batched calls into the index.
fn execute_batch(
    shared: &Shared,
    stats: &Arc<ConnStats>,
    outbox: &Arc<Outbox>,
    replies: &mut Replies<'_>,
    items: &[Pending],
) {
    let mut i = 0;
    while i < items.len() {
        let item = &items[i];
        let mode = item.mode;
        match &item.prepared {
            Prepared::Search(_) => {
                let (queries, j) = run_of(items, i, |p| match p {
                    Prepared::Search(r) => Some(*r),
                    _ => None,
                });
                let _trace = shared.tracer.start(OpClass::Search, "server.search_batch");
                let results = shared.backend.search_many(&queries);
                for (item, ids) in items[i..j].iter().zip(results) {
                    replies.put(item.mode, |buf| render_rows(buf, ids));
                    stats.read_latency.record_duration(item.t0.elapsed());
                }
                i = j;
                continue;
            }
            Prepared::Stab(_) => {
                let (points, j) = run_of(items, i, |p| match p {
                    Prepared::Stab(p) => Some(*p),
                    _ => None,
                });
                let _trace = shared.tracer.start(OpClass::Stab, "server.stab_batch");
                let results = shared.backend.stab_many(&points);
                for (item, ids) in items[i..j].iter().zip(results) {
                    replies.put(item.mode, |buf| render_rows(buf, ids));
                    stats.read_latency.record_duration(item.t0.elapsed());
                }
                i = j;
                continue;
            }
            Prepared::Write(_) => {
                let (ops, j) = run_of(items, i, |p| match p {
                    Prepared::Write(op) => Some(*op),
                    _ => None,
                });
                let first = replies.reserve(ops.len());
                let submitted = shared.backend.submit_batch(ops);
                for ((item, res), seq) in items[i..j].iter().zip(submitted).zip(first..) {
                    match res {
                        Ok(ticket) => {
                            let (outbox, stats) = (Arc::clone(outbox), Arc::clone(stats));
                            answer_commit(ticket, outbox, stats, seq, item.mode, item.t0);
                        }
                        Err(SubmitError::Overloaded { depth }) => {
                            stats.count_busy();
                            fill_with(outbox, seq, item.mode, |buf| {
                                buf.extend_from_slice(b"BUSY depth=");
                                put_u64(buf, depth as u64);
                            });
                        }
                        Err(SubmitError::Closed) => {
                            fill_with(outbox, seq, item.mode, |buf| {
                                buf.extend_from_slice(b"ERR commit submission queue closed")
                            });
                        }
                    }
                }
                i = j;
                continue;
            }
            Prepared::Nearest(p, k) => {
                let _trace = shared.tracer.start(OpClass::Nearest, "server.nearest");
                let mut hits = shared.backend.nearest(p, *k);
                sort_nearest(&mut hits);
                replies.put(mode, |buf| render_near(buf, &hits));
            }
            Prepared::Record { key, value, at } => {
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
            Prepared::AsOf(t) => {
                temporal_read(shared, replies, mode, |table| table.pin_as_of(*t));
            }
            Prepared::Within { t1, t2, lo, hi } => {
                temporal_read(shared, replies, mode, |table| {
                    table.pin_within(Interval::new(*t1, *t2), *lo, *hi)
                });
            }
            Prepared::Flush => match shared.backend.flush() {
                Ok(epoch) => replies.put(mode, |buf| render_epoch(buf, epoch)),
                Err(e) => replies.put_text(mode, &format!("ERR commit {e}")),
            },
            Prepared::Stats => replies.put(mode, |buf| {
                buf.extend_from_slice(b"STATS ");
                buf.extend_from_slice(shared.stats.summary_line().as_bytes());
                buf.extend_from_slice(b" records=");
                put_u64(buf, shared.backend.len() as u64);
                buf.extend_from_slice(b" epoch=");
                put_u64(buf, shared.backend.epoch());
            }),
            Prepared::Metrics => {
                replies.put_text(mode, &shared.registry.snapshot().to_json());
            }
            Prepared::Reply(text) => replies.put_text(mode, text),
        }
        // The single-statement arms end here (the batched ones have timed
        // their items and moved `i` themselves).
        let latency = match item.prepared {
            Prepared::Record { .. } => &stats.write_latency,
            _ => &stats.read_latency,
        };
        latency.record_duration(item.t0.elapsed());
        i += 1;
    }
}

/// Serves one accepted connection to completion. Called on the dedicated
/// reader thread; spawns (and joins) the flusher thread itself.
pub(crate) fn serve(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let stats = shared.stats.open_connection();
    let outbox = Arc::new(Outbox::new());

    let flusher = {
        let mut write_half = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => {
                shared.stats.close_connection(&stats);
                return;
            }
        };
        let outbox = Arc::clone(&outbox);
        let stats = Arc::clone(&stats);
        std::thread::spawn(move || {
            while let Some(chunk) = outbox.next_chunk() {
                if write_half.write_all(&chunk).is_err() {
                    outbox.abort();
                    break;
                }
                stats.add_bytes_written(chunk.len() as u64);
            }
            let _ = write_half.shutdown(Shutdown::Write);
        })
    };

    let mut read_half = &stream;
    let mut replies = Replies {
        outbox: &outbox,
        socket: &stream,
        stats: &stats,
        buf: Vec::new(),
        direct: false,
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

        // Drain every complete frame from this read before executing, so
        // pipelined requests batch into single index calls.
        items.clear();
        let fatal = loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => {
                    stats.count_frame(frame.mode);
                    let t0 = Instant::now();
                    let prepared = prepare(&frame.text, &stats);
                    items.push(Pending {
                        mode: frame.mode,
                        t0,
                        prepared,
                    });
                }
                Ok(None) => break None,
                Err(e) => {
                    stats.count_protocol_error();
                    break Some(e);
                }
            }
        };
        replies.begin_burst();
        execute_batch(&shared, &stats, &outbox, &mut replies, &items);
        if let Some(e) = &fatal {
            // The stream is undecodable from here: answer in line mode
            // (readable either way) and drop the connection.
            replies.put_text(Mode::Line, &format!("ERR protocol {e}"));
        }
        replies.hand_on();
        if fatal.is_some() {
            break;
        }
    }

    outbox.close();
    let _ = flusher.join();
    shared.stats.close_connection(&stats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
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
    }

    #[test]
    fn a_poisoned_outbox_does_not_take_the_index_writer_down() {
        // Regression: the outbox's lock sites were `.lock().unwrap()`, and
        // `fill` runs on the index writer thread. A connection thread that
        // panicked under its own outbox's lock therefore panicked the
        // writer at that connection's next commit — and no write on any
        // connection was applied or answered again.
        let server = Server::start(ServerConfig::default()).unwrap();

        // Connection A's outbox with one write in flight, wired as `serve`
        // and `execute_batch` wire it, then poisoned from "A's thread".
        let outbox = Arc::new(Outbox::new());
        let stats = Arc::new(ConnStats::new());
        let seq = outbox.reserve(1);
        let held = Arc::clone(&outbox);
        let panicked = std::thread::spawn(move || {
            let _guard = held.inner.lock().unwrap();
            panic!("poisoning connection A's outbox on purpose");
        })
        .join();
        assert!(panicked.is_err() && outbox.inner.is_poisoned());
        let insert = IndexOp::Insert {
            rect: Rect::new([1.0, 1.0], [2.0, 2.0]),
            record: RecordId(7),
        };
        let ticket = server
            .shared()
            .backend
            .submit_batch(vec![insert])
            .remove(0)
            .expect("queue has room");
        answer_commit(
            ticket,
            Arc::clone(&outbox),
            stats,
            seq,
            Mode::Line,
            Instant::now(),
        );

        // The writer thread filled A's slot through the poisoned lock...
        let reply = outbox.next_chunk().expect("A's commit is answered");
        assert!(reply.starts_with(b"OK epoch="), "{reply:?}");
        // ...and is alive for connection B, whose writes commit and answer.
        let mut b = Client::connect(&server);
        assert!(b
            .ask("INSERT RECT (1, 1) (2, 2) ID 8\n")
            .starts_with("OK epoch="));
        assert!(b.ask("FLUSH\n").starts_with("OK epoch="));
        assert_eq!(b.ask("SEARCH WINDOW (0, 0) (3, 3)\n"), "ROWS 2 7 8");
        // The rest of A's outbox works through the poison too.
        assert!(!outbox.idle(), "the flusher holds A's reply");
        outbox.push(b"PONG\n".to_vec());
        outbox.close();
        assert_eq!(outbox.next_chunk().as_deref(), Some(&b"PONG\n"[..]));
        assert_eq!(outbox.next_chunk(), None);
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
