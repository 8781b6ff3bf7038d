//! Per-connection machinery: a reader thread that decodes, parses, and
//! executes pipelined frames, and a flusher thread that writes responses
//! back in request order.
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

use crate::backend::DIMS;
use crate::frame::{begin_response, finish_response, FrameDecoder, Mode};
use crate::parser::{parse, Statement};
use crate::server::Shared;
use crate::telemetry::ConnStats;
use segidx_concurrent::{IndexOp, SubmitError};
use segidx_core::RecordId;
use segidx_geom::{Interval, Point, Rect};
use segidx_obs::OpClass;
use segidx_temporal::{PinnedQuery, TemporalError, TemporalTable, Version, VersionId};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Cap on reserved-but-unflushed responses per connection. Hitting it
/// suspends the reader (TCP backpressure), it does not drop anything.
const OUTBOX_CAPACITY: usize = 64 * 1024;

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
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// Reserves the next in-order response slot, blocking while the
    /// outbox is at capacity.
    fn reserve(&self) -> u64 {
        let mut g = self.inner.lock().unwrap();
        while g.slots.len() >= OUTBOX_CAPACITY && !g.aborted {
            g = self.space.wait(g).unwrap();
        }
        g.slots.push_back(None);
        let seq = g.next;
        g.next += 1;
        seq
    }

    /// Completes slot `seq`. Safe from any thread, in any order.
    fn fill(&self, seq: u64, bytes: Vec<u8>) {
        let mut g = self.inner.lock().unwrap();
        if g.aborted {
            return;
        }
        let idx = (seq - g.base) as usize;
        g.slots[idx] = Some(bytes);
        if idx == 0 {
            self.ready.notify_one();
        }
    }

    /// Marks that no further reservations will be made; the flusher exits
    /// once everything reserved has been filled and sent.
    fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_one();
    }

    /// Drops all pending output (socket died) and unblocks both sides.
    fn abort(&self) {
        let mut g = self.inner.lock().unwrap();
        g.aborted = true;
        g.slots.clear();
        self.ready.notify_one();
        self.space.notify_all();
    }

    /// Blocks until at least one in-order response is ready, then returns
    /// the whole contiguous ready prefix as one buffer. `None` means the
    /// connection is finished (closed and drained, or aborted).
    fn next_chunk(&self) -> Option<Vec<u8>> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if g.aborted {
                return None;
            }
            if matches!(g.slots.front(), Some(Some(_))) {
                let mut buf = Vec::new();
                while matches!(g.slots.front(), Some(Some(_))) {
                    let bytes = g.slots.pop_front().unwrap().unwrap();
                    g.base += 1;
                    buf.extend_from_slice(&bytes);
                }
                self.space.notify_all();
                return Some(buf);
            }
            if g.closed && g.slots.is_empty() {
                return None;
            }
            g = self.ready.wait(g).unwrap();
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

struct Pending {
    seq: u64,
    mode: Mode,
    t0: Instant,
    prepared: Prepared,
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

/// Renders one reply straight into its frame and completes slot `seq`:
/// `render` writes the payload into a buffer sized for `size_hint` bytes,
/// which becomes the response as is — one allocation, no copy.
fn fill_with(
    outbox: &Outbox,
    seq: u64,
    mode: Mode,
    size_hint: usize,
    render: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
) {
    let mut buf = Vec::with_capacity(size_hint + 5);
    let start = begin_response(mode, &mut buf);
    render(&mut buf).expect("writing to a Vec cannot fail");
    finish_response(mode, &mut buf, start);
    outbox.fill(seq, buf);
}

fn fill_reply(outbox: &Outbox, seq: u64, mode: Mode, text: &str) {
    fill_with(outbox, seq, mode, text.len(), |buf| {
        buf.write_all(text.as_bytes())
    });
}

/// `ROWS <n> <id>…` with ids sorted ascending, so responses depend only
/// on index *contents*, never on tree shape — the property the load
/// generator's serial model replay checks bit-for-bit.
fn fill_rows(outbox: &Outbox, seq: u64, mode: Mode, mut ids: Vec<RecordId>) {
    ids.sort_unstable_by_key(|r| r.0);
    fill_with(outbox, seq, mode, 16 + 12 * ids.len(), |buf| {
        write!(buf, "ROWS {}", ids.len())?;
        ids.iter().try_for_each(|id| write!(buf, " {}", id.0))
    });
}

/// `VERS <n> <id>:<key>=<value>…` over versions sorted by id (as
/// [`TemporalTable::resolve`] returns them) — like [`fill_rows`], the
/// reply depends only on table contents, never on the backing tier layout.
fn fill_vers(outbox: &Outbox, seq: u64, mode: Mode, versions: &[(VersionId, Version)]) {
    fill_with(outbox, seq, mode, 16 + 32 * versions.len(), |buf| {
        write!(buf, "VERS {}", versions.len())?;
        versions
            .iter()
            .try_for_each(|(id, v)| write!(buf, " {}:{}={:?}", id.0, v.key, v.value))
    });
}

/// `AS OF` / `WITHIN`: the table's lock is taken twice, briefly — to pin
/// and to resolve — and is not held while the pinned tiers are searched or
/// the reply is rendered, so readers on other connections overlap and a
/// `RECORD` never queues behind either (protocol: [`PinnedQuery`]).
fn temporal_read(
    shared: &Shared,
    outbox: &Outbox,
    item: &Pending,
    pin: impl FnOnce(&TemporalTable) -> Result<PinnedQuery, TemporalError>,
) {
    let pinned = pin(&shared.temporal_read());
    match pinned {
        Ok(pinned) => {
            let searched = pinned.search();
            let versions = shared.temporal_read().resolve(searched);
            fill_vers(outbox, item.seq, item.mode, &versions);
        }
        Err(e) => fill_reply(outbox, item.seq, item.mode, &format!("ERR exec {e}")),
    }
}

/// Executes one batch of decoded frames. Consecutive searches, stabs, and
/// writes are executed as single batched calls into the index.
fn execute_batch(
    shared: &Shared,
    stats: &Arc<ConnStats>,
    outbox: &Arc<Outbox>,
    items: Vec<Pending>,
) {
    let mut i = 0;
    while i < items.len() {
        match &items[i].prepared {
            Prepared::Search(_) => {
                let mut j = i;
                let mut queries = Vec::new();
                while j < items.len() {
                    match &items[j].prepared {
                        Prepared::Search(r) => queries.push(*r),
                        _ => break,
                    }
                    j += 1;
                }
                let _trace = shared.tracer.start(OpClass::Search, "server.search_batch");
                let results = shared.backend.search_many(&queries);
                for (item, ids) in items[i..j].iter().zip(results) {
                    fill_rows(outbox, item.seq, item.mode, ids);
                    stats.read_latency.record_duration(item.t0.elapsed());
                }
                i = j;
            }
            Prepared::Stab(_) => {
                let mut j = i;
                let mut points = Vec::new();
                while j < items.len() {
                    match &items[j].prepared {
                        Prepared::Stab(p) => points.push(*p),
                        _ => break,
                    }
                    j += 1;
                }
                let _trace = shared.tracer.start(OpClass::Stab, "server.stab_batch");
                let results = shared.backend.stab_many(&points);
                for (item, ids) in items[i..j].iter().zip(results) {
                    fill_rows(outbox, item.seq, item.mode, ids);
                    stats.read_latency.record_duration(item.t0.elapsed());
                }
                i = j;
            }
            Prepared::Write(_) => {
                let mut j = i;
                let mut ops = Vec::new();
                while j < items.len() {
                    match &items[j].prepared {
                        Prepared::Write(op) => ops.push(*op),
                        _ => break,
                    }
                    j += 1;
                }
                let submitted = shared.backend.submit_batch(ops);
                for (item, res) in items[i..j].iter().zip(submitted) {
                    match res {
                        Ok(ticket) => {
                            let outbox = Arc::clone(outbox);
                            let stats = Arc::clone(stats);
                            let (seq, mode, t0) = (item.seq, item.mode, item.t0);
                            // Completion runs on the index writer thread;
                            // nothing on this connection parks waiting.
                            ticket.on_complete(move |result| {
                                let text = match result {
                                    Ok(receipt) => format!("OK epoch={}", receipt.epoch),
                                    Err(e) => format!("ERR commit {e}"),
                                };
                                stats.write_latency.record_duration(t0.elapsed());
                                fill_reply(&outbox, seq, mode, &text);
                            });
                        }
                        Err(SubmitError::Overloaded { depth }) => {
                            stats.count_busy();
                            fill_reply(outbox, item.seq, item.mode, &format!("BUSY depth={depth}"));
                        }
                        Err(SubmitError::Closed) => {
                            fill_reply(
                                outbox,
                                item.seq,
                                item.mode,
                                "ERR commit submission queue closed",
                            );
                        }
                    }
                }
                i = j;
            }
            Prepared::Nearest(p, k) => {
                let _trace = shared.tracer.start(OpClass::Nearest, "server.nearest");
                let mut hits = shared.backend.nearest(p, *k);
                hits.sort_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0 .0.cmp(&b.0 .0))
                });
                let item = &items[i];
                fill_with(outbox, item.seq, item.mode, 32 * hits.len(), |buf| {
                    write!(buf, "NEAR {}", hits.len())?;
                    hits.iter()
                        .try_for_each(|(id, dist)| write!(buf, " {}={dist:?}", id.0))
                });
                stats.read_latency.record_duration(item.t0.elapsed());
                i += 1;
            }
            Prepared::Record { key, value, at } => {
                // A writer that panicked under the lock may have left the
                // table half-written: refuse to write on top of that.
                let text = match shared.temporal.lock() {
                    Ok(mut table) => match table.try_insert(*key, *value, *at) {
                        Ok(id) => format!("OK version={}", id.0),
                        Err(e) => format!("ERR exec {e}"),
                    },
                    Err(_) => "ERR exec temporal table poisoned by a panicked writer".to_string(),
                };
                fill_reply(outbox, items[i].seq, items[i].mode, &text);
                stats.write_latency.record_duration(items[i].t0.elapsed());
                i += 1;
            }
            Prepared::AsOf(t) => {
                temporal_read(shared, outbox, &items[i], |table| table.pin_as_of(*t));
                stats.read_latency.record_duration(items[i].t0.elapsed());
                i += 1;
            }
            Prepared::Within { t1, t2, lo, hi } => {
                temporal_read(shared, outbox, &items[i], |table| {
                    table.pin_within(Interval::new(*t1, *t2), *lo, *hi)
                });
                stats.read_latency.record_duration(items[i].t0.elapsed());
                i += 1;
            }
            Prepared::Flush => {
                let text = match shared.backend.flush() {
                    Ok(epoch) => format!("OK epoch={epoch}"),
                    Err(e) => format!("ERR commit {e}"),
                };
                fill_reply(outbox, items[i].seq, items[i].mode, &text);
                stats.read_latency.record_duration(items[i].t0.elapsed());
                i += 1;
            }
            Prepared::Stats => {
                let text = format!(
                    "STATS {} records={} epoch={}",
                    shared.stats.summary_line(),
                    shared.backend.len(),
                    shared.backend.epoch(),
                );
                fill_reply(outbox, items[i].seq, items[i].mode, &text);
                stats.read_latency.record_duration(items[i].t0.elapsed());
                i += 1;
            }
            Prepared::Metrics => {
                let json = shared.registry.snapshot().to_json();
                fill_reply(outbox, items[i].seq, items[i].mode, &json);
                stats.read_latency.record_duration(items[i].t0.elapsed());
                i += 1;
            }
            Prepared::Reply(text) => {
                fill_reply(outbox, items[i].seq, items[i].mode, text);
                stats.read_latency.record_duration(items[i].t0.elapsed());
                i += 1;
            }
        }
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

    let mut read_half = stream;
    let mut decoder = FrameDecoder::with_max_frame(shared.max_frame);
    let mut buf = vec![0u8; 64 * 1024];
    'conn: loop {
        let n = match read_half.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        stats.add_bytes_read(n as u64);
        decoder.feed(&buf[..n]);

        // Drain every complete frame from this read before executing, so
        // pipelined requests batch into single index calls.
        let mut items = Vec::new();
        let mut fatal = None;
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => {
                    stats.count_frame(frame.mode);
                    let t0 = Instant::now();
                    let prepared = prepare(&frame.text, &stats);
                    let seq = outbox.reserve();
                    items.push(Pending {
                        seq,
                        mode: frame.mode,
                        t0,
                        prepared,
                    });
                }
                Ok(None) => break,
                Err(e) => {
                    stats.count_protocol_error();
                    fatal = Some(e);
                    break;
                }
            }
        }
        let fatal_seq = fatal.as_ref().map(|_| outbox.reserve());
        execute_batch(&shared, &stats, &outbox, items);
        if let (Some(e), Some(seq)) = (fatal, fatal_seq) {
            // The stream is undecodable from here: answer in line mode
            // (readable either way) and drop the connection.
            fill_reply(&outbox, seq, Mode::Line, &format!("ERR protocol {e}"));
            break 'conn;
        }
    }

    outbox.close();
    let _ = flusher.join();
    shared.stats.close_connection(&stats);
}
