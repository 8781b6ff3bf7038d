//! Probes of single layers through their public functions, fed with the
//! running workload's own generated inputs.

use crate::ops::Op;
use crate::report::Outcome;
use crate::span::{SpanLog, NO_PARENT};
use crate::stats::median;
use crate::RunConfig;
use segidx_concurrent::{ConcurrentIndex, IndexOp};
use segidx_core::{bulk::bulk_load, IndexConfig, RecordId, Tree};
use segidx_geom::{scan_intersects, scan_min_enlargement, scan_stab, Rect};
use segidx_obs::LatencyHistogram;
use segidx_server::{encode_request, encode_response, parse, FrameDecoder, Mode};
use segidx_temporal::{TieredConfig, TieredTemporalIndex};
use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::time::Instant;

/// Structure-of-arrays planes of `rects`, as a node stores them.
fn planes(rects: &[Rect<2>]) -> ([Vec<f64>; 2], [Vec<f64>; 2]) {
    let mut los = [Vec::new(), Vec::new()];
    let mut his = [Vec::new(), Vec::new()];
    for r in rects {
        for d in 0..2 {
            los[d].push(r.lo(d));
            his[d].push(r.hi(d));
        }
    }
    (los, his)
}

/// ns per entry of `kernel`, averaged over 64- and 1024-entry planes
/// (a leaf-sized and an upper-level-sized node) of the workload's records,
/// probed with the workload's query windows.
fn kernel_ns_per_entry(
    rects: &[Rect<2>],
    queries: &[Rect<2>],
    mut kernel: impl FnMut(&Rect<2>, [&[f64]; 2], [&[f64]; 2]),
) -> (f64, u64) {
    let mut per_entry = Vec::new();
    let mut entries_total = 0u64;
    for width in [64usize, 1024] {
        let (los, his) = planes(&rects[..width.min(rects.len())]);
        let entries = los[0].len() as u64;
        let rounds = (2_000_000 / (entries * queries.len() as u64)).max(1);
        let t0 = Instant::now();
        for _ in 0..rounds {
            for q in queries {
                kernel(black_box(q), [&los[0], &los[1]], [&his[0], &his[1]]);
            }
        }
        let scanned = rounds * queries.len() as u64 * entries;
        per_entry.push(t0.elapsed().as_nanos() as f64 / scanned as f64);
        entries_total += scanned;
    }
    (
        per_entry.iter().sum::<f64>() / per_entry.len() as f64,
        entries_total,
    )
}

/// `geom.*`: the scan kernels under `core.tree`'s search, stab and
/// choose-subtree.
pub fn geom(outcome: &mut Outcome, rects: &[Rect<2>], queries: &[Rect<2>]) {
    let mut hits = Vec::new();
    let (ns, n) = kernel_ns_per_entry(rects, queries, |q, los, his| {
        hits.clear();
        scan_intersects(q, los, his, &mut hits);
        black_box(&hits);
    });
    outcome.set("geom.scan_intersects_ns_per_entry", ns, n);
    let (ns, n) = kernel_ns_per_entry(rects, queries, |q, los, his| {
        hits.clear();
        scan_stab(&q.center(), los, his, &mut hits);
        black_box(&hits);
    });
    outcome.set("geom.scan_stab_ns_per_entry", ns, n);
    let (ns, n) = kernel_ns_per_entry(rects, queries, |q, los, his| {
        black_box(scan_min_enlargement(q, los, his));
    });
    outcome.set("geom.scan_min_enlargement_ns_per_entry", ns, n);
}

/// `core.bulk.*`: STR packing of 8 192 entries (one temporal seal) and of
/// 131 072 (a merged tier).
pub fn bulk(outcome: &mut Outcome, rects: &[Rect<2>]) {
    for (label, size) in [("8k", 8_192usize), ("128k", 131_072)] {
        let size = size.min(rects.len());
        let items: Vec<(Rect<2>, RecordId)> = rects[..size]
            .iter()
            .enumerate()
            .map(|(i, r)| (*r, RecordId(i as u64)))
            .collect();
        let t0 = Instant::now();
        black_box(bulk_load(IndexConfig::srtree(), items));
        outcome.set(
            &format!("core.bulk.pack_ns_per_entry.{label}"),
            t0.elapsed().as_nanos() as f64 / size as f64,
            size as u64,
        );
    }
}

/// `obs.hist_record_ns`: what one latency-histogram record costs — the
/// floor under any span the server layers may grow.
pub fn obs(outcome: &mut Outcome) {
    let hist = LatencyHistogram::new();
    let n = 2_000_000u64;
    let t0 = Instant::now();
    for i in 0..n {
        hist.record(black_box(i * 37 % 1_000_000));
    }
    outcome.set(
        "obs.hist_record_ns",
        t0.elapsed().as_nanos() as f64 / n as f64,
        n,
    );
    black_box(hist.snapshot());
}

/// Span names that make up "the index call" of a served request.
const INDEX_SPANS: [&str; 6] = [
    "concurrent.snapshot",
    "core.tree.search",
    "core.tree.stab",
    "core.tree.nearest",
    "temporal.lsm.search",
    "temporal.lsm.insert",
];

/// Walks captured requests through the server's layers by direct calls:
/// frame decode, parse, the index call the workload supplies, response
/// encode — each under a span of one `request` root.
struct Replay {
    log: SpanLog,
    decoder: FrameDecoder,
    frame: Vec<u8>,
    out: Vec<u8>,
    stmt_bytes: u64,
}

impl Replay {
    fn new() -> Self {
        Self {
            log: SpanLog::new(),
            decoder: FrameDecoder::new(),
            frame: Vec::new(),
            out: Vec::new(),
            stmt_bytes: 0,
        }
    }

    /// One request: `index` runs between parse and encode.
    fn request(
        &mut self,
        id: u32,
        op: &Op,
        reply: &str,
        index: impl FnOnce(&mut SpanLog),
    ) -> io::Result<()> {
        let text = op.text();
        self.frame.clear();
        encode_request(&text, &mut self.frame);
        self.stmt_bytes += text.len() as u64;
        let root = self.log.enter("request", id);
        let (decoder, frame) = (&mut self.decoder, &self.frame);
        let decoded = self.log.scope("server.frame.decode", id, || {
            decoder.feed(frame);
            decoder.next_frame()
        });
        let decoded = match decoded {
            Ok(Some(f)) => f,
            other => {
                return Err(io::Error::other(format!(
                    "replayed frame did not decode: {other:?}"
                )))
            }
        };
        let parsed = self
            .log
            .scope("server.parser.parse", id, || parse(&decoded.text));
        if let Err(e) = black_box(parsed) {
            return Err(io::Error::other(format!(
                "replayed statement did not parse: {e}"
            )));
        }
        index(&mut self.log);
        self.out.clear();
        let out = &mut self.out;
        self.log.scope("server.frame.encode", id, || {
            encode_response(Mode::Binary, reply, out)
        });
        self.log.exit(root);
        Ok(())
    }

    /// Reports the server-layer means, reconciles the read budget against
    /// the wire's p50 at `r2`, and writes the Chrome trace.
    fn report(
        self,
        cfg: &RunConfig,
        outcome: &mut Outcome,
        captured: &[(Op, String)],
        wire_read_p50_us: f64,
    ) -> io::Result<()> {
        let log = &self.log;
        let mean_self = |name: &str| {
            let (count, own, _) = log.total(name);
            (
                if count == 0 {
                    0.0
                } else {
                    own as f64 / count as f64
                },
                count,
            )
        };
        for (metric, span) in [
            ("server.frame.decode_ns", "server.frame.decode"),
            ("server.frame.encode_ns", "server.frame.encode"),
            ("server.parser.parse_ns", "server.parser.parse"),
            ("core.tree.search_ns", "core.tree.search"),
            ("core.tree.stab_ns", "core.tree.stab"),
            ("core.tree.nearest_ns", "core.tree.nearest"),
            ("concurrent.submit_ns", "concurrent.submit"),
            ("concurrent.snapshot_acquire_ns", "concurrent.snapshot"),
            ("temporal.lsm.search_ns", "temporal.lsm.search"),
        ] {
            let (mean, count) = mean_self(span);
            if count > 0 {
                outcome.set(metric, mean, count);
            }
        }
        let requests = captured.len().max(1) as u64;
        outcome.set(
            "server.parser.bytes_per_stmt",
            self.stmt_bytes as f64 / requests as f64,
            requests,
        );

        // Per read request: everything accounted for (the children of its
        // root), the index call alone, and the tree or tier search alone.
        let spans = log.spans();
        let names: Vec<&str> = log.totals().iter().map(|t| t.0).collect();
        let mut accounted = vec![0u64; spans.len()];
        let mut index = vec![0u64; spans.len()];
        let mut engine = vec![0u64; spans.len()];
        for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
            let (p, dur, name) = (s.parent as usize, s.end - s.start, names[s.name as usize]);
            accounted[p] += dur;
            if INDEX_SPANS.contains(&name) {
                index[p] += dur;
            }
            if name.starts_with("core.tree.") {
                engine[p] += dur;
            }
        }
        let reads: Vec<usize> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == NO_PARENT && !captured[s.request as usize].0.is_write())
            .map(|(i, _)| i)
            .collect();
        if reads.is_empty() || wire_read_p50_us <= 0.0 {
            return Err(io::Error::other(
                "no read was captured for the layer replay",
            ));
        }
        let med =
            |of: &[u64]| median(&reads.iter().map(|&i| of[i] as f64).collect::<Vec<_>>()) / 1e3;
        let accounted_us = med(&accounted);
        let n = reads.len() as u64;
        outcome.set("server.index_call_us", med(&index), n);
        // By construction: accounted + residual = the wire's read p50.
        outcome.set(
            "server.conn.residual_us",
            wire_read_p50_us - accounted_us,
            n,
        );
        outcome.set(
            "server.conn.accounted_share",
            accounted_us / wire_read_p50_us,
            n,
        );
        outcome.set("core.tree.self_share", med(&engine) / wire_read_p50_us, n);

        log.write_trace(&cfg.workload)
    }
}

/// What recording spans costs the captured reads: the share of throughput
/// lost between a pass of `read` over them with no span log and a pass
/// with one.
fn traced_overhead(
    captured: &[(Op, String)],
    mut read: impl FnMut(&Op, Option<&mut SpanLog>),
) -> f64 {
    let mut pass = |log: &mut Option<SpanLog>| {
        let t0 = Instant::now();
        for (op, _) in captured.iter().filter(|(op, _)| !op.is_write()) {
            read(op, log.as_mut());
        }
        t0.elapsed().as_secs_f64()
    };
    let untraced = pass(&mut None);
    let traced = pass(&mut Some(SpanLog::new()));
    1.0 - untraced / traced
}

/// `serve-mixed` through the layers: the captured requests replayed on a
/// `ConcurrentIndex` over an SR-Tree holding the same preload — no sockets.
pub fn served_spatial(
    cfg: &RunConfig,
    outcome: &mut Outcome,
    records: &[(u64, Rect<2>)],
    captured: &[(Op, String)],
    wire_read_p50_us: f64,
) -> io::Result<()> {
    let fail = |e: &dyn std::fmt::Debug| io::Error::other(format!("replica index: {e:?}"));
    let ix = ConcurrentIndex::builder(Tree::<2>::new(IndexConfig::srtree()))
        .queue_capacity(4096)
        .start()
        .map_err(|e| fail(&e))?;
    for chunk in records.chunks(1024) {
        let ops = chunk
            .iter()
            .map(|(id, rect)| IndexOp::Insert {
                rect: *rect,
                record: RecordId(*id),
            })
            .collect();
        if let Some(last) = ix.submit_batch(ops).pop() {
            last.map_err(|e| fail(&e))?.wait().map_err(|e| fail(&e))?;
        }
    }
    ix.flush().map_err(|e| fail(&e))?;

    let read = |op: &Op, log: Option<&mut SpanLog>, id: u32| {
        let mut log = log;
        let mut scope = |name: &'static str, f: &mut dyn FnMut()| match log.as_mut() {
            Some(log) => log.scope(name, id, f),
            None => f(),
        };
        let mut snapshot = None;
        scope("concurrent.snapshot", &mut || {
            snapshot = Some(ix.snapshot())
        });
        let snapshot = snapshot.expect("snapshot taken");
        match op {
            Op::Search(w) => scope("core.tree.search", &mut || {
                drop(black_box(snapshot.search(w)))
            }),
            Op::Stab(p) => scope("core.tree.stab", &mut || drop(black_box(snapshot.stab(p)))),
            Op::Nearest(p, k) => scope("core.tree.nearest", &mut || {
                drop(black_box(snapshot.nearest(p, *k)))
            }),
            _ => {}
        }
    };

    let overhead = traced_overhead(captured, |op, log| read(op, log, 0));

    let mut replay = Replay::new();
    let (mut phases, mut writes) = ([0u64; 3], 0u64);
    for (i, (op, reply)) in captured.iter().enumerate() {
        let id = i as u32;
        let mut failed = None;
        replay.request(id, op, reply, |log| match op {
            Op::Insert { id: record, rect } | Op::Delete { id: record, rect } => {
                let index_op = if matches!(op, Op::Insert { .. }) {
                    IndexOp::Insert {
                        rect: *rect,
                        record: RecordId(*record),
                    }
                } else {
                    IndexOp::Delete {
                        rect: *rect,
                        record: RecordId(*record),
                    }
                };
                match log.scope("concurrent.submit", id, || ix.submit(index_op)) {
                    Ok(ticket) => {
                        if let Err(e) = log.scope("concurrent.commit_wait", id, || ticket.wait()) {
                            failed = Some(format!("{e:?}"));
                        }
                        if let Some(p) = ticket.phases() {
                            phases[0] += p.queue_wait_nanos;
                            phases[1] += p.apply_nanos;
                            phases[2] += p.publish_nanos;
                            writes += 1;
                        }
                    }
                    Err(e) => failed = Some(format!("{e:?}")),
                }
            }
            _ => read(op, Some(log), id),
        })?;
        if let Some(e) = failed {
            return Err(io::Error::other(format!(
                "replica refused `{}`: {e}",
                op.text()
            )));
        }
    }
    for (metric, total) in [
        ("concurrent.queue_wait_ns", phases[0]),
        ("concurrent.apply_ns", phases[1]),
        ("concurrent.publish_ns", phases[2]),
    ] {
        outcome.set(metric, total as f64 / writes.max(1) as f64, writes);
    }
    ix.shutdown();
    outcome.set("obs.traced_overhead_share", overhead, captured.len() as u64);
    replay.report(cfg, outcome, captured, wire_read_p50_us)
}

/// Where the served temporal table indexes a still-open version to.
const HORIZON: f64 = f64::MAX / 2.0;

/// The rectangles `(from..to) x (value..value)` the `RECORD`s of `ops`
/// leave in the index once each key's successor has closed them.
pub fn version_rects(ops: &[Op]) -> Vec<Rect<2>> {
    let mut open: HashMap<u64, usize> = HashMap::new();
    let mut rects = Vec::new();
    for op in ops {
        if let Op::Record { key, value, at } = *op {
            if let Some(prev) = open.insert(key, rects.len()) {
                let r: Rect<2> = rects[prev];
                rects[prev] = Rect::new([r.lo(0), r.lo(1)], [at.max(r.lo(0)), r.hi(1)]);
            }
            rects.push(Rect::new([at, value], [HORIZON, value]));
        }
    }
    rects
}

/// A `TieredTemporalIndex` fed the way the temporal table feeds it: a new
/// version goes in open-ended; its predecessor is deleted and re-inserted
/// with its real end.
struct TierReplica {
    index: TieredTemporalIndex<2>,
    open: HashMap<u64, (u64, Rect<2>)>,
    next_id: u64,
    /// Index mutations (inserts and deletes) issued.
    calls: u64,
}

impl TierReplica {
    fn record(&mut self, key: u64, value: f64, at: f64) -> io::Result<()> {
        let fail = |e: segidx_storage::StorageError| io::Error::other(e.to_string());
        let id = self.next_id;
        self.next_id += 1;
        let rect = Rect::new([at, value], [HORIZON, value]);
        if let Some((prev, was)) = self.open.insert(key, (id, rect)) {
            self.index.delete(&was, RecordId(prev)).map_err(fail)?;
            let closed = Rect::new([was.lo(0), was.lo(1)], [at.max(was.lo(0)), was.hi(1)]);
            self.index.insert(closed, RecordId(prev)).map_err(fail)?;
            self.calls += 2;
        }
        self.index.insert(rect, RecordId(id)).map_err(fail)?;
        self.calls += 1;
        Ok(())
    }

    fn query(&self, op: &Op) -> usize {
        let everything = (f64::MIN / 2.0, f64::MAX / 2.0);
        let probe = match *op {
            Op::AsOf(t) => Rect::new([t, everything.0], [t, everything.1]),
            Op::Within { t1, t2, .. } => Rect::new([t1, everything.0], [t2, everything.1]),
            _ => return 0,
        };
        black_box(self.index.search(&probe)).len()
    }
}

/// `serve-temporal` through the layers: the `RECORD` stream's rectangles
/// go straight into a `TieredTemporalIndex`, the captured queries straight
/// at its `search`.
pub fn served_temporal(
    cfg: &RunConfig,
    outcome: &mut Outcome,
    preloaded: &[Op],
    captured: &[(Op, String)],
    wire_read_p50_us: f64,
) -> io::Result<()> {
    let mut replica = TierReplica {
        index: TieredTemporalIndex::new(TieredConfig::default()),
        open: HashMap::new(),
        next_id: 0,
        calls: 0,
    };
    // Seal and merge stalls land inside these calls, as they do when
    // served, so the mean carries them.
    let t0 = Instant::now();
    for op in preloaded {
        if let Op::Record { key, value, at } = *op {
            replica.record(key, value, at)?;
        }
    }
    outcome.set(
        "temporal.lsm.insert_ns",
        t0.elapsed().as_nanos() as f64 / replica.calls.max(1) as f64,
        replica.calls,
    );

    let overhead = traced_overhead(captured, |op, log| match log {
        Some(log) => {
            log.scope("temporal.lsm.search", 0, || replica.query(op));
        }
        None => {
            replica.query(op);
        }
    });
    outcome.set("obs.traced_overhead_share", overhead, captured.len() as u64);

    let mut replay = Replay::new();
    for (i, (op, reply)) in captured.iter().enumerate() {
        let id = i as u32;
        let mut failed = None;
        replay.request(id, op, reply, |log| match *op {
            Op::Record { key, value, at } => {
                failed = log
                    .scope("temporal.lsm.insert", id, || replica.record(key, value, at))
                    .err();
            }
            _ => {
                log.scope("temporal.lsm.search", id, || replica.query(op));
            }
        })?;
        if let Some(e) = failed {
            return Err(e);
        }
    }
    replay.report(cfg, outcome, captured, wire_read_p50_us)
}
