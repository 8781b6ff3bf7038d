//! The embedded workloads: one caller, closed loop, straight into
//! `Tree` + `IndexConfig` — no server, no queue, no temporal tier.
//!
//! `embed-query` is the paper's experiment as a latency workload (its
//! query sweep over a built SR-Tree, with a trickle of writes so write
//! latency exists); `embed-churn` grows the tree from empty and then
//! slides a window over it (delete oldest, insert fresh), so the write
//! path carries the run, and ends with a commit/recover round trip.

use crate::layers;
use crate::model::{brute_nearest, brute_search, brute_stab, same_distances};
use crate::ops::{windows, Op, ReadGen};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::span::SpanLog;
use crate::spec::{EMBED_CHURN_OPS_PER_S, EMBED_QUERY_OPS_PER_S};
use crate::stats::{median, sample_ns};
use crate::{cpu_seconds, out_dir, record_memory_and_setup, timed, RunConfig};
use segidx_core::{
    build_skeleton, persist, IndexConfig, PagedSearcher, RecordId, SkeletonSpec, StatsSnapshot,
    Tree,
};
use segidx_geom::{Rect, PAPER_QAR_SWEEP};
use segidx_storage::{BufferPool, BufferPoolConfig, DiskManager, DiskManagerConfig};
use segidx_workloads::{domain, DataDistribution};
use std::collections::VecDeque;
use std::hint::black_box;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which embedded workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plan {
    /// `embed-query`: 98 % reads over a built tree, 2 % writes.
    ReadMostly,
    /// `embed-churn`: grow from empty, then 50 replace steps per read.
    Churn,
}

/// Writes per thousand operations of `embed-query`.
const READ_MOSTLY_WRITES_PER_MILLE: u64 = 20;
/// Replace steps (a delete and an insert) between two reads of
/// `embed-churn`.
const CHURN_STEPS_PER_READ: usize = 50;
/// Every how many operations an answer is checked against the model.
const CHECK_EVERY: u64 = 1000;
/// Pairs of an untraced and a traced block a traced run is cut into.
const TRACE_BLOCK_PAIRS: u64 = 4;

/// The seeded operation stream of an embedded workload. `live` is also the
/// reference model: embedded operations cannot be refused, so the records
/// the stream believes live are the records the tree must hold.
struct EmbedGen {
    plan: Plan,
    rng: Rng,
    reads: ReadGen,
    pool: Vec<Rect<2>>,
    next_fresh: usize,
    next_id: u64,
    live: VecDeque<(u64, Rect<2>)>,
    target: usize,
    grown: bool,
    cycle: usize,
}

impl EmbedGen {
    fn fresh(&mut self) -> Op {
        let rect = self.pool[self.next_fresh];
        self.next_fresh = (self.next_fresh + 1) % self.pool.len();
        let id = self.next_id;
        self.next_id += 1;
        self.live.push_back((id, rect));
        Op::Insert { id, rect }
    }

    fn oldest(&mut self) -> Op {
        let (id, rect) = self.live.pop_front().expect("a live record to delete");
        Op::Delete { id, rect }
    }

    /// 70 % search, 25 % stab, 5 % nearest.
    fn read(&mut self) -> Op {
        match self.rng.next_u64() % 100 {
            0..=69 => self.reads.search(),
            70..=94 => self.reads.stab(&mut self.rng),
            _ => self.reads.nearest(&mut self.rng),
        }
    }

    fn next_op(&mut self) -> Op {
        match self.plan {
            Plan::ReadMostly => {
                if self.rng.next_u64() % 1000 >= READ_MOSTLY_WRITES_PER_MILLE {
                    self.read()
                } else if self.live.len() >= self.target {
                    self.oldest()
                } else {
                    self.fresh()
                }
            }
            Plan::Churn => {
                if !self.grown {
                    self.grown = self.live.len() + 1 >= self.target;
                    return self.fresh();
                }
                self.cycle = (self.cycle + 1) % (2 * CHURN_STEPS_PER_READ + 1);
                match self.cycle {
                    0 => self.read(),
                    c if c % 2 == 1 => self.oldest(),
                    _ => self.fresh(),
                }
            }
        }
    }
}

/// A tree and the stream that drives it.
struct Embedded {
    tree: Tree<2>,
    gen: EmbedGen,
    /// Operations applied so far: the next one's request number.
    applied: u64,
}

/// Generates the inputs and, for `embed-query`, builds the tree record by
/// record and warms it with one query sweep.
fn setup(cfg: &RunConfig, plan: Plan) -> Embedded {
    let n = cfg.scale.records;
    // Paper Graph 3: exponential interval lengths, uniform Y.
    let pool: Vec<Rect<2>> = DataDistribution::I3
        .generate(3 * n, cfg.seed)
        .records
        .into_iter()
        .map(|(rect, _)| rect)
        .collect();
    let initial: Vec<(u64, Rect<2>)> = pool[..n]
        .iter()
        .enumerate()
        .map(|(i, r)| (i as u64, *r))
        .collect();
    let sweep = windows(&PAPER_QAR_SWEEP, 100, cfg.seed);
    let mut tree = Tree::new(IndexConfig::srtree());
    let mut live = VecDeque::with_capacity(n + 1);
    if plan == Plan::ReadMostly {
        for (id, rect) in &initial {
            tree.insert(*rect, RecordId(*id));
        }
        live.extend(initial.iter().copied());
        for w in &sweep {
            black_box(tree.search(w));
        }
    }
    let built = live.len();
    Embedded {
        tree,
        applied: 0,
        gen: EmbedGen {
            plan,
            rng: Rng::new(cfg.seed, 1),
            reads: ReadGen::new(sweep, &initial),
            pool,
            next_fresh: built,
            next_id: built as u64,
            live,
            target: n,
            grown: false,
            cycle: 0,
        },
    }
}

/// What one operation returned, kept when it is to be checked.
enum Answer {
    Ids(Vec<RecordId>),
    Near(Vec<f64>),
    Deleted(bool),
    Inserted,
}

fn traced<R>(
    spans: &mut Option<&mut SpanLog>,
    name: &'static str,
    request: u32,
    f: impl FnOnce() -> R,
) -> R {
    match spans {
        Some(log) => log.scope(name, request, f),
        None => f(),
    }
}

fn apply(tree: &mut Tree<2>, op: &Op, spans: &mut Option<&mut SpanLog>, request: u32) -> Answer {
    match op {
        Op::Search(w) => Answer::Ids(traced(spans, "core.tree.search", request, || {
            tree.search(w)
        })),
        Op::Stab(p) => Answer::Ids(traced(spans, "core.tree.stab", request, || tree.stab(p))),
        Op::Nearest(p, k) => Answer::Near(
            traced(spans, "core.tree.nearest", request, || tree.nearest(p, *k))
                .iter()
                .map(|n| n.distance)
                .collect(),
        ),
        Op::Insert { id, rect } => {
            traced(spans, "core.tree.insert", request, || {
                tree.insert(*rect, RecordId(*id))
            });
            Answer::Inserted
        }
        Op::Delete { id, rect } => {
            Answer::Deleted(traced(spans, "core.tree.delete", request, || {
                tree.delete(rect, RecordId(*id))
            }))
        }
        Op::Record { .. } | Op::AsOf(_) | Op::Within { .. } => {
            unreachable!("temporal statements are served, not embedded")
        }
    }
}

/// Whether `answer` is what a brute-force scan of `live` gives for `op`.
fn matches_model(
    op: &Op,
    answer: Answer,
    live: &VecDeque<(u64, Rect<2>)>,
    tree_len: usize,
) -> bool {
    let sorted = |ids: Vec<RecordId>| {
        let mut ids: Vec<u64> = ids.into_iter().map(RecordId::raw).collect();
        ids.sort_unstable();
        ids
    };
    match (op, answer) {
        (Op::Search(w), Answer::Ids(ids)) => sorted(ids) == brute_search(live, w),
        (Op::Stab(p), Answer::Ids(ids)) => sorted(ids) == brute_stab(live, p),
        (Op::Nearest(p, k), Answer::Near(d)) => same_distances(&d, &brute_nearest(live, p, *k)),
        (Op::Delete { .. }, Answer::Deleted(found)) => found && tree_len == live.len(),
        (Op::Insert { .. }, Answer::Inserted) => tree_len == live.len(),
        _ => false,
    }
}

/// One measured phase.
struct Phase {
    read_ns: Vec<u32>,
    write_ns: Vec<u32>,
    ops: u64,
    /// Wall time with answer checking taken out.
    wall: Duration,
    /// CPU time with answer checking taken out (one thread: the checks
    /// cost as much CPU as wall time), seconds.
    cpu_s: f64,
    checked: u64,
    mismatches: Vec<String>,
}

impl Phase {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }

    /// Appends a later stretch of the same run.
    fn extend(&mut self, later: Phase) {
        self.read_ns.extend(later.read_ns);
        self.write_ns.extend(later.write_ns);
        self.ops += later.ops;
        self.wall += later.wall;
        self.cpu_s += later.cpu_s;
        self.checked += later.checked;
        self.mismatches.extend(later.mismatches);
    }
}

/// Runs `ops` operations of the stream, timing every one and checking
/// every [`CHECK_EVERY`]-th against the model.
fn measure(e: &mut Embedded, ops: u64, mut spans: Option<&mut SpanLog>) -> io::Result<Phase> {
    let mut phase = Phase {
        read_ns: Vec::new(),
        write_ns: Vec::new(),
        ops,
        wall: Duration::ZERO,
        cpu_s: 0.0,
        checked: 0,
        mismatches: Vec::new(),
    };
    let cpu_before = cpu_seconds()?;
    let started = Instant::now();
    let mut checking = Duration::ZERO;
    for _ in 0..ops {
        let i = e.applied;
        e.applied += 1;
        let request = i as u32;
        let root = spans.as_mut().map(|log| log.enter("embed.op", request));
        let op = e.gen.next_op();
        let t0 = Instant::now();
        let answer = apply(&mut e.tree, &op, &mut spans, request);
        let ns = sample_ns(t0.elapsed());
        if let (Some(log), Some(root)) = (spans.as_mut(), root) {
            log.exit(root);
        }
        if op.is_write() {
            phase.write_ns.push(ns);
        } else {
            phase.read_ns.push(ns);
        }
        if i.is_multiple_of(CHECK_EVERY) {
            let c0 = Instant::now();
            phase.checked += 1;
            if !matches_model(&op, answer, &e.gen.live, e.tree.len()) {
                phase
                    .mismatches
                    .push(format!("op {i} `{}` differs from the model", op.text()));
            }
            checking += c0.elapsed();
        }
    }
    phase.wall = started.elapsed() - checking;
    phase.cpu_s = cpu_seconds()? - cpu_before - checking.as_secs_f64();
    Ok(phase)
}

/// A scratch directory under `benchmark/out/`, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> io::Result<Self> {
        // Unique per process and per use: runs may share a process (tests)
        // and a directory (two benchmarks at once).
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = out_dir().join(format!(
            "tmp-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    fn bytes(&self) -> io::Result<u64> {
        let mut total = 0;
        for entry in std::fs::read_dir(&self.0)? {
            total += entry?.metadata()?.len();
        }
        Ok(total)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn storage_err(e: segidx_storage::StorageError) -> io::Error {
    io::Error::other(e.to_string())
}

/// `persist::commit` to a fresh page file (fsync on), reopen it as after
/// a crash, `persist::recover`, and probe the recovered tree against the
/// model. Returns `(probes, mismatches)`.
fn persist_round_trip(e: &Embedded, seed: u64, corrupt: bool) -> io::Result<(u64, Vec<String>)> {
    let scratch = Scratch::new("roundtrip")?;
    let path = scratch.0.join("index.pages");
    {
        let disk = DiskManager::create(&path).map_err(storage_err)?;
        persist::commit(&e.tree, &disk).map_err(storage_err)?;
    }
    let (disk, repair) =
        DiskManager::open_repair(&path, DiskManagerConfig::default(), None).map_err(storage_err)?;
    let (mut recovered, _) = persist::recover::<2>(&disk, &repair, None).map_err(storage_err)?;

    let mut live = e.gen.live.clone();
    if corrupt {
        live.retain(|(id, _)| id % 2 == 1);
    }
    let mut rng = Rng::new(seed, 2);
    let mut reads = e.gen.reads.clone();
    let mut mismatches = Vec::new();
    for i in 0..256 {
        let op = if i % 2 == 0 {
            reads.search()
        } else {
            reads.stab(&mut rng)
        };
        let answer = apply(&mut recovered, &op, &mut None, 0);
        if !matches_model(&op, answer, &live, recovered.len()) {
            mismatches.push(format!(
                "recovered tree: `{}` differs from the model",
                op.text()
            ));
        }
    }
    Ok((256, mismatches))
}

/// Runs `embed-query` or `embed-churn`: `--seconds` x the workload's frozen
/// rate operations, the same number whatever the box's speed, so the
/// counts a run reports depend on the seed alone.
pub fn run(cfg: &RunConfig, plan: Plan) -> io::Result<Outcome> {
    let mut outcome = Outcome::new(&cfg.workload, cfg.trace);
    let (mut e, first_setup_s) = timed(|| Ok(setup(cfg, plan)))?;
    let rate = match plan {
        Plan::ReadMostly => EMBED_QUERY_OPS_PER_S,
        Plan::Churn => EMBED_CHURN_OPS_PER_S,
    };
    let ops = ((rate * cfg.measure.as_secs_f64()) as u64).max(1);

    let phases = if cfg.trace {
        let start = Counts::of(&e);
        let mut log = SpanLog::new();
        // Blocks alternate without and with spans, so both kinds see the
        // same mix of work and of the box's moods; their throughputs
        // differ by what recording spans costs.
        let block = ops.div_ceil(2 * TRACE_BLOCK_PAIRS);
        let mut untraced = measure(&mut e, block, None)?;
        let mut traced = measure(&mut e, block, Some(&mut log))?;
        for _ in 1..TRACE_BLOCK_PAIRS {
            untraced.extend(measure(&mut e, block, None)?);
            traced.extend(measure(&mut e, block, Some(&mut log))?);
        }
        for (kind, samples) in [
            ("read", &mut untraced.read_ns),
            ("write", &mut untraced.write_ns),
        ] {
            let l = outcome.latency(kind, samples)?;
            outcome.set_latency(kind, &l);
        }
        outcome.set(
            "obs.traced_overhead_share",
            (untraced.ops_per_s() - traced.ops_per_s()) / untraced.ops_per_s(),
            traced.ops,
        );
        report_layers(cfg, plan, &mut outcome, &e, &start, &log)?;
        vec![untraced, traced]
    } else {
        let mut phase = measure(&mut e, ops, None)?;
        outcome.set("ops_per_s", phase.ops_per_s(), phase.ops);
        outcome.set(
            "cpu_us_per_op",
            phase.cpu_s * 1e6 / phase.ops as f64,
            phase.ops,
        );
        outcome.latency("read", &mut phase.read_ns)?;
        outcome.latency("write", &mut phase.write_ns)?;
        vec![phase]
    };
    for phase in &phases {
        // Unchecked operations cannot fail in process; the checked ones
        // stand for them.
        outcome.count(phase.ops, phase.mismatches.len() as u64, &phase.mismatches);
        outcome.notes.push(format!(
            "{} answers checked against the model",
            phase.checked
        ));
    }
    if plan == Plan::Churn {
        let (probes, mismatches) = persist_round_trip(&e, cfg.seed, cfg.corrupt_model)?;
        outcome.count(probes, mismatches.len() as u64, &mismatches);
    } else if cfg.corrupt_model {
        e.gen.live.retain(|(id, _)| id % 2 == 1);
        let phase = measure(&mut e, 20 * CHECK_EVERY, None)?;
        outcome.count(phase.ops, phase.mismatches.len() as u64, &phase.mismatches);
    }
    drop(e);
    if !cfg.trace {
        record_memory_and_setup(&mut outcome, first_setup_s, || Ok(setup(cfg, plan)), drop)?;
    }
    Ok(outcome)
}

/// Where the tree's counters and the stream stood when measuring began.
struct Counts {
    stats: StatsSnapshot,
    next_id: u64,
}

impl Counts {
    fn of(e: &Embedded) -> Self {
        Self {
            stats: e.tree.stats(),
            next_id: e.gen.next_id,
        }
    }
}

/// Average node accesses and hits per query of the paper sweep on `tree`,
/// from `tree.stats()` differences (exact for a given seed).
fn sweep_counts(tree: &Tree<2>, sweep: &[Rect<2>]) -> (f64, f64) {
    let before = tree.stats();
    for w in sweep {
        black_box(tree.search(w));
    }
    let d = tree.stats().diff(&before);
    (
        d.search_node_accesses as f64 / d.searches as f64,
        d.search_results as f64 / d.searches as f64,
    )
}

/// The per-layer metrics of an embedded workload.
fn report_layers(
    cfg: &RunConfig,
    plan: Plan,
    outcome: &mut Outcome,
    e: &Embedded,
    start: &Counts,
    log: &SpanLog,
) -> io::Result<()> {
    // Spans around the tree calls of the traced blocks.
    let mut tree_self = 0u64;
    for (metric, span) in [
        ("core.tree.search_ns", "core.tree.search"),
        ("core.tree.stab_ns", "core.tree.stab"),
        ("core.tree.nearest_ns", "core.tree.nearest"),
        ("core.tree.insert_ns", "core.tree.insert"),
        ("core.tree.delete_ns", "core.tree.delete"),
    ] {
        let (count, own, _) = log.total(span);
        tree_self += own;
        outcome.set(
            metric,
            if count == 0 {
                0.0
            } else {
                own as f64 / count as f64
            },
            count,
        );
    }
    let (ops, _, op_time) = log.total("embed.op");
    outcome.set(
        "core.tree.self_share",
        tree_self as f64 / op_time.max(1) as f64,
        ops,
    );
    log.write_trace(&cfg.workload)?;

    // Exact counts: `tree.stats()` differences over the measured
    // operations, whose number is fixed, so the figures depend on the seed
    // alone.
    let d = e.tree.stats().diff(&start.stats);
    outcome.set(
        "e2e.node_accesses_per_search",
        d.search_node_accesses as f64 / d.searches.max(1) as f64,
        d.searches,
    );
    let inserts = e.gen.next_id - start.next_id;
    let per_k = |count: u64| count as f64 * 1000.0 / inserts.max(1) as f64;
    outcome.set(
        "core.tree.splits_per_kinsert",
        per_k(d.leaf_splits + d.internal_splits),
        inserts,
    );
    outcome.set(
        "core.tree.promotions_per_kinsert",
        per_k(d.promotions),
        inserts,
    );
    outcome.set(
        "core.tree.demotions_per_kinsert",
        per_k(d.demotions),
        inserts,
    );
    outcome.set("core.tree.cuts_per_kinsert", per_k(d.cuts), inserts);
    outcome.set(
        "core.tree.coalesces_per_kinsert",
        per_k(d.coalesces),
        inserts,
    );
    outcome.set("core.tree.height", f64::from(e.tree.height()), 1);
    outcome.set("core.tree.node_count", e.tree.node_count() as f64, 1);
    outcome.set(
        "core.tree.spanning_count",
        e.tree.spanning_count() as f64,
        1,
    );

    let sweep = windows(&PAPER_QAR_SWEEP, 100, cfg.seed);
    let (nodes, hits) = sweep_counts(&e.tree, &sweep);
    outcome.set("core.tree.nodes_per_search", nodes, sweep.len() as u64);
    outcome.set("core.tree.hits_per_search", hits, sweep.len() as u64);
    let before = e.tree.stats();
    let mut rng = Rng::new(cfg.seed, 3);
    let mut reads = e.gen.reads.clone();
    for _ in 0..sweep.len() {
        if let Op::Stab(p) = reads.stab(&mut rng) {
            black_box(e.tree.stab(&p));
        }
    }
    let d = e.tree.stats().diff(&before);
    outcome.set(
        "core.tree.nodes_per_stab",
        d.search_node_accesses as f64 / d.searches as f64,
        d.searches,
    );

    // The paper's four variants over the same records (Graph 3's shape:
    // the segment and skeleton variants should not visit more nodes than
    // the plain R-Tree).
    let records = &e.gen.pool[..cfg.scale.records];
    let skeleton = SkeletonSpec::uniform(domain(), records.len());
    for (name, mut tree) in [
        ("rtree", Tree::new(IndexConfig::rtree())),
        ("srtree", Tree::new(IndexConfig::srtree())),
        (
            "skeleton_rtree",
            build_skeleton(IndexConfig::rtree(), &skeleton),
        ),
        (
            "skeleton_srtree",
            build_skeleton(IndexConfig::srtree(), &skeleton),
        ),
    ] {
        for (i, rect) in records.iter().enumerate() {
            tree.insert(*rect, RecordId(i as u64));
        }
        let (nodes, _) = sweep_counts(&tree, &sweep);
        outcome.set(
            &format!("core.tree.nodes_per_search.{name}"),
            nodes,
            sweep.len() as u64,
        );
    }

    if plan == Plan::Churn {
        report_storage(outcome, &e.tree, &sweep)?;
    }
    let rects: Vec<Rect<2>> = records.to_vec();
    layers::geom(outcome, &rects, &sweep);
    layers::bulk(outcome, &e.gen.pool);
    layers::obs(outcome);
    Ok(())
}

/// `core.persist` and `storage`: commit/recover timings, physical I/O
/// counters, and a paged query sweep with the buffer pool larger than the
/// file and at a tenth of it.
fn report_storage(outcome: &mut Outcome, tree: &Tree<2>, sweep: &[Rect<2>]) -> io::Result<()> {
    let scratch = Scratch::new("storage")?;
    let path = scratch.0.join("index.pages");
    let disk = Arc::new(DiskManager::create(&path).map_err(storage_err)?);
    let io = disk.stats();
    let (before, epoch) = (io.snapshot(), disk.epoch());
    let mut commit_ms = Vec::new();
    let mut meta = None;
    for _ in 0..5 {
        let t0 = Instant::now();
        meta = Some(persist::commit(tree, &disk).map_err(storage_err)?);
        commit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let meta = meta.expect("five commits");
    let written = io.snapshot().diff(&before);
    let records = tree.len().max(1) as f64;
    outcome.set("core.persist.commit_ms", median(&commit_ms), 5);
    outcome.set("storage.page_writes", written.writes as f64 / 5.0, 5);
    outcome.set(
        "storage.meta_commits",
        (disk.epoch() - epoch) as f64 / 5.0,
        5,
    );
    outcome.set(
        "storage.bytes_written_per_record",
        written.bytes_written as f64 / 5.0 / records,
        5,
    );
    let file_bytes = scratch.bytes()?;
    outcome.set("e2e.bytes_per_record", file_bytes as f64 / records, 1);

    let mut recover_ms = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let (reopened, repair) =
            DiskManager::open_repair(&path, DiskManagerConfig::default(), None)
                .map_err(storage_err)?;
        black_box(persist::recover::<2>(&reopened, &repair, None).map_err(storage_err)?);
        recover_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    outcome.set("core.persist.recover_ms", median(&recover_ms), 5);

    for (label, capacity_bytes) in [
        ("fits", 2 * file_bytes as usize),
        ("spills", file_bytes as usize / 10),
    ] {
        let pool = BufferPool::with_config(Arc::clone(&disk), BufferPoolConfig { capacity_bytes });
        let searcher = PagedSearcher::<2>::open(&pool, meta).map_err(storage_err)?;
        // One sweep to fill the pool, one measured.
        for w in sweep {
            black_box(searcher.search(w).map_err(storage_err)?);
        }
        let before = pool.stats().snapshot();
        for w in sweep {
            black_box(searcher.search(w).map_err(storage_err)?);
        }
        let d = pool.stats().snapshot().diff(&before);
        let lookups = (d.pool_hits + d.pool_misses).max(1);
        outcome.set(
            &format!("storage.pool_hit_rate.{label}"),
            d.pool_hits as f64 / lookups as f64,
            lookups,
        );
        if label == "spills" {
            outcome.set(
                "storage.page_reads_per_search.spills",
                d.reads as f64 / sweep.len() as f64,
                sweep.len() as u64,
            );
        }
    }
    Ok(())
}
