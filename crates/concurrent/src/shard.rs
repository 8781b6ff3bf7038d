//! The sharded multi-writer index: Z-order routing over N independent
//! [`ConcurrentIndex`] shards behind a scatter/gather read layer.
//!
//! # Architecture
//!
//! ```text
//!  submit(op) ──Z-order prefix of rect centroid──► shard i's queue
//!                                                  (own writer thread,
//!                                                   own group commit)
//!  snapshot() ──Arc::clone──► GlobalVector: one Arc per shard, replaced
//!                             as a whole on every shard commit
//!                             (global_epoch.rs)
//!  search/stab/batch ──loop over the vector's trees on the calling
//!                      thread, merge per-shard results in record order
//!                      (bit-identical to the unsharded service)
//! ```
//!
//! Each shard owns a bounded submission queue and a group-commit writer
//! thread, so write throughput scales with cores instead of funnelling
//! through one writer. Mutations route by a Z-order (Morton) prefix of the
//! rectangle centroid: spatially close records share a shard, keeping each
//! partition small and independently hot (the HINT observation), and a
//! delete routes to the same shard its insert did because both carry the
//! same rectangle.
//!
//! Reads that span shards never stitch together per-shard pins — they pin
//! one [`GlobalSnapshotGuard`] over the epoch vector published as a whole,
//! so a reader pinned at global epoch `E` can never observe any shard's
//! `E+1` commit. Because every record lives in exactly one shard (cut
//! portions of a segment record stay inside the shard that owns the
//! record), merging the shards' sorted result lists reproduces the
//! unsharded service's output bit-for-bit, record order included.

use crate::engine::SnapshotEngine;
use crate::global_epoch::{GlobalLink, GlobalPublisher, GlobalVector};
use crate::index::{ConcurrentIndex, ConcurrentTelemetry, IndexHandle, SnapshotGuard};
use crate::queue::{CommitError, CommitReceipt, CommitTicket, IndexOp, SubmitError};
use segidx_core::tree::{Neighbor, Tree};
use segidx_core::RecordId;
use segidx_geom::{Point, Rect};
use segidx_obs::trace::{self, Dim, Tracer};
use segidx_obs::{Metric, MetricsRegistry, ObsSink, RingBufferSink};
use segidx_storage::{DiskManager, StorageError};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

/// Static span names for per-shard scatter work, so shard-side spans cost
/// no allocation. Shard ids past the table share the last name.
const SHARD_SPANS: [&str; 8] = [
    "shard.0", "shard.1", "shard.2", "shard.3", "shard.4", "shard.5", "shard.6", "shard.7",
];

fn shard_span_name(shard: usize) -> &'static str {
    SHARD_SPANS[shard.min(SHARD_SPANS.len() - 1)]
}

/// Routes rectangles to shards by a Z-order (Morton) prefix of their
/// centroid: each centroid coordinate is normalized against `domain` into
/// a 16-bit cell, the cells' bits are interleaved most-significant-first,
/// and the first `log2(shards)` interleaved bits pick the shard.
///
/// The shard count must be a power of two (a bit *prefix* selects it).
/// Rectangles whose centroid falls outside the domain clamp to the
/// nearest edge cell, so routing is total — nothing is ever dropped.
#[derive(Clone, Debug)]
pub struct ZOrderRouter<const D: usize> {
    domain: Rect<D>,
    shards: usize,
    bits: u32,
}

impl<const D: usize> ZOrderRouter<D> {
    /// A router over `domain` splitting into `shards` partitions.
    ///
    /// # Panics
    ///
    /// If `shards` is zero, not a power of two, or needs more prefix bits
    /// than the `16 * D` the centroid grid provides.
    pub fn new(domain: Rect<D>, shards: usize) -> Self {
        assert!(
            shards >= 1 && shards.is_power_of_two(),
            "shard count must be a power of two, got {shards}"
        );
        let bits = shards.trailing_zeros();
        assert!(
            bits as usize <= 16 * D,
            "{shards} shards need {bits} prefix bits; a {D}-dimensional \
             centroid grid provides {}",
            16 * D
        );
        Self {
            domain,
            shards,
            bits,
        }
    }

    /// Number of shards this router splits into.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The domain rectangle centroids are normalized against.
    pub fn domain(&self) -> &Rect<D> {
        &self.domain
    }

    /// The shard owning `rect` (by its centroid's Z-order prefix).
    pub fn route(&self, rect: &Rect<D>) -> usize {
        if self.shards == 1 {
            return 0;
        }
        let center = rect.center();
        let mut cells = [0u32; D];
        for (d, cell) in cells.iter_mut().enumerate() {
            let lo = self.domain.lo(d);
            let span = self.domain.hi(d) - lo;
            let t = if span > 0.0 {
                ((center.coord(d) - lo) / span).clamp(0.0, 1.0)
            } else {
                0.0
            };
            *cell = ((t * 65_536.0) as u32).min(65_535);
        }
        // MSB-first interleave: bit j of the Z-value comes from dimension
        // j % D, bit 15 - j / D of its cell. The first `bits` bits are the
        // shard id.
        let mut shard = 0usize;
        for j in 0..self.bits as usize {
            let bit = (cells[j % D] >> (15 - j / D)) & 1;
            shard = (shard << 1) | bit as usize;
        }
        shard
    }

    /// Splits `records` into per-shard lists (index = shard id). The
    /// canonical way to build per-shard trees before
    /// [`ShardedIndex::builder`].
    pub fn partition(&self, records: &[(Rect<D>, RecordId)]) -> Vec<Vec<(Rect<D>, RecordId)>> {
        let mut parts = vec![Vec::new(); self.shards];
        for (rect, id) in records {
            parts[self.route(rect)].push((*rect, *id));
        }
        parts
    }
}

/// Per-shard submission counts, for spotting routing skew.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutingStats {
    /// Operations routed to each shard since start.
    pub per_shard: Vec<u64>,
    /// Total operations routed.
    pub total: u64,
}

impl RoutingStats {
    /// Hottest shard's load divided by the mean (1.0 = perfectly even,
    /// `shards as f64` = everything on one shard). 0.0 when idle.
    pub fn imbalance(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mean = self.total as f64 / self.per_shard.len() as f64;
        let max = self.per_shard.iter().copied().max().unwrap_or(0);
        max as f64 / mean
    }
}

/// Configures and starts a [`ShardedIndex`].
pub struct ShardedBuilder<const D: usize, E = Tree<D>> {
    router: ZOrderRouter<D>,
    trees: Vec<E>,
    disks: Option<Vec<Arc<DiskManager>>>,
    queue_capacity: usize,
    max_batch: usize,
    sink: Option<Arc<dyn ObsSink>>,
    ring: Option<Arc<RingBufferSink>>,
    tracer: Option<Arc<Tracer>>,
}

impl<const D: usize, E: SnapshotEngine<D>> ShardedBuilder<D, E> {
    /// Per-shard submission queue capacity (see
    /// [`Builder::queue_capacity`](crate::Builder::queue_capacity)).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Per-shard group-commit batch limit (see
    /// [`Builder::max_batch`](crate::Builder::max_batch)).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Receives every shard's events.
    pub fn sink(mut self, sink: Arc<dyn ObsSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Like [`sink`](Self::sink), but keeps the concrete ring-buffer
    /// handle so [`ShardedIndex::register_metrics`] also exports the
    /// sink's dropped/buffered series (registered once, not per shard).
    pub fn ring_sink(mut self, sink: Arc<RingBufferSink>) -> Self {
        self.ring = Some(Arc::clone(&sink));
        self.sink = Some(sink);
        self
    }

    /// Associates a [`Tracer`] whose sampling/drop/flight-recorder series
    /// [`ShardedIndex::register_metrics`] should export.
    pub fn tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Backs each shard with its own [`DiskManager`]; shard `i` commits
    /// through `disks[i]` before publishing, exactly like the unsharded
    /// durable mode.
    ///
    /// # Panics
    ///
    /// If `disks.len()` differs from the shard count.
    pub fn durable(mut self, disks: Vec<Arc<DiskManager>>) -> Self {
        assert_eq!(
            disks.len(),
            self.router.shards(),
            "one DiskManager per shard"
        );
        self.disks = Some(disks);
        self
    }

    /// Starts every shard's writer thread and publishes the initial
    /// global epoch vector (global epoch 0, every shard at epoch 0).
    pub fn start(self) -> Result<ShardedIndex<D, E>, StorageError> {
        let ShardedBuilder {
            router,
            trees,
            disks,
            queue_capacity,
            max_batch,
            sink,
            ring,
            tracer,
        } = self;
        // Two-phase start: prepare every shard first (building its epoch-0
        // snapshot), seed the global vector with all of them, and only
        // then spawn writers — no shard can publish into a half-built
        // vector.
        let mut prepared = Vec::with_capacity(trees.len());
        for (i, tree) in trees.into_iter().enumerate() {
            let mut builder = ConcurrentIndex::builder(tree)
                .queue_capacity(queue_capacity)
                .max_batch(max_batch);
            if let Some(sink) = &sink {
                builder = builder.sink(Arc::clone(sink));
            }
            if let Some(disks) = &disks {
                builder = builder.durable(Arc::clone(&disks[i]));
            }
            prepared.push(builder.prepare()?);
        }
        let initial = prepared.iter().map(|p| p.initial()).collect();
        let publisher = Arc::new(GlobalPublisher::new(initial));
        let shards: Vec<ConcurrentIndex<D, E>> = prepared
            .into_iter()
            .enumerate()
            .map(|(shard, p)| {
                p.launch(Some(GlobalLink {
                    shard,
                    publisher: Arc::clone(&publisher),
                }))
            })
            .collect();
        let routed: Arc<[AtomicU64]> = (0..shards.len()).map(|_| AtomicU64::new(0)).collect();
        Ok(ShardedIndex {
            shards,
            router,
            publisher,
            routed,
            ring,
            tracer,
        })
    }
}

/// An index partitioned into N [`ConcurrentIndex`] shards — one bounded
/// queue and group-commit writer thread *per shard* — behind Z-order
/// routing and cross-shard epoch snapshots.
///
/// Build per-shard trees with [`ZOrderRouter::partition`], then:
///
/// ```
/// use segidx_concurrent::{ShardedIndex, ZOrderRouter, IndexOp};
/// use segidx_core::tree::Tree;
/// use segidx_core::{IndexConfig, RecordId};
/// use segidx_geom::Rect;
///
/// let router = ZOrderRouter::new(Rect::new([0.0, 0.0], [100.0, 100.0]), 4);
/// let trees = (0..4).map(|_| Tree::<2>::new(IndexConfig::srtree())).collect();
/// let index = ShardedIndex::builder(router, trees).start().unwrap();
///
/// index
///     .submit(IndexOp::Insert {
///         rect: Rect::new([10.0, 10.0], [20.0, 12.0]),
///         record: RecordId(7),
///     })
///     .unwrap()
///     .wait()
///     .unwrap();
///
/// let snap = index.snapshot(); // one consistent cross-shard snapshot
/// assert_eq!(snap.search(&Rect::new([0.0, 0.0], [50.0, 50.0])), vec![RecordId(7)]);
/// ```
pub struct ShardedIndex<const D: usize, E = Tree<D>> {
    shards: Vec<ConcurrentIndex<D, E>>,
    router: ZOrderRouter<D>,
    publisher: Arc<GlobalPublisher<D, E>>,
    routed: Arc<[AtomicU64]>,
    ring: Option<Arc<RingBufferSink>>,
    tracer: Option<Arc<Tracer>>,
}

impl<const D: usize, E: SnapshotEngine<D>> ShardedIndex<D, E> {
    /// A builder over `router` and one pre-built tree per shard (shard `i`
    /// serves `trees[i]`; use [`ZOrderRouter::partition`] to split an
    /// initial load consistently with later routing).
    ///
    /// # Panics
    ///
    /// If `trees.len()` differs from `router.shards()`.
    pub fn builder(router: ZOrderRouter<D>, trees: Vec<E>) -> ShardedBuilder<D, E> {
        assert_eq!(trees.len(), router.shards(), "one tree per shard");
        ShardedBuilder {
            router,
            trees,
            disks: None,
            queue_capacity: 1024,
            max_batch: 128,
            sink: None,
            ring: None,
            tracer: None,
        }
    }

    /// A cloneable handle sharing this index's snapshot/submit API.
    pub fn handle(&self) -> ShardedHandle<D, E> {
        ShardedHandle {
            handles: self.shards.iter().map(ConcurrentIndex::handle).collect(),
            router: self.router.clone(),
            publisher: Arc::clone(&self.publisher),
            routed: Arc::clone(&self.routed),
        }
    }

    /// Routes `op` to its shard's queue. Backpressure is per shard: a hot
    /// shard rejects with [`SubmitError::Overloaded`] while cold shards
    /// keep accepting.
    pub fn submit(&self, op: IndexOp<D>) -> Result<CommitTicket, SubmitError> {
        submit_routed(&self.router, &self.routed, op, |shard, op| {
            self.shards[shard].submit(op)
        })
    }

    /// Routes a run of operations to their shards, submitting each
    /// shard's portion under one queue lock (see
    /// [`IndexHandle::submit_batch`]). Outcomes come back in input order;
    /// backpressure stays per shard — a hot shard's rejections leave ops
    /// routed to cold shards admitted.
    pub fn submit_batch(&self, ops: Vec<IndexOp<D>>) -> Vec<Result<CommitTicket, SubmitError>> {
        submit_routed_batch(&self.router, &self.routed, ops, |shard, ops| {
            self.shards[shard].submit_batch(ops)
        })
    }

    /// The shard `op` would route to.
    pub fn route(&self, op: &IndexOp<D>) -> usize {
        self.router.route(op_rect(op))
    }

    /// Pins one consistent cross-shard snapshot: every shard is observed
    /// at the epoch recorded in the same published global vector. One
    /// `Arc` clone under a lock held only for pointer operations.
    pub fn snapshot(&self) -> GlobalSnapshotGuard<D, E> {
        GlobalSnapshotGuard {
            vector: self.publisher.acquire(),
        }
    }

    /// Pins shard `shard`'s *local* snapshot — cheaper than a global pin
    /// when the caller knows its query touches one shard.
    pub fn shard_snapshot(&self, shard: usize) -> SnapshotGuard<D, E> {
        self.shards[shard].snapshot()
    }

    /// Flushes every shard: blocks until everything submitted before this
    /// call is committed and published, returning per-shard receipts.
    pub fn flush(&self) -> Result<Vec<CommitReceipt>, CommitError> {
        self.shards.iter().map(ConcurrentIndex::flush).collect()
    }

    /// The current global epoch (one tick per shard commit, any shard).
    pub fn global_epoch(&self) -> u64 {
        self.publisher.epoch()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The router mutations and [`ZOrderRouter::partition`] share.
    pub fn router(&self) -> &ZOrderRouter<D> {
        &self.router
    }

    /// Shard `shard`'s writer-side telemetry.
    pub fn shard_telemetry(&self, shard: usize) -> Arc<ConcurrentTelemetry> {
        self.shards[shard].telemetry()
    }

    /// Per-shard routing counts since start.
    pub fn routing_stats(&self) -> RoutingStats {
        let per_shard: Vec<u64> = self.routed.iter().map(|c| c.load(SeqCst)).collect();
        let total = per_shard.iter().sum();
        RoutingStats { per_shard, total }
    }

    /// Shard snapshots that were replaced by a later commit but are still
    /// held by a reader, through a shard guard or a global vector (see
    /// [`ConcurrentIndex::retired_snapshots`]), summed over the shards.
    pub fn retired_snapshots(&self) -> usize {
        self.shards
            .iter()
            .map(ConcurrentIndex::retired_snapshots)
            .sum()
    }

    /// Registers every shard's metric families under `labels` plus a
    /// `shard="<id>"` label, and a `shard="all"` rollup (summed counters,
    /// merged histograms, global-epoch/routing gauges). See
    /// [`IndexHandle::register_metrics`] for the per-shard names; the
    /// rollup adds `segidx_sharded_shards`, `segidx_sharded_global_epoch`,
    /// `segidx_sharded_global_publishes_total`,
    /// `segidx_sharded_routing_imbalance` and
    /// `segidx_sharded_routed_ops_total` (the last also per shard).
    pub fn register_metrics(&self, registry: &MetricsRegistry, labels: &[(&str, &str)]) {
        if let Some(ring) = &self.ring {
            registry.register_ring_sink(ring, labels);
        }
        if let Some(tracer) = &self.tracer {
            registry.register_tracer(tracer, labels);
        }
        for (i, shard) in self.shards.iter().enumerate() {
            let id = i.to_string();
            let mut l: Vec<(&str, &str)> = labels.to_vec();
            l.push(("shard", &id));
            shard.handle().register_metrics(registry, &l);
        }
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let handles: Vec<IndexHandle<D, E>> =
            self.shards.iter().map(ConcurrentIndex::handle).collect();
        let telemetry: Vec<Arc<ConcurrentTelemetry>> =
            self.shards.iter().map(ConcurrentIndex::telemetry).collect();
        let publisher = Arc::clone(&self.publisher);
        let routed = Arc::clone(&self.routed);
        registry.register(Box::new(move |out| {
            let mut base: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            // Per-shard routing counters carry the numeric shard label...
            let ids: Vec<String> = (0..routed.len()).map(|i| i.to_string()).collect();
            for (i, id) in ids.iter().enumerate() {
                let mut l = base.clone();
                l.push(("shard", id));
                out.push(Metric::counter(
                    "segidx_sharded_routed_ops_total",
                    &l,
                    routed[i].load(SeqCst),
                ));
            }
            // ...and everything below is the shard="all" rollup.
            base.push(("shard", "all"));
            let l = &base[..];
            let total_routed: u64 = routed.iter().map(|c| c.load(SeqCst)).sum();
            let stats = RoutingStats {
                per_shard: routed.iter().map(|c| c.load(SeqCst)).collect(),
                total: total_routed,
            };
            out.push(Metric::gauge(
                "segidx_sharded_shards",
                l,
                handles.len() as f64,
            ));
            out.push(Metric::gauge(
                "segidx_sharded_global_epoch",
                l,
                publisher.epoch() as f64,
            ));
            out.push(Metric::gauge(
                "segidx_sharded_routing_imbalance",
                l,
                stats.imbalance(),
            ));
            out.push(Metric::counter(
                "segidx_sharded_routed_ops_total",
                l,
                total_routed,
            ));
            out.push(Metric::counter(
                "segidx_sharded_global_publishes_total",
                l,
                publisher.epoch(),
            ));
            out.push(Metric::gauge(
                "segidx_concurrent_epoch",
                l,
                publisher.epoch() as f64,
            ));
            out.push(Metric::gauge(
                "segidx_concurrent_queue_depth",
                l,
                handles.iter().map(IndexHandle::queue_depth).sum::<usize>() as f64,
            ));
            out.push(Metric::gauge(
                "segidx_concurrent_retired_snapshots",
                l,
                handles
                    .iter()
                    .map(IndexHandle::retired_snapshots)
                    .sum::<usize>() as f64,
            ));
            out.push(Metric::counter(
                "segidx_concurrent_commits_total",
                l,
                telemetry.iter().map(|t| t.commits()).sum(),
            ));
            out.push(Metric::counter(
                "segidx_concurrent_ops_applied_total",
                l,
                telemetry.iter().map(|t| t.ops_applied()).sum(),
            ));
            out.push(Metric::counter(
                "segidx_concurrent_overloads_total",
                l,
                telemetry.iter().map(|t| t.overloads()).sum(),
            ));
            let mut queue_wait = telemetry[0].queue_wait.snapshot();
            let mut commit_latency = telemetry[0].commit_latency.snapshot();
            for t in &telemetry[1..] {
                queue_wait.merge(&t.queue_wait.snapshot());
                commit_latency.merge(&t.commit_latency.snapshot());
            }
            out.push(Metric::histogram(
                "segidx_concurrent_queue_wait_nanos",
                l,
                queue_wait,
            ));
            out.push(Metric::histogram(
                "segidx_concurrent_commit_latency_nanos",
                l,
                commit_latency,
            ));
        }));
    }

    /// Shuts every shard down gracefully (already-queued operations still
    /// commit). Equivalent to `drop`, but explicit.
    pub fn shutdown(self) {
        for shard in self.shards {
            shard.shutdown();
        }
    }
}

impl<const D: usize, E: SnapshotEngine<D>> std::fmt::Debug for ShardedIndex<D, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("shards", &self.shards.len())
            .field("global_epoch", &self.global_epoch())
            .field("retired_snapshots", &self.retired_snapshots())
            .finish()
    }
}

/// A cloneable, `Send + Sync` handle to a [`ShardedIndex`]. Like
/// [`IndexHandle`], handles do not keep the writers alive: after the
/// owning index shuts down, submissions fail with [`SubmitError::Closed`]
/// while snapshots keep serving the last published global vector.
#[derive(Clone)]
pub struct ShardedHandle<const D: usize, E = Tree<D>> {
    handles: Vec<IndexHandle<D, E>>,
    router: ZOrderRouter<D>,
    publisher: Arc<GlobalPublisher<D, E>>,
    routed: Arc<[AtomicU64]>,
}

impl<const D: usize, E> ShardedHandle<D, E> {
    /// Pins one consistent cross-shard snapshot (see
    /// [`ShardedIndex::snapshot`]).
    pub fn snapshot(&self) -> GlobalSnapshotGuard<D, E> {
        GlobalSnapshotGuard {
            vector: self.publisher.acquire(),
        }
    }

    /// Routes `op` to its shard's queue (see [`ShardedIndex::submit`]).
    pub fn submit(&self, op: IndexOp<D>) -> Result<CommitTicket, SubmitError> {
        submit_routed(&self.router, &self.routed, op, |shard, op| {
            self.handles[shard].submit(op)
        })
    }

    /// Routes and submits a run of operations (see
    /// [`ShardedIndex::submit_batch`]).
    pub fn submit_batch(&self, ops: Vec<IndexOp<D>>) -> Vec<Result<CommitTicket, SubmitError>> {
        submit_routed_batch(&self.router, &self.routed, ops, |shard, ops| {
            self.handles[shard].submit_batch(ops)
        })
    }

    /// Flushes every shard (see [`ShardedIndex::flush`]).
    pub fn flush(&self) -> Result<Vec<CommitReceipt>, CommitError> {
        self.handles.iter().map(IndexHandle::flush).collect()
    }

    /// The current global epoch.
    pub fn global_epoch(&self) -> u64 {
        self.publisher.epoch()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.handles.len()
    }
}

impl<const D: usize, E> std::fmt::Debug for ShardedHandle<D, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedHandle")
            .field("shards", &self.handles.len())
            .field("global_epoch", &self.global_epoch())
            .finish()
    }
}

fn op_rect<const D: usize>(op: &IndexOp<D>) -> &Rect<D> {
    match op {
        IndexOp::Insert { rect, .. } | IndexOp::Delete { rect, .. } => rect,
    }
}

fn submit_routed<const D: usize>(
    router: &ZOrderRouter<D>,
    routed: &[AtomicU64],
    op: IndexOp<D>,
    submit: impl FnOnce(usize, IndexOp<D>) -> Result<CommitTicket, SubmitError>,
) -> Result<CommitTicket, SubmitError> {
    let shard = router.route(op_rect(&op));
    let ticket = submit(shard, op)?;
    routed[shard].fetch_add(1, SeqCst);
    Ok(ticket)
}

/// Scatters `ops` to their shards, submits each shard's portion as one
/// batch, and reassembles the per-op outcomes in input order. Routed
/// counters count admitted ops only, matching [`submit_routed`].
fn submit_routed_batch<const D: usize>(
    router: &ZOrderRouter<D>,
    routed: &[AtomicU64],
    ops: Vec<IndexOp<D>>,
    submit: impl Fn(usize, Vec<IndexOp<D>>) -> Vec<Result<CommitTicket, SubmitError>>,
) -> Vec<Result<CommitTicket, SubmitError>> {
    let total = ops.len();
    let mut by_shard: Vec<(Vec<usize>, Vec<IndexOp<D>>)> =
        vec![(Vec::new(), Vec::new()); routed.len()];
    for (i, op) in ops.into_iter().enumerate() {
        let shard = router.route(op_rect(&op));
        by_shard[shard].0.push(i);
        by_shard[shard].1.push(op);
    }
    let mut out: Vec<Option<Result<CommitTicket, SubmitError>>> = Vec::new();
    out.resize_with(total, || None);
    for (shard, (indices, shard_ops)) in by_shard.into_iter().enumerate() {
        if shard_ops.is_empty() {
            continue;
        }
        let results = submit(shard, shard_ops);
        debug_assert_eq!(results.len(), indices.len());
        let mut admitted = 0u64;
        for (i, r) in indices.into_iter().zip(results) {
            if r.is_ok() {
                admitted += 1;
            }
            out[i] = Some(r);
        }
        if admitted > 0 {
            routed[shard].fetch_add(admitted, SeqCst);
        }
    }
    out.into_iter()
        .map(|r| r.expect("every op was routed to exactly one shard"))
        .collect()
}

/// A pinned, immutable view of one published global epoch vector: every
/// shard at the epoch recorded by the *same* publication.
///
/// Reads loop over the shards' trees and merge per-shard results in
/// record order, so `search`/`stab`/`search_batch`/`stab_batch` return
/// exactly what the unsharded service would for the same logical
/// contents. A guard is one `Arc` reference: holding it keeps its vector
/// (and each shard snapshot the vector references) alive, and dropping the
/// last one frees them.
pub struct GlobalSnapshotGuard<const D: usize, E = Tree<D>> {
    vector: Arc<GlobalVector<D, E>>,
}

impl<const D: usize, E: SnapshotEngine<D>> GlobalSnapshotGuard<D, E> {
    /// The global epoch this vector was published at. Monotone across
    /// re-pins on the same index.
    pub fn global_epoch(&self) -> u64 {
        self.vector.epoch
    }

    /// Number of shards in the vector.
    pub fn shard_count(&self) -> usize {
        self.vector.shards.len()
    }

    /// Shard `shard`'s local epoch in this snapshot.
    pub fn shard_epoch(&self, shard: usize) -> u64 {
        self.vector.shards[shard].epoch
    }

    /// Shard `shard`'s storage meta-commit epoch in this snapshot
    /// (`None` for memory-only shards).
    pub fn shard_durable_epoch(&self, shard: usize) -> Option<u64> {
        self.vector.shards[shard].durable_epoch
    }

    /// Shard `shard`'s engine, for reads that target one shard directly.
    pub fn shard_tree(&self, shard: usize) -> &E {
        &self.vector.shards[shard].tree
    }

    /// Total records across all shards.
    pub fn len(&self) -> usize {
        self.vector.shards.iter().map(|s| s.tree.len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs `read` against every shard's engine, in shard order, on the
    /// calling thread; each call is a `shard.N` span.
    fn each_shard<T>(&self, read: impl Fn(&E) -> Vec<T>) -> Vec<Vec<T>> {
        let shards = &self.vector.shards;
        trace::add(Dim::ShardFanout, shards.len() as u64);
        shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let ssp = trace::span(shard_span_name(i));
                let part = read(&s.tree);
                ssp.items(part.len() as u64);
                part
            })
            .collect()
    }

    fn merged(&self, name: &'static str, read: impl Fn(&E) -> Vec<RecordId>) -> Vec<RecordId> {
        let sp = trace::span(name);
        let parts = self.each_shard(read);
        let msp = trace::span("sharded.merge");
        let out = merge_sorted(parts);
        msp.items(out.len() as u64);
        drop(msp);
        sp.items(out.len() as u64);
        out
    }

    /// All records intersecting `query`, merged across shards in record
    /// order — bit-identical to [`Tree::search`] on the unsharded
    /// contents.
    pub fn search(&self, query: &Rect<D>) -> Vec<RecordId> {
        self.merged("sharded.search", |engine| engine.search(query))
    }

    /// All records containing `p`, merged across shards in record order —
    /// bit-identical to [`Tree::stab`] on the unsharded contents.
    pub fn stab(&self, p: &Point<D>) -> Vec<RecordId> {
        self.merged("sharded.stab", |engine| engine.stab(p))
    }

    /// The `k` records nearest to `p` across all shards, nearest first;
    /// ties broken by record id (deterministic, unlike the single-tree
    /// [`Tree::nearest`] whose ties are arbitrary).
    pub fn nearest(&self, p: &Point<D>, k: usize) -> Vec<Neighbor<D>> {
        let _sp = trace::span("sharded.nearest");
        let mut all = self.each_shard(|engine| engine.nearest(p, k)).concat();
        all.sort_unstable_by(|a, b| {
            a.distance
                .total_cmp(&b.distance)
                .then_with(|| a.record.cmp(&b.record))
        });
        all.truncate(k);
        all
    }

    /// Batched [`search`](Self::search): runs the whole query list
    /// against each shard in turn (the engine's
    /// [`search_many`](SnapshotEngine::search_many) reuses scratch state
    /// across its queries), then gathers per-query merges in input order.
    pub fn search_batch(&self, queries: &[Rect<D>]) -> Vec<Vec<RecordId>> {
        self.scatter_gather(|engine| engine.search_many(queries))
    }

    /// Batched [`stab`](Self::stab), same loop as
    /// [`search_batch`](Self::search_batch).
    pub fn stab_batch(&self, points: &[Point<D>]) -> Vec<Vec<RecordId>> {
        self.scatter_gather(|engine| engine.stab_many(points))
    }

    fn scatter_gather(&self, run: impl Fn(&E) -> Vec<Vec<RecordId>>) -> Vec<Vec<RecordId>> {
        let sp = trace::span("sharded.scatter");
        let mut per_shard = self.each_shard(run);
        drop(sp);
        if per_shard.len() == 1 {
            return per_shard.pop().expect("one shard");
        }
        let msp = trace::span("sharded.gather");
        let queries = per_shard[0].len();
        let out: Vec<Vec<RecordId>> = (0..queries)
            .map(|i| {
                merge_sorted(
                    per_shard
                        .iter_mut()
                        .map(|shard| std::mem::take(&mut shard[i]))
                        .collect(),
                )
            })
            .collect();
        msp.items(out.len() as u64);
        out
    }

    /// Structural validation of every shard tree in the pinned vector;
    /// errors are prefixed with their shard id.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut errs = Vec::new();
        for (i, s) in self.vector.shards.iter().enumerate() {
            for e in s.tree.check_invariants() {
                errs.push(format!("shard {i}: {e}"));
            }
        }
        errs
    }

    /// Panics if any shard tree violates its invariants.
    pub fn assert_invariants(&self) {
        let errs = self.check_invariants();
        assert!(errs.is_empty(), "sharded snapshot invariants: {errs:?}");
    }
}

impl<const D: usize, E: SnapshotEngine<D>> std::fmt::Debug for GlobalSnapshotGuard<D, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalSnapshotGuard")
            .field("global_epoch", &self.global_epoch())
            .field("shards", &self.shard_count())
            .field("len", &self.len())
            .finish()
    }
}

/// Merges per-shard ascending-by-id result lists into one ascending list.
/// Shard contents are disjoint (each record routes to exactly one shard),
/// so this reproduces the unsharded sorted output exactly.
fn merge_sorted(mut parts: Vec<Vec<RecordId>>) -> Vec<RecordId> {
    parts.retain(|p| !p.is_empty());
    match parts.len() {
        0 => return Vec::new(),
        1 => return parts.pop().unwrap(),
        _ => {}
    }
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    let mut idx = vec![0usize; parts.len()];
    loop {
        let mut best: Option<(RecordId, usize)> = None;
        for (s, part) in parts.iter().enumerate() {
            if let Some(&candidate) = part.get(idx[s]) {
                if best.map_or(true, |(b, _)| candidate < b) {
                    best = Some((candidate, s));
                }
            }
        }
        let Some((id, s)) = best else { break };
        out.push(id);
        idx[s] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use segidx_core::IndexConfig;

    fn router(shards: usize) -> ZOrderRouter<2> {
        ZOrderRouter::new(Rect::new([0.0, 0.0], [1_000.0, 1_000.0]), shards)
    }

    #[test]
    fn routing_is_total_and_stable() {
        let r = router(8);
        let mut seen = vec![0u64; 8];
        for i in 0..4_000u64 {
            let x = ((i * 131) % 1_000) as f64;
            let y = ((i * 67) % 1_000) as f64;
            let rect = Rect::new([x, y], [x + 3.0, y + 2.0]);
            let shard = r.route(&rect);
            assert!(shard < 8);
            assert_eq!(shard, r.route(&rect), "routing is deterministic");
            seen[shard] += 1;
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "uniform data reaches every shard: {seen:?}"
        );
    }

    #[test]
    fn quadrants_map_to_distinct_shards_at_four_way_split() {
        let r = router(4);
        // With 4 shards over 2-D data the prefix is (x-msb, y-msb): the
        // four quadrants of the domain land in four different shards.
        let q = |x: f64, y: f64| r.route(&Rect::new([x, y], [x + 1.0, y + 1.0]));
        let shards = [
            q(100.0, 100.0),
            q(900.0, 100.0),
            q(100.0, 900.0),
            q(900.0, 900.0),
        ];
        let mut unique = shards.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4, "quadrants spread: {shards:?}");
    }

    #[test]
    fn out_of_domain_centroids_clamp() {
        let r = router(4);
        let far = Rect::new([5_000.0, 5_000.0], [5_010.0, 5_010.0]);
        assert!(r.route(&far) < 4);
        let negative = Rect::new([-500.0, -500.0], [-490.0, -490.0]);
        assert!(r.route(&negative) < 4);
    }

    #[test]
    fn single_shard_router_skips_the_math() {
        let r = router(1);
        assert_eq!(r.route(&Rect::new([0.0, 0.0], [1.0, 1.0])), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shard_count_is_rejected() {
        router(3);
    }

    #[test]
    fn partition_agrees_with_route() {
        let r = router(4);
        let records: Vec<(Rect<2>, RecordId)> = (0..500u64)
            .map(|i| {
                let x = ((i * 37) % 1_000) as f64;
                let y = ((i * 113) % 1_000) as f64;
                (Rect::new([x, y], [x + 5.0, y + 5.0]), RecordId(i))
            })
            .collect();
        let parts = r.partition(&records);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), records.len());
        for (shard, part) in parts.iter().enumerate() {
            for (rect, _) in part {
                assert_eq!(r.route(rect), shard);
            }
        }
    }

    #[test]
    fn merge_sorted_reproduces_global_sort() {
        let a = vec![RecordId(1), RecordId(4), RecordId(9)];
        let b = vec![RecordId(2), RecordId(3), RecordId(11)];
        let c = vec![RecordId(0)];
        let merged = merge_sorted(vec![a, b, c, Vec::new()]);
        let expect: Vec<RecordId> = [0u64, 1, 2, 3, 4, 9, 11]
            .iter()
            .map(|&i| RecordId(i))
            .collect();
        assert_eq!(merged, expect);
    }

    #[test]
    fn boundary_centroids_route_in_range_and_deterministically() {
        // Centroids exactly on the domain corners, edges, and midlines —
        // the `t == 1.0` and `t == 0.0` cell-mapping extremes.
        let r = router(8);
        let on = |x: f64, y: f64| Rect::new([x, y], [x, y]);
        let cases = [
            on(0.0, 0.0),
            on(1_000.0, 1_000.0),
            on(0.0, 1_000.0),
            on(1_000.0, 0.0),
            on(500.0, 0.0),
            on(0.0, 500.0),
            on(500.0, 500.0),
            on(1_000.0, 500.0),
        ];
        for rect in &cases {
            let shard = r.route(rect);
            assert!(shard < 8, "boundary centroid {rect:?} out of range");
            assert_eq!(shard, r.route(rect), "boundary routing is stable");
        }
        // The hi-corner centroid clamps into the top cell, not past it:
        // it lands in the same shard as a point just inside the corner.
        assert_eq!(r.route(&on(1_000.0, 1_000.0)), r.route(&on(999.9, 999.9)));
    }

    #[test]
    fn degenerate_rectangles_route_like_their_centroid_point() {
        let r = router(4);
        for i in 0..64u64 {
            let x = ((i * 131) % 1_000) as f64;
            let y = ((i * 67) % 1_000) as f64;
            let point = Rect::new([x, y], [x, y]);
            // A zero-extent rect in one dimension (a horizontal segment
            // collapsed to its centroid) routes with the same rule.
            let flat = Rect::new([x - 10.0, y], [x + 10.0, y]);
            assert_eq!(r.route(&point), r.route(&flat), "at ({x}, {y})");
            assert!(r.route(&point) < 4);
        }
    }

    #[test]
    fn out_of_domain_clamping_is_directional() {
        // Clamped centroids keep their in-domain coordinate: far-right
        // rects land with right-edge routes, far-left with left-edge ones.
        let r = router(4);
        let right = Rect::new([5_000.0, 400.0], [5_010.0, 400.0]);
        let at_right_edge = Rect::new([999.0, 400.0], [999.0, 400.0]);
        assert_eq!(r.route(&right), r.route(&at_right_edge));
        let left = Rect::new([-5_000.0, 400.0], [-4_990.0, 400.0]);
        let at_left_edge = Rect::new([0.0, 400.0], [0.0, 400.0]);
        assert_eq!(r.route(&left), r.route(&at_left_edge));
    }

    #[test]
    fn traced_read_and_commit_span_the_whole_stack() {
        use segidx_obs::trace::OpClass;

        let r = router(4);
        let trees = (0..4)
            .map(|_| Tree::<2>::new(IndexConfig::srtree()))
            .collect();
        let index = ShardedIndex::builder(r, trees).start().unwrap();
        let tracer = Arc::new(Tracer::with_config(1, 4, 4096));

        // Traced write: the ticket wait attributes the writer's commit
        // phases to the submitter's trace.
        {
            let _g = tracer.force(OpClass::Insert, "sharded_insert").unwrap();
            let ticket = index
                .submit(IndexOp::Insert {
                    rect: Rect::new([10.0, 10.0], [30.0, 12.0]),
                    record: RecordId(0),
                })
                .unwrap();
            let receipt = ticket.wait().unwrap();
            assert!(receipt.epoch >= 1);
            let phases = ticket.phases().expect("writer reported phases");
            assert!(phases.total_nanos() > 0);
            assert_eq!(phases.checkpoint_nanos, 0, "memory-only index");
        }
        let t = tracer.last_completed().unwrap();
        assert_eq!(t.check_well_formed(), Vec::<String>::new());
        assert!(t.spans.iter().any(|s| s.name == "commit.wait"));
        assert!(t.spans.iter().any(|s| s.name == "commit.apply"));
        assert!(t.profile.dim(Dim::ApplyNanos) > 0);

        for i in 1..200u64 {
            let x = ((i * 131) % 950) as f64;
            let y = ((i * 67) % 950) as f64;
            index
                .submit(IndexOp::Insert {
                    rect: Rect::new([x, y], [x + 20.0, y + 4.0]),
                    record: RecordId(i),
                })
                .unwrap();
        }
        index.flush().unwrap();

        // Traced batched read: one trace covers the scatter, every
        // shard's engine work under it, and the gather.
        {
            let _g = tracer.force(OpClass::Search, "sharded_search").unwrap();
            let snap = index.snapshot();
            let q = Rect::new([0.0, 0.0], [1_000.0, 1_000.0]);
            let got = snap.search_batch(&[q]);
            assert_eq!(got[0].len(), 200);
        }
        let t = tracer.last_completed().unwrap();
        assert_eq!(t.check_well_formed(), Vec::<String>::new());
        assert!(t.spans.iter().any(|s| s.name == "sharded.scatter"));
        assert!(t.spans.iter().any(|s| s.name.starts_with("shard.")));
        assert!(
            t.spans.iter().any(|s| s.name == "tree.search"),
            "per-shard engine work is part of the same trace"
        );
        assert_eq!(t.profile.dim(Dim::ShardFanout), 4);
        index.shutdown();
    }

    #[test]
    fn sharded_end_to_end_matches_routing() {
        let r = router(4);
        let trees = (0..4)
            .map(|_| Tree::<2>::new(IndexConfig::srtree()))
            .collect();
        let index = ShardedIndex::builder(r, trees).start().unwrap();
        for i in 0..200u64 {
            let x = ((i * 131) % 950) as f64;
            let y = ((i * 67) % 950) as f64;
            index
                .submit(IndexOp::Insert {
                    rect: Rect::new([x, y], [x + 20.0, y + 4.0]),
                    record: RecordId(i),
                })
                .unwrap();
        }
        index.flush().unwrap();
        let snap = index.snapshot();
        assert_eq!(snap.len(), 200);
        snap.assert_invariants();
        let everything = snap.search(&Rect::new([0.0, 0.0], [1_000.0, 1_000.0]));
        assert_eq!(everything.len(), 200);
        assert!(everything.windows(2).all(|w| w[0] < w[1]), "record order");
        let stats = index.routing_stats();
        assert_eq!(stats.total, 200);
        assert!(stats.per_shard.iter().all(|&n| n > 0));
        assert!(stats.imbalance() >= 1.0);
        index.shutdown();
    }
}
