//! The index behind the wire: either a single [`ConcurrentIndex`] (one
//! writer, epoch-snapshot readers) or a [`ShardedIndex`] (Z-order-routed
//! multi-writer). The server is written against this enum so `--shards 1`
//! avoids the routing layer entirely while `--shards N` scales writers.
//!
//! Reads go through a pin: [`Backend::pin`] returns the one [`Pinned`]
//! snapshot a connection answers a whole burst segment from, taken before
//! the segment's writes are submitted ([`Backend::submit_batch`]). There
//! is no unpinned read — a read that pinned for itself could see writes
//! the reads around it did not.

use segidx_concurrent::{
    CommitError, CommitTicket, ConcurrentIndex, GlobalSnapshotGuard, IndexOp, ShardedIndex,
    SnapshotEngine, SnapshotGuard, SubmitError, ZOrderRouter,
};
use segidx_core::{IndexConfig, RecordId, Tree};
use segidx_geom::{Point, Rect};
use segidx_obs::{MetricsRegistry, RingBufferSink, Tracer};
use std::sync::Arc;

/// One `k`-nearest result row: record id + distance.
pub type NearHit = (RecordId, f64);

/// The server's index dimensionality. The wire grammar is
/// dimension-agnostic; execution validates point arity against this.
pub const DIMS: usize = 2;

/// The engine serving a server process.
pub enum Backend {
    /// Single writer, no routing layer.
    Concurrent(ConcurrentIndex<DIMS>),
    /// Z-order-routed shards, one writer each.
    Sharded(ShardedIndex<DIMS>),
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Concurrent(_) => write!(f, "Backend::Concurrent"),
            Backend::Sharded(ix) => {
                write!(f, "Backend::Sharded(shards={})", ix.shard_count())
            }
        }
    }
}

/// Construction parameters for [`Backend::start`].
#[derive(Clone, Debug)]
pub struct BackendConfig {
    /// Writer count; `1` selects the unsharded engine.
    pub shards: usize,
    /// Submission-queue capacity per writer (admission-control depth).
    pub queue_capacity: usize,
    /// The coordinate domain shard routing covers (rectangles outside are
    /// still indexed — they route to the shard of their clamped center).
    pub domain: Rect<DIMS>,
}

impl Default for BackendConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            queue_capacity: 4096,
            domain: Rect::new([0.0, 0.0], [1_000_000.0, 1_000_000.0]),
        }
    }
}

impl Backend {
    /// Starts the writer thread(s) and returns the running backend, with
    /// the given tracer and event ring wired through the index builders so
    /// slow commits land in the flight recorder.
    pub fn start(
        config: &BackendConfig,
        tracer: Arc<Tracer>,
        ring: Arc<RingBufferSink>,
    ) -> std::io::Result<Backend> {
        let fail = |e| std::io::Error::other(format!("index start failed: {e:?}"));
        if config.shards <= 1 {
            let ix = ConcurrentIndex::builder(Tree::new(IndexConfig::srtree()))
                .queue_capacity(config.queue_capacity)
                .tracer(tracer)
                .ring_sink(ring)
                .start()
                .map_err(fail)?;
            return Ok(Backend::Concurrent(ix));
        }
        let shards = config.shards.next_power_of_two();
        let router = ZOrderRouter::new(config.domain, shards);
        let trees: Vec<Tree<DIMS>> = (0..shards)
            .map(|_| Tree::new(IndexConfig::srtree()))
            .collect();
        let ix = ShardedIndex::builder(router, trees)
            .queue_capacity(config.queue_capacity)
            .tracer(tracer)
            .ring_sink(ring)
            .start()
            .map_err(fail)?;
        Ok(Backend::Sharded(ix))
    }

    /// Submits a batch of writes under one admission lock per writer;
    /// per-op results preserve input order.
    pub fn submit_batch(&self, ops: Vec<IndexOp<DIMS>>) -> Vec<Result<CommitTicket, SubmitError>> {
        match self {
            Backend::Concurrent(ix) => ix.submit_batch(ops),
            Backend::Sharded(ix) => ix.submit_batch(ops),
        }
    }

    /// Pins the published snapshot: what every read of one burst segment
    /// is answered from. Never blocks; hold it no longer than the segment.
    pub fn pin(&self) -> Pinned {
        match self {
            Backend::Concurrent(ix) => Pinned::Concurrent(ix.snapshot()),
            Backend::Sharded(ix) => Pinned::Sharded(ix.snapshot()),
        }
    }

    /// Blocks until every previously admitted write is committed; returns
    /// the resulting (global) epoch.
    pub fn flush(&self) -> Result<u64, CommitError> {
        match self {
            Backend::Concurrent(ix) => ix.flush().map(|r| r.epoch),
            Backend::Sharded(ix) => {
                ix.flush()?;
                Ok(ix.global_epoch())
            }
        }
    }

    /// Records currently indexed.
    pub fn len(&self) -> usize {
        match self {
            Backend::Concurrent(ix) => ix.snapshot().len(),
            Backend::Sharded(ix) => ix.snapshot().len(),
        }
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current (global) commit epoch.
    pub fn epoch(&self) -> u64 {
        match self {
            Backend::Concurrent(ix) => ix.epoch(),
            Backend::Sharded(ix) => ix.global_epoch(),
        }
    }

    /// Registers the index's own metric families alongside the server's,
    /// under the `component` label the workspace's metrics tooling keys
    /// on (`"concurrent"` / `"sharded"`), plus any extra labels given.
    pub fn register_metrics(&self, registry: &MetricsRegistry, labels: &[(&str, &str)]) {
        match self {
            Backend::Concurrent(ix) => {
                let mut l = vec![("component", "concurrent")];
                l.extend_from_slice(labels);
                ix.handle().register_metrics(registry, &l);
            }
            Backend::Sharded(ix) => {
                let mut l = vec![("component", "sharded")];
                l.extend_from_slice(labels);
                ix.register_metrics(registry, &l);
            }
        }
    }
}

/// One pinned, immutable snapshot of the index — of every shard at one
/// global epoch, when sharded. Writes submitted after the pin was taken
/// are invisible through it, however soon they commit.
pub enum Pinned {
    /// The unsharded engine's snapshot.
    Concurrent(SnapshotGuard<DIMS>),
    /// One consistent cross-shard snapshot.
    Sharded(GlobalSnapshotGuard<DIMS>),
}

impl Pinned {
    /// Runs a batch of window queries, reusing the engine's `SearchCursor`
    /// across queries.
    pub fn search_many(&self, queries: &[Rect<DIMS>]) -> Vec<Vec<RecordId>> {
        match self {
            Pinned::Concurrent(snap) => snap.search_many(queries),
            Pinned::Sharded(snap) => snap.search_batch(queries),
        }
    }

    /// Runs a batch of stabbing queries.
    pub fn stab_many(&self, points: &[Point<DIMS>]) -> Vec<Vec<RecordId>> {
        match self {
            Pinned::Concurrent(snap) => snap.stab_many(points),
            Pinned::Sharded(snap) => snap.stab_batch(points),
        }
    }

    /// `k` nearest neighbours to `p` with their distances.
    pub fn nearest(&self, p: &Point<DIMS>, k: usize) -> Vec<NearHit> {
        let hits = match self {
            Pinned::Concurrent(snap) => snap.nearest(p, k),
            Pinned::Sharded(snap) => snap.nearest(p, k),
        };
        hits.into_iter().map(|n| (n.record, n.distance)).collect()
    }
}
