//! The concurrent index service: `Arc`-published snapshots over a
//! copy-on-write [`Tree`], whose clone is a cheap snapshot, fed by a single
//! writer thread running group commits.
//!
//! # Architecture
//!
//! ```text
//!  readers                    writer thread
//!  ───────                    ─────────────
//!  snapshot() ──Arc::clone──►  drain ≤ max_batch ops from the queue
//!  search / stab on an        apply them to the private tree
//!  immutable tree             (durable: persist::commit + sync)
//!  drop guard ──Arc drop──►   publish: swap the Arc under the lock,
//!                             drop the replaced one outside it
//!                             complete tickets with the commit epoch
//! ```
//!
//! The published snapshot is a `Mutex<Arc<SnapshotInner>>`. A reader locks,
//! clones the `Arc` and unlocks; the writer locks, swaps in the successor
//! and unlocks, and only then drops the `Arc` it replaced. Nothing but
//! those two pointer operations ever runs under the lock — no tree drop,
//! no allocation — so a reader waits for at most one of them,
//! and any number of guards can be alive at once. Whoever drops the last
//! reference frees the tree: the writer when no reader held the replaced
//! snapshot, otherwise the last reader to let go, on its own thread.
//!
//! Readers never observe a half-applied batch: they hold a
//! [`SnapshotGuard`] and run any read — including
//! `search_batch`/`stab_batch` — against a tree no one will ever mutate.
//! The writer's private copy shares all untouched nodes with the published
//! snapshots (see `Arena` in `segidx-core`), so publishing epoch *n+1*
//! costs one `Arc` bump per 16-slot chunk of the node table, and the batch
//! before it copied only the chunks and nodes it changed; dropping a
//! snapshot walks the chunk table once more and frees what it owned alone.
//!
//! # One owner, any number of handles
//!
//! Every method of the service is [`IndexHandle`]'s, over one
//! `Arc<Shared>`: the published snapshot, the queue and the writer's
//! counters. [`ConcurrentIndex`] owns the writer thread and nothing else
//! of its own; it dereferences to its handle, and shutting it down (or
//! dropping it) closes the queue, lets the writer commit what is queued,
//! and joins it. A handle that outlives its owner reads on, and every
//! submission it makes is refused with [`SubmitError::Closed`].
//!
//! # Durability = visibility
//!
//! When the tree is served over a [`DiskManager`] ([`Builder::durable`]),
//! every group commit runs [`persist::commit`] **before** the snapshot is
//! published. A snapshot can therefore never be observed that is not
//! already durable: the chain of published epochs maps 1:1 onto the chain
//! of durable checkpoints, and a crash at any point recovers exactly the
//! tree of the last epoch any reader could have seen.

use crate::queue::{
    lock, CommitError, CommitPhases, CommitReceipt, CommitTicket, IndexOp, QueueItem,
    SubmissionQueue, SubmitError,
};
use segidx_core::persist;
use segidx_core::tree::Tree;
use segidx_obs::{trace, Family, LatencyHistogram, Metric, MetricsRegistry};
use segidx_storage::{DiskManager, StorageError};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

const EPOCH: Family = Family::gauge("segidx_concurrent_epoch");
const QUEUE_DEPTH: Family = Family::gauge("segidx_concurrent_queue_depth");
const RETIRED_SNAPSHOTS: Family = Family::gauge("segidx_concurrent_retired_snapshots");
const COMMITS_TOTAL: Family = Family::counter("segidx_concurrent_commits_total");
const OPS_APPLIED_TOTAL: Family = Family::counter("segidx_concurrent_ops_applied_total");
const OVERLOADS_TOTAL: Family = Family::counter("segidx_concurrent_overloads_total");
/// Time each operation waited in the queue before its batch was drained.
pub const QUEUE_WAIT_NANOS: Family = Family::histogram("segidx_concurrent_queue_wait_nanos");
/// Wall time of each group commit.
pub const COMMIT_LATENCY_NANOS: Family =
    Family::histogram("segidx_concurrent_commit_latency_nanos");

/// The index service's metric families, emitted by
/// [`IndexHandle::register_metrics`].
pub const METRICS: &[Family] = &[
    EPOCH,
    QUEUE_DEPTH,
    RETIRED_SNAPSHOTS,
    COMMITS_TOTAL,
    OPS_APPLIED_TOTAL,
    OVERLOADS_TOTAL,
    QUEUE_WAIT_NANOS,
    COMMIT_LATENCY_NANOS,
];

/// The label on every metric the service emits.
const LABELS: &[(&str, &str)] = &[("component", "concurrent")];

/// One published, immutable snapshot: the tree plus its epoch identity.
struct SnapshotInner<const D: usize> {
    epoch: u64,
    durable_epoch: Option<u64>,
    /// The frozen tree.
    tree: Tree<D>,
    /// Snapshots of this index not yet dropped, this one included.
    live: Arc<AtomicUsize>,
}

impl<const D: usize> SnapshotInner<D> {
    fn new(epoch: u64, durable_epoch: Option<u64>, tree: Tree<D>, live: &Arc<AtomicUsize>) -> Self {
        live.fetch_add(1, SeqCst);
        Self {
            epoch,
            durable_epoch,
            tree,
            live: Arc::clone(live),
        }
    }
}

impl<const D: usize> Drop for SnapshotInner<D> {
    fn drop(&mut self) {
        self.live.fetch_sub(1, SeqCst);
    }
}

/// State shared by the writer thread and every [`IndexHandle`].
struct Shared<const D: usize> {
    /// The current snapshot. Held only to clone or swap the `Arc`, which
    /// no panic can leave half-written: every site takes it through
    /// [`lock`], so a thread that died holding it stops no one.
    published: Mutex<Arc<SnapshotInner<D>>>,
    /// Feeds `retired_snapshots`: the published snapshot is always live,
    /// every other live one was replaced and is kept by a reader.
    live_snapshots: Arc<AtomicUsize>,
    queue: SubmissionQueue<D>,
    /// Time each operation spent queued before its batch was drained.
    queue_wait: LatencyHistogram,
    /// Wall time of each group commit (apply + checkpoint + publish).
    commit_latency: LatencyHistogram,
    /// Group commits published.
    commits: AtomicU64,
    /// Operations applied across all group commits.
    ops_applied: AtomicU64,
}

/// A pinned, immutable view of one published snapshot.
///
/// Dereferences to the snapshot's [`Tree`], so every read-side method —
/// `search`, `stab`, `search_batch`, `nearest`, `assert_invariants` —
/// works unchanged. A guard is one `Arc` reference: holding it keeps exactly its
/// own snapshot's memory alive, and dropping the last one frees it.
pub struct SnapshotGuard<const D: usize> {
    inner: Arc<SnapshotInner<D>>,
}

impl<const D: usize> SnapshotGuard<D> {
    /// The epoch this snapshot was published at. Monotone across
    /// re-pins: a later `snapshot()` call never observes a smaller epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// The storage meta-commit epoch this snapshot was checkpointed under
    /// (`None` for a memory-only index).
    pub fn durable_epoch(&self) -> Option<u64> {
        self.inner.durable_epoch
    }
}

impl<const D: usize> Deref for SnapshotGuard<D> {
    type Target = Tree<D>;

    fn deref(&self) -> &Tree<D> {
        &self.inner.tree
    }
}

impl<const D: usize> std::fmt::Debug for SnapshotGuard<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotGuard")
            .field("epoch", &self.epoch())
            .field("durable_epoch", &self.durable_epoch())
            .field("len", &self.len())
            .finish()
    }
}

/// Called on the writer thread with the epoch about to be published, after
/// the batch is applied but before it is checkpointed/published. Test
/// seam: lets a test hold a commit "in flight" deterministically.
pub type CommitHook = Box<dyn FnMut(u64) + Send>;

/// Configures and starts a [`ConcurrentIndex`].
///
/// The writer clones its private [`Tree`] once per group commit to publish
/// a frozen snapshot, and readers run every query against such clones,
/// from any thread; a clone is one `Arc` bump per 16 node slots.
pub struct Builder<const D: usize> {
    tree: Tree<D>,
    /// Where every group commit is checkpointed, if the index is durable.
    disk: Option<Arc<DiskManager>>,
    queue_capacity: usize,
    max_batch: usize,
    commit_hook: Option<CommitHook>,
}

impl<const D: usize> Builder<D> {
    /// Backs the index with `disk`: every group commit is checkpointed via
    /// `persist::commit` before its snapshot is published.
    pub fn durable(mut self, disk: Arc<DiskManager>) -> Self {
        self.disk = Some(disk);
        self
    }

    /// Maximum queued (unapplied) operations before submissions are
    /// rejected with [`SubmitError::Overloaded`]. Default 1024.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Maximum operations folded into one group commit. Default 128.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Installs a [`CommitHook`] (test seam for in-flight commits).
    pub fn commit_hook(mut self, hook: CommitHook) -> Self {
        self.commit_hook = Some(hook);
        self
    }

    /// Starts the writer thread and publishes the initial snapshot (epoch
    /// 0). For a durable index the initial tree is checkpointed first, so
    /// even epoch 0 is recoverable; that checkpoint is the only way this
    /// returns an error.
    pub fn start(self) -> Result<ConcurrentIndex<D>, StorageError> {
        let Builder {
            tree,
            disk,
            queue_capacity,
            max_batch,
            commit_hook,
        } = self;
        let durable_epoch = match &disk {
            Some(disk) => {
                persist::commit(&tree, disk)?;
                Some(disk.epoch())
            }
            None => None,
        };
        let live_snapshots = Arc::new(AtomicUsize::new(0));
        let initial = SnapshotInner::new(0, durable_epoch, tree.clone(), &live_snapshots);
        let shared = Arc::new(Shared {
            published: Mutex::new(Arc::new(initial)),
            live_snapshots,
            queue: SubmissionQueue::new(queue_capacity),
            queue_wait: LatencyHistogram::new(),
            commit_latency: LatencyHistogram::new(),
            commits: AtomicU64::new(0),
            ops_applied: AtomicU64::new(0),
        });
        let writer_shared = Arc::clone(&shared);
        let writer = std::thread::Builder::new()
            .name("segidx-writer".into())
            .spawn(move || writer_loop(&writer_shared, tree, disk, max_batch, commit_hook))
            .expect("spawn writer thread");
        Ok(ConcurrentIndex {
            handle: IndexHandle { shared },
            writer: Some(writer),
        })
    }
}

/// The owner of an index served concurrently: any number of snapshot
/// readers, one writer thread applying submitted mutations in group
/// commits.
///
/// Construct with [`ConcurrentIndex::builder`] from a [`Tree`] of any of
/// the four paper configurations. The owner
/// holds the writer thread, and dropping it (or [`shutdown`](Self::shutdown))
/// commits what is queued and stops the writer. Everything else — reads,
/// submissions, flushes, metrics — is [`IndexHandle`]'s, which the owner
/// dereferences to; [`handle`](Self::handle) clones one for another thread.
///
/// ```
/// use segidx_concurrent::{ConcurrentIndex, IndexOp};
/// use segidx_core::{IndexConfig, RecordId};
/// use segidx_core::tree::Tree;
/// use segidx_geom::Rect;
///
/// let index = ConcurrentIndex::builder(Tree::<2>::new(IndexConfig::srtree()))
///     .start()
///     .unwrap();
/// let ticket = index
///     .submit(IndexOp::Insert {
///         rect: Rect::new([0.0, 0.0], [10.0, 1.0]),
///         record: RecordId(1),
///     })
///     .unwrap();
/// let receipt = ticket.wait().unwrap();
///
/// let snap = index.snapshot();
/// assert!(snap.epoch() >= receipt.epoch);
/// assert_eq!(snap.search(&Rect::new([5.0, 0.0], [6.0, 2.0])), vec![RecordId(1)]);
/// ```
pub struct ConcurrentIndex<const D: usize> {
    handle: IndexHandle<D>,
    writer: Option<JoinHandle<()>>,
}

impl<const D: usize> ConcurrentIndex<D> {
    /// A builder over the tree's current contents.
    pub fn builder(tree: Tree<D>) -> Builder<D> {
        Builder {
            tree,
            disk: None,
            queue_capacity: 1024,
            max_batch: 128,
            commit_hook: None,
        }
    }

    /// A cloneable handle to this index, for another thread.
    pub fn handle(&self) -> IndexHandle<D> {
        self.handle.clone()
    }

    /// Shuts down gracefully: already-queued operations still commit, then
    /// the writer exits. Equivalent to `drop`, but explicit.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.handle.shared.queue.close();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

impl<const D: usize> Deref for ConcurrentIndex<D> {
    type Target = IndexHandle<D>;

    fn deref(&self) -> &IndexHandle<D> {
        &self.handle
    }
}

impl<const D: usize> Drop for ConcurrentIndex<D> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl<const D: usize> std::fmt::Debug for ConcurrentIndex<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.handle.fmt(f)
    }
}

/// A cloneable, `Send + Sync` handle to a [`ConcurrentIndex`]: the
/// service's whole read/submit surface.
///
/// Handles do not keep the writer alive — once the owning
/// `ConcurrentIndex` shuts down, submissions fail with
/// [`SubmitError::Closed`] while snapshots continue to serve the last
/// published state.
pub struct IndexHandle<const D: usize> {
    shared: Arc<Shared<D>>,
}

impl<const D: usize> Clone for IndexHandle<D> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<const D: usize> IndexHandle<D> {
    /// Pins and returns the current published snapshot: one `Arc` clone
    /// under a lock nothing holds for longer than a pointer operation.
    pub fn snapshot(&self) -> SnapshotGuard<D> {
        SnapshotGuard {
            inner: Arc::clone(&lock(&self.shared.published)),
        }
    }

    /// Submits one mutation: a one-element
    /// [`submit_batch`](Self::submit_batch). Returns immediately with a
    /// [`CommitTicket`], or rejects with [`SubmitError::Overloaded`]
    /// (queue full — the op was *not* enqueued) or [`SubmitError::Closed`].
    pub fn submit(&self, op: IndexOp<D>) -> Result<CommitTicket, SubmitError> {
        self.submit_batch(vec![op])
            .pop()
            .expect("one result per op")
    }

    /// Submits a run of mutations under **one** queue lock acquisition,
    /// with per-op admission: each element is either a [`CommitTicket`]
    /// or a typed rejection, in input order, and an
    /// [`Overloaded`](SubmitError::Overloaded) op does not prevent later
    /// ops in the run from being admitted.
    ///
    /// This is the backpressure-aware path a pipelined front-end uses:
    /// one lock and one writer wakeup for everything a client sent at
    /// once, after which the submitter goes on with other work and
    /// [`wait`](CommitTicket::wait)s on the tickets when it needs the
    /// outcomes — typically to find them already resolved.
    pub fn submit_batch(&self, ops: Vec<IndexOp<D>>) -> Vec<Result<CommitTicket, SubmitError>> {
        let _sp = trace::span("index.submit");
        self.shared.queue.push(ops)
    }

    /// Blocks until everything submitted before this call is committed and
    /// published, returning that commit's receipt.
    pub fn flush(&self) -> Result<CommitReceipt, CommitError> {
        match self.shared.queue.push_barrier() {
            Ok(ticket) => ticket.wait(),
            Err(_) => Err(CommitError::WriterExited),
        }
    }

    /// The latest published epoch.
    pub fn epoch(&self) -> u64 {
        lock(&self.shared.published).epoch
    }

    /// Snapshots that were replaced by a later commit but are still held
    /// by a reader — the alerting signal for a reader pinning snapshots
    /// longer than it should.
    pub fn retired_snapshots(&self) -> usize {
        self.shared.live_snapshots.load(SeqCst) - 1
    }

    /// Registers this index's [`METRICS`] families on `registry`, labelled
    /// `component="concurrent"`.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        let handle = self.clone();
        registry.register(
            METRICS,
            Box::new(move |out| {
                let s = &handle.shared;
                let gauge = |f: Family, v: f64| Metric::gauge(f.name, LABELS, v);
                let counter =
                    |f: Family, n: &AtomicU64| Metric::counter(f.name, LABELS, n.load(SeqCst));
                out.extend([
                    gauge(EPOCH, handle.epoch() as f64),
                    gauge(QUEUE_DEPTH, s.queue.depth() as f64),
                    gauge(RETIRED_SNAPSHOTS, handle.retired_snapshots() as f64),
                    counter(COMMITS_TOTAL, &s.commits),
                    counter(OPS_APPLIED_TOTAL, &s.ops_applied),
                    counter(OVERLOADS_TOTAL, &s.queue.overloads),
                    Metric::histogram(QUEUE_WAIT_NANOS.name, LABELS, s.queue_wait.snapshot()),
                    Metric::histogram(
                        COMMIT_LATENCY_NANOS.name,
                        LABELS,
                        s.commit_latency.snapshot(),
                    ),
                ]);
            }),
        );
    }
}

impl<const D: usize> std::fmt::Debug for IndexHandle<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexHandle")
            .field("epoch", &self.epoch())
            .field("queue_depth", &self.shared.queue.depth())
            .field("retired_snapshots", &self.retired_snapshots())
            .finish()
    }
}

/// The batch the writer has drained and not yet answered. Nothing else can
/// reach these tickets any more, so a writer that unwinds while holding them
/// (a panicking [`CommitHook`], a bug in the tree's `insert`) would leave
/// `FLUSH`, [`CommitTicket::wait`] and every connection waiting on one
/// parked forever. Dropped during a panic, this answers them — and whatever
/// is still queued — with [`CommitError::WriterExited`] and closes the
/// queue; dropped normally it does nothing.
struct Drained<'a, const D: usize> {
    shared: &'a Shared<D>,
    batch: Vec<QueueItem<D>>,
}

impl<const D: usize> Drained<'_, D> {
    /// Fails the batch and everything queued behind it; the writer is
    /// about to exit and nothing submitted can commit any more.
    fn fail(&self, err: &CommitError) {
        self.shared.queue.close();
        for item in &self.batch {
            item.ticket().complete(Err(err.clone()), None);
        }
        self.shared.queue.fail_remaining(err);
    }
}

impl<const D: usize> Drop for Drained<'_, D> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.fail(&CommitError::WriterExited);
        }
    }
}

/// The single writer: drain → apply → checkpoint → publish.
fn writer_loop<const D: usize>(
    shared: &Shared<D>,
    mut tree: Tree<D>,
    disk: Option<Arc<DiskManager>>,
    max_batch: usize,
    mut hook: Option<CommitHook>,
) {
    while let Some(batch) = shared.queue.drain(max_batch) {
        let drained = Drained { shared, batch };
        let commit_start = Instant::now();
        // Each ticket keeps its own queue wait; the apply/checkpoint/
        // publish phases below are shared by the whole group commit.
        let mut queue_waits: Vec<u64> = Vec::with_capacity(drained.batch.len());
        let mut applied = 0usize;
        for item in &drained.batch {
            match item {
                QueueItem::Op { op, enqueued, .. } => {
                    let waited = enqueued.elapsed();
                    shared.queue_wait.record_duration(waited);
                    match *op {
                        IndexOp::Insert { rect, record } => tree.insert(rect, record),
                        IndexOp::Delete { rect, record } => {
                            tree.delete(&rect, record);
                        }
                    }
                    applied += 1;
                    queue_waits.push(waited.as_nanos() as u64);
                }
                QueueItem::Barrier(_) => queue_waits.push(0),
            }
        }
        let apply_nanos = commit_start.elapsed().as_nanos() as u64;
        let (epoch, durable_epoch) = {
            let current = lock(&shared.published);
            (current.epoch, current.durable_epoch)
        };
        if applied == 0 {
            // Barrier-only batch: the published snapshot already covers
            // everything submitted before it.
            let receipt = Ok(CommitReceipt {
                epoch,
                durable_epoch,
                ops_in_commit: 0,
            });
            for item in &drained.batch {
                item.ticket().complete(receipt.clone(), None);
            }
            continue;
        }
        let next_epoch = epoch + 1;
        if let Some(hook) = hook.as_mut() {
            hook(next_epoch);
        }
        let checkpoint_start = Instant::now();
        let durable_epoch = match &disk {
            Some(disk) => match persist::commit(&tree, disk) {
                Ok(_) => Some(disk.epoch()),
                Err(err) => {
                    // Cannot make this batch durable; publishing it would
                    // break the durability == visibility invariant. Fail
                    // everything and stop: the published snapshot stays at
                    // the last durable epoch.
                    drained.fail(&CommitError::Storage(err.to_string()));
                    return;
                }
            },
            None => None,
        };
        let checkpoint_nanos = if disk.is_some() {
            checkpoint_start.elapsed().as_nanos() as u64
        } else {
            0
        };
        let publish_start = Instant::now();
        let fresh = Arc::new(SnapshotInner::new(
            next_epoch,
            durable_epoch,
            tree.clone(),
            &shared.live_snapshots,
        ));
        let replaced = std::mem::replace(&mut *lock(&shared.published), fresh);
        // Dropped with no lock held: when no reader kept the replaced
        // snapshot this frees its tree, and no reader waits while it does.
        drop(replaced);
        shared
            .commit_latency
            .record_duration(commit_start.elapsed());
        shared.commits.fetch_add(1, SeqCst);
        shared.ops_applied.fetch_add(applied as u64, SeqCst);
        let receipt = Ok(CommitReceipt {
            epoch: next_epoch,
            durable_epoch,
            ops_in_commit: applied,
        });
        let publish_nanos = publish_start.elapsed().as_nanos() as u64;
        for (item, queue_wait_nanos) in drained.batch.iter().zip(queue_waits) {
            let phases = CommitPhases {
                queue_wait_nanos,
                apply_nanos,
                checkpoint_nanos,
                publish_nanos,
            };
            item.ticket().complete(receipt.clone(), Some(phases));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segidx_core::{IndexConfig, RecordId};
    use segidx_geom::Rect;

    #[test]
    fn a_reader_that_dies_holding_a_guard_and_the_lock_stops_no_one() {
        let index = ConcurrentIndex::builder(Tree::<2>::new(IndexConfig::srtree()))
            .start()
            .unwrap();
        let handle = index.handle();
        let reader = std::thread::spawn(move || {
            let _guard = handle.snapshot();
            let _held = handle.shared.published.lock().unwrap();
            panic!("reader failure injected by the test");
        });
        assert!(reader.join().is_err());
        assert!(index.shared.published.is_poisoned());

        assert_eq!(index.snapshot().epoch(), 0);
        let ticket = index
            .submit(IndexOp::Insert {
                rect: Rect::new([1.0, 1.0], [2.0, 2.0]),
                record: RecordId(1),
            })
            .unwrap();
        // Bounded wait: with the writer dead a ticket never completes.
        let receipt = ticket.wait_timeout(std::time::Duration::from_secs(10));
        assert_eq!(receipt.map(|r| r.map(|r| r.epoch)), Some(Ok(1)));
        assert_eq!(index.flush().map(|r| r.epoch), Ok(1));
        let snap = index.snapshot();
        assert_eq!((snap.epoch(), snap.len(), index.epoch()), (1, 1, 1));
        assert_eq!(index.retired_snapshots(), 0);
    }

    /// What a snapshot emits is what [`METRICS`] declares: no family more,
    /// none less, each of its declared kind, all labelled
    /// `component="concurrent"`.
    #[test]
    fn registered_metrics_are_the_declared_families() {
        use std::collections::BTreeSet;
        let index = ConcurrentIndex::builder(Tree::<2>::new(IndexConfig::srtree()))
            .start()
            .unwrap();
        let registry = MetricsRegistry::new();
        index.register_metrics(&registry);
        let snap = registry.snapshot();
        assert!(snap
            .metrics
            .iter()
            .all(|m| m.labels == [("component".to_string(), "concurrent".to_string())]));
        let emitted: BTreeSet<_> = snap
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.value.kind()))
            .collect();
        let declared: BTreeSet<_> = METRICS
            .iter()
            .map(|f| (f.name.to_string(), f.kind))
            .collect();
        assert_eq!(emitted, declared);
    }
}
