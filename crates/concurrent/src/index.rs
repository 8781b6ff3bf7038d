//! The concurrent index service: epoch-published snapshots over a
//! copy-on-write [`Tree`], fed by a single writer thread running group
//! commits.
//!
//! # Architecture
//!
//! ```text
//!  readers                    writer thread
//!  ───────                    ─────────────
//!  snapshot() ──pin epoch──►  drain ≤ max_batch ops from the queue
//!  search / stab on an        apply them to the private tree
//!  immutable Tree             (durable: persist::commit + sync)
//!  drop guard ──unpin──►      publish: swap root ptr, bump epoch
//!                             retire old snapshot, reclaim safe ones
//!                             complete tickets with the commit epoch
//! ```
//!
//! Readers never block and never observe a half-applied batch: they pin the
//! published [`SnapshotGuard`] and run any read — including
//! `search_batch`/`stab_batch` — against a tree no one will ever mutate.
//! The writer's private tree shares all untouched nodes with the published
//! snapshots (see `Arena` in `segidx-core`), so publishing epoch *n+1*
//! costs one `Arc` bump per 16-slot chunk of the node table, and the batch
//! before it copied only the chunks and nodes it changed; retiring a
//! snapshot walks the chunk table once more and frees what it owned alone.
//!
//! # Durability = visibility
//!
//! When built over a [`DiskManager`], every group commit runs
//! [`persist::commit`] **before** the snapshot is published. A snapshot can
//! therefore never be observed that is not already durable: the chain of
//! published epochs maps 1:1 onto the chain of durable checkpoints, and a
//! crash at any point recovers exactly the tree of the last epoch any
//! reader could have seen.

use crate::engine::SnapshotEngine;
use crate::epoch::EpochRegistry;
use crate::global_epoch::GlobalLink;
use crate::queue::{
    CommitError, CommitPhases, CommitReceipt, CommitTicket, IndexOp, QueueItem, SubmissionQueue,
    SubmitError, TicketState,
};
use segidx_core::tree::Tree;
use segidx_core::RecordId;
use segidx_geom::Rect;
use segidx_obs::trace::{self, Tracer};
use segidx_obs::{
    Event, EventKind, LatencyHistogram, Metric, MetricsRegistry, ObsSink, RingBufferSink,
};
use segidx_storage::{DiskManager, StorageError};
use std::ops::Deref;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Writer-side counters and latency distributions, shared with every
/// [`IndexHandle`].
#[derive(Debug, Default)]
pub struct ConcurrentTelemetry {
    /// Time each operation spent queued before its batch was drained.
    pub queue_wait: LatencyHistogram,
    /// Wall-clock duration of each group commit (apply + checkpoint +
    /// publish).
    pub commit_latency: LatencyHistogram,
    commits: AtomicU64,
    ops_applied: AtomicU64,
    overloads: AtomicU64,
    reclaimed: AtomicU64,
}

impl ConcurrentTelemetry {
    /// Group commits published.
    pub fn commits(&self) -> u64 {
        self.commits.load(SeqCst)
    }

    /// Operations applied across all group commits.
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied.load(SeqCst)
    }

    /// Submissions rejected by admission control.
    pub fn overloads(&self) -> u64 {
        self.overloads.load(SeqCst)
    }

    /// Retired snapshots whose memory has been reclaimed.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed.load(SeqCst)
    }
}

/// One published, immutable snapshot: the tree plus its epoch identity.
/// `Arc`-shared so a cross-shard [`GlobalEpochVector`](crate::global_epoch)
/// can reference the same snapshot the shard publishes locally without
/// re-cloning the tree.
pub(crate) struct SnapshotInner<const D: usize, E = Tree<D>> {
    pub(crate) epoch: u64,
    pub(crate) durable_epoch: Option<u64>,
    /// The frozen engine (historically a [`Tree`]; any [`SnapshotEngine`]).
    pub(crate) tree: E,
}

/// A retired snapshot reference tagged with the snapshot's *own* epoch;
/// freeable once no reader slot [`protects`](EpochRegistry::protects) that
/// epoch. The pointer came from `Arc::into_raw`, so "freeing" drops this
/// holder's reference — the tree lives on if a global epoch vector still
/// shares it.
struct Retired<const D: usize, E = Tree<D>>(*const SnapshotInner<D, E>, u64);

// SAFETY: the pointee is a heap allocation whose ownership moves with the
// `Retired` value; the engine itself is `Send`.
unsafe impl<const D: usize, E: Send> Send for Retired<D, E> {}

/// State shared by the writer thread, the owner, and every handle.
struct Shared<const D: usize, E = Tree<D>> {
    published: AtomicPtr<SnapshotInner<D, E>>,
    epochs: EpochRegistry,
    queue: SubmissionQueue<D>,
    retired: Mutex<Vec<Retired<D, E>>>,
    retired_count: AtomicUsize,
    retired_highwater: AtomicUsize,
    telemetry: Arc<ConcurrentTelemetry>,
    sink: Option<Arc<dyn ObsSink>>,
    /// Concrete handle to the ring sink (when the sink *is* one), so
    /// `register_metrics` can export its dropped/buffered gauges.
    ring: Option<Arc<RingBufferSink>>,
    /// Tracer whose flight recorder / drop counters this index's metrics
    /// should carry.
    tracer: Option<Arc<Tracer>>,
}

impl<const D: usize, E> Shared<D, E> {
    fn emit(&self, event: Event) {
        if let Some(sink) = &self.sink {
            sink.event(event);
        }
    }

    fn snapshot(self: &Arc<Self>) -> SnapshotGuard<D, E> {
        let slot = self.epochs.pin();
        let ptr = self.published.load(SeqCst);
        // SAFETY: the unrefined pin keeps `ptr` alive until the slot is
        // refined or released.
        let epoch = unsafe { (*ptr).epoch };
        // Narrow the slot to the snapshot actually acquired, so retired
        // snapshots published later are not held hostage by this guard.
        self.epochs.refine(slot, epoch);
        SnapshotGuard {
            shared: Arc::clone(self),
            ptr,
            slot,
        }
    }

    fn submit(&self, op: IndexOp<D>) -> Result<CommitTicket, SubmitError> {
        let _sp = trace::span("index.submit");
        let state = Arc::new(TicketState::default());
        match self.queue.push_op(op, Arc::clone(&state)) {
            Ok(()) => Ok(CommitTicket { state }),
            Err(err) => {
                if let SubmitError::Overloaded { depth } = err {
                    self.telemetry.overloads.fetch_add(1, SeqCst);
                    self.emit(Event::new(EventKind::WriterStalled).detail(depth as u64));
                }
                Err(err)
            }
        }
    }

    fn submit_batch(&self, ops: Vec<IndexOp<D>>) -> Vec<Result<CommitTicket, SubmitError>> {
        let _sp = trace::span("index.submit_batch");
        self.queue
            .push_ops(ops)
            .into_iter()
            .map(|r| match r {
                Ok(state) => Ok(CommitTicket { state }),
                Err(err) => {
                    if let SubmitError::Overloaded { depth } = &err {
                        self.telemetry.overloads.fetch_add(1, SeqCst);
                        self.emit(Event::new(EventKind::WriterStalled).detail(*depth as u64));
                    }
                    Err(err)
                }
            })
            .collect()
    }

    fn flush(&self) -> Result<CommitReceipt, CommitError> {
        let state = Arc::new(TicketState::default());
        match self.queue.push_barrier(Arc::clone(&state)) {
            Ok(()) => CommitTicket { state }.wait(),
            Err(_) => Err(CommitError::WriterExited),
        }
    }

    /// The retired list, poisoned or not. `reclaim` runs on reader threads
    /// and calls the user's sink under this lock; the list holds plain
    /// `(ptr, epoch)` pairs a panic cannot leave half-written, so a
    /// poisoned lock is recovered rather than allowed to kill the writer.
    fn retired(&self) -> MutexGuard<'_, Vec<Retired<D, E>>> {
        self.retired.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Frees every retired snapshot no reader slot still protects. Runs on
    /// the writer after each publish *and* on the reader unpin path, so a
    /// long-pinned reader's backlog is released the moment it lets go
    /// rather than at the next commit. The slot scan happens inside the
    /// retired-list critical section — see `epoch.rs` for why that
    /// ordering makes the free safe.
    fn reclaim(&self) {
        let mut retired = self.retired();
        let mut i = 0;
        while i < retired.len() {
            if !self.epochs.protects(retired[i].1) {
                let Retired(ptr, epoch) = retired.swap_remove(i);
                // SAFETY: the pointer came from `Arc::into_raw` and this
                // list owns that reference; the `protects` check proves no
                // reader slot can still reach it.
                unsafe { drop(Arc::from_raw(ptr)) };
                self.telemetry.reclaimed.fetch_add(1, SeqCst);
                self.emit(Event::new(EventKind::EpochReclaimed).node(epoch));
            } else {
                i += 1;
            }
        }
        self.retired_count.store(retired.len(), SeqCst);
    }

    /// Moves the replaced snapshot onto the retired list, tagged with its
    /// own epoch, and tracks the backlog high-water mark.
    fn retire(&self, old: *const SnapshotInner<D, E>) {
        // SAFETY: `old` was just swapped out of `published`; the list now
        // owns its reference and keeps it alive.
        let old_epoch = unsafe { (*old).epoch };
        let mut retired = self.retired();
        retired.push(Retired(old, old_epoch));
        let depth = retired.len();
        self.retired_count.store(depth, SeqCst);
        self.retired_highwater.fetch_max(depth, SeqCst);
    }

    /// The published snapshot's durable epoch. Writer-thread / owner use;
    /// safe because the published snapshot is only freed after it has been
    /// retired *and* replaced.
    fn published_durable_epoch(&self) -> Option<u64> {
        // SAFETY: `published` always points at a live snapshot.
        unsafe { (*self.published.load(SeqCst)).durable_epoch }
    }
}

impl<const D: usize, E> Drop for Shared<D, E> {
    fn drop(&mut self) {
        // No readers or writer can exist anymore: every guard and handle
        // holds an `Arc<Shared>`.
        let published = self.published.load(SeqCst);
        // SAFETY: sole owner at drop time; the pointer came from
        // `Arc::into_raw` and this drops the published reference.
        unsafe { drop(Arc::from_raw(published)) };
        for Retired(ptr, _) in self.retired().drain(..) {
            // SAFETY: retired references are owned by the list.
            unsafe { drop(Arc::from_raw(ptr)) };
        }
    }
}

/// A pinned, immutable view of one published snapshot.
///
/// Dereferences to the snapshot's [`Tree`], so every read-side method —
/// `search`, `stab`, `search_batch`, `nearest`, `validate` — works
/// unchanged. Holding a guard keeps its snapshot's memory alive; drop it
/// promptly so retired epochs can be reclaimed.
pub struct SnapshotGuard<const D: usize, E = Tree<D>> {
    shared: Arc<Shared<D, E>>,
    ptr: *const SnapshotInner<D, E>,
    slot: usize,
}

impl<const D: usize, E> SnapshotGuard<D, E> {
    /// The epoch this snapshot was published at. Monotone across
    /// re-pins: a later `snapshot()` call never observes a smaller epoch.
    pub fn epoch(&self) -> u64 {
        // SAFETY: the pin taken in `Shared::snapshot` keeps `ptr` alive.
        unsafe { (*self.ptr).epoch }
    }

    /// The storage meta-commit epoch this snapshot was checkpointed under
    /// (`None` for a memory-only index).
    pub fn durable_epoch(&self) -> Option<u64> {
        // SAFETY: as in `epoch`.
        unsafe { (*self.ptr).durable_epoch }
    }
}

impl<const D: usize, E> Deref for SnapshotGuard<D, E> {
    type Target = E;

    fn deref(&self) -> &E {
        // SAFETY: the pin taken in `Shared::snapshot` keeps `ptr` alive,
        // and published trees are never mutated.
        unsafe { &(*self.ptr).tree }
    }
}

impl<const D: usize, E> Drop for SnapshotGuard<D, E> {
    fn drop(&mut self) {
        self.shared.epochs.unpin(self.slot);
        // Amortized reclamation: whatever this reader was the last one
        // holding is freed here, on the unpin path, instead of waiting for
        // the writer's next publish (which may never come on an idle
        // index). Cheap when nothing is retired — one atomic load.
        if self.shared.retired_count.load(SeqCst) > 0 {
            self.shared.reclaim();
        }
    }
}

impl<const D: usize, E: SnapshotEngine<D>> std::fmt::Debug for SnapshotGuard<D, E> {
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
pub struct Builder<const D: usize, E = Tree<D>> {
    tree: E,
    disk: Option<Arc<DiskManager>>,
    queue_capacity: usize,
    max_batch: usize,
    sink: Option<Arc<dyn ObsSink>>,
    ring: Option<Arc<RingBufferSink>>,
    tracer: Option<Arc<Tracer>>,
    commit_hook: Option<CommitHook>,
}

impl<const D: usize, E: SnapshotEngine<D>> Builder<D, E> {
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

    /// Receives [`EventKind::SnapshotPublished`], [`EventKind::EpochReclaimed`],
    /// and [`EventKind::WriterStalled`] events.
    pub fn sink(mut self, sink: Arc<dyn ObsSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Like [`sink`](Self::sink), but keeps the concrete ring-buffer
    /// handle so [`IndexHandle::register_metrics`] also exports the
    /// sink's `segidx_events_dropped_total` / `segidx_events_buffered`
    /// series — lost observability is itself observable.
    pub fn ring_sink(mut self, sink: Arc<RingBufferSink>) -> Self {
        self.ring = Some(Arc::clone(&sink));
        self.sink = Some(sink);
        self
    }

    /// Associates a [`Tracer`] with this index: its sampling counters,
    /// trace-buffer drop counter, and flight-recorder depth ride along in
    /// [`IndexHandle::register_metrics`].
    pub fn tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
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
    pub fn start(self) -> Result<ConcurrentIndex<D, E>, StorageError> {
        Ok(self.prepare()?.launch(None))
    }

    /// Builds the shared state and initial snapshot without spawning the
    /// writer. [`ShardedIndex`](crate::ShardedIndex) uses this two-phase
    /// start so every shard's epoch-0 snapshot can be gathered into the
    /// initial global epoch vector *before* any writer can publish.
    pub(crate) fn prepare(self) -> Result<Prepared<D, E>, StorageError> {
        let Builder {
            tree,
            disk,
            queue_capacity,
            max_batch,
            sink,
            ring,
            tracer,
            commit_hook,
        } = self;
        let durable_epoch = match &disk {
            Some(disk) => {
                tree.checkpoint(disk)?;
                Some(disk.epoch())
            }
            None => None,
        };
        let initial = Arc::new(SnapshotInner {
            epoch: 0,
            durable_epoch,
            tree: tree.clone(),
        });
        let published = Arc::into_raw(Arc::clone(&initial)) as *mut SnapshotInner<D, E>;
        let shared = Arc::new(Shared {
            published: AtomicPtr::new(published),
            epochs: EpochRegistry::new(),
            queue: SubmissionQueue::new(queue_capacity),
            retired: Mutex::new(Vec::new()),
            retired_count: AtomicUsize::new(0),
            retired_highwater: AtomicUsize::new(0),
            telemetry: Arc::new(ConcurrentTelemetry::default()),
            sink,
            ring,
            tracer,
        });
        Ok(Prepared {
            shared,
            tree,
            disk,
            max_batch,
            commit_hook,
            initial,
        })
    }
}

/// A fully built but not yet serving index: the writer thread has not been
/// spawned, so nothing can commit or publish past epoch 0.
pub(crate) struct Prepared<const D: usize, E = Tree<D>> {
    shared: Arc<Shared<D, E>>,
    tree: E,
    disk: Option<Arc<DiskManager>>,
    max_batch: usize,
    commit_hook: Option<CommitHook>,
    initial: Arc<SnapshotInner<D, E>>,
}

impl<const D: usize, E: SnapshotEngine<D>> Prepared<D, E> {
    /// The epoch-0 snapshot, for seeding a global epoch vector.
    pub(crate) fn initial(&self) -> &Arc<SnapshotInner<D, E>> {
        &self.initial
    }

    /// Spawns the writer thread. With a `global` link, every publish also
    /// installs the shard's new snapshot into the global epoch vector.
    pub(crate) fn launch(self, global: Option<GlobalLink<D, E>>) -> ConcurrentIndex<D, E> {
        let Prepared {
            shared,
            tree,
            disk,
            max_batch,
            commit_hook,
            initial: _,
        } = self;
        let writer_shared = Arc::clone(&shared);
        let name = match &global {
            Some(link) => format!("segidx-writer-{}", link.shard),
            None => "segidx-writer".into(),
        };
        let writer = std::thread::Builder::new()
            .name(name)
            .spawn(move || writer_loop(writer_shared, tree, disk, max_batch, commit_hook, global))
            .expect("spawn writer thread");
        ConcurrentIndex {
            shared,
            writer: Some(writer),
        }
    }
}

/// An index served concurrently: any number of snapshot readers, one
/// writer thread applying submitted mutations in group commits.
///
/// Construct with [`ConcurrentIndex::builder`] from any [`Tree`] — use
/// `into_tree()` on the four paper-variant wrappers. Cheap cloneable
/// [`IndexHandle`]s (from [`handle`](Self::handle)) give other threads the
/// same read/submit API.
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
pub struct ConcurrentIndex<const D: usize, E = Tree<D>> {
    shared: Arc<Shared<D, E>>,
    writer: Option<JoinHandle<()>>,
}

impl<const D: usize, E> ConcurrentIndex<D, E> {
    /// A builder over the engine's current contents (any
    /// [`SnapshotEngine`]; a [`Tree`] today).
    pub fn builder(tree: E) -> Builder<D, E> {
        Builder {
            tree,
            disk: None,
            queue_capacity: 1024,
            max_batch: 128,
            sink: None,
            ring: None,
            tracer: None,
            commit_hook: None,
        }
    }

    /// A cloneable handle sharing this index's read/submit API.
    pub fn handle(&self) -> IndexHandle<D, E> {
        IndexHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Pins and returns the current published snapshot. Never blocks.
    pub fn snapshot(&self) -> SnapshotGuard<D, E> {
        self.shared.snapshot()
    }

    /// Submits one mutation; see [`IndexHandle::submit`].
    pub fn submit(&self, op: IndexOp<D>) -> Result<CommitTicket, SubmitError> {
        self.shared.submit(op)
    }

    /// Submits a run of mutations under one queue lock; see
    /// [`IndexHandle::submit_batch`].
    pub fn submit_batch(&self, ops: Vec<IndexOp<D>>) -> Vec<Result<CommitTicket, SubmitError>> {
        self.shared.submit_batch(ops)
    }

    /// Blocks until everything submitted before this call is committed and
    /// published, returning that commit's receipt.
    pub fn flush(&self) -> Result<CommitReceipt, CommitError> {
        self.shared.flush()
    }

    /// Writer-side telemetry.
    pub fn telemetry(&self) -> Arc<ConcurrentTelemetry> {
        Arc::clone(&self.shared.telemetry)
    }

    /// The latest published epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.epochs.global()
    }

    /// Operations currently queued for the writer.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Retired snapshots not yet reclaimed (readers still pin them).
    pub fn retired_snapshots(&self) -> usize {
        self.shared.retired_count.load(SeqCst)
    }

    /// The largest retired-snapshot backlog ever observed — the alerting
    /// signal for a reader pinning snapshots longer than it should.
    pub fn retired_highwater(&self) -> usize {
        self.shared.retired_highwater.load(SeqCst)
    }

    /// Currently pinned snapshot guards.
    pub fn active_readers(&self) -> usize {
        self.shared.epochs.active_readers()
    }

    /// Shuts down gracefully: already-queued operations still commit, then
    /// the writer exits. Equivalent to `drop`, but explicit.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.queue.close();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

impl<const D: usize, E> Drop for ConcurrentIndex<D, E> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl<const D: usize, E> std::fmt::Debug for ConcurrentIndex<D, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentIndex")
            .field("epoch", &self.epoch())
            .field("queue_depth", &self.queue_depth())
            .field("retired_snapshots", &self.retired_snapshots())
            .finish()
    }
}

/// A cloneable, `Send + Sync` handle to a [`ConcurrentIndex`].
///
/// Handles share the index's snapshot/submit API; they do not keep the
/// writer alive — once the owning `ConcurrentIndex` shuts down, submissions
/// fail with [`SubmitError::Closed`] while snapshots continue to serve the
/// last published state.
pub struct IndexHandle<const D: usize, E = Tree<D>> {
    shared: Arc<Shared<D, E>>,
}

impl<const D: usize, E> Clone for IndexHandle<D, E> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<const D: usize, E> IndexHandle<D, E> {
    /// Pins and returns the current published snapshot. Never blocks.
    pub fn snapshot(&self) -> SnapshotGuard<D, E> {
        self.shared.snapshot()
    }

    /// Submits one mutation. Returns immediately with a [`CommitTicket`],
    /// or rejects with [`SubmitError::Overloaded`] (queue full — the op was
    /// *not* enqueued) or [`SubmitError::Closed`].
    pub fn submit(&self, op: IndexOp<D>) -> Result<CommitTicket, SubmitError> {
        self.shared.submit(op)
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
        self.shared.submit_batch(ops)
    }

    /// Convenience: submit an insert.
    pub fn insert(&self, rect: Rect<D>, record: RecordId) -> Result<CommitTicket, SubmitError> {
        self.submit(IndexOp::Insert { rect, record })
    }

    /// Convenience: submit a delete.
    pub fn delete(&self, rect: Rect<D>, record: RecordId) -> Result<CommitTicket, SubmitError> {
        self.submit(IndexOp::Delete { rect, record })
    }

    /// Blocks until everything submitted before this call is committed.
    pub fn flush(&self) -> Result<CommitReceipt, CommitError> {
        self.shared.flush()
    }

    /// The latest published epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.epochs.global()
    }

    /// Operations currently queued for the writer.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// The admission-control limit on queued operations.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue.capacity()
    }

    /// Retired snapshots not yet reclaimed.
    pub fn retired_snapshots(&self) -> usize {
        self.shared.retired_count.load(SeqCst)
    }

    /// The largest retired-snapshot backlog ever observed.
    pub fn retired_highwater(&self) -> usize {
        self.shared.retired_highwater.load(SeqCst)
    }

    /// Writer-side telemetry.
    pub fn telemetry(&self) -> Arc<ConcurrentTelemetry> {
        Arc::clone(&self.shared.telemetry)
    }

    /// Registers gauges, counters, and latency histograms for this index
    /// under the given labels (add e.g. `("component", "concurrent")`):
    ///
    /// * `segidx_concurrent_epoch`, `segidx_concurrent_queue_depth`,
    ///   `segidx_concurrent_retired_snapshots`,
    ///   `segidx_concurrent_retired_highwater`,
    ///   `segidx_concurrent_active_readers` — gauges;
    /// * `segidx_concurrent_commits_total`,
    ///   `segidx_concurrent_ops_applied_total`,
    ///   `segidx_concurrent_overloads_total`,
    ///   `segidx_concurrent_reclaimed_total` — counters;
    /// * `segidx_concurrent_queue_wait_nanos`,
    ///   `segidx_concurrent_commit_latency_nanos` — histograms.
    ///
    /// When the index was built with [`Builder::ring_sink`] or
    /// [`Builder::tracer`], the sink's `segidx_events_*` and the tracer's
    /// `segidx_trace_*` series are registered under the same labels.
    pub fn register_metrics(&self, registry: &MetricsRegistry, labels: &[(&str, &str)])
    where
        E: Send + Sync + 'static,
    {
        if let Some(ring) = &self.shared.ring {
            registry.register_ring_sink(ring, labels);
        }
        if let Some(tracer) = &self.shared.tracer {
            registry.register_tracer(tracer, labels);
        }
        let shared = Arc::clone(&self.shared);
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        registry.register(Box::new(move |out| {
            let l: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let t = &shared.telemetry;
            out.push(Metric::gauge(
                "segidx_concurrent_epoch",
                &l,
                shared.epochs.global() as f64,
            ));
            out.push(Metric::gauge(
                "segidx_concurrent_queue_depth",
                &l,
                shared.queue.depth() as f64,
            ));
            out.push(Metric::gauge(
                "segidx_concurrent_retired_snapshots",
                &l,
                shared.retired_count.load(SeqCst) as f64,
            ));
            out.push(Metric::gauge(
                "segidx_concurrent_retired_highwater",
                &l,
                shared.retired_highwater.load(SeqCst) as f64,
            ));
            out.push(Metric::gauge(
                "segidx_concurrent_active_readers",
                &l,
                shared.epochs.active_readers() as f64,
            ));
            out.push(Metric::counter(
                "segidx_concurrent_commits_total",
                &l,
                t.commits(),
            ));
            out.push(Metric::counter(
                "segidx_concurrent_ops_applied_total",
                &l,
                t.ops_applied(),
            ));
            out.push(Metric::counter(
                "segidx_concurrent_overloads_total",
                &l,
                t.overloads(),
            ));
            out.push(Metric::counter(
                "segidx_concurrent_reclaimed_total",
                &l,
                t.reclaimed(),
            ));
            out.push(Metric::histogram(
                "segidx_concurrent_queue_wait_nanos",
                &l,
                t.queue_wait.snapshot(),
            ));
            out.push(Metric::histogram(
                "segidx_concurrent_commit_latency_nanos",
                &l,
                t.commit_latency.snapshot(),
            ));
        }));
    }
}

impl<const D: usize, E> std::fmt::Debug for IndexHandle<D, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexHandle")
            .field("epoch", &self.epoch())
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

/// The batch the writer has drained and not yet answered. Nothing else can
/// reach these tickets any more, so a writer that unwinds while holding them
/// (a panicking [`CommitHook`], a bug in an engine's `apply_*`) would leave
/// `FLUSH`, [`CommitTicket::wait`] and every connection waiting on one
/// parked forever. Dropped during a panic, this answers them — and whatever
/// is still queued — with [`CommitError::WriterExited`] and closes the
/// queue; dropped normally it does nothing.
struct Drained<'a, const D: usize, E> {
    shared: &'a Shared<D, E>,
    batch: Vec<QueueItem<D>>,
}

impl<const D: usize, E> Drained<'_, D, E> {
    fn tickets(&self) -> impl Iterator<Item = &Arc<TicketState>> {
        self.batch.iter().map(|item| match item {
            QueueItem::Op { ticket, .. } | QueueItem::Barrier(ticket) => ticket,
        })
    }

    /// Fails the batch and everything queued behind it; the writer is
    /// about to exit and nothing submitted can commit any more.
    fn fail(&self, err: &CommitError) {
        self.shared.queue.close();
        for ticket in self.tickets() {
            ticket.complete(Err(err.clone()));
        }
        self.shared.queue.fail_remaining(err);
    }
}

impl<const D: usize, E> Drop for Drained<'_, D, E> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.fail(&CommitError::WriterExited);
        }
    }
}

/// The single writer: drain → apply → checkpoint → publish → reclaim.
fn writer_loop<const D: usize, E: SnapshotEngine<D>>(
    shared: Arc<Shared<D, E>>,
    mut tree: E,
    disk: Option<Arc<DiskManager>>,
    max_batch: usize,
    mut hook: Option<CommitHook>,
    global: Option<GlobalLink<D, E>>,
) {
    loop {
        let (batch, closed) = shared.queue.drain(max_batch);
        if batch.is_empty() {
            if closed {
                return;
            }
            continue;
        }
        let drained = Drained {
            shared: &shared,
            batch,
        };
        let commit_start = Instant::now();
        // Each ticket keeps its own queue wait; the apply/checkpoint/
        // publish phases below are shared by the whole group commit.
        let mut queue_waits: Vec<u64> = Vec::with_capacity(drained.batch.len());
        let mut applied = 0usize;
        for item in &drained.batch {
            match item {
                QueueItem::Op { op, enqueued, .. } => {
                    let waited = enqueued.elapsed();
                    shared.telemetry.queue_wait.record_duration(waited);
                    match *op {
                        IndexOp::Insert { rect, record } => tree.apply_insert(rect, record),
                        IndexOp::Delete { rect, record } => {
                            tree.apply_delete(&rect, record);
                        }
                    }
                    applied += 1;
                    queue_waits.push(waited.as_nanos() as u64);
                }
                QueueItem::Barrier(_) => queue_waits.push(0),
            }
        }
        let apply_nanos = commit_start.elapsed().as_nanos() as u64;
        if applied == 0 {
            // Barrier-only batch: the published snapshot already covers
            // everything submitted before it.
            let receipt = Ok(CommitReceipt {
                epoch: shared.epochs.global(),
                durable_epoch: shared.published_durable_epoch(),
                ops_in_commit: 0,
            });
            for ticket in drained.tickets() {
                ticket.complete(receipt.clone());
            }
            continue;
        }
        let next_epoch = shared.epochs.global() + 1;
        if let Some(hook) = hook.as_mut() {
            hook(next_epoch);
        }
        let checkpoint_start = Instant::now();
        let durable_epoch = match &disk {
            Some(disk) => match tree.checkpoint(disk) {
                Ok(()) => Some(disk.epoch()),
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
        let fresh = Arc::new(SnapshotInner {
            epoch: next_epoch,
            durable_epoch,
            tree: tree.clone(),
        });
        let fresh_ptr = Arc::into_raw(Arc::clone(&fresh)) as *mut SnapshotInner<D, E>;
        let old = shared.published.swap(fresh_ptr, SeqCst);
        shared.epochs.advance(next_epoch);
        // Cross-shard visibility: install this shard's new snapshot into
        // the global epoch vector (one pointer swap over there) before
        // retiring the old one locally.
        if let Some(link) = &global {
            link.publisher.publish(link.shard, &fresh);
        }
        shared.retire(old);
        shared.reclaim();
        shared
            .telemetry
            .commit_latency
            .record_duration(commit_start.elapsed());
        shared.telemetry.commits.fetch_add(1, SeqCst);
        shared
            .telemetry
            .ops_applied
            .fetch_add(applied as u64, SeqCst);
        shared.emit(
            Event::new(EventKind::SnapshotPublished)
                .node(next_epoch)
                .detail(applied as u64),
        );
        let receipt = Ok(CommitReceipt {
            epoch: next_epoch,
            durable_epoch,
            ops_in_commit: applied,
        });
        let publish_nanos = publish_start.elapsed().as_nanos() as u64;
        for (ticket, queue_wait_nanos) in drained.tickets().zip(queue_waits) {
            ticket.set_phases(CommitPhases {
                queue_wait_nanos,
                apply_nanos,
                checkpoint_nanos,
                publish_nanos,
            });
            ticket.complete(receipt.clone());
        }
    }
}
