//! The bounded submission queue between front-end threads and the single
//! writer, plus the ticket machinery that reports each operation's group
//! commit back to its submitter.
//!
//! Admission control happens here: the queue holds at most `capacity`
//! operations, and a submit against a full queue is rejected *immediately*
//! with the typed [`SubmitError::Overloaded`] — callers never block on a
//! slow writer, they get backpressure they can act on (shed load, retry
//! with jitter, fail the request upstream). Flush barriers bypass the
//! capacity check because they carry no work, only a rendezvous.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use segidx_core::RecordId;
use segidx_geom::Rect;
use segidx_obs::trace::{self, Dim};

/// One mutation submitted to a concurrent index.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IndexOp<const D: usize> {
    /// Insert `record` with bounding rectangle `rect`.
    Insert {
        /// The record's bounding rectangle.
        rect: Rect<D>,
        /// The record id to insert.
        record: RecordId,
    },
    /// Delete the record matching `rect`/`record` exactly.
    Delete {
        /// The rectangle the record was inserted with.
        rect: Rect<D>,
        /// The record id to delete.
        record: RecordId,
    },
}

/// Why a submission was rejected without being enqueued.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The submission queue is full: the writer is behind. The operation
    /// was **not** enqueued; `depth` is the queue depth at rejection.
    Overloaded {
        /// Operations queued when the rejection happened.
        depth: usize,
    },
    /// The index has shut down (or its writer died on a storage error);
    /// no further submissions are accepted.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded { depth } => {
                write!(f, "submission queue full ({depth} operations pending)")
            }
            SubmitError::Closed => write!(f, "index is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a submitted operation's group commit failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommitError {
    /// The durable checkpoint of the group commit failed; the message is
    /// the underlying storage error. The operation is **not** durable and
    /// **not** published, and the writer has stopped.
    Storage(String),
    /// The writer exited before this operation's group commit ran.
    WriterExited,
}

impl std::fmt::Display for CommitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitError::Storage(msg) => write!(f, "group commit failed: {msg}"),
            CommitError::WriterExited => write!(f, "writer exited before commit"),
        }
    }
}

impl std::error::Error for CommitError {}

/// Proof of a completed group commit, returned through a [`CommitTicket`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitReceipt {
    /// The snapshot epoch this operation became visible in. Every read
    /// pinned at this epoch or later observes the operation.
    pub epoch: u64,
    /// The storage meta-commit epoch the group commit was checkpointed
    /// under, `None` for a memory-only index. After a crash, the recovered
    /// disk reports exactly the epoch of the last durable group commit.
    pub durable_epoch: Option<u64>,
    /// Total operations in the group commit (≥ 1 unless this receipt
    /// answered a flush barrier on an idle index).
    pub ops_in_commit: usize,
}

/// Where the wall-clock time of one committed operation went, measured on
/// the writer thread and reported back through the operation's ticket.
///
/// `queue_wait_nanos` is per operation (submission → drain); the other
/// three phases are properties of the whole group commit the operation
/// rode in. A waiter that is part of an active trace turns these into
/// synthetic child spans, so a slow commit shows *which* phase was slow —
/// queued behind a backlog, applying a big batch, fsyncing a checkpoint,
/// or publishing/reclaiming snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommitPhases {
    /// Time this operation spent queued before its batch was drained.
    pub queue_wait_nanos: u64,
    /// Time the writer spent applying the batch to its private tree.
    pub apply_nanos: u64,
    /// Time spent in the durable checkpoint (0 for memory-only indexes).
    pub checkpoint_nanos: u64,
    /// Time spent publishing the snapshot, retiring and reclaiming old
    /// ones, and completing tickets' bookkeeping.
    pub publish_nanos: u64,
}

impl CommitPhases {
    /// Sum of all phases.
    pub fn total_nanos(&self) -> u64 {
        self.queue_wait_nanos + self.apply_nanos + self.checkpoint_nanos + self.publish_nanos
    }
}

/// The lock, poisoned or not. Every connection thread and the writer share
/// this crate's mutexes, and each critical section — the queue's and the
/// tickets' below, the published snapshot's in `index.rs` — moves its
/// fields together and cannot panic part-way, so a thread that died holding
/// one left nothing half-written: recover the guard rather than take every
/// other submitter, reader — or the writer — down with it.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a ticket resolves to: the commit's outcome, plus the phases of the
/// group commit that published it (none for a failure or an idle flush).
type Outcome = (Result<CommitReceipt, CommitError>, Option<CommitPhases>);

/// Shared completion state behind a [`CommitTicket`].
#[derive(Debug, Default)]
pub(crate) struct TicketState {
    /// Set once. The phases ride beside the receipt rather than in it so
    /// [`CommitReceipt`] stays a pure value type (tests compare receipts
    /// with `Eq`).
    outcome: Mutex<Option<Outcome>>,
    done: Condvar,
}

impl TicketState {
    /// Resolves the ticket; the first outcome wins, later ones are ignored.
    pub(crate) fn complete(
        &self,
        result: Result<CommitReceipt, CommitError>,
        phases: Option<CommitPhases>,
    ) {
        let mut slot = lock(&self.outcome);
        if slot.is_none() {
            *slot = Some((result, phases));
            self.done.notify_all();
        }
    }

    /// The result, once known, waiting at most `timeout` for it (`None`,
    /// or a deadline no `Instant` can represent, waits untimed). The
    /// deadline is absolute, so a spurious wakeup re-waits only for what
    /// is left of it, never the whole timeout again.
    fn wait(&self, timeout: Option<Duration>) -> Option<Result<CommitReceipt, CommitError>> {
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let mut slot = lock(&self.outcome);
        loop {
            if let Some((result, _)) = slot.as_ref() {
                return Some(result.clone());
            }
            slot = match deadline {
                None => self.done.wait(slot).unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return None;
                    }
                    let waited = self.done.wait_timeout(slot, remaining);
                    waited.unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
    }
}

/// A handle to one submitted operation's (future) group commit.
///
/// Submission is asynchronous: `submit` returns as soon as the operation is
/// enqueued. The ticket tells the caller *when* and *at which epoch* the
/// operation committed — or why it never will.
#[derive(Clone, Debug)]
pub struct CommitTicket {
    state: Arc<TicketState>,
}

impl CommitTicket {
    /// Blocks until the operation's group commit completes (or fails).
    ///
    /// If the calling thread is inside an active trace, the wait is
    /// recorded as a `commit.wait` span whose children are the commit's
    /// phase breakdown (queue wait, apply, checkpoint, publish) measured
    /// on the writer thread.
    pub fn wait(&self) -> Result<CommitReceipt, CommitError> {
        self.wait_for(None)
            .expect("an untimed wait ends with the outcome")
    }

    /// Blocks for at most `timeout`, returning `None` if the commit is
    /// still pending when it elapses. The ticket stays valid: callers can
    /// keep polling or fall back to [`wait`](Self::wait). This is how
    /// harnesses avoid parking forever on a dead writer — bound the
    /// wait, then inspect the index instead of hanging.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<CommitReceipt, CommitError>> {
        self.wait_for(Some(timeout))
    }

    /// The commit outcome if it is already known, without blocking.
    pub fn try_receipt(&self) -> Option<Result<CommitReceipt, CommitError>> {
        lock(&self.state.outcome).as_ref().map(|(r, _)| r.clone())
    }

    /// The commit's phase breakdown, if the writer has completed it.
    pub fn phases(&self) -> Option<CommitPhases> {
        lock(&self.state.outcome).as_ref().and_then(|(_, p)| *p)
    }

    /// The one body of [`wait`](Self::wait) and
    /// [`wait_timeout`](Self::wait_timeout).
    fn wait_for(&self, timeout: Option<Duration>) -> Option<Result<CommitReceipt, CommitError>> {
        let sp = trace::span("commit.wait");
        let result = self.state.wait(timeout)?;
        if let Ok(receipt) = &result {
            sp.items(receipt.ops_in_commit as u64);
        }
        self.record_phases();
        Some(result)
    }

    /// Attributes the completed commit's phases to the active trace: one
    /// synthetic child span per non-empty phase (laid end-to-end so they
    /// finish "now", which is when the waiter observed completion) plus
    /// the matching profile counters.
    fn record_phases(&self) {
        let Some(now) = trace::now_nanos() else {
            return;
        };
        let Some(p) = self.phases() else { return };
        trace::add(Dim::QueueWaitNanos, p.queue_wait_nanos);
        trace::add(Dim::ApplyNanos, p.apply_nanos);
        trace::add(Dim::CheckpointNanos, p.checkpoint_nanos);
        trace::add(Dim::PublishNanos, p.publish_nanos);
        let mut t = now.saturating_sub(p.total_nanos());
        for (name, dur) in [
            ("commit.queue_wait", p.queue_wait_nanos),
            ("commit.apply", p.apply_nanos),
            ("commit.checkpoint", p.checkpoint_nanos),
            ("commit.publish", p.publish_nanos),
        ] {
            if dur > 0 {
                trace::record_interval(name, t, t.saturating_add(dur), 0);
            }
            t = t.saturating_add(dur);
        }
    }
}

/// One queued entry: an operation or a flush barrier.
pub(crate) enum QueueItem<const D: usize> {
    Op {
        op: IndexOp<D>,
        ticket: Arc<TicketState>,
        enqueued: Instant,
    },
    Barrier(Arc<TicketState>),
}

impl<const D: usize> QueueItem<D> {
    pub(crate) fn ticket(&self) -> &TicketState {
        match self {
            QueueItem::Op { ticket, .. } | QueueItem::Barrier(ticket) => ticket,
        }
    }
}

struct QueueInner<const D: usize> {
    items: VecDeque<QueueItem<D>>,
    /// Queued operations (barriers excluded) — the number admission control
    /// compares against capacity.
    ops: usize,
    closed: bool,
}

/// The bounded MPSC channel feeding the writer thread.
pub(crate) struct SubmissionQueue<const D: usize> {
    inner: Mutex<QueueInner<D>>,
    nonempty: Condvar,
    capacity: usize,
    /// Operations rejected as [`SubmitError::Overloaded`].
    pub(crate) overloads: AtomicU64,
}

impl<const D: usize> SubmissionQueue<D> {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                ops: 0,
                closed: false,
            }),
            nonempty: Condvar::new(),
            capacity: capacity.max(1),
            overloads: AtomicU64::new(0),
        }
    }

    /// Operations queued right now.
    pub(crate) fn depth(&self) -> usize {
        lock(&self.inner).ops
    }

    /// Enqueues a run of operations under **one** lock acquisition — the
    /// only way work enters the queue — applying admission control per
    /// operation: each op is either admitted (and gets its ticket) or
    /// rejected typed, and a rejection does not stop later ops in the run
    /// from being admitted. One condvar signal covers the whole run.
    pub(crate) fn push(&self, ops: Vec<IndexOp<D>>) -> Vec<Result<CommitTicket, SubmitError>> {
        let mut inner = lock(&self.inner);
        let (before, enqueued) = (inner.ops, Instant::now());
        let out = ops
            .into_iter()
            .map(|op| {
                if inner.closed {
                    return Err(SubmitError::Closed);
                }
                if inner.ops >= self.capacity {
                    self.overloads.fetch_add(1, SeqCst);
                    return Err(SubmitError::Overloaded { depth: inner.ops });
                }
                let state = Arc::new(TicketState::default());
                inner.items.push_back(QueueItem::Op {
                    op,
                    ticket: Arc::clone(&state),
                    enqueued,
                });
                inner.ops += 1;
                Ok(CommitTicket { state })
            })
            .collect();
        let admitted = inner.ops > before;
        drop(inner);
        if admitted {
            self.nonempty.notify_one();
        }
        out
    }

    /// Enqueues a flush barrier (not subject to the capacity limit).
    pub(crate) fn push_barrier(&self) -> Result<CommitTicket, SubmitError> {
        let mut inner = lock(&self.inner);
        if inner.closed {
            return Err(SubmitError::Closed);
        }
        let state = Arc::new(TicketState::default());
        inner
            .items
            .push_back(QueueItem::Barrier(Arc::clone(&state)));
        drop(inner);
        self.nonempty.notify_one();
        Ok(CommitTicket { state })
    }

    /// Writer side: blocks until work is available, then takes up to
    /// `max_batch` items. `None` means the queue drained after shutdown —
    /// exit.
    pub(crate) fn drain(&self, max_batch: usize) -> Option<Vec<QueueItem<D>>> {
        let mut inner = lock(&self.inner);
        loop {
            if !inner.items.is_empty() {
                let take = inner.items.len().min(max_batch.max(1));
                let batch: Vec<QueueItem<D>> = inner.items.drain(..take).collect();
                inner.ops -= batch
                    .iter()
                    .filter(|item| matches!(item, QueueItem::Op { .. }))
                    .count();
                return Some(batch);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .nonempty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: future submissions fail with [`SubmitError::Closed`];
    /// already-queued items still drain (graceful shutdown flushes).
    pub(crate) fn close(&self) {
        lock(&self.inner).closed = true;
        self.nonempty.notify_all();
    }

    /// Empties the queue, failing every pending ticket with `err`. Used on
    /// the writer's exit paths, where queued work can never commit.
    pub(crate) fn fail_remaining(&self, err: &CommitError) {
        let drained: Vec<QueueItem<D>> = {
            let mut inner = lock(&self.inner);
            inner.ops = 0;
            inner.items.drain(..).collect()
        };
        for item in drained {
            item.ticket().complete(Err(err.clone()), None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(i: u64) -> IndexOp<2> {
        IndexOp::Insert {
            rect: Rect::new([i as f64, 0.0], [i as f64 + 1.0, 1.0]),
            record: RecordId(i),
        }
    }

    fn push(q: &SubmissionQueue<2>, ids: std::ops::Range<u64>) -> Vec<CommitTicket> {
        q.push(ids.map(op).collect())
            .into_iter()
            .map(|r| r.expect("admitted"))
            .collect()
    }

    /// A ticket with no queue behind it, and its state to complete.
    fn ticket() -> (CommitTicket, Arc<TicketState>) {
        let state = Arc::new(TicketState::default());
        let ticket = CommitTicket {
            state: Arc::clone(&state),
        };
        (ticket, state)
    }

    fn receipt(epoch: u64, ops_in_commit: usize) -> CommitReceipt {
        CommitReceipt {
            epoch,
            durable_epoch: None,
            ops_in_commit,
        }
    }

    #[test]
    fn overload_is_typed_and_nondestructive() {
        let q: SubmissionQueue<2> = SubmissionQueue::new(2);
        push(&q, 0..2);
        assert_eq!(
            q.push(vec![op(2)]).pop().unwrap().unwrap_err(),
            SubmitError::Overloaded { depth: 2 }
        );
        assert_eq!(q.depth(), 2, "rejected op was not enqueued");
        assert_eq!(q.overloads.load(SeqCst), 1);
        // Barriers are exempt from capacity.
        q.push_barrier().unwrap();
        let batch = q.drain(16).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn drain_respects_batch_limit() {
        let q: SubmissionQueue<2> = SubmissionQueue::new(64);
        push(&q, 0..10);
        assert_eq!(q.drain(4).unwrap().len(), 4);
        assert_eq!(q.depth(), 6);
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let q: SubmissionQueue<2> = SubmissionQueue::new(8);
        push(&q, 0..1);
        q.close();
        assert_eq!(
            q.push(vec![op(1)]).pop().unwrap().unwrap_err(),
            SubmitError::Closed
        );
        assert_eq!(q.push_barrier().unwrap_err(), SubmitError::Closed);
        let batch = q.drain(16).expect("queued work survives close");
        assert_eq!(batch.len(), 1);
        assert!(q.drain(16).is_none());
    }

    #[test]
    fn tickets_complete_once() {
        let (ticket, state) = ticket();
        assert!(ticket.try_receipt().is_none());
        let phases = CommitPhases {
            apply_nanos: 5,
            ..CommitPhases::default()
        };
        state.complete(Ok(receipt(7, 3)), Some(phases));
        // Ignored: already done.
        state.complete(Err(CommitError::WriterExited), None);
        assert_eq!(ticket.wait(), Ok(receipt(7, 3)));
        assert_eq!(ticket.phases(), Some(phases));
    }

    #[test]
    fn wait_timeout_expires_without_consuming_the_ticket() {
        let (ticket, state) = ticket();
        assert_eq!(ticket.wait_timeout(Duration::from_millis(10)), None);
        // The timeout did not poison anything: a later completion is
        // observed by both polling styles.
        state.complete(Ok(receipt(1, 1)), None);
        assert_eq!(
            ticket.wait_timeout(Duration::from_millis(10)),
            Some(Ok(receipt(1, 1)))
        );
        assert_eq!(ticket.try_receipt(), Some(Ok(receipt(1, 1))));
        assert_eq!(ticket.phases(), None);
    }

    #[test]
    fn wait_timeout_wakes_on_completion() {
        let (ticket, state) = ticket();
        let waiter = std::thread::spawn(move || ticket.wait_timeout(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        state.complete(Ok(receipt(9, 2)), None);
        assert_eq!(waiter.join().unwrap(), Some(Ok(receipt(9, 2))));
    }

    /// Regression: spurious condvar wakeups near the deadline must not
    /// extend (or truncate) the wait. A hammer thread fires `notify_all`
    /// on the ticket's condvar in a tight loop *without completing it*;
    /// every wakeup re-enters the wait loop, which must recompute the
    /// remaining budget from the absolute deadline. Before the
    /// deadline-recomputation hardening, a wakeup storm could drift the
    /// effective deadline; this pins the observable contract: `None` is
    /// returned, and not meaningfully later than the requested timeout.
    #[test]
    fn wait_timeout_is_immune_to_spurious_wakeups_near_the_deadline() {
        let (ticket, state) = ticket();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let hammer = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(SeqCst) {
                    // Wake every waiter without resolving the ticket: to a
                    // waiter this is indistinguishable from a spurious
                    // condvar wakeup.
                    state.done.notify_all();
                    std::thread::yield_now();
                }
            })
        };
        let timeout = Duration::from_millis(60);
        let started = Instant::now();
        let result = ticket.wait_timeout(timeout);
        let waited = started.elapsed();
        stop.store(true, SeqCst);
        hammer.join().unwrap();
        assert_eq!(result, None, "ticket was never completed");
        assert!(
            waited >= timeout,
            "returned {waited:?} before the {timeout:?} deadline"
        );
        assert!(
            waited < timeout + Duration::from_secs(5),
            "wakeup storm drifted the deadline: waited {waited:?}"
        );
        // The ticket survived the storm: completion still resolves it.
        state.complete(Ok(receipt(3, 1)), None);
        assert!(matches!(ticket.try_receipt(), Some(Ok(_))));
    }

    /// `Duration::MAX` must not overflow the deadline computation — it
    /// degrades to an untimed wait that completion resolves.
    #[test]
    fn wait_timeout_with_unrepresentable_deadline_waits_untimed() {
        let (ticket, state) = ticket();
        let waiter = std::thread::spawn(move || ticket.wait_timeout(Duration::MAX));
        std::thread::sleep(Duration::from_millis(20));
        state.complete(Ok(receipt(1, 1)), None);
        assert_eq!(waiter.join().unwrap(), Some(Ok(receipt(1, 1))));
    }

    #[test]
    fn a_poisoned_queue_and_ticket_keep_working() {
        // Every connection thread and the writer share these two mutexes;
        // their lock sites were `.lock().unwrap()`, so one thread dying
        // under either made every later submit, drain, complete and wait
        // panic in turn.
        let q: Arc<SubmissionQueue<2>> = Arc::new(SubmissionQueue::new(8));
        let queued = push(&q, 0..3);
        let state = Arc::clone(&queued[2].state);
        let (held_q, held_t) = (Arc::clone(&q), Arc::clone(&state));
        let panicked = std::thread::spawn(move || {
            let _queue = held_q.inner.lock().unwrap();
            let _ticket = held_t.outcome.lock().unwrap();
            panic!("poisoning the queue and a ticket on purpose");
        })
        .join();
        assert!(panicked.is_err() && q.inner.is_poisoned() && state.outcome.is_poisoned());

        assert!(q.push((3..5).map(op).collect()).iter().all(Result::is_ok));
        q.push_barrier().unwrap();
        assert_eq!(q.depth(), 5);
        assert_eq!(q.drain(16).unwrap().len(), 6);

        let ticket = &queued[2];
        assert_eq!(ticket.wait_timeout(Duration::from_millis(10)), None);
        let waiting = ticket.clone();
        let waiter = std::thread::spawn(move || waiting.wait_timeout(Duration::from_secs(30)));
        state.complete(Ok(receipt(4, 3)), None);
        assert_eq!(waiter.join().unwrap(), Some(Ok(receipt(4, 3))));
        assert_eq!(ticket.wait(), Ok(receipt(4, 3)));
        assert_eq!(ticket.try_receipt(), Some(Ok(receipt(4, 3))));

        // The shutdown path goes through the same lock.
        let last = push(&q, 5..6);
        q.close();
        q.fail_remaining(&CommitError::WriterExited);
        assert_eq!(last[0].wait(), Err(CommitError::WriterExited));
        assert!(q.drain(16).is_none(), "closed and drained");
    }

    #[test]
    fn push_admits_per_op_under_one_lock() {
        let q: SubmissionQueue<2> = SubmissionQueue::new(2);
        let results = q.push((0..4).map(op).collect());
        assert_eq!(results.len(), 4);
        assert!(results[0].is_ok() && results[1].is_ok());
        for rejected in &results[2..] {
            assert_eq!(
                rejected.as_ref().unwrap_err(),
                &SubmitError::Overloaded { depth: 2 }
            );
        }
        assert_eq!(q.depth(), 2, "rejected ops were not enqueued");
        assert_eq!(q.overloads.load(SeqCst), 2);
        // Draining frees capacity for a later batch.
        assert_eq!(q.drain(16).unwrap().len(), 2);
        assert!(q.push(vec![op(0)]).pop().unwrap().is_ok());
    }

    #[test]
    fn fail_remaining_completes_all_tickets() {
        let q: SubmissionQueue<2> = SubmissionQueue::new(8);
        let op = push(&q, 0..1).remove(0);
        let barrier = q.push_barrier().unwrap();
        q.fail_remaining(&CommitError::WriterExited);
        assert_eq!(q.depth(), 0);
        for t in [op, barrier] {
            assert_eq!(t.wait(), Err(CommitError::WriterExited));
        }
    }
}
