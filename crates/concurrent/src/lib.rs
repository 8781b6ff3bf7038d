//! Concurrent index service for segment indexes.
//!
//! The paper's index variants (`segidx-core`) are single-threaded data
//! structures: mutation requires `&mut`. This crate turns any of them — a
//! `Tree` of any of the four configurations — into a shared service with
//! two properties the single-threaded API cannot offer:
//!
//! * **Readers never see partial mutations and never wait on the
//!   writer's work.** Reads run against an immutable published *snapshot*
//!   held as an `Arc`: pinning is one `Arc::clone` under a mutex that is
//!   only ever held for a pointer clone or swap, any number of guards can
//!   be alive at once, and whoever drops the last reference frees the
//!   snapshot. The snapshot itself is a copy-on-write clone of the
//!   [`Tree`](segidx_core::tree::Tree) that shares all untouched nodes with
//!   its predecessor.
//! * **Writes are batched into group commits with admission control.**
//!   A single writer thread drains a bounded submission queue; a full
//!   queue rejects new work immediately with the typed
//!   [`SubmitError::Overloaded`] instead of blocking the submitter. When
//!   the tree is served over a `DiskManager`, every group commit is
//!   checkpointed through `persist::commit` *before* its snapshot is
//!   published, so the published epoch chain maps 1:1 onto the durable
//!   checkpoint chain — a crash recovers exactly the last epoch any reader
//!   could have observed.
//!
//! Start from a tree's current contents ([`ConcurrentIndex::builder`]).
//! The service has one surface, [`IndexHandle`]:
//! `snapshot`, `submit`, `submit_batch`, `flush`, `epoch`,
//! `retired_snapshots` and `register_metrics`. The [`ConcurrentIndex`]
//! that `start` returns is its owner — it holds the writer thread, stops
//! it on `shutdown` or drop, and dereferences to its handle — and
//! [`ConcurrentIndex::handle`] clones the handle for other threads:
//!
//! ```
//! use segidx_concurrent::{ConcurrentIndex, IndexOp};
//! use segidx_core::tree::Tree;
//! use segidx_core::{IndexConfig, RecordId};
//! use segidx_geom::Rect;
//!
//! let index = ConcurrentIndex::builder(Tree::<2>::new(IndexConfig::srtree()))
//!     .queue_capacity(256)
//!     .max_batch(32)
//!     .start()
//!     .unwrap();
//!
//! let handle = index.handle();
//! let reader = std::thread::spawn(move || {
//!     let snap = handle.snapshot(); // one Arc clone
//!     snap.search(&Rect::new([0.0, 0.0], [100.0, 100.0])).len()
//! });
//!
//! index
//!     .submit(IndexOp::Insert {
//!         rect: Rect::new([1.0, 1.0], [50.0, 2.0]),
//!         record: RecordId(42),
//!     })
//!     .unwrap()
//!     .wait()
//!     .unwrap();
//! reader.join().unwrap();
//! assert_eq!(index.snapshot().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

mod index;
mod queue;

pub use index::{
    Builder, CommitHook, ConcurrentIndex, IndexHandle, SnapshotGuard, COMMIT_LATENCY_NANOS,
    METRICS, QUEUE_WAIT_NANOS,
};
pub use queue::{CommitError, CommitPhases, CommitReceipt, CommitTicket, IndexOp, SubmitError};

#[cfg(test)]
mod tests {
    use super::*;
    use segidx_core::tree::Tree;
    use segidx_core::{IndexConfig, RecordId};
    use segidx_geom::Rect;
    use segidx_obs::{MetricValue, MetricsRegistry};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn rect(i: u64) -> Rect<2> {
        let x = ((i * 37) % 2_000) as f64;
        let y = ((i * 113) % 2_000) as f64;
        let len = if i % 7 == 0 { 600.0 } else { 20.0 };
        Rect::new([x, y], [x + len, y + 1.0])
    }

    /// `segidx_concurrent_overloads_total` as the index exports it.
    fn exported_overloads(index: &ConcurrentIndex<2>) -> u64 {
        let family = METRICS
            .iter()
            .find(|f| f.name.ends_with("_overloads_total"))
            .unwrap();
        let registry = MetricsRegistry::new();
        index.register_metrics(&registry);
        let snap = registry.snapshot();
        let exported = snap.metrics.iter().find(|m| m.name == family.name);
        match exported.map(|m| &m.value) {
            Some(MetricValue::Counter(n)) => *n,
            other => panic!("{}: {other:?}", family.name),
        }
    }

    fn start_empty() -> ConcurrentIndex<2> {
        ConcurrentIndex::builder(Tree::new(IndexConfig::srtree()))
            .start()
            .unwrap()
    }

    #[test]
    fn inserts_become_visible_at_ticket_epoch() {
        let index = start_empty();
        for i in 0..500u64 {
            index
                .submit(IndexOp::Insert {
                    rect: rect(i),
                    record: RecordId(i),
                })
                .unwrap();
        }
        let receipt = index.flush().unwrap();
        assert!(receipt.epoch >= 1);
        let snap = index.snapshot();
        assert!(snap.epoch() >= receipt.epoch);
        assert_eq!(snap.len(), 500);
        snap.assert_invariants();
    }

    #[test]
    fn ticket_wait_returns_commit_epoch() {
        let index = start_empty();
        let t = index
            .submit(IndexOp::Insert {
                rect: rect(1),
                record: RecordId(1),
            })
            .unwrap();
        let receipt = t.wait().unwrap();
        assert!(receipt.epoch >= 1);
        assert!(receipt.ops_in_commit >= 1);
        assert_eq!(receipt.durable_epoch, None, "memory-only index");
        // The snapshot at (or after) the receipt's epoch sees the insert.
        let snap = index.snapshot();
        assert!(snap.epoch() >= receipt.epoch);
        assert_eq!(snap.len(), 1);
    }

    #[test]
    fn deletes_apply_in_submission_order() {
        let index = start_empty();
        for i in 0..100u64 {
            index
                .submit(IndexOp::Insert {
                    rect: rect(i),
                    record: RecordId(i),
                })
                .unwrap();
        }
        for i in 0..50u64 {
            index
                .submit(IndexOp::Delete {
                    rect: rect(i),
                    record: RecordId(i),
                })
                .unwrap();
        }
        index.flush().unwrap();
        let snap = index.snapshot();
        assert_eq!(snap.len(), 50);
        snap.assert_invariants();
    }

    #[test]
    fn overload_rejection_is_typed_and_counted() {
        // A hook that blocks the writer keeps the queue full deterministically.
        let release = Arc::new(AtomicBool::new(false));
        let entered = Arc::new(AtomicBool::new(false));
        let (released, in_hook) = (Arc::clone(&release), Arc::clone(&entered));
        let index = ConcurrentIndex::builder(Tree::<2>::new(IndexConfig::rtree()))
            .queue_capacity(4)
            .max_batch(1)
            .commit_hook(Box::new(move |_| {
                in_hook.store(true, Ordering::SeqCst);
                while !released.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }))
            .start()
            .unwrap();
        // Declared after `index`, so dropped before it: a failed assert
        // below unblocks the writer instead of hanging the index's drop.
        struct OpenOnDrop(Arc<AtomicBool>);
        impl Drop for OpenOnDrop {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let gate = OpenOnDrop(release);
        let insert = |i: u64| IndexOp::Insert {
            rect: rect(i),
            record: RecordId(i),
        };
        // One op occupies the writer (blocked in the hook, so nothing more
        // drains); then fill the queue.
        index.submit(insert(0)).unwrap();
        while !entered.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let mut overloaded = false;
        for i in 1..64u64 {
            match index.submit(insert(i)) {
                Ok(_) => {}
                Err(SubmitError::Overloaded { depth }) => {
                    assert_eq!(depth, 4);
                    overloaded = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(
            overloaded,
            "bounded queue must reject under a stalled writer"
        );
        assert_eq!(exported_overloads(&index), 1);
        // The batch path (the only one the server uses) rejects every op of
        // a batch into the full queue, and counts each one.
        let batch = index.submit_batch((100..105).map(insert).collect());
        assert_eq!(batch.len(), 5);
        for r in &batch {
            assert!(matches!(r, Err(SubmitError::Overloaded { depth: 4 })));
        }
        assert_eq!(exported_overloads(&index), 1 + 5);
        drop(gate);
        index.flush().unwrap();
    }

    #[test]
    fn a_writer_that_dies_mid_commit_answers_instead_of_hanging() {
        // Regression: a writer that panicked after `drain` dropped its
        // batch's tickets un-completed, so their waiters — and `flush` —
        // parked forever. Bounded waits throughout: a hang is a failure.
        let wait = std::time::Duration::from_secs(10);
        let index = ConcurrentIndex::builder(Tree::<2>::new(IndexConfig::srtree()))
            .commit_hook(Box::new(|epoch| {
                assert!(epoch < 2, "commit hook failure injected by the test");
            }))
            .start()
            .unwrap();
        let insert = |i: u64| IndexOp::Insert {
            rect: rect(i),
            record: RecordId(i),
        };
        let first = index.submit(insert(0)).unwrap();
        assert_eq!(
            first.wait_timeout(wait).map(|r| r.map(|r| r.epoch)),
            Some(Ok(1))
        );

        let doomed = index.submit(insert(1)).unwrap();
        assert_eq!(
            doomed.wait_timeout(wait),
            Some(Err(CommitError::WriterExited)),
            "the dying writer answered the batch it had drained"
        );
        // The queue closed behind it: nothing is admitted to wait on a
        // writer that is gone, and a flush says so instead of parking.
        assert_eq!(index.submit(insert(2)).unwrap_err(), SubmitError::Closed);
        assert_eq!(index.flush(), Err(CommitError::WriterExited));
        // Readers never needed the writer.
        let snap = index.snapshot();
        assert_eq!((snap.epoch(), snap.len()), (1, 1));
    }

    #[test]
    fn batch_submission_commits_in_order() {
        let index = start_empty();
        let ops: Vec<IndexOp<2>> = (0..64u64)
            .map(|i| IndexOp::Insert {
                rect: rect(i),
                record: RecordId(i),
            })
            .collect();
        let results = index.submit_batch(ops);
        assert_eq!(results.len(), 64);
        // Epochs across the batch's tickets are monotone in input order.
        let mut last = 0;
        for r in results {
            let ticket = r.expect("queue capacity 1024 admits the whole batch");
            let epoch = ticket.wait().unwrap().epoch;
            assert!(epoch >= last);
            last = epoch;
            assert_eq!(ticket.try_receipt().unwrap().unwrap().epoch, epoch);
        }
        assert!(index.snapshot().epoch() >= last);
        assert_eq!(index.snapshot().len(), 64);
    }

    /// A handle outlives its owner: after `shutdown()` — or a drop — every
    /// submission is refused typed, a flush says the writer is gone, and
    /// reads keep serving the last published snapshot.
    #[test]
    fn a_handle_that_outlives_its_owner_is_closed_but_still_reads() {
        let insert = |i: u64| IndexOp::Insert {
            rect: rect(i),
            record: RecordId(i),
        };
        for explicit in [true, false] {
            let index = start_empty();
            let handle = index.handle();
            let pinned = handle.snapshot();
            index.submit(insert(1)).unwrap();
            if explicit {
                index.shutdown();
            } else {
                drop(index);
            }
            assert_eq!(handle.submit(insert(2)).unwrap_err(), SubmitError::Closed);
            let batch = handle.submit_batch((3..6).map(insert).collect());
            assert_eq!(batch.len(), 3);
            assert!(batch
                .iter()
                .all(|r| r.as_ref().unwrap_err() == &SubmitError::Closed));
            assert_eq!(handle.flush(), Err(CommitError::WriterExited));
            // Graceful shutdown committed the queued insert; reads still
            // serve it, and the snapshot pinned before it is now retired.
            let snap = handle.snapshot();
            assert_eq!((snap.epoch(), snap.len(), handle.epoch()), (1, 1, 1));
            assert_eq!((pinned.epoch(), handle.retired_snapshots()), (0, 1));
            drop(pinned);
            assert_eq!(handle.retired_snapshots(), 0);
        }
    }

    #[test]
    fn concurrent_readers_and_writer_smoke() {
        let index = Arc::new(start_empty());
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let handle = index.handle();
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut last_epoch = 0;
                let mut max_len = 0;
                while !stop.load(Ordering::Relaxed) {
                    let snap = handle.snapshot();
                    assert!(snap.epoch() >= last_epoch, "epochs are monotone per reader");
                    last_epoch = snap.epoch();
                    let n = snap.len();
                    assert!(n >= max_len, "insert-only stream: len never shrinks");
                    max_len = n;
                    let _ = snap.search(&Rect::new([0.0, 0.0], [500.0, 500.0]));
                }
            }));
        }
        for i in 0..2_000u64 {
            loop {
                match index.submit(IndexOp::Insert {
                    rect: rect(i),
                    record: RecordId(i),
                }) {
                    Ok(_) => break,
                    Err(SubmitError::Overloaded { .. }) => std::thread::yield_now(),
                    Err(e) => panic!("unexpected {e}"),
                }
            }
        }
        index.flush().unwrap();
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        let snap = index.snapshot();
        assert_eq!(snap.len(), 2_000);
        snap.assert_invariants();
    }
}
