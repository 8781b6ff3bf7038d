//! A snapshot's lifetime is its reference count: any number of guards can
//! be alive at once, a replaced snapshot lives exactly as long as a guard
//! holds it, and the thread that drops the last reference frees it — no
//! slot table to fill up, no backlog waiting for the next commit.

use segidx_concurrent::{ConcurrentIndex, IndexOp};
use segidx_core::{IntervalIndex, RecordId, StatsSnapshot};
use segidx_geom::{Point, Rect};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

/// More than the 128 reservation slots `snapshot()` once spun on.
const GUARDS: usize = 300;

fn insert(id: u64) -> IndexOp<2> {
    IndexOp::Insert {
        rect: Rect::new([100.0, 400.0], [120.0, 410.0]),
        record: RecordId(id),
    }
}

/// An engine that counts its live clones: the writer's private copy plus
/// one per snapshot not yet dropped.
struct Counted {
    len: usize,
    live: Arc<AtomicUsize>,
}

impl Counted {
    fn new(len: usize, live: &Arc<AtomicUsize>) -> Self {
        live.fetch_add(1, SeqCst);
        Self {
            len,
            live: Arc::clone(live),
        }
    }
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        Self::new(self.len, &self.live)
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.live.fetch_sub(1, SeqCst);
    }
}

/// Indexes nothing: only `len` and the clone count are observed.
impl IntervalIndex<2> for Counted {
    fn insert(&mut self, _: Rect<2>, _: RecordId) {
        self.len += 1;
    }
    fn delete(&mut self, _: &Rect<2>, _: RecordId) -> bool {
        self.len -= 1;
        true
    }
    fn search(&self, _: &Rect<2>) -> Vec<RecordId> {
        Vec::new()
    }
    fn stab(&self, _: &Point<2>) -> Vec<RecordId> {
        Vec::new()
    }
    fn count_search_accesses(&self, _: &Rect<2>) -> u64 {
        0
    }
    fn len(&self) -> usize {
        self.len
    }
    fn entry_count(&self) -> usize {
        self.len
    }
    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::default()
    }
    fn node_count(&self) -> usize {
        0
    }
    fn height(&self) -> u32 {
        0
    }
    fn check_invariants(&self) -> Vec<String> {
        Vec::new()
    }
    fn variant_name(&self) -> &'static str {
        "counted"
    }
}

#[test]
fn pinned_guards_keep_their_snapshot_and_nothing_else() {
    let live = Arc::new(AtomicUsize::new(0));
    let snapshots = || live.load(SeqCst) - 1; // minus the writer's copy
    let index = ConcurrentIndex::builder(Counted::new(0, &live))
        .start()
        .unwrap();
    let pinned: Vec<_> = (0..GUARDS).map(|_| index.snapshot()).collect();
    for commit in 1..=10u64 {
        // A ticket completes after its commit dropped what it replaced.
        let receipt = index.submit(insert(commit)).unwrap().wait().unwrap();
        assert_eq!(receipt.epoch, commit);
        assert_eq!(snapshots(), 2, "pinned epoch 0 + current {commit}");
        assert_eq!(index.retired_snapshots(), 1);
    }
    assert!(pinned.iter().all(|g| (g.epoch(), g.len()) == (0, 0)));
    let fresh = index.snapshot();
    assert_eq!((fresh.epoch(), fresh.len()), (10, 10));
    // The writer is idle: this thread frees epoch 0, here.
    drop(pinned);
    assert_eq!(snapshots(), 1);
    assert_eq!(index.retired_snapshots(), 0);
}
