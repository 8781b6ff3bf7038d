//! A snapshot's lifetime is its reference count: any number of guards can
//! be alive at once, a replaced snapshot lives exactly as long as a guard
//! holds it, and the thread that drops the last reference frees it — no
//! slot table to fill up, no backlog waiting for the next commit. The
//! snapshot owns its tree, so dropping the snapshot drops the tree.

use segidx_concurrent::{ConcurrentIndex, IndexOp};
use segidx_core::{IndexConfig, RecordId, Tree};
use segidx_geom::Rect;

/// More than the 128 reservation slots `snapshot()` once spun on.
const GUARDS: usize = 300;

fn insert(id: u64) -> IndexOp<2> {
    IndexOp::Insert {
        rect: Rect::new([100.0, 400.0], [120.0, 410.0]),
        record: RecordId(id),
    }
}

#[test]
fn pinned_guards_keep_their_snapshot_and_nothing_else() {
    let index = ConcurrentIndex::builder(Tree::<2>::new(IndexConfig::srtree()))
        .start()
        .unwrap();
    let pinned: Vec<_> = (0..GUARDS).map(|_| index.snapshot()).collect();
    for commit in 1..=10u64 {
        // A ticket completes after its commit dropped what it replaced:
        // only the pinned epoch 0 is retired and alive, whatever the
        // epochs between it and the current one.
        let receipt = index.submit(insert(commit)).unwrap().wait().unwrap();
        assert_eq!(receipt.epoch, commit);
        assert_eq!(index.retired_snapshots(), 1, "pinned epoch 0");
    }
    assert!(pinned.iter().all(|g| (g.epoch(), g.len()) == (0, 0)));
    let fresh = index.snapshot();
    assert_eq!((fresh.epoch(), fresh.len()), (10, 10));
    // The writer is idle: this thread frees epoch 0, here.
    drop(pinned);
    assert_eq!(index.retired_snapshots(), 0);
}
