//! The engine abstraction behind the concurrent index service.
//!
//! [`ConcurrentIndex`](crate::ConcurrentIndex) publishes immutable
//! snapshots of a copy-on-write structure and applies mutations on a
//! single writer thread.
//! Nothing in that machinery is specific to the paper's [`Tree`]: any
//! engine that clones cheaply (structural sharing) and answers the read
//! surface can serve. [`SnapshotEngine`] captures that contract. [`Tree`]
//! is the one engine served today (the four paper variants are four
//! configurations of it); the trait stays because the temporal tier is to
//! ride the same service (ROADMAP item 3).
//!
//! [`checkpoint`](SnapshotEngine::checkpoint) writes the engine to a
//! [`DiskManager`] before a snapshot is published; `Tree` checkpoints via
//! [`persist::commit`].

use segidx_core::persist;
use segidx_core::tree::{Neighbor, Tree};
use segidx_core::RecordId;
use segidx_geom::{Point, Rect};
use segidx_storage::{DiskManager, StorageError};

/// A copy-on-write index engine servable by the concurrent snapshot
/// machinery.
///
/// `Clone` must be cheap and structurally sharing: the writer clones its
/// private engine once per group commit to publish a frozen snapshot, and
/// readers run every query against such clones. `Send + Sync` let the
/// snapshot cross threads and serve concurrent readers.
pub trait SnapshotEngine<const D: usize>: Clone + Send + Sync + 'static {
    /// Applies one insert on the writer's private engine.
    fn apply_insert(&mut self, rect: Rect<D>, record: RecordId);

    /// Applies one delete on the writer's private engine.
    fn apply_delete(&mut self, rect: &Rect<D>, record: RecordId) -> bool;

    /// Number of logical records.
    fn len(&self) -> usize;

    /// Whether the engine is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All records intersecting `query`, deduplicated and sorted by id.
    fn search(&self, query: &Rect<D>) -> Vec<RecordId>;

    /// All records containing `p`, deduplicated and sorted by id.
    fn stab(&self, p: &Point<D>) -> Vec<RecordId>;

    /// The `k` records nearest to `p`, ascending by distance.
    fn nearest(&self, p: &Point<D>, k: usize) -> Vec<Neighbor<D>>;

    /// Runs many searches on this snapshot, serially, in input order —
    /// how the server answers a run of consecutive reads in a burst.
    /// Engines override to reuse per-call scratch state.
    fn search_batch(&self, queries: &[Rect<D>]) -> Vec<Vec<RecordId>> {
        queries.iter().map(|q| self.search(q)).collect()
    }

    /// Runs many stabs on this snapshot, serially, in input order.
    fn stab_batch(&self, points: &[Point<D>]) -> Vec<Vec<RecordId>> {
        points.iter().map(|p| self.stab(p)).collect()
    }

    /// Writes the engine durably to `disk` (called before the snapshot of
    /// this state is published).
    fn checkpoint(&self, disk: &DiskManager) -> Result<(), StorageError>;

    /// Structural invariant check (empty = consistent).
    fn check_invariants(&self) -> Vec<String>;
}

impl<const D: usize> SnapshotEngine<D> for Tree<D> {
    fn apply_insert(&mut self, rect: Rect<D>, record: RecordId) {
        self.insert(rect, record);
    }

    fn apply_delete(&mut self, rect: &Rect<D>, record: RecordId) -> bool {
        self.delete(rect, record)
    }

    fn len(&self) -> usize {
        Tree::len(self)
    }

    fn search(&self, query: &Rect<D>) -> Vec<RecordId> {
        Tree::search(self, query)
    }

    fn stab(&self, p: &Point<D>) -> Vec<RecordId> {
        Tree::stab(self, p)
    }

    fn nearest(&self, p: &Point<D>, k: usize) -> Vec<Neighbor<D>> {
        Tree::nearest(self, p, k)
    }

    fn search_batch(&self, queries: &[Rect<D>]) -> Vec<Vec<RecordId>> {
        Tree::search_batch(self, queries)
    }

    fn stab_batch(&self, points: &[Point<D>]) -> Vec<Vec<RecordId>> {
        Tree::stab_batch(self, points)
    }

    fn checkpoint(&self, disk: &DiskManager) -> Result<(), StorageError> {
        persist::commit(self, disk).map(|_| ())
    }

    fn check_invariants(&self) -> Vec<String> {
        Tree::check_invariants(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segidx_core::IndexConfig;

    #[test]
    fn tree_satisfies_the_engine_contract() {
        let mut engine = Tree::<2>::new(IndexConfig::srtree());
        for i in 0..300u64 {
            let x = (i * 37 % 900) as f64;
            engine.apply_insert(Rect::new([x, x], [x + 20.0, x]), RecordId(i));
        }
        let snap = engine.clone();
        assert_eq!(snap.len(), 300);
        let q = Rect::new([100.0, 0.0], [200.0, 900.0]);
        assert_eq!(snap.search_batch(&[q]), vec![snap.search(&q)]);
        let p = Point::new([150.0, 150.0]);
        assert_eq!(snap.stab_batch(&[p]), vec![snap.stab(&p)]);
        assert!(!snap.nearest(&p, 3).is_empty());
        assert!(snap.check_invariants().is_empty());
        // Mutations after the clone do not leak into the snapshot.
        engine.apply_delete(&Rect::new([0.0, 0.0], [20.0, 0.0]), RecordId(0));
        assert_eq!(snap.len(), 300);
        assert_eq!(engine.len(), 299);
    }
}
