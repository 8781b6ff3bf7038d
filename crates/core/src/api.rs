//! The one index interface, [`IntervalIndex`].
//!
//! The paper's four indexes are one structure under two switches — the
//! segment extensions (§3) and skeleton pre-construction (§4) — so each is
//! a [`Tree`] configuration, and distribution prediction adds one wrapper,
//! [`Skeleton`](crate::Skeleton):
//!
//! | Paper name | Construction |
//! |------------|--------------|
//! | R-Tree | `Tree::new(IndexConfig::rtree())` |
//! | SR-Tree | `Tree::new(IndexConfig::srtree())` |
//! | Skeleton R-Tree | `Skeleton::new(IndexConfig::skeleton_rtree(), ..)`, or [`build_skeleton`](crate::build_skeleton) from a known spec |
//! | Skeleton SR-Tree | the same with `IndexConfig::skeleton_srtree()` |
//!
//! The trait is object-safe, so the experiment harness sweeps
//! `&dyn IntervalIndex<2>`, and it is what the concurrent service in
//! `segidx-concurrent` hosts; that service asks `Clone + Send + Sync` of
//! its engine as bounds of its own, not as supertraits.

use crate::id::RecordId;
use crate::stats::StatsSnapshot;
use crate::tree::Tree;
use segidx_geom::{Point, Rect};

/// An index over `D`-dimensional interval data: the paper's four variants,
/// [`Tree`] and [`Skeleton`](crate::Skeleton).
pub trait IntervalIndex<const D: usize> {
    /// Inserts a record.
    fn insert(&mut self, rect: Rect<D>, record: RecordId);
    /// Removes a record by its original rectangle and id; `false` if no
    /// such record is indexed.
    fn delete(&mut self, rect: &Rect<D>, record: RecordId) -> bool;
    /// All records intersecting `query`, deduplicated and sorted by id.
    fn search(&self, query: &Rect<D>) -> Vec<RecordId>;
    /// Per-query results in input order, bit-identical to calling
    /// [`search`](Self::search) per query: the loop a served burst of reads
    /// runs. Trees reuse one cursor across the batch
    /// ([`Tree::search_batch`]).
    fn search_batch(&self, queries: &[Rect<D>]) -> Vec<Vec<RecordId>> {
        queries.iter().map(|q| self.search(q)).collect()
    }
    /// All records containing `p`, deduplicated and sorted by id — the
    /// degenerate window query.
    fn stab(&self, p: &Point<D>) -> Vec<RecordId>;
    /// Per-point results in input order, bit-identical to calling
    /// [`stab`](Self::stab) per point.
    fn stab_batch(&self, points: &[Point<D>]) -> Vec<Vec<RecordId>> {
        points.iter().map(|p| self.stab(p)).collect()
    }
    /// Index nodes a search for `query` accesses (the paper's metric).
    fn count_search_accesses(&self, query: &Rect<D>) -> u64;
    /// Number of logical records.
    fn len(&self) -> usize;
    /// Whether the index holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Number of physical index records (exceeds [`len`](Self::len) when
    /// records have been cut into portions).
    fn entry_count(&self) -> usize;
    /// Statistics snapshot, including the node-access counters.
    fn stats(&self) -> StatsSnapshot;
    /// Number of index nodes.
    fn node_count(&self) -> usize;
    /// Tree height.
    fn height(&self) -> u32;
    /// Structural invariant check (empty = consistent).
    fn check_invariants(&self) -> Vec<String>;
    /// The paper's name for the variant.
    fn variant_name(&self) -> &'static str;
}

impl<const D: usize> IntervalIndex<D> for Tree<D> {
    fn insert(&mut self, rect: Rect<D>, record: RecordId) {
        Tree::insert(self, rect, record);
    }
    fn delete(&mut self, rect: &Rect<D>, record: RecordId) -> bool {
        Tree::delete(self, rect, record)
    }
    fn search(&self, query: &Rect<D>) -> Vec<RecordId> {
        Tree::search(self, query)
    }
    fn search_batch(&self, queries: &[Rect<D>]) -> Vec<Vec<RecordId>> {
        Tree::search_batch(self, queries)
    }
    fn stab(&self, p: &Point<D>) -> Vec<RecordId> {
        Tree::stab(self, p)
    }
    fn stab_batch(&self, points: &[Point<D>]) -> Vec<Vec<RecordId>> {
        Tree::stab_batch(self, points)
    }
    fn count_search_accesses(&self, query: &Rect<D>) -> u64 {
        Tree::count_search_accesses(self, query)
    }
    fn len(&self) -> usize {
        Tree::len(self)
    }
    fn entry_count(&self) -> usize {
        Tree::entry_count(self)
    }
    fn stats(&self) -> StatsSnapshot {
        Tree::stats(self)
    }
    fn node_count(&self) -> usize {
        Tree::node_count(self)
    }
    fn height(&self) -> u32 {
        Tree::height(self)
    }
    fn check_invariants(&self) -> Vec<String> {
        Tree::check_invariants(self)
    }
    fn variant_name(&self) -> &'static str {
        self.config().variant_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexConfig, Skeleton};

    fn domain() -> Rect<2> {
        Rect::new([0.0, 0.0], [100_000.0, 100_000.0])
    }

    fn exercise(index: &mut dyn IntervalIndex<2>, n: u64) {
        for i in 0..n {
            let x = ((i * 37) % 90_000) as f64;
            let y = ((i * 113) % 90_000) as f64;
            let len = if i % 13 == 0 { 15_000.0 } else { 60.0 };
            index.insert(
                Rect::new([x, y], [(x + len).min(100_000.0), y]),
                RecordId(i),
            );
        }
    }

    #[test]
    fn all_variants_agree_on_results() {
        let mut variants: Vec<Box<dyn IntervalIndex<2>>> = vec![
            Box::new(Tree::<2>::new(IndexConfig::rtree())),
            Box::new(Tree::<2>::new(IndexConfig::srtree())),
            Box::new(Skeleton::<2>::new(
                IndexConfig::skeleton_rtree(),
                domain(),
                3_000,
                300,
            )),
            Box::new(Skeleton::<2>::new(
                IndexConfig::skeleton_srtree(),
                domain(),
                3_000,
                300,
            )),
        ];
        for v in variants.iter_mut() {
            exercise(v.as_mut(), 3_000);
            assert_eq!(v.len(), 3_000, "{}", v.variant_name());
            assert!(
                v.check_invariants().is_empty(),
                "{}: {:?}",
                v.variant_name(),
                v.check_invariants()
            );
        }
        let query = Rect::new([10_000.0, 10_000.0], [30_000.0, 40_000.0]);
        let expected = variants[0].search(&query);
        assert!(!expected.is_empty());
        for v in &variants[1..] {
            assert_eq!(
                v.search(&query),
                expected,
                "{} disagrees with R-Tree",
                v.variant_name()
            );
        }
    }

    #[test]
    fn variant_names_match_paper() {
        let name = |config: IndexConfig| Tree::<2>::new(config).variant_name();
        assert_eq!(name(IndexConfig::rtree()), "R-Tree");
        assert_eq!(name(IndexConfig::srtree()), "SR-Tree");
        assert_eq!(name(IndexConfig::skeleton_rtree()), "Skeleton R-Tree");
        assert_eq!(name(IndexConfig::skeleton_srtree()), "Skeleton SR-Tree");
        let buffering = Skeleton::<2>::new(IndexConfig::skeleton_srtree(), domain(), 10, 5);
        assert_eq!(buffering.variant_name(), "Skeleton SR-Tree");
    }
}
