//! Nearest-neighbor search (best-first traversal with `MINDIST` pruning).
//!
//! Not part of the 1991 paper, but standard R-Tree functionality a library
//! user expects. Works on every variant, including segment mode: spanning
//! index records are considered when their host node is expanded, and —
//! because a cut record's portions all carry the same [`RecordId`] — a
//! record is reported once, at the distance of its nearest portion.

use super::Tree;
use crate::id::RecordId;
use crate::node::NodeKind;
use segidx_geom::{scan_min_dist_sqr, Point, Rect};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A record returned by [`Tree::nearest`], with its distance to the query
/// point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor<const D: usize> {
    /// The record id.
    pub record: RecordId,
    /// The record's geometry (the nearest stored portion for cut records).
    pub rect: Rect<D>,
    /// Euclidean distance from the query point to the geometry.
    pub distance: f64,
}

/// Heap item ordered by ascending distance (min-heap via reversed cmp).
enum HeapItem<const D: usize> {
    Node {
        id: crate::id::NodeId,
        dist_sqr: f64,
    },
    Record {
        record: RecordId,
        rect: Rect<D>,
        dist_sqr: f64,
    },
}

impl<const D: usize> HeapItem<D> {
    fn dist_sqr(&self) -> f64 {
        match self {
            HeapItem::Node { dist_sqr, .. } | HeapItem::Record { dist_sqr, .. } => *dist_sqr,
        }
    }
}

impl<const D: usize> PartialEq for HeapItem<D> {
    fn eq(&self, other: &Self) -> bool {
        self.dist_sqr() == other.dist_sqr()
    }
}
impl<const D: usize> Eq for HeapItem<D> {}
impl<const D: usize> PartialOrd for HeapItem<D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize> Ord for HeapItem<D> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want nearest first.
        other.dist_sqr().total_cmp(&self.dist_sqr())
    }
}

impl<const D: usize> Tree<D> {
    /// The `k` records nearest to `p` (by Euclidean distance to their
    /// rectangles), nearest first. Ties are broken arbitrarily. Counts node
    /// accesses like a search.
    pub fn nearest(&self, p: &Point<D>, k: usize) -> Vec<Neighbor<D>> {
        let sp = segidx_obs::trace::span("tree.nearest");
        // `k` can come straight off the wire: size for what exists.
        let mut out: Vec<Neighbor<D>> = Vec::with_capacity(k.min(self.len()));
        if k == 0 {
            self.stats.flush_search(0, 0);
            return out;
        }
        // Node accesses accumulate locally and flush to the shared counters
        // once at the end, like the search kernel.
        let mut accesses: u64 = 0;
        let mut heap: BinaryHeap<HeapItem<D>> = BinaryHeap::new();
        heap.push(HeapItem::Node {
            id: self.root,
            dist_sqr: 0.0,
        });
        // Cut records surface multiple portions; report each id once (its
        // nearest portion pops first, so correctness is preserved).
        let mut reported: Vec<RecordId> = Vec::new();
        // Scratch for the per-node MINDIST kernel.
        let mut dists: Vec<f64> = Vec::new();

        while let Some(item) = heap.pop() {
            match item {
                HeapItem::Record {
                    record,
                    rect,
                    dist_sqr,
                } => {
                    if reported.contains(&record) {
                        continue;
                    }
                    reported.push(record);
                    out.push(Neighbor {
                        record,
                        rect,
                        distance: dist_sqr.sqrt(),
                    });
                    if out.len() == k {
                        break;
                    }
                }
                HeapItem::Node { id, .. } => {
                    accesses += 1;
                    let node = self.node(id);
                    segidx_obs::trace::level_visit(node.level, 1);
                    // Score the whole node with one branchless MINDIST pass
                    // over its coordinate planes, then gather.
                    match &node.kind {
                        NodeKind::Leaf { entries } => {
                            let (los, his) = entries.planes();
                            scan_min_dist_sqr(p, los, his, &mut dists);
                            for (i, &d) in dists.iter().enumerate() {
                                heap.push(HeapItem::Record {
                                    record: entries.record(i),
                                    rect: entries.rect(i),
                                    dist_sqr: d,
                                });
                            }
                        }
                        NodeKind::Internal { branches, spanning } => {
                            let (los, his) = spanning.planes();
                            scan_min_dist_sqr(p, los, his, &mut dists);
                            for (i, &d) in dists.iter().enumerate() {
                                heap.push(HeapItem::Record {
                                    record: spanning.record(i),
                                    rect: spanning.rect(i),
                                    dist_sqr: d,
                                });
                            }
                            let (los, his) = branches.planes();
                            scan_min_dist_sqr(p, los, his, &mut dists);
                            for (i, &d) in dists.iter().enumerate() {
                                let id = branches.child(i);
                                if d == 0.0 {
                                    self.arena.prefetch_header(id);
                                }
                                heap.push(HeapItem::Node { id, dist_sqr: d });
                            }
                            for (i, &d) in dists.iter().enumerate() {
                                if d == 0.0 {
                                    self.node(branches.child(i)).prefetch_contents();
                                }
                            }
                        }
                    }
                }
            }
        }
        self.stats.flush_search(accesses, out.len() as u64);
        sp.items(out.len() as u64);
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::config::IndexConfig;
    use crate::id::RecordId;
    use crate::tree::Tree;
    use segidx_geom::{Point, Rect};

    fn brute_nearest(
        records: &[(Rect<2>, RecordId)],
        p: &Point<2>,
        k: usize,
    ) -> Vec<(RecordId, f64)> {
        let mut v: Vec<(RecordId, f64)> =
            records.iter().map(|(r, id)| (*id, r.min_dist(p))).collect();
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        v.truncate(k);
        v
    }

    fn dataset(n: u64, long_every: u64) -> Vec<(Rect<2>, RecordId)> {
        (0..n)
            .map(|i| {
                let x = ((i * 137) % 10_000) as f64;
                let y = ((i * 59) % 10_000) as f64;
                let len = if long_every > 0 && i % long_every == 0 {
                    3_000.0
                } else {
                    10.0
                };
                (Rect::new([x, y], [x + len, y]), RecordId(i))
            })
            .collect()
    }

    #[test]
    fn nearest_matches_brute_force() {
        for config in [IndexConfig::rtree(), IndexConfig::srtree()] {
            let records = dataset(2_000, 9);
            let mut t: Tree<2> = Tree::new(config);
            for (r, id) in &records {
                t.insert(*r, *id);
            }
            for probe in [
                Point::new([0.0, 0.0]),
                Point::new([5_000.0, 5_000.0]),
                Point::new([9_999.0, 1.0]),
                Point::new([-500.0, 20_000.0]),
            ] {
                let got = t.nearest(&probe, 10);
                let want = brute_nearest(&records, &probe, 10);
                assert_eq!(got.len(), 10);
                for (g, (_, wd)) in got.iter().zip(want.iter()) {
                    // Distances must match exactly rank-by-rank (ids may
                    // differ under ties).
                    assert!(
                        (g.distance - wd).abs() < 1e-9,
                        "distance mismatch at {probe:?}: {} vs {}",
                        g.distance,
                        wd
                    );
                }
            }
        }
    }

    #[test]
    fn nearest_k_zero_and_oversized() {
        let records = dataset(50, 0);
        let mut t: Tree<2> = Tree::new(IndexConfig::rtree());
        for (r, id) in &records {
            t.insert(*r, *id);
        }
        assert!(t.nearest(&Point::origin(), 0).is_empty());
        let all = t.nearest(&Point::origin(), 500);
        assert_eq!(all.len(), 50, "k beyond size returns everything");
        // Sorted by distance.
        for w in all.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn nearest_reports_cut_records_once() {
        let mut t: Tree<2> = Tree::new(IndexConfig::srtree());
        // Row-aligned grid data plus long row-aligned segments, so the long
        // segments intersect (and span) existing node regions.
        let records: Vec<(Rect<2>, RecordId)> = (0..1_500u64)
            .map(|i| {
                let x = (i % 50) as f64 * 10.0;
                let y = (i / 50) as f64 * 10.0;
                let len = if i % 5 == 0 { 450.0 } else { 4.0 };
                (Rect::new([x, y], [x + len, y]), RecordId(i))
            })
            .collect();
        for (r, id) in &records {
            t.insert(*r, *id);
        }
        assert!(t.stats().spanning_stores > 0);
        let got = t.nearest(&Point::new([5_000.0, 5_000.0]), 100);
        let mut ids: Vec<_> = got.iter().map(|n| n.record).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), got.len(), "no duplicate ids in kNN result");
    }

    #[test]
    fn heap_order_is_total_with_nan_distances() {
        // `partial_cmp(..).unwrap_or(Equal)` made NaN equal to everything
        // while 0.5 < 2.0 still held — not an order, so the heap could pop
        // finite distances out of sequence. `total_cmp` sorts NaN last.
        use super::HeapItem;
        use std::collections::BinaryHeap;
        let dists = [2.0, f64::NAN, 0.5, 8.0, f64::NAN, 1.0, 0.0, 4.0];
        for rotation in 0..dists.len() {
            let mut heap: BinaryHeap<HeapItem<2>> = BinaryHeap::new();
            for i in 0..dists.len() {
                heap.push(HeapItem::Record {
                    record: RecordId(i as u64),
                    rect: Rect::new([0.0, 0.0], [1.0, 1.0]),
                    dist_sqr: dists[(i + rotation) % dists.len()],
                });
            }
            let popped: Vec<f64> = std::iter::from_fn(|| heap.pop())
                .map(|item| item.dist_sqr())
                .collect();
            assert_eq!(
                popped[..6],
                [0.0, 0.5, 1.0, 2.0, 4.0, 8.0],
                "rotation {rotation}"
            );
            assert!(popped[6].is_nan() && popped[7].is_nan());
        }
    }

    #[test]
    fn empty_tree_nearest() {
        let t: Tree<2> = Tree::new(IndexConfig::rtree());
        assert!(t.nearest(&Point::origin(), 5).is_empty());
    }
}
