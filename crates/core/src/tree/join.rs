//! Spatial join: all intersecting pairs between two indexes.
//!
//! Synchronized depth-first traversal: a pair of subtrees is descended only
//! if their covering regions intersect, so disjoint regions of the two
//! datasets are never compared. Spanning index records participate at the
//! node where they are stored, paired against the other tree's entire
//! relevant subtree.

use super::Tree;
use crate::id::{NodeId, RecordId};
use crate::node::NodeKind;
use segidx_geom::{for_each_hit, Rect};
use std::collections::HashSet;

impl<const D: usize> Tree<D> {
    /// All pairs `(a, b)` where record `a` of `self` intersects record `b`
    /// of `other`. Pairs are deduplicated (cut records count once per
    /// logical pair) and sorted. Both trees' search-access counters are
    /// incremented for every node visited.
    pub fn join(&self, other: &Tree<D>) -> Vec<(RecordId, RecordId)> {
        self.stats.record_search();
        other.stats.record_search();
        let mut out: Vec<(RecordId, RecordId)> = Vec::new();

        // (left node, right node, region intersection guard)
        let mut stack: Vec<(NodeId, NodeId)> = vec![(self.root, other.root)];
        let mut visited_left: HashSet<NodeId> = HashSet::new();
        let mut visited_right: HashSet<NodeId> = HashSet::new();
        // Node accesses accumulate locally and flush once per join, like
        // the search kernel.
        let mut left_accesses: u64 = 0;
        let mut right_accesses: u64 = 0;

        while let Some((l, r)) = stack.pop() {
            // Node-access accounting (once per distinct node per join).
            if visited_left.insert(l) {
                left_accesses += 1;
            }
            if visited_right.insert(r) {
                right_accesses += 1;
            }
            let ln = self.node(l);
            let rn = other.node(r);

            // Records materialized at these nodes (leaf entries or
            // spanning records).
            let l_records = node_records(ln);
            let r_records = node_records(rn);

            // Record × record pairs at this node pair.
            for (lr, lid) in &l_records {
                for (rr, rid) in &r_records {
                    if lr.intersects(rr) {
                        out.push((*lid, *rid));
                    }
                }
            }
            // Records on one side × subtrees on the other.
            if let NodeKind::Internal { branches, .. } = &rn.kind {
                for (lr, lid) in &l_records {
                    for b in branches.iter() {
                        if lr.intersects(&b.rect) {
                            self.join_record_vs_subtree(*lr, *lid, other, b.child, false, &mut out);
                        }
                    }
                }
            }
            if let NodeKind::Internal { branches, .. } = &ln.kind {
                for (rr, rid) in &r_records {
                    for b in branches.iter() {
                        if rr.intersects(&b.rect) {
                            self.join_record_vs_subtree(*rr, *rid, self, b.child, true, &mut out);
                        }
                    }
                }
            }
            // Subtree × subtree.
            if let (
                NodeKind::Internal { branches: lb, .. },
                NodeKind::Internal { branches: rb, .. },
            ) = (&ln.kind, &rn.kind)
            {
                for a in lb.iter() {
                    for b in rb.iter() {
                        if a.rect.intersects(&b.rect) {
                            stack.push((a.child, b.child));
                        }
                    }
                }
            }
        }
        self.stats.record_search_accesses(left_accesses);
        other.stats.record_search_accesses(right_accesses);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Pairs one record against every matching record in a subtree.
    /// `swap = true` means the fixed record belongs to the *right* tree.
    ///
    /// The descent runs [`for_each_hit`] over each node's coordinate
    /// planes — the same branchless kernel as the search hot loop.
    fn join_record_vs_subtree(
        &self,
        rect: Rect<D>,
        id: RecordId,
        tree: &Tree<D>,
        root: NodeId,
        swap: bool,
        out: &mut Vec<(RecordId, RecordId)>,
    ) {
        let mut stack = vec![root];
        let (lo, hi) = (rect.lo_coords(), rect.hi_coords());
        let mut emit = |other_id: RecordId| {
            if swap {
                out.push((other_id, id));
            } else {
                out.push((id, other_id));
            }
        };
        while let Some(n) = stack.pop() {
            let node = tree.node(n);
            match &node.kind {
                NodeKind::Leaf { entries } => {
                    let (los, his) = entries.planes();
                    for_each_hit(lo, hi, los, his, |i| emit(entries.record(i)));
                }
                NodeKind::Internal { branches, spanning } => {
                    let (los, his) = spanning.planes();
                    for_each_hit(lo, hi, los, his, |i| emit(spanning.record(i)));
                    let (los, his) = branches.planes();
                    for_each_hit(lo, hi, los, his, |i| stack.push(branches.child(i)));
                }
            }
        }
    }
}

/// The records materialized directly on a node: leaf entries for leaves,
/// spanning records for internal nodes.
fn node_records<const D: usize>(node: &crate::node::Node<D>) -> Vec<(Rect<D>, RecordId)> {
    match &node.kind {
        NodeKind::Leaf { entries } => entries.iter().map(|e| (e.rect, e.record)).collect(),
        NodeKind::Internal { spanning, .. } => {
            spanning.iter().map(|s| (s.rect, s.record)).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::IndexConfig;
    use crate::id::RecordId;
    use crate::tree::Tree;
    use segidx_geom::Rect;

    fn brute_join(
        a: &[(Rect<2>, RecordId)],
        b: &[(Rect<2>, RecordId)],
    ) -> Vec<(RecordId, RecordId)> {
        let mut out = Vec::new();
        for (ra, ia) in a {
            for (rb, ib) in b {
                if ra.intersects(rb) {
                    out.push((*ia, *ib));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn dataset(n: u64, salt: u64, long_every: u64) -> Vec<(Rect<2>, RecordId)> {
        (0..n)
            .map(|i| {
                let x = ((i * 37 + salt * 13) % 2_000) as f64;
                let y = ((i * 97 + salt * 7) % 2_000) as f64;
                let len = if long_every > 0 && i % long_every == 0 {
                    700.0
                } else {
                    6.0
                };
                (Rect::new([x, y], [x + len, y + 4.0]), RecordId(i))
            })
            .collect()
    }

    fn build(records: &[(Rect<2>, RecordId)], segment: bool) -> Tree<2> {
        let config = if segment {
            IndexConfig::srtree()
        } else {
            IndexConfig::rtree()
        };
        let mut t = Tree::new(config);
        for (r, id) in records {
            t.insert(*r, *id);
        }
        t
    }

    #[test]
    fn join_matches_brute_force() {
        let a = dataset(600, 1, 0);
        let b = dataset(500, 2, 0);
        for (sa, sb) in [(false, false), (true, false), (true, true)] {
            let ta = build(&a, sa);
            let tb = build(&b, sb);
            assert_eq!(
                ta.join(&tb),
                brute_join(&a, &b),
                "segment flags ({sa}, {sb})"
            );
        }
    }

    #[test]
    fn join_with_spanning_records() {
        // Row-aligned grids with long row segments guarantee spanning
        // records on both sides.
        let grid = |salt: u64, long_every: u64| -> Vec<(Rect<2>, RecordId)> {
            (0..1_200u64)
                .map(|i| {
                    let x = ((i + salt) % 40) as f64 * 12.0;
                    let y = (i / 40) as f64 * 10.0 + salt as f64;
                    let len = if i % long_every == 0 { 360.0 } else { 5.0 };
                    (Rect::new([x, y], [x + len, y]), RecordId(i))
                })
                .collect()
        };
        let a = grid(0, 6);
        let b = grid(3, 8);
        let ta = build(&a, true);
        let tb = build(&b, true);
        assert!(ta.stats().spanning_stores > 0);
        assert!(tb.stats().spanning_stores > 0);
        assert_eq!(ta.join(&tb), brute_join(&a, &b));
    }

    #[test]
    fn join_is_symmetric() {
        let a = dataset(300, 5, 11);
        let b = dataset(300, 6, 0);
        let ta = build(&a, true);
        let tb = build(&b, false);
        let forward = ta.join(&tb);
        let mut backward: Vec<(RecordId, RecordId)> =
            tb.join(&ta).into_iter().map(|(x, y)| (y, x)).collect();
        backward.sort_unstable();
        assert_eq!(forward, backward);
    }

    #[test]
    fn join_with_empty_tree() {
        let a = dataset(100, 7, 0);
        let ta = build(&a, false);
        let empty: Tree<2> = Tree::new(IndexConfig::rtree());
        assert!(ta.join(&empty).is_empty());
        assert!(empty.join(&ta).is_empty());
    }

    #[test]
    fn self_join_includes_reflexive_pairs() {
        let a = dataset(200, 8, 0);
        let ta = build(&a, false);
        let pairs = ta.join(&ta);
        // Every record intersects itself.
        for (_, id) in &a {
            assert!(pairs.contains(&(*id, *id)));
        }
        assert_eq!(pairs, brute_join(&a, &a));
    }
}
