//! Deletion.
//!
//! The paper notes that historical data indexes "only need to support
//! insertion and search operations" (§3.1.1) and gives no delete algorithm;
//! this module provides one as a library extension. A logical record may be
//! physically stored as several portions (the spanning portion plus remnants
//! of cuts), all of which lie inside the record's original rectangle — so a
//! traversal constrained to that rectangle finds every portion.
//!
//! A delete runs in two phases. Phase 1 descends only the branches whose
//! region *contains* the record's rectangle: every stored portion lies
//! inside every ancestor's region, so a portion equal to the rectangle is
//! reached this way. Such a portion means the record is uncut (a record
//! meeting a region only on a face is never cut, see `touches_only` in
//! `insert.rs`), so removing it is the whole delete. Otherwise — a cut
//! record, or an absent one — phase 2 descends every branch *intersecting*
//! the rectangle and removes every portion it finds. Both phases leave the
//! same tree; phase 1 visits the path to the record instead of every
//! region the record meets.
//!
//! Under-full leaves are condensed by reinsertion (Guttman's CondenseTree);
//! emptied internal nodes are removed, and a single-branch internal root is
//! collapsed. Stored regions are *not* shrunk on deletion: covering regions
//! remain conservative, which preserves all search and spanning invariants
//! at the cost of some precision after heavy deletion.

use super::Tree;
use crate::id::{NodeId, RecordId};
use crate::node::NodeKind;
use segidx_geom::{for_each_hit, Rect};

impl<const D: usize> Tree<D> {
    /// Removes the record `record`, whose original geometry was `rect`.
    ///
    /// Returns `true` if any portion of the record was found and removed.
    /// All physical portions (spanning and remnant) are removed in one call.
    /// An uncut record is found by descending only the branches that
    /// contain `rect`; a cut or absent one by descending every branch that
    /// intersects it. Both leave the same tree.
    pub fn delete(&mut self, rect: &Rect<D>, record: RecordId) -> bool {
        let _sp = segidx_obs::trace::span("tree.delete");
        self.delete_from(rect, record, true)
    }

    /// [`delete`](Self::delete) without phase 1: every portion is sought by
    /// the intersecting traversal. The reference the two-phase delete is
    /// tested against.
    #[cfg(test)]
    pub(crate) fn delete_intersecting(&mut self, rect: &Rect<D>, record: RecordId) -> bool {
        self.delete_from(rect, record, false)
    }

    fn delete_from(&mut self, rect: &Rect<D>, record: RecordId, contained_first: bool) -> bool {
        let mut touched_leaves: Vec<NodeId> = Vec::new();
        let uncut = if contained_first {
            self.find_uncut(rect, record)
        } else {
            None
        };
        let removed = match uncut {
            Some(n) => self.remove_portions(n, record, &mut touched_leaves),
            None => self.remove_intersecting(rect, record, &mut touched_leaves),
        };
        if removed == 0 {
            return false;
        }
        self.entry_count -= removed;
        self.len -= 1;

        for leaf in touched_leaves {
            self.condense_leaf(leaf);
        }
        self.collapse_root();
        self.drain_pending();
        true
    }

    /// Phase 1: the node holding `record` as a portion equal to `rect`,
    /// found by descending only branches whose region contains `rect`.
    /// `None` when the first portion met is a cut one, or none is met.
    ///
    /// Containment runs on the intersection kernel with the query's bounds
    /// swapped: `lo_b ≤ rect.hi ∧ hi_b ≥ rect.lo` becomes
    /// `lo_b ≤ rect.lo ∧ hi_b ≥ rect.hi`.
    fn find_uncut(&mut self, rect: &Rect<D>, record: RecordId) -> Option<NodeId> {
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            self.touch_maintenance(n);
            let portion = match &self.node(n).kind {
                NodeKind::Leaf { entries } => (0..entries.len())
                    .find(|&i| entries.record(i) == record)
                    .map(|i| entries.rect(i)),
                NodeKind::Internal { branches, spanning } => {
                    let (los, his) = branches.planes();
                    for_each_hit(rect.hi_coords(), rect.lo_coords(), los, his, |i| {
                        stack.push(branches.child(i))
                    });
                    (0..spanning.len())
                        .find(|&i| spanning.record(i) == record)
                        .map(|i| spanning.rect(i))
                }
            };
            if let Some(portion) = portion {
                return (portion == *rect).then_some(n);
            }
        }
        None
    }

    /// Phase 2: removes every portion of `record` on a node whose region
    /// meets `rect`, and returns how many it removed. Every portion lies
    /// inside `rect`, and stored regions cover their contents, so it
    /// suffices to descend branches intersecting `rect`. It reads through
    /// `node()` and takes `node_mut()` only on a node holding a portion:
    /// under a published snapshot `node_mut` copies the node, and most
    /// visited nodes hold nothing to remove.
    fn remove_intersecting(
        &mut self,
        rect: &Rect<D>,
        record: RecordId,
        touched_leaves: &mut Vec<NodeId>,
    ) -> usize {
        let mut removed = 0;
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            self.touch_maintenance(n);
            let holds_portion = match &self.node(n).kind {
                NodeKind::Leaf { entries } => entries.records().any(|r| r == record),
                NodeKind::Internal { branches, spanning } => {
                    let (los, his) = branches.planes();
                    for_each_hit(rect.lo_coords(), rect.hi_coords(), los, his, |i| {
                        stack.push(branches.child(i))
                    });
                    (0..spanning.len()).any(|i| spanning.record(i) == record)
                }
            };
            if holds_portion {
                removed += self.remove_portions(n, record, touched_leaves);
            }
        }
        removed
    }

    /// Removes the portions of `record` stored on `n`, in place and in
    /// order, and returns how many there were. A leaf is noted in
    /// `touched_leaves` for condensing.
    fn remove_portions(
        &mut self,
        n: NodeId,
        record: RecordId,
        touched_leaves: &mut Vec<NodeId>,
    ) -> usize {
        let node = self.node_mut(n);
        node.mod_count += 1;
        match &mut node.kind {
            NodeKind::Leaf { entries } => {
                touched_leaves.push(n);
                let before = entries.len();
                entries.retain(|e| e.record != record);
                before - entries.len()
            }
            NodeKind::Internal { spanning, .. } => {
                let before = spanning.len();
                spanning.retain(|s| s.record != record);
                before - spanning.len()
            }
        }
    }

    /// Condenses an under-full leaf: its remaining entries are queued for
    /// reinsertion and the leaf is unlinked (unless it is the root).
    fn condense_leaf(&mut self, leaf: NodeId) {
        let min_fill = self.config.min_fill(0);
        let node = self.node(leaf);
        if node.parent.is_none() || node.entries().len() >= min_fill {
            return;
        }
        let entries = self.node_mut(leaf).entries_mut().take_vec();
        self.entry_count -= entries.len();
        for e in entries {
            self.queue_reinsert(e.rect, e.record);
        }
        self.unlink_child(leaf);
    }

    /// Removes `child` from its parent, handling spanning records linked to
    /// its branch and recursively removing internal nodes left empty.
    pub(crate) fn unlink_child(&mut self, child: NodeId) {
        let Some(parent) = self.node(child).parent else {
            return;
        };
        let bi = self
            .node(parent)
            .branch_index_of(child)
            .expect("parent pointer without matching branch");
        self.node_mut(parent).branches_mut().swap_remove(bi);
        self.node_mut(parent).touch_modified();
        self.arena.dealloc(child);

        // Spanning records linked to the removed branch are relinked to
        // another branch they span, or demoted.
        self.relink_spanning(parent, child, |_| false);

        if self.node(parent).branches().is_empty() {
            // Queue any stranded spanning records and remove the node.
            let spanning = self.node_mut(parent).spanning_mut().take_vec();
            self.entry_count -= spanning.len();
            for s in spanning {
                self.queue_reinsert(s.rect, s.record);
            }
            if self.node(parent).parent.is_some() {
                self.unlink_child(parent);
            } else {
                // Empty internal root: reset to an empty leaf.
                let root = self.root;
                self.arena.dealloc(root);
                let new_root = self.arena.alloc(self.new_leaf());
                self.root = new_root;
            }
        }
    }

    /// Collapses a single-branch internal root (Guttman's D3), repeatedly.
    fn collapse_root(&mut self) {
        loop {
            let root = self.root;
            let node = self.node(root);
            if node.is_leaf() || node.branches().len() != 1 {
                return;
            }
            // Every spanning record on the root is queued for reinsertion
            // from the new root. The root is freed below, so its store is
            // read, not taken.
            let spanning: Vec<_> = self.node(root).spanning().iter().collect();
            self.entry_count -= spanning.len();
            for s in spanning {
                self.queue_reinsert(s.rect, s.record);
            }
            let child = self.node(root).branches().child(0);
            self.node_mut(child).parent = None;
            self.arena.dealloc(root);
            self.root = child;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::IndexConfig;
    use crate::id::RecordId;
    use crate::skeleton::{build_skeleton, SkeletonSpec};
    use crate::stats::StatsSnapshot;
    use crate::tree::Tree;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use segidx_geom::Rect;

    fn seg(x0: f64, x1: f64, y: f64) -> Rect<2> {
        Rect::new([x0, y], [x1, y])
    }

    #[test]
    fn delete_from_single_leaf() {
        let mut t: Tree<2> = Tree::new(IndexConfig::rtree());
        let r = seg(0.0, 10.0, 5.0);
        t.insert(r, RecordId(1));
        assert!(t.delete(&r, RecordId(1)));
        assert!(t.is_empty());
        assert_eq!(t.entry_count(), 0);
        assert!(!t.delete(&r, RecordId(1)), "already gone");
        assert!(t.search(&r).is_empty());
    }

    #[test]
    fn delete_leaves_others_intact() {
        let mut t: Tree<2> = Tree::new(IndexConfig::rtree());
        let rects: Vec<_> = (0..300u64)
            .map(|i| {
                let r = seg((i % 20) as f64 * 5.0, (i % 20) as f64 * 5.0 + 3.0, i as f64);
                t.insert(r, RecordId(i));
                r
            })
            .collect();
        for i in (0..300u64).step_by(3) {
            assert!(t.delete(&rects[i as usize], RecordId(i)), "delete {i}");
        }
        assert_eq!(t.len(), 200);
        let all = t.search(&Rect::new([0.0, 0.0], [1e6, 1e6]));
        assert_eq!(all.len(), 200);
        assert!(all.iter().all(|r| r.raw() % 3 != 0));
    }

    #[test]
    fn delete_removes_all_cut_portions() {
        let mut t: Tree<2> = Tree::new(IndexConfig::srtree());
        for i in 0..600u64 {
            let x = (i % 30) as f64 * 10.0;
            let y = (i / 30) as f64 * 10.0;
            t.insert(seg(x, x + 4.0, y), RecordId(i));
        }
        // On a data row so it intersects (and spans) existing node regions.
        let long = seg(0.0, 300.0, 50.0);
        t.insert(long, RecordId(7777));
        let stats = t.stats();
        assert!(stats.spanning_stores > 0, "long segment stored as spanning");
        assert!(t.delete(&long, RecordId(7777)));
        let hits = t.search(&Rect::new([0.0, 0.0], [1000.0, 1000.0]));
        assert!(!hits.contains(&RecordId(7777)));
        assert_eq!(t.len(), 600);
    }

    #[test]
    fn tree_shrinks_back_to_leaf() {
        let mut t: Tree<2> = Tree::new(IndexConfig::rtree());
        let rects: Vec<_> = (0..200u64)
            .map(|i| {
                let r = seg(i as f64, i as f64 + 0.5, i as f64);
                t.insert(r, RecordId(i));
                r
            })
            .collect();
        assert!(t.height() > 1);
        for (i, r) in rects.iter().enumerate() {
            assert!(t.delete(r, RecordId(i as u64)));
        }
        assert!(t.is_empty());
        assert_eq!(t.entry_count(), 0);
        assert!(t.height() <= 2, "tree collapsed, got height {}", t.height());
        // And remains usable.
        t.insert(seg(1.0, 2.0, 1.0), RecordId(999));
        assert_eq!(t.search(&seg(0.0, 3.0, 1.0)), vec![RecordId(999)]);
    }

    /// Rectangles on the integer grid of `[0, 10]²`: horizontal and
    /// vertical segments and boxes, 1–5 cells long. Crowded onto a small
    /// domain, many of them span node regions and get cut.
    fn grid_rect_strategy() -> impl Strategy<Value = Rect<2>> {
        let grid = |x0: u8, y0: u8, x1: u8, y1: u8| {
            Rect::new(
                [f64::from(x0), f64::from(y0)],
                [f64::from(x1.min(10)), f64::from(y1.min(10))],
            )
        };
        prop_oneof![
            (0u8..10, 0u8..=10, 1u8..6).prop_map(move |(x, y, len)| grid(x, y, x + len, y)),
            (0u8..=10, 0u8..10, 1u8..6).prop_map(move |(x, y, len)| grid(x, y, x, y + len)),
            (0u8..10, 0u8..10, 1u8..6, 1u8..6).prop_map(move |(x, y, w, h)| grid(
                x,
                y,
                x + w,
                y + h
            )),
        ]
    }

    /// The four paper presets, empty; the skeletons are predicted from the
    /// first tenth of `records`.
    fn paper_trees(records: &[(Rect<2>, RecordId)]) -> Vec<(&'static str, Tree<2>)> {
        let domain = Rect::new([0.0, 0.0], [10.0, 10.0]);
        let spec = SkeletonSpec::predict(domain, records.len(), &records[..records.len() / 10]);
        vec![
            ("rtree", Tree::new(IndexConfig::rtree())),
            ("srtree", Tree::new(IndexConfig::srtree())),
            (
                "skeleton_rtree",
                build_skeleton(IndexConfig::skeleton_rtree(), &spec),
            ),
            (
                "skeleton_srtree",
                build_skeleton(IndexConfig::skeleton_srtree(), &spec),
            ),
        ]
    }

    /// Every counter but the one the two phases exist to lower.
    fn shape_stats(tree: &Tree<2>) -> StatsSnapshot {
        StatsSnapshot {
            maintenance_node_accesses: 0,
            ..tree.stats()
        }
    }

    /// Deletes `rect`/`id` from both trees, the first by the two-phase
    /// delete and the second by the intersecting traversal alone, and
    /// checks they leave the same tree.
    fn delete_both(
        name: &str,
        tree: &mut Tree<2>,
        reference: &mut Tree<2>,
        rect: &Rect<2>,
        id: RecordId,
    ) -> Result<(), TestCaseError> {
        let removed = tree.delete(rect, id);
        prop_assert_eq!(
            removed,
            reference.delete_intersecting(rect, id),
            "{} {:?}",
            name,
            id
        );
        let entries: Vec<_> = tree.iter_entries().collect();
        let expected: Vec<_> = reference.iter_entries().collect();
        prop_assert_eq!(entries, expected, "{} {:?}: entries", name, id);
        prop_assert_eq!(tree.level_profile(), reference.level_profile(), "{}", name);
        prop_assert_eq!(tree.node_count(), reference.node_count(), "{}", name);
        prop_assert_eq!(
            shape_stats(tree),
            shape_stats(reference),
            "{} {:?}",
            name,
            id
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 4,
            ..ProptestConfig::default()
        })]

        /// On cut-heavy grid data, the two-phase delete leaves the tree the
        /// intersecting traversal alone leaves — entries, shape and every
        /// counter but `maintenance_node_accesses` — after every delete of a
        /// live record (cut or whole) and of an absent one, with inserts
        /// interleaved, under each paper preset.
        #[test]
        fn two_phase_delete_matches_the_intersecting_traversal(
            rects in vec(grid_rect_strategy(), 1200..1600)
        ) {
            let records: Vec<(Rect<2>, RecordId)> = rects
                .iter()
                .enumerate()
                .map(|(i, r)| (*r, RecordId(i as u64)))
                .collect();
            let trees = paper_trees(&records).into_iter().zip(paper_trees(&records));
            for ((name, mut tree), (_, mut reference)) in trees {
                for (rect, id) in &records {
                    tree.insert(*rect, *id);
                    reference.insert(*rect, *id);
                }
                let fresh = records.len() as u64;
                for (k, (rect, id)) in records.iter().enumerate() {
                    if k % 3 == 2 {
                        continue;
                    }
                    delete_both(name, &mut tree, &mut reference, rect, *id)?;
                    if k % 5 == 0 {
                        delete_both(name, &mut tree, &mut reference, rect, *id)?;
                    }
                    if k % 4 == 0 {
                        let again = RecordId(fresh + k as u64);
                        tree.insert(*rect, again);
                        reference.insert(*rect, again);
                    }
                }
                let issues = tree.check_invariants();
                prop_assert!(issues.is_empty(), "{}: {:?}", name, issues);
            }
        }
    }

    /// On the `[0, 10]²` grid, where some records are cut, the two-phase
    /// delete removes every record, cut or whole, and visits fewer nodes
    /// over the whole run than the intersecting traversal alone.
    #[test]
    fn two_phase_delete_visits_fewer_nodes_and_still_removes_cut_records() {
        let records: Vec<(Rect<2>, RecordId)> = (0..2_000u64)
            .map(|i| {
                let (x, y) = ((i * 7 % 10) as f64, (i * 3 % 11) as f64);
                let (w, h) = match i % 3 {
                    0 => (1 + i / 3 % 5, 0),
                    1 => (0, 1 + i / 3 % 5),
                    _ => (1 + i % 5, 1 + i / 5 % 5),
                };
                let hi = [(x + w as f64).min(10.0), (y + h as f64).min(10.0)];
                (Rect::new([x, y], hi), RecordId(i))
            })
            .collect();
        let mut tree: Tree<2> = Tree::new(IndexConfig::srtree());
        for (rect, id) in &records {
            tree.insert(*rect, *id);
        }
        let mut reference = tree.clone();
        let (before, reference_before) = (tree.stats(), reference.stats());
        let mut cut = 0;
        for (rect, id) in &records {
            cut += usize::from(tree.iter_entries().filter(|(_, r)| r == id).count() > 1);
            assert!(tree.delete(rect, *id));
            assert!(reference.delete_intersecting(rect, *id));
        }
        assert!(tree.is_empty() && reference.is_empty());
        assert_eq!((tree.entry_count(), reference.entry_count()), (0, 0));
        assert!(cut > 0, "no cut record was deleted");
        let visits = tree.stats().diff(&before).maintenance_node_accesses;
        let reference_visits = reference
            .stats()
            .diff(&reference_before)
            .maintenance_node_accesses;
        assert!(
            visits < reference_visits,
            "{visits} visits against {reference_visits} for the intersecting traversal"
        );
    }
}
