//! Deletion.
//!
//! The paper notes that historical data indexes "only need to support
//! insertion and search operations" (§3.1.1) and gives no delete algorithm;
//! this module provides one as a library extension. A logical record may be
//! physically stored as several portions (the spanning portion plus remnants
//! of cuts), all of which lie inside the record's original rectangle — so a
//! traversal constrained to that rectangle finds every portion.
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
    pub fn delete(&mut self, rect: &Rect<D>, record: RecordId) -> bool {
        let _sp = segidx_obs::trace::span("tree.delete");
        self.reinsert_armed = self.config.forced_reinsert.is_some();
        let mut removed = 0usize;
        let mut touched_leaves: Vec<NodeId> = Vec::new();

        // Constrained traversal: every portion of `record` lies inside
        // `rect`, and stored regions cover their contents, so it suffices to
        // descend branches intersecting `rect`. It reads through `node()`
        // and takes `node_mut()` only on a node holding a portion: under a
        // published snapshot `node_mut` copies the node, and most visited
        // nodes hold nothing to remove.
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
            if !holds_portion {
                continue;
            }
            let node = self.node_mut(n);
            node.mod_count += 1;
            removed += match &mut node.kind {
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
            };
        }
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
            // Spanning records on the root move down with the collapse only
            // if they still make sense; otherwise reinsert them. The root
            // is freed below, so its store is read, not taken.
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
    use crate::tree::Tree;
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
}
