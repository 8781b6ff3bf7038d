//! Node coalescing for Skeleton indexes (paper §4).
//!
//! "High-density regions are made finer grained through conventional node
//! splitting ... Sparsely populated regions that are spatially adjacent are
//! merged, or coalesced." The pass runs every `check_interval` insertions
//! and only considers the `lfm_candidates` least-frequently-modified leaves,
//! exactly as in the paper's experiments (every 1,000 insertions among the
//! 10 least frequently modified nodes, §5).

use crate::config::CoalesceConfig;
use crate::id::NodeId;
use crate::tree::Tree;
use segidx_geom::Rect;

impl<const D: usize> Tree<D> {
    /// One coalescing pass. Invoked automatically by [`Tree::insert`] when
    /// `config.coalesce` is set; public so callers can trigger maintenance
    /// explicitly (e.g. after a bulk delete).
    pub fn coalesce_pass(&mut self, cfg: CoalesceConfig) {
        // The least-frequently-modified non-root leaves.
        let mut leaves: Vec<(u64, NodeId)> = self
            .arena
            .iter()
            .filter(|(_, n)| n.is_leaf() && n.parent.is_some())
            .map(|(id, n)| (n.mod_count, id))
            .collect();
        leaves.sort_unstable();
        leaves.truncate(cfg.lfm_candidates);

        for (_, leaf) in leaves {
            // A previous merge in this pass may have consumed this leaf.
            if !self.is_live_leaf(leaf) {
                continue;
            }
            self.try_coalesce_leaf(leaf);
        }
        self.drain_pending();
    }

    fn is_live_leaf(&self, id: NodeId) -> bool {
        self.arena
            .iter()
            .any(|(nid, n)| nid == id && n.is_leaf() && n.parent.is_some())
    }

    /// Merges `leaf` into the best adjacent sibling, if any qualifies.
    fn try_coalesce_leaf(&mut self, leaf: NodeId) -> bool {
        let Some(parent) = self.node(leaf).parent else {
            return false;
        };
        let leaf_region = self.region_of(leaf).expect("non-root leaf has a region");
        let leaf_occupancy = self.node(leaf).entries().len();
        let capacity = self.config.capacity(0);

        // Candidate siblings: leaves under the same parent whose combined
        // contents fit in one node. Prefer the one introducing the least
        // dead space; require spatial adjacency (bounded dead space) so a
        // merge does not create a sprawling region.
        let mut best: Option<(NodeId, Rect<D>, f64)> = None;
        for b in self.node(parent).branches().iter() {
            if b.child == leaf {
                continue;
            }
            let sib = self.node(b.child);
            if !sib.is_leaf() || sib.entries().len() + leaf_occupancy > capacity {
                continue;
            }
            let merged = leaf_region.union(&b.rect);
            let covered = leaf_region.area() + b.rect.area() - leaf_region.overlap_area(&b.rect);
            let dead = merged.area() - covered;
            let adjacent = dead <= covered.max(1e-9);
            if !adjacent {
                continue;
            }
            if best.as_ref().map_or(true, |(_, _, d)| dead < *d) {
                best = Some((b.child, merged, dead));
            }
        }
        let Some((sibling, merged_region, _)) = best else {
            return false;
        };

        // 1. Grow the surviving sibling's stored region to the merged tile,
        //    re-checking spanning records linked to it (growth can break
        //    their spanning relationship, as with any expansion).
        let bi = self
            .node(parent)
            .branch_index_of(sibling)
            .expect("sibling branch present");
        self.node_mut(parent)
            .branches_mut()
            .set_rect(bi, &merged_region);
        if self.config.segment {
            self.recheck_spanning_links(parent, sibling);
        }

        // 2. Move the entries across.
        let entries = self.node_mut(leaf).entries_mut().take_vec();
        let sib_node = self.node_mut(sibling);
        sib_node.entries_mut().extend(entries);
        sib_node.touch_modified();

        // 3. Unlink the emptied leaf (relinks or demotes spanning records
        //    that pointed at its branch).
        self.unlink_child(leaf);
        self.stats.coalesces += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{CoalesceConfig, IndexConfig};
    use crate::id::RecordId;
    use crate::skeleton::build::{build_skeleton, SkeletonSpec};
    use crate::tree::Tree;
    use segidx_geom::Rect;

    fn domain() -> Rect<2> {
        Rect::new([0.0, 0.0], [100_000.0, 100_000.0])
    }

    #[test]
    fn coalescing_shrinks_sparse_skeletons() {
        // Build a skeleton sized for 20K tuples but insert only 500, all in
        // one corner: coalescing must merge the untouched leaves.
        let mut config = IndexConfig::rtree();
        config.coalesce = Some(CoalesceConfig {
            check_interval: 100,
            lfm_candidates: 50,
        });
        let spec = SkeletonSpec::uniform(domain(), 20_000);
        let mut t = build_skeleton(config, &spec);
        let before = t.node_count();
        for i in 0..500u64 {
            let x = (i % 100) as f64 * 10.0;
            let y = (i / 100) as f64 * 10.0;
            t.insert(Rect::new([x, y], [x + 5.0, y]), RecordId(i));
        }
        t.assert_invariants();
        assert!(t.stats().coalesces > 0, "no coalesces happened");
        assert!(
            t.node_count() < before,
            "node count {} did not shrink from {before}",
            t.node_count()
        );
        // Nothing lost.
        assert_eq!(t.search(&domain()).len(), 500);
    }

    #[test]
    fn coalescing_preserves_results_under_load() {
        let mut config = IndexConfig::srtree();
        config.coalesce = Some(CoalesceConfig::default());
        let spec = SkeletonSpec::uniform(domain(), 8_000);
        let mut t = build_skeleton(config, &spec);
        for i in 0..8_000u64 {
            let x = ((i * 37) % 90_000) as f64;
            let y = ((i * 113) % 90_000) as f64;
            let len = if i % 11 == 0 { 20_000.0 } else { 40.0 };
            t.insert(
                Rect::new([x, y], [(x + len).min(100_000.0), y]),
                RecordId(i),
            );
        }
        t.assert_invariants();
        assert_eq!(t.len(), 8_000);
        assert_eq!(t.search(&domain()).len(), 8_000);
    }

    #[test]
    fn explicit_pass_on_plain_tree_is_safe() {
        let mut t: Tree<2> = Tree::new(IndexConfig::rtree());
        for i in 0..300u64 {
            let x = i as f64 * 3.0;
            t.insert(Rect::new([x, 0.0], [x + 1.0, 1.0]), RecordId(i));
        }
        t.coalesce_pass(CoalesceConfig {
            check_interval: 1,
            lfm_candidates: 100,
        });
        t.assert_invariants();
        assert_eq!(t.search(&Rect::new([0.0, 0.0], [1e4, 1e4])).len(), 300);
    }
}
