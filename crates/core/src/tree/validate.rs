//! Deep structural invariant checking, used heavily by tests.

use super::Tree;
use crate::id::{NodeId, RecordId};
use crate::node::NodeKind;
use segidx_geom::Rect;
use std::collections::HashSet;

/// Notes a portion of `record` stored on `n` that escapes one of `regions`
/// (the stored regions of `n` and its ancestors).
fn escapes<const D: usize>(
    issues: &mut Vec<String>,
    n: NodeId,
    record: RecordId,
    portion: &Rect<D>,
    regions: &[Rect<D>],
) {
    if let Some(depth) = regions.iter().position(|r| !r.contains_rect(portion)) {
        issues.push(format!(
            "portion of {record:?} on {n:?} escapes the region of its ancestor at depth {}",
            depth + 1
        ));
    }
}

impl<const D: usize> Tree<D> {
    /// Checks every structural invariant of the tree and returns the list of
    /// violations (empty when the tree is consistent).
    ///
    /// Checked invariants:
    /// 1. parent pointers match branch entries, and the root has no parent;
    /// 2. levels decrease by exactly one along every branch; leaves are
    ///    level 0; all leaves are at the same depth (the tree is balanced);
    /// 3. every stored branch region covers the child's structural contents
    ///    *and* the child's spanning records (the cutting/containment
    ///    invariant of paper §3.1.1);
    /// 4. every spanning record spans (intersects + covers in ≥ 1 dimension)
    ///    the region of the branch it is linked to, and that branch exists;
    /// 5. spanning records appear only in segment mode;
    /// 6. no node exceeds its capacity, unless elastic overflows were
    ///    recorded;
    /// 7. the physical entry count matches `entry_count()`, and the pending
    ///    reinsertion queue is empty;
    /// 8. every arena node is reachable from the root exactly once;
    /// 9. every stored portion (leaf entry or spanning record) lies inside
    ///    the stored region of its node and of every ancestor. With the
    ///    spanning half of 3 (what `enforce_spanning_containment` restores
    ///    after a split), this is what lets a delete find an uncut record
    ///    by descending only the branches that contain it.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut issues = Vec::new();
        let mut seen: HashSet<NodeId> = HashSet::new();
        let mut physical_entries = 0usize;
        let mut leaf_depths: HashSet<u32> = HashSet::new();

        if self.node(self.root).parent.is_some() {
            issues.push("root has a parent pointer".into());
        }

        // Each node travels with the stored regions of itself and of its
        // ancestors (the root has none), for invariant 9.
        let mut stack: Vec<(NodeId, u32, Vec<Rect<D>>)> = vec![(self.root, 0, Vec::new())];
        while let Some((n, depth, regions)) = stack.pop() {
            if !seen.insert(n) {
                issues.push(format!("{n:?} reachable via multiple paths"));
                continue;
            }
            let node = self.node(n);
            let cap = self.config.capacity(node.level);
            if node.occupancy() > cap && self.stats().elastic_overflows == 0 {
                issues.push(format!(
                    "{n:?} over capacity: {} > {cap} with no elastic overflows recorded",
                    node.occupancy()
                ));
            }
            match &node.kind {
                NodeKind::Leaf { entries } => {
                    if node.level != 0 {
                        issues.push(format!("leaf {n:?} at level {}", node.level));
                    }
                    leaf_depths.insert(depth);
                    physical_entries += entries.len();
                    for e in entries.iter() {
                        escapes(&mut issues, n, e.record, &e.rect, &regions);
                    }
                }
                NodeKind::Internal { branches, spanning } => {
                    if branches.is_empty() {
                        issues.push(format!("internal {n:?} has no branches"));
                    }
                    if !spanning.is_empty() && !self.config.segment {
                        issues.push(format!(
                            "{n:?} holds spanning records but segment mode is off"
                        ));
                    }
                    physical_entries += spanning.len();
                    let region = self.region_of(n);
                    for b in branches.iter() {
                        let child = self.node(b.child);
                        if child.parent != Some(n) {
                            issues.push(format!(
                                "{:?} parent pointer is {:?}, expected {n:?}",
                                b.child, child.parent
                            ));
                        }
                        if child.level + 1 != node.level {
                            issues.push(format!(
                                "{:?} at level {} under {n:?} at level {}",
                                b.child, child.level, node.level
                            ));
                        }
                        if let Some(mbr) = child.content_mbr() {
                            if !b.rect.contains_rect(&mbr) {
                                issues.push(format!(
                                    "stored region of {:?} does not cover its contents",
                                    b.child
                                ));
                            }
                        }
                        if let Some(region) = &region {
                            if !region.contains_rect(&b.rect) {
                                issues.push(format!(
                                    "branch region of {:?} escapes region of {n:?}",
                                    b.child
                                ));
                            }
                        }
                        let mut child_regions = regions.clone();
                        child_regions.push(b.rect);
                        stack.push((b.child, depth + 1, child_regions));
                    }
                    for (si, s) in spanning.iter().enumerate() {
                        escapes(&mut issues, n, s.record, &s.rect, &regions);
                        match node.branch_index_of(s.linked_child) {
                            None => issues.push(format!(
                                "spanning record {si} on {n:?} linked to absent branch {:?}",
                                s.linked_child
                            )),
                            Some(bi) => {
                                if !s.rect.spans_any_dim(&branches.rect(bi)) {
                                    issues.push(format!(
                                        "spanning record {si} on {n:?} does not span its branch"
                                    ));
                                }
                            }
                        }
                        if let Some(region) = &region {
                            if !region.contains_rect(&s.rect) {
                                issues.push(format!(
                                    "spanning record {si} on {n:?} escapes the node's region"
                                ));
                            }
                        }
                    }
                }
            }
        }

        if leaf_depths.len() > 1 {
            issues.push(format!("unbalanced: leaves at depths {leaf_depths:?}"));
        }
        if seen.len() != self.arena.len() {
            issues.push(format!(
                "{} arena nodes but {} reachable from the root",
                self.arena.len(),
                seen.len()
            ));
        }
        if physical_entries != self.entry_count {
            issues.push(format!(
                "entry_count {} but {} physical entries found",
                self.entry_count, physical_entries
            ));
        }
        if !self.pending.is_empty() {
            issues.push(format!(
                "{} records stuck in the pending queue",
                self.pending.len()
            ));
        }
        issues
    }

    /// Panics with a readable report if [`Tree::check_invariants`] finds
    /// violations. Intended for tests.
    pub fn assert_invariants(&self) {
        let issues = self.check_invariants();
        assert!(
            issues.is_empty(),
            "tree invariant violations:\n  {}",
            issues.join("\n  ")
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::config::IndexConfig;
    use crate::id::RecordId;
    use crate::tree::Tree;
    use segidx_geom::Rect;

    #[test]
    fn fresh_tree_is_valid() {
        let t: Tree<2> = Tree::new(IndexConfig::rtree());
        t.assert_invariants();
    }

    #[test]
    fn invariants_hold_across_growth() {
        for config in [IndexConfig::rtree(), IndexConfig::srtree()] {
            let mut t: Tree<2> = Tree::new(config);
            for i in 0..1500u64 {
                let x = ((i * 37) % 1000) as f64;
                let y = ((i * 91) % 1000) as f64;
                let len = if i % 10 == 0 { 400.0 } else { 3.0 };
                t.insert(Rect::new([x, y], [x + len, y]), RecordId(i));
                if i % 250 == 0 {
                    t.assert_invariants();
                }
            }
            t.assert_invariants();
            assert_eq!(t.len(), 1500);
        }
    }

    #[test]
    fn invariants_hold_across_deletes() {
        let mut t: Tree<2> = Tree::new(IndexConfig::srtree());
        let rects: Vec<_> = (0..800u64)
            .map(|i| {
                let x = ((i * 13) % 500) as f64;
                let y = ((i * 7) % 500) as f64;
                let len = if i % 7 == 0 { 250.0 } else { 2.0 };
                let r = Rect::new([x, y], [x + len, y]);
                t.insert(r, RecordId(i));
                r
            })
            .collect();
        t.assert_invariants();
        for i in (0..800u64).step_by(2) {
            assert!(t.delete(&rects[i as usize], RecordId(i)));
            if i % 100 == 0 {
                t.assert_invariants();
            }
        }
        t.assert_invariants();
        assert_eq!(t.len(), 400);
    }
}
