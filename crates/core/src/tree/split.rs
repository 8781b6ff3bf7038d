//! Node splitting (Guttman 1984 §3.5) with the SR-Tree extensions of paper
//! §3.1.2: spanning records are carried over with their branches, and are
//! promoted to the parent when they span one of the two result nodes.

use super::insert::touches_only;
use super::Tree;
use crate::config::SplitAlgorithm;
use crate::entry::Branch;
use crate::id::NodeId;
use segidx_geom::{CutResult, Rect};

impl<const D: usize> Tree<D> {
    /// Whether `n` exceeds its capacity: "every entry in use and an attempt
    /// is made to insert a new entry" (paper §3.1.2). An SR-Tree node may
    /// overflow from either a new branch or a new spanning record; both
    /// count against the same total capacity. (The `branch_fraction`
    /// reservation affects only Skeleton fanout sizing, not the dynamic
    /// overflow rule — with no spanning records an SR-Tree therefore
    /// behaves *identically* to an R-Tree, as the paper's Graphs 1, 2, and
    /// 5 report.)
    pub(crate) fn is_overflowing(&self, n: NodeId) -> bool {
        let node = self.node(n);
        node.occupancy() > self.config.capacity(node.level)
    }

    /// Resolves overflow on `n`, propagating to ancestors.
    ///
    /// Leaves, and internal nodes whose *branches* alone exceed capacity,
    /// are split (Guttman). An internal node that overflows only because of
    /// its spanning-record load sheds **spanning pressure** instead: the
    /// smallest spanning records are demoted to the leaf level until the
    /// node fits. This realizes the paper's reservation of a fraction of
    /// each non-leaf node for spanning records (§2.1.2, §5 — "reserving 1/3
    /// of the entries to store spanning index records") while keeping the
    /// *largest* intervals in non-leaf nodes, which is the design goal
    /// ("large spanning rectangles were stored in non-leaf nodes", §5.1.
    /// Splitting such a node instead would halve its region and re-cut its
    /// records, cascading into an internal-node tower that destroys the
    /// benefit). A node that can neither split nor shed is allowed to
    /// overflow elastically and counted in the statistics.
    pub(crate) fn handle_overflow(&mut self, n: NodeId) {
        while self.is_overflowing(n) {
            if self.shed_spanning_pressure(n) {
                continue;
            }
            if self.config.coalesce.is_some() && self.try_redistribute_leaf(n) {
                continue;
            }
            match self.split_node(n) {
                Some(parent) => self.handle_overflow(parent),
                None => {
                    self.stats.elastic_overflows += 1;
                    return;
                }
            }
        }
    }

    /// Deferred splitting for Skeleton indexes: before splitting an
    /// overflowing leaf, try to move its most outlying entry to an adjacent
    /// sibling with room. Splitting a pre-partitioned tile leaves both
    /// halves half-full and permanently degrades the Skeleton's utilization;
    /// redistribution keeps the pre-allocated grid intact, in the spirit of
    /// the paper's "high-density regions are made finer grained … sparsely
    /// populated regions are merged" adaptation (§4). Enabled together with
    /// coalescing (i.e. for the Skeleton variants only, so the R-Tree
    /// baseline stays pure Guttman).
    fn try_redistribute_leaf(&mut self, n: NodeId) -> bool {
        let node = self.node(n);
        if !node.is_leaf() || node.parent.is_none() {
            return false;
        }
        let parent = node.parent.expect("checked above");
        let leaf_cap = self.config.capacity(0);

        // Best (sibling, entry) pair: the move that enlarges the sibling's
        // region least.
        let mut best: Option<(NodeId, usize, usize, f64)> = None;
        for (bi, b) in self.node(parent).branches().iter().enumerate() {
            if b.child == n {
                continue;
            }
            let sib = self.node(b.child);
            if !sib.is_leaf() || sib.entries().len() + 1 > leaf_cap {
                continue;
            }
            for (ei, e) in self.node(n).entries().iter().enumerate() {
                let enlargement = b.rect.enlargement(&e.rect);
                if best.as_ref().map_or(true, |(.., d)| enlargement < *d) {
                    best = Some((b.child, bi, ei, enlargement));
                }
            }
        }
        let Some((sibling, sibling_bi, entry_idx, enlargement)) = best else {
            return false;
        };
        // Refuse moves that would balloon the sibling's region: a split is
        // better than creating heavy overlap.
        let sib_rect = self.node(parent).branches().rect(sibling_bi);
        if enlargement > sib_rect.area().max(1.0) {
            return false;
        }

        let entry = self.node_mut(n).entries_mut().swap_remove(entry_idx);
        self.node_mut(n).touch_modified();
        let sib_node = self.node_mut(sibling);
        sib_node.entries_mut().push(entry);
        sib_node.touch_modified();
        self.stats.redistributions += 1;
        // Expand the sibling's stored regions (and recheck spanning links)
        // up the path.
        self.adjust_upward(sibling, &entry.rect);
        true
    }

    /// If `n` is an internal node whose overflow is caused by spanning
    /// records, demotes its smallest spanning record to the leaf level and
    /// returns `true`. A node genuinely crowded with *branches* splits
    /// instead — carrying its spanning records with their branches and
    /// promoting the ones that span a half (paper §3.1.2, Figure 4).
    ///
    /// The shed regime extends halfway from the reserved branch fraction to
    /// full capacity: Skeleton grids slightly exceed the reservation by
    /// grid-rounding (e.g. 36 branches against a 2/3 × 51 = 34 reservation)
    /// and must stay in the shed regime, or spanning pressure would split
    /// the pre-partitioned tiles and re-cut every resident record.
    fn shed_spanning_pressure(&mut self, n: NodeId) -> bool {
        let node = self.node(n);
        if node.is_leaf() || node.spanning().is_empty() {
            return false;
        }
        let shed_limit =
            (self.config.branch_capacity(node.level) + self.config.capacity(node.level)) / 2;
        if node.branches().len() > shed_limit {
            return false;
        }
        let (idx, _) = self
            .node(n)
            .spanning()
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.rect.margin().total_cmp(&b.rect.margin()))
            .expect("non-empty spanning list");
        let s = self.node_mut(n).spanning_mut().swap_remove(idx);
        self.node_mut(n).touch_modified();
        self.entry_count -= 1;
        self.stats.spanning_evictions += 1;
        self.queue_leaf_reinsert(s.rect, s.record);
        true
    }

    /// Splits `n` into itself plus a new sibling, installing the sibling in
    /// the parent (growing the tree at the root). Returns the parent that
    /// received the new branch, or `None` if the node cannot be split.
    fn split_node(&mut self, n: NodeId) -> Option<NodeId> {
        self.touch_maintenance(n);
        let level = self.node(n).level;
        let is_leaf = self.node(n).is_leaf();

        let sibling = if is_leaf {
            let entries = self.node_mut(n).entries_mut().take_vec();
            if entries.len() < 2 {
                self.node_mut(n).entries_mut().assign(entries);
                return None;
            }
            let min_fill = self.config.min_fill(level).min(entries.len() / 2).max(1);
            let (g1, g2) = split_items(entries, |e| e.rect, min_fill, self.config.split);
            self.node_mut(n).entries_mut().assign(g1);
            let mut sib = self.new_leaf();
            sib.entries_mut().assign(g2);
            self.stats.leaf_splits += 1;
            sib
        } else {
            let branches = self.node_mut(n).branches_mut().take_vec();
            if branches.len() < 2 {
                self.node_mut(n).branches_mut().assign(branches);
                return None;
            }
            let min_fill = self.config.min_fill(level).min(branches.len() / 2).max(1);
            let (b1, b2) = split_items(branches, |b| b.rect, min_fill, self.config.split);
            // Spanning records are "carried over" with the branch they are
            // linked to (paper §3.1.2, Figure 4).
            let moved: Vec<NodeId> = b2.iter().map(|b| b.child).collect();
            let spanning = self.node_mut(n).spanning_mut().take_vec();
            let (s2, s1): (Vec<_>, Vec<_>) = spanning
                .into_iter()
                .partition(|s| moved.contains(&s.linked_child));
            self.node_mut(n).branches_mut().assign(b1);
            self.node_mut(n).spanning_mut().assign(s1);
            let mut sib = self.new_internal(level);
            sib.branches_mut().assign(b2);
            sib.spanning_mut().assign(s2);
            self.stats.internal_splits += 1;
            sib
        };

        let sibling_id = self.arena.alloc(sibling);
        self.node_mut(n).touch_modified();
        // Children moved to the sibling need their parent pointers updated.
        if !is_leaf {
            let children: Vec<NodeId> = self.node(sibling_id).branches().children().collect();
            for c in children {
                self.node_mut(c).parent = Some(sibling_id);
            }
        }

        let r1 = self.node(n).content_mbr().expect("split half is non-empty");
        let r2 = self
            .node(sibling_id)
            .content_mbr()
            .expect("split half is non-empty");

        let parent = match self.node(n).parent {
            Some(p) => {
                self.touch_maintenance(p);
                let bi = self
                    .node(p)
                    .branch_index_of(n)
                    .expect("parent pointer without matching branch");
                self.node_mut(p).branches_mut().set_rect(bi, &r1);
                self.node_mut(p).branches_mut().push(Branch {
                    rect: r2,
                    child: sibling_id,
                });
                self.node_mut(p).touch_modified();
                self.node_mut(sibling_id).parent = Some(p);
                p
            }
            None => {
                // Root split: the tree grows a level (Guttman's I4).
                let mut root = self.new_internal(level + 1);
                root.branches_mut().push(Branch { rect: r1, child: n });
                root.branches_mut().push(Branch {
                    rect: r2,
                    child: sibling_id,
                });
                let root_id = self.arena.alloc(root);
                self.node_mut(n).parent = Some(root_id);
                self.node_mut(sibling_id).parent = Some(root_id);
                self.root = root_id;
                root_id
            }
        };

        if self.config.segment {
            if !is_leaf {
                // Promotion must run before containment cutting so a record
                // that spans a whole half keeps its full extent as it moves
                // up (paper §3.1.2: "possible promotion of spanning index
                // records").
                self.promote_spanning(n, sibling_id, parent);
                self.enforce_spanning_containment(n);
                self.enforce_spanning_containment(sibling_id);
            }
            // The stored region of n shrank from the pre-split region to r1,
            // which can break the *intersection* half of the spanning
            // predicate for records on the parent linked to n.
            self.recheck_spanning_links(parent, n);
        }
        Some(parent)
    }

    /// Moves spanning records on the two split halves up to `parent` when
    /// they span the region of either half (paper §3.1.2).
    fn promote_spanning(&mut self, n: NodeId, sibling: NodeId, parent: NodeId) {
        let rn = self.region_of(n).expect("split node has a stored region");
        let rs = self
            .region_of(sibling)
            .expect("new sibling has a stored region");
        for host in [n, sibling] {
            let mut i = 0;
            while i < self.node(host).spanning().len() {
                let s = self.node(host).spanning().get(i);
                let target = if s.rect.spans_any_dim(&rn) {
                    Some(n)
                } else if s.rect.spans_any_dim(&rs) {
                    Some(sibling)
                } else {
                    None
                };
                match target {
                    Some(spanned_child) => {
                        self.node_mut(host).spanning_mut().swap_remove(i);
                        let mut entry = s;
                        entry.linked_child = spanned_child;
                        self.node_mut(parent).spanning_mut().push(entry);
                        self.node_mut(parent).touch_modified();
                        self.stats.promotions += 1;
                    }
                    None => i += 1,
                }
            }
        }
    }

    /// Restores the invariant that spanning records on `node` lie within its
    /// stored region, cutting any that stick out (clip in place, queue the
    /// remnants for reinsertion).
    pub(crate) fn enforce_spanning_containment(&mut self, node: NodeId) {
        let Some(region) = self.region_of(node) else {
            return; // the root has no stored region
        };
        let mut i = 0;
        while i < self.node(node).spanning().len() {
            let s = self.node(node).spanning().get(i);
            if region.contains_rect(&s.rect) {
                i += 1;
                continue;
            }
            // A record meeting the region only on a face is never cut: it
            // is demoted whole.
            let touch = touches_only(&s.rect, &region);
            let cut = if touch {
                CutResult {
                    spanning: Some(s.rect),
                    remnants: Vec::new(),
                }
            } else {
                self.stats.cuts += 1;
                s.rect.cut(&region)
            };
            // Split-time remnants reinsert at the leaf level only: letting
            // them re-enter spanning placement lets a shrink-cut-readmit
            // loop amplify one record into thousands of portions.
            for remnant in &cut.remnants {
                self.stats.remnants_inserted += 1;
                self.queue_leaf_reinsert(*remnant, s.record);
            }
            let linked_rect = self
                .node(node)
                .branch_index_of(s.linked_child)
                .map(|bi| self.node(node).branches().rect(bi));
            match (cut.spanning, linked_rect) {
                (Some(clipped), Some(branch_rect))
                    if !touch && clipped.spans_any_dim(&branch_rect) =>
                {
                    self.node_mut(node).spanning_mut().set_rect(i, &clipped);
                    i += 1;
                }
                _ => {
                    // The clipped portion lost its spanning relationship,
                    // or the record only touched the region: demote it to
                    // the leaf level instead of keeping a dangling record
                    // (or re-entering spanning placement).
                    self.node_mut(node).spanning_mut().swap_remove(i);
                    self.entry_count -= 1;
                    self.stats.demotions += 1;
                    if let Some(clipped) = cut.spanning {
                        self.queue_leaf_reinsert(clipped, s.record);
                    }
                }
            }
            self.node_mut(node).touch_modified();
        }
    }
}

/// Distributes `items` into two groups per the configured split algorithm,
/// each group holding at least `min_fill` items.
pub(crate) fn split_items<T, const D: usize>(
    items: Vec<T>,
    rect_of: impl Fn(&T) -> Rect<D>,
    min_fill: usize,
    algorithm: SplitAlgorithm,
) -> (Vec<T>, Vec<T>) {
    debug_assert!(items.len() >= 2);
    match algorithm {
        SplitAlgorithm::Quadratic => quadratic_split(items, rect_of, min_fill),
        SplitAlgorithm::RStar => rstar_split(items, rect_of, min_fill),
    }
}

/// Guttman's quadratic split: seed the two groups with the pair wasting the
/// most area, then repeatedly assign the entry with the greatest preference
/// for one group.
fn quadratic_split<T, const D: usize>(
    items: Vec<T>,
    rect_of: impl Fn(&T) -> Rect<D>,
    min_fill: usize,
) -> (Vec<T>, Vec<T>) {
    let (seed1, seed2) = pick_seeds_quadratic(&items, &rect_of);

    let total = items.len();
    let mut g1: Vec<T> = Vec::with_capacity(total);
    let mut g2: Vec<T> = Vec::with_capacity(total);
    let mut rest: Vec<T> = Vec::with_capacity(total);
    for (i, item) in items.into_iter().enumerate() {
        if i == seed1 {
            g1.push(item);
        } else if i == seed2 {
            g2.push(item);
        } else {
            rest.push(item);
        }
    }
    let mut mbr1 = rect_of(&g1[0]);
    let mut mbr2 = rect_of(&g2[0]);

    while !rest.is_empty() {
        // Min-fill forcing: if one group needs every remaining item to reach
        // the minimum, assign them all (Guttman's QS2).
        if g1.len() + rest.len() == min_fill {
            for item in rest.drain(..) {
                mbr1.expand_to_cover(&rect_of(&item));
                g1.push(item);
            }
            break;
        }
        if g2.len() + rest.len() == min_fill {
            for item in rest.drain(..) {
                mbr2.expand_to_cover(&rect_of(&item));
                g2.push(item);
            }
            break;
        }

        // PickNext: the entry with the greatest preference for one group.
        let mut pick = 0;
        let mut best_diff = -1.0;
        for (i, item) in rest.iter().enumerate() {
            let r = rect_of(item);
            let diff = (mbr1.enlargement(&r) - mbr2.enlargement(&r)).abs();
            if diff > best_diff {
                best_diff = diff;
                pick = i;
            }
        }
        let item = rest.swap_remove(pick);
        let r = rect_of(&item);
        let d1 = mbr1.enlargement(&r);
        let d2 = mbr2.enlargement(&r);
        // Resolve ties by smaller area, then fewer entries (Guttman QS3).
        let to_first = match d1.total_cmp(&d2) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => match mbr1.area().total_cmp(&mbr2.area()) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => g1.len() <= g2.len(),
            },
        };
        if to_first {
            mbr1.expand_to_cover(&r);
            g1.push(item);
        } else {
            mbr2.expand_to_cover(&r);
            g2.push(item);
        }
    }
    (g1, g2)
}

/// Guttman's quadratic PickSeeds: the pair wasting the most area if grouped
/// together.
#[allow(clippy::needless_range_loop)] // pairwise index loop is the clearest form
fn pick_seeds_quadratic<T, const D: usize>(
    items: &[T],
    rect_of: &impl Fn(&T) -> Rect<D>,
) -> (usize, usize) {
    let mut best = (0, 1);
    let mut worst_waste = f64::NEG_INFINITY;
    for i in 0..items.len() {
        let ri = rect_of(&items[i]);
        for j in (i + 1)..items.len() {
            let rj = rect_of(&items[j]);
            let waste = ri.union(&rj).area() - ri.area() - rj.area();
            if waste > worst_waste {
                worst_waste = waste;
                best = (i, j);
            }
        }
    }
    best
}

/// The R\*-Tree topological split: pick the axis with minimum total margin
/// over all valid distributions (sorted by low then by high side), then the
/// distribution on that axis with minimum overlap (ties: minimum total
/// area).
///
/// The served SR-Tree splits every overflowing leaf this way, so the four
/// sorts and six sweeps share a fixed handful of buffers and each order
/// comes from [`sort_indexes`]: on a 200 k R2 build that keeps the splits
/// near the quadratic split's cost (52–72 against 43–57 ms).
fn rstar_split<T, const D: usize>(
    items: Vec<T>,
    rect_of: impl Fn(&T) -> Rect<D>,
    min_fill: usize,
) -> (Vec<T>, Vec<T>) {
    let n = items.len();
    let m = min_fill.clamp(1, n / 2);
    let rects: Vec<Rect<D>> = items.iter().map(&rect_of).collect();
    let mut keys: Vec<f64> = Vec::with_capacity(n);
    let (mut prefix, mut suffix) = (Vec::with_capacity(n), Vec::with_capacity(n));
    // The two orders (by low side, then by high side) of the axis being
    // scored, and of the best axis so far, each pair back to back.
    let mut orders: Vec<usize> = Vec::with_capacity(2 * n);
    let mut best_orders: Vec<usize> = Vec::with_capacity(2 * n);
    let mut best_margin = f64::INFINITY;
    for axis in 0..D {
        let mut margin_sum = 0.0f64;
        orders.clear();
        for by_hi in [false, true] {
            keys.clear();
            keys.extend(
                rects
                    .iter()
                    .map(|r| if by_hi { r.hi(axis) } else { r.lo(axis) }),
            );
            let start = orders.len();
            orders.resize(start + n, 0);
            sort_indexes(&keys, &mut orders[start..]);
            sweep(&orders[start..], &rects, &mut prefix, &mut suffix);
            for k in m..=(n - m) {
                margin_sum += prefix[k - 1].margin() + suffix[k].margin();
            }
        }
        if margin_sum < best_margin {
            best_margin = margin_sum;
            std::mem::swap(&mut orders, &mut best_orders);
        }
    }

    // On the chosen axis: the distribution with minimum overlap, ties by
    // minimum total area.
    let mut best: Option<(f64, f64, usize, usize)> = None; // (overlap, area, order_idx, k)
    for (oi, order) in best_orders.chunks_exact(n).enumerate() {
        sweep(order, &rects, &mut prefix, &mut suffix);
        for k in m..=(n - m) {
            let a = prefix[k - 1];
            let b = suffix[k];
            let overlap = a.overlap_area(&b);
            let area = a.area() + b.area();
            let better = match &best {
                None => true,
                Some((bo, ba, ..)) => overlap < *bo || (overlap == *bo && area < *ba),
            };
            if better {
                best = Some((overlap, area, oi, k));
            }
        }
    }
    let (_, _, oi, k) = best.expect("at least one distribution exists");
    let mut in_first = vec![false; n];
    for &i in &best_orders[oi * n..oi * n + k] {
        in_first[i] = true;
    }
    let mut g1 = Vec::with_capacity(k);
    let mut g2 = Vec::with_capacity(n - k);
    for (item, first) in items.into_iter().zip(in_first) {
        if first {
            g1.push(item);
        } else {
            g2.push(item);
        }
    }
    (g1, g2)
}

/// Largest node whose keys [`sort_indexes`] ranks by counting.
const RANK_MAX: usize = 64;

/// Fills `order` with the indexes of `keys` sorted by `f64::total_cmp`,
/// exactly as `sort_unstable_by` sorts `0..n`. Up to [`RANK_MAX`] keys, it
/// first ranks each key by counting the keys below it: a branchless
/// O(n²) pass that costs less than the sort's mispredicted compares on a
/// leaf's 26 entries. Distinct keys have one sorted order, so the ranks
/// are the sort's; on a tie it sorts, so equal keys keep the sort's order.
fn sort_indexes(keys: &[f64], order: &mut [usize]) {
    let n = keys.len();
    if n <= RANK_MAX {
        // `total_cmp`'s order as an integer order.
        let mut bits = [0i64; RANK_MAX];
        for (b, k) in bits.iter_mut().zip(keys) {
            let raw = k.to_bits() as i64;
            *b = raw ^ (((raw >> 63) as u64) >> 1) as i64;
        }
        let bits = &bits[..n];
        let mut ties = 0;
        for (i, &key) in bits.iter().enumerate() {
            let (mut below, mut equal) = (0usize, 0usize);
            for &other in bits {
                below += usize::from(other < key);
                equal += usize::from(other == key);
            }
            ties += equal - 1;
            order[below] = i;
        }
        if ties == 0 {
            return;
        }
    }
    for (i, o) in order.iter_mut().enumerate() {
        *o = i;
    }
    order.sort_unstable_by(|&a, &b| keys[a].total_cmp(&keys[b]));
}

/// For the rects in `order`: `prefix[i]` = MBR of the first `i + 1`, and
/// `suffix[i]` = MBR of those from `i` on. Refills both buffers.
fn sweep<const D: usize>(
    order: &[usize],
    rects: &[Rect<D>],
    prefix: &mut Vec<Rect<D>>,
    suffix: &mut Vec<Rect<D>>,
) {
    let n = order.len();
    prefix.clear();
    let mut acc = rects[order[0]];
    for &i in order {
        acc.expand_to_cover(&rects[i]);
        prefix.push(acc);
    }
    suffix.clear();
    suffix.resize(n, rects[order[n - 1]]);
    let mut acc = rects[order[n - 1]];
    for k in (0..n).rev() {
        acc.expand_to_cover(&rects[order[k]]);
        suffix[k] = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f64, x1: f64, y0: f64, y1: f64) -> Rect<2> {
        Rect::new([x0, y0], [x1, y1])
    }

    #[test]
    fn quadratic_separates_clusters() {
        let items = vec![
            r(0.0, 1.0, 0.0, 1.0),
            r(0.5, 1.5, 0.0, 1.0),
            r(100.0, 101.0, 0.0, 1.0),
            r(100.5, 101.5, 0.0, 1.0),
        ];
        let (g1, g2) = split_items(items, |x| *x, 2, SplitAlgorithm::Quadratic);
        assert_eq!(g1.len(), 2);
        assert_eq!(g2.len(), 2);
        let mbr = |g: &[Rect<2>]| g.iter().skip(1).fold(g[0], |a, b| a.union(b));
        assert_eq!(mbr(&g1).overlap_area(&mbr(&g2)), 0.0);
    }

    #[test]
    fn min_fill_respected() {
        // One far-away outlier: min fill forces balanced-enough groups.
        let mut items = vec![r(1000.0, 1001.0, 0.0, 1.0)];
        for i in 0..9 {
            let x = i as f64;
            items.push(r(x, x + 0.5, 0.0, 1.0));
        }
        for algo in [SplitAlgorithm::Quadratic, SplitAlgorithm::RStar] {
            let (g1, g2) = split_items(items.clone(), |x| *x, 3, algo);
            assert!(g1.len() >= 3, "{algo:?}: {} < 3", g1.len());
            assert!(g2.len() >= 3, "{algo:?}: {} < 3", g2.len());
            assert_eq!(g1.len() + g2.len(), 10);
        }
    }

    #[test]
    fn identical_rects_still_split() {
        let items = vec![r(0.0, 1.0, 0.0, 1.0); 6];
        for algo in [SplitAlgorithm::Quadratic, SplitAlgorithm::RStar] {
            let (g1, g2) = split_items(items.clone(), |x| *x, 2, algo);
            assert!(g1.len() >= 2 && g2.len() >= 2, "{algo:?}");
            assert_eq!(g1.len() + g2.len(), 6);
        }
    }

    #[test]
    fn two_items_split_one_each() {
        let items = vec![r(0.0, 1.0, 0.0, 1.0), r(5.0, 6.0, 0.0, 1.0)];
        let (g1, g2) = split_items(items, |x| *x, 1, SplitAlgorithm::Quadratic);
        assert_eq!(g1.len(), 1);
        assert_eq!(g2.len(), 1);
    }

    #[test]
    fn sort_indexes_orders_as_the_sort_does() {
        // Distinct keys (-0.0 and 0.0 among them, which `total_cmp` tells
        // apart) take the ranking pass up to `RANK_MAX`; keys with ties
        // take the sort. Each must give `sort_unstable_by`'s order.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for n in [1, 2, 26, RANK_MAX, RANK_MAX + 1, 130] {
            let distinct: Vec<f64> = (0..n)
                .map(|i| match i {
                    0 => -0.0,
                    1 => 0.0,
                    _ => ((i * 7919) % n) as f64 * 0.5 - n as f64 * 0.25 + 0.1,
                })
                .collect();
            let tied: Vec<f64> = (0..n).map(|_| (next() % 5) as f64 - 2.0).collect();
            for keys in [distinct, tied] {
                let mut order = vec![0; n];
                sort_indexes(&keys, &mut order);
                let mut expected: Vec<usize> = (0..n).collect();
                expected.sort_unstable_by(|&a, &b| keys[a].total_cmp(&keys[b]));
                assert_eq!(order, expected, "{keys:?}");
            }
        }
    }
}
