//! Insertion: ChooseLeaf descent, spanning-record placement, record
//! cutting, region adjustment, and demotion (paper §3.1.1).

use super::Tree;
use crate::entry::{LeafEntry, SpanningEntry};
use crate::id::{NodeId, RecordId};
use segidx_geom::{scan_first_spanned, scan_min_enlargement, Rect};

/// Whether `rect` meets `region` only on a face: in some dimension where
/// `rect` has extent, it lies wholly on the far side of one of `region`'s
/// faces. [`Rect::cut`] would then clip it to a zero-width slice of that
/// face, beside remnants that already cover all of it (the first of them
/// the whole rectangle when no earlier dimension was cut). Such a
/// rectangle is never cut, so a stored portion equal to a record's
/// rectangle always means the record is uncut.
pub(super) fn touches_only<const D: usize>(rect: &Rect<D>, region: &Rect<D>) -> bool {
    (0..D).any(|d| {
        rect.lo(d) < rect.hi(d) && (rect.hi(d) <= region.lo(d) || rect.lo(d) >= region.hi(d))
    })
}

impl<const D: usize> Tree<D> {
    /// Inserts a record.
    ///
    /// In segment (SR) mode the record is stored as a spanning index record
    /// on the highest-level node with a branch region it spans; if it
    /// extends beyond that node's own region it is cut into a spanning
    /// portion and remnant portions (paper §3.1.1, Figures 2–3). Otherwise
    /// it descends to a leaf by Guttman's least-enlargement rule.
    pub fn insert(&mut self, rect: Rect<D>, record: RecordId) {
        let _sp = segidx_obs::trace::span("tree.insert");
        self.len += 1;
        self.insert_portion(rect, record);
        self.drain_pending();
        self.inserts_since_coalesce += 1;
        if let Some(cfg) = self.config.coalesce {
            if self.inserts_since_coalesce >= cfg.check_interval {
                self.inserts_since_coalesce = 0;
                self.coalesce_pass(cfg);
            }
        }
    }

    /// Inserts one physical record portion (no pending drain, no coalesce
    /// trigger) — the building block shared by `insert`, remnant
    /// reinsertion, demotion, and condensation.
    pub(crate) fn insert_portion(&mut self, rect: Rect<D>, record: RecordId) {
        self.insert_portion_inner(rect, record, true);
    }

    /// As [`insert_portion`](Self::insert_portion), with spanning placement
    /// optionally disabled: pressure-relief demotions go straight to a leaf
    /// so they cannot bounce back onto the node that evicted them.
    pub(crate) fn insert_portion_inner(
        &mut self,
        rect: Rect<D>,
        record: RecordId,
        allow_spanning: bool,
    ) {
        let mut n = self.root;
        loop {
            self.touch_maintenance(n);
            if self.node(n).is_leaf() {
                self.insert_into_leaf(n, rect, record);
                return;
            }
            if self.config.segment && allow_spanning {
                if let Some(branch_idx) = self.find_spanned_branch(n, &rect) {
                    // A record meeting `n`'s region only on a face is never
                    // cut: it descends instead.
                    let region = self.region_of(n);
                    if !region.is_some_and(|r| touches_only(&rect, &r))
                        && self.can_host_spanning(n, &rect)
                    {
                        self.insert_spanning(n, branch_idx, region, rect, record);
                        return;
                    }
                    // The node is full of larger spanning records: this one
                    // descends like an ordinary record (it may still find a
                    // spanning slot at a lower level). This keeps each
                    // non-leaf node holding its region's *largest*
                    // intervals, which is the design goal, without cutting
                    // records that would immediately be evicted.
                }
            }
            n = self.choose_branch(n, &rect);
        }
    }

    /// The first branch of `n` whose region the record spans (intersects
    /// and covers in at least one dimension), found by
    /// [`scan_first_spanned`] on the branch planes.
    fn find_spanned_branch(&self, n: NodeId, rect: &Rect<D>) -> Option<usize> {
        let (los, his) = self.node(n).branches().planes();
        scan_first_spanned(rect, los, his)
    }

    /// Whether node `n` should accept `rect` as a spanning record: it has a
    /// free entry slot, or `rect` is decisively larger than the smallest
    /// spanning record currently stored (which will then be evicted
    /// downward). The 1.5× hysteresis dampens displacement churn — each
    /// admission cuts the record against the node's region, so admitting a
    /// record that will soon be displaced wastes space on remnants.
    fn can_host_spanning(&self, n: NodeId, rect: &Rect<D>) -> bool {
        const DISPLACEMENT_HYSTERESIS: f64 = 1.5;
        let node = self.node(n);
        if node.occupancy() < self.config.capacity(node.level) {
            return true;
        }
        node.spanning()
            .iter()
            .any(|s| s.rect.margin() * DISPLACEMENT_HYSTERESIS < rect.margin())
    }

    /// Guttman's ChooseLeaf step: the branch needing least area enlargement
    /// to cover the record, ties broken by smallest area.
    ///
    /// Runs [`scan_min_enlargement`] over the branch store's coordinate
    /// planes — one straight-line arithmetic pass, no per-branch `Rect`
    /// reconstruction.
    pub(crate) fn choose_branch(&self, n: NodeId, rect: &Rect<D>) -> NodeId {
        let branches = self.node(n).branches();
        debug_assert!(!branches.is_empty(), "internal node without branches");
        let (los, his) = branches.planes();
        let (best, _, _) =
            scan_min_enlargement(rect, los, his).expect("internal node without branches");
        branches.child(best)
    }

    /// Stores a spanning index record on `n`, linked to branch
    /// `branch_idx`, cutting it first if it exceeds `n`'s own `region`
    /// (`None` on the root).
    fn insert_spanning(
        &mut self,
        n: NodeId,
        branch_idx: usize,
        region: Option<Rect<D>>,
        rect: Rect<D>,
        record: RecordId,
    ) {
        let linked_child = self.node(n).branches().child(branch_idx);
        let stored_rect = match region {
            Some(region) if !region.contains_rect(&rect) => {
                // Cut into a spanning portion (clipped to n's region, so the
                // containment invariant holds) and remnant portions that are
                // reinserted from the root (paper Figure 3).
                let cut = rect.cut(&region);
                self.stats.cuts += 1;
                // Remnants are reinserted at the leaf level, as in the
                // paper's Figure 3 (the remnant portion "is stored in leaf
                // node E"). Letting remnants re-enter spanning placement
                // can dice one record into thousands of portions when host
                // regions are much smaller than the record.
                for remnant in cut.remnants {
                    self.stats.remnants_inserted += 1;
                    self.queue_leaf_reinsert(remnant, record);
                }
                cut.spanning
                    .expect("record spans a branch inside the region, so the clip is non-empty")
            }
            // Contained, or stored on the root (which every search visits,
            // so no containment constraint applies).
            _ => rect,
        };
        debug_assert!(
            stored_rect.spans_any_dim(&self.node(n).branches().rect(branch_idx)),
            "clipped spanning portion must still span the linked branch"
        );
        let node = self.node_mut(n);
        node.spanning_mut().push(SpanningEntry {
            rect: stored_rect,
            record,
            linked_child,
        });
        node.touch_modified();
        self.entry_count += 1;
        self.stats.spanning_stores += 1;
        self.handle_overflow(n);
    }

    /// Adds a record to a leaf, expands stored regions up the path, runs
    /// demotion checks on expanded nodes, and resolves overflow.
    fn insert_into_leaf(&mut self, leaf: NodeId, rect: Rect<D>, record: RecordId) {
        let node = self.node_mut(leaf);
        node.entries_mut().push(LeafEntry { rect, record });
        node.touch_modified();
        self.entry_count += 1;
        self.adjust_upward(leaf, &rect);
        self.handle_overflow(leaf);
    }

    /// Expands stored regions from `start` to the root so they cover
    /// `rect`. Each expansion may break former spanning relationships on the
    /// parent, so expanded branches get a demotion check (paper §3.1.1:
    /// "possible demotion of spanning index records").
    pub(crate) fn adjust_upward(&mut self, start: NodeId, rect: &Rect<D>) {
        let mut child = start;
        while let Some(parent) = self.node(child).parent {
            self.touch_maintenance(parent);
            let bi = self
                .node(parent)
                .branch_index_of(child)
                .expect("parent pointer without matching branch");
            let old = self.node(parent).branches().rect(bi);
            if old.contains_rect(rect) {
                // Stored regions nest upward, so every ancestor already
                // covers the record.
                break;
            }
            let expanded = old.union(rect);
            self.node_mut(parent).branches_mut().set_rect(bi, &expanded);
            if self.config.segment {
                self.recheck_spanning_links(parent, child);
            }
            child = parent;
        }
    }

    /// Re-checks spanning records linked to the just-expanded branch
    /// (pointing at `expanded_child`) on node `parent`. Records that no
    /// longer span it are relinked to another branch they still span, or
    /// removed and queued for reinsertion (demotion). Returns before
    /// reading any branch when no spanning record links `expanded_child` —
    /// the common case: most regions grow under no spanning record.
    pub(crate) fn recheck_spanning_links(&mut self, parent: NodeId, expanded_child: NodeId) {
        let node = self.node(parent);
        if !node.spanning().links_to(expanded_child) {
            return;
        }
        let bi = node
            .branch_index_of(expanded_child)
            .expect("expanded branch present");
        let expanded = node.branches().rect(bi);
        if self.relink_spanning(parent, expanded_child, |r| r.spans_any_dim(&expanded)) {
            self.node_mut(parent).touch_modified();
        }
    }

    /// Moves every spanning record on `parent` linked to `child` that
    /// `stays` rejects: relinked to the first branch it spans
    /// ([`scan_first_spanned`] on the branch planes), or, spanning none,
    /// removed and queued for reinsertion. Returns whether any record was
    /// demoted. The scan covers every branch and needs no exclusion of
    /// `child`'s: a caller rejects only records that no longer span it, or
    /// has removed it.
    pub(crate) fn relink_spanning(
        &mut self,
        parent: NodeId,
        child: NodeId,
        stays: impl Fn(&Rect<D>) -> bool,
    ) -> bool {
        let mut demoted = false;
        let mut i = 0;
        while i < self.node(parent).spanning().len() {
            let node = self.node(parent);
            if node.spanning().linked_child(i) != child {
                i += 1;
                continue;
            }
            let s = node.spanning().get(i);
            if stays(&s.rect) {
                i += 1;
                continue;
            }
            let branches = node.branches();
            let (los, his) = branches.planes();
            match scan_first_spanned(&s.rect, los, his).map(|j| branches.child(j)) {
                Some(to) => {
                    self.node_mut(parent).spanning_mut().set_linked_child(i, to);
                    self.stats.relinks += 1;
                    i += 1;
                }
                None => {
                    self.node_mut(parent).spanning_mut().swap_remove(i);
                    self.entry_count -= 1;
                    self.stats.demotions += 1;
                    self.queue_reinsert(s.rect, s.record);
                    demoted = true;
                }
            }
        }
        demoted
    }
}
