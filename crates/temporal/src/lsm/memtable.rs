//! The mutable memtable: where recent intervals live before a seal.
//!
//! Two staging policies, picked by how `sample_target` relates to the seal
//! threshold:
//!
//! * `sample_target == expected` (the default): the memtable stays a flat
//!   append buffer until the seal drains it — O(1) inserts, and the seal's
//!   bulk loader does all the structuring work once. Queries scan the
//!   buffer linearly, bounded by the seal threshold.
//! * `sample_target < expected`: reuses the paper's skeleton build path
//!   (§4) — the first `sample_target` inserts are buffered flat, then fed
//!   through [`DistributionPredictor`] to build a pre-partitioned skeleton
//!   tree sized for the seal threshold, and everything after them is
//!   inserted into that tree. Memtable queries pay tree traversals instead
//!   of a scan, at the price of per-insert tree maintenance.

use segidx_core::{build_skeleton, DistributionPredictor, IndexConfig, RecordId, Tree};
use segidx_geom::Rect;
use std::collections::HashSet;

#[derive(Debug)]
enum Stage<const D: usize> {
    /// Flat append-only buffer (queries scan it linearly).
    Buffer(Vec<(Rect<D>, RecordId)>),
    /// Skeleton tree built from the buffered sample. Boxed: a `Tree`
    /// is an order of magnitude larger than the buffer variant, and
    /// the memtable spends most configurations never holding one.
    Tree(Box<Tree<D>>),
}

/// The mutable tier. Not thread-safe; the owning index serializes access.
#[derive(Debug)]
pub struct Memtable<const D: usize> {
    config: IndexConfig,
    /// Entries expected per seal; sizes the skeleton.
    expected: usize,
    /// Buffer size before the skeleton is built (the paper's `T`).
    sample_target: usize,
    stage: Stage<D>,
    ids: HashSet<RecordId>,
    /// Bounding box of every entry inserted since the last drain (`None`
    /// when there has been none). Deletes leave it as it is: a box that is
    /// too large costs a scan, one that is too small loses an answer.
    fence: Option<Rect<D>>,
}

impl<const D: usize> Memtable<D> {
    /// Creates an empty memtable. `sample_target` entries are buffered
    /// before the skeleton tree is built for `expected` total entries.
    pub fn new(config: IndexConfig, expected: usize, sample_target: usize) -> Self {
        let sample_target = sample_target.clamp(1, expected.max(1));
        Self {
            config,
            expected: expected.max(1),
            sample_target,
            stage: Stage::Buffer(Vec::with_capacity(sample_target)),
            ids: HashSet::new(),
            fence: None,
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the memtable holds nothing.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether `record` currently lives in the memtable.
    pub fn contains(&self, record: RecordId) -> bool {
        self.ids.contains(&record)
    }

    /// Adds an entry. Record ids must be unique among live entries (the
    /// temporal table guarantees this; duplicate ids would make shadowing
    /// checks ambiguous).
    pub fn insert(&mut self, rect: Rect<D>, record: RecordId) {
        debug_assert!(!self.ids.contains(&record), "duplicate live record id");
        self.ids.insert(record);
        self.fence = Some(self.fence.map_or(rect, |f| f.union(&rect)));
        match &mut self.stage {
            Stage::Buffer(buf) => {
                buf.push((rect, record));
                // A sample target at the seal threshold means "never": the
                // seal drains the buffer before a skeleton could earn its
                // build cost.
                if buf.len() >= self.sample_target && self.sample_target < self.expected {
                    self.promote();
                }
            }
            Stage::Tree(tree) => tree.insert(rect, record),
        }
    }

    /// Physically removes an entry. `rect` must be the exact rectangle the
    /// entry was inserted with. Returns whether it was present.
    pub fn delete(&mut self, rect: &Rect<D>, record: RecordId) -> bool {
        if !self.ids.remove(&record) {
            return false;
        }
        match &mut self.stage {
            Stage::Buffer(buf) => {
                // Scan from the tail: deletes overwhelmingly target recent
                // entries (a table update closes the version it just
                // opened). Order is free here — seals re-sort via the bulk
                // loader and queries scan everything.
                let at = buf
                    .iter()
                    .rposition(|&(_, r)| r == record)
                    .expect("id table said the entry was present");
                buf.swap_remove(at);
                true
            }
            Stage::Tree(tree) => {
                let removed = tree.delete(rect, record);
                debug_assert!(removed, "id table said the entry was present");
                removed
            }
        }
    }

    /// Record ids intersecting `query`, each once, in no particular order:
    /// the owning index sorts them together with the tiers' hits. A query
    /// that misses the fence is answered without looking at an entry.
    pub fn search(&self, query: &Rect<D>) -> Vec<RecordId> {
        if !self.fence.is_some_and(|f| f.intersects(query)) {
            return Vec::new();
        }
        match &self.stage {
            Stage::Buffer(buf) => buf
                .iter()
                .filter(|(r, _)| r.intersects(query))
                .map(|&(_, id)| id)
                .collect(),
            Stage::Tree(tree) => tree.search(query),
        }
    }

    /// Takes every entry out, resetting the memtable to its buffer stage.
    pub fn drain(&mut self) -> Vec<(Rect<D>, RecordId)> {
        self.ids.clear();
        self.fence = None;
        let stage = std::mem::replace(
            &mut self.stage,
            Stage::Buffer(Vec::with_capacity(self.sample_target)),
        );
        match stage {
            Stage::Buffer(buf) => buf,
            Stage::Tree(tree) => tree.iter_entries().collect(),
        }
    }

    /// Builds the skeleton tree from the buffered sample and moves every
    /// buffered entry into it.
    fn promote(&mut self) {
        let Stage::Buffer(buf) = &mut self.stage else {
            return;
        };
        let buf = std::mem::take(buf);
        // Domain = sample bounding box, degenerate dimensions widened so
        // the histogram has something to cut. Later inserts may fall
        // outside (monotone streams will); the tree's root region grows to
        // cover them like any R-Tree insert.
        let mut lo = [f64::MAX; D];
        let mut hi = [f64::MIN; D];
        for (r, _) in &buf {
            for d in 0..D {
                lo[d] = lo[d].min(r.lo(d));
                hi[d] = hi[d].max(r.hi(d));
            }
        }
        for d in 0..D {
            if hi[d] - lo[d] < 1.0 {
                hi[d] = lo[d] + 1.0;
            }
        }
        let domain = Rect::new(lo, hi);
        let mut predictor = DistributionPredictor::new(domain, self.expected, buf.len());
        for (r, _) in &buf {
            predictor.offer(*r);
        }
        let (spec, _) = predictor.finish();
        let mut tree = build_skeleton(self.config.clone(), &spec);
        for (rect, record) in buf {
            tree.insert(rect, record);
        }
        self.stage = Stage::Tree(Box::new(tree));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fence_grows_on_insert_stays_on_delete_resets_on_drain() {
        let mut m = Memtable::<2>::new(IndexConfig::srtree(), 64, 64);
        assert_eq!(m.fence, None);
        let a = Rect::new([0.0, 0.0], [1.0, 0.0]);
        let b = Rect::new([10.0, 5.0], [12.0, 5.0]);
        m.insert(a, RecordId(1));
        m.insert(b, RecordId(2));
        assert_eq!(m.fence, Some(Rect::new([0.0, 0.0], [12.0, 5.0])));
        let beside = Rect::new([12.5, 0.0], [13.0, 5.0]);
        assert!(m.search(&beside).is_empty());
        assert_eq!(
            m.search(&Rect::new([12.0, 5.0], [13.0, 6.0])),
            [RecordId(2)]
        );

        // Conservative: the box may outlive the entry that stretched it.
        assert!(m.delete(&b, RecordId(2)));
        assert_eq!(m.fence, Some(Rect::new([0.0, 0.0], [12.0, 5.0])));
        assert!(m.search(&b).is_empty());

        assert_eq!(m.drain(), [(a, RecordId(1))]);
        assert_eq!(m.fence, None);
        assert!(m.search(&a).is_empty());
    }
}
