//! Rebuilding a drifted index as a fresh Skeleton (`REINDEX`-style).
//!
//! A Skeleton pre-partitioned for one distribution degrades when the data
//! drifts (paper §4's adaptation handles gradual drift; wholesale change is
//! better served by rebuilding). [`Tree::rebuild_as_skeleton`] derives
//! exact per-dimension histograms from the *current* contents, constructs a
//! fresh Skeleton sized for them, and reinserts everything.

use crate::skeleton::build::{build_skeleton, SkeletonSpec};
use crate::skeleton::histogram::Histogram;
use crate::tree::Tree;
use segidx_geom::Rect;
use std::collections::HashMap;

impl<const D: usize> Tree<D> {
    /// Reconstructs the logical records currently in the index.
    ///
    /// A record cut into portions (paper §3.1.1) is restored by uniting its
    /// portions — they tile the original rectangle exactly, so the union is
    /// the original geometry. Returned sorted by record id, so everything
    /// built from it (a skeleton rebuild) is a pure function of the tree.
    pub fn logical_records(&self) -> Vec<(Rect<D>, crate::id::RecordId)> {
        let mut merged: HashMap<crate::id::RecordId, Rect<D>> = HashMap::with_capacity(self.len());
        for (rect, record) in self.iter_entries() {
            merged
                .entry(record)
                .and_modify(|r| r.expand_to_cover(&rect))
                .or_insert(rect);
        }
        let mut records: Vec<_> = merged.into_iter().map(|(id, r)| (r, id)).collect();
        records.sort_unstable_by_key(|&(_, id)| id);
        records
    }

    /// Builds a fresh Skeleton index over this tree's current contents,
    /// with partition histograms derived from the data itself (exact, not
    /// predicted) over `domain`. The new tree uses this tree's
    /// configuration; the original is left untouched.
    ///
    /// # Panics
    /// Panics if any record's center lies outside `domain` in some
    /// dimension — widen the domain to cover the data first.
    pub fn rebuild_as_skeleton(&self, domain: Rect<D>) -> Tree<D> {
        let records = self.logical_records();
        let histograms = (0..D)
            .map(|d| {
                let values: Vec<f64> = records.iter().map(|(r, _)| r.center()[d]).collect();
                Histogram::equi_depth(
                    values,
                    domain.interval(d),
                    DistributionBins::for_len(records.len()),
                )
            })
            .collect();
        let spec = SkeletonSpec {
            domain,
            expected_tuples: records.len().max(1),
            histograms,
        };
        let mut fresh = build_skeleton(self.config.clone(), &spec);
        for (rect, record) in records {
            fresh.insert(rect, record);
        }
        fresh
    }
}

/// Histogram resolution scaled to the input size (the builder resamples to
/// each level's partition count anyway; this only bounds estimate quality).
struct DistributionBins;

impl DistributionBins {
    fn for_len(n: usize) -> usize {
        (n / 100).clamp(16, 256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use crate::id::RecordId;

    fn domain() -> Rect<2> {
        Rect::new([0.0, 0.0], [100_000.0, 100_000.0])
    }

    #[test]
    fn logical_records_restore_cut_geometry() {
        // Tiny nodes (capacity 4) so cutting reliably fires.
        let mut t: Tree<2> = Tree::new(IndexConfig {
            leaf_node_bytes: 160,
            segment: true,
            ..IndexConfig::default()
        });
        let mut originals = Vec::new();
        for i in 0..3_000u64 {
            let x = ((i * 97) % 2_000) as f64;
            let y = ((i * 41) % 500) as f64;
            let len = if i % 31 == 0 {
                700.0
            } else if i % 7 == 0 {
                90.0
            } else {
                3.0
            };
            let r = Rect::new([x, y], [x + len, y]);
            t.insert(r, RecordId(i));
            originals.push((r, RecordId(i)));
        }
        assert!(t.stats().cuts > 0, "cut records present");
        let restored = t.logical_records();
        originals.sort_by_key(|(_, id)| *id);
        assert_eq!(restored, originals, "unions restore the original rects");
    }

    #[test]
    fn rebuild_improves_a_drifted_skeleton() {
        // Build a skeleton sized for data in one corner, then overwrite the
        // workload with data in the opposite corner.
        let corner_a: Vec<f64> = (0..1000).map(|i| (i % 10_000) as f64).collect();
        let spec = SkeletonSpec {
            domain: domain(),
            expected_tuples: 20_000,
            histograms: vec![
                Histogram::equi_depth(corner_a.clone(), domain().interval(0), 32),
                Histogram::equi_depth(corner_a, domain().interval(1), 32),
            ],
        };
        let mut config = IndexConfig::srtree();
        config.coalesce = Some(Default::default());
        let mut drifted = build_skeleton(config, &spec);
        for i in 0..20_000u64 {
            // Actual data: opposite corner.
            let x = 80_000.0 + ((i * 37) % 19_000) as f64;
            let y = 80_000.0 + ((i * 113) % 19_000) as f64;
            drifted.insert(Rect::new([x, y], [x + 40.0, y]), RecordId(i));
        }
        drifted.assert_invariants();

        let rebuilt = drifted.rebuild_as_skeleton(domain());
        rebuilt.assert_invariants();
        assert_eq!(rebuilt.len(), drifted.len());

        // Same answers…
        let q = Rect::new([85_000.0, 85_000.0], [90_000.0, 90_000.0]);
        assert_eq!(rebuilt.search(&q), drifted.search(&q));
        // …with fewer nodes and cheaper searches.
        assert!(
            rebuilt.node_count() < drifted.node_count(),
            "rebuilt {} vs drifted {}",
            rebuilt.node_count(),
            drifted.node_count()
        );
        let a = drifted.count_search_accesses(&q);
        let b = rebuilt.count_search_accesses(&q);
        assert!(b <= a, "rebuilt accesses {b} vs drifted {a}");
    }

    #[test]
    fn rebuild_of_empty_tree() {
        let t: Tree<2> = Tree::new(IndexConfig::rtree());
        let rebuilt = t.rebuild_as_skeleton(domain());
        assert!(rebuilt.is_empty());
        rebuilt.assert_invariants();
    }
}
