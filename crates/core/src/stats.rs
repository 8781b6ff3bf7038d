//! Logical index statistics — including the paper's performance metric,
//! the number of index nodes accessed.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters maintained by the tree.
///
/// `node_accesses` is the paper's metric: every node fetched during a search
/// (and, separately tallied, during maintenance) counts as one access,
/// independent of any buffering below the index. Counters bumped from
/// `&self` methods (search) are atomic, which also makes the tree [`Sync`]:
/// any number of threads may search one index concurrently.
#[derive(Debug, Default)]
pub struct TreeStats {
    /// Nodes accessed by search operations.
    pub(crate) search_node_accesses: AtomicU64,
    /// Number of search operations.
    pub(crate) searches: AtomicU64,
    /// Records returned by search operations (cumulative result-set sizes),
    /// the numerator of the running selectivity estimate used to pre-size
    /// result buffers.
    pub(crate) search_results: AtomicU64,
    /// Nodes accessed by insert/delete maintenance.
    pub(crate) maintenance_node_accesses: u64,
    /// Leaf node splits.
    pub(crate) leaf_splits: u64,
    /// Internal node splits.
    pub(crate) internal_splits: u64,
    /// Spanning records promoted to a parent after a split (paper §3.1.2).
    pub(crate) promotions: u64,
    /// Spanning records demoted after a region expansion (paper §3.1.1).
    pub(crate) demotions: u64,
    /// Spanning records relinked to a different branch without demotion.
    pub(crate) relinks: u64,
    /// Records cut into spanning + remnant portions (paper §3.1.1).
    pub(crate) cuts: u64,
    /// Remnant portions inserted as a result of cuts.
    pub(crate) remnants_inserted: u64,
    /// Spanning records stored (gross, including re-stores after demotion).
    pub(crate) spanning_stores: u64,
    /// Node overflows that could not be resolved by a split (too few
    /// branches) and were absorbed elastically.
    pub(crate) elastic_overflows: u64,
    /// Pairs of sibling leaves merged by Skeleton coalescing (paper §4).
    pub(crate) coalesces: u64,
    /// Spanning records demoted to the leaf level to relieve spanning
    /// pressure on a full non-leaf node (smallest-first eviction).
    pub(crate) spanning_evictions: u64,
    /// Leaf entries moved to an adjacent sibling instead of splitting
    /// (Skeleton deferred splitting).
    pub(crate) redistributions: u64,
}

/// A point-in-time copy of [`TreeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Nodes accessed by search operations.
    pub search_node_accesses: u64,
    /// Number of search operations.
    pub searches: u64,
    /// Records returned by search operations (cumulative result-set sizes).
    #[serde(default)]
    pub search_results: u64,
    /// Nodes accessed by insert/delete maintenance.
    pub maintenance_node_accesses: u64,
    /// Leaf node splits.
    pub leaf_splits: u64,
    /// Internal node splits.
    pub internal_splits: u64,
    /// Spanning records promoted to a parent after a split.
    pub promotions: u64,
    /// Spanning records demoted after a region expansion.
    pub demotions: u64,
    /// Spanning records relinked to a different branch without demotion.
    pub relinks: u64,
    /// Records cut into spanning + remnant portions.
    pub cuts: u64,
    /// Remnant portions inserted as a result of cuts.
    pub remnants_inserted: u64,
    /// Spanning records stored (gross).
    pub spanning_stores: u64,
    /// Unresolvable node overflows absorbed elastically.
    pub elastic_overflows: u64,
    /// Sibling leaf merges performed by coalescing.
    pub coalesces: u64,
    /// Spanning records demoted to the leaf level under spanning pressure.
    pub spanning_evictions: u64,
    /// Leaf entries moved to an adjacent sibling instead of splitting.
    pub redistributions: u64,
}

impl TreeStats {
    /// Flushes the node accesses of one completed search in a single atomic
    /// add. The search kernels accumulate accesses in a local counter and
    /// call this once per search, so concurrent readers never contend on the
    /// counter cache line inside the traversal loop.
    pub(crate) fn record_search_accesses(&self, accesses: u64) {
        self.search_node_accesses
            .fetch_add(accesses, Ordering::Relaxed);
    }

    pub(crate) fn record_search(&self) {
        self.searches.fetch_add(1, Ordering::Relaxed);
    }

    /// Flushes the counters of one completed search (one search, its node
    /// accesses, and its result count) — three atomic adds per search total.
    pub(crate) fn flush_search(&self, accesses: u64, results: u64) {
        self.searches.fetch_add(1, Ordering::Relaxed);
        self.search_node_accesses
            .fetch_add(accesses, Ordering::Relaxed);
        self.search_results.fetch_add(results, Ordering::Relaxed);
    }

    /// Running selectivity estimate: mean records returned per search so
    /// far, rounded up. Zero before any searches. Used to pre-size result
    /// buffers.
    pub(crate) fn hits_estimate(&self) -> usize {
        let searches = self.searches.load(Ordering::Relaxed);
        if searches == 0 {
            return 0;
        }
        self.search_results
            .load(Ordering::Relaxed)
            .div_ceil(searches) as usize
    }

    /// Copies the current values.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            search_node_accesses: self.search_node_accesses.load(Ordering::Relaxed),
            searches: self.searches.load(Ordering::Relaxed),
            search_results: self.search_results.load(Ordering::Relaxed),
            maintenance_node_accesses: self.maintenance_node_accesses,
            leaf_splits: self.leaf_splits,
            internal_splits: self.internal_splits,
            promotions: self.promotions,
            demotions: self.demotions,
            relinks: self.relinks,
            cuts: self.cuts,
            remnants_inserted: self.remnants_inserted,
            spanning_stores: self.spanning_stores,
            elastic_overflows: self.elastic_overflows,
            coalesces: self.coalesces,
            spanning_evictions: self.spanning_evictions,
            redistributions: self.redistributions,
        }
    }
}

/// Cloning copies the current counter values into fresh (unshared)
/// atomics — used by [`Tree::clone`](crate::tree::Tree) so a snapshot
/// carries the statistics it was taken with, decoupled from the live tree.
impl Clone for TreeStats {
    fn clone(&self) -> Self {
        Self {
            search_node_accesses: AtomicU64::new(self.search_node_accesses.load(Ordering::Relaxed)),
            searches: AtomicU64::new(self.searches.load(Ordering::Relaxed)),
            search_results: AtomicU64::new(self.search_results.load(Ordering::Relaxed)),
            maintenance_node_accesses: self.maintenance_node_accesses,
            leaf_splits: self.leaf_splits,
            internal_splits: self.internal_splits,
            promotions: self.promotions,
            demotions: self.demotions,
            relinks: self.relinks,
            cuts: self.cuts,
            remnants_inserted: self.remnants_inserted,
            spanning_stores: self.spanning_stores,
            elastic_overflows: self.elastic_overflows,
            coalesces: self.coalesces,
            spanning_evictions: self.spanning_evictions,
            redistributions: self.redistributions,
        }
    }
}

impl StatsSnapshot {
    /// Average nodes accessed per search — the Y axis of the paper's
    /// Graphs 1–6. `None` before any searches.
    pub fn avg_nodes_per_search(&self) -> Option<f64> {
        (self.searches > 0).then(|| self.search_node_accesses as f64 / self.searches as f64)
    }

    /// The activity since `earlier` was taken (saturating per-counter
    /// subtraction). Lets the experiment harness measure one QAR sweep
    /// without touching the tree's cumulative history.
    pub fn diff(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            search_node_accesses: self
                .search_node_accesses
                .saturating_sub(earlier.search_node_accesses),
            searches: self.searches.saturating_sub(earlier.searches),
            search_results: self.search_results.saturating_sub(earlier.search_results),
            maintenance_node_accesses: self
                .maintenance_node_accesses
                .saturating_sub(earlier.maintenance_node_accesses),
            leaf_splits: self.leaf_splits.saturating_sub(earlier.leaf_splits),
            internal_splits: self.internal_splits.saturating_sub(earlier.internal_splits),
            promotions: self.promotions.saturating_sub(earlier.promotions),
            demotions: self.demotions.saturating_sub(earlier.demotions),
            relinks: self.relinks.saturating_sub(earlier.relinks),
            cuts: self.cuts.saturating_sub(earlier.cuts),
            remnants_inserted: self
                .remnants_inserted
                .saturating_sub(earlier.remnants_inserted),
            spanning_stores: self.spanning_stores.saturating_sub(earlier.spanning_stores),
            elastic_overflows: self
                .elastic_overflows
                .saturating_sub(earlier.elastic_overflows),
            coalesces: self.coalesces.saturating_sub(earlier.coalesces),
            spanning_evictions: self
                .spanning_evictions
                .saturating_sub(earlier.spanning_evictions),
            redistributions: self.redistributions.saturating_sub(earlier.redistributions),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_counters_and_average() {
        let s = TreeStats::default();
        s.flush_search(2, 5);
        s.flush_search(1, 0);
        let snap = s.snapshot();
        assert_eq!(snap.searches, 2);
        assert_eq!(snap.search_node_accesses, 3);
        assert_eq!(snap.search_results, 5);
        assert_eq!(snap.avg_nodes_per_search(), Some(1.5));
    }

    #[test]
    fn hits_estimate_tracks_mean_result_size() {
        let s = TreeStats::default();
        assert_eq!(s.hits_estimate(), 0, "no searches yet");
        s.flush_search(1, 10);
        s.flush_search(1, 5);
        assert_eq!(s.hits_estimate(), 8, "ceil(15 / 2)");
    }

    #[test]
    fn diff_measures_a_window_without_reset() {
        let mut s = TreeStats::default();
        s.flush_search(4, 1);
        s.leaf_splits = 2;
        let earlier = s.snapshot();
        s.flush_search(6, 2);
        s.flush_search(2, 0);
        s.leaf_splits += 1;
        let d = s.snapshot().diff(&earlier);
        assert_eq!(d.searches, 2);
        assert_eq!(d.search_node_accesses, 8);
        assert_eq!(d.leaf_splits, 1);
        assert_eq!(d.avg_nodes_per_search(), Some(4.0));
        // The cumulative history is untouched.
        assert_eq!(s.snapshot().searches, 3);
    }
}
