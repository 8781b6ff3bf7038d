//! Opt-in wall-clock telemetry for the index engine.
//!
//! The paper's metric — logical node accesses — and every structural
//! change (splits, cuts, promotions, demotions, coalesces) are always
//! counted by [`TreeStats`](crate::stats::TreeStats). Wall-clock latency
//! costs `Instant` reads, so it is **opt-in**: a [`Tree`](crate::Tree) holds
//! `Option<Arc<TreeTelemetry>>` defaulting to `None`, and a disabled tree
//! pays exactly one null check per operation and no clock reads.
//!
//! Enable with [`Tree::set_telemetry`](crate::Tree::set_telemetry) (or the
//! [`IntervalIndex`](crate::api::IntervalIndex) method of the same name):
//!
//! ```
//! use segidx_core::{IndexConfig, RecordId, Tree, TreeTelemetry};
//! use segidx_geom::Rect;
//! use std::sync::Arc;
//!
//! let telemetry = Arc::new(TreeTelemetry::new());
//! let mut tree: Tree<1> = Tree::new(IndexConfig::rtree());
//! tree.set_telemetry(Some(Arc::clone(&telemetry)));
//!
//! for i in 0..200u64 {
//!     let lo = i as f64;
//!     tree.insert(Rect::new([lo], [lo + 3.0]), RecordId(i));
//! }
//! tree.search(&Rect::new([50.0], [60.0]));
//!
//! let snap = telemetry.snapshot();
//! assert_eq!(snap.insert.count, 200);
//! assert_eq!(snap.search.count, 1);
//! assert!(tree.stats().leaf_splits > 0);
//! ```

use segidx_obs::{HistogramSnapshot, LatencyHistogram};

/// Per-operation latency histograms.
///
/// One `TreeTelemetry` may be shared by any number of trees (the bench
/// harness gives each variant its own so latencies stay attributable).
/// Histograms record **nanoseconds** of wall time per public operation.
#[derive(Debug, Default)]
pub struct TreeTelemetry {
    /// Range-search latency (`search*` family, including batch queries).
    pub search: LatencyHistogram,
    /// Stabbing-query latency.
    pub stab: LatencyHistogram,
    /// Nearest-neighbor query latency.
    pub nearest: LatencyHistogram,
    /// Insert latency (including any cut/split/reinsertion cascade).
    pub insert: LatencyHistogram,
    /// Delete latency (including condensation and reinsertion).
    pub delete: LatencyHistogram,
    /// Bulk-load latency (one observation per `bulk_load` call).
    pub bulk_load: LatencyHistogram,
}

impl TreeTelemetry {
    /// Empty latency histograms.
    pub fn new() -> Self {
        Self::default()
    }

    /// A point-in-time copy of every histogram.
    pub fn snapshot(&self) -> TreeTelemetrySnapshot {
        TreeTelemetrySnapshot {
            search: self.search.snapshot(),
            stab: self.stab.snapshot(),
            nearest: self.nearest.snapshot(),
            insert: self.insert.snapshot(),
            delete: self.delete.snapshot(),
            bulk_load: self.bulk_load.snapshot(),
        }
    }
}

/// A point-in-time copy of [`TreeTelemetry`]'s histograms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeTelemetrySnapshot {
    /// Range-search latency.
    pub search: HistogramSnapshot,
    /// Stabbing-query latency.
    pub stab: HistogramSnapshot,
    /// Nearest-neighbor query latency.
    pub nearest: HistogramSnapshot,
    /// Insert latency.
    pub insert: HistogramSnapshot,
    /// Delete latency.
    pub delete: HistogramSnapshot,
    /// Bulk-load latency.
    pub bulk_load: HistogramSnapshot,
}

impl TreeTelemetrySnapshot {
    /// The activity since `earlier` (saturating per-histogram subtraction).
    pub fn diff(&self, earlier: &TreeTelemetrySnapshot) -> TreeTelemetrySnapshot {
        TreeTelemetrySnapshot {
            search: self.search.diff(&earlier.search),
            stab: self.stab.diff(&earlier.stab),
            nearest: self.nearest.diff(&earlier.nearest),
            insert: self.insert.diff(&earlier.insert),
            delete: self.delete.diff(&earlier.delete),
            bulk_load: self.bulk_load.diff(&earlier.bulk_load),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_diff_cover_every_operation() {
        let t = TreeTelemetry::new();
        t.search.record(100);
        t.stab.record(200);
        t.nearest.record(300);
        t.insert.record(400);
        t.delete.record(500);
        t.bulk_load.record(600);
        let earlier = t.snapshot();
        t.search.record(1_000);
        let d = t.snapshot().diff(&earlier);
        assert_eq!(d.search.count, 1);
        assert_eq!(d.search.sum, 1_000);
        assert_eq!(d.insert.count, 0);
    }
}
