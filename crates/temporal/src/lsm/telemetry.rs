//! Observability for the tiered temporal index.
//!
//! One [`TieredTelemetry`] is shared by the index and every reader of its
//! registry; [`TieredTelemetry::register`] exports it as the [`METRICS`]
//! families (labelled `component="temporal"`), the same registry scheme
//! the concurrent service and server use.

use segidx_obs::{Family, LatencyHistogram, Metric, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const TIERS: Family = Family::gauge("segidx_temporal_tiers");
const MEMTABLE_ENTRIES: Family = Family::gauge("segidx_temporal_memtable_entries");
const SEALED_ENTRIES: Family = Family::gauge("segidx_temporal_sealed_entries");
const TOMBSTONES: Family = Family::gauge("segidx_temporal_tombstones");
const SEALS_TOTAL: Family = Family::counter("segidx_temporal_seals_total");
const MERGES_TOTAL: Family = Family::counter("segidx_temporal_merges_total");
const SEALED_ENTRIES_TOTAL: Family = Family::counter("segidx_temporal_sealed_entries_total");
const MERGED_ENTRIES_TOTAL: Family = Family::counter("segidx_temporal_merged_entries_total");
const MERGE_DROPPED_TOTAL: Family = Family::counter("segidx_temporal_merge_dropped_total");
const PINS_TOTAL: Family = Family::counter("segidx_temporal_pins_total");
const TIERS_PINNED_TOTAL: Family = Family::counter("segidx_temporal_tiers_pinned_total");
/// Seal wall time, nanoseconds.
pub const SEAL_LATENCY_NANOS: Family = Family::histogram("segidx_temporal_seal_latency_nanos");
/// Merge wall time, nanoseconds.
pub const MERGE_LATENCY_NANOS: Family = Family::histogram("segidx_temporal_merge_latency_nanos");

/// The tiered index's metric families, emitted by
/// [`TieredTelemetry::register`].
pub const METRICS: &[Family] = &[
    TIERS,
    MEMTABLE_ENTRIES,
    SEALED_ENTRIES,
    TOMBSTONES,
    SEALS_TOTAL,
    MERGES_TOTAL,
    SEALED_ENTRIES_TOTAL,
    MERGED_ENTRIES_TOTAL,
    MERGE_DROPPED_TOTAL,
    PINS_TOTAL,
    TIERS_PINNED_TOTAL,
    SEAL_LATENCY_NANOS,
    MERGE_LATENCY_NANOS,
];

/// The label on every metric the tier emits.
const LABELS: &[(&str, &str)] = &[("component", "temporal")];

/// Counters, gauges, and latency histograms for the tier lifecycle.
#[derive(Debug, Default)]
pub struct TieredTelemetry {
    /// Gauge: sealed tiers currently live.
    pub tier_count: AtomicU64,
    /// Gauge: entries buffered in the mutable memtable.
    pub memtable_entries: AtomicU64,
    /// Gauge: entries across all sealed tiers (stale copies included).
    pub sealed_entries: AtomicU64,
    /// Gauge: live tombstones shadowing sealed entries.
    pub tombstones: AtomicU64,
    /// Counter: memtable seals performed.
    pub seals_total: AtomicU64,
    /// Counter: tier merges performed.
    pub merges_total: AtomicU64,
    /// Counter: entries sealed into tiers, cumulative.
    pub sealed_entries_total: AtomicU64,
    /// Counter: entries written out by merges, cumulative.
    pub merged_entries_total: AtomicU64,
    /// Counter: entries dropped by merges as stale (shadowed or tombstoned).
    pub merge_dropped_total: AtomicU64,
    /// Counter: searches begun ([`pin`] or [`search`]).
    ///
    /// [`pin`]: super::TieredTemporalIndex::pin
    /// [`search`]: super::TieredTemporalIndex::search
    pub pins_total: AtomicU64,
    /// Counter: sealed tiers those searches had to look into — the ones
    /// whose fence met the query. Per pin, against the `tier_count` gauge,
    /// this is what the fences save.
    pub tiers_pinned_total: AtomicU64,
    /// Seal wall time, nanoseconds: sort the memtable by id and build its
    /// HINT, wait for and splice in the previous merge, hand the worker the
    /// next, and, with a disk attached, pack and commit the checkpoint.
    pub seal_latency: LatencyHistogram,
    /// Merge wall time on the worker, nanoseconds: the k-way merge of the
    /// record-sorted inputs, dropping shadowed copies, and one HINT build.
    pub merge_latency: LatencyHistogram,
}

impl TieredTelemetry {
    /// Creates a fresh, zeroed telemetry block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a collector exporting the [`METRICS`] families, labelled
    /// `component="temporal"`.
    pub fn register(self: &Arc<Self>, registry: &MetricsRegistry) {
        let t = Arc::clone(self);
        registry.register(
            METRICS,
            Box::new(move |out: &mut Vec<Metric>| {
                let gauge = |f: Family, v: &AtomicU64| {
                    Metric::gauge(f.name, LABELS, v.load(Ordering::Relaxed) as f64)
                };
                let counter = |f: Family, v: &AtomicU64| {
                    Metric::counter(f.name, LABELS, v.load(Ordering::Relaxed))
                };
                out.extend([
                    gauge(TIERS, &t.tier_count),
                    gauge(MEMTABLE_ENTRIES, &t.memtable_entries),
                    gauge(SEALED_ENTRIES, &t.sealed_entries),
                    gauge(TOMBSTONES, &t.tombstones),
                    counter(SEALS_TOTAL, &t.seals_total),
                    counter(MERGES_TOTAL, &t.merges_total),
                    counter(SEALED_ENTRIES_TOTAL, &t.sealed_entries_total),
                    counter(MERGED_ENTRIES_TOTAL, &t.merged_entries_total),
                    counter(MERGE_DROPPED_TOTAL, &t.merge_dropped_total),
                    counter(PINS_TOTAL, &t.pins_total),
                    counter(TIERS_PINNED_TOTAL, &t.tiers_pinned_total),
                    Metric::histogram(SEAL_LATENCY_NANOS.name, LABELS, t.seal_latency.snapshot()),
                    Metric::histogram(MERGE_LATENCY_NANOS.name, LABELS, t.merge_latency.snapshot()),
                ]);
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registered_metrics_are_the_declared_families() {
        let registry = MetricsRegistry::new();
        Arc::new(TieredTelemetry::new()).register(&registry);
        let snap = registry.snapshot();
        assert!(snap
            .metrics
            .iter()
            .all(|m| m.labels == [("component".to_string(), "temporal".to_string())]));
        let emitted: BTreeSet<_> = snap
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.value.kind()))
            .collect();
        let declared: BTreeSet<_> = METRICS.iter().map(|f| (f.name, f.kind)).collect();
        assert_eq!(emitted, declared);
    }
}
