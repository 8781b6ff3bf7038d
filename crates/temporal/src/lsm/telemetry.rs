//! Observability for the tiered temporal index.
//!
//! One [`TieredTelemetry`] is shared by the index and every reader of its
//! registry; [`TieredTelemetry::register`] exports it as the
//! `segidx_temporal_*` metric family (labelled `component="temporal"`), the
//! same registry scheme the concurrent service and server use.

use segidx_obs::{LatencyHistogram, Metric, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    /// Seal wall time (pack + commit), nanoseconds.
    pub seal_latency: LatencyHistogram,
    /// Merge wall time (gather + filter + pack), nanoseconds.
    pub merge_latency: LatencyHistogram,
}

impl TieredTelemetry {
    /// Creates a fresh, zeroed telemetry block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a collector exporting the `segidx_temporal_*` family.
    ///
    /// `labels` is appended to the implicit `component="temporal"` label on
    /// every metric (use it to distinguish multiple tiered indexes).
    pub fn register(self: &Arc<Self>, registry: &MetricsRegistry, labels: &[(&str, &str)]) {
        let t = Arc::clone(self);
        let extra: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        registry.register(Box::new(move |out: &mut Vec<Metric>| {
            let mut l: Vec<(&str, &str)> = vec![("component", "temporal")];
            for (k, v) in &extra {
                l.push((k.as_str(), v.as_str()));
            }
            out.push(Metric::gauge(
                "segidx_temporal_tiers",
                &l,
                t.tier_count.load(Ordering::Relaxed) as f64,
            ));
            out.push(Metric::gauge(
                "segidx_temporal_memtable_entries",
                &l,
                t.memtable_entries.load(Ordering::Relaxed) as f64,
            ));
            out.push(Metric::gauge(
                "segidx_temporal_sealed_entries",
                &l,
                t.sealed_entries.load(Ordering::Relaxed) as f64,
            ));
            out.push(Metric::gauge(
                "segidx_temporal_tombstones",
                &l,
                t.tombstones.load(Ordering::Relaxed) as f64,
            ));
            out.push(Metric::counter(
                "segidx_temporal_seals_total",
                &l,
                t.seals_total.load(Ordering::Relaxed),
            ));
            out.push(Metric::counter(
                "segidx_temporal_merges_total",
                &l,
                t.merges_total.load(Ordering::Relaxed),
            ));
            out.push(Metric::counter(
                "segidx_temporal_sealed_entries_total",
                &l,
                t.sealed_entries_total.load(Ordering::Relaxed),
            ));
            out.push(Metric::counter(
                "segidx_temporal_merged_entries_total",
                &l,
                t.merged_entries_total.load(Ordering::Relaxed),
            ));
            out.push(Metric::counter(
                "segidx_temporal_merge_dropped_total",
                &l,
                t.merge_dropped_total.load(Ordering::Relaxed),
            ));
            out.push(Metric::counter(
                "segidx_temporal_pins_total",
                &l,
                t.pins_total.load(Ordering::Relaxed),
            ));
            out.push(Metric::counter(
                "segidx_temporal_tiers_pinned_total",
                &l,
                t.tiers_pinned_total.load(Ordering::Relaxed),
            ));
            out.push(Metric::histogram(
                "segidx_temporal_seal_latency_nanos",
                &l,
                t.seal_latency.snapshot(),
            ));
            out.push(Metric::histogram(
                "segidx_temporal_merge_latency_nanos",
                &l,
                t.merge_latency.snapshot(),
            ));
        }));
    }
}
