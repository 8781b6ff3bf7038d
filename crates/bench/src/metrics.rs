//! Maps experiment results onto the `segidx-obs` metrics model.
//!
//! Every [`GraphResult`] series contributes one labeled set of the
//! [`METRICS`] families (`graph` and `variant` labels): the logical
//! node-access counters, the structural maintenance counters and the node
//! count — exact per seed, like the rest of `reproduce`'s output, which
//! times nothing. The resulting [`MetricsSnapshot`] is what `reproduce
//! --metrics-out` writes as JSON.

use crate::runner::GraphResult;
use segidx_obs::{Family, Metric, MetricsSnapshot};
use std::io::Write as _;
use std::path::Path;

const SEARCH_NODE_ACCESSES_TOTAL: Family = Family::counter("segidx_search_node_accesses_total");
const SEARCHES_TOTAL: Family = Family::counter("segidx_searches_total");
const MAINTENANCE_NODE_ACCESSES_TOTAL: Family =
    Family::counter("segidx_maintenance_node_accesses_total");
const LEAF_SPLITS_TOTAL: Family = Family::counter("segidx_leaf_splits_total");
const INTERNAL_SPLITS_TOTAL: Family = Family::counter("segidx_internal_splits_total");
const CUTS_TOTAL: Family = Family::counter("segidx_cuts_total");
const COALESCES_TOTAL: Family = Family::counter("segidx_coalesces_total");
const AVG_NODES_PER_SEARCH: Family = Family::gauge("segidx_avg_nodes_per_search");
const NODE_COUNT: Family = Family::counter("segidx_node_count");

/// The paper families, one set per (graph, variant), emitted by
/// [`metrics_snapshot`].
pub const METRICS: &[Family] = &[
    SEARCH_NODE_ACCESSES_TOTAL,
    SEARCHES_TOTAL,
    MAINTENANCE_NODE_ACCESSES_TOTAL,
    LEAF_SPLITS_TOTAL,
    INTERNAL_SPLITS_TOTAL,
    CUTS_TOTAL,
    COALESCES_TOTAL,
    AVG_NODES_PER_SEARCH,
    NODE_COUNT,
];

/// One self-contained snapshot of every metric the experiments produced.
pub fn metrics_snapshot(results: &[GraphResult]) -> MetricsSnapshot {
    let mut metrics = Vec::new();
    for result in results {
        let graph = format!("{}", result.experiment.graph.number());
        for series in &result.series {
            let l: &[(&str, &str)] = &[("graph", &graph), ("variant", series.variant.name())];
            let s = &series.stats;
            metrics.extend([
                Metric::counter(SEARCH_NODE_ACCESSES_TOTAL.name, l, s.search_node_accesses),
                Metric::counter(SEARCHES_TOTAL.name, l, s.searches),
                Metric::counter(
                    MAINTENANCE_NODE_ACCESSES_TOTAL.name,
                    l,
                    s.maintenance_node_accesses,
                ),
                Metric::counter(LEAF_SPLITS_TOTAL.name, l, s.leaf_splits),
                Metric::counter(INTERNAL_SPLITS_TOTAL.name, l, s.internal_splits),
                Metric::counter(CUTS_TOTAL.name, l, s.cuts),
                Metric::counter(COALESCES_TOTAL.name, l, s.coalesces),
                Metric::gauge(
                    AVG_NODES_PER_SEARCH.name,
                    l,
                    s.avg_nodes_per_search().unwrap_or(0.0),
                ),
                Metric::counter(NODE_COUNT.name, l, series.build.node_count as u64),
            ]);
        }
    }
    MetricsSnapshot { metrics }
}

/// Writes the metrics for `results` as JSON to `path`, creating parent
/// directories as needed.
pub fn write_metrics_json(results: &[GraphResult], path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(metrics_snapshot(results).to_json().as_bytes())?;
    f.write_all(b"\n")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, Graph};
    use crate::runner::run_experiment;
    use segidx_obs::json;
    use segidx_obs::MetricValue;
    use std::collections::BTreeSet;

    fn tiny_results() -> Vec<GraphResult> {
        let e = Experiment {
            tuples: 3_000,
            queries_per_qar: 5,
            ..Experiment::quick(Graph::G3)
        };
        vec![run_experiment(&e)]
    }

    /// Every (graph, variant) series emits exactly the declared families,
    /// each of its declared kind, and its sweep's searches were counted.
    #[test]
    fn snapshot_covers_every_variant_and_metric() {
        let results = tiny_results();
        let snap = metrics_snapshot(&results);
        let declared: BTreeSet<_> = METRICS.iter().map(|f| (f.name, f.kind)).collect();
        for series in &results[0].series {
            let labels = [
                ("graph".to_string(), "3".to_string()),
                ("variant".to_string(), series.variant.name().to_string()),
            ];
            let emitted: BTreeSet<_> = snap
                .metrics
                .iter()
                .filter(|m| m.labels == labels)
                .map(|m| (m.name.as_str(), m.value.kind()))
                .collect();
            assert_eq!(emitted, declared, "{}", series.variant.name());
            let l = [("graph", "3"), ("variant", series.variant.name())];
            match &snap.get(SEARCHES_TOTAL.name, &l).unwrap().value {
                MetricValue::Counter(n) => assert_eq!(*n, 13 * 5, "every search counted"),
                other => panic!("expected counter, got {other:?}"),
            }
        }
        assert_eq!(snap.metrics.len(), results[0].series.len() * METRICS.len());
    }

    #[test]
    fn written_json_parses_and_roundtrips() {
        let results = tiny_results();
        let dir = std::env::temp_dir().join("segidx-metrics-test");
        let path = dir.join("metrics.json");
        write_metrics_json(&results, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let value = json::parse(&text).unwrap();
        let metrics = value.get("metrics").and_then(|v| v.as_array()).unwrap();
        assert!(!metrics.is_empty());
        // Round-trip: render → parse → render is a fixpoint.
        assert_eq!(
            json::parse(&value.render()).unwrap().render(),
            value.render()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
