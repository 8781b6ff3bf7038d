//! Maps experiment results onto the `segidx-obs` metrics model.
//!
//! Every [`GraphResult`] series contributes one labeled family of metrics
//! (`graph` and `variant` labels), covering the latency histograms recorded
//! by the per-variant [`TreeTelemetry`](segidx_core::TreeTelemetry), the
//! logical node-access counters, the structural maintenance counters, and
//! the buffer-pool hit rate. The resulting [`MetricsSnapshot`] exports to
//! JSON (written by `reproduce --metrics-out`) and Prometheus text.

use crate::runner::GraphResult;
use segidx_concurrent::{ConcurrentIndex, IndexOp, SubmitError};
use segidx_core::{IndexConfig, RecordId, Tree};
use segidx_geom::Rect;
use segidx_obs::json::{self, Value};
use segidx_obs::trace::{OpClass, Tracer};
use segidx_obs::{Metric, MetricsRegistry, MetricsSnapshot};
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

/// Builds a registry whose single collector re-reads `results` on every
/// snapshot. The collector holds the results by `Arc`, so snapshots taken
/// later (or diffed) observe a consistent copy.
pub fn metrics_registry(results: Arc<Vec<GraphResult>>) -> MetricsRegistry {
    let registry = MetricsRegistry::new();
    registry.register(Box::new(move |out| collect(&results, out)));
    registry
}

/// One self-contained snapshot of every metric the experiments produced.
pub fn metrics_snapshot(results: &[GraphResult]) -> MetricsSnapshot {
    let mut metrics = Vec::new();
    collect(results, &mut metrics);
    MetricsSnapshot { metrics }
}

fn collect(results: &[GraphResult], out: &mut Vec<Metric>) {
    for result in results {
        let graph = format!("{}", result.experiment.graph.number());
        for series in &result.series {
            let labels: &[(&str, &str)] = &[("graph", &graph), ("variant", series.variant.name())];
            out.push(Metric::histogram(
                "segidx_search_latency_nanos",
                labels,
                series.search_latency,
            ));
            out.push(Metric::histogram(
                "segidx_insert_latency_nanos",
                labels,
                series.insert_latency,
            ));
            let s = &series.stats;
            out.push(Metric::counter(
                "segidx_search_node_accesses_total",
                labels,
                s.search_node_accesses,
            ));
            out.push(Metric::counter("segidx_searches_total", labels, s.searches));
            out.push(Metric::counter(
                "segidx_maintenance_node_accesses_total",
                labels,
                s.maintenance_node_accesses,
            ));
            out.push(Metric::counter(
                "segidx_leaf_splits_total",
                labels,
                s.leaf_splits,
            ));
            out.push(Metric::counter(
                "segidx_internal_splits_total",
                labels,
                s.internal_splits,
            ));
            out.push(Metric::counter("segidx_cuts_total", labels, s.cuts));
            out.push(Metric::counter(
                "segidx_coalesces_total",
                labels,
                s.coalesces,
            ));
            out.push(Metric::gauge(
                "segidx_buffer_pool_hit_rate",
                labels,
                series.buffer_pool_hit_rate(),
            ));
            out.push(Metric::gauge(
                "segidx_avg_nodes_per_search",
                labels,
                s.avg_nodes_per_search().unwrap_or(0.0),
            ));
            out.push(Metric::counter(
                "segidx_build_ms",
                labels,
                series.build.build_ms,
            ));
            out.push(Metric::counter(
                "segidx_node_count",
                labels,
                series.build.node_count as u64,
            ));
        }
    }
}

/// Exercises the concurrent index service briefly and returns its metric
/// families — the epoch/queue-depth/retired-snapshot gauges, commit
/// counters and latency histograms from
/// [`IndexHandle::register_metrics`](segidx_concurrent::IndexHandle::register_metrics).
/// All carry a `component="concurrent"` label instead of `graph`/`variant`.
pub fn concurrent_service_metrics() -> Vec<Metric> {
    let registry = MetricsRegistry::new();
    let index = ConcurrentIndex::builder(Tree::<2>::new(IndexConfig::srtree()))
        .max_batch(8)
        .start()
        .expect("memory-only start cannot fail");
    index
        .handle()
        .register_metrics(&registry, &[("component", "concurrent")]);

    // A few hundred commits with a pinned reader: enough traffic to fill
    // every histogram and retire snapshots.
    let pinned = index.snapshot();
    for i in 0..400u64 {
        let x = (i % 100) as f64 * 10.0;
        let op = IndexOp::Insert {
            rect: Rect::new([x, x], [x + 5.0, x + 5.0]),
            record: RecordId(i),
        };
        loop {
            match index.submit(op) {
                Ok(_) => break,
                Err(SubmitError::Overloaded { .. }) => std::thread::yield_now(),
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
    }
    index.flush().expect("memory-only flush cannot fail");
    let metrics = registry.snapshot().metrics;
    drop(pinned);
    index.shutdown();
    metrics
}

/// Exercises an SR-Tree index service under forced tracing and
/// returns the tracer's metric families (`segidx_trace_*` under
/// `component="trace"`) together with the flight recorder's summary —
/// the slowest retained trace per op class, each carrying its span tree
/// and phase/profile breakdown. `reproduce --metrics-out` embeds the
/// summary as the top-level `flight_recorder` key in `metrics.json`.
pub fn traced_service_metrics() -> (Vec<Metric>, Value) {
    let tracer = Arc::new(Tracer::with_config(1, 2, 4096));
    let registry = MetricsRegistry::new();
    let index = ConcurrentIndex::builder(Tree::<2>::new(IndexConfig::srtree()))
        .max_batch(8)
        .tracer(Arc::clone(&tracer))
        .start()
        .expect("memory-only start cannot fail");
    index
        .handle()
        .register_metrics(&registry, &[("component", "trace")]);

    // Traced writes: each ticket wait pulls the writer's queue-wait /
    // apply / publish phases into the submitting trace.
    for i in 0..32u64 {
        let x = (i % 25) as f64 * 8.0 + if i % 2 == 0 { 0.0 } else { 500.0 };
        let y = (i % 20) as f64 * 12.0;
        let _g = tracer.force(OpClass::Insert, "metrics_insert");
        index
            .submit(IndexOp::Insert {
                rect: Rect::new([x, y], [x + 4.0, y + 4.0]),
                record: RecordId(i),
            })
            .expect("queue cannot fill while every submit waits")
            .wait()
            .expect("memory-only commit cannot fail");
    }
    // Traced reads: batch window searches on a pinned snapshot.
    for i in 0..8u64 {
        let _g = tracer.force(OpClass::Search, "metrics_search");
        let snap = index.snapshot();
        let q = Rect::new([0.0, (i * 10) as f64], [1_000.0, 1_000.0]);
        let _ = snap.search_batch(&[q]);
    }
    let metrics = registry.snapshot().metrics;
    let flight = tracer.flight().summary_json();
    index.shutdown();
    (metrics, flight)
}

/// Writes the metrics for `results` as JSON to `path`, creating parent
/// directories as needed. The export also carries the concurrent index
/// service's metric families (see [`concurrent_service_metrics`]), the
/// tracer health families, and a
/// top-level `flight_recorder` object with the slowest retained trace per
/// op class (see [`traced_service_metrics`]).
pub fn write_metrics_json(results: &[GraphResult], path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut snapshot = metrics_snapshot(results);
    snapshot.metrics.extend(concurrent_service_metrics());
    let (trace_metrics, flight) = traced_service_metrics();
    snapshot.metrics.extend(trace_metrics);
    // Splice the flight-recorder summary in as a sibling of "metrics".
    let rendered = snapshot.to_json();
    let body = match json::parse(&rendered) {
        Ok(Value::Object(mut fields)) => {
            fields.push(("flight_recorder".to_string(), flight));
            Value::Object(fields).render()
        }
        // to_json always renders an object; fall back to it verbatim.
        _ => rendered,
    };
    let mut f = std::fs::File::create(path)?;
    f.write_all(body.as_bytes())?;
    f.write_all(b"\n")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, Graph};
    use crate::runner::run_experiment;
    use segidx_obs::json;

    fn tiny_results() -> Vec<GraphResult> {
        let e = Experiment {
            tuples: 3_000,
            queries_per_qar: 5,
            ..Experiment::quick(Graph::G3)
        };
        vec![run_experiment(&e)]
    }

    #[test]
    fn snapshot_covers_every_variant_and_metric() {
        let results = tiny_results();
        let snap = metrics_snapshot(&results);
        for series in &results[0].series {
            let labels: &[(&str, &str)] = &[("graph", "3"), ("variant", series.variant.name())];
            let search = snap.get("segidx_search_latency_nanos", labels).unwrap();
            match &search.value {
                segidx_obs::MetricValue::Histogram(h) => {
                    assert!(h.count > 0, "searches were timed");
                    assert!(h.p99().is_some());
                }
                other => panic!("expected histogram, got {other:?}"),
            }
            assert!(snap.get("segidx_insert_latency_nanos", labels).is_some());
            assert!(snap
                .get("segidx_search_node_accesses_total", labels)
                .is_some());
            assert!(snap.get("segidx_buffer_pool_hit_rate", labels).is_some());
        }
    }

    #[test]
    fn registry_collector_rereads_results() {
        let results = Arc::new(tiny_results());
        let registry = metrics_registry(Arc::clone(&results));
        assert_eq!(registry.collector_count(), 1);
        let a = registry.snapshot();
        let b = registry.snapshot();
        assert_eq!(a, b, "same results, same snapshot");
        assert!(a.diff(&b).metrics.iter().all(|m| match &m.value {
            segidx_obs::MetricValue::Counter(v) => *v == 0,
            _ => true,
        }));
    }

    #[test]
    fn concurrent_service_metrics_cover_gauges_counters_and_histograms() {
        let metrics = concurrent_service_metrics();
        let snap = MetricsSnapshot { metrics };
        let labels: &[(&str, &str)] = &[("component", "concurrent")];
        for name in [
            "segidx_concurrent_epoch",
            "segidx_concurrent_queue_depth",
            "segidx_concurrent_retired_snapshots",
        ] {
            assert!(snap.get(name, labels).is_some(), "missing gauge {name}");
        }
        let commits = snap.get("segidx_concurrent_commits_total", labels).unwrap();
        match &commits.value {
            segidx_obs::MetricValue::Counter(v) => assert!(*v > 0, "service committed"),
            other => panic!("expected counter, got {other:?}"),
        }
        for name in [
            "segidx_concurrent_queue_wait_nanos",
            "segidx_concurrent_commit_latency_nanos",
        ] {
            match &snap.get(name, labels).unwrap().value {
                segidx_obs::MetricValue::Histogram(h) => assert!(h.count > 0, "{name} empty"),
                other => panic!("expected histogram, got {other:?}"),
            }
        }
    }

    #[test]
    fn traced_service_metrics_populate_tracer_families_and_flight_summary() {
        let (metrics, flight) = traced_service_metrics();
        let snap = MetricsSnapshot { metrics };
        let labels: &[(&str, &str)] = &[("component", "trace")];
        for name in [
            "segidx_trace_started_total",
            "segidx_trace_sampled_total",
            "segidx_trace_spans_dropped_total",
            "segidx_trace_spans_dropped",
            "segidx_trace_flight_retained",
        ] {
            assert!(snap.get(name, labels).is_some(), "missing {name}");
        }
        match &snap
            .get("segidx_trace_sampled_total", labels)
            .unwrap()
            .value
        {
            segidx_obs::MetricValue::Counter(v) => assert!(*v >= 40, "forced 40 traces, got {v}"),
            other => panic!("expected counter, got {other:?}"),
        }
        // The summary retains both op classes, each with a well-formed
        // slowest entry carrying a duration and a profile.
        for class in ["insert", "search"] {
            let entry = flight.get(class).unwrap_or_else(|| panic!("no {class}"));
            assert!(entry.get("retained").and_then(Value::as_i64).unwrap() >= 1);
            let slowest = entry.get("slowest").unwrap();
            assert!(
                slowest
                    .get("duration_nanos")
                    .and_then(Value::as_i64)
                    .unwrap()
                    > 0
            );
            assert!(slowest.get("profile").is_some(), "{class} profile missing");
        }
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
        let flight = value.get("flight_recorder").expect("flight_recorder key");
        assert!(
            flight.get("search").is_some() || flight.get("insert").is_some(),
            "flight recorder retained at least one class"
        );
        // Round-trip: render → parse → render is a fixpoint.
        assert_eq!(
            json::parse(&value.render()).unwrap().render(),
            value.render()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
