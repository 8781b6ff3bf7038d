//! The metrics registry: named counters, gauges, and histograms behind one
//! `snapshot()`/`diff()` API, with pretty-text, JSON, and Prometheus text
//! exposition exports.
//!
//! The registry itself stores no metric state — it stores *collectors*,
//! closures that read live counters (a `TreeStats`, an `IoStats`, a
//! [`LatencyHistogram`]) and append [`Metric`]s. `snapshot()` runs every
//! collector, producing a [`MetricsSnapshot`] that can be diffed against an
//! earlier one or exported. This keeps `segidx-obs` free of dependencies on
//! the crates whose state it aggregates.

use crate::hist::{bucket_upper_bound, HistogramSnapshot, BUCKETS};
use crate::json::Value;
use std::fmt::Write as _;
use std::sync::Mutex;

/// The value of one metric.
///
/// The histogram variant is ~0.5 KB (64 inline bucket counts); metric sets
/// are small and short-lived, so inline storage beats a boxed indirection.
#[derive(Clone, Debug, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// An instantaneous value.
    Gauge(f64),
    /// A latency (or size) distribution.
    Histogram(HistogramSnapshot),
}

/// One named, labeled metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `segidx_search_latency_nanos`.
    pub name: String,
    /// Label pairs, e.g. `[("variant", "SR-Tree"), ("graph", "3")]`.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: MetricValue,
}

impl Metric {
    /// A counter metric.
    pub fn counter(name: impl Into<String>, labels: &[(&str, &str)], value: u64) -> Self {
        Self {
            name: name.into(),
            labels: own_labels(labels),
            value: MetricValue::Counter(value),
        }
    }

    /// A gauge metric.
    pub fn gauge(name: impl Into<String>, labels: &[(&str, &str)], value: f64) -> Self {
        Self {
            name: name.into(),
            labels: own_labels(labels),
            value: MetricValue::Gauge(value),
        }
    }

    /// A histogram metric.
    pub fn histogram(
        name: impl Into<String>,
        labels: &[(&str, &str)],
        value: HistogramSnapshot,
    ) -> Self {
        Self {
            name: name.into(),
            labels: own_labels(labels),
            value: MetricValue::Histogram(value),
        }
    }

    /// The identity used for matching in [`MetricsSnapshot::diff`].
    fn key(&self) -> (&str, &[(String, String)]) {
        (&self.name, &self.labels)
    }
}

fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// A collector reads live state and appends metrics to the snapshot.
pub type Collector = Box<dyn Fn(&mut Vec<Metric>) + Send + Sync>;

/// Aggregates metrics from registered collectors.
///
/// ```
/// use segidx_obs::{Metric, MetricsRegistry};
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let hits = Arc::new(AtomicU64::new(0));
/// let registry = MetricsRegistry::new();
/// let h = Arc::clone(&hits);
/// registry.register(Box::new(move |out| {
///     out.push(Metric::counter("hits_total", &[], h.load(Ordering::Relaxed)));
/// }));
///
/// hits.fetch_add(3, Ordering::Relaxed);
/// let earlier = registry.snapshot();
/// hits.fetch_add(2, Ordering::Relaxed);
/// let delta = registry.snapshot().diff(&earlier);
/// assert!(delta.to_text().contains("hits_total"));
/// ```
#[derive(Default)]
pub struct MetricsRegistry {
    collectors: Mutex<Vec<Collector>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("collectors", &self.collectors.lock().unwrap().len())
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a collector; it runs on every [`snapshot`](Self::snapshot).
    pub fn register(&self, collector: Collector) {
        self.collectors.lock().unwrap().push(collector);
    }

    /// Number of registered collectors.
    pub fn collector_count(&self) -> usize {
        self.collectors.lock().unwrap().len()
    }

    /// Registers a collector exposing a [`Tracer`](crate::Tracer)'s health:
    /// operations offered / traces recorded and completed (counters), spans
    /// dropped to the per-trace buffer cap (counter **and** gauge, so the
    /// current loss level is visible without diffing), and how many slow
    /// traces the flight recorder currently retains (gauge).
    pub fn register_tracer(&self, tracer: &std::sync::Arc<crate::Tracer>, labels: &[(&str, &str)]) {
        let tracer = std::sync::Arc::clone(tracer);
        let labels = own_labels(labels);
        self.register(Box::new(move |out| {
            let borrowed: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            out.push(Metric::counter(
                "segidx_trace_started_total",
                &borrowed,
                tracer.started(),
            ));
            out.push(Metric::counter(
                "segidx_trace_sampled_total",
                &borrowed,
                tracer.sampled(),
            ));
            out.push(Metric::counter(
                "segidx_trace_spans_dropped_total",
                &borrowed,
                tracer.spans_dropped(),
            ));
            out.push(Metric::gauge(
                "segidx_trace_spans_dropped",
                &borrowed,
                tracer.spans_dropped() as f64,
            ));
            out.push(Metric::gauge(
                "segidx_trace_flight_retained",
                &borrowed,
                tracer.flight().retained() as f64,
            ));
        }));
    }

    /// Runs every collector and returns the combined metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut metrics = Vec::new();
        for c in self.collectors.lock().unwrap().iter() {
            c(&mut metrics);
        }
        MetricsSnapshot { metrics }
    }
}

/// A point-in-time set of metrics, exportable as text, JSON, or Prometheus.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// The metrics, in collection order.
    pub metrics: Vec<Metric>,
}

impl MetricsSnapshot {
    /// The change since `earlier`: counters and histograms are subtracted
    /// (saturating), gauges keep their current value. Metrics absent from
    /// `earlier` pass through unchanged; metrics only in `earlier` are
    /// dropped.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let prev = earlier.metrics.iter().find(|p| p.key() == m.key());
                let value = match (&m.value, prev.map(|p| &p.value)) {
                    (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                        MetricValue::Counter(now.saturating_sub(*then))
                    }
                    (MetricValue::Histogram(now), Some(MetricValue::Histogram(then))) => {
                        MetricValue::Histogram(now.diff(then))
                    }
                    (v, _) => v.clone(),
                };
                Metric {
                    name: m.name.clone(),
                    labels: m.labels.clone(),
                    value,
                }
            })
            .collect();
        MetricsSnapshot { metrics }
    }

    /// Finds a metric by name and exact label set.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Metric> {
        let labels = own_labels(labels);
        self.metrics
            .iter()
            .find(|m| m.name == name && m.labels == labels)
    }

    /// Pretty, aligned, human-readable text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let width = self
            .metrics
            .iter()
            .map(|m| m.name.len() + render_labels(&m.labels).len())
            .max()
            .unwrap_or(0);
        for m in &self.metrics {
            let id = format!("{}{}", m.name, render_labels(&m.labels));
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{id:<width$}  {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{id:<width$}  {v:.4}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{id:<width$}  count={} mean={:.0} p50={} p95={} p99={} max={}",
                        h.count,
                        h.mean().unwrap_or(0.0),
                        h.p50().unwrap_or(0),
                        h.p95().unwrap_or(0),
                        h.p99().unwrap_or(0),
                        h.max,
                    );
                }
            }
        }
        out
    }

    /// The snapshot as a [`Value`] tree (see [`to_json`](Self::to_json)).
    pub fn to_json_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("name".to_string(), Value::Str(m.name.clone())),
                    (
                        "labels".to_string(),
                        Value::Object(
                            m.labels
                                .iter()
                                .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                                .collect(),
                        ),
                    ),
                ];
                match &m.value {
                    MetricValue::Counter(v) => {
                        fields.push(("type".into(), Value::Str("counter".into())));
                        fields.push(("value".into(), Value::Int(*v as i64)));
                    }
                    MetricValue::Gauge(v) => {
                        fields.push(("type".into(), Value::Str("gauge".into())));
                        fields.push(("value".into(), Value::Float(*v)));
                    }
                    MetricValue::Histogram(h) => {
                        fields.push(("type".into(), Value::Str("histogram".into())));
                        fields.push(("count".into(), Value::Int(h.count as i64)));
                        fields.push(("sum".into(), Value::Int(h.sum as i64)));
                        fields.push(("max".into(), Value::Int(h.max as i64)));
                        let opt = |v: Option<u64>| match v {
                            Some(v) => Value::Int(v as i64),
                            None => Value::Null,
                        };
                        fields.push(("p50".into(), opt(h.p50())));
                        fields.push(("p95".into(), opt(h.p95())));
                        fields.push(("p99".into(), opt(h.p99())));
                        let buckets = (0..BUCKETS)
                            .filter(|&i| h.counts[i] > 0)
                            .map(|i| {
                                Value::Array(vec![
                                    Value::Int(bucket_upper_bound(i).min(i64::MAX as u64) as i64),
                                    Value::Int(h.counts[i] as i64),
                                ])
                            })
                            .collect();
                        fields.push(("buckets".into(), Value::Array(buckets)));
                    }
                }
                Value::Object(fields)
            })
            .collect();
        Value::Object(vec![("metrics".to_string(), Value::Array(metrics))])
    }

    /// Compact JSON: `{"metrics":[{name, labels, type, ...}, ...]}`.
    /// Histograms carry `count`, `sum`, `max`, `p50`/`p95`/`p99`, and the
    /// non-empty `[upper_bound, count]` buckets.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// Prometheus text exposition format (version 0.0.4).
    ///
    /// Histograms are emitted in the native Prometheus histogram shape:
    /// cumulative `_bucket{le="..."}` series plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: Vec<&str> = Vec::new();
        for m in &self.metrics {
            let name = sanitize_name(&m.name);
            let (kind, base) = match &m.value {
                MetricValue::Counter(_) => ("counter", name.clone()),
                MetricValue::Gauge(_) => ("gauge", name.clone()),
                MetricValue::Histogram(_) => ("histogram", name.clone()),
            };
            if !typed.contains(&&*m.name) {
                let _ = writeln!(out, "# TYPE {base} {kind}");
                typed.push(&m.name);
            }
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{name}{} {v}", prom_labels(&m.labels, None));
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{name}{} {v}", prom_labels(&m.labels, None));
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for i in 0..BUCKETS {
                        if h.counts[i] == 0 {
                            continue;
                        }
                        cumulative += h.counts[i];
                        let le = bucket_upper_bound(i).to_string();
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cumulative}",
                            prom_labels(&m.labels, Some(&le))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{name}_bucket{} {}",
                        prom_labels(&m.labels, Some("+Inf")),
                        h.count
                    );
                    let _ = writeln!(out, "{name}_sum{} {}", prom_labels(&m.labels, None), h.sum);
                    let _ = writeln!(
                        out,
                        "{name}_count{} {}",
                        prom_labels(&m.labels, None),
                        h.count
                    );
                }
            }
        }
        out
    }
}

/// Replaces characters Prometheus forbids in metric names.
fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{{{}}}", inner.join(","))
}

fn prom_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_name(k), v.replace('"', "\\\"")))
        .collect();
    if let Some(le) = le {
        pairs.push(format!("le=\"{le}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;

    fn sample() -> MetricsSnapshot {
        let h = LatencyHistogram::new();
        for v in [100, 200, 300, 400_000] {
            h.record(v);
        }
        MetricsSnapshot {
            metrics: vec![
                Metric::counter("segidx_searches_total", &[("variant", "R-Tree")], 40),
                Metric::gauge("segidx_hit_rate", &[("variant", "R-Tree")], 0.75),
                Metric::histogram(
                    "segidx_search_latency_nanos",
                    &[("variant", "R-Tree")],
                    h.snapshot(),
                ),
            ],
        }
    }

    #[test]
    fn text_export_mentions_everything() {
        let text = sample().to_text();
        assert!(text.contains("segidx_searches_total{variant=R-Tree}"));
        assert!(text
            .lines()
            .any(|l| l.starts_with("segidx_searches_total") && l.ends_with("40")));
        assert!(text.contains("segidx_hit_rate"));
        assert!(text.contains("p99="));
    }

    #[test]
    fn diff_subtracts_counters_keeps_gauges() {
        let earlier = MetricsSnapshot {
            metrics: vec![Metric::counter("c", &[], 10), Metric::gauge("g", &[], 1.0)],
        };
        let later = MetricsSnapshot {
            metrics: vec![
                Metric::counter("c", &[], 25),
                Metric::gauge("g", &[], 2.0),
                Metric::counter("new", &[], 7),
            ],
        };
        let d = later.diff(&earlier);
        assert_eq!(d.get("c", &[]).unwrap().value, MetricValue::Counter(15));
        assert_eq!(d.get("g", &[]).unwrap().value, MetricValue::Gauge(2.0));
        assert_eq!(d.get("new", &[]).unwrap().value, MetricValue::Counter(7));
    }

    #[test]
    fn registry_runs_collectors_on_each_snapshot() {
        let registry = MetricsRegistry::new();
        registry.register(Box::new(|out| {
            out.push(Metric::counter("a", &[], 1));
        }));
        registry.register(Box::new(|out| {
            out.push(Metric::gauge("b", &[("x", "y")], 2.0));
        }));
        assert_eq!(registry.collector_count(), 2);
        let snap = registry.snapshot();
        assert_eq!(snap.metrics.len(), 2);
        assert!(snap.get("b", &[("x", "y")]).is_some());
    }

    #[test]
    fn prometheus_shape() {
        let prom = sample().to_prometheus();
        assert!(prom.contains("# TYPE segidx_searches_total counter"));
        assert!(prom.contains("segidx_searches_total{variant=\"R-Tree\"} 40"));
        assert!(prom.contains("# TYPE segidx_search_latency_nanos histogram"));
        assert!(prom.contains("le=\"+Inf\"} 4"));
        assert!(prom.contains("segidx_search_latency_nanos_count{variant=\"R-Tree\"} 4"));
    }

    #[test]
    fn json_parses_back() {
        let snap = sample();
        let parsed = crate::json::parse(&snap.to_json()).unwrap();
        let metrics = parsed.get("metrics").unwrap().as_array().unwrap();
        assert_eq!(metrics.len(), 3);
        let hist = &metrics[2];
        assert_eq!(hist.get("type").unwrap().as_str(), Some("histogram"));
        assert_eq!(hist.get("count").unwrap().as_i64(), Some(4));
        assert!(hist.get("p99").unwrap().as_i64().unwrap() >= 400_000);
    }
}
