//! The metrics registry: named counters, gauges, and histograms behind one
//! `snapshot()`, exported as JSON.
//!
//! The registry itself stores no metric state — it stores *collectors*,
//! closures that read live counters (a `TreeStats`, an `IoStats`, a
//! [`LatencyHistogram`](crate::LatencyHistogram)) and append [`Metric`]s.
//! Each collector is registered with the table of [`Family`]s it emits,
//! declared once beside it in the crate that owns the counters; a debug
//! build checks every snapshot against those tables, and `metrics_check`
//! validates exported files against the same declarations. This keeps
//! `segidx-obs` free of dependencies on the crates whose state it
//! aggregates.

use crate::hist::{bucket_upper_bound, HistogramSnapshot, BUCKETS};
use crate::json::Value;
use std::sync::Mutex;

/// What a metric family measures, and so how its value exports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricKind {
    /// A monotonically increasing count.
    Counter,
    /// An instantaneous value.
    Gauge,
    /// A latency (or size) distribution.
    Histogram,
}

impl MetricKind {
    /// The kind as the JSON export's `type` field spells it.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One metric family — a name and its kind — as the crate that emits it
/// declares it. Each emitting module keeps a `const` table of its families
/// beside its collector; that table is the one place the name is written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Family {
    /// Metric name, e.g. `segidx_server_requests_total`.
    pub name: &'static str,
    /// What every metric of the family carries.
    pub kind: MetricKind,
}

impl Family {
    /// A counter family.
    pub const fn counter(name: &'static str) -> Self {
        Self {
            name,
            kind: MetricKind::Counter,
        }
    }

    /// A gauge family.
    pub const fn gauge(name: &'static str) -> Self {
        Self {
            name,
            kind: MetricKind::Gauge,
        }
    }

    /// A histogram family.
    pub const fn histogram(name: &'static str) -> Self {
        Self {
            name,
            kind: MetricKind::Histogram,
        }
    }
}

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

impl MetricValue {
    /// The kind this value exports as.
    pub fn kind(&self) -> MetricKind {
        match self {
            MetricValue::Counter(_) => MetricKind::Counter,
            MetricValue::Gauge(_) => MetricKind::Gauge,
            MetricValue::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// One named, labeled metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `segidx_server_requests_total`.
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
/// use segidx_obs::{Family, Metric, MetricsRegistry};
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// const HITS: Family = Family::counter("hits_total");
///
/// let hits = Arc::new(AtomicU64::new(0));
/// let registry = MetricsRegistry::new();
/// let h = Arc::clone(&hits);
/// registry.register(&[HITS], Box::new(move |out| {
///     out.push(Metric::counter(HITS.name, &[], h.load(Ordering::Relaxed)));
/// }));
///
/// hits.fetch_add(3, Ordering::Relaxed);
/// assert!(registry.snapshot().to_json().contains("\"value\":3"));
/// ```
#[derive(Default)]
pub struct MetricsRegistry {
    collectors: Mutex<Vec<(&'static [Family], Collector)>>,
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

    /// Registers a collector together with the families it emits; it runs
    /// on every [`snapshot`](Self::snapshot).
    pub fn register(&self, families: &'static [Family], collector: Collector) {
        self.collectors.lock().unwrap().push((families, collector));
    }

    /// Runs every collector and returns the combined metrics.
    ///
    /// A debug build asserts that each collector emitted only families its
    /// table declares, each with its declared kind.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut metrics = Vec::new();
        for (families, collect) in self.collectors.lock().unwrap().iter() {
            let start = metrics.len();
            collect(&mut metrics);
            for m in &metrics[start..] {
                let kind = m.value.kind();
                debug_assert!(
                    families.iter().any(|f| f.name == m.name && f.kind == kind),
                    "{} emitted as a {} is not a declared family",
                    m.name,
                    kind.name()
                );
            }
        }
        MetricsSnapshot { metrics }
    }
}

/// A point-in-time set of metrics, exportable as JSON.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// The metrics, in collection order.
    pub metrics: Vec<Metric>,
}

impl MetricsSnapshot {
    /// Finds a metric by name and exact label set.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Metric> {
        let labels = own_labels(labels);
        self.metrics
            .iter()
            .find(|m| m.name == name && m.labels == labels)
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
                    ("type".into(), Value::Str(m.value.kind().name().into())),
                ];
                match &m.value {
                    MetricValue::Counter(v) => {
                        fields.push(("value".into(), Value::Int(*v as i64)));
                    }
                    MetricValue::Gauge(v) => {
                        fields.push(("value".into(), Value::Float(*v)));
                    }
                    MetricValue::Histogram(h) => {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;

    const REQUESTS: Family = Family::counter("requests_total");
    const HIT_RATE: Family = Family::gauge("hit_rate");
    const LATENCY: Family = Family::histogram("latency_nanos");
    const FAMILIES: &[Family] = &[REQUESTS, HIT_RATE, LATENCY];

    fn sample() -> MetricsSnapshot {
        let h = LatencyHistogram::new();
        for v in [100, 200, 300, 400_000] {
            h.record(v);
        }
        let l = &[("variant", "R-Tree")];
        MetricsSnapshot {
            metrics: vec![
                Metric::counter(REQUESTS.name, l, 40),
                Metric::gauge(HIT_RATE.name, l, 0.75),
                Metric::histogram(LATENCY.name, l, h.snapshot()),
            ],
        }
    }

    #[test]
    fn registry_runs_collectors_on_each_snapshot() {
        let registry = MetricsRegistry::new();
        registry.register(
            FAMILIES,
            Box::new(|out| out.push(Metric::counter(REQUESTS.name, &[], 1))),
        );
        registry.register(
            FAMILIES,
            Box::new(|out| out.push(Metric::gauge(HIT_RATE.name, &[("x", "y")], 2.0))),
        );
        let snap = registry.snapshot();
        assert_eq!(snap.metrics.len(), 2);
        assert!(snap.get(HIT_RATE.name, &[("x", "y")]).is_some());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "undeclared_total emitted as a counter is not a declared family")]
    fn snapshot_rejects_an_undeclared_name() {
        let registry = MetricsRegistry::new();
        registry.register(
            FAMILIES,
            Box::new(|out| out.push(Metric::counter("undeclared_total", &[], 1))),
        );
        registry.snapshot();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "hit_rate emitted as a counter is not a declared family")]
    fn snapshot_rejects_a_declared_name_of_the_wrong_kind() {
        let registry = MetricsRegistry::new();
        registry.register(
            FAMILIES,
            Box::new(|out| out.push(Metric::counter(HIT_RATE.name, &[], 1))),
        );
        registry.snapshot();
    }

    #[test]
    fn json_parses_back() {
        let snap = sample();
        let parsed = crate::json::parse(&snap.to_json()).unwrap();
        let metrics = parsed.get("metrics").unwrap().as_array().unwrap();
        assert_eq!(metrics.len(), 3);
        for (m, family) in metrics.iter().zip(FAMILIES) {
            assert_eq!(m.get("type").unwrap().as_str(), Some(family.kind.name()));
        }
        let hist = &metrics[2];
        assert_eq!(hist.get("count").unwrap().as_i64(), Some(4));
        assert!(hist.get("p99").unwrap().as_i64().unwrap() >= 400_000);
    }
}
