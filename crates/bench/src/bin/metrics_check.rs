//! Validates an exported metrics JSON file against the metric families the
//! workspace declares.
//!
//! Each emitting crate declares its families once, as a `const` table of
//! (name, kind) beside the collector that emits them: the paper families
//! (`segidx_bench::metrics::METRICS`), the index service's
//! (`segidx_concurrent::METRICS`), the tracer's
//! (`segidx_obs::trace::METRICS`), the server's
//! (`segidx_server::telemetry::METRICS`) and the temporal tier's
//! (`segidx_temporal::lsm::telemetry::METRICS`). One pass checks a file
//! against those tables:
//!
//! * every metric is a declared family, exported as its declared kind;
//! * every gauge is finite and ≥ 0;
//! * a group (one table) that appears at all appears whole, per (graph,
//!   variant) — and every graph of the paper group carries the paper's
//!   four variants;
//! * the groups the mode names are present, and the histograms it names
//!   hold at least one observation, with `p50`/`p95`/`p99`.
//!
//! Modes:
//!
//! * default — a `reproduce --metrics-out` export: the paper families
//!   (exact counts; `reproduce` times nothing, so no histogram).
//! * `--server` — a `segidx_server` `METRICS` snapshot (what `loadgen
//!   --metrics-out` saves): the server's, its tracer's, the index
//!   service's and the temporal tier's families; the server's read and
//!   write latency and the index's queue-wait and commit latency
//!   non-empty (a smoke run need not seal a temporal tier).
//! * `--temporal` — a `temporal_bench --metrics-out` snapshot: the
//!   temporal tier's families; seal and merge latency non-empty (the
//!   gated ingest seals and merges many times over).
//!
//! Usage: `metrics_check [--server | --temporal] <metrics.json>`. Exits
//! non-zero with a description of the first problem found.

use segidx_bench::{metrics as paper, Variant};
use segidx_obs::json::{self, Value};
use segidx_obs::{trace, Family, MetricKind};
use segidx_server::telemetry as server;
use segidx_temporal::lsm::telemetry as temporal;
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, path) = match args.as_slice() {
        [path] => (&PAPER, path),
        [flag, path] if flag == "--server" => (&SERVER, path),
        [flag, path] if flag == "--temporal" => (&TEMPORAL, path),
        _ => {
            eprintln!("usage: metrics_check [--server | --temporal] <metrics.json>");
            return ExitCode::from(2);
        }
    };
    let checked = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| check(mode, &text));
    match checked {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("metrics_check: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every declared family, by the collector (group) that emits it.
const GROUPS: [(&str, &[Family]); 5] = [
    ("paper", paper::METRICS),
    ("concurrent", segidx_concurrent::METRICS),
    ("trace", trace::METRICS),
    ("server", server::METRICS),
    ("temporal", temporal::METRICS),
];

/// What one kind of file must carry.
struct Mode {
    /// Groups that must appear.
    groups: &'static [&'static str],
    /// Histograms that must hold at least one observation.
    non_empty: &'static [Family],
}

const PAPER: Mode = Mode {
    groups: &["paper"],
    non_empty: &[],
};

const SERVER: Mode = Mode {
    groups: &["server", "concurrent", "trace", "temporal"],
    non_empty: &[
        server::READ_LATENCY_NANOS,
        server::WRITE_LATENCY_NANOS,
        segidx_concurrent::QUEUE_WAIT_NANOS,
        segidx_concurrent::COMMIT_LATENCY_NANOS,
    ],
};

const TEMPORAL: Mode = Mode {
    groups: &["temporal"],
    non_empty: &[temporal::SEAL_LATENCY_NANOS, temporal::MERGE_LATENCY_NANOS],
};

/// Checks one exported document; returns a one-line summary.
fn check(mode: &Mode, text: &str) -> Result<String, String> {
    let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_array)
        .ok_or("missing top-level \"metrics\" array")?;

    // The families seen per (group, graph, variant).
    let mut seen: BTreeMap<(&str, String, String), BTreeSet<&str>> = BTreeMap::new();
    for m in metrics {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric without a \"name\"")?;
        let (group, family) = GROUPS
            .iter()
            .find_map(|(group, families)| {
                families
                    .iter()
                    .find(|f| f.name == name)
                    .map(|f| (*group, *f))
            })
            .ok_or_else(|| format!("{name}: not a declared family"))?;
        let kind = m.get("type").and_then(Value::as_str).unwrap_or("");
        if kind != family.kind.name() {
            return Err(format!(
                "{name}: declared a {}, exported as {kind:?}",
                family.kind.name()
            ));
        }
        if family.kind == MetricKind::Gauge {
            match m.get("value").and_then(Value::as_f64) {
                Some(v) if v.is_finite() && v >= 0.0 => {}
                v => return Err(format!("{name}: gauge must be finite and >= 0, got {v:?}")),
            }
        }
        if mode.non_empty.contains(&family) {
            if m.get("count").and_then(Value::as_i64).unwrap_or(0) <= 0 {
                return Err(format!("{name}: empty histogram"));
            }
            for q in ["p50", "p95", "p99"] {
                if m.get(q).and_then(Value::as_i64).is_none() {
                    return Err(format!("{name}: missing {q}"));
                }
            }
        }
        let label = |key: &str| {
            let v = m.get("labels").and_then(|l| l.get(key));
            v.and_then(Value::as_str).unwrap_or("").to_string()
        };
        seen.entry((group, label("graph"), label("variant")))
            .or_default()
            .insert(family.name);
    }

    for ((group, graph, variant), names) in &seen {
        let (_, families) = GROUPS
            .iter()
            .find(|(g, _)| g == group)
            .expect("every group seen is one of GROUPS");
        if let Some(f) = families.iter().find(|f| !names.contains(f.name)) {
            return Err(format!(
                "{group} group (graph {graph:?}, variant {variant:?}): missing {}",
                f.name
            ));
        }
    }
    for group in mode.groups {
        if !seen.keys().any(|(g, ..)| g == group) {
            return Err(format!("no {group} families"));
        }
    }
    let variants: BTreeSet<&str> = Variant::ALL.iter().map(Variant::name).collect();
    let mut graphs: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (_, graph, variant) in seen.keys().filter(|(g, ..)| *g == "paper") {
        graphs.entry(graph).or_default().insert(variant);
    }
    for (graph, seen_variants) in graphs {
        if seen_variants != variants {
            return Err(format!(
                "graph {graph:?}: variants {seen_variants:?}, expected the paper's four {variants:?}"
            ));
        }
    }

    let groups: BTreeSet<&str> = seen.keys().map(|(g, ..)| *g).collect();
    Ok(format!(
        "ok: {} metrics, {} declared groups present {groups:?}",
        metrics.len(),
        groups.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use segidx_obs::{LatencyHistogram, Metric, MetricValue, MetricsSnapshot};

    /// A well-formed metric of family `f`.
    fn metric(f: &Family, labels: &[(&str, &str)]) -> Metric {
        match f.kind {
            MetricKind::Counter => Metric::counter(f.name, labels, 7),
            MetricKind::Gauge => Metric::gauge(f.name, labels, 0.5),
            MetricKind::Histogram => {
                let h = LatencyHistogram::new();
                h.record(1_000);
                Metric::histogram(f.name, labels, h.snapshot())
            }
        }
    }

    fn render(metrics: Vec<Metric>) -> String {
        MetricsSnapshot { metrics }.to_json()
    }

    fn family(table: &[Family], suffix: &str) -> Family {
        *table.iter().find(|f| f.name.ends_with(suffix)).unwrap()
    }

    fn set(metrics: &mut [Metric], f: Family, value: MetricValue) {
        for m in metrics.iter_mut().filter(|m| m.name == f.name) {
            m.value = value.clone();
        }
    }

    /// What `reproduce --metrics-out` exports for one graph.
    fn paper_export() -> Vec<Metric> {
        Variant::ALL
            .iter()
            .flat_map(|v| {
                let labels = [("graph", "3"), ("variant", v.name())];
                paper::METRICS.iter().map(move |f| metric(f, &labels))
            })
            .collect()
    }

    /// What the server's `METRICS` statement returns: its own families and
    /// its tracer's, the index service's, and the temporal tier's.
    fn server_snapshot() -> Vec<Metric> {
        let mut out = Vec::new();
        for f in segidx_concurrent::METRICS {
            out.push(metric(f, &[("component", "concurrent")]));
        }
        for f in server::METRICS.iter().chain(trace::METRICS) {
            out.push(metric(f, &[("component", "server")]));
        }
        for f in temporal::METRICS {
            out.push(metric(f, &[("component", "temporal")]));
        }
        out
    }

    fn temporal_snapshot() -> Vec<Metric> {
        let labels = [("component", "temporal")];
        temporal::METRICS
            .iter()
            .map(|f| metric(f, &labels))
            .collect()
    }

    fn err(mode: &Mode, metrics: Vec<Metric>) -> String {
        check(mode, &render(metrics)).unwrap_err()
    }

    #[test]
    fn well_formed_exports_pass() {
        check(&PAPER, &render(paper_export())).unwrap();
        check(&SERVER, &render(server_snapshot())).unwrap();
        check(&TEMPORAL, &render(temporal_snapshot())).unwrap();
    }

    #[test]
    fn an_undeclared_family_fails() {
        let mut metrics = paper_export();
        let undeclared = format!("{}_extra", paper::METRICS[0].name);
        metrics.push(Metric::counter(undeclared, &[("graph", "3")], 1));
        assert!(err(&PAPER, metrics).contains("_extra: not a declared family"));
    }

    /// A server snapshot whose temporal tier count is typed a histogram
    /// and that lacks the tracer's families: each fault fails on its own.
    #[test]
    fn a_mistyped_temporal_family_or_a_missing_tracer_fails_the_server_check() {
        let tiers = family(temporal::METRICS, "_temporal_tiers");
        assert_eq!(tiers.kind, MetricKind::Gauge);
        let mistyped = |mut metrics: Vec<Metric>| {
            set(
                &mut metrics,
                tiers,
                MetricValue::Histogram(LatencyHistogram::new().snapshot()),
            );
            metrics
        };
        let untraced = |mut metrics: Vec<Metric>| {
            metrics.retain(|m| !trace::METRICS.iter().any(|f| f.name == m.name));
            metrics
        };
        let e = err(&SERVER, mistyped(untraced(server_snapshot())));
        assert!(
            e.contains("declared a gauge, exported as \"histogram\""),
            "{e}"
        );
        let e = err(&SERVER, mistyped(server_snapshot()));
        assert!(e.starts_with(tiers.name), "{e}");
        assert_eq!(
            err(&SERVER, untraced(server_snapshot())),
            "no trace families"
        );
    }

    /// A paper export whose `segidx_cuts_total` is typed a gauge and
    /// reads −3.5: the kind check stops it before the value is read.
    #[test]
    fn a_negative_counter_exported_as_a_gauge_fails() {
        let cuts = family(paper::METRICS, "_cuts_total");
        let mut metrics = paper_export();
        set(&mut metrics, cuts, MetricValue::Gauge(-3.5));
        let e = err(&PAPER, metrics);
        assert!(
            e.contains("declared a counter, exported as \"gauge\""),
            "{e}"
        );
    }

    #[test]
    fn a_negative_or_non_finite_gauge_fails() {
        let avg_nodes = family(paper::METRICS, "_avg_nodes_per_search");
        for bad in [-0.25, f64::NAN] {
            let mut metrics = paper_export();
            set(&mut metrics, avg_nodes, MetricValue::Gauge(bad));
            let e = err(&PAPER, metrics);
            assert!(e.contains("gauge must be finite and >= 0"), "{e}");
        }
    }

    #[test]
    fn a_family_missing_from_a_present_group_fails() {
        let epoch = segidx_concurrent::METRICS[0];
        let mut metrics = server_snapshot();
        metrics.retain(|m| m.name != epoch.name);
        let e = err(&SERVER, metrics);
        assert!(
            e.starts_with("concurrent group") && e.ends_with(epoch.name),
            "{e}"
        );

        // Per (graph, variant): one variant short of one family.
        let mut metrics = paper_export();
        let last = metrics.len() - 1;
        metrics.remove(last);
        assert!(err(&PAPER, metrics).starts_with("paper group (graph \"3\""));
    }

    #[test]
    fn an_empty_required_histogram_fails() {
        let mut metrics = server_snapshot();
        let empty = MetricValue::Histogram(LatencyHistogram::new().snapshot());
        set(&mut metrics, server::WRITE_LATENCY_NANOS, empty.clone());
        let e = err(&SERVER, metrics);
        assert_eq!(
            e,
            format!("{}: empty histogram", server::WRITE_LATENCY_NANOS.name)
        );

        // The temporal tier's histograms may be empty behind the server,
        // not in the gated ingest.
        let mut metrics = server_snapshot();
        set(&mut metrics, temporal::SEAL_LATENCY_NANOS, empty.clone());
        check(&SERVER, &render(metrics)).unwrap();
        let mut metrics = temporal_snapshot();
        set(&mut metrics, temporal::SEAL_LATENCY_NANOS, empty);
        assert!(err(&TEMPORAL, metrics).ends_with("empty histogram"));
    }

    #[test]
    fn a_missing_paper_variant_fails() {
        let last = Variant::ALL[3].name();
        let mut metrics = paper_export();
        metrics.retain(|m| !m.labels.iter().any(|(_, v)| v == last));
        let e = err(&PAPER, metrics);
        assert!(e.starts_with("graph \"3\": variants"), "{e}");
    }

    #[test]
    fn a_file_without_its_mode_groups_fails() {
        assert_eq!(err(&PAPER, server_snapshot()), "no paper families");
        assert_eq!(err(&TEMPORAL, paper_export()), "no temporal families");
        assert!(check(&PAPER, "{}").is_err());
    }
}
