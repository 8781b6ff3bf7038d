//! Validates a `reproduce --metrics-out` JSON file.
//!
//! CI runs this after the smoke reproduction to guarantee the exported
//! metrics are well-formed: the file parses, is non-empty, every graph
//! carries the paper's four variant labels, and every (graph, variant)
//! pair carries search/insert latency percentiles, the logical
//! node-access counters, and a buffer-pool hit rate. Metrics carrying a
//! `component` label instead are service families and are validated
//! separately:
//!
//! * `component="concurrent"` — the index service must export
//!   the epoch/queue-depth/retired-snapshot gauges, commit counters,
//!   and non-empty queue-wait and commit latency histograms.
//! * `component="trace"` — the tracer's health families
//!   (`segidx_trace_*` counters and gauges) must all be present.
//!
//! Finally, the top-level `flight_recorder` object (slowest retained
//! trace per op class) must exist and each entry must carry a positive
//! `retained` count and a `slowest` trace with duration, span count, and
//! profile.
//!
//! With `--server`, the file is instead a `segidx_server` `METRICS`
//! snapshot (what `loadgen --metrics-out` saves): every
//! `segidx_server_*` per-connection family must be present —
//! `requests_total` across all twelve statement forms, `frames_total`
//! for both framing modes, the connection/error/byte counters, and
//! non-empty read *and* write latency histograms — alongside the full
//! index-service family of the index it fronts
//! (`component="concurrent"`, checked as in the default mode, histograms
//! non-empty) and the temporal tier's
//! gauges/counters (`component="temporal"`, which the server registers
//! for its `RECORD`/`AS OF`/`WITHIN` table).
//!
//! With `--temporal`, the file is a registry snapshot from an ingest
//! run (`temporal_bench --metrics-out`): the full `segidx_temporal_*`
//! family must be present and typed — the four tier-state gauges, the
//! seven lifecycle and search counters, and non-empty seal *and* merge latency
//! histograms (the ingest is sized so both fire).
//!
//! Usage: `metrics_check <path/to/metrics.json>`,
//! `metrics_check --server <path/to/server_metrics.json>`, or
//! `metrics_check --temporal <path/to/temporal_metrics.json>`. Exits
//! non-zero with a description of the first problem found.

use segidx_obs::json::{self, Value};
use std::collections::BTreeSet;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, path) = match args.as_slice() {
        [path] => ("", path.clone()),
        [flag, path] if flag == "--server" || flag == "--temporal" => (flag.as_str(), path.clone()),
        _ => {
            eprintln!("usage: metrics_check [--server | --temporal] <metrics.json>");
            return ExitCode::from(2);
        }
    };
    let checked = match mode {
        "--server" => check_server_file(&path),
        "--temporal" => check_temporal_file(&path),
        _ => check(&path),
    };
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

/// Metrics every (graph, variant) pair must export. Histograms must carry
/// non-null p50/p95/p99 when non-empty.
const REQUIRED_HISTOGRAMS: [&str; 2] =
    ["segidx_search_latency_nanos", "segidx_insert_latency_nanos"];
const REQUIRED_COUNTERS: [&str; 3] = [
    "segidx_search_node_accesses_total",
    "segidx_searches_total",
    "segidx_maintenance_node_accesses_total",
];
const REQUIRED_GAUGES: [&str; 1] = ["segidx_buffer_pool_hit_rate"];

/// Variant labels every graph must export: the paper's four.
const EXPECTED_VARIANTS: [&str; 4] = ["R-Tree", "SR-Tree", "Skeleton R-Tree", "Skeleton SR-Tree"];

/// The index-service family.
const SERVICE_GAUGES: [&str; 3] = [
    "segidx_concurrent_epoch",
    "segidx_concurrent_queue_depth",
    "segidx_concurrent_retired_snapshots",
];
const SERVICE_COUNTERS: [&str; 3] = [
    "segidx_concurrent_commits_total",
    "segidx_concurrent_ops_applied_total",
    "segidx_concurrent_overloads_total",
];
const SERVICE_HISTOGRAMS: [&str; 2] = [
    "segidx_concurrent_queue_wait_nanos",
    "segidx_concurrent_commit_latency_nanos",
];

/// Tracer health families, required under `component="trace"`.
const TRACE_COUNTERS: [&str; 3] = [
    "segidx_trace_started_total",
    "segidx_trace_sampled_total",
    "segidx_trace_spans_dropped_total",
];
const TRACE_GAUGES: [&str; 2] = ["segidx_trace_spans_dropped", "segidx_trace_flight_retained"];

/// The per-connection server families (`--server` mode), all labeled
/// `component="server"`.
const SERVER_OPS: [&str; 12] = [
    "search", "stab", "nearest", "insert", "delete", "record", "as_of", "within", "flush", "ping",
    "stats", "metrics",
];
const SERVER_MODES: [&str; 2] = ["binary", "line"];
const SERVER_COUNTERS: [&str; 6] = [
    "segidx_server_connections_total",
    "segidx_server_parse_errors_total",
    "segidx_server_protocol_errors_total",
    "segidx_server_busy_total",
    "segidx_server_bytes_read_total",
    "segidx_server_bytes_written_total",
];
const SERVER_GAUGES: [&str; 1] = ["segidx_server_connections_active"];
const SERVER_HISTOGRAMS: [&str; 2] = [
    "segidx_server_read_latency_nanos",
    "segidx_server_write_latency_nanos",
];

/// The tiered temporal index's family (`component="temporal"`): tier-state
/// gauges, lifecycle counters, and seal/merge latency histograms.
const TEMPORAL_GAUGES: [&str; 4] = [
    "segidx_temporal_tiers",
    "segidx_temporal_memtable_entries",
    "segidx_temporal_sealed_entries",
    "segidx_temporal_tombstones",
];
const TEMPORAL_COUNTERS: [&str; 7] = [
    "segidx_temporal_seals_total",
    "segidx_temporal_merges_total",
    "segidx_temporal_sealed_entries_total",
    "segidx_temporal_merged_entries_total",
    "segidx_temporal_merge_dropped_total",
    "segidx_temporal_pins_total",
    "segidx_temporal_tiers_pinned_total",
];
const TEMPORAL_HISTOGRAMS: [&str; 2] = [
    "segidx_temporal_seal_latency_nanos",
    "segidx_temporal_merge_latency_nanos",
];

fn is_gauge(name: &str) -> bool {
    SERVICE_GAUGES.contains(&name) || TRACE_GAUGES.contains(&name)
}

fn is_counter(name: &str) -> bool {
    SERVICE_COUNTERS.contains(&name) || TRACE_COUNTERS.contains(&name)
}

fn check(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let value = json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    let metrics = value
        .get("metrics")
        .and_then(Value::as_array)
        .ok_or("missing top-level \"metrics\" array")?;
    if metrics.is_empty() {
        return Err("\"metrics\" array is empty".into());
    }

    // Group by (graph, variant), remembering which names each pair exported.
    // Metrics labeled with `component` instead belong to a service family
    // and are keyed by (component, name).
    let mut pairs: BTreeSet<(String, String)> = BTreeSet::new();
    let mut seen: BTreeSet<(String, String, String)> = BTreeSet::new();
    let mut components: BTreeSet<String> = BTreeSet::new();
    let mut component_seen: BTreeSet<(String, String)> = BTreeSet::new();
    for m in metrics {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric without a \"name\"")?;
        let labels = m.get("labels").ok_or("metric without \"labels\"")?;
        if let Some(component) = labels.get("component").and_then(Value::as_str) {
            validate_component_metric(name, component, m)?;
            components.insert(component.to_string());
            component_seen.insert((component.to_string(), name.to_string()));
            continue;
        }
        let graph = labels.get("graph").and_then(Value::as_str).unwrap_or("");
        let variant = labels.get("variant").and_then(Value::as_str).unwrap_or("");
        if graph.is_empty() || variant.is_empty() {
            return Err(format!("{name}: missing graph/variant labels"));
        }
        validate_metric(name, variant, m)?;
        pairs.insert((graph.to_string(), variant.to_string()));
        seen.insert((graph.to_string(), variant.to_string(), name.to_string()));
    }

    let graphs: BTreeSet<&String> = pairs.iter().map(|(g, _)| g).collect();
    for graph in graphs {
        for v in EXPECTED_VARIANTS {
            if !pairs.contains(&(graph.clone(), v.to_string())) {
                return Err(format!(
                    "graph {graph}: missing variant \"{v}\" \
                     (expected the four paper variants)"
                ));
            }
        }
    }
    for (graph, variant) in &pairs {
        for name in REQUIRED_HISTOGRAMS
            .iter()
            .chain(&REQUIRED_COUNTERS)
            .chain(&REQUIRED_GAUGES)
        {
            if !seen.contains(&(graph.clone(), variant.clone(), name.to_string())) {
                return Err(format!("graph {graph} / {variant}: missing {name}"));
            }
        }
    }

    let concurrent: BTreeSet<String> = component_seen
        .iter()
        .filter(|(component, _)| component == "concurrent")
        .map(|(_, name)| name.clone())
        .collect();
    check_concurrent(&concurrent)?;
    check_trace(&components, &component_seen)?;
    let flight_classes = check_flight_recorder(&value)?;

    Ok(format!(
        "ok: {} metrics across {} (graph, variant) pairs + {} service component(s), \
         {} flight-recorder class(es)",
        metrics.len(),
        pairs.len(),
        components.len(),
        flight_classes
    ))
}

/// `--server` mode: a `segidx_server` `METRICS` snapshot. Every
/// per-connection family must be present and typed correctly, the
/// request counter must cover all twelve statement forms and the frame
/// counter both framing modes, both latency histograms must be non-empty
/// (the smoke workload always performs reads *and* writes), and the index
/// service behind the wire must have exported its own family, its
/// queue-wait and commit histograms non-empty (the writes fill both).
fn check_server_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let value = json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    let metrics = value
        .get("metrics")
        .and_then(Value::as_array)
        .ok_or("missing top-level \"metrics\" array")?;
    if metrics.is_empty() {
        return Err("\"metrics\" array is empty".into());
    }

    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut ops: BTreeSet<String> = BTreeSet::new();
    let mut modes: BTreeSet<String> = BTreeSet::new();
    let mut service_seen: BTreeSet<String> = BTreeSet::new();
    let mut temporal_seen: BTreeSet<String> = BTreeSet::new();
    for m in metrics {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric without a \"name\"")?;
        let labels = m.get("labels").ok_or("metric without \"labels\"")?;
        let component = labels
            .get("component")
            .and_then(Value::as_str)
            .unwrap_or("");
        if name.starts_with("segidx_server_") {
            if component != "server" {
                return Err(format!("{name}: expected component=\"server\" label"));
            }
            let kind = m.get("type").and_then(Value::as_str).unwrap_or("");
            if SERVER_HISTOGRAMS.contains(&name) {
                if kind != "histogram" {
                    return Err(format!("{name}: expected histogram, got {kind}"));
                }
                let count = m.get("count").and_then(Value::as_i64).unwrap_or(0);
                if count <= 0 {
                    return Err(format!("{name}: empty histogram"));
                }
            } else if SERVER_GAUGES.contains(&name) && kind != "gauge" {
                return Err(format!("{name}: expected gauge, got {kind}"));
            } else if (SERVER_COUNTERS.contains(&name)
                || name == "segidx_server_requests_total"
                || name == "segidx_server_frames_total")
                && kind != "counter"
            {
                return Err(format!("{name}: expected counter, got {kind}"));
            }
            match name {
                "segidx_server_requests_total" => {
                    let op = labels.get("op").and_then(Value::as_str).unwrap_or("");
                    if op.is_empty() {
                        return Err(format!("{name}: missing op label"));
                    }
                    ops.insert(op.to_string());
                }
                "segidx_server_frames_total" => {
                    let mode = labels.get("mode").and_then(Value::as_str).unwrap_or("");
                    if mode.is_empty() {
                        return Err(format!("{name}: missing mode label"));
                    }
                    modes.insert(mode.to_string());
                }
                _ => {}
            }
            seen.insert(name.to_string());
        } else if component == "concurrent" {
            validate_component_metric(name, component, m)?;
            service_seen.insert(name.to_string());
        } else if component == "temporal" {
            temporal_seen.insert(name.to_string());
        }
    }

    for name in SERVER_COUNTERS
        .iter()
        .chain(&SERVER_GAUGES)
        .chain(&SERVER_HISTOGRAMS)
    {
        if !seen.contains(*name) {
            return Err(format!("missing {name}"));
        }
    }
    for op in SERVER_OPS {
        if !ops.contains(op) {
            return Err(format!(
                "segidx_server_requests_total: missing op=\"{op}\" \
                 (all twelve statement forms must be exported, zeros included)"
            ));
        }
    }
    for mode in SERVER_MODES {
        if !modes.contains(mode) {
            return Err(format!(
                "segidx_server_frames_total: missing mode=\"{mode}\""
            ));
        }
    }

    // The index's own service family must ride along in the same
    // snapshot.
    check_concurrent(&service_seen)?;

    // The temporal tier behind RECORD/AS OF/WITHIN registers its family on
    // the same registry; histograms may be empty (a smoke workload need
    // not seal) but every name must be exported.
    for name in TEMPORAL_GAUGES
        .iter()
        .chain(&TEMPORAL_COUNTERS)
        .chain(&TEMPORAL_HISTOGRAMS)
    {
        if !temporal_seen.contains(*name) {
            return Err(format!(
                "missing temporal-tier metric {name} (component=\"temporal\")"
            ));
        }
    }

    Ok(format!(
        "ok: {} metrics, {} server families, {} ops, index service present",
        metrics.len(),
        seen.len(),
        ops.len()
    ))
}

/// `--temporal` mode: a registry snapshot from a tiered ingest run
/// (`temporal_bench --metrics-out`). The full `segidx_temporal_*` family
/// must be present under `component="temporal"` and correctly typed, and
/// both latency histograms non-empty — the gated ingest seals and merges
/// many times over.
fn check_temporal_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let value = json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    let metrics = value
        .get("metrics")
        .and_then(Value::as_array)
        .ok_or("missing top-level \"metrics\" array")?;
    if metrics.is_empty() {
        return Err("\"metrics\" array is empty".into());
    }

    let mut seen: BTreeSet<String> = BTreeSet::new();
    for m in metrics {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric without a \"name\"")?;
        if !name.starts_with("segidx_temporal_") {
            continue;
        }
        let labels = m.get("labels").ok_or("metric without \"labels\"")?;
        let component = labels
            .get("component")
            .and_then(Value::as_str)
            .unwrap_or("");
        if component != "temporal" {
            return Err(format!("{name}: expected component=\"temporal\" label"));
        }
        let kind = m.get("type").and_then(Value::as_str).unwrap_or("");
        if TEMPORAL_HISTOGRAMS.contains(&name) {
            if kind != "histogram" {
                return Err(format!("{name}: expected histogram, got {kind}"));
            }
            let count = m.get("count").and_then(Value::as_i64).unwrap_or(0);
            if count <= 0 {
                return Err(format!(
                    "{name}: empty histogram (the ingest must seal and merge)"
                ));
            }
        } else if TEMPORAL_COUNTERS.contains(&name) {
            if kind != "counter" {
                return Err(format!("{name}: expected counter, got {kind}"));
            }
        } else if TEMPORAL_GAUGES.contains(&name) {
            if kind != "gauge" {
                return Err(format!("{name}: expected gauge, got {kind}"));
            }
            let v = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}: non-numeric value"))?;
            if v < 0.0 {
                return Err(format!("{name}: negative gauge {v}"));
            }
        }
        seen.insert(name.to_string());
    }
    for name in TEMPORAL_GAUGES
        .iter()
        .chain(&TEMPORAL_COUNTERS)
        .chain(&TEMPORAL_HISTOGRAMS)
    {
        if !seen.contains(*name) {
            return Err(format!("missing {name}"));
        }
    }

    Ok(format!(
        "ok: {} metrics, {} temporal families ({} gauges, {} counters, {} non-empty histograms)",
        metrics.len(),
        seen.len(),
        TEMPORAL_GAUGES.len(),
        TEMPORAL_COUNTERS.len(),
        TEMPORAL_HISTOGRAMS.len()
    ))
}

/// The tracer's health families under `component="trace"`.
fn check_trace(
    components: &BTreeSet<String>,
    component_seen: &BTreeSet<(String, String)>,
) -> Result<(), String> {
    if !components.contains("trace") {
        return Err("missing component=\"trace\" tracer metrics".into());
    }
    for name in TRACE_COUNTERS.iter().chain(&TRACE_GAUGES) {
        if !component_seen.contains(&("trace".to_string(), name.to_string())) {
            return Err(format!("component trace: missing {name}"));
        }
    }
    Ok(())
}

/// The top-level `flight_recorder` summary: at least one op class, each
/// entry a positive `retained` count plus a `slowest` trace carrying
/// duration, span count, and profile. Returns the class count.
fn check_flight_recorder(value: &Value) -> Result<usize, String> {
    let flight = value
        .get("flight_recorder")
        .ok_or("missing top-level \"flight_recorder\" object")?;
    let Value::Object(classes) = flight else {
        return Err("\"flight_recorder\" is not an object".into());
    };
    if classes.is_empty() {
        return Err("\"flight_recorder\" retained no traces".into());
    }
    for (class, entry) in classes {
        let retained = entry
            .get("retained")
            .and_then(Value::as_i64)
            .ok_or_else(|| format!("flight_recorder.{class}: missing retained count"))?;
        if retained < 1 {
            return Err(format!("flight_recorder.{class}: retained {retained} < 1"));
        }
        let slowest = entry
            .get("slowest")
            .ok_or_else(|| format!("flight_recorder.{class}: missing slowest trace"))?;
        for field in ["trace_id", "duration_nanos", "spans"] {
            let v = slowest
                .get(field)
                .and_then(Value::as_i64)
                .ok_or_else(|| format!("flight_recorder.{class}.slowest: missing {field}"))?;
            if v < 0 {
                return Err(format!("flight_recorder.{class}.slowest: negative {field}"));
            }
        }
        if slowest.get("profile").is_none() {
            return Err(format!("flight_recorder.{class}.slowest: missing profile"));
        }
    }
    Ok(classes.len())
}

/// The index service's full family, given the names exported under
/// `component="concurrent"` (each already type-checked, histograms
/// non-empty, by [`validate_component_metric`]).
fn check_concurrent(seen: &BTreeSet<String>) -> Result<(), String> {
    if seen.is_empty() {
        return Err("missing component=\"concurrent\" service metrics".into());
    }
    for name in SERVICE_GAUGES
        .iter()
        .chain(&SERVICE_COUNTERS)
        .chain(&SERVICE_HISTOGRAMS)
    {
        if !seen.contains(*name) {
            return Err(format!("component concurrent: missing {name}"));
        }
    }
    Ok(())
}

fn validate_component_metric(name: &str, component: &str, m: &Value) -> Result<(), String> {
    let kind = m.get("type").and_then(Value::as_str).unwrap_or("");
    if SERVICE_HISTOGRAMS.contains(&name) {
        if kind != "histogram" {
            return Err(format!(
                "{name} ({component}): expected histogram, got {kind}"
            ));
        }
        let count = m.get("count").and_then(Value::as_i64).unwrap_or(0);
        if count <= 0 {
            return Err(format!("{name} ({component}): empty histogram"));
        }
    } else if is_counter(name) && kind != "counter" {
        return Err(format!(
            "{name} ({component}): expected counter, got {kind}"
        ));
    } else if is_gauge(name) {
        if kind != "gauge" {
            return Err(format!("{name} ({component}): expected gauge, got {kind}"));
        }
        let v = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{name} ({component}): non-numeric value"))?;
        if v < 0.0 {
            return Err(format!("{name} ({component}): negative gauge {v}"));
        }
    }
    Ok(())
}

fn validate_metric(name: &str, variant: &str, m: &Value) -> Result<(), String> {
    let kind = m.get("type").and_then(Value::as_str).unwrap_or("");
    if REQUIRED_HISTOGRAMS.contains(&name) {
        if kind != "histogram" {
            return Err(format!(
                "{name} ({variant}): expected histogram, got {kind}"
            ));
        }
        let count = m.get("count").and_then(Value::as_i64).unwrap_or(0);
        if count <= 0 {
            return Err(format!("{name} ({variant}): empty histogram"));
        }
        for q in ["p50", "p95", "p99"] {
            let v = m
                .get(q)
                .and_then(Value::as_i64)
                .ok_or_else(|| format!("{name} ({variant}): missing {q}"))?;
            if v < 0 {
                return Err(format!("{name} ({variant}): negative {q}"));
            }
        }
    } else if REQUIRED_COUNTERS.contains(&name) && kind != "counter" {
        return Err(format!("{name} ({variant}): expected counter, got {kind}"));
    } else if REQUIRED_GAUGES.contains(&name) {
        if kind != "gauge" {
            return Err(format!("{name} ({variant}): expected gauge, got {kind}"));
        }
        let v = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{name} ({variant}): non-numeric value"))?;
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("{name} ({variant}): hit rate {v} outside [0, 1]"));
        }
    }
    Ok(())
}
