//! Property and concurrency tests for the telemetry crate: histogram
//! totals under multi-threaded recording, percentile correctness against
//! exact quantiles, and the JSON export round-trip.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use segidx_obs::{
    bucket_index, json, HistogramSnapshot, LatencyHistogram, Metric, MetricsSnapshot,
};

#[test]
fn concurrent_recording_totals_exactly() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let h = LatencyHistogram::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let h = &h;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    // A spread of magnitudes, deterministic per thread.
                    h.record((i * 37 + t) % 1_000_000);
                }
            });
        }
    });
    let snap = h.snapshot();
    assert_eq!(snap.count, THREADS * PER_THREAD, "no lost updates");
    let expected_sum: u64 = (0..THREADS)
        .flat_map(|t| (0..PER_THREAD).map(move |i| (i * 37 + t) % 1_000_000))
        .sum();
    assert_eq!(snap.sum, expected_sum, "sum is exact");
    assert_eq!(
        snap.counts.iter().sum::<u64>(),
        THREADS * PER_THREAD,
        "bucket counts account for every observation"
    );
}

/// The exact quantile of a sorted sample at `q`, matching the histogram's
/// rank convention: the 1-based rank `max(1, ceil(q·n))`.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

proptest! {
    #[test]
    fn percentiles_land_in_the_exact_bucket(
        values in pvec(0u64..1u64 << 40, 1..500),
        q in 0.0f64..1.0,
    ) {
        let h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut sorted = values.clone();
        sorted.sort_unstable();

        let exact = exact_quantile(&sorted, q);
        let reported = snap.percentile(q).expect("non-empty");
        // Within one bucket of the exact quantile: the reported value is the
        // (max-clamped) upper bound of the bucket holding the exact rank.
        prop_assert_eq!(
            bucket_index(reported.max(exact)),
            bucket_index(exact),
            "reported {} vs exact {}", reported, exact
        );
        prop_assert!(reported >= exact);
        prop_assert!(reported <= snap.max);
    }

    #[test]
    fn percentile_extraction_is_monotone(
        values in pvec(0u64..1u64 << 40, 1..300),
    ) {
        let h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
        let ps: Vec<u64> = qs.iter().map(|&q| snap.percentile(q).unwrap()).collect();
        for w in ps.windows(2) {
            prop_assert!(w[0] <= w[1], "percentiles must be non-decreasing: {:?}", ps);
        }
        prop_assert!(*ps.last().unwrap() <= snap.max);
    }

}

#[test]
fn empty_histogram_percentiles_return_none() {
    let snap: HistogramSnapshot = LatencyHistogram::new().snapshot();
    for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
        assert_eq!(snap.percentile(q), None);
    }
}

fn sample_snapshot() -> MetricsSnapshot {
    let h = LatencyHistogram::new();
    for v in [50u64, 900, 900, 40_000, 7_000_000] {
        h.record(v);
    }
    MetricsSnapshot {
        metrics: vec![
            Metric::counter(
                "segidx_search_node_accesses_total",
                &[("variant", "Skeleton SR-Tree"), ("graph", "3")],
                12_345,
            ),
            Metric::gauge(
                "segidx_buffer_pool_hit_rate",
                &[("variant", "Skeleton SR-Tree"), ("graph", "3")],
                0.875,
            ),
            Metric::histogram(
                "segidx_search_latency_nanos",
                &[("variant", "Skeleton SR-Tree"), ("graph", "3")],
                h.snapshot(),
            ),
        ],
    }
}

#[test]
fn json_round_trips_through_the_parser() {
    let snap = sample_snapshot();
    let text = snap.to_json();
    let parsed = json::parse(&text).expect("exporter emits valid JSON");
    // Render → parse → render is a fixed point.
    assert_eq!(parsed.render(), text);

    let metrics = parsed.get("metrics").unwrap().as_array().unwrap();
    assert_eq!(metrics.len(), snap.metrics.len());
    for (m, v) in snap.metrics.iter().zip(metrics) {
        assert_eq!(v.get("name").unwrap().as_str(), Some(m.name.as_str()));
        for (k, val) in &m.labels {
            assert_eq!(
                v.get("labels").unwrap().get(k).unwrap().as_str(),
                Some(val.as_str())
            );
        }
    }
    let hist = metrics
        .iter()
        .find(|m| m.get("type").unwrap().as_str() == Some("histogram"))
        .unwrap();
    assert_eq!(hist.get("count").unwrap().as_i64(), Some(5));
    assert_eq!(
        hist.get("sum").unwrap().as_i64(),
        Some(50 + 900 + 900 + 40_000 + 7_000_000)
    );
    assert!(hist.get("p50").unwrap().as_i64().unwrap() >= 900);
}
