//! Percentiles from raw samples, and the run-to-run spread rule.

/// The quantiles tried from the top down by [`highest_supported`].
pub const LADDER: [f64; 5] = [0.9999, 0.999, 0.99, 0.95, 0.9];

/// Value at quantile `q` of an ascending slice (nearest-rank).
pub fn quantile_sorted(sorted: &[u32], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest quantile of [`LADDER`] with at least ten samples beyond
/// its rank, with its value; `None` when even p90 has fewer.
pub fn highest_supported(sorted: &[u32]) -> Option<(f64, f64)> {
    let beyond = |q: f64| sorted.len() - ((sorted.len() as f64) * q).ceil() as usize;
    LADDER
        .iter()
        .find(|&&q| !sorted.is_empty() && beyond(q) >= 10)
        .map(|&q| (q, quantile_sorted(sorted, q)))
}

/// What is reported of one phase's latency samples of one kind: every
/// figure is a nearest-rank percentile of all the phase's raw samples, so
/// a stall that delayed one request in a hundred is in the p99.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    /// Samples summarised.
    pub n: u64,
    /// Median, ns.
    pub p50: f64,
    /// 99th percentile, ns (of however many samples there are; `top` says
    /// what the sample supports).
    pub p99: f64,
    /// The highest percentile with ten samples beyond it, and its value in
    /// ns.
    pub top: Option<(f64, f64)>,
}

impl Latency {
    /// Sorts `samples` (ns) and summarises them; `None` without samples.
    pub fn of(samples: &mut [u32]) -> Option<Self> {
        samples.sort_unstable();
        (!samples.is_empty()).then(|| Self {
            n: samples.len() as u64,
            p50: quantile_sorted(samples, 0.5),
            p99: quantile_sorted(samples, 0.99),
            top: highest_supported(samples),
        })
    }
}

/// A duration as a latency sample: nanoseconds, saturating at `u32::MAX`
/// (4.3 s, beyond any latency limit here).
pub fn sample_ns(d: std::time::Duration) -> u32 {
    d.as_nanos().min(u128::from(u32::MAX)) as u32
}

/// Median of an unsorted float slice (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}
