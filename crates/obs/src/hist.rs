//! Lock-free log₂-bucketed latency histograms.
//!
//! A [`LatencyHistogram`] is an array of 64 atomic counters, one per
//! power-of-two value range: bucket 0 holds the value 0 and bucket `i ≥ 1`
//! holds values in `[2^(i-1), 2^i - 1]`. Recording is four relaxed atomic
//! operations (bucket, count, sum, max) with no locking, so any number of
//! threads may record into one histogram concurrently — the same discipline
//! as the search counters in `segidx-core`.
//!
//! Log₂ bucketing trades resolution for constant memory and wait-free
//! recording: an extracted percentile is the *upper bound* of the bucket
//! containing the exact rank, i.e. within a factor of two of the true
//! quantile. For latency distributions spanning nanoseconds to seconds that
//! is exactly the precision tail-latency monitoring needs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of buckets: one per bit of a `u64`, plus the zero bucket.
pub const BUCKETS: usize = 64;

/// The bucket a value lands in: 0 for 0, else `⌊log₂ v⌋ + 1`, capped at 63.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
}

/// The largest value stored in bucket `i` (inclusive).
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        _ if i >= BUCKETS - 1 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// A wait-free, fixed-memory latency histogram.
///
/// ```
/// use segidx_obs::LatencyHistogram;
///
/// let h = LatencyHistogram::new();
/// for v in [100u64, 200, 400, 800, 100_000] {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 5);
/// assert!(snap.p50().unwrap() >= 200);
/// assert_eq!(snap.max, 100_000);
/// ```
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (typically nanoseconds of wall time).
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Times `f` and records its wall-clock duration.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = std::time::Instant::now();
        let r = f();
        self.record_duration(t0.elapsed());
        r
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count.load(Ordering::Relaxed) == 0
    }

    /// A point-in-time copy of the histogram.
    ///
    /// Under concurrent recording the copy is not a single atomic cut, but
    /// every recorded value is eventually visible and counters never go
    /// backwards.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a [`LatencyHistogram`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub counts: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (exact, not bucketed).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl std::fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("max", &self.max)
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .finish()
    }
}

impl HistogramSnapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The value at quantile `q ∈ [0, 1]`, as the upper bound of the bucket
    /// containing the exact rank — at most one power-of-two bucket above the
    /// true quantile. `None` for an empty histogram; `q` outside `[0, 1]` is
    /// clamped.
    ///
    /// The reported value never exceeds [`max`](Self::max) (the top bucket
    /// is clamped to the exact observed maximum).
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based: ceil(q * count), min 1.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median (see [`percentile`](Self::percentile)).
    pub fn p50(&self) -> Option<u64> {
        self.percentile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> Option<u64> {
        self.percentile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.percentile(0.99)
    }

    /// Arithmetic mean of recorded values; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Merges another snapshot into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn bucket_bounds_cover_their_index() {
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn empty_percentiles_are_none() {
        let snap = LatencyHistogram::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.p50(), None);
        assert_eq!(snap.p95(), None);
        assert_eq!(snap.p99(), None);
        assert_eq!(snap.mean(), None);
    }

    #[test]
    fn single_value_dominates_every_percentile() {
        let h = LatencyHistogram::new();
        h.record(777);
        let snap = h.snapshot();
        assert_eq!(snap.p50(), Some(777), "clamped to max");
        assert_eq!(snap.p99(), Some(777));
        assert_eq!(snap.max, 777);
        assert_eq!(snap.mean(), Some(777.0));
    }

    #[test]
    fn reset_clears() {
        let h = LatencyHistogram::new();
        h.record(5);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.snapshot().sum, 0);
    }

    #[test]
    fn merge_accumulates() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(8);
        b.record(64);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 72);
        assert_eq!(s.max, 64);
    }

    #[test]
    fn time_records_something() {
        let h = LatencyHistogram::new();
        let out = h.time(|| 21 * 2);
        assert_eq!(out, 42);
        assert_eq!(h.snapshot().count, 1);
    }
}
