//! Physical I/O statistics.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters for physical page traffic.
///
/// All counters are monotonically increasing and thread-safe. The index
/// layer separately counts *logical* node accesses (the paper's metric);
/// these counters report what actually hit the page file and buffer pool.
#[derive(Debug, Default)]
pub struct IoStats {
    reads: AtomicU64,
    writes: AtomicU64,
    allocations: AtomicU64,
    frees: AtomicU64,
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    evictions: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// A point-in-time copy of [`IoStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IoStatsSnapshot {
    /// Physical page reads.
    pub reads: u64,
    /// Physical page writes.
    pub writes: u64,
    /// Pages allocated.
    pub allocations: u64,
    /// Pages freed.
    pub frees: u64,
    /// Buffer-pool hits.
    pub pool_hits: u64,
    /// Buffer-pool misses (page fetched from disk).
    pub pool_misses: u64,
    /// Buffer-pool evictions.
    pub evictions: u64,
    /// Total bytes read from disk.
    pub bytes_read: u64,
    /// Total bytes written to disk.
    pub bytes_written: u64,
}

impl IoStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_read(&self, bytes: usize) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_write(&self, bytes: usize) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_alloc(&self) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_free(&self) {
        self.frees.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_hit(&self) {
        self.pool_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_miss(&self) {
        self.pool_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current counter values.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            pool_misses: self.pool_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }
}

impl IoStatsSnapshot {
    /// Buffer-pool hit rate in `[0, 1]`; `None` before any lookups.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.pool_hits + self.pool_misses;
        (total > 0).then(|| self.pool_hits as f64 / total as f64)
    }

    /// The I/O performed since `earlier` was taken (saturating per-counter
    /// subtraction), so windows can be measured without resetting the
    /// cumulative counters.
    pub fn diff(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            allocations: self.allocations.saturating_sub(earlier.allocations),
            frees: self.frees.saturating_sub(earlier.frees),
            pool_hits: self.pool_hits.saturating_sub(earlier.pool_hits),
            pool_misses: self.pool_misses.saturating_sub(earlier.pool_misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.record_read(1024);
        s.record_read(2048);
        s.record_write(1024);
        s.record_alloc();
        s.record_free();
        s.record_hit();
        s.record_hit();
        s.record_miss();
        s.record_eviction();
        let snap = s.snapshot();
        assert_eq!(snap.reads, 2);
        assert_eq!(snap.bytes_read, 3072);
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.allocations, 1);
        assert_eq!(snap.frees, 1);
        assert_eq!(snap.evictions, 1);
        assert!((snap.hit_rate().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_none_when_untouched() {
        assert_eq!(IoStats::new().snapshot().hit_rate(), None);
    }

    #[test]
    fn diff_isolates_a_window() {
        let s = IoStats::new();
        s.record_read(1024);
        s.record_hit();
        let earlier = s.snapshot();
        s.record_read(2048);
        s.record_write(512);
        s.record_miss();
        let d = s.snapshot().diff(&earlier);
        assert_eq!(d.reads, 1);
        assert_eq!(d.bytes_read, 2048);
        assert_eq!(d.writes, 1);
        assert_eq!(d.pool_hits, 0);
        assert_eq!(d.pool_misses, 1);
        assert_eq!(d.hit_rate(), Some(0.0), "window saw only the miss");
    }
}
