//! Batched, parallel query execution.
//!
//! A batch call fans its queries out across scoped worker threads (the tree
//! is [`Sync`]: all shared mutation goes through the relaxed atomic counters
//! in [`TreeStats`](crate::stats::TreeStats)). Each worker owns a private
//! [`SearchCursor`], so the per-query hot path allocates nothing after
//! warm-up and workers share no mutable state. Queries are claimed in small
//! blocks from an atomic cursor — cheap dynamic load balancing for the
//! heavy-tailed per-query costs typical of interval workloads — and results
//! are returned **in input order** regardless of which worker ran which
//! query.
//!
//! ```
//! use segidx_core::{IndexConfig, RecordId, Tree};
//! use segidx_geom::Rect;
//!
//! let mut t: Tree<2> = Tree::new(IndexConfig::srtree());
//! for i in 0..100u64 {
//!     t.insert(Rect::new([i as f64, 0.0], [i as f64 + 5.0, 0.0]), RecordId(i));
//! }
//! let queries: Vec<Rect<2>> = (0..10)
//!     .map(|i| Rect::new([i as f64 * 10.0, -1.0], [i as f64 * 10.0 + 2.0, 1.0]))
//!     .collect();
//! let batched = t.search_batch(&queries);
//! for (q, ids) in queries.iter().zip(&batched) {
//!     assert_eq!(ids, &t.search(q), "input order, identical results");
//! }
//! ```

use super::{SearchCursor, Tree};
use crate::id::RecordId;
use segidx_geom::{Point, Rect};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Upper bound on how many queries a worker claims per scheduling step.
/// Small enough to balance heavy-tailed query costs, large enough that the
/// shared claim counter is touched rarely.
const MAX_CLAIM_BLOCK: usize = 16;

/// Default worker count: one per available hardware thread.
fn default_workers() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

impl<const D: usize> Tree<D> {
    /// Runs every query in `queries` and returns the per-query results in
    /// input order, using one worker per available hardware thread.
    ///
    /// Results are bit-identical to calling [`Tree::search`] per query:
    /// sorted by id, deduplicated in segment mode. Statistics aggregate
    /// exactly as if the queries had run serially (each search flushes its
    /// counters once).
    pub fn search_batch(&self, queries: &[Rect<D>]) -> Vec<Vec<RecordId>> {
        self.search_batch_threads(queries, default_workers())
    }

    /// [`Tree::search_batch`] with an explicit worker count (clamped to
    /// `1..=queries.len()`). `workers == 1` runs on the calling thread with
    /// a single reused cursor — still faster than per-query [`Tree::search`]
    /// because buffers warm up once.
    pub fn search_batch_threads(&self, queries: &[Rect<D>], workers: usize) -> Vec<Vec<RecordId>> {
        self.run_batch(queries.len(), workers, |cursor, i| {
            self.search_with(cursor, &queries[i]).to_vec()
        })
    }

    /// Runs every stabbing query in `points` and returns the per-point
    /// results in input order, using one worker per available hardware
    /// thread. Results are bit-identical to calling [`Tree::stab`] per
    /// point.
    pub fn stab_batch(&self, points: &[Point<D>]) -> Vec<Vec<RecordId>> {
        self.stab_batch_threads(points, default_workers())
    }

    /// [`Tree::stab_batch`] with an explicit worker count.
    pub fn stab_batch_threads(&self, points: &[Point<D>], workers: usize) -> Vec<Vec<RecordId>> {
        self.run_batch(points.len(), workers, |cursor, i| {
            self.stab_with(cursor, &points[i]).to_vec()
        })
    }

    /// The batch scheduler: runs `run(cursor, i)` for every `i < len` across
    /// `workers` scoped threads and collects the results in input order.
    fn run_batch<F>(&self, len: usize, workers: usize, run: F) -> Vec<Vec<RecordId>>
    where
        F: Fn(&mut SearchCursor<D>, usize) -> Vec<RecordId> + Sync,
    {
        let workers = workers.clamp(1, len.max(1));
        if workers == 1 {
            let mut cursor = self.cursor();
            return (0..len).map(|i| run(&mut cursor, i)).collect();
        }
        let block = (len / (workers * 8)).clamp(1, MAX_CLAIM_BLOCK);
        let next = AtomicUsize::new(0);
        let run = &run;
        // Each worker buffers (index, result) pairs locally; the merge after
        // the join restores input order without any cross-thread writes to
        // the output.
        let buckets: Vec<Vec<(usize, Vec<RecordId>)>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut cursor = self.cursor();
                        let mut local: Vec<(usize, Vec<RecordId>)> = Vec::new();
                        loop {
                            let start = next.fetch_add(block, Ordering::Relaxed);
                            if start >= len {
                                break;
                            }
                            for i in start..(start + block).min(len) {
                                local.push((i, run(&mut cursor, i)));
                            }
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("batch worker panicked"))
                .collect()
        });
        let mut out: Vec<Vec<RecordId>> = Vec::with_capacity(len);
        out.resize_with(len, Vec::new);
        for (i, ids) in buckets.into_iter().flatten() {
            out[i] = ids;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::config::IndexConfig;
    use crate::id::RecordId;
    use crate::tree::Tree;
    use segidx_geom::{Point, Rect};

    fn build(segment: bool, n: u64) -> Tree<2> {
        let config = if segment {
            IndexConfig::srtree()
        } else {
            IndexConfig::rtree()
        };
        let mut t: Tree<2> = Tree::new(config);
        for i in 0..n {
            let x = (i % 60) as f64 * 9.0;
            let y = (i / 60) as f64 * 7.0;
            let len = if i % 11 == 0 { 350.0 } else { 6.0 };
            t.insert(Rect::new([x, y], [x + len, y]), RecordId(i));
        }
        t
    }

    fn queries(count: u64) -> Vec<Rect<2>> {
        (0..count)
            .map(|i| {
                let x = ((i * 71) % 500) as f64;
                let y = ((i * 37) % 200) as f64;
                Rect::new([x, y], [x + 60.0, y + 25.0])
            })
            .collect()
    }

    #[test]
    fn batch_matches_serial_in_input_order() {
        for segment in [false, true] {
            let t = build(segment, 2_500);
            let qs = queries(103); // deliberately not a multiple of any block
            let serial: Vec<Vec<RecordId>> = qs.iter().map(|q| t.search(q)).collect();
            for workers in [1, 2, 3, 8] {
                assert_eq!(
                    t.search_batch_threads(&qs, workers),
                    serial,
                    "segment={segment} workers={workers}"
                );
            }
            assert_eq!(t.search_batch(&qs), serial);
        }
    }

    #[test]
    fn stab_batch_matches_serial() {
        let t = build(true, 2_000);
        let points: Vec<Point<2>> = (0..57)
            .map(|i| Point::new([((i * 97) % 540) as f64, ((i * 13) % 230) as f64]))
            .collect();
        let serial: Vec<Vec<RecordId>> = points.iter().map(|p| t.stab(p)).collect();
        for workers in [1, 4] {
            assert_eq!(t.stab_batch_threads(&points, workers), serial);
        }
    }

    #[test]
    fn batch_stats_aggregate_like_serial() {
        let t = build(true, 1_500);
        let qs = queries(40);
        t.reset_search_stats();
        let serial: Vec<Vec<RecordId>> = qs.iter().map(|q| t.search(q)).collect();
        let serial_snap = t.stats();
        assert_eq!(serial_snap.searches, 40);

        t.reset_search_stats();
        let batched = t.search_batch_threads(&qs, 4);
        let batch_snap = t.stats();
        assert_eq!(batched, serial);
        assert_eq!(batch_snap.searches, serial_snap.searches);
        assert_eq!(
            batch_snap.search_node_accesses,
            serial_snap.search_node_accesses
        );
        assert_eq!(batch_snap.search_results, serial_snap.search_results);
    }

    #[test]
    fn empty_batches_and_empty_tree() {
        let t = build(false, 100);
        assert!(t.search_batch(&[]).is_empty());
        assert!(t.stab_batch_threads(&[], 4).is_empty());
        let empty: Tree<2> = Tree::new(IndexConfig::rtree());
        let qs = queries(5);
        assert_eq!(empty.search_batch(&qs), vec![Vec::new(); 5]);
    }

    #[test]
    fn oversized_worker_count_is_clamped() {
        let t = build(true, 800);
        let qs = queries(3);
        let serial: Vec<Vec<RecordId>> = qs.iter().map(|q| t.search(q)).collect();
        assert_eq!(t.search_batch_threads(&qs, 64), serial);
    }
}
