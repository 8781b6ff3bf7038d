//! Search (paper §3.1.3) — allocation-free kernel plus reusable cursors.
//!
//! The SR-Tree search descends only branches intersecting the query, exactly
//! like the R-Tree, and additionally examines the spanning index records of
//! every node it visits. Because spanning records stored on a node `N` are
//! wholly contained by `N` (the cutting invariant), every qualifying
//! spanning record is guaranteed to be found.
//!
//! ## Hot-path discipline
//!
//! All traversal state (the DFS stack) and result storage live in a
//! [`SearchCursor`], so a cursor reused across queries performs **zero heap
//! allocation** once its buffers have grown to the workload's high-water
//! mark. Node accesses are accumulated in a local counter and flushed to
//! [`TreeStats`](crate::stats::TreeStats) once per search — concurrent
//! readers never ping-pong the shared counter cache line inside the
//! traversal loop. The batched, parallel entry points built on these
//! kernels live in [`batch`](super::batch).
//!
//! ## Prefetch schedule
//!
//! A probe over a tree larger than the cache is bound by memory latency,
//! not by the scans: visiting a node means following `Arc` → header →
//! block, each a dependent miss, and a plain DFS takes those chains one
//! child after another. The kernel therefore issues a node's misses as soon
//! as it knows them: once a branch scan has matched children it prefetches
//! **every** matched child's header first, then — the headers now in
//! flight together — reads each one for its block pointer and prefetches
//! the block, next-to-be-popped child first. Sibling misses overlap instead
//! of serialising; the traversal order, and so every count, is unchanged.

use super::Tree;
use crate::id::{NodeId, RecordId};
use crate::node::NodeKind;
use segidx_geom::{scan_intersects, scan_stab, Coord, Point, Rect};
use segidx_obs::trace::{self, Dim, MAX_LEVELS};

/// Reusable scratch state for the search kernels.
///
/// Holds the traversal stack and result buffers so repeated
/// [`Tree::search_with`] / [`Tree::stab_with`] /
/// [`Tree::search_entries_with`] calls on one thread do no heap allocation
/// after warm-up. One cursor serves one thread; the batch engine creates one
/// cursor per worker.
///
/// ```
/// use segidx_core::{IndexConfig, RecordId, SearchCursor, Tree};
/// use segidx_geom::Rect;
///
/// let mut t: Tree<2> = Tree::new(IndexConfig::rtree());
/// t.insert(Rect::new([0.0, 0.0], [5.0, 0.0]), RecordId(1));
/// let mut cursor = SearchCursor::new();
/// for _ in 0..1_000 {
///     // Allocation-free after the first iteration.
///     let hits = t.search_with(&mut cursor, &Rect::new([1.0, 0.0], [2.0, 1.0]));
///     assert_eq!(hits, [RecordId(1)]);
/// }
/// ```
#[derive(Clone, Debug, Default)]
pub struct SearchCursor<const D: usize> {
    /// DFS stack of nodes still to visit.
    stack: Vec<NodeId>,
    /// Raw matching index records of the latest query; filled only by the
    /// entry points that return rectangles.
    entries: Vec<(Rect<D>, RecordId)>,
    /// Ids of the latest query: raw out of the kernel, then sorted (and, in
    /// segment mode, deduplicated).
    ids: Vec<RecordId>,
    /// Per-node scratch: indexes matched by the plane-scan kernels. Never
    /// holds more than one node's matches.
    matches: Vec<u32>,
}

impl<const D: usize> SearchCursor<D> {
    /// An empty cursor; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cursor whose id buffer is pre-sized for `expected_hits` matches
    /// per query (e.g. from a selectivity estimate).
    pub fn with_capacity(expected_hits: usize) -> Self {
        Self {
            stack: Vec::with_capacity(16),
            entries: Vec::new(),
            ids: Vec::with_capacity(expected_hits),
            matches: Vec::new(),
        }
    }
}

/// What a traversal tests each node's coordinate planes with: a window
/// ([`scan_intersects`]) or a point ([`scan_stab`], which materializes no
/// rectangle and tests each plane against a single coordinate).
trait Probe<const D: usize> {
    fn scan(&self, los: [&[Coord]; D], his: [&[Coord]; D], out: &mut Vec<u32>);
}

impl<const D: usize> Probe<D> for Rect<D> {
    #[inline]
    fn scan(&self, los: [&[Coord]; D], his: [&[Coord]; D], out: &mut Vec<u32>) {
        scan_intersects(self, los, his, out);
    }
}

impl<const D: usize> Probe<D> for Point<D> {
    #[inline]
    fn scan(&self, los: [&[Coord]; D], his: [&[Coord]; D], out: &mut Vec<u32>) {
        scan_stab(self, los, his, out);
    }
}

impl<const D: usize> Tree<D> {
    /// A cursor sized for this tree: ids from the running selectivity
    /// estimate, per-node scratch from the root's capacity (the largest
    /// node a traversal meets).
    pub(crate) fn cursor(&self) -> SearchCursor<D> {
        let mut cursor = SearchCursor::with_capacity(self.stats.hits_estimate());
        cursor
            .matches
            .reserve(self.config.node_slots(self.node(self.root).level));
        cursor
    }

    /// The traversal kernel shared by every search entry point: collects
    /// the raw matches of `probe` — `(rect, id)` pairs into `cursor.entries`
    /// when `RECTS`, bare ids into `cursor.ids` otherwise — and returns
    /// `(nodes accessed, raw matches)`. Performs no allocation beyond growing
    /// the cursor's buffers and touches no shared state.
    ///
    /// Each node is tested with one branchless scan per store over its
    /// contiguous coordinate planes, and only the matching indexes gather
    /// payloads afterwards. Matched children are prefetched as they are
    /// pushed (see the module docs).
    ///
    /// Tracing is monomorphized out: one [`trace::active`] check per call
    /// dispatches to a `TRACED = false` instantiation that is bit-identical
    /// to the uninstrumented kernel, so untraced searches pay no per-node
    /// cost (the PR 3 "one null check" contract, extended to traces).
    fn kernel<const RECTS: bool>(
        &self,
        probe: &impl Probe<D>,
        cursor: &mut SearchCursor<D>,
    ) -> (u64, u64) {
        if trace::active() {
            self.traverse::<true, RECTS>(probe, cursor)
        } else {
            self.traverse::<false, RECTS>(probe, cursor)
        }
    }

    /// The kernel proper; see [`Tree::kernel`].
    fn traverse<const TRACED: bool, const RECTS: bool>(
        &self,
        probe: &impl Probe<D>,
        cursor: &mut SearchCursor<D>,
    ) -> (u64, u64) {
        let SearchCursor {
            stack,
            entries: out_entries,
            ids,
            matches,
        } = cursor;
        out_entries.clear();
        ids.clear();
        stack.clear();
        stack.push(self.root);
        let mut accesses: u64 = 0;
        let mut level_visits = [0u64; MAX_LEVELS];
        let mut kernel_calls: u64 = 0;
        let mut scanned: u64 = 0;
        while let Some(n) = stack.pop() {
            accesses += 1;
            let node = self.node(n);
            if TRACED {
                level_visits[(node.level as usize).min(MAX_LEVELS - 1)] += 1;
            }
            match &node.kind {
                NodeKind::Leaf { entries } => {
                    matches.clear();
                    let (los, his) = entries.planes();
                    probe.scan(los, his, matches);
                    if TRACED {
                        kernel_calls += 1;
                        scanned += entries.len() as u64;
                    }
                    for &i in matches.iter() {
                        let i = i as usize;
                        if RECTS {
                            out_entries.push((entries.rect(i), entries.record(i)));
                        } else {
                            ids.push(entries.record(i));
                        }
                    }
                }
                NodeKind::Internal { branches, spanning } => {
                    matches.clear();
                    let (los, his) = spanning.planes();
                    probe.scan(los, his, matches);
                    for &i in matches.iter() {
                        let i = i as usize;
                        if RECTS {
                            out_entries.push((spanning.rect(i), spanning.record(i)));
                        } else {
                            ids.push(spanning.record(i));
                        }
                    }
                    matches.clear();
                    let (los, his) = branches.planes();
                    probe.scan(los, his, matches);
                    if TRACED {
                        kernel_calls += 2;
                        scanned += (spanning.len() + branches.len()) as u64;
                    }
                    let first = stack.len();
                    for &i in matches.iter() {
                        let child = branches.child(i as usize);
                        self.arena.prefetch_header(child);
                        stack.push(child);
                    }
                    for &child in stack[first..].iter().rev() {
                        self.node(child).prefetch_contents();
                    }
                }
            }
        }
        if TRACED {
            trace::level_visits(&level_visits);
            trace::add(Dim::KernelInvocations, kernel_calls);
            trace::add(Dim::KernelEntriesScanned, scanned);
        }
        let raw = if RECTS { out_entries.len() } else { ids.len() };
        (accesses, raw as u64)
    }

    /// Runs the id-collecting kernel for `probe`, flushes the search
    /// counters, and finishes the ids.
    fn collect_ids(&self, probe: &impl Probe<D>, cursor: &mut SearchCursor<D>) {
        let (accesses, raw) = self.kernel::<false>(probe, cursor);
        self.stats.flush_search(accesses, raw);
        self.finish_ids(cursor);
    }

    /// Sorts the kernel's raw ids. The `dedup` pass runs only in segment
    /// mode: without cutting, every logical record is stored exactly once,
    /// so duplicates are impossible.
    fn finish_ids(&self, cursor: &mut SearchCursor<D>) {
        cursor.ids.sort_unstable();
        if self.config.segment {
            cursor.ids.dedup();
        }
    }

    /// Returns the ids of all records whose geometry intersects `query`.
    ///
    /// # Guarantees
    ///
    /// * **Deterministic order**: results are always sorted ascending by
    ///   [`RecordId`], independent of traversal order, tree shape, or
    ///   variant — so all four paper variants return bit-identical results
    ///   for the same logical contents.
    /// * **Duplicate-free**: in segment (SR) mode, a cut record is reported
    ///   once even when several of its portions qualify. In non-segment
    ///   (R-Tree) mode no cutting occurs, every logical record is stored
    ///   exactly once, and the dedup pass is skipped entirely — results are
    ///   duplicate-free provided inserted ids were unique.
    ///
    /// Every node visited counts one search node access — the paper's
    /// performance metric — accumulated locally and flushed to the shared
    /// counters once per search.
    pub fn search(&self, query: &Rect<D>) -> Vec<RecordId> {
        let mut cursor = self.cursor();
        self.search_with(&mut cursor, query);
        cursor.ids
    }

    /// Like [`Tree::search`], but reuses `cursor`'s buffers and returns a
    /// slice borrowed from it — zero heap allocation after warm-up. Same
    /// ordering and deduplication guarantees as [`Tree::search`].
    pub fn search_with<'c>(
        &self,
        cursor: &'c mut SearchCursor<D>,
        query: &Rect<D>,
    ) -> &'c [RecordId] {
        let t0 = self.obs_start();
        let sp = trace::span("tree.search");
        self.collect_ids(query, cursor);
        sp.items(cursor.ids.len() as u64);
        trace::add(Dim::ResultRecords, cursor.ids.len() as u64);
        drop(sp);
        self.obs_record(|o| &o.search, t0);
        &cursor.ids
    }

    /// [`Tree::search_with`] minus every telemetry touch point — the
    /// no-telemetry baseline the `trace_profile` overhead gate compares
    /// the instrumented path against. Not part of the public API.
    #[doc(hidden)]
    pub fn bench_search_untraced<'c>(
        &self,
        cursor: &'c mut SearchCursor<D>,
        query: &Rect<D>,
    ) -> &'c [RecordId] {
        let (accesses, raw) = self.traverse::<false, false>(query, cursor);
        self.stats.flush_search(accesses, raw);
        self.finish_ids(cursor);
        &cursor.ids
    }

    /// Like [`Tree::search`], but returns the raw matching index records
    /// (portion rectangles included, no deduplication, unspecified order).
    pub fn search_entries(&self, query: &Rect<D>) -> Vec<(Rect<D>, RecordId)> {
        let mut cursor = self.cursor();
        self.search_entries_with(&mut cursor, query);
        cursor.entries
    }

    /// Like [`Tree::search_entries`], but reuses `cursor`'s buffers and
    /// returns a slice borrowed from it — zero heap allocation after
    /// warm-up.
    pub fn search_entries_with<'c>(
        &self,
        cursor: &'c mut SearchCursor<D>,
        query: &Rect<D>,
    ) -> &'c [(Rect<D>, RecordId)] {
        let t0 = self.obs_start();
        let sp = trace::span("tree.search_entries");
        let (accesses, raw) = self.kernel::<true>(query, cursor);
        self.stats.flush_search(accesses, raw);
        sp.items(raw);
        drop(sp);
        self.obs_record(|o| &o.search, t0);
        &cursor.entries
    }

    /// All records whose geometry contains the point `p` — the "stabbing
    /// query" central to interval indexing (e.g. "which salary periods were
    /// in effect at time t?").
    pub fn stab(&self, p: &Point<D>) -> Vec<RecordId> {
        let mut cursor = self.cursor();
        self.stab_with(&mut cursor, p);
        cursor.ids
    }

    /// Like [`Tree::stab`], but reuses `cursor`'s buffers — zero heap
    /// allocation after warm-up.
    pub fn stab_with<'c>(&self, cursor: &'c mut SearchCursor<D>, p: &Point<D>) -> &'c [RecordId] {
        let t0 = self.obs_start();
        let sp = trace::span("tree.stab");
        self.collect_ids(p, cursor);
        sp.items(cursor.ids.len() as u64);
        trace::add(Dim::ResultRecords, cursor.ids.len() as u64);
        drop(sp);
        self.obs_record(|o| &o.stab, t0);
        &cursor.ids
    }

    /// Number of index nodes a search for `query` accesses, without
    /// disturbing the cumulative statistics beyond recording the search.
    ///
    /// The count is accumulated locally inside the kernel and returned
    /// directly, so a concurrent search on another thread cannot corrupt
    /// it (it is *not* derived by diffing the shared counter).
    pub fn count_search_accesses(&self, query: &Rect<D>) -> u64 {
        let mut cursor = self.cursor();
        let t0 = self.obs_start();
        let (accesses, raw) = self.kernel::<false>(query, &mut cursor);
        self.stats.flush_search(accesses, raw);
        self.obs_record(|o| &o.search, t0);
        accesses
    }
}

#[cfg(test)]
mod tests {
    use super::SearchCursor;
    use crate::config::IndexConfig;
    use crate::id::RecordId;
    use crate::tree::Tree;
    use segidx_geom::{Point, Rect};

    fn seg(x0: f64, x1: f64, y: f64) -> Rect<2> {
        Rect::new([x0, y], [x1, y])
    }

    #[test]
    fn empty_tree_searches_cleanly() {
        let t: Tree<2> = Tree::new(IndexConfig::rtree());
        assert!(t.search(&Rect::new([0.0, 0.0], [1.0, 1.0])).is_empty());
        let snap = t.stats();
        assert_eq!(snap.searches, 1);
        assert_eq!(snap.search_node_accesses, 1, "root is always visited");
    }

    #[test]
    fn finds_inserted_segments() {
        let mut t: Tree<2> = Tree::new(IndexConfig::rtree());
        for i in 0..100u64 {
            let x = i as f64 * 10.0;
            t.insert(seg(x, x + 5.0, i as f64), RecordId(i));
        }
        assert_eq!(t.len(), 100);
        // A query over x in [100, 120] at any y hits segments 10, 11, 12.
        let hits = t.search(&Rect::new([100.0, 0.0], [120.0, 100.0]));
        assert_eq!(hits, vec![RecordId(10), RecordId(11), RecordId(12)]);
    }

    #[test]
    fn stab_query_finds_covering_intervals() {
        let mut t: Tree<2> = Tree::new(IndexConfig::srtree());
        t.insert(seg(0.0, 100.0, 5.0), RecordId(1));
        t.insert(seg(40.0, 60.0, 5.0), RecordId(2));
        t.insert(seg(80.0, 90.0, 5.0), RecordId(3));
        let hits = t.stab(&Point::new([50.0, 5.0]));
        assert_eq!(hits, vec![RecordId(1), RecordId(2)]);
    }

    #[test]
    fn search_deduplicates_cut_records() {
        let mut t: Tree<2> = Tree::new(IndexConfig::srtree());
        // Enough data to build a multi-level tree, plus one very long
        // segment that will be stored as spanning portions.
        for i in 0..500u64 {
            let x = (i % 50) as f64 * 10.0;
            let y = (i / 50) as f64 * 10.0;
            t.insert(seg(x, x + 4.0, y), RecordId(i));
        }
        t.insert(seg(0.0, 500.0, 45.0), RecordId(9999));
        let hits = t.search(&Rect::new([0.0, 0.0], [500.0, 100.0]));
        let nines = hits.iter().filter(|r| r.0 == 9999).count();
        assert_eq!(nines, 1, "cut portions deduplicated");
    }

    #[test]
    fn rtree_mode_is_duplicate_free_without_dedup() {
        // Pins the invariant that lets non-segment search skip its dedup
        // pass: without cutting, every logical record surfaces exactly once
        // even in a deep multi-level tree.
        let mut t: Tree<2> = Tree::new(IndexConfig::rtree());
        for i in 0..2_000u64 {
            let x = (i % 40) as f64 * 12.0;
            let y = (i / 40) as f64 * 8.0;
            let len = if i % 9 == 0 { 400.0 } else { 5.0 };
            t.insert(seg(x, x + len, y), RecordId(i));
        }
        assert_eq!(t.stats().cuts, 0, "no cutting outside segment mode");
        let everything = Rect::new([-1.0, -1.0], [1_000.0, 1_000.0]);
        // The raw entries — before any sort/dedup — already carry unique ids.
        let entries = t.search_entries(&everything);
        let mut raw_ids: Vec<RecordId> = entries.iter().map(|(_, r)| *r).collect();
        let raw_len = raw_ids.len();
        raw_ids.sort_unstable();
        raw_ids.dedup();
        assert_eq!(raw_ids.len(), raw_len, "raw R-Tree entries are unique");
        // And the public result equals them, sorted.
        assert_eq!(t.search(&everything), raw_ids);
    }

    #[test]
    fn cursor_reuse_matches_fresh_searches() {
        let mut t: Tree<2> = Tree::new(IndexConfig::srtree());
        for i in 0..1_000u64 {
            let x = (i % 50) as f64 * 10.0;
            let y = (i / 50) as f64 * 10.0;
            let len = if i % 7 == 0 { 300.0 } else { 4.0 };
            t.insert(seg(x, x + len, y), RecordId(i));
        }
        let mut cursor = SearchCursor::new();
        for qi in 0..20u64 {
            let x = (qi * 23) as f64;
            let q = Rect::new([x, 0.0], [x + 80.0, 200.0]);
            assert_eq!(t.search_with(&mut cursor, &q), t.search(&q), "query {qi}");
            let p = Point::new([x, 50.0]);
            assert_eq!(t.stab_with(&mut cursor, &p), t.stab(&p));
        }
    }

    #[test]
    fn access_counting_is_per_search() {
        let mut t: Tree<2> = Tree::new(IndexConfig::rtree());
        for i in 0..200u64 {
            t.insert(seg(i as f64, i as f64 + 1.0, i as f64), RecordId(i));
        }
        t.reset_search_stats();
        let q = Rect::new([0.0, 0.0], [10.0, 10.0]);
        let a1 = t.count_search_accesses(&q);
        assert!(a1 >= 2, "multi-level tree visits more than the root");
        let snap = t.stats();
        assert_eq!(snap.searches, 1);
        assert_eq!(snap.search_node_accesses, a1);
    }
}
