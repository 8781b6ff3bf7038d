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
//! traversal loop. [`Tree::search_batch`] / [`Tree::stab_batch`] answer a
//! list of queries with one cursor, in input order.
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
use segidx_geom::{for_each_hit, Coord, Point, Rect};
use segidx_obs::trace::{self, Dim, MAX_LEVELS};

/// Reusable scratch state for the search kernels.
///
/// Holds the traversal stack and result buffers so repeated
/// [`Tree::search_with`] / [`Tree::stab_with`] calls on one thread do no
/// heap allocation after warm-up. One cursor serves one thread.
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
    /// Ids of the latest query: raw out of the kernel, then sorted (and, in
    /// segment mode, deduplicated).
    ids: Vec<RecordId>,
    /// The radix sort's second buffer: each digit pass scatters `ids` into
    /// it and the two swap.
    spare: Vec<RecordId>,
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
            ids: Vec::with_capacity(expected_hits),
            spare: Vec::new(),
        }
    }
}

/// Below this many raw ids, [`finish_ids`] sorts with `sort_unstable`: a
/// radix pass pays a 256-bucket histogram per digit whatever the length.
const RADIX_MIN: usize = 96;

/// Most digit passes [`finish_ids`] runs. Ids more than 2²⁴ apart take
/// `sort_unstable`: four differing bytes already lose to it at 96 ids, and
/// eight lose at 96–400 ids and are no faster up to 3 000.
const RADIX_MAX_PASSES: usize = 3;

/// An id [`finish_ids`] sorts: an unsigned integer of at most 64 bits, whose
/// order is the order of [`RadixId::radix`].
pub trait RadixId: Copy + Ord {
    /// The id as a 64-bit digit string.
    fn radix(self) -> u64;
}

impl RadixId for RecordId {
    #[inline]
    fn radix(self) -> u64 {
        self.0
    }
}

/// Positions into a run, such as the handles a tier's HINT returns.
impl RadixId for u32 {
    #[inline]
    fn radix(self) -> u64 {
        u64::from(self)
    }
}

/// Sorts `ids` ascending and, when `dedup` is set, drops repeats — the one
/// finish every search result goes through: a tree's ids, in memory and
/// paged, and a sealed tier's handles.
///
/// Long runs are sorted by an LSD radix sort on 8-bit digits, scattering
/// into `spare` and swapping the two buffers after each pass. A digit that
/// every id shares cannot change the order, so its pass is skipped: a
/// 200 000-record tree's ids differ in their low three bytes only, and a
/// narrower id's high digits are never visited.
///
/// Kept out of line, one copy per id width: a generic body is instantiated
/// in every codegen unit that calls it, and copies inlined into the
/// tree's search entry points would change their code for a function that
/// runs once per query.
#[inline(never)]
pub fn finish_ids<T: RadixId>(ids: &mut Vec<T>, spare: &mut Vec<T>, dedup: bool) {
    let first = ids.first().map_or(0, |r| r.radix());
    let differ = ids.iter().fold(0u64, |acc, r| acc | (r.radix() ^ first));
    let shifts = (0..u64::BITS)
        .step_by(8)
        .filter(move |&shift| (differ >> shift) & 0xff != 0);
    if ids.len() < RADIX_MIN || shifts.clone().count() > RADIX_MAX_PASSES {
        ids.sort_unstable();
    } else {
        spare.truncate(ids.len());
        spare.resize(ids.len(), ids[0]);
        for shift in shifts {
            let digit = |r: &T| ((r.radix() >> shift) & 0xff) as usize;
            let mut next = [0u32; 256];
            for r in ids.iter() {
                next[digit(r)] += 1;
            }
            let mut sum = 0;
            for slot in next.iter_mut() {
                (*slot, sum) = (sum, sum + *slot);
            }
            for &r in ids.iter() {
                let slot = &mut next[digit(&r)];
                spare[*slot as usize] = r;
                *slot += 1;
            }
            std::mem::swap(ids, spare);
        }
    }
    if dedup {
        ids.dedup();
    }
}

impl<const D: usize> Tree<D> {
    /// A cursor sized for this tree: ids from the running selectivity
    /// estimate.
    pub(crate) fn cursor(&self) -> SearchCursor<D> {
        SearchCursor::with_capacity(self.stats.hits_estimate())
    }

    /// The traversal kernel shared by every search entry point: collects
    /// the raw ids of every record meeting the closed box `[lo, hi]` (a
    /// stab is the box with `lo == hi`) into `cursor.ids` and returns
    /// `(nodes accessed, raw matches)`. Performs no allocation beyond growing
    /// the cursor's buffers and touches no shared state.
    ///
    /// Each node is tested with one branchless scan per store over its
    /// contiguous coordinate planes, and each hit is consumed as the scan
    /// hands it over: a leaf or spanning hit pushes its record id, a branch
    /// hit prefetches the child's header and pushes it (see the module
    /// docs).
    ///
    /// Tracing is monomorphized out: one [`trace::active`] check per call
    /// dispatches to a `TRACED = false` instantiation that is bit-identical
    /// to the uninstrumented kernel, so untraced searches pay no per-node
    /// cost (the PR 3 "one null check" contract, extended to traces).
    fn kernel(&self, lo: &[Coord; D], hi: &[Coord; D], cursor: &mut SearchCursor<D>) -> (u64, u64) {
        if trace::active() {
            self.traverse::<true>(lo, hi, cursor)
        } else {
            self.traverse::<false>(lo, hi, cursor)
        }
    }

    /// The kernel proper; see [`Tree::kernel`].
    fn traverse<const TRACED: bool>(
        &self,
        lo: &[Coord; D],
        hi: &[Coord; D],
        cursor: &mut SearchCursor<D>,
    ) -> (u64, u64) {
        let SearchCursor { stack, ids, .. } = cursor;
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
                    let (los, his) = entries.planes();
                    for_each_hit(lo, hi, los, his, |i| ids.push(entries.record(i)));
                    if TRACED {
                        kernel_calls += 1;
                        scanned += entries.len() as u64;
                    }
                }
                NodeKind::Internal { branches, spanning } => {
                    let (los, his) = spanning.planes();
                    for_each_hit(lo, hi, los, his, |i| ids.push(spanning.record(i)));
                    let first = stack.len();
                    let (los, his) = branches.planes();
                    for_each_hit(lo, hi, los, his, |i| {
                        let child = branches.child(i);
                        self.arena.prefetch_header(child);
                        stack.push(child);
                    });
                    if TRACED {
                        kernel_calls += 2;
                        scanned += (spanning.len() + branches.len()) as u64;
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
        (accesses, ids.len() as u64)
    }

    /// Runs the id-collecting kernel for the box `[lo, hi]`, flushes the
    /// search counters, and finishes the ids.
    fn collect_ids(&self, lo: &[Coord; D], hi: &[Coord; D], cursor: &mut SearchCursor<D>) {
        let (accesses, raw) = self.kernel(lo, hi, cursor);
        self.stats.flush_search(accesses, raw);
        self.finish(cursor);
    }

    /// Sorts the kernel's raw ids. The `dedup` pass runs only in segment
    /// mode: without cutting, every logical record is stored exactly once,
    /// so duplicates are impossible.
    fn finish(&self, cursor: &mut SearchCursor<D>) {
        finish_ids(&mut cursor.ids, &mut cursor.spare, self.config.segment);
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
        let sp = trace::span("tree.search");
        self.collect_ids(query.lo_coords(), query.hi_coords(), cursor);
        sp.items(cursor.ids.len() as u64);
        trace::add(Dim::ResultRecords, cursor.ids.len() as u64);
        &cursor.ids
    }

    /// [`Tree::search_with`] minus every tracing touch point — the
    /// untraced baseline the `trace_profile` overhead gate compares the
    /// instrumented path against. Not part of the public API.
    #[doc(hidden)]
    pub fn bench_search_untraced<'c>(
        &self,
        cursor: &'c mut SearchCursor<D>,
        query: &Rect<D>,
    ) -> &'c [RecordId] {
        let (accesses, raw) = self.traverse::<false>(query.lo_coords(), query.hi_coords(), cursor);
        self.stats.flush_search(accesses, raw);
        self.finish(cursor);
        &cursor.ids
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
        let sp = trace::span("tree.stab");
        self.collect_ids(p.coords(), p.coords(), cursor);
        sp.items(cursor.ids.len() as u64);
        trace::add(Dim::ResultRecords, cursor.ids.len() as u64);
        &cursor.ids
    }

    /// Runs every query in `queries` on the calling thread with one reused
    /// cursor and returns the per-query results in input order.
    ///
    /// Results are bit-identical to calling [`Tree::search`] per query:
    /// sorted by id, deduplicated in segment mode; each search flushes its
    /// counters once, so statistics aggregate the same way too.
    ///
    /// ```
    /// use segidx_core::{IndexConfig, RecordId, Tree};
    /// use segidx_geom::Rect;
    ///
    /// let mut t: Tree<2> = Tree::new(IndexConfig::srtree());
    /// for i in 0..100u64 {
    ///     t.insert(Rect::new([i as f64, 0.0], [i as f64 + 5.0, 0.0]), RecordId(i));
    /// }
    /// let queries: Vec<Rect<2>> = (0..10)
    ///     .map(|i| Rect::new([i as f64 * 10.0, -1.0], [i as f64 * 10.0 + 2.0, 1.0]))
    ///     .collect();
    /// let batched = t.search_batch(&queries);
    /// for (q, ids) in queries.iter().zip(&batched) {
    ///     assert_eq!(ids, &t.search(q), "input order, identical results");
    /// }
    /// ```
    pub fn search_batch(&self, queries: &[Rect<D>]) -> Vec<Vec<RecordId>> {
        let mut cursor = SearchCursor::new();
        queries
            .iter()
            .map(|q| self.search_with(&mut cursor, q).to_vec())
            .collect()
    }

    /// Runs every stabbing query in `points` with one reused cursor and
    /// returns the per-point results in input order, bit-identical to
    /// calling [`Tree::stab`] per point.
    pub fn stab_batch(&self, points: &[Point<D>]) -> Vec<Vec<RecordId>> {
        let mut cursor = SearchCursor::new();
        points
            .iter()
            .map(|p| self.stab_with(&mut cursor, p).to_vec())
            .collect()
    }

    /// Number of index nodes a search for `query` accesses, without
    /// disturbing the cumulative statistics beyond recording the search.
    ///
    /// The count is accumulated locally inside the kernel and returned
    /// directly, so a concurrent search on another thread cannot corrupt
    /// it (it is *not* derived by diffing the shared counter).
    pub fn count_search_accesses(&self, query: &Rect<D>) -> u64 {
        let mut cursor = self.cursor();
        let (accesses, raw) = self.kernel(query.lo_coords(), query.hi_coords(), &mut cursor);
        self.stats.flush_search(accesses, raw);
        accesses
    }
}

#[cfg(test)]
mod tests {
    use super::{finish_ids, SearchCursor, RADIX_MIN};
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
        // `search` only sorts here (no dedup pass in R-Tree mode), so a
        // record stored twice would surface twice.
        let hits = t.search(&everything);
        assert_eq!(hits.len(), 2_000);
        assert!(hits.windows(2).all(|w| w[0] < w[1]), "sorted and unique");
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
        let before = t.stats();
        let q = Rect::new([0.0, 0.0], [10.0, 10.0]);
        let a1 = t.count_search_accesses(&q);
        assert!(a1 >= 2, "multi-level tree visits more than the root");
        let snap = t.stats().diff(&before);
        assert_eq!(snap.searches, 1);
        assert_eq!(snap.search_node_accesses, a1);
    }

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
            let qs = queries(103);
            let serial: Vec<Vec<RecordId>> = qs.iter().map(|q| t.search(q)).collect();
            assert_eq!(t.search_batch(&qs), serial, "segment={segment}");
        }
    }

    #[test]
    fn stab_batch_matches_serial() {
        let t = build(true, 2_000);
        let points: Vec<Point<2>> = (0..57)
            .map(|i| Point::new([((i * 97) % 540) as f64, ((i * 13) % 230) as f64]))
            .collect();
        let serial: Vec<Vec<RecordId>> = points.iter().map(|p| t.stab(p)).collect();
        assert_eq!(t.stab_batch(&points), serial);
    }

    #[test]
    fn batch_stats_aggregate_like_serial() {
        let t = build(true, 1_500);
        let qs = queries(40);
        let before = t.stats();
        let serial: Vec<Vec<RecordId>> = qs.iter().map(|q| t.search(q)).collect();
        let serial_snap = t.stats().diff(&before);
        assert_eq!(serial_snap.searches, 40);

        let before = t.stats();
        let batched = t.search_batch(&qs);
        let batch_snap = t.stats().diff(&before);
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
        assert!(t.stab_batch(&[]).is_empty());
        let empty: Tree<2> = Tree::new(IndexConfig::rtree());
        let qs = queries(5);
        assert_eq!(empty.search_batch(&qs), vec![Vec::new(); 5]);
    }

    /// The radix finish against `sort_unstable` + `dedup`, on both sides of
    /// the fallback threshold, with one reused spare buffer per id width.
    #[test]
    fn radix_finish_matches_sort_and_dedup() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Each id shape differs in different digits, so a pass skipped by
        // mistake changes the order; the last two span more than
        // `RADIX_MAX_PASSES` digits and take the fallback at every length.
        let shapes: [&dyn Fn(u64) -> u64; 9] = [
            &|r| r % 200_000,
            &|r| r % 7,
            &|_| 42,
            &|r| (1 << 32) + (r % 3) * (1 << 40) + r % 1_000,
            &|r| {
                if r % 3 == 0 {
                    u64::MAX
                } else {
                    u64::MAX - r % 300
                }
            },
            // Every differing digit differs in its top bit only.
            &|r| r & 0x80_8080,
            &|r| ((r % 2) << 63) | (r % 5),
            &|r| r % (1 << 32),
            &|r| r,
        ];
        let (mut spare, mut narrow) = (Vec::new(), Vec::new());
        let lengths = (0..4)
            .chain(RADIX_MIN - 3..RADIX_MIN + 4)
            .chain([257, 1_000]);
        for n in lengths {
            for (k, shape) in shapes.iter().enumerate() {
                let raw: Vec<RecordId> = (0..n).map(|_| RecordId(shape(next()))).collect();
                for dedup in [false, true] {
                    let mut want = raw.clone();
                    want.sort_unstable();
                    if dedup {
                        want.dedup();
                    }
                    let mut got = raw.clone();
                    finish_ids(&mut got, &mut spare, dedup);
                    assert_eq!(got, want, "n={n}, shape {k}, dedup={dedup}");
                    // The same ids cut to a tier handle's width.
                    let handle = |ids: &[RecordId]| ids.iter().map(|r| r.0 as u32).collect();
                    let mut want: Vec<u32> = handle(&raw);
                    want.sort_unstable();
                    if dedup {
                        want.dedup();
                    }
                    let mut got: Vec<u32> = handle(&raw);
                    finish_ids(&mut got, &mut narrow, dedup);
                    assert_eq!(got, want, "u32: n={n}, shape {k}, dedup={dedup}");
                }
            }
        }
    }
}
