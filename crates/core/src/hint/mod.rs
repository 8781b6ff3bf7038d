//! HINT: a hierarchical main-memory interval engine with comparison-free
//! stabbing, plus a hybrid router that pairs it with the SR-Tree.
//!
//! This module implements the fifth engine behind
//! [`IntervalIndex`](crate::api::IntervalIndex) — a flat-array adaptation of
//! HINT (Christodoulou, Bouros & Mamoulis, *HINT: A Hierarchical Index for
//! Intervals in Main Memory*, SIGMOD 2022; arXiv 2104.10939). Where the
//! paper's four variants pay tree descent and per-entry comparisons on every
//! query, HINT maps each interval onto the canonical partitions of a
//! hierarchy of `2^k`-way domain subdivisions and classifies each stored
//! copy (original/replica × in/aft) so that most partitions are reported
//! **without comparing coordinates at all** (see `hint1d` for the class
//! table and its soundness argument).
//!
//! A [`HintIndex`] keeps one `Hint1D` hierarchy per
//! dimension and answers a `D`-dimensional window query by intersecting the
//! per-dimension handle sets — exact, because rectangle intersection is the
//! conjunction of per-dimension interval overlaps. One-dimensional data
//! (`D = 1`) and stabbing queries skip the intersection entirely, which is
//! the fast path the [`HybridIndex`] router exploits.
//!
//! The domain is discovered automatically: the first
//! [`auto-build threshold`](HintIndex::AUTO_BUILD_AT) inserts are buffered
//! un-homed and scanned linearly; the structure then (re)builds over the
//! bounding box seen so far. Later out-of-domain inserts are *clamped* into
//! the boundary cells — correct, because the cell mapping is monotone — and
//! only trigger a rebuild when they accumulate enough to hurt partition
//! selectivity.

mod hint1d;
mod router;

pub use router::{query_shape, HybridIndex, QueryShape, RoutingCounters, QUERY_SHAPES};

use crate::id::RecordId;
use crate::stats::{StatsSnapshot, TreeStats};
use crate::telemetry::TreeTelemetry;
use crate::tree::Neighbor;
use hint1d::{Hint1D, MAX_LEVEL_BITS, MIN_LEVEL_BITS};
use segidx_geom::{Point, Rect};
use segidx_obs::{trace, LatencyHistogram};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Slot-allocated storage for the logical entries: the single source of
/// truth the per-dimension hierarchies point into via `u32` handles.
#[derive(Clone, Debug)]
struct EntryTable<const D: usize> {
    rects: Vec<Rect<D>>,
    records: Vec<RecordId>,
    live: Vec<bool>,
    /// Homed in the frozen base of every hierarchy (set at build time).
    /// Entries inserted after the last build live in the deltas instead.
    in_base: Vec<bool>,
    free: Vec<u32>,
    /// Tombstoned handles: deleted, but their copies are still frozen in
    /// the base, so the slot stays unusable until the next rebuild retires
    /// them. Queries filter on `live`.
    deferred: Vec<u32>,
    live_count: usize,
}

impl<const D: usize> Default for EntryTable<D> {
    fn default() -> Self {
        Self {
            rects: Vec::new(),
            records: Vec::new(),
            live: Vec::new(),
            in_base: Vec::new(),
            free: Vec::new(),
            deferred: Vec::new(),
            live_count: 0,
        }
    }
}

impl<const D: usize> EntryTable<D> {
    fn alloc(&mut self, rect: Rect<D>, record: RecordId) -> u32 {
        self.live_count += 1;
        match self.free.pop() {
            Some(h) => {
                self.rects[h as usize] = rect;
                self.records[h as usize] = record;
                self.live[h as usize] = true;
                self.in_base[h as usize] = false;
                h
            }
            None => {
                let h = self.rects.len() as u32;
                self.rects.push(rect);
                self.records.push(record);
                self.live.push(true);
                self.in_base.push(false);
                h
            }
        }
    }

    fn release(&mut self, handle: u32) {
        debug_assert!(self.live[handle as usize]);
        self.live[handle as usize] = false;
        self.free.push(handle);
        self.live_count -= 1;
    }

    /// Marks a base-resident entry deleted without freeing its slot: the
    /// frozen copies keep referencing the handle until the next rebuild
    /// drains `deferred` back into `free`.
    fn tombstone(&mut self, handle: u32) {
        debug_assert!(self.live[handle as usize] && self.in_base[handle as usize]);
        self.live[handle as usize] = false;
        self.deferred.push(handle);
        self.live_count -= 1;
    }

    fn iter_live(&self) -> impl Iterator<Item = (u32, &Rect<D>, RecordId)> + '_ {
        self.rects
            .iter()
            .enumerate()
            .filter(|(i, _)| self.live[*i])
            .map(|(i, r)| (i as u32, r, self.records[i]))
    }
}

/// The HINT engine: one `hint1d` hierarchy per dimension over a
/// self-discovered domain, implementing the full
/// [`IntervalIndex`](crate::api::IntervalIndex) surface.
///
/// Cloning is cheap (copy-on-write partitions), making the engine usable as
/// a snapshot under the concurrent index service.
#[derive(Clone, Debug)]
pub struct HintIndex<const D: usize> {
    entries: EntryTable<D>,
    /// `None` until the first build: entries are un-homed and scanned
    /// linearly. `Some` afterwards: every live entry is homed in all `D`
    /// hierarchies.
    dims: Option<[Hint1D; D]>,
    /// Running union of every inserted rectangle (never shrinks).
    bbox: Option<Rect<D>>,
    /// The domain the current hierarchies were built over.
    built_bbox: Option<Rect<D>>,
    /// Live count at the last (re)build; growth past 4× triggers a rebuild
    /// at a finer resolution.
    built_for: usize,
    /// Inserts since the last build whose rectangle escapes `built_bbox`.
    /// They are clamped into boundary cells (correct but less selective);
    /// enough of them triggers a rebuild over the widened bbox.
    out_of_domain: usize,
    stats: TreeStats,
    obs: Option<Arc<TreeTelemetry>>,
}

impl<const D: usize> Default for HintIndex<D> {
    fn default() -> Self {
        Self::new()
    }
}

/// Smallest bottom level such that the mean bottom cell holds ≈ 8 entries.
fn bits_for(n: usize) -> u32 {
    let mut bits = MIN_LEVEL_BITS;
    while bits < MAX_LEVEL_BITS && (1usize << bits) < n / 8 {
        bits += 1;
    }
    bits
}

impl<const D: usize> HintIndex<D> {
    /// Un-homed inserts tolerated before the first automatic build.
    pub const AUTO_BUILD_AT: usize = 64;

    /// An empty index with an unknown domain: the first
    /// [`AUTO_BUILD_AT`](Self::AUTO_BUILD_AT) entries are buffered and
    /// scanned linearly, then the hierarchy is built over their bounding
    /// box.
    pub fn new() -> Self {
        Self {
            entries: EntryTable::default(),
            dims: None,
            bbox: None,
            built_bbox: None,
            built_for: 0,
            out_of_domain: 0,
            stats: TreeStats::default(),
            obs: None,
        }
    }

    /// An empty index built immediately over a known `domain`, so every
    /// insert is homed directly (no buffering phase).
    pub fn with_domain(domain: Rect<D>) -> Self {
        let mut idx = Self::new();
        idx.bbox = Some(domain);
        idx.build(MIN_LEVEL_BITS);
        idx
    }

    /// The bottom-level resolution `ℓ` (the finest level has `2^ℓ`
    /// partitions per dimension), or `None` before the first build.
    pub fn resolution_bits(&self) -> Option<u32> {
        self.dims.as_ref().map(|d| d[0].bits())
    }

    /// Number of logical records.
    pub fn len(&self) -> usize {
        self.entries.live_count
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.live_count == 0
    }

    /// Installs (or clears) wall-clock telemetry.
    pub fn set_telemetry(&mut self, telemetry: Option<Arc<TreeTelemetry>>) {
        self.obs = telemetry;
    }

    /// The installed telemetry, if any.
    pub fn telemetry(&self) -> Option<&Arc<TreeTelemetry>> {
        self.obs.as_ref()
    }

    fn obs_start(&self) -> Option<Instant> {
        self.obs.as_ref().map(|_| Instant::now())
    }

    fn obs_record(&self, pick: fn(&TreeTelemetry) -> &LatencyHistogram, start: Option<Instant>) {
        if let (Some(obs), Some(start)) = (&self.obs, start) {
            pick(obs).record(start.elapsed().as_nanos() as u64);
        }
    }

    /// (Re)builds the hierarchies at resolution `bits` over the exact
    /// bounding box of the live entries (falling back to the running bbox
    /// when empty), homing every live entry.
    fn build(&mut self, bits: u32) {
        let exact = self
            .entries
            .iter_live()
            .map(|(_, r, _)| *r)
            .reduce(|a, b| a.union(&b));
        let Some(domain) = exact.or(self.bbox) else {
            return;
        };
        let mut dims = core::array::from_fn(|d| Hint1D::new(domain.lo(d), domain.hi(d), bits));
        let mut copies = 0u64;
        for (h, rect, _) in self.entries.iter_live() {
            for (d, hier) in dims.iter_mut().enumerate() {
                copies += hier.insert(rect.lo(d), rect.hi(d), h);
            }
        }
        for hier in dims.iter_mut() {
            hier.freeze();
        }
        // The fresh base holds exactly the live entries: tombstoned slots
        // are physically gone and become reusable, and every live handle is
        // now base-resident.
        while let Some(h) = self.entries.deferred.pop() {
            self.entries.free.push(h);
        }
        for h in 0..self.entries.live.len() {
            self.entries.in_base[h] = self.entries.live[h];
        }
        self.stats.maintenance_node_accesses += copies;
        self.dims = Some(dims);
        self.built_bbox = Some(domain);
        self.built_for = self.entries.live_count.max(16);
        self.out_of_domain = 0;
    }

    /// Rebuild policy, checked after every insert.
    fn maybe_rebuild(&mut self) {
        let live = self.entries.live_count;
        match &self.dims {
            None => {
                if live >= Self::AUTO_BUILD_AT {
                    self.build(bits_for(live));
                }
            }
            Some(dims) => {
                let stale_domain = self.out_of_domain > (live / 4).max(128);
                let outgrown = live > self.built_for * 4 && dims[0].bits() < MAX_LEVEL_BITS;
                let zombies = self.entries.deferred.len() > (live / 4).max(128);
                if stale_domain || outgrown || zombies {
                    self.build(bits_for(live));
                }
            }
        }
    }

    /// Inserts a record.
    pub fn insert(&mut self, rect: Rect<D>, record: RecordId) {
        let start = self.obs_start();
        let handle = self.entries.alloc(rect, record);
        self.bbox = Some(match self.bbox {
            Some(b) => b.union(&rect),
            None => rect,
        });
        if let Some(dims) = &mut self.dims {
            let mut copies = 0u64;
            for (d, hier) in dims.iter_mut().enumerate() {
                copies += hier.insert(rect.lo(d), rect.hi(d), handle);
            }
            self.stats.maintenance_node_accesses += copies;
            if !self
                .built_bbox
                .as_ref()
                .is_some_and(|b| b.contains_rect(&rect))
            {
                self.out_of_domain += 1;
            }
        } else {
            self.stats.maintenance_node_accesses += 1;
        }
        self.maybe_rebuild();
        self.obs_record(|t| &t.insert, start);
    }

    /// Removes a record by its original rectangle and id. Matches on exact
    /// rectangle equality (the stored rectangle is what locates the copies
    /// in every hierarchy).
    pub fn delete(&mut self, rect: &Rect<D>, record: RecordId) -> bool {
        let start = self.obs_start();
        let found = self
            .entries
            .iter_live()
            .find(|(_, r, id)| *id == record && *r == rect)
            .map(|(h, r, _)| (h, *r));
        let Some((handle, stored)) = found else {
            self.obs_record(|t| &t.delete, start);
            return false;
        };
        if self.entries.in_base[handle as usize] {
            // The copies are frozen in the base: tombstone the entry (it
            // disappears from results immediately via the liveness filter)
            // and let the next rebuild retire the physical copies. Enough
            // tombstones trigger that rebuild on their own.
            self.entries.tombstone(handle);
            self.stats.maintenance_node_accesses += 1;
            self.maybe_rebuild();
        } else {
            if let Some(dims) = &mut self.dims {
                let mut removed = 0u64;
                for (d, hier) in dims.iter_mut().enumerate() {
                    removed += hier.remove(stored.lo(d), stored.hi(d), handle);
                }
                self.stats.maintenance_node_accesses += removed;
            } else {
                self.stats.maintenance_node_accesses += 1;
            }
            self.entries.release(handle);
        }
        self.obs_record(|t| &t.delete, start);
        true
    }

    /// Bulk-loads `items` into an index, rebuilding once at the end — the
    /// cheapest way to construct a large HINT.
    pub fn bulk_load(&mut self, items: Vec<(Rect<D>, RecordId)>) {
        let start = self.obs_start();
        for (rect, record) in items {
            self.entries.alloc(rect, record);
            self.bbox = Some(match self.bbox {
                Some(b) => b.union(&rect),
                None => rect,
            });
        }
        self.build(bits_for(self.entries.live_count));
        self.obs_record(|t| &t.bulk_load, start);
    }

    /// Core query: collects into `s.acc` the handle of every live entry
    /// intersecting `query` and returns the access count (non-empty
    /// partitions touched, plus one for the entry-table / un-homed scan).
    /// Runs on caller-provided scratch so the hot read path performs no
    /// heap allocation besides the final id vector.
    fn query_handles(&self, query: &Rect<D>, s: &mut QueryScratch) -> u64 {
        s.acc.clear();
        let mut accesses = 1u64;
        let Some(dims) = &self.dims else {
            s.acc.extend(
                self.entries
                    .iter_live()
                    .filter(|(_, r, _)| r.intersects(query))
                    .map(|(h, _, _)| h),
            );
            return accesses;
        };
        // Static names so per-dimension spans stay allocation-free.
        const DIM_SPANS: [&str; 8] = [
            "hint.dim0",
            "hint.dim1",
            "hint.dim2",
            "hint.dim3",
            "hint.dim4",
            "hint.dim5",
            "hint.dim6",
            "hint.dim7",
        ];
        for (d, hier) in dims.iter().enumerate() {
            let sp = trace::span(DIM_SPANS[d.min(DIM_SPANS.len() - 1)]);
            s.out.clear();
            accesses += hier.query(query.lo(d), query.hi(d), &mut s.out, &mut s.scratch);
            sp.items(s.out.len() as u64);
            drop(sp);
            if D == 1 {
                // Single dimension: nothing to intersect, so the candidate
                // set needs no handle-order sort (the caller sorts by
                // record id anyway).
                std::mem::swap(&mut s.acc, &mut s.out);
                break;
            }
            s.out.sort_unstable();
            if d == 0 {
                std::mem::swap(&mut s.acc, &mut s.out);
            } else {
                s.acc = intersect_sorted(&s.acc, &s.out);
            }
            if s.acc.is_empty() {
                break;
            }
        }
        accesses
    }

    /// Resolves handles to record ids, dropping tombstoned entries (whose
    /// copies linger in the frozen base until the next rebuild). With no
    /// tombstones outstanding every emitted handle is live by construction
    /// — base handles were live at freeze time, delta handles are removed
    /// physically — so the liveness gather is skipped entirely.
    fn ids_of(&self, handles: &[u32]) -> Vec<RecordId> {
        for &h in handles {
            crate::prefetch::prefetch(&self.entries.records[h as usize]);
        }
        let mut ids: Vec<RecordId> = if self.entries.deferred.is_empty() {
            handles
                .iter()
                .map(|&h| self.entries.records[h as usize])
                .collect()
        } else {
            handles
                .iter()
                .filter(|&&h| self.entries.live[h as usize])
                .map(|&h| self.entries.records[h as usize])
                .collect()
        };
        ids.sort_unstable();
        ids
    }

    /// All records intersecting `query`, sorted by id.
    pub fn search(&self, query: &Rect<D>) -> Vec<RecordId> {
        let start = self.obs_start();
        let sp = trace::span("hint.search");
        let (ids, accesses) = with_query_scratch(|s| {
            let accesses = self.query_handles(query, s);
            (self.ids_of(&s.acc), accesses)
        });
        self.stats.flush_search(accesses, ids.len() as u64);
        sp.items(ids.len() as u64);
        trace::add(trace::Dim::ResultRecords, ids.len() as u64);
        drop(sp);
        self.obs_record(|t| &t.search, start);
        ids
    }

    /// All records containing point `p`, sorted by id — the degenerate
    /// window query, which the hierarchy answers almost comparison-free.
    pub fn stab(&self, p: &Point<D>) -> Vec<RecordId> {
        let start = self.obs_start();
        let sp = trace::span("hint.stab");
        let query = Rect::from_point(*p);
        let (ids, accesses) = with_query_scratch(|s| {
            let accesses = self.query_handles(&query, s);
            (self.ids_of(&s.acc), accesses)
        });
        self.stats.flush_search(accesses, ids.len() as u64);
        sp.items(ids.len() as u64);
        trace::add(trace::Dim::ResultRecords, ids.len() as u64);
        drop(sp);
        self.obs_record(|t| &t.stab, start);
        ids
    }

    /// Index accesses a search for `query` performs (the paper's metric,
    /// counted as non-empty partitions touched), without recording stats.
    pub fn count_search_accesses(&self, query: &Rect<D>) -> u64 {
        with_query_scratch(|s| self.query_handles(query, s))
    }

    /// The `k` records nearest to `p` by minimum rectangle distance,
    /// ascending (ties broken by record id).
    pub fn nearest(&self, p: &Point<D>, k: usize) -> Vec<Neighbor<D>> {
        let start = self.obs_start();
        let mut all: Vec<(f64, RecordId, Rect<D>)> = self
            .entries
            .iter_live()
            .map(|(_, r, id)| (r.min_dist_sqr(p), id, *r))
            .collect();
        all.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all.truncate(k);
        let out = all
            .into_iter()
            .map(|(d2, record, rect)| Neighbor {
                record,
                rect,
                distance: d2.sqrt(),
            })
            .collect();
        self.obs_record(|t| &t.nearest, start);
        out
    }

    /// Fans `items` out across worker threads, preserving input order.
    /// Results are bit-identical to the serial loop: each item is evaluated
    /// independently against the same immutable structure.
    fn run_batch<T: Sync>(
        &self,
        items: &[T],
        eval: impl Fn(&T) -> Vec<RecordId> + Sync,
    ) -> Vec<Vec<RecordId>> {
        let n = items.len();
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(n);
        if workers <= 1 {
            return items.iter().map(eval).collect();
        }
        let next = AtomicUsize::new(0);
        let mut results: Vec<Vec<RecordId>> = Vec::with_capacity(n);
        results.resize_with(n, Vec::new);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    let eval = &eval;
                    s.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, eval(&items[i])));
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                for (i, r) in h.join().expect("batch worker panicked") {
                    results[i] = r;
                }
            }
        });
        results
    }

    /// Per-query results for `queries` in input order, identical to calling
    /// [`search`](Self::search) per query, fanned out across threads.
    pub fn search_batch(&self, queries: &[Rect<D>]) -> Vec<Vec<RecordId>> {
        self.run_batch(queries, |q| self.search(q))
    }

    /// Per-point results for `points` in input order, identical to calling
    /// [`stab`](Self::stab) per point, fanned out across threads.
    pub fn stab_batch(&self, points: &[Point<D>]) -> Vec<Vec<RecordId>> {
        self.run_batch(points, |p| self.stab(p))
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Resets the search-side statistics.
    pub fn reset_search_stats(&self) {
        self.stats.reset_search_counters();
    }

    /// Number of physical index records: every stored copy in every
    /// per-dimension hierarchy (an interval has at least `D` copies once
    /// homed), or the live count while still buffering.
    pub fn entry_count(&self) -> usize {
        match &self.dims {
            Some(dims) => dims.iter().map(|h| h.total_copies()).sum(),
            None => self.entries.live_count,
        }
    }

    /// Number of "nodes": non-empty partitions across all hierarchies,
    /// plus one for the entry table.
    pub fn node_count(&self) -> usize {
        1 + self
            .dims
            .as_ref()
            .map(|dims| dims.iter().map(|h| h.populated_partitions()).sum())
            .unwrap_or(0)
    }

    /// Hierarchy height: `ℓ + 1` levels once built, 1 while buffering.
    pub fn height(&self) -> u32 {
        match &self.dims {
            Some(dims) => dims[0].bits() + 1,
            None => 1,
        }
    }

    /// Structural invariant check (empty = consistent): every live entry is
    /// homed on exactly its canonical cover in every dimension, every
    /// tombstoned entry still carries exactly its frozen cover (its slot is
    /// parked on the deferred list, not reusable), and no other dead handle
    /// lingers anywhere.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let live_bits = self.entries.live.iter().filter(|&&l| l).count();
        if live_bits != self.entries.live_count {
            problems.push(format!(
                "live_count {} != live bits {}",
                self.entries.live_count, live_bits
            ));
        }
        for &h in &self.entries.deferred {
            if self.entries.live[h as usize] {
                problems.push(format!("tombstoned handle {h} is still live"));
            }
        }
        let Some(dims) = &self.dims else {
            if !self.entries.deferred.is_empty() {
                problems.push("tombstones exist with no hierarchy".into());
            }
            return problems;
        };
        for (d, hier) in dims.iter().enumerate() {
            let mut counts: HashMap<u32, usize> = HashMap::new();
            hier.for_each_handle(&mut |h| *counts.entry(h).or_default() += 1);
            for (h, rect, _) in self.entries.iter_live() {
                let expect = hier.cover_size(rect.lo(d), rect.hi(d));
                let got = counts.remove(&h).unwrap_or(0);
                if got != expect {
                    problems.push(format!(
                        "dim {d}: handle {h} stored {got} times, cover is {expect}"
                    ));
                }
            }
            for &h in &self.entries.deferred {
                let rect = &self.entries.rects[h as usize];
                let expect = hier.cover_size(rect.lo(d), rect.hi(d));
                let got = counts.remove(&h).unwrap_or(0);
                if got != expect {
                    problems.push(format!(
                        "dim {d}: tombstoned handle {h} stored {got} times, frozen cover is {expect}"
                    ));
                }
            }
            for (h, n) in counts {
                problems.push(format!("dim {d}: dead handle {h} stored {n} times"));
            }
        }
        problems
    }
}

/// Reusable per-thread buffers for the read path: candidate accumulator,
/// per-dimension output, and kernel scratch. Each query clears but never
/// frees them, so steady-state reads allocate only their result vector.
#[derive(Default)]
struct QueryScratch {
    acc: Vec<u32>,
    out: Vec<u32>,
    scratch: Vec<u32>,
}

fn with_query_scratch<R>(f: impl FnOnce(&mut QueryScratch) -> R) -> R {
    thread_local! {
        static SCRATCH: std::cell::RefCell<QueryScratch> =
            std::cell::RefCell::new(QueryScratch::default());
    }
    SCRATCH.with(|c| f(&mut c.borrow_mut()))
}

/// Two-pointer intersection of ascending `u32` slices.
fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

impl<const D: usize> crate::api::IntervalIndex<D> for HintIndex<D> {
    fn insert(&mut self, rect: Rect<D>, record: RecordId) {
        HintIndex::insert(self, rect, record);
    }
    fn search(&self, query: &Rect<D>) -> Vec<RecordId> {
        HintIndex::search(self, query)
    }
    fn search_batch(&self, queries: &[Rect<D>]) -> Vec<Vec<RecordId>> {
        HintIndex::search_batch(self, queries)
    }
    fn stab(&self, p: &Point<D>) -> Vec<RecordId> {
        HintIndex::stab(self, p)
    }
    fn stab_batch(&self, points: &[Point<D>]) -> Vec<Vec<RecordId>> {
        HintIndex::stab_batch(self, points)
    }
    fn nearest(&self, p: &Point<D>, k: usize) -> Vec<Neighbor<D>> {
        HintIndex::nearest(self, p, k)
    }
    fn bulk_load(&mut self, items: Vec<(Rect<D>, RecordId)>) {
        HintIndex::bulk_load(self, items);
    }
    fn count_search_accesses(&self, query: &Rect<D>) -> u64 {
        HintIndex::count_search_accesses(self, query)
    }
    fn delete(&mut self, rect: &Rect<D>, record: RecordId) -> bool {
        HintIndex::delete(self, rect, record)
    }
    fn len(&self) -> usize {
        HintIndex::len(self)
    }
    fn entry_count(&self) -> usize {
        HintIndex::entry_count(self)
    }
    fn stats(&self) -> StatsSnapshot {
        HintIndex::stats(self)
    }
    fn reset_search_stats(&self) {
        HintIndex::reset_search_stats(self);
    }
    fn node_count(&self) -> usize {
        HintIndex::node_count(self)
    }
    fn height(&self) -> u32 {
        HintIndex::height(self)
    }
    fn check_invariants(&self) -> Vec<String> {
        HintIndex::check_invariants(self)
    }
    fn variant_name(&self) -> &'static str {
        "HINT"
    }
    fn set_telemetry(&mut self, telemetry: Option<Arc<TreeTelemetry>>) {
        HintIndex::set_telemetry(self, telemetry);
    }
    fn telemetry(&self) -> Option<Arc<TreeTelemetry>> {
        HintIndex::telemetry(self).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset_2d(n: u64) -> Vec<(Rect<2>, RecordId)> {
        (0..n)
            .map(|i| {
                let x = ((i * 37) % 90_000) as f64;
                let y = ((i * 113) % 90_000) as f64;
                let len = if i % 13 == 0 { 15_000.0 } else { 60.0 };
                (
                    Rect::new([x, y], [(x + len).min(100_000.0), y]),
                    RecordId(i),
                )
            })
            .collect()
    }

    fn brute(data: &[(Rect<2>, RecordId)], q: &Rect<2>) -> Vec<RecordId> {
        let mut ids: Vec<RecordId> = data
            .iter()
            .filter(|(r, _)| r.intersects(q))
            .map(|(_, id)| *id)
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn incremental_build_matches_brute_force_across_the_rebuild() {
        let data = dataset_2d(2_000);
        let mut idx = HintIndex::<2>::new();
        let q = Rect::new([10_000.0, 10_000.0], [30_000.0, 40_000.0]);
        for (i, (rect, id)) in data.iter().enumerate() {
            idx.insert(*rect, *id);
            // Spot-check right around the automatic build and afterwards.
            if [10, 63, 64, 65, 500, 1999].contains(&i) {
                assert_eq!(idx.search(&q), brute(&data[..=i], &q), "after {i} inserts");
            }
        }
        assert!(idx.resolution_bits().is_some(), "auto-built");
        assert!(
            idx.check_invariants().is_empty(),
            "{:?}",
            idx.check_invariants()
        );
        assert_eq!(idx.len(), 2_000);
    }

    #[test]
    fn bulk_load_matches_incremental() {
        let data = dataset_2d(3_000);
        let mut bulk = HintIndex::<2>::new();
        bulk.bulk_load(data.clone());
        let mut inc = HintIndex::<2>::new();
        for (r, id) in &data {
            inc.insert(*r, *id);
        }
        for qi in 0..20u64 {
            let x = ((qi * 7919) % 80_000) as f64;
            let q = Rect::new([x, 0.0], [x + 9_000.0, 90_000.0]);
            assert_eq!(bulk.search(&q), inc.search(&q), "query {qi}");
            assert_eq!(bulk.search(&q), brute(&data, &q));
        }
    }

    #[test]
    fn delete_then_search_and_invariants() {
        let data = dataset_2d(800);
        let mut idx = HintIndex::<2>::new();
        idx.bulk_load(data.clone());
        for (r, id) in data.iter().filter(|(_, id)| id.0 % 3 == 0) {
            assert!(idx.delete(r, *id), "delete {id:?}");
            assert!(!idx.delete(r, *id), "double delete {id:?}");
        }
        let survivors: Vec<_> = data
            .iter()
            .filter(|(_, id)| id.0 % 3 != 0)
            .cloned()
            .collect();
        let q = Rect::new([0.0, 0.0], [100_000.0, 100_000.0]);
        assert_eq!(idx.search(&q), brute(&survivors, &q));
        assert!(
            idx.check_invariants().is_empty(),
            "{:?}",
            idx.check_invariants()
        );
        assert_eq!(idx.len(), survivors.len());
    }

    #[test]
    fn stab_matches_degenerate_search() {
        let data = dataset_2d(1_500);
        let mut idx = HintIndex::<2>::new();
        idx.bulk_load(data);
        for i in 0..60u64 {
            let p = Point::new([((i * 997) % 95_000) as f64, ((i * 113) % 90_000) as f64]);
            let degenerate = Rect::from_point(p);
            assert_eq!(idx.stab(&p), idx.search(&degenerate), "stab {i}");
        }
    }

    #[test]
    fn batch_is_bit_identical_to_serial() {
        let data = dataset_2d(1_200);
        let mut idx = HintIndex::<2>::new();
        idx.bulk_load(data);
        let queries: Vec<Rect<2>> = (0..100u64)
            .map(|i| {
                let x = ((i * 7_001) % 85_000) as f64;
                let y = ((i * 131) % 85_000) as f64;
                Rect::new([x, y], [x + 5_000.0, y + 5_000.0])
            })
            .collect();
        let serial: Vec<Vec<RecordId>> = queries.iter().map(|q| idx.search(q)).collect();
        assert_eq!(idx.search_batch(&queries), serial);
        let points: Vec<Point<2>> = queries.iter().map(|q| q.center()).collect();
        let serial_stab: Vec<Vec<RecordId>> = points.iter().map(|p| idx.stab(p)).collect();
        assert_eq!(idx.stab_batch(&points), serial_stab);
    }

    #[test]
    fn out_of_domain_inserts_stay_correct_and_eventually_rebuild() {
        let mut idx = HintIndex::<2>::with_domain(Rect::new([0.0, 0.0], [100.0, 100.0]));
        for i in 0..200u64 {
            // Every entry lands far outside the initial domain.
            let x = 10_000.0 + i as f64;
            idx.insert(Rect::new([x, x], [x + 5.0, x]), RecordId(i));
        }
        // Clamped entries are still found (monotone cell mapping).
        let q = Rect::new([10_050.0, 0.0], [10_060.0, 20_000.0]);
        let hits = idx.search(&q);
        assert_eq!(hits.len(), 16, "entries 45..=60 overlap in x");
        // The domain-staleness trigger fired at some point and re-homed
        // everything over the widened bbox.
        assert!(idx.check_invariants().is_empty());
        assert!(
            idx.built_bbox.unwrap().hi(0) > 100.0,
            "rebuilt over widened domain"
        );
    }

    #[test]
    fn accesses_and_shape_metrics_are_sane() {
        let mut idx = HintIndex::<2>::new();
        assert_eq!(
            idx.count_search_accesses(&Rect::new([0.0, 0.0], [1.0, 1.0])),
            1
        );
        idx.bulk_load(dataset_2d(1_000));
        assert!(idx.count_search_accesses(&Rect::new([0.0, 0.0], [1.0, 1.0])) >= 1);
        assert!(idx.node_count() > 1);
        assert!(idx.height() > MIN_LEVEL_BITS);
        assert!(idx.entry_count() >= 2 * idx.len(), "≥ D copies per entry");
        let snap = idx.stats();
        assert!(snap.maintenance_node_accesses > 0);
        idx.search(&Rect::new([0.0, 0.0], [50_000.0, 50_000.0]));
        let snap = idx.stats();
        assert_eq!(snap.searches, 1);
        assert!(snap.avg_nodes_per_search().unwrap() >= 1.0);
    }

    #[test]
    fn nearest_matches_brute_force_ordering() {
        let data = dataset_2d(500);
        let mut idx = HintIndex::<2>::new();
        idx.bulk_load(data.clone());
        let p = Point::new([40_000.0, 40_000.0]);
        let got = idx.nearest(&p, 10);
        assert_eq!(got.len(), 10);
        let dists: Vec<f64> = got.iter().map(|n| n.distance).collect();
        let mut sorted = dists.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(dists, sorted, "ascending by distance");
        // The first result really is the global minimum.
        let best = data
            .iter()
            .map(|(r, _)| r.min_dist_sqr(&p).sqrt())
            .fold(f64::INFINITY, f64::min);
        assert_eq!(got[0].distance, best);
    }
}
