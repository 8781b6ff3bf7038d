//! HINT: a hierarchical main-memory interval engine with comparison-free
//! stabbing — the one-dimensional engine.
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
//! HINT indexes intervals, so [`HintIndex`] is one-dimensional: the number
//! of dimensions picks the engine, `HintIndex` for `D = 1` and
//! [`Tree`](crate::tree::Tree) for everything else. (One hierarchy per
//! dimension plus handle intersection was measured 19×–51× slower than
//! the SR-Tree on 2-D data at every query extent; EXPERIMENTS.md, "Retired:
//! hybrid routing".)
//!
//! The domain is discovered automatically: the first
//! [`auto-build threshold`](HintIndex::AUTO_BUILD_AT) inserts are buffered
//! un-homed and scanned linearly; the structure then (re)builds over the
//! bounding box seen so far. Later out-of-domain inserts are *clamped* into
//! the boundary cells — correct, because the cell mapping is monotone — and
//! only trigger a rebuild when they accumulate enough to hurt partition
//! selectivity.

pub mod frozen;
mod hint1d;

pub use frozen::FrozenHint;

use crate::id::RecordId;
use crate::stats::{StatsSnapshot, TreeStats};
use crate::telemetry::TreeTelemetry;
use crate::tree::finish_ids;
use frozen::{bits_for, MAX_LEVEL_BITS, MIN_LEVEL_BITS};
use hint1d::Hint1D;
use segidx_geom::{Point, Rect};
use segidx_obs::{trace, LatencyHistogram};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Slot-allocated storage for the logical entries: the single source of
/// truth. The hierarchy's delta points into it via `u32` handles; its base
/// carries the record ids themselves.
#[derive(Clone, Debug, Default)]
struct EntryTable {
    rects: Vec<Rect<1>>,
    records: Vec<RecordId>,
    live: Vec<bool>,
    /// Homed in the hierarchy's frozen base (set at build time). Entries
    /// inserted after the last build live in the delta instead.
    in_base: Vec<bool>,
    free: Vec<u32>,
    /// Tombstoned handles: deleted, but their copies are still frozen in
    /// the base, so the slot stays unusable until the next rebuild retires
    /// them.
    deferred: Vec<u32>,
    /// The record ids of `deferred`, which is what queries filter on: base
    /// copies carry ids, not handles. No live base entry shares one of
    /// these ids (see [`HintIndex::delete`]).
    tombstoned: HashSet<RecordId>,
    live_count: usize,
}

impl EntryTable {
    fn alloc(&mut self, rect: Rect<1>, record: RecordId) -> u32 {
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
        self.tombstoned.insert(self.records[handle as usize]);
        self.live_count -= 1;
    }

    fn iter_live(&self) -> impl Iterator<Item = (u32, &Rect<1>, RecordId)> + '_ {
        self.rects
            .iter()
            .enumerate()
            .filter(|(i, _)| self.live[*i])
            .map(|(i, r)| (i as u32, r, self.records[i]))
    }
}

/// The HINT engine: one `hint1d` hierarchy over a self-discovered domain,
/// implementing the full [`IntervalIndex<1>`](crate::api::IntervalIndex)
/// surface.
///
/// Cloning is cheap (copy-on-write partitions).
#[derive(Clone, Debug)]
pub struct HintIndex {
    entries: EntryTable,
    /// `None` until the first build: entries are un-homed and scanned
    /// linearly. `Some` afterwards: every live entry is homed in it.
    hier: Option<Hint1D>,
    /// Running union of every inserted interval (never shrinks).
    bbox: Option<Rect<1>>,
    /// The domain the current hierarchy was built over.
    built_bbox: Option<Rect<1>>,
    /// Live count at the last (re)build; growth past 4× triggers a rebuild
    /// at a finer resolution.
    built_for: usize,
    /// Inserts since the last build whose interval escapes `built_bbox`.
    /// They are clamped into boundary cells (correct but less selective);
    /// enough of them triggers a rebuild over the widened bbox.
    out_of_domain: usize,
    stats: TreeStats,
    obs: Option<Arc<TreeTelemetry>>,
}

impl Default for HintIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl HintIndex {
    /// Un-homed inserts tolerated before the first automatic build.
    pub const AUTO_BUILD_AT: usize = 64;

    /// An empty index with an unknown domain: the first
    /// [`AUTO_BUILD_AT`](Self::AUTO_BUILD_AT) entries are buffered and
    /// scanned linearly, then the hierarchy is built over their bounding
    /// box.
    pub fn new() -> Self {
        Self {
            entries: EntryTable::default(),
            hier: None,
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
    pub fn with_domain(domain: Rect<1>) -> Self {
        let mut idx = Self::new();
        idx.bbox = Some(domain);
        idx.build(MIN_LEVEL_BITS);
        idx
    }

    /// The bottom-level resolution `ℓ` (the finest level has `2^ℓ`
    /// partitions), or `None` before the first build.
    pub fn resolution_bits(&self) -> Option<u32> {
        self.hier.as_ref().map(Hint1D::bits)
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

    fn obs_start(&self) -> Option<Instant> {
        self.obs.as_ref().map(|_| Instant::now())
    }

    fn obs_record(&self, pick: fn(&TreeTelemetry) -> &LatencyHistogram, start: Option<Instant>) {
        if let (Some(obs), Some(start)) = (&self.obs, start) {
            pick(obs).record(start.elapsed().as_nanos() as u64);
        }
    }

    /// (Re)builds the hierarchy at resolution `bits` over the exact
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
        let entries = &self.entries;
        let hier = Hint1D::build(domain.lo(0), domain.hi(0), bits, || {
            entries
                .iter_live()
                .map(|(_, rect, id)| (id, rect.lo(0), rect.hi(0)))
        });
        // The fresh base holds exactly the live entries: tombstoned slots
        // are physically gone and become reusable, and every live handle is
        // now base-resident.
        while let Some(h) = self.entries.deferred.pop() {
            self.entries.free.push(h);
        }
        self.entries.tombstoned.clear();
        for h in 0..self.entries.live.len() {
            self.entries.in_base[h] = self.entries.live[h];
        }
        self.stats.maintenance_node_accesses += hier.total_copies() as u64;
        self.hier = Some(hier);
        self.built_bbox = Some(domain);
        self.built_for = self.entries.live_count.max(16);
        self.out_of_domain = 0;
    }

    /// Rebuild policy, checked after every insert.
    fn maybe_rebuild(&mut self) {
        let live = self.entries.live_count;
        match &self.hier {
            None => {
                if live >= Self::AUTO_BUILD_AT {
                    self.build(bits_for(live));
                }
            }
            Some(hier) => {
                let stale_domain = self.out_of_domain > (live / 4).max(128);
                let outgrown = live > self.built_for * 4 && hier.bits() < MAX_LEVEL_BITS;
                let zombies = self.entries.deferred.len() > (live / 4).max(128);
                if stale_domain || outgrown || zombies {
                    self.build(bits_for(live));
                }
            }
        }
    }

    /// Inserts a record.
    pub fn insert(&mut self, rect: Rect<1>, record: RecordId) {
        let start = self.obs_start();
        let handle = self.entries.alloc(rect, record);
        self.bbox = Some(self.bbox.map_or(rect, |b| b.union(&rect)));
        if let Some(hier) = &mut self.hier {
            self.stats.maintenance_node_accesses += hier.insert(rect.lo(0), rect.hi(0), handle);
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

    /// Removes a record by its original interval and id. Matches on exact
    /// equality (the stored interval is what locates the copies in the
    /// hierarchy).
    pub fn delete(&mut self, rect: &Rect<1>, record: RecordId) -> bool {
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
            // The copies are frozen in the base: tombstone the entry (its
            // id disappears from results immediately via the tombstone
            // filter) and let the next rebuild retire the physical copies.
            // Enough tombstones trigger that rebuild on their own. Base
            // copies carry only the id, so when another base entry shares
            // it the filter would hide both: rebuild now instead.
            self.entries.tombstone(handle);
            self.stats.maintenance_node_accesses += 1;
            let shared = self
                .entries
                .iter_live()
                .any(|(h, _, id)| id == record && self.entries.in_base[h as usize]);
            if shared {
                self.build(bits_for(self.entries.live_count));
            } else {
                self.maybe_rebuild();
            }
        } else {
            if let Some(hier) = &mut self.hier {
                self.stats.maintenance_node_accesses +=
                    hier.remove(stored.lo(0), stored.hi(0), handle);
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
    pub fn bulk_load(&mut self, items: Vec<(Rect<1>, RecordId)>) {
        let start = self.obs_start();
        for (rect, record) in items {
            self.entries.alloc(rect, record);
            self.bbox = Some(self.bbox.map_or(rect, |b| b.union(&rect)));
        }
        self.build(bits_for(self.entries.live_count));
        self.obs_record(|t| &t.bulk_load, start);
    }

    /// Core query: collects into `s.ids` the id of every base or un-homed
    /// entry intersecting `query`, tombstoned ones included, and into
    /// `s.acc` the handle of every such delta entry. Returns the access
    /// count (non-empty partitions touched, plus one for the entry-table /
    /// un-homed scan). Runs on caller-provided scratch so the hot read path
    /// performs no heap allocation besides the final id vector.
    fn collect(&self, query: &Rect<1>, s: &mut QueryScratch) -> u64 {
        s.ids.clear();
        s.acc.clear();
        let Some(hier) = &self.hier else {
            s.ids.extend(
                self.entries
                    .iter_live()
                    .filter(|(_, r, _)| r.intersects(query))
                    .map(|(_, _, id)| id),
            );
            return 1;
        };
        1 + hier.query(
            query.lo(0),
            query.hi(0),
            &mut s.ids,
            &mut s.acc,
            &mut s.scratch,
        )
    }

    /// Turns [`collect`](Self::collect)'s output into the answer: drops
    /// tombstoned base ids (their copies linger in the frozen base until
    /// the next rebuild), resolves the delta's handles — delta entries are
    /// removed physically, so every one is live — and sorts. With no
    /// tombstones outstanding the base ids need no check at all.
    fn resolve(&self, s: &mut QueryScratch) -> Vec<RecordId> {
        let tombstoned = &self.entries.tombstoned;
        if !tombstoned.is_empty() {
            s.ids.retain(|id| !tombstoned.contains(id));
        }
        s.ids
            .extend(s.acc.iter().map(|&h| self.entries.records[h as usize]));
        finish_ids(&mut s.ids, &mut s.spare, false);
        s.ids.clone()
    }

    /// The one read path behind [`search`](Self::search) and
    /// [`stab`](Self::stab), which differ in the span and the histogram
    /// they report under.
    fn answer(
        &self,
        query: &Rect<1>,
        span: &'static str,
        pick: fn(&TreeTelemetry) -> &LatencyHistogram,
    ) -> Vec<RecordId> {
        let start = self.obs_start();
        let sp = trace::span(span);
        let (ids, accesses) = with_query_scratch(|s| {
            let accesses = self.collect(query, s);
            (self.resolve(s), accesses)
        });
        self.stats.flush_search(accesses, ids.len() as u64);
        sp.items(ids.len() as u64);
        trace::add(trace::Dim::ResultRecords, ids.len() as u64);
        drop(sp);
        self.obs_record(pick, start);
        ids
    }

    /// All records intersecting `query`, sorted by id.
    pub fn search(&self, query: &Rect<1>) -> Vec<RecordId> {
        self.answer(query, "hint.search", |t| &t.search)
    }

    /// All records containing point `p`, sorted by id — the degenerate
    /// window query, which the hierarchy answers almost comparison-free.
    pub fn stab(&self, p: &Point<1>) -> Vec<RecordId> {
        self.answer(&Rect::from_point(*p), "hint.stab", |t| &t.stab)
    }

    /// Index accesses a search for `query` performs (the paper's metric,
    /// counted as non-empty partitions touched), without recording stats.
    pub fn count_search_accesses(&self, query: &Rect<1>) -> u64 {
        with_query_scratch(|s| self.collect(query, s))
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Number of physical index records: every stored copy in the
    /// hierarchy (an interval has at least one once homed), or the live
    /// count while still buffering.
    pub fn entry_count(&self) -> usize {
        match &self.hier {
            Some(hier) => hier.total_copies(),
            None => self.entries.live_count,
        }
    }

    /// Number of "nodes": non-empty partitions, plus one for the entry
    /// table.
    pub fn node_count(&self) -> usize {
        1 + self.hier.as_ref().map_or(0, Hint1D::populated_partitions)
    }

    /// Hierarchy height: `ℓ + 1` levels once built, 1 while buffering.
    pub fn height(&self) -> u32 {
        self.hier.as_ref().map_or(1, |hier| hier.bits() + 1)
    }

    /// Structural invariant check (empty = consistent): every live entry is
    /// homed on exactly its canonical cover (base copies counted per record
    /// id, delta copies per handle), every tombstoned entry still carries
    /// exactly its frozen cover (its slot is parked on the deferred list,
    /// not reusable) and shares its id with no live base entry, and no
    /// other copy lingers anywhere.
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
        let tombstoned: HashSet<RecordId> = self
            .entries
            .deferred
            .iter()
            .map(|&h| self.entries.records[h as usize])
            .collect();
        if tombstoned != self.entries.tombstoned {
            problems.push("tombstoned ids do not match the deferred handles".into());
        }
        let Some(hier) = &self.hier else {
            if !self.entries.deferred.is_empty() {
                problems.push("tombstones exist with no hierarchy".into());
            }
            return problems;
        };
        let mut by_id: HashMap<RecordId, usize> = HashMap::new();
        let mut by_handle: HashMap<u32, usize> = HashMap::new();
        hier.for_each_copy(&mut |id| *by_id.entry(id).or_default() += 1, &mut |h| {
            *by_handle.entry(h).or_default() += 1
        });
        // Base copies are expected per id: the covers of every
        // base-resident entry with that id, live or tombstoned.
        let mut base: HashMap<RecordId, usize> = HashMap::new();
        for (h, rect, id) in self.entries.iter_live() {
            let cover = hier.cover_size(rect.lo(0), rect.hi(0));
            if !self.entries.in_base[h as usize] {
                let got = by_handle.remove(&h).unwrap_or(0);
                if got != cover {
                    problems.push(format!("handle {h} stored {got} times, cover is {cover}"));
                }
                continue;
            }
            if tombstoned.contains(&id) {
                problems.push(format!("live base entry {h} shares tombstoned id {id:?}"));
            }
            *base.entry(id).or_default() += cover;
        }
        for &h in &self.entries.deferred {
            let rect = &self.entries.rects[h as usize];
            *base.entry(self.entries.records[h as usize]).or_default() +=
                hier.cover_size(rect.lo(0), rect.hi(0));
        }
        for (id, expect) in base {
            let got = by_id.remove(&id).unwrap_or(0);
            if got != expect {
                problems.push(format!(
                    "id {id:?} stored {got} times in the base, covers sum to {expect}"
                ));
            }
        }
        for (id, n) in by_id {
            problems.push(format!("dead id {id:?} stored {n} times in the base"));
        }
        for (h, n) in by_handle {
            problems.push(format!("dead handle {h} stored {n} times in the delta"));
        }
        problems
    }
}

/// Reusable per-thread buffers for the read path: the ids being gathered
/// and their sort's second buffer, the delta's handles, and kernel scratch.
/// Each query clears but never frees them, so steady-state reads allocate
/// only their result vector.
#[derive(Default)]
struct QueryScratch {
    ids: Vec<RecordId>,
    spare: Vec<RecordId>,
    acc: Vec<u32>,
    scratch: Vec<u32>,
}

fn with_query_scratch<R>(f: impl FnOnce(&mut QueryScratch) -> R) -> R {
    thread_local! {
        static SCRATCH: std::cell::RefCell<QueryScratch> =
            std::cell::RefCell::new(QueryScratch::default());
    }
    SCRATCH.with(|c| f(&mut c.borrow_mut()))
}

impl crate::api::IntervalIndex<1> for HintIndex {
    fn insert(&mut self, rect: Rect<1>, record: RecordId) {
        HintIndex::insert(self, rect, record);
    }
    fn search(&self, query: &Rect<1>) -> Vec<RecordId> {
        HintIndex::search(self, query)
    }
    fn stab(&self, p: &Point<1>) -> Vec<RecordId> {
        HintIndex::stab(self, p)
    }
    fn count_search_accesses(&self, query: &Rect<1>) -> u64 {
        HintIndex::count_search_accesses(self, query)
    }
    fn delete(&mut self, rect: &Rect<1>, record: RecordId) -> bool {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(n: u64) -> Vec<(Rect<1>, RecordId)> {
        (0..n)
            .map(|i| {
                let x = ((i * 37) % 90_000) as f64;
                let len = if i % 13 == 0 { 15_000.0 } else { 60.0 };
                (Rect::new([x], [(x + len).min(100_000.0)]), RecordId(i))
            })
            .collect()
    }

    fn brute(data: &[(Rect<1>, RecordId)], q: &Rect<1>) -> Vec<RecordId> {
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
        let data = dataset(2_000);
        let mut idx = HintIndex::new();
        let q = Rect::new([10_000.0], [30_000.0]);
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
        let data = dataset(3_000);
        let mut bulk = HintIndex::new();
        bulk.bulk_load(data.clone());
        let mut inc = HintIndex::new();
        for (r, id) in &data {
            inc.insert(*r, *id);
        }
        for qi in 0..20u64 {
            let x = ((qi * 7919) % 80_000) as f64;
            let q = Rect::new([x], [x + 9_000.0]);
            assert_eq!(bulk.search(&q), inc.search(&q), "query {qi}");
            assert_eq!(bulk.search(&q), brute(&data, &q));
        }
    }

    #[test]
    fn delete_then_search_and_invariants() {
        let data = dataset(800);
        let mut idx = HintIndex::new();
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
        let q = Rect::new([0.0], [100_000.0]);
        assert_eq!(idx.search(&q), brute(&survivors, &q));
        assert!(
            idx.check_invariants().is_empty(),
            "{:?}",
            idx.check_invariants()
        );
        assert_eq!(idx.len(), survivors.len());
    }

    /// Every bulk-loaded entry is base-resident, so the deletes are
    /// tombstones; once they outnumber `max(live / 4, 128)` the rebuild
    /// retires them and their slots become reusable.
    #[test]
    fn tombstones_are_retired_at_the_rebuild_they_trigger() {
        let data = dataset(600);
        let mut idx = HintIndex::new();
        idx.bulk_load(data.clone());
        for (r, id) in &data[..128] {
            assert!(idx.delete(r, *id));
        }
        assert_eq!(idx.entries.deferred.len(), 128, "tombstoned, not freed");
        assert!(idx.entries.free.is_empty());
        assert!(idx.delete(&data[128].0, data[128].1));
        assert!(idx.entries.deferred.is_empty(), "the 129th rebuilt");
        assert_eq!(idx.entries.free.len(), 129);
        assert!(
            idx.check_invariants().is_empty(),
            "{:?}",
            idx.check_invariants()
        );
        let q = Rect::new([0.0], [100_000.0]);
        assert_eq!(idx.search(&q), brute(&data[129..], &q));
        // A freed slot is reused, and its new tenant is a delta entry.
        idx.insert(Rect::new([5.0], [6.0]), RecordId(9_999));
        assert_eq!(idx.entries.free.len(), 128);
        assert_eq!(idx.stab(&Point::new([5.5])).last(), Some(&RecordId(9_999)));
    }

    /// Base copies carry ids, so a tombstone hides an id. Deleting one of
    /// two base entries sharing an id rebuilds instead; a tombstoned id
    /// inserted again lands in the delta, which the filter never checks.
    #[test]
    fn tombstones_hide_ids_and_shared_ids_rebuild() {
        let mut data = dataset(300);
        data.push((Rect::new([10.0], [20.0]), RecordId(7)));
        let mut idx = HintIndex::new();
        idx.bulk_load(data.clone());
        let everything = Rect::new([0.0], [100_000.0]);
        let twice = |idx: &HintIndex| {
            let hits = idx.search(&everything);
            hits.iter().filter(|&&id| id == RecordId(7)).count()
        };
        assert_eq!(twice(&idx), 2, "both entries of id 7");
        assert!(idx.delete(&data[300].0, RecordId(7)));
        assert!(idx.entries.deferred.is_empty(), "a shared id rebuilt");
        assert_eq!(twice(&idx), 1);
        assert!(idx.delete(&data[7].0, RecordId(7)));
        assert_eq!(idx.entries.deferred, [7], "a lone id is tombstoned");
        assert_eq!(twice(&idx), 0);
        idx.insert(Rect::new([50.0], [60.0]), RecordId(7));
        assert!(idx.stab(&Point::new([55.0])).contains(&RecordId(7)));
        assert!(idx
            .stab(&Point::new([data[7].0.lo(0)]))
            .iter()
            .all(|&id| id != RecordId(7)));
        assert!(
            idx.check_invariants().is_empty(),
            "{:?}",
            idx.check_invariants()
        );
        data.swap_remove(300);
        data[7] = (Rect::new([50.0], [60.0]), RecordId(7));
        assert_eq!(idx.search(&everything), brute(&data, &everything));
    }

    #[test]
    fn stab_matches_degenerate_search() {
        let data = dataset(1_500);
        let mut idx = HintIndex::new();
        idx.bulk_load(data);
        for i in 0..60u64 {
            let p = Point::new([((i * 997) % 95_000) as f64]);
            let degenerate = Rect::from_point(p);
            assert_eq!(idx.stab(&p), idx.search(&degenerate), "stab {i}");
        }
    }

    #[test]
    fn out_of_domain_inserts_stay_correct_and_eventually_rebuild() {
        let mut idx = HintIndex::with_domain(Rect::new([0.0], [100.0]));
        for i in 0..200u64 {
            // Every entry lands far outside the initial domain.
            let x = 10_000.0 + i as f64;
            idx.insert(Rect::new([x], [x + 5.0]), RecordId(i));
            if i == 50 {
                // Still clamped into the last cell: found all the same
                // (monotone cell mapping).
                assert_eq!(idx.built_bbox.unwrap().hi(0), 100.0);
                assert_eq!(idx.search(&Rect::new([10_020.0], [10_030.0])).len(), 16);
            }
        }
        let hits = idx.search(&Rect::new([10_050.0], [10_060.0]));
        assert_eq!(hits.len(), 16, "entries 45..=60 overlap");
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
        let mut idx = HintIndex::new();
        assert_eq!(idx.count_search_accesses(&Rect::new([0.0], [1.0])), 1);
        idx.bulk_load(dataset(1_000));
        assert!(idx.count_search_accesses(&Rect::new([0.0], [1.0])) >= 1);
        assert!(idx.node_count() > 1);
        assert!(idx.height() > MIN_LEVEL_BITS);
        assert!(idx.entry_count() >= idx.len(), "≥ one copy per entry");
        let snap = idx.stats();
        assert!(snap.maintenance_node_accesses > 0);
        idx.search(&Rect::new([0.0], [50_000.0]));
        let snap = idx.stats();
        assert_eq!(snap.searches, 1);
        assert!(snap.avg_nodes_per_search().unwrap() >= 1.0);
    }
}
