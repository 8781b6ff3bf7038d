//! The mutable one-dimensional HINT behind [`HintIndex`](super::HintIndex):
//! a [`FrozenHint`] base plus a delta for what was inserted since.
//!
//! * The **base** is built in two passes at every index (re)build
//!   ([`Hint1D::build`]) and shared across clones by a single `Arc`. Its
//!   copies carry record ids, so a query reads its answer straight out of
//!   the planes instead of resolving each copy through the entry table.
//! * The **delta** holds entry-table handles of copies inserted *after*
//!   the last build, as per-partition class arrays on the base's cells
//!   and levels. Copy-on-write via [`Arc::make_mut`], so post-build
//!   mutation of a clone stays cheap. A per-level copy counter lets
//!   queries skip the delta entirely for untouched levels — the common
//!   case on a bulk-loaded index.
//!
//! [`Hint1D::remove`] only edits the delta; base-resident copies are
//! retired by the owning [`HintIndex`](super::HintIndex) via tombstones and
//! the next rebuild. Both halves answer a query with the class tests of
//! [`FrozenHint::query`].

use super::frozen::{
    class_of, emit_both, emit_ge, emit_le, for_each_cover, FrozenHint, O_AFT, O_IN, R_AFT, R_IN,
};
use crate::id::RecordId;
use segidx_obs::trace::{self, Dim};
use std::sync::Arc;

/// One class of copies inside a delta partition, stored as parallel
/// structure-of-arrays planes so the scans test a whole class in one
/// branchless pass.
#[derive(Clone, Debug, Default)]
struct ClassArray {
    starts: Vec<f64>,
    ends: Vec<f64>,
    handles: Vec<u32>,
}

impl ClassArray {
    fn push(&mut self, start: f64, end: f64, handle: u32) {
        self.starts.push(start);
        self.ends.push(end);
        self.handles.push(handle);
    }

    fn remove(&mut self, handle: u32) -> bool {
        match self.handles.iter().position(|&h| h == handle) {
            Some(i) => {
                self.starts.swap_remove(i);
                self.ends.swap_remove(i);
                self.handles.swap_remove(i);
                true
            }
            None => false,
        }
    }
}

/// One delta partition: its four class arrays, indexed by class.
#[derive(Clone, Debug, Default)]
struct Partition {
    classes: [ClassArray; 4],
}

impl Partition {
    fn copies(&self) -> usize {
        self.classes.iter().map(|c| c.handles.len()).sum()
    }

    fn originals_empty(&self) -> bool {
        self.classes[O_AFT].handles.is_empty() && self.classes[O_IN].handles.is_empty()
    }
}

/// The HINT hierarchy behind a [`HintIndex`](super::HintIndex).
///
/// Cloning costs one `Arc` bump for the whole frozen base plus one per
/// delta partition (copy-on-write via [`Arc::make_mut`]), so a clone
/// shares all untouched storage with its original.
#[derive(Clone, Debug)]
pub(crate) struct Hint1D {
    /// Everything homed at the last build; immutable.
    base: Arc<FrozenHint<RecordId>>,
    /// `levels[k]` holds the `2^k` delta partitions of level `k`,
    /// `k ∈ 0..=ℓ`. Untouched (empty) partitions all share one allocation.
    levels: Vec<Vec<Arc<Partition>>>,
    /// Copies currently stored in the delta of each level — queries skip a
    /// level's delta entirely while its counter is zero.
    delta_copies: Vec<u32>,
    /// Sum of `delta_copies`. While zero, a query is the base's alone.
    delta_total: u32,
}

impl Hint1D {
    /// A hierarchy over `[lo, hi]` with `2^bits` bottom cells whose base
    /// holds `items()` (see [`FrozenHint::build`]) and whose delta is
    /// empty.
    pub(crate) fn build<I>(lo: f64, hi: f64, bits: u32, items: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (RecordId, f64, f64)>,
    {
        let base = FrozenHint::build(lo, hi, bits, items);
        let levels = (0..=base.bits())
            .map(|k| {
                let empty = Arc::new(Partition::default());
                vec![empty; 1usize << k]
            })
            .collect();
        Self {
            delta_copies: vec![0; base.bits() as usize + 1],
            base: Arc::new(base),
            levels,
            delta_total: 0,
        }
    }

    /// ℓ.
    pub(crate) fn bits(&self) -> u32 {
        self.base.bits()
    }

    /// Stores one copy of `[start, end]` (payload `handle`) on every
    /// partition of the canonical cover, in the delta. Returns the number
    /// of copies.
    pub(crate) fn insert(&mut self, start: f64, end: f64, handle: u32) -> u64 {
        let (sa, sb) = (self.base.cell(start), self.base.cell(end));
        let bits = self.bits();
        let mut copies = 0u64;
        for_each_cover(bits, sa, sb, |level, part| {
            let p = Arc::make_mut(&mut self.levels[level][part as usize]);
            p.classes[class_of(bits, level, part, sa, sb)].push(start, end, handle);
            self.delta_copies[level] += 1;
            copies += 1;
        });
        self.delta_total += copies as u32;
        copies
    }

    /// Removes every **delta** copy of `handle`, locating them by
    /// recomputing the canonical cover of `[start, end]` (the cover is a
    /// pure function of the interval and the domain, so it matches the
    /// insert exactly). Base-resident copies are never touched — the owner
    /// tombstones those and retires them at the next rebuild.
    pub(crate) fn remove(&mut self, start: f64, end: f64, handle: u32) -> u64 {
        let (sa, sb) = (self.base.cell(start), self.base.cell(end));
        let mut removed = 0u64;
        for_each_cover(self.bits(), sa, sb, |level, part| {
            let p = Arc::make_mut(&mut self.levels[level][part as usize]);
            if p.classes.iter_mut().any(|c| c.remove(handle)) {
                self.delta_copies[level] -= 1;
                removed += 1;
            }
        });
        self.delta_total -= removed as u32;
        removed
    }

    /// Size of the canonical cover of `[start, end]` — the copy count an
    /// insert of that interval produces. Used by invariant checking.
    pub(crate) fn cover_size(&self, start: f64, end: f64) -> usize {
        self.base.cover_size(start, end)
    }

    /// Appends every stored interval intersecting `[qs, qe]` (each exactly
    /// once): the base's record ids to `ids`, the delta's handles to
    /// `handles`. Returns the number of non-empty partitions inspected,
    /// base and delta counted apart. `scratch` is kernel scratch.
    pub(crate) fn query(
        &self,
        qs: f64,
        qe: f64,
        ids: &mut Vec<RecordId>,
        handles: &mut Vec<u32>,
        scratch: &mut Vec<u32>,
    ) -> u64 {
        let touched = self.base.query(qs, qe, ids, scratch);
        if self.delta_total == 0 {
            return touched;
        }
        touched + self.query_delta(qs, qe, handles, scratch)
    }

    /// The delta's half of [`query`](Self::query): the same class tests as
    /// [`FrozenHint::query`], on per-partition arrays.
    fn query_delta(&self, qs: f64, qe: f64, out: &mut Vec<u32>, scratch: &mut Vec<u32>) -> u64 {
        let bits = self.bits();
        let (qa, qb) = (self.base.cell(qs), self.base.cell(qe));
        let mut touched = 0u64;
        let mut walks = 0u64;
        for (k, parts) in self.levels.iter().enumerate() {
            if self.delta_copies[k] == 0 {
                continue;
            }
            walks += 1;
            let shift = bits as usize - k;
            let (a, b) = ((qa >> shift) as usize, (qb >> shift) as usize);
            let c = &parts[a].classes;
            if a == b {
                if parts[a].copies() == 0 {
                    continue;
                }
                touched += 1;
                emit_le(&c[O_AFT].starts, &c[O_AFT].handles, qe, out, scratch);
                let o_in = &c[O_IN];
                emit_both(
                    &o_in.starts,
                    &o_in.ends,
                    &o_in.handles,
                    qs,
                    qe,
                    out,
                    scratch,
                );
                emit_ge(&c[R_IN].ends, &c[R_IN].handles, qs, out, scratch);
                out.extend_from_slice(&c[R_AFT].handles);
                continue;
            }
            if parts[a].copies() > 0 {
                touched += 1;
                out.extend_from_slice(&c[O_AFT].handles);
                emit_ge(&c[O_IN].ends, &c[O_IN].handles, qs, out, scratch);
                emit_ge(&c[R_IN].ends, &c[R_IN].handles, qs, out, scratch);
                out.extend_from_slice(&c[R_AFT].handles);
            }
            for p in &parts[a + 1..b] {
                if !p.originals_empty() {
                    touched += 1;
                    out.extend_from_slice(&p.classes[O_AFT].handles);
                    out.extend_from_slice(&p.classes[O_IN].handles);
                }
            }
            let c = &parts[b].classes;
            if !parts[b].originals_empty() {
                touched += 1;
                emit_le(&c[O_AFT].starts, &c[O_AFT].handles, qe, out, scratch);
                emit_le(&c[O_IN].starts, &c[O_IN].handles, qe, out, scratch);
            }
        }
        if trace::active() {
            trace::add(Dim::HintLevelWalks, walks);
        }
        touched
    }

    /// Number of partitions holding at least one copy, base and delta
    /// counted apart.
    pub(crate) fn populated_partitions(&self) -> usize {
        let delta = self.levels.iter().flatten().filter(|p| p.copies() > 0);
        self.base.populated_partitions() + delta.count()
    }

    /// Total stored copies across base and delta.
    pub(crate) fn total_copies(&self) -> usize {
        self.base.copies() + self.delta_total as usize
    }

    /// Calls `base` once per base copy with its record id and `delta`
    /// once per delta copy with its handle.
    pub(crate) fn for_each_copy(
        &self,
        base: &mut impl FnMut(RecordId),
        delta: &mut impl FnMut(u32),
    ) {
        self.base.for_each_handle(base);
        for p in self.levels.iter().flatten() {
            for class in &p.classes {
                for &h in &class.handles {
                    delta(h);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic interval soup with spanners, clustered shorts, and
    /// out-of-domain strays.
    fn dataset(n: u32) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let x = ((i as u64 * 131) % 1000) as f64;
                let len = match i % 9 {
                    0 => 600.0,
                    1 => 0.0,
                    _ => 7.0,
                };
                if i % 23 == 0 {
                    (x - 1500.0, x - 1500.0 + len) // left of the domain
                } else {
                    (x, x + len)
                }
            })
            .collect()
    }

    /// Everything in the base, built in two passes; interval `i` carries
    /// `RecordId(i)`.
    fn built(data: &[(f64, f64)]) -> Hint1D {
        Hint1D::build(0.0, 1000.0, 6, || {
            data.iter()
                .enumerate()
                .map(|(i, &(s, e))| (RecordId(i as u64), s, e))
        })
    }

    /// Everything in the delta, inserted one by one after an empty build.
    fn inserted(data: &[(f64, f64)]) -> Hint1D {
        let mut h = Hint1D::build(0.0, 1000.0, 6, std::iter::empty);
        for (i, &(s, e)) in data.iter().enumerate() {
            h.insert(s, e, i as u32);
        }
        h
    }

    /// Base ids and delta handles of one query, as one sorted list (the
    /// tests give interval `i` id `i` and handle `i` alike).
    fn query_sorted(h: &Hint1D, qs: f64, qe: f64) -> Vec<u32> {
        let (mut ids, mut out) = (Vec::new(), Vec::new());
        h.query(qs, qe, &mut ids, &mut out, &mut Vec::new());
        out.extend(ids.iter().map(|id| id.0 as u32));
        out.sort_unstable();
        out
    }

    fn accesses(h: &Hint1D, qs: f64, qe: f64) -> u64 {
        h.query(qs, qe, &mut Vec::new(), &mut Vec::new(), &mut Vec::new())
    }

    fn brute(data: &[(f64, f64)], qs: f64, qe: f64) -> Vec<u32> {
        data.iter()
            .enumerate()
            .filter(|(_, &(s, e))| s <= qe && e >= qs)
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn range_queries_match_brute_force_without_duplicates() {
        let data = dataset(300);
        for h in [built(&data), inserted(&data)] {
            for i in 0..80u32 {
                let qs = ((i as u64 * 271) % 1200) as f64 - 100.0;
                let qe = qs + ((i as u64 * 53) % 400) as f64;
                assert_eq!(
                    query_sorted(&h, qs, qe),
                    brute(&data, qs, qe),
                    "[{qs}, {qe}]"
                );
            }
            // Whole-domain and beyond.
            assert_eq!(
                query_sorted(&h, -2000.0, 3000.0),
                brute(&data, -2000.0, 3000.0)
            );
        }
    }

    #[test]
    fn stab_is_the_degenerate_range() {
        let data = dataset(300);
        for h in [built(&data), inserted(&data)] {
            for i in 0..150u32 {
                let q = ((i as u64 * 97) % 1100) as f64 - 50.0;
                assert_eq!(query_sorted(&h, q, q), brute(&data, q, q), "stab {q}");
            }
        }
    }

    #[test]
    fn frozen_base_answers_exactly_like_the_delta() {
        let data = dataset(300);
        let delta_only = inserted(&data);
        let frozen = built(&data);
        assert_eq!(frozen.total_copies(), delta_only.total_copies());
        assert_eq!(
            frozen.populated_partitions(),
            delta_only.populated_partitions()
        );
        for i in 0..80u32 {
            let qs = ((i as u64 * 271) % 1200) as f64 - 100.0;
            let qe = qs + ((i as u64 * 53) % 400) as f64;
            assert_eq!(
                query_sorted(&frozen, qs, qe),
                query_sorted(&delta_only, qs, qe),
                "[{qs}, {qe}]"
            );
            assert_eq!(
                accesses(&frozen, qs, qe),
                accesses(&delta_only, qs, qe),
                "access counts [{qs}, {qe}]"
            );
        }
    }

    #[test]
    fn post_build_inserts_land_in_the_delta_and_are_found() {
        let data = dataset(200);
        let mut h = built(&data);
        let mut all = data.clone();
        for i in 0..60u32 {
            let x = ((i as u64 * 173) % 990) as f64;
            let (s, e) = (x, x + 12.0);
            h.insert(s, e, 200 + i);
            all.push((s, e));
        }
        for i in 0..80u32 {
            let qs = ((i as u64 * 271) % 1100) as f64 - 50.0;
            let qe = qs + ((i as u64 * 53) % 300) as f64;
            assert_eq!(
                query_sorted(&h, qs, qe),
                brute(&all, qs, qe),
                "[{qs}, {qe}]"
            );
        }
        // Delta entries can be removed again; base entries cannot (remove
        // recomputes the cover but only edits delta partitions).
        let removed = h.remove(all[200].0, all[200].1, 200);
        assert_eq!(removed as usize, h.cover_size(all[200].0, all[200].1));
        assert_eq!(h.remove(data[0].0, data[0].1, 0), 0, "base copy untouched");
    }

    #[test]
    fn remove_recomputes_the_exact_cover() {
        let data = dataset(120);
        let mut h = inserted(&data);
        for (i, &(s, e)) in data.iter().enumerate() {
            if i % 3 == 0 {
                let removed = h.remove(s, e, i as u32);
                assert_eq!(removed as usize, h.cover_size(s, e), "handle {i}");
            }
        }
        let keep: Vec<(f64, f64)> = data
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, &d)| d)
            .collect();
        let expect: Vec<u32> = data
            .iter()
            .enumerate()
            .filter(|(i, &(s, e))| i % 3 != 0 && s <= 500.0 && e >= 0.0)
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(query_sorted(&h, 0.0, 500.0), expect);
        assert_eq!(h.total_copies(), inserted(&keep).total_copies());
    }

    #[test]
    fn clone_is_copy_on_write() {
        let data = dataset(60);
        let mut h = built(&data);
        let snapshot = h.clone();
        let before = query_sorted(&snapshot, 0.0, 1000.0);
        h.insert(10.0, 900.0, 999);
        assert_eq!(
            query_sorted(&snapshot, 0.0, 1000.0),
            before,
            "snapshot frozen"
        );
        assert!(query_sorted(&h, 0.0, 1000.0).contains(&999));
        h.remove(10.0, 900.0, 999);
        assert!(!query_sorted(&h, 0.0, 1000.0).contains(&999));
        assert_eq!(query_sorted(&snapshot, 0.0, 1000.0), before);
    }
}
