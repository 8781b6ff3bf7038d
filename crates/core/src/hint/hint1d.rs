//! The one-dimensional HINT hierarchy: `ℓ+1` levels of domain partitions,
//! level `k` holding `2^k` equal partitions, each interval stored on the
//! canonical (segment-tree) cover of its cell range, subdivided into four
//! classes so most classes are reported **comparison-free**.
//!
//! # Cells and tiles
//!
//! The domain `[lo, hi]` is divided into `2^ℓ` bottom cells; `cell(x)` maps
//! a coordinate to its bottom cell, clamping out-of-domain coordinates into
//! the boundary cells. The mapping is *monotone* (each floating-point step
//! preserves order), which is the only property the comparison-elision
//! proofs below rely on: `cell(x) < cell(y) ⟹ x < y`. A partition at level
//! `k` covers `2^(ℓ-k)` consecutive bottom cells; the canonical cover of an
//! interval's cell range `[cell(start), cell(end)]` is the unique minimal
//! set of whole partitions tiling it exactly (at most two per level).
//!
//! # Classes
//!
//! Each copy of an interval stored at partition `P` is classified:
//!
//! * **Original** (`O`) vs **replica** (`R`): the copy is an original iff
//!   `P` contains `cell(start)` — each interval has exactly one original.
//!   A replica therefore has `cell(start)` *left of* `P`.
//! * **in** vs **aft**: `aft` iff `cell(end)` extends *beyond* `P`'s last
//!   bottom cell, so an `aft` copy's end lies at or past `P`'s right edge.
//!
//! # Storage: frozen base + delta
//!
//! Queries walk one partition per level, so their cost is dominated by how
//! many cache lines the walk touches, not by comparisons. Copies therefore
//! live in two places:
//!
//! * a **frozen base** ([`BaseLevel`]): one flat structure-of-arrays block
//!   per level, partitions laid out consecutively with their four class
//!   segments addressed by an offset table. Built by [`Hint1D::freeze`]
//!   (called at every index (re)build), immutable afterwards, shared across
//!   clones by a single `Arc`. A stab reads a handful of contiguous lines
//!   per level instead of chasing a per-partition heap object.
//! * a **delta**: the original per-partition [`Partition`] objects, holding
//!   only copies inserted *after* the last freeze. Copy-on-write via
//!   [`Arc::make_mut`], so post-freeze mutation of a clone stays cheap.
//!   A per-level copy counter lets queries
//!   skip the delta entirely for untouched levels — the common case on a
//!   bulk-loaded index.
//!
//! [`Hint1D::remove`] only edits the delta; base-resident copies are
//! retired by the owning [`HintIndex`](super::HintIndex) via tombstones and
//! the next rebuild.
//!
//! # Query
//!
//! A range query `[qs, qe]` visits, per level `k`, the partitions from
//! `a = cell(qs)≫(ℓ-k)` to `b = cell(qe)≫(ℓ-k)` and elides comparisons per
//! class (see [`Hint1D::query`]). A stabbing query is the degenerate case
//! `qs == qe`, where at every level `a == b` and the bottom-heavy classes
//! (`R_aft` everywhere, plus one-sided tests for the rest) make reporting
//! almost comparison-free — the HINT result this engine reproduces.

use crate::prefetch::prefetch;
use segidx_geom::{scan_hi_ge, scan_intersects, scan_lo_le, Rect};
use segidx_obs::trace::{self, Dim};
use std::sync::Arc;

/// Largest bottom-level resolution: `2^16 = 65536` cells.
pub(crate) const MAX_LEVEL_BITS: u32 = 16;
/// Smallest bottom-level resolution: `2^3 = 8` cells.
pub(crate) const MIN_LEVEL_BITS: u32 = 3;

/// One class of copies inside a delta partition, stored as parallel
/// structure-of-arrays planes so the scan kernels test a whole class in
/// one branchless pass.
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

    fn len(&self) -> usize {
        self.handles.len()
    }
}

/// One delta partition: the four class arrays.
#[derive(Clone, Debug, Default)]
pub(crate) struct Partition {
    /// Originals whose end stays inside the partition.
    o_in: ClassArray,
    /// Originals whose end extends beyond the partition.
    o_aft: ClassArray,
    /// Replicas whose end stays inside the partition.
    r_in: ClassArray,
    /// Replicas whose end extends beyond the partition.
    r_aft: ClassArray,
}

impl Partition {
    fn is_empty(&self) -> bool {
        self.o_in.len() == 0
            && self.o_aft.len() == 0
            && self.r_in.len() == 0
            && self.r_aft.len() == 0
    }

    fn originals_empty(&self) -> bool {
        self.o_in.len() == 0 && self.o_aft.len() == 0
    }

    fn copies(&self) -> usize {
        self.o_in.len() + self.o_aft.len() + self.r_in.len() + self.r_aft.len()
    }
}

/// One frozen level: every partition's copies in a single flat SoA block.
///
/// Partition `p` owns the entry range `offs[4p] .. offs[4p+4]`, internally
/// segmented into its four classes in the fixed order
/// `O_in | O_aft | R_in | R_aft` (boundaries `offs[4p+1..=4p+3]`). The
/// offset table is contiguous, so a query locates a partition's classes —
/// and detects an empty partition — from one cache line, and the class
/// scans run over contiguous coordinate planes.
#[derive(Clone, Debug, Default)]
struct BaseLevel {
    /// `4 * partitions + 1` absolute offsets into the entry planes.
    offs: Vec<u32>,
    starts: Vec<f64>,
    ends: Vec<f64>,
    handles: Vec<u32>,
}

impl BaseLevel {
    /// Entry range of classes `c0..c1` (0-based, end-exclusive, `c1 ≤ 4`)
    /// of partition `p`.
    fn seg(&self, p: usize, c0: usize, c1: usize) -> std::ops::Range<usize> {
        self.offs[4 * p + c0] as usize..self.offs[4 * p + c1] as usize
    }

    fn part_is_empty(&self, p: usize) -> bool {
        self.offs[4 * p] == self.offs[4 * p + 4]
    }

    fn originals_empty(&self, p: usize) -> bool {
        self.offs[4 * p] == self.offs[4 * p + 2]
    }

    /// Partition covering both query endpoints (`a == b`): full overlap
    /// test on `O_in`, one-sided on `O_aft`/`R_in`, `R_aft` free. Returns
    /// whether the partition held anything.
    fn emit_covering(
        &self,
        p: usize,
        qs: f64,
        qe: f64,
        out: &mut Vec<u32>,
        scratch: &mut Vec<u32>,
    ) -> bool {
        if self.part_is_empty(p) {
            return false;
        }
        emit_both(
            &self.starts,
            &self.ends,
            &self.handles,
            self.seg(p, 0, 1),
            qs,
            qe,
            out,
            scratch,
        );
        emit_start_le(
            &self.starts,
            &self.handles,
            self.seg(p, 1, 2),
            qe,
            out,
            scratch,
        );
        emit_end_ge(
            &self.ends,
            &self.handles,
            self.seg(p, 2, 3),
            qs,
            out,
            scratch,
        );
        out.extend_from_slice(&self.handles[self.seg(p, 3, 4)]);
        true
    }

    /// First partition of a multi-partition scan: `e ≥ qs` on the `in`
    /// classes, `aft` classes free.
    fn emit_first(&self, p: usize, qs: f64, out: &mut Vec<u32>, scratch: &mut Vec<u32>) -> bool {
        if self.part_is_empty(p) {
            return false;
        }
        emit_end_ge(
            &self.ends,
            &self.handles,
            self.seg(p, 0, 1),
            qs,
            out,
            scratch,
        );
        out.extend_from_slice(&self.handles[self.seg(p, 1, 2)]);
        emit_end_ge(
            &self.ends,
            &self.handles,
            self.seg(p, 2, 3),
            qs,
            out,
            scratch,
        );
        out.extend_from_slice(&self.handles[self.seg(p, 3, 4)]);
        true
    }

    /// Middle partition: originals comparison-free, replicas skipped.
    fn emit_middle(&self, p: usize, out: &mut Vec<u32>) -> bool {
        if self.originals_empty(p) {
            return false;
        }
        out.extend_from_slice(&self.handles[self.seg(p, 0, 2)]);
        true
    }

    /// Last partition: `s ≤ qe` on originals, replicas skipped.
    fn emit_last(&self, p: usize, qe: f64, out: &mut Vec<u32>, scratch: &mut Vec<u32>) -> bool {
        if self.originals_empty(p) {
            return false;
        }
        emit_start_le(
            &self.starts,
            &self.handles,
            self.seg(p, 0, 2),
            qe,
            out,
            scratch,
        );
        true
    }
}

/// The HINT hierarchy behind a [`HintIndex`](super::HintIndex).
///
/// Cloning costs one `Arc` bump for the whole frozen base plus one per
/// delta partition (copy-on-write via [`Arc::make_mut`]), so a clone
/// shares all untouched storage with its original.
#[derive(Clone, Debug)]
pub(crate) struct Hint1D {
    lo: f64,
    hi: f64,
    /// ℓ: the bottom level has `2^ℓ` cells.
    bits: u32,
    /// Frozen flat storage, `base[k]` for level `k`. Empty until the first
    /// [`freeze`](Self::freeze); immutable afterwards.
    base: Arc<Vec<BaseLevel>>,
    /// `levels[k]` holds the `2^k` delta partitions of level `k`,
    /// `k ∈ 0..=ℓ`. Untouched (empty) partitions all share one allocation.
    levels: Vec<Vec<Arc<Partition>>>,
    /// Copies currently stored in the delta of each level — queries skip a
    /// level's delta entirely while its counter is zero.
    delta_copies: Vec<u32>,
    /// Sum of `delta_copies`. While zero, queries run a tight base-only
    /// walk over `active` instead of scanning every level.
    delta_total: u32,
    /// Levels whose frozen base holds at least one copy, ascending.
    /// Rebuilt by [`freeze`](Self::freeze).
    active: Vec<u32>,
}

impl Hint1D {
    /// An empty hierarchy over `[lo, hi]` with `2^bits` bottom cells. A
    /// degenerate domain is widened so the cell width stays positive.
    pub(crate) fn new(lo: f64, hi: f64, bits: u32) -> Self {
        let bits = bits.clamp(MIN_LEVEL_BITS, MAX_LEVEL_BITS);
        let hi = if hi > lo { hi } else { lo + 1.0 };
        let levels = (0..=bits)
            .map(|k| {
                let empty = Arc::new(Partition::default());
                vec![empty; 1usize << k]
            })
            .collect();
        Self {
            lo,
            hi,
            bits,
            base: Arc::new(Vec::new()),
            levels,
            delta_copies: vec![0; bits as usize + 1],
            delta_total: 0,
            active: Vec::new(),
        }
    }

    /// ℓ.
    pub(crate) fn bits(&self) -> u32 {
        self.bits
    }

    /// The bottom cell containing `x`, clamped into `[0, 2^ℓ - 1]`. The
    /// mapping is monotone in `x` — the property every comparison-elision
    /// argument reduces to.
    fn cell(&self, x: f64) -> u64 {
        let cells = 1u64 << self.bits;
        let t = (x - self.lo) / (self.hi - self.lo);
        let c = t * cells as f64;
        if c <= 0.0 {
            0
        } else {
            (c as u64).min(cells - 1)
        }
    }

    /// Stores one copy of `[start, end]` (payload `handle`) on every
    /// partition of the canonical cover, in the delta. Returns the number
    /// of copies.
    pub(crate) fn insert(&mut self, start: f64, end: f64, handle: u32) -> u64 {
        let (sa, sb) = (self.cell(start), self.cell(end));
        let mut copies = 0u64;
        let mut level = self.bits as usize;
        let (mut a, mut b) = (sa, sb);
        // Canonical segment-tree cover: take boundary partitions whose
        // sibling is outside [a, b], then ascend one level.
        loop {
            if a == b {
                self.assign(level, a, sa, sb, start, end, handle);
                copies += 1;
                break;
            }
            if a & 1 == 1 {
                self.assign(level, a, sa, sb, start, end, handle);
                copies += 1;
                a += 1;
            }
            if b & 1 == 0 {
                self.assign(level, b, sa, sb, start, end, handle);
                copies += 1;
                b -= 1;
            }
            if a > b {
                break;
            }
            a >>= 1;
            b >>= 1;
            level -= 1;
        }
        copies
    }

    #[allow(clippy::too_many_arguments)]
    fn assign(
        &mut self,
        level: usize,
        part: u64,
        sa: u64,
        sb: u64,
        start: f64,
        end: f64,
        handle: u32,
    ) {
        let shift = self.bits as usize - level;
        let original = (sa >> shift) == part;
        let aft = sb > (((part + 1) << shift) - 1);
        let p = Arc::make_mut(&mut self.levels[level][part as usize]);
        let class = match (original, aft) {
            (true, false) => &mut p.o_in,
            (true, true) => &mut p.o_aft,
            (false, false) => &mut p.r_in,
            (false, true) => &mut p.r_aft,
        };
        class.push(start, end, handle);
        self.delta_copies[level] += 1;
        self.delta_total += 1;
    }

    /// Removes every **delta** copy of `handle`, locating them by
    /// recomputing the canonical cover of `[start, end]` (the cover is a
    /// pure function of the interval and the domain, so it matches the
    /// insert exactly). Base-resident copies are never touched — the owner
    /// tombstones those and retires them at the next rebuild.
    pub(crate) fn remove(&mut self, start: f64, end: f64, handle: u32) -> u64 {
        let (sa, sb) = (self.cell(start), self.cell(end));
        let mut removed = 0u64;
        let mut level = self.bits as usize;
        let (mut a, mut b) = (sa, sb);
        loop {
            if a == b {
                removed += u64::from(self.unassign(level, a, handle));
                break;
            }
            if a & 1 == 1 {
                removed += u64::from(self.unassign(level, a, handle));
                a += 1;
            }
            if b & 1 == 0 {
                removed += u64::from(self.unassign(level, b, handle));
                b -= 1;
            }
            if a > b {
                break;
            }
            a >>= 1;
            b >>= 1;
            level -= 1;
        }
        removed
    }

    fn unassign(&mut self, level: usize, part: u64, handle: u32) -> bool {
        let p = Arc::make_mut(&mut self.levels[level][part as usize]);
        let hit = p.o_in.remove(handle)
            || p.o_aft.remove(handle)
            || p.r_in.remove(handle)
            || p.r_aft.remove(handle);
        if hit {
            self.delta_copies[level] -= 1;
            self.delta_total -= 1;
        }
        hit
    }

    /// Flattens every delta partition into the frozen per-level SoA base
    /// and resets the delta. Called once per index (re)build, after all
    /// live entries were inserted into a fresh hierarchy.
    pub(crate) fn freeze(&mut self) {
        debug_assert!(self.base.is_empty(), "freeze expects a fresh hierarchy");
        let mut base = Vec::with_capacity(self.bits as usize + 1);
        for parts in &self.levels {
            let total: usize = parts.iter().map(|p| p.copies()).sum();
            let mut bl = BaseLevel {
                offs: Vec::with_capacity(parts.len() * 4 + 1),
                starts: Vec::with_capacity(total),
                ends: Vec::with_capacity(total),
                handles: Vec::with_capacity(total),
            };
            bl.offs.push(0);
            for p in parts {
                for arr in [&p.o_in, &p.o_aft, &p.r_in, &p.r_aft] {
                    bl.starts.extend_from_slice(&arr.starts);
                    bl.ends.extend_from_slice(&arr.ends);
                    bl.handles.extend_from_slice(&arr.handles);
                    bl.offs.push(bl.handles.len() as u32);
                }
            }
            base.push(bl);
        }
        self.active = base
            .iter()
            .enumerate()
            .filter(|(_, bl)| !bl.handles.is_empty())
            .map(|(k, _)| k as u32)
            .collect();
        self.base = Arc::new(base);
        self.levels = (0..=self.bits)
            .map(|k| {
                let empty = Arc::new(Partition::default());
                vec![empty; 1usize << k]
            })
            .collect();
        self.delta_copies = vec![0; self.bits as usize + 1];
        self.delta_total = 0;
    }

    /// Size of the canonical cover of `[start, end]` — the copy count an
    /// insert of that interval produces. Used by invariant checking.
    pub(crate) fn cover_size(&self, start: f64, end: f64) -> usize {
        let (mut a, mut b) = (self.cell(start), self.cell(end));
        let mut copies = 0usize;
        loop {
            if a == b {
                return copies + 1;
            }
            if a & 1 == 1 {
                copies += 1;
                a += 1;
            }
            if b & 1 == 0 {
                copies += 1;
                b -= 1;
            }
            if a > b {
                return copies;
            }
            a >>= 1;
            b >>= 1;
        }
    }

    /// Appends to `out` the handle of every stored interval intersecting
    /// `[qs, qe]` (each exactly once, base and delta copies combined) and
    /// returns the number of non-empty partitions inspected.
    /// `scratch` is kernel scratch, cleared here.
    ///
    /// Per level `k`, with `a`/`b` the partitions containing `cell(qs)`/
    /// `cell(qe)`, the class tests are (✓ = comparison elided):
    ///
    /// | partition  | `O_in`        | `O_aft`  | `R_in`  | `R_aft` |
    /// |------------|---------------|----------|---------|---------|
    /// | `a == b`   | both          | `s ≤ qe` | `e ≥ qs`| ✓       |
    /// | first `a`  | `e ≥ qs`      | ✓        | `e ≥ qs`| ✓       |
    /// | middle     | ✓             | ✓        | skipped | skipped |
    /// | last `b`   | `s ≤ qe`      | `s ≤ qe` | skipped | skipped |
    ///
    /// Soundness of each elision follows from cell monotonicity: a replica
    /// at a scanned first partition has `cell(start)` left of the partition
    /// and hence `start < qs ≤ qe`; an `aft` copy's `cell(end)` lies beyond
    /// a partition containing `cell(qs)`, hence `end > qs`; originals in
    /// middle/last partitions have `cell(start)` past `a`'s tile, hence
    /// `start` reaches at most `qe`'s cell, and symmetrically for ends.
    /// Replicas are skipped outside the first partition because the unique
    /// cover tile containing `cell(qs)` is the only place a left-reaching
    /// interval can be found without duplication.
    pub(crate) fn query(
        &self,
        qs: f64,
        qe: f64,
        out: &mut Vec<u32>,
        scratch: &mut Vec<u32>,
    ) -> u64 {
        // Monomorphized tracing split (see `Tree::traverse`): one
        // `trace::active()` check per query; the untraced instantiation is
        // bit-identical to the uninstrumented walk.
        if trace::active() {
            self.query_impl::<true>(qs, qe, out, scratch)
        } else {
            self.query_impl::<false>(qs, qe, out, scratch)
        }
    }

    fn query_impl<const TRACED: bool>(
        &self,
        qs: f64,
        qe: f64,
        out: &mut Vec<u32>,
        scratch: &mut Vec<u32>,
    ) -> u64 {
        let (qa, qb) = (self.cell(qs), self.cell(qe));
        let mut touched = 0u64;
        // When traced: levels walked and results emitted comparison-free
        // (middle-partition originals + delta `aft` lists), flushed to the
        // active trace's profile once at the end.
        let mut level_walks = 0u64;
        let mut elided = 0u64;
        // Overlap the per-level offset-table misses: every level's visited
        // partition index is known before any level is processed, so the
        // loads can all be in flight together instead of forming a serial
        // dependence chain down the hierarchy.
        for &k in &self.active {
            let bl = &self.base[k as usize];
            let shift = (self.bits - k) as usize;
            prefetch(&bl.offs[4 * (qa >> shift) as usize]);
            if qb != qa {
                prefetch(&bl.offs[4 * (qb >> shift) as usize]);
            }
        }
        if self.delta_total == 0 {
            // Steady-state fast path: the delta is empty, so only the
            // frozen levels recorded in `active` can contribute — a tight,
            // branch-predictable walk over typically half the hierarchy.
            for &k in &self.active {
                let bl = &self.base[k as usize];
                let shift = (self.bits - k) as usize;
                let (a, b) = ((qa >> shift) as usize, (qb >> shift) as usize);
                if TRACED {
                    level_walks += 1;
                }
                if a == b {
                    touched += u64::from(bl.emit_covering(a, qs, qe, out, scratch));
                } else {
                    touched += u64::from(bl.emit_first(a, qs, out, scratch));
                    let mid0 = if TRACED { out.len() } else { 0 };
                    for p in a + 1..b {
                        touched += u64::from(bl.emit_middle(p, out));
                    }
                    if TRACED {
                        elided += (out.len() - mid0) as u64;
                    }
                    touched += u64::from(bl.emit_last(b, qe, out, scratch));
                }
            }
            if TRACED {
                trace::add(Dim::HintLevelWalks, level_walks);
                trace::add(Dim::HintElidedCmp, elided);
            }
            return touched;
        }
        for k in 0..=self.bits as usize {
            let bl = self.base.get(k).filter(|b| !b.handles.is_empty());
            let delta = (self.delta_copies[k] > 0).then(|| &self.levels[k]);
            if bl.is_none() && delta.is_none() {
                continue;
            }
            let shift = self.bits as usize - k;
            let (a, b) = ((qa >> shift) as usize, (qb >> shift) as usize);
            if TRACED {
                level_walks += 1;
            }
            if a == b {
                let mut hit = false;
                if let Some(bl) = bl {
                    hit |= bl.emit_covering(a, qs, qe, out, scratch);
                }
                if let Some(parts) = delta {
                    let p = &parts[a];
                    if !p.is_empty() {
                        hit = true;
                        let full = 0..p.o_in.len();
                        emit_both(
                            &p.o_in.starts,
                            &p.o_in.ends,
                            &p.o_in.handles,
                            full,
                            qs,
                            qe,
                            out,
                            scratch,
                        );
                        emit_start_le(
                            &p.o_aft.starts,
                            &p.o_aft.handles,
                            0..p.o_aft.len(),
                            qe,
                            out,
                            scratch,
                        );
                        emit_end_ge(
                            &p.r_in.ends,
                            &p.r_in.handles,
                            0..p.r_in.len(),
                            qs,
                            out,
                            scratch,
                        );
                        out.extend_from_slice(&p.r_aft.handles);
                    }
                }
                touched += u64::from(hit);
            } else {
                // First partition `a`.
                let mut hit = false;
                if let Some(bl) = bl {
                    hit |= bl.emit_first(a, qs, out, scratch);
                }
                if let Some(parts) = delta {
                    let p = &parts[a];
                    if !p.is_empty() {
                        hit = true;
                        emit_end_ge(
                            &p.o_in.ends,
                            &p.o_in.handles,
                            0..p.o_in.len(),
                            qs,
                            out,
                            scratch,
                        );
                        out.extend_from_slice(&p.o_aft.handles);
                        emit_end_ge(
                            &p.r_in.ends,
                            &p.r_in.handles,
                            0..p.r_in.len(),
                            qs,
                            out,
                            scratch,
                        );
                        out.extend_from_slice(&p.r_aft.handles);
                    }
                }
                touched += u64::from(hit);
                // Middle partitions: originals comparison-free.
                let mid0 = if TRACED { out.len() } else { 0 };
                for p in a + 1..b {
                    let mut hit = false;
                    if let Some(bl) = bl {
                        hit |= bl.emit_middle(p, out);
                    }
                    if let Some(parts) = delta {
                        let d = &parts[p];
                        if !d.originals_empty() {
                            hit = true;
                            out.extend_from_slice(&d.o_in.handles);
                            out.extend_from_slice(&d.o_aft.handles);
                        }
                    }
                    touched += u64::from(hit);
                }
                if TRACED {
                    elided += (out.len() - mid0) as u64;
                }
                // Last partition `b`.
                let mut hit = false;
                if let Some(bl) = bl {
                    hit |= bl.emit_last(b, qe, out, scratch);
                }
                if let Some(parts) = delta {
                    let p = &parts[b];
                    if !p.originals_empty() {
                        hit = true;
                        emit_start_le(
                            &p.o_in.starts,
                            &p.o_in.handles,
                            0..p.o_in.len(),
                            qe,
                            out,
                            scratch,
                        );
                        emit_start_le(
                            &p.o_aft.starts,
                            &p.o_aft.handles,
                            0..p.o_aft.len(),
                            qe,
                            out,
                            scratch,
                        );
                    }
                }
                touched += u64::from(hit);
            }
        }
        if TRACED {
            trace::add(Dim::HintLevelWalks, level_walks);
            trace::add(Dim::HintElidedCmp, elided);
        }
        touched
    }

    /// Number of partitions holding at least one copy (base or delta).
    pub(crate) fn populated_partitions(&self) -> usize {
        (0..=self.bits as usize)
            .map(|k| {
                let bl = self.base.get(k);
                let parts = &self.levels[k];
                (0..parts.len())
                    .filter(|&p| bl.is_some_and(|bl| !bl.part_is_empty(p)) || !parts[p].is_empty())
                    .count()
            })
            .sum()
    }

    /// Total stored copies across base and delta.
    pub(crate) fn total_copies(&self) -> usize {
        let frozen: usize = self.base.iter().map(|bl| bl.handles.len()).sum();
        frozen
            + self
                .levels
                .iter()
                .flatten()
                .map(|p| p.copies())
                .sum::<usize>()
    }

    /// Calls `f` once per stored copy (base and delta) with its handle.
    pub(crate) fn for_each_handle(&self, f: &mut impl FnMut(u32)) {
        for bl in self.base.iter() {
            for &h in &bl.handles {
                f(h);
            }
        }
        for p in self.levels.iter().flatten() {
            for arr in [&p.o_in, &p.o_aft, &p.r_in, &p.r_aft] {
                for &h in &arr.handles {
                    f(h);
                }
            }
        }
    }
}

/// Segment length above which the class scans go through the vectorized
/// segidx-geom kernels. Shorter segments — the common case for a stab's
/// per-level partitions — take a direct scalar loop: the kernels' two-pass
/// index-then-gather and chunked masking only pay off on long runs.
const KERNEL_MIN: usize = 96;

/// Full overlap test `start ≤ qe ∧ end ≥ qs` on `range` of the coordinate
/// planes.
#[allow(clippy::too_many_arguments)]
fn emit_both(
    starts: &[f64],
    ends: &[f64],
    handles: &[u32],
    range: std::ops::Range<usize>,
    qs: f64,
    qe: f64,
    out: &mut Vec<u32>,
    scratch: &mut Vec<u32>,
) {
    if range.is_empty() {
        return;
    }
    if range.len() < KERNEL_MIN {
        let (s, e, h) = (
            &starts[range.clone()],
            &ends[range.clone()],
            &handles[range],
        );
        for ((&s, &e), &h) in s.iter().zip(e).zip(h) {
            if s <= qe && e >= qs {
                out.push(h);
            }
        }
        return;
    }
    scratch.clear();
    scan_intersects(
        &Rect::<1>::new([qs], [qe]),
        [&starts[range.clone()]],
        [&ends[range.clone()]],
        scratch,
    );
    let handles = &handles[range];
    for &i in scratch.iter() {
        out.push(handles[i as usize]);
    }
}

/// One-sided `start ≤ qe` on `range` of the start plane.
fn emit_start_le(
    starts: &[f64],
    handles: &[u32],
    range: std::ops::Range<usize>,
    qe: f64,
    out: &mut Vec<u32>,
    scratch: &mut Vec<u32>,
) {
    if range.is_empty() {
        return;
    }
    if range.len() < KERNEL_MIN {
        let (s, h) = (&starts[range.clone()], &handles[range]);
        for (&s, &h) in s.iter().zip(h) {
            if s <= qe {
                out.push(h);
            }
        }
        return;
    }
    scratch.clear();
    scan_lo_le(&starts[range.clone()], qe, scratch);
    let handles = &handles[range];
    for &i in scratch.iter() {
        out.push(handles[i as usize]);
    }
}

/// One-sided `end ≥ qs` on `range` of the end plane.
fn emit_end_ge(
    ends: &[f64],
    handles: &[u32],
    range: std::ops::Range<usize>,
    qs: f64,
    out: &mut Vec<u32>,
    scratch: &mut Vec<u32>,
) {
    if range.is_empty() {
        return;
    }
    if range.len() < KERNEL_MIN {
        let (e, h) = (&ends[range.clone()], &handles[range]);
        for (&e, &h) in e.iter().zip(h) {
            if e >= qs {
                out.push(h);
            }
        }
        return;
    }
    scratch.clear();
    scan_hi_ge(&ends[range.clone()], qs, scratch);
    let handles = &handles[range];
    for &i in scratch.iter() {
        out.push(handles[i as usize]);
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

    fn build(data: &[(f64, f64)]) -> Hint1D {
        let mut h = Hint1D::new(0.0, 1000.0, 6);
        for (i, &(s, e)) in data.iter().enumerate() {
            h.insert(s, e, i as u32);
        }
        h
    }

    fn query_sorted(h: &Hint1D, qs: f64, qe: f64) -> Vec<u32> {
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        h.query(qs, qe, &mut out, &mut scratch);
        out.sort_unstable();
        out
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
        let h = build(&data);
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

    #[test]
    fn stab_is_the_degenerate_range() {
        let data = dataset(300);
        let h = build(&data);
        for i in 0..150u32 {
            let q = ((i as u64 * 97) % 1100) as f64 - 50.0;
            assert_eq!(query_sorted(&h, q, q), brute(&data, q, q), "stab {q}");
        }
    }

    #[test]
    fn frozen_base_answers_exactly_like_the_delta() {
        let data = dataset(300);
        let delta_only = build(&data);
        let mut frozen = build(&data);
        frozen.freeze();
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
                frozen.query(qs, qe, &mut Vec::new(), &mut Vec::new()),
                delta_only.query(qs, qe, &mut Vec::new(), &mut Vec::new()),
                "access counts [{qs}, {qe}]"
            );
        }
    }

    #[test]
    fn post_freeze_inserts_land_in_the_delta_and_are_found() {
        let data = dataset(200);
        let mut h = build(&data);
        h.freeze();
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
        let mut h = build(&data);
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
        assert_eq!(h.total_copies(), {
            let mut fresh = Hint1D::new(0.0, 1000.0, 6);
            let mut copies = 0usize;
            for (handle, &(s, e)) in keep.iter().enumerate() {
                copies += fresh.insert(s, e, handle as u32) as usize;
            }
            copies
        });
    }

    #[test]
    fn clone_is_copy_on_write() {
        let data = dataset(60);
        let mut h = build(&data);
        h.freeze();
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
