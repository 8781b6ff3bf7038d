//! HINT, the sealed temporal tier's time index: a flat-array adaptation
//! of Christodoulou, Bouros & Mamoulis, *HINT: A Hierarchical Index for
//! Intervals in Main Memory* (SIGMOD 2022; arXiv 2104.10939).
//!
//! [`FrozenHint`] is `ℓ+1` levels of domain partitions, level `k` holding
//! `2^k` equal partitions, each interval stored on the canonical
//! (segment-tree) cover of its cell range, subdivided into four classes so
//! most classes are reported **comparison-free**. Built once, in two passes,
//! and immutable afterwards: a tier is immutable too, so HINT's frozen case
//! is the whole of what it needs. Every other index here is a paper
//! variant, at any dimension (DESIGN.md §9, "Why there is no dynamic
//! HINT").
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
//! Clamping is what lets the domain be narrower than the data:
//! [`FrozenHint::over_starts`] spans the start times only, so an interval
//! whose end lies far past them (an open-ended version at `f64::MAX / 2`)
//! clamps into the last cell instead of stretching every cell until the
//! whole input shares one.
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
//!   Exactly one copy of each interval — the tile holding `cell(end)` — is
//!   `in`.
//!
//! # Storage
//!
//! The whole hierarchy is one flat structure-of-arrays block: levels root
//! first, partitions consecutively within a level, each with its copies in
//! the class order `O_aft | O_in | R_in | R_aft`, and one partition table
//! addressing them. A query only ever compares an original's
//! start or an `in` copy's end (see [`FrozenHint::query`]), so the planes
//! are class-specific: `starts` holds the originals (`O_aft | O_in`, one
//! per interval), `ends` the `in` copies (`O_in | R_in`, one per interval),
//! and `R_aft` copies are bare handles. Both coordinate runs of a
//! partition are contiguous, so the first and last partitions of a range
//! query are each one scan.
//!
//! # Build
//!
//! A build makes two passes over the input: the first counts
//! copies per (level, partition, class), prefix sums turn the counts into
//! offsets, and the second writes every copy straight into its slot. There
//! is no per-partition object and no intermediate copy of the input.

use crate::prefetch::prefetch;
use segidx_geom::{scan_hi_ge, scan_intersects, scan_lo_le, Rect};
use segidx_obs::trace::{self, Dim};

/// Largest bottom-level resolution: `2^16 = 65536` cells.
const MAX_LEVEL_BITS: u32 = 16;
/// Smallest bottom-level resolution: `2^3 = 8` cells.
const MIN_LEVEL_BITS: u32 = 3;

/// Copy classes, in their storage order within a partition.
const O_AFT: usize = 0;
const O_IN: usize = 1;
const R_IN: usize = 2;
const R_AFT: usize = 3;

/// Smallest bottom level such that the mean bottom cell holds ≈ 8 of `n`
/// intervals.
fn bits_for(n: usize) -> u32 {
    let mut bits = MIN_LEVEL_BITS;
    while bits < MAX_LEVEL_BITS && (1usize << bits) < n / 8 {
        bits += 1;
    }
    bits
}

/// Calls `f(level, partition)` for every partition of the canonical cover
/// of the bottom cells `[sa, sb]` in a hierarchy of `bits` levels below the
/// root: whole partitions whose sibling lies outside the range are taken
/// at each level, and the rest ascends.
fn for_each_cover(bits: u32, sa: u64, sb: u64, mut f: impl FnMut(usize, u64)) {
    let mut level = bits as usize;
    let (mut a, mut b) = (sa, sb);
    loop {
        if a == b {
            f(level, a);
            return;
        }
        if a & 1 == 1 {
            f(level, a);
            a += 1;
        }
        if b & 1 == 0 {
            f(level, b);
            b -= 1;
        }
        if a > b {
            return;
        }
        a >>= 1;
        b >>= 1;
        level -= 1;
    }
}

/// The class of the copy of cells `[sa, sb]` stored at `(level, part)`.
fn class_of(bits: u32, level: usize, part: u64, sa: u64, sb: u64) -> usize {
    let shift = bits as usize - level;
    let original = (sa >> shift) == part;
    let aft = (sb >> shift) > part;
    match (original, aft) {
        (true, true) => O_AFT,
        (true, false) => O_IN,
        (false, false) => R_IN,
        (false, true) => R_AFT,
    }
}

/// Where one partition's copies sit in the planes.
#[derive(Clone, Copy, Debug, Default)]
struct Part {
    /// First handle of each class, in storage order; a class ends where the
    /// next begins (`R_aft` where the next partition's first handle is).
    h: [u32; 4],
    /// First start of the partition's originals (`O_aft` then `O_in`).
    s: u32,
    /// First end of the partition's `in` copies (`O_in` then `R_in`).
    e: u32,
}

/// Index of partition `p` of level `k` in the partition table: levels are
/// laid out root first, `2^k` records each.
fn part_index(k: u32, p: u64) -> usize {
    (1usize << k) - 1 + p as usize
}

/// An immutable one-dimensional HINT over `u32` handles. See the
/// [module docs](self) for the layout and [`query`](Self::query) for the
/// class table.
#[derive(Debug)]
pub struct FrozenHint {
    lo: f64,
    hi: f64,
    /// Bottom cells per unit of the domain.
    scale: f64,
    /// ℓ: the bottom level has `2^ℓ` cells.
    bits: u32,
    /// Every partition of every level, root first (see [`part_index`]),
    /// then a sentinel holding the plane lengths. Levels follow each other
    /// in the planes too, so a partition's copies end where the next
    /// record's begin.
    parts: Vec<Part>,
    starts: Vec<f64>,
    ends: Vec<f64>,
    handles: Vec<u32>,
    /// Levels holding at least one copy, ascending.
    active: Vec<u32>,
}

impl FrozenHint {
    /// Builds the hierarchy over `[lo, hi]` with `2^bits` bottom cells (a
    /// degenerate domain is widened so the cell width stays positive) from
    /// `items()`, which yields `(handle, start, end)` per interval and must
    /// yield the same sequence both times it is called: once to count
    /// copies, once to place them. Handles come out of a query in the
    /// order their class scan meets them, ascending within each class of a
    /// partition when `items()` yields them ascending.
    fn build<I>(lo: f64, hi: f64, bits: u32, items: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (u32, f64, f64)>,
    {
        let bits = bits.clamp(MIN_LEVEL_BITS, MAX_LEVEL_BITS);
        let hi = if hi > lo { hi } else { lo + 1.0 };
        let scale = (1u64 << bits) as f64 / (hi - lo);
        let cell = |x| cell(lo, scale, bits, x);
        // Pass 1: copies per (partition, class).
        let mut cursor = vec![[0u32; 4]; part_index(bits + 1, 0)];
        for (_, start, end) in items() {
            let (sa, sb) = (cell(start), cell(end));
            for_each_cover(bits, sa, sb, |level, part| {
                let class = class_of(bits, level, part, sa, sb);
                cursor[part_index(level as u32, part)][class] += 1;
            });
        }
        // Prefix sums: every class's first slot in each plane. The counts
        // become the write cursors of pass 2.
        let mut parts = Vec::with_capacity(cursor.len() + 1);
        let (mut h, mut s, mut e) = (0u32, 0u32, 0u32);
        for n in cursor.iter_mut() {
            let first = [h, h + n[0], h + n[0] + n[1], h + n[0] + n[1] + n[2]];
            parts.push(Part { h: first, s, e });
            h = first[3] + n[R_AFT];
            s += n[O_AFT] + n[O_IN];
            e += n[O_IN] + n[R_IN];
            *n = first;
        }
        parts.push(Part { h: [h; 4], s, e });
        let active = (0..=bits)
            .filter(|&k| parts[part_index(k, 0)].h[0] != parts[part_index(k + 1, 0)].h[0])
            .collect();
        let mut hint = Self {
            lo,
            hi,
            scale,
            bits,
            parts,
            starts: vec![0.0; s as usize],
            ends: vec![0.0; e as usize],
            handles: vec![0; h as usize],
            active,
        };
        // Pass 2: each copy straight into its slot. A partition's originals
        // are contiguous in `handles` and in `starts`, its `in` copies in
        // `handles` and in `ends`, so one offset places all three.
        for (handle, start, end) in items() {
            let (sa, sb) = (cell(start), cell(end));
            for_each_cover(bits, sa, sb, |level, part| {
                let class = class_of(bits, level, part, sa, sb);
                let i = part_index(level as u32, part);
                let p = hint.parts[i];
                let at = cursor[i][class] as usize;
                cursor[i][class] += 1;
                hint.handles[at] = handle;
                if class <= O_IN {
                    hint.starts[p.s as usize + at - p.h[O_AFT] as usize] = start;
                }
                if class == O_IN || class == R_IN {
                    hint.ends[p.e as usize + at - p.h[O_IN] as usize] = end;
                }
            });
        }
        hint
    }

    /// ℓ: the bottom level has `2^ℓ` cells.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The cell domain `(lo, hi)`: `2^ℓ` equal cells tile it, and
    /// coordinates outside clamp into the first or the last.
    pub fn domain(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Heap bytes the planes and the partition table hold.
    pub fn heap_bytes(&self) -> usize {
        self.parts.capacity() * std::mem::size_of::<Part>()
            + (self.starts.capacity() + self.ends.capacity()) * 8
            + self.handles.capacity() * 4
            + self.active.capacity() * 4
    }

    /// The bottom cell containing `x`, clamped into `[0, 2^ℓ - 1]`. The
    /// mapping is monotone in `x` — the property every comparison-elision
    /// argument reduces to.
    fn cell(&self, x: f64) -> u64 {
        cell(self.lo, self.scale, self.bits, x)
    }

    /// Non-empty partitions a query for `[qs, qe]` touches — the access
    /// count [`query`](Self::query) returns, without collecting handles.
    pub fn count_accesses(&self, qs: f64, qe: f64) -> u64 {
        self.query(qs, qe, &mut Vec::new(), &mut Vec::new())
    }

    /// Appends to `out` the handle of every stored interval intersecting
    /// `[qs, qe]` (each exactly once) and returns the number of non-empty
    /// partitions inspected. `scratch` is kernel scratch, cleared here.
    ///
    /// Per level `k`, with `a`/`b` the partitions containing `cell(qs)`/
    /// `cell(qe)`, the class tests are (✓ = comparison elided):
    ///
    /// | partition  | `O_aft`  | `O_in`        | `R_in`  | `R_aft` |
    /// |------------|----------|---------------|---------|---------|
    /// | `a == b`   | `s ≤ qe` | both          | `e ≥ qs`| ✓       |
    /// | first `a`  | ✓        | `e ≥ qs`      | `e ≥ qs`| ✓       |
    /// | middle     | ✓        | ✓             | skipped | skipped |
    /// | last `b`   | `s ≤ qe` | `s ≤ qe`      | skipped | skipped |
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
    pub fn query(&self, qs: f64, qe: f64, out: &mut Vec<u32>, scratch: &mut Vec<u32>) -> u64 {
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
        // Overlap the per-level partition-table misses: every level's
        // visited partition is known before any level is processed, so the
        // loads can all be in flight together instead of forming a serial
        // dependence chain down the hierarchy.
        for &k in &self.active {
            let shift = self.bits - k;
            let a = part_index(k, qa >> shift);
            prefetch(&self.parts[a]);
            prefetch(&self.parts[a + 1].e);
            if qb != qa {
                prefetch(&self.parts[part_index(k, qb >> shift)]);
            }
        }
        let mut touched = 0u64;
        // When traced: levels walked and results emitted comparison-free
        // (middle-partition originals), flushed to the active trace's
        // profile once at the end.
        let mut elided = 0u64;
        for &k in &self.active {
            let shift = self.bits - k;
            let (a, b) = (part_index(k, qa >> shift), part_index(k, qb >> shift));
            if a == b {
                touched += u64::from(self.emit_covering(a, qs, qe, out, scratch));
            } else {
                touched += u64::from(self.emit_first(a, qs, out, scratch));
                let mid0 = out.len();
                for p in a + 1..b {
                    touched += u64::from(self.emit_middle(p, out));
                }
                if TRACED {
                    elided += (out.len() - mid0) as u64;
                }
                touched += u64::from(self.emit_last(b, qe, out, scratch));
            }
        }
        if TRACED {
            trace::add(Dim::HintLevelWalks, self.active.len() as u64);
            trace::add(Dim::HintElidedCmp, elided);
        }
        touched
    }

    /// Plane ranges of the classes of the partition at table index `i`:
    /// handle boundaries (class starts, then the partition's end), the
    /// first start, the first end.
    fn spans(&self, i: usize) -> ([usize; 5], usize, usize) {
        let p = &self.parts[i];
        let [h0, h1, h2, h3] = p.h.map(|v| v as usize);
        let end = self.parts[i + 1].h[0] as usize;
        ([h0, h1, h2, h3, end], p.s as usize, p.e as usize)
    }

    fn is_empty(&self, i: usize) -> bool {
        self.parts[i].h[0] == self.parts[i + 1].h[0]
    }

    fn originals_empty(&self, i: usize) -> bool {
        self.parts[i].h[O_AFT] == self.parts[i].h[R_IN]
    }

    /// Partition covering both query endpoints (`a == b`): one-sided on
    /// `O_aft` and `R_in`, full overlap test on `O_in`, `R_aft` free.
    /// Returns whether the partition held anything.
    fn emit_covering(
        &self,
        i: usize,
        qs: f64,
        qe: f64,
        out: &mut Vec<u32>,
        scratch: &mut Vec<u32>,
    ) -> bool {
        if self.is_empty(i) {
            return false;
        }
        let (h, s, e) = self.spans(i);
        let (n_oaft, n_oin, n_rin) = (h[1] - h[0], h[2] - h[1], h[3] - h[2]);
        let handles = &self.handles;
        emit_le(
            &self.starts[s..s + n_oaft],
            &handles[h[0]..h[1]],
            qe,
            out,
            scratch,
        );
        emit_both(
            &self.starts[s + n_oaft..s + n_oaft + n_oin],
            &self.ends[e..e + n_oin],
            &handles[h[1]..h[2]],
            qs,
            qe,
            out,
            scratch,
        );
        emit_ge(
            &self.ends[e + n_oin..e + n_oin + n_rin],
            &handles[h[2]..h[3]],
            qs,
            out,
            scratch,
        );
        out.extend_from_slice(&handles[h[3]..h[4]]);
        true
    }

    /// First partition of a multi-partition scan: `e ≥ qs` on the `in`
    /// classes (one run), `aft` classes free.
    fn emit_first(&self, i: usize, qs: f64, out: &mut Vec<u32>, scratch: &mut Vec<u32>) -> bool {
        if self.is_empty(i) {
            return false;
        }
        let (h, _, e) = self.spans(i);
        out.extend_from_slice(&self.handles[h[0]..h[1]]);
        emit_ge(
            &self.ends[e..e + h[3] - h[1]],
            &self.handles[h[1]..h[3]],
            qs,
            out,
            scratch,
        );
        out.extend_from_slice(&self.handles[h[3]..h[4]]);
        true
    }

    /// Middle partition: originals comparison-free, replicas skipped.
    fn emit_middle(&self, i: usize, out: &mut Vec<u32>) -> bool {
        if self.originals_empty(i) {
            return false;
        }
        let h = self.parts[i].h;
        out.extend_from_slice(&self.handles[h[O_AFT] as usize..h[R_IN] as usize]);
        true
    }

    /// Last partition: `s ≤ qe` on the originals (one run), replicas
    /// skipped.
    fn emit_last(&self, i: usize, qe: f64, out: &mut Vec<u32>, scratch: &mut Vec<u32>) -> bool {
        if self.originals_empty(i) {
            return false;
        }
        let (h, s, _) = self.spans(i);
        emit_le(
            &self.starts[s..s + h[2] - h[0]],
            &self.handles[h[0]..h[2]],
            qe,
            out,
            scratch,
        );
        true
    }

    /// Builds the hierarchy over handles `0..n`, interval `i` being
    /// `interval(i)`, with about eight intervals per bottom cell. The cell
    /// domain spans the start times only: an end past the last start
    /// clamps into the last cell, which stays correct by monotonicity, so
    /// one open-ended interval cannot stretch the cells over the rest.
    pub fn over_starts(n: usize, interval: impl Fn(usize) -> (f64, f64)) -> Self {
        let (lo, hi) = (0..n)
            .map(|i| interval(i).0)
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), s| {
                (lo.min(s), hi.max(s))
            });
        let (lo, hi) = if n == 0 { (0.0, 1.0) } else { (lo, hi) };
        Self::build(lo, hi, bits_for(n), || {
            (0..n).map(|i| {
                let (start, end) = interval(i);
                (i as u32, start, end)
            })
        })
    }
}

/// [`FrozenHint::cell`] on the raw parameters, so the builder can map
/// coordinates while it holds its levels mutably.
fn cell(lo: f64, scale: f64, bits: u32, x: f64) -> u64 {
    let cells = 1u64 << bits;
    let c = (x - lo) * scale;
    if c <= 0.0 {
        0
    } else {
        (c as u64).min(cells - 1)
    }
}

/// Segment length above which the class scans go through the vectorized
/// segidx-geom kernels. Shorter segments — the common case for a stab's
/// per-level partitions — take a direct scalar loop: the kernels' two-pass
/// index-then-gather and chunked masking only pay off on long runs.
const KERNEL_MIN: usize = 96;

/// Full overlap test `start ≤ qe ∧ end ≥ qs` over parallel planes.
fn emit_both(
    starts: &[f64],
    ends: &[f64],
    handles: &[u32],
    qs: f64,
    qe: f64,
    out: &mut Vec<u32>,
    scratch: &mut Vec<u32>,
) {
    if handles.len() < KERNEL_MIN {
        for ((&s, &e), &h) in starts.iter().zip(ends).zip(handles) {
            if s <= qe && e >= qs {
                out.push(h);
            }
        }
        return;
    }
    scratch.clear();
    scan_intersects(&Rect::<1>::new([qs], [qe]), [starts], [ends], scratch);
    out.extend(scratch.iter().map(|&i| handles[i as usize]));
}

/// One-sided `start ≤ qe` over parallel planes.
fn emit_le(starts: &[f64], handles: &[u32], qe: f64, out: &mut Vec<u32>, scratch: &mut Vec<u32>) {
    if handles.len() < KERNEL_MIN {
        for (&s, &h) in starts.iter().zip(handles) {
            if s <= qe {
                out.push(h);
            }
        }
        return;
    }
    scratch.clear();
    scan_lo_le(starts, qe, scratch);
    out.extend(scratch.iter().map(|&i| handles[i as usize]));
}

/// One-sided `end ≥ qs` over parallel planes.
fn emit_ge(ends: &[f64], handles: &[u32], qs: f64, out: &mut Vec<u32>, scratch: &mut Vec<u32>) {
    if handles.len() < KERNEL_MIN {
        for (&e, &h) in ends.iter().zip(handles) {
            if e >= qs {
                out.push(h);
            }
        }
        return;
    }
    scratch.clear();
    scan_hi_ge(ends, qs, scratch);
    out.extend(scratch.iter().map(|&i| handles[i as usize]));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic interval soup with spanners, points, duplicate starts
    /// and strays past both ends of `[0, 1000]`.
    fn dataset(n: u32) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let x = ((i as u64 * 131) % 1000) as f64;
                let len = match i % 9 {
                    0 => 600.0,
                    1 => 0.0,
                    _ => 7.0,
                };
                match i % 23 {
                    0 => (x - 1500.0, x - 1500.0 + len),
                    11 => (x, f64::MAX / 2.0),
                    _ => (x, x + len),
                }
            })
            .collect()
    }

    fn query_sorted(h: &FrozenHint, qs: f64, qe: f64) -> Vec<u32> {
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        h.query(qs, qe, &mut out, &mut scratch);
        out.sort_unstable();
        out
    }

    fn brute(data: &[(f64, f64)], qs: f64, qe: f64) -> Vec<u32> {
        (0..data.len() as u32)
            .filter(|&i| data[i as usize].0 <= qe && data[i as usize].1 >= qs)
            .collect()
    }

    /// Size of the canonical cover of `[start, end]`: the copies an
    /// interval is stored as.
    fn cover_size(h: &FrozenHint, start: f64, end: f64) -> usize {
        let mut copies = 0;
        for_each_cover(h.bits, h.cell(start), h.cell(end), |_, _| copies += 1);
        copies
    }

    #[test]
    fn two_pass_build_matches_brute_force_without_duplicates() {
        let build = |data: &[(f64, f64)], bits| {
            FrozenHint::build(0.0, 1000.0, bits, || {
                data.iter().enumerate().map(|(i, &(s, e))| (i as u32, s, e))
            })
        };
        let (small, large) = (dataset(400), dataset(8000));
        // Eight bottom cells over 8 000 intervals: class runs of hundreds,
        // so every emitter takes the `segidx-geom` kernel path as well as
        // the scalar one.
        let long_runs = build(&large, MIN_LEVEL_BITS);
        for class in [O_AFT, O_IN, R_IN, R_AFT] {
            let longest = (0..long_runs.parts.len() - 1)
                .map(|i| long_runs.spans(i).0)
                .map(|b| b[class + 1] - b[class])
                .max();
            assert!(longest >= Some(KERNEL_MIN), "class {class}");
        }
        for (data, h) in [
            (&small, build(&small, 6)),
            (&small, FrozenHint::over_starts(small.len(), |i| small[i])),
            (&large, long_runs),
        ] {
            for i in 0..120u32 {
                let qs = ((i as u64 * 271) % 1200) as f64 - 100.0;
                let qe = qs + ((i as u64 * 53) % 400) as f64;
                assert_eq!(
                    query_sorted(&h, qs, qe),
                    brute(data, qs, qe),
                    "[{qs}, {qe}]"
                );
                assert_eq!(query_sorted(&h, qs, qs), brute(data, qs, qs), "stab {qs}");
            }
            for (qs, qe) in [(-2000.0, 3000.0), (1e300, 1e300), (-1e300, -1e300)] {
                assert_eq!(query_sorted(&h, qs, qe), brute(data, qs, qe));
            }
        }
    }

    #[test]
    fn planes_are_class_specific() {
        let data = dataset(500);
        let h = FrozenHint::over_starts(data.len(), |i| data[i]);
        let (starts, ends) = (h.starts.len(), h.ends.len());
        // One original and one `in` copy per interval, whatever its cover.
        assert_eq!((starts, ends), (data.len(), data.len()));
        let covers: usize = data.iter().map(|&(s, e)| cover_size(&h, s, e)).sum();
        assert_eq!(h.handles.len(), covers);
        let mut seen = vec![0usize; data.len()];
        for &x in &h.handles {
            seen[x as usize] += 1;
        }
        for (i, &(s, e)) in data.iter().enumerate() {
            assert_eq!(seen[i], cover_size(&h, s, e), "interval {i}");
        }
    }

    #[test]
    fn the_domain_spans_the_starts_so_open_ends_clamp() {
        let data: Vec<(f64, f64)> = (0..4096)
            .map(|i| (i as f64, i as f64 + 3.0))
            .chain([(100.0, f64::MAX / 2.0)])
            .collect();
        let h = FrozenHint::over_starts(data.len(), |i| data[i]);
        assert_eq!(h.domain(), (0.0, 4095.0));
        assert_eq!(h.cell(f64::MAX / 2.0), (1 << h.bits()) - 1);
        // Still one cell per eight starts: the open end did not widen them.
        assert_eq!(h.bits(), bits_for(data.len()));
        assert_eq!(h.cell(2048.0), 1 << (h.bits() - 1));
        for q in [99.0, 100.0, 4095.0, 5000.0, 1e200] {
            assert_eq!(query_sorted(&h, q, q), brute(&data, q, q), "stab {q}");
        }
    }

    #[test]
    fn an_empty_build_answers_nothing() {
        let h = FrozenHint::over_starts(0, |_| unreachable!());
        assert_eq!(h.handles.len(), 0);
        assert!(query_sorted(&h, -1.0, 1.0).is_empty());
        assert_eq!(h.count_accesses(0.0, 0.0), 0);
    }
}
