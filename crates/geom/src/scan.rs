//! Branchless scan kernels over structure-of-arrays coordinate planes.
//!
//! A node that stores its entry rectangles as per-dimension `lo`/`hi`
//! planes (contiguous `&[f64]` per dimension) can test every entry
//! against a query with straight-line arithmetic: one comparison pair per
//! dimension, no data-dependent branches inside the loop. The loops are
//! written over fixed-width windows so the compiler auto-vectorizes them
//! (the predicate `lo ≤ q.hi && hi ≥ q.lo` becomes two SIMD compares and
//! an AND per plane).
//!
//! One body serves every kernel. It tests 64 entries at a time into one
//! `u64` word of hit bits and hands the set bits to the caller in
//! ascending order, so a caller consumes hits in place — pushing a record
//! id, or a child to descend into — with no index buffer in between. The
//! remainder under 64 entries — all of a 25-entry leaf or a 34-entry
//! branch block, so every node of a paper-sized tree — is tested in fixed
//! 8-wide groups plus a one-entry tail that write the last word's bits.
//!
//! The insert descent has two kernels of its own. [`scan_first_spanned`]
//! tests the same 8-wide groups and stops at the first with a hit.
//! [`scan_min_enlargement`] vectorizes the arithmetic over 64-entry
//! windows and keeps the select sequential, so ties and NaNs resolve
//! exactly as in an entry-by-entry loop.

use crate::{Coord, Point, Rect};

/// Entries per word of hit bits.
const WORD: usize = 64;

/// Entries per fixed-width group of a word's remainder.
const GROUP: usize = 8;

/// The kernel body: calls `hit(i)`, in ascending `i`, for every entry `i`
/// with `le[k][i] <= le_bound[k]` for every `k` and `ge[k][i] >=
/// ge_bound[k]` for every `k` — a conjunction of one-sided plane tests.
/// All planes must have equal lengths.
#[inline(always)]
fn for_each_lane<const L: usize, const H: usize>(
    le: [&[Coord]; L],
    le_bound: [Coord; L],
    ge: [&[Coord]; H],
    ge_bound: [Coord; H],
    mut hit: impl FnMut(usize),
) {
    let n = le.first().or(ge.first()).map_or(0, |p| p.len());
    debug_assert!(
        le.iter().chain(&ge).all(|p| p.len() == n),
        "coordinate planes must have equal lengths"
    );
    let mut base = 0;
    while n - base >= WORD {
        emit(
            word::<WORD, L, H>(&le, &le_bound, &ge, &ge_bound, base),
            base,
            &mut hit,
        );
        base += WORD;
    }
    if base == n {
        return;
    }
    let mut bits = 0u64;
    let mut at = base;
    while n - at >= GROUP {
        bits |= word::<GROUP, L, H>(&le, &le_bound, &ge, &ge_bound, at) << (at - base);
        at += GROUP;
    }
    for i in at..n {
        bits |= word::<1, L, H>(&le, &le_bound, &ge, &ge_bound, i) << (i - base);
    }
    emit(bits, base, &mut hit);
}

/// Hit bits of the `W` entries at `at`, in the word's low `W` bits. The
/// compare loop sees a compile-time trip count (the `&[Coord; W]`
/// windows), which is what lets LLVM vectorize it.
#[inline(always)]
fn word<const W: usize, const L: usize, const H: usize>(
    le: &[&[Coord]; L],
    le_bound: &[Coord; L],
    ge: &[&[Coord]; H],
    ge_bound: &[Coord; H],
    at: usize,
) -> u64 {
    let le: [&[Coord; W]; L] = std::array::from_fn(|k| le[k][at..at + W].try_into().unwrap());
    let ge: [&[Coord; W]; H] = std::array::from_fn(|k| ge[k][at..at + W].try_into().unwrap());
    let mut bits = 0u64;
    for i in 0..W {
        let mut pass = true;
        for k in 0..L {
            pass &= le[k][i] <= le_bound[k];
        }
        for k in 0..H {
            pass &= ge[k][i] >= ge_bound[k];
        }
        bits |= u64::from(pass) << i;
    }
    bits
}

/// Calls `hit(base + i)` for every set bit `i` of `bits`, ascending: the
/// cost scales with the hit count, not the word width.
#[inline(always)]
fn emit(mut bits: u64, base: usize, hit: &mut impl FnMut(usize)) {
    while bits != 0 {
        hit(base + bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

/// Calls `hit(i)`, in ascending `i`, for every entry whose rectangle
/// intersects the closed box `[lo, hi]` — the search kernel, consumed in
/// place.
///
/// `los[d][i]` / `his[d][i]` are entry `i`'s bounds in dimension `d`; all
/// planes must have equal lengths. A stabbing query is the box with
/// `lo == hi`. [`scan_intersects`] and [`scan_stab`] collect the same
/// indexes into a buffer.
///
/// ```
/// use segidx_geom::for_each_hit;
///
/// let (los_x, his_x) = ([0.0, 10.0, 20.0], [5.0, 15.0, 25.0]);
/// let mut hits = Vec::new();
/// for_each_hit(&[4.0], &[12.0], [&los_x], [&his_x], |i| hits.push(i));
/// assert_eq!(hits, vec![0, 1]);
/// ```
#[inline]
pub fn for_each_hit<const D: usize>(
    lo: &[Coord; D],
    hi: &[Coord; D],
    los: [&[Coord]; D],
    his: [&[Coord]; D],
    hit: impl FnMut(usize),
) {
    for_each_lane(los, *hi, his, *lo, hit);
}

/// Appends to `out` the index of every entry whose rectangle intersects
/// `query`, scanning per-dimension coordinate planes.
///
/// `los[d][i]` / `his[d][i]` are entry `i`'s bounds in dimension `d`; all
/// planes must have equal lengths. Indexes are appended in ascending
/// order. `out` is **not** cleared — callers reuse buffers across nodes.
///
/// ```
/// use segidx_geom::{scan_intersects, Rect};
///
/// let los_x = [0.0, 10.0, 20.0];
/// let his_x = [5.0, 15.0, 25.0];
/// let los_y = [0.0, 0.0, 0.0];
/// let his_y = [1.0, 1.0, 1.0];
/// let query = Rect::new([4.0, 0.0], [12.0, 2.0]);
/// let mut out = Vec::new();
/// scan_intersects(&query, [&los_x, &los_y], [&his_x, &his_y], &mut out);
/// assert_eq!(out, vec![0, 1]);
/// ```
pub fn scan_intersects<const D: usize>(
    query: &Rect<D>,
    los: [&[Coord]; D],
    his: [&[Coord]; D],
    out: &mut Vec<u32>,
) {
    for_each_hit(query.lo_coords(), query.hi_coords(), los, his, |i| {
        out.push(i as u32)
    });
}

/// Appends to `out` the index of every entry whose rectangle contains the
/// point `p` (closed bounds) — the stabbing-query kernel. Equivalent to
/// [`scan_intersects`] with the degenerate rectangle at `p`, without
/// constructing it.
pub fn scan_stab<const D: usize>(
    p: &Point<D>,
    los: [&[Coord]; D],
    his: [&[Coord]; D],
    out: &mut Vec<u32>,
) {
    for_each_hit(p.coords(), p.coords(), los, his, |i| out.push(i as u32));
}

/// Appends to `out` the index of every entry whose `lo` coordinate is at
/// most `bound` — the one-sided half of the intersection predicate.
///
/// HINT-style partition classes elide one (or both) comparisons of the
/// overlap test per class; this kernel serves the classes where only the
/// `start ≤ query.hi` side remains. Same contract as [`scan_intersects`]:
/// ascending indexes, `out` not cleared.
pub fn scan_lo_le(los: &[Coord], bound: Coord, out: &mut Vec<u32>) {
    for_each_lane([los], [bound], [], [], |i| out.push(i as u32));
}

/// Appends to `out` the index of every entry whose `hi` coordinate is at
/// least `bound` — the other one-sided half of the intersection
/// predicate (`end ≥ query.lo`). Same contract as [`scan_lo_le`].
pub fn scan_hi_ge(his: &[Coord], bound: Coord, out: &mut Vec<u32>) {
    for_each_lane([], [], [his], [bound], |i| out.push(i as u32));
}

/// Writes into `dists` the squared Euclidean `MINDIST` from `p` to every
/// entry rectangle (`dists` is resized to the plane length). Used by
/// best-first nearest-neighbor traversal to score a whole node in one
/// branchless pass.
pub fn scan_min_dist_sqr<const D: usize>(
    p: &Point<D>,
    los: [&[Coord]; D],
    his: [&[Coord]; D],
    dists: &mut Vec<f64>,
) {
    let n = los[0].len();
    dists.clear();
    dists.resize(n, 0.0);
    for d in 0..D {
        let c = p.coord(d);
        let (lo_p, hi_p) = (los[d], his[d]);
        for i in 0..n {
            // Distance to the slab in this dimension: max(lo-c, 0, c-hi),
            // computed branchlessly with float max.
            let gap = (lo_p[i] - c).max(c - hi_p[i]).max(0.0);
            dists[i] += gap * gap;
        }
    }
}

/// Index of the first entry that `rect` spans — intersects, and covers in
/// at least one dimension: the paper's spanning predicate
/// ([`Rect::spans_any_dim`], §3.1.1) — or `None`. The insert descent's
/// "is this record a spanning record here?" test, run on a node's branch
/// planes.
///
/// Tests eight entries at a time into a hit word (one byte per entry:
/// covered in some dimension and met in every one) and returns the first
/// non-empty group's lowest set lane, so the answer equals
/// `(0..n).find(|&i| rect.spans_any_dim(&rect_i))`.
///
/// ```
/// use segidx_geom::{scan_first_spanned, Rect};
///
/// // Branches [0, 5], [10, 15], [20, 25] on the x-axis, all y ∈ [0, 1].
/// let (los_x, his_x) = ([0.0, 10.0, 20.0], [5.0, 15.0, 25.0]);
/// let (los_y, his_y) = ([0.0; 3], [1.0; 3]);
/// let planes = ([&los_x[..], &los_y[..]], [&his_x[..], &his_y[..]]);
/// let long = Rect::new([8.0, 0.5], [30.0, 0.5]);
/// assert_eq!(scan_first_spanned(&long, planes.0, planes.1), Some(1));
/// let short = Rect::new([11.0, 0.5], [12.0, 0.5]);
/// assert_eq!(scan_first_spanned(&short, planes.0, planes.1), None);
/// ```
pub fn scan_first_spanned<const D: usize>(
    rect: &Rect<D>,
    los: [&[Coord]; D],
    his: [&[Coord]; D],
) -> Option<usize> {
    let n = los.first().map_or(0, |p| p.len());
    let mut at = 0;
    while n - at >= GROUP {
        let hits = u64::from_le_bytes(spanned::<GROUP, D>(rect, &los, &his, at));
        if hits != 0 {
            return Some(at + hits.trailing_zeros() as usize / 8);
        }
        at += GROUP;
    }
    (at..n).find(|&i| spanned::<1, D>(rect, &los, &his, i)[0] != 0)
}

/// One byte per entry of the `W` at `at`, 1 where `rect` spans the entry:
/// covers it in some dimension (`rect.lo ≤ lo` and `hi ≤ rect.hi` there)
/// and meets it in every one. Dimensions outside, entries inside and byte
/// lanes, so LLVM compiles a group to one vector compare per plane test
/// and a mask.
#[inline(always)]
fn spanned<const W: usize, const D: usize>(
    rect: &Rect<D>,
    los: &[&[Coord]; D],
    his: &[&[Coord]; D],
    at: usize,
) -> [u8; W] {
    let mut meets = [1u8; W];
    let mut covers = [0u8; W];
    for d in 0..D {
        let lo: &[Coord; W] = los[d][at..at + W].try_into().expect("W-entry window");
        let hi: &[Coord; W] = his[d][at..at + W].try_into().expect("W-entry window");
        let (q_lo, q_hi) = (rect.lo(d), rect.hi(d));
        for i in 0..W {
            meets[i] &= u8::from(lo[i] <= q_hi) & u8::from(hi[i] >= q_lo);
        }
        for i in 0..W {
            covers[i] |= u8::from(lo[i] >= q_lo) & u8::from(hi[i] <= q_hi);
        }
    }
    std::array::from_fn(|i| meets[i] & covers[i])
}

/// Returns `(index, enlargement, area)` of the entry needing the least
/// area enlargement to cover `query`, ties broken by smaller area — the
/// Guttman ChooseLeaf criterion — or `None` for empty planes.
///
/// Two passes per window of up to 64 entries (one hit word's width).
/// Straight-line arithmetic computes every entry's area and the area of
/// its union with `query` into stack buffers, one loop per dimension,
/// multiplying in dimension order as [`Rect::area`] does. Then a
/// sequential select forms each enlargement (`union − area`, as
/// [`Rect::enlargement`]) and keeps an entry when `e < best || (e == best
/// && a < best_area)`. The first entry is the initial best and an equal
/// later one never displaces it, so the lowest index wins a tie, and
/// `-0.0` ties `0.0`.
///
/// **NaN rule.** An enlargement is NaN when the planes hold infinite
/// coordinates (`∞ − ∞`). Every comparison with NaN is false, so a NaN
/// entry is never selected over a best — except entry 0, which is the
/// initial best: if it is NaN, no later entry can displace it and it is
/// returned.
pub fn scan_min_enlargement<const D: usize>(
    query: &Rect<D>,
    los: [&[Coord]; D],
    his: [&[Coord]; D],
) -> Option<(usize, f64, f64)> {
    let n = los.first().map_or(0, |p| p.len());
    let mut best = None;
    let (mut union_area, mut area) = ([0.0; WORD], [0.0; WORD]);
    for at in (0..n).step_by(WORD) {
        let len = (n - at).min(WORD);
        let (u, a) = (&mut union_area[..len], &mut area[..len]);
        // The arithmetic: a loop whose trip count is not a constant, so
        // LLVM's loop vectorizer takes it wherever the kernel is inlined.
        u.fill(1.0);
        a.fill(1.0);
        for d in 0..D {
            let (lo, hi) = (&los[d][at..at + len], &his[d][at..at + len]);
            let (q_lo, q_hi) = (query.lo(d), query.hi(d));
            for i in 0..len {
                a[i] *= hi[i] - lo[i];
                u[i] *= hi[i].max(q_hi) - lo[i].min(q_lo);
            }
        }
        // The select, entry by entry.
        let (mut bi, mut be, mut ba) = best.unwrap_or((at, u[0] - a[0], a[0]));
        for i in 0..len {
            let e = u[i] - a[i];
            if e < be || (e == be && a[i] < ba) {
                (bi, be, ba) = (at + i, e, a[i]);
            }
        }
        best = Some((bi, be, ba));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planes_of(rects: &[Rect<2>]) -> ([Vec<f64>; 2], [Vec<f64>; 2]) {
        let mut los = [Vec::new(), Vec::new()];
        let mut his = [Vec::new(), Vec::new()];
        for r in rects {
            for d in 0..2 {
                los[d].push(r.lo(d));
                his[d].push(r.hi(d));
            }
        }
        (los, his)
    }

    fn dataset(n: u64) -> Vec<Rect<2>> {
        (0..n)
            .map(|i| {
                let x = ((i * 37) % 500) as f64;
                let y = ((i * 91) % 300) as f64;
                let len = if i % 7 == 0 { 120.0 } else { 3.0 };
                Rect::new([x, y], [x + len, y + 2.0])
            })
            .collect()
    }

    #[test]
    fn matches_rect_intersects_exactly() {
        let rects = dataset(257); // deliberately not a multiple of WORD
        let (los, his) = planes_of(&rects);
        let queries = [
            Rect::new([0.0, 0.0], [60.0, 40.0]),
            Rect::new([250.0, 100.0], [260.0, 110.0]),
            Rect::new([-50.0, -50.0], [-1.0, -1.0]),
            Rect::new([0.0, 0.0], [500.0, 300.0]),
        ];
        for q in &queries {
            let mut out = Vec::new();
            scan_intersects(q, [&los[0], &los[1]], [&his[0], &his[1]], &mut out);
            let expected: Vec<u32> = rects
                .iter()
                .enumerate()
                .filter(|(_, r)| r.intersects(q))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(out, expected, "query {q:?}");
        }
    }

    #[test]
    fn stab_matches_degenerate_rect() {
        let rects = dataset(130);
        let (los, his) = planes_of(&rects);
        for probe in [[10.0, 20.0], [333.0, 150.0], [499.0, 299.0]] {
            let p = Point::new(probe);
            let mut stab = Vec::new();
            scan_stab(&p, [&los[0], &los[1]], [&his[0], &his[1]], &mut stab);
            let mut via_rect = Vec::new();
            scan_intersects(
                &Rect::from_point(p),
                [&los[0], &los[1]],
                [&his[0], &his[1]],
                &mut via_rect,
            );
            assert_eq!(stab, via_rect);
        }
    }

    #[test]
    fn appends_without_clearing() {
        let rects = dataset(10);
        let (los, his) = planes_of(&rects);
        let q = Rect::new([0.0, 0.0], [500.0, 300.0]);
        let mut out = vec![999];
        scan_intersects(&q, [&los[0], &los[1]], [&his[0], &his[1]], &mut out);
        assert_eq!(out[0], 999);
        assert_eq!(out.len(), 11);
    }

    #[test]
    fn min_dist_matches_rect_kernel() {
        let rects = dataset(97);
        let (los, his) = planes_of(&rects);
        let p = Point::new([250.0, -30.0]);
        let mut dists = Vec::new();
        scan_min_dist_sqr(&p, [&los[0], &los[1]], [&his[0], &his[1]], &mut dists);
        for (i, r) in rects.iter().enumerate() {
            assert!(
                (dists[i] - r.min_dist_sqr(&p)).abs() < 1e-9,
                "entry {i}: {} vs {}",
                dists[i],
                r.min_dist_sqr(&p)
            );
        }
    }

    #[test]
    fn min_enlargement_matches_rect_kernel() {
        let rects = dataset(61);
        let (los, his) = planes_of(&rects);
        for q in [
            Rect::new([100.0, 50.0], [140.0, 70.0]),
            Rect::new([0.0, 0.0], [1.0, 1.0]),
        ] {
            let got = scan_min_enlargement(&q, [&los[0], &los[1]], [&his[0], &his[1]])
                .expect("non-empty");
            let want = rects
                .iter()
                .enumerate()
                .map(|(i, r)| (i, r.enlargement(&q), r.area()))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.2.total_cmp(&b.2)))
                .unwrap();
            assert_eq!(got.0, want.0);
            assert!((got.1 - want.1).abs() < 1e-9);
        }
        assert!(scan_min_enlargement::<2>(
            &Rect::new([0.0, 0.0], [1.0, 1.0]),
            [&[], &[]],
            [&[], &[]]
        )
        .is_none());
    }

    #[test]
    fn one_sided_kernels_match_filters() {
        let rects = dataset(193); // crosses one WORD boundary with a tail
        let (los, his) = planes_of(&rects);
        for bound in [-10.0, 0.0, 123.0, 480.0, 10_000.0] {
            let mut got = Vec::new();
            scan_lo_le(&los[0], bound, &mut got);
            let want: Vec<u32> = los[0]
                .iter()
                .enumerate()
                .filter(|(_, &lo)| lo <= bound)
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(got, want, "scan_lo_le bound={bound}");

            let mut got = Vec::new();
            scan_hi_ge(&his[0], bound, &mut got);
            let want: Vec<u32> = his[0]
                .iter()
                .enumerate()
                .filter(|(_, &hi)| hi >= bound)
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(got, want, "scan_hi_ge bound={bound}");
        }
        let mut out = vec![7u32];
        scan_lo_le(&[], 0.0, &mut out);
        scan_hi_ge(&[], 0.0, &mut out);
        assert_eq!(out, vec![7], "empty planes append nothing, no clear");
    }

    #[test]
    fn empty_planes() {
        let mut out = Vec::new();
        scan_intersects::<2>(
            &Rect::new([0.0, 0.0], [1.0, 1.0]),
            [&[], &[]],
            [&[], &[]],
            &mut out,
        );
        assert!(out.is_empty());
    }
}
