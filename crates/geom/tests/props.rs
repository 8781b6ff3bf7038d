//! Property-based tests for the geometry substrate.

use proptest::prelude::*;
use segidx_geom::{
    for_each_hit, scan_first_spanned, scan_hi_ge, scan_intersects, scan_lo_le,
    scan_min_enlargement, scan_stab, Interval, Point, Rect,
};

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (-1.0e6..1.0e6f64, 0.0..1.0e5f64).prop_map(|(lo, len)| Interval::new(lo, lo + len))
}

fn rect2_strategy() -> impl Strategy<Value = Rect<2>> {
    (interval_strategy(), interval_strategy()).prop_map(|(x, y)| Rect::from_intervals([x, y]))
}

proptest! {
    #[test]
    fn interval_union_spans_both(a in interval_strategy(), b in interval_strategy()) {
        let u = a.union(&b);
        prop_assert!(u.spans(&a));
        prop_assert!(u.spans(&b));
        prop_assert!(u.length() >= a.length().max(b.length()));
    }

    #[test]
    fn interval_intersection_contained(a in interval_strategy(), b in interval_strategy()) {
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.spans(&i));
            prop_assert!(b.spans(&i));
            prop_assert!(a.intersects(&b));
        } else {
            prop_assert!(!a.intersects(&b));
        }
    }

    #[test]
    fn interval_subtract_partitions_length(a in interval_strategy(), b in interval_strategy()) {
        let clipped = a.clip(&b).map_or(0.0, |c| c.length());
        let remnant: f64 = a.subtract(&b).iter().map(|r| r.length()).sum();
        prop_assert!((clipped + remnant - a.length()).abs() < 1e-6);
    }

    #[test]
    fn interval_enlargement_nonnegative(a in interval_strategy(), b in interval_strategy()) {
        prop_assert!(a.enlargement(&b) >= 0.0);
        // After union, enlargement is zero.
        let u = a.union(&b);
        prop_assert_eq!(u.enlargement(&b), 0.0);
    }

    #[test]
    fn rect_union_contains_both(a in rect2_strategy(), b in rect2_strategy()) {
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
        prop_assert!(u.area() + 1e-9 >= a.area().max(b.area()));
    }

    #[test]
    fn rect_intersection_symmetric_and_contained(a in rect2_strategy(), b in rect2_strategy()) {
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
        match (a.intersection(&b), b.intersection(&a)) {
            (Some(x), Some(y)) => {
                prop_assert_eq!(x, y);
                prop_assert!(a.contains_rect(&x));
                prop_assert!(b.contains_rect(&x));
            }
            (None, None) => prop_assert!(!a.intersects(&b)),
            _ => prop_assert!(false, "intersection not symmetric"),
        }
    }

    #[test]
    fn rect_enlargement_nonnegative(a in rect2_strategy(), b in rect2_strategy()) {
        prop_assert!(a.enlargement(&b) >= -1e-9);
        prop_assert!(a.union(&b).enlargement(&b).abs() < 1e-9);
    }

    #[test]
    fn rect_cut_partitions_area(a in rect2_strategy(), b in rect2_strategy()) {
        let cut = a.cut(&b);
        let span_area = cut.spanning.map_or(0.0, |s| s.area());
        let rem_area: f64 = cut.remnants.iter().map(|r| r.area()).sum();
        // Relative tolerance: areas here can reach ~1e10.
        let scale = a.area().max(1.0);
        prop_assert!(((span_area + rem_area) - a.area()).abs() / scale < 1e-9);
        // All pieces stay within the original record.
        if let Some(s) = cut.spanning {
            prop_assert!(a.contains_rect(&s));
            prop_assert!(b.contains_rect(&s));
        }
        for r in &cut.remnants {
            prop_assert!(a.contains_rect(r));
        }
        // Remnants are pairwise non-overlapping (zero-area overlap allowed on
        // shared boundaries).
        for (i, r1) in cut.remnants.iter().enumerate() {
            for r2 in cut.remnants.iter().skip(i + 1) {
                prop_assert!(r1.overlap_area(r2) < 1e-9);
            }
        }
    }

    #[test]
    fn rect_spanning_implies_intersecting(a in rect2_strategy(), b in rect2_strategy()) {
        if a.spans_any_dim(&b) {
            prop_assert!(a.intersects(&b));
        }
        if a.contains_rect(&b) {
            prop_assert!(a.spans_any_dim(&b));
        }
    }

    #[test]
    fn min_dist_properties(a in rect2_strategy(), x in -2.0e6..2.0e6f64, y in -2.0e6..2.0e6f64) {
        let p = Point::new([x, y]);
        let d = a.min_dist_sqr(&p);
        prop_assert!(d >= 0.0);
        prop_assert_eq!(d == 0.0, a.contains_point(&p));
        prop_assert!((a.min_dist(&p) * a.min_dist(&p) - d).abs() <= 1e-6 * d.max(1.0));
        // Distance to a larger rectangle can only shrink.
        let bigger = a.union(&Rect::from_point(Point::new([x + 1.0, y + 1.0])));
        prop_assert!(bigger.min_dist_sqr(&p) <= d + 1e-9);
    }

    #[test]
    fn point_in_rect_iff_degenerate_rect_contained(
        a in rect2_strategy(),
        x in -1.0e6..1.0e6f64,
        y in -1.0e6..1.0e6f64,
    ) {
        let p = Point::new([x, y]);
        prop_assert_eq!(a.contains_point(&p), a.contains_rect(&Rect::from_point(p)));
    }
}

/// A deterministic xorshift stream, so every plane length below gets the
/// same cases on every run.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.next() % from.len() as u64) as usize]
    }
}

/// Coordinates a plane is drawn from: the query's own bounds (a hit on
/// equality is a hit), values just past them, signed zeros, infinities
/// and the huge finite ends the temporal tier uses for open lifetimes.
const EDGES: [f64; 12] = [
    -10.0,
    10.0,
    -10.5,
    10.5,
    3.0,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MAX / 2.0,
    -f64::MAX / 2.0,
    -9.5,
];

/// Query bounds: the `EDGES` window `[-10, 10]`, zero-width boxes at the
/// signed zeros, the whole line, and a box ending at `f64::MAX / 2`.
const QUERIES: [(f64, f64); 6] = [
    (-10.0, 10.0),
    (0.0, 0.0),
    (-0.0, -0.0),
    (f64::NEG_INFINITY, f64::INFINITY),
    (3.0, f64::MAX / 2.0),
    (10.5, 10.5),
];

/// `n` entries per dimension with `lo <= hi`, both drawn from `EDGES`.
fn planes<const D: usize>(s: &mut Stream, n: usize) -> ([Vec<f64>; D], [Vec<f64>; D]) {
    planes_from(s, n, &EDGES)
}

/// `n` entries per dimension with `lo <= hi`, both drawn from `grid`.
fn planes_from<const D: usize>(
    s: &mut Stream,
    n: usize,
    grid: &[f64],
) -> ([Vec<f64>; D], [Vec<f64>; D]) {
    let mut los: [Vec<f64>; D] = std::array::from_fn(|_| Vec::with_capacity(n));
    let mut his: [Vec<f64>; D] = std::array::from_fn(|_| Vec::with_capacity(n));
    for _ in 0..n {
        for d in 0..D {
            let (a, b) = (s.pick(grid), s.pick(grid));
            los[d].push(a.min(b));
            his[d].push(a.max(b));
        }
    }
    (los, his)
}

/// Every kernel built on the one scan body against a brute-force filter,
/// at every plane length 0..=200: empty planes, each remainder 1..=63,
/// multiples of 8 and of 64, and 64 + remainder.
fn kernels_match_brute_force<const D: usize>() {
    let mut s = Stream(0x9E37_79B9_7F4A_7C15 ^ D as u64);
    for n in 0..=200 {
        let (los, his) = planes::<D>(&mut s, n);
        let lr: [&[f64]; D] = std::array::from_fn(|d| los[d].as_slice());
        let hr: [&[f64]; D] = std::array::from_fn(|d| his[d].as_slice());
        for _ in 0..4 {
            let lo: [f64; D] = std::array::from_fn(|_| s.pick(&QUERIES).0);
            let hi: [f64; D] = std::array::from_fn(|d| s.pick(&QUERIES).1.max(lo[d]));
            let want: Vec<u32> = (0..n)
                .filter(|&i| (0..D).all(|d| los[d][i] <= hi[d] && his[d][i] >= lo[d]))
                .map(|i| i as u32)
                .collect();
            let mut got = Vec::new();
            for_each_hit(&lo, &hi, lr, hr, |i| got.push(i as u32));
            assert_eq!(got, want, "for_each_hit, D={D}, n={n}, {lo:?}..{hi:?}");
            let mut got = vec![u32::MAX];
            scan_intersects(&Rect::new(lo, hi), lr, hr, &mut got);
            assert_eq!(got[0], u32::MAX, "appends, never clears");
            assert_eq!(got[1..], want, "scan_intersects, D={D}, n={n}");

            let p: [f64; D] = std::array::from_fn(|_| s.pick(&EDGES));
            let want: Vec<u32> = (0..n)
                .filter(|&i| (0..D).all(|d| los[d][i] <= p[d] && his[d][i] >= p[d]))
                .map(|i| i as u32)
                .collect();
            let mut got = Vec::new();
            scan_stab(&Point::new(p), lr, hr, &mut got);
            assert_eq!(got, want, "scan_stab, D={D}, n={n}, {p:?}");

            let bound = s.pick(&EDGES);
            let mut got = Vec::new();
            scan_lo_le(lr[0], bound, &mut got);
            let want: Vec<u32> = (0..n)
                .filter(|&i| los[0][i] <= bound)
                .map(|i| i as u32)
                .collect();
            assert_eq!(got, want, "scan_lo_le, n={n}, {bound}");
            let mut got = Vec::new();
            scan_hi_ge(hr[0], bound, &mut got);
            let want: Vec<u32> = (0..n)
                .filter(|&i| his[0][i] >= bound)
                .map(|i| i as u32)
                .collect();
            assert_eq!(got, want, "scan_hi_ge, n={n}, {bound}");
        }
    }
}

#[test]
fn scan_kernels_match_brute_force_at_every_length_1d() {
    kernels_match_brute_force::<1>();
}

#[test]
fn scan_kernels_match_brute_force_at_every_length_2d() {
    kernels_match_brute_force::<2>();
}

#[test]
fn scan_kernels_match_brute_force_at_every_length_3d() {
    kernels_match_brute_force::<3>();
}

/// A small grid for the write-path kernels: few values, so equal
/// enlargements, equal areas and bound-equal spans occur often; signed
/// zeros included.
const GRID: [f64; 7] = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0];

/// [`GRID`] with both infinities: enlargements of `∞ − ∞` are NaN.
const GRID_INF: [f64; 9] = [
    -2.0,
    -1.0,
    -0.0,
    0.0,
    1.0,
    3.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::INFINITY,
];

/// `scan_min_enlargement` as one scalar loop with an `Option` compare per
/// entry — the kernel before it split into an arithmetic pass and a
/// select, kept verbatim as the oracle.
fn min_enlargement_oracle<const D: usize>(
    query: &Rect<D>,
    los: [&[f64]; D],
    his: [&[f64]; D],
) -> Option<(usize, f64, f64)> {
    let n = los[0].len();
    let mut best: Option<(usize, f64, f64)> = None;
    for i in 0..n {
        let mut area = 1.0f64;
        let mut union_area = 1.0f64;
        for d in 0..D {
            let (lo, hi) = (los[d][i], his[d][i]);
            area *= hi - lo;
            union_area *= hi.max(query.hi(d)) - lo.min(query.lo(d));
        }
        let enlargement = union_area - area;
        let better = match best {
            None => true,
            Some((_, be, ba)) => enlargement < be || (enlargement == be && area < ba),
        };
        if better {
            best = Some((i, enlargement, area));
        }
    }
    best
}

/// The insert descent's two kernels against their oracles at every plane
/// length 0..=130 (empty, each 8-wide group count with every tail, and
/// the widths of a paper tree's nodes), results compared bit for bit.
fn write_kernels_match_oracles<const D: usize>() {
    let mut s = Stream(0xD1B5_4A32_D192_ED03 ^ D as u64);
    for n in 0..=130 {
        for case in 0..6 {
            let grid: &[f64] = if case < 4 { &GRID } else { &GRID_INF };
            let (los, his) = planes_from::<D>(&mut s, n, grid);
            let lr: [&[f64]; D] = std::array::from_fn(|d| los[d].as_slice());
            let hr: [&[f64]; D] = std::array::from_fn(|d| his[d].as_slice());
            let q = {
                let (a, b): ([f64; D], [f64; D]) = (
                    std::array::from_fn(|_| s.pick(grid)),
                    std::array::from_fn(|_| s.pick(grid)),
                );
                Rect::new(
                    std::array::from_fn(|d| a[d].min(b[d])),
                    std::array::from_fn(|d| a[d].max(b[d])),
                )
            };

            let want = (0..n).find(|&i| {
                let r = Rect::new(
                    std::array::from_fn(|d| los[d][i]),
                    std::array::from_fn(|d| his[d][i]),
                );
                q.spans_any_dim(&r)
            });
            assert_eq!(
                scan_first_spanned(&q, lr, hr),
                want,
                "scan_first_spanned, D={D}, n={n}, {q:?}"
            );

            let bits =
                |r: Option<(usize, f64, f64)>| r.map(|(i, e, a)| (i, e.to_bits(), a.to_bits()));
            assert_eq!(
                bits(scan_min_enlargement(&q, lr, hr)),
                bits(min_enlargement_oracle(&q, lr, hr)),
                "scan_min_enlargement, D={D}, n={n}, {q:?}"
            );
        }
    }
}

#[test]
fn write_kernels_match_oracles_at_every_length_1d() {
    write_kernels_match_oracles::<1>();
}

#[test]
fn write_kernels_match_oracles_at_every_length_2d() {
    write_kernels_match_oracles::<2>();
}

#[test]
fn write_kernels_match_oracles_at_every_length_3d() {
    write_kernels_match_oracles::<3>();
}

/// The select's edge rules, pinned on hand-made planes: the lowest index
/// wins an exact tie, `-0.0` ties `0.0`, and a NaN entry 0 (`∞ − ∞`) is
/// kept while a later NaN never displaces a best.
#[test]
fn min_enlargement_ties_signed_zeros_and_nan() {
    let q = Rect::new([0.0], [1.0]);
    // Two entries covering q exactly: enlargement 0, area 1 — the first.
    assert_eq!(
        scan_min_enlargement(&q, [&[0.0, 0.0]], [&[1.0, 1.0]]),
        Some((0, 0.0, 1.0))
    );
    // -0.0 and 0.0 enlargements tie, so the smaller area decides.
    let got = scan_min_enlargement(&q, [&[-0.0, 0.0, 0.0]], [&[2.0, 1.0, 1.0]]).unwrap();
    assert_eq!(got.0, 1);
    // A NaN entry 0 is kept...
    let inf = f64::INFINITY;
    let got = scan_min_enlargement(&q, [&[-inf, 0.0]], [&[inf, 1.0]]).unwrap();
    assert_eq!(got.0, 0);
    assert!(got.1.is_nan());
    // ...and a NaN after the first entry is never chosen.
    let got = scan_min_enlargement(&q, [&[2.0, -inf]], [&[3.0, inf]]).unwrap();
    assert_eq!(got, (0, 2.0, 1.0));
}
