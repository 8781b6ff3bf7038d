//! Axis-aligned hyper-rectangles.

use crate::{Coord, Interval, Point};
use serde::de::{Error as DeError, SeqAccess, Visitor};
use serde::ser::SerializeSeq;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;

/// An axis-aligned hyper-rectangle in `D` dimensions: the product of one
/// closed [`Interval`] per dimension.
///
/// This is the index-record geometry of the R-Tree family. A `Rect` that is
/// degenerate in some dimensions represents lower-dimensional data — e.g. the
/// paper's historical line segments are `Rect<2>` values whose Y interval is
/// a point ([Figure 1]).
///
/// [Figure 1]: https://dl.acm.org/doi/10.1145/115790.115806
#[derive(Clone, Copy, PartialEq)]
pub struct Rect<const D: usize> {
    lo: [Coord; D],
    hi: [Coord; D],
}

// Serde cannot derive (De)Serialize for const-generic arrays, so a Rect is
// encoded as the flat sequence [lo_0, …, lo_{D-1}, hi_0, …, hi_{D-1}].
impl<const D: usize> Serialize for Rect<D> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(2 * D))?;
        for v in self.lo.iter().chain(self.hi.iter()) {
            seq.serialize_element(v)?;
        }
        seq.end()
    }
}

impl<'de, const D: usize> Deserialize<'de> for Rect<D> {
    fn deserialize<De: Deserializer<'de>>(deserializer: De) -> Result<Self, De::Error> {
        struct RectVisitor<const D: usize>;

        impl<'de, const D: usize> Visitor<'de> for RectVisitor<D> {
            type Value = Rect<D>;

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "a sequence of {} floats", 2 * D)
            }

            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Rect<D>, A::Error> {
                let mut lo = [0.0; D];
                let mut hi = [0.0; D];
                for (i, slot) in lo.iter_mut().chain(hi.iter_mut()).enumerate() {
                    *slot = seq
                        .next_element()?
                        .ok_or_else(|| A::Error::invalid_length(i, &self))?;
                }
                Rect::checked(lo, hi).ok_or_else(|| A::Error::custom("invalid rect bounds"))
            }
        }

        deserializer.deserialize_seq(RectVisitor)
    }
}

impl<const D: usize> Rect<D> {
    /// Creates a rectangle from per-dimension lower and upper bounds.
    ///
    /// # Panics
    /// Panics if `lo[d] > hi[d]` (or a bound is NaN) in any dimension.
    #[inline]
    pub fn new(lo: [Coord; D], hi: [Coord; D]) -> Self {
        for d in 0..D {
            assert!(
                lo[d] <= hi[d],
                "invalid rect bounds in dim {d}: [{}, {}]",
                lo[d],
                hi[d]
            );
        }
        Self { lo, hi }
    }

    /// Creates a rectangle, returning `None` on invalid bounds.
    #[inline]
    pub fn checked(lo: [Coord; D], hi: [Coord; D]) -> Option<Self> {
        for d in 0..D {
            #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must fail this check
            if !(lo[d] <= hi[d]) {
                return None;
            }
        }
        Some(Self { lo, hi })
    }

    /// Creates a rectangle from one interval per dimension.
    #[inline]
    pub fn from_intervals(ivs: [Interval; D]) -> Self {
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for d in 0..D {
            lo[d] = ivs[d].lo();
            hi[d] = ivs[d].hi();
        }
        Self { lo, hi }
    }

    /// The degenerate rectangle at a point.
    #[inline]
    pub fn from_point(p: Point<D>) -> Self {
        Self {
            lo: *p.coords(),
            hi: *p.coords(),
        }
    }

    /// Lower bound in dimension `d`.
    #[inline]
    pub fn lo(&self, d: usize) -> Coord {
        self.lo[d]
    }

    /// Upper bound in dimension `d`.
    #[inline]
    pub fn hi(&self, d: usize) -> Coord {
        self.hi[d]
    }

    /// All lower bounds.
    #[inline]
    pub fn lo_coords(&self) -> &[Coord; D] {
        &self.lo
    }

    /// All upper bounds.
    #[inline]
    pub fn hi_coords(&self) -> &[Coord; D] {
        &self.hi
    }

    /// The extent of the rectangle in dimension `d` as an [`Interval`].
    #[inline]
    pub fn interval(&self, d: usize) -> Interval {
        Interval::new(self.lo[d], self.hi[d])
    }

    /// Side length in dimension `d`.
    #[inline]
    pub fn extent(&self, d: usize) -> Coord {
        self.hi[d] - self.lo[d]
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point<D> {
        let mut c = [0.0; D];
        for (d, slot) in c.iter_mut().enumerate() {
            *slot = (self.lo[d] + self.hi[d]) / 2.0;
        }
        Point::new(c)
    }

    /// Product of all side lengths. Zero for rectangles degenerate in any
    /// dimension.
    #[inline]
    pub fn area(&self) -> Coord {
        let mut a = 1.0;
        for d in 0..D {
            a *= self.hi[d] - self.lo[d];
        }
        a
    }

    /// Sum of all side lengths (the "margin", used by some split heuristics).
    #[inline]
    pub fn margin(&self) -> Coord {
        let mut m = 0.0;
        for d in 0..D {
            m += self.hi[d] - self.lo[d];
        }
        m
    }

    /// Whether the rectangle is degenerate in every dimension.
    #[inline]
    pub fn is_point(&self) -> bool {
        (0..D).all(|d| self.lo[d] == self.hi[d])
    }

    /// Whether `p` lies inside the closed rectangle.
    #[inline]
    pub fn contains_point(&self, p: &Point<D>) -> bool {
        (0..D).all(|d| self.lo[d] <= p[d] && p[d] <= self.hi[d])
    }

    /// Whether `other` lies entirely inside `self` (containment in *every*
    /// dimension).
    #[inline]
    pub fn contains_rect(&self, other: &Rect<D>) -> bool {
        (0..D).all(|d| self.lo[d] <= other.lo[d] && self.hi[d] >= other.hi[d])
    }

    /// Whether the closed rectangles share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Rect<D>) -> bool {
        (0..D).all(|d| self.lo[d] <= other.hi[d] && other.lo[d] <= self.hi[d])
    }

    /// Intersection of the rectangles, if non-empty.
    pub fn intersection(&self, other: &Rect<D>) -> Option<Rect<D>> {
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for d in 0..D {
            lo[d] = self.lo[d].max(other.lo[d]);
            hi[d] = self.hi[d].min(other.hi[d]);
            if lo[d] > hi[d] {
                return None;
            }
        }
        Some(Rect { lo, hi })
    }

    /// Smallest rectangle covering both inputs (the R-Tree "union" /
    /// minimum bounding rectangle of the pair).
    pub fn union(&self, other: &Rect<D>) -> Rect<D> {
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for d in 0..D {
            lo[d] = self.lo[d].min(other.lo[d]);
            hi[d] = self.hi[d].max(other.hi[d]);
        }
        Rect { lo, hi }
    }

    /// Area increase required for `self` to cover `other`:
    /// `area(self ∪ other) − area(self)`. This is Guttman's ChooseLeaf
    /// criterion, which the SR-Tree inherits (paper §3.1.1, footnote 1).
    #[inline]
    pub fn enlargement(&self, other: &Rect<D>) -> Coord {
        self.union(other).area() - self.area()
    }

    /// Whether `self` spans `other` in dimension `d`
    /// (`self[d].lo ≤ other[d].lo` and `self[d].hi ≥ other[d].hi`).
    #[inline]
    pub fn spans_in_dim(&self, other: &Rect<D>, d: usize) -> bool {
        self.lo[d] <= other.lo[d] && self.hi[d] >= other.hi[d]
    }

    /// The paper's spanning predicate for `K ≥ 1` dimensions (§3.1.1): a
    /// record qualifies as a spanning index record for a branch region if it
    /// **intersects** the region and spans it **in at least one dimension**
    /// ("in either or both dimensions" for `K = 2`).
    pub fn spans_any_dim(&self, other: &Rect<D>) -> bool {
        self.intersects(other) && (0..D).any(|d| self.spans_in_dim(other, d))
    }

    /// Dimensions in which `self` spans `other`.
    pub fn spanning_dims(&self, other: &Rect<D>) -> impl Iterator<Item = usize> + '_ {
        let other = *other;
        (0..D).filter(move |&d| self.spans_in_dim(&other, d))
    }

    /// Clips `self` to `bounds` (the *spanning portion* of a cut record,
    /// paper §3.1.1 / Figure 3). `None` if disjoint.
    #[inline]
    pub fn clip(&self, bounds: &Rect<D>) -> Option<Rect<D>> {
        self.intersection(bounds)
    }

    /// Splits `self` into the portion inside `bounds` plus the *remnant
    /// portions* outside it, per the paper's record-cutting rule
    /// (§3.1.1, Figure 3).
    ///
    /// Remnants are produced by guillotine cuts, one dimension at a time, so
    /// at most `2·D` disjoint pieces are returned and their disjoint union
    /// with the clipped portion exactly covers `self`.
    pub fn cut(&self, bounds: &Rect<D>) -> CutResult<D> {
        let Some(spanning) = self.intersection(bounds) else {
            return CutResult {
                spanning: None,
                remnants: vec![*self],
            };
        };
        let mut remnants = Vec::new();
        let mut core = *self;
        for d in 0..D {
            if core.lo[d] < bounds.lo[d] {
                let mut piece = core;
                piece.hi[d] = bounds.lo[d];
                remnants.push(piece);
                core.lo[d] = bounds.lo[d];
            }
            if core.hi[d] > bounds.hi[d] {
                let mut piece = core;
                piece.lo[d] = bounds.hi[d];
                remnants.push(piece);
                core.hi[d] = bounds.hi[d];
            }
        }
        debug_assert_eq!(core, spanning);
        CutResult {
            spanning: Some(spanning),
            remnants,
        }
    }

    /// Stretches `self` minimally so that it covers `other`, in place.
    #[inline]
    pub fn expand_to_cover(&mut self, other: &Rect<D>) {
        for d in 0..D {
            self.lo[d] = self.lo[d].min(other.lo[d]);
            self.hi[d] = self.hi[d].max(other.hi[d]);
        }
    }

    /// Overlap area between the rectangles (zero when disjoint).
    pub fn overlap_area(&self, other: &Rect<D>) -> Coord {
        self.intersection(other).map_or(0.0, |r| r.area())
    }

    /// Squared Euclidean distance from `p` to the nearest point of the
    /// rectangle (zero if `p` is inside). This is the `MINDIST` bound of
    /// best-first nearest-neighbor search over R-Trees.
    pub fn min_dist_sqr(&self, p: &Point<D>) -> Coord {
        let mut acc = 0.0;
        for d in 0..D {
            let v = p[d];
            let delta = if v < self.lo[d] {
                self.lo[d] - v
            } else if v > self.hi[d] {
                v - self.hi[d]
            } else {
                0.0
            };
            acc += delta * delta;
        }
        acc
    }

    /// Euclidean distance from `p` to the nearest point of the rectangle.
    pub fn min_dist(&self, p: &Point<D>) -> Coord {
        self.min_dist_sqr(p).sqrt()
    }
}

/// The outcome of cutting a rectangle against a bounding region
/// ([`Rect::cut`]).
#[derive(Clone, Debug, PartialEq)]
pub struct CutResult<const D: usize> {
    /// The portion of the record inside the bounds (`None` if disjoint).
    pub spanning: Option<Rect<D>>,
    /// The portions outside the bounds, to be reinserted from the root.
    pub remnants: Vec<Rect<D>>,
}

impl<const D: usize> fmt::Debug for Rect<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rect{{")?;
        for d in 0..D {
            if d > 0 {
                write!(f, " × ")?;
            }
            write!(f, "[{}, {}]", self.lo[d], self.hi[d])?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r2(x0: f64, x1: f64, y0: f64, y1: f64) -> Rect<2> {
        Rect::new([x0, y0], [x1, y1])
    }

    #[test]
    fn area_and_margin() {
        let r = r2(0.0, 4.0, 0.0, 3.0);
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.margin(), 7.0);
    }

    #[test]
    #[should_panic]
    fn invalid_bounds_panic() {
        let _ = Rect::new([1.0, 0.0], [0.0, 1.0]);
    }

    #[test]
    fn degenerate_segment_has_zero_area() {
        let seg = r2(0.0, 100.0, 5.0, 5.0);
        assert_eq!(seg.area(), 0.0);
        assert!(!seg.is_point());
        assert_eq!(seg.margin(), 100.0);
    }

    #[test]
    fn contains_and_intersects() {
        let big = r2(0.0, 10.0, 0.0, 10.0);
        let small = r2(2.0, 3.0, 2.0, 3.0);
        assert!(big.contains_rect(&small));
        assert!(big.intersects(&small));
        assert!(!small.contains_rect(&big));
        let outside = r2(20.0, 30.0, 0.0, 1.0);
        assert!(!big.intersects(&outside));
    }

    #[test]
    fn touching_edges_intersect() {
        let a = r2(0.0, 1.0, 0.0, 1.0);
        let b = r2(1.0, 2.0, 0.0, 1.0);
        assert!(a.intersects(&b));
        assert_eq!(a.overlap_area(&b), 0.0);
    }

    #[test]
    fn union_enlargement() {
        let a = r2(0.0, 2.0, 0.0, 2.0);
        let b = r2(3.0, 4.0, 0.0, 1.0);
        let u = a.union(&b);
        assert_eq!(u, r2(0.0, 4.0, 0.0, 2.0));
        assert_eq!(a.enlargement(&b), 8.0 - 4.0);
        assert_eq!(a.enlargement(&a), 0.0);
    }

    #[test]
    fn spanning_semantics_horizontal_segment() {
        // A horizontal segment spanning a node's X range but located at a Y
        // inside the node qualifies; one outside the node's Y range does not
        // (it does not intersect the node).
        let node = r2(10.0, 20.0, 10.0, 20.0);
        let seg_inside = r2(0.0, 30.0, 15.0, 15.0);
        let seg_outside = r2(0.0, 30.0, 5.0, 5.0);
        assert!(seg_inside.spans_in_dim(&node, 0));
        assert!(seg_inside.spans_any_dim(&node));
        assert!(seg_outside.spans_in_dim(&node, 0));
        assert!(!seg_outside.spans_any_dim(&node));
    }

    #[test]
    fn spanning_dims_reports_each_dimension() {
        let node = r2(10.0, 20.0, 10.0, 20.0);
        let wide = r2(0.0, 30.0, 12.0, 18.0);
        let dims: Vec<_> = wide.spanning_dims(&node).collect();
        assert_eq!(dims, vec![0]);
        let covering = r2(0.0, 30.0, 0.0, 30.0);
        let dims: Vec<_> = covering.spanning_dims(&node).collect();
        assert_eq!(dims, vec![0, 1]);
    }

    #[test]
    fn cut_contained_has_no_remnants() {
        let r = r2(2.0, 3.0, 2.0, 3.0);
        let bounds = r2(0.0, 10.0, 0.0, 10.0);
        let cut = r.cut(&bounds);
        assert_eq!(cut.spanning, Some(r));
        assert!(cut.remnants.is_empty());
    }

    #[test]
    fn cut_segment_one_side() {
        // Paper Figure 3: a segment spanning node C but extending past one
        // border of C's parent is cut into a spanning portion and a single
        // remnant.
        let seg = r2(0.0, 100.0, 5.0, 5.0);
        let parent = r2(20.0, 200.0, 0.0, 10.0);
        let cut = seg.cut(&parent);
        assert_eq!(cut.spanning, Some(r2(20.0, 100.0, 5.0, 5.0)));
        assert_eq!(cut.remnants, vec![r2(0.0, 20.0, 5.0, 5.0)]);
    }

    #[test]
    fn cut_rect_all_sides() {
        let r = r2(0.0, 10.0, 0.0, 10.0);
        let bounds = r2(4.0, 6.0, 4.0, 6.0);
        let cut = r.cut(&bounds);
        let spanning = cut.spanning.unwrap();
        assert_eq!(spanning, bounds);
        assert_eq!(cut.remnants.len(), 4);
        // Pieces are mutually disjoint and cover area(r) - area(bounds).
        let total: f64 = cut.remnants.iter().map(|p| p.area()).sum();
        assert!((total - (100.0 - 4.0)).abs() < 1e-9);
        for (i, a) in cut.remnants.iter().enumerate() {
            for b in cut.remnants.iter().skip(i + 1) {
                assert_eq!(a.overlap_area(b), 0.0);
            }
        }
    }

    #[test]
    fn cut_disjoint_returns_whole_as_remnant() {
        let r = r2(0.0, 1.0, 0.0, 1.0);
        let bounds = r2(5.0, 6.0, 5.0, 6.0);
        let cut = r.cut(&bounds);
        assert!(cut.spanning.is_none());
        assert_eq!(cut.remnants, vec![r]);
    }

    #[test]
    fn cut_touching_only_a_face_keeps_the_whole_rect_as_remnant() {
        // [0, 10] meets [10, 20] only at 10: the clip is a zero-width
        // slice, and the one remnant is the whole interval. A caller that
        // stored both would keep a portion equal to the original beside a
        // slice, so the segment tree never cuts such a record.
        let seg = Rect::new([0.0], [10.0]);
        let cut = seg.cut(&Rect::new([10.0], [20.0]));
        assert_eq!(cut.spanning, Some(Rect::new([10.0], [10.0])));
        assert_eq!(cut.remnants, vec![seg]);

        // In two dimensions the slice is cut further along the face.
        let r = r2(0.0, 10.0, 0.0, 10.0);
        let cut = r.cut(&r2(10.0, 20.0, 4.0, 6.0));
        assert_eq!(cut.spanning, Some(r2(10.0, 10.0, 4.0, 6.0)));
        assert_eq!(
            cut.remnants,
            vec![r, r2(10.0, 10.0, 0.0, 4.0), r2(10.0, 10.0, 6.0, 10.0)]
        );
    }

    #[test]
    fn expand_to_cover() {
        let mut r = r2(0.0, 1.0, 0.0, 1.0);
        r.expand_to_cover(&r2(5.0, 6.0, -2.0, 0.5));
        assert_eq!(r, r2(0.0, 6.0, -2.0, 1.0));
    }

    #[test]
    fn min_dist_inside_edge_corner() {
        let r = r2(0.0, 10.0, 0.0, 10.0);
        // Inside.
        assert_eq!(r.min_dist_sqr(&crate::Point::new([5.0, 5.0])), 0.0);
        // Straight out from an edge.
        assert_eq!(r.min_dist(&crate::Point::new([15.0, 5.0])), 5.0);
        // Diagonal from a corner: 3-4-5 triangle.
        assert_eq!(r.min_dist(&crate::Point::new([13.0, -4.0])), 5.0);
        // On the boundary counts as inside.
        assert_eq!(r.min_dist_sqr(&crate::Point::new([10.0, 0.0])), 0.0);
    }

    #[test]
    fn one_dimensional_rect() {
        let a: Rect<1> = Rect::new([0.0], [10.0]);
        let b: Rect<1> = Rect::new([2.0], [3.0]);
        assert!(a.spans_any_dim(&b));
        assert_eq!(a.area(), 10.0);
    }

    #[test]
    fn three_dimensional_rect() {
        let a: Rect<3> = Rect::new([0.0; 3], [2.0; 3]);
        assert_eq!(a.area(), 8.0);
        assert_eq!(a.margin(), 6.0);
        let b: Rect<3> = Rect::new([1.0; 3], [3.0; 3]);
        assert_eq!(a.overlap_area(&b), 1.0);
    }
}
