//! Multi-dimensional interval and rectangle geometry for segment indexes.
//!
//! This crate provides the geometric substrate used by the
//! [Segment Index](https://dl.acm.org/doi/10.1145/115790.115806) family of
//! access methods (Kolovson & Stonebraker, SIGMOD 1991):
//!
//! * [`Interval`] — a closed one-dimensional interval `[lo, hi]`.
//! * [`Rect`] — an axis-aligned hyper-rectangle in `D` dimensions, the key
//!   type indexed by R-Trees and SR-Trees. A [`Rect`] may be degenerate in
//!   any subset of dimensions, so it uniformly represents points, line
//!   segments, and boxes.
//! * [`Point`] — a location in `D` dimensions.
//!
//! The *span* predicate ([`Interval::spans`], [`Rect::spans_in_dim`],
//! [`Rect::spans_any_dim`]) is the paper's central geometric notion: interval
//! `I₁` spans `I₂` iff `I₁.lo ≤ I₂.lo` and `I₁.hi ≥ I₂.hi`. A record is
//! stored high in an SR-Tree exactly when it spans a child region in at least
//! one dimension.
//!
//! All coordinates are `f64`. Intervals are closed on both ends, matching the
//! paper's treatment of historical data (an employee's salary period includes
//! both its first and last day).
//!
//! ```
//! use segidx_geom::{Interval, Rect};
//!
//! // A salary period: a horizontal segment in (time, salary) space.
//! let period = Rect::from_intervals([Interval::new(1975.0, 1989.0),
//!                                    Interval::point(30_000.0)]);
//! // A node region it spans in the time dimension.
//! let node = Rect::new([1980.0, 25_000.0], [1985.0, 40_000.0]);
//! assert!(period.spans_in_dim(&node, 0));
//! assert!(period.spans_any_dim(&node));
//!
//! // Cutting against a larger parent region (paper Figure 3).
//! let parent = Rect::new([1978.0, 20_000.0], [1995.0, 50_000.0]);
//! let cut = period.cut(&parent);
//! assert_eq!(cut.remnants.len(), 1); // the part before 1978
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

mod interval;
mod point;
mod qar;
mod rect;
mod scan;

pub use interval::{Interval, Remnants};
pub use point::Point;
pub use qar::{qar_of, rect_from_area_qar, QarSweep, PAPER_QAR_SWEEP};
pub use rect::{CutResult, Rect};
pub use scan::{
    for_each_hit, scan_first_spanned, scan_hi_ge, scan_intersects, scan_lo_le, scan_min_dist_sqr,
    scan_min_enlargement, scan_stab,
};

/// Coordinate scalar used throughout the crate.
pub type Coord = f64;

/// A rectangle in one dimension (a line segment on the number line).
pub type Rect1 = Rect<1>;
/// A rectangle in two dimensions (the paper's experimental setting).
pub type Rect2 = Rect<2>;
/// A rectangle in three dimensions.
pub type Rect3 = Rect<3>;
