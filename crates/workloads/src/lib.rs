//! Workload generators reproducing the experimental setup of
//! *Segment Indexes* (Kolovson & Stonebraker, SIGMOD 1991, §5).
//!
//! The paper evaluates four index variants on six input distributions over
//! the domain `[0, 100000]²`:
//!
//! * **I1–I4** — line-segment (interval) data: Y values are points, X values
//!   are intervals. Y is uniform or exponential (β = 7000); interval length
//!   is uniform over `[0, 100]` or exponential (β = 2000).
//! * **R1–R2** — rectangle data: uniformly distributed centroids with
//!   uniform (`[0, 100]`) or exponential (β = 2000) side lengths.
//! * **RE1–RE2** — the rectangle variants with *exponential centroid*
//!   distributions that the paper ran but omitted for brevity ("the results
//!   were qualitatively similar").
//!
//! Queries are rectangles of area 10⁶ whose horizontal-to-vertical aspect
//! ratio (QAR) sweeps thirteen values from 10⁻⁴ to 10⁴, 100 random-centroid
//! queries per QAR.
//!
//! All generation is deterministic given a seed.
//!
//! ```
//! use segidx_workloads::{DataDistribution, paper_query_sweep, domain};
//!
//! // Graph 3's input: exponential interval lengths, uniform Y values.
//! let dataset = DataDistribution::I3.generate(1_000, 42);
//! assert_eq!(dataset.len(), 1_000);
//! assert!(dataset.records.iter().all(|(r, _)| domain().contains_rect(r)));
//!
//! // The paper's thirteen-QAR query sweep, 100 queries each.
//! let sweep = paper_query_sweep(7);
//! assert_eq!(sweep.len(), 13);
//! assert_eq!(sweep[0].queries.len(), 100);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod datasets;
mod dist;
mod queries;

pub use datasets::{DataDistribution, Dataset};
pub use dist::{Exponential, Sampler, Uniform};
pub use queries::{paper_query_sweep, queries_for_qar, QuerySet};

use segidx_geom::Rect;

/// The paper's data domain: `[0, 100000]` in both dimensions.
pub const DOMAIN_MAX: f64 = 100_000.0;

/// The paper's domain as a rectangle.
pub fn domain() -> Rect<2> {
    Rect::new([0.0, 0.0], [DOMAIN_MAX, DOMAIN_MAX])
}

/// Exponential parameter for skewed Y values (paper: β = 7000).
pub const BETA_Y: f64 = 7_000.0;

/// Exponential parameter for skewed interval lengths (paper: β = 2000).
pub const BETA_LEN: f64 = 2_000.0;

/// Upper bound of the uniform interval-length distribution (paper: 100).
pub const SHORT_LEN_MAX: f64 = 100.0;

/// Query rectangle area (paper: 1,000,000).
pub const QUERY_AREA: f64 = 1_000_000.0;

/// Queries per QAR value (paper: 100).
pub const QUERIES_PER_QAR: usize = 100;
