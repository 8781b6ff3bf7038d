//! Skeleton indexes: adaptable pre-constructed Segment Indexes (paper §4).
//!
//! A Skeleton index pre-partitions the domain into a regular grid of empty
//! nodes from an estimate of the input size and distribution, then adapts to
//! the actual data through conventional node splitting plus coalescing of
//! sparse adjacent nodes. When the distribution is known,
//! [`build_skeleton`] pre-constructs the tree from a [`SkeletonSpec`]; when
//! it is not, a [`Skeleton`] buffers the first `T` tuples and derives the
//! histograms from them.

mod build;
mod coalesce;
mod histogram;
mod predict;

pub use build::{build_skeleton, SkeletonSpec};
pub use histogram::Histogram;
pub use predict::Skeleton;
