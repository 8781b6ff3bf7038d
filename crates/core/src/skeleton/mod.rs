//! Skeleton indexes: adaptable pre-constructed Segment Indexes (paper §4).
//!
//! A Skeleton index pre-partitions the domain into a regular grid of empty
//! nodes from an estimate of the input size and distribution, then adapts to
//! the actual data through conventional node splitting plus coalescing of
//! sparse adjacent nodes. [`build_skeleton`] pre-constructs the tree from a
//! [`SkeletonSpec`]: one written from a known distribution, or one that
//! [`SkeletonSpec::predict`] derives from the histograms of the first `T`
//! tuples when the distribution is unknown.

mod build;
mod coalesce;
mod histogram;
mod predict;

pub use build::{build_skeleton, SkeletonSpec};
pub use histogram::Histogram;
