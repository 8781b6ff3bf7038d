//! # Segment Indexes
//!
//! A faithful, production-quality implementation of
//! *Segment Indexes: Dynamic Indexing Techniques for Multi-Dimensional
//! Interval Data* (Curtis P. Kolovson and Michael Stonebraker, SIGMOD 1991).
//!
//! The paper extends paged, multi-way, tree-structured indexes — Guttman's
//! R-Tree in particular — with three tactics for interval data whose length
//! distribution is highly non-uniform (many short intervals, a few very long
//! ones, as in historical databases):
//!
//! 1. **Spanning index records in non-leaf nodes**: an interval is stored in
//!    the highest node whose child region it spans, so long intervals no
//!    longer elongate leaf regions and inflate overlap (§2.1.1, §3).
//! 2. **Variable node sizes**: node size doubles at each higher level so
//!    that spanning records do not destroy fanout (§2.1.2).
//! 3. **Skeleton indexes**: the index is pre-constructed from an estimated
//!    size and distribution (possibly *predicted* from a buffered prefix of
//!    the input) and then adapts by splitting and coalescing (§4).
//!
//! The four index variants evaluated in the paper are all here, as
//! configurations of one type, [`Tree`]. The skeletons are pre-built by
//! [`build_skeleton`] from a [`SkeletonSpec`], which
//! [`SkeletonSpec::predict`] derives from a prefix of the input:
//!
//! ```
//! use segidx_core::{build_skeleton, IndexConfig, RecordId, SkeletonSpec, Tree};
//! use segidx_geom::Rect;
//!
//! let mut index = Tree::<2>::new(IndexConfig::srtree());
//! // A salary history: horizontal segments in (time, salary) space.
//! index.insert(Rect::new([1985.0, 30_000.0], [1991.0, 30_000.0]), RecordId(1));
//! index.insert(Rect::new([1986.0, 55_000.0], [1988.5, 55_000.0]), RecordId(2));
//!
//! // Who earned between 50K and 60K during 1987?
//! let window = Rect::new([1987.0, 50_000.0], [1988.0, 60_000.0]);
//! assert_eq!(index.search(&window), vec![RecordId(2)]);
//!
//! // The paper's winner predicts its skeleton from the first tuples.
//! let domain = Rect::new([1900.0, 0.0], [2100.0, 1e6]);
//! let prefix = [(Rect::new([1986.0, 55_000.0], [1988.5, 55_000.0]), RecordId(2))];
//! let spec = SkeletonSpec::predict(domain, 1_000, &prefix);
//! let mut winner = build_skeleton(IndexConfig::skeleton_srtree(), &spec);
//! for (rect, id) in prefix {
//!     winner.insert(rect, id);
//! }
//! assert_eq!(winner.search(&window), vec![RecordId(2)]);
//! ```
//!
//! See [`tree`] for the engine and [`skeleton`] for pre-construction,
//! prediction, and coalescing.
//! Every operation counts the paper's metric, node accesses, in [`stats`];
//! the engine reads no clock, so wall time is measured by whoever calls it.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bulk;
pub mod config;
pub mod entry;
pub mod hint;
pub mod id;
pub mod node;
pub mod paged;
pub mod persist;
mod prefetch;
pub mod skeleton;
pub mod stats;
pub mod tree;

pub use config::{CoalesceConfig, IndexConfig, SplitAlgorithm};
pub use id::{NodeId, RecordId};
pub use paged::PagedSearcher;
pub use skeleton::{build_skeleton, Histogram, SkeletonSpec};
pub use stats::StatsSnapshot;
pub use tree::{finish_ids, RadixId, SearchCursor, Tree};
