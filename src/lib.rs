//! # segment-indexes
//!
//! Umbrella crate for the [Segment Indexes](https://dl.acm.org/doi/10.1145/115790.115806)
//! workspace — a production-quality Rust implementation of Kolovson &
//! Stonebraker's dynamic indexing techniques for multi-dimensional interval
//! data (SIGMOD 1991), including a full reproduction of the paper's
//! evaluation.
//!
//! ```
//! use segment_indexes::core::{IndexConfig, RecordId, Tree};
//! use segment_indexes::geom::Rect;
//!
//! let mut index = Tree::<2>::new(IndexConfig::srtree());
//! index.insert(Rect::new([1985.0, 30_000.0], [1991.0, 30_000.0]), RecordId(1));
//! assert_eq!(
//!     index.search(&Rect::new([1987.0, 20_000.0], [1988.0, 40_000.0])),
//!     vec![RecordId(1)],
//! );
//! ```
//!
//! See the member crates for the substance:
//! [`core`] (the index engine), [`geom`] (rectangle/interval geometry),
//! [`storage`] (paged files with variable page sizes and a buffer pool),
//! [`concurrent`] (epoch-based snapshot reads over a single-writer
//! group-commit service), [`workloads`] (the paper's data and query
//! distributions), [`temporal`] (a valid-time table layer), and
//! [`server`] (a pipelined TCP front-end with a textual query language —
//! the `segidx_server` and `loadgen` binaries). The `segidx-bench` crate
//! provides the `reproduce` binary that regenerates the paper's
//! Graphs 1–6.

#![warn(missing_docs)]

pub use segidx_concurrent as concurrent;
pub use segidx_core as core;
pub use segidx_geom as geom;
pub use segidx_server as server;
pub use segidx_storage as storage;
pub use segidx_temporal as temporal;
pub use segidx_workloads as workloads;

/// The README's Rust blocks, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
