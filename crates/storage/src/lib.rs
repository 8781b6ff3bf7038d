//! Paged storage substrate for segment indexes.
//!
//! The Segment Index paper (Kolovson & Stonebraker, SIGMOD 1991) targets
//! *disk-oriented* indexing structures — paged, multi-way trees of which only
//! a small portion is memory-resident at a time — and one of its three core
//! tactics is **variable node sizes**: 1 KB leaf pages, doubling at each
//! successively higher level of the index (§2.1.2, §5).
//!
//! This crate provides that substrate:
//!
//! * [`SizeClass`] — the power-of-two page-size ladder (`1 KB << class`).
//! * [`Page`] — a checksummed page with a fixed header and a payload.
//! * [`DiskManager`] — a slotted page file supporting allocation, free lists,
//!   reads, writes, and crash-consistent metadata via atomic rename.
//! * [`BufferPool`] — a read-through LRU page cache sized in bytes (so one
//!   8 KB root page costs the same as eight 1 KB leaves, exactly the trade
//!   the paper's variable node sizes make). Pages reach the disk one way
//!   only: [`DiskManager::write_page`], made durable by [`DiskManager::sync`].
//! * [`ByteReader`] / [`ByteWriter`] — bounds-checked little-endian codecs
//!   used by `segidx-core` to serialize index nodes into pages.
//! * [`IoStats`] — physical I/O counters (reads, writes, hits, misses,
//!   evictions).
//!
//! The index crates count *logical node accesses* themselves (the paper's
//! performance metric); this crate reports the *physical* page traffic of a
//! persisted index.
//!
//! ```
//! use segidx_storage::{BufferPool, DiskManager, Page, SizeClass};
//! use std::sync::Arc;
//!
//! let dir = std::env::temp_dir().join("segidx-doc-example");
//! std::fs::create_dir_all(&dir)?;
//! let disk = Arc::new(DiskManager::create(dir.join("doc.db"))?);
//!
//! // A 1 KB leaf page and a 2 KB level-1 page, per the paper's ladder,
//! // written through the disk manager and made durable by one sync.
//! let mut ids = Vec::new();
//! for (class, bytes) in [(0, &b"leaf node bytes"[..]), (1, b"internal node bytes")] {
//!     let id = disk.allocate(SizeClass::new(class))?;
//!     let mut page = Page::new(id, SizeClass::new(class));
//!     page.set_payload(bytes)?;
//!     disk.write_page(&page)?;
//!     ids.push(id);
//! }
//! disk.sync()?;
//!
//! // Reads go through the pool: the first access faults the page in, the
//! // second is served from memory.
//! let pool = BufferPool::new(Arc::clone(&disk));
//! assert_eq!(pool.with_page(ids[0], |p| p.payload().to_vec())?, b"leaf node bytes");
//! assert_eq!(pool.with_page(ids[0], |p| p.payload().len())?, 15);
//! assert_eq!(pool.stats().snapshot().pool_hits, 1);
//! assert_eq!(pool.cached_bytes(), 1024);
//! assert!(disk.verify_all().is_empty());
//! # Ok::<(), segidx_storage::StorageError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod buffer;
mod checksum;
mod disk;
mod error;
mod fault;
mod page;
mod serialize;
mod stats;

pub use buffer::{BufferPool, BufferPoolConfig};
pub use checksum::xxh64;
pub use disk::{DiskManager, DiskManagerConfig, RepairReport};
pub use error::{Result, StorageError};
pub use fault::{
    FaultInjector, ScriptedFault, SyncFault, SyncKind, WriteFault, WriteKind, INJECTED_MARKER,
};
pub use page::{Page, PageId, SizeClass, BASE_PAGE_SIZE, MAX_SIZE_CLASS, PAGE_HEADER_LEN};
pub use serialize::{ByteReader, ByteWriter};
pub use stats::{IoStats, IoStatsSnapshot};
