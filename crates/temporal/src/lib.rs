//! A temporal (valid-time) table layer over segment indexes.
//!
//! The Segment Indexes paper is motivated by historical databases in the
//! POSTGRES tradition: tuples carry a *valid time* interval, updates close
//! the current version and open a new one, and queries ask about the state
//! of the world *as of* some time (paper §1, Figure 1: employee salary
//! histories as horizontal segments in (time, salary) space).
//!
//! [`TemporalTable`] packages that model:
//!
//! * [`TemporalTable::insert`] opens a new version of a key, automatically
//!   closing the previous one — building exactly the paper's Figure 1 data;
//! * only closed versions are indexed, once, with their real end time;
//!   the open (current) versions, at most one per key, form a small live
//!   set every query scans beside the index;
//! * [`TemporalTable::as_of`] is the temporal stab query, and
//!   [`TemporalTable::range`] the (time window × attribute window) rectangle
//!   query that the paper's experiments measure;
//! * the underlying index is the SR-Tree, whose spanning records hold the
//!   long-lived closed versions ("employees who seldom received raises");
//! * for append-heavy streams, [`TemporalBackend::Tiered`] swaps the flat
//!   tree for the [`lsm`] module's LSM: a memtable sealed into immutable
//!   tiers — record-sorted columns plus a frozen HINT over time — with
//!   crash-consistent checkpoints, leveled merges running on a worker
//!   thread while the next seal fills, answering the same queries
//!   bit-identically.
//!
//! ```
//! use segidx_temporal::{TemporalTable, TemporalConfig};
//!
//! let mut salaries = TemporalTable::new(TemporalConfig {
//!     time_horizon: 2100.0,
//!     ..TemporalConfig::default()
//! });
//! salaries.insert(/*employee*/ 1, /*salary*/ 30_000.0, /*at*/ 1975.0);
//! salaries.insert(1, 41_000.0, 1979.5);
//! salaries.insert(2, 30_000.0, 1974.0); // never updated: open version
//!
//! let world_1977 = salaries.as_of(1977.0);
//! assert_eq!(world_1977.len(), 2);
//! assert_eq!(salaries.current_value(1), Some(41_000.0));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod lsm;
mod table;

pub use lsm::{PinnedSearch, TieredConfig, TieredTelemetry, TieredTemporalIndex};
pub use table::{
    PinnedQuery, TemporalBackend, TemporalConfig, TemporalError, TemporalTable, Version, VersionId,
};
