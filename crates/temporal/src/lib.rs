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
//! * only closed versions are indexed, once, as keyed rows of the
//!   [`lsm`] module's LSM: a memtable sealed into immutable tiers —
//!   id-sorted rows plus a frozen HINT over time — with crash-consistent
//!   checkpoints and leveled merges running on a worker thread while the
//!   next seal fills;
//! * the open (current) versions, at most one per key, form a small live
//!   set every query scans beside the index; the rows and the live set are
//!   the whole table — there is no version catalog;
//! * [`TemporalTable::as_of`] is the temporal stab query, and
//!   [`TemporalTable::range`] the (time window × attribute window) rectangle
//!   query that the paper's experiments measure; a tier answers both from
//!   its rows, the query's predicate tested before anything is sorted.
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

pub use lsm::{Payload, PinnedSearch, Row, TieredConfig, TieredTelemetry, TieredTemporalIndex};
pub use table::{PinnedQuery, TemporalConfig, TemporalError, TemporalTable, Version, VersionId};
