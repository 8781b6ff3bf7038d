//! The temporal table.

use crate::lsm::{PinnedSearch, Row, TieredConfig, TieredTemporalIndex};
use segidx_core::RecordId;
use segidx_geom::{Interval, Rect};
use std::collections::HashMap;

/// Identifier of one version of one key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VersionId(pub u64);

/// One version of a key: an attribute value valid over a time interval.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Version {
    /// The key this version belongs to.
    pub key: u64,
    /// The attribute value during the interval.
    pub value: f64,
    /// Start of validity (inclusive).
    pub from: f64,
    /// End of validity, or `None` while the version is current.
    pub to: Option<f64>,
}

/// A closed version as the index holds it: `[from, to] × value`, keyed.
type VersionRow = Row<2, u64>;

/// The row of a closed version, as a table row.
fn closed_version(row: &VersionRow) -> (VersionId, Version) {
    let version = Version {
        key: row.payload,
        value: row.rect.lo(1),
        from: row.rect.lo(0),
        to: Some(row.rect.hi(0)),
    };
    (VersionId(row.id.raw()), version)
}

/// Configuration for a [`TemporalTable`].
#[derive(Clone, Debug)]
pub struct TemporalConfig {
    /// Upper bound on timestamps. Writes and queries at or beyond the
    /// horizon are rejected with [`TemporalError::BeyondHorizon`], and
    /// `WITHIN` measures a still-open version's lifetime up to it, so pick
    /// it past any timestamp you will use. It shapes nothing in the index:
    /// open versions are not indexed at all.
    pub time_horizon: f64,
    /// Configuration of the tiered index the closed versions live in.
    pub tiers: TieredConfig,
}

impl Default for TemporalConfig {
    fn default() -> Self {
        Self {
            time_horizon: f64::MAX / 2.0,
            tiers: TieredConfig::default(),
        }
    }
}

/// Typed failures of temporal operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TemporalError {
    /// A timestamp fell at or beyond the table's time horizon.
    BeyondHorizon {
        /// The offending timestamp.
        t: f64,
        /// The table's configured horizon.
        horizon: f64,
    },
    /// A key's history must be appended in nondecreasing time order.
    OutOfOrder {
        /// The key being updated.
        key: u64,
        /// The offending timestamp.
        at: f64,
        /// Start of the key's current version.
        current_start: f64,
    },
}

impl std::fmt::Display for TemporalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TemporalError::BeyondHorizon { t, horizon } => {
                write!(f, "timestamp {t} at or beyond horizon {horizon}")
            }
            TemporalError::OutOfOrder {
                key,
                at,
                current_start,
            } => write!(
                f,
                "out-of-order update for key {key}: {at} < {current_start}"
            ),
        }
    }
}

impl std::error::Error for TemporalError {}

/// A key's open version, as the live set holds it.
#[derive(Clone, Copy, Debug)]
struct Open {
    id: VersionId,
    value: f64,
    from: f64,
}

/// Which of the rows a query's rectangle selects are part of its answer.
#[derive(Clone, Copy, Debug)]
enum Keep {
    /// Every row the rectangle selects.
    All,
    /// Rows valid at `t`: the index is closed-interval, the table's
    /// versions are closed-open `[from, to)`.
    ValidAt(f64),
    /// Rows whose lifetime — to the horizon while open — lies in the band.
    Lifetime { lo: f64, hi: f64 },
}

impl Keep {
    /// Whether a version valid over `[from, to)` is kept (`to` is the
    /// horizon for an open version).
    fn keeps(self, from: f64, to: f64) -> bool {
        match self {
            Keep::All => true,
            Keep::ValidAt(t) => from <= t && t < to,
            Keep::Lifetime { lo, hi } => to - from >= lo && to - from <= hi,
        }
    }
}

/// A query pinned by [`TemporalTable::pin_as_of`] or [`pin_within`]: two
/// steps, of which only the first reads the table.
///
/// 1. **pin** (`&TemporalTable`): validate, copy the matching *open*
///    versions out of the live set, and — each only if its fence, the
///    bounding box of what it holds, meets the query — scan the memtable
///    and take a reference to a sealed tier. This is the query's only
///    linearisation point: its answer is the table's state at the pin,
///    whatever is recorded, sealed, merged or expired after it.
/// 2. **[`finish`]** (no table): each pinned tier answers from its HINT,
///    tests the query's predicate on its rows before sorting them, and
///    hands back keyed rows; the runs and the open rows are merged by id.
///
/// A server that guards the table with a lock takes it for the pin only.
///
/// [`pin_within`]: TemporalTable::pin_within
/// [`finish`]: PinnedQuery::finish
#[derive(Debug)]
pub struct PinnedQuery {
    /// Closed versions: the pinned tiers and the memtable's hits.
    closed: PinnedSearch<2, u64>,
    /// Open versions the query keeps, by value as they were at the pin.
    open: Vec<(VersionId, Version)>,
    keep: Keep,
}

impl PinnedQuery {
    /// The query's rows, sorted by version id. Reads nothing of the table.
    pub fn finish(self) -> Vec<(VersionId, Version)> {
        let Self { closed, open, keep } = self;
        let closed = closed.finish(|row| keep.keeps(row.rect.lo(0), row.rect.hi(0)));
        // A row and a table row are the same size: this reuses the buffer.
        let mut out: Vec<_> = closed.into_iter().map(|r| closed_version(&r)).collect();
        if !open.is_empty() {
            // No id is in both: a version is open or indexed.
            out.extend(open);
            out.sort_unstable_by_key(|(id, _)| *id);
        }
        out
    }
}

/// A keyed, versioned table indexed by a segment index over
/// (valid time × attribute value).
///
/// Updates never destroy history: inserting a new value for a key closes
/// the current version at the update time and opens a new one, exactly the
/// append-only regime the paper designs for ("historical data indexes only
/// need to support insertion and search operations", §3.1.1 — though
/// [`TemporalTable::expire`] is provided for retention trimming).
///
/// Only *closed* versions are indexed: a version enters the tiered index
/// once, as a row keyed by its key, with its real end time, when its
/// successor (or a delete) closes it, and never moves again. Open
/// versions — at most one per key — live in the live set, which every
/// query scans beside the index. There is no other copy of a version: the
/// index rows and the live set are the table.
#[derive(Debug)]
pub struct TemporalTable {
    index: TieredTemporalIndex<2, u64>,
    /// `key → its open version`.
    live: HashMap<u64, Open>,
    next_id: u64,
    horizon: f64,
}

impl TemporalTable {
    /// Creates an empty table.
    ///
    /// # Panics
    /// Panics if the horizon is not finite-positive or the tier
    /// configuration is invalid.
    pub fn new(config: TemporalConfig) -> Self {
        assert!(
            config.time_horizon.is_finite() && config.time_horizon > 0.0,
            "time_horizon must be finite and positive"
        );
        Self {
            index: TieredTemporalIndex::new(config.tiers),
            live: HashMap::new(),
            next_id: 0,
            horizon: config.time_horizon,
        }
    }

    /// Records that `key` took `value` at time `at`, closing the key's
    /// previous version (if any). Returns the new version's id.
    ///
    /// # Panics
    /// Panics on any [`TemporalError`] — see [`try_insert`] for the
    /// non-panicking form.
    ///
    /// [`try_insert`]: TemporalTable::try_insert
    pub fn insert(&mut self, key: u64, value: f64, at: f64) -> VersionId {
        self.try_insert(key, value, at)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Records that `key` took `value` at time `at`, closing the key's
    /// previous version (if any) — which is then indexed, the statement's
    /// one index operation; the new version joins the live set. Returns
    /// the new version's id, or a typed error if `at` is at/beyond the
    /// horizon or precedes the key's current version start (history must
    /// be appended in order per key).
    pub fn try_insert(
        &mut self,
        key: u64,
        value: f64,
        at: f64,
    ) -> Result<VersionId, TemporalError> {
        if let Some(open) = self.check_close(key, at)? {
            self.close_version(key, open, at);
        }
        let id = VersionId(self.next_id);
        self.next_id += 1;
        self.live.insert(
            key,
            Open {
                id,
                value,
                from: at,
            },
        );
        Ok(id)
    }

    /// Deletes `key` at time `at`: closes its current version without
    /// opening a new one. Returns `false` if the key has no open version.
    ///
    /// # Panics
    /// Panics on any [`TemporalError`], as [`insert`](Self::insert) does —
    /// see [`try_delete_key`](Self::try_delete_key).
    pub fn delete_key(&mut self, key: u64, at: f64) -> bool {
        self.try_delete_key(key, at)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Deletes `key` at time `at`, or fails as [`try_insert`] would: at or
    /// beyond the horizon, or before the key's open version started.
    /// Returns `false` if the key has no open version.
    ///
    /// [`try_insert`]: TemporalTable::try_insert
    pub fn try_delete_key(&mut self, key: u64, at: f64) -> Result<bool, TemporalError> {
        let Some(open) = self.check_close(key, at)? else {
            return Ok(false);
        };
        self.live.remove(&key);
        self.close_version(key, open, at);
        Ok(true)
    }

    /// The checks a write at `at` to `key` makes, and the open version it
    /// would close.
    fn check_close(&self, key: u64, at: f64) -> Result<Option<Open>, TemporalError> {
        if at >= self.horizon {
            return Err(TemporalError::BeyondHorizon {
                t: at,
                horizon: self.horizon,
            });
        }
        let open = self.live.get(&key).copied();
        match open {
            Some(open) if at < open.from => Err(TemporalError::OutOfOrder {
                key,
                at,
                current_start: open.from,
            }),
            _ => Ok(open),
        }
    }

    /// Indexes a version closing at `at` — its only index operation. The
    /// table's tiers have no disk, so a seal cannot fail.
    fn close_version(&mut self, key: u64, open: Open, at: f64) {
        let rect = Rect::new([open.from, open.value], [at, open.value]);
        let row = Row::new(RecordId(open.id.0), rect, key);
        self.index.insert_row(row).expect("an in-memory seal");
    }

    /// Physically removes a closed version from the index (retention
    /// trimming). Current versions cannot be expired. Returns `false` if
    /// the version is open or was already expired.
    pub fn expire(&mut self, id: VersionId) -> bool {
        let Some(row) = self.index.get(RecordId(id.0)) else {
            return false;
        };
        self.index.delete(&row.rect, row.id).expect("expire")
    }

    /// Looks up a version.
    pub fn version(&self, id: VersionId) -> Option<Version> {
        if let Some(row) = self.index.get(RecordId(id.0)) {
            return Some(closed_version(&row).1);
        }
        let (&key, open) = self.live.iter().find(|(_, o)| o.id == id)?;
        Some(open_version(key, open).1)
    }

    /// The key's current (open) value, if any.
    pub fn current_value(&self, key: u64) -> Option<f64> {
        self.live.get(&key).map(|o| o.value)
    }

    /// All versions valid at time `t` — the temporal stab query
    /// ("what did the world look like at t?").
    ///
    /// # Panics
    /// Panics if `t` is at or beyond the horizon; use [`try_as_of`] for
    /// the typed error.
    ///
    /// [`try_as_of`]: TemporalTable::try_as_of
    pub fn as_of(&self, t: f64) -> Vec<(VersionId, Version)> {
        self.try_as_of(t).unwrap_or_else(|e| panic!("{e}"))
    }

    /// All versions valid at time `t`, or [`TemporalError::BeyondHorizon`]
    /// if `t >= time_horizon`.
    pub fn try_as_of(&self, t: f64) -> Result<Vec<(VersionId, Version)>, TemporalError> {
        Ok(self.pin_as_of(t)?.finish())
    }

    /// All versions whose validity overlaps `time` and whose value lies in
    /// `value` — the paper's rectangle query over historical data.
    ///
    /// # Panics
    /// Panics if `time` starts at or beyond the horizon; use
    /// [`try_range`] for the typed error.
    ///
    /// [`try_range`]: TemporalTable::try_range
    pub fn range(&self, time: Interval, value: Interval) -> Vec<(VersionId, Version)> {
        self.try_range(time, value)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// All versions whose validity overlaps `time` and whose value lies in
    /// `value`, or [`TemporalError::BeyondHorizon`] if the whole time
    /// window lies at/beyond the horizon.
    pub fn try_range(
        &self,
        time: Interval,
        value: Interval,
    ) -> Result<Vec<(VersionId, Version)>, TemporalError> {
        let query = Rect::from_intervals([time, value]);
        Ok(self.pin(query, Keep::All)?.finish())
    }

    /// Range × duration query (the streaming shape of the range-duration
    /// literature): versions overlapping `time` whose validity span lies
    /// in `[dur_lo, dur_hi]`. Open versions are measured to the horizon —
    /// effectively "at least this long so far".
    pub fn try_within(
        &self,
        time: Interval,
        dur_lo: f64,
        dur_hi: f64,
    ) -> Result<Vec<(VersionId, Version)>, TemporalError> {
        Ok(self.pin_within(time, dur_lo, dur_hi)?.finish())
    }

    /// Pins [`try_as_of`](Self::try_as_of); see [`PinnedQuery`].
    pub fn pin_as_of(&self, t: f64) -> Result<PinnedQuery, TemporalError> {
        let probe = Rect::new([t, f64::MIN / 2.0], [t, f64::MAX / 2.0]);
        self.pin(probe, Keep::ValidAt(t))
    }

    /// Pins [`try_within`](Self::try_within); see [`PinnedQuery`].
    pub fn pin_within(
        &self,
        time: Interval,
        dur_lo: f64,
        dur_hi: f64,
    ) -> Result<PinnedQuery, TemporalError> {
        let everything = Interval::new(f64::MIN / 2.0, f64::MAX / 2.0);
        let keep = Keep::Lifetime {
            lo: dur_lo,
            hi: dur_hi,
        };
        self.pin(Rect::from_intervals([time, everything]), keep)
    }

    fn pin(&self, query: Rect<2>, keep: Keep) -> Result<PinnedQuery, TemporalError> {
        if query.lo(0) >= self.horizon {
            return Err(TemporalError::BeyondHorizon {
                t: query.lo(0),
                horizon: self.horizon,
            });
        }
        // An open version lasts from its start to the horizon, which the
        // window was just checked to start before.
        let open = self
            .live
            .iter()
            .filter(|(_, o)| {
                o.from <= query.hi(0)
                    && query.lo(1) <= o.value
                    && o.value <= query.hi(1)
                    && keep.keeps(o.from, self.horizon)
            })
            .map(|(&key, o)| open_version(key, o))
            .collect();
        let closed = self.index.pin(&query);
        Ok(PinnedQuery { closed, open, keep })
    }

    /// The full history of one key, oldest first.
    pub fn history_of(&self, key: u64) -> Vec<(VersionId, Version)> {
        let closed = self.index.rows().filter(|r| r.payload == key);
        let mut out: Vec<_> = closed.map(closed_version).collect();
        out.extend(self.live.get(&key).map(|o| open_version(key, o)));
        // A key's versions start in id order: history is appended in time
        // order per key.
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// All currently open versions, sorted by key.
    pub fn current(&self) -> Vec<(u64, f64)> {
        let mut out: Vec<(u64, f64)> = self.live.iter().map(|(&k, o)| (k, o.value)).collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Total versions recorded (including expired ones).
    pub fn version_count(&self) -> usize {
        self.next_id as usize
    }

    /// Number of keys with an open version.
    pub fn key_count(&self) -> usize {
        self.live.len()
    }

    /// The configured time horizon.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// The tiered index holding the closed versions (inspection: tier
    /// profile, invariants).
    pub fn tiered_index(&self) -> &TieredTemporalIndex<2, u64> {
        &self.index
    }

    /// Mutable access to the tiered index (sealing, merge draining,
    /// telemetry).
    pub fn tiered_index_mut(&mut self) -> &mut TieredTemporalIndex<2, u64> {
        &mut self.index
    }
}

/// An open version, as a table row.
fn open_version(key: u64, open: &Open) -> (VersionId, Version) {
    let version = Version {
        key,
        value: open.value,
        from: open.from,
        to: None,
    };
    (open.id, version)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TemporalTable {
        TemporalTable::new(TemporalConfig {
            time_horizon: 10_000.0,
            ..TemporalConfig::default()
        })
    }

    fn tiered_table(seal_threshold: usize) -> TemporalTable {
        TemporalTable::new(TemporalConfig {
            time_horizon: 10_000.0,
            tiers: TieredConfig {
                seal_threshold,
                level_fanout: 2,
                ..TieredConfig::default()
            },
        })
    }

    #[test]
    fn figure1_salary_history() {
        let mut t = table();
        t.insert(1, 30_000.0, 1975.0);
        t.insert(1, 41_000.0, 1979.5);
        t.insert(1, 55_000.0, 1984.0);
        t.insert(2, 30_000.0, 1974.0); // long-lived, never updated

        // As-of queries walk the timeline.
        let w = t.as_of(1977.0);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].1.value, 30_000.0);
        let w = t.as_of(1990.0);
        assert_eq!(w.len(), 2);
        assert!(w.iter().any(|(_, v)| v.value == 55_000.0));
        assert!(w.iter().any(|(_, v)| v.value == 30_000.0));

        // Versions close exactly at update time (closed-open semantics).
        let w = t.as_of(1979.5);
        let emp1: Vec<_> = w.iter().filter(|(_, v)| v.key == 1).collect();
        assert_eq!(emp1.len(), 1);
        assert_eq!(emp1[0].1.value, 41_000.0, "new version valid at its start");

        assert_eq!(t.current_value(1), Some(55_000.0));
        assert_eq!(t.history_of(1).len(), 3);
        assert_eq!(t.current(), vec![(1, 55_000.0), (2, 30_000.0)]);
    }

    #[test]
    fn before_any_data_is_empty() {
        let mut t = table();
        t.insert(5, 1.0, 100.0);
        assert!(t.as_of(99.9).is_empty());
        assert_eq!(t.as_of(100.0).len(), 1);
    }

    #[test]
    fn delete_key_closes_without_reopening() {
        let mut t = table();
        t.insert(9, 7.0, 10.0);
        assert!(t.delete_key(9, 20.0));
        assert!(!t.delete_key(9, 30.0), "already closed");
        assert_eq!(t.current_value(9), None);
        assert_eq!(t.as_of(15.0).len(), 1);
        assert!(t.as_of(25.0).is_empty());
        // History retained.
        assert_eq!(t.history_of(9).len(), 1);
        assert_eq!(t.history_of(9)[0].1.to, Some(20.0));
    }

    #[test]
    fn range_query_matches_filtering() {
        let mut t = table();
        for key in 0..200u64 {
            let mut at = (key % 50) as f64;
            for step in 0..5 {
                t.insert(key, (key * 10 + step) as f64, at);
                at += 3.0 + (key % 7) as f64;
            }
        }
        let time = Interval::new(10.0, 20.0);
        let value = Interval::new(100.0, 900.0);
        let got = t.range(time, value);
        for (_, v) in &got {
            assert!(value.contains(v.value));
            let end = v.to.unwrap_or(10_000.0);
            assert!(v.from <= time.hi() && end >= time.lo());
        }
        // Differential check against every key's history.
        let all: Vec<Version> = (0..200)
            .flat_map(|k| t.history_of(k))
            .map(|(_, v)| v)
            .collect();
        assert_eq!(all.len(), 1_000);
        let expected = all
            .iter()
            .filter(|v| {
                let end = v.to.unwrap_or(10_000.0);
                value.contains(v.value) && v.from <= time.hi() && end >= time.lo()
            })
            .count();
        assert_eq!(got.len(), expected);
    }

    #[test]
    fn expire_removes_closed_versions_only() {
        let mut t = table();
        let v1 = t.insert(1, 5.0, 0.0);
        let v2 = t.insert(1, 6.0, 10.0); // closes v1
        assert!(!t.expire(v2), "open version cannot be expired");
        assert!(t.expire(v1));
        assert!(!t.expire(v1), "double expire is a no-op");
        assert!(t.version(v1).is_none());
        assert!(t.as_of(5.0).is_empty(), "expired version gone from index");
        assert_eq!(t.as_of(12.0).len(), 1);
    }

    #[test]
    fn a_delete_makes_the_checks_an_insert_makes() {
        // Regression: a delete before the open version's start used to
        // record a zero-length version at the start, and one at or past
        // the horizon was accepted.
        let mut t = table();
        t.insert(1, 5.0, 100.0);
        let early = t.try_delete_key(1, 50.0);
        assert!(matches!(early, Err(TemporalError::OutOfOrder { at, .. }) if at == 50.0));
        let late = t.try_delete_key(1, 10_000.0);
        assert!(matches!(late, Err(TemporalError::BeyondHorizon { .. })));
        assert!(
            t.try_delete_key(2, 10_001.0).is_err(),
            "even with no open version"
        );
        // Nothing was closed or recorded by the refusals.
        assert_eq!(t.current_value(1), Some(5.0));
        assert_eq!(t.history_of(1).len(), 1);
        assert_eq!(t.tiered_index().len(), 0);
        assert_eq!(
            t.try_delete_key(1, 100.0),
            Ok(true),
            "at the start is in order"
        );
        assert_eq!(t.history_of(1)[0].1.to, Some(100.0));
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_delete_panics() {
        let mut t = table();
        t.insert(1, 5.0, 100.0);
        t.delete_key(1, 99.0);
    }

    #[test]
    fn a_read_answers_as_of_its_pin() {
        // The pin is the only linearisation point: what is recorded,
        // sealed, merged or expired after it does not reach the answer.
        let mut t = tiered_table(4);
        let mut ids = Vec::new();
        for i in 0..12u64 {
            ids.push(t.insert(i, i as f64, 0.0));
            t.delete_key(i, 10.0 + i as f64);
        }
        let pinned = t.pin_as_of(5.0).unwrap();
        let within = t.pin_within(Interval::new(0.0, 50.0), 0.0, 100.0).unwrap();
        let before = t.as_of(5.0);
        assert_eq!(before.len(), 12);
        for id in &ids[..6] {
            assert!(t.expire(*id));
        }
        t.insert(100, 1.0, 2.0);
        t.tiered_index_mut().compact().unwrap();
        assert_eq!(t.as_of(5.0).len(), 7, "the table moved on");
        assert_eq!(pinned.finish(), before, "the pinned read did not");
        assert_eq!(within.finish().len(), 12);
    }

    #[test]
    #[should_panic]
    fn out_of_order_update_panics() {
        let mut t = table();
        t.insert(1, 5.0, 100.0);
        t.insert(1, 6.0, 50.0);
    }

    #[test]
    #[should_panic]
    fn timestamp_beyond_horizon_panics() {
        let mut t = table();
        t.insert(1, 5.0, 10_001.0);
    }

    #[test]
    fn query_at_horizon_is_a_typed_error() {
        // Regression: queries at or past the horizon used to silently see
        // no open versions; they are now rejected with BeyondHorizon.
        let mut t = table();
        t.insert(1, 5.0, 100.0); // open version: in the live set only
        assert_eq!(t.try_as_of(9_999.9).unwrap().len(), 1);
        let err = t.try_as_of(10_000.0).unwrap_err();
        assert_eq!(
            err,
            TemporalError::BeyondHorizon {
                t: 10_000.0,
                horizon: 10_000.0
            }
        );
        assert!(t.try_as_of(12_345.0).is_err());
        // Writes at the horizon are equally typed.
        let err = t.try_insert(2, 1.0, 10_000.0).unwrap_err();
        assert!(matches!(err, TemporalError::BeyondHorizon { .. }));
        // Range windows entirely past the horizon are rejected; partial
        // overlap is fine.
        assert!(t
            .try_range(Interval::new(10_000.0, 10_001.0), Interval::new(0.0, 10.0))
            .is_err());
        assert!(t
            .try_range(Interval::new(9_999.0, 10_001.0), Interval::new(0.0, 10.0))
            .is_ok());
    }

    #[test]
    fn within_filters_by_duration() {
        let mut t = table();
        t.insert(1, 1.0, 0.0);
        t.delete_key(1, 5.0); // duration 5
        t.insert(2, 2.0, 0.0);
        t.delete_key(2, 50.0); // duration 50
        t.insert(3, 3.0, 0.0); // open: duration to horizon
        let got = t.try_within(Interval::new(0.0, 100.0), 1.0, 10.0).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1.key, 1);
        let got = t
            .try_within(Interval::new(0.0, 100.0), 1.0, f64::MAX / 2.0)
            .unwrap();
        assert_eq!(got.len(), 3, "open version matches an unbounded ceiling");
    }

    #[test]
    fn an_update_is_one_index_insert_and_no_delete() {
        let mut t = tiered_table(16);
        for i in 0..400u64 {
            t.insert(i % 8, i as f64, i as f64);
        }
        let index = t.tiered_index();
        index.assert_invariants();
        assert!(index.tier_count() > 1, "several seals: {index:?}");
        assert_eq!(index.tombstone_count(), 0, "nothing was ever deleted");
        assert_eq!(index.len(), 400 - 8, "the closed versions, once each");
        assert_eq!(t.as_of(399.0).len(), 8);
    }

    #[test]
    fn index_and_live_set_stay_consistent_under_churn() {
        let mut t = tiered_table(64);
        for round in 0..50u64 {
            for key in 0..40u64 {
                t.insert(key, (round * 40 + key) as f64, round as f64 * 10.0);
            }
        }
        // Each key has 50 versions; 49 closed.
        assert_eq!(t.version_count(), 2_000);
        assert_eq!(t.key_count(), 40);
        for probe in [5.0, 250.0, 495.0] {
            let w = t.as_of(probe);
            assert_eq!(w.len(), 40, "every key valid at {probe}");
        }
        t.tiered_index().assert_invariants();
        assert_eq!(t.tiered_index().len(), 2_000 - 40);
        let history = t.history_of(7);
        assert_eq!(history.len(), 50);
        assert!(history.windows(2).all(|w| w[0].1.to == Some(w[1].1.from)));
        assert_eq!(t.version(history[3].0), Some(history[3].1));
        assert_eq!(t.version(history[49].0), Some(history[49].1), "open");
    }

    #[test]
    fn expire_reaches_sealed_versions() {
        let mut t = tiered_table(8);
        let mut ids = Vec::new();
        for i in 0..40u64 {
            ids.push(t.insert(i, i as f64, 0.0));
            t.delete_key(i, 10.0 + i as f64);
        }
        // Everything sealed by now; expire half.
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                assert!(t.expire(*id), "expire sealed version {i}");
            }
        }
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(t.version(*id).is_some(), i % 2 != 0);
        }
        // Version i is valid over [0, 10 + i): at t = 20 the survivors are
        // the odd i > 10.
        assert_eq!(t.as_of(20.0).len(), 15);
    }
}
