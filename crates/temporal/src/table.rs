//! The temporal table.

use crate::lsm::{PinnedSearch, TieredConfig, TieredTemporalIndex};
use segidx_core::prefetch::prefetch_slot;
use segidx_core::{IndexConfig, RecordId, StatsSnapshot, Tree};
use segidx_geom::{Interval, Rect};
use segidx_storage::StorageError;
use std::collections::HashMap;

/// Identifier of one version of one key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VersionId(pub u64);

impl VersionId {
    fn record(self) -> RecordId {
        RecordId(self.0)
    }
}

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

impl Version {
    /// Whether the version is valid at `t` (closed-open interval
    /// `[from, to)`, current versions open-ended).
    pub fn valid_at(&self, t: f64) -> bool {
        t >= self.from && self.to.map_or(true, |to| t < to)
    }
}

/// Which index structure backs a [`TemporalTable`].
#[derive(Clone, Debug, Default)]
pub enum TemporalBackend {
    /// One flat in-place tree — the paper's dynamic SR-Tree.
    #[default]
    Flat,
    /// The append-optimized LSM ([`TieredTemporalIndex`]): memtable
    /// inserts, sealed immutable tiers answering time through a frozen
    /// HINT, leveled merging. Queries are bit-identical to [`Flat`].
    /// The `index` field of the tiered configuration is used as-is.
    ///
    /// [`Flat`]: TemporalBackend::Flat
    Tiered(TieredConfig),
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
    /// Configuration of the underlying index; defaults to the paper's
    /// SR-Tree (spanning records hold the long-lived versions). Ignored by
    /// the tiered backend, which carries its own index configuration.
    pub index: IndexConfig,
    /// The index structure versions are stored in.
    pub backend: TemporalBackend,
}

impl Default for TemporalConfig {
    fn default() -> Self {
        Self {
            time_horizon: f64::MAX / 2.0,
            index: IndexConfig::srtree(),
            backend: TemporalBackend::Flat,
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
    /// The tiered backend failed to persist a seal or checkpoint.
    Storage(String),
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
            TemporalError::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for TemporalError {}

impl From<StorageError> for TemporalError {
    fn from(e: StorageError) -> Self {
        TemporalError::Storage(e.to_string())
    }
}

#[derive(Debug)]
// Both variants boxed: a `Tree` header is ~336 bytes and the tiered
// index (memtable + tier vec + merge worker + telemetry) is larger
// still, so inline storage would bloat every `TemporalTable`.
enum IndexBackend {
    Flat(Box<Tree<2>>),
    Tiered(Box<TieredTemporalIndex<2>>),
}

impl IndexBackend {
    fn insert(&mut self, rect: Rect<2>, record: RecordId) -> Result<(), TemporalError> {
        match self {
            IndexBackend::Flat(tree) => {
                tree.insert(rect, record);
                Ok(())
            }
            IndexBackend::Tiered(t) => t.insert(rect, record).map_err(Into::into),
        }
    }

    fn delete(&mut self, rect: &Rect<2>, record: RecordId) -> Result<bool, TemporalError> {
        match self {
            IndexBackend::Flat(tree) => Ok(tree.delete(rect, record)),
            IndexBackend::Tiered(t) => t.delete(rect, record).map_err(Into::into),
        }
    }

    fn pin(&self, query: &Rect<2>) -> IndexPin {
        match self {
            IndexBackend::Flat(tree) => IndexPin::Found(tree.search(query)),
            IndexBackend::Tiered(t) => IndexPin::Tiered(t.pin(query)),
        }
    }
}

/// What a pin leaves to do: nothing for the flat tree (one mutable tree
/// cannot be pinned, so it is searched during the pin), the sealed tiers'
/// searches for the tiered index.
#[derive(Debug)]
enum IndexPin {
    Found(Vec<RecordId>),
    Tiered(PinnedSearch<2>),
}

impl IndexPin {
    fn finish(self) -> Vec<RecordId> {
        match self {
            IndexPin::Found(ids) => ids,
            IndexPin::Tiered(pinned) => pinned.finish(),
        }
    }
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

/// A query pinned by [`TemporalTable::pin_as_of`] or [`pin_within`]: the
/// first of three steps, of which only the first and the last read the
/// table.
///
/// 1. **pin** (`&TemporalTable`): validate, copy the matching *open*
///    versions out of the live set, and — each only if its fence, the
///    bounding box of what it holds, meets the query — scan the memtable
///    and take a reference to a sealed tier. This is the query's
///    linearisation point: its answer is the table's state at the pin.
/// 2. **[`search`]** (no table): search the pinned tiers.
/// 3. **[`TemporalTable::resolve`]** (`&TemporalTable`): prefetch, then
///    read, the closed versions' rows by id — closed rows never change —
///    and merge in the open rows copied at the pin.
///
/// A server that guards the table with a lock takes it for 1 and 3 only.
///
/// [`pin_within`]: TemporalTable::pin_within
/// [`search`]: PinnedQuery::search
#[derive(Debug)]
pub struct PinnedQuery {
    /// Closed versions, by id once searched.
    index: IndexPin,
    /// Open versions, by value as they were at the pin.
    open: Vec<(VersionId, Version)>,
    keep: Keep,
}

impl PinnedQuery {
    /// Searches the pinned tiers. Reads nothing of the table.
    pub fn search(self) -> Self {
        Self {
            index: IndexPin::Found(self.index.finish()),
            ..self
        }
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
/// Only *closed* versions are indexed: a version enters the index once,
/// with its real end time, when its successor (or a delete) closes it, and
/// never moves again. Open versions — at most one per key — live in the
/// live set (`current`), which every query scans beside the index. The
/// version index is either one flat tree or the tiered LSM backend
/// ([`TemporalBackend`]); every query behaves identically on both.
#[derive(Debug)]
pub struct TemporalTable {
    index: IndexBackend,
    versions: Vec<Version>,
    current: HashMap<u64, VersionId>,
    horizon: f64,
}

impl TemporalTable {
    /// Creates an empty table.
    ///
    /// # Panics
    /// Panics if the horizon is not finite-positive or the index
    /// configuration is invalid.
    pub fn new(config: TemporalConfig) -> Self {
        assert!(
            config.time_horizon.is_finite() && config.time_horizon > 0.0,
            "time_horizon must be finite and positive"
        );
        let index = match config.backend {
            TemporalBackend::Flat => IndexBackend::Flat(Box::new(Tree::new(config.index))),
            TemporalBackend::Tiered(tiered) => {
                IndexBackend::Tiered(Box::new(TieredTemporalIndex::new(tiered)))
            }
        };
        Self {
            index,
            versions: Vec::new(),
            current: HashMap::new(),
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
        match self.try_insert(key, value, at) {
            Ok(id) => id,
            Err(TemporalError::BeyondHorizon { t, .. }) => {
                panic!("timestamp {t} beyond horizon")
            }
            Err(e) => panic!("{e}"),
        }
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
        if at >= self.horizon {
            return Err(TemporalError::BeyondHorizon {
                t: at,
                horizon: self.horizon,
            });
        }
        if let Some(&open) = self.current.get(&key) {
            let prev = self.versions[open.0 as usize];
            if at < prev.from {
                return Err(TemporalError::OutOfOrder {
                    key,
                    at,
                    current_start: prev.from,
                });
            }
            self.close_version(open, at)?;
        }
        let id = VersionId(self.versions.len() as u64);
        self.versions.push(Version {
            key,
            value,
            from: at,
            to: None,
        });
        self.current.insert(key, id);
        Ok(id)
    }

    /// Deletes `key` at time `at`: closes its current version without
    /// opening a new one. Returns `false` if the key has no open version.
    pub fn delete_key(&mut self, key: u64, at: f64) -> bool {
        match self.current.remove(&key) {
            Some(open) => {
                self.close_version(open, at).expect("close version");
                true
            }
            None => false,
        }
    }

    /// Physically removes a closed version from the index and catalog slot
    /// (retention trimming). Current versions cannot be expired. Returns
    /// `false` if the version is open or was already expired.
    pub fn expire(&mut self, id: VersionId) -> bool {
        let Some(v) = self.versions.get(id.0 as usize).copied() else {
            return false;
        };
        if v.to.is_none() || v.from.is_nan() {
            return false;
        }
        let removed = self
            .index
            .delete(&self.rect_of(id), id.record())
            .expect("expire");
        if removed {
            // Tombstone the catalog entry.
            self.versions[id.0 as usize].from = f64::NAN;
        }
        removed
    }

    /// Closes an open version and indexes it — its only index operation.
    fn close_version(&mut self, id: VersionId, at: f64) -> Result<(), TemporalError> {
        let v = &mut self.versions[id.0 as usize];
        debug_assert!(v.to.is_none());
        v.to = Some(at.max(v.from));
        self.index.insert(self.rect_of(id), id.record())
    }

    /// The indexed rectangle of a closed version.
    fn rect_of(&self, id: VersionId) -> Rect<2> {
        let v = self.versions[id.0 as usize];
        let to = v.to.expect("only closed versions are indexed");
        Rect::new([v.from, v.value], [to, v.value])
    }

    /// Looks up a version.
    pub fn version(&self, id: VersionId) -> Option<Version> {
        let v = *self.versions.get(id.0 as usize)?;
        if v.from.is_nan() {
            None // expired
        } else {
            Some(v)
        }
    }

    /// The key's current (open) value, if any.
    pub fn current_value(&self, key: u64) -> Option<f64> {
        self.current
            .get(&key)
            .map(|id| self.versions[id.0 as usize].value)
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
        Ok(self.resolve(self.pin_as_of(t)?))
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
        Ok(self.resolve(self.pin(query, Keep::All)?))
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
        Ok(self.resolve(self.pin_within(time, dur_lo, dur_hi)?))
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
            .current
            .values()
            .map(|&id| (id, self.versions[id.0 as usize]))
            .filter(|(_, v)| {
                v.from <= query.hi(0) && query.lo(1) <= v.value && v.value <= query.hi(1)
            })
            .collect();
        let index = self.index.pin(&query);
        Ok(PinnedQuery { index, open, keep })
    }

    /// Turns a pinned query into rows, sorted by version id: the last step
    /// of a [`PinnedQuery`] (searching it first if the caller has not). A
    /// version expired since the pin is left out.
    pub fn resolve(&self, pinned: PinnedQuery) -> Vec<(VersionId, Version)> {
        let PinnedQuery {
            index,
            mut open,
            keep,
        } = pinned;
        let kept = |v: &Version| match keep {
            Keep::All => !v.from.is_nan(),
            Keep::ValidAt(t) => v.valid_at(t),
            Keep::Lifetime { lo, hi } => {
                let dur = v.to.unwrap_or(self.horizon) - v.from;
                dur >= lo && dur <= hi
            }
        };
        // The hits name rows scattered over the whole catalog: ask for all
        // of them before reading the first, so the misses overlap.
        let closed = index.finish();
        for r in &closed {
            prefetch_slot(&self.versions, r.raw() as usize);
        }
        // Closed ids come sorted from the index; the open rows (few: one
        // per key at most, copied out of a hash map) are sorted here and
        // merged in. No id is in both — a version is open or indexed.
        debug_assert!(closed.windows(2).all(|w| w[0] < w[1]));
        open.retain(|(_, v)| kept(v));
        open.sort_unstable_by_key(|(id, _)| *id);
        let mut open = open.into_iter().peekable();
        let mut out = Vec::with_capacity(closed.len() + open.len());
        for r in closed {
            let id = VersionId(r.raw());
            while let Some(row) = open.next_if(|(o, _)| *o < id) {
                out.push(row);
            }
            let v = self.versions[r.raw() as usize];
            if kept(&v) {
                out.push((id, v));
            }
        }
        out.extend(open);
        out
    }

    /// The full history of one key, oldest first.
    pub fn history_of(&self, key: u64) -> Vec<(VersionId, Version)> {
        let mut out: Vec<(VersionId, Version)> = self
            .versions
            .iter()
            .enumerate()
            .filter(|(_, v)| v.key == key && !v.from.is_nan())
            .map(|(i, v)| (VersionId(i as u64), *v))
            .collect();
        out.sort_by(|a, b| a.1.from.partial_cmp(&b.1.from).unwrap());
        out
    }

    /// All currently open versions, sorted by key.
    pub fn current(&self) -> Vec<(u64, f64)> {
        let mut out: Vec<(u64, f64)> = self
            .current
            .iter()
            .map(|(&k, id)| (k, self.versions[id.0 as usize].value))
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Total versions recorded (including expired slots).
    pub fn version_count(&self) -> usize {
        self.versions.len()
    }

    /// Number of keys with an open version.
    pub fn key_count(&self) -> usize {
        self.current.len()
    }

    /// The configured time horizon.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Index statistics (the paper's node-access counters).
    ///
    /// # Panics
    /// Panics on the tiered backend, which has no single tree to report.
    pub fn index_stats(&self) -> StatsSnapshot {
        match &self.index {
            IndexBackend::Flat(tree) => tree.stats(),
            IndexBackend::Tiered(_) => panic!("index_stats: tiered backend"),
        }
    }

    /// The underlying flat index, for inspection.
    ///
    /// # Panics
    /// Panics on the tiered backend; use [`tiered_index`].
    ///
    /// [`tiered_index`]: TemporalTable::tiered_index
    pub fn index(&self) -> &Tree<2> {
        match &self.index {
            IndexBackend::Flat(tree) => tree,
            IndexBackend::Tiered(_) => panic!("index(): tiered backend"),
        }
    }

    /// The underlying tiered index, when the table uses the tiered
    /// backend.
    pub fn tiered_index(&self) -> Option<&TieredTemporalIndex<2>> {
        match &self.index {
            IndexBackend::Tiered(t) => Some(t),
            IndexBackend::Flat(_) => None,
        }
    }

    /// Mutable access to the tiered index (sealing, merge draining,
    /// telemetry), when the table uses the tiered backend.
    pub fn tiered_index_mut(&mut self) -> Option<&mut TieredTemporalIndex<2>> {
        match &mut self.index {
            IndexBackend::Tiered(t) => Some(t),
            IndexBackend::Flat(_) => None,
        }
    }
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
            backend: TemporalBackend::Tiered(TieredConfig {
                seal_threshold,
                level_fanout: 2,
                ..TieredConfig::default()
            }),
            ..TemporalConfig::default()
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
        // Differential check against the catalog.
        let expected = t
            .versions
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
    fn long_lived_closed_versions_become_spanning_records() {
        let mut t = table();
        // Many short-lived versions plus a few that lasted a hundred times
        // longer before they closed: the paper's skew. Once closed, the
        // long ones should sit in the SR-Tree as spanning records.
        for key in 0..2_000u64 {
            let at = (key % 100) as f64 * 10.0;
            t.insert(key, (key % 500) as f64, at);
            if key % 40 == 0 {
                t.insert(key, (key % 500) as f64 + 1.0, at + 5_000.0);
            } else {
                t.insert(key, (key % 500) as f64 + 1.0, at + 2.0);
                t.insert(key, (key % 500) as f64 + 2.0, at + 4.0);
            }
        }
        let stats = t.index_stats();
        assert!(stats.spanning_stores > 0, "long closed versions span nodes");
        assert!(t.index().check_invariants().is_empty());
        // Open versions are in no tree: the index holds the closed ones.
        assert_eq!(t.index().len(), t.version_count() - t.key_count());
        // Yet every open version is visible at a late time.
        let late = t.as_of(9_999.0);
        assert_eq!(late.len(), t.key_count());
        assert!(late.iter().all(|(_, v)| v.to.is_none()));
    }

    #[test]
    fn an_update_is_one_index_insert_and_no_delete() {
        let mut t = tiered_table(16);
        for i in 0..400u64 {
            t.insert(i % 8, i as f64, i as f64);
        }
        let index = t.tiered_index().unwrap();
        index.assert_invariants();
        assert!(index.tier_count() > 1, "several seals: {index:?}");
        assert_eq!(index.tombstone_count(), 0, "nothing was ever deleted");
        assert_eq!(index.len(), 400 - 8, "the closed versions, once each");
        assert_eq!(t.as_of(399.0).len(), 8);
    }

    #[test]
    fn index_and_catalog_stay_consistent_under_churn() {
        let mut t = table();
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
        assert!(t.index().check_invariants().is_empty());
    }

    #[test]
    fn tiered_backend_answers_identically_under_churn() {
        let mut flat = table();
        let mut tiered = tiered_table(64); // force many seals and merges
        for round in 0..30u64 {
            for key in 0..25u64 {
                let value = ((round * 25 + key) % 97) as f64;
                let at = round as f64 * 10.0 + (key % 5) as f64;
                flat.insert(key, value, at);
                tiered.insert(key, value, at);
            }
            if round % 7 == 3 {
                let key = round % 25;
                let at = round as f64 * 10.0 + 6.0;
                assert_eq!(flat.delete_key(key, at), tiered.delete_key(key, at));
            }
        }
        tiered
            .tiered_index()
            .expect("tiered backend")
            .assert_invariants();
        assert!(tiered.tiered_index().unwrap().tier_count() > 1);
        for probe in [5.0, 42.0, 123.0, 250.0, 299.0] {
            assert_eq!(flat.as_of(probe), tiered.as_of(probe), "as_of {probe}");
        }
        for (lo, hi) in [(0.0, 300.0), (50.0, 60.0), (120.0, 180.0)] {
            let time = Interval::new(lo, hi);
            let value = Interval::new(10.0, 80.0);
            assert_eq!(flat.range(time, value), tiered.range(time, value));
            assert_eq!(
                flat.try_within(time, 2.0, 40.0).unwrap(),
                tiered.try_within(time, 2.0, 40.0).unwrap()
            );
        }
        assert_eq!(flat.current(), tiered.current());
    }

    #[test]
    fn tiered_backend_supports_expire() {
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
