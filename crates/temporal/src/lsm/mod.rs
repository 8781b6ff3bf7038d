//! Append-optimized tiered storage: an LSM of frozen HINTs.
//!
//! The paper observes that historical interval data is append-only
//! ("historical data indexes only need to support insertion and search
//! operations", §3.1.1), and monotone-end-time streams make in-place
//! R-Tree splits wasted work. [`TieredTemporalIndex`] exploits that:
//!
//! * **Memtable** — recent intervals accumulate in a bounded mutable
//!   staging area: a flat O(1)-append buffer, scanned linearly
//!   (`memtable`).
//! * **Seal** — at a size threshold (or on demand) the memtable becomes an
//!   immutable level-0 [`Tier`]: its rows sorted by record id, plus a
//!   frozen HINT over their dimension-0 (time) intervals built in two
//!   passes. Every served time query — `AS OF`, `WITHIN` — is a
//!   one-dimensional question over immutable data, HINT's frozen case.
//!   With a disk attached, every seal commits a manifest page under the
//!   storage layer's atomic root-pointer flip, so each seal is a
//!   crash-consistent checkpoint; on disk a tier is the packed tree
//!   [`bulk_load`](segidx_core::bulk::bulk_load) writes, a page format and
//!   nothing more.
//! * **Merge** — a leveled policy folds runs of equal-level tiers into one
//!   tier a level up, on the merge worker (`merge`) while the next seal
//!   fills: a linear k-way merge of record-sorted inputs and one HINT
//!   build. A seal builds its tier, splices in the merge the previous seal
//!   handed off (waiting only if it is still running), hands the worker at
//!   most one new job, then checkpoints — so what each checkpoint holds
//!   does not depend on timing.
//!
//! Every entry is a [`Row`]: record id, rectangle and a payload the owner
//! chooses — `()` for a bare index, a version's key for the temporal
//! table — stored side by side. Queries scatter across the memtable and
//! every tier whose *fence* — the bounding box of what it holds — meets
//! the query, drop the copies a newer tombstone shadows and the rows the
//! caller's predicate rejects, and merge the per-tier runs, each already
//! record-sorted — bit-identical to a flat single-tree model holding only
//! the live entries.
//!
//! ## Precedence
//!
//! **Contract: record ids are unique among *live* entries** (the temporal
//! table guarantees this — a version id is indexed once, when it closes).
//! Re-using an id means deleting the old entry first; if the old copy is
//! already sealed, the delete becomes a *tombstone* stamped with the next
//! sequence number. Under that contract a sealed copy of record `r` in
//! tier sequence `S` is stale iff a tombstone for `r` carries a sequence
//! `> S`: a second copy can only exist after a delete, a delete of a
//! sealed copy always leaves a tombstone newer than that copy's tier, and
//! a tombstone is pruned only once no older tier holds the record. So a
//! search filters its hits through the tombstone map alone — nothing per
//! hit when the map is empty — and never asks another tier, or the
//! memtable, whether it holds the record too.

mod memtable;
mod merge;
pub mod telemetry;
mod tier;

pub use telemetry::TieredTelemetry;

use memtable::Memtable;
use merge::{plan_run, MergeJob, MergeOutcome, MergeWorker};
use segidx_core::{persist, RecordId};
use segidx_geom::Rect;
use segidx_storage::{DiskManager, PageId, Result, StorageError};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
pub use tier::Tier;

/// What a [`Row`] carries beside its id and rectangle: `()` for a bare
/// index, a version's key for the temporal table. Any plain value the
/// merge worker can share qualifies.
pub trait Payload: Copy + Send + Sync + std::fmt::Debug + 'static {}

impl<T: Copy + Send + Sync + std::fmt::Debug + 'static> Payload for T {}

/// One entry: a record id, its rectangle and its payload, side by side, so
/// testing and copying a hit reads one place.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row<const D: usize, P = ()> {
    /// The record id, unique among live entries.
    pub id: RecordId,
    /// The indexed rectangle.
    pub rect: Rect<D>,
    /// What the owner attached to the entry.
    pub payload: P,
}

impl<const D: usize, P> Row<D, P> {
    /// The row of `id`, at `rect`, carrying `payload`.
    pub fn new(id: RecordId, rect: Rect<D>, payload: P) -> Self {
        Self { id, rect, payload }
    }
}

/// Tuning for a [`TieredTemporalIndex`].
#[derive(Clone, Debug)]
pub struct TieredConfig {
    /// Memtable entries that trigger a seal.
    pub seal_threshold: usize,
    /// Number of equal-level tiers that triggers a merge into the next
    /// level.
    pub level_fanout: usize,
    /// Tombstone count that triggers a full compaction (merge of every
    /// tier), clearing collected tombstones.
    pub tombstone_limit: usize,
}

impl Default for TieredConfig {
    fn default() -> Self {
        Self {
            seal_threshold: 8_192,
            level_fanout: 4,
            tombstone_limit: 4_096,
        }
    }
}

impl TieredConfig {
    fn validate(&self) {
        assert!(self.seal_threshold > 0, "seal_threshold must be positive");
        assert!(self.level_fanout >= 2, "level_fanout must be at least 2");
    }
}

/// An LSM of sealed tiers, each answering time through a frozen HINT, over
/// rows carrying a `P` payload. See the [module docs](self).
pub struct TieredTemporalIndex<const D: usize, P = ()> {
    config: TieredConfig,
    memtable: Memtable<D, P>,
    /// Oldest first (ascending `seq`); levels monotone non-increasing.
    tiers: Vec<Tier<D, P>>,
    /// Shared with every pin and merge job taken since the last delete or
    /// prune, which copy it on write.
    tombstones: Arc<HashMap<RecordId, u64>>,
    next_seq: u64,
    /// Live entries (inserts minus deletes) — the flat model's length.
    len: usize,
    disk: Option<Arc<DiskManager>>,
    manifest_page: Option<PageId>,
    /// Tree metadata pages of tiers consumed by merges, freed at the next
    /// checkpoint.
    pending_free: Vec<PageId>,
    worker: MergeWorker<D, P>,
    telemetry: Option<Arc<TieredTelemetry>>,
}

/// The durable surface: a disk tier is a packed tree of ids and
/// rectangles, so only the `()` payload reaches a checkpoint.
impl<const D: usize> TieredTemporalIndex<D> {
    /// Creates a disk-backed tiered index on a fresh `disk`, committing an
    /// empty manifest so a reopen before the first seal finds a valid
    /// (empty) tier set.
    pub fn create(config: TieredConfig, disk: Arc<DiskManager>) -> Result<Self> {
        let mut idx = Self::new(config);
        idx.disk = Some(disk);
        idx.checkpoint()?;
        Ok(idx)
    }

    /// Reopens a disk-backed tiered index from its committed manifest.
    ///
    /// After a crash, open the disk with [`DiskManager::open_repair`]
    /// first; a pure power cut leaves the committed manifest and tier
    /// pages intact, so this loads exactly the last checkpointed tier set
    /// (memtable contents since that checkpoint are gone by design — the
    /// seal is the durability boundary).
    pub fn open(config: TieredConfig, disk: Arc<DiskManager>) -> Result<Self> {
        config.validate();
        let root = disk
            .root()
            .ok_or_else(|| StorageError::BadMeta("no committed manifest".into()))?;
        let manifest = tier::read_manifest(&disk, root, D)?;
        let tiers: Vec<Tier<D>> = tier::load_tiers(&disk, &manifest)?;
        let mut idx = Self::new(config);
        idx.tombstones = Arc::new(manifest.tombstones.into_iter().collect());
        idx.len = Self::live_rows(&tiers, &idx.tombstones).count();
        idx.next_seq = manifest.next_seq;
        idx.tiers = tiers;
        idx.disk = Some(disk);
        idx.manifest_page = Some(root);
        idx.refresh_gauges();
        Ok(idx)
    }

    /// Inserts an entry, sealing the memtable if it reaches the threshold.
    /// Record ids must be unique among live entries.
    ///
    /// In-memory indexes cannot fail here; disk-backed ones surface seal
    /// commit errors.
    pub fn insert(&mut self, rect: Rect<D>, record: RecordId) -> Result<()> {
        self.insert_row(Row::new(record, rect, ()))
    }
}

impl<const D: usize, P: Payload> TieredTemporalIndex<D, P> {
    /// Creates an in-memory tiered index (no durability).
    pub fn new(config: TieredConfig) -> Self {
        config.validate();
        let memtable = Memtable::new(config.seal_threshold);
        Self {
            config,
            memtable,
            tiers: Vec::new(),
            tombstones: Arc::default(),
            next_seq: 0,
            len: 0,
            disk: None,
            manifest_page: None,
            pending_free: Vec::new(),
            worker: MergeWorker::spawn(),
            telemetry: None,
        }
    }

    /// Live (untombstoned) sealed rows, tier by tier — the staleness rule
    /// of [`PinnedSearch::finish`] applied to every entry instead of a
    /// query's hits.
    fn live_rows<'a>(
        tiers: &'a [Tier<D, P>],
        tombstones: &'a HashMap<RecordId, u64>,
    ) -> impl Iterator<Item = &'a Row<D, P>> + 'a {
        tiers.iter().flat_map(move |t| {
            let live = move |r: &&Row<D, P>| !tombstones.get(&r.id).is_some_and(|&ts| ts > t.seq);
            t.rows().iter().filter(live)
        })
    }

    /// Installs telemetry: seal, merge and pin counters, tier gauges.
    pub fn set_telemetry(&mut self, telemetry: Option<Arc<TieredTelemetry>>) {
        self.telemetry = telemetry;
        self.refresh_gauges();
    }

    /// Live entries — what a flat single-tree model would hold.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sealed tiers currently live.
    pub fn tier_count(&self) -> usize {
        self.tiers.len()
    }

    /// Entries in the mutable memtable.
    pub fn memtable_len(&self) -> usize {
        self.memtable.len()
    }

    /// Live tombstones shadowing sealed entries.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// `(seq, level, entries)` per tier, oldest first (diagnostics).
    pub fn tier_profile(&self) -> Vec<(u64, u32, usize)> {
        self.tiers
            .iter()
            .map(|t| (t.seq, t.level, t.entry_count()))
            .collect()
    }

    /// The sealed tiers, oldest first like [`tier_profile`] (diagnostics:
    /// what a time query costs tier by tier is read off
    /// [`Tier::hint`]).
    ///
    /// [`tier_profile`]: TieredTemporalIndex::tier_profile
    pub fn tiers(&self) -> impl Iterator<Item = &Tier<D, P>> + '_ {
        self.tiers.iter()
    }

    /// Every live row: the memtable's, then each tier's, oldest tier first.
    pub fn rows(&self) -> impl Iterator<Item = &Row<D, P>> + '_ {
        let sealed = Self::live_rows(&self.tiers, &self.tombstones);
        self.memtable.rows().iter().chain(sealed)
    }

    /// The live row of `record`, wherever it is.
    pub fn get(&self, record: RecordId) -> Option<Row<D, P>> {
        if self.memtable.contains(record) {
            let mut rows = self.memtable.rows().iter();
            return rows.rfind(|r| r.id == record).copied();
        }
        let (seq, row) = self
            .tiers
            .iter()
            .rev()
            .find_map(|t| Some((t.seq, *t.get(record)?)))?;
        (!self.shadowed(record, seq)).then_some(row)
    }

    /// Whether a tombstone newer than tier sequence `seq` shadows `record`.
    fn shadowed(&self, record: RecordId, seq: u64) -> bool {
        self.tombstones.get(&record).is_some_and(|&ts| ts > seq)
    }

    /// Inserts a row, sealing the memtable if it reaches the threshold.
    /// Record ids must be unique among live entries.
    ///
    /// In-memory indexes cannot fail here; disk-backed ones surface seal
    /// commit errors.
    pub fn insert_row(&mut self, row: Row<D, P>) -> Result<()> {
        self.memtable.insert(row);
        self.len += 1;
        if self.memtable.len() >= self.config.seal_threshold {
            self.seal()?;
        } else {
            self.gauge_memtable();
        }
        Ok(())
    }

    /// Deletes a live entry. `rect` must be the exact rectangle it was
    /// inserted with. A memtable hit is removed physically; a sealed copy
    /// gets a tombstone (durable at the next seal or [`checkpoint`]).
    /// Returns whether the entry was live.
    ///
    /// [`checkpoint`]: TieredTemporalIndex::checkpoint
    pub fn delete(&mut self, rect: &Rect<D>, record: RecordId) -> Result<bool> {
        if self.memtable.delete(rect, record) {
            self.len -= 1;
            self.gauge_memtable();
            return Ok(true);
        }
        // Newest sealed copy, if it is still visible.
        let Some(seq) = self
            .tiers
            .iter()
            .rev()
            .find(|t| t.contains(record))
            .map(|t| t.seq)
        else {
            return Ok(false);
        };
        if self.shadowed(record, seq) {
            return Ok(false); // already deleted
        }
        Arc::make_mut(&mut self.tombstones).insert(record, self.next_seq);
        self.next_seq += 1;
        self.len -= 1;
        if self.tombstones.len() > self.config.tombstone_limit && !self.tiers.is_empty() {
            self.compact()?;
        } else if let Some(t) = &self.telemetry {
            t.tombstones
                .store(self.tombstones.len() as u64, Ordering::Relaxed);
        }
        Ok(true)
    }

    /// Record ids intersecting `query`: scattered across memtable and
    /// every tier, tombstoned copies dropped, merged sorted ascending — the
    /// same contract (and bit-identical results) as [`Tree::search`] on a
    /// flat tree of the live entries. It is [`PinnedSearch::finish`]
    /// keeping every row, gathering ids instead of rows.
    ///
    /// [`Tree::search`]: segidx_core::Tree::search
    pub fn search(&self, query: &Rect<D>) -> Vec<RecordId> {
        self.pin(query).finish_as(|_| true, |r| r.id, |&id| id)
    }

    /// Starts a search that finishes without the index: scans the memtable
    /// now (if its fence meets the query) and pins the sealed tiers whose
    /// fences do — a reference count per such tier, and one for the
    /// tombstone map — for [`PinnedSearch::finish`], which returns exactly
    /// what [`search`] would have returned at this moment however much is
    /// inserted, sealed or merged in between. A caller that guards the
    /// index with a lock holds it for the pin only, not for the tree
    /// searches.
    ///
    /// A fence is a bounding box, right whatever order entries arrived in.
    /// Tiers do *not* cover disjoint time bands — end times are monotone
    /// per key only, and every writer runs its own clock — so no tier is
    /// skipped for where it sits in the list, only for what its box says.
    ///
    /// [`search`]: TieredTemporalIndex::search
    pub fn pin(&self, query: &Rect<D>) -> PinnedSearch<D, P> {
        let tiers: Vec<Tier<D, P>> = self
            .tiers
            .iter()
            .filter(|t| t.may_intersect(query))
            .cloned()
            .collect();
        if let Some(t) = &self.telemetry {
            t.pins_total.fetch_add(1, Ordering::Relaxed);
            t.tiers_pinned_total
                .fetch_add(tiers.len() as u64, Ordering::Relaxed);
        }
        PinnedSearch {
            query: *query,
            hits: self.memtable.search(query),
            tiers,
            tombstones: Arc::clone(&self.tombstones),
        }
    }

    /// Seals the memtable into an immutable level-0 tier, splices in the
    /// merge the previous seal handed to the worker (waiting for it if it
    /// is still running), hands the worker the policy's next merge, and
    /// (disk-backed) commits the new tier set atomically. A no-op when the
    /// memtable is empty.
    pub fn seal(&mut self) -> Result<()> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        let t0 = Instant::now();
        let entries = self.memtable.drain();
        let sealed = entries.len();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.tiers.push(Tier::new(entries, seq, 0));
        self.prune_tombstones();
        self.finish_in_flight();
        self.dispatch_merge();
        self.checkpoint()?;
        if let Some(t) = &self.telemetry {
            t.seals_total.fetch_add(1, Ordering::Relaxed);
            t.sealed_entries_total
                .fetch_add(sealed as u64, Ordering::Relaxed);
            t.seal_latency.record_duration(t0.elapsed());
        }
        self.refresh_gauges();
        Ok(())
    }

    /// Merges every tier into one (regardless of the leveled policy) and
    /// clears the tombstones the merge collected. Compacting a single
    /// tier rewrites it without its tombstoned copies.
    pub fn compact(&mut self) -> Result<()> {
        self.finish_in_flight();
        if !self.tiers.is_empty() {
            self.worker.submit(self.make_full_job());
            self.finish_in_flight();
        }
        self.prune_tombstones();
        self.checkpoint()?;
        self.refresh_gauges();
        Ok(())
    }

    /// Drives merging to quiescence: waits for the in-flight merge (if
    /// any), applies it, and repeats until the policy finds no run, then
    /// commits the result.
    pub fn flush_merges(&mut self) -> Result<()> {
        loop {
            self.finish_in_flight();
            if !self.dispatch_merge() {
                break;
            }
        }
        self.checkpoint()?;
        self.refresh_gauges();
        Ok(())
    }

    /// Commits the current sealed state (tier trees + manifest + tombstone
    /// table) to the attached disk under one atomic root-pointer flip: a
    /// tier not yet on disk is packed into its page-format tree, saved and
    /// dropped. Returns the manifest page, or `None` for in-memory indexes.
    ///
    /// Runs automatically at the end of `seal`, `flush_merges` and
    /// `compact`, the only places a merge is spliced in; call directly to
    /// make tombstones created since the last seal durable.
    pub fn checkpoint(&mut self) -> Result<Option<PageId>> {
        let Some(disk) = self.disk.clone() else {
            return Ok(None);
        };
        // Free replaced pages first: the storage layer quarantines freed
        // extents until this commit is durable, so a crash anywhere below
        // reopens on the previous manifest with all its pages intact.
        for meta in self.pending_free.drain(..) {
            persist::free_tree(&disk, meta);
        }
        if let Some(old) = self.manifest_page.take() {
            let _ = disk.free(old);
        }
        for t in &mut self.tiers {
            if t.meta.is_none() {
                let tree = t.pack();
                t.meta = Some(persist::save(&tree, &disk)?);
            }
        }
        let page = tier::write_manifest(&disk, &self.tiers, &self.tombstones, self.next_seq)?;
        disk.set_root(Some(page));
        disk.sync()?;
        self.manifest_page = Some(page);
        Ok(Some(page))
    }

    /// Runs the leveled policy with nothing in flight: hands the worker
    /// the next run — or every tier, under tombstone pressure — and
    /// returns whether there was one.
    fn dispatch_merge(&mut self) -> bool {
        let job = if self.tombstones.len() > self.config.tombstone_limit && !self.tiers.is_empty() {
            self.make_full_job()
        } else if let Some((range, level)) = plan_run(&self.tiers, self.config.level_fanout) {
            self.make_job(range, level)
        } else {
            return false;
        };
        self.worker.submit(job);
        true
    }

    /// Blocks until no merge is in flight, applying its result, without
    /// dispatching new work.
    fn finish_in_flight(&mut self) {
        if let Some(outcome) = self.worker.wait_take() {
            self.apply_merge(outcome);
        }
    }

    fn make_job(&self, range: std::ops::Range<usize>, level: u32) -> MergeJob<D, P> {
        MergeJob {
            tiers: self.tiers[range].to_vec(),
            tombstones: Arc::clone(&self.tombstones),
            level,
        }
    }

    /// A merge of every tier into one a level above the highest.
    fn make_full_job(&self) -> MergeJob<D, P> {
        let level = self.tiers.iter().map(|t| t.level).max().unwrap_or(0) + 1;
        self.make_job(0..self.tiers.len(), level)
    }

    /// Splices a merge result into the tier list, replacing its inputs
    /// (which are always still present and contiguous: seals only append,
    /// and only one merge runs at a time).
    fn apply_merge(&mut self, outcome: MergeOutcome<D, P>) {
        let MergeOutcome {
            input_seqs,
            tier,
            dropped,
            nanos,
        } = outcome;
        let start = self
            .tiers
            .iter()
            .position(|t| t.seq == input_seqs[0])
            .expect("merge inputs present");
        let end = start + input_seqs.len();
        debug_assert!(self.tiers[start..end]
            .iter()
            .zip(&input_seqs)
            .all(|(t, &s)| t.seq == s));
        for old in self.tiers.drain(start..end) {
            if let Some(meta) = old.meta {
                self.pending_free.push(meta);
            }
        }
        let merged_entries = tier.entry_count() as u64;
        self.tiers.insert(start, tier);
        self.prune_tombstones();
        if let Some(t) = &self.telemetry {
            t.merges_total.fetch_add(1, Ordering::Relaxed);
            t.merged_entries_total
                .fetch_add(merged_entries, Ordering::Relaxed);
            t.merge_dropped_total.fetch_add(dropped, Ordering::Relaxed);
            t.merge_latency.record(nanos);
        }
    }

    /// Drops tombstones that no longer shadow anything. A tombstone at
    /// sequence `ts` masks copies of its record in tiers with sequence
    /// `< ts`; once no such tier holds the record (the copies were merged
    /// away), no future tier can either — merges only combine existing
    /// copies and seals get fresh, higher sequences — so it is dead weight.
    fn prune_tombstones(&mut self) {
        let tiers = &self.tiers;
        let shadows = |r: RecordId, ts: u64| tiers.iter().any(|t| t.seq < ts && t.contains(r));
        // Un-share the map only if something is to go: every seal comes
        // through here, most with nothing to prune.
        if self.tombstones.iter().all(|(&r, &ts)| shadows(r, ts)) {
            return;
        }
        Arc::make_mut(&mut self.tombstones).retain(|&r, &mut ts| shadows(r, ts));
    }

    fn gauge_memtable(&self) {
        if let Some(t) = &self.telemetry {
            t.memtable_entries
                .store(self.memtable.len() as u64, Ordering::Relaxed);
        }
    }

    /// Re-derives every gauge; called where the tier set changes (seal,
    /// merge application, compaction, open), not per operation.
    fn refresh_gauges(&self) {
        self.gauge_memtable();
        if let Some(t) = &self.telemetry {
            t.tier_count
                .store(self.tiers.len() as u64, Ordering::Relaxed);
            t.sealed_entries.store(
                self.tiers.iter().map(|x| x.entry_count() as u64).sum(),
                Ordering::Relaxed,
            );
            t.tombstones
                .store(self.tombstones.len() as u64, Ordering::Relaxed);
        }
    }

    /// Internal consistency checks (tests): sequence order, level
    /// monotonicity, ids strictly ascending within each tier, live count.
    #[doc(hidden)]
    pub fn assert_invariants(&self) {
        for w in self.tiers.windows(2) {
            assert!(w[0].seq < w[1].seq, "tier seqs ascend");
            assert!(w[0].level >= w[1].level, "levels non-increasing");
        }
        for t in &self.tiers {
            assert!(t.seq < self.next_seq);
            // Handles are positions and merges walk ids in order: both rest
            // on each id being in a tier once.
            assert!(
                t.rows().windows(2).all(|w| w[0].id < w[1].id),
                "tier {} ids not strictly ascending",
                t.seq
            );
        }
        // The contract the search's staleness rule rests on: no record id
        // is live twice, in two tiers or in a tier and the memtable.
        let live = Self::live_rows(&self.tiers, &self.tombstones).map(|r| r.id);
        let mut live: Vec<RecordId> = live.collect();
        assert_eq!(self.len, live.len() + self.memtable.len(), "live count");
        assert!(
            !live.iter().any(|&r| self.memtable.contains(r)),
            "a live sealed id is also in the memtable"
        );
        live.sort_unstable();
        assert!(live.windows(2).all(|w| w[0] != w[1]), "an id is live twice");
    }
}

impl<const D: usize, P: Payload> std::fmt::Debug for TieredTemporalIndex<D, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredTemporalIndex")
            .field("len", &self.len)
            .field("memtable", &self.memtable.len())
            .field("tiers", &self.tier_profile())
            .field("tombstones", &self.tombstones.len())
            .finish()
    }
}

/// A search begun by [`TieredTemporalIndex::pin`]: the memtable's hits and
/// the sealed tiers still to be searched — those the query can have a hit
/// in, no others.
#[derive(Debug)]
pub struct PinnedSearch<const D: usize, P = ()> {
    query: Rect<D>,
    hits: Vec<Row<D, P>>,
    tiers: Vec<Tier<D, P>>,
    tombstones: Arc<HashMap<RecordId, u64>>,
}

impl<const D: usize, P: Payload> PinnedSearch<D, P> {
    /// Searches the pinned tiers and returns the rows `keep` accepts,
    /// ascending by id. Each tier tests its HINT's hits — against `keep`,
    /// and against a newer tombstone (see the module docs for why that is
    /// the whole staleness rule) — before it sorts and copies anything,
    /// and answers with a run already sorted by id, so the runs are
    /// merged, not sorted again.
    pub fn finish(self, keep: impl Fn(&Row<D, P>) -> bool) -> Vec<Row<D, P>> {
        self.finish_as(keep, |r| *r, |r| r.id)
    }

    /// [`finish`](Self::finish), gathering `take` of each kept row instead
    /// of the row; `id` reads a gathered value's id back for the merge.
    fn finish_as<T: Copy>(
        self,
        keep: impl Fn(&Row<D, P>) -> bool,
        take: impl Fn(&Row<D, P>) -> T,
        id: impl Fn(&T) -> RecordId + Copy,
    ) -> Vec<T> {
        let Self {
            query,
            mut hits,
            tiers,
            tombstones,
        } = self;
        hits.retain(&keep);
        hits.sort_unstable_by_key(|r| r.id);
        let mut out: Vec<T> = hits.iter().map(&take).collect();
        let mut bounds = Vec::with_capacity(tiers.len() + 2);
        bounds.extend([0, out.len()]);
        for t in &tiers {
            t.search_into(&query, &tombstones, &keep, &take, &mut out);
            bounds.push(out.len());
        }
        let out = merge_runs(out, bounds, id);
        debug_assert!(out.windows(2).all(|w| id(&w[0]) < id(&w[1])));
        out
    }
}

/// Merges the runs `items[bounds[i]..bounds[i + 1]]`, each ascending by
/// `id`, into one, neighbouring runs pairwise per pass, so each item moves
/// once per halving of the run count.
fn merge_runs<T: Copy>(
    mut items: Vec<T>,
    mut bounds: Vec<usize>,
    id: impl Fn(&T) -> RecordId + Copy,
) -> Vec<T> {
    bounds.dedup(); // drops empty runs
    if bounds.len() <= 2 {
        return items;
    }
    let mut merged = Vec::with_capacity(items.len());
    while bounds.len() > 2 {
        merged.clear();
        let mut next = vec![0];
        for w in bounds.windows(3).step_by(2) {
            merge_two(&items[w[0]..w[1]], &items[w[1]..w[2]], id, &mut merged);
            next.push(merged.len());
        }
        if bounds.len() % 2 == 0 {
            // An odd run count: the last run has no partner this pass.
            let last = bounds[bounds.len() - 2];
            merged.extend_from_slice(&items[last..]);
            next.push(merged.len());
        }
        std::mem::swap(&mut items, &mut merged);
        bounds = next;
    }
    items
}

/// Appends the merge of two slices ascending by `id` to `out`.
fn merge_two<T: Copy>(mut a: &[T], mut b: &[T], id: impl Fn(&T) -> RecordId, out: &mut Vec<T>) {
    while let (Some(x), Some(y)) = (a.first(), b.first()) {
        if id(x) <= id(y) {
            out.push(*x);
            a = &a[1..];
        } else {
            out.push(*y);
            b = &b[1..];
        }
    }
    out.extend_from_slice(a);
    out.extend_from_slice(b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use segidx_core::{IndexConfig, Tree};
    use segidx_storage::{DiskManagerConfig, ScriptedFault};
    use std::path::PathBuf;

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "segidx-lsm-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn rows(entries: Vec<(Rect<2>, RecordId)>) -> Vec<Row<2>> {
        entries
            .into_iter()
            .map(|(rect, id)| Row::new(id, rect, ()))
            .collect()
    }

    fn cfg(seal_threshold: usize) -> TieredConfig {
        TieredConfig {
            seal_threshold,
            level_fanout: 2,
            ..TieredConfig::default()
        }
    }

    /// A monotone-end-time interval stream, the paper's historical regime.
    fn stream(n: u64) -> impl Iterator<Item = (Rect<2>, RecordId)> {
        (0..n).map(|i| {
            let start = i as f64;
            let len = 1.0 + (i % 37) as f64;
            let value = (i % 100) as f64;
            (Rect::new([start, value], [start + len, value]), RecordId(i))
        })
    }

    #[test]
    fn search_is_bit_identical_to_flat_tree() {
        let mut tiered = TieredTemporalIndex::<2>::new(cfg(32));
        let mut flat: Tree<2> = Tree::new(IndexConfig::srtree());
        for (rect, record) in stream(1_000) {
            tiered.insert(rect, record).unwrap();
            flat.insert(rect, record);
        }
        tiered.assert_invariants();
        assert!(tiered.tier_count() > 1, "stream crossed several seals");
        for (lo, hi) in [(0.0, 10.0), (100.0, 400.0), (0.0, 2_000.0), (990.0, 995.5)] {
            let q = Rect::new([lo, 0.0], [hi, 100.0]);
            assert_eq!(tiered.search(&q), flat.search(&q), "query [{lo}, {hi}]");
        }
    }

    #[test]
    fn updates_and_deletes_shadow_sealed_copies() {
        let mut tiered = TieredTemporalIndex::<2>::new(cfg(16));
        let mut flat: Tree<2> = Tree::new(IndexConfig::srtree());
        for (rect, record) in stream(200) {
            tiered.insert(rect, record).unwrap();
            flat.insert(rect, record);
        }
        // Update half the records (delete + reinsert with a new rect),
        // delete a quarter outright; all old copies are sealed by now.
        for i in (0..200u64).step_by(2) {
            let start = i as f64;
            let len = 1.0 + (i % 37) as f64;
            let value = (i % 100) as f64;
            let old = Rect::new([start, value], [start + len, value]);
            assert!(tiered.delete(&old, RecordId(i)).unwrap());
            assert!(flat.delete(&old, RecordId(i)));
            if i % 4 == 0 {
                let moved = Rect::new([start, value + 500.0], [start + len, value + 500.0]);
                tiered.insert(moved, RecordId(i)).unwrap();
                flat.insert(moved, RecordId(i));
            }
        }
        tiered.assert_invariants();
        assert_eq!(tiered.len(), flat.len());
        for (lo, hi, vlo, vhi) in [
            (0.0, 300.0, 0.0, 100.0),
            (0.0, 300.0, 450.0, 700.0),
            (50.0, 90.0, 0.0, 1_000.0),
        ] {
            let q = Rect::new([lo, vlo], [hi, vhi]);
            assert_eq!(tiered.search(&q), flat.search(&q));
        }
        // Double delete reports not-live (record 2 was deleted and never
        // re-inserted).
        let gone = Rect::new([2.0, 2.0], [2.0 + 1.0 + 2.0 % 37.0, 2.0]);
        assert!(!tiered.delete(&gone, RecordId(2)).unwrap());
    }

    #[test]
    fn pins_share_the_tombstone_map_until_a_delete() {
        // Regression: every pin used to deep-clone the map — O(tombstones)
        // per read, under the caller's lock, once anything had expired.
        let mut config = cfg(16);
        config.tombstone_limit = 1 << 20;
        let mut tiered = TieredTemporalIndex::<2>::new(config);
        let items: Vec<_> = stream(96).collect();
        for &(rect, record) in &items {
            tiered.insert(rect, record).unwrap();
        }
        for &(rect, record) in items.iter().take(40) {
            assert!(tiered.delete(&rect, record).unwrap());
        }
        assert_eq!(tiered.tombstone_count(), 40);
        let all = Rect::new([0.0, 0.0], [1_000.0, 1_000.0]);
        let (a, b) = (tiered.pin(&all), tiered.pin(&all));
        assert!(Arc::ptr_eq(&a.tombstones, &b.tombstones));

        // A delete writes its own copy; the pins keep the map they took.
        let (rect, record) = items[40];
        assert!(tiered.delete(&rect, record).unwrap());
        let c = tiered.pin(&all);
        assert!(!Arc::ptr_eq(&a.tombstones, &c.tombstones));
        assert_eq!((a.tombstones.len(), c.tombstones.len()), (40, 41));
        assert_eq!(a.finish(|_| true).len(), 56, "as of its pin");
        assert_eq!(b.finish(|_| true).len(), 56);
        assert_eq!(c.finish(|_| true).len(), 55);
        assert_eq!(tiered.search(&all).len(), 55);

        // A seal with nothing to prune leaves the shared map alone.
        let d = tiered.pin(&all);
        tiered
            .insert(Rect::new([500.0, 0.0], [501.0, 0.0]), RecordId(500))
            .unwrap();
        tiered.seal().unwrap();
        assert!(Arc::ptr_eq(&d.tombstones, &tiered.pin(&all).tombstones));
    }

    #[test]
    fn a_pin_takes_only_what_its_query_can_hit() {
        // fanout 64: no merges, so eight tiers of 32, each its own band
        // of start times (with tails: lengths go up to 37).
        let mut config = cfg(32);
        config.level_fanout = 64;
        let mut tiered = TieredTemporalIndex::<2>::new(config);
        let telemetry = Arc::new(TieredTelemetry::new());
        tiered.set_telemetry(Some(telemetry.clone()));
        for (rect, record) in stream(256 + 10) {
            tiered.insert(rect, record).unwrap();
        }
        assert_eq!((tiered.tier_count(), tiered.memtable_len()), (8, 10));
        let early = Rect::new([3.0, 0.0], [3.5, 100.0]);
        let pinned = tiered.pin(&early);
        assert_eq!(pinned.tiers.len(), 1, "only the first tier reaches t = 3");
        let ids: Vec<_> = pinned.finish(|_| true).iter().map(|r| r.id).collect();
        assert_eq!(ids, tiered.search(&early));
        let late = Rect::new([260.0, 0.0], [261.0, 100.0]);
        let pinned = tiered.pin(&late);
        assert!(pinned.tiers.len() <= 1, "at most the last tier's tail");
        assert!(!pinned.hits.is_empty(), "the memtable is scanned");
        let nowhere = Rect::new([0.0, 500.0], [1_000.0, 600.0]);
        let pinned = tiered.pin(&nowhere);
        assert!(pinned.tiers.is_empty() && pinned.hits.is_empty());
        assert!(pinned.finish(|_| true).is_empty());
        // Three pins and the search `early` was compared with: both
        // `early` ones took a tier, `late` at most one, `nowhere` none.
        assert_eq!(telemetry.pins_total.load(Ordering::Relaxed), 4);
        let pinned = telemetry.tiers_pinned_total.load(Ordering::Relaxed);
        assert!((2..=3).contains(&pinned), "{pinned} tiers pinned of 4 x 8");
    }

    /// Closed versions of 256 keys updated at exponential gaps (the shape
    /// of `serve-temporal`'s `RECORD` stream), in the order they close:
    /// end times ascend, lifetimes are exponential around 256 gaps.
    fn closing_versions(n: usize) -> Vec<(Rect<2>, RecordId)> {
        let mut state = 1u64;
        let mut next = move || {
            // splitmix64, inline so the stream cannot drift with a shim.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut open: HashMap<u64, (f64, f64)> = HashMap::new();
        let mut out = Vec::with_capacity(n);
        let mut t = 0.0;
        while out.len() < n {
            let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
            t += (-10.0 * (1.0 - unit).ln()).max(1e-3);
            let key = next() % 256;
            let value = (next() % 100_000) as f64;
            if let Some((from, v)) = open.insert(key, (t, value)) {
                let id = RecordId(out.len() as u64);
                out.push((Rect::new([from, v], [t, v]), id));
            }
        }
        out
    }

    /// Mean HINT partitions an `AS OF` touches in `tier`, over 512 times
    /// evenly spread across `[0, horizon]`.
    fn partitions_per_as_of(tier: &Tier<2>, horizon: f64) -> f64 {
        let probes = 512;
        let total: u64 = (0..probes)
            .map(|i| {
                let t = horizon * (i as f64 + 0.5) / probes as f64;
                tier.hint().count_accesses(t, t)
            })
            .sum();
        total as f64 / probes as f64
    }

    #[test]
    fn as_of_cost_on_a_tier_does_not_grow_with_the_tier() {
        // Default config: once merges are flushed, 32 768 entries are one
        // level-1 tier, 131 072 one level-2 tier. Partitions touched are
        // exact counts, so the bound cannot flake. A stab touches at most
        // one partition per level, and a tier four times larger has two
        // levels more; the count must not grow faster than that.
        let versions = closing_versions(131_072);
        let horizon = |entries: usize| versions[entries - 1].0.hi(0);
        let mut tiered = TieredTemporalIndex::<2>::new(TieredConfig::default());
        let mut small = 0.0;
        for (i, (rect, record)) in versions.iter().enumerate() {
            tiered.insert(*rect, *record).unwrap();
            if i + 1 == 32_768 {
                tiered.flush_merges().unwrap();
                assert_eq!(tiered.tier_profile(), [(3, 1, 32_768)]);
                small = partitions_per_as_of(tiered.tiers().next().unwrap(), horizon(32_768));
            }
        }
        tiered.flush_merges().unwrap();
        tiered.assert_invariants();
        assert_eq!(tiered.tier_profile(), [(15, 2, 131_072)]);
        let tier = tiered.tiers().next().unwrap();
        let large = partitions_per_as_of(tier, horizon(131_072));
        assert!(
            large <= 1.5 * small,
            "{large} partitions per AS OF at 128 k entries, {small} at 32 k"
        );
    }

    #[test]
    fn one_open_ended_entry_leaves_the_cells_alone() {
        // The shape segbench's replica seals: a version still open at the
        // seal is indexed to `f64::MAX / 2`. The cells span the start
        // times, so that end clamps into the last cell; spanning the ends
        // would put every other entry into the first.
        let versions = closing_versions(32_768);
        let horizon = versions.last().unwrap().0.hi(0);
        let closed = Tier::new(rows(versions.clone()), 0, 0);
        let mut with_open = versions.clone();
        let from = versions[versions.len() / 2].0.lo(0);
        let open = Rect::new([from, 1.0], [f64::MAX / 2.0, 1.0]);
        with_open.push((open, RecordId(versions.len() as u64)));
        let open_tier = Tier::new(rows(with_open), 0, 0);
        assert_eq!(open_tier.hint().bits(), closed.hint().bits());
        assert_eq!(open_tier.hint().domain(), closed.hint().domain());
        let (base, raised) = (
            partitions_per_as_of(&closed, horizon),
            partitions_per_as_of(&open_tier, horizon),
        );
        assert!(
            raised <= 1.2 * base,
            "{raised} partitions per AS OF with one open-ended entry, {base} without"
        );
        let q = Rect::new([horizon, 0.0], [horizon, 2.0]);
        assert!(open_tier
            .search(&q)
            .contains(&RecordId(versions.len() as u64)));
    }

    #[test]
    fn leveled_policy_bounds_tier_count() {
        let mut tiered = TieredTemporalIndex::<2>::new(cfg(8));
        for (rect, record) in stream(512) {
            tiered.insert(rect, record).unwrap();
        }
        tiered.assert_invariants();
        // 64 seals at fanout 2 collapse logarithmically.
        assert!(
            tiered.tier_count() <= 8,
            "tiers: {:?}",
            tiered.tier_profile()
        );
        let max_level = tiered.tier_profile().iter().map(|&(_, l, _)| l).max();
        assert!(max_level >= Some(3), "merges climbed levels");
    }

    #[test]
    fn tombstone_pressure_triggers_full_compaction() {
        let mut config = cfg(16);
        config.tombstone_limit = 24;
        let mut tiered = TieredTemporalIndex::<2>::new(config);
        let items: Vec<_> = stream(160).collect();
        for &(rect, record) in &items {
            tiered.insert(rect, record).unwrap();
        }
        for &(rect, record) in items.iter().take(120) {
            tiered.delete(&rect, record).unwrap();
        }
        tiered.assert_invariants();
        assert!(
            tiered.tombstone_count() <= 24,
            "compaction collected tombstones: {}",
            tiered.tombstone_count()
        );
        assert_eq!(tiered.len(), 40);
        let q = Rect::new([0.0, 0.0], [1_000.0, 1_000.0]);
        assert_eq!(tiered.search(&q).len(), 40);
    }

    #[test]
    fn a_seal_hands_its_merge_to_the_worker() {
        // Fanout 4: the 4th seal hands the four level-0 tiers to the
        // worker and returns without waiting; the 5th splices the result.
        const N: usize = 64;
        let config = TieredConfig {
            seal_threshold: N,
            ..TieredConfig::default()
        };
        let items: Vec<_> = stream(5 * N as u64).collect();
        let level0: Vec<_> = (0..4).map(|seq| (seq, 0, N)).collect();
        let all = Rect::new([0.0, 0.0], [1_000.0, 100.0]);
        let mut flat: Tree<2> = Tree::new(IndexConfig::srtree());
        let four_seals = |path: &PathBuf| {
            let disk = Arc::new(DiskManager::create(path).unwrap());
            let mut tiered = TieredTemporalIndex::<2>::create(config.clone(), disk).unwrap();
            for &(rect, record) in &items[..4 * N] {
                tiered.insert(rect, record).unwrap();
            }
            tiered
        };

        let mut tiered = four_seals(&temp("handoff.db"));
        let telemetry = Arc::new(TieredTelemetry::new());
        tiered.set_telemetry(Some(telemetry.clone()));
        assert_eq!(tiered.tier_profile(), level0);
        assert_eq!(telemetry.merges_total.load(Ordering::Relaxed), 0);
        for &(rect, record) in &items {
            flat.insert(rect, record);
            if record.raw() >= 4 * N as u64 {
                tiered.insert(rect, record).unwrap();
            }
        }
        assert_eq!(tiered.tier_profile(), [(3, 1, 4 * N), (4, 0, N)]);
        assert_eq!(telemetry.merges_total.load(Ordering::Relaxed), 1);
        tiered.assert_invariants();
        assert_eq!(tiered.search(&all), flat.search(&all));

        // Dropped with the merge in flight, the index reopens on the tier
        // set the 4th seal committed: four unmerged tiers.
        let path = temp("handoff-drop.db");
        drop(four_seals(&path));
        let disk = Arc::new(DiskManager::open(&path).unwrap());
        let back = TieredTemporalIndex::<2>::open(config.clone(), disk).unwrap();
        back.assert_invariants();
        assert_eq!(back.tier_profile(), level0);
        for &(rect, record) in &items[4 * N..] {
            assert!(flat.delete(&rect, record));
        }
        assert_eq!(back.search(&all), flat.search(&all));
    }

    #[test]
    fn seal_commits_survive_reopen() {
        let path = temp("reopen.db");
        let expected_len;
        {
            let disk = Arc::new(DiskManager::create(&path).unwrap());
            let mut tiered = TieredTemporalIndex::<2>::create(cfg(32), disk).unwrap();
            for (rect, record) in stream(200) {
                tiered.insert(rect, record).unwrap();
            }
            // 6 seals committed; 8 entries still volatile in the memtable.
            expected_len = tiered.len() - tiered.memtable_len();
            assert_eq!(expected_len, 192);
        }
        let disk = Arc::new(DiskManager::open(&path).unwrap());
        let back = TieredTemporalIndex::<2>::open(cfg(32), disk).unwrap();
        back.assert_invariants();
        assert_eq!(back.len(), expected_len);
        let q = Rect::new([0.0, 0.0], [500.0, 100.0]);
        assert_eq!(back.search(&q).len(), expected_len);
    }

    #[test]
    fn tombstones_survive_checkpoint_and_reopen() {
        let path = temp("tombs.db");
        let items: Vec<_> = stream(64).collect();
        {
            let disk = Arc::new(DiskManager::create(&path).unwrap());
            let mut tiered = TieredTemporalIndex::<2>::create(cfg(16), disk).unwrap();
            for &(rect, record) in &items {
                tiered.insert(rect, record).unwrap();
            }
            for &(rect, record) in items.iter().take(10) {
                tiered.delete(&rect, record).unwrap();
            }
            // Deletes since the last seal are volatile until checkpointed.
            tiered.checkpoint().unwrap();
        }
        let disk = Arc::new(DiskManager::open(&path).unwrap());
        let back = TieredTemporalIndex::<2>::open(cfg(16), disk).unwrap();
        back.assert_invariants();
        assert_eq!(back.len(), 54);
        let q = Rect::new([0.0, 0.0], [500.0, 100.0]);
        assert_eq!(back.search(&q).len(), 54);
    }

    #[test]
    fn power_cut_during_seal_reopens_on_previous_tier_set() {
        // First run the workload cleanly to learn the write count, then
        // cut power a few writes into the final seal's commit.
        let path_a = temp("cut-a.db");
        let observe = Arc::new(ScriptedFault::observer());
        let committed;
        {
            let dcfg = DiskManagerConfig {
                fault_injector: Some(observe.clone() as Arc<_>),
            };
            let disk = Arc::new(DiskManager::create_with(&path_a, dcfg).unwrap());
            let mut tiered = TieredTemporalIndex::<2>::create(cfg(32), disk).unwrap();
            for (rect, record) in stream(96) {
                tiered.insert(rect, record).unwrap();
            }
            committed = observe.writes_seen();
        }
        let path_b = temp("cut-b.db");
        let expected_sealed;
        {
            let cut = Arc::new(ScriptedFault::power_cut(committed + 2, Some(64)));
            let dcfg = DiskManagerConfig {
                fault_injector: Some(cut as Arc<_>),
            };
            let disk = Arc::new(DiskManager::create_with(&path_b, dcfg).unwrap());
            let mut tiered = TieredTemporalIndex::<2>::create(cfg(32), disk).unwrap();
            let mut failed = false;
            for (rect, record) in stream(200) {
                if tiered.insert(rect, record).is_err() {
                    failed = true;
                    break;
                }
            }
            assert!(failed, "power cut fired mid-seal");
            expected_sealed = 96; // the three seals the cut run completed
        }
        let (disk, report) =
            DiskManager::open_repair(&path_b, DiskManagerConfig::default(), None).unwrap();
        assert!(report.is_clean(), "a pure power cut corrupts nothing");
        let back = TieredTemporalIndex::<2>::open(cfg(32), Arc::new(disk)).unwrap();
        back.assert_invariants();
        assert_eq!(back.len(), expected_sealed, "last committed tier set");
        let q = Rect::new([0.0, 0.0], [500.0, 100.0]);
        assert_eq!(back.search(&q).len(), expected_sealed);
    }

    #[test]
    fn telemetry_tracks_the_lifecycle() {
        let mut tiered = TieredTemporalIndex::<2>::new(cfg(16));
        let telemetry = Arc::new(TieredTelemetry::new());
        tiered.set_telemetry(Some(telemetry.clone()));
        for (rect, record) in stream(160) {
            tiered.insert(rect, record).unwrap();
        }
        assert_eq!(telemetry.seals_total.load(Ordering::Relaxed), 10);
        assert_eq!(telemetry.sealed_entries_total.load(Ordering::Relaxed), 160);
        assert!(telemetry.merges_total.load(Ordering::Relaxed) >= 4);
        assert_eq!(
            telemetry.tier_count.load(Ordering::Relaxed),
            tiered.tier_count() as u64
        );
        assert!(!telemetry.seal_latency.is_empty());
        assert!(!telemetry.merge_latency.is_empty());
    }
}
