//! Sealed tiers and the on-disk manifest.
//!
//! A [`Tier`] is an immutable run of entries sorted by record id plus a
//! frozen HINT ([`FrozenHint`]) over their dimension-0 intervals, whose
//! handles are the entries' positions in the run — so handles sorted are
//! ids sorted. Beside that it keeps the bookkeeping the tiered index needs
//! for precedence checks: its sequence number (a tombstone or, in a merge,
//! a tier with a newer sequence shadows older copies of the same record)
//! and its fence. The sorted ids serve the O(log n) membership tests that
//! deletes and tombstone pruning make, and merges walk them in order.
//!
//! On disk a tier is a packed tree: the page format the storage layer
//! already commits atomically. [`Tier::pack`] writes it from the run, and
//! [`load_tiers`] reads it back into a run. The [`Manifest`] is the single
//! page the disk manager's committed-root pointer names; committing it is
//! the atomic boundary of every seal and merge.

use segidx_core::hint::FrozenHint;
use segidx_core::{bulk, persist, IndexConfig, RecordId, Tree};
use segidx_geom::Rect;
use segidx_storage::{
    ByteReader, ByteWriter, DiskManager, PageId, Result, SizeClass, StorageError,
};
use std::collections::HashMap;
use std::sync::Arc;

const MANIFEST_MAGIC: u32 = 0x5347_544D; // "SGTM"
const MANIFEST_VERSION: u32 = 1;

/// A tier's entries, ascending by record id, and the HINT over their
/// dimension-0 intervals, whose handle `i` is entry `i`.
struct Run<const D: usize> {
    ids: Vec<RecordId>,
    rects: Vec<Rect<D>>,
    hint: FrozenHint,
}

/// Per-thread buffers for [`Tier::search_into`]: the HINT's handles and
/// its scan kernels' scratch, cleared by each search but never freed, so a
/// steady-state search allocates only what it returns.
#[derive(Default)]
struct Scratch {
    handles: Vec<u32>,
    kernel: Vec<u32>,
}

fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    thread_local! {
        static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::default();
    }
    SCRATCH.with(|c| f(&mut c.borrow_mut()))
}

/// One immutable sealed tier.
#[derive(Clone)]
pub struct Tier<const D: usize> {
    /// Shared so pinned searches and the merge worker read it without
    /// copying.
    run: Arc<Run<D>>,
    /// Monotone sequence: a record copy in a higher-sequence tier (or the
    /// memtable) shadows copies in lower-sequence tiers.
    pub seq: u64,
    /// Leveled-compaction level: seals enter at 0, each merge of a run
    /// produces a tier one level up.
    pub level: u32,
    /// Metadata page of the persisted tree, once written. `None` until the
    /// tier's first manifest commit (and always `None` in-memory).
    pub(crate) meta: Option<PageId>,
    /// Bounding box of every entry (`None` for an empty tier): a query
    /// that misses it has no hit here, so the tier is neither pinned nor
    /// searched. Derived from the entries at construction, which loading
    /// goes through too — the manifest does not know it exists.
    fence: Option<Rect<D>>,
}

impl<const D: usize> Tier<D> {
    /// A tier of `entries`, in any order.
    pub(crate) fn new(mut entries: Vec<(Rect<D>, RecordId)>, seq: u64, level: u32) -> Self {
        entries.sort_unstable_by_key(|&(_, id)| id);
        let (rects, ids) = entries.into_iter().unzip();
        Self::from_sorted(ids, rects, seq, level)
    }

    /// A tier of the entries `(rects[i], ids[i])`, `ids` ascending.
    pub(crate) fn from_sorted(
        ids: Vec<RecordId>,
        rects: Vec<Rect<D>>,
        seq: u64,
        level: u32,
    ) -> Self {
        debug_assert_eq!(ids.len(), rects.len());
        let fence = rects.iter().copied().reduce(|a, b| a.union(&b));
        let hint = FrozenHint::over_starts(rects.len(), |i| (rects[i].lo(0), rects[i].hi(0)));
        Self {
            run: Arc::new(Run { ids, rects, hint }),
            seq,
            level,
            meta: None,
            fence,
        }
    }

    /// Whether `query` can have a hit in this tier.
    pub(crate) fn may_intersect(&self, query: &Rect<D>) -> bool {
        self.fence.is_some_and(|f| f.intersects(query))
    }

    /// Bounding box of every entry, `None` for an empty tier.
    pub fn fence(&self) -> Option<Rect<D>> {
        self.fence
    }

    /// Whether this tier holds a copy of `record`.
    pub(crate) fn contains(&self, record: RecordId) -> bool {
        self.run.ids.binary_search(&record).is_ok()
    }

    /// Entries stored in this tier (including copies shadowed by newer
    /// tiers).
    pub fn entry_count(&self) -> usize {
        self.run.ids.len()
    }

    /// Record ids of the entries, ascending.
    pub(crate) fn ids(&self) -> &[RecordId] {
        &self.run.ids
    }

    /// The rectangle of the entry at position `i` (the `i`-th smallest id).
    pub(crate) fn rect_at(&self, i: usize) -> Rect<D> {
        self.run.rects[i]
    }

    /// Every entry, ascending by record id.
    pub fn entries(&self) -> impl Iterator<Item = (Rect<D>, RecordId)> + '_ {
        self.run
            .rects
            .iter()
            .copied()
            .zip(self.run.ids.iter().copied())
    }

    /// The HINT over the entries' dimension-0 intervals (diagnostics: what
    /// a time query costs is [`FrozenHint::count_accesses`]).
    pub fn hint(&self) -> &FrozenHint {
        &self.run.hint
    }

    /// Heap bytes the tier holds in memory: columns plus HINT.
    pub fn resident_bytes(&self) -> usize {
        let run = &self.run;
        run.ids.capacity() * std::mem::size_of::<RecordId>()
            + run.rects.capacity() * std::mem::size_of::<Rect<D>>()
            + run.hint.heap_bytes()
    }

    /// The page-format tree of this tier's entries (what a checkpoint
    /// persists).
    pub(crate) fn pack(&self, config: IndexConfig) -> Tree<D> {
        bulk::bulk_load_run(config, self.entries().collect())
    }

    /// Record ids of every entry intersecting `query`, ascending.
    pub fn search(&self, query: &Rect<D>) -> Vec<RecordId> {
        let mut out = Vec::new();
        self.search_into(query, &HashMap::new(), &mut out);
        out
    }

    /// Appends to `out`, ascending, the ids of every entry intersecting
    /// `query` that no tombstone newer than this tier shadows. The HINT
    /// answers dimension 0; the other dimensions are tested only when the
    /// query does not cover the fence there (an `AS OF` or `WITHIN` spans
    /// every value, a `range` need not).
    pub(crate) fn search_into(
        &self,
        query: &Rect<D>,
        tombstones: &HashMap<RecordId, u64>,
        out: &mut Vec<RecordId>,
    ) {
        let Some(fence) = self.fence else { return };
        let run = &self.run;
        with_scratch(|Scratch { handles, kernel }| {
            handles.clear();
            run.hint.query(query.lo(0), query.hi(0), handles, kernel);
            let covered = (1..D).all(|d| query.lo(d) <= fence.lo(d) && fence.hi(d) <= query.hi(d));
            if !covered {
                handles.retain(|&h| run.rects[h as usize].intersects(query));
            }
            handles.sort_unstable();
            let ids = handles.iter().map(|&h| run.ids[h as usize]);
            if tombstones.is_empty() {
                out.extend(ids);
            } else {
                out.extend(ids.filter(|r| !tombstones.get(r).is_some_and(|&ts| ts > self.seq)));
            }
        });
    }
}

impl<const D: usize> std::fmt::Debug for Tier<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tier")
            .field("seq", &self.seq)
            .field("level", &self.level)
            .field("entries", &self.entry_count())
            .field("meta", &self.meta)
            .finish()
    }
}

/// The decoded manifest: everything needed to rebuild the sealed half of a
/// tiered index after a crash. Memtable contents are volatile by design —
/// a seal is the durability boundary.
#[derive(Debug)]
pub struct Manifest {
    /// `(tree meta page, seq, level)` per tier, in tier order (oldest
    /// first).
    pub tiers: Vec<(PageId, u64, u32)>,
    /// Record-level tombstones and the sequence they were created at.
    pub tombstones: Vec<(RecordId, u64)>,
    /// The next unused sequence number.
    pub next_seq: u64,
}

/// Encodes and writes a manifest page, returning its id. The caller still
/// owns root-pointer flip + sync.
pub fn write_manifest<const D: usize>(
    disk: &DiskManager,
    tiers: &[Tier<D>],
    tombstones: &HashMap<RecordId, u64>,
    next_seq: u64,
) -> Result<PageId> {
    let mut w = ByteWriter::with_capacity(64 + tiers.len() * 28 + tombstones.len() * 16);
    w.put_u32(MANIFEST_MAGIC);
    w.put_u32(MANIFEST_VERSION);
    w.put_u32(D as u32);
    w.put_u32(tiers.len() as u32);
    for t in tiers {
        let meta = t
            .meta
            .ok_or_else(|| StorageError::BadMeta("tier not yet persisted".into()))?;
        w.put_u64(meta.raw());
        w.put_u64(t.seq);
        w.put_u32(t.level);
    }
    w.put_u64(next_seq);
    // Sort tombstones so the manifest image is deterministic for a given
    // logical state (the crash sweep compares recovered state bit-for-bit).
    let mut tombs: Vec<(RecordId, u64)> = tombstones.iter().map(|(&r, &s)| (r, s)).collect();
    tombs.sort_unstable();
    w.put_u32(tombs.len() as u32);
    for (record, seq) in tombs {
        w.put_u64(record.raw());
        w.put_u64(seq);
    }
    let class = SizeClass::fitting(w.len())
        .ok_or_else(|| StorageError::BadMeta("manifest exceeds the largest page size".into()))?;
    let page_id = disk.allocate(class)?;
    let mut page = segidx_storage::Page::new(page_id, class);
    page.set_payload(w.as_bytes())?;
    disk.write_page(&page)?;
    Ok(page_id)
}

/// Reads a manifest page back.
pub fn read_manifest(disk: &DiskManager, page: PageId, dims: usize) -> Result<Manifest> {
    let page = disk.read_page(page)?;
    let mut r = ByteReader::new(page.payload());
    let magic = r.get_u32()?;
    if magic != MANIFEST_MAGIC {
        return Err(StorageError::BadMeta(format!(
            "bad manifest magic {magic:#x}"
        )));
    }
    let version = r.get_u32()?;
    if version != MANIFEST_VERSION {
        return Err(StorageError::BadMeta(format!(
            "unsupported manifest format {version}"
        )));
    }
    let d = r.get_u32()? as usize;
    if d != dims {
        return Err(StorageError::BadMeta(format!(
            "manifest has {d} dimensions, expected {dims}"
        )));
    }
    let tier_count = r.get_u32()? as usize;
    let mut tiers = Vec::with_capacity(tier_count);
    for _ in 0..tier_count {
        let meta = PageId(r.get_u64()?);
        let seq = r.get_u64()?;
        let level = r.get_u32()?;
        tiers.push((meta, seq, level));
    }
    let next_seq = r.get_u64()?;
    let tomb_count = r.get_u32()? as usize;
    let mut tombstones = Vec::with_capacity(tomb_count);
    for _ in 0..tomb_count {
        let record = RecordId(r.get_u64()?);
        let seq = r.get_u64()?;
        tombstones.push((record, seq));
    }
    Ok(Manifest {
        tiers,
        tombstones,
        next_seq,
    })
}

/// Loads every tier named by `manifest` back into memory: each persisted
/// tree is read, turned into a run and dropped.
pub fn load_tiers<const D: usize>(disk: &DiskManager, manifest: &Manifest) -> Result<Vec<Tier<D>>> {
    let mut tiers = Vec::with_capacity(manifest.tiers.len());
    for &(meta, seq, level) in &manifest.tiers {
        let tree: Tree<D> = persist::load(disk, meta)?;
        let mut tier = Tier::new(tree.iter_entries().collect(), seq, level);
        tier.meta = Some(meta);
        tiers.push(tier);
    }
    Ok(tiers)
}
