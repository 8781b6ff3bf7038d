//! Sealed tiers and the on-disk manifest.
//!
//! A [`Tier`] is an immutable run of rows — id, rectangle and payload side
//! by side — sorted by record id, plus a frozen HINT ([`FrozenHint`]) over
//! their dimension-0 intervals, whose handles are the rows' positions in
//! the run — so handles sorted are ids sorted. Beside that it keeps the
//! bookkeeping the tiered index needs for precedence checks: its sequence
//! number (a tombstone or, in a merge, a tier with a newer sequence shadows
//! older copies of the same record) and its fence. The sorted rows serve
//! the O(log n) membership tests that deletes and tombstone pruning make,
//! and merges walk them in order.
//!
//! On disk a tier is a packed tree: the page format the storage layer
//! already commits atomically. [`Tier::pack`] writes it from the run, and
//! [`load_tiers`] reads it back into a run. The tree holds ids and
//! rectangles only, so a durable tier carries the `()` payload. The
//! [`Manifest`] is the single page the disk manager's committed-root
//! pointer names; committing it is the atomic boundary of every seal and
//! merge.

use super::{Payload, Row};
use segidx_core::hint::FrozenHint;
use segidx_core::{bulk, finish_ids, persist, IndexConfig, RecordId, Tree};
use segidx_geom::Rect;
use segidx_storage::{
    ByteReader, ByteWriter, DiskManager, PageId, Result, SizeClass, StorageError,
};
use std::collections::HashMap;
use std::sync::Arc;

const MANIFEST_MAGIC: u32 = 0x5347_544D; // "SGTM"
const MANIFEST_VERSION: u32 = 1;

/// A tier's rows, ascending by record id, and the HINT over their
/// dimension-0 intervals, whose handle `i` is row `i`.
struct Run<const D: usize, P> {
    rows: Vec<Row<D, P>>,
    hint: FrozenHint,
}

/// Per-thread buffers for [`Tier::search_into`]: the HINT's handles, its
/// scan kernels' scratch and the radix sort's second buffer, cleared by
/// each search but never freed, so a steady-state search allocates only
/// what it returns.
#[derive(Default)]
struct Scratch {
    handles: Vec<u32>,
    kernel: Vec<u32>,
    spare: Vec<u32>,
}

fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    thread_local! {
        static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::default();
    }
    SCRATCH.with(|c| f(&mut c.borrow_mut()))
}

/// One immutable sealed tier.
#[derive(Clone)]
pub struct Tier<const D: usize, P = ()> {
    /// Shared so pinned searches and the merge worker read it without
    /// copying.
    run: Arc<Run<D, P>>,
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

impl<const D: usize, P: Payload> Tier<D, P> {
    /// A tier of `rows`, in any order.
    pub(crate) fn new(mut rows: Vec<Row<D, P>>, seq: u64, level: u32) -> Self {
        rows.sort_unstable_by_key(|r| r.id);
        Self::from_sorted(rows, seq, level)
    }

    /// A tier of `rows`, ascending by id.
    pub(crate) fn from_sorted(rows: Vec<Row<D, P>>, seq: u64, level: u32) -> Self {
        let fence = rows.iter().map(|r| r.rect).reduce(|a, b| a.union(&b));
        let hint =
            FrozenHint::over_starts(rows.len(), |i| (rows[i].rect.lo(0), rows[i].rect.hi(0)));
        Self {
            run: Arc::new(Run { rows, hint }),
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

    /// The row holding a copy of `record`, if this tier has one.
    pub(crate) fn get(&self, record: RecordId) -> Option<&Row<D, P>> {
        let rows = &self.run.rows;
        rows.binary_search_by_key(&record, |r| r.id)
            .ok()
            .map(|i| &rows[i])
    }

    /// Whether this tier holds a copy of `record`.
    pub(crate) fn contains(&self, record: RecordId) -> bool {
        self.get(record).is_some()
    }

    /// Entries stored in this tier (including copies shadowed by newer
    /// tiers).
    pub fn entry_count(&self) -> usize {
        self.run.rows.len()
    }

    /// Every row, ascending by record id.
    pub fn rows(&self) -> &[Row<D, P>] {
        &self.run.rows
    }

    /// Every entry's rectangle and id, ascending by record id.
    pub fn entries(&self) -> impl Iterator<Item = (Rect<D>, RecordId)> + '_ {
        self.run.rows.iter().map(|r| (r.rect, r.id))
    }

    /// The HINT over the entries' dimension-0 intervals (diagnostics: what
    /// a time query costs is [`FrozenHint::count_accesses`]).
    pub fn hint(&self) -> &FrozenHint {
        &self.run.hint
    }

    /// Heap bytes the tier holds in memory: rows plus HINT.
    pub fn resident_bytes(&self) -> usize {
        let run = &self.run;
        run.rows.capacity() * std::mem::size_of::<Row<D, P>>() + run.hint.heap_bytes()
    }

    /// The page-format tree of this tier's entries, a packed SR-Tree (what
    /// a checkpoint persists; payloads stay behind). Nothing searches it:
    /// [`load_tiers`] reads its entries back and re-sorts them by id.
    pub(crate) fn pack(&self) -> Tree<D> {
        bulk::bulk_load(IndexConfig::srtree(), self.entries().collect())
    }

    /// Record ids of every entry intersecting `query`, ascending.
    pub fn search(&self, query: &Rect<D>) -> Vec<RecordId> {
        let mut out = Vec::new();
        self.search_into(query, &HashMap::new(), &|_| true, &|r| r.id, &mut out);
        out
    }

    /// Appends to `out`, ascending by id, `take` of every row intersecting
    /// `query` that `keep` accepts and no tombstone newer than this tier
    /// shadows. The HINT answers dimension 0; the other dimensions are
    /// tested only when the query does not cover the fence there (an `AS
    /// OF` or `WITHIN` spans every value, a `range` need not). Rows are
    /// tested before the handles are sorted, so only what is kept is
    /// sorted and gathered.
    pub(crate) fn search_into<T>(
        &self,
        query: &Rect<D>,
        tombstones: &HashMap<RecordId, u64>,
        keep: &impl Fn(&Row<D, P>) -> bool,
        take: &impl Fn(&Row<D, P>) -> T,
        out: &mut Vec<T>,
    ) {
        let Some(fence) = self.fence else { return };
        let rows = &self.run.rows[..];
        let covered = (1..D).all(|d| query.lo(d) <= fence.lo(d) && fence.hi(d) <= query.hi(d));
        let live = |r: &Row<D, P>| !tombstones.get(&r.id).is_some_and(|&ts| ts > self.seq);
        with_scratch(|s| {
            s.handles.clear();
            let (lo, hi) = (query.lo(0), query.hi(0));
            self.run.hint.query(lo, hi, &mut s.handles, &mut s.kernel);
            s.handles.retain(|&h| {
                let row = &rows[h as usize];
                (covered || row.rect.intersects(query))
                    && keep(row)
                    && (tombstones.is_empty() || live(row))
            });
            finish_ids(&mut s.handles, &mut s.spare, false);
            out.extend(s.handles.iter().map(|&h| take(&rows[h as usize])));
        });
    }
}

impl<const D: usize, P> std::fmt::Debug for Tier<D, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tier")
            .field("seq", &self.seq)
            .field("level", &self.level)
            .field("entries", &self.run.rows.len())
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
pub fn write_manifest<const D: usize, P>(
    disk: &DiskManager,
    tiers: &[Tier<D, P>],
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
        let rows = tree.iter_entries().map(|(rect, id)| Row::new(id, rect, ()));
        let mut tier = Tier::new(rows.collect(), seq, level);
        tier.meta = Some(meta);
        tiers.push(tier);
    }
    Ok(tiers)
}
