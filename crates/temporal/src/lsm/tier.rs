//! Sealed tiers and the on-disk manifest.
//!
//! A [`Tier`] is an immutable packed tree plus the bookkeeping the tiered
//! index needs for precedence checks: its sequence number (a tombstone or,
//! in a merge, a tier with a newer sequence shadows older copies of the same
//! record) and a sorted id table for the O(log n) membership tests that
//! deletes, merges and tombstone pruning make (searches make none). The
//! [`Manifest`] is the single page the disk manager's committed-root
//! pointer names; committing it is the atomic boundary of every seal and
//! merge.

use segidx_core::{persist, RecordId, Tree};
use segidx_geom::Rect;
use segidx_storage::{
    ByteReader, ByteWriter, DiskManager, PageId, Result, SizeClass, StorageError,
};
use std::collections::HashMap;
use std::sync::Arc;

const MANIFEST_MAGIC: u32 = 0x5347_544D; // "SGTM"
const MANIFEST_VERSION: u32 = 1;

/// One immutable sealed tier.
#[derive(Clone)]
pub struct Tier<const D: usize> {
    /// The packed tree holding this tier's entries. Shared so pinned
    /// searches and the merge worker read it without copying.
    pub tree: Arc<Tree<D>>,
    /// Record ids present in this tier, sorted ascending. Built once at
    /// seal/merge/load; used by deletes, merges and tombstone pruning.
    pub ids: Arc<Vec<RecordId>>,
    /// Monotone sequence: a record copy in a higher-sequence tier (or the
    /// memtable) shadows copies in lower-sequence tiers.
    pub seq: u64,
    /// Leveled-compaction level: seals enter at 0, each merge of a run
    /// produces a tier one level up.
    pub level: u32,
    /// Metadata page of the persisted tree, once written. `None` until the
    /// tier's first manifest commit (and always `None` in-memory).
    pub meta: Option<PageId>,
    /// Bounding box of everything in the tree (`None` for an empty one):
    /// a query that misses it has no hit here, so the tier is neither
    /// pinned nor searched. Derived from the tree at [`Tier::new`], which
    /// loading goes through too — the manifest does not know it exists.
    fence: Option<Rect<D>>,
}

impl<const D: usize> Tier<D> {
    /// Wraps a freshly packed (or loaded) tree into a tier, deriving its id
    /// table and its fence.
    pub fn new(tree: Tree<D>, seq: u64, level: u32) -> Self {
        // One pass for both. The fence is folded from the entries, not
        // read off `Tree::root_region`: that box leaves out spanning
        // records held in the root, which nothing keeps inside it.
        let mut fence: Option<Rect<D>> = None;
        let mut ids = Vec::with_capacity(tree.entry_count());
        for (rect, record) in tree.iter_entries() {
            fence = Some(fence.map_or(rect, |f| f.union(&rect)));
            ids.push(record);
        }
        ids.sort_unstable();
        ids.dedup();
        Self {
            fence,
            tree: Arc::new(tree),
            ids: Arc::new(ids),
            seq,
            level,
            meta: None,
        }
    }

    /// Whether `query` can have a hit in this tier.
    pub fn may_intersect(&self, query: &Rect<D>) -> bool {
        self.fence.is_some_and(|f| f.intersects(query))
    }

    /// Whether this tier holds a copy of `record`.
    pub fn contains(&self, record: RecordId) -> bool {
        self.ids.binary_search(&record).is_ok()
    }

    /// Entries stored in this tier (including copies shadowed by newer
    /// tiers).
    pub fn entry_count(&self) -> usize {
        self.tree.entry_count()
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

/// Loads every tier named by `manifest` back into memory.
pub fn load_tiers<const D: usize>(disk: &DiskManager, manifest: &Manifest) -> Result<Vec<Tier<D>>> {
    let mut tiers = Vec::with_capacity(manifest.tiers.len());
    for &(meta, seq, level) in &manifest.tiers {
        let tree: Tree<D> = persist::load(disk, meta)?;
        let mut tier = Tier::new(tree, seq, level);
        tier.meta = Some(meta);
        tiers.push(tier);
    }
    Ok(tiers)
}

/// Gathers every entry of `tree` (leaf entries and spanning records alike).
pub fn gather<const D: usize>(tree: &Tree<D>) -> Vec<(Rect<D>, RecordId)> {
    tree.iter_entries().collect()
}
