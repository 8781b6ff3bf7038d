//! The slotted page file.

use crate::checksum::xxh64;
use crate::error::{Result, StorageError};
use crate::fault::{injected_error, FaultInjector, SyncFault, SyncKind, WriteFault, WriteKind};
use crate::page::{Page, PageId, SizeClass, BASE_PAGE_SIZE, MAX_SIZE_CLASS};
use crate::stats::IoStats;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::convert::Infallible;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const META_MAGIC: u32 = 0x5347_4d45; // "SGME"
const META_VERSION: u32 = 2;
/// Seed for the metadata checksum, distinct from the page-checksum seed so a
/// meta image can never validate as a page (or vice versa).
const META_CHECKSUM_SEED: u64 = 0x5347_4d45_5347_4d45;
/// Sentinel for "no committed root pointer".
const NO_ROOT: u64 = u64::MAX;

/// Configuration for [`DiskManager`].
#[derive(Debug, Clone, Default)]
pub struct DiskManagerConfig {
    /// Optional deterministic fault injector consulted before every write
    /// and durability barrier (see [`crate::ScriptedFault`]). `None` — the
    /// production default — performs all I/O unconditionally.
    pub fault_injector: Option<Arc<dyn FaultInjector>>,
}

#[derive(Debug, Clone, Copy)]
struct PageLoc {
    slot: u64,
    size_class: SizeClass,
}

#[derive(Debug)]
struct DiskInner {
    file: File,
    directory: HashMap<PageId, PageLoc>,
    free_lists: Vec<Vec<u64>>,
    /// Extents freed since the last durable meta commit. They join the
    /// recyclable `free_lists` only once a meta epoch that no longer maps
    /// them has been committed: recycling earlier would let a torn write
    /// land inside a page the *previous* (still-recoverable) epoch
    /// considers live.
    pending_free: Vec<(u64, SizeClass)>,
    next_slot: u64,
    next_page_id: u64,
    /// Monotonic commit counter, bumped by every durable meta commit.
    epoch: u64,
    /// Application root pointer committed atomically with the directory.
    root: Option<PageId>,
    dirty_meta: bool,
}

/// What [`commit_meta`] achieved.
enum CommitOutcome {
    /// The rename happened: the new epoch is durable.
    Committed,
    /// The injector dropped the commit barrier; the metadata stays dirty
    /// and the commit is retried on the next sync.
    Deferred,
}

/// Outcome of [`DiskManager::open_repair`]: which pages failed validation
/// and were quarantined (dropped from the page directory, extents left
/// unrecycled).
#[derive(Debug, Clone, Default)]
pub struct RepairReport {
    /// Pages that failed validation, with the reason, in id order.
    pub quarantined: Vec<(PageId, String)>,
    /// Pages scanned.
    pub pages_checked: usize,
    /// The metadata epoch the file was opened at.
    pub epoch: u64,
}

impl RepairReport {
    /// Whether every page validated.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// A page file supporting **variable page sizes**.
///
/// Space is managed in base-size (1 KB) slots; a page of [`SizeClass`] `c`
/// occupies `2^c` contiguous slots, so the paper's "node size doubles at each
/// level" layout (§2.1.2) maps directly onto the file. Freed extents are
/// recycled through per-class free lists — but only after the free has been
/// part of a durable meta commit, so no write can ever land inside an extent
/// that the last committed directory still maps to a live page.
///
/// Metadata (the page directory, free lists, allocation cursor, a monotonic
/// commit **epoch**, and an application **root pointer**) is persisted to a
/// sidecar `<path>.meta` file, written atomically (checksummed temp file +
/// rename) on [`DiskManager::sync`]: a crash at any byte boundary leaves
/// either the old epoch or the new one on disk, never a torn mixture.
#[derive(Debug)]
pub struct DiskManager {
    path: PathBuf,
    config: DiskManagerConfig,
    inner: Mutex<DiskInner>,
    stats: Arc<IoStats>,
}

impl DiskManager {
    /// Creates a new, empty page file at `path`, truncating any existing one.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        Self::create_with(path, DiskManagerConfig::default())
    }

    /// Creates a new page file with explicit configuration.
    pub fn create_with(path: impl AsRef<Path>, config: DiskManagerConfig) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mgr = Self {
            path,
            config,
            inner: Mutex::new(DiskInner {
                file,
                directory: HashMap::new(),
                free_lists: vec![Vec::new(); usize::from(MAX_SIZE_CLASS) + 1],
                pending_free: Vec::new(),
                next_slot: 0,
                next_page_id: 0,
                epoch: 0,
                root: None,
                dirty_meta: true,
            }),
            stats: Arc::new(IoStats::new()),
        };
        mgr.sync()?;
        Ok(mgr)
    }

    /// Opens an existing page file and its metadata.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_with(path, DiskManagerConfig::default())
    }

    /// Opens an existing page file with explicit configuration.
    pub fn open_with(path: impl AsRef<Path>, config: DiskManagerConfig) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let meta = read_meta(&meta_path(&path))?;
        Ok(Self {
            path,
            config,
            inner: Mutex::new(DiskInner {
                file,
                directory: meta.directory,
                free_lists: meta.free_lists,
                pending_free: Vec::new(),
                next_slot: meta.next_slot,
                next_page_id: meta.next_page_id,
                epoch: meta.epoch,
                root: meta.root,
                dirty_meta: false,
            }),
            stats: Arc::new(IoStats::new()),
        })
    }

    /// Opens an existing page file in **repair mode**: every live page is
    /// read and validated, and pages that fail (torn writes, bit rot,
    /// extents past a truncated end-of-file) are *quarantined* — removed
    /// from the page directory so no later read can return their bytes.
    /// Quarantined extents are deliberately never recycled: their contents
    /// are unknown.
    ///
    /// Each quarantined page is listed, with the reason, in the returned
    /// [`RepairReport`]; the third argument is always `None` and only keeps
    /// the call's shape for existing callers. The quarantine takes effect
    /// durably at the next [`DiskManager::sync`].
    pub fn open_repair(
        path: impl AsRef<Path>,
        config: DiskManagerConfig,
        _none: Option<Infallible>,
    ) -> Result<(Self, RepairReport)> {
        let mgr = Self::open_with(path, config)?;
        let mut report = RepairReport {
            epoch: mgr.epoch(),
            ..RepairReport::default()
        };
        for (id, _) in mgr.pages() {
            report.pages_checked += 1;
            if let Err(e) = mgr.read_page(id) {
                {
                    let mut inner = mgr.inner.lock();
                    inner.directory.remove(&id);
                    inner.dirty_meta = true;
                }
                report.quarantined.push((id, e.to_string()));
            }
        }
        Ok((mgr, report))
    }

    /// Shared physical I/O counters.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// The data-file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of live pages.
    pub fn page_count(&self) -> usize {
        self.inner.lock().directory.len()
    }

    /// The metadata commit epoch: 0 for a never-synced file, monotonically
    /// increasing across commits and reopens. Two opens observing the same
    /// epoch observe the same directory.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// The committed application root pointer, if any (see
    /// [`DiskManager::set_root`]).
    pub fn root(&self) -> Option<PageId> {
        self.inner.lock().root
    }

    /// Stages `root` as the application root pointer — typically the page
    /// holding an index's own metadata. It becomes durable atomically with
    /// the page directory at the next [`DiskManager::sync`], which is what
    /// makes "which tree was committed?" answerable after a crash.
    pub fn set_root(&self, root: Option<PageId>) {
        let mut inner = self.inner.lock();
        if inner.root != root {
            inner.root = root;
            inner.dirty_meta = true;
        }
    }

    /// All live page ids with their size classes, in id order.
    pub fn pages(&self) -> Vec<(PageId, SizeClass)> {
        let inner = self.inner.lock();
        let mut v: Vec<_> = inner
            .directory
            .iter()
            .map(|(&id, loc)| (id, loc.size_class))
            .collect();
        v.sort_by_key(|&(id, _)| id);
        v
    }

    /// The size class of a live page.
    pub fn size_class_of(&self, id: PageId) -> Result<SizeClass> {
        self.inner
            .lock()
            .directory
            .get(&id)
            .map(|loc| loc.size_class)
            .ok_or(StorageError::PageNotFound(id))
    }

    /// Allocates a new page of the given size class and returns its id.
    /// The page contents are undefined until the first write.
    pub fn allocate(&self, size_class: SizeClass) -> Result<PageId> {
        let mut inner = self.inner.lock();
        let slot = match inner.free_lists[usize::from(size_class.raw())].pop() {
            Some(slot) => slot,
            None => {
                let slot = inner.next_slot;
                inner.next_slot += size_class.slots();
                slot
            }
        };
        let id = PageId(inner.next_page_id);
        inner.next_page_id += 1;
        inner.directory.insert(id, PageLoc { slot, size_class });
        inner.dirty_meta = true;
        self.stats.record_alloc();
        Ok(id)
    }

    /// Frees a page. Its extent is recycled only after the free has been
    /// made durable by a meta commit (see [`DiskManager::sync`]).
    pub fn free(&self, id: PageId) -> Result<()> {
        let mut inner = self.inner.lock();
        let loc = inner
            .directory
            .remove(&id)
            .ok_or(StorageError::PageNotFound(id))?;
        inner.pending_free.push((loc.slot, loc.size_class));
        inner.dirty_meta = true;
        self.stats.record_free();
        Ok(())
    }

    /// Writes a page to its extent.
    ///
    /// The page must have been allocated by this manager and its size class
    /// must match the allocation.
    pub fn write_page(&self, page: &Page) -> Result<()> {
        let mut inner = self.inner.lock();
        let loc = *inner
            .directory
            .get(&page.id())
            .ok_or(StorageError::PageNotFound(page.id()))?;
        if loc.size_class != page.size_class() {
            return Err(StorageError::Corrupt {
                page: page.id(),
                reason: format!(
                    "write with size class {:?}, allocated as {:?}",
                    page.size_class(),
                    loc.size_class
                ),
            });
        }
        let bytes = page.to_disk_bytes();
        let sp = segidx_obs::trace::span("disk.write_page");
        write_extent(
            &mut inner.file,
            self.config.fault_injector.as_deref(),
            loc.slot * BASE_PAGE_SIZE as u64,
            &bytes,
        )?;
        self.stats.record_write(bytes.len());
        sp.items(bytes.len() as u64);
        segidx_obs::trace::add(segidx_obs::trace::Dim::PageWrites, 1);
        Ok(())
    }

    /// Reads and validates a page.
    pub fn read_page(&self, id: PageId) -> Result<Page> {
        let mut inner = self.inner.lock();
        let loc = *inner
            .directory
            .get(&id)
            .ok_or(StorageError::PageNotFound(id))?;
        let size = loc.size_class.page_size();
        let mut buf = vec![0u8; size];
        let sp = segidx_obs::trace::span("disk.read_page");
        inner
            .file
            .seek(SeekFrom::Start(loc.slot * BASE_PAGE_SIZE as u64))?;
        inner.file.read_exact(&mut buf)?;
        self.stats.record_read(size);
        sp.items(size as u64);
        segidx_obs::trace::add(segidx_obs::trace::Dim::PageReads, 1);
        Page::from_disk_bytes(id, loc.size_class, &buf)
    }

    /// Reads and validates every live page, returning the list of pages
    /// that failed (empty = file is clean). An `fsck`-style full scan:
    /// checks magic, size class, payload length, and checksum per page.
    pub fn verify_all(&self) -> Vec<(PageId, String)> {
        let mut bad = Vec::new();
        for (id, _) in self.pages() {
            if let Err(e) = self.read_page(id) {
                bad.push((id, e.to_string()));
            }
        }
        bad
    }

    /// Fsyncs the data file and persists metadata (atomically).
    ///
    /// The commit protocol: (1) barrier the data file; (2) serialize the
    /// metadata — with the epoch bumped — to `<path>.meta.tmp`, fsync it;
    /// (3) rename over `<path>.meta`. A crash before (3) leaves the old
    /// epoch; after (3), the new one. Only once (3) succeeds are extents
    /// freed since the previous commit handed to the allocator.
    pub fn sync(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        let injector = self.config.fault_injector.clone();
        match consult_sync(injector.as_deref(), SyncKind::Data) {
            SyncFault::Allow => inner.file.sync_all()?,
            SyncFault::Drop => {}
            SyncFault::Fail => return Err(injected_error("data fsync failed").into()),
        }
        if inner.dirty_meta {
            match commit_meta(&meta_path(&self.path), &inner, injector.as_deref())? {
                CommitOutcome::Committed => {
                    inner.epoch += 1;
                    inner.dirty_meta = false;
                    let pending = std::mem::take(&mut inner.pending_free);
                    for (slot, class) in pending {
                        inner.free_lists[usize::from(class.raw())].push(slot);
                    }
                }
                CommitOutcome::Deferred => {}
            }
        }
        Ok(())
    }
}

/// Writes `bytes` at `offset`, consulting the fault injector first.
fn write_extent(
    file: &mut File,
    injector: Option<&dyn FaultInjector>,
    offset: u64,
    bytes: &[u8],
) -> Result<()> {
    let fault = injector
        .map(|i| i.before_write(WriteKind::Page, bytes.len()))
        .unwrap_or(WriteFault::Allow);
    match fault {
        WriteFault::Allow => {
            file.seek(SeekFrom::Start(offset))?;
            file.write_all(bytes)?;
            Ok(())
        }
        WriteFault::Torn { keep } => {
            file.seek(SeekFrom::Start(offset))?;
            file.write_all(&bytes[..keep.min(bytes.len())])?;
            Err(injected_error("torn page write").into())
        }
        WriteFault::Fail => Err(injected_error("page write failed").into()),
    }
}

fn consult_sync(injector: Option<&dyn FaultInjector>, kind: SyncKind) -> SyncFault {
    injector
        .map(|i| i.before_sync(kind))
        .unwrap_or(SyncFault::Allow)
}

fn meta_path(path: &Path) -> PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(".meta");
    PathBuf::from(p)
}

struct Meta {
    directory: HashMap<PageId, PageLoc>,
    free_lists: Vec<Vec<u64>>,
    next_slot: u64,
    next_page_id: u64,
    epoch: u64,
    root: Option<PageId>,
}

fn serialize_meta(inner: &DiskInner, epoch: u64) -> Vec<u8> {
    use crate::serialize::ByteWriter;
    let mut w = ByteWriter::with_capacity(96 + inner.directory.len() * 17);
    w.put_u32(META_MAGIC);
    w.put_u32(META_VERSION);
    w.put_u64(epoch);
    w.put_u64(inner.root.map(PageId::raw).unwrap_or(NO_ROOT));
    w.put_u64(inner.next_slot);
    w.put_u64(inner.next_page_id);
    w.put_u64(inner.directory.len() as u64);
    let mut entries: Vec<_> = inner.directory.iter().collect();
    entries.sort_by_key(|(id, _)| **id);
    for (id, loc) in entries {
        w.put_u64(id.raw());
        w.put_u64(loc.slot);
        w.put_u8(loc.size_class.raw());
    }
    // The pending frees are serialized as free: the same meta image removes
    // those pages from the directory, so "free extent" and "page gone"
    // become durable in the same atomic rename.
    w.put_u8(inner.free_lists.len() as u8);
    for (class, list) in inner.free_lists.iter().enumerate() {
        let pending = inner
            .pending_free
            .iter()
            .filter(|(_, c)| usize::from(c.raw()) == class);
        w.put_u64(list.len() as u64 + pending.clone().count() as u64);
        for &slot in list {
            w.put_u64(slot);
        }
        for (slot, _) in pending {
            w.put_u64(*slot);
        }
    }
    let digest = xxh64(w.as_bytes(), META_CHECKSUM_SEED);
    w.put_u64(digest);
    w.into_bytes()
}

fn commit_meta(
    path: &Path,
    inner: &DiskInner,
    injector: Option<&dyn FaultInjector>,
) -> Result<CommitOutcome> {
    let bytes = serialize_meta(inner, inner.epoch + 1);
    let tmp = path.with_extension("meta.tmp");
    let mut f = File::create(&tmp)?;
    let fault = injector
        .map(|i| i.before_write(WriteKind::Meta, bytes.len()))
        .unwrap_or(WriteFault::Allow);
    match fault {
        WriteFault::Allow => f.write_all(&bytes)?,
        WriteFault::Torn { keep } => {
            f.write_all(&bytes[..keep.min(bytes.len())])?;
            let _ = f.sync_all();
            return Err(injected_error("torn meta write").into());
        }
        WriteFault::Fail => return Err(injected_error("meta write failed").into()),
    }
    f.sync_all()?;
    drop(f);
    match consult_sync(injector, SyncKind::MetaCommit) {
        SyncFault::Allow => {}
        SyncFault::Drop => return Ok(CommitOutcome::Deferred),
        SyncFault::Fail => return Err(injected_error("meta commit failed").into()),
    }
    std::fs::rename(&tmp, path)?;
    // Make the rename itself durable: fsync the containing directory.
    #[cfg(unix)]
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(CommitOutcome::Committed)
}

fn read_meta(path: &Path) -> Result<Meta> {
    use crate::serialize::ByteReader;
    let bytes = std::fs::read(path)?;
    if bytes.len() < 8 {
        return Err(StorageError::BadMeta(format!(
            "metadata file truncated to {} bytes",
            bytes.len()
        )));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    let actual = xxh64(body, META_CHECKSUM_SEED);
    if stored != actual {
        return Err(StorageError::BadMeta(format!(
            "metadata checksum mismatch (torn or partial meta write?): \
             stored {stored:#x}, computed {actual:#x}"
        )));
    }
    let mut r = ByteReader::new(body);
    let magic = r.get_u32()?;
    if magic != META_MAGIC {
        return Err(StorageError::BadMeta(format!("bad magic {magic:#x}")));
    }
    let version = r.get_u32()?;
    if version != META_VERSION {
        return Err(StorageError::BadMeta(format!(
            "unsupported version {version}"
        )));
    }
    let epoch = r.get_u64()?;
    let root_raw = r.get_u64()?;
    let root = (root_raw != NO_ROOT).then_some(PageId(root_raw));
    let next_slot = r.get_u64()?;
    let next_page_id = r.get_u64()?;
    let n = r.get_u64()? as usize;
    let mut directory = HashMap::with_capacity(n);
    for _ in 0..n {
        let id = PageId(r.get_u64()?);
        let slot = r.get_u64()?;
        let class = r.get_u8()?;
        let size_class = SizeClass::checked(class)
            .ok_or_else(|| StorageError::BadMeta(format!("bad size class {class}")))?;
        directory.insert(id, PageLoc { slot, size_class });
    }
    let lists = r.get_u8()? as usize;
    let mut free_lists = vec![Vec::new(); usize::from(MAX_SIZE_CLASS) + 1];
    for list in free_lists.iter_mut().take(lists) {
        let len = r.get_u64()? as usize;
        list.reserve(len);
        for _ in 0..len {
            list.push(r.get_u64()?);
        }
    }
    Ok(Meta {
        directory,
        free_lists,
        next_slot,
        next_page_id,
        epoch,
        root,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ScriptedFault;

    fn tempdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "segidx-disk-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn page_with(id: PageId, class: SizeClass, payload: &[u8]) -> Page {
        let mut p = Page::new(id, class);
        p.set_payload(payload).unwrap();
        p
    }

    fn with_injector(f: Arc<ScriptedFault>) -> DiskManagerConfig {
        DiskManagerConfig {
            fault_injector: Some(f),
        }
    }

    #[test]
    fn allocate_write_read_roundtrip() {
        let path = tempdir().join("rt.db");
        let dm = DiskManager::create(&path).unwrap();
        let id0 = dm.allocate(SizeClass::new(0)).unwrap();
        let id1 = dm.allocate(SizeClass::new(2)).unwrap();
        dm.write_page(&page_with(id0, SizeClass::new(0), b"leaf"))
            .unwrap();
        dm.write_page(&page_with(id1, SizeClass::new(2), b"root"))
            .unwrap();
        assert_eq!(dm.read_page(id0).unwrap().payload(), b"leaf");
        assert_eq!(dm.read_page(id1).unwrap().payload(), b"root");
        assert_eq!(dm.page_count(), 2);
        let snap = dm.stats().snapshot();
        assert_eq!(snap.allocations, 2);
        assert_eq!(snap.writes, 2);
        assert_eq!(snap.reads, 2);
    }

    #[test]
    fn variable_sizes_do_not_overlap() {
        let path = tempdir().join("sizes.db");
        let dm = DiskManager::create(&path).unwrap();
        let ids: Vec<_> = (0..20)
            .map(|i| {
                let class = SizeClass::new((i % 4) as u8);
                let id = dm.allocate(class).unwrap();
                let payload = vec![i as u8; class.payload_capacity() / 2];
                dm.write_page(&page_with(id, class, &payload)).unwrap();
                (id, class, payload)
            })
            .collect();
        for (id, _, payload) in &ids {
            assert_eq!(dm.read_page(*id).unwrap().payload(), payload.as_slice());
        }
    }

    #[test]
    fn free_recycles_extents_after_commit() {
        let path = tempdir().join("free.db");
        let dm = DiskManager::create(&path).unwrap();
        let a = dm.allocate(SizeClass::new(1)).unwrap();
        let before = {
            let inner = dm.inner.lock();
            inner.next_slot
        };
        dm.free(a).unwrap();
        // The free is not durable yet: the extent must NOT be recycled.
        let b = dm.allocate(SizeClass::new(1)).unwrap();
        assert_ne!(a, b, "page ids are never reused");
        let grown = {
            let inner = dm.inner.lock();
            inner.next_slot
        };
        assert!(
            grown > before,
            "uncommitted free must not recycle the extent"
        );
        // After a durable commit the extent becomes recyclable.
        dm.sync().unwrap();
        let c = dm.allocate(SizeClass::new(1)).unwrap();
        let after = {
            let inner = dm.inner.lock();
            inner.next_slot
        };
        assert_eq!(grown, after, "extent recycled after the commit");
        assert_ne!(b, c);
        assert!(matches!(
            dm.read_page(a),
            Err(StorageError::PageNotFound(_))
        ));
    }

    #[test]
    fn persist_and_reopen() {
        let path = tempdir().join("reopen.db");
        let (id0, id1);
        {
            let dm = DiskManager::create(&path).unwrap();
            id0 = dm.allocate(SizeClass::new(0)).unwrap();
            id1 = dm.allocate(SizeClass::new(3)).unwrap();
            dm.write_page(&page_with(id0, SizeClass::new(0), b"persisted-leaf"))
                .unwrap();
            dm.write_page(&page_with(id1, SizeClass::new(3), b"persisted-root"))
                .unwrap();
            dm.set_root(Some(id1));
            dm.sync().unwrap();
        }
        let dm = DiskManager::open(&path).unwrap();
        assert_eq!(dm.page_count(), 2);
        assert_eq!(dm.read_page(id0).unwrap().payload(), b"persisted-leaf");
        assert_eq!(dm.read_page(id1).unwrap().payload(), b"persisted-root");
        assert_eq!(dm.size_class_of(id1).unwrap(), SizeClass::new(3));
        assert_eq!(dm.root(), Some(id1), "root pointer survives reopen");
        // Allocation continues after the persisted cursor.
        let id2 = dm.allocate(SizeClass::new(0)).unwrap();
        assert!(id2 > id1);
    }

    #[test]
    fn epoch_increases_per_commit_and_survives_reopen() {
        let path = tempdir().join("epoch.db");
        let e1;
        {
            let dm = DiskManager::create(&path).unwrap();
            e1 = dm.epoch();
            assert!(e1 >= 1, "creation commits an initial epoch");
            let id = dm.allocate(SizeClass::new(0)).unwrap();
            dm.write_page(&page_with(id, SizeClass::new(0), b"x"))
                .unwrap();
            dm.sync().unwrap();
            assert_eq!(dm.epoch(), e1 + 1);
            // A clean sync (nothing dirty) does not bump the epoch.
            dm.sync().unwrap();
            assert_eq!(dm.epoch(), e1 + 1);
        }
        let dm = DiskManager::open(&path).unwrap();
        assert_eq!(dm.epoch(), e1 + 1, "epoch survives reopen");
    }

    #[test]
    fn size_class_mismatch_on_write_rejected() {
        let path = tempdir().join("mismatch.db");
        let dm = DiskManager::create(&path).unwrap();
        let id = dm.allocate(SizeClass::new(0)).unwrap();
        let err = dm
            .write_page(&page_with(id, SizeClass::new(1), b"x"))
            .unwrap_err();
        assert!(err.to_string().contains("size class"));
    }

    #[test]
    fn unknown_page_errors() {
        let path = tempdir().join("unknown.db");
        let dm = DiskManager::create(&path).unwrap();
        assert!(matches!(
            dm.read_page(PageId(99)),
            Err(StorageError::PageNotFound(PageId(99)))
        ));
        assert!(dm.free(PageId(99)).is_err());
    }

    #[test]
    fn meta_free_lists_survive_reopen() {
        let path = tempdir().join("freelists.db");
        {
            let dm = DiskManager::create(&path).unwrap();
            let a = dm.allocate(SizeClass::new(2)).unwrap();
            let _b = dm.allocate(SizeClass::new(2)).unwrap();
            dm.free(a).unwrap();
            dm.sync().unwrap();
        }
        let dm = DiskManager::open(&path).unwrap();
        let inner_next = {
            let inner = dm.inner.lock();
            inner.next_slot
        };
        let _c = dm.allocate(SizeClass::new(2)).unwrap();
        let after = {
            let inner = dm.inner.lock();
            inner.next_slot
        };
        assert_eq!(inner_next, after, "free list used after reopen");
    }

    #[test]
    fn corrupted_meta_file_rejected_typed() {
        let path = tempdir().join("badmeta.db");
        {
            let dm = DiskManager::create(&path).unwrap();
            let id = dm.allocate(SizeClass::new(0)).unwrap();
            dm.write_page(&page_with(id, SizeClass::new(0), b"x"))
                .unwrap();
            dm.sync().unwrap();
        }
        let mp = meta_path(&path);
        let mut bytes = std::fs::read(&mp).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&mp, &bytes).unwrap();
        let err = DiskManager::open(&path).unwrap_err();
        assert!(
            matches!(err, StorageError::BadMeta(_)),
            "corrupt meta must be typed: {err}"
        );
        // A truncated (torn) meta file is also typed, never a wrong parse.
        std::fs::write(&mp, &bytes[..mid]).unwrap();
        assert!(matches!(
            DiskManager::open(&path).unwrap_err(),
            StorageError::BadMeta(_)
        ));
    }

    #[test]
    fn torn_page_write_is_detected_on_read() {
        let path = tempdir().join("torn.db");
        // Write counter: #0 = create's meta image, #1 = page a, #2 = page b,
        // #3 = sync's meta image, #4 = the overwrite of b — torn at 100
        // bytes, so b's extent holds a new header + a prefix of the new
        // payload over the tail of the old one.
        let fault = Arc::new(ScriptedFault::power_cut(4, Some(100)));
        let dm = DiskManager::create_with(&path, with_injector(fault)).unwrap();
        let a = dm.allocate(SizeClass::new(0)).unwrap();
        let b = dm.allocate(SizeClass::new(0)).unwrap();
        dm.write_page(&page_with(a, SizeClass::new(0), &[7u8; 500]))
            .unwrap();
        dm.write_page(&page_with(b, SizeClass::new(0), &[9u8; 500]))
            .unwrap();
        dm.sync().unwrap(); // both pages durable in the directory
        let err = dm
            .write_page(&page_with(b, SizeClass::new(0), &[1u8; 500]))
            .unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        // Reading the torn page through a clean handle reports corruption —
        // never a partial payload and never the pre-tear contents.
        drop(dm);
        let dm = DiskManager::open(&path).unwrap();
        assert_eq!(dm.read_page(a).unwrap().payload(), &[7u8; 500][..]);
        assert!(matches!(dm.read_page(b), Err(StorageError::Corrupt { .. })));
    }

    #[test]
    fn dropped_meta_commit_defers_and_retries() {
        let path = tempdir().join("dropsync.db");
        // Barrier counter: sync #0 = create's (Data), #1 = create's
        // MetaCommit, #2 = our sync's Data, #3 = our sync's MetaCommit.
        let fault = Arc::new(ScriptedFault::drop_nth_sync(3));
        let dm = DiskManager::create_with(&path, with_injector(Arc::clone(&fault))).unwrap();
        let e0 = dm.epoch();
        let id = dm.allocate(SizeClass::new(0)).unwrap();
        dm.write_page(&page_with(id, SizeClass::new(0), b"x"))
            .unwrap();
        dm.sync().unwrap(); // meta commit silently dropped
        assert_eq!(dm.epoch(), e0, "dropped commit must not advance the epoch");
        // A crash here reopens at the old epoch: the page is not in the
        // durable directory.
        {
            let reopened = DiskManager::open(&path).unwrap();
            assert_eq!(reopened.epoch(), e0);
            assert!(reopened.read_page(id).is_err());
        }
        // The live handle retries the commit on the next sync.
        dm.sync().unwrap();
        assert_eq!(dm.epoch(), e0 + 1);
        let reopened = DiskManager::open(&path).unwrap();
        assert_eq!(reopened.read_page(id).unwrap().payload(), b"x");
    }

    #[test]
    fn open_repair_quarantines_corrupt_pages() {
        let path = tempdir().join("repair.db");
        let (good, bad);
        {
            let dm = DiskManager::create(&path).unwrap();
            good = dm.allocate(SizeClass::new(0)).unwrap();
            bad = dm.allocate(SizeClass::new(0)).unwrap();
            dm.write_page(&page_with(good, SizeClass::new(0), b"good"))
                .unwrap();
            dm.write_page(&page_with(bad, SizeClass::new(0), &[0xAB; 64]))
                .unwrap();
            dm.sync().unwrap();
        }
        // Corrupt the second page's stored payload on disk (offset 25 =
        // payload byte 5 of the 64-byte payload at slot 1).
        {
            let mut f = OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(BASE_PAGE_SIZE as u64 + 25)).unwrap();
            f.write_all(&[0xEE; 8]).unwrap();
        }
        let (dm, report) =
            DiskManager::open_repair(&path, DiskManagerConfig::default(), None).unwrap();
        assert_eq!(report.pages_checked, 2);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].0, bad);
        assert!(!report.is_clean());
        // The quarantined page is gone; the good one is intact.
        assert!(matches!(
            dm.read_page(bad),
            Err(StorageError::PageNotFound(_))
        ));
        assert_eq!(dm.read_page(good).unwrap().payload(), b"good");
        // The quarantine becomes durable at the next sync.
        dm.sync().unwrap();
        drop(dm);
        let (_, report) =
            DiskManager::open_repair(&path, DiskManagerConfig::default(), None).unwrap();
        assert!(report.is_clean(), "quarantine persisted: second scan clean");
    }

    #[test]
    fn uncommitted_free_extent_never_reused_across_crash() {
        // The crash-consistency hazard pending frees exist to prevent:
        // free a committed page, recycle its extent before the free is
        // durable, tear a write into it, crash. The old directory still
        // maps the extent → the committed page would be corrupt.
        let path = tempdir().join("pending.db");
        let a;
        {
            let dm = DiskManager::create(&path).unwrap();
            a = dm.allocate(SizeClass::new(0)).unwrap();
            dm.write_page(&page_with(a, SizeClass::new(0), b"committed"))
                .unwrap();
            dm.sync().unwrap();
            // Free `a` but crash before the free commits; meanwhile write
            // a new page (which must NOT land in a's extent).
            dm.free(a).unwrap();
            let b = dm.allocate(SizeClass::new(0)).unwrap();
            dm.write_page(&page_with(b, SizeClass::new(0), b"newcomer"))
                .unwrap();
            // No sync: simulated crash.
        }
        let dm = DiskManager::open(&path).unwrap();
        assert_eq!(
            dm.read_page(a).unwrap().payload(),
            b"committed",
            "page live at the last durable epoch must be intact"
        );
        assert!(dm.verify_all().is_empty());
    }
}
