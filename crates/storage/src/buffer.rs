//! An LRU buffer pool with pin counting and write-back.

use crate::disk::DiskManager;
use crate::error::{Result, StorageError};
use crate::page::{Page, PageId, SizeClass};
use crate::stats::{IoLatency, IoStats};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration for [`BufferPool`].
#[derive(Debug, Clone)]
pub struct BufferPoolConfig {
    /// Maximum total bytes of cached pages. Because page sizes vary by index
    /// level (paper §2.1.2), the budget is in bytes rather than frames: one
    /// 8 KB root page displaces eight 1 KB leaves.
    pub capacity_bytes: usize,
}

impl Default for BufferPoolConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: 4 * 1024 * 1024,
        }
    }
}

#[derive(Debug)]
struct Frame {
    page: Page,
    dirty: bool,
    pins: usize,
    last_used: u64,
}

#[derive(Debug)]
struct PoolInner {
    frames: HashMap<PageId, Frame>,
    cached_bytes: usize,
    clock: u64,
}

/// A byte-budgeted LRU buffer pool over a [`DiskManager`].
///
/// Access is closure-based: [`BufferPool::with_page`] /
/// [`BufferPool::with_page_mut`] pin the page for the duration of the
/// closure, so eviction can never observe an in-use frame.
#[derive(Debug)]
pub struct BufferPool {
    disk: Arc<DiskManager>,
    config: BufferPoolConfig,
    inner: Mutex<PoolInner>,
    stats: Arc<IoStats>,
}

impl BufferPool {
    /// Creates a pool over `disk` with the default byte budget.
    pub fn new(disk: Arc<DiskManager>) -> Self {
        Self::with_config(disk, BufferPoolConfig::default())
    }

    /// Creates a pool with an explicit configuration.
    pub fn with_config(disk: Arc<DiskManager>, config: BufferPoolConfig) -> Self {
        let stats = disk.stats();
        Self {
            disk,
            config,
            inner: Mutex::new(PoolInner {
                frames: HashMap::new(),
                cached_bytes: 0,
                clock: 0,
            }),
            stats,
        }
    }

    /// The underlying disk manager.
    pub fn disk(&self) -> &Arc<DiskManager> {
        &self.disk
    }

    /// Shared I/O statistics (same counters as the disk manager's).
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// Shared page read/write latency histograms (same as the disk
    /// manager's).
    pub fn latency(&self) -> Arc<IoLatency> {
        self.disk.latency()
    }

    /// Bytes currently cached.
    pub fn cached_bytes(&self) -> usize {
        self.inner.lock().cached_bytes
    }

    /// Number of cached pages.
    pub fn cached_pages(&self) -> usize {
        self.inner.lock().frames.len()
    }

    /// Allocates a fresh page of `size_class`, caches it (dirty), and
    /// returns its id.
    pub fn allocate(&self, size_class: SizeClass) -> Result<PageId> {
        let id = self.disk.allocate(size_class)?;
        let mut inner = self.inner.lock();
        let page = Page::new(id, size_class);
        inner.cached_bytes += size_class.page_size();
        let clock = bump(&mut inner.clock);
        inner.frames.insert(
            id,
            Frame {
                page,
                dirty: true,
                pins: 0,
                last_used: clock,
            },
        );
        drop(inner);
        self.make_room()?;
        Ok(id)
    }

    /// Frees a page, dropping any cached copy.
    pub fn free(&self, id: PageId) -> Result<()> {
        let mut inner = self.inner.lock();
        if let Some(frame) = inner.frames.remove(&id) {
            if frame.pins > 0 {
                // Re-insert and refuse: the caller is freeing a page that is
                // concurrently in use.
                inner.frames.insert(id, frame);
                return Err(StorageError::PoolExhausted);
            }
            inner.cached_bytes -= frame.page.size_class().page_size();
        }
        drop(inner);
        self.disk.free(id)
    }

    /// Runs `f` with shared access to the page, faulting it in if needed.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        self.pin(id)?;
        let result = {
            let inner = self.inner.lock();
            let frame = inner.frames.get(&id).expect("pinned frame present");
            f(&frame.page)
        };
        self.unpin(id, false);
        self.make_room()?;
        Ok(result)
    }

    /// Runs `f` with exclusive access to the page, marking it dirty.
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> Result<R> {
        self.pin(id)?;
        let result = {
            let mut inner = self.inner.lock();
            let frame = inner.frames.get_mut(&id).expect("pinned frame present");
            f(&mut frame.page)
        };
        self.unpin(id, true);
        self.make_room()?;
        Ok(result)
    }

    /// Writes all dirty pages back to disk and syncs metadata.
    pub fn flush_all(&self) -> Result<()> {
        let dirty: Vec<PageId> = {
            let inner = self.inner.lock();
            inner
                .frames
                .iter()
                .filter(|(_, fr)| fr.dirty)
                .map(|(&id, _)| id)
                .collect()
        };
        for id in dirty {
            // Copy the page out under the lock, write it outside any frame
            // borrow, then clear the dirty bit.
            let page = {
                let inner = self.inner.lock();
                match inner.frames.get(&id) {
                    Some(fr) if fr.dirty => fr.page.clone(),
                    _ => continue,
                }
            };
            if let Err(e) = self.disk.write_page(&page) {
                self.report_write_error(id, &e);
                return Err(e);
            }
            let mut inner = self.inner.lock();
            if let Some(fr) = inner.frames.get_mut(&id) {
                fr.dirty = false;
            }
        }
        self.disk.sync()
    }

    /// Records a failed write-back in the shared counters and logs it to
    /// stderr — the error is *reported* even when (as in `Drop`) it cannot
    /// be returned.
    fn report_write_error(&self, id: PageId, e: &StorageError) {
        self.stats.record_write_error();
        eprintln!("segidx-storage: write-back of page {id:?} failed: {e}");
    }

    fn pin(&self, id: PageId) -> Result<()> {
        {
            let mut inner = self.inner.lock();
            if let Some(frame) = inner.frames.get_mut(&id) {
                frame.pins += 1;
                let clock = bump(&mut inner.clock);
                inner.frames.get_mut(&id).unwrap().last_used = clock;
                self.stats.record_hit();
                segidx_obs::trace::add(segidx_obs::trace::Dim::BufferPoolHits, 1);
                return Ok(());
            }
        }
        // Miss: fault in from disk (outside the lock), then insert.
        self.stats.record_miss();
        segidx_obs::trace::add(segidx_obs::trace::Dim::BufferPoolMisses, 1);
        let page = self.disk.read_page(id)?;
        let mut inner = self.inner.lock();
        let entry = inner.frames.entry(id);
        use std::collections::hash_map::Entry;
        match entry {
            Entry::Occupied(mut e) => {
                // Raced with another fault-in; keep the existing frame.
                e.get_mut().pins += 1;
            }
            Entry::Vacant(e) => {
                e.insert(Frame {
                    dirty: false,
                    pins: 1,
                    last_used: 0,
                    page,
                });
                let id_size = inner.frames[&id].page.size_class().page_size();
                inner.cached_bytes += id_size;
            }
        }
        let clock = bump(&mut inner.clock);
        inner.frames.get_mut(&id).unwrap().last_used = clock;
        Ok(())
    }

    fn unpin(&self, id: PageId, dirty: bool) {
        let mut inner = self.inner.lock();
        if let Some(frame) = inner.frames.get_mut(&id) {
            debug_assert!(frame.pins > 0);
            frame.pins -= 1;
            frame.dirty |= dirty;
        }
    }

    /// Evicts least-recently-used unpinned frames until within budget.
    fn make_room(&self) -> Result<()> {
        loop {
            let victim = {
                let inner = self.inner.lock();
                if inner.cached_bytes <= self.config.capacity_bytes {
                    return Ok(());
                }
                let candidate = inner
                    .frames
                    .iter()
                    .filter(|(_, fr)| fr.pins == 0)
                    .min_by_key(|(_, fr)| fr.last_used)
                    .map(|(&id, fr)| (id, fr.dirty));
                match candidate {
                    Some(v) => v,
                    // Everything pinned while over budget: tolerate the
                    // overshoot rather than failing closure-based accessors;
                    // the budget is restored at the next unpinned access.
                    None => return Ok(()),
                }
            };
            let (id, dirty) = victim;
            if dirty {
                let page = {
                    let inner = self.inner.lock();
                    match inner.frames.get(&id) {
                        Some(fr) if fr.pins == 0 => fr.page.clone(),
                        _ => continue,
                    }
                };
                self.disk.write_page(&page)?;
            }
            let mut inner = self.inner.lock();
            if let Some(fr) = inner.frames.get(&id).filter(|fr| fr.pins == 0) {
                let size = fr.page.size_class().page_size();
                inner.frames.remove(&id);
                inner.cached_bytes -= size;
                self.stats.record_eviction();
            }
        }
    }
}

/// Dropping the pool writes dirty pages back and syncs, so an index that
/// goes out of scope without an explicit [`BufferPool::flush_all`] is not
/// silently lost. Failures cannot be returned from `Drop`; they are
/// *reported* instead — counted in [`IoStats`] `write_errors` and logged
/// to stderr. Callers that
/// need failures as errors must call [`BufferPool::flush_all`] themselves.
impl Drop for BufferPool {
    fn drop(&mut self) {
        let dirty: Vec<(PageId, Page)> = {
            let inner = self.inner.lock();
            inner
                .frames
                .iter()
                .filter(|(_, fr)| fr.dirty)
                .map(|(&id, fr)| (id, fr.page.clone()))
                .collect()
        };
        let mut failed = false;
        for (id, page) in dirty {
            if let Err(e) = self.disk.write_page(&page) {
                self.report_write_error(id, &e);
                failed = true;
            }
        }
        if let Err(e) = self.disk.sync() {
            if !failed {
                // Count the sync failure once if no write already did.
                self.stats.record_write_error();
            }
            eprintln!("segidx-storage: sync on buffer-pool drop failed: {e}");
        }
    }
}

fn bump(clock: &mut u64) -> u64 {
    *clock += 1;
    *clock
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn pool(name: &str, capacity_bytes: usize) -> BufferPool {
        let dir = std::env::temp_dir().join(format!(
            "segidx-pool-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path: PathBuf = dir.join(name);
        let disk = Arc::new(DiskManager::create(&path).unwrap());
        BufferPool::with_config(disk, BufferPoolConfig { capacity_bytes })
    }

    #[test]
    fn read_your_writes_through_cache() {
        let pool = pool("ryw.db", 1 << 20);
        let id = pool.allocate(SizeClass::new(0)).unwrap();
        pool.with_page_mut(id, |p| p.set_payload(b"cached").unwrap())
            .unwrap();
        let payload = pool.with_page(id, |p| p.payload().to_vec()).unwrap();
        assert_eq!(payload, b"cached");
        // Never written to disk yet.
        assert_eq!(pool.stats().snapshot().writes, 0);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        // Budget of 2 KB holds two 1 KB pages; the third allocation evicts.
        let pool = pool("evict.db", 2 * 1024);
        let ids: Vec<_> = (0..3)
            .map(|i| {
                let id = pool.allocate(SizeClass::new(0)).unwrap();
                pool.with_page_mut(id, |p| p.set_payload(&[i as u8; 64]).unwrap())
                    .unwrap();
                id
            })
            .collect();
        assert!(pool.cached_bytes() <= 2 * 1024);
        let snap = pool.stats().snapshot();
        assert!(snap.evictions >= 1);
        assert!(snap.writes >= 1, "dirty eviction wrote back");
        // Evicted page reads back correctly (from disk).
        for (i, id) in ids.iter().enumerate() {
            let payload = pool.with_page(*id, |p| p.payload().to_vec()).unwrap();
            assert_eq!(payload, vec![i as u8; 64]);
        }
    }

    #[test]
    fn flush_all_persists() {
        let dir = std::env::temp_dir().join(format!("segidx-flush-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flush.db");
        let id;
        {
            let disk = Arc::new(DiskManager::create(&path).unwrap());
            let pool = BufferPool::new(disk);
            id = pool.allocate(SizeClass::new(2)).unwrap();
            pool.with_page_mut(id, |p| p.set_payload(b"durable").unwrap())
                .unwrap();
            pool.flush_all().unwrap();
        }
        let disk = DiskManager::open(&path).unwrap();
        assert_eq!(disk.read_page(id).unwrap().payload(), b"durable");
    }

    #[test]
    fn lru_order_respected() {
        let pool = pool("lru.db", 2 * 1024);
        let a = pool.allocate(SizeClass::new(0)).unwrap();
        let b = pool.allocate(SizeClass::new(0)).unwrap();
        pool.with_page_mut(a, |p| p.set_payload(b"a").unwrap())
            .unwrap();
        pool.with_page_mut(b, |p| p.set_payload(b"b").unwrap())
            .unwrap();
        // Touch `a` so `b` is the LRU victim.
        pool.with_page(a, |_| ()).unwrap();
        let c = pool.allocate(SizeClass::new(0)).unwrap();
        pool.with_page_mut(c, |p| p.set_payload(b"c").unwrap())
            .unwrap();
        let inner = pool.inner.lock();
        assert!(inner.frames.contains_key(&a), "recently used page kept");
        assert!(!inner.frames.contains_key(&b), "LRU page evicted");
    }

    #[test]
    fn hit_and_miss_accounting() {
        let pool = pool("hits.db", 1 << 20);
        let id = pool.allocate(SizeClass::new(0)).unwrap();
        pool.with_page_mut(id, |p| p.set_payload(b"x").unwrap())
            .unwrap();
        pool.with_page(id, |_| ()).unwrap();
        pool.with_page(id, |_| ()).unwrap();
        let snap = pool.stats().snapshot();
        assert_eq!(snap.pool_misses, 0, "page was cached from allocation");
        assert_eq!(snap.pool_hits, 3);
    }

    #[test]
    fn free_drops_cached_copy() {
        let pool = pool("freec.db", 1 << 20);
        let id = pool.allocate(SizeClass::new(0)).unwrap();
        pool.with_page_mut(id, |p| p.set_payload(b"x").unwrap())
            .unwrap();
        pool.free(id).unwrap();
        assert_eq!(pool.cached_pages(), 0);
        assert!(pool.with_page(id, |_| ()).is_err());
    }

    #[test]
    fn page_io_latency_recorded() {
        let pool = pool("iolat.db", 1 << 20);
        let id = pool.allocate(SizeClass::new(0)).unwrap();
        pool.with_page_mut(id, |p| p.set_payload(b"timed").unwrap())
            .unwrap();
        pool.flush_all().unwrap();
        let lat = pool.latency().snapshot();
        assert!(lat.write.count >= 1, "flush recorded a write latency");
        assert!(lat.write.p50().is_some());
    }

    #[test]
    fn variable_size_budget_accounting() {
        // An 8 KB page plus a 1 KB page exceed a 8 KB budget → eviction.
        let pool = pool("varsize.db", 8 * 1024);
        let big = pool.allocate(SizeClass::new(3)).unwrap();
        pool.with_page_mut(big, |p| p.set_payload(b"big").unwrap())
            .unwrap();
        let small = pool.allocate(SizeClass::new(0)).unwrap();
        pool.with_page_mut(small, |p| p.set_payload(b"small").unwrap())
            .unwrap();
        assert!(pool.cached_bytes() <= 8 * 1024);
        let payload = pool.with_page(big, |p| p.payload().to_vec()).unwrap();
        assert_eq!(payload, b"big");
    }
}
