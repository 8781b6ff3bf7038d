//! A read-through LRU page cache.

use crate::disk::DiskManager;
use crate::error::Result;
use crate::page::{Page, PageId};
use crate::stats::IoStats;
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
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
    last_used: u64,
}

#[derive(Debug)]
struct PoolInner {
    frames: HashMap<PageId, Frame>,
    cached_bytes: usize,
    clock: u64,
}

/// A byte-budgeted, read-through LRU cache of the pages of a
/// [`DiskManager`].
///
/// The pool only reads: pages reach the disk through
/// [`DiskManager::write_page`] and [`DiskManager::sync`], the one write
/// path the crash sweeps cut. Access is closure-based —
/// [`BufferPool::with_page`] runs the closure under the pool's lock, so no
/// frame can be evicted while it is in use.
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

    /// Shared I/O statistics (same counters as the disk manager's).
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// Bytes currently cached.
    pub fn cached_bytes(&self) -> usize {
        self.inner.lock().cached_bytes
    }

    /// Runs `f` with shared access to the page, faulting it in if needed.
    ///
    /// A miss reads the page outside the lock, then inserts it (or adopts
    /// the copy a racing miss inserted first), runs `f`, and evicts
    /// least-recently-used pages until the pool is back inside its budget —
    /// the page just read included, if it alone exceeds the budget.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            if let Some(frame) = inner.frames.get_mut(&id) {
                frame.last_used = bump(&mut inner.clock);
                self.stats.record_hit();
                segidx_obs::trace::add(segidx_obs::trace::Dim::BufferPoolHits, 1);
                return Ok(f(&frame.page));
            }
        }
        self.stats.record_miss();
        segidx_obs::trace::add(segidx_obs::trace::Dim::BufferPoolMisses, 1);
        let page = self.disk.read_page(id)?;
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let last_used = bump(&mut inner.clock);
        let frame = match inner.frames.entry(id) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                inner.cached_bytes += page.size_class().page_size();
                e.insert(Frame { page, last_used })
            }
        };
        frame.last_used = last_used;
        let result = f(&frame.page);
        while inner.cached_bytes > self.config.capacity_bytes {
            let (&victim, _) = inner
                .frames
                .iter()
                .min_by_key(|(_, fr)| fr.last_used)
                .expect("bytes are cached, so pages are");
            let evicted = inner.frames.remove(&victim).expect("victim is cached");
            inner.cached_bytes -= evicted.page.size_class().page_size();
            self.stats.record_eviction();
        }
        Ok(result)
    }
}

fn bump(clock: &mut u64) -> u64 {
    *clock += 1;
    *clock
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManagerConfig;
    use crate::fault::ScriptedFault;
    use crate::page::SizeClass;

    /// A fresh file holding one page per entry of `pages` (its size class
    /// and payload), written and synced through the disk manager.
    fn disk_with(
        name: &str,
        config: DiskManagerConfig,
        pages: &[(u8, &[u8])],
    ) -> (Arc<DiskManager>, Vec<PageId>) {
        let dir = std::env::temp_dir().join(format!(
            "segidx-pool-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let disk = Arc::new(DiskManager::create_with(dir.join(name), config).unwrap());
        let ids = pages
            .iter()
            .map(|&(class, payload)| {
                let id = disk.allocate(SizeClass::new(class)).unwrap();
                let mut page = Page::new(id, SizeClass::new(class));
                page.set_payload(payload).unwrap();
                disk.write_page(&page).unwrap();
                id
            })
            .collect();
        disk.sync().unwrap();
        (disk, ids)
    }

    fn pool_over(
        name: &str,
        capacity_bytes: usize,
        pages: &[(u8, &[u8])],
    ) -> (BufferPool, Vec<PageId>) {
        let (disk, ids) = disk_with(name, DiskManagerConfig::default(), pages);
        (
            BufferPool::with_config(disk, BufferPoolConfig { capacity_bytes }),
            ids,
        )
    }

    fn payload(pool: &BufferPool, id: PageId) -> Vec<u8> {
        pool.with_page(id, |p| p.payload().to_vec()).unwrap()
    }

    #[test]
    fn lru_order_respected() {
        let (pool, ids) = pool_over("lru.db", 2 * 1024, &[(0, b"a"), (0, b"b"), (0, b"c")]);
        let (a, b, c) = (ids[0], ids[1], ids[2]);
        payload(&pool, a);
        payload(&pool, b);
        // Touch `a` so `b` is the LRU victim.
        payload(&pool, a);
        assert_eq!(payload(&pool, c), b"c");
        let inner = pool.inner.lock();
        assert!(inner.frames.contains_key(&a), "recently used page kept");
        assert!(!inner.frames.contains_key(&b), "LRU page evicted");
        assert!(inner.frames.contains_key(&c), "page just read kept");
    }

    #[test]
    fn hit_and_miss_accounting() {
        let (pool, ids) = pool_over("hits.db", 1 << 20, &[(0, b"x")]);
        for _ in 0..3 {
            assert_eq!(payload(&pool, ids[0]), b"x");
        }
        let snap = pool.stats().snapshot();
        assert_eq!(snap.pool_misses, 1, "first access faults the page in");
        assert_eq!(snap.pool_hits, 2);
        assert_eq!(snap.reads, 1, "hits read nothing from disk");
        assert_eq!(snap.evictions, 0);
    }

    #[test]
    fn variable_size_budget_accounting() {
        // An 8 KB page plus a 1 KB page exceed an 8 KB budget → eviction.
        let (pool, ids) = pool_over("varsize.db", 8 * 1024, &[(3, b"big"), (0, b"small")]);
        assert_eq!(payload(&pool, ids[0]), b"big");
        assert_eq!(pool.cached_bytes(), 8 * 1024);
        assert_eq!(payload(&pool, ids[1]), b"small");
        assert_eq!(pool.cached_bytes(), 1024, "the big page was the LRU victim");
        assert_eq!(payload(&pool, ids[0]), b"big");
        assert_eq!(pool.cached_bytes(), 8 * 1024);
        assert_eq!(pool.stats().snapshot().evictions, 2);
    }

    #[test]
    fn a_read_only_pool_never_syncs() {
        let observer = Arc::new(ScriptedFault::observer());
        let config = DiskManagerConfig {
            fault_injector: Some(observer.clone()),
        };
        let (disk, ids) = disk_with("readonly.db", config, &[(0, b"a"), (1, b"b"), (0, b"c")]);
        let (syncs, writes) = (observer.syncs_seen(), observer.writes_seen());
        let io_writes = disk.stats().snapshot().writes;
        {
            let pool = BufferPool::with_config(
                Arc::clone(&disk),
                BufferPoolConfig {
                    capacity_bytes: 2 * 1024,
                },
            );
            for &id in ids.iter().chain(&ids) {
                pool.with_page(id, |p| assert!(!p.payload().is_empty()))
                    .unwrap();
            }
            assert!(pool.stats().snapshot().evictions > 0);
        }
        assert_eq!(observer.syncs_seen(), syncs, "dropping the pool synced");
        assert_eq!(observer.writes_seen(), writes, "the pool wrote a page");
        assert_eq!(disk.stats().snapshot().writes, io_writes);
    }
}
