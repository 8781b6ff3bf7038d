//! Executing searches directly against a persisted index through the
//! buffer pool — the paper's actual operating regime, where "only a small
//! portion of the index may reside in main memory at a given time" (§1).
//!
//! [`PagedSearcher`] never materializes the whole tree: each node visited
//! is fetched (and decoded) through the [`BufferPool`], so the pool's
//! byte budget — not the index size — bounds memory. Logical node accesses
//! equal the in-memory engine's by construction; physical page reads depend
//! on the pool size, which lets experiments sweep the memory/I-O trade-off
//! the paper's variable node sizes were designed around.

use crate::id::RecordId;
use crate::persist::{decode_node, NodeImageKind, TreeMeta};
use crate::tree::finish_ids;
use segidx_geom::{Point, Rect};
use segidx_storage::{BufferPool, PageId, Result};
use std::cell::Cell;

/// A read-only search engine over a persisted index.
#[derive(Debug)]
pub struct PagedSearcher<'a, const D: usize> {
    pool: &'a BufferPool,
    root: PageId,
    len: usize,
    logical_accesses: Cell<u64>,
}

impl<'a, const D: usize> PagedSearcher<'a, D> {
    /// Opens the index whose metadata page is `meta` (as returned by
    /// [`crate::persist::save`]).
    pub fn open(pool: &'a BufferPool, meta: PageId) -> Result<Self> {
        let meta = pool.with_page(meta, |page| TreeMeta::decode(page.payload(), Some(D)))??;
        Ok(Self {
            pool,
            root: meta.root,
            len: meta.len,
            logical_accesses: Cell::new(0),
        })
    }

    /// Number of logical records in the persisted index.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the persisted index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Logical node accesses performed so far (the paper's metric; compare
    /// with the pool's physical `reads` to see buffering at work).
    pub fn logical_accesses(&self) -> u64 {
        self.logical_accesses.get()
    }

    /// All records intersecting `query`, deduplicated and sorted —
    /// identical semantics (and identical logical node accesses) to
    /// [`crate::tree::Tree::search`], but executed page-by-page.
    pub fn search(&self, query: &Rect<D>) -> Result<Vec<RecordId>> {
        let sp = segidx_obs::trace::span("paged.search");
        let mut visited = 0u64;
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(page_id) = stack.pop() {
            self.logical_accesses.set(self.logical_accesses.get() + 1);
            visited += 1;
            match self.read_node(page_id)? {
                NodeImageKind::Leaf(entries) => {
                    for (rect, record) in &entries {
                        if rect.intersects(query) {
                            out.push(*record);
                        }
                    }
                }
                NodeImageKind::Internal { branches, spanning } => {
                    for (rect, record, _) in &spanning {
                        if rect.intersects(query) {
                            out.push(*record);
                        }
                    }
                    for (rect, child) in &branches {
                        if rect.intersects(query) {
                            stack.push(*child);
                        }
                    }
                }
            }
        }
        finish_ids(&mut out, &mut Vec::new(), true);
        sp.items(visited);
        Ok(out)
    }

    /// Stabbing query at a point.
    pub fn stab(&self, p: &Point<D>) -> Result<Vec<RecordId>> {
        self.search(&Rect::from_point(*p))
    }

    fn read_node(&self, page_id: PageId) -> Result<NodeImageKind<D>> {
        self.pool
            .with_page(page_id, |page| decode_node::<D>(page.payload()))?
            .map(|image| image.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use crate::persist;
    use crate::tree::Tree;
    use segidx_storage::{BufferPoolConfig, DiskManager};
    use std::sync::Arc;

    fn build_and_save(n: u64, name: &str) -> (Tree<2>, Arc<DiskManager>, PageId) {
        let dir = std::env::temp_dir().join(format!("segidx-paged-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut tree: Tree<2> = Tree::new(IndexConfig::srtree());
        for i in 0..n {
            let x = ((i * 37) % 5_000) as f64;
            let y = ((i * 113) % 5_000) as f64;
            let len = if i % 9 == 0 { 2_000.0 } else { 25.0 };
            tree.insert(Rect::new([x, y], [x + len, y]), RecordId(i));
        }
        let disk = Arc::new(DiskManager::create(dir.join(name)).unwrap());
        let meta = persist::save(&tree, &disk).unwrap();
        (tree, disk, meta)
    }

    #[test]
    fn paged_search_matches_in_memory() {
        let (tree, disk, meta) = build_and_save(3_000, "match.db");
        let pool = BufferPool::new(Arc::clone(&disk));
        let searcher: PagedSearcher<2> = PagedSearcher::open(&pool, meta).unwrap();
        assert_eq!(searcher.len(), tree.len());
        for q in [
            Rect::new([0.0, 0.0], [500.0, 500.0]),
            Rect::new([1000.0, 0.0], [1010.0, 5000.0]),
            Rect::new([0.0, 0.0], [5000.0, 5000.0]),
        ] {
            assert_eq!(searcher.search(&q).unwrap(), tree.search(&q));
        }
    }

    #[test]
    fn logical_accesses_match_engine() {
        let (tree, disk, meta) = build_and_save(2_000, "logical.db");
        let pool = BufferPool::new(Arc::clone(&disk));
        let searcher: PagedSearcher<2> = PagedSearcher::open(&pool, meta).unwrap();
        let q = Rect::new([100.0, 100.0], [2_000.0, 2_000.0]);
        let engine_accesses = tree.count_search_accesses(&q);
        let before = searcher.logical_accesses();
        searcher.search(&q).unwrap();
        assert_eq!(searcher.logical_accesses() - before, engine_accesses);
    }

    #[test]
    fn small_pool_rereads_pages_large_pool_caches() {
        let (_, disk, meta) = build_and_save(4_000, "pool.db");
        let q = Rect::new([0.0, 0.0], [5_000.0, 5_000.0]);

        // Tiny pool: second scan must fault pages in again.
        let tiny = BufferPool::with_config(
            Arc::clone(&disk),
            BufferPoolConfig {
                capacity_bytes: 8 * 1024,
            },
        );
        let s: PagedSearcher<2> = PagedSearcher::open(&tiny, meta).unwrap();
        s.search(&q).unwrap();
        let after_first = tiny.stats().snapshot().pool_misses;
        s.search(&q).unwrap();
        let after_second = tiny.stats().snapshot().pool_misses;
        assert!(
            after_second > after_first,
            "tiny pool must miss again on the second scan"
        );

        // Generous pool: the second scan is all hits.
        let big = BufferPool::with_config(
            Arc::clone(&disk),
            BufferPoolConfig {
                capacity_bytes: 64 * 1024 * 1024,
            },
        );
        let s: PagedSearcher<2> = PagedSearcher::open(&big, meta).unwrap();
        s.search(&q).unwrap();
        let misses_first = big.stats().snapshot().pool_misses;
        s.search(&q).unwrap();
        let misses_second = big.stats().snapshot().pool_misses;
        assert_eq!(
            misses_first, misses_second,
            "warm pool serves the second scan without physical reads"
        );
    }

    #[test]
    fn stab_through_pages() {
        let (tree, disk, meta) = build_and_save(1_000, "stab.db");
        let pool = BufferPool::new(Arc::clone(&disk));
        let searcher: PagedSearcher<2> = PagedSearcher::open(&pool, meta).unwrap();
        let p = Point::new([1_000.0, 1_000.0]);
        assert_eq!(searcher.stab(&p).unwrap(), tree.stab(&p));
    }

    #[test]
    fn wrong_meta_page_rejected() {
        let (_, disk, _) = build_and_save(100, "badmeta.db");
        let pool = BufferPool::new(Arc::clone(&disk));
        // Page 0 is a tree node, not the metadata page.
        let err = PagedSearcher::<2>::open(&pool, PageId(0)).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }
}
