//! Concurrency and integrity tests for the storage substrate.

use segidx_storage::{BufferPool, BufferPoolConfig, DiskManager, Page, SizeClass};
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::Arc;

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("segidx-conc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn concurrent_readers_through_the_pool() {
    let disk = Arc::new(DiskManager::create(temp("mt.db")).unwrap());
    let capacity_bytes = 16 * 1024; // small: force constant eviction
    let write = |class: u8, tag: u8, len: usize| {
        let id = disk.allocate(SizeClass::new(class)).unwrap();
        let mut page = Page::new(id, SizeClass::new(class));
        page.set_payload(&vec![tag; len]).unwrap();
        disk.write_page(&page).unwrap();
        id
    };
    // 64 one-slot pages, each tagged with its index, and one 32 KB page —
    // twice the pool's whole budget — tagged 0xFF.
    let mut ids: Vec<_> = (0..64u8).map(|i| write(0, i, 100)).collect();
    ids.push(write(5, 0xFF, 20_000));
    disk.sync().unwrap();
    let pool = Arc::new(BufferPool::with_config(
        Arc::clone(&disk),
        BufferPoolConfig { capacity_bytes },
    ));

    std::thread::scope(|scope| {
        // Four readers hammering overlapping pages. Every read must see a
        // page whose bytes are self-consistent (all equal to its tag), and
        // the pool must be inside its budget after every access.
        for t in 0..4 {
            let pool = Arc::clone(&pool);
            let ids = ids.clone();
            scope.spawn(move || {
                for round in 0..300usize {
                    let idx = (round * 7 + t * 13) % ids.len();
                    let tag = pool
                        .with_page(ids[idx], |p| {
                            let bytes = p.payload();
                            assert!(!bytes.is_empty(), "empty page read");
                            assert!(bytes.iter().all(|&b| b == bytes[0]), "torn page read");
                            bytes[0]
                        })
                        .unwrap();
                    let want = if idx == 64 { 0xFF } else { idx as u8 };
                    assert_eq!(tag, want, "page {idx} read another page's bytes");
                    assert!(pool.cached_bytes() <= capacity_bytes, "pool over budget");
                }
            });
        }
    });

    // The oversized page was read, and never stayed: nothing it displaced
    // can make room for it.
    let snap = pool.stats().snapshot();
    assert!(snap.pool_hits > 0 && snap.evictions > 0);
    let big = pool.with_page(ids[64], |p| p.payload().len()).unwrap();
    assert_eq!(big, 20_000);
    assert_eq!(pool.cached_bytes(), 0, "the oversized page was evicted");
    assert!(disk.verify_all().is_empty(), "readers left the file clean");
}

#[test]
fn verify_all_detects_on_disk_corruption() {
    let path = temp("fsck.db");
    let disk = DiskManager::create(&path).unwrap();
    let ids: Vec<_> = (0..8)
        .map(|i| {
            let id = disk.allocate(SizeClass::new(0)).unwrap();
            let mut page = Page::new(id, SizeClass::new(0));
            page.set_payload(&[i as u8; 64]).unwrap();
            disk.write_page(&page).unwrap();
            id
        })
        .collect();
    disk.sync().unwrap();
    assert!(disk.verify_all().is_empty());
    drop(disk);

    // Corrupt the third page's payload directly on disk.
    let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.seek(SeekFrom::Start(2 * 1024 + 30)).unwrap();
    f.write_all(&[0xFF; 8]).unwrap();
    f.sync_all().unwrap();
    drop(f);

    let disk = DiskManager::open(&path).unwrap();
    let bad = disk.verify_all();
    assert_eq!(bad.len(), 1, "exactly one corrupt page: {bad:?}");
    assert_eq!(bad[0].0, ids[2]);
    assert!(bad[0].1.contains("checksum"));
    // Healthy pages still read.
    assert_eq!(disk.read_page(ids[0]).unwrap().payload(), &[0u8; 64][..]);
}
