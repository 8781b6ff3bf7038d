//! Error-path coverage for persistence: corruption and misuse must surface
//! as errors, never as silently wrong trees.

use segidx_core::{persist, IndexConfig, PagedSearcher, RecordId, Tree};
use segidx_geom::Rect;
use segidx_storage::{
    BufferPool, DiskManager, DiskManagerConfig, Page, PageId, ScriptedFault, StorageError,
};
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::Arc;

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("segidx-perr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn sample_tree(n: u64) -> Tree<2> {
    let mut t: Tree<2> = Tree::new(IndexConfig::srtree());
    for i in 0..n {
        let x = ((i * 37) % 3_000) as f64;
        t.insert(Rect::new([x, x / 2.0], [x + 20.0, x / 2.0]), RecordId(i));
    }
    t
}

#[test]
fn load_from_non_meta_page_fails() {
    let disk = DiskManager::create(temp("nonmeta.db")).unwrap();
    let tree = sample_tree(500);
    let meta = persist::save(&tree, &disk).unwrap();
    // Any non-meta page fails the magic check.
    let victim = disk
        .pages()
        .into_iter()
        .map(|(id, _)| id)
        .find(|id| *id != meta)
        .unwrap();
    let err = persist::load::<2>(&disk, victim).unwrap_err();
    assert!(err.to_string().contains("magic"), "{err}");
}

#[test]
fn load_from_missing_page_fails() {
    let disk = DiskManager::create(temp("missing.db")).unwrap();
    let tree = sample_tree(100);
    let _ = persist::save(&tree, &disk).unwrap();
    let err = persist::load::<2>(&disk, PageId(10_000)).unwrap_err();
    assert!(err.to_string().contains("not found"), "{err}");
}

#[test]
fn corrupted_node_page_fails_load_with_checksum_error() {
    let path = temp("corrupt.db");
    let meta;
    {
        let disk = DiskManager::create(&path).unwrap();
        let tree = sample_tree(2_000);
        meta = persist::save(&tree, &disk).unwrap();
        disk.sync().unwrap();
    }
    // Flip bytes inside the first page's payload (the first node is
    // allocated at slot 0; offset 30 is past its 20-byte header, within the
    // checksummed payload — corrupting zero *padding* would be undetectable
    // by design).
    let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.seek(SeekFrom::Start(30)).unwrap();
    f.write_all(&[0xAB; 16]).unwrap();
    f.sync_all().unwrap();
    drop(f);

    let disk = DiskManager::open(&path).unwrap();
    let err = persist::load::<2>(&disk, meta).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("checksum") || msg.contains("corrupt"),
        "unexpected error: {msg}"
    );
    // And the fsck scan pinpoints the page.
    assert!(!disk.verify_all().is_empty());
}

#[test]
fn paged_searcher_surfaces_corruption_at_query_time() {
    let path = temp("query-corrupt.db");
    let meta;
    let victim;
    {
        let disk = DiskManager::create(&path).unwrap();
        let tree = sample_tree(2_000);
        meta = persist::save(&tree, &disk).unwrap();
        disk.sync().unwrap();
        // Pick a 1 KB (leaf) page to corrupt.
        victim = disk
            .pages()
            .into_iter()
            .find(|(id, c)| *id != meta && c.raw() == 0)
            .map(|(id, _)| id)
            .unwrap();
    }
    // Corrupt exactly that page on disk: its slot is unknown here, so hit
    // the whole file region beyond the header of every 1 KB slot.
    {
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let mut off = 512u64;
        while off < len {
            f.seek(SeekFrom::Start(off)).unwrap();
            f.write_all(&[0xCD]).unwrap();
            off += 1024;
        }
        f.sync_all().unwrap();
    }
    let disk = Arc::new(DiskManager::open(&path).unwrap());
    let pool = BufferPool::new(Arc::clone(&disk));
    // Opening may already fail (if the meta page got hit) — both outcomes
    // are acceptable as long as nothing succeeds silently.
    match PagedSearcher::<2>::open(&pool, meta) {
        Err(_) => {}
        Ok(searcher) => {
            let full = Rect::new([0.0, 0.0], [10_000.0, 10_000.0]);
            let result = searcher.search(&full);
            assert!(result.is_err(), "corrupted pages must fail the search");
        }
    }
    let _ = victim;
}

#[test]
fn failed_sync_surfaces_and_commit_does_not_advance() {
    let path = temp("syncfail.db");
    // Barriers: #0/#1 are create's data+meta-commit pair; #2 is the first
    // explicit sync's data barrier — fail it.
    let fault = Arc::new(ScriptedFault::fail_nth_sync(2));
    let cfg = DiskManagerConfig {
        fault_injector: Some(fault as Arc<_>),
    };
    let disk = DiskManager::create_with(&path, cfg).unwrap();
    let epoch_before = disk.epoch();
    let tree = sample_tree(300);
    let err = persist::commit(&tree, &disk).unwrap_err();
    assert!(err.is_injected(), "{err}");
    assert_eq!(
        disk.epoch(),
        epoch_before,
        "a failed sync must not claim durability"
    );
    // The fault was one-shot: the retry commits and a clean reopen loads.
    let meta = persist::commit(&tree, &disk).unwrap();
    assert_eq!(disk.epoch(), epoch_before + 1);
    drop(disk);
    let disk = DiskManager::open(&path).unwrap();
    assert_eq!(disk.root(), Some(meta));
    let back: Tree<2> = persist::load(&disk, meta).unwrap();
    assert_eq!(back.entry_count(), tree.entry_count());
}

#[test]
fn save_load_is_idempotent_across_multiple_trees_in_one_file() {
    let disk = DiskManager::create(temp("multi.db")).unwrap();
    let a = sample_tree(800);
    let mut b: Tree<2> = Tree::new(IndexConfig::rtree());
    for i in 0..300u64 {
        b.insert(
            Rect::new([i as f64, 0.0], [i as f64 + 1.0, 1.0]),
            RecordId(i),
        );
    }
    let meta_a = persist::save(&a, &disk).unwrap();
    let meta_b = persist::save(&b, &disk).unwrap();
    // Two independent trees coexist in one page file.
    let la: Tree<2> = persist::load(&disk, meta_a).unwrap();
    let lb: Tree<2> = persist::load(&disk, meta_b).unwrap();
    la.assert_invariants();
    lb.assert_invariants();
    assert_eq!(la.len(), 800);
    assert_eq!(lb.len(), 300);
    let q = Rect::new([0.0, 0.0], [5_000.0, 5_000.0]);
    assert_eq!(la.search(&q), a.search(&q));
    assert_eq!(lb.search(&q), b.search(&q));
}

/// An edit of a meta page payload.
type MetaEdit = fn(&mut Vec<u8>);

/// A meta page whose config this build cannot honour (split tag 1, the
/// deleted linear split; 48 in the folded `entry_bytes` slot; a
/// `check_interval` of 0) is a typed error for `load`, `PagedSearcher::open`
/// and a clean `recover`, and a salvaging `recover` rebuilds under its
/// fallback config instead of panicking. The page is rewritten through
/// `write_page`, so its checksum stays valid. Payload offsets: a 36-byte
/// header, then the config (`entry_bytes` at 46, split tag 71, coalesce
/// tag 72).
#[test]
fn meta_config_this_build_cannot_honour_is_a_typed_error() {
    let cases: [(&str, MetaEdit); 3] = [
        ("split-tag-1.db", |p| p[71] = 1),
        ("entry-bytes-48.db", |p| {
            p[46..54].copy_from_slice(&48u64.to_le_bytes())
        }),
        ("check-interval-0.db", |p| {
            let coalesce = [&[1][..], &0u64.to_le_bytes(), &10u64.to_le_bytes()].concat();
            p.splice(72..73, coalesce);
        }),
    ];
    for (name, edit) in cases {
        let path = temp(name);
        let disk = Arc::new(DiskManager::create(&path).unwrap());
        let meta = persist::commit(&sample_tree(500), &disk).unwrap();
        let mut payload = disk.read_page(meta).unwrap().payload().to_vec();
        edit(&mut payload);
        let mut page = Page::new(meta, disk.size_class_of(meta).unwrap());
        page.set_payload(&payload).unwrap();
        disk.write_page(&page).unwrap();
        disk.sync().unwrap();
        let decode = |e: StorageError| assert!(matches!(e, StorageError::Decode(_)), "{name}: {e}");
        decode(persist::load::<2>(&disk, meta).unwrap_err());
        decode(PagedSearcher::<2>::open(&BufferPool::new(Arc::clone(&disk)), meta).unwrap_err());
        drop(disk);

        let (disk, report) = DiskManager::open_repair(&path, Default::default(), None).unwrap();
        assert!(report.is_clean(), "{name}");
        decode(persist::recover::<2>(&disk, &report, None).unwrap_err());
        drop(disk);
        // Corrupt the first node page (slot 0, past its header): the repair
        // quarantines it, and `recover` salvages.
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(30)).unwrap();
        f.write_all(&[0xAB; 16]).unwrap();
        drop(f);
        let (disk, report) = DiskManager::open_repair(&path, Default::default(), None).unwrap();
        let (tree, rr) = persist::recover::<2>(&disk, &report, None).unwrap();
        assert!(rr.rebuilt, "{name}");
        assert_eq!(tree.config(), &IndexConfig::srtree(), "{name}");
        tree.assert_invariants();
    }
}
