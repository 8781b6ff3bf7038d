//! Snapshot semantics: a reader pinned at epoch *N* continues to observe
//! exactly epoch *N*'s index — same results, same invariants — no matter
//! how many later epochs the writer publishes, for all four paper
//! variants, including delete-heavy streams. The two skeletons are
//! predicted from a tenth of the input and coalesce under group commit.

use segidx_concurrent::{ConcurrentIndex, IndexOp, SnapshotGuard, SubmitError};
use segidx_core::tree::Tree;
use segidx_core::{build_skeleton, IndexConfig, RecordId, SkeletonSpec};
use segidx_geom::{Point, Rect};
use segidx_workloads::{queries_for_qar, DataDistribution, Dataset, DOMAIN_MAX};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const N: usize = 4_000;

/// `tree` with the first half of `dataset` loaded.
fn preload(mut tree: Tree<2>, dataset: &Dataset) -> Tree<2> {
    for (r, id) in &dataset.records[..N / 2] {
        tree.insert(*r, *id);
    }
    tree
}

/// The four paper variants with the first half of `dataset` loaded; the
/// skeletons are predicted from its first N/10 records.
fn variants(dataset: &Dataset) -> [(&'static str, Tree<2>); 4] {
    let domain = Rect::new([0.0, 0.0], [DOMAIN_MAX, DOMAIN_MAX]);
    let spec = SkeletonSpec::predict(domain, N, &dataset.records[..N / 10]);
    let skeleton = |config| preload(build_skeleton(config, &spec), dataset);
    [
        ("R-Tree", preload(Tree::new(IndexConfig::rtree()), dataset)),
        (
            "SR-Tree",
            preload(Tree::new(IndexConfig::srtree()), dataset),
        ),
        ("Skeleton R-Tree", skeleton(IndexConfig::skeleton_rtree())),
        ("Skeleton SR-Tree", skeleton(IndexConfig::skeleton_srtree())),
    ]
}

/// Checks `snap.nearest(p, 7)` at a few probe points against brute force
/// over `live`: the distances of its seven nearest records, nearest first.
fn assert_nearest(name: &str, snap: &SnapshotGuard<2>, live: &[(Rect<2>, RecordId)]) {
    for i in 0..8u64 {
        let p = Point::new([(i * 12_347 % 100_000) as f64, (i * 31_337 % 100_000) as f64]);
        let got: Vec<f64> = snap.nearest(&p, 7).iter().map(|n| n.distance).collect();
        let mut want: Vec<f64> = live.iter().map(|(r, _)| r.min_dist(&p)).collect();
        want.sort_by(f64::total_cmp);
        want.truncate(7);
        assert_eq!(got.len(), want.len(), "{name}: nearest at {p:?}");
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "{name}: nearest at {p:?}: {g} vs {w}");
        }
    }
}

fn submit_all(index: &ConcurrentIndex<2>, ops: impl IntoIterator<Item = IndexOp<2>>) {
    for op in ops {
        loop {
            match index.submit(op) {
                Ok(_) => break,
                Err(SubmitError::Overloaded { .. }) => std::thread::yield_now(),
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
    }
}

#[test]
fn pinned_snapshot_is_immutable_across_later_epochs_all_variants() {
    let dataset = DataDistribution::I3.generate(N, 17);
    let queries: Vec<Rect<2>> = [0.01, 1.0, 500.0]
        .iter()
        .flat_map(|&q| queries_for_qar(q, 10, 7).queries)
        .collect();
    for (name, tree) in variants(&dataset) {
        pinned_sees_epoch_n(name, tree, &dataset, &queries);
    }
}

/// Serves `tree`, pins epoch N, publishes N+1 (the second half of the
/// dataset) and N+2 (deletes of a third of the first half), and checks the
/// pinned reader still sees exactly epoch N, and both it and a fresh
/// snapshot answer `nearest` as brute force does over their records.
fn pinned_sees_epoch_n(name: &str, tree: Tree<2>, dataset: &Dataset, queries: &[Rect<2>]) {
    let index = ConcurrentIndex::builder(tree).start().unwrap();

    // Pin epoch N and record everything it answers.
    let pinned = index.snapshot();
    let pinned_epoch = pinned.epoch();
    let pinned_len = pinned.len();
    let pinned_results: Vec<Vec<RecordId>> = queries.iter().map(|q| pinned.search(q)).collect();

    // Publish N+1: the second half of the dataset.
    submit_all(
        &index,
        dataset.records[N / 2..]
            .iter()
            .map(|(r, id)| IndexOp::Insert {
                rect: *r,
                record: *id,
            }),
    );
    index.flush().unwrap();
    assert!(index.epoch() > pinned_epoch, "{name}: N+1 published");

    // Publish N+2 (and beyond): delete a third of the original half.
    submit_all(
        &index,
        dataset.records[..N / 6]
            .iter()
            .map(|(r, id)| IndexOp::Delete {
                rect: *r,
                record: *id,
            }),
    );
    index.flush().unwrap();
    assert!(index.epoch() >= pinned_epoch + 2, "{name}: N+2 published");

    // The pinned reader still sees exactly epoch N.
    assert_eq!(pinned.epoch(), pinned_epoch, "{name}");
    assert_eq!(pinned.len(), pinned_len, "{name}: len frozen");
    for (q, expect) in queries.iter().zip(&pinned_results) {
        assert_eq!(&pinned.search(q), expect, "{name}: results frozen");
    }
    assert_eq!(pinned.check_invariants(), Vec::<String>::new(), "{name}");
    assert_nearest(name, &pinned, &dataset.records[..N / 2]);

    // A fresh snapshot sees the new world, also valid.
    let fresh = index.snapshot();
    assert_eq!(fresh.len(), N - N / 6, "{name}");
    assert_eq!(fresh.check_invariants(), Vec::<String>::new(), "{name}");
    assert_nearest(name, &fresh, &dataset.records[N / 6..]);
    drop(pinned);
    drop(fresh);

    // The last guard on a replaced snapshot freed it as it dropped.
    assert_eq!(index.retired_snapshots(), 0, "{name}");
}

#[test]
fn delete_heavy_stream_keeps_pinned_snapshot_intact() {
    let dataset = DataDistribution::R1.generate(N, 5);
    for (name, tree) in variants(&dataset) {
        pinned_survives_deleting_everything(name, tree, &dataset);
    }
}

/// Serves `tree`, pins it, deletes everything it holds across several
/// group commits, and checks the pinned snapshot still answers with every
/// deleted record.
fn pinned_survives_deleting_everything(name: &str, tree: Tree<2>, dataset: &Dataset) {
    let index = ConcurrentIndex::builder(tree)
        .max_batch(64)
        .start()
        .unwrap();
    let whole = Rect::new([0.0, 0.0], [DOMAIN_MAX, DOMAIN_MAX]);

    let pinned = index.snapshot();
    let before: BTreeSet<RecordId> = pinned.search(&whole).into_iter().collect();
    assert_eq!(before.len(), N / 2, "{name}: pinned sees the full load");

    submit_all(
        &index,
        dataset.records[..N / 2]
            .iter()
            .map(|(r, id)| IndexOp::Delete {
                rect: *r,
                record: *id,
            }),
    );
    index.flush().unwrap();

    let empty = index.snapshot();
    assert_eq!(empty.len(), 0, "{name}: live index fully drained");
    assert_eq!(empty.check_invariants(), Vec::<String>::new(), "{name}");

    let after: BTreeSet<RecordId> = pinned.search(&whole).into_iter().collect();
    assert_eq!(before, after, "{name}: deletes invisible at pinned epoch");
    assert_eq!(pinned.check_invariants(), Vec::<String>::new(), "{name}");
}

#[test]
fn readers_make_progress_while_commit_is_in_flight() {
    // The commit hook blocks the writer *mid-commit* (after the batch is
    // applied, before it is published). Readers must still pin, search,
    // and unpin — never waiting on the writer.
    let in_hook = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let (hook_flag, release_flag) = (Arc::clone(&in_hook), Arc::clone(&release));

    let dataset = DataDistribution::I3.generate(1_000, 3);
    let mut seed = Tree::<2>::new(IndexConfig::srtree());
    for (r, id) in &dataset.records {
        seed.insert(*r, *id);
    }
    let index = ConcurrentIndex::builder(seed)
        .commit_hook(Box::new(move |_epoch| {
            hook_flag.store(true, Ordering::SeqCst);
            while !release_flag.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        }))
        .start()
        .unwrap();

    let epoch_before = index.epoch();
    index
        .submit(IndexOp::Insert {
            rect: Rect::new([3.0, 3.0], [4.0, 4.0]),
            record: RecordId(999_999),
        })
        .unwrap();
    while !in_hook.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }

    // Writer is now parked mid-commit. Take and use many snapshots from
    // several threads; all of this completes while the commit is in flight.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let handle = index.handle();
            scope.spawn(move || {
                for _ in 0..200 {
                    let snap = handle.snapshot();
                    assert_eq!(snap.epoch(), epoch_before, "commit not yet published");
                    assert_eq!(snap.len(), 1_000);
                    let hits = snap.search(&Rect::new([0.0, 0.0], [DOMAIN_MAX, DOMAIN_MAX]));
                    assert_eq!(hits.len(), 1_000);
                }
            });
        }
    });
    assert!(
        in_hook.load(Ordering::SeqCst) && index.epoch() == epoch_before,
        "all reader work happened while the commit was still in flight"
    );

    release.store(true, Ordering::SeqCst);
    let receipt = index.flush().unwrap();
    assert!(receipt.epoch > epoch_before);
    assert_eq!(index.snapshot().len(), 1_001);
}
