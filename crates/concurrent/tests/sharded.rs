//! Differential and snapshot-consistency tests for the sharded index.
//!
//! The contract under test: a [`ShardedIndex`] is *observably identical*
//! to the unsharded [`ConcurrentIndex`] over the same logical contents —
//! `search_batch`/`stab_batch` return the same `Vec<Vec<RecordId>>`
//! bit-for-bit, record order included — across all four paper variants
//! and shard counts {1, 2, 4}; and a pinned cross-shard snapshot is
//! frozen: no commit to *any* shard after the pin is ever visible
//! through it.

use proptest::collection::vec;
use proptest::prelude::*;
use segidx_concurrent::{ConcurrentIndex, IndexOp, ShardedIndex, ZOrderRouter};
use segidx_core::tree::Tree;
use segidx_core::{IntervalIndex, RTree, RecordId, SRTree, SkeletonRTree, SkeletonSRTree};
use segidx_geom::{Point, Rect};

const VARIANTS: [&str; 4] = ["R-Tree", "SR-Tree", "Skeleton R-Tree", "Skeleton SR-Tree"];
fn domain() -> Rect<2> {
    Rect::new([0.0, 0.0], [1_000.0, 1_000.0])
}

/// Builds one paper variant over `records` and unwraps it to a bare tree.
fn build_variant(variant: &str, records: &[(Rect<2>, RecordId)]) -> Tree<2> {
    let n = records.len().max(1);
    match variant {
        "R-Tree" => {
            let mut t = RTree::<2>::new();
            for (r, id) in records {
                t.insert(*r, *id);
            }
            t.into_tree()
        }
        "SR-Tree" => {
            let mut t = SRTree::<2>::new();
            for (r, id) in records {
                t.insert(*r, *id);
            }
            t.into_tree()
        }
        "Skeleton R-Tree" => {
            let mut t = SkeletonRTree::<2>::with_prediction(domain(), n, n / 10 + 1);
            for (r, id) in records {
                t.insert(*r, *id);
            }
            t.into_tree()
        }
        "Skeleton SR-Tree" => {
            let mut t = SkeletonSRTree::<2>::with_prediction(domain(), n, n / 10 + 1);
            for (r, id) in records {
                t.insert(*r, *id);
            }
            t.into_tree()
        }
        other => panic!("unknown variant {other}"),
    }
}

/// Raw generated material; record ids and delete targets are resolved
/// deterministically in `resolve`.
#[derive(Clone, Debug)]
enum OpSpec {
    Insert(Rect<2>),
    Delete(usize),
}

fn rect_strategy() -> impl Strategy<Value = Rect<2>> {
    // Points, long horizontal segments, and boxes — the mix that drives
    // segment cutting in SR variants and varied Z-order routing.
    prop_oneof![
        (0.0..1_000.0f64, 0.0..1_000.0f64).prop_map(|(x, y)| Rect::new([x, y], [x, y])),
        (0.0..1_000.0f64, 0.0..1_000.0f64, 0.0..600.0f64)
            .prop_map(|(x, y, len)| Rect::new([x, y], [x + len, y])),
        (0.0..950.0f64, 0.0..950.0f64, 0.0..60.0f64, 0.0..60.0f64)
            .prop_map(|(x, y, w, h)| Rect::new([x, y], [x + w, y + h])),
    ]
}

fn op_strategy() -> impl Strategy<Value = OpSpec> {
    prop_oneof![
        3 => rect_strategy().prop_map(OpSpec::Insert),
        1 => any::<usize>().prop_map(OpSpec::Delete),
    ]
}

/// Resolves specs into a concrete mutation stream: inserts take fresh
/// record ids after the initial load, deletes pick a live record.
fn resolve(initial: &[(Rect<2>, RecordId)], specs: &[OpSpec]) -> Vec<IndexOp<2>> {
    let mut alive: Vec<(Rect<2>, RecordId)> = initial.to_vec();
    let mut next = initial.len() as u64;
    let mut ops = Vec::with_capacity(specs.len());
    for spec in specs {
        match spec {
            OpSpec::Insert(rect) => {
                let record = RecordId(next);
                next += 1;
                alive.push((*rect, record));
                ops.push(IndexOp::Insert {
                    rect: *rect,
                    record,
                });
            }
            OpSpec::Delete(raw) => {
                if alive.is_empty() {
                    continue;
                }
                let (rect, record) = alive.swap_remove(raw % alive.len());
                ops.push(IndexOp::Delete { rect, record });
            }
        }
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// For every paper variant and shard count in {1, 2, 4}: partition the
    /// initial load with the router, drive the identical mutation stream
    /// through the unsharded service and the sharded one, and require
    /// `search_batch`/`stab_batch` to agree **bit-for-bit** — same nesting,
    /// same record ids, same order.
    #[test]
    fn sharded_batches_bit_identical_to_unsharded(
        initial_rects in vec(rect_strategy(), 20..60),
        specs in vec(op_strategy(), 40..120),
        queries in vec(rect_strategy(), 6..12),
        raw_points in vec((0.0..1_100.0f64, 0.0..1_100.0f64), 6..12),
    ) {
        let initial: Vec<(Rect<2>, RecordId)> = initial_rects
            .iter()
            .enumerate()
            .map(|(i, r)| (*r, RecordId(i as u64)))
            .collect();
        let ops = resolve(&initial, &specs);
        let points: Vec<Point<2>> = raw_points
            .iter()
            .map(|&(x, y)| Point::new([x, y]))
            .collect();

        for variant in VARIANTS {
            // Reference: the unsharded service over the full load.
            let reference = ConcurrentIndex::builder(build_variant(variant, &initial))
                .start()
                .unwrap();
            for op in &ops {
                reference.submit(*op).unwrap();
            }
            reference.flush().unwrap();
            let expect_search;
            let expect_stab;
            {
                let snap = reference.snapshot();
                expect_search = snap.search_batch(&queries);
                expect_stab = snap.stab_batch(&points);
            }
            reference.shutdown();

            for shards in [1usize, 2, 4] {
                let router = ZOrderRouter::new(domain(), shards);
                let trees = router
                    .partition(&initial)
                    .iter()
                    .map(|part| build_variant(variant, part))
                    .collect();
                let sharded = ShardedIndex::builder(router, trees).start().unwrap();
                for op in &ops {
                    sharded.submit(*op).unwrap();
                }
                sharded.flush().unwrap();
                let snap = sharded.snapshot();
                snap.assert_invariants();
                prop_assert_eq!(
                    snap.search_batch(&queries),
                    expect_search.clone(),
                    "search_batch diverged: {} x {} shards",
                    variant,
                    shards
                );
                prop_assert_eq!(
                    snap.stab_batch(&points),
                    expect_stab.clone(),
                    "stab_batch diverged: {} x {} shards",
                    variant,
                    shards
                );
                drop(snap);
                sharded.shutdown();
            }
        }
    }
}

/// Splits `domain()` left/right under a 2-shard router: with one prefix bit
/// over 2-D centroids, the shard is the most significant bit of the
/// normalized x coordinate.
fn two_shard_fixture() -> (ShardedIndex<2>, Rect<2>, Rect<2>) {
    let router = ZOrderRouter::new(domain(), 2);
    let left = Rect::new([100.0, 400.0], [120.0, 410.0]);
    let right = Rect::new([800.0, 400.0], [820.0, 410.0]);
    assert_ne!(
        router.route(&left),
        router.route(&right),
        "fixture rects must land on different shards"
    );
    let trees = (0..2).map(|_| build_variant("SR-Tree", &[])).collect();
    let index = ShardedIndex::builder(router, trees).start().unwrap();
    (index, left, right)
}

/// A reader pinned at global epoch E never observes any shard's E+1
/// commit — the cross-shard snapshot is one consistent cut, not a
/// per-shard stitch.
#[test]
fn pinned_global_snapshot_never_observes_later_commits() {
    let (index, left, right) = two_shard_fixture();
    let (left_shard, right_shard) = (
        index.route(&IndexOp::Insert {
            rect: left,
            record: RecordId(0),
        }),
        index.route(&IndexOp::Insert {
            rect: right,
            record: RecordId(1),
        }),
    );

    index
        .submit(IndexOp::Insert {
            rect: left,
            record: RecordId(0),
        })
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(index.global_epoch(), 1);

    let pinned = index.snapshot();
    assert_eq!(pinned.global_epoch(), 1);
    assert_eq!(pinned.shard_epoch(left_shard), 1);
    assert_eq!(pinned.shard_epoch(right_shard), 0);

    // Commit to the *other* shard after the pin.
    index
        .submit(IndexOp::Insert {
            rect: right,
            record: RecordId(1),
        })
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(index.global_epoch(), 2);

    // The pinned guard is frozen at its publication: the later commit is
    // invisible through it, in the epochs and in the data.
    assert_eq!(pinned.global_epoch(), 1);
    assert_eq!(pinned.shard_epoch(right_shard), 0);
    assert_eq!(pinned.len(), 1);
    assert_eq!(pinned.search(&domain()), vec![RecordId(0)]);
    assert_eq!(
        pinned.stab(&Point::new([810.0, 405.0])),
        Vec::<RecordId>::new()
    );

    // A fresh pin observes the new cut, with the untouched shard's epoch
    // carried over unchanged.
    let fresh = index.snapshot();
    assert_eq!(fresh.global_epoch(), 2);
    assert_eq!(fresh.shard_epoch(left_shard), 1);
    assert_eq!(fresh.shard_epoch(right_shard), 1);
    assert_eq!(fresh.search(&domain()), vec![RecordId(0), RecordId(1)]);

    drop(fresh);
    drop(pinned);
    index.shutdown();
}

/// Deletes route to the shard their insert did, so cross-shard contents
/// stay exact under churn, and a global reader pinned across it keeps
/// reading its own vector.
#[test]
fn delete_routing_under_a_pinned_reader() {
    let (index, left, right) = two_shard_fixture();
    index
        .submit(IndexOp::Insert {
            rect: left,
            record: RecordId(0),
        })
        .unwrap();
    index
        .submit(IndexOp::Insert {
            rect: right,
            record: RecordId(1),
        })
        .unwrap();
    index.flush().unwrap();

    let pinned = index.snapshot();
    let pinned_epoch = pinned.global_epoch();

    // Churn: delete + reinsert on both shards, many commits.
    for _ in 0..10 {
        index
            .submit(IndexOp::Delete {
                rect: left,
                record: RecordId(0),
            })
            .unwrap();
        index.flush().unwrap();
        index
            .submit(IndexOp::Insert {
                rect: left,
                record: RecordId(0),
            })
            .unwrap();
        index.flush().unwrap();
    }

    // The pinned reader held its exact vector while 20 later ones were
    // published and dropped around it.
    assert_eq!(pinned.global_epoch(), pinned_epoch);
    assert_eq!(pinned.len(), 2);
    drop(pinned);
    assert_eq!(index.retired_snapshots(), 0);

    let snap = index.snapshot();
    assert_eq!(snap.search(&domain()), vec![RecordId(0), RecordId(1)]);
    drop(snap);
    index.shutdown();
}

/// The sharded handle works from other threads and after shutdown reads
/// keep serving the last published vector.
#[test]
fn sharded_handle_snapshots_across_threads_and_shutdown() {
    let (index, left, right) = two_shard_fixture();
    let handle = index.handle();
    index
        .submit(IndexOp::Insert {
            rect: left,
            record: RecordId(0),
        })
        .unwrap();
    handle
        .submit(IndexOp::Insert {
            rect: right,
            record: RecordId(1),
        })
        .unwrap();
    handle.flush().unwrap();

    let reader = {
        let handle = handle.clone();
        std::thread::spawn(move || {
            let snap = handle.snapshot();
            (snap.global_epoch(), snap.search(&domain()))
        })
    };
    let (epoch, found) = reader.join().unwrap();
    assert!(epoch >= 2);
    assert_eq!(found, vec![RecordId(0), RecordId(1)]);

    index.shutdown();
    assert!(matches!(
        handle.submit(IndexOp::Insert {
            rect: left,
            record: RecordId(9),
        }),
        Err(segidx_concurrent::SubmitError::Closed)
    ));
    assert_eq!(handle.snapshot().search(&domain()).len(), 2);
}

/// Merged nearest-neighbor results are nearest-first with deterministic
/// tie-breaks and agree with the unsharded tree on distances.
#[test]
fn sharded_nearest_matches_unsharded_distances() {
    let records: Vec<(Rect<2>, RecordId)> = (0..80u64)
        .map(|i| {
            let x = ((i * 127) % 1_000) as f64;
            let y = ((i * 331) % 1_000) as f64;
            (Rect::new([x, y], [x + 10.0, y + 4.0]), RecordId(i))
        })
        .collect();
    let reference = build_variant("R-Tree", &records);
    let router = ZOrderRouter::new(domain(), 4);
    let trees = router
        .partition(&records)
        .iter()
        .map(|part| build_variant("R-Tree", part))
        .collect();
    let index = ShardedIndex::builder(router, trees).start().unwrap();
    let snap = index.snapshot();
    for (px, py) in [(10.0, 10.0), (500.0, 500.0), (999.0, 1.0)] {
        let p = Point::new([px, py]);
        for k in [1usize, 5, 20] {
            let merged = snap.nearest(&p, k);
            let expect = reference.nearest(&p, k);
            assert_eq!(merged.len(), expect.len());
            let merged_d: Vec<f64> = merged.iter().map(|n| n.distance).collect();
            let expect_d: Vec<f64> = expect.iter().map(|n| n.distance).collect();
            assert_eq!(merged_d, expect_d, "k={k} at ({px},{py})");
            assert!(
                merged.windows(2).all(|w| w[0].distance < w[1].distance
                    || (w[0].distance == w[1].distance && w[0].record < w[1].record)),
                "deterministic order"
            );
        }
    }
    drop(snap);
    index.shutdown();
}
