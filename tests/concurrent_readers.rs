//! Concurrent read access: `Tree` is `Sync`, so any number of threads may
//! search one index simultaneously while another (immutable) index is
//! joined against it — and a batch of queries on one thread returns what
//! the serial loop does, counters included.

use segidx_core::{build_skeleton, IndexConfig, RecordId, SkeletonSpec, Tree};
use segidx_geom::{Point, Rect};
use segidx_workloads::{queries_for_qar, DataDistribution, DOMAIN_MAX};
use std::sync::Arc;

// Compile-time proof that shared search access is allowed.
fn assert_sync<T: Sync>() {}

#[test]
fn tree_is_sync_and_send() {
    assert_sync::<Tree<2>>();
    fn assert_send<T: Send>() {}
    assert_send::<Tree<2>>();
}

#[test]
fn parallel_searches_agree_with_serial() {
    let dataset = DataDistribution::I3.generate(10_000, 13);
    let mut tree: Tree<2> = Tree::new(IndexConfig::srtree());
    for (r, id) in &dataset.records {
        tree.insert(*r, *id);
    }
    let tree = Arc::new(tree);

    let queries: Vec<Rect<2>> = [0.001, 1.0, 1000.0]
        .iter()
        .flat_map(|&q| queries_for_qar(q, 30, 5).queries)
        .collect();
    let serial: Vec<Vec<RecordId>> = queries.iter().map(|q| tree.search(q)).collect();

    std::thread::scope(|scope| {
        for t in 0..6 {
            let tree = Arc::clone(&tree);
            let queries = &queries;
            let serial = &serial;
            scope.spawn(move || {
                // Each thread walks the query list from a different offset.
                for k in 0..queries.len() {
                    let i = (k + t * 17) % queries.len();
                    assert_eq!(tree.search(&queries[i]), serial[i], "query {i}");
                }
                // Mix in stabs and kNN.
                let p = Point::new([5_000.0 + t as f64, 5_000.0]);
                let knn = tree.nearest(&p, 5);
                assert_eq!(knn.len(), 5);
            });
        }
    });

    // Counters aggregated across threads without tearing: 6 threads × (90
    // searches + 1 kNN) plus the 90 serial searches.
    let snap = tree.stats();
    assert_eq!(snap.searches, 90 + 6 * 91);
}

#[test]
fn search_batch_equals_serial_search_for_all_variants() {
    // Property: `search_batch` ≡ per-query `search` — same ids, same order —
    // for every paper variant, and the stats counters aggregate to the same
    // totals as the serial loop's.
    let n = 10_000;
    let dataset = DataDistribution::I3.generate(n, 13);
    let domain = Rect::new([0.0, 0.0], [DOMAIN_MAX, DOMAIN_MAX]);

    let mut rtree = Tree::<2>::new(IndexConfig::rtree());
    let mut srtree = Tree::<2>::new(IndexConfig::srtree());
    let spec = SkeletonSpec::predict(domain, n, &dataset.records[..n / 10]);
    let mut sk_r = build_skeleton(IndexConfig::skeleton_rtree(), &spec);
    let mut sk_sr = build_skeleton(IndexConfig::skeleton_srtree(), &spec);
    for (r, id) in &dataset.records {
        rtree.insert(*r, *id);
        srtree.insert(*r, *id);
        sk_r.insert(*r, *id);
        sk_sr.insert(*r, *id);
    }

    let queries: Vec<Rect<2>> = [0.001, 1.0, 1000.0]
        .iter()
        .flat_map(|&q| queries_for_qar(q, 25, 5).queries)
        .collect();

    let trees: Vec<(&str, &Tree<2>)> = vec![
        ("R-Tree", &rtree),
        ("SR-Tree", &srtree),
        ("Skeleton R-Tree", &sk_r),
        ("Skeleton SR-Tree", &sk_sr),
    ];
    for (name, tree) in trees {
        let before = tree.stats();
        let serial: Vec<Vec<RecordId>> = queries.iter().map(|q| tree.search(q)).collect();
        let serial_snap = tree.stats().diff(&before);
        assert!(
            serial.iter().any(|ids| !ids.is_empty()),
            "{name}: degenerate workload"
        );
        let before = tree.stats();
        assert_eq!(tree.search_batch(&queries), serial, "{name}");
        let snap = tree.stats().diff(&before);
        assert_eq!(
            snap.searches,
            queries.len() as u64,
            "{name}: one flush per query"
        );
        assert_eq!(
            snap.search_node_accesses, serial_snap.search_node_accesses,
            "{name}: the batch flushes the serial loop's access total"
        );
        assert_eq!(
            snap.search_results, serial_snap.search_results,
            "{name}: the batch flushes the serial loop's result total"
        );
    }
}

#[test]
fn tree_level_batches_match_serial() {
    let dataset = DataDistribution::I3.generate(10_000, 29);
    for config in [IndexConfig::rtree(), IndexConfig::srtree()] {
        let mut tree: Tree<2> = Tree::new(config);
        for (r, id) in &dataset.records {
            tree.insert(*r, *id);
        }
        let queries: Vec<Rect<2>> = [0.01, 100.0]
            .iter()
            .flat_map(|&q| queries_for_qar(q, 40, 11).queries)
            .collect();
        let serial: Vec<Vec<RecordId>> = queries.iter().map(|q| tree.search(q)).collect();
        let before = tree.stats();
        assert_eq!(tree.search_batch(&queries), serial);
        assert_eq!(tree.stats().diff(&before).searches, queries.len() as u64);

        let points: Vec<Point<2>> = (0..60)
            .map(|i| Point::new([((i * 1_999) % 100_000) as f64, ((i * 733) % 100_000) as f64]))
            .collect();
        let stab_serial: Vec<Vec<RecordId>> = points.iter().map(|p| tree.stab(p)).collect();
        assert_eq!(tree.stab_batch(&points), stab_serial);
    }
}

#[test]
fn join_runs_against_shared_trees() {
    let a = DataDistribution::R1.generate(2_000, 1);
    let b = DataDistribution::R1.generate(2_000, 2);
    let build = |ds: &segidx_workloads::Dataset| {
        let mut t: Tree<2> = Tree::new(IndexConfig::rtree());
        for (r, id) in &ds.records {
            t.insert(*r, *id);
        }
        Arc::new(t)
    };
    let ta = build(&a);
    let tb = build(&b);
    let expected = ta.join(&tb);

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let ta = Arc::clone(&ta);
            let tb = Arc::clone(&tb);
            let expected = &expected;
            scope.spawn(move || {
                assert_eq!(&ta.join(&tb), expected);
            });
        }
    });
}
