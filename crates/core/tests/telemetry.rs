//! End-to-end telemetry tests: latency histograms fill for every timed
//! operation, and the disabled default records nothing.

use segidx_core::{
    bulk::bulk_load_with_telemetry, IndexConfig, IntervalIndex, RecordId, Skeleton, Tree,
    TreeTelemetry,
};
use segidx_geom::{Point, Rect};
use std::sync::Arc;

fn seg(x0: f64, x1: f64, y: f64) -> Rect<2> {
    Rect::new([x0, y], [x1, y])
}

fn grow(tree: &mut Tree<2>, n: u64) {
    for i in 0..n {
        let x = (i % 50) as f64 * 10.0;
        let y = (i / 50) as f64 * 10.0;
        let len = if i % 11 == 0 { 300.0 } else { 4.0 };
        tree.insert(seg(x, x + len, y), RecordId(i));
    }
}

#[test]
fn histograms_fill_for_every_operation() {
    let telemetry = Arc::new(TreeTelemetry::new());
    let mut t: Tree<2> = Tree::new(IndexConfig::srtree());
    t.set_telemetry(Some(Arc::clone(&telemetry)));
    grow(&mut t, 800);
    t.search(&Rect::new([0.0, 0.0], [100.0, 100.0]));
    t.stab(&Point::new([50.0, 50.0]));
    t.nearest(&Point::new([250.0, 80.0]), 3);
    t.delete(&seg(0.0, 4.0, 0.0), RecordId(0));

    let snap = telemetry.snapshot();
    assert_eq!(snap.insert.count, 800);
    assert_eq!(snap.search.count, 1);
    assert_eq!(snap.stab.count, 1);
    assert_eq!(snap.nearest.count, 1);
    assert_eq!(snap.delete.count, 1);
    assert!(snap.insert.p99().is_some());
    assert!(snap.insert.max >= snap.insert.p50().unwrap_or(0));
}

#[test]
fn disabled_telemetry_records_nothing() {
    let mut t: Tree<2> = Tree::new(IndexConfig::srtree());
    grow(&mut t, 500);
    t.search(&Rect::new([0.0, 0.0], [100.0, 100.0]));
    assert!(t.telemetry().is_none());
    // Stats still work as before.
    assert_eq!(t.stats().searches, 1);
}

#[test]
fn trait_objects_install_and_expose_telemetry() {
    let mut index: Box<dyn IntervalIndex<2>> = Box::new(Tree::new(IndexConfig::srtree()));
    let telemetry = Arc::new(TreeTelemetry::new());
    index.set_telemetry(Some(Arc::clone(&telemetry)));
    index.insert(seg(0.0, 5.0, 1.0), RecordId(1));
    index.search(&seg(0.0, 10.0, 1.0));
    let snap = telemetry.snapshot();
    assert_eq!(snap.insert.count, 1);
    assert_eq!(snap.search.count, 1);
}

#[test]
fn skeleton_carries_telemetry_through_the_buffering_phase() {
    let domain = Rect::new([0.0, 0.0], [1_000.0, 1_000.0]);
    let mut s = Skeleton::<2>::new(IndexConfig::skeleton_srtree(), domain, 2_000, 200);
    let telemetry = Arc::new(TreeTelemetry::new());
    // Install while still buffering: inserts into the buffer are not index
    // operations, so nothing records yet.
    s.set_telemetry(Some(Arc::clone(&telemetry)));
    for i in 0..150u64 {
        s.insert(
            seg(
                (i * 6) as f64 % 900.0,
                (i * 6) as f64 % 900.0 + 5.0,
                i as f64,
            ),
            RecordId(i),
        );
    }
    assert!(
        matches!(
            s,
            Skeleton::Buffering {
                telemetry: Some(_),
                ..
            }
        ),
        "telemetry held while buffering"
    );
    assert_eq!(telemetry.snapshot().insert.count, 0);
    // Construction replays the buffer through real inserts.
    s.finalize();
    assert!(matches!(&s, Skeleton::Built(t) if t.telemetry().is_some()));
    assert_eq!(telemetry.snapshot().insert.count, 150);
}

#[test]
fn batch_queries_record_per_query_latency() {
    let telemetry = Arc::new(TreeTelemetry::new());
    let mut t: Tree<2> = Tree::new(IndexConfig::srtree());
    t.set_telemetry(Some(Arc::clone(&telemetry)));
    grow(&mut t, 1_000);
    let before = telemetry.snapshot().search.count;
    let queries: Vec<Rect<2>> = (0..64)
        .map(|i| {
            let x = (i * 7) as f64;
            Rect::new([x, 0.0], [x + 40.0, 200.0])
        })
        .collect();
    let results = t.search_batch(&queries);
    assert_eq!(results.len(), 64);
    let after = telemetry.snapshot().search.count;
    assert_eq!(after - before, 64, "one latency observation per query");
}

#[test]
fn bulk_load_records_build_time() {
    let telemetry = Arc::new(TreeTelemetry::new());
    let items: Vec<(Rect<2>, RecordId)> = (0..3_000u64)
        .map(|i| {
            (
                seg((i % 60) as f64 * 8.0, (i % 60) as f64 * 8.0 + 3.0, i as f64),
                RecordId(i),
            )
        })
        .collect();
    let t = bulk_load_with_telemetry(IndexConfig::rtree(), items, Arc::clone(&telemetry));
    assert_eq!(t.len(), 3_000);
    let snap = telemetry.snapshot();
    assert_eq!(snap.bulk_load.count, 1);
    assert!(t.telemetry().is_some(), "telemetry installed on the result");
}
