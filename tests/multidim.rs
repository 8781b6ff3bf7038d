//! The engine across dimensionalities: the 1-D rule-lock special case of
//! paper §2.2 and 3-D boxes, differentially tested against brute force.

use segidx_core::{IndexConfig, RecordId, Tree};
use segidx_geom::{Interval, Rect};

#[test]
fn one_dimensional_interval_index() {
    // Mixed interval and point predicates over a salary-like domain —
    // exactly the rule-lock workload of §2.2.
    let mut records: Vec<(Rect<1>, RecordId)> = Vec::new();
    for i in 0..5_000u64 {
        let lo = ((i * 131) % 90_000) as f64;
        let len = match i % 10 {
            0 => 0.0,      // event/point predicate
            1 => 40_000.0, // very long predicate
            _ => 25.0 + (i % 400) as f64,
        };
        records.push((
            Rect::from_intervals([Interval::new(lo, lo + len)]),
            RecordId(i),
        ));
    }

    let mut r: Tree<1> = Tree::new(IndexConfig::rtree());
    let mut sr: Tree<1> = Tree::new(IndexConfig::srtree());
    for (rect, id) in &records {
        r.insert(*rect, *id);
        sr.insert(*rect, *id);
    }
    assert!(r.check_invariants().is_empty());
    assert!(sr.check_invariants().is_empty());
    assert!(
        sr.stats().spanning_stores > 0,
        "long 1-D predicates become spanning records"
    );

    for probe in [0.0, 500.0, 42_000.0, 89_999.0, 130_000.0] {
        let q = Rect::from_intervals([Interval::point(probe)]);
        let mut expected: Vec<RecordId> = records
            .iter()
            .filter(|(rect, _)| rect.intersects(&q))
            .map(|(_, id)| *id)
            .collect();
        expected.sort_unstable();
        assert_eq!(r.search(&q), expected, "R-Tree stab at {probe}");
        assert_eq!(sr.search(&q), expected, "SR-Tree stab at {probe}");
    }
}

#[test]
fn three_dimensional_boxes() {
    // Spatio-temporal boxes: (x, y, time) with skewed time extents.
    let mut records: Vec<(Rect<3>, RecordId)> = Vec::new();
    for i in 0..4_000u64 {
        let x = ((i * 37) % 1_000) as f64;
        let y = ((i * 91) % 1_000) as f64;
        let t = ((i * 17) % 1_000) as f64;
        let dur = if i % 12 == 0 { 500.0 } else { 5.0 };
        records.push((
            Rect::new([x, y, t], [x + 4.0, y + 4.0, (t + dur).min(1_000.0)]),
            RecordId(i),
        ));
    }

    for config in [IndexConfig::rtree(), IndexConfig::srtree()] {
        let segment = config.segment;
        let mut tree: Tree<3> = Tree::new(config);
        for (rect, id) in &records {
            tree.insert(*rect, *id);
        }
        tree.assert_invariants();

        let queries = [
            Rect::new([0.0, 0.0, 0.0], [100.0, 100.0, 1_000.0]),
            Rect::new([400.0, 400.0, 500.0], [600.0, 600.0, 501.0]),
            Rect::new([0.0, 0.0, 250.0], [1_000.0, 1_000.0, 250.0]), // time slice
        ];
        for q in &queries {
            let mut expected: Vec<RecordId> = records
                .iter()
                .filter(|(rect, _)| rect.intersects(q))
                .map(|(_, id)| *id)
                .collect();
            expected.sort_unstable();
            assert_eq!(tree.search(q), expected, "segment={segment} query {q:?}");
        }

        // Deletes work in 3-D too.
        for (rect, id) in records.iter().take(500) {
            assert!(tree.delete(rect, *id), "segment={segment}");
        }
        tree.assert_invariants();
        assert_eq!(tree.len(), records.len() - 500);
    }
}

#[test]
fn three_dimensional_skeleton_and_bulk() {
    let domain: Rect<3> = Rect::new([0.0; 3], [1_000.0; 3]);
    let records: Vec<(Rect<3>, RecordId)> = (0..3_000u64)
        .map(|i| {
            let p = [
                ((i * 37) % 990) as f64,
                ((i * 91) % 990) as f64,
                ((i * 17) % 990) as f64,
            ];
            (
                Rect::new(p, [p[0] + 8.0, p[1] + 8.0, p[2] + 8.0]),
                RecordId(i),
            )
        })
        .collect();

    // Skeleton build in 3-D.
    let spec = segidx_core::SkeletonSpec::uniform(domain, records.len());
    let mut skel = segidx_core::build_skeleton(IndexConfig::skeleton_srtree(), &spec);
    for (rect, id) in &records {
        skel.insert(*rect, *id);
    }
    skel.assert_invariants();

    // Bulk load in 3-D.
    let packed = segidx_core::bulk::bulk_load(IndexConfig::rtree(), records.clone());
    packed.assert_invariants();

    let q = Rect::new([100.0; 3], [400.0; 3]);
    assert_eq!(skel.search(&q), packed.search(&q));
    let mut expected: Vec<RecordId> = records
        .iter()
        .filter(|(rect, _)| rect.intersects(&q))
        .map(|(_, id)| *id)
        .collect();
    expected.sort_unstable();
    assert_eq!(skel.search(&q), expected);
}
