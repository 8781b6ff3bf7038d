//! Tests for the R\*-Tree topological split (Beckmann et al. 1990), on the
//! R-Tree and on the SR-Tree the server serves.

use segidx_core::{IndexConfig, RecordId, SplitAlgorithm, Tree};
use segidx_geom::Rect;

fn boxes(n: u64) -> Vec<(Rect<2>, RecordId)> {
    (0..n)
        .map(|i| {
            let x = ((i * 193) % 10_000) as f64;
            let y = ((i * 71) % 10_000) as f64;
            (Rect::new([x, y], [x + 20.0, y + 20.0]), RecordId(i))
        })
        .collect()
}

/// The R-Tree and the SR-Tree (the served config) with the R\* split.
fn rstar_configs() -> [IndexConfig; 2] {
    [IndexConfig::rtree(), IndexConfig::srtree()].map(|base| IndexConfig {
        split: SplitAlgorithm::RStar,
        ..base
    })
}

#[test]
fn rstar_tree_is_correct() {
    let records = boxes(5_000);
    for config in rstar_configs() {
        let mut t: Tree<2> = Tree::new(config);
        for (r, id) in &records {
            t.insert(*r, *id);
        }
        t.assert_invariants();
        assert_eq!(t.len(), 5_000);
        assert!(t.height() > 2, "the split ran at more than one level");

        // Differential correctness against brute force on a few queries.
        for q in [
            Rect::new([0.0, 0.0], [500.0, 500.0]),
            Rect::new([4_000.0, 4_000.0], [6_000.0, 4_500.0]),
            Rect::new([9_900.0, 0.0], [10_100.0, 10_100.0]),
        ] {
            let mut expected: Vec<RecordId> = records
                .iter()
                .filter(|(r, _)| r.intersects(&q))
                .map(|(_, id)| *id)
                .collect();
            expected.sort_unstable();
            assert_eq!(t.search(&q), expected);
        }
    }
}

#[test]
fn rstar_split_produces_low_overlap() {
    // Same data through the quadratic and R* splits alone, with and
    // without the segment tactic: the R* tree's sibling leaves should
    // overlap no more (usually less).
    let records = boxes(4_000);
    for segment in [false, true] {
        let build = |split: SplitAlgorithm| -> Tree<2> {
            let mut t: Tree<2> = Tree::new(IndexConfig {
                split,
                segment,
                ..IndexConfig::default()
            });
            for (r, id) in &records {
                t.insert(*r, *id);
            }
            t
        };
        let quad = build(SplitAlgorithm::Quadratic);
        let rstar = build(SplitAlgorithm::RStar);
        quad.assert_invariants();
        rstar.assert_invariants();

        let leaf_overlap = |t: &Tree<2>| t.report().levels[0].overlap_factor;
        assert!(
            leaf_overlap(&rstar) <= leaf_overlap(&quad) * 1.05,
            "segment {segment}: R* leaf overlap {} vs quadratic {}",
            leaf_overlap(&rstar),
            leaf_overlap(&quad)
        );

        // And it should not be worse on search accesses.
        let q = Rect::new([2_000.0, 2_000.0], [3_000.0, 3_000.0]);
        let a = quad.count_search_accesses(&q);
        let b = rstar.count_search_accesses(&q);
        assert!(
            b as f64 <= a as f64 * 1.25,
            "segment {segment}: R* accesses {b} vs quadratic {a}"
        );
    }
}

#[test]
fn rstar_with_deletes_stays_consistent() {
    let records = boxes(2_000);
    for config in rstar_configs() {
        let mut t: Tree<2> = Tree::new(config);
        for (r, id) in &records {
            t.insert(*r, *id);
        }
        for (r, id) in records.iter().step_by(2) {
            assert!(t.delete(r, *id));
        }
        t.assert_invariants();
        assert_eq!(t.len(), 1_000);
        let all = t.search(&Rect::new([0.0, 0.0], [20_000.0, 20_000.0]));
        assert_eq!(all.len(), 1_000);
        assert!(all.iter().all(|r| r.raw() % 2 == 1));
    }
}

#[test]
fn rstar_config_persists() {
    let dir = std::env::temp_dir().join(format!("segidx-rstar-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for config in rstar_configs() {
        let name = format!("rstar-{}.db", config.segment);
        let disk = segidx_storage::DiskManager::create(dir.join(name)).unwrap();
        let mut t: Tree<2> = Tree::new(config.clone());
        for (r, id) in boxes(500) {
            t.insert(r, id);
        }
        let meta = segidx_core::persist::save(&t, &disk).unwrap();
        let back: Tree<2> = segidx_core::persist::load(&disk, meta).unwrap();
        assert_eq!(back.config(), &config);
        assert_eq!(
            back.search(&Rect::new([0.0, 0.0], [20_000.0, 20_000.0]))
                .len(),
            500
        );
    }
}
