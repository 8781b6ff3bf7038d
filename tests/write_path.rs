//! The SR-Tree write path's shape, pinned.
//!
//! Every choice an insert or delete makes — the spanning host, the branch
//! of least enlargement, the relink target, a demotion, a split — shows in
//! the tree's write counters and its level profile. A change to any of
//! those choices (a tie broken the other way, a different first spanned
//! branch) changes these numbers, so this test fails on it even when every
//! answer stays correct.
//!
//! Each case grows a seeded SR-Tree to 20 000 records and then slides a
//! window over it: 20 000 steps of delete-oldest, insert-fresh.

use segidx_core::{IndexConfig, StatsSnapshot, Tree};
use segidx_workloads::DataDistribution;

const WINDOW: usize = 20_000;

/// The write counters a churned tree reports, plus its level profile.
#[derive(Debug, PartialEq, Eq)]
struct Shape {
    leaf_splits: u64,
    internal_splits: u64,
    cuts: u64,
    remnants_inserted: u64,
    spanning_stores: u64,
    promotions: u64,
    demotions: u64,
    relinks: u64,
    spanning_evictions: u64,
    maintenance_node_accesses: u64,
    level_profile: Vec<usize>,
}

impl Shape {
    fn of(tree: &Tree<2>) -> Self {
        let s: StatsSnapshot = tree.stats();
        Self {
            leaf_splits: s.leaf_splits,
            internal_splits: s.internal_splits,
            cuts: s.cuts,
            remnants_inserted: s.remnants_inserted,
            spanning_stores: s.spanning_stores,
            promotions: s.promotions,
            demotions: s.demotions,
            relinks: s.relinks,
            spanning_evictions: s.spanning_evictions,
            maintenance_node_accesses: s.maintenance_node_accesses,
            level_profile: tree.level_profile(),
        }
    }
}

/// Inserts the first [`WINDOW`] records of a seeded dataset, then for each
/// later record deletes the oldest live one and inserts it.
fn churned(dist: DataDistribution, seed: u64) -> Tree<2> {
    let records = dist.generate(2 * WINDOW, seed).records;
    let mut tree = Tree::new(IndexConfig::srtree());
    for (rect, id) in &records[..WINDOW] {
        tree.insert(*rect, *id);
    }
    for (k, (rect, id)) in records[WINDOW..].iter().enumerate() {
        let (old_rect, old_id) = &records[k];
        assert!(tree.delete(old_rect, *old_id), "record {old_id:?} indexed");
        tree.insert(*rect, *id);
    }
    assert_eq!(tree.len(), WINDOW);
    assert!(
        tree.check_invariants().is_empty(),
        "{:?}",
        tree.check_invariants()
    );
    tree
}

#[test]
fn interval_churn_keeps_its_shape() {
    assert_eq!(
        Shape::of(&churned(DataDistribution::I3, 11)),
        Shape {
            leaf_splits: 1_784,
            internal_splits: 35,
            cuts: 2,
            remnants_inserted: 2,
            spanning_stores: 46,
            promotions: 0,
            demotions: 25,
            relinks: 8,
            spanning_evictions: 0,
            maintenance_node_accesses: 262_191,
            level_profile: vec![1208, 36, 1],
        }
    );
}

#[test]
fn rectangle_churn_keeps_its_shape() {
    assert_eq!(
        Shape::of(&churned(DataDistribution::R2, 12)),
        Shape {
            leaf_splits: 2_001,
            internal_splits: 50,
            cuts: 74,
            remnants_inserted: 75,
            spanning_stores: 2_325,
            promotions: 0,
            demotions: 413,
            relinks: 466,
            spanning_evictions: 742,
            maintenance_node_accesses: 296_558,
            level_profile: vec![1164, 51, 1],
        }
    );
}
