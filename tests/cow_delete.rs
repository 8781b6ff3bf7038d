//! Deletion under copy-on-write: with a snapshot outstanding, `Tree::delete`
//! copies the nodes it changes, not the nodes its traversal visits, and a
//! tree behaves the same — counters, shape, answers — whether or not anyone
//! holds a snapshot of it. Counts only, no timing.

use proptest::collection::vec;
use proptest::prelude::*;
use segidx_core::{build_skeleton, CoalesceConfig, IndexConfig, RecordId, SkeletonSpec, Tree};
use segidx_geom::Rect;
use segidx_workloads::{queries_for_qar, DataDistribution};

#[test]
fn delete_under_a_snapshot_copies_what_it_changes_not_what_it_visits() {
    let dataset = DataDistribution::R2.generate(20_000, 3);
    let mut tree: Tree<2> = Tree::new(IndexConfig::srtree());
    for (rect, id) in &dataset.records {
        tree.insert(*rect, *id);
    }
    let queries: Vec<Rect<2>> = [0.01, 1.0, 100.0]
        .iter()
        .flat_map(|&qar| queries_for_qar(qar, 8, 5).queries)
        .collect();

    // The widest record: a search with its rectangle visits every node
    // whose region meets it, which bounds what the delete visits.
    let (rect, id) = *dataset
        .records
        .iter()
        .max_by(|a, b| a.0.area().total_cmp(&b.0.area()))
        .unwrap();
    let before = tree.stats();
    tree.search(&rect);
    let visited = tree.stats().diff(&before).search_node_accesses as usize;
    assert!(visited >= 50, "traversal visits {visited} nodes");
    let portions = tree.iter_entries().filter(|(_, r)| *r == id).count();
    assert!(portions >= 1);

    let snap = tree.clone();
    let answers: Vec<Vec<RecordId>> = queries.iter().map(|q| snap.search(q)).collect();
    assert_eq!(tree.shared_node_count(), tree.node_count());

    assert!(tree.delete(&rect, id));
    let copied = tree.node_count() - tree.shared_node_count();
    let bound = portions + tree.height() as usize + 2;
    assert!(
        (1..=bound).contains(&copied),
        "{copied} nodes unshared for {portions} portions (visited {visited}, bound {bound})"
    );
    assert!(copied < visited);

    // The snapshot still holds the record and answers as before, bit for bit.
    assert_eq!(snap.len(), tree.len() + 1);
    for (q, expected) in queries.iter().zip(&answers) {
        assert_eq!(&snap.search(q), expected);
    }
    assert!(snap.search(&rect).contains(&id));
    assert!(!tree.search(&rect).contains(&id));
    snap.assert_invariants();
    tree.assert_invariants();
}

#[derive(Clone, Debug)]
enum Op {
    Insert(Rect<2>),
    Delete(usize),
    /// Take a fresh snapshot of the tree under test, keeping the two latest.
    Snapshot,
}

fn rect_strategy() -> impl Strategy<Value = Rect<2>> {
    prop_oneof![
        (0.0..1000.0f64, 0.0..1000.0f64, 0.0..500.0f64)
            .prop_map(|(x, y, len)| Rect::new([x, y], [x + len, y])),
        (0.0..900.0f64, 0.0..900.0f64, 0.0..120.0f64, 0.0..120.0f64)
            .prop_map(|(x, y, w, h)| Rect::new([x, y], [x + w, y + h])),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => rect_strategy().prop_map(Op::Insert),
        4 => any::<usize>().prop_map(Op::Delete),
        1 => Just(Op::Snapshot),
    ]
}

/// The paper's four variants with nodes small enough that a few hundred
/// operations split, cut, condense and unlink.
fn variants() -> Vec<(&'static str, Tree<2>)> {
    let small = |segment| IndexConfig {
        leaf_node_bytes: 320,
        segment,
        ..IndexConfig::default()
    };
    let skeleton = |segment| {
        let config = IndexConfig {
            coalesce: Some(CoalesceConfig {
                check_interval: 40,
                lfm_candidates: 6,
            }),
            ..small(segment)
        };
        let domain = Rect::new([0.0, 0.0], [1500.0, 1100.0]);
        build_skeleton(config, &SkeletonSpec::uniform(domain, 200))
    };
    vec![
        ("R-Tree", Tree::new(small(false))),
        ("SR-Tree", Tree::new(small(true))),
        ("Skeleton R-Tree", skeleton(false)),
        ("Skeleton SR-Tree", skeleton(true)),
    ]
}

fn probes() -> [Rect<2>; 4] {
    [
        Rect::new([0.0, 0.0], [1500.0, 1100.0]),
        Rect::new([100.0, 100.0], [400.0, 300.0]),
        Rect::new([650.0, 0.0], [660.0, 1100.0]),
        Rect::new([990.0, 990.0], [1000.0, 1000.0]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// One stream applied to two copies of a tree, one of which has up to
    /// two snapshots outstanding: same counters after every step, same
    /// shape and answers at the end, and every snapshot still frozen.
    #[test]
    fn an_outstanding_snapshot_changes_nothing_the_tree_can_observe(
        ops in vec(op_strategy(), 1..350),
    ) {
        for ((name, mut plain), (_, mut shared)) in variants().into_iter().zip(variants()) {
            let freeze = |tree: &Tree<2>| -> (Tree<2>, Vec<Vec<RecordId>>) {
                let snap = tree.clone();
                let answers = probes().iter().map(|q| snap.search(q)).collect();
                (snap, answers)
            };
            // Outstanding from the first step on.
            let mut snapshots = vec![freeze(&shared)];
            prop_assert_eq!(plain.shared_node_count(), 0);
            prop_assert_eq!(shared.shared_node_count(), shared.node_count());
            let mut live: Vec<(Rect<2>, RecordId)> = Vec::new();
            for (step, op) in ops.iter().enumerate() {
                match op {
                    Op::Insert(rect) => {
                        let id = RecordId(step as u64);
                        plain.insert(*rect, id);
                        shared.insert(*rect, id);
                        live.push((*rect, id));
                    }
                    Op::Delete(pick) => {
                        if live.is_empty() {
                            continue;
                        }
                        let (rect, id) = live.swap_remove(pick % live.len());
                        prop_assert!(plain.delete(&rect, id), "{}: step {}", name, step);
                        prop_assert!(shared.delete(&rect, id), "{}: step {}", name, step);
                    }
                    Op::Snapshot => {
                        snapshots.push(freeze(&shared));
                        if snapshots.len() > 2 {
                            snapshots.remove(0);
                        }
                    }
                }
                prop_assert_eq!(plain.stats(), shared.stats(), "{}: step {}", name, step);
            }
            prop_assert_eq!(plain.node_count(), shared.node_count(), "{}", name);
            prop_assert_eq!(plain.height(), shared.height(), "{}", name);
            prop_assert_eq!(plain.entry_count(), shared.entry_count(), "{}", name);
            prop_assert_eq!(plain.level_profile(), shared.level_profile(), "{}", name);
            for q in &probes() {
                prop_assert_eq!(plain.search(q), shared.search(q), "{}: {:?}", name, q);
            }
            prop_assert_eq!(plain.stats(), shared.stats(), "{}: after the probes", name);
            prop_assert!(shared.check_invariants().is_empty(), "{}", name);
            for (snap, answers) in &snapshots {
                for (q, expected) in probes().iter().zip(answers) {
                    prop_assert_eq!(&snap.search(q), expected, "{}: a snapshot moved", name);
                }
                prop_assert!(snap.check_invariants().is_empty(), "{}", name);
            }
        }
    }
}
