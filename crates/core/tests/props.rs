//! Model-based property tests: random operation sequences applied to every
//! index configuration, checked against a flat-vector model after each
//! batch, with structural invariants verified throughout; and the sealed
//! tier's frozen HINT against a brute-force filter.

use proptest::collection::vec;
use proptest::prelude::*;
use segidx_core::hint::FrozenHint;
use segidx_core::{build_skeleton, CoalesceConfig, IndexConfig, RecordId, SkeletonSpec, Tree};
use segidx_geom::{Point, Rect};

#[derive(Clone, Debug)]
enum Op {
    Insert { rect: Rect<2>, id: u64 },
    Delete { index: usize },
    Search { query: Rect<2> },
    Stab { x: f64, y: f64 },
}

fn rect_strategy() -> impl Strategy<Value = Rect<2>> {
    // Mixed geometry: points, horizontal segments (short and very long),
    // and boxes — the paper's full menagerie.
    prop_oneof![
        // points
        (0.0..1000.0f64, 0.0..1000.0f64).prop_map(|(x, y)| Rect::new([x, y], [x, y])),
        // horizontal segments, skewed lengths
        (0.0..1000.0f64, 0.0..1000.0f64, 0.0..400.0f64)
            .prop_map(|(x, y, len)| Rect::new([x, y], [x + len, y])),
        // boxes
        (0.0..900.0f64, 0.0..900.0f64, 0.0..100.0f64, 0.0..100.0f64)
            .prop_map(|(x, y, w, h)| Rect::new([x, y], [x + w, y + h])),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (rect_strategy(), any::<u64>()).prop_map(|(rect, id)| Op::Insert { rect, id }),
        1 => any::<usize>().prop_map(|index| Op::Delete { index }),
        2 => rect_strategy().prop_map(|query| Op::Search { query }),
        1 => (0.0..1200.0f64, 0.0..1200.0f64).prop_map(|(x, y)| Op::Stab { x, y }),
    ]
}

fn configs() -> Vec<(&'static str, IndexConfig)> {
    let small = IndexConfig {
        // Small nodes so modest op counts still exercise splits,
        // promotions, and coalescing.
        leaf_node_bytes: 320,
        ..IndexConfig::default()
    };
    vec![
        ("rtree", small.clone()),
        (
            "srtree",
            IndexConfig {
                segment: true,
                ..small.clone()
            },
        ),
        // The served config (the SR-Tree with the R* split) and the R-Tree
        // with the R* split, on the same small nodes.
        (
            "srtree-rstar",
            IndexConfig {
                segment: true,
                split: segidx_core::SplitAlgorithm::RStar,
                ..small.clone()
            },
        ),
        (
            "rstar",
            IndexConfig {
                split: segidx_core::SplitAlgorithm::RStar,
                ..small.clone()
            },
        ),
        (
            "srtree-coalesce",
            IndexConfig {
                segment: true,
                coalesce: Some(CoalesceConfig {
                    check_interval: 25,
                    lfm_candidates: 5,
                }),
                ..small
            },
        ),
    ]
}

fn run_ops(name: &str, mut tree: Tree<2>, ops: &[Op]) -> Result<(), TestCaseError> {
    // Model: live (rect, id) pairs. Ids are made unique by sequence number
    // so deletes are unambiguous.
    let mut model: Vec<(Rect<2>, RecordId)> = Vec::new();
    let mut seq = 0u64;
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Insert { rect, id } => {
                let rid = RecordId(id.wrapping_mul(1_000_003).wrapping_add(seq));
                seq += 1;
                if model.iter().any(|(_, existing)| *existing == rid) {
                    continue;
                }
                tree.insert(*rect, rid);
                model.push((*rect, rid));
            }
            Op::Delete { index } => {
                if model.is_empty() {
                    continue;
                }
                let (rect, rid) = model.swap_remove(index % model.len());
                prop_assert!(tree.delete(&rect, rid), "{name}: delete {rid:?} at {step}");
            }
            Op::Search { query } => {
                let mut expected: Vec<RecordId> = model
                    .iter()
                    .filter(|(r, _)| r.intersects(query))
                    .map(|(_, id)| *id)
                    .collect();
                expected.sort_unstable();
                prop_assert_eq!(
                    tree.search(query),
                    expected,
                    "{}: search mismatch at step {}",
                    name,
                    step
                );
            }
            Op::Stab { x, y } => {
                let p = Point::new([*x, *y]);
                let mut expected: Vec<RecordId> = model
                    .iter()
                    .filter(|(r, _)| r.contains_point(&p))
                    .map(|(_, id)| *id)
                    .collect();
                expected.sort_unstable();
                prop_assert_eq!(
                    tree.stab(&p),
                    expected,
                    "{}: stab mismatch at step {}",
                    name,
                    step
                );
            }
        }
        if step % 64 == 0 {
            let issues = tree.check_invariants();
            prop_assert!(issues.is_empty(), "{name} at step {step}: {issues:?}");
        }
    }
    prop_assert_eq!(tree.len(), model.len(), "{}: len mismatch", name);
    let issues = tree.check_invariants();
    prop_assert!(issues.is_empty(), "{name} at end: {issues:?}");
    Ok(())
}

/// Integer-grid rectangles in `[0, 10]²`: horizontal and vertical
/// segments and small boxes. On so coarse a grid, records often meet a
/// node's region only on a face — the case a cut must not split.
fn grid_rect_strategy() -> impl Strategy<Value = Rect<2>> {
    let grid = |x0: u8, y0: u8, x1: u8, y1: u8| {
        Rect::new(
            [f64::from(x0), f64::from(y0)],
            [f64::from(x1.min(10)), f64::from(y1.min(10))],
        )
    };
    prop_oneof![
        (0u8..10, 0u8..=10, 1u8..6).prop_map(move |(x, y, len)| grid(x, y, x + len, y)),
        (0u8..=10, 0u8..10, 1u8..6).prop_map(move |(x, y, len)| grid(x, y, x, y + len)),
        (0u8..10, 0u8..10, 1u8..6, 1u8..6).prop_map(move |(x, y, w, h)| grid(x, y, x + w, y + h)),
    ]
}

/// Live records stored as several portions, one of which equals the
/// original rectangle: what a cut that only touched a region left behind.
fn cut_records_with_a_whole_portion(tree: &Tree<2>, live: &[(Rect<2>, RecordId)]) -> Vec<RecordId> {
    let mut portions: std::collections::HashMap<RecordId, Vec<Rect<2>>> = Default::default();
    for (rect, id) in tree.iter_entries() {
        portions.entry(id).or_default().push(rect);
    }
    live.iter()
        .filter(|(rect, id)| portions[id].len() > 1 && portions[id].contains(rect))
        .map(|(_, id)| *id)
        .collect()
}

/// Packs `items` with the bulk loader under every configuration and
/// checks each tree against the brute-force model: length, structural
/// invariants, three windows and a stab.
fn check_packers(items: &[(Rect<2>, RecordId)]) -> Result<(), TestCaseError> {
    use segidx_core::bulk::bulk_load;
    let queries = [
        Rect::new([0.0, 0.0], [1400.0, 1400.0]),
        Rect::new([200.0, 100.0], [450.0, 350.0]),
        Rect::new([990.0, 990.0], [1000.0, 1000.0]),
    ];
    for (name, config) in configs() {
        let tree = bulk_load(config, items.to_vec());
        prop_assert_eq!(tree.len(), items.len(), "{}: len", name);
        let issues = tree.check_invariants();
        prop_assert!(issues.is_empty(), "{name}: {issues:?}");
        for q in &queries {
            let mut expected: Vec<RecordId> = items
                .iter()
                .filter(|(r, _)| r.intersects(q))
                .map(|(_, id)| *id)
                .collect();
            expected.sort_unstable();
            prop_assert_eq!(tree.search(q), expected, "{}: search {:?}", name, q);
        }
        let p = Point::new([500.0, 500.0]);
        let mut expected: Vec<RecordId> = items
            .iter()
            .filter(|(r, _)| r.contains_point(&p))
            .map(|(_, id)| *id)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(tree.stab(&p), expected, "{}: stab", name);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn random_ops_match_model(ops in vec(op_strategy(), 1..300)) {
        for (name, config) in configs() {
            run_ops(name, Tree::new(config), &ops)?;
        }
    }

    /// On the segment configurations, build from two thirds of the grid
    /// records, delete every other one, insert the rest: no record stored
    /// as several portions keeps one equal to its original rectangle.
    #[test]
    fn no_cut_record_keeps_a_whole_portion(records in vec(grid_rect_strategy(), 1500..3000)) {
        for (name, config) in configs().into_iter().filter(|(_, c)| c.segment) {
            let mut tree = Tree::new(config);
            let all: Vec<(Rect<2>, RecordId)> = records
                .iter()
                .enumerate()
                .map(|(i, r)| (*r, RecordId(i as u64)))
                .collect();
            let built = 2 * all.len() / 3;
            for (rect, id) in &all[..built] {
                tree.insert(*rect, *id);
            }
            let mut live: Vec<(Rect<2>, RecordId)> = Vec::new();
            for (i, (rect, id)) in all[..built].iter().enumerate() {
                if i % 2 == 0 {
                    prop_assert!(tree.delete(rect, *id), "{}: delete {:?}", name, id);
                } else {
                    live.push((*rect, *id));
                }
            }
            for (rect, id) in &all[built..] {
                tree.insert(*rect, *id);
                live.push((*rect, *id));
            }
            let issues = tree.check_invariants();
            prop_assert!(issues.is_empty(), "{name}: {issues:?}");
            let whole = cut_records_with_a_whole_portion(&tree, &live);
            prop_assert!(whole.is_empty(), "{}: {:?} kept a whole portion", name, whole);
        }
    }

    #[test]
    fn random_ops_on_skeleton_match_model(ops in vec(op_strategy(), 1..250)) {
        let domain = Rect::new([0.0, 0.0], [1400.0, 1400.0]);
        let config = IndexConfig {
            leaf_node_bytes: 320,
            segment: true,
            coalesce: Some(CoalesceConfig {
                check_interval: 40,
                lfm_candidates: 6,
            }),
            ..IndexConfig::default()
        };
        config.validate().unwrap();
        let spec = SkeletonSpec::uniform(domain, 200);
        run_ops("skeleton-sr", build_skeleton(config, &spec), &ops)?;
    }

    #[test]
    fn bulk_load_matches_model(records in vec(rect_strategy(), 1..250)) {
        // Both packers over every configuration must agree with the
        // brute-force model on search, stab, and structural invariants —
        // pins the SoA rewrite of the packing path. This input has no
        // order at all: the run tiler owes it the same answers.
        let items: Vec<(Rect<2>, RecordId)> = records
            .iter()
            .enumerate()
            .map(|(i, r)| (*r, RecordId(i as u64)))
            .collect();
        check_packers(&items)?;
    }

    #[test]
    fn packed_runs_with_ties_match_model(
        versions in vec((0u32..24, 0.0..90.0f64, 0.0..1000.0f64), 1..300),
        swaps in vec((any::<usize>(), any::<usize>()), 0..300),
    ) {
        // What a tier is built from: end times that ascend, here drawn
        // from 24 values so equal `hi(0)` straddles the cuts between
        // slabs and leaves. In order, shuffled by `swaps`, and cut down
        // to what fits one leaf (capacity 8 in every configuration).
        let mut items: Vec<(Rect<2>, RecordId)> = versions
            .iter()
            .enumerate()
            .map(|(i, &(end, life, y))| {
                let end = 40.0 * f64::from(end);
                (Rect::new([end - life, y], [end, y]), RecordId(i as u64))
            })
            .collect();
        items.sort_by(|a, b| a.0.hi(0).total_cmp(&b.0.hi(0)));
        check_packers(&items)?;
        check_packers(&items[..items.len().min(8)])?;
        let n = items.len();
        for &(a, b) in &swaps {
            items.swap(a % n, b % n);
        }
        check_packers(&items)?;
    }

    #[test]
    fn batch_matches_serial(
        records in vec(rect_strategy(), 1..200),
        queries in vec(rect_strategy(), 1..24),
        probes in vec((0.0..1200.0f64, 0.0..1200.0f64), 1..24),
    ) {
        // PR 1's guarantee, re-pinned on the SoA layout: batched
        // execution returns exactly the serial results, in input order,
        // for every configuration.
        let points: Vec<Point<2>> = probes.iter().map(|&(x, y)| Point::new([x, y])).collect();
        for (name, config) in configs() {
            let mut tree: Tree<2> = Tree::new(config);
            for (i, r) in records.iter().enumerate() {
                tree.insert(*r, RecordId(i as u64));
            }
            let serial: Vec<Vec<RecordId>> = queries.iter().map(|q| tree.search(q)).collect();
            prop_assert_eq!(&tree.search_batch(&queries), &serial, "{}: search_batch", name);
            let stab_serial: Vec<Vec<RecordId>> = points.iter().map(|p| tree.stab(p)).collect();
            prop_assert_eq!(&tree.stab_batch(&points), &stab_serial, "{}: stab_batch", name);
        }
    }

    #[test]
    fn join_matches_model(
        left in vec(rect_strategy(), 1..80),
        right in vec(rect_strategy(), 1..80),
    ) {
        let build = |records: &[Rect<2>], segment: bool| {
            let mut t: Tree<2> = Tree::new(IndexConfig {
                leaf_node_bytes: 320,
                segment,
                ..IndexConfig::default()
            });
            for (i, r) in records.iter().enumerate() {
                t.insert(*r, RecordId(i as u64));
            }
            t
        };
        let ta = build(&left, true);
        let tb = build(&right, false);
        let mut expected = Vec::new();
        for (i, a) in left.iter().enumerate() {
            for (j, b) in right.iter().enumerate() {
                if a.intersects(b) {
                    expected.push((RecordId(i as u64), RecordId(j as u64)));
                }
            }
        }
        expected.sort_unstable();
        prop_assert_eq!(ta.join(&tb), expected);
    }

    #[test]
    fn nearest_matches_model(
        records in vec((rect_strategy(), any::<u64>()), 1..150),
        probe in (0.0..1500.0f64, 0.0..1500.0f64),
        k in 1usize..20,
    ) {
        let mut tree: Tree<2> = Tree::new(IndexConfig {
            leaf_node_bytes: 320,
            segment: true,
            ..IndexConfig::default()
        });
        let mut model: Vec<(Rect<2>, RecordId)> = Vec::new();
        for (i, (rect, _)) in records.iter().enumerate() {
            let rid = RecordId(i as u64);
            tree.insert(*rect, rid);
            model.push((*rect, rid));
        }
        let p = Point::new([probe.0, probe.1]);
        let got = tree.nearest(&p, k);
        let mut dists: Vec<f64> = model.iter().map(|(r, _)| r.min_dist(&p)).collect();
        dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
        dists.truncate(k);
        prop_assert_eq!(got.len(), dists.len().min(model.len()));
        for (n, d) in got.iter().zip(dists.iter()) {
            prop_assert!((n.distance - d).abs() < 1e-9,
                "rank distance mismatch: {} vs {}", n.distance, d);
        }
    }

    /// Points, short intervals, long spans and open ends past every start,
    /// with starts below the others: copies on many levels, coordinates
    /// clamped into both boundary cells. Every range and stab, inside the
    /// domain and outside it, and every query bound equal to an interval's
    /// start or end reports each hit once, and the access count is the one
    /// the query returns.
    #[test]
    fn frozen_hint_matches_brute_force(
        intervals in vec((-20.0..1000.0f64, prop_oneof![
            Just(0.0),
            0.0..5.0f64,
            0.0..400.0f64,
            Just(f64::MAX / 2.0),
        ]), 0..300),
        queries in vec((-50.0..1200.0f64, prop_oneof![Just(0.0), 0.0..60.0f64]), 1..24),
    ) {
        let data: Vec<(f64, f64)> = intervals
            .iter()
            .map(|&(start, len)| (start, (start + len).min(f64::MAX / 2.0)))
            .collect();
        let hint = FrozenHint::over_starts(data.len(), |i| data[i]);
        let everything = (f64::MIN / 2.0, f64::MAX / 2.0);
        let ranges = queries.iter().map(|&(start, len)| (start, start + len));
        let touching = data
            .iter()
            .flat_map(|&(s, e)| [(s, s), (e, e), (s - 10.0, s), (e, e + 10.0)]);
        for (qs, qe) in ranges.chain(touching).chain([everything]) {
            let (mut got, mut scratch) = (Vec::new(), Vec::new());
            let accesses = hint.query(qs, qe, &mut got, &mut scratch);
            got.sort_unstable();
            let expected: Vec<u32> = (0..data.len() as u32)
                .filter(|&i| data[i as usize].0 <= qe && data[i as usize].1 >= qs)
                .collect();
            prop_assert_eq!(got, expected, "[{}, {}]", qs, qe);
            prop_assert_eq!(hint.count_accesses(qs, qe), accesses);
        }
    }
}
