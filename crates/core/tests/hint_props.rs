//! Differential property tests: the HINT engine against all four paper
//! variants under identical operation sequences. The [`IntervalIndex`]
//! contract sorts results by record id, so `search`/`stab`/batch outputs
//! must agree element-for-element. Sequences interleave inserts and
//! deletes so the comparisons cross every storage regime of the engine:
//! the frozen base produced by a (re)build, the post-build delta, and
//! the tombstone path a delete of a base-resident entry takes.

use proptest::collection::vec;
use proptest::prelude::*;
use segidx_core::{HintIndex, IndexConfig, IntervalIndex, RecordId, Skeleton, Tree};
use segidx_geom::{Point, Rect};

const DOMAIN: f64 = 1000.0;

/// The four paper variants, empty, as trait objects.
fn variants_1d() -> Vec<(&'static str, Box<dyn IntervalIndex<1>>)> {
    let domain = Rect::new([-10.0], [DOMAIN * 1.6]);
    let skeleton = |config| Box::new(Skeleton::<1>::new(config, domain, 256, 32));
    vec![
        ("r-tree", Box::new(Tree::<1>::new(IndexConfig::rtree()))),
        ("sr-tree", Box::new(Tree::<1>::new(IndexConfig::srtree()))),
        ("skeleton-r-tree", skeleton(IndexConfig::skeleton_rtree())),
        ("skeleton-sr-tree", skeleton(IndexConfig::skeleton_srtree())),
    ]
}

#[derive(Clone, Debug)]
enum Op {
    Insert { lo: f64, len: f64 },
    Delete { index: usize },
    Search { lo: f64, len: f64 },
    Stab { x: f64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0.0..DOMAIN, prop_oneof![
            // Points, short intervals, and long spans: the mix drives
            // copies onto many hierarchy levels.
            Just(0.0),
            0.0..5.0f64,
            0.0..400.0f64,
        ])
        .prop_map(|(lo, len)| Op::Insert { lo, len }),
        2 => any::<usize>().prop_map(|index| Op::Delete { index }),
        2 => (0.0..DOMAIN, 0.0..50.0f64).prop_map(|(lo, len)| Op::Search { lo, len }),
        2 => (-20.0..DOMAIN * 1.2).prop_map(|x| Op::Stab { x }),
    ]
}

/// Applies `ops` to a HINT index and all four variants in lockstep,
/// asserting identical query results throughout.
fn run_differential(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut hint = HintIndex::new();
    let mut variants = variants_1d();
    let mut live: Vec<(Rect<1>, RecordId)> = Vec::new();
    let mut seq = 0u64;
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Insert { lo, len } => {
                let rect = Rect::new([*lo], [*lo + *len]);
                let rid = RecordId(seq);
                seq += 1;
                hint.insert(rect, rid);
                for (_, v) in &mut variants {
                    v.insert(rect, rid);
                }
                live.push((rect, rid));
            }
            Op::Delete { index } => {
                if live.is_empty() {
                    continue;
                }
                let (rect, rid) = live.swap_remove(index % live.len());
                prop_assert!(hint.delete(&rect, rid), "hint: delete {rid:?} at {step}");
                for (name, v) in &mut variants {
                    prop_assert!(v.delete(&rect, rid), "{name}: delete {rid:?} at {step}");
                }
            }
            Op::Search { lo, len } => {
                let query = Rect::new([*lo], [*lo + *len]);
                let got = hint.search(&query);
                for (name, v) in &variants {
                    prop_assert_eq!(
                        &got,
                        &v.search(&query),
                        "hint vs {} search at step {}",
                        name,
                        step
                    );
                }
            }
            Op::Stab { x } => {
                let p = Point::new([*x]);
                let got = hint.stab(&p);
                for (name, v) in &variants {
                    prop_assert_eq!(&got, &v.stab(&p), "hint vs {} stab at step {}", name, step);
                }
            }
        }
        if step % 50 == 0 {
            let issues = hint.check_invariants();
            prop_assert!(issues.is_empty(), "hint at step {step}: {issues:?}");
        }
    }
    let issues = hint.check_invariants();
    prop_assert!(issues.is_empty(), "hint at end: {issues:?}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn hint_matches_every_variant_on_1d_sequences(ops in vec(op_strategy(), 1..250)) {
        run_differential(&ops)?;
    }

    /// Bulk-load freezes everything into the base; the deletes that follow
    /// take the tombstone path, and the queries must reflect them
    /// immediately even though the physical copies linger until rebuild.
    #[test]
    fn tombstoned_base_entries_disappear_from_results(
        n in 20usize..200,
        kill in vec(any::<usize>(), 1..40),
        probes in vec(0.0..DOMAIN, 8..9),
    ) {
        let items: Vec<(Rect<1>, RecordId)> = (0..n)
            .map(|i| {
                let lo = (i as f64 * 37.0) % DOMAIN;
                let len = if i % 7 == 0 { 120.0 } else { 2.0 };
                (Rect::new([lo], [lo + len]), RecordId(i as u64))
            })
            .collect();
        let mut hint = HintIndex::new();
        hint.bulk_load(items.clone());
        let mut variants = variants_1d();
        for (_, v) in &mut variants {
            for (rect, rid) in &items {
                v.insert(*rect, *rid);
            }
        }
        let mut live = items;
        for k in kill {
            if live.is_empty() {
                break;
            }
            let (rect, rid) = live.swap_remove(k % live.len());
            prop_assert!(hint.delete(&rect, rid));
            for (_, v) in &mut variants {
                prop_assert!(v.delete(&rect, rid));
            }
        }
        let issues = hint.check_invariants();
        prop_assert!(issues.is_empty(), "{issues:?}");
        for x in probes {
            let p = Point::new([x]);
            let got = hint.stab(&p);
            for (name, v) in &variants {
                prop_assert_eq!(&got, &v.stab(&p), "hint vs {} stab at {}", name, x);
            }
        }
    }

    /// The batch entry points must be observably identical to their serial
    /// loops — on an index holding base, delta, and tombstones at once.
    #[test]
    fn batch_queries_equal_serial_loops(
        ops in vec(op_strategy(), 1..120),
        queries in vec((0.0..DOMAIN, 0.0..60.0f64), 1..12),
    ) {
        let mut hint = HintIndex::new();
        let mut live: Vec<(Rect<1>, RecordId)> = Vec::new();
        let mut seq = 0u64;
        for op in &ops {
            match op {
                Op::Insert { lo, len } => {
                    let rect = Rect::new([*lo], [*lo + *len]);
                    hint.insert(rect, RecordId(seq));
                    live.push((rect, RecordId(seq)));
                    seq += 1;
                }
                Op::Delete { index } if !live.is_empty() => {
                    let (rect, rid) = live.swap_remove(index % live.len());
                    prop_assert!(hint.delete(&rect, rid));
                }
                _ => {}
            }
        }
        let rects: Vec<Rect<1>> = queries
            .iter()
            .map(|(lo, len)| Rect::new([*lo], [*lo + *len]))
            .collect();
        let points: Vec<Point<1>> = queries.iter().map(|(lo, _)| Point::new([*lo])).collect();
        let serial_search: Vec<Vec<RecordId>> = rects.iter().map(|q| hint.search(q)).collect();
        prop_assert_eq!(hint.search_batch(&rects), serial_search);
        let serial_stab: Vec<Vec<RecordId>> = points.iter().map(|p| hint.stab(p)).collect();
        prop_assert_eq!(hint.stab_batch(&points), serial_stab);
    }
}
