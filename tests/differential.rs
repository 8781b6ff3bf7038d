//! Differential testing: every index variant (and the bulk loader) must
//! return exactly the same answers as a brute-force scan, across workloads,
//! query shapes, and interleaved deletions.

use segidx_bench::{Construction, Variant};
use segidx_core::bulk::bulk_load;
use segidx_core::{build_skeleton, IndexConfig, RecordId, SkeletonSpec, Tree};
use segidx_geom::{Point, Rect};
use segidx_workloads::{queries_for_qar, DataDistribution};

const N: usize = 4_000;

fn brute_force(records: &[(Rect<2>, RecordId)], query: &Rect<2>) -> Vec<RecordId> {
    let mut out: Vec<RecordId> = records
        .iter()
        .filter(|(r, _)| r.intersects(query))
        .map(|(_, id)| *id)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn query_mix(seed: u64) -> Vec<Rect<2>> {
    let mut queries: Vec<Rect<2>> = [0.0001, 0.01, 1.0, 100.0, 10_000.0]
        .iter()
        .flat_map(|&q| queries_for_qar(q, 6, seed).queries)
        .collect();
    // Stabbing points and a full-domain scan.
    for i in 0..10u64 {
        let x = (i * 9_973 % 100_000) as f64;
        let y = (i * 31_337 % 100_000) as f64;
        queries.push(Rect::from_point(Point::new([x, y])));
    }
    queries.push(Rect::new([0.0, 0.0], [100_000.0, 100_000.0]));
    queries
}

/// Every variant on every distribution; a skeleton is predicted from a
/// prefix of none, one, a tenth and all of the input, and each answers as
/// brute force does.
#[test]
fn variants_match_brute_force_on_all_distributions() {
    for dist in DataDistribution::ALL {
        let dataset = dist.generate(N, 21);
        let queries = query_mix(4);
        for variant in Variant::ALL {
            let construction = variant.construction();
            let prefixes: &[usize] = match construction {
                Construction::Skeleton => &[0, 1, N / 10, N],
                _ => &[0],
            };
            for &prefix in prefixes {
                let index =
                    construction.build(variant.config(), domain(), prefix, &dataset.records);
                let at = format!("{} on {}, prefix {prefix}", variant.name(), dist.name());
                assert!(
                    index.check_invariants().is_empty(),
                    "{at}: {:?}",
                    index.check_invariants()
                );
                for query in &queries {
                    let expected = brute_force(&dataset.records, query);
                    assert_eq!(
                        index.search(query),
                        expected,
                        "{at} disagrees for {query:?}"
                    );
                }
            }
        }
    }
}

/// Segments with every thirteenth one long: the four variants hold them
/// all, stay consistent, and answer a window alike.
#[test]
fn all_variants_agree_on_results() {
    let records: Vec<(Rect<2>, RecordId)> = (0..3_000u64)
        .map(|i| {
            let x = ((i * 37) % 90_000) as f64;
            let y = ((i * 113) % 90_000) as f64;
            let len = if i % 13 == 0 { 15_000.0 } else { 60.0 };
            let rect = Rect::new([x, y], [(x + len).min(100_000.0), y]);
            (rect, RecordId(i))
        })
        .collect();
    let variants: Vec<Tree<2>> = Variant::ALL
        .iter()
        .map(|v| v.construction().build(v.config(), domain(), 300, &records))
        .collect();
    for v in &variants {
        let name = v.config().variant_name();
        assert_eq!(v.len(), 3_000, "{name}");
        assert!(
            v.check_invariants().is_empty(),
            "{name}: {:?}",
            v.check_invariants()
        );
    }
    let query = Rect::new([10_000.0, 10_000.0], [30_000.0, 40_000.0]);
    let expected = variants[0].search(&query);
    assert!(!expected.is_empty());
    for v in &variants[1..] {
        let name = v.config().variant_name();
        assert_eq!(v.search(&query), expected, "{name} disagrees with R-Tree");
    }
}

/// The scan kernel tests 64 entries per word and a node's remainder in
/// 8-wide groups plus a one-entry tail; paper-sized nodes (6-entry leaves at
/// 256 bytes, 25 at 1 KB, their branch blocks) are almost all remainder.
/// Every variant at both widths, checked after each insertion from 1 to
/// 300 records, so every fill of every node width is met.
#[test]
fn variants_agree_at_paper_node_widths() {
    let mut records = DataDistribution::I3.generate(300, 91).records;
    // Long segments arriving once the trees have split, so the SR
    // variants hold spanning records.
    for (i, (r, _)) in records.iter_mut().enumerate().skip(150).step_by(5) {
        let y = r.lo(1);
        let x = (i as f64 * 311.0) % 40_000.0;
        *r = Rect::new([x, y], [x + 60_000.0, y]);
    }
    let queries = query_mix(8);
    let points: Vec<Point<2>> = queries
        .iter()
        .map(|q| q.center())
        .chain(
            records
                .iter()
                .step_by(17)
                .map(|(r, _)| Point::new([r.hi(0), r.lo(1)])),
        )
        .collect();
    for leaf_node_bytes in [256, 1024] {
        let spec = SkeletonSpec::predict(domain(), records.len(), &records[..30]);
        let mut indexes: Vec<Tree<2>> = Variant::ALL
            .iter()
            .map(|v| {
                let config = IndexConfig {
                    leaf_node_bytes,
                    ..v.config()
                };
                if config.coalesce.is_some() {
                    build_skeleton(config, &spec)
                } else {
                    Tree::new(config)
                }
            })
            .collect();
        for n in 1..=records.len() {
            let live = &records[..n];
            let expected: Vec<Vec<RecordId>> =
                queries.iter().map(|q| brute_force(live, q)).collect();
            let expected_stabs: Vec<Vec<RecordId>> = points
                .iter()
                .map(|p| brute_force(live, &Rect::from_point(*p)))
                .collect();
            for index in indexes.iter_mut() {
                let (r, id) = live[n - 1];
                index.insert(r, id);
                let name = index.config().variant_name();
                let at = format!("{name}, {leaf_node_bytes} B leaves, {n} records");
                let searched: Vec<Vec<RecordId>> =
                    queries.iter().map(|q| index.search(q)).collect();
                assert_eq!(searched, expected, "search: {at}");
                assert_eq!(index.search_batch(&queries), expected, "search_batch: {at}");
                let stabbed: Vec<Vec<RecordId>> = points.iter().map(|p| index.stab(p)).collect();
                assert_eq!(stabbed, expected_stabs, "stab: {at}");
                for q in &queries {
                    let before = index.stats().search_node_accesses;
                    index.search(q);
                    let by_search = index.stats().search_node_accesses - before;
                    let counted = index.count_search_accesses(q);
                    assert_eq!(counted, by_search, "accesses: {at}, {q:?}");
                    assert!(counted <= index.node_count() as u64, "accesses: {at}");
                }
            }
        }
        for index in &indexes {
            assert!(
                index.check_invariants().is_empty(),
                "{}",
                index.config().variant_name()
            );
            let accesses: Vec<u64> = queries
                .iter()
                .map(|q| index.count_search_accesses(q))
                .collect();
            let name = index.config().variant_name();
            assert!(accesses.iter().all(|&a| a >= 1), "{name}");
        }
        for sr in [&indexes[1], &indexes[3]] {
            assert!(
                sr.stats().spanning_stores > 0,
                "{} at {leaf_node_bytes} B stores no spanning record",
                sr.config().variant_name()
            );
        }
    }
}

fn domain() -> Rect<2> {
    Rect::new([0.0, 0.0], [100_000.0, 100_000.0])
}

#[test]
fn bulk_loaded_tree_matches_brute_force() {
    let dataset = DataDistribution::R2.generate(N, 33);
    let tree = bulk_load(IndexConfig::rtree(), dataset.records.clone());
    tree.assert_invariants();
    for query in &query_mix(5) {
        assert_eq!(tree.search(query), brute_force(&dataset.records, query));
    }
}

#[test]
fn deletions_keep_variants_consistent() {
    let dataset = DataDistribution::I3.generate(N, 55);
    for variant in Variant::ALL {
        let construction = variant.construction();
        let mut index = construction.build(variant.config(), domain(), N / 10, &dataset.records);
        // Delete every third record.
        let mut remaining: Vec<(Rect<2>, RecordId)> = Vec::new();
        for (i, (r, id)) in dataset.records.iter().enumerate() {
            if i % 3 == 0 {
                assert!(index.delete(r, *id), "{}: delete {id:?}", variant.name());
            } else {
                remaining.push((*r, *id));
            }
        }
        assert_eq!(index.len(), remaining.len(), "{}", variant.name());
        assert!(
            index.check_invariants().is_empty(),
            "{} after deletes: {:?}",
            variant.name(),
            index.check_invariants()
        );
        for query in &query_mix(6) {
            assert_eq!(
                index.search(query),
                brute_force(&remaining, query),
                "{} disagrees after deletes for {query:?}",
                variant.name()
            );
        }
    }
}

#[test]
fn interleaved_insert_delete_search() {
    let dataset = DataDistribution::I4.generate(2_000, 77);
    let spec = SkeletonSpec::predict(domain(), 2_000, &dataset.records[..200]);
    let mut index = build_skeleton(IndexConfig::skeleton_srtree(), &spec);
    let mut live: Vec<(Rect<2>, RecordId)> = Vec::new();
    for (i, (r, id)) in dataset.records.iter().enumerate() {
        index.insert(*r, *id);
        live.push((*r, *id));
        // Periodically delete an old record and verify a probe.
        if i % 7 == 3 {
            let victim = live.remove(live.len() / 2);
            assert!(index.delete(&victim.0, victim.1));
        }
        if i % 251 == 0 {
            let q = Rect::new([0.0, 0.0], [50_000.0, 50_000.0]);
            assert_eq!(index.search(&q), brute_force(&live, &q), "at step {i}");
        }
    }
    assert_eq!(index.len(), live.len());
    assert!(index.check_invariants().is_empty());
}
