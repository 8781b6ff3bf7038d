//! Quickstart: build each index variant, insert interval data, and query it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use segment_indexes::core::{build_skeleton, IndexConfig, RecordId, SkeletonSpec, Tree};
use segment_indexes::geom::Rect;

fn main() {
    // The domain: time on the X axis (years), measurement on the Y axis.
    let domain = Rect::new([1900.0, 0.0], [2100.0, 1000.0]);

    // Historical interval data: horizontal segments — a value that held
    // during a time range (paper Figure 1).
    let records: Vec<(Rect<2>, RecordId)> = (0..1_000u64)
        .map(|i| {
            let start = 1900.0 + (i % 180) as f64;
            let duration = 1.0 + (i % 23) as f64; // mix of short and long
            let value = (i % 997) as f64;
            (
                Rect::new([start, value], [start + duration, value]),
                RecordId(i),
            )
        })
        .collect();

    // The four index variants of the paper are one type, `Tree`: two
    // configurations grown from empty, and two Skeletons, pre-constructed
    // from a distribution predicted from the first 50 tuples (paper §4).
    let spec = SkeletonSpec::predict(domain, 1_000, &records[..50]);
    let mut indexes: Vec<Tree<2>> = vec![
        Tree::new(IndexConfig::rtree()),
        Tree::new(IndexConfig::srtree()),
        build_skeleton(IndexConfig::skeleton_rtree(), &spec),
        build_skeleton(IndexConfig::skeleton_srtree(), &spec),
    ];
    for index in indexes.iter_mut() {
        for (rect, id) in &records {
            index.insert(*rect, *id);
        }
    }

    // Range query: everything valid during 1950–1980 with value in
    // [100, 500].
    let query = Rect::new([1950.0, 100.0], [1980.0, 500.0]);
    println!("query {query:?}\n");
    for index in &indexes {
        let hits = index.search(&query);
        let accesses = index.count_search_accesses(&query);
        println!(
            "{:>18}: {} results, {} index nodes accessed, {} nodes total, height {}",
            index.config().variant_name(),
            hits.len(),
            accesses,
            index.node_count(),
            index.height()
        );
        assert!(index.check_invariants().is_empty());
    }

    // All variants agree on the answer.
    let expected = indexes[0].search(&query);
    for index in &indexes[1..] {
        assert_eq!(index.search(&query), expected);
    }
    println!("\nall four variants returned identical results");
}
