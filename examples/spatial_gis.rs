//! Spatial (GIS-style) rectangle indexing with skewed feature sizes.
//!
//! A map layer mixes many small features (buildings) with a few enormous
//! ones (lakes, administrative boundaries) — rectangle data with a highly
//! non-uniform size distribution, the R2 regime of the paper's Graph 6.
//! This example compares map-window queries across all four variants.
//!
//! ```sh
//! cargo run --release --example spatial_gis
//! ```

use segment_indexes::core::{build_skeleton, IndexConfig, RecordId, SkeletonSpec, Tree};
use segment_indexes::geom::Rect;

/// Deterministic pseudo-random stream (keeps the example dependency-free).
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn main() {
    const N: u64 = 40_000;
    let domain = Rect::new([0.0, 0.0], [100_000.0, 100_000.0]);
    let mut rng = Lcg(0xFEED_5EED);

    // Feature mix: 97% buildings (≤120 m), 2.5% parks (≤2 km), 0.5% lakes
    // and boundaries (up to 40 km).
    let features: Vec<(Rect<2>, RecordId)> = (0..N)
        .map(|i| {
            let cx = rng.next_f64() * 100_000.0;
            let cy = rng.next_f64() * 100_000.0;
            let class = rng.next_f64();
            let (w, h) = if class < 0.97 {
                (20.0 + rng.next_f64() * 100.0, 20.0 + rng.next_f64() * 100.0)
            } else if class < 0.995 {
                (
                    500.0 + rng.next_f64() * 1_500.0,
                    500.0 + rng.next_f64() * 1_500.0,
                )
            } else {
                (
                    5_000.0 + rng.next_f64() * 35_000.0,
                    2_000.0 + rng.next_f64() * 10_000.0,
                )
            };
            let rect = Rect::new(
                [(cx - w / 2.0).max(0.0), (cy - h / 2.0).max(0.0)],
                [(cx + w / 2.0).min(100_000.0), (cy + h / 2.0).min(100_000.0)],
            );
            (rect, RecordId(i))
        })
        .collect();

    let spec = SkeletonSpec::predict(domain, N as usize, &features[..2_000]);
    let mut indexes: Vec<Tree<2>> = vec![
        Tree::new(IndexConfig::rtree()),
        Tree::new(IndexConfig::srtree()),
        build_skeleton(IndexConfig::skeleton_rtree(), &spec),
        build_skeleton(IndexConfig::skeleton_srtree(), &spec),
    ];
    for index in indexes.iter_mut() {
        for (rect, id) in &features {
            index.insert(*rect, *id);
        }
    }

    // Map windows at three zoom levels.
    let windows = [
        (
            "street zoom (200 m)",
            Rect::new([42_000.0, 57_000.0], [42_200.0, 57_200.0]),
        ),
        (
            "district zoom (3 km)",
            Rect::new([40_000.0, 55_000.0], [43_000.0, 58_000.0]),
        ),
        (
            "city zoom (20 km)",
            Rect::new([30_000.0, 45_000.0], [50_000.0, 65_000.0]),
        ),
    ];

    println!("{N} features (97% buildings, 2.5% parks, 0.5% lakes)\n");
    for (label, window) in &windows {
        println!("{label}:");
        let expected = indexes[0].search(window);
        for index in &indexes {
            let accesses = index.count_search_accesses(window);
            let hits = index.search(window);
            let name = index.config().variant_name();
            assert_eq!(hits, expected, "{name} disagrees");
            println!(
                "  {:>18}: {:>5} features, {:>4} node accesses ({} nodes total)",
                name,
                hits.len(),
                accesses,
                index.node_count()
            );
        }
        println!();
    }

    for index in &indexes {
        assert!(index.check_invariants().is_empty());
    }
    println!("all variants agreed on every window");
}
