//! HINT engine microbench: 1-D stabbing against the SR-Tree. The gated
//! comparison against all four variants, with JSON output, lives in the
//! `hint_bench` binary; this is the criterion-tracked spot check.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use segidx_core::{HintIndex, IndexConfig, RecordId, Tree};
use segidx_geom::{Point, Rect};
use segidx_workloads::{DataDistribution, DOMAIN_MAX};
use std::hint::black_box;

const N: usize = 20_000;

fn bench_stab_1d(c: &mut Criterion) {
    let mut group = c.benchmark_group("hint_stab");
    group
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2));

    // The x-intervals of the paper's I3 data (exponential lengths).
    let intervals: Vec<(Rect<1>, RecordId)> = DataDistribution::I3
        .generate(N, 7)
        .records
        .iter()
        .map(|(r, id)| (Rect::new([r.lo(0)], [r.hi(0)]), *id))
        .collect();
    let mut hint = HintIndex::new();
    hint.bulk_load(intervals.clone());
    let mut tree = Tree::<1>::new(IndexConfig::srtree());
    for (r, id) in &intervals {
        tree.insert(*r, *id);
    }
    let points: Vec<Point<1>> = (0..50u64)
        .map(|i| Point::new([(i * 1_999 % 100_000) as f64 / 100_000.0 * DOMAIN_MAX]))
        .collect();

    group.bench_function(BenchmarkId::new("stab", "hint"), |b| {
        b.iter(|| {
            let mut found = 0;
            for p in &points {
                found += hint.stab(black_box(p)).len();
            }
            black_box(found)
        })
    });
    group.bench_function(BenchmarkId::new("stab", "sr-tree"), |b| {
        b.iter(|| {
            let mut found = 0;
            for p in &points {
                found += tree.stab(black_box(p)).len();
            }
            black_box(found)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_stab_1d);
criterion_main!(benches);
