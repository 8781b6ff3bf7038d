//! Search-latency benches: intersection queries across the QAR sweep, and
//! the stabbing queries central to historical-data workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use segidx_bench::Variant;
use segidx_core::{IntervalIndex, Skeleton};
use segidx_geom::{Point, Rect};
use segidx_workloads::{queries_for_qar, DataDistribution};
use std::hint::black_box;

const N: usize = 20_000;

fn build(variant: Variant, dist: DataDistribution) -> Skeleton<2> {
    let dataset = dist.generate(N, 7);
    let mut index = variant.build_index(N);
    for (rect, id) in &dataset.records {
        index.insert(*rect, *id);
    }
    index
}

fn bench_qar_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_qar");
    group
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2));

    let index = build(Variant::SkeletonSRTree, DataDistribution::I3);
    for qar in [0.0001, 0.01, 1.0, 100.0, 10_000.0] {
        let queries = queries_for_qar(qar, 20, 3).queries;
        group.bench_function(BenchmarkId::new("skeleton_sr", format!("qar_{qar}")), |b| {
            b.iter(|| {
                let mut found = 0;
                for q in &queries {
                    found += index.search(black_box(q)).len();
                }
                black_box(found)
            })
        });
    }
    group.finish();
}

fn bench_stab(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_stab");
    group
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2));

    for variant in [Variant::RTree, Variant::SRTree, Variant::SkeletonSRTree] {
        let index = build(variant, DataDistribution::I3);
        let points: Vec<Point<2>> = (0..50)
            .map(|i| Point::new([(i * 1999 % 100_000) as f64, (i * 733 % 100_000) as f64]))
            .collect();
        group.bench_function(
            BenchmarkId::new("stab", variant.name().replace(' ', "-")),
            |b| {
                b.iter(|| {
                    let mut found = 0;
                    for p in &points {
                        found += index.search(black_box(&Rect::from_point(*p))).len();
                    }
                    black_box(found)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_qar_sweep, bench_stab);
criterion_main!(benches);
