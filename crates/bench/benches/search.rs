//! Search-latency benches: intersection queries across the QAR sweep, the
//! stabbing queries central to historical-data workloads, and the time per
//! node a paper-sweep search visits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use segidx_bench::Variant;
use segidx_core::{IndexConfig, IntervalIndex, Skeleton, Tree};
use segidx_geom::{Point, Rect, PAPER_QAR_SWEEP};
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

/// Time per node visited: the paper's QAR sweep (20 windows per ratio) on a
/// dynamic `IndexConfig::srtree()` tree of `I3` records, built record by
/// record, at a cache-resident 20 000 records and a spilled 200 000. The
/// throughput is the sweep's node accesses, so `median_ns` divided by
/// `throughput_per_iter` is the time per node visited.
fn bench_node_visit(c: &mut Criterion) {
    let mut group = c.benchmark_group("node_visit");
    group
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3));

    let sweep: Vec<Rect<2>> = PAPER_QAR_SWEEP
        .iter()
        .flat_map(|&qar| queries_for_qar(qar, 20, 1).queries)
        .collect();
    for n in [20_000, 200_000] {
        let mut tree = Tree::new(IndexConfig::srtree());
        for (rect, id) in DataDistribution::I3.generate(n, 1).records {
            tree.insert(rect, id);
        }
        let nodes: u64 = sweep.iter().map(|q| tree.count_search_accesses(q)).sum();
        group.throughput(Throughput::Elements(nodes));
        group.bench_function(BenchmarkId::new("srtree_i3", n), |b| {
            b.iter(|| {
                let mut found = 0;
                for q in &sweep {
                    found += tree.search(black_box(q)).len();
                }
                black_box(found)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_qar_sweep, bench_stab, bench_node_visit);
criterion_main!(benches);
