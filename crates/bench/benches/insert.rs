//! Insert-throughput bench: how fast each variant ingests the paper's
//! workloads, including the Skeleton variants' prediction/pre-construction
//! phases, plus the packed (bulk-loaded) baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use segidx_bench::Variant;
use segidx_core::IntervalIndex;
use segidx_workloads::DataDistribution;
use std::hint::black_box;

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("insert");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(3));

    const N: usize = 10_000;
    for dist in [DataDistribution::I3, DataDistribution::R2] {
        let dataset = dist.generate(N, 7);
        group.throughput(Throughput::Elements(N as u64));
        for variant in Variant::ALL {
            group.bench_function(
                BenchmarkId::new(dist.name(), variant.name().replace(' ', "-")),
                |b| {
                    b.iter(|| {
                        let mut index = variant.build_index(N);
                        for (rect, id) in &dataset.records {
                            index.insert(*rect, *id);
                        }
                        black_box(index.len())
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_bulk_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("bulk_load");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3));

    const N: usize = 10_000;
    let dataset = DataDistribution::I3.generate(N, 7);
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("packed_str", |b| {
        b.iter(|| {
            let tree = segidx_core::bulk::bulk_load(
                segidx_core::IndexConfig::rtree(),
                dataset.records.clone(),
            );
            black_box(tree.node_count())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_insert, bench_bulk_load);
criterion_main!(benches);
