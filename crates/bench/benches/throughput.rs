//! Batched query throughput: serial `search` vs the allocation-free cursor
//! kernel vs `search_batch` (the cursor loop plus one result vector per
//! query), in queries per second (criterion `Throughput::Elements`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use segidx_core::{IndexConfig, SearchCursor, Tree};
use segidx_geom::Rect;
use segidx_workloads::{queries_for_qar, DataDistribution};
use std::hint::black_box;

const N: usize = 10_000;

fn build(config: IndexConfig) -> Tree<2> {
    let dataset = DataDistribution::I3.generate(N, 7);
    let mut tree: Tree<2> = Tree::new(config);
    for (rect, id) in &dataset.records {
        tree.insert(*rect, *id);
    }
    tree
}

fn query_mix() -> Vec<Rect<2>> {
    [0.001, 1.0, 1000.0]
        .iter()
        .flat_map(|&qar| queries_for_qar(qar, 40, 3).queries)
        .collect()
}

fn bench_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput");
    group
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3));

    let queries = query_mix();
    group.throughput(Throughput::Elements(queries.len() as u64));

    for (name, config) in [
        ("rtree", IndexConfig::rtree()),
        ("srtree", IndexConfig::srtree()),
    ] {
        let tree = build(config);

        // One fresh result vector per query (the pre-tentpole code path).
        group.bench_function(BenchmarkId::new("serial", name), |b| {
            b.iter(|| {
                let mut found = 0;
                for q in &queries {
                    found += tree.search(black_box(q)).len();
                }
                black_box(found)
            })
        });

        // Allocation-free kernel: one cursor reused across the whole list.
        group.bench_function(BenchmarkId::new("cursor_reuse", name), |b| {
            let mut cursor = SearchCursor::new();
            b.iter(|| {
                let mut found = 0;
                for q in &queries {
                    found += tree.search_with(&mut cursor, black_box(q)).len();
                }
                black_box(found)
            })
        });

        group.bench_function(BenchmarkId::new("search_batch", name), |b| {
            b.iter(|| black_box(tree.search_batch(black_box(&queries))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
