//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * A1 — split algorithm: Guttman's quadratic vs the R\*-Tree split
//!   ([BECK90]);
//! * A2 — branch reservation fraction for Skeleton fanout sizing
//!   (paper §4 suggests 1/2, 2/3, 3/4);
//! * A3 — construction strategy: dynamic insertion vs Skeleton
//!   pre-construction vs static packing ([ROUS85]);
//! * A4 — variable node size (paper tactic §2.1.2) on vs off.
//!
//! Each ablation measures wall-clock search over a mixed query set; the
//! node-access deltas are printed once per configuration so the structural
//! effect is visible alongside the timing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use segidx_core::bulk::bulk_load;
use segidx_core::{
    build_skeleton, IndexConfig, IntervalIndex, Skeleton, SkeletonSpec, SplitAlgorithm, Tree,
};
use segidx_geom::Rect;
use segidx_workloads::{domain, queries_for_qar, DataDistribution};
use std::hint::black_box;
use std::time::Duration;

const N: usize = 20_000;

fn mixed_queries() -> Vec<Rect<2>> {
    [0.0001, 1.0, 10_000.0]
        .iter()
        .flat_map(|&q| queries_for_qar(q, 10, 5).queries)
        .collect()
}

fn report_accesses(label: &str, tree: &Tree<2>, queries: &[Rect<2>]) {
    let before = tree.stats();
    for q in queries {
        let _ = tree.search(q);
    }
    let snap = tree.stats().diff(&before);
    eprintln!(
        "[ablation] {label}: nodes={} height={} avg_accesses={:.1}",
        tree.node_count(),
        tree.height(),
        snap.avg_nodes_per_search().unwrap_or(0.0)
    );
}

fn a1_split_algorithm(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_split");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let dataset = DataDistribution::I3.generate(N, 7);
    let queries = mixed_queries();

    for (name, algo) in [
        ("quadratic", SplitAlgorithm::Quadratic),
        ("rstar", SplitAlgorithm::RStar),
    ] {
        let mut config = IndexConfig::rtree();
        config.split = algo;
        let mut tree: Tree<2> = Tree::new(config);
        for (r, id) in &dataset.records {
            tree.insert(*r, *id);
        }
        report_accesses(&format!("split={name}"), &tree, &queries);
        group.bench_function(BenchmarkId::new("search", name), |b| {
            b.iter(|| {
                let mut found = 0;
                for q in &queries {
                    found += tree.search(black_box(q)).len();
                }
                black_box(found)
            })
        });
    }
    group.finish();
}

fn a2_branch_fraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_branch_fraction");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let dataset = DataDistribution::R2.generate(N, 7);
    let queries = mixed_queries();

    for (name, fraction) in [("1/2", 0.5), ("2/3", 2.0 / 3.0), ("3/4", 0.75)] {
        let config = IndexConfig {
            branch_fraction: fraction,
            ..IndexConfig::skeleton_srtree()
        };
        let mut index = Skeleton::<2>::new(config, domain(), N, N / 10);
        for (r, id) in &dataset.records {
            index.insert(*r, *id);
        }
        if let Skeleton::Built(tree) = &index {
            report_accesses(&format!("branch_fraction={name}"), tree, &queries);
        }
        group.bench_function(BenchmarkId::new("search", name), |b| {
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

fn a3_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_construction");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let dataset = DataDistribution::I3.generate(N, 7);
    let queries = mixed_queries();

    let trees: Vec<(&str, Tree<2>)> = vec![
        ("dynamic", {
            let mut t = Tree::new(IndexConfig::rtree());
            for (r, id) in &dataset.records {
                t.insert(*r, *id);
            }
            t
        }),
        ("skeleton", {
            let spec = SkeletonSpec::uniform(domain(), N);
            let mut config = IndexConfig::rtree();
            config.coalesce = Some(Default::default());
            let mut t = build_skeleton(config, &spec);
            for (r, id) in &dataset.records {
                t.insert(*r, *id);
            }
            t
        }),
        (
            "packed",
            bulk_load(IndexConfig::rtree(), dataset.records.clone()),
        ),
    ];

    for (name, tree) in &trees {
        report_accesses(&format!("construction={name}"), tree, &queries);
        group.bench_function(BenchmarkId::new("search", *name), |b| {
            b.iter(|| {
                let mut found = 0;
                for q in &queries {
                    found += tree.search(black_box(q)).len();
                }
                black_box(found)
            })
        });
    }
    group.finish();
}

fn a4_variable_node_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_node_size");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let dataset = DataDistribution::I3.generate(N, 7);
    let queries = mixed_queries();

    for (name, vary) in [("doubling", true), ("fixed_1kb", false)] {
        let mut config = IndexConfig::srtree();
        config.vary_node_size = vary;
        let mut tree: Tree<2> = Tree::new(config);
        for (r, id) in &dataset.records {
            tree.insert(*r, *id);
        }
        report_accesses(&format!("node_size={name}"), &tree, &queries);
        group.bench_function(BenchmarkId::new("search", name), |b| {
            b.iter(|| {
                let mut found = 0;
                for q in &queries {
                    found += tree.search(black_box(q)).len();
                }
                black_box(found)
            })
        });
    }
    group.finish();
}

fn a5_rstar_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_rstar");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let dataset = DataDistribution::R2.generate(N, 7);
    let queries = mixed_queries();

    for (name, config) in [
        ("guttman_r", IndexConfig::rtree()),
        ("rstar", IndexConfig::rstar()),
        ("sr", IndexConfig::srtree()),
    ] {
        let mut tree: Tree<2> = Tree::new(config);
        for (r, id) in &dataset.records {
            tree.insert(*r, *id);
        }
        report_accesses(&format!("baseline={name}"), &tree, &queries);
        group.bench_function(BenchmarkId::new("search", name), |b| {
            b.iter(|| {
                let mut found = 0;
                for q in &queries {
                    found += tree.search(black_box(q)).len();
                }
                black_box(found)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    a1_split_algorithm,
    a2_branch_fraction,
    a3_construction,
    a4_variable_node_size,
    a5_rstar_baseline
);
criterion_main!(benches);
