//! Leaf-scan microbench: AoS entry iteration vs the SoA plane-scan kernel.
//!
//! Isolates the per-node hot loop of the search kernel — "which entries of
//! this node intersect the query?" — and compares the pre-PR-2 layout
//! (array of `LeafEntry` structs, one `Rect::intersects` per entry) against
//! the structure-of-arrays layout scanned by
//! [`segidx_geom::scan_intersects`]. Widths 25, 34 and 103 are the ones a
//! paper-sized tree scans (a 1 KB leaf, a level-1 branch block, a level-2
//! one), so they exercise the kernel's path for the remainder under one
//! 64-entry word; 64–4 096 are long planes.
//!
//! The insert descent's two kernels, [`segidx_geom::scan_first_spanned`]
//! and [`segidx_geom::scan_min_enlargement`], are timed on branch blocks
//! of the widths a paper-sized tree's internal nodes hold (7, 25, 34, 60,
//! 103) with a short record that spans no branch — the common step of a
//! descent, which scans the whole block.
//!
//! Run with `CRITERION_JSON` set to an absolute path (the bench runs from
//! its package directory) to capture the numbers behind
//! `results/scan_kernel.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use segidx_core::entry::{LeafEntry, LeafStore};
use segidx_core::RecordId;
use segidx_geom::{scan_first_spanned, scan_intersects, scan_min_enlargement, Rect};
use std::hint::black_box;

/// Synthetic leaf contents: short segments plus a sprinkling of long ones,
/// matching the paper's interval datasets.
fn dataset(n: u64) -> Vec<LeafEntry<2>> {
    (0..n)
        .map(|i| {
            let x = ((i * 37) % 5_000) as f64;
            let y = ((i * 91) % 3_000) as f64;
            let len = if i % 7 == 0 { 1_200.0 } else { 30.0 };
            LeafEntry {
                rect: Rect::new([x, y], [x + len, y + 20.0]),
                record: RecordId(i),
            }
        })
        .collect()
}

/// A query window hitting roughly a fifth of the dataset.
fn query() -> Rect<2> {
    Rect::new([500.0, 200.0], [1_700.0, 1_400.0])
}

fn bench_leaf_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_kernel");
    group
        .sample_size(40)
        .measurement_time(std::time::Duration::from_secs(2));

    for n in [25u64, 34, 64, 103, 256, 1_024, 4_096] {
        let entries = dataset(n);
        let store: LeafStore<2> = entries.iter().copied().collect();
        let q = query();
        group.throughput(Throughput::Elements(n));

        // Baseline: the pre-SoA layout — iterate whole entry structs and
        // call Rect::intersects per entry.
        group.bench_function(BenchmarkId::new("aos", n), |b| {
            let mut out: Vec<u32> = Vec::with_capacity(n as usize);
            b.iter(|| {
                out.clear();
                for (i, e) in entries.iter().enumerate() {
                    if e.rect.intersects(black_box(&q)) {
                        out.push(i as u32);
                    }
                }
                black_box(out.len())
            })
        });

        // The SoA plane-scan kernel over the same logical contents.
        group.bench_function(BenchmarkId::new("soa", n), |b| {
            let mut out: Vec<u32> = Vec::with_capacity(n as usize);
            b.iter(|| {
                out.clear();
                let (los, his) = store.planes();
                scan_intersects(black_box(&q), los, his, &mut out);
                black_box(out.len())
            })
        });
    }
    group.finish();
}

fn bench_descent_scans(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_kernel");
    group
        .sample_size(40)
        .measurement_time(std::time::Duration::from_secs(2));

    // A short segment: it meets some branches and spans none.
    let record = Rect::new([2_500.0, 1_510.0], [2_510.0, 1_510.0]);
    for n in [7u64, 25, 34, 60, 103] {
        // The kernels read only the planes, which a leaf store lays out as
        // a branch store does.
        let branches: LeafStore<2> = dataset(n).into_iter().collect();
        group.throughput(Throughput::Elements(n));

        group.bench_function(BenchmarkId::new("first_spanned", n), |b| {
            b.iter(|| {
                let (los, his) = branches.planes();
                black_box(scan_first_spanned(black_box(&record), los, his))
            })
        });

        group.bench_function(BenchmarkId::new("min_enlargement", n), |b| {
            b.iter(|| {
                let (los, his) = branches.planes();
                black_box(scan_min_enlargement(black_box(&record), los, his))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_leaf_scan, bench_descent_scans);
criterion_main!(benches);
