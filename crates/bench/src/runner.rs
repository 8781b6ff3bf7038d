//! Experiment execution: build the paper's four variants, sweep the QAR
//! range, collect the paper's metric.

use crate::experiment::{Experiment, Graph, Variant};
use segidx_core::{IntervalIndex, Skeleton, StatsSnapshot};
use segidx_obs::{HistogramSnapshot, LatencyHistogram};
use segidx_storage::IoStatsSnapshot;
use segidx_workloads::{paper_query_sweep, queries_for_qar};
use std::time::Instant;

/// One point of a series: the average nodes accessed per search at one QAR.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepPoint {
    /// Horizontal-to-vertical query aspect ratio.
    pub qar: f64,
    /// `log₁₀(qar)` — the X axis of the paper's graphs.
    pub log10_qar: f64,
    /// Average index nodes accessed per search — the Y axis.
    pub avg_nodes: f64,
}

/// Construction-side statistics for one variant.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildInfo {
    /// Index nodes after all insertions.
    pub node_count: usize,
    /// Tree height.
    pub height: u32,
    /// Physical index records (leaf + spanning).
    pub entry_count: u64,
    /// Spanning records stored (gross).
    pub spanning_stores: u64,
    /// Records cut into spanning + remnant portions.
    pub cuts: u64,
    /// Coalescing merges performed.
    pub coalesces: u64,
    /// Leaf + internal splits.
    pub splits: u64,
    /// Wall-clock build time in milliseconds.
    pub build_ms: u64,
}

/// The full sweep for one variant.
#[derive(Clone, Debug)]
pub struct Series {
    /// Which index variant.
    pub variant: Variant,
    /// One point per QAR value, in sweep order.
    pub points: Vec<SweepPoint>,
    /// Construction statistics.
    pub build: BuildInfo,
    /// Cumulative logical statistics after build + sweep.
    pub stats: StatsSnapshot,
    /// Per-search wall-time distribution over the whole sweep (nanoseconds).
    pub search_latency: HistogramSnapshot,
    /// Per-insert wall-time distribution over the build (nanoseconds). For
    /// the Skeleton variants it includes the buffered inserts, and its max
    /// is the one insert that builds the skeleton and replays the buffer.
    pub insert_latency: HistogramSnapshot,
    /// Physical I/O counters (zero for these in-memory experiment runs;
    /// populated when a variant runs over the paged storage substrate).
    pub io: IoStatsSnapshot,
}

impl Series {
    /// Buffer-pool hit rate in `[0, 1]`; 0.0 when the run performed no
    /// buffered I/O (purely in-memory experiments).
    pub fn buffer_pool_hit_rate(&self) -> f64 {
        self.io.hit_rate().unwrap_or(0.0)
    }
}

impl Series {
    /// Mean of `avg_nodes` over the points selected by `pred` (e.g. the
    /// vertical-QAR range `log₁₀(QAR) < 0`).
    pub fn mean_where(&self, pred: impl Fn(&SweepPoint) -> bool) -> f64 {
        let sel: Vec<f64> = self
            .points
            .iter()
            .filter(|p| pred(p))
            .map(|p| p.avg_nodes)
            .collect();
        if sel.is_empty() {
            return f64::NAN;
        }
        sel.iter().sum::<f64>() / sel.len() as f64
    }
}

/// All series for one graph.
#[derive(Clone, Debug)]
pub struct GraphResult {
    /// The experiment that produced this result.
    pub experiment: Experiment,
    /// One series per variant, in [`Variant::ALL`] order.
    pub series: Vec<Series>,
}

impl GraphResult {
    /// The series for `variant`.
    pub fn series_for(&self, variant: Variant) -> &Series {
        self.series
            .iter()
            .find(|s| s.variant == variant)
            .expect("all variants present")
    }

    /// The graph this reproduces.
    pub fn graph(&self) -> Graph {
        self.experiment.graph
    }
}

/// Runs one experiment: generates the data once, then builds and sweeps
/// every variant in parallel (one thread per variant — they are independent
/// indexes over the same input).
pub fn run_experiment(experiment: &Experiment) -> GraphResult {
    let dataset = experiment.dataset();
    let mut series: Vec<Option<Series>> = vec![None; Variant::ALL.len()];

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for variant in Variant::ALL {
            let records = &dataset.records;
            let exp = *experiment;
            handles.push(scope.spawn(move || run_variant(variant, records, &exp)));
        }
        for (i, h) in handles.into_iter().enumerate() {
            series[i] = Some(h.join().expect("variant thread panicked"));
        }
    });

    GraphResult {
        experiment: *experiment,
        series: series.into_iter().map(|s| s.unwrap()).collect(),
    }
}

/// Builds one variant over `records` and sweeps the QAR range.
pub fn run_variant(
    variant: Variant,
    records: &[(segidx_geom::Rect<2>, segidx_core::RecordId)],
    experiment: &Experiment,
) -> Series {
    let insert_latency = LatencyHistogram::new();
    let start = Instant::now();
    let mut index = variant.build_index(experiment.tuples);
    for (rect, id) in records {
        insert_latency.time(|| index.insert(*rect, *id));
    }
    let build_ms = start.elapsed().as_millis() as u64;
    let search_latency = LatencyHistogram::new();
    let points = sweep(&index, experiment, &search_latency);
    let snap = index.stats();
    Series {
        variant,
        points,
        build: BuildInfo {
            node_count: index.node_count(),
            height: index.height(),
            entry_count: index.entry_count() as u64,
            spanning_stores: snap.spanning_stores,
            cuts: snap.cuts,
            coalesces: snap.coalesces,
            splits: snap.leaf_splits + snap.internal_splits,
            build_ms,
        },
        stats: snap,
        search_latency: search_latency.snapshot(),
        insert_latency: insert_latency.snapshot(),
        io: IoStatsSnapshot::default(),
    }
}

/// Sweeps the paper's thirteen QAR values over a built index, recording
/// each search's wall time into `latency`.
pub fn sweep(
    index: &dyn IntervalIndex<2>,
    experiment: &Experiment,
    latency: &LatencyHistogram,
) -> Vec<SweepPoint> {
    let sets = if experiment.queries_per_qar == segidx_workloads::QUERIES_PER_QAR {
        paper_query_sweep(experiment.query_seed)
    } else {
        segidx_geom::PAPER_QAR_SWEEP
            .iter()
            .map(|&q| queries_for_qar(q, experiment.queries_per_qar, experiment.query_seed))
            .collect()
    };
    sets.iter()
        .map(|qs| {
            // Snapshot-diff instead of resetting: the per-QAR window is
            // isolated by subtraction, so the index's cumulative history
            // (and any concurrent observer of it) survives the sweep.
            let before = index.stats();
            for q in &qs.queries {
                latency.time(|| index.search(q));
            }
            let window = index.stats().diff(&before);
            SweepPoint {
                qar: qs.qar,
                log10_qar: qs.log10_qar,
                avg_nodes: window.avg_nodes_per_search().unwrap_or(0.0),
            }
        })
        .collect()
}

/// Builds each variant over the experiment's dataset and renders its
/// per-level structure report (`reproduce --inspect`).
pub fn inspect_variants(experiment: &Experiment) -> Vec<String> {
    let dataset = experiment.dataset();
    Variant::ALL
        .iter()
        .map(|variant| {
            let mut index = variant.build_index(experiment.tuples);
            for (r, id) in &dataset.records {
                index.insert(*r, *id);
            }
            let Skeleton::Built(tree) = index else {
                panic!("{}: prediction buffer never filled", variant.name());
            };
            format!("structure of {}:\n{}", variant.name(), tree.report())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiment_produces_full_series() {
        let exp = Experiment {
            tuples: 3_000,
            queries_per_qar: 10,
            ..Experiment::paper(Graph::G3)
        };
        let result = run_experiment(&exp);
        assert_eq!(
            result.series.iter().map(|s| s.variant).collect::<Vec<_>>(),
            [
                Variant::RTree,
                Variant::SRTree,
                Variant::SkeletonRTree,
                Variant::SkeletonSRTree
            ],
            "exactly the paper's four variants, in paper order"
        );
        for s in &result.series {
            assert_eq!(s.points.len(), 13, "{}", s.variant.name());
            assert!(
                s.points.iter().all(|p| p.avg_nodes >= 1.0),
                "{}: every search visits at least the root",
                s.variant.name()
            );
            assert!(s.build.node_count > 0);
            assert_eq!(
                s.stats.searches,
                13 * 10,
                "cumulative history survives the sweep (no resets)"
            );
            assert_eq!(s.search_latency.count, 13 * 10, "every search timed");
            assert_eq!(
                s.insert_latency.count,
                exp.tuples as u64,
                "{}: every insert timed, buffered ones included",
                s.variant.name()
            );
            assert!(s.search_latency.p99().is_some());
        }
        // Deterministic: same experiment, same numbers.
        let again = run_experiment(&exp);
        for (a, b) in result.series.iter().zip(again.series.iter()) {
            assert_eq!(a.points.len(), b.points.len());
            for (pa, pb) in a.points.iter().zip(b.points.iter()) {
                assert_eq!(pa.avg_nodes, pb.avg_nodes);
            }
        }
    }

    #[test]
    fn mean_where_selects_ranges() {
        let s = Series {
            variant: Variant::RTree,
            points: vec![
                SweepPoint {
                    qar: 0.1,
                    log10_qar: -1.0,
                    avg_nodes: 10.0,
                },
                SweepPoint {
                    qar: 10.0,
                    log10_qar: 1.0,
                    avg_nodes: 30.0,
                },
            ],
            build: BuildInfo::default(),
            stats: StatsSnapshot::default(),
            search_latency: HistogramSnapshot::default(),
            insert_latency: HistogramSnapshot::default(),
            io: IoStatsSnapshot::default(),
        };
        assert_eq!(s.mean_where(|p| p.log10_qar < 0.0), 10.0);
        assert_eq!(s.mean_where(|p| p.log10_qar > 0.0), 30.0);
        assert!(s.mean_where(|p| p.qar > 100.0).is_nan());
    }
}
