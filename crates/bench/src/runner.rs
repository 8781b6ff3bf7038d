//! Experiment execution: build the paper's four variants, sweep the QAR
//! range, collect the paper's metric.

use crate::experiment::{prediction_buffer, Axis, Experiment, Graph, Variant};
use segidx_core::{RecordId, StatsSnapshot, Tree};
use segidx_geom::Rect;
use segidx_workloads::{domain, paper_query_sweep, queries_for_qar};

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
/// indexes over the same input, and nothing is timed, so they cannot
/// disturb each other's numbers).
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

/// Runs `experiment` once per value of `axis` (`reproduce --ablate`), in
/// [`Axis::values`] order.
pub fn run_ablation(axis: Axis, experiment: &Experiment) -> Vec<GraphResult> {
    axis.values()
        .iter()
        .map(|&a| {
            run_experiment(&Experiment {
                ablation: Some(a),
                ..*experiment
            })
        })
        .collect()
}

/// Builds one variant over `records` and sweeps the QAR range.
pub fn run_variant(
    variant: Variant,
    records: &[(Rect<2>, RecordId)],
    experiment: &Experiment,
) -> Series {
    let index = build_variant(variant, records, experiment);
    let points = sweep(&index, experiment);
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
        },
        stats: snap,
    }
}

/// Builds `variant` over `records` as the experiment says: the paper's
/// way, or with its ablation applied.
fn build_variant(
    variant: Variant,
    records: &[(Rect<2>, RecordId)],
    experiment: &Experiment,
) -> Tree<2> {
    let (config, construction) = match experiment.ablation {
        Some(ablation) => ablation.apply(variant),
        None => (variant.config(), variant.construction()),
    };
    let prefix = prediction_buffer(experiment.tuples);
    construction.build(config, domain(), prefix, records)
}

/// Sweeps the paper's thirteen QAR values over a built index.
pub fn sweep(index: &Tree<2>, experiment: &Experiment) -> Vec<SweepPoint> {
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
                index.search(q);
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
        .map(|&variant| {
            let tree = build_variant(variant, &dataset.records, experiment);
            format!("structure of {}:\n{}", variant.name(), tree.report())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ablation_csv;

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
        }
        // Every axis's preset value reproduces the paper's build bit for
        // bit, once per variant; a second ablation run writes the same
        // bytes, so the committed `ablation_*.csv` are a diff.
        for axis in Axis::ALL {
            let first = run_ablation(axis, &exp);
            for s in &result.series {
                let presets: Vec<&Series> = first
                    .iter()
                    .filter(|r| r.experiment.ablation.unwrap().is_preset(s.variant))
                    .map(|r| r.series_for(s.variant))
                    .collect();
                assert_eq!(presets.len(), 1, "{} {}", axis.name(), s.variant.name());
                let bits = |s: &Series| {
                    s.points
                        .iter()
                        .map(|p| p.avg_nodes.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    bits(presets[0]),
                    bits(s),
                    "{} {}",
                    axis.name(),
                    s.variant.name()
                );
                assert_eq!(presets[0].stats, s.stats);
            }
            let again = run_ablation(axis, &exp);
            assert_eq!(ablation_csv(axis, &first), ablation_csv(axis, &again));
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
        };
        assert_eq!(s.mean_where(|p| p.log10_qar < 0.0), 10.0);
        assert_eq!(s.mean_where(|p| p.log10_qar > 0.0), 30.0);
        assert!(s.mean_where(|p| p.qar > 100.0).is_nan());
    }
}
