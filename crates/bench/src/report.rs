//! Rendering results: paper-style tables and CSV files, plus the medians
//! the gate binaries compare interleaved rounds by.

use crate::experiment::{Ablation, Axis};
use crate::runner::GraphResult;
use crate::shape::{check_paper_shape, render_checks};
use std::path::Path;

/// Median of the per-round ratios `numer_i / denom_i` — the
/// noise-cancelling comparison statistic for interleaved round times
/// (adjacent rounds see near-identical machine conditions).
pub fn median_ratio(numer: &[u64], denom: &[u64]) -> f64 {
    let mut ratios: Vec<f64> = numer
        .iter()
        .zip(denom)
        .map(|(&n, &d)| n as f64 / d as f64)
        .collect();
    ratios.sort_unstable_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// Median of `xs` (the upper one of an even count); sorts in place.
pub fn median(xs: &mut [u64]) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Renders a graph's series as the table the paper plots: one row per QAR,
/// one column per index variant, values = average nodes accessed per search.
pub fn render_table(result: &GraphResult) -> String {
    let exp = &result.experiment;
    let mut out = String::new();
    out.push_str(&format!(
        "Graph {}: {} — {} tuples ({} queries per QAR)\n",
        exp.graph.number(),
        exp.graph.caption(),
        exp.tuples,
        exp.queries_per_qar
    ));
    out.push_str(
        "X axis = horizontal/vertical query aspect ratio (log base 10)\n\
         Y axis = average number of nodes accessed per search\n\n",
    );
    out.push_str(&format!("{:>10}", "log10(QAR)"));
    for s in &result.series {
        out.push_str(&format!("  {:>17}", s.variant.name()));
    }
    out.push('\n');
    let n_points = result.series[0].points.len();
    for i in 0..n_points {
        out.push_str(&format!("{:>10.1}", result.series[0].points[i].log10_qar));
        for s in &result.series {
            out.push_str(&format!("  {:>17.2}", s.points[i].avg_nodes));
        }
        out.push('\n');
    }
    out.push('\n');
    out.push_str(&format!(
        "{:>18}  {:>8}  {:>6}  {:>9}  {:>9}  {:>7}  {:>9}\n",
        "variant", "nodes", "height", "entries", "spanning", "cuts", "coalesces"
    ));
    for s in &result.series {
        out.push_str(&format!(
            "{:>18}  {:>8}  {:>6}  {:>9}  {:>9}  {:>7}  {:>9}\n",
            s.variant.name(),
            s.build.node_count,
            s.build.height,
            s.build.entry_count,
            s.build.spanning_stores,
            s.build.cuts,
            s.build.coalesces,
        ));
    }
    out
}

/// Renders one graph's ablation runs (one per value of `axis`, in
/// [`Axis::values`] order): per value, each variant's median ratio over
/// the sweep against its preset, then which paper-shape checks still hold.
pub fn render_ablation(axis: Axis, results: &[GraphResult]) -> String {
    let exp = &results[0].experiment;
    let mut out = format!(
        "Ablation {} on graph {} ({}, {} tuples, seed {})\n\
         median over the sweep of nodes accessed per search ÷ the preset's\n\n{:>12}",
        axis.name(),
        exp.graph.number(),
        exp.graph.distribution().name(),
        exp.tuples,
        exp.data_seed,
        axis.name()
    );
    for s in &results[0].series {
        out.push_str(&format!("  {:>17}", s.variant.name()));
    }
    out.push('\n');
    for result in results {
        out.push_str(&format!("{:>12}", ablation_of(result).name()));
        for s in &result.series {
            let preset = results
                .iter()
                .find(|r| ablation_of(r).is_preset(s.variant))
                .expect("every axis holds each variant's preset")
                .series_for(s.variant);
            let mut ratios: Vec<f64> = s
                .points
                .iter()
                .zip(&preset.points)
                .map(|(p, q)| p.avg_nodes / q.avg_nodes)
                .collect();
            ratios.sort_unstable_by(f64::total_cmp);
            out.push_str(&format!("  {:>17.3}", ratios[ratios.len() / 2]));
        }
        out.push('\n');
    }
    for result in results {
        out.push_str(&format!(
            "paper-shape checks at {} = {}:\n",
            axis.name(),
            ablation_of(result).name()
        ));
        out.push_str(&render_checks(&check_paper_shape(result)));
    }
    out
}

fn ablation_of(result: &GraphResult) -> Ablation {
    result
        .experiment
        .ablation
        .expect("an ablation run carries its value")
}

/// A graph's series as CSV: `qar,log10_qar,<variant columns...>`.
pub fn graph_csv(result: &GraphResult) -> String {
    let mut out = csv_header(result);
    for i in 0..result.series[0].points.len() {
        out.push_str(&csv_row(result, i));
    }
    out
}

/// Ablation runs as CSV, one row per (graph, value, QAR):
/// `graph,<axis>,qar,log10_qar,<variant columns...>`. Past its first two
/// columns a row reads like a `graph_csv` row, so a preset's cells equal
/// the graph's.
pub fn ablation_csv(axis: Axis, results: &[GraphResult]) -> String {
    let Some(first) = results.first() else {
        return String::new();
    };
    let mut out = format!("graph,{},{}", axis.name(), csv_header(first));
    for result in results {
        let prefix = format!(
            "{},{},",
            result.experiment.graph.number(),
            ablation_of(result).name()
        );
        for i in 0..result.series[0].points.len() {
            out.push_str(&prefix);
            out.push_str(&csv_row(result, i));
        }
    }
    out
}

fn csv_header(result: &GraphResult) -> String {
    let mut out = "qar,log10_qar".to_string();
    for s in &result.series {
        out.push(',');
        out.push_str(&s.variant.name().replace(' ', "_"));
    }
    out.push('\n');
    out
}

fn csv_row(result: &GraphResult, i: usize) -> String {
    let p0 = result.series[0].points[i];
    let mut out = format!("{},{}", p0.qar, p0.log10_qar);
    for s in &result.series {
        out.push_str(&format!(",{}", s.points[i].avg_nodes));
    }
    out.push('\n');
    out
}

/// Writes `csv` to `path`, creating its directory.
pub fn write_csv(csv: &str, path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, csv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, Graph, Variant};
    use crate::runner::{BuildInfo, GraphResult, Series, SweepPoint};

    fn tiny_result() -> GraphResult {
        let point = |v: f64| SweepPoint {
            qar: 1.0,
            log10_qar: 0.0,
            avg_nodes: v,
        };
        GraphResult {
            experiment: Experiment::quick(Graph::G1),
            series: Variant::ALL
                .iter()
                .enumerate()
                .map(|(i, &variant)| Series {
                    variant,
                    points: vec![point(i as f64 + 1.5)],
                    build: BuildInfo::default(),
                    stats: segidx_core::StatsSnapshot::default(),
                })
                .collect(),
        }
    }

    #[test]
    fn medians_take_the_upper_middle_and_ratios_pair_by_round() {
        assert_eq!(median(&mut [9, 1, 5]), 5);
        assert_eq!(median(&mut [4, 1, 3, 2]), 3);
        // Rounds 1:2, 3:2, 4:1 → ratios 0.5, 1.5, 4.0.
        assert_eq!(median_ratio(&[1, 3, 4], &[2, 2, 1]), 1.5);
    }

    #[test]
    fn table_contains_all_variants_and_values() {
        let table = render_table(&tiny_result());
        for v in Variant::ALL {
            assert!(table.contains(v.name()), "missing {}", v.name());
        }
        assert!(table.contains("1.50"));
        assert!(table.contains("4.50"));
        assert!(table.contains("Graph 1"));
        assert!(table.contains("coalesces"));
    }

    #[test]
    fn csv_shapes() {
        let variants = "R-Tree,SR-Tree,Skeleton_R-Tree,Skeleton_SR-Tree";
        assert_eq!(
            graph_csv(&tiny_result()),
            format!("qar,log10_qar,{variants}\n1,0,1.5,2.5,3.5,4.5\n")
        );
        let ablated = |a: Ablation| {
            let mut r = tiny_result();
            r.experiment.ablation = Some(a);
            r
        };
        let runs: Vec<_> = Axis::Build.values().iter().copied().map(ablated).collect();
        assert_eq!(
            ablation_csv(Axis::Build, &runs[..2]),
            format!(
                "graph,build,qar,log10_qar,{variants}\n\
                 1,dynamic,1,0,1.5,2.5,3.5,4.5\n\
                 1,skeleton,1,0,1.5,2.5,3.5,4.5\n"
            )
        );
        // Identical runs: every ratio is 1 and the preset is found per
        // variant (dynamic for the first two, skeleton for the others).
        let text = render_ablation(Axis::Build, &runs);
        assert!(text.contains("Ablation build on graph 1"), "{text}");
        assert!(text.contains("      packed              1.000"), "{text}");
        assert!(text.contains("paper-shape checks at build = packed:"));
    }
}
