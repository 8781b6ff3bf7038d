//! Rendering results: paper-style tables and CSV files, plus what the
//! timing binaries share when they write a `results/BENCH_*.json`.

use crate::runner::GraphResult;
use std::io::Write;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

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

/// The `hardware_note` of a `results/BENCH_*.json`: where it ran, then
/// `reading` — how this bench's numbers are to be read there.
pub fn hardware_note(cores: usize, reading: &str) -> String {
    format!("container run (available_parallelism = {cores}); {reading}")
}

/// Today's date (UTC) as `YYYY-MM-DD`, for a result file's `date`.
pub fn today() -> String {
    // Days-since-epoch → (year, month, day), proleptic Gregorian.
    let mut z = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs() as i64 / 86_400)
        .unwrap_or(0);
    z += 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
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
        "{:>18}  {:>8}  {:>6}  {:>9}  {:>9}  {:>7}  {:>9}  {:>9}\n",
        "variant", "nodes", "height", "entries", "spanning", "cuts", "coalesces", "build ms"
    ));
    for s in &result.series {
        out.push_str(&format!(
            "{:>18}  {:>8}  {:>6}  {:>9}  {:>9}  {:>7}  {:>9}  {:>9}\n",
            s.variant.name(),
            s.build.node_count,
            s.build.height,
            s.build.entry_count,
            s.build.spanning_stores,
            s.build.cuts,
            s.build.coalesces,
            s.build.build_ms
        ));
    }
    out.push('\n');
    out.push_str(&format!(
        "{:>18}  {:>24}  {:>24}  {:>8}\n",
        "variant", "search p50/p95/p99 (us)", "insert p50/p95/p99 (us)", "bp hit"
    ));
    for s in &result.series {
        out.push_str(&format!(
            "{:>18}  {:>24}  {:>24}  {:>8}\n",
            s.variant.name(),
            percentile_cell(&s.search_latency),
            percentile_cell(&s.insert_latency),
            hit_rate_cell(s)
        ));
    }
    out
}

/// `p50/p95/p99` in microseconds (one decimal), or `-` when untimed.
fn percentile_cell(h: &segidx_obs::HistogramSnapshot) -> String {
    match (h.p50(), h.p95(), h.p99()) {
        (Some(p50), Some(p95), Some(p99)) => {
            let us = |n: u64| n as f64 / 1_000.0;
            format!("{:.1}/{:.1}/{:.1}", us(p50), us(p95), us(p99))
        }
        _ => "-".to_string(),
    }
}

/// Buffer-pool hit rate as a percentage, or `-` for purely in-memory runs.
fn hit_rate_cell(s: &crate::runner::Series) -> String {
    match s.io.hit_rate() {
        Some(rate) => format!("{:.1}%", rate * 100.0),
        None => "-".to_string(),
    }
}

/// Writes a graph's series as CSV:
/// `qar,log10_qar,<variant columns...>`.
pub fn write_csv(result: &GraphResult, path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(f, "qar,log10_qar")?;
    for s in &result.series {
        write!(f, ",{}", s.variant.name().replace(' ', "_"))?;
    }
    writeln!(f)?;
    let n_points = result.series[0].points.len();
    for i in 0..n_points {
        let p0 = result.series[0].points[i];
        write!(f, "{},{}", p0.qar, p0.log10_qar)?;
        for s in &result.series {
            write!(f, ",{}", s.points[i].avg_nodes)?;
        }
        writeln!(f)?;
    }
    f.flush()
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
                .map(|(i, &variant)| {
                    let mut search_latency = segidx_obs::HistogramSnapshot::default();
                    search_latency.counts[11] = 3; // three ~1.3 us searches
                    search_latency.count = 3;
                    search_latency.sum = 4_000;
                    search_latency.max = 1_500;
                    Series {
                        variant,
                        points: vec![point(i as f64 + 1.5)],
                        build: BuildInfo::default(),
                        stats: segidx_core::StatsSnapshot::default(),
                        search_latency,
                        insert_latency: segidx_obs::HistogramSnapshot::default(),
                        io: segidx_storage::IoStatsSnapshot::default(),
                    }
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
        assert_eq!(
            hardware_note(2, "ratios are the signal"),
            "container run (available_parallelism = 2); ratios are the signal"
        );
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
        assert!(table.contains("search p50/p95/p99"));
        // The seeded histogram renders percentiles; untimed inserts render
        // `-`, as does the in-memory buffer-pool column.
        assert!(table.contains("/"));
        assert!(table.contains("-"));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let dir = std::env::temp_dir().join(format!("segidx-csv-{}", std::process::id()));
        let path = dir.join("g1.csv");
        write_csv(&tiny_result(), &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert_eq!(
            header,
            "qar,log10_qar,R-Tree,SR-Tree,Skeleton_R-Tree,Skeleton_SR-Tree"
        );
        let row = lines.next().unwrap();
        assert!(row.starts_with("1,0,1.5,2.5,3.5,4.5"));
        assert_eq!(lines.count(), 0);
    }
}
