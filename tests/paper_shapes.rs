//! Scaled-down reproduction of the paper's evaluation, asserting the shape
//! claims that are robust at small scale. The full 200K-tuple runs are
//! produced by `cargo run --release -p segidx-bench --bin reproduce`.

use segidx_bench::{check_paper_shape, run_experiment, Experiment, Graph, Variant};

fn small(graph: Graph) -> Experiment {
    Experiment {
        tuples: 8_000,
        queries_per_qar: 10,
        ..Experiment::paper(graph)
    }
}

#[test]
fn graph3_skeleton_sr_wins_vertical_queries() {
    // Graph 3 (exponential lengths, uniform Y) is the paper's flagship
    // interval result. The SR advantage needs enough data for spanning
    // records to accumulate, so this test runs a mid-size input.
    let result = run_experiment(&Experiment {
        tuples: 20_000,
        queries_per_qar: 10,
        ..Experiment::paper(Graph::G3)
    });
    let checks = check_paper_shape(&result);
    for c in &checks {
        if c.critical {
            assert!(c.passed, "{}: {} ({})", c.name, c.claim, c.detail);
        }
    }
    // Skeleton variants beat non-Skeleton ones in the vertical range.
    let vqar = |v: Variant| result.series_for(v).mean_where(|p| p.log10_qar < 0.0);
    assert!(vqar(Variant::SkeletonSRTree) < vqar(Variant::RTree));
}

#[test]
fn graph1_r_and_sr_identical_for_short_intervals() {
    // With uniformly short intervals no spanning records exist, so the
    // SR-Tree behaves *identically* to the R-Tree (paper §5.1).
    let result = run_experiment(&small(Graph::G1));
    let r = result.series_for(Variant::RTree);
    let sr = result.series_for(Variant::SRTree);
    assert_eq!(sr.build.spanning_stores, 0, "no spanning records stored");
    for (a, b) in r.points.iter().zip(sr.points.iter()) {
        assert_eq!(a.avg_nodes, b.avg_nodes, "identical at qar {}", a.qar);
    }
}

#[test]
fn graph6_skeleton_sr_stores_large_spanning_rectangles() {
    let result = run_experiment(&small(Graph::G6));
    let ksr = result.series_for(Variant::SkeletonSRTree);
    assert!(
        ksr.build.spanning_stores > 0,
        "rectangle data with exponential sides must produce spanning records"
    );
    // And it beats the Skeleton R-Tree overall.
    let kr = result.series_for(Variant::SkeletonRTree);
    assert!(
        ksr.mean_where(|_| true) < kr.mean_where(|_| true),
        "Skeleton SR {} vs Skeleton R {}",
        ksr.mean_where(|_| true),
        kr.mean_where(|_| true)
    );
}

#[test]
fn experiments_are_deterministic() {
    let a = run_experiment(&small(Graph::G4));
    let b = run_experiment(&small(Graph::G4));
    for (sa, sb) in a.series.iter().zip(b.series.iter()) {
        assert_eq!(sa.variant, sb.variant);
        for (pa, pb) in sa.points.iter().zip(sb.points.iter()) {
            assert_eq!(pa.avg_nodes, pb.avg_nodes);
        }
        assert_eq!(sa.build.node_count, sb.build.node_count);
    }
}

#[test]
fn every_variant_answers_every_graph_consistently() {
    // Cheap sanity across all six paper graphs: the four paper variants
    // each produce a full series for the same query load (equality of
    // their answers is covered by the differential tests).
    for graph in Graph::PAPER {
        let exp = Experiment {
            tuples: 2_000,
            queries_per_qar: 5,
            ..Experiment::paper(graph)
        };
        let result = run_experiment(&exp);
        assert_eq!(result.series.len(), 4);
        for s in &result.series {
            assert_eq!(s.points.len(), 13, "{} on {graph:?}", s.variant.name());
            assert!(s.points.iter().all(|p| p.avg_nodes >= 1.0));
        }
    }
}
