//! Reproduces the evaluation graphs of *Segment Indexes* (SIGMOD 1991).
//!
//! ```text
//! reproduce [--graph N|all|paper] [--tuples N] [--seed N] [--csv DIR]
//!           [--metrics-out FILE] [--quick]
//!           [--ablate split|branch_fraction|node_size|build]
//! ```
//!
//! Defaults match the paper: 200,000 tuples, 100 queries per QAR value.
//! `--quick` runs 20,000 tuples and 25 queries per QAR value, a fast smoke
//! run. Every number it prints is a count or a ratio of counts, exact per
//! seed: two runs print the same bytes.

use segidx_bench::{
    ablation_csv, check_exponential_lower, check_paper_shape, graph_csv, render_ablation,
    render_checks, render_table, run_ablation, run_experiment, write_csv, write_metrics_json, Axis,
    Experiment, Graph, GraphResult,
};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    graphs: Vec<Graph>,
    tuples: usize,
    queries: usize,
    data_seed: u64,
    csv_dir: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    ablate: Option<Axis>,
}

fn parse_args() -> Result<Args, String> {
    let mut graphs: Option<Vec<Graph>> = None;
    let mut tuples = 200_000usize;
    let mut queries = 100usize;
    let mut data_seed = Experiment::paper(Graph::G1).data_seed;
    let mut csv_dir = None;
    let mut metrics_out = None;
    let mut ablate = None;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let next = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value after {}", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--graph" => {
                let v = next(&mut i)?;
                if v == "all" {
                    graphs = Some(Graph::ALL.to_vec());
                } else if v == "paper" {
                    graphs = Some(Graph::PAPER.to_vec());
                } else {
                    let n: u32 = v.parse().map_err(|_| format!("bad graph number {v}"))?;
                    let g = Graph::from_number(n).ok_or(format!("no graph {n} (1-8)"))?;
                    graphs.get_or_insert_with(Vec::new).push(g);
                }
            }
            "--tuples" => {
                tuples = next(&mut i)?
                    .replace('_', "")
                    .parse()
                    .map_err(|e| format!("bad tuple count: {e}"))?;
            }
            "--seed" => {
                data_seed = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--csv" => {
                csv_dir = Some(PathBuf::from(next(&mut i)?));
            }
            "--metrics-out" => {
                metrics_out = Some(PathBuf::from(next(&mut i)?));
            }
            "--ablate" => {
                let v = next(&mut i)?;
                ablate = Some(Axis::from_name(&v).ok_or(format!("no ablation axis {v}"))?);
            }
            "--quick" => {
                tuples = 20_000;
                queries = 25;
            }
            "--help" | "-h" => {
                println!(
                    "reproduce — regenerate the Segment Indexes evaluation graphs\n\n\
                     --graph N|all|paper  which graph(s) to run (default: paper = 1-6)\n\
                     --tuples N           input size (default 200000, paper setting)\n\
                     --seed N             data-generation seed\n\
                     --csv DIR            also write one CSV per graph into DIR\n\
                     --metrics-out FILE   write the node-access and maintenance counters as JSON\n\
                     --ablate AXIS        rerun the variants at each value of split,\n\
                     \x20                    branch_fraction, node_size or build; print each\n\
                     \x20                    value's ratio to the preset and its shape checks;\n\
                     \x20                    --csv DIR writes DIR/ablation_AXIS.csv\n\
                     --quick              20K tuples, 25 queries per QAR value (smoke run)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if ablate.is_some() && metrics_out.is_some() {
        return Err("--ablate writes ablation rows only: no --metrics-out".into());
    }
    Ok(Args {
        graphs: graphs.unwrap_or_else(|| Graph::PAPER.to_vec()),
        tuples,
        queries,
        data_seed,
        csv_dir,
        metrics_out,
        ablate,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nrun with --help for usage");
            return ExitCode::FAILURE;
        }
    };

    let mut results: Vec<GraphResult> = Vec::new();
    let mut ablations: Vec<GraphResult> = Vec::new();
    let mut any_critical_miss = false;
    for graph in &args.graphs {
        let experiment = Experiment {
            tuples: args.tuples,
            queries_per_qar: args.queries,
            data_seed: args.data_seed,
            ..Experiment::paper(*graph)
        };
        eprintln!(
            "running graph {} ({}, {} tuples)…",
            graph.number(),
            graph.distribution().name(),
            args.tuples
        );
        if let Some(axis) = args.ablate {
            let runs = run_ablation(axis, &experiment);
            println!("{}", render_ablation(axis, &runs));
            ablations.extend(runs);
            continue;
        }
        let result = run_experiment(&experiment);
        println!("{}", render_table(&result));
        let checks = check_paper_shape(&result);
        println!("paper-shape checks:\n{}", render_checks(&checks));
        any_critical_miss |= checks.iter().any(|c| c.critical && !c.passed);
        if let Some(dir) = &args.csv_dir {
            let path = dir.join(format!("graph{}.csv", graph.number()));
            if let Err(e) = write_csv(&graph_csv(&result), &path) {
                eprintln!("error: could not write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
        results.push(result);
    }

    if let (Some(axis), Some(dir)) = (args.ablate, &args.csv_dir) {
        let path = dir.join(format!("ablation_{}.csv", axis.name()));
        if let Err(e) = write_csv(&ablation_csv(axis, &ablations), &path) {
            eprintln!("error: could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }

    if let Some(path) = &args.metrics_out {
        match write_metrics_json(&results, path) {
            Ok(()) => eprintln!("wrote metrics to {}", path.display()),
            Err(e) => {
                eprintln!("error: could not write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    // Cross-graph claim: exponential-Y runs have lower node accesses.
    let find = |g: Graph| results.iter().find(|r| r.graph() == g);
    for (u, e) in [(Graph::G1, Graph::G2), (Graph::G3, Graph::G4)] {
        if let (Some(u), Some(e)) = (find(u), find(e)) {
            let check = check_exponential_lower(u, e);
            println!("cross-graph check:\n{}", render_checks(&[check]));
        }
    }

    if any_critical_miss {
        eprintln!("one or more critical paper-shape checks failed");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
