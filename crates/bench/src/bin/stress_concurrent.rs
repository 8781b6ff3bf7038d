//! Deterministic interleaving stress driver for the concurrent index
//! service: for each seed, run the four paper variants under concurrent
//! readers + a single group-commit writer and validate every reader
//! observation against a serial model of the committed operation prefix.
//!
//! CI runs `stress_concurrent --seeds 32` in release mode; a failing seed
//! writes a replayable report (seed, variant, detail) under `--out` so the
//! artifact upload carries everything needed to reproduce with
//! `--seed <n>`.
//!
//! Every seed runs [`StressConfig::default`].
//!
//! Usage:
//!   stress_concurrent [--seeds N] [--seed S] [--out DIR]

use segidx_bench::interleave::{stress_seed, StressConfig, StressFailure};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    seeds: u64,
    single_seed: Option<u64>,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 8,
        single_seed: None,
        out: PathBuf::from("results/concurrent_stress"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--seeds" => args.seeds = value("--seeds")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => {
                args.single_seed = Some(value("--seed")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--help" | "-h" => {
                return Err("usage: stress_concurrent [--seeds N] [--seed S] [--out DIR]".into())
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn report_failures(out: &PathBuf, seed: u64, failures: &[StressFailure]) {
    std::fs::create_dir_all(out).expect("create output dir");
    let path = out.join(format!("seed-{seed}-interleave.txt"));
    let mut body = String::new();
    for f in failures {
        body.push_str(&format!(
            "seed={} variant={}\n{}\n\nreplay: cargo run --release -p segidx-bench \
             --bin stress_concurrent -- --seed {}\n",
            f.seed, f.variant, f.detail, f.seed
        ));
    }
    std::fs::write(&path, body).expect("write failure report");
    eprintln!("stress_concurrent: wrote {}", path.display());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let seeds: Vec<u64> = match args.single_seed {
        Some(s) => vec![s],
        None => (0..args.seeds).collect(),
    };
    let cfg = StressConfig::default();
    let mut total_observations = 0u64;
    let mut total_epochs = 0u64;
    let mut failed_seeds = 0u64;
    for &seed in &seeds {
        let outcome = stress_seed(seed, &cfg);
        total_observations += outcome.observations;
        total_epochs += outcome.epochs;
        if outcome.failures.is_empty() {
            println!(
                "seed {seed:>3}: ok ({} observations validated, {} epochs published)",
                outcome.observations, outcome.epochs
            );
        } else {
            failed_seeds += 1;
            report_failures(&args.out, seed, &outcome.failures);
            println!(
                "seed {seed:>3}: FAILED ({} violations)",
                outcome.failures.len()
            );
        }
    }
    println!(
        "stress_concurrent: {} seeds x 4 variants, {} observations, {} epochs, \
         {} failing seeds",
        seeds.len(),
        total_observations,
        total_epochs,
        failed_seeds
    );
    if failed_seeds > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
