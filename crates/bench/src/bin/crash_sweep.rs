//! Crash-sweep driver: power-cut a deterministic build/insert/delete trace
//! at every write boundary for many seeds, plus bit-rot corruption trials,
//! and fail loudly on any differential mismatch.
//!
//! CI runs `crash_sweep --seeds 64`; a failing seed writes a replayable
//! report (seed, cut index, detail) under `--out` so the artifact upload
//! carries everything needed to reproduce with `--seed <n>`.
//!
//! With `--temporal`, the same driver instead power-cuts the tiered
//! temporal index's seal-and-merge commits ([`segidx_bench::temporal_crash`])
//! and checks recovery to exactly the last committed tier set.
//!
//! Each mode's trace is fixed: spatial, [`SPATIAL_OPS`] operations with a
//! checkpoint every [`SPATIAL_CHECKPOINT_EVERY`] and
//! [`CORRUPTION_TRIALS`] bit-rot trials; temporal, [`TEMPORAL_OPS`]
//! operations with a checkpoint every [`TEMPORAL_CHECKPOINT_EVERY`]. A
//! seed and the mode are the whole run, so the replay line a failure
//! prints reproduces it.
//!
//! Usage:
//!   crash_sweep [--seeds N] [--seed S] [--temporal] [--out DIR]

use segidx_bench::crash::{corruption_trials, crash_sweep, SweepFailure, TraceConfig};
use segidx_bench::temporal_crash::temporal_crash_sweep;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Operations in a spatial seed's trace.
const SPATIAL_OPS: usize = 96;
/// A spatial trace checkpoints every this many operations.
const SPATIAL_CHECKPOINT_EVERY: usize = 12;
/// Bit-rot trials per spatial seed.
const CORRUPTION_TRIALS: usize = 8;
/// Operations in a temporal seed's trace.
const TEMPORAL_OPS: usize = 48;
/// A temporal trace seals every this many operations.
const TEMPORAL_CHECKPOINT_EVERY: usize = 8;

struct Args {
    seeds: u64,
    single_seed: Option<u64>,
    temporal: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 8,
        single_seed: None,
        temporal: false,
        out: PathBuf::from("results/crash_sweep"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--seeds" => args.seeds = value("--seeds")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => {
                args.single_seed = Some(value("--seed")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--temporal" => args.temporal = true,
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--help" | "-h" => {
                return Err(
                    "usage: crash_sweep [--seeds N] [--seed S] [--temporal] [--out DIR]".into(),
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Writes `failures` under `out` with the command that replays the seed;
/// `mode` is the mode's flag and a space (`"--temporal "`), or empty.
fn report_failures(out: &Path, mode: &str, seed: u64, kind: &str, failures: &[SweepFailure]) {
    std::fs::create_dir_all(out).expect("create output dir");
    let path = out.join(format!("seed-{seed}-{kind}.txt"));
    let mut body = String::new();
    for f in failures {
        body.push_str(&format!(
            "seed={} cut_at={} kind={kind}\n{}\n\nreplay: cargo run --release -p segidx-bench \
             --bin crash_sweep -- {mode}--seed {}\n",
            f.seed, f.cut_at, f.detail, f.seed
        ));
    }
    std::fs::write(&path, body).expect("write failure report");
    eprintln!("crash_sweep: wrote {}", path.display());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let scratch = std::env::temp_dir().join(format!("segidx-crash-sweep-{}", std::process::id()));
    let seeds: Vec<u64> = match args.single_seed {
        Some(s) => vec![s],
        None => (0..args.seeds).collect(),
    };
    let (mode, ops, checkpoint_every) = if args.temporal {
        ("--temporal ", TEMPORAL_OPS, TEMPORAL_CHECKPOINT_EVERY)
    } else {
        ("", SPATIAL_OPS, SPATIAL_CHECKPOINT_EVERY)
    };
    let trace = TraceConfig {
        ops,
        checkpoint_every,
        ..TraceConfig::default()
    };
    let mut total_cuts = 0u64;
    let mut failed_seeds = 0u64;
    for &seed in &seeds {
        let (kind, outcome) = if args.temporal {
            ("temporal", temporal_crash_sweep(seed, &scratch, &trace))
        } else {
            ("powercut", crash_sweep(seed, &scratch, &trace))
        };
        // The bit-rot trials run on the spatial subject only.
        let rot = if args.temporal {
            Vec::new()
        } else {
            corruption_trials(seed, &scratch, CORRUPTION_TRIALS)
        };
        let cuts = outcome.writes + 1;
        total_cuts += cuts;
        for (kind, failures) in [(kind, &outcome.failures), ("bitrot", &rot)] {
            if !failures.is_empty() {
                report_failures(&args.out, mode, seed, kind, failures);
            }
        }
        let (power, rot) = (outcome.failures.len(), rot.len());
        let verdict = match (power + rot == 0, args.temporal) {
            (true, true) => format!("ok ({cuts} cuts, temporal)"),
            (true, false) => format!("ok ({cuts} cuts, {CORRUPTION_TRIALS} corruption trials)"),
            (false, true) => format!("FAILED ({power} temporal power-cut mismatches)"),
            (false, false) => format!("FAILED ({power} power-cut, {rot} bit-rot mismatches)"),
        };
        println!("seed {seed:>3}: {verdict}");
        failed_seeds += u64::from(power + rot > 0);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    println!(
        "crash_sweep{}: {} seeds, {} cut points, {} failing seeds",
        if args.temporal { " --temporal" } else { "" },
        seeds.len(),
        total_cuts,
        failed_seeds
    );
    if failed_seeds > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
