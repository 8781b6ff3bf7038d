//! `segbench run|calibrate|compare` — see `benchmark/README.md`.

use segbench::report::Outcome;
use segbench::spec::{Scale, WORKLOADS};
use segbench::{compare, out_dir, run, RunConfig};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

const USAGE: &str = "usage:
  segbench run --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--quick]
  segbench run --all --seed <n> [--seconds <s>] [--trace <0|1>] [--quick]
  segbench calibrate [--runs <n>] [--seconds <s>] [--label <name>]   (from the repository root: writes the bounds into BENCHMARK.json)
  segbench compare <runsA/> <runsB/>
workloads: embed-query embed-churn serve-mixed serve-temporal";

/// The `--seconds` that `BENCHMARK.json` fixes (`run_seconds`).
const RUN_SECONDS: u64 = 20;

struct Flags {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    runs: u64,
    label: String,
    paths: Vec<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        all: false,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        runs: 5,
        label: "calibration".to_string(),
        paths: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        let number = |v: &String| v.parse::<f64>().map_err(|e| format!("{arg} {v}: {e}"));
        match arg.as_str() {
            "--workload" => f.workload = Some(value()?.clone()),
            "--all" => f.all = true,
            "--seed" => f.seed = number(value()?)? as u64,
            "--seconds" => f.seconds = number(value()?)?,
            "--trace" => f.trace = number(value()?)? != 0.0,
            "--quick" => f.quick = true,
            "--runs" => f.runs = number(value()?)? as u64,
            "--label" => f.label = value()?.clone(),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path => f.paths.push(PathBuf::from(path)),
        }
    }
    if !(f.seconds > 0.0 && f.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if f.runs < 2 {
        return Err("--runs must be at least 2: a spread needs two runs".into());
    }
    Ok(f)
}

fn print(outcome: &Outcome) {
    eprint!("{}", outcome.table());
    println!("{}", outcome.json_line());
}

fn run_one(f: &Flags, workload: &str) -> ExitCode {
    let cfg = RunConfig {
        workload: workload.to_string(),
        seed: f.seed,
        measure: Duration::from_secs_f64(f.seconds),
        trace: f.trace,
        scale: if f.quick { Scale::QUICK } else { Scale::FULL },
        corrupt_model: false,
    };
    if f.quick {
        eprintln!("segbench: --quick is one fiftieth scale; its numbers compare with nothing");
    }
    match run(&cfg) {
        Ok(outcome) => {
            print(&outcome);
            ExitCode::from(outcome.exit_code())
        }
        Err(e) => {
            eprintln!("segbench: {workload}: {e}");
            ExitCode::from(2)
        }
    }
}

/// A fresh process per workload, so peak memory and warm state are each
/// workload's own.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("segbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0;
    for workload in WORKLOADS {
        let rest = args.iter().filter(|a| *a != "--all");
        match Command::new(&exe)
            .arg("run")
            .args(["--workload", workload])
            .args(rest)
            .status()
        {
            Ok(status) => worst = worst.max(status.code().unwrap_or(2)),
            Err(e) => {
                eprintln!("segbench: {workload}: {e}");
                worst = 2;
            }
        }
    }
    ExitCode::from(worst as u8)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("segbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command.as_str() {
        "run" if flags.all => run_all(rest),
        "run" => match &flags.workload {
            Some(w) => run_one(&flags, w),
            None => {
                eprintln!("segbench: run needs --workload or --all\n{USAGE}");
                ExitCode::from(2)
            }
        },
        "calibrate" => {
            let dir = out_dir().join(format!("runs-{}", flags.label));
            let written = compare::calibrate(&dir, flags.runs, flags.seconds)
                .and_then(|bounds| compare::write_bounds(Path::new("BENCHMARK.json"), &bounds));
            println!("runs kept in {}", dir.display());
            println!("{{\"runs\": {}, \"claim\": null}}", flags.runs);
            match written {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("segbench: calibrate: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "compare" => {
            let [a, b] = flags.paths.as_slice() else {
                eprintln!("segbench: compare needs two directories\n{USAGE}");
                return ExitCode::from(2);
            };
            let result = compare::read_bounds(Path::new("BENCHMARK.json"))
                .and_then(|bounds| compare::compare(a, b, &bounds));
            match result {
                Ok(0) => ExitCode::SUCCESS,
                Ok(n) => {
                    eprintln!("segbench: {n} rows are not `same`");
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("segbench: compare: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
