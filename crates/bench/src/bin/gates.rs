//! Runs the repository's gates: `gates <job>` runs what the CI job of that
//! name runs, `gates all` every job in order (`segidx_bench::gates::JOBS`).
//! Exits 0 when every step passed, 1 at the first that failed, 2 on a job
//! name it does not know.
//!
//! Usage:
//!   gates <lint|crash|stress|server|test|segbench|all>

use segidx_bench::gates;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(jobs) = (match args.as_slice() {
        [name] => gates::select(name),
        _ => None,
    }) else {
        let names: Vec<&str> = gates::JOBS.iter().map(|j| j.name).collect();
        eprintln!("usage: gates <{}|all>", names.join("|"));
        return ExitCode::from(2);
    };
    match gates::run(jobs) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gates: {e}");
            ExitCode::FAILURE
        }
    }
}
