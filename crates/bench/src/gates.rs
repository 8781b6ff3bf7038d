//! The repository's gates as one program: `gates <job>` runs what the CI
//! job of that name runs, `gates all` every job in order. Each command and
//! threshold is written once, in [`JOBS`]; `ci.yml` calls `gates <job>`.
//!
//! A command line is split on spaces: leading `KEY=VALUE` words set its
//! environment, and a trailing `> FILE` takes its stdout. Each runs as a
//! process of its own, so every timing gate gets a fresh one. A job stops
//! at its first failing step.

use crate::metrics_check::{check, Mode, PAPER, SERVER, TEMPORAL};
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One CI job: what it runs, and what it leaves for CI to upload.
pub struct Job {
    /// What `gates` and `ci.yml` call it.
    pub name: &'static str,
    /// Run in order; the first failure fails the job.
    steps: &'static [Step],
    /// The files and directories CI uploads after the job.
    pub outputs: &'static [&'static str],
}

/// One step of a [`Job`].
enum Step {
    /// A command line that must exit 0.
    Run(&'static str),
    /// `reproduce`'s full run: the critical `[MISS]` lines of its stdout
    /// must be exactly those the file lists, and it must exit 0 or 2 (a
    /// critical miss).
    Reproduce(&'static str, &'static str),
    /// The two files must be byte-identical.
    Same(&'static str, &'static str),
    /// The metrics export must [`check`] against the mode.
    Metrics(&'static Mode, &'static str),
    /// Boots the server, waits for its `READY <addr>` line, runs the client
    /// with `{addr}` replaced by that address, and kills the server whether
    /// or not the client passed.
    Serve(&'static str, &'static str),
}

use Step::{Metrics, Reproduce, Run, Same, Serve};

/// Every job, in the order `gates all` runs them. CI runs `test` on its
/// toolchain matrix and `segbench` in a job of its own, so `ci.yml` calls
/// only the first four.
#[rustfmt::skip]
pub const JOBS: &[Job] = &[
    Job {
        name: "lint",
        steps: &[
            Run("cargo fmt --all --check"),
            Run("cargo clippy --workspace --all-targets -- -D warnings"),
            Run("RUSTDOCFLAGS=-Dwarnings cargo doc --workspace --no-deps"),
            // reproduce counts and times nothing: its stdout, metrics, graph
            // CSVs and ablation rows are exact per seed, so each is a diff.
            Run("cargo run --release -p segidx-bench --bin reproduce -- --quick --graph 3 --metrics-out results/metrics.json"),
            Run("git diff --exit-code -- results/metrics.json"),
            Metrics(&PAPER, "results/metrics.json"),
            Reproduce("cargo run --release -p segidx-bench --bin reproduce -- --graph all --csv results > results/full_run.txt", "results/expected_misses.txt"),
            Run("cargo run --release -p segidx-bench --bin reproduce -- --ablate split --graph all --csv results > target/ablate-split.out"),
            Run("cargo run --release -p segidx-bench --bin reproduce -- --ablate branch_fraction --graph all --csv results > target/ablate-branch_fraction.out"),
            Run("cargo run --release -p segidx-bench --bin reproduce -- --ablate node_size --graph all --csv results > target/ablate-node_size.out"),
            Run("cargo run --release -p segidx-bench --bin reproduce -- --ablate build --graph all --csv results > target/ablate-build.out"),
            Run("git diff --exit-code -- results/full_run.txt results/graph*.csv results/ablation_*.csv"),
            // Several examples assert their answers.
            Run("cargo run --release --quiet --example adaptive_skeleton > target/example-adaptive_skeleton.out"),
            Run("cargo run --release --quiet --example fleet_monitoring > target/example-fleet_monitoring.out"),
            Run("cargo run --release --quiet --example map_overlay > target/example-map_overlay.out"),
            Run("cargo run --release --quiet --example paged_io > target/example-paged_io.out"),
            Run("cargo run --release --quiet --example persistence > target/example-persistence.out"),
            Run("cargo run --release --quiet --example quickstart > target/example-quickstart.out"),
            Run("cargo run --release --quiet --example rule_locks > target/example-rule_locks.out"),
            Run("cargo run --release --quiet --example salary_history > target/example-salary_history.out"),
            Run("cargo run --release --quiet --example spatial_gis > target/example-spatial_gis.out"),
            Same("results/fleet_monitoring.txt", "target/example-fleet_monitoring.out"),
            Run("cargo run --release -p segidx-bench --bin trace_profile"),
            Run("cargo run --release -p segidx-bench --bin temporal_bench -- --metrics-out results/temporal_metrics.json"),
            Metrics(&TEMPORAL, "results/temporal_metrics.json"),
            // A gate that rewrites a tracked file fails here.
            Run("git diff --exit-code"),
        ],
        outputs: &["results/metrics.json", "results/temporal_metrics.json", "target/trace_example.json"],
    },
    Job {
        name: "crash",
        steps: &[
            Run("cargo test --workspace --release"),
            Run("cargo run --release -p segidx-bench --bin crash_sweep -- --seeds 64 --ops 96 --corruption-trials 8 --out results/crash_sweep"),
            Run("cargo run --release -p segidx-bench --bin crash_sweep -- --temporal --seeds 32 --ops 48 --checkpoint-every 8 --out results/crash_sweep"),
        ],
        outputs: &["results/crash_sweep/"],
    },
    Job {
        name: "stress",
        steps: &[
            Run("cargo run --release -p segidx-bench --bin stress_concurrent -- --seeds 32 --out results/concurrent_stress"),
            Run("cargo run --release -p segidx-bench --bin concurrent_bench"),
        ],
        outputs: &["results/concurrent_stress/"],
    },
    Job {
        name: "server",
        steps: &[
            Run("cargo build --release -p segidx-server --bins"),
            Serve("target/release/segidx_server --addr 127.0.0.1:0 > results/server.log",
                  "cargo run --release -p segidx-server --bin loadgen -- --addr {addr} --check --metrics-out results/server_metrics.json"),
            Metrics(&SERVER, "results/server_metrics.json"),
            Run("git diff --exit-code"),
        ],
        outputs: &["results/server_metrics.json", "results/server.log"],
    },
    Job {
        name: "test",
        steps: &[
            Run("cargo test -p segidx-server --test protocol_props"),
            Run("cargo test --workspace"),
        ],
        outputs: &[],
    },
    Job {
        name: "segbench",
        steps: &[Run("cargo test --release --manifest-path benchmark/Cargo.toml")],
        outputs: &[],
    },
];

/// How long a booted server has to print `READY`.
const READY_TIMEOUT: Duration = Duration::from_secs(10);

/// The workspace root, where every step runs.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

impl Step {
    /// Every command line the step runs.
    fn commands(&self) -> Vec<&'static str> {
        match *self {
            Run(line) | Reproduce(line, _) => vec![line],
            Serve(server, client) => vec![server, client],
            Same(..) | Metrics(..) => vec![],
        }
    }

    fn describe(&self) -> String {
        match *self {
            Same(a, b) => format!("{a} = {b}"),
            Metrics(_, path) => format!("{path} carries its declared metric families"),
            _ => self.commands().join("; "),
        }
    }

    fn run(&self) -> Result<(), String> {
        match *self {
            Run(line) => exits_0(line),
            Reproduce(line, expected) => {
                let status = status(line)?;
                check_misses(
                    &read(command(line).1.expect("a `> FILE`"))?,
                    &read(expected)?,
                )?;
                match status.code() {
                    Some(0 | 2) => Ok(()),
                    _ => Err(format!("{line}: {status}, not 0 or 2")),
                }
            }
            Same(a, b) if read(a)? == read(b)? => Ok(()),
            Same(a, b) => Err(format!("{b} differs from {a}")),
            Metrics(mode, path) => check(mode, &read(path)?)
                .map(|summary| println!("{summary}"))
                .map_err(|e| format!("{path}: {e}")),
            Serve(server, client) => {
                let (mut cmd, log) = command(server);
                let spawned = cmd.stdout(Stdio::piped()).spawn();
                let mut child = Killed(spawned.map_err(|e| format!("{server}: {e}"))?);
                let out = child.0.stdout.take().expect("piped");
                let log = create(log.expect("a `> FILE`"))?;
                let (copier, ready) = await_ready(out, log, READY_TIMEOUT);
                let passed = ready.and_then(|addr| exits_0(&client.replace("{addr}", &addr)));
                drop(child);
                copier.join().expect("the log copier does not panic");
                passed
            }
        }
    }
}

/// A child process killed and reaped when dropped.
struct Killed(Child);

impl Drop for Killed {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `line` as a command, and the file its trailing `> FILE` names.
fn command(line: &str) -> (Command, Option<&str>) {
    let (line, out) = match line.split_once(" > ") {
        Some((line, out)) => (line, Some(out)),
        None => (line, None),
    };
    let mut words = line.split(' ');
    let mut envs = Vec::new();
    let program = loop {
        let word = words.next().expect("a command line names a program");
        match word.split_once('=') {
            Some(env) => envs.push(env),
            None => break word,
        }
    };
    let mut cmd = Command::new(program);
    cmd.args(words).envs(envs);
    (cmd, out)
}

/// Runs `line` to its end.
fn status(line: &str) -> Result<ExitStatus, String> {
    let (mut cmd, out) = command(line);
    if let Some(out) = out {
        cmd.stdout(create(out)?);
    }
    cmd.status().map_err(|e| format!("{line}: {e}"))
}

fn exits_0(line: &str) -> Result<(), String> {
    match status(line)? {
        s if s.success() => Ok(()),
        s => Err(format!("{line}: {s}")),
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn create(path: &str) -> Result<File, String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    File::create(path).map_err(|e| format!("{path}: {e}"))
}

/// Fails unless the critical (not `(soft)`) `[MISS]` lines of a
/// `reproduce` stdout are exactly the `graph N check-name` lines of
/// `expected`, whose `#` lines are comments.
fn check_misses(stdout: &str, expected: &str) -> Result<(), String> {
    let mut graph = "";
    let mut misses = Vec::new();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("Graph ") {
            graph = rest.split(':').next().unwrap_or("");
        } else if line.contains("[MISS]") && !line.contains("(soft)") {
            let name = line.split_whitespace().nth(1).unwrap_or("");
            misses.push(format!("graph {graph} {name}"));
        }
    }
    let listed: Vec<&str> = expected.lines().filter(|l| !l.starts_with('#')).collect();
    if misses == listed {
        return Ok(());
    }
    Err(format!("critical misses {misses:?}, expected {listed:?}"))
}

/// Copies `out` line by line to `log` on a thread of its own, which ends
/// with `out`, and waits up to `timeout` for the address of its first
/// `READY <addr>` line; fails when none comes in time or `out` ends first.
fn await_ready(
    out: impl Read + Send + 'static,
    mut log: impl Write + Send + 'static,
    timeout: Duration,
) -> (JoinHandle<()>, Result<String, String>) {
    let (tx, rx) = mpsc::channel();
    let copier = std::thread::spawn(move || {
        for line in BufReader::new(out).lines().map_while(Result::ok) {
            let _ = writeln!(log, "{line}");
            if let Some(addr) = line.strip_prefix("READY ") {
                let _ = tx.send(addr.trim().to_string());
            }
        }
    });
    let ready = rx.recv_timeout(timeout);
    (
        copier,
        ready.map_err(|e| format!("no READY line from the server ({e})")),
    )
}

/// Whether a package of the workspace, the root one or one in `crates/`,
/// has the target a `--bin`, `--example`, `--bench` or `--test` flag names.
pub fn target_exists(flag: &str, name: &str) -> bool {
    let dir = match flag {
        "--bin" => "src/bin",
        "--example" => "examples",
        "--bench" => "benches",
        _ => "tests",
    };
    let crates = std::fs::read_dir(format!("{ROOT}/crates"))
        .into_iter()
        .flatten();
    let mut packages = crates.map(|e| e.unwrap().path()).chain([ROOT.into()]);
    packages.any(|p| p.join(dir).join(format!("{name}.rs")).is_file())
}

/// The jobs `gates <name>` runs: `all`, or the one of that name.
pub fn select(name: &str) -> Option<&'static [Job]> {
    let one = JOBS.iter().position(|j| j.name == name);
    if name == "all" {
        return Some(JOBS);
    }
    one.map(|i| &JOBS[i..=i])
}

/// Runs `jobs` from the workspace root, printing each step and its wall
/// time, and stops at the first failure.
pub fn run(jobs: &[Job]) -> Result<(), String> {
    std::env::set_current_dir(ROOT).map_err(|e| format!("{ROOT}: {e}"))?;
    for job in jobs {
        let (name, n, started) = (job.name, job.steps.len(), Instant::now());
        for (i, step) in job.steps.iter().enumerate() {
            println!("gates {name} [{}/{n}]: {}", i + 1, step.describe());
            let t = Instant::now();
            step.run().map_err(|e| format!("{name} failed: {e}"))?;
            println!("gates {name}: ok in {:.1} s", t.elapsed().as_secs_f64());
        }
        let total = started.elapsed().as_secs_f64();
        println!("gates {name} passed in {total:.1} s");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_full_run_misses_what_is_listed() {
        let full_run = std::fs::read_to_string(format!("{ROOT}/results/full_run.txt")).unwrap();
        let listed =
            std::fs::read_to_string(format!("{ROOT}/results/expected_misses.txt")).unwrap();
        check_misses(&full_run, &listed).unwrap();
        let unlisted = format!("{full_run}Graph 9: x\n  [MISS] new-check — a claim\n");
        let e = check_misses(&unlisted, &listed).unwrap_err();
        assert!(e.contains("graph 9 new-check"), "{e}");
        let soft = format!("{full_run}Graph 9: x\n  [MISS] new-check (soft) — a claim\n");
        check_misses(&soft, &listed).unwrap();
        assert!(check_misses(&full_run, "# none\n").is_err());
    }

    /// A server that never prints.
    struct Silent;

    impl Read for Silent {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            loop {
                std::thread::park();
            }
        }
    }

    #[test]
    fn ready_gives_the_address_and_silence_times_out() {
        let out = b"listening\nREADY 127.0.0.1:40123\nmore\n".as_slice();
        let (copier, addr) = await_ready(out, std::io::sink(), READY_TIMEOUT);
        assert_eq!(addr.unwrap(), "127.0.0.1:40123");
        copier.join().unwrap();
        let started = Instant::now();
        let (_, silence) = await_ready(Silent, std::io::sink(), Duration::from_millis(200));
        assert!(silence.unwrap_err().contains("no READY"));
        assert!(started.elapsed() < READY_TIMEOUT);
        let (_, exited) = await_ready(b"exiting\n".as_slice(), std::io::sink(), READY_TIMEOUT);
        assert!(exited.is_err());
    }

    /// Every `--bin`, `--example` and `--test` the jobs name, and every
    /// program under `target/release/`, exists; the jobs run every example.
    #[test]
    fn every_target_the_jobs_name_exists() {
        let mut examples = Vec::new();
        for line in JOBS.iter().flat_map(|j| j.steps).flat_map(Step::commands) {
            let words: Vec<&str> = line.split(' ').collect();
            let programs = words
                .iter()
                .filter_map(|w| w.strip_prefix("target/release/"));
            let flagged = words.windows(2).map(|w| (w[0], w[1]));
            let targets = programs.map(|p| ("--bin", p)).chain(flagged);
            for (flag, name) in
                targets.filter(|(f, _)| ["--bin", "--example", "--test"].contains(f))
            {
                assert!(target_exists(flag, name), "{line}: no {flag} {name}");
                examples.extend((flag == "--example").then_some(name));
            }
        }
        let dir = std::fs::read_dir(format!("{ROOT}/examples")).unwrap();
        assert_eq!(examples.len(), dir.count(), "the jobs run every example");
        assert!(select("all").is_some() && select("lnit").is_none());
    }
}
