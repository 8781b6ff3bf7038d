//! `segbench`: one benchmark for the whole segment-index stack.
//!
//! Four workloads — two drive the embedded index (`Tree` +
//! `IndexConfig`), two drive the TCP server over its wire protocol — each
//! checked against a serial model, reporting the end-to-end metrics of
//! [`spec::END_TO_END`] or, in a traced run, the per-layer metrics of
//! [`spec::PER_LAYER`]. See `README.md` for why each workload and metric
//! exists and which public API the benchmark relies on.

#![warn(missing_docs)]

pub mod compare;
pub mod embed;
pub mod layers;
pub mod model;
pub mod ops;
pub mod report;
pub mod rng;
pub mod serve;
pub mod span;
pub mod spec;
pub mod stats;
pub mod wire;

use report::Outcome;
use std::path::PathBuf;
use std::time::Duration;

/// One run of one workload.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Workload name (one of [`spec::WORKLOADS`]).
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// `--seconds`: how much work the run measures. Every measured phase
    /// is this long x a frozen rate operations (see [`spec`]), so it lasts
    /// about this long on the reference box.
    pub measure: Duration,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// Input sizes.
    pub scale: spec::Scale,
    /// Self-test hook: damage the reference model before verification, so
    /// the run must report failures.
    pub corrupt_model: bool,
}

/// Where the benchmark keeps what it writes: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs the configured workload.
pub fn run(cfg: &RunConfig) -> std::io::Result<Outcome> {
    match cfg.workload.as_str() {
        "embed-query" => embed::run(cfg, embed::Plan::ReadMostly),
        "embed-churn" => embed::run(cfg, embed::Plan::Churn),
        "serve-mixed" => serve::run_mixed(cfg),
        "serve-temporal" => serve::run_temporal(cfg),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("unknown workload `{other}`; one of {:?}", spec::WORKLOADS),
        )),
    }
}

/// Builds with `build` and says how long it took, seconds.
pub fn timed<T>(build: impl FnOnce() -> std::io::Result<T>) -> std::io::Result<(T, f64)> {
    let t0 = std::time::Instant::now();
    let built = build()?;
    Ok((built, t0.elapsed().as_secs_f64()))
}

/// Ends an untraced run, once it has measured and torn down: records the
/// process's peak memory, then sets up again — at least
/// [`spec::SETUP_REPEATS`] set-ups in all with the run's own (`first`,
/// seconds), and until [`spec::SETUP_BUDGET_S`] is spent or
/// [`spec::SETUP_REPEATS_MAX`] reached — tearing each down, and records
/// `setup_s` as their median. The repeats come last so that what earlier
/// set-ups leave behind in the allocator is not in the run's peak memory
/// (it moved the peak of `serve-temporal` by up to 90 MiB either way).
pub fn record_memory_and_setup<T>(
    outcome: &mut Outcome,
    first: f64,
    mut build: impl FnMut() -> std::io::Result<T>,
    mut teardown: impl FnMut(T),
) -> std::io::Result<()> {
    outcome.set("peak_rss_mb", peak_rss_mb()?, 1);
    let mut times = vec![first];
    while times.len() < spec::SETUP_REPEATS_MAX
        && (times.len() < spec::SETUP_REPEATS || times.iter().sum::<f64>() < spec::SETUP_BUDGET_S)
    {
        let (built, took) = timed(&mut build)?;
        times.push(took);
        teardown(built);
    }
    outcome.set("setup_s", stats::median(&times), times.len() as u64);
    Ok(())
}

/// CPU time this process has used so far (user + system, every thread),
/// seconds, from `/proc/self/stat`.
pub fn cpu_seconds() -> std::io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, in ticks of 1/100 s on Linux.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    match (
        fields.get(11).and_then(|f| f.parse::<u64>().ok()),
        fields.get(12).and_then(|f| f.parse::<u64>().ok()),
    ) {
        (Some(utime), Some(stime)) => Ok((utime + stime) as f64 / 100.0),
        _ => Err(std::io::Error::other("no utime/stime in /proc/self/stat")),
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))
}
