//! Run-to-run noise and comparison of two sets of runs.
//!
//! `calibrate` runs every workload several times (a fresh process each,
//! one seed per run), prints median, quartiles and spread per metric and
//! workload, derives each end-to-end metric's regression bound from the
//! spread it saw and writes the bounds into `BENCHMARK.json`. `compare`
//! reads two such sets and gives one verdict per metric and workload.

use crate::spec::{Better, END_TO_END, EXACT_ON_EMBED, WORKLOADS};
use crate::stats::{quartiles, spread};
use segidx_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::process::Command;

/// Smallest bound a metric gets, however quiet it was.
const MIN_BOUND: f64 = 0.05;
/// Largest bound the benchmark contract allows; `setup_s` gets it.
const MAX_BOUND: f64 = 0.25;
/// A bound is this many times the widest spread seen (the driver wants
/// every spread under a third of its bound), as far as [`MAX_BOUND`] lets
/// it: with [`MAX_SPREAD`] that is never less than the issue's twice.
const BOUND_OVER_SPREAD: f64 = 3.0;
/// Widest spread a metric may show between runs of the same code before
/// `calibrate` refuses: wider than this, lengthen the phase, do not widen
/// the claim.
const MAX_SPREAD: f64 = 0.10;

/// `metric -> values`, one value per run, for one workload.
pub type RunSet = BTreeMap<String, Vec<f64>>;

fn bad(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// The metric values of one result line.
pub fn parse_result(line: &str) -> io::Result<Vec<(String, f64)>> {
    let v = json::parse(line).map_err(|e| bad(format!("result line: {e:?}")))?;
    if v.get("correct") != Some(&Value::Bool(true)) {
        return Err(bad(format!("run was not correct: {line:.200}")));
    }
    let Some(Value::Object(metrics)) = v.get("metrics") else {
        return Err(bad("result line has no metrics".into()));
    };
    metrics
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Value::as_f64)
                .map(|x| (name.clone(), x))
                .ok_or_else(|| bad(format!("metric {name} has no value")))
        })
        .collect()
}

/// Runs this executable once and returns its result line.
fn run_once(workload: &str, seed: u64, seconds: f64, trace: bool) -> io::Result<String> {
    let out = Command::new(std::env::current_exe()?)
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()?;
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "{workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| io::Error::other("run printed nothing"))
}

/// Reads every `<workload>-seed<n>.json` of `dir` into per-workload sets.
pub fn read_runs(dir: &Path) -> io::Result<BTreeMap<String, RunSet>> {
    let mut sets: BTreeMap<String, RunSet> = BTreeMap::new();
    let mut names: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    names.sort();
    for path in names {
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        let Some((workload, _)) = stem.rsplit_once("-seed") else {
            continue;
        };
        let text = std::fs::read_to_string(&path)?;
        let set = sets.entry(workload.to_string()).or_default();
        for (name, value) in parse_result(text.trim())? {
            set.entry(name).or_default().push(value);
        }
    }
    Ok(sets)
}

/// Runs every workload `runs` times into `dir` (seeds `1..=runs`, and one
/// traced run at seed 1), prints the spread table, and returns each
/// end-to-end metric's bound: three times the widest spread any workload
/// showed, at least 5 %, at most 25 %. `setup_s` gets the largest bound
/// (the driver asks for that, and does not hold its spread to the bound).
/// Fails when another metric spread more than a tenth.
pub fn calibrate(dir: &Path, runs: u64, seconds: f64) -> io::Result<Vec<(&'static str, f64)>> {
    std::fs::create_dir_all(dir)?;
    for workload in WORKLOADS {
        for seed in 1..=runs {
            let line = run_once(workload, seed, seconds, false)?;
            std::fs::write(dir.join(format!("{workload}-seed{seed}.json")), &line)?;
            eprintln!("calibrate: {workload} seed {seed} done");
        }
        let line = run_once(workload, 1, seconds, true)?;
        std::fs::write(dir.join(format!("{workload}-trace.json")), &line)?;
    }
    let sets = read_runs(dir)?;
    let mut bounds = Vec::new();
    let mut noisy = Vec::new();
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>14} {:>8}",
        "metric", "workload", "q1", "median", "q3", "spread"
    );
    for decl in END_TO_END {
        let mut widest: f64 = 0.0;
        for workload in WORKLOADS {
            let values = &sets[workload][decl.name];
            let (q1, q2, q3) = quartiles(values);
            let s = spread(values);
            println!(
                "{:<14} {:<16} {q1:>14.4} {q2:>14.4} {q3:>14.4} {:>7.2}%",
                decl.name,
                workload,
                s * 100.0
            );
            widest = widest.max(s);
            if decl.name != "setup_s" && s > MAX_SPREAD {
                noisy.push(format!("{} on {workload}: {:.1} %", decl.name, s * 100.0));
            }
        }
        let bound = if decl.name == "setup_s" {
            MAX_BOUND
        } else {
            // Rounded up to a whole percent.
            ((BOUND_OVER_SPREAD * widest).clamp(MIN_BOUND, MAX_BOUND) * 100.0).ceil() / 100.0
        };
        println!("bound {}: {bound}", decl.name);
        bounds.push((decl.name, bound));
    }
    if !noisy.is_empty() {
        return Err(io::Error::other(format!(
            "BENCHMARK.json left as it is: spread over {:.0} %, lengthen the phase: {}",
            MAX_SPREAD * 100.0,
            noisy.join("; ")
        )));
    }
    Ok(bounds)
}

/// Writes `bounds` into the `bound` fields of the `BENCHMARK.json` at
/// `path`, leaving every other byte as it is.
pub fn write_bounds(path: &Path, bounds: &[(&str, f64)]) -> io::Result<()> {
    let mut text = std::fs::read_to_string(path)?;
    for (name, bound) in bounds {
        let missing = || bad(format!("{}: no bound for {name}", path.display()));
        let entry = text
            .find(&format!("\"name\": \"{name}\""))
            .ok_or_else(missing)?;
        let key = "\"bound\":";
        let value = entry + text[entry..].find(key).ok_or_else(missing)? + key.len();
        let end = value + text[value..].find(['}', ',']).ok_or_else(missing)?;
        text.replace_range(value..end, &format!(" {bound}"));
    }
    std::fs::write(path, text)
}

/// The bounds `BENCHMARK.json` (at `path`) fixes, by metric name.
pub fn read_bounds(path: &Path) -> io::Result<BTreeMap<String, f64>> {
    let v = json::parse(&std::fs::read_to_string(path)?)
        .map_err(|e| bad(format!("{}: {e:?}", path.display())))?;
    let list = v
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| bad("BENCHMARK.json has no end_to_end".into()))?;
    Ok(list
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// One row of a comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Medians within the bound of each other.
    Same,
    /// B is worse than A by more than the bound.
    Worse,
    /// B is better than A by more than the bound.
    Better,
    /// A side's own spread exceeds the bound, so the sides cannot be told
    /// apart.
    Unresolved,
}

/// Judges B against A for a metric improving in direction `better`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (quartiles(a).1, quartiles(b).1);
    // Positive when B is worse.
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Prints one row per end-to-end metric and workload of run sets `a` and
/// `b`, then one per exact count of the traced `embed-*` runs (same seed on
/// both sides: they must agree to the last bit); returns how many rows are
/// not `same`.
pub fn compare(a: &Path, b: &Path, bounds: &BTreeMap<String, f64>) -> io::Result<usize> {
    let (sa, sb) = (read_runs(a)?, read_runs(b)?);
    let mut differing = 0;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>22} {:>7}  verdict",
        "metric", "workload", "median A", "median B", "B / A", "bound"
    );
    for decl in END_TO_END {
        for workload in WORKLOADS {
            let (Some(va), Some(vb)) = (
                sa.get(workload).and_then(|s| s.get(decl.name)),
                sb.get(workload).and_then(|s| s.get(decl.name)),
            ) else {
                continue;
            };
            let bound = bounds.get(decl.name).copied().unwrap_or(MAX_BOUND);
            let verdict = judge(va, vb, decl.better, bound);
            let (ma, mb) = (quartiles(va).1, quartiles(vb).1);
            println!(
                "{:<14} {:<16} {ma:>14.4} {mb:>14.4} {:>22} {:>6.0}%  {}",
                decl.name,
                workload,
                format!("{:.3} of {ma:.4} {}", mb / ma, decl.unit),
                bound * 100.0,
                format!("{verdict:?}").to_lowercase()
            );
            differing += usize::from(verdict != Verdict::Same);
        }
    }
    for workload in ["embed-query", "embed-churn"] {
        let traced = |dir: &Path| -> io::Result<BTreeMap<String, f64>> {
            let text = std::fs::read_to_string(dir.join(format!("{workload}-trace.json")))?;
            Ok(parse_result(text.trim())?.into_iter().collect())
        };
        let (ta, tb) = (traced(a)?, traced(b)?);
        for name in EXACT_ON_EMBED {
            let (Some(&x), Some(&y)) = (ta.get(*name), tb.get(*name)) else {
                return Err(bad(format!("{workload}: traced run lacks {name}")));
            };
            let same = x.to_bits() == y.to_bits();
            println!(
                "{name:<44} {workload:<12} {x:>16.6} {y:>16.6}  exact  {}",
                if same { "same" } else { "differs" }
            );
            differing += usize::from(!same);
        }
    }
    Ok(differing)
}
