//! The CI workflow parses, and every target it names exists.
//!
//! No YAML parser is vendored, so this reads `.github/workflows/ci.yml`
//! line by line for the faults that have made a workflow fail to parse or
//! to run: a plain (unquoted, non-block) scalar holding `": "` or `" #"`,
//! a tab in the indentation, a `--bin`, `--example`, `--bench` or
//! `--test` naming a target no package has, and an artifact upload
//! listing a `results/` file that nothing in its job writes and git does
//! not track.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The problems found in `yaml`, one per line, each with its line number.
/// `exists(flag, name)` says whether a cargo target flag names something.
fn lint(yaml: &str, exists: impl Fn(&str, &str) -> bool) -> Vec<String> {
    let mut problems = Vec::new();
    // The indentation a block scalar's lines must exceed, while in one.
    let mut block: Option<usize> = None;
    for (n, line) in yaml.lines().enumerate() {
        let n = n + 1;
        let body = line.trim_start_matches([' ', '\t']);
        let indent = line.len() - body.len();
        if line[..indent].contains('\t') {
            problems.push(format!("line {n}: tab in the indentation"));
        }
        for (flag, name) in target_flags(body) {
            if !name.starts_with('$') && !exists(flag, name) {
                problems.push(format!("line {n}: {flag} {name} names nothing"));
            }
        }
        match block {
            Some(outer) if body.is_empty() || indent > outer => continue,
            _ => block = None,
        }
        if body.is_empty() || body.starts_with('#') {
            continue;
        }
        let item = body.trim_start_matches("- ");
        let value = match key_end(item) {
            Some(end) => item[end + 1..].trim(),
            None => item,
        };
        if value.starts_with(['|', '>']) {
            block = Some(indent);
        } else if !value.starts_with(['"', '\'']) {
            for bad in [": ", " #"] {
                if value.contains(bad) {
                    problems.push(format!("line {n}: plain scalar holds {bad:?}: {value}"));
                }
            }
        }
    }
    problems
}

/// The byte index of the `:` ending a mapping key at the start of `item`,
/// if `item` is `key: value` or `key:`.
fn key_end(item: &str) -> Option<usize> {
    let end = item.find(':')?;
    let key = &item[..end];
    let is_key = !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_-.".contains(c));
    let rest = &item[end + 1..];
    (is_key && (rest.is_empty() || rest.starts_with(' '))).then_some(end)
}

/// Every `--bin NAME`, `--example NAME`, `--bench NAME` and `--test NAME`
/// on a line, quotes stripped from the name.
fn target_flags(line: &str) -> Vec<(&str, &str)> {
    let words: Vec<&str> = line.split_whitespace().collect();
    words
        .windows(2)
        .filter(|w| ["--bin", "--example", "--bench", "--test"].contains(&w[0]))
        .map(|w| (w[0], w[1].trim_matches(['"', '\''])))
        .collect()
}

/// The file stems under every `dir` of the root package and of each
/// package in `crates/`.
fn stems(dir: &str) -> BTreeSet<String> {
    let crates = std::fs::read_dir(root().join("crates")).expect("crates/ exists");
    let packages = std::iter::once(root()).chain(crates.map(|e| e.unwrap().path()));
    packages
        .filter_map(|p| std::fs::read_dir(p.join(dir)).ok())
        .flatten()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect()
}

fn target_exists(flag: &str, name: &str) -> bool {
    let dir = match flag {
        "--bin" => "src/bin",
        "--example" => "examples",
        "--bench" => "benches",
        _ => "tests",
    };
    stems(dir).contains(name)
}

/// What one job of the workflow runs and uploads.
#[derive(Default)]
struct Job {
    name: String,
    /// Every `run:` of the job, one after another.
    runs: String,
    /// `(line, path)` for each path an `upload-artifact` step lists.
    uploads: Vec<(usize, String)>,
}

/// Each `results/…` path an `upload-artifact` step lists that no `run:` of
/// the same job names (and so writes) and that `tracked` says git does not
/// track: a file the upload would silently miss.
fn unwritten_uploads(yaml: &str, tracked: impl Fn(&str) -> bool) -> Vec<String> {
    let mut jobs: Vec<Job> = Vec::new();
    let mut in_jobs = false;
    let mut uploading = false;
    // While in a block scalar: its key's indentation, and whether it is an
    // upload's `path:` list (else a `run:`).
    let mut block: Option<(usize, bool)> = None;
    for (n, line) in yaml.lines().enumerate() {
        let body = line.trim_start();
        let indent = line.len() - body.len();
        if let (Some((outer, is_path)), Some(job)) = (block, jobs.last_mut()) {
            if body.is_empty() || indent > outer {
                if !is_path {
                    job.runs.push_str(body);
                    job.runs.push('\n');
                } else if !body.is_empty() {
                    job.uploads.push((n + 1, body.to_string()));
                }
                continue;
            }
        }
        block = None;
        if indent == 0 {
            in_jobs = body == "jobs:";
            continue;
        }
        if in_jobs && indent == 2 && body.ends_with(':') {
            jobs.push(Job {
                name: body.trim_end_matches(':').to_string(),
                ..Job::default()
            });
            continue;
        }
        let Some(job) = jobs.last_mut() else {
            continue;
        };
        if body.starts_with("- ") {
            uploading = false;
        }
        let item = body.trim_start_matches("- ");
        uploading |= item.starts_with("uses: actions/upload-artifact");
        let Some((key, value)) = item.split_once(':') else {
            continue;
        };
        let value = value.trim();
        let is_path = match key {
            "run" => false,
            "path" if uploading => true,
            _ => continue,
        };
        if value.starts_with(['|', '>']) {
            block = Some((indent, is_path));
        } else if is_path {
            job.uploads.push((n + 1, value.to_string()));
        } else {
            job.runs.push_str(value);
            job.runs.push('\n');
        }
    }
    let mut problems = Vec::new();
    for job in &jobs {
        for (n, path) in &job.uploads {
            let written = job.runs.contains(path.trim_end_matches('/'));
            if path.starts_with("results/") && !written && !tracked(path) {
                problems.push(format!(
                    "line {n}: job {} uploads {path}, which no run: of it writes \
                     and git does not track",
                    job.name
                ));
            }
        }
    }
    problems
}

/// Whether git tracks `path`; outside a git checkout, whether it exists.
fn git_tracks(path: &str) -> bool {
    let listed = Command::new("git")
        .args(["ls-files", "--", path])
        .current_dir(root())
        .output();
    match listed {
        Ok(out) if out.status.success() => !out.stdout.is_empty(),
        _ => root().join(path).exists(),
    }
}

fn workflow(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn ci_workflow_parses_and_names_real_targets() {
    let problems = lint(
        &workflow(&root().join(".github/workflows/ci.yml")),
        target_exists,
    );
    assert!(problems.is_empty(), "ci.yml:\n{}", problems.join("\n"));
}

#[test]
fn uploaded_results_are_written_or_tracked() {
    let problems = unwritten_uploads(
        &workflow(&root().join(".github/workflows/ci.yml")),
        git_tracks,
    );
    assert!(problems.is_empty(), "ci.yml:\n{}", problems.join("\n"));
}

/// An upload finds its file when a `run:` of its own job names it, in a
/// plain or block scalar, or when git tracks it; a `run:` of another job
/// does not count.
#[test]
fn uploads_of_unwritten_untracked_results_are_flagged() {
    let tracked = |path: &str| path == "results/fleet_monitoring.txt";
    let yaml = "\
jobs:
  lint:
    steps:
      - run: cargo run --bin reproduce -- --metrics-out results/metrics.json
      - name: Bench
        run: >
          cargo run --bin temporal_bench --
          --metrics-out results/temporal_metrics.json
      - uses: actions/upload-artifact@v4
        with:
          path: |
            results/metrics.json
            results/temporal_metrics.json
            results/fleet_monitoring.txt
            results/BENCH_trace.json
  stress:
    steps:
      - run: cargo run --bin stress_concurrent -- --out results/concurrent_stress
      - name: Upload
        uses: actions/upload-artifact@v4
        with:
          path: results/concurrent_stress/
      - uses: actions/upload-artifact@v4
        with:
          path: results/metrics.json
";
    assert_eq!(
        unwritten_uploads(yaml, tracked),
        [
            "line 15: job lint uploads results/BENCH_trace.json, which no run: of it \
             writes and git does not track",
            "line 25: job stress uploads results/metrics.json, which no run: of it \
             writes and git does not track",
        ]
    );
}

/// The faults the lint exists for, each on its own, beside the forms that
/// are fine: quoted and block scalars, comments, `$`-named targets.
#[test]
fn lint_flags_each_fault_and_nothing_else() {
    let only_real = |_: &str, name: &str| name == "reproduce";
    let fine = "\
jobs:
  lint:
    steps:
      # A comment: with a colon
      - name: \"Trace profile (gated: overhead <=5%)\"
        run: |
          echo a: b # not YAML here
          cargo run --bin reproduce --example \"$name\"
      - name: Plain name
        run: >
          cargo run --bin reproduce
";
    assert_eq!(lint(fine, only_real), Vec::<String>::new());

    // The step name that stopped the workflow from parsing for 32 changes.
    let unquoted = "      - name: Trace profile (gated: untraced overhead <=5%)\n";
    assert_eq!(
        lint(unquoted, only_real),
        ["line 1: plain scalar holds \": \": Trace profile (gated: untraced overhead <=5%)"]
    );
    let comment = "  key: value #trailing\n";
    assert_eq!(lint(comment, only_real).len(), 1);
    let tab = "jobs:\n\t  lint: x\n";
    assert_eq!(lint(tab, only_real), ["line 2: tab in the indentation"]);
    let missing = "        run: cargo bench --bench ablation --test gone\n";
    assert_eq!(
        lint(missing, only_real),
        [
            "line 1: --bench ablation names nothing",
            "line 1: --test gone names nothing"
        ]
    );
}
