//! Rules about where a construct may appear in the crates' sources,
//! checked over their text. A line whose code starts with `//` (a comment
//! or a doc comment) is exempt.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `path:line: text` for each code line of the `src/` trees of `crates`
/// (each `*` for every crate) that `bad` flags.
fn offending_lines(crates: &[&str], bad: impl Fn(&str, &str) -> bool) -> Vec<String> {
    let mut files = Vec::new();
    for krate in crates {
        if *krate == "*" {
            for entry in std::fs::read_dir(root().join("crates")).unwrap() {
                rust_files(&entry.unwrap().path().join("src"), &mut files);
            }
        } else {
            rust_files(&root().join("crates").join(krate).join("src"), &mut files);
        }
    }
    let mut found = Vec::new();
    for file in files {
        let path = file
            .strip_prefix(root())
            .unwrap()
            .to_string_lossy()
            .into_owned();
        let text = std::fs::read_to_string(&file).unwrap();
        for (n, line) in text.lines().enumerate() {
            if !line.trim_start().starts_with("//") && bad(&path, line) {
                found.push(format!("{path}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    found
}

/// The scan kernels stay portable, auto-vectorized Rust: the one arch
/// intrinsic, the prefetch hint, lives in `prefetch.rs`, where segidx-core
/// allows its one `unsafe`.
#[test]
fn no_arch_intrinsics_outside_prefetch() {
    let found = offending_lines(&["geom", "core"], |path, line| {
        path != "crates/core/src/prefetch.rs"
            && (line.contains("std::arch") || line.contains("core::arch"))
    });
    assert!(found.is_empty(), "arch intrinsics:\n{}", found.join("\n"));
}

/// The engine counts node accesses, the paper's metric; wall time is
/// measured by whoever calls it (runner, service, server, segbench).
#[test]
fn the_engine_reads_no_clock() {
    let found = offending_lines(&["geom", "core", "storage"], |_, line| {
        line.contains("Instant") || line.contains("SystemTime")
    });
    assert!(found.is_empty(), "clock reads:\n{}", found.join("\n"));
}

/// Whether `line` holds a `"segidx_…"` string literal of lowercase
/// letters, digits and underscores.
fn has_family_literal(line: &str) -> bool {
    line.match_indices("\"segidx_").any(|(at, prefix)| {
        let rest = &line[at + prefix.len()..];
        let name_len = rest
            .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(rest.len());
        name_len > 0 && rest[name_len..].starts_with('"')
    })
}

/// Each metric family name is written once, in the `Family::` const table
/// beside the collector that emits it; collectors, tests and the metrics
/// check refer to the const.
#[test]
fn family_names_appear_only_in_their_declarations() {
    let found = offending_lines(&["*"], |_, line| {
        has_family_literal(line)
            && !["counter", "gauge", "histogram"]
                .iter()
                .any(|kind| line.contains(&format!("Family::{kind}(\"segidx_")))
    });
    assert!(
        found.is_empty(),
        "family-name literals:\n{}",
        found.join("\n")
    );
    assert!(has_family_literal(r#"m.name == "segidx_cuts_total""#));
    assert!(!has_family_literal(r#"--bin segidx_server --addr"#));
    assert!(!has_family_literal(r#""segidx_" + name"#));
}
