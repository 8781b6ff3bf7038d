//! HINT vs the paper variants: the 1-D stabbing microbench. Results land
//! in `results/BENCH_hint.json` (same `hardware_note` convention as
//! `results/BENCH_trace.json`).
//!
//! HINT's bottom-level stabbing is nearly comparison-free, so it should
//! beat every paper variant by a wide margin on pure stabbing workloads.
//! `--check` asserts ≥ 1.3× over the *best* variant (see [`STAB_GATE`]) —
//! the measurement that justifies keeping a second engine for `D = 1`.
//!
//! Usage:
//!   hint_bench [--records N] [--stabs N] [--rounds N] [--out FILE] [--check]

use segidx_bench::crash::SplitMix64;
use segidx_bench::{hardware_note, median, median_ratio, today};
use segidx_core::{HintIndex, IndexConfig, IntervalIndex, Skeleton, Tree};
use segidx_geom::{Point, Rect};
use segidx_workloads::DOMAIN_MAX;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Floor on HINT's 1-D stab speedup over the best paper variant. It guards
/// the premise of a 1-D engine — HINT is decisively faster there — not a
/// fixed distance to the trees: PR 12's
/// one-block nodes and prefetching traversal made every tree variant ~30%
/// faster on this bench (best variant 2,740 → ~2,000 ns/op) while HINT is
/// unchanged (~1,250 ns/op), so the ratio moved from 2.26× to 1.57–1.64×
/// over three runs. 1.3 sits ~17% under the lowest of those.
const STAB_GATE: f64 = 1.3;

struct Args {
    records: usize,
    stabs: usize,
    rounds: usize,
    out: PathBuf,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    // 500k intervals approaches the scale of the HINT paper's real
    // datasets (BOOKS: 2.3M); at toy sizes the comparison trees are so
    // shallow that fixed per-query costs mask the hierarchy's advantage.
    let mut args = Args {
        records: 500_000,
        stabs: 2_000,
        rounds: 7,
        out: PathBuf::from("results/BENCH_hint.json"),
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--records" => {
                args.records = value("--records")?.parse().map_err(|e| format!("{e}"))?
            }
            "--stabs" => args.stabs = value("--stabs")?.parse().map_err(|e| format!("{e}"))?,
            "--rounds" => args.rounds = value("--rounds")?.parse().map_err(|e| format!("{e}"))?,
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--check" => args.check = true,
            "--help" | "-h" => {
                return Err("usage: hint_bench [--records N] [--stabs N] [--rounds N] \
                     [--out FILE] [--check]"
                    .into())
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// 1-D interval data in the spirit of the HINT paper's real workloads
/// (BOOKS/TAXIS): overwhelmingly short intervals with a sparse long tail,
/// uniform placement over `[0, DOMAIN_MAX)`. Stab results stay small
/// (≈ a dozen ids), so the measurement compares index traversal cost
/// rather than result materialisation, which every engine pays alike.
fn intervals_1d(n: usize, seed: u64) -> Vec<(Rect<1>, segidx_core::RecordId)> {
    let mut rng = SplitMix64::new(seed);
    (0..n as u64)
        .map(|i| {
            let x = rng.next_f64() * DOMAIN_MAX;
            let len = if rng.next_u64() & 63 == 0 {
                DOMAIN_MAX * 0.005
            } else {
                DOMAIN_MAX * 0.000_05
            };
            (Rect::new([x], [x + len]), segidx_core::RecordId(i))
        })
        .collect()
}

fn stab_points_1d(n: usize, seed: u64) -> Vec<Point<1>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| Point::new([rng.next_f64() * DOMAIN_MAX]))
        .collect()
}

/// Per-round wall times for two stab paths with their rounds interleaved
/// (a, b, a, b, ...), so slow-clock stretches — frequency scaling, noisy
/// neighbours — hit both sides equally instead of biasing whichever block
/// ran second. Callers compare the sides through per-round *ratios*
/// (adjacent rounds see near-identical machine conditions, so the noise
/// cancels) and report latencies as per-side medians.
fn time_stabs_rounds(
    a: &dyn IntervalIndex<1>,
    b: &dyn IntervalIndex<1>,
    points: &[Point<1>],
    rounds: usize,
) -> (Vec<u64>, Vec<u64>) {
    let (mut rounds_a, mut rounds_b) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        for (index, out) in [(a, &mut rounds_a), (b, &mut rounds_b)] {
            let start = Instant::now();
            let mut found = 0usize;
            for p in points {
                found += index.stab(p).len();
            }
            black_box(found);
            out.push(start.elapsed().as_nanos() as u64);
        }
    }
    (rounds_a, rounds_b)
}

/// Builds each 1-D paper variant over `records`.
fn paper_variants_1d(
    records: &[(Rect<1>, segidx_core::RecordId)],
) -> Vec<(&'static str, Box<dyn IntervalIndex<1>>)> {
    let n = records.len();
    let domain = Rect::new([0.0], [DOMAIN_MAX * 1.05]);
    let buffer = (n / 10).max(1);
    let skeleton = |config| Box::new(Skeleton::<1>::new(config, domain, n, buffer));
    let mut out: Vec<Box<dyn IntervalIndex<1>>> = vec![
        Box::new(Tree::<1>::new(IndexConfig::rtree())),
        Box::new(Tree::<1>::new(IndexConfig::srtree())),
        skeleton(IndexConfig::skeleton_rtree()),
        skeleton(IndexConfig::skeleton_srtree()),
    ];
    for index in &mut out {
        for (r, id) in records {
            index.insert(*r, *id);
        }
    }
    out.into_iter()
        .map(|index| (index.variant_name(), index))
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let records_1d = intervals_1d(args.records, 7);
    let points = stab_points_1d(args.stabs, 11);
    let mut hint_1d = HintIndex::new();
    hint_1d.bulk_load(records_1d.clone());
    println!(
        "1-D stab over {} intervals, {} probes:",
        args.records, args.stabs
    );
    // Each variant's rounds interleave with fresh HINT rounds, and each
    // pairing is summarized by its median per-round ratio (adjacent
    // rounds see near-identical machine conditions, so noise cancels in
    // the ratio). HINT's reported latency is the median over all its
    // rounds.
    let mut hint_rounds: Vec<u64> = Vec::new();
    let mut variant_stabs: Vec<(&'static str, u64, f64)> = Vec::new();
    for (name, index) in paper_variants_1d(&records_1d) {
        let (h, mut v) = time_stabs_rounds(&hint_1d, index.as_ref(), &points, args.rounds);
        let ratio = median_ratio(&v, &h);
        let nanos = median(&mut v);
        println!(
            "  {:<18} {:>10.0} ns/op  ({:.2}x HINT)",
            name,
            nanos as f64 / args.stabs as f64,
            ratio
        );
        variant_stabs.push((name, nanos, ratio));
        hint_rounds.extend(h);
    }
    let hint_stab = median(&mut hint_rounds);
    println!(
        "  {:<18} {:>10.0} ns/op",
        "HINT",
        hint_stab as f64 / args.stabs as f64
    );
    let best_variant = variant_stabs
        .iter()
        .min_by(|x, y| x.2.total_cmp(&y.2))
        .copied()
        .expect("four variants timed");
    let stab_speedup = best_variant.2;
    println!(
        "  speedup vs best variant ({}): {:.2}x",
        best_variant.0, stab_speedup
    );

    // ---- JSON ----------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"benchmark\": \"HINT hierarchical interval engine vs the paper's four variants\",\n",
    );
    json.push_str(&format!("  \"date\": \"{}\",\n", today()));
    json.push_str(
        "  \"method\": \"crates/bench/src/bin/hint_bench.rs; 1-D stabbing over a \
         long-tail interval set, HINT vs all four paper variants, interleaved rounds scored by the \
         median per-round ratio\",\n",
    );
    json.push_str(&format!(
        "  \"hardware_note\": \"{}\",\n",
        hardware_note(
            cores,
            &format!(
                "single-threaded microbench, {} interleaved rounds (median of paired \
                 per-round ratios) - relative ratios are the signal, absolute latencies \
                 vary with the runner",
                args.rounds
            )
        )
    ));
    json.push_str(&format!("  \"n_records\": {},\n", args.records));
    json.push_str(&format!("  \"stab_probes\": {},\n", args.stabs));
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str("  \"stab_1d\": {\n");
    json.push_str(&format!(
        "    \"hint_nanos_per_op\": {},\n",
        hint_stab / args.stabs as u64
    ));
    json.push_str("    \"variants\": [\n");
    for (i, (name, nanos, ratio)) in variant_stabs.iter().enumerate() {
        json.push_str(&format!(
            "      {{ \"variant\": \"{name}\", \"nanos_per_op\": {}, \"ratio_vs_hint\": {ratio:.2} }}{}\n",
            nanos / args.stabs as u64,
            if i + 1 == variant_stabs.len() {
                ""
            } else {
                ","
            }
        ));
    }
    json.push_str("    ],\n");
    json.push_str(&format!(
        "    \"best_variant\": \"{}\",\n    \"speedup_vs_best_variant\": {:.2}\n  }}\n}}\n",
        best_variant.0, stab_speedup
    ));
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(&args.out, json).expect("write results");
    println!("hint_bench: wrote {}", args.out.display());

    if args.check {
        if stab_speedup < STAB_GATE {
            eprintln!(
                "hint_bench: CHECK FAILED: 1-D stab speedup {stab_speedup:.2}x vs {} is below \
                 the {STAB_GATE}x gate",
                best_variant.0
            );
            return ExitCode::FAILURE;
        }
        println!("hint_bench: check passed (stab {stab_speedup:.2}x >= {STAB_GATE}x)");
    }
    ExitCode::SUCCESS
}
