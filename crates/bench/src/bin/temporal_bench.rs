//! Append-optimized temporal ingest: the tiered LSM index (sealed tiers are
//! record-sorted runs plus a frozen HINT over time) against in-place inserts into one flat SR-Tree, on a monotone
//! end-time version stream (the shape a temporal table's archive tier
//! sees: every closed version's end time is the current clock). Each
//! measurement is printed and gated; the run exits non-zero when any gate
//! fails.
//!
//! Three measurements:
//!
//! 1. **Ingest throughput**: wall-clock over the full stream, in
//!    [`INGEST_ROUNDS`] alternating rounds of each index. The tiered
//!    index absorbs writes into a bounded memtable and turns them into
//!    immutable tiers with one HINT build each, so its per-insert cost
//!    stays flat while the in-place tree pays ever-deeper traversals and
//!    node splits. The gate asserts a median ratio ≥ [`INGEST_GATE`]× at
//!    [`RECORDS`] intervals.
//! 2. **Query equivalence**: a probe set must return bit-identical id
//!    sets from both indexes — speed must not change answers. It holds
//!    windows with a duration band, which the tiers filter row by row, and
//!    `AS OF` lines and `WITHIN` windows across every value, which the
//!    tiers' HINTs answer alone.
//!
//! 3. **What an `AS OF` costs, tier by tier**: for every sealed tier the
//!    run ends with, its entries, the mean HINT partitions a stab at `t`
//!    touches in it (exact counts, no timing) and the bytes it holds in
//!    memory per entry. A stab touches at most one partition per level,
//!    so the count may grow with the levels, not with the entries: the
//!    gate fails when the largest tier touches more than
//!    [`PARTITIONS_GATE`]× what
//!    the smallest tier of at least [`LONGEST_LIFETIME`] versions does, or
//!    when any tier holds more than [`RESIDENT_BYTES_GATE`] bytes per
//!    entry (what guards the served process's peak RSS).
//!
//! With `--metrics-out FILE` the run also snapshots the
//! `segidx_temporal_*` telemetry family, which `gates lint` validates
//! (its `TEMPORAL` metrics check).
//!
//! Usage:
//!   temporal_bench [--metrics-out FILE]

use segidx_bench::crash::SplitMix64;
use segidx_bench::median_ratio;
use segidx_core::{IndexConfig, RecordId, Tree};
use segidx_geom::Rect;
use segidx_obs::MetricsRegistry;
use segidx_temporal::lsm::Tier;
use segidx_temporal::{TieredConfig, TieredTelemetry, TieredTemporalIndex};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Intervals in the ingest stream. 1M is where the in-place tree's depth
/// and split costs are fully developed; at toy sizes both sides fit in
/// cache and the ingest ratio is noise.
const RECORDS: usize = 1_000_000;

/// Probes of each shape — duration-band windows, `AS OF` lines and
/// `WITHIN` windows — compared between the tiered and the in-place index.
const QUERIES: usize = 256;

/// Least tiered-over-in-place ingest speedup at [`RECORDS`] intervals: the
/// median ratio of [`INGEST_ROUNDS`] alternating rounds.
const INGEST_GATE: f64 = 3.0;

/// Timed rounds of each ingest, alternating tiered and in-place.
const INGEST_ROUNDS: usize = 3;

/// Most HINT partitions an `AS OF` may touch in the largest tier, as a
/// multiple of what it touches in the smallest tier of at least
/// [`LONGEST_LIFETIME`] versions.
const PARTITIONS_GATE: f64 = 1.5;

/// The one flag: `--metrics-out FILE`, or none.
fn parse_args() -> Result<Option<PathBuf>, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => Ok(None),
        [flag, path] if flag == "--metrics-out" => Ok(Some(PathBuf::from(path))),
        _ => Err("usage: temporal_bench [--metrics-out FILE]".into()),
    }
}

/// The longest a version of [`version_stream`] lives, in ticks — and, one
/// version closing per tick, in versions.
const LONGEST_LIFETIME: f64 = 10_000.0;

/// A monotone end-time version stream: record `i` closes at time `i`
/// (versions retire in clock order), having lived a mostly-short duration
/// with a sparse long tail — the paper's I-series shape stretched along
/// the time axis. Dimension 0 is the version's `[from, to]` lifetime,
/// dimension 1 its duration (the axis `WITHIN ... DURATION` bands query).
fn version_stream(n: usize, seed: u64) -> Vec<(Rect<2>, RecordId)> {
    let mut rng = SplitMix64::new(seed);
    (0..n as u64)
        .map(|i| {
            let end = i as f64;
            let dur = if rng.next_u64() & 63 == 0 {
                1_000.0 + rng.next_f64() * (LONGEST_LIFETIME - 1_000.0)
            } else {
                1.0 + rng.next_f64() * 100.0
            };
            (Rect::new([end - dur, dur], [end, dur]), RecordId(i))
        })
        .collect()
}

/// One sealed tier and what an `AS OF` costs in it.
struct TierCost {
    seq: u64,
    level: u32,
    entries: usize,
    partitions_per_as_of: f64,
    resident_bytes_per_entry: f64,
}

/// `AS OF` probes per tier for the partition counts.
const AS_OF_PROBES: usize = 256;

/// Most heap bytes a sealed tier may hold per entry: its id and rectangle
/// columns (40 B at `D = 2`) plus its HINT.
const RESIDENT_BYTES_GATE: f64 = 100.0;

/// Mean HINT partitions an `AS OF` touches in `tier`: stabs at
/// [`AS_OF_PROBES`] evenly spaced times of the span the tier covers.
fn partitions_per_as_of(tier: &Tier<2>) -> f64 {
    let span = tier.fence().expect("a sealed tier is not empty");
    let accesses: u64 = (0..AS_OF_PROBES)
        .map(|i| {
            let t = span.lo(0) + span.extent(0) * (i as f64 + 0.5) / AS_OF_PROBES as f64;
            tier.hint().count_accesses(t, t)
        })
        .sum();
    accesses as f64 / AS_OF_PROBES as f64
}

/// Time-window × duration-band probes spread over the occupied domain.
fn probe_windows(n: usize, horizon: f64, seed: u64) -> Vec<Rect<2>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let t = rng.next_f64() * horizon * 0.95;
            let w = 1.0 + rng.next_f64() * horizon * 0.001;
            let lo = rng.next_f64() * 100.0;
            let hi = lo + 1.0 + rng.next_f64() * 400.0;
            Rect::new([t, lo], [t + w, hi])
        })
        .collect()
}

/// Width of a `WITHIN` probe: 200 versions close in it.
const WITHIN_WIDTH: f64 = 200.0;

/// `AS OF` lines and [`WITHIN_WIDTH`] `WITHIN` windows at `n` times spread
/// over the occupied domain, each across every value — the shapes
/// `pin_as_of` and `pin_within` ask, which a tier answers through its HINT
/// alone.
fn time_probes(n: usize, horizon: f64, seed: u64) -> Vec<Rect<2>> {
    let mut rng = SplitMix64::new(seed);
    let (lo, hi) = (f64::MIN / 2.0, f64::MAX / 2.0);
    (0..n)
        .flat_map(|_| {
            let t = rng.next_f64() * horizon;
            [
                Rect::new([t, lo], [t, hi]),
                Rect::new([t, lo], [t + WITHIN_WIDTH, hi]),
            ]
        })
        .collect()
}

fn main() -> ExitCode {
    let metrics_out = match parse_args() {
        Ok(path) => path,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let stream = version_stream(RECORDS, 17);
    println!("temporal ingest: {RECORDS} monotone end-time versions");

    // ---- 1. Tiered ingest against in-place inserts, alternating -------
    // The gate is the median of the rounds' ratios: one timed pass of each
    // read 3.2-4.5x idle on a 2-vCPU box, and 2.84x beside a build.
    let registry = MetricsRegistry::new();
    let telemetry = Arc::new(TieredTelemetry::new());
    telemetry.register(&registry);
    let (mut tiered_rounds, mut flat_rounds) = (Vec::new(), Vec::new());
    let mut built = None;
    for round in 1..=INGEST_ROUNDS {
        drop(built.take());
        let mut tiered = TieredTemporalIndex::<2>::new(TieredConfig::default());
        // Only the kept round reports to the telemetry.
        tiered.set_telemetry((round == INGEST_ROUNDS).then(|| Arc::clone(&telemetry)));
        let start = Instant::now();
        for (rect, id) in &stream {
            tiered.insert(*rect, *id).expect("tiered insert");
        }
        // The last seal's merge is still on the worker: the timed pass ends
        // once it is spliced in, so it pays for every merge it started.
        tiered.flush_merges().expect("flush merges");
        let tiered_nanos = start.elapsed().as_nanos() as u64;
        let mut flat = Tree::<2>::new(IndexConfig::srtree());
        let start = Instant::now();
        for (rect, id) in &stream {
            flat.insert(*rect, *id);
        }
        let flat_nanos = start.elapsed().as_nanos() as u64;
        println!(
            "  round {round}: tiered {:>4.0} ns/insert ({} tiers), in-place {:>5.0} ns/insert, \
             {:.2}x",
            tiered_nanos as f64 / RECORDS as f64,
            tiered.tier_count(),
            flat_nanos as f64 / RECORDS as f64,
            flat_nanos as f64 / tiered_nanos as f64
        );
        tiered_rounds.push(tiered_nanos);
        flat_rounds.push(flat_nanos);
        built = Some((tiered, flat));
    }
    let (tiered, flat) = built.expect("at least one round");
    tiered.assert_invariants();
    let speedup = median_ratio(&flat_rounds, &tiered_rounds);
    println!("  speedup: {speedup:.2}x (median of {INGEST_ROUNDS} rounds)");

    // ---- 2. Query equivalence -----------------------------------------
    let mut probes = probe_windows(QUERIES, RECORDS as f64, 29);
    probes.extend(time_probes(QUERIES, RECORDS as f64, 31));
    let mut mismatches = 0usize;
    let mut total_hits = 0usize;
    for q in &probes {
        let mut a = tiered.search(q);
        let mut b = flat.search(q);
        a.sort_unstable_by_key(|r| r.0);
        b.sort_unstable_by_key(|r| r.0);
        total_hits += b.len();
        if a != b {
            mismatches += 1;
        }
    }
    println!(
        "  queries: {} probes ({QUERIES} windows, AS OF lines and WITHIN windows each), \
         {} hits, {} mismatches",
        probes.len(),
        total_hits,
        mismatches
    );

    // ---- 3. AS OF cost per sealed tier (exact partition counts) ---------
    let tier_costs: Vec<TierCost> = tiered
        .tiers()
        .map(|t| TierCost {
            seq: t.seq,
            level: t.level,
            entries: t.entry_count(),
            partitions_per_as_of: partitions_per_as_of(t),
            resident_bytes_per_entry: t.resident_bytes() as f64 / t.entry_count() as f64,
        })
        .collect();
    for t in &tier_costs {
        println!(
            "  tier seq {:>3} level {}: {:>7} entries, {:.1} HINT partitions per AS OF, \
             {:.1} B per entry",
            t.seq, t.level, t.entries, t.partitions_per_as_of, t.resident_bytes_per_entry
        );
    }
    // One version closes per tick, so a tier's entries are its span of
    // end times.
    let cost_of = |tier: Option<&TierCost>| tier.map_or(0.0, |t| t.partitions_per_as_of);
    let largest = cost_of(tier_costs.iter().max_by_key(|t| t.entries));
    let baseline = cost_of(
        tier_costs
            .iter()
            .filter(|t| t.entries as f64 >= LONGEST_LIFETIME)
            .min_by_key(|t| t.entries),
    );

    let bytes_per_entry = tier_costs
        .iter()
        .map(|t| t.resident_bytes_per_entry)
        .fold(0.0, f64::max);

    if let Some(path) = &metrics_out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create metrics dir");
        }
        std::fs::write(path, registry.snapshot().to_json()).expect("write metrics");
        println!("temporal_bench: wrote {}", path.display());
    }

    // ---- Acceptance gates ----------------------------------------------
    let mut problems = Vec::new();
    if speedup < INGEST_GATE {
        problems.push(format!(
            "tiered ingest speedup {speedup:.2}x is below the {INGEST_GATE}x gate"
        ));
    }
    if largest > PARTITIONS_GATE * baseline {
        problems.push(format!(
            "the largest tier touches {largest:.1} HINT partitions per AS OF, more than \
             {PARTITIONS_GATE}x the {baseline:.1} of the smallest tier longer than a lifetime"
        ));
    }
    if bytes_per_entry > RESIDENT_BYTES_GATE {
        problems.push(format!(
            "a sealed tier holds {bytes_per_entry:.1} B per entry, more than \
             {RESIDENT_BYTES_GATE} B"
        ));
    }
    if mismatches > 0 {
        problems.push(format!(
            "{mismatches} of {} probe queries returned different id sets",
            probes.len()
        ));
    }
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("temporal_bench: CHECK FAILED: {p}");
        }
        return ExitCode::FAILURE;
    }
    println!(
        "temporal_bench: checks passed (ingest {speedup:.2}x >= {INGEST_GATE}x, {} \
         probes bit-identical, AS OF {largest:.1} HINT partitions on the largest tier <= \
         {PARTITIONS_GATE}x {baseline:.1}, {bytes_per_entry:.1} B per tier entry <= \
         {RESIDENT_BYTES_GATE})",
        probes.len()
    );
    ExitCode::SUCCESS
}
