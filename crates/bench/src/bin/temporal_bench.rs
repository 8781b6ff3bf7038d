//! Append-optimized temporal ingest: the tiered LSM index (sealed tiers are
//! record-sorted runs plus a frozen HINT over time) against in-place inserts into one flat SR-Tree, on a monotone
//! end-time version stream (the shape a temporal table's archive tier
//! sees: every closed version's end time is the current clock). Each
//! measurement is printed and gated; the run exits non-zero when any gate
//! fails.
//!
//! Four measurements:
//!
//! 1. **Ingest throughput**: wall-clock over the full stream, in
//!    [`INGEST_ROUNDS`] alternating rounds of each index. The tiered
//!    index absorbs writes into a bounded memtable and turns them into
//!    immutable tiers with one HINT build each, so its per-insert cost
//!    stays flat while the in-place tree pays ever-deeper traversals and
//!    node splits. The gate asserts a median ratio ≥ [`INGEST_GATE`]× at
//!    [`RECORDS`] intervals.
//! 2. **Query equivalence**: a window-query probe set must return
//!    bit-identical id sets from both indexes — speed must not change
//!    answers.
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
//! 4. **Each sealed tier against a tree** (printed, not gated on speed): on
//!    a stream shaped like `serve-temporal`'s, each sealed tier answers
//!    `AS OF` and `WITHIN` through its HINT next to a `bulk_load_run` tree
//!    packed from the same entries — ns per query, the tree-to-HINT ratio,
//!    each one's build cost per entry, and HINT's stored copies per
//!    interval. The gate fails on any id the two disagree on.
//!
//! With `--metrics-out FILE` the run also snapshots the
//! `segidx_temporal_*` telemetry family, which `gates lint` validates
//! (its `TEMPORAL` metrics check).
//!
//! Usage:
//!   temporal_bench [--metrics-out FILE]

use segidx_bench::crash::SplitMix64;
use segidx_bench::{median, median_ratio};
use segidx_core::hint::FrozenHint;
use segidx_core::{bulk, IndexConfig, RecordId, SearchCursor, Tree};
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

/// Window probes compared between the tiered and the in-place index.
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

/// Keys, mean gap between records and versions of [`served_versions`]:
/// `serve-temporal`'s preload shape, long enough that the default 8 192-entry
/// seals and fanout-4 merges leave one tier on each level, 8 192 to 524 288
/// entries.
const SERVED_KEYS: usize = 256;
const SERVED_MEAN_GAP: f64 = 10.0;
const SERVED_VERSIONS: usize = 700_000;
/// Width of a served `WITHIN` window: 200 mean gaps.
const WITHIN_WIDTH: f64 = 200.0 * SERVED_MEAN_GAP;
/// `AS OF` and `WITHIN` probes per tier, and interleaved timing rounds.
const HINT_PROBES: usize = 2_000;
const HINT_ROUNDS: usize = 5;

/// The closed versions of a `serve-temporal`-shaped `RECORD` stream, in
/// closing order: each step advances the clock by an exponential gap,
/// records a random value for one of [`SERVED_KEYS`] keys, and closes that
/// key's previous version. A version is indexed as a temporal table does:
/// `[from, value] × [to, value]`.
fn served_versions(n: usize, seed: u64) -> Vec<(Rect<2>, RecordId)> {
    let mut rng = SplitMix64::new(seed);
    let mut open: Vec<Option<(f64, f64)>> = vec![None; SERVED_KEYS];
    let mut out = Vec::with_capacity(n);
    let mut t = 0.0;
    while out.len() < n {
        t += (-SERVED_MEAN_GAP * (1.0 - rng.next_f64()).ln()).max(1e-3);
        let key = (rng.next_u64() % SERVED_KEYS as u64) as usize;
        let value = (rng.next_u64() % 100_000) as f64;
        if let Some((from, v)) = open[key].replace((t, value)) {
            out.push((Rect::new([from, v], [t, v]), RecordId(out.len() as u64)));
        }
    }
    out
}

/// One sealed tier's HINT against a tree packed from its entries.
struct HintRow {
    entries: usize,
    copies_per_interval: f64,
    /// `(tree ns, HINT ns, median per-round tree/HINT ratio)` per query.
    as_of: (f64, f64, f64),
    within: (f64, f64, f64),
    /// Build ns per entry: `bulk_load_run`, and the tier's HINT.
    build: (f64, f64),
}

/// Times `tree` against `hint` over `probes`, in [`HINT_ROUNDS`]
/// interleaved rounds, and counts the probes whose ids differ.
fn race(
    probes: &[Rect<2>],
    tree: impl Fn(&Rect<2>) -> Vec<RecordId>,
    hint: impl Fn(&Rect<2>) -> Vec<RecordId>,
) -> ((f64, f64, f64), usize) {
    let mismatches = probes.iter().filter(|q| tree(q) != hint(q)).count();
    let (mut tree_rounds, mut hint_rounds) = (Vec::new(), Vec::new());
    for _ in 0..HINT_ROUNDS {
        let start = Instant::now();
        let hits: usize = probes.iter().map(|q| tree(q).len()).sum();
        tree_rounds.push(start.elapsed().as_nanos() as u64);
        let start = Instant::now();
        let hint_hits: usize = probes.iter().map(|q| hint(q).len()).sum();
        hint_rounds.push(start.elapsed().as_nanos() as u64);
        std::hint::black_box((hits, hint_hits));
    }
    let ratio = median_ratio(&tree_rounds, &hint_rounds);
    let per_query = |rounds: &mut [u64]| median(rounds) as f64 / probes.len() as f64;
    (
        (
            per_query(&mut tree_rounds),
            per_query(&mut hint_rounds),
            ratio,
        ),
        mismatches,
    )
}

/// Median wall time per entry of [`HINT_ROUNDS`] runs of `build`.
fn build_ns_per_entry<T>(entries: usize, build: impl Fn() -> T) -> f64 {
    let mut rounds: Vec<u64> = (0..HINT_ROUNDS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(build());
            start.elapsed().as_nanos() as u64
        })
        .collect();
    median(&mut rounds) as f64 / entries as f64
}

/// Ingests [`served_versions`] into a default tiered index, then races
/// every sealed tier's search — its HINT over time, as a pinned search
/// asks it — against a `bulk_load_run` tree packed from the same entries
/// on `AS OF` (a line at `t` across every value, as `pin_as_of` probes) and
/// a [`WITHIN_WIDTH`] `WITHIN` (`pin_within`'s window across every value).
/// Returns one row per tier and the probes whose ids differed.
fn tiers_against_trees() -> (Vec<HintRow>, usize) {
    let mut tiered = TieredTemporalIndex::<2>::new(TieredConfig::default());
    for (rect, id) in served_versions(SERVED_VERSIONS, 41) {
        tiered.insert(rect, id).expect("tiered insert");
    }
    tiered.flush_merges().expect("flush merges");
    let everything = (f64::MIN / 2.0, f64::MAX / 2.0);
    let mut mismatches = 0;
    let mut rows = Vec::new();
    for tier in tiered.tiers() {
        let entries: Vec<(Rect<2>, RecordId)> = tier.entries().collect();
        let pack = || bulk::bulk_load_run(IndexConfig::srtree(), entries.clone());
        let tree = pack();
        let span = tier.fence().expect("a sealed tier is not empty");
        let mut rng = SplitMix64::new(entries.len() as u64);
        let times: Vec<f64> = (0..HINT_PROBES)
            .map(|_| span.lo(0) + rng.next_f64() * span.extent(0))
            .collect();
        let as_of: Vec<Rect<2>> = times
            .iter()
            .map(|&t| Rect::new([t, everything.0], [t, everything.1]))
            .collect();
        let within: Vec<Rect<2>> = times
            .iter()
            .map(|&t| Rect::new([t, everything.0], [t + WITHIN_WIDTH, everything.1]))
            .collect();
        let cursor = std::cell::RefCell::new(SearchCursor::new());
        let tree_search = |q: &Rect<2>| tree.search_with(&mut cursor.borrow_mut(), q).to_vec();
        let (as_of, bad_as_of) = race(&as_of, tree_search, |q| tier.search(q));
        let (within, bad_within) = race(&within, tree_search, |q| tier.search(q));
        mismatches += bad_as_of + bad_within;
        let build = (
            build_ns_per_entry(entries.len(), pack),
            build_ns_per_entry(entries.len(), || {
                FrozenHint::over_starts(entries.len(), |i| (entries[i].0.lo(0), entries[i].0.hi(0)))
            }),
        );
        rows.push(HintRow {
            entries: entries.len(),
            copies_per_interval: tier.hint().copies() as f64 / entries.len() as f64,
            as_of,
            within,
            build,
        });
    }
    (rows, mismatches)
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

    // ---- 1-2. Tiered ingest against in-place inserts, alternating -------
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

    // ---- 3. Query equivalence -----------------------------------------
    let probes = probe_windows(QUERIES, RECORDS as f64, 29);
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
        "  queries: {} probes, {} hits, {} mismatches",
        QUERIES, total_hits, mismatches
    );

    // ---- 4. AS OF cost per sealed tier (exact partition counts) ---------
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

    // ---- 5. Each sealed tier against a tree (reported, ids gated) -------
    let (hint_rows, hint_mismatches) = tiers_against_trees();
    println!(
        "  sealed tiers of a {SERVED_VERSIONS}-version serve-temporal stream against \
         bulk_load_run trees of the same entries:"
    );
    for r in &hint_rows {
        println!(
            "  tier {:>7} entries: AS OF tree {:>6.0} ns, HINT {:>6.0} ns ({:.2}x); \
             WITHIN tree {:>6.0} ns, HINT {:>6.0} ns ({:.2}x); build tree {:.0} ns, \
             HINT {:.0} ns per entry; {:.2} HINT copies per interval",
            r.entries,
            r.as_of.0,
            r.as_of.1,
            r.as_of.2,
            r.within.0,
            r.within.1,
            r.within.2,
            r.build.0,
            r.build.1,
            r.copies_per_interval
        );
    }
    println!(
        "  HINT: {} probes per tier and query, {hint_mismatches} id mismatches",
        HINT_PROBES
    );

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
            "{mismatches} of {QUERIES} probe queries returned different id sets"
        ));
    }
    if hint_mismatches > 0 {
        problems.push(format!(
            "{hint_mismatches} AS OF / WITHIN probes got different ids from a tier's \
             HINT than from a tree of the same entries"
        ));
    }
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("temporal_bench: CHECK FAILED: {p}");
        }
        return ExitCode::FAILURE;
    }
    println!(
        "temporal_bench: checks passed (ingest {speedup:.2}x >= {INGEST_GATE}x, {QUERIES} \
         probes bit-identical, AS OF {largest:.1} HINT partitions on the largest tier <= \
         {PARTITIONS_GATE}x {baseline:.1}, {bytes_per_entry:.1} B per tier entry <= \
         {RESIDENT_BYTES_GATE}, HINT ids equal the trees' on {} probes)",
        2 * HINT_PROBES * hint_rows.len()
    );
    ExitCode::SUCCESS
}
