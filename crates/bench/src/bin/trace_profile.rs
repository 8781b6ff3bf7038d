//! Tracing overhead gate + example-trace artifact for CI.
//!
//! Two jobs:
//!
//! 1. **Example trace**: forces one sampled 2-D window search against a
//!    pinned [`ConcurrentIndex`] snapshot of an SR-Tree (what the server
//!    runs) plus a persisted replica read through a deliberately small
//!    [`BufferPool`], so a single trace spans per-level node visits →
//!    buffer-pool / page I/O. The trace is printed as a text tree and
//!    exported as Chrome `trace_event` JSON to [`TRACE_OUT`], loadable in
//!    `chrome://tracing` / Perfetto.
//! 2. **Overhead**: the tracing hooks cost one thread-local branch per span
//!    site when no trace is active. Interleaved paired rounds compare the
//!    instrumented [`Tree::search_with`] (tracing compiled in, no active
//!    trace) against [`Tree::bench_search_untraced`] (the monomorphized
//!    untraced kernel instantiation); the gate fails the run when the
//!    median per-round ratio exceeds [`OVERHEAD_GATE`].
//!
//! Usage:
//!   trace_profile

use segidx_bench::crash::SplitMix64;
use segidx_bench::{median, median_ratio};
use segidx_concurrent::{ConcurrentIndex, IndexOp, SubmitError};
use segidx_core::tree::Tree;
use segidx_core::{persist, IndexConfig, PagedSearcher, SearchCursor};
use segidx_geom::Rect;
use segidx_obs::json;
use segidx_obs::trace::{chrome_trace_json, CompletedTrace, Dim, OpClass, Tracer};
use segidx_storage::{BufferPool, BufferPoolConfig, DiskManager};
use segidx_workloads::{DataDistribution, DOMAIN_MAX};
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Untraced-vs-baseline overhead gate, as a ratio (1.05 = +5%).
///
/// The two sides run identical machine code modulo one thread-local
/// branch, but the measured ratio swings by a few percent with binary
/// layout: rebuilding the same measurement after *unrelated* workspace
/// changes has produced 0.94–1.02 (code alignment shifting I-cache
/// behavior, not tracing cost). The gate therefore sits outside that
/// noise band; accidentally linking tracing work into the untraced
/// kernel costs far more than 5% and still trips it.
const OVERHEAD_GATE: f64 = 1.05;

/// Records in the overhead tree, windows per round, and paired rounds.
const RECORDS: usize = 200_000;
const QUERIES: usize = 400;
const ROUNDS: usize = 9;

/// Where the Chrome export of the example trace goes.
const TRACE_OUT: &str = "results/trace_example.json";

/// Forces one fully-instrumented 2-D window search and returns the trace:
/// a pinned snapshot of the index service answers the window, then a
/// persisted replica of the same data answers it again through a cold
/// 64 KB buffer pool, all inside one trace guard.
fn record_example_trace() -> Result<CompletedTrace, String> {
    let n = 20_000;
    let dataset = DataDistribution::I3.generate(n, 7);

    // The index service: one SR-Tree behind a group-commit writer.
    let tracer = Arc::new(Tracer::new(1));
    let index = ConcurrentIndex::builder(Tree::<2>::new(IndexConfig::srtree()))
        .max_batch(512)
        .start()
        .map_err(|e| format!("index start: {e}"))?;
    for (rect, record) in &dataset.records {
        loop {
            match index.submit(IndexOp::Insert {
                rect: *rect,
                record: *record,
            }) {
                Ok(_) => break,
                Err(SubmitError::Overloaded { .. }) => std::thread::yield_now(),
                Err(e) => return Err(format!("submit: {e}")),
            }
        }
    }
    index.flush().map_err(|e| format!("flush: {e}"))?;

    // The persisted replica: same records through an on-disk SR-Tree read
    // by a PagedSearcher over a pool small enough to actually miss.
    let mut replica: Tree<2> = Tree::new(IndexConfig::srtree());
    for (rect, record) in &dataset.records {
        replica.insert(*rect, *record);
    }
    let dir = std::env::temp_dir().join(format!("segidx-trace-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("tempdir: {e}"))?;
    let disk = Arc::new(
        DiskManager::create(dir.join("replica.db")).map_err(|e| format!("disk create: {e}"))?,
    );
    let meta = persist::save(&replica, &disk).map_err(|e| format!("persist: {e}"))?;
    let pool = BufferPool::with_config(
        Arc::clone(&disk),
        BufferPoolConfig {
            capacity_bytes: 64 * 1024,
        },
    );
    // One forced trace around both halves of the read.
    let window = Rect::new(
        [DOMAIN_MAX * 0.1, DOMAIN_MAX * 0.1],
        [DOMAIN_MAX * 0.9, DOMAIN_MAX * 0.9],
    );
    let (served_hits, paged_hits) = {
        let paged: PagedSearcher<2> =
            PagedSearcher::open(&pool, meta).map_err(|e| format!("paged open: {e}"))?;

        // Warm the replica's upper levels so the trace shows buffer-pool
        // hits alongside the cold leaf misses.
        let _ = paged
            .search(&Rect::new([0.0, 0.0], [1.0, 1.0]))
            .map_err(|e| format!("warm-up search: {e}"))?;

        let _g = tracer
            .force(OpClass::Search, "window_2d")
            .expect("no other trace is active on this thread");
        let snap = index.snapshot();
        let served_hits = snap.search_batch(&[window])[0].len();
        let paged_hits = paged
            .search(&window)
            .map_err(|e| format!("paged search: {e}"))?
            .len();
        (served_hits, paged_hits)
    };
    index.shutdown();
    drop(pool);
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);

    let trace = tracer
        .last_completed()
        .ok_or("tracer recorded no completed trace")?;
    let problems = trace.check_well_formed();
    if !problems.is_empty() {
        return Err(format!("trace is malformed: {problems:?}"));
    }
    if served_hits != paged_hits {
        return Err(format!(
            "served ({served_hits}) and paged ({paged_hits}) disagree on the window"
        ));
    }

    // The acceptance shape: one trace covering every layer of the stack.
    for required in ["tree.search", "paged.search"] {
        if !trace.spans.iter().any(|s| s.name == required) {
            return Err(format!("trace is missing a \"{required}\" span"));
        }
    }
    if trace.profile.total_node_visits() == 0 {
        return Err("profile recorded no per-level node visits".into());
    }
    if trace.profile.dim(Dim::PageReads) == 0 || trace.profile.dim(Dim::BufferPoolMisses) == 0 {
        return Err("profile recorded no buffer-pool / page I/O".into());
    }
    Ok(trace)
}

/// Interleaved per-round wall times for the instrumented search path with
/// tracing inactive vs the monomorphized untraced kernel, over the same
/// tree and query batch (a, b, a, b, ... so clock noise hits both sides).
fn time_overhead_rounds(
    tree: &Tree<2>,
    queries: &[Rect<2>],
    rounds: usize,
) -> (Vec<u64>, Vec<u64>) {
    let mut cursor = SearchCursor::new();
    let (mut instrumented, mut baseline) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        let start = Instant::now();
        let mut found = 0usize;
        for q in queries {
            found += tree.search_with(&mut cursor, q).len();
        }
        black_box(found);
        instrumented.push(start.elapsed().as_nanos() as u64);

        let start = Instant::now();
        let mut found = 0usize;
        for q in queries {
            found += tree.bench_search_untraced(&mut cursor, q).len();
        }
        black_box(found);
        baseline.push(start.elapsed().as_nanos() as u64);
    }
    (instrumented, baseline)
}

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: trace_profile (no flags: it always runs its gate)");
        return ExitCode::from(2);
    }

    // ---- 1. The example trace ------------------------------------------
    let trace = match record_example_trace() {
        Ok(t) => t,
        Err(msg) => {
            eprintln!("trace_profile: example trace failed: {msg}");
            return ExitCode::FAILURE;
        }
    };
    // Page-I/O-heavy traces render thousands of leaf-read lines; keep the
    // console preview short — the full trace goes to the Chrome export.
    let rendered = trace.render_text_tree();
    let total_lines = rendered.lines().count();
    for line in rendered.lines().take(48) {
        println!("{line}");
    }
    if total_lines > 48 {
        println!("  … {} more lines (see Chrome export)", total_lines - 48);
    }
    let chrome = chrome_trace_json(std::slice::from_ref(&trace));
    if let Err(e) = json::parse(&chrome) {
        eprintln!("trace_profile: chrome export is not valid JSON: {e}");
        return ExitCode::FAILURE;
    }
    let trace_out = Path::new(TRACE_OUT);
    if let Some(dir) = trace_out.parent() {
        std::fs::create_dir_all(dir).expect("create trace output dir");
    }
    std::fs::write(trace_out, &chrome).expect("write chrome trace");
    println!("trace_profile: wrote {TRACE_OUT}");

    // ---- 2. Untraced overhead ------------------------------------------
    let dataset = DataDistribution::I3.generate(RECORDS, 11);
    let mut tree: Tree<2> = Tree::new(IndexConfig::srtree());
    for (rect, record) in &dataset.records {
        tree.insert(*rect, *record);
    }
    let mut rng = SplitMix64::new(23);
    let queries: Vec<Rect<2>> = (0..QUERIES)
        .map(|_| {
            let x = rng.next_f64() * DOMAIN_MAX * 0.9;
            let y = rng.next_f64() * DOMAIN_MAX * 0.9;
            let w = DOMAIN_MAX * (0.002 + rng.next_f64() * 0.05);
            let h = DOMAIN_MAX * (0.002 + rng.next_f64() * 0.05);
            Rect::new([x, y], [x + w, y + h])
        })
        .collect();
    // Warm-up round outside the measurement (first touch faults pages in).
    let (_, _) = time_overhead_rounds(&tree, &queries, 1);
    let (mut instrumented, mut baseline) = time_overhead_rounds(&tree, &queries, ROUNDS);
    let ratio = median_ratio(&instrumented, &baseline);
    let instrumented_nanos = median(&mut instrumented) / QUERIES as u64;
    let baseline_nanos = median(&mut baseline) / QUERIES as u64;
    println!(
        "untraced overhead over {} records, {} windows: instrumented {} ns/op, \
         baseline {} ns/op, median per-round ratio {:.4} ({:+.2}%)",
        RECORDS,
        QUERIES,
        instrumented_nanos,
        baseline_nanos,
        ratio,
        (ratio - 1.0) * 100.0
    );

    // ---- Acceptance gate -----------------------------------------------
    if ratio > OVERHEAD_GATE {
        eprintln!(
            "trace_profile: CHECK FAILED: untraced overhead ratio {:.4} exceeds the \
             {:.2} gate",
            ratio, OVERHEAD_GATE
        );
        return ExitCode::FAILURE;
    }
    println!(
        "trace_profile: checks passed (overhead ratio {:.4} <= {:.2}, trace \
         well-formed across {} spans)",
        ratio,
        OVERHEAD_GATE,
        trace.spans.len()
    );
    ExitCode::SUCCESS
}
