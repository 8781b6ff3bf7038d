//! Concurrent read/write throughput sweep for the index service: snapshot
//! readers and submitter threads hammer one `ConcurrentIndex` (single
//! group-commit writer) across a readers × submitters × max-batch grid,
//! and the sweep emits a hand-rolled `results/concurrent.json` in the same
//! style as `results/throughput.json`, plus a summary table.
//!
//! `--check` does not run the sweep. It times `tree.clone()` + drop of the
//! clone on a 200 k-record tree, then serves that tree, drives it with the
//! 35 %-write mix of the `serve-mixed` benchmark, and fails unless the mean
//! publish phase of a group commit (snapshot clone + swap + drop of the
//! replaced snapshot) stays within [`PUBLISH_GATE`]× of the isolated
//! figure: publishing costs the clone it cannot avoid, and little else.
//!
//! Usage:
//!   concurrent_bench [--millis N] [--records N] [--out FILE]
//!   concurrent_bench --check

use segidx_bench::{hardware_note, today};
use segidx_concurrent::{CommitTicket, ConcurrentIndex, IndexOp, SubmitError};
use segidx_core::tree::Tree;
use segidx_core::{IndexConfig, RecordId};
use segidx_geom::{Point, Rect};
use segidx_workloads::{queries_for_qar, DataDistribution};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    millis: u64,
    records: usize,
    out: PathBuf,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        millis: 400,
        records: 10_000,
        out: PathBuf::from("results/concurrent.json"),
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--millis" => args.millis = value("--millis")?.parse().map_err(|e| format!("{e}"))?,
            "--records" => {
                args.records = value("--records")?.parse().map_err(|e| format!("{e}"))?
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--check" => args.check = true,
            "--help" | "-h" => {
                return Err(
                    "usage: concurrent_bench [--millis N] [--records N] [--out FILE] | --check"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

struct Cell {
    readers: usize,
    submitters: usize,
    max_batch: usize,
    read_qps: u64,
    write_ops_per_sec: u64,
    commits_per_sec: u64,
    mean_commit_batch: f64,
    overloads: u64,
}

/// One grid cell: `readers` snapshot-read threads and `submitters`
/// mutation threads against a fresh index for `duration`.
fn run_cell(
    records: &[(Rect<2>, RecordId)],
    probes: &[Rect<2>],
    readers: usize,
    submitters: usize,
    max_batch: usize,
    duration: Duration,
) -> Cell {
    let mut seed = Tree::<2>::new(IndexConfig::srtree());
    for (r, id) in records {
        seed.insert(*r, *id);
    }
    let index = ConcurrentIndex::builder(seed)
        .queue_capacity(4 * max_batch.max(256))
        .max_batch(max_batch)
        .start()
        .expect("memory-only start cannot fail");

    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let writes = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for reader_id in 0..readers {
            let handle = index.handle();
            let stop = Arc::clone(&stop);
            let reads = Arc::clone(&reads);
            scope.spawn(move || {
                let mut local = 0u64;
                let mut it = reader_id;
                while !stop.load(Ordering::Relaxed) {
                    let snap = handle.snapshot();
                    std::hint::black_box(snap.search(&probes[it % probes.len()]));
                    it += 1;
                    local += 1;
                }
                reads.fetch_add(local, Ordering::Relaxed);
            });
        }
        for sub_id in 0..submitters {
            let handle = index.handle();
            let stop = Arc::clone(&stop);
            let writes = Arc::clone(&writes);
            let base = records.len() as u64 * (sub_id as u64 + 2);
            scope.spawn(move || {
                let mut local = 0u64;
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Insert a fresh record, then delete it two steps later,
                    // so the live set stays near the initial size.
                    let id = base + i;
                    let x = ((id * 37) % 5_000) as f64;
                    let rect = Rect::new([x, x * 0.5], [x + 30.0, x * 0.5 + 2.0]);
                    let op = if i % 3 == 2 {
                        IndexOp::Delete {
                            rect,
                            record: RecordId(id),
                        }
                    } else {
                        IndexOp::Insert {
                            rect,
                            record: RecordId(id),
                        }
                    };
                    match handle.submit(op) {
                        Ok(_) => {
                            local += 1;
                            i += 1;
                        }
                        Err(SubmitError::Overloaded { .. }) => std::thread::yield_now(),
                        Err(SubmitError::Closed) => break,
                    }
                }
                writes.fetch_add(local, Ordering::Relaxed);
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    index.flush().expect("memory-only flush cannot fail");

    let telemetry = index.telemetry();
    let commits = telemetry.commits();
    let applied = telemetry.ops_applied();
    let secs = duration.as_secs_f64();
    let cell = Cell {
        readers,
        submitters,
        max_batch,
        read_qps: (reads.load(Ordering::Relaxed) as f64 / secs) as u64,
        write_ops_per_sec: (writes.load(Ordering::Relaxed) as f64 / secs) as u64,
        commits_per_sec: (commits as f64 / secs) as u64,
        mean_commit_batch: if commits == 0 {
            0.0
        } else {
            applied as f64 / commits as f64
        },
        overloads: telemetry.overloads(),
    };
    index.shutdown();
    cell
}

/// Publish on a served 200 k-record tree may cost at most this many times
/// the isolated `clone()` + drop of that tree, measured in the same
/// process. Derived from measurement, not guessed: twenty-four runs on the
/// 2-vCPU reference box, ten of them alternating with the parent commit's
/// binary while another tenant loaded the machine and ten consecutive,
/// read 1.13–2.64× (median 1.41×, all but one at most 1.85×; isolated
/// 8.4–12.1 µs, publish 11.6–22.2 µs — the served figure carries the cold
/// chunk table and the free of what the commit copied). The gate sits
/// 1.5× above the worst of them. The ratio it replaces, publish at 200 k over publish at 20 k,
/// read 2.13–8.14× in the same alternation: its denominator is 1.9 µs on
/// a quiet box and 9.8 µs on a busy one.
///
/// What trips it is work added to the publish path itself — a second walk
/// of the tree, a scan, a convoy on the snapshot lock. A slower
/// `Tree::clone` moves both sides and is segbench's `concurrent.publish_ns`
/// to catch.
const PUBLISH_GATE: f64 = 4.0;

/// Records in the gated tree.
const CHECK_RECORDS: usize = 200_000;

/// Mean nanoseconds of `tree.clone()` plus the drop of the clone — what a
/// publish pays whatever else it does: one `Arc` bump, then one release,
/// per 16-slot chunk of the node table.
fn clone_drop_nanos(tree: &Tree<2>) -> f64 {
    const ROUNDS: u32 = 2_000;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        drop(std::hint::black_box(tree.clone()));
    }
    start.elapsed().as_nanos() as f64 / ROUNDS as f64
}

/// Builds a `CHECK_RECORDS`-record SR-Tree of `R2` rectangles and returns
/// its isolated [`clone_drop_nanos`] next to the mean `publish_nanos` per
/// group commit while one closed-loop client (32 writes in flight) drives
/// the served tree with `ops` operations of the `serve-mixed` mix: 40 %
/// search, 20 % stab, 5 % nearest, 20 % insert, 15 % delete-oldest.
fn isolated_and_served_publish_nanos(ops: usize) -> (f64, f64) {
    const MIX: &[u8; 20] = b"sipsdsipsdsinsdpsips";
    let dataset = DataDistribution::R2.generate(CHECK_RECORDS + ops, 7);
    let (mut oldest, mut fresh) = (0, CHECK_RECORDS);
    let mut tree = Tree::<2>::new(IndexConfig::srtree());
    for (r, id) in &dataset.records[..CHECK_RECORDS] {
        tree.insert(*r, *id);
    }
    let isolated = clone_drop_nanos(&tree);
    let index = ConcurrentIndex::builder(tree)
        .start()
        .expect("memory-only start cannot fail");
    let windows = queries_for_qar(1.0, 64, 3).queries;

    // Tickets of one commit share its phases: count each epoch once.
    let (mut commits, mut publish_nanos, mut last_epoch) = (0u64, 0u64, 0u64);
    let mut in_flight = VecDeque::new();
    let mut settle = |ticket: CommitTicket| {
        let receipt = ticket.wait().expect("memory-only commit cannot fail");
        if receipt.epoch != last_epoch {
            last_epoch = receipt.epoch;
            commits += 1;
            publish_nanos += ticket.phases().map_or(0, |p| p.publish_nanos);
        }
    };
    for i in 0..ops {
        let write = match MIX[i % MIX.len()] {
            b'i' => {
                let (rect, record) = dataset.records[fresh];
                fresh += 1;
                IndexOp::Insert { rect, record }
            }
            b'd' => {
                let (rect, record) = dataset.records[oldest];
                oldest += 1;
                IndexOp::Delete { rect, record }
            }
            read => {
                let window = &windows[i % windows.len()];
                let p = Point::new([window.lo(0), window.lo(1)]);
                let snap = index.snapshot();
                std::hint::black_box(match read {
                    b's' => snap.search(window).len(),
                    b'p' => snap.stab(&p).len(),
                    _ => snap.nearest(&p, 4).len(),
                });
                continue;
            }
        };
        in_flight.push_back(index.submit(write).expect("32 in flight fit the queue"));
        if in_flight.len() > 32 {
            settle(in_flight.pop_front().unwrap());
        }
    }
    in_flight.into_iter().for_each(&mut settle);
    index.shutdown();
    (isolated, publish_nanos as f64 / commits.max(1) as f64)
}

/// The `--check` gate; see the module docs. Three rounds, the cheapest
/// mean of each figure: on a shared box the scheduler only ever adds time.
fn check_publish_cost() -> ExitCode {
    let mut best = (f64::INFINITY, f64::INFINITY);
    for round in 1..=3 {
        let (isolated, publish) = isolated_and_served_publish_nanos(40_000);
        println!(
            "concurrent_bench: round {round}, {CHECK_RECORDS} records: clone + drop {:.1} us, \
             publish {:.1} us per commit",
            isolated / 1e3,
            publish / 1e3,
        );
        best = (best.0.min(isolated), best.1.min(publish));
    }
    let ratio = best.1 / best.0;
    println!(
        "concurrent_bench: isolated clone + drop {:.1} us, mean publish per commit {:.1} us \
         ({ratio:.2}x, gate {PUBLISH_GATE}x)",
        best.0 / 1e3,
        best.1 / 1e3,
    );
    if ratio > PUBLISH_GATE {
        eprintln!(
            "concurrent_bench: CHECK FAILED: publish costs {ratio:.2}x the clone it cannot avoid"
        );
        return ExitCode::FAILURE;
    }
    println!("concurrent_bench: check passed");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.check {
        return check_publish_cost();
    }
    let dataset = DataDistribution::I3.generate(args.records, 7);
    let probes: Vec<Rect<2>> = [0.01, 1.0, 500.0]
        .iter()
        .flat_map(|&q| queries_for_qar(q, 20, 3).queries)
        .collect();
    let duration = Duration::from_millis(args.millis);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("readers  submitters  max_batch  read_qps  write_ops/s  commits/s  mean_batch");
    let mut cells = Vec::new();
    for readers in [1usize, 2, 4] {
        for submitters in [1usize, 2] {
            for max_batch in [32usize, 256] {
                let cell = run_cell(
                    &dataset.records,
                    &probes,
                    readers,
                    submitters,
                    max_batch,
                    duration,
                );
                println!(
                    "{:>7}  {:>10}  {:>9}  {:>8}  {:>11}  {:>9}  {:>10.1}",
                    cell.readers,
                    cell.submitters,
                    cell.max_batch,
                    cell.read_qps,
                    cell.write_ops_per_sec,
                    cell.commits_per_sec,
                    cell.mean_commit_batch,
                );
                cells.push(cell);
            }
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"benchmark\": \"concurrent snapshot reads vs single-writer group commit\",\n",
    );
    json.push_str(&format!("  \"date\": \"{}\",\n", today()));
    json.push_str(
        "  \"method\": \"crates/bench/src/bin/concurrent_bench.rs; SRTree-backed \
         ConcurrentIndex over a 10k-record I3 dataset, 60 mixed-QAR probes; each cell runs \
         snapshot-read threads and submitter threads for a fixed wall-clock window\",\n",
    );
    json.push_str(&format!(
        "  \"hardware_note\": \"{}\",\n",
        hardware_note(
            cores,
            "with a single core, reader/submitter scaling interleaves on one CPU - absolute \
             numbers need multi-core hardware"
        )
    ));
    json.push_str(&format!("  \"n_records\": {},\n", args.records));
    json.push_str(&format!("  \"window_millis\": {},\n", args.millis));
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"readers\": {}, \"submitters\": {}, \"max_batch\": {}, \
             \"read_qps\": {}, \"write_ops_per_sec\": {}, \"commits_per_sec\": {}, \
             \"mean_commit_batch\": {:.1}, \"overloads\": {} }}{}\n",
            c.readers,
            c.submitters,
            c.max_batch,
            c.read_qps,
            c.write_ops_per_sec,
            c.commits_per_sec,
            c.mean_commit_batch,
            c.overloads,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(&args.out, json).expect("write results");
    println!("concurrent_bench: wrote {}", args.out.display());
    ExitCode::SUCCESS
}
