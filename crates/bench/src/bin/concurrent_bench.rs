//! Publish-cost gate for the index service. It times `tree.clone()` and
//! the drop of the clone on a 200 k-record tree, then serves that tree,
//! drives it with the 35 %-write mix of the `serve-mixed` benchmark, and
//! fails unless the mean publish phase of a group commit (snapshot clone,
//! swap, and drop of the replaced snapshot) stays within [`PUBLISH_GATE`]×
//! of the isolated figure: publishing costs the clone it cannot avoid, and
//! little else. Throughput is segbench's to measure (its `concurrent.*`
//! rows).
//!
//! Usage:
//!   concurrent_bench

use segidx_concurrent::{CommitTicket, ConcurrentIndex, IndexOp};
use segidx_core::tree::Tree;
use segidx_core::IndexConfig;
use segidx_geom::Point;
use segidx_workloads::{queries_for_qar, DataDistribution};
use std::collections::VecDeque;
use std::process::ExitCode;
use std::time::Instant;

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

/// The gate; see the module docs. Three rounds, the cheapest
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
    if std::env::args().len() > 1 {
        eprintln!("usage: concurrent_bench (no flags: it always runs its gate)");
        return ExitCode::from(2);
    }
    check_publish_cost()
}
