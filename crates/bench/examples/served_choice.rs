//! Which split the served SR-Tree uses: Guttman's quadratic split (the
//! paper's) against the R\* split, on `serve-mixed`'s shape.
//!
//! Each configuration preloads R2 records (200 000 by default), then runs
//! the served spatial mix — 40 % window search (QAR 0.01, 1 and 100 at the
//! paper's query area), 20 % stab and 5 % 4-nearest at the centre of a
//! preloaded record, 20 % insert of a fresh R2 record, 15 % delete of a
//! random live one — and clones a snapshot every 8 writes, as a published
//! epoch does. Node accesses are exact; times are wall clock on one thread.
//!
//! ```text
//! cargo run --release -p segidx-bench --example served_choice -- [records] [steps] [seed]
//! ```

use segidx_core::{IndexConfig, RecordId, SplitAlgorithm, Tree};
use segidx_geom::{Point, Rect};
use segidx_workloads::{queries_for_qar, DataDistribution};
use std::time::{Duration, Instant};

/// Writes between two snapshot clones.
const WRITES_PER_SNAPSHOT: u64 = 8;

/// splitmix64: a seeded stream with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Operations of one kind: how many, how long, and the nodes they read.
#[derive(Default)]
struct Tally {
    ops: u64,
    time: Duration,
    accesses: u64,
}

impl Tally {
    fn ns(&self) -> f64 {
        self.time.as_nanos() as f64 / self.ops.max(1) as f64
    }

    fn per_op(&self) -> f64 {
        self.accesses as f64 / self.ops.max(1) as f64
    }
}

/// One configuration's run.
struct Row {
    name: &'static str,
    build_ms: f64,
    search: Tally,
    stab: Tally,
    nearest: Tally,
    insert: Tally,
    delete: Tally,
}

struct Workload {
    preload: Vec<(Rect<2>, RecordId)>,
    fresh: Vec<Rect<2>>,
    windows: Vec<Rect<2>>,
    centres: Vec<Point<2>>,
    steps: usize,
    seed: u64,
}

fn run(name: &'static str, config: IndexConfig, w: &Workload) -> Row {
    let mut tree = Tree::new(config);
    let t0 = Instant::now();
    for (rect, id) in &w.preload {
        tree.insert(*rect, *id);
    }
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut row = Row {
        name,
        build_ms,
        search: Tally::default(),
        stab: Tally::default(),
        nearest: Tally::default(),
        insert: Tally::default(),
        delete: Tally::default(),
    };
    let mut rng = Rng(w.seed);
    let mut live = w.preload.clone();
    let mut next_id = 1u64 << 40;
    let (mut next_window, mut next_fresh, mut writes) = (0, 0, 0u64);
    let mut snapshot = tree.clone();
    for _ in 0..w.steps {
        let roll = rng.next() % 100;
        let before = tree.stats();
        let t = Instant::now();
        let tally = if roll < 40 {
            std::hint::black_box(tree.search(&w.windows[next_window]));
            next_window = (next_window + 1) % w.windows.len();
            &mut row.search
        } else if roll < 60 {
            std::hint::black_box(tree.stab(&w.centres[rng.below(w.centres.len())]));
            &mut row.stab
        } else if roll < 65 {
            std::hint::black_box(tree.nearest(&w.centres[rng.below(w.centres.len())], 4));
            &mut row.nearest
        } else if roll < 85 {
            let rect = w.fresh[next_fresh % w.fresh.len()];
            next_fresh += 1;
            next_id += 1;
            tree.insert(rect, RecordId(next_id));
            live.push((rect, RecordId(next_id)));
            &mut row.insert
        } else {
            let (rect, id) = live.swap_remove(rng.below(live.len()));
            assert!(tree.delete(&rect, id), "{id:?} indexed");
            &mut row.delete
        };
        tally.time += t.elapsed();
        tally.ops += 1;
        let diff = tree.stats().diff(&before);
        tally.accesses += diff.search_node_accesses + diff.maintenance_node_accesses;
        if roll >= 65 {
            writes += 1;
            if writes % WRITES_PER_SNAPSHOT == 0 {
                snapshot = tree.clone();
            }
        }
    }
    drop(snapshot);
    let issues = tree.check_invariants();
    assert!(issues.is_empty(), "{name}: {issues:?}");
    row
}

fn main() {
    let args: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("arguments: [records] [steps] [seed]"))
        .collect();
    let records = args.first().copied().unwrap_or(200_000) as usize;
    let steps = args.get(1).copied().unwrap_or(100_000) as usize;
    let seed = args.get(2).copied().unwrap_or(1);

    let preload = DataDistribution::R2.generate(records, seed).records;
    let fresh = DataDistribution::R2
        .generate(records, seed ^ 0x5eed)
        .records
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    let windows = [0.01, 1.0, 100.0]
        .iter()
        .flat_map(|&qar| queries_for_qar(qar, 100, seed).queries)
        .collect();
    let centres = preload.iter().map(|(r, _)| r.center()).collect();
    let w = Workload {
        preload,
        fresh,
        windows,
        centres,
        steps,
        seed,
    };

    let configs = [
        ("quadratic (paper)", IndexConfig::srtree()),
        (
            "R* split (served)",
            IndexConfig {
                split: SplitAlgorithm::RStar,
                ..IndexConfig::srtree()
            },
        ),
    ];
    println!("R2, {records} records preloaded, {steps} steps of the served mix, seed {seed}");
    println!(
        "| SR-Tree split | window nodes | stab nodes | search ns | stab ns | nearest ns \
         | insert ns | delete ns | nodes per delete | build ms |"
    );
    println!("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
    for (name, config) in configs {
        let r = run(name, config, &w);
        println!(
            "| {} | {:.1} | {:.1} | {:.0} | {:.0} | {:.0} | {:.0} | {:.0} | {:.1} | {:.0} |",
            r.name,
            r.search.per_op(),
            r.stab.per_op(),
            r.search.ns(),
            r.stab.ns(),
            r.nearest.ns(),
            r.insert.ns(),
            r.delete.ns(),
            r.delete.per_op(),
            r.build_ms,
        );
    }
}
