//! Epoch ↔ durability mapping: every published epoch of a durable
//! [`ConcurrentIndex`] is a checkpoint, and power-cutting the commit
//! stream at any point recovers exactly the snapshot of the last durably
//! committed epoch — never a partial batch, never a lost published epoch.

use segidx_concurrent::{CommitError, ConcurrentIndex, IndexOp, SubmitError};
use segidx_core::tree::Tree;
use segidx_core::{persist, IndexConfig, RecordId};
use segidx_geom::Rect;
use segidx_storage::{DiskManager, DiskManagerConfig, ScriptedFault};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "segidx-concurrent-dur-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn whole() -> Rect<2> {
    Rect::new([0.0, 0.0], [100_000.0, 100_000.0])
}

fn rect(i: u64) -> Rect<2> {
    let x = ((i * 37) % 5_000) as f64;
    let y = ((i * 113) % 5_000) as f64;
    let len = if i % 9 == 0 { 1_500.0 } else { 30.0 };
    Rect::new([x, y], [x + len, y + 1.0])
}

/// The deterministic operation stream every test run replays: batches of
/// inserts with interleaved deletes of earlier records.
fn op_stream() -> Vec<Vec<IndexOp<2>>> {
    let mut batches = Vec::new();
    let mut next = 0u64;
    for round in 0..12u64 {
        let mut batch = Vec::new();
        for _ in 0..40 {
            batch.push(IndexOp::Insert {
                rect: rect(next),
                record: RecordId(next),
            });
            next += 1;
        }
        // From round 3 on, also delete the oldest surviving records.
        if round >= 3 {
            for k in 0..10u64 {
                let victim = (round - 3) * 10 + k;
                batch.push(IndexOp::Delete {
                    rect: rect(victim),
                    record: RecordId(victim),
                });
            }
        }
        batches.push(batch);
    }
    batches
}

/// Replays the stream against `index`, flushing after every batch and
/// keeping one [`CommitTicket`] per submitted operation — the ground truth
/// for which prefix of the stream durably committed.
struct StreamResult {
    /// `(durable_epoch, visible records)` after each successful flush.
    checkpoints: Vec<(u64, BTreeSet<RecordId>)>,
    /// Every accepted operation with its commit ticket, submission order.
    tickets: Vec<(IndexOp<2>, segidx_concurrent::CommitTicket)>,
    failed: bool,
}

impl StreamResult {
    /// The record set of the last durably committed epoch: a serial replay
    /// of exactly the operations whose tickets resolved `Ok`. Asserts the
    /// committed operations form a prefix of the submission order (group
    /// commits never skip or reorder).
    fn committed_prefix_records(&self) -> BTreeSet<RecordId> {
        let mut tree: Tree<2> = Tree::new(IndexConfig::srtree());
        let mut seen_failure = false;
        for (op, ticket) in &self.tickets {
            match ticket.try_receipt() {
                Some(Ok(_)) => {
                    assert!(!seen_failure, "committed ops must form a prefix");
                    match *op {
                        IndexOp::Insert { rect, record } => tree.insert(rect, record),
                        IndexOp::Delete { rect, record } => {
                            tree.delete(&rect, record);
                        }
                    }
                }
                _ => seen_failure = true,
            }
        }
        tree.search(&whole()).into_iter().collect()
    }
}

fn run_stream(index: &ConcurrentIndex<2>) -> StreamResult {
    let mut checkpoints = Vec::new();
    let mut tickets = Vec::new();
    for batch in op_stream() {
        let mut aborted = false;
        'ops: for op in &batch {
            loop {
                match index.submit(*op) {
                    Ok(ticket) => {
                        tickets.push((*op, ticket));
                        break;
                    }
                    Err(SubmitError::Closed) => {
                        aborted = true;
                        break 'ops;
                    }
                    Err(SubmitError::Overloaded { .. }) => std::thread::yield_now(),
                }
            }
        }
        if aborted {
            return StreamResult {
                checkpoints,
                tickets,
                failed: true,
            };
        }
        match index.flush() {
            Ok(receipt) => {
                let snap = index.snapshot();
                assert_eq!(
                    snap.durable_epoch(),
                    receipt.durable_epoch,
                    "published snapshot carries its checkpoint's durable epoch"
                );
                checkpoints.push((
                    receipt.durable_epoch.expect("durable index"),
                    snap.search(&whole()).into_iter().collect(),
                ));
            }
            Err(CommitError::Storage(_)) | Err(CommitError::WriterExited) => {
                return StreamResult {
                    checkpoints,
                    tickets,
                    failed: true,
                };
            }
        }
    }
    StreamResult {
        checkpoints,
        tickets,
        failed: false,
    }
}

#[test]
fn graceful_shutdown_reopens_on_final_epoch() {
    let path = temp("graceful.db");
    let disk = Arc::new(DiskManager::create(&path).unwrap());
    let index = ConcurrentIndex::builder(Tree::<2>::new(IndexConfig::srtree()))
        .durable(Arc::clone(&disk))
        .start()
        .unwrap();

    let result = run_stream(&index);
    assert!(!result.failed);
    // Durable epochs strictly increase: one checkpoint per published epoch.
    for pair in result.checkpoints.windows(2) {
        assert!(pair[0].0 < pair[1].0, "durable epochs strictly increase");
    }
    let (_, ref final_set) = *result.checkpoints.last().unwrap();
    index.shutdown();
    drop(disk);

    let disk = DiskManager::open(&path).unwrap();
    let back: Tree<2> = persist::load(&disk, disk.root().unwrap()).unwrap();
    back.assert_invariants();
    let got: BTreeSet<RecordId> = back.search(&whole()).into_iter().collect();
    assert_eq!(&got, final_set, "clean reopen lands on the final epoch");
}

#[test]
fn power_cut_recovers_exactly_last_durable_epoch() {
    // Pass 1: count the writes a fault-free run issues, so cut points can
    // be placed throughout the commit stream.
    let observer = Arc::new(ScriptedFault::observer());
    let baseline_path = temp("observe.db");
    let cfg = DiskManagerConfig {
        fault_injector: Some(observer.clone() as Arc<_>),
    };
    let disk = Arc::new(DiskManager::create_with(&baseline_path, cfg).unwrap());
    let index = ConcurrentIndex::builder(Tree::<2>::new(IndexConfig::srtree()))
        .durable(Arc::clone(&disk))
        .start()
        .unwrap();
    let setup_writes = observer.writes_seen();
    let result = run_stream(&index);
    assert!(!result.failed, "observer pass must not fail");
    index.shutdown();
    let total_writes = observer.writes_seen();
    assert!(total_writes > setup_writes + 16, "stream does real I/O");

    // Pass 2: replay the identical stream under a power cut at several
    // points in (setup, total); each run must recover exactly the record
    // set of its last durably committed epoch.
    let span = total_writes - setup_writes;
    let mut cut_failures = 0usize;
    for frac in [1u64, 3, 5, 7, 9] {
        let cut_at = setup_writes + 1 + span * frac / 10;
        let path = temp(&format!("cut-{frac}.db"));
        let cfg = DiskManagerConfig {
            fault_injector: Some(Arc::new(ScriptedFault::power_cut(cut_at, Some(64))) as Arc<_>),
        };
        let disk = Arc::new(DiskManager::create_with(&path, cfg).unwrap());
        let index = ConcurrentIndex::builder(Tree::<2>::new(IndexConfig::srtree()))
            .durable(Arc::clone(&disk))
            .start()
            .unwrap();
        let result = run_stream(&index);
        index.shutdown();
        drop(disk);
        if result.failed {
            cut_failures += 1;
        }

        // The committed prefix of the op stream (per per-op tickets) IS the
        // last durable epoch's snapshot — the writer may have durably
        // committed a partial round before the cut landed.
        let expected = result.committed_prefix_records();

        let (disk, report) =
            DiskManager::open_repair(&path, DiskManagerConfig::default(), None).unwrap();
        assert!(report.is_clean(), "a pure power cut corrupts nothing");
        let (tree, rr) = persist::recover::<2>(&disk, &report, None).unwrap();
        assert!(!rr.rebuilt, "committed checkpoint survives the cut whole");
        tree.assert_invariants();
        let got: BTreeSet<RecordId> = tree.search(&whole()).into_iter().collect();
        assert_eq!(
            got, expected,
            "cut at write {cut_at}: recovery == last durable epoch, exactly"
        );
    }
    assert!(
        cut_failures >= 3,
        "most cut points must land mid-stream ({cut_failures}/5 tripped)"
    );
}

#[test]
fn failed_commit_is_invisible_and_typed() {
    // Cut inside the very first group commit: the stream's epoch-1 batch
    // must fail with a typed storage error, stay unpublished, and leave
    // the recoverable state at epoch 0 (the initial checkpoint).
    let path = temp("firstfail.db");
    let cfg = DiskManagerConfig {
        // The initial empty-tree checkpoint takes a handful of writes;
        // cut shortly after it.
        fault_injector: Some(Arc::new(ScriptedFault::power_cut(6, Some(64))) as Arc<_>),
    };
    let disk = Arc::new(DiskManager::create_with(&path, cfg).unwrap());
    let index = match ConcurrentIndex::builder(Tree::<2>::new(IndexConfig::rtree()))
        .durable(Arc::clone(&disk))
        .start()
    {
        Ok(index) => index,
        // The cut may already hit the initial checkpoint — equally fine,
        // and reported as a storage error at construction.
        Err(_) => return,
    };
    let epoch0 = index.snapshot().epoch();
    let ticket = index
        .submit(IndexOp::Insert {
            rect: rect(1),
            record: RecordId(1),
        })
        .unwrap();
    match ticket.wait() {
        Err(CommitError::Storage(msg)) => assert!(!msg.is_empty()),
        other => panic!("expected storage failure, got {other:?}"),
    }
    // Published state never moved past the durable epoch …
    let snap = index.snapshot();
    assert_eq!(snap.epoch(), epoch0);
    assert_eq!(snap.len(), 0);
    // … and the writer refuses further work.
    assert!(matches!(
        index.submit(IndexOp::Insert {
            rect: rect(2),
            record: RecordId(2),
        }),
        Err(SubmitError::Closed)
    ));
}
