//! Deterministic interleaving stress harness for the concurrent index
//! service (`segidx-concurrent`).
//!
//! Each seed fully determines a run: the initial load, the mutation
//! stream, the probe queries, and the writer's batching parameters all
//! come from [`SplitMix64`] streams keyed off
//! the seed. Thread scheduling is the only nondeterminism left — which is
//! exactly what the harness stresses — and correctness never depends on
//! it, because validation is *post hoc*:
//!
//! 1. readers continuously pin snapshots and record
//!    `(epoch, probe, result-set)` observations plus per-reader epoch
//!    monotonicity;
//! 2. every submitted operation keeps its `CommitTicket`, so after the run
//!    each operation maps to the epoch whose group commit published it;
//! 3. since the single writer commits operations in submission order, the
//!    tree at epoch *E* must equal the serial replay of the operation
//!    prefix committed at or before *E* — every observation is checked
//!    against a flat-list serial model of that prefix (differential
//!    testing, same model as [`crate::crash`]).
//!
//! A failure therefore means a real snapshot-isolation violation (a
//! reader saw a half-applied batch or a stale epoch after a newer one),
//! not a flaky schedule. All four paper variants are
//! exercised, since each has distinct node layouts and split/coalesce
//! machinery behind the same `Tree` type; each is built the way the
//! experiment harness builds it
//! ([`Construction::build`](crate::experiment::Construction::build)).

use crate::crash::SplitMix64;
use crate::experiment::Variant;
use segidx_concurrent::{CommitTicket, ConcurrentIndex, IndexOp, SubmitError};
use segidx_core::{RecordId, Tree};
use segidx_geom::Rect;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shape of one stress run (per seed, per variant).
#[derive(Debug, Clone, Copy)]
pub struct StressConfig {
    /// Records loaded before the index starts serving.
    pub initial: usize,
    /// Mutations submitted while readers run.
    pub ops: usize,
    /// Concurrent reader threads.
    pub readers: usize,
    /// Probability a mutation deletes a live record instead of inserting.
    pub delete_fraction: f64,
    /// Probe rectangles per run.
    pub probes: usize,
    /// Cap on recorded observations per reader (bounds memory; readers
    /// keep running past the cap, just without recording).
    pub max_observations: usize,
}

impl Default for StressConfig {
    fn default() -> Self {
        Self {
            initial: 400,
            ops: 700,
            readers: 3,
            delete_fraction: 0.3,
            probes: 12,
            max_observations: 2_000,
        }
    }
}

/// One detected violation.
#[derive(Debug, Clone)]
pub struct StressFailure {
    /// The run's seed.
    pub seed: u64,
    /// Which paper variant the index was built as.
    pub variant: &'static str,
    /// What went wrong.
    pub detail: String,
}

/// Outcome of one seed across every variant.
#[derive(Debug, Default)]
pub struct SeedOutcome {
    /// Reader observations validated against the serial model.
    pub observations: u64,
    /// Snapshot epochs published across the four runs.
    pub epochs: u64,
    /// Violations; empty means the seed passed.
    pub failures: Vec<StressFailure>,
}

fn gen_rect(rng: &mut SplitMix64) -> Rect<2> {
    let x = rng.next_f64() * 5_000.0;
    let y = rng.next_f64() * 5_000.0;
    // Mostly short intervals plus occasional long spanners, so segment
    // variants exercise cutting/spanning under concurrency.
    let len = if rng.next_u64() & 7 == 0 {
        1_500.0
    } else {
        40.0
    };
    Rect::new([x, y], [x + len, y + rng.next_f64() * 40.0])
}

/// The deterministic initial load for `seed`.
pub fn initial_records(seed: u64, count: usize) -> Vec<(Rect<2>, RecordId)> {
    let mut rng = SplitMix64::new(seed ^ 0x1217_EA5E);
    (0..count as u64)
        .map(|i| (gen_rect(&mut rng), RecordId(i)))
        .collect()
}

/// The deterministic mutation stream for `seed`: inserts of fresh records
/// and deletes of currently-live ones (including the initial load).
pub fn mutation_stream(
    seed: u64,
    cfg: &StressConfig,
    initial: &[(Rect<2>, RecordId)],
) -> Vec<IndexOp<2>> {
    let mut rng = SplitMix64::new(seed ^ 0x0D15_EA5E_0BAD_F00D);
    let mut alive: Vec<(Rect<2>, RecordId)> = initial.to_vec();
    let mut next_record = initial.len() as u64;
    let mut ops = Vec::with_capacity(cfg.ops);
    for _ in 0..cfg.ops {
        let delete = !alive.is_empty() && rng.next_f64() < cfg.delete_fraction;
        if delete {
            let victim = alive.swap_remove((rng.next_u64() as usize) % alive.len());
            ops.push(IndexOp::Delete {
                rect: victim.0,
                record: victim.1,
            });
        } else {
            let rect = gen_rect(&mut rng);
            let record = RecordId(next_record);
            next_record += 1;
            alive.push((rect, record));
            ops.push(IndexOp::Insert { rect, record });
        }
    }
    ops
}

/// Probe rectangles for `seed` (same domain as the record generator).
pub fn probe_rects(seed: u64, count: usize) -> Vec<Rect<2>> {
    let mut rng = SplitMix64::new(seed ^ 0x9B0E_5EED);
    (0..count)
        .map(|_| {
            let x = rng.next_f64() * 5_000.0;
            let y = rng.next_f64() * 5_000.0;
            let w = 50.0 + rng.next_f64() * 1_200.0;
            let h = 50.0 + rng.next_f64() * 1_200.0;
            Rect::new([x, y], [x + w, y + h])
        })
        .collect()
}

/// Builds one paper variant over `records`, sized for them over the
/// generator's domain; a skeleton is predicted from the first tenth.
fn build_variant(variant: Variant, records: &[(Rect<2>, RecordId)]) -> Tree<2> {
    let domain = Rect::new([0.0, 0.0], [7_000.0, 7_000.0]);
    let prefix = records.len() / 10 + 1;
    variant
        .construction()
        .build(variant.config(), domain, prefix, records)
}

/// One reader observation: at pinned epoch `epoch`, probe `probe` returned
/// `results`.
struct Observation {
    epoch: u64,
    probe: usize,
    results: BTreeSet<RecordId>,
}

/// Runs one seed against one paper variant; returns observations
/// validated plus any failures.
fn stress_variant(
    seed: u64,
    variant: Variant,
    cfg: &StressConfig,
) -> (u64, u64, Vec<StressFailure>) {
    let mut failures = Vec::new();
    let fail = |detail: String| StressFailure {
        seed,
        variant: variant.name(),
        detail,
    };

    let initial = initial_records(seed, cfg.initial);
    let ops = mutation_stream(seed, cfg, &initial);
    let probes = probe_rects(seed, cfg.probes);
    let tree = build_variant(variant, &initial);

    // Batching parameters vary with the seed so different seeds exercise
    // different commit groupings.
    let max_batch = 8 + (seed as usize % 5) * 24;
    let index = ConcurrentIndex::builder(tree)
        .queue_capacity(256)
        .max_batch(max_batch)
        .start()
        .expect("memory-only start cannot fail");

    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for reader_id in 0..cfg.readers {
        let handle = index.handle();
        let stop = Arc::clone(&stop);
        let probes = probes.clone();
        let max_obs = cfg.max_observations;
        readers.push(std::thread::spawn(move || {
            let mut observations: Vec<Observation> = Vec::new();
            let mut monotonicity_errors: Vec<String> = Vec::new();
            let mut last_epoch = 0u64;
            let mut it = reader_id; // stagger probe choice across readers
            while !stop.load(Ordering::Relaxed) {
                let snap = handle.snapshot();
                let epoch = snap.epoch();
                if epoch < last_epoch {
                    monotonicity_errors.push(format!(
                        "reader {reader_id}: epoch went backwards {last_epoch} -> {epoch}"
                    ));
                    break;
                }
                last_epoch = epoch;
                let probe = it % probes.len();
                it += 1;
                let results: BTreeSet<RecordId> = snap.search(&probes[probe]).into_iter().collect();
                // Periodically run full structural validation on the
                // pinned snapshot — a torn snapshot fails loudly here.
                if it % 97 == 0 {
                    let errs = snap.check_invariants();
                    if !errs.is_empty() {
                        monotonicity_errors.push(format!(
                            "reader {reader_id}: invariants at epoch {epoch}: {errs:?}"
                        ));
                        break;
                    }
                }
                if observations.len() < max_obs {
                    observations.push(Observation {
                        epoch,
                        probe,
                        results,
                    });
                }
            }
            (observations, monotonicity_errors)
        }));
    }

    // Submit the mutation stream (retrying on admission-control rejection)
    // while the readers hammer snapshots.
    let mut tickets: Vec<CommitTicket> = Vec::with_capacity(ops.len());
    for op in &ops {
        loop {
            match index.submit(*op) {
                Ok(t) => {
                    tickets.push(t);
                    break;
                }
                Err(SubmitError::Overloaded { .. }) => std::thread::yield_now(),
                Err(SubmitError::Closed) => panic!("writer died mid-stress"),
            }
        }
    }
    index.flush().expect("memory-only flush cannot fail");
    stop.store(true, Ordering::Relaxed);

    let mut observations: Vec<Observation> = Vec::new();
    for r in readers {
        let (obs, errs) = r.join().expect("reader thread");
        observations.extend(obs);
        failures.extend(errs.into_iter().map(&fail));
    }

    // Map each op to the epoch that committed it; commits happen in
    // submission order, so the epochs must be nondecreasing.
    let mut commit_epochs: Vec<u64> = Vec::with_capacity(tickets.len());
    for (i, t) in tickets.iter().enumerate() {
        match t.try_receipt() {
            Some(Ok(receipt)) => commit_epochs.push(receipt.epoch),
            other => failures.push(fail(format!("op {i}: ticket unresolved/failed: {other:?}"))),
        }
    }
    if commit_epochs.windows(2).any(|w| w[0] > w[1]) {
        failures.push(fail(
            "commit epochs decreased across submission order".into(),
        ));
    }
    let published_epochs = index.epoch();

    // Differential validation: sort observations by epoch and advance a
    // flat-list serial model through the committed prefix as the epoch
    // rises. `alive` is the model of truth — independent of any tree code.
    observations.sort_by_key(|o| o.epoch);
    let mut alive: Vec<(Rect<2>, RecordId)> = initial.clone();
    let mut next_op = 0usize;
    let mut checked = 0u64;
    for obs in &observations {
        while next_op < ops.len() && commit_epochs[next_op] <= obs.epoch {
            match ops[next_op] {
                IndexOp::Insert { rect, record } => alive.push((rect, record)),
                IndexOp::Delete { record, .. } => alive.retain(|(_, r)| *r != record),
            }
            next_op += 1;
        }
        let expect: BTreeSet<RecordId> = alive
            .iter()
            .filter(|(rect, _)| rect.intersects(&probes[obs.probe]))
            .map(|(_, r)| *r)
            .collect();
        if obs.results != expect {
            let missing = expect.difference(&obs.results).count();
            let phantom = obs.results.difference(&expect).count();
            failures.push(fail(format!(
                "epoch {} probe {}: snapshot not prefix-consistent \
                 ({missing} missing, {phantom} phantom of {} expected)",
                obs.epoch,
                obs.probe,
                expect.len()
            )));
            if failures.len() > 8 {
                break; // one broken run floods; keep reports readable
            }
        }
        checked += 1;
    }

    // Final state must equal the full serial model.
    while next_op < ops.len() {
        match ops[next_op] {
            IndexOp::Insert { rect, record } => alive.push((rect, record)),
            IndexOp::Delete { record, .. } => alive.retain(|(_, r)| *r != record),
        }
        next_op += 1;
    }
    let snap = index.snapshot();
    let whole = Rect::new([0.0, 0.0], [7_000.0, 7_000.0]);
    let got: BTreeSet<RecordId> = snap.search(&whole).into_iter().collect();
    let expect: BTreeSet<RecordId> = alive.iter().map(|(_, r)| *r).collect();
    if got != expect {
        failures.push(fail(format!(
            "final snapshot diverged from serial model ({} vs {} records)",
            got.len(),
            expect.len()
        )));
    }
    let errs = snap.check_invariants();
    if !errs.is_empty() {
        failures.push(fail(format!("final snapshot invariants: {errs:?}")));
    }
    drop(snap);
    index.shutdown();
    (checked, published_epochs, failures)
}

/// Runs one seed across the four paper variants.
pub fn stress_seed(seed: u64, cfg: &StressConfig) -> SeedOutcome {
    let mut outcome = SeedOutcome::default();
    for variant in Variant::ALL {
        let (checked, epochs, failures) = stress_variant(seed, variant, cfg);
        outcome.observations += checked;
        outcome.epochs += epochs;
        outcome.failures.extend(failures);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let cfg = StressConfig::default();
        let a = initial_records(7, 100);
        let b = initial_records(7, 100);
        assert_eq!(a, b);
        assert_eq!(mutation_stream(7, &cfg, &a), mutation_stream(7, &cfg, &b));
        assert_ne!(mutation_stream(7, &cfg, &a), mutation_stream(8, &cfg, &a));
    }

    #[test]
    fn stress_one_seed_all_variants() {
        let cfg = StressConfig {
            initial: 150,
            ops: 250,
            readers: 2,
            ..StressConfig::default()
        };
        let outcome = stress_seed(3, &cfg);
        assert!(
            outcome.failures.is_empty(),
            "violations: {:?}",
            outcome.failures
        );
        assert!(outcome.observations > 0, "readers must observe something");
        assert!(outcome.epochs >= 5, "each variant publishes epochs");
    }
}
