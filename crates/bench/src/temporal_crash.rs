//! The tiered temporal index as a subject of the power-cut driver
//! ([`crate::crash`]): cut an insert/delete/seal trace at every physical
//! write boundary and prove the recovered index holds exactly the last
//! committed tier set. The durability contract being pinned:
//!
//! * the **seal is the durability boundary** — a recovered index answers
//!   for every operation up to the last completed seal, and memtable
//!   contents past it are gone by design (never partially visible);
//! * a pure power cut anywhere inside a seal — including while it saves
//!   the merged tier it spliced in from the worker before the manifest
//!   flip — reopens cleanly on the *previous* tier set (freed extents are
//!   quarantined until the next durable commit, so the old manifest's
//!   pages are intact);
//! * a commit that reported success is never rolled back.
//!
//! A trace is a [`crate::crash::Op`] list whose [`Op::Checkpoint`] is a
//! seal; commit 1 is the empty manifest the index writes at creation.

use crate::crash::{
    check_probes, checkpoint_ends, power_cut_sweep, Op, SplitMix64, Subject, SweepOutcome,
    TraceConfig,
};
use segidx_core::RecordId;
use segidx_geom::Rect;
use segidx_storage::{DiskManager, RepairReport, StorageError};
use segidx_temporal::{TieredConfig, TieredTemporalIndex};
use std::path::Path;
use std::sync::Arc;

/// Tiered configuration for the sweep: explicit seals only (threshold out
/// of reach), aggressive fanout-2 merging so most seals also merge, no
/// tombstone-pressure compactions (they would add nondeterministic
/// commits to the epoch ladder).
fn sweep_config(cfg: &TraceConfig) -> TieredConfig {
    TieredConfig {
        seal_threshold: cfg.ops + 1,
        level_fanout: 2,
        tombstone_limit: usize::MAX,
    }
}

/// The deterministic trace for `seed`: interval inserts (end times mostly
/// short, occasionally spanning) with deletes mixed in and periodic seals.
/// Seals are only emitted with a non-empty memtable, so every seal is one
/// durable commit — the property the epoch ladder depends on.
pub fn temporal_trace(seed: u64, cfg: &TraceConfig) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed ^ 0x7E4D_0A17);
    let mut ops = Vec::new();
    let mut alive: Vec<(Rect<2>, RecordId)> = Vec::new();
    let mut next_record = 0u64;
    // Records currently in the (unsealed) memtable — a seal is only
    // emitted while this is non-empty, because an empty-memtable seal
    // skips its commit and would shift the epoch ladder.
    let mut memtable: Vec<RecordId> = Vec::new();
    for i in 0..cfg.ops {
        let delete = !alive.is_empty() && rng.next_f64() < cfg.delete_fraction;
        if delete {
            let victim = alive.swap_remove((rng.next_u64() as usize) % alive.len());
            memtable.retain(|r| *r != victim.1);
            ops.push(Op::Delete(victim.0, victim.1));
        } else {
            let start = rng.next_f64() * 4_000.0;
            let len = if rng.next_u64() & 7 == 0 {
                1_000.0
            } else {
                20.0 + rng.next_f64() * 60.0
            };
            let value = rng.next_f64() * 100.0;
            let rect = Rect::new([start, value], [start + len, value]);
            let record = RecordId(next_record);
            next_record += 1;
            alive.push((rect, record));
            memtable.push(record);
            ops.push(Op::Insert(rect, record));
        }
        if (i + 1) % cfg.checkpoint_every.max(1) == 0 && !memtable.is_empty() {
            ops.push(Op::Checkpoint);
            memtable.clear();
        }
    }
    if !memtable.is_empty() {
        ops.push(Op::Checkpoint);
    }
    ops
}

/// Probe rectangles over the temporal domain.
pub fn temporal_probes(seed: u64, count: usize) -> Vec<Rect<2>> {
    let mut rng = SplitMix64::new(seed ^ 0x5EA1_5EED);
    (0..count)
        .map(|_| {
            let t = rng.next_f64() * 5_000.0;
            let v = rng.next_f64() * 100.0;
            Rect::new(
                [t, v - 30.0],
                [t + 200.0 + rng.next_f64() * 800.0, v + 30.0],
            )
        })
        .collect()
}

struct Temporal {
    ops: Vec<Op>,
    probes: Vec<Rect<2>>,
    config: TieredConfig,
}

impl Subject for Temporal {
    fn run(&self, disk: DiskManager, commits_done: &mut usize) -> Result<(), StorageError> {
        let mut index = TieredTemporalIndex::<2>::create(self.config.clone(), Arc::new(disk))?;
        *commits_done = 1; // the empty manifest
        for op in &self.ops {
            match op {
                Op::Insert(rect, record) => index.insert(*rect, *record)?,
                Op::Delete(rect, record) => {
                    index.delete(rect, *record)?;
                }
                Op::Checkpoint => {
                    index.seal()?;
                    *commits_done += 1;
                }
            }
        }
        Ok(())
    }

    fn commit_prefixes(&self) -> Vec<usize> {
        std::iter::once(0)
            .chain(checkpoint_ends(&self.ops))
            .collect()
    }

    fn check_recovered(
        &self,
        disk: DiskManager,
        _report: &RepairReport,
        prefix: usize,
    ) -> Result<(), String> {
        let index = TieredTemporalIndex::<2>::open(self.config.clone(), Arc::new(disk))
            .map_err(|e| format!("open failed: {e}"))?;
        index.assert_invariants();
        check_probes(&self.probes, &self.ops[..prefix], |probe| {
            index.search(probe)
        })
    }
}

/// Power-cuts the temporal trace for `seed` at every write boundary and
/// checks the recovered index answers for exactly the last committed tier
/// set. `scratch` is a directory the sweep may fill with page files.
pub fn temporal_crash_sweep(seed: u64, scratch: &Path, cfg: &TraceConfig) -> SweepOutcome {
    let subject = Temporal {
        ops: temporal_trace(seed, cfg),
        probes: temporal_probes(seed, 16),
        config: sweep_config(cfg),
    };
    power_cut_sweep(&subject, seed, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("segidx-tcrash-{}-{name}", std::process::id()))
    }

    #[test]
    fn trace_is_deterministic_and_seals_are_nonempty() {
        let cfg = TraceConfig {
            ops: 48,
            checkpoint_every: 8,
            delete_fraction: 0.2,
        };
        let a = temporal_trace(5, &cfg);
        assert_eq!(a, temporal_trace(5, &cfg));
        assert_ne!(a, temporal_trace(6, &cfg));
        assert_eq!(a.last(), Some(&Op::Checkpoint));
        // Every seal finds a non-empty memtable (deletes can remove
        // memtable entries, so replay the occupancy exactly).
        let mut mem: Vec<RecordId> = Vec::new();
        for op in &a {
            match op {
                Op::Insert(_, r) => mem.push(*r),
                Op::Delete(_, r) => mem.retain(|m| m != r),
                Op::Checkpoint => {
                    assert!(!mem.is_empty(), "seal with empty memtable");
                    mem.clear();
                }
            }
        }
    }

    #[test]
    fn sweep_one_seed_clean() {
        let dir = scratch("sweep");
        let cfg = TraceConfig {
            ops: 24,
            checkpoint_every: 6,
            delete_fraction: 0.2,
        };
        let outcome = temporal_crash_sweep(3, &dir, &cfg);
        assert!(outcome.writes > 0);
        assert!(
            outcome.failures.is_empty(),
            "differential failures: {:#?}",
            outcome.failures
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
