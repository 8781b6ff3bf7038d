//! Crash-sweep harness for the tiered temporal index: power-cut an
//! insert/delete/seal trace at every physical write boundary and prove the
//! recovered index holds exactly the last committed tier set.
//!
//! The structure mirrors [`crate::crash`]: a dry run with an observing
//! [`ScriptedFault`] learns the total write count and the disk epoch
//! reached after each commit; determinism makes every faulted run a
//! byte-prefix of the dry run, so the epoch found on reopen identifies
//! precisely which seal survived. The durability contract being pinned:
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

use crate::crash::{SplitMix64, SweepFailure};
use segidx_core::RecordId;
use segidx_geom::Rect;
use segidx_storage::{DiskManager, DiskManagerConfig, FaultInjector, ScriptedFault, StorageError};
use segidx_temporal::{TieredConfig, TieredTemporalIndex};
use std::path::Path;
use std::sync::Arc;

/// One step of a temporal crash trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TOp {
    /// Insert an interval (a temporal version rectangle).
    Insert(Rect<2>, RecordId),
    /// Delete a live entry (memtable removal or tombstone).
    Delete(Rect<2>, RecordId),
    /// Seal the memtable into a tier and commit (the durability boundary).
    Seal,
}

/// Shape of a generated temporal trace.
#[derive(Debug, Clone, Copy)]
pub struct TemporalTraceConfig {
    /// Total insert/delete operations.
    pub ops: usize,
    /// A seal is emitted every this many operations (and once at the end).
    pub seal_every: usize,
    /// Probability an op deletes a live record instead of inserting.
    pub delete_fraction: f64,
}

impl Default for TemporalTraceConfig {
    fn default() -> Self {
        Self {
            ops: 48,
            seal_every: 8,
            delete_fraction: 0.2,
        }
    }
}

/// Tiered configuration for the sweep: explicit seals only (threshold out
/// of reach), aggressive fanout-2 merging so most seals also merge, no
/// tombstone-pressure compactions (they would add nondeterministic
/// commits to the epoch ladder).
fn sweep_config(cfg: &TemporalTraceConfig) -> TieredConfig {
    TieredConfig {
        seal_threshold: cfg.ops + 1,
        level_fanout: 2,
        tombstone_limit: usize::MAX,
        ..TieredConfig::default()
    }
}

/// The deterministic trace for `seed`: interval inserts (end times mostly
/// short, occasionally spanning) with deletes mixed in and periodic seals.
/// Seals are only emitted with a non-empty memtable, so every seal is one
/// durable commit — the property the epoch ladder depends on.
pub fn temporal_trace(seed: u64, cfg: &TemporalTraceConfig) -> Vec<TOp> {
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
            ops.push(TOp::Delete(victim.0, victim.1));
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
            ops.push(TOp::Insert(rect, record));
        }
        if (i + 1) % cfg.seal_every.max(1) == 0 && !memtable.is_empty() {
            ops.push(TOp::Seal);
            memtable.clear();
        }
    }
    if !memtable.is_empty() {
        ops.push(TOp::Seal);
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

/// Live entries after replaying the prefix up to (and including) the k-th
/// seal, then the records among them intersecting `query`. Post-seal
/// memtable operations are intentionally excluded: the seal is the
/// durability boundary.
pub fn temporal_model(ops_prefix: &[TOp], query: &Rect<2>) -> Vec<RecordId> {
    let mut alive: Vec<(Rect<2>, RecordId)> = Vec::new();
    for op in ops_prefix {
        match op {
            TOp::Insert(rect, record) => alive.push((*rect, *record)),
            TOp::Delete(_, record) => alive.retain(|(_, r)| r != record),
            TOp::Seal => {}
        }
    }
    let mut out: Vec<RecordId> = alive
        .iter()
        .filter(|(rect, _)| rect.intersects(query))
        .map(|(_, r)| *r)
        .collect();
    out.sort_unstable();
    out
}

/// How a faulted trace run ended.
#[derive(Debug)]
struct TemporalRun {
    /// Durable commits completed: the create-time empty manifest plus one
    /// per successful seal.
    commits_done: usize,
    error: Option<StorageError>,
}

fn run_temporal_trace(
    path: &Path,
    injector: Option<Arc<dyn FaultInjector>>,
    config: TieredConfig,
    ops: &[TOp],
) -> TemporalRun {
    let disk_config = DiskManagerConfig {
        fault_injector: injector,
        ..DiskManagerConfig::default()
    };
    let disk = match DiskManager::create_with(path, disk_config) {
        Ok(d) => Arc::new(d),
        Err(e) => {
            return TemporalRun {
                commits_done: 0,
                error: Some(e),
            }
        }
    };
    let mut index = match TieredTemporalIndex::<2>::create(config, disk) {
        Ok(i) => i,
        Err(e) => {
            return TemporalRun {
                commits_done: 0,
                error: Some(e),
            }
        }
    };
    let mut commits_done = 1; // the empty manifest
    for op in ops {
        let result = match op {
            TOp::Insert(rect, record) => index.insert(*rect, *record),
            TOp::Delete(rect, record) => index.delete(rect, *record).map(|_| ()),
            TOp::Seal => {
                let r = index.seal();
                if r.is_ok() {
                    commits_done += 1;
                }
                r
            }
        };
        if let Err(e) = result {
            return TemporalRun {
                commits_done,
                error: Some(e),
            };
        }
    }
    TemporalRun {
        commits_done,
        error: None,
    }
}

/// Result of sweeping one seed through the tiered index.
#[derive(Debug)]
pub struct TemporalSweepOutcome {
    /// Total physical writes in the uncut run (cuts `0..=writes` tested).
    pub writes: u64,
    /// Differential failures; empty means the seed passed.
    pub failures: Vec<SweepFailure>,
}

/// Power-cuts the temporal trace for `seed` at every write boundary and
/// checks the recovered index answers for exactly the last committed tier
/// set. `scratch` is a directory the sweep may fill with page files.
pub fn temporal_crash_sweep(
    seed: u64,
    scratch: &Path,
    cfg: &TemporalTraceConfig,
) -> TemporalSweepOutcome {
    let ops = temporal_trace(seed, cfg);
    let probe_set = temporal_probes(seed, 16);
    let config = sweep_config(cfg);
    std::fs::create_dir_all(scratch).expect("scratch dir");

    // Dry run: learn the write count and the epoch ladder.
    let observer = Arc::new(ScriptedFault::observer());
    let dry_path = scratch.join(format!("tdry-{seed:016x}.db"));
    let outcome = run_temporal_trace(
        &dry_path,
        Some(observer.clone() as Arc<_>),
        config.clone(),
        &ops,
    );
    assert!(
        outcome.error.is_none(),
        "dry run must not fail: {:?}",
        outcome.error
    );
    let writes = observer.writes_seen();
    let total_commits = outcome.commits_done;
    let (base_epoch, commit_epochs) = {
        let disk = DiskManager::open(&dry_path).expect("reopen dry run");
        let final_epoch = disk.epoch();
        // Each commit syncs exactly once, so epochs count back
        // deterministically from the final one.
        let base = final_epoch - total_commits as u64;
        let epochs: Vec<u64> = (1..=total_commits as u64).map(|k| base + k).collect();
        (base, epochs)
    };
    // Op index (exclusive) covered by the k-th commit. Commit 1 is the
    // create-time empty manifest (prefix 0); commit k+1 is the k-th seal.
    let mut commit_prefix: Vec<usize> = vec![0];
    commit_prefix.extend(
        ops.iter()
            .enumerate()
            .filter(|(_, o)| matches!(o, TOp::Seal))
            .map(|(i, _)| i + 1),
    );
    assert_eq!(
        commit_prefix.len(),
        total_commits,
        "every seal commits once"
    );
    remove_db(&dry_path);

    let mut failures = Vec::new();
    let mut cut_rng = SplitMix64::new(seed ^ 0x00C0_FFEE);
    for cut in 0..=writes {
        let torn = if cut_rng.next_u64() & 1 == 0 {
            Some((cut_rng.next_u64() % 4096) as usize)
        } else {
            None
        };
        let path = scratch.join(format!("tcut-{seed:016x}-{cut}.db"));
        if let Err(detail) = check_one_cut(
            &path,
            &ops,
            &probe_set,
            config.clone(),
            cut,
            torn,
            base_epoch,
            &commit_epochs,
            &commit_prefix,
        ) {
            failures.push(SweepFailure {
                seed,
                cut_at: cut,
                detail,
            });
        }
        remove_db(&path);
    }
    TemporalSweepOutcome { writes, failures }
}

#[allow(clippy::too_many_arguments)]
fn check_one_cut(
    path: &Path,
    ops: &[TOp],
    probe_set: &[Rect<2>],
    config: TieredConfig,
    cut: u64,
    torn: Option<usize>,
    base_epoch: u64,
    commit_epochs: &[u64],
    commit_prefix: &[usize],
) -> Result<(), String> {
    let fault = Arc::new(ScriptedFault::power_cut(cut, torn));
    let outcome = run_temporal_trace(path, Some(fault.clone() as Arc<_>), config.clone(), ops);
    match &outcome.error {
        None => {}
        Some(e) if e.is_injected() => {}
        Some(e) => return Err(format!("non-injected error during faulted run: {e}")),
    }

    let (disk, report) = match DiskManager::open_repair(path, DiskManagerConfig::default(), None) {
        Ok(v) => v,
        Err(e) => {
            // Only acceptable before the very first meta commit is durable.
            return if outcome.commits_done == 0
                && (e.is_corruption() || matches!(e, StorageError::Io(_)))
            {
                Ok(())
            } else {
                Err(format!("reopen failed after cut {cut}: {e}"))
            };
        }
    };
    if !report.is_clean() {
        return Err(format!(
            "pure power cut surfaced as corruption: {:?}",
            report.quarantined
        ));
    }

    let epoch = disk.epoch();
    let k = match commit_epochs.iter().position(|&e| e == epoch) {
        Some(i) => i + 1,
        None if epoch == base_epoch => 0,
        None => return Err(format!("epoch {epoch} matches no commit")),
    };
    if k < outcome.commits_done {
        return Err(format!(
            "seal {} reported success but reopened at commit {k}",
            outcome.commits_done
        ));
    }
    if k == 0 {
        // Not even the empty manifest made it; there is no database state.
        return match disk.root() {
            None => Ok(()),
            Some(r) => Err(format!("no commit durable yet root = {r:?}")),
        };
    }
    let index = TieredTemporalIndex::<2>::open(config, Arc::new(disk))
        .map_err(|e| format!("open failed at commit {k}: {e}"))?;
    index.assert_invariants();
    let prefix = &ops[..commit_prefix[k - 1]];
    for probe in probe_set {
        let expected = temporal_model(prefix, probe);
        let got = index.search(probe);
        if got != expected {
            return Err(format!(
                "probe {probe:?} after commit {k}: expected {expected:?}, got {got:?}"
            ));
        }
    }
    Ok(())
}

fn remove_db(path: &Path) {
    let _ = std::fs::remove_file(path);
    let mut meta = path.to_path_buf().into_os_string();
    meta.push(".meta");
    let _ = std::fs::remove_file(std::path::PathBuf::from(meta));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("segidx-tcrash-{}-{name}", std::process::id()))
    }

    #[test]
    fn trace_is_deterministic_and_seals_are_nonempty() {
        let cfg = TemporalTraceConfig::default();
        let a = temporal_trace(5, &cfg);
        assert_eq!(a, temporal_trace(5, &cfg));
        assert_ne!(a, temporal_trace(6, &cfg));
        assert_eq!(a.last(), Some(&TOp::Seal));
        // Every seal finds a non-empty memtable (deletes can remove
        // memtable entries, so replay the occupancy exactly).
        let mut mem: Vec<RecordId> = Vec::new();
        for op in &a {
            match op {
                TOp::Insert(_, r) => mem.push(*r),
                TOp::Delete(_, r) => mem.retain(|m| m != r),
                TOp::Seal => {
                    assert!(!mem.is_empty(), "seal with empty memtable");
                    mem.clear();
                }
            }
        }
    }

    #[test]
    fn sweep_one_seed_clean() {
        let dir = scratch("sweep");
        let cfg = TemporalTraceConfig {
            ops: 24,
            seal_every: 6,
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
