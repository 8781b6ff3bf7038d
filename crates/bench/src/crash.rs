//! Crash-sweep differential harness: power-cut a deterministic trace at
//! every write boundary and prove the recovered index answers exactly like
//! a model rebuilt from the durable prefix.
//!
//! One driver, `power_cut_sweep`, serves two subjects: the spatial tree
//! committed by [`persist::commit`] (here, [`crash_sweep`]) and the tiered
//! temporal index sealed into tiers ([`crate::temporal_crash`]). Both write
//! pages one way, through [`DiskManager::write_page`] and a durable
//! [`DiskManager::sync`], and that is the path the driver cuts.
//!
//! The sweep exploits determinism end to end. A *dry run* executes the
//! trace with an observing [`ScriptedFault`] to learn the total number of
//! physical writes `W` and the disk epoch each commit reaches. Because page
//! allocation and serialization are deterministic, a faulted run is
//! byte-for-byte a prefix of the dry run up to its cut, so the epoch found
//! on reopen identifies precisely which commit survived — and therefore
//! which operation prefix the recovered index must answer for.
//!
//! Per cut `c in 0..=W`, torn and clean cuts alternating, the driver
//! asserts:
//!
//! 1. [`DiskManager::open_repair`] succeeds — or, while no commit has been
//!    acknowledged, fails with a *typed* error, never a panic or a silent
//!    half-state;
//! 2. the repair report is clean — a pure power cut must never surface as
//!    page corruption, because extents freed since the last durable commit
//!    are not recycled;
//! 3. the reopened epoch is a commit's, and no acknowledged commit is lost;
//! 4. the subject's own recovery check passes: every probe query returns
//!    exactly the records the model (the op prefix up to the surviving
//!    commit, replayed on a flat list) says intersect it.
//!
//! The spatial subject also requires [`persist::recover`] to reload the
//! committed tree without a rebuild. [`corruption_trials`] covers the
//! non-power-cut half: flip bytes in the page file, then require either a
//! typed corruption error or a truthful rebuild whose answers are a subset
//! of the uncorrupted model's.

use segidx_core::persist;
use segidx_core::{IndexConfig, RecordId, Tree};
use segidx_geom::Rect;
use segidx_storage::{
    DiskManager, DiskManagerConfig, FaultInjector, RepairReport, ScriptedFault, StorageError,
};
use std::path::Path;
use std::sync::Arc;

/// Deterministic 64-bit generator (SplitMix64) so the harness needs no RNG
/// dependency and every trace is replayable from its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One step of a crash-sweep trace.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Insert an interval for a record.
    Insert(Rect<2>, RecordId),
    /// Delete a previously inserted interval.
    Delete(Rect<2>, RecordId),
    /// Make the operations so far durable: [`persist::commit`] the tree, or
    /// seal the temporal memtable into a tier.
    Checkpoint,
}

/// Shape of a generated trace (either subject's).
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Total insert/delete operations.
    pub ops: usize,
    /// A checkpoint is emitted every this many operations (and once at the
    /// end).
    pub checkpoint_every: usize,
    /// Probability that an op deletes an existing record instead of
    /// inserting a new one.
    pub delete_fraction: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            ops: 48,
            checkpoint_every: 12,
            delete_fraction: 0.25,
        }
    }
}

/// The deterministic trace for `seed`: interval inserts and deletes with
/// periodic checkpoints, ending on a checkpoint.
pub fn trace(seed: u64, cfg: &TraceConfig) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed ^ 0xC4A5_1D00);
    let mut ops = Vec::with_capacity(cfg.ops + cfg.ops / cfg.checkpoint_every.max(1) + 1);
    let mut alive: Vec<(Rect<2>, RecordId)> = Vec::new();
    let mut next_record = 0u64;
    for i in 0..cfg.ops {
        let delete = !alive.is_empty() && rng.next_f64() < cfg.delete_fraction;
        if delete {
            let victim = alive.swap_remove((rng.next_u64() as usize) % alive.len());
            ops.push(Op::Delete(victim.0, victim.1));
        } else {
            let x = rng.next_f64() * 5_000.0;
            let y = rng.next_f64() * 5_000.0;
            // Mostly short intervals with an occasional long spanner, the
            // paper's I-series mix, so checkpoints exercise spanning
            // records too.
            let len = if rng.next_u64() & 7 == 0 {
                1_500.0
            } else {
                40.0
            };
            let rect = Rect::new([x, y], [x + len, y + rng.next_f64() * 40.0]);
            let record = RecordId(next_record);
            next_record += 1;
            alive.push((rect, record));
            ops.push(Op::Insert(rect, record));
        }
        if (i + 1) % cfg.checkpoint_every.max(1) == 0 {
            ops.push(Op::Checkpoint);
        }
    }
    if ops.last() != Some(&Op::Checkpoint) {
        ops.push(Op::Checkpoint);
    }
    ops
}

/// Probe rectangles used for differential comparison.
pub fn probes(seed: u64, count: usize) -> Vec<Rect<2>> {
    let mut rng = SplitMix64::new(seed ^ 0x9B0E_5EED);
    (0..count)
        .map(|_| {
            let x = rng.next_f64() * 5_000.0;
            let y = rng.next_f64() * 5_000.0;
            let w = 50.0 + rng.next_f64() * 1_000.0;
            let h = 50.0 + rng.next_f64() * 1_000.0;
            Rect::new([x, y], [x + w, y + h])
        })
        .collect()
}

/// The records intersecting `query` after replaying `ops_prefix` on a flat
/// list — the harness's model of truth.
pub fn model_answer(ops_prefix: &[Op], query: &Rect<2>) -> Vec<RecordId> {
    let mut alive: Vec<(Rect<2>, RecordId)> = Vec::new();
    for op in ops_prefix {
        match op {
            Op::Insert(rect, record) => alive.push((*rect, *record)),
            Op::Delete(_, record) => alive.retain(|(_, r)| r != record),
            Op::Checkpoint => {}
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

/// How a trace run against a (possibly fault-injected) disk ended.
#[derive(Debug)]
struct RunOutcome {
    /// Commits that completed without error.
    commits_done: usize,
    /// The first error hit, if any (the simulated crash point).
    error: Option<StorageError>,
}

/// The end (exclusive) of the op prefix each [`Op::Checkpoint`] covers.
pub(crate) fn checkpoint_ends(ops: &[Op]) -> impl Iterator<Item = usize> + '_ {
    ops.iter()
        .enumerate()
        .filter(|(_, o)| matches!(o, Op::Checkpoint))
        .map(|(i, _)| i + 1)
}

/// Compares `search`'s answer to the model's for every probe.
pub(crate) fn check_probes(
    probes: &[Rect<2>],
    prefix: &[Op],
    search: impl Fn(&Rect<2>) -> Vec<RecordId>,
) -> Result<(), String> {
    for probe in probes {
        let expected = model_answer(prefix, probe);
        let got = search(probe);
        if got != expected {
            return Err(format!(
                "probe {probe:?}: expected {expected:?}, got {got:?}"
            ));
        }
    }
    Ok(())
}

/// One differential failure found by the sweep — a cut (or corruption
/// trial) after which recovery answered wrongly or failed untypedly.
#[derive(Debug, Clone)]
pub struct SweepFailure {
    /// The trace seed.
    pub seed: u64,
    /// The write index the power was cut at (or the corrupted byte offset
    /// for corruption trials).
    pub cut_at: u64,
    /// What went wrong.
    pub detail: String,
}

/// Result of sweeping one seed.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Total physical writes in the uncut run (the sweep tested cuts
    /// `0..=writes`).
    pub writes: u64,
    /// Differential failures; empty means the seed passed.
    pub failures: Vec<SweepFailure>,
}

/// One trace the driver power-cuts: how it runs, which op prefix each of
/// its durable commits covers, and how a recovered file is judged.
pub(crate) trait Subject {
    /// Replays the trace on a freshly created `disk`, counting each commit
    /// that completes in `commits_done`, and stops at the first storage
    /// error.
    fn run(&self, disk: DiskManager, commits_done: &mut usize) -> Result<(), StorageError>;

    /// The end (exclusive) of the op prefix the `k`-th durable commit
    /// covers, at index `k - 1`, one entry per commit of an uncut run.
    fn commit_prefixes(&self) -> Vec<usize>;

    /// Checks a file reopened at a durable commit against the model of the
    /// first `prefix` ops.
    fn check_recovered(
        &self,
        disk: DiskManager,
        report: &RepairReport,
        prefix: usize,
    ) -> Result<(), String>;
}

/// Creates a disk at `path`, its first meta commit included, and runs
/// `subject`'s trace on it.
fn run_fresh(
    subject: &impl Subject,
    path: &Path,
    injector: Option<Arc<dyn FaultInjector>>,
) -> RunOutcome {
    let config = DiskManagerConfig {
        fault_injector: injector,
    };
    let mut commits_done = 0;
    let error = DiskManager::create_with(path, config)
        .and_then(|disk| subject.run(disk, &mut commits_done))
        .err();
    RunOutcome {
        commits_done,
        error,
    }
}

/// Power-cuts `subject`'s trace at every write boundary and checks each
/// recovery. `scratch` is a directory the sweep may fill with (and
/// delete) page files.
pub(crate) fn power_cut_sweep(subject: &impl Subject, seed: u64, scratch: &Path) -> SweepOutcome {
    std::fs::create_dir_all(scratch).expect("scratch dir");

    // Dry run: learn the write count and the epoch before the first commit.
    let observer = Arc::new(ScriptedFault::observer());
    let dry_path = scratch.join(format!("dry-{seed:016x}.db"));
    let outcome = run_fresh(subject, &dry_path, Some(observer.clone() as Arc<_>));
    assert!(
        outcome.error.is_none(),
        "dry run must not fail: {:?}",
        outcome.error
    );
    let writes = observer.writes_seen();
    let prefixes = subject.commit_prefixes();
    assert_eq!(prefixes.len(), outcome.commits_done, "every commit counted");
    // Each commit syncs exactly once, so epochs count back deterministically
    // from the final one: commit k reopens at `base_epoch + k`.
    let base_epoch = DiskManager::open(&dry_path)
        .expect("reopen dry run")
        .epoch()
        - prefixes.len() as u64;
    remove_db(&dry_path);

    let mut failures = Vec::new();
    let mut cut_rng = SplitMix64::new(seed ^ 0x00C0_FFEE);
    for cut in 0..=writes {
        // Alternate torn and clean-fail cuts, with a pseudorandom tear
        // length, so both partial-write shapes are exercised at every
        // boundary over the seed population.
        let torn = if cut_rng.next_u64() & 1 == 0 {
            Some((cut_rng.next_u64() % 4096) as usize)
        } else {
            None
        };
        let path = scratch.join(format!("cut-{seed:016x}-{cut}.db"));
        if let Err(detail) = check_one_cut(subject, &path, cut, torn, base_epoch, &prefixes) {
            failures.push(SweepFailure {
                seed,
                cut_at: cut,
                detail,
            });
        }
        remove_db(&path);
    }
    SweepOutcome { writes, failures }
}

fn check_one_cut(
    subject: &impl Subject,
    path: &Path,
    cut: u64,
    torn: Option<usize>,
    base_epoch: u64,
    prefixes: &[usize],
) -> Result<(), String> {
    let fault = Arc::new(ScriptedFault::power_cut(cut, torn));
    let outcome = run_fresh(subject, path, Some(fault as Arc<_>));
    if let Some(e) = outcome.error.as_ref().filter(|e| !e.is_injected()) {
        return Err(format!("non-injected error during faulted run: {e}"));
    }

    let (disk, report) = match DiskManager::open_repair(path, DiskManagerConfig::default(), None) {
        Ok(v) => v,
        // Only acceptable while no commit has been acknowledged: there is
        // no database yet.
        Err(e)
            if outcome.commits_done == 0
                && (e.is_corruption() || matches!(e, StorageError::Io(_))) =>
        {
            return Ok(())
        }
        Err(e) => return Err(format!("reopen failed after cut {cut}: {e}")),
    };
    if !report.is_clean() {
        return Err(format!(
            "pure power cut surfaced as corruption: {:?}",
            report.quarantined
        ));
    }

    // The durable epoch pins which commit survived.
    let epoch = disk.epoch();
    let k = match epoch.checked_sub(base_epoch) {
        Some(k) if k as usize <= prefixes.len() => k as usize,
        _ => return Err(format!("epoch {epoch} matches no commit")),
    };
    if k < outcome.commits_done {
        return Err(format!(
            "commit {} reported success but reopened at commit {k}",
            outcome.commits_done
        ));
    }
    if k == 0 {
        return match disk.root() {
            None => Ok(()),
            Some(r) => Err(format!("no commit durable yet root = {r:?}")),
        };
    }
    subject
        .check_recovered(disk, &report, prefixes[k - 1])
        .map_err(|e| format!("after commit {k}: {e}"))
}

/// The spatial subject: an SR-Tree, committed by [`persist::commit`] at
/// every [`Op::Checkpoint`].
struct Spatial {
    ops: Vec<Op>,
    probes: Vec<Rect<2>>,
}

impl Subject for Spatial {
    fn run(&self, disk: DiskManager, commits_done: &mut usize) -> Result<(), StorageError> {
        let mut tree: Tree<2> = Tree::new(IndexConfig::srtree());
        for op in &self.ops {
            match op {
                Op::Insert(rect, record) => tree.insert(*rect, *record),
                Op::Delete(rect, record) => {
                    tree.delete(rect, *record);
                }
                Op::Checkpoint => {
                    persist::commit(&tree, &disk)?;
                    *commits_done += 1;
                }
            }
        }
        Ok(())
    }

    fn commit_prefixes(&self) -> Vec<usize> {
        checkpoint_ends(&self.ops).collect()
    }

    fn check_recovered(
        &self,
        disk: DiskManager,
        report: &RepairReport,
        prefix: usize,
    ) -> Result<(), String> {
        let (tree, rr) = persist::recover::<2>(&disk, report, None)
            .map_err(|e| format!("recover failed: {e}"))?;
        if rr.rebuilt {
            return Err("power cut forced a rebuild (should reload committed tree)".into());
        }
        check_probes(&self.probes, &self.ops[..prefix], |probe| {
            let mut got = tree.search(probe);
            got.sort_unstable();
            got.dedup();
            got
        })
    }
}

/// Power-cuts the spatial trace for `seed` at every write boundary and
/// checks recovery against the model.
pub fn crash_sweep(seed: u64, scratch: &Path, cfg: &TraceConfig) -> SweepOutcome {
    let subject = Spatial {
        ops: trace(seed, cfg),
        probes: probes(seed, 16),
    };
    power_cut_sweep(&subject, seed, scratch)
}

/// Flips bytes in a committed page file and checks recovery stays truthful:
/// every trial must end in a typed corruption error or a rebuilt tree whose
/// answers are a subset of the uncorrupted model's. Returns failures.
pub fn corruption_trials(seed: u64, scratch: &Path, trials: usize) -> Vec<SweepFailure> {
    let subject = Spatial {
        ops: trace(seed, &TraceConfig::default()),
        probes: probes(seed, 16),
    };
    std::fs::create_dir_all(scratch).expect("scratch dir");
    let mut rng = SplitMix64::new(seed ^ 0xBAD5_EED5);
    let mut failures = Vec::new();
    for trial in 0..trials {
        let path = scratch.join(format!("rot-{seed:016x}-{trial}.db"));
        let outcome = run_fresh(&subject, &path, None);
        assert!(outcome.error.is_none(), "clean run failed: {outcome:?}");
        let len = std::fs::metadata(&path).expect("page file").len();
        let offset = rng.next_u64() % len.max(1);
        {
            use std::io::{Read, Seek, SeekFrom, Write};
            let mut f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .expect("open page file");
            f.seek(SeekFrom::Start(offset)).unwrap();
            let mut b = [0u8];
            f.read_exact(&mut b).unwrap();
            f.seek(SeekFrom::Start(offset)).unwrap();
            f.write_all(&[b[0] ^ (1 << (rng.next_u64() % 8))]).unwrap();
        }
        if let Err(detail) = check_one_corruption(&path, &subject) {
            failures.push(SweepFailure {
                seed,
                cut_at: offset,
                detail,
            });
        }
        remove_db(&path);
    }
    failures
}

fn check_one_corruption(path: &Path, subject: &Spatial) -> Result<(), String> {
    let (disk, report) = match DiskManager::open_repair(path, DiskManagerConfig::default(), None) {
        Ok(v) => v,
        Err(e) if e.is_corruption() => return Ok(()), // typed, truthful
        Err(e) => return Err(format!("untyped open failure: {e}")),
    };
    let (tree, _rr) = match persist::recover::<2>(&disk, &report, None) {
        Ok(v) => v,
        Err(e) if e.is_corruption() => return Ok(()),
        Err(e) => return Err(format!("untyped recover failure: {e}")),
    };
    for probe in &subject.probes {
        let expected = model_answer(&subject.ops, probe);
        let mut got = tree.search(probe);
        got.sort_unstable();
        got.dedup();
        // Subset: recovery may lose quarantined entries but must never
        // fabricate a result.
        if !got.iter().all(|r| expected.contains(r)) {
            return Err(format!(
                "probe {probe:?}: fabricated results; expected ⊆ {expected:?}, got {got:?}"
            ));
        }
    }
    Ok(())
}

fn remove_db(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(meta_path(path));
}

fn meta_path(path: &Path) -> std::path::PathBuf {
    let mut meta = path.to_path_buf().into_os_string();
    meta.push(".meta");
    meta.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("segidx-crash-{}-{name}", std::process::id()))
    }

    #[test]
    fn trace_is_deterministic_and_ends_on_checkpoint() {
        let cfg = TraceConfig::default();
        let a = trace(7, &cfg);
        let b = trace(7, &cfg);
        assert_eq!(a, b);
        assert_ne!(a, trace(8, &cfg));
        assert_eq!(a.last(), Some(&Op::Checkpoint));
        assert!(a.iter().any(|o| matches!(o, Op::Delete(..))));
    }

    #[test]
    fn model_replays_deletes() {
        let r = Rect::new([0.0, 0.0], [10.0, 10.0]);
        let ops = vec![
            Op::Insert(r, RecordId(1)),
            Op::Insert(r, RecordId(2)),
            Op::Delete(r, RecordId(1)),
            Op::Checkpoint,
        ];
        assert_eq!(model_answer(&ops, &r), vec![RecordId(2)]);
    }

    #[test]
    fn sweep_one_seed_clean() {
        let dir = scratch("sweep");
        let cfg = TraceConfig {
            ops: 24,
            checkpoint_every: 8,
            delete_fraction: 0.25,
        };
        let outcome = crash_sweep(3, &dir, &cfg);
        assert!(outcome.writes > 0);
        assert!(
            outcome.failures.is_empty(),
            "differential failures: {:#?}",
            outcome.failures
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The spatial subject, except that every run ends by deleting the
    /// file's `.meta` sidecar — an acknowledged commit lost after the fact.
    struct LosesMeta(Spatial);

    impl Subject for LosesMeta {
        fn run(&self, disk: DiskManager, commits_done: &mut usize) -> Result<(), StorageError> {
            let meta = meta_path(disk.path());
            let result = self.0.run(disk, commits_done);
            std::fs::remove_file(meta).expect("meta file written");
            result
        }

        fn commit_prefixes(&self) -> Vec<usize> {
            self.0.commit_prefixes()
        }

        fn check_recovered(
            &self,
            disk: DiskManager,
            report: &RepairReport,
            prefix: usize,
        ) -> Result<(), String> {
            self.0.check_recovered(disk, report, prefix)
        }
    }

    #[test]
    fn a_reopen_failure_after_an_acknowledged_commit_is_reported() {
        let dir = scratch("lost-meta");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = TraceConfig {
            ops: 8,
            checkpoint_every: 8,
            delete_fraction: 0.25,
        };
        let subject = LosesMeta(Spatial {
            ops: trace(3, &cfg),
            probes: probes(3, 4),
        });
        // No cut fires: the one commit is acknowledged, then its meta file
        // disappears, and the reopen fails with an I/O error before the
        // epoch ladder is consulted.
        let path = dir.join("lost.db");
        let prefixes = subject.commit_prefixes();
        let detail = check_one_cut(&subject, &path, u64::MAX, None, 0, &prefixes).unwrap_err();
        assert!(detail.starts_with("reopen failed"), "{detail}");
        remove_db(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_trials_stay_truthful() {
        let dir = scratch("rot");
        let failures = corruption_trials(11, &dir, 6);
        assert!(failures.is_empty(), "{failures:#?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
