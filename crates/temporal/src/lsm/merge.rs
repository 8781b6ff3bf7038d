//! Leveled merge policy and the merge worker.
//!
//! Tiers are kept oldest-first (ascending sequence) with levels monotone
//! non-increasing toward the tail: seals append level-0 tiers at the tail,
//! and merging a contiguous run of equal-level tiers replaces it in place
//! with one tier a level up whose sequence is the run's maximum — both
//! operations preserve the invariant, so equal-level runs are always
//! contiguous and the planner only has to scan for them.
//!
//! A merge is a pure function of its inputs (immutable tiers + a tombstone
//! snapshot), so it runs on the worker while the foreground keeps
//! inserting: a seal hands off at most one job, and the next seal waits
//! for it and splices the result in. Every input is sorted by record id,
//! so a merge is one linear k-way pass followed by one HINT build — no
//! gather, no sort, no pack. Entries dropped here are exactly those a query
//! would have filtered as shadowed, so merging never changes query results.

use super::tier::Tier;
use super::Payload;
use segidx_core::RecordId;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// Everything a merge needs, snapshotted at dispatch time.
pub(crate) struct MergeJob<const D: usize, P> {
    /// Input tiers (cheap `Arc` clones), ascending sequence, contiguous in
    /// the owner's tier list.
    pub tiers: Vec<Tier<D, P>>,
    /// Tombstone snapshot. Tombstones created after dispatch carry higher
    /// sequences than the merged tier and still shadow it at query time.
    pub tombstones: Arc<HashMap<RecordId, u64>>,
    /// Level of the output tier.
    pub level: u32,
}

/// A finished merge, ready to splice into the tier list.
pub(crate) struct MergeOutcome<const D: usize, P> {
    /// Sequences of the tiers this merge consumed.
    pub input_seqs: Vec<u64>,
    /// The replacement tier (sequence = max input sequence).
    pub tier: Tier<D, P>,
    /// Entries dropped as shadowed or tombstoned.
    pub dropped: u64,
    /// Merge wall time in nanoseconds.
    pub nanos: u64,
}

/// Runs a merge to completion: walk the inputs in record-id order, keep the
/// newest copy of each id unless a tombstone newer than its tier shadows
/// it, and build the output tier's HINT once.
fn run_merge<const D: usize, P: Payload>(job: MergeJob<D, P>) -> MergeOutcome<D, P> {
    let t0 = Instant::now();
    let input_seqs: Vec<u64> = job.tiers.iter().map(|t| t.seq).collect();
    let max_seq = *input_seqs.last().expect("merge of at least one tier");
    let total: usize = job.tiers.iter().map(Tier::entry_count).sum();
    let mut rows = Vec::with_capacity(total);
    let mut heads = vec![0usize; job.tiers.len()];
    let mut dropped = 0u64;
    loop {
        // The smallest id at any head, and the newest input holding it.
        let mut next: Option<(RecordId, usize)> = None;
        for (i, t) in job.tiers.iter().enumerate() {
            if let Some(r) = t.rows().get(heads[i]) {
                if next.map_or(true, |(m, _)| r.id <= m) {
                    next = Some((r.id, i));
                }
            }
        }
        let Some((record, newest)) = next else { break };
        for (i, t) in job.tiers.iter().enumerate() {
            if t.rows().get(heads[i]).is_some_and(|r| r.id == record) {
                heads[i] += 1;
                dropped += u64::from(i != newest);
            }
        }
        let tier = &job.tiers[newest];
        if job.tombstones.get(&record).is_some_and(|&ts| ts > tier.seq) {
            dropped += 1;
        } else {
            rows.push(tier.rows()[heads[newest] - 1]);
        }
    }
    let tier = Tier::from_sorted(rows, max_seq, job.level);
    MergeOutcome {
        input_seqs,
        tier,
        dropped,
        nanos: t0.elapsed().as_nanos() as u64,
    }
}

/// Picks the next run to merge: the lowest-level (newest) maximal run of
/// equal-level tiers at least `fanout` long. Returns the run's index range
/// and the output level.
pub(crate) fn plan_run<const D: usize, P>(
    tiers: &[Tier<D, P>],
    fanout: usize,
) -> Option<(Range<usize>, u32)> {
    if tiers.len() < fanout {
        return None;
    }
    // Levels are monotone non-increasing, so scanning from the tail visits
    // runs lowest-level first.
    let mut end = tiers.len();
    while end > 0 {
        let level = tiers[end - 1].level;
        let mut start = end;
        while start > 0 && tiers[start - 1].level == level {
            start -= 1;
        }
        if end - start >= fanout {
            return Some((start..end, level + 1));
        }
        end = start;
    }
    None
}

/// The single merge worker. At most one job is in flight.
pub(crate) struct MergeWorker<const D: usize, P> {
    job_tx: Option<mpsc::Sender<MergeJob<D, P>>>,
    result_rx: mpsc::Receiver<MergeOutcome<D, P>>,
    handle: Option<JoinHandle<()>>,
    in_flight: bool,
}

impl<const D: usize, P: Payload> MergeWorker<D, P> {
    pub fn spawn() -> Self {
        let (job_tx, job_rx) = mpsc::channel::<MergeJob<D, P>>();
        let (result_tx, result_rx) = mpsc::channel::<MergeOutcome<D, P>>();
        let handle = std::thread::Builder::new()
            .name("segidx-tier-merge".into())
            .spawn(move || {
                while let Ok(job) = job_rx.recv() {
                    if result_tx.send(run_merge(job)).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn merge worker");
        Self {
            job_tx: Some(job_tx),
            result_rx,
            handle: Some(handle),
            in_flight: false,
        }
    }

    /// Submits a job. Callers must ensure nothing is in flight.
    pub fn submit(&mut self, job: MergeJob<D, P>) {
        assert!(!self.in_flight, "one merge in flight at a time");
        self.job_tx
            .as_ref()
            .expect("worker alive")
            .send(job)
            .expect("merge worker alive");
        self.in_flight = true;
    }

    /// Blocks until the in-flight merge (if any) finishes.
    pub fn wait_take(&mut self) -> Option<MergeOutcome<D, P>> {
        if !self.in_flight {
            return None;
        }
        self.in_flight = false;
        self.result_rx.recv().ok()
    }
}

impl<const D: usize, P> Drop for MergeWorker<D, P> {
    fn drop(&mut self) {
        self.job_tx.take(); // hang up: the worker loop exits
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}
