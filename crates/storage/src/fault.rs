//! Deterministic fault injection for the storage layer.
//!
//! Crash consistency cannot be tested by waiting for real power cuts: the
//! interesting failures — a torn page write, a meta commit that never made
//! it to disk, an `fsync` the drive silently dropped — have to be
//! *injected*, and injected reproducibly so a red CI run can be replayed
//! locally from nothing but a seed.
//!
//! A [`FaultInjector`] is consulted by [`DiskManager`](crate::DiskManager)
//! immediately before every file write and every durability barrier. It
//! decides whether the operation proceeds, is truncated mid-write (torn),
//! fails outright, or — for barriers — is silently dropped. The built-in
//! [`ScriptedFault`] covers the plans the crash-sweep harness needs: cut
//! the power at the Nth write (optionally tearing that write at byte K),
//! fail or drop the Nth sync, and once a fault fires, keep failing
//! everything after it — a dead process issues no more I/O.

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Which file write is about to happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// A page image written to the data file.
    Page,
    /// The serialized metadata written to the temporary sidecar file.
    Meta,
}

/// Which durability barrier is about to happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncKind {
    /// `fsync` (or flush) of the data file.
    Data,
    /// The atomic rename that commits a new metadata epoch.
    MetaCommit,
}

/// What the injector wants done with a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Perform the write normally.
    Allow,
    /// Write only the first `keep` bytes, then fail: a torn write. The
    /// prefix reaches the file; the checksum makes the tear detectable.
    Torn {
        /// Bytes of the write that reach the file before the cut.
        keep: usize,
    },
    /// Fail before writing anything.
    Fail,
}

/// What the injector wants done with a durability barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncFault {
    /// Perform the barrier normally.
    #[default]
    Allow,
    /// Skip the barrier but report success — a lying disk. For
    /// [`SyncKind::MetaCommit`] the commit is deferred (the metadata stays
    /// dirty and is retried on the next sync), so a reopen observes the
    /// previous epoch; extents freed since the last durable commit stay
    /// unrecycled either way.
    Drop,
    /// Fail the barrier.
    Fail,
}

/// Decides the fate of each storage I/O operation.
///
/// Implementations must be deterministic given their construction
/// parameters: the crash-sweep harness replays failures from a seed alone.
pub trait FaultInjector: Send + Sync + fmt::Debug {
    /// Consulted before a write of `len` bytes.
    fn before_write(&self, kind: WriteKind, len: usize) -> WriteFault;

    /// Consulted before a durability barrier.
    fn before_sync(&self, kind: SyncKind) -> SyncFault;
}

/// Marker prefix of every injected [`io::Error`], so harnesses can tell a
/// simulated crash from a genuine storage bug.
pub const INJECTED_MARKER: &str = "injected fault:";

pub(crate) fn injected_error(what: &str) -> io::Error {
    io::Error::other(format!("{INJECTED_MARKER} {what}"))
}

/// A deterministic, scriptable [`FaultInjector`].
///
/// Operations are numbered from zero in the order the disk manager issues
/// them — writes (page and meta alike) on one counter, barriers on another.
/// The script fires at most one fault; with `kill_after_trip` (the default
/// for [`ScriptedFault::power_cut`]) every later operation fails too,
/// modeling a machine that lost power rather than a single flaky request.
///
/// ```
/// use segidx_storage::{DiskManager, DiskManagerConfig, ScriptedFault, SizeClass};
/// use std::sync::Arc;
///
/// let dir = std::env::temp_dir().join("segidx-fault-doc");
/// std::fs::create_dir_all(&dir)?;
/// // Write #0 is the meta image `create_with` commits; cut at write #2.
/// let fault = Arc::new(ScriptedFault::power_cut(2, None));
/// let config = DiskManagerConfig {
///     fault_injector: Some(fault.clone()),
/// };
/// let dm = DiskManager::create_with(dir.join("doc.db"), config)?;
/// let a = dm.allocate(SizeClass::new(0))?;
/// let b = dm.allocate(SizeClass::new(0))?;
/// let mut page = segidx_storage::Page::new(a, SizeClass::new(0));
/// page.set_payload(b"survives")?;
/// dm.write_page(&page)?; // write #1: allowed
/// let mut page = segidx_storage::Page::new(b, SizeClass::new(0));
/// page.set_payload(b"lost")?;
/// assert!(dm.write_page(&page).is_err()); // write #2: the power cut
/// assert!(dm.sync().is_err()); // dead machines stay dead
/// # Ok::<(), segidx_storage::StorageError>(())
/// ```
#[derive(Debug, Default)]
pub struct ScriptedFault {
    /// Write index at which to inject (`None` = never).
    fail_write_at: Option<u64>,
    /// Bytes kept of the failing write (`None` = fail before writing).
    torn_keep: Option<usize>,
    /// Sync index at which to inject (`None` = never).
    fault_sync_at: Option<u64>,
    /// The barrier fault to inject at `fault_sync_at`.
    sync_fault: SyncFault,
    /// Whether every operation after the first fault also fails.
    kill_after_trip: bool,
    writes: AtomicU64,
    syncs: AtomicU64,
    tripped: AtomicBool,
}

impl ScriptedFault {
    /// An injector that observes (and counts) but never interferes. Used
    /// for the dry run that discovers a trace's write boundaries.
    pub fn observer() -> Self {
        Self::default()
    }

    /// A power cut at write number `cut_at` (0-based, counted across page
    /// and meta writes). With `torn_keep = Some(k)` the fatal write tears
    /// after `k` bytes; with `None` it fails before writing. Everything
    /// after the cut fails.
    pub fn power_cut(cut_at: u64, torn_keep: Option<usize>) -> Self {
        Self {
            fail_write_at: Some(cut_at),
            torn_keep,
            kill_after_trip: true,
            ..Self::default()
        }
    }

    /// Fail write number `nth` with an I/O error, leaving later operations
    /// unaffected (a single flaky request, not a crash).
    pub fn fail_nth_write(nth: u64) -> Self {
        Self {
            fail_write_at: Some(nth),
            ..Self::default()
        }
    }

    /// Fail barrier number `nth` (data fsync and meta rename share the
    /// counter), leaving later operations unaffected.
    pub fn fail_nth_sync(nth: u64) -> Self {
        Self {
            fault_sync_at: Some(nth),
            sync_fault: SyncFault::Fail,
            ..Self::default()
        }
    }

    /// Silently drop barrier number `nth`: the call reports success but no
    /// durability barrier happens (and a dropped meta commit leaves the old
    /// epoch in place).
    pub fn drop_nth_sync(nth: u64) -> Self {
        Self {
            fault_sync_at: Some(nth),
            sync_fault: SyncFault::Drop,
            ..Self::default()
        }
    }

    /// Number of writes observed so far (including faulted ones).
    pub fn writes_seen(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Number of barriers observed so far (including faulted ones).
    pub fn syncs_seen(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Whether the scripted fault has fired.
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }

    fn dead(&self) -> bool {
        self.kill_after_trip && self.tripped()
    }
}

impl FaultInjector for ScriptedFault {
    fn before_write(&self, _kind: WriteKind, len: usize) -> WriteFault {
        let n = self.writes.fetch_add(1, Ordering::Relaxed);
        if self.dead() {
            return WriteFault::Fail;
        }
        if Some(n) == self.fail_write_at {
            self.tripped.store(true, Ordering::Relaxed);
            return match self.torn_keep {
                Some(keep) => WriteFault::Torn {
                    keep: keep.min(len.saturating_sub(1)),
                },
                None => WriteFault::Fail,
            };
        }
        WriteFault::Allow
    }

    fn before_sync(&self, _kind: SyncKind) -> SyncFault {
        let n = self.syncs.fetch_add(1, Ordering::Relaxed);
        if self.dead() {
            return SyncFault::Fail;
        }
        if Some(n) == self.fault_sync_at {
            self.tripped.store(true, Ordering::Relaxed);
            return self.sync_fault;
        }
        SyncFault::Allow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observer_allows_everything_and_counts() {
        let f = ScriptedFault::observer();
        for _ in 0..5 {
            assert_eq!(f.before_write(WriteKind::Page, 100), WriteFault::Allow);
        }
        assert_eq!(f.before_sync(SyncKind::Data), SyncFault::Allow);
        assert_eq!(f.writes_seen(), 5);
        assert_eq!(f.syncs_seen(), 1);
        assert!(!f.tripped());
    }

    #[test]
    fn power_cut_kills_everything_after() {
        let f = ScriptedFault::power_cut(2, Some(7));
        assert_eq!(f.before_write(WriteKind::Page, 10), WriteFault::Allow);
        assert_eq!(f.before_write(WriteKind::Meta, 10), WriteFault::Allow);
        assert_eq!(
            f.before_write(WriteKind::Page, 10),
            WriteFault::Torn { keep: 7 }
        );
        assert!(f.tripped());
        assert_eq!(f.before_write(WriteKind::Page, 10), WriteFault::Fail);
        assert_eq!(f.before_sync(SyncKind::Data), SyncFault::Fail);
        assert_eq!(f.before_sync(SyncKind::MetaCommit), SyncFault::Fail);
    }

    #[test]
    fn torn_keep_is_clamped_below_write_length() {
        let f = ScriptedFault::power_cut(0, Some(1_000_000));
        assert_eq!(
            f.before_write(WriteKind::Page, 10),
            WriteFault::Torn { keep: 9 },
            "a torn write never completes fully"
        );
    }

    #[test]
    fn single_faults_do_not_kill() {
        let f = ScriptedFault::fail_nth_write(0);
        assert_eq!(f.before_write(WriteKind::Page, 4), WriteFault::Fail);
        assert_eq!(f.before_write(WriteKind::Page, 4), WriteFault::Allow);

        let f = ScriptedFault::drop_nth_sync(1);
        assert_eq!(f.before_sync(SyncKind::Data), SyncFault::Allow);
        assert_eq!(f.before_sync(SyncKind::MetaCommit), SyncFault::Drop);
        assert_eq!(f.before_sync(SyncKind::Data), SyncFault::Allow);
    }

    #[test]
    fn injected_errors_are_marked() {
        let e = injected_error("torn write");
        assert!(e.to_string().contains(INJECTED_MARKER));
    }
}
