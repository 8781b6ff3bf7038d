//! The cross-shard epoch protocol: a vector of per-shard snapshots
//! published as **one** `Arc`, so a multi-shard read pins one consistent
//! global snapshot even while shards commit independently.
//!
//! # Why a vector, not per-shard pins
//!
//! Pinning each shard one after another is not a snapshot: shard 1 could
//! commit between the pin of shard 0 and the pin of shard 1, and the
//! reader would observe shard 0 *before* and shard 1 *after* the same
//! wall-clock instant. Instead, every shard commit republishes an
//! immutable [`GlobalVector`] — global epoch `g+1`, the committing
//! shard's slot replaced, every other slot carried over by `Arc` clone —
//! and swaps it into the published slot. A reader that clones that `Arc`
//! once therefore holds a vector some *single* global epoch produced;
//! there is no interleaving in which it sees shard `i` at its epoch
//! `e_i + 1` while the vector says `e_i`.
//!
//! Per-shard snapshots inside the vector are the very `Arc`s the shards
//! publish locally (`SnapshotInner`), so republication costs `N` `Arc`
//! bumps and one small allocation — no tree is cloned — and a vector's
//! lifetime is its reference count, exactly like a shard snapshot's (see
//! `index.rs`): a long-pinned cross-shard reader holds one vector and,
//! through it, one snapshot per shard, while later vectors are dropped as
//! they are replaced.

use crate::index::SnapshotInner;
use crate::queue::lock;
use segidx_core::tree::Tree;
use std::sync::{Arc, Mutex};

/// One immutable published state of the whole sharded index: the global
/// epoch plus every shard's snapshot at that epoch.
pub(crate) struct GlobalVector<const D: usize, E = Tree<D>> {
    pub(crate) epoch: u64,
    pub(crate) shards: Box<[Arc<SnapshotInner<D, E>>]>,
}

/// Ties one shard's writer thread to the publisher: on every local
/// publish, the writer also installs its fresh snapshot globally.
pub(crate) struct GlobalLink<const D: usize, E = Tree<D>> {
    pub(crate) shard: usize,
    pub(crate) publisher: Arc<GlobalPublisher<D, E>>,
}

/// The single swap point every shard publishes through and every
/// cross-shard reader pins against. Both mutexes guard state no panic can
/// leave half-written (one `Arc`; nothing at all) and are taken through
/// [`lock`]: a thread that died holding one stops no one.
pub(crate) struct GlobalPublisher<const D: usize, E = Tree<D>> {
    /// The current vector. Held only to clone or swap the `Arc`.
    published: Mutex<Arc<GlobalVector<D, E>>>,
    /// Serializes shard writers from reading the current vector to
    /// swapping in its successor, so the successor is built without the
    /// lock readers take.
    publish_lock: Mutex<()>,
}

impl<const D: usize, E> GlobalPublisher<D, E> {
    /// A publisher whose epoch-0 vector holds every shard's initial
    /// snapshot. Must be created before any shard writer starts.
    pub(crate) fn new(initial: Vec<Arc<SnapshotInner<D, E>>>) -> Self {
        Self {
            published: Mutex::new(Arc::new(GlobalVector {
                epoch: 0,
                shards: initial.into_boxed_slice(),
            })),
            publish_lock: Mutex::new(()),
        }
    }

    /// Installs `snapshot` as shard `shard`'s entry: builds the successor
    /// vector, swaps it in, and drops the replaced one with no lock held.
    pub(crate) fn publish(&self, shard: usize, snapshot: Arc<SnapshotInner<D, E>>) {
        let replaced = {
            let _writers = lock(&self.publish_lock);
            let current = self.acquire();
            let mut shards = current.shards.clone();
            shards[shard] = snapshot;
            let fresh = Arc::new(GlobalVector {
                epoch: current.epoch + 1,
                shards,
            });
            std::mem::replace(&mut *lock(&self.published), fresh)
        };
        drop(replaced);
    }

    /// The current vector: one `Arc` clone under the lock.
    pub(crate) fn acquire(&self) -> Arc<GlobalVector<D, E>> {
        Arc::clone(&lock(&self.published))
    }

    /// The current global epoch: one tick per shard commit, any shard, so
    /// it is also the number of vectors published after the initial one.
    pub(crate) fn epoch(&self) -> u64 {
        lock(&self.published).epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segidx_core::IndexConfig;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn a_thread_that_dies_holding_both_locks_stops_no_one() {
        let live = Arc::new(AtomicUsize::new(0));
        let snap = |epoch| -> Arc<SnapshotInner<2>> {
            let tree = Tree::new(IndexConfig::rtree());
            Arc::new(SnapshotInner::new(epoch, None, tree, &live))
        };
        let publisher = Arc::new(GlobalPublisher::new(vec![snap(0), snap(0)]));
        let held = Arc::clone(&publisher);
        let reader = std::thread::spawn(move || {
            let _guard = held.acquire();
            let _writers = held.publish_lock.lock().unwrap();
            let _published = held.published.lock().unwrap();
            panic!("failure injected by the test");
        });
        assert!(reader.join().is_err());
        assert!(publisher.publish_lock.is_poisoned() && publisher.published.is_poisoned());

        publisher.publish(1, snap(1));
        let vector = publisher.acquire();
        assert_eq!((vector.epoch, publisher.epoch()), (1, 1));
        assert_eq!((vector.shards[0].epoch, vector.shards[1].epoch), (0, 1));
    }
}
