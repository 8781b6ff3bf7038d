//! The unified index engine behind all four paper variants.
//!
//! A [`Tree`] is an R-Tree (Guttman 1984) whose behavior is extended by
//! [`IndexConfig`] flags:
//!
//! * `segment: true` enables the SR-Tree extensions of paper §3 — spanning
//!   index records in non-leaf nodes, record cutting, demotion, and
//!   promotion;
//! * a pre-built node structure (see [`crate::skeleton`]) plus
//!   `coalesce: Some(..)` yields the Skeleton variants of paper §4.
//!
//! The paper's four experimental index types are exactly:
//!
//! | Variant            | `segment` | pre-built + coalescing |
//! |--------------------|-----------|------------------------|
//! | R-Tree             | no        | no                     |
//! | SR-Tree            | yes       | no                     |
//! | Skeleton R-Tree    | no        | yes                    |
//! | Skeleton SR-Tree   | yes       | yes                    |

mod delete;
mod insert;
mod inspect;
mod join;
mod nearest;
mod search;
mod split;
mod validate;

pub use inspect::{LevelReport, TreeReport};
pub use nearest::Neighbor;
pub use search::{finish_ids, RadixId, SearchCursor};

use crate::config::IndexConfig;
use crate::id::{NodeId, RecordId};
use crate::node::{Arena, Node};
use crate::stats::{StatsSnapshot, TreeStats};
use segidx_geom::Rect;

/// A record portion queued for reinsertion.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PendingInsert<const D: usize> {
    pub rect: Rect<D>,
    pub record: RecordId,
    /// Pressure-relief demotions reinsert straight to the leaf level so the
    /// record does not bounce back onto the full node it was evicted from.
    pub allow_spanning: bool,
}

/// A paged, multi-way, dynamic index over `D`-dimensional interval data.
///
/// See the [module documentation](self) for how configuration flags map to
/// the paper's index variants: `Tree::new(IndexConfig::srtree())` is an
/// SR-Tree, and [`build_skeleton`](crate::build_skeleton) pre-constructs a
/// Skeleton tree from a spec, written or
/// [predicted](crate::SkeletonSpec::predict) from a prefix of the input.
#[derive(Debug)]
pub struct Tree<const D: usize> {
    pub(crate) arena: Arena<D>,
    pub(crate) root: NodeId,
    pub(crate) config: IndexConfig,
    /// Logical records inserted (a cut record still counts once).
    pub(crate) len: usize,
    /// Physical index records stored (leaf entries + spanning entries).
    pub(crate) entry_count: usize,
    /// Records awaiting reinsertion (remnants of cuts, demoted spanning
    /// records, entries from condensed nodes). Always drained before a
    /// public mutating method returns.
    pub(crate) pending: Vec<PendingInsert<D>>,
    /// Insertions since the last coalescing pass.
    pub(crate) inserts_since_coalesce: u64,
    pub(crate) stats: TreeStats,
}

/// Cloning a tree is a *snapshot*: the arena shares every node with the
/// original through refcounted chunks of its slot table (see
/// [`crate::node::Arena`]), so the cost is one `Arc` clone per 16 node
/// slots — no node header and no entry data is touched — and dropping a
/// clone costs the same walk plus whatever it owned alone. Mutating either
/// copy afterwards copies only the chunks and nodes that mutation writes
/// (copy-on-write), which is what makes epoch-published snapshots in
/// `segidx-concurrent` cheap: a group commit that changed *k* of *n* nodes
/// pays O(k) copies plus O(n/16) refcount operations to publish and retire,
/// provided the write path takes `node_mut` only where it writes.
impl<const D: usize> Clone for Tree<D> {
    fn clone(&self) -> Self {
        Self {
            arena: self.arena.clone(),
            root: self.root,
            config: self.config.clone(),
            len: self.len,
            entry_count: self.entry_count,
            pending: self.pending.clone(),
            inserts_since_coalesce: self.inserts_since_coalesce,
            stats: self.stats.clone(),
        }
    }
}

impl<const D: usize> Tree<D> {
    /// Creates an empty tree (a single empty leaf as root).
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`IndexConfig::validate`]).
    pub fn new(config: IndexConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid index config: {e}"));
        let mut arena = Arena::new();
        let root = arena.alloc(Node::leaf(config.node_slots(0)));
        Self {
            arena,
            root,
            config,
            len: 0,
            entry_count: 0,
            pending: Vec::new(),
            inserts_since_coalesce: 0,
            stats: TreeStats::default(),
        }
    }

    /// Builds a tree around a pre-constructed arena (used by the Skeleton
    /// builder and the bulk loader).
    pub(crate) fn from_parts(config: IndexConfig, arena: Arena<D>, root: NodeId) -> Self {
        Self {
            arena,
            root,
            config,
            len: 0,
            entry_count: 0,
            pending: Vec::new(),
            inserts_since_coalesce: 0,
            stats: TreeStats::default(),
        }
    }

    /// The configuration this tree was built with.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Number of logical records inserted and not deleted.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of physical index records (leaf entries plus spanning
    /// entries). Exceeds [`Tree::len`] when records have been cut.
    pub fn entry_count(&self) -> usize {
        self.entry_count
    }

    /// Number of index nodes.
    pub fn node_count(&self) -> usize {
        self.arena.len()
    }

    /// Number of live nodes whose storage is shared with a snapshot clone
    /// of this tree (see [`Clone`] above). Zero when no clone is alive.
    pub fn shared_node_count(&self) -> usize {
        self.arena.shared_nodes()
    }

    /// Height of the tree (a lone leaf root has height 1).
    pub fn height(&self) -> u32 {
        self.arena.get(self.root).level + 1
    }

    /// The root's covering region (`None` for an empty tree).
    pub fn root_region(&self) -> Option<Rect<D>> {
        self.arena.get(self.root).content_mbr()
    }

    /// A snapshot of the tree's statistics, including the paper's
    /// node-access metric.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// An empty leaf with its block sized for this tree's leaf capacity.
    pub(crate) fn new_leaf(&self) -> Node<D> {
        Node::leaf(self.config.node_slots(0))
    }

    /// An empty internal node with its branch block sized for `level`.
    pub(crate) fn new_internal(&self, level: u32) -> Node<D> {
        Node::internal(level, self.config.node_slots(level))
    }

    #[inline]
    pub(crate) fn node(&self, id: NodeId) -> &Node<D> {
        self.arena.get(id)
    }

    #[inline]
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node<D> {
        self.arena.get_mut(id)
    }

    /// The *stored region* of a node: the rectangle recorded in its parent's
    /// branch entry. The root has no stored region.
    pub(crate) fn region_of(&self, id: NodeId) -> Option<Rect<D>> {
        let parent = self.node(id).parent?;
        let p = self.node(parent);
        let bi = p
            .branch_index_of(id)
            .expect("parent pointer without matching branch");
        Some(p.branches().rect(bi))
    }

    /// Counts one maintenance node access.
    #[inline]
    pub(crate) fn touch_maintenance(&mut self, _id: NodeId) {
        self.stats.maintenance_node_accesses += 1;
    }

    /// Reinserts queued record portions until the queue is empty. Every
    /// public mutating method calls this before returning.
    pub(crate) fn drain_pending(&mut self) {
        while let Some(p) = self.pending.pop() {
            self.insert_portion_inner(p.rect, p.record, p.allow_spanning);
        }
    }

    /// Queues a portion for reinsertion with spanning placement allowed.
    pub(crate) fn queue_reinsert(&mut self, rect: Rect<D>, record: RecordId) {
        self.pending.push(PendingInsert {
            rect,
            record,
            allow_spanning: true,
        });
    }

    /// Queues a portion for leaf-only reinsertion (pressure relief).
    pub(crate) fn queue_leaf_reinsert(&mut self, rect: Rect<D>, record: RecordId) {
        self.pending.push(PendingInsert {
            rect,
            record,
            allow_spanning: false,
        });
    }

    /// Iterates over every physical index record as `(rect, record)` pairs,
    /// in unspecified order.
    pub fn iter_entries(&self) -> impl Iterator<Item = (Rect<D>, RecordId)> + '_ {
        self.arena.iter().flat_map(|(_, node)| {
            let leaf: Vec<(Rect<D>, RecordId)> = match &node.kind {
                crate::node::NodeKind::Leaf { entries } => {
                    entries.iter().map(|e| (e.rect, e.record)).collect()
                }
                crate::node::NodeKind::Internal { spanning, .. } => {
                    spanning.iter().map(|s| (s.rect, s.record)).collect()
                }
            };
            leaf.into_iter()
        })
    }

    /// Per-level node counts, from leaves (index 0) to the root. Useful for
    /// inspecting Skeleton pre-partitioning.
    pub fn level_profile(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.height() as usize];
        for (_, node) in self.arena.iter() {
            counts[node.level as usize] += 1;
        }
        counts
    }

    /// Number of live spanning index records (leaf entries are
    /// `entry_count() - spanning_count()`).
    pub fn spanning_count(&self) -> usize {
        self.arena
            .iter()
            .filter(|(_, n)| !n.is_leaf())
            .map(|(_, n)| n.spanning().len())
            .sum()
    }
}
