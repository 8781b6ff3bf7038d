//! Index nodes and the node arena.

use crate::entry::{BranchStore, LeafStore, SpanningStore};
use crate::id::NodeId;
use crate::prefetch::prefetch_range;
use segidx_geom::Rect;
use std::sync::Arc;

/// The level-dependent contents of a node. Entries live in
/// structure-of-arrays stores (see [`crate::entry`]), one contiguous block
/// per store: per-dimension coordinate planes followed by the payload
/// columns, so search scans run over contiguous `&[f64]` slices via the
/// `segidx_geom` kernels and a node is its header plus one block (two for
/// an internal node that holds spanning records).
#[derive(Clone, Debug)]
pub enum NodeKind<const D: usize> {
    /// A leaf holds external index records only.
    Leaf {
        /// The leaf's index records.
        entries: LeafStore<D>,
    },
    /// A non-leaf holds branches and — in segment (SR) mode — spanning
    /// index records linked to those branches.
    Internal {
        /// Pointers to child nodes with their covering regions.
        branches: BranchStore<D>,
        /// Spanning index records (empty unless segment mode).
        spanning: SpanningStore<D>,
    },
}

/// An index node.
#[derive(Clone, Debug)]
pub struct Node<const D: usize> {
    /// Level in the tree; 0 = leaf.
    pub level: u32,
    /// Parent node, `None` for the root.
    pub parent: Option<NodeId>,
    /// Contents.
    pub kind: NodeKind<D>,
    /// Number of times this node's contents were modified — the
    /// "least frequently modified" statistic driving coalescing (paper §4).
    pub mod_count: u64,
}

impl<const D: usize> Node<D> {
    /// Creates an empty leaf whose block holds `slots` entries before it
    /// must grow (0 defers the allocation to the first push).
    pub fn leaf(slots: usize) -> Self {
        Self {
            level: 0,
            parent: None,
            kind: NodeKind::Leaf {
                entries: LeafStore::with_capacity(slots),
            },
            mod_count: 0,
        }
    }

    /// Creates an empty internal node at `level ≥ 1` whose branch block
    /// holds `branch_slots` entries. The spanning block is allocated on
    /// first use: most internal nodes of an R-Tree never hold one.
    pub fn internal(level: u32, branch_slots: usize) -> Self {
        debug_assert!(level >= 1);
        Self {
            level,
            parent: None,
            kind: NodeKind::Internal {
                branches: BranchStore::with_capacity(branch_slots),
                spanning: SpanningStore::new(),
            },
            mod_count: 0,
        }
    }

    /// Whether this is a leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf { .. })
    }

    /// Leaf entry store (panics on internal nodes).
    pub fn entries(&self) -> &LeafStore<D> {
        match &self.kind {
            NodeKind::Leaf { entries } => entries,
            NodeKind::Internal { .. } => panic!("entries() on internal node"),
        }
    }

    /// Mutable leaf entry store (panics on internal nodes).
    pub fn entries_mut(&mut self) -> &mut LeafStore<D> {
        match &mut self.kind {
            NodeKind::Leaf { entries } => entries,
            NodeKind::Internal { .. } => panic!("entries_mut() on internal node"),
        }
    }

    /// Branch store (panics on leaves).
    pub fn branches(&self) -> &BranchStore<D> {
        match &self.kind {
            NodeKind::Internal { branches, .. } => branches,
            NodeKind::Leaf { .. } => panic!("branches() on leaf node"),
        }
    }

    /// Mutable branch store (panics on leaves).
    pub fn branches_mut(&mut self) -> &mut BranchStore<D> {
        match &mut self.kind {
            NodeKind::Internal { branches, .. } => branches,
            NodeKind::Leaf { .. } => panic!("branches_mut() on leaf node"),
        }
    }

    /// Spanning record store (panics on leaves).
    pub fn spanning(&self) -> &SpanningStore<D> {
        match &self.kind {
            NodeKind::Internal { spanning, .. } => spanning,
            NodeKind::Leaf { .. } => panic!("spanning() on leaf node"),
        }
    }

    /// Mutable spanning record store (panics on leaves).
    pub fn spanning_mut(&mut self) -> &mut SpanningStore<D> {
        match &mut self.kind {
            NodeKind::Internal { spanning, .. } => spanning,
            NodeKind::Leaf { .. } => panic!("spanning_mut() on leaf node"),
        }
    }

    /// Total occupied entry slots: leaf entries, or branches plus spanning
    /// records. This is what is compared against the node capacity.
    pub fn occupancy(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf { entries } => entries.len(),
            NodeKind::Internal { branches, spanning } => branches.len() + spanning.len(),
        }
    }

    /// The branch index pointing at `child`, if present.
    pub fn branch_index_of(&self, child: NodeId) -> Option<usize> {
        self.branches().position_of_child(child)
    }

    /// Minimal bounding rectangle of the node's *structural* contents: leaf
    /// entries for leaves, branch regions for internal nodes. Spanning
    /// records are excluded — they are kept within the node's region by
    /// cutting, never by stretching the region (paper §3.1.1).
    ///
    /// Returns `None` for an empty node.
    pub fn content_mbr(&self) -> Option<Rect<D>> {
        match &self.kind {
            NodeKind::Leaf { entries } => entries.union_all(),
            NodeKind::Internal { branches, .. } => branches.union_all(),
        }
    }

    /// Records a structural modification (for LFM tracking).
    #[inline]
    pub fn touch_modified(&mut self) {
        self.mod_count += 1;
    }

    /// Prefetches the node's entry blocks. Reads the header, so call it
    /// after [`Arena::prefetch_header`] has had time to land.
    #[inline]
    pub(crate) fn prefetch_contents(&self) {
        match &self.kind {
            NodeKind::Leaf { entries } => entries.prefetch(),
            NodeKind::Internal { branches, spanning } => {
                spanning.prefetch();
                branches.prefetch();
            }
        }
    }
}

/// Slots per chunk of the arena's slot table: 16 pointers, two cache
/// lines. A constant, not a knob — see DESIGN "Copy-on-write structural
/// sharing" for the cost model behind the value.
const CHUNK: usize = 16;

/// One refcounted run of [`CHUNK`] consecutive slots.
type Chunk<const D: usize> = Arc<[Option<Arc<Node<D>>>; CHUNK]>;

/// A slab arena of nodes with id stability and slot reuse.
///
/// The slot table is two-level and persistent: refcounted chunks of
/// `CHUNK` = 16 slots, each slot an `Arc<Node>`. An arena clone is a
/// *structural-sharing snapshot* that bumps one refcount per **chunk** —
/// N/`CHUNK` operations, no node header or entry data touched — and
/// dropping a clone walks the chunks again, descending only into those it
/// owns alone. Mutation through [`Arena::get_mut`] (and `alloc`/`dealloc`)
/// is copy-on-write at both levels via [`Arc::make_mut`]: a chunk still
/// shared with a snapshot is copied once (`CHUNK` pointer bumps), then the
/// node itself if it is shared. Per node, a writer pays only for the ones
/// it changes; what follows the size of the tree is the chunk walk of each
/// clone and drop. While an arena is uniquely owned — no snapshot
/// outstanding — `get_mut` degrades to two refcount checks and mutates in
/// place: the single-owner write path stays allocation-free.
#[derive(Clone, Debug, Default)]
pub struct Arena<const D: usize> {
    /// Slot `i` is `chunks[i / CHUNK][i % CHUNK]`; every slot below the
    /// high-water mark `live + free.len()` is live or on the free list.
    chunks: Vec<Chunk<D>>,
    free: Vec<NodeId>,
    live: usize,
}

impl<const D: usize> Arena<D> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn slot(&self, id: NodeId) -> Option<&Arc<Node<D>>> {
        self.chunks.get(id.index() / CHUNK)?[id.index() % CHUNK].as_ref()
    }

    /// Exclusive access to a slot, unsharing its chunk first.
    #[inline]
    fn slot_mut(&mut self, id: NodeId) -> &mut Option<Arc<Node<D>>> {
        &mut Arc::make_mut(&mut self.chunks[id.index() / CHUNK])[id.index() % CHUNK]
    }

    /// Inserts a node, returning its id.
    pub fn alloc(&mut self, node: Node<D>) -> NodeId {
        // With an empty free list the high-water mark is `live`.
        let id = self.free.pop().unwrap_or(NodeId(self.live as u32));
        if id.index() == self.chunks.len() * CHUNK {
            self.chunks.push(Arc::new(std::array::from_fn(|_| None)));
        }
        *self.slot_mut(id) = Some(Arc::new(node));
        self.live += 1;
        id
    }

    /// Removes a node, freeing its slot. A snapshot that still shares the
    /// node keeps it alive; this arena only drops its reference.
    pub fn dealloc(&mut self, id: NodeId) {
        self.slot_mut(id)
            .take()
            .expect("dealloc of free arena slot");
        self.free.push(id);
        self.live -= 1;
    }

    /// Shared access.
    #[inline]
    pub fn get(&self, id: NodeId) -> &Node<D> {
        self.slot(id).expect("use of freed node")
    }

    /// Prefetches the header of node `id` (the `Arc`'s payload: level,
    /// kind tag, block pointers and lengths) without reading it.
    #[inline]
    pub(crate) fn prefetch_header(&self, id: NodeId) {
        if let Some(node) = self.slot(id) {
            prefetch_range(Arc::as_ptr(node), std::mem::size_of::<Node<D>>());
        }
    }

    /// Exclusive access. Copy-on-write: if the node is shared with a
    /// snapshot, it is cloned once — header plus one block per store — and
    /// the arena points at the copy.
    #[inline]
    pub fn get_mut(&mut self, id: NodeId) -> &mut Node<D> {
        Arc::make_mut(self.slot_mut(id).as_mut().expect("use of freed node"))
    }

    /// Number of live nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the arena has no live nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over live `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node<D>)> {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.iter())
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|n| (NodeId(i as u32), n.as_ref())))
    }

    /// Number of live nodes another arena clone can reach through the same
    /// allocation: the node's chunk or the node itself has a strong count
    /// above one. Zero when no snapshot is outstanding.
    pub fn shared_nodes(&self) -> usize {
        self.chunks
            .iter()
            .map(|chunk| {
                let chunk_shared = Arc::strong_count(chunk) > 1;
                chunk
                    .iter()
                    .flatten()
                    .filter(|n| chunk_shared || Arc::strong_count(n) > 1)
                    .count()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{Branch, SpanningEntry};
    use crate::id::RecordId;

    fn rect(x0: f64, x1: f64) -> Rect<2> {
        Rect::new([x0, 0.0], [x1, 1.0])
    }

    #[test]
    fn arena_alloc_dealloc_reuses_slots() {
        let mut arena: Arena<2> = Arena::new();
        let a = arena.alloc(Node::leaf(0));
        let b = arena.alloc(Node::leaf(0));
        assert_eq!(arena.len(), 2);
        arena.dealloc(a);
        assert_eq!(arena.len(), 1);
        let c = arena.alloc(Node::internal(1, 0));
        assert_eq!(c, a, "slot reused");
        assert_eq!(arena.len(), 2);
        assert!(!arena.get(c).is_leaf());
        let ids: Vec<_> = arena.iter().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), 2);
        let _ = b;
    }

    #[test]
    fn clone_bumps_chunk_refcounts_not_node_refcounts() {
        let mut arena: Arena<2> = Arena::new();
        let ids: Vec<NodeId> = (0..2 * CHUNK + 3)
            .map(|_| arena.alloc(Node::leaf(0)))
            .collect();
        assert_eq!(arena.chunks.len(), 3);
        let snap = arena.clone();
        for &id in &ids {
            let (ours, theirs) = (arena.slot(id).unwrap(), snap.slot(id).unwrap());
            assert!(Arc::ptr_eq(ours, theirs));
            assert_eq!(Arc::strong_count(ours), 1, "no per-node bump");
        }
        assert!(arena.chunks.iter().all(|c| Arc::strong_count(c) == 2));
        assert_eq!(arena.shared_nodes(), ids.len());

        // A write unshares its chunk (CHUNK pointer bumps) and its node;
        // the other chunks stay shared as wholes.
        arena.get_mut(ids[CHUNK]).touch_modified();
        assert_eq!(snap.get(ids[CHUNK]).mod_count, 0);
        let counts =
            |a: &Arena<2>| -> Vec<usize> { a.chunks.iter().map(Arc::strong_count).collect() };
        assert_eq!(counts(&arena), [2, 1, 2]);
        assert_eq!(Arc::strong_count(arena.slot(ids[CHUNK]).unwrap()), 1);
        assert_eq!(Arc::strong_count(arena.slot(ids[CHUNK + 1]).unwrap()), 2);
        assert_eq!(arena.shared_nodes(), ids.len() - 1);

        drop(snap);
        assert_eq!(arena.shared_nodes(), 0);
    }

    #[test]
    #[should_panic]
    fn use_after_free_panics() {
        let mut arena: Arena<2> = Arena::new();
        let a = arena.alloc(Node::leaf(0));
        arena.dealloc(a);
        let _ = arena.get(a);
    }

    #[test]
    fn occupancy_counts_branches_and_spanning() {
        let mut n: Node<2> = Node::internal(1, 0);
        n.branches_mut().push(Branch {
            rect: rect(0.0, 1.0),
            child: NodeId(5),
        });
        n.spanning_mut().push(SpanningEntry {
            rect: rect(0.0, 1.0),
            record: RecordId(1),
            linked_child: NodeId(5),
        });
        n.spanning_mut().push(SpanningEntry {
            rect: rect(0.2, 0.9),
            record: RecordId(2),
            linked_child: NodeId(5),
        });
        assert_eq!(n.occupancy(), 3);
        assert_eq!(n.branch_index_of(NodeId(5)), Some(0));
        assert_eq!(n.branch_index_of(NodeId(6)), None);
    }

    #[test]
    fn content_mbr_ignores_spanning() {
        let mut n: Node<2> = Node::internal(1, 0);
        n.branches_mut().push(Branch {
            rect: rect(0.0, 1.0),
            child: NodeId(1),
        });
        n.branches_mut().push(Branch {
            rect: rect(2.0, 3.0),
            child: NodeId(2),
        });
        n.spanning_mut().push(SpanningEntry {
            rect: rect(-100.0, 100.0),
            record: RecordId(9),
            linked_child: NodeId(1),
        });
        assert_eq!(n.content_mbr(), Some(rect(0.0, 3.0)));
    }

    #[test]
    fn empty_node_has_no_mbr() {
        let n: Node<2> = Node::leaf(0);
        assert!(n.content_mbr().is_none());
        let n: Node<2> = Node::internal(1, 0);
        assert!(n.content_mbr().is_none());
    }
}
