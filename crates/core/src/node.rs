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

/// A slab arena of nodes with id stability and slot reuse.
///
/// Slots hold `Arc<Node>` so an arena clone is a *structural-sharing
/// snapshot*: cloning copies one refcounted pointer per node (no entry
/// data), and subsequent mutation through [`Arena::get_mut`] copies only
/// the nodes it actually touches (copy-on-write via [`Arc::make_mut`]).
/// While an arena is uniquely owned — the common case, with no snapshot
/// outstanding — `get_mut` degrades to a refcount check and mutates in
/// place, so the single-owner write path stays allocation-free.
#[derive(Clone, Debug, Default)]
pub struct Arena<const D: usize> {
    slots: Vec<Option<Arc<Node<D>>>>,
    free: Vec<NodeId>,
    live: usize,
}

impl<const D: usize> Arena<D> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a node, returning its id.
    pub fn alloc(&mut self, node: Node<D>) -> NodeId {
        self.live += 1;
        if let Some(id) = self.free.pop() {
            self.slots[id.index()] = Some(Arc::new(node));
            id
        } else {
            let id = NodeId(self.slots.len() as u32);
            self.slots.push(Some(Arc::new(node)));
            id
        }
    }

    /// Removes a node, freeing its slot. A snapshot that still shares the
    /// node keeps it alive; this arena only drops its reference.
    pub fn dealloc(&mut self, id: NodeId) {
        self.slots[id.index()]
            .take()
            .expect("dealloc of free arena slot");
        self.free.push(id);
        self.live -= 1;
    }

    /// Shared access.
    #[inline]
    pub fn get(&self, id: NodeId) -> &Node<D> {
        self.slots[id.index()].as_ref().expect("use of freed node")
    }

    /// Prefetches the header of node `id` (the `Arc`'s payload: level,
    /// kind tag, block pointers and lengths) without reading it.
    #[inline]
    pub(crate) fn prefetch_header(&self, id: NodeId) {
        if let Some(Some(node)) = self.slots.get(id.index()) {
            prefetch_range(Arc::as_ptr(node), std::mem::size_of::<Node<D>>());
        }
    }

    /// Exclusive access. Copy-on-write: if the node is shared with a
    /// snapshot, it is cloned once — header plus one block per store — and
    /// the arena points at the copy.
    #[inline]
    pub fn get_mut(&mut self, id: NodeId) -> &mut Node<D> {
        Arc::make_mut(self.slots[id.index()].as_mut().expect("use of freed node"))
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
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|n| (NodeId(i as u32), n.as_ref())))
    }

    /// Number of live nodes whose storage is shared with another arena
    /// clone (refcount > 1). Zero when no snapshot is outstanding.
    pub fn shared_nodes(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .filter(|n| Arc::strong_count(n) > 1)
            .count()
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
