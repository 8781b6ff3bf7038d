//! Index node entries: leaf records, branches, and spanning records —
//! plus the structure-of-arrays stores that hold them inside nodes.
//!
//! Nodes do **not** store `Vec<LeafEntry>` etc. directly. Each store keeps
//! its entries in **one contiguous block** (the private `Block` type): the
//! rectangles as per-dimension `lo`/`hi` coordinate planes followed by the
//! payload columns, laid back to back at a stride that follows the live
//! entry count, inside a single capacity-sized allocation. The
//! search hot loops hand the planes as contiguous `&[f64]` slices straight
//! to the branchless scan kernels in `segidx_geom`, a traversal can prefetch
//! a child's whole contents through one pointer, and copying a node under a
//! live snapshot is one allocation and one `memcpy`. The entry structs
//! ([`LeafEntry`], [`Branch`], [`SpanningEntry`]) survive as *views*:
//! mutation paths and invariant logic work with whole entries reconstructed
//! on demand, which keeps them readable while the layout stays
//! scan-friendly.

use crate::id::{NodeId, RecordId};
use crate::prefetch::prefetch_range;
use segidx_geom::{Coord, Rect};
use std::fmt;

/// An external index record on a leaf node: a rectangle plus the id of the
/// data record it describes.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LeafEntry<const D: usize> {
    /// The indexed geometry (a point, segment, or box).
    pub rect: Rect<D>,
    /// The data record this entry points at.
    pub record: RecordId,
}

/// An internal branch on a non-leaf node: the stored covering region of a
/// child node plus the child's id.
///
/// In plain R-Trees the stored region is the minimal bounding rectangle of
/// the child's contents; in Skeleton indexes it may be a larger pre-allocated
/// tile (paper §4). Search correctness only requires that the stored region
/// covers everything reachable through the child.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Branch<const D: usize> {
    /// Covering region of the child.
    pub rect: Rect<D>,
    /// The child node.
    pub child: NodeId,
}

/// A *spanning index record* stored on a non-leaf node (paper §3.1.1,
/// Figure 2): an external record that spans the region of one of the node's
/// branches, linked to that branch.
///
/// Invariants maintained by the tree:
/// * `rect` spans (in at least one dimension) and intersects the region of
///   the branch whose child is [`SpanningEntry::linked_child`];
/// * `rect` is wholly contained by the region of the node storing the entry
///   (enforced by cutting; not applicable to the root, which has no stored
///   region).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SpanningEntry<const D: usize> {
    /// The (possibly cut) indexed geometry.
    pub rect: Rect<D>,
    /// The data record this entry points at.
    pub record: RecordId,
    /// The child id of the branch this entry is linked to.
    pub linked_child: NodeId,
}

/// A payload value that rides in a [`Block`] column. Ids are stored as
/// `f64` *bit patterns* so coordinates and payload share one `[f64]`
/// allocation in safe code, with no pointer cast; they are never used as
/// numbers, and loads, stores and copies of an `f64` preserve every bit
/// (NaN payloads included) on the targets this crate supports.
trait Slot: Copy {
    fn to_slot(self) -> Coord;
    fn from_slot(slot: Coord) -> Self;
}

impl Slot for RecordId {
    #[inline]
    fn to_slot(self) -> Coord {
        Coord::from_bits(self.0)
    }
    #[inline]
    fn from_slot(slot: Coord) -> Self {
        RecordId(slot.to_bits())
    }
}

impl Slot for NodeId {
    #[inline]
    fn to_slot(self) -> Coord {
        Coord::from_bits(u64::from(self.0))
    }
    #[inline]
    fn from_slot(slot: Coord) -> Self {
        // Only ever written by `to_slot`, so the high half is zero.
        NodeId(slot.to_bits() as u32)
    }
}

/// Slots a block's stride is rounded up to. A stride of exactly `len`
/// would move the higher columns on every push and remove; rounding up to
/// an even count moves them on every other one and leaves at most one dead
/// slot between planes.
const STRIDE_QUANTUM: usize = 2;

/// The stride a block of `len` live entries is laid at: `len` rounded up
/// to [`STRIDE_QUANTUM`], but never past the capacity `cap`.
#[inline]
fn stride_for(len: usize, cap: usize) -> usize {
    len.next_multiple_of(STRIDE_QUANTUM).min(cap)
}

/// One store's single heap block: room for `capacity` entries in each of
/// `cols` columns, laid out at the *live* count rather than the capacity.
/// Column `c` occupies `buf[c * stride..][..stride]` with its first `len`
/// slots live, and `stride` is `len` rounded up to [`STRIDE_QUANTUM`], so
/// the columns sit back to back and the spare capacity is one tail after
/// the last column.
///
/// ```text
///          ┌─ stride ─┐
/// buf ───▶ │ lo[0]  ▮▮▮▮▮▮▮▮▮░ │  coordinate planes: lo[0..D], hi[0..D]
///          │ lo[1]  ▮▮▮▮▮▮▮▮▮░ │
///          │ hi[0]  ▮▮▮▮▮▮▮▮▮░ │  ▮ live (`len`)   ░ rounding slot
///          │ hi[1]  ▮▮▮▮▮▮▮▮▮░ │
///          │ record ▮▮▮▮▮▮▮▮▮░ │  payload columns (ids as bit patterns)
///          │ spare  ░░░░░░░░░░░░░░░░░░░░░░░░░░  (capacity − stride) · cols slots
/// ```
///
/// Columns `0..D` are the `lo` planes, `D..2D` the `hi` planes, the rest
/// payload. The capacity is fixed when the block is allocated — the tree
/// sizes it from the level's node capacity, so a node's block is allocated
/// once — and doubles only when a push finds the block full (elastic
/// overflow, stores built without a capacity). The stride follows `len`:
/// a push that finds `len == stride` moves columns `1..` up, and removals
/// move them back down, so a scan or a prefetch of the block reads the live
/// entries plus at most one slot per column.
///
/// The capacity is not stored: it is `buf.len() / cols`.
struct Block<const D: usize> {
    buf: Box<[Coord]>,
    len: u32,
    stride: u32,
}

impl<const D: usize> Block<D> {
    fn with_capacity(cap: usize, cols: usize) -> Self {
        assert!(u32::try_from(cap).is_ok(), "store capacity fits u32");
        Self {
            buf: vec![0.0; cap * cols].into_boxed_slice(),
            len: 0,
            stride: 0,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    fn capacity(&self, cols: usize) -> usize {
        self.buf.len() / cols
    }

    /// The live slots of column `c`.
    #[inline]
    fn col(&self, c: usize) -> &[Coord] {
        let start = c * self.stride as usize;
        &self.buf[start..start + self.len as usize]
    }

    #[inline]
    fn col_mut(&mut self, c: usize) -> &mut [Coord] {
        let start = c * self.stride as usize;
        &mut self.buf[start..start + self.len as usize]
    }

    #[inline]
    fn rect(&self, i: usize) -> Rect<D> {
        Rect::new(
            std::array::from_fn(|d| self.col(d)[i]),
            std::array::from_fn(|d| self.col(D + d)[i]),
        )
    }

    #[inline]
    fn set_rect(&mut self, i: usize, rect: &Rect<D>) {
        for d in 0..D {
            self.col_mut(d)[i] = rect.lo(d);
            self.col_mut(D + d)[i] = rect.hi(d);
        }
    }

    /// Opens slot `len` for writing, making room first when the stride is
    /// full.
    #[inline]
    fn push_slot(&mut self, cols: usize) -> usize {
        if self.len == self.stride {
            self.reserve(1, cols);
        }
        self.len += 1;
        self.len as usize - 1
    }

    /// Lays the columns out for `len + extra` entries: grows the block when
    /// the capacity is short, else widens the stride in place.
    fn reserve(&mut self, extra: usize, cols: usize) {
        let want = self.len() + extra;
        let cap = self.capacity(cols);
        if want > cap {
            self.grow(want, cols);
        } else if want > self.stride as usize {
            self.restride(stride_for(want, cap), cols);
        }
    }

    /// Narrows the stride to the live count after entries left.
    #[inline]
    fn fit(&mut self, cols: usize) {
        let stride = stride_for(self.len(), self.capacity(cols));
        if stride != self.stride as usize {
            self.restride(stride, cols);
        }
    }

    /// Moves columns `1..cols` to `stride`, each carrying its live slots.
    /// Widening walks the columns from the top down and narrowing from the
    /// bottom up, so no column lands on one that has not moved yet.
    fn restride(&mut self, stride: usize, cols: usize) {
        let (old, len) = (self.stride as usize, self.len());
        debug_assert!(len <= stride && stride * cols <= self.buf.len());
        let mut shift = |c: usize| self.buf.copy_within(c * old..c * old + len, c * stride);
        if stride > old {
            (1..cols).rev().for_each(&mut shift);
        } else {
            (1..cols).for_each(&mut shift);
        }
        self.stride = stride as u32;
    }

    /// Moves into a block of at least twice the capacity, holding `want`
    /// entries: one allocation, one copy of each column's live slots.
    #[cold]
    fn grow(&mut self, want: usize, cols: usize) {
        let cap = want.max(2 * self.capacity(cols)).max(4);
        let mut wider = Self::with_capacity(cap, cols);
        wider.len = self.len;
        wider.stride = stride_for(want, cap) as u32;
        for c in 0..cols {
            wider.col_mut(c).copy_from_slice(self.col(c));
        }
        *self = wider;
    }

    /// Slots from the start of the block to the last live slot of column
    /// `cols - 1`: all a reader of the live entries can touch.
    #[inline]
    fn used(&self, cols: usize) -> usize {
        (cols - 1) * self.stride as usize + self.len()
    }

    /// A copy with the same capacity that copies only the used prefix.
    fn clone_used(&self, cols: usize) -> Self {
        let used = self.used(cols);
        let mut buf = Vec::with_capacity(self.buf.len());
        buf.extend_from_slice(&self.buf[..used]);
        buf.resize(self.buf.len(), 0.0);
        Self {
            buf: buf.into_boxed_slice(),
            len: self.len,
            stride: self.stride,
        }
    }

    /// Moves the last entry into slot `i` and drops the last slot.
    #[inline]
    fn swap_remove(&mut self, i: usize, cols: usize) {
        let last = self.len() - 1;
        for c in 0..cols {
            let col = self.col_mut(c);
            col[i] = col[last];
        }
        self.len -= 1;
        self.fit(cols);
    }

    #[inline]
    fn truncate(&mut self, len: usize, cols: usize) {
        self.len = self.len.min(u32::try_from(len).unwrap_or(u32::MAX));
        self.fit(cols);
    }

    #[inline]
    fn planes(&self) -> ([&[Coord]; D], [&[Coord]; D]) {
        (
            std::array::from_fn(|d| self.col(d)),
            std::array::from_fn(|d| self.col(D + d)),
        )
    }

    fn union_all(&self) -> Option<Rect<D>> {
        if self.len == 0 {
            return None;
        }
        let lo = std::array::from_fn(|d| self.col(d).iter().copied().fold(f64::INFINITY, f64::min));
        let hi = std::array::from_fn(|d| {
            self.col(D + d)
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        });
        Some(Rect::new(lo, hi))
    }

    /// Prefetches the used prefix of the block: everything a scan plus a
    /// gather of its matches can touch.
    #[inline]
    fn prefetch(&self, cols: usize) {
        if self.len > 0 {
            prefetch_range(
                self.buf.as_ptr(),
                self.used(cols) * std::mem::size_of::<Coord>(),
            );
        }
    }
}

/// Generates the shared Vec-like entry-view API for one store type. Each
/// store is one [`Block`] whose payload columns follow the coordinate
/// planes; the macro wires the entry struct (the *view*) to the columns so
/// mutation code reads like it did when nodes held `Vec<Entry>`.
macro_rules! soa_store {
    (
        $(#[$doc:meta])*
        $store:ident, $entry:ident, $rect_field:ident,
        { $( $field:ident : $fty:ty = $col:expr ),+ $(,)? }
    ) => {
        $(#[$doc])*
        pub struct $store<const D: usize> {
            block: Block<D>,
        }

        impl<const D: usize> $store<D> {
            /// Columns per block: the coordinate planes plus the payload.
            const COLS: usize = 2 * D + [$( $col ),+].len();

            /// An empty store; allocates nothing until the first push.
            pub fn new() -> Self {
                Self::with_capacity(0)
            }

            /// An empty store whose block already holds `slots` entries.
            pub fn with_capacity(slots: usize) -> Self {
                Self {
                    block: Block::with_capacity(slots, Self::COLS),
                }
            }

            /// Number of entries.
            #[inline]
            pub fn len(&self) -> usize {
                self.block.len()
            }

            /// Whether the store is empty.
            #[inline]
            pub fn is_empty(&self) -> bool {
                self.block.len == 0
            }

            /// Entries the block holds before it must grow.
            #[inline]
            pub fn capacity(&self) -> usize {
                self.block.capacity(Self::COLS)
            }

            /// Entry `i` as a by-value view.
            #[inline]
            pub fn get(&self, i: usize) -> $entry<D> {
                $entry {
                    $rect_field: self.block.rect(i),
                    $( $field: <$fty>::from_slot(self.block.col(2 * D + $col)[i]), )+
                }
            }

            /// Rectangle of entry `i` (no payload gather).
            #[inline]
            pub fn rect(&self, i: usize) -> Rect<D> {
                self.block.rect(i)
            }

            /// Overwrites the rectangle of entry `i`.
            #[inline]
            pub fn set_rect(&mut self, i: usize, rect: &Rect<D>) {
                self.block.set_rect(i, rect);
            }

            /// Overwrites entry `i`.
            #[inline]
            fn set(&mut self, i: usize, e: &$entry<D>) {
                self.block.set_rect(i, &e.$rect_field);
                $( self.block.col_mut(2 * D + $col)[i] = e.$field.to_slot(); )+
            }

            /// Appends an entry.
            #[inline]
            pub fn push(&mut self, e: $entry<D>) {
                let i = self.block.push_slot(Self::COLS);
                self.set(i, &e);
            }

            /// Removes entry `i` by swapping in the last one.
            #[inline]
            pub fn swap_remove(&mut self, i: usize) -> $entry<D> {
                let e = self.get(i);
                self.block.swap_remove(i, Self::COLS);
                e
            }

            /// Drops all entries, keeping the block.
            pub fn clear(&mut self) {
                self.block.truncate(0, Self::COLS);
            }

            /// Iterates entry views in storage order.
            pub fn iter(&self) -> impl Iterator<Item = $entry<D>> + '_ {
                (0..self.len()).map(move |i| self.get(i))
            }

            /// Keeps only entries satisfying `pred`, preserving order.
            pub fn retain(&mut self, mut pred: impl FnMut(&$entry<D>) -> bool) {
                let mut kept = 0;
                for i in 0..self.len() {
                    let e = self.get(i);
                    if pred(&e) {
                        if kept != i {
                            self.set(kept, &e);
                        }
                        kept += 1;
                    }
                }
                self.truncate(kept);
            }

            /// Shortens the store to `len` entries.
            pub fn truncate(&mut self, len: usize) {
                self.block.truncate(len, Self::COLS);
            }

            /// Moves all entries out into a `Vec` of views (for
            /// redistribution algorithms that shuffle whole entries),
            /// leaving the store empty with its block intact.
            pub fn take_vec(&mut self) -> Vec<$entry<D>> {
                let out: Vec<$entry<D>> = self.iter().collect();
                self.clear();
                out
            }

            /// Replaces the store's contents with `entries`.
            pub fn assign(&mut self, entries: Vec<$entry<D>>) {
                self.clear();
                self.extend(entries);
            }

            /// The `(lo, hi)` coordinate planes for scan kernels: `2 * D`
            /// slices of exactly [`len`](Self::len) elements each.
            #[inline]
            pub fn planes(&self) -> ([&[Coord]; D], [&[Coord]; D]) {
                self.block.planes()
            }

            /// Union of all entry rectangles, `None` when empty.
            pub fn union_all(&self) -> Option<Rect<D>> {
                self.block.union_all()
            }

            /// Prefetches the live part of the block.
            #[inline]
            pub(crate) fn prefetch(&self) {
                self.block.prefetch(Self::COLS);
            }
        }

        /// A copy with the same capacity; only the used prefix of the
        /// block is copied.
        impl<const D: usize> Clone for $store<D> {
            fn clone(&self) -> Self {
                Self {
                    block: self.block.clone_used(Self::COLS),
                }
            }
        }

        impl<const D: usize> Default for $store<D> {
            fn default() -> Self {
                Self::new()
            }
        }

        /// Equality is over the live entries; capacity and whatever dead
        /// slots hold do not take part.
        impl<const D: usize> PartialEq for $store<D> {
            fn eq(&self, other: &Self) -> bool {
                self.len() == other.len() && self.iter().eq(other.iter())
            }
        }

        impl<const D: usize> fmt::Debug for $store<D> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.iter()).finish()
            }
        }

        impl<const D: usize> Extend<$entry<D>> for $store<D> {
            /// Lays the columns out once for the iterator's lower size
            /// bound, so a batch moves them at most once.
            fn extend<I: IntoIterator<Item = $entry<D>>>(&mut self, iter: I) {
                let iter = iter.into_iter();
                self.block.reserve(iter.size_hint().0, Self::COLS);
                for e in iter {
                    self.push(e);
                }
                self.block.fit(Self::COLS);
            }
        }

        /// Collects into a block sized by the iterator's lower size bound —
        /// exact for the bulk loader's chunks.
        impl<const D: usize> FromIterator<$entry<D>> for $store<D> {
            fn from_iter<I: IntoIterator<Item = $entry<D>>>(iter: I) -> Self {
                let iter = iter.into_iter();
                let mut s = Self::with_capacity(iter.size_hint().0);
                s.extend(iter);
                s
            }
        }
    };
}

soa_store!(
    /// SoA store of a leaf's index records: coordinate planes plus the
    /// record-id column, in one block.
    LeafStore, LeafEntry, rect,
    {
        record: RecordId = 0,
    }
);

soa_store!(
    /// SoA store of an internal node's branches: coordinate planes plus
    /// the child-id column, in one block.
    BranchStore, Branch, rect,
    {
        child: NodeId = 0,
    }
);

soa_store!(
    /// SoA store of an internal node's spanning records: coordinate
    /// planes plus record-id and linked-child columns, in one block.
    SpanningStore, SpanningEntry, rect,
    {
        record: RecordId = 0,
        linked_child: NodeId = 1,
    }
);

impl<const D: usize> LeafStore<D> {
    /// The record ids in storage order.
    pub fn records(&self) -> impl Iterator<Item = RecordId> + '_ {
        self.block
            .col(2 * D)
            .iter()
            .map(|&s| RecordId::from_slot(s))
    }

    /// Record id of entry `i`.
    #[inline]
    pub fn record(&self, i: usize) -> RecordId {
        RecordId::from_slot(self.block.col(2 * D)[i])
    }
}

impl<const D: usize> BranchStore<D> {
    /// The child ids in storage order.
    pub fn children(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.block.col(2 * D).iter().map(|&s| NodeId::from_slot(s))
    }

    /// Child id of branch `i`.
    #[inline]
    pub fn child(&self, i: usize) -> NodeId {
        NodeId::from_slot(self.block.col(2 * D)[i])
    }

    /// Index of the branch pointing at `child`, if present.
    #[inline]
    pub fn position_of_child(&self, child: NodeId) -> Option<usize> {
        self.children().position(|c| c == child)
    }
}

impl<const D: usize> SpanningStore<D> {
    /// Record id of entry `i`.
    #[inline]
    pub fn record(&self, i: usize) -> RecordId {
        RecordId::from_slot(self.block.col(2 * D)[i])
    }

    /// Linked child of entry `i`.
    #[inline]
    pub fn linked_child(&self, i: usize) -> NodeId {
        NodeId::from_slot(self.block.col(2 * D + 1)[i])
    }

    /// Whether any entry is linked to `child` (reads the linked-child
    /// column only).
    #[inline]
    pub(crate) fn links_to(&self, child: NodeId) -> bool {
        self.block
            .col(2 * D + 1)
            .iter()
            .any(|&s| NodeId::from_slot(s) == child)
    }

    /// Relinks entry `i` to another branch's child.
    #[inline]
    pub fn set_linked_child(&mut self, i: usize, child: NodeId) {
        self.block.col_mut(2 * D + 1)[i] = child.to_slot();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_small() {
        // The paper derives node capacities from a fixed entry size; keep
        // the in-memory representations compact as well.
        assert!(std::mem::size_of::<LeafEntry<2>>() <= 40);
        assert!(std::mem::size_of::<Branch<2>>() <= 40);
        assert!(std::mem::size_of::<SpanningEntry<2>>() <= 48);
    }

    fn entry(x0: f64, x1: f64, id: u64) -> LeafEntry<2> {
        LeafEntry {
            rect: Rect::new([x0, 0.0], [x1, 1.0]),
            record: RecordId(id),
        }
    }

    #[test]
    fn ids_survive_the_block_bit_for_bit() {
        // Payload ids ride as f64 bit patterns: every pattern must come
        // back unchanged, the NaN-shaped ones (quiet, signalling, negative)
        // and the subnormal-shaped node ids included.
        let patterns = [
            0,
            1,
            u64::from(u32::MAX),
            0x7FF0_0000_0000_0001, // signalling NaN
            0x7FF8_0000_0000_0000, // quiet NaN
            0xFFF0_0000_0000_0000, // -inf
            0x8000_0000_0000_0000, // -0.0
            u64::MAX,
        ];
        let mut s: SpanningStore<2> = SpanningStore::new();
        for (i, &bits) in patterns.iter().enumerate() {
            s.push(SpanningEntry {
                rect: Rect::new([0.0, 0.0], [1.0, 1.0]),
                record: RecordId(bits),
                linked_child: NodeId(bits as u32 ^ i as u32),
            });
        }
        // Survives growth (4 -> 8), a clone, and a swap_remove shuffle.
        let mut t = s.clone();
        for (i, &bits) in patterns.iter().enumerate() {
            assert_eq!(s.record(i), RecordId(bits));
            assert_eq!(s.linked_child(i), NodeId(bits as u32 ^ i as u32));
        }
        assert_eq!(t.swap_remove(0).record, RecordId(0));
        assert_eq!(t.record(0), RecordId(u64::MAX));
        assert_eq!(s, s.clone());
    }

    #[test]
    fn store_roundtrips_entries() {
        let mut s: LeafStore<2> = LeafStore::new();
        for i in 0..10 {
            s.push(entry(i as f64, i as f64 + 2.0, i));
        }
        assert_eq!(s.len(), 10);
        for i in 0..10 {
            assert_eq!(s.get(i), entry(i as f64, i as f64 + 2.0, i as u64));
        }
        let collected: Vec<_> = s.iter().collect();
        assert_eq!(collected.len(), 10);
        assert_eq!(collected[3], s.get(3));
    }

    #[test]
    fn planes_are_parallel_and_contiguous() {
        let mut s: LeafStore<2> = LeafStore::new();
        s.push(entry(1.0, 4.0, 1));
        s.push(entry(2.0, 6.0, 2));
        let (los, his) = s.planes();
        assert_eq!(los[0], &[1.0, 2.0]);
        assert_eq!(his[0], &[4.0, 6.0]);
        assert_eq!(los[1], &[0.0, 0.0]);
        assert_eq!(his[1], &[1.0, 1.0]);
        assert_eq!(s.records().collect::<Vec<_>>(), [RecordId(1), RecordId(2)]);
    }

    #[test]
    fn swap_remove_and_retain_match_vec_semantics() {
        let mut s: LeafStore<2> = LeafStore::new();
        let mut model: Vec<LeafEntry<2>> = Vec::new();
        for i in 0..12 {
            let e = entry(i as f64, i as f64 + 1.0, i);
            s.push(e);
            model.push(e);
        }
        assert_eq!(s.swap_remove(4), model.swap_remove(4));
        assert_eq!(s.iter().collect::<Vec<_>>(), model);
        s.retain(|e| e.record.0 % 3 != 0);
        model.retain(|e| e.record.0 % 3 != 0);
        assert_eq!(s.iter().collect::<Vec<_>>(), model);
    }

    #[test]
    fn take_vec_empties_the_store() {
        let mut s: LeafStore<2> = LeafStore::new();
        s.push(entry(0.0, 1.0, 7));
        s.push(entry(5.0, 9.0, 8));
        let v = s.take_vec();
        assert_eq!(v.len(), 2);
        assert!(s.is_empty());
        s.extend(v);
        assert_eq!(s.len(), 2);
        assert_eq!(s.record(1), RecordId(8));
    }

    #[test]
    fn set_rect_and_union_all() {
        let mut s: BranchStore<2> = BranchStore::new();
        s.push(Branch {
            rect: Rect::new([0.0, 0.0], [1.0, 1.0]),
            child: NodeId(1),
        });
        s.push(Branch {
            rect: Rect::new([5.0, 5.0], [6.0, 6.0]),
            child: NodeId(2),
        });
        s.set_rect(0, &Rect::new([-1.0, 0.0], [2.0, 1.0]));
        assert_eq!(s.rect(0), Rect::new([-1.0, 0.0], [2.0, 1.0]));
        assert_eq!(s.child(0), NodeId(1));
        assert_eq!(s.union_all(), Some(Rect::new([-1.0, 0.0], [6.0, 6.0])));
        assert_eq!(s.position_of_child(NodeId(2)), Some(1));
        assert_eq!(s.position_of_child(NodeId(9)), None);
    }

    #[test]
    fn spanning_store_relinks() {
        let mut s: SpanningStore<2> = SpanningStore::new();
        s.push(SpanningEntry {
            rect: Rect::new([0.0, 0.0], [10.0, 0.0]),
            record: RecordId(3),
            linked_child: NodeId(1),
        });
        assert!(s.links_to(NodeId(1)));
        s.set_linked_child(0, NodeId(4));
        assert_eq!(s.linked_child(0), NodeId(4));
        assert!(s.links_to(NodeId(4)) && !s.links_to(NodeId(1)));
        assert_eq!(s.record(0), RecordId(3));
    }
}
