//! Static bulk loading: one Sort-Tile-Recursive packer.
//!
//! The paper contrasts its *dynamic* Skeleton approach with static packing
//! algorithms "such as that suggested by \[ROUS85\]", which require all data
//! up front (§4). [`bulk_load`] is such a packer: it sorts by centre and
//! tiles the whole input √P × √P, level by level, into a fully packed,
//! balanced tree with near-100% node utilization. It is the baseline the
//! paper's dynamic structures are measured against (`--ablate build`,
//! segbench's `core.bulk` rows), the loader of the differential tests, and
//! the page layout of a sealed temporal tier on disk, which nothing
//! searches. It assumes nothing about the input or the queries; a query
//! that spans all of one dimension, whichever, crosses a whole slab: ~√N
//! nodes.

use crate::config::IndexConfig;
use crate::entry::{Branch, LeafEntry};
use crate::id::{NodeId, RecordId};
use crate::node::{Arena, Node};
use crate::tree::Tree;
use segidx_geom::Rect;

/// Builds a packed R-Tree over `items` (Sort-Tile-Recursive).
///
/// The resulting tree is a perfectly valid dynamic index — further inserts
/// and deletes behave normally — but its initial layout is the static
/// optimum the paper's dynamic structures are measured against. The
/// `segment` flag of `config` is ignored during packing (all records go to
/// leaves, as \[ROUS85\] prescribes); subsequent inserts honor it.
pub fn bulk_load<const D: usize>(config: IndexConfig, items: Vec<(Rect<D>, RecordId)>) -> Tree<D> {
    config
        .validate()
        .unwrap_or_else(|e| panic!("invalid index config: {e}"));
    // Pack leaves at ~100% of leaf capacity, then tile every upper level
    // the same way.
    let leaves = str_chunks(items, config.capacity(0), entry_rect, 0);
    build(config, leaves)
}

fn entry_rect<T, const D: usize>(entry: &(Rect<D>, T)) -> Rect<D> {
    entry.0
}

/// Builds the tree whose leaves hold `leaves`, tiling each upper level's
/// nodes with [`str_chunks`] until a single root remains.
fn build<const D: usize>(config: IndexConfig, leaves: Vec<Vec<(Rect<D>, RecordId)>>) -> Tree<D> {
    let total: usize = leaves.iter().map(Vec::len).sum();
    if total == 0 {
        return Tree::new(config);
    }
    let mut arena: Arena<D> = Arena::new();
    let mut level_nodes: Vec<(Rect<D>, NodeId)> = leaves
        .into_iter()
        .map(|chunk| {
            let mut leaf = Node::leaf(0);
            *leaf.entries_mut() = chunk
                .into_iter()
                .map(|(rect, record)| LeafEntry { rect, record })
                .collect();
            let mbr = leaf.content_mbr().expect("non-empty chunk");
            (mbr, arena.alloc(leaf))
        })
        .collect();

    // Pack upper levels until a single root remains.
    let mut level: u32 = 1;
    while level_nodes.len() > 1 {
        let chunks = str_chunks(level_nodes, config.branch_capacity(level), entry_rect, 0);
        level_nodes = chunks
            .into_iter()
            .map(|chunk| {
                let mut node = Node::internal(level, 0);
                *node.branches_mut() = chunk
                    .iter()
                    .map(|(rect, child)| Branch {
                        rect: *rect,
                        child: *child,
                    })
                    .collect();
                let mbr = node.content_mbr().expect("non-empty chunk");
                let id = arena.alloc(node);
                for (_, child) in &chunk {
                    arena.get_mut(*child).parent = Some(id);
                }
                (mbr, id)
            })
            .collect();
        level += 1;
    }

    let root = level_nodes[0].1;
    let mut tree = Tree::from_parts(config, arena, root);
    tree.len = total;
    tree.entry_count = total;
    tree
}

/// Cuts `items` into consecutive groups of `size`, the last one shorter.
/// Consumes through the iterator — `split_off` here would recopy the
/// remainder per group, turning the pack quadratic in the input.
fn runs<T>(items: Vec<T>, size: usize) -> Vec<Vec<T>> {
    let mut out = Vec::with_capacity(items.len().div_ceil(size));
    let mut it = items.into_iter();
    loop {
        let run: Vec<T> = it.by_ref().take(size).collect();
        if run.is_empty() {
            return out;
        }
        out.push(run);
    }
}

/// Sort-Tile-Recursive grouping: slices `items` into groups of at most
/// `cap`, tiling dimension `dim` first and recursing on the rest.
fn str_chunks<T, const D: usize>(
    mut items: Vec<T>,
    cap: usize,
    rect_of: impl Fn(&T) -> Rect<D> + Copy,
    dim: usize,
) -> Vec<Vec<T>> {
    debug_assert!(cap >= 1);
    let n = items.len();
    if n <= cap {
        return vec![items];
    }
    items.sort_unstable_by(|a, b| rect_of(a).center()[dim].total_cmp(&rect_of(b).center()[dim]));
    if dim == D - 1 {
        // Final dimension: fixed-size runs.
        return runs(items, cap);
    }
    // Slab count: S = ceil(P^(1/dims_left)) with P = ceil(n/cap).
    let pages = n.div_ceil(cap);
    let dims_left = (D - dim) as f64;
    let slabs = (pages as f64).powf(1.0 / dims_left).ceil() as usize;
    let slab_size = n.div_ceil(slabs.max(1));
    let mut out = Vec::new();
    let mut it = items.into_iter();
    loop {
        let slab: Vec<T> = it.by_ref().take(slab_size).collect();
        if slab.is_empty() {
            return out;
        }
        out.extend(str_chunks(slab, cap, rect_of, dim + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(n: u64) -> Vec<(Rect<2>, RecordId)> {
        (0..n)
            .map(|i| {
                let x = ((i * 61) % 1000) as f64;
                let y = ((i * 29) % 1000) as f64;
                (Rect::new([x, y], [x + 2.0, y + 2.0]), RecordId(i))
            })
            .collect()
    }

    #[test]
    fn empty_bulk_load() {
        let t = bulk_load::<2>(IndexConfig::rtree(), vec![]);
        assert!(t.is_empty());
        t.assert_invariants();
    }

    #[test]
    fn bulk_load_is_valid_and_complete() {
        let t = bulk_load(IndexConfig::rtree(), items(5_000));
        t.assert_invariants();
        assert_eq!(t.len(), 5_000);
        let all = t.search(&Rect::new([0.0, 0.0], [2000.0, 2000.0]));
        assert_eq!(all.len(), 5_000);
    }

    #[test]
    fn packed_utilization_is_high() {
        let t = bulk_load(IndexConfig::rtree(), items(10_000));
        let leaf_cap = t.config().capacity(0);
        let min_leaves = 10_000usize.div_ceil(leaf_cap);
        let leaves = t.level_profile()[0];
        assert!(
            leaves <= min_leaves + min_leaves / 10,
            "packed tree uses {leaves} leaves, optimum {min_leaves}"
        );
    }

    #[test]
    fn single_page_input() {
        let t = bulk_load(IndexConfig::rtree(), items(10));
        assert_eq!(t.height(), 1);
        t.assert_invariants();
        assert_eq!(t.search(&Rect::new([0.0, 0.0], [2000.0, 2000.0])).len(), 10);
    }

    #[test]
    fn bulk_loaded_tree_accepts_dynamic_inserts() {
        let mut t = bulk_load(IndexConfig::srtree(), items(2_000));
        for i in 0..500u64 {
            let x = (i * 2) as f64;
            t.insert(
                Rect::new([x, 500.0], [x + 800.0, 500.0]),
                RecordId(100_000 + i),
            );
        }
        t.assert_invariants();
        assert_eq!(t.len(), 2_500);
    }
}
