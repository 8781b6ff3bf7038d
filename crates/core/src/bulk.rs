//! Static bulk loading: two packers over one Sort-Tile-Recursive step.
//!
//! The paper contrasts its *dynamic* Skeleton approach with static packing
//! algorithms "such as that suggested by \[ROUS85\]", which require all data
//! up front (§4). This module provides such packed R-Tree builders: fully
//! packed, balanced trees with near-100% node utilization. They differ in
//! what they assume about the input, and so in how they tile it:
//!
//! * [`bulk_load`] assumes **nothing**. It sorts by centre and tiles the
//!   whole input √P × √P, level by level — the baseline the paper's
//!   dynamic structures are measured against, and the loader for input and
//!   queries of any shape (the differential tests, segbench's `core.bulk`
//!   rows). A query that spans all of one dimension, whichever, crosses a
//!   whole slab: ~√N nodes.
//! * [`bulk_load_run`] is for input that is a **run along dimension 0** —
//!   records that arrive ordered by `hi(0)`, as the closed versions of a
//!   temporal tier do — read mostly by queries that are short in that
//!   dimension (`AS OF`, `WITHIN`). It keeps the order above the leaves,
//!   so every upper node is a band of end times and such a query reads a
//!   number of nodes set by how long records live, not by N (on
//!   `serve-temporal`'s stream 36–40 nodes per `AS OF` at 8 k, 131 k and
//!   524 k entries, where the global tiling reads 47, 101 and 181).
//!
//! Neither subsumes the other. Bands pay where a query is long in
//! dimension 0: it reads every band it crosses, so a window 200 records
//! wide and a twentieth of the values high reads 14 nodes against 10, and
//! one value band over a whole 524 k tier 4 175 against 389. The caller
//! knows its input and its queries; nothing here guesses.

use crate::config::IndexConfig;
use crate::entry::{Branch, LeafEntry};
use crate::id::{NodeId, RecordId};
use crate::node::{Arena, Node};
use crate::tree::Tree;
use segidx_geom::{Coord, Rect};

/// Builds a packed R-Tree over `items` (Sort-Tile-Recursive).
///
/// The resulting tree is a perfectly valid dynamic index — further inserts
/// and deletes behave normally — but its initial layout is the static
/// optimum the paper's dynamic structures are measured against. The
/// `segment` flag of `config` is ignored during packing (all records go to
/// leaves, as \[ROUS85\] prescribes); subsequent inserts honor it.
pub fn bulk_load<const D: usize>(config: IndexConfig, items: Vec<(Rect<D>, RecordId)>) -> Tree<D> {
    validated(&config);
    // Pack leaves at ~100% of leaf capacity, then tile every upper level
    // the same way.
    let leaves = str_chunks(items, config.capacity(0), entry_rect, 0);
    build(config, leaves, |nodes, cap| {
        str_chunks(nodes, cap, entry_rect, 0)
    })
}

/// Builds a packed tree over `items` that form a **run along dimension 0**:
/// they arrived (nearly) ordered by `hi(0)`, the way closed versions reach
/// a temporal tier — end times follow the clock.
///
/// [`bulk_load`] throws that order away: it sorts by centre and tiles the
/// whole input √P × √P, so a line query across dimension 1 (an `AS OF`)
/// crosses a whole slab and reads ~√N nodes. This tiler keeps it. It
/// sorts by `hi(0)`, ties in arrival order (linear on a run), cuts it into
/// *pieces* of about one level-1 node's worth of leaves, tiles each piece
/// on its own with the same Sort-Tile-Recursive step, and groups every
/// upper level from consecutive nodes. Every node above the leaves then
/// covers one band of `hi(0)`, a query at `t` meets only the bands that
/// end at or after `t` and hold something that began by `t`, and how many
/// nodes it reads depends on how long records live — not on how many the
/// tree holds.
///
/// Same `Tree`, same invariants, same answers as [`bulk_load`], whatever
/// order `items` come in; what differs is the cost, of packing (the sort
/// is only cheap on a run) and of queries long in dimension 0 (see the
/// [module docs](self)). As there, the `segment` flag of `config` is
/// ignored while packing.
pub fn bulk_load_run<const D: usize>(
    config: IndexConfig,
    items: Vec<(Rect<D>, RecordId)>,
) -> Tree<D> {
    validated(&config);
    let leaves = run_leaves(&config, items);
    build(config, leaves, runs)
}

/// The leaves of [`bulk_load_run`]: `items` ordered by `hi(0)`, cut into
/// pieces, each piece tiled on its own.
fn run_leaves<const D: usize>(
    config: &IndexConfig,
    items: Vec<(Rect<D>, RecordId)>,
) -> Vec<Vec<(Rect<D>, RecordId)>> {
    // Sort 16-byte keys, not 40-byte entries: a merge hands over tiers
    // whose pieces are each tiled out of order, and moving whole entries
    // through that sort cost more than the tiling. Ties go to arrival
    // order, so the result is the stable sort's.
    let mut order: Vec<(Coord, usize)> = items
        .iter()
        .enumerate()
        .map(|(i, (rect, _))| (rect.hi(0), i))
        .collect();
    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let leaf_cap = config.capacity(0);
    let piece = run_piece_leaves::<D>(config.branch_capacity(1)) * leaf_cap;
    let mut leaves = Vec::with_capacity(items.len().div_ceil(leaf_cap));
    for piece in order.chunks(piece) {
        let piece = piece.iter().map(|&(_, i)| items[i]).collect();
        leaves.extend(str_chunks(piece, leaf_cap, entry_rect, 0));
    }
    leaves
}

/// Leaves per piece of a run: `s^D` for the smallest `s` with `s^D` at
/// least a level-1 node's fanout. Sort-Tile-Recursive cuts a piece of
/// `s^D` full leaves into `s` equal slabs per dimension, each a whole
/// number of leaves; any other count leaves the last leaf of every slab
/// part empty (34 leaves of 25 tile as 6 slabs of 5 full leaves and one of
/// 17: 36 leaves where 34 would do).
fn run_piece_leaves<const D: usize>(fanout: usize) -> usize {
    let mut side = 1usize;
    while side.pow(D as u32) < fanout {
        side += 1;
    }
    side.pow(D as u32)
}

fn validated(config: &IndexConfig) {
    config
        .validate()
        .unwrap_or_else(|e| panic!("invalid index config: {e}"));
}

fn entry_rect<T, const D: usize>(entry: &(Rect<D>, T)) -> Rect<D> {
    entry.0
}

/// Builds the tree whose leaves hold `leaves`, in that order, grouping
/// each upper level's nodes with `group(nodes, branch capacity)` until a
/// single root remains.
fn build<const D: usize>(
    config: IndexConfig,
    leaves: Vec<Vec<(Rect<D>, RecordId)>>,
    group: impl Fn(Vec<(Rect<D>, NodeId)>, usize) -> Vec<Vec<(Rect<D>, NodeId)>>,
) -> Tree<D> {
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
        let chunks = group(level_nodes, config.branch_capacity(level));
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
    fn run_packing_keeps_leaves_full() {
        // 2 750 entries ending at 0, 1, 2, ...: three whole pieces (36
        // leaves of 25 under the SR-Tree configuration) and two leaves'
        // worth more. No leaf is left part empty, so the count is the
        // optimum (a piece of 34 leaves' worth tiles into 36).
        let run: Vec<(Rect<2>, RecordId)> = (0..2_750u64)
            .map(|i| {
                let (end, y) = (i as f64, ((i * 29) % 1000) as f64);
                (Rect::new([end - 40.0, y], [end, y]), RecordId(i))
            })
            .collect();
        assert_eq!(run_piece_leaves::<2>(34), 36);
        let t = bulk_load_run(IndexConfig::srtree(), run);
        t.assert_invariants();
        assert_eq!(t.level_profile(), [110, 4, 1]);
        assert!(bulk_load_run::<2>(IndexConfig::srtree(), vec![]).is_empty());
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
