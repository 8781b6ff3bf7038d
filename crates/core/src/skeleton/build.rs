//! Top-down construction of Skeleton indexes (paper §4).
//!
//! A Skeleton index pre-partitions the entire domain into a grid of empty
//! nodes before any data arrives. The number of levels and the number of
//! nodes at each level follow the paper's sizing loop:
//!
//! ```text
//! n = number_of_tuples; level = 0;
//! while (n > 1) {
//!     number_of_nodes[level] = ceil( D-th-root( ceil(n / fanout[level]) ) )^D;
//!     n = number_of_nodes[level];
//!     level = level + 1;
//! }
//! ```
//!
//! where `fanout[level]` reflects the node size at that level and — in
//! segment mode — the fraction of entries reserved for branches. Node counts
//! are rounded up so each level forms a `side^D` grid. Partition values come
//! from per-dimension histograms; higher levels group contiguous blocks of
//! the level below, so tiles nest exactly.

use crate::config::IndexConfig;
use crate::entry::Branch;
use crate::id::NodeId;
use crate::node::{Arena, Node};
use crate::skeleton::histogram::Histogram;
use crate::tree::Tree;
use segidx_geom::{Interval, Rect};

/// Everything needed to pre-construct a Skeleton index.
#[derive(Clone, Debug)]
pub struct SkeletonSpec<const D: usize> {
    /// The full domain of the data (the paper uses `[0, 100000]²`).
    pub domain: Rect<D>,
    /// Estimated number of tuples to be inserted.
    pub expected_tuples: usize,
    /// Per-dimension data distribution estimates. Each histogram is
    /// resampled ([`Histogram::rebin`]) to the leaf grid's partition count,
    /// so any bin count works.
    pub histograms: Vec<Histogram>,
}

impl<const D: usize> SkeletonSpec<D> {
    /// A spec assuming uniformly distributed data — the paper's fallback
    /// when the input distribution is unknown (§4).
    pub fn uniform(domain: Rect<D>, expected_tuples: usize) -> Self {
        let histograms = (0..D)
            .map(|d| Histogram::uniform(domain.interval(d), 16))
            .collect();
        Self {
            domain,
            expected_tuples,
            histograms,
        }
    }
}

/// The paper's level-sizing loop: grid side length per level, from leaves
/// up. An empty result means a single leaf suffices.
pub(crate) fn level_sides<const D: usize>(config: &IndexConfig, expected: usize) -> Vec<usize> {
    let mut sides = Vec::new();
    let mut n = expected.max(1);
    let mut level: u32 = 0;
    while n > 1 {
        let fanout = if level == 0 {
            config.capacity(0)
        } else {
            config.branch_capacity(level)
        };
        let nodes = n.div_ceil(fanout);
        let side = nth_root_ceil(nodes, D);
        if side <= 1 {
            break; // this level collapses to a single node: the root
        }
        sides.push(side);
        n = side.pow(D as u32);
        level += 1;
    }
    sides
}

/// `ceil(n^(1/d))`, exact for the integer sizes involved.
fn nth_root_ceil(n: usize, d: usize) -> usize {
    if n <= 1 {
        return n;
    }
    let mut r = (n as f64).powf(1.0 / d as f64).ceil() as usize;
    // Float imprecision can land one off in either direction.
    while r > 1 && (r - 1).pow(d as u32) >= n {
        r -= 1;
    }
    while r.pow(d as u32) < n {
        r += 1;
    }
    r
}

/// Builds the pre-partitioned (empty) Skeleton tree for `spec`.
///
/// # Panics
/// Panics if `spec.histograms.len() != D` or the configuration is invalid.
pub fn build_skeleton<const D: usize>(config: IndexConfig, spec: &SkeletonSpec<D>) -> Tree<D> {
    assert_eq!(spec.histograms.len(), D, "need one histogram per dimension");
    config
        .validate()
        .unwrap_or_else(|e| panic!("invalid index config: {e}"));

    let sides = level_sides::<D>(&config, spec.expected_tuples);
    if sides.is_empty() {
        return Tree::new(config);
    }

    let mut arena: Arena<D> = Arena::new();

    // Leaf grid: cut each dimension per its (resampled) histogram.
    let leaf_side = sides[0];
    let cuts: Vec<Histogram> = (0..D)
        .map(|d| {
            let h = spec.histograms[d].rebin(leaf_side);
            // Pin the histogram to the requested domain.
            let mut b = h.boundaries().to_vec();
            b[0] = spec.domain.lo(d);
            *b.last_mut().unwrap() = spec.domain.hi(d);
            for i in 1..b.len() {
                if b[i] < b[i - 1] {
                    b[i] = b[i - 1];
                }
            }
            Histogram::from_boundaries(b)
        })
        .collect();

    // `current[i]` = (grid coordinate, node id, tile) at the level being
    // grouped; starts with the leaves.
    let mut current: Vec<([usize; D], NodeId, Rect<D>)> = Vec::new();
    for coord in grid_coords::<D>(leaf_side) {
        let tile = tile_of(&cuts, &coord);
        let id = arena.alloc(Node::leaf(config.node_slots(0)));
        current.push((coord, id, tile));
    }

    // Group contiguous blocks level by level; the root is a 1-sided "grid".
    let mut side_below = leaf_side;
    for level in 1..=sides.len() as u32 {
        let side = sides.get(level as usize).copied().unwrap_or(1);
        let chunk_of = |c: usize| -> usize { c * side / side_below };
        let mut parents: Vec<([usize; D], NodeId, Rect<D>)> = Vec::new();
        for pcoord in grid_coords::<D>(side) {
            let node_id = arena.alloc(Node::internal(level, config.node_slots(level)));
            parents.push((pcoord, node_id, spec.domain));
        }
        for (ccoord, cid, ctile) in &current {
            let mut pcoord = [0usize; D];
            for d in 0..D {
                pcoord[d] = chunk_of(ccoord[d]).min(side - 1);
            }
            let pidx = grid_index::<D>(&pcoord, side);
            let (_, pid, _) = parents[pidx];
            arena.get_mut(pid).branches_mut().push(Branch {
                rect: *ctile,
                child: *cid,
            });
            arena.get_mut(*cid).parent = Some(pid);
        }
        // Parent tiles = bounding box of their children's tiles.
        for (_, pid, tile) in parents.iter_mut() {
            let mbr = arena
                .get(*pid)
                .content_mbr()
                .expect("every skeleton node has children");
            *tile = mbr;
        }
        current = parents;
        side_below = side;
        if side == 1 {
            break;
        }
    }

    debug_assert_eq!(current.len(), 1, "construction ends at a single root");
    let root = current[0].1;
    Tree::from_parts(config, arena, root)
}

/// All coordinates of a `side^D` grid, row-major.
fn grid_coords<const D: usize>(side: usize) -> impl Iterator<Item = [usize; D]> {
    let total = side.pow(D as u32);
    (0..total).map(move |mut i| {
        let mut coord = [0usize; D];
        for slot in coord.iter_mut().rev() {
            *slot = i % side;
            i /= side;
        }
        coord
    })
}

/// Row-major index of `coord` in a `side^D` grid.
fn grid_index<const D: usize>(coord: &[usize; D], side: usize) -> usize {
    coord.iter().fold(0, |idx, &c| idx * side + c)
}

/// The tile at `coord`: the product of each dimension's partition.
fn tile_of<const D: usize>(cuts: &[Histogram], coord: &[usize; D]) -> Rect<D> {
    let ivs: [Interval; D] = std::array::from_fn(|d| cuts[d].partition(coord[d]));
    Rect::from_intervals(ivs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::RecordId;

    fn domain() -> Rect<2> {
        Rect::new([0.0, 0.0], [100_000.0, 100_000.0])
    }

    #[test]
    fn nth_root_ceil_exact() {
        assert_eq!(nth_root_ceil(8000, 2), 90); // ceil(sqrt(8000)) = 90
        assert_eq!(nth_root_ceil(8100, 2), 90);
        assert_eq!(nth_root_ceil(8101, 2), 91);
        assert_eq!(nth_root_ceil(27, 3), 3);
        assert_eq!(nth_root_ceil(28, 3), 4);
        assert_eq!(nth_root_ceil(1, 2), 1);
        assert_eq!(nth_root_ceil(0, 2), 0);
    }

    #[test]
    fn level_sides_match_paper_arithmetic() {
        // 200K tuples, 1 KB leaves (cap 25), SR config (2/3 branches):
        // level 0: ceil(200000/25) = 8000 → side 90 → 8100 nodes
        // level 1: cap 51·2/3 = 34 → ceil(8100/34) = 239 → side 16 → 256
        // level 2: cap 102·2/3 = 68 → ceil(256/68) = 4 → side 2 → 4
        // level 3: ceil(4/fanout) = 1 → root, loop ends.
        let sides = level_sides::<2>(&IndexConfig::srtree(), 200_000);
        assert_eq!(sides, vec![90, 16, 2]);
    }

    #[test]
    fn small_input_single_leaf() {
        let spec = SkeletonSpec::uniform(domain(), 10);
        let t = build_skeleton(IndexConfig::rtree(), &spec);
        assert_eq!(t.height(), 1);
        t.assert_invariants();
    }

    #[test]
    fn uniform_skeleton_structure() {
        let spec = SkeletonSpec::uniform(domain(), 10_000);
        let t = build_skeleton(IndexConfig::srtree(), &spec);
        t.assert_invariants();
        let sides = level_sides::<2>(&IndexConfig::srtree(), 10_000);
        let profile = t.level_profile();
        assert_eq!(profile[0], sides[0] * sides[0]);
        assert_eq!(*profile.last().unwrap(), 1, "single root");
        // The root's region covers the domain.
        let root = t.root_region().unwrap();
        assert!(root.contains_rect(&domain()));
    }

    #[test]
    fn skeleton_accepts_inserts_and_searches() {
        let spec = SkeletonSpec::uniform(domain(), 5_000);
        let mut t = build_skeleton(IndexConfig::srtree(), &spec);
        for i in 0..5_000u64 {
            let x = ((i * 97) % 99_000) as f64;
            let y = ((i * 31) % 99_000) as f64;
            t.insert(Rect::new([x, y], [x + 50.0, y]), RecordId(i));
        }
        t.assert_invariants();
        assert_eq!(t.len(), 5_000);
        let all = t.search(&domain());
        assert_eq!(all.len(), 5_000);
    }

    #[test]
    fn skewed_histogram_shifts_cuts() {
        // All the mass near zero: the first leaf-tile column must be much
        // narrower than the last.
        let skew = Histogram::from_boundaries(vec![0.0, 10.0, 30.0, 100.0, 100_000.0]);
        let spec = SkeletonSpec {
            domain: domain(),
            expected_tuples: 10_000,
            histograms: vec![skew, Histogram::uniform(Interval::new(0.0, 100_000.0), 4)],
        };
        let t = build_skeleton(IndexConfig::rtree(), &spec);
        t.assert_invariants();
        // Find leaf tiles via the level-1 nodes' branch rects.
        let mut widths: Vec<f64> = Vec::new();
        for (_, node) in t.arena.iter() {
            if node.level == 1 {
                for b in node.branches().iter() {
                    widths.push(b.rect.extent(0));
                }
            }
        }
        let min = widths.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = widths.iter().cloned().fold(0.0, f64::max);
        assert!(
            max > min * 10.0,
            "expected strong width skew, got min {min} max {max}"
        );
    }

    #[test]
    fn three_dimensional_skeleton() {
        let domain: Rect<3> = Rect::new([0.0; 3], [1000.0; 3]);
        let spec = SkeletonSpec::uniform(domain, 3_000);
        let t = build_skeleton(IndexConfig::rtree(), &spec);
        t.assert_invariants();
        let profile = t.level_profile();
        let side = level_sides::<3>(&IndexConfig::rtree(), 3_000)[0];
        assert_eq!(profile[0], side.pow(3));
    }
}
