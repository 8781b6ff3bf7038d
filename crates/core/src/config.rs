//! Index configuration.

use serde::{Deserialize, Serialize};

/// Bytes per index entry, from which a node's capacity follows from its
/// size: a 2-D rectangle (four `f64`) plus an 8-byte id.
pub(crate) const ENTRY_BYTES: usize = 40;

/// Minimum fill of a split half, as a fraction of the node's capacity
/// (Guttman's `m ≤ M/2`; 0.4 is the common choice).
pub(crate) const MIN_FILL_RATIO: f64 = 0.4;

/// Cap on the size-doubling ladder: levels at or above this use the same
/// node size. Ten doublings of a 1 KB leaf = 1 MB, far beyond any realistic
/// root.
pub(crate) const MAX_SIZE_DOUBLINGS: u8 = 10;

/// Which node-splitting algorithm to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum SplitAlgorithm {
    /// Guttman's quadratic-cost split: PickSeeds maximizes the dead area of
    /// the seed pair, PickNext maximizes preference difference. The classic
    /// default and the paper's setting.
    #[default]
    Quadratic,
    /// The R\*-Tree topological split (Beckmann et al. 1990, cited by the
    /// paper as \[BECK90\]): choose the split axis by minimum margin sum,
    /// then the distribution by minimum overlap. Beyond the paper, and the
    /// split the server serves: on `serve-mixed`'s shape the SR-Tree with it
    /// reads 12–17 % fewer window nodes than with the quadratic split, for
    /// 1.07× the build (EXPERIMENTS.md, "The served split and the two-phase
    /// delete").
    RStar,
}

/// Node-coalescing parameters for Skeleton indexes (paper §4, §5).
///
/// After every `check_interval` insertions, the `lfm_candidates`
/// least-frequently-modified leaf nodes are examined and merged with a
/// spatially adjacent sibling when the combined contents fit in one node.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct CoalesceConfig {
    /// Trigger a coalescing pass after this many insertions
    /// (the paper uses 1,000).
    pub check_interval: u64,
    /// Restrict candidates to this many least-frequently-modified nodes
    /// (the paper uses 10).
    pub lfm_candidates: usize,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        Self {
            check_interval: 1_000,
            lfm_candidates: 10,
        }
    }
}

/// Configuration shared by all four index variants.
///
/// The defaults reproduce the paper's experimental setup (§5): 1 KB leaf
/// nodes whose size doubles at each higher level (up to ten doublings), and
/// — for segment (SR) variants — 2/3 of non-leaf entries reserved for
/// branches. Entries are 40 bytes and a split leaves each half at least 40 %
/// full; both are fixed, not configured.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct IndexConfig {
    /// Leaf node size in bytes (paper: 1 KB).
    pub leaf_node_bytes: usize,
    /// Whether node size doubles at each successively higher level
    /// (paper §2.1.2), capped at ten doublings. When `false` every level
    /// uses `leaf_node_bytes`.
    pub vary_node_size: bool,
    /// Fraction of a non-leaf node's entries reserved for branches in
    /// segment (SR) mode; the remainder holds spanning index records.
    /// The paper's experiments use 2/3 (§5).
    pub branch_fraction: f64,
    /// Enables the Segment Index extensions (spanning records, cutting,
    /// promotion/demotion) — i.e. SR-Tree rather than R-Tree behavior.
    pub segment: bool,
    /// Node-splitting algorithm.
    pub split: SplitAlgorithm,
    /// Node coalescing (Skeleton indexes only; `None` disables).
    pub coalesce: Option<CoalesceConfig>,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self {
            leaf_node_bytes: 1024,
            vary_node_size: true,
            branch_fraction: 2.0 / 3.0,
            segment: false,
            split: SplitAlgorithm::Quadratic,
            coalesce: None,
        }
    }
}

impl IndexConfig {
    /// The paper's R-Tree configuration.
    pub fn rtree() -> Self {
        Self::default()
    }

    /// The paper's SR-Tree configuration (segment extensions on, 2/3 branch
    /// reservation).
    pub fn srtree() -> Self {
        Self {
            segment: true,
            ..Self::default()
        }
    }

    /// The paper's Skeleton R-Tree configuration: the R-Tree's, plus
    /// coalescing every 1,000 insertions among the 10
    /// least-frequently-modified nodes (§4, §5). Build it with
    /// [`build_skeleton`](crate::build_skeleton), from a spec written or
    /// [predicted](crate::SkeletonSpec::predict) from the first tuples.
    pub fn skeleton_rtree() -> Self {
        Self {
            coalesce: Some(CoalesceConfig::default()),
            ..Self::rtree()
        }
    }

    /// The paper's Skeleton SR-Tree configuration: the SR-Tree's, plus the
    /// Skeleton's coalescing.
    pub fn skeleton_srtree() -> Self {
        Self {
            coalesce: Some(CoalesceConfig::default()),
            ..Self::srtree()
        }
    }

    /// The paper's name for the variant this configuration builds, read off
    /// its two switches: `segment`, and `coalesce` (which only Skeleton
    /// indexes set).
    pub fn variant_name(&self) -> &'static str {
        match (self.segment, self.coalesce.is_some()) {
            (false, false) => "R-Tree",
            (true, false) => "SR-Tree",
            (false, true) => "Skeleton R-Tree",
            (true, true) => "Skeleton SR-Tree",
        }
    }

    /// How many times the leaf size doubles to give the node size at
    /// `level`: the paper's ladder (§2.1.2), the same step for a node's
    /// capacity and for the page it is persisted on.
    pub(crate) fn size_doublings(&self, level: u32) -> u32 {
        if self.vary_node_size {
            level.min(u32::from(MAX_SIZE_DOUBLINGS))
        } else {
            0
        }
    }

    /// Node size in bytes at `level` (level 0 = leaves).
    pub fn node_bytes(&self, level: u32) -> usize {
        self.leaf_node_bytes << self.size_doublings(level)
    }

    /// Total entry capacity of a node at `level`.
    pub fn capacity(&self, level: u32) -> usize {
        (self.node_bytes(level) / ENTRY_BYTES).max(4)
    }

    /// Entry slots a node's block at `level` is allocated with: the
    /// capacity plus the one overflowing entry whose arrival triggers the
    /// split, so a node's block is allocated exactly once.
    pub(crate) fn node_slots(&self, level: u32) -> usize {
        self.capacity(level) + 1
    }

    /// Maximum number of branch entries at `level` (non-leaf). In segment
    /// mode this is `branch_fraction × capacity`, reserving the remainder
    /// for spanning index records; otherwise the full capacity.
    pub fn branch_capacity(&self, level: u32) -> usize {
        let cap = self.capacity(level);
        if self.segment {
            ((cap as f64 * self.branch_fraction).floor() as usize).clamp(4, cap)
        } else {
            cap
        }
    }

    /// Minimum fill for split distribution at `level`, relative to the
    /// total node capacity (Guttman's `m`). Leaves and internal nodes use
    /// the same rule — the `branch_fraction` reservation affects Skeleton
    /// fanout sizing only, so an SR-Tree with no spanning records splits
    /// identically to an R-Tree (paper §5: "both of the non-Skeleton
    /// Indexes had identical performance").
    pub fn min_fill(&self, level: u32) -> usize {
        let cap = self.capacity(level);
        (((cap as f64) * MIN_FILL_RATIO).floor() as usize).max(2)
    }

    /// Validates the configuration, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.leaf_node_bytes < 4 * ENTRY_BYTES {
            return Err(format!(
                "leaf node of {} bytes holds fewer than 4 entries of {ENTRY_BYTES} bytes",
                self.leaf_node_bytes
            ));
        }
        if !(0.0..=1.0).contains(&self.branch_fraction) {
            return Err(format!(
                "branch_fraction {} outside [0, 1]",
                self.branch_fraction
            ));
        }
        if let Some(c) = &self.coalesce {
            if c.check_interval == 0 || c.lfm_candidates == 0 {
                return Err("coalesce parameters must be positive".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = IndexConfig::rtree();
        assert_eq!(c.node_bytes(0), 1024);
        assert_eq!(c.node_bytes(1), 2048);
        assert_eq!(c.node_bytes(3), 8192);
        assert_eq!(c.capacity(0), 25);
        // Non-segment: branches get the whole node.
        assert_eq!(c.branch_capacity(1), c.capacity(1));
        c.validate().unwrap();
    }

    #[test]
    fn variant_names_match_paper() {
        let name = |config: IndexConfig| config.variant_name();
        assert_eq!(name(IndexConfig::rtree()), "R-Tree");
        assert_eq!(name(IndexConfig::srtree()), "SR-Tree");
        assert_eq!(name(IndexConfig::skeleton_rtree()), "Skeleton R-Tree");
        assert_eq!(name(IndexConfig::skeleton_srtree()), "Skeleton SR-Tree");
    }

    #[test]
    fn srtree_reserves_two_thirds() {
        let c = IndexConfig::srtree();
        let cap = c.capacity(1); // 2048/40 = 51
        assert_eq!(cap, 51);
        assert_eq!(c.branch_capacity(1), 34); // floor(51 * 2/3)
        assert!(c.segment);
        c.validate().unwrap();
    }

    #[test]
    fn size_doubling_caps() {
        let c = IndexConfig::default();
        assert_eq!(c.node_bytes(10), 1024 << 10);
        assert_eq!(c.node_bytes(15), 1024 << 10);
    }

    #[test]
    fn fixed_node_size() {
        let c = IndexConfig {
            vary_node_size: false,
            ..IndexConfig::default()
        };
        assert_eq!(c.node_bytes(5), 1024);
    }

    #[test]
    fn min_fill_at_least_two() {
        assert_eq!(IndexConfig::default().min_fill(0), 10); // floor(25 * 0.4)
        let c = IndexConfig {
            leaf_node_bytes: 4 * ENTRY_BYTES,
            ..IndexConfig::default()
        };
        c.validate().unwrap();
        assert_eq!(c.min_fill(0), 2); // floor(4 * 0.4) = 1, raised to 2
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let c = IndexConfig {
            leaf_node_bytes: 64,
            ..IndexConfig::default()
        };
        assert!(c.validate().is_err());

        let c = IndexConfig {
            branch_fraction: 1.5,
            ..IndexConfig::default()
        };
        assert!(c.validate().is_err());

        let c = IndexConfig {
            coalesce: Some(CoalesceConfig {
                check_interval: 0,
                lfm_candidates: 10,
            }),
            ..IndexConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
