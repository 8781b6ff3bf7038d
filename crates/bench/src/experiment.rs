//! Experiment descriptors: which graph, which distribution, which variants.

use segidx_core::bulk::bulk_load;
use segidx_core::{build_skeleton, IndexConfig, RecordId, SkeletonSpec, SplitAlgorithm, Tree};
use segidx_geom::Rect;
use segidx_workloads::{DataDistribution, Dataset};

/// The paper buffers the first 10,000 tuples for distribution prediction
/// (§5); smaller runs scale this down to 10% of the input.
pub const PAPER_PREDICTION_BUFFER: usize = 10_000;

/// One of the paper's evaluation figures.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Graph {
    /// Graph 1: I1 — uniform length, uniform Y.
    G1,
    /// Graph 2: I2 — uniform length, exponential Y.
    G2,
    /// Graph 3: I3 — exponential length, uniform Y.
    G3,
    /// Graph 4: I4 — exponential length, exponential Y.
    G4,
    /// Graph 5: R1 — rectangles, uniform sides.
    G5,
    /// Graph 6: R2 — rectangles, exponential sides.
    G6,
    /// Extra: RE1 — rectangles, exponential centroids, uniform sides
    /// (run in the paper, results omitted there for brevity).
    G7,
    /// Extra: RE2 — rectangles, exponential centroids, exponential sides.
    G8,
}

impl Graph {
    /// All graphs, in paper order (the two extras last).
    pub const ALL: [Graph; 8] = [
        Graph::G1,
        Graph::G2,
        Graph::G3,
        Graph::G4,
        Graph::G5,
        Graph::G6,
        Graph::G7,
        Graph::G8,
    ];

    /// The six graphs printed in the paper.
    pub const PAPER: [Graph; 6] = [
        Graph::G1,
        Graph::G2,
        Graph::G3,
        Graph::G4,
        Graph::G5,
        Graph::G6,
    ];

    /// Parses `1`–`8`.
    pub fn from_number(n: u32) -> Option<Graph> {
        Graph::ALL.get((n as usize).checked_sub(1)?).copied()
    }

    /// The graph number (1–8).
    pub fn number(&self) -> u32 {
        Graph::ALL.iter().position(|g| g == self).unwrap() as u32 + 1
    }

    /// The input distribution this graph evaluates.
    pub fn distribution(&self) -> DataDistribution {
        match self {
            Graph::G1 => DataDistribution::I1,
            Graph::G2 => DataDistribution::I2,
            Graph::G3 => DataDistribution::I3,
            Graph::G4 => DataDistribution::I4,
            Graph::G5 => DataDistribution::R1,
            Graph::G6 => DataDistribution::R2,
            Graph::G7 => DataDistribution::RE1,
            Graph::G8 => DataDistribution::RE2,
        }
    }

    /// The paper's caption for the graph.
    pub fn caption(&self) -> &'static str {
        match self {
            Graph::G1 => "Line segment data with uniform length and uniform Y-value distributions",
            Graph::G2 => {
                "Line segment data with uniform length and exponential Y-value distributions"
            }
            Graph::G3 => {
                "Line segment data with exponential length and uniform Y-value distributions"
            }
            Graph::G4 => {
                "Line segment data with exponential length and exponential Y-value distributions"
            }
            Graph::G5 => "Rectangle data with uniform interval length and uniform centroids",
            Graph::G6 => "Rectangle data with exponential interval length and uniform centroids",
            Graph::G7 => "Rectangle data with uniform length and exponential centroids (extra)",
            Graph::G8 => "Rectangle data with exponential length and exponential centroids (extra)",
        }
    }
}

/// The four index variants compared throughout the paper.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Variant {
    /// Guttman's R-Tree (baseline).
    RTree,
    /// The Segment R-Tree of paper §3.
    SRTree,
    /// The Skeleton R-Tree of paper §4.
    SkeletonRTree,
    /// The Skeleton SR-Tree of paper §4 — the paper's overall winner.
    SkeletonSRTree,
}

impl Variant {
    /// The paper's four variants, in the paper's presentation order.
    pub const ALL: [Variant; 4] = [
        Variant::RTree,
        Variant::SRTree,
        Variant::SkeletonRTree,
        Variant::SkeletonSRTree,
    ];

    /// The paper's configuration of this variant.
    pub fn config(&self) -> IndexConfig {
        match self {
            Variant::RTree => IndexConfig::rtree(),
            Variant::SRTree => IndexConfig::srtree(),
            Variant::SkeletonRTree => IndexConfig::skeleton_rtree(),
            Variant::SkeletonSRTree => IndexConfig::skeleton_srtree(),
        }
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        self.config().variant_name()
    }

    /// How the paper constructs this variant: a Skeleton variant (the one
    /// that coalesces) from a predicted skeleton, the other two by dynamic
    /// insertion from empty.
    pub fn construction(&self) -> Construction {
        if self.config().coalesce.is_some() {
            Construction::Skeleton
        } else {
            Construction::Dynamic
        }
    }
}

/// The prediction buffer for an input of `expected_tuples`: the paper's
/// 10 000, or a tenth of a smaller input.
pub(crate) fn prediction_buffer(expected_tuples: usize) -> usize {
    PAPER_PREDICTION_BUFFER.min((expected_tuples / 10).max(1))
}

/// How an index is put together from its input.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Construction {
    /// Inserted one record at a time into a tree grown from empty.
    Dynamic,
    /// Inserted one record at a time into a skeleton predicted from the
    /// first tuples (paper §4).
    Skeleton,
    /// Packed from the whole input at once (`bulk_load`, \[ROUS85\]).
    Packed,
}

impl Construction {
    /// A tree with `config` over `records`, put together this way. A
    /// skeleton is predicted from the first `prefix` records (paper §4)
    /// and sized for all of them over `domain`; the prefix and the rest
    /// are then inserted in arrival order.
    pub fn build(
        self,
        config: IndexConfig,
        domain: Rect<2>,
        prefix: usize,
        records: &[(Rect<2>, RecordId)],
    ) -> Tree<2> {
        let mut tree = match self {
            Construction::Packed => return bulk_load(config, records.to_vec()),
            Construction::Dynamic => Tree::new(config),
            Construction::Skeleton => {
                let sample = &records[..prefix.min(records.len())];
                let spec = SkeletonSpec::predict(domain, records.len(), sample);
                build_skeleton(config, &spec)
            }
        };
        for (rect, id) in records {
            tree.insert(*rect, *id);
        }
        tree
    }
}

/// A design question `reproduce --ablate` asks: one choice, varied over
/// the paper's four variants with everything else as the paper has it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Axis {
    /// The split and its R\* companions (`split`).
    Split,
    /// The branch reservation of a segment node (`branch_fraction`).
    BranchFraction,
    /// Node size doubling per level or fixed (`node_size`).
    NodeSize,
    /// Dynamic, predicted-skeleton or packed construction (`build`).
    Build,
}

impl Axis {
    /// Every axis, in the order the ablations are numbered.
    pub const ALL: [Axis; 4] = [
        Axis::Split,
        Axis::BranchFraction,
        Axis::NodeSize,
        Axis::Build,
    ];

    /// The name `--ablate` takes and `ablation_<name>.csv` carries.
    pub fn name(&self) -> &'static str {
        match self {
            Axis::Split => "split",
            Axis::BranchFraction => "branch_fraction",
            Axis::NodeSize => "node_size",
            Axis::Build => "build",
        }
    }

    /// Parses an axis [`name`](Axis::name).
    pub fn from_name(name: &str) -> Option<Axis> {
        Axis::ALL.into_iter().find(|a| a.name() == name)
    }

    /// The values this axis takes, the paper's among them.
    pub fn values(&self) -> &'static [Ablation] {
        use Ablation::*;
        match self {
            Axis::Split => &[
                Split(SplitAlgorithm::Quadratic),
                Split(SplitAlgorithm::RStar),
            ],
            Axis::BranchFraction => &[
                BranchFraction(1, 2),
                BranchFraction(2, 3),
                BranchFraction(3, 4),
            ],
            Axis::NodeSize => &[NodeSize { doubling: true }, NodeSize { doubling: false }],
            Axis::Build => &[
                Build(Construction::Dynamic),
                Build(Construction::Skeleton),
                Build(Construction::Packed),
            ],
        }
    }
}

/// One value on one [`Axis`], applied to every variant alike.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ablation {
    /// Every variant splits nodes this way (the paper's is quadratic).
    Split(SplitAlgorithm),
    /// `n/d` of a segment node's entries reserved for branches.
    BranchFraction(u8, u8),
    /// Node size doubling per level (the paper's), or 1 KB at every level.
    NodeSize {
        /// Whether the node size doubles per level.
        doubling: bool,
    },
    /// Every variant constructed this way.
    Build(Construction),
}

impl Ablation {
    /// The value's name in `ablation_<axis>.csv`.
    pub fn name(&self) -> String {
        match self {
            Ablation::Split(SplitAlgorithm::Quadratic) => "quadratic".into(),
            Ablation::Split(SplitAlgorithm::RStar) => "rstar_split".into(),
            Ablation::BranchFraction(n, d) => format!("{n}/{d}"),
            Ablation::NodeSize { doubling: true } => "doubling".into(),
            Ablation::NodeSize { doubling: false } => "fixed".into(),
            Ablation::Build(Construction::Dynamic) => "dynamic".into(),
            Ablation::Build(Construction::Skeleton) => "skeleton".into(),
            Ablation::Build(Construction::Packed) => "packed".into(),
        }
    }

    /// `variant`'s configuration and construction with this value applied.
    pub fn apply(&self, variant: Variant) -> (IndexConfig, Construction) {
        let mut config = variant.config();
        let mut construction = variant.construction();
        match *self {
            Ablation::Split(split) => config.split = split,
            Ablation::BranchFraction(n, d) => {
                config.branch_fraction = f64::from(n) / f64::from(d);
            }
            Ablation::NodeSize { doubling } => config.vary_node_size = doubling,
            Ablation::Build(c) => construction = c,
        }
        (config, construction)
    }

    /// Whether this value leaves `variant` as the paper builds it: the
    /// preset its other values are measured against.
    pub fn is_preset(&self, variant: Variant) -> bool {
        self.apply(variant) == (variant.config(), variant.construction())
    }
}

/// A fully specified experiment: one graph at one input size.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Which graph to reproduce.
    pub graph: Graph,
    /// Input size (the paper uses 100K and 200K; Graphs 1–6 show 200K).
    pub tuples: usize,
    /// Data-generation seed.
    pub data_seed: u64,
    /// Query-generation seed.
    pub query_seed: u64,
    /// Queries per QAR value (the paper uses 100).
    pub queries_per_qar: usize,
    /// A design choice varied away from the paper's (`reproduce
    /// --ablate`); `None` builds every variant as the paper does.
    pub ablation: Option<Ablation>,
}

impl Experiment {
    /// The paper's published configuration for a graph (200K tuples,
    /// 100 queries per QAR). The data seed is arbitrary; the paper's shape
    /// claims hold across seeds, with individual sweeps varying by roughly
    /// ±10% (Skeleton construction depends on the sampled prefix of the
    /// input, so some seeds land closer to the boundary of the softer
    /// claims than others).
    pub fn paper(graph: Graph) -> Self {
        Self {
            graph,
            tuples: 200_000,
            data_seed: 7,
            query_seed: 0x5153_4554,
            queries_per_qar: 100,
            ablation: None,
        }
    }

    /// A scaled-down configuration for smoke tests and CI.
    pub fn quick(graph: Graph) -> Self {
        Self {
            tuples: 20_000,
            queries_per_qar: 25,
            ..Self::paper(graph)
        }
    }

    /// Generates this experiment's dataset.
    pub fn dataset(&self) -> Dataset {
        self.graph
            .distribution()
            .generate(self.tuples, self.data_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segidx_workloads::domain;

    #[test]
    fn graph_numbering_roundtrips() {
        for g in Graph::ALL {
            assert_eq!(Graph::from_number(g.number()), Some(g));
        }
        assert_eq!(Graph::from_number(0), None);
        assert_eq!(Graph::from_number(9), None);
    }

    #[test]
    fn graph_distributions_match_paper() {
        assert_eq!(Graph::G1.distribution(), DataDistribution::I1);
        assert_eq!(Graph::G4.distribution(), DataDistribution::I4);
        assert_eq!(Graph::G6.distribution(), DataDistribution::R2);
    }

    #[test]
    fn variants_build_and_accept_data() {
        let ds = DataDistribution::I3.generate(1_000, 1);
        for v in Variant::ALL {
            let idx =
                v.construction()
                    .build(v.config(), domain(), prediction_buffer(1_000), &ds.records);
            assert_eq!(idx.len(), 1_000, "{}", v.name());
            assert!(idx.check_invariants().is_empty(), "{}", v.name());
        }
    }

    #[test]
    fn prediction_buffer_scales_down() {
        // 1,000 tuples → a 100-tuple prefix.
        assert_eq!(prediction_buffer(1_000), 100);
        assert_eq!(prediction_buffer(200_000), PAPER_PREDICTION_BUFFER);
        assert_eq!(prediction_buffer(5), 1);
    }
}
