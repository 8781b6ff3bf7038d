//! The four index variants of the paper, behind one trait.
//!
//! | Type | Paper name | Construction |
//! |------|------------|--------------|
//! | [`RTree`] | R-Tree | empty, grows by splitting |
//! | [`SRTree`] | SR-Tree | empty, grows by splitting, segment extensions |
//! | [`SkeletonRTree`] | Skeleton R-Tree | pre-partitioned + coalescing |
//! | [`SkeletonSRTree`] | Skeleton SR-Tree | pre-partitioned + coalescing + segment extensions |

use crate::config::{CoalesceConfig, IndexConfig};
use crate::id::RecordId;
use crate::skeleton::{build_skeleton, DistributionPredictor, SkeletonSpec};
use crate::stats::StatsSnapshot;
use crate::telemetry::TreeTelemetry;
use crate::tree::{Neighbor, Tree};
use segidx_geom::{Point, Rect};
use std::sync::Arc;

/// The common interface of the four paper variants, object-safe so the
/// experiment harness can sweep over `Box<dyn IntervalIndex<2>>`.
pub trait IntervalIndex<const D: usize> {
    /// Inserts a record.
    fn insert(&mut self, rect: Rect<D>, record: RecordId);
    /// All records intersecting `query`, deduplicated and sorted by id.
    fn search(&self, query: &Rect<D>) -> Vec<RecordId>;
    /// Runs every query in `queries` and returns per-query results in input
    /// order, bit-identical to calling [`search`](Self::search) per query.
    /// Tree-backed variants reuse one cursor across the batch (see
    /// [`Tree::search_batch`]); the default is the plain loop.
    fn search_batch(&self, queries: &[Rect<D>]) -> Vec<Vec<RecordId>> {
        queries.iter().map(|q| self.search(q)).collect()
    }
    /// All records containing point `p`, deduplicated and sorted by id —
    /// the degenerate window query.
    fn stab(&self, p: &Point<D>) -> Vec<RecordId>;
    /// Runs every stab in `points` and returns per-point results in input
    /// order, bit-identical to calling [`stab`](Self::stab) per point.
    fn stab_batch(&self, points: &[Point<D>]) -> Vec<Vec<RecordId>> {
        points.iter().map(|p| self.stab(p)).collect()
    }
    /// The `k` records nearest to `p`, ascending by minimum rectangle
    /// distance.
    fn nearest(&self, p: &Point<D>, k: usize) -> Vec<Neighbor<D>>;
    /// Loads `items` into the index. Engines with a packed construction
    /// path use it when the index is still empty; the default (and the
    /// non-empty fallback) is an insert loop.
    fn bulk_load(&mut self, items: Vec<(Rect<D>, RecordId)>) {
        for (rect, record) in items {
            self.insert(rect, record);
        }
    }
    /// Index nodes accessed by a search for `query` (the paper's metric).
    fn count_search_accesses(&self, query: &Rect<D>) -> u64;
    /// Removes a record by its original rectangle and id.
    fn delete(&mut self, rect: &Rect<D>, record: RecordId) -> bool;
    /// Number of logical records.
    fn len(&self) -> usize;
    /// Number of physical index records (exceeds [`len`](Self::len) when
    /// records have been cut into portions).
    fn entry_count(&self) -> usize;
    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Statistics snapshot.
    fn stats(&self) -> StatsSnapshot;
    /// Resets the search-side statistics.
    fn reset_search_stats(&self);
    /// Number of index nodes.
    fn node_count(&self) -> usize;
    /// Tree height.
    fn height(&self) -> u32;
    /// Structural invariant check (empty = consistent).
    fn check_invariants(&self) -> Vec<String>;
    /// Human-readable variant name, matching the paper.
    fn variant_name(&self) -> &'static str;
    /// Installs (or clears) wall-clock telemetry (see
    /// [`crate::telemetry`]). The default is a no-op for index types
    /// without latency instrumentation.
    fn set_telemetry(&mut self, telemetry: Option<Arc<TreeTelemetry>>) {
        let _ = telemetry;
    }
    /// The installed telemetry, if any.
    fn telemetry(&self) -> Option<Arc<TreeTelemetry>> {
        None
    }
}

macro_rules! delegate_tree_methods {
    () => {
        fn insert(&mut self, rect: Rect<D>, record: RecordId) {
            self.tree_mut().insert(rect, record);
        }
        fn search(&self, query: &Rect<D>) -> Vec<RecordId> {
            self.tree().search(query)
        }
        fn search_batch(&self, queries: &[Rect<D>]) -> Vec<Vec<RecordId>> {
            self.tree().search_batch(queries)
        }
        fn stab(&self, p: &Point<D>) -> Vec<RecordId> {
            self.tree().stab(p)
        }
        fn stab_batch(&self, points: &[Point<D>]) -> Vec<Vec<RecordId>> {
            self.tree().stab_batch(points)
        }
        fn nearest(&self, p: &Point<D>, k: usize) -> Vec<Neighbor<D>> {
            self.tree().nearest(p, k)
        }
        fn bulk_load(&mut self, items: Vec<(Rect<D>, RecordId)>) {
            if self.tree().len() == 0 {
                let config = self.tree().config().clone();
                let telemetry = self.tree().telemetry().cloned();
                let mut tree = crate::bulk::bulk_load(config, items);
                tree.set_telemetry(telemetry);
                *self.tree_mut() = tree;
            } else {
                for (rect, record) in items {
                    self.tree_mut().insert(rect, record);
                }
            }
        }
        fn count_search_accesses(&self, query: &Rect<D>) -> u64 {
            self.tree().count_search_accesses(query)
        }
        fn delete(&mut self, rect: &Rect<D>, record: RecordId) -> bool {
            self.tree_mut().delete(rect, record)
        }
        fn len(&self) -> usize {
            self.tree().len()
        }
        fn entry_count(&self) -> usize {
            self.tree().entry_count()
        }
        fn stats(&self) -> StatsSnapshot {
            self.tree().stats()
        }
        fn reset_search_stats(&self) {
            self.tree().reset_search_stats();
        }
        fn node_count(&self) -> usize {
            self.tree().node_count()
        }
        fn height(&self) -> u32 {
            self.tree().height()
        }
        fn check_invariants(&self) -> Vec<String> {
            self.tree().check_invariants()
        }
        fn set_telemetry(&mut self, telemetry: Option<Arc<TreeTelemetry>>) {
            self.tree_mut().set_telemetry(telemetry);
        }
        fn telemetry(&self) -> Option<Arc<TreeTelemetry>> {
            self.tree().telemetry().cloned()
        }
    };
}

/// Guttman's R-Tree with the paper's node-size ladder — the baseline index.
#[derive(Debug)]
pub struct RTree<const D: usize>(Tree<D>);

impl<const D: usize> RTree<D> {
    /// An empty R-Tree with the paper's configuration.
    pub fn new() -> Self {
        Self(Tree::new(IndexConfig::rtree()))
    }

    /// An empty R-Tree with a custom configuration; the segment flag is
    /// forced off.
    pub fn with_config(mut config: IndexConfig) -> Self {
        config.segment = false;
        Self(Tree::new(config))
    }

    /// The underlying engine.
    pub fn tree(&self) -> &Tree<D> {
        &self.0
    }

    /// The underlying engine, mutably.
    pub fn tree_mut(&mut self) -> &mut Tree<D> {
        &mut self.0
    }

    /// Consumes the wrapper, returning the engine (e.g. to seed a
    /// `ConcurrentIndex`).
    pub fn into_tree(self) -> Tree<D> {
        self.0
    }
}

impl<const D: usize> Default for RTree<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> IntervalIndex<D> for RTree<D> {
    delegate_tree_methods!();
    fn variant_name(&self) -> &'static str {
        "R-Tree"
    }
}

/// The Segment R-Tree (paper §3): an R-Tree storing spanning index records
/// in non-leaf nodes, with record cutting, promotion, and demotion.
#[derive(Debug)]
pub struct SRTree<const D: usize>(Tree<D>);

impl<const D: usize> SRTree<D> {
    /// An empty SR-Tree with the paper's configuration (2/3 of non-leaf
    /// entries reserved for branches).
    pub fn new() -> Self {
        Self(Tree::new(IndexConfig::srtree()))
    }

    /// An empty SR-Tree with a custom configuration; the segment flag is
    /// forced on.
    pub fn with_config(mut config: IndexConfig) -> Self {
        config.segment = true;
        Self(Tree::new(config))
    }

    /// The underlying engine.
    pub fn tree(&self) -> &Tree<D> {
        &self.0
    }

    /// The underlying engine, mutably.
    pub fn tree_mut(&mut self) -> &mut Tree<D> {
        &mut self.0
    }

    /// Consumes the wrapper, returning the engine (e.g. to seed a
    /// `ConcurrentIndex`).
    pub fn into_tree(self) -> Tree<D> {
        self.0
    }
}

impl<const D: usize> Default for SRTree<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> IntervalIndex<D> for SRTree<D> {
    delegate_tree_methods!();
    fn variant_name(&self) -> &'static str {
        "SR-Tree"
    }
}

/// Shared state machine for the two Skeleton variants: either still
/// buffering tuples for distribution prediction, or built and live.
#[derive(Debug)]
enum SkeletonCore<const D: usize> {
    Buffering {
        config: IndexConfig,
        predictor: DistributionPredictor<D>,
        buffered: Vec<(Rect<D>, RecordId)>,
        /// Telemetry installed before construction; attached at build time
        /// (buffer scans are not index operations and are not timed).
        telemetry: Option<Arc<TreeTelemetry>>,
    },
    Built(Tree<D>),
}

impl<const D: usize> SkeletonCore<D> {
    fn from_spec(config: IndexConfig, spec: &SkeletonSpec<D>) -> Self {
        SkeletonCore::Built(build_skeleton(config, spec))
    }

    fn with_prediction(
        config: IndexConfig,
        domain: Rect<D>,
        expected: usize,
        buffer: usize,
    ) -> Self {
        SkeletonCore::Buffering {
            config,
            predictor: DistributionPredictor::new(domain, expected, buffer),
            buffered: Vec::new(),
            telemetry: None,
        }
    }

    fn insert(&mut self, rect: Rect<D>, record: RecordId) {
        match self {
            SkeletonCore::Built(tree) => tree.insert(rect, record),
            SkeletonCore::Buffering {
                predictor,
                buffered,
                ..
            } => {
                let full = predictor.offer(rect);
                buffered.push((rect, record));
                if full {
                    self.build();
                }
            }
        }
    }

    /// Builds the skeleton from the buffered prefix and replays the buffer.
    fn build(&mut self) {
        let SkeletonCore::Buffering {
            config,
            predictor,
            buffered,
            telemetry,
        } = std::mem::replace(self, SkeletonCore::Built(Tree::new(IndexConfig::default())))
        else {
            return;
        };
        let (spec, _samples) = predictor.finish();
        let mut tree = build_skeleton(config, &spec);
        tree.set_telemetry(telemetry);
        for (rect, record) in buffered {
            tree.insert(rect, record);
        }
        *self = SkeletonCore::Built(tree);
    }

    fn set_telemetry(&mut self, t: Option<Arc<TreeTelemetry>>) {
        match self {
            SkeletonCore::Built(tree) => tree.set_telemetry(t),
            SkeletonCore::Buffering { telemetry, .. } => *telemetry = t,
        }
    }

    fn telemetry(&self) -> Option<Arc<TreeTelemetry>> {
        match self {
            SkeletonCore::Built(tree) => tree.telemetry().cloned(),
            SkeletonCore::Buffering { telemetry, .. } => telemetry.clone(),
        }
    }

    fn tree(&self) -> Option<&Tree<D>> {
        match self {
            SkeletonCore::Built(t) => Some(t),
            SkeletonCore::Buffering { .. } => None,
        }
    }

    fn search(&self, query: &Rect<D>) -> Vec<RecordId> {
        match self {
            SkeletonCore::Built(t) => t.search(query),
            SkeletonCore::Buffering { buffered, .. } => {
                let mut out: Vec<RecordId> = buffered
                    .iter()
                    .filter(|(r, _)| r.intersects(query))
                    .map(|(_, id)| *id)
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            }
        }
    }

    fn stab(&self, p: &Point<D>) -> Vec<RecordId> {
        match self {
            SkeletonCore::Built(t) => t.stab(p),
            SkeletonCore::Buffering { buffered, .. } => {
                let mut out: Vec<RecordId> = buffered
                    .iter()
                    .filter(|(r, _)| r.contains_point(p))
                    .map(|(_, id)| *id)
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            }
        }
    }

    fn nearest(&self, p: &Point<D>, k: usize) -> Vec<Neighbor<D>> {
        match self {
            SkeletonCore::Built(t) => t.nearest(p, k),
            SkeletonCore::Buffering { buffered, .. } => {
                let mut all: Vec<(f64, RecordId, Rect<D>)> = buffered
                    .iter()
                    .map(|(r, id)| (r.min_dist_sqr(p), *id, *r))
                    .collect();
                all.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                all.truncate(k);
                all.into_iter()
                    .map(|(d2, record, rect)| Neighbor {
                        record,
                        rect,
                        distance: d2.sqrt(),
                    })
                    .collect()
            }
        }
    }

    fn delete(&mut self, rect: &Rect<D>, record: RecordId) -> bool {
        match self {
            SkeletonCore::Built(t) => t.delete(rect, record),
            SkeletonCore::Buffering { buffered, .. } => {
                let _ = rect;
                let before = buffered.len();
                buffered.retain(|(_, id)| *id != record);
                buffered.len() != before
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            SkeletonCore::Built(t) => t.len(),
            SkeletonCore::Buffering { buffered, .. } => buffered.len(),
        }
    }
}

macro_rules! skeleton_variant {
    ($name:ident, $display:literal, $segment:literal, $doc:literal) => {
        #[doc = $doc]
        #[derive(Debug)]
        pub struct $name<const D: usize>(SkeletonCore<D>);

        impl<const D: usize> $name<D> {
            /// The paper's configuration for this variant (coalescing every
            /// 1,000 insertions among the 10 least-frequently-modified
            /// nodes).
            pub fn paper_config() -> IndexConfig {
                IndexConfig {
                    segment: $segment,
                    coalesce: Some(CoalesceConfig::default()),
                    ..IndexConfig::default()
                }
            }

            /// Builds the skeleton immediately from a known distribution.
            pub fn from_spec(spec: &SkeletonSpec<D>) -> Self {
                Self(SkeletonCore::from_spec(Self::paper_config(), spec))
            }

            /// Builds the skeleton immediately with a custom configuration
            /// (the segment flag is forced to this variant's value).
            pub fn from_spec_with_config(mut config: IndexConfig, spec: &SkeletonSpec<D>) -> Self {
                config.segment = $segment;
                Self(SkeletonCore::from_spec(config, spec))
            }

            /// Uses distribution prediction (paper §4): buffer the first
            /// `buffer` tuples, histogram them, then build and adapt. The
            /// paper buffers the first 10,000 tuples of 100K–200K inputs.
            pub fn with_prediction(domain: Rect<D>, expected_tuples: usize, buffer: usize) -> Self {
                Self(SkeletonCore::with_prediction(
                    Self::paper_config(),
                    domain,
                    expected_tuples,
                    buffer,
                ))
            }

            /// Distribution prediction with a custom configuration.
            pub fn with_prediction_config(
                mut config: IndexConfig,
                domain: Rect<D>,
                expected_tuples: usize,
                buffer: usize,
            ) -> Self {
                config.segment = $segment;
                Self(SkeletonCore::with_prediction(
                    config,
                    domain,
                    expected_tuples,
                    buffer,
                ))
            }

            /// The underlying engine, once built (`None` while the
            /// prediction buffer is still filling).
            pub fn tree(&self) -> Option<&Tree<D>> {
                self.0.tree()
            }

            /// Forces skeleton construction from whatever has been buffered
            /// so far. No-op once built.
            pub fn finalize(&mut self) {
                if matches!(self.0, SkeletonCore::Buffering { .. }) {
                    self.0.build();
                }
            }

            /// Consumes the wrapper, returning the built engine (finalizing
            /// the prediction buffer first if necessary), e.g. to seed a
            /// `ConcurrentIndex`.
            pub fn into_tree(mut self) -> Tree<D> {
                self.finalize();
                match self.0 {
                    SkeletonCore::Built(t) => t,
                    SkeletonCore::Buffering { .. } => unreachable!("finalize() builds"),
                }
            }
        }

        impl<const D: usize> IntervalIndex<D> for $name<D> {
            fn insert(&mut self, rect: Rect<D>, record: RecordId) {
                self.0.insert(rect, record);
            }
            fn search(&self, query: &Rect<D>) -> Vec<RecordId> {
                self.0.search(query)
            }
            fn search_batch(&self, queries: &[Rect<D>]) -> Vec<Vec<RecordId>> {
                match self.0.tree() {
                    Some(t) => t.search_batch(queries),
                    // Buffering phase: no tree yet, linear scans.
                    None => queries.iter().map(|q| self.0.search(q)).collect(),
                }
            }
            fn stab(&self, p: &Point<D>) -> Vec<RecordId> {
                self.0.stab(p)
            }
            fn stab_batch(&self, points: &[Point<D>]) -> Vec<Vec<RecordId>> {
                match self.0.tree() {
                    Some(t) => t.stab_batch(points),
                    // Buffering phase: no tree yet, linear scans.
                    None => points.iter().map(|p| self.0.stab(p)).collect(),
                }
            }
            fn nearest(&self, p: &Point<D>, k: usize) -> Vec<Neighbor<D>> {
                self.0.nearest(p, k)
            }
            fn count_search_accesses(&self, query: &Rect<D>) -> u64 {
                match self.0.tree() {
                    Some(t) => t.count_search_accesses(query),
                    None => 0,
                }
            }
            fn delete(&mut self, rect: &Rect<D>, record: RecordId) -> bool {
                self.0.delete(rect, record)
            }
            fn len(&self) -> usize {
                self.0.len()
            }
            fn entry_count(&self) -> usize {
                self.0
                    .tree()
                    .map(|t| t.entry_count())
                    .unwrap_or(self.0.len())
            }
            fn stats(&self) -> StatsSnapshot {
                self.0.tree().map(|t| t.stats()).unwrap_or_default()
            }
            fn reset_search_stats(&self) {
                if let Some(t) = self.0.tree() {
                    t.reset_search_stats();
                }
            }
            fn node_count(&self) -> usize {
                self.0.tree().map(|t| t.node_count()).unwrap_or(0)
            }
            fn height(&self) -> u32 {
                self.0.tree().map(|t| t.height()).unwrap_or(0)
            }
            fn check_invariants(&self) -> Vec<String> {
                self.0
                    .tree()
                    .map(|t| t.check_invariants())
                    .unwrap_or_default()
            }
            fn variant_name(&self) -> &'static str {
                $display
            }
            fn set_telemetry(&mut self, telemetry: Option<Arc<TreeTelemetry>>) {
                self.0.set_telemetry(telemetry);
            }
            fn telemetry(&self) -> Option<Arc<TreeTelemetry>> {
                self.0.telemetry()
            }
        }
    };
}

skeleton_variant!(
    SkeletonRTree,
    "Skeleton R-Tree",
    false,
    "The Skeleton R-Tree (paper §4): a pre-constructed, adaptable R-Tree. \
     The domain is pre-partitioned from estimated size and distribution \
     (optionally predicted from a buffered input prefix) and adapts through \
     node splitting and coalescing. Searches during the buffering phase \
     scan the buffer linearly and report zero node accesses."
);

skeleton_variant!(
    SkeletonSRTree,
    "Skeleton SR-Tree",
    true,
    "The Skeleton SR-Tree (paper §4): the Skeleton pre-construction and \
     coalescing combined with the segment extensions (spanning records, \
     cutting, promotion/demotion). The paper's overall best performer for \
     interval data with non-uniform length distributions. Searches during \
     the buffering phase scan the buffer linearly and report zero node \
     accesses."
);

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> Rect<2> {
        Rect::new([0.0, 0.0], [100_000.0, 100_000.0])
    }

    fn exercise(index: &mut dyn IntervalIndex<2>, n: u64) {
        for i in 0..n {
            let x = ((i * 37) % 90_000) as f64;
            let y = ((i * 113) % 90_000) as f64;
            let len = if i % 13 == 0 { 15_000.0 } else { 60.0 };
            index.insert(
                Rect::new([x, y], [(x + len).min(100_000.0), y]),
                RecordId(i),
            );
        }
    }

    #[test]
    fn all_variants_agree_on_results() {
        let mut variants: Vec<Box<dyn IntervalIndex<2>>> = vec![
            Box::new(RTree::<2>::new()),
            Box::new(SRTree::<2>::new()),
            Box::new(SkeletonRTree::<2>::with_prediction(domain(), 3_000, 300)),
            Box::new(SkeletonSRTree::<2>::with_prediction(domain(), 3_000, 300)),
        ];
        for v in variants.iter_mut() {
            exercise(v.as_mut(), 3_000);
            assert_eq!(v.len(), 3_000, "{}", v.variant_name());
            assert!(
                v.check_invariants().is_empty(),
                "{}: {:?}",
                v.variant_name(),
                v.check_invariants()
            );
        }
        let query = Rect::new([10_000.0, 10_000.0], [30_000.0, 40_000.0]);
        let expected = variants[0].search(&query);
        assert!(!expected.is_empty());
        for v in &variants[1..] {
            assert_eq!(
                v.search(&query),
                expected,
                "{} disagrees with R-Tree",
                v.variant_name()
            );
        }
    }

    #[test]
    fn skeleton_buffering_phase_works() {
        let mut s = SkeletonSRTree::<2>::with_prediction(domain(), 10_000, 1_000);
        for i in 0..500u64 {
            s.insert(
                Rect::new([i as f64, 0.0], [i as f64 + 10.0, 0.0]),
                RecordId(i),
            );
        }
        assert!(s.tree().is_none(), "still buffering");
        assert_eq!(s.len(), 500);
        // Searches against the buffer work.
        let hits = s.search(&Rect::new([0.0, 0.0], [5.0, 5.0]));
        assert_eq!(hits.len(), 6, "segments 0..=5 overlap [0,5]");
        // Deletes against the buffer work.
        assert!(s.delete(&Rect::new([0.0, 0.0], [10.0, 0.0]), RecordId(0)));
        assert_eq!(s.len(), 499);
        // Force construction.
        s.finalize();
        assert!(s.tree().is_some());
        assert_eq!(s.len(), 499);
        let hits = s.search(&Rect::new([0.0, 0.0], [5.0, 5.0]));
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn variant_names_match_paper() {
        assert_eq!(RTree::<2>::new().variant_name(), "R-Tree");
        assert_eq!(SRTree::<2>::new().variant_name(), "SR-Tree");
        assert_eq!(
            SkeletonRTree::<2>::with_prediction(domain(), 10, 1).variant_name(),
            "Skeleton R-Tree"
        );
        assert_eq!(
            SkeletonSRTree::<2>::with_prediction(domain(), 10, 1).variant_name(),
            "Skeleton SR-Tree"
        );
    }

    #[test]
    fn default_traits() {
        let r: RTree<2> = Default::default();
        assert!(r.is_empty());
        let s: SRTree<2> = Default::default();
        assert!(s.is_empty());
    }
}
