//! Distribution prediction (paper §4) and the index that runs it.
//!
//! When the input distribution is unknown but tuples arrive in random order,
//! the paper buffers the first `T` tuples (5–10% of the expected total
//! worked well; the experiments use the first 10,000), computes a histogram
//! of the buffered data in each dimension, and builds the Skeleton index
//! from those histograms. [`Skeleton`] is that index: a buffer until `T`
//! tuples are in, then a [`Tree`].

use crate::api::IntervalIndex;
use crate::config::IndexConfig;
use crate::id::RecordId;
use crate::skeleton::build::{build_skeleton, SkeletonSpec};
use crate::skeleton::histogram::Histogram;
use crate::stats::StatsSnapshot;
use crate::tree::Tree;
use segidx_geom::{Point, Rect};

/// Histogram bins computed from the buffered prefix. The Skeleton builder
/// resamples to each level's partition count, so this only bounds the
/// resolution of the estimate.
const PREDICTION_BINS: usize = 64;

/// A Skeleton index under distribution prediction (paper §4): the Skeleton
/// R-Tree or Skeleton SR-Tree, as its configuration says.
///
/// It buffers the first `target` tuples, then predicts the distribution
/// from their histograms, pre-constructs the skeleton, replays the buffer
/// into it and adapts from there by splitting and coalescing. While
/// buffering, reads scan the buffer, report zero node accesses, and the
/// index has no nodes; a delete removes the buffered record it names.
/// Cloning a buffering skeleton copies its buffer; a built one clones its
/// tree, a snapshot that shares every node.
#[derive(Clone, Debug)]
// `Built` is the large variant and the steady state: boxing it would add
// an indirection to every operation on a built skeleton.
#[allow(clippy::large_enum_variant)]
pub enum Skeleton<const D: usize> {
    /// Filling the prediction buffer.
    Buffering {
        /// The configuration the skeleton is built with.
        config: IndexConfig,
        /// The domain the skeleton partitions.
        domain: Rect<D>,
        /// The input size the skeleton is sized for.
        expected_tuples: usize,
        /// Buffered tuples that trigger the build (the paper's `T`).
        target: usize,
        /// The buffered records, in arrival order.
        buffered: Vec<(Rect<D>, RecordId)>,
    },
    /// Built: every operation goes to the tree.
    Built(Tree<D>),
}

impl<const D: usize> Skeleton<D> {
    /// An empty skeleton that predicts its shape from the first `buffer`
    /// tuples and is sized for `expected_tuples` over `domain`. The paper
    /// buffers the first 10,000 tuples of 100K–200K inputs with
    /// [`IndexConfig::skeleton_rtree`] or [`IndexConfig::skeleton_srtree`].
    ///
    /// # Panics
    /// Panics if `buffer == 0` or the configuration is invalid.
    pub fn new(
        config: IndexConfig,
        domain: Rect<D>,
        expected_tuples: usize,
        buffer: usize,
    ) -> Self {
        assert!(buffer > 0, "prediction buffer must be positive");
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid index config: {e}"));
        Skeleton::Buffering {
            config,
            domain,
            expected_tuples,
            target: buffer,
            buffered: Vec::with_capacity(buffer),
        }
    }

    /// Builds the skeleton from whatever is buffered now and replays the
    /// buffer into it. No-op once built.
    pub fn finalize(&mut self) {
        let Skeleton::Buffering {
            config,
            domain,
            expected_tuples,
            buffered,
            ..
        } = self
        else {
            return;
        };
        let spec = predicted_spec(*domain, *expected_tuples, buffered);
        let mut tree = build_skeleton(config.clone(), &spec);
        for (rect, record) in std::mem::take(buffered) {
            tree.insert(rect, record);
        }
        *self = Skeleton::Built(tree);
    }

    fn tree(&self) -> Option<&Tree<D>> {
        match self {
            Skeleton::Built(tree) => Some(tree),
            Skeleton::Buffering { .. } => None,
        }
    }
}

/// Equi-depth histograms of the sampled records' centres, one per
/// dimension: the spec a predicted skeleton is built from.
fn predicted_spec<const D: usize>(
    domain: Rect<D>,
    expected_tuples: usize,
    sample: &[(Rect<D>, RecordId)],
) -> SkeletonSpec<D> {
    let histograms = (0..D)
        .map(|d| {
            let centres = sample.iter().map(|(r, _)| r.center()[d]).collect();
            Histogram::equi_depth(centres, domain.interval(d), PREDICTION_BINS)
        })
        .collect();
    SkeletonSpec {
        domain,
        expected_tuples,
        histograms,
    }
}

/// The ids of the buffered records `hit` accepts, deduplicated and sorted.
fn scan<const D: usize>(
    buffered: &[(Rect<D>, RecordId)],
    hit: impl Fn(&Rect<D>) -> bool,
) -> Vec<RecordId> {
    let mut ids: Vec<RecordId> = buffered
        .iter()
        .filter(|(r, _)| hit(r))
        .map(|(_, id)| *id)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

impl<const D: usize> IntervalIndex<D> for Skeleton<D> {
    fn insert(&mut self, rect: Rect<D>, record: RecordId) {
        match self {
            Skeleton::Built(tree) => tree.insert(rect, record),
            Skeleton::Buffering {
                target, buffered, ..
            } => {
                buffered.push((rect, record));
                if buffered.len() >= *target {
                    self.finalize();
                }
            }
        }
    }
    fn delete(&mut self, rect: &Rect<D>, record: RecordId) -> bool {
        match self {
            Skeleton::Built(tree) => tree.delete(rect, record),
            Skeleton::Buffering { buffered, .. } => {
                match buffered.iter().position(|e| *e == (*rect, record)) {
                    Some(i) => {
                        buffered.remove(i);
                        true
                    }
                    None => false,
                }
            }
        }
    }
    fn search(&self, query: &Rect<D>) -> Vec<RecordId> {
        match self {
            Skeleton::Built(tree) => tree.search(query),
            Skeleton::Buffering { buffered, .. } => scan(buffered, |r| r.intersects(query)),
        }
    }
    fn search_batch(&self, queries: &[Rect<D>]) -> Vec<Vec<RecordId>> {
        match self {
            Skeleton::Built(tree) => tree.search_batch(queries),
            Skeleton::Buffering { .. } => queries.iter().map(|q| self.search(q)).collect(),
        }
    }
    fn stab(&self, p: &Point<D>) -> Vec<RecordId> {
        match self {
            Skeleton::Built(tree) => tree.stab(p),
            Skeleton::Buffering { buffered, .. } => scan(buffered, |r| r.contains_point(p)),
        }
    }
    fn stab_batch(&self, points: &[Point<D>]) -> Vec<Vec<RecordId>> {
        match self {
            Skeleton::Built(tree) => tree.stab_batch(points),
            Skeleton::Buffering { .. } => points.iter().map(|p| self.stab(p)).collect(),
        }
    }
    fn count_search_accesses(&self, query: &Rect<D>) -> u64 {
        self.tree().map_or(0, |t| t.count_search_accesses(query))
    }
    fn len(&self) -> usize {
        match self {
            Skeleton::Built(tree) => tree.len(),
            Skeleton::Buffering { buffered, .. } => buffered.len(),
        }
    }
    fn entry_count(&self) -> usize {
        self.tree().map_or(self.len(), Tree::entry_count)
    }
    fn stats(&self) -> StatsSnapshot {
        self.tree().map(Tree::stats).unwrap_or_default()
    }
    fn node_count(&self) -> usize {
        self.tree().map_or(0, Tree::node_count)
    }
    fn height(&self) -> u32 {
        self.tree().map_or(0, Tree::height)
    }
    fn check_invariants(&self) -> Vec<String> {
        self.tree().map(Tree::check_invariants).unwrap_or_default()
    }
    fn variant_name(&self) -> &'static str {
        match self {
            Skeleton::Built(tree) => tree.config().variant_name(),
            Skeleton::Buffering { config, .. } => config.variant_name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segidx_geom::Interval;

    fn domain() -> Rect<2> {
        Rect::new([0.0, 0.0], [100_000.0, 100_000.0])
    }

    fn seg(i: u64) -> Rect<2> {
        Rect::new([i as f64, 0.0], [i as f64 + 10.0, 0.0])
    }

    #[test]
    fn builds_when_the_buffer_reaches_its_target() {
        let mut s = Skeleton::<2>::new(IndexConfig::skeleton_rtree(), domain(), 1_000, 10);
        for i in 0..9 {
            s.insert(seg(i), RecordId(i));
        }
        assert!(matches!(s, Skeleton::Buffering { .. }));
        assert_eq!((s.node_count(), s.height()), (0, 0));
        s.insert(seg(9), RecordId(9));
        assert!(matches!(s, Skeleton::Built(_)));
        assert_eq!(s.len(), 10);
        assert!(s.check_invariants().is_empty());
    }

    #[test]
    fn buffering_phase_answers_reads_and_deletes() {
        let mut s = Skeleton::<2>::new(IndexConfig::skeleton_srtree(), domain(), 10_000, 1_000);
        for i in 0..500u64 {
            s.insert(seg(i), RecordId(i));
        }
        assert!(matches!(s, Skeleton::Buffering { .. }), "still buffering");
        assert_eq!(s.len(), 500);
        let window = Rect::new([0.0, 0.0], [5.0, 5.0]);
        assert_eq!(s.search(&window).len(), 6, "segments 0..=5 overlap [0,5]");
        assert_eq!(s.count_search_accesses(&window), 0);
        // A delete names its record by rectangle and id, as on a tree.
        assert!(!s.delete(&seg(1), RecordId(0)));
        assert!(s.delete(&seg(0), RecordId(0)));
        assert_eq!(s.len(), 499);
        s.finalize();
        assert!(matches!(s, Skeleton::Built(_)));
        assert_eq!(s.len(), 499);
        assert_eq!(s.search(&window).len(), 5);
    }

    #[test]
    fn predicted_histograms_reflect_sample_skew() {
        // X centres concentrated near zero; Y uniform.
        let sample: Vec<(Rect<2>, RecordId)> = (0..1000u64)
            .map(|i| {
                let x = (i % 100) as f64; // all centres in [0, 100)
                let y = (i * 100) as f64;
                (Rect::new([x, y], [x + 1.0, y]), RecordId(i))
            })
            .collect();
        let spec = predicted_spec(domain(), 10_000, &sample);
        assert_eq!(spec.histograms.len(), 2);
        let hx = &spec.histograms[0];
        // Nearly all interior X cuts below 200.
        let low = hx.boundaries()[1..hx.bins()]
            .iter()
            .filter(|&&b| b < 200.0)
            .count();
        assert!(low >= hx.bins() - 2, "x cuts not concentrated: {low}");
        assert_eq!(hx.domain(), Interval::new(0.0, 100_000.0));
    }
}
