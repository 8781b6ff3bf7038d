//! Distribution prediction (paper §4).
//!
//! When the input distribution is unknown but tuples arrive in random order,
//! the paper buffers the first `T` tuples (5–10% of the expected total
//! worked well; the experiments use the first 10,000), computes a histogram
//! of the buffered data in each dimension, and builds the Skeleton index
//! from those histograms. [`SkeletonSpec::predict`] is that step; the
//! caller builds the skeleton from its spec with
//! [`build_skeleton`](crate::build_skeleton) and then inserts the prefix and
//! the rest of the input in arrival order.

use crate::id::RecordId;
use crate::skeleton::build::SkeletonSpec;
use crate::skeleton::histogram::Histogram;
use segidx_geom::Rect;

/// Histogram bins computed from the sampled prefix. The Skeleton builder
/// resamples to each level's partition count, so this only bounds the
/// resolution of the estimate.
const PREDICTION_BINS: usize = 64;

impl<const D: usize> SkeletonSpec<D> {
    /// The spec a predicted skeleton is built from: equi-depth histograms
    /// of the `sample` records' centres, one per dimension, sized for
    /// `expected_tuples` over `domain`. The paper samples the first 10,000
    /// tuples of 100K–200K inputs. An empty sample predicts uniform
    /// histograms ([`Histogram::equi_depth`]'s fallback).
    pub fn predict(
        domain: Rect<D>,
        expected_tuples: usize,
        sample: &[(Rect<D>, RecordId)],
    ) -> Self {
        let histograms = (0..D)
            .map(|d| {
                let centres = sample.iter().map(|(r, _)| r.center()[d]).collect();
                Histogram::equi_depth(centres, domain.interval(d), PREDICTION_BINS)
            })
            .collect();
        Self {
            domain,
            expected_tuples,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_skeleton, IndexConfig};
    use segidx_geom::Interval;

    fn domain() -> Rect<2> {
        Rect::new([0.0, 0.0], [100_000.0, 100_000.0])
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
        let spec = SkeletonSpec::predict(domain(), 10_000, &sample);
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

    #[test]
    fn an_empty_sample_predicts_the_uniform_fallback() {
        let spec = SkeletonSpec::<2>::predict(domain(), 5_000, &[]);
        for (d, h) in spec.histograms.iter().enumerate() {
            assert_eq!(
                *h,
                Histogram::uniform(domain().interval(d), PREDICTION_BINS)
            );
        }
        assert_eq!((spec.domain, spec.expected_tuples), (domain(), 5_000));
        let tree = build_skeleton(IndexConfig::skeleton_srtree(), &spec);
        assert!(tree.node_count() > 1 && tree.is_empty());
        tree.assert_invariants();
    }
}
