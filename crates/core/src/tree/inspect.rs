//! Structural inspection: per-level statistics.
//!
//! The paper's analysis of Graphs 1–6 reasons about node *shapes* —
//! "mostly horizontal node regions", "a high degree of overlap", aspect
//! ratios the Skeleton keeps regular (§4). [`TreeReport`] quantifies those
//! properties so the same reasoning can be applied to a live index.

use super::Tree;
use crate::node::NodeKind;
use segidx_geom::Rect;
use std::fmt;

/// Statistics for one level of the tree.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LevelReport {
    /// Level number (0 = leaves).
    pub level: u32,
    /// Nodes at this level.
    pub nodes: usize,
    /// Leaf entries (level 0) or branches (higher levels).
    pub structural_entries: usize,
    /// Spanning index records stored at this level.
    pub spanning_entries: usize,
    /// Mean occupancy as a fraction of node capacity.
    pub utilization: f64,
    /// Mean horizontal-to-vertical aspect ratio of the stored regions
    /// (2-D interpretation: extent(0) / extent(1); `NaN` when degenerate).
    pub mean_aspect_ratio: f64,
    /// Total pairwise overlap area between the stored regions of the
    /// level's nodes, divided by the total region area — the paper's
    /// "degree of overlap" (0 = perfectly disjoint like a fresh Skeleton).
    pub overlap_factor: f64,
}

/// A full structural report (one entry per level, leaves first).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TreeReport {
    /// Per-level statistics.
    pub levels: Vec<LevelReport>,
}

impl fmt::Display for TreeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>5} {:>7} {:>9} {:>9} {:>6} {:>8} {:>8}",
            "level", "nodes", "entries", "spanning", "util", "aspect", "overlap"
        )?;
        for l in &self.levels {
            writeln!(
                f,
                "{:>5} {:>7} {:>9} {:>9} {:>5.0}% {:>8.2} {:>8.3}",
                l.level,
                l.nodes,
                l.structural_entries,
                l.spanning_entries,
                l.utilization * 100.0,
                l.mean_aspect_ratio,
                l.overlap_factor
            )?;
        }
        Ok(())
    }
}

impl<const D: usize> Tree<D> {
    /// Builds a structural report of the tree.
    pub fn report(&self) -> TreeReport {
        let height = self.height();
        let mut levels: Vec<LevelReport> = (0..height)
            .map(|level| LevelReport {
                level,
                ..LevelReport::default()
            })
            .collect();
        // Stored regions per level (from parents; the root has none).
        let mut regions: Vec<Vec<Rect<D>>> = vec![Vec::new(); height as usize];
        let mut occupancy_sum = vec![0.0f64; height as usize];

        for (id, node) in self.arena.iter() {
            let l = node.level as usize;
            levels[l].nodes += 1;
            occupancy_sum[l] += node.occupancy() as f64 / self.config.capacity(node.level) as f64;
            match &node.kind {
                NodeKind::Leaf { entries } => levels[l].structural_entries += entries.len(),
                NodeKind::Internal { branches, spanning } => {
                    levels[l].structural_entries += branches.len();
                    levels[l].spanning_entries += spanning.len();
                }
            }
            if let Some(region) = self.region_of(id) {
                regions[l].push(region);
            } else if let Some(mbr) = node.content_mbr() {
                regions[l].push(mbr); // the root: use its content MBR
            }
        }

        for (l, report) in levels.iter_mut().enumerate() {
            report.utilization = if report.nodes > 0 {
                occupancy_sum[l] / report.nodes as f64
            } else {
                0.0
            };
            let rs = &regions[l];
            // Mean aspect ratio over the first two dimensions.
            if D >= 2 {
                let ratios: Vec<f64> = rs
                    .iter()
                    .filter(|r| r.extent(1) > 0.0)
                    .map(|r| r.extent(0) / r.extent(1))
                    .collect();
                report.mean_aspect_ratio = if ratios.is_empty() {
                    f64::NAN
                } else {
                    ratios.iter().sum::<f64>() / ratios.len() as f64
                };
            } else {
                report.mean_aspect_ratio = f64::NAN;
            }
            // Pairwise overlap factor (quadratic; inspection is offline).
            let total_area: f64 = rs.iter().map(|r| r.area()).sum();
            let mut overlap = 0.0;
            for (i, a) in rs.iter().enumerate() {
                for b in rs.iter().skip(i + 1) {
                    overlap += a.overlap_area(b);
                }
            }
            report.overlap_factor = if total_area > 0.0 {
                overlap / total_area
            } else {
                0.0
            };
        }
        TreeReport { levels }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::IndexConfig;
    use crate::id::RecordId;
    use crate::skeleton::{build_skeleton, SkeletonSpec};
    use crate::tree::Tree;
    use segidx_geom::Rect;

    #[test]
    fn report_counts_match_tree() {
        let mut t: Tree<2> = Tree::new(IndexConfig::srtree());
        for i in 0..800u64 {
            let x = ((i * 37) % 2_000) as f64;
            let y = ((i * 97) % 2_000) as f64;
            let len = if i % 10 == 0 { 900.0 } else { 5.0 };
            t.insert(Rect::new([x, y], [x + len, y]), RecordId(i));
        }
        let report = t.report();
        let total_nodes: usize = report.levels.iter().map(|l| l.nodes).sum();
        assert_eq!(total_nodes, t.node_count());
        let total_entries: usize = report
            .levels
            .iter()
            .map(|l| l.spanning_entries)
            .sum::<usize>()
            + report.levels[0].structural_entries;
        assert_eq!(total_entries, t.entry_count());
        assert!(report.levels[0].utilization > 0.2);
        assert!(report.levels[0].utilization <= 1.0);
        // Renders without panicking.
        let text = format!("{report}");
        assert!(text.contains("level"));
    }

    #[test]
    fn fresh_skeleton_has_zero_overlap() {
        let spec = SkeletonSpec::uniform(Rect::new([0.0, 0.0], [1000.0, 1000.0]), 5_000);
        let t = build_skeleton(IndexConfig::rtree(), &spec);
        let report = t.report();
        // Pre-partitioned tiles are disjoint at every level.
        for l in &report.levels {
            assert!(
                l.overlap_factor < 1e-9,
                "level {} overlap {}",
                l.level,
                l.overlap_factor
            );
        }
    }
}
