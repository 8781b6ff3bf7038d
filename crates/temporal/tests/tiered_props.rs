//! Differential property tests: the tiered LSM index against the flat
//! single-tree model, and the table on small tiers against the brute-force
//! version log (`model/`).
//!
//! Seals and merges are forced mid-stream (tiny thresholds plus explicit
//! `seal`/`compact` ops) so every query races the full tier lifecycle:
//! memtable-only, freshly sealed, mid-merge shadowing, post-compaction.
//! One test re-uses record ids, the case the tombstone-only staleness rule
//! of the search has to get right; one aims every query at the edge of a
//! fence, where skipping a tier or the memtable is one comparison from
//! losing an answer; one aims them at the cell and partition edges of each
//! tier's HINT, where an elided comparison is one cell from a wrong
//! answer.

use proptest::collection::vec;
use proptest::prelude::*;
use segidx_core::{IndexConfig, RecordId, Tree};
use segidx_geom::{Interval, Rect};
use segidx_storage::DiskManager;
use segidx_temporal::{
    TemporalConfig, TemporalTable, TieredConfig, TieredTemporalIndex, VersionId,
};

mod model;
use model::Model;

const HORIZON: f64 = 1_000.0;

/// The next `f64` above a positive `x`.
fn just_above(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// The `f64` one ulp from a non-negative `x`, upward or downward.
fn ulp_from(x: f64, up: bool) -> f64 {
    match (x == 0.0, up) {
        (true, true) => f64::from_bits(1),
        (true, false) => -f64::from_bits(1),
        (false, true) => just_above(x),
        (false, false) => f64::from_bits(x.to_bits() - 1),
    }
}

/// Queries that touch `r` exactly — sharing one edge, or one corner, and
/// nothing more — and queries that miss it by one `f64`. A fence is a union
/// of such rectangles, so its own edges are among theirs.
fn edge_queries(r: &Rect<2>) -> [Rect<2>; 6] {
    let (lo, hi) = (r.lo(1) - 5.0, r.hi(1) + 5.0);
    [
        Rect::new([r.hi(0), lo], [r.hi(0) + 40.0, hi]), // starts where `r` ends
        Rect::new([just_above(r.hi(0)), lo], [r.hi(0) + 40.0, hi]),
        Rect::new([r.lo(0) - 40.0, lo], [r.lo(0), hi]), // ends where `r` starts
        Rect::new([r.hi(0), r.hi(1)], [r.hi(0), r.hi(1)]), // the corner, as a point
        Rect::new([r.lo(0) - 40.0, r.hi(1)], [r.hi(0) + 40.0, hi]), // top edge
        Rect::new(
            [r.lo(0) - 40.0, just_above(r.hi(1))],
            [r.hi(0) + 40.0, hi + 1.0],
        ),
    ]
}

#[derive(Clone, Debug)]
enum Op {
    /// Open a new version of `key` (closing its predecessor).
    Update { key: u64, value: f64, advance: f64 },
    /// Close a key's open version.
    Delete { key: u64, advance: f64 },
    /// Physically expire an old closed version (retention trimming).
    Expire { slot: usize },
    /// Force-seal the tiered memtable mid-stream.
    Seal,
    /// Force a full compaction mid-stream.
    Compact,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0u64..16, -500.0..500.0f64, 0.0..30.0f64)
            .prop_map(|(key, value, advance)| Op::Update { key, value, advance }),
        2 => (0u64..16, 0.0..30.0f64)
            .prop_map(|(key, advance)| Op::Delete { key, advance }),
        2 => (0usize..64).prop_map(|slot| Op::Expire { slot }),
        1 => Just(Op::Seal),
        1 => Just(Op::Compact),
    ]
}

fn tiered_config(seal_threshold: usize) -> TieredConfig {
    TieredConfig {
        seal_threshold,
        level_fanout: 2,
        tombstone_limit: 16,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The raw tiered index returns bit-identical results to one flat
    /// tree under interleaved inserts and deletes with seals and merges
    /// forced mid-stream.
    #[test]
    fn tiered_index_matches_flat_tree(
        ops in vec((0u64..200, 0.0..900.0f64, 1.0..80.0f64, 0u8..8), 1..200),
        queries in vec((0.0..1_000.0f64, 0.0..200.0f64, 0.0..1_000.0f64, 0.0..200.0f64), 1..8),
        seal_threshold in 4usize..24,
    ) {
        let mut flat: Tree<2> = Tree::new(IndexConfig::srtree());
        let mut tiered = TieredTemporalIndex::<2>::new(tiered_config(seal_threshold));
        let mut live: Vec<(Rect<2>, RecordId)> = Vec::new();
        let mut next_record = 0u64;
        for &(_, start, len, kind) in &ops {
            if kind == 0 && !live.is_empty() {
                // Delete a pseudo-random live record.
                let idx = (start as usize + len as usize) % live.len();
                let (rect, record) = live.swap_remove(idx);
                prop_assert!(flat.delete(&rect, record));
                prop_assert!(tiered.delete(&rect, record).unwrap());
            } else if kind == 1 {
                tiered.seal().unwrap();
            } else if kind == 2 {
                tiered.compact().unwrap();
            } else {
                let rect = Rect::new([start, len], [start + len, len]);
                let record = RecordId(next_record);
                next_record += 1;
                flat.insert(rect, record);
                tiered.insert(rect, record).unwrap();
                live.push((rect, record));
            }
        }
        tiered.assert_invariants();
        prop_assert_eq!(tiered.len(), flat.len());
        for &(a, b, c, d) in &queries {
            let q = Rect::new([a.min(c), b.min(d)], [a.max(c), b.max(d)]);
            prop_assert_eq!(tiered.search(&q), flat.search(&q));
        }
        // Full-domain sweep is the strongest equality check.
        let all = Rect::new([-10.0, -10.0], [2_000.0, 2_000.0]);
        prop_assert_eq!(tiered.search(&all), flat.search(&all));
    }

    /// Record ids *re-used*: a small pool of ids is deleted and reinserted
    /// with new rectangles while seals, merges (in flight or flushed) and
    /// compactions are forced in between, so stale copies of an id sit in
    /// old tiers below its live copy. The search drops them by the
    /// tombstone rule alone — it never asks a newer tier whether it holds
    /// the id too — and must stay bit-identical to the flat tree after
    /// every step, with tombstones kept long (high limit) or collected
    /// early (low limit).
    #[test]
    fn reused_ids_stay_shadowed_by_tombstones_alone(
        ops in vec((0u64..12, 0.0..900.0f64, 1.0..80.0f64, 0u8..12), 1..160),
        seal_threshold in 2usize..9,
        keep_tombstones in any::<bool>(),
    ) {
        let mut config = tiered_config(seal_threshold);
        config.tombstone_limit = if keep_tombstones { 1 << 20 } else { 3 };
        let mut tiered = TieredTemporalIndex::<2>::new(config);
        let mut flat: Tree<2> = Tree::new(IndexConfig::srtree());
        let mut live: std::collections::HashMap<u64, Rect<2>> = Default::default();
        let all = Rect::new([-10.0, -10.0], [2_000.0, 2_000.0]);
        for &(id, start, len, kind) in &ops {
            let record = RecordId(id);
            match kind {
                0 => tiered.seal().unwrap(),
                1 => tiered.compact().unwrap(),
                2 => tiered.flush_merges().unwrap(),
                3 | 4 => {
                    let was = live.remove(&id);
                    let rect = was.unwrap_or(all);
                    prop_assert_eq!(tiered.delete(&rect, record).unwrap(), was.is_some());
                    prop_assert_eq!(flat.delete(&rect, record), was.is_some());
                }
                _ => {
                    // Delete-then-reinsert under the same id: the update
                    // pattern whose old copy may already be sealed.
                    let rect = Rect::new([start, len], [start + len, len]);
                    if let Some(was) = live.insert(id, rect) {
                        prop_assert!(tiered.delete(&was, record).unwrap());
                        prop_assert!(flat.delete(&was, record));
                    }
                    tiered.insert(rect, record).unwrap();
                    flat.insert(rect, record);
                }
            }
            tiered.assert_invariants();
            prop_assert_eq!(tiered.len(), flat.len());
            prop_assert_eq!(tiered.search(&all), flat.search(&all));
            let q = Rect::new([start, 0.0], [start + len, 100.0]);
            prop_assert_eq!(tiered.search(&q), flat.search(&q));
            let rows = tiered.pin(&q).finish(|_| true);
            let ids: Vec<RecordId> = rows.iter().map(|r| r.id).collect();
            prop_assert_eq!(ids, flat.search(&q));
            // A predicate tested in each tier before the sort keeps exactly
            // the rows it accepts, in the same order.
            let short = |r: &Rect<2>| r.hi(0) - r.lo(0) < 40.0;
            let kept = tiered.pin(&q).finish(|r| short(&r.rect));
            let want: Vec<_> = rows.into_iter().filter(|r| short(&r.rect)).collect();
            prop_assert_eq!(kept, want);
        }
        tiered.flush_merges().unwrap();
        tiered.assert_invariants();
        prop_assert_eq!(tiered.search(&all), flat.search(&all));
    }

    /// The table on small tiers answers `as_of`/`range`/`within` exactly
    /// like the brute-force version log under version churn, expiry, and
    /// forced seals/compactions.
    #[test]
    fn tiered_table_matches_model(
        ops in vec(op_strategy(), 1..150),
        probes in vec(0.0..HORIZON, 1..8),
    ) {
        let mut table = TemporalTable::new(TemporalConfig {
            time_horizon: HORIZON * 10.0,
            tiers: tiered_config(8),
        });
        let mut model = Model::new(HORIZON * 10.0);
        for op in &ops {
            match *op {
                Op::Update { key, value, advance } => {
                    let t = model.tick(key, advance);
                    table.insert(key, value, t);
                    model.update(key, value, t);
                }
                Op::Delete { key, advance } => {
                    let t = model.tick(key, advance);
                    prop_assert_eq!(table.delete_key(key, t), model.delete(key, t));
                }
                Op::Expire { slot } => {
                    let id = VersionId(slot as u64);
                    prop_assert_eq!(table.expire(id), model.expire(id));
                }
                Op::Seal => table.tiered_index_mut().seal().unwrap(),
                Op::Compact => table.tiered_index_mut().compact().unwrap(),
            }
        }
        table.tiered_index().assert_invariants();
        for &t in &probes {
            prop_assert_eq!(table.as_of(t), model.as_of(t), "as_of({})", t);
            let window = Interval::new(t, t + 120.0);
            let band = Interval::new(-200.0, 200.0);
            prop_assert_eq!(table.range(window, band), model.range(window, band));
            prop_assert_eq!(
                table.try_within(window, 5.0, 60.0).unwrap(),
                model.within(window, 5.0, 60.0)
            );
        }
        prop_assert_eq!(table.current(), model.current());
        prop_assert_eq!(table.version_count(), model.versions.len());
    }

    /// Fenced search ≡ the flat model where fences are decided: on queries
    /// that share exactly an edge or a corner with a rectangle that is, or
    /// was, in the index — after deletes out of the memtable (its fence
    /// may stay too large, never too small), after seals and merges (a
    /// merged tier's fence is its inputs' union), and after the index is
    /// sealed, dropped and opened from disk (fences are derived at load;
    /// the manifest does not hold them).
    #[test]
    fn fenced_search_matches_flat_tree_on_fence_edges(
        ops in vec((0.0..900.0f64, 1.0..80.0f64, 1.0..200.0f64, 0u8..10), 1..120),
        seal_threshold in 3usize..12,
    ) {
        let dir = std::env::temp_dir().join(format!("segidx-fence-props-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{:?}.db", std::thread::current().id()));
        let _ = std::fs::remove_file(&path);
        let config = tiered_config(seal_threshold);
        let disk = std::sync::Arc::new(DiskManager::create(&path).unwrap());
        let mut tiered = TieredTemporalIndex::<2>::create(config.clone(), disk).unwrap();
        let mut flat: Tree<2> = Tree::new(IndexConfig::srtree());
        let mut live: Vec<(Rect<2>, RecordId)> = Vec::new();
        let mut seen: Vec<Rect<2>> = Vec::new();
        for (i, &(start, len, value, kind)) in ops.iter().enumerate() {
            match kind {
                // Newest first: a delete that finds its entry still in the
                // memtable, which shrinks while its fence does not.
                0 | 1 if !live.is_empty() => {
                    let at = if kind == 0 { live.len() - 1 } else { i % live.len() };
                    let (rect, record) = live.swap_remove(at);
                    prop_assert!(tiered.delete(&rect, record).unwrap());
                    prop_assert!(flat.delete(&rect, record));
                }
                2 => tiered.seal().unwrap(),
                _ => {
                    let rect = Rect::new([start, value], [start + len, value]);
                    let record = RecordId(i as u64);
                    tiered.insert(rect, record).unwrap();
                    flat.insert(rect, record);
                    live.push((rect, record));
                    seen.push(rect);
                }
            }
        }
        tiered.assert_invariants();
        for q in seen.iter().flat_map(edge_queries) {
            // `search` is `pin` then `finish`: the fences are decided at the pin.
            prop_assert_eq!(tiered.search(&q), flat.search(&q), "search {:?}", q);
        }

        // A seal makes the memtable durable and a checkpoint the tombstones
        // written since: after both the disk holds exactly what is live,
        // and a reopened index has to fence it the same.
        tiered.seal().unwrap();
        tiered.checkpoint().unwrap();
        drop(tiered);
        let disk = std::sync::Arc::new(DiskManager::open(&path).unwrap());
        let reopened = TieredTemporalIndex::<2>::open(config, disk).unwrap();
        reopened.assert_invariants();
        prop_assert_eq!(reopened.len(), flat.len());
        for q in seen.iter().flat_map(edge_queries) {
            prop_assert_eq!(reopened.search(&q), flat.search(&q), "reopened {:?}", q);
        }
        drop(reopened);
        let _ = std::fs::remove_file(&path);
    }

    /// HINT's own edges, each bit-identical to the flat tree: entries
    /// ending at `f64::MAX / 2` (the open-ended versions segbench's replica
    /// seals), zero-length intervals and duplicate start times in every
    /// tier, then stabs and windows on the cell and partition edges of each
    /// tier's HINT and one ulp either side, windows one ulp past each
    /// fence, and value bands that do and do not cover a fence.
    #[test]
    fn hint_edges_match_flat_tree(
        ops in vec((0u8..10, 0u32..48, 0u8..4, 0.0..100.0f64), 1..220),
        edges in vec((any::<u32>(), 0u32..17), 1..10),
        seal_threshold in 3usize..40,
    ) {
        let mut tiered = TieredTemporalIndex::<2>::new(tiered_config(seal_threshold));
        let mut flat: Tree<2> = Tree::new(IndexConfig::srtree());
        let mut live: Vec<(Rect<2>, RecordId)> = Vec::new();
        for (i, &(kind, slot, shape, value)) in ops.iter().enumerate() {
            match kind {
                0 if !live.is_empty() => {
                    let (rect, record) = live.swap_remove(slot as usize % live.len());
                    prop_assert!(tiered.delete(&rect, record).unwrap());
                    prop_assert!(flat.delete(&rect, record));
                }
                1 => tiered.seal().unwrap(),
                2 => tiered.flush_merges().unwrap(),
                _ => {
                    // 48 distinct start times: duplicates in every tier.
                    let start = f64::from(slot) * 7.5;
                    let end = match shape {
                        0 => start,
                        1 => f64::MAX / 2.0,
                        2 => start + 1.0 + value / 10.0,
                        _ => start + 200.0,
                    };
                    let rect = Rect::new([start, value], [end, value]);
                    let record = RecordId(i as u64);
                    tiered.insert(rect, record).unwrap();
                    flat.insert(rect, record);
                    live.push((rect, record));
                }
            }
        }
        tiered.seal().unwrap();
        tiered.assert_invariants();
        let everything = (f64::MIN / 2.0, f64::MAX / 2.0);
        let mut probes: Vec<f64> = Vec::new();
        let mut windows: Vec<Rect<2>> = Vec::new();
        for tier in tiered.tiers() {
            let (lo, hi) = tier.hint().domain();
            let cells = 1u64 << tier.hint().bits();
            for &(pick, level) in &edges {
                // A partition edge at `level` (cell edges at the bottom).
                let stride = cells >> level.min(tier.hint().bits());
                let j = (u64::from(pick) % (cells / stride + 1)) * stride;
                let x = lo + (hi - lo) * j as f64 / cells as f64;
                probes.extend([x, ulp_from(x, true), ulp_from(x, false)]);
                let next = lo + (hi - lo) * (j + stride) as f64 / cells as f64;
                windows.push(Rect::new([x, everything.0], [next, everything.1]));
                windows.push(Rect::new([ulp_from(x, true), 20.0], [next, 60.0]));
            }
            let fence = tier.fence().expect("a sealed tier is not empty");
            let (above, below) = (ulp_from(fence.hi(0), true), ulp_from(fence.lo(0), false));
            windows.push(Rect::new([above, everything.0], [above + 30.0, everything.1]));
            windows.push(Rect::new([below - 30.0, everything.0], [below, everything.1]));
            let over = ulp_from(fence.hi(1), true);
            windows.push(Rect::new([fence.lo(0), over], [fence.hi(0), 200.0]));
        }
        for t in probes {
            let line = Rect::new([t, everything.0], [t, everything.1]);
            prop_assert_eq!(tiered.search(&line), flat.search(&line), "AS OF {}", t);
            let band = Rect::new([t, 10.0], [t, 50.0]);
            prop_assert_eq!(tiered.search(&band), flat.search(&band), "band at {}", t);
        }
        for q in windows {
            prop_assert_eq!(tiered.search(&q), flat.search(&q), "window {:?}", q);
        }
    }
}
