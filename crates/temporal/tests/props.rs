//! Property tests: the temporal table, at two tier shapes, against a naive
//! version log (`model/`).
//!
//! Only closed versions are indexed; open ones are answered from the live
//! set. The model knows nothing of that split, so every query here checks
//! that the union of the two is what a scan of the full log returns —
//! including at the instants where a version moves from one to the other.

use proptest::collection::vec;
use proptest::prelude::*;
use segidx_geom::Interval;
use segidx_temporal::{TemporalConfig, TemporalTable, TieredConfig, VersionId};

mod model;
use model::Model;

const HORIZON: f64 = 10_000.0;
/// A key no generated op touches: its only version stays open throughout.
const LONER: u64 = 999;

#[derive(Clone, Debug)]
enum Op {
    /// Update key at a time offset after its last version (keeps per-key
    /// order valid by construction; a zero offset makes an empty version).
    Update { key: u64, value: f64, advance: f64 },
    /// Close a key's open version.
    Delete { key: u64, advance: f64 },
    /// Physically remove the `slot`-th version, if it is closed.
    Expire { slot: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u64..20, -1000.0..1000.0f64, 0.0..40.0f64, any::<bool>())
            .prop_map(|(key, value, advance, zero)| Op::Update {
                key,
                value,
                advance: if zero { 0.0 } else { advance },
            }),
        1 => (0u64..20, 0.0..40.0f64)
            .prop_map(|(key, advance)| Op::Delete { key, advance }),
        1 => (0usize..120).prop_map(|slot| Op::Expire { slot }),
    ]
}

/// Tier shapes: the default, where a case never fills the memtable, and
/// tiny tiers, where the stream crosses many seals and merges and expiries
/// meet sealed copies (tombstones) as well as buffered ones.
fn tier_configs() -> [TieredConfig; 2] {
    [
        TieredConfig::default(),
        TieredConfig {
            seal_threshold: 6,
            level_fanout: 2,
            tombstone_limit: 8,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn table_matches_model(
        ops in vec(op_strategy(), 1..140),
        probes in vec(0.0..600.0f64, 1..8),
    ) {
        for tiers in tier_configs() {
            let mut table = TemporalTable::new(TemporalConfig {
                time_horizon: HORIZON,
                tiers,
            });
            let mut model = Model::new(HORIZON);
            model.update(LONER, 7.0, 3.0);
            table.insert(LONER, 7.0, 3.0);

            for op in &ops {
                match *op {
                    Op::Update { key, value, advance } => {
                        let t = model.tick(key, advance);
                        let id = table.insert(key, value, t);
                        prop_assert_eq!(id.0 as usize, model.versions.len());
                        model.update(key, value, t);
                    }
                    Op::Delete { key, advance } => {
                        let t = model.clock.get(&key).copied().unwrap_or(0.0) + advance;
                        let closed = model.delete(key, t);
                        prop_assert_eq!(table.delete_key(key, t), closed);
                        if closed {
                            model.tick(key, advance);
                        }
                    }
                    Op::Expire { slot } => {
                        let id = VersionId(slot as u64);
                        prop_assert_eq!(table.expire(id), model.expire(id));
                    }
                }
            }

            // Every instant at which some version starts or ends, beside
            // the random probes: `t == from` is inside, `t == to` outside.
            let mut times = probes.clone();
            for v in &model.versions {
                times.push(v.from);
                times.extend(v.to);
            }
            for &t in &times {
                prop_assert_eq!(table.as_of(t), model.as_of(t), "as_of({})", t);
                let window = Interval::new(t, t + 25.0);
                let band = Interval::new(-400.0, 400.0);
                prop_assert_eq!(
                    table.range(window, band), model.range(window, band), "range from {}", t);
                prop_assert_eq!(
                    table.try_within(window, 0.0, 30.0).unwrap(),
                    model.within(window, 0.0, 30.0),
                    "within from {}", t
                );
                // A band only a lifetime measured to the horizon reaches.
                prop_assert_eq!(
                    table.try_within(window, HORIZON / 2.0, HORIZON).unwrap(),
                    model.within(window, HORIZON / 2.0, HORIZON),
                    "open lifetimes from {}", t
                );
            }
            // Bands that are one lifetime wide, at its start: both edges of
            // the band hold exactly that lifetime, closed or open.
            for v in &model.versions {
                let dur = v.to.unwrap_or(HORIZON) - v.from;
                let at = Interval::new(v.from, v.from);
                prop_assert_eq!(
                    table.try_within(at, dur, dur).unwrap(),
                    model.within(at, dur, dur),
                    "lifetime band [{}, {}] at {}", dur, dur, v.from
                );
            }
            // The key whose only version is open is in no tier, and seen.
            prop_assert!(table.as_of(3.0).iter().any(|(_, v)| v.key == LONER));
            prop_assert!(!table.as_of(2.9).iter().any(|(_, v)| v.key == LONER));

            prop_assert_eq!(table.current(), model.current());
            prop_assert_eq!(table.key_count(), model.open.len());
            prop_assert_eq!(table.version_count(), model.versions.len());
            for (slot, &expired) in model.expired.iter().enumerate() {
                let id = VersionId(slot as u64);
                let want = (!expired).then_some(model.versions[slot]);
                prop_assert_eq!(table.version(id), want, "version {}", slot);
            }
            for key in (0..20).chain([LONER]) {
                let history = model.select(|v| v.key == key);
                prop_assert_eq!(table.history_of(key), history, "history {}", key);
            }

            // Structure stays sound, and holds the closed versions only.
            let tiered = table.tiered_index();
            tiered.assert_invariants();
            prop_assert_eq!(tiered.len(), model.select(|v| v.to.is_some()).len());
        }
    }
}
