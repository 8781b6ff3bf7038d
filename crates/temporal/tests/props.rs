//! Property tests: the temporal table, on both backends, against a naive
//! version log.
//!
//! Only closed versions are indexed; open ones are answered from the live
//! set. The model knows nothing of that split, so every query here checks
//! that the union of the two is what a scan of the full log returns —
//! including at the instants where a version moves from one to the other.

use proptest::collection::vec;
use proptest::prelude::*;
use segidx_geom::Interval;
use segidx_temporal::{
    TemporalBackend, TemporalConfig, TemporalTable, TieredConfig, Version, VersionId,
};

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

/// Naive model: every version ever recorded, by id, and which are expired.
#[derive(Default)]
struct Model {
    versions: Vec<Version>,
    expired: Vec<bool>,
    open: std::collections::BTreeMap<u64, usize>,
    clock: std::collections::HashMap<u64, f64>,
}

impl Model {
    fn tick(&mut self, key: u64, advance: f64) -> f64 {
        let t = self.clock.get(&key).copied().unwrap_or(0.0) + advance;
        self.clock.insert(key, t);
        t
    }

    fn close(&mut self, slot: usize, at: f64) {
        let v = &mut self.versions[slot];
        v.to = Some(at.max(v.from));
    }

    fn update(&mut self, key: u64, value: f64, at: f64) {
        if let Some(slot) = self.open.insert(key, self.versions.len()) {
            self.close(slot, at);
        }
        self.versions.push(Version {
            key,
            value,
            from: at,
            to: None,
        });
        self.expired.push(false);
    }

    fn select(&self, keep: impl Fn(&Version) -> bool) -> Vec<(VersionId, Version)> {
        self.versions
            .iter()
            .enumerate()
            .filter(|&(slot, v)| !self.expired[slot] && keep(v))
            .map(|(slot, v)| (VersionId(slot as u64), *v))
            .collect()
    }

    fn as_of(&self, t: f64) -> Vec<(VersionId, Version)> {
        self.select(|v| t >= v.from && v.to.map_or(true, |to| t < to))
    }

    /// Closed-interval overlap, open versions lasting to the horizon.
    fn range(&self, time: Interval, value: Interval) -> Vec<(VersionId, Version)> {
        self.select(|v| {
            v.from <= time.hi() && v.to.unwrap_or(HORIZON) >= time.lo() && value.contains(v.value)
        })
    }

    fn within(&self, time: Interval, lo: f64, hi: f64) -> Vec<(VersionId, Version)> {
        let everything = Interval::new(f64::MIN / 2.0, f64::MAX / 2.0);
        let mut out = self.range(time, everything);
        out.retain(|(_, v)| {
            let dur = v.to.unwrap_or(HORIZON) - v.from;
            dur >= lo && dur <= hi
        });
        out
    }
}

fn backends() -> [TemporalBackend; 2] {
    [
        TemporalBackend::Flat,
        // Tiny tiers: the stream crosses many seals and merges, and
        // expiries meet sealed copies (tombstones) as well as buffered ones.
        TemporalBackend::Tiered(TieredConfig {
            seal_threshold: 6,
            level_fanout: 2,
            tombstone_limit: 8,
            ..TieredConfig::default()
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn table_matches_model(
        ops in vec(op_strategy(), 1..140),
        probes in vec(0.0..600.0f64, 1..8),
    ) {
        for backend in backends() {
            let mut table = TemporalTable::new(TemporalConfig {
                time_horizon: HORIZON,
                backend,
                ..TemporalConfig::default()
            });
            let mut model = Model::default();
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
                        let open = model.open.remove(&key);
                        prop_assert_eq!(table.delete_key(key, t), open.is_some());
                        if let Some(slot) = open {
                            model.tick(key, advance);
                            model.close(slot, t);
                        }
                    }
                    Op::Expire { slot } => {
                        let can = model.versions.get(slot).is_some_and(|v| v.to.is_some())
                            && !model.expired[slot];
                        prop_assert_eq!(table.expire(VersionId(slot as u64)), can);
                        if can {
                            model.expired[slot] = true;
                        }
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
            // The key whose only version is open is in no tree, and seen.
            prop_assert!(table.as_of(3.0).iter().any(|(_, v)| v.key == LONER));
            prop_assert!(!table.as_of(2.9).iter().any(|(_, v)| v.key == LONER));

            let current: Vec<(u64, f64)> = model
                .open
                .iter()
                .map(|(&key, &slot)| (key, model.versions[slot].value))
                .collect();
            prop_assert_eq!(table.current(), current);
            prop_assert_eq!(table.key_count(), model.open.len());
            prop_assert_eq!(table.version_count(), model.versions.len());
            for (slot, &expired) in model.expired.iter().enumerate() {
                prop_assert_eq!(table.version(VersionId(slot as u64)).is_none(), expired);
            }

            // Structure stays sound, and holds the closed versions only.
            let closed = model.select(|v| v.to.is_some()).len();
            match table.tiered_index() {
                Some(tiered) => {
                    tiered.assert_invariants();
                    prop_assert_eq!(tiered.len(), closed);
                }
                None => {
                    let issues = table.index().check_invariants();
                    prop_assert!(issues.is_empty(), "{issues:?}");
                    prop_assert_eq!(table.index().len(), closed);
                }
            }
        }
    }
}
