//! The brute-force reference the temporal-table tests check against: a
//! log of every version ever recorded, by id, scanned in full per query.
//! It knows nothing of the live set, the memtable or the tiers.

#![allow(dead_code)] // each test binary uses its own part of it

use segidx_geom::Interval;
use segidx_temporal::{Version, VersionId};
use std::collections::{BTreeMap, HashMap};

#[derive(Default)]
pub struct Model {
    pub horizon: f64,
    /// Every version ever recorded, by id, and which are expired.
    pub versions: Vec<Version>,
    pub expired: Vec<bool>,
    /// `key → id` of its open version.
    pub open: BTreeMap<u64, usize>,
    /// Each key's latest timestamp.
    pub clock: HashMap<u64, f64>,
}

impl Model {
    pub fn new(horizon: f64) -> Self {
        let log = Self::default();
        Self { horizon, ..log }
    }

    /// Advances `key`'s clock by `advance` and returns the new time.
    pub fn tick(&mut self, key: u64, advance: f64) -> f64 {
        let t = self.clock.get(&key).copied().unwrap_or(0.0) + advance;
        self.clock.insert(key, t);
        t
    }

    pub fn update(&mut self, key: u64, value: f64, at: f64) {
        self.delete(key, at);
        self.open.insert(key, self.versions.len());
        let to = None;
        self.versions.push(Version {
            key,
            value,
            from: at,
            to,
        });
        self.expired.push(false);
    }

    /// Closes `key`'s open version at `at`; whether it had one.
    pub fn delete(&mut self, key: u64, at: f64) -> bool {
        let open = self.open.remove(&key);
        open.map(|id| self.versions[id].to = Some(at)).is_some()
    }

    /// Expires a closed, unexpired version; whether it was one.
    pub fn expire(&mut self, id: VersionId) -> bool {
        let id = id.0 as usize;
        let closed = self.versions.get(id).is_some_and(|v| v.to.is_some());
        let can = closed && !self.expired[id];
        if can {
            self.expired[id] = true;
        }
        can
    }

    pub fn select(&self, keep: impl Fn(&Version) -> bool) -> Vec<(VersionId, Version)> {
        let live = |&(id, v): &(usize, &Version)| !self.expired[id] && keep(v);
        let all = self.versions.iter().enumerate();
        all.filter(live)
            .map(|(id, v)| (VersionId(id as u64), *v))
            .collect()
    }

    pub fn as_of(&self, t: f64) -> Vec<(VersionId, Version)> {
        self.select(|v| t >= v.from && v.to.map_or(true, |to| t < to))
    }

    /// Closed-interval overlap, open versions lasting to the horizon.
    pub fn range(&self, time: Interval, value: Interval) -> Vec<(VersionId, Version)> {
        self.select(|v| {
            let to = v.to.unwrap_or(self.horizon);
            v.from <= time.hi() && to >= time.lo() && value.contains(v.value)
        })
    }

    pub fn within(&self, time: Interval, lo: f64, hi: f64) -> Vec<(VersionId, Version)> {
        let everything = Interval::new(f64::MIN / 2.0, f64::MAX / 2.0);
        let mut out = self.range(time, everything);
        out.retain(|(_, v)| (lo..=hi).contains(&(v.to.unwrap_or(self.horizon) - v.from)));
        out
    }

    /// Open versions as `(key, value)`, by key.
    pub fn current(&self) -> Vec<(u64, f64)> {
        let value = |(&key, &id): (&u64, &usize)| (key, self.versions[id].value);
        self.open.iter().map(value).collect()
    }
}
