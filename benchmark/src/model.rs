//! Serial reference models the workloads check the system against.
//!
//! The spatial model is a brute-force scan over `(id, rectangle)` pairs;
//! the temporal model is a list of versions. Expected replies are rendered
//! in the server's wire format, so a served answer is compared as text.

use crate::ops::Op;
use segidx_geom::{Point, Rect};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Ids of records intersecting `window`, ascending.
pub fn brute_search<'a>(
    records: impl IntoIterator<Item = &'a (u64, Rect<2>)>,
    window: &Rect<2>,
) -> Vec<u64> {
    let mut ids: Vec<u64> = records
        .into_iter()
        .filter(|(_, r)| r.intersects(window))
        .map(|(id, _)| *id)
        .collect();
    ids.sort_unstable();
    ids
}

/// Ids of records containing `p`, ascending.
pub fn brute_stab<'a>(
    records: impl IntoIterator<Item = &'a (u64, Rect<2>)>,
    p: &Point<2>,
) -> Vec<u64> {
    let mut ids: Vec<u64> = records
        .into_iter()
        .filter(|(_, r)| r.contains_point(p))
        .map(|(id, _)| *id)
        .collect();
    ids.sort_unstable();
    ids
}

/// Distances of the `k` records nearest `p`, ascending. Ids are left out:
/// ties at equal distance may be broken either way.
pub fn brute_nearest<'a>(
    records: impl IntoIterator<Item = &'a (u64, Rect<2>)>,
    p: &Point<2>,
    k: usize,
) -> Vec<f64> {
    let mut dists: Vec<f64> = records.into_iter().map(|(_, r)| r.min_dist(p)).collect();
    dists.sort_by(f64::total_cmp);
    dists.truncate(k);
    dists
}

/// Whether two ascending distance lists agree to rounding.
pub fn same_distances(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0))
}

/// The reply to a window or stabbing query: `ROWS <n> <id>…`.
pub fn rows_text(ids: &[u64]) -> String {
    let mut out = format!("ROWS {}", ids.len());
    for id in ids {
        let _ = write!(out, " {id}");
    }
    out
}

/// What a connection learnt from its acknowledged writes.
pub trait Model: Send {
    /// Folds in a write the server acknowledged with `reply`. Returns
    /// `false` when the acknowledgement contradicts the model.
    fn acknowledged(&mut self, op: &Op, reply: &str) -> bool;
}

/// Records an index holds, by id: every acknowledged insert minus every
/// acknowledged delete.
#[derive(Clone, Debug, Default)]
pub struct SpatialModel {
    /// Live records.
    pub records: HashMap<u64, Rect<2>>,
}

impl SpatialModel {
    /// Forgets every even id, so most non-empty answers differ (the
    /// self-test's deliberate corruption).
    pub fn corrupt(&mut self) {
        self.records.retain(|id, _| id % 2 == 1);
    }

    /// The live records as scan-ready pairs.
    pub fn pairs(&self) -> Vec<(u64, Rect<2>)> {
        self.records.iter().map(|(id, r)| (*id, *r)).collect()
    }
}

impl Model for SpatialModel {
    fn acknowledged(&mut self, op: &Op, _reply: &str) -> bool {
        match op {
            Op::Insert { id, rect } => {
                self.records.insert(*id, *rect);
            }
            Op::Delete { id, .. } => {
                self.records.remove(id);
            }
            _ => {}
        }
        true
    }
}

/// Where the served temporal table indexes still-open versions to.
const HORIZON: f64 = f64::MAX / 2.0;

/// One version of a key.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Version {
    /// Key.
    pub key: u64,
    /// Attribute value.
    pub value: f64,
    /// Start of validity.
    pub from: f64,
    /// End of validity; `None` while current.
    pub to: Option<f64>,
}

/// Closed and open versions of every key, under the ids the server
/// acknowledged them with.
#[derive(Clone, Debug, Default)]
pub struct TemporalModel {
    versions: HashMap<u64, Version>,
    open: HashMap<u64, u64>,
}

impl TemporalModel {
    /// Records version `id` of `key`, closing the key's open version.
    /// `false` when `id` is already taken.
    pub fn record(&mut self, id: u64, key: u64, value: f64, at: f64) -> bool {
        if let Some(prev) = self.open.insert(key, id) {
            if let Some(v) = self.versions.get_mut(&prev) {
                v.to = Some(at.max(v.from));
            }
        }
        let version = Version {
            key,
            value,
            from: at,
            to: None,
        };
        self.versions.insert(id, version).is_none()
    }

    /// The versions whose key passes `keep`, ascending by id — the order
    /// replies list them in.
    pub fn versions(&self, keep: impl Fn(u64) -> bool) -> Vec<(u64, Version)> {
        let mut all: Vec<(u64, Version)> = self
            .versions
            .iter()
            .filter(|(_, v)| keep(v.key))
            .map(|(id, v)| (*id, *v))
            .collect();
        all.sort_unstable_by_key(|(id, _)| *id);
        all
    }
}

impl Model for TemporalModel {
    fn acknowledged(&mut self, op: &Op, reply: &str) -> bool {
        let Op::Record { key, value, at } = op else {
            return true;
        };
        match reply
            .strip_prefix("OK version=")
            .and_then(|v| v.parse().ok())
        {
            Some(id) => self.record(id, *key, *value, *at),
            None => false,
        }
    }
}

fn vers_text<'a>(rows: impl Iterator<Item = &'a (u64, Version)>) -> String {
    let rows: Vec<_> = rows.collect();
    let mut out = format!("VERS {}", rows.len());
    for (id, v) in rows {
        let _ = write!(out, " {id}:{}={:?}", v.key, v.value);
    }
    out
}

/// The reply to `AS OF t` over `versions` (ascending by id): those with
/// `from <= t < to`.
pub fn as_of_text(versions: &[(u64, Version)], t: f64) -> String {
    vers_text(
        versions
            .iter()
            .filter(|(_, v)| t >= v.from && v.to.is_none_or(|to| t < to)),
    )
}

/// The reply to `WITHIN (t1, t2) DURATION lo hi` over `versions`: those
/// whose closed validity interval meets `[t1, t2]` and whose lifetime (to
/// the horizon while open) lies in `[lo, hi]`.
pub fn within_text(versions: &[(u64, Version)], t1: f64, t2: f64, lo: f64, hi: f64) -> String {
    vers_text(versions.iter().filter(|(_, v)| {
        let to = v.to.unwrap_or(HORIZON);
        let dur = to - v.from;
        v.from <= t2 && to >= t1 && dur >= lo && dur <= hi
    }))
}
