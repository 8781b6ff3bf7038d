//! Operations and the seeded streams that produce them.
//!
//! One [`Op`] type serves both kinds of workload: the embedded ones apply
//! it to a `Tree`, the served ones render it as a statement of the query
//! language. A stream is a pure function of the seed, so two runs with one
//! seed issue byte-identical statements.

use crate::rng::Rng;
use segidx_geom::{Point, Rect};
use segidx_workloads::{queries_for_qar, DataDistribution};
use std::fmt::Write as _;

/// One operation against the index or the temporal table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// Window query.
    Search(Rect<2>),
    /// Stabbing query.
    Stab(Point<2>),
    /// `k` nearest neighbours.
    Nearest(Point<2>, usize),
    /// Insert a record.
    Insert {
        /// Record id.
        id: u64,
        /// Its rectangle.
        rect: Rect<2>,
    },
    /// Delete a record by id and the rectangle it was inserted with.
    Delete {
        /// Record id.
        id: u64,
        /// Its rectangle.
        rect: Rect<2>,
    },
    /// Open a new version of `key` (closing its predecessor).
    Record {
        /// Key.
        key: u64,
        /// Attribute value.
        value: f64,
        /// Start of validity.
        at: f64,
    },
    /// Versions valid at `t`.
    AsOf(f64),
    /// Versions overlapping `(t1, t2)` that lived between `lo` and `hi`.
    Within {
        /// Window start.
        t1: f64,
        /// Window end.
        t2: f64,
        /// Shortest lifetime.
        lo: f64,
        /// Longest lifetime.
        hi: f64,
    },
}

impl Op {
    /// Whether the operation mutates state (reported under `write_*`).
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Op::Insert { .. } | Op::Delete { .. } | Op::Record { .. }
        )
    }

    /// Appends the statement text the server parses. `{:?}` prints the
    /// shortest text that round-trips an `f64` exactly.
    pub fn render(&self, out: &mut String) {
        let rect = |out: &mut String, r: &Rect<2>| {
            let (lo, hi) = (r.lo_coords(), r.hi_coords());
            let _ = write!(out, "({:?}, {:?}) ({:?}, {:?})", lo[0], lo[1], hi[0], hi[1]);
        };
        match self {
            Op::Search(w) => {
                out.push_str("SEARCH WINDOW ");
                rect(out, w);
            }
            Op::Stab(p) => {
                let _ = write!(out, "STAB POINT ({:?}, {:?})", p.coord(0), p.coord(1));
            }
            Op::Nearest(p, k) => {
                let _ = write!(
                    out,
                    "NEAREST POINT ({:?}, {:?}) K {k}",
                    p.coord(0),
                    p.coord(1)
                );
            }
            Op::Insert { id, rect: r } => {
                out.push_str("INSERT RECT ");
                rect(out, r);
                let _ = write!(out, " ID {id}");
            }
            Op::Delete { id, rect: r } => {
                let _ = write!(out, "DELETE ID {id} RECT ");
                rect(out, r);
            }
            Op::Record { key, value, at } => {
                let _ = write!(out, "RECORD {key} VALUE {value:?} AT {at:?}");
            }
            Op::AsOf(t) => {
                let _ = write!(out, "AS OF {t:?}");
            }
            Op::Within { t1, t2, lo, hi } => {
                let _ = write!(out, "WITHIN ({t1:?}, {t2:?}) DURATION {lo:?} {hi:?}");
            }
        }
    }

    /// The statement text as a fresh string.
    pub fn text(&self) -> String {
        let mut s = String::new();
        self.render(&mut s);
        s
    }
}

/// The records a spatial workload starts from, ids `0..n`.
pub fn dataset(dist: DataDistribution, n: usize, seed: u64) -> Vec<(u64, Rect<2>)> {
    dist.generate(n, seed)
        .records
        .into_iter()
        .enumerate()
        .map(|(i, (rect, _))| (i as u64, rect))
        .collect()
}

/// Query windows: `per_qar` windows of the paper's area for each aspect
/// ratio in `qars`, interleaved so a cycle visits every ratio.
pub fn windows(qars: &[f64], per_qar: usize, seed: u64) -> Vec<Rect<2>> {
    let sets: Vec<Vec<Rect<2>>> = qars
        .iter()
        .map(|&q| queries_for_qar(q, per_qar, seed).queries)
        .collect();
    (0..per_qar)
        .flat_map(|i| sets.iter().map(move |s| s[i]))
        .collect()
}

/// Read operations of the spatial mixes: windows cycled in order, stabs
/// and nearest-neighbour probes at the centre of a seeded record, so a stab
/// on interval data (zero height) still has an answer.
#[derive(Clone, Debug)]
pub struct ReadGen {
    windows: Vec<Rect<2>>,
    next_window: usize,
    centres: Vec<Point<2>>,
}

impl ReadGen {
    /// Reads over `windows`, probing the centres of `records`.
    pub fn new(windows: Vec<Rect<2>>, records: &[(u64, Rect<2>)]) -> Self {
        Self {
            windows,
            next_window: 0,
            centres: records.iter().map(|(_, r)| r.center()).collect(),
        }
    }

    /// The next window query.
    pub fn search(&mut self) -> Op {
        let w = self.windows[self.next_window];
        self.next_window = (self.next_window + 1) % self.windows.len();
        Op::Search(w)
    }

    /// A stab at a seeded record's centre.
    pub fn stab(&mut self, rng: &mut Rng) -> Op {
        Op::Stab(self.centres[rng.below(self.centres.len())])
    }

    /// A 4-nearest probe at a seeded record's centre.
    pub fn nearest(&mut self, rng: &mut Rng) -> Op {
        Op::Nearest(self.centres[rng.below(self.centres.len())], 4)
    }
}

/// A seeded stream of operations one connection sends.
pub trait OpSource: Send {
    /// The next operation.
    fn next_op(&mut self) -> Op;
}

/// Shares of 100 of the served spatial mix, in the order search, stab,
/// nearest, insert, delete.
pub const MIXED_SHARES: [u64; 5] = [40, 20, 5, 20, 15];

/// One connection's share of `serve-mixed`: 40 % SEARCH, 20 % STAB, 5 %
/// NEAREST, 20 % INSERT, 15 % DELETE. A delete always names a record this
/// connection owns (a preloaded one of its residue class, or one it
/// inserted earlier), and a connection's writes are applied in the order
/// it sent them, so every delete finds its record.
#[derive(Clone, Debug)]
pub struct MixedGen {
    rng: Rng,
    reads: ReadGen,
    fresh: Vec<Rect<2>>,
    next_fresh: usize,
    next_id: u64,
    live: Vec<(u64, Rect<2>)>,
}

impl MixedGen {
    /// The stream of connection `conn` of `conns`. `preloaded` is the
    /// whole preload; `fresh` rectangles feed the inserts.
    pub fn new(
        seed: u64,
        conn: usize,
        conns: usize,
        preloaded: &[(u64, Rect<2>)],
        windows: Vec<Rect<2>>,
        fresh: Vec<Rect<2>>,
    ) -> Self {
        Self {
            rng: Rng::new(seed, 100 + conn as u64),
            reads: ReadGen::new(windows, preloaded),
            fresh,
            next_fresh: 0,
            next_id: (conn as u64 + 1) << 40,
            live: preloaded
                .iter()
                .filter(|(id, _)| *id as usize % conns == conn)
                .copied()
                .collect(),
        }
    }
}

impl OpSource for MixedGen {
    fn next_op(&mut self) -> Op {
        let roll = self.rng.next_u64() % 100;
        let [s, st, n, i, _] = MIXED_SHARES;
        if roll < s {
            self.reads.search()
        } else if roll < s + st {
            self.reads.stab(&mut self.rng)
        } else if roll < s + st + n {
            self.reads.nearest(&mut self.rng)
        } else if roll < s + st + n + i || self.live.is_empty() {
            let rect = self.fresh[self.next_fresh];
            self.next_fresh = (self.next_fresh + 1) % self.fresh.len();
            let id = self.next_id;
            self.next_id += 1;
            self.live.push((id, rect));
            Op::Insert { id, rect }
        } else {
            let slot = self.rng.below(self.live.len());
            let (id, rect) = self.live.swap_remove(slot);
            Op::Delete { id, rect }
        }
    }
}

/// Keys of the temporal workload.
pub const TEMPORAL_KEYS: u64 = 256;
/// Mean gap between consecutive `RECORD` timestamps.
pub const TEMPORAL_MEAN_GAP: f64 = 10.0;

/// The `RECORD` stream `serve-temporal` preloads: seeded keys, strictly
/// increasing timestamps with exponential gaps, so version lifetimes are
/// skewed (many short, a few very long).
#[derive(Clone, Debug)]
pub struct RecordGen {
    rng: Rng,
    t: f64,
}

impl RecordGen {
    /// The stream for `seed`, starting at time 0.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Rng::new(seed, 200),
            t: 0.0,
        }
    }
}

impl OpSource for RecordGen {
    fn next_op(&mut self) -> Op {
        // The floor keeps timestamps strictly increasing.
        self.t += self.rng.exp(TEMPORAL_MEAN_GAP).max(1e-3);
        let key = self.rng.next_u64() % TEMPORAL_KEYS;
        let value = (self.rng.next_u64() % 100_000) as f64;
        Op::Record {
            key,
            value,
            at: self.t,
        }
    }
}

/// Shares of 100 of the served temporal mix, in the order RECORD, AS OF,
/// WITHIN.
pub const TEMPORAL_SHARES: [u64; 3] = [80, 14, 6];

/// One connection's share of `serve-temporal`: 80 % `RECORD`, 14 % `AS OF`,
/// 6 % `WITHIN`. A key's history must be appended in time order, so each
/// connection records only the keys of its residue class, on its own
/// clock, which starts where the preload ended. `AS OF` asks at a uniform
/// time of the preloaded history (at most one row per key comes back);
/// `WITHIN` covers a window 200 mean gaps wide and keeps versions that
/// lived no longer than the mean lifetime.
#[derive(Clone, Debug)]
pub struct TemporalGen {
    rng: Rng,
    conn: u64,
    conns: u64,
    t: f64,
    history: f64,
}

impl TemporalGen {
    /// The stream of connection `conn` of `conns`, after a preload whose
    /// last `RECORD` was at `history`.
    pub fn new(seed: u64, conn: usize, conns: usize, history: f64) -> Self {
        Self {
            rng: Rng::new(seed, 210 + conn as u64),
            conn: conn as u64,
            conns: conns as u64,
            t: history,
            history,
        }
    }
}

impl OpSource for TemporalGen {
    fn next_op(&mut self) -> Op {
        let roll = self.rng.next_u64() % 100;
        let [record, as_of, _] = TEMPORAL_SHARES;
        if roll < record {
            // Each connection sees 1/conns of the records, so its clock
            // runs at 1/conns of the density.
            self.t += self
                .rng
                .exp(TEMPORAL_MEAN_GAP * self.conns as f64)
                .max(1e-3);
            let key = self.rng.next_u64() % (TEMPORAL_KEYS / self.conns) * self.conns + self.conn;
            let value = (self.rng.next_u64() % 100_000) as f64;
            return Op::Record {
                key,
                value,
                at: self.t,
            };
        }
        let t = self.rng.f64() * self.history;
        if roll < record + as_of {
            Op::AsOf(t)
        } else {
            Op::Within {
                t1: t,
                t2: t + 200.0 * TEMPORAL_MEAN_GAP,
                lo: 0.0,
                hi: TEMPORAL_KEYS as f64 * TEMPORAL_MEAN_GAP,
            }
        }
    }
}
