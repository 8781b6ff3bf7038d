//! The benchmark's fixed points: workload names, metric declarations and
//! the frozen constants. `BENCHMARK.json` repeats the names; a self-test
//! keeps the two in step.

/// The four workloads, in the order `--all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "embed-query",
    "embed-churn",
    "serve-mixed",
    "serve-temporal",
];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Clone, Copy, Debug)]
pub struct MetricDecl {
    /// Name, as printed and as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees on every workload, and what this box
/// measures steadily enough to carry a bound. The driver has every
/// workload report every one, never as 0, so the issue's other end-to-end
/// metrics — latency percentiles (wire latencies swing past the widest
/// bound here), node accesses per search and bytes per record (not every
/// workload has them) — are the `e2e.*` entries of [`PER_LAYER`].
pub const END_TO_END: &[MetricDecl] = &[
    lower("setup_s", "s"),
    higher("ops_per_s", "1/s"),
    lower("cpu_us_per_op", "us"),
    lower("peak_rss_mb", "MiB"),
];

/// Single layers, measured in the `--trace 1` run. A workload that does
/// not exercise a layer reports 0 for it.
pub const PER_LAYER: &[MetricDecl] = &[
    lower("e2e.read_p50_us", "us"),
    lower("e2e.read_p99_us", "us"),
    lower("e2e.write_p50_us", "us"),
    lower("e2e.write_p99_us", "us"),
    lower("e2e.node_accesses_per_search", "count"),
    lower("e2e.bytes_per_record", "B"),
    lower("geom.scan_intersects_ns_per_entry", "ns"),
    lower("geom.scan_stab_ns_per_entry", "ns"),
    lower("geom.scan_min_enlargement_ns_per_entry", "ns"),
    lower("core.tree.search_ns", "ns"),
    lower("core.tree.stab_ns", "ns"),
    lower("core.tree.nearest_ns", "ns"),
    lower("core.tree.insert_ns", "ns"),
    lower("core.tree.delete_ns", "ns"),
    higher("core.tree.self_share", "ratio"),
    lower("core.tree.nodes_per_search", "count"),
    lower("core.tree.nodes_per_stab", "count"),
    lower("core.tree.hits_per_search", "count"),
    lower("core.tree.splits_per_kinsert", "count"),
    lower("core.tree.promotions_per_kinsert", "count"),
    lower("core.tree.demotions_per_kinsert", "count"),
    lower("core.tree.cuts_per_kinsert", "count"),
    lower("core.tree.coalesces_per_kinsert", "count"),
    lower("core.tree.height", "count"),
    lower("core.tree.node_count", "count"),
    higher("core.tree.spanning_count", "count"),
    lower("core.tree.nodes_per_search.rtree", "count"),
    lower("core.tree.nodes_per_search.srtree", "count"),
    lower("core.tree.nodes_per_search.skeleton_rtree", "count"),
    lower("core.tree.nodes_per_search.skeleton_srtree", "count"),
    lower("core.bulk.pack_ns_per_entry.8k", "ns"),
    lower("core.bulk.pack_ns_per_entry.128k", "ns"),
    lower("core.persist.commit_ms", "ms"),
    lower("core.persist.recover_ms", "ms"),
    lower("storage.page_writes", "count"),
    lower("storage.meta_commits", "count"),
    lower("storage.bytes_written_per_record", "B"),
    higher("storage.pool_hit_rate.fits", "ratio"),
    higher("storage.pool_hit_rate.spills", "ratio"),
    lower("storage.page_reads_per_search.spills", "count"),
    lower("concurrent.submit_ns", "ns"),
    lower("concurrent.snapshot_acquire_ns", "ns"),
    lower("concurrent.queue_wait_ns", "ns"),
    lower("concurrent.apply_ns", "ns"),
    lower("concurrent.publish_ns", "ns"),
    higher("concurrent.ops_per_commit", "count"),
    lower("concurrent.busy_share", "ratio"),
    lower("server.frame.encode_ns", "ns"),
    lower("server.frame.decode_ns", "ns"),
    lower("server.parser.parse_ns", "ns"),
    lower("server.parser.bytes_per_stmt", "B"),
    lower("server.index_call_us", "us"),
    lower("server.conn.residual_us", "us"),
    higher("server.conn.accounted_share", "ratio"),
    lower("server.bytes_out_per_op", "B"),
    lower("server.busy_share", "ratio"),
    lower("server.protocol_errors", "count"),
    lower("temporal.lsm.insert_ns", "ns"),
    lower("temporal.lsm.search_ns", "ns"),
    lower("temporal.lsm.seal_ms_p50", "ms"),
    lower("temporal.lsm.seal_ms_max", "ms"),
    lower("temporal.lsm.merge_ms_max", "ms"),
    lower("temporal.lsm.seals", "count"),
    lower("temporal.lsm.merges", "count"),
    lower("temporal.lsm.tiers_final", "count"),
    lower("temporal.lsm.write_amp", "ratio"),
    lower("obs.hist_record_ns", "ns"),
    lower("obs.traced_overhead_share", "ratio"),
    lower("gen.lateness_p99_us", "us"),
    higher("gen.achieved_rate_share", "ratio"),
    lower("curve.read_p99_us.r1", "us"),
    lower("curve.read_p99_us.r2", "us"),
    lower("curve.read_p99_us.r3", "us"),
    lower("curve.write_p99_us.r1", "us"),
    lower("curve.write_p99_us.r2", "us"),
    lower("curve.write_p99_us.r3", "us"),
    lower("curve.backlog_growing.r1", "count"),
    lower("curve.backlog_growing.r2", "count"),
    lower("curve.backlog_growing.r3", "count"),
    higher("curve.max_rate_in_slo", "1/s"),
];

/// Per-layer metrics that are counts of a single-threaded run over a fixed
/// number of operations: on `embed-*` two runs with one seed must agree on
/// them to the last bit, and `compare` checks that they do.
pub const EXACT_ON_EMBED: &[&str] = &[
    "e2e.node_accesses_per_search",
    "core.tree.nodes_per_search",
    "core.tree.nodes_per_stab",
    "core.tree.hits_per_search",
    "core.tree.splits_per_kinsert",
    "core.tree.promotions_per_kinsert",
    "core.tree.demotions_per_kinsert",
    "core.tree.cuts_per_kinsert",
    "core.tree.coalesces_per_kinsert",
    "core.tree.height",
    "core.tree.node_count",
    "core.tree.spanning_count",
    "core.tree.nodes_per_search.rtree",
    "core.tree.nodes_per_search.srtree",
    "core.tree.nodes_per_search.skeleton_rtree",
    "core.tree.nodes_per_search.skeleton_srtree",
    // 0 on `embed-query`, which never touches the disk.
    "e2e.bytes_per_record",
    "storage.page_writes",
    "storage.meta_commits",
    "storage.bytes_written_per_record",
    "storage.pool_hit_rate.fits",
    "storage.pool_hit_rate.spills",
    "storage.page_reads_per_search.spills",
];

/// Connections the served workloads open.
pub const CONNECTIONS: usize = 2;
/// Requests in flight per connection in the closed-loop phase.
pub const PIPELINE_DEPTH: usize = 32;
/// Fewest set-ups per run; `setup_s` is their median. A set-up that takes
/// under a third of [`SETUP_BUDGET_S`] is repeated until the budget is
/// spent (at most [`SETUP_REPEATS_MAX`] times), so a short one is not
/// timed from three samples.
pub const SETUP_REPEATS: usize = 3;
/// Most set-ups per run.
pub const SETUP_REPEATS_MAX: usize = 15;
/// Time worth spending on repeated set-ups, seconds.
pub const SETUP_BUDGET_S: f64 = 1.0;

/// Operations `embed-query` measures per second of `--seconds`: what the
/// reference box completes, so a run measures for about `--seconds`. Op
/// counts are fixed, never wall time, so counts repeat exactly.
pub const EMBED_QUERY_OPS_PER_S: f64 = 20_000.0;
/// The same for `embed-churn`.
pub const EMBED_CHURN_OPS_PER_S: f64 = 300_000.0;

/// Shares of `--seconds` a traced served run gives the unmeasured warm-up
/// step (at `r1`), the open-loop steps at `r1`, `r2`, `r3`, and the closed
/// loop. An untraced run gives the closed loop all of it.
pub const TRACED_SHARES: [f64; 5] = [0.1, 0.2, 0.3, 0.2, 0.2];

/// Offered rates (total requests per second) of the open-loop phase and
/// the latency limit on p99. Frozen after calibration on the reference
/// box: `r2` sits at 25-40 % of closed-loop throughput, `r3` at 60-80 %,
/// `r1 = r2 / 2`.
#[derive(Clone, Copy, Debug)]
pub struct Rates {
    /// Light load.
    pub r1: f64,
    /// The rate end-to-end latency is reported at.
    pub r2: f64,
    /// Near the knee.
    pub r3: f64,
    /// Latency limit on p99, us.
    pub limit_us: f64,
    /// Requests the closed-loop phase sends per second of its share of
    /// `--seconds`: what the reference box completes.
    pub closed_ops_per_s: f64,
}

/// Rates of `serve-mixed`.
pub const MIXED_RATES: Rates = Rates {
    r1: 2_000.0,
    r2: 4_000.0,
    r3: 9_000.0,
    limit_us: 10_000.0,
    closed_ops_per_s: 12_000.0,
};

/// Rates of `serve-temporal`.
pub const TEMPORAL_RATES: Rates = Rates {
    r1: 4_000.0,
    r2: 8_000.0,
    r3: 18_000.0,
    limit_us: 10_000.0,
    closed_ops_per_s: 24_000.0,
};

/// Input sizes. `--quick` divides them by fifty for the self-tests; its
/// numbers are not comparable with a full run's.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Records the spatial workloads start from.
    pub records: usize,
    /// `RECORD`s preloaded before `serve-temporal` measures.
    pub temporal_preload: usize,
}

impl Scale {
    /// The scale every reported number uses.
    pub const FULL: Scale = Scale {
        records: 200_000,
        temporal_preload: 300_000,
    };
    /// One fiftieth, for the self-tests only.
    pub const QUICK: Scale = Scale {
        records: 4_000,
        temporal_preload: 6_000,
    };
}
