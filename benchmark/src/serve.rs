//! The served workloads: an in-process `Server` on a loopback port, driven
//! only over TCP binary frames, from two connections.
//!
//! An untraced run is one closed-loop phase (saturation: a fixed pipeline
//! depth, a fixed number of requests): throughput, CPU cost and memory. A
//! traced run adds the open loop (independent clients: requests leave on a
//! schedule, latency counts from the intended send time) at three rates,
//! for the latency percentiles at `r2` and the throughput-vs-p99 curve,
//! and replays captured requests through each server layer.

use crate::layers;
use crate::model::{
    as_of_text, brute_search, brute_stab, rows_text, within_text, Model, SpatialModel,
    TemporalModel, Version,
};
use crate::ops::{dataset, windows, MixedGen, Op, OpSource, ReadGen, RecordGen, TemporalGen};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::spec::{Rates, CONNECTIONS, MIXED_RATES, PIPELINE_DEPTH, TEMPORAL_RATES, TRACED_SHARES};
use crate::wire::{closed_loop, open_loop, preload, verify, Conn, Step, Tally, WireMetrics};
use crate::{cpu_seconds, record_memory_and_setup, timed, RunConfig};
use segidx_geom::Rect;
use segidx_server::{Server, ServerConfig};
use segidx_workloads::DataDistribution;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Requests in flight per connection while preloading.
const PRELOAD_DEPTH: usize = 256;
/// Requests kept per connection for the layer replay of a traced run.
const CAPTURE: usize = 20_000;
/// Verification probes per query kind.
const PROBES: usize = 256;

/// One connection with the stream it sends and the model it keeps.
struct Lane<G, M> {
    conn: Conn,
    source: G,
    model: M,
}

/// Open loop at `rate` requests per second in total for `duration`,
/// every lane on its own thread pair.
fn open_phase<G: OpSource, M: Model>(
    lanes: &mut [Lane<G, M>],
    rate: f64,
    duration: Duration,
) -> io::Result<Vec<Step>> {
    // A common start a little ahead, lanes staggered so their sends
    // interleave instead of colliding.
    let start = Instant::now() + Duration::from_millis(20);
    let stagger = Duration::from_secs_f64(1.0 / rate);
    // Every lane offers an equal share of the rate.
    let lane_rate = rate / lanes.len() as f64;
    let count = (lane_rate * duration.as_secs_f64()).round().max(1.0) as u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .enumerate()
            .map(|(i, lane)| {
                let Lane {
                    conn,
                    source,
                    model,
                } = lane;
                scope.spawn(move || {
                    let start = start + stagger * i as u32;
                    open_loop(conn, || source.next_op(), lane_rate, count, start, model)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lane panicked"))
            .collect()
    })
}

/// Closed loop, [`PIPELINE_DEPTH`] in flight per lane, `ops` requests in
/// all, split evenly.
fn closed_phase<G: OpSource, M: Model>(
    lanes: &mut [Lane<G, M>],
    ops: u64,
    capture: usize,
) -> io::Result<Vec<Tally>> {
    let per_lane = (ops / lanes.len() as u64).max(1);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .map(|lane| {
                let mut left = per_lane;
                let Lane {
                    conn,
                    source,
                    model,
                } = lane;
                let next = move || {
                    left = left.checked_sub(1)?;
                    Some(source.next_op())
                };
                scope.spawn(move || closed_loop(conn, next, PIPELINE_DEPTH, start, capture, model))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lane panicked"))
            .collect()
    })
}

/// One tally of every lane's.
fn sum_tallies(tallies: impl IntoIterator<Item = Tally>) -> Tally {
    let mut all = Tally::default();
    for t in tallies {
        all.merge(t);
    }
    all
}

/// What the phases of one served run found, before verification.
struct Phases {
    /// The unmeasured warm-up step and the three open-loop steps of a
    /// traced run, with their rates; none in an untraced one.
    steps: Vec<(f64, Vec<Step>)>,
    closed: Tally,
    /// CPU time the whole process (server and generator threads) used
    /// over the closed-loop phase, seconds.
    closed_cpu_s: f64,
}

/// Runs the phases the mode calls for over `lanes`. An untraced run is
/// one closed-loop phase of `--seconds` x the frozen rate requests:
/// throughput, CPU cost and memory are what this box measures steadily. A
/// traced run first warms up at `r1` without measuring — the preload's
/// trailing seals and merges finish there, not in the first step — then
/// walks the open-loop rates, then runs a shorter closed loop whose
/// requests and replies feed the layer replay. No phase records spans:
/// those are recorded in the replay.
fn run_phases<G: OpSource, M: Model>(
    cfg: &RunConfig,
    rates: Rates,
    lanes: &mut [Lane<G, M>],
) -> io::Result<Phases> {
    let [warm, s1, s2, s3, closed_share] = if cfg.trace {
        TRACED_SHARES
    } else {
        [0.0, 0.0, 0.0, 0.0, 1.0]
    };
    let mut steps = Vec::new();
    for (rate, share) in [
        (rates.r1, warm),
        (rates.r1, s1),
        (rates.r2, s2),
        (rates.r3, s3),
    ] {
        if share > 0.0 {
            steps.push((rate, open_phase(lanes, rate, cfg.measure.mul_f64(share))?));
        }
    }
    let ops = (rates.closed_ops_per_s * closed_share * cfg.measure.as_secs_f64()) as u64;
    let capture = if cfg.trace { CAPTURE } else { 0 };
    let cpu_before = cpu_seconds()?;
    let closed = sum_tallies(closed_phase(lanes, ops, capture)?);
    let closed_cpu_s = cpu_seconds()? - cpu_before;
    Ok(Phases {
        steps,
        closed,
        closed_cpu_s,
    })
}

/// Folds the phases into `outcome`: the end-to-end metrics of an untraced
/// run, or the latency, generator and curve metrics of a traced one.
/// Returns the wire read p50 at `r2` in microseconds (0 when untraced).
fn report_phases(
    cfg: &RunConfig,
    rates: Rates,
    outcome: &mut Outcome,
    phases: &mut Phases,
) -> io::Result<f64> {
    let mut read_p50_r2 = 0.0;
    let mut max_in_slo = 0.0;
    let mut in_slo_so_far = true;
    for (k, (rate, steps)) in phases.steps.iter_mut().enumerate() {
        let rate = *rate;
        let mut lateness = Vec::new();
        let mut growing = false;
        let mut send_span = Duration::ZERO;
        let mut all = sum_tallies(steps.drain(..).map(|step| {
            // Growing: more in flight at the end of the step than at its
            // middle by over a tenth (and by more than a pipeline's worth,
            // so two or three stragglers do not count).
            growing |=
                step.inflight_end as f64 > 1.1 * step.inflight_mid as f64 + PIPELINE_DEPTH as f64;
            send_span = send_span.max(step.send_span);
            lateness.extend(step.lateness_ns);
            step.tally
        }));
        outcome.count(all.attempted, all.failed, &all.errors);
        if k == 0 {
            // The warm-up: checked like every request, measured by none.
            continue;
        }
        let read = outcome.latency("read", &mut all.read_ns)?;
        let write = outcome.latency("write", &mut all.write_ns)?;
        if rate == rates.r2 {
            read_p50_r2 = read.p50 / 1e3;
            lateness.sort_unstable();
            let late_p99 = crate::stats::quantile_sorted(&lateness, 0.99) / 1e3;
            outcome.set("gen.lateness_p99_us", late_p99, lateness.len() as u64);
            let achieved = all.attempted as f64 / send_span.as_secs_f64();
            outcome.set(
                "gen.achieved_rate_share",
                (achieved / rate).min(1.0),
                all.attempted,
            );
            outcome.set_latency("read", &read);
            outcome.set_latency("write", &write);
        }
        outcome.set(&format!("curve.read_p99_us.r{k}"), read.p99 / 1e3, read.n);
        outcome.set(
            &format!("curve.write_p99_us.r{k}"),
            write.p99 / 1e3,
            write.n,
        );
        outcome.set(
            &format!("curve.backlog_growing.r{k}"),
            f64::from(u8::from(growing)),
            1,
        );
        // The highest rate that meets the limit with every lower rate
        // meeting it too. A failed or refused request misses the limit.
        in_slo_so_far &= read.p99 / 1e3 <= rates.limit_us
            && write.p99 / 1e3 <= rates.limit_us
            && !growing
            && all.failed == 0;
        if in_slo_so_far {
            max_in_slo = rate;
        }
    }
    let closed = &phases.closed;
    outcome.count(closed.attempted, closed.failed, &closed.errors);
    if cfg.trace {
        outcome.set("curve.max_rate_in_slo", max_in_slo, 3);
    } else {
        let answered = closed.answered();
        outcome.set(
            "ops_per_s",
            answered as f64 / closed.wall.as_secs_f64(),
            answered,
        );
        outcome.set(
            "cpu_us_per_op",
            phases.closed_cpu_s * 1e6 / answered.max(1) as f64,
            answered,
        );
    }
    Ok(read_p50_r2)
}

/// Counters only the server can give, from its `METRICS` statement.
fn report_wire_metrics(outcome: &mut Outcome, addr: SocketAddr) -> io::Result<()> {
    let m = WireMetrics::fetch(addr)?;
    let requests = m.sum("segidx_server_requests_total", "value").max(1.0);
    outcome.set(
        "server.bytes_out_per_op",
        m.sum("segidx_server_bytes_written_total", "value") / requests,
        requests as u64,
    );
    outcome.set(
        "server.busy_share",
        m.sum("segidx_server_busy_total", "value") / requests,
        requests as u64,
    );
    outcome.set(
        "server.protocol_errors",
        m.sum("segidx_server_protocol_errors_total", "value"),
        1,
    );
    let commits = m.sum("segidx_concurrent_commits_total", "value");
    let applied = m.sum("segidx_concurrent_ops_applied_total", "value");
    if commits > 0.0 {
        outcome.set(
            "concurrent.ops_per_commit",
            applied / commits,
            commits as u64,
        );
        outcome.set(
            "concurrent.busy_share",
            m.sum("segidx_concurrent_overloads_total", "value") / (applied + 1.0),
            applied as u64,
        );
    }
    let seals = m.sum("segidx_temporal_seals_total", "value");
    outcome.set("temporal.lsm.seals", seals, 1);
    outcome.set(
        "temporal.lsm.merges",
        m.sum("segidx_temporal_merges_total", "value"),
        1,
    );
    outcome.set(
        "temporal.lsm.tiers_final",
        m.sum("segidx_temporal_tiers", "value"),
        1,
    );
    if seals > 0.0 {
        let sealed = m.sum("segidx_temporal_sealed_entries_total", "value");
        let merged = m.sum("segidx_temporal_merged_entries_total", "value");
        outcome.set(
            "temporal.lsm.write_amp",
            (sealed + merged) / sealed.max(1.0),
            sealed as u64,
        );
        outcome.set(
            "temporal.lsm.seal_ms_p50",
            m.sum("segidx_temporal_seal_latency_nanos", "p50") / 1e6,
            seals as u64,
        );
        outcome.set(
            "temporal.lsm.seal_ms_max",
            m.sum("segidx_temporal_seal_latency_nanos", "max") / 1e6,
            seals as u64,
        );
        outcome.set(
            "temporal.lsm.merge_ms_max",
            m.sum("segidx_temporal_merge_latency_nanos", "max") / 1e6,
            1,
        );
    }
    Ok(())
}

/// A started server and how to reach it.
struct Hosted {
    server: Server,
    addr: SocketAddr,
}

impl Hosted {
    fn start() -> io::Result<Self> {
        let server = Server::start(ServerConfig::default())?;
        let addr = server.local_addr();
        Ok(Self { server, addr })
    }

    /// Stops the server once every connection has been let go. Waiting for
    /// that keeps one server's memory from overlapping the next one's, so
    /// peak memory does not depend on how fast its threads wind down.
    fn shutdown(self) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.server.stats().connections_active() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.server.shutdown();
    }
}

/// Lets go of a set-up: connections first, since the server keeps serving
/// until its clients hang up.
fn tear_down<S>((hosted, state): (Hosted, S)) {
    drop(state);
    hosted.shutdown();
}

/// Runs `serve-mixed`.
pub fn run_mixed(cfg: &RunConfig) -> io::Result<Outcome> {
    let mut outcome = Outcome::new(&cfg.workload, cfg.trace);
    let n = cfg.scale.records;
    // Exponential sides, short and long, so spanning records matter.
    let records = dataset(DataDistribution::R2, n, cfg.seed);
    let fresh: Vec<Rect<2>> = dataset(DataDistribution::R2, 2 * n, cfg.seed ^ 0x5eed)
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    // Aspect ratios 0.01 / 1 / 100 at the paper's query area: every
    // window has answers.
    let query_windows = windows(&[0.01, 1.0, 100.0], 100, cfg.seed);

    let set_up = || {
        let hosted = Hosted::start()?;
        let mut lanes = Vec::new();
        for c in 0..CONNECTIONS {
            lanes.push(Lane {
                conn: Conn::connect(hosted.addr)?,
                source: MixedGen::new(
                    cfg.seed,
                    c,
                    CONNECTIONS,
                    &records,
                    query_windows.clone(),
                    fresh.clone(),
                ),
                model: SpatialModel::default(),
            });
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = lanes
                .iter_mut()
                .enumerate()
                .map(|(c, lane)| {
                    let mine = records
                        .iter()
                        .filter(move |(id, _)| *id as usize % CONNECTIONS == c)
                        .map(|(id, rect)| Op::Insert {
                            id: *id,
                            rect: *rect,
                        });
                    scope.spawn(move || {
                        preload(&mut lane.conn, mine, PRELOAD_DEPTH, &mut lane.model)
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("preload panicked"))
        })?;
        let reply = lanes[0].conn.call("FLUSH")?;
        if !reply.starts_with("OK epoch=") {
            return Err(io::Error::other(format!("FLUSH -> {reply}")));
        }
        Ok((hosted, lanes))
    };
    let ((hosted, mut lanes), first_setup_s) = timed(set_up)?;

    let mut phases = run_phases(cfg, MIXED_RATES, &mut lanes)?;
    let read_p50_r2 = report_phases(cfg, MIXED_RATES, &mut outcome, &mut phases)?;
    if cfg.trace {
        report_wire_metrics(&mut outcome, hosted.addr)?;
        layers::served_spatial(
            cfg,
            &mut outcome,
            &records,
            &phases.closed.captured,
            read_p50_r2,
        )?;
        let rects: Vec<Rect<2>> = records.iter().map(|(_, r)| *r).collect();
        layers::geom(&mut outcome, &rects, &query_windows);
        layers::bulk(&mut outcome, &fresh);
        layers::obs(&mut outcome);
    }

    // Acknowledged writes replayed serially are the model; seeded SEARCH
    // and STAB answers must match it bit for bit.
    let mut model = SpatialModel::default();
    for lane in &lanes {
        model
            .records
            .extend(lane.model.records.iter().map(|(id, r)| (*id, *r)));
    }
    if cfg.corrupt_model {
        model.corrupt();
    }
    let pairs = model.pairs();
    let mut reads = ReadGen::new(query_windows.clone(), &records);
    let mut rng = Rng::new(cfg.seed, 300);
    let mut probes = Vec::new();
    for _ in 0..PROBES {
        if let Op::Search(w) = reads.search() {
            probes.push((Op::Search(w).text(), rows_text(&brute_search(&pairs, &w))));
        }
        if let Op::Stab(p) = reads.stab(&mut rng) {
            probes.push((Op::Stab(p).text(), rows_text(&brute_stab(&pairs, &p))));
        }
    }
    let conn = &mut lanes[0].conn;
    conn.call("FLUSH")?;
    let mismatches = verify(conn, &probes)?;
    outcome.count(probes.len() as u64, mismatches.len() as u64, &mismatches);
    outcome.notes.push(format!(
        "{} records in the model, {} probes",
        pairs.len(),
        probes.len()
    ));

    tear_down((hosted, lanes));
    if !cfg.trace {
        record_memory_and_setup(&mut outcome, first_setup_s, set_up, tear_down)?;
    }
    Ok(outcome)
}

/// Runs `serve-temporal`.
pub fn run_temporal(cfg: &RunConfig) -> io::Result<Outcome> {
    let mut outcome = Outcome::new(&cfg.workload, cfg.trace);
    let mut source = RecordGen::new(cfg.seed);
    let preloaded: Vec<Op> = (0..cfg.scale.temporal_preload)
        .map(|_| source.next_op())
        .collect();
    let history = match preloaded.last() {
        Some(Op::Record { at, .. }) => *at,
        _ => return Err(io::Error::other("empty temporal preload")),
    };

    let set_up = || {
        let hosted = Hosted::start()?;
        let mut model = TemporalModel::default();
        preload(
            &mut Conn::connect(hosted.addr)?,
            preloaded.iter().copied(),
            PRELOAD_DEPTH,
            &mut model,
        )?;
        let mut lanes = Vec::new();
        for c in 0..CONNECTIONS {
            lanes.push(Lane {
                conn: Conn::connect(hosted.addr)?,
                source: TemporalGen::new(cfg.seed, c, CONNECTIONS, history),
                // Every lane starts from the preload; it goes on to close
                // and open versions of its own keys only.
                model: model.clone(),
            });
        }
        Ok((hosted, lanes))
    };
    let ((hosted, mut lanes), first_setup_s) = timed(set_up)?;

    let mut phases = run_phases(cfg, TEMPORAL_RATES, &mut lanes)?;

    let read_p50_r2 = report_phases(cfg, TEMPORAL_RATES, &mut outcome, &mut phases)?;
    if cfg.trace {
        report_wire_metrics(&mut outcome, hosted.addr)?;
        layers::served_temporal(
            cfg,
            &mut outcome,
            &preloaded,
            &phases.closed.captured,
            read_p50_r2,
        )?;
        let rects = layers::version_rects(&preloaded);
        let probes: Vec<Rect<2>> = (0..100)
            .map(|i| {
                let t = history * f64::from(i) / 100.0;
                Rect::new([t, 0.0], [t, 100_000.0])
            })
            .collect();
        layers::geom(&mut outcome, &rects, &probes);
        layers::bulk(&mut outcome, &rects);
        layers::obs(&mut outcome);
    }

    // Acknowledged RECORDs are the model (each lane vouches for the keys
    // it wrote); seeded AS OF and WITHIN answers over the whole recorded
    // history must match it.
    let mut versions: Vec<(u64, Version)> = lanes
        .iter()
        .enumerate()
        .flat_map(|(c, lane)| lane.model.versions(|key| key as usize % CONNECTIONS == c))
        .collect();
    versions.sort_unstable_by_key(|(id, _)| *id);
    if cfg.corrupt_model {
        for (_, v) in &mut versions {
            v.value += 1.0;
        }
    }
    let last = versions.iter().map(|(_, v)| v.from).fold(history, f64::max);
    let mut rng = Rng::new(cfg.seed, 301);
    let probes: Vec<(String, String)> = (0..PROBES)
        .map(|i| {
            let t = rng.f64() * last;
            if i % 8 == 7 {
                let (t2, hi) = (t + 2_000.0, 2_560.0);
                let op = Op::Within {
                    t1: t,
                    t2,
                    lo: 0.0,
                    hi,
                };
                (op.text(), within_text(&versions, t, t2, 0.0, hi))
            } else {
                (Op::AsOf(t).text(), as_of_text(&versions, t))
            }
        })
        .collect();
    let mismatches = verify(&mut lanes[0].conn, &probes)?;
    outcome.count(probes.len() as u64, mismatches.len() as u64, &mismatches);
    outcome.notes.push(format!(
        "{} versions in the model, {} probes",
        versions.len(),
        probes.len()
    ));

    tear_down((hosted, lanes));
    if !cfg.trace {
        record_memory_and_setup(&mut outcome, first_setup_s, set_up, tear_down)?;
    }
    Ok(outcome)
}
