//! Per-connection server telemetry, merged into `segidx_server_*` metric
//! families.
//!
//! Each connection owns an [`ConnStats`] (wait-free atomics + two
//! [`LatencyHistogram`]s). The server keeps weak references to live
//! connections and folds the counters of closed connections into a
//! retired accumulator, so the exported families always cover the full
//! lifetime of the server: `live + retired`. A connection closes when its
//! [`OpenConnection`] drops, so one whose thread unwinds is folded in like
//! any other and no counter ever goes backwards.

use crate::parser::OPS;
use segidx_obs::{Family, HistogramSnapshot, LatencyHistogram, Metric, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

const CONNECTIONS_TOTAL: Family = Family::counter("segidx_server_connections_total");
const CONNECTIONS_ACTIVE: Family = Family::gauge("segidx_server_connections_active");
pub(crate) const REQUESTS_TOTAL: Family = Family::counter("segidx_server_requests_total");
const FRAMES_TOTAL: Family = Family::counter("segidx_server_frames_total");
pub(crate) const PARSE_ERRORS_TOTAL: Family = Family::counter("segidx_server_parse_errors_total");
const PROTOCOL_ERRORS_TOTAL: Family = Family::counter("segidx_server_protocol_errors_total");
const BUSY_TOTAL: Family = Family::counter("segidx_server_busy_total");
const BYTES_READ_TOTAL: Family = Family::counter("segidx_server_bytes_read_total");
const BYTES_WRITTEN_TOTAL: Family = Family::counter("segidx_server_bytes_written_total");
/// Socket writes, one per settled batch of replies.
pub(crate) const WRITES_TOTAL: Family = Family::counter("segidx_server_writes_total");
/// Reads, frame decode to response enqueued, nanoseconds.
pub const READ_LATENCY_NANOS: Family = Family::histogram("segidx_server_read_latency_nanos");
/// Writes, frame decode to commit callback, nanoseconds.
pub const WRITE_LATENCY_NANOS: Family = Family::histogram("segidx_server_write_latency_nanos");

/// The server's per-connection families, emitted by
/// [`ServerStats::register_metrics`]. `segidx_server_requests_total`
/// carries one series per [`OPS`] entry (`op`), and
/// `segidx_server_frames_total` one per framing mode (`mode`).
pub const METRICS: &[Family] = &[
    CONNECTIONS_TOTAL,
    CONNECTIONS_ACTIVE,
    REQUESTS_TOTAL,
    FRAMES_TOTAL,
    PARSE_ERRORS_TOTAL,
    PROTOCOL_ERRORS_TOTAL,
    BUSY_TOTAL,
    BYTES_READ_TOTAL,
    BYTES_WRITTEN_TOTAL,
    WRITES_TOTAL,
    READ_LATENCY_NANOS,
    WRITE_LATENCY_NANOS,
];

/// The label on every metric the server emits.
pub(crate) const COMPONENT: (&str, &str) = ("component", "server");

/// Wait-free counters for one connection.
#[derive(Debug, Default)]
pub struct ConnStats {
    /// Time from frame decode to response enqueued, reads (search / stab /
    /// nearest / admin), nanoseconds.
    pub read_latency: LatencyHistogram,
    /// Time from frame decode to commit callback, writes, nanoseconds.
    pub write_latency: LatencyHistogram,
    requests: [AtomicU64; OPS.len()],
    frames_binary: AtomicU64,
    frames_line: AtomicU64,
    parse_errors: AtomicU64,
    protocol_errors: AtomicU64,
    busy: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    writes: AtomicU64,
}

impl ConnStats {
    /// Fresh, zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one request of kind `op`, an index into [`OPS`]
    /// ([`Statement::op`](crate::Statement::op)).
    pub fn count_request(&self, op: usize) {
        self.requests[op].fetch_add(1, Relaxed);
    }

    /// Counts one decoded frame in `mode`.
    pub fn count_frame(&self, mode: crate::frame::Mode) {
        match mode {
            crate::frame::Mode::Binary => self.frames_binary.fetch_add(1, Relaxed),
            crate::frame::Mode::Line => self.frames_line.fetch_add(1, Relaxed),
        };
    }

    /// Counts one statement the parser rejected.
    pub fn count_parse_error(&self) {
        self.parse_errors.fetch_add(1, Relaxed);
    }

    /// Counts one framing-level error (connection is closed after).
    pub fn count_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Relaxed);
    }

    /// Counts one write rejected with `BUSY` by admission control.
    pub fn count_busy(&self) {
        self.busy.fetch_add(1, Relaxed);
    }

    /// Adds to the inbound byte counter.
    pub fn add_bytes_read(&self, n: u64) {
        self.bytes_read.fetch_add(n, Relaxed);
    }

    /// Adds to the outbound byte counter.
    pub fn add_bytes_written(&self, n: u64) {
        self.bytes_written.fetch_add(n, Relaxed);
    }

    /// Counts one socket write, as it is made.
    pub fn count_write(&self) {
        self.writes.fetch_add(1, Relaxed);
    }
}

/// Scalar + histogram totals folded out of [`ConnStats`].
#[derive(Debug, Default, Clone)]
struct Totals {
    requests: [u64; OPS.len()],
    frames_binary: u64,
    frames_line: u64,
    parse_errors: u64,
    protocol_errors: u64,
    busy: u64,
    bytes_read: u64,
    bytes_written: u64,
    writes: u64,
    read_latency: HistogramSnapshot,
    write_latency: HistogramSnapshot,
}

impl Totals {
    fn absorb(&mut self, stats: &ConnStats) {
        for (t, c) in self.requests.iter_mut().zip(stats.requests.iter()) {
            *t += c.load(Relaxed);
        }
        self.frames_binary += stats.frames_binary.load(Relaxed);
        self.frames_line += stats.frames_line.load(Relaxed);
        self.parse_errors += stats.parse_errors.load(Relaxed);
        self.protocol_errors += stats.protocol_errors.load(Relaxed);
        self.busy += stats.busy.load(Relaxed);
        self.bytes_read += stats.bytes_read.load(Relaxed);
        self.bytes_written += stats.bytes_written.load(Relaxed);
        self.writes += stats.writes.load(Relaxed);
        self.read_latency.merge(&stats.read_latency.snapshot());
        self.write_latency.merge(&stats.write_latency.snapshot());
    }
}

/// Server-lifetime telemetry: connection registry + retired totals.
#[derive(Debug, Default)]
pub struct ServerStats {
    connections_total: AtomicU64,
    /// Taken before `retired` wherever both are held.
    live: Mutex<Vec<Weak<ConnStats>>>,
    retired: Mutex<Totals>,
}

/// Locks `m` whether or not a thread panicked holding it: every section
/// under these locks is one `push` / `retain` / `absorb` / `clone`, which
/// moves its fields together, so a poisoned value is still consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An open connection's stats handle. Dropping it — at the connection
/// thread's normal exit or while that thread unwinds — folds the
/// connection into the server's retired totals.
#[derive(Debug)]
pub struct OpenConnection {
    server: Arc<ServerStats>,
    stats: Arc<ConnStats>,
}

impl std::ops::Deref for OpenConnection {
    type Target = ConnStats;
    fn deref(&self) -> &ConnStats {
        &self.stats
    }
}

impl Drop for OpenConnection {
    fn drop(&mut self) {
        // Both locks at once: a concurrent `totals` sees the connection
        // live or retired, never both and never neither.
        let mut live = lock(&self.server.live);
        lock(&self.server.retired).absorb(&self.stats);
        let ptr = Arc::as_ptr(&self.stats);
        live.retain(|w| !std::ptr::eq(w.as_ptr(), ptr));
    }
}

impl ServerStats {
    /// Empty stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new connection and returns its stats handle, which
    /// closes the connection when dropped.
    pub fn open_connection(self: &Arc<Self>) -> OpenConnection {
        self.connections_total.fetch_add(1, Relaxed);
        let stats = Arc::new(ConnStats::new());
        lock(&self.live).push(Arc::downgrade(&stats));
        OpenConnection {
            server: Arc::clone(self),
            stats,
        }
    }

    /// Connections accepted over the server's lifetime.
    pub fn connections_total(&self) -> u64 {
        self.connections_total.load(Relaxed)
    }

    /// Currently open connections.
    pub fn connections_active(&self) -> usize {
        lock(&self.live).len()
    }

    /// `live + retired` totals across every connection ever opened.
    fn totals(&self) -> Totals {
        let live = lock(&self.live);
        let mut t = lock(&self.retired).clone();
        for stats in live.iter().filter_map(Weak::upgrade) {
            t.absorb(&stats);
        }
        t
    }

    /// One-line human summary for the `STATS` statement.
    pub fn summary_line(&self) -> String {
        let t = self.totals();
        let requests: u64 = t.requests.iter().sum();
        format!(
            "connections={} active={} requests={} busy={} parse_errors={} protocol_errors={} bytes_in={} bytes_out={}",
            self.connections_total(),
            self.connections_active(),
            requests,
            t.busy,
            t.parse_errors,
            t.protocol_errors,
            t.bytes_read,
            t.bytes_written,
        )
    }

    /// Registers the [`METRICS`] families on `registry`, labelled
    /// `component="server"`.
    pub fn register_metrics(self: &Arc<Self>, registry: &MetricsRegistry) {
        let stats = Arc::clone(self);
        registry.register(
            METRICS,
            Box::new(move |out| {
                let l = &[COMPONENT];
                let t = stats.totals();
                out.push(Metric::counter(
                    CONNECTIONS_TOTAL.name,
                    l,
                    stats.connections_total(),
                ));
                out.push(Metric::gauge(
                    CONNECTIONS_ACTIVE.name,
                    l,
                    stats.connections_active() as f64,
                ));
                for (op, n) in OPS.iter().zip(t.requests) {
                    out.push(Metric::counter(
                        REQUESTS_TOTAL.name,
                        &[COMPONENT, ("op", op)],
                        n,
                    ));
                }
                for (mode, n) in [("binary", t.frames_binary), ("line", t.frames_line)] {
                    out.push(Metric::counter(
                        FRAMES_TOTAL.name,
                        &[COMPONENT, ("mode", mode)],
                        n,
                    ));
                }
                out.push(Metric::counter(PARSE_ERRORS_TOTAL.name, l, t.parse_errors));
                out.push(Metric::counter(
                    PROTOCOL_ERRORS_TOTAL.name,
                    l,
                    t.protocol_errors,
                ));
                out.push(Metric::counter(BUSY_TOTAL.name, l, t.busy));
                out.push(Metric::counter(BYTES_READ_TOTAL.name, l, t.bytes_read));
                out.push(Metric::counter(
                    BYTES_WRITTEN_TOTAL.name,
                    l,
                    t.bytes_written,
                ));
                out.push(Metric::counter(WRITES_TOTAL.name, l, t.writes));
                out.push(Metric::histogram(
                    READ_LATENCY_NANOS.name,
                    l,
                    t.read_latency,
                ));
                out.push(Metric::histogram(
                    WRITE_LATENCY_NANOS.name,
                    l,
                    t.write_latency,
                ));
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Mode;
    use segidx_obs::MetricValue;
    use std::collections::BTreeSet;

    fn op(name: &str) -> usize {
        OPS.iter().position(|&o| o == name).unwrap()
    }

    #[test]
    fn retired_connections_keep_counting() {
        let server = Arc::new(ServerStats::new());
        let a = server.open_connection();
        a.count_request(op("search"));
        a.count_request(op("insert"));
        a.count_frame(Mode::Binary);
        a.read_latency.record(1_000);
        a.count_write();
        drop(a);

        let b = server.open_connection();
        b.count_request(op("search"));
        b.count_frame(Mode::Line);
        b.count_busy();

        let registry = MetricsRegistry::new();
        server.register_metrics(&registry);
        let snap = registry.snapshot();
        let value = |f: Family, extra: &[(&str, &str)]| {
            let labels: Vec<_> = [COMPONENT].iter().chain(extra).copied().collect();
            snap.get(f.name, &labels).unwrap().value.clone()
        };
        assert_eq!(
            value(REQUESTS_TOTAL, &[("op", "search")]),
            MetricValue::Counter(2),
            "one live + one retired search"
        );
        assert_eq!(
            value(REQUESTS_TOTAL, &[("op", "insert")]),
            MetricValue::Counter(1)
        );
        assert_eq!(
            value(FRAMES_TOTAL, &[("mode", "line")]),
            MetricValue::Counter(1)
        );
        assert_eq!(value(BUSY_TOTAL, &[]), MetricValue::Counter(1));
        assert_eq!(value(WRITES_TOTAL, &[]), MetricValue::Counter(1));
        assert_eq!(value(CONNECTIONS_TOTAL, &[]), MetricValue::Counter(2));
        assert_eq!(value(CONNECTIONS_ACTIVE, &[]), MetricValue::Gauge(1.0));
        match value(READ_LATENCY_NANOS, &[]) {
            MetricValue::Histogram(h) => assert_eq!(h.count, 1),
            other => panic!("expected histogram, got {other:?}"),
        }
        assert!(server.summary_line().contains("requests=3"));
    }

    /// A snapshot emits exactly the declared families, each of its declared
    /// kind, with one `requests_total` series per op and one
    /// `frames_total` series per framing mode.
    #[test]
    fn registered_metrics_are_the_declared_families() {
        let registry = MetricsRegistry::new();
        Arc::new(ServerStats::new()).register_metrics(&registry);
        let snap = registry.snapshot();
        let emitted: BTreeSet<_> = snap
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.value.kind()))
            .collect();
        let declared: BTreeSet<_> = METRICS.iter().map(|f| (f.name, f.kind)).collect();
        assert_eq!(emitted, declared);
        let series = |f: Family| snap.metrics.iter().filter(|m| m.name == f.name).count();
        assert_eq!(series(REQUESTS_TOTAL), OPS.len());
        assert_eq!(series(FRAMES_TOTAL), 2);
    }

    #[test]
    fn a_connection_whose_thread_panics_is_retired_not_lost() {
        let server = Arc::new(ServerStats::new());
        let crashed = std::thread::spawn({
            let server = Arc::clone(&server);
            move || {
                let conn = server.open_connection();
                conn.count_request(op("search"));
                conn.count_request(op("insert"));
                conn.add_bytes_read(100);
                panic!("an index bug on the connection thread");
            }
        })
        .join();
        assert!(crashed.is_err());
        assert_eq!(server.connections_active(), 0);
        let line = server.summary_line();
        assert!(
            line.contains("connections=1 active=0 requests=2 ") && line.contains(" bytes_in=100 "),
            "{line}"
        );

        let next = server.open_connection();
        next.count_request(op("ping"));
        assert_eq!(server.connections_active(), 1);
        drop(next);
        let line = server.summary_line();
        assert!(
            line.contains("connections=2 active=0 requests=3 "),
            "{line}"
        );
    }
}
