//! The listener: binds TCP, accepts connections, and owns everything the
//! connections share (index, telemetry, metrics registry, tracer).

use crate::conn;
use crate::telemetry::{ServerStats, COMPONENT};
use segidx_concurrent::{Builder, ConcurrentIndex};
use segidx_core::{IndexConfig, SplitAlgorithm, Tree};
use segidx_obs::{trace, MetricsRegistry, Tracer};
use segidx_temporal::{TemporalConfig, TemporalTable};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// The server's index dimensionality: the number of coordinates the
/// parser reads for every point of the wire grammar.
pub const DIMS: usize = 2;

/// Submission-queue capacity: how many writes wait for the group commit
/// before a connection answers `BUSY` (admission control).
const QUEUE_CAPACITY: usize = 4096;

/// The index the server serves: the paper's SR-Tree with the R\* split
/// (Beckmann et al. 1990) in place of Guttman's quadratic split — a
/// deviation from the paper's preset (DESIGN.md, "The served split"). On a
/// churned 200 k R2 index it reads 12–17 % fewer nodes per window, for a
/// build within 7 % of the quadratic split's.
fn served_index_config() -> IndexConfig {
    IndexConfig {
        split: SplitAlgorithm::RStar,
        ..IndexConfig::srtree()
    }
}

/// Everything a connection needs, shared by reference.
pub(crate) struct Shared {
    /// The index service behind the wire: one writer, snapshot readers.
    pub index: ConcurrentIndex<DIMS>,
    /// Server-lifetime connection telemetry.
    pub stats: Arc<ServerStats>,
    /// The registry `METRICS` snapshots (server + index + tracer families).
    pub registry: MetricsRegistry,
    /// Samples slow operations into the flight recorder.
    pub tracer: Arc<Tracer>,
    /// The temporal table behind `RECORD` / `AS OF` / `WITHIN`, backed by
    /// the append-optimized tiered index. `RECORD` executes inline under
    /// this lock (temporal writes are not routed through the commit
    /// queue — the tiered memtable absorbs them directly); a read holds it
    /// only to pin (`conn::temporal_read`).
    pub temporal: Mutex<TemporalTable>,
}

impl Shared {
    /// The temporal table for a read's pin. A pin takes `&TemporalTable`,
    /// so it cannot leave it half-written, and a writer that panicked
    /// mid-update leaves rows that were fully written — at worst a version
    /// both closed in the index and still in the live set — so a poisoned
    /// lock is recovered, not propagated to every later reader on every
    /// connection.
    pub fn temporal_read(&self) -> MutexGuard<'_, TemporalTable> {
        self.temporal.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Construction parameters for [`Server::start`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind; port `0` picks a free one (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Trace 1-in-N operations into the flight recorder (`0` disables
    /// sampling; forced traces still work).
    pub trace_sample: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            trace_sample: 0,
        }
    }
}

/// A running server: an accept loop plus one thread per live connection.
/// Dropping the handle does **not** stop the server; call
/// [`shutdown`](Self::shutdown).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr`, starts the index writer thread, registers
    /// every metric family (server, index service, tracer, temporal tier) on
    /// one registry, and spawns the accept loop.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        Self::start_with(config, |index| index)
    }

    /// [`start`](Self::start) with a last word on the index builder — how
    /// a test serves an index it has rigged to fail.
    pub(crate) fn start_with(
        config: ServerConfig,
        rig: impl FnOnce(Builder<DIMS>) -> Builder<DIMS>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let index = rig(ConcurrentIndex::builder(Tree::new(served_index_config()))
            .queue_capacity(QUEUE_CAPACITY))
        .start()
        .map_err(|e| io::Error::other(format!("index start failed: {e:?}")))?;

        let registry = MetricsRegistry::new();
        let stats = Arc::new(ServerStats::new());
        stats.register_metrics(&registry);
        index.register_metrics(&registry);
        // The tracer is the server's: its health families carry the
        // server's label.
        let tracer = Arc::new(Tracer::new(config.trace_sample));
        let traced = Arc::clone(&tracer);
        registry.register(
            trace::METRICS,
            Box::new(move |out| traced.collect_metrics(&[COMPONENT], out)),
        );

        // The temporal table rides the append-optimized tiered index; its
        // seal/merge telemetry joins the same registry.
        let mut table = TemporalTable::new(TemporalConfig::default());
        let temporal_telemetry = Arc::new(segidx_temporal::TieredTelemetry::new());
        temporal_telemetry.register(&registry);
        table
            .tiered_index_mut()
            .set_telemetry(Some(temporal_telemetry));

        let shared = Arc::new(Shared {
            index,
            stats,
            registry,
            tracer,
            temporal: Mutex::new(table),
        });

        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("segidx-accept".to_string())
                .spawn(move || accept_loop(listener, shared, stop))?
        };

        Ok(Server {
            shared,
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server-lifetime telemetry (shared with live connections).
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.shared.stats
    }

    /// The registry behind the `METRICS` statement.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.shared.registry
    }

    /// Stops accepting new connections and joins the accept loop. Live
    /// connections keep being served until their clients hang up; the
    /// index writer thread stays up for them (it is detached with the
    /// process, exactly like a real server draining on SIGTERM).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection; if that
        // fails the listener is already dead and accept() has errored.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(stream) => {
                let shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("segidx-conn".to_string())
                    .spawn(move || conn::serve(stream, shared));
                if spawned.is_err() {
                    // Out of threads: shed the connection rather than die.
                    continue;
                }
            }
            // Transient per-connection failures (ECONNABORTED etc.) leave
            // the listener usable; keep accepting.
            Err(_) => continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_request, Frame, FrameDecoder, Mode};
    use std::io::{Read, Write};

    fn read_line(stream: &mut TcpStream) -> String {
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            let n = stream.read(&mut byte).unwrap();
            assert!(n > 0, "server closed before newline");
            if byte[0] == b'\n' {
                break;
            }
            line.push(byte[0]);
        }
        String::from_utf8(line).unwrap()
    }

    /// `METRICS` carries the tracer's families under the server's label
    /// and the index service's under its own, each family whole.
    #[test]
    fn metrics_label_the_tracer_server_and_the_index_concurrent() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let snap = server.registry().snapshot();
        for (families, component) in [
            (trace::METRICS, "server"),
            (segidx_concurrent::METRICS, "concurrent"),
        ] {
            for f in families {
                let labels: Vec<_> = snap
                    .metrics
                    .iter()
                    .filter(|m| m.name == f.name)
                    .map(|m| m.labels.clone())
                    .collect();
                assert_eq!(
                    labels,
                    [vec![("component".to_string(), component.to_string())]],
                    "{}",
                    f.name
                );
            }
        }
        server.shutdown();
    }

    #[test]
    fn netcat_style_session() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        c.write_all(b"PING\r\n").unwrap();
        assert_eq!(read_line(&mut c), "PONG");
        c.write_all(b"INSERT RECT (1, 1) (2, 2) ID 7\n").unwrap();
        assert!(read_line(&mut c).starts_with("OK epoch="));
        c.write_all(b"FLUSH\n").unwrap();
        assert!(read_line(&mut c).starts_with("OK epoch="));
        c.write_all(b"SEARCH WINDOW (0, 0) (3, 3)\n").unwrap();
        assert_eq!(read_line(&mut c), "ROWS 1 7");
        c.write_all(b"SEARCH WINDOW (5, 5) (6, 6)\n").unwrap();
        assert_eq!(read_line(&mut c), "ROWS 0");
        drop(c);
        server.shutdown();
    }

    #[test]
    fn temporal_session() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        c.write_all(b"RECORD 1 VALUE 30000 AT 1975\n").unwrap();
        assert_eq!(read_line(&mut c), "OK version=0");
        c.write_all(b"RECORD 1 VALUE 41000 AT 1979.5\n").unwrap();
        assert_eq!(read_line(&mut c), "OK version=1");
        c.write_all(b"RECORD 2 VALUE 30000 AT 1974\n").unwrap();
        assert_eq!(read_line(&mut c), "OK version=2");
        c.write_all(b"AS OF 1977\n").unwrap();
        assert_eq!(read_line(&mut c), "VERS 2 0:1=30000.0 2:2=30000.0");
        c.write_all(b"AS OF 1980\n").unwrap();
        assert_eq!(read_line(&mut c), "VERS 2 1:1=41000.0 2:2=30000.0");
        // Versions overlapping [1974, 1980] that lived at most 10 units:
        // only employee 1's closed versions qualify (2's is still open).
        c.write_all(b"WITHIN (1974, 1980) DURATION 0 10\n").unwrap();
        assert_eq!(read_line(&mut c), "VERS 1 0:1=30000.0");
        // Queries at or past the horizon are typed errors, not empty rows.
        c.write_all(b"AS OF 1e308\n").unwrap();
        assert!(read_line(&mut c).starts_with("ERR exec timestamp"));
        c.write_all(b"RECORD 3 VALUE 1 AT 1e308\n").unwrap();
        assert!(read_line(&mut c).starts_with("ERR exec"));
        drop(c);
        server.shutdown();
    }

    #[test]
    fn poisoned_temporal_lock_still_answers_reads() {
        // Regression: every temporal arm used to `lock().unwrap()`, so one
        // panic under the lock made every later temporal statement, on
        // every connection, panic its connection thread.
        let server = Server::start(ServerConfig::default()).unwrap();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        c.write_all(b"RECORD 1 VALUE 5 AT 10\nRECORD 1 VALUE 6 AT 20\n")
            .unwrap();
        assert_eq!(read_line(&mut c), "OK version=0");
        assert_eq!(read_line(&mut c), "OK version=1");

        let shared = Arc::clone(&server.shared);
        let panicked = std::thread::spawn(move || {
            let _held = shared.temporal.lock().unwrap();
            panic!("poisoning the temporal lock on purpose");
        })
        .join();
        assert!(panicked.is_err() && server.shared.temporal.is_poisoned());

        let mut fresh = TcpStream::connect(server.local_addr()).unwrap();
        fresh.write_all(b"AS OF 12\n").unwrap();
        assert_eq!(read_line(&mut fresh), "VERS 1 0:1=5.0");
        fresh.write_all(b"WITHIN (0, 30) DURATION 0 10\n").unwrap();
        assert_eq!(read_line(&mut fresh), "VERS 1 0:1=5.0");
        // A write is refused, not executed on a maybe half-written table —
        // and refusing it does not take the connection down.
        fresh.write_all(b"RECORD 2 VALUE 1 AT 30\n").unwrap();
        assert!(read_line(&mut fresh).starts_with("ERR exec temporal table poisoned"));
        fresh.write_all(b"PING\n").unwrap();
        assert_eq!(read_line(&mut fresh), "PONG");
        c.write_all(b"AS OF 25\n").unwrap();
        assert_eq!(read_line(&mut c), "VERS 1 1:1=6.0");
        server.shutdown();
    }

    /// Reads until `decoder` yields `n` replies.
    fn read_replies(conn: &mut TcpStream, decoder: &mut FrameDecoder, n: usize) -> Vec<Frame> {
        let mut replies = Vec::with_capacity(n);
        let mut buf = [0u8; 4096];
        while replies.len() < n {
            while let Some(frame) = decoder.next_frame().unwrap() {
                replies.push(frame);
            }
            if replies.len() < n {
                let got = conn.read(&mut buf).unwrap();
                assert!(
                    got > 0,
                    "server closed with {} of {n} replies",
                    replies.len()
                );
                decoder.feed(&buf[..got]);
            }
        }
        replies
    }

    /// With four queue slots and 64 writes in one packet, most are refused:
    /// every reply still comes back in its place — `PONG`s mark every fifth —
    /// and once `FLUSH`ed the index holds the acknowledged writes and no other.
    #[test]
    fn a_full_queue_answers_busy_in_place_and_applies_what_it_acknowledged() {
        let server =
            Server::start_with(ServerConfig::default(), |index| index.queue_capacity(4)).unwrap();
        let encode = |statement: &str, mode: Mode, wire: &mut Vec<u8>| match mode {
            Mode::Binary => encode_request(statement, wire),
            Mode::Line => {
                wire.extend_from_slice(statement.as_bytes());
                wire.push(b'\n');
            }
        };
        let mut packet = Vec::new();
        let mut sent = Vec::new();
        for i in 0..64u64 {
            let mode = if i % 3 == 0 { Mode::Line } else { Mode::Binary };
            encode(
                &format!("INSERT RECT ({i}, 0) ({i}.5, 1) ID {i}"),
                mode,
                &mut packet,
            );
            sent.push(Some(i));
            if i % 4 == 3 {
                encode("PING", mode, &mut packet);
                sent.push(None);
            }
        }
        encode("FLUSH", Mode::Binary, &mut packet);
        encode("SEARCH WINDOW (0, 0) (100, 1)", Mode::Binary, &mut packet);
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.set_read_timeout(Some(std::time::Duration::from_secs(20)))
            .unwrap();
        conn.write_all(&packet).unwrap();
        let replies: Vec<String> =
            read_replies(&mut conn, &mut FrameDecoder::new(), sent.len() + 2)
                .into_iter()
                .map(|frame| frame.text)
                .collect();

        let mut acknowledged = Vec::new();
        let mut refused = 0;
        for (what, reply) in sent.iter().zip(&replies) {
            match what {
                None => assert_eq!(reply, "PONG"),
                Some(id) if reply.starts_with("OK epoch=") => acknowledged.push(*id),
                Some(id) => {
                    assert!(reply.starts_with("BUSY depth="), "INSERT {id} -> {reply}");
                    refused += 1;
                }
            }
        }
        assert!(
            refused > 0 && !acknowledged.is_empty(),
            "{refused} refused of 64"
        );
        assert!(replies[sent.len()].starts_with("OK epoch="));
        let ids: Vec<String> = acknowledged.iter().map(|id| format!(" {id}")).collect();
        assert_eq!(
            replies[sent.len() + 1],
            format!("ROWS {}{}", ids.len(), ids.concat())
        );
        let summary = server.stats().summary_line();
        assert!(summary.contains(&format!(" busy={refused} ")), "{summary}");
        server.shutdown();
    }

    #[test]
    fn binary_frames_pipeline() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        let mut out = Vec::new();
        for i in 0..32 {
            encode_request(&format!("INSERT RECT ({i}, 0) ({i}.5, 1) ID {i}"), &mut out);
        }
        encode_request("FLUSH", &mut out);
        encode_request("STAB POINT (10.25, 0.5)", &mut out);
        c.write_all(&out).unwrap();

        let responses: Vec<String> = read_replies(&mut c, &mut FrameDecoder::new(), 34)
            .into_iter()
            .map(|f| {
                assert_eq!(f.mode, Mode::Binary);
                f.text
            })
            .collect();
        for r in &responses[..33] {
            assert!(r.starts_with("OK epoch="), "{r}");
        }
        assert_eq!(responses[33], "ROWS 1 10");
        server.shutdown();
    }

    /// The served configuration reads strictly fewer nodes than the
    /// paper's SR-Tree over the same R2 records, churned 4:3
    /// insert:delete: windows at QAR 0.01, 1 and 100, and stabs at record
    /// centres. Exact counts, no timing. The configuration is read off a
    /// running server, so this pins what `start` serves.
    #[test]
    fn the_served_index_reads_fewer_nodes_than_the_paper_srtree() {
        use segidx_geom::Point;
        use segidx_workloads::{queries_for_qar, DataDistribution};

        let server = Server::start(ServerConfig::default()).unwrap();
        let served = server.shared.index.snapshot().config().clone();
        server.shutdown();
        assert_eq!(served, served_index_config());

        // At this size the served index reads less on each of seeds 1–30
        // (worst window ratio 0.959); at 4 000 records seed 1 reads one
        // window node more.
        const N: usize = 6_000;
        let records = DataDistribution::R2.generate(2 * N, 5).records;
        let windows: Vec<_> = [0.01, 1.0, 100.0]
            .iter()
            .flat_map(|&qar| queries_for_qar(qar, 100, 5).queries)
            .collect();
        let stabs: Vec<Point<DIMS>> = records[..N]
            .iter()
            .step_by(20)
            .map(|(r, _)| r.center())
            .collect();
        let reads = |config: IndexConfig| {
            let mut tree = Tree::new(config);
            for (rect, id) in &records[..N] {
                tree.insert(*rect, *id);
            }
            // Four inserts, then three deletes of the oldest live records.
            let mut oldest = 0;
            for chunk in records[N..].chunks(4) {
                for (rect, id) in chunk {
                    tree.insert(*rect, *id);
                }
                for (rect, id) in &records[oldest..oldest + 3] {
                    assert!(tree.delete(rect, *id), "{id:?} indexed");
                }
                oldest += 3;
            }
            tree.assert_invariants();
            let window: u64 = windows.iter().map(|w| tree.count_search_accesses(w)).sum();
            let before = tree.stats();
            let hits: usize = stabs.iter().map(|p| tree.stab(p).len()).sum();
            let stab = tree.stats().diff(&before).search_node_accesses;
            (window, stab, hits, tree.len())
        };
        let (paper_window, paper_stab, paper_hits, paper_len) = reads(IndexConfig::srtree());
        let (window, stab, hits, len) = reads(served);
        assert_eq!((hits, len), (paper_hits, paper_len), "same answers");
        assert_eq!(len, N + N / 4);
        assert!(
            window < paper_window && stab < paper_stab,
            "served reads {window} window / {stab} stab nodes, \
             the paper's SR-Tree {paper_window} / {paper_stab}"
        );
    }
}
