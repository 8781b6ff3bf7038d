//! The benchmark's checks on itself. Runs here use `Scale::QUICK` (one
//! fiftieth of the real inputs, a second of measuring): they show the
//! machinery works, and their numbers compare with nothing.

use segbench::compare::{judge, read_bounds, write_bounds, Verdict};
use segbench::model::SpatialModel;
use segbench::ops::{dataset, windows, MixedGen, Op, OpSource, TemporalGen};
use segbench::report::Outcome;
use segbench::span::{SpanLog, NO_PARENT};
use segbench::spec::{Better, Scale, END_TO_END, EXACT_ON_EMBED, PER_LAYER, WORKLOADS};
use segbench::stats::{highest_supported, quantile_sorted, quartiles, Latency};
use segbench::wire::{closed_loop, open_loop, Conn};
use segbench::{run, RunConfig};
use segidx_obs::json::{self, Value};
use segidx_workloads::DataDistribution;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Whole runs take turns: they time themselves, and traced ones write
/// `out/trace-<workload>.json`.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

fn run_quick(workload: &str, seed: u64, trace: bool, corrupt_model: bool) -> Outcome {
    timed_quick(workload, seed, trace, corrupt_model).0
}

/// The run's outcome and how long it took once its turn came.
fn timed_quick(workload: &str, seed: u64, trace: bool, corrupt_model: bool) -> (Outcome, Duration) {
    let _turn = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let t0 = Instant::now();
    let outcome = run(&quick(workload, seed, trace, corrupt_model)).unwrap();
    (outcome, t0.elapsed())
}

fn quick(workload: &str, seed: u64, trace: bool, corrupt_model: bool) -> RunConfig {
    RunConfig {
        workload: workload.to_string(),
        seed,
        measure: Duration::from_secs(1),
        trace,
        scale: Scale::QUICK,
        corrupt_model,
    }
}

fn statements(mut source: impl OpSource, n: usize) -> String {
    let mut out = String::new();
    for _ in 0..n {
        source.next_op().render(&mut out);
        out.push('\n');
    }
    out
}

#[test]
fn same_seed_gives_the_same_statement_stream() {
    let mixed = |seed| {
        let records = dataset(DataDistribution::R2, 2_000, seed);
        let fresh = records.iter().map(|(_, r)| *r).collect();
        MixedGen::new(
            seed,
            1,
            2,
            &records,
            windows(&[0.01, 1.0, 100.0], 10, seed),
            fresh,
        )
    };
    assert_eq!(statements(mixed(5), 5_000), statements(mixed(5), 5_000));
    assert_ne!(statements(mixed(5), 5_000), statements(mixed(6), 5_000));
    let temporal = |seed| TemporalGen::new(seed, 0, 2, 1_000.0);
    assert_eq!(
        statements(temporal(5), 5_000),
        statements(temporal(5), 5_000)
    );
    assert_ne!(
        statements(temporal(5), 5_000),
        statements(temporal(6), 5_000)
    );
}

#[test]
fn same_seed_gives_the_same_exact_counts() {
    let a = run_quick("embed-churn", 9, true, false);
    let b = run_quick("embed-churn", 9, true, false);
    for name in EXACT_ON_EMBED {
        let (x, y) = (a.get(name).unwrap(), b.get(name).unwrap());
        assert_eq!(x.to_bits(), y.to_bits(), "{name} did not repeat exactly");
    }
    for name in [
        "e2e.node_accesses_per_search",
        "e2e.bytes_per_record",
        "core.tree.splits_per_kinsert",
        "core.tree.nodes_per_search.skeleton_srtree",
        "storage.page_writes",
    ] {
        assert!(a.get(name).unwrap() > 0.0, "{name} was not measured");
    }
}

#[test]
fn percentile_picker_wants_ten_samples_beyond() {
    let ramp = |n: u32| (0..n).collect::<Vec<u32>>();
    assert_eq!(highest_supported(&ramp(100_000)).unwrap().0, 0.9999);
    assert_eq!(highest_supported(&ramp(99_999)).unwrap().0, 0.999);
    assert_eq!(highest_supported(&ramp(1_000)).unwrap(), (0.99, 989.0));
    assert_eq!(highest_supported(&ramp(999)).unwrap().0, 0.95);
    assert_eq!(highest_supported(&ramp(100)).unwrap().0, 0.9);
    assert!(highest_supported(&ramp(99)).is_none());
    assert_eq!(quantile_sorted(&ramp(1_000), 0.99), 989.0);
    // What a run reports is these, over every sample of the phase.
    let mut shuffled: Vec<u32> = (0..1_000).map(|i| i * 7 % 1_000).collect();
    let l = Latency::of(&mut shuffled).unwrap();
    assert_eq!((l.n, l.p50, l.p99), (1_000, 499.0, 989.0));
    assert_eq!(l.top, Some((0.99, 989.0)));
    assert!(Latency::of(&mut []).is_none());
}

#[test]
fn quartiles_agree_with_python_statistics() {
    let values: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
}

#[test]
fn span_self_time_subtracts_children() {
    let mut log = SpanLog::new();
    let root = log.push_raw("request", NO_PARENT, 0, 0, 100);
    let a = log.push_raw("parse", root, 0, 10, 40);
    log.push_raw("index", root, 0, 50, 70);
    log.push_raw("lex", a, 0, 20, 30);
    assert_eq!(log.self_times(), vec![50, 20, 20, 10]);
    assert_eq!(log.total("request"), (1, 50, 100));
    assert_eq!(log.total("absent"), (0, 0, 0));

    let file = json::parse(&log.chrome_trace(usize::MAX)).expect("Chrome trace is JSON");
    assert_eq!(
        file.get("traceEvents")
            .and_then(Value::as_array)
            .unwrap()
            .len(),
        4
    );
}

/// A server that answers every frame at once with `ROWS 0`, except that
/// it stops for 50 ms once a second.
fn stalling_stub() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let mut stream = stream.unwrap();
            stream.set_nodelay(true).unwrap();
            std::thread::spawn(move || {
                let mut next_stall = Instant::now() + Duration::from_secs(1);
                let mut head = [0u8; 4];
                while stream.read_exact(&mut head).is_ok() {
                    let mut body = vec![0u8; u32::from_be_bytes(head) as usize];
                    if stream.read_exact(&mut body).is_err() {
                        break;
                    }
                    if Instant::now() >= next_stall {
                        std::thread::sleep(Duration::from_millis(50));
                        next_stall += Duration::from_secs(1);
                    }
                    let reply = b"ROWS 0";
                    let mut out = (reply.len() as u32).to_be_bytes().to_vec();
                    out.extend_from_slice(reply);
                    if stream.write_all(&out).is_err() {
                        break;
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn open_loop_charges_a_stall_to_every_request_it_delays() {
    let addr = stalling_stub();
    let probe = || Op::Stab(segidx_geom::Point::new([1.0, 2.0]));
    let mut model = SpatialModel::default();
    // The p99 a run would report of these samples, ms.
    let p99_ms = |samples: &mut [u32]| Latency::of(samples).unwrap().p99 / 1e6;

    // 2000 requests a second for 3 s: the 100 due during each stall wait
    // for it, about one in twenty overall, so p99 sits inside the stall.
    let mut conn = Conn::connect(addr).unwrap();
    let mut step = open_loop(&mut conn, probe, 2_000.0, 6_000, Instant::now(), &mut model).unwrap();
    assert_eq!((step.tally.attempted, step.tally.failed), (6_000, 0));
    let open_p99_ms = p99_ms(&mut step.tally.read_ns);
    assert!(
        open_p99_ms > 25.0,
        "open loop p99 {open_p99_ms} ms hides the stall"
    );

    // One caller waiting for each reply meets each stall once: a handful
    // of slow requests among thousands.
    let mut conn = Conn::connect(addr).unwrap();
    let start = Instant::now();
    let mut tally = closed_loop(
        &mut conn,
        || (start.elapsed() < Duration::from_secs(3)).then(probe),
        1,
        start,
        0,
        &mut model,
    )
    .unwrap();
    assert!(tally.attempted > 1_000 && tally.failed == 0);
    let closed_p99_ms = p99_ms(&mut tally.read_ns);
    assert!(closed_p99_ms < 10.0, "closed loop p99 {closed_p99_ms} ms");
}

#[test]
fn quick_mode_runs_every_workload_and_a_damaged_model_fails_it() {
    let mut clean_runs = Duration::ZERO;
    for workload in WORKLOADS {
        let (clean, took) = timed_quick(workload, 3, false, false);
        clean_runs += took;
        assert!(clean.correct(), "{workload}: {:?}", clean.notes);
        assert_eq!(clean.exit_code(), 0);
        for decl in END_TO_END {
            assert!(
                clean.get(decl.name).unwrap() > 0.0,
                "{workload}: {} is zero",
                decl.name
            );
        }
        let line = json::parse(&clean.json_line()).expect("result line is JSON");
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));

        let damaged = run_quick(workload, 3, false, true);
        assert!(
            damaged.failed > 0 && !damaged.correct(),
            "{workload}: damage went unseen"
        );
        assert_ne!(damaged.exit_code(), 0);
    }
    if !cfg!(debug_assertions) {
        assert!(
            clean_runs < Duration::from_secs(20),
            "quick mode took {clean_runs:?}"
        );
    }
}

#[test]
fn traced_quick_runs_report_every_layer_metric() {
    for workload in WORKLOADS {
        let traced = run_quick(workload, 4, true, false);
        assert!(traced.correct(), "{workload}: {:?}", traced.notes);
        let line = json::parse(&traced.json_line()).expect("result line is JSON");
        let Some(Value::Object(metrics)) = line.get("metrics") else {
            panic!("no metrics");
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
        // The format itself is parsed in `span_self_time_subtracts_children`;
        // here the file only has to be there and whole.
        let trace =
            std::fs::read_to_string(segbench::out_dir().join(format!("trace-{workload}.json")))
                .unwrap();
        assert!(trace.starts_with("{\"traceEvents\":[") && trace.trim_end().ends_with("]}"));
        assert!(
            trace.lines().count() > 100,
            "{workload}: trace has no spans"
        );
    }
}

#[test]
fn verdicts_follow_the_bound() {
    let around = |m: f64| vec![m * 0.99, m, m * 1.01, m * 1.005];
    assert_eq!(
        judge(&around(100.0), &around(103.0), Better::Lower, 0.05),
        Verdict::Same
    );
    assert_eq!(
        judge(&around(100.0), &around(110.0), Better::Lower, 0.05),
        Verdict::Worse
    );
    assert_eq!(
        judge(&around(100.0), &around(110.0), Better::Higher, 0.05),
        Verdict::Better
    );
    let wide = [60.0, 100.0, 140.0, 90.0];
    assert_eq!(
        judge(&wide, &around(100.0), Better::Lower, 0.05),
        Verdict::Unresolved
    );
}

#[test]
fn benchmark_json_lists_what_the_code_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let file = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<(String, String, String)> {
        file.get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let declared = |decls: &[segbench::spec::MetricDecl]| -> Vec<(String, String, String)> {
        decls
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                )
            })
            .collect()
    };
    assert_eq!(names("end_to_end"), declared(END_TO_END));
    assert_eq!(names("per_layer"), declared(PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, WORKLOADS);
    for m in file.get("end_to_end").and_then(Value::as_array).unwrap() {
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
}

#[test]
fn calibrated_bounds_replace_only_the_bound_fields() {
    let original = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::create_dir_all(segbench::out_dir()).unwrap();
    let copy = segbench::out_dir().join("BENCHMARK-selftest.json");
    std::fs::copy(original, &copy).unwrap();
    let before = read_bounds(&copy).unwrap();
    write_bounds(&copy, &[("ops_per_s", 0.07), ("peak_rss_mb", 0.05)]).unwrap();
    let after = read_bounds(&copy).unwrap();
    assert_eq!(after["ops_per_s"], 0.07);
    assert_eq!(after["peak_rss_mb"], 0.05);
    assert_eq!(after["setup_s"], before["setup_s"]);
    assert_eq!(after["cpu_us_per_op"], before["cpu_us_per_op"]);
    // Put back, the file is the original byte for byte.
    let kept: Vec<(&str, f64)> = before.iter().map(|(n, b)| (n.as_str(), *b)).collect();
    write_bounds(&copy, &kept).unwrap();
    assert_eq!(
        std::fs::read_to_string(&copy).unwrap(),
        std::fs::read_to_string(original).unwrap()
    );
    assert!(write_bounds(&copy, &[("no_such_metric", 0.1)]).is_err());
    std::fs::remove_file(copy).unwrap();
}
