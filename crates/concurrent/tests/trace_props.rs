//! Property tests for the tracing layer: every recorded trace must be a
//! well-formed span tree — unique ids, a single root, children nested
//! strictly inside their parents' intervals — no matter which engine
//! answered the query or how many threads participated in recording.
//!
//! Two angles:
//!
//! 1. **Every engine**: random op sequences against all four paper
//!    variants, each query forced through a fresh trace.
//! 2. **The index service under concurrent load**: reader threads run
//!    traced batch searches on pinned snapshots while a writer streams
//!    traced inserts, each waiting on its group commit; every trace the
//!    flight recorder retained must still be well-formed.

use proptest::collection::vec;
use proptest::prelude::*;
use segidx_concurrent::{ConcurrentIndex, IndexOp, SubmitError};
use segidx_core::{build_skeleton, IndexConfig, RecordId, SkeletonSpec, Tree};
use segidx_geom::{Point, Rect};
use segidx_obs::trace::{OpClass, Tracer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const DOMAIN: f64 = 1000.0;

/// The four paper variants, empty; the skeletons are predicted from
/// `sample`, the first records of the stream they will index.
fn engines_2d(sample: &[(Rect<2>, RecordId)]) -> Vec<(&'static str, Tree<2>)> {
    let domain = Rect::new([-10.0, -10.0], [DOMAIN * 1.6, DOMAIN * 1.6]);
    let spec = SkeletonSpec::predict(domain, 256, sample);
    vec![
        ("r-tree", Tree::new(IndexConfig::rtree())),
        ("sr-tree", Tree::new(IndexConfig::srtree())),
        (
            "skeleton-r-tree",
            build_skeleton(IndexConfig::skeleton_rtree(), &spec),
        ),
        (
            "skeleton-sr-tree",
            build_skeleton(IndexConfig::skeleton_srtree(), &spec),
        ),
    ]
}

/// Forces one search and one stab per query through a fresh trace and
/// checks each is a well-formed tree with an engine span under the root.
fn check_traces(
    tracer: &Arc<Tracer>,
    name: &str,
    engine: &Tree<2>,
    queries: &[Rect<2>],
) -> Result<(), TestCaseError> {
    for q in queries {
        for class in [OpClass::Search, OpClass::Stab] {
            {
                let _g = tracer.force(class, "prop_query");
                let _ = match class {
                    OpClass::Search => engine.search(q),
                    _ => engine.stab(&Point::new(*q.lo_coords())),
                };
            }
            let t = tracer.last_completed().expect("trace completed");
            let problems = t.check_well_formed();
            prop_assert!(problems.is_empty(), "{name} {class:?}: {problems:?}");
            prop_assert!(
                t.spans.len() >= 2,
                "{name} {class:?} recorded no engine span"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Forced traces around search and stab stay well-formed on every
    /// engine, across every storage regime a random insert stream drives
    /// them into.
    #[test]
    fn every_engine_records_well_formed_traces(
        items in vec((0.0..DOMAIN, 0.0..DOMAIN, 0.0..120.0f64, 0.0..120.0f64), 1..80),
        queries in vec((0.0..DOMAIN, 0.0..DOMAIN, 0.0..150.0f64, 0.0..150.0f64), 1..8),
    ) {
        let tracer = Arc::new(Tracer::new(1));
        let windows: Vec<Rect<2>> = queries
            .iter()
            .map(|(x, y, w, h)| Rect::new([*x, *y], [*x + *w, *y + *h]))
            .collect();
        let records: Vec<(Rect<2>, RecordId)> = items
            .iter()
            .enumerate()
            .map(|(i, (x, y, w, h))| (Rect::new([*x, *y], [*x + *w, *y + *h]), RecordId(i as u64)))
            .collect();
        for (name, mut engine) in engines_2d(&records[..records.len().min(32)]) {
            for (rect, record) in &records {
                engine.insert(*rect, *record);
            }
            check_traces(&tracer, name, &engine, &windows)?;
        }
        prop_assert_eq!(tracer.sampled(), tracer.completed());
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4,
        ..ProptestConfig::default()
    })]

    /// Traces recorded while reader threads search pinned snapshots and
    /// the writer streams group commits stay well-formed: traces racing on
    /// one tracer never produce orphans, duplicate ids, or children that
    /// escape their parents.
    #[test]
    fn index_service_traces_survive_concurrent_load(
        inserts in vec((0.0..DOMAIN, 0.0..DOMAIN), 40..120),
        windows in vec((0.0..DOMAIN, 0.0..DOMAIN, 20.0..400.0f64), 2..6),
    ) {
        let tracer = Arc::new(Tracer::new(1));
        let index = ConcurrentIndex::builder(Tree::<2>::new(IndexConfig::srtree()))
            .max_batch(16)
            .start()
            .expect("memory-only start cannot fail");

        let done = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            // Readers: traced batch searches until the writer is
            // done — at least one pass each, however late they are scheduled.
            for _ in 0..2 {
                let handle = index.handle();
                let tracer = Arc::clone(&tracer);
                let done = Arc::clone(&done);
                let windows = windows.clone();
                scope.spawn(move || loop {
                    for (x, y, extent) in &windows {
                        let _g = tracer.force(OpClass::Search, "prop_window");
                        let snap = handle.snapshot();
                        let q = Rect::new([*x, *y], [*x + *extent, *y + *extent]);
                        let _ = snap.search_batch(std::slice::from_ref(&q));
                    }
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                });
            }
            // Writer: traced inserts, each waiting for its group commit so
            // the commit phases land inside the trace.
            for (i, (x, y)) in inserts.iter().enumerate() {
                let _g = tracer.force(OpClass::Insert, "prop_insert");
                let rect = Rect::new([*x, *y], [*x + 5.0, *y + 5.0]);
                let record = RecordId(i as u64);
                let ticket = loop {
                    match index.submit(IndexOp::Insert { rect, record }) {
                        Ok(t) => break t,
                        Err(SubmitError::Overloaded { .. }) => std::thread::yield_now(),
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                };
                ticket.wait().expect("memory-only commit cannot fail");
            }
            done.store(true, Ordering::Relaxed);
        });
        index.shutdown();

        let retained = tracer.flight().all();
        prop_assert!(!retained.is_empty(), "flight recorder retained nothing");
        let mut saw_search = false;
        let mut saw_insert = false;
        for t in &retained {
            let problems = t.check_well_formed();
            prop_assert!(
                problems.is_empty(),
                "trace #{} ({}): {problems:?}",
                t.id,
                t.name
            );
            match t.class {
                OpClass::Search => {
                    saw_search = true;
                    prop_assert!(
                        t.spans.iter().any(|s| s.name == "tree.search"),
                        "search trace #{} never reached the tree",
                        t.id
                    );
                }
                OpClass::Insert => {
                    saw_insert = true;
                    prop_assert!(
                        t.spans.iter().any(|s| s.name == "commit.wait"),
                        "insert trace #{} has no commit.wait span",
                        t.id
                    );
                }
                _ => {}
            }
        }
        prop_assert!(saw_search, "no search trace retained");
        prop_assert!(saw_insert, "no insert trace retained");
        prop_assert_eq!(tracer.sampled(), tracer.completed());
    }
}
