//! # segidx-obs — unified telemetry for the segment-index workspace
//!
//! The paper's sole performance metric is *average nodes accessed per
//! search*; a production index also needs wall-clock tail latency and a
//! profile of where a slow query went. This crate provides the three
//! zero-dependency building blocks the other crates thread through their
//! layers:
//!
//! 1. [`LatencyHistogram`] — wait-free, log₂-bucketed atomic histograms
//!    with `p50`/`p95`/`p99`/`max` extraction, recorded per operation
//!    (`search`, `stab`, `nearest`, `insert`, `delete`, `bulk_load`) and
//!    per physical page read/write.
//! 2. [`MetricsRegistry`] — collector-based aggregation of every counter,
//!    gauge and histogram behind one [`MetricsRegistry::snapshot`],
//!    exported as JSON. Each collector registers with the `const` table of
//!    [`Family`]s (name and [`MetricKind`]) it emits, declared once beside
//!    it in the crate that owns the counters; the tracer's own table is
//!    [`trace::METRICS`].
//! 3. [`trace`] — sampled hierarchical query traces: RAII spans with
//!    parent ids, a per-trace [`QueryProfile`] access breakdown, a
//!    [`FlightRecorder`] slow-op log, and exporters to text trees and
//!    Chrome `trace_event` JSON. Sampling defaults to off; untraced paths
//!    cost one thread-local boolean check.
//!
//! Why a tree changed shape (splits, promotions, demotions, cuts,
//! coalesces) is counted, not streamed: the index's `TreeStats` counters,
//! the storage layer's `IoStats`, and the repair reports returned by
//! `open_repair`/`recover` carry each structural fact once.
//!
//! Because the workspace builds offline against compile-only serde shims,
//! the [`json`] module carries its own small JSON renderer/parser used by
//! the exporters and by CI artifact validation.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod hist;
pub mod json;
mod registry;
pub mod trace;

pub use hist::{bucket_index, bucket_upper_bound, HistogramSnapshot, LatencyHistogram, BUCKETS};
pub use registry::{
    Collector, Family, Metric, MetricKind, MetricValue, MetricsRegistry, MetricsSnapshot,
};
pub use trace::{
    chrome_trace_json, CompletedTrace, FlightRecorder, OpClass, QueryProfile, SpanRecord,
    TraceGuard, Tracer,
};
