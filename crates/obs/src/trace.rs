//! Hierarchical query tracing: sampled per-operation traces made of nested
//! RAII spans, a per-trace [`QueryProfile`], and a bounded [`FlightRecorder`]
//! retaining the slowest completed traces per operation class.
//!
//! The paper argues from *where* a query spends its accesses (spanning lists
//! vs subtree descent); flat histograms cannot attribute a p99 spike to
//! queue wait vs commit vs page I/O. This module adds the structure:
//!
//! * A [`Tracer`] decides per-operation whether to record a trace (every
//!   `sample_every`-th op; 0 = off). When it declines — the common case —
//!   the instrumented hot paths cost **one thread-local boolean check**
//!   ([`active`]).
//! * While a trace is active on a thread, [`span`] opens a child span that
//!   closes on drop, and [`add`] / [`level_visit`] bump profile counters.
//!   A trace is a plain thread-local record owned by the thread that
//!   started it: closed spans go straight into one bounded vector (no
//!   locks, no atomics), and [`record_interval`] adds an interval measured
//!   elsewhere, such as a writer's commit phases, under the open span.
//! * Completed traces ([`CompletedTrace`]) carry the span tree plus a
//!   [`QueryProfile`] and are offered to the tracer's [`FlightRecorder`],
//!   which keeps the N slowest per [`OpClass`] (a slow-op log).
//! * Exporters: [`CompletedTrace::render_text_tree`] for humans and
//!   [`chrome_trace_json`] producing Chrome `trace_event` JSON loadable in
//!   `chrome://tracing` / Perfetto.
//!
//! Only one trace can be active per thread at a time; a nested
//! [`Tracer::start`] while one is active returns `None` (the outer trace
//! absorbs the inner operation as spans, which is exactly what a
//! hierarchical profile wants).

use crate::json::Value;
use crate::registry::{Family, Metric};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of tree levels tracked individually in [`QueryProfile`]; deeper
/// levels accumulate into the last slot. Paper-scale trees are ≤ 10 levels.
pub const MAX_LEVELS: usize = 32;

const STARTED: Family = Family::counter("segidx_trace_started_total");
const SAMPLED: Family = Family::counter("segidx_trace_sampled_total");
const SPANS_DROPPED_TOTAL: Family = Family::counter("segidx_trace_spans_dropped_total");
const SPANS_DROPPED: Family = Family::gauge("segidx_trace_spans_dropped");
const FLIGHT_RETAINED: Family = Family::gauge("segidx_trace_flight_retained");

/// The tracer's health families, emitted by [`Tracer::collect_metrics`].
pub const METRICS: &[Family] = &[
    STARTED,
    SAMPLED,
    SPANS_DROPPED_TOTAL,
    SPANS_DROPPED,
    FLIGHT_RETAINED,
];

/// Hard cap on spans retained per trace, the root included; further spans
/// are counted in [`CompletedTrace::dropped_spans`] instead.
pub const MAX_SPANS: usize = 4096;

/// Slowest traces a [`Tracer`]'s flight recorder keeps per [`OpClass`].
pub const FLIGHT_PER_CLASS: usize = 8;

/// The operation class a trace belongs to; the flight recorder keeps the
/// slowest traces per class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Window / range search.
    Search,
    /// Point stabbing query.
    Stab,
    /// Nearest-neighbor query.
    Nearest,
    /// Insert (including its queue wait + commit when traced through the
    /// concurrent service).
    Insert,
    /// Delete.
    Delete,
    /// Bulk load.
    BulkLoad,
    /// A writer-side commit batch.
    Commit,
    /// Anything else.
    Other,
}

impl OpClass {
    /// Stable lowercase name used in exports and flight-recorder summaries.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Search => "search",
            OpClass::Stab => "stab",
            OpClass::Nearest => "nearest",
            OpClass::Insert => "insert",
            OpClass::Delete => "delete",
            OpClass::BulkLoad => "bulk_load",
            OpClass::Commit => "commit",
            OpClass::Other => "other",
        }
    }

    /// Every class, in display order.
    pub const ALL: [OpClass; 8] = [
        OpClass::Search,
        OpClass::Stab,
        OpClass::Nearest,
        OpClass::Insert,
        OpClass::Delete,
        OpClass::BulkLoad,
        OpClass::Commit,
        OpClass::Other,
    ];
}

/// A profile counter dimension; bumped via [`add`] while a trace is active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Dim {
    /// SoA scan-kernel invocations (one per node whose planes were scanned).
    KernelInvocations = 0,
    /// Entries scanned by those kernels.
    KernelEntriesScanned = 1,
    /// HINT levels walked.
    HintLevelWalks = 2,
    /// HINT results emitted comparison-free (middle partitions / covered
    /// delta partitions).
    HintElidedCmp = 3,
    /// Buffer-pool hits.
    BufferPoolHits = 4,
    /// Buffer-pool misses (each implies a page read).
    BufferPoolMisses = 5,
    /// Pages read from disk.
    PageReads = 6,
    /// Pages written to disk.
    PageWrites = 7,
    /// Nanoseconds this op waited in the submission queue.
    QueueWaitNanos = 8,
    /// Nanoseconds the writer spent applying the op's commit batch.
    ApplyNanos = 9,
    /// Nanoseconds the writer spent checkpointing the batch (durable mode).
    CheckpointNanos = 10,
    /// Nanoseconds the writer spent publishing the new snapshot.
    PublishNanos = 11,
    /// Result records produced.
    ResultRecords = 12,
}

/// Number of [`Dim`] counters.
pub const DIMS: usize = 13;

/// Stable export names, indexed by `Dim as usize`.
pub const DIM_NAMES: [&str; DIMS] = [
    "kernel_invocations",
    "kernel_entries_scanned",
    "hint_level_walks",
    "hint_elided_cmp",
    "buffer_pool_hits",
    "buffer_pool_misses",
    "page_reads",
    "page_writes",
    "queue_wait_nanos",
    "apply_nanos",
    "checkpoint_nanos",
    "publish_nanos",
    "result_records",
];

/// One completed span, start/end in nanoseconds relative to the trace root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id, unique within the trace; the root is id 0.
    pub id: u64,
    /// Parent span id; the root's parent is itself (0).
    pub parent: u64,
    /// Static span name, e.g. `"tree.search"`.
    pub name: &'static str,
    /// Start offset from the trace root, nanoseconds.
    pub start_nanos: u64,
    /// End offset from the trace root, nanoseconds.
    pub end_nanos: u64,
    /// Optional item count (results merged, pages read, …).
    pub items: u64,
}

/// Aggregated per-trace counters: the paper-style access breakdown.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryProfile {
    /// Tree node visits by level (root = its level in the tree; slot
    /// `MAX_LEVELS - 1` accumulates anything deeper).
    pub level_visits: Vec<u64>,
    /// Counter values, indexed by `Dim as usize` / [`DIM_NAMES`].
    pub dims: Vec<u64>,
}

impl QueryProfile {
    /// The value of one counter dimension.
    pub fn dim(&self, d: Dim) -> u64 {
        self.dims.get(d as usize).copied().unwrap_or(0)
    }

    /// Total tree node visits across all levels.
    pub fn total_node_visits(&self) -> u64 {
        self.level_visits.iter().sum()
    }

    /// The profile as a JSON object (zero counters omitted).
    pub fn to_json_value(&self) -> Value {
        let mut fields = Vec::new();
        let visits: Vec<Value> = self
            .level_visits
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > 0)
            .map(|(l, &v)| Value::Array(vec![Value::Int(l as i64), Value::Int(v as i64)]))
            .collect();
        fields.push(("level_visits".to_string(), Value::Array(visits)));
        for (i, name) in DIM_NAMES.iter().enumerate() {
            let v = self.dims.get(i).copied().unwrap_or(0);
            if v > 0 {
                fields.push((name.to_string(), Value::Int(v as i64)));
            }
        }
        Value::Object(fields)
    }
}

/// A finished trace: the span tree, its profile, and identifying metadata.
#[derive(Clone, Debug)]
pub struct CompletedTrace {
    /// Trace id, unique per process.
    pub id: u64,
    /// Operation class (flight-recorder bucketing key).
    pub class: OpClass,
    /// Root span name, e.g. `"server.search_batch"`.
    pub name: &'static str,
    /// Total wall-clock duration, nanoseconds.
    pub duration_nanos: u64,
    /// All spans, sorted by `start_nanos` (root first).
    pub spans: Vec<SpanRecord>,
    /// Spans discarded because the per-trace buffer was full.
    pub dropped_spans: u64,
    /// Aggregated counters.
    pub profile: QueryProfile,
}

impl CompletedTrace {
    /// The root span (id 0). Present in every well-formed trace.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.id == 0)
    }

    /// Checks the structural invariants every recorded trace must satisfy;
    /// returns human-readable violations (empty = well-formed):
    ///
    /// * exactly one root (id 0, parent 0), starting at offset 0;
    /// * every span's parent exists and `parent.id < child.id` (parents
    ///   open before their children);
    /// * every child's `[start, end]` nests within its parent's;
    /// * ids are unique and every span has `start <= end`.
    pub fn check_well_formed(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut by_id: HashMap<u64, &SpanRecord> = HashMap::new();
        for s in &self.spans {
            if by_id.insert(s.id, s).is_some() {
                problems.push(format!("duplicate span id {}", s.id));
            }
            if s.start_nanos > s.end_nanos {
                problems.push(format!(
                    "span {} ({}) ends before it starts: [{}, {}]",
                    s.id, s.name, s.start_nanos, s.end_nanos
                ));
            }
        }
        let roots: Vec<&&SpanRecord> = by_id.values().filter(|s| s.id == 0).collect();
        match roots.as_slice() {
            [] => problems.push("no root span (id 0)".to_string()),
            [root] => {
                if root.parent != 0 {
                    problems.push("root span's parent is not itself".to_string());
                }
                if root.start_nanos != 0 {
                    problems.push(format!(
                        "root span starts at {} instead of 0",
                        root.start_nanos
                    ));
                }
                if root.end_nanos > self.duration_nanos {
                    problems.push(format!(
                        "root span ends at {} after the trace duration {}",
                        root.end_nanos, self.duration_nanos
                    ));
                }
            }
            _ => {}
        }
        for s in &self.spans {
            if s.id == 0 {
                continue;
            }
            match by_id.get(&s.parent) {
                None => problems.push(format!(
                    "span {} ({}) has missing parent {}",
                    s.id, s.name, s.parent
                )),
                Some(p) => {
                    if p.id >= s.id {
                        problems.push(format!(
                            "span {} ({}) opened before its parent {} ({})",
                            s.id, s.name, p.id, p.name
                        ));
                    }
                    if s.start_nanos < p.start_nanos || s.end_nanos > p.end_nanos {
                        problems.push(format!(
                            "span {} ({}) [{}, {}] escapes parent {} ({}) [{}, {}]",
                            s.id,
                            s.name,
                            s.start_nanos,
                            s.end_nanos,
                            p.id,
                            p.name,
                            p.start_nanos,
                            p.end_nanos
                        ));
                    }
                }
            }
        }
        problems
    }

    /// Renders the span tree as indented text with durations, item counts,
    /// and the profile summary — the human-facing slow-op view.
    ///
    /// ```text
    /// trace #12 search "server.search_batch" 184.3µs (14 spans)
    /// └─ server.search_batch 184.3µs
    ///    ├─ tree.search 80.1µs [items=31]
    ///    ...
    /// ```
    pub fn render_text_tree(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace #{} {} \"{}\" {} ({} spans{})",
            self.id,
            self.class.name(),
            self.name,
            fmt_nanos(self.duration_nanos),
            self.spans.len(),
            if self.dropped_spans > 0 {
                format!(", {} dropped", self.dropped_spans)
            } else {
                String::new()
            }
        );
        let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
        for s in &self.spans {
            if s.id != 0 {
                children.entry(s.parent).or_default().push(s);
            }
        }
        for kids in children.values_mut() {
            kids.sort_by_key(|s| (s.start_nanos, s.id));
        }
        if let Some(root) = self.root() {
            render_node(&mut out, root, &children, "", true);
        }
        let p = &self.profile;
        if p.total_node_visits() > 0 {
            let levels: Vec<String> = p
                .level_visits
                .iter()
                .enumerate()
                .filter(|(_, &v)| v > 0)
                .map(|(l, &v)| format!("L{l}:{v}"))
                .collect();
            let _ = writeln!(out, "levels   {}", levels.join(" "));
        }
        let mut dims = String::new();
        for (i, name) in DIM_NAMES.iter().enumerate() {
            let v = p.dims.get(i).copied().unwrap_or(0);
            if v > 0 {
                if !dims.is_empty() {
                    dims.push(' ');
                }
                let _ = write!(dims, "{name}={v}");
            }
        }
        if !dims.is_empty() {
            let _ = writeln!(out, "profile  {dims}");
        }
        out
    }
}

fn render_node(
    out: &mut String,
    s: &SpanRecord,
    children: &HashMap<u64, Vec<&SpanRecord>>,
    prefix: &str,
    last: bool,
) {
    let branch = if last { "└─ " } else { "├─ " };
    let items = if s.items > 0 {
        format!(" [items={}]", s.items)
    } else {
        String::new()
    };
    let _ = writeln!(
        out,
        "{prefix}{branch}{} {}{items}",
        s.name,
        fmt_nanos(s.end_nanos.saturating_sub(s.start_nanos))
    );
    let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
    if let Some(kids) = children.get(&s.id) {
        for (i, kid) in kids.iter().enumerate() {
            render_node(out, kid, children, &child_prefix, i + 1 == kids.len());
        }
    }
}

fn fmt_nanos(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.2}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}µs", n as f64 / 1e3)
    } else {
        format!("{n}ns")
    }
}

/// Renders completed traces as Chrome `trace_event` JSON (the
/// "JSON Array Format" with a `traceEvents` wrapper), loadable in
/// `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
///
/// Each span becomes a complete (`"ph":"X"`) event; `pid` is the trace id
/// (so multiple traces load side by side) and `tid` is constant: a trace
/// is recorded by the one thread that started it.
/// Timestamps are microseconds as Chrome requires; sub-microsecond spans
/// keep a fractional part.
pub fn chrome_trace_json(traces: &[CompletedTrace]) -> String {
    let mut events = Vec::new();
    for t in traces {
        for s in &t.spans {
            let mut args = vec![
                ("span_id".to_string(), Value::Int(s.id as i64)),
                ("parent".to_string(), Value::Int(s.parent as i64)),
            ];
            if s.items > 0 {
                args.push(("items".to_string(), Value::Int(s.items as i64)));
            }
            if s.id == 0 {
                args.push(("profile".to_string(), t.profile.to_json_value()));
            }
            events.push(Value::Object(vec![
                ("name".to_string(), Value::Str(s.name.to_string())),
                ("cat".to_string(), Value::Str(t.class.name().to_string())),
                ("ph".to_string(), Value::Str("X".to_string())),
                ("ts".to_string(), Value::Float(s.start_nanos as f64 / 1e3)),
                (
                    "dur".to_string(),
                    Value::Float(s.end_nanos.saturating_sub(s.start_nanos) as f64 / 1e3),
                ),
                ("pid".to_string(), Value::Int(t.id as i64)),
                ("tid".to_string(), Value::Int(0)),
                ("args".to_string(), Value::Object(args)),
            ]));
        }
    }
    Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(events)),
        ("displayTimeUnit".to_string(), Value::Str("ns".to_string())),
    ])
    .render()
}

// ---------------------------------------------------------------------------
// Recording machinery
// ---------------------------------------------------------------------------

/// An open span on a thread's stack.
struct OpenSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    start_nanos: u64,
    items: u64,
}

impl OpenSpan {
    fn close(self, end_nanos: u64) -> SpanRecord {
        SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_nanos: self.start_nanos,
            end_nanos,
            items: self.items,
        }
    }
}

/// The trace this thread started: everything it records, owned by the
/// thread alone.
struct ThreadTrace {
    id: u64,
    class: OpClass,
    name: &'static str,
    start: Instant,
    next_span: u64,
    stack: Vec<OpenSpan>,
    /// Closed spans, at most [`MAX_SPANS`] with the root.
    spans: Vec<SpanRecord>,
    dropped: u64,
    dims: [u64; DIMS],
    level_visits: [u64; MAX_LEVELS],
}

impl ThreadTrace {
    fn now_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Keeps a closed non-root span if the buffer has room, leaving the
    /// last slot for the root; counts it as dropped otherwise.
    fn keep(&mut self, span: SpanRecord) {
        if self.spans.len() + 1 < MAX_SPANS {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }
}

thread_local! {
    /// THE one branch every instrumented null path pays.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static CURRENT: RefCell<Option<ThreadTrace>> = const { RefCell::new(None) };
}

/// True when a trace is being recorded on this thread. This is the entire
/// cost instrumented hot paths pay when tracing is off.
#[inline]
pub fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Runs `f` on this thread's live trace; no-op when untraced.
#[inline]
fn with_trace<R>(f: impl FnOnce(&mut ThreadTrace) -> R) -> Option<R> {
    if !active() {
        return None;
    }
    CURRENT.with(|c| c.borrow_mut().as_mut().map(f))
}

/// Bumps a profile counter on the active trace; no-op when untraced.
#[inline]
pub fn add(dim: Dim, n: u64) {
    if n > 0 {
        with_trace(|t| t.dims[dim as usize] += n);
    }
}

/// Records `visits[level]` node visits per tree level on the active trace.
/// Callers accumulate locally during a kernel loop and flush once here.
pub fn level_visits(visits: &[u64]) {
    with_trace(|t| {
        for (l, &v) in visits.iter().enumerate() {
            t.level_visits[l.min(MAX_LEVELS - 1)] += v;
        }
    });
}

/// Records `n` visits at one tree level on the active trace.
#[inline]
pub fn level_visit(level: u32, n: u64) {
    with_trace(|t| t.level_visits[(level as usize).min(MAX_LEVELS - 1)] += n);
}

/// Opens a child span under the thread's current span; closes on drop.
/// When no trace is active this is a no-op costing the [`active`] check.
#[inline]
pub fn span(name: &'static str) -> SpanScope {
    let open = with_trace(|t| {
        let id = t.next_span;
        t.next_span += 1;
        let parent = t.stack.last().map_or(0, |s| s.id);
        let start_nanos = t.now_nanos();
        t.stack.push(OpenSpan {
            id,
            parent,
            name,
            start_nanos,
            items: 0,
        });
    });
    SpanScope {
        open: open.is_some(),
    }
}

/// RAII guard returned by [`span`]; closing order must mirror opening order
/// (guaranteed by Rust scoping when guards are bound to locals).
#[must_use = "a span measures the scope it is bound to"]
pub struct SpanScope {
    open: bool,
}

impl SpanScope {
    /// Attaches an item count (results merged, pages read, …) to the span.
    pub fn items(&self, n: u64) {
        if self.open {
            with_trace(|t| {
                if let Some(top) = t.stack.last_mut() {
                    top.items = n;
                }
            });
        }
    }
}

impl Drop for SpanScope {
    fn drop(&mut self) {
        if self.open {
            with_trace(|t| {
                if let Some(open) = t.stack.pop() {
                    t.keep(open.close(t.now_nanos()));
                }
            });
        }
    }
}

/// Nanoseconds since the active trace's root opened; `None` when untraced.
pub fn now_nanos() -> Option<u64> {
    with_trace(|t| t.now_nanos())
}

/// Records an already-measured interval (trace-relative nanoseconds, see
/// [`now_nanos`]) as a closed child of the span open now — e.g. the commit
/// phases a writer measured for the op this thread waited on. Offsets are
/// clamped into that span's elapsed window. No-op when untraced.
pub fn record_interval(name: &'static str, start_nanos: u64, end_nanos: u64, items: u64) {
    with_trace(|t| {
        let (parent, parent_start) = t.stack.last().map_or((0, 0), |s| (s.id, s.start_nanos));
        let now = t.now_nanos();
        let start = start_nanos.clamp(parent_start, now);
        let id = t.next_span;
        t.next_span += 1;
        t.keep(SpanRecord {
            id,
            parent,
            name,
            start_nanos: start,
            end_nanos: end_nanos.clamp(start, now),
            items,
        });
    });
}

// ---------------------------------------------------------------------------
// Tracer + flight recorder
// ---------------------------------------------------------------------------

/// Bounded store of the N slowest completed traces per [`OpClass`].
pub struct FlightRecorder {
    per_class: usize,
    slots: Mutex<HashMap<OpClass, Vec<CompletedTrace>>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("per_class", &self.per_class)
            .field("retained", &self.retained())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder retaining the `per_class` slowest traces per class.
    pub fn new(per_class: usize) -> Self {
        Self {
            per_class: per_class.max(1),
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// Offers a completed trace; it is kept if it ranks among the slowest
    /// of its class.
    pub fn offer(&self, trace: CompletedTrace) {
        let mut slots = self.slots.lock().unwrap();
        let bucket = slots.entry(trace.class).or_default();
        bucket.push(trace);
        bucket.sort_by_key(|t| std::cmp::Reverse(t.duration_nanos));
        bucket.truncate(self.per_class);
    }

    /// The slowest retained traces for `class`, slowest first.
    pub fn slowest(&self, class: OpClass) -> Vec<CompletedTrace> {
        self.slots
            .lock()
            .unwrap()
            .get(&class)
            .cloned()
            .unwrap_or_default()
    }

    /// Every retained trace, grouped by class in [`OpClass::ALL`] order.
    pub fn all(&self) -> Vec<CompletedTrace> {
        let slots = self.slots.lock().unwrap();
        OpClass::ALL
            .iter()
            .filter_map(|c| slots.get(c))
            .flat_map(|b| b.iter().cloned())
            .collect()
    }

    /// Traces currently retained.
    pub fn retained(&self) -> usize {
        self.slots.lock().unwrap().values().map(Vec::len).sum()
    }
}

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Decides which operations get traced and collects what they record.
///
/// `sample_every = 0` disables tracing: [`Tracer::start`] returns `None`
/// and instrumented paths cost one boolean check. `sample_every = n`
/// traces every n-th started operation.
pub struct Tracer {
    sample_every: u64,
    started: AtomicU64,
    sampled: AtomicU64,
    completed: AtomicU64,
    spans_dropped: AtomicU64,
    flight: FlightRecorder,
    last: Mutex<Option<CompletedTrace>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("sample_every", &self.sample_every)
            .field("sampled", &self.sampled.load(Ordering::Relaxed))
            .finish()
    }
}

impl Tracer {
    /// A tracer sampling every `sample_every`-th op (0 = off), retaining
    /// the [`FLIGHT_PER_CLASS`] slowest traces per class.
    pub fn new(sample_every: u64) -> Self {
        Self {
            sample_every,
            started: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            spans_dropped: AtomicU64::new(0),
            flight: FlightRecorder::new(FLIGHT_PER_CLASS),
            last: Mutex::new(None),
        }
    }

    /// Starts a trace for this operation if sampling selects it and no
    /// trace is already active on this thread. Bind the returned guard for
    /// the operation's duration; dropping it completes the trace.
    #[inline]
    pub fn start(self: &Arc<Self>, class: OpClass, name: &'static str) -> Option<TraceGuard> {
        if self.sample_every == 0 {
            return None;
        }
        let n = self.started.fetch_add(1, Ordering::Relaxed);
        if n % self.sample_every != 0 {
            return None;
        }
        self.force(class, name)
    }

    /// Starts a trace unconditionally (still `None` if this thread already
    /// records one).
    pub fn force(self: &Arc<Self>, class: OpClass, name: &'static str) -> Option<TraceGuard> {
        if active() {
            return None;
        }
        self.sampled.fetch_add(1, Ordering::Relaxed);
        CURRENT.with(|c| {
            *c.borrow_mut() = Some(ThreadTrace {
                id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
                class,
                name,
                start: Instant::now(),
                next_span: 1,
                stack: vec![OpenSpan {
                    id: 0,
                    parent: 0,
                    name,
                    start_nanos: 0,
                    items: 0,
                }],
                spans: Vec::new(),
                dropped: 0,
                dims: [0; DIMS],
                level_visits: [0; MAX_LEVELS],
            });
        });
        ACTIVE.with(|a| a.set(true));
        Some(TraceGuard {
            tracer: Arc::clone(self),
            _thread_bound: PhantomData,
        })
    }

    /// Operations offered to [`Tracer::start`] since construction.
    pub fn started(&self) -> u64 {
        self.started.load(Ordering::Relaxed)
    }

    /// Traces actually recorded.
    pub fn sampled(&self) -> u64 {
        self.sampled.load(Ordering::Relaxed)
    }

    /// Traces completed (guard dropped).
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Spans dropped across all completed traces (buffer overflow).
    pub fn spans_dropped(&self) -> u64 {
        self.spans_dropped.load(Ordering::Relaxed)
    }

    /// The flight recorder holding the slowest completed traces.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Appends the tracer's health families ([`METRICS`]) under `labels`:
    /// operations offered and traces recorded (counters), spans dropped to
    /// the per-trace buffer cap (counter **and** gauge, so the current loss
    /// level is visible without diffing), and the traces the flight
    /// recorder retains (gauge). A tracer has no component of its own; the
    /// service it traces registers this under its labels.
    pub fn collect_metrics(&self, labels: &[(&str, &str)], out: &mut Vec<Metric>) {
        out.push(Metric::counter(STARTED.name, labels, self.started()));
        out.push(Metric::counter(SAMPLED.name, labels, self.sampled()));
        out.push(Metric::counter(
            SPANS_DROPPED_TOTAL.name,
            labels,
            self.spans_dropped(),
        ));
        out.push(Metric::gauge(
            SPANS_DROPPED.name,
            labels,
            self.spans_dropped() as f64,
        ));
        out.push(Metric::gauge(
            FLIGHT_RETAINED.name,
            labels,
            self.flight.retained() as f64,
        ));
    }

    /// The most recently completed trace, if any.
    pub fn last_completed(&self) -> Option<CompletedTrace> {
        self.last.lock().unwrap().clone()
    }

    fn finish(&self) {
        let Some(mut t) = CURRENT.with(|c| c.borrow_mut().take()) else {
            return;
        };
        ACTIVE.with(|a| a.set(false));
        // Close the spans still open, the root last: it is always kept.
        let duration_nanos = t.now_nanos();
        while let Some(open) = t.stack.pop() {
            let span = open.close(duration_nanos);
            if span.id == 0 {
                t.spans.push(span);
            } else {
                t.keep(span);
            }
        }
        t.spans.sort_by_key(|s| (s.start_nanos, s.id));
        let trace = CompletedTrace {
            id: t.id,
            class: t.class,
            name: t.name,
            duration_nanos,
            spans: t.spans,
            dropped_spans: t.dropped,
            profile: QueryProfile {
                level_visits: t.level_visits.to_vec(),
                dims: t.dims.to_vec(),
            },
        };
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.spans_dropped
            .fetch_add(trace.dropped_spans, Ordering::Relaxed);
        *self.last.lock().unwrap() = Some(trace.clone());
        self.flight.offer(trace);
    }
}

/// Root guard of a live trace; dropping it completes the trace and offers
/// it to the flight recorder.
///
/// The trace lives in the starting thread's locals, so the guard cannot
/// leave that thread:
///
/// ```compile_fail,E0277
/// fn finish_elsewhere(guard: segidx_obs::trace::TraceGuard) {
///     std::thread::spawn(move || drop(guard));
/// }
/// ```
#[must_use = "dropping the guard completes the trace"]
pub struct TraceGuard {
    tracer: Arc<Tracer>,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        self.tracer.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced<F: FnOnce()>(f: F) -> CompletedTrace {
        let tracer = Arc::new(Tracer::new(1));
        {
            let _g = tracer.start(OpClass::Search, "test.root").unwrap();
            f();
        }
        tracer.last_completed().unwrap()
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Arc::new(Tracer::new(0));
        assert!(tracer.start(OpClass::Search, "op").is_none());
        assert!(!active());
        // Instrumented paths are no-ops.
        let s = span("orphan");
        s.items(3);
        drop(s);
        add(Dim::PageReads, 5);
        assert_eq!(tracer.completed(), 0);
    }

    #[test]
    fn sampling_selects_every_nth() {
        let tracer = Arc::new(Tracer::new(3));
        let mut taken = 0;
        for _ in 0..9 {
            if let Some(g) = tracer.start(OpClass::Stab, "op") {
                taken += 1;
                drop(g);
            }
        }
        assert_eq!(taken, 3);
        assert_eq!(tracer.completed(), 3);
    }

    #[test]
    fn nested_spans_form_a_well_formed_tree() {
        let t = traced(|| {
            let a = span("a");
            {
                let b = span("b");
                b.items(7);
                let _c = span("c");
            }
            drop(a);
            let _d = span("d");
        });
        assert_eq!(t.spans.len(), 5); // root + a,b,c,d
        assert!(
            t.check_well_formed().is_empty(),
            "{:?}",
            t.check_well_formed()
        );
        let b = t.spans.iter().find(|s| s.name == "b").unwrap();
        let a = t.spans.iter().find(|s| s.name == "a").unwrap();
        let c = t.spans.iter().find(|s| s.name == "c").unwrap();
        let d = t.spans.iter().find(|s| s.name == "d").unwrap();
        assert_eq!(b.parent, a.id);
        assert_eq!(c.parent, b.id);
        assert_eq!(d.parent, 0);
        assert_eq!(b.items, 7);
    }

    #[test]
    fn counters_and_levels_aggregate() {
        let t = traced(|| {
            add(Dim::KernelInvocations, 4);
            add(Dim::KernelEntriesScanned, 120);
            add(Dim::KernelInvocations, 1);
            level_visits(&[2, 3, 0, 1]);
            level_visit(40, 5); // clamps into the last slot
        });
        assert_eq!(t.profile.dim(Dim::KernelInvocations), 5);
        assert_eq!(t.profile.dim(Dim::KernelEntriesScanned), 120);
        assert_eq!(t.profile.level_visits[0], 2);
        assert_eq!(t.profile.level_visits[1], 3);
        assert_eq!(t.profile.level_visits[3], 1);
        assert_eq!(t.profile.level_visits[MAX_LEVELS - 1], 5);
        assert_eq!(t.profile.total_node_visits(), 11);
    }

    #[test]
    fn record_interval_lands_under_parent() {
        let t = traced(|| {
            let outer = span("commit_wait");
            record_interval("apply", 10, 20, 4);
            drop(outer);
        });
        assert!(
            t.check_well_formed().is_empty(),
            "{:?}",
            t.check_well_formed()
        );
        let apply = t.spans.iter().find(|s| s.name == "apply").unwrap();
        let outer = t.spans.iter().find(|s| s.name == "commit_wait").unwrap();
        assert_eq!(apply.parent, outer.id);
        assert_eq!(apply.items, 4);
    }

    #[test]
    fn span_buffer_is_bounded_and_keeps_the_root() {
        let tracer = Arc::new(Tracer::new(1));
        {
            let _g = tracer.force(OpClass::Other, "root").unwrap();
            for _ in 0..MAX_SPANS + 50 {
                let _s = span("leaf");
            }
        }
        let t = tracer.last_completed().unwrap();
        assert_eq!(t.spans.len(), MAX_SPANS);
        assert_eq!(t.dropped_spans, 51);
        assert!(t.root().is_some(), "root must survive overflow");
        assert_eq!(tracer.spans_dropped(), t.dropped_spans);
    }

    #[test]
    fn flight_recorder_keeps_slowest_per_class() {
        let fr = FlightRecorder::new(2);
        for (i, dur) in [100u64, 900, 400, 700].iter().enumerate() {
            fr.offer(CompletedTrace {
                id: i as u64,
                class: OpClass::Search,
                name: "s",
                duration_nanos: *dur,
                spans: vec![],
                dropped_spans: 0,
                profile: QueryProfile::default(),
            });
        }
        fr.offer(CompletedTrace {
            id: 99,
            class: OpClass::Stab,
            name: "t",
            duration_nanos: 5,
            spans: vec![],
            dropped_spans: 0,
            profile: QueryProfile::default(),
        });
        let slowest = fr.slowest(OpClass::Search);
        assert_eq!(
            slowest.iter().map(|t| t.duration_nanos).collect::<Vec<_>>(),
            vec![900, 700]
        );
        assert_eq!(fr.retained(), 3);
    }

    #[test]
    fn exporters_produce_tree_and_valid_chrome_json() {
        let t = traced(|| {
            let pin = span("pin");
            drop(pin);
            let scatter = span("scatter");
            let _k = span("kernel");
            drop(_k);
            drop(scatter);
            add(Dim::PageReads, 1);
        });
        let text = t.render_text_tree();
        assert!(text.contains("trace #"), "{text}");
        assert!(text.contains("pin"), "{text}");
        assert!(text.contains("└─") || text.contains("├─"), "{text}");
        assert!(text.contains("page_reads=1"), "{text}");

        let json = chrome_trace_json(&[t]);
        let parsed = crate::json::parse(&json).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 4);
        for e in events {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
            assert!(e.get("ts").unwrap().as_f64().is_some());
            assert!(e.get("dur").unwrap().as_f64().is_some());
            assert!(e.get("name").unwrap().as_str().is_some());
        }
    }

    #[test]
    fn well_formedness_detects_violations() {
        let base = |id, parent, s, e| SpanRecord {
            id,
            parent,
            name: "x",
            start_nanos: s,
            end_nanos: e,
            items: 0,
        };
        let bad = CompletedTrace {
            id: 1,
            class: OpClass::Search,
            name: "r",
            duration_nanos: 100,
            spans: vec![
                base(0, 0, 0, 100),
                base(1, 0, 10, 120), // escapes parent
                base(2, 7, 20, 30),  // missing parent
            ],
            dropped_spans: 0,
            profile: QueryProfile::default(),
        };
        let problems = bad.check_well_formed();
        assert_eq!(problems.len(), 2, "{problems:?}");
    }

    #[test]
    fn nested_start_is_absorbed() {
        let tracer = Arc::new(Tracer::new(1));
        let g = tracer.force(OpClass::Search, "outer").unwrap();
        assert!(tracer.force(OpClass::Search, "inner").is_none());
        drop(g);
        assert_eq!(tracer.completed(), 1);
    }

    #[test]
    fn collected_metrics_are_the_declared_families() {
        use std::collections::BTreeSet;
        let tracer = Arc::new(Tracer::new(0));
        let registry = crate::MetricsRegistry::new();
        let t = Arc::clone(&tracer);
        registry.register(METRICS, Box::new(move |out| t.collect_metrics(&[], out)));
        let snap = registry.snapshot();
        let emitted: BTreeSet<_> = snap
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.value.kind()))
            .collect();
        let declared: BTreeSet<_> = METRICS.iter().map(|f| (f.name, f.kind)).collect();
        assert_eq!(emitted, declared);
    }
}
