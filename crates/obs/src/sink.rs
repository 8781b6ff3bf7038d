//! Structural event tracing: the [`ObsSink`] trait and its built-in
//! implementations.
//!
//! The index and storage layers fire an [`Event`] whenever the structure
//! they maintain changes shape — a node splits, a spanning record is
//! promoted or demoted, a record is cut, sibling leaves coalesce, a
//! buffer-pool frame is evicted. A sink receives those events synchronously
//! on the thread that caused them; implementations must therefore be cheap
//! and non-blocking. Layers hold an `Option<Arc<dyn ObsSink>>` that defaults
//! to `None`, so with tracing disabled the hot paths pay a single pointer
//! null check and no dynamic dispatch.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What kind of structural change an [`Event`] describes.
///
/// The index-side kinds mirror the counters of `TreeStats` in `segidx-core`
/// (paper §3–§4); the buffer-pool kind comes from `segidx-storage`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EventKind {
    /// A leaf node split in two.
    LeafSplit,
    /// An internal node split in two.
    InternalSplit,
    /// A spanning record moved up to the parent after a split (paper §3.1.2).
    Promotion,
    /// A spanning record moved down after a region expansion (paper §3.1.1).
    Demotion,
    /// A spanning record relinked to a different branch without demotion.
    Relink,
    /// A record cut into spanning + remnant portions (paper §3.1.1).
    Cut,
    /// An unresolvable node overflow absorbed elastically.
    ElasticOverflow,
    /// Two sibling leaves merged by Skeleton coalescing (paper §4).
    Coalesce,
    /// A spanning record demoted to the leaf level under spanning pressure.
    SpanningEviction,
    /// A leaf entry moved to an adjacent sibling instead of splitting.
    Redistribution,
    /// An entry removed by R*-style forced reinsertion.
    ForcedReinsert,
    /// A buffer-pool frame evicted to stay within the byte budget.
    BufferEviction,
    /// A page that failed validation was quarantined during repair-mode
    /// open (dropped from the page directory so it can never be read).
    PageQuarantined,
    /// A subtree was unreachable during recovery (its page corrupt or
    /// missing); its entries are lost.
    SubtreeLost,
    /// An index was rebuilt from surviving pages after corruption; `detail`
    /// carries the number of entries recovered.
    RecoveryRebuild,
    /// A dirty page write-back failed in a context that could not return
    /// the error (e.g. buffer-pool flush-on-drop).
    WriteBackError,
    /// A concurrent index published a new immutable snapshot; `node` is the
    /// published epoch, `detail` the number of operations in the group
    /// commit that produced it.
    SnapshotPublished,
    /// The single writer fell behind its submission queue: an operation was
    /// rejected with a typed overload error (`detail` = queue depth at
    /// rejection).
    WriterStalled,
}

impl EventKind {
    /// A stable snake_case name, usable as a metric or log label.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::LeafSplit => "leaf_split",
            EventKind::InternalSplit => "internal_split",
            EventKind::Promotion => "promotion",
            EventKind::Demotion => "demotion",
            EventKind::Relink => "relink",
            EventKind::Cut => "cut",
            EventKind::ElasticOverflow => "elastic_overflow",
            EventKind::Coalesce => "coalesce",
            EventKind::SpanningEviction => "spanning_eviction",
            EventKind::Redistribution => "redistribution",
            EventKind::ForcedReinsert => "forced_reinsert",
            EventKind::BufferEviction => "buffer_eviction",
            EventKind::PageQuarantined => "page_quarantined",
            EventKind::SubtreeLost => "subtree_lost",
            EventKind::RecoveryRebuild => "recovery_rebuild",
            EventKind::WriteBackError => "write_back_error",
            EventKind::SnapshotPublished => "snapshot_published",
            EventKind::WriterStalled => "writer_stalled",
        }
    }
}

/// One structural change, as reported to an [`ObsSink`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// The node (or page) the change is anchored to, as a raw id.
    pub node: u64,
    /// Tree level of the node (0 = leaf) or storage size class.
    pub level: u32,
    /// Kind-specific magnitude: entries moved, bytes evicted, … 0 when the
    /// kind has no natural magnitude.
    pub detail: u64,
}

impl Event {
    /// An event of `kind` with all context fields zeroed.
    pub fn new(kind: EventKind) -> Self {
        Self {
            kind,
            node: 0,
            level: 0,
            detail: 0,
        }
    }

    /// Sets the anchor node/page id.
    pub fn node(mut self, node: u64) -> Self {
        self.node = node;
        self
    }

    /// Sets the tree level / size class.
    pub fn level(mut self, level: u32) -> Self {
        self.level = level;
        self
    }

    /// Sets the kind-specific magnitude.
    pub fn detail(mut self, detail: u64) -> Self {
        self.detail = detail;
        self
    }
}

/// A completed, named span of work (a batch, a bulk load, a coalesce pass).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Operation name, e.g. `"search_batch"`.
    pub name: &'static str,
    /// Wall-clock duration in nanoseconds.
    pub nanos: u64,
    /// Items processed within the span (queries, records, …).
    pub items: u64,
}

/// Receiver of structural events and completed spans.
///
/// Implementations are called synchronously from index/storage hot paths
/// and must be cheap, non-blocking, and panic-free.
pub trait ObsSink: Send + Sync + std::fmt::Debug {
    /// Called when the observed structure changes shape.
    fn event(&self, event: Event);

    /// Called when a named multi-item operation completes. The default
    /// discards the span.
    fn span(&self, span: Span) {
        let _ = span;
    }
}

/// A sink that discards everything.
///
/// The layers treat "no sink" (`None`) as the true fast path — `NullSink`
/// exists for APIs that require *some* sink value and for benchmarking the
/// dispatch overhead itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl ObsSink for NullSink {
    #[inline]
    fn event(&self, _event: Event) {}
}

#[derive(Debug, Default)]
struct RingInner {
    events: VecDeque<Event>,
    spans: VecDeque<Span>,
}

/// A bounded ring-buffer sink for tests and debugging.
///
/// Keeps the most recent `capacity` events (and spans) and counts what it
/// had to drop; recording is a short critical section on a `Mutex`.
///
/// ```
/// use segidx_obs::{Event, EventKind, ObsSink, RingBufferSink};
///
/// let sink = RingBufferSink::new(2);
/// for i in 0..3 {
///     sink.event(Event::new(EventKind::LeafSplit).node(i));
/// }
/// let kept = sink.events();
/// assert_eq!(kept.len(), 2, "bounded");
/// assert_eq!(kept[0].node, 1, "oldest dropped first");
/// assert_eq!(sink.dropped(), 1);
/// ```
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    inner: Mutex<RingInner>,
    dropped: AtomicU64,
}

impl RingBufferSink {
    /// A ring keeping at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(RingInner::default()),
            dropped: AtomicU64::new(0),
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().unwrap().events.iter().copied().collect()
    }

    /// The retained spans, oldest first.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.lock().unwrap().spans.iter().copied().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted from the ring because it was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Retained events of one kind, oldest first.
    pub fn events_of(&self, kind: EventKind) -> Vec<Event> {
        self.events()
            .into_iter()
            .filter(|e| e.kind == kind)
            .collect()
    }

    /// Clears all retained events and spans (the drop counter survives).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.events.clear();
        inner.spans.clear();
    }
}

impl ObsSink for RingBufferSink {
    fn event(&self, event: Event) {
        let mut inner = self.inner.lock().unwrap();
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        inner.events.push_back(event);
    }

    fn span(&self, span: Span) {
        let mut inner = self.inner.lock().unwrap();
        if inner.spans.len() == self.capacity {
            inner.spans.pop_front();
        }
        inner.spans.push_back(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent() {
        let sink = RingBufferSink::new(3);
        for i in 0..10u64 {
            sink.event(Event::new(EventKind::Cut).node(i).detail(i * 2));
        }
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.node).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
        assert_eq!(sink.dropped(), 7);
    }

    #[test]
    fn spans_are_recorded() {
        let sink = RingBufferSink::new(4);
        sink.span(Span {
            name: "bulk_load",
            nanos: 1_000,
            items: 50,
        });
        assert_eq!(sink.spans().len(), 1);
        assert_eq!(sink.spans()[0].name, "bulk_load");
    }

    #[test]
    fn filter_by_kind_and_clear() {
        let sink = RingBufferSink::new(8);
        sink.event(Event::new(EventKind::LeafSplit));
        sink.event(Event::new(EventKind::Demotion));
        sink.event(Event::new(EventKind::LeafSplit));
        assert_eq!(sink.events_of(EventKind::LeafSplit).len(), 2);
        assert_eq!(sink.events_of(EventKind::Coalesce).len(), 0);
        sink.clear();
        assert!(sink.is_empty());
    }

    #[test]
    fn null_sink_discards() {
        let sink = NullSink;
        sink.event(Event::new(EventKind::BufferEviction));
        sink.span(Span {
            name: "noop",
            nanos: 1,
            items: 0,
        });
    }

    #[test]
    fn kind_names_are_snake_case() {
        for kind in [
            EventKind::LeafSplit,
            EventKind::InternalSplit,
            EventKind::Promotion,
            EventKind::Demotion,
            EventKind::Relink,
            EventKind::Cut,
            EventKind::ElasticOverflow,
            EventKind::Coalesce,
            EventKind::SpanningEviction,
            EventKind::Redistribution,
            EventKind::ForcedReinsert,
            EventKind::BufferEviction,
            EventKind::PageQuarantined,
            EventKind::SubtreeLost,
            EventKind::RecoveryRebuild,
            EventKind::WriteBackError,
            EventKind::SnapshotPublished,
            EventKind::WriterStalled,
        ] {
            let name = kind.name();
            assert!(name.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }
}
