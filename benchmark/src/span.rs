//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans stay in memory while a workload runs and are written out as
//! Chrome-trace JSON when it ends. A layer's self time is its span's
//! duration minus the part of it covered by child spans.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the log was created.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into [`SpanLog::names`].
    pub name: u16,
    /// Index of the span that caused this one, `u32::MAX` for a root.
    pub parent: u32,
    /// The request (operation number) this span belongs to.
    pub request: u32,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// Root marker for [`Span::parent`].
pub const NO_PARENT: u32 = u32::MAX;

/// An append-only span recorder for one thread.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u32) -> u32 {
        let name = self.name_id(name);
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            request,
            start,
            end: start,
        });
        let id = (self.spans.len() - 1) as u32;
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    /// Adds an already-timed span (tests and synthetic children).
    pub fn push_raw(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u32,
        start: u64,
        end: u64,
    ) -> u32 {
        let name = self.name_id(name);
        self.spans.push(Span {
            name,
            parent,
            request,
            start,
            end,
        });
        (self.spans.len() - 1) as u32
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus its children's durations.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Per span name: `(name, count, total self ns, total duration ns)`.
    pub fn totals(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let own = self.self_times();
        let mut out: Vec<(&'static str, u64, u64, u64)> =
            self.names.iter().map(|n| (*n, 0, 0, 0)).collect();
        for (s, own) in self.spans.iter().zip(own) {
            let row = &mut out[s.name as usize];
            row.1 += 1;
            row.2 += own;
            row.3 += s.end - s.start;
        }
        out
    }

    /// `(count, total self ns, total duration ns)` of spans called `name`;
    /// zeros when none were recorded.
    pub fn total(&self, name: &str) -> (u64, u64, u64) {
        self.totals()
            .iter()
            .find(|t| t.0 == name)
            .map_or((0, 0, 0), |t| (t.1, t.2, t.3))
    }

    /// A Chrome-trace file (`chrome://tracing`, Perfetto) of the first
    /// `limit` spans.
    pub fn chrome_trace(&self, limit: usize) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":{},\"parent\":{}}}}}",
                self.names[s.name as usize],
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.request,
                if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) },
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes the first 50 000 spans to `benchmark/out/trace-<workload>.json`.
    pub fn write_trace(&self, workload: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(crate::out_dir())?;
        let path = crate::out_dir().join(format!("trace-{workload}.json"));
        std::fs::write(path, self.chrome_trace(50_000))
    }
}
