//! What a run found, and how it is printed: a table for people on the
//! standard error stream, one JSON object as the last line of standard
//! output for the driver.

use crate::spec::{MetricDecl, END_TO_END, PER_LAYER};
use crate::stats::Latency;
use std::fmt::Write as _;

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    /// Metric name (one of the declared ones).
    pub name: String,
    /// The value, in the declared unit.
    pub value: f64,
    /// How many samples it summarises (1 for a count or a single timing).
    pub samples: u64,
}

/// Everything one run of one workload found.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Whether this was the traced (per-layer) run.
    pub trace: bool,
    /// Measured values.
    pub metrics: Vec<Measured>,
    /// Operations issued, verification probes included.
    pub attempted: u64,
    /// Operations refused, failed, unanswered or answered wrongly.
    pub failed: u64,
    /// Lines for the human report: first failures, extra percentiles.
    pub notes: Vec<String>,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &str, trace: bool) -> Self {
        Self {
            workload: workload.to_string(),
            trace,
            ..Self::default()
        }
    }

    /// Records `name = value` over `samples` samples.
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        debug_assert!(
            self.declared().iter().any(|d| d.name == name),
            "undeclared metric {name}"
        );
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Measured {
            name: name.to_string(),
            value,
            samples,
        });
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Adds `failed` of `attempted` operations, keeping the first reasons.
    pub fn count(&mut self, attempted: u64, failed: u64, reasons: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        for r in reasons.iter().take(5usize.saturating_sub(self.notes.len())) {
            self.notes.push(format!("failure: {r}"));
        }
    }

    /// Summarises the latency `samples` (ns) of one kind of one phase and
    /// notes its median, p99 and the highest percentile the sample
    /// supports. An error when nothing was sampled.
    pub fn latency(&mut self, kind: &str, samples: &mut [u32]) -> std::io::Result<Latency> {
        let l = Latency::of(samples)
            .ok_or_else(|| std::io::Error::other(format!("no {kind} completed; run longer")))?;
        let top = match l.top {
            Some((q, v)) if q > 0.99 => format!(", p{} {:.1} us", q * 100.0, v / 1e3),
            Some(_) => String::new(),
            None => " (fewer than ten samples beyond p90)".to_string(),
        };
        self.notes.push(format!(
            "{kind}: p50 {:.1} us, p99 {:.1} us{top} over {} samples",
            l.p50 / 1e3,
            l.p99 / 1e3,
            l.n
        ));
        Ok(l)
    }

    /// Records `l` as the run's `e2e.<kind>_p50_us` and `_p99_us`.
    pub fn set_latency(&mut self, kind: &str, l: &Latency) {
        self.set(&format!("e2e.{kind}_p50_us"), l.p50 / 1e3, l.n);
        self.set(&format!("e2e.{kind}_p99_us"), l.p99 / 1e3, l.n);
    }

    /// No operation failed and every verification probe matched.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The process exit code this outcome calls for.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.correct())
    }

    fn declared(&self) -> &'static [MetricDecl] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Every declared metric with its value: an end-to-end metric must
    /// have been measured; a layer the workload bypasses reads 0.
    fn rows(&self) -> Vec<(&'static MetricDecl, f64, u64)> {
        self.declared()
            .iter()
            .map(|d| match self.metrics.iter().find(|m| m.name == d.name) {
                Some(m) => {
                    assert!(m.value.is_finite(), "{} is not finite", d.name);
                    (d, m.value, m.samples)
                }
                None => {
                    assert!(self.trace, "end-to-end metric {} was not measured", d.name);
                    (d, 0.0, 0)
                }
            })
            .collect()
    }

    /// The table for people.
    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {} ({}): attempted {} failed {} correct {}\n",
            self.workload,
            if self.trace {
                "traced, per-layer"
            } else {
                "untraced, end-to-end"
            },
            self.attempted,
            self.failed,
            self.correct()
        );
        for (d, value, samples) in self.rows() {
            let _ = writeln!(
                out,
                "  {:<44} {:>16.4} {:<6} n={samples:<9} better={}",
                d.name,
                value,
                d.unit,
                d.better.as_str()
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        out
    }

    /// The driver's result line.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (d, value, _)) in self.rows().into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` keeps every digit of the measurement.
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push_str("}}");
        out
    }
}
