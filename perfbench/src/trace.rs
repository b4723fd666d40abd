//! In-memory spans around the benchmark's calls into each layer, written
//! out once at exit as Chrome trace-event JSON (`chrome://tracing`,
//! Perfetto).
//!
//! A disabled tracer still times its spans (the benchmark needs the
//! durations either way) but records nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// An open span: its start, and its slot if it is being recorded.
#[derive(Debug, Clone, Copy)]
pub struct SpanId {
    start: Instant,
    slot: Option<usize>,
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Layer counters read from the reports inside this span.
    args: Vec<(&'static str, f64)>,
}

/// Records spans (name, start, end, parent) relative to its creation.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(false)
    }
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start = Instant::now();
        let slot = self.enabled.then(|| {
            let start_ns = (start - self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: parent.and_then(|p| p.slot),
                args: Vec::new(),
            });
            self.spans.len() - 1
        });
        SpanId { start, slot }
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let end = Instant::now();
        if let Some(i) = id.slot {
            self.spans[i].end_ns = (end - self.epoch).as_nanos() as u64;
        }
        (end - id.start).as_secs_f64()
    }

    /// Attaches a counter to a recorded span.
    pub fn arg(&mut self, id: SpanId, key: &'static str, value: f64) {
        if let Some(i) = id.slot {
            self.spans[i].args.push((key, value));
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The spans as Chrome trace-event JSON: one complete (`"X"`) event per
    /// span, times in µs; the causing span is named in `args.parent`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i}",
                s.name,
                s.start_ns as f64 * 1e-3,
                (s.end_ns - s.start_ns) as f64 * 1e-3,
            );
            if let Some(p) = s.parent {
                let _ = write!(
                    out,
                    ",\"parent\":\"{}\",\"parent_id\":{p}",
                    self.spans[p].name
                );
            }
            for (k, v) in &s.args {
                if v.is_finite() {
                    let _ = write!(out, ",\"{k}\":{v}");
                }
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut tr = Tracer::new(true);
        let root = tr.begin("solve", None);
        let child = tr.begin("layout.distribute", Some(root));
        assert!(tr.end(child) >= 0.0);
        tr.arg(root, "exec.route_ms", 1.5);
        tr.end(root);
        let json = tr.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"layout.distribute\""));
        assert!(json.contains("\"parent\":\"solve\",\"parent_id\":0"));
        assert!(json.contains("\"exec.route_ms\":1.5"));
        assert_eq!(tr.len(), 2);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.begin("solve", None);
        tr.arg(id, "steps", 3.0);
        assert!(tr.end(id) >= 0.0);
        assert!(tr.is_empty());
    }
}
