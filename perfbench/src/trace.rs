//! Spans recorded around the benchmark's calls into the system.
//!
//! Each span has a name, start, end and the span that caused it; spans of
//! one query window carry the same window id. Spans are kept in memory and
//! written out once, when the run ends. A disabled tracer records nothing,
//! so untraced runs pay one branch per call.

use std::fmt::Write as _;
use std::time::Instant;

/// Identifier of a recorded span; `SpanId::NONE` when tracing is off or the
/// span has no parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// No span (the root's parent, or any span of a disabled tracer).
    pub const NONE: SpanId = SpanId(usize::MAX);
}

struct Span {
    name: String,
    parent: SpanId,
    window: Option<u64>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn start(&mut self, name: &str, parent: SpanId, window: Option<u64>) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            window,
            start_ns: now,
            end_ns: now,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::start`].
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id.0) {
            span.end_ns = now;
        }
    }

    /// Records an already measured interval as a closed span.
    pub fn record(
        &mut self,
        name: &str,
        parent: SpanId,
        window: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let start_ns = self.ns_since_origin(start);
            let end_ns = self.ns_since_origin(end);
            self.spans.push(Span { name: name.to_string(), parent, window, start_ns, end_ns });
        }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span name in ms: each span's duration minus the
    /// part its direct children cover, summed per name, sorted by name.
    pub fn self_times_ms(&self) -> Vec<(String, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(slot) = child_ns.get_mut(span.parent.0) {
                *slot += span.end_ns - span.start_ns;
            }
        }
        let mut by_name: std::collections::BTreeMap<&str, u64> = Default::default();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *by_name.entry(span.name.as_str()).or_default() += own;
        }
        by_name.into_iter().map(|(name, ns)| (name.to_string(), ns as f64 / 1e6)).collect()
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = match span.parent {
                SpanId::NONE => "null".to_string(),
                SpanId(p) => p.to_string(),
            };
            let window = span.window.map_or("null".to_string(), |w| w.to_string());
            let sep = if id + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"window\":{window},\
                 \"start_ns\":{},\"end_ns\":{}}}{sep}",
                span.name, span.start_ns, span.end_ns
            );
        }
        out.push(']');
        out.push('\n');
        out
    }

    fn now_ns(&self) -> u64 {
        self.ns_since_origin(Instant::now())
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos().min(u64::MAX as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.start("run", SpanId::NONE, None);
        assert_eq!(id, SpanId::NONE);
        t.end(id);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        let base = t.origin;
        let root = t.start("rep", SpanId::NONE, None);
        t.record("query", root, Some(1), base, base + Duration::from_millis(30));
        t.record("query", root, Some(2), base, base + Duration::from_millis(20));
        // Close the root at a fixed 100 ms so the arithmetic is exact.
        t.spans[root.0].start_ns = 0;
        t.spans[root.0].end_ns = 100_000_000;
        let times = t.self_times_ms();
        assert_eq!(times, vec![("query".to_string(), 50.0), ("rep".to_string(), 50.0)]);
        let json = t.to_json();
        assert!(json.contains("\"name\":\"query\",\"parent\":0,\"window\":2"));
    }
}
