//! Tracing spans: per-worker append buffers, deterministic merge, export.
//!
//! Span events are recorded into per-worker buffers (one shallow mutex per
//! worker slot, so workers never contend with each other) and merged at the
//! end of the run by sorting on the *logical* key
//! `(operator, phase, kind, task)` — never on wall-clock timestamps — so two
//! runs of the same program produce the same span sequence regardless of
//! thread interleaving. Timestamps are carried along for duration analysis
//! but do not influence the merge order.

use std::io::Write;
use std::sync::Mutex;

use crate::metrics::thread_slot;
use crate::report::json_escape;

/// What a span covers, coarsest to finest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// The whole run (one per execution).
    Run,
    /// One scheduler unit (a fused chain or a single operator).
    Unit,
    /// One phase of a unit (e.g. join build vs probe).
    Phase,
    /// One morsel-sized task within a phase.
    Morsel,
    /// Provenance capture finalization.
    Capture,
    /// A backtrace index build or probe.
    Backtrace,
    /// One service request (`op` = request-kind ordinal, `task` = query id).
    Query,
}

impl SpanKind {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Unit => "unit",
            SpanKind::Phase => "phase",
            SpanKind::Morsel => "morsel",
            SpanKind::Capture => "capture",
            SpanKind::Backtrace => "backtrace",
            SpanKind::Query => "query",
        }
    }

    fn rank(self) -> u8 {
        match self {
            SpanKind::Run => 0,
            SpanKind::Unit => 1,
            SpanKind::Phase => 2,
            SpanKind::Morsel => 3,
            SpanKind::Capture => 4,
            SpanKind::Backtrace => 5,
            SpanKind::Query => 6,
        }
    }
}

/// One recorded span. `op`/`task` use `u32::MAX` for "not applicable".
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Granularity of the span.
    pub kind: SpanKind,
    /// Human-readable label (operator type or phase name).
    pub name: &'static str,
    /// Operator id the span belongs to (head operator for fused chains).
    pub op: u32,
    /// Phase ordinal within the unit (0 = first pass, 1 = second pass).
    pub phase: u8,
    /// Task (morsel) index within the phase.
    pub task: u32,
    /// Worker slot that executed the span.
    pub worker: u32,
    /// Start offset in nanoseconds since the run began.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Rows produced by the span (0 when not applicable).
    pub rows: u64,
}

impl SpanEvent {
    /// The deterministic merge key: `(op, phase, kind, task)`, with the run
    /// span sorting last (it closes the trace).
    fn key(&self) -> (u32, u8, u8, u32) {
        (self.op, self.phase, self.kind.rank(), self.task)
    }

    /// Renders the span as one NDJSON object.
    pub fn to_ndjson(&self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"name\":\"{}\",\"op\":{},\"phase\":{},\"task\":{},\
             \"worker\":{},\"start_ns\":{},\"dur_ns\":{},\"rows\":{}}}",
            self.kind.name(),
            json_escape(self.name),
            self.op,
            self.phase,
            self.task,
            self.worker,
            self.start_ns,
            self.dur_ns,
            self.rows,
        )
    }

    /// Renders the span as one chrome://tracing complete event (`ph: "X"`).
    fn to_chrome(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\
             \"pid\":1,\"tid\":{},\"args\":{{\"op\":{},\"phase\":{},\"task\":{},\"rows\":{}}}}}",
            json_escape(self.name),
            self.kind.name(),
            self.start_ns / 1000,
            self.start_ns % 1000,
            self.dur_ns / 1000,
            self.dur_ns % 1000,
            self.worker,
            self.op,
            self.phase,
            self.task,
            self.rows,
        )
    }
}

/// Per-worker span buffers. Each worker slot appends under its own mutex,
/// so recording never contends across workers; the merge locks each buffer
/// once at the end of the run.
pub struct TraceCollector {
    buffers: Box<[Mutex<Vec<SpanEvent>>]>,
}

impl TraceCollector {
    /// Creates `n.max(1)` empty per-worker buffers.
    pub fn new(n: usize) -> Self {
        let mut buffers = Vec::with_capacity(n.max(1));
        buffers.resize_with(n.max(1), || Mutex::new(Vec::new()));
        TraceCollector {
            buffers: buffers.into_boxed_slice(),
        }
    }

    /// Appends a span to the calling thread's buffer.
    pub fn record(&self, mut event: SpanEvent) {
        let slot = thread_slot() % self.buffers.len();
        event.worker = slot as u32;
        let mut buf = self.buffers[slot].lock().unwrap_or_else(|p| p.into_inner());
        buf.push(event);
    }

    /// Drains all buffers and merges them deterministically by
    /// `(op, phase, kind, task)` — independent of thread interleaving.
    pub fn drain_sorted(&self) -> Vec<SpanEvent> {
        let mut all = Vec::new();
        for buf in self.buffers.iter() {
            let mut guard = buf.lock().unwrap_or_else(|p| p.into_inner());
            all.append(&mut guard);
        }
        all.sort_by_key(|e| e.key());
        all
    }
}

/// Writes spans to `path`: chrome://tracing JSON when the path ends in
/// `.chrome.json` (file replaced), NDJSON otherwise (appended, so multiple
/// runs of one process accumulate).
pub fn export(path: &str, spans: &[SpanEvent]) -> std::io::Result<()> {
    if path.ends_with(".chrome.json") {
        let mut body = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            body.push_str(&s.to_chrome());
            if i + 1 < spans.len() {
                body.push(',');
            }
            body.push('\n');
        }
        body.push_str("]\n");
        std::fs::write(path, body)
    } else {
        let mut out = String::new();
        for s in spans {
            out.push_str(&s.to_ndjson());
            out.push('\n');
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(out.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: SpanKind, op: u32, phase: u8, task: u32) -> SpanEvent {
        SpanEvent {
            kind,
            name: "t",
            op,
            phase,
            task,
            worker: 0,
            start_ns: 0,
            dur_ns: 1,
            rows: 0,
        }
    }

    #[test]
    fn merge_is_deterministic_and_logical() {
        let c = TraceCollector::new(2);
        // Record out of logical order.
        c.record(ev(SpanKind::Morsel, 1, 0, 2));
        c.record(ev(SpanKind::Morsel, 0, 0, 1));
        c.record(ev(SpanKind::Phase, 1, 0, 0));
        c.record(ev(SpanKind::Morsel, 0, 0, 0));
        c.record(ev(SpanKind::Run, u32::MAX, 0, 0));
        let spans = c.drain_sorted();
        let keys: Vec<_> = spans.iter().map(|e| (e.op, e.kind, e.task)).collect();
        assert_eq!(
            keys,
            vec![
                (0, SpanKind::Morsel, 0),
                (0, SpanKind::Morsel, 1),
                (1, SpanKind::Phase, 0),
                (1, SpanKind::Morsel, 2),
                (u32::MAX, SpanKind::Run, 0),
            ]
        );
        // Draining again yields nothing.
        assert!(c.drain_sorted().is_empty());
    }

    #[test]
    fn ndjson_shape() {
        let line = ev(SpanKind::Morsel, 3, 1, 7).to_ndjson();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"kind\":\"morsel\""));
        assert!(line.contains("\"op\":3"));
        assert!(line.contains("\"phase\":1"));
        assert!(line.contains("\"task\":7"));
    }
}
