//! The benchmark's own span recorder: one span around every call into a
//! layer, kept in memory and written out when the pass ends.
//!
//! Timing and recording share one code path — [`Recorder::enter`] /
//! [`Recorder::exit`] always read the clock and return the elapsed time;
//! with the recorder off (the end-to-end pass) nothing else happens, so
//! both passes execute the same journey.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::{self_times, Interval};

/// A finished span.
pub struct Span {
    /// `<crate>.<what>`; `bench.*` spans are the benchmark's own frames.
    pub name: &'static str,
    /// Journey round the span belongs to.
    pub round: u32,
    /// Start and end (ns since recorder origin) and the causing span.
    pub interval: Interval,
}

/// Token for a span that is still running.
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

/// In-memory span recorder with a parent stack (single-threaded: client
/// threads report latencies through their own tallies instead).
pub struct Recorder {
    on: bool,
    origin: Instant,
    round: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, on: bool) -> Self {
        Recorder {
            on,
            origin,
            round: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// The journey round the next spans belong to.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// What recording one span costs beyond timing it, in seconds: the same
    /// enter/exit pairs through a recorder that is on and one that is off.
    pub fn span_cost_s() -> f64 {
        const PAIRS: u32 = 200_000;
        let pairs = |on: bool| {
            let mut rec = Recorder::new(Instant::now(), on);
            let t = Instant::now();
            for _ in 0..PAIRS {
                let open = rec.enter("bench.span_cost");
                std::hint::black_box(rec.exit(open));
            }
            t.elapsed().as_secs_f64()
        };
        (pairs(true) - pairs(false)).max(0.0) / f64::from(PAIRS)
    }

    /// Starts a span (recorded only when the recorder is on).
    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let idx = self.on.then(|| {
            let start_ns = start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                round: self.round,
                interval: Interval {
                    start_ns,
                    end_ns: start_ns,
                    parent: self.stack.last().copied(),
                },
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { idx, start }
    }

    /// Ends a span and returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(idx) = open.idx {
            assert_eq!(self.stack.pop(), Some(idx), "spans must nest");
            self.spans[idx].interval.end_ns = end.duration_since(self.origin).as_nanos() as u64;
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Times `f` as one leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.enter(name);
        let out = f();
        (out, self.exit(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in seconds, plus the wall covered by
    /// root spans.
    pub fn self_time_by_name(&self) -> (Vec<(&'static str, f64)>, f64) {
        let intervals: Vec<Interval> = self.spans.iter().map(|s| s.interval).collect();
        let selfs = self_times(&intervals);
        let mut by_name: Vec<(&'static str, f64)> = Vec::new();
        let mut wall = 0.0;
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            if span.interval.parent.is_none() {
                wall += (span.interval.end_ns - span.interval.start_ns) as f64 / 1e9;
            }
            match by_name.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, t)) => *t += self_ns as f64 / 1e9,
                None => by_name.push((span.name, self_ns as f64 / 1e9)),
            }
        }
        (by_name, wall)
    }

    /// NDJSON export: one span per line.
    pub fn to_ndjson(&self, workload: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = match s.interval.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"workload\": \"{workload}\", \"round\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.round, s.interval.start_ns, s.interval.end_ns
            );
        }
        out
    }

    /// chrome://tracing export (complete events, microseconds).
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"cat\": \"{workload}\", \"ph\": \"X\", \"pid\": 1, \
                     \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"round\": {}}}}}",
                    s.name,
                    s.interval.start_ns as f64 / 1e3,
                    (s.interval.end_ns - s.interval.start_ns) as f64 / 1e3,
                    s.round
                )
            })
            .collect();
        format!("[\n{}\n]\n", events.join(",\n"))
    }
}
