//! Service-level metrics: per-request-type and per-connection aggregation
//! for a long-running query service.
//!
//! [`ServiceMetrics`] is the registry one server instance owns. Worker and
//! connection threads record into it with relaxed atomics only — no locks,
//! and in particular never the worker-pool job lock, so a scrape can never
//! stall query execution. Request latencies land in one
//! [`LogHistogram`] per [`RequestKind`], sharing the bucket layout of every
//! other `_ns` histogram in the system.
//!
//! Time windows are snapshot deltas: [`ServiceMetrics::snapshot`] is a
//! consistent-enough point-in-time copy, and
//! [`ServiceSnapshot::delta_since`] subtracts an earlier one, which is what
//! [`ServiceWindow`] uses to turn cumulative counters into windowed rates.
//! The `STATS` wire command renders a snapshot as versioned JSON via
//! [`ServiceSnapshot::to_stats_json`].

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use crate::metrics::{HistogramSnapshot, LogHistogram};
use crate::report::DurationSummary;

/// Version of the JSON document returned by the `STATS` wire command
/// ([`ServiceSnapshot::to_stats_json`]). Bump on any key rename/removal;
/// additions are allowed within a version.
pub const STATS_SCHEMA_VERSION: u64 = 1;

/// The request types a provenance query service distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RequestKind {
    /// `BACKTRACE <row> [paths]` — whole-item or path-restricted backtrace.
    Backtrace,
    /// `PATTERN <tree pattern>` — backtrace of pattern-matching rows.
    Pattern,
    /// `HEATMAP <n>` — source usage heatmap.
    Heatmap,
    /// `AUDIT` — leaked/influencing attribute audit.
    Audit,
    /// `WHYNOT path=value[,…]` — missing-answer explanation.
    WhyNot,
    /// `STATS` — this very metrics snapshot.
    Stats,
    /// Anything else (unknown verbs, debug requests).
    Other,
}

/// Number of [`RequestKind`] variants (size of per-kind tables).
pub const REQUEST_KINDS: usize = 7;

impl RequestKind {
    /// All variants, in wire-stable order.
    pub const ALL: [RequestKind; REQUEST_KINDS] = [
        RequestKind::Backtrace,
        RequestKind::Pattern,
        RequestKind::Heatmap,
        RequestKind::Audit,
        RequestKind::WhyNot,
        RequestKind::Stats,
        RequestKind::Other,
    ];

    /// Classifies a request line by its leading verb.
    pub fn from_request(request: &str) -> RequestKind {
        let verb = request.split_whitespace().next().unwrap_or_default().trim();
        match verb {
            "BACKTRACE" => RequestKind::Backtrace,
            "PATTERN" => RequestKind::Pattern,
            "HEATMAP" => RequestKind::Heatmap,
            "AUDIT" => RequestKind::Audit,
            "WHYNOT" => RequestKind::WhyNot,
            "STATS" => RequestKind::Stats,
            _ => RequestKind::Other,
        }
    }

    /// Stable lowercase name used in JSON exports and span labels.
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Backtrace => "backtrace",
            RequestKind::Pattern => "pattern",
            RequestKind::Heatmap => "heatmap",
            RequestKind::Audit => "audit",
            RequestKind::WhyNot => "whynot",
            RequestKind::Stats => "stats",
            RequestKind::Other => "other",
        }
    }

    /// Index into per-kind tables.
    pub fn idx(self) -> usize {
        match self {
            RequestKind::Backtrace => 0,
            RequestKind::Pattern => 1,
            RequestKind::Heatmap => 2,
            RequestKind::Audit => 3,
            RequestKind::WhyNot => 4,
            RequestKind::Stats => 5,
            RequestKind::Other => 6,
        }
    }
}

/// Lock-free counters and latency histogram for one request type.
#[derive(Default)]
pub struct RequestStats {
    /// Requests parsed and dispatched.
    pub started: AtomicU64,
    /// Requests whose full frame sequence was computed.
    pub completed: AtomicU64,
    /// Requests that ended in a terminal `ERROR` frame.
    pub errors: AtomicU64,
    /// Content frames produced (the frames a client observes, excluding
    /// the bookkeeping `QID` frame).
    pub frames: AtomicU64,
    /// End-to-end request latency, ns (recorded only on metrics-enabled
    /// processes — counters above are always on).
    pub latency_ns: LogHistogram,
}

/// The service-wide metrics registry one server owns.
pub struct ServiceMetrics {
    start: Instant,
    /// Connections accepted.
    pub connections_opened: AtomicU64,
    /// Connections that have ended.
    pub connections_closed: AtomicU64,
    /// Requests currently in flight (started, not yet completed).
    pub in_flight: AtomicU64,
    /// Query jobs whose panic the worker pool contained.
    pub panics_contained: AtomicU64,
    /// Requests-per-connection distribution, recorded at connection close.
    pub requests_per_conn: LogHistogram,
    kinds: [RequestStats; REQUEST_KINDS],
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceMetrics {
    /// Creates an empty registry; the service uptime clock starts now.
    pub fn new() -> Self {
        ServiceMetrics {
            start: Instant::now(),
            connections_opened: AtomicU64::new(0),
            connections_closed: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            panics_contained: AtomicU64::new(0),
            requests_per_conn: LogHistogram::new(),
            kinds: Default::default(),
        }
    }

    /// Nanoseconds since the registry (the service) was created.
    pub fn uptime_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Per-kind stats table entry.
    pub fn kind(&self, kind: RequestKind) -> &RequestStats {
        &self.kinds[kind.idx()]
    }

    /// Records an accepted connection.
    pub fn connection_opened(&self) {
        self.connections_opened.fetch_add(1, Relaxed);
    }

    /// Records a finished connection that served `requests` requests.
    pub fn connection_closed(&self, requests: u64) {
        self.connections_closed.fetch_add(1, Relaxed);
        self.requests_per_conn.record(requests);
    }

    /// Marks one request of `kind` as started (and in flight).
    pub fn begin(&self, kind: RequestKind) {
        self.kind(kind).started.fetch_add(1, Relaxed);
        self.in_flight.fetch_add(1, Relaxed);
    }

    /// Marks one request of `kind` as finished. `latency_ns` is recorded
    /// only when given (callers skip the clock reads entirely on
    /// metrics-off processes).
    pub fn finish(&self, kind: RequestKind, error: bool, frames: u64, latency_ns: Option<u64>) {
        let k = self.kind(kind);
        k.completed.fetch_add(1, Relaxed);
        if error {
            k.errors.fetch_add(1, Relaxed);
        }
        k.frames.fetch_add(frames, Relaxed);
        if let Some(ns) = latency_ns {
            k.latency_ns.record(ns);
        }
        self.in_flight.fetch_sub(1, Relaxed);
    }

    /// Point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> ServiceSnapshot {
        ServiceSnapshot {
            uptime_ns: self.uptime_ns(),
            connections_opened: self.connections_opened.load(Relaxed),
            connections_closed: self.connections_closed.load(Relaxed),
            in_flight: self.in_flight.load(Relaxed),
            panics_contained: self.panics_contained.load(Relaxed),
            requests_per_conn: self.requests_per_conn.snapshot(),
            kinds: RequestKind::ALL.map(|kind| {
                let k = self.kind(kind);
                KindSnapshot {
                    kind,
                    started: k.started.load(Relaxed),
                    completed: k.completed.load(Relaxed),
                    errors: k.errors.load(Relaxed),
                    frames: k.frames.load(Relaxed),
                    latency_ns: k.latency_ns.snapshot(),
                }
            }),
        }
    }
}

/// Snapshot of one request type's stats.
#[derive(Clone, Debug)]
pub struct KindSnapshot {
    /// The request type.
    pub kind: RequestKind,
    /// Requests started.
    pub started: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests ending in `ERROR`.
    pub errors: u64,
    /// Content frames produced.
    pub frames: u64,
    /// Latency distribution (empty on metrics-off processes).
    pub latency_ns: HistogramSnapshot,
}

/// Owned point-in-time view over a [`ServiceMetrics`].
#[derive(Clone, Debug)]
pub struct ServiceSnapshot {
    /// Nanoseconds the service had been up when the snapshot was taken.
    pub uptime_ns: u64,
    /// Connections accepted so far.
    pub connections_opened: u64,
    /// Connections ended so far.
    pub connections_closed: u64,
    /// Requests in flight at snapshot time.
    pub in_flight: u64,
    /// Panics contained so far.
    pub panics_contained: u64,
    /// Requests-per-connection distribution.
    pub requests_per_conn: HistogramSnapshot,
    /// Per-request-type stats, in [`RequestKind::ALL`] order.
    pub kinds: [KindSnapshot; REQUEST_KINDS],
}

impl ServiceSnapshot {
    /// Sum of `started` over all request types.
    pub fn total_started(&self) -> u64 {
        self.kinds.iter().map(|k| k.started).sum()
    }

    /// Sum of `completed` over all request types.
    pub fn total_completed(&self) -> u64 {
        self.kinds.iter().map(|k| k.completed).sum()
    }

    /// Sum of `errors` over all request types.
    pub fn total_errors(&self) -> u64 {
        self.kinds.iter().map(|k| k.errors).sum()
    }

    /// Sum of content `frames` over all request types.
    pub fn total_frames(&self) -> u64 {
        self.kinds.iter().map(|k| k.frames).sum()
    }

    /// Merged latency histogram over all request types.
    pub fn total_latency(&self) -> HistogramSnapshot {
        let mut all = HistogramSnapshot::default();
        for k in &self.kinds {
            all.merge(&k.latency_ns);
        }
        all
    }

    /// The window between `earlier` and this snapshot: counters subtract,
    /// gauges (`in_flight`) keep their current value. `uptime_ns` becomes
    /// the window length, so completed-per-second falls out directly.
    pub fn delta_since(&self, earlier: &ServiceSnapshot) -> ServiceSnapshot {
        ServiceSnapshot {
            uptime_ns: self.uptime_ns.saturating_sub(earlier.uptime_ns),
            connections_opened: self
                .connections_opened
                .saturating_sub(earlier.connections_opened),
            connections_closed: self
                .connections_closed
                .saturating_sub(earlier.connections_closed),
            in_flight: self.in_flight,
            panics_contained: self
                .panics_contained
                .saturating_sub(earlier.panics_contained),
            requests_per_conn: self
                .requests_per_conn
                .delta_since(&earlier.requests_per_conn),
            kinds: [0, 1, 2, 3, 4, 5, 6].map(|i| {
                let (now, old) = (&self.kinds[i], &earlier.kinds[i]);
                KindSnapshot {
                    kind: now.kind,
                    started: now.started.saturating_sub(old.started),
                    completed: now.completed.saturating_sub(old.completed),
                    errors: now.errors.saturating_sub(old.errors),
                    frames: now.frames.saturating_sub(old.frames),
                    latency_ns: now.latency_ns.delta_since(&old.latency_ns),
                }
            }),
        }
    }

    /// Renders the snapshot as the one-line versioned JSON document the
    /// `STATS` wire command returns. `pool` carries the serving pool's
    /// gauges (sampled lock-free by the caller).
    pub fn to_stats_json(&self, pool: &PoolGauges) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str(&format!(
            "{{\"stats_version\": {STATS_SCHEMA_VERSION}, \"uptime_ns\": {}, ",
            self.uptime_ns
        ));
        s.push_str(&format!(
            "\"connections\": {{\"opened\": {}, \"closed\": {}, \"active\": {}}}, ",
            self.connections_opened,
            self.connections_closed,
            self.connections_opened
                .saturating_sub(self.connections_closed),
        ));
        s.push_str(&format!("\"in_flight\": {}, ", self.in_flight));
        s.push_str(&format!(
            "\"pool\": {{\"workers\": {}, \"queue_depth\": {}, \"active\": {}}}, ",
            pool.workers, pool.queue_depth, pool.active,
        ));
        s.push_str(&format!(
            "\"panics_contained\": {}, ",
            self.panics_contained
        ));
        s.push_str("\"requests\": {");
        for (i, k) in self.kinds.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "\"{}\": {{\"started\": {}, \"completed\": {}, \"errors\": {}, \
                 \"frames\": {}, \"latency_ns\": {}}}",
                k.kind.name(),
                k.started,
                k.completed,
                k.errors,
                k.frames,
                latency_json(&k.latency_ns),
            ));
        }
        s.push_str("}, ");
        s.push_str(&format!(
            "\"requests_per_conn\": {}}}",
            latency_json(&self.requests_per_conn)
        ));
        s
    }
}

/// Lock-free gauges of the serving worker pool, passed into
/// [`ServiceSnapshot::to_stats_json`] by the server (the registry itself
/// never touches the pool).
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolGauges {
    /// Pool size (worker threads).
    pub workers: u64,
    /// Jobs queued and not yet picked up.
    pub queue_depth: u64,
    /// Workers currently executing a job.
    pub active: u64,
}

/// Renders a histogram snapshot as the summary JSON object used throughout
/// the `STATS` document (`_ns`-suffixed fields, one bucket layout).
fn latency_json(h: &HistogramSnapshot) -> String {
    let d = DurationSummary::from_snapshot(h);
    format!(
        "{{\"count\": {}, \"sum_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \
         \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}}}",
        d.count, d.sum_ns, d.p50_ns, d.p90_ns, d.p99_ns, d.p999_ns, h.max,
    )
}

/// Turns cumulative [`ServiceMetrics`] counters into time-windowed views:
/// each [`ServiceWindow::tick`] returns the delta since the previous tick.
pub struct ServiceWindow {
    last: ServiceSnapshot,
}

impl ServiceWindow {
    /// Opens a window starting at the registry's current state.
    pub fn new(metrics: &ServiceMetrics) -> Self {
        ServiceWindow {
            last: metrics.snapshot(),
        }
    }

    /// Closes the current window and opens the next, returning the closed
    /// window's delta snapshot.
    pub fn tick(&mut self, metrics: &ServiceMetrics) -> ServiceSnapshot {
        let now = metrics.snapshot();
        let delta = now.delta_since(&self.last);
        self.last = now;
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_kind_parsing() {
        assert_eq!(
            RequestKind::from_request("BACKTRACE 3 a,b"),
            RequestKind::Backtrace
        );
        assert_eq!(RequestKind::from_request("STATS"), RequestKind::Stats);
        assert_eq!(RequestKind::from_request("WHYNOT a=1"), RequestKind::WhyNot);
        assert_eq!(RequestKind::from_request("PANIC"), RequestKind::Other);
        assert_eq!(RequestKind::from_request(""), RequestKind::Other);
        for kind in RequestKind::ALL {
            assert_eq!(RequestKind::ALL[kind.idx()], kind);
        }
    }

    #[test]
    fn begin_finish_and_snapshot() {
        let m = ServiceMetrics::new();
        m.connection_opened();
        m.begin(RequestKind::Backtrace);
        m.begin(RequestKind::Heatmap);
        assert_eq!(m.in_flight.load(Relaxed), 2);
        m.finish(RequestKind::Backtrace, false, 5, Some(1_000));
        m.finish(RequestKind::Heatmap, true, 1, Some(9_000));
        m.connection_closed(2);
        let s = m.snapshot();
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.total_started(), 2);
        assert_eq!(s.total_completed(), 2);
        assert_eq!(s.total_errors(), 1);
        assert_eq!(s.total_frames(), 6);
        assert_eq!(s.kinds[RequestKind::Backtrace.idx()].frames, 5);
        assert_eq!(s.kinds[RequestKind::Heatmap.idx()].errors, 1);
        assert_eq!(s.total_latency().count, 2);
        assert_eq!(s.requests_per_conn.count, 1);
        assert_eq!(s.connections_opened, 1);
        assert_eq!(s.connections_closed, 1);
    }

    #[test]
    fn windows_are_deltas() {
        let m = ServiceMetrics::new();
        let mut w = ServiceWindow::new(&m);
        m.begin(RequestKind::Audit);
        m.finish(RequestKind::Audit, false, 3, Some(500));
        let d1 = w.tick(&m);
        assert_eq!(d1.total_completed(), 1);
        assert_eq!(d1.total_frames(), 3);
        let d2 = w.tick(&m);
        assert_eq!(d2.total_completed(), 0);
        assert_eq!(d2.kinds[RequestKind::Audit.idx()].latency_ns.count, 0);
    }

    #[test]
    fn stats_json_shape() {
        let m = ServiceMetrics::new();
        m.begin(RequestKind::Pattern);
        m.finish(RequestKind::Pattern, false, 2, Some(4_321));
        let json = m.snapshot().to_stats_json(&PoolGauges {
            workers: 4,
            queue_depth: 0,
            active: 1,
        });
        assert!(json.starts_with(&format!("{{\"stats_version\": {STATS_SCHEMA_VERSION}")));
        assert!(!json.contains('\n'), "STATS JSON must be one line");
        for key in [
            "\"uptime_ns\"",
            "\"connections\"",
            "\"in_flight\"",
            "\"pool\"",
            "\"panics_contained\"",
            "\"requests\"",
            "\"backtrace\"",
            "\"pattern\"",
            "\"whynot\"",
            "\"stats\"",
            "\"p999_ns\"",
            "\"requests_per_conn\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"workers\": 4"));
    }
}
