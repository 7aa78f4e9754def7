//! Multi-tenant load generation against a query service.
//!
//! Two generator disciplines, both driving an arbitrary transport (any
//! `Fn(&str) -> io::Result<Vec<String>>` — typically `pebble_serve::query`
//! against a live server, which keeps this crate free of a network
//! dependency):
//!
//! * **Closed loop** ([`run_closed_loop`]) — `tenants` threads, each
//!   issuing its next request only after the previous one completed, with
//!   an optional think time in between. Throughput self-limits to the
//!   service's capacity; latency measures service time. This models "N
//!   interactive analysts".
//! * **Open loop** ([`run_open_loop`]) — requests arrive on a fixed
//!   schedule (`rate` per second, arrival `i` at `i/rate`) regardless of
//!   completions, issued by a pool of sender threads. Latency is measured
//!   from the *scheduled arrival*, so queueing delay is included — as the
//!   offered rate passes the saturation knee, p99 explodes while achieved
//!   throughput flattens. This is the discipline that finds the knee;
//!   closed-loop generators famously hide it (coordinated omission).
//!
//! Both record client-side latencies into the engine's lock-free
//! [`LogHistogram`] (the shared `_ns` bucket layout) and tally per
//! request-kind completions/errors so results reconcile exactly against a
//! server's `STATS` snapshot.
//!
//! Request mixes are plain request-line vectors; each tenant walks the
//! mix from its own deterministic offset, so the multiset of issued
//! requests is independent of timing and thread interleaving.
//!
//! Env knobs (read by [`ClosedLoopConfig::from_env`] /
//! [`rates_from_env`], used by the `loadbench`/`load_smoke` bins):
//! `PEBBLE_LOAD_TENANTS`, `PEBBLE_LOAD_REQUESTS` (per tenant),
//! `PEBBLE_LOAD_THINK_MS`, `PEBBLE_LOAD_RATES` (comma-separated offered
//! rates per second).

use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

use pebble_obs::{DurationSummary, HistogramSnapshot, LogHistogram, RequestKind, REQUEST_KINDS};

/// Closed-loop generator parameters.
#[derive(Clone, Debug)]
pub struct ClosedLoopConfig {
    /// Concurrent tenant threads.
    pub tenants: usize,
    /// Requests each tenant issues.
    pub requests_per_tenant: usize,
    /// Pause between a tenant's completion and its next request.
    pub think: Duration,
}

impl Default for ClosedLoopConfig {
    fn default() -> Self {
        ClosedLoopConfig {
            tenants: 8,
            requests_per_tenant: 32,
            think: Duration::from_millis(1),
        }
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Ok(raw) if !raw.trim().is_empty() => match raw.trim().parse::<usize>() {
            Ok(v) if v > 0 => v,
            _ => {
                pebble_obs::diag::warn_once(
                    name,
                    &format!("ignoring invalid {name}={raw:?}: expected a positive integer"),
                );
                default
            }
        },
        _ => default,
    }
}

impl ClosedLoopConfig {
    /// Reads `PEBBLE_LOAD_TENANTS` / `PEBBLE_LOAD_REQUESTS` /
    /// `PEBBLE_LOAD_THINK_MS`, falling back to the defaults.
    pub fn from_env() -> Self {
        let d = ClosedLoopConfig::default();
        ClosedLoopConfig {
            tenants: env_usize("PEBBLE_LOAD_TENANTS", d.tenants),
            requests_per_tenant: env_usize("PEBBLE_LOAD_REQUESTS", d.requests_per_tenant),
            think: Duration::from_millis(env_usize(
                "PEBBLE_LOAD_THINK_MS",
                d.think.as_millis() as usize,
            ) as u64),
        }
    }
}

/// Open-loop generator parameters.
#[derive(Clone, Debug)]
pub struct OpenLoopConfig {
    /// Offered arrival rate, requests per second.
    pub rate_per_sec: f64,
    /// Total requests to schedule.
    pub total_requests: usize,
    /// Sender threads draining the arrival schedule. Must exceed the
    /// service's concurrency for the measured queueing delay to be the
    /// service's, not the generator's.
    pub senders: usize,
}

/// Parses `PEBBLE_LOAD_RATES` (comma-separated requests/sec) or returns
/// `default` — the offered-load sweep for `loadbench`.
pub fn rates_from_env(default: &[f64]) -> Vec<f64> {
    match std::env::var("PEBBLE_LOAD_RATES") {
        Ok(raw) if !raw.trim().is_empty() => {
            let rates: Vec<f64> = raw
                .split(',')
                .filter_map(|s| s.trim().parse::<f64>().ok())
                .filter(|r| *r > 0.0)
                .collect();
            if rates.is_empty() {
                pebble_obs::diag::warn_once(
                    "PEBBLE_LOAD_RATES",
                    &format!("ignoring invalid PEBBLE_LOAD_RATES={raw:?}"),
                );
                default.to_vec()
            } else {
                rates
            }
        }
        _ => default.to_vec(),
    }
}

/// Client-side results of one load-generation run.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Offered arrival rate (open loop only).
    pub offered_rate: Option<f64>,
    /// Generator threads (tenants or senders).
    pub tenants: usize,
    /// Requests completed (a terminal frame was received).
    pub completed: u64,
    /// Requests whose terminal frame was an `ERROR`.
    pub errors: u64,
    /// Transport failures (connect/read errors — not service `ERROR`s).
    pub transport_errors: u64,
    /// Total content frames received.
    pub frames: u64,
    /// Wall clock from first scheduled arrival to last completion.
    pub elapsed: Duration,
    /// Client-observed latency distribution, ns. Closed loop: service
    /// time. Open loop: scheduled-arrival to completion (queueing
    /// included).
    pub latency: HistogramSnapshot,
    /// Completions per request kind, in [`RequestKind::ALL`] order.
    pub kind_completed: [u64; REQUEST_KINDS],
    /// `ERROR`-terminated requests per request kind.
    pub kind_errors: [u64; REQUEST_KINDS],
}

impl LoadReport {
    /// Achieved throughput, completed requests per second.
    pub fn achieved_rate(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// Latency summary (shared `_ns` quantile rule).
    pub fn summary(&self) -> DurationSummary {
        DurationSummary::from_snapshot(&self.latency)
    }

    /// Completions for one request kind.
    pub fn completed_for(&self, kind: RequestKind) -> u64 {
        self.kind_completed[kind.idx()]
    }
}

/// Offset each tenant's walk through the mix by a co-prime-ish stride so
/// tenants don't issue identical request sequences in lockstep, while the
/// issued multiset stays deterministic.
fn mix_index(tenant: usize, step: usize, len: usize) -> usize {
    (tenant * 7 + step) % len
}

struct Tally {
    completed: AtomicU64,
    errors: AtomicU64,
    transport_errors: AtomicU64,
    frames: AtomicU64,
    latency: LogHistogram,
    kind_completed: [AtomicU64; REQUEST_KINDS],
    kind_errors: [AtomicU64; REQUEST_KINDS],
}

impl Tally {
    fn new() -> Self {
        Tally {
            completed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            transport_errors: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            latency: LogHistogram::new(),
            kind_completed: Default::default(),
            kind_errors: Default::default(),
        }
    }

    fn observe(&self, request: &str, result: &io::Result<Vec<String>>, latency_ns: u64) {
        match result {
            Ok(frames) => {
                let kind = RequestKind::from_request(request);
                self.completed.fetch_add(1, Relaxed);
                self.frames.fetch_add(frames.len() as u64, Relaxed);
                self.latency.record(latency_ns);
                self.kind_completed[kind.idx()].fetch_add(1, Relaxed);
                if frames.last().is_some_and(|f| f.starts_with("ERROR ")) {
                    self.errors.fetch_add(1, Relaxed);
                    self.kind_errors[kind.idx()].fetch_add(1, Relaxed);
                }
            }
            Err(_) => {
                self.transport_errors.fetch_add(1, Relaxed);
            }
        }
    }

    fn into_report(
        self,
        offered_rate: Option<f64>,
        tenants: usize,
        elapsed: Duration,
    ) -> LoadReport {
        LoadReport {
            offered_rate,
            tenants,
            completed: self.completed.into_inner(),
            errors: self.errors.into_inner(),
            transport_errors: self.transport_errors.into_inner(),
            frames: self.frames.into_inner(),
            elapsed,
            latency: self.latency.snapshot(),
            kind_completed: self.kind_completed.map(AtomicU64::into_inner),
            kind_errors: self.kind_errors.map(AtomicU64::into_inner),
        }
    }
}

/// Runs a closed-loop (think-time) workload: each of `cfg.tenants`
/// threads walks `mix` from its own offset, waiting for each response
/// before thinking and issuing the next request.
pub fn run_closed_loop<T>(transport: T, mix: &[String], cfg: &ClosedLoopConfig) -> LoadReport
where
    T: Fn(&str) -> io::Result<Vec<String>> + Sync,
{
    assert!(!mix.is_empty(), "load mix must not be empty");
    let tally = Tally::new();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for tenant in 0..cfg.tenants {
            let (transport, tally) = (&transport, &tally);
            scope.spawn(move || {
                for step in 0..cfg.requests_per_tenant {
                    let request = &mix[mix_index(tenant, step, mix.len())];
                    let t0 = Instant::now();
                    let result = transport(request);
                    tally.observe(request, &result, t0.elapsed().as_nanos() as u64);
                    if !cfg.think.is_zero() && step + 1 < cfg.requests_per_tenant {
                        std::thread::sleep(cfg.think);
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();
    tally.into_report(None, cfg.tenants, elapsed)
}

/// Runs an open-loop (fixed arrival rate) workload: request `i` of `mix`
/// (round-robin) is scheduled at `i / rate_per_sec`; sender threads claim
/// arrivals in order, wait for the scheduled instant, and issue the
/// request. Latency is measured from the *scheduled* arrival, so time
/// spent queueing behind a saturated service is part of the number.
pub fn run_open_loop<T>(transport: T, mix: &[String], cfg: &OpenLoopConfig) -> LoadReport
where
    T: Fn(&str) -> io::Result<Vec<String>> + Sync,
{
    assert!(!mix.is_empty(), "load mix must not be empty");
    assert!(cfg.rate_per_sec > 0.0, "offered rate must be positive");
    let tally = Tally::new();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..cfg.senders.max(1) {
            let (transport, tally, next) = (&transport, &tally, &next);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Relaxed);
                if i >= cfg.total_requests {
                    break;
                }
                let due = Duration::from_secs_f64(i as f64 / cfg.rate_per_sec);
                let scheduled = start + due;
                let now = Instant::now();
                if scheduled > now {
                    std::thread::sleep(scheduled - now);
                }
                let request = &mix[i % mix.len()];
                let result = transport(request);
                let latency = scheduled.elapsed().as_nanos() as u64;
                tally.observe(request, &result, latency);
            });
        }
    });
    let elapsed = start.elapsed();
    tally.into_report(Some(cfg.rate_per_sec), cfg.senders, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-process "service": echoes a DONE frame after a tiny spin.
    fn echo(request: &str) -> io::Result<Vec<String>> {
        if request.starts_with("FAIL") {
            return Ok(vec!["ERROR synthetic".to_string()]);
        }
        Ok(vec!["PROGRESS 0/1".to_string(), "DONE 1".to_string()])
    }

    #[test]
    fn closed_loop_counts_reconcile() {
        let mix = vec![
            "BACKTRACE 0".to_string(),
            "HEATMAP 5".to_string(),
            "FAIL".to_string(),
        ];
        let cfg = ClosedLoopConfig {
            tenants: 3,
            requests_per_tenant: 6,
            think: Duration::ZERO,
        };
        let r = run_closed_loop(echo, &mix, &cfg);
        assert_eq!(r.completed, 18);
        assert_eq!(r.transport_errors, 0);
        assert_eq!(r.errors, 6); // each tenant hits FAIL twice in 6 steps
        assert_eq!(r.latency.count, 18);
        assert_eq!(
            r.kind_completed.iter().sum::<u64>(),
            r.completed,
            "per-kind completions must cover every request"
        );
        assert_eq!(r.completed_for(RequestKind::Backtrace), 6);
        assert_eq!(r.completed_for(RequestKind::Heatmap), 6);
        assert_eq!(r.completed_for(RequestKind::Other), 6);
        assert_eq!(r.kind_errors[RequestKind::Other.idx()], 6);
        assert!(r.frames >= 18);
    }

    #[test]
    fn open_loop_issues_all_arrivals_and_includes_queue_wait() {
        let mix = vec!["AUDIT".to_string()];
        let cfg = OpenLoopConfig {
            rate_per_sec: 2000.0,
            total_requests: 40,
            senders: 4,
        };
        let slow = |req: &str| {
            std::thread::sleep(Duration::from_micros(200));
            echo(req)
        };
        let r = run_open_loop(slow, &mix, &cfg);
        assert_eq!(r.completed, 40);
        assert_eq!(r.offered_rate, Some(2000.0));
        assert_eq!(r.latency.count, 40);
        // Service time alone is ~200us; scheduled-arrival latency can only
        // be larger.
        assert!(r.summary().p50_ns >= 150_000, "p50 {}", r.summary().p50_ns);
        assert!(r.achieved_rate() > 0.0);
    }

    #[test]
    fn load_env_parsing_defaults() {
        // (Env vars are not set in the test harness.)
        let cfg = ClosedLoopConfig::from_env();
        assert!(cfg.tenants > 0 && cfg.requests_per_tenant > 0);
        let rates = rates_from_env(&[50.0, 100.0]);
        assert_eq!(rates, vec![50.0, 100.0]);
    }
}
