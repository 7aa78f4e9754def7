//! Step G of the journey: the store of steps D and E behind the TCP
//! service. The three request kinds that backtrace every row of the store
//! are served one at a time; `BACKTRACE i` requests are driven by two client
//! lanes — closed loop first, then on a fixed open-loop schedule.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pebble_serve::{query, ProvStore, ServeConfig, Server};

use crate::host::Host;
use crate::spans::Recorder;
use crate::stats::{median, open_schedule, percentile};
use crate::util::{Fnv, Rng, Stream, Tally};

/// Client lanes (and connections in flight): the box has two cores.
const CLIENTS: usize = 2;
/// Measured closed-loop batches and open-loop windows per run, at most: a
/// run opens one TCP connection per request and stays below 20 000 of them.
const MAX_BATCHES: usize = 10;
const MAX_WINDOWS: usize = 6;
/// Latency charged to a request that failed or was refused: beyond any
/// limit, yet finite so that it survives JSON.
const FAILED_LATENCY_US: f64 = 60e6;
/// Share of an open-loop window's slots that may leave more than one slot
/// spacing late before the generator, not the service, is what it measured.
const MAX_LATE_SHARE: f64 = 0.05;

/// Request kinds, by index into per-kind tables.
pub const KINDS: [&str; 4] = ["backtrace", "pattern", "heatmap", "audit"];

/// `n` single-row requests on seeded rows.
fn backtrace_requests(seed: u64, n: usize, rows: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, Stream::RequestMix);
    (0..n)
        .map(|_| format!("BACKTRACE {}", rng.below(rows)))
        .collect()
}

/// The requests that backtrace every row of the store (`KINDS[1..]`).
fn scan_requests(pattern: &str) -> [String; 3] {
    [
        format!("PATTERN {pattern}"),
        "HEATMAP 10".to_string(),
        "AUDIT".to_string(),
    ]
}

/// Shape of a correct response: digest over its frames, frame and byte count.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Shape {
    digest: u64,
    frames: u32,
    bytes: u32,
}

fn shape_of(frames: &[String]) -> Shape {
    let mut h = Fnv::new();
    let mut bytes = 0usize;
    for f in frames {
        h.update(f.as_bytes());
        h.update(b"\n");
        bytes += f.len() + 1;
    }
    Shape {
        digest: h.finish(),
        frames: frames.len() as u32,
        bytes: bytes as u32,
    }
}

/// One request as the client saw it.
#[derive(Clone, Copy)]
pub struct Sample {
    /// Connect → terminal frame (closed loop) or scheduled send → terminal
    /// frame (open loop), microseconds.
    pub latency_us: f64,
    /// How late the generator sent it (open loop only), microseconds.
    pub late_us: f64,
    pub frames: u32,
    pub bytes: u32,
    pub ok: bool,
}

/// Sends one request and compares the answer with the serial baseline.
fn issue(
    addr: SocketAddr,
    request: &str,
    expected: &HashMap<String, Shape>,
    from: Instant,
) -> Sample {
    let result = query(addr, request);
    let latency_us = from.elapsed().as_secs_f64() * 1e6;
    let shape = result.as_deref().map(shape_of).ok();
    let ok = shape.is_some() && shape == expected.get(request).copied();
    Sample {
        latency_us: if ok { latency_us } else { FAILED_LATENCY_US },
        late_us: 0.0,
        frames: shape.map_or(0, |s| s.frames),
        bytes: shape.map_or(0, |s| s.bytes),
        ok,
    }
}

/// Runs `lane` on every client lane and returns what they collected,
/// ordered by the index each entry carries.
fn on_lanes<T: Send>(lane: impl Fn() -> Vec<(usize, T)> + Sync) -> Vec<T> {
    let mut all: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS).map(|_| scope.spawn(&lane)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client lane panicked"))
            .collect()
    });
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, t)| t).collect()
}

/// One closed-loop batch: each lane takes the next request of the list as
/// soon as its previous answer is complete. Returns the samples in list
/// order and the wall time.
fn closed_batch(
    addr: SocketAddr,
    requests: &[String],
    expected: &HashMap<String, Shape>,
) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let samples = on_lanes(|| {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(request) = requests.get(i) else {
                return mine;
            };
            mine.push((i, issue(addr, request, expected, Instant::now())));
        }
    });
    (samples, start.elapsed().as_secs_f64())
}

/// One open-loop window: slot `k` is due at `k / rate` whatever happened to
/// the slots before it, and goes to the lane that is free first; when both
/// lanes still wait for answers the slot leaves late and the delay counts as
/// latency. Returns the samples in slot order and the wall time.
fn open_window(
    addr: SocketAddr,
    requests: &[String],
    expected: &HashMap<String, Shape>,
    rate: f64,
) -> (Vec<Sample>, f64) {
    let schedule = open_schedule(rate, requests.len());
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let samples = on_lanes(|| {
        let mut mine = Vec::new();
        loop {
            let slot = next.fetch_add(1, Ordering::Relaxed);
            let Some(&due_ns) = schedule.get(slot) else {
                return mine;
            };
            let due = start + Duration::from_nanos(due_ns);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let late_us = due.elapsed().as_secs_f64() * 1e6;
            let mut s = issue(addr, &requests[slot], expected, due);
            s.late_us = late_us;
            mine.push((slot, s));
        }
    });
    (samples, start.elapsed().as_secs_f64())
}

/// Counts a batch's or window's answers; returns how many were correct.
fn count(samples: &[Sample], what: &str, tally: &mut Tally) -> usize {
    let failed = samples.iter().filter(|s| !s.ok).count();
    tally.attempted += samples.len() as u64;
    tally.failed += failed as u64;
    if failed > 0 {
        tally.failures.push(format!(
            "{failed} {what} answers failed or differ from the baseline"
        ));
    }
    samples.len() - failed
}

/// Time budgets and sizes of step G.
pub struct Load<'a> {
    pub seed: u64,
    pub pattern: &'a str,
    /// Requests per closed-loop batch and per open-loop window.
    pub block: usize,
    pub open_rate: f64,
    pub closed_s: f64,
    pub open_s: f64,
    /// Minimum measured closed-loop batches.
    pub repetitions: usize,
    /// Repetitions of each whole-store request; the first is its baseline.
    pub scan_reps: usize,
    /// `STATS` requests for the request-floor probe (traced pass only).
    pub floor_probes: usize,
}

/// What step G measured. The two loops keep both vCPUs busy with the
/// kernel's TCP path, which the host probes do not follow: their numbers
/// are wall time. The whole-store requests are one thread's work and are
/// scaled to the reference host speed like steps A–F.
#[derive(Default)]
pub struct Served {
    /// Median latency of each whole-store request, by `KINDS[1..]`, ms.
    pub scan_ms: [f64; 3],
    /// Per measured batch: completed requests per second, p50 and p95 (µs).
    pub batch_qps: Vec<f64>,
    pub batch_p50_us: Vec<f64>,
    pub batch_p95_us: Vec<f64>,
    /// Every measured closed-loop sample.
    pub closed: Vec<Sample>,
    /// p95 per valid open-loop window (µs, from the scheduled send time).
    pub open_window_p95_us: Vec<f64>,
    /// Windows in which the generator, not the service, fell behind.
    pub open_void_windows: usize,
    /// Every sample of the valid windows.
    pub open: Vec<Sample>,
    /// Completed requests per second of wall time over the open-loop windows.
    pub open_achieved_qps: f64,
    pub floor_us: Vec<f64>,
    pub client_completed: u64,
    pub server_completed: u64,
    /// Server-side p50 over all requests; only with `PEBBLE_METRICS=1`.
    pub server_p50_us: Option<f64>,
    /// Digest over the baseline answers, in request-list order.
    pub baseline_digest: u64,
}

/// Runs step G against `store`.
pub fn serve(
    store: Arc<ProvStore>,
    load: &Load,
    host: &mut Host,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<Served, String> {
    let mut out = Served::default();
    let rows = store.rows().len();
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        debug_panic: false,
        trace_path: None,
    };
    let phase = Instant::now();
    let (server, _) = rec.time("serve.server_start", || Server::start(store, &cfg));
    let mut server = server.map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr();
    let requests = backtrace_requests(load.seed, load.block, rows);

    // The whole-store requests, one at a time; the first answer to each is
    // its baseline. On the full store one of them is 100–1 300 single-row
    // requests' work: in a shared loop, where they fall decides its
    // throughput and its p95.
    let mut expected: HashMap<String, Shape> = HashMap::new();
    let mut digest = Fnv::new();
    for (kind, request) in scan_requests(load.pattern).iter().enumerate() {
        let mut ms = Vec::new();
        for _ in 0..load.scan_reps {
            let (frames, seconds) = host.timed(rec, "serve.scan", || query(addr, request));
            let shape = shape_of(&frames.map_err(|e| format!("`{request}`: {e}"))?);
            let baseline = *expected.entry(request.clone()).or_insert(shape);
            tally.check(
                &format!("`{request}` repeats its first answer"),
                shape == baseline,
            );
            out.client_completed += 1;
            ms.push(seconds * 1e3);
        }
        digest.update(&expected[request].digest.to_le_bytes());
        out.scan_ms[kind] = median(&ms);
    }

    // Serial baseline: one answer per distinct single-row request, which
    // every later answer must repeat byte for byte.
    let open = rec.enter("serve.serial_baseline");
    for r in &requests {
        if let Some(shape) = expected.get(r) {
            digest.update(&shape.digest.to_le_bytes());
            continue;
        }
        let frames = query(addr, r).map_err(|e| format!("baseline `{r}`: {e}"))?;
        out.client_completed += 1;
        tally.check(
            &format!("baseline `{r}` ends in DONE"),
            frames.last().is_some_and(|f| f.starts_with("DONE ")),
        );
        let shape = shape_of(&frames);
        digest.update(&shape.digest.to_le_bytes());
        expected.insert(r.clone(), shape);
    }
    out.baseline_digest = digest.finish();
    rec.exit(open);

    // Closed loop: one warm-up batch, then measured ones. The baseline, the
    // scans and the warm-up batch come out of the closed loop's time.
    let open = rec.enter("serve.closed_loop");
    let mut warm = true;
    while warm
        || out.batch_qps.len() < load.repetitions
        || (phase.elapsed().as_secs_f64() < load.closed_s && out.batch_qps.len() < MAX_BATCHES)
    {
        let (samples, wall) = closed_batch(addr, &requests, &expected);
        let completed = count(&samples, "closed-loop", tally);
        out.client_completed += completed as u64;
        if warm {
            warm = false;
            continue;
        }
        let lat: Vec<f64> = samples.iter().map(|s| s.latency_us).collect();
        out.batch_qps.push(completed as f64 / wall);
        out.batch_p50_us.push(median(&lat));
        out.batch_p95_us.push(percentile(&lat, 95.0));
        out.closed.extend(samples);
    }
    rec.exit(open);

    // Open loop: windows of one block each at the pinned rate. A window in
    // which more than `MAX_LATE_SHARE` of the slots left over one slot
    // spacing late is void: its latencies are the generator's.
    let open = rec.enter("serve.open_loop");
    let phase = Instant::now();
    let spacing_us = 1e6 / load.open_rate;
    let mut open_wall = 0.0;
    while out.open_window_p95_us.len() + out.open_void_windows < MAX_WINDOWS
        && (out.open_window_p95_us.is_empty() || phase.elapsed().as_secs_f64() < load.open_s)
    {
        let (samples, wall) = open_window(addr, &requests, &expected, load.open_rate);
        out.client_completed += count(&samples, "open-loop", tally) as u64;
        let late = samples.iter().filter(|s| s.late_us > spacing_us).count();
        if late as f64 > MAX_LATE_SHARE * samples.len() as f64 {
            out.open_void_windows += 1;
            continue;
        }
        open_wall += wall;
        let lat: Vec<f64> = samples.iter().map(|s| s.latency_us).collect();
        out.open_window_p95_us.push(percentile(&lat, 95.0));
        out.open.extend(samples);
    }
    rec.exit(open);
    tally.check(
        &format!(
            "the open-loop generator kept its schedule in one window of {MAX_WINDOWS} at least \
             ({} void)",
            out.open_void_windows
        ),
        !out.open_window_p95_us.is_empty(),
    );
    if out.open_window_p95_us.is_empty() {
        return Err("no valid open-loop window".into());
    }
    let completed = out.open.iter().filter(|s| s.ok).count();
    out.open_achieved_qps = completed as f64 / open_wall;

    if load.floor_probes > 0 {
        let open = rec.enter("serve.req_floor");
        for _ in 0..load.floor_probes {
            let t = Instant::now();
            let frames = query(addr, "STATS").map_err(|e| format!("STATS: {e}"))?;
            out.floor_us.push(t.elapsed().as_secs_f64() * 1e6);
            tally.check(
                "STATS ends in DONE",
                frames.last().is_some_and(|f| f == "DONE 1"),
            );
            out.client_completed += 1;
        }
        rec.exit(open);
    }

    let snapshot = server.service_snapshot();
    out.server_completed = snapshot.total_completed();
    tally.check(
        &format!(
            "server completed {} == client completed {}",
            out.server_completed, out.client_completed
        ),
        out.server_completed == out.client_completed,
    );
    let latency = snapshot.total_latency();
    out.server_p50_us = (latency.count > 0).then(|| latency.quantile(0.5) as f64 / 1e3);
    rec.time("serve.shutdown", || server.shutdown());
    Ok(out)
}
