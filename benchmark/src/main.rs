//! The journey benchmark: one command, four workloads, every metric by name.
//!
//! `--workload W --seed N --seconds S --trace 0|1` runs one workload in this
//! process and prints one JSON result as the last line of stdout (the
//! driver's contract). Without `--workload` every workload runs in a child
//! process of its own, end-to-end pass first, traced pass second, and the
//! collected results go to `benchmark/out/result.json`. See `README.md`.

mod checks;
mod host;
mod journey;
mod probes;
mod report;
mod served;
mod spans;
mod stats;
mod util;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use pebble_core::{run_captured, TreePattern};
use pebble_dataflow::{run, NoSink};
use pebble_serve::{persist_file, ProvStore};

use host::Host;
use journey::{Inputs, Plan, Round};
use report::{Metrics, Registry};
use served::{Load, Served};
use spans::Recorder;
use stats::{lower_quartile, median, percentile};
use util::Tally;
use workloads::{Spec, TRACE_SAMPLES};

/// Share of `--seconds` spent on rounds of steps A–F, on the closed loop
/// and on the open loop; the traced pass keeps the rest for its probe rounds
/// and its child.
const PHASES_END_TO_END: (f64, f64, f64) = (0.46, 0.27, 0.27);
const PHASES_TRACED: (f64, f64, f64) = (0.30, 0.15, 0.10);
/// Timed rounds and closed-loop batches per run, at least.
const MIN_REPETITIONS: usize = 3;
/// Traced rounds with per-layer probes (traced pass only).
const PROBE_ROUNDS: usize = 2;
/// Requests per closed-loop batch and open-loop window: one block of the mix.
const BLOCK: usize = 1000;
/// Unattributed share of the traced journey, and cost of recording as a
/// share of it, above which the pass fails.
const MAX_LAYER_GAP: f64 = 0.05;
const MAX_TRACE_OVERHEAD: f64 = 0.05;

pub struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    /// Sets of runs to compare half against half (`--aa [N]`); 0 = one set,
    /// no comparison.
    aa: usize,
    /// Internal: scratch directory of the parent whose inputs the axis
    /// child reads.
    axis_child: Option<PathBuf>,
}

impl Opts {
    fn parse(args: impl Iterator<Item = String>) -> Result<Opts, String> {
        let mut o = Opts {
            workload: None,
            seed: checks::GOLDEN_SEED,
            seconds: None,
            trace: false,
            quick: false,
            aa: 0,
            axis_child: None,
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
            match arg.as_str() {
                "--workload" => o.workload = Some(value("a name")?),
                "--seed" => {
                    o.seed = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    let s: f64 = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s} is outside 0..600"));
                    }
                    o.seconds = Some(s);
                }
                "--trace" => {
                    o.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace {other}: expected 0 or 1")),
                    }
                }
                "--quick" => o.quick = true,
                "--aa" => {
                    o.aa = match args.peek().and_then(|n| n.parse().ok()) {
                        Some(n) => {
                            args.next();
                            n
                        }
                        None => 2,
                    };
                    if o.aa < 2 {
                        return Err("--aa needs at least 2 sets".into());
                    }
                }
                "--axis-child" => o.axis_child = Some(PathBuf::from(value("a directory")?)),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(o)
    }

    /// Measured seconds per run: `--seconds`, else `run_seconds` of
    /// `BENCHMARK.json` (2 s with `--quick`).
    fn seconds(&self, registry: &Registry) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            2.0
        } else {
            registry.run_seconds
        })
    }
}

/// The benchmark's own directory (`benchmark/` of the checkout it was
/// built in).
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A scratch directory under `benchmark/out/`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Result<Scratch, String> {
        let dir = bench_dir()
            .join("out")
            .join(format!("scratch-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One timed round of steps A–F.
struct TimedRound {
    round: Round,
    /// `(metric, value)` of every per-layer probe, if the round ran them.
    probes: Vec<(&'static str, f64)>,
}

/// Everything a round needs besides its plan.
struct Bench {
    host: Host,
    rec: Recorder,
    tally: Tally,
    m: Metrics,
}

/// Runs round number `index`: steps A–F, the per-layer probes if asked for,
/// teardown. Hands back the round's cold-opened store.
fn timed_round(
    p: &Plan,
    index: usize,
    probed: bool,
    plain_first: bool,
    b: &mut Bench,
) -> Result<(TimedRound, ProvStore), String> {
    b.rec.set_round(index as u32 + 1);
    let open = b.rec.enter("bench.round");
    let (round, art) = journey::round(p, plain_first, &mut b.host, &mut b.rec, &mut b.tally)?;
    let mut probes = Vec::new();
    if probed {
        probes = probes::probe(p, &round, &art, &mut b.host, &mut b.rec, &mut b.tally)?;
        probes::counts(&art, &mut b.m);
    }
    let store = journey::teardown(art, &mut b.rec);
    b.rec.exit(open);
    Ok((TimedRound { round, probes }, store))
}

fn plan<'a>(spec: &'a Spec, inputs: Inputs, dir: &Path, opts: &Opts) -> Result<Plan<'a>, String> {
    Ok(Plan {
        spec,
        program: spec.program(),
        pattern: TreePattern::parse(spec.pattern).map_err(|e| format!("{}: {e}", spec.pattern))?,
        inputs,
        segment: dir.join("run.seg"),
        samples: if opts.quick { 200 } else { TRACE_SAMPLES },
        seed: opts.seed,
    })
}

/// Step G's load for this run.
fn load<'a>(spec: &'a Spec, opts: &Opts, closed_s: f64, open_s: f64) -> Load<'a> {
    Load {
        seed: opts.seed,
        pattern: spec.pattern,
        block: if opts.quick { BLOCK / 5 } else { BLOCK },
        open_rate: spec.open_rate,
        closed_s,
        open_s,
        repetitions: if opts.quick { 1 } else { MIN_REPETITIONS },
        scan_reps: if opts.trace { 2 } else { 1 },
        floor_probes: if opts.trace { 200 } else { 0 },
    }
}

/// Runs one workload in this process: set-up, checks, timed rounds, step G,
/// and (traced pass) probes and the axis child. Returns the metrics of the
/// requested pass.
fn run_workload(
    spec: &'static Spec,
    opts: &Opts,
    registry: &Registry,
    origin: Instant,
) -> Result<(Metrics, Tally), String> {
    let scratch = Scratch::new(spec.name)?;
    util::scrub_env(&scratch.0);
    let seconds = opts.seconds(registry);
    let (pipe_share, closed_share, open_share) = if opts.trace {
        PHASES_TRACED
    } else {
        PHASES_END_TO_END
    };
    let mut b = Bench {
        host: Host::new(),
        rec: Recorder::new(origin, opts.trace),
        tally: Tally::default(),
        m: Metrics::default(),
    };

    // Set-up: generate, write NDJSON, one warm-up round, whose outputs feed
    // the correctness checks.
    let open = b.rec.enter("bench.setup");
    let inputs = journey::prepare(
        spec,
        opts.seed,
        opts.quick,
        &scratch.0,
        &mut b.host,
        &mut b.rec,
    )?;
    let p = plan(spec, inputs, &scratch.0, opts)?;
    let (_, art) = journey::round(&p, true, &mut b.host, &mut b.rec, &mut b.tally)?;
    b.rec.exit(open);
    let setup_s = (origin.elapsed().as_secs_f64() - b.host.probe_s()) * b.host.mean_speed();
    let mut pins = checks::verify(&p, &art, &mut b.tally)?;
    let mut store = journey::teardown(art, &mut b.rec);
    b.m.set("setup_s", setup_s);
    b.m.set("workloads.generate_s", p.inputs.generate_s);
    b.m.set("workloads.ndjson_write_s", p.inputs.write_s);
    b.m.set("workloads.input_bytes", p.inputs.bytes as f64);
    b.m.set("workloads.input_items", p.inputs.items as f64);

    // Timed rounds of steps A–F; the traced pass then adds rounds that also
    // run the per-layer probes (kept apart: the probes leave a different
    // heap behind).
    let min_rounds = if opts.quick { 1 } else { MIN_REPETITIONS };
    let probe_rounds = match (opts.trace, opts.quick) {
        (false, _) => 0,
        (true, true) => 1,
        (true, false) => PROBE_ROUNDS,
    };
    let phase = Instant::now();
    let mut rounds: Vec<TimedRound> = Vec::new();
    let mut probed = 0;
    loop {
        let i = rounds.len();
        let timed =
            i < min_rounds || (!opts.quick && phase.elapsed().as_secs_f64() < seconds * pipe_share);
        if !timed {
            if probed == probe_rounds {
                break;
            }
            probed += 1;
        }
        let (round, last) = timed_round(&p, i, !timed, i.is_multiple_of(2), &mut b)?;
        rounds.push(round);
        b.rec
            .time("serve.drop", || drop(std::mem::replace(&mut store, last)));
    }
    let rounds_s = phase.elapsed().as_secs_f64();

    // Step G serves the segment the last round persisted and opened.
    b.rec.set_round(rounds.len() as u32 + 1);
    let open = b.rec.enter("bench.served");
    let load = load(spec, opts, seconds * closed_share, seconds * open_share);
    let served = served::serve(
        Arc::new(store),
        &load,
        &mut b.host,
        &mut b.rec,
        &mut b.tally,
    )?;
    let served_s = b.rec.exit(open);
    eprintln!(
        "{}: set-up {setup_s:.1} s, {} rounds {rounds_s:.1} s, step G {served_s:.1} s, \
         host speed x{:.2}",
        spec.name,
        rounds.len(),
        b.host.median_speed(),
    );

    pins.served_digest = served.baseline_digest;
    println!("pins {} {}", spec.name, pins.to_json());
    if opts.seed == checks::GOLDEN_SEED {
        checks::check_golden(spec.name, opts.quick, &pins, &mut b.tally)?;
    }

    end_to_end(&p, &rounds, &served, &mut b.m);
    if opts.trace {
        per_layer(&rounds, &served, &b.host, &mut b.m);
        axis_child(spec, opts, &scratch.0, &mut b.m, &mut b.tally)?;
        trace_summary(spec, &b.rec, &mut b.m, &mut b.tally)?;
    }
    b.m.set("peak_rss_mib", util::peak_rss_mib()?);
    b.m.set(
        "ok_share",
        1.0 - b.tally.failed as f64 / b.tally.attempted as f64,
    );
    Ok((b.m, b.tally))
}

/// The end-to-end metrics. Steps A–F: lower quartile over rounds (steps B–D:
/// over every repetition) of times at the reference host speed; step G:
/// median over batches and windows of wall times.
fn end_to_end(p: &Plan, rounds: &[TimedRound], served: &Served, m: &mut Metrics) {
    let items = p.inputs.items as f64;
    let over = |f: &dyn Fn(&Round) -> f64| {
        lower_quartile(&rounds.iter().map(|r| f(&r.round)).collect::<Vec<_>>())
    };
    let durable: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.round.capture_durable_s())
        .collect();
    let plain: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.round.plain_s.iter().copied())
        .collect();
    m.set(
        "ingest_mb_s",
        p.inputs.bytes as f64 / 1e6 / over(&|r| r.read_s),
    );
    m.set("capture_items_s", items / lower_quartile(&durable));
    m.set(
        "capture_overhead_ratio",
        lower_quartile(&durable) / lower_quartile(&plain),
    );
    m.set(
        "prov_bytes_per_item",
        over(&|r| r.segment_bytes as f64 / items),
    );
    m.set(
        "cold_query_ms",
        over(&|r| (r.open_s + r.match_s + r.backtrace_s) * 1e3),
    );
    m.set("trace_p50_us", over(&|r| median(&r.samples_us)));
    m.set("trace_p95_us", over(&|r| percentile(&r.samples_us, 95.0)));
    m.set("served_qps", median(&served.batch_qps));
    m.set("served_p50_us", median(&served.batch_p50_us));
    m.set("served_p95_us", median(&served.batch_p95_us));
    m.set("open_p95_us", median(&served.open_window_p95_us));
    let block = served.closed.len() / served.batch_qps.len();
    println!(
        "samples {}: {} rounds x ({} pipeline repetitions, {} item traces (supports p{})), \
         {} closed-loop batches and {} open-loop windows ({} more void) x {block} requests (p{})",
        p.spec.name,
        rounds.len(),
        workloads::PIPELINE_REPS,
        rounds[0].round.samples_us.len(),
        stats::highest_supported_percentile(rounds[0].round.samples_us.len()),
        served.batch_qps.len(),
        served.open_window_p95_us.len(),
        served.open_void_windows,
        stats::highest_supported_percentile(block),
    );
}

/// The per-layer metrics that come from step spans, probes and step G.
fn per_layer(rounds: &[TimedRound], served: &Served, host: &Host, m: &mut Metrics) {
    let over = |f: &dyn Fn(&Round) -> f64| {
        lower_quartile(&rounds.iter().map(|r| f(&r.round)).collect::<Vec<_>>())
    };
    // Steps B–D repeat within a round: over every repetition.
    let pooled = |f: &dyn Fn(&Round) -> &[f64]| {
        let all: Vec<f64> = rounds.iter().flat_map(|r| f(&r.round).to_vec()).collect();
        lower_quartile(&all)
    };
    let (plain_s, captured_s) = (pooled(&|r| &r.plain_s), pooled(&|r| &r.capture_s));
    m.set("dataflow.read_ndjson_s", over(&|r| r.read_s));
    m.set("dataflow.run_plain_s", plain_s);
    m.set("core.run_captured_s", captured_s);
    m.set("core.capture_extra_s", captured_s - plain_s);
    m.set("serve.persist_ms", pooled(&|r| &r.persist_s) * 1e3);
    m.set("serve.segment_bytes", over(&|r| r.segment_bytes as f64));
    m.set("serve.open_ms", over(&|r| r.open_s * 1e3));
    m.set("core.pattern_match_ms", over(&|r| r.match_s * 1e3));
    m.set("core.pattern_matched", over(&|r| r.matched as f64));
    m.set("serve.store_backtrace_ms", over(&|r| r.backtrace_s * 1e3));
    // Every probed round pushes the same metrics in the same order.
    let probed: Vec<&TimedRound> = rounds.iter().filter(|r| !r.probes.is_empty()).collect();
    for (i, (name, _)) in probed[0].probes.iter().enumerate() {
        let values: Vec<f64> = probed.iter().map(|r| r.probes[i].1).collect();
        m.set(name, median(&values));
    }

    let backtrace_p50 = median(
        &served
            .closed
            .iter()
            .map(|s| s.latency_us)
            .collect::<Vec<_>>(),
    );
    m.set("serve.kind_backtrace_p50_us", backtrace_p50);
    for (name, ms) in served::KINDS[1..].iter().zip(served.scan_ms) {
        m.set(&format!("serve.kind_{name}_p50_us"), ms * 1e3);
    }
    let n = served.closed.len() as f64;
    m.set(
        "serve.frames_per_req",
        served
            .closed
            .iter()
            .map(|s| f64::from(s.frames))
            .sum::<f64>()
            / n,
    );
    m.set(
        "serve.resp_bytes_per_req",
        served
            .closed
            .iter()
            .map(|s| f64::from(s.bytes))
            .sum::<f64>()
            / n,
    );
    m.set("serve.req_floor_p50_us", median(&served.floor_us));
    m.set(
        "serve.req_overhead_p50_us",
        backtrace_p50 - over(&|r| median(&r.samples_us)),
    );
    m.set(
        "serve.stats_reconciled",
        f64::from(u8::from(served.server_completed == served.client_completed)),
    );
    m.set("serve.open_achieved_qps", served.open_achieved_qps);
    let late: Vec<f64> = served.open.iter().map(|s| s.late_us).collect();
    m.set("serve.open_gen_late_p95_us", percentile(&late, 95.0));
    m.set("bench.host_speed", host.median_speed());
}

/// Axis metrics that need `PEBBLE_*` variables come from a child process of
/// this binary, so that the variables never touch the measured process and
/// degrade to no-ops if a later change removes them.
fn axis_child(
    spec: &Spec,
    opts: &Opts,
    scratch: &Path,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", spec.name, "--seed", &opts.seed.to_string()])
        .arg("--axis-child")
        .arg(scratch)
        .env("PEBBLE_COLUMNAR", "1")
        .env("PEBBLE_METRICS", "1");
    if opts.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("axis child: {e}"))?;
    tally.check("axis child exits 0", out.status.success());
    if !out.status.success() {
        return Err(format!(
            "axis child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        if let Some((name, value)) = line.split_once(' ') {
            let value = value
                .parse()
                .map_err(|e| format!("axis child `{line}`: {e}"))?;
            m.set(name, value);
        }
    }
    Ok(())
}

/// The axis child itself: reads the parent's NDJSON, runs the plain and the
/// captured pipeline under `PEBBLE_COLUMNAR=1 PEBBLE_METRICS=1`, serves one
/// short load for the server-side latency, and prints `name value` lines.
fn run_axis_child(spec: &'static Spec, opts: &Opts, parent: &Path) -> Result<(), String> {
    let scratch = Scratch::new(&format!("{}-axis", spec.name))?;
    let files = spec
        .source_names()
        .iter()
        .map(|n| (*n, parent.join(format!("{n}.ndjson"))))
        .collect();
    let inputs = Inputs {
        files,
        ..Inputs::default()
    };
    let p = plan(spec, inputs, &scratch.0, opts)?;
    let ctx = journey::read_sources(&p.inputs)?;
    let mut plain_s = Vec::new();
    for _ in 0..MIN_REPETITIONS {
        let t = Instant::now();
        run(&p.program, &ctx, spec.config(), &NoSink).map_err(|e| format!("plain run: {e}"))?;
        plain_s.push(t.elapsed().as_secs_f64());
    }
    println!("dataflow.run_plain_columnar_s {}", median(&plain_s));
    let captured =
        run_captured(&p.program, &ctx, spec.config()).map_err(|e| format!("captured run: {e}"))?;
    let col = captured.output.report.columnar.clone().unwrap_or_default();
    println!("dataflow.col_id_ranges {}", col.id_ranges);
    println!("dataflow.col_id_pairs {}", col.id_pairs);
    println!("dataflow.col_fallback_units {}", col.fallback_units);

    persist_file(&captured, &p.segment).map_err(|e| format!("persist: {e}"))?;
    drop((captured, ctx));
    let store = ProvStore::open(&p.segment).map_err(|e| format!("cold open: {e}"))?;
    let mut tally = Tally::default();
    let mut rec = Recorder::new(Instant::now(), false);
    let load = Load {
        repetitions: 1,
        scan_reps: 1,
        floor_probes: 0,
        ..load(spec, opts, 0.0, 0.0)
    };
    let served = served::serve(
        Arc::new(store),
        &load,
        &mut Host::new(),
        &mut rec,
        &mut tally,
    )?;
    if tally.failed > 0 {
        return Err(format!("axis child: {}", tally.failures.join("; ")));
    }
    // Without `PEBBLE_METRICS` the server keeps no latencies: report 0.
    let server = served.server_p50_us.unwrap_or(0.0);
    let client = median(
        &served
            .closed
            .iter()
            .map(|s| s.latency_us)
            .collect::<Vec<_>>(),
    );
    println!("serve.server_side_p50_us {server}");
    println!("serve.client_minus_server_p50_us {}", client - server);
    Ok(())
}

/// Writes the spans out and derives the two `bench.*` metrics the pass is
/// gated on: what tracing costs, and how much of the traced journey no layer
/// span accounts for.
fn trace_summary(
    spec: &Spec,
    rec: &Recorder,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    // What recording costs: every span of the pass at the price of one span,
    // which a loop over a recorder of its own measures to a nanosecond. The
    // journey's own spread between two identical rounds is 5–10 %, a thousand
    // times the cost of its ~50 spans.
    let (by_name, wall_s) = rec.self_time_by_name();
    let ratio = 1.0 + rec.spans().len() as f64 * Recorder::span_cost_s() / wall_s;
    m.set("bench.trace_overhead_ratio", ratio);
    tally.check(
        &format!(
            "recording {} spans costs at most {MAX_TRACE_OVERHEAD} of the traced journey \
             (ratio {ratio:.6})",
            rec.spans().len()
        ),
        ratio <= 1.0 + MAX_TRACE_OVERHEAD,
    );

    // The host probes are neither a layer nor the journey.
    let of = |pick: &dyn Fn(&str) -> bool| -> f64 {
        by_name
            .iter()
            .filter(|(n, _)| pick(n))
            .map(|(_, s)| s)
            .sum()
    };
    let wall_s = wall_s - of(&|n| n == "bench.host_probe");
    let layers = of(&|n| !n.starts_with("bench."));
    let gap = (layers - wall_s).abs() / wall_s;
    m.set("bench.layer_sum_gap_share", gap);
    tally.check(
        &format!("layer self times cover the traced journey within {MAX_LAYER_GAP} (gap {gap:.4})"),
        gap <= MAX_LAYER_GAP,
    );
    println!("self-time {}: {:.3} s traced, by span:", spec.name, wall_s);
    let mut by_name = by_name;
    by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, s) in &by_name {
        println!("  {name:<32} {s:>9.4} s {:>6.2} %", 100.0 * s / wall_s);
    }

    let out = bench_dir().join("out");
    let write = |file: &str, text: String| {
        std::fs::write(out.join(file), text).map_err(|e| format!("{file}: {e}"))
    };
    write(
        &format!("trace-{}.ndjson", spec.name),
        rec.to_ndjson(spec.name),
    )?;
    write(
        &format!("trace-{}.chrome.json", spec.name),
        rec.to_chrome_json(spec.name),
    )?;
    println!(
        "spans {}: {} written to benchmark/out/trace-{}.ndjson",
        spec.name,
        rec.spans().len(),
        spec.name
    );
    Ok(())
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let outcome = Opts::parse(std::env::args().skip(1)).and_then(|opts| {
        let registry = Registry::load(&bench_dir().join("../BENCHMARK.json"))?;
        match &opts.workload {
            Some(name) => {
                let spec = workloads::spec(name).ok_or(format!("unknown workload `{name}`"))?;
                if let Some(parent) = &opts.axis_child {
                    return run_axis_child(spec, &opts, parent).map(|()| true);
                }
                let (metrics, tally) = run_workload(spec, &opts, &registry, origin)?;
                for f in &tally.failures {
                    println!("FAILED {}: {f}", spec.name);
                }
                let (wanted, unresolved) = if opts.trace {
                    (&registry.per_layer, Vec::new())
                } else {
                    let plain = |d: &&report::MetricDef| !d.name.contains('.');
                    (
                        &registry.end_to_end,
                        registry.per_layer.iter().filter(plain).collect(),
                    )
                };
                report::print_result(spec.name, wanted, &unresolved, &metrics, &tally)?;
                Ok(tally.failed == 0)
            }
            None => report::run_sets(&opts, &registry),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
