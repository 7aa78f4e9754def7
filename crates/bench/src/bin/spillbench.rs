//! Out-of-core benchmark: bounded-memory execution vs the in-memory path
//! (`ExecConfig::mem_budget`).
//!
//! Runs the T5 evaluation scenario (filter → flatten → self-join →
//! aggregation — every spillable structure at once: operator outputs,
//! grace-join buckets, group shuffle partitions, and the capture sink's
//! association tables) over 100× the Tab. 7 Twitter base, and walks a
//! budget ladder from "never spills" down to "spills everything":
//!
//! * `∞` — tracking enabled but never exceeded; measures the tracker's own
//!   overhead and records the run's high-water mark (`peak`);
//! * `peak/2`, `peak/4` — partial spilling, the realistic regime;
//! * `4 KiB` — everything spills: every operator output, all 8 grace
//!   buckets, every shuffle partition, every association chunk.
//!
//! Before timing, every budgeted run is checked bit-for-bit against the
//! unbudgeted capture (rows, identifiers, association tables) — the
//! budget may only move state to disk, never change what the run
//! computes. Results are folded into the `"spill"` section of
//! `BENCH_6.json`.
//!
//! Usage: `spillbench [--out FILE] [--assert] [--probe BUDGET]`
//!
//! `--probe BUDGET` runs the scenario once at the given budget (bytes)
//! and dumps the per-operator spill table — the diagnosis view.
//!
//! `--assert` is the CI regression gate: T5 at 100× Twitter must complete
//! under a `peak/2` budget bit-identically with at most a 2.5× slowdown,
//! and under the always-spill budget the join, the aggregation, and the
//! capture sink must each report nonzero spill traffic.

use std::fmt::Write as _;

use pebble_bench::{human_bytes, scale, time, write_json_section, TWITTER_BASE};
use pebble_core::{run_captured, CapturedRun};
use pebble_dataflow::ExecConfig;
use pebble_workloads::{twitter_context, twitter_scenarios, Scenario};

const ROUNDS: usize = 3;

/// Budget at which every eligible allocation spills (smaller than any
/// morsel of the 100× dataset), yet large enough to stay byte-countable.
const ALWAYS_SPILL_BUDGET: usize = 4096;

/// Slowdown the `--assert` gate tolerates at the `peak/2` budget.
const MAX_SLOWDOWN: f64 = 2.5;

fn t5() -> Scenario {
    twitter_scenarios()
        .into_iter()
        .find(|s| s.name == "T5")
        .expect("T5 scenario")
}

/// Bit-for-bit equality of two captured runs: rows with identifiers,
/// per-operator counts, and every association table.
fn verify(name: &str, baseline: &CapturedRun, alt: &CapturedRun) {
    assert_eq!(
        baseline.output.rows, alt.output.rows,
        "{name}: budgeted rows/ids diverge from in-memory run"
    );
    assert_eq!(
        baseline.output.op_counts, alt.output.op_counts,
        "{name}: operator counts diverge"
    );
    for (a, b) in baseline.ops.iter().zip(&alt.ops) {
        assert_eq!(
            a.assoc, b.assoc,
            "{name}: association table of op #{} diverges",
            a.oid
        );
    }
}

/// Sum of executor spill bytes attributed to operators of one type.
fn op_spill_bytes(run: &CapturedRun, op_type: &str) -> u64 {
    run.output
        .report
        .operators
        .iter()
        .filter(|o| o.op_type == op_type)
        .map(|o| o.spill_bytes)
        .sum()
}

struct Measured {
    label: String,
    budget: usize,
    wall_ms: f64,
    spills: u64,
    spill_bytes: u64,
    reloads: u64,
    capture_spills: u64,
    capture_spill_bytes: u64,
    peak_tracked: u64,
}

/// Verifies one budget bit-for-bit against the baseline, then times it.
fn measure(
    label: &str,
    budget: usize,
    scenario: &Scenario,
    ctx: &pebble_dataflow::Context,
    baseline: &CapturedRun,
) -> Measured {
    let cfg = ExecConfig::default().mem_budget(budget);
    let run = run_captured(&scenario.program, ctx, cfg).expect("budgeted run failed");
    verify(label, baseline, &run);
    let spill = run
        .output
        .report
        .spill
        .as_ref()
        .expect("budgeted run must report spill stats");
    let wall = time(ROUNDS, || {
        run_captured(&scenario.program, ctx, cfg).expect("budgeted run failed")
    });
    Measured {
        label: label.to_string(),
        budget,
        wall_ms: wall.as_secs_f64() * 1e3,
        spills: spill.spills,
        spill_bytes: spill.spill_bytes,
        reloads: spill.reloads,
        capture_spills: spill.capture_spills,
        capture_spill_bytes: spill.capture_spill_bytes,
        peak_tracked: spill.peak_tracked_bytes,
    }
}

fn assert_mode(scenario: &Scenario, ctx: &pebble_dataflow::Context, peak: usize) {
    let base_cfg = ExecConfig::default();
    let baseline = run_captured(&scenario.program, ctx, base_cfg).expect("in-memory run failed");

    // Gate 1: peak/2 budget — bit-identical and at most MAX_SLOWDOWN.
    let budget = (peak / 2).max(ALWAYS_SPILL_BUDGET);
    let budget_cfg = ExecConfig::default().mem_budget(budget);
    let budgeted = run_captured(&scenario.program, ctx, budget_cfg).expect("budgeted run failed");
    verify("peak/2", &baseline, &budgeted);
    let spill = budgeted.output.report.spill.expect("spill stats");
    assert!(
        spill.spills + spill.capture_spills > 0,
        "peak/2 budget ({}) produced no spill traffic",
        human_bytes(budget)
    );
    let base_ms = time(ROUNDS, || {
        run_captured(&scenario.program, ctx, base_cfg).expect("in-memory run failed")
    })
    .as_secs_f64()
        * 1e3;
    let spill_ms = time(ROUNDS, || {
        run_captured(&scenario.program, ctx, budget_cfg).expect("budgeted run failed")
    })
    .as_secs_f64()
        * 1e3;
    let slowdown = spill_ms / base_ms;
    println!(
        "spillbench --assert: T5 in-memory {base_ms:.2} ms vs budget {} {spill_ms:.2} ms \
         ({slowdown:.2}x, {} spills, {} reloads)",
        human_bytes(budget),
        spill.spills,
        spill.reloads
    );
    assert!(
        slowdown <= MAX_SLOWDOWN,
        "out-of-core slowdown {slowdown:.2}x exceeds {MAX_SLOWDOWN}x at budget {}",
        human_bytes(budget)
    );

    // Gate 2: always-spill budget — the join, the aggregation, and the
    // capture sink all actually hit their spill paths, bit-identically.
    let tight_cfg = ExecConfig::default().mem_budget(ALWAYS_SPILL_BUDGET);
    let tight = run_captured(&scenario.program, ctx, tight_cfg).expect("tight run failed");
    verify("always-spill", &baseline, &tight);
    let join = op_spill_bytes(&tight, "join");
    let agg = op_spill_bytes(&tight, "aggregation");
    let cap = tight
        .output
        .report
        .spill
        .as_ref()
        .map(|s| s.capture_spills)
        .unwrap_or(0);
    println!(
        "spillbench --assert: always-spill join {} / aggregation {} / capture chunks {cap}",
        human_bytes(join as usize),
        human_bytes(agg as usize),
    );
    assert!(join > 0, "join never spilled at the always-spill budget");
    assert!(
        agg > 0,
        "aggregation never spilled at the always-spill budget"
    );
    assert!(
        cap > 0,
        "capture sink never spilled at the always-spill budget"
    );
    println!("spillbench --assert: ok");
}

/// Runs once at `budget`, printing wall time and the per-operator spill
/// table.
fn probe_mode(scenario: &Scenario, ctx: &pebble_dataflow::Context, budget: usize) {
    let start = std::time::Instant::now();
    let run = run_captured(
        &scenario.program,
        ctx,
        ExecConfig::default().mem_budget(budget),
    )
    .expect("probe run failed");
    let wall = start.elapsed();
    println!(
        "probe: budget {} wall {:.2} ms",
        human_bytes(budget),
        wall.as_secs_f64() * 1e3
    );
    for o in &run.output.report.operators {
        println!(
            "  op #{:<2} {:<12} rows_out {:>9} spill_bytes {:>12}",
            o.op, o.op_type, o.rows_out, o.spill_bytes
        );
    }
    if let Some(s) = &run.output.report.spill {
        println!(
            "  spills {} spill_bytes {} reloads {} capture_spills {} capture_spill_bytes {} peak {}",
            s.spills, s.spill_bytes, s.reloads, s.capture_spills, s.capture_spill_bytes,
            human_bytes(s.peak_tracked_bytes as usize)
        );
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut out_path = String::from("BENCH_6.json");
    let mut assert_only = false;
    let mut probe_budget: Option<usize> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--assert" => assert_only = true,
            "--probe" => {
                probe_budget = Some(
                    args.next()
                        .expect("--probe needs a byte budget")
                        .parse()
                        .expect("--probe budget must be an integer"),
                )
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    let tweets = TWITTER_BASE * 100 * scale();
    let ctx = twitter_context(tweets);
    let scenario = t5();

    if let Some(budget) = probe_budget {
        probe_mode(&scenario, &ctx, budget);
        return;
    }

    // Probe the run's high-water mark with tracking on but a budget no run
    // can exceed; the ladder is derived from it.
    let probe = run_captured(
        &scenario.program,
        &ctx,
        ExecConfig::default().mem_budget(usize::MAX / 2),
    )
    .expect("probe run failed");
    let peak = probe
        .output
        .report
        .spill
        .as_ref()
        .map(|s| s.peak_tracked_bytes as usize)
        .expect("tracked probe run must report spill stats");

    if assert_only {
        assert_mode(&scenario, &ctx, peak);
        return;
    }

    println!(
        "spillbench — T5 at {tweets} tweets (100× base, scale {}), peak resident {}",
        scale(),
        human_bytes(peak)
    );

    let base_cfg = ExecConfig::default();
    let baseline = run_captured(&scenario.program, &ctx, base_cfg).expect("in-memory run failed");
    let base_wall = time(ROUNDS, || {
        run_captured(&scenario.program, &ctx, base_cfg).expect("in-memory run failed")
    });
    let base_ms = base_wall.as_secs_f64() * 1e3;

    let ladder: Vec<(String, usize)> = vec![
        ("inf".into(), usize::MAX / 2),
        ("peak/2".into(), (peak / 2).max(ALWAYS_SPILL_BUDGET)),
        ("peak/4".into(), (peak / 4).max(ALWAYS_SPILL_BUDGET)),
        ("4KiB".into(), ALWAYS_SPILL_BUDGET),
    ];
    println!(
        "{:<8} {:>12} {:>10} {:>9} {:>7} {:>12} {:>8} {:>11} {:>13}",
        "budget",
        "bytes",
        "wall ms",
        "slowdown",
        "spills",
        "spill bytes",
        "reloads",
        "cap chunks",
        "cap bytes"
    );
    println!(
        "{:<8} {:>12} {:>10.2} {:>9} {:>7} {:>12} {:>8} {:>11} {:>13}",
        "none", "-", base_ms, "1.00x", "-", "-", "-", "-", "-"
    );

    let mut results: Vec<Measured> = Vec::new();
    for (label, budget) in &ladder {
        let m = measure(label, *budget, &scenario, &ctx, &baseline);
        println!(
            "{:<8} {:>12} {:>10.2} {:>8.2}x {:>7} {:>12} {:>8} {:>11} {:>13}",
            m.label,
            if *budget == usize::MAX / 2 {
                "inf".to_string()
            } else {
                budget.to_string()
            },
            m.wall_ms,
            m.wall_ms / base_ms,
            m.spills,
            m.spill_bytes,
            m.reloads,
            m.capture_spills,
            m.capture_spill_bytes,
        );
        results.push(m);
    }

    let mut body = String::from("{\n");
    let _ = writeln!(body, "  \"rounds\": {ROUNDS},");
    let _ = writeln!(body, "  \"scale\": {},", scale());
    let _ = writeln!(body, "  \"tweets\": {tweets},");
    let _ = writeln!(body, "  \"scenario\": \"T5\",");
    let _ = writeln!(body, "  \"peak_tracked_bytes\": {peak},");
    let _ = writeln!(body, "  \"in_memory_ms\": {base_ms:.3},");
    let _ = writeln!(body, "  \"runs\": [");
    for (i, m) in results.iter().enumerate() {
        let sep = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            body,
            "    {{\"budget\": \"{}\", \"budget_bytes\": {}, \"wall_ms\": {:.3}, \
             \"slowdown\": {:.3}, \"spills\": {}, \"spill_bytes\": {}, \"reloads\": {}, \
             \"capture_spills\": {}, \"capture_spill_bytes\": {}, \
             \"peak_tracked_bytes\": {}}}{sep}",
            m.label,
            m.budget,
            m.wall_ms,
            m.wall_ms / base_ms,
            m.spills,
            m.spill_bytes,
            m.reloads,
            m.capture_spills,
            m.capture_spill_bytes,
            m.peak_tracked,
        );
    }
    let _ = writeln!(body, "  ]");
    body.push('}');

    write_json_section(&out_path, "spill", &body);
    eprintln!("wrote section \"spill\" to {out_path}");
}
