//! Per-layer probes of the traced pass: each times one public function of
//! one crate on the round's own data, under a span named after the crate.

use std::hint::black_box;
use std::time::Instant;

use pebble_core::{backtrace_with, run_captured, Backtrace, BacktraceIndex, CapturedRun, ProvTree};
use pebble_dataflow::{run, NoSink};
use pebble_nested::column::ColumnBatch;
use pebble_nested::encode::{get_item, put_item, StringTable};
use pebble_nested::{json, DataItem, Path};
use pebble_serve::naive_dump_bytes;

use crate::host::Host;
use crate::journey::{Artifacts, Plan, Round};
use crate::report::Metrics;
use crate::spans::Recorder;
use crate::stats::median;
use crate::util::{Rng, Stream, Tally};

/// Rows per `ColumnBatch` in the transpose probe: the engine's morsel scale.
const BATCH_ROWS: usize = 4096;

/// Whole-item backtrace question for result row `idx` of the memory run.
pub fn whole_item(run: &CapturedRun, idx: usize) -> Backtrace {
    let row = &run.output.rows[idx];
    let paths = Path::path_set(&row.item);
    Backtrace {
        entries: vec![(row.id, ProvTree::from_paths(paths.iter()))],
    }
}

/// Exact counts of the run: rows, associations, spill traffic.
pub fn counts(art: &Artifacts, m: &mut Metrics) {
    let out = &art.run.output;
    m.set("dataflow.rows_out", out.rows.len() as f64);
    m.set(
        "dataflow.op_rows_total",
        out.op_counts.iter().sum::<usize>() as f64,
    );
    let spill = out.report.spill.clone().unwrap_or_default();
    m.set(
        "dataflow.spill_bytes",
        (spill.spill_bytes + spill.capture_spill_bytes) as f64,
    );
    m.set(
        "dataflow.spill_events",
        (spill.spills + spill.capture_spills) as f64,
    );
    m.set("dataflow.reload_events", spill.reloads as f64);
    m.set(
        "dataflow.peak_tracked_bytes",
        spill.peak_tracked_bytes as f64,
    );
    m.set(
        "core.assoc_rows",
        art.run.ops.iter().map(|o| o.assoc.len()).sum::<usize>() as f64,
    );
    m.set("core.lineage_bytes", art.run.lineage_bytes() as f64);
    m.set("core.structural_bytes", art.run.structural_bytes() as f64);
}

/// Runs every probe once, each between host probes of its own, and returns
/// `(metric, value)` pairs for this round; times at the reference host speed.
pub fn probe(
    plan: &Plan,
    round: &Round,
    art: &Artifacts,
    host: &mut Host,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let items = plan.inputs.items as f64;

    // nested: JSON parse over the in-memory lines, format over the result.
    let (texts, _) = rec.time("bench.load_text", || {
        plan.inputs
            .files
            .iter()
            .map(|(_, p)| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
            .collect::<Result<Vec<_>, _>>()
    });
    let texts = texts?;
    // Each value is freed as soon as it is parsed: keeping 60 k of them
    // beside the round's artifacts would time fresh page faults instead.
    let (parsed, parse_s) = host.timed(rec, "nested.json_parse", || {
        texts
            .iter()
            .flat_map(|t| t.lines())
            .filter(|line| json::parse(line).is_ok())
            .count()
    });
    tally.check(
        "json::parse accepts every input line",
        parsed == plan.inputs.items,
    );
    m.push((
        "nested.json_parse_mb_s",
        plan.inputs.bytes as f64 / 1e6 / parse_s,
    ));
    m.push(("dataflow.read_overhead_share", 1.0 - parse_s / round.read_s));
    drop(texts);
    let (formatted, format_s) = host.timed(rec, "nested.json_format", || {
        art.run
            .output
            .rows
            .iter()
            .map(|r| json::item_to_string(&r.item).len())
            .sum::<usize>()
    });
    m.push(("nested.json_format_mb_s", formatted as f64 / 1e6 / format_s));

    // nested: binary codec (the spill codec) and row ⇄ column transposes.
    let sources: Vec<&[DataItem]> = plan
        .inputs
        .files
        .iter()
        .map(|(name, _)| art.ctx.source(name).expect("source registered in step A"))
        .collect();
    let mut table = StringTable::new();
    let mut buf = Vec::new();
    let ((), encode_s) = host.timed(rec, "nested.encode", || {
        for item in sources.iter().flat_map(|s| s.iter()) {
            put_item(&mut buf, &mut table, item);
        }
    });
    let (decoded, decode_s) = host.timed(rec, "nested.decode", || {
        let mut rest = &buf[..];
        let mut n = 0usize;
        while !rest.is_empty() {
            match get_item(&mut rest, &table) {
                Ok(item) => {
                    black_box(item);
                    n += 1;
                }
                Err(_) => break,
            }
        }
        n
    });
    tally.check(
        "encode → decode returns every item",
        decoded == plan.inputs.items,
    );
    m.push(("nested.encode_ns_item", encode_s * 1e9 / items));
    m.push(("nested.decode_ns_item", decode_s * 1e9 / items));
    m.push(("nested.encode_bytes_item", buf.len() as f64 / items));
    drop(buf);
    let (batches, from_s) = host.timed(rec, "nested.col_from_items", || {
        sources
            .iter()
            .flat_map(|s| s.chunks(BATCH_ROWS))
            .map(ColumnBatch::from_items)
            .collect::<Vec<_>>()
    });
    let (back, to_s) = host.timed(rec, "nested.col_to_items", || {
        batches.iter().map(|b| b.to_items().len()).sum::<usize>()
    });
    tally.check(
        "items → columns → items keeps every item",
        back == plan.inputs.items,
    );
    m.push(("nested.col_from_items_ns_item", from_s * 1e9 / items));
    m.push(("nested.col_to_items_ns_item", to_s * 1e9 / items));
    drop(batches);

    // dataflow: the plain run on one worker.
    let (w1, w1_s) = host.timed(rec, "dataflow.run_plain_w1", || {
        run(
            &plan.program,
            &art.ctx,
            plan.spec.config().workers(1),
            &NoSink,
        )
    });
    let w1 = w1.map_err(|e| format!("plain run, 1 worker: {e}"))?;
    tally.check(
        "1 worker returns the 2-worker rows",
        w1.rows == art.plain.rows,
    );
    drop(w1);
    m.push(("dataflow.run_plain_w1_s", w1_s));
    m.push(("dataflow.parallel_speedup", w1_s / median(&round.plain_s)));

    // dataflow: what the memory budget costs the captured run.
    if plan.spec.mem_budget > 0 {
        let (mem, mem_s) = host.timed(rec, "core.run_captured_in_memory", || {
            run_captured(&plan.program, &art.ctx, plan.spec.config_in_memory())
        });
        let mem = mem.map_err(|e| format!("captured run, in memory: {e}"))?;
        tally.check(
            "budgeted run equals the in-memory run (rows, ids, associations)",
            mem.output.rows == art.run.output.rows && mem.ops == art.run.ops,
        );
        m.push(("dataflow.spill_slowdown", median(&round.capture_s) / mem_s));
    } else {
        m.push(("dataflow.spill_slowdown", 1.0));
    }

    // core: index build and Algs. 1–4 on the memory run.
    let (index, build_s) = host.timed(rec, "core.index_build", || BacktraceIndex::build(&art.run));
    m.push(("core.index_build_ms", build_s * 1e3));
    let question = plan.pattern.match_rows(&art.run.output.rows);
    let (answer, mem_s) = host.timed(rec, "core.backtrace_mem", || {
        backtrace_with(&art.run, &index, question)
    });
    let answer = answer.map_err(|e| format!("memory backtrace: {e}"))?;
    tally.check("memory answer equals the store's", answer == art.answer);
    let entries: usize = answer.iter().map(|s| s.entries.len()).sum();
    m.push(("core.backtrace_mem_ms", mem_s * 1e3));
    m.push(("core.backtrace_entries", entries as f64));
    m.push((
        "core.backtrace_us_per_entry",
        mem_s * 1e6 / entries.max(1) as f64,
    ));
    m.push(("serve.store_vs_mem_ratio", round.backtrace_s / mem_s));
    let mut rng = Rng::new(plan.seed, Stream::MemoryTracedRows);
    let rows = art.run.output.rows.len();
    let (samples, _) = host.timed(rec, "core.trace_item_mem", || {
        (0..plan.samples)
            .map(|_| {
                let idx = rng.below(rows);
                let t = Instant::now();
                let traced = backtrace_with(&art.run, &index, whole_item(&art.run, idx));
                let us = t.elapsed().as_secs_f64() * 1e6;
                black_box(traced.is_ok());
                us
            })
            .collect::<Vec<f64>>()
    });
    m.push(("core.trace_item_mem_p50_us", median(&samples)));
    rec.time("core.drop", || drop((index, answer)));

    // serve: what a naive dump of the same run would occupy.
    let (naive, _) = rec.time("serve.naive_dump_bytes", || naive_dump_bytes(&art.run));
    m.push(("serve.naive_bytes", naive as f64));
    m.push((
        "serve.compression_ratio",
        naive as f64 / round.segment_bytes as f64,
    ));
    tally.ops(6);
    Ok(m)
}
