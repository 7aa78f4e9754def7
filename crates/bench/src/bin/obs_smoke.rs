//! Observability smoke: runs the Twitter T3 scenario with metrics and
//! tracing enabled (via the `PEBBLE_METRICS` / `PEBBLE_TRACE` env gates,
//! as CI sets them) and validates the emitted run report and trace files
//! against the schema documented in DESIGN.md ("Observability: metrics,
//! spans, run reports"). Exits nonzero on any violation.
//!
//! Checks:
//!
//! * the report JSON parses with the in-tree parser and carries every
//!   documented top-level key with the documented type;
//! * per-operator `rows_out` agrees with the engine's own `op_counts`;
//! * the NDJSON trace has one well-formed span event per line, exactly one
//!   `run` span, and as many lines as the report's `spans` count;
//! * the chrome://tracing export is a JSON array of complete-events;
//! * span merging is deterministic: two identical runs produce the same
//!   logical span sequence (`kind`, `name`, `op`, `phase`, `task`);
//! * a memory-budgeted run emits the report's `spill` section with
//!   consistent accounting (per-operator `spill_bytes` sums to the
//!   section total) and byte-identical sink rows.

use pebble_bench::{exec_config, scale, TWITTER_BASE};
use pebble_core::run_captured_observed;
use pebble_dataflow::ObsConfig;
use pebble_nested::{json, DataItem, Value};
use pebble_workloads::{twitter_context, twitter_scenarios};

fn fail(msg: &str) -> ! {
    eprintln!("obs_smoke FAILED: {msg}");
    std::process::exit(1);
}

fn get<'a>(item: &'a DataItem, key: &str) -> &'a Value {
    item.get(key)
        .unwrap_or_else(|| fail(&format!("report is missing key \"{key}\"")))
}

fn get_int(item: &DataItem, key: &str) -> i64 {
    get(item, key)
        .as_int()
        .unwrap_or_else(|| fail(&format!("key \"{key}\" is not an integer")))
}

fn get_str<'a>(item: &'a DataItem, key: &str) -> &'a str {
    get(item, key)
        .as_str()
        .unwrap_or_else(|| fail(&format!("key \"{key}\" is not a string")))
}

fn get_obj<'a>(item: &'a DataItem, key: &str) -> &'a DataItem {
    match get(item, key) {
        Value::Item(d) => d,
        other => fail(&format!("key \"{key}\" is not an object: {other:?}")),
    }
}

fn get_array<'a>(item: &'a DataItem, key: &str) -> &'a [Value] {
    match get(item, key) {
        Value::Bag(v) | Value::Set(v) => v,
        other => fail(&format!("key \"{key}\" is not an array: {other:?}")),
    }
}

/// The logical (timing-free) identity of one NDJSON span line.
fn span_key(line: &str) -> (String, String, i64, i64, i64) {
    let item = match json::parse(line) {
        Ok(Value::Item(d)) => d,
        other => fail(&format!("trace line is not a JSON object: {other:?}")),
    };
    for key in ["worker", "start_ns", "dur_ns", "rows"] {
        if get_int(&item, key) < 0 {
            fail(&format!("span {key} is negative"));
        }
    }
    let kind = get_str(&item, "kind").to_string();
    if !matches!(
        kind.as_str(),
        "run" | "unit" | "phase" | "morsel" | "capture" | "backtrace"
    ) {
        fail(&format!("unknown span kind {kind:?}"));
    }
    (
        kind,
        get_str(&item, "name").to_string(),
        get_int(&item, "op"),
        get_int(&item, "phase"),
        get_int(&item, "task"),
    )
}

fn run_once(trace_path: &str) -> (pebble_core::CapturedRun, pebble_dataflow::RunReport) {
    let _ = std::fs::remove_file(trace_path);
    let ctx = twitter_context(TWITTER_BASE * scale());
    let t3 = twitter_scenarios().remove(2);
    assert_eq!(t3.name, "T3");
    let cfg = ObsConfig {
        metrics: true,
        trace_path: Some(trace_path.to_string()),
    };
    let (run, report) = run_captured_observed(&t3.program, &ctx, exec_config(), &cfg);
    let run = run.unwrap_or_else(|e| fail(&format!("T3 run failed: {e}")));
    (run, report)
}

fn main() {
    // CI drives this bin with PEBBLE_METRICS=1 PEBBLE_TRACE=<path>; both
    // gates must actually be on, otherwise the smoke validates nothing.
    let env_cfg = ObsConfig::from_env();
    if !env_cfg.metrics {
        fail("PEBBLE_METRICS is not enabled");
    }
    let Some(trace_path) = env_cfg.trace_path else {
        fail("PEBBLE_TRACE is not set");
    };

    let (run, report) = run_once(&trace_path);

    // The standalone report and the one embedded in the output agree.
    if &report != run.output.report() {
        fail("standalone report differs from RunOutput::report()");
    }

    // ---- Report JSON against the documented schema. ----
    let json_str = report.to_json();
    let root = match json::parse(&json_str) {
        Ok(Value::Item(d)) => d,
        Ok(other) => fail(&format!("report is not a JSON object: {other:?}")),
        Err(e) => fail(&format!("report JSON does not parse: {e}")),
    };
    if get_int(&root, "schema_version") != 3 {
        fail("schema_version != 3");
    }
    if get_str(&root, "executor") != "pool" {
        fail("executor != \"pool\"");
    }
    if get(&root, "metrics").as_bool() != Some(true) {
        fail("metrics flag is not true");
    }
    if get_str(&root, "outcome") != "ok" {
        fail("outcome != \"ok\"");
    }
    if !matches!(get(&root, "error"), Value::Null) {
        fail("error is not null on an ok run");
    }
    for key in ["partitions", "workers", "morsel_rows"] {
        let _ = get_int(&root, key);
    }
    if get_int(&root, "elapsed_ns") <= 0 {
        fail("elapsed_ns not populated on a metrics run");
    }
    let sources = get_array(&root, "sources");
    if sources.is_empty() {
        fail("sources is empty");
    }
    for s in sources {
        match s {
            Value::Item(d) => {
                let _ = get_str(d, "name");
                let _ = get_int(d, "rows");
            }
            other => fail(&format!("source entry is not an object: {other:?}")),
        }
    }

    let operators = get_array(&root, "operators");
    if operators.len() != run.program.operators().len() {
        fail("operators table length != program length");
    }
    for (i, o) in operators.iter().enumerate() {
        let Value::Item(d) = o else {
            fail(&format!("operator #{i} is not an object"));
        };
        if get_int(d, "op") != i as i64 {
            fail(&format!("operator #{i} has op id {}", get_int(d, "op")));
        }
        let _ = get_str(d, "type");
        if get(d, "udf").as_bool().is_none() {
            fail(&format!("operator #{i}: udf is not a bool"));
        }
        for key in [
            "rows_in",
            "rows_out",
            "morsels",
            "udf_panics",
            "busy_ns",
            "assoc_entries",
            "assoc_bytes",
        ] {
            let _ = get_int(d, key);
        }
        if get_int(d, "rows_out") != run.output.op_counts[i] as i64 {
            fail(&format!("operator #{i}: rows_out disagrees with op_counts"));
        }
        if get_int(d, "udf_panics") != 0 {
            fail(&format!("operator #{i}: panics on a clean run"));
        }
    }

    let morsels = get_obj(&root, "morsels");
    if get_int(morsels, "executed") <= 0 {
        fail("morsels.executed is zero");
    }
    for key in ["min_rows", "max_rows", "total_rows"] {
        let _ = get_int(morsels, key);
    }
    let durations = get_obj(&root, "morsel_durations");
    if get_int(durations, "count") != get_int(morsels, "executed") {
        fail("morsel_durations.count != morsels.executed");
    }
    if report.workers > 1 {
        let pool = get_obj(&root, "pool");
        if get_int(pool, "workers") <= 0 {
            fail("pool.workers not populated");
        }
    }
    let prov = get_obj(&root, "provenance");
    if get_int(prov, "entries") <= 0 || get_int(prov, "lineage_bytes") <= 0 {
        fail("provenance sizes not populated on a captured run");
    }
    let spans = get_int(&root, "spans");
    if spans <= 0 {
        fail("spans count is zero on a traced run");
    }

    // ---- NDJSON trace. ----
    let trace = std::fs::read_to_string(&trace_path)
        .unwrap_or_else(|e| fail(&format!("cannot read trace {trace_path}: {e}")));
    let keys: Vec<_> = trace.lines().map(span_key).collect();
    if keys.len() as i64 != spans {
        fail(&format!(
            "trace has {} lines, report says {spans} spans",
            keys.len()
        ));
    }
    if keys.iter().filter(|k| k.0 == "run").count() != 1 {
        fail("trace must contain exactly one run span");
    }
    if !keys.iter().any(|k| k.0 == "morsel") {
        fail("trace contains no morsel spans");
    }

    // ---- chrome://tracing export. ----
    let chrome_path = format!("{trace_path}.chrome.json");
    let (_run2, report2) = run_once(&chrome_path);
    let chrome = std::fs::read_to_string(&chrome_path)
        .unwrap_or_else(|e| fail(&format!("cannot read chrome export: {e}")));
    match json::parse(&chrome) {
        Ok(Value::Bag(events)) | Ok(Value::Set(events)) => {
            if events.len() as u64 != report2.spans {
                fail("chrome export event count != report spans");
            }
            for ev in &events {
                let Value::Item(d) = ev else {
                    fail("chrome event is not an object");
                };
                if get_str(d, "ph") != "X" {
                    fail("chrome event is not a complete-event");
                }
                let _ = get_str(d, "name");
                let _ = get_str(d, "cat");
                let _ = get_int(d, "pid");
                let _ = get_int(d, "tid");
                let _ = get_obj(d, "args");
            }
        }
        other => fail(&format!("chrome export is not a JSON array: {other:?}")),
    }

    // ---- Deterministic span merge across identical runs. ----
    let second_path = format!("{trace_path}.second.ndjson");
    let (_run3, _report3) = run_once(&second_path);
    let second = std::fs::read_to_string(&second_path)
        .unwrap_or_else(|e| fail(&format!("cannot read second trace: {e}")));
    let keys2: Vec<_> = second.lines().map(span_key).collect();
    if keys != keys2 {
        fail("span merge is not deterministic across identical runs");
    }
    let _ = std::fs::remove_file(&chrome_path);
    let _ = std::fs::remove_file(&second_path);

    // ---- Spill section on a memory-budgeted run. ----
    // An unbudgeted report must omit the section entirely.
    if report.spill.is_some() {
        fail("unbudgeted run emitted a spill section");
    }
    let budget = 64 * 1024;
    let ctx = twitter_context(TWITTER_BASE * scale());
    let t3 = twitter_scenarios().remove(2);
    let cfg = ObsConfig {
        metrics: true,
        trace_path: None,
    };
    let (budgeted, breport) =
        run_captured_observed(&t3.program, &ctx, exec_config().mem_budget(budget), &cfg);
    let budgeted = budgeted.unwrap_or_else(|e| fail(&format!("budgeted T3 run failed: {e}")));
    if budgeted.output.rows != run.output.rows {
        fail("budgeted run rows differ from unbudgeted run");
    }
    let broot = match json::parse(&breport.to_json()) {
        Ok(Value::Item(d)) => d,
        other => fail(&format!("budgeted report does not parse: {other:?}")),
    };
    let spill = get_obj(&broot, "spill");
    if get_int(spill, "budget_bytes") != budget as i64 {
        fail("spill.budget_bytes != configured budget");
    }
    if get_int(spill, "peak_tracked_bytes") <= 0 {
        fail("spill.peak_tracked_bytes not populated");
    }
    if get_int(spill, "spills") <= 0 || get_int(spill, "spill_bytes") <= 0 {
        fail("tight budget forced no spills — smoke validates nothing");
    }
    if get_int(spill, "reloads") <= 0 {
        fail("spill.reloads is zero despite spills");
    }
    for key in ["capture_spills", "capture_spill_bytes"] {
        let _ = get_int(spill, key);
    }
    let op_spill_sum: i64 = get_array(&broot, "operators")
        .iter()
        .map(|o| match o {
            Value::Item(d) => get_int(d, "spill_bytes"),
            other => fail(&format!("operator entry is not an object: {other:?}")),
        })
        .sum();
    if op_spill_sum != get_int(spill, "spill_bytes") {
        fail("per-operator spill_bytes do not sum to spill.spill_bytes");
    }

    println!(
        "obs smoke OK: {} operators, {} morsels, {spans} spans, report schema v{}",
        operators.len(),
        get_int(morsels, "executed"),
        get_int(&root, "schema_version"),
    );
}
