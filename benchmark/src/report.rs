//! Results: the metric registry read from `BENCHMARK.json`, the driver's
//! one-line result, and the multi-workload modes (every workload once, or
//! `--aa`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use pebble_nested::{json, DataItem, Value};

use crate::stats::{median, worse_share};
use crate::util::{command_line, Tally};
use crate::workloads::SPECS;
use crate::{bench_dir, Opts};

/// One metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Regression bound as a share of the parent's median (end-to-end only).
    pub bound: f64,
}

/// `BENCHMARK.json`: the single list of metric names, units, directions
/// and bounds. The binary reports exactly these and fails on a name it
/// cannot fill.
pub struct Registry {
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Registry {
    pub fn load(path: &Path) -> Result<Registry, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let doc = doc.as_item().ok_or("BENCHMARK.json: not an object")?;
        let defs = |key: &str| -> Result<Vec<MetricDef>, String> {
            let list = doc.get(key).and_then(Value::as_collection);
            list.ok_or(format!("BENCHMARK.json: no `{key}`"))?
                .iter()
                .map(|v| {
                    let item = v.as_item()?;
                    Some(MetricDef {
                        name: item.get("name")?.as_str()?.to_string(),
                        unit: item.get("unit")?.as_str()?.to_string(),
                        higher_is_better: item.get("better")?.as_str()? == "higher",
                        bound: item.get("bound").and_then(number).unwrap_or(0.0),
                    })
                })
                .collect::<Option<Vec<_>>>()
                .ok_or(format!("BENCHMARK.json: malformed entry in `{key}`"))
        };
        Ok(Registry {
            run_seconds: doc
                .get("run_seconds")
                .and_then(number)
                .ok_or("BENCHMARK.json: no `run_seconds`")?,
            end_to_end: defs("end_to_end")?,
            per_layer: defs("per_layer")?,
        })
    }
}

fn number(v: &Value) -> Option<f64> {
    v.as_double().or_else(|| v.as_int().map(|i| i as f64))
}

/// Metric values by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// Prints every wanted metric by name with its unit — after the end-to-end
/// metrics also the ones this box cannot resolve, which `BENCHMARK.json`
/// lists ungated among the per-layer metrics under their plain names — then
/// the result object as the last line.
pub fn print_result(
    workload: &str,
    wanted: &[MetricDef],
    unresolved: &[&MetricDef],
    metrics: &Metrics,
    tally: &Tally,
) -> Result<(), String> {
    let value_of = |def: &MetricDef| {
        let value = *metrics
            .0
            .get(&def.name)
            .ok_or(format!("metric `{}` was not measured", def.name))?;
        if value.is_finite() {
            Ok(value)
        } else {
            Err(format!("metric `{}` is {value}", def.name))
        }
    };
    let mut fields = Vec::new();
    for def in wanted {
        let value = value_of(def)?;
        println!("{workload:<20} {:<36} {value:>16.4} {}", def.name, def.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        ));
    }
    for def in unresolved {
        let value = value_of(def)?;
        println!(
            "{workload:<20} {:<36} {value:>16.4} {} (not gated)",
            def.name, def.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
    Ok(())
}

/// One child run, parsed back from its last line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    /// The `"metrics"` object verbatim, for `result.json`.
    metrics_json: String,
}

/// Runs one workload and pass in a child process of this binary, echoing
/// its report.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (report, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let parsed = json::parse(last).ok();
    let item = parsed
        .as_ref()
        .and_then(Value::as_item)
        .ok_or(format!("{workload}: no result line (exit {})", out.status))?;
    let field = |item: &DataItem, k: &str| {
        item.get(k)
            .cloned()
            .ok_or(format!("{workload}: result without `{k}`"))
    };
    let metrics_value = field(item, "metrics")?;
    let mut metrics = BTreeMap::new();
    for (name, v) in metrics_value
        .as_item()
        .ok_or("metrics is not an object")?
        .fields()
    {
        let value = v.as_item().and_then(|m| m.get("value")).and_then(number);
        metrics.insert(
            name.to_string(),
            value.ok_or(format!("{workload}: `{name}` has no value"))?,
        );
    }
    Ok(Outcome {
        correct: field(item, "correct")?.as_bool() == Some(true) && out.status.success(),
        attempted: field(item, "attempted")?.as_int().unwrap_or(0) as u64,
        failed: field(item, "failed")?.as_int().unwrap_or(0) as u64,
        metrics,
        metrics_json: json::to_string(&metrics_value),
    })
}

/// Runs every workload — once, or `--aa N` times on one seed — and writes
/// `benchmark/out/result.json`. Returns whether every run was correct and
/// every comparison held.
pub fn run_sets(opts: &Opts, registry: &Registry) -> Result<bool, String> {
    let seconds = opts.seconds(registry);
    let sets = opts.aa.max(1);
    let seed = opts.seed;
    let mut ok = true;
    let mut sets_json = Vec::new();
    // values[workload][metric] = one value per set
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for set in 0..sets {
        let mut workloads_json = Vec::new();
        for spec in &SPECS {
            println!(
                "== {} · set {} of {sets} · end-to-end pass ==",
                spec.name,
                set + 1
            );
            let e2e = child(spec.name, seed, seconds, false, opts.quick)?;
            ok &= e2e.correct;
            for (name, v) in &e2e.metrics {
                values
                    .entry(spec.name)
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(*v);
            }
            let mut entry = format!(
                "\"{}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}",
                spec.name, e2e.correct, e2e.attempted, e2e.failed, e2e.metrics_json
            );
            // Only end-to-end metrics are compared: one traced pass is enough.
            if set == 0 {
                println!("== {} · traced pass ==", spec.name);
                let layers = child(spec.name, seed, seconds, true, opts.quick)?;
                ok &= layers.correct;
                let _ = write!(
                    entry,
                    ", \"traced\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}}}, \"per_layer\": {}",
                    layers.correct, layers.attempted, layers.failed, layers.metrics_json
                );
            }
            workloads_json.push(entry + "}");
        }
        sets_json.push(format!(
            "{{\"workloads\": {{{}}}}}",
            workloads_json.join(", ")
        ));
    }

    let mut comparison = Vec::new();
    if opts.aa > 0 {
        ok &= compare_aa(registry, &values, &mut comparison);
    }

    let sizes: Vec<String> = SPECS
        .iter()
        .map(|s| format!("\"{}\": {}", s.name, s.scaled_size(opts.quick)))
        .collect();
    let stamp = format!(
        "{{\"git_commit\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\", \"seed\": {}, \"seconds\": {seconds}, \
         \"quick\": {}, \"sets\": {sets}, \"sizes\": {{{}}}}}",
        command_line("git", &["-C", &bench_dir().to_string_lossy(), "rev-parse", "HEAD"]),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        command_line("rustc", &["--version"]),
        opts.seed,
        opts.quick,
        sizes.join(", ")
    );
    let doc = format!(
        "{{\"stamp\": {stamp},\n \"sets\": [\n  {}\n ],\n \"comparison\": [\n  {}\n ]}}\n",
        sets_json.join(",\n  "),
        comparison.join(",\n  ")
    );
    let path = bench_dir().join("out").join("result.json");
    std::fs::create_dir_all(bench_dir().join("out")).map_err(|e| format!("out/: {e}"))?;
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "result written to benchmark/out/result.json ({})",
        if ok { "all checks passed" } else { "FAILED" }
    );
    Ok(ok)
}

/// `--aa`: the median of the later half of the sets against the median of
/// the earlier half, per metric and workload, and the built-in pair `dblp_join_agg` / `dblp_join_agg_spill` on the steps
/// that run on an identical segment.
fn compare_aa(
    registry: &Registry,
    values: &BTreeMap<&str, BTreeMap<String, Vec<f64>>>,
    out: &mut Vec<String>,
) -> bool {
    let mut ok = true;
    println!("== A/A: later half of the sets against the earlier half ==");
    let mut row = |label: &str, def: &MetricDef, first: f64, second: f64| {
        let worse = worse_share(first, second, def.higher_is_better);
        let held = worse <= def.bound;
        println!(
            "{label:<40} {:<24} {first:>14.4} {second:>14.4} {:>+8.2} % of ±{:.0} % {}",
            def.name,
            100.0 * worse,
            100.0 * def.bound,
            if held { "ok" } else { "BREACH" }
        );
        out.push(format!(
            "{{\"pair\": \"{label}\", \"metric\": \"{}\", \"first\": {first}, \"second\": {second}, \
             \"worse_share\": {worse}, \"bound\": {}, \"ok\": {held}}}",
            def.name, def.bound
        ));
        held
    };
    for (workload, metrics) in values {
        for def in &registry.end_to_end {
            let (early, late) = metrics[&def.name].split_at(metrics[&def.name].len() / 2);
            ok &= row(workload, def, median(early), median(late));
        }
    }
    const SHARED: [&str; 6] = [
        "cold_query_ms",
        "trace_p50_us",
        "trace_p95_us",
        "served_qps",
        "served_p50_us",
        "served_p95_us",
    ];
    for def in registry
        .end_to_end
        .iter()
        .filter(|d| SHARED.contains(&d.name.as_str()))
    {
        let side = |w: &str| median(&values[w][&def.name]);
        let (mem, spill) = (side("dblp_join_agg"), side("dblp_join_agg_spill"));
        // Neither side is the baseline: the pair holds when neither is
        // worse than the other by more than the bound.
        ok &= row("dblp_join_agg -> dblp_join_agg_spill", def, mem, spill);
        ok &= row("dblp_join_agg_spill -> dblp_join_agg", def, spill, mem);
    }
    ok
}
