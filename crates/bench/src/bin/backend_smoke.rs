//! Backend smoke for CI: every capture backend — the three built-ins and
//! the three baseline ports — prepared over the Twitter T1 scenario and
//! the running example, answering its queries byte-identically across
//! every shape of the executor matrix. Exits nonzero on any violation.

use pebble_baselines::{LazyBackend, LipstickBackend, TitianBackend};
use pebble_core::{
    run_for_backend, CaptureBackend, CapturedRun, SemiringBackend, StructuralBackend, WhyNotBackend,
};
use pebble_dataflow::{Context, ExecConfig, ExecMatrix, Program, Result};
use pebble_nested::{Path, Value};
use pebble_workloads::{running_example, scenarios, twitter_context};

fn fail(msg: &str) -> ! {
    eprintln!("backend_smoke FAILED: {msg}");
    std::process::exit(1);
}

fn backends() -> Vec<&'static dyn CaptureBackend> {
    vec![
        &StructuralBackend,
        &WhyNotBackend,
        &SemiringBackend,
        &TitianBackend,
        &LazyBackend,
        &LipstickBackend,
    ]
}

fn outcome(r: Result<Vec<String>>) -> String {
    match r {
        Ok(lines) => format!("ok:{}", lines.join("\n")),
        Err(e) => format!("err:{e}"),
    }
}

/// Queries every backend understands on this run (see the conformance
/// suite; kept identifier-free by construction).
fn queries_for(backend: &dyn CaptureBackend, baseline: &CapturedRun) -> Vec<String> {
    let mut whynot = Vec::new();
    if let Some(row) = baseline.output.rows.first() {
        for p in Path::path_set(&row.item) {
            if let Some(Value::Int(v)) = p.eval_all(&row.item).first() {
                let sp = p.to_schema_level();
                whynot.push(format!("WHYNOT {sp}={v}"));
                whynot.push(format!("WHYNOT {sp}=-987654321"));
                break;
            }
        }
    }
    if whynot.is_empty() {
        whynot.push("WHYNOT absent_attr=1".to_string());
    }
    match backend.name() {
        "structural" => vec!["BACKTRACE 0".into()],
        "whynot" => whynot,
        "semiring" => vec!["POLY 0".into(), "COUNT 0".into(), "PROB 0".into()],
        "titian" | "lazy" => vec!["TRACE 0".into()],
        "lipstick" => vec!["ANNOTATIONS".into()],
        other => fail(&format!("unknown backend `{other}`")),
    }
}

fn smoke(name: &str, program: &Program, ctx: &Context) {
    let shapes = ExecMatrix::all();
    let mut answers = 0usize;
    for backend in backends() {
        let baseline = run_for_backend(program, ctx, ExecConfig::with_partitions(1), backend)
            .unwrap_or_else(|e| fail(&format!("{name}: baseline run failed: {e}")));
        let queries = queries_for(backend, &baseline);
        let prepared = backend
            .prepare(&baseline, ctx)
            .unwrap_or_else(|e| fail(&format!("{name}/{}: prepare failed: {e}", backend.name())));
        let expected: Vec<String> = queries
            .iter()
            .map(|q| outcome(prepared.answer(q)))
            .collect();
        for (q, e) in queries.iter().zip(&expected) {
            if e.contains("does not understand") {
                fail(&format!(
                    "{name}/{}: query `{q}` not understood: {e}",
                    backend.name()
                ));
            }
        }
        for &config in &shapes {
            let run = run_for_backend(program, ctx, config, backend)
                .unwrap_or_else(|e| fail(&format!("{name}: {config:?} run failed: {e}")));
            let prepared = backend
                .prepare(&run, ctx)
                .unwrap_or_else(|e| fail(&format!("{name}: prepare at {config:?} failed: {e}")));
            for (q, want) in queries.iter().zip(&expected) {
                let got = outcome(prepared.answer(q));
                if &got != want {
                    fail(&format!(
                        "{name}/{}: `{q}` diverges at {config:?}:\n  {got}\n  vs\n  {want}",
                        backend.name()
                    ));
                }
            }
        }
        answers += queries.len() * (1 + shapes.len());
    }
    println!("backend_smoke: {name}: {answers} answers byte-identical across shapes");
}

fn main() {
    smoke(
        "running-example",
        &running_example::program(),
        &running_example::context(),
    );
    let ctx = twitter_context(48);
    let t1 = scenarios::t1();
    smoke("T1", &t1.program, &ctx);
    println!("backend smoke OK");
}
