//! Backend-conformance suite: every capture backend — the three built-ins
//! and the three baseline ports — answers its queries byte-identically
//! across the engine's whole configuration matrix (`ExecMatrix::all`:
//! partitions × scheduler and budget shapes), because backends consume
//! only the assembled `CapturedRun` and render identifier-free quantities.

use pebble_baselines::{LazyBackend, LipstickBackend, TitianBackend};
use pebble_core::{
    run_captured, run_for_backend, CaptureBackend, CapturedRun, SemiringBackend, StructuralBackend,
    WhyNotBackend,
};
use pebble_dataflow::{Context, ExecConfig, ExecMatrix, Program, Result};
use pebble_nested::{Path, Value};
use pebble_workloads::{running_example, scenarios, twitter_context};

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

/// Renders an answer outcome (answers and errors both count — error text
/// must be shape-invariant too).
fn outcome(r: Result<Vec<String>>) -> String {
    match r {
        Ok(lines) => format!("ok:{}", lines.join("\n")),
        Err(e) => format!("err:{e}"),
    }
}

/// A why-not question derived from the baseline run: one condition a row
/// satisfies (the `found` answer) and one nothing satisfies.
fn whynot_queries(run: &CapturedRun) -> Vec<String> {
    let mut queries = Vec::new();
    if let Some(row) = run.output.rows.first() {
        for p in Path::path_set(&row.item) {
            let vals = p.eval_all(&row.item);
            if let Some(Value::Int(v)) = vals.first() {
                let sp = p.to_schema_level();
                queries.push(format!("WHYNOT {sp}={v}"));
                queries.push(format!("WHYNOT {sp}=-987654321"));
                break;
            }
        }
    }
    if queries.is_empty() {
        queries.push("WHYNOT absent_attr=1".to_string());
    }
    queries
}

fn queries_for(backend: &dyn CaptureBackend, baseline: &CapturedRun) -> Vec<String> {
    let last = baseline.output.rows.len().saturating_sub(1);
    match backend.name() {
        "structural" => vec!["BACKTRACE 0".into(), format!("BACKTRACE {last}")],
        "whynot" => whynot_queries(baseline),
        "semiring" => vec!["POLY 0".into(), "COUNT 0".into(), format!("PROB {last}")],
        "titian" | "lazy" => vec!["TRACE 0".into(), format!("TRACE {last}")],
        "lipstick" => vec!["ANNOTATIONS".into()],
        other => panic!("unknown backend `{other}`"),
    }
}

fn assert_conformance(name: &str, program: &Program, ctx: &Context) {
    let backends = backends();
    let baseline_runs: Vec<CapturedRun> = backends
        .iter()
        .map(|b| run_for_backend(program, ctx, ExecConfig::with_partitions(1), *b).unwrap())
        .collect();
    for (backend, baseline_run) in backends.iter().zip(&baseline_runs) {
        let queries = queries_for(*backend, baseline_run);
        let prepared = backend.prepare(baseline_run, ctx).unwrap();
        let expected: Vec<String> = queries
            .iter()
            .map(|q| outcome(prepared.answer(q)))
            .collect();
        // Every answer must produce output or a deliberate error, never an
        // accidental unknown-query rejection.
        for (q, e) in queries.iter().zip(&expected) {
            assert!(
                !e.contains("does not understand"),
                "{name}/{}: query `{q}` not understood: {e}",
                backend.name()
            );
        }
        for config in ExecMatrix::all() {
            let run = run_for_backend(program, ctx, config, *backend).unwrap();
            let prepared = backend.prepare(&run, ctx).unwrap();
            for (q, want) in queries.iter().zip(&expected) {
                let got = outcome(prepared.answer(q));
                assert_eq!(
                    &got,
                    want,
                    "{name}/{}: query `{q}` diverges at {config:?}",
                    backend.name()
                );
            }
        }
    }
}

#[test]
fn running_example_conforms() {
    assert_conformance(
        "running-example",
        &running_example::program(),
        &running_example::context(),
    );
}

#[test]
fn twitter_t1_conforms() {
    let ctx = twitter_context(24);
    let s = scenarios::t1();
    assert_conformance("T1", &s.program, &ctx);
}

#[test]
fn twitter_t2_conforms() {
    let ctx = twitter_context(24);
    let s = scenarios::t2();
    assert_conformance("T2", &s.program, &ctx);
}

/// Lipstick annotates values row at a time, but over the *captured run*:
/// the engine executes its program on the same kernels as everyone else's,
/// and the answer is the one a plain `run_captured` of that config gives.
#[test]
fn lipstick_runs_on_the_engine_path() {
    let ctx = running_example::context();
    let program = running_example::program();
    let config = ExecConfig::with_partitions(1);
    let run = run_for_backend(&program, &ctx, config, &LipstickBackend).unwrap();
    let report = &run.output.report;
    assert_eq!(report.backend.as_ref().unwrap().name, "lipstick");
    assert!(report.columnar.is_some());

    let plain = run_captured(&program, &ctx, config).unwrap();
    assert!(plain.output.report.columnar.is_some());
    assert_eq!(run.output.rows, plain.output.rows);
    assert_eq!(run.ops, plain.ops);
    let answer = |r: &CapturedRun| {
        let prepared = LipstickBackend.prepare(r, &ctx).unwrap();
        outcome(prepared.answer("ANNOTATIONS"))
    };
    assert_eq!(answer(&run), answer(&plain));
}
