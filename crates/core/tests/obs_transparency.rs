//! Observation transparency: reading the run report must not perturb the
//! run. Executions with metrics and tracing enabled are byte-identical —
//! rows, identifiers, association tables, and backtrace answers — to
//! executions with observability disabled, at every partition count.
//!
//! This is the metamorphic guarantee documented on
//! [`pebble_dataflow::RunOutput::report`]: telemetry is read-only.

use std::sync::Arc;

use pebble_core::{
    backtrace, canonical_provenance, run_captured_observed, Backtrace, BacktraceIndex, ProvTree,
};
use pebble_dataflow::{
    context::items_of, run, run_observed, AggFunc, AggSpec, Context, ExecConfig, ExecMatrix, Expr,
    GroupKey, MapUdf, NoSink, ObsConfig, Program, ProgramBuilder,
};
use pebble_nested::{Path, Value};

fn ctx() -> Context {
    let mut c = Context::new();
    c.register(
        "events",
        items_of(vec![
            vec![
                ("user", Value::str("ada")),
                ("score", Value::Int(3)),
                (
                    "tags",
                    Value::Bag(vec![Value::str("a"), Value::str("b"), Value::str("c")]),
                ),
            ],
            vec![
                ("user", Value::str("bob")),
                ("score", Value::Int(7)),
                ("tags", Value::Bag(vec![Value::str("b")])),
            ],
            vec![
                ("user", Value::str("cyd")),
                ("score", Value::Int(1)),
                ("tags", Value::Bag(vec![Value::str("a"), Value::str("a")])),
            ],
            vec![
                ("user", Value::str("bob")),
                ("score", Value::Int(4)),
                ("tags", Value::Bag(vec![Value::str("c"), Value::str("a")])),
            ],
        ]),
    );
    c.register(
        "users",
        items_of(vec![
            vec![("name", Value::str("ada")), ("org", Value::str("x"))],
            vec![("name", Value::str("bob")), ("org", Value::str("y"))],
        ]),
    );
    c
}

/// A DAG covering every structural operator plus an opaque map, so the
/// invariant is checked across all association-table shapes.
fn program() -> Program {
    let mut b = ProgramBuilder::new();
    let r = b.read("events");
    let f = b.filter(r, Expr::col("score").ge(Expr::lit(2i64)));
    let fl = b.flatten(f, "tags", "tag");
    let users = b.read("users");
    let j = b.join(fl, users, vec![(Path::attr("user"), Path::attr("name"))]);
    let u = b.union(j, j);
    let m = b.map(
        u,
        MapUdf {
            name: "noop".into(),
            f: Arc::new(Clone::clone),
            output_schema: None,
        },
    );
    let g = b.group_aggregate(
        m,
        vec![GroupKey::new("tag")],
        vec![
            AggSpec::new(AggFunc::Count, "", "n"),
            AggSpec::new(AggFunc::CollectList, "user", "users"),
        ],
    );
    b.build(g)
}

/// Whole-item backtrace question for one output row.
fn whole_item(row: &pebble_dataflow::Row) -> Backtrace {
    let paths = Path::path_set(&row.item);
    Backtrace {
        entries: vec![(row.id, ProvTree::from_paths(paths.iter()))],
    }
}

fn trace_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "pebble-obs-transparency-{}-{tag}.ndjson",
        std::process::id()
    ))
}

/// Captured runs with full observability (metrics + tracing) vs disabled:
/// rows, ids, per-op counts, association tables, and backtraces are all
/// byte-identical.
#[test]
fn metrics_on_off_runs_are_byte_identical() {
    let c = ctx();
    let p = program();
    for parts in ExecMatrix::partitions() {
        let config = ExecConfig::with_partitions(parts);
        let path = trace_path(&format!("p{parts}"));
        let _ = std::fs::remove_file(&path);
        let observed_cfg = ObsConfig {
            metrics: true,
            trace_path: Some(path.to_string_lossy().into_owned()),
        };

        let (off, off_report) = run_captured_observed(&p, &c, config, &ObsConfig::disabled());
        let (on, on_report) = run_captured_observed(&p, &c, config, &observed_cfg);
        let off = off.unwrap();
        let on = on.unwrap();

        // The reports differ (one carries timings), the runs must not.
        assert!(!off_report.metrics && on_report.metrics);
        assert_eq!(off.output.rows, on.output.rows, "p={parts}: rows or ids");
        assert_eq!(
            off.output.op_counts, on.output.op_counts,
            "p={parts}: op counts"
        );
        assert_eq!(
            off.output.op_schemas, on.output.op_schemas,
            "p={parts}: schemas"
        );
        for (a, b) in off.ops.iter().zip(&on.ops) {
            assert_eq!(a, b, "p={parts}: association tables");
        }

        // Even structural (always-on) counters agree between the two modes.
        assert_eq!(off_report.morsels, on_report.morsels, "p={parts}: morsels");
        for (a, b) in off_report.operators.iter().zip(&on_report.operators) {
            assert_eq!(
                (a.rows_in, a.rows_out, a.morsels),
                (b.rows_in, b.rows_out, b.morsels),
                "p={parts}: per-op structural counters"
            );
        }
        // So do the vectorized-kernel counters, which every run reports.
        let col_off = off_report.columnar.as_ref().expect("kernel stats, off");
        let col_on = on_report.columnar.as_ref().expect("kernel stats, on");
        assert_eq!(col_off, col_on, "p={parts}: kernel counters");
        assert!(on_report.to_json().contains("\"columnar\": {"));

        // Backtracing the whole first output row gives identical raw and
        // canonical answers.
        let row_off = &off.output.rows[0];
        let row_on = &on.output.rows[0];
        assert_eq!(row_off.id, row_on.id);
        let q_off = whole_item(row_off);
        let q_on = whole_item(row_on);
        let idx_off = BacktraceIndex::build(&off);
        let idx_on = BacktraceIndex::build(&on);
        let a = pebble_core::backtrace_with(&off, &idx_off, q_off).unwrap();
        let b = pebble_core::backtrace_with(&on, &idx_on, q_on).unwrap();
        assert_eq!(a, b, "p={parts}: backtrace answers");
        assert_eq!(canonical_provenance(&a), canonical_provenance(&b));

        // The trace file was actually produced by the observed run.
        let trace = std::fs::read_to_string(&path).expect("trace file written");
        assert!(!trace.is_empty(), "p={parts}: empty trace");
        let _ = std::fs::remove_file(&path);
    }
}

/// The same guarantee for plain (uncaptured) runs: `run` and `run_observed`
/// with metrics on return identical outputs.
#[test]
fn plain_run_unperturbed_by_metrics() {
    let c = ctx();
    let p = program();
    for parts in ExecMatrix::partitions() {
        let config = ExecConfig::with_partitions(parts);
        let plain = run(&p, &c, config, &NoSink).unwrap();
        let (observed, report) = run_observed(&p, &c, config, &NoSink, &ObsConfig::metrics());
        let observed = observed.unwrap();
        assert!(report.metrics);
        assert!(plain.report.columnar.is_some() && report.columnar.is_some());
        assert_eq!(plain.rows, observed.rows, "p={parts}");
        assert_eq!(plain.op_counts, observed.op_counts, "p={parts}");
    }
}

/// Backtracing still works against a run whose report was read first —
/// reading the report takes no locks and moves no data.
#[test]
fn reading_report_then_backtracing() {
    let c = ctx();
    let p = program();
    let (run, report) = run_captured_observed(
        &p,
        &c,
        ExecConfig::with_partitions(2),
        &ObsConfig::metrics(),
    );
    let run = run.unwrap();
    assert!(report.columnar.is_some());
    let json = report.to_json();
    assert!(json.contains("\"schema_version\":3") || json.contains("\"schema_version\": 3"));
    let row = &run.output.rows[0];
    let sources = backtrace(&run, whole_item(row)).unwrap();
    assert!(!sources.is_empty());
}
