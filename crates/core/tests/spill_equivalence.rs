//! Out-of-core equivalence: a run under a memory budget is specified to be
//! *indistinguishable* from the in-memory run — same rows, same
//! identifiers, byte-identical association tables, identical backtrace
//! answers — at every budget, worker count, and morsel size. The budget may
//! only change where intermediate state lives, never what the run computes.

use std::sync::{Arc, Mutex, PoisonError};

use pebble_core::{backtrace, run_captured, Backtrace, ProvTree};
use pebble_dataflow::{
    context::items_of, AggFunc, AggSpec, Context, ExecConfig, ExecMatrix, Expr, GroupKey, MapUdf,
    NamedExpr, Program, ProgramBuilder, Shape,
};
use pebble_nested::{Path, Value};

/// Serializes the budgeted captures of this binary: the spill-fault plan is
/// process-wide, so an armed fault would fail whichever capture spills next.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn ctx() -> Context {
    let mut c = Context::new();
    let events: Vec<Vec<(&str, Value)>> = (0..60i64)
        .map(|i| {
            let tags = if i == 0 { 17 } else { i % 5 };
            vec![
                ("user", Value::Int(i % 9)),
                ("score", Value::Int(i)),
                ("tags", Value::Bag((0..tags).map(Value::Int).collect())),
            ]
        })
        .collect();
    c.register("events", items_of(events));
    c.register(
        "users",
        items_of(
            (0..9i64)
                .map(|i| vec![("uid", Value::Int(i)), ("org", Value::Int(i % 3))])
                .collect(),
        ),
    );
    c
}

/// Every structural operator in one DAG: flatten, self-union, join, opaque
/// map, grouping with nesting.
fn dag_program() -> Program {
    let mut b = ProgramBuilder::new();
    let r = b.read("events");
    let fl = b.flatten(r, "tags", "tag");
    let f = b.filter(fl, Expr::col("tag").ge(Expr::lit(1i64)));
    let u = b.union(f, f);
    let users = b.read("users");
    let j = b.join(u, users, vec![(Path::attr("user"), Path::attr("uid"))]);
    let m = b.map(
        j,
        MapUdf {
            name: "noop".into(),
            f: Arc::new(Clone::clone),
            output_schema: None,
        },
    );
    let s = b.select(
        m,
        vec![
            NamedExpr::path("org"),
            NamedExpr::path("score"),
            NamedExpr::path("tag"),
        ],
    );
    let g = b.group_aggregate(
        s,
        vec![GroupKey::new("org")],
        vec![
            AggSpec::new(AggFunc::Count, "", "n"),
            AggSpec::new(AggFunc::CollectList, "score", "scores"),
        ],
    );
    b.build(g)
}

/// Whole-item backtrace of every sink row, serialized for comparison.
fn all_backtraces(run: &pebble_core::CapturedRun) -> String {
    let mut out = String::new();
    for row in &run.output.rows {
        let paths = Path::path_set(&row.item);
        let tree = ProvTree::from_paths(paths.iter());
        let bt = Backtrace {
            entries: vec![(row.id, tree)],
        };
        for src in backtrace(run, bt).unwrap() {
            out.push_str(&format!("{src:?}\n"));
        }
    }
    out
}

/// Budgeted capture vs in-memory capture: identical rows, identifiers,
/// association tables and backtraces, with real spill traffic (engine and
/// capture layer both) reported at every budget of the matrix's budget
/// axis, at every worker count.
#[test]
fn budgeted_capture_is_byte_identical() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let c = ctx();
    let p = dag_program();
    let baseline = run_captured(&p, &c, ExecConfig::with_partitions(3)).unwrap();
    assert!(baseline.output.report.spill.is_none());
    let expected_traces = all_backtraces(&baseline);

    let budgeted = ExecMatrix::budget()
        .into_iter()
        .filter(|s| s.mem_budget > 0);
    for shape in budgeted.flat_map(|s| ExecMatrix::WORKERS.map(|workers| Shape { workers, ..s })) {
        let cfg = shape.at(3);
        let alt = run_captured(&p, &c, cfg).unwrap();
        assert_eq!(
            baseline.output.rows, alt.output.rows,
            "{shape}: rows or ids diverged"
        );
        assert_eq!(baseline.output.op_counts, alt.output.op_counts, "{shape}");
        for (b, a) in baseline.ops.iter().zip(&alt.ops) {
            assert_eq!(
                b.assoc, a.assoc,
                "{shape}: association table of op #{} diverged",
                b.oid
            );
        }
        assert_eq!(
            expected_traces,
            all_backtraces(&alt),
            "{shape}: backtrace answers diverged"
        );
        let spill = alt
            .output
            .report
            .spill
            .as_ref()
            .expect("budgeted run must report spill stats");
        assert!(spill.spills > 0, "{shape}: engine never spilled");
        assert!(
            spill.capture_spills > 0,
            "{shape}: capture layer never spilled"
        );
        assert!(spill.capture_spill_bytes > 0);

        // Fusion stays transparent under a budget too.
        let unfused = run_captured(&p, &c, cfg.fusion(false)).unwrap();
        assert_eq!(baseline.output.rows, unfused.output.rows);
        for (b, a) in baseline.ops.iter().zip(&unfused.ops) {
            assert_eq!(b.assoc, a.assoc, "{shape} unfused: op #{}", b.oid);
        }
    }
}

/// An injected spill-write failure surfaces as the same typed, path-free
/// error from the engine layer (operator output spill) and the capture
/// layer (association chunk spill).
#[test]
fn spill_fault_is_deterministic_and_path_free() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let c = ctx();
    let p = dag_program();
    let cfg = ExecConfig::with_partitions(3).mem_budget(1);
    // Operator 5 is the join: its build side spills through the grace path.
    pebble_dataflow::fault::arm_spill(5);
    let err = run_captured(&p, &c, cfg)
        .err()
        .expect("armed spill fault must fail the run");
    pebble_dataflow::fault::disarm();
    assert_eq!(
        err.to_string(),
        "spill failed at operator #5: injected spill-write failure"
    );
    // Clean after disarm.
    assert!(run_captured(&p, &c, cfg).is_ok());
}
