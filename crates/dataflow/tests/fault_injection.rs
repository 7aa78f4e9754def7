//! Panic-/error-injection harness (own binary: the fault plan is
//! process-global, so these tests must not share a process with other
//! engine executions).
//!
//! Arms deterministic faults via `pebble_dataflow::fault` and checks the
//! containment contract end to end: a row-level injected error or an
//! injected panic inside a morsel surfaces as the same typed
//! `EngineError` — pinned literally — at every shape of the executor
//! matrix, inline and pooled, in memory and spilled, and the engine runs
//! the next pipeline normally afterwards.

use std::sync::{Mutex, PoisonError};

use pebble_dataflow::fault::{arm, disarm, FaultKind, FaultPlan};
use pebble_dataflow::{
    context::items_of, run, Context, EngineError, ExecConfig, ExecMatrix, Expr, NoSink,
    ProgramBuilder,
};
use pebble_nested::Value;

/// Serializes tests in this binary: the fault plan is process-wide.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn ctx(rows: i64) -> Context {
    let mut c = Context::new();
    c.register(
        "t",
        items_of((0..rows).map(|i| vec![("v", Value::Int(i))]).collect()),
    );
    c
}

/// `read → filter` with an always-true predicate; returns the program and
/// the filter's operator id (the unit head the faults target).
fn program() -> (pebble_dataflow::Program, u32) {
    let mut b = ProgramBuilder::new();
    let r = b.read("t");
    let f = b.filter(r, Expr::col("v").ge(Expr::lit(0i64)));
    (b.build(f), f)
}

/// An injected row-level error is attributed to the same `(operator,
/// row)` at every shape: sequence numbers restart per partition and the
/// lowest task wins, so the winning row is partition 0's row 1 everywhere.
#[test]
fn injected_error_is_identical_across_shapes() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (program, filter_op) = program();
    let c = ctx(32);
    arm(FaultPlan {
        op: filter_op,
        seq: 1,
        kind: FaultKind::Error,
    });
    for cfg in ExecMatrix::all() {
        let err = run(&program, &c, cfg, &NoSink)
            .err()
            .expect("armed run must fail");
        assert_eq!(
            err.to_string(),
            "operator #1: row 0x1: injected fault at sequence 1",
            "{cfg:?}"
        );
    }
    disarm();
}

/// An injected morsel panic is contained by the `catch_unwind` boundary,
/// converted to `EngineError::WorkerPanic` with the panic payload, and
/// reported identically at every shape; after disarming, the very next
/// run succeeds — no worker died, no morsel queue was left hanging.
#[test]
fn injected_panic_is_contained_and_engine_recovers() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (program, filter_op) = program();
    let c = ctx(32);
    arm(FaultPlan {
        op: filter_op,
        seq: 1,
        kind: FaultKind::Panic,
    });
    for cfg in ExecMatrix::all() {
        let err = run(&program, &c, cfg, &NoSink)
            .err()
            .expect("armed run must fail");
        assert_eq!(
            err,
            EngineError::WorkerPanic {
                payload: "injected fault: operator #1 poisoned at sequence 1".into(),
            },
            "{cfg:?}"
        );
    }
    disarm();
    for cfg in ExecMatrix::all() {
        let out = run(&program, &c, cfg, &NoSink).expect("post-fault run succeeds");
        assert_eq!(out.rows.len(), 32, "{cfg:?}");
    }
}

/// Back-to-back failing and succeeding runs interleave cleanly: the
/// process-global plan can be re-armed after a recovery without residue.
#[test]
fn rearming_after_recovery_fires_again() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (program, filter_op) = program();
    let c = ctx(16);
    let cfg = ExecConfig::with_partitions(4).workers(4).morsel_rows(3);
    for round in 0..3 {
        arm(FaultPlan {
            op: filter_op,
            seq: 0,
            kind: FaultKind::Panic,
        });
        assert!(
            run(&program, &c, cfg, &NoSink).is_err(),
            "round {round} armed run fails"
        );
        disarm();
        let out = run(&program, &c, cfg, &NoSink).expect("disarmed run succeeds");
        assert_eq!(out.rows.len(), 16, "round {round}");
    }
}
