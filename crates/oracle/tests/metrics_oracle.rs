//! Metrics-correctness sweep: the run report's per-operator row counters
//! and panic counters are cross-checked against the Tab. 5 reference
//! interpreter over generated pipelines, including malformed (panicking)
//! inputs where the report must still be produced up to the contained
//! error.

use pebble_dataflow::{run_observed, ExecConfig, NoSink, ObsConfig, OpKind, Program};
use pebble_oracle::{generate, generate_malformed, reference_config, run_reference};

/// Expected `rows_in` for operator `op` given every operator's output
/// counts: the source length for `read`, the sum of the producing
/// operators' outputs otherwise.
fn expected_rows_in(
    program: &Program,
    ctx: &pebble_dataflow::Context,
    op_counts: &[usize],
    op: usize,
) -> u64 {
    let operator = &program.operators()[op];
    match &operator.kind {
        OpKind::Read { source } => ctx.source(source).map_or(0, |s| s.len()) as u64,
        _ => operator
            .inputs
            .iter()
            .map(|&i| op_counts[i as usize] as u64)
            .sum(),
    }
}

/// 250 well-formed generated pipelines: the engine's report (metrics on,
/// multi-partition) must agree with the reference interpreter on every
/// operator's rows in and out, report zero UDF panics, and carry the
/// documented schema version.
#[test]
fn report_counters_match_reference_on_250_seeds() {
    for seed in 0..250u64 {
        let gen = generate(seed);
        let program = gen.spec.compile();
        let ctx = gen.dataset.context();

        let reference = run_reference(&program, &ctx).expect("reference run");
        let ref_counts = &reference.output.op_counts;

        for config in [reference_config(), ExecConfig::with_partitions(3)] {
            let (result, report) =
                run_observed(&program, &ctx, config, &NoSink, &ObsConfig::metrics());
            let output = result.unwrap_or_else(|e| panic!("seed {seed}: engine failed: {e}"));

            assert_eq!(report.schema_version, 3, "seed {seed}");
            assert_eq!(report.outcome, "ok", "seed {seed}");
            assert!(report.error.is_none(), "seed {seed}");
            assert!(report.metrics, "seed {seed}");
            assert_eq!(
                report.operators.len(),
                program.operators().len(),
                "seed {seed}"
            );
            assert_eq!(report.udf_panics(), 0, "seed {seed}: panics on clean run");
            assert_eq!(output.report().operators, report.operators, "seed {seed}");

            for (i, op) in report.operators.iter().enumerate() {
                assert_eq!(
                    op.rows_out, ref_counts[i] as u64,
                    "seed {seed}: op #{i} rows_out vs reference"
                );
                assert_eq!(
                    op.rows_in,
                    expected_rows_in(&program, &ctx, ref_counts, i),
                    "seed {seed}: op #{i} rows_in vs reference"
                );
                assert_eq!(op.udf_panics, 0, "seed {seed}: op #{i}");
            }
            assert!(report.morsels.executed > 0, "seed {seed}: no morsels");
            assert_eq!(
                report.morsels.executed,
                report.operators.iter().map(|o| o.morsels).sum::<u64>(),
                "seed {seed}: morsel total vs per-op morsel counts"
            );
        }
    }
}

/// 250 malformed (UDF-panicking) pipelines: the report is produced for
/// failing runs up to the contained error — full operator table, `error`
/// outcome with the pinned error text, and nonzero panic counters exactly
/// when the contained failure was a UDF panic. Cases whose injected panic
/// never fires must behave like clean runs.
#[test]
fn report_produced_for_250_malformed_seeds() {
    let mut failing = 0u32;
    for seed in 0..250u64 {
        let gen = generate_malformed(seed);
        let program = gen.spec.compile();
        let ctx = gen.dataset.context();
        let config = ExecConfig::with_partitions(2);

        let (result, report) = run_observed(&program, &ctx, config, &NoSink, &ObsConfig::metrics());

        assert_eq!(report.schema_version, 3, "seed {seed}");
        assert_eq!(
            report.operators.len(),
            program.operators().len(),
            "seed {seed}: failing runs still report the full operator table"
        );

        match result {
            Ok(_) => {
                assert_eq!(report.outcome, "ok", "seed {seed}");
                assert_eq!(report.udf_panics(), 0, "seed {seed}");
            }
            Err(err) => {
                failing += 1;
                assert_eq!(report.outcome, "error", "seed {seed}");
                assert_eq!(
                    report.error.as_deref(),
                    Some(err.to_string().as_str()),
                    "seed {seed}: report carries the contained error"
                );
                // Cross-check the panic counters against the error kind the
                // executor matrix pins: a contained UDF panic must be
                // counted on a UDF-capable operator, and vice versa.
                if err.to_string().contains("panicked") {
                    assert!(
                        report.udf_panics() >= 1,
                        "seed {seed}: panic error but zero panic counters"
                    );
                    for op in &report.operators {
                        if op.udf_panics > 0 {
                            assert!(op.udf, "seed {seed}: panic counted on non-UDF op");
                        }
                    }
                } else {
                    assert_eq!(
                        report.udf_panics(),
                        0,
                        "seed {seed}: non-panic failure must not count panics"
                    );
                }
            }
        }
    }
    assert!(
        failing >= 50,
        "malformed sweep degenerated: only {failing} failing cases"
    );
}
