//! Pinned malformed-input repros (see `regressions/README.md`).
//!
//! Same shape as `regressions.rs`, but the pinned contract is the *error
//! path*: the engine's default shape and the referee shape
//! (`ExecMatrix::referee`: one morsel per partition, inline) must return
//! byte-identical `Err`s for inputs that panic mid-run or fail validation,
//! at every partition count — a failing run is part of the observable
//! semantics, not an accident of scheduling.

use pebble_dataflow::{run, EngineError, ExecConfig, ExecMatrix, NoSink};
use pebble_oracle::{
    check_malformed, generate_malformed, DatasetSpec, Generated, OpSpec, PipelineSpec, UdfSpec,
};

/// Runs `gen` at `parts` partitions in the default and the referee shape
/// and asserts they fail identically, returning the shared error.
fn identical_err(gen: &Generated, parts: usize) -> EngineError {
    let program = gen.spec.compile();
    let ctx = gen.dataset.context();
    let fail = |config: ExecConfig| {
        run(&program, &ctx, config, &NoSink)
            .err()
            .expect("run must fail")
    };
    let default = fail(ExecConfig::with_partitions(parts));
    let referee = fail(ExecMatrix::referee(parts));
    assert_eq!(default, referee, "errors differ at p={parts}");
    default
}

/// A UDF that panics on the first row: every shape surfaces the same
/// row-level error, naming the map operator and the first input row of
/// the first partition — at every partition count.
#[test]
fn malformed_pinned_panicking_udf() {
    let dataset =
        DatasetSpec::from_ndjson(&[("t", "{\"a\": 1}\n{\"a\": 2}\n{\"a\": 3}\n{\"a\": 4}")]);
    let spec = PipelineSpec {
        ops: vec![
            OpSpec::Read { source: "t".into() },
            OpSpec::Map {
                input: 0,
                udf: UdfSpec::PanicAlways {
                    message: "boom".into(),
                },
            },
        ],
    };
    let gen = Generated {
        seed: 0,
        dataset,
        spec,
    };
    for parts in [1, 2, 7] {
        let err = identical_err(&gen, parts);
        assert_eq!(
            err.to_string(),
            "operator #1: row 0x0: udf `panic_always` panicked: boom",
            "at p={parts}"
        );
    }
    assert_eq!(check_malformed(&gen), None);
}

/// A UDF that panics only on one row in the middle of the dataset: every
/// shape must pick the same failing row (first failure in task
/// order), not whichever worker lost the race.
#[test]
fn malformed_pinned_partial_udf_failure() {
    let dataset = DatasetSpec::from_ndjson(&[(
        "t",
        "{\"s\": \"ok\"}\n{\"s\": \"ok\"}\n{\"s\": \"poison\"}\n{\"s\": \"ok\"}\n{\"s\": \"poison\"}",
    )]);
    let spec = PipelineSpec {
        ops: vec![
            OpSpec::Read { source: "t".into() },
            OpSpec::Map {
                input: 0,
                udf: UdfSpec::PanicOnNeedle {
                    needle: "poison".into(),
                },
            },
        ],
    };
    let gen = Generated {
        seed: 0,
        dataset,
        spec,
    };
    let err = identical_err(&gen, 1);
    assert_eq!(
        err.to_string(),
        "operator #1: row 0x2: udf `panic_on_needle` panicked: refusing item containing `poison`"
    );
    for parts in [2, 7] {
        identical_err(&gen, parts);
    }
    assert_eq!(check_malformed(&gen), None);
}

/// An unresolvable flatten path: static validation rejects the program
/// before any data moves, identically in every shape and at every
/// partition count.
#[test]
fn malformed_pinned_unresolvable_path() {
    let dataset = DatasetSpec::from_ndjson(&[("t", "{\"a\": 1}\n{\"a\": 2}")]);
    let spec = PipelineSpec {
        ops: vec![
            OpSpec::Read { source: "t".into() },
            OpSpec::Flatten {
                input: 0,
                col: "__corrupt__".into(),
                new_attr: "x".into(),
            },
        ],
    };
    let gen = Generated {
        seed: 0,
        dataset,
        spec,
    };
    let p1 = identical_err(&gen, 1).to_string();
    for parts in [2, 7] {
        assert_eq!(identical_err(&gen, parts).to_string(), p1);
    }
    assert!(
        p1.contains("__corrupt__"),
        "rejection names the offending path: {p1}"
    );
    assert_eq!(check_malformed(&gen), None);
}

/// A bounded slice of the malformed fuzz corpus stays divergence-free:
/// every corrupted case yields the same outcome across the whole
/// configuration matrix.
#[test]
fn malformed_corpus_slice_agrees() {
    for seed in 0..25 {
        let gen = generate_malformed(seed);
        assert_eq!(
            check_malformed(&gen),
            None,
            "seed {seed}: {}",
            gen.spec.describe()
        );
    }
}
