//! Pinned out-of-core repros (own binary: the spill-fault plan is
//! process-global, so every test here takes `FAULT_LOCK` and nothing else
//! may share the process with an armed fault).
//!
//! Two kinds of pin:
//!
//! * **shape pins** — hand-built pipelines whose state is exactly what the
//!   budget machinery targets (a grace-partitioned join build, a spilled
//!   shuffle, a skewed flatten) run through [`check`], whose out-of-core
//!   axis re-executes them bit-for-bit at every budget of the matrix;
//! * **fault pins** — an injected spill-write failure must surface as the
//!   same typed, path-free `Display` from every configuration and from both
//!   spill layers (engine operator/bucket spill and capture-sink
//!   association spill), and the engine must run clean after `disarm`.

use std::sync::{Mutex, PoisonError};

use pebble_core::run_captured;
use pebble_dataflow::fault::{arm_spill, disarm};
use pebble_oracle::{
    check, check_malformed, generate_malformed, reference_config, AggKind, CmpKind, DatasetSpec,
    Generated, LitSpec, OpSpec, PipelineSpec, PredSpec,
};

/// Serializes tests in this binary: the spill-fault plan is process-wide.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// `events ⋈ users` rolled up per org: the join build side exercises the
/// grace-hash partitioning, the aggregation exercises the shuffle spill,
/// and every operator feeds the capture sink's association spill.
fn join_group_case() -> Generated {
    let mut events = String::new();
    for i in 0..48i64 {
        let xs: Vec<String> = (0..if i == 0 { 13 } else { i % 4 })
            .map(|x| x.to_string())
            .collect();
        events.push_str(&format!(
            "{{\"u\": {}, \"xs\": [{}]}}\n",
            i % 6,
            xs.join(", ")
        ));
    }
    let mut users = String::new();
    for i in 0..6i64 {
        users.push_str(&format!("{{\"uid\": {}, \"org\": {}}}\n", i, i % 2));
    }
    let dataset =
        DatasetSpec::from_ndjson(&[("events", events.trim_end()), ("users", users.trim_end())]);
    let spec = PipelineSpec {
        ops: vec![
            OpSpec::Read {
                source: "events".into(),
            },
            OpSpec::Flatten {
                input: 0,
                col: "xs".into(),
                new_attr: "x".into(),
            },
            OpSpec::Filter {
                input: 1,
                pred: PredSpec::Cmp {
                    path: "x".into(),
                    cmp: CmpKind::Ge,
                    lit: LitSpec::Int(1),
                },
            },
            OpSpec::Read {
                source: "users".into(),
            },
            OpSpec::Join {
                left: 2,
                right: 3,
                keys: vec![("u".into(), "uid".into())],
            },
            OpSpec::GroupAgg {
                input: 4,
                keys: vec![("org".into(), "org".into())],
                aggs: vec![
                    (AggKind::Count, "".into(), "n".into()),
                    (AggKind::Sum, "x".into(), "sx".into()),
                ],
            },
        ],
    };
    Generated {
        seed: 0,
        dataset,
        spec,
    }
}

/// Grace-hash join + spilled shuffle + capture spill, bit-identical to the
/// in-memory run through the full differential matrix (the out-of-core
/// axis inside [`check`] re-runs this at the 4096- and one-byte budgets,
/// at every worker count).
#[test]
fn oracle_pinned_join_group_spill_shape() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    assert_eq!(check(&join_group_case()), None);
}

/// One pathologically fat bag among small ones: the flatten's output
/// morsels are skewed, so spilled blocks and in-memory morsels must agree
/// on boundaries for ids to stitch identically.
#[test]
fn oracle_pinned_skewed_flatten_spill_shape() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let mut rows = String::from("{\"k\": 0, \"xs\": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]}\n");
    for i in 1..24i64 {
        rows.push_str(&format!("{{\"k\": {}, \"xs\": [{}]}}\n", i, i % 3));
    }
    let dataset = DatasetSpec::from_ndjson(&[("t", rows.trim_end())]);
    let spec = PipelineSpec {
        ops: vec![
            OpSpec::Read { source: "t".into() },
            OpSpec::Flatten {
                input: 0,
                col: "xs".into(),
                new_attr: "x".into(),
            },
            OpSpec::Union { left: 1, right: 1 },
            OpSpec::Filter {
                input: 2,
                pred: PredSpec::Cmp {
                    path: "x".into(),
                    cmp: CmpKind::Gt,
                    lit: LitSpec::Int(0),
                },
            },
        ],
    };
    let gen = Generated {
        seed: 0,
        dataset,
        spec,
    };
    assert_eq!(check(&gen), None);
}

/// An injected spill-write failure is `Display`-identical from every
/// configuration, whichever spill layer hits it first: the
/// engine's operator-output/grace-bucket/shuffle writers and the capture
/// sink's association-chunk writer all fail through the same typed,
/// path-free error. Targets: the read (a fused chain head, so the fused
/// engine only reaches it through the *capture* layer while the unfused
/// engine reaches it through the *engine* layer), the join (grace
/// buckets), and the group (shuffle buckets — also the sink, which never
/// spills its output, so only bucket and capture writes can fail).
#[test]
fn spill_fault_display_identical_across_configurations() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let gen = join_group_case();
    let program = gen.spec.compile();
    let ctx = gen.dataset.context();
    let budgeted = reference_config().mem_budget(1);

    for op in [0u32, 4, 5] {
        arm_spill(op);
        let expect = format!("spill failed at operator #{op}: injected spill-write failure");
        let runs = [
            ("fused pool w=1", run_captured(&program, &ctx, budgeted)),
            (
                "unfused pool w=1",
                run_captured(&program, &ctx, budgeted.fusion(false)),
            ),
            (
                "fused pool w=2",
                run_captured(&program, &ctx, budgeted.workers(2).morsel_rows(3)),
            ),
        ];
        disarm();
        for (name, outcome) in runs {
            let err = outcome
                .err()
                .unwrap_or_else(|| panic!("{name}: armed spill fault at op #{op} must fail"));
            assert_eq!(err.to_string(), expect, "{name}, op #{op}");
        }
    }

    // Clean after disarm: the very next budgeted run succeeds and spills.
    let run = run_captured(&program, &ctx, budgeted).expect("disarmed run must succeed");
    let spill = run.output.report.spill.expect("budgeted run reports spill");
    assert!(spill.spills > 0 && spill.capture_spills > 0);
}

/// Malformed pins: corrupted cases (UDF panics, corrupted paths) keep
/// their exact outcome — including `Display`-identical failures — under
/// the budget axis inside [`check_malformed`].
#[test]
fn malformed_pinned_seeds_agree_under_budget() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    for seed in [0u64, 7, 123, 999] {
        let gen = generate_malformed(seed);
        assert_eq!(check_malformed(&gen), None, "seed {seed}");
    }
}
