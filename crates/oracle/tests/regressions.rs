//! Pinned differential repros (see `regressions/README.md`).
//!
//! Tests in this file are in exactly the shape `oracle_fuzz` emits for a
//! minimized divergence: an NDJSON dataset, a `PipelineSpec` literal, and
//! `assert_eq!(check(&gen), None)`. The fuzzer has not surfaced a real
//! divergence yet (seeds `0..5000` are clean), so the cases below are
//! hand-pinned edge cases in the same form — each one picked because the
//! construct historically differs between naive and optimized engines.

use pebble_core::{backtrace, run_captured, PatternNode, TreePattern};
use pebble_oracle::{
    check, generate, reference_config, AggKind, CmpKind, ColSpec, DatasetSpec, Generated, LitSpec,
    OpSpec, PipelineSpec, PredSpec,
};

/// Flatten over an empty bag, a missing attribute, and a scalar mix:
/// rows that produce zero output each, in a chain that fuses.
#[test]
fn oracle_pinned_flatten_degenerate_collections() {
    let dataset = DatasetSpec::from_ndjson(&[(
        "t",
        "{\"k\": 1, \"xs\": []}\n{\"k\": 2, \"xs\": [10, 20]}\n{\"k\": 3}\n{\"k\": 4, \"xs\": [30]}",
    )]);
    let spec = PipelineSpec {
        ops: vec![
            OpSpec::Read { source: "t".into() },
            OpSpec::Flatten {
                input: 0,
                col: "xs".into(),
                new_attr: "x".into(),
            },
            OpSpec::Filter {
                input: 1,
                pred: PredSpec::Cmp {
                    path: "x".into(),
                    cmp: CmpKind::Gt,
                    lit: LitSpec::Int(10),
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

/// Self-union: the read is a multi-consumer node (fusion boundary), and
/// the union doubles every identifier lineage.
#[test]
fn oracle_pinned_self_union_multi_consumer() {
    let dataset = DatasetSpec::from_ndjson(&[("t", "{\"a\": 1}\n{\"a\": 2}\n{\"a\": 3}")]);
    let spec = PipelineSpec {
        ops: vec![
            OpSpec::Read { source: "t".into() },
            OpSpec::Filter {
                input: 0,
                pred: PredSpec::Cmp {
                    path: "a".into(),
                    cmp: CmpKind::Ge,
                    lit: LitSpec::Int(2),
                },
            },
            OpSpec::Union { left: 1, right: 1 },
            OpSpec::Select {
                input: 2,
                cols: vec![ColSpec::Path {
                    name: "b".into(),
                    path: "a".into(),
                }],
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

/// Grouping with null keys, a group that aggregates only nulls, and both
/// whole-item nesting and scalar aggregates side by side.
#[test]
fn oracle_pinned_group_aggregate_null_keys() {
    let dataset = DatasetSpec::from_ndjson(&[(
        "t",
        "{\"k\": \"a\", \"v\": 1}\n{\"v\": 2}\n{\"k\": \"a\"}\n{\"k\": \"b\", \"v\": null}",
    )]);
    let spec = PipelineSpec {
        ops: vec![
            OpSpec::Read { source: "t".into() },
            OpSpec::GroupAgg {
                input: 0,
                keys: vec![("k".into(), "k".into())],
                aggs: vec![
                    (AggKind::Count, String::new(), "n".into()),
                    (AggKind::Sum, "v".into(), "total".into()),
                    (AggKind::CollectList, "v".into(), "vs".into()),
                    (AggKind::CollectList, String::new(), "items".into()),
                ],
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

/// Join where one side has duplicate keys, null keys, and a renamed
/// right-hand key column in the merged schema.
#[test]
fn oracle_pinned_join_duplicate_and_null_keys() {
    let dataset = DatasetSpec::from_ndjson(&[
        (
            "l",
            "{\"k\": 1, \"lv\": \"a\"}\n{\"k\": 1, \"lv\": \"b\"}\n{\"lv\": \"c\"}",
        ),
        (
            "r",
            "{\"k\": 1, \"rv\": \"x\"}\n{\"k\": 2, \"rv\": \"y\"}\n{\"k\": null, \"rv\": \"z\"}",
        ),
    ]);
    let spec = PipelineSpec {
        ops: vec![
            OpSpec::Read { source: "l".into() },
            OpSpec::Read { source: "r".into() },
            OpSpec::Join {
                left: 0,
                right: 1,
                keys: vec![("k".into(), "k".into())],
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

/// A pipeline whose sink is empty: every downstream structure (capture
/// tables, backtraces, partitioned runs) must agree on "nothing".
#[test]
fn oracle_pinned_empty_result() {
    let dataset = DatasetSpec::from_ndjson(&[("t", "{\"a\": 1}\n{\"a\": 2}")]);
    let spec = PipelineSpec {
        ops: vec![
            OpSpec::Read { source: "t".into() },
            OpSpec::Filter {
                input: 0,
                pred: PredSpec::Cmp {
                    path: "a".into(),
                    cmp: CmpKind::Gt,
                    lit: LitSpec::Int(100),
                },
            },
            OpSpec::GroupAgg {
                input: 1,
                keys: vec![("k".into(), "a".into())],
                aggs: vec![(AggKind::Count, String::new(), "n".into())],
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

/// Seed 288 is `tweets ⋈ tweets` on `user.verified`. The right tweet's
/// `text` comes out as `text_r`, so a question on `text` names only the
/// left tweet's text; the right tweet contributes nothing to it (it only
/// influences through the join key).
#[test]
fn oracle_pinned_self_join_right_side_keeps_its_own_roots() {
    let gen = generate(288);
    assert_eq!(gen.spec.describe(), "read>read>join");
    assert_eq!(check(&gen), None);
    let run = run_captured(
        &gen.spec.compile(),
        &gen.dataset.context(),
        reference_config(),
    )
    .unwrap();
    let question = TreePattern::root()
        .node(PatternNode::attr("text"))
        .match_rows(&run.output.rows);
    let sources = backtrace(&run, question).unwrap();
    assert_eq!(sources.len(), 2);
    for source in &sources {
        let want: &[&str] = if source.read_op == 0 { &["text"] } else { &[] };
        assert!(!source.entries.is_empty(), "read #{}", source.read_op);
        for e in &source.entries {
            let contributing: Vec<String> = e
                .tree
                .contributing_paths()
                .iter()
                .map(ToString::to_string)
                .collect();
            assert_eq!(
                contributing, want,
                "read #{} item {}",
                source.read_op, e.index
            );
        }
    }
}
