//! Observational identity of the zero-copy value representation.
//!
//! The interned-[`Label`]/`Arc`-backed representation of items must be
//! invisible to every consumer: JSON serialization round-trips byte for
//! byte, plain and captured executions of generated pipelines emit
//! byte-identical NDJSON (capture cannot perturb results, and the fused
//! per-row pipeline cannot diverge from the unfused semantics), and a
//! checked-in golden fixture pins the exact output bytes of a pipeline
//! exercising fusion, flatten, and aggregation — at every shape of
//! `ExecMatrix::suite(3)`.
//!
//! Re-bless the fixture with `BLESS=1 cargo test -p pebble-core
//! --test representation_equivalence` after an *intentional* output change.

use proptest::prelude::*;

use pebble_core::run_captured;
use pebble_dataflow::{
    context::items_of, Context, ExecConfig, ExecMatrix, Expr, NamedExpr, NoSink, Program,
    ProgramBuilder, RunOutput,
};
use pebble_nested::{json, DataItem, Label, Value};

fn ndjson(out: &RunOutput) -> String {
    let mut s = String::new();
    for item in out.iter_items() {
        s.push_str(&json::item_to_string(item));
        s.push('\n');
    }
    s
}

// ---------------------------------------------------------------------------
// JSON roundtrip
// ---------------------------------------------------------------------------

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1e15f64..1e15).prop_map(Value::Double),
        "[ -~]{0,12}".prop_map(Value::str),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Bag),
            item_strategy_from(inner).prop_map(Value::Item),
        ]
    })
}

fn item_strategy_from(
    inner: impl Strategy<Value = Value> + Clone,
) -> impl Strategy<Value = DataItem> {
    prop::collection::btree_map("[a-z][a-z0-9_]{0,5}", inner, 0..4).prop_map(|m| {
        let mut d = DataItem::new();
        for (k, v) in m {
            d.push(k, v);
        }
        d
    })
}

proptest! {
    /// Serialize → parse → serialize is byte-identical: the shared-payload
    /// representation introduces no observable difference in how values
    /// print, and parsing reconstructs an equal value.
    #[test]
    fn json_roundtrip_is_byte_identical(v in value_strategy()) {
        let first = json::to_string(&v);
        let reparsed = json::parse(&first).expect("own output must parse");
        prop_assert_eq!(&reparsed, &v);
        let second = json::to_string(&reparsed);
        prop_assert_eq!(first, second);
    }

    /// Labels coming out of parsing intern to the same handles as labels
    /// built directly, and items compare equal regardless of which route
    /// produced their attribute names.
    #[test]
    fn parsed_items_equal_constructed_items(item in item_strategy_from(value_strategy().boxed())) {
        let text = json::item_to_string(&item);
        let parsed = match json::parse(&text).expect("own output must parse") {
            Value::Item(d) => d,
            other => panic!("item must parse as item, got {other:?}"),
        };
        prop_assert_eq!(&parsed, &item);
        let mut rebuilt = DataItem::new();
        for (name, value) in item.fields() {
            rebuilt.push(Label::new(name), value.clone());
        }
        prop_assert_eq!(rebuilt, item);
    }
}

// ---------------------------------------------------------------------------
// Capture–replay equivalence over generated pipelines
// ---------------------------------------------------------------------------

/// One per-row stage of a generated pipeline over the fixed row schema
/// `{k, v, tags}`. Chains of these are exactly what the engine fuses.
#[derive(Clone, Debug)]
enum GenStage {
    FilterLe(i64),
    /// Identity projection of all three columns — schema-preserving, so
    /// stages compose freely.
    SelectAll,
}

#[derive(Clone, Debug)]
struct GenPipeline {
    stages: Vec<GenStage>,
    flatten_tags: bool,
    group: bool,
}

fn row_strategy() -> impl Strategy<Value = (String, i64, Vec<i64>)> {
    ("[a-d]", -20i64..20, prop::collection::vec(0i64..9, 0..4))
}

fn pipeline_strategy() -> impl Strategy<Value = GenPipeline> {
    let stage = prop_oneof![
        (-20i64..20).prop_map(GenStage::FilterLe),
        Just(GenStage::SelectAll),
    ];
    (
        prop::collection::vec(stage, 1..5),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(stages, flatten_tags, group)| GenPipeline {
            stages,
            flatten_tags,
            group,
        })
}

fn build(p: &GenPipeline) -> Program {
    use pebble_dataflow::{AggFunc, AggSpec, GroupKey};
    let mut b = ProgramBuilder::new();
    let mut cur = b.read("rows");
    for stage in &p.stages {
        cur = match stage {
            GenStage::FilterLe(c) => b.filter(cur, Expr::col("v").le(Expr::lit(*c))),
            GenStage::SelectAll => b.select(
                cur,
                vec![
                    NamedExpr::path("k"),
                    NamedExpr::path("v"),
                    NamedExpr::path("tags"),
                ],
            ),
        };
    }
    if p.flatten_tags {
        cur = b.flatten(cur, "tags", "tag");
    }
    if p.group {
        cur = b.group_aggregate(
            cur,
            vec![GroupKey::new("k")],
            vec![AggSpec::new(AggFunc::Sum, "v", "sum_v")],
        );
    }
    b.build(cur)
}

fn context_of(rows: &[(String, i64, Vec<i64>)]) -> Context {
    let mut ctx = Context::new();
    ctx.register(
        "rows",
        items_of(
            rows.iter()
                .map(|(k, v, tags)| {
                    vec![
                        ("k", Value::str(k.as_str())),
                        ("v", Value::Int(*v)),
                        (
                            "tags",
                            Value::Bag(tags.iter().copied().map(Value::Int).collect()),
                        ),
                    ]
                })
                .collect(),
        ),
    );
    ctx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Plain execution, captured execution, and a differently partitioned
    /// plain execution all emit byte-identical NDJSON, and capture leaves
    /// row identifiers untouched.
    #[test]
    fn capture_replay_ndjson_identical(
        rows in prop::collection::vec(row_strategy(), 0..30),
        pipe in pipeline_strategy(),
    ) {
        let program = build(&pipe);
        let ctx = context_of(&rows);
        let one = pebble_dataflow::run(
            &program, &ctx, ExecConfig::with_partitions(1), &NoSink,
        ).unwrap();
        for config in ExecMatrix::suite(3) {
            let plain = pebble_dataflow::run(&program, &ctx, config, &NoSink).unwrap();
            let captured = run_captured(&program, &ctx, config).unwrap();
            prop_assert_eq!(ndjson(&plain), ndjson(&captured.output));
            let plain_ids: Vec<_> = plain.rows.iter().map(|r| r.id).collect();
            let cap_ids: Vec<_> = captured.output.rows.iter().map(|r| r.id).collect();
            prop_assert_eq!(plain_ids, cap_ids);
            prop_assert_eq!(ndjson(&one), ndjson(&plain));
        }
    }
}

// ---------------------------------------------------------------------------
// Golden fixture
// ---------------------------------------------------------------------------

const GOLDEN: &str = include_str!("golden/representation_pipeline.ndjson");

/// A fixed pipeline exercising a fusable filter→select→filter chain,
/// flatten, and grouped aggregation over a fixed dataset.
fn golden_program() -> Program {
    use pebble_dataflow::{AggFunc, AggSpec, GroupKey};
    let mut b = ProgramBuilder::new();
    let r = b.read("rows");
    let f1 = b.filter(r, Expr::col("v").le(Expr::lit(15i64)));
    let s = b.select(
        f1,
        vec![
            NamedExpr::path("k"),
            NamedExpr::path("v"),
            NamedExpr::path("tags"),
        ],
    );
    let f2 = b.filter(s, Expr::col("v").ge(Expr::lit(-15i64)));
    let fl = b.flatten(f2, "tags", "tag");
    let g = b.group_aggregate(
        fl,
        vec![GroupKey::new("k"), GroupKey::new("tag")],
        vec![AggSpec::new(AggFunc::Sum, "v", "sum_v")],
    );
    b.build(g)
}

fn golden_context() -> Context {
    // Deterministic tiny dataset: k cycles a..d, v sweeps, tags vary.
    let rows: Vec<(String, i64, Vec<i64>)> = (0..24)
        .map(|i| {
            let k = char::from(b'a' + (i % 4) as u8).to_string();
            let v = (i as i64 * 7) % 41 - 20;
            let tags = (0..(i % 3)).map(|t| (i as i64 + t as i64) % 5).collect();
            (k, v, tags)
        })
        .collect();
    context_of(&rows)
}

#[test]
fn golden_pipeline_output_matches_fixture() {
    let plain = |config| {
        pebble_dataflow::run(&golden_program(), &golden_context(), config, &NoSink).unwrap()
    };
    if std::env::var("BLESS").is_ok() {
        std::fs::write(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/representation_pipeline.ndjson"
            ),
            ndjson(&plain(ExecMatrix::referee(3))),
        )
        .unwrap();
        return;
    }
    for config in ExecMatrix::suite(3) {
        assert_eq!(
            ndjson(&plain(config)),
            GOLDEN,
            "pipeline output diverged from the checked-in fixture at {config:?}"
        );
        // Capture must reproduce the same bytes.
        let cap = run_captured(&golden_program(), &golden_context(), config).unwrap();
        assert_eq!(ndjson(&cap.output), GOLDEN, "{config:?}");
    }
}
