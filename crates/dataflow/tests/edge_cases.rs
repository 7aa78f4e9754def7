//! Engine edge cases: empty inputs through every operator, null join
//! keys, schema widening across unions, deeply nested paths, large
//! fan-out flatten, and fusion boundaries (fused vs unfused execution
//! compared bit-for-bit, identifiers included).

use std::sync::Arc;

use pebble_dataflow::{
    context::items_of, run, AggFunc, AggSpec, Context, ExecConfig, Expr, GroupKey, MapUdf,
    NamedExpr, NoSink, Program, ProgramBuilder, SelectExpr,
};
use pebble_nested::{DataItem, DataType, Path, Value};

fn cfg() -> ExecConfig {
    ExecConfig::with_partitions(3)
}

fn empty_ctx() -> Context {
    let mut c = Context::new();
    c.register_with_schema(
        "empty",
        vec![],
        DataType::item([
            ("k", DataType::Int),
            ("v", DataType::Int),
            ("xs", DataType::bag(DataType::Int)),
        ]),
    );
    c
}

#[test]
fn every_operator_handles_empty_input() {
    let ctx = empty_ctx();
    // filter → select → flatten → group over an empty source.
    let mut b = ProgramBuilder::new();
    let r = b.read("empty");
    let f = b.filter(r, Expr::col("v").ge(Expr::lit(0i64)));
    let s = b.select(f, vec![NamedExpr::path("k"), NamedExpr::path("xs")]);
    let fl = b.flatten(s, "xs", "x");
    let g = b.group_aggregate(
        fl,
        vec![GroupKey::new("k")],
        vec![AggSpec::new(AggFunc::CollectList, "x", "vals")],
    );
    let out = run(&b.build(g), &ctx, cfg(), &NoSink).unwrap();
    assert!(out.rows.is_empty());

    // join and union of two empty inputs.
    let mut b = ProgramBuilder::new();
    let l = b.read("empty");
    let r = b.read("empty");
    let j = b.join(l, r, vec![(Path::attr("k"), Path::attr("k"))]);
    let out = run(&b.build(j), &ctx, cfg(), &NoSink).unwrap();
    assert!(out.rows.is_empty());

    let mut b = ProgramBuilder::new();
    let l = b.read("empty");
    let r = b.read("empty");
    let u = b.union(l, r);
    let out = run(&b.build(u), &ctx, cfg(), &NoSink).unwrap();
    assert!(out.rows.is_empty());
}

#[test]
fn null_join_keys_never_match() {
    let mut c = Context::new();
    c.register(
        "l",
        items_of(vec![
            vec![("k", Value::Int(1)), ("a", Value::str("x"))],
            vec![("k", Value::Null), ("a", Value::str("y"))],
        ]),
    );
    c.register(
        "r",
        items_of(vec![vec![("k", Value::Int(1))], vec![("k", Value::Null)]]),
    );
    let mut b = ProgramBuilder::new();
    let l = b.read("l");
    let r = b.read("r");
    let j = b.join(l, r, vec![(Path::attr("k"), Path::attr("k"))]);
    let out = run(&b.build(j), &c, cfg(), &NoSink).unwrap();
    // Only the 1 = 1 pair joins; Null never equals Null in a join.
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0].item.get("a"), Some(&Value::str("x")));
}

#[test]
fn union_widens_int_to_double() {
    let mut c = Context::new();
    c.register("ints", items_of(vec![vec![("x", Value::Int(1))]]));
    c.register("dbls", items_of(vec![vec![("x", Value::Double(2.5))]]));
    let mut b = ProgramBuilder::new();
    let l = b.read("ints");
    let r = b.read("dbls");
    let u = b.union(l, r);
    let out = run(&b.build(u), &c, cfg(), &NoSink).unwrap();
    assert_eq!(out.rows.len(), 2);
    assert_eq!(out.schema().field("x"), Some(&DataType::Double));
}

#[test]
fn missing_flatten_column_produces_no_rows() {
    let mut c = Context::new();
    // Second item lacks the collection entirely (heterogeneous source →
    // wildcard schema).
    c.register(
        "t",
        vec![
            DataItem::from_fields([
                ("id", Value::Int(1)),
                ("xs", Value::Bag(vec![Value::Int(9)])),
            ]),
            DataItem::from_fields([("id", Value::Int(2))]),
        ],
    );
    let mut b = ProgramBuilder::new();
    let r = b.read("t");
    let f = b.flatten(r, "xs", "x");
    let out = run(&b.build(f), &c, cfg(), &NoSink).unwrap();
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0].item.get("x"), Some(&Value::Int(9)));
}

#[test]
fn group_by_missing_key_groups_under_null() {
    let mut c = Context::new();
    c.register(
        "t",
        vec![
            DataItem::from_fields([("k", Value::Int(1)), ("v", Value::Int(10))]),
            DataItem::from_fields([("v", Value::Int(20))]),
            DataItem::from_fields([("v", Value::Int(30))]),
        ],
    );
    let mut b = ProgramBuilder::new();
    let r = b.read("t");
    let g = b.group_aggregate(
        r,
        vec![GroupKey::new("k")],
        vec![AggSpec::new(AggFunc::Sum, "v", "s")],
    );
    let out = run(&b.build(g), &c, cfg(), &NoSink).unwrap();
    assert_eq!(out.rows.len(), 2);
    let null_group = out
        .rows
        .iter()
        .find(|r| r.item.get("k") == Some(&Value::Null))
        .expect("null group");
    assert_eq!(null_group.item.get("s"), Some(&Value::Int(50)));
}

#[test]
fn aggregates_over_all_null_inputs() {
    let mut c = Context::new();
    c.register(
        "t",
        vec![DataItem::from_fields([
            ("k", Value::Int(1)),
            ("v", Value::Null),
        ])],
    );
    let mut b = ProgramBuilder::new();
    let r = b.read("t");
    let g = b.group_aggregate(
        r,
        vec![GroupKey::new("k")],
        vec![
            AggSpec::new(AggFunc::Sum, "v", "s"),
            AggSpec::new(AggFunc::Min, "v", "mn"),
            AggSpec::new(AggFunc::Avg, "v", "av"),
            AggSpec::new(AggFunc::Count, "v", "nonnull"),
            AggSpec::new(AggFunc::Count, "", "all"),
            AggSpec::new(AggFunc::CollectSet, "v", "set"),
        ],
    );
    let out = run(&b.build(g), &c, cfg(), &NoSink).unwrap();
    let row = &out.rows[0].item;
    assert_eq!(row.get("s"), Some(&Value::Null));
    assert_eq!(row.get("mn"), Some(&Value::Null));
    assert_eq!(row.get("av"), Some(&Value::Null));
    assert_eq!(row.get("nonnull"), Some(&Value::Int(0)));
    assert_eq!(row.get("all"), Some(&Value::Int(1)));
    assert_eq!(row.get("set"), Some(&Value::Set(vec![])));
}

#[test]
fn deep_nested_paths_resolve_through_pipeline() {
    let deep = DataItem::from_fields([(
        "a",
        Value::Item(DataItem::from_fields([(
            "b",
            Value::Bag(vec![Value::Item(DataItem::from_fields([(
                "c",
                Value::Item(DataItem::from_fields([("d", Value::Int(42))])),
            )]))]),
        )])),
    )]);
    let mut c = Context::new();
    c.register("t", vec![deep]);
    let mut b = ProgramBuilder::new();
    let r = b.read("t");
    let fl = b.flatten(r, "a.b", "elem");
    let s = b.select(fl, vec![NamedExpr::aliased("found", "elem.c.d")]);
    let f = b.filter(s, Expr::col("found").eq(Expr::lit(42i64)));
    let out = run(&b.build(f), &c, cfg(), &NoSink).unwrap();
    assert_eq!(out.rows.len(), 1);
}

#[test]
fn large_flatten_fanout() {
    let mut c = Context::new();
    c.register(
        "t",
        vec![DataItem::from_fields([(
            "xs",
            Value::Bag((0..1200).map(Value::Int).collect()),
        )])],
    );
    let mut b = ProgramBuilder::new();
    let r = b.read("t");
    let f = b.flatten(r, "xs", "x");
    let out = run(&b.build(f), &c, cfg(), &NoSink).unwrap();
    assert_eq!(out.rows.len(), 1200);
    // Positions are 1-based and dense — check a few.
    assert_eq!(out.rows[0].item.get("x"), Some(&Value::Int(0)));
    assert_eq!(out.rows[1199].item.get("x"), Some(&Value::Int(1199)));
}

#[test]
fn map_with_declared_schema_validates_downstream() {
    let mut c = Context::new();
    c.register("t", items_of(vec![vec![("v", Value::Int(3))]]));
    let mut b = ProgramBuilder::new();
    let r = b.read("t");
    let m = b.map(
        r,
        MapUdf {
            name: "wrap".into(),
            f: Arc::new(|d| DataItem::from_fields([("wrapped", Value::Item(d.clone()))])),
            output_schema: Some(DataType::item([(
                "wrapped",
                DataType::item([("v", DataType::Int)]),
            )])),
        },
    );
    // Downstream select resolves against the declared schema.
    let s = b.select(m, vec![NamedExpr::aliased("v2", "wrapped.v")]);
    let out = run(&b.build(s), &c, cfg(), &NoSink).unwrap();
    assert_eq!(out.rows[0].item.get("v2"), Some(&Value::Int(3)));

    // A bad downstream path is rejected at validation time.
    let mut b = ProgramBuilder::new();
    let r = b.read("t");
    let m = b.map(
        r,
        MapUdf {
            name: "wrap".into(),
            f: Arc::new(Clone::clone),
            output_schema: Some(DataType::item([("v", DataType::Int)])),
        },
    );
    let s = b.select(m, vec![NamedExpr::aliased("oops", "nonexistent")]);
    assert!(run(&b.build(s), &c, cfg(), &NoSink).is_err());
}

#[test]
fn select_struct_of_struct() {
    let mut c = Context::new();
    c.register(
        "t",
        items_of(vec![vec![("a", Value::Int(1)), ("b", Value::Int(2))]]),
    );
    let mut b = ProgramBuilder::new();
    let r = b.read("t");
    let s = b.select(
        r,
        vec![NamedExpr::new(
            "outer",
            SelectExpr::strct([
                ("inner", SelectExpr::strct([("a", SelectExpr::path("a"))])),
                ("b", SelectExpr::path("b")),
            ]),
        )],
    );
    let out = run(&b.build(s), &c, cfg(), &NoSink).unwrap();
    assert_eq!(
        Path::parse("outer.inner.a").eval(&out.rows[0].item),
        Some(&Value::Int(1))
    );
}

#[test]
fn nest_collects_whole_items() {
    let mut c = Context::new();
    c.register(
        "t",
        items_of(vec![
            vec![("k", Value::Int(1)), ("v", Value::Int(10))],
            vec![("k", Value::Int(1)), ("v", Value::Int(20))],
            vec![("k", Value::Int(2)), ("v", Value::Int(30))],
        ]),
    );
    let mut b = ProgramBuilder::new();
    let r = b.read("t");
    let n = b.nest(r, vec![GroupKey::new("k")], "members");
    let out = run(&b.build(n), &c, cfg(), &NoSink).unwrap();
    assert_eq!(out.rows.len(), 2);
    let g1 = out
        .rows
        .iter()
        .find(|r| r.item.get("k") == Some(&Value::Int(1)))
        .unwrap();
    let members = g1.item.get("members").unwrap().as_collection().unwrap();
    assert_eq!(members.len(), 2);
    // Whole input items are nested, including the grouping key.
    let first = members[0].as_item().unwrap();
    assert_eq!(first.get("k"), Some(&Value::Int(1)));
    assert_eq!(first.get("v"), Some(&Value::Int(10)));
    // Schema reflects the nesting: {{⟨k, v⟩}}.
    assert_eq!(
        out.schema().field("members").unwrap().to_string(),
        "{{⟨k: Int, v: Int⟩}}"
    );
}

// ---------------------------------------------------------------------------
// Fusion boundaries: `run` with `fusion(true)` and `fusion(false)` must be
// indistinguishable — same rows, same identifiers — exactly where the
// fusion logic has to make a decision.

/// Runs fused and unfused at several partition counts and asserts
/// bit-identical outputs (ids included: fused chains must assign the same
/// identifiers the stage-by-stage execution assigns).
fn assert_fusion_invisible(p: &Program, c: &Context) {
    for parts in [1, 2, 3, 8] {
        let config = ExecConfig::with_partitions(parts);
        let fused = run(p, c, config, &NoSink).unwrap();
        let unfused = run(p, c, config.fusion(false), &NoSink).unwrap();
        assert_eq!(fused.rows, unfused.rows, "rows/ids differ at p={parts}");
        assert_eq!(
            fused.op_counts, unfused.op_counts,
            "op_counts differ at p={parts}"
        );
    }
}

fn small_ctx() -> Context {
    let mut c = Context::new();
    c.register(
        "t",
        items_of(vec![
            vec![("k", Value::Int(1)), ("v", Value::Int(10))],
            vec![("k", Value::Int(2)), ("v", Value::Int(20))],
            vec![("k", Value::Int(1)), ("v", Value::Int(30))],
        ]),
    );
    c
}

/// Length-1 chain: a single per-row operator after a read — the shortest
/// possible "fusable chain", which must behave as if fusion never happened.
#[test]
fn fusion_boundary_length_one_chain() {
    let mut b = ProgramBuilder::new();
    let r = b.read("t");
    let f = b.filter(r, Expr::col("v").ge(Expr::lit(15i64)));
    assert_fusion_invisible(&b.build(f), &small_ctx());
}

/// Multi-consumer intermediate: a self-union makes the filter feed two
/// consumers, so the chain must break *at* the filter — its rows get
/// materialized once and must carry identical ids into both union sides.
#[test]
fn fusion_boundary_multi_consumer_intermediate() {
    let mut b = ProgramBuilder::new();
    let r = b.read("t");
    let f = b.filter(r, Expr::col("v").ge(Expr::lit(15i64)));
    let s = b.select(f, vec![NamedExpr::path("k"), NamedExpr::path("v")]);
    let u = b.union(s, s);
    let f2 = b.filter(u, Expr::col("k").eq(Expr::lit(1i64)));
    assert_fusion_invisible(&b.build(f2), &small_ctx());
}

/// More partitions than rows: most partitions are empty, and per-partition
/// sequence numbering must still line up between fused and unfused runs.
#[test]
fn fusion_boundary_empty_partitions() {
    let mut b = ProgramBuilder::new();
    let r = b.read("t");
    let f = b.filter(r, Expr::col("v").ge(Expr::lit(0i64)));
    let s = b.select(f, vec![NamedExpr::aliased("key", "k")]);
    let p = b.build(s);
    let c = small_ctx();
    for parts in [4, 8, 64] {
        let config = ExecConfig::with_partitions(parts);
        let fused = run(&p, &c, config, &NoSink).unwrap();
        let unfused = run(&p, &c, config.fusion(false), &NoSink).unwrap();
        assert_eq!(fused.rows, unfused.rows, "p={parts}");
        assert_eq!(fused.rows.len(), 3, "p={parts}");
    }
}

/// Zero-row operators mid-chain: the first filter drops everything, and
/// the rest of the fused chain (select, second filter) runs over nothing.
#[test]
fn fusion_boundary_zero_row_chain() {
    let mut b = ProgramBuilder::new();
    let r = b.read("t");
    let f = b.filter(r, Expr::col("v").gt(Expr::lit(1000i64)));
    let s = b.select(f, vec![NamedExpr::path("k")]);
    let f2 = b.filter(s, Expr::col("k").eq(Expr::lit(1i64)));
    let p = b.build(f2);
    let c = small_ctx();
    assert_fusion_invisible(&p, &c);
    let out = run(&p, &c, ExecConfig::with_partitions(3), &NoSink).unwrap();
    assert!(out.rows.is_empty());
    assert_eq!(out.op_counts, vec![3, 0, 0, 0]);
}

/// A chain interrupted by a non-fusable operator (flatten): the per-row
/// stages on either side fuse separately, and the whole must equal the
/// stage-by-stage execution.
#[test]
fn fusion_boundary_chain_interrupted_by_flatten() {
    let mut c = Context::new();
    c.register(
        "t",
        items_of(vec![
            vec![
                ("k", Value::Int(1)),
                ("xs", Value::Bag(vec![Value::Int(1), Value::Int(2)])),
            ],
            vec![("k", Value::Int(2)), ("xs", Value::Bag(vec![]))],
            vec![
                ("k", Value::Int(3)),
                ("xs", Value::Bag(vec![Value::Int(3)])),
            ],
        ]),
    );
    let mut b = ProgramBuilder::new();
    let r = b.read("t");
    let f = b.filter(r, Expr::col("k").ge(Expr::lit(1i64)));
    let s = b.select(f, vec![NamedExpr::path("k"), NamedExpr::path("xs")]);
    let fl = b.flatten(s, "xs", "x");
    let f2 = b.filter(fl, Expr::col("x").ge(Expr::lit(2i64)));
    let s2 = b.select(f2, vec![NamedExpr::aliased("val", "x")]);
    assert_fusion_invisible(&b.build(s2), &c);
}

/// The sink operator itself can sit inside a fused chain; its rows are the
/// run output and must be identical either way.
#[test]
fn fusion_boundary_sink_inside_chain() {
    let mut b = ProgramBuilder::new();
    let r = b.read("t");
    let f = b.filter(r, Expr::col("v").ge(Expr::lit(15i64)));
    let s = b.select(f, vec![NamedExpr::aliased("doubled", "v")]);
    let p = b.build(s);
    let c = small_ctx();
    assert_fusion_invisible(&p, &c);
    let out = run(&p, &c, ExecConfig::with_partitions(2), &NoSink).unwrap();
    assert_eq!(out.rows.len(), 2);
}
