//! Metamorphic properties of capture and backtracing.
//!
//! Two families of invariants that need no oracle, only the engine run
//! against itself under meaning-preserving changes:
//!
//! * **capture transparency** — running with the capture sink attached
//!   returns byte-identical results to a plain run (same rows, same
//!   identifiers, same schemas), fused or unfused;
//! * **partition/fusion invariance of backtracing** — the *answer* to a
//!   provenance question (which source items, which tree shapes) cannot
//!   depend on how the engine chunked or fused the work. Identifiers may
//!   differ across partition counts, so answers are compared in the
//!   identifier-free canonical form of [`canonical_provenance`].

use std::sync::Arc;

use pebble_core::{
    backtrace, canonical_provenance, run_captured, PatternNode, ProvTree, TreePattern,
};
use pebble_dataflow::{
    context::items_of, run, AggFunc, AggSpec, Context, ExecConfig, ExecMatrix, Expr, GroupKey,
    MapUdf, NamedExpr, NoSink, Program, ProgramBuilder,
};
use pebble_nested::{json, Path, Value};

/// An identifier-free backtrace answer: `(source, index, tree)` entries as
/// produced by [`canonical_provenance`].
type CanonicalAnswer = Vec<(String, usize, String)>;

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
                ("user", Value::str("ada")),
                ("score", Value::Int(10)),
                ("tags", Value::Bag(vec![])),
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

/// A fusable per-row chain: read → filter → select → filter.
fn chain_program() -> Program {
    let mut b = ProgramBuilder::new();
    let r = b.read("events");
    let f = b.filter(r, Expr::col("score").ge(Expr::lit(2i64)));
    let s = b.select(
        f,
        vec![
            NamedExpr::path("user"),
            NamedExpr::path("tags"),
            NamedExpr::aliased("points", "score"),
        ],
    );
    let f2 = b.filter(s, Expr::col("points").lt(Expr::lit(10i64)));
    b.build(f2)
}

/// A DAG hitting every structural operator: flatten, join, self-union
/// (multi-consumer node), opaque map, and grouping with nesting.
fn dag_program() -> Program {
    let mut b = ProgramBuilder::new();
    let r = b.read("events");
    let fl = b.flatten(r, "tags", "tag");
    let u = b.union(fl, fl);
    let users = b.read("users");
    let j = b.join(u, users, vec![(Path::attr("user"), Path::attr("name"))]);
    // Opaque map (no declared schema): downstream paths resolve against
    // the wildcard schema, and backtracing hits the ⊥ rule.
    let m = b.map(
        j,
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
            AggSpec::new(AggFunc::Sum, "score", "total"),
            AggSpec::new(AggFunc::CollectList, "user", "users"),
        ],
    );
    b.build(g)
}

fn programs() -> Vec<(&'static str, Program)> {
    vec![("chain", chain_program()), ("dag", dag_program())]
}

fn ndjson(rows: &[pebble_dataflow::Row]) -> String {
    rows.iter()
        .map(|r| json::item_to_string(&r.item))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Capture on vs off: byte-identical output, fused and unfused, at every
/// partition count — attaching the provenance sink cannot perturb results.
#[test]
fn capture_on_off_outputs_are_byte_identical() {
    let c = ctx();
    for (name, p) in programs() {
        for parts in ExecMatrix::partitions() {
            let config = ExecConfig::with_partitions(parts);
            let plain = run(&p, &c, config, &NoSink).unwrap();
            let captured = run_captured(&p, &c, config).unwrap();
            assert_eq!(
                plain.rows, captured.output.rows,
                "{name} p={parts}: captured fused run differs from plain"
            );
            assert_eq!(
                ndjson(&plain.rows),
                ndjson(&captured.output.rows),
                "{name} p={parts}: serialized bytes differ"
            );

            let plain_unfused = run(&p, &c, config.fusion(false), &NoSink).unwrap();
            let captured_unfused = run_captured(&p, &c, config.fusion(false)).unwrap();
            assert_eq!(
                plain_unfused.rows, captured_unfused.output.rows,
                "{name} p={parts}: captured unfused run differs from plain"
            );
            // Fused and unfused agree bit-for-bit, ids included.
            assert_eq!(
                plain.rows, plain_unfused.rows,
                "{name} p={parts}: fusion changed rows or ids"
            );
        }
    }
}

/// One provenance question per program, asked of every (partitions,
/// fusion) combination: the canonical answer must be identical. Items are
/// matched by content (row index), since identifiers differ across
/// partition counts by design.
#[test]
fn backtrace_answers_invariant_under_partitioning_and_fusion() {
    let c = ctx();
    for (name, p) in programs() {
        let mut answers: Vec<(String, CanonicalAnswer)> = Vec::new();
        for parts in ExecMatrix::partitions() {
            let config = ExecConfig::with_partitions(parts);
            for (mode, captured) in [
                ("fused", run_captured(&p, &c, config).unwrap()),
                (
                    "unfused",
                    run_captured(&p, &c, config.fusion(false)).unwrap(),
                ),
            ] {
                // Whole-item trace of the first output row.
                let row = &captured.output.rows[0];
                let paths = Path::path_set(&row.item);
                let tree = ProvTree::from_paths(paths.iter());
                let bt = pebble_core::Backtrace {
                    entries: vec![(row.id, tree)],
                };
                let whole = canonical_provenance(&backtrace(&captured, bt).unwrap());
                answers.push((format!("{name}/{mode}/p={parts}/whole-item"), whole));

                // Pattern query over a root attribute of the sink schema.
                let sink = captured.program.sink() as usize;
                let field = captured.output.op_schemas[sink].fields().unwrap()[0]
                    .name
                    .clone();
                let pattern = TreePattern::root().node(PatternNode::attr(&field));
                let bt = pattern.match_rows(&captured.output.rows);
                let pat = canonical_provenance(&backtrace(&captured, bt).unwrap());
                answers.push((format!("{name}/{mode}/p={parts}/pattern"), pat));
            }
        }
        // All whole-item answers equal; all pattern answers equal.
        for kind in ["whole-item", "pattern"] {
            let of_kind: Vec<_> = answers.iter().filter(|(n, _)| n.ends_with(kind)).collect();
            let (base_name, base) = of_kind[0];
            for (other_name, other) in &of_kind[1..] {
                assert_eq!(
                    base, other,
                    "backtrace answer differs: {base_name} vs {other_name}"
                );
            }
        }
    }
}

/// The association tables themselves are partition-*sensitive* (ids encode
/// partitions) but their *shape* is not: per-operator entry counts match
/// the operator's output row count at every partition count.
#[test]
fn association_table_sizes_invariant() {
    let c = ctx();
    for (name, p) in programs() {
        let baseline = run_captured(&p, &c, ExecConfig::with_partitions(1)).unwrap();
        for parts in ExecMatrix::partitions() {
            let captured = run_captured(&p, &c, ExecConfig::with_partitions(parts)).unwrap();
            assert_eq!(
                baseline.output.op_counts, captured.output.op_counts,
                "{name} p={parts}: op_counts changed"
            );
            for (a, b) in baseline.ops.iter().zip(&captured.ops) {
                assert_eq!(
                    a.assoc.len(),
                    b.assoc.len(),
                    "{name} p={parts}: op {} association size changed",
                    a.oid
                );
                // The static parts of Def. 5.1 (A and M) are
                // partition-independent outright.
                assert_eq!(a.inputs, b.inputs, "{name} p={parts}: A changed");
                assert_eq!(a.manipulated, b.manipulated, "{name} p={parts}: M changed");
            }
        }
    }
}
