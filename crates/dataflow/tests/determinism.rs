//! Scheduler determinism properties.
//!
//! The morsel-driven executor specifies that row identifiers, association
//! tables, *and the order of emitted provenance batches* are byte-identical
//! at every worker count, morsel size and memory budget. The referee is
//! [`ExecMatrix::referee`]: one morsel per partition, run inline in task
//! order, so identifiers are final as the kernels produce them and no
//! offset is ever stitched. These tests pin every other shape of the
//! matrix's scheduler, budget and partition axes against it on
//! representative pipelines.

use std::sync::Mutex;

use pebble_dataflow::context::items_of;
use pebble_dataflow::{
    run, AggFunc, AggSpec, Context, ExecConfig, ExecMatrix, Expr, GroupKey, ItemId, NamedExpr,
    OpId, Program, ProgramBuilder, ProvenanceSink, Shape, UnaryRuns,
};
use pebble_nested::{Path, Value};

/// One provenance batch exactly as the executor emitted it. Comparing
/// event logs therefore checks content *and* emission order.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Event {
    Read(OpId, Vec<ItemId>),
    Unary(OpId, Vec<(ItemId, ItemId)>),
    Binary(OpId, Vec<(Option<ItemId>, Option<ItemId>, ItemId)>),
    Flatten(OpId, Vec<(ItemId, u32, ItemId)>),
    Agg(OpId, Vec<(Vec<ItemId>, ItemId)>),
}

impl Event {
    /// The output identifiers of the batch, in emission order.
    fn output_ids(&self) -> Vec<ItemId> {
        match self {
            Event::Read(_, ids) => ids.clone(),
            Event::Unary(_, v) => v.iter().map(|e| e.1).collect(),
            Event::Binary(_, v) => v.iter().map(|e| e.2).collect(),
            Event::Flatten(_, v) => v.iter().map(|e| e.2).collect(),
            Event::Agg(_, v) => v.iter().map(|e| e.1).collect(),
        }
    }
}

#[derive(Default)]
struct LogSink {
    events: Mutex<Vec<Event>>,
}

impl LogSink {
    fn push(&self, e: Event) {
        self.events.lock().unwrap().push(e);
    }
}

impl ProvenanceSink for LogSink {
    const ENABLED: bool = true;

    fn read_batch(&self, op: OpId, ids: &[ItemId]) {
        self.push(Event::Read(op, ids.to_vec()));
    }

    fn unary_runs(&self, op: OpId, runs: &UnaryRuns) {
        self.push(Event::Unary(op, runs.pairs().collect()));
    }

    fn binary_batch(&self, op: OpId, assoc: &[(Option<ItemId>, Option<ItemId>, ItemId)]) {
        self.push(Event::Binary(op, assoc.to_vec()));
    }

    fn flatten_batch(&self, op: OpId, assoc: &[(ItemId, u32, ItemId)]) {
        self.push(Event::Flatten(op, assoc.to_vec()));
    }

    fn agg_batch(&self, op: OpId, assoc: Vec<(Vec<ItemId>, ItemId)>) {
        self.push(Event::Agg(op, assoc));
    }
}

/// Runs `program` and returns everything the determinism contract covers:
/// output rows (with ids), per-operator counts, and the provenance event
/// log *per operator* in emission order. Per-operator batch sequences are
/// specified to be byte-identical; the interleaving *across* operators is
/// not — independent DAG branches legitimately finalize in
/// scheduling-dependent order (and per-op association tables, the durable
/// artifact, are insensitive to it).
fn observe(
    program: &Program,
    ctx: &Context,
    config: ExecConfig,
) -> (
    Vec<pebble_dataflow::Row>,
    Vec<usize>,
    std::collections::BTreeMap<OpId, Vec<Event>>,
) {
    let sink = LogSink::default();
    let out = run(program, ctx, config, &sink).unwrap();
    let mut per_op: std::collections::BTreeMap<OpId, Vec<Event>> = Default::default();
    for e in sink.events.into_inner().unwrap() {
        let op = match &e {
            Event::Read(op, _)
            | Event::Unary(op, _)
            | Event::Binary(op, _)
            | Event::Flatten(op, _)
            | Event::Agg(op, _) => *op,
        };
        per_op.entry(op).or_default().push(e);
    }
    // Absolute, not relative to another run: every operator's batches list
    // output identifiers in strictly ascending order — partition-major,
    // sequence within (`op << 48 | partition << 32 | seq`). The referee
    // shape is stitched by the same `finalize_unit` as every other shape,
    // so an emission-order or re-basing bug they all share is only visible
    // against this.
    for (op, events) in &per_op {
        let outs: Vec<ItemId> = events.iter().flat_map(Event::output_ids).collect();
        assert!(
            outs.windows(2).all(|w| w[0] < w[1]),
            "operator {op}: output ids not ascending under {config:?}: {outs:x?}"
        );
    }
    (out.rows, out.op_counts, per_op)
}

/// Skewed dataset: item 0 carries a fat tag bag (fan-out skew after
/// flatten), everything else a small one.
fn skewed_ctx() -> Context {
    let mut c = Context::new();
    let items: Vec<Vec<(&str, Value)>> = (0..60i64)
        .map(|i| {
            let tags = if i == 0 { 40 } else { i % 5 };
            vec![
                ("id", Value::Int(i % 9)),
                ("v", Value::Int(i * 3)),
                ("tags", Value::Bag((0..tags).map(Value::Int).collect())),
            ]
        })
        .collect();
    c.register("events", items_of(items));
    c.register(
        "dim",
        items_of(
            (0..9i64)
                .map(|i| {
                    vec![
                        ("key", Value::Int(i)),
                        ("label", Value::str(if i % 2 == 0 { "even" } else { "odd" })),
                    ]
                })
                .collect(),
        ),
    );
    c
}

/// Pipeline touching every unit kind: read → flatten → fused
/// filter+select chain → self-union → join → group-aggregate.
fn full_pipeline() -> Program {
    let mut b = ProgramBuilder::new();
    let r = b.read("events");
    let fl = b.flatten(r, "tags", "tag");
    let f = b.filter(fl, Expr::col("tag").ge(Expr::lit(1i64)));
    let s = b.select(
        f,
        vec![
            NamedExpr::aliased("id", "id"),
            NamedExpr::aliased("tag", "tag"),
        ],
    );
    let u = b.union(s, s);
    let d = b.read("dim");
    let j = b.join(u, d, vec![(Path::attr("id"), Path::attr("key"))]);
    let g = b.group_aggregate(
        j,
        vec![GroupKey::new("label")],
        vec![
            AggSpec::new(AggFunc::Count, "", "n"),
            AggSpec::new(AggFunc::CollectList, "tag", "tags"),
        ],
    );
    b.build(g)
}

/// Chain-heavy pipeline (exercises fused-chain offset stitching across
/// several stages).
fn chain_pipeline() -> Program {
    let mut b = ProgramBuilder::new();
    let r = b.read("events");
    let f1 = b.filter(r, Expr::col("v").ge(Expr::lit(6i64)));
    let s = b.select(
        f1,
        vec![NamedExpr::aliased("id", "id"), NamedExpr::aliased("w", "v")],
    );
    let f2 = b.filter(s, Expr::col("w").ge(Expr::lit(30i64)));
    b.build(f2)
}

fn assert_matrix_deterministic(program: &Program, ctx: &Context, partitions: usize) {
    let baseline = observe(program, ctx, ExecMatrix::referee(partitions));

    for shape in ExecMatrix::scheduler() {
        let got = observe(program, ctx, shape.at(partitions));
        assert_eq!(baseline.0, got.0, "rows: {shape}");
        assert_eq!(baseline.1, got.1, "op_counts: {shape}");
        assert_eq!(baseline.2, got.2, "provenance events: {shape}");
    }
}

/// Concatenates each operator's event payloads into its association
/// *table* — the durable artifact. Batching may differ between shapes (a
/// spilled capture chunk, a whole-partition id run), but the tables
/// themselves are specified byte-identical.
#[allow(clippy::type_complexity)]
fn flatten_tables(
    per_op: &std::collections::BTreeMap<OpId, Vec<Event>>,
) -> std::collections::BTreeMap<OpId, Event> {
    per_op
        .iter()
        .map(|(&op, events)| {
            let mut iter = events.iter();
            let mut table = iter.next().expect("operator with no events").clone();
            for e in iter {
                match (&mut table, e) {
                    (Event::Read(_, acc), Event::Read(_, v)) => acc.extend_from_slice(v),
                    (Event::Unary(_, acc), Event::Unary(_, v)) => acc.extend_from_slice(v),
                    (Event::Binary(_, acc), Event::Binary(_, v)) => acc.extend_from_slice(v),
                    (Event::Flatten(_, acc), Event::Flatten(_, v)) => acc.extend_from_slice(v),
                    (Event::Agg(_, acc), Event::Agg(_, v)) => acc.extend_from_slice(v),
                    _ => panic!("operator {op} emitted mixed event kinds"),
                }
            }
            (op, table)
        })
        .collect()
}

/// Each shape at each partition count against the referee at the same
/// partition count: rows, identifiers, operator counts, and association
/// tables are byte-identical — spilling must be invisible in all of them.
fn assert_table_matrix(program: &Program, ctx: &Context, partitions: &[usize], shapes: &[Shape]) {
    for &parts in partitions {
        let baseline = observe(program, ctx, ExecMatrix::referee(parts));
        let base_tables = flatten_tables(&baseline.2);
        for shape in shapes {
            let got = observe(program, ctx, shape.at(parts));
            let tag = format!("p={parts} {shape}");
            assert_eq!(baseline.0, got.0, "rows: {tag}");
            assert_eq!(baseline.1, got.1, "op_counts: {tag}");
            assert_eq!(base_tables, flatten_tables(&got.2), "assoc tables: {tag}");
        }
    }
}

/// The budget axis at every worker count.
fn budget_shapes() -> Vec<Shape> {
    let budgets = ExecMatrix::budget();
    let with_workers = |workers| budgets.map(|b| Shape { workers, ..b });
    ExecMatrix::WORKERS
        .into_iter()
        .flat_map(with_workers)
        .collect()
}

#[test]
fn full_pipeline_deterministic_under_memory_budget() {
    let ctx = skewed_ctx();
    assert_table_matrix(&full_pipeline(), &ctx, &[3], &budget_shapes());
}

#[test]
fn chain_pipeline_deterministic_under_memory_budget() {
    let ctx = skewed_ctx();
    assert_table_matrix(&chain_pipeline(), &ctx, &[4], &budget_shapes());
}

#[test]
fn full_pipeline_tables_identical_across_partition_counts() {
    let ctx = skewed_ctx();
    let shapes: Vec<Shape> = ExecMatrix::scheduler().collect();
    assert_table_matrix(&full_pipeline(), &ctx, &ExecMatrix::partitions(), &shapes);
}

#[test]
fn chain_pipeline_tables_identical_across_partition_counts() {
    let ctx = skewed_ctx();
    let shapes: Vec<Shape> = ExecMatrix::scheduler().collect();
    assert_table_matrix(&chain_pipeline(), &ctx, &ExecMatrix::partitions(), &shapes);
}

#[test]
fn full_pipeline_deterministic_across_workers_and_morsels() {
    let ctx = skewed_ctx();
    let program = full_pipeline();
    assert_matrix_deterministic(&program, &ctx, 4);
}

#[test]
fn chain_pipeline_deterministic_across_workers_and_morsels() {
    let ctx = skewed_ctx();
    let program = chain_pipeline();
    assert_matrix_deterministic(&program, &ctx, 3);
}

#[test]
fn single_partition_deterministic_across_workers_and_morsels() {
    // partitions=1 is the oracle's reference configuration; the pool path
    // must still stitch morsels of the single partition back losslessly.
    let ctx = skewed_ctx();
    let program = full_pipeline();
    assert_matrix_deterministic(&program, &ctx, 1);
}
