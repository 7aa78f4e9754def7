//! The Tab. 5 reference interpreter.
//!
//! A deliberately naive, single-threaded executable spec of every operator
//! and its provenance-capture rule: each operator is a plain loop that
//! clones what it needs, materializes its whole output, and appends its
//! identifier associations (Tab. 6) to a growing table. No fusion, no
//! shared values, no hashing shortcuts — where the optimized engine hash
//! joins, the reference nested-loop joins; where the engine hash-groups,
//! the reference scans the group list.
//!
//! ### Identifier convention
//!
//! Item identifiers are an engine artifact (`op << 48 | partition << 32 |
//! seq`), not part of Tab. 5. The reference reproduces the identifiers the
//! engine assigns when run with `partitions: 1`, which requires modelling
//! the engine's *partition structure* (not its parallelism): `read`
//! produces one partition, per-row operators and `flatten` preserve their
//! input's partition structure, `join` probes per left partition, `union`
//! concatenates the two sides' partition lists (so its right side starts at
//! partition index `left.len()`), and grouping re-chunks into one
//! partition. The differential runner compares the reference against the
//! engine at `partitions: 1` bit-for-bit, and against other partition
//! counts modulo identifiers.

use pebble_core::{CapturedRun, InputProv, OperatorProvenance, ProvAssoc, UnaryRuns};
use pebble_dataflow::{
    op::merge_item_schemas, AggFunc, AggSpec, Context, EngineError, ExecConfig, GroupKey, ItemId,
    NamedExpr, OpId, OpKind, Program, Result, Row, RunOutput, RunReport,
};
use pebble_nested::{DataItem, DataType, Path, Step, Value};

/// Reference rows, grouped by the partition structure described in the
/// module docs.
type Parts = Vec<Vec<Row>>;

fn make_id(op: OpId, partition: usize, seq: u32) -> ItemId {
    ((op as u64) << 48) | ((partition as u64) << 32) | seq as u64
}

/// The configuration the reference models; exposed so callers compare the
/// engine against the reference at the same partition count. Workers are
/// pinned to 1 so the reference comparison itself is scheduler-free; the
/// differential runner separately re-runs the engine at higher worker
/// counts and checks those against this baseline.
pub fn reference_config() -> ExecConfig {
    ExecConfig::with_partitions(1).workers(1)
}

/// Executes `program` on the reference interpreter with provenance
/// capture, producing the same [`CapturedRun`] the engine's captured run
/// produces at `partitions: 1`.
pub fn run_reference(program: &Program, ctx: &Context) -> Result<CapturedRun> {
    let op_schemas = program.infer_schemas(&ctx.source_schemas())?;
    let ops = program.operators();
    let mut outputs: Vec<Parts> = Vec::with_capacity(ops.len());
    let mut op_counts: Vec<usize> = Vec::with_capacity(ops.len());
    let mut prov: Vec<OperatorProvenance> = Vec::with_capacity(ops.len());

    for op in ops {
        let (parts, assoc) = match &op.kind {
            OpKind::Read { source } => {
                let items = ctx
                    .source(source)
                    .ok_or_else(|| EngineError::UnknownSource(source.clone()))?;
                ref_read(op.id, items)
            }
            OpKind::Filter { predicate } => {
                let input = &outputs[op.inputs[0] as usize];
                ref_filter(op.id, input, predicate)
            }
            OpKind::Select { exprs } => {
                let input = &outputs[op.inputs[0] as usize];
                ref_select(op.id, input, exprs)
            }
            OpKind::Map { udf } => {
                let input = &outputs[op.inputs[0] as usize];
                ref_map(op.id, input, udf)
            }
            OpKind::Flatten { col, new_attr } => {
                let input = &outputs[op.inputs[0] as usize];
                ref_flatten(op.id, input, col, new_attr)
            }
            OpKind::Join { keys } => {
                let left = &outputs[op.inputs[0] as usize];
                let right = &outputs[op.inputs[1] as usize];
                ref_join(op.id, left, right, keys)
            }
            OpKind::Union => {
                let left = &outputs[op.inputs[0] as usize];
                let right = &outputs[op.inputs[1] as usize];
                ref_union(op.id, left, right)
            }
            OpKind::GroupAggregate { keys, aggs } => {
                let input = &outputs[op.inputs[0] as usize];
                ref_group_aggregate(op.id, input, keys, aggs)
            }
        };
        op_counts.push(parts.iter().map(Vec::len).sum());
        let input_schemas: Vec<&DataType> =
            op.inputs.iter().map(|&i| &op_schemas[i as usize]).collect();
        let (inputs, manipulated) = reference_static_prov(&op.kind, &op.inputs, &input_schemas);
        prov.push(OperatorProvenance {
            oid: op.id,
            op_type: op.kind.type_name().to_string(),
            inputs,
            manipulated,
            assoc,
        });
        outputs.push(parts);
    }

    let rows: Vec<Row> = std::mem::take(&mut outputs[program.sink() as usize])
        .into_iter()
        .flatten()
        .collect();
    Ok(CapturedRun {
        program: program.clone(),
        output: RunOutput {
            rows,
            op_schemas,
            op_counts,
            // The reference is a spec, not an instrumented engine: its
            // report carries only the executor tag.
            report: RunReport {
                executor: "reference".to_string(),
                ..RunReport::default()
            },
        },
        ops: prov,
    })
}

fn ref_read(op: OpId, items: &[DataItem]) -> (Parts, ProvAssoc) {
    let mut rows = Vec::with_capacity(items.len());
    let mut ids = Vec::with_capacity(items.len());
    for (seq, item) in items.iter().enumerate() {
        let id = make_id(op, 0, seq as u32);
        ids.push(id);
        rows.push(Row {
            id,
            item: item.clone(),
        });
    }
    (vec![rows], ProvAssoc::Read(ids))
}

/// Shared per-partition walk for the three per-row operators: `body`
/// returns the output item for a row, or `None` to drop it.
fn ref_per_row(
    op: OpId,
    input: &Parts,
    body: impl Fn(&DataItem) -> Option<DataItem>,
) -> (Parts, ProvAssoc) {
    let mut parts = Vec::with_capacity(input.len());
    let mut assoc = UnaryRuns::new();
    for (pidx, partition) in input.iter().enumerate() {
        let mut seq = 0u32;
        let mut out = Vec::new();
        for row in partition {
            if let Some(item) = body(&row.item) {
                let id = make_id(op, pidx, seq);
                seq += 1;
                assoc.push(row.id, id);
                out.push(Row { id, item });
            }
        }
        parts.push(out);
    }
    (parts, ProvAssoc::Unary(assoc))
}

fn ref_filter(op: OpId, input: &Parts, predicate: &pebble_dataflow::Expr) -> (Parts, ProvAssoc) {
    ref_per_row(op, input, |item| {
        predicate.eval_bool(item).then(|| item.clone())
    })
}

fn ref_select(op: OpId, input: &Parts, exprs: &[NamedExpr]) -> (Parts, ProvAssoc) {
    ref_per_row(op, input, |item| {
        let mut next = DataItem::new();
        for ne in exprs {
            next.push(ne.name.as_str(), ne.expr.eval(item));
        }
        Some(next)
    })
}

fn ref_map(op: OpId, input: &Parts, udf: &pebble_dataflow::MapUdf) -> (Parts, ProvAssoc) {
    ref_per_row(op, input, |item| Some((udf.f)(item)))
}

fn ref_flatten(op: OpId, input: &Parts, col: &Path, new_attr: &str) -> (Parts, ProvAssoc) {
    let mut parts = Vec::with_capacity(input.len());
    let mut assoc = Vec::new();
    for (pidx, partition) in input.iter().enumerate() {
        let mut seq = 0u32;
        let mut out = Vec::new();
        for row in partition {
            // Missing or non-collection values produce no output rows
            // (Tab. 5 flatten iterates the collection's elements).
            let elements = match col.eval(&row.item) {
                Some(Value::Bag(vs)) | Some(Value::Set(vs)) => vs,
                _ => continue,
            };
            for (pos0, element) in elements.iter().enumerate() {
                let mut item = row.item.clone();
                item.push(new_attr, element.clone());
                let id = make_id(op, pidx, seq);
                seq += 1;
                // Tab. 6: ⟨id^i, pos, id^o⟩ with 1-based positions.
                assoc.push((row.id, pos0 as u32 + 1, id));
                out.push(Row { id, item });
            }
        }
        parts.push(out);
    }
    (parts, ProvAssoc::Flatten(assoc))
}

/// Evaluates a join key; any null or missing component makes the whole key
/// undefined, and undefined keys never join.
fn ref_join_key(item: &DataItem, paths: &[Path]) -> Option<Vec<Value>> {
    paths
        .iter()
        .map(|p| match p.eval(item) {
            Some(v) if !v.is_null() => Some(v.clone()),
            _ => None,
        })
        .collect()
}

fn ref_join(op: OpId, left: &Parts, right: &Parts, keys: &[(Path, Path)]) -> (Parts, ProvAssoc) {
    let left_paths: Vec<Path> = keys.iter().map(|(l, _)| l.clone()).collect();
    let right_paths: Vec<Path> = keys.iter().map(|(_, r)| r.clone()).collect();
    let right_rows: Vec<&Row> = right.iter().flatten().collect();
    let mut parts = Vec::with_capacity(left.len());
    let mut assoc = Vec::new();
    for (pidx, partition) in left.iter().enumerate() {
        let mut seq = 0u32;
        let mut out = Vec::new();
        for lrow in partition {
            let Some(lkey) = ref_join_key(&lrow.item, &left_paths) else {
                continue;
            };
            // Naive nested loop: scan the entire right input per left row.
            for rrow in &right_rows {
                let Some(rkey) = ref_join_key(&rrow.item, &right_paths) else {
                    continue;
                };
                if lkey != rkey {
                    continue;
                }
                let item = lrow.item.merged(&rrow.item);
                let id = make_id(op, pidx, seq);
                seq += 1;
                assoc.push((Some(lrow.id), Some(rrow.id), id));
                out.push(Row { id, item });
            }
        }
        parts.push(out);
    }
    (parts, ProvAssoc::Binary(assoc))
}

fn ref_union(op: OpId, left: &Parts, right: &Parts) -> (Parts, ProvAssoc) {
    let mut parts = Vec::with_capacity(left.len() + right.len());
    let mut assoc = Vec::new();
    for (side, input) in [left, right].into_iter().enumerate() {
        let offset = if side == 0 { 0 } else { left.len() };
        for (pidx, partition) in input.iter().enumerate() {
            let mut out = Vec::with_capacity(partition.len());
            for (seq, row) in partition.iter().enumerate() {
                let id = make_id(op, offset + pidx, seq as u32);
                if side == 0 {
                    assoc.push((Some(row.id), None, id));
                } else {
                    assoc.push((None, Some(row.id), id));
                }
                out.push(Row {
                    id,
                    item: row.item.clone(),
                });
            }
            parts.push(out);
        }
    }
    (parts, ProvAssoc::Binary(assoc))
}

fn ref_key(item: &DataItem, keys: &[GroupKey]) -> Vec<Value> {
    keys.iter()
        .map(|k| k.path.eval(item).cloned().unwrap_or(Value::Null))
        .collect()
}

fn ref_group_aggregate(
    op: OpId,
    input: &Parts,
    keys: &[GroupKey],
    aggs: &[AggSpec],
) -> (Parts, ProvAssoc) {
    // Naive grouping: scan the group list per row (no hash map). Groups
    // form in first-seen order over the global row order, which is also
    // the order identifiers are assigned in; the *output* is then sorted
    // by key — the engine's canonical order.
    let mut grouped: Vec<(Vec<Value>, Vec<&Row>)> = Vec::new();
    for row in input.iter().flatten() {
        let key = ref_key(&row.item, keys);
        match grouped.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(row),
            None => grouped.push((key, vec![row])),
        }
    }
    let mut assoc = Vec::with_capacity(grouped.len());
    let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(grouped.len());
    for (seq, (key, members)) in grouped.into_iter().enumerate() {
        let mut item = DataItem::new();
        for (k, kv) in keys.iter().zip(&key) {
            item.push(k.name.as_str(), kv.clone());
        }
        for agg in aggs {
            item.push(agg.output.as_str(), ref_agg(agg, &members));
        }
        let id = make_id(op, 0, seq as u32);
        // Tab. 6: ⟨ids^i, id^o⟩ with member ids in nesting order.
        assoc.push((members.iter().map(|r| r.id).collect(), id));
        keyed.push((key, Row { id, item }));
    }
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    let rows: Vec<Row> = keyed.into_iter().map(|(_, r)| r).collect();
    (vec![rows], ProvAssoc::Agg(assoc))
}

/// Evaluates one aggregate over a group, straight from the operator
/// definitions: nulls are skipped (except by `collect_list`, which keeps
/// them so nested positions stay aligned with the member id list, and by
/// `count(*)`), sums stay integral only when every input is an integer,
/// and an empty-path input nests whole items.
fn ref_agg(agg: &AggSpec, members: &[&Row]) -> Value {
    if agg.input.is_empty() {
        return match agg.func {
            AggFunc::Count => Value::Int(members.len() as i64),
            AggFunc::CollectList => Value::Bag(
                members
                    .iter()
                    .map(|r| Value::Item(r.item.clone()))
                    .collect(),
            ),
            AggFunc::CollectSet => {
                Value::set_from(members.iter().map(|r| Value::Item(r.item.clone())))
            }
            // Scalar aggregates over the whole item degenerate to nulls.
            _ => Value::Null,
        };
    }
    let all: Vec<Value> = members
        .iter()
        .map(|r| agg.input.eval(&r.item).cloned().unwrap_or(Value::Null))
        .collect();
    let present: Vec<&Value> = all.iter().filter(|v| !v.is_null()).collect();
    match agg.func {
        AggFunc::Count => Value::Int(present.len() as i64),
        AggFunc::Sum => {
            if present.is_empty() {
                Value::Null
            } else if present.iter().all(|v| matches!(v, Value::Int(_))) {
                Value::Int(present.iter().filter_map(|v| v.as_int()).sum())
            } else {
                Value::Double(present.iter().filter_map(|v| v.as_double()).sum())
            }
        }
        AggFunc::Avg => {
            let vs: Vec<f64> = present.iter().filter_map(|v| v.as_double()).collect();
            if vs.is_empty() {
                Value::Null
            } else {
                Value::Double(vs.iter().sum::<f64>() / vs.len() as f64)
            }
        }
        AggFunc::Min => present.iter().min().map_or(Value::Null, |v| (*v).clone()),
        AggFunc::Max => present.iter().max().map_or(Value::Null, |v| (*v).clone()),
        AggFunc::CollectList => Value::Bag(all),
        AggFunc::CollectSet => Value::set_from(present.into_iter().cloned()),
    }
}

/// Derives the schema-level access sets `A` and manipulation mapping `M`
/// of Def. 5.1, written independently from `pebble-core`'s derivation so
/// the differential runner cross-checks both.
fn reference_static_prov(
    kind: &OpKind,
    preds: &[OpId],
    input_schemas: &[&DataType],
) -> (Vec<InputProv>, Option<Vec<(Path, Path)>>) {
    let input = |idx: usize, accessed: Option<Vec<Path>>| InputProv {
        pred: preds.get(idx).copied(),
        accessed,
    };
    let dedup_schema_level = |paths: Vec<Path>| {
        let mut out: Vec<Path> = Vec::new();
        for p in paths {
            let p = p.to_schema_level();
            if !out.contains(&p) {
                out.push(p);
            }
        }
        out
    };
    match kind {
        OpKind::Read { .. } => (Vec::new(), Some(Vec::new())),
        OpKind::Filter { predicate } => (
            vec![input(
                0,
                Some(dedup_schema_level(predicate.accessed_paths())),
            )],
            Some(Vec::new()),
        ),
        OpKind::Select { exprs } => {
            let mut accessed = Vec::new();
            let mut manipulated = Vec::new();
            for ne in exprs {
                for p in dedup_schema_level(ne.expr.accessed()) {
                    if !accessed.contains(&p) {
                        accessed.push(p);
                    }
                }
                for (src, dst) in ne.expr.manipulated(&Path::attr(&ne.name)) {
                    manipulated.push((src.to_schema_level(), dst));
                }
            }
            (vec![input(0, Some(accessed))], Some(manipulated))
        }
        OpKind::Map { .. } => (vec![input(0, None)], None),
        OpKind::Join { keys } => {
            let left = dedup_schema_level(keys.iter().map(|(l, _)| l.clone()).collect());
            let right = dedup_schema_level(keys.iter().map(|(_, r)| r.clone()).collect());
            let mut manipulated = Vec::new();
            if let Some(fields) = input_schemas[0].fields() {
                for f in fields {
                    manipulated.push((Path::attr(&f.name), Path::attr(&f.name)));
                }
            }
            let (_, renames) = merge_item_schemas(0, input_schemas[0], input_schemas[1])
                .unwrap_or((DataType::Null, Vec::new()));
            for (orig, renamed) in renames {
                manipulated.push((Path::attr(orig), Path::attr(renamed)));
            }
            (
                vec![input(0, Some(left)), input(1, Some(right))],
                Some(manipulated),
            )
        }
        OpKind::Union => (
            vec![input(0, Some(Vec::new())), input(1, Some(Vec::new()))],
            Some(Vec::new()),
        ),
        OpKind::Flatten { col, new_attr } => {
            let elem = col.to_schema_level().child(Step::AnyPos);
            (
                vec![input(0, Some(vec![elem.clone()]))],
                Some(vec![(elem, Path::attr(new_attr))]),
            )
        }
        OpKind::GroupAggregate { keys, aggs } => {
            let mut accessed: Vec<Path> = Vec::new();
            let mut manipulated = Vec::new();
            for k in keys {
                let p = k.path.to_schema_level();
                if !accessed.contains(&p) {
                    accessed.push(p.clone());
                }
                manipulated.push((p, Path::attr(&k.name)));
            }
            for a in aggs {
                if a.input.is_empty() {
                    if a.func == AggFunc::CollectList {
                        if let Some(fields) = input_schemas[0].fields() {
                            let base = Path::attr(&a.output).child(Step::AnyPos);
                            for f in fields {
                                manipulated
                                    .push((Path::attr(&f.name), base.child(Step::attr(&f.name))));
                            }
                        }
                    }
                    continue;
                }
                let p = a.input.to_schema_level();
                if !accessed.contains(&p) {
                    accessed.push(p.clone());
                }
                let out = if a.func == AggFunc::CollectList {
                    Path::attr(&a.output).child(Step::AnyPos)
                } else {
                    Path::attr(&a.output)
                };
                manipulated.push((p, out));
            }
            (vec![input(0, Some(accessed))], Some(manipulated))
        }
    }
}
