//! Titian-style lineage baseline (Interlandi et al., PVLDB 2015).
//!
//! Titian is the comparison system of Sec. 7.3.4: a DISC-integrated
//! provenance solution that records *lineage only* — which top-level input
//! items contribute to which output items — with no nested-data awareness,
//! no positions, and no attribute-level paths.
//!
//! The baseline runs on the same engine as Pebble through the identical
//! [`ProvenanceSink`] hook, so runtime differences measure exactly the
//! extra work structural provenance performs (flatten positions and the
//! static path sets), mirroring the paper's head-to-head setup.

use std::sync::Mutex;

use pebble_dataflow::hash::FxHashMap;
use pebble_dataflow::{
    run, Context, ExecConfig, ItemId, OpId, OpKind, Program, ProvenanceSink, Result, RunOutput,
    UnaryRuns,
};

/// One operator's lineage table: output id → contributing input ids.
#[derive(Clone, Debug, Default)]
pub struct LineageTable {
    /// `(input ids, output id)` associations.
    pub entries: Vec<(Vec<ItemId>, ItemId)>,
    /// For `read`: the assigned ids in dataset order.
    pub read_ids: Vec<ItemId>,
}

impl LineageTable {
    /// Bytes stored: identifiers only.
    pub fn bytes(&self) -> usize {
        const ID: usize = std::mem::size_of::<ItemId>();
        self.read_ids.len() * ID
            + self
                .entries
                .iter()
                .map(|(ins, _)| (ins.len() + 1) * ID)
                .sum::<usize>()
    }
}

/// A lineage-captured execution.
pub struct LineageRun {
    /// The executed program.
    pub program: Program,
    /// Engine output with identifiers.
    pub output: RunOutput,
    /// Lineage tables indexed by operator id.
    pub tables: Vec<LineageTable>,
}

impl LineageRun {
    /// Total lineage bytes across operators (Fig. 8 dark bars).
    pub fn bytes(&self) -> usize {
        self.tables.iter().map(LineageTable::bytes).sum()
    }
}

struct LineageSink {
    per_op: Vec<Mutex<LineageTable>>,
}

impl ProvenanceSink for LineageSink {
    const ENABLED: bool = true;

    fn read_batch(&self, op: OpId, ids: &[ItemId]) {
        self.per_op[op as usize]
            .lock()
            .unwrap()
            .read_ids
            .extend_from_slice(ids);
    }

    fn unary_runs(&self, op: OpId, runs: &UnaryRuns) {
        let mut t = self.per_op[op as usize].lock().unwrap();
        t.entries.extend(runs.pairs().map(|(i, o)| (vec![i], o)));
    }

    fn binary_batch(&self, op: OpId, assoc: &[(Option<ItemId>, Option<ItemId>, ItemId)]) {
        let mut t = self.per_op[op as usize].lock().unwrap();
        t.entries.extend(
            assoc
                .iter()
                .map(|&(l, r, o)| (l.into_iter().chain(r).collect(), o)),
        );
    }

    fn flatten_batch(&self, op: OpId, assoc: &[(ItemId, u32, ItemId)]) {
        // Lineage drops the position — the structural information Pebble
        // keeps (Sec. 7.3.2).
        let mut t = self.per_op[op as usize].lock().unwrap();
        t.entries
            .extend(assoc.iter().map(|&(i, _pos, o)| (vec![i], o)));
    }

    fn agg_batch(&self, op: OpId, assoc: Vec<(Vec<ItemId>, ItemId)>) {
        self.per_op[op as usize]
            .lock()
            .unwrap()
            .entries
            .extend(assoc);
    }
}

/// Executes a program with lineage-only capture.
pub fn run_lineage(program: &Program, ctx: &Context, config: ExecConfig) -> Result<LineageRun> {
    let sink = LineageSink {
        per_op: program
            .operators()
            .iter()
            .map(|_| Mutex::new(LineageTable::default()))
            .collect(),
    };
    let output = run(program, ctx, config, &sink)?;
    Ok(LineageRun {
        program: program.clone(),
        output,
        tables: sink
            .per_op
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect(),
    })
}

/// Lineage of one source: contributing input item indices (whole tuples —
/// the granularity at which lineage systems answer, Sec. 2's light-grey
/// items).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceLineage {
    /// The `read` operator.
    pub read_op: OpId,
    /// Source dataset name.
    pub source: String,
    /// Contributing item positions, ascending.
    pub indices: Vec<usize>,
}

/// Traces result identifiers back to all sources through the lineage
/// tables (the recursive join of Sec. 6.3, without any tree rewriting).
pub fn trace_back(run: &LineageRun, result_ids: &[ItemId]) -> Vec<SourceLineage> {
    let mut worklist: Vec<(OpId, Vec<ItemId>)> = vec![(run.program.sink(), result_ids.to_vec())];
    let mut per_read: FxHashMap<OpId, Vec<ItemId>> = FxHashMap::default();

    while let Some((oid, ids)) = worklist.pop() {
        if ids.is_empty() {
            continue;
        }
        let op = &run.program.operators()[oid as usize];
        if matches!(op.kind, OpKind::Read { .. }) {
            per_read.entry(oid).or_default().extend(ids);
            continue;
        }
        let table = &run.tables[oid as usize];
        let by_out: FxHashMap<ItemId, &Vec<ItemId>> =
            table.entries.iter().map(|(ins, o)| (*o, ins)).collect();
        // Binary operators interleave both predecessors' ids in one table;
        // route each input id to the predecessor whose id range produced
        // it by testing membership against each predecessor's outputs.
        let mut upstream: Vec<Vec<ItemId>> = vec![Vec::new(); op.inputs.len()];
        let pred_outputs: Vec<FxHashMap<ItemId, ()>> = op
            .inputs
            .iter()
            .map(|&p| {
                let t = &run.tables[p as usize];
                t.read_ids
                    .iter()
                    .copied()
                    .chain(t.entries.iter().map(|(_, o)| *o))
                    .map(|id| (id, ()))
                    .collect()
            })
            .collect();
        for id in ids {
            if let Some(ins) = by_out.get(&id) {
                for &i in ins.iter() {
                    for (slot, outs) in upstream.iter_mut().zip(&pred_outputs) {
                        if outs.contains_key(&i) {
                            slot.push(i);
                            break;
                        }
                    }
                }
            }
        }
        for (&pred, ids) in op.inputs.iter().zip(upstream) {
            worklist.push((pred, ids));
        }
    }

    let mut out: Vec<SourceLineage> = per_read
        .into_iter()
        .map(|(read_op, mut ids)| {
            ids.sort_unstable();
            ids.dedup();
            let table = &run.tables[read_op as usize];
            let index_of: FxHashMap<ItemId, usize> = table
                .read_ids
                .iter()
                .enumerate()
                .map(|(i, &id)| (id, i))
                .collect();
            let mut indices: Vec<usize> = ids
                .iter()
                .filter_map(|id| index_of.get(id).copied())
                .collect();
            indices.sort_unstable();
            let source = match &run.program.operators()[read_op as usize].kind {
                OpKind::Read { source } => source.clone(),
                _ => unreachable!(),
            };
            SourceLineage {
                read_op,
                source,
                indices,
            }
        })
        .collect();
    out.sort_by_key(|s| s.read_op);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_dataflow::{context::items_of, AggFunc, AggSpec, Expr, GroupKey, ProgramBuilder};
    use pebble_nested::Value;

    fn ctx() -> Context {
        let mut c = Context::new();
        c.register(
            "t",
            items_of(vec![
                vec![("k", Value::str("a")), ("v", Value::Int(1))],
                vec![("k", Value::str("b")), ("v", Value::Int(2))],
                vec![("k", Value::str("a")), ("v", Value::Int(3))],
            ]),
        );
        c
    }

    fn cfg() -> ExecConfig {
        ExecConfig::with_partitions(2)
    }

    #[test]
    fn lineage_traces_through_filter_and_group() {
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let f = b.filter(r, Expr::col("v").le(Expr::lit(3i64)));
        let g = b.group_aggregate(
            f,
            vec![GroupKey::new("k")],
            vec![AggSpec::new(AggFunc::Sum, "v", "s")],
        );
        let run = run_lineage(&b.build(g), &ctx(), cfg()).unwrap();
        let group_a = run
            .output
            .rows
            .iter()
            .find(|r| r.item.get("k") == Some(&Value::str("a")))
            .unwrap();
        let lineage = trace_back(&run, &[group_a.id]);
        assert_eq!(lineage.len(), 1);
        assert_eq!(lineage[0].indices, [0, 2]);
    }

    #[test]
    fn lineage_union_splits() {
        let mut b = ProgramBuilder::new();
        let l = b.read("t");
        let r = b.read("t");
        let u = b.union(l, r);
        let run = run_lineage(&b.build(u), &ctx(), cfg()).unwrap();
        let ids: Vec<ItemId> = run.output.rows.iter().map(|r| r.id).collect();
        let lineage = trace_back(&run, &ids);
        assert_eq!(lineage.len(), 2);
        assert_eq!(lineage[0].indices, [0, 1, 2]);
        assert_eq!(lineage[1].indices, [0, 1, 2]);
    }

    #[test]
    fn lineage_bytes_positive_and_smaller_units() {
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let f = b.filter(r, Expr::lit(true));
        let run = run_lineage(&b.build(f), &ctx(), cfg()).unwrap();
        assert!(run.bytes() > 0);
    }

    #[test]
    fn lineage_result_matches_plain_run() {
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let f = b.filter(r, Expr::col("v").ge(Expr::lit(2i64)));
        let p = b.build(f);
        let c = ctx();
        let plain = run(&p, &c, cfg(), &pebble_dataflow::NoSink).unwrap();
        let lin = run_lineage(&p, &c, cfg()).unwrap();
        assert!(plain.iter_items().eq(lin.output.iter_items()));
    }
}
