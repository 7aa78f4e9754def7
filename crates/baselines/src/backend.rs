//! The comparison systems ported onto [`CaptureBackend`].
//!
//! Each baseline answers its native question through the same trait the
//! built-in backends use, over the same assembled [`CapturedRun`] — so
//! the backend-conformance suite can push Titian lineage, lazy
//! re-execution, and Lipstick annotation counting through the identical
//! determinism matrix (workers × partitions × spill budget)
//! and require byte-identical answers:
//!
//! * [`TitianBackend`] — `TRACE <row>`: lineage-only backward walk
//!   (whole top-level items, positions and paths dropped);
//! * [`LazyBackend`] — `TRACE <row>`: PROVision-style per-input
//!   re-execution followed by a full structural backtrace;
//! * [`LipstickBackend`] — `ANNOTATIONS`: per-value annotation counts
//!   vs Pebble's top-level identifiers, per source.

use pebble_core::backend::unknown_query_error;
use pebble_core::{
    backtrace, canonical_provenance, run_captured, Backtrace, CaptureBackend, CapturedRun,
    PreparedBackend, ProvAssoc, ProvTree,
};
use pebble_dataflow::hash::{FxHashMap, FxHashSet};
use pebble_dataflow::{Context, EngineError, ExecConfig, ItemId, OpId, Result};
use pebble_nested::Path;

use crate::lipstick::{annotation_count, pebble_annotation_count};

fn parse_row(run: &CapturedRun, arg: &str) -> Result<usize> {
    let index: usize = arg
        .trim()
        .parse()
        .map_err(|_| EngineError::BacktraceError(format!("bad row index `{}`", arg.trim())))?;
    let rows = run.output.rows.len();
    if index >= rows {
        return Err(EngineError::BacktraceError(format!(
            "row index {index} out of range ({rows} output rows)"
        )));
    }
    Ok(index)
}

/// Titian-style lineage as a backend: `TRACE <row>` walks the captured
/// association tables backwards keeping identifiers only — no positions,
/// no paths — and reports contributing dataset indices per `read`.
pub struct TitianBackend;

struct PreparedTitian<'r> {
    run: &'r CapturedRun,
}

impl CaptureBackend for TitianBackend {
    fn name(&self) -> &'static str {
        "titian"
    }

    fn prepare<'r>(
        &self,
        run: &'r CapturedRun,
        _ctx: &'r Context,
    ) -> Result<Box<dyn PreparedBackend + 'r>> {
        Ok(Box::new(PreparedTitian { run }))
    }
}

impl PreparedBackend for PreparedTitian<'_> {
    fn answer(&self, query: &str) -> Result<Vec<String>> {
        let query = query.trim();
        let Some(arg) = query.strip_prefix("TRACE ") else {
            return Err(unknown_query_error("titian", query));
        };
        let index = parse_row(self.run, arg)?;
        let run = self.run;
        let sink = run.program.sink();
        let mut worklist: Vec<(OpId, Vec<ItemId>)> = vec![(sink, vec![run.output.rows[index].id])];
        let mut per_read: FxHashMap<OpId, FxHashSet<ItemId>> = FxHashMap::default();
        while let Some((oid, ids)) = worklist.pop() {
            if ids.is_empty() {
                continue;
            }
            let wanted: FxHashSet<ItemId> = ids.into_iter().collect();
            let op = run.op(oid);
            let inputs = &run.program.operators()[oid as usize].inputs;
            match &op.assoc {
                ProvAssoc::Read(assigned) => {
                    let hit = assigned.iter().copied().filter(|id| wanted.contains(id));
                    per_read.entry(oid).or_default().extend(hit);
                }
                ProvAssoc::Unary(assoc) => {
                    let ins = assoc
                        .pairs()
                        .filter(|(_, o)| wanted.contains(o))
                        .map(|(i, _)| i)
                        .collect();
                    worklist.push((inputs[0], ins));
                }
                ProvAssoc::Flatten(assoc) => {
                    // Lineage drops the position Pebble keeps.
                    let ins = assoc
                        .iter()
                        .filter(|(_, _, o)| wanted.contains(o))
                        .map(|&(i, _, _)| i)
                        .collect();
                    worklist.push((inputs[0], ins));
                }
                ProvAssoc::Binary(assoc) => {
                    let mut left = Vec::new();
                    let mut right = Vec::new();
                    for &(l, r, o) in assoc {
                        if wanted.contains(&o) {
                            left.extend(l);
                            right.extend(r);
                        }
                    }
                    worklist.push((inputs[0], left));
                    worklist.push((inputs[1], right));
                }
                ProvAssoc::Agg(assoc) => {
                    let ins = assoc
                        .iter()
                        .filter(|(_, o)| wanted.contains(o))
                        .flat_map(|(members, _)| members.iter().copied())
                        .collect();
                    worklist.push((inputs[0], ins));
                }
            }
        }
        let mut reached: Vec<(OpId, FxHashSet<ItemId>)> = per_read.into_iter().collect();
        reached.sort_by_key(|&(oid, _)| oid);
        let mut out = Vec::new();
        for (oid, ids) in reached {
            let ProvAssoc::Read(assigned) = &run.op(oid).assoc else {
                unreachable!("read operator without Read associations");
            };
            let mut indices: Vec<usize> = assigned
                .iter()
                .enumerate()
                .filter(|(_, id)| ids.contains(id))
                .map(|(i, _)| i)
                .collect();
            indices.sort_unstable();
            let source = run
                .program
                .reads()
                .into_iter()
                .find(|&(r, _)| r == oid)
                .map(|(_, s)| s.to_string())
                .unwrap_or_default();
            out.push(format!("#{oid} {source}: {indices:?}"));
        }
        Ok(out)
    }
}

/// PROVision-style lazy querying as a backend: `TRACE <row>` re-executes
/// the captured program once per input dataset (capture on), backtraces
/// the whole queried item, and reports only that input's provenance —
/// the per-source independence that makes lazy querying expensive.
pub struct LazyBackend;

struct PreparedLazy<'r> {
    run: &'r CapturedRun,
    ctx: &'r Context,
}

impl CaptureBackend for LazyBackend {
    fn name(&self) -> &'static str {
        "lazy"
    }

    fn prepare<'r>(
        &self,
        run: &'r CapturedRun,
        ctx: &'r Context,
    ) -> Result<Box<dyn PreparedBackend + 'r>> {
        Ok(Box::new(PreparedLazy { run, ctx }))
    }
}

impl PreparedBackend for PreparedLazy<'_> {
    fn answer(&self, query: &str) -> Result<Vec<String>> {
        let query = query.trim();
        let Some(arg) = query.strip_prefix("TRACE ") else {
            return Err(unknown_query_error("lazy", query));
        };
        let index = parse_row(self.run, arg)?;
        let mut out = Vec::new();
        for (read_op, _) in self.run.program.reads() {
            // One full re-execution with capture per input dataset.
            let rerun = run_captured(&self.run.program, self.ctx, ExecConfig::with_partitions(1))?;
            let row = &rerun.output.rows[index];
            let tree = ProvTree::from_paths(Path::path_set(&row.item).iter());
            let bt = Backtrace {
                entries: vec![(row.id, tree)],
            };
            let mut sources = backtrace(&rerun, bt)?;
            sources.retain(|s| s.read_op == read_op);
            out.extend(
                canonical_provenance(&sources)
                    .into_iter()
                    .map(|(source, idx, tree)| format!("{source}[{idx}]: {tree}")),
            );
        }
        Ok(out)
    }
}

/// Lipstick-style annotation accounting as a backend: `ANNOTATIONS`
/// contrasts per-value annotation counts with Pebble's one identifier per
/// top-level item, per input dataset.
pub struct LipstickBackend;

struct PreparedLipstick<'r> {
    run: &'r CapturedRun,
    ctx: &'r Context,
}

impl CaptureBackend for LipstickBackend {
    fn name(&self) -> &'static str {
        "lipstick"
    }

    fn prepare<'r>(
        &self,
        run: &'r CapturedRun,
        ctx: &'r Context,
    ) -> Result<Box<dyn PreparedBackend + 'r>> {
        Ok(Box::new(PreparedLipstick { run, ctx }))
    }
}

impl PreparedBackend for PreparedLipstick<'_> {
    fn answer(&self, query: &str) -> Result<Vec<String>> {
        if query.trim() != "ANNOTATIONS" {
            return Err(unknown_query_error("lipstick", query));
        }
        let mut out = Vec::new();
        for (oid, source) in self.run.program.reads() {
            let items = self
                .ctx
                .source(source)
                .ok_or_else(|| EngineError::BacktraceError(format!("unknown source `{source}`")))?;
            out.push(format!(
                "#{oid} {source}: lipstick {} annotations vs pebble {} ids",
                annotation_count(items),
                pebble_annotation_count(items)
            ));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_dataflow::{context::items_of, Expr, ProgramBuilder};
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

    fn captured() -> (CapturedRun, Context) {
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let f = b.filter(r, Expr::col("v").ge(Expr::lit(2i64)));
        let p = b.build(f);
        let c = ctx();
        let run = run_captured(&p, &c, ExecConfig::with_partitions(2)).unwrap();
        (run, c)
    }

    #[test]
    fn titian_traces_whole_items() {
        let (run, c) = captured();
        let prepared = TitianBackend.prepare(&run, &c).unwrap();
        let lines = prepared.answer("TRACE 0").unwrap();
        assert_eq!(lines, ["#0 t: [1]"]);
        assert!(prepared.answer("TRACE 9").is_err());
        assert!(prepared.answer("BACKTRACE 0").is_err());
    }

    #[test]
    fn lazy_matches_structural_backtrace() {
        let (run, c) = captured();
        let lazy = LazyBackend.prepare(&run, &c).unwrap();
        let structural = pebble_core::StructuralBackend.prepare(&run, &c).unwrap();
        assert_eq!(
            lazy.answer("TRACE 1").unwrap(),
            structural.answer("BACKTRACE 1").unwrap()
        );
    }

    #[test]
    fn lipstick_counts_annotations_per_source() {
        let (run, c) = captured();
        let prepared = LipstickBackend.prepare(&run, &c).unwrap();
        let lines = prepared.answer("ANNOTATIONS").unwrap();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("#0 t: lipstick "));
        assert!(prepared.answer("COUNT 0").is_err());
    }
}
