//! Where-provenance baseline (Buneman et al., ICDT 2001), extended to our
//! pipelines as discussed in Sec. 2 of the paper.
//!
//! Where-provenance answers: *from which input cells was this result value
//! copied?* It chases the engine's copy operations (select projections,
//! flatten relocations, join field copies, nesting) backwards for a single
//! result value. Sec. 2 shows why this is weaker than structural
//! provenance: tracing `lp` in the running example yields the cells with
//! superscripts 14, 19 **and 33** of Tab. 1 — it cannot express that the
//! queried duplicate texts must be traced *within their common context*,
//! so the (irrelevant) mention of lp in tweet 29 pollutes the answer.
//!
//! The implementation walks the captured run like the backtracing
//! algorithm, but carries a single value path per entry and ignores the
//! contributing/influencing machinery.

use pebble_core::{CapturedRun, ProvAssoc};
use pebble_dataflow::{ItemId, OpId, OpKind};
use pebble_nested::{Path, Step};

/// One input cell a value was copied from.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cell {
    /// The `read` operator of the source dataset.
    pub read_op: OpId,
    /// Source dataset name.
    pub source: String,
    /// Item position in the source dataset.
    pub index: usize,
    /// Path of the cell within the item.
    pub path: Path,
}

/// Computes the where-provenance of the value at `path` inside the result
/// item identified by `id`.
pub fn where_provenance(run: &CapturedRun, id: ItemId, path: &Path) -> Vec<Cell> {
    let mut worklist: Vec<(OpId, ItemId, Path)> = vec![(run.program.sink(), id, path.clone())];
    let mut cells = Vec::new();

    while let Some((oid, id, path)) = worklist.pop() {
        let p = run.op(oid);
        match p.op_type.as_str() {
            "read" => {
                let ProvAssoc::Read(ids) = &p.assoc else {
                    unreachable!()
                };
                let Some(index) = ids.iter().position(|&i| i == id) else {
                    continue;
                };
                let OpKind::Read { source } = &run.program.operators()[oid as usize].kind else {
                    unreachable!()
                };
                cells.push(Cell {
                    read_op: oid,
                    source: source.clone(),
                    index,
                    path,
                });
            }
            "filter" => {
                // Values pass through unchanged.
                if let Some((input, _)) = unary_input(p, id) {
                    worklist.push((pred(p, 0), input, path));
                }
            }
            "map" => {
                // Opaque: the copy chain is cut; a real system would need
                // UDF instrumentation. We stop, reporting nothing — the
                // honest ⊥ of the paper's model.
            }
            "select" => {
                if let Some((input, _)) = unary_input(p, id) {
                    for rewritten in rewrite_back(p, &path) {
                        worklist.push((pred(p, 0), input, rewritten));
                    }
                }
            }
            "flatten" => {
                let ProvAssoc::Flatten(assoc) = &p.assoc else {
                    unreachable!()
                };
                let Some(&(input, pos, _)) = assoc.iter().find(|&&(_, _, o)| o == id) else {
                    continue;
                };
                let mut found = false;
                for rewritten in rewrite_back(p, &path) {
                    found = true;
                    worklist.push((pred(p, 0), input, rewritten.fill_placeholder(pos)));
                }
                if !found {
                    // Attribute not produced by the flatten: it was copied
                    // from the input item verbatim.
                    worklist.push((pred(p, 0), input, path));
                }
            }
            "union" => {
                let ProvAssoc::Binary(assoc) = &p.assoc else {
                    unreachable!()
                };
                if let Some(&(l, r, _)) = assoc.iter().find(|&&(_, _, o)| o == id) {
                    if let Some(l) = l {
                        worklist.push((pred(p, 0), l, path.clone()));
                    }
                    if let Some(r) = r {
                        worklist.push((pred(p, 1), r, path));
                    }
                }
            }
            "join" => {
                let ProvAssoc::Binary(assoc) = &p.assoc else {
                    unreachable!()
                };
                let Some(&(l, r, _)) = assoc.iter().find(|&&(_, _, o)| o == id) else {
                    continue;
                };
                // The output attribute belongs to exactly one side; the
                // rename map (recorded in M) tells us which.
                for (m_in, m_out) in p.manipulated.as_deref().unwrap_or_default() {
                    if let Some(rewritten) = path.replace_prefix(m_out, m_in) {
                        // Left mappings precede right ones in M; resolve
                        // the side via the left input schema.
                        let left_schema = run.input_schema(oid, 0);
                        let is_left = match m_out.head() {
                            Some(Step::Attr(a)) => left_schema
                                .fields()
                                .is_some_and(|fs| fs.iter().any(|f| &f.name == a)),
                            _ => false,
                        };
                        if is_left {
                            if let Some(l) = l {
                                worklist.push((pred(p, 0), l, rewritten));
                            }
                        } else if let Some(r) = r {
                            worklist.push((pred(p, 1), r, rewritten));
                        }
                        break;
                    }
                }
            }
            "aggregation" => {
                let ProvAssoc::Agg(assoc) = &p.assoc else {
                    unreachable!()
                };
                let Some((members, _)) = assoc.iter().find(|(_, o)| *o == id) else {
                    continue;
                };
                for (m_in, m_out) in p.manipulated.as_deref().unwrap_or_default() {
                    if m_out.has_placeholder() {
                        // Bag nesting: position selects the member.
                        for (idx, &member) in members.iter().enumerate() {
                            let filled = m_out.fill_placeholder(idx as u32 + 1);
                            if let Some(rewritten) = path.replace_prefix(&filled, m_in) {
                                worklist.push((pred(p, 0), member, rewritten));
                            }
                        }
                    } else if let Some(rewritten) = path.replace_prefix(m_out, m_in) {
                        // Keys and scalar aggregates: copied/derived from
                        // every member.
                        for &member in members.iter() {
                            worklist.push((pred(p, 0), member, rewritten.clone()));
                        }
                    }
                }
            }
            other => unreachable!("unknown operator `{other}`"),
        }
    }

    cells.sort();
    cells.dedup();
    cells
}

fn pred(p: &pebble_core::OperatorProvenance, idx: usize) -> OpId {
    p.inputs[idx]
        .pred
        .expect("non-read operator has predecessor")
}

fn unary_input(p: &pebble_core::OperatorProvenance, id: ItemId) -> Option<(ItemId, ())> {
    let ProvAssoc::Unary(assoc) = &p.assoc else {
        unreachable!()
    };
    assoc.pairs().find(|&(_, o)| o == id).map(|(i, _)| (i, ()))
}

/// Rewrites a result-side path back through the operator's manipulation
/// mapping; several mappings can apply when paths overlap.
fn rewrite_back(p: &pebble_core::OperatorProvenance, path: &Path) -> Vec<Path> {
    let mut out = Vec::new();
    for (m_in, m_out) in p.manipulated.as_deref().unwrap_or_default() {
        if let Some(rewritten) = path.replace_prefix(m_out, m_in) {
            out.push(rewritten);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_core::run_captured;
    use pebble_dataflow::ExecConfig;
    use pebble_nested::Value;
    use pebble_workloads::running_example;

    fn cfg() -> ExecConfig {
        ExecConfig::with_partitions(2)
    }

    /// The Sec. 2 discussion: where-provenance of the `lp` value in result
    /// item 102 returns the id_str cells of tweets 1-3 (upper branch) *and*
    /// of the mention inside tweet 29 (lower branch) — the superscripts
    /// 14, 19, 33 (plus tweet 1's author cell) of Tab. 1.
    #[test]
    fn lp_where_provenance_includes_irrelevant_mention() {
        let ctx = running_example::context();
        let run = run_captured(&running_example::program(), &ctx, cfg()).unwrap();
        let lp = run
            .output
            .rows
            .iter()
            .find(|r| Path::parse("user.id_str").eval(&r.item) == Some(&Value::str("lp")))
            .unwrap();
        let cells = where_provenance(&run, lp.id, &Path::parse("user.id_str"));
        let upper: Vec<&Cell> = cells.iter().filter(|c| c.read_op == 0).collect();
        let lower: Vec<&Cell> = cells.iter().filter(|c| c.read_op == 3).collect();
        // Upper branch: tweets 0, 1, 2 authored by lp (retweet_cnt == 0).
        let upper_idx: Vec<usize> = upper.iter().map(|c| c.index).collect();
        assert_eq!(upper_idx, [0, 1, 2]);
        assert!(upper.iter().all(|c| c.path == Path::parse("user.id_str")));
        // Lower branch: the mention of lp inside tweet 4 (cell 33) — the
        // pollution structural provenance avoids for the duplicate-text
        // question.
        assert_eq!(lower.len(), 1);
        assert_eq!(lower[0].index, 4);
        assert_eq!(lower[0].path, Path::parse("user_mentions[1].id_str"));
    }

    /// Where-provenance of a nested tweet text pinpoints the single input
    /// text cell it was copied from.
    #[test]
    fn nested_text_traces_to_single_cell() {
        let ctx = running_example::context();
        let run = run_captured(&running_example::program(), &ctx, cfg()).unwrap();
        let lp = run
            .output
            .rows
            .iter()
            .find(|r| Path::parse("user.id_str").eval(&r.item) == Some(&Value::str("lp")))
            .unwrap();
        // tweets[2].text is the first "Hello World" (input tweet 1).
        let cells = where_provenance(&run, lp.id, &Path::parse("tweets[2].text"));
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].index, 1);
        assert_eq!(cells[0].path, Path::attr("text"));
    }

    /// An opaque map cuts the copy chain (⊥).
    #[test]
    fn map_cuts_where_provenance() {
        use pebble_dataflow::{context::items_of, Context, MapUdf, ProgramBuilder};
        use std::sync::Arc;
        let mut c = Context::new();
        c.register("t", items_of(vec![vec![("a", Value::Int(1))]]));
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let m = b.map(
            r,
            MapUdf {
                name: "id".into(),
                f: Arc::new(Clone::clone),
                output_schema: None,
            },
        );
        let run = run_captured(&b.build(m), &c, cfg()).unwrap();
        let id = run.output.rows[0].id;
        assert!(where_provenance(&run, id, &Path::attr("a")).is_empty());
    }
}
