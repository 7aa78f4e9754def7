//! PROVision-style how-provenance polynomials (Zheng et al., ICDE 2019),
//! extended with the paper's list-collection UDF `c_l` (Sec. 2).
//!
//! PROVision tracks tuple-level provenance polynomials over a semiring:
//! alternative derivations add (`+`), joint derivations multiply (`·`),
//! and special markers record flattening and aggregation UDFs. Sec. 2
//! derives the polynomial for result item 102 of the running example:
//!
//! ```text
//! (p1 + p12 + p17 + (p29 · P_flatten(p29 · [0]))) ·
//!   P_cl((p1 + p12 + p17 + (p29 · P_flatten(p29 · [0]))), (⟨p1⟩ + …))
//! ```
//!
//! and uses it to argue that tuple-granular polynomials are verbose while
//! still *not* pinpointing the nested items a user asks about. This module
//! reproduces such polynomials so the comparison is executable.

use pebble_core::{CapturedRun, ProvAssoc};
use pebble_dataflow::hash::FxHashMap;
use pebble_dataflow::{ItemId, OpId};

/// A provenance polynomial over source-tuple variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Poly {
    /// Source tuple variable `p_i` (read operator + dataset position).
    Var {
        /// The `read` operator that produced the tuple.
        read_op: OpId,
        /// Position in the source dataset.
        index: usize,
    },
    /// Alternative derivations: `a + b + …`.
    Sum(Vec<Poly>),
    /// Joint derivation: `a · b · …`.
    Product(Vec<Poly>),
    /// Flattening marker `P_flatten(arg · [pos])` — the element position
    /// the tuple was unnested at.
    Flatten(Box<Poly>, u32),
    /// Aggregation/collection UDF marker `P_f(args…)` (e.g. the paper's
    /// list-collection `cl`).
    Udf(&'static str, Vec<Poly>),
    /// Unknown derivation (opaque `map`).
    Opaque,
}

impl Poly {
    fn sum(mut terms: Vec<Poly>) -> Poly {
        if terms.len() == 1 {
            terms.pop().unwrap()
        } else {
            Poly::Sum(terms)
        }
    }

    /// Number of source-tuple variable occurrences — the verbosity measure
    /// of Sec. 2 (each occurrence is a term the user must read).
    pub fn var_occurrences(&self) -> usize {
        match self {
            Poly::Var { .. } => 1,
            Poly::Sum(ts) | Poly::Product(ts) | Poly::Udf(_, ts) => {
                ts.iter().map(Poly::var_occurrences).sum()
            }
            Poly::Flatten(p, _) => p.var_occurrences(),
            Poly::Opaque => 0,
        }
    }

    /// The distinct source tuples mentioned (what lineage would return).
    pub fn variables(&self) -> Vec<(OpId, usize)> {
        fn go(p: &Poly, out: &mut Vec<(OpId, usize)>) {
            match p {
                Poly::Var { read_op, index } => {
                    if !out.contains(&(*read_op, *index)) {
                        out.push((*read_op, *index));
                    }
                }
                Poly::Sum(ts) | Poly::Product(ts) | Poly::Udf(_, ts) => {
                    for t in ts {
                        go(t, out);
                    }
                }
                Poly::Flatten(inner, _) => go(inner, out),
                Poly::Opaque => {}
            }
        }
        let mut out = Vec::new();
        go(self, &mut out);
        out.sort_unstable();
        out
    }
}

impl std::fmt::Display for Poly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Poly::Var { read_op, index } => write!(f, "p{read_op}_{index}"),
            Poly::Sum(ts) => {
                write!(f, "(")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            Poly::Product(ts) => {
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, "·")?;
                    }
                    write!(f, "{t}")?;
                }
                Ok(())
            }
            Poly::Flatten(p, pos) => write!(f, "P_flatten({p}·[{pos}])"),
            Poly::Udf(name, ts) => {
                write!(f, "P_{name}(")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            Poly::Opaque => write!(f, "⊥"),
        }
    }
}

/// Computes the how-provenance polynomial of one result item from the
/// captured identifier associations.
pub fn polynomial(run: &CapturedRun, id: ItemId) -> Poly {
    let mut memo: FxHashMap<(OpId, ItemId), Poly> = FxHashMap::default();
    poly_of(run, run.program.sink(), id, &mut memo)
}

fn poly_of(
    run: &CapturedRun,
    oid: OpId,
    id: ItemId,
    memo: &mut FxHashMap<(OpId, ItemId), Poly>,
) -> Poly {
    if let Some(p) = memo.get(&(oid, id)) {
        return p.clone();
    }
    let op = run.op(oid);
    let result = match &op.assoc {
        ProvAssoc::Read(ids) => {
            let index = ids.iter().position(|&i| i == id).unwrap_or(usize::MAX);
            Poly::Var {
                read_op: oid,
                index,
            }
        }
        ProvAssoc::Unary(assoc) => {
            let Some((input, _)) = assoc.pairs().find(|&(_, o)| o == id) else {
                return Poly::Opaque;
            };
            let inner = poly_of(run, pred(op, 0), input, memo);
            if op.op_type == "map" {
                Poly::Udf("map", vec![inner])
            } else {
                inner
            }
        }
        ProvAssoc::Binary(assoc) => {
            let Some(&(l, r, _)) = assoc.iter().find(|&&(_, _, o)| o == id) else {
                return Poly::Opaque;
            };
            match (l, r) {
                // Join: joint derivation.
                (Some(l), Some(r)) => Poly::Product(vec![
                    poly_of(run, pred(op, 0), l, memo),
                    poly_of(run, pred(op, 1), r, memo),
                ]),
                // Union: the item came from exactly one side.
                (Some(l), None) => poly_of(run, pred(op, 0), l, memo),
                (None, Some(r)) => poly_of(run, pred(op, 1), r, memo),
                (None, None) => Poly::Opaque,
            }
        }
        ProvAssoc::Flatten(assoc) => {
            let Some(&(input, pos, _)) = assoc.iter().find(|&&(_, _, o)| o == id) else {
                return Poly::Opaque;
            };
            let inner = poly_of(run, pred(op, 0), input, memo);
            // The paper writes p29 · P_flatten(p29 · [0]): the source tuple
            // joined with the flattening of its own collection element.
            Poly::Product(vec![inner.clone(), Poly::Flatten(Box::new(inner), pos)])
        }
        ProvAssoc::Agg(assoc) => {
            let Some((members, _)) = assoc.iter().find(|(_, o)| *o == id) else {
                return Poly::Opaque;
            };
            let member_polys: Vec<Poly> = members
                .iter()
                .map(|&m| poly_of(run, pred(op, 0), m, memo))
                .collect();
            // Sum of alternatives, multiplied by the collection UDF over
            // the same derivations — the structure of the Sec. 2 formula.
            let sum = Poly::sum(member_polys.clone());
            Poly::Product(vec![
                sum.clone(),
                Poly::Udf("cl", vec![sum, Poly::sum(member_polys)]),
            ])
        }
    };
    memo.insert((oid, id), result.clone());
    result
}

fn pred(op: &pebble_core::OperatorProvenance, idx: usize) -> OpId {
    op.inputs[idx].pred.expect("non-read has predecessor")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_core::run_captured;
    use pebble_dataflow::ExecConfig;
    use pebble_nested::{Path, Value};
    use pebble_workloads::running_example;

    #[test]
    fn running_example_polynomial_structure() {
        let ctx = running_example::context();
        let run = run_captured(
            &running_example::program(),
            &ctx,
            ExecConfig::with_partitions(2),
        )
        .unwrap();
        let lp = run
            .output
            .rows
            .iter()
            .find(|r| Path::parse("user.id_str").eval(&r.item) == Some(&Value::str("lp")))
            .unwrap();
        let poly = polynomial(&run, lp.id);
        // The paper's polynomial mentions source tuples 1, 12, 17 (authored,
        // upper branch) and 29 (mention, lower branch) — our indices
        // 0, 1, 2 on read #0 and 4 on read #3.
        let vars = poly.variables();
        assert_eq!(vars, [(0, 0), (0, 1), (0, 2), (3, 4)]);
        // Flatten and collection-UDF markers appear.
        let s = poly.to_string();
        assert!(s.contains("P_flatten"), "{s}");
        assert!(s.contains("P_cl"), "{s}");
        // Verbosity: the polynomial repeats tuple variables many times —
        // the paper's core criticism. 4 distinct tuples, ≥ 8 occurrences
        // (each member appears in the sum and inside the UDF again).
        assert!(poly.var_occurrences() >= 2 * vars.len(), "{s}");
    }

    #[test]
    fn polynomial_vars_match_lineage() {
        use crate::titian::{run_lineage, trace_back};
        let ctx = running_example::context();
        let program = running_example::program();
        let cfg = ExecConfig::with_partitions(2);
        let run = run_captured(&program, &ctx, cfg).unwrap();
        let lrun = run_lineage(&program, &ctx, cfg).unwrap();
        for row in &run.output.rows {
            let vars = polynomial(&run, row.id).variables();
            // Deterministic ids: the same row id exists in the lineage run.
            let lineage = trace_back(&lrun, &[row.id]);
            let mut expected: Vec<(u32, usize)> = lineage
                .into_iter()
                .flat_map(|s| s.indices.into_iter().map(move |i| (s.read_op, i)))
                .collect();
            expected.sort_unstable();
            assert_eq!(vars, expected, "item {}", row.id);
        }
    }

    #[test]
    fn join_produces_products() {
        use pebble_dataflow::{context::items_of, Context, ProgramBuilder};
        let mut c = Context::new();
        c.register("l", items_of(vec![vec![("k", Value::Int(1))]]));
        c.register(
            "r",
            items_of(vec![vec![("k2", Value::Int(1)), ("v", Value::Int(9))]]),
        );
        let mut b = ProgramBuilder::new();
        let l = b.read("l");
        let r = b.read("r");
        let j = b.join(l, r, vec![(Path::attr("k"), Path::attr("k2"))]);
        let run = run_captured(&b.build(j), &c, ExecConfig::with_partitions(1)).unwrap();
        let poly = polynomial(&run, run.output.rows[0].id);
        assert_eq!(
            poly,
            Poly::Product(vec![
                Poly::Var {
                    read_op: 0,
                    index: 0
                },
                Poly::Var {
                    read_op: 1,
                    index: 0
                },
            ])
        );
        assert_eq!(poly.to_string(), "p0_0·p1_0");
    }
}
