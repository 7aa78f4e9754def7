//! Semiring provenance polynomials (`N[X]` how-provenance) over captured
//! association tables, with a probability-semiring evaluation hook.
//!
//! Following the ProvSQL line of work, each output *tuple* is annotated
//! with a polynomial over source-tuple variables: alternative derivations
//! add, joint derivations multiply. Pebble's capture assigns every item a
//! distinct identifier, so a single sink identifier has exactly one
//! derivation tree; genuine sums arise at the **value level** — the
//! polynomial of output row `i` is the sum over all sink rows carrying an
//! item equal to `rows[i].item` (K-relation semantics: the annotation of
//! a tuple adds up its derivations). Within one derivation:
//!
//! * `read` introduces the variable `x<read_op>_<dataset index>`;
//! * `filter`/`select`/`map` are identity in the identifier algebra
//!   (an opaque `map` still records its ⟨id^i, id^o⟩ association);
//! * `join` multiplies both sides, `union` passes the present side;
//! * `flatten` passes the collection owner (pure `N[X]` has no position
//!   marker — the structural position lives in Pebble's own tables);
//! * aggregation multiplies all group members (joint derivation).
//!
//! Polynomials are kept **canonically expanded**: a sorted monomial map
//! `vars^exponents -> coefficient`, rendered deterministically. All
//! quantities in an answer are identifier-free (variables name the read
//! operator and the dataset position), so answers are byte-identical
//! across partition/worker/columnar/spill execution shapes.
//!
//! The probability hook evaluates the polynomial in the probability
//! semiring with **exact rational arithmetic**: each variable gets the
//! deterministic probability `n_v/16` with `n_v = 1 + (5·read + 3·index
//! mod 15)`, worlds are enumerated exhaustively (capped at
//! `MAX_PROB_VARS` = 12 variables), and the result is a reduced fraction —
//! no floating point, so the naive oracle reference (which evaluates the
//! association-table *circuit* per world instead of the expanded
//! polynomial) must agree to the last digit.

use std::collections::BTreeMap;

use pebble_dataflow::hash::FxHashMap;
use pebble_dataflow::{EngineError, ItemId, OpId, Result};

use crate::capture::{CapturedRun, ProvAssoc};

/// A source-tuple variable: the `read` operator and the dataset position.
pub type SemiringVar = (OpId, usize);

/// A monomial: variables with exponents, sorted by variable.
pub type Monomial = Vec<(SemiringVar, u32)>;

/// Ceiling on the monomials a polynomial may hold; construction past it
/// fails with [`poly_too_large`] instead of exhausting memory.
const MAX_MONOMIALS: usize = 4096;

/// Ceiling on the distinct variables a probability evaluation enumerates
/// (2^vars worlds).
const MAX_PROB_VARS: usize = 12;

/// Denominator of every variable probability (`n_v / 16`).
const PROB_DENOM: u64 = 16;

/// Error constructors. The oracle reference reaches them through the
/// public entry points (`row_range_error`, `probability_by`, …), so the
/// `Display`s agree exactly.
fn semiring_parse_error(detail: &str) -> EngineError {
    EngineError::BacktraceError(format!("semiring query: {detail}"))
}

/// Error for an out-of-range output row index.
pub fn row_range_error(index: usize, rows: usize) -> EngineError {
    semiring_parse_error(&format!(
        "row index {index} out of range ({rows} output rows)"
    ))
}

/// Error for a polynomial exceeding [`MAX_MONOMIALS`].
fn poly_too_large() -> EngineError {
    semiring_parse_error(&format!("polynomial exceeds {MAX_MONOMIALS} monomials"))
}

/// Error for a probability query over too many variables.
fn too_many_vars(vars: usize) -> EngineError {
    semiring_parse_error(&format!(
        "probability over {vars} variables exceeds the {MAX_PROB_VARS}-variable limit"
    ))
}

/// The deterministic probability of a variable, as a numerator over
/// [`PROB_DENOM`]: `1 + (5·read + 3·index mod 15)`, i.e. never 0 or 1.
fn var_probability((read_op, index): SemiringVar) -> u64 {
    1 + (5 * u64::from(read_op) + 3 * index as u64) % 15
}

/// A canonically expanded polynomial in `N[X]`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Polynomial {
    /// Monomial → coefficient; the map order is the render order.
    pub terms: BTreeMap<Monomial, u64>,
}

impl Polynomial {
    /// The zero polynomial.
    pub fn zero() -> Polynomial {
        Polynomial::default()
    }

    /// The multiplicative unit (the empty monomial with coefficient 1).
    pub fn one() -> Polynomial {
        let mut terms = BTreeMap::new();
        terms.insert(Vec::new(), 1);
        Polynomial { terms }
    }

    /// A single variable.
    pub fn var(v: SemiringVar) -> Polynomial {
        let mut terms = BTreeMap::new();
        terms.insert(vec![(v, 1)], 1);
        Polynomial { terms }
    }

    /// Adds another polynomial in place.
    pub fn add(&mut self, other: &Polynomial) -> Result<()> {
        for (m, c) in &other.terms {
            *self.terms.entry(m.clone()).or_insert(0) += c;
        }
        if self.terms.len() > MAX_MONOMIALS {
            return Err(poly_too_large());
        }
        Ok(())
    }

    /// Multiplies by another polynomial, expanding monomial products.
    pub fn mul(&self, other: &Polynomial) -> Result<Polynomial> {
        let mut out = Polynomial::zero();
        for (ma, ca) in &self.terms {
            for (mb, cb) in &other.terms {
                let m = merge_monomials(ma, mb);
                *out.terms.entry(m).or_insert(0) += ca * cb;
                if out.terms.len() > MAX_MONOMIALS {
                    return Err(poly_too_large());
                }
            }
        }
        Ok(out)
    }

    /// Sum of coefficients — the derivation count (evaluation at all-1s).
    pub fn count(&self) -> u64 {
        self.terms.values().sum()
    }

    /// The distinct variables mentioned, ascending.
    pub fn variables(&self) -> Vec<SemiringVar> {
        let mut out: Vec<SemiringVar> = Vec::new();
        for m in self.terms.keys() {
            for &(v, _) in m {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Deterministic rendering: `3·x0_1·x3_4^2 + x0_2`, monomials in map
    /// order; the zero polynomial renders as `0`, the empty monomial
    /// contributes its bare coefficient.
    pub fn render(&self) -> String {
        if self.terms.is_empty() {
            return "0".to_string();
        }
        let mut parts = Vec::new();
        for (m, c) in &self.terms {
            let mut factors: Vec<String> = Vec::new();
            if *c != 1 || m.is_empty() {
                factors.push(c.to_string());
            }
            for ((read_op, index), exp) in m {
                if *exp == 1 {
                    factors.push(format!("x{read_op}_{index}"));
                } else {
                    factors.push(format!("x{read_op}_{index}^{exp}"));
                }
            }
            parts.push(factors.join("·"));
        }
        parts.join(" + ")
    }

    /// Is the polynomial non-zero in the given world (boolean semiring:
    /// some monomial has all its variables present)?
    fn true_in(&self, world: &[SemiringVar]) -> bool {
        self.terms
            .keys()
            .any(|m| m.iter().all(|(v, _)| world.contains(v)))
    }
}

/// Merges two sorted monomials, adding exponents.
fn merge_monomials(a: &Monomial, b: &Monomial) -> Monomial {
    let mut out: Monomial = Vec::with_capacity(a.len() + b.len());
    let (mut ia, mut ib) = (0, 0);
    while ia < a.len() || ib < b.len() {
        match (a.get(ia), b.get(ib)) {
            (Some(&(va, ea)), Some(&(vb, eb))) if va == vb => {
                out.push((va, ea + eb));
                ia += 1;
                ib += 1;
            }
            (Some(&(va, ea)), Some(&(vb, _))) if va < vb => {
                out.push((va, ea));
                ia += 1;
            }
            (Some(_), Some(&(vb, eb))) => {
                out.push((vb, eb));
                ib += 1;
            }
            (Some(&(va, ea)), None) => {
                out.push((va, ea));
                ia += 1;
            }
            (None, Some(&(vb, eb))) => {
                out.push((vb, eb));
                ib += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    out
}

/// Computes the polynomial of output row `index` — the engine
/// implementation: a memoized bottom-up walk over per-operator
/// output-identifier indexes, summed across all sink rows whose item
/// equals the queried row's item.
pub fn polynomial_of(run: &CapturedRun, index: usize) -> Result<Polynomial> {
    let rows = run.output.rows.len();
    let target = run
        .output
        .rows
        .get(index)
        .ok_or_else(|| row_range_error(index, rows))?;
    let mut memo: FxHashMap<(OpId, ItemId), Polynomial> = FxHashMap::default();
    let mut out = Polynomial::zero();
    for row in &run.output.rows {
        if row.item == target.item {
            out.add(&id_polynomial(run, run.program.sink(), row.id, &mut memo)?)?;
        }
    }
    Ok(out)
}

/// The polynomial of one identifier at one operator.
fn id_polynomial(
    run: &CapturedRun,
    oid: OpId,
    id: ItemId,
    memo: &mut FxHashMap<(OpId, ItemId), Polynomial>,
) -> Result<Polynomial> {
    if let Some(p) = memo.get(&(oid, id)) {
        return Ok(p.clone());
    }
    let op = run.op(oid);
    let pred = |idx: usize| -> Result<OpId> {
        op.inputs.get(idx).and_then(|i| i.pred).ok_or_else(|| {
            EngineError::BacktraceError(format!("operator #{oid} input {idx} missing"))
        })
    };
    let missing = || {
        EngineError::BacktraceError(format!("identifier {id} not associated at operator #{oid}"))
    };
    let result = match &op.assoc {
        ProvAssoc::Read(ids) => {
            let index = ids.iter().position(|&i| i == id).ok_or_else(missing)?;
            Polynomial::var((oid, index))
        }
        ProvAssoc::Unary(v) => {
            let (input, _) = v.pairs().find(|&(_, o)| o == id).ok_or_else(missing)?;
            id_polynomial(run, pred(0)?, input, memo)?
        }
        ProvAssoc::Binary(v) => {
            let &(l, r, _) = v.iter().find(|&&(_, _, o)| o == id).ok_or_else(missing)?;
            match (l, r) {
                (Some(l), Some(r)) => {
                    let pl = id_polynomial(run, pred(0)?, l, memo)?;
                    let pr = id_polynomial(run, pred(1)?, r, memo)?;
                    pl.mul(&pr)?
                }
                (Some(l), None) => id_polynomial(run, pred(0)?, l, memo)?,
                (None, Some(r)) => id_polynomial(run, pred(1)?, r, memo)?,
                (None, None) => return Err(missing()),
            }
        }
        ProvAssoc::Flatten(v) => {
            let &(input, _, _) = v.iter().find(|&&(_, _, o)| o == id).ok_or_else(missing)?;
            id_polynomial(run, pred(0)?, input, memo)?
        }
        ProvAssoc::Agg(v) => {
            let (members, _) = v.iter().find(|(_, o)| *o == id).ok_or_else(missing)?;
            let mut p = Polynomial::one();
            for &m in members {
                p = p.mul(&id_polynomial(run, pred(0)?, m, memo)?)?;
            }
            p
        }
    };
    memo.insert((oid, id), result.clone());
    Ok(result)
}

/// Evaluates a polynomial in the probability semiring by exhaustive world
/// enumeration with exact integer weights; returns the reduced fraction
/// rendered as `num/den` (or `0` / `1`).
pub fn probability(poly: &Polynomial) -> Result<String> {
    let vars = poly.variables();
    probability_by(&vars, |world| poly.true_in(world))
}

/// Shared world-enumeration core: sums the weights of the worlds where
/// `truth` holds. The engine passes the expanded polynomial's DNF test;
/// the oracle reference passes a per-world circuit evaluation over the
/// association tables — same worlds, same weights, different algorithms.
pub fn probability_by(
    vars: &[SemiringVar],
    mut truth: impl FnMut(&[SemiringVar]) -> bool,
) -> Result<String> {
    if vars.len() > MAX_PROB_VARS {
        return Err(too_many_vars(vars.len()));
    }
    let numerators: Vec<u64> = vars.iter().map(|&v| var_probability(v)).collect();
    let mut num: u64 = 0;
    let den: u64 = PROB_DENOM.pow(vars.len() as u32);
    let mut world: Vec<SemiringVar> = Vec::with_capacity(vars.len());
    for mask in 0u32..(1u32 << vars.len()) {
        world.clear();
        let mut weight: u64 = 1;
        for (bit, (&v, &n)) in vars.iter().zip(&numerators).enumerate() {
            if mask & (1 << bit) != 0 {
                world.push(v);
                weight *= n;
            } else {
                weight *= PROB_DENOM - n;
            }
        }
        if truth(&world) {
            num += weight;
        }
    }
    Ok(render_fraction(num, den))
}

/// Renders a reduced fraction: `0`, `1`, or `num/den`.
fn render_fraction(num: u64, den: u64) -> String {
    if num == 0 {
        return "0".to_string();
    }
    if num == den {
        return "1".to_string();
    }
    let g = gcd(num, den);
    format!("{}/{}", num / g, den / g)
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

/// Parses the row index of a `POLY|COUNT|PROB <row>` query. Shared with
/// the oracle reference so parse errors render identically.
pub fn parse_row_query<'q>(query: &'q str, verbs: &[&str]) -> Result<(&'q str, usize)> {
    let query = query.trim();
    let Some((verb, arg)) = query.split_once(char::is_whitespace) else {
        return Err(semiring_parse_error(&format!(
            "expected `{} <row>`, got `{query}`",
            verbs.join("|")
        )));
    };
    if !verbs.contains(&verb) {
        return Err(semiring_parse_error(&format!(
            "unknown verb `{verb}` (expected {})",
            verbs.join("|")
        )));
    }
    let index: usize = arg
        .trim()
        .parse()
        .map_err(|_| semiring_parse_error(&format!("bad row index `{}`", arg.trim())))?;
    Ok((verb, index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::run_captured;
    use pebble_dataflow::{
        context::items_of, AggFunc, AggSpec, Context, ExecConfig, Expr, GroupKey, ProgramBuilder,
    };
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

    #[test]
    fn polynomial_algebra_and_rendering() {
        let x = Polynomial::var((0, 0));
        let y = Polynomial::var((0, 1));
        let mut sum = x.clone();
        sum.add(&y).unwrap();
        let prod = sum.mul(&x).unwrap();
        assert_eq!(prod.render(), "x0_0·x0_1 + x0_0^2");
        assert_eq!(prod.count(), 2);
        assert_eq!(prod.variables(), vec![(0, 0), (0, 1)]);
        assert_eq!(Polynomial::zero().render(), "0");
        let mut two = Polynomial::one();
        two.add(&Polynomial::one()).unwrap();
        assert_eq!(two.render(), "2");
    }

    #[test]
    fn fraction_rendering_reduces() {
        assert_eq!(render_fraction(0, 16), "0");
        assert_eq!(render_fraction(16, 16), "1");
        assert_eq!(render_fraction(4, 16), "1/4");
        assert_eq!(render_fraction(6, 256), "3/128");
    }

    #[test]
    fn filter_keeps_source_variable() {
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let f = b.filter(r, Expr::col("v").ge(Expr::lit(2i64)));
        let run = run_captured(&b.build(f), &ctx(), ExecConfig::with_partitions(2)).unwrap();
        let p = polynomial_of(&run, 0).unwrap();
        assert_eq!(p.render(), "x0_1");
        assert_eq!(p.count(), 1);
        // var (0,1): 1 + (5·0 + 3·1) % 15 = 4 → 4/16 = 1/4.
        assert_eq!(probability(&p).unwrap(), "1/4");
    }

    #[test]
    fn union_sums_equal_items() {
        let mut b = ProgramBuilder::new();
        let l = b.read("t");
        let r = b.read("t");
        let u = b.union(l, r);
        let run = run_captured(&b.build(u), &ctx(), ExecConfig::with_partitions(1)).unwrap();
        // Every output item appears once per branch: its annotation is the
        // sum of both derivations (value-level K-relation semantics).
        let p = polynomial_of(&run, 0).unwrap();
        assert_eq!(p.render(), "x0_0 + x1_0");
        assert_eq!(p.count(), 2);
    }

    #[test]
    fn aggregation_multiplies_group_members() {
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let g = b.group_aggregate(
            r,
            vec![GroupKey::new("k")],
            vec![AggSpec::new(AggFunc::Sum, "v", "s")],
        );
        let run = run_captured(&b.build(g), &ctx(), ExecConfig::with_partitions(2)).unwrap();
        let a = run
            .output
            .rows
            .iter()
            .position(|row| row.item.get("k") == Some(&Value::str("a")))
            .unwrap();
        let p = polynomial_of(&run, a).unwrap();
        assert_eq!(p.render(), "x0_0·x0_2");
        // vars (0,0): n=1, (0,2): n=7 → (1/16)(7/16) = 7/256.
        assert_eq!(probability(&p).unwrap(), "7/256");
    }

    #[test]
    fn row_query_parsing_and_errors() {
        let verbs = ["POLY", "COUNT", "PROB"];
        assert_eq!(parse_row_query("POLY 3", &verbs).unwrap(), ("POLY", 3));
        assert_eq!(parse_row_query(" COUNT 0 ", &verbs).unwrap(), ("COUNT", 0));
        assert!(parse_row_query("POLY", &verbs).is_err());
        assert!(parse_row_query("FROB 1", &verbs).is_err());
        assert!(parse_row_query("PROB x", &verbs).is_err());
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let run = run_captured(&b.build(r), &ctx(), ExecConfig::with_partitions(1)).unwrap();
        let err = polynomial_of(&run, 9).unwrap_err();
        assert_eq!(
            err.to_string(),
            "backtrace failed: semiring query: row index 9 out of range (3 output rows)"
        );
    }

    #[test]
    fn probability_respects_var_limit() {
        let vars: Vec<SemiringVar> = (0..MAX_PROB_VARS + 1).map(|i| (0, i)).collect();
        assert!(probability_by(&vars, |_| true).is_err());
        // At the limit, all-true sums every world weight: probability 1.
        let vars: Vec<SemiringVar> = (0..4).map(|i| (0, i)).collect();
        assert_eq!(probability_by(&vars, |_| true).unwrap(), "1");
    }
}
