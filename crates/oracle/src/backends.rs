//! Differential axis for the capture backends.
//!
//! Mirrors the PR 2 / PR 7 pattern: for each generated case the why-not
//! and semiring backends are answered twice — by the **engine
//! implementations** (`pebble_core::whynot::why_not`,
//! `pebble_core::semiring::polynomial_of`) over the engine's captured
//! run, and by deliberately **naive references** in this module over the
//! reference interpreter's captured run — and the rendered,
//! identifier-free answers must agree byte for byte. The naive paths
//! share only the query grammar, the answer rendering, and the semantics
//! helpers that *define* the contract (route enumeration, backward
//! condition mapping, error strings); the provenance computation itself
//! (forward walks, polynomial expansion, derivation counting, world
//! evaluation) is written twice:
//!
//! * why-not: the engine advances candidate identifier sets through
//!   per-operator hash indexes; the reference walks **one candidate at a
//!   time** with linear scans of the association tables;
//! * semiring `POLY`: the engine expands bottom-up with memoization; the
//!   reference builds an unreduced expression tree per sink identifier
//!   and expands it top-down without memoization;
//! * semiring `COUNT`: the engine sums the expanded polynomial's
//!   coefficients; the reference counts derivation trees directly on the
//!   association-table circuit and never builds a polynomial;
//! * semiring `PROB`: the engine tests the expanded DNF per world; the
//!   reference evaluates the circuit per world recursively.
//!
//! On top of the reference comparison, every engine answer is required
//! to be byte-identical across the execution shapes of
//! [`ExecMatrix::all`] (a rotating slice per seed) — backend answers render
//! only identifier-free quantities, so any drift
//! is a determinism bug. Malformed queries are fed to both sides on
//! every seed and must fail with `Display`-identical errors.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pebble_core::semiring::{
    self, parse_row_query, probability_by, row_range_error, Polynomial, SemiringVar,
};
use pebble_core::whynot::{
    self, condition_holds, enumerate_routes, map_condition_back, parse_whynot_query, read_ids,
    source_name, Condition, RouteExplanation, WhyNotAnswer,
};
use pebble_core::{run_captured, CapturedRun, ProvAssoc};
use pebble_dataflow::{Context, EngineError, ExecConfig, ExecMatrix, ItemId, OpId, Result};
use pebble_nested::{Path, Value};

use crate::diff::Divergence;
use crate::gen::Generated;
use crate::interp::run_reference;

/// One backend query of a generated case.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Query {
    WhyNot(String),
    Semiring(String),
}

impl Query {
    fn text(&self) -> &str {
        match self {
            Query::WhyNot(q) | Query::Semiring(q) => q,
        }
    }
}

/// Answers one query with the engine implementations.
fn engine_answer(run: &CapturedRun, ctx: &Context, q: &Query) -> Result<Vec<String>> {
    match q {
        Query::WhyNot(text) => {
            let conds = parse_whynot_query(text)?;
            Ok(whynot::why_not(run, ctx, &conds)?.render(run))
        }
        Query::Semiring(text) => {
            let (verb, index) = parse_row_query(text, &["POLY", "COUNT", "PROB"])?;
            Ok(vec![match verb {
                "POLY" => semiring::polynomial_of(run, index)?.render(),
                "COUNT" => semiring::polynomial_of(run, index)?.count().to_string(),
                _ => semiring::probability(&semiring::polynomial_of(run, index)?)?,
            }])
        }
    }
}

/// Answers one query with the naive reference implementations.
fn naive_answer(run: &CapturedRun, ctx: &Context, q: &Query) -> Result<Vec<String>> {
    match q {
        Query::WhyNot(text) => {
            let conds = parse_whynot_query(text)?;
            Ok(naive_why_not(run, ctx, &conds)?.render(run))
        }
        Query::Semiring(text) => {
            let (verb, index) = parse_row_query(text, &["POLY", "COUNT", "PROB"])?;
            Ok(vec![match verb {
                "POLY" => naive_polynomial(run, index)?.render(),
                "COUNT" => naive_count(run, index)?.to_string(),
                _ => naive_probability(run, index)?,
            }])
        }
    }
}

// ---------------------------------------------------------------------
// Naive why-not reference: one candidate at a time, linear scans only.
// ---------------------------------------------------------------------

fn naive_why_not(run: &CapturedRun, ctx: &Context, conds: &[Condition]) -> Result<WhyNotAnswer> {
    if conds.is_empty() {
        return Err(whynot::whynot_parse_error("empty question"));
    }
    let mut found = Vec::new();
    for (i, row) in run.output.rows.iter().enumerate() {
        if conds.iter().all(|c| condition_holds(c, &row.item)) {
            found.push(i);
        }
    }
    if !found.is_empty() {
        return Ok(WhyNotAnswer {
            found,
            routes: Vec::new(),
        });
    }

    let mut routes = Vec::new();
    for route in enumerate_routes(&run.program) {
        let source = source_name(&run.program, route.read_op)?;
        let items = ctx
            .source(&source)
            .ok_or_else(|| EngineError::UnknownSource(source.clone()))?;

        let mut traced_conditions = Vec::new();
        let mut source_conds = Vec::new();
        for (ci, cond) in conds.iter().enumerate() {
            let mut path = Some(cond.path.clone());
            for &(oid, side) in route.ops.iter().rev() {
                path = path.and_then(|p| map_condition_back(run, oid, side, &p));
            }
            if let Some(path) = path {
                traced_conditions.push(ci);
                source_conds.push(Condition {
                    path,
                    value: cond.value.clone(),
                });
            }
        }

        let ids = read_ids(run, route.read_op)?;
        let mut candidates = Vec::new();
        let mut pruned_at = Vec::new();
        let mut survived = Vec::new();
        for (index, item) in items.iter().enumerate() {
            if !source_conds.iter().all(|c| condition_holds(c, item)) {
                continue;
            }
            candidates.push(index);
            // Walk this one candidate forward, op by op, scanning the
            // association tables linearly.
            let mut alive: Vec<ItemId> = ids.get(index).copied().into_iter().collect();
            let mut frontier = None;
            for &(oid, side) in &route.ops {
                if alive.is_empty() {
                    break;
                }
                let mut next = Vec::new();
                for &id in &alive {
                    next.extend(scan_outputs(&run.op(oid).assoc, side, id));
                }
                next.sort_unstable();
                next.dedup();
                if next.is_empty() {
                    frontier = Some(oid);
                }
                alive = next;
            }
            pruned_at.push(frontier);
            let mut rows: Vec<usize> = Vec::new();
            for id in alive {
                for (pos, row) in run.output.rows.iter().enumerate() {
                    if row.id == id {
                        rows.push(pos);
                    }
                }
            }
            if !rows.is_empty() {
                rows.sort_unstable();
                survived.push((index, rows));
            }
        }

        routes.push(RouteExplanation {
            route,
            source,
            traced_conditions,
            candidates,
            pruned_at,
            survived,
        });
    }
    Ok(WhyNotAnswer {
        found: Vec::new(),
        routes,
    })
}

/// Linear scan of one association table: outputs produced from `id`
/// entering via `side`.
fn scan_outputs(assoc: &ProvAssoc, side: usize, id: ItemId) -> Vec<ItemId> {
    match assoc {
        ProvAssoc::Read(_) => Vec::new(),
        ProvAssoc::Unary(v) => v
            .pairs()
            .filter(|&(i, _)| i == id)
            .map(|(_, o)| o)
            .collect(),
        ProvAssoc::Binary(v) => v
            .iter()
            .filter(|&&(l, r, _)| (if side == 0 { l } else { r }) == Some(id))
            .map(|&(_, _, o)| o)
            .collect(),
        ProvAssoc::Flatten(v) => v
            .iter()
            .filter(|&&(i, _, _)| i == id)
            .map(|&(_, _, o)| o)
            .collect(),
        ProvAssoc::Agg(v) => v
            .iter()
            .filter(|(members, _)| members.contains(&id))
            .map(|&(_, o)| o)
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Naive semiring references.
// ---------------------------------------------------------------------

/// Unreduced derivation expression of one identifier.
enum NaiveExpr {
    Var(SemiringVar),
    Prod(Vec<NaiveExpr>),
}

/// Builds the expression tree of one identifier, no memoization.
fn naive_expr(run: &CapturedRun, oid: OpId, id: ItemId) -> Result<NaiveExpr> {
    let op = run.op(oid);
    let pred = |idx: usize| -> Result<OpId> {
        op.inputs.get(idx).and_then(|i| i.pred).ok_or_else(|| {
            EngineError::BacktraceError(format!("operator #{oid} input {idx} missing"))
        })
    };
    let missing = || {
        EngineError::BacktraceError(format!("identifier {id} not associated at operator #{oid}"))
    };
    Ok(match &op.assoc {
        ProvAssoc::Read(ids) => {
            let index = ids.iter().position(|&i| i == id).ok_or_else(missing)?;
            NaiveExpr::Var((oid, index))
        }
        ProvAssoc::Unary(v) => {
            let (input, _) = v.pairs().find(|&(_, o)| o == id).ok_or_else(missing)?;
            naive_expr(run, pred(0)?, input)?
        }
        ProvAssoc::Binary(v) => {
            let &(l, r, _) = v.iter().find(|&&(_, _, o)| o == id).ok_or_else(missing)?;
            match (l, r) {
                (Some(l), Some(r)) => NaiveExpr::Prod(vec![
                    naive_expr(run, pred(0)?, l)?,
                    naive_expr(run, pred(1)?, r)?,
                ]),
                (Some(l), None) => naive_expr(run, pred(0)?, l)?,
                (None, Some(r)) => naive_expr(run, pred(1)?, r)?,
                (None, None) => return Err(missing()),
            }
        }
        ProvAssoc::Flatten(v) => {
            let &(input, _, _) = v.iter().find(|&&(_, _, o)| o == id).ok_or_else(missing)?;
            naive_expr(run, pred(0)?, input)?
        }
        ProvAssoc::Agg(v) => {
            let (members, _) = v.iter().find(|(_, o)| *o == id).ok_or_else(missing)?;
            let mut factors = Vec::new();
            for &m in members {
                factors.push(naive_expr(run, pred(0)?, m)?);
            }
            NaiveExpr::Prod(factors)
        }
    })
}

impl NaiveExpr {
    /// Top-down expansion into the canonical form, no memoization.
    fn expand(&self) -> Result<Polynomial> {
        Ok(match self {
            NaiveExpr::Var(v) => Polynomial::var(*v),
            NaiveExpr::Prod(fs) => {
                let mut p = Polynomial::one();
                for f in fs {
                    p = p.mul(&f.expand()?)?;
                }
                p
            }
        })
    }

    /// Distinct variables (leaves), ascending.
    fn variables(&self, out: &mut Vec<SemiringVar>) {
        match self {
            NaiveExpr::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            NaiveExpr::Prod(fs) => {
                for f in fs {
                    f.variables(out);
                }
            }
        }
    }
}

/// Sink identifiers carrying an item equal to output row `index`.
fn matching_sink_ids(run: &CapturedRun, index: usize) -> Result<Vec<ItemId>> {
    let rows = run.output.rows.len();
    let target = run
        .output
        .rows
        .get(index)
        .ok_or_else(|| row_range_error(index, rows))?;
    Ok(run
        .output
        .rows
        .iter()
        .filter(|r| r.item == target.item)
        .map(|r| r.id)
        .collect())
}

fn naive_polynomial(run: &CapturedRun, index: usize) -> Result<Polynomial> {
    let mut out = Polynomial::zero();
    for id in matching_sink_ids(run, index)? {
        out.add(&naive_expr(run, run.program.sink(), id)?.expand()?)?;
    }
    Ok(out)
}

/// Counts derivation trees on the association-table circuit directly,
/// never building a polynomial.
fn naive_count(run: &CapturedRun, index: usize) -> Result<u64> {
    fn trees(e: &NaiveExpr) -> u64 {
        match e {
            NaiveExpr::Var(_) => 1,
            NaiveExpr::Prod(fs) => fs.iter().map(trees).product::<u64>().max(1),
        }
    }
    let mut count = 0u64;
    for id in matching_sink_ids(run, index)? {
        count += trees(&naive_expr(run, run.program.sink(), id)?);
    }
    Ok(count)
}

/// Evaluates the probability by per-world circuit evaluation.
fn naive_probability(run: &CapturedRun, index: usize) -> Result<String> {
    let ids = matching_sink_ids(run, index)?;
    let mut vars: Vec<SemiringVar> = Vec::new();
    let mut exprs = Vec::new();
    for &id in &ids {
        let e = naive_expr(run, run.program.sink(), id)?;
        e.variables(&mut vars);
        exprs.push(e);
    }
    vars.sort_unstable();
    fn derivable(e: &NaiveExpr, world: &[SemiringVar]) -> bool {
        match e {
            NaiveExpr::Var(v) => world.contains(v),
            NaiveExpr::Prod(fs) => fs.iter().all(|f| derivable(f, world)),
        }
    }
    probability_by(&vars, |world| exprs.iter().any(|e| derivable(e, world)))
}

// ---------------------------------------------------------------------
// Query generation and the differential check.
// ---------------------------------------------------------------------

/// Malformed queries every seed must reject identically on both sides.
fn malformed_queries(rows: usize) -> Vec<Query> {
    vec![
        Query::Semiring("FROB 1".to_string()),
        Query::Semiring("POLY notanum".to_string()),
        Query::Semiring(format!("COUNT {}", rows + 17)),
        Query::Semiring("PROB".to_string()),
        Query::WhyNot(String::new()),
        Query::WhyNot("=5".to_string()),
        Query::WhyNot("a=".to_string()),
        Query::WhyNot("a=}".to_string()),
    ]
}

/// Scalar top-level-ish paths of an item, for building why-not questions.
fn scalar_paths(item: &pebble_nested::DataItem) -> Vec<(Path, Value)> {
    Path::path_set(item)
        .into_iter()
        .filter_map(|p| {
            let v = p.eval(item)?;
            match v {
                Value::Int(_) | Value::Str(_) | Value::Bool(_) | Value::Double(_) => {
                    Some((p.to_schema_level(), v.clone()))
                }
                _ => None,
            }
        })
        .collect()
}

fn render_condition(path: &Path, value: &Value) -> String {
    let lit = match value {
        Value::Str(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        other => format!("{other}"),
    };
    format!("{path}={lit}")
}

/// Builds the seeded query set for one case.
fn backend_questions(gen: &Generated, baseline: &CapturedRun) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(gen.seed ^ 0xbacc_e27d_bacc_e27d);
    let mut queries = Vec::new();
    let n = baseline.output.rows.len();
    for _ in 0..3.min(n) {
        let i = rng.gen_range(0..n);
        queries.push(Query::Semiring(format!("POLY {i}")));
        queries.push(Query::Semiring(format!("COUNT {i}")));
        queries.push(Query::Semiring(format!("PROB {i}")));
    }
    if n > 0 {
        let row = &baseline.output.rows[rng.gen_range(0..n)];
        let paths = scalar_paths(&row.item);
        if !paths.is_empty() {
            // A "present" question (matches at least this row) …
            let (p, v) = &paths[rng.gen_range(0..paths.len())];
            queries.push(Query::WhyNot(format!("WHYNOT {}", render_condition(p, v))));
            // … and an "absent" one: same path, sentinel value.
            let sentinel = match v {
                Value::Int(_) | Value::Double(_) => Value::Int(-987_654_321),
                _ => Value::str("⊥-absent-sentinel"),
            };
            queries.push(Query::WhyNot(format!(
                "WHYNOT {}",
                render_condition(p, &sentinel)
            )));
            // A two-conjunct question mixing present and absent paths.
            let (p2, v2) = &paths[rng.gen_range(0..paths.len())];
            queries.push(Query::WhyNot(format!(
                "WHYNOT {},{}",
                render_condition(p, &sentinel),
                render_condition(p2, v2)
            )));
        }
    }
    // Questions over source paths — candidates exist even when the
    // output is empty.
    if let Some((_, items)) = gen.dataset.sources.first() {
        if let Some(item) = items.first() {
            let paths = scalar_paths(item);
            if !paths.is_empty() {
                let (p, v) = &paths[rng.gen_range(0..paths.len())];
                queries.push(Query::WhyNot(format!("WHYNOT {}", render_condition(p, v))));
            }
        }
    }
    queries
}

fn diverge(seed: u64, check: &str, detail: String) -> Option<Divergence> {
    Some(Divergence {
        seed,
        check: check.to_string(),
        detail,
    })
}

/// Renders an answer outcome for byte comparison.
fn outcome_text(r: &Result<Vec<String>>) -> String {
    match r {
        Ok(lines) => format!("ok:{}", lines.join("\n")),
        Err(e) => format!("err:{e}"),
    }
}

/// The backend differential check for one generated case.
pub fn check_backends(gen: &Generated) -> Option<Divergence> {
    let program = gen.spec.compile();
    let ctx = gen.dataset.context();
    let engine = run_captured(&program, &ctx, ExecConfig::with_partitions(1));
    let reference = run_reference(&program, &ctx);
    let (engine, reference) = match (engine, reference) {
        (Ok(e), Ok(r)) => (e, r),
        (Err(a), Err(b)) => {
            return (a.to_string() != b.to_string()).then(|| Divergence {
                seed: gen.seed,
                check: "backend run outcome".to_string(),
                detail: format!("errors differ: `{a}` vs `{b}`"),
            });
        }
        (Ok(_), Err(e)) => {
            return diverge(
                gen.seed,
                "backend run outcome",
                format!("engine succeeds, reference errors ({e})"),
            )
        }
        (Err(e), Ok(_)) => {
            return diverge(
                gen.seed,
                "backend run outcome",
                format!("engine errors ({e}), reference succeeds"),
            )
        }
    };

    compare_queries_and_shapes(gen, &program, &ctx, &engine, &reference)
}

/// One seed's slice of the executor matrix: every ninth configuration of
/// [`ExecMatrix::all`], rotated by the seed, so any nine consecutive seeds
/// cover the whole matrix at five captured runs per seed.
fn seed_shapes(seed: u64) -> impl Iterator<Item = ExecConfig> {
    const STRIDE: u64 = 9;
    let first = (seed % STRIDE) as usize;
    ExecMatrix::all()
        .into_iter()
        .skip(first)
        .step_by(STRIDE as usize)
}

/// Shared tail of both backend checks: engine answers vs naive answers over
/// `naive_run`, byte for byte, then engine answers across the seed's shapes
/// vs the p=1 baseline, byte for byte.
fn compare_queries_and_shapes(
    gen: &Generated,
    program: &pebble_dataflow::Program,
    ctx: &Context,
    engine: &CapturedRun,
    naive_run: &CapturedRun,
) -> Option<Divergence> {
    let mut queries = backend_questions(gen, engine);
    queries.extend(malformed_queries(engine.output.rows.len()));

    // Engine vs naive reference, rendered answers byte for byte.
    let mut baseline_answers = Vec::new();
    for q in &queries {
        let e = engine_answer(engine, ctx, q);
        let r = naive_answer(naive_run, ctx, q);
        let (et, rt) = (outcome_text(&e), outcome_text(&r));
        if et != rt {
            return diverge(
                gen.seed,
                "backend engine vs naive reference",
                format!("query `{}`: `{et}` vs `{rt}`", q.text()),
            );
        }
        baseline_answers.push(et);
    }

    // Engine answers across execution shapes, byte for byte.
    for config in seed_shapes(gen.seed) {
        let run = match run_captured(program, ctx, config) {
            Ok(r) => r,
            Err(e) => {
                return diverge(
                    gen.seed,
                    "backend shape outcome",
                    format!("{config:?}: engine errors ({e}) where baseline succeeded"),
                )
            }
        };
        for (q, baseline) in queries.iter().zip(&baseline_answers) {
            let got = outcome_text(&engine_answer(&run, ctx, q));
            if got != *baseline {
                return diverge(
                    gen.seed,
                    "backend shape determinism",
                    format!(
                        "query `{}` at {config:?}: `{got}` vs `{baseline}`",
                        q.text()
                    ),
                );
            }
        }
    }
    None
}

/// Backend check over deliberately corrupted cases (see
/// [`crate::gen::generate_malformed`]).
///
/// The reference interpreter is skipped here — it does not contain UDF
/// panics — so when the corruption fires the check asserts every execution
/// shape rejects the run with the identical error, and when it does not
/// fire (the corrupted operator never saw a triggering row) the naive
/// answerers read the engine's own captured run: the query-evaluation
/// comparison still runs in full, only the capture comparison is waived.
pub fn check_backends_malformed(gen: &Generated) -> Option<Divergence> {
    let program = gen.spec.compile();
    let ctx = gen.dataset.context();
    let engine = match run_captured(&program, &ctx, ExecConfig::with_partitions(1)) {
        Ok(run) => run,
        Err(expect) => {
            let expect = expect.to_string();
            for config in seed_shapes(gen.seed) {
                // At other partition counts identifiers — and hence the
                // failing-row id in the error text — legitimately move
                // (see `check_malformed`), so those shapes only have to
                // reject; the p=1 shapes must reject with the identical
                // `Display`.
                let same_ids = config.partitions == 1;
                match run_captured(&program, &ctx, config) {
                    Ok(_) => {
                        return diverge(
                            gen.seed,
                            "backend shape outcome",
                            format!("{config:?}: engine succeeds where p=1 rejected ({expect})"),
                        )
                    }
                    Err(e) => {
                        if same_ids && e.to_string() != expect {
                            return diverge(
                                gen.seed,
                                "backend shape outcome",
                                format!("{config:?}: rejects `{e}`, p=1 rejects `{expect}`"),
                            );
                        }
                    }
                }
            }
            return None;
        }
    };
    compare_queries_and_shapes(gen, &program, &ctx, &engine, &engine)
}

/// Fuzz driver for the backend axis over well-formed cases.
pub fn fuzz_backends(start_seed: u64, count: u64, stop_after: usize) -> crate::diff::FuzzOutcome {
    let mut outcome = crate::diff::FuzzOutcome::default();
    for seed in start_seed..start_seed.saturating_add(count) {
        let gen = crate::gen::generate(seed);
        outcome.checked += 1;
        if let Some(div) = check_backends(&gen) {
            outcome.divergences.push((gen, div));
            if stop_after > 0 && outcome.divergences.len() >= stop_after {
                break;
            }
        }
    }
    outcome
}

/// Fuzz driver for the backend axis over malformed cases.
pub fn fuzz_backends_malformed(
    start_seed: u64,
    count: u64,
    stop_after: usize,
) -> crate::diff::FuzzOutcome {
    let mut outcome = crate::diff::FuzzOutcome::default();
    for seed in start_seed..start_seed.saturating_add(count) {
        let gen = crate::gen::generate_malformed(seed);
        outcome.checked += 1;
        if let Some(div) = check_backends_malformed(&gen) {
            outcome.divergences.push((gen, div));
            if stop_after > 0 && outcome.divergences.len() >= stop_after {
                break;
            }
        }
    }
    outcome
}
