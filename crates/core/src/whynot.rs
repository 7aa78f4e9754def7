//! Why-not (missing-answer) explanations over captured structural
//! provenance.
//!
//! Given an expected-but-absent output pattern — a conjunction of
//! `path = value` conditions over the sink schema — the backend explains
//! *why* no output item matches: it maps the conditions backwards through
//! the operators' manipulation sets `M` onto each `read` source, selects
//! the candidate source items that satisfy the (traceable) conditions,
//! and then walks the candidates **forward** through the captured
//! association tables (Tab. 6) along every read→sink route. The first
//! operator on a route at which a candidate's identifier set becomes
//! empty is its *pruning frontier* — the operator (and, for filters, the
//! predicate) that eliminated the expected derivation.
//!
//! The semantics deliberately over-approximates when a condition cannot
//! be mapped backwards (opaque `map`s, computed `select` columns,
//! aggregate outputs): the condition is dropped and the candidate set
//! grows, so explanations become coarser, never wrong. This follows the
//! missing-answer tradition of Diestelkämper & Herschel's follow-up work
//! ("To not miss the forest for the trees"): explain the absence with the
//! pruning operators, at the granularity the captured provenance affords.
//!
//! Everything in the rendered answer is identifier-free — output row
//! positions, source dataset indices, operator ids, and schema-level
//! paths — so answers are byte-identical across partition counts, worker
//! counts, columnar on/off, and spill budgets. The differential oracle
//! (`pebble-oracle`) re-implements [`why_not`]'s candidate selection and
//! forward walk naively, one candidate at a time with linear scans, and
//! compares rendered answers byte for byte.

use pebble_dataflow::hash::{FxHashMap, FxHashSet};
use pebble_dataflow::{Context, EngineError, ItemId, OpId, OpKind, Program, Result};
use pebble_nested::{DataItem, Path, Value};

use crate::capture::{CapturedRun, ProvAssoc};

/// One `path = value` conjunct of a why-not question.
#[derive(Clone, Debug, PartialEq)]
pub struct Condition {
    /// Schema-level path over the sink schema (positions become `[pos]`).
    pub path: Path,
    /// Expected value at that path (existence semantics inside
    /// collections: some element must match).
    pub value: Value,
}

/// Upper bound on the read→sink routes a why-not answer enumerates; DAGs
/// past this are answered from the first `MAX_ROUTES` routes in
/// deterministic DFS order.
const MAX_ROUTES: usize = 64;

/// Constructs the (shared) error for an unparsable why-not question.
/// Both the engine and the oracle reference answer malformed questions
/// through this constructor, so their error `Display`s agree exactly.
pub fn whynot_parse_error(detail: &str) -> EngineError {
    EngineError::BacktraceError(format!("why-not query: {detail}"))
}

/// Parses `path=value[,path=value…]` into conditions. Values are JSON
/// literals (`"str"`, `42`, `1.5`, `true`, `null`); the path is parsed
/// with [`Path::parse`] and lifted to schema level. Commas inside string
/// literals do not split conjuncts.
pub fn parse_whynot_query(query: &str) -> Result<Vec<Condition>> {
    let query = query.trim();
    if query.is_empty() {
        return Err(whynot_parse_error("empty question"));
    }
    let mut conds = Vec::new();
    for part in split_top_level(query) {
        let part = part.trim();
        let Some((path, value)) = part.split_once('=') else {
            return Err(whynot_parse_error(&format!(
                "expected `path=value`, got `{part}`"
            )));
        };
        let path = path.trim();
        if path.is_empty() {
            return Err(whynot_parse_error(&format!("missing path in `{part}`")));
        }
        let value = pebble_nested::json::parse(value.trim())
            .map_err(|e| whynot_parse_error(&format!("bad value in `{part}`: {e}")))?;
        conds.push(Condition {
            path: Path::parse(path).to_schema_level(),
            value,
        });
    }
    Ok(conds)
}

/// Splits on `,` outside of double-quoted strings.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut start, mut in_str, mut escaped) = (0usize, false, false);
    for (i, b) in s.bytes().enumerate() {
        match b {
            b'\\' if in_str => escaped = !escaped,
            b'"' if !escaped => in_str = !in_str,
            b',' if !in_str => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    out.push(&s[start..]);
    out
}

/// Does `item` satisfy the condition? Existence semantics: at least one
/// value reached by the (schema-level) path equals the expected value.
pub fn condition_holds(cond: &Condition, item: &DataItem) -> bool {
    cond.path
        .eval_all(item)
        .into_iter()
        .any(|v| *v == cond.value)
}

/// One read→sink route: the read operator plus, per downstream operator,
/// which of its inputs the route enters through.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    /// The `read` operator the route starts at.
    pub read_op: OpId,
    /// Downstream operators in route order, with the input index entered.
    pub ops: Vec<(OpId, usize)>,
}

/// Enumerates every read→sink route of the program in deterministic DFS
/// order (reads ascending, consumers ascending), capped at
/// `MAX_ROUTES` (64). Shared between the engine and the oracle reference —
/// routes are program structure, not provenance computation.
pub fn enumerate_routes(program: &Program) -> Vec<Route> {
    let consumers = program.consumers();
    let sink = program.sink();
    let mut routes = Vec::new();
    for (read_op, _) in program.reads() {
        let mut stack: Vec<(OpId, Vec<(OpId, usize)>)> = vec![(read_op, Vec::new())];
        while let Some((at, path)) = stack.pop() {
            if routes.len() >= MAX_ROUTES {
                return routes;
            }
            if at == sink {
                routes.push(Route { read_op, ops: path });
                continue;
            }
            let mut nexts: Vec<(OpId, usize)> = Vec::new();
            for &c in consumers.get(&at).map(Vec::as_slice).unwrap_or(&[]) {
                for (idx, &input) in program.operators()[c as usize].inputs.iter().enumerate() {
                    if input == at {
                        nexts.push((c, idx));
                    }
                }
            }
            // DFS with a stack pops in reverse push order; push descending
            // so routes come out ascending.
            nexts.sort_unstable();
            for &(c, idx) in nexts.iter().rev() {
                let mut p = path.clone();
                p.push((c, idx));
                stack.push((c, p));
            }
        }
    }
    routes
}

/// Maps one condition backwards through operator `oid`, entered via input
/// `side`, onto that input's schema. `None` means the condition is not
/// traceable through this operator (it stops constraining candidates).
///
/// The rules mirror how the capture derives `M` (Sec. 5.1):
/// * `filter` / `union` / `read` keep items whole — identity;
/// * `map` is opaque (`M = ⊥`) — untraceable;
/// * `flatten` rewrites `new_attr…` to `col[pos]…`, other attributes pass
///   through unchanged;
/// * `select` and `group-aggregate` rewrite by the longest matching
///   output prefix in `M`; computed/aggregated outputs are untraceable;
/// * `join` maps left attributes identically and right attributes by
///   undoing the clash renaming; an attribute that does not belong to the
///   entered side is untraceable through that side.
pub fn map_condition_back(run: &CapturedRun, oid: OpId, side: usize, path: &Path) -> Option<Path> {
    let op = &run.program.operators()[oid as usize];
    match &op.kind {
        OpKind::Read { .. } | OpKind::Filter { .. } | OpKind::Union => Some(path.clone()),
        OpKind::Map { .. } => None,
        OpKind::Flatten { col, new_attr } => {
            let out_prefix = Path::attr(new_attr);
            match path.replace_prefix(
                &out_prefix,
                &col.to_schema_level().child(pebble_nested::Step::AnyPos),
            ) {
                Some(rewritten) => Some(rewritten),
                None => Some(path.clone()),
            }
        }
        OpKind::Select { .. } | OpKind::GroupAggregate { .. } => {
            longest_prefix_rewrite(run.op(oid).manipulated.as_deref()?, path)
        }
        OpKind::Join { .. } => {
            let first = path.head()?.clone();
            let pebble_nested::Step::Attr(attr) = &first else {
                return None;
            };
            let my_fields: Vec<String> = run
                .input_schema(oid, side)
                .fields()
                .map(|fs| fs.iter().map(|f| f.name.clone()).collect())
                .unwrap_or_default();
            if side == 0 {
                return my_fields.contains(attr).then(|| path.clone());
            }
            // Right side: undo the clash renaming recorded in M, else
            // identity for non-clashing right attributes. A left output
            // attribute keeps its name, so it never belongs to the right
            // side, even when the right input has an attribute of that
            // name (a self-join).
            let left_fields = run.input_schema(oid, 0).fields().unwrap_or_default();
            if left_fields.iter().any(|f| &f.name == attr) {
                return None;
            }
            if let Some(m) = run.op(oid).manipulated.as_deref() {
                for (src, dst) in m {
                    if src != dst {
                        if let Some(p) = path.replace_prefix(dst, src) {
                            return Some(p);
                        }
                    }
                }
            }
            my_fields.contains(attr).then(|| path.clone())
        }
    }
}

/// Rewrites `path` by the `M` pair whose output side is its longest
/// prefix; `None` when no pair matches.
fn longest_prefix_rewrite(m: &[(Path, Path)], path: &Path) -> Option<Path> {
    let mut best: Option<(usize, Path)> = None;
    for (src, dst) in m {
        if let Some(rewritten) = path.replace_prefix(dst, src) {
            if best.as_ref().is_none_or(|(len, _)| dst.len() > *len) {
                best = Some((dst.len(), rewritten));
            }
        }
    }
    best.map(|(_, p)| p)
}

/// Explanation of one route: which source items were candidates, where
/// each was pruned, and which reached the output after all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteExplanation {
    /// The route explained.
    pub route: Route,
    /// Source dataset name of the route's read.
    pub source: String,
    /// Conditions (indices into the question) that could be traced back
    /// to this route's source and thus constrained the candidates.
    pub traced_conditions: Vec<usize>,
    /// Candidate source items (dataset indices, ascending).
    pub candidates: Vec<usize>,
    /// Per candidate (parallel to `candidates`): the operator on the
    /// route at which its derivations died, or `None` if it survived.
    pub pruned_at: Vec<Option<OpId>>,
    /// Candidates that reached the sink, with the output row positions
    /// they produced (the expected item exists structurally but fails the
    /// question's conditions there).
    pub survived: Vec<(usize, Vec<usize>)>,
}

/// A complete why-not answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WhyNotAnswer {
    /// Output row positions that already satisfy every condition (the
    /// question is not actually missing). Non-empty short-circuits the
    /// route analysis.
    pub found: Vec<usize>,
    /// One explanation per enumerated route.
    pub routes: Vec<RouteExplanation>,
}

impl WhyNotAnswer {
    /// Renders the answer as identifier-free lines. Shared between the
    /// engine and the oracle reference; the algorithms that *fill*
    /// [`WhyNotAnswer`] are what the differential fuzz compares.
    pub fn render(&self, run: &CapturedRun) -> Vec<String> {
        if !self.found.is_empty() {
            let rows: Vec<String> = self.found.iter().map(usize::to_string).collect();
            return vec![format!("found: output rows {}", rows.join(","))];
        }
        let mut out = vec!["missing: no output row satisfies the question".to_string()];
        for r in &self.routes {
            let hops: Vec<String> = r
                .route
                .ops
                .iter()
                .map(|(oid, side)| format!("#{oid}:{}/{side}", run.op(*oid).op_type))
                .collect();
            out.push(format!(
                "route #{}:{} -> {}",
                r.route.read_op,
                r.source,
                if hops.is_empty() {
                    "(sink)".to_string()
                } else {
                    hops.join(" -> ")
                }
            ));
            if r.candidates.is_empty() {
                out.push(
                    "  no candidate source items satisfy the traceable conditions".to_string(),
                );
                continue;
            }
            let cands: Vec<String> = r.candidates.iter().map(usize::to_string).collect();
            out.push(format!(
                "  candidates ({} traced conditions): [{}]",
                r.traced_conditions.len(),
                cands.join(",")
            ));
            // Group pruned candidates by frontier operator, route order.
            for &(oid, _) in &r.route.ops {
                let at: Vec<String> = r
                    .candidates
                    .iter()
                    .zip(&r.pruned_at)
                    .filter(|(_, p)| **p == Some(oid))
                    .map(|(c, _)| c.to_string())
                    .collect();
                if !at.is_empty() {
                    let op = run.op(oid);
                    let detail = match &run.program.operators()[oid as usize].kind {
                        OpKind::Filter { predicate } => format!(" predicate {predicate:?}"),
                        OpKind::Join { keys } => {
                            let ks: Vec<String> =
                                keys.iter().map(|(l, r)| format!("{l}={r}")).collect();
                            format!(" on {}", ks.join(","))
                        }
                        _ => String::new(),
                    };
                    out.push(format!(
                        "  pruned at #{oid}:{}{detail}: [{}]",
                        op.op_type,
                        at.join(",")
                    ));
                }
            }
            for (cand, rows) in &r.survived {
                let rs: Vec<String> = rows.iter().map(usize::to_string).collect();
                out.push(format!(
                    "  candidate {cand} reaches output rows [{}] without matching the question",
                    rs.join(",")
                ));
            }
        }
        out
    }
}

/// Computes the why-not explanation for a conjunction of conditions —
/// the engine implementation: per-operator association indexes are built
/// once and every candidate's identifier set is advanced through them.
pub fn why_not(run: &CapturedRun, ctx: &Context, conds: &[Condition]) -> Result<WhyNotAnswer> {
    if conds.is_empty() {
        return Err(whynot_parse_error("empty question"));
    }
    let found: Vec<usize> = run
        .output
        .rows
        .iter()
        .enumerate()
        .filter(|(_, row)| conds.iter().all(|c| condition_holds(c, &row.item)))
        .map(|(i, _)| i)
        .collect();
    if !found.is_empty() {
        return Ok(WhyNotAnswer {
            found,
            routes: Vec::new(),
        });
    }

    // Output row position by identifier, for reporting survivors.
    let row_pos: FxHashMap<ItemId, usize> = run
        .output
        .rows
        .iter()
        .enumerate()
        .map(|(i, r)| (r.id, i))
        .collect();

    let mut routes = Vec::new();
    for route in enumerate_routes(&run.program) {
        let source = source_name(&run.program, route.read_op)?;
        let items = ctx
            .source(&source)
            .ok_or_else(|| EngineError::UnknownSource(source.clone()))?;

        // Map each condition backwards along the route (sink to read).
        let mut traced_conditions = Vec::new();
        let mut source_conds: Vec<Condition> = Vec::new();
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

        let candidates: Vec<usize> = items
            .iter()
            .enumerate()
            .filter(|(_, item)| source_conds.iter().all(|c| condition_holds(c, item)))
            .map(|(i, _)| i)
            .collect();

        // Forward walk: candidate dataset index -> identifier set.
        let read_ids = read_ids(run, route.read_op)?;
        let mut alive: Vec<(usize, FxHashSet<ItemId>)> = candidates
            .iter()
            .filter_map(|&c| read_ids.get(c).map(|&id| (c, FxHashSet::from_iter([id]))))
            .collect();
        let mut pruned: FxHashMap<usize, OpId> = FxHashMap::default();
        for &(oid, side) in &route.ops {
            let index = forward_index(&run.op(oid).assoc, side);
            for (cand, ids) in alive.iter_mut() {
                if ids.is_empty() {
                    continue;
                }
                let next: FxHashSet<ItemId> = ids
                    .iter()
                    .filter_map(|id| index.get(id))
                    .flatten()
                    .copied()
                    .collect();
                if next.is_empty() {
                    pruned.insert(*cand, oid);
                }
                *ids = next;
            }
        }

        let pruned_at: Vec<Option<OpId>> =
            candidates.iter().map(|c| pruned.get(c).copied()).collect();
        let mut survived = Vec::new();
        for (cand, ids) in &alive {
            let mut rows: Vec<usize> = ids
                .iter()
                .filter_map(|id| row_pos.get(id))
                .copied()
                .collect();
            if !rows.is_empty() {
                rows.sort_unstable();
                survived.push((*cand, rows));
            }
        }
        survived.sort_unstable();

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

/// Source dataset name of a read operator.
pub fn source_name(program: &Program, read_op: OpId) -> Result<String> {
    match &program.operators()[read_op as usize].kind {
        OpKind::Read { source } => Ok(source.clone()),
        _ => Err(EngineError::BacktraceError(format!(
            "operator #{read_op} is not a read"
        ))),
    }
}

/// The identifiers a read assigned, in dataset order.
pub fn read_ids(run: &CapturedRun, read_op: OpId) -> Result<Vec<ItemId>> {
    match &run.op(read_op).assoc {
        ProvAssoc::Read(ids) => Ok(ids.clone()),
        _ => Err(EngineError::BacktraceError(format!(
            "operator #{read_op} has no read associations"
        ))),
    }
}

/// Builds the input→outputs index of one association table, keyed by the
/// given input side for binary operators.
fn forward_index(assoc: &ProvAssoc, side: usize) -> FxHashMap<ItemId, Vec<ItemId>> {
    let mut index: FxHashMap<ItemId, Vec<ItemId>> = FxHashMap::default();
    match assoc {
        ProvAssoc::Read(_) => {}
        ProvAssoc::Unary(v) => {
            for (i, o) in v.pairs() {
                index.entry(i).or_default().push(o);
            }
        }
        ProvAssoc::Binary(v) => {
            for &(l, r, o) in v {
                if let Some(i) = if side == 0 { l } else { r } {
                    index.entry(i).or_default().push(o);
                }
            }
        }
        ProvAssoc::Flatten(v) => {
            for &(i, _, o) in v {
                index.entry(i).or_default().push(o);
            }
        }
        ProvAssoc::Agg(v) => {
            for (members, o) in v {
                for &m in members {
                    index.entry(m).or_default().push(*o);
                }
            }
        }
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::run_captured;
    use pebble_dataflow::{context::items_of, ExecConfig, Expr, MapUdf, ProgramBuilder};
    use std::sync::Arc;

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
    fn query_parsing() {
        let conds = parse_whynot_query(r#" k="a,b" , v=2 "#).unwrap();
        assert_eq!(conds.len(), 2);
        assert_eq!(conds[0].path, Path::parse("k"));
        assert_eq!(conds[0].value, Value::str("a,b"));
        assert_eq!(conds[1].value, Value::Int(2));
        assert!(parse_whynot_query("").is_err());
        assert!(parse_whynot_query("novalue").is_err());
        assert!(parse_whynot_query("v=").is_err());
        assert!(parse_whynot_query("=2").is_err());
        let err = parse_whynot_query("").unwrap_err();
        assert_eq!(
            err.to_string(),
            "backtrace failed: why-not query: empty question"
        );
    }

    #[test]
    fn routes_enumerate_deterministically() {
        let mut b = ProgramBuilder::new();
        let l = b.read("t");
        let r = b.read("t");
        let u = b.union(l, r);
        let f = b.filter(u, Expr::lit(true));
        let routes = enumerate_routes(&b.build(f));
        assert_eq!(routes.len(), 2);
        assert_eq!(routes[0].read_op, 0);
        assert_eq!(routes[0].ops, vec![(2, 0), (3, 0)]);
        assert_eq!(routes[1].read_op, 1);
        assert_eq!(routes[1].ops, vec![(2, 1), (3, 0)]);
    }

    #[test]
    fn found_short_circuits() {
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let f = b.filter(r, Expr::col("v").ge(Expr::lit(2i64)));
        let run = run_captured(&b.build(f), &ctx(), ExecConfig::with_partitions(2)).unwrap();
        let conds = parse_whynot_query("v=2").unwrap();
        let answer = why_not(&run, &ctx(), &conds).unwrap();
        assert_eq!(
            answer.render(&run),
            vec!["found: output rows 0".to_string()]
        );
    }

    #[test]
    fn filtered_candidate_reports_pruning_frontier() {
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let f = b.filter(r, Expr::col("v").ge(Expr::lit(2i64)));
        let run = run_captured(&b.build(f), &ctx(), ExecConfig::with_partitions(2)).unwrap();
        let conds = parse_whynot_query("v=1").unwrap();
        let lines = why_not(&run, &ctx(), &conds).unwrap().render(&run);
        assert_eq!(lines[0], "missing: no output row satisfies the question");
        assert_eq!(lines[1], "route #0:t -> #1:filter/0");
        assert_eq!(lines[2], "  candidates (1 traced conditions): [0]");
        assert!(
            lines[3].starts_with("  pruned at #1:filter predicate ") && lines[3].ends_with(": [0]"),
            "unexpected frontier line: {}",
            lines[3]
        );
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn opaque_map_drops_condition_and_reports_survivors() {
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let m = b.map(
            r,
            MapUdf {
                name: "identity".into(),
                f: Arc::new(Clone::clone),
                output_schema: None,
            },
        );
        let run = run_captured(&b.build(m), &ctx(), ExecConfig::with_partitions(2)).unwrap();
        let conds = parse_whynot_query("v=999").unwrap();
        let answer = why_not(&run, &ctx(), &conds).unwrap();
        // The condition cannot be traced through the opaque map: all three
        // source items are candidates, and all survive to the output.
        let lines = answer.render(&run);
        assert_eq!(lines[2], "  candidates (0 traced conditions): [0,1,2]");
        assert_eq!(
            lines[3],
            "  candidate 0 reaches output rows [0] without matching the question"
        );
        assert_eq!(lines.len(), 6);
    }

    /// In `t ⋈ t` the right item's `v` comes out as `v_r`; a condition on
    /// `v` names the left item's attribute and cannot be traced through
    /// the right side.
    #[test]
    fn self_join_condition_maps_to_its_own_side() {
        let mut b = ProgramBuilder::new();
        let l = b.read("t");
        let r = b.read("t");
        let j = b.join(l, r, vec![(Path::parse("k"), Path::parse("k"))]);
        let run = run_captured(&b.build(j), &ctx(), ExecConfig::with_partitions(2)).unwrap();
        let v = Path::parse("v");
        assert_eq!(map_condition_back(&run, j, 0, &v), Some(v.clone()));
        assert_eq!(map_condition_back(&run, j, 1, &v), None);
        assert_eq!(map_condition_back(&run, j, 1, &Path::parse("v_r")), Some(v));
        let conds = parse_whynot_query("v=5").unwrap();
        let lines = why_not(&run, &ctx(), &conds).unwrap().render(&run);
        assert_eq!(lines[1], "route #0:t -> #2:join/0");
        assert_eq!(
            lines[2],
            "  no candidate source items satisfy the traceable conditions"
        );
        assert_eq!(lines[3], "route #1:t -> #2:join/1");
        assert_eq!(lines[4], "  candidates (0 traced conditions): [0,1,2]");
        assert_eq!(lines.len(), 8);
    }

    #[test]
    fn flatten_condition_maps_to_collection() {
        let mut c = Context::new();
        c.register(
            "n",
            items_of(vec![vec![(
                "xs",
                Value::Bag(vec![Value::Int(1), Value::Int(2)]),
            )]]),
        );
        let mut b = ProgramBuilder::new();
        let r = b.read("n");
        let fl = b.flatten(r, "xs", "x");
        let run = run_captured(&b.build(fl), &c, ExecConfig::with_partitions(1)).unwrap();
        let p = map_condition_back(&run, 1, 0, &Path::parse("x")).unwrap();
        assert_eq!(p, Path::parse("xs").child(pebble_nested::Step::AnyPos));
        // A condition on the flattened element selects the owning item.
        let conds = parse_whynot_query("x=7").unwrap();
        let lines = why_not(&run, &c, &conds).unwrap().render(&run);
        assert_eq!(lines[1], "route #0:n -> #1:flatten/0");
        assert_eq!(
            lines[2],
            "  no candidate source items satisfy the traceable conditions"
        );
    }
}
