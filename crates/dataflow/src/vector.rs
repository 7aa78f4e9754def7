//! Vectorized (columnar) kernels for fused per-row chains and key hashing.
//!
//! These are the engine's kernels for filter/select chains, group shuffles
//! and join probes — not a mode. The row chain kernel in [`crate::exec`]
//! interprets expressions per row: every path access re-scans the item's
//! fields comparing attribute names by *content*, every select builds its
//! output through [`DataItem::push`]'s per-field duplicate scan, and every
//! comparison clones both operands. The kernels compiled here do the same
//! work batch-at-a-time instead:
//!
//! * paths compile to interned [`Label`] sequences once per unit, so the
//!   per-row walk compares labels by pointer;
//! * filters *mark* survivors in a [`SelectionVector`] — rows are never
//!   moved, and dropped rows are never cloned;
//! * selects gather the accessed top-level columns in one field scan per
//!   row, project column-at-a-time into a fresh [`ColumnBatch`] (label
//!   uniqueness was checked once at plan time, so assembly skips the
//!   duplicate scan), and convert to rows once per morsel;
//! * output identifiers are positional — base id + offset within the
//!   batch — so stages report their associations as id runs
//!   ([`UnaryRuns`]): one per morsel for a 1:1 stage, one per stretch of
//!   kept rows for a filter, never materialized per-row pairs.
//!
//! Planning is all-or-nothing per unit and decided from the plan alone:
//! any stage the planner cannot vectorize (a `map`/scalar UDF, a select
//! with duplicate output labels) sends the whole unit to the row chain
//! kernel, whose per-row panic containment is the contract user code runs
//! under. The two chain kernels are specified byte-identical in rows, ids
//! and association tables; the differential test at the bottom of
//! this file holds them to it on generated chains.

use std::hash::Hasher;
use std::sync::Arc;

use pebble_nested::{ColumnBatch, ColumnData, DataItem, Label, Path, SelectionVector, Step, Value};

use crate::error::Result;
use crate::exec::{Row, TaskOut};
use crate::expr::{CmpOp, Expr, SelectExpr};
use crate::fault;
use crate::hash::FxHasher;
use crate::op::{GroupKey, OpId};
use crate::runs::UnaryRuns;
use crate::sink::ProvenanceSink;

/// A path compiled for columnar evaluation. Attr-only paths become
/// interned label sequences (pointer-compared per row); anything with a
/// positional step falls back to the interpreted [`Path`], which has
/// identical semantics.
pub(crate) enum ColPath {
    /// Non-empty sequence of attribute labels.
    Attrs(Vec<Label>),
    /// Fallback to the interpreted path.
    Slow(Path),
}

fn get_by_label<'a>(item: &'a DataItem, label: &Label) -> Option<&'a Value> {
    item.entries()
        .iter()
        .find_map(|(n, v)| (n == label).then_some(v))
}

impl ColPath {
    pub(crate) fn compile(p: &Path) -> ColPath {
        let mut labels = Vec::with_capacity(p.steps().len());
        for step in p.steps() {
            match step {
                Step::Attr(name) => labels.push(Label::new(name)),
                _ => return ColPath::Slow(p.clone()),
            }
        }
        if labels.is_empty() {
            ColPath::Slow(p.clone())
        } else {
            ColPath::Attrs(labels)
        }
    }

    /// Mirrors [`Path::eval`] exactly: attribute steps descend through
    /// items only; a missing attribute or non-item intermediate yields
    /// `None`.
    pub(crate) fn eval<'a>(&self, item: &'a DataItem) -> Option<&'a Value> {
        match self {
            ColPath::Attrs(labels) => {
                let mut cur: Option<&Value> = None;
                for label in labels {
                    let holder = match cur {
                        None => item,
                        Some(Value::Item(d)) => d,
                        _ => return None,
                    };
                    cur = Some(get_by_label(holder, label)?);
                }
                cur
            }
            ColPath::Slow(p) => p.eval(item),
        }
    }

    /// [`ColPath::eval`] against a batch view instead of an item: the root
    /// label indexes a column, the rest walks the stored value. Only
    /// called on `Attrs` paths (batch mode implies col-readiness).
    fn eval_view<'a>(&self, view: &BatchView<'a>, j: usize) -> Option<&'a Value> {
        match self {
            ColPath::Attrs(labels) => {
                let slot = view.slot(&labels[0])?;
                walk_rest(view.value(slot, j), &labels[1..])
            }
            ColPath::Slow(_) => unreachable!("positional path in batch mode"),
        }
    }

    fn is_attrs(&self) -> bool {
        matches!(self, ColPath::Attrs(_))
    }
}

/// Walks the sub-path below an already-gathered root value.
fn walk_rest<'a>(mut cur: &'a Value, rest: &[Label]) -> Option<&'a Value> {
    for label in rest {
        match cur {
            Value::Item(d) => cur = get_by_label(d, label)?,
            _ => return None,
        }
    }
    Some(cur)
}

/// Borrowed view of a dense mixed [`ColumnBatch`] flowing between chain
/// stages: label-keyed top-level columns addressed by dense row index.
/// Root lookup is a pointer-compared scan over the (few) output labels of
/// the previous select — no per-row field walk.
struct BatchView<'a> {
    cols: Vec<(&'a Label, &'a [Value])>,
}

impl<'a> BatchView<'a> {
    /// Views a batch built by [`ColumnBatch::from_mixed_columns`].
    fn of(batch: &'a ColumnBatch) -> BatchView<'a> {
        BatchView {
            cols: batch
                .columns()
                .iter()
                .map(|c| match &c.data {
                    ColumnData::Mixed(v) => (&c.label, v.as_slice()),
                    _ => unreachable!("chain batches hold dense mixed columns"),
                })
                .collect(),
        }
    }

    /// The column slot of a top-level label, if any.
    fn slot(&self, label: &Label) -> Option<usize> {
        self.cols.iter().position(|(l, _)| *l == label)
    }

    fn value(&self, slot: usize, j: usize) -> &'a Value {
        &self.cols[slot].1[j]
    }
}

/// A filter predicate compiled for columnar evaluation. The common
/// `path <op> literal` and `path contains literal` shapes avoid the
/// interpreter's per-row operand clones; everything else (still UDF-free)
/// evaluates through [`Expr`], preserving semantics bit-for-bit.
pub(crate) enum ColPred {
    /// `path <op> lit` (lit is non-null).
    Cmp(CmpOp, ColPath, Value),
    /// `lit <op> path` (lit is non-null).
    CmpRev(CmpOp, Value, ColPath),
    /// `path contains "lit"`.
    Contains(ColPath, Arc<str>),
    /// Conjunction (short-circuit, like [`Expr::eval_bool`]).
    And(Box<ColPred>, Box<ColPred>),
    /// Disjunction.
    Or(Box<ColPred>, Box<ColPred>),
    /// Negation.
    Not(Box<ColPred>),
    /// Any other UDF-free predicate, interpreted.
    Generic(Expr),
}

fn cmp_matches(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => !ord.is_eq(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    }
}

impl ColPred {
    fn compile(e: &Expr) -> ColPred {
        match e {
            Expr::Cmp(op, a, b) => match (&**a, &**b) {
                (Expr::Col(p), Expr::Lit(v)) if !v.is_null() => {
                    ColPred::Cmp(*op, ColPath::compile(p), v.clone())
                }
                (Expr::Lit(v), Expr::Col(p)) if !v.is_null() => {
                    ColPred::CmpRev(*op, v.clone(), ColPath::compile(p))
                }
                _ => ColPred::Generic(e.clone()),
            },
            Expr::Contains(h, n) => match (&**h, &**n) {
                (Expr::Col(p), Expr::Lit(Value::Str(s))) => {
                    ColPred::Contains(ColPath::compile(p), Arc::clone(s))
                }
                _ => ColPred::Generic(e.clone()),
            },
            Expr::And(a, b) => ColPred::And(Box::new(Self::compile(a)), Box::new(Self::compile(b))),
            Expr::Or(a, b) => ColPred::Or(Box::new(Self::compile(a)), Box::new(Self::compile(b))),
            Expr::Not(a) => ColPred::Not(Box::new(Self::compile(a))),
            _ => ColPred::Generic(e.clone()),
        }
    }

    /// Equivalent to [`Expr::eval_bool`] on the source predicate: null or
    /// missing operands compare false, non-boolean sub-results are false.
    fn eval(&self, item: &DataItem) -> bool {
        match self {
            ColPred::Cmp(op, p, lit) => match p.eval(item) {
                Some(v) if !v.is_null() => cmp_matches(*op, v.cmp(lit)),
                _ => false,
            },
            ColPred::CmpRev(op, lit, p) => match p.eval(item) {
                Some(v) if !v.is_null() => cmp_matches(*op, lit.cmp(v)),
                _ => false,
            },
            ColPred::Contains(p, needle) => match p.eval(item).and_then(Value::as_str) {
                Some(hay) => hay.contains(&**needle),
                None => false,
            },
            ColPred::And(a, b) => a.eval(item) && b.eval(item),
            ColPred::Or(a, b) => a.eval(item) || b.eval(item),
            ColPred::Not(a) => !a.eval(item),
            ColPred::Generic(e) => e.eval_bool(item),
        }
    }

    /// True when every operand is an attr-only path and no sub-predicate
    /// needs the expression interpreter — i.e. the predicate can evaluate
    /// directly against a dense column batch without a materialized item.
    fn col_ready(&self) -> bool {
        match self {
            ColPred::Cmp(_, p, _) | ColPred::CmpRev(_, _, p) | ColPred::Contains(p, _) => {
                p.is_attrs()
            }
            ColPred::And(a, b) | ColPred::Or(a, b) => a.col_ready() && b.col_ready(),
            ColPred::Not(a) => a.col_ready(),
            ColPred::Generic(_) => false,
        }
    }

    /// [`ColPred::eval`] against a batch view. Only called on `col_ready`
    /// predicates.
    fn eval_view(&self, view: &BatchView, j: usize) -> bool {
        match self {
            ColPred::Cmp(op, p, lit) => match p.eval_view(view, j) {
                Some(v) if !v.is_null() => cmp_matches(*op, v.cmp(lit)),
                _ => false,
            },
            ColPred::CmpRev(op, lit, p) => match p.eval_view(view, j) {
                Some(v) if !v.is_null() => cmp_matches(*op, lit.cmp(v)),
                _ => false,
            },
            ColPred::Contains(p, needle) => match p.eval_view(view, j).and_then(Value::as_str) {
                Some(hay) => hay.contains(&**needle),
                None => false,
            },
            ColPred::And(a, b) => a.eval_view(view, j) && b.eval_view(view, j),
            ColPred::Or(a, b) => a.eval_view(view, j) || b.eval_view(view, j),
            ColPred::Not(a) => !a.eval_view(view, j),
            ColPred::Generic(_) => unreachable!("interpreted predicate in batch mode"),
        }
    }
}

/// A select projection compiled for columnar evaluation. Attr-only paths
/// read their top-level root from the stage's gathered columns (`root` is
/// a slot into the gather) and walk the remainder with pointer-compared
/// labels.
pub(crate) enum ColProj {
    /// Copy the value at a path.
    Path {
        /// `(gather slot, sub-path below the root)` for attr-only paths.
        root: Option<(usize, Vec<Label>)>,
        /// Fallback interpreted path (used when `root` is `None`).
        path: ColPath,
    },
    /// Build a nested item (labels validated unique at plan time).
    Struct(Vec<(Label, ColProj)>),
    /// Computed UDF-free scalar, interpreted.
    Computed(Expr),
}

impl ColProj {
    /// Compiles a projection, registering attr-path roots in `roots`.
    /// Returns `None` when the projection cannot be vectorized (duplicate
    /// struct labels).
    fn compile(e: &SelectExpr, roots: &mut Vec<Label>) -> Option<ColProj> {
        match e {
            SelectExpr::Path(p) => {
                let path = ColPath::compile(p);
                let root = match &path {
                    ColPath::Attrs(labels) => {
                        let first = &labels[0];
                        let slot = roots.iter().position(|r| r == first).unwrap_or_else(|| {
                            roots.push(first.clone());
                            roots.len() - 1
                        });
                        Some((slot, labels[1..].to_vec()))
                    }
                    ColPath::Slow(_) => None,
                };
                Some(ColProj::Path { root, path })
            }
            SelectExpr::Struct(fields) => {
                let mut out: Vec<(Label, ColProj)> = Vec::with_capacity(fields.len());
                for (name, sub) in fields {
                    let label = Label::new(name);
                    if out.iter().any(|(l, _)| *l == label) {
                        return None; // duplicate labels would panic row-side
                    }
                    out.push((label, Self::compile(sub, roots)?));
                }
                Some(ColProj::Struct(out))
            }
            SelectExpr::Computed(e) => Some(ColProj::Computed(e.clone())),
        }
    }

    /// True when the projection reads only gathered roots (no interpreted
    /// path, no computed expression), so it can evaluate without a
    /// materialized item.
    fn col_ready(&self) -> bool {
        match self {
            ColProj::Path { root, .. } => root.is_some(),
            ColProj::Struct(fields) => fields.iter().all(|(_, sub)| sub.col_ready()),
            ColProj::Computed(_) => false,
        }
    }

    /// Equivalent to [`SelectExpr::eval`]: missing paths project `Null`.
    /// `item` is `None` in batch mode, where planning guarantees every
    /// projection reads through `gathered` roots only.
    fn eval(&self, item: Option<&DataItem>, gathered: &[Vec<Option<&Value>>], j: usize) -> Value {
        match self {
            ColProj::Path {
                root: Some((slot, rest)),
                ..
            } => match gathered[*slot][j].and_then(|v| walk_rest(v, rest)) {
                Some(v) => v.clone(),
                None => Value::Null,
            },
            ColProj::Path { root: None, path } => path
                .eval(item.expect("interpreted path in batch mode"))
                .cloned()
                .unwrap_or(Value::Null),
            ColProj::Struct(fields) => {
                let mut parts = Vec::with_capacity(fields.len());
                for (label, sub) in fields {
                    parts.push((label.clone(), sub.eval(item, gathered, j)));
                }
                Value::Item(DataItem::from_parts(parts))
            }
            ColProj::Computed(e) => e.eval(item.expect("computed projection in batch mode")),
        }
    }

    /// Batch-mode projection: roots were resolved to column slots once per
    /// stage (`root_slots`), so each value is an index plus a sub-path
    /// walk — no gather buffer, no field scan. Only called on `col_ready`
    /// projections.
    fn eval_batch(&self, view: &BatchView, root_slots: &[Option<usize>], row: usize) -> Value {
        match self {
            ColProj::Path {
                root: Some((slot, rest)),
                ..
            } => match root_slots[*slot].and_then(|cs| walk_rest(view.value(cs, row), rest)) {
                Some(v) => v.clone(),
                None => Value::Null,
            },
            ColProj::Struct(fields) => Value::Item(DataItem::from_parts(
                fields
                    .iter()
                    .map(|(label, sub)| (label.clone(), sub.eval_batch(view, root_slots, row)))
                    .collect(),
            )),
            ColProj::Path { root: None, .. } | ColProj::Computed(_) => {
                unreachable!("non-col-ready projection in batch mode")
            }
        }
    }
}

/// One vectorized stage of a fused chain. `col_ready` marks stages that
/// evaluate directly against the dense column batch flowing out of an
/// upstream select; a stage without it forces the batch to materialize
/// into items once, after which the chain continues row-wise.
pub(crate) enum ColStage {
    /// Mark surviving rows in the selection vector.
    Filter {
        /// Compiled predicate.
        pred: ColPred,
        /// Evaluable against a column batch (attr-only, uninterpreted).
        col_ready: bool,
    },
    /// Project the selection column-at-a-time into a new batch.
    Select {
        /// Output attribute labels, in projection order (unique).
        labels: Vec<Label>,
        /// Compiled projections, aligned with `labels`.
        projs: Vec<ColProj>,
        /// Distinct top-level roots gathered once per row.
        roots: Vec<Label>,
        /// Every projection reads through gathered roots only.
        col_ready: bool,
    },
}

/// A fused chain compiled for columnar execution.
pub(crate) struct ColChainKernel {
    /// Operator ids, stage-aligned (same as the row kernel).
    pub(crate) ops: Vec<OpId>,
    pub(crate) stages: Vec<ColStage>,
}

/// Plans the columnar form of a fused chain from the already-built row
/// stages. Returns `None` — falling back to the row path for the whole
/// unit — when any stage hosts user code (`map`, UDF expressions, whose
/// panic containment is a row-path contract) or a select with duplicate
/// output labels (the row path panics; the planner refuses to diverge).
pub(crate) fn plan_columnar(
    ops: Vec<OpId>,
    stages: &[crate::exec::OwnedStage],
) -> Option<ColChainKernel> {
    use crate::exec::OwnedStage;
    let mut out = Vec::with_capacity(stages.len());
    for stage in stages {
        match stage {
            OwnedStage::Filter { pred, can_panic } => {
                if *can_panic {
                    return None;
                }
                let pred = ColPred::compile(pred);
                out.push(ColStage::Filter {
                    col_ready: pred.col_ready(),
                    pred,
                });
            }
            OwnedStage::Select {
                exprs,
                labels,
                can_panic,
            } => {
                if *can_panic {
                    return None;
                }
                for (i, l) in labels.iter().enumerate() {
                    if labels[..i].contains(l) {
                        return None; // duplicate output labels panic row-side
                    }
                }
                let mut roots = Vec::new();
                let mut projs = Vec::with_capacity(exprs.len());
                for ne in exprs {
                    projs.push(ColProj::compile(&ne.expr, &mut roots)?);
                }
                out.push(ColStage::Select {
                    col_ready: projs.iter().all(ColProj::col_ready),
                    labels: labels.clone(),
                    projs,
                    roots,
                });
            }
            OwnedStage::Map(_) => return None,
        }
    }
    Some(ColChainKernel { ops, stages: out })
}

/// Gathers the values of `roots` for every selected row in one field scan
/// per item (labels compared by pointer). Column-major: `result[slot][j]`
/// is root `slot` of the `j`-th selected row.
fn gather_roots<'a>(
    items: impl Fn(u32) -> &'a DataItem,
    sel: &SelectionVector,
    roots: &[Label],
) -> Vec<Vec<Option<&'a Value>>> {
    let mut cols: Vec<Vec<Option<&Value>>> = roots.iter().map(|_| vec![None; sel.len()]).collect();
    for (j, &row) in sel.indices().iter().enumerate() {
        let mut missing = roots.len();
        for (label, value) in items(row).entries() {
            for (slot, root) in roots.iter().enumerate() {
                if label == root {
                    if cols[slot][j].is_none() {
                        missing -= 1;
                    }
                    cols[slot][j] = Some(value);
                    break;
                }
            }
            if missing == 0 {
                break;
            }
        }
    }
    cols
}

/// Executes one morsel through a vectorized chain. Morsel-local output
/// identifiers and stage associations use the exact same layout as
/// [`crate::exec::chain_morsel`] (full `op | partition | seq` ids with
/// per-morsel sequences from 0), so the scheduler stitches both kernels
/// with the same arithmetic.
pub(crate) fn col_chain_morsel<S: ProvenanceSink>(
    kernel: &ColChainKernel,
    pidx: usize,
    rows: &[Row],
) -> Result<TaskOut> {
    for row in rows {
        // Injected faults target the chain head, as in the row kernel.
        fault::check(kernel.ops[0], row.id)?;
    }
    let n = kernel.stages.len();
    let base = |s: usize| ((kernel.ops[s] as u64) << 48) | ((pidx as u64) << 32);
    // Input ids are consecutive for every upstream operator except
    // group-aggregate (whose output is globally key-sorted); consecutive
    // inputs let a stage-0 select append its run in one step. Checked in
    // full: key-sorted ids can be a permutation whose first and last
    // elements alone look consecutive.
    let input_consecutive = rows.windows(2).all(|w| w[1].id == w[0].id + 1);
    let mut counts = vec![0usize; n];
    let mut stage_assocs: Vec<UnaryRuns> = Vec::with_capacity(if S::ENABLED { n } else { 0 });
    // Rows surviving so far, in one of three forms: borrowed input rows
    // (before the first select), the dense column batch a select produced
    // (the fast path — downstream col-ready stages read columns directly,
    // no items are built between stages), or materialized items (a
    // non-col-ready stage needed them). `sel` indexes the current form.
    enum Working<'a> {
        Rows(&'a [Row]),
        Batch(ColumnBatch),
        Owned(Vec<DataItem>),
    }
    let mut working = Working::Rows(rows);
    let mut sel = SelectionVector::all(rows.len());
    let mut batches = 0u32;
    let mut filter_in = 0u64;
    let mut filter_kept = 0u64;
    for (s, stage) in kernel.stages.iter().enumerate() {
        // A stage that needs materialized items (interpreted predicate,
        // positional path, computed projection) tears the batch down once;
        // the chain continues row-wise from there.
        let col_ready = match stage {
            ColStage::Filter { col_ready, .. } | ColStage::Select { col_ready, .. } => *col_ready,
        };
        if !col_ready {
            working = match working {
                Working::Batch(b) => Working::Owned(b.into_items()),
                w => w,
            };
        }
        match stage {
            ColStage::Filter { pred, .. } => {
                let before = sel.len();
                let mut assoc = UnaryRuns::new();
                {
                    let view = match &working {
                        Working::Batch(b) => Some(BatchView::of(b)),
                        _ => None,
                    };
                    let pass = |row: u32| match &working {
                        Working::Rows(rows) => pred.eval(&rows[row as usize].item),
                        Working::Owned(items) => pred.eval(&items[row as usize]),
                        Working::Batch(_) => {
                            pred.eval_view(view.as_ref().expect("batch view"), row as usize)
                        }
                    };
                    let mut kept = 0u64;
                    sel.retain(|pos, row| {
                        if pass(row) {
                            if S::ENABLED {
                                let input = if s == 0 {
                                    rows[row as usize].id
                                } else {
                                    base(s - 1) | pos as u64
                                };
                                assoc.push(input, base(s) | kept);
                            }
                            kept += 1;
                            true
                        } else {
                            false
                        }
                    });
                }
                counts[s] = sel.len();
                filter_in += before as u64;
                filter_kept += sel.len() as u64;
                if S::ENABLED {
                    stage_assocs.push(assoc);
                }
            }
            ColStage::Select {
                labels,
                projs,
                roots,
                ..
            } => {
                let kcount = sel.len();
                // Projection is column-at-a-time on purpose: one
                // projection's dispatch and memory stream at a time beats
                // row-major evaluation (measured), and the final transpose
                // back to rows is sequential moves.
                let out_cols: Vec<Vec<Value>> = match &working {
                    Working::Batch(b) => {
                        // Roots resolve to column slots once per stage;
                        // per-row access is an index plus sub-path walk —
                        // no gather buffer, no field scan.
                        let view = BatchView::of(b);
                        let root_slots: Vec<Option<usize>> =
                            roots.iter().map(|root| view.slot(root)).collect();
                        projs
                            .iter()
                            .map(|proj| {
                                sel.indices()
                                    .iter()
                                    .map(|&row| proj.eval_batch(&view, &root_slots, row as usize))
                                    .collect()
                            })
                            .collect()
                    }
                    _ => {
                        let item_at = |row: u32| -> &DataItem {
                            match &working {
                                Working::Rows(rows) => &rows[row as usize].item,
                                Working::Owned(items) => &items[row as usize],
                                Working::Batch(_) => unreachable!("handled above"),
                            }
                        };
                        let gathered = gather_roots(item_at, &sel, roots);
                        projs
                            .iter()
                            .map(|proj| {
                                sel.indices()
                                    .iter()
                                    .enumerate()
                                    .map(|(j, &row)| proj.eval(Some(item_at(row)), &gathered, j))
                                    .collect()
                            })
                            .collect()
                    }
                };
                batches += 1;
                if S::ENABLED {
                    let assoc = if s == 0 && !input_consecutive {
                        sel.indices()
                            .iter()
                            .enumerate()
                            .map(|(j, &row)| (rows[row as usize].id, base(s) | j as u64))
                            .collect()
                    } else {
                        // 1:1 over consecutive inputs or over the previous
                        // stage's (dense) output.
                        let in_first = if s == 0 {
                            rows.first().map_or(0, |r| r.id)
                        } else {
                            base(s - 1)
                        };
                        UnaryRuns::run(in_first, base(s), kcount as u64)
                    };
                    stage_assocs.push(assoc);
                }
                counts[s] = kcount;
                working = Working::Batch(ColumnBatch::from_mixed_columns(
                    kcount,
                    labels.clone(),
                    out_cols,
                ));
                sel = SelectionVector::all(kcount);
            }
        }
    }
    let last = base(n - 1);
    let with_ids = |items: Vec<DataItem>| -> Vec<Row> {
        items
            .into_iter()
            .enumerate()
            .map(|(j, item)| Row {
                id: last | j as u64,
                item,
            })
            .collect()
    };
    let out = match working {
        Working::Rows(_) => sel
            .indices()
            .iter()
            .enumerate()
            .map(|(j, &row)| Row {
                id: last | j as u64,
                item: rows[row as usize].item.clone(),
            })
            .collect(),
        Working::Owned(items) if sel.len() == items.len() => with_ids(items),
        Working::Owned(items) => sel
            .indices()
            .iter()
            .enumerate()
            .map(|(j, &row)| Row {
                id: last | j as u64,
                item: items[row as usize].clone(),
            })
            .collect(),
        // Items materialize exactly once, here at the chain boundary. A
        // trailing filter compacts the columns in place first — values
        // move, nothing is cloned.
        Working::Batch(b) => {
            let items = if sel.len() == b.len() {
                b.into_items()
            } else {
                let dense = b.len();
                let (labels, mut cols) = b.into_mixed_columns();
                let mut keep = vec![false; dense];
                for &row in sel.indices() {
                    keep[row as usize] = true;
                }
                for col in &mut cols {
                    let mut i = 0;
                    col.retain(|_| {
                        let k = keep[i];
                        i += 1;
                        k
                    });
                }
                ColumnBatch::from_mixed_columns(sel.len(), labels, cols).into_items()
            };
            with_ids(items)
        }
    };
    Ok(TaskOut::ColChain {
        rows: out,
        stages: stage_assocs,
        counts,
        rows_in: rows.len(),
        batches,
        filter_in,
        filter_kept,
    })
}

// ---------------------------------------------------------------------------
// Column-at-a-time key hashing (shuffle and join probe)
// ---------------------------------------------------------------------------

/// Group-by key paths compiled for columnar evaluation.
pub(crate) struct ColKeys {
    paths: Vec<ColPath>,
}

impl ColKeys {
    pub(crate) fn compile_group(keys: &[GroupKey]) -> ColKeys {
        ColKeys {
            paths: keys.iter().map(|k| ColPath::compile(&k.path)).collect(),
        }
    }

    pub(crate) fn compile_paths(paths: &[Path]) -> ColKeys {
        ColKeys {
            paths: paths.iter().map(ColPath::compile).collect(),
        }
    }

    /// Shuffle buckets for a morsel, computed column-at-a-time: one hasher
    /// per row is seeded with the key length, then each key column folds
    /// its value in. Reproduces `hash_one(&key_vec) % parts` bit-for-bit
    /// (missing paths hash as `Null`) without cloning a single key value.
    pub(crate) fn shuffle_buckets(&self, rows: &[Row], parts: usize) -> Vec<usize> {
        let mut hashers: Vec<FxHasher> = vec![FxHasher::default(); rows.len()];
        for h in &mut hashers {
            h.write_usize(self.paths.len());
        }
        for path in &self.paths {
            for (row, h) in rows.iter().zip(&mut hashers) {
                match path.eval(&row.item) {
                    Some(v) => std::hash::Hash::hash(v, h),
                    None => std::hash::Hash::hash(&Value::Null, h),
                }
            }
        }
        hashers
            .into_iter()
            .map(|h| (h.finish() as usize) % parts)
            .collect()
    }

    /// Join-probe keys for a morsel, column-at-a-time: `None` for rows
    /// with a null or missing key component (which never join), otherwise
    /// the borrowed key values and their cached hash.
    pub(crate) fn probe_keys<'a>(&self, rows: &'a [Row]) -> Vec<Option<(Vec<&'a Value>, u64)>> {
        let mut keys: Vec<Option<Vec<&Value>>> = rows
            .iter()
            .map(|_| Some(Vec::with_capacity(self.paths.len())))
            .collect();
        for path in &self.paths {
            for (row, slot) in rows.iter().zip(&mut keys) {
                if let Some(key) = slot {
                    match path.eval(&row.item) {
                        Some(v) if !v.is_null() => key.push(v),
                        _ => *slot = None,
                    }
                }
            }
        }
        keys.into_iter()
            .map(|slot| {
                slot.map(|key| {
                    let h = crate::hash::hash_value_refs(&key);
                    (key, h)
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_one;

    fn item() -> DataItem {
        DataItem::from_fields([
            ("text", Value::str("Hello World")),
            (
                "user",
                Value::Item(DataItem::from_fields([
                    ("id_str", Value::str("lp")),
                    ("name", Value::str("Lisa Paul")),
                ])),
            ),
            ("retweet_count", Value::Int(0)),
        ])
    }

    #[test]
    fn col_path_matches_interpreted_path() {
        let d = item();
        for raw in [
            "text",
            "user.id_str",
            "user.name",
            "missing",
            "user.nope",
            "text.x",
        ] {
            let p = Path::parse(raw);
            assert_eq!(ColPath::compile(&p).eval(&d), p.eval(&d), "path {raw}");
        }
    }

    #[test]
    fn col_pred_matches_expr_eval_bool() {
        let d = item();
        let preds = [
            Expr::col("retweet_count").eq(Expr::lit(0i64)),
            Expr::col("retweet_count").gt(Expr::lit(0i64)),
            Expr::col("text").contains(Expr::lit("World")),
            Expr::col("text").contains(Expr::lit("zzz")),
            Expr::col("missing").eq(Expr::lit(1i64)),
            Expr::col("retweet_count")
                .le(Expr::lit(5i64))
                .and(Expr::col("text").contains(Expr::lit("Hello"))),
            Expr::col("missing").eq(Expr::lit(1i64)).or(Expr::lit(true)),
            Expr::col("retweet_count").eq(Expr::lit(0i64)).not(),
            Expr::lit(1i64).lt(Expr::col("retweet_count")),
        ];
        for e in preds {
            assert_eq!(ColPred::compile(&e).eval(&d), e.eval_bool(&d), "{e:?}");
        }
    }

    #[test]
    fn shuffle_buckets_match_row_hashing() {
        let rows: Vec<Row> = (0..7)
            .map(|i| Row {
                id: i,
                item: DataItem::from_fields([
                    ("k", Value::Int(i as i64 % 3)),
                    ("s", Value::str(format!("v{i}"))),
                ]),
            })
            .collect();
        let keys = vec![
            GroupKey::new("k"),
            GroupKey::new("s"),
            GroupKey::new("gone"),
        ];
        let compiled = ColKeys::compile_group(&keys);
        let buckets = compiled.shuffle_buckets(&rows, 5);
        for (row, &b) in rows.iter().zip(&buckets) {
            let key: Vec<Value> = keys
                .iter()
                .map(|k| crate::op::key_value(&row.item, &k.path))
                .collect();
            assert_eq!(b, (hash_one(&key) as usize) % 5);
        }
    }

    // -----------------------------------------------------------------
    // Row chain kernel vs vectorized chain kernel, morsel by morsel
    // -----------------------------------------------------------------

    use crate::exec::{chain_morsel, owned_stage, ChainKernel};
    use crate::expr::ArithOp;
    use crate::op::{NamedExpr, OpKind};
    use crate::sink::NoSink;

    /// A sink type with capture on. The kernels never call a sink — they
    /// only read `S::ENABLED` to decide whether to build associations.
    struct Recording;
    impl ProvenanceSink for Recording {
        const ENABLED: bool = true;
    }

    struct Gen(u64);
    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        fn pick<T: Copy>(&mut self, of: &[T]) -> T {
            of[self.below(of.len())]
        }
    }

    /// Source rows: `n` is missing, null or an int; `u` is sometimes not an
    /// item (a sub-path walk must then yield nothing); `xs` is a short bag.
    fn source_item(i: i64) -> DataItem {
        let mut d = DataItem::from_fields([
            ("a", Value::Int(i % 7)),
            ("b", Value::str(format!("s{}", i % 5))),
        ]);
        match i % 4 {
            0 => {}
            1 => d.push("n", Value::Null),
            _ => d.push("n", Value::Int(i)),
        }
        if i % 6 == 5 {
            d.push("u", Value::Int(i));
        } else {
            let user = [("id", Value::Int(i % 3)), ("name", Value::str("n"))];
            d.push("u", Value::Item(DataItem::from_fields(user)));
        }
        d.push("xs", Value::Bag((0..i % 3).map(Value::Int).collect()));
        d
    }

    // Every stage draws its paths from one vocabulary; a select that dropped
    // or re-typed an attribute just makes later references miss, which both
    // kernels must agree on too.
    const NAMES: [&str; 5] = ["a", "b", "n", "u", "xs"];
    const INTS: [&str; 3] = ["a", "n", "u.id"];
    const STRS: [&str; 2] = ["b", "u.name"];
    const CMPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// `interp` admits the shapes only the expression interpreter evaluates
    /// (and so a chain that is not col-ready end to end).
    fn gen_leaf_pred(g: &mut Gen, interp: bool) -> Expr {
        let lit = Expr::lit(g.below(6) as i64);
        let int = Expr::col(g.pick(&INTS));
        match g.below(if interp { 10 } else { 6 }) {
            // Col-ready shapes.
            0..=2 => Expr::Cmp(g.pick(&CMPS), Box::new(int), Box::new(lit)),
            3 => Expr::Cmp(g.pick(&CMPS), Box::new(lit), Box::new(int)),
            4 => Expr::col(g.pick(&STRS)).contains(Expr::lit(g.pick(&["s", "1", "n", "zz"]))),
            // A missing root compares false; negated it keeps everything.
            5 => Expr::col("zz").eq(lit).not(),
            // Interpreted shapes: column vs column, null test, positional
            // path, a comparison against a null literal.
            6 => int.le(Expr::col(g.pick(&INTS))),
            7 => Expr::IsNull(Box::new(int)).not(),
            8 => Expr::col("xs[1]").ge(lit).not(),
            _ => int.eq(Expr::Lit(Value::Null)).not(),
        }
    }

    fn gen_pred(g: &mut Gen, interp: bool) -> Expr {
        let a = gen_leaf_pred(g, interp);
        match g.below(6) {
            0 => a.and(gen_leaf_pred(g, interp)),
            1 | 2 => a.or(gen_leaf_pred(g, interp)),
            3 => a.not(),
            _ => a,
        }
    }

    fn gen_proj(g: &mut Gen, depth: usize, interp: bool) -> SelectExpr {
        match g.below(12) {
            0 => SelectExpr::path("zz"),
            1 => SelectExpr::path("u.nope"),
            2 if interp => SelectExpr::path("xs[1]"),
            3 if interp => SelectExpr::Computed(Expr::Arith(
                ArithOp::Add,
                Box::new(Expr::col(g.pick(&INTS))),
                Box::new(Expr::lit(1i64)),
            )),
            4 | 5 if depth < 2 => SelectExpr::Struct(
                (0..1 + g.below(2))
                    .map(|j| (format!("f{j}"), gen_proj(g, depth + 1, interp)))
                    .collect(),
            ),
            6 | 7 => SelectExpr::path(g.pick(&INTS)),
            8 => SelectExpr::path(g.pick(&STRS)),
            _ => SelectExpr::path(g.pick(&NAMES)),
        }
    }

    /// Re-emits a subset of the vocabulary's roots (`a` always, so later
    /// filters keep something to discriminate on), each either copied or
    /// replaced by a generated projection.
    fn gen_select(g: &mut Gen, interp: bool) -> Vec<NamedExpr> {
        let mut out = vec![NamedExpr::path("a")];
        for name in &NAMES[1..] {
            match g.below(4) {
                0 => {}
                1 => out.push(NamedExpr::new(*name, gen_proj(g, 0, interp))),
                _ => out.push(NamedExpr::path(name)),
            }
        }
        out
    }

    fn gen_chain(g: &mut Gen) -> Vec<OpKind> {
        let interp = g.below(5) < 3;
        (0..1 + g.below(6))
            .map(|_| match g.below(5) {
                0..=2 => OpKind::Filter {
                    predicate: gen_pred(g, interp),
                },
                _ => OpKind::Select {
                    exprs: gen_select(g, interp),
                },
            })
            .collect()
    }

    /// What one comparison saw, so the test can prove it was not vacuous.
    #[derive(Default)]
    struct Seen {
        rows_out: usize,
        /// Stages whose associations are one run.
        one_run: usize,
        /// Stages whose associations are several runs.
        many_runs: usize,
    }

    fn assert_kernels_agree<S: ProvenanceSink>(
        row: &ChainKernel,
        col: &ColChainKernel,
        pidx: usize,
        input: &[Row],
        tag: &str,
    ) -> Seen {
        let Ok(TaskOut::Chain {
            rows: row_rows,
            assocs,
            counts: row_counts,
            err,
            panics,
        }) = chain_morsel::<S>(row, pidx, input)
        else {
            panic!("{tag}: row kernel returned no chain result");
        };
        let Ok(TaskOut::ColChain {
            rows: col_rows,
            stages,
            counts: col_counts,
            rows_in,
            ..
        }) = col_chain_morsel::<S>(col, pidx, input)
        else {
            panic!("{tag}: vectorized kernel returned no chain result");
        };
        assert!(err.is_none() && panics.iter().all(|&n| n == 0), "{tag}");
        assert_eq!(row_rows, col_rows, "{tag}: rows");
        assert_eq!(row_counts, col_counts, "{tag}: counts");
        assert_eq!(rows_in, input.len(), "{tag}: rows_in");
        let mut seen = Seen {
            rows_out: col_rows.len(),
            ..Seen::default()
        };
        for stage in &stages {
            match stage.run_count() {
                0 => {}
                1 => seen.one_run += 1,
                _ => seen.many_runs += 1,
            }
        }
        if S::ENABLED {
            assert_eq!(assocs, stages, "{tag}: stage associations");
        } else {
            assert!(stages.is_empty(), "{tag}: associations without a sink");
            assert!(assocs.iter().all(UnaryRuns::is_empty), "{tag}");
        }
        seen
    }

    /// Generated filter/select chains — col-ready and not — over empty,
    /// one-row, consecutive-id, non-consecutive-id and multi-morsel inputs:
    /// both chain kernels give equal rows, counts and stage association
    /// tables, with capture off and on.
    #[test]
    fn chain_kernels_agree_on_generated_chains() {
        const CHAINS: usize = 600;
        let items: Vec<DataItem> = (0..23).map(source_item).collect();
        let pidx = 3;
        let head = |seq: u64| (9u64 << 48) | ((pidx as u64) << 32) | seq;
        let consecutive: Vec<Row> = (0u64..)
            .zip(&items)
            .map(|(i, item)| Row {
                id: head(i),
                item: item.clone(),
            })
            .collect();
        // Key-sorted group-by output: ids are a permutation with gaps.
        let scattered: Vec<Row> = (0u64..)
            .zip(&items)
            .map(|(i, item)| Row {
                id: head((i * 7) % 23 * 2),
                item: item.clone(),
            })
            .collect();

        let mut g = Gen(0x9e37_79b9_7f4a_7c15);
        let (mut col_ready, mut interpreted) = (0, 0);
        let mut total = Seen::default();
        for chain in 0..CHAINS {
            let kinds = gen_chain(&mut g);
            let ops: Vec<OpId> = (10..10 + kinds.len() as OpId).collect();
            let stages = |kinds: &[OpKind]| -> Vec<_> {
                kinds.iter().map(|k| owned_stage(k).unwrap()).collect()
            };
            let col = plan_columnar(ops.clone(), &stages(&kinds))
                .unwrap_or_else(|| panic!("chain {chain}: UDF-free chain must vectorize"));
            let row = ChainKernel {
                ops,
                stages: stages(&kinds),
            };
            let all_ready = col.stages.iter().all(|s| match s {
                ColStage::Filter { col_ready, .. } | ColStage::Select { col_ready, .. } => {
                    *col_ready
                }
            });
            if all_ready {
                col_ready += 1;
            } else {
                interpreted += 1;
            }
            let morsel = 1 + g.below(7);
            let mut inputs: Vec<(String, &[Row])> = vec![
                ("empty".into(), &consecutive[..0]),
                ("one row".into(), &consecutive[4..5]),
                ("consecutive".into(), &consecutive),
                ("scattered".into(), &scattered),
            ];
            for (m, chunk) in consecutive.chunks(morsel).enumerate() {
                inputs.push((format!("morsel {m} of {morsel} rows"), chunk));
            }
            for (what, input) in inputs {
                let tag = format!("chain {chain} ({kinds:?}), {what}");
                assert_kernels_agree::<NoSink>(&row, &col, pidx, input, &tag);
                let seen = assert_kernels_agree::<Recording>(&row, &col, pidx, input, &tag);
                total.rows_out += seen.rows_out;
                total.one_run += seen.one_run;
                total.many_runs += seen.many_runs;
            }
        }
        // Not vacuous: both planner outcomes, single- and multi-run stages,
        // and chains that let rows through.
        assert!(col_ready >= 200, "only {col_ready} col-ready chains");
        assert!(interpreted >= 200, "only {interpreted} interpreted chains");
        assert!(total.rows_out >= 10_000, "only {} rows out", total.rows_out);
        assert!(
            total.one_run >= 1_000,
            "only {} one-run stages",
            total.one_run
        );
        assert!(
            total.many_runs >= 1_000,
            "only {} many-run stages",
            total.many_runs
        );
    }
}
