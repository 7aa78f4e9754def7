//! The backtracing algorithm (Sec. 6.3, Algs. 1–4).
//!
//! Starting from a backtracing structure `B` over the program's result
//! (usually produced by tree-pattern matching), the algorithm steps
//! backwards through the operator provenance `P` of every operator until
//! the `read` sources are reached. Each step
//!
//! 1. joins `B` with the identifier associations `P.P` to move from output
//!    to input identifiers (the same join lineage systems perform), and
//! 2. rewrites the backtracing trees: recorded manipulations `P.M` are
//!    undone with `manipulatePath`, and recorded accesses `P.I.A` are
//!    stamped with `accessPath`, materializing *influencing* nodes.
//!
//! `join`/`union` fork the walk into both predecessors; the results per
//! `read` operator are merged by input identifier.
//!
//! A whole-store question carries far fewer distinct trees than entries,
//! so one walk hash-conses its trees ([`ProvTree`] is copy-on-write) and
//! every operator visit rewrites each distinct tree once, handing the
//! entries that carry it one shared result. A one-entry visit rewrites its
//! tree in place instead (DESIGN.md, "Backtracing cost model").
//!
//! ### Aggregation relevance (Alg. 4 interpretation)
//!
//! For bag nesting, a group member is relevant (`inProv`) exactly when the
//! tree pinpoints its nested position (Ex. 6.6: members at positions 2 and
//! 3 survive; positions 1 and 4 are dropped). Scalar aggregates make every
//! group member relevant, since all values feed the aggregate. Group-key
//! mappings alone make members relevant only when the query does *not*
//! pinpoint nested positions — this reproduces the paper's example, where
//! tweets 1 and 29 of group 102 are excluded although they share the
//! queried `user` key, while key-only queries still return the whole group
//! (which a lineage system would, too).

use std::collections::HashMap;
use std::hash::Hash;

use pebble_dataflow::{EngineError, ItemId, OpId, Result, UnaryRuns};
use pebble_nested::{DataType, Path, Step};

use crate::btree::{Backtrace, Forest, ProvTree};
use crate::capture::{CapturedRun, OperatorProvenance, ProvAssoc};
use pebble_dataflow::hash::FxHashMap;

/// One traced input item of a source dataset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TracedItem {
    /// Identifier the item carried during the captured run.
    pub id: ItemId,
    /// Position of the item in the source dataset (0-based).
    pub index: usize,
    /// Backtracing tree over the item's schema, with contributing /
    /// influencing flags and access/manipulation operator sets.
    pub tree: ProvTree,
}

/// Provenance traced back to one `read` operator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceProvenance {
    /// The `read` operator.
    pub read_op: OpId,
    /// Name of the source dataset.
    pub source: String,
    /// Traced items, ordered by identifier.
    pub entries: Vec<TracedItem>,
}

impl SourceProvenance {
    /// Identifier-free view of the traced items: `(source, dataset index,
    /// rendered tree)` per entry, sorted by index.
    ///
    /// Item identifiers encode the partition an item travelled through, so
    /// they differ between runs with different partition counts; dataset
    /// indexes and backtracing trees do not. Comparing canonical entries is
    /// how the metamorphic tests and the differential oracle check that
    /// backtracing results are invariant under partitioning and fusion.
    fn canonical_entries(&self) -> Vec<(String, usize, String)> {
        // Entries share one allocation per distinct tree, so each
        // allocation is rendered once; `self` keeps them all alive.
        let mut rendered: FxHashMap<usize, String> = FxHashMap::default();
        let mut out: Vec<(String, usize, String)> = self
            .entries
            .iter()
            .map(|e| {
                let tree = rendered
                    .entry(e.tree.alloc_id())
                    .or_insert_with(|| e.tree.to_string());
                (self.source.clone(), e.index, tree.clone())
            })
            .collect();
        out.sort();
        out
    }
}

/// Canonicalizes a whole backtracing answer: the identifier-free
/// `(source, dataset index, rendered tree)` entries of every source, sorted
/// by `(source, index)`.
pub fn canonical_provenance(sources: &[SourceProvenance]) -> Vec<(String, usize, String)> {
    let mut out: Vec<(String, usize, String)> = sources
        .iter()
        .flat_map(SourceProvenance::canonical_entries)
        .collect();
    out.sort();
    out
}

/// Read-only view of a captured run's provenance — everything the
/// backtracing algorithm needs, abstracted over where the provenance lives.
///
/// [`CapturedRun`] implements it over the in-memory capture (answers come
/// straight from the program); `pebble-serve`'s `ProvStore` implements it
/// over a cold-opened segment file. The algorithm itself
/// ([`backtrace_from`]) is generic, which is what guarantees store-backed
/// answers are byte-identical to in-memory ones: both paths execute the
/// same code over the same association tables.
pub trait ProvView {
    /// The sink (final) operator of the program.
    fn sink_op(&self) -> OpId;

    /// Captured provenance per operator, indexed by operator id.
    fn prov_ops(&self) -> &[OperatorProvenance];

    /// Output schema per operator, indexed by operator id.
    fn schemas(&self) -> &[DataType];

    /// Source dataset name of a `read` operator; an error when `oid` is
    /// not a read.
    fn read_source(&self, oid: OpId) -> Result<String>;

    /// Output paths of position-less aggregates (`count(*)`, whole-item
    /// set nesting) at aggregation operator `oid` — see
    /// `backtrace_aggregation` for why these need the all-members rule.
    fn countstar_outputs(&self, oid: OpId) -> Vec<Path>;

    /// The provenance record of operator `oid`.
    fn prov_op(&self, oid: OpId) -> &OperatorProvenance {
        &self.prov_ops()[oid as usize]
    }

    /// Schema of the `idx`-th input of `oid` (its predecessor's output
    /// schema).
    fn input_schema_of(&self, oid: OpId, idx: usize) -> &DataType {
        let pred = self.prov_ops()[oid as usize].inputs[idx]
            .pred
            .expect("operator input without captured predecessor");
        &self.schemas()[pred as usize]
    }
}

impl ProvView for CapturedRun {
    fn sink_op(&self) -> OpId {
        self.program.sink()
    }

    fn prov_ops(&self) -> &[OperatorProvenance] {
        &self.ops
    }

    fn schemas(&self) -> &[DataType] {
        &self.output.op_schemas
    }

    fn read_source(&self, oid: OpId) -> Result<String> {
        match &self.program.operators()[oid as usize].kind {
            pebble_dataflow::OpKind::Read { source } => Ok(source.clone()),
            other => Err(EngineError::BacktraceError(format!(
                "operator #{oid} is {other:?}, expected a read"
            ))),
        }
    }

    fn countstar_outputs(&self, oid: OpId) -> Vec<Path> {
        match &self.program.operators()[oid as usize].kind {
            pebble_dataflow::OpKind::GroupAggregate { aggs, .. } => aggs
                .iter()
                .filter(|a| {
                    // Whole-item bag nesting (collect_list with no input
                    // path) is handled positionally through M; only
                    // count(*) and whole-item set nesting (position-less)
                    // fall back to the all-members rule.
                    a.input.is_empty() && a.func != pebble_dataflow::AggFunc::CollectList
                })
                .map(|a| Path::attr(&a.output))
                .collect(),
            _ => Vec::new(),
        }
    }

    fn input_schema_of(&self, oid: OpId, idx: usize) -> &DataType {
        self.input_schema(oid, idx)
    }
}

/// How Algs. 1–4 probe the identifier association tables: the tables are
/// the index. A table whose output ids ascend strictly (every table the
/// engine writes) is binary-searched in place; only one that does not keeps
/// a permutation to search through. Probes read the tables of the
/// [`ProvView`] they are handed, so an index never answers from another run,
/// and one that does not fit the view's tables is a typed error.
pub struct BacktraceIndex {
    /// Per operator: `None` when its table ascends strictly, else its table
    /// positions by ascending output id — a permutation (`from_sorted`
    /// checks, `build_ops` sorts), so one of the table's length stays in it.
    orders: Vec<Option<Vec<u32>>>,
}

/// A probe over one operator's association table, borrowed from the view:
/// `pick` projects an entry to its `(output id, payload)`.
struct Lookup<'a, T, P> {
    table: &'a [T],
    order: Option<&'a [u32]>,
    pick: P,
}

impl<'a, T, V, P: Fn(&'a T) -> (ItemId, V)> Lookup<'a, T, P> {
    /// The table position of the entry with output id `id`, and its payload.
    fn get(&self, id: ItemId) -> Option<(usize, V)> {
        let out_id = |at: usize| (self.pick)(&self.table[at]).0;
        let at = match self.order {
            None => position_of(self.table.len(), id, out_id)?,
            Some(order) => {
                let j = order.partition_point(|&p| out_id(p as usize) <= id);
                order[j.checked_sub(1)?] as usize
            }
        };
        let (out, payload) = (self.pick)(&self.table[at]);
        (out == id).then_some((at, payload))
    }
}

/// A probe over a unary table's runs: output id → run → the run's first
/// input id plus the offset into the run.
struct UnaryLookup<'a> {
    table: &'a UnaryRuns,
    order: Option<&'a [u32]>,
}

impl UnaryLookup<'_> {
    /// The input id paired with output id `id`. An ascending table is
    /// searched by its runs' first output ids; a permutation orders table
    /// positions, each found in its run through the runs' end positions.
    fn get(&self, id: ItemId) -> Option<ItemId> {
        let Some(order) = self.order else {
            return self.table.input_of_ascending(id);
        };
        let entry = |p: u32| self.table.get(p as usize);
        let j = order.partition_point(|&p| entry(p).is_some_and(|(_, out)| out <= id));
        let (input, out) = entry(order[j.checked_sub(1)?])?;
        (out == id).then_some(input)
    }
}

/// The position of `id` among `n` keys that ascend strictly. Keys are
/// distinct integers, so `id` lies at most `id - key(lo)` positions after
/// `lo` and at most `key(hi - 1) - id` before `hi - 1`. The engine numbers
/// a table's outputs consecutively per partition, so these bounds usually
/// pin the position at once; a round in which neither bound narrows the
/// range bisects it instead.
fn position_of(n: usize, id: ItemId, key: impl Fn(usize) -> ItemId) -> Option<usize> {
    // The position, if any, lies in `lo..hi`.
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let first = key(lo);
        if id <= first {
            return (id == first).then_some(lo);
        }
        let mut narrowed = id - first < (hi - lo) as u64;
        if narrowed {
            hi = lo + (id - first) as usize + 1;
        }
        lo += 1;
        if lo == hi {
            return None;
        }
        let last = key(hi - 1);
        if id >= last {
            return (id == last).then_some(hi - 1);
        }
        if last - id < (hi - lo) as u64 {
            lo = hi - 1 - (last - id) as usize;
            narrowed = true;
        }
        hi -= 1;
        if !narrowed && lo < hi {
            let mid = lo + (hi - lo) / 2;
            if key(mid) <= id {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    None
}

/// An index order that does not describe its association table.
fn perm_error(oid: OpId, detail: &str) -> EngineError {
    EngineError::BacktraceError(format!("prepared index for operator #{oid} {detail}"))
}

/// Checks that `table` ascends strictly by output id through `order` (in
/// table order when `None`), which with the length and range checks proves
/// the order a bijection; the error says what is wrong with the order.
fn check_order<T>(
    table: &[T],
    order: Option<&[u32]>,
    out_id: impl Fn(&T) -> ItemId,
) -> std::result::Result<(), &'static str> {
    let ascends = match order {
        None => table.windows(2).all(|w| out_id(&w[0]) < out_id(&w[1])),
        Some(order) => check_positions(table.len(), order, |p| out_id(&table[p]))?,
    };
    if !ascends {
        return Err("is not sorted by output identifier");
    }
    Ok(())
}

/// Whether `order`, once it covers positions `0..len` in range, visits
/// output ids (`out_id` of a position) in strictly ascending order.
fn check_positions(
    len: usize,
    order: &[u32],
    out_id: impl Fn(usize) -> ItemId,
) -> std::result::Result<bool, &'static str> {
    if order.len() != len {
        return Err("does not cover its association table");
    }
    if order.iter().any(|&p| p as usize >= len) {
        return Err("references an out-of-range position");
    }
    Ok(order
        .windows(2)
        .all(|w| out_id(w[0] as usize) < out_id(w[1] as usize)))
}

/// [`check_order`] over a unary table's runs: in table order, a scan of the
/// runs, not the entries.
fn check_unary_order(
    table: &UnaryRuns,
    order: Option<&[u32]>,
) -> std::result::Result<(), &'static str> {
    let ascends = match order {
        None => table.out_ids_ascend(true),
        Some(order) => check_positions(table.len(), order, |p| {
            table.get(p).map_or(ItemId::MAX, |(_, out)| out)
        })?,
    };
    if !ascends {
        return Err("is not sorted by output identifier");
    }
    Ok(())
}

/// [`check_order`] over an operator's table, whatever its kind.
fn check_op_order(
    op: &OperatorProvenance,
    order: Option<&[u32]>,
) -> std::result::Result<(), &'static str> {
    match &op.assoc {
        ProvAssoc::Read(v) => check_order(v, order, |&id| id),
        ProvAssoc::Unary(v) => check_unary_order(v, order),
        ProvAssoc::Binary(v) => check_order(v, order, |e| e.2),
        ProvAssoc::Flatten(v) => check_order(v, order, |e| e.2),
        ProvAssoc::Agg(v) => check_order(v, order, |e| e.1),
    }
}

impl BacktraceIndex {
    /// Builds the index for a captured run.
    ///
    /// When metrics are enabled (`PEBBLE_METRICS`), the build time is
    /// recorded into the process-wide [`pebble_obs::global`] histograms.
    pub fn build(run: &CapturedRun) -> Self {
        Self::build_ops(&run.ops)
    }

    /// Builds the index over bare association tables: a sortedness scan per
    /// table, and a sort only for one that does not ascend strictly (also
    /// the path of a loaded store without persisted orders).
    pub fn build_ops(ops: &[OperatorProvenance]) -> Self {
        let start = pebble_obs::metrics_enabled().then(std::time::Instant::now);
        let orders = ops
            .iter()
            .map(|op| {
                check_op_order(op, None)
                    .is_err()
                    .then(|| Self::permutation(op))
            })
            .collect();
        if let Some(start) = start {
            pebble_obs::global()
                .backtrace_build_ns
                .record(start.elapsed().as_nanos() as u64);
        }
        BacktraceIndex { orders }
    }

    /// Reconstructs the index from persisted orders: `orders[oid]` is `None`
    /// when operator `oid`'s table ascends strictly (checked by a scan, with
    /// no copy), else [`BacktraceIndex::permutation`] of it. Fails with a
    /// typed [`EngineError::BacktraceError`] when an order does not describe
    /// its table (wrong length, out-of-range position, not sorted).
    pub fn from_sorted(ops: &[OperatorProvenance], orders: Vec<Option<Vec<u32>>>) -> Result<Self> {
        if orders.len() != ops.len() {
            return Err(EngineError::BacktraceError(format!(
                "prepared index has {} permutations for {} operators",
                orders.len(),
                ops.len()
            )));
        }
        let start = pebble_obs::metrics_enabled().then(std::time::Instant::now);
        for (op, order) in ops.iter().zip(&orders) {
            check_op_order(op, order.as_deref()).map_err(|detail| perm_error(op.oid, detail))?;
        }
        if let Some(start) = start {
            pebble_obs::global()
                .backtrace_build_ns
                .record(start.elapsed().as_nanos() as u64);
        }
        Ok(BacktraceIndex { orders })
    }

    /// The sort permutation of one operator's association table: positions
    /// ordered by ascending output id, which `pebble-serve` persists so cold
    /// open can rebuild the index with [`BacktraceIndex::from_sorted`].
    pub fn permutation(op: &OperatorProvenance) -> Vec<u32> {
        let keys: Vec<ItemId> = match &op.assoc {
            ProvAssoc::Read(ids) => ids.clone(),
            ProvAssoc::Unary(v) => v.pairs().map(|(_, o)| o).collect(),
            ProvAssoc::Binary(v) => v.iter().map(|&(_, _, o)| o).collect(),
            ProvAssoc::Flatten(v) => v.iter().map(|&(_, _, o)| o).collect(),
            ProvAssoc::Agg(v) => v.iter().map(|(_, o)| *o).collect(),
        };
        let mut perm: Vec<u32> = (0..keys.len() as u32).collect();
        perm.sort_by_key(|&p| keys[p as usize]);
        perm
    }

    /// The order of operator `oid`'s table of `len` entries; an error when
    /// this index has no order for it that fits.
    fn order(&self, oid: OpId, len: usize) -> Result<Option<&[u32]>> {
        let order = self.orders.get(oid as usize).ok_or_else(|| {
            EngineError::BacktraceError(format!(
                "prepared index covers {} operators, not operator #{oid}",
                self.orders.len()
            ))
        })?;
        if order.as_ref().is_some_and(|o| o.len() != len) {
            return Err(perm_error(oid, "does not cover its association table"));
        }
        Ok(order.as_deref())
    }

    /// A probe over `table`, operator `oid`'s association table in the
    /// view.
    fn lookup<'a, T, V, P: Fn(&'a T) -> (ItemId, V)>(
        &'a self,
        oid: OpId,
        table: &'a [T],
        pick: P,
    ) -> Result<Lookup<'a, T, P>> {
        Ok(Lookup {
            table,
            order: self.order(oid, table.len())?,
            pick,
        })
    }

    /// A probe over `table`, operator `oid`'s unary table in the view.
    fn unary_lookup<'a>(&'a self, oid: OpId, table: &'a UnaryRuns) -> Result<UnaryLookup<'a>> {
        Ok(UnaryLookup {
            table,
            order: self.order(oid, table.len())?,
        })
    }
}

/// The captured association table's shape does not match the operator type
/// — capture tables inconsistent with the program.
fn shape_error(oid: OpId, expected: &str) -> EngineError {
    EngineError::BacktraceError(format!(
        "operator #{oid} does not carry {expected} association table"
    ))
}

/// The predecessor an operator's `idx`-th input refers to, as an error
/// when the captured provenance lacks it.
fn pred_of(p: &OperatorProvenance, idx: usize) -> Result<OpId> {
    p.inputs.get(idx).and_then(|i| i.pred).ok_or_else(|| {
        EngineError::BacktraceError(format!(
            "operator #{} ({}) has no captured predecessor for input {idx}",
            p.oid, p.op_type
        ))
    })
}

/// Backtraces `b` from the sink of a captured run to all of its sources
/// (Alg. 1, driven iteratively over the DAG).
///
/// Fails with [`EngineError::BacktraceError`] when the captured provenance
/// is inconsistent with the program (wrong association table shapes,
/// missing predecessors, identifiers absent from the `read` tables).
pub fn backtrace(run: &CapturedRun, b: Backtrace) -> Result<Vec<SourceProvenance>> {
    backtrace_with(run, &BacktraceIndex::build(run), b)
}

/// Backtraces with a pre-built [`BacktraceIndex`]; use when answering many
/// provenance questions over the same captured run.
///
/// When metrics are enabled (`PEBBLE_METRICS`), each probe's duration is
/// recorded into the process-wide [`pebble_obs::global`] histograms.
pub fn backtrace_with(
    run: &CapturedRun,
    index: &BacktraceIndex,
    b: Backtrace,
) -> Result<Vec<SourceProvenance>> {
    backtrace_from(run, index, b)
}

/// Backtraces over any [`ProvView`] — the generic entry point shared by the
/// in-memory path ([`backtrace_with`]) and loaded provenance stores.
///
/// When metrics are enabled (`PEBBLE_METRICS`), each probe's duration is
/// recorded into the process-wide [`pebble_obs::global`] histograms.
pub fn backtrace_from<V: ProvView + ?Sized>(
    view: &V,
    index: &BacktraceIndex,
    b: Backtrace,
) -> Result<Vec<SourceProvenance>> {
    backtrace_from_counted(view, index, b, &mut BacktraceWork::default())
}

/// What one backtrace did, as counts that repeat exactly from run to run
/// (timings on a shared box do not): the gate that the algorithm's work
/// follows the size of the answer. Added to, never reset, so one value can
/// accumulate over several questions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BacktraceWork {
    /// Entries stepped through an operator, summed over operator visits
    /// (after same-id entries were merged).
    pub entries_in: u64,
    /// Deep copies of a backtracing tree made for a rewrite: one per
    /// distinct tree (or tree and position) an operator visit rewrites, up
    /// to two per distinct pair of trees merged, none when a one-entry
    /// visit rewrites a tree it owns in place.
    pub trees_cloned: u64,
    /// Nodes of those deep copies.
    pub nodes_cloned: u64,
    /// Accessed paths expanded against an input schema (`expand_access`
    /// calls) — a per-operator constant, independent of the entry count.
    pub access_expansions: u64,
    /// Entries folded into an earlier entry of the same id.
    pub entries_merged: u64,
}

impl BacktraceWork {
    fn count_clone(&mut self, copy: &ProvTree) {
        self.trees_cloned += 1;
        self.nodes_cloned += copy.len() as u64;
    }

    /// The nodes of `tree` for a rewrite, counting the deep copy that
    /// takes when they are shared.
    fn edit<'t>(&mut self, tree: &'t mut ProvTree) -> &'t mut Forest {
        if tree.is_shared() {
            self.count_clone(tree);
        }
        tree.edit()
    }
}

/// Arena index of a distinct tree value in one walk's [`Interner`].
type TreeId = u32;

/// Hash-consing for one walk: equal trees share one allocation, and every
/// distinct value has an arena id that the walk's memos key on. It holds
/// every tree it has interned until the walk ends, so an allocation it
/// recorded is never freed and its address never reused meanwhile.
#[derive(Default)]
struct Interner {
    trees: Vec<ProvTree>,
    /// Keyed by tree content, which a client's question and data shape:
    /// the default hasher, not Fx, so keys cannot be crafted to collide.
    by_value: HashMap<ProvTree, TreeId>,
    /// The allocations of `trees` (and no other): an interned tree is
    /// found again without hashing its nodes.
    by_alloc: FxHashMap<usize, TreeId>,
}

impl Interner {
    /// The id of `tree`'s value, interning it when it is new.
    fn id(&mut self, tree: &ProvTree) -> TreeId {
        if let Some(&id) = self.by_alloc.get(&tree.alloc_id()) {
            return id;
        }
        if let Some(&id) = self.by_value.get(tree) {
            return id;
        }
        let id = self.trees.len() as TreeId;
        self.trees.push(tree.clone());
        self.by_value.insert(tree.clone(), id);
        self.by_alloc.insert(tree.alloc_id(), id);
        id
    }

    /// The interned allocation equal to `tree`.
    fn share(&mut self, tree: &ProvTree) -> ProvTree {
        let id = self.id(tree);
        self.trees[id as usize].clone()
    }
}

/// What one walk (Alg. 1) carries from visit to visit. Nothing here
/// outlives the question.
struct Walk<'w> {
    work: &'w mut BacktraceWork,
    trees: Interner,
    /// Merged tree per ordered `(kept, later)` pair.
    merges: FxHashMap<(TreeId, TreeId), ProvTree>,
}

impl Walk<'_> {
    /// [`Backtrace::merge_by_id`], merging each ordered pair of trees once
    /// per walk.
    fn merge_by_id(&mut self, b: &mut Backtrace) {
        let Walk {
            work,
            trees,
            merges,
        } = self;
        let folded = b.merge_by_id_with(|kept, later| {
            let key = (trees.id(kept), trees.id(&later));
            *kept = merges
                .entry(key)
                .or_insert_with(|| {
                    let mut merged = kept.clone();
                    for t in [&merged, &later] {
                        if t.is_shared() {
                            work.count_clone(t);
                        }
                    }
                    merged.merge(later);
                    trees.share(&merged)
                })
                .clone();
        });
        work.entries_merged += folded as u64;
    }
}

/// [`backtrace_from`], adding what the walk did to `work`.
pub fn backtrace_from_counted<V: ProvView + ?Sized>(
    view: &V,
    index: &BacktraceIndex,
    b: Backtrace,
    work: &mut BacktraceWork,
) -> Result<Vec<SourceProvenance>> {
    let start = pebble_obs::metrics_enabled().then(std::time::Instant::now);
    let result = backtrace_probe(view, index, b, work);
    if let Some(start) = start {
        pebble_obs::global()
            .backtrace_probe_ns
            .record(start.elapsed().as_nanos() as u64);
    }
    result
}

fn backtrace_probe<V: ProvView + ?Sized>(
    view: &V,
    index: &BacktraceIndex,
    b: Backtrace,
    work: &mut BacktraceWork,
) -> Result<Vec<SourceProvenance>> {
    let mut worklist: Vec<(OpId, Backtrace)> = vec![(view.sink_op(), b)];
    let mut per_read: FxHashMap<OpId, Backtrace> = FxHashMap::default();
    let walk = &mut Walk {
        work,
        trees: Interner::default(),
        merges: FxHashMap::default(),
    };

    while let Some((oid, mut b)) = worklist.pop() {
        walk.merge_by_id(&mut b);
        if b.entries.is_empty() {
            continue;
        }
        walk.work.entries_in += b.entries.len() as u64;
        let p = view.prov_op(oid);
        match p.op_type.as_str() {
            "read" => {
                per_read.entry(oid).or_default().entries.extend(b.entries);
            }
            "filter" | "select" | "map" => {
                let b2 = backtrace_generic(view, index, p, b, walk)?;
                worklist.push((pred_of(p, 0)?, b2));
            }
            "flatten" => {
                let b2 = backtrace_flatten(view, index, p, b, walk)?;
                worklist.push((pred_of(p, 0)?, b2));
            }
            "aggregation" => {
                let b2 = backtrace_aggregation(view, index, p, b, walk)?;
                worklist.push((pred_of(p, 0)?, b2));
            }
            "join" => {
                for side in 0..2 {
                    let b2 = backtrace_join_side(view, index, p, &mut b, side, walk)?;
                    worklist.push((pred_of(p, side)?, b2));
                }
            }
            "union" => {
                for side in 0..2 {
                    let b2 = backtrace_union_side(index, p, &b, side)?;
                    worklist.push((pred_of(p, side)?, b2));
                }
            }
            other => {
                return Err(EngineError::BacktraceError(format!(
                    "unknown operator type `{other}` at operator #{oid}"
                )))
            }
        }
    }

    let mut out: Vec<SourceProvenance> = Vec::new();
    for (read_op, mut b) in per_read {
        walk.merge_by_id(&mut b);
        // Equal trees of the answer share one allocation (a lone entry is
        // left as it is).
        if b.entries.len() > 1 {
            for (_, tree) in &mut b.entries {
                *tree = walk.trees.share(tree);
            }
        }
        let ProvAssoc::Read(ids) = &view.prov_op(read_op).assoc else {
            return Err(shape_error(read_op, "a read"));
        };
        let index_of = index.lookup(read_op, ids, |&id| (id, ()))?;
        let source = view.read_source(read_op)?;
        let entries = b
            .entries
            .into_iter()
            .map(|(id, tree)| {
                let (index, ()) = index_of.get(id).ok_or_else(|| {
                    EngineError::BacktraceError(format!(
                        "identifier {id:#x} is not in read operator #{read_op}'s associations"
                    ))
                })?;
                Ok(TracedItem { id, index, tree })
            })
            .collect::<Result<Vec<_>>>()?;
        out.push(SourceProvenance {
            read_op,
            source,
            entries,
        });
    }
    out.sort_by_key(|s| s.read_op);
    Ok(out)
}

/// Expands a schema-level access path to itself plus every schema path
/// below it ("marks the user and its children as accessed", Ex. 6.6).
fn expand_access(schema: &DataType, path: &Path) -> Vec<Path> {
    let mut out = vec![path.clone()];
    if let Some(sub) = schema.resolve(path) {
        for suffix in sub.schema_paths() {
            out.push(path.join(&suffix));
        }
    }
    out
}

/// The paths an operator visit stamps on every tree: each of `accessed`
/// expanded against the input `schema`, in recording order. Depends only
/// on the operator, so it is built once per visit, not per entry.
fn expanded_accesses<'a>(
    accessed: impl Iterator<Item = &'a Path>,
    schema: &DataType,
    work: &mut BacktraceWork,
) -> Vec<Path> {
    accessed
        .flat_map(|a| {
            work.access_expansions += 1;
            expand_access(schema, a)
        })
        .collect()
}

/// Every accessed path of every input of `p`.
fn all_accessed(p: &OperatorProvenance) -> impl Iterator<Item = &Path> {
    p.inputs.iter().flat_map(|i| i.accessed.iter().flatten())
}

fn record_accesses(tree: &mut Forest, accesses: &[Path], oid: OpId) {
    for a in accesses {
        tree.access_path(a, oid);
    }
}

/// Steps entries through one operator whose rewriting depends on the tree
/// and a per-entry value `X` alone. `input_of` moves an entry's id to the
/// operator's input (`None` drops the entry) and yields that value;
/// `rewrite` rewrites a tree the visit owns.
///
/// A one-entry visit rewrites its tree in place — taken out of `entries`
/// with `take`, copied otherwise — with no hash and no memo. A larger visit
/// rewrites each distinct `(tree, X)` once, interns the result, and hands
/// every entry that carries that pair the one shared allocation.
fn step<X: Copy + Eq + Hash>(
    walk: &mut Walk,
    entries: &mut Vec<(ItemId, ProvTree)>,
    take: bool,
    input_of: impl Fn(ItemId) -> Option<(ItemId, X)>,
    mut rewrite: impl FnMut(&mut Forest, X),
) -> Backtrace {
    let mut out = Backtrace::new();
    if entries.len() == 1 {
        let (id, mut tree) = if take {
            entries.pop().expect("one entry")
        } else {
            entries[0].clone()
        };
        if let Some((input_id, x)) = input_of(id) {
            rewrite(walk.work.edit(&mut tree), x);
            // Taking the entry emptied `entries`: its buffer holds the result.
            if take {
                out.entries = std::mem::take(entries);
            }
            out.entries.push((input_id, tree));
        }
        return out;
    }
    let mut memo: FxHashMap<(TreeId, X), ProvTree> = FxHashMap::default();
    for (id, tree) in entries.iter() {
        let Some((input_id, x)) = input_of(*id) else {
            continue;
        };
        let rewritten = memo.entry((walk.trees.id(tree), x)).or_insert_with(|| {
            let mut t = tree.clone();
            rewrite(walk.work.edit(&mut t), x);
            walk.trees.share(&t)
        });
        out.entries.push((input_id, rewritten.clone()));
    }
    out
}

/// Alg. 3: generic backtracing for `filter`, `select`, and `map`.
fn backtrace_generic<V: ProvView + ?Sized>(
    view: &V,
    index: &BacktraceIndex,
    p: &OperatorProvenance,
    mut b: Backtrace,
    walk: &mut Walk,
) -> Result<Backtrace> {
    let ProvAssoc::Unary(table) = &p.assoc else {
        return Err(shape_error(p.oid, "a unary"));
    };
    let to_input = index.unary_lookup(p.oid, table)?;
    let input_schema = view.input_schema_of(p.oid, 0);
    // A select fully defines its output: any root attribute still
    // referencing the select's *output* schema after the rewrite (e.g. a
    // struct container whose children were all moved back) does not exist
    // in the input and is dropped, so the tree conforms to the input
    // schema (Sec. 6.2).
    let select_fields = (p.op_type == "select")
        .then(|| input_schema.fields())
        .flatten();
    // Opaque map: no path information. Conservatively, every node of the
    // *input schema* may have been read and restructured to produce the
    // queried output, so all schema nodes are materialized and marked
    // manipulated (Sec. 6.3).
    let map_paths = match p.manipulated {
        Some(_) => Vec::new(),
        None => input_schema.schema_paths(),
    };
    let accesses = expanded_accesses(all_accessed(p), input_schema, walk.work);
    Ok(step(
        walk,
        &mut b.entries,
        true,
        |id| to_input.get(id).map(|input_id| (input_id, ())),
        |tree, ()| {
            match &p.manipulated {
                Some(ms) => {
                    tree.manipulate_paths(ms, p.oid);
                    if let Some(fields) = select_fields {
                        tree.retain_roots(|name| fields.iter().any(|f| f.name == name));
                    }
                }
                None => {
                    for path in &map_paths {
                        tree.insert(path, true);
                    }
                    tree.mark_all_manipulated(p.oid);
                }
            }
            record_accesses(tree, &accesses, p.oid);
        },
    ))
}

/// Alg. 2: backtracing `flatten` — generic step with `[pos]` placeholders,
/// then grouping by input id and substituting concrete positions while
/// merging trees.
fn backtrace_flatten<V: ProvView + ?Sized>(
    view: &V,
    index: &BacktraceIndex,
    p: &OperatorProvenance,
    mut b: Backtrace,
    walk: &mut Walk,
) -> Result<Backtrace> {
    let ProvAssoc::Flatten(table) = &p.assoc else {
        return Err(shape_error(p.oid, "a flatten"));
    };
    let to_input = index.lookup(p.oid, table, |&(i, pos, o)| (o, (i, pos)))?;
    let ms = p.manipulated.as_deref().ok_or_else(|| {
        EngineError::BacktraceError(format!(
            "flatten operator #{} captured no manipulations",
            p.oid
        ))
    })?;
    let Some((m_in, _m_out)) = ms.first() else {
        return Err(EngineError::BacktraceError(format!(
            "flatten operator #{} captured an empty manipulation set",
            p.oid
        )));
    };
    let input_schema = view.input_schema_of(p.oid, 0);
    // Every access except the flatten element path, which is recorded at
    // the entry's concrete position.
    let rest_accesses = expanded_accesses(
        all_accessed(p).filter(|a| *a != m_in),
        input_schema,
        walk.work,
    );
    let mut out = step(
        walk,
        &mut b.entries,
        true,
        |id| to_input.get(id).map(|(_, input)| input),
        |tree, pos| {
            // Undo ⟨a_col[pos], a_new⟩, leaving a placeholder node, then
            // substitute the recorded position (mergeTrees, Alg. 2 l.2)
            // and record the access on the concrete element.
            tree.manipulate_paths(ms, p.oid);
            tree.fill_placeholder(m_in, pos);
            tree.access_path(&m_in.fill_placeholder(pos), p.oid);
            record_accesses(tree, &rest_accesses, p.oid);
        },
    );
    walk.merge_by_id(&mut out);
    Ok(out)
}

/// What Alg. 4 needs of one aggregation operator, worked out once per
/// visit.
struct AggregationStep<'a> {
    oid: OpId,
    /// `P.M`, each mapping with whether it is a group-key mapping (an
    /// accessed path mapped onto itself).
    mappings: Vec<(&'a Path, &'a Path, bool)>,
    /// The nested collections of the output (`tweets` for `tweets[pos]`),
    /// distinct, in `P.M` order.
    collections: Vec<Path>,
    /// `collection[pos]` per collection: present in a tree exactly when
    /// the question pinpoints nested positions.
    position_probes: Vec<Path>,
    /// Outputs of position-less aggregates
    /// ([`ProvView::countstar_outputs`]).
    countstar_outputs: Vec<Path>,
}

impl<'a> AggregationStep<'a> {
    fn new(
        p: &'a OperatorProvenance,
        ms: &'a [(Path, Path)],
        countstar_outputs: Vec<Path>,
    ) -> Self {
        let keys = p.inputs.first().and_then(|i| i.accessed.as_deref());
        let mut collections: Vec<Path> = Vec::new();
        for (_, m_out) in ms.iter().filter(|(_, m_out)| m_out.has_placeholder()) {
            let prefix = collection_prefix(m_out);
            if !collections.contains(&prefix) {
                collections.push(prefix);
            }
        }
        AggregationStep {
            oid: p.oid,
            mappings: ms
                .iter()
                .map(|(m_in, m_out)| {
                    let is_key = m_in == m_out && keys.is_some_and(|a| a.contains(m_in));
                    (m_in, m_out, is_key)
                })
                .collect(),
            position_probes: collections.iter().map(|c| c.child(Step::AnyPos)).collect(),
            collections,
            countstar_outputs,
        }
    }

    /// Does the question pinpoint concrete positions inside any nested
    /// (bag-collected) output? If so, only those positions select members;
    /// key mappings alone do not (see module docs).
    fn is_positional(&self, tree: &ProvTree) -> bool {
        self.position_probes
            .iter()
            .any(|probe| tree.contains(probe))
    }

    /// Alg. 4 ll. 5–13 for the group member at position `p_pos`: rewrites
    /// `t`, the member's copy of the output tree, to the input schema and
    /// reports whether the member is in the provenance. `t` may lack the
    /// other positions of the nested collections
    /// ([`ProvTree::clone_at_position`]); they are removed here anyway.
    fn rewrite_member(&self, t: &mut Forest, p_pos: u32, positional_query: bool) -> bool {
        let mut in_prov = false;
        for &(m_in, m_out, is_key) in &self.mappings {
            if m_out.has_placeholder() {
                // Bag nesting: the member contributes exactly to the
                // nested item at its own position (Alg. 4 ll. 6-12).
                let out_path = m_out.fill_placeholder(p_pos);
                if t.contains(&out_path) {
                    in_prov = true;
                    t.manipulate_path(m_in, &out_path, self.oid);
                }
            } else if t.contains(m_out) {
                if !is_key || !positional_query {
                    in_prov = true;
                }
                t.manipulate_path(m_in, m_out, self.oid);
            }
        }
        // Remove the nested collections' remaining positions (Alg. 4
        // l. 13) — only after every mapping has been applied: several
        // mappings may target different attributes inside the same nested
        // collection (whole-item nesting maps one pair per attribute).
        for prefix in &self.collections {
            t.remove_nodes(prefix);
        }
        // `count(*)`-style aggregates read no attribute, so they have no
        // entry in M; their output attributes still make every group
        // member relevant when queried (each row feeds the count). The
        // nodes are removed from the tree — there is no input attribute to
        // rewrite them to.
        for out_path in &self.countstar_outputs {
            if t.contains(out_path) {
                if !positional_query {
                    in_prov = true;
                }
                t.remove_nodes(out_path);
            }
        }
        in_prov
    }
}

/// Alg. 4: backtracing aggregation/nesting back to the grouping input.
fn backtrace_aggregation<V: ProvView + ?Sized>(
    view: &V,
    index: &BacktraceIndex,
    p: &OperatorProvenance,
    b: Backtrace,
    walk: &mut Walk,
) -> Result<Backtrace> {
    // pos_flatten (Alg. 4 l. 1): ⟨ids^i, id^o⟩ → ⟨id^i, p_P, id^o⟩.
    let ProvAssoc::Agg(table) = &p.assoc else {
        return Err(shape_error(p.oid, "an aggregation"));
    };
    let groups = index.lookup(p.oid, table, |(ids, o)| (*o, ids.as_slice()))?;
    let ms = p.manipulated.as_deref().ok_or_else(|| {
        EngineError::BacktraceError(format!(
            "aggregation operator #{} captured no manipulations",
            p.oid
        ))
    })?;
    let step = AggregationStep::new(p, ms, view.countstar_outputs(p.oid));
    let accesses = expanded_accesses(all_accessed(p), view.input_schema_of(p.oid, 0), walk.work);
    // The member's tree, or `None` when the member is not in the
    // provenance. Its copy leaves out what l. 13 removes unread: the other
    // members' positions.
    let member = |tree: &ProvTree, p_pos: u32, positional_query: bool, work: &mut BacktraceWork| {
        let mut t = tree.clone_at_position(&step.collections, p_pos);
        work.count_clone(&t);
        let nodes = t.edit();
        if !step.rewrite_member(nodes, p_pos, positional_query) {
            return None;
        }
        record_accesses(nodes, &accesses, p.oid);
        Some(t)
    };
    let mut out = Backtrace::new();
    if let [(out_id, tree)] = b.entries.as_slice() {
        // One entry: every member has a position of its own, so nothing
        // repeats and nothing is memoized.
        let positional_query = step.is_positional(tree);
        for (idx, &member_id) in groups
            .get(*out_id)
            .into_iter()
            .flat_map(|(_, ids)| ids)
            .enumerate()
        {
            if let Some(t) = member(tree, idx as u32 + 1, positional_query, walk.work) {
                out.entries.push((member_id, t));
            }
        }
    } else {
        let mut positional: FxHashMap<TreeId, bool> = FxHashMap::default();
        let mut members: FxHashMap<(TreeId, u32), Option<ProvTree>> = FxHashMap::default();
        for (out_id, tree) in &b.entries {
            let Some((_, member_ids)) = groups.get(*out_id) else {
                continue;
            };
            let id = walk.trees.id(tree);
            let positional_query = *positional
                .entry(id)
                .or_insert_with(|| step.is_positional(tree));
            for (idx, &member_id) in member_ids.iter().enumerate() {
                let p_pos = idx as u32 + 1;
                let t = members.entry((id, p_pos)).or_insert_with(|| {
                    member(tree, p_pos, positional_query, walk.work).map(|t| walk.trees.share(&t))
                });
                if let Some(t) = t {
                    out.entries.push((member_id, t.clone()));
                }
            }
        }
    }
    walk.merge_by_id(&mut out);
    Ok(out)
}

/// Truncates at the first `[pos]` placeholder: `tweets[pos]` → `tweets`,
/// `members[pos].k` → `members` — the nested collection whose other
/// positions are removed (Alg. 4 l. 13).
fn collection_prefix(m_out: &Path) -> Path {
    let cut = m_out
        .steps()
        .iter()
        .position(|s| matches!(s, Step::AnyPos))
        .unwrap_or(m_out.len());
    Path::new(m_out.steps()[..cut].iter().cloned())
}

/// Join backtracing for one input side: move to that side's identifiers,
/// undo that side's attribute copies/renames, prune nodes belonging to the
/// other input's schema, and record the key accesses. Only the right side
/// (`side == 1`, stepped last) may take a lone entry's tree out of `b`:
/// the left side copies it, because the right side still needs it.
fn backtrace_join_side<V: ProvView + ?Sized>(
    view: &V,
    index: &BacktraceIndex,
    p: &OperatorProvenance,
    b: &mut Backtrace,
    side: usize,
    walk: &mut Walk,
) -> Result<Backtrace> {
    let ProvAssoc::Binary(table) = &p.assoc else {
        return Err(shape_error(p.oid, "a binary"));
    };
    let assoc_index = index.lookup(p.oid, table, |&(l, r, o)| (o, (l, r)))?;
    let field_names = |idx: usize| -> Vec<&str> {
        view.input_schema_of(p.oid, idx)
            .fields()
            .map(|fs| fs.iter().map(|f| f.name.as_str()).collect())
            .unwrap_or_default()
    };
    let input_schema = view.input_schema_of(p.oid, side);
    // Split M by *output* attribute: result attribute names are unique —
    // left fields keep their names, clashing right fields are renamed — so
    // a mapping belongs to the left side iff its output attribute is a
    // left field name.
    let left_fields = field_names(0);
    let ms: Vec<(Path, Path)> = p
        .manipulated
        .as_deref()
        .unwrap_or_default()
        .iter()
        .filter(|(_, m_out)| {
            let is_left_out = match m_out.head() {
                Some(Step::Attr(a)) => left_fields.iter().any(|f| f == a),
                _ => false,
            };
            (side == 0) == is_left_out
        })
        .cloned()
        .collect();
    // The output roots this side produced. A root the other side produced
    // may share its name with one of this side's *input* attributes (a
    // self-join), so the tree is pruned by output name before the renames
    // are undone.
    let owned: Vec<&str> = ms
        .iter()
        .filter_map(|(_, m_out)| match m_out.head() {
            Some(Step::Attr(a)) => Some(a.as_str()),
            _ => None,
        })
        .collect();
    let accesses = expanded_accesses(
        p.inputs[side].accessed.iter().flatten(),
        input_schema,
        walk.work,
    );
    Ok(step(
        walk,
        &mut b.entries,
        side == 1,
        |id| {
            let (_, (left, right)) = assoc_index.get(id)?;
            let input_id = if side == 0 { left } else { right };
            input_id.map(|input_id| (input_id, ()))
        },
        |t, ()| {
            t.retain_roots(|name| owned.contains(&name));
            t.manipulate_paths(&ms, p.oid);
            record_accesses(t, &accesses, p.oid);
        },
    ))
}

/// Union backtracing for one input side: keep the entries that originate
/// from that side (the other side's field is undefined); trees pass
/// through unchanged (`A = M = ∅`).
fn backtrace_union_side(
    index: &BacktraceIndex,
    p: &OperatorProvenance,
    b: &Backtrace,
    side: usize,
) -> Result<Backtrace> {
    let ProvAssoc::Binary(table) = &p.assoc else {
        return Err(shape_error(p.oid, "a binary"));
    };
    let assoc_index = index.lookup(p.oid, table, |&(l, r, o)| (o, (l, r)))?;
    let mut out = Backtrace::new();
    for (id, tree) in &b.entries {
        let Some((_, pair)) = assoc_index.get(*id) else {
            continue;
        };
        let input_id = if side == 0 { pair.0 } else { pair.1 };
        if let Some(input_id) = input_id {
            out.entries.push((input_id, tree.clone()));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::run_captured;
    use pebble_dataflow::{
        context::items_of, AggFunc, AggSpec, Context, ExecConfig, Expr, GroupKey, NamedExpr,
        ProgramBuilder,
    };
    use pebble_nested::{DataItem, Value};

    fn cfg() -> ExecConfig {
        ExecConfig::with_partitions(2)
    }

    fn simple_ctx() -> Context {
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

    fn whole_tree(paths: &[&str]) -> ProvTree {
        let owned: Vec<Path> = paths.iter().map(|p| Path::parse(p)).collect();
        ProvTree::from_paths(owned.iter())
    }

    #[test]
    fn filter_backtrace_marks_access() {
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let f = b.filter(r, Expr::col("v").ge(Expr::lit(2i64)));
        let run = run_captured(&b.build(f), &simple_ctx(), cfg()).unwrap();
        // Trace the first result item (k=b) asking about k.
        let first = &run.output.rows[0];
        let bt = Backtrace {
            entries: vec![(first.id, whole_tree(&["k"]))],
        };
        let sources = backtrace(&run, bt).unwrap();
        assert_eq!(sources.len(), 1);
        let entries = &sources[0].entries;
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].index, 1); // second source item (k=b)
        let tree = &entries[0].tree;
        assert!(tree.contains(&Path::attr("k")));
        // v was accessed by the filter: influencing node with a{1}.
        let v = tree
            .nodes()
            .into_iter()
            .find(|(p, _)| *p == Path::attr("v"))
            .unwrap()
            .1;
        assert!(!v.contributing);
        assert!(v.accessed.contains(&1));
    }

    #[test]
    fn select_backtrace_renames() {
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let s = b.select(r, vec![NamedExpr::aliased("key", "k")]);
        let run = run_captured(&b.build(s), &simple_ctx(), cfg()).unwrap();
        let first = &run.output.rows[0];
        let bt = Backtrace {
            entries: vec![(first.id, whole_tree(&["key"]))],
        };
        let sources = backtrace(&run, bt).unwrap();
        let tree = &sources[0].entries[0].tree;
        assert!(tree.contains(&Path::attr("k")));
        assert!(!tree.contains(&Path::attr("key")));
        let k = &tree.nodes()[0].1;
        assert!(k.manipulated.contains(&1));
        assert!(k.contributing);
    }

    #[test]
    fn union_backtrace_splits_sides() {
        let mut b = ProgramBuilder::new();
        let l = b.read("t");
        let r = b.read("t");
        let u = b.union(l, r);
        let run = run_captured(&b.build(u), &simple_ctx(), cfg()).unwrap();
        // Trace all six result items.
        let bt = Backtrace {
            entries: run
                .output
                .rows
                .iter()
                .map(|row| (row.id, whole_tree(&["k"])))
                .collect(),
        };
        let sources = backtrace(&run, bt).unwrap();
        assert_eq!(sources.len(), 2);
        assert_eq!(sources[0].entries.len(), 3);
        assert_eq!(sources[1].entries.len(), 3);
    }

    #[test]
    fn aggregation_scalar_pulls_all_members() {
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let g = b.group_aggregate(
            r,
            vec![GroupKey::new("k")],
            vec![AggSpec::new(AggFunc::Sum, "v", "total")],
        );
        let run = run_captured(&b.build(g), &simple_ctx(), cfg()).unwrap();
        let group_a = run
            .output
            .rows
            .iter()
            .find(|row| row.item.get("k") == Some(&Value::str("a")))
            .unwrap();
        let bt = Backtrace {
            entries: vec![(group_a.id, whole_tree(&["total"]))],
        };
        let sources = backtrace(&run, bt).unwrap();
        // Both k=a members contribute to the sum.
        assert_eq!(sources[0].entries.len(), 2);
        let idx: Vec<usize> = sources[0].entries.iter().map(|e| e.index).collect();
        assert_eq!(idx, [0, 2]);
        // The sum input path v is back in the tree.
        assert!(sources[0].entries[0].tree.contains(&Path::attr("v")));
    }

    #[test]
    fn aggregation_positional_selects_single_member() {
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let g = b.group_aggregate(
            r,
            vec![GroupKey::new("k")],
            vec![AggSpec::new(AggFunc::CollectList, "v", "vs")],
        );
        let run = run_captured(&b.build(g), &simple_ctx(), cfg()).unwrap();
        let group_a = run
            .output
            .rows
            .iter()
            .find(|row| row.item.get("k") == Some(&Value::str("a")))
            .unwrap();
        // Query pinpoints the second nested element (v=3, source index 2).
        let bt = Backtrace {
            entries: vec![(group_a.id, whole_tree(&["k", "vs[2]"]))],
        };
        let sources = backtrace(&run, bt).unwrap();
        assert_eq!(sources[0].entries.len(), 1);
        assert_eq!(sources[0].entries[0].index, 2);
        let tree = &sources[0].entries[0].tree;
        // vs[2] was transformed back to the input attribute v.
        assert!(tree.contains(&Path::attr("v")));
        // The group key is marked accessed by the aggregation.
        let k = tree
            .nodes()
            .into_iter()
            .find(|(p, _)| *p == Path::attr("k"))
            .unwrap()
            .1;
        assert!(k.accessed.contains(&1));
    }

    #[test]
    fn aggregation_key_only_query_returns_group() {
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let g = b.group_aggregate(
            r,
            vec![GroupKey::new("k")],
            vec![AggSpec::new(AggFunc::CollectList, "v", "vs")],
        );
        let run = run_captured(&b.build(g), &simple_ctx(), cfg()).unwrap();
        let group_a = run
            .output
            .rows
            .iter()
            .find(|row| row.item.get("k") == Some(&Value::str("a")))
            .unwrap();
        let bt = Backtrace {
            entries: vec![(group_a.id, whole_tree(&["k"]))],
        };
        let sources = backtrace(&run, bt).unwrap();
        // No positional query: the whole group contributes to the key.
        assert_eq!(sources[0].entries.len(), 2);
    }

    #[test]
    fn flatten_backtrace_restores_position() {
        let mut c = Context::new();
        c.register(
            "t",
            items_of(vec![vec![
                ("id", Value::Int(7)),
                (
                    "ms",
                    Value::Bag(vec![
                        Value::Item(DataItem::from_fields([("x", Value::str("p"))])),
                        Value::Item(DataItem::from_fields([("x", Value::str("q"))])),
                    ]),
                ),
            ]]),
        );
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let f = b.flatten(r, "ms", "m");
        let run = run_captured(&b.build(f), &c, cfg()).unwrap();
        // Trace the second exploded row's m.x.
        let second = &run.output.rows[1];
        let bt = Backtrace {
            entries: vec![(second.id, whole_tree(&["m.x"]))],
        };
        let sources = backtrace(&run, bt).unwrap();
        let tree = &sources[0].entries[0].tree;
        assert!(tree.contains(&Path::parse("ms[2].x")));
        assert!(!tree.contains(&Path::attr("m")));
    }

    #[test]
    fn flatten_merges_same_input_trees() {
        let mut c = Context::new();
        c.register(
            "t",
            items_of(vec![vec![(
                "ms",
                Value::Bag(vec![Value::Int(1), Value::Int(2)]),
            )]]),
        );
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let f = b.flatten(r, "ms", "m");
        let run = run_captured(&b.build(f), &c, cfg()).unwrap();
        let bt = Backtrace {
            entries: run
                .output
                .rows
                .iter()
                .map(|row| (row.id, whole_tree(&["m"])))
                .collect(),
        };
        let sources = backtrace(&run, bt).unwrap();
        // Both exploded rows trace to the single input item, trees merged.
        assert_eq!(sources[0].entries.len(), 1);
        let tree = &sources[0].entries[0].tree;
        assert!(tree.contains(&Path::parse("ms[1]")));
        assert!(tree.contains(&Path::parse("ms[2]")));
    }

    #[test]
    fn join_backtrace_prunes_other_side() {
        let mut c = Context::new();
        c.register(
            "l",
            items_of(vec![vec![("k", Value::Int(1)), ("lv", Value::str("L"))]]),
        );
        c.register(
            "r",
            items_of(vec![vec![("k", Value::Int(1)), ("rv", Value::str("R"))]]),
        );
        let mut b = ProgramBuilder::new();
        let lo = b.read("l");
        let ro = b.read("r");
        let j = b.join(lo, ro, vec![(Path::attr("k"), Path::attr("k"))]);
        let run = run_captured(&b.build(j), &c, cfg()).unwrap();
        let row = &run.output.rows[0];
        // Result schema: k, lv, k_r, rv. Trace lv and rv.
        let bt = Backtrace {
            entries: vec![(row.id, whole_tree(&["lv", "rv"]))],
        };
        let sources = backtrace(&run, bt).unwrap();
        assert_eq!(sources.len(), 2);
        let left = sources.iter().find(|s| s.source == "l").unwrap();
        let right = sources.iter().find(|s| s.source == "r").unwrap();
        assert!(left.entries[0].tree.contains(&Path::attr("lv")));
        assert!(!left.entries[0].tree.contains(&Path::attr("rv")));
        assert!(right.entries[0].tree.contains(&Path::attr("rv")));
        assert!(!right.entries[0].tree.contains(&Path::attr("lv")));
        // Join key access recorded on both sides.
        let lk = left.entries[0]
            .tree
            .nodes()
            .into_iter()
            .find(|(p, _)| *p == Path::attr("k"))
            .unwrap()
            .1;
        assert!(lk.accessed.contains(&2));
    }

    #[test]
    fn join_backtrace_renamed_right_key() {
        let mut c = Context::new();
        c.register(
            "l",
            items_of(vec![vec![("k", Value::Int(1)), ("lv", Value::str("L"))]]),
        );
        c.register(
            "r",
            items_of(vec![vec![("k", Value::Int(1)), ("rv", Value::str("R"))]]),
        );
        let mut b = ProgramBuilder::new();
        let lo = b.read("l");
        let ro = b.read("r");
        let j = b.join(lo, ro, vec![(Path::attr("k"), Path::attr("k"))]);
        let run = run_captured(&b.build(j), &c, cfg()).unwrap();
        let row = &run.output.rows[0];
        // Trace the renamed right key k_r.
        let bt = Backtrace {
            entries: vec![(row.id, whole_tree(&["k_r"]))],
        };
        let sources = backtrace(&run, bt).unwrap();
        let right = sources.iter().find(|s| s.source == "r").unwrap();
        assert!(right.entries[0].tree.contains(&Path::attr("k")));
        let left = sources.iter().find(|s| s.source == "l").unwrap();
        // Left side: k_r belongs to the right schema; only the access to
        // the left join key remains (influencing).
        let ktree = &left.entries[0].tree;
        assert!(!ktree.contains(&Path::attr("k_r")));
    }

    #[test]
    fn map_backtrace_marks_everything_manipulated() {
        use pebble_dataflow::MapUdf;
        use std::sync::Arc;
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let m = b.map(
            r,
            MapUdf {
                name: "noop".into(),
                f: Arc::new(Clone::clone),
                output_schema: None,
            },
        );
        let run = run_captured(&b.build(m), &simple_ctx(), cfg()).unwrap();
        let row = &run.output.rows[0];
        let bt = Backtrace {
            entries: vec![(row.id, whole_tree(&["k", "v"]))],
        };
        let sources = backtrace(&run, bt).unwrap();
        let tree = &sources[0].entries[0].tree;
        assert!(tree.nodes().iter().all(|(_, n)| n.manipulated.contains(&1)));
    }
}

#[cfg(test)]
mod dag_tests {
    use super::*;
    use crate::capture::run_captured;
    use crate::{PatternNode, TreePattern};
    use pebble_dataflow::{context::items_of, Context, ExecConfig, Expr, ProgramBuilder};
    use pebble_nested::Value;

    /// Diamond DAG: one read feeds two filter branches that re-unite. The
    /// per-read accumulation must merge trees arriving via both branches.
    #[test]
    fn diamond_dag_merges_at_shared_read() {
        let mut c = Context::new();
        c.register(
            "t",
            items_of(vec![
                vec![("k", Value::Int(1)), ("v", Value::Int(5))],
                vec![("k", Value::Int(2)), ("v", Value::Int(50))],
            ]),
        );
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let low = b.filter(r, Expr::col("v").lt(Expr::lit(100i64)));
        let high = b.filter(r, Expr::col("v").ge(Expr::lit(0i64)));
        let u = b.union(low, high);
        let p = b.build(u);
        let run = run_captured(&p, &c, ExecConfig::with_partitions(2)).unwrap();
        assert_eq!(run.output.rows.len(), 4); // both items pass both filters

        // Trace every result item asking about k.
        let pattern = TreePattern::root().node(PatternNode::attr("k").eq(1i64));
        let bt = pattern.match_rows(&run.output.rows);
        assert_eq!(bt.entries.len(), 2); // item 1 via both branches
        let sources = backtrace(&run, bt).unwrap();
        // One read, entries merged by input id: a single traced item.
        assert_eq!(sources.len(), 1);
        assert_eq!(sources[0].entries.len(), 1);
        let tree = &sources[0].entries[0].tree;
        // The v access carries both filters' operator ids (1 and 2).
        let v = tree
            .nodes()
            .into_iter()
            .find(|(p, _)| *p == Path::attr("v"))
            .unwrap()
            .1;
        assert!(v.accessed.contains(&1));
        assert!(v.accessed.contains(&2));
    }

    /// Backtracing an empty structure is a no-op.
    #[test]
    fn empty_backtrace_yields_nothing() {
        let mut c = Context::new();
        c.register("t", items_of(vec![vec![("k", Value::Int(1))]]));
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let f = b.filter(r, Expr::lit(true));
        let run = run_captured(&b.build(f), &c, ExecConfig::with_partitions(1)).unwrap();
        let sources = backtrace(&run, Backtrace::new()).unwrap();
        assert!(sources.is_empty());
    }

    /// Ids that do not exist in the result are skipped gracefully.
    #[test]
    fn unknown_ids_are_skipped() {
        let mut c = Context::new();
        c.register("t", items_of(vec![vec![("k", Value::Int(1))]]));
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let f = b.filter(r, Expr::lit(true));
        let run = run_captured(&b.build(f), &c, ExecConfig::with_partitions(1)).unwrap();
        let bogus = Backtrace {
            entries: vec![(u64::MAX, ProvTree::new())],
        };
        let sources = backtrace(&run, bogus).unwrap();
        assert!(sources.iter().all(|s| s.entries.is_empty()));
    }
}

#[cfg(test)]
mod nest_tests {
    use super::*;
    use crate::capture::run_captured;
    use pebble_dataflow::{context::items_of, Context, ExecConfig, GroupKey, ProgramBuilder};
    use pebble_nested::Value;

    /// Backtracing through the paper's grouping/nesting operator: a query
    /// pinpointing one nested member traces exactly that input item, and
    /// the member's attributes rewrite from `members[pos].attr` back to
    /// top-level `attr`.
    #[test]
    fn whole_item_nesting_backtraces_positionally() {
        let mut c = Context::new();
        c.register(
            "t",
            items_of(vec![
                vec![("k", Value::Int(1)), ("v", Value::Int(10))],
                vec![("k", Value::Int(1)), ("v", Value::Int(20))],
                vec![("k", Value::Int(2)), ("v", Value::Int(30))],
            ]),
        );
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let n = b.nest(r, vec![GroupKey::new("k")], "members");
        let run = run_captured(&b.build(n), &c, ExecConfig::with_partitions(2)).unwrap();
        let g1 = run
            .output
            .rows
            .iter()
            .find(|r| r.item.get("k") == Some(&Value::Int(1)))
            .unwrap();
        // Query the second nested member's v.
        let mut tree = ProvTree::new();
        tree.insert(&Path::parse("members[2].v"), true);
        let sources = backtrace(
            &run,
            Backtrace {
                entries: vec![(g1.id, tree)],
            },
        )
        .unwrap();
        assert_eq!(sources[0].entries.len(), 1);
        let entry = &sources[0].entries[0];
        assert_eq!(entry.index, 1); // the second k=1 input item
        assert!(entry.tree.contains(&Path::attr("v")));
        // Grouping key marked accessed.
        let k = entry
            .tree
            .nodes()
            .into_iter()
            .find(|(p, _)| *p == Path::attr("k"))
            .unwrap()
            .1;
        assert!(k.accessed.contains(&1));
    }
}

#[cfg(test)]
mod position_clone_tests {
    use super::*;
    use crate::capture::InputProv;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Alg. 4 as it was: every member rewrites a full `clone()` of the
    /// output tree. The position-pruned clone must give the same member
    /// trees and the same `inProv` verdicts.
    #[test]
    fn pruned_clone_equals_full_clone_then_remove() {
        // Mapping sets `(P.M, group keys, count(*) outputs)`: one nested
        // collection, whole-item nesting (two mappings into one
        // collection), a collection below a struct beside a second
        // collection, and a scalar-only aggregate.
        type Shape = (
            &'static [(&'static str, &'static str)],
            &'static [&'static str],
            &'static [&'static str],
        );
        let shapes: [Shape; 4] = [
            (
                &[("name", "name"), ("work", "works[pos]")],
                &["name"],
                &["n"],
            ),
            (
                &[("k", "k"), ("k", "ms[pos].k"), ("v", "ms[pos].v")],
                &["k"],
                &[],
            ),
            (
                &[("k", "k"), ("w", "s.ws[pos].t"), ("a", "as[pos]")],
                &["k"],
                &["n"],
            ),
            (&[("k", "k"), ("v", "total")], &["k"], &["n"]),
        ];
        // Tree paths to draw from: positions 1–4 of every collection,
        // `[pos]` placeholder children, attribute children of a collection
        // node, keys, scalar and count(*) outputs, unrelated attributes.
        let mut pool: Vec<String> = ["name", "k", "total", "n", "other.x", "works.len", "s.u"]
            .map(String::from)
            .to_vec();
        for coll in ["works", "ms", "s.ws", "as"] {
            pool.push(format!("{coll}[pos]"));
            for pos in 1..=4 {
                pool.push(format!("{coll}[{pos}]"));
                for attr in ["title", "k", "v", "t"] {
                    pool.push(format!("{coll}[{pos}].{attr}"));
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(4);
        let (mut pruned_smaller, mut members_in_prov) = (0, 0);
        for case in 0..600 {
            let (ms, keys, countstar) = shapes[case % shapes.len()];
            let ms: Vec<(Path, Path)> = ms
                .iter()
                .map(|(i, o)| (Path::parse(i), Path::parse(o)))
                .collect();
            let p = OperatorProvenance {
                oid: 9,
                op_type: "aggregation".into(),
                inputs: vec![InputProv {
                    pred: Some(8),
                    accessed: Some(keys.iter().map(|k| Path::parse(k)).collect()),
                }],
                manipulated: None,
                assoc: ProvAssoc::Agg(Vec::new()),
            };
            let countstar = countstar.iter().map(|c| Path::parse(c)).collect();
            let step = AggregationStep::new(&p, &ms, countstar);

            let mut tree = ProvTree::new();
            for _ in 0..rng.gen_range(1..12usize) {
                let path = Path::parse(&pool[rng.gen_range(0..pool.len())]);
                if rng.gen_bool(0.8) {
                    tree.insert(&path, rng.gen_bool(0.7));
                } else {
                    tree.access_path(&path, rng.gen_range(1..4u32));
                }
            }
            let positional = step.is_positional(&tree);
            for p_pos in 1..=5 {
                let mut full = tree.clone();
                let mut pruned = tree.clone_at_position(&step.collections, p_pos);
                pruned_smaller += usize::from(pruned.len() < full.len());
                let in_prov_full = step.rewrite_member(full.edit(), p_pos, positional);
                let in_prov_pruned = step.rewrite_member(pruned.edit(), p_pos, positional);
                assert_eq!(in_prov_full, in_prov_pruned, "case {case} position {p_pos}");
                assert_eq!(full, pruned, "case {case} position {p_pos}:\n{tree}");
                members_in_prov += usize::from(in_prov_full);
            }
        }
        // The cases exercise what they are meant to.
        assert!(pruned_smaller > 500, "{pruned_smaller}");
        assert!(members_in_prov > 500, "{members_in_prov}");
    }
}

#[cfg(test)]
mod sharing_tests {
    use super::*;
    use crate::capture::run_captured;
    use pebble_dataflow::{
        context::items_of, AggFunc, AggSpec, Context, ExecConfig, Expr, GroupKey, ProgramBuilder,
    };
    use pebble_nested::Value;
    use std::collections::HashSet;

    fn int(v: &Value) -> usize {
        v.as_int().unwrap() as usize
    }

    /// Ex. 6.6 over a whole store: every group row carries one shared
    /// question tree that names nested positions 2 and 3. Members 2 and 3
    /// of every group are traced, members 1 and 4 are not — the member memo
    /// keys on the position as well as the tree.
    #[test]
    fn shared_question_traces_members_2_and_3() {
        let mut c = Context::new();
        c.register(
            "t",
            items_of(
                (0..8)
                    .map(|i| vec![("k", Value::Int(i / 4)), ("v", Value::Int(i))])
                    .collect(),
            ),
        );
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let g = b.group_aggregate(
            r,
            vec![GroupKey::new("k")],
            vec![AggSpec::new(AggFunc::CollectList, "v", "vs")],
        );
        let run = run_captured(&b.build(g), &c, ExecConfig::with_partitions(2)).unwrap();
        let question = ProvTree::from_paths(&[Path::parse("vs[2]"), Path::parse("vs[3]")]);
        let bt = Backtrace {
            entries: run
                .output
                .rows
                .iter()
                .map(|row| (row.id, question.clone()))
                .collect(),
        };
        let sources = backtrace(&run, bt).unwrap();
        // `v` equals the dataset index, so the nested values name the
        // members: positions 2 and 3 of each group's `vs`.
        let mut expected = Vec::new();
        for row in &run.output.rows {
            let Some(Value::Bag(vs)) = row.item.get("vs") else {
                panic!("vs is not a bag: {:?}", row.item);
            };
            assert_eq!(vs.len(), 4);
            expected.extend(vs[1..3].iter().map(int));
        }
        expected.sort_unstable();
        let mut traced: Vec<usize> = sources[0].entries.iter().map(|e| e.index).collect();
        traced.sort_unstable();
        assert_eq!(traced, expected);
        for e in &sources[0].entries {
            assert!(e.tree.contains(&Path::attr("v")), "{}", e.tree);
        }
    }

    /// Exploded rows that all carry one shared tree: each row is rewritten
    /// at its own position, and the trees of one input item merge — the
    /// flatten memo keys on the position, the merge memo on both trees.
    #[test]
    fn shared_flatten_rows_keep_their_positions() {
        let mut c = Context::new();
        let bag = |vs: [i64; 3]| Value::Bag(vs.map(Value::Int).to_vec());
        c.register(
            "t",
            items_of(vec![
                vec![("ms", bag([1, 2, 3]))],
                vec![("ms", bag([4, 0, 5]))],
            ]),
        );
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let f = b.flatten(r, "ms", "m");
        let kept = b.filter(f, Expr::col("m").gt(Expr::lit(0i64)));
        let run = run_captured(&b.build(kept), &c, ExecConfig::with_partitions(2)).unwrap();
        assert_eq!(run.output.rows.len(), 5);
        let question = ProvTree::from_paths(&[Path::attr("m")]);
        let bt = Backtrace {
            entries: run
                .output
                .rows
                .iter()
                .map(|row| (row.id, question.clone()))
                .collect(),
        };
        let sources = backtrace(&run, bt).unwrap();
        let positions = |index: usize| -> Vec<bool> {
            let entry = sources[0]
                .entries
                .iter()
                .find(|e| e.index == index)
                .unwrap();
            (1..=3)
                .map(|pos| entry.tree.contains(&Path::parse(&format!("ms[{pos}]"))))
                .collect()
        };
        assert_eq!(sources[0].entries.len(), 2);
        assert_eq!(positions(0), [true, true, true]);
        assert_eq!(positions(1), [true, false, true]);
    }

    /// The walk hands out one allocation per distinct tree: on D3's
    /// whole-store answer, distinct allocations and distinct values agree.
    #[test]
    fn answer_shares_one_allocation_per_distinct_tree() {
        let s = pebble_workloads::scenarios::d3();
        let ctx = pebble_workloads::dblp_context(600);
        let run = run_captured(&s.program, &ctx, ExecConfig::with_partitions(2)).unwrap();
        // The scenario's pattern belongs to the workloads crate's copy of
        // this crate; its match trees are all-contributing, so their paths
        // rebuild them here.
        let question = Backtrace {
            entries: s
                .query
                .match_rows(&run.output.rows)
                .entries
                .into_iter()
                .map(|(id, t)| (id, ProvTree::from_paths(&t.contributing_paths())))
                .collect(),
        };
        let answer = backtrace(&run, question).unwrap();
        let trees: Vec<&ProvTree> = answer
            .iter()
            .flat_map(|sp| sp.entries.iter().map(|e| &e.tree))
            .collect();
        let allocations: HashSet<usize> = trees.iter().map(|t| t.alloc_id()).collect();
        let values: HashSet<&ProvTree> = trees.iter().copied().collect();
        assert!(trees.len() > 10 * values.len(), "{} trees", trees.len());
        assert_eq!(allocations.len(), values.len());
    }
}
