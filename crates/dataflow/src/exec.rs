//! Partitioned, morsel-driven executor.
//!
//! Operators are grouped into *units* (a fused chain of per-row operators,
//! or one read/flatten/join/union/group operator) and scheduled over the
//! persistent [`WorkerPool`]: each unit's input partitions are split into
//! **morsels** (row ranges) that workers pull from a shared queue until the
//! stage drains. Units whose inputs are ready are scheduled concurrently,
//! so independent DAG branches (e.g. both join inputs) overlap instead of
//! running serially, and no threads are spawned or joined per operator.
//!
//! **Determinism.** Morsel→logical-partition assignment is static: a morsel
//! computes its output with a partition-local `IdGen` starting at
//! sequence 0, and the scheduler thread *stitches* morsel results back
//! together in morsel order, adding each partition's running sequence
//! offset to the produced identifiers. Identifiers, association tables,
//! and sink batch order are therefore byte-identical to a single-threaded
//! execution at any worker count and any morsel size. The *referee shape*
//! ([`crate::matrix::ExecMatrix::referee`]) is that single-threaded
//! execution, and the determinism tests and the differential oracle compare
//! every other shape of the matrix against it.
//!
//! **Skew.** Morsel boundaries are recomputed per unit from the *actual*
//! row counts of its input partitions, so a partition fattened by an
//! upstream fan-out (flatten, join) simply yields proportionally more
//! morsels — idle workers pull them instead of waiting behind the fattest
//! partition.
//!
//! Every operator assigns *fresh* identifiers to its output items and
//! reports the input→output associations of Tab. 6 to the generic
//! [`ProvenanceSink`]; with [`NoSink`](crate::sink::NoSink) this bookkeeping
//! is compiled away, giving the plain "Spark" baseline of Figs. 6/7.
//! Association batches are emitted on the scheduler thread only, during
//! stitching, in a fixed per-operator order.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use pebble_nested::{DataItem, DataType, Label, Path, Value};
use pebble_obs::{
    diag, ColumnarStats, MorselStats, ObsConfig, OpReport, PoolStats, RunObs, RunReport, SpanEvent,
    SpanKind, SpillStats,
};

use crate::context::Context;
use crate::error::{panic_message, EngineError, Result};
use crate::expr::Expr;
use crate::fault;
use crate::hash::FxHashMap;
use crate::op::{key_value, AggFunc, AggSpec, GroupKey, MapUdf, NamedExpr, OpId, OpKind};
use crate::pool::WorkerPool;
use crate::program::{Operator, Program};
use crate::runs::UnaryRuns;
use crate::sink::ProvenanceSink;
use crate::spill::{self, BucketWriter, MemoryTracker, SpillDir, SpilledBucket, SpilledRows};

/// Unique identifier of a top-level data item within one execution.
///
/// Identifiers are *deterministic*: they compose the producing operator,
/// the partition, and a per-partition sequence number
/// (`op << 48 | partition << 32 | seq`). Because partitioning is itself
/// deterministic, re-running the same program on the same context yields
/// identical identifiers — which lets provenance captured in one run be
/// compared or joined against another run's.
pub type ItemId = u64;

/// Deterministic identifier factory for one (operator, partition) pair.
#[derive(Debug)]
struct IdGen {
    base: u64,
    seq: u32,
}

impl IdGen {
    /// Creates the generator for `op`'s `partition`-th output partition.
    pub fn new(op: OpId, partition: usize) -> Self {
        debug_assert!(partition < (1 << 16), "too many partitions");
        IdGen {
            base: ((op as u64) << 48) | ((partition as u64) << 32),
            seq: 0,
        }
    }

    /// Next identifier.
    #[inline]
    #[allow(clippy::should_implement_trait)] // not an Iterator; infinite id tap
    pub fn next(&mut self) -> ItemId {
        let id = self.base | self.seq as u64;
        self.seq += 1;
        id
    }
}

/// One top-level data item tagged with its identifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Provenance identifier (unique per execution).
    pub id: ItemId,
    /// The data item.
    pub item: DataItem,
}

type Partitions = Vec<Vec<Row>>;

/// A unit's materialized output: resident in memory, or spilled to disk as
/// checksummed row blocks. Consumers plan one job per morsel (memory) or
/// per block (spilled) — a spilled block simply *is* a morsel, and the
/// scheduler's stitching is byte-identical at any morsel size, so the two
/// forms are interchangeable without changing results or provenance.
#[derive(Clone)]
enum UnitOutput {
    Mem(Arc<Partitions>),
    Spilled(Arc<SpilledRows>),
    /// Spilled pre-partitioned by the consuming aggregation's grouping
    /// keys (see [`GroupSpill`]); only that aggregation may read it.
    SpilledBuckets(Arc<GroupSpill>),
}

impl UnitOutput {
    fn total_rows(&self) -> usize {
        match self {
            UnitOutput::Mem(parts) => partition_rows(parts),
            UnitOutput::Spilled(s) => s.total_rows(),
            UnitOutput::SpilledBuckets(g) => g.rows,
        }
    }

    fn n_parts(&self) -> usize {
        match self {
            UnitOutput::Mem(parts) => parts.len(),
            UnitOutput::Spilled(s) => s.parts.len(),
            UnitOutput::SpilledBuckets(g) => g.buckets.len(),
        }
    }
}

/// An operator output spilled already partitioned by its sole consuming
/// aggregation's grouping keys. Writing the spill through the shuffle hash
/// lets the aggregation skip its shuffle phase entirely — the alternative
/// (spill as plain blocks, reload them, re-partition, re-spill the
/// buckets) encodes and decodes every row twice. Bucket contents hold the
/// same rows in the same order the shuffle phase would feed them, so
/// results, ids, and provenance are byte-identical.
struct GroupSpill {
    /// The aggregation operator the buckets were partitioned for.
    for_op: OpId,
    /// One bucket per scheduler partition, indexed by shuffle hash.
    buckets: Vec<Arc<SpilledBucket>>,
    /// Total rows across buckets.
    rows: usize,
}

/// Morsels-per-worker target used when `morsel_rows` is 0 (auto).
const MORSELS_PER_WORKER: usize = 4;
/// Smallest auto-chosen morsel length.
const MORSEL_MIN: usize = 256;
/// Largest auto-chosen morsel length.
const MORSEL_MAX: usize = 8192;
/// Stages with fewer total input rows than this run inline on the
/// scheduler thread (only when the morsel size is auto): channel round
/// trips would cost more than the work itself.
const INLINE_ROWS: usize = 512;

/// Executor configuration.
///
/// A plain value: no field is read from the environment, so a config means
/// the same run wherever it executes. [`ExecConfig::default`] is the
/// machine's partition count with every other setting automatic, and
/// [`ExecConfig::with_partitions`] pins the partition count of that. Which
/// kernels run a unit is not configurable at all: fused filter/select
/// chains, group shuffles and join probes are vectorized
/// ([`crate::vector`]), and a chain falls back to the row kernel only when
/// its own plan hosts user code. The shapes the tests hold to one another
/// are listed in [`crate::matrix::ExecMatrix`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Number of logical partitions. Identifiers depend on this (a
    /// partition index is baked into every [`ItemId`]), so runs are only
    /// id-comparable at equal partition counts.
    pub partitions: usize,
    /// Number of pool worker threads; `0` picks the machine default
    /// (available parallelism capped at 8). Output is byte-identical at any
    /// worker count; `1` executes inline on the calling thread without
    /// touching the pool.
    pub workers: usize,
    /// Rows per morsel; `0` sizes morsels automatically from each stage's
    /// input cardinality (targeting several morsels per worker). Output is
    /// byte-identical at any morsel size.
    pub morsel_rows: usize,
    /// Memory budget in bytes for pipeline-resident state (`0` =
    /// unlimited, the default). When set, a [`crate::MemoryTracker`]
    /// accounts for materialized unit outputs, join build tables, and group
    /// tables; state that would exceed the budget spills under the system
    /// temp dir ([`crate::spill::base_dir`]) and is re-read
    /// morsel-at-a-time. Rows, identifiers, association tables, and
    /// backtraces are byte-identical at every budget.
    pub mem_budget_bytes: usize,
    /// Fuse maximal single-consumer chains of per-row operators into one
    /// unit (default `true`). With `false` every
    /// operator runs as its own stage and materializes its output rows;
    /// identifiers and captured provenance are specified byte-identical
    /// either way, and the tests and the differential oracle turn fusion
    /// off to verify that claim rather than assume it.
    pub fusion: bool,
}

/// Hard ceiling on the logical partition count: a partition index must fit
/// the 16-bit field of an [`ItemId`].
const MAX_PARTITIONS: usize = 1 << 16;

/// Brings a requested partition count into `1..=MAX_PARTITIONS` (`0` means
/// "use one partition"), warning once per process when it had to clamp.
fn clamp_partitions(requested: usize) -> usize {
    if requested > MAX_PARTITIONS {
        diag::warn_once(
            "partitions.clamp",
            &format!("clamping partitions={requested} to {MAX_PARTITIONS}"),
        );
    }
    requested.clamp(1, MAX_PARTITIONS)
}

/// Fixes an operator's output partition count, rejecting one whose indices
/// would overflow the 16-bit partition field of an [`ItemId`] into the
/// operator field (aliasing identifiers of partition `p - 65 536`).
fn checked_out_parts(op: &Operator, out_parts: usize) -> Result<usize> {
    if out_parts > MAX_PARTITIONS {
        return Err(EngineError::partition_overflow(
            op.id,
            op.kind.type_name(),
            out_parts,
            MAX_PARTITIONS,
        ));
    }
    Ok(out_parts)
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8)
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            partitions: default_parallelism(),
            // `workers`/`morsel_rows` keep `0` as "auto".
            workers: 0,
            morsel_rows: 0,
            mem_budget_bytes: 0,
            fusion: true,
        }
    }
}

impl ExecConfig {
    /// Config with `partitions` logical partitions and every other setting
    /// at its default.
    pub fn with_partitions(partitions: usize) -> Self {
        ExecConfig {
            partitions: clamp_partitions(partitions),
            ..ExecConfig::default()
        }
    }

    /// Sets the worker count (builder style).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the morsel length in rows (builder style).
    pub fn morsel_rows(mut self, morsel_rows: usize) -> Self {
        self.morsel_rows = morsel_rows;
        self
    }

    /// Sets the memory budget in bytes (builder style; `0` = unlimited).
    pub fn mem_budget(mut self, bytes: usize) -> Self {
        self.mem_budget_bytes = bytes;
        self
    }

    /// Enables or disables operator fusion (builder style).
    pub fn fusion(mut self, fusion: bool) -> Self {
        self.fusion = fusion;
        self
    }

    /// Resolved worker count.
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            default_parallelism()
        }
    }

    /// Morsel length for a stage with `total` input rows.
    fn morsel_len(&self, total: usize) -> usize {
        if self.morsel_rows > 0 {
            self.morsel_rows
        } else {
            (total / (self.effective_workers() * MORSELS_PER_WORKER).max(1))
                .clamp(MORSEL_MIN, MORSEL_MAX)
        }
    }
}

/// Result of executing a program.
pub struct RunOutput {
    /// Sink output rows, in deterministic order.
    pub rows: Vec<Row>,
    /// Inferred output schema per operator, indexed by op id.
    pub op_schemas: Vec<DataType>,
    /// Output cardinality per operator, indexed by op id.
    pub op_counts: Vec<usize>,
    /// Telemetry summary of the run (see [`RunOutput::report`]).
    pub report: RunReport,
}

impl RunOutput {
    /// Output schema of the sink (`Null` for an empty program).
    pub fn schema(&self) -> &DataType {
        self.op_schemas.last().unwrap_or(&DataType::Null)
    }

    /// Output items without identifiers.
    ///
    /// Clones every item; prefer [`RunOutput::iter_items`] when borrowing
    /// suffices. Like [`RunOutput::iter_items`], reading output never
    /// perturbs identifiers or provenance.
    pub fn items(&self) -> Vec<DataItem> {
        self.rows.iter().map(|r| r.item.clone()).collect()
    }

    /// Borrowing iterator over the output items, in row order.
    ///
    /// **Guarantee:** reading the output — this iterator, [`RunOutput::items`],
    /// or [`RunOutput::report`] — never perturbs the run's rows, identifiers,
    /// or captured provenance. The report is assembled from side counters
    /// after execution finishes; runs with metrics on and off are
    /// byte-identical in rows, ids, and backtraces (enforced by the
    /// `obs_transparency` metamorphic test).
    pub fn iter_items(&self) -> impl Iterator<Item = &DataItem> + '_ {
        self.rows.iter().map(|r| &r.item)
    }

    /// The run's telemetry report.
    ///
    /// Always present: cheap structural counters (per-operator row counts,
    /// morsel counts, skew statistics) are collected for every run; timing,
    /// duration histograms, and pool gauges are populated only when the run
    /// executed with metrics enabled (`PEBBLE_METRICS=1` or an explicit
    /// [`ObsConfig`]). Serialize with [`RunReport::to_json`].
    pub fn report(&self) -> &RunReport {
        &self.report
    }
}

/// Executes `program` against `ctx`, reporting identifier associations to
/// `sink`. Observability comes from the environment
/// (`PEBBLE_METRICS`/`PEBBLE_TRACE`); use [`run_observed`] to control it
/// explicitly.
pub fn run<S: ProvenanceSink>(
    program: &Program,
    ctx: &Context,
    config: ExecConfig,
    sink: &S,
) -> Result<RunOutput> {
    run_observed(program, ctx, config, sink, &ObsConfig::from_env()).0
}

/// Executes `program` with an explicit observability configuration.
///
/// Unlike [`run`], the [`RunReport`] is returned even when the run fails:
/// it then describes the run *up to the contained error* (completed
/// operators keep their exact counts, the failing operator reports its
/// caught UDF panics, and `outcome`/`error` carry the failure).
pub fn run_observed<S: ProvenanceSink>(
    program: &Program,
    ctx: &Context,
    config: ExecConfig,
    sink: &S,
    obs_cfg: &ObsConfig,
) -> (Result<RunOutput>, RunReport) {
    let ops = program.operators();
    let op_schemas = match program.infer_schemas(&ctx.source_schemas()) {
        Ok(schemas) => schemas,
        Err(e) => {
            // The program was rejected before execution: the report still
            // describes its shape, with zero counts everywhere.
            let zeros = vec![0usize; ops.len()];
            let mut report = base_report(ops, &zeros, ctx, &config, S::ENABLED, Some(&e));
            report.metrics = obs_cfg.metrics;
            return (Err(e), report);
        }
    };
    let mut scheduler = Scheduler::new(program, ops, ctx, config, sink, obs_cfg);
    let result = scheduler.execute();
    let mut report = scheduler.build_report(result.as_ref().err());
    finish_trace(&scheduler.obs, obs_cfg, &mut report);
    if let Err(e) = result {
        return (Err(e), report);
    }
    let sink_op = program.sink() as usize;
    let Some(sink_parts) = scheduler.outputs[sink_op].take() else {
        let e = EngineError::Internal("sink unit produced no output".into());
        return (Err(e), report);
    };
    let rows: Vec<Row> = match sink_parts {
        UnitOutput::Mem(parts) => {
            let parts = Arc::try_unwrap(parts).unwrap_or_else(|arc| (*arc).clone());
            parts.into_iter().flatten().collect()
        }
        // The sink output is exempt from spilling, but stay total anyway.
        UnitOutput::Spilled(s) => match s.load() {
            Ok(parts) => parts.into_iter().flatten().collect(),
            Err(e) => return (Err(e), report),
        },
        // Pre-bucketed spills only materialize for aggregation inputs,
        // never for the (spill-exempt) sink output.
        UnitOutput::SpilledBuckets(_) => {
            let e = EngineError::Internal("sink output spilled pre-bucketed".into());
            return (Err(e), report);
        }
    };
    diag::info(|| {
        format!(
            "run ok: {} operators, {} rows out, {} morsels",
            ops.len(),
            rows.len(),
            report.morsels.executed
        )
    });
    let output = RunOutput {
        rows,
        op_schemas,
        op_counts: scheduler.op_counts.clone(),
        report: report.clone(),
    };
    (Ok(output), report)
}

/// Builds the structural part of a [`RunReport`] from a program's operators
/// and (possibly partial) per-operator output counts. Rows-in are derived
/// from the producing operators' counts — valid even for fused chains and
/// failed runs, where downstream counts are simply zero. Association-table
/// sizes are estimates from the counts and each operator's association
/// shape; capture runs overwrite `provenance` with exact totals afterwards.
fn base_report(
    ops: &[Operator],
    op_counts: &[usize],
    ctx: &Context,
    config: &ExecConfig,
    capture: bool,
    error: Option<&EngineError>,
) -> RunReport {
    let mut report = RunReport {
        executor: "pool".to_string(),
        outcome: if error.is_some() { "error" } else { "ok" }.to_string(),
        error: error.map(|e| e.to_string()),
        partitions: config.partitions as u64,
        workers: config.effective_workers() as u64,
        morsel_rows: config.morsel_rows as u64,
        columnar: Some(ColumnarStats::default()),
        ..RunReport::default()
    };
    let mut seen_sources: Vec<&str> = Vec::new();
    for op in ops {
        if let OpKind::Read { source } = &op.kind {
            if !seen_sources.contains(&source.as_str()) {
                seen_sources.push(source);
                let rows = ctx.source(source).map(|s| s.len() as u64).unwrap_or(0);
                report.sources.push((source.clone(), rows));
            }
        }
    }
    for (i, op) in ops.iter().enumerate() {
        let rows_out = op_counts.get(i).copied().unwrap_or(0) as u64;
        let rows_in = match &op.kind {
            OpKind::Read { source } => ctx.source(source).map(|s| s.len() as u64).unwrap_or(0),
            _ => op
                .inputs
                .iter()
                .map(|&inp| op_counts.get(inp as usize).copied().unwrap_or(0) as u64)
                .sum(),
        };
        report.operators.push(OpReport {
            op: op.id as u64,
            op_type: op.kind.type_name().to_string(),
            udf: op.kind.can_panic(),
            rows_in,
            rows_out,
            assoc_entries: if capture { rows_out } else { 0 },
            assoc_bytes: if capture {
                crate::sink::estimated_assoc_bytes(&op.kind, rows_in, rows_out)
            } else {
                0
            },
            ..OpReport::default()
        });
    }
    report
}

/// Closes the run span, merges all span buffers deterministically, and
/// exports them to the configured trace path. Export failures degrade to a
/// once-per-process warning — tracing must never fail a run.
fn finish_trace(obs: &RunObs, obs_cfg: &ObsConfig, report: &mut RunReport) {
    let Some(path) = &obs_cfg.trace_path else {
        return;
    };
    let end = obs.now_ns();
    obs.record_span(SpanEvent {
        kind: SpanKind::Run,
        name: "run",
        op: u32::MAX,
        phase: 0,
        task: 0,
        worker: 0,
        start_ns: 0,
        dur_ns: end,
        rows: 0,
    });
    let spans = obs.drain_spans();
    report.spans = spans.len() as u64;
    if let Err(e) = pebble_obs::span::export(path, &spans) {
        diag::warn_once(
            "PEBBLE_TRACE.export",
            &format!("failed to export trace to {path}: {e}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Unit planning
// ---------------------------------------------------------------------------

/// A schedulable unit: one operator, or a maximal fused chain of per-row
/// operators starting at `start`.
struct Unit {
    /// Index of the first operator (operator ids equal their index).
    start: usize,
    /// Number of chained operators (1 for everything but fused chains).
    len: usize,
    /// Number of distinct units that must complete before this one starts.
    dep_count: usize,
    /// Units consuming this unit's output.
    consumers: Vec<usize>,
}

fn is_per_row(kind: &OpKind) -> bool {
    matches!(
        kind,
        OpKind::Filter { .. } | OpKind::Select { .. } | OpKind::Map { .. }
    )
}

/// Length of the maximal fusable chain starting at `ops[start]`: per-row
/// operators with consecutive ids where every link's producer feeds *only*
/// the next operator and is not the program sink. Returns 1 when nothing
/// can be fused onto the start operator.
fn fusable_chain_len(
    ops: &[Operator],
    sink: OpId,
    consumers: &FxHashMap<OpId, Vec<OpId>>,
    start: usize,
) -> usize {
    if !is_per_row(&ops[start].kind) {
        return 1;
    }
    let mut len = 1;
    while start + len < ops.len() {
        let prev = &ops[start + len - 1];
        let next = &ops[start + len];
        let single_consumer = consumers.get(&prev.id).is_some_and(|c| c == &[next.id]);
        if is_per_row(&next.kind) && next.inputs == [prev.id] && prev.id != sink && single_consumer
        {
            len += 1;
        } else {
            break;
        }
    }
    len
}

fn plan_units(
    ops: &[Operator],
    sink: OpId,
    consumers: &FxHashMap<OpId, Vec<OpId>>,
    fuse: bool,
) -> Vec<Unit> {
    let mut units: Vec<Unit> = Vec::new();
    let mut op_unit = vec![0usize; ops.len()];
    let mut idx = 0;
    while idx < ops.len() {
        let len = if fuse {
            fusable_chain_len(ops, sink, consumers, idx)
        } else {
            1
        };
        let uid = units.len();
        for slot in &mut op_unit[idx..idx + len] {
            *slot = uid;
        }
        units.push(Unit {
            start: idx,
            len,
            dep_count: 0,
            consumers: Vec::new(),
        });
        idx += len;
    }
    for uid in 0..units.len() {
        // Distinct producing units only: a self-join reading the same
        // upstream twice depends on it once.
        let mut deps: Vec<usize> = ops[units[uid].start]
            .inputs
            .iter()
            .map(|&i| op_unit[i as usize])
            .collect();
        deps.sort_unstable();
        deps.dedup();
        units[uid].dep_count = deps.len();
        for d in deps {
            units[d].consumers.push(uid);
        }
    }
    units
}

/// Partition layout of a `read`: `parts` contiguous ranges over the source,
/// padded with empty trailing partitions when the source is smaller than
/// the partition count, so the output partition count is always exactly
/// `parts` regardless of input size.
fn read_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let chunk = len.div_ceil(parts).max(1);
    (0..parts)
        .map(|p| (p * chunk).min(len)..((p + 1) * chunk).min(len))
        .collect()
}

fn split_range(range: Range<usize>, morsel: usize) -> Vec<Range<usize>> {
    let morsel = morsel.max(1);
    let mut out = Vec::new();
    let mut start = range.start;
    while start < range.end {
        let end = range.end.min(start.saturating_add(morsel));
        out.push(start..end);
        start = end;
    }
    out
}

// ---------------------------------------------------------------------------
// Kernels (run on pool workers; ids are partition-local, sequence from 0)
// ---------------------------------------------------------------------------

/// One owned per-row stage of a fused chain (jobs must be `'static`).
/// `can_panic` marks stages hosting user code (UDFs): only those pay the
/// per-row `catch_unwind` that converts a panic into a typed row error.
pub(crate) enum OwnedStage {
    Filter {
        pred: Expr,
        can_panic: bool,
    },
    Select {
        exprs: Vec<NamedExpr>,
        labels: Vec<Label>,
        can_panic: bool,
    },
    Map(MapUdf),
}

pub(crate) struct ChainKernel {
    pub(crate) ops: Vec<OpId>,
    pub(crate) stages: Vec<OwnedStage>,
}

pub(crate) fn owned_stage(kind: &OpKind) -> Result<OwnedStage> {
    match kind {
        OpKind::Filter { predicate } => Ok(OwnedStage::Filter {
            can_panic: predicate.contains_udf(),
            pred: predicate.clone(),
        }),
        OpKind::Select { exprs } => Ok(OwnedStage::Select {
            labels: exprs.iter().map(|ne| Label::new(&ne.name)).collect(),
            can_panic: exprs.iter().any(|ne| ne.expr.contains_udf()),
            exprs: exprs.clone(),
        }),
        OpKind::Map { udf } => Ok(OwnedStage::Map(udf.clone())),
        other => Err(EngineError::Internal(format!(
            "not a per-row operator: {other:?}"
        ))),
    }
}

/// Runs `f`, converting a panic into a message — but only when the stage
/// can actually panic (UDF present); pure expression stages skip the
/// unwind guard entirely on the hot path.
#[inline]
fn guard<T>(can_panic: bool, f: impl FnOnce() -> T) -> std::result::Result<T, String> {
    if can_panic {
        catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_message(&*p))
    } else {
        Ok(f())
    }
}

struct GroupKernel {
    op: OpId,
    keys: Vec<GroupKey>,
    aggs: Vec<AggSpec>,
    key_labels: Vec<Label>,
    agg_labels: Vec<Label>,
}

/// Join hash table keyed by the *cached* key hash.
///
/// Build computes each row's key hash exactly once and stores it as the
/// map key; probe computes each row's hash once (column-at-a-time per
/// morsel) and reuses it for the lookup, instead of re-walking the key
/// `Value`s through the map's hasher on every probe. Hash collisions
/// keep their keys in insertion order, so per-key match lists preserve the
/// deterministic global row order.
/// Build-side rows bucketed by key hash: each entry keeps the exact key
/// values alongside the rows that produced them, in insertion order.
type JoinBuckets = FxHashMap<u64, Vec<(Vec<Value>, Vec<Row>)>>;

#[derive(Default)]
pub(crate) struct JoinBuild {
    map: JoinBuckets,
}

impl JoinBuild {
    fn insert(&mut self, key: Vec<Value>, hash: u64, row: Row) {
        let bucket = self.map.entry(hash).or_default();
        match bucket.iter_mut().find(|(k, _)| *k == key) {
            Some((_, rows)) => rows.push(row),
            None => bucket.push((key, vec![row])),
        }
    }

    /// Matching build rows for a probe key with a pre-computed hash.
    fn get(&self, key: &[&Value], hash: u64) -> Option<&[Row]> {
        let bucket = self.map.get(&hash)?;
        bucket
            .iter()
            .find(|(k, _)| k.len() == key.len() && k.iter().zip(key).all(|(a, &b)| a == b))
            .map(|(_, rows)| rows.as_slice())
    }
}

/// Association rows of a binary operator: `(left input, right input,
/// output)`, with `None` marking the absent side (e.g. union branches).
type BinaryAssoc = Vec<(Option<ItemId>, Option<ItemId>, ItemId)>;

/// Result of one pool task. Identifiers inside are partition-local
/// (sequence numbers start at 0 per morsel); the scheduler stitches in the
/// per-partition offsets.
pub(crate) enum TaskOut {
    Read {
        rows: Vec<Row>,
    },
    /// Result of a vectorized chain morsel. Identifier layout matches
    /// `Chain` (full `op|partition|seq` ids, morsel-local sequences), but
    /// 1:1 stages report *runs* instead of materialized pairs, and
    /// vectorized stages never host UDFs, so there is no error/panic
    /// bookkeeping — hard failures surface as task `Err`s.
    ColChain {
        rows: Vec<Row>,
        /// Per-stage associations (empty when the sink is disabled).
        stages: Vec<UnaryRuns>,
        counts: Vec<usize>,
        /// Rows fed into the morsel (for batch-size telemetry).
        rows_in: usize,
        /// Column batches materialized by select stages.
        batches: u32,
        /// Rows considered by filter stages.
        filter_in: u64,
        /// Rows kept by filter stages.
        filter_kept: u64,
    },
    Chain {
        rows: Vec<Row>,
        assocs: Vec<UnaryRuns>,
        counts: Vec<usize>,
        /// First row failure at the *earliest* failing stage, if any. The
        /// morsel keeps processing (skipping failed rows) so `counts` for
        /// stages before the failing one stay exact — the scheduler needs
        /// them to stitch the error's input identifier.
        err: Option<ChainErr>,
        /// Per-stage count of UDF panics caught in this morsel (telemetry;
        /// non-zero only when `err` is set, since any caught panic fails
        /// the unit).
        panics: Vec<u32>,
    },
    Flatten {
        rows: Vec<Row>,
        assoc: Vec<(ItemId, u32, ItemId)>,
    },
    Binary {
        rows: Vec<Row>,
        assoc: Vec<(Option<ItemId>, Option<ItemId>, ItemId)>,
    },
    Build(JoinBuild),
    /// Grace-hash build: the build side was partitioned into on-disk
    /// buckets instead of one in-memory table.
    GraceBuild(Vec<Arc<SpilledBucket>>),
    /// One probe pass's matches for the grace-join path, morsel-local in
    /// nothing: left ordinals and both input ids are final, output ids are
    /// assigned at finalize after all passes merge.
    GraceProbe(Vec<GraceMatch>),
    Shuffle(Vec<Vec<Row>>),
    Agg {
        rows: Vec<KeyedRow>,
        assoc: Vec<(Vec<ItemId>, ItemId)>,
    },
}

/// A row-level failure inside a fused chain, recorded morsel-locally.
///
/// `input_local` is the identifier of the failing stage's input row: final
/// for stage 0 (unit inputs are already stitched), morsel-local for later
/// stages (the scheduler adds the partition's stage offset). The candidate
/// kept is the one an unfused execution would report: the earliest failing
/// stage, and within it the first failing row in row order.
pub(crate) struct ChainErr {
    stage: usize,
    input_local: ItemId,
    message: String,
}

fn read_morsel(op: OpId, pidx: usize, items: &[DataItem]) -> TaskOut {
    let mut ids = IdGen::new(op, pidx);
    let rows = items
        .iter()
        .map(|item| Row {
            id: ids.next(),
            item: item.clone(),
        })
        .collect();
    TaskOut::Read { rows }
}

pub(crate) fn chain_morsel<S: ProvenanceSink>(
    kernel: &ChainKernel,
    pidx: usize,
    rows: &[Row],
) -> Result<TaskOut> {
    let n = kernel.stages.len();
    let mut ids: Vec<IdGen> = kernel.ops.iter().map(|&op| IdGen::new(op, pidx)).collect();
    let mut assocs: Vec<UnaryRuns> = (0..n).map(|_| UnaryRuns::new()).collect();
    let mut counts = vec![0usize; n];
    let mut panics = vec![0u32; n];
    let mut out = Vec::with_capacity(rows.len());
    let mut err: Option<ChainErr> = None;
    // Records a row failure at stage `s`: kept only if it beats the
    // current candidate, i.e. it fails at a strictly earlier stage (an
    // unfused run would stop at the earliest failing operator, where this
    // row is the first to fail in row order).
    let record = |err: &mut Option<ChainErr>, s: usize, input: ItemId, message: String| {
        if err.as_ref().is_none_or(|e| s < e.stage) {
            *err = Some(ChainErr {
                stage: s,
                input_local: input,
                message,
            });
        }
    };
    'rows: for row in rows {
        // Injected faults target the chain's head operator (the only
        // chain stage whose input identifiers are final morsel-side).
        fault::check(kernel.ops[0], row.id)?;
        let mut item = row.item.clone();
        let mut prev_id = row.id;
        for (s, stage) in kernel.stages.iter().enumerate() {
            match stage {
                OwnedStage::Filter { pred, can_panic } => {
                    match guard(*can_panic, || pred.eval_bool(&item)) {
                        Ok(true) => {}
                        Ok(false) => continue 'rows,
                        Err(msg) => {
                            panics[s] += 1;
                            record(&mut err, s, prev_id, msg);
                            continue 'rows;
                        }
                    }
                }
                OwnedStage::Select {
                    exprs,
                    labels,
                    can_panic,
                } => {
                    match guard(*can_panic, || {
                        let mut next = DataItem::new();
                        for (ne, label) in exprs.iter().zip(labels) {
                            next.push(label.clone(), ne.expr.eval(&item));
                        }
                        next
                    }) {
                        Ok(next) => item = next,
                        Err(msg) => {
                            panics[s] += 1;
                            record(&mut err, s, prev_id, msg);
                            continue 'rows;
                        }
                    }
                }
                OwnedStage::Map(udf) => match guard(true, || (udf.f)(&item)) {
                    Ok(next) => item = next,
                    Err(msg) => {
                        panics[s] += 1;
                        record(
                            &mut err,
                            s,
                            prev_id,
                            format!("udf `{}` panicked: {msg}", udf.name),
                        );
                        continue 'rows;
                    }
                },
            }
            let id = ids[s].next();
            if S::ENABLED {
                assocs[s].push(prev_id, id);
            }
            counts[s] += 1;
            prev_id = id;
        }
        out.push(Row { id: prev_id, item });
    }
    Ok(TaskOut::Chain {
        rows: out,
        assocs,
        counts,
        err,
        panics,
    })
}

fn flatten_morsel<S: ProvenanceSink>(
    op: OpId,
    pidx: usize,
    col: &Path,
    attr: &Label,
    rows: &[Row],
) -> Result<TaskOut> {
    let mut ids = IdGen::new(op, pidx);
    let mut out = Vec::with_capacity(rows.len());
    let mut assoc: Vec<(ItemId, u32, ItemId)> =
        Vec::with_capacity(if S::ENABLED { rows.len() } else { 0 });
    for row in rows {
        fault::check(op, row.id)?;
        let Some(elements) = col.eval(&row.item).and_then(Value::as_collection) else {
            continue; // missing/null collections produce no rows
        };
        for (idx, element) in elements.iter().enumerate() {
            let mut item = row.item.clone();
            item.push(attr.clone(), element.clone());
            let id = ids.next();
            out.push(Row { id, item });
            if S::ENABLED {
                assoc.push((row.id, idx as u32 + 1, id));
            }
        }
    }
    Ok(TaskOut::Flatten { rows: out, assoc })
}

fn join_key(item: &DataItem, paths: &[Path]) -> Option<Vec<Value>> {
    let mut key = Vec::with_capacity(paths.len());
    for p in paths {
        match p.eval(item) {
            Some(v) if !v.is_null() => key.push(v.clone()),
            _ => return None, // null keys never join
        }
    }
    Some(key)
}

/// Builds the join hash table over the (by convention right) input,
/// computing each row's key hash exactly once. Rows are visited in
/// partition order, so per-key match lists preserve the deterministic
/// global row order.
fn join_build(right: &Partitions, right_paths: &[Path]) -> JoinBuild {
    let mut build = JoinBuild::default();
    for partition in right {
        for row in partition {
            if let Some(k) = join_key(&row.item, right_paths) {
                let hash = crate::hash::hash_values(&k);
                build.insert(k, hash, row.clone());
            }
        }
    }
    build
}

/// Probes one morsel: key values and cached hashes are computed
/// column-at-a-time for the whole morsel before any table lookup.
fn join_probe<S: ProvenanceSink>(
    op: OpId,
    pidx: usize,
    build: &JoinBuild,
    keys: &crate::vector::ColKeys,
    rows: &[Row],
) -> Result<TaskOut> {
    for row in rows {
        fault::check(op, row.id)?;
    }
    let keyed = keys.probe_keys(rows);
    let mut ids = IdGen::new(op, pidx);
    let mut out = Vec::with_capacity(rows.len());
    let mut assoc: Vec<(Option<ItemId>, Option<ItemId>, ItemId)> =
        Vec::with_capacity(if S::ENABLED { rows.len() } else { 0 });
    for (lrow, slot) in rows.iter().zip(keyed) {
        let Some((k, hash)) = slot else {
            continue;
        };
        if let Some(matches) = build.get(&k, hash) {
            for rrow in matches {
                let item = lrow.item.merged(&rrow.item);
                let id = ids.next();
                out.push(Row { id, item });
                if S::ENABLED {
                    assoc.push((Some(lrow.id), Some(rrow.id), id));
                }
            }
        }
    }
    Ok(TaskOut::Binary { rows: out, assoc })
}

/// Number of on-disk buckets a grace-hash join partitions its build side
/// into. Fixed (not budget-derived) so the bucket a key lands in — and
/// therefore the pass structure — is deterministic.
const GRACE_BUCKETS: usize = 8;

/// The grace bucket a key hash belongs to. Uses high hash bits so bucket
/// choice is independent from the [`JoinBuild`] map's use of the full hash.
fn grace_bucket(hash: u64) -> usize {
    ((hash >> 32) as usize ^ hash as usize) % GRACE_BUCKETS
}

/// One left row's matches discovered during a grace-join probe pass.
///
/// `ordinal` is the row's position within its input partition: every left
/// row's key lands in exactly one bucket, so merging all passes' matches by
/// ordinal reconstructs the exact left row order an in-memory probe visits.
pub(crate) struct GraceMatch {
    ordinal: u64,
    left_id: ItemId,
    /// `(right row id, merged output item)` in build insertion order —
    /// bucket files preserve global right row order restricted to the
    /// bucket, which is exactly the in-memory match order for these keys.
    matches: Vec<(ItemId, DataItem)>,
}

/// Build phase of a grace-hash join: streams the right input (resident or
/// spilled) into [`GRACE_BUCKETS`] on-disk bucket files keyed by join-key
/// hash. Rows without a key are dropped here, exactly as [`join_build`]
/// drops them.
fn grace_partition_build(
    op: OpId,
    dir: &SpillDir,
    right: &UnitOutput,
    right_paths: &[Path],
) -> TaskResult {
    let mut writers = Vec::with_capacity(GRACE_BUCKETS);
    for b in 0..GRACE_BUCKETS {
        let path = dir
            .file(&format!("op{op}.join{b}"))
            .map_err(|e| spill::spill_io(op, "create spill file", &e))?;
        writers.push(BucketWriter::create(op, path)?);
    }
    let mut bufs: Vec<Vec<Row>> = (0..GRACE_BUCKETS).map(|_| Vec::new()).collect();
    let mut route = |writers: &mut [BucketWriter], rows: &[Row]| -> Result<()> {
        for row in rows {
            let Some(k) = join_key(&row.item, right_paths) else {
                continue;
            };
            let b = grace_bucket(crate::hash::hash_values(&k));
            bufs[b].push(row.clone());
            if bufs[b].len() >= 512 {
                writers[b].append(&bufs[b])?;
                bufs[b].clear();
            }
        }
        Ok(())
    };
    match right {
        UnitOutput::Mem(parts) => {
            for part in parts.iter() {
                route(&mut writers, part)?;
            }
        }
        UnitOutput::Spilled(s) => {
            for blocks in &s.parts {
                for &meta in blocks {
                    route(&mut writers, &s.read_block(meta)?)?;
                }
            }
        }
        // Outputs only spill pre-bucketed when their sole consumer is an
        // aggregation — never a join build side.
        UnitOutput::SpilledBuckets(_) => {
            return Err(EngineError::Internal(
                "join build side spilled pre-bucketed".into(),
            ))
        }
    }
    let mut buckets = Vec::with_capacity(GRACE_BUCKETS);
    for (mut w, buf) in writers.into_iter().zip(bufs) {
        w.append(&buf)?;
        buckets.push(w.finish()?);
    }
    Ok(TaskOut::GraceBuild(buckets))
}

/// Rebuilds the in-memory hash table for one reloaded grace bucket. Rows
/// arrive in bucket append order (global right order restricted to the
/// bucket), so per-key match lists match the in-memory build exactly.
fn grace_bucket_build(rows: Vec<Row>, right_paths: &[Path]) -> JoinBuild {
    let mut build = JoinBuild::default();
    for row in rows {
        if let Some(k) = join_key(&row.item, right_paths) {
            let hash = crate::hash::hash_values(&k);
            build.insert(k, hash, row);
        }
    }
    build
}

/// One probe morsel of one grace pass: probes only the left rows whose key
/// hashes into `bucket`, recording matches by left ordinal for the final
/// merge. The per-row fault hook runs in the *first* pass only, so every
/// left row is checked exactly once with the same `(op, task)` layout as
/// an in-memory probe — failing runs pick identical deterministic errors.
fn grace_probe_morsel(
    op: OpId,
    start_ordinal: u64,
    bucket: usize,
    build: &JoinBuild,
    keys: &crate::vector::ColKeys,
    rows: &[Row],
) -> TaskResult {
    let mut out = Vec::new();
    for (i, (lrow, slot)) in rows.iter().zip(keys.probe_keys(rows)).enumerate() {
        if bucket == 0 {
            fault::check(op, lrow.id)?;
        }
        let Some((k, hash)) = slot else {
            continue;
        };
        if grace_bucket(hash) != bucket {
            continue;
        }
        if let Some(matches) = build.get(&k, hash) {
            out.push(GraceMatch {
                ordinal: start_ordinal + i as u64,
                left_id: lrow.id,
                matches: matches
                    .iter()
                    .map(|rrow| (rrow.id, lrow.item.merged(&rrow.item)))
                    .collect(),
            });
        }
    }
    Ok(TaskOut::GraceProbe(out))
}

fn union_morsel<S: ProvenanceSink>(
    op: OpId,
    out_pidx: usize,
    is_left: bool,
    rows: &[Row],
) -> Result<TaskOut> {
    let mut ids = IdGen::new(op, out_pidx);
    let mut out = Vec::with_capacity(rows.len());
    let mut assoc: Vec<(Option<ItemId>, Option<ItemId>, ItemId)> =
        Vec::with_capacity(if S::ENABLED { rows.len() } else { 0 });
    for row in rows {
        fault::check(op, row.id)?;
        let id = ids.next();
        out.push(Row {
            id,
            item: row.item.clone(),
        });
        if S::ENABLED {
            if is_left {
                assoc.push((Some(row.id), None, id));
            } else {
                assoc.push((None, Some(row.id), id));
            }
        }
    }
    Ok(TaskOut::Binary { rows: out, assoc })
}

/// Hash-partitions a morsel's rows into `parts` buckets by grouping key.
/// Bucket hashes are computed column-at-a-time over the morsel's key
/// columns without cloning a single key value; a row lands in bucket
/// `hash_one(&key_values) % parts`.
fn shuffle_morsel(keys: &crate::vector::ColKeys, parts: usize, rows: &[Row]) -> Vec<Vec<Row>> {
    let mut buckets: Vec<Vec<Row>> = (0..parts).map(|_| Vec::new()).collect();
    for (row, b) in rows.iter().zip(keys.shuffle_buckets(rows, parts)) {
        buckets[b].push(row.clone());
    }
    buckets
}

fn agg_bucket<S: ProvenanceSink>(
    kernel: &GroupKernel,
    bucket: usize,
    rows: &[Row],
) -> Result<TaskOut> {
    for row in rows {
        fault::check(kernel.op, row.id)?;
    }
    let mut ids = IdGen::new(kernel.op, bucket);
    // First-seen-ordered grouping within the bucket. The map holds an
    // index into `grouped`, so each distinct key is cloned exactly once
    // (on first sight) instead of once per probing row.
    let mut index: FxHashMap<Vec<Value>, usize> = FxHashMap::default();
    let mut grouped: Vec<(Vec<Value>, Vec<&Row>)> = Vec::new();
    for row in rows {
        let key: Vec<Value> = kernel
            .keys
            .iter()
            .map(|k| key_value(&row.item, &k.path))
            .collect();
        match index.get(&key) {
            Some(&slot) => grouped[slot].1.push(row),
            None => {
                index.insert(key.clone(), grouped.len());
                grouped.push((key, vec![row]));
            }
        }
    }
    let mut out = Vec::with_capacity(grouped.len());
    let mut assoc: Vec<(Vec<ItemId>, ItemId)> =
        Vec::with_capacity(if S::ENABLED { grouped.len() } else { 0 });
    for (key, members) in grouped {
        let mut item = DataItem::new();
        for (label, kv) in kernel.key_labels.iter().zip(&key) {
            item.push(label.clone(), kv.clone());
        }
        for (agg, label) in kernel.aggs.iter().zip(&kernel.agg_labels) {
            item.push(label.clone(), eval_agg(agg, &members));
        }
        let id = ids.next();
        if S::ENABLED {
            assoc.push((members.iter().map(|r| r.id).collect(), id));
        }
        out.push(KeyedRow { key, id, item });
    }
    Ok(TaskOut::Agg { rows: out, assoc })
}

/// A produced group row together with its grouping key (used for the
/// canonical output ordering).
pub(crate) struct KeyedRow {
    key: Vec<Value>,
    id: ItemId,
    item: DataItem,
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

type TaskResult = Result<TaskOut>;
type JobFn = Box<dyn FnOnce() -> TaskResult + Send + 'static>;
/// A reusable morsel kernel: `(output partition, start ordinal within the
/// partition, rows)`. Shared by resident and spilled inputs — the planner
/// wraps it per morsel or per spilled block.
type RowKernel = dyn Fn(usize, u64, &[Row]) -> TaskResult + Send + Sync;
/// `(unit, task, result, busy_ns)` — `busy_ns` is 0 on inactive runs.
type Msg = (usize, usize, TaskResult, u64);
/// `(output partition, input rows, job)` — the row count feeds the morsel
/// statistics without re-deriving it from the task result.
type PlannedJob = (usize, usize, JobFn);

#[derive(Clone, Copy, Debug)]
enum Phase {
    Idle,
    Single,
    Build,
    Probe,
    Shuffle,
    Aggregate,
}

/// Per-unit state carried across phases.
struct UnitState {
    remaining_deps: usize,
    phase: Phase,
    /// Output partition index per task, in task order (morsels of one
    /// partition are consecutive and row-ordered).
    task_pidx: Vec<usize>,
    results: Vec<Option<TaskResult>>,
    pending: usize,
    /// Number of output partitions the stitcher must produce.
    out_parts: usize,
    /// Per-task busy nanoseconds (empty on inactive runs).
    durs: Vec<u64>,
    /// Run-clock time the current phase was dispatched (active runs only).
    phase_start_ns: u64,
    /// Run-clock time the unit's first phase was dispatched.
    unit_start_ns: u64,
    aux: Option<Aux>,
    /// Unit was abandoned because an upstream unit failed (or it failed
    /// itself); it counts as completed but produces no output.
    cancelled: bool,
}

enum Aux {
    Join {
        left: UnitOutput,
        left_paths: Arc<Vec<Path>>,
        right_paths: Arc<Vec<Path>>,
    },
    /// A join whose build side grace-hash partitioned to disk: the probe
    /// phase runs one pass per bucket, accumulating matches per left
    /// partition until the final merge assigns output ids.
    GraceJoin {
        left: UnitOutput,
        left_paths: Arc<Vec<Path>>,
        right_paths: Arc<Vec<Path>>,
        buckets: Vec<Arc<SpilledBucket>>,
        next_bucket: usize,
        /// Per left partition: matches accumulated across passes.
        acc: Vec<Vec<GraceMatch>>,
    },
    Group {
        kernel: Arc<GroupKernel>,
    },
}

struct Scheduler<'a, S: ProvenanceSink> {
    ops: &'a [Operator],
    ctx: &'a Context,
    sink: &'a S,
    config: ExecConfig,
    parts: usize,
    units: Vec<Unit>,
    states: Vec<UnitState>,
    outputs: Vec<Option<UnitOutput>>,
    op_counts: Vec<usize>,
    /// The program's sink operator: its output is what the run returns, so
    /// it is tracked but never spilled.
    sink_op: usize,
    /// Memory-budget accountant (inert when no budget is configured).
    tracker: MemoryTracker,
    /// Per-run spill directory (present only under a budget); removed with
    /// everything in it when the scheduler drops.
    spill_dir: Option<Arc<SpillDir>>,
    /// Tracked resident bytes per operator output (0 for spilled outputs).
    out_bytes: Vec<usize>,
    /// Consumer units not yet finalized, per operator output; an output is
    /// dropped (and its tracked bytes released) when this reaches 0.
    remaining_uses: Vec<usize>,
    /// Spill events per operator.
    op_spills: Vec<u64>,
    /// Bytes written to spill files per operator.
    op_spill_bytes: Vec<u64>,
    /// Spilled blocks/buckets read back per operator.
    op_reloads: Vec<u64>,
    pool: Option<Arc<WorkerPool>>,
    tx: Sender<Msg>,
    rx: Receiver<Msg>,
    ready: Vec<usize>,
    completed: usize,
    /// Per-run observability runtime (the shared inert singleton when both
    /// metrics and tracing are off — the hot path then only ever branches
    /// on `obs.active()`).
    obs: Arc<RunObs>,
    /// Morsels dispatched per operator (attributed to unit heads).
    op_morsels: Vec<u64>,
    /// Busy kernel nanoseconds per operator (metrics runs; unit heads).
    op_busy_ns: Vec<u64>,
    /// UDF panics caught per operator.
    op_panics: Vec<u64>,
    /// Morsel size distribution (always collected; pure counters).
    morsel_stats: MorselStats,
    /// Vectorized-kernel counters; `fallback_units` counts the chains
    /// that ran on the row kernel instead.
    col_stats: ColumnarStats,
    /// Jobs handed to the pool (vs run inline) this run.
    pool_jobs: u64,
    /// Peak queue depth sampled from the pool's lock-free gauges.
    pool_max_queue: u64,
    /// Peak active-worker count sampled from the pool's gauges.
    pool_max_active: u64,
    /// First failure in deterministic order, keyed by `(operator id, task
    /// index)`. Execution keeps draining (and even starting independent
    /// units) after a failure so the *minimum* key wins — the same error a
    /// serial, unfused execution stops at — then returns it once all
    /// in-flight work has settled and the workers are idle again.
    error: Option<((u32, usize), EngineError)>,
}

impl<'a, S: ProvenanceSink> Scheduler<'a, S> {
    fn new(
        program: &Program,
        ops: &'a [Operator],
        ctx: &'a Context,
        config: ExecConfig,
        sink: &'a S,
        obs_cfg: &ObsConfig,
    ) -> Self {
        let consumers = program.consumers();
        let units = plan_units(ops, program.sink(), &consumers, config.fusion);
        let states = units
            .iter()
            .map(|u| UnitState {
                remaining_deps: u.dep_count,
                phase: Phase::Idle,
                task_pidx: Vec::new(),
                results: Vec::new(),
                pending: 0,
                out_parts: 0,
                durs: Vec::new(),
                phase_start_ns: 0,
                unit_start_ns: 0,
                aux: None,
                cancelled: false,
            })
            .collect();
        let workers = config.effective_workers();
        let pool = (workers > 1).then(|| WorkerPool::with_workers(workers));
        let (tx, rx) = channel();
        let tracker = MemoryTracker::new(config.mem_budget_bytes);
        let spill_dir = tracker.enabled().then(|| Arc::new(SpillDir::for_run()));
        let mut remaining_uses = vec![0usize; ops.len()];
        for unit in &units {
            let mut inputs: Vec<usize> =
                ops[unit.start].inputs.iter().map(|&i| i as usize).collect();
            inputs.sort_unstable();
            inputs.dedup();
            for op in inputs {
                remaining_uses[op] += 1;
            }
        }
        Scheduler {
            ops,
            ctx,
            sink,
            config,
            parts: config.partitions.max(1),
            units,
            states,
            outputs: vec![None; ops.len()],
            op_counts: vec![0; ops.len()],
            sink_op: program.sink() as usize,
            tracker,
            spill_dir,
            out_bytes: vec![0; ops.len()],
            remaining_uses,
            op_spills: vec![0; ops.len()],
            op_spill_bytes: vec![0; ops.len()],
            op_reloads: vec![0; ops.len()],
            pool,
            tx,
            rx,
            ready: Vec::new(),
            completed: 0,
            obs: RunObs::new(obs_cfg, workers),
            op_morsels: vec![0; ops.len()],
            op_busy_ns: vec![0; ops.len()],
            op_panics: vec![0; ops.len()],
            morsel_stats: MorselStats::default(),
            col_stats: ColumnarStats::default(),
            pool_jobs: 0,
            pool_max_queue: 0,
            pool_max_active: 0,
            error: None,
        }
    }

    fn execute(&mut self) -> Result<()> {
        for u in 0..self.units.len() {
            if self.states[u].remaining_deps == 0 {
                self.ready.push(u);
            }
        }
        while self.completed < self.units.len() {
            while let Some(u) = self.ready.pop() {
                self.start_unit(u)?;
            }
            if self.completed == self.units.len() {
                break;
            }
            // Event-driven hand-off: as soon as a unit's last morsel lands,
            // its output is stitched and every newly-ready consumer is
            // scheduled — workers never wait on an operator barrier.
            let (u, t, res, dur) = self
                .rx
                .recv()
                .map_err(|_| EngineError::Internal("worker pool disconnected mid-run".into()))?;
            if self.obs.metrics() {
                // Lock-free gauge sample per completion: peak queue depth
                // and worker utilization without touching the job lock.
                if let Some(pool) = &self.pool {
                    self.pool_max_queue = self.pool_max_queue.max(pool.queue_depth());
                    self.pool_max_active = self.pool_max_active.max(pool.active_workers());
                }
            }
            let st = &mut self.states[u];
            if !st.durs.is_empty() {
                st.durs[t] = dur;
            }
            st.results[t] = Some(res);
            st.pending -= 1;
            if st.pending == 0 {
                self.phase_done(u)?;
            }
        }
        match self.error.take() {
            Some((_, err)) => Err(err),
            None => Ok(()),
        }
    }

    /// Records a unit failure candidate; the smallest `(op, task)` key
    /// wins. Two units never share an operator id, so the comparison
    /// orders failures exactly like a serial unfused execution would
    /// encounter them.
    fn record_error(&mut self, key: (u32, usize), err: EngineError) {
        if self.error.as_ref().is_none_or(|(k, _)| key < *k) {
            self.error = Some((key, err));
        }
    }

    fn input(&self, op: OpId) -> Result<UnitOutput> {
        self.outputs[op as usize].clone().ok_or_else(|| {
            EngineError::Internal(format!("operator #{op} input was never materialized"))
        })
    }

    /// The run's spill directory (only present under a memory budget).
    fn spill_dir(&self) -> Result<Arc<SpillDir>> {
        self.spill_dir
            .as_ref()
            .map(Arc::clone)
            .ok_or_else(|| EngineError::Internal("spill requested without a budget".into()))
    }

    fn start_unit(&mut self, u: usize) -> Result<()> {
        let ops = self.ops;
        let ctx = self.ctx;
        let (start, len) = (self.units[u].start, self.units[u].len);
        let head = &ops[start];
        match &head.kind {
            OpKind::Read { source } => {
                let items_src = ctx
                    .source(source)
                    .ok_or_else(|| EngineError::UnknownSource(source.clone()))?;
                let op = head.id;
                self.states[u].out_parts = checked_out_parts(head, self.parts)?;
                let total = items_src.len();
                let items: Arc<Vec<DataItem>> = Arc::new(items_src.to_vec());
                let morsel = self.config.morsel_len(total);
                let mut jobs: Vec<PlannedJob> = Vec::new();
                for (p, range) in read_ranges(total, self.parts).into_iter().enumerate() {
                    for mr in split_range(range, morsel) {
                        let items = Arc::clone(&items);
                        let rows = mr.len();
                        jobs.push((
                            p,
                            rows,
                            Box::new(move || Ok(read_morsel(op, p, &items[mr]))),
                        ));
                    }
                }
                self.dispatch(u, Phase::Single, jobs, total)
            }
            OpKind::Filter { .. } | OpKind::Select { .. } | OpKind::Map { .. } => {
                let chain_ops: Vec<OpId> = ops[start..start + len].iter().map(|o| o.id).collect();
                let stages = ops[start..start + len]
                    .iter()
                    .map(|o| owned_stage(&o.kind))
                    .collect::<Result<Vec<_>>>()?;
                let input = self.input(head.inputs[0])?;
                let total = input.total_rows();
                // The unit is vectorized unless its own plan rules that out
                // (a stage hosting user code, duplicate select labels): then
                // the whole unit runs on the row kernel.
                let kernel: Arc<RowKernel> =
                    match crate::vector::plan_columnar(chain_ops.clone(), &stages) {
                        Some(ck) => Arc::new(move |p, _start, rows: &[Row]| {
                            crate::vector::col_chain_morsel::<S>(&ck, p, rows)
                        }),
                        None => {
                            self.col_stats.fallback_units += 1;
                            let ck = ChainKernel {
                                ops: chain_ops,
                                stages,
                            };
                            Arc::new(move |p, _start, rows: &[Row]| chain_morsel::<S>(&ck, p, rows))
                        }
                    };
                let jobs = self.plan_row_jobs(&input, 0, total, kernel);
                self.states[u].out_parts = input.n_parts();
                self.dispatch(u, Phase::Single, jobs, total)
            }
            OpKind::Flatten { col, new_attr } => {
                let op = head.id;
                let col = Arc::new(col.clone());
                let attr = Label::new(new_attr);
                let input = self.input(head.inputs[0])?;
                let total = input.total_rows();
                let kernel: Arc<RowKernel> = Arc::new(move |p, _start, rows: &[Row]| {
                    flatten_morsel::<S>(op, p, &col, &attr, rows)
                });
                let jobs = self.plan_row_jobs(&input, 0, total, kernel);
                self.states[u].out_parts = input.n_parts();
                self.dispatch(u, Phase::Single, jobs, total)
            }
            OpKind::Join { keys } => {
                let op = head.id;
                let left = self.input(head.inputs[0])?;
                let right = self.input(head.inputs[1])?;
                let left_paths: Arc<Vec<Path>> =
                    Arc::new(keys.iter().map(|(l, _)| l.clone()).collect());
                let right_paths: Arc<Vec<Path>> =
                    Arc::new(keys.iter().map(|(_, r)| r.clone()).collect());
                let total = right.total_rows();
                // Grace-hash when the in-memory build table would not fit:
                // the build side already spilled, or another copy of its
                // tracked bytes would exceed the budget (the table clones
                // every keyed row).
                let grace = self.tracker.enabled()
                    && (matches!(right, UnitOutput::Spilled(_))
                        || self
                            .tracker
                            .would_exceed(self.out_bytes[head.inputs[1] as usize]));
                let job: JobFn = if grace {
                    if let UnitOutput::Spilled(s) = &right {
                        self.op_reloads[s.op as usize] +=
                            s.parts.iter().map(Vec::len).sum::<usize>() as u64;
                    }
                    let dir = self.spill_dir()?;
                    let right_paths = Arc::clone(&right_paths);
                    Box::new(move || grace_partition_build(op, &dir, &right, &right_paths))
                } else {
                    let right_paths = Arc::clone(&right_paths);
                    Box::new(move || {
                        let build = match &right {
                            UnitOutput::Mem(parts) => join_build(parts, &right_paths),
                            UnitOutput::Spilled(s) => {
                                let parts = s.load()?;
                                join_build(&parts, &right_paths)
                            }
                            UnitOutput::SpilledBuckets(_) => {
                                return Err(EngineError::Internal(
                                    "join build side spilled pre-bucketed".into(),
                                ))
                            }
                        };
                        Ok(TaskOut::Build(build))
                    })
                };
                self.states[u].aux = Some(Aux::Join {
                    left,
                    left_paths,
                    right_paths,
                });
                self.dispatch(u, Phase::Build, vec![(0, total, job)], total)
            }
            OpKind::Union => {
                let op = head.id;
                let left = self.input(head.inputs[0])?;
                let right = self.input(head.inputs[1])?;
                let offset = left.n_parts();
                self.states[u].out_parts = checked_out_parts(head, offset + right.n_parts())?;
                // Both sides share one morsel length derived from the
                // combined cardinality.
                let total = left.total_rows() + right.total_rows();
                let mut jobs: Vec<PlannedJob> = Vec::new();
                for (input, is_left, pidx_offset) in [(&left, true, 0), (&right, false, offset)] {
                    let kernel: Arc<RowKernel> = Arc::new(move |out_pidx, _start, rows: &[Row]| {
                        union_morsel::<S>(op, out_pidx, is_left, rows)
                    });
                    jobs.extend(self.plan_row_jobs(input, pidx_offset, total, kernel));
                }
                self.dispatch(u, Phase::Single, jobs, total)
            }
            OpKind::GroupAggregate { keys, aggs } => {
                let kernel = Arc::new(GroupKernel {
                    op: head.id,
                    key_labels: keys.iter().map(|k| Label::new(&k.name)).collect(),
                    agg_labels: aggs.iter().map(|a| Label::new(&a.output)).collect(),
                    keys: keys.clone(),
                    aggs: aggs.clone(),
                });
                let input = self.input(head.inputs[0])?;
                if let UnitOutput::SpilledBuckets(g) = &input {
                    // The input was spilled already partitioned by this
                    // aggregation's keys — skip the shuffle phase and feed
                    // each bucket straight to an aggregation job.
                    if g.for_op != head.id {
                        return Err(EngineError::Internal(format!(
                            "pre-bucketed spill for operator #{} read by operator #{}",
                            g.for_op, head.id
                        )));
                    }
                    let op = head.id;
                    let total = g.rows;
                    let mut jobs: Vec<PlannedJob> = Vec::new();
                    for (b, bucket) in g.buckets.iter().enumerate() {
                        if bucket.rows() == 0 {
                            continue; // empty buckets produce nothing
                        }
                        self.op_reloads[op as usize] += 1;
                        let kernel = Arc::clone(&kernel);
                        let bucket = Arc::clone(bucket);
                        let n_rows = bucket.rows();
                        jobs.push((
                            b,
                            n_rows,
                            Box::new(move || {
                                let rows = bucket.load()?;
                                agg_bucket::<S>(&kernel, b, &rows)
                            }),
                        ));
                    }
                    return self.dispatch(u, Phase::Aggregate, jobs, total);
                }
                let total = input.total_rows();
                let parts = self.parts;
                let ckeys = crate::vector::ColKeys::compile_group(keys);
                let shuffle: Arc<RowKernel> = Arc::new(move |_p, _start, rows: &[Row]| {
                    Ok(TaskOut::Shuffle(shuffle_morsel(&ckeys, parts, rows)))
                });
                let jobs = self.plan_row_jobs(&input, 0, total, shuffle);
                self.states[u].aux = Some(Aux::Group { kernel });
                self.dispatch(u, Phase::Shuffle, jobs, total)
            }
        }
    }

    /// Plans one job per morsel of every input partition, in
    /// partition-major order (the stitcher relies on this ordering).
    ///
    /// A resident input is sliced into morsels whose length derives from
    /// `morsel_total` — usually the input's own cardinality, so partitions
    /// fattened by an upstream fan-out yield proportionally more morsels
    /// (skew-aware re-morselization); union passes the combined two-sided
    /// total so both sides share one morsel length. A spilled input plans
    /// one job per on-disk block, which decodes the block worker-side and
    /// applies the same kernel — a spilled block simply *is* a morsel, and
    /// output is specified byte-identical at any morsel boundaries.
    fn plan_row_jobs(
        &mut self,
        input: &UnitOutput,
        out_pidx_offset: usize,
        morsel_total: usize,
        kernel: Arc<RowKernel>,
    ) -> Vec<PlannedJob> {
        let mut jobs: Vec<PlannedJob> = Vec::new();
        match input {
            UnitOutput::Mem(parts) => {
                let morsel = self.config.morsel_len(morsel_total);
                for p in 0..parts.len() {
                    for mr in split_range(0..parts[p].len(), morsel) {
                        let parts = Arc::clone(parts);
                        let kernel = Arc::clone(&kernel);
                        let rows = mr.len();
                        let out_p = out_pidx_offset + p;
                        let start = mr.start as u64;
                        jobs.push((
                            out_p,
                            rows,
                            Box::new(move || kernel(out_p, start, &parts[p][mr])),
                        ));
                    }
                }
            }
            UnitOutput::Spilled(s) => {
                self.op_reloads[s.op as usize] +=
                    s.parts.iter().map(Vec::len).sum::<usize>() as u64;
                for (p, blocks) in s.parts.iter().enumerate() {
                    let mut start = 0u64;
                    for &meta in blocks {
                        let s = Arc::clone(s);
                        let kernel = Arc::clone(&kernel);
                        let out_p = out_pidx_offset + p;
                        jobs.push((
                            out_p,
                            meta.rows,
                            Box::new(move || {
                                let rows = s.read_block(meta)?;
                                kernel(out_p, start, &rows)
                            }),
                        ));
                        start += meta.rows as u64;
                    }
                }
            }
            UnitOutput::SpilledBuckets(_) => {
                // set_output only pre-buckets an output whose sole consumer
                // is an aggregation, and the aggregation consumes buckets
                // directly without planning row jobs.
                unreachable!("pre-bucketed spill read by a non-aggregation consumer")
            }
        }
        jobs
    }

    /// Label for spans/metric attribution: the unit-head operator id, a
    /// static phase name, and the phase ordinal within the unit.
    fn phase_label(&self, u: usize, phase: Phase) -> (u32, &'static str, u8) {
        let head = &self.ops[self.units[u].start];
        match phase {
            Phase::Build => (head.id, "join.build", 0),
            Phase::Probe => (head.id, "join.probe", 1),
            Phase::Shuffle => (head.id, "aggregation.shuffle", 0),
            Phase::Aggregate => (head.id, "aggregation.agg", 1),
            Phase::Idle | Phase::Single => (head.id, head.kind.type_name(), 0),
        }
    }

    fn dispatch(
        &mut self,
        u: usize,
        phase: Phase,
        jobs: Vec<PlannedJob>,
        total_rows: usize,
    ) -> Result<()> {
        let inline = self.pool.is_none()
            || jobs.is_empty()
            || (total_rows < INLINE_ROWS && self.config.morsel_rows == 0);
        let active = self.obs.active();
        let (op, name, phase_ord) = self.phase_label(u, phase);
        // Structural counters are always on: plain u64 additions per morsel
        // *dispatch* (not per row), so even metrics-off reports carry morsel
        // counts and skew statistics.
        self.op_morsels[op as usize] += jobs.len() as u64;
        for (_, rows, _) in &jobs {
            self.morsel_stats.observe(*rows as u64);
        }
        {
            let st = &mut self.states[u];
            if matches!(st.phase, Phase::Idle) && active {
                st.unit_start_ns = self.obs.now_ns();
            }
            st.phase = phase;
            st.task_pidx = jobs.iter().map(|(p, _, _)| *p).collect();
            st.results = jobs.iter().map(|_| None).collect();
            st.pending = jobs.len();
            st.durs = if active {
                vec![0; jobs.len()]
            } else {
                Vec::new()
            };
            st.phase_start_ns = if active { self.obs.now_ns() } else { 0 };
        }
        if inline {
            // Same containment as the pool path: a panicking job becomes a
            // typed task failure instead of unwinding through the caller.
            let mut outs = Vec::with_capacity(jobs.len());
            let mut durs = Vec::new();
            for (t, (_, rows, job)) in jobs.into_iter().enumerate() {
                let start_ns = if active { self.obs.now_ns() } else { 0 };
                let out = catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|p| {
                    Err(EngineError::WorkerPanic {
                        payload: panic_message(&*p),
                    })
                });
                if active {
                    let dur = self.obs.now_ns().saturating_sub(start_ns);
                    self.obs.record_morsel(
                        name,
                        op,
                        phase_ord,
                        t as u32,
                        rows as u64,
                        start_ns,
                        dur,
                    );
                    durs.push(dur);
                }
                outs.push(out);
            }
            let st = &mut self.states[u];
            for (t, out) in outs.into_iter().enumerate() {
                st.results[t] = Some(out);
            }
            st.durs = durs;
            st.pending = 0;
            self.phase_done(u)
        } else {
            let Some(pool) = self.pool.as_ref() else {
                return Err(EngineError::Internal(
                    "pooled dispatch without a pool".into(),
                ));
            };
            self.pool_jobs += jobs.len() as u64;
            for (t, (_, rows, job)) in jobs.into_iter().enumerate() {
                let tx = self.tx.clone();
                // Guaranteed delivery: the pool catches the panic and still
                // invokes the delivery closure, so the scheduler's pending
                // count always drains — a panicking morsel can no longer
                // strand the run (or the pool) waiting on a result that
                // will never arrive.
                if active {
                    // Instrumented wrapper: timestamps around the kernel,
                    // shard counters / span recorded worker-side.
                    let obs = Arc::clone(&self.obs);
                    pool.submit_job(
                        move || {
                            let start_ns = obs.now_ns();
                            let out = job();
                            let dur = obs.now_ns().saturating_sub(start_ns);
                            obs.record_morsel(
                                name,
                                op,
                                phase_ord,
                                t as u32,
                                rows as u64,
                                start_ns,
                                dur,
                            );
                            (out, dur)
                        },
                        move |res| {
                            let (out, dur) = match res {
                                Ok((out, dur)) => (out, dur),
                                Err(p) => (
                                    Err(EngineError::WorkerPanic {
                                        payload: panic_message(&*p),
                                    }),
                                    0,
                                ),
                            };
                            let _ = tx.send((u, t, out, dur));
                        },
                    );
                } else {
                    pool.submit_job(job, move |res| {
                        let out = match res {
                            Ok(out) => out,
                            Err(p) => Err(EngineError::WorkerPanic {
                                payload: panic_message(&*p),
                            }),
                        };
                        let _ = tx.send((u, t, out, 0));
                    });
                }
            }
            Ok(())
        }
    }

    /// Derives the deterministic error of a failed unit, records it, and
    /// cancels the unit's downstream closure. Candidates are ordered by
    /// `(operator id, task index)`; task order is partition-major row
    /// order, so the winner is the first failure a serial unfused
    /// execution would hit.
    fn fail_unit(&mut self, u: usize) -> Result<()> {
        enum Cand<'x> {
            Hard(&'x EngineError),
            Chain(&'x ChainErr),
        }
        let start = self.units[u].start;
        let head_op = self.ops[start].id;
        let task_pidx = std::mem::take(&mut self.states[u].task_pidx);
        let results = std::mem::take(&mut self.states[u].results);
        // Telemetry: total up the UDF panics every morsel of the failing
        // phase contained, attributed per chain stage. (Successful units
        // never carry panics — any caught panic fails its unit.)
        for slot in results.iter() {
            if let Some(Ok(TaskOut::Chain { panics, .. })) = slot {
                for (s, &n) in panics.iter().enumerate() {
                    self.op_panics[self.ops[start + s].id as usize] += n as u64;
                }
            }
        }
        let mut best: Option<((u32, usize), Cand)> = None;
        for (t, slot) in results.iter().enumerate() {
            let (key, cand) = match slot {
                // A hard task failure (worker panic, injected fault, …);
                // panics carry no operator, attribute them to the unit
                // head (faults only panic at unit heads — see `fault`).
                Some(Err(e)) => ((e.op().unwrap_or(head_op), t), Cand::Hard(e)),
                // A row failure embedded in a chain morsel.
                Some(Ok(TaskOut::Chain { err: Some(ce), .. })) => {
                    ((self.ops[start + ce.stage].id, t), Cand::Chain(ce))
                }
                _ => continue,
            };
            if best.as_ref().is_none_or(|(k, _)| key < *k) {
                best = Some((key, cand));
            }
        }
        let Some(((op_key, t), cand)) = best else {
            return Err(EngineError::Internal(
                "unit marked failed without a failing task".into(),
            ));
        };
        let err = match cand {
            Cand::Hard(e) => e.clone(),
            Cand::Chain(ce) => {
                let mut item = ce.input_local;
                if ce.stage > 0 {
                    // Morsel-local input id: add the count of stage-s-1
                    // outputs produced by earlier morsels of the same
                    // partition (exact even in failed siblings — failures
                    // at later stages don't disturb earlier-stage counts,
                    // and a sibling failing *earlier* would have won the
                    // candidate selection above instead).
                    let p = task_pidx[t];
                    let mut offset = 0u64;
                    for (t2, slot) in results.iter().enumerate().take(t) {
                        if task_pidx[t2] != p {
                            continue;
                        }
                        match slot {
                            Some(Ok(TaskOut::Chain { counts, .. })) => {
                                offset += counts[ce.stage - 1] as u64;
                            }
                            _ => {
                                return Err(EngineError::Internal(
                                    "chain error offset needs sibling morsel counts".into(),
                                ))
                            }
                        }
                    }
                    item += offset;
                }
                EngineError::RowError {
                    op: op_key,
                    item,
                    message: ce.message.clone(),
                }
            }
        };
        self.record_error((op_key, t), err);
        self.states[u].cancelled = true;
        self.completed += 1;
        self.record_unit_span(u);
        self.cancel_consumers(u);
        Ok(())
    }

    /// Marks every transitive consumer of `u` as cancelled-complete: its
    /// input will never materialize, so it must not be waited for (that
    /// was the hang) nor started (its `remaining_deps` never reaches 0).
    fn cancel_consumers(&mut self, u: usize) {
        let mut stack = self.units[u].consumers.clone();
        while let Some(c) = stack.pop() {
            if self.states[c].cancelled {
                continue;
            }
            self.states[c].cancelled = true;
            self.completed += 1;
            stack.extend(self.units[c].consumers.iter().copied());
        }
    }

    /// Folds the finished phase's telemetry into the per-operator
    /// accumulators: busy time attributed to the unit-head operator (fused
    /// chains report under their head — documented in the report schema)
    /// and a phase span covering dispatch → completion.
    fn harvest_phase(&mut self, u: usize) {
        if !self.obs.active() {
            return;
        }
        let (op, name, phase_ord) = self.phase_label(u, self.states[u].phase);
        let durs = std::mem::take(&mut self.states[u].durs);
        self.op_busy_ns[op as usize] += durs.iter().sum::<u64>();
        if self.obs.tracing() {
            let start_ns = self.states[u].phase_start_ns;
            let dur_ns = self.obs.now_ns().saturating_sub(start_ns);
            self.obs.record_span(SpanEvent {
                kind: SpanKind::Phase,
                name,
                op,
                phase: phase_ord,
                task: 0,
                worker: 0,
                start_ns,
                dur_ns,
                rows: 0,
            });
        }
    }

    /// Records the unit-level span once the unit settles (finalized or
    /// failed).
    fn record_unit_span(&mut self, u: usize) {
        if !self.obs.tracing() {
            return;
        }
        let head = &self.ops[self.units[u].start];
        let start_ns = self.states[u].unit_start_ns;
        let dur_ns = self.obs.now_ns().saturating_sub(start_ns);
        self.obs.record_span(SpanEvent {
            kind: SpanKind::Unit,
            name: head.kind.type_name(),
            op: head.id,
            phase: 0,
            task: 0,
            worker: 0,
            start_ns,
            dur_ns,
            rows: 0,
        });
    }

    fn phase_done(&mut self, u: usize) -> Result<()> {
        self.harvest_phase(u);
        let failed = self.states[u].results.iter().any(|r| {
            matches!(
                r,
                Some(Err(_)) | Some(Ok(TaskOut::Chain { err: Some(_), .. }))
            )
        });
        if failed {
            return self.fail_unit(u);
        }
        match self.states[u].phase {
            Phase::Idle => Err(EngineError::Internal("phase_done on an idle unit".into())),
            Phase::Single | Phase::Aggregate => self.finalize_unit(u),
            Phase::Probe => {
                if matches!(self.states[u].aux, Some(Aux::GraceJoin { .. })) {
                    self.grace_pass_done(u)
                } else {
                    self.finalize_unit(u)
                }
            }
            Phase::Build => {
                let out = self.states[u].results.first_mut().and_then(Option::take);
                match out {
                    Some(Ok(TaskOut::Build(map))) => {
                        let build = Arc::new(map);
                        let Some(Aux::Join {
                            left, left_paths, ..
                        }) = self.states[u].aux.take()
                        else {
                            return Err(EngineError::Internal(
                                "join unit lost its probe-side state".into(),
                            ));
                        };
                        let op = self.ops[self.units[u].start].id;
                        let total = left.total_rows();
                        let ckeys = crate::vector::ColKeys::compile_paths(&left_paths);
                        let kernel: Arc<RowKernel> = Arc::new(move |p, _start, rows: &[Row]| {
                            join_probe::<S>(op, p, &build, &ckeys, rows)
                        });
                        let jobs = self.plan_row_jobs(&left, 0, total, kernel);
                        self.states[u].out_parts = left.n_parts();
                        self.dispatch(u, Phase::Probe, jobs, total)
                    }
                    Some(Ok(TaskOut::GraceBuild(buckets))) => {
                        let Some(Aux::Join {
                            left,
                            left_paths,
                            right_paths,
                        }) = self.states[u].aux.take()
                        else {
                            return Err(EngineError::Internal(
                                "join unit lost its probe-side state".into(),
                            ));
                        };
                        let op = self.ops[self.units[u].start].id;
                        self.op_spills[op as usize] += 1;
                        self.op_spill_bytes[op as usize] +=
                            buckets.iter().map(|b| b.bytes()).sum::<u64>();
                        let n_parts = left.n_parts();
                        self.states[u].aux = Some(Aux::GraceJoin {
                            left,
                            left_paths,
                            right_paths,
                            buckets,
                            next_bucket: 0,
                            acc: (0..n_parts).map(|_| Vec::new()).collect(),
                        });
                        self.start_grace_pass(u)
                    }
                    _ => Err(EngineError::Internal(
                        "build phase did not return a build table".into(),
                    )),
                }
            }
            Phase::Shuffle => {
                let parts = self.parts;
                let results = std::mem::take(&mut self.states[u].results);
                let Some(Aux::Group { kernel }) = self.states[u].aux.take() else {
                    return Err(EngineError::Internal(
                        "group unit lost its aggregation state".into(),
                    ));
                };
                // Under a budget, the merged group table would double the
                // shuffle output's footprint; stream the morsel buckets to
                // per-bucket spill files instead and let each aggregation
                // job reload its own bucket (bounding residency to one
                // bucket per in-flight job).
                let spill = self.tracker.enabled() && {
                    let est: usize = results
                        .iter()
                        .filter_map(|slot| match slot {
                            Some(Ok(TaskOut::Shuffle(bs))) => {
                                Some(bs.iter().map(|b| spill::rows_bytes(b)).sum::<usize>())
                            }
                            _ => None,
                        })
                        .sum();
                    self.tracker.would_exceed(est)
                };
                if spill {
                    let op = kernel.op;
                    let dir = self.spill_dir()?;
                    let mut writers = Vec::with_capacity(parts);
                    for b in 0..parts {
                        let path = dir
                            .file(&format!("op{op}.agg{b}"))
                            .map_err(|e| spill::spill_io(op, "create spill file", &e))?;
                        writers.push(BucketWriter::create(op, path)?);
                    }
                    // Stream per-morsel buckets to disk in task (= global
                    // row) order — the same order the in-memory merge
                    // appends them, so reloaded buckets are identical.
                    for slot in results {
                        match slot {
                            Some(Ok(TaskOut::Shuffle(bs))) => {
                                for (b, rows) in bs.iter().enumerate() {
                                    writers[b].append(rows)?;
                                }
                            }
                            _ => {
                                return Err(EngineError::Internal(
                                    "shuffle phase did not return buckets".into(),
                                ))
                            }
                        }
                    }
                    let mut buckets = Vec::with_capacity(parts);
                    for w in writers {
                        buckets.push(w.finish()?);
                    }
                    self.op_spills[op as usize] += 1;
                    self.op_spill_bytes[op as usize] +=
                        buckets.iter().map(|b| b.bytes()).sum::<u64>();
                    let total: usize = buckets.iter().map(|b| b.rows()).sum();
                    let mut jobs: Vec<PlannedJob> = Vec::new();
                    for (b, bucket) in buckets.into_iter().enumerate() {
                        if bucket.rows() == 0 {
                            continue; // empty buckets produce nothing
                        }
                        self.op_reloads[op as usize] += 1;
                        let kernel = Arc::clone(&kernel);
                        let n_rows = bucket.rows();
                        jobs.push((
                            b,
                            n_rows,
                            Box::new(move || {
                                let rows = bucket.load()?;
                                agg_bucket::<S>(&kernel, b, &rows)
                            }),
                        ));
                    }
                    return self.dispatch(u, Phase::Aggregate, jobs, total);
                }
                // Merge per-morsel buckets in task (= global row) order, so
                // each bucket sees rows exactly as a sequential shuffle
                // would.
                let mut buckets: Vec<Vec<Row>> = (0..parts).map(|_| Vec::new()).collect();
                for slot in results {
                    match slot {
                        Some(Ok(TaskOut::Shuffle(mut bs))) => {
                            for (b, rows) in bs.iter_mut().enumerate() {
                                buckets[b].append(rows);
                            }
                        }
                        _ => {
                            return Err(EngineError::Internal(
                                "shuffle phase did not return buckets".into(),
                            ))
                        }
                    }
                }
                let total: usize = buckets.iter().map(Vec::len).sum();
                let mut jobs: Vec<PlannedJob> = Vec::new();
                for (b, rows) in buckets.into_iter().enumerate() {
                    if rows.is_empty() {
                        continue; // empty buckets produce nothing
                    }
                    let kernel = Arc::clone(&kernel);
                    let n_rows = rows.len();
                    jobs.push((
                        b,
                        n_rows,
                        Box::new(move || agg_bucket::<S>(&kernel, b, &rows)),
                    ));
                }
                self.dispatch(u, Phase::Aggregate, jobs, total)
            }
        }
    }

    /// Dispatches the next grace-join probe pass: reloads the pass's bucket
    /// into an in-memory hash table and probes the whole left input against
    /// it (same task layout every pass). Empty buckets after the first are
    /// skipped outright — only pass 0 runs the per-row fault hook, so it
    /// must run even over an empty table.
    fn start_grace_pass(&mut self, u: usize) -> Result<()> {
        let op = self.ops[self.units[u].start].id;
        let (b, bucket, left, left_paths, right_paths) = {
            let Some(Aux::GraceJoin {
                left,
                left_paths,
                right_paths,
                buckets,
                next_bucket,
                ..
            }) = &mut self.states[u].aux
            else {
                return Err(EngineError::Internal(
                    "grace pass without grace-join state".into(),
                ));
            };
            while *next_bucket > 0
                && *next_bucket < buckets.len()
                && buckets[*next_bucket].rows() == 0
            {
                *next_bucket += 1;
            }
            if *next_bucket >= buckets.len() {
                return self.finalize_grace_join(u);
            }
            (
                *next_bucket,
                Arc::clone(&buckets[*next_bucket]),
                left.clone(),
                Arc::clone(left_paths),
                Arc::clone(right_paths),
            )
        };
        let build = if bucket.rows() == 0 {
            JoinBuild::default()
        } else {
            self.op_reloads[op as usize] += 1;
            grace_bucket_build(bucket.load()?, &right_paths)
        };
        let ckeys = crate::vector::ColKeys::compile_paths(&left_paths);
        let kernel: Arc<RowKernel> = Arc::new(move |_p, start, rows: &[Row]| {
            grace_probe_morsel(op, start, b, &build, &ckeys, rows)
        });
        let total = left.total_rows();
        let jobs = self.plan_row_jobs(&left, 0, total, kernel);
        self.states[u].out_parts = left.n_parts();
        self.dispatch(u, Phase::Probe, jobs, total)
    }

    /// Collects one finished grace probe pass into the per-partition match
    /// accumulators, then starts the next pass (or the final merge).
    fn grace_pass_done(&mut self, u: usize) -> Result<()> {
        let task_pidx = std::mem::take(&mut self.states[u].task_pidx);
        let mut results = std::mem::take(&mut self.states[u].results);
        let Some(Aux::GraceJoin {
            next_bucket, acc, ..
        }) = &mut self.states[u].aux
        else {
            return Err(EngineError::Internal(
                "grace pass without grace-join state".into(),
            ));
        };
        for (t, &p) in task_pidx.iter().enumerate() {
            let Some(Ok(TaskOut::GraceProbe(ms))) = results[t].take() else {
                return Err(EngineError::Internal(
                    "grace probe task shape mismatch".into(),
                ));
            };
            acc[p].extend(ms);
        }
        *next_bucket += 1;
        self.start_grace_pass(u)
    }

    /// Final merge of a grace-hash join: per left partition, order the
    /// accumulated matches by left ordinal (each left key probes exactly
    /// one bucket, so this is the left row order an in-memory probe
    /// visits), assign output ids sequentially, and emit the association
    /// batches — byte-identical to the in-memory probe's stitched output.
    fn finalize_grace_join(&mut self, u: usize) -> Result<()> {
        let op = self.ops[self.units[u].start].id;
        let Some(Aux::GraceJoin { mut acc, .. }) = self.states[u].aux.take() else {
            return Err(EngineError::Internal(
                "grace merge without grace-join state".into(),
            ));
        };
        let out_parts = acc.len();
        let mut parts: Partitions = (0..out_parts).map(|_| Vec::new()).collect();
        let mut assoc_parts: Vec<BinaryAssoc> = (0..out_parts).map(|_| Vec::new()).collect();
        for (p, matches) in acc.iter_mut().enumerate() {
            matches.sort_by_key(|m| m.ordinal);
            let mut ids = IdGen::new(op, p);
            for m in matches.drain(..) {
                for (rid, item) in m.matches {
                    let id = ids.next();
                    parts[p].push(Row { id, item });
                    if S::ENABLED {
                        assoc_parts[p].push((Some(m.left_id), Some(rid), id));
                    }
                }
            }
        }
        if S::ENABLED {
            for assoc in &assoc_parts {
                if !assoc.is_empty() {
                    self.sink.binary_batch(op, assoc);
                }
            }
        }
        self.set_output(op, parts)?;
        self.unit_finished(u)
    }

    /// Stitches the completed unit's morsel results into its output
    /// partitions — adding per-partition sequence offsets to the
    /// partition-local identifiers — and emits provenance batches in the
    /// same deterministic order as a sequential execution.
    fn finalize_unit(&mut self, u: usize) -> Result<()> {
        let ops = self.ops;
        let (start, len) = (self.units[u].start, self.units[u].len);
        let out_parts = self.states[u].out_parts;
        let task_pidx = std::mem::take(&mut self.states[u].task_pidx);
        let mut results = std::mem::take(&mut self.states[u].results);

        match &ops[start].kind {
            OpKind::Read { .. } => {
                let op = ops[start].id;
                let mut parts: Partitions = (0..out_parts).map(|_| Vec::new()).collect();
                let mut offsets = vec![0u64; out_parts];
                for (t, &p) in task_pidx.iter().enumerate() {
                    let Some(Ok(TaskOut::Read { mut rows })) = results[t].take() else {
                        return Err(EngineError::Internal("read task shape mismatch".into()));
                    };
                    for r in &mut rows {
                        r.id += offsets[p];
                    }
                    offsets[p] += rows.len() as u64;
                    parts[p].append(&mut rows);
                }
                if S::ENABLED {
                    for part in &parts {
                        if !part.is_empty() {
                            let ids: Vec<ItemId> = part.iter().map(|r| r.id).collect();
                            self.sink.read_batch(op, &ids);
                        }
                    }
                }
                self.set_output(op, parts)?;
            }
            OpKind::Filter { .. } | OpKind::Select { .. } | OpKind::Map { .. } => {
                self.finalize_chain(start, len, out_parts, &task_pidx, &mut results)?;
            }
            OpKind::Flatten { .. } => {
                let op = ops[start].id;
                let mut parts: Partitions = (0..out_parts).map(|_| Vec::new()).collect();
                let mut assoc_parts: Vec<Vec<(ItemId, u32, ItemId)>> =
                    (0..out_parts).map(|_| Vec::new()).collect();
                let mut offsets = vec![0u64; out_parts];
                for (t, &p) in task_pidx.iter().enumerate() {
                    let Some(Ok(TaskOut::Flatten {
                        mut rows,
                        mut assoc,
                    })) = results[t].take()
                    else {
                        return Err(EngineError::Internal("flatten task shape mismatch".into()));
                    };
                    let off = offsets[p];
                    for r in &mut rows {
                        r.id += off;
                    }
                    for entry in assoc.iter_mut() {
                        entry.2 += off;
                    }
                    offsets[p] += rows.len() as u64;
                    parts[p].append(&mut rows);
                    assoc_parts[p].append(&mut assoc);
                }
                if S::ENABLED {
                    for assoc in &assoc_parts {
                        if !assoc.is_empty() {
                            self.sink.flatten_batch(op, assoc);
                        }
                    }
                }
                self.set_output(op, parts)?;
            }
            OpKind::Join { .. } | OpKind::Union => {
                let op = ops[start].id;
                let mut parts: Partitions = (0..out_parts).map(|_| Vec::new()).collect();
                let mut assoc_parts: Vec<BinaryAssoc> =
                    (0..out_parts).map(|_| Vec::new()).collect();
                let mut offsets = vec![0u64; out_parts];
                for (t, &p) in task_pidx.iter().enumerate() {
                    let Some(Ok(TaskOut::Binary {
                        mut rows,
                        mut assoc,
                    })) = results[t].take()
                    else {
                        return Err(EngineError::Internal("binary task shape mismatch".into()));
                    };
                    let off = offsets[p];
                    for r in &mut rows {
                        r.id += off;
                    }
                    for entry in assoc.iter_mut() {
                        entry.2 += off;
                    }
                    offsets[p] += rows.len() as u64;
                    parts[p].append(&mut rows);
                    assoc_parts[p].append(&mut assoc);
                }
                if S::ENABLED {
                    for assoc in &assoc_parts {
                        if !assoc.is_empty() {
                            self.sink.binary_batch(op, assoc);
                        }
                    }
                }
                self.set_output(op, parts)?;
            }
            OpKind::GroupAggregate { .. } => {
                let op = ops[start].id;
                let mut keyed: Vec<KeyedRow> = Vec::new();
                for slot in results.iter_mut() {
                    let Some(Ok(TaskOut::Agg { rows, assoc })) = slot.take() else {
                        return Err(EngineError::Internal(
                            "aggregate task shape mismatch".into(),
                        ));
                    };
                    // One task per bucket, so bucket-local ids are already
                    // final; emission follows bucket order.
                    if S::ENABLED && !assoc.is_empty() {
                        self.sink.agg_batch(op, assoc);
                    }
                    keyed.extend(rows);
                }
                // Bucket placement depends on the partition count, so impose
                // a canonical global order: sort all groups by key. This
                // makes program output identical across partition
                // configurations.
                keyed.sort_by(|a, b| a.key.cmp(&b.key));
                let chunk = keyed.len().div_ceil(self.parts).max(1);
                let mut partitions: Partitions = Vec::with_capacity(self.parts);
                let mut current = Vec::with_capacity(chunk.min(keyed.len()));
                for k in keyed {
                    current.push(Row {
                        id: k.id,
                        item: k.item,
                    });
                    if current.len() == chunk {
                        partitions.push(std::mem::replace(&mut current, Vec::with_capacity(chunk)));
                    }
                }
                if !current.is_empty() {
                    partitions.push(current);
                }
                if partitions.is_empty() {
                    partitions.push(Vec::new());
                }
                self.set_output(op, partitions)?;
            }
        }

        self.unit_finished(u)
    }

    /// Stitch for a fused filter/select/map chain: re-bases each morsel's
    /// partition-local ids by the per-stage running offsets and emits the
    /// per-stage associations stage-major, partition-ordered — the batch
    /// sequence an unfused execution reports per operator. Every morsel
    /// reports a stage as id runs; re-basing keeps them runs, and runs of
    /// adjacent morsels of the same partition coalesce, so a whole
    /// partition's select stage usually reaches the sink as one run.
    fn finalize_chain(
        &mut self,
        start: usize,
        len: usize,
        out_parts: usize,
        task_pidx: &[usize],
        results: &mut [Option<TaskResult>],
    ) -> Result<()> {
        let ops = self.ops;
        let n = len;
        let chain_ids: Vec<OpId> = ops[start..start + len].iter().map(|o| o.id).collect();
        let mut parts: Partitions = (0..out_parts).map(|_| Vec::new()).collect();
        let mut acc: Vec<Vec<UnaryRuns>> = (0..out_parts)
            .map(|_| (0..n).map(|_| UnaryRuns::new()).collect())
            .collect();
        let mut offsets: Vec<Vec<u64>> = vec![vec![0u64; n]; out_parts];
        let mut totals = vec![0usize; n];
        for (t, &p) in task_pidx.iter().enumerate() {
            let (mut rows, stages, counts) = match results[t].take() {
                Some(Ok(TaskOut::ColChain {
                    rows,
                    stages,
                    counts,
                    rows_in,
                    batches,
                    filter_in,
                    filter_kept,
                })) => {
                    self.col_stats.batches += batches as u64;
                    self.col_stats.batch_rows.observe(rows_in as u64);
                    self.col_stats.filter_in += filter_in;
                    self.col_stats.filter_kept += filter_kept;
                    (rows, stages, counts)
                }
                // A unit on the row kernel; failed morsels never get here.
                Some(Ok(TaskOut::Chain {
                    rows,
                    assocs,
                    counts,
                    ..
                })) => {
                    self.col_stats.id_pairs += assocs.iter().map(|a| a.len() as u64).sum::<u64>();
                    (rows, assocs, counts)
                }
                _ => return Err(EngineError::Internal("chain task shape mismatch".into())),
            };
            let off = &mut offsets[p];
            if S::ENABLED {
                for (s, mut stage) in stages.into_iter().enumerate() {
                    let d_in = if s > 0 { off[s - 1] } else { 0 };
                    stage.rebase(d_in, off[s]);
                    acc[p][s].append(&stage);
                }
            }
            let last = off[n - 1];
            for r in &mut rows {
                r.id += last;
            }
            for s in 0..n {
                totals[s] += counts[s];
                off[s] += counts[s] as u64;
            }
            parts[p].append(&mut rows);
        }
        if S::ENABLED {
            // Stage-major, partition-ordered emission.
            for (s, &op) in chain_ids.iter().enumerate() {
                for part in &acc {
                    if !part[s].is_empty() {
                        self.col_stats.id_ranges += part[s].run_count() as u64;
                        self.sink.unary_runs(op, &part[s]);
                    }
                }
            }
        }
        for (s, &op) in chain_ids.iter().enumerate() {
            self.op_counts[op as usize] = totals[s];
            if s + 1 < n {
                // Fused-away intermediate: nothing consumes its rows.
                self.outputs[op as usize] = Some(UnitOutput::Mem(Arc::new(Vec::new())));
            }
        }
        self.set_output(chain_ids[n - 1], parts)?;
        Ok(())
    }

    /// Publishes a unit's stitched output, spilling it to disk when the
    /// memory budget says the run cannot afford to keep it resident. The
    /// sink operator's output is exempt — it is about to be handed back to
    /// the caller anyway. Spilled outputs re-enter downstream units one
    /// block at a time via [`Scheduler::plan_row_jobs`], preserving row
    /// order exactly (a block is just a morsel that lives on disk).
    fn set_output(&mut self, op: OpId, parts: Partitions) -> Result<()> {
        let total: usize = parts.iter().map(Vec::len).sum();
        self.op_counts[op as usize] = total;
        let out = if !self.tracker.enabled() {
            UnitOutput::Mem(Arc::new(parts))
        } else {
            // A read's rows alias the `Context` source (items are shared
            // `Arc`s the caller keeps alive for the whole run), so spilling
            // them cannot release the underlying data — account the
            // per-row shells only, and deep bytes everywhere else.
            let bytes = if matches!(self.ops[op as usize].kind, OpKind::Read { .. }) {
                parts.iter().map(Vec::len).sum::<usize>() * spill::ROW_SHELL_BYTES
            } else {
                spill::parts_bytes(&parts)
            };
            if op as usize != self.sink_op && self.tracker.would_exceed(bytes) {
                // When the rows are headed for exactly one aggregation,
                // spill them through its shuffle hash instead of as plain
                // blocks — the aggregation then loads buckets directly,
                // saving a full decode + re-encode of the output.
                if let Some(agg) = self.group_shuffle_consumer(op) {
                    let spilled = self.spill_group_partitioned(op, agg, &parts, total)?;
                    self.outputs[op as usize] = Some(UnitOutput::SpilledBuckets(Arc::new(spilled)));
                    return Ok(());
                }
                let dir = self.spill_dir()?;
                let path = dir
                    .file(&format!("op{op}.out"))
                    .map_err(|e| spill::spill_io(op, "create spill file", &e))?;
                let spilled = SpilledRows::write(op, path, &parts, self.config.morsel_len(total))?;
                self.op_spills[op as usize] += 1;
                self.op_spill_bytes[op as usize] += spilled.bytes;
                UnitOutput::Spilled(Arc::new(spilled))
            } else {
                self.tracker.add(bytes);
                self.out_bytes[op as usize] = bytes;
                UnitOutput::Mem(Arc::new(parts))
            }
        };
        self.outputs[op as usize] = Some(out);
        Ok(())
    }

    /// The aggregation that is the *sole* consumer of `op`'s output, if
    /// there is one — the precondition for spilling that output
    /// pre-partitioned by the aggregation's grouping keys.
    fn group_shuffle_consumer(&self, op: OpId) -> Option<OpId> {
        let mut found: Option<OpId> = None;
        for unit in &self.units {
            let head = &self.ops[unit.start];
            let uses = head.inputs.iter().filter(|&&i| i == op).count();
            if uses == 0 {
                continue;
            }
            if uses > 1 || found.is_some() || !matches!(head.kind, OpKind::GroupAggregate { .. }) {
                return None;
            }
            found = Some(head.id);
        }
        found
    }

    /// Spills `parts` partitioned by the consuming aggregation `agg`'s
    /// grouping keys: one bucket file per scheduler partition, rows
    /// appended in global (partition-major) row order — exactly the
    /// sequence the shuffle phase's task-order merge would feed each
    /// bucket, so the aggregation's per-bucket input is identical. The
    /// spill is charged to `agg` (it is the aggregation's shuffle,
    /// performed at spill time), which also keeps injected spill faults
    /// firing under `agg`'s operator id.
    fn spill_group_partitioned(
        &mut self,
        op: OpId,
        agg: OpId,
        parts: &[Vec<Row>],
        total: usize,
    ) -> Result<GroupSpill> {
        let OpKind::GroupAggregate { keys, .. } = &self.ops[agg as usize].kind else {
            return Err(EngineError::Internal(
                "group-partitioned spill for a non-aggregation consumer".into(),
            ));
        };
        let ckeys = crate::vector::ColKeys::compile_group(keys);
        let dir = self.spill_dir()?;
        let n = self.parts;
        let mut writers = Vec::with_capacity(n);
        for b in 0..n {
            let path = dir
                .file(&format!("op{op}.pre{b}"))
                .map_err(|e| spill::spill_io(agg, "create spill file", &e))?;
            writers.push(BucketWriter::create(agg, path)?);
        }
        // Morsel-sized chunks bound transient memory; chunk boundaries
        // only shape on-disk blocks, never the row sequence per bucket.
        let chunk = self.config.morsel_len(total).max(1);
        for rows in parts {
            for c in rows.chunks(chunk) {
                for (b, bucket) in shuffle_morsel(&ckeys, n, c).iter().enumerate() {
                    writers[b].append(bucket)?;
                }
            }
        }
        let mut buckets = Vec::with_capacity(n);
        for w in writers {
            buckets.push(w.finish()?);
        }
        self.op_spills[agg as usize] += 1;
        self.op_spill_bytes[agg as usize] += buckets.iter().map(|b| b.bytes()).sum::<u64>();
        Ok(GroupSpill {
            for_op: agg,
            buckets,
            rows: total,
        })
    }

    /// Drops the outputs a finished unit consumed once no other unit still
    /// needs them, returning their bytes to the memory budget. Dropping a
    /// spilled output deletes its file. The sink's output is never
    /// released — it is the run's result.
    fn release_inputs(&mut self, u: usize) {
        let head = &self.ops[self.units[u].start];
        let mut inputs = head.inputs.clone();
        inputs.dedup();
        for dep in inputs {
            let i = dep as usize;
            if i == self.sink_op || self.remaining_uses[i] == 0 {
                continue;
            }
            self.remaining_uses[i] -= 1;
            if self.remaining_uses[i] == 0 {
                self.tracker.sub(self.out_bytes[i]);
                self.out_bytes[i] = 0;
                self.outputs[i] = None;
            }
        }
    }

    /// Shared completion tail for every unit: bookkeeping, span recording,
    /// input release, and waking consumers whose dependencies are now met.
    fn unit_finished(&mut self, u: usize) -> Result<()> {
        self.completed += 1;
        self.record_unit_span(u);
        diag::debug(|| {
            let head = &self.ops[self.units[u].start];
            format!(
                "unit {u} ({}) done: {} rows out",
                head.kind.type_name(),
                self.op_counts[self.units[u].start + self.units[u].len - 1]
            )
        });
        self.release_inputs(u);
        let consumers = self.units[u].consumers.clone();
        for c in consumers {
            let st = &mut self.states[c];
            st.remaining_deps -= 1;
            if st.remaining_deps == 0 {
                self.ready.push(c);
            }
        }
        Ok(())
    }

    /// Assembles the run's [`RunReport`] from the scheduler's accumulators.
    /// Cheap structural counters are present for every run; timing fields,
    /// the duration histogram, and pool gauges only when metrics were on.
    fn build_report(&self, error: Option<&EngineError>) -> RunReport {
        let mut report = base_report(
            self.ops,
            &self.op_counts,
            self.ctx,
            &self.config,
            S::ENABLED,
            error,
        );
        report.metrics = self.obs.metrics();
        for (i, op_report) in report.operators.iter_mut().enumerate() {
            op_report.morsels = self.op_morsels[i];
            op_report.udf_panics = self.op_panics[i];
            op_report.busy_ns = self.op_busy_ns[i];
            op_report.spill_bytes = self.op_spill_bytes[i];
        }
        report.morsels = self.morsel_stats.clone();
        if self.tracker.enabled() {
            report.spill = Some(SpillStats {
                budget_bytes: self.tracker.budget() as u64,
                peak_tracked_bytes: self.tracker.peak() as u64,
                spills: self.op_spills.iter().sum(),
                spill_bytes: self.op_spill_bytes.iter().sum(),
                reloads: self.op_reloads.iter().sum(),
                capture_spills: 0,
                capture_spill_bytes: 0,
            });
        }
        report.columnar = Some(self.col_stats.clone());
        if self.obs.metrics() {
            report.elapsed_ns = self.obs.now_ns();
            report.morsel_durations = self.obs.duration_summary();
            if let Some(pool) = &self.pool {
                report.pool = Some(PoolStats {
                    workers: pool.size() as u64,
                    jobs: self.pool_jobs,
                    max_queue_depth: self.pool_max_queue,
                    max_active: self.pool_max_active,
                });
            }
        }
        report
    }
}

fn partition_rows(parts: &Partitions) -> usize {
    parts.iter().map(Vec::len).sum()
}

/// Evaluates one aggregate over the rows of a group.
///
/// `collect_list` keeps one value per group row — including `Null` for rows
/// where the input path is missing — so that nested positions stay aligned
/// with the group's identifier list in the operator provenance (Tab. 6).
fn eval_agg(agg: &AggSpec, members: &[&Row]) -> Value {
    let values = |skip_null: bool| {
        members.iter().filter_map(move |r| {
            let v = agg.input.eval(&r.item).cloned().unwrap_or(Value::Null);
            if skip_null && v.is_null() {
                None
            } else {
                Some(v)
            }
        })
    };
    match agg.func {
        AggFunc::Count => {
            if agg.input.is_empty() {
                Value::Int(members.len() as i64)
            } else {
                Value::Int(values(true).count() as i64)
            }
        }
        AggFunc::Sum => {
            let vs: Vec<Value> = values(true).collect();
            if vs.is_empty() {
                Value::Null
            } else if vs.iter().all(|v| matches!(v, Value::Int(_))) {
                Value::Int(vs.iter().filter_map(Value::as_int).sum())
            } else {
                Value::Double(vs.iter().filter_map(Value::as_double).sum())
            }
        }
        AggFunc::Avg => {
            let vs: Vec<f64> = values(true).filter_map(|v| v.as_double()).collect();
            if vs.is_empty() {
                Value::Null
            } else {
                Value::Double(vs.iter().sum::<f64>() / vs.len() as f64)
            }
        }
        AggFunc::Min => values(true).min().unwrap_or(Value::Null),
        AggFunc::Max => values(true).max().unwrap_or(Value::Null),
        AggFunc::CollectList => {
            if agg.input.is_empty() {
                // Nesting of whole items: the paper's grouping operator
                // collects the complete group members into a nested bag.
                Value::Bag(
                    members
                        .iter()
                        .map(|r| Value::Item(r.item.clone()))
                        .collect(),
                )
            } else {
                Value::Bag(values(false).collect())
            }
        }
        AggFunc::CollectSet => {
            if agg.input.is_empty() {
                Value::set_from(members.iter().map(|r| Value::Item(r.item.clone())))
            } else {
                Value::set_from(values(true))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::items_of;
    use crate::expr::{Expr, SelectExpr};
    use crate::op::NamedExpr;
    use crate::program::ProgramBuilder;
    use crate::sink::NoSink;

    fn ctx() -> Context {
        let mut c = Context::new();
        c.register(
            "nums",
            items_of(vec![
                vec![("k", Value::Int(1)), ("v", Value::Int(10))],
                vec![("k", Value::Int(2)), ("v", Value::Int(20))],
                vec![("k", Value::Int(1)), ("v", Value::Int(30))],
                vec![("k", Value::Int(3)), ("v", Value::Int(40))],
            ]),
        );
        c.register(
            "names",
            items_of(vec![
                vec![("k2", Value::Int(1)), ("name", Value::str("one"))],
                vec![("k2", Value::Int(2)), ("name", Value::str("two"))],
            ]),
        );
        c
    }

    fn run_plain(p: &Program, c: &Context) -> RunOutput {
        run(p, c, ExecConfig::with_partitions(3), &NoSink).unwrap()
    }

    #[test]
    fn filter_and_select() {
        let mut b = ProgramBuilder::new();
        let r = b.read("nums");
        let f = b.filter(r, Expr::col("v").ge(Expr::lit(20i64)));
        let s = b.select(f, vec![NamedExpr::aliased("double_k", "k")]);
        let out = run_plain(&b.build(s), &ctx());
        let vals: Vec<i64> = out
            .rows
            .iter()
            .map(|r| r.item.get("double_k").unwrap().as_int().unwrap())
            .collect();
        assert_eq!(vals, [2, 1, 3]);
    }

    #[test]
    fn join_matches_and_renames() {
        let mut b = ProgramBuilder::new();
        let l = b.read("nums");
        let r = b.read("names");
        let j = b.join(l, r, vec![(Path::attr("k"), Path::attr("k2"))]);
        let out = run_plain(&b.build(j), &ctx());
        assert_eq!(out.rows.len(), 3); // k=1 twice, k=2 once, k=3 none
        let first = &out.rows[0].item;
        assert_eq!(first.get("name"), Some(&Value::str("one")));
        assert_eq!(first.get("k2"), Some(&Value::Int(1)));
    }

    #[test]
    fn union_concats() {
        let mut b = ProgramBuilder::new();
        let l = b.read("nums");
        let r = b.read("nums");
        let u = b.union(l, r);
        let out = run_plain(&b.build(u), &ctx());
        assert_eq!(out.rows.len(), 8);
    }

    #[test]
    fn group_aggregate_scalar_and_nesting() {
        let mut b = ProgramBuilder::new();
        let r = b.read("nums");
        let g = b.group_aggregate(
            r,
            vec![GroupKey::new("k")],
            vec![
                AggSpec::new(AggFunc::Sum, "v", "total"),
                AggSpec::new(AggFunc::CollectList, "v", "vs"),
                AggSpec::new(AggFunc::Count, "", "n"),
            ],
        );
        let out = run_plain(&b.build(g), &ctx());
        let mut rows: Vec<(i64, i64, usize, i64)> = out
            .rows
            .iter()
            .map(|r| {
                (
                    r.item.get("k").unwrap().as_int().unwrap(),
                    r.item.get("total").unwrap().as_int().unwrap(),
                    r.item.get("vs").unwrap().as_collection().unwrap().len(),
                    r.item.get("n").unwrap().as_int().unwrap(),
                )
            })
            .collect();
        rows.sort();
        assert_eq!(rows, [(1, 40, 2, 2), (2, 20, 1, 1), (3, 40, 1, 1)]);
    }

    #[test]
    fn flatten_explodes_with_positions() {
        let mut c = Context::new();
        c.register(
            "t",
            items_of(vec![
                vec![("tags", Value::Bag(vec![Value::str("a"), Value::str("b")]))],
                vec![("tags", Value::Bag(vec![]))],
            ]),
        );
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let f = b.flatten(r, "tags", "tag");
        let out = run_plain(&b.build(f), &c);
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].item.get("tag"), Some(&Value::str("a")));
        // Original collection is preserved, as in Fig. 3.
        assert!(out.rows[0].item.get("tags").is_some());
    }

    #[test]
    fn deterministic_across_partition_counts() {
        let mut b = ProgramBuilder::new();
        let r = b.read("nums");
        let g = b.group_aggregate(
            r,
            vec![GroupKey::new("k")],
            vec![AggSpec::new(AggFunc::CollectList, "v", "vs")],
        );
        let p = b.build(g);
        let c = ctx();
        let one = run(&p, &c, ExecConfig::with_partitions(1), &NoSink).unwrap();
        let four = run(&p, &c, ExecConfig::with_partitions(4), &NoSink).unwrap();
        assert!(one.iter_items().eq(four.iter_items()));
    }

    #[test]
    fn map_udf_applies() {
        use crate::op::MapUdf;
        use std::sync::Arc;
        let mut b = ProgramBuilder::new();
        let r = b.read("nums");
        let m = b.map(
            r,
            MapUdf {
                name: "inc".into(),
                f: Arc::new(|d| {
                    let mut d = d.clone();
                    let v = d.get("v").unwrap().as_int().unwrap();
                    d.set("v", Value::Int(v + 1));
                    d
                }),
                output_schema: None,
            },
        );
        let out = run_plain(&b.build(m), &ctx());
        assert_eq!(out.rows[0].item.get("v"), Some(&Value::Int(11)));
    }

    #[test]
    fn select_struct_restructures() {
        let mut b = ProgramBuilder::new();
        let r = b.read("nums");
        let s = b.select(
            r,
            vec![NamedExpr::new(
                "pair",
                SelectExpr::strct([
                    ("key", SelectExpr::path("k")),
                    ("value", SelectExpr::path("v")),
                ]),
            )],
        );
        let out = run_plain(&b.build(s), &ctx());
        let pair = out.rows[0].item.get("pair").unwrap().as_item().unwrap();
        assert_eq!(pair.get("key"), Some(&Value::Int(1)));
    }

    #[test]
    fn unfused_run_produces_identical_rows_and_ids() {
        let mut b = ProgramBuilder::new();
        let r = b.read("nums");
        let f = b.filter(r, Expr::col("v").ge(Expr::lit(20i64)));
        let s = b.select(f, vec![NamedExpr::aliased("kk", "k")]);
        let p = b.build(s);
        let c = ctx();
        let cfg = ExecConfig::with_partitions(3);
        let fused = run(&p, &c, cfg, &NoSink).unwrap();
        let unfused = run(&p, &c, cfg.fusion(false), &NoSink).unwrap();
        assert_eq!(fused.rows, unfused.rows);
        assert_eq!(fused.op_counts, unfused.op_counts);
    }

    /// A config is a value: fusion is on by default, and no environment
    /// variable reaches any field or the spill location. Setting the
    /// variables here is safe beside concurrently running tests precisely
    /// because nothing reads them.
    #[test]
    fn fusion_defaults_on_and_ignores_the_environment() {
        let not_a_dir =
            std::env::temp_dir().join(format!("pebble-not-a-dir-{}", std::process::id()));
        std::fs::write(&not_a_dir, b"").unwrap();
        // The retired knobs, plus a fusion switch that never existed.
        let hostile = [
            ("PARTITIONS", "4096".to_string()),
            ("WORKERS", "64".to_string()),
            ("MORSEL_ROWS", "1".to_string()),
            ("MEM_BUDGET", "1".to_string()),
            ("SPILL_DIR", not_a_dir.join("spill").display().to_string()),
            ("BACKEND", "no-such-backend".to_string()),
            ("FUSION", "0".to_string()),
        ];
        for (knob, value) in &hostile {
            std::env::set_var(format!("PEBBLE_{knob}"), value);
        }
        let literal = |partitions| ExecConfig {
            partitions,
            workers: 0,
            morsel_rows: 0,
            mem_budget_bytes: 0,
            fusion: true,
        };
        assert_eq!(ExecConfig::default(), literal(default_parallelism()));
        assert_eq!(ExecConfig::with_partitions(3), literal(3));

        let mut b = ProgramBuilder::new();
        let r = b.read("nums");
        let f = b.filter(r, Expr::col("v").ge(Expr::lit(20i64)));
        let p = b.build(f);
        let c = ctx();
        let cfg = ExecConfig::with_partitions(3).mem_budget(1);
        let spilled = run(&p, &c, cfg, &NoSink).expect("spills under the temp dir");
        let plain = run(&p, &c, ExecConfig::with_partitions(3), &NoSink).unwrap();
        assert_eq!(spilled.rows, plain.rows);
        assert!(spilled.report.spill.expect("budgeted run reports").spills > 0);

        for (knob, _) in &hostile {
            std::env::remove_var(format!("PEBBLE_{knob}"));
        }
        std::fs::remove_file(&not_a_dir).unwrap();
    }

    /// Which chain kernel runs a unit is read off the unit's own plan: a
    /// `map` sends its chain to the row kernel, everything else is
    /// vectorized and reports whole-partition id ranges — and no
    /// environment variable has a say.
    #[test]
    fn only_user_code_takes_the_row_chain_kernel() {
        struct Capturing;
        impl ProvenanceSink for Capturing {
            const ENABLED: bool = true;
        }
        let mut c = Context::new();
        c.register(
            "t",
            items_of((0..40).map(|i| vec![("x", Value::Int(i))]).collect()),
        );
        let chain = |with_map: bool| {
            let mut b = ProgramBuilder::new();
            let r = b.read("t");
            let mut s = b.select(r, vec![NamedExpr::aliased("y", "x")]);
            if with_map {
                s = b.map(
                    s,
                    MapUdf {
                        name: "id".into(),
                        f: Arc::new(|d| d.clone()),
                        output_schema: None,
                    },
                );
            }
            let s = b.select(s, vec![NamedExpr::aliased("z", "y")]);
            b.build(s)
        };
        // Many morsels per partition: a range per (partition, stage) means
        // the stitcher coalesced every morsel's run.
        let stats = |with_map: bool| {
            let cfg = ExecConfig::with_partitions(2).workers(2).morsel_rows(3);
            let out = run(&chain(with_map), &c, cfg, &Capturing).unwrap();
            assert_eq!(out.rows.len(), 40);
            out.report.columnar.expect("every run reports kernel stats")
        };
        let check = || {
            let plain = stats(false);
            assert_eq!(plain.fallback_units, 0);
            assert_eq!((plain.id_ranges, plain.id_pairs), (4, 0));
            let mapped = stats(true);
            assert_eq!(mapped.fallback_units, 1);
            // The row kernel's per-row associations coalesce too.
            assert_eq!(
                (mapped.id_ranges, mapped.id_pairs, mapped.batches),
                (6, 120, 0)
            );
        };
        check();
        // The retired knob (spelled in two pieces so a grep for it finds no
        // live reference). Nothing reads it any more, so setting it disturbs
        // no concurrently running test.
        let retired = ["PEBBLE", "COLUMNAR"].join("_");
        let before = format!("{:?}", ExecConfig::default());
        std::env::set_var(&retired, "0");
        assert_eq!(format!("{:?}", ExecConfig::default()), before);
        check();
        std::env::remove_var(&retired);
    }

    /// `union(r, r)` over a `rows`-item source `t`.
    fn self_union(rows: i64) -> (Program, Context) {
        let mut c = Context::new();
        c.register(
            "t",
            items_of((0..rows).map(|i| vec![("x", Value::Int(i))]).collect()),
        );
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let u = b.union(r, r);
        (b.build(u), c)
    }

    #[test]
    fn partition_index_overflow_is_rejected_before_data_moves() {
        // The full 16-bit range is usable...
        assert_eq!(ExecConfig::with_partitions(1 << 20).partitions, 1 << 16);
        let (p, c) = self_union(100);
        let mut b = ProgramBuilder::new();
        let r = b.read("t");
        let f = b.filter(r, Expr::col("x").ge(Expr::lit(0i64)));
        let out = run(
            &b.build(f),
            &c,
            ExecConfig::with_partitions(1 << 16).workers(1),
            &NoSink,
        )
        .unwrap();
        let mut ids: Vec<ItemId> = out.rows.iter().map(|r| r.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 100);
        // ...but a union doubles the partition count, and a struct literal
        // skips the builder's clamp: both are typed plan errors at every
        // worker count instead of silently aliased identifiers.
        for workers in [1, 2] {
            let err = run(
                &p,
                &c,
                ExecConfig::with_partitions(40_000).workers(workers),
                &NoSink,
            )
            .err()
            .expect("80 000 union partitions must be rejected");
            assert_eq!(
                err,
                EngineError::partition_overflow(1, "union", 80_000, MAX_PARTITIONS),
                "workers={workers}"
            );
            let literal = ExecConfig {
                partitions: 70_000,
                ..ExecConfig::default().workers(workers)
            };
            let err = run(&p, &c, literal, &NoSink).err().expect("rejected");
            assert_eq!(
                err,
                EngineError::partition_overflow(0, "read", 70_000, MAX_PARTITIONS),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn ids_unique_across_operators() {
        let mut b = ProgramBuilder::new();
        let r = b.read("nums");
        let f = b.filter(r, Expr::lit(true));
        let out = run_plain(&b.build(f), &ctx());
        let mut ids: Vec<ItemId> = out.rows.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), out.rows.len());
    }

    #[test]
    fn read_ranges_pad_small_inputs() {
        assert_eq!(read_ranges(2, 3), vec![0..1, 1..2, 2..2]);
        assert_eq!(read_ranges(0, 2), vec![0..0, 0..0]);
        assert_eq!(read_ranges(10, 3), vec![0..4, 4..8, 8..10]);
        assert_eq!(read_ranges(6, 2), vec![0..3, 3..6]);
        assert_eq!(read_ranges(5, 1), vec![0..5]);
    }

    #[test]
    fn union_partition_offset_counts_padded_partitions() {
        // 2-item sources at partitions=3: with read padding, the right
        // input's output partitions must start at offset 3 (= left
        // partition count including padding), not at the number of
        // non-empty chunks.
        let mut c = Context::new();
        c.register(
            "a",
            items_of(vec![vec![("x", Value::Int(1))], vec![("x", Value::Int(2))]]),
        );
        let mut b = ProgramBuilder::new();
        let l = b.read("a");
        let r = b.read("a");
        let u = b.union(l, r);
        let out = run(
            &b.build(u),
            &c,
            ExecConfig::with_partitions(3).workers(1),
            &NoSink,
        )
        .unwrap();
        assert_eq!(out.rows.len(), 4);
        let pidx: Vec<u64> = out.rows.iter().map(|r| (r.id >> 32) & 0xFFFF).collect();
        assert_eq!(pidx, [0, 1, 3, 4]);
    }

    #[test]
    fn pool_and_morsels_match_sequential() {
        // Skewed fan-out pipeline exercising every unit kind: flatten →
        // filter → union (same op consumed twice) → join → group.
        let mut c = Context::new();
        let items: Vec<Vec<(&str, Value)>> = (0..40i64)
            .map(|i| {
                let tags = if i == 0 { 25 } else { i % 4 };
                vec![
                    ("id", Value::Int(i % 7)),
                    ("tags", Value::Bag((0..tags).map(Value::Int).collect())),
                ]
            })
            .collect();
        c.register("s", items_of(items));
        c.register(
            "dim",
            items_of((0..7i64).map(|i| vec![("id2", Value::Int(i))]).collect()),
        );
        let mut b = ProgramBuilder::new();
        let r = b.read("s");
        let fl = b.flatten(r, "tags", "tag");
        let f = b.filter(fl, Expr::col("tag").ge(Expr::lit(1i64)));
        let u = b.union(f, f);
        let d = b.read("dim");
        let j = b.join(u, d, vec![(Path::attr("id"), Path::attr("id2"))]);
        let g = b.group_aggregate(
            j,
            vec![GroupKey::new("id")],
            vec![AggSpec::new(AggFunc::Count, "", "n")],
        );
        let p = b.build(g);
        let baseline = run(
            &p,
            &c,
            ExecConfig::with_partitions(3).workers(1).morsel_rows(0),
            &NoSink,
        )
        .unwrap();
        for (w, m) in [(2, 1), (7, 3), (3, usize::MAX)] {
            let alt = run(
                &p,
                &c,
                ExecConfig::with_partitions(3).workers(w).morsel_rows(m),
                &NoSink,
            )
            .unwrap();
            assert_eq!(baseline.rows, alt.rows, "workers={w} morsel={m}");
            assert_eq!(baseline.op_counts, alt.op_counts, "workers={w} morsel={m}");
        }
    }

    #[test]
    fn budgeted_run_spills_and_matches_in_memory() {
        // Same skewed pipeline as above, squeezed through a budget so small
        // every intermediate spills: rows, ids and counts must be
        // byte-identical to the unbudgeted run, and the report must show
        // spill traffic for join build, group shuffle and unit outputs.
        let mut c = Context::new();
        let items: Vec<Vec<(&str, Value)>> = (0..40i64)
            .map(|i| {
                let tags = if i == 0 { 25 } else { i % 4 };
                vec![
                    ("id", Value::Int(i % 7)),
                    ("tags", Value::Bag((0..tags).map(Value::Int).collect())),
                ]
            })
            .collect();
        c.register("s", items_of(items));
        c.register(
            "dim",
            items_of((0..7i64).map(|i| vec![("id2", Value::Int(i))]).collect()),
        );
        let mut b = ProgramBuilder::new();
        let r = b.read("s");
        let fl = b.flatten(r, "tags", "tag");
        let f = b.filter(fl, Expr::col("tag").ge(Expr::lit(1i64)));
        let u = b.union(f, f);
        let d = b.read("dim");
        let j = b.join(u, d, vec![(Path::attr("id"), Path::attr("id2"))]);
        let g = b.group_aggregate(
            j,
            vec![GroupKey::new("id")],
            vec![AggSpec::new(AggFunc::Count, "", "n")],
        );
        let p = b.build(g);
        let baseline = run(&p, &c, ExecConfig::with_partitions(3), &NoSink).unwrap();
        assert!(baseline.report.spill.is_none());
        for (budget, workers, morsel) in [(1, 1, 1), (1, 7, 3), (4096, 2, 0)] {
            let cfg = ExecConfig::with_partitions(3)
                .workers(workers)
                .morsel_rows(morsel)
                .mem_budget(budget);
            let alt = run(&p, &c, cfg, &NoSink).unwrap();
            assert_eq!(baseline.rows, alt.rows, "budget={budget}");
            assert_eq!(baseline.op_counts, alt.op_counts, "budget={budget}");
            let spill = alt.report.spill.as_ref().expect("budgeted run reports");
            assert_eq!(spill.budget_bytes, budget as u64);
            assert!(spill.spills > 0, "budget={budget}: nothing spilled");
            assert!(spill.spill_bytes > 0);
            assert!(spill.reloads > 0);
        }
    }
}
