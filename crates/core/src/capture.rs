//! Lightweight structural provenance capture (Sec. 5.1).
//!
//! The operator provenance `P = ⟨oid, type, I, M, P⟩` (Def. 5.1) stores
//!
//! * per input: a reference to the preceding operator and the accessed
//!   paths `A` **at schema level** (positions replaced by `[pos]`);
//! * the manipulated path pairs `M`, also at schema level;
//! * the identifier association table `P`, whose shape depends on the
//!   operator type (Tab. 6).
//!
//! `A`/`M` are data-item independent, so they are derived *statically* from
//! the plan and the input schemas; only the association tables are recorded
//! at run time, through the engine's [`ProvenanceSink`] hook. This is what
//! keeps the capture overhead comparable to plain lineage systems.

use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use pebble_dataflow::{
    run, Context, EngineError, ExecConfig, ItemId, OpId, OpKind, Program, ProvenanceSink, Result,
    RunOutput, UnaryRuns,
};
use pebble_nested::encode::{
    frame_block, get_ids_delta, get_varint, put_ids_delta, put_varint, take_frame, CodecError,
};
use pebble_nested::{DataType, Path, Step};
use pebble_obs::{ObsConfig, ProvenanceStats, RunReport};

/// Identifier association table `P` of Def. 5.1, operator-dependent per
/// Tab. 6.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProvAssoc {
    /// `read`: identifiers assigned to the source items, in dataset order.
    Read(Vec<ItemId>),
    /// `map`/`select`/`filter`: `⟨id^i, id^o⟩`, held as the id runs the
    /// executor produces.
    Unary(UnaryRuns),
    /// `join`/`union`: `⟨id_1^i, id_2^i, id^o⟩` (one side undefined for
    /// `union`).
    Binary(Vec<(Option<ItemId>, Option<ItemId>, ItemId)>),
    /// `flatten`: `⟨id^i, pos, id^o⟩`.
    Flatten(Vec<(ItemId, u32, ItemId)>),
    /// grouping + aggregation: `⟨ids^i, id^o⟩`, nested input ids in
    /// nesting order.
    Agg(Vec<(Vec<ItemId>, ItemId)>),
}

impl ProvAssoc {
    /// Number of association entries.
    pub fn len(&self) -> usize {
        match self {
            ProvAssoc::Read(v) => v.len(),
            ProvAssoc::Unary(v) => v.len(),
            ProvAssoc::Binary(v) => v.len(),
            ProvAssoc::Flatten(v) => v.len(),
            ProvAssoc::Agg(v) => v.len(),
        }
    }

    /// True if no associations were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes a plain lineage system (Titian-style: identifiers only) would
    /// store for this table.
    pub fn lineage_bytes(&self) -> usize {
        const ID: usize = std::mem::size_of::<ItemId>();
        match self {
            ProvAssoc::Read(v) => v.len() * ID,
            ProvAssoc::Unary(v) => v.len() * 2 * ID,
            ProvAssoc::Binary(v) => v.len() * 3 * ID,
            // Lineage keeps only ⟨id^i, id^o⟩ for flatten — no positions.
            ProvAssoc::Flatten(v) => v.len() * 2 * ID,
            ProvAssoc::Agg(v) => v.iter().map(|(ids, _)| (ids.len() + 1) * ID).sum(),
        }
    }

    /// Additional bytes structural provenance stores on top of lineage:
    /// the `pos` column of `flatten` tables (Tab. 6 row 3).
    pub fn structural_extra_bytes(&self) -> usize {
        match self {
            ProvAssoc::Flatten(v) => v.len() * std::mem::size_of::<u32>(),
            _ => 0,
        }
    }

    /// Resident heap bytes of the stored entries — the quantity the capture
    /// memory budget accounts (identifiers plus flatten positions; a unary
    /// table's runs, not its pairs).
    fn resident_bytes(&self) -> usize {
        match self {
            ProvAssoc::Unary(v) => v.resident_bytes(),
            _ => self.lineage_bytes() + self.structural_extra_bytes(),
        }
    }

    /// An empty table of the same shape.
    fn empty_like(&self) -> ProvAssoc {
        match self {
            ProvAssoc::Read(_) => ProvAssoc::Read(Vec::new()),
            ProvAssoc::Unary(_) => ProvAssoc::Unary(UnaryRuns::new()),
            ProvAssoc::Binary(_) => ProvAssoc::Binary(Vec::new()),
            ProvAssoc::Flatten(_) => ProvAssoc::Flatten(Vec::new()),
            ProvAssoc::Agg(_) => ProvAssoc::Agg(Vec::new()),
        }
    }

    /// Appends the other table's entries (shapes must match; the sink only
    /// merges tables it created for the same operator).
    fn append_from(&mut self, other: ProvAssoc) -> std::result::Result<(), CodecError> {
        match (self, other) {
            (ProvAssoc::Read(a), ProvAssoc::Read(b)) => a.extend(b),
            (ProvAssoc::Unary(a), ProvAssoc::Unary(b)) => a.append(&b),
            (ProvAssoc::Binary(a), ProvAssoc::Binary(b)) => a.extend(b),
            (ProvAssoc::Flatten(a), ProvAssoc::Flatten(b)) => a.extend(b),
            (ProvAssoc::Agg(a), ProvAssoc::Agg(b)) => a.extend(b),
            _ => return Err(CodecError("association table shape mismatch".into())),
        }
        Ok(())
    }
}

/// Frame type byte for spilled association chunks (the framing itself is
/// [`frame_block`], shared with segments and row spill blocks).
const BLOCK_CAPTURE_ASSOC: u8 = 0x53;

/// Encodes a drained association table as one framed chunk. Identifier
/// columns are delta-encoded — they are near-sequential, so spilled chunks
/// are far smaller than the resident tables they replace — and a unary
/// table is written as its run tokens.
fn encode_assoc_chunk(assoc: &ProvAssoc, out: &mut Vec<u8>) {
    let mut buf = Vec::new();
    match assoc {
        ProvAssoc::Read(v) => {
            buf.push(0);
            put_ids_delta(&mut buf, v);
        }
        ProvAssoc::Unary(v) => {
            buf.push(1);
            v.put_tokens(&mut buf);
        }
        ProvAssoc::Binary(v) => {
            buf.push(2);
            put_varint(&mut buf, v.len() as u64);
            for e in v {
                buf.push(u8::from(e.0.is_some()) | u8::from(e.1.is_some()) << 1);
            }
            let lefts: Vec<u64> = v.iter().filter_map(|e| e.0).collect();
            let rights: Vec<u64> = v.iter().filter_map(|e| e.1).collect();
            let outs: Vec<u64> = v.iter().map(|e| e.2).collect();
            put_ids_delta(&mut buf, &lefts);
            put_ids_delta(&mut buf, &rights);
            put_ids_delta(&mut buf, &outs);
        }
        ProvAssoc::Flatten(v) => {
            buf.push(3);
            let ins: Vec<u64> = v.iter().map(|e| e.0).collect();
            let outs: Vec<u64> = v.iter().map(|e| e.2).collect();
            put_ids_delta(&mut buf, &ins);
            for e in v {
                put_varint(&mut buf, e.1 as u64);
            }
            put_ids_delta(&mut buf, &outs);
        }
        ProvAssoc::Agg(v) => {
            buf.push(4);
            put_varint(&mut buf, v.len() as u64);
            for (ids, out) in v {
                put_ids_delta(&mut buf, ids);
                put_varint(&mut buf, *out);
            }
        }
    }
    frame_block(out, BLOCK_CAPTURE_ASSOC, &buf);
}

/// Decodes one chunk written by [`encode_assoc_chunk`]. Total: malformed
/// bytes yield a [`CodecError`], never a panic.
fn decode_assoc_chunk(payload: &[u8]) -> std::result::Result<ProvAssoc, CodecError> {
    let Some((&tag, mut rest)) = payload.split_first() else {
        return Err(CodecError("empty association chunk".into()));
    };
    let buf = &mut rest;
    let assoc = match tag {
        0 => ProvAssoc::Read(get_ids_delta(buf)?),
        1 => {
            let mut runs = UnaryRuns::new();
            runs.get_tokens(buf, usize::MAX)?;
            ProvAssoc::Unary(runs)
        }
        2 => {
            let n = get_varint(buf)? as usize;
            if buf.len() < n {
                return Err(CodecError("truncated binary chunk flags".into()));
            }
            let (flags, rest) = buf.split_at(n);
            let flags = flags.to_vec();
            *buf = rest;
            let mut lefts = get_ids_delta(buf)?.into_iter();
            let mut rights = get_ids_delta(buf)?.into_iter();
            let outs = get_ids_delta(buf)?;
            if outs.len() != n {
                return Err(CodecError("binary chunk column length mismatch".into()));
            }
            let mut v = Vec::with_capacity(n);
            for (f, out) in flags.into_iter().zip(outs) {
                let l =
                    if f & 1 != 0 {
                        Some(lefts.next().ok_or_else(|| {
                            CodecError("binary chunk left column too short".into())
                        })?)
                    } else {
                        None
                    };
                let r =
                    if f & 2 != 0 {
                        Some(rights.next().ok_or_else(|| {
                            CodecError("binary chunk right column too short".into())
                        })?)
                    } else {
                        None
                    };
                v.push((l, r, out));
            }
            ProvAssoc::Binary(v)
        }
        3 => {
            let ins = get_ids_delta(buf)?;
            let mut pos = Vec::with_capacity(ins.len());
            for _ in 0..ins.len() {
                pos.push(
                    u32::try_from(get_varint(buf)?)
                        .map_err(|_| CodecError("flatten chunk position out of range".into()))?,
                );
            }
            let outs = get_ids_delta(buf)?;
            if outs.len() != ins.len() {
                return Err(CodecError("flatten chunk column length mismatch".into()));
            }
            ProvAssoc::Flatten(
                ins.into_iter()
                    .zip(pos)
                    .zip(outs)
                    .map(|((i, p), o)| (i, p, o))
                    .collect(),
            )
        }
        4 => {
            let n = get_varint(buf)? as usize;
            if buf.len() < n {
                return Err(CodecError("truncated aggregation chunk".into()));
            }
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                let ids = get_ids_delta(buf)?;
                let out = get_varint(buf)?;
                v.push((ids, out));
            }
            ProvAssoc::Agg(v)
        }
        tag => return Err(CodecError(format!("unknown association chunk tag {tag}"))),
    };
    if !buf.is_empty() {
        return Err(CodecError("trailing bytes after association chunk".into()));
    }
    Ok(assoc)
}

/// Out-of-core state for a budgeted capture: per-operator append-only spill
/// files holding drained association chunks. Created only when the run's
/// [`ExecConfig`] carries a memory budget; dropped state removes the
/// directory.
struct CaptureSpill {
    budget: usize,
    /// Resident entry bytes across all operators' in-memory tables.
    resident: AtomicUsize,
    dir: PathBuf,
    files: Vec<Mutex<Option<fs::File>>>,
    spills: AtomicU64,
    spill_bytes: AtomicU64,
}

impl CaptureSpill {
    fn new(budget: usize, n_ops: usize) -> CaptureSpill {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = pebble_dataflow::spill::base_dir().join(format!(
            "pebble-capture-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        CaptureSpill {
            budget,
            resident: AtomicUsize::new(0),
            dir,
            files: (0..n_ops).map(|_| Mutex::new(None)).collect(),
            spills: AtomicU64::new(0),
            spill_bytes: AtomicU64::new(0),
        }
    }

    /// Drains `assoc` to the operator's spill file, leaving it empty. The
    /// error message carries the io error *kind* only — never a filesystem
    /// path — so failing runs stay `Display`-comparable across machines.
    fn drain(&self, op: OpId, assoc: &mut ProvAssoc) -> Result<()> {
        let bytes = assoc.resident_bytes();
        if bytes == 0 {
            return Ok(());
        }
        pebble_dataflow::fault::check_spill(op)?;
        let io_err = |what: &str, e: &std::io::Error| EngineError::SpillError {
            op,
            message: format!("{what}: {}", e.kind()),
        };
        let mut chunk = Vec::new();
        encode_assoc_chunk(assoc, &mut chunk);
        let mut slot = self.files[op as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            fs::create_dir_all(&self.dir)
                .map_err(|e| io_err("create capture spill directory", &e))?;
            let file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.dir.join(format!("op{op}.assoc")))
                .map_err(|e| io_err("create capture spill file", &e))?;
            *slot = Some(file);
        }
        slot.as_mut()
            .expect("file was just opened")
            .write_all(&chunk)
            .map_err(|e| io_err("write capture spill chunk", &e))?;
        *assoc = assoc.empty_like();
        self.resident.fetch_sub(bytes, Ordering::Relaxed);
        self.spills.fetch_add(1, Ordering::Relaxed);
        self.spill_bytes
            .fetch_add(chunk.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Reads back every chunk spilled for `op`, in write order, into one
    /// table shaped like `tail`, then re-appends the resident tail — the
    /// exact append sequence an unbudgeted capture accumulates in memory.
    fn restore(&self, op: OpId, tail: ProvAssoc) -> Result<ProvAssoc> {
        let slot = self.files[op as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            return Ok(tail);
        }
        drop(slot);
        let codec_err = |e: CodecError| EngineError::SpillError {
            op,
            message: format!("read capture spill chunk: {e}"),
        };
        let bytes = fs::read(self.dir.join(format!("op{op}.assoc"))).map_err(|e| {
            EngineError::SpillError {
                op,
                message: format!("read capture spill file: {}", e.kind()),
            }
        })?;
        let mut full = tail.empty_like();
        let mut cur = bytes.as_slice();
        while !cur.is_empty() {
            let (ty, payload) = take_frame(&mut cur).map_err(codec_err)?;
            if ty != BLOCK_CAPTURE_ASSOC {
                return Err(codec_err(CodecError(format!("unexpected frame type {ty}"))));
            }
            full.append_from(decode_assoc_chunk(payload).map_err(codec_err)?)
                .map_err(codec_err)?;
        }
        full.append_from(tail).map_err(codec_err)?;
        Ok(full)
    }
}

impl Drop for CaptureSpill {
    fn drop(&mut self) {
        for f in &self.files {
            f.lock().unwrap_or_else(PoisonError::into_inner).take();
        }
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// Per-input provenance `⟨p, A⟩` of Def. 5.1. `accessed == None` encodes the
/// undefined access set `⊥` of opaque `map` functions, distinct from the
/// empty set `∅` (Sec. 5.0.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InputProv {
    /// Preceding operator (`None` for `read`, which has no predecessor).
    pub pred: Option<OpId>,
    /// Schema-level accessed paths `A`, or `None` for `⊥`.
    pub accessed: Option<Vec<Path>>,
}

/// The operator provenance 5-tuple `P = ⟨oid, type, I, M, P⟩` (Def. 5.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OperatorProvenance {
    /// Operator identifier `oid`.
    pub oid: OpId,
    /// Operator type name.
    pub op_type: String,
    /// One entry per input: predecessor + accessed paths.
    pub inputs: Vec<InputProv>,
    /// Schema-level manipulated path pairs `(input path, output path)`, or
    /// `None` for `⊥` (opaque `map`).
    pub manipulated: Option<Vec<(Path, Path)>>,
    /// The identifier association table.
    pub assoc: ProvAssoc,
}

impl OperatorProvenance {
    /// Bytes needed for the schema-level path sets (counted as UTF-8 path
    /// strings, matching how Pebble persists them).
    pub fn path_bytes(&self) -> usize {
        let paths = self
            .inputs
            .iter()
            .flat_map(|i| i.accessed.iter().flatten())
            .map(|p| p.to_string().len())
            .sum::<usize>();
        let manip = self
            .manipulated
            .iter()
            .flatten()
            .map(|(a, b)| a.to_string().len() + b.to_string().len())
            .sum::<usize>();
        paths + manip
    }
}

/// A fully captured execution: the result rows (with identifiers), the
/// operator provenance for every operator, and the schemas needed for
/// backtracing.
pub struct CapturedRun {
    /// The program that was executed.
    pub program: Program,
    /// Engine output (sink rows with ids, per-op schemas and counts).
    pub output: RunOutput,
    /// Operator provenance, indexed by operator id.
    pub ops: Vec<OperatorProvenance>,
}

impl CapturedRun {
    /// Total bytes a lineage-only system would store (Fig. 8 dark bars).
    pub fn lineage_bytes(&self) -> usize {
        self.ops.iter().map(|o| o.assoc.lineage_bytes()).sum()
    }

    /// Total bytes of structural provenance: lineage + flatten positions +
    /// schema-level path sets (Fig. 8 stacked bars).
    pub fn structural_bytes(&self) -> usize {
        self.lineage_bytes()
            + self
                .ops
                .iter()
                .map(|o| o.assoc.structural_extra_bytes() + o.path_bytes())
                .sum::<usize>()
    }

    /// The provenance of one operator.
    pub fn op(&self, oid: OpId) -> &OperatorProvenance {
        &self.ops[oid as usize]
    }

    /// Input schema of operator `oid`'s `idx`-th input.
    pub fn input_schema(&self, oid: OpId, idx: usize) -> &DataType {
        let pred = self.program.operators()[oid as usize].inputs[idx];
        &self.output.op_schemas[pred as usize]
    }
}

/// Recording sink: appends association batches under per-operator locks.
/// Worker threads contend only when flushing whole partitions.
struct CaptureSink {
    per_op: Vec<Mutex<ProvAssoc>>,
    /// Out-of-core state, present iff the run's config carries a memory
    /// budget: association tables overflow to per-operator chunk files and
    /// are merged back (byte-identically) when the run is assembled.
    spill: Option<CaptureSpill>,
    /// First association-building failure, if any. Sink callbacks cannot
    /// return errors through the engine, so the failure is parked here and
    /// surfaced as a typed [`EngineError::CaptureError`] after the run.
    failure: Mutex<Option<EngineError>>,
}

impl CaptureSink {
    fn new(program: &Program, ctx: &Context, config: &ExecConfig) -> Self {
        // Forward row-count estimates seed each association table's
        // capacity, so capture appends without reallocating along the way.
        // Estimates are upper bounds for everything except flatten and
        // join, which can expand; those still save the early doublings.
        let ops = program.operators();
        let mut est: Vec<usize> = Vec::with_capacity(ops.len());
        for op in ops {
            let of = |id: OpId| est[id as usize];
            est.push(match &op.kind {
                OpKind::Read { source } => ctx.source(source).map_or(0, <[_]>::len),
                OpKind::Filter { .. }
                | OpKind::Select { .. }
                | OpKind::Map { .. }
                | OpKind::Flatten { .. } => of(op.inputs[0]),
                OpKind::Join { .. } => of(op.inputs[0]).max(of(op.inputs[1])),
                OpKind::Union => of(op.inputs[0]) + of(op.inputs[1]),
                OpKind::GroupAggregate { .. } => of(op.inputs[0]),
            });
        }
        let per_op = ops
            .iter()
            .zip(est)
            .map(|(op, n)| {
                Mutex::new(match &op.kind {
                    OpKind::Read { .. } => ProvAssoc::Read(Vec::with_capacity(n)),
                    OpKind::Filter { .. } | OpKind::Select { .. } | OpKind::Map { .. } => {
                        ProvAssoc::Unary(UnaryRuns::new())
                    }
                    OpKind::Join { .. } | OpKind::Union => ProvAssoc::Binary(Vec::with_capacity(n)),
                    OpKind::Flatten { .. } => ProvAssoc::Flatten(Vec::with_capacity(n)),
                    OpKind::GroupAggregate { .. } => ProvAssoc::Agg(Vec::with_capacity(n)),
                })
            })
            .collect();
        CaptureSink {
            per_op,
            spill: (config.mem_budget_bytes > 0)
                .then(|| CaptureSpill::new(config.mem_budget_bytes, ops.len())),
            failure: Mutex::new(None),
        }
    }

    /// Locks operator `op`'s association table, recovering from poisoning:
    /// a worker that panicked mid-run can only have poisoned the lock
    /// between whole batch appends (the engine run fails separately), so
    /// the table itself is still structurally sound.
    fn assoc(&self, op: OpId) -> MutexGuard<'_, ProvAssoc> {
        self.per_op[op as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Records the first capture failure (a batch whose shape does not
    /// match the operator's association table — an engine bug, but one
    /// that must surface as an error, not as silently dropped provenance).
    fn fail(&self, op: OpId, kind: &str) {
        let mut slot = self.failure.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(EngineError::CaptureError {
                op,
                message: format!("{kind} batch does not match the operator's association table"),
            });
        }
    }

    /// Budget accounting after a batch append: charges `added` entry bytes
    /// and drains this operator's table to disk when the capture-resident
    /// total exceeds the budget. A drain failure is parked like any other
    /// capture failure and surfaced after the run.
    fn recorded(&self, op: OpId, assoc: &mut ProvAssoc, added: usize) {
        let Some(spill) = &self.spill else { return };
        let resident = spill.resident.fetch_add(added, Ordering::Relaxed) + added;
        if resident <= spill.budget {
            return;
        }
        if let Err(e) = spill.drain(op, assoc) {
            let mut slot = self.failure.lock().unwrap_or_else(PoisonError::into_inner);
            if slot.is_none() {
                *slot = Some(e);
            }
        }
    }

    /// Spill activity counters (chunks written, encoded bytes), if this
    /// capture ran under a budget.
    fn spill_stats(&self) -> Option<(u64, u64)> {
        self.spill.as_ref().map(|s| {
            (
                s.spills.load(Ordering::Relaxed),
                s.spill_bytes.load(Ordering::Relaxed),
            )
        })
    }
}

impl ProvenanceSink for CaptureSink {
    const ENABLED: bool = true;

    fn read_batch(&self, op: OpId, ids: &[ItemId]) {
        let mut guard = self.assoc(op);
        if let ProvAssoc::Read(v) = &mut *guard {
            v.extend_from_slice(ids);
            self.recorded(op, &mut guard, std::mem::size_of_val(ids));
        } else {
            self.fail(op, "read");
        }
    }

    fn unary_runs(&self, op: OpId, runs: &UnaryRuns) {
        // Runs stay runs: the budget is charged for the runs the table
        // grows by, nothing when the batch continues its last run.
        let mut guard = self.assoc(op);
        if let ProvAssoc::Unary(v) = &mut *guard {
            let before = v.resident_bytes();
            v.append(runs);
            let added = v.resident_bytes() - before;
            self.recorded(op, &mut guard, added);
        } else {
            self.fail(op, "unary");
        }
    }

    fn binary_batch(&self, op: OpId, assoc: &[(Option<ItemId>, Option<ItemId>, ItemId)]) {
        let mut guard = self.assoc(op);
        if let ProvAssoc::Binary(v) = &mut *guard {
            v.extend_from_slice(assoc);
            self.recorded(op, &mut guard, assoc.len() * 24);
        } else {
            self.fail(op, "binary");
        }
    }

    fn flatten_batch(&self, op: OpId, assoc: &[(ItemId, u32, ItemId)]) {
        let mut guard = self.assoc(op);
        if let ProvAssoc::Flatten(v) = &mut *guard {
            v.extend_from_slice(assoc);
            self.recorded(op, &mut guard, assoc.len() * 20);
        } else {
            self.fail(op, "flatten");
        }
    }

    fn agg_batch(&self, op: OpId, assoc: Vec<(Vec<ItemId>, ItemId)>) {
        let mut guard = self.assoc(op);
        if let ProvAssoc::Agg(v) = &mut *guard {
            let added: usize = assoc.iter().map(|(ids, _)| (ids.len() + 1) * 8).sum();
            v.extend(assoc);
            self.recorded(op, &mut guard, added);
        } else {
            self.fail(op, "aggregation");
        }
    }
}

/// Executes `program` with structural provenance capture enabled.
pub fn run_captured(program: &Program, ctx: &Context, config: ExecConfig) -> Result<CapturedRun> {
    let sink = CaptureSink::new(program, ctx, &config);
    let output = run(program, ctx, config, &sink)?;
    finish_capture(program, sink, output)
}

/// Executes `program` with capture enabled under an explicit observability
/// configuration, returning the run report even when execution fails.
///
/// On success the report's `provenance` section carries the *exact*
/// association-table sizes measured from the captured run (the report's
/// per-operator `assoc_bytes` column stays an estimate). Like
/// [`pebble_dataflow::run_observed`], observation never perturbs results:
/// rows, identifiers and association tables are byte-identical with
/// metrics on or off.
pub fn run_captured_observed(
    program: &Program,
    ctx: &Context,
    config: ExecConfig,
    obs: &ObsConfig,
) -> (Result<CapturedRun>, RunReport) {
    let sink = CaptureSink::new(program, ctx, &config);
    let (result, mut report) = pebble_dataflow::run_observed(program, ctx, config, &sink, obs);
    let run = result.and_then(|output| finish_capture(program, sink, output));
    if let Ok(run) = &run {
        // A successful run's output carries this same report; take over
        // the two sections the capture tail just filled in.
        report.provenance = run.output.report.provenance.clone();
        report.spill = run.output.report.spill.clone();
    }
    (run, report)
}

/// The tail every capturing entry point shares: turns the sink's tables
/// into a [`CapturedRun`] and completes its run report with the exact
/// provenance sizes and, under a budget, the capture layer's spill counters
/// (folded into the engine's `spill` section).
fn finish_capture(program: &Program, sink: CaptureSink, output: RunOutput) -> Result<CapturedRun> {
    let cap_spill = sink.spill_stats();
    let mut run = assemble(program, sink, output)?;
    run.output.report.provenance = Some(provenance_stats(&run));
    if let (Some(section), Some((spills, bytes))) = (run.output.report.spill.as_mut(), cap_spill) {
        section.capture_spills = spills;
        section.capture_spill_bytes = bytes;
    }
    Ok(run)
}

/// Exact provenance sizes for the run report, measured from the captured
/// association tables rather than estimated from row counts.
fn provenance_stats(run: &CapturedRun) -> ProvenanceStats {
    ProvenanceStats {
        entries: run.ops.iter().map(|o| o.assoc.len() as u64).sum(),
        lineage_bytes: run.lineage_bytes() as u64,
        structural_bytes: run.structural_bytes() as u64,
    }
}

fn assemble(program: &Program, sink: CaptureSink, output: RunOutput) -> Result<CapturedRun> {
    let CaptureSink {
        per_op,
        spill,
        failure,
    } = sink;
    if let Some(err) = failure
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
    {
        return Err(err);
    }
    let ops = program
        .operators()
        .iter()
        .zip(per_op)
        .map(|(op, assoc)| {
            let input_schemas: Vec<&DataType> = op
                .inputs
                .iter()
                .map(|&i| &output.op_schemas[i as usize])
                .collect();
            let (inputs, manipulated) = static_provenance(&op.kind, &op.inputs, &input_schemas);
            // Under a budget, the in-memory table is only the tail written
            // since the last drain; splice the spilled chunks back in front
            // so the assembled table is byte-identical to an unbudgeted
            // capture.
            let tail = assoc.into_inner().unwrap_or_else(PoisonError::into_inner);
            let assoc = match &spill {
                Some(s) => s.restore(op.id, tail)?,
                None => tail,
            };
            Ok(OperatorProvenance {
                oid: op.id,
                op_type: op.kind.type_name().to_string(),
                inputs,
                manipulated,
                assoc,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(CapturedRun {
        program: program.clone(),
        output,
        ops,
    })
}

/// Derives the schema-level access sets `A` and manipulation mapping `M`
/// of Tab. 5 from the operator definition — the "pebbles" that are the same
/// for every processed item.
fn static_provenance(
    kind: &OpKind,
    preds: &[OpId],
    input_schemas: &[&DataType],
) -> (Vec<InputProv>, Option<Vec<(Path, Path)>>) {
    let input = |accessed: Option<Vec<Path>>, idx: usize| InputProv {
        pred: preds.get(idx).copied(),
        accessed,
    };
    match kind {
        OpKind::Read { .. } => (Vec::new(), Some(Vec::new())),
        OpKind::Filter { predicate } => (
            vec![input(Some(schema_level(predicate.accessed_paths())), 0)],
            // Filter keeps each item's structure whole: M = ∅.
            Some(Vec::new()),
        ),
        OpKind::Select { exprs } => {
            let mut accessed = Vec::new();
            let mut manipulated = Vec::new();
            for ne in exprs {
                for p in ne.expr.accessed() {
                    let p = p.to_schema_level();
                    if !accessed.contains(&p) {
                        accessed.push(p);
                    }
                }
                for (src, dst) in ne.expr.manipulated(&Path::attr(&ne.name)) {
                    manipulated.push((src.to_schema_level(), dst));
                }
            }
            (vec![input(Some(accessed), 0)], Some(manipulated))
        }
        // Opaque function: A = ⊥ and M = ⊥ (Sec. 5.0.1).
        OpKind::Map { .. } => (vec![input(None, 0)], None),
        OpKind::Join { keys } => {
            let left_access: Vec<Path> =
                schema_level(keys.iter().map(|(l, _)| l.clone()).collect());
            let right_access: Vec<Path> =
                schema_level(keys.iter().map(|(_, r)| r.clone()).collect());
            // M maps every top-level input attribute to its (possibly
            // renamed) output attribute on both sides (Tab. 5 Join).
            let mut manipulated = Vec::new();
            if let Some(fields) = input_schemas[0].fields() {
                for f in fields {
                    manipulated.push((Path::attr(&f.name), Path::attr(&f.name)));
                }
            }
            let (_, renames) =
                pebble_dataflow::op::merge_item_schemas(0, input_schemas[0], input_schemas[1])
                    .unwrap_or((DataType::Null, Vec::new()));
            for (orig, renamed) in renames {
                manipulated.push((Path::attr(orig), Path::attr(renamed)));
            }
            (
                vec![input(Some(left_access), 0), input(Some(right_access), 1)],
                Some(manipulated),
            )
        }
        // Union performs an item-independent schema comparison only:
        // A = ∅ and M = ∅ for both inputs (Sec. 5.0.1).
        OpKind::Union => (
            vec![input(Some(Vec::new()), 0), input(Some(Vec::new()), 1)],
            Some(Vec::new()),
        ),
        OpKind::Flatten { col, new_attr } => {
            let accessed_path = col.to_schema_level().child(Step::AnyPos);
            (
                vec![input(Some(vec![accessed_path.clone()]), 0)],
                Some(vec![(accessed_path, Path::attr(new_attr))]),
            )
        }
        OpKind::GroupAggregate { keys, aggs } => {
            let mut accessed: Vec<Path> = Vec::new();
            let mut manipulated = Vec::new();
            for k in keys {
                let p = k.path.to_schema_level();
                if !accessed.contains(&p) {
                    accessed.push(p.clone());
                }
                manipulated.push((p, Path::attr(&k.name)));
            }
            for a in aggs {
                if a.input.is_empty() {
                    if a.func == pebble_dataflow::AggFunc::CollectList {
                        // Whole-item bag nesting: every top-level input
                        // attribute is copied under the nested position.
                        if let Some(fields) = input_schemas[0].fields() {
                            let base = Path::attr(&a.output).child(Step::AnyPos);
                            for f in fields {
                                manipulated
                                    .push((Path::attr(&f.name), base.child(Step::attr(&f.name))));
                            }
                        }
                    }
                    continue; // count(*) reads no attribute
                }
                let p = a.input.to_schema_level();
                if !accessed.contains(&p) {
                    accessed.push(p.clone());
                }
                let out = if a.func == pebble_dataflow::AggFunc::CollectList {
                    // Bag nesting records the element position placeholder
                    // so backtracing can pinpoint individual nested items
                    // (Alg. 4 l. 6-7).
                    Path::attr(&a.output).child(Step::AnyPos)
                } else {
                    // Scalar aggregates and set nesting map to the output
                    // attribute as a whole; set positions are not stable
                    // under deduplication, so every group member is a
                    // conservative contributor.
                    Path::attr(&a.output)
                };
                manipulated.push((p, out));
            }
            (vec![input(Some(accessed), 0)], Some(manipulated))
        }
    }
}

fn schema_level(paths: Vec<Path>) -> Vec<Path> {
    let mut out: Vec<Path> = Vec::with_capacity(paths.len());
    for p in paths {
        let p = p.to_schema_level();
        if !out.contains(&p) {
            out.push(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_dataflow::{
        context::items_of, AggFunc, AggSpec, Expr, GroupKey, NamedExpr, ProgramBuilder, SelectExpr,
    };
    use pebble_nested::Value;

    fn ctx() -> Context {
        let mut c = Context::new();
        c.register(
            "tweets",
            items_of(vec![
                vec![
                    ("text", Value::str("Hello")),
                    (
                        "user_mentions",
                        Value::Bag(vec![
                            Value::Item(pebble_nested::DataItem::from_fields([(
                                "id_str",
                                Value::str("ls"),
                            )])),
                            Value::Item(pebble_nested::DataItem::from_fields([(
                                "id_str",
                                Value::str("jm"),
                            )])),
                        ]),
                    ),
                    ("retweet_cnt", Value::Int(0)),
                ],
                vec![
                    ("text", Value::str("World")),
                    ("user_mentions", Value::Bag(vec![])),
                    ("retweet_cnt", Value::Int(1)),
                ],
            ]),
        );
        c
    }

    fn config() -> ExecConfig {
        ExecConfig::with_partitions(2)
    }

    #[test]
    fn filter_provenance_shape() {
        let mut b = ProgramBuilder::new();
        let r = b.read("tweets");
        let f = b.filter(r, Expr::col("retweet_cnt").eq(Expr::lit(0i64)));
        let run = run_captured(&b.build(f), &ctx(), config()).unwrap();
        let p = run.op(1);
        assert_eq!(p.op_type, "filter");
        assert_eq!(
            p.inputs[0].accessed.as_deref(),
            Some(&[Path::attr("retweet_cnt")][..])
        );
        assert_eq!(p.manipulated.as_deref(), Some(&[][..]));
        match &p.assoc {
            ProvAssoc::Unary(v) => assert_eq!(v.len(), 1), // one tweet passes
            other => panic!("unexpected assoc {other:?}"),
        }
    }

    #[test]
    fn flatten_provenance_matches_fig3() {
        let mut b = ProgramBuilder::new();
        let r = b.read("tweets");
        let f = b.flatten(r, "user_mentions", "m_user");
        let run = run_captured(&b.build(f), &ctx(), config()).unwrap();
        let p = run.op(1);
        assert_eq!(p.op_type, "flatten");
        // A = {user_mentions[pos]}, M = {⟨user_mentions[pos], m_user⟩}.
        assert_eq!(
            p.inputs[0].accessed.as_deref(),
            Some(&[Path::parse("user_mentions[pos]")][..])
        );
        assert_eq!(
            p.manipulated.as_deref(),
            Some(&[(Path::parse("user_mentions[pos]"), Path::attr("m_user"))][..])
        );
        match &p.assoc {
            ProvAssoc::Flatten(v) => {
                // Tweet 1 has two mentions at positions 1, 2; tweet 2 none.
                assert_eq!(v.len(), 2);
                let read_ids = match &run.op(0).assoc {
                    ProvAssoc::Read(ids) => ids.clone(),
                    _ => unreachable!(),
                };
                assert_eq!(v[0].0, read_ids[0]);
                assert_eq!(v[0].1, 1);
                assert_eq!(v[1].1, 2);
            }
            other => panic!("unexpected assoc {other:?}"),
        }
    }

    #[test]
    fn map_provenance_is_undefined() {
        use pebble_dataflow::MapUdf;
        use std::sync::Arc;
        let mut b = ProgramBuilder::new();
        let r = b.read("tweets");
        let m = b.map(
            r,
            MapUdf {
                name: "noop".into(),
                f: Arc::new(Clone::clone),
                output_schema: None,
            },
        );
        let run = run_captured(&b.build(m), &ctx(), config()).unwrap();
        let p = run.op(1);
        assert_eq!(p.inputs[0].accessed, None); // ⊥, not ∅
        assert_eq!(p.manipulated, None);
    }

    #[test]
    fn aggregation_provenance_records_group_ids() {
        let mut b = ProgramBuilder::new();
        let r = b.read("tweets");
        let g = b.group_aggregate(
            r,
            vec![GroupKey::new("retweet_cnt")],
            vec![AggSpec::new(AggFunc::CollectList, "text", "texts")],
        );
        let run = run_captured(&b.build(g), &ctx(), config()).unwrap();
        let p = run.op(1);
        assert_eq!(p.op_type, "aggregation");
        let m = p.manipulated.as_deref().unwrap();
        assert!(m.contains(&(Path::attr("retweet_cnt"), Path::attr("retweet_cnt"))));
        assert!(m.contains(&(Path::attr("text"), Path::parse("texts[pos]"))));
        match &p.assoc {
            ProvAssoc::Agg(v) => {
                assert_eq!(v.len(), 2); // two groups
                assert!(v.iter().all(|(ids, _)| ids.len() == 1));
            }
            other => panic!("unexpected assoc {other:?}"),
        }
    }

    #[test]
    fn select_provenance_manipulations() {
        let mut b = ProgramBuilder::new();
        let r = b.read("tweets");
        let s = b.select(
            r,
            vec![
                NamedExpr::aliased("tweet", "text"),
                NamedExpr::new(
                    "meta",
                    SelectExpr::strct([("rt", SelectExpr::path("retweet_cnt"))]),
                ),
            ],
        );
        let run = run_captured(&b.build(s), &ctx(), config()).unwrap();
        let p = run.op(1);
        let m = p.manipulated.as_deref().unwrap();
        assert_eq!(
            m,
            [
                (Path::attr("text"), Path::attr("tweet")),
                (Path::attr("retweet_cnt"), Path::parse("meta.rt")),
            ]
        );
        assert_eq!(
            p.inputs[0].accessed.as_deref().unwrap(),
            [Path::attr("text"), Path::attr("retweet_cnt")]
        );
    }

    #[test]
    fn union_and_join_assoc_sides() {
        let mut b = ProgramBuilder::new();
        let l = b.read("tweets");
        let r = b.read("tweets");
        let u = b.union(l, r);
        let run = run_captured(&b.build(u), &ctx(), config()).unwrap();
        let p = run.op(2);
        match &p.assoc {
            ProvAssoc::Binary(v) => {
                assert_eq!(v.len(), 4);
                assert_eq!(v.iter().filter(|(l, _, _)| l.is_some()).count(), 2);
                assert_eq!(v.iter().filter(|(_, r, _)| r.is_some()).count(), 2);
            }
            other => panic!("unexpected assoc {other:?}"),
        }
        assert_eq!(p.inputs.len(), 2);
        assert_eq!(p.inputs[0].accessed.as_deref(), Some(&[][..]));
    }

    #[test]
    fn size_accounting_monotone() {
        let mut b = ProgramBuilder::new();
        let r = b.read("tweets");
        let f = b.flatten(r, "user_mentions", "m_user");
        let run = run_captured(&b.build(f), &ctx(), config()).unwrap();
        assert!(run.structural_bytes() > run.lineage_bytes());
        assert!(run.lineage_bytes() > 0);
    }

    #[test]
    fn capture_does_not_change_result() {
        let mut b = ProgramBuilder::new();
        let r = b.read("tweets");
        let f = b.filter(r, Expr::col("retweet_cnt").eq(Expr::lit(0i64)));
        let p = b.build(f);
        let c = ctx();
        let plain = run(&p, &c, config(), &pebble_dataflow::NoSink).unwrap();
        let captured = run_captured(&p, &c, config()).unwrap();
        assert!(plain.iter_items().eq(captured.output.iter_items()));
    }
}
