//! Persisting a captured run and cold-opening it as a read-only
//! [`ProvStore`].
//!
//! `persist` lowers a [`CapturedRun`] into the segment format of
//! [`crate::segment`]; `ProvStore::from_bytes`/[`ProvStore::open`] load it
//! back without re-running anything. The store implements
//! [`pebble_core::ProvView`], so the *same* backtracing algorithm answers
//! questions from disk as from memory — the in-memory path stays the
//! referee, and every store-backed answer must match it byte for byte.

use std::path::Path as FsPath;

use pebble_core::{
    backtrace_from, Backtrace, BacktraceIndex, CapturedRun, InputProv, OperatorProvenance,
    ProvAssoc, ProvTree, ProvView, SourceProvenance, UnaryRuns,
};
use pebble_dataflow::{EngineError, ItemId, OpId, Row};
use pebble_nested::encode::{
    get_signed, get_str, get_u8, get_varint, put_signed, put_str, put_varint, StringDict,
    StringTable,
};
use pebble_nested::{DataType, Path};

use crate::error::StoreError;
use crate::segment::{
    chunk_table, frame_block, segment_header, BlockIter, Frame, BLOCK_ASSOC, BLOCK_END,
    BLOCK_INDEX, BLOCK_META, BLOCK_OPAUX, BLOCK_ROWS, BLOCK_SCHEMAS,
};

/// Association-table kind tag persisted in the OPAUX block, so operators
/// that streamed zero chunks still decode to a correctly-typed empty table.
fn assoc_kind(assoc: &ProvAssoc) -> u8 {
    match assoc {
        ProvAssoc::Read(_) => 0,
        ProvAssoc::Unary(_) => 1,
        ProvAssoc::Binary(_) => 2,
        ProvAssoc::Flatten(_) => 3,
        ProvAssoc::Agg(_) => 4,
    }
}

fn empty_assoc(kind: u8) -> Result<ProvAssoc, StoreError> {
    Ok(match kind {
        0 => ProvAssoc::Read(Vec::new()),
        1 => ProvAssoc::Unary(UnaryRuns::new()),
        2 => ProvAssoc::Binary(Vec::new()),
        3 => ProvAssoc::Flatten(Vec::new()),
        4 => ProvAssoc::Agg(Vec::new()),
        other => {
            return Err(StoreError::Corrupt(format!(
                "unknown association kind {other}"
            )))
        }
    })
}

fn put_opt_str(buf: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => buf.push(0),
        Some(s) => {
            buf.push(1);
            put_str(buf, s);
        }
    }
}

fn get_opt_str(buf: &mut &[u8]) -> Result<Option<String>, StoreError> {
    Ok(match get_u8(buf)? {
        0 => None,
        1 => Some(get_str(buf)?),
        other => return Err(StoreError::Corrupt(format!("invalid option tag {other}"))),
    })
}

fn put_paths(buf: &mut Vec<u8>, paths: &[Path]) {
    put_varint(buf, paths.len() as u64);
    for p in paths {
        put_str(buf, &p.to_string());
    }
}

fn get_paths(buf: &mut &[u8]) -> Result<Vec<Path>, StoreError> {
    let n = get_varint(buf)? as usize;
    if buf.len() < n {
        return Err(StoreError::Truncated("path list".into()));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let s = get_str(buf)?;
        out.push(parse_path(&s)?);
    }
    Ok(out)
}

fn parse_path(s: &str) -> Result<Path, StoreError> {
    s.parse()
        .map_err(|e| StoreError::Corrupt(format!("invalid path `{s}`: {e}")))
}

// ---------------------------------------------------------------------------
// Persist
// ---------------------------------------------------------------------------

fn encode_meta(run: &CapturedRun, out: &mut Vec<u8>) {
    let mut payload = Vec::with_capacity(16);
    put_varint(&mut payload, run.ops.len() as u64);
    put_varint(&mut payload, run.program.sink() as u64);
    put_varint(&mut payload, run.output.rows.len() as u64);
    frame_block(out, BLOCK_META, &payload);
}

fn encode_schemas(run: &CapturedRun, out: &mut Vec<u8>) {
    let mut payload = Vec::with_capacity(64 * run.output.op_schemas.len());
    put_varint(&mut payload, run.output.op_schemas.len() as u64);
    for ty in &run.output.op_schemas {
        pebble_nested::encode::put_type(&mut payload, ty);
    }
    frame_block(out, BLOCK_SCHEMAS, &payload);
}

fn encode_opaux(run: &CapturedRun, out: &mut Vec<u8>) {
    let mut payload = Vec::with_capacity(128 * run.ops.len());
    put_varint(&mut payload, run.ops.len() as u64);
    for op in &run.ops {
        put_varint(&mut payload, op.oid as u64);
        put_str(&mut payload, &op.op_type);
        put_varint(&mut payload, op.inputs.len() as u64);
        for input in &op.inputs {
            match input.pred {
                None => payload.push(0),
                Some(p) => {
                    payload.push(1);
                    put_varint(&mut payload, p as u64);
                }
            }
            match &input.accessed {
                None => payload.push(0),
                Some(paths) => {
                    payload.push(1);
                    put_paths(&mut payload, paths);
                }
            }
        }
        match &op.manipulated {
            None => payload.push(0),
            Some(pairs) => {
                payload.push(1);
                put_varint(&mut payload, pairs.len() as u64);
                for (a, b) in pairs {
                    put_str(&mut payload, &a.to_string());
                    put_str(&mut payload, &b.to_string());
                }
            }
        }
        payload.push(assoc_kind(&op.assoc));
        put_opt_str(&mut payload, run.read_source(op.oid).ok().as_deref());
        put_paths(&mut payload, &run.countstar_outputs(op.oid));
    }
    frame_block(out, BLOCK_OPAUX, &payload);
}

fn encode_rows(rows: &[Row], out: &mut Vec<u8>) {
    // Two passes: encode items into a temporary buffer while the string
    // table grows, then emit the finished table ahead of the row bytes.
    let mut table = StringTable::with_capacity(rows.len());
    let mut body = Vec::with_capacity(64 * rows.len());
    put_varint(&mut body, rows.len() as u64);
    let mut prev_id = 0u64;
    for row in rows {
        put_signed(&mut body, row.id.wrapping_sub(prev_id) as i64);
        prev_id = row.id;
        pebble_nested::encode::put_item(&mut body, &mut table, &row.item);
    }
    let mut payload = Vec::with_capacity(body.len() + 256);
    table.encode(&mut payload);
    payload.extend_from_slice(&body);
    frame_block(out, BLOCK_ROWS, &payload);
}

/// True when a table's output ids never decrease in table order. Ids are
/// dense and monotone per operator and emission is partition-ordered, so
/// this is the common case — and the stable sort behind
/// [`BacktraceIndex::permutation`] is then the identity. A unary table is
/// checked run by run.
fn out_ids_sorted(assoc: &ProvAssoc) -> bool {
    fn sorted(mut ids: impl Iterator<Item = ItemId>) -> bool {
        let mut prev = 0;
        ids.all(|id| {
            let ok = prev <= id;
            prev = id;
            ok
        })
    }
    match assoc {
        ProvAssoc::Read(v) => sorted(v.iter().copied()),
        ProvAssoc::Unary(v) => v.out_ids_ascend(false),
        ProvAssoc::Binary(v) => sorted(v.iter().map(|e| e.2)),
        ProvAssoc::Flatten(v) => sorted(v.iter().map(|e| e.2)),
        ProvAssoc::Agg(v) => sorted(v.iter().map(|e| e.1)),
    }
}

/// Appends the varints of `0..n`, one width class at a time: the bytes
/// [`put_varint`] would write, without its per-byte loop (a third of the
/// `INDEX` encode on a 390 k-entry run).
fn put_identity(buf: &mut Vec<u8>, n: u64) {
    buf.extend((0..n.min(1 << 7)).map(|p| p as u8));
    for p in 1 << 7..n.min(1 << 14) {
        buf.extend_from_slice(&[p as u8 | 0x80, (p >> 7) as u8]);
    }
    for p in 1 << 14..n.min(1 << 21) {
        buf.extend_from_slice(&[p as u8 | 0x80, (p >> 7) as u8 | 0x80, (p >> 14) as u8]);
    }
    for p in 1 << 21..n {
        put_varint(buf, p);
    }
}

fn encode_index(ops: &[OperatorProvenance], out: &mut Vec<u8>) {
    // Reserved once: no position needs more varint bytes than the longest
    // table's length does.
    let entries: usize = ops.iter().map(|op| op.assoc.len()).sum();
    let longest = ops.iter().map(|op| op.assoc.len()).max().unwrap_or(0);
    let varint_bytes = (usize::BITS - longest.leading_zeros()).div_ceil(7).max(1) as usize;
    let mut payload = Vec::with_capacity((entries + ops.len() + 1) * varint_bytes);
    put_varint(&mut payload, ops.len() as u64);
    for op in ops {
        let n = op.assoc.len();
        put_varint(&mut payload, n as u64);
        if out_ids_sorted(&op.assoc) {
            put_identity(&mut payload, n as u64);
        } else {
            for p in BacktraceIndex::permutation(op) {
                put_varint(&mut payload, p as u64);
            }
        }
    }
    frame_block(out, BLOCK_INDEX, &payload);
}

fn encode_static(run: &CapturedRun, out: &mut Vec<u8>) {
    encode_meta(run, out);
    encode_schemas(run, out);
    encode_opaux(run, out);
}

fn encode_tail(run: &CapturedRun, out: &mut Vec<u8>) {
    encode_rows(&run.output.rows, out);
    encode_index(&run.ops, out);
    frame_block(out, BLOCK_END, &[]);
}

/// Runs `helper` on a scoped thread while the calling thread runs `main`,
/// and returns both results. Both run inline on one CPU, and `helper` does
/// when its thread cannot be spawned; a panic in it resumes on the caller.
fn beside<A: Send, B>(
    helper: impl FnOnce() -> A + Send + Copy,
    main: impl FnOnce() -> B,
) -> (A, B) {
    let parallel = std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;
    std::thread::scope(|scope| {
        let spawned = parallel
            .then(|| std::thread::Builder::new().spawn_scoped(scope, helper).ok())
            .flatten();
        let b = main();
        let a = match spawned {
            Some(spawned) => spawned
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            None => helper(),
        };
        (a, b)
    })
}

/// Serializes a captured run into segment bytes (post-hoc: association
/// tables are chunked from the in-memory capture, one chunk per operator).
///
/// Two tasks encode: the calling thread encodes `ROWS`, the largest block,
/// while a helper encodes the blocks before it and those after it
/// ([`beside`]); the parts are joined in file order.
pub fn persist(run: &CapturedRun) -> Vec<u8> {
    let others = || {
        let mut head = segment_header();
        encode_static(run, &mut head);
        for op in &run.ops {
            frame_block(&mut head, BLOCK_ASSOC, &chunk_table(op));
        }
        let mut tail = Vec::new();
        encode_index(&run.ops, &mut tail);
        frame_block(&mut tail, BLOCK_END, &[]);
        (head, tail)
    };
    let rows = || {
        let mut rows = Vec::new();
        encode_rows(&run.output.rows, &mut rows);
        rows
    };
    let ((head, tail), rows) = beside(others, rows);
    let mut out = Vec::with_capacity(head.len() + rows.len() + tail.len());
    for part in [head, rows, tail] {
        out.extend_from_slice(&part);
    }
    out
}

/// Serializes a captured run around association blocks that were streamed
/// during execution by a [`crate::segment::SegmentSink`] (one chunk per
/// captured batch). Decodes to the same store as [`persist`].
pub fn persist_streamed(run: &CapturedRun, assoc_blocks: &[u8]) -> Vec<u8> {
    let mut out = segment_header();
    encode_static(run, &mut out);
    out.extend_from_slice(assoc_blocks);
    encode_tail(run, &mut out);
    out
}

/// Persists a run to a segment file, returning the byte count written.
pub fn persist_file(run: &CapturedRun, path: &FsPath) -> Result<usize, StoreError> {
    let bytes = persist(run);
    std::fs::write(path, &bytes)?;
    Ok(bytes.len())
}

/// Bytes a naive uncompressed dump of the same run would occupy: fixed
/// 8-byte identifiers for every association column, 4-byte flatten
/// positions, path/schema/source strings, and rows rendered as display
/// text. The `servebench` compression gate compares segment bytes against
/// this.
pub fn naive_dump_bytes(run: &CapturedRun) -> usize {
    let assoc = run.lineage_bytes()
        + run
            .ops
            .iter()
            .map(|o| o.assoc.structural_extra_bytes() + o.path_bytes())
            .sum::<usize>();
    let schemas: usize = run
        .output
        .op_schemas
        .iter()
        .map(|t| format!("{t:?}").len())
        .sum();
    let rows: usize = run
        .output
        .rows
        .iter()
        .map(|r| 8 + format!("{:?}", r.item).len())
        .sum();
    assoc + schemas + rows
}

// ---------------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------------

/// A cold-opened, read-only provenance store: everything the backtracing
/// algorithm and the analysis queries need, decoded from one segment.
pub struct ProvStore {
    sink_op: OpId,
    ops: Vec<OperatorProvenance>,
    schemas: Vec<DataType>,
    read_sources: Vec<Option<String>>,
    countstar: Vec<Vec<Path>>,
    rows: Vec<Row>,
    index: BacktraceIndex,
    on_disk_bytes: usize,
}

/// What the helper task decodes: every block but `ROWS`, in file order.
#[derive(Default)]
struct Tables {
    meta: Option<(usize, OpId, usize)>,
    schemas: Option<Vec<DataType>>,
    ops: Option<Vec<OperatorProvenance>>,
    read_sources: Vec<Option<String>>,
    countstar: Vec<Vec<Path>>,
    orders: Option<Vec<Order>>,
    /// The index, or why the orders do not describe the tables. It is
    /// reported after the cross-block checks of [`finish`]; `None` while
    /// there is no operator table to check against.
    index: Option<Result<BacktraceIndex, StoreError>>,
}

/// One operator's `INDEX` entry: its declared length, and its positions
/// when they are not the identity.
type Order = (usize, Option<Vec<u32>>);

/// A decode error and the position of the block that raised it, so the two
/// open tasks can report the earliest one.
type Located = (usize, StoreError);

impl ProvStore {
    /// Loads a store from a segment file on disk (the cold-open path).
    pub fn open(path: &FsPath) -> Result<ProvStore, StoreError> {
        let bytes = std::fs::read(path)?;
        ProvStore::from_bytes(&bytes)
    }

    /// Decodes a store from segment bytes, validating framing, checksums,
    /// and structural invariants. Never panics on malformed input.
    ///
    /// The framing is walked first. Then two tasks verify and decode the
    /// blocks, each block's checksum checked by the task that reads it: a
    /// helper takes every block but `ROWS`, in file order, and validates
    /// the index orders, while the calling thread decodes `ROWS`
    /// ([`beside`]). The error reported is the one of
    /// the earliest failing block, as a serial walk would report it; a
    /// framing error counts at its position, and the cross-block checks
    /// come last.
    pub fn from_bytes(bytes: &[u8]) -> Result<ProvStore, StoreError> {
        let mut it = BlockIter::parse(bytes)?;
        let mut frames = Vec::new();
        let framing = loop {
            match it.next_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break None,
                Err(e) => break Some((frames.len(), e)),
            }
        };
        let (tables, rows) = beside(
            || decode_tables(&frames, bytes.len()),
            || decode_rows_blocks(&frames),
        );
        match (tables, rows, framing) {
            (Ok(tables), Ok(rows), None) => finish(tables, rows, bytes.len()),
            (tables, rows, framing) => {
                let errors = [tables.err(), rows.err(), framing].into_iter().flatten();
                let (_, first) = errors.min_by_key(|(at, _)| *at).expect("one task failed");
                Err(first)
            }
        }
    }

    /// The sink output rows of the persisted run, in run order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Bytes of the segment this store was loaded from.
    pub fn on_disk_bytes(&self) -> usize {
        self.on_disk_bytes
    }

    /// The decoded operator provenance (for equality checks against the
    /// in-memory referee).
    pub fn ops(&self) -> &[OperatorProvenance] {
        &self.ops
    }

    /// The decoded per-operator schemas.
    pub fn op_schemas(&self) -> &[DataType] {
        &self.schemas
    }

    /// Answers a backtrace against the store using the prepared index —
    /// the same algorithm the in-memory path runs.
    pub fn backtrace(&self, b: Backtrace) -> Result<Vec<SourceProvenance>, EngineError> {
        backtrace_from(self, &self.index, b)
    }

    /// Whole-item backtrace structure for result row `idx`: every path of
    /// the item, marked contributing.
    pub fn whole_item(&self, idx: usize) -> Result<Backtrace, StoreError> {
        let row = self.row(idx)?;
        let paths = Path::path_set(&row.item);
        let tree = ProvTree::from_paths(paths.iter());
        Ok(Backtrace {
            entries: vec![(row.id, tree)],
        })
    }

    /// Backtrace structure for result row `idx` restricted to `paths`.
    pub fn item_with_paths(&self, idx: usize, paths: &[Path]) -> Result<Backtrace, StoreError> {
        let row = self.row(idx)?;
        let tree = ProvTree::from_paths(paths.iter());
        Ok(Backtrace {
            entries: vec![(row.id, tree)],
        })
    }

    fn row(&self, idx: usize) -> Result<&Row, StoreError> {
        self.rows.get(idx).ok_or_else(|| {
            StoreError::BadRequest(format!(
                "row index {idx} out of range ({} result rows)",
                self.rows.len()
            ))
        })
    }
}

impl std::fmt::Debug for ProvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProvStore")
            .field("sink_op", &self.sink_op)
            .field("ops", &self.ops.len())
            .field("rows", &self.rows.len())
            .field("on_disk_bytes", &self.on_disk_bytes)
            .finish_non_exhaustive()
    }
}

impl ProvView for ProvStore {
    fn sink_op(&self) -> OpId {
        self.sink_op
    }

    fn prov_ops(&self) -> &[OperatorProvenance] {
        &self.ops
    }

    fn schemas(&self) -> &[DataType] {
        &self.schemas
    }

    fn read_source(&self, oid: OpId) -> Result<String, EngineError> {
        self.read_sources
            .get(oid as usize)
            .and_then(Clone::clone)
            .ok_or_else(|| EngineError::BacktraceError(format!("operator #{oid} is not a read")))
    }

    fn countstar_outputs(&self, oid: OpId) -> Vec<Path> {
        self.countstar
            .get(oid as usize)
            .cloned()
            .unwrap_or_default()
    }
}

fn decode_meta(mut payload: &[u8], p: &mut Tables) -> Result<(), StoreError> {
    if p.meta.is_some() {
        return Err(StoreError::Corrupt("duplicate meta block".into()));
    }
    let buf = &mut payload;
    let n_ops = get_varint(buf)? as usize;
    let sink = get_varint(buf)?;
    let n_rows = get_varint(buf)? as usize;
    if sink > u32::MAX as u64 {
        return Err(StoreError::Corrupt("sink operator id out of range".into()));
    }
    p.meta = Some((n_ops, sink as OpId, n_rows));
    Ok(())
}

fn decode_schemas(mut payload: &[u8], p: &mut Tables) -> Result<(), StoreError> {
    if p.schemas.is_some() {
        return Err(StoreError::Corrupt("duplicate schema block".into()));
    }
    let buf = &mut payload;
    let n = get_varint(buf)? as usize;
    if buf.len() < n {
        return Err(StoreError::Truncated("schema block".into()));
    }
    let mut schemas = Vec::with_capacity(n);
    for _ in 0..n {
        schemas.push(pebble_nested::encode::get_type(buf)?);
    }
    p.schemas = Some(schemas);
    Ok(())
}

fn decode_opaux(mut payload: &[u8], p: &mut Tables) -> Result<(), StoreError> {
    if p.ops.is_some() {
        return Err(StoreError::Corrupt("duplicate operator table block".into()));
    }
    let buf = &mut payload;
    let n = get_varint(buf)? as usize;
    if buf.len() < n {
        return Err(StoreError::Truncated("operator table block".into()));
    }
    let mut ops = Vec::with_capacity(n);
    let mut sources = Vec::with_capacity(n);
    let mut countstar = Vec::with_capacity(n);
    for i in 0..n {
        let oid = get_varint(buf)?;
        if oid != i as u64 {
            return Err(StoreError::Corrupt(format!(
                "operator #{oid} stored at position {i}"
            )));
        }
        let op_type = get_str(buf)?;
        let n_inputs = get_varint(buf)? as usize;
        if buf.len() < n_inputs {
            return Err(StoreError::Truncated("operator input list".into()));
        }
        let mut inputs = Vec::with_capacity(n_inputs);
        for _ in 0..n_inputs {
            let pred = match get_u8(buf)? {
                0 => None,
                1 => {
                    let pv = get_varint(buf)?;
                    if pv > u32::MAX as u64 {
                        return Err(StoreError::Corrupt(
                            "predecessor operator id out of range".into(),
                        ));
                    }
                    Some(pv as OpId)
                }
                other => return Err(StoreError::Corrupt(format!("invalid option tag {other}"))),
            };
            let accessed = match get_u8(buf)? {
                0 => None,
                1 => Some(get_paths(buf)?),
                other => return Err(StoreError::Corrupt(format!("invalid option tag {other}"))),
            };
            inputs.push(InputProv { pred, accessed });
        }
        let manipulated = match get_u8(buf)? {
            0 => None,
            1 => {
                let n_pairs = get_varint(buf)? as usize;
                if buf.len() < n_pairs {
                    return Err(StoreError::Truncated("manipulated path list".into()));
                }
                let mut pairs = Vec::with_capacity(n_pairs);
                for _ in 0..n_pairs {
                    let a = get_str(buf)?;
                    let b = get_str(buf)?;
                    pairs.push((parse_path(&a)?, parse_path(&b)?));
                }
                Some(pairs)
            }
            other => return Err(StoreError::Corrupt(format!("invalid option tag {other}"))),
        };
        let kind = get_u8(buf)?;
        let source = get_opt_str(buf)?;
        let cs = get_paths(buf)?;
        ops.push(OperatorProvenance {
            oid: i as OpId,
            op_type,
            inputs,
            manipulated,
            assoc: empty_assoc(kind)?,
        });
        sources.push(source);
        countstar.push(cs);
    }
    p.ops = Some(ops);
    p.read_sources = sources;
    p.countstar = countstar;
    Ok(())
}

/// The helper task: verifies and decodes every block but `ROWS` in file
/// order, then validates the index orders against the tables.
fn decode_tables(frames: &[Frame], max_entries: usize) -> Result<Tables, Located> {
    let mut p = Tables::default();
    for (at, frame) in frames.iter().enumerate() {
        if frame.ty == BLOCK_ROWS {
            continue;
        }
        decode_table_block(frame, &mut p, max_entries).map_err(|e| (at, e))?;
    }
    p.index = p.ops.as_ref().map(|ops| match p.orders.take() {
        Some(orders) => {
            // An identity entry whose length is not its table's stays a
            // permutation, so the check reports it as one.
            let orders = orders
                .into_iter()
                .enumerate()
                .map(|(i, (len, perm))| {
                    perm.or_else(|| {
                        (ops.get(i).map(|op| op.assoc.len()) != Some(len))
                            .then(|| (0..len as u32).collect())
                    })
                })
                .collect();
            BacktraceIndex::from_sorted(ops, orders).map_err(|e| StoreError::Corrupt(e.to_string()))
        }
        None => Ok(BacktraceIndex::build_ops(ops)),
    });
    Ok(p)
}

fn decode_table_block(frame: &Frame, p: &mut Tables, max_entries: usize) -> Result<(), StoreError> {
    let payload = frame.verify()?;
    match frame.ty {
        BLOCK_META => decode_meta(payload, p),
        BLOCK_SCHEMAS => decode_schemas(payload, p),
        BLOCK_OPAUX => decode_opaux(payload, p),
        BLOCK_ASSOC => {
            let ops = p
                .ops
                .as_mut()
                .ok_or_else(|| StoreError::Corrupt("assoc chunk before operator table".into()))?;
            crate::segment::apply_chunk(payload, ops, max_entries)
        }
        BLOCK_INDEX => decode_index(payload, p),
        other => Err(StoreError::Corrupt(format!("unknown block type {other}"))),
    }
}

/// The calling thread's task: verifies and decodes the `ROWS` block.
fn decode_rows_blocks(frames: &[Frame]) -> Result<Option<Vec<Row>>, Located> {
    let mut rows = None;
    for (at, frame) in frames.iter().enumerate() {
        if frame.ty != BLOCK_ROWS {
            continue;
        }
        let decoded = frame.verify().and_then(|payload| {
            if rows.is_some() {
                return Err(StoreError::Corrupt("duplicate row block".into()));
            }
            decode_rows(payload)
        });
        rows = Some(decoded.map_err(|e| (at, e))?);
    }
    Ok(rows)
}

fn decode_rows(mut payload: &[u8]) -> Result<Vec<Row>, StoreError> {
    let buf = &mut payload;
    let dict = StringDict::decode(buf)?;
    let n = get_varint(buf)? as usize;
    if buf.len() < n {
        return Err(StoreError::Truncated("row block".into()));
    }
    let mut rows = Vec::with_capacity(n);
    let mut prev_id = 0u64;
    for _ in 0..n {
        prev_id = prev_id.wrapping_add(get_signed(buf)? as u64);
        let item = pebble_nested::encode::get_item(buf, &dict)?;
        rows.push(Row {
            id: prev_id as ItemId,
            item,
        });
    }
    if !buf.is_empty() {
        return Err(StoreError::Corrupt("trailing bytes in row block".into()));
    }
    Ok(rows)
}

/// How many of the positions `0..len` open `buf` as the varints
/// [`put_identity`] writes, and the bytes they take: the identity check of
/// an `INDEX` entry one width class at a time, with no varint decoded.
fn identity_prefix(buf: &[u8], len: usize) -> (usize, usize) {
    /// How many of the `n` positions from `first` on, all `W` varint bytes
    /// wide, lead `buf`.
    fn class<const W: usize>(buf: &[u8], first: u64, n: usize) -> usize {
        buf[..n * W]
            .chunks_exact(W)
            .zip(first..)
            .take_while(|(bytes, p)| {
                (0..W).all(|k| {
                    let more = if k + 1 < W { 0x80 } else { 0 };
                    bytes[k] == (p >> (7 * k)) as u8 | more
                })
            })
            .count()
    }
    let (mut j, mut at) = (0, 0);
    for width in 1..=3 {
        let end = len.min(1 << (7 * width));
        let n = end.saturating_sub(j).min((buf.len() - at) / width);
        let rest = &buf[at..];
        let matched = match width {
            1 => class::<1>(rest, j as u64, n),
            2 => class::<2>(rest, j as u64, n),
            _ => class::<3>(rest, j as u64, n),
        };
        j += matched;
        at += matched * width;
        if j < end {
            break;
        }
    }
    (j, at)
}

/// Decodes the `INDEX` block. An entry that lists its table's positions in
/// order (every entry the engine's tables produce) stays a length, checked
/// by [`identity_prefix`]: a permutation is materialised only from an
/// entry's first out-of-order position.
fn decode_index(mut payload: &[u8], p: &mut Tables) -> Result<(), StoreError> {
    if p.orders.is_some() {
        return Err(StoreError::Corrupt("duplicate index block".into()));
    }
    let buf = &mut payload;
    let n = get_varint(buf)? as usize;
    if buf.len() < n {
        return Err(StoreError::Truncated("index block".into()));
    }
    let mut orders = Vec::with_capacity(n);
    for _ in 0..n {
        let len = get_varint(buf)? as usize;
        if buf.len() < len {
            return Err(StoreError::Truncated("index permutation".into()));
        }
        let (identity, used) = identity_prefix(buf, len);
        *buf = &buf[used..];
        let mut perm: Option<Vec<u32>> = None;
        for j in identity..len {
            let v = get_varint(buf)?;
            if v > u32::MAX as u64 {
                return Err(StoreError::Corrupt(
                    "index permutation entry out of range".into(),
                ));
            }
            match &mut perm {
                Some(perm) => perm.push(v as u32),
                None if v == j as u64 => {}
                None => {
                    let mut positions = Vec::with_capacity(len);
                    positions.extend(0..j as u32);
                    positions.push(v as u32);
                    perm = Some(positions);
                }
            }
        }
        orders.push((len, perm));
    }
    p.orders = Some(orders);
    Ok(())
}

/// Structural validation: everything that must hold for the backtracing
/// algorithm to run panic-free over the decoded data.
fn finish(
    p: Tables,
    rows: Option<Vec<Row>>,
    on_disk_bytes: usize,
) -> Result<ProvStore, StoreError> {
    let (n_ops, sink_op, n_rows) = p
        .meta
        .ok_or_else(|| StoreError::Corrupt("missing meta block".into()))?;
    let schemas = p
        .schemas
        .ok_or_else(|| StoreError::Corrupt("missing schema block".into()))?;
    let ops = p
        .ops
        .ok_or_else(|| StoreError::Corrupt("missing operator table block".into()))?;
    let rows = rows.ok_or_else(|| StoreError::Corrupt("missing row block".into()))?;
    if n_ops == 0 {
        return Err(StoreError::Corrupt("segment has no operators".into()));
    }
    if ops.len() != n_ops {
        return Err(StoreError::Corrupt(format!(
            "operator table has {} entries, meta declares {n_ops}",
            ops.len()
        )));
    }
    if schemas.len() != n_ops {
        return Err(StoreError::Corrupt(format!(
            "schema block has {} entries for {n_ops} operators",
            schemas.len()
        )));
    }
    if rows.len() != n_rows {
        return Err(StoreError::Corrupt(format!(
            "row block has {} rows, meta declares {n_rows}",
            rows.len()
        )));
    }
    if (sink_op as usize) >= n_ops {
        return Err(StoreError::Corrupt(format!(
            "sink operator #{sink_op} out of range for {n_ops} operators"
        )));
    }
    for (i, op) in ops.iter().enumerate() {
        // Backtracing walks `inputs[k].pred` unconditionally for non-read
        // operators; reject anything that would make that walk panic.
        let min_inputs = match &op.assoc {
            ProvAssoc::Read(_) => 0,
            ProvAssoc::Binary(_) => 2,
            _ => 1,
        };
        if op.inputs.len() < min_inputs {
            return Err(StoreError::Corrupt(format!(
                "operator #{i} ({}) has {} inputs, needs at least {min_inputs}",
                op.op_type,
                op.inputs.len()
            )));
        }
        if !matches!(op.assoc, ProvAssoc::Read(_)) {
            for (k, input) in op.inputs.iter().enumerate() {
                let Some(pred) = input.pred else {
                    return Err(StoreError::Corrupt(format!(
                        "operator #{i} input {k} has no predecessor"
                    )));
                };
                if pred as usize >= n_ops {
                    return Err(StoreError::Corrupt(format!(
                        "operator #{i} input {k} references operator #{pred}, \
                         only {n_ops} exist"
                    )));
                }
            }
        }
        if matches!(op.assoc, ProvAssoc::Read(_)) && p.read_sources[i].is_none() {
            return Err(StoreError::Corrupt(format!(
                "read operator #{i} has no source name"
            )));
        }
    }
    // The helper task checked the orders; their verdict comes last.
    let index = p.index.expect("an operator table has an index verdict")?;
    Ok(ProvStore {
        sink_op,
        ops,
        schemas,
        read_sources: p.read_sources,
        countstar: p.countstar,
        rows,
        index,
        on_disk_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_core::run_captured;
    use pebble_dataflow::{AggFunc, AggSpec, ExecConfig, GroupKey, NamedExpr, ProgramBuilder};
    use pebble_workloads::{dblp_context, dblp_scenarios, twitter_context, twitter_scenarios};

    /// The `INDEX` payload as it was always specified: every table's stable
    /// sort permutation by output id.
    fn index_by_permutation(ops: &[OperatorProvenance]) -> Vec<u8> {
        let mut payload = Vec::new();
        put_varint(&mut payload, ops.len() as u64);
        for op in ops {
            let perm = BacktraceIndex::permutation(op);
            put_varint(&mut payload, perm.len() as u64);
            for p in perm {
                put_varint(&mut payload, p as u64);
            }
        }
        let mut out = Vec::new();
        frame_block(&mut out, BLOCK_INDEX, &payload);
        out
    }

    fn assert_index_is_permutation(ops: &[OperatorProvenance], what: &str) {
        let mut fast = Vec::new();
        encode_index(ops, &mut fast);
        assert!(fast == index_by_permutation(ops), "{what}: INDEX block");
    }

    #[test]
    fn index_fast_path_equals_permutation_on_captured_runs() {
        let runs = twitter_scenarios()
            .into_iter()
            .map(|s| (s, twitter_context(120)))
            .chain(dblp_scenarios().into_iter().map(|s| (s, dblp_context(120))));
        let mut scenarios = 0;
        for (scenario, ctx) in runs {
            for parts in [1, 3] {
                let config = ExecConfig::with_partitions(parts);
                let run = run_captured(&scenario.program, &ctx, config).unwrap();
                assert!(run.ops.iter().any(|op| !op.assoc.is_empty()));
                assert_index_is_permutation(&run.ops, &format!("{} p={parts}", scenario.name));
            }
            scenarios += 1;
        }
        assert_eq!(scenarios, 10);

        // A group-by output is key-sorted, so the select after it is the one
        // shape whose *input* ids are not consecutive; its output ids are.
        let ctx = twitter_context(120);
        let mut b = ProgramBuilder::new();
        let r = b.read("tweets");
        let g = b.group_aggregate(
            r,
            vec![GroupKey::new("user.id_str")],
            vec![AggSpec::new(AggFunc::Count, "", "n")],
        );
        let s = b.select(g, vec![NamedExpr::aliased("n", "n")]);
        let run = run_captured(&b.build(s), &ctx, ExecConfig::with_partitions(3)).unwrap();
        let ProvAssoc::Unary(runs) = &run.ops[2].assoc else {
            panic!("select carries a unary table");
        };
        let pairs: Vec<_> = runs.pairs().collect();
        assert!(pairs.len() > 3 && pairs.windows(2).any(|w| w[1].0 < w[0].0));
        assert_index_is_permutation(&run.ops, "group-by → select");
    }

    #[test]
    fn identity_prefix_reads_what_put_identity_writes() {
        for n in [
            0,
            1,
            127,
            128,
            129,
            (1 << 14) - 1,
            1 << 14,
            (1 << 14) + 9,
            (1 << 21) + 3,
        ] {
            let mut buf = Vec::new();
            put_identity(&mut buf, n as u64);
            // Positions from 2^21 on are left to the varint loop.
            let checked = n.min(1 << 21);
            let mut head = Vec::new();
            put_identity(&mut head, checked as u64);
            assert_eq!(identity_prefix(&buf, n), (checked, head.len()), "n = {n}");
            if n == 0 {
                continue;
            }
            // A wrong position, or a truncated buffer, ends the prefix.
            for at in [0, n / 2, n - 1].map(|at: usize| at.min(checked - 1)) {
                let mut bad = Vec::new();
                put_identity(&mut bad, at as u64);
                put_varint(&mut bad, at as u64 + 1);
                assert_eq!(identity_prefix(&bad, n).0, at, "n = {n}, at {at}");
            }
            assert_eq!(identity_prefix(&head[..head.len() - 1], n).0, checked - 1);
        }
    }

    #[test]
    fn identity_positions_are_plain_varints() {
        let edges = [0, 1, 127, 128, 129, (1 << 14) - 1, 1 << 14, (1 << 14) + 1];
        for n in edges
            .into_iter()
            .chain([(1 << 21) - 1, 1 << 21, (1 << 21) + 50])
        {
            let mut fast = Vec::new();
            put_identity(&mut fast, n);
            let mut plain = Vec::new();
            for p in 0..n {
                put_varint(&mut plain, p);
            }
            assert!(fast == plain, "n = {n}");
        }
    }

    /// Tables whose output ids are *not* ascending take the sort: descending,
    /// shuffled, and with ties (the sort is stable, ties keep table order).
    #[test]
    fn index_of_unsorted_tables_is_the_sort_permutation() {
        let op = |oid: OpId, assoc: ProvAssoc| OperatorProvenance {
            oid,
            op_type: "x".into(),
            inputs: vec![],
            manipulated: None,
            assoc,
        };
        let ops = vec![
            op(0, ProvAssoc::Read(vec![9, 8, 7, 3])),
            op(
                1,
                ProvAssoc::Unary(UnaryRuns::from_pairs([(1, 30), (2, 10), (3, 20), (4, 10)])),
            ),
            op(
                2,
                ProvAssoc::Binary(vec![(Some(1), None, 5), (None, Some(2), 4)]),
            ),
            op(3, ProvAssoc::Flatten(vec![(1, 1, 2), (1, 2, 1), (2, 1, 3)])),
            op(4, ProvAssoc::Agg(vec![(vec![1, 2], 7), (vec![3], 6)])),
            op(
                5,
                ProvAssoc::Unary(UnaryRuns::from_pairs([(1, 5), (2, 5), (3, 6)])),
            ),
            op(6, ProvAssoc::Unary(UnaryRuns::new())),
        ];
        for o in &ops[..5] {
            assert!(!out_ids_sorted(&o.assoc), "operator #{}", o.oid);
        }
        assert!(out_ids_sorted(&ops[5].assoc) && out_ids_sorted(&ops[6].assoc));
        assert_index_is_permutation(&ops, "hand-built tables");
    }
}
