//! Out-of-core support: memory accounting and spill files.
//!
//! The morsel scheduler runs under an optional memory budget
//! ([`crate::ExecConfig::mem_budget_bytes`]). A
//! [`MemoryTracker`] accounts for pipeline-resident state (materialized
//! unit outputs); when adding more state would exceed the budget, the
//! scheduler spills it to disk instead:
//!
//! * unit outputs are encoded morsel-by-morsel into checksummed blocks
//!   (the segment framing of `pebble-serve`, factored into
//!   [`pebble_nested::encode`]) and re-read block-at-a-time by consumer
//!   jobs — a spilled block is simply a morsel, and the scheduler's
//!   stitching is specified byte-identical at any morsel size, so results
//!   and provenance do not change;
//! * join build sides grace-hash partition into on-disk buckets that the
//!   probe phase re-reads and processes one at a time;
//! * group shuffle buckets stream to per-bucket files consumed by the
//!   aggregation jobs.
//!
//! Spill files live in a per-run subdirectory of the system temp dir
//! ([`base_dir`]; `TMPDIR` moves it) and are removed when the run's
//! `SpillDir` drops. Every block is CRC-framed; a corrupt or truncated
//! re-read surfaces as a typed [`EngineError::SpillError`] — never a
//! panic, and never a message containing a filesystem path (spill paths
//! are per-run, and failing runs are compared by their `Display`
//! rendering).

use std::fs;
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use pebble_nested::encode::{
    crc32, get_ids_delta, get_item, get_varint, put_ids_delta, put_item, put_varint, take_frame,
    CodecError, StringDict, StringTable,
};

use crate::error::{EngineError, Result};
use crate::exec::Row;
use crate::op::OpId;

/// Block type tag for a spilled row block (the only tag spill files use;
/// the framing is shared with the richer segment format).
pub(crate) const BLOCK_SPILL_ROWS: u8 = 0x52; // 'R'
pub(crate) const BLOCK_SPILL_ROWS_SHARED: u8 = 0x53; // 'S'

/// Central accountant for pipeline-resident bytes.
///
/// `budget == 0` disables tracking entirely (the unlimited in-memory
/// path). All mutation happens on the scheduler thread; the atomics exist
/// so the capture layer can share the same type.
#[derive(Debug, Default)]
pub struct MemoryTracker {
    budget: usize,
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl MemoryTracker {
    /// Tracker with the given budget (`0` = unlimited, tracking off).
    pub fn new(budget: usize) -> Self {
        MemoryTracker {
            budget,
            current: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Whether a budget is in force.
    pub fn enabled(&self) -> bool {
        self.budget > 0
    }

    /// The configured budget in bytes (`0` = unlimited).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Would tracking `extra` more bytes exceed the budget?
    pub fn would_exceed(&self, extra: usize) -> bool {
        self.enabled() && self.current.load(Ordering::Relaxed).saturating_add(extra) > self.budget
    }

    /// Tracks `bytes` of newly resident state.
    pub fn add(&self, bytes: usize) {
        if !self.enabled() {
            return;
        }
        let now = self.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Releases `bytes` of tracked state.
    pub fn sub(&self, bytes: usize) {
        if !self.enabled() {
            return;
        }
        self.current.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Currently tracked bytes.
    pub fn current(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// High-water mark of tracked bytes.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Approximate resident footprint of one [`Row`].
pub(crate) fn row_bytes(row: &Row) -> usize {
    std::mem::size_of::<Row>() + row.item.deep_size()
}

/// Resident cost of a row whose item aliases data that outlives the run
/// (e.g. a scan of a `Context` source): the `Row` struct plus the shared
/// handle — spilling such rows cannot release the aliased bytes.
pub(crate) const ROW_SHELL_BYTES: usize = std::mem::size_of::<Row>() + 8;

/// Row count up to which footprint estimates walk every row; larger
/// slices are sampled (see [`rows_bytes`]).
const SIZE_SAMPLE_EXACT: usize = 256;
/// Rows sampled (evenly strided) from a large slice to estimate its
/// footprint.
const SIZE_SAMPLE_ROWS: usize = 128;

/// Approximate resident footprint of a slice of rows.
///
/// Small slices are measured exactly; large ones deterministically sample
/// an even stride of rows and scale up. The estimate only feeds the
/// memory-budget spill decision — results are byte-identical whichever
/// way the decision goes, so trading a little accuracy for not deep-
/// walking hundreds of thousands of rows per operator output is free.
pub(crate) fn rows_bytes(rows: &[Row]) -> usize {
    if rows.len() <= SIZE_SAMPLE_EXACT {
        return rows.iter().map(row_bytes).sum();
    }
    let stride = rows.len().div_ceil(SIZE_SAMPLE_ROWS);
    let mut sampled = 0usize;
    let mut count = 0usize;
    let mut i = 0;
    while i < rows.len() {
        sampled += row_bytes(&rows[i]);
        count += 1;
        i += stride;
    }
    sampled * rows.len() / count.max(1)
}

/// Approximate resident footprint of a partitioned row set.
pub(crate) fn parts_bytes(parts: &[Vec<Row>]) -> usize {
    parts.iter().map(|p| rows_bytes(p)).sum()
}

static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Per-run scratch directory name prefixes this process (and its peers)
/// create under the spill base; stale-sweep candidates.
const RUN_DIR_PREFIXES: [&str; 2] = ["pebble-spill-", "pebble-capture-"];

/// Removes sibling per-run scratch directories left behind by processes
/// that died before their `Drop` ran (kill -9, panic=abort). Returns the
/// number of directories removed.
///
/// Only directories named `pebble-spill-<pid>-<seq>` or
/// `pebble-capture-<pid>-<seq>` whose pid is provably dead are touched.
/// Liveness is probed via `/proc/<pid>`; where that is unavailable every
/// pid counts as alive and nothing is swept. A pid that was reused by an
/// unrelated live process therefore also counts as alive — the orphan dir
/// survives until that pid dies, which is the safe side of the collision.
fn sweep_stale_run_dirs(base: &Path) -> usize {
    let Ok(entries) = fs::read_dir(base) else {
        return 0;
    };
    let mut swept = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = run_dir_pid(name.to_str().unwrap_or("")) else {
            continue;
        };
        if pid == std::process::id() || pid_alive(pid) {
            continue;
        }
        let is_dir = entry.file_type().map(|t| t.is_dir()).unwrap_or(false);
        if is_dir && fs::remove_dir_all(entry.path()).is_ok() {
            swept += 1;
        }
    }
    swept
}

/// The owning pid of a per-run scratch directory name, or `None` when the
/// name does not match `<prefix><pid>-<seq>` with numeric pid and seq.
fn run_dir_pid(name: &str) -> Option<u32> {
    let rest = RUN_DIR_PREFIXES.iter().find_map(|p| name.strip_prefix(p))?;
    let (pid, seq) = rest.split_once('-')?;
    if seq.is_empty() || !seq.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    pid.parse::<u32>().ok()
}

/// Whether a process with this pid is currently running. Conservative:
/// without a `/proc` to consult, everything is considered alive.
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new("/proc").join(pid.to_string()).exists()
    } else {
        true
    }
}

/// The directory every per-run spill directory (engine and capture layer)
/// is created in: the system temp dir, i.e. `TMPDIR` on Unix. Stale run
/// directories under it are swept once per process per path — runs under
/// a budget are frequent and the readdir need not be repaid on every one.
pub fn base_dir() -> PathBuf {
    use std::collections::HashSet;
    use std::sync::OnceLock;
    static SWEPT: OnceLock<std::sync::Mutex<HashSet<PathBuf>>> = OnceLock::new();
    let base = std::env::temp_dir();
    let mut seen = SWEPT
        .get_or_init(|| std::sync::Mutex::new(HashSet::new()))
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    if seen.insert(base.clone()) {
        sweep_stale_run_dirs(&base);
    }
    base
}

/// A per-run spill directory under [`base_dir`], removed (with everything
/// in it) on drop. The subdirectory name is unique per process and run.
#[derive(Debug)]
pub(crate) struct SpillDir {
    path: PathBuf,
    created: std::sync::Mutex<bool>,
}

impl SpillDir {
    pub(crate) fn for_run() -> SpillDir {
        let base = base_dir();
        let unique = format!(
            "pebble-spill-{}-{}",
            std::process::id(),
            RUN_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        SpillDir {
            path: base.join(unique),
            created: std::sync::Mutex::new(false),
        }
    }

    /// Absolute path of a (not yet created) spill file inside the run
    /// directory, creating the directory on first use.
    pub(crate) fn file(&self, name: &str) -> Result<PathBuf, std::io::Error> {
        let mut created = self.created.lock().unwrap_or_else(|p| p.into_inner());
        if !*created {
            fs::create_dir_all(&self.path)?;
            *created = true;
        }
        Ok(self.path.join(name))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let created = self.created.lock().map(|c| *c).unwrap_or(true);
        if created {
            let _ = fs::remove_dir_all(&self.path);
        }
    }
}

/// Location of one encoded block within a spill file.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BlockMeta {
    pub(crate) offset: u64,
    pub(crate) len: usize,
    pub(crate) rows: usize,
}

/// Encodes a row block: row count, delta-encoded ids, a block-local string
/// table, then the items.
///
/// The frame is assembled in place (type byte, fixed-width length
/// placeholder patched at the end, body, checksum) rather than through
/// [`frame_block`]: spilling moves hundreds of megabytes per budgeted run
/// and the extra whole-payload copy is measurable. The bytes produced are
/// identical.
pub(crate) fn encode_row_block(rows: &[Row]) -> Vec<u8> {
    // Items go to a scratch buffer first — the wire format puts the string
    // table (only known after encoding them) ahead of the item bytes.
    let mut table = StringTable::new();
    let mut items = Vec::with_capacity(rows.len() * 128);
    for row in rows {
        put_item(&mut items, &mut table, &row.item);
    }
    let mut out = Vec::with_capacity(items.len() + items.len() / 4 + rows.len() * 2 + 64);
    out.push(BLOCK_SPILL_ROWS);
    out.extend_from_slice(&[0u8; 4]); // length, patched below
    let body_start = out.len();
    let ids: Vec<u64> = rows.iter().map(|r| r.id).collect();
    put_ids_delta(&mut out, &ids);
    table.encode(&mut out);
    put_varint(&mut out, items.len() as u64);
    out.extend_from_slice(&items);
    let body_len = (out.len() - body_start) as u32;
    out[1..5].copy_from_slice(&body_len.to_le_bytes());
    let crc = crc32(&out[body_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Encodes a row block whose string table lives at file scope: the block
/// carries only the strings `table` had not seen before (see
/// [`StringTable::encode_from`]). On workloads where string payloads recur
/// across blocks — the common case for join outputs, where the same text
/// joins against many rows — this writes each unique string once per file
/// instead of once per block. Only valid for files read sequentially from
/// the start ([`SpilledBucket`]); randomly accessed files keep
/// self-contained blocks.
pub(crate) fn encode_row_block_shared(rows: &[Row], table: &mut StringTable) -> Vec<u8> {
    let mark = table.len();
    let mut items = Vec::with_capacity(rows.len() * 128);
    for row in rows {
        put_item(&mut items, table, &row.item);
    }
    let mut out = Vec::with_capacity(items.len() + items.len() / 4 + rows.len() * 2 + 64);
    out.push(BLOCK_SPILL_ROWS_SHARED);
    out.extend_from_slice(&[0u8; 4]); // length, patched below
    let body_start = out.len();
    let ids: Vec<u64> = rows.iter().map(|r| r.id).collect();
    put_ids_delta(&mut out, &ids);
    table.encode_from(mark, &mut out);
    put_varint(&mut out, items.len() as u64);
    out.extend_from_slice(&items);
    let body_len = (out.len() - body_start) as u32;
    out[1..5].copy_from_slice(&body_len.to_le_bytes());
    let crc = crc32(&out[body_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes one framed block written by [`encode_row_block_shared`],
/// appending its table delta to `dict`. Blocks must be decoded in file
/// order into one running dictionary, as the writer encoded them.
pub(crate) fn decode_row_block_shared(
    mut bytes: &[u8],
    dict: &mut StringDict,
) -> Result<Vec<Row>, CodecError> {
    let (ty, payload) = take_frame(&mut bytes)?;
    if ty != BLOCK_SPILL_ROWS_SHARED {
        return Err(CodecError(format!("unexpected spill block type {ty}")));
    }
    if !bytes.is_empty() {
        return Err(CodecError("trailing bytes after spill block".into()));
    }
    let mut cur = payload;
    let ids = get_ids_delta(&mut cur)?;
    dict.decode_append(&mut cur)?;
    let items_len = get_varint(&mut cur)? as usize;
    if cur.len() != items_len {
        return Err(CodecError(
            "spill block item section length mismatch".into(),
        ));
    }
    let mut rows = Vec::with_capacity(ids.len());
    for id in ids {
        let item = get_item(&mut cur, dict)?;
        rows.push(Row { id, item });
    }
    if !cur.is_empty() {
        return Err(CodecError("trailing bytes after spill block items".into()));
    }
    Ok(rows)
}

/// Decodes one framed row block written by [`encode_row_block`].
pub(crate) fn decode_row_block(mut bytes: &[u8]) -> Result<Vec<Row>, CodecError> {
    let (ty, payload) = take_frame(&mut bytes)?;
    if ty != BLOCK_SPILL_ROWS {
        return Err(CodecError(format!("unexpected spill block type {ty}")));
    }
    if !bytes.is_empty() {
        return Err(CodecError("trailing bytes after spill block".into()));
    }
    let mut cur = payload;
    let ids = get_ids_delta(&mut cur)?;
    let dict = StringDict::decode(&mut cur)?;
    let items_len = get_varint(&mut cur)? as usize;
    if cur.len() != items_len {
        return Err(CodecError(
            "spill block item section length mismatch".into(),
        ));
    }
    let mut rows = Vec::with_capacity(ids.len());
    for id in ids {
        let item = get_item(&mut cur, &dict)?;
        rows.push(Row { id, item });
    }
    if !cur.is_empty() {
        return Err(CodecError("trailing bytes after spill block items".into()));
    }
    Ok(rows)
}

/// Append-only writer of framed row blocks for one spill file.
pub(crate) struct SpillWriter {
    file: std::io::BufWriter<fs::File>,
    offset: u64,
    op: OpId,
}

impl SpillWriter {
    /// Creates (truncates) the spill file at `path`. Any I/O failure is a
    /// [`EngineError::SpillError`] attributed to `op`.
    pub(crate) fn create(op: OpId, path: &Path) -> Result<SpillWriter> {
        crate::fault::check_spill(op)?;
        let file = fs::File::create(path).map_err(|e| spill_io(op, "create spill file", &e))?;
        Ok(SpillWriter {
            file: std::io::BufWriter::new(file),
            offset: 0,
            op,
        })
    }

    /// Appends `rows` as one framed block, returning its location.
    pub(crate) fn write_rows(&mut self, rows: &[Row]) -> Result<BlockMeta> {
        crate::fault::check_spill(self.op)?;
        let block = encode_row_block(rows);
        self.file
            .write_all(&block)
            .map_err(|e| spill_io(self.op, "write spill block", &e))?;
        let meta = BlockMeta {
            offset: self.offset,
            len: block.len(),
            rows: rows.len(),
        };
        self.offset += block.len() as u64;
        Ok(meta)
    }

    /// Appends `rows` as one shared-table block (see
    /// [`encode_row_block_shared`]), returning its location.
    pub(crate) fn write_rows_shared(
        &mut self,
        rows: &[Row],
        table: &mut StringTable,
    ) -> Result<BlockMeta> {
        crate::fault::check_spill(self.op)?;
        let block = encode_row_block_shared(rows, table);
        self.file
            .write_all(&block)
            .map_err(|e| spill_io(self.op, "write spill block", &e))?;
        let meta = BlockMeta {
            offset: self.offset,
            len: block.len(),
            rows: rows.len(),
        };
        self.offset += block.len() as u64;
        Ok(meta)
    }

    /// Flushes buffered bytes and returns the total file length.
    pub(crate) fn finish(mut self) -> Result<u64> {
        self.file
            .flush()
            .map_err(|e| spill_io(self.op, "flush spill file", &e))?;
        Ok(self.offset)
    }
}

pub(crate) fn spill_io(op: OpId, what: &str, e: &std::io::Error) -> EngineError {
    // `kind()` keeps the message free of filesystem paths.
    EngineError::SpillError {
        op,
        message: format!("{what}: {}", e.kind()),
    }
}

fn spill_codec(op: OpId, e: &CodecError) -> EngineError {
    EngineError::SpillError {
        op,
        message: format!("reload spill block: {e}"),
    }
}

/// One operator's spilled output partitions: blocks of rows in a single
/// file, block boundaries chosen at spill time from the run's morsel
/// length. The file is removed when the last reference drops.
#[derive(Debug)]
pub(crate) struct SpilledRows {
    path: PathBuf,
    /// Per output partition, the blocks holding its rows, in row order.
    pub(crate) parts: Vec<Vec<BlockMeta>>,
    /// Row count per partition.
    pub(crate) part_rows: Vec<usize>,
    /// Total encoded bytes.
    pub(crate) bytes: u64,
    /// Operator the rows belong to (spill errors attribute here).
    pub(crate) op: OpId,
}

impl SpilledRows {
    /// Spills `parts` to `path`, cutting blocks of at most `block_rows`
    /// rows (matching the run's morsel length keeps downstream morsel
    /// boundaries identical to the in-memory path).
    pub(crate) fn write(
        op: OpId,
        path: PathBuf,
        parts: &[Vec<Row>],
        block_rows: usize,
    ) -> Result<SpilledRows> {
        let block_rows = block_rows.max(1);
        let mut writer = SpillWriter::create(op, &path)?;
        let mut metas: Vec<Vec<BlockMeta>> = Vec::with_capacity(parts.len());
        let mut part_rows = Vec::with_capacity(parts.len());
        for rows in parts {
            let mut blocks = Vec::with_capacity(rows.len().div_ceil(block_rows.max(1)));
            for chunk in rows.chunks(block_rows) {
                blocks.push(writer.write_rows(chunk)?);
            }
            metas.push(blocks);
            part_rows.push(rows.len());
        }
        let bytes = writer.finish()?;
        Ok(SpilledRows {
            path,
            parts: metas,
            part_rows,
            bytes,
            op,
        })
    }

    /// Total row count across partitions.
    pub(crate) fn total_rows(&self) -> usize {
        self.part_rows.iter().sum()
    }

    /// Reads one block's raw framed bytes.
    fn read_block_bytes(&self, meta: BlockMeta) -> Result<Vec<u8>> {
        let mut file =
            fs::File::open(&self.path).map_err(|e| spill_io(self.op, "open spill file", &e))?;
        file.seek(SeekFrom::Start(meta.offset))
            .map_err(|e| spill_io(self.op, "seek spill file", &e))?;
        let mut buf = vec![0u8; meta.len];
        file.read_exact(&mut buf)
            .map_err(|e| spill_io(self.op, "read spill block", &e))?;
        Ok(buf)
    }

    /// Reads and decodes one block.
    pub(crate) fn read_block(&self, meta: BlockMeta) -> Result<Vec<Row>> {
        let buf = self.read_block_bytes(meta)?;
        decode_row_block(&buf).map_err(|e| spill_codec(self.op, &e))
    }

    /// Reads every block of every partition back into memory, in order.
    pub(crate) fn load(&self) -> Result<Vec<Vec<Row>>> {
        let mut parts = Vec::with_capacity(self.parts.len());
        for blocks in &self.parts {
            let mut rows = Vec::new();
            for &meta in blocks {
                rows.extend(self.read_block(meta)?);
            }
            parts.push(rows);
        }
        Ok(parts)
    }
}

impl Drop for SpilledRows {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// A single-partition spill file used for grace-join buckets and shuffle
/// buckets: rows append in arrival order and are re-read in one pass.
/// Blocks use the shared-table format ([`encode_row_block_shared`]) — the
/// string table spans the file, so loading must walk blocks in order.
#[derive(Debug)]
pub(crate) struct SpilledBucket {
    inner: SpilledRows,
}

impl SpilledBucket {
    pub(crate) fn rows(&self) -> usize {
        self.inner.part_rows[0]
    }

    pub(crate) fn bytes(&self) -> u64 {
        self.inner.bytes
    }

    /// Reads the whole bucket back, in append order, replaying the file's
    /// string-table deltas as it goes.
    pub(crate) fn load(&self) -> Result<Vec<Row>> {
        let mut dict = StringDict::default();
        let mut rows = Vec::with_capacity(self.rows());
        for &meta in &self.inner.parts[0] {
            let buf = self.inner.read_block_bytes(meta)?;
            let block = decode_row_block_shared(&buf, &mut dict)
                .map_err(|e| spill_codec(self.inner.op, &e))?;
            rows.extend(block);
        }
        Ok(rows)
    }
}

/// Incremental writer producing a [`SpilledBucket`]. Owns the file-scoped
/// string table; its memory footprint is bounded by the bucket's *unique*
/// string payload, which the dedup exists to keep small.
pub(crate) struct BucketWriter {
    writer: SpillWriter,
    path: PathBuf,
    metas: Vec<BlockMeta>,
    table: StringTable,
    rows: usize,
    op: OpId,
}

impl BucketWriter {
    pub(crate) fn create(op: OpId, path: PathBuf) -> Result<BucketWriter> {
        let writer = SpillWriter::create(op, &path)?;
        Ok(BucketWriter {
            writer,
            path,
            metas: Vec::new(),
            table: StringTable::new(),
            rows: 0,
            op,
        })
    }

    pub(crate) fn append(&mut self, rows: &[Row]) -> Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        self.metas
            .push(self.writer.write_rows_shared(rows, &mut self.table)?);
        self.rows += rows.len();
        Ok(())
    }

    pub(crate) fn finish(self) -> Result<Arc<SpilledBucket>> {
        let bytes = self.writer.finish()?;
        Ok(Arc::new(SpilledBucket {
            inner: SpilledRows {
                path: self.path,
                parts: vec![self.metas],
                part_rows: vec![self.rows],
                bytes,
                op: self.op,
            },
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_nested::{DataItem, Label, Value};

    fn sample_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                let mut item = DataItem::new();
                item.push(Label::new("id"), Value::Int(i as i64));
                item.push(
                    Label::new("tags"),
                    Value::Bag(vec![Value::str("a"), Value::Int(i as i64 * 3)]),
                );
                Row {
                    id: (7u64 << 48) | i as u64,
                    item,
                }
            })
            .collect()
    }

    #[test]
    fn run_dir_pid_parses_only_well_formed_names() {
        assert_eq!(run_dir_pid("pebble-spill-123-0"), Some(123));
        assert_eq!(run_dir_pid("pebble-capture-9-41"), Some(9));
        assert_eq!(run_dir_pid("pebble-spill-123"), None); // no seq
        assert_eq!(run_dir_pid("pebble-spill-123-"), None); // empty seq
        assert_eq!(run_dir_pid("pebble-spill-abc-0"), None); // non-numeric pid
        assert_eq!(run_dir_pid("pebble-spill-123-0x"), None); // non-numeric seq
        assert_eq!(run_dir_pid("other-123-0"), None); // foreign prefix
    }

    #[test]
    fn sweep_removes_dead_pid_dirs_and_spares_live_ones() {
        if !cfg!(target_os = "linux") {
            return; // no /proc: the sweep is defined to be a no-op
        }
        let base = std::env::temp_dir().join(format!("pebble-sweep-test-{}", std::process::id()));
        fs::create_dir_all(&base).unwrap();
        // A provably dead pid: a short-lived child, reaped by wait().
        let mut child = std::process::Command::new("true").spawn().unwrap();
        let dead_pid = child.id();
        child.wait().unwrap();
        assert!(!pid_alive(dead_pid));

        let dir = |name: &str| {
            let p = base.join(name);
            fs::create_dir_all(&p).unwrap();
            fs::write(p.join("op0.spill"), b"x").unwrap();
            p
        };
        let dead_spill = dir(&format!("pebble-spill-{dead_pid}-0"));
        let dead_capture = dir(&format!("pebble-capture-{dead_pid}-3"));
        let own = dir(&format!("pebble-spill-{}-1", std::process::id()));
        // Pid-reuse collision: pid 1 is always alive, and even though this
        // orphan was never ours, an alive pid must never be swept.
        let reused = dir("pebble-spill-1-0");
        let foreign = dir("unrelated-dir");
        let malformed = dir("pebble-spill-notapid-0");
        // A *file* matching the stale pattern is left alone too.
        let stale_file = base.join(format!("pebble-spill-{dead_pid}-9"));
        fs::write(&stale_file, b"x").unwrap();

        assert_eq!(sweep_stale_run_dirs(&base), 2);
        assert!(!dead_spill.exists());
        assert!(!dead_capture.exists());
        assert!(own.exists());
        assert!(reused.exists());
        assert!(foreign.exists());
        assert!(malformed.exists());
        assert!(stale_file.exists());
        // Idempotent: nothing stale remains.
        assert_eq!(sweep_stale_run_dirs(&base), 0);
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn tracker_accounts_and_peaks() {
        let t = MemoryTracker::new(100);
        assert!(t.enabled());
        assert!(!t.would_exceed(100));
        t.add(80);
        assert!(t.would_exceed(30));
        t.add(40);
        t.sub(120);
        assert_eq!(t.current(), 0);
        assert_eq!(t.peak(), 120);
        let off = MemoryTracker::new(0);
        off.add(1 << 40);
        assert_eq!(off.current(), 0);
        assert!(!off.would_exceed(usize::MAX));
    }

    #[test]
    fn row_block_round_trip() {
        let rows = sample_rows(9);
        let block = encode_row_block(&rows);
        assert_eq!(decode_row_block(&block).unwrap(), rows);
        // Decoder is total on corruption.
        let mut corrupt = block.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xff;
        assert!(decode_row_block(&corrupt).is_err());
        for cut in 0..block.len() {
            assert!(decode_row_block(&block[..cut]).is_err());
        }
    }

    #[test]
    fn spilled_rows_round_trip_and_cleanup() {
        let dir = SpillDir::for_run();
        let path = dir.file("op3.rows").unwrap();
        let parts: Vec<Vec<Row>> = vec![sample_rows(10), Vec::new(), sample_rows(3)];
        let spilled = SpilledRows::write(3, path.clone(), &parts, 4).unwrap();
        assert_eq!(spilled.total_rows(), 13);
        assert_eq!(spilled.parts[0].len(), 3); // 10 rows in blocks of 4
        assert_eq!(spilled.load().unwrap(), parts);
        assert_eq!(
            spilled.read_block(spilled.parts[0][1]).unwrap(),
            parts[0][4..8].to_vec()
        );
        drop(spilled);
        assert!(!path.exists());
    }

    #[test]
    fn bucket_writer_round_trip() {
        let dir = SpillDir::for_run();
        let mut w = BucketWriter::create(5, dir.file("op5.bucket0").unwrap()).unwrap();
        let a = sample_rows(4);
        let b = sample_rows(2);
        w.append(&a).unwrap();
        w.append(&[]).unwrap();
        w.append(&b).unwrap();
        let bucket = w.finish().unwrap();
        assert_eq!(bucket.rows(), 6);
        let mut expect = a;
        expect.extend(b);
        assert_eq!(bucket.load().unwrap(), expect);
    }

    #[test]
    fn shared_table_dedups_strings_across_blocks() {
        // The same payload string in every block: the file-scoped table
        // writes it once, while self-contained blocks repeat it per block.
        let text: String = "x".repeat(200);
        let rows: Vec<Row> = (0..64)
            .map(|i| {
                let mut item = DataItem::new();
                item.push(Label::new("text"), Value::str(text.as_str()));
                item.push(Label::new("n"), Value::Int(i));
                Row { id: i as u64, item }
            })
            .collect();
        let dir = SpillDir::for_run();
        let mut w = BucketWriter::create(1, dir.file("op1.bucket0").unwrap()).unwrap();
        for chunk in rows.chunks(8) {
            w.append(chunk).unwrap();
        }
        let bucket = w.finish().unwrap();
        let self_contained: usize = rows
            .chunks(8)
            .map(|c| encode_row_block(c).len())
            .collect::<Vec<_>>()
            .iter()
            .sum();
        assert!(
            (bucket.bytes() as usize) < self_contained - 6 * 200,
            "shared {} vs self-contained {self_contained}",
            bucket.bytes()
        );
        assert_eq!(bucket.load().unwrap(), rows);
    }

    #[test]
    fn shared_block_decode_is_total_on_corruption() {
        let rows = sample_rows(9);
        let mut table = StringTable::new();
        let block = encode_row_block_shared(&rows, &mut table);
        let mut fresh = StringDict::default();
        assert_eq!(decode_row_block_shared(&block, &mut fresh).unwrap(), rows);
        // A shared block never decodes through the self-contained entry
        // point (and vice versa): the type byte differs.
        assert!(decode_row_block(&block).is_err());
        let mut corrupt = block.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xff;
        assert!(decode_row_block_shared(&corrupt, &mut StringDict::default()).is_err());
        for cut in 0..block.len() {
            assert!(decode_row_block_shared(&block[..cut], &mut StringDict::default()).is_err());
        }
    }

    /// `rows` with a nested item, a set and string payloads added, so a
    /// block exercises every value decoder.
    fn nested_rows(n: usize) -> Vec<Row> {
        let mut rows = sample_rows(n);
        for (i, row) in rows.iter_mut().enumerate() {
            let mut user = DataItem::new();
            user.push(Label::new("id_str"), Value::str(format!("u{}", i % 3)));
            user.push(Label::new("score"), Value::Double(i as f64 / 2.0));
            row.item.push(Label::new("user"), Value::Item(user));
            row.item.push(
                Label::new("flags"),
                Value::set_from([Value::Bool(i % 2 == 0), Value::Null]),
            );
        }
        rows
    }

    /// `body` framed as a block of type `ty`, with its length and checksum
    /// right.
    fn reframe(ty: u8, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        pebble_nested::encode::frame_block(&mut out, ty, body);
        out
    }

    /// Damage inside a row block's payload, resealed so that it reaches the
    /// id, string-table and item decoders instead of stopping at the
    /// checksum, plus every prefix of the block: both block formats decode
    /// or fail with a `CodecError`, never panic.
    #[test]
    fn resealed_row_block_corruption_is_typed() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        let rows = nested_rows(12);
        let blocks = [
            (BLOCK_SPILL_ROWS, encode_row_block(&rows)),
            (
                BLOCK_SPILL_ROWS_SHARED,
                encode_row_block_shared(&rows, &mut StringTable::new()),
            ),
        ];
        for (ty, block) in blocks {
            let decode = |bytes: &[u8]| match ty {
                BLOCK_SPILL_ROWS => decode_row_block(bytes),
                _ => decode_row_block_shared(bytes, &mut StringDict::default()),
            };
            assert_eq!(decode(&block).unwrap(), rows);
            for cut in 0..block.len() {
                assert!(decode(&block[..cut]).is_err(), "prefix {cut}");
            }
            let body = &block[5..block.len() - 4];
            assert_eq!(reframe(ty, body), block);
            let mut rng = StdRng::seed_from_u64(0x5b11 + u64::from(ty));
            let mut loaded = 0;
            let mut classes: BTreeMap<String, usize> = BTreeMap::new();
            for case in 0..1500 {
                let mut body = body.to_vec();
                let len = body.len();
                match case % 5 {
                    0 => {
                        let i = rng.gen_range(0..len);
                        body[i] ^= 1u8 << rng.gen_range(0..8u32);
                    }
                    1 => {
                        let i = rng.gen_range(0..len);
                        body[i] = rng.gen_range(0..=255u32) as u8;
                    }
                    2 => {
                        let i = rng.gen_range(0..len);
                        for byte in body.iter_mut().skip(i).take(4) {
                            *byte = rng.gen_range(0..=255u32) as u8;
                        }
                    }
                    3 => body.truncate(rng.gen_range(0..len)),
                    _ => {
                        let i = rng.gen_range(0..=len);
                        let n = rng.gen_range(1..8usize);
                        let junk: Vec<u8> =
                            (0..n).map(|_| rng.gen_range(0..=255u32) as u8).collect();
                        body.splice(i..i, junk);
                    }
                }
                match decode(&reframe(ty, &body)) {
                    Ok(_) => loaded += 1,
                    Err(CodecError(msg)) => {
                        // The message without its numbers and names:
                        // `string id 7 out of range` → `string id out of range`.
                        let class: Vec<&str> = msg
                            .split(' ')
                            .filter(|w| w.parse::<u64>().is_err() && !w.starts_with('`'))
                            .collect();
                        *classes.entry(class.join(" ")).or_default() += 1;
                    }
                }
            }
            eprintln!("resealed spill block type {ty}: {loaded} decode, rejected {classes:?}");
            assert!(classes.len() >= 5, "{classes:?}");
        }
    }

    /// A well-framed block whose item names one attribute twice (here: one
    /// name stored at two table positions) is a codec error, reported as a
    /// spill error on reload.
    #[test]
    fn row_block_repeating_an_attribute_is_a_codec_error() {
        let mut table = Vec::new();
        put_varint(&mut table, 2);
        pebble_nested::encode::put_str(&mut table, "a");
        pebble_nested::encode::put_str(&mut table, "a");
        let item = [2u8, 0, 0, 1, 0]; // two attributes, ids 0 and 1, both null
        for ty in [BLOCK_SPILL_ROWS, BLOCK_SPILL_ROWS_SHARED] {
            let mut body = Vec::new();
            put_ids_delta(&mut body, &[1]);
            body.extend_from_slice(&table);
            put_varint(&mut body, item.len() as u64);
            body.extend_from_slice(&item);
            let block = reframe(ty, &body);
            let e = match ty {
                BLOCK_SPILL_ROWS => decode_row_block(&block),
                _ => decode_row_block_shared(&block, &mut StringDict::default()),
            }
            .unwrap_err();
            assert_eq!(e.0, "duplicate attribute `a` in item");
            assert_eq!(
                spill_codec(4, &e).to_string(),
                "spill failed at operator #4: reload spill block: duplicate attribute `a` in item"
            );
        }
    }

    #[test]
    fn spill_fault_fires_on_write() {
        crate::fault::arm_spill(11);
        let dir = SpillDir::for_run();
        let err = SpillWriter::create(11, &dir.file("op11.rows").unwrap())
            .err()
            .expect("armed spill fault must fire");
        assert_eq!(
            err.to_string(),
            "spill failed at operator #11: injected spill-write failure"
        );
        crate::fault::disarm();
        assert!(SpillWriter::create(11, &dir.file("op11.rows").unwrap()).is_ok());
    }
}

#[cfg(test)]
mod throughput_probe {
    use super::*;
    use pebble_nested::{DataItem, Label, Value};
    use std::time::Instant;

    fn tweetish_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                let mut item = DataItem::new();
                item.push(Label::new("id_str"), Value::str(format!("tweet{i}")));
                item.push(
                    Label::new("text"),
                    Value::str(format!(
                        "some realistic tweet text number {i} with #tag{} and a mention of @user{} BTS",
                        i % 50, i % 97
                    )),
                );
                item.push(Label::new("retweet_count"), Value::Int((i % 11) as i64));
                item.push(Label::new("lang"), Value::str("en"));
                let mut user = DataItem::new();
                user.push(Label::new("id_str"), Value::str(format!("u{}", i % 997)));
                user.push(Label::new("name"), Value::str(format!("user name {}", i % 997)));
                item.push(Label::new("user"), Value::Item(user));
                let mut ent = DataItem::new();
                ent.push(
                    Label::new("hashtags"),
                    Value::Bag((0..(i % 4)).map(|t| {
                        let mut h = DataItem::new();
                        h.push(Label::new("text"), Value::str(format!("tag{t}")));
                        Value::Item(h)
                    }).collect()),
                );
                ent.push(
                    Label::new("user_mentions"),
                    Value::Bag((0..(i % 3)).map(|t| {
                        let mut m = DataItem::new();
                        m.push(Label::new("id_str"), Value::str(format!("u{}", (i + t) % 997)));
                        m.push(Label::new("name"), Value::str(format!("user name {}", (i + t) % 997)));
                        Value::Item(m)
                    }).collect()),
                );
                item.push(Label::new("entities"), Value::Item(ent));
                Row { id: i as u64, item }
            })
            .collect()
    }

    #[test]
    fn codec_throughput() {
        let rows = tweetish_rows(100_000);
        let t0 = Instant::now();
        let mut blocks = Vec::new();
        for chunk in rows.chunks(8192) {
            blocks.push(encode_row_block(chunk));
        }
        let enc = t0.elapsed();
        let bytes: usize = blocks.iter().map(|b| b.len()).sum();
        let t1 = Instant::now();
        let mut n = 0usize;
        for b in &blocks {
            n += decode_row_block(b).unwrap().len();
        }
        let dec = t1.elapsed();
        assert_eq!(n, rows.len());
        eprintln!(
            "codec_throughput: {} bytes, encode {:.0} ms ({:.1} MB/s), decode {:.0} ms ({:.1} MB/s)",
            bytes,
            enc.as_secs_f64() * 1e3,
            bytes as f64 / enc.as_secs_f64() / 1e6,
            dec.as_secs_f64() * 1e3,
            bytes as f64 / dec.as_secs_f64() / 1e6
        );
    }
}
