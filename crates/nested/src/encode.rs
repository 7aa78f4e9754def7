//! Binary codec primitives for identifiers, labels and nested values.
//!
//! The provenance layer persists association tables (dense `u64` identifier
//! sequences), schemas, and result rows. This module owns the low-level
//! encoding shared by the executor's spill files (`pebble-dataflow`) and
//! the on-disk segment format (`pebble-serve`):
//!
//! * LEB128 varints and zigzag signed varints;
//! * delta-encoded identifier sequences (ids are near-sequential, so the
//!   deltas are tiny);
//! * an interned [`StringTable`] so repeated labels and string constants
//!   are stored once, read back positionally by a [`StringDict`];
//! * recursive codecs for [`Value`], [`DataItem`] and [`DataType`].
//!
//! Every decoder is total: malformed input yields a [`CodecError`], never a
//! panic, and recursion is depth-limited so corrupt nesting cannot blow the
//! stack.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};

use crate::label::Label;
use crate::types::{DataType, Field};
use crate::value::{DataItem, Value};

/// Multiply-xor hasher (the rustc/Firefox "Fx" construction), processing
/// eight bytes per round. The codec hashes short strings and raw pointers
/// millions of times per spilled block; SipHash's per-call overhead is
/// measurable there and HashDoS resistance buys nothing for process-local
/// scratch tables.
#[derive(Default)]
struct FxHasher(u64);

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let mut rest = bytes.len() as u64;
        for (i, &b) in chunks.remainder().iter().enumerate() {
            rest ^= u64::from(b) << (8 * i + 8);
        }
        self.add(rest);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;

/// Maximum nesting depth accepted when decoding values or types. Valid
/// pebble data is a handful of levels deep; the limit only exists so a
/// corrupt byte stream cannot trigger unbounded recursion.
pub const MAX_DEPTH: usize = 128;

/// A decoding failure: the input bytes do not form a valid encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(msg.into()))
}

/// Appends `v` as an LEB128 varint (7 bits per byte, little endian).
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint, advancing the cursor.
#[inline]
pub fn get_varint(buf: &mut &[u8]) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some((&byte, rest)) = buf.split_first() else {
            return err("unexpected end of input");
        };
        *buf = rest;
        if shift >= 64 {
            return err("varint overflow");
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag-maps a signed value onto an unsigned one (small magnitudes stay
/// small).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a signed value as a zigzag varint.
#[inline]
pub fn put_signed(buf: &mut Vec<u8>, v: i64) {
    put_varint(buf, zigzag(v));
}

/// Reads a zigzag varint.
#[inline]
pub fn get_signed(buf: &mut &[u8]) -> Result<i64, CodecError> {
    Ok(unzigzag(get_varint(buf)?))
}

/// Reads one raw byte.
#[inline]
pub fn get_u8(buf: &mut &[u8]) -> Result<u8, CodecError> {
    let Some((&byte, rest)) = buf.split_first() else {
        return err("unexpected end of input");
    };
    *buf = rest;
    Ok(byte)
}

/// Appends a length-prefixed UTF-8 string.
#[inline]
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string.
pub fn get_str(buf: &mut &[u8]) -> Result<String, CodecError> {
    let len = get_varint(buf)? as usize;
    if buf.len() < len {
        return err("truncated string");
    }
    let (bytes, rest) = buf.split_at(len);
    *buf = rest;
    match std::str::from_utf8(bytes) {
        Ok(s) => Ok(s.to_string()),
        Err(_) => err("invalid UTF-8"),
    }
}

/// CRC-32 (IEEE 802.3, reflected) over `data` — the checksum used for
/// framed blocks (on-disk segments and spill files).
///
/// Uses the slicing-by-8 variant of the table method: eight dependent
/// table lookups per 8-byte word instead of per byte, which matters when
/// a budgeted run checksums hundreds of megabytes of spill traffic. The
/// resulting checksum is identical to the classic byte-at-a-time loop
/// (the tail and any pre-existing callers still go through byte steps).
pub fn crc32(data: &[u8]) -> u32 {
    // TABLES[0] is the classic CRC table; TABLES[k][b] extends byte `b`
    // through k additional zero bytes, letting 8 input bytes fold in one
    // step.
    const TABLES: [[u32; 256]; 8] = {
        let mut tables = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            tables[0][i] = c;
            i += 1;
        }
        let mut t = 1;
        while t < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[t - 1][i];
                tables[t][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
                i += 1;
            }
            t += 1;
        }
        tables
    };
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][((lo >> 24) & 0xff) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][((hi >> 24) & 0xff) as usize];
    }
    for &b in chunks.remainder() {
        crc = TABLES[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Appends one framed block (`type u8 · len u32 LE · payload · crc32 u32
/// LE`) to `out` — the shared framing of segment and spill files.
pub fn frame_block(out: &mut Vec<u8>, ty: u8, payload: &[u8]) {
    out.push(ty);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Splits one block written by [`frame_block`] off the front of `buf`,
/// validating the length prefix and checksum.
pub fn take_frame<'a>(buf: &mut &'a [u8]) -> Result<(u8, &'a [u8]), CodecError> {
    let Some((&ty, rest)) = buf.split_first() else {
        return err("truncated frame: missing type byte");
    };
    if rest.len() < 4 {
        return err("truncated frame: missing length");
    }
    let (len_bytes, rest) = rest.split_at(4);
    let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
    if rest.len() < len + 4 {
        return err("truncated frame: payload shorter than its length prefix");
    }
    let (payload, rest) = rest.split_at(len);
    let (crc_bytes, rest) = rest.split_at(4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(payload) != stored {
        return err("frame checksum mismatch");
    }
    *buf = rest;
    Ok((ty, payload))
}

/// Appends an `f64` as its 8 little-endian IEEE-754 bytes.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Reads an `f64` written by [`put_f64`].
pub fn get_f64(buf: &mut &[u8]) -> Result<f64, CodecError> {
    if buf.len() < 8 {
        return err("unexpected end of input");
    }
    let (bytes, rest) = buf.split_at(8);
    *buf = rest;
    Ok(f64::from_bits(u64::from_le_bytes(
        bytes.try_into().unwrap(),
    )))
}

/// Appends a length-prefixed identifier sequence, delta-encoded: runtime
/// identifiers are near-sequential, so consecutive deltas are mostly `±1`
/// and fit in one byte each.
pub fn put_ids_delta(buf: &mut Vec<u8>, ids: &[u64]) {
    put_varint(buf, ids.len() as u64);
    let mut prev: u64 = 0;
    for &id in ids {
        put_signed(buf, id.wrapping_sub(prev) as i64);
        prev = id;
    }
}

/// Reads a sequence written by [`put_ids_delta`].
pub fn get_ids_delta(buf: &mut &[u8]) -> Result<Vec<u64>, CodecError> {
    let len = get_varint(buf)? as usize;
    // A delta costs at least one byte; reject lengths the remaining input
    // cannot possibly satisfy before allocating.
    if buf.len() < len {
        return err("truncated identifier sequence");
    }
    let mut ids = Vec::with_capacity(len);
    let mut prev: u64 = 0;
    for _ in 0..len {
        prev = prev.wrapping_add(get_signed(buf)? as u64);
        ids.push(prev);
    }
    Ok(ids)
}

/// The encode side of the string table: assigns dense ids on first use.
///
/// Interning is keyed by content (the wire format stores each distinct
/// string once, in first-use order), with a pointer-keyed fast path for
/// [`intern_arc`](StringTable::intern_arc): engine values share `Arc<str>`
/// allocations heavily (labels are globally interned, strings are cloned
/// by reference through every operator), so most lookups hit a one-word
/// hash instead of re-hashing string content. Every pointer-cached `Arc`
/// is pinned by the table, so an address can never be recycled for a
/// different string while the cache is alive.
///
/// The interned strings live in a [`StringDict`], which the table derefs
/// to, so items encoded against a table decode against it as well.
#[derive(Debug, Default, Clone)]
pub struct StringTable {
    index: HashMap<Arc<str>, u64, FxBuild>,
    by_ptr: HashMap<usize, u64, FxBuild>,
    /// Pins for pointer-cache entries whose `Arc` is not in `dict`
    /// (same content reached through a second allocation).
    pins: Vec<Arc<str>>,
    dict: StringDict,
}

fn arc_addr(s: &Arc<str>) -> usize {
    Arc::as_ptr(s) as *const u8 as usize
}

impl StringTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty table with room for `strings` distinct strings, so an encoder
    /// that knows its input size does not rehash the maps as they grow.
    pub fn with_capacity(strings: usize) -> Self {
        StringTable {
            index: HashMap::with_capacity_and_hasher(strings, FxBuild::default()),
            by_ptr: HashMap::with_capacity_and_hasher(strings, FxBuild::default()),
            pins: Vec::new(),
            dict: StringDict {
                strings: Vec::with_capacity(strings),
                labels: Vec::with_capacity(strings),
            },
        }
    }

    /// Interns `s`, returning its dense id.
    pub fn intern(&mut self, s: &str) -> u64 {
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        self.push_new(Arc::from(s))
    }

    /// Interns a shared string, returning its dense id. Ids are assigned
    /// by content exactly as with [`intern`](StringTable::intern) — the
    /// pointer cache only skips re-hashing allocations seen before.
    pub fn intern_arc(&mut self, s: &Arc<str>) -> u64 {
        let addr = arc_addr(s);
        if let Some(&id) = self.by_ptr.get(&addr) {
            return id;
        }
        let id = match self.index.get(s.as_ref()) {
            Some(&id) => {
                // Same content through a new allocation: pin it so the
                // address stays owned by this string.
                self.pins.push(Arc::clone(s));
                id
            }
            None => self.push_new(Arc::clone(s)),
        };
        self.by_ptr.insert(addr, id);
        id
    }

    fn push_new(&mut self, s: Arc<str>) -> u64 {
        let id = self.dict.len() as u64;
        self.by_ptr.insert(arc_addr(&s), id);
        self.index.insert(Arc::clone(&s), id);
        self.dict.push(s);
        id
    }

    /// Appends the table: count followed by length-prefixed strings in id
    /// order.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        self.encode_from(0, buf);
    }

    /// Appends only the strings interned since `mark` (a prior
    /// [`len`](StringDict::len) value): count followed by length-prefixed
    /// strings in id order. Sequential spill files use this to carry one
    /// file-scoped table as per-block deltas, so a string repeated across
    /// blocks is written once.
    pub fn encode_from(&self, mark: usize, buf: &mut Vec<u8>) {
        let strings = &self.dict.strings[mark..];
        put_varint(buf, strings.len() as u64);
        for s in strings {
            put_str(buf, s);
        }
    }
}

impl std::ops::Deref for StringTable {
    type Target = StringDict;

    fn deref(&self) -> &StringDict {
        &self.dict
    }
}

/// The decode side of the string table: the strings of an encoded table
/// in stored order. A string's id is its position, which is exactly how
/// [`StringTable`] assigns ids, so decoding reads each string once into
/// one `Arc<str>` and hashes nothing.
#[derive(Debug, Default, Clone)]
pub struct StringDict {
    strings: Vec<Arc<str>>,
    /// Lazily resolved [`Label`] per string, so decoding an item's labels
    /// costs an `Arc` clone instead of a global intern-table lock per
    /// attribute occurrence.
    labels: Vec<OnceLock<Label>>,
}

impl StringDict {
    /// Reads a table written by [`StringTable::encode`].
    pub fn decode(buf: &mut &[u8]) -> Result<StringDict, CodecError> {
        let mut dict = StringDict::default();
        dict.decode_append(buf)?;
        Ok(dict)
    }

    /// Reads a table or delta written by [`StringTable::encode`] /
    /// [`StringTable::encode_from`], appending the entries to this
    /// dictionary. Ids line up with the encoder's as long as deltas are
    /// applied in file order.
    pub fn decode_append(&mut self, buf: &mut &[u8]) -> Result<(), CodecError> {
        let len = get_varint(buf)? as usize;
        // Every string costs at least its length byte.
        if buf.len() < len {
            return err("truncated string table");
        }
        self.strings.reserve(len);
        for _ in 0..len {
            let n = get_varint(buf)? as usize;
            if buf.len() < n {
                return err("truncated string");
            }
            let (bytes, rest) = buf.split_at(n);
            *buf = rest;
            let Ok(s) = std::str::from_utf8(bytes) else {
                return err("invalid UTF-8");
            };
            self.strings.push(Arc::from(s));
        }
        self.labels.resize_with(self.strings.len(), OnceLock::new);
        Ok(())
    }

    fn push(&mut self, s: Arc<str>) {
        self.strings.push(s);
        self.labels.push(OnceLock::new());
    }

    /// Resolves an id: the string at that position.
    pub fn get(&self, id: u64) -> Result<&Arc<str>, CodecError> {
        match self.strings.get(id as usize) {
            Some(s) => Ok(s),
            None => err(format!("string id {id} out of range")),
        }
    }

    /// Resolves an id to its interned [`Label`], memoized per entry.
    pub fn label(&self, id: u64) -> Result<Label, CodecError> {
        match (self.labels.get(id as usize), self.strings.get(id as usize)) {
            (Some(cell), Some(s)) => Ok(cell.get_or_init(|| Label::new(s)).clone()),
            _ => err(format!("string id {id} out of range")),
        }
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when there are no strings.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

const VAL_NULL: u8 = 0;
const VAL_FALSE: u8 = 1;
const VAL_TRUE: u8 = 2;
const VAL_INT: u8 = 3;
const VAL_DOUBLE: u8 = 4;
const VAL_STR: u8 = 5;
const VAL_ITEM: u8 = 6;
const VAL_BAG: u8 = 7;
const VAL_SET: u8 = 8;

/// Appends a [`Value`], interning strings and labels into `table`.
pub fn put_value(buf: &mut Vec<u8>, table: &mut StringTable, v: &Value) {
    match v {
        Value::Null => buf.push(VAL_NULL),
        Value::Bool(false) => buf.push(VAL_FALSE),
        Value::Bool(true) => buf.push(VAL_TRUE),
        Value::Int(i) => {
            buf.push(VAL_INT);
            put_signed(buf, *i);
        }
        Value::Double(d) => {
            buf.push(VAL_DOUBLE);
            put_f64(buf, *d);
        }
        Value::Str(s) => {
            buf.push(VAL_STR);
            put_varint(buf, table.intern_arc(s));
        }
        Value::Item(item) => {
            buf.push(VAL_ITEM);
            put_item_body(buf, table, item);
        }
        Value::Bag(vs) => {
            buf.push(VAL_BAG);
            put_varint(buf, vs.len() as u64);
            for v in vs {
                put_value(buf, table, v);
            }
        }
        Value::Set(vs) => {
            buf.push(VAL_SET);
            put_varint(buf, vs.len() as u64);
            for v in vs {
                put_value(buf, table, v);
            }
        }
    }
}

fn put_item_body(buf: &mut Vec<u8>, table: &mut StringTable, item: &DataItem) {
    let entries = item.entries();
    put_varint(buf, entries.len() as u64);
    for (label, value) in entries {
        put_varint(buf, table.intern_arc(label.as_arc()));
        put_value(buf, table, value);
    }
}

/// Reads a [`Value`] written by [`put_value`].
pub fn get_value(buf: &mut &[u8], table: &StringDict) -> Result<Value, CodecError> {
    get_value_at(buf, table, 0)
}

fn get_value_at(buf: &mut &[u8], table: &StringDict, depth: usize) -> Result<Value, CodecError> {
    if depth > MAX_DEPTH {
        return err("value nesting too deep");
    }
    match get_u8(buf)? {
        VAL_NULL => Ok(Value::Null),
        VAL_FALSE => Ok(Value::Bool(false)),
        VAL_TRUE => Ok(Value::Bool(true)),
        VAL_INT => Ok(Value::Int(get_signed(buf)?)),
        VAL_DOUBLE => Ok(Value::Double(get_f64(buf)?)),
        VAL_STR => Ok(Value::Str(table.get(get_varint(buf)?)?.clone())),
        VAL_ITEM => Ok(Value::Item(get_item_body(buf, table, depth)?)),
        tag @ (VAL_BAG | VAL_SET) => {
            let len = get_varint(buf)? as usize;
            if buf.len() < len {
                return err("truncated collection");
            }
            let mut vs = Vec::with_capacity(len);
            for _ in 0..len {
                vs.push(get_value_at(buf, table, depth + 1)?);
            }
            Ok(if tag == VAL_BAG {
                Value::Bag(vs)
            } else {
                Value::Set(vs)
            })
        }
        tag => err(format!("unknown value tag {tag}")),
    }
}

fn get_item_body(
    buf: &mut &[u8],
    table: &StringDict,
    depth: usize,
) -> Result<DataItem, CodecError> {
    let len = get_varint(buf)? as usize;
    if buf.len() < len {
        return err("truncated item");
    }
    let mut parts = Vec::with_capacity(len);
    for _ in 0..len {
        let label = table.label(get_varint(buf)?)?;
        let value = get_value_at(buf, table, depth + 1)?;
        parts.push((label, value));
    }
    // `from_parts` trusts its caller with unique labels; bytes with a valid
    // checksum can still repeat one, so an item that does is malformed.
    if let Some(label) = repeated_label(&parts) {
        return err(format!("duplicate attribute `{label}` in item"));
    }
    Ok(DataItem::from_parts(parts))
}

/// The first label of `parts` that an earlier part already carries.
/// Decoded labels are interned, so equal names share one allocation and
/// the check compares addresses: a 256-bit filter of address hashes clears
/// nearly every label of a wide item in one probe, and only a filter hit
/// scans the labels before it.
fn repeated_label(parts: &[(Label, Value)]) -> Option<&Label> {
    let mut seen = [0u64; 4];
    for (i, (label, _)) in parts.iter().enumerate() {
        let h = (arc_addr(label.as_arc()) as u64).wrapping_mul(FX_SEED) >> 56;
        let (word, bit) = ((h >> 6) as usize, 1u64 << (h & 63));
        if seen[word] & bit != 0
            && parts[..i]
                .iter()
                .any(|(l, _)| Arc::ptr_eq(l.as_arc(), label.as_arc()))
        {
            return Some(label);
        }
        seen[word] |= bit;
    }
    None
}

/// Appends a top-level [`DataItem`].
pub fn put_item(buf: &mut Vec<u8>, table: &mut StringTable, item: &DataItem) {
    put_item_body(buf, table, item);
}

/// Reads a top-level [`DataItem`] written by [`put_item`].
pub fn get_item(buf: &mut &[u8], table: &StringDict) -> Result<DataItem, CodecError> {
    get_item_body(buf, table, 0)
}

const TY_NULL: u8 = 0;
const TY_BOOL: u8 = 1;
const TY_INT: u8 = 2;
const TY_DOUBLE: u8 = 3;
const TY_STR: u8 = 4;
const TY_ITEM: u8 = 5;
const TY_BAG: u8 = 6;
const TY_SET: u8 = 7;

/// Appends a [`DataType`].
pub fn put_type(buf: &mut Vec<u8>, ty: &DataType) {
    match ty {
        DataType::Null => buf.push(TY_NULL),
        DataType::Bool => buf.push(TY_BOOL),
        DataType::Int => buf.push(TY_INT),
        DataType::Double => buf.push(TY_DOUBLE),
        DataType::Str => buf.push(TY_STR),
        DataType::Item(fields) => {
            buf.push(TY_ITEM);
            put_varint(buf, fields.len() as u64);
            for f in fields {
                put_str(buf, &f.name);
                put_type(buf, &f.ty);
            }
        }
        DataType::Bag(elem) => {
            buf.push(TY_BAG);
            put_type(buf, elem);
        }
        DataType::Set(elem) => {
            buf.push(TY_SET);
            put_type(buf, elem);
        }
    }
}

/// Reads a [`DataType`] written by [`put_type`].
pub fn get_type(buf: &mut &[u8]) -> Result<DataType, CodecError> {
    get_type_at(buf, 0)
}

fn get_type_at(buf: &mut &[u8], depth: usize) -> Result<DataType, CodecError> {
    if depth > MAX_DEPTH {
        return err("type nesting too deep");
    }
    match get_u8(buf)? {
        TY_NULL => Ok(DataType::Null),
        TY_BOOL => Ok(DataType::Bool),
        TY_INT => Ok(DataType::Int),
        TY_DOUBLE => Ok(DataType::Double),
        TY_STR => Ok(DataType::Str),
        TY_ITEM => {
            let len = get_varint(buf)? as usize;
            if buf.len() < len {
                return err("truncated item type");
            }
            let mut fields = Vec::with_capacity(len);
            for _ in 0..len {
                let name = get_str(buf)?;
                let ty = get_type_at(buf, depth + 1)?;
                fields.push(Field::new(name, ty));
            }
            Ok(DataType::Item(fields))
        }
        TY_BAG => Ok(DataType::Bag(Box::new(get_type_at(buf, depth + 1)?))),
        TY_SET => Ok(DataType::Set(Box::new(get_type_at(buf, depth + 1)?))),
        tag => err(format!("unknown type tag {tag}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut cur = buf.as_slice();
        for &v in &values {
            assert_eq!(get_varint(&mut cur).unwrap(), v);
        }
        assert!(cur.is_empty());
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut cur: &[u8] = &[0x80];
        assert!(get_varint(&mut cur).is_err());
        let mut cur: &[u8] = &[0x80; 11];
        assert!(get_varint(&mut cur).is_err());
    }

    #[test]
    fn crc32_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn frame_round_trip_and_rejection() {
        let mut out = Vec::new();
        frame_block(&mut out, 4, b"alpha");
        frame_block(&mut out, 9, b"");
        let mut cur = out.as_slice();
        assert_eq!(take_frame(&mut cur).unwrap(), (4, b"alpha".as_slice()));
        assert_eq!(take_frame(&mut cur).unwrap(), (9, b"".as_slice()));
        assert!(cur.is_empty());
        // A flipped payload byte fails the checksum; truncation is typed.
        let mut corrupt = out.clone();
        corrupt[6] ^= 0x40;
        let mut cur = corrupt.as_slice();
        assert!(take_frame(&mut cur)
            .unwrap_err()
            .to_string()
            .contains("checksum"));
        for cut in 0..out.len() - 1 {
            let mut cur = &out[..cut];
            let first = take_frame(&mut cur);
            if cut < 10 {
                assert!(first.is_err(), "prefix {cut} should not parse");
            }
        }
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn ids_delta_round_trip() {
        let ids = vec![
            1u64 << 48,
            (1u64 << 48) + 1,
            (1u64 << 48) + 2,
            (7u64 << 48) + 5,
            3,
        ];
        let mut buf = Vec::new();
        put_ids_delta(&mut buf, &ids);
        let mut cur = buf.as_slice();
        assert_eq!(get_ids_delta(&mut cur).unwrap(), ids);
        assert!(cur.is_empty());
        // Sequential ids cost ~1 byte each after the first.
        let seq: Vec<u64> = (1000..1100).collect();
        let mut buf = Vec::new();
        put_ids_delta(&mut buf, &seq);
        assert!(buf.len() < 110);
    }

    #[test]
    fn ids_delta_rejects_absurd_length() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        let mut cur = buf.as_slice();
        assert!(get_ids_delta(&mut cur).is_err());
    }

    #[test]
    fn string_table_interns_and_round_trips() {
        let mut t = StringTable::new();
        assert_eq!(t.intern("alpha"), 0);
        assert_eq!(t.intern("beta"), 1);
        assert_eq!(t.intern("alpha"), 0);
        assert_eq!(t.len(), 2);
        let mut buf = Vec::new();
        t.encode(&mut buf);
        let mut cur = buf.as_slice();
        let d = StringDict::decode(&mut cur).unwrap();
        assert_eq!(d.get(0).unwrap().as_ref(), "alpha");
        assert_eq!(d.get(1).unwrap().as_ref(), "beta");
        assert!(d.get(2).is_err());
    }

    /// Ids are positions: a table that stores a string twice (no encoder
    /// writes one, but the bytes are well formed) keeps both entries, so
    /// id `k` is still the `k`-th stored string and no later id shifts.
    #[test]
    fn dict_ids_are_positions_even_for_duplicate_strings() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 4);
        for s in ["a", "a", "b", "a"] {
            put_str(&mut buf, s);
        }
        let mut cur = buf.as_slice();
        let d = StringDict::decode(&mut cur).unwrap();
        assert!(cur.is_empty());
        assert_eq!(d.len(), 4);
        let got: Vec<&str> = (0..4).map(|k| d.get(k).unwrap().as_ref()).collect();
        assert_eq!(got, ["a", "a", "b", "a"]);
        assert_eq!(d.label(2).unwrap(), "b");
        assert!(d.get(4).is_err() && d.label(4).is_err());
        // A delta appends after the existing positions.
        let mut delta = Vec::new();
        put_varint(&mut delta, 1);
        put_str(&mut delta, "b");
        let mut d = d;
        d.decode_append(&mut delta.as_slice()).unwrap();
        assert_eq!(d.get(4).unwrap().as_ref(), "b");
        assert_eq!(d.label(4).unwrap(), d.label(2).unwrap());
    }

    #[test]
    fn dict_decode_is_total() {
        // Count beyond the input, truncated string, invalid UTF-8.
        for bytes in [&[9u8, 1, b'a'][..], &[1, 5, b'a'], &[1, 1, 0xff]] {
            assert!(StringDict::decode(&mut &bytes[..]).is_err(), "{bytes:?}");
        }
    }

    /// An item that repeats an attribute is rejected with a typed error,
    /// whether it names one string id twice or two ids holding one name.
    #[test]
    fn item_repeating_an_attribute_is_a_codec_error() {
        let mut table = Vec::new();
        put_varint(&mut table, 3);
        for s in ["a", "b", "a"] {
            put_str(&mut table, s);
        }
        let dict = StringDict::decode(&mut table.as_slice()).unwrap();
        let item = |ids: &[u64]| {
            let mut buf = Vec::new();
            put_varint(&mut buf, ids.len() as u64);
            for &id in ids {
                put_varint(&mut buf, id);
                buf.push(VAL_NULL);
            }
            buf
        };
        assert_eq!(get_item(&mut &item(&[0, 1])[..], &dict).unwrap().len(), 2);
        for ids in [&[0, 0][..], &[0, 2], &[1, 0, 2], &[0, 1, 1]] {
            let e = get_item(&mut &item(ids)[..], &dict).unwrap_err();
            assert!(e.0.starts_with("duplicate attribute `"), "{ids:?}: {e}");
        }
        // Nested items are checked too.
        let mut nested = vec![1];
        put_varint(&mut nested, 1);
        nested.push(VAL_ITEM);
        nested.extend(item(&[2, 0]));
        assert!(get_item(&mut &nested[..], &dict).is_err());
        // Wide items: every distinct label passes, one repeat anywhere fails.
        let mut wide = Vec::new();
        let names: Vec<String> = (0..300).map(|i| format!("attr{i}")).collect();
        put_varint(&mut wide, names.len() as u64);
        for n in &names {
            put_str(&mut wide, n);
        }
        let dict = StringDict::decode(&mut wide.as_slice()).unwrap();
        let all: Vec<u64> = (0..300).collect();
        assert_eq!(get_item(&mut &item(&all)[..], &dict).unwrap().len(), 300);
        for (at, dup) in [(299, 0), (150, 149), (1, 0)] {
            let mut ids = all.clone();
            ids[at] = dup;
            assert!(get_item(&mut &item(&ids)[..], &dict).is_err(), "{at}");
        }
    }

    #[test]
    fn value_round_trip() {
        let item = DataItem::from_parts(vec![
            (Label::new("name"), Value::str("ada")),
            (Label::new("score"), Value::Double(2.5)),
            (
                Label::new("tags"),
                Value::Bag(vec![Value::str("x"), Value::Int(-7), Value::Null]),
            ),
            (
                Label::new("nested"),
                Value::Item(DataItem::from_parts(vec![(
                    Label::new("name"),
                    Value::Bool(true),
                )])),
            ),
            (Label::new("set"), Value::set_from([Value::Int(1)])),
        ]);
        let mut table = StringTable::new();
        let mut buf = Vec::new();
        put_item(&mut buf, &mut table, &item);
        let mut tbuf = Vec::new();
        table.encode(&mut tbuf);
        let mut tcur = tbuf.as_slice();
        let dtable = StringDict::decode(&mut tcur).unwrap();
        let mut cur = buf.as_slice();
        let back = get_item(&mut cur, &dtable).unwrap();
        assert!(cur.is_empty());
        assert_eq!(back, item);
        // The encoder's own table decodes the same bytes.
        assert_eq!(get_item(&mut buf.as_slice(), &table).unwrap(), item);
        // "name" is interned once even though it appears twice.
        assert_eq!(table.len(), 7);
    }

    #[test]
    fn value_decoder_is_total() {
        let table = StringDict::default();
        // Unknown tag.
        let mut cur: &[u8] = &[200];
        assert!(get_value(&mut cur, &table).is_err());
        // String id out of range.
        let mut cur: &[u8] = &[VAL_STR, 9];
        assert!(get_value(&mut cur, &table).is_err());
        // Deep nesting is rejected, not a stack overflow.
        let deep: Vec<u8> = std::iter::repeat_n([VAL_BAG, 1], MAX_DEPTH + 8)
            .flatten()
            .collect();
        let mut cur: &[u8] = &deep;
        let e = get_value(&mut cur, &table).unwrap_err();
        assert!(e.to_string().contains("too deep"));
    }

    #[test]
    fn type_round_trip_and_total() {
        let ty = DataType::bag(DataType::item([
            ("a", DataType::Int),
            ("b", DataType::Set(Box::new(DataType::Str))),
            ("c", DataType::item([("d", DataType::Double)])),
        ]));
        let mut buf = Vec::new();
        put_type(&mut buf, &ty);
        let mut cur = buf.as_slice();
        assert_eq!(get_type(&mut cur).unwrap(), ty);
        assert!(cur.is_empty());
        let mut cur: &[u8] = &[250];
        assert!(get_type(&mut cur).is_err());
        let deep = vec![TY_BAG; MAX_DEPTH + 8];
        let mut cur: &[u8] = &deep;
        assert!(get_type(&mut cur).is_err());
    }
}
