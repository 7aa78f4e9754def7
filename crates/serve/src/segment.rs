//! The on-disk segment format: checksummed length-prefixed blocks holding
//! run-length + delta-compressed association tables.
//!
//! ```text
//! segment  := magic "PBSG" · version u16 LE · block* · END-block
//! block    := type u8 · len u32 LE · payload[len] · crc32(payload) u32 LE
//! ```
//!
//! Block payloads use the varint/zigzag/delta primitives of
//! [`pebble_nested::encode`]. Association tables are split into
//! per-operator `ASSOC` chunks. The writer emits one chunk per operator;
//! the reader also accepts *several* chunks for one operator and
//! concatenates them in order. Identifier sequences are delta-encoded;
//! unary tables are additionally run-length encoded — a contiguous
//! `⟨in+k, out+k⟩` range costs a handful of bytes regardless of length.
//! The tokens are [`UnaryRuns`]' own runs, written and read without
//! expanding a pair: runs that abut across chunks coalesce on load.
//!
//! The version byte pair is *outside* any checksum on purpose: a reader
//! must be able to reject a future version with a typed error before it
//! trusts anything else about the layout.

use pebble_core::{OperatorProvenance, ProvAssoc, UnaryRuns};
use pebble_dataflow::{ItemId, OpId};
use pebble_nested::encode::{get_signed, get_u8, get_varint, put_signed, put_varint};

use crate::error::StoreError;

/// Magic bytes every segment starts with.
const MAGIC: [u8; 4] = *b"PBSG";
/// Format version this crate writes and reads.
pub const VERSION: u16 = 1;

/// Run metadata: operator count, sink, result row count.
pub const BLOCK_META: u8 = 1;
/// Per-operator output schemas.
pub const BLOCK_SCHEMAS: u8 = 2;
/// Static per-operator provenance (types, inputs, accessed/manipulated
/// paths, read sources, aggregate outputs, association kinds).
pub const BLOCK_OPAUX: u8 = 3;
/// One chunk of one operator's association table.
pub const BLOCK_ASSOC: u8 = 4;
/// Sink result rows (ids + values over an interned string table).
pub const BLOCK_ROWS: u8 = 5;
/// Prepared backtrace index: per-operator sort permutations.
pub const BLOCK_INDEX: u8 = 6;
/// End marker; nothing may follow it.
pub const BLOCK_END: u8 = 7;

// The checksummed block framing is shared with the executor's spill files;
// it lives in `pebble_nested::encode` and is re-exported here so segment
// readers/writers keep their original import paths.
pub use pebble_nested::encode::{crc32, frame_block};

/// Starts a segment byte stream: magic + version.
pub fn segment_header() -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out
}

/// Walks the blocks of a segment, validating framing and checksums.
#[derive(Debug)]
pub struct BlockIter<'a> {
    rest: &'a [u8],
    done: bool,
}

/// One framed block whose payload checksum is not verified yet.
#[derive(Clone, Copy, Debug)]
pub struct Frame<'a> {
    /// Block type.
    pub ty: u8,
    payload: &'a [u8],
    crc: u32,
}

impl<'a> Frame<'a> {
    /// The payload, once its checksum matches.
    pub fn verify(&self) -> Result<&'a [u8], StoreError> {
        if crc32(self.payload) != self.crc {
            return Err(StoreError::ChecksumMismatch { block: self.ty });
        }
        Ok(self.payload)
    }
}

impl<'a> BlockIter<'a> {
    /// Validates the header and positions the iterator at the first block.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, StoreError> {
        if bytes.len() < 4 {
            return Err(StoreError::Truncated("magic".into()));
        }
        if bytes[..4] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        if bytes.len() < 6 {
            return Err(StoreError::Truncated("version".into()));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion { found: version });
        }
        Ok(BlockIter {
            rest: &bytes[6..],
            done: false,
        })
    }

    /// The next `(type, payload)` pair, `None` once the END block was
    /// consumed. Trailing bytes after END are an error, as is input that
    /// ends without an END block.
    pub fn next_block(&mut self) -> Result<Option<(u8, &'a [u8])>, StoreError> {
        self.next_frame()?
            .map(|f| Ok((f.ty, f.verify()?)))
            .transpose()
    }

    /// [`BlockIter::next_block`] without the payload checksum, which the
    /// caller checks with [`Frame::verify`] before it reads the payload.
    /// The END block is checked here: nothing follows it.
    pub fn next_frame(&mut self) -> Result<Option<Frame<'a>>, StoreError> {
        if self.done {
            return Ok(None);
        }
        let Some((&ty, rest)) = self.rest.split_first() else {
            return Err(StoreError::Truncated("missing end-of-segment block".into()));
        };
        if rest.len() < 4 {
            return Err(StoreError::Truncated("block length".into()));
        }
        let (len_bytes, rest) = rest.split_at(4);
        let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
        if rest.len() < len + 4 {
            return Err(StoreError::BadLength { block: ty });
        }
        let (payload, rest) = rest.split_at(len);
        let (crc_bytes, rest) = rest.split_at(4);
        let frame = Frame {
            ty,
            payload,
            crc: u32::from_le_bytes(crc_bytes.try_into().unwrap()),
        };
        self.rest = rest;
        if ty == BLOCK_END {
            if !frame.verify()?.is_empty() {
                return Err(StoreError::Corrupt("end block carries a payload".into()));
            }
            if !self.rest.is_empty() {
                return Err(StoreError::Corrupt(
                    "trailing bytes after end-of-segment block".into(),
                ));
            }
            self.done = true;
            return Ok(None);
        }
        Ok(Some(frame))
    }
}

// ---------------------------------------------------------------------------
// Association chunks
// ---------------------------------------------------------------------------

/// Encodes one chunk of a read table: `oid · tag 0 · ids (delta)`.
fn chunk_read(op: OpId, ids: &[ItemId]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(ids.len() + 8);
    put_varint(&mut buf, op as u64);
    buf.push(0);
    pebble_nested::encode::put_ids_delta(&mut buf, ids);
    buf
}

/// Encodes one chunk of a unary table as run-length tokens: each maximal
/// `⟨in+k, out+k⟩` run is one `len · Δin · Δout` token.
pub fn chunk_unary(op: OpId, runs: &UnaryRuns) -> Vec<u8> {
    let mut buf = Vec::with_capacity(runs.run_count() * 6 + 8);
    put_varint(&mut buf, op as u64);
    buf.push(1);
    runs.put_tokens(&mut buf);
    buf
}

/// Encodes one chunk of a binary (join/union) table.
fn chunk_binary(op: OpId, triples: &[(Option<ItemId>, Option<ItemId>, ItemId)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(triples.len() * 4 + 8);
    put_varint(&mut buf, op as u64);
    buf.push(2);
    put_varint(&mut buf, triples.len() as u64);
    let (mut prev_l, mut prev_r, mut prev_o) = (0u64, 0u64, 0u64);
    for &(l, r, o) in triples {
        let flags = l.is_some() as u8 | (r.is_some() as u8) << 1;
        buf.push(flags);
        if let Some(l) = l {
            put_signed(&mut buf, l.wrapping_sub(prev_l) as i64);
            prev_l = l;
        }
        if let Some(r) = r {
            put_signed(&mut buf, r.wrapping_sub(prev_r) as i64);
            prev_r = r;
        }
        put_signed(&mut buf, o.wrapping_sub(prev_o) as i64);
        prev_o = o;
    }
    buf
}

/// Encodes one chunk of a flatten table.
fn chunk_flatten(op: OpId, triples: &[(ItemId, u32, ItemId)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(triples.len() * 3 + 8);
    put_varint(&mut buf, op as u64);
    buf.push(3);
    put_varint(&mut buf, triples.len() as u64);
    let (mut prev_in, mut prev_out) = (0u64, 0u64);
    for &(i, pos, o) in triples {
        put_signed(&mut buf, i.wrapping_sub(prev_in) as i64);
        put_varint(&mut buf, pos as u64);
        put_signed(&mut buf, o.wrapping_sub(prev_out) as i64);
        prev_in = i;
        prev_out = o;
    }
    buf
}

/// Encodes one chunk of an aggregation table.
fn chunk_agg(op: OpId, groups: &[(Vec<ItemId>, ItemId)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(groups.len() * 4 + 8);
    put_varint(&mut buf, op as u64);
    buf.push(4);
    put_varint(&mut buf, groups.len() as u64);
    let mut prev_o = 0u64;
    for (members, o) in groups {
        pebble_nested::encode::put_ids_delta(&mut buf, members);
        put_signed(&mut buf, o.wrapping_sub(prev_o) as i64);
        prev_o = *o;
    }
    buf
}

/// Encodes a whole association table as one chunk.
pub fn chunk_table(op: &OperatorProvenance) -> Vec<u8> {
    match &op.assoc {
        ProvAssoc::Read(ids) => chunk_read(op.oid, ids),
        ProvAssoc::Unary(v) => chunk_unary(op.oid, v),
        ProvAssoc::Binary(v) => chunk_binary(op.oid, v),
        ProvAssoc::Flatten(v) => chunk_flatten(op.oid, v),
        ProvAssoc::Agg(v) => chunk_agg(op.oid, v.as_slice()),
    }
}

/// Decodes one ASSOC chunk payload and appends its entries to the matching
/// operator's table. The table kind was fixed by the OPAUX block; a chunk
/// whose tag disagrees is corrupt.
///
/// `max_entries` bounds any one table: a run token is a handful of bytes
/// however long its run, so its length must be checked against something
/// other than the chunk before the table grows by it. Callers pass the
/// segment's byte length — every association entry also costs at least one
/// byte in the `INDEX` block, so no table of a well-formed segment holds
/// more entries than the segment has bytes.
pub fn apply_chunk(
    mut payload: &[u8],
    ops: &mut [OperatorProvenance],
    max_entries: usize,
) -> Result<(), StoreError> {
    let buf = &mut payload;
    let oid = get_varint(buf)? as usize;
    let op = ops
        .get_mut(oid)
        .ok_or_else(|| StoreError::Corrupt(format!("assoc chunk for unknown operator #{oid}")))?;
    let tag = get_u8(buf)?;
    match (tag, &mut op.assoc) {
        (0, ProvAssoc::Read(ids)) => {
            ids.extend(pebble_nested::encode::get_ids_delta(buf)?);
        }
        (1, ProvAssoc::Unary(runs)) => runs.get_tokens(buf, max_entries)?,
        (2, ProvAssoc::Binary(triples)) => {
            let n = get_varint(buf)? as usize;
            if buf.len() < n {
                return Err(StoreError::Truncated("binary association chunk".into()));
            }
            let (mut prev_l, mut prev_r, mut prev_o) = (0u64, 0u64, 0u64);
            for _ in 0..n {
                let flags = get_u8(buf)?;
                let l = if flags & 1 != 0 {
                    prev_l = prev_l.wrapping_add(get_signed(buf)? as u64);
                    Some(prev_l)
                } else {
                    None
                };
                let r = if flags & 2 != 0 {
                    prev_r = prev_r.wrapping_add(get_signed(buf)? as u64);
                    Some(prev_r)
                } else {
                    None
                };
                prev_o = prev_o.wrapping_add(get_signed(buf)? as u64);
                triples.push((l, r, prev_o));
            }
        }
        (3, ProvAssoc::Flatten(triples)) => {
            let n = get_varint(buf)? as usize;
            if buf.len() < n {
                return Err(StoreError::Truncated("flatten association chunk".into()));
            }
            let (mut prev_in, mut prev_out) = (0u64, 0u64);
            for _ in 0..n {
                prev_in = prev_in.wrapping_add(get_signed(buf)? as u64);
                let pos = get_varint(buf)? as u32;
                prev_out = prev_out.wrapping_add(get_signed(buf)? as u64);
                triples.push((prev_in, pos, prev_out));
            }
        }
        (4, ProvAssoc::Agg(groups)) => {
            let n = get_varint(buf)? as usize;
            if buf.len() < n {
                return Err(StoreError::Truncated(
                    "aggregation association chunk".into(),
                ));
            }
            let mut prev_o = 0u64;
            for _ in 0..n {
                let members = pebble_nested::encode::get_ids_delta(buf)?;
                prev_o = prev_o.wrapping_add(get_signed(buf)? as u64);
                groups.push((members, prev_o));
            }
        }
        (tag @ 0..=4, _) => {
            return Err(StoreError::Corrupt(format!(
                "assoc chunk tag {tag} does not match operator #{oid}'s table kind"
            )));
        }
        (tag, _) => {
            return Err(StoreError::Corrupt(format!(
                "unknown assoc chunk tag {tag}"
            )));
        }
    }
    if !buf.is_empty() {
        return Err(StoreError::Corrupt(format!(
            "trailing bytes in assoc chunk for operator #{oid}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn block_frame_round_trips() {
        let mut out = segment_header();
        frame_block(&mut out, BLOCK_META, &[1, 2, 3]);
        frame_block(&mut out, BLOCK_END, &[]);
        let mut it = BlockIter::parse(&out).unwrap();
        let (ty, payload) = it.next_block().unwrap().unwrap();
        assert_eq!((ty, payload), (BLOCK_META, &[1u8, 2, 3][..]));
        assert!(it.next_block().unwrap().is_none());
        assert!(it.next_block().unwrap().is_none()); // idempotent
    }

    #[test]
    fn framing_rejects_damage() {
        let mut out = segment_header();
        frame_block(&mut out, BLOCK_META, &[9; 16]);
        frame_block(&mut out, BLOCK_END, &[]);

        // Magic.
        let mut bad = out.clone();
        bad[0] ^= 0xff;
        assert_eq!(BlockIter::parse(&bad).unwrap_err(), StoreError::BadMagic);
        // Version.
        let mut bad = out.clone();
        bad[4] = 0x7f;
        assert!(matches!(
            BlockIter::parse(&bad).unwrap_err(),
            StoreError::UnsupportedVersion { found: 0x7f }
        ));
        // Payload bit flip → checksum.
        let mut bad = out.clone();
        bad[6 + 5 + 3] ^= 1;
        let mut it = BlockIter::parse(&bad).unwrap();
        assert_eq!(
            it.next_block().unwrap_err(),
            StoreError::ChecksumMismatch { block: BLOCK_META }
        );
        // Truncation inside the payload.
        let mut it = BlockIter::parse(&out[..16]).unwrap();
        assert!(matches!(
            it.next_block().unwrap_err(),
            StoreError::BadLength { block: BLOCK_META }
        ));
        // Trailing garbage after END.
        let mut bad = out.clone();
        bad.push(0);
        let mut it = BlockIter::parse(&bad).unwrap();
        assert!(it.next_block().is_ok());
        // (BLOCK_META consumed; END then sees a trailing byte.)
        assert!(matches!(it.next_block(), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn unary_rle_compresses_ranges() {
        let op = 0;
        // Two runs: 100..1100 and a lone pair.
        let mut pairs: Vec<(u64, u64)> = (0..1000).map(|k| (100 + k, 5000 + k)).collect();
        pairs.push((9999, 12));
        let runs = UnaryRuns::from_pairs(pairs.iter().copied());
        let chunk = chunk_unary(op, &runs);
        assert!(chunk.len() < 32, "RLE chunk is {} bytes", chunk.len());
        let mut ops = vec![OperatorProvenance {
            oid: op,
            op_type: "filter".into(),
            inputs: vec![],
            manipulated: None,
            assoc: ProvAssoc::Unary(UnaryRuns::new()),
        }];
        apply_chunk(&chunk, &mut ops, pairs.len()).unwrap();
        match &ops[0].assoc {
            ProvAssoc::Unary(v) => assert_eq!(v.pairs().collect::<Vec<_>>(), pairs),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    fn unary_op() -> Vec<OperatorProvenance> {
        vec![OperatorProvenance {
            oid: 0,
            op_type: "select".into(),
            inputs: vec![],
            manipulated: None,
            assoc: ProvAssoc::Unary(UnaryRuns::new()),
        }]
    }

    /// A run token is ~17 bytes however long the run: its length is bounded
    /// by the entries the whole segment can hold, not by the chunk's bytes.
    #[test]
    fn long_single_token_run_round_trips() {
        const N: u64 = 2_000_000;
        let chunk = chunk_unary(0, &UnaryRuns::run(0, 1 << 48, N));
        assert!(chunk.len() < 20, "run chunk is {} bytes", chunk.len());
        let mut ops = unary_op();
        apply_chunk(&chunk, &mut ops, N as usize).unwrap();
        let ProvAssoc::Unary(v) = &ops[0].assoc else {
            panic!("wrong kind");
        };
        assert_eq!((v.len(), v.run_count()), (N as usize, 1));
        assert_eq!(v.get(0), Some((0, 1 << 48)));
        assert_eq!(v.get(N as usize - 1), Some((N - 1, (1 << 48) + N - 1)));
        // The bound counts what earlier chunks already appended.
        let err = apply_chunk(
            &chunk_unary(0, &UnaryRuns::run(N, 0, 1)),
            &mut ops,
            N as usize,
        );
        assert!(matches!(err, Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn run_longer_than_its_segment_is_rejected_before_allocating() {
        let chunk = chunk_unary(0, &UnaryRuns::run(0, 0, 1 << 40));
        assert!(chunk.len() < 30);
        let mut ops = unary_op();
        let err = apply_chunk(&chunk, &mut ops, 30).unwrap_err();
        assert_eq!(
            err,
            StoreError::Corrupt("absurd unary run length".into()),
            "{err}"
        );
        let ProvAssoc::Unary(v) = &ops[0].assoc else {
            panic!("wrong kind");
        };
        assert!(v.is_empty(), "nothing appended");
    }

    #[test]
    fn chunks_round_trip_every_kind() {
        let mk = |oid: u32, assoc: ProvAssoc| OperatorProvenance {
            oid,
            op_type: "x".into(),
            inputs: vec![],
            manipulated: None,
            assoc,
        };
        let originals = vec![
            mk(0, ProvAssoc::Read(vec![7, 8, 9, 1 << 48])),
            mk(
                1,
                ProvAssoc::Unary(UnaryRuns::from_pairs([(1, 10), (2, 11), (5, 40)])),
            ),
            mk(
                2,
                ProvAssoc::Binary(vec![
                    (Some(1), None, 100),
                    (None, Some(2), 101),
                    (Some(3), Some(4), 102),
                ]),
            ),
            mk(
                3,
                ProvAssoc::Flatten(vec![(1, 1, 50), (1, 2, 51), (2, 1, 52)]),
            ),
            mk(
                4,
                ProvAssoc::Agg(vec![(vec![1, 2, 3], 200), (vec![9], 201), (vec![], 202)]),
            ),
        ];
        let mut blank: Vec<OperatorProvenance> = originals
            .iter()
            .map(|o| {
                let empty = match &o.assoc {
                    ProvAssoc::Read(_) => ProvAssoc::Read(vec![]),
                    ProvAssoc::Unary(_) => ProvAssoc::Unary(UnaryRuns::new()),
                    ProvAssoc::Binary(_) => ProvAssoc::Binary(vec![]),
                    ProvAssoc::Flatten(_) => ProvAssoc::Flatten(vec![]),
                    ProvAssoc::Agg(_) => ProvAssoc::Agg(vec![]),
                };
                OperatorProvenance {
                    oid: o.oid,
                    op_type: o.op_type.clone(),
                    inputs: vec![],
                    manipulated: None,
                    assoc: empty,
                }
            })
            .collect();
        for op in &originals {
            apply_chunk(&chunk_table(op), &mut blank, 64).unwrap();
        }
        for (a, b) in originals.iter().zip(&blank) {
            assert_eq!(a.assoc, b.assoc);
        }
    }

    #[test]
    fn apply_chunk_rejects_mismatched_kind() {
        let chunk = chunk_read(0, &[1, 2]);
        let mut ops = vec![OperatorProvenance {
            oid: 0,
            op_type: "filter".into(),
            inputs: vec![],
            manipulated: None,
            assoc: ProvAssoc::Unary(UnaryRuns::new()),
        }];
        assert!(matches!(
            apply_chunk(&chunk, &mut ops, 64),
            Err(StoreError::Corrupt(_))
        ));
        // Unknown operator.
        let chunk = chunk_read(9, &[1]);
        assert!(matches!(
            apply_chunk(&chunk, &mut ops, 64),
            Err(StoreError::Corrupt(_))
        ));
    }
}
