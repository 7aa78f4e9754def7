//! Decoder robustness: the segment reader must never panic on malformed
//! input, and every rejection must be one of the typed, `Display`-stable
//! [`StoreError`] forms of the PR 4 error contract.

use std::collections::BTreeMap;

use pebble_core::{run_captured, CapturedRun, ProvAssoc, UnaryRuns};
use pebble_dataflow::ExecConfig;
use pebble_nested::encode::{put_signed, put_str, put_varint};
use pebble_serve::segment::{
    chunk_unary, frame_block, segment_header, BLOCK_ASSOC, BLOCK_END, BLOCK_INDEX, BLOCK_META,
    BLOCK_ROWS,
};
use pebble_serve::{persist, ProvStore, StoreError};
use pebble_workloads::running_example;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn base_run() -> CapturedRun {
    run_captured(
        &running_example::program(),
        &running_example::context(),
        ExecConfig::with_partitions(1).workers(1),
    )
    .unwrap()
}

fn base_segment() -> Vec<u8> {
    persist(&base_run())
}

/// Every error the decoder may legally produce, by pinned `Display`
/// prefix. Anything else — above all a panic — is a bug.
fn is_typed_rejection(e: &StoreError) -> bool {
    let s = e.to_string();
    s == "not a pebble segment (bad magic)"
        || s.starts_with("unsupported segment version ")
        || s.starts_with("truncated segment: ")
        || s.starts_with("checksum mismatch in block type ")
        || (s.starts_with("block type ") && s.ends_with(" declares a length beyond the input"))
        || s.starts_with("corrupt segment: ")
        || s.starts_with("store i/o error: ")
}

#[test]
fn truncation_at_every_prefix_is_typed() {
    let bytes = base_segment();
    for len in 0..bytes.len() {
        match ProvStore::from_bytes(&bytes[..len]) {
            Ok(_) => panic!("prefix of {len} bytes decoded as a whole store"),
            Err(e) => assert!(is_typed_rejection(&e), "untyped error at len {len}: {e}"),
        }
    }
    // The untouched segment still loads.
    assert!(ProvStore::from_bytes(&bytes).is_ok());
}

/// The 1 500 seeded whole-segment mutations: bit flips, byte overwrites,
/// truncations, garbage insertions and length-field scribbles.
fn random_mutations(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(0x5e9_5e9);
    (0..1500)
        .map(|case| {
            let mut mutated = bytes.to_vec();
            match case % 5 {
                // Single bit flip.
                0 => {
                    let i = rng.gen_range(0..mutated.len());
                    mutated[i] ^= 1u8 << rng.gen_range(0..8u32);
                }
                // Byte overwrite.
                1 => {
                    let i = rng.gen_range(0..mutated.len());
                    mutated[i] = rng.gen_range(0..=255u32) as u8;
                }
                // Random truncation.
                2 => {
                    let len = rng.gen_range(0..mutated.len());
                    mutated.truncate(len);
                }
                // Garbage insertion.
                3 => {
                    let i = rng.gen_range(0..=mutated.len());
                    let n = rng.gen_range(1..16usize);
                    let junk: Vec<u8> = (0..n).map(|_| rng.gen_range(0..=255u32) as u8).collect();
                    mutated.splice(i..i, junk);
                }
                // Length-field scribble: stomp the 4 bytes after a block tag.
                _ => {
                    let i = rng.gen_range(6..mutated.len().saturating_sub(5).max(7));
                    for k in 0..4 {
                        mutated[i + k] = rng.gen_range(0..=255u32) as u8;
                    }
                }
            }
            mutated
        })
        .collect()
}

#[test]
fn random_corruption_never_panics() {
    for (case, mutated) in random_mutations(&base_segment()).iter().enumerate() {
        // Must not panic; must either load or reject with a typed error.
        if let Err(e) = ProvStore::from_bytes(mutated) {
            assert!(is_typed_rejection(&e), "case {case}: untyped error: {e}");
        }
    }
}

#[test]
fn specific_damage_yields_specific_errors() {
    let bytes = base_segment();

    // Not a segment at all.
    let err = ProvStore::from_bytes(b"PBSXjunk").unwrap_err();
    assert_eq!(err, StoreError::BadMagic);
    assert_eq!(err.to_string(), "not a pebble segment (bad magic)");

    // Empty and header-only inputs.
    assert!(matches!(
        ProvStore::from_bytes(&[]).unwrap_err(),
        StoreError::Truncated(_)
    ));
    assert!(matches!(
        ProvStore::from_bytes(&bytes[..5]).unwrap_err(),
        StoreError::Truncated(_)
    ));

    // Future version: rejected before anything else is trusted, with the
    // reader's own version named in the message.
    let mut future = bytes.clone();
    future[4] = 2;
    future[5] = 0;
    let err = ProvStore::from_bytes(&future).unwrap_err();
    assert_eq!(err, StoreError::UnsupportedVersion { found: 2 });
    assert_eq!(
        err.to_string(),
        "unsupported segment version 2 (this reader speaks version 1)"
    );

    // Payload bit flip in the first block: checksum catches it and names
    // the block type.
    let mut flipped = bytes.clone();
    flipped[6 + 5] ^= 0x40; // first payload byte of the META block
    let err = ProvStore::from_bytes(&flipped).unwrap_err();
    assert_eq!(err, StoreError::ChecksumMismatch { block: 1 });
    assert_eq!(err.to_string(), "checksum mismatch in block type 1");

    // Oversized declared length.
    let mut long = bytes.clone();
    long[7] = 0xff;
    long[8] = 0xff;
    let err = ProvStore::from_bytes(&long).unwrap_err();
    assert!(matches!(err, StoreError::BadLength { .. }));

    // Trailing garbage after the END block.
    let mut trailing = bytes.clone();
    trailing.push(0);
    let err = ProvStore::from_bytes(&trailing).unwrap_err();
    assert!(matches!(err, StoreError::Corrupt(_)));
    assert_eq!(
        err.to_string(),
        "corrupt segment: trailing bytes after end-of-segment block"
    );
}

/// The `(type, payload)` blocks of a well-formed segment, END excluded.
fn blocks(segment: &[u8]) -> Vec<(u8, Vec<u8>)> {
    let mut out = Vec::new();
    let mut rest = &segment[6..];
    while let Some((&ty, tail)) = rest.split_first() {
        let len = u32::from_le_bytes(tail[..4].try_into().unwrap()) as usize;
        if ty != BLOCK_END {
            out.push((ty, tail[4..4 + len].to_vec()));
        }
        rest = &tail[4 + len + 4..];
    }
    out
}

/// A segment of `blocks`, each framed with its length and a fresh CRC.
fn seal(blocks: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut out = segment_header();
    for (ty, payload) in blocks {
        frame_block(&mut out, *ty, payload);
    }
    frame_block(&mut out, BLOCK_END, &[]);
    out
}

/// The error class of a rejection: its `Display` text up to the first
/// detail (`corrupt segment: unknown value tag 9` → `corrupt segment`).
fn class(e: &StoreError) -> String {
    let s = e.to_string();
    s.split(':').next().unwrap_or(&s).to_string()
}

/// Damage inside one block's payload with the block resealed: the CRC and
/// length are right again, so the bytes reach the payload decoders (the
/// string table, `ROWS`, `ASSOC`, `INDEX`, …) instead of stopping at the
/// checksum. Each of the 1 500 cases is the damaged block's type and the
/// resealed segment.
fn resealed_mutations(base: &[(u8, Vec<u8>)]) -> Vec<(u8, Vec<u8>)> {
    let mut types: Vec<u8> = base.iter().map(|(ty, _)| *ty).collect();
    types.sort_unstable();
    types.dedup();
    let mut rng = StdRng::seed_from_u64(0x5ea1ed);
    (0..1500)
        .map(|case| {
            let mut mutated = base.to_vec();
            // A block type first, then one block of it: a run has one `ASSOC`
            // chunk per operator, and the other decoders deserve equal weight.
            let ty = types[rng.gen_range(0..types.len())];
            let of_type: Vec<usize> = (0..base.len()).filter(|&b| base[b].0 == ty).collect();
            let b = of_type[rng.gen_range(0..of_type.len())];
            let payload = &mut mutated[b].1;
            let len = payload.len();
            match case % 5 {
                0 if len > 0 => {
                    let i = rng.gen_range(0..len);
                    payload[i] ^= 1u8 << rng.gen_range(0..8u32);
                }
                1 if len > 0 => {
                    let i = rng.gen_range(0..len);
                    payload[i] = rng.gen_range(0..=255u32) as u8;
                }
                2 if len > 0 => {
                    let i = rng.gen_range(0..len);
                    for byte in payload.iter_mut().skip(i).take(4) {
                        *byte = rng.gen_range(0..=255u32) as u8;
                    }
                }
                3 => payload.truncate(rng.gen_range(0..=len)),
                _ => {
                    let i = rng.gen_range(0..=len);
                    let n = rng.gen_range(1..8usize);
                    let junk: Vec<u8> = (0..n).map(|_| rng.gen_range(0..=255u32) as u8).collect();
                    payload.splice(i..i, junk);
                }
            }
            (ty, seal(&mutated))
        })
        .collect()
}

#[test]
fn resealed_payload_corruption_is_typed() {
    let base = blocks(&base_segment());
    assert_eq!(ProvStore::from_bytes(&seal(&base)).unwrap().rows().len(), 3);
    let mut loaded = 0;
    let mut classes: BTreeMap<String, usize> = BTreeMap::new();
    let mut per_block: BTreeMap<u8, usize> = BTreeMap::new();
    for (case, (ty, segment)) in resealed_mutations(&base).iter().enumerate() {
        *per_block.entry(*ty).or_default() += 1;
        match ProvStore::from_bytes(segment) {
            Ok(_) => loaded += 1,
            Err(e) => {
                assert!(is_typed_rejection(&e), "case {case}: untyped error: {e}");
                *classes.entry(class(&e)).or_default() += 1;
            }
        }
    }
    eprintln!("resealed segment mutations: {loaded} load, rejected {classes:?}, by block type {per_block:?}");
    // The damage reaches the decoders: most cases are rejected there, not
    // at the frame.
    assert!(
        classes.get("corrupt segment").copied().unwrap_or(0) > 500,
        "{classes:?}"
    );
}

/// Which error a damaged segment reports is part of the contract, not only
/// that it reports one: one FNV-1a digest over the outcome (`ok`, or the
/// error's `Display`) of every prefix truncation, every seeded mutation and
/// every resealed case. It was recorded with the serial cold open, so the
/// two-task open reports the earliest failing block exactly as it did.
#[test]
fn outcomes_of_every_case_are_pinned() {
    let bytes = base_segment();
    let mut segments: Vec<Vec<u8>> = (0..bytes.len()).map(|len| bytes[..len].to_vec()).collect();
    segments.extend(random_mutations(&bytes));
    segments.extend(
        resealed_mutations(&blocks(&bytes))
            .into_iter()
            .map(|(_, s)| s),
    );
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for segment in &segments {
        let outcome = match ProvStore::from_bytes(segment) {
            Ok(_) => "ok".to_string(),
            Err(e) => e.to_string(),
        };
        for b in outcome.bytes().chain([b'\n']) {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(segments.len(), 3000 + bytes.len());
    assert_eq!(digest, 0x2af7_a653_6a1b_a924, "{digest:#018x}");
}

/// A `ROWS` block whose item repeats an attribute is well framed but
/// malformed: the decoder rejects it with a typed error instead of
/// building an item that breaks the unique-label invariant.
#[test]
fn rows_block_repeating_an_attribute_is_corrupt() {
    let base = blocks(&base_segment());
    let rows_at = base.iter().position(|(ty, _)| *ty == BLOCK_ROWS).unwrap();
    // One row over the string table `strings`, whose item holds a null
    // under each label id of `labels`.
    let rows_block = |strings: &[&str], labels: &[u64]| {
        let mut payload = Vec::new();
        put_varint(&mut payload, strings.len() as u64);
        for s in strings {
            put_str(&mut payload, s);
        }
        put_varint(&mut payload, 1);
        put_signed(&mut payload, 7);
        put_varint(&mut payload, labels.len() as u64);
        for &id in labels {
            put_varint(&mut payload, id);
            payload.push(0); // null
        }
        let mut segment = base.clone();
        segment[rows_at].1 = payload;
        seal(&segment)
    };
    // The same block with distinct labels decodes (and then fails the row
    // count, which the meta block declares as 3).
    let err = ProvStore::from_bytes(&rows_block(&["a", "b"], &[0, 1])).unwrap_err();
    assert_eq!(
        err.to_string(),
        "corrupt segment: row block has 1 rows, meta declares 3"
    );
    // One id twice, and one name at two dictionary positions.
    for (strings, labels) in [
        (&["a", "b"][..], &[0, 0][..]),
        (&["a", "b", "a"], &[0, 1, 2]),
    ] {
        let err = ProvStore::from_bytes(&rows_block(strings, labels)).unwrap_err();
        assert_eq!(
            err,
            StoreError::Corrupt("duplicate attribute `a` in item".into()),
            "{strings:?} {labels:?}"
        );
    }
}

/// Where block `k` of `blocks` starts in `seal(blocks)`.
fn block_start(blocks: &[(u8, Vec<u8>)], k: usize) -> usize {
    6 + blocks[..k].iter().map(|(_, p)| 9 + p.len()).sum::<usize>()
}

/// `seal(blocks)` with block `k`'s stored checksum broken.
fn seal_breaking_crc(blocks: &[(u8, Vec<u8>)], k: usize) -> Vec<u8> {
    let mut segment = seal(blocks);
    segment[block_start(blocks, k) + 5 + blocks[k].1.len()] ^= 0x01;
    segment
}

/// Cold open decodes `ROWS` on one task and every other block on another;
/// with two faults in one segment, the error reported is still the earlier
/// block's, whichever task meets it.
#[test]
fn the_earlier_of_two_faults_is_reported() {
    let base = blocks(&base_segment());
    let at = |ty: u8| base.iter().position(|(t, _)| *t == ty).unwrap();
    let (assoc, rows, index) = (at(BLOCK_ASSOC), at(BLOCK_ROWS), at(BLOCK_INDEX));
    assert!(at(BLOCK_META) == 0 && assoc < rows && rows < index);
    let open = |segment: &[u8]| ProvStore::from_bytes(segment).unwrap_err();
    // A `ROWS` block whose string table promises five strings and holds none.
    let mut bad_rows = base.clone();
    bad_rows[rows].1 = vec![5];
    let rows_error = open(&seal(&bad_rows));
    assert_eq!(
        rows_error,
        StoreError::Corrupt("truncated string table".into())
    );

    // A bad `ASSOC` checksum before a corrupt `ROWS`.
    assert_eq!(
        open(&seal_breaking_crc(&bad_rows, assoc)),
        StoreError::ChecksumMismatch { block: BLOCK_ASSOC }
    );
    // A corrupt `ROWS` before a bad `INDEX` checksum, which alone reports
    // itself.
    assert_eq!(open(&seal_breaking_crc(&bad_rows, index)), rows_error);
    assert_eq!(
        open(&seal_breaking_crc(&base, index)),
        StoreError::ChecksumMismatch { block: BLOCK_INDEX }
    );
    // A bad `META` checksum before a framing error after `ROWS`: the
    // segment ends inside `INDEX`, which alone reports its length.
    let cut = block_start(&base, index) + 7;
    let mut segment = seal_breaking_crc(&base, 0);
    segment.truncate(cut);
    assert_eq!(
        open(&segment),
        StoreError::ChecksumMismatch { block: BLOCK_META }
    );
    assert_eq!(
        open(&seal(&base)[..cut]),
        StoreError::BadLength { block: BLOCK_INDEX }
    );
}

/// An `INDEX` entry may claim the identity only for a table that ascends:
/// cold open checks the claim against the table instead of trusting it.
#[test]
fn identity_index_for_a_descending_table_is_corrupt() {
    let mut run = base_run();
    let op = run
        .ops
        .iter()
        .position(|op| op.assoc.len() > 1 && !matches!(op.assoc, ProvAssoc::Read(_)))
        .unwrap();
    match &mut run.ops[op].assoc {
        ProvAssoc::Unary(v) => {
            let pairs: Vec<_> = v.pairs().collect();
            *v = UnaryRuns::from_pairs(pairs.into_iter().rev());
        }
        ProvAssoc::Binary(v) => v.reverse(),
        ProvAssoc::Flatten(v) => v.reverse(),
        ProvAssoc::Agg(v) => v.reverse(),
        ProvAssoc::Read(_) => unreachable!(),
    }
    let mut segment = blocks(&persist(&run));
    assert!(ProvStore::from_bytes(&seal(&segment)).is_ok());
    let index = segment.iter().position(|(t, _)| *t == BLOCK_INDEX).unwrap();
    segment[index].1 = identity_index(&run);
    assert_eq!(
        ProvStore::from_bytes(&seal(&segment)).unwrap_err(),
        StoreError::Corrupt(format!(
            "backtrace failed: prepared index for operator #{op} is not sorted by output identifier"
        ))
    );
}

/// The `INDEX` payload claiming the identity for every table of `run`.
fn identity_index(run: &CapturedRun) -> Vec<u8> {
    let mut identity = Vec::new();
    put_varint(&mut identity, run.ops.len() as u64);
    for op in &run.ops {
        put_varint(&mut identity, op.assoc.len() as u64);
        for j in 0..op.assoc.len() {
            put_varint(&mut identity, j as u64);
        }
    }
    identity
}

/// A unary table in two `ASSOC` chunks that each ascend, the second's
/// output ids restarting below the first's: the runs of each chunk are in
/// order, the table is not, and an identity `INDEX` entry for it is corrupt.
#[test]
fn identity_index_for_a_unary_table_restarting_across_chunks_is_corrupt() {
    let run = base_run();
    let (op, pairs) = run
        .ops
        .iter()
        .enumerate()
        .find_map(|(op, o)| match &o.assoc {
            ProvAssoc::Unary(v) if v.len() > 1 => Some((op, v.pairs().collect::<Vec<_>>())),
            _ => None,
        })
        .unwrap();
    let (low, high) = pairs.split_at(pairs.len() / 2);
    let chunk = |half: &[(u64, u64)]| chunk_unary(op as u32, &UnaryRuns::from_pairs(half.to_vec()));
    let mut segment = blocks(&persist(&run));
    let at = segment
        .iter()
        .position(|(t, payload)| *t == BLOCK_ASSOC && payload[0] == op as u8)
        .unwrap();
    segment[at].1 = chunk(high);
    segment.insert(at + 1, (BLOCK_ASSOC, chunk(low)));
    let index = segment.iter().position(|(t, _)| *t == BLOCK_INDEX).unwrap();
    segment[index].1 = identity_index(&run);
    assert_eq!(
        ProvStore::from_bytes(&seal(&segment)).unwrap_err(),
        StoreError::Corrupt(format!(
            "backtrace failed: prepared index for operator #{op} is not sorted by output identifier"
        ))
    );
    // The same chunks in table order load.
    segment[at].1 = chunk(low);
    segment[at + 1].1 = chunk(high);
    let store = ProvStore::from_bytes(&seal(&segment)).unwrap();
    assert_eq!(store.ops()[op].assoc, run.ops[op].assoc);
}
