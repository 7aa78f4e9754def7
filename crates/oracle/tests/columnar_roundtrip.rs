//! Property tests for the `Vec<DataItem> ⇄ ColumnBatch` converters over the
//! oracle's seeded dataset generators.
//!
//! The vectorized kernels are only sound if transposing a morsel into
//! [`ColumnBatch`] and back is lossless for every item shape the engine can
//! see: the deeply nested Twitter `user`/`entities` sub-trees, DBLP records
//! with `authors` bags, empty lists, missing attributes, and the corrupted
//! rows of the malformed-input axis. Losslessness is checked three ways —
//! structural equality, `Display`, and NDJSON rendering — because the
//! latter two are what downstream consumers actually compare.

use pebble_nested::{json, ColumnBatch, DataItem};
use pebble_oracle::gen::{generate, generate_malformed};
use pebble_workloads::{fuzz_dblp_context, fuzz_twitter_context};

/// Asserts `ColumnBatch::from_items` round-trips `items` losslessly through
/// both the borrowing (`to_items`) and consuming (`into_items`) converters.
fn assert_roundtrip(what: &str, items: &[DataItem]) {
    let batch = ColumnBatch::from_items(items);
    assert_eq!(batch.len(), items.len(), "{what}: row count");
    let back = batch.to_items();
    for (i, (orig, got)) in items.iter().zip(&back).enumerate() {
        assert_eq!(orig, got, "{what}: row {i} differs structurally");
        assert_eq!(
            orig.to_string(),
            got.to_string(),
            "{what}: row {i} Display differs"
        );
        assert_eq!(
            json::item_to_string(orig),
            json::item_to_string(got),
            "{what}: row {i} NDJSON differs"
        );
    }
    assert_eq!(batch.into_items(), items, "{what}: into_items differs");
}

#[test]
fn twitter_datasets_roundtrip() {
    for seed in 0..40u64 {
        let rows = 8 + (seed as usize % 21);
        let ctx = fuzz_twitter_context(seed, rows);
        assert_roundtrip(
            &format!("twitter seed {seed}"),
            ctx.source("tweets").unwrap(),
        );
    }
}

#[test]
fn dblp_datasets_roundtrip() {
    for seed in 0..40u64 {
        let records = 30 + (seed as usize % 31);
        let ctx = fuzz_dblp_context(seed, records);
        for source in pebble_workloads::fuzz::DBLP_SOURCES {
            assert_roundtrip(
                &format!("dblp seed {seed} source {source}"),
                ctx.source(source).unwrap(),
            );
        }
    }
}

/// The generator's full dataset mix — including the datasets whose
/// pipelines the differential oracle replays — round-trips too.
#[test]
fn generated_datasets_roundtrip() {
    for seed in 0..60u64 {
        let gen = generate(seed);
        for (name, items) in &gen.dataset.sources {
            assert_roundtrip(&format!("gen seed {seed} source {name}"), items);
        }
    }
}

/// Corrupted datasets from the malformed-input axis (type confusion,
/// truncated records, missing attributes) must round-trip unchanged as
/// well: a program over them may fail, but the representation itself is
/// shape-agnostic.
#[test]
fn malformed_datasets_roundtrip() {
    for seed in 0..60u64 {
        let gen = generate_malformed(seed);
        for (name, items) in &gen.dataset.sources {
            assert_roundtrip(&format!("malformed seed {seed} source {name}"), items);
        }
    }
}

/// Degenerate shapes the generators may not always hit: empty batches,
/// items with no attributes, and single-row batches.
#[test]
fn degenerate_shapes_roundtrip() {
    assert_roundtrip("empty batch", &[]);
    assert_roundtrip("single empty item", &[DataItem::new()]);
    let mixed = vec![
        DataItem::new(),
        DataItem::from_fields([("a", pebble_nested::Value::Bag(Vec::new()))]),
        DataItem::from_fields([("b", pebble_nested::Value::Null)]),
    ];
    assert_roundtrip("degenerate mix", &mixed);
}
