//! Golden on-disk fixture: the persisted segment of the paper's running
//! example, pinned as a hexdump. Any byte-level change to the format shows
//! up as a readable diff here; re-bless deliberately with `BLESS=1`. Every
//! shape of `ExecMatrix::suite(1)` must write the same bytes.
//! A version bump must reject old files with the typed error — also
//! pinned here.

use pebble_core::run_captured;
use pebble_dataflow::{ExecConfig, ExecMatrix};
use pebble_serve::{persist, ProvStore, StoreError};
use pebble_workloads::running_example;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/running_example.hex"
);

fn segment_bytes(config: ExecConfig) -> Vec<u8> {
    let run = run_captured(
        &running_example::program(),
        &running_example::context(),
        config,
    )
    .unwrap();
    persist(&run)
}

fn hexdump(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 4);
    for (i, chunk) in bytes.chunks(16).enumerate() {
        out.push_str(&format!("{:08x} ", i * 16));
        for b in chunk {
            out.push_str(&format!(" {b:02x}"));
        }
        out.push('\n');
    }
    out
}

fn undump(text: &str) -> Vec<u8> {
    let mut out = Vec::new();
    for line in text.lines() {
        for tok in line.split_whitespace().skip(1) {
            out.push(u8::from_str_radix(tok, 16).expect("fixture holds hex bytes"));
        }
    }
    out
}

#[test]
fn segment_bytes_match_golden_fixture() {
    if std::env::var("BLESS").is_ok_and(|v| v == "1") {
        let dump = hexdump(&segment_bytes(ExecMatrix::referee(1)));
        std::fs::write(FIXTURE, &dump).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(FIXTURE)
        .expect("golden fixture missing — run with BLESS=1 to create it");
    for config in ExecMatrix::suite(1) {
        assert_eq!(
            hexdump(&segment_bytes(config)),
            golden,
            "persisted segment bytes changed at {config:?}; if intentional, bump the \
             format version and re-bless with BLESS=1"
        );
    }
}

#[test]
fn golden_fixture_still_cold_opens() {
    let golden = std::fs::read_to_string(FIXTURE)
        .expect("golden fixture missing — run with BLESS=1 to create it");
    let bytes = undump(&golden);
    let store = ProvStore::from_bytes(&bytes).unwrap();
    // The fixture answers like a fresh in-memory run.
    let run = run_captured(
        &running_example::program(),
        &running_example::context(),
        ExecConfig::with_partitions(1).workers(1),
    )
    .unwrap();
    assert_eq!(store.ops(), run.ops.as_slice());
    assert_eq!(store.rows(), run.output.rows.as_slice());
}

#[test]
fn other_version_files_are_rejected_with_typed_error() {
    let mut bytes = segment_bytes(ExecMatrix::referee(1));
    // A file written by a future (or ancient) format version must be
    // rejected up front — never half-decoded.
    for version in [0u16, 2, 7, u16::MAX] {
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        let err = ProvStore::from_bytes(&bytes).unwrap_err();
        assert_eq!(err, StoreError::UnsupportedVersion { found: version });
        assert_eq!(
            err.to_string(),
            format!("unsupported segment version {version} (this reader speaks version 1)")
        );
    }
}
