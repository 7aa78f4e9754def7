//! Schema-compatibility pin for the v3 run report.
//!
//! A fully-populated [`RunReport`] must render **byte-for-byte** to the
//! pinned JSON below. Any key rename, reorder, or removal — or a change
//! to the number formatting — fails this test and forces a conscious
//! [`REPORT_SCHEMA_VERSION`] decision; additions within v3 must extend
//! the fixture here in the same commit.

use pebble_obs::report::{
    BackendStats, ColumnarStats, DurationSummary, MorselStats, OpReport, PoolStats,
    ProvenanceStats, RunReport, ServeStats, SpillStats, REPORT_SCHEMA_VERSION,
};

/// Every section populated; values chosen to be visibly distinct.
fn full_report() -> RunReport {
    let mut r = RunReport {
        executor: "pool".into(),
        metrics: true,
        outcome: "ok".into(),
        error: None,
        partitions: 4,
        workers: 3,
        morsel_rows: 256,
        elapsed_ns: 123_456_789,
        spans: 17,
        ..RunReport::default()
    };
    r.sources = vec![("inproceedings".into(), 6000), ("proceedings".into(), 400)];
    r.operators = vec![
        OpReport {
            op: 0,
            op_type: "read".into(),
            udf: false,
            rows_in: 0,
            rows_out: 6000,
            morsels: 8,
            udf_panics: 0,
            busy_ns: 1_000_000,
            assoc_entries: 6000,
            assoc_bytes: 48_000,
            spill_bytes: 0,
        },
        OpReport {
            op: 1,
            op_type: "filter".into(),
            udf: true,
            rows_in: 6000,
            rows_out: 1500,
            morsels: 8,
            udf_panics: 1,
            busy_ns: 2_000_000,
            assoc_entries: 1500,
            assoc_bytes: 12_000,
            spill_bytes: 4096,
        },
    ];
    r.morsels = {
        let mut m = MorselStats::default();
        m.observe(100);
        m.observe(700);
        m.observe(400);
        m
    };
    r.morsel_durations = Some(DurationSummary {
        count: 16,
        sum_ns: 32_000_000,
        p50_ns: 1_900_543,
        p90_ns: 3_930_111,
        p99_ns: 8_126_463,
        p999_ns: 8_126_463,
    });
    r.pool = Some(PoolStats {
        workers: 3,
        jobs: 24,
        max_queue_depth: 7,
        max_active: 3,
    });
    r.provenance = Some(ProvenanceStats {
        entries: 7500,
        lineage_bytes: 60_000,
        structural_bytes: 9000,
    });
    r.columnar = Some(ColumnarStats {
        batches: 12,
        batch_rows: {
            let mut m = MorselStats::default();
            m.observe(128);
            m.observe(512);
            m
        },
        filter_in: 6000,
        filter_kept: 1500,
        id_ranges: 10,
        id_pairs: 300,
        fallback_units: 1,
    });
    r.serve = Some(ServeStats {
        connections: 9,
        queries: 40,
        errors: 2,
        panics_contained: 1,
        frames_sent: 200,
        query_durations: Some(DurationSummary {
            count: 40,
            sum_ns: 90_000_000,
            p50_ns: 1_966_079,
            p90_ns: 4_128_767,
            p99_ns: 16_252_927,
            p999_ns: 16_252_927,
        }),
    });
    r.spill = Some(SpillStats {
        budget_bytes: 1 << 20,
        peak_tracked_bytes: 900_000,
        spills: 5,
        spill_bytes: 450_000,
        reloads: 5,
        capture_spills: 2,
        capture_spill_bytes: 80_000,
    });
    r.backend = Some(BackendStats {
        name: "structural".into(),
    });
    r
}

const PINNED_V3: &str = include_str!("fixtures/report_v3.json");

#[test]
fn v3_report_renders_byte_identically_to_pin() {
    assert_eq!(REPORT_SCHEMA_VERSION, 3, "fixture pins the v3 layout");
    let json = full_report().to_json();
    assert_eq!(
        json, PINNED_V3,
        "RunReport::to_json diverged from the pinned v3 fixture — \
         bump REPORT_SCHEMA_VERSION or update tests/fixtures/report_v3.json \
         in the same commit"
    );
}

/// Maintenance helper: `cargo test -p pebble-obs --test report_schema \
/// regenerate_fixture -- --ignored` rewrites the pin after an intentional
/// (version-bumped) layout change.
#[test]
#[ignore]
fn regenerate_fixture() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/report_v3.json");
    std::fs::write(path, full_report().to_json()).expect("write fixture");
}

#[test]
fn error_report_renders_error_string() {
    let r = RunReport {
        outcome: "error".into(),
        error: Some("worker panicked: \"boom\"".into()),
        ..RunReport::default()
    };
    let json = r.to_json();
    assert!(json.contains("\"error\": \"worker panicked: \\\"boom\\\"\""));
}
