//! Golden fixtures for a DBLP pipeline covering `flatten` + `groupBy`
//! provenance: the exact output NDJSON and the exact rendered provenance
//! (association-table sizes, access/manipulation sets, and a backtrace)
//! are pinned byte-for-byte, at every shape of `ExecMatrix::suite(3)`.
//!
//! Re-bless after an *intentional* change with
//! `BLESS=1 cargo test -p pebble-oracle --test dblp_golden`.

use pebble_core::{backtrace, canonical_provenance, run_captured, Backtrace, ProvTree};
use pebble_dataflow::{AggFunc, AggSpec, ExecMatrix, Expr, GroupKey, Program, ProgramBuilder};
use pebble_nested::{json, Path};
use pebble_oracle::run_reference;

/// Authors-per-paper inversion: which papers did each person co-author?
/// (flatten over the `authors` bag, then group by the exploded author).
fn golden_program() -> Program {
    let mut b = ProgramBuilder::new();
    let r = b.read("inproceedings");
    let recent = b.filter(r, Expr::col("year").ge(Expr::lit(2011i64)));
    let fl = b.flatten(recent, "authors", "author");
    let g = b.group_aggregate(
        fl,
        vec![GroupKey::aliased("who", "author")],
        vec![
            AggSpec::new(AggFunc::Count, "", "papers"),
            AggSpec::new(AggFunc::CollectList, "title", "titles"),
            AggSpec::new(AggFunc::Min, "year", "since"),
        ],
    );
    b.build(g)
}

fn golden_ctx() -> pebble_dataflow::Context {
    pebble_workloads::fuzz_dblp_context(11, 60)
}

fn fixture_path(name: &str) -> String {
    format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn check_fixture(name: &str, text: &str) {
    let path = fixture_path(name);
    if std::env::var("BLESS").is_ok() {
        std::fs::write(&path, text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {path} ({e}); run with BLESS=1 to create"));
    assert_eq!(
        text, golden,
        "{name} drifted from the checked-in fixture; if the change is \
         intentional, re-bless with BLESS=1"
    );
}

/// The pipeline's output rows, pinned as NDJSON.
#[test]
fn dblp_flatten_group_output_matches_fixture() {
    for config in ExecMatrix::suite(3) {
        let run =
            run_captured(&golden_program(), &golden_ctx(), config).expect("golden pipeline runs");
        let text = run
            .output
            .rows
            .iter()
            .map(|r| json::item_to_string(&r.item))
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        check_fixture("dblp_flatten_group.ndjson", &text);
    }
}

/// The captured provenance and a backtrace through flatten + groupBy,
/// pinned as a rendered text report. Identifiers are excluded (they
/// encode partitioning); everything identifier-free is exact.
#[test]
fn dblp_flatten_group_provenance_matches_fixture() {
    for config in ExecMatrix::suite(3) {
        check_fixture("dblp_flatten_group.trace", &provenance_report(config));
    }
}

fn provenance_report(config: pebble_dataflow::ExecConfig) -> String {
    let run = run_captured(&golden_program(), &golden_ctx(), config).unwrap();

    let mut out = String::new();
    out.push_str("# operator provenance (Def. 5.1, identifier-free parts)\n");
    for op in &run.ops {
        let a: Vec<String> = op
            .inputs
            .iter()
            .map(|i| match &i.accessed {
                None => "⊥".to_string(),
                Some(ps) => format!(
                    "{{{}}}",
                    ps.iter()
                        .map(Path::to_string)
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            })
            .collect();
        let m = match &op.manipulated {
            None => "⊥".to_string(),
            Some(ms) => format!(
                "{{{}}}",
                ms.iter()
                    .map(|(i, o)| format!("⟨{i}, {o}⟩"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        };
        out.push_str(&format!(
            "op {} {}: assoc_entries={} A=[{}] M={}\n",
            op.oid,
            op.op_type,
            op.assoc.len(),
            a.join(", "),
            m
        ));
    }

    out.push_str("\n# whole-item backtrace of the first result row\n");
    let row = &run.output.rows[0];
    out.push_str(&format!("result: {}\n", json::item_to_string(&row.item)));
    let tree = ProvTree::from_paths(Path::path_set(&row.item).iter());
    let sources = backtrace(
        &run,
        Backtrace {
            entries: vec![(row.id, tree)],
        },
    )
    .unwrap();
    for (source, index, tree) in canonical_provenance(&sources) {
        out.push_str(&format!("{source}[{index}]: {tree}\n"));
    }
    out
}

/// The same pipeline also agrees with the Tab. 5 reference interpreter
/// bit-for-bit, so the fixtures pin behavior both engines share.
#[test]
fn dblp_flatten_group_matches_reference() {
    let program = golden_program();
    let ctx = golden_ctx();
    let reference = run_reference(&program, &ctx).unwrap();
    let engine = run_captured(&program, &ctx, pebble_oracle::reference_config()).unwrap();
    assert_eq!(reference.output.rows, engine.output.rows);
    assert_eq!(reference.ops, engine.ops);
}
