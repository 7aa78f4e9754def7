//! Backtracing must cost what the answer costs — and answer the same.
//!
//! * **Pins.** The whole-store answers of D3 (two flattens, join, three
//!   aggregates) and T3 (flatten, union, nesting) — to the scenario's own
//!   query, and to the question that asks for every path of every result
//!   row — were digested with the backtracing code as it stood before
//!   `merge_by_id` stopped scanning, Alg. 4 stopped cloning every position
//!   for every member, and equal trees were rewritten once (first per run
//!   of adjacent entries, then per distinct tree of a visit). The
//!   digests cover identifiers, dataset indexes and rendered trees, per
//!   partition count; the identifier-free canonical digest is the same at
//!   every partition count.
//! * **Work counts.** [`BacktraceWork`] counts repeat exactly, so the
//!   scaling gate rests on them and not on a timing: schema expansions are a
//!   per-operator constant, and deep tree copies follow the distinct trees
//!   of a visit, not its entries.

use pebble_core::{
    backtrace_from_counted, backtrace_with, canonical_provenance, run_captured, Backtrace,
    BacktraceIndex, BacktraceWork, CapturedRun, ProvTree, SourceProvenance,
};
use pebble_dataflow::{Context, ExecConfig, ExecMatrix};
use pebble_nested::Path;
use pebble_workloads::scenarios::{d3, t3};
use pebble_workloads::{dblp_context, twitter_context, Scenario};

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest = (*digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of the answer as returned: sources in order, every entry's id,
/// index and rendered tree.
fn answer_digest(answer: &[SourceProvenance]) -> u64 {
    let mut d = FNV_OFFSET;
    for s in answer {
        fnv1a(&mut d, format!("{}|{}|", s.read_op, s.source).as_bytes());
        for e in &s.entries {
            fnv1a(
                &mut d,
                format!("{:x}|{}|{}", e.id, e.index, e.tree).as_bytes(),
            );
        }
    }
    d
}

fn canonical_digest(answer: &[SourceProvenance]) -> u64 {
    let mut d = FNV_OFFSET;
    for (source, index, tree) in canonical_provenance(answer) {
        fnv1a(&mut d, format!("{source}|{index}|{tree}").as_bytes());
    }
    d
}

/// A digested answer: traced entries, canonical digest (the same at every
/// partition count), answer digest at 1, 2 and 7 partitions.
struct Pin {
    entries: usize,
    canonical: u64,
    answers: [u64; 3],
}

/// The scenario's query over the whole result.
fn scenario_question(s: &Scenario, run: &CapturedRun) -> Backtrace {
    s.query.match_rows(&run.output.rows)
}

/// Every path of every result row: trees that differ from row to row and
/// carry every position of every nested collection.
fn every_path_question(_: &Scenario, run: &CapturedRun) -> Backtrace {
    Backtrace {
        entries: run
            .output
            .rows
            .iter()
            .map(|row| (row.id, ProvTree::from_paths(&Path::path_set(&row.item))))
            .collect(),
    }
}

fn assert_pinned(
    s: &Scenario,
    ctx: &Context,
    question: fn(&Scenario, &CapturedRun) -> Backtrace,
    pin: Pin,
) {
    for (partitions, pinned) in ExecMatrix::partitions().into_iter().zip(pin.answers) {
        let run = run_captured(&s.program, ctx, ExecConfig::with_partitions(partitions)).unwrap();
        let answer = backtrace_with(&run, &BacktraceIndex::build(&run), question(s, &run)).unwrap();
        let traced: usize = answer.iter().map(|sp| sp.entries.len()).sum();
        assert_eq!(traced, pin.entries, "{} at {partitions} partitions", s.name);
        assert_eq!(
            canonical_digest(&answer),
            pin.canonical,
            "{} canonical provenance at {partitions} partitions",
            s.name
        );
        assert_eq!(
            answer_digest(&answer),
            pinned,
            "{} answer (ids, indexes, trees) at {partitions} partitions",
            s.name
        );
    }
}

#[test]
fn d3_whole_store_answers_are_pinned() {
    let (s, ctx) = (d3(), dblp_context(600));
    let scenario = Pin {
        entries: 184,
        canonical: 0x65d6_2ab9_e79b_72d7,
        answers: [
            0xde16_c8ad_f718_28dd,
            0x265f_c88e_6917_6306,
            0x06ce_094a_078a_3d01,
        ],
    };
    assert_pinned(&s, &ctx, scenario_question, scenario);
    let every_path = Pin {
        entries: 184,
        canonical: 0xe860_0aae_5fcf_1cfe,
        answers: [
            0xe5a8_9554_e4de_b418,
            0xe083_c3a3_2559_8e0b,
            0x08c3_01d3_bc34_e350,
        ],
    };
    assert_pinned(&s, &ctx, every_path_question, every_path);
}

#[test]
fn t3_whole_store_answers_are_pinned() {
    let (s, ctx) = (t3(), twitter_context(400));
    let scenario = Pin {
        entries: 3,
        canonical: 0xd3a0_1144_2620_3233,
        answers: [
            0xb5e3_7bed_2a43_a2c5,
            0x4e1a_361e_7984_ebdd,
            0xf5af_75e1_8b9a_f7aa,
        ],
    };
    assert_pinned(&s, &ctx, scenario_question, scenario);
    let every_path = Pin {
        entries: 551,
        canonical: 0xde17_d953_c92f_eb03,
        answers: [
            0x9181_7809_b277_97b2,
            0xa2d1_520b_764d_1dab,
            0x99a4_82f6_4ae8_ed47,
        ],
    };
    assert_pinned(&s, &ctx, every_path_question, every_path);
}

/// One whole-store question, counted.
fn counted(
    s: &Scenario,
    ctx: &Context,
    question: fn(&Scenario, &CapturedRun) -> Backtrace,
) -> (BacktraceWork, CapturedRun) {
    let run = run_captured(&s.program, ctx, ExecConfig::with_partitions(2)).unwrap();
    let mut work = BacktraceWork::default();
    backtrace_from_counted(
        &run,
        &BacktraceIndex::build(&run),
        question(s, &run),
        &mut work,
    )
    .unwrap();
    (work, run)
}

#[test]
fn d3_work_follows_the_answer() {
    let (small, run) = counted(&d3(), &dblp_context(600), scenario_question);
    let (large, _) = counted(&d3(), &dblp_context(1200), scenario_question);

    // Schema expansions: at most one per accessed path of every operator
    // input — whatever the number of entries.
    let accessed_paths: u64 = run
        .ops
        .iter()
        .flat_map(|op| &op.inputs)
        .map(|input| input.accessed.iter().flatten().count() as u64)
        .sum();
    assert!(small.access_expansions > 0);
    assert!(small.access_expansions <= accessed_paths, "{small:?}");
    assert_eq!(large.access_expansions, small.access_expansions);

    // Twice the input: many more entries, but deep copies follow the
    // distinct trees, which barely grow.
    assert!(
        large.entries_in as f64 >= 1.7 * small.entries_in as f64,
        "{large:?} against {small:?}"
    );
    assert!(large.entries_merged > small.entries_merged);
    assert!(
        large.trees_cloned as f64 <= 1.25 * small.trees_cloned as f64,
        "{large:?} against {small:?}"
    );

    // Trees that differ from row to row: still fewer copies than entries.
    let (every_path, _) = counted(&t3(), &twitter_context(400), every_path_question);
    assert!(
        every_path.trees_cloned < every_path.entries_in,
        "{every_path:?}"
    );
}
