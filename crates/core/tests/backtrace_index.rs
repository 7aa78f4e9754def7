//! The backtrace index is an order over the association tables of the view
//! it is handed: `None` probes a table that ascends in place, a permutation
//! probes one that does not. These tests drive both probes, the checks on
//! loaded orders, and an index handed a run it was not built for.

use pebble_core::{
    backtrace, backtrace_with, canonical_provenance, run_captured, Backtrace, BacktraceIndex,
    CapturedRun, ProvAssoc, ProvTree, UnaryRuns,
};
use pebble_dataflow::{
    context::items_of, Context, EngineError, ExecConfig, Expr, ItemId, NamedExpr, ProgramBuilder,
};
use pebble_nested::{Path, Value};
use pebble_workloads::{dblp_context, scenarios, twitter_context};

/// `read → filter(v ≥ 1) → select` over `n` items with `v` = 0, 1, ….
fn filter_run(n: i64) -> CapturedRun {
    let mut c = Context::new();
    c.register(
        "t",
        items_of((0..n).map(|i| vec![("v", Value::Int(i))]).collect()),
    );
    let mut b = ProgramBuilder::new();
    let r = b.read("t");
    let f = b.filter(r, Expr::col("v").ge(Expr::lit(1i64)));
    let s = b.select(f, vec![NamedExpr::aliased("w", "v")]);
    run_captured(&b.build(s), &c, ExecConfig::with_partitions(1)).unwrap()
}

/// The question "where does `w` of result row `row` come from?".
fn ask_w(run: &CapturedRun, row: usize) -> Backtrace {
    Backtrace {
        entries: vec![(
            run.output.rows[row].id,
            ProvTree::from_paths(&[Path::attr("w")]),
        )],
    }
}

fn reverse_filter_table(run: &mut CapturedRun) {
    let ProvAssoc::Unary(runs) = &mut run.ops[1].assoc else {
        panic!("a filter carries a unary table");
    };
    let mut pairs: Vec<_> = runs.pairs().collect();
    pairs.reverse();
    *runs = UnaryRuns::from_pairs(pairs);
}

/// An index never answers from the run it was built on, and an order that
/// does not fit the tables it probes is a typed error, not a panic. (Its
/// hash maps used to answer for the run they were built from: here the last
/// two rows of the bigger run traced to nothing.)
#[test]
fn index_of_another_run_answers_from_the_view_or_fails_typed() {
    let small = filter_run(4);
    let big = filter_run(6);
    let last = big.output.rows.len() - 1;
    let answer = |index: &BacktraceIndex| backtrace_with(&big, index, ask_w(&big, last));
    let expected = backtrace(&big, ask_w(&big, last)).unwrap();
    assert_eq!(expected[0].entries[0].index, 5);

    // Tables probed in place: the other run's index reads `big`'s tables.
    assert_eq!(answer(&BacktraceIndex::build(&small)).unwrap(), expected);

    // The permutation kept for `small`'s reversed three-entry filter table
    // does not fit `big`'s five entries.
    let mut reversed = small;
    reverse_filter_table(&mut reversed);
    assert_eq!(
        answer(&BacktraceIndex::build(&reversed)).unwrap_err(),
        EngineError::BacktraceError(
            "prepared index for operator #1 does not cover its association table".into()
        )
    );

    // Nor does an index over fewer operators.
    assert_eq!(
        answer(&BacktraceIndex::build_ops(&big.ops[..2])).unwrap_err(),
        EngineError::BacktraceError("prepared index covers 2 operators, not operator #2".into())
    );
}

/// Reversed tables are probed through their permutations and answer as the
/// engine's own order does; a read's position is the table position the
/// probe finds, so the reversed read table lists the dataset back to front.
#[test]
fn permutation_probes_answer_like_in_place_probes() {
    let run = filter_run(6);
    let mut reversed = filter_run(6);
    reverse_filter_table(&mut reversed);
    let ProvAssoc::Read(ids) = &mut reversed.ops[0].assoc else {
        panic!("a read carries its ids");
    };
    ids.reverse();
    for row in 0..run.output.rows.len() {
        let want = backtrace(&run, ask_w(&run, row)).unwrap();
        let got = backtrace(&reversed, ask_w(&run, row)).unwrap();
        assert_eq!(want[0].entries[0].index, row + 1);
        assert_eq!(got[0].entries[0].index, 5 - (row + 1));
        assert_eq!(got[0].entries[0].tree, want[0].entries[0].tree);
    }
}

/// `from_sorted` checks what an order claims: an identity claim (`None`)
/// by scanning the table, a permutation by length, range and ascent.
#[test]
fn from_sorted_rejects_orders_that_do_not_describe_their_tables() {
    let mut run = filter_run(4);
    assert!(BacktraceIndex::from_sorted(&run.ops, vec![None, None, None]).is_ok());
    reverse_filter_table(&mut run);
    let message =
        |orders: Vec<Option<Vec<u32>>>| match BacktraceIndex::from_sorted(&run.ops, orders) {
            Err(EngineError::BacktraceError(m)) => m,
            other => panic!("{:?}", other.map(|_| ())),
        };
    let op1 = |detail: &str| format!("prepared index for operator #1 {detail}");
    assert_eq!(
        message(vec![None, None, None]),
        op1("is not sorted by output identifier")
    );
    assert_eq!(
        message(vec![None, Some(vec![2, 1]), None]),
        op1("does not cover its association table")
    );
    assert_eq!(
        message(vec![None, Some(vec![2, 1, 3]), None]),
        op1("references an out-of-range position")
    );
    assert_eq!(
        message(vec![None, Some(vec![0, 1, 2]), None]),
        op1("is not sorted by output identifier")
    );
    assert_eq!(
        message(vec![None]),
        "prepared index has 1 permutations for 3 operators"
    );
    assert!(BacktraceIndex::from_sorted(&run.ops, vec![None, Some(vec![2, 1, 0]), None]).is_ok());
}

/// A strictly increasing map that leaves gaps of 2 to 14 between
/// consecutive ids.
fn spread(id: ItemId) -> ItemId {
    8 * id + id % 7
}

/// `run` with every identifier spread apart.
fn spread_ids(mut run: CapturedRun) -> CapturedRun {
    for op in &mut run.ops {
        match &mut op.assoc {
            ProvAssoc::Read(ids) => ids.iter_mut().for_each(|id| *id = spread(*id)),
            ProvAssoc::Unary(v) => {
                *v = v.pairs().map(|(i, o)| (spread(i), spread(o))).collect();
            }
            ProvAssoc::Binary(v) => v.iter_mut().for_each(|(l, r, o)| {
                (*l, *r, *o) = (l.map(spread), r.map(spread), spread(*o));
            }),
            ProvAssoc::Flatten(v) => v
                .iter_mut()
                .for_each(|(i, _, o)| (*i, *o) = (spread(*i), spread(*o))),
            ProvAssoc::Agg(v) => v.iter_mut().for_each(|(ids, o)| {
                ids.iter_mut().for_each(|id| *id = spread(*id));
                *o = spread(*o);
            }),
        }
    }
    run
}

/// The engine numbers each table's outputs consecutively per partition,
/// which lets a probe pin most positions from the ends of its range. Ids
/// with gaps between them, and seven partitions' runs per table, take the
/// bisecting rounds instead: every row of T3 and D3 traces to the same
/// answer either way.
#[test]
fn sparse_ids_answer_like_dense_ones() {
    for (s, ctx) in [
        (scenarios::t3(), twitter_context(120)),
        (scenarios::d3(), dblp_context(120)),
    ] {
        let config = ExecConfig::with_partitions(7);
        let run = run_captured(&s.program, &ctx, config).unwrap();
        let sparse = spread_ids(run_captured(&s.program, &ctx, config).unwrap());
        let mut traced = 0;
        for row in &run.output.rows {
            let tree = ProvTree::from_paths(Path::path_set(&row.item).iter());
            let dense = backtrace(
                &run,
                Backtrace {
                    entries: vec![(row.id, tree.clone())],
                },
            )
            .unwrap();
            let spread = backtrace(
                &sparse,
                Backtrace {
                    entries: vec![(spread(row.id), tree)],
                },
            )
            .unwrap();
            let want = canonical_provenance(&dense);
            traced += want.len();
            assert_eq!(
                canonical_provenance(&spread),
                want,
                "{} row {:#x}",
                s.name,
                row.id
            );
        }
        assert!(
            traced > run.output.rows.len(),
            "{}: {traced} traced",
            s.name
        );
    }
}
