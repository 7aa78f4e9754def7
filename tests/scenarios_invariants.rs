//! Cross-crate invariants over all ten evaluation scenarios:
//!
//! * capture–replay equivalence: capture never changes results;
//! * containment: structural provenance item sets are contained in the
//!   lineage baseline's answer;
//! * eager/lazy agreement: the holistic approach and the PROVision-style
//!   lazy approach return the same traced input items;
//! * provenance size ordering: structural ≥ lineage, with bounded extra.
//!
//! Each holds at every shape of `ExecMatrix::suite(4)`.

use pebble::baselines::{lazy_query, run_lineage, trace_back};
use pebble::core::{backtrace, run_captured};
use pebble::dataflow::{run, Context, ExecConfig, ExecMatrix, NoSink};
use pebble::workloads::{
    dblp_context, dblp_scenarios, twitter_context, twitter_scenarios, Scenario,
};

fn contexts() -> Vec<(Context, Vec<Scenario>)> {
    vec![
        (twitter_context(300), twitter_scenarios()),
        (dblp_context(600), dblp_scenarios()),
    ]
}

/// Runs `check` on every scenario at every shape of `ExecMatrix::suite(4)`.
fn each_scenario(check: impl Fn(&Context, &Scenario, ExecConfig)) {
    for (ctx, scenarios) in contexts() {
        for s in &scenarios {
            for cfg in ExecMatrix::suite(4) {
                check(&ctx, s, cfg);
            }
        }
    }
}

#[test]
fn capture_replay_equivalence_all_scenarios() {
    each_scenario(|ctx, s, cfg| {
        let plain = run(&s.program, ctx, cfg, &NoSink).unwrap().items();
        let captured = run_captured(&s.program, ctx, cfg).unwrap().output.items();
        assert_eq!(plain, captured, "{} capture changed the result", s.name);
    });
}

#[test]
fn structural_contained_in_lineage_all_scenarios() {
    each_scenario(|ctx, s, cfg| {
        let crun = run_captured(&s.program, ctx, cfg).unwrap();
        let b = s.query.match_rows(&crun.output.rows);
        let matched_ids: Vec<u64> = b.entries.iter().map(|(id, _)| *id).collect();
        let structural = backtrace(&crun, b).unwrap();

        let lrun = run_lineage(&s.program, ctx, cfg).unwrap();
        // Identifier sequences are deterministic across both captured
        // runs (same engine, same partitioning), so ids line up.
        let lineage = trace_back(&lrun, &matched_ids);

        for sp in &structural {
            let Some(sl) = lineage.iter().find(|l| l.read_op == sp.read_op) else {
                assert!(
                    sp.entries.is_empty(),
                    "{}: structural traced read #{} that lineage missed",
                    s.name,
                    sp.read_op
                );
                continue;
            };
            for e in &sp.entries {
                assert!(
                    sl.indices.contains(&e.index),
                    "{}: structural item {} at read #{} not in lineage",
                    s.name,
                    e.index,
                    sp.read_op
                );
            }
        }
    });
}

#[test]
fn eager_and_lazy_agree_all_scenarios() {
    each_scenario(|ctx, s, cfg| {
        let crun = run_captured(&s.program, ctx, cfg).unwrap();
        let b = s.query.match_rows(&crun.output.rows);
        let eager = backtrace(&crun, b).unwrap();
        let (lazy, stats) = lazy_query(&s.program, ctx, cfg, &s.query).unwrap();
        assert_eq!(stats.reruns, s.program.reads().len());
        assert_eq!(eager.len(), lazy.len(), "{}", s.name);
        for (a, b) in eager.iter().zip(&lazy) {
            assert_eq!(a.read_op, b.read_op, "{}", s.name);
            let ia: Vec<usize> = a.entries.iter().map(|e| e.index).collect();
            let ib: Vec<usize> = b.entries.iter().map(|e| e.index).collect();
            assert_eq!(ia, ib, "{} read #{}", s.name, a.read_op);
        }
    });
}

#[test]
fn structural_size_exceeds_lineage_boundedly() {
    each_scenario(|ctx, s, cfg| {
        let crun = run_captured(&s.program, ctx, cfg).unwrap();
        let lineage = crun.lineage_bytes();
        let structural = crun.structural_bytes();
        assert!(structural >= lineage, "{}", s.name);
        // The extra is positions + schema-level paths — far below the
        // lineage volume itself at realistic sizes (Sec. 7.3.2's
        // "less than 200MB on gigabytes of lineage"; here: < 2x).
        assert!(
            structural - lineage <= lineage.max(4096),
            "{}: extra {} vs lineage {}",
            s.name,
            structural - lineage,
            lineage
        );
    });
}

#[test]
fn deterministic_execution_across_partitionings() {
    for (ctx, scenarios) in contexts() {
        for s in scenarios {
            let one = run(&s.program, &ctx, ExecConfig::with_partitions(1), &NoSink)
                .unwrap()
                .items();
            let eight = run(&s.program, &ctx, ExecConfig::with_partitions(8), &NoSink)
                .unwrap()
                .items();
            assert_eq!(one, eight, "{} not deterministic", s.name);
        }
    }
}

#[test]
fn optimizer_preserves_results_and_provenance() {
    use pebble::dataflow::optimize;
    each_scenario(|ctx, s, cfg| {
        let (optimized, stats) = optimize(&s.program);
        let plain = run(&s.program, ctx, cfg, &NoSink).unwrap().items();
        let opt = run(&optimized, ctx, cfg, &NoSink).unwrap().items();
        assert_eq!(plain, opt, "{}: optimizer changed the result", s.name);
        let _ = stats;

        // Backtraced provenance agrees per (source, index) set, even
        // though operator ids are renumbered.
        let collect = |program: &pebble::dataflow::Program| {
            let run = run_captured(program, ctx, cfg).unwrap();
            let b = s.query.match_rows(&run.output.rows);
            let mut traced: Vec<(String, Vec<usize>)> = backtrace(&run, b)
                .unwrap()
                .into_iter()
                .map(|sp| {
                    let mut idx: Vec<usize> = sp.entries.iter().map(|e| e.index).collect();
                    idx.sort_unstable();
                    (sp.source, idx)
                })
                .collect();
            traced.sort();
            // Merge multiple reads of the same source.
            let mut merged: Vec<(String, Vec<usize>)> = Vec::new();
            for (src, idx) in traced {
                match merged.iter_mut().find(|(s, _)| *s == src) {
                    Some((_, all)) => {
                        all.extend(idx);
                        all.sort_unstable();
                        all.dedup();
                    }
                    None => merged.push((src, idx)),
                }
            }
            merged
        };
        assert_eq!(
            collect(&s.program),
            collect(&optimized),
            "{}: optimizer changed the provenance",
            s.name
        );
    });
}

#[test]
fn prefilter_matches_agree_on_scenarios() {
    each_scenario(|ctx, s, cfg| {
        let run = run_captured(&s.program, ctx, cfg).unwrap();
        let schema = run.output.schema().clone();
        let plain = s.query.match_rows(&run.output.rows);
        let pre = s.query.match_rows_prefiltered(&run.output.rows, &schema);
        let a: Vec<u64> = plain.entries.iter().map(|(id, _)| *id).collect();
        let b: Vec<u64> = pre.entries.iter().map(|(id, _)| *id).collect();
        assert_eq!(a, b, "{}: prefilter changed matches", s.name);
    });
}
