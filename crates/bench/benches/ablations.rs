//! Ablation benches for the design choices behind the lightweight capture:
//!
//! * `schema_level_vs_full_model` — the paper's core optimization
//!   (Sec. 5.1): record paths once per operator at schema level instead of
//!   materializing per-item provenance (the Sec. 4.3 model, which is also
//!   what an eager Lipstick-style system pays).
//! * `partitions` — engine scaling across partition counts (threads).
//! * `storage_codec` — cost of persisting a captured run as a `PBSG`
//!   segment and cold-opening it.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pebble_bench::DBLP_BASE;
use pebble_core::{model, run_captured};
use pebble_dataflow::{run, ExecConfig, NoSink, OpKind};
use pebble_serve::{persist, ProvStore};
use pebble_workloads::{dblp_context, dblp_scenarios, scenarios};

fn bench_schema_level_vs_full_model(c: &mut Criterion) {
    let ctx = dblp_context(DBLP_BASE);
    let cfg = ExecConfig::default();
    let mut group = c.benchmark_group("ablation_capture_granularity");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200));

    // D3 is the provenance-heaviest scenario: flatten early + join + nest.
    let s = scenarios::d3();
    group.bench_function("lightweight_schema_level", |b| {
        b.iter(|| run_captured(&s.program, &ctx, cfg).unwrap())
    });
    group.bench_function("full_model_per_item", |b| {
        b.iter(|| {
            // Eager full-model capture: evaluate the Sec. 4.3 inference
            // rules per operator, materializing concrete per-item paths.
            let mut outputs: Vec<Vec<pebble_nested::DataItem>> = Vec::new();
            let mut total = 0usize;
            for op in s.program.operators() {
                let result = match &op.kind {
                    OpKind::Read { source } => ctx.source(source).unwrap().to_vec(),
                    kind => {
                        let inputs: Vec<&[pebble_nested::DataItem]> = op
                            .inputs
                            .iter()
                            .map(|&i| outputs[i as usize].as_slice())
                            .collect();
                        let provs = model::apply(kind, &inputs).unwrap();
                        total += provs
                            .iter()
                            .map(|p| {
                                p.inputs
                                    .iter()
                                    .map(|i| i.accessed.as_ref().map_or(0, Vec::len))
                                    .sum::<usize>()
                                    + p.manipulations.as_ref().map_or(0, Vec::len)
                            })
                            .sum::<usize>();
                        provs.into_iter().map(|p| p.item).collect()
                    }
                };
                outputs.push(result);
            }
            std::hint::black_box(total)
        })
    });
    group.finish();
}

fn bench_partitions(c: &mut Criterion) {
    let ctx = dblp_context(DBLP_BASE);
    let s = scenarios::d4();
    let mut group = c.benchmark_group("ablation_partitions");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200));
    for parts in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("d4_plain", parts), &parts, |b, &p| {
            b.iter(|| run(&s.program, &ctx, ExecConfig::with_partitions(p), &NoSink).unwrap())
        });
    }
    group.finish();
}

fn bench_storage_codec(c: &mut Criterion) {
    let ctx = dblp_context(DBLP_BASE);
    let cfg = ExecConfig::default();
    let mut group = c.benchmark_group("ablation_storage_codec");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200));
    for s in dblp_scenarios() {
        let run = run_captured(&s.program, &ctx, cfg).unwrap();
        let encoded = persist(&run);
        group.bench_function(BenchmarkId::new("encode", s.name), |b| {
            b.iter(|| persist(&run))
        });
        group.bench_function(BenchmarkId::new("decode", s.name), |b| {
            b.iter(|| ProvStore::from_bytes(&encoded).unwrap())
        });
    }
    group.finish();
}

fn bench_prepared_backtrace(c: &mut Criterion) {
    use pebble_core::{backtrace, backtrace_with, BacktraceIndex};
    let ctx = dblp_context(DBLP_BASE);
    let cfg = ExecConfig::default();
    let s = scenarios::d4();
    let run = run_captured(&s.program, &ctx, cfg).unwrap();
    let b = s.query.match_rows(&run.output.rows);
    let index = BacktraceIndex::build(&run);
    let mut group = c.benchmark_group("ablation_prepared_backtrace");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200));
    group.bench_function("one_off", |bench| {
        bench.iter(|| backtrace(&run, b.clone()).unwrap())
    });
    group.bench_function("prepared", |bench| {
        bench.iter(|| backtrace_with(&run, &index, b.clone()).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_schema_level_vs_full_model,
    bench_partitions,
    bench_storage_codec,
    bench_prepared_backtrace
);
criterion_main!(benches);
