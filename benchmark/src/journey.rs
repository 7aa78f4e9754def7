//! Steps `setup` and A–F of the journey: generate → NDJSON → read → plain
//! run → captured run → persist → cold open → scenario query and item
//! traces. Every call into a layer sits in one span named after its crate.

use std::fs::File;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use pebble_core::{run_captured, CapturedRun, SourceProvenance, TreePattern};
use pebble_dataflow::io::read_ndjson;
use pebble_dataflow::{run, Context, NoSink, Program, RunOutput};
use pebble_nested::json;
use pebble_serve::{persist_file, ProvStore};

use crate::host::Host;
use crate::spans::Recorder;
use crate::util::{Fnv, Rng, Stream, Tally};
use crate::workloads::{Spec, PIPELINE_REPS};

/// The generated inputs on disk; times at the reference host speed.
#[derive(Default)]
pub struct Inputs {
    pub files: Vec<(&'static str, PathBuf)>,
    pub items: usize,
    pub bytes: u64,
    /// FNV-1a over all NDJSON bytes, in source order.
    pub digest: u64,
    pub generate_s: f64,
    pub write_s: f64,
}

/// `setup`: generates the sources, in the order `seed` gives them, and
/// writes them as NDJSON.
pub fn prepare(
    spec: &Spec,
    seed: u64,
    quick: bool,
    dir: &Path,
    host: &mut Host,
    rec: &mut Recorder,
) -> Result<Inputs, String> {
    let mut speed = host.speed(rec);
    let (sources, generate_s) = rec.time("workloads.generate", || {
        let mut sources = spec.generate(spec.scaled_size(quick));
        Spec::shuffle(&mut sources, seed);
        sources
    });
    let mut inputs = Inputs {
        generate_s: generate_s * scale(host, rec, &mut speed),
        ..Inputs::default()
    };
    let open = rec.enter("workloads.ndjson_write");
    let mut digest = Fnv::new();
    for (name, items) in &sources {
        let path = dir.join(format!("{name}.ndjson"));
        let mut out = BufWriter::new(File::create(&path).map_err(|e| format!("create: {e}"))?);
        for item in items {
            let mut line = json::item_to_string(item);
            line.push('\n');
            digest.update(line.as_bytes());
            inputs.bytes += line.len() as u64;
            out.write_all(line.as_bytes())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        out.flush().map_err(|e| format!("flush: {e}"))?;
        inputs.items += items.len();
        inputs.files.push((name, path));
    }
    inputs.digest = digest.finish();
    inputs.write_s = rec.exit(open) * scale(host, rec, &mut speed);
    Ok(inputs)
}

/// Time of each step of one round, in seconds at the reference host speed
/// (see `host.rs`). Steps B–D run `PIPELINE_REPS` times per round and keep
/// every sample.
#[derive(Clone, Default)]
pub struct Round {
    pub read_s: f64,
    pub plain_s: Vec<f64>,
    pub capture_s: Vec<f64>,
    pub persist_s: Vec<f64>,
    pub open_s: f64,
    pub match_s: f64,
    pub backtrace_s: f64,
    /// Single-item whole-row backtraces from the warm store, microseconds.
    pub samples_us: Vec<f64>,
    pub segment_bytes: usize,
    pub matched: usize,
}

impl Round {
    /// Steps C + D (captured run, durable) per repetition.
    pub fn capture_durable_s(&self) -> impl Iterator<Item = f64> + '_ {
        self.capture_s
            .iter()
            .zip(&self.persist_s)
            .map(|(c, d)| c + d)
    }
}

/// What a round leaves behind for the checks and the probes.
pub struct Artifacts {
    pub ctx: Context,
    pub plain: RunOutput,
    pub run: CapturedRun,
    pub store: ProvStore,
    pub answer: Vec<SourceProvenance>,
}

/// Everything fixed across the rounds of one run.
pub struct Plan<'a> {
    pub spec: &'a Spec,
    pub program: Program,
    pub pattern: TreePattern,
    pub inputs: Inputs,
    pub segment: PathBuf,
    /// Single-item trace samples per round, at most.
    pub samples: usize,
    pub seed: u64,
}

/// Step A: reads every NDJSON source into a fresh context.
pub fn read_sources(inputs: &Inputs) -> Result<Context, String> {
    let mut ctx = Context::new();
    for (name, path) in &inputs.files {
        let items = read_ndjson(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        ctx.register(*name, items);
    }
    Ok(ctx)
}

/// The probe after a step: returns the scale of the step that just ended
/// (mean host speed of the probes around it) and becomes the probe before
/// the next step.
fn scale(host: &mut Host, rec: &mut Recorder, before: &mut f64) -> f64 {
    let after = host.speed(rec);
    let scale = (*before + after) / 2.0;
    *before = after;
    scale
}

/// One round of steps A–F, a host probe between any two timed steps.
/// `plain_first` alternates which of the plain and the captured run goes
/// first, so that neither side of `capture_overhead_ratio` always runs on
/// the warmer heap.
pub fn round(
    plan: &Plan,
    plain_first: bool,
    host: &mut Host,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<(Round, Artifacts), String> {
    let mut r = Round::default();
    let cfg = plan.spec.config();

    let mut speed = host.speed(rec);
    let (ctx, read_s) = rec.time("dataflow.read_ndjson", || read_sources(&plan.inputs));
    let ctx = ctx?;
    r.read_s = read_s * scale(host, rec, &mut speed);
    tally.ops(plan.inputs.files.len());

    let mut outputs = None;
    for rep in 0..PIPELINE_REPS {
        let mut run_plain = |host: &mut Host, rec: &mut Recorder, speed: &mut f64| {
            let (out, s) = rec.time("dataflow.run_plain", || {
                run(&plan.program, &ctx, cfg, &NoSink)
            });
            r.plain_s.push(s * scale(host, rec, speed));
            out.map_err(|e| format!("plain run: {e}"))
        };
        let mut plain = None;
        if plain_first == (rep % 2 == 0) {
            plain = Some(run_plain(host, rec, &mut speed)?);
        }
        // C and D share one pair of probes: D is a tenth of C.
        let (captured, capture_s) = rec.time("core.run_captured", || {
            run_captured(&plan.program, &ctx, cfg)
        });
        let captured = captured.map_err(|e| format!("captured run: {e}"))?;
        let (bytes, persist_s) =
            rec.time("serve.persist", || persist_file(&captured, &plan.segment));
        let durable = scale(host, rec, &mut speed);
        let plain = match plain {
            Some(p) => p,
            None => run_plain(host, rec, &mut speed)?,
        };
        r.segment_bytes = bytes.map_err(|e| format!("persist: {e}"))?;
        r.capture_s.push(capture_s * durable);
        r.persist_s.push(persist_s * durable);
        tally.ops(3);
        // Every repetition starts with no output of another alive: what is
        // still allocated decides how many fresh pages a run has to fault in
        // (1.5x on the plain run of `dblp_join_agg`).
        if rep + 1 < PIPELINE_REPS {
            rec.time("core.drop", || drop((plain, captured)));
        } else {
            outputs = Some((plain, captured));
        }
    }
    let (plain, captured) = outputs.expect("PIPELINE_REPS is at least 1");

    // E and the scenario query of F share one pair of probes: together they
    // are `cold_query_ms`.
    let (store, open_s) = rec.time("serve.open", || ProvStore::open(&plan.segment));
    let store = store.map_err(|e| format!("cold open: {e}"))?;
    let (b, match_s) = rec.time("core.pattern_match", || {
        plan.pattern.match_rows(store.rows())
    });
    r.matched = b.entries.len();
    let (answer, backtrace_s) = rec.time("serve.store_backtrace", || store.backtrace(b));
    let answer = answer.map_err(|e| format!("scenario backtrace: {e}"))?;
    let cold = scale(host, rec, &mut speed);
    r.open_s = open_s * cold;
    r.match_s = match_s * cold;
    r.backtrace_s = backtrace_s * cold;
    tally.ops(3);

    let open = rec.enter("serve.trace_samples");
    let mut picks: Vec<usize> = (0..store.rows().len()).collect();
    Rng::new(plan.seed, Stream::TracedRows).shuffle(&mut picks);
    picks.truncate(plan.samples);
    r.samples_us = Vec::with_capacity(picks.len());
    for &idx in &picks {
        let t = Instant::now();
        let b = store
            .whole_item(idx)
            .map_err(|e| format!("whole_item {idx}: {e}"))?;
        let traced = store
            .backtrace(b)
            .map_err(|e| format!("backtrace {idx}: {e}"))?;
        r.samples_us.push(t.elapsed().as_secs_f64() * 1e6);
        black_box(traced);
    }
    rec.exit(open);
    let traces = scale(host, rec, &mut speed);
    for us in &mut r.samples_us {
        *us *= traces;
    }
    tally.ops(picks.len());

    Ok((
        r,
        Artifacts {
            ctx,
            plain,
            run: captured,
            store,
            answer,
        },
    ))
}

/// Frees a round's artifacts under spans of the layers that built them, so
/// that teardown is attributed instead of showing up as a gap. The store is
/// handed back: step G serves the last round's.
pub fn teardown(a: Artifacts, rec: &mut Recorder) -> ProvStore {
    let Artifacts {
        ctx,
        plain,
        run,
        store,
        answer,
    } = a;
    rec.time("dataflow.drop", || drop((ctx, plain)));
    rec.time("core.drop", || drop((run, answer)));
    store
}
