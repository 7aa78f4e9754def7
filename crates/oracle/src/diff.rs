//! The differential runner.
//!
//! For one generated test case, [`check`] executes the pipeline on the
//! Tab. 5 reference interpreter and on the optimized engine in several
//! configurations, and compares everything the two are required to agree
//! on:
//!
//! * **bit-for-bit at `partitions: 1`** — output rows *with identifiers*,
//!   per-operator row counts and schemas, and the complete operator
//!   provenance (independently derived `A`/`M` sets and the captured
//!   association tables) of the reference vs the fused engine vs the
//!   unfused engine;
//! * **capture-transparent** — a plain (no-capture) run returns the same
//!   rows as the captured run;
//! * **scheduler-invariant** — the morsel-driven pool scheduler at every
//!   shape of [`ExecMatrix::scheduler`] agrees bit-for-bit with the
//!   `workers: 1` run, which is itself held to the Tab. 5 interpreter with
//!   identifiers; where no interpreter run exists (rejected and malformed
//!   cases) the comparison is against [`ExecMatrix::referee`] at the same
//!   partition count — one morsel per partition, run inline in task order,
//!   identifiers final without offset stitching;
//! * **partition-invariant** — at the other counts of
//!   [`ExecMatrix::partitions`] the engine's item sequence and operator
//!   counts are unchanged (identifiers may differ);
//! * **one kernel set** — `fused` *is* the vectorized engine (filter/select
//!   chains, shuffle and probe key hashing), so the comparison with ids
//!   against the Tab. 5 interpreter above is the kernels' referee; the
//!   generator's `map` pipelines (Identity/TagInt UDFs) take the per-unit
//!   row fallback under that same comparison, and the two chain kernels are
//!   held to each other morsel by morsel in `pebble_dataflow`'s `vector`
//!   tests;
//! * **spill-invariant** — at every budget of [`ExecMatrix::budget`],
//!   every partition count and every worker count the run is bit-identical
//!   to the in-memory capture at the same partition count. At 4096 bytes
//!   some state spills and capture tables drain with a resident tail left
//!   behind; at one byte every operator output, grace-join bucket, shuffle
//!   partition, and capture association table goes through disk, with real
//!   spill traffic reported whenever rows flowed;
//! * **backtrace-equivalent** — for sampled output items (whole-item
//!   trees over [`Path::path_set`]) and one tree-pattern query, the
//!   backtracing results agree bit-for-bit across reference / fused /
//!   unfused at `partitions: 1`, and modulo identifiers (via
//!   [`canonical_provenance`]) across partition counts;
//! * **store-equivalent** — every captured run round-trips through the
//!   persistent segment format (`pebble_serve::persist` → cold-open
//!   `ProvStore::from_bytes`): the decoded association tables, rows, and
//!   schemas are bit-identical, and every backtrace question answered
//!   from the store matches the in-memory answer byte for byte.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pebble_core::{
    backtrace, canonical_provenance, run_captured, Backtrace, CapturedRun, PatternNode, ProvTree,
    TreePattern,
};
use pebble_dataflow::{
    run, Context, EngineError, ExecConfig, ExecMatrix, NoSink, Program, Row, Shape,
};
use pebble_nested::Path;

use crate::gen::Generated;
use crate::interp::{reference_config, run_reference};

/// The partition counts other than the `partitions: 1` the reference
/// interpreter models (compared modulo identifiers).
fn alt_partitions() -> impl Iterator<Item = usize> {
    ExecMatrix::partitions().into_iter().filter(|&p| p != 1)
}

/// The legs of the out-of-core axis as `(partitions, shape)`: every
/// budgeted shape of the budget axis at every partition count, each count
/// paired with one worker count (1 with 1, 2 with 2, 7 with 7), so both
/// axes run spilled in full at six runs per case. Capture tables only
/// drain with a resident tail left behind when an operator receives more
/// than one batch, i.e. at more than one partition.
fn spill_legs() -> impl Iterator<Item = (usize, Shape)> {
    let budgeted = ExecMatrix::budget()
        .into_iter()
        .filter(|s| s.mem_budget > 0);
    budgeted.flat_map(|s| {
        let counts = ExecMatrix::partitions()
            .into_iter()
            .zip(ExecMatrix::WORKERS);
        counts.map(move |(p, workers)| (p, Shape { workers, ..s }))
    })
}

/// The shapes held bit-for-bit to the in-memory run at `partitions`: the
/// scheduler axis plus the out-of-core legs at that count.
fn shapes_at(partitions: usize) -> impl Iterator<Item = Shape> {
    let spilled = spill_legs().filter(move |&(p, _)| p == partitions);
    ExecMatrix::scheduler().chain(spilled.map(|(_, shape)| shape))
}

/// How many output items get a whole-item backtrace comparison.
const BACKTRACE_SAMPLES: usize = 3;

/// One disagreement between the reference and the engine (or between two
/// engine configurations).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Seed of the generated case.
    pub seed: u64,
    /// Which comparison failed.
    pub check: String,
    /// Short human-readable description of the disagreement.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[seed {}] {}: {}", self.seed, self.check, self.detail)
    }
}

fn diverge(seed: u64, check: &str, detail: String) -> Option<Divergence> {
    Some(Divergence {
        seed,
        check: check.to_string(),
        detail,
    })
}

/// Truncates long debug output so divergence reports stay readable.
fn trunc(s: String) -> String {
    const MAX: usize = 600;
    if s.len() <= MAX {
        s
    } else {
        let cut = (0..=MAX).rev().find(|&i| s.is_char_boundary(i)).unwrap();
        format!("{}… ({} bytes)", &s[..cut], s.len())
    }
}

/// Compares two captured runs bit-for-bit (rows with ids, counts, schemas,
/// full operator provenance).
fn compare_captured(
    seed: u64,
    check: &str,
    a: &CapturedRun,
    b: &CapturedRun,
) -> Option<Divergence> {
    if a.output.op_counts != b.output.op_counts {
        return diverge(
            seed,
            check,
            format!(
                "op_counts {:?} vs {:?}",
                a.output.op_counts, b.output.op_counts
            ),
        );
    }
    if a.output.op_schemas != b.output.op_schemas {
        return diverge(
            seed,
            check,
            trunc(format!(
                "op_schemas {:?} vs {:?}",
                a.output.op_schemas, b.output.op_schemas
            )),
        );
    }
    if a.output.rows != b.output.rows {
        let at = a
            .output
            .rows
            .iter()
            .zip(&b.output.rows)
            .position(|(x, y)| x != y)
            .map_or_else(
                || format!("lengths {} vs {}", a.output.rows.len(), b.output.rows.len()),
                |i| {
                    trunc(format!(
                        "row {i}: {:?} vs {:?}",
                        a.output.rows[i], b.output.rows[i]
                    ))
                },
            );
        return diverge(seed, check, format!("output rows differ: {at}"));
    }
    for (oa, ob) in a.ops.iter().zip(&b.ops) {
        if oa != ob {
            return diverge(
                seed,
                check,
                trunc(format!("op {} provenance: {:?} vs {:?}", oa.oid, oa, ob)),
            );
        }
    }
    None
}

/// Compares two whole run *outcomes*: bit-for-bit captured runs when both
/// succeed, `Display`-identical engine errors when both fail, and a
/// divergence when one side succeeds while the other does not. This is
/// the shape-agreement contract on malformed inputs — a failing run is
/// part of the observable semantics, so every shape must fail identically.
fn same_outcome(
    seed: u64,
    check: &str,
    a: &Result<CapturedRun, EngineError>,
    b: &Result<CapturedRun, EngineError>,
) -> Option<Divergence> {
    match (a, b) {
        (Ok(x), Ok(y)) => compare_captured(seed, check, x, y),
        (Err(x), Err(y)) => {
            if x.to_string() == y.to_string() {
                None
            } else {
                diverge(seed, check, format!("errors differ: `{x}` vs `{y}`"))
            }
        }
        (Ok(_), Err(e)) => diverge(seed, check, format!("first succeeds, second errors ({e})")),
        (Err(e), Ok(_)) => diverge(seed, check, format!("first errors ({e}), second succeeds")),
    }
}

/// Compares row *items* in sequence, ignoring identifiers (the partition
/// invariance contract).
fn compare_items(seed: u64, check: &str, a: &[Row], b: &[Row]) -> Option<Divergence> {
    if a.len() != b.len() {
        return diverge(seed, check, format!("lengths {} vs {}", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.item != y.item {
            return diverge(
                seed,
                check,
                trunc(format!("item {i}: {:?} vs {:?}", x.item, y.item)),
            );
        }
    }
    None
}

/// Provenance questions asked of every run: whole-item trees for sampled
/// output positions plus one root-attribute tree pattern.
struct Questions {
    /// Sampled output row positions.
    samples: Vec<usize>,
    /// Pattern over a sink root attribute, if the sink schema names one.
    pattern: Option<TreePattern>,
}

impl Questions {
    fn new(gen: &Generated, baseline: &CapturedRun) -> Questions {
        let mut rng = StdRng::seed_from_u64(gen.seed ^ 0xb4c7_b4c7_b4c7_b4c7);
        let n = baseline.output.rows.len();
        let mut samples: Vec<usize> = Vec::new();
        for _ in 0..BACKTRACE_SAMPLES.min(n) {
            let i = rng.gen_range(0..n);
            if !samples.contains(&i) {
                samples.push(i);
            }
        }
        let sink = baseline.program.sink() as usize;
        let pattern = baseline.output.op_schemas[sink]
            .fields()
            .and_then(|fields| {
                if fields.is_empty() {
                    None
                } else {
                    let f = &fields[rng.gen_range(0..fields.len())];
                    Some(TreePattern::root().node(PatternNode::attr(&f.name)))
                }
            });
        Questions { samples, pattern }
    }

    /// Answers every question against one captured run: bit-level answers
    /// (for same-id comparisons) plus their canonical forms.
    #[allow(clippy::type_complexity)]
    fn answers(
        &self,
        run: &CapturedRun,
    ) -> Vec<(
        String,
        Vec<pebble_core::SourceProvenance>,
        Vec<(String, usize, String)>,
    )> {
        let mut out = Vec::new();
        for &i in &self.samples {
            let row = &run.output.rows[i];
            let paths = Path::path_set(&row.item);
            let tree = ProvTree::from_paths(paths.iter());
            let bt = Backtrace {
                entries: vec![(row.id, tree)],
            };
            let sources = backtrace(run, bt).expect("backtrace failed on a captured oracle run");
            let canonical = canonical_provenance(&sources);
            out.push((
                format!("whole-item backtrace of output[{i}]"),
                sources,
                canonical,
            ));
        }
        if let Some(pattern) = &self.pattern {
            let bt = pattern.match_rows(&run.output.rows);
            let sources = backtrace(run, bt).expect("backtrace failed on a captured oracle run");
            let canonical = canonical_provenance(&sources);
            out.push(("tree-pattern backtrace".to_string(), sources, canonical));
        }
        out
    }
}

/// The store axis: persists a captured run to segment bytes, cold-opens
/// it as a `ProvStore`, and requires the decoded tables and every
/// store-backed backtrace answer to be byte-identical to the in-memory
/// run — the in-memory path is the referee.
fn store_axis(
    seed: u64,
    check: &str,
    run: &CapturedRun,
    questions: Option<&Questions>,
) -> Option<Divergence> {
    let bytes = pebble_serve::persist(run);
    let store = match pebble_serve::ProvStore::from_bytes(&bytes) {
        Ok(s) => s,
        Err(e) => return diverge(seed, check, format!("cold-open failed: {e}")),
    };
    if store.ops() != run.ops.as_slice() {
        let at = run
            .ops
            .iter()
            .zip(store.ops())
            .position(|(a, b)| a != b)
            .map_or_else(String::new, |i| {
                trunc(format!(": op {i} {:?} vs {:?}", run.ops[i], store.ops()[i]))
            });
        return diverge(
            seed,
            check,
            format!("decoded operator provenance differs{at}"),
        );
    }
    if store.rows() != run.output.rows.as_slice() {
        return diverge(seed, check, "decoded rows differ".to_string());
    }
    if store.op_schemas() != run.output.op_schemas.as_slice() {
        return diverge(seed, check, "decoded schemas differ".to_string());
    }
    let questions = questions?;
    let mut asks: Vec<(String, Backtrace)> = Vec::new();
    for &i in &questions.samples {
        let row = &run.output.rows[i];
        let paths = Path::path_set(&row.item);
        let tree = ProvTree::from_paths(paths.iter());
        asks.push((
            format!("whole-item backtrace of output[{i}]"),
            Backtrace {
                entries: vec![(row.id, tree)],
            },
        ));
    }
    if let Some(pattern) = &questions.pattern {
        asks.push((
            "tree-pattern backtrace".to_string(),
            pattern.match_rows(&run.output.rows),
        ));
    }
    for (name, bt) in asks {
        let mem = backtrace(run, bt.clone()).expect("backtrace failed on a captured oracle run");
        let stored = match store.backtrace(bt) {
            Ok(s) => s,
            Err(e) => return diverge(seed, check, format!("{name}: store backtrace errors ({e})")),
        };
        if mem != stored {
            return diverge(seed, check, trunc(format!("{name}: {mem:?} vs {stored:?}")));
        }
    }
    None
}

/// Runs one generated case through every comparison. `None` means the
/// engine and the reference agree everywhere.
pub fn check(gen: &Generated) -> Option<Divergence> {
    let program: Program = gen.spec.compile();
    let ctx: Context = gen.dataset.context();
    let seed = gen.seed;

    let reference = run_reference(&program, &ctx);
    let fused = run_captured(&program, &ctx, reference_config());
    let (reference, fused) = match (reference, fused) {
        // Both reject the program (the generator sometimes produces
        // pipelines the static layer refuses; both sides must refuse
        // together). Every other engine configuration must reject it with
        // the *same* error.
        (Err(_), Err(engine_err)) => return rejection_agreement(seed, &program, &ctx, &engine_err),
        (Err(e), Ok(_)) => {
            return diverge(
                seed,
                "error agreement",
                format!("reference errors ({e}), engine succeeds"),
            )
        }
        (Ok(_), Err(e)) => {
            return diverge(
                seed,
                "error agreement",
                format!("engine errors ({e}), reference succeeds"),
            )
        }
        (Ok(r), Ok(f)) => (r, f),
    };
    let unfused = match run_captured(&program, &ctx, reference_config().fusion(false)) {
        Ok(u) => u,
        Err(e) => {
            return diverge(
                seed,
                "error agreement",
                format!("unfused engine errors ({e}), fused succeeds"),
            )
        }
    };

    if let Some(d) = compare_captured(seed, "reference vs fused engine (p=1)", &reference, &fused) {
        return Some(d);
    }
    if let Some(d) = compare_captured(seed, "fused vs unfused engine (p=1)", &fused, &unfused) {
        return Some(d);
    }

    // Worker-count and morsel-size invariance, bit-for-bit: re-run the
    // scheduler at every shape of the matrix's scheduler axis; ids,
    // association tables, and batch orders must not move.
    for shape in ExecMatrix::scheduler() {
        match run_captured(&program, &ctx, shape.at(1)) {
            Ok(r) => {
                let name = format!("w=1 vs {shape} (p=1)");
                if let Some(d) = compare_captured(seed, &name, &fused, &r) {
                    return Some(d);
                }
            }
            Err(e) => {
                return diverge(
                    seed,
                    "error agreement",
                    format!("engine at {shape} errors ({e}), w=1 succeeds"),
                )
            }
        }
    }

    // Capture transparency: a plain run returns the same rows.
    match run(&program, &ctx, reference_config(), &NoSink) {
        Ok(plain) => {
            if plain.rows != fused.output.rows {
                return diverge(
                    seed,
                    "capture on/off (p=1)",
                    "plain run rows differ from captured run rows".to_string(),
                );
            }
        }
        Err(e) => {
            return diverge(
                seed,
                "capture on/off (p=1)",
                format!("plain run errors ({e}), captured run succeeds"),
            )
        }
    }

    // Partition invariance, modulo identifiers.
    let mut alt_runs: Vec<(usize, CapturedRun)> = Vec::new();
    for parts in alt_partitions() {
        let config = ExecConfig::with_partitions(parts);
        match run_captured(&program, &ctx, config) {
            Ok(r) => {
                let name = format!("p=1 vs p={parts}");
                if r.output.op_counts != fused.output.op_counts {
                    return diverge(
                        seed,
                        &name,
                        format!(
                            "op_counts {:?} vs {:?}",
                            fused.output.op_counts, r.output.op_counts
                        ),
                    );
                }
                if let Some(d) = compare_items(seed, &name, &fused.output.rows, &r.output.rows) {
                    return Some(d);
                }
                alt_runs.push((parts, r));
            }
            Err(e) => {
                return diverge(
                    seed,
                    "error agreement",
                    format!("engine at p={parts} errors ({e}), p=1 succeeds"),
                )
            }
        }
    }

    // Out-of-core invariance, bit-for-bit at equal partition count: every
    // budget must be indistinguishable from the in-memory capture (rows,
    // ids, association tables). A one-byte budget routes every operator
    // output, join build side, shuffle, and capture association table
    // through disk, so it must report real spill traffic whenever any rows
    // flowed.
    let rows_flowed = fused.output.op_counts.iter().sum::<usize>() > 0;
    for (parts, shape) in spill_legs() {
        let in_memory = alt_runs
            .iter()
            .find(|(p, _)| *p == parts)
            .map_or(&fused, |(_, r)| r);
        let name = format!("in-memory vs spilled (p={parts}, {shape})");
        let must_spill = rows_flowed && shape.mem_budget == 1;
        match run_captured(&program, &ctx, shape.at(parts)) {
            Ok(r) => {
                let spilled = r.output.report.spill.as_ref().map(|s| {
                    s.budget_bytes == shape.mem_budget as u64
                        && (s.spills + s.capture_spills > 0 || !must_spill)
                });
                match spilled {
                    Some(true) => {}
                    Some(false) => {
                        return diverge(
                            seed,
                            &name,
                            "budgeted run reports no spill traffic".to_string(),
                        )
                    }
                    None => {
                        return diverge(
                            seed,
                            &name,
                            "budgeted run reports no spill stats".to_string(),
                        )
                    }
                }
                if let Some(d) = compare_captured(seed, &name, in_memory, &r) {
                    return Some(d);
                }
            }
            Err(e) => {
                return diverge(
                    seed,
                    "error agreement",
                    format!("budgeted engine errors ({e}), in-memory succeeds ({name})"),
                )
            }
        }
    }

    // Backtracing equivalence.
    let questions = (!fused.output.rows.is_empty()).then(|| Questions::new(gen, &fused));
    if let Some(questions) = &questions {
        let baseline = questions.answers(&fused);
        for (name, other) in [("reference", &reference), ("unfused engine", &unfused)] {
            for (base, got) in baseline.iter().zip(questions.answers(other)) {
                if base.1 != got.1 {
                    return diverge(
                        seed,
                        &format!("{} vs fused engine (p=1)", name),
                        trunc(format!("{}: {:?} vs {:?}", base.0, got.1, base.1)),
                    );
                }
            }
        }
        for (parts, alt) in &alt_runs {
            for (base, got) in baseline.iter().zip(questions.answers(alt)) {
                if base.2 != got.2 {
                    return diverge(
                        seed,
                        &format!("backtrace p=1 vs p={parts}"),
                        trunc(format!("{}: {:?} vs {:?}", base.0, base.2, got.2)),
                    );
                }
            }
        }
    }

    // Store equivalence: round-trip every partition count through the
    // segment format and re-ask the questions from the cold-opened store.
    // (Worker-count runs are bit-identical to these captures — proven
    // above — so persisting them would persist the same bytes.)
    if let Some(d) = store_axis(seed, "store vs memory (p=1)", &fused, questions.as_ref()) {
        return Some(d);
    }
    for (parts, alt) in &alt_runs {
        let name = format!("store vs memory (p={parts})");
        if let Some(d) = store_axis(seed, &name, alt, questions.as_ref()) {
            return Some(d);
        }
    }

    None
}

/// When the fused engine rejects a program, every other engine
/// configuration must reject it with a `Display`-identical error
/// (static validation runs before any data moves, so the error cannot
/// depend on partitioning or scheduling).
fn rejection_agreement(
    seed: u64,
    program: &Program,
    ctx: &Context,
    fused_err: &EngineError,
) -> Option<Divergence> {
    let expect = fused_err.to_string();
    let mut checks: Vec<(String, Result<CapturedRun, EngineError>)> = vec![
        (
            "unfused engine".into(),
            run_captured(program, ctx, reference_config().fusion(false)),
        ),
        (
            "referee shape".into(),
            run_captured(program, ctx, ExecMatrix::referee(1)),
        ),
    ];
    for shape in ExecMatrix::scheduler() {
        checks.push((shape.to_string(), run_captured(program, ctx, shape.at(1))));
    }
    for (parts, shape) in spill_legs() {
        let name = format!("{shape} (p={parts})");
        checks.push((name, run_captured(program, ctx, shape.at(parts))));
    }
    for parts in alt_partitions() {
        let config = ExecConfig::with_partitions(parts);
        checks.push((format!("p={parts}"), run_captured(program, ctx, config)));
    }
    for (name, outcome) in checks {
        match outcome {
            Ok(_) => {
                return diverge(
                    seed,
                    "rejection agreement",
                    format!("fused engine rejects ({expect}), {name} succeeds"),
                )
            }
            Err(e) => {
                if e.to_string() != expect {
                    return diverge(
                        seed,
                        "rejection agreement",
                        format!("fused engine rejects `{expect}`, {name} rejects `{e}`"),
                    );
                }
            }
        }
    }
    None
}

/// Runs one (typically corrupted, see [`crate::gen::generate_malformed`])
/// case through the engine's configuration matrix only — the reference
/// interpreter is skipped because it does not contain UDF panics — and
/// asserts every shape agrees with the referee shape on the exact outcome:
/// bit-identical captured runs when both succeed, `Display`-identical
/// [`EngineError`]s when both fail.
pub fn check_malformed(gen: &Generated) -> Option<Divergence> {
    let program: Program = gen.spec.compile();
    let ctx: Context = gen.dataset.context();
    let seed = gen.seed;

    let fused = run_captured(&program, &ctx, reference_config());
    let referee = run_captured(&program, &ctx, ExecMatrix::referee(1));
    if let Some(d) = same_outcome(seed, "referee vs engine (p=1)", &referee, &fused) {
        return Some(d);
    }
    let unfused = run_captured(&program, &ctx, reference_config().fusion(false));
    if let Some(d) = same_outcome(seed, "fused vs unfused (p=1)", &fused, &unfused) {
        return Some(d);
    }

    // Capture transparency extends to failures: a plain (no-capture) run
    // fails — or succeeds — exactly like the captured run.
    let plain = run(&program, &ctx, reference_config(), &NoSink);
    match (&plain, &fused) {
        (Ok(p), Ok(f)) => {
            if p.rows != f.output.rows {
                return diverge(
                    seed,
                    "capture on/off (p=1)",
                    "plain run rows differ from captured run rows".to_string(),
                );
            }
        }
        (Err(pe), Err(fe)) => {
            if pe.to_string() != fe.to_string() {
                return diverge(
                    seed,
                    "capture on/off (p=1)",
                    format!("plain run errors `{pe}`, captured run errors `{fe}`"),
                );
            }
        }
        (Ok(_), Err(fe)) => {
            return diverge(
                seed,
                "capture on/off (p=1)",
                format!("plain run succeeds, captured run errors ({fe})"),
            )
        }
        (Err(pe), Ok(_)) => {
            return diverge(
                seed,
                "capture on/off (p=1)",
                format!("plain run errors ({pe}), captured run succeeds"),
            )
        }
    }

    // Scheduler invariance of the whole outcome: every scheduler shape
    // reproduces the w=1 outcome bit-for-bit — first-failure selection is
    // deterministic, not a race. Nor may a budget change the outcome:
    // spilled blocks replay the exact morsel layout of the in-memory run,
    // so first-failure selection cannot move. The same holds within every
    // other partition count below.
    for shape in shapes_at(1) {
        let alt = run_captured(&program, &ctx, shape.at(1));
        if let Some(d) = same_outcome(seed, &format!("w=1 vs {shape} (p=1)"), &fused, &alt) {
            return Some(d);
        }
    }

    // At other partition counts identifiers (and hence failing-row ids)
    // legitimately move, so the comparison is against the referee shape
    // *within* each partition count, not across counts.
    for parts in alt_partitions() {
        let p = run_captured(&program, &ctx, ExecMatrix::referee(parts));
        for shape in shapes_at(parts) {
            let alt = run_captured(&program, &ctx, shape.at(parts));
            let name = format!("referee vs {shape} (p={parts})");
            if let Some(d) = same_outcome(seed, &name, &p, &alt) {
                return Some(d);
            }
        }
        if let Ok(p) = &p {
            if let Some(d) = store_axis(seed, &format!("store vs memory (p={parts})"), p, None) {
                return Some(d);
            }
        }
    }

    // Store equivalence on the (rarer) malformed cases that still succeed:
    // whatever the run captured must survive persist → cold-open intact,
    // with store-backed question answers matching memory.
    if let Ok(fused) = &fused {
        let questions = (!fused.output.rows.is_empty()).then(|| Questions::new(gen, fused));
        let name = "store vs memory (malformed, p=1)";
        if let Some(d) = store_axis(seed, name, fused, questions.as_ref()) {
            return Some(d);
        }
    }
    None
}

/// Result of a fuzzing sweep over a seed range.
#[derive(Debug, Default)]
pub struct FuzzOutcome {
    /// Number of generated cases checked.
    pub checked: u64,
    /// Diverging cases, paired with their divergence.
    pub divergences: Vec<(Generated, Divergence)>,
}

/// Generates and checks `count` cases starting at `start_seed`, collecting
/// at most `stop_after` divergences before giving up early (0 = never stop
/// early).
pub fn fuzz(start_seed: u64, count: u64, stop_after: usize) -> FuzzOutcome {
    let mut outcome = FuzzOutcome::default();
    for seed in start_seed..start_seed.saturating_add(count) {
        let gen = crate::gen::generate(seed);
        outcome.checked += 1;
        if let Some(div) = check(&gen) {
            outcome.divergences.push((gen, div));
            if stop_after > 0 && outcome.divergences.len() >= stop_after {
                break;
            }
        }
    }
    outcome
}

/// The malformed-input sweep: like [`fuzz`], but corrupting each case via
/// [`crate::gen::generate_malformed`] and checking shape agreement on
/// the (usually failing) outcome with [`check_malformed`].
pub fn fuzz_malformed(start_seed: u64, count: u64, stop_after: usize) -> FuzzOutcome {
    let mut outcome = FuzzOutcome::default();
    for seed in start_seed..start_seed.saturating_add(count) {
        let gen = crate::gen::generate_malformed(seed);
        outcome.checked += 1;
        if let Some(div) = check_malformed(&gen) {
            outcome.divergences.push((gen, div));
            if stop_after > 0 && outcome.divergences.len() >= stop_after {
                break;
            }
        }
    }
    outcome
}
