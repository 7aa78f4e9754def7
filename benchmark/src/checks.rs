//! Correctness before timing: the equalities every run must keep, and the
//! values pinned for seed 42 in `golden.json`.

use pebble_core::{backtrace_with, canonical_provenance, BacktraceIndex};
use pebble_nested::{json, Value};

use crate::journey::{Artifacts, Plan};
use crate::probes::whole_item;
use crate::util::{Fnv, Tally};

/// The seed whose outputs are pinned.
pub const GOLDEN_SEED: u64 = 42;

/// Exact outputs of one workload at one seed and scale.
#[derive(Debug, PartialEq, Eq)]
pub struct Pins {
    pub rows: usize,
    pub assoc_rows: usize,
    /// Digest of the scenario query's canonical provenance.
    pub answer_digest: u64,
    /// Digest of the input NDJSON.
    pub input_digest: u64,
    /// Digest of the segment file. `dblp_join_agg` and
    /// `dblp_join_agg_spill` pin the same value: the budgeted run is
    /// byte-identical to the in-memory run.
    pub segment_digest: u64,
    /// Digest over the serial-baseline answers of step G's request list.
    pub served_digest: u64,
}

impl Pins {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rows\": {}, \"assoc_rows\": {}, \"answer_digest\": \"{:016x}\", \
             \"input_digest\": \"{:016x}\", \"segment_digest\": \"{:016x}\", \
             \"served_digest\": \"{:016x}\"}}",
            self.rows,
            self.assoc_rows,
            self.answer_digest,
            self.input_digest,
            self.segment_digest,
            self.served_digest
        )
    }

    fn from_value(v: &Value) -> Option<Pins> {
        let item = v.as_item()?;
        let int = |k: &str| item.get(k)?.as_int().map(|i| i as usize);
        let hex = |k: &str| u64::from_str_radix(item.get(k)?.as_str()?, 16).ok();
        Some(Pins {
            rows: int("rows")?,
            assoc_rows: int("assoc_rows")?,
            answer_digest: hex("answer_digest")?,
            input_digest: hex("input_digest")?,
            segment_digest: hex("segment_digest")?,
            served_digest: hex("served_digest")?,
        })
    }
}

/// Checks the warm-up round's outputs against each other and returns the
/// values `golden.json` pins (`served_digest` is filled in after step G).
pub fn verify(plan: &Plan, art: &Artifacts, tally: &mut Tally) -> Result<Pins, String> {
    let (run, store) = (&art.run, &art.store);
    tally.check(
        "plain rows == captured rows",
        art.plain.rows == run.output.rows,
    );
    tally.check(
        "store operators == memory run",
        store.ops() == run.ops.as_slice(),
    );
    tally.check(
        "store rows == memory run",
        store.rows() == run.output.rows.as_slice(),
    );
    tally.check(
        "store schemas == memory run",
        store.op_schemas() == run.output.op_schemas.as_slice(),
    );
    tally.check("the run produced result rows", !run.output.rows.is_empty());
    let index = BacktraceIndex::build(run);
    let n = run.output.rows.len();
    for idx in (0..n).step_by((n / 5).max(1)) {
        let mem = backtrace_with(run, &index, whole_item(run, idx));
        let stored = store
            .whole_item(idx)
            .map_err(|e| e.to_string())
            .and_then(|b| store.backtrace(b).map_err(|e| e.to_string()));
        tally.check(
            &format!("store backtrace of row {idx} == memory run"),
            matches!((&mem, &stored), (Ok(a), Ok(b)) if a == b),
        );
    }
    let mem = backtrace_with(run, &index, plan.pattern.match_rows(&run.output.rows));
    tally.check(
        "store scenario answer == memory run",
        mem.as_ref().is_ok_and(|a| *a == art.answer),
    );
    tally.check(
        "the scenario query traces back to source items",
        art.answer.iter().any(|s| !s.entries.is_empty()),
    );

    let mut answer = Fnv::new();
    for (source, index, tree) in canonical_provenance(&art.answer) {
        answer.update(format!("{source}\t{index}\t{tree}\n").as_bytes());
    }
    let segment = std::fs::read(&plan.segment).map_err(|e| format!("segment: {e}"))?;
    Ok(Pins {
        rows: n,
        assoc_rows: run.ops.iter().map(|o| o.assoc.len()).sum(),
        answer_digest: answer.finish(),
        input_digest: plan.inputs.digest,
        segment_digest: Fnv::of(&segment),
        served_digest: 0,
    })
}

/// Compares `pins` with the entry `golden.json` holds for this workload
/// and scale (seed 42 only; other seeds keep the equalities, skip the pins).
pub fn check_golden(
    workload: &str,
    quick: bool,
    pins: &Pins,
    tally: &mut Tally,
) -> Result<(), String> {
    let golden = std::fs::read_to_string(crate::bench_dir().join("golden.json"))
        .map_err(|e| format!("golden.json: {e}"))?;
    let scale = if quick { "quick" } else { "full" };
    let pinned = json::parse(&golden)
        .ok()
        .and_then(|doc| Pins::from_value(doc.as_item()?.get(workload)?.as_item()?.get(scale)?));
    tally.check(
        &format!(
            "golden.json {workload}/{scale}: pinned {pinned:?}, observed {}",
            pins.to_json()
        ),
        pinned.as_ref() == Some(pins),
    );
    Ok(())
}
