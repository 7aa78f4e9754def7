//! Greedy failure minimizer.
//!
//! Given a diverging `(pipeline, dataset, seed)` triple, [`minimize`]
//! shrinks it while [`check`] keeps reporting *some* divergence (classic
//! delta-debugging acceptance — the divergence may shift as the case
//! shrinks, any repro is a good repro):
//!
//! 1. **operator removal** — drop one non-`read` operator at a time,
//!    rewiring its consumers to its first input, then pruning operators no
//!    longer reachable from the sink and sources no longer read;
//! 2. **row removal** — per source, drop chunks of rows with halving chunk
//!    sizes down to single rows.
//!
//! The loop runs to a fixpoint, so the result is 1-minimal: removing any
//! single operator or row makes the divergence disappear.
//! [`regression_code`] then renders the shrunk case as a ready-to-paste
//! `#[test]` for `crates/oracle/tests/regressions.rs`.

use crate::diff::check;
use crate::gen::Generated;
use crate::spec::{OpSpec, PipelineSpec};

/// Shrinks a diverging case to a 1-minimal repro. Returns the input
/// unchanged if it does not diverge.
pub fn minimize(gen: &Generated) -> Generated {
    minimize_with(gen, |g| check(g).is_some())
}

/// [`minimize`] generalized over the failure predicate: shrinks `gen`
/// while `failing` keeps returning `true`. The differential oracle passes
/// `check(..).is_some()`; tests pass synthetic predicates to verify the
/// shrinking itself.
pub fn minimize_with(gen: &Generated, failing: impl Fn(&Generated) -> bool) -> Generated {
    if !failing(gen) {
        return gen.clone();
    }
    let mut best = gen.clone();
    loop {
        let mut progress = false;
        while shrink_ops_once(&mut best, &failing) {
            progress = true;
        }
        while shrink_rows_once(&mut best, &failing) {
            progress = true;
        }
        if !progress {
            return best;
        }
    }
}

/// Tries every single-operator removal; commits the first one that still
/// diverges.
fn shrink_ops_once(best: &mut Generated, failing: &impl Fn(&Generated) -> bool) -> bool {
    for idx in (0..best.spec.ops.len()).rev() {
        let Some(candidate) = remove_op(best, idx) else {
            continue;
        };
        if failing(&candidate) {
            *best = candidate;
            return true;
        }
    }
    false
}

/// Builds the candidate with operator `idx` removed, or `None` when the
/// removal cannot produce a valid pipeline (removing a `read`, or emptying
/// the pipeline).
fn remove_op(gen: &Generated, idx: usize) -> Option<Generated> {
    let ops = &gen.spec.ops;
    if ops.len() <= 1 || matches!(ops[idx], OpSpec::Read { .. }) {
        return None;
    }
    let replacement = ops[idx].inputs()[0];
    let mut next: Vec<OpSpec> = Vec::with_capacity(ops.len() - 1);
    for (i, op) in ops.iter().enumerate() {
        if i == idx {
            continue;
        }
        let mut op = op.clone();
        op.map_inputs(|r| {
            let r = if r == idx { replacement } else { r };
            if r > idx {
                r - 1
            } else {
                r
            }
        });
        next.push(op);
    }
    let mut candidate = Generated {
        seed: gen.seed,
        dataset: gen.dataset.clone(),
        spec: PipelineSpec { ops: next },
    };
    prune(&mut candidate);
    Some(candidate)
}

/// Drops operators unreachable from the sink (the last operator) and
/// sources no longer read by any operator.
fn prune(gen: &mut Generated) {
    let ops = &gen.spec.ops;
    let mut live = vec![false; ops.len()];
    let mut stack = vec![ops.len() - 1];
    while let Some(i) = stack.pop() {
        if std::mem::replace(&mut live[i], true) {
            continue;
        }
        stack.extend(ops[i].inputs());
    }
    let remap: Vec<usize> = live
        .iter()
        .scan(0usize, |n, &l| {
            let v = *n;
            if l {
                *n += 1;
            }
            Some(v)
        })
        .collect();
    gen.spec.ops = gen
        .spec
        .ops
        .iter()
        .enumerate()
        .filter(|(i, _)| live[*i])
        .map(|(_, op)| {
            let mut op = op.clone();
            op.map_inputs(|r| remap[r]);
            op
        })
        .collect();
    let read: Vec<String> = gen
        .spec
        .ops
        .iter()
        .filter_map(|op| match op {
            OpSpec::Read { source } => Some(source.clone()),
            _ => None,
        })
        .collect();
    gen.dataset
        .sources
        .retain(|(name, _)| read.iter().any(|r| r == name));
}

/// One pass of greedy row dropping: per source, chunk sizes halving from
/// half the source down to 1; commits the first chunk whose removal still
/// diverges.
fn shrink_rows_once(best: &mut Generated, failing: &impl Fn(&Generated) -> bool) -> bool {
    for src in 0..best.dataset.sources.len() {
        let n = best.dataset.sources[src].1.len();
        let mut chunk = (n / 2).max(1);
        loop {
            let mut start = 0;
            while start < best.dataset.sources[src].1.len() {
                let len = chunk.min(best.dataset.sources[src].1.len() - start);
                if len == 0 {
                    break;
                }
                let mut candidate = best.clone();
                candidate.dataset.sources[src].1.drain(start..start + len);
                if failing(&candidate) {
                    *best = candidate;
                    return true;
                }
                start += len;
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
    }
    false
}

/// Renders a minimized case as a ready-to-paste regression test for
/// `crates/oracle/tests/regressions.rs`.
pub fn regression_code(gen: &Generated) -> String {
    let shape = gen.spec.describe();
    let rows = gen.dataset.rows();
    format!(
        r#"/// Minimized differential repro: seed {seed}, shape `{shape}`, {rows} input rows.
#[test]
fn oracle_seed_{seed}() {{
    let dataset = {dataset};
    let spec = {spec};
    let gen = Generated {{ seed: {seed}, dataset, spec }};
    assert_eq!(check(&gen), None);
}}
"#,
        seed = gen.seed,
        dataset = indent(&gen.dataset.to_code(), 4),
        spec = indent(&gen.spec.to_code(), 4),
    )
}

/// Indents every line after the first by `by` spaces, so multi-line
/// literals nest inside the emitted test body.
fn indent(code: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    code.replace('\n', &format!("\n{pad}"))
}
