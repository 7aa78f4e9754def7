//! Pluggable capture backends.
//!
//! [`CaptureBackend`] generalizes the hardwired capture→backtrace path:
//! every backend consumes the same assembled [`CapturedRun`] — the
//! per-operator association-id tables the [`pebble_dataflow::sink`]
//! hook emitted, in-memory or spilled — and answers textual queries over
//! it. Because the feed is the captured run itself, the engine's whole
//! determinism matrix (workers × partitions × spill budget) applies to
//! every backend unchanged, and backend answers are required to be
//! byte-identical across all execution shapes (they render only
//! identifier-free quantities: output row positions, dataset indices,
//! operator ids, schema-level paths).
//!
//! Shipped backends:
//!
//! * `structural` — the paper's backward tracing ([`crate::backtrace`]):
//!   `BACKTRACE <row>` and `PATTERN <tree-pattern>`;
//! * `whynot` — missing-answer explanations ([`crate::whynot`]):
//!   `WHYNOT path=value[,path=value…]`;
//! * `semiring` — N[X] provenance polynomials with a probability hook
//!   ([`crate::semiring`]): `POLY <row>`, `COUNT <row>`, `PROB <row>`.
//!
//! `pebble-baselines` ports its comparison systems (Titian lineage, lazy
//! re-execution, Lipstick annotation counting) onto the same trait; the
//! backend-conformance suite runs all of them through the determinism
//! matrix.
//!
//! The backend for a session is picked by name: [`backend_by_name`]
//! resolves one of the three built-ins.

use pebble_dataflow::{Context, EngineError, ExecConfig, Program, Result};
use pebble_obs::BackendStats;

use crate::backtrace::{backtrace, canonical_provenance};
use crate::btree::{Backtrace, ProvTree};
use crate::capture::{run_captured, CapturedRun};
use crate::pattern::TreePattern;
use crate::semiring;
use crate::whynot;
use pebble_nested::Path;

/// A provenance modality over captured runs. Implementations must be
/// deterministic: the same run and query yield byte-identical answers.
pub trait CaptureBackend: Sync {
    /// Stable backend name (registry key and report label).
    fn name(&self) -> &'static str;

    /// Prepares the backend over one captured run (plus the source
    /// context, for backends that reason about input items).
    fn prepare<'r>(
        &self,
        run: &'r CapturedRun,
        ctx: &'r Context,
    ) -> Result<Box<dyn PreparedBackend + 'r>>;
}

/// A backend bound to one run, ready to answer queries.
pub trait PreparedBackend {
    /// Answers one textual query as identifier-free lines.
    fn answer(&self, query: &str) -> Result<Vec<String>>;
}

/// Shared error constructor for a query a backend does not understand.
pub fn unknown_query_error(backend: &str, query: &str) -> EngineError {
    EngineError::BacktraceError(format!(
        "backend `{backend}` does not understand `{}`",
        query.trim()
    ))
}

/// The paper's structural backward tracing as a backend.
pub struct StructuralBackend;

struct PreparedStructural<'r> {
    run: &'r CapturedRun,
}

impl CaptureBackend for StructuralBackend {
    fn name(&self) -> &'static str {
        "structural"
    }

    fn prepare<'r>(
        &self,
        run: &'r CapturedRun,
        _ctx: &'r Context,
    ) -> Result<Box<dyn PreparedBackend + 'r>> {
        Ok(Box::new(PreparedStructural { run }))
    }
}

impl PreparedBackend for PreparedStructural<'_> {
    fn answer(&self, query: &str) -> Result<Vec<String>> {
        let query = query.trim();
        let bt = if let Some(arg) = query.strip_prefix("BACKTRACE ") {
            let rows = self.run.output.rows.len();
            let index: usize = arg.trim().parse().map_err(|_| {
                EngineError::BacktraceError(format!("bad row index `{}`", arg.trim()))
            })?;
            let row = self
                .run
                .output
                .rows
                .get(index)
                .ok_or_else(|| semiring::row_range_error(index, rows))?;
            let tree = ProvTree::from_paths(Path::path_set(&row.item).iter());
            Backtrace {
                entries: vec![(row.id, tree)],
            }
        } else if let Some(arg) = query.strip_prefix("PATTERN ") {
            let pattern = TreePattern::parse(arg.trim())
                .map_err(|e| EngineError::BacktraceError(format!("bad pattern: {e}")))?;
            pattern.match_rows(&self.run.output.rows)
        } else {
            return Err(unknown_query_error("structural", query));
        };
        let sources = backtrace(self.run, bt)?;
        Ok(canonical_provenance(&sources)
            .into_iter()
            .map(|(source, index, tree)| format!("{source}[{index}]: {tree}"))
            .collect())
    }
}

/// Why-not explanations as a backend.
pub struct WhyNotBackend;

struct PreparedWhyNot<'r> {
    run: &'r CapturedRun,
    ctx: &'r Context,
}

impl CaptureBackend for WhyNotBackend {
    fn name(&self) -> &'static str {
        "whynot"
    }

    fn prepare<'r>(
        &self,
        run: &'r CapturedRun,
        ctx: &'r Context,
    ) -> Result<Box<dyn PreparedBackend + 'r>> {
        Ok(Box::new(PreparedWhyNot { run, ctx }))
    }
}

impl PreparedBackend for PreparedWhyNot<'_> {
    fn answer(&self, query: &str) -> Result<Vec<String>> {
        let query = query.trim();
        let Some(arg) = query.strip_prefix("WHYNOT") else {
            return Err(unknown_query_error("whynot", query));
        };
        let conds = whynot::parse_whynot_query(arg)?;
        let answer = whynot::why_not(self.run, self.ctx, &conds)?;
        Ok(answer.render(self.run))
    }
}

/// N[X] semiring polynomials as a backend.
pub struct SemiringBackend;

struct PreparedSemiring<'r> {
    run: &'r CapturedRun,
}

impl CaptureBackend for SemiringBackend {
    fn name(&self) -> &'static str {
        "semiring"
    }

    fn prepare<'r>(
        &self,
        run: &'r CapturedRun,
        _ctx: &'r Context,
    ) -> Result<Box<dyn PreparedBackend + 'r>> {
        Ok(Box::new(PreparedSemiring { run }))
    }
}

impl PreparedBackend for PreparedSemiring<'_> {
    fn answer(&self, query: &str) -> Result<Vec<String>> {
        let (verb, index) = semiring::parse_row_query(query, &["POLY", "COUNT", "PROB"])?;
        let poly = semiring::polynomial_of(self.run, index)?;
        Ok(vec![match verb {
            "POLY" => poly.render(),
            "COUNT" => poly.count().to_string(),
            _ => semiring::probability(&poly)?,
        }])
    }
}

static STRUCTURAL: StructuralBackend = StructuralBackend;
static WHYNOT: WhyNotBackend = WhyNotBackend;
static SEMIRING: SemiringBackend = SemiringBackend;

/// Looks a built-in backend up by name.
pub fn backend_by_name(name: &str) -> Option<&'static dyn CaptureBackend> {
    match name {
        "structural" => Some(&STRUCTURAL),
        "whynot" => Some(&WHYNOT),
        "semiring" => Some(&SEMIRING),
        _ => None,
    }
}

/// Executes a program with capture on behalf of a backend and stamps the
/// run report's `backend` section.
pub fn run_for_backend(
    program: &Program,
    ctx: &Context,
    config: ExecConfig,
    backend: &dyn CaptureBackend,
) -> Result<CapturedRun> {
    let mut run = run_captured(program, ctx, config)?;
    run.output.report.backend = Some(BackendStats {
        name: backend.name().to_string(),
    });
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_dataflow::{context::items_of, Expr};
    use pebble_nested::Value;

    fn ctx() -> Context {
        let mut c = Context::new();
        c.register(
            "t",
            items_of(vec![
                vec![("k", Value::str("a")), ("v", Value::Int(1))],
                vec![("k", Value::str("b")), ("v", Value::Int(2))],
            ]),
        );
        c
    }

    fn captured() -> (CapturedRun, Context) {
        let mut b = pebble_dataflow::ProgramBuilder::new();
        let r = b.read("t");
        let f = b.filter(r, Expr::col("v").ge(Expr::lit(2i64)));
        let p = b.build(f);
        let c = ctx();
        let run = run_captured(&p, &c, ExecConfig::with_partitions(2)).unwrap();
        (run, c)
    }

    #[test]
    fn registry_resolves_builtins() {
        for name in ["structural", "whynot", "semiring"] {
            assert_eq!(backend_by_name(name).unwrap().name(), name);
        }
        assert!(backend_by_name("nope").is_none());
    }

    #[test]
    fn structural_backend_answers_and_rejects() {
        let (run, c) = captured();
        let prepared = StructuralBackend.prepare(&run, &c).unwrap();
        let lines = prepared.answer("BACKTRACE 0").unwrap();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("t[1]: "), "got {}", lines[0]);
        assert!(prepared.answer("BACKTRACE 7").is_err());
        let err = prepared.answer("TRACE 0").unwrap_err();
        assert_eq!(
            err.to_string(),
            "backtrace failed: backend `structural` does not understand `TRACE 0`"
        );
    }

    #[test]
    fn whynot_backend_round_trips() {
        let (run, c) = captured();
        let prepared = WhyNotBackend.prepare(&run, &c).unwrap();
        assert_eq!(
            prepared.answer("WHYNOT v=2").unwrap(),
            vec!["found: output rows 0".to_string()]
        );
        assert!(prepared.answer("POLY 0").is_err());
    }

    #[test]
    fn semiring_backend_answers_all_verbs() {
        let (run, c) = captured();
        let prepared = SemiringBackend.prepare(&run, &c).unwrap();
        assert_eq!(prepared.answer("POLY 0").unwrap(), vec!["x0_1".to_string()]);
        assert_eq!(prepared.answer("COUNT 0").unwrap(), vec!["1".to_string()]);
        assert_eq!(prepared.answer("PROB 0").unwrap(), vec!["1/4".to_string()]);
        assert!(prepared.answer("WHYNOT v=1").is_err());
    }

    #[test]
    fn run_for_backend_stamps_report() {
        let (_, c) = captured();
        let mut b = pebble_dataflow::ProgramBuilder::new();
        let r = b.read("t");
        let p = b.build(r);
        let run = run_for_backend(&p, &c, ExecConfig::with_partitions(1), &SEMIRING).unwrap();
        let stats = run.output.report.backend.as_ref().unwrap();
        assert_eq!(stats.name, "semiring");
    }
}
