//! # pebble-core — structural provenance (Secs. 4–6)
//!
//! The paper's contribution, implemented over the `pebble-dataflow` engine:
//!
//! * [`capture`] — lightweight structural provenance capture (Sec. 5):
//!   per-operator identifier association tables (Tab. 6) plus schema-level
//!   access/manipulation path sets derived statically from the plan;
//! * [`pattern`] — tree-pattern provenance queries (Sec. 6.1, Fig. 4);
//! * [`btree`] — backtracing structures and trees with contributing /
//!   influencing attributes (Defs. 6.2/6.3);
//! * [`mod@backtrace`] — the backtracing algorithm (Algs. 1–4) computing
//!   attribute-level provenance of nested data from the captured pebbles.

#![warn(missing_docs)]

pub mod analysis;
pub mod backend;
pub mod backtrace;
pub mod btree;
pub mod capture;
pub mod model;
pub mod pattern;
pub mod pattern_opt;
pub mod pattern_parse;
pub mod semiring;
pub mod whynot;

pub use analysis::{co_access_pairs, AuditReport, Heatmap, ItemUsage};
pub use backend::{
    backend_by_name, run_for_backend, CaptureBackend, PreparedBackend, SemiringBackend,
    StructuralBackend, WhyNotBackend,
};
pub use backtrace::{
    backtrace, backtrace_from, backtrace_from_counted, backtrace_with, canonical_provenance,
    BacktraceIndex, BacktraceWork, ProvView, SourceProvenance, TracedItem,
};
pub use btree::{BNode, Backtrace, NodeLabel, ProvTree};
pub use capture::{
    run_captured, run_captured_observed, run_captured_with, CapturedRun, InputProv,
    OperatorProvenance, ProvAssoc,
};
pub use pattern::{EdgeKind, PatternNode, TreePattern, ValuePred};
pub use pattern_parse::PatternParseError;
pub use pebble_dataflow::UnaryRuns;
