//! # Pebble — structural provenance for nested data analytics
//!
//! Facade crate of the EDBT 2020 reproduction ("Tracing nested data with
//! structural provenance for big data analytics", Diestelkämper &
//! Herschel). Re-exports the workspace crates:
//!
//! * [`nested`] — the nested data model: values, types, access paths;
//! * [`dataflow`] — the partition-parallel dataflow engine (the Spark
//!   substitute) with plan optimization and NDJSON I/O;
//! * [`core`] — structural provenance: lightweight capture, tree-pattern
//!   queries (with a textual syntax), the backtracing algorithm, and the
//!   use-case analyses;
//! * [`serve`] — persistence: the `PBSG` segment format (`persist` /
//!   `ProvStore`) and the concurrent query service over it;
//! * [`obs`] — runtime telemetry: per-operator metrics, tracing spans,
//!   the structured run report, and the leveled diagnostics facade;
//! * [`baselines`] — the comparison systems: Titian-style lineage,
//!   PROVision-style lazy querying and how-provenance polynomials,
//!   Lipstick-style per-value annotations, and where-provenance;
//! * [`workloads`] — synthetic Twitter/DBLP generators, the paper's
//!   running example, and evaluation scenarios T1–T5 / D1–D5.
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system inventory,
//! and `EXPERIMENTS.md` for paper-vs-measured results.

pub use pebble_baselines as baselines;
pub use pebble_core as core;
pub use pebble_dataflow as dataflow;
pub use pebble_nested as nested;
pub use pebble_obs as obs;
pub use pebble_serve as serve;
pub use pebble_workloads as workloads;
