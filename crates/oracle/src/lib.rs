//! # pebble-oracle — the executable-spec oracle
//!
//! Testing infrastructure that holds the optimized engine to the paper's
//! semantics (Tab. 5 operator definitions, Tab. 6 association tables,
//! Algs. 1–4 backtracing):
//!
//! * [`interp`] — a deliberately naive single-threaded **reference
//!   interpreter**: every operator and its provenance-capture rule written
//!   directly from the definitions, cloning everywhere, with none of the
//!   engine's fusion / interning / hashing shortcuts;
//! * [`spec`] — **printable pipeline/dataset specifications**: generated
//!   cases are plain data that compiles to a [`pebble_dataflow::Program`]
//!   *and* prints back as Rust source;
//! * [`gen`] — a seeded, schema-aware **random pipeline generator** over
//!   Twitter/DBLP-shaped datasets;
//! * [`diff`] — the **differential runner** comparing reference vs fused
//!   vs unfused engine, capture on vs off, the shapes of
//!   [`pebble_dataflow::ExecMatrix`], and sampled backtraces;
//! * [`mod@minimize`] — a greedy **failure minimizer** shrinking a diverging
//!   case to a 1-minimal repro and emitting it as a ready-to-paste
//!   regression test.
//!
//! See DESIGN.md, "Testing strategy: the Tab. 5 oracle".

#![warn(missing_docs)]

pub mod backends;
pub mod diff;
pub mod gen;
pub mod interp;
pub mod minimize;
pub mod spec;

pub use backends::{
    check_backends, check_backends_malformed, fuzz_backends, fuzz_backends_malformed,
};
pub use diff::{check, check_malformed, fuzz, fuzz_malformed, Divergence, FuzzOutcome};
pub use gen::{generate, generate_malformed, Generated};
pub use interp::{reference_config, run_reference};
pub use minimize::{minimize, minimize_with, regression_code};
pub use spec::{
    AggKind, CmpKind, ColSpec, DatasetSpec, LitSpec, OpSpec, PipelineSpec, PredSpec, UdfSpec,
};
