//! # pebble-dataflow — a partitioned nested-dataflow engine (Sec. 4.2)
//!
//! The DISC-system substrate standing in for Apache Spark: programs are
//! DAGs of `read`, `filter`, `select`, `map`, `join`, `union`, `flatten`
//! and `group-aggregate` operators over datasets of nested items, executed
//! partition-parallel with deterministic output order.
//!
//! Provenance hooks: the executor is generic over a [`sink::ProvenanceSink`]
//! that receives the identifier associations of Tab. 6; [`sink::NoSink`]
//! monomorphizes recording away for plain runs.

#![warn(missing_docs)]

pub mod context;
pub mod error;
pub mod exec;
pub mod expr;
pub mod fault;
pub mod hash;
pub mod io;
pub mod matrix;
pub mod op;
pub mod optimize;
pub mod pool;
pub mod program;
pub mod runs;
pub mod sink;
pub mod spill;
pub mod vector;

pub use context::Context;
pub use error::{panic_message, EngineError, Result};
pub use exec::{run, run_observed, ExecConfig, ItemId, Row, RunOutput};
pub use expr::{CmpOp, Expr, SelectExpr};
pub use matrix::{ExecMatrix, Shape};
pub use op::{AggFunc, AggSpec, GroupKey, MapUdf, NamedExpr, OpId, OpKind};
pub use optimize::{optimize, OptimizeStats};
pub use pebble_obs::{ObsConfig, RunReport};
pub use pool::WorkerPool;
pub use program::{Operator, Program, ProgramBuilder};
pub use runs::UnaryRuns;
pub use sink::{NoSink, ProvenanceSink, Tee};
pub use spill::MemoryTracker;
