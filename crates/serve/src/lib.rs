//! # pebble-serve — persistent provenance store + concurrent query service
//!
//! Everything a captured run needs to outlive its process:
//!
//! * [`mod@segment`] — the versioned on-disk format: checksummed
//!   length-prefixed blocks with run-length + delta encoded association
//!   tables;
//! * [`mod@store`] — [`store::persist`] / [`store::ProvStore`]: lowering a
//!   `CapturedRun` to bytes and cold-opening it as a read-only
//!   [`pebble_core::ProvView`], so the unchanged backtracing algorithm
//!   answers from disk;
//! * [`mod@server`] — a std-only TCP query service (thread-per-connection
//!   on top of the engine `WorkerPool`) streaming
//!   `PROGRESS`/`DATA`/`ERROR`/`DONE` frames for backtrace, heatmap,
//!   audit, why-not, and `STATS` queries, with per-query ids, a lock-free
//!   per-request-type metrics registry, and optional per-query spans;
//! * [`mod@error`] — typed [`error::StoreError`] failures with pinned
//!   `Display` strings, convertible into the engine's `EngineError`.
//!
//! The in-memory path remains the referee: every store-backed answer is
//! required (and tested, via the oracle's store axis) to be byte-identical
//! to the in-memory answer.

#![warn(missing_docs)]

pub mod error;
pub mod segment;
pub mod server;
pub mod store;

pub use error::StoreError;
pub use server::{query, query_with_id, ServeConfig, Server};
pub use store::{naive_dump_bytes, persist, persist_file, ProvStore};
