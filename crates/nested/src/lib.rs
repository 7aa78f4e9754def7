//! # pebble-nested — the nested data model (Sec. 4.1)
//!
//! Building blocks shared by the dataflow engine and the provenance layer:
//!
//! * [`value`] — constants, [`value::DataItem`]s, bags, and sets (Def. 4.1);
//! * [`types`] — recursive nested types `τ(·)` (Tab. 4) with inference,
//!   conformance and unification;
//! * [`path`] — access paths `d.a[i].b` (Def. 4.3) and schema-level paths
//!   with `[pos]` placeholders (Sec. 5.1);
//! * [`label`] — interned attribute names shared across items;
//! * [`mod@column`] — column-major batches with selection vectors for the
//!   vectorized execution path;
//! * [`encode`] — binary codec primitives (varints, delta-coded id
//!   sequences, interned string tables, value/type codecs) shared by the
//!   provenance snapshot codec and the on-disk segment format;
//! * [`json`] — a minimal JSON reader/writer for examples and golden data;
//! * [`fmt`] — a table renderer used by the runnable examples.

#![warn(missing_docs)]

pub mod column;
pub mod encode;
pub mod fmt;
pub mod json;
pub mod label;
pub mod path;
pub mod types;
pub mod value;

pub use column::{Column, ColumnBatch, ColumnData, SelectionVector};
pub use label::Label;
pub use path::{Path, PathParseError, Step};
pub use types::{DataType, Field};
pub use value::{DataItem, Value};
