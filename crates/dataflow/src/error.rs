//! Engine error type.

use std::fmt;

use pebble_nested::{DataType, Path};

/// Errors raised while validating or executing a program.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A `read` referenced a source name not registered in the context.
    UnknownSource(String),
    /// An operator referenced a non-existent upstream operator id.
    UnknownOperator(u32),
    /// The program DAG is malformed (wrong arity, cycle, multiple sinks…).
    InvalidPlan(String),
    /// A path did not resolve in the operator's input schema.
    UnresolvedPath {
        /// Operator where resolution failed.
        op: u32,
        /// The offending path.
        path: Path,
        /// The schema it was resolved against.
        schema: DataType,
    },
    /// Operator preconditions on types failed (e.g. `union` arms differ,
    /// `flatten` target is not a collection, aggregation input not numeric).
    TypeError {
        /// Operator where the violation occurred.
        op: u32,
        /// Description of the violated precondition.
        message: String,
    },
    /// Evaluating one row failed (a UDF panicked or an injected fault
    /// fired). `item` is the identifier of the row the operator was
    /// consuming when the failure occurred.
    RowError {
        /// Operator that was evaluating the row.
        op: u32,
        /// Identifier of the input row being evaluated.
        item: u64,
        /// Description of the failure (panic message for UDF panics).
        message: String,
    },
    /// Building or merging provenance associations failed during capture.
    CaptureError {
        /// Operator whose associations could not be captured.
        op: u32,
        /// Description of the failure.
        message: String,
    },
    /// Writing or re-reading spilled operator state failed (disk full,
    /// corrupt spill block, injected spill fault). The message never
    /// contains filesystem paths: spill directories are per-run, and the
    /// oracle compares failing runs by their `Display` rendering.
    SpillError {
        /// Operator whose state was being spilled or reloaded.
        op: u32,
        /// Description of the failure.
        message: String,
    },
    /// Backtracing failed (capture tables inconsistent with the program,
    /// or an operator type the tracer does not know).
    BacktraceError(String),
    /// A pool/scoped worker panicked outside any row-level context; the
    /// payload is the stringified panic message.
    WorkerPanic {
        /// Panic payload, downcast to a string when possible.
        payload: String,
    },
    /// An internal engine invariant was violated. Reaching this is a bug
    /// in the engine, not in the user's program — it is surfaced as an
    /// error (rather than a panic) so a bad run cannot take the host down.
    Internal(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownSource(name) => write!(f, "unknown source `{name}`"),
            EngineError::UnknownOperator(id) => write!(f, "unknown operator #{id}"),
            EngineError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            EngineError::UnresolvedPath { op, path, schema } => {
                write!(
                    f,
                    "operator #{op}: path `{path}` not found in schema {schema}"
                )
            }
            EngineError::TypeError { op, message } => {
                write!(f, "operator #{op}: {message}")
            }
            EngineError::RowError { op, item, message } => {
                write!(f, "operator #{op}: row {item:#x}: {message}")
            }
            EngineError::CaptureError { op, message } => {
                write!(f, "capture failed at operator #{op}: {message}")
            }
            EngineError::SpillError { op, message } => {
                write!(f, "spill failed at operator #{op}: {message}")
            }
            EngineError::BacktraceError(msg) => write!(f, "backtrace failed: {msg}"),
            EngineError::WorkerPanic { payload } => write!(f, "worker panicked: {payload}"),
            EngineError::Internal(msg) => write!(f, "internal engine invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl EngineError {
    /// The plan rejection for an operator whose `needed` output partitions
    /// exceed the `max` an item identifier's 16-bit partition field can
    /// address.
    pub(crate) fn partition_overflow(op: u32, op_type: &str, needed: usize, max: usize) -> Self {
        EngineError::InvalidPlan(format!(
            "operator #{op} ({op_type}) needs {needed} output partitions, item ids address at most {max}"
        ))
    }

    /// The operator a runtime error is attributed to, when it has one.
    /// The scheduler uses this to pick the deterministic winner when
    /// several morsels fail concurrently.
    pub fn op(&self) -> Option<u32> {
        match self {
            EngineError::UnknownOperator(op)
            | EngineError::UnresolvedPath { op, .. }
            | EngineError::TypeError { op, .. }
            | EngineError::RowError { op, .. }
            | EngineError::CaptureError { op, .. }
            | EngineError::SpillError { op, .. } => Some(*op),
            _ => None,
        }
    }
}

/// Renders a `catch_unwind` payload as a message: `&str` and `String`
/// payloads (what `panic!` produces) pass through, anything else gets a
/// placeholder. Used wherever a contained panic becomes a typed error.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Convenience result alias for engine operations.
pub type Result<T, E = EngineError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_nested::{DataType, Path};

    /// Table-driven check of every variant's `Display` rendering — the
    /// oracle compares failing runs by this string, so it is a contract.
    #[test]
    fn display_all_variants() {
        let cases: Vec<(EngineError, &str)> = vec![
            (
                EngineError::UnknownSource("tweets".into()),
                "unknown source `tweets`",
            ),
            (EngineError::UnknownOperator(7), "unknown operator #7"),
            (
                EngineError::InvalidPlan("two sinks".into()),
                "invalid plan: two sinks",
            ),
            (
                EngineError::partition_overflow(2, "union", 80_000, 65_536),
                "invalid plan: operator #2 (union) needs 80000 output partitions, \
                 item ids address at most 65536",
            ),
            (
                EngineError::UnresolvedPath {
                    op: 3,
                    path: Path::attr("user"),
                    schema: DataType::Null,
                },
                "operator #3: path `user` not found in schema Null",
            ),
            (
                EngineError::TypeError {
                    op: 2,
                    message: "flatten target is not a collection".into(),
                },
                "operator #2: flatten target is not a collection",
            ),
            (
                EngineError::RowError {
                    op: 4,
                    item: 0x0004_0001_0000_0002,
                    message: "udf `boom` panicked: division by zero".into(),
                },
                "operator #4: row 0x4000100000002: udf `boom` panicked: division by zero",
            ),
            (
                EngineError::CaptureError {
                    op: 5,
                    message: "association variant mismatch".into(),
                },
                "capture failed at operator #5: association variant mismatch",
            ),
            (
                EngineError::SpillError {
                    op: 6,
                    message: "injected spill-write failure".into(),
                },
                "spill failed at operator #6: injected spill-write failure",
            ),
            (
                EngineError::BacktraceError("operator #9 not captured".into()),
                "backtrace failed: operator #9 not captured",
            ),
            (
                EngineError::WorkerPanic {
                    payload: "index out of bounds".into(),
                },
                "worker panicked: index out of bounds",
            ),
            (
                EngineError::Internal("sink unit produced no output".into()),
                "internal engine invariant violated: sink unit produced no output",
            ),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected, "variant {err:?}");
        }
    }

    #[test]
    fn panic_message_downcasts() {
        let p = std::panic::catch_unwind(|| panic!("plain str")).unwrap_err();
        assert_eq!(panic_message(&*p), "plain str");
        let p = std::panic::catch_unwind(|| panic!("formatted {}", 42)).unwrap_err();
        assert_eq!(panic_message(&*p), "formatted 42");
        let p = std::panic::catch_unwind(|| std::panic::panic_any(17u8)).unwrap_err();
        assert_eq!(panic_message(&*p), "<non-string panic payload>");
    }

    #[test]
    fn error_op_attribution() {
        assert_eq!(
            EngineError::RowError {
                op: 9,
                item: 1,
                message: String::new()
            }
            .op(),
            Some(9)
        );
        assert_eq!(
            EngineError::WorkerPanic {
                payload: String::new()
            }
            .op(),
            None
        );
        assert_eq!(EngineError::UnknownSource(String::new()).op(), None);
    }
}
