//! Deterministic fault injection for testing the engine's containment.
//!
//! A test arms one [`FaultPlan`] process-wide; every executor kernel calls
//! `check` at the top of its row loop and fails (typed error or panic,
//! by [`FaultKind`]) when it is about to evaluate a matching row. This is
//! how the panic-injection harness exercises the catch_unwind boundary of
//! the scheduler's inline and pooled dispatch with the *same* failure, so
//! the oracle can assert every shape returns byte-identical errors.
//!
//! ### Matching and determinism
//!
//! A plan matches rows of operator `op` whose identifier has sequence
//! number `seq` (the low 32 bits of an [`ItemId`]). Sequence numbers
//! restart per partition, so several rows can match; every scheduler shape
//! resolves the tie identically — the lowest partition in task order wins —
//! which is exactly the determinism contract the oracle verifies.
//!
//! Faults must target *unit heads* (the first operator of a fused chain,
//! or any non-fusable operator): later chain stages see morsel-local
//! identifiers before stitching, so a mid-chain match would fire on
//! different rows at different morsel sizes. `FaultKind::Panic` messages
//! deliberately omit the row identifier for the same reason — the panic
//! escapes to the task boundary where per-row attribution is gone.
//!
//! The hook is compiled in unconditionally (it is two relaxed atomic loads
//! when disarmed, invisible next to per-row evaluation work) so the
//! integration harness can test release builds.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{EngineError, Result};
use crate::exec::ItemId;
use crate::op::OpId;

/// What an armed fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Return a typed [`EngineError::RowError`] from the kernel.
    Error,
    /// Panic, exercising the `catch_unwind` boundary (surfaces as
    /// [`EngineError::WorkerPanic`]).
    Panic,
}

/// An armed fault: fail when operator `op` evaluates a row whose
/// identifier carries sequence number `seq`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Target operator (must be a unit head — see the module docs).
    pub op: OpId,
    /// Row sequence number (low 32 bits of the row's [`ItemId`]).
    pub seq: u32,
    /// Fail as a typed error or as a panic.
    pub kind: FaultKind,
}

/// Packed armed state: `0` = disarmed, else
/// `1 << 63 | kind << 62 | op << 32 | seq`. A single word keeps the
/// disarmed fast path to one relaxed load.
static PLAN: AtomicU64 = AtomicU64::new(0);

const ARMED_BIT: u64 = 1 << 63;
const PANIC_BIT: u64 = 1 << 62;

/// Arms `plan` process-wide. Tests using this must not run concurrently
/// with other engine executions (use a dedicated integration-test binary).
pub fn arm(plan: FaultPlan) {
    let kind = if plan.kind == FaultKind::Panic {
        PANIC_BIT
    } else {
        0
    };
    PLAN.store(
        ARMED_BIT | kind | ((plan.op as u64) << 32) | plan.seq as u64,
        Ordering::SeqCst,
    );
}

/// Armed spill fault: `0` = disarmed, else `1 << 63 | op`. Fires whenever
/// the engine is about to write spilled state for the target operator.
static SPILL_PLAN: AtomicU64 = AtomicU64::new(0);

/// Arms a spill-write fault for `op` process-wide: every attempt to write
/// spilled state (operator output blocks, grace-join buckets, capture
/// association chunks) for that operator fails with a deterministic
/// [`EngineError::SpillError`]. The error message carries no filesystem
/// paths, so failing runs stay `Display`-comparable across configurations.
pub fn arm_spill(op: OpId) {
    SPILL_PLAN.store(ARMED_BIT | op as u64, Ordering::SeqCst);
}

/// Disarms any armed fault (row-level and spill).
pub fn disarm() {
    PLAN.store(0, Ordering::SeqCst);
    SPILL_PLAN.store(0, Ordering::SeqCst);
}

/// Spill hook: fails iff a spill fault is armed for `op`. Public because
/// the capture layer (a downstream crate) calls it before writing
/// association spill chunks.
#[inline]
pub fn check_spill(op: OpId) -> Result<()> {
    let packed = SPILL_PLAN.load(Ordering::Relaxed);
    if packed == 0 {
        return Ok(());
    }
    check_spill_armed(packed, op)
}

#[cold]
fn check_spill_armed(packed: u64, op: OpId) -> Result<()> {
    if (packed & !ARMED_BIT) as u32 != op {
        return Ok(());
    }
    Err(EngineError::SpillError {
        op,
        message: "injected spill-write failure".into(),
    })
}

/// Kernel hook: fails iff an armed plan matches `(op, row)`.
#[inline]
pub(crate) fn check(op: OpId, row: ItemId) -> Result<()> {
    let packed = PLAN.load(Ordering::Relaxed);
    if packed == 0 {
        return Ok(());
    }
    check_armed(packed, op, row)
}

#[cold]
fn check_armed(packed: u64, op: OpId, row: ItemId) -> Result<()> {
    let target_op = ((packed >> 32) & 0x3FFF_FFFF) as u32;
    let target_seq = packed as u32;
    if op != target_op || (row & 0xFFFF_FFFF) as u32 != target_seq {
        return Ok(());
    }
    if packed & PANIC_BIT != 0 {
        // No row identifier in the message: any matching partition may
        // reach the panic first, but the payload must not depend on which.
        panic!("injected fault: operator #{op} poisoned at sequence {target_seq}");
    }
    Err(EngineError::RowError {
        op,
        item: row,
        message: format!("injected fault at sequence {target_seq}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_is_silent() {
        disarm();
        assert!(check(3, 0x0003_0000_0000_0005).is_ok());
    }

    #[test]
    fn armed_error_matches_op_and_seq() {
        arm(FaultPlan {
            op: 3,
            seq: 5,
            kind: FaultKind::Error,
        });
        // Wrong op and wrong seq pass through.
        assert!(check(2, 0x0002_0000_0000_0005).is_ok());
        assert!(check(3, 0x0003_0000_0000_0004).is_ok());
        // Match fails with a row error carrying op + item id.
        let err = check(3, 0x0003_0001_0000_0005).unwrap_err();
        assert_eq!(
            err,
            EngineError::RowError {
                op: 3,
                item: 0x0003_0001_0000_0005,
                message: "injected fault at sequence 5".into(),
            }
        );
        disarm();
    }
}
