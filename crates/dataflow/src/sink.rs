//! Provenance recording interface.
//!
//! The executor is generic over a [`ProvenanceSink`]; a monomorphized
//! [`NoSink`] compiles recording away entirely, so a plain run measures the
//! engine alone (the "Spark" bars of Figs. 6/7), while Pebble's capture
//! (in `pebble-core`) implements this trait to record the operator
//! provenance structures of Tab. 6.

use crate::exec::ItemId;
use crate::op::{OpId, OpKind};
use crate::runs::UnaryRuns;

/// Receives the identifier associations produced during execution.
///
/// Methods are called once per partition batch, from worker threads;
/// implementations must be `Sync`. When [`ProvenanceSink::ENABLED`] is
/// `false` the executor skips building the association buffers altogether.
pub trait ProvenanceSink: Sync {
    /// Whether the executor should collect associations at all.
    const ENABLED: bool;

    /// Identifiers assigned to the items of a `read` operator, in dataset
    /// order.
    fn read_batch(&self, _op: OpId, _ids: &[ItemId]) {}

    /// `⟨id^i, id^o⟩` pairs for `map`, `select`, `filter` (Tab. 6 row 1),
    /// as the id runs the executor produces: one call per partition and
    /// operator, runs coalesced across the partition's morsels.
    fn unary_runs(&self, _op: OpId, _runs: &UnaryRuns) {}

    /// `⟨id_1^i, id_2^i, id^o⟩` triples for `join` and `union` (Tab. 6
    /// row 2); for `union` the non-originating side is `None`.
    fn binary_batch(&self, _op: OpId, _assoc: &[(Option<ItemId>, Option<ItemId>, ItemId)]) {}

    /// `⟨id^i, pos, id^o⟩` triples for `flatten` (Tab. 6 row 3); `pos` is
    /// the 1-based position of the unnested element.
    fn flatten_batch(&self, _op: OpId, _assoc: &[(ItemId, u32, ItemId)]) {}

    /// `⟨ids^i, id^o⟩` for grouping/aggregation (Tab. 6 row 4); `ids` are
    /// the group's input identifiers in nesting order.
    fn agg_batch(&self, _op: OpId, _assoc: Vec<(Vec<ItemId>, ItemId)>) {}
}

/// Sink that records nothing; recording code is compiled out.
pub struct NoSink;

impl ProvenanceSink for NoSink {
    const ENABLED: bool = false;
}

/// Forwards every association batch to two sinks.
///
/// Used to stream provenance to a secondary consumer (e.g. an on-disk
/// segment writer) while the primary in-memory capture keeps recording:
/// both observe the identical batch sequence, in the same order, on the
/// same threads.
pub struct Tee<'a, A, B>(pub &'a A, pub &'a B);

impl<A: ProvenanceSink, B: ProvenanceSink> ProvenanceSink for Tee<'_, A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn read_batch(&self, op: OpId, ids: &[ItemId]) {
        self.0.read_batch(op, ids);
        self.1.read_batch(op, ids);
    }

    fn unary_runs(&self, op: OpId, runs: &UnaryRuns) {
        self.0.unary_runs(op, runs);
        self.1.unary_runs(op, runs);
    }

    fn binary_batch(&self, op: OpId, assoc: &[(Option<ItemId>, Option<ItemId>, ItemId)]) {
        self.0.binary_batch(op, assoc);
        self.1.binary_batch(op, assoc);
    }

    fn flatten_batch(&self, op: OpId, assoc: &[(ItemId, u32, ItemId)]) {
        self.0.flatten_batch(op, assoc);
        self.1.flatten_batch(op, assoc);
    }

    fn agg_batch(&self, op: OpId, assoc: Vec<(Vec<ItemId>, ItemId)>) {
        self.0.agg_batch(op, assoc.clone());
        self.1.agg_batch(op, assoc);
    }
}

/// Estimated size in bytes of the association entries an operator records,
/// derived from its Tab. 6 association shape and the run's row counts (one
/// entry per output row; aggregation entries additionally carry the group's
/// input identifiers, whose total count is the operator's input rows).
///
/// This is the id-payload estimate used by the run report's per-operator
/// `assoc_bytes` column; capture runs report exact totals separately in the
/// report's `provenance` section.
pub fn estimated_assoc_bytes(kind: &OpKind, rows_in: u64, rows_out: u64) -> u64 {
    const ID: u64 = std::mem::size_of::<ItemId>() as u64;
    match kind {
        // ⟨id^o⟩ per read row.
        OpKind::Read { .. } => rows_out * ID,
        // ⟨id^i, id^o⟩ per surviving row.
        OpKind::Filter { .. } | OpKind::Select { .. } | OpKind::Map { .. } => rows_out * 2 * ID,
        // ⟨id^i, pos, id^o⟩ — a 4-byte position between two ids.
        OpKind::Flatten { .. } => rows_out * (2 * ID + 4),
        // ⟨id_1^i, id_2^i, id^o⟩ (union's absent side still occupies the slot).
        OpKind::Join { .. } | OpKind::Union => rows_out * 3 * ID,
        // ⟨ids^i, id^o⟩ per group: every input id appears in exactly one
        // group, plus one output id per group.
        OpKind::GroupAggregate { .. } => (rows_in + rows_out) * ID,
    }
}
