//! Unary association tables as identifier runs.
//!
//! A `map`/`select`/`filter` association table (Tab. 6 row 1) pairs every
//! output identifier with one input identifier. The executor numbers both
//! sides consecutively per partition, so such a table is a few stretches in
//! which both ids step by one — a whole partition of a select is one. A
//! [`UnaryRuns`] stores those stretches, not the pairs: the chain kernels
//! produce them, the scheduler re-bases and concatenates them, the capture
//! sink, its spill and the segment store keep them, and the backtracing
//! probe searches them, each at a cost in runs rather than entries. The
//! table still reads as its `⟨id^i, id^o⟩` pairs ([`UnaryRuns::pairs`]),
//! and its size in the Tab. 6 model is its entry count ([`UnaryRuns::len`]).

use std::fmt;
use std::sync::OnceLock;

use pebble_nested::encode::{get_signed, get_varint, put_signed, put_varint, CodecError};

use crate::exec::ItemId;

/// One maximal run: the entries at table positions `start..end` (`start`
/// being the previous run's `end`) pair `in_first + k` with `out_first + k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Run {
    in_first: ItemId,
    out_first: ItemId,
    end: u64,
}

/// A unary association table held as maximal id runs, in table order.
///
/// A run is a maximal stretch of consecutive entries whose input and output
/// ids both step by +1 (wrapping, as the segment's run tokens do). Every way
/// of building a table coalesces, so the runs are canonical: two tables are
/// `==` exactly when their pair sequences are.
#[derive(Default)]
pub struct UnaryRuns {
    runs: Vec<Run>,
    /// The pairs, materialized by the first [`UnaryRuns::iter`] call.
    expanded: OnceLock<Box<[(ItemId, ItemId)]>>,
}

impl UnaryRuns {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// A table of the `len` pairs `⟨in_first + k, out_first + k⟩`.
    pub fn run(in_first: ItemId, out_first: ItemId, len: u64) -> Self {
        let mut t = Self::new();
        t.push_run(in_first, out_first, len);
        t
    }

    /// The table of `pairs`, in order.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (ItemId, ItemId)>) -> Self {
        let mut t = Self::new();
        for (i, o) in pairs {
            t.push(i, o);
        }
        t
    }

    /// Number of entries (pairs), not runs.
    pub fn len(&self) -> usize {
        self.runs.last().map_or(0, |r| r.end as usize)
    }

    /// True if the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of maximal runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Heap bytes the runs occupy: what holding the table costs, as
    /// opposed to its Tab. 6 size of `len()` id pairs.
    pub fn resident_bytes(&self) -> usize {
        self.runs.len() * std::mem::size_of::<Run>()
    }

    /// Appends the pair `⟨in_id, out_id⟩`.
    pub fn push(&mut self, in_id: ItemId, out_id: ItemId) {
        self.push_run(in_id, out_id, 1);
    }

    /// Appends the `len` pairs `⟨in_first + k, out_first + k⟩`, extending the
    /// last run when they continue it.
    pub fn push_run(&mut self, in_first: ItemId, out_first: ItemId, len: u64) {
        if len == 0 {
            return;
        }
        self.expanded.take();
        let n = self.runs.len();
        let start = n.checked_sub(2).map_or(0, |k| self.runs[k].end);
        if let Some(last) = self.runs.last_mut() {
            let last_len = last.end - start;
            if in_first == last.in_first.wrapping_add(last_len)
                && out_first == last.out_first.wrapping_add(last_len)
            {
                last.end += len;
                return;
            }
        }
        let end = self.len() as u64 + len;
        self.runs.push(Run {
            in_first,
            out_first,
            end,
        });
    }

    /// Appends every entry of `other`.
    pub fn append(&mut self, other: &UnaryRuns) {
        for (i, o, len) in other.runs() {
            self.push_run(i, o, len);
        }
    }

    /// Adds `d_in` to every input id and `d_out` to every output id — the
    /// executor's re-basing of morsel-local ids. Runs stay maximal.
    pub(crate) fn rebase(&mut self, d_in: u64, d_out: u64) {
        self.expanded.take();
        for r in &mut self.runs {
            r.in_first = r.in_first.wrapping_add(d_in);
            r.out_first = r.out_first.wrapping_add(d_out);
        }
    }

    /// The runs as `(in_first, out_first, len)`, in table order.
    pub fn runs(&self) -> impl Iterator<Item = (ItemId, ItemId, u64)> + '_ {
        let mut start = 0;
        self.runs.iter().map(move |r| {
            let len = r.end - start;
            start = r.end;
            (r.in_first, r.out_first, len)
        })
    }

    /// The `⟨id^i, id^o⟩` pairs, in table order, without materializing them.
    pub fn pairs(&self) -> impl Iterator<Item = (ItemId, ItemId)> + '_ {
        self.runs()
            .flat_map(|(i, o, len)| (0..len).map(move |k| (i.wrapping_add(k), o.wrapping_add(k))))
    }

    /// The pairs as a slice iterator, for code written against the Tab. 6
    /// pair model (`|&(i, o)|` closures). The first call materializes the
    /// pairs and keeps them until the table changes; the engine's own paths
    /// read [`UnaryRuns::runs`] and [`UnaryRuns::pairs`] instead.
    pub fn iter(&self) -> std::slice::Iter<'_, (ItemId, ItemId)> {
        self.expanded.get_or_init(|| self.pairs().collect()).iter()
    }

    /// The entry at table position `pos`.
    pub fn get(&self, pos: usize) -> Option<(ItemId, ItemId)> {
        let k = self.runs.partition_point(|r| r.end <= pos as u64);
        let r = self.runs.get(k)?;
        let start = k.checked_sub(1).map_or(0, |j| self.runs[j].end);
        let off = pos as u64 - start;
        Some((r.in_first.wrapping_add(off), r.out_first.wrapping_add(off)))
    }

    /// True when the output ids ascend in table order — strictly, or never
    /// decreasing when `strictly` is false. A run that wraps past
    /// `u64::MAX` does not ascend.
    pub fn out_ids_ascend(&self, strictly: bool) -> bool {
        let mut prev: Option<ItemId> = None;
        self.runs().all(|(_, first, len)| {
            let in_order = prev.is_none_or(|p| if strictly { p < first } else { p <= first });
            let last = first.checked_add(len - 1);
            prev = last;
            in_order && last.is_some()
        })
    }

    /// The input id paired with output id `out`, in a table whose output
    /// ids ascend strictly ([`UnaryRuns::out_ids_ascend`]): a binary search
    /// over the runs' first output ids.
    pub fn input_of_ascending(&self, out: ItemId) -> Option<ItemId> {
        let k = self.runs.partition_point(|r| r.out_first <= out);
        let r = self.runs.get(k.checked_sub(1)?)?;
        let start = k.checked_sub(2).map_or(0, |j| self.runs[j].end);
        let off = out - r.out_first;
        (off < r.end - start).then(|| r.in_first.wrapping_add(off))
    }

    /// Appends the table as run tokens: `count · (len · Δin · Δout)*`, each
    /// first id a zigzag delta from the previous run's last one. This is
    /// the body of a segment's unary `ASSOC` chunk and of a spilled capture
    /// chunk.
    pub fn put_tokens(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.runs.len() as u64);
        let (mut prev_in, mut prev_out) = (0u64, 0u64);
        for (first_in, first_out, len) in self.runs() {
            put_varint(buf, len);
            put_signed(buf, first_in.wrapping_sub(prev_in) as i64);
            put_signed(buf, first_out.wrapping_sub(prev_out) as i64);
            prev_in = first_in.wrapping_add(len - 1);
            prev_out = first_out.wrapping_add(len - 1);
        }
    }

    /// Decodes tokens written by [`UnaryRuns::put_tokens`] and appends their
    /// runs. A token is a handful of bytes however long its run, so run
    /// lengths are checked against `max_entries`, a bound on the whole
    /// table, before the table grows.
    pub fn get_tokens(&mut self, buf: &mut &[u8], max_entries: usize) -> Result<(), CodecError> {
        let tokens = get_varint(buf)?;
        let (mut prev_in, mut prev_out) = (0u64, 0u64);
        for _ in 0..tokens {
            let len = get_varint(buf)?;
            if len == 0 {
                return Err(CodecError("empty unary run token".into()));
            }
            if len > (max_entries as u64).saturating_sub(self.len() as u64) {
                return Err(CodecError("absurd unary run length".into()));
            }
            let first_in = prev_in.wrapping_add(get_signed(buf)? as u64);
            let first_out = prev_out.wrapping_add(get_signed(buf)? as u64);
            self.push_run(first_in, first_out, len);
            prev_in = first_in.wrapping_add(len - 1);
            prev_out = first_out.wrapping_add(len - 1);
        }
        Ok(())
    }
}

impl FromIterator<(ItemId, ItemId)> for UnaryRuns {
    fn from_iter<I: IntoIterator<Item = (ItemId, ItemId)>>(pairs: I) -> Self {
        Self::from_pairs(pairs)
    }
}

impl Clone for UnaryRuns {
    fn clone(&self) -> Self {
        UnaryRuns {
            runs: self.runs.clone(),
            expanded: OnceLock::new(),
        }
    }
}

impl PartialEq for UnaryRuns {
    fn eq(&self, other: &Self) -> bool {
        self.runs == other.runs
    }
}

impl Eq for UnaryRuns {}

impl fmt::Debug for UnaryRuns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.runs()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushes_coalesce_into_maximal_runs() {
        let mut t = UnaryRuns::new();
        t.push_run(10, 100, 3);
        t.push(13, 103);
        t.push_run(14, 104, 0);
        t.push(20, 104);
        t.push_run(21, 105, 2);
        assert_eq!(t.len(), 7);
        assert_eq!(t.run_count(), 2);
        assert_eq!(t.runs().collect::<Vec<_>>(), [(10, 100, 4), (20, 104, 3)]);
        let pairs: Vec<_> = t.pairs().collect();
        assert_eq!(t, UnaryRuns::from_pairs(pairs.iter().copied()));
        assert_eq!(t.iter().copied().collect::<Vec<_>>(), pairs);
        for (pos, &pair) in pairs.iter().enumerate() {
            assert_eq!(t.get(pos), Some(pair));
        }
        assert_eq!(t.get(pairs.len()), None);
        // Wrapping ids continue a run, as the segment's tokens read them.
        let wrap = UnaryRuns::from_pairs([(u64::MAX, 7), (0, 8)]);
        assert_eq!(wrap.run_count(), 1);
    }

    #[test]
    fn ascending_probe_searches_runs() {
        let t = UnaryRuns::from_pairs([(5, 10), (6, 11), (1, 20), (9, 30), (10, 31)]);
        assert!(t.out_ids_ascend(true));
        for (i, o) in t.pairs() {
            assert_eq!(t.input_of_ascending(o), Some(i));
        }
        for missing in [0, 9, 12, 19, 21, 29, 32, u64::MAX] {
            assert_eq!(t.input_of_ascending(missing), None, "{missing}");
        }
        assert!(!UnaryRuns::from_pairs([(1, 5), (2, 5)]).out_ids_ascend(true));
        assert!(UnaryRuns::from_pairs([(1, 5), (2, 5)]).out_ids_ascend(false));
        assert!(!UnaryRuns::from_pairs([(1, 6), (2, 5)]).out_ids_ascend(false));
        assert!(!UnaryRuns::run(0, u64::MAX, 2).out_ids_ascend(false));
    }

    #[test]
    fn tokens_round_trip_and_bound_lengths() {
        let t = UnaryRuns::from_pairs([(3, 9), (4, 10), (1, 2), (u64::MAX, 0)]);
        let mut buf = Vec::new();
        t.put_tokens(&mut buf);
        let mut back = UnaryRuns::new();
        back.get_tokens(&mut buf.as_slice(), t.len()).unwrap();
        assert_eq!(back, t);
        let err = UnaryRuns::new()
            .get_tokens(&mut buf.as_slice(), t.len() - 1)
            .unwrap_err();
        assert_eq!(err.0, "absurd unary run length");
    }
}
