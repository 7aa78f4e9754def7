//! The executor configuration matrix, as data.
//!
//! The executor specifies rows, identifiers, association tables and
//! backtraces byte-identical at every worker count, morsel size and memory
//! budget, and identical modulo identifiers across partition counts
//! ([`crate::exec`]). The test suites and the differential oracle hold it
//! to that by running one program at several configurations; this module is
//! the one list of those configurations, so a shape is added or dropped in
//! one place.
//!
//! A [`Shape`] is everything in an [`ExecConfig`] but the partition count,
//! which the caller supplies: runs are bit-comparable only at equal
//! partition counts. [`ExecMatrix::referee`] is the shape every other one
//! is compared against.

use std::fmt;

use crate::exec::ExecConfig;

/// The scheduler and memory settings of an [`ExecConfig`], without its
/// partition count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Pool worker threads (`0` = the machine default).
    pub workers: usize,
    /// Rows per morsel (`0` = automatic, `usize::MAX` = one morsel per
    /// partition).
    pub morsel_rows: usize,
    /// Memory budget in bytes (`0` = unlimited).
    pub mem_budget: usize,
}

impl Shape {
    const fn new(workers: usize, morsel_rows: usize, mem_budget: usize) -> Shape {
        Shape {
            workers,
            morsel_rows,
            mem_budget,
        }
    }

    /// This shape at `partitions` logical partitions.
    pub fn at(self, partitions: usize) -> ExecConfig {
        ExecConfig::with_partitions(partitions)
            .workers(self.workers)
            .morsel_rows(self.morsel_rows)
            .mem_budget(self.mem_budget)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = |v: usize| match v {
            0 => "auto".to_string(),
            usize::MAX => "all".to_string(),
            v => v.to_string(),
        };
        write!(f, "w={} m={}", n(self.workers), n(self.morsel_rows))?;
        if self.mem_budget > 0 {
            write!(f, " budget={}", self.mem_budget)?;
        }
        Ok(())
    }
}

/// The named projections of the matrix.
pub struct ExecMatrix;

impl ExecMatrix {
    /// Worker counts of the scheduler axis: inline, the smallest pool, and
    /// a prime count, so morsels rarely divide evenly among workers.
    pub const WORKERS: [usize; 3] = [1, 2, 7];

    /// The referee shape at `partitions`: the scheduler degenerated to one
    /// morsel per partition, run inline in task order, so every stitching
    /// offset is zero and identifiers are final as the kernels produce
    /// them.
    pub fn referee(partitions: usize) -> ExecConfig {
        Shape::new(1, usize::MAX, 0).at(partitions)
    }

    /// The scheduler axis, in memory: [`ExecMatrix::WORKERS`] × morsel
    /// sizes {automatic (small stages then run inline), 1 row, 64 rows,
    /// whole partition}.
    pub fn scheduler() -> impl Iterator<Item = Shape> {
        Self::WORKERS.into_iter().flat_map(|w| {
            [0, 1, 64, usize::MAX]
                .into_iter()
                .map(move |m| Shape::new(w, m, 0))
        })
    }

    /// The partition axis: one, two, and a prime seven.
    pub fn partitions() -> [usize; 3] {
        [1, 2, 7]
    }

    /// The budget axis: unlimited; 4096 bytes with 64-row morsels, where a
    /// run spills part of its state and capture tables can drain with a
    /// resident tail left behind; and 1 byte with 1-row morsels, where
    /// every spillable structure spills on every morsel.
    pub fn budget() -> [Shape; 3] {
        [
            Shape::new(0, 0, 0),
            Shape::new(0, 64, 4096),
            Shape::new(0, 1, 1),
        ]
    }

    /// Every scheduler and budget shape at every partition count.
    pub fn all() -> Vec<ExecConfig> {
        let shapes: Vec<Shape> = Self::scheduler().chain(Self::budget()).collect();
        Self::partitions()
            .into_iter()
            .flat_map(|p| shapes.iter().map(move |s| s.at(p)))
            .collect()
    }

    /// The shapes a suite pinned to one partition count runs at: the
    /// referee, a wide pool over 16-row morsels, and the 4096-byte budget.
    pub fn suite(partitions: usize) -> [ExecConfig; 3] {
        [
            Self::referee(partitions),
            Shape::new(8, 16, 0).at(partitions),
            Self::budget()[1].at(partitions),
        ]
    }
}
