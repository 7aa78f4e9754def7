//! The four pinned workloads: data, program, scenario query, serve load.
//!
//! Sizes and open-loop rates were calibrated once on the
//! seed commit (2 cores) and are literals from then on: a later change must
//! be measured against the same offered work, never against a rate derived
//! from its own speed.

use pebble_dataflow::{ExecConfig, Expr, NamedExpr, Program, ProgramBuilder, SelectExpr};
use pebble_nested::DataItem;
use pebble_workloads::{dblp, scenarios, twitter, DblpConfig, TwitterConfig};

use crate::util::{Rng, Stream};

/// Seed of the data generators, the same for every `--seed`. Group sizes
/// and join fan-out move result and segment sizes by 2–6 % between generator
/// seeds — more than the machine's own noise — so the content is pinned and
/// `--seed` decides the order of the source items (and with it
/// partitions, identifiers and run lengths), the traced rows and the
/// request mix.
const GENERATOR_SEED: u64 = 42;

/// Which generator and program a workload uses.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    TwChain,
    TwNestAgg,
    DblpJoinAgg,
}

/// How often a round repeats steps B–D (plain run, captured run, persist)
/// between one read and one query: the engine's runs are the noisiest steps
/// of the journey and need the most samples.
pub const PIPELINE_REPS: usize = 2;
/// Single-item traces per round in step F (result rows, seeded, without
/// replacement; every row once when there are fewer).
pub const TRACE_SAMPLES: usize = 1000;

/// One benchmark workload.
pub struct Spec {
    pub name: &'static str,
    shape: Shape,
    /// Generator size at full scale (tweets or DBLP records); `--quick`
    /// divides it by ten.
    pub size: usize,
    /// The scenario's structural provenance question, in the textual
    /// pattern syntax (parsed for step F, sent verbatim as `PATTERN`).
    pub pattern: &'static str,
    /// Open-loop offered rate in requests per second: a third of the
    /// closed-loop `served_qps` of the seed commit. At half of it the two
    /// generator lanes fall behind their schedule whenever the box slows.
    pub open_rate: f64,
    /// `ExecConfig::mem_budget` in bytes; 0 = in memory.
    pub mem_budget: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "tw_chain",
        shape: Shape::TwChain,
        size: 60_000,
        pattern: "who ~ \"User 3\", text ~ \"Hello\"",
        open_rate: 2500.0,
        mem_budget: 0,
    },
    Spec {
        name: "tw_nest_agg",
        shape: Shape::TwNestAgg,
        size: 20_000,
        pattern: "//id_str ~ \"u3\", tweets / text ~ \"Hello World\"",
        open_rate: 900.0,
        mem_budget: 0,
    },
    Spec {
        name: "dblp_join_agg",
        shape: Shape::DblpJoinAgg,
        size: 30_000,
        pattern: "name ~ \"Author\", works / title ~ \"Paper\"",
        open_rate: 1100.0,
        mem_budget: 0,
    },
    Spec {
        name: "dblp_join_agg_spill",
        shape: Shape::DblpJoinAgg,
        size: 30_000,
        pattern: "name ~ \"Author\", works / title ~ \"Paper\"",
        open_rate: 1100.0,
        mem_budget: 15 << 20,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Generator size for this run.
    pub fn scaled_size(&self, quick: bool) -> usize {
        if quick {
            self.size / 10
        } else {
            self.size
        }
    }

    /// The engine configuration, always spelled out (2 partitions, 2
    /// workers; the spill workload adds its budget).
    pub fn config(&self) -> ExecConfig {
        ExecConfig::with_partitions(2)
            .workers(2)
            .mem_budget(self.mem_budget)
    }

    /// The same configuration without a memory budget.
    pub fn config_in_memory(&self) -> ExecConfig {
        ExecConfig::with_partitions(2).workers(2).mem_budget(0)
    }

    /// Names of the source datasets the program reads.
    pub fn source_names(&self) -> &'static [&'static str] {
        match self.shape {
            Shape::TwChain | Shape::TwNestAgg => &["tweets"],
            Shape::DblpJoinAgg => &["inproceedings", "persons"],
        }
    }

    /// Generates the source datasets the program reads at generator size
    /// `n`, in generator order.
    pub fn generate(&self, n: usize) -> Vec<(&'static str, Vec<DataItem>)> {
        match self.shape {
            Shape::TwChain | Shape::TwNestAgg => {
                let cfg = TwitterConfig {
                    seed: GENERATOR_SEED,
                    ..TwitterConfig::sized(n)
                };
                vec![("tweets", twitter::generate(&cfg))]
            }
            Shape::DblpJoinAgg => {
                let cfg = DblpConfig {
                    seed: GENERATOR_SEED,
                    ..DblpConfig::sized(n)
                };
                let data = dblp::generate(&cfg);
                vec![
                    ("inproceedings", data.inproceedings),
                    ("persons", data.persons),
                ]
            }
        }
    }

    /// Puts every source into the order `seed` gives it.
    pub fn shuffle(sources: &mut [(&'static str, Vec<DataItem>)], seed: u64) {
        let mut rng = Rng::new(seed, Stream::SourceOrder);
        for (_, items) in sources {
            rng.shuffle(items);
        }
    }

    pub fn program(&self) -> Program {
        match self.shape {
            Shape::TwChain => tw_chain(),
            Shape::TwNestAgg => scenarios::t3().program,
            Shape::DblpJoinAgg => scenarios::d3().program,
        }
    }
}

/// Eight fused filter/select stages over the wide tweets (colbench's
/// `T-chain`): no flatten, join, union or aggregate, so only the per-row
/// kernels and the capture id-runs work. The selective filter comes last so
/// that every stage before it sees most of the input.
fn tw_chain() -> Program {
    let mut b = ProgramBuilder::new();
    let r = b.read("tweets");
    let f1 = b.filter(r, Expr::col("text").contains(Expr::lit("e")));
    let s1 = b.select(
        f1,
        vec![
            NamedExpr::path("text"),
            NamedExpr::aliased("uid", "user.id_str"),
            NamedExpr::aliased("uname", "user.name"),
            NamedExpr::path("retweet_count"),
            NamedExpr::path("lang"),
        ],
    );
    let f2 = b.filter(s1, Expr::col("retweet_count").ge(Expr::lit(0i64)));
    let s2 = b.select(
        f2,
        vec![
            NamedExpr::new(
                "user",
                SelectExpr::strct([
                    ("id_str", SelectExpr::path("uid")),
                    ("name", SelectExpr::path("uname")),
                ]),
            ),
            NamedExpr::path("text"),
            NamedExpr::path("retweet_count"),
        ],
    );
    let f3 = b.filter(s2, Expr::col("user.name").contains(Expr::lit("User")));
    let s3 = b.select(
        f3,
        vec![
            NamedExpr::aliased("who", "user.name"),
            NamedExpr::path("text"),
            NamedExpr::path("retweet_count"),
        ],
    );
    let f4 = b.filter(s3, Expr::col("text").contains(Expr::lit("Hello World")));
    let s4 = b.select(f4, vec![NamedExpr::path("who"), NamedExpr::path("text")]);
    b.build(s4)
}
