//! Small, seeded contexts for the differential oracle's pipeline fuzzer.
//!
//! The oracle replays every generated pipeline on the optimized engine and
//! on the naive Tab. 5 reference interpreter; datasets therefore stay tiny
//! (tens of rows) so hundreds of pipelines execute in seconds, while
//! keeping the schema shapes the evaluation cares about: the nested
//! Twitter `user`/`entities` sub-trees and the flat-ish DBLP records with
//! `authors` bags and `crossref` links.

use pebble_dataflow::Context;

use crate::dblp::{self, DblpConfig};
use crate::twitter::{self, TwitterConfig};

/// Source names registered by [`fuzz_dblp_context`].
pub const DBLP_SOURCES: [&str; 3] = ["inproceedings", "proceedings", "persons"];

/// A small Twitter context: `tweets` rows of the full nested tweet shape,
/// but with a narrow `meta_*` tail so generated items stay readable in
/// minimized repros.
pub fn fuzz_twitter_context(seed: u64, tweets: usize) -> Context {
    let cfg = TwitterConfig {
        tweets,
        seed,
        users: (tweets / 3).max(4),
        extra_width: 2,
    };
    let mut ctx = Context::new();
    ctx.register("tweets", twitter::generate(&cfg));
    ctx
}

/// A small DBLP context registering the three relations the fuzzer joins
/// across: `inproceedings`, `proceedings` and `persons`.
pub fn fuzz_dblp_context(seed: u64, records: usize) -> Context {
    let cfg = DblpConfig {
        records,
        seed,
        inproc_per_proc: 6,
        authors: (records / 4).max(8),
    };
    let data = dblp::generate(&cfg);
    let mut ctx = Context::new();
    ctx.register("inproceedings", data.inproceedings);
    ctx.register("proceedings", data.proceedings);
    ctx.register("persons", data.persons);
    ctx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_contexts_are_seeded_and_small() {
        let a = fuzz_twitter_context(7, 20);
        let b = fuzz_twitter_context(7, 20);
        assert_eq!(a.source("tweets"), b.source("tweets"));
        assert_eq!(a.source("tweets").unwrap().len(), 20);

        let d = fuzz_dblp_context(7, 60);
        for s in DBLP_SOURCES {
            assert!(!d.source(s).unwrap().is_empty(), "{s} empty");
        }
    }
}
