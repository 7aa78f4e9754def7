//! The evaluation scenarios T1–T5 (Twitter) and D1–D5 (DBLP) of Tab. 7,
//! each pairing a Spark-style program with the structural provenance query
//! that the evaluation backtraces.

use std::sync::Arc;

use pebble_core::{PatternNode, TreePattern};
use pebble_dataflow::{
    AggFunc, AggSpec, Context, Expr, GroupKey, MapUdf, NamedExpr, Program, ProgramBuilder,
    SelectExpr,
};
use pebble_nested::{DataItem, Path, Value};

use crate::dblp::{self, DblpConfig};
use crate::twitter::{self, TwitterConfig};

/// A benchmark scenario: program + structural provenance question.
pub struct Scenario {
    /// Scenario id (`T1` … `D5`).
    pub name: &'static str,
    /// Informal description (Tab. 7).
    pub description: &'static str,
    /// The data processing program.
    pub program: Program,
    /// The structural query evaluated over the program result.
    pub query: TreePattern,
}

/// Builds a context holding the Twitter source for the T-scenarios.
pub fn twitter_context(tweets: usize) -> Context {
    let mut ctx = Context::new();
    ctx.register("tweets", twitter::generate(&TwitterConfig::sized(tweets)));
    ctx
}

/// Builds a context holding the DBLP sources for the D-scenarios.
pub fn dblp_context(records: usize) -> Context {
    let mut ctx = Context::new();
    dblp::generate(&DblpConfig::sized(records)).register(&mut ctx);
    ctx
}

/// All five Twitter scenarios.
pub fn twitter_scenarios() -> Vec<Scenario> {
    vec![t1(), t2(), t3(), t4(), t5()]
}

/// All five DBLP scenarios.
pub fn dblp_scenarios() -> Vec<Scenario> {
    vec![d1(), d2(), d3(), d4(), d5()]
}

/// T1: filter tweets containing "good", flatten and group by the mentioned
/// users to collect a bag of complex tweet objects.
pub fn t1() -> Scenario {
    let mut b = ProgramBuilder::new();
    let read = b.read("tweets");
    let good = b.filter(read, Expr::col("text").contains(Expr::lit("good")));
    let flat = b.flatten(good, "entities.user_mentions", "m_user");
    let shaped = b.select(
        flat,
        vec![
            NamedExpr::new(
                "m_user",
                SelectExpr::strct([
                    ("id_str", SelectExpr::path("m_user.id_str")),
                    ("name", SelectExpr::path("m_user.name")),
                ]),
            ),
            NamedExpr::new(
                "tweet",
                SelectExpr::strct([
                    ("text", SelectExpr::path("text")),
                    ("author", SelectExpr::path("user.id_str")),
                    ("retweets", SelectExpr::path("retweet_count")),
                ]),
            ),
        ],
    );
    let agg = b.group_aggregate(
        shaped,
        vec![GroupKey::new("m_user")],
        vec![AggSpec::new(AggFunc::CollectList, "tweet", "tweets")],
    );
    Scenario {
        name: "T1",
        description: "good-tweets grouped by mentioned user with complex tweet objects",
        program: b.build(agg),
        query: TreePattern::root()
            .node(PatternNode::descendant("id_str").eq(twitter::user_id(1)))
            .node(PatternNode::attr("tweets").child(PatternNode::attr("text").contains("good"))),
    }
}

/// T2: flattens the nested lists hashtags, media, and user mentions.
pub fn t2() -> Scenario {
    let mut b = ProgramBuilder::new();
    let read = b.read("tweets");
    let f1 = b.flatten(read, "entities.hashtags", "hashtag");
    let f2 = b.flatten(f1, "entities.media", "medium");
    let f3 = b.flatten(f2, "entities.user_mentions", "m_user");
    let sel = b.select(
        f3,
        vec![
            NamedExpr::path("id_str"),
            NamedExpr::aliased("tag", "hashtag.text"),
            NamedExpr::aliased("media_id", "medium.id"),
            NamedExpr::aliased("mentioned", "m_user.id_str"),
        ],
    );
    Scenario {
        name: "T2",
        description: "flatten hashtags, media, user mentions",
        program: b.build(sel),
        query: TreePattern::root().node(PatternNode::attr("mentioned").eq(twitter::user_id(2))),
    }
}

/// T3: the running example's pipeline over the synthetic tweets.
pub fn t3() -> Scenario {
    let mut b = ProgramBuilder::new();
    let read1 = b.read("tweets");
    let filtered = b.filter(read1, Expr::col("retweet_count").eq(Expr::lit(0i64)));
    let upper = b.select(
        filtered,
        vec![
            NamedExpr::path("text"),
            NamedExpr::path("user.id_str"),
            NamedExpr::path("user.name"),
        ],
    );
    let read2 = b.read("tweets");
    let flat = b.flatten(read2, "entities.user_mentions", "m_user");
    let lower = b.select(
        flat,
        vec![
            NamedExpr::path("text"),
            NamedExpr::path("m_user.id_str"),
            NamedExpr::path("m_user.name"),
        ],
    );
    let unioned = b.union(upper, lower);
    let shaped = b.select(
        unioned,
        vec![
            NamedExpr::new(
                "tweet",
                SelectExpr::strct([("text", SelectExpr::path("text"))]),
            ),
            NamedExpr::new(
                "user",
                SelectExpr::strct([
                    ("id_str", SelectExpr::path("id_str")),
                    ("name", SelectExpr::path("name")),
                ]),
            ),
        ],
    );
    let agg = b.group_aggregate(
        shaped,
        vec![GroupKey::new("user")],
        vec![AggSpec::new(AggFunc::CollectList, "tweet", "tweets")],
    );
    Scenario {
        name: "T3",
        description: "running example: authored or mentioned tweets per user",
        program: b.build(agg),
        query: TreePattern::root()
            .node(PatternNode::descendant("id_str").eq(twitter::user_id(3)))
            .node(
                PatternNode::attr("tweets")
                    .child(PatternNode::attr("text").contains("Hello World")),
            ),
    }
}

/// T4: associates all occurring hashtags with the authoring and mentioned
/// users.
fn t4() -> Scenario {
    let mut b = ProgramBuilder::new();
    // Branch A: hashtags with authoring users.
    let read1 = b.read("tweets");
    let tags_a = b.flatten(read1, "entities.hashtags", "tag");
    let authors = b.select(
        tags_a,
        vec![
            NamedExpr::aliased("hashtag", "tag.text"),
            NamedExpr::new(
                "who",
                SelectExpr::strct([
                    ("id_str", SelectExpr::path("user.id_str")),
                    ("name", SelectExpr::path("user.name")),
                ]),
            ),
        ],
    );
    // Branch B: hashtags with mentioned users.
    let read2 = b.read("tweets");
    let tags_b = b.flatten(read2, "entities.hashtags", "tag");
    let mentions = b.flatten(tags_b, "entities.user_mentions", "m_user");
    let mentioned = b.select(
        mentions,
        vec![
            NamedExpr::aliased("hashtag", "tag.text"),
            NamedExpr::new(
                "who",
                SelectExpr::strct([
                    ("id_str", SelectExpr::path("m_user.id_str")),
                    ("name", SelectExpr::path("m_user.name")),
                ]),
            ),
        ],
    );
    let unioned = b.union(authors, mentioned);
    let agg = b.group_aggregate(
        unioned,
        vec![GroupKey::new("hashtag")],
        vec![AggSpec::new(AggFunc::CollectList, "who", "users")],
    );
    Scenario {
        name: "T4",
        description: "hashtags associated with authoring and mentioned users",
        program: b.build(agg),
        query: TreePattern::root()
            .node(PatternNode::attr("hashtag").eq("tag7"))
            .node(PatternNode::attr("users").child(PatternNode::attr("id_str").contains("u"))),
    }
}

/// T5: users that tweet about BTS and are mentioned in a BTS tweet.
pub fn t5() -> Scenario {
    let mut b = ProgramBuilder::new();
    // Authors of BTS tweets.
    let read1 = b.read("tweets");
    let bts_a = b.filter(read1, Expr::col("text").contains(Expr::lit("BTS")));
    let authors = b.select(
        bts_a,
        vec![
            NamedExpr::aliased("author_id", "user.id_str"),
            NamedExpr::aliased("author_name", "user.name"),
            NamedExpr::aliased("tweeted", "text"),
        ],
    );
    // Users mentioned in BTS tweets.
    let read2 = b.read("tweets");
    let bts_m = b.filter(read2, Expr::col("text").contains(Expr::lit("BTS")));
    let flat = b.flatten(bts_m, "entities.user_mentions", "m_user");
    let mentioned = b.select(
        flat,
        vec![
            NamedExpr::aliased("mentioned_id", "m_user.id_str"),
            NamedExpr::aliased("mention_text", "text"),
        ],
    );
    let joined = b.join(
        authors,
        mentioned,
        vec![(Path::attr("author_id"), Path::attr("mentioned_id"))],
    );
    let agg = b.group_aggregate(
        joined,
        vec![GroupKey::new("author_id"), GroupKey::new("author_name")],
        vec![
            AggSpec::new(AggFunc::CollectSet, "tweeted", "bts_tweets"),
            AggSpec::new(AggFunc::Count, "", "evidence"),
        ],
    );
    Scenario {
        name: "T5",
        description: "users tweeting about BTS and mentioned in a BTS tweet",
        program: b.build(agg),
        query: TreePattern::root()
            .node(PatternNode::attr("evidence").pred(pebble_core::ValuePred::Ge(Value::Int(1)))),
    }
}

/// D1: associates inproceedings from 2015 with their proceeding(s).
pub fn d1() -> Scenario {
    let mut b = ProgramBuilder::new();
    let inproc = b.read("inproceedings");
    let y2015 = b.filter(inproc, Expr::col("year").eq(Expr::lit(2015i64)));
    let proc = b.read("proceedings");
    let joined = b.join(
        y2015,
        proc,
        vec![(Path::attr("crossref"), Path::attr("key"))],
    );
    let sel = b.select(
        joined,
        vec![
            NamedExpr::aliased("paper", "title"),
            NamedExpr::aliased("proceeding", "title_r"),
            NamedExpr::path("authors"),
            NamedExpr::path("publisher"),
        ],
    );
    Scenario {
        name: "D1",
        description: "inproceedings from 2015 joined with their proceedings",
        program: b.build(sel),
        query: TreePattern::root()
            .node(PatternNode::attr("publisher").eq("Publisher 1"))
            .node(PatternNode::descendant("name").contains("Author")),
    }
}

/// D2: unites and restructures conference proceedings and articles.
pub fn d2() -> Scenario {
    let mut b = ProgramBuilder::new();
    let proc = b.read("proceedings");
    let shaped_p = b.select(
        proc,
        vec![
            NamedExpr::path("key"),
            NamedExpr::path("title"),
            NamedExpr::path("year"),
            NamedExpr::aliased("venue", "publisher"),
        ],
    );
    let articles = b.read("articles");
    let shaped_a = b.select(
        articles,
        vec![
            NamedExpr::path("key"),
            NamedExpr::path("title"),
            NamedExpr::path("year"),
            NamedExpr::aliased("venue", "journal"),
        ],
    );
    let unioned = b.union(shaped_p, shaped_a);
    let recent = b.filter(unioned, Expr::col("year").ge(Expr::lit(2012i64)));
    Scenario {
        name: "D2",
        description: "union and restructuring of proceedings and articles",
        program: b.build(recent),
        query: TreePattern::root().node(PatternNode::attr("venue").eq("Journal 3")),
    }
}

/// D3: nested lists of aliases and works per author (flatten early, then a
/// selective join — the scenario with the paper's largest provenance).
pub fn d3() -> Scenario {
    let mut b = ProgramBuilder::new();
    let inproc = b.read("inproceedings");
    let by_author = b.flatten(inproc, "authors", "author");
    let works = b.select(
        by_author,
        vec![
            NamedExpr::aliased("name", "author.name"),
            NamedExpr::new(
                "work",
                SelectExpr::strct([("title", SelectExpr::path("title"))]),
            ),
        ],
    );
    let persons = b.read("persons");
    let aliased = b.flatten(persons, "aliases", "alias");
    let alias_rows = b.select(
        aliased,
        vec![
            NamedExpr::aliased("person_name", "name"),
            NamedExpr::path("alias"),
            NamedExpr::path("affiliation"),
        ],
    );
    let joined = b.join(
        works,
        alias_rows,
        vec![(Path::attr("name"), Path::attr("person_name"))],
    );
    let agg = b.group_aggregate(
        joined,
        vec![GroupKey::new("name")],
        vec![
            AggSpec::new(AggFunc::CollectSet, "alias", "aliases"),
            AggSpec::new(AggFunc::CollectList, "work", "works"),
            AggSpec::new(AggFunc::Count, "", "n_works"),
        ],
    );
    Scenario {
        name: "D3",
        description: "aliases, works and counts nested per author",
        program: b.build(agg),
        query: TreePattern::root()
            .node(PatternNode::attr("name").contains("Author"))
            .node(PatternNode::attr("works").child(PatternNode::attr("title").contains("Paper"))),
    }
}

/// D4: nested list of all associated inproceedings for each proceeding.
pub fn d4() -> Scenario {
    let mut b = ProgramBuilder::new();
    let inproc = b.read("inproceedings");
    let proc = b.read("proceedings");
    let joined = b.join(
        inproc,
        proc,
        vec![(Path::attr("crossref"), Path::attr("key"))],
    );
    let shaped = b.select(
        joined,
        vec![
            NamedExpr::aliased("proceeding", "title_r"),
            NamedExpr::aliased("proc_key", "key_r"),
            NamedExpr::new(
                "paper",
                SelectExpr::strct([
                    ("title", SelectExpr::path("title")),
                    ("authors", SelectExpr::path("authors")),
                ]),
            ),
        ],
    );
    let agg = b.group_aggregate(
        shaped,
        vec![GroupKey::new("proc_key"), GroupKey::new("proceeding")],
        vec![AggSpec::new(AggFunc::CollectList, "paper", "papers")],
    );
    Scenario {
        name: "D4",
        description: "inproceedings nested per proceeding",
        program: b.build(agg),
        query: TreePattern::root()
            .node(PatternNode::attr("proceeding").contains("Conf 1"))
            .node(PatternNode::attr("papers").child(PatternNode::attr("title").contains("Paper"))),
    }
}

/// D5: D4 extended with a UDF in `map` that returns the number of authors
/// per proceeding.
fn d5() -> Scenario {
    let mut b = ProgramBuilder::new();
    let inproc = b.read("inproceedings");
    let proc = b.read("proceedings");
    let joined = b.join(
        inproc,
        proc,
        vec![(Path::attr("crossref"), Path::attr("key"))],
    );
    let shaped = b.select(
        joined,
        vec![
            NamedExpr::aliased("proceeding", "title_r"),
            NamedExpr::aliased("proc_key", "key_r"),
            NamedExpr::new(
                "paper",
                SelectExpr::strct([
                    ("title", SelectExpr::path("title")),
                    ("authors", SelectExpr::path("authors")),
                ]),
            ),
        ],
    );
    let agg = b.group_aggregate(
        shaped,
        vec![GroupKey::new("proc_key"), GroupKey::new("proceeding")],
        vec![AggSpec::new(AggFunc::CollectList, "paper", "papers")],
    );
    let mapped = b.map(
        agg,
        MapUdf {
            name: "author_count".into(),
            f: Arc::new(|item: &DataItem| {
                let n: usize = item
                    .get("papers")
                    .and_then(Value::as_collection)
                    .map(|papers| {
                        papers
                            .iter()
                            .filter_map(|p| {
                                p.as_item()
                                    .and_then(|d| d.get("authors"))
                                    .and_then(Value::as_collection)
                                    .map(<[Value]>::len)
                            })
                            .sum()
                    })
                    .unwrap_or(0);
                let mut out = item.clone();
                out.push("n_authors", Value::Int(n as i64));
                out
            }),
            output_schema: None,
        },
    );
    Scenario {
        name: "D5",
        description: "D4 plus a map UDF computing authors per proceeding",
        program: b.build(mapped),
        query: TreePattern::root()
            .node(PatternNode::attr("n_authors").pred(pebble_core::ValuePred::Ge(Value::Int(1)))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_core::{backtrace, run_captured};
    use pebble_dataflow::ExecConfig;

    fn cfg() -> ExecConfig {
        ExecConfig::with_partitions(4)
    }

    #[test]
    fn all_twitter_scenarios_run_and_trace() {
        let ctx = twitter_context(400);
        for s in twitter_scenarios() {
            let run = run_captured(&s.program, &ctx, cfg())
                .unwrap_or_else(|e| panic!("{} failed: {e}", s.name));
            assert!(
                !run.output.rows.is_empty(),
                "{} produced no results",
                s.name
            );
            let b = s.query.match_rows(&run.output.rows);
            assert!(!b.entries.is_empty(), "{} query matched nothing", s.name);
            let sources = backtrace(&run, b).unwrap();
            assert!(
                sources.iter().any(|sp| !sp.entries.is_empty()),
                "{} backtraced nothing",
                s.name
            );
        }
    }

    #[test]
    fn all_dblp_scenarios_run_and_trace() {
        let ctx = dblp_context(800);
        for s in dblp_scenarios() {
            let run = run_captured(&s.program, &ctx, cfg())
                .unwrap_or_else(|e| panic!("{} failed: {e}", s.name));
            assert!(
                !run.output.rows.is_empty(),
                "{} produced no results",
                s.name
            );
            let b = s.query.match_rows(&run.output.rows);
            assert!(!b.entries.is_empty(), "{} query matched nothing", s.name);
            let sources = backtrace(&run, b).unwrap();
            assert!(
                sources.iter().any(|sp| !sp.entries.is_empty()),
                "{} backtraced nothing",
                s.name
            );
        }
    }

    #[test]
    fn every_operator_kind_covered() {
        // Tab. 7 requirement: each supported operator occurs at least once
        // across the scenarios.
        use pebble_dataflow::OpKind;
        let mut seen = std::collections::BTreeSet::new();
        for s in twitter_scenarios().iter().chain(dblp_scenarios().iter()) {
            for op in s.program.operators() {
                seen.insert(op.kind.type_name());
            }
        }
        for ty in [
            "read",
            "filter",
            "select",
            "map",
            "join",
            "union",
            "flatten",
            "aggregation",
        ] {
            assert!(seen.contains(ty), "operator {ty} not covered");
        }
        let _ = OpKind::Union; // silence unused import lint paths
    }
}
