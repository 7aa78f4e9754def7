//! Synthetic Twitter dataset generator.
//!
//! The paper evaluates on up to 500 GB of real tweets — up to 130 million
//! items with ~1000 attributes and eight nesting layers. Real traces are
//! unavailable here, so this seeded generator reproduces the *shape* the
//! evaluation depends on: a wide top level, the nested `user` object, the
//! `entities` sub-tree with `hashtags`/`user_mentions`/`media` lists, a
//! deep `place` structure, a skewed `retweet_count`, and text containing
//! the scenario vocabulary (`good`, `BTS`, `@mentions`). Scale is
//! controlled by item count instead of gigabytes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pebble_nested::{DataItem, Value};

/// Generator parameters.
#[derive(Clone, Debug)]
pub struct TwitterConfig {
    /// Number of tweets.
    pub tweets: usize,
    /// RNG seed (generation is fully deterministic).
    pub seed: u64,
    /// Size of the user pool (authors and mentioned users).
    pub users: usize,
    /// Extra scalar attributes per tweet, mimicking the very wide real
    /// schema.
    pub extra_width: usize,
}

impl Default for TwitterConfig {
    fn default() -> Self {
        TwitterConfig {
            tweets: 1000,
            seed: 42,
            users: 100,
            extra_width: 24,
        }
    }
}

impl TwitterConfig {
    /// Config with a given tweet count and defaults otherwise.
    pub fn sized(tweets: usize) -> Self {
        TwitterConfig {
            tweets,
            users: (tweets / 10).clamp(10, 5000),
            ..Default::default()
        }
    }
}

/// User id used by the generator (`u0`, `u1`, …).
pub fn user_id(k: usize) -> String {
    format!("u{k}")
}

/// User display name used by the generator.
fn user_name(k: usize) -> String {
    format!("User {k}")
}

fn user_item(k: usize, rng: &mut StdRng) -> DataItem {
    DataItem::from_fields([
        ("id_str", Value::str(user_id(k))),
        ("name", Value::str(user_name(k))),
        ("screen_name", Value::str(format!("user_{k}"))),
        ("followers_count", Value::Int(rng.gen_range(0..100_000))),
        ("verified", Value::Bool(rng.gen_bool(0.05))),
        ("location", Value::str(format!("City {}", k % 37))),
    ])
}

fn mention_item(k: usize) -> DataItem {
    DataItem::from_fields([
        ("id_str", Value::str(user_id(k))),
        ("name", Value::str(user_name(k))),
    ])
}

const TOPICS: &[&str] = &[
    "this is a good day",
    "what a good game by BTS",
    "BTS dropped a new album",
    "Hello World",
    "nothing much happening",
    "rust makes systems fun",
    "provenance is underrated",
    "good vibes only",
];

/// Generates a deterministic synthetic tweet dataset.
pub fn generate(cfg: &TwitterConfig) -> Vec<DataItem> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = Vec::with_capacity(cfg.tweets);
    for i in 0..cfg.tweets {
        let author = rng.gen_range(0..cfg.users);
        let n_mentions = rng.gen_range(0..4usize);
        let mentions: Vec<usize> = (0..n_mentions)
            .map(|_| rng.gen_range(0..cfg.users))
            .collect();
        let topic = TOPICS[rng.gen_range(0..TOPICS.len())];
        let mut text = topic.to_string();
        for m in &mentions {
            text.push_str(&format!(" @{}", user_id(*m)));
        }
        let n_hashtags = rng.gen_range(0..3usize);
        let hashtags: Vec<Value> = (0..n_hashtags)
            .map(|_| {
                Value::Item(DataItem::from_fields([(
                    "text",
                    Value::str(format!("tag{}", rng.gen_range(0..50))),
                )]))
            })
            .collect();
        let n_media = rng.gen_range(0..2usize);
        let media: Vec<Value> = (0..n_media)
            .map(|j| {
                Value::Item(DataItem::from_fields([
                    ("id", Value::Int((i * 10 + j) as i64)),
                    ("type", Value::str("photo")),
                    (
                        "sizes",
                        Value::Item(DataItem::from_fields([
                            (
                                "large",
                                Value::Item(DataItem::from_fields([
                                    ("w", Value::Int(1024)),
                                    ("h", Value::Int(768)),
                                ])),
                            ),
                            (
                                "thumb",
                                Value::Item(DataItem::from_fields([
                                    ("w", Value::Int(150)),
                                    ("h", Value::Int(150)),
                                ])),
                            ),
                        ])),
                    ),
                ]))
            })
            .collect();
        // Skewed retweet_count: most tweets have zero retweets.
        let retweet_count = if rng.gen_bool(0.6) {
            0
        } else {
            rng.gen_range(1..1000)
        };
        let mut tweet = DataItem::from_fields([
            ("id_str", Value::str(format!("t{i}"))),
            ("text", Value::str(text)),
            ("user", Value::Item(user_item(author, &mut rng))),
            (
                "entities",
                Value::Item(DataItem::from_fields([
                    ("hashtags", Value::Bag(hashtags)),
                    (
                        "user_mentions",
                        Value::Bag(
                            mentions
                                .iter()
                                .map(|&m| Value::Item(mention_item(m)))
                                .collect(),
                        ),
                    ),
                    ("media", Value::Bag(media)),
                ])),
            ),
            ("retweet_count", Value::Int(retweet_count)),
            ("favorite_count", Value::Int(rng.gen_range(0..500))),
            (
                "lang",
                Value::str(if rng.gen_bool(0.8) { "en" } else { "de" }),
            ),
            (
                "created_at",
                Value::str(format!(
                    "2019-0{}-{:02}",
                    rng.gen_range(1..10),
                    rng.gen_range(1..29)
                )),
            ),
            (
                "place",
                Value::Item(DataItem::from_fields([
                    ("id", Value::str(format!("p{}", i % 97))),
                    ("country", Value::str("Wonderland")),
                    (
                        "bounding_box",
                        Value::Item(DataItem::from_fields([
                            ("type", Value::str("Polygon")),
                            (
                                "coordinates",
                                Value::Bag(vec![Value::Bag(vec![
                                    Value::Double(rng.gen_range(-90.0..90.0)),
                                    Value::Double(rng.gen_range(-180.0..180.0)),
                                ])]),
                            ),
                        ])),
                    ),
                ])),
            ),
        ]);
        for w in 0..cfg.extra_width {
            tweet.push(format!("meta_{w}"), Value::Int(rng.gen_range(0..1_000_000)));
        }
        out.push(tweet);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_nested::Path;

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = TwitterConfig::sized(50);
        assert_eq!(generate(&cfg), generate(&cfg));
        let other = TwitterConfig {
            seed: 7,
            ..cfg.clone()
        };
        assert_ne!(generate(&cfg), generate(&other));
    }

    #[test]
    fn shape_matches_expectations() {
        let items = generate(&TwitterConfig::sized(100));
        assert_eq!(items.len(), 100);
        let t = &items[0];
        assert!(t.get("text").is_some());
        assert!(Path::parse("user.id_str").eval(t).is_some());
        assert!(Path::parse("entities.user_mentions").eval(t).is_some());
        // Deep nesting exists (≥ 5 levels through place.bounding_box).
        assert!(Path::parse("place.bounding_box.coordinates[1][1]")
            .eval(t)
            .is_some());
        // Wide top level.
        assert!(t.len() > 25);
    }

    #[test]
    fn vocabulary_present_for_scenarios() {
        let items = generate(&TwitterConfig::sized(500));
        let texts: Vec<&str> = items
            .iter()
            .filter_map(|t| t.get("text").and_then(|v| v.as_str()))
            .collect();
        assert!(texts.iter().any(|t| t.contains("good")));
        assert!(texts.iter().any(|t| t.contains("BTS")));
        assert!(items
            .iter()
            .any(|t| { t.get("retweet_count") == Some(&Value::Int(0)) }));
    }
}
