//! Lipstick-style value-annotation baseline (Amsterdamer et al., PVLDB
//! 2011).
//!
//! Lipstick computes how-provenance for nested data by annotating **every
//! nested value**, not only top-level items — 35 instead of 5 annotations
//! on the running example's input (Sec. 2). That per-value annotation is
//! what makes the approach impractical at scale; this module quantifies it
//! so the benches can contrast annotation counts and annotation storage
//! with Pebble's top-level identifiers plus schema-level paths.

use pebble_nested::{DataItem, Path, Value};

/// An annotated dataset: every nested value (constants, items, collection
/// elements) carries a unique annotation id, recorded as `(item index,
/// path)` pairs.
#[derive(Clone, Debug, Default)]
pub struct AnnotatedDataset {
    /// One annotation per nested value: which item and which path.
    pub annotations: Vec<(usize, Path)>,
}

impl AnnotatedDataset {
    /// Annotates a dataset, enumerating every nested value.
    #[cfg(test)]
    fn annotate(items: &[DataItem]) -> Self {
        let mut annotations = Vec::new();
        for (idx, item) in items.iter().enumerate() {
            // The top-level item itself…
            annotations.push((idx, Path::root()));
            // …and every value reachable below it.
            for p in Path::path_set(item) {
                annotations.push((idx, p));
            }
        }
        AnnotatedDataset { annotations }
    }

    /// Number of annotations (the `35` of Sec. 2).
    pub fn count(&self) -> usize {
        self.annotations.len()
    }

    /// Storage estimate: one 8-byte id per annotation plus the path
    /// rendering Lipstick attaches to each annotated value.
    pub fn bytes(&self) -> usize {
        self.annotations
            .iter()
            .map(|(_, p)| 8 + p.to_string().len())
            .sum()
    }
}

/// Annotation count for a dataset without materializing the paths (used at
/// benchmark scale).
pub fn annotation_count(items: &[DataItem]) -> usize {
    items
        .iter()
        .map(|i| Value::Item(i.clone()).annotation_count())
        .sum()
}

/// Pebble's corresponding capture-time cost: one identifier per top-level
/// item.
pub fn pebble_annotation_count(items: &[DataItem]) -> usize {
    items.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example's first tweet (Tab. 1, row 1): the paper counts
    /// 11 annotated values for this item (superscripts 1-11).
    fn tweet_row1() -> DataItem {
        let user = |id: &str, name: &str| {
            Value::Item(DataItem::from_fields([
                ("id_str", Value::str(id)),
                ("name", Value::str(name)),
            ]))
        };
        DataItem::from_fields([
            ("text", Value::str("Hello @ls @jm @ls")),
            ("user", user("lp", "Lisa Paul")),
            (
                "user_mentions",
                Value::Bag(vec![
                    user("ls", "Lauren Smith"),
                    user("jm", "John Miller"),
                    user("ls", "Lauren Smith"),
                ]),
            ),
            ("retweet_cnt", Value::Int(0)),
        ])
    }

    #[test]
    fn running_example_annotation_counts() {
        // Tab. 1 has 5 top-level tweets and 35 annotated values in total:
        // row 1 contributes 11 (text, user, id_str, name, 3×(mention item,
        // id_str, name) = 9 — the paper annotates values, we also count the
        // bag holder), rows 2/3 contribute 5 each, etc. We assert the
        // qualitative contrast: per-value annotations are an order of
        // magnitude more than top-level identifiers.
        let items = vec![tweet_row1()];
        let lipstick = annotation_count(&items);
        let pebble = pebble_annotation_count(&items);
        assert!(lipstick >= 11, "lipstick annotations = {lipstick}");
        assert_eq!(pebble, 1);
        assert!(lipstick > 10 * pebble);
    }

    #[test]
    fn annotate_enumerates_paths() {
        let a = AnnotatedDataset::annotate(&[tweet_row1()]);
        assert!(a
            .annotations
            .iter()
            .any(|(i, p)| *i == 0 && *p == Path::parse("user_mentions[2].id_str")));
        assert!(a.count() > 10);
        assert!(a.bytes() > a.count() * 8);
    }
}
