//! Tree-pattern provenance queries (Sec. 6.1, Fig. 4).
//!
//! A tree-pattern addresses combinations of nested items that are related
//! by structure: nodes name attributes, edges require parent-child or
//! ancestor-descendant relationships, and nodes may carry value predicates
//! and occurrence-count boxes (`[min,max]`, e.g. "the value must occur
//! twice in the nested collection").
//!
//! Matching a pattern against the provenance-annotated result dataset
//! yields the initial backtracing structure `B`: one backtracing tree per
//! matching top-level item, holding the concrete matched paths (all marked
//! *contributing*). Matching is partition-parallel, mirroring the paper's
//! distributed tree-pattern matching.

use pebble_dataflow::Row;
use pebble_nested::{Path, Step, Value};

use crate::btree::{Backtrace, ProvTree};

/// Value predicate on a pattern node.
#[derive(Clone, Debug, PartialEq)]
pub enum ValuePred {
    /// Equal to a constant.
    Eq(Value),
    /// Not equal to a constant.
    Ne(Value),
    /// Less than.
    Lt(Value),
    /// Less than or equal.
    Le(Value),
    /// Greater than.
    Gt(Value),
    /// Greater than or equal.
    Ge(Value),
    /// String containment.
    Contains(String),
}

impl ValuePred {
    fn eval(&self, v: &Value) -> bool {
        match self {
            ValuePred::Eq(c) => v == c,
            ValuePred::Ne(c) => v != c,
            ValuePred::Lt(c) => v < c,
            ValuePred::Le(c) => v <= c,
            ValuePred::Gt(c) => v > c,
            ValuePred::Ge(c) => v >= c,
            ValuePred::Contains(s) => v.as_str().is_some_and(|h| h.contains(s.as_str())),
        }
    }
}

/// Edge type between a pattern node and its parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// Parent-child: the attribute must sit directly below the context
    /// (elements of a collection-valued context count as direct).
    Child,
    /// Ancestor-descendant: the attribute may occur anywhere below.
    Descendant,
}

/// A node of a tree-pattern.
#[derive(Clone, Debug)]
pub struct PatternNode {
    /// Attribute name this node matches.
    pub attr: String,
    /// Optional positional constraint: the target must be the element at
    /// this 1-based position of the collection stored at `attr`
    /// (`tweets[2]` addresses the second nested tweet).
    pub position: Option<u32>,
    /// Edge to the parent.
    pub edge: EdgeKind,
    /// Optional value predicate.
    pub predicate: Option<ValuePred>,
    /// Optional `[min,max]` occurrence-count constraint: the number of
    /// satisfying targets must fall in this range for the node to match.
    pub occurrences: Option<(u32, u32)>,
    /// Child pattern nodes (conjunctive).
    pub children: Vec<PatternNode>,
}

impl PatternNode {
    /// Child-edge node on attribute `attr`.
    pub fn attr(attr: impl Into<String>) -> Self {
        PatternNode {
            attr: attr.into(),
            position: None,
            edge: EdgeKind::Child,
            predicate: None,
            occurrences: None,
            children: Vec::new(),
        }
    }

    /// Restricts the node to the element at a 1-based position of the
    /// collection stored at the attribute.
    pub fn at(mut self, position: u32) -> Self {
        self.position = Some(position);
        self
    }

    /// Descendant-edge node on attribute `attr`.
    pub fn descendant(attr: impl Into<String>) -> Self {
        PatternNode {
            edge: EdgeKind::Descendant,
            ..PatternNode::attr(attr)
        }
    }

    /// Requires equality with a constant.
    pub fn eq(mut self, v: impl Into<Value>) -> Self {
        self.predicate = Some(ValuePred::Eq(v.into()));
        self
    }

    /// Requires string containment.
    pub fn contains(mut self, s: impl Into<String>) -> Self {
        self.predicate = Some(ValuePred::Contains(s.into()));
        self
    }

    /// Attaches a predicate.
    pub fn pred(mut self, p: ValuePred) -> Self {
        self.predicate = Some(p);
        self
    }

    /// Requires the number of satisfying occurrences to lie in
    /// `[min, max]` (the black box of Fig. 4).
    pub fn occurs(mut self, min: u32, max: u32) -> Self {
        self.occurrences = Some((min, max));
        self
    }

    /// Adds a child pattern node.
    pub fn child(mut self, node: PatternNode) -> Self {
        self.children.push(node);
        self
    }

    /// Matches this node against a context value. Returns the matched
    /// paths (the node's own matched paths plus those of its children), or
    /// `None` when the node does not match.
    fn match_against(&self, context: &Value, ctx_path: &Path) -> Option<Vec<Path>> {
        let targets = self.targets(context, ctx_path);
        // A target satisfies the node if its predicate holds and all child
        // patterns match below it.
        let mut satisfying: Vec<(Path, Vec<Path>)> = Vec::new();
        for (path, value) in targets {
            if let Some(p) = &self.predicate {
                if !p.eval(value) {
                    continue;
                }
            }
            let mut sub_paths = Vec::new();
            let mut ok = true;
            for child in &self.children {
                match child.match_against(value, &path) {
                    Some(ps) => sub_paths.extend(ps),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                satisfying.push((path, sub_paths));
            }
        }
        match self.occurrences {
            Some((min, max)) => {
                let n = satisfying.len() as u32;
                if n < min || n > max {
                    return None;
                }
            }
            None => {
                if satisfying.is_empty() {
                    return None;
                }
            }
        }
        let mut out = Vec::new();
        for (path, subs) in satisfying {
            out.push(path);
            out.extend(subs);
        }
        Some(out)
    }

    /// Candidate `(path, value)` targets of this node below `context`.
    fn targets<'a>(&self, context: &'a Value, ctx_path: &Path) -> Vec<(Path, &'a Value)> {
        let mut out = Vec::new();
        match self.edge {
            EdgeKind::Child => collect_child_targets(&self.attr, context, ctx_path, &mut out),
            EdgeKind::Descendant => {
                collect_descendant_targets(&self.attr, context, ctx_path, &mut out)
            }
        }
        if let Some(pos) = self.position {
            // Narrow each attribute target to the element at `pos` of its
            // collection value.
            out = out
                .into_iter()
                .filter_map(|(path, value)| {
                    let elements = value.as_collection()?;
                    let element = elements.get((pos as usize).checked_sub(1)?)?;
                    Some((path.child(Step::Pos(pos)), element))
                })
                .collect();
        }
        out
    }
}

fn collect_child_targets<'a>(
    attr: &str,
    context: &'a Value,
    ctx_path: &Path,
    out: &mut Vec<(Path, &'a Value)>,
) {
    match context {
        Value::Item(d) => {
            if let Some(v) = d.get(attr) {
                out.push((ctx_path.child(Step::attr(attr)), v));
            }
        }
        // Elements of a collection-valued context count as direct
        // children, with their positions recorded.
        Value::Bag(vs) | Value::Set(vs) => {
            for (i, v) in vs.iter().enumerate() {
                let elem_path = ctx_path.child(Step::Pos(i as u32 + 1));
                if let Value::Item(d) = v {
                    if let Some(val) = d.get(attr) {
                        out.push((elem_path.child(Step::attr(attr)), val));
                    }
                }
            }
        }
        _ => {}
    }
}

fn collect_descendant_targets<'a>(
    attr: &str,
    context: &'a Value,
    ctx_path: &Path,
    out: &mut Vec<(Path, &'a Value)>,
) {
    match context {
        Value::Item(d) => {
            for (name, v) in d.fields() {
                let p = ctx_path.child(Step::attr(name));
                if name == attr {
                    out.push((p.clone(), v));
                }
                collect_descendant_targets(attr, v, &p, out);
            }
        }
        Value::Bag(vs) | Value::Set(vs) => {
            for (i, v) in vs.iter().enumerate() {
                let p = ctx_path.child(Step::Pos(i as u32 + 1));
                collect_descendant_targets(attr, v, &p, out);
            }
        }
        _ => {}
    }
}

/// A tree-pattern: conjunctive pattern nodes below the implicit root (the
/// top-level data item).
#[derive(Clone, Debug, Default)]
pub struct TreePattern {
    /// Pattern nodes below the root.
    pub children: Vec<PatternNode>,
}

impl TreePattern {
    /// Empty pattern (matches every item).
    pub fn root() -> Self {
        Self::default()
    }

    /// Adds a pattern node below the root.
    pub fn node(mut self, node: PatternNode) -> Self {
        self.children.push(node);
        self
    }

    /// Matches one item; returns the backtracing tree of matched paths.
    pub fn match_item(&self, item: &pebble_nested::DataItem) -> Option<ProvTree> {
        let context = Value::Item(item.clone());
        let mut paths = Vec::new();
        for node in &self.children {
            paths.extend(node.match_against(&context, &Path::root())?);
        }
        let mut tree = ProvTree::new();
        for p in &paths {
            tree.insert(p, true);
        }
        Some(tree)
    }

    /// Matches the pattern against a provenance-annotated dataset,
    /// producing the initial backtracing structure, in row order. Large
    /// inputs are matched in parallel chunks, one per available core.
    pub fn match_rows(&self, rows: &[Row]) -> Backtrace {
        /// Below this many rows a thread can cost more than it matches: a
        /// flat row matches in ~0.2 µs, a spawn costs tens of µs. Rows
        /// holding nested groups take microseconds each, so the floor
        /// stays low.
        const PARALLEL_MIN_ROWS: usize = 512;
        let threads = if rows.len() < PARALLEL_MIN_ROWS {
            1
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        };
        if threads == 1 {
            return Backtrace {
                entries: self.match_chunk(rows),
            };
        }
        let chunks: Vec<&[Row]> = rows.chunks(rows.len().div_ceil(threads)).collect();
        let results: Vec<Vec<(u64, ProvTree)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|c| scope.spawn(move || self.match_chunk(c)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pattern matching thread panicked"))
                .collect()
        });
        Backtrace {
            entries: results.into_iter().flatten().collect(),
        }
    }

    fn match_chunk(&self, rows: &[Row]) -> Vec<(u64, ProvTree)> {
        rows.iter()
            .filter_map(|row| self.match_item(&row.item).map(|t| (row.id, t)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_nested::DataItem;

    /// The result item 102 of Tab. 2.
    fn item_102() -> DataItem {
        let tweet = |text: &str| Value::Item(DataItem::from_fields([("text", Value::str(text))]));
        DataItem::from_fields([
            (
                "user",
                Value::Item(DataItem::from_fields([
                    ("id_str", Value::str("lp")),
                    ("name", Value::str("Lisa Paul")),
                ])),
            ),
            (
                "tweets",
                Value::Bag(vec![
                    tweet("Hello @ls @jm @ls"),
                    tweet("Hello World"),
                    tweet("Hello World"),
                    tweet("Hello @lp"),
                ]),
            ),
        ])
    }

    /// The tree-pattern of Fig. 4.
    fn fig4_pattern() -> TreePattern {
        TreePattern::root()
            .node(PatternNode::descendant("id_str").eq("lp"))
            .node(
                PatternNode::attr("tweets")
                    .child(PatternNode::attr("text").eq("Hello World").occurs(2, 2)),
            )
    }

    #[test]
    fn fig4_matches_item_102() {
        let tree = fig4_pattern().match_item(&item_102()).unwrap();
        // Expected tree = right tree of Fig. 2.
        assert!(tree.contains(&Path::parse("user.id_str")));
        assert!(tree.contains(&Path::parse("tweets[2].text")));
        assert!(tree.contains(&Path::parse("tweets[3].text")));
        assert!(!tree.contains(&Path::parse("tweets[1]")));
        assert!(!tree.contains(&Path::parse("user.name"))); // not pertinent
        assert!(tree.nodes().iter().all(|(_, n)| n.contributing));
    }

    #[test]
    fn occurrence_bounds_enforced() {
        // Exactly 3 occurrences required: item 102 has only 2.
        let p = TreePattern::root().node(
            PatternNode::attr("tweets")
                .child(PatternNode::attr("text").eq("Hello World").occurs(3, 3)),
        );
        assert!(p.match_item(&item_102()).is_none());
        // At most 2 — matches.
        let p = TreePattern::root().node(
            PatternNode::attr("tweets")
                .child(PatternNode::attr("text").eq("Hello World").occurs(1, 2)),
        );
        assert!(p.match_item(&item_102()).is_some());
    }

    #[test]
    fn descendant_searches_all_levels() {
        let p = TreePattern::root().node(PatternNode::descendant("text").eq("Hello @lp"));
        let t = p.match_item(&item_102()).unwrap();
        assert!(t.contains(&Path::parse("tweets[4].text")));
    }

    #[test]
    fn child_edge_does_not_descend() {
        // id_str is nested under user, so a child edge from the root fails.
        let p = TreePattern::root().node(PatternNode::attr("id_str").eq("lp"));
        assert!(p.match_item(&item_102()).is_none());
    }

    #[test]
    fn predicates_variants() {
        let d = DataItem::from_fields([("n", Value::Int(5)), ("s", Value::str("hello"))]);
        let m = |node: PatternNode| TreePattern::root().node(node).match_item(&d).is_some();
        assert!(m(PatternNode::attr("n").pred(ValuePred::Gt(Value::Int(4)))));
        assert!(!m(PatternNode::attr("n").pred(ValuePred::Lt(Value::Int(5)))));
        assert!(m(PatternNode::attr("n").pred(ValuePred::Ge(Value::Int(5)))));
        assert!(m(PatternNode::attr("n").pred(ValuePred::Le(Value::Int(5)))));
        assert!(m(PatternNode::attr("n").pred(ValuePred::Ne(Value::Int(4)))));
        assert!(m(PatternNode::attr("s").contains("ell")));
        assert!(!m(PatternNode::attr("s").contains("zzz")));
    }

    #[test]
    fn match_rows_builds_backtrace() {
        let rows = vec![
            Row {
                id: 101,
                item: DataItem::from_fields([(
                    "user",
                    Value::Item(DataItem::from_fields([("id_str", Value::str("ls"))])),
                )]),
            },
            Row {
                id: 102,
                item: item_102(),
            },
        ];
        let b = fig4_pattern().match_rows(&rows);
        assert_eq!(b.entries.len(), 1);
        assert_eq!(b.entries[0].0, 102);
    }

    #[test]
    fn empty_pattern_matches_everything() {
        let b = TreePattern::root().match_rows(&[Row {
            id: 1,
            item: item_102(),
        }]);
        assert_eq!(b.entries.len(), 1);
        assert!(b.entries[0].1.is_empty());
    }

    #[test]
    fn conjunctive_children_all_required() {
        let p = TreePattern::root().node(
            PatternNode::attr("user")
                .child(PatternNode::attr("id_str").eq("lp"))
                .child(PatternNode::attr("name").eq("Wrong Name")),
        );
        assert!(p.match_item(&item_102()).is_none());
    }
}
