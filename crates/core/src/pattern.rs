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

    /// Matches this node against a context value reached by `ctx`.
    /// Returns the matched paths (the node's own matched paths, each
    /// followed by those of its children), or `None` when the node does
    /// not match.
    fn match_against<'a>(&self, context: &'a Value, ctx: &[Seg<'a>]) -> Option<Vec<Segs<'a>>> {
        // A target satisfies the node if its predicate holds and all child
        // patterns match below it; its paths stay in `out` only then.
        let mut out = Vec::new();
        let mut satisfying = 0u32;
        'targets: for (path, value) in self.targets(context, ctx) {
            if let Some(p) = &self.predicate {
                if !p.eval(value) {
                    continue;
                }
            }
            let mark = out.len();
            out.push(path);
            for child in &self.children {
                match child.match_against(value, &out[mark]) {
                    Some(ps) => out.extend(ps),
                    None => {
                        out.truncate(mark);
                        continue 'targets;
                    }
                }
            }
            satisfying += 1;
        }
        match self.occurrences {
            Some((min, max)) if satisfying < min || satisfying > max => None,
            None if satisfying == 0 => None,
            _ => Some(out),
        }
    }

    /// Candidate `(path, value)` targets of this node below `context`.
    fn targets<'a>(&self, context: &'a Value, ctx: &[Seg<'a>]) -> Vec<(Segs<'a>, &'a Value)> {
        let mut out = Vec::new();
        match self.edge {
            EdgeKind::Child => collect_child_targets(&self.attr, context, ctx, &mut out),
            EdgeKind::Descendant => {
                collect_descendant_targets(&self.attr, context, &mut ctx.to_vec(), &mut out)
            }
        }
        if let Some(pos) = self.position {
            // Narrow each attribute target to the element at `pos` of its
            // collection value.
            out = out
                .into_iter()
                .filter_map(|(mut path, value)| {
                    let elements = value.as_collection()?;
                    let element = elements.get((pos as usize).checked_sub(1)?)?;
                    path.push(Seg::Pos(pos));
                    Some((path, element))
                })
                .collect();
        }
        out
    }
}

/// One step of a matched path, borrowed from the matched item: an
/// attribute name or a 1-based collection position. Matching carries these
/// and builds an owned [`Path`] only for a path it keeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Seg<'a> {
    Attr(&'a str),
    Pos(u32),
}

/// A matched path, from the top-level item down.
type Segs<'a> = Vec<Seg<'a>>;

fn to_path(segs: &[Seg<'_>]) -> Path {
    Path::new(segs.iter().map(|s| match *s {
        Seg::Attr(a) => Step::attr(a),
        Seg::Pos(i) => Step::Pos(i),
    }))
}

/// The attribute `attr` of an item value, with the item's own name string.
fn field<'a>(value: &'a Value, attr: &str) -> Option<(&'a str, &'a Value)> {
    match value {
        Value::Item(d) => d.fields().find(|(name, _)| *name == attr),
        _ => None,
    }
}

fn collect_child_targets<'a>(
    attr: &str,
    context: &'a Value,
    ctx: &[Seg<'a>],
    out: &mut Vec<(Segs<'a>, &'a Value)>,
) {
    if let Value::Bag(vs) | Value::Set(vs) = context {
        // Elements of a collection-valued context count as direct
        // children, with their positions recorded.
        for (i, v) in vs.iter().enumerate() {
            if let Some((name, val)) = field(v, attr) {
                let steps = [Seg::Pos(i as u32 + 1), Seg::Attr(name)];
                out.push(([ctx, &steps].concat(), val));
            }
        }
    } else if let Some((name, v)) = field(context, attr) {
        out.push(([ctx, &[Seg::Attr(name)]].concat(), v));
    }
}

/// Every `attr` below `context`. `path` is the path to `context`, pushed
/// and popped along the walk; only a matching attribute copies it.
fn collect_descendant_targets<'a>(
    attr: &str,
    context: &'a Value,
    path: &mut Segs<'a>,
    out: &mut Vec<(Segs<'a>, &'a Value)>,
) {
    match context {
        Value::Item(d) => {
            for (name, v) in d.fields() {
                path.push(Seg::Attr(name));
                if name == attr {
                    out.push((path.clone(), v));
                }
                collect_descendant_targets(attr, v, path, out);
                path.pop();
            }
        }
        Value::Bag(vs) | Value::Set(vs) => {
            for (i, v) in vs.iter().enumerate() {
                path.push(Seg::Pos(i as u32 + 1));
                collect_descendant_targets(attr, v, path, out);
                path.pop();
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
            paths.extend(node.match_against(&context, &[])?);
        }
        let mut tree = ProvTree::new();
        for segs in &paths {
            tree.insert(&to_path(segs), true);
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

/// The matcher the borrowing one replaced, kept as the tests' referee: it
/// carries an owned [`Path`] for every target and for every node a
/// descendant edge visits.
#[cfg(test)]
mod reference {
    use super::*;

    /// The matched paths of `pattern` on `item`, in match order.
    pub(super) fn matched_paths(
        pattern: &TreePattern,
        item: &pebble_nested::DataItem,
    ) -> Option<Vec<Path>> {
        let context = Value::Item(item.clone());
        let mut paths = Vec::new();
        for node in &pattern.children {
            paths.extend(match_against(node, &context, &Path::root())?);
        }
        Some(paths)
    }

    fn match_against(node: &PatternNode, context: &Value, ctx_path: &Path) -> Option<Vec<Path>> {
        let targets = targets(node, context, ctx_path);
        let mut satisfying: Vec<(Path, Vec<Path>)> = Vec::new();
        for (path, value) in targets {
            if let Some(p) = &node.predicate {
                if !p.eval(value) {
                    continue;
                }
            }
            let mut sub_paths = Vec::new();
            let mut ok = true;
            for child in &node.children {
                match match_against(child, value, &path) {
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
        match node.occurrences {
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

    fn targets<'a>(
        node: &PatternNode,
        context: &'a Value,
        ctx_path: &Path,
    ) -> Vec<(Path, &'a Value)> {
        let mut out = Vec::new();
        match node.edge {
            EdgeKind::Child => collect_child_targets(&node.attr, context, ctx_path, &mut out),
            EdgeKind::Descendant => {
                collect_descendant_targets(&node.attr, context, ctx_path, &mut out)
            }
        }
        if let Some(pos) = node.position {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_nested::DataItem;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

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

    /// The borrowing matcher's paths, owned, in match order.
    fn matched_paths(pattern: &TreePattern, item: &DataItem) -> Option<Vec<Path>> {
        let context = Value::Item(item.clone());
        let mut paths = Vec::new();
        for node in &pattern.children {
            paths.extend(
                node.match_against(&context, &[])?
                    .iter()
                    .map(|s| to_path(s)),
            );
        }
        Some(paths)
    }

    /// Attribute names shared by generated items and patterns, few enough
    /// that patterns hit often.
    const NAMES: [&str; 4] = ["a", "b", "id_str", "text"];

    fn scalar() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            Just(Value::Bool(true)),
            (0i64..4).prop_map(Value::Int),
            (0usize..3).prop_map(|i| Value::str(["x", "y", "xy"][i])),
        ]
    }

    fn item_of(values: BoxedStrategy<Value>) -> impl Strategy<Value = DataItem> {
        prop::collection::vec((0..NAMES.len(), values), 0..5).prop_map(|fields| {
            let mut d = DataItem::new();
            for (k, v) in fields {
                d.set(NAMES[k], v);
            }
            d
        })
    }

    /// Nested items: items, bags and sets of items or scalars, up to four
    /// levels deep.
    fn nested_item() -> impl Strategy<Value = DataItem> {
        let value = scalar().prop_recursive(4, 64, 4, |inner| {
            let items = || item_of(inner.clone()).prop_map(Value::Item);
            prop_oneof![
                items(),
                prop::collection::vec(items(), 0..5).prop_map(Value::Bag),
                prop::collection::vec(items(), 0..4).prop_map(Value::set_from),
                prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Bag),
            ]
        });
        item_of(value)
    }

    fn predicate() -> impl Strategy<Value = Option<ValuePred>> {
        let constant = prop_oneof![
            (0i64..4).prop_map(Value::Int),
            (0usize..2).prop_map(|i| Value::str(["x", "y"][i])),
        ];
        (0usize..14, constant).prop_map(|(k, c)| match k {
            0 => Some(ValuePred::Eq(c)),
            1 => Some(ValuePred::Ne(c)),
            2 => Some(ValuePred::Lt(c)),
            3 => Some(ValuePred::Le(c)),
            4 => Some(ValuePred::Gt(c)),
            5 => Some(ValuePred::Ge(c)),
            6 => Some(ValuePred::Contains("x".into())),
            _ => None,
        })
    }

    /// Pattern nodes mixing child and descendant edges, positions, every
    /// predicate and `[min,max]` boxes, with nested children.
    fn pattern_node() -> impl Strategy<Value = PatternNode> {
        let node = (
            0..NAMES.len(),
            any::<bool>(),
            0u32..5,
            predicate(),
            (0u32..6, 0u32..3),
        )
            .prop_map(|(k, descendant, pos, predicate, (lo, span))| PatternNode {
                attr: NAMES[k].to_string(),
                position: (pos > 0 && pos < 4).then_some(pos),
                edge: if descendant {
                    EdgeKind::Descendant
                } else {
                    EdgeKind::Child
                },
                predicate,
                occurrences: (lo < 2).then_some((lo, lo + span)),
                children: Vec::new(),
            })
            .boxed();
        node.clone().prop_recursive(2, 16, 3, move |inner| {
            (node.clone(), prop::collection::vec(inner, 1..3)).prop_map(|(mut n, children)| {
                n.children = children;
                n
            })
        })
    }

    #[test]
    fn borrowing_matcher_equals_reference_on_random_items_and_patterns() {
        let items = nested_item();
        let patterns = prop::collection::vec(pattern_node(), 0..3)
            .prop_map(|children| TreePattern { children });
        let mut rng = TestRng::deterministic("borrowing_matcher_equals_reference");
        let (mut matched, mut with_positions) = (0, 0);
        for case in 0..20_000 {
            let item = items.generate(&mut rng);
            let pattern = patterns.generate(&mut rng);
            let expect = reference::matched_paths(&pattern, &item);
            assert_eq!(
                matched_paths(&pattern, &item),
                expect,
                "case {case}: {pattern:?} on {item:?}"
            );
            let tree = pattern.match_item(&item);
            let expect_tree = expect.as_ref().map(|ps| ProvTree::from_paths(ps.iter()));
            assert_eq!(tree, expect_tree, "case {case}");
            assert_eq!(
                tree.map(|t| t.to_string()),
                expect_tree.map(|t| t.to_string())
            );
            if let Some(ps) = &expect {
                matched += usize::from(!ps.is_empty());
                with_positions += usize::from(
                    ps.iter()
                        .any(|p| p.steps().iter().any(|s| matches!(s, Step::Pos(_)))),
                );
            }
        }
        // The property is not vacuous: many cases match, and many matched
        // paths run through collection positions.
        assert!(
            matched > 800 && with_positions > 400,
            "{matched} / {with_positions}"
        );
    }

    /// The scenarios' questions in the textual syntax. The workloads
    /// crate builds its patterns with its own copy of this crate, so the
    /// test parses these into this copy and checks that both render alike.
    const SCENARIO_PATTERNS: [(&str, &str); 10] = [
        ("T1", r#"//id_str = "u1", tweets / text ~ "good""#),
        ("T2", r#"mentioned = "u2""#),
        ("T3", r#"//id_str = "u3", tweets / text ~ "Hello World""#),
        ("T4", r#"hashtag = "tag7", users / id_str ~ "u""#),
        ("T5", "evidence >= 1"),
        ("D1", r#"publisher = "Publisher 1", //name ~ "Author""#),
        ("D2", r#"venue = "Journal 3""#),
        ("D3", r#"name ~ "Author", works / title ~ "Paper""#),
        ("D4", r#"proceeding ~ "Conf 1", papers / title ~ "Paper""#),
        ("D5", "n_authors >= 1"),
    ];

    #[test]
    fn match_rows_equals_reference_on_the_ten_scenarios() {
        use pebble_workloads::{dblp_context, dblp_scenarios, twitter_context, twitter_scenarios};
        let runs = twitter_scenarios()
            .into_iter()
            .map(|s| (s, twitter_context(120)))
            .chain(dblp_scenarios().into_iter().map(|s| (s, dblp_context(120))));
        let (mut scenarios, mut matching) = (0, 0);
        for (scenario, ctx) in runs {
            let run = crate::run_captured(&scenario.program, &ctx, Default::default()).unwrap();
            let rows = &run.output.rows;
            let (_, text) = SCENARIO_PATTERNS
                .iter()
                .find(|(name, _)| *name == scenario.name)
                .unwrap();
            let pattern = TreePattern::parse(text).unwrap();
            assert_eq!(format!("{pattern:?}"), format!("{:?}", scenario.query));
            let got = pattern.match_rows(rows);
            let expect: Vec<(u64, ProvTree)> = rows
                .iter()
                .filter_map(|r| {
                    let paths = reference::matched_paths(&pattern, &r.item)?;
                    Some((r.id, ProvTree::from_paths(paths.iter())))
                })
                .collect();
            matching += usize::from(!expect.is_empty());
            assert_eq!(got.entries, expect, "{}", scenario.name);
            for row in rows {
                assert_eq!(
                    matched_paths(&pattern, &row.item),
                    reference::matched_paths(&pattern, &row.item),
                    "{}",
                    scenario.name
                );
            }
            scenarios += 1;
        }
        assert_eq!((scenarios, matching), (10, 8));
    }
}
