//! Backtracing structures and trees (Defs. 6.2 and 6.3).
//!
//! A backtracing structure `B = {{⟨id, T⟩}}` pairs top-level item
//! identifiers with backtracing trees. Tree nodes reference attributes (or
//! positions within nested collections) and carry
//!
//! * the set `A` of operators that *accessed* the attribute,
//! * the set `M` of operators that *manipulated* (restructured) it,
//! * the flag `c`: `true` for *contributing* nodes (needed to reproduce the
//!   queried items), `false` for *influencing* nodes (accessed during
//!   processing but not required for reproduction).
//!
//! The two tree-rewriting methods of Sec. 6.2 live here:
//! [`ProvTree::manipulate_path`] undoes one structural manipulation
//! recorded in `P.M`, and [`ProvTree::access_path`] records accesses from
//! `P.I.A`, materializing influencing nodes when necessary.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use pebble_dataflow::OpId;
use pebble_nested::{Path, Step};

/// Label of a backtracing tree node: an attribute name, a concrete 1-based
/// position inside a nested collection, or the `[pos]` placeholder used
/// transiently while undoing `flatten`/nesting (Alg. 2).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeLabel {
    /// Attribute name.
    Attr(String),
    /// Position in a nested collection (1-based).
    Pos(u32),
    /// Position placeholder, filled in by `mergeTrees` (Alg. 2 l. 2).
    AnyPos,
}

impl NodeLabel {
    fn from_step(step: &Step) -> NodeLabel {
        match step {
            Step::Attr(a) => NodeLabel::Attr(a.clone()),
            Step::Pos(i) => NodeLabel::Pos(*i),
            Step::AnyPos => NodeLabel::AnyPos,
        }
    }

    /// Step/label matching: `[pos]` (either side) matches any position.
    fn matches(&self, step: &Step) -> bool {
        match (self, step) {
            (NodeLabel::Attr(a), Step::Attr(b)) => a == b,
            (NodeLabel::Pos(i), Step::Pos(j)) => i == j,
            (NodeLabel::Pos(_), Step::AnyPos) | (NodeLabel::AnyPos, Step::Pos(_)) => true,
            (NodeLabel::AnyPos, Step::AnyPos) => true,
            _ => false,
        }
    }

    fn to_step(&self) -> Step {
        match self {
            NodeLabel::Attr(a) => Step::Attr(a.clone()),
            NodeLabel::Pos(i) => Step::Pos(*i),
            NodeLabel::AnyPos => Step::AnyPos,
        }
    }
}

/// A node of a backtracing tree (Def. 6.3).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BNode {
    /// Attribute name or collection position.
    pub label: NodeLabel,
    /// Child nodes.
    pub children: Vec<BNode>,
    /// Operators that accessed this attribute (`A`).
    pub accessed: BTreeSet<OpId>,
    /// Operators that manipulated this attribute (`M`).
    pub manipulated: BTreeSet<OpId>,
    /// Contributing (`true`) vs merely influencing (`false`).
    pub contributing: bool,
}

impl BNode {
    fn new(label: NodeLabel, contributing: bool) -> Self {
        BNode {
            label,
            children: Vec::new(),
            accessed: BTreeSet::new(),
            manipulated: BTreeSet::new(),
            contributing,
        }
    }

    fn merge_from(&mut self, other: BNode) {
        self.contributing |= other.contributing;
        self.accessed.extend(other.accessed);
        self.manipulated.extend(other.manipulated);
        for child in other.children {
            merge_sibling(&mut self.children, child);
        }
    }

    fn count(&self) -> usize {
        1 + self.children.iter().map(BNode::count).sum::<usize>()
    }
}

/// Merges `node` into `siblings`, which are sorted by label and carry each
/// label once: into the sibling of equal label if there is one, otherwise
/// at its sorted position.
fn merge_sibling(siblings: &mut Vec<BNode>, node: BNode) {
    match siblings.binary_search_by(|c| c.label.cmp(&node.label)) {
        Ok(at) => siblings[at].merge_from(node),
        Err(at) => siblings.insert(at, node),
    }
}

/// A backtracing tree `T` — a forest of attribute nodes under the implicit
/// root that represents the top-level data item.
///
/// Copy-on-write: a clone shares the nodes, and the first mutation of a
/// shared tree deep-copies them. That is what lets the backtracing walk
/// hand one rewritten tree to every entry that carries an equal one.
// `eq` is value equality with a shared-allocation shortcut, so it agrees
// with the derived, value-based `Hash`.
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Clone, Debug, Default, Hash)]
pub struct ProvTree {
    roots: Arc<Forest>,
}

impl PartialEq for ProvTree {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.roots, &other.roots) || self.roots == other.roots
    }
}

impl Eq for ProvTree {}

impl ProvTree {
    /// Empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Top-level attribute nodes.
    pub fn roots(&self) -> &[BNode] {
        &self.roots.0
    }

    /// The nodes, for a rewrite: deep-copied first when they are shared.
    /// Each call checks the sharing once, so a rewrite of several steps
    /// takes the nodes once and runs the steps on them.
    pub(crate) fn edit(&mut self) -> &mut Forest {
        Arc::make_mut(&mut self.roots)
    }

    /// Whether another tree shares the nodes, so that [`ProvTree::edit`]
    /// will copy them.
    pub(crate) fn is_shared(&self) -> bool {
        Arc::strong_count(&self.roots) > 1
    }

    /// Identity of the node allocation: equal for a tree and its clones
    /// until one of them is mutated. Only meaningful while the tree is
    /// alive.
    pub(crate) fn alloc_id(&self) -> usize {
        Arc::as_ptr(&self.roots) as usize
    }

    /// Builds a tree from contributing paths.
    pub fn from_paths<'a>(paths: impl IntoIterator<Item = &'a Path>) -> Self {
        let mut t = ProvTree::new();
        let nodes = t.edit();
        for p in paths {
            nodes.insert(p, true);
        }
        t
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.roots.0.iter().map(BNode::count).sum()
    }

    /// True when the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.roots.0.is_empty()
    }

    /// Inserts a path; every node on a contributing path is marked
    /// contributing (`true` wins over an existing `false`).
    pub fn insert(&mut self, path: &Path, contributing: bool) {
        self.edit().insert(path, contributing);
    }

    /// True if a node matching `path` exists (placeholder-tolerant).
    pub fn contains(&self, path: &Path) -> bool {
        self.roots.contains(path)
    }

    /// A clone without the nested-collection positions other than `pos`:
    /// directly below every node at one of `collections` (attribute paths;
    /// the empty path names no node), children labelled with another
    /// concrete position are left out together with their subtrees. For a
    /// group member at position `pos`, Alg. 4 reads nothing of those
    /// subtrees before it removes the collections (l. 13), provided `P.M`
    /// names positions only through `[pos]` placeholders — which is all
    /// capture records.
    pub(crate) fn clone_at_position(&self, collections: &[Path], pos: u32) -> ProvTree {
        fn go(nodes: &[BNode], below: &[&[Step]], pos: u32, in_collection: bool) -> Vec<BNode> {
            nodes
                .iter()
                .filter(|n| match n.label {
                    NodeLabel::Pos(i) => !in_collection || i == pos,
                    _ => true,
                })
                .map(|n| {
                    let rest: Vec<&[Step]> = below
                        .iter()
                        .filter_map(|steps| match steps.split_first() {
                            Some((step, rest)) if n.label.matches(step) => Some(rest),
                            _ => None,
                        })
                        .collect();
                    if rest.is_empty() {
                        return n.clone();
                    }
                    let is_collection = rest.iter().any(|r| r.is_empty());
                    BNode {
                        label: n.label.clone(),
                        children: go(&n.children, &rest, pos, is_collection),
                        accessed: n.accessed.clone(),
                        manipulated: n.manipulated.clone(),
                        contributing: n.contributing,
                    }
                })
                .collect()
        }
        let below: Vec<&[Step]> = collections.iter().map(Path::steps).collect();
        ProvTree {
            roots: Arc::new(Forest(go(&self.roots.0, &below, pos, false))),
        }
    }

    /// Removes all nodes matching `path` and their subtrees (Alg. 4 l. 13).
    pub fn remove_nodes(&mut self, path: &Path) {
        self.edit().remove_nodes(path);
    }

    /// The `manipulatePath` method of Sec. 6.2: if nodes matching the
    /// output path of mapping `m = ⟨in, out⟩` exist, they are transformed
    /// back to the input path, and `oid` is recorded in the relocated
    /// node's manipulation set. Returns `true` when the tree changed.
    ///
    /// The node at `out` keeps its children, flags, and operator sets; it
    /// is re-labelled with the terminal step of `in` and re-hung under
    /// `in`'s prefix (created on demand, inheriting the contributing flag).
    pub fn manipulate_path(&mut self, m_in: &Path, m_out: &Path, oid: OpId) -> bool {
        self.edit().manipulate_path(m_in, m_out, oid)
    }

    /// Applies several manipulations *atomically*: all output subtrees are
    /// detached before any is re-grafted, so mappings whose input paths
    /// overlap other mappings' output paths (e.g. attribute swaps in a
    /// `select`) are undone correctly. Returns `true` if any mapping moved
    /// nodes.
    pub fn manipulate_paths(&mut self, mappings: &[(Path, Path)], oid: OpId) -> bool {
        self.edit().manipulate_paths(mappings, oid)
    }

    /// The `accessPath` method of Sec. 6.2: ensures the nodes of `path`
    /// exist (newly created nodes are *influencing*, `c = false`) and adds
    /// `oid` to the access set of every node along the path.
    pub fn access_path(&mut self, path: &Path, oid: OpId) {
        self.edit().access_path(path, oid);
    }

    /// Replaces `[pos]` placeholder nodes matching `prefix` (a path whose
    /// last step is `[pos]`) with the concrete position `pos`, merging with
    /// an existing node of that position (the `mergeTrees` substitution of
    /// Alg. 2 l. 2).
    pub fn fill_placeholder(&mut self, prefix: &Path, pos: u32) {
        self.edit().fill_placeholder(prefix, pos);
    }

    /// Merges another tree into this one (same-id tree merging of Alg. 2).
    pub fn merge(&mut self, other: ProvTree) {
        self.edit().merge(Arc::unwrap_or_clone(other.roots));
    }

    /// Keeps only root attributes whose name satisfies `keep` (used by the
    /// join backtrace to prune the other input's schema).
    pub fn retain_roots(&mut self, keep: impl Fn(&str) -> bool) {
        self.edit().retain_roots(keep);
    }

    /// Enumerates `(path, node)` pairs in depth-first order.
    pub fn nodes(&self) -> Vec<(Path, &BNode)> {
        fn go<'a>(node: &'a BNode, prefix: &Path, out: &mut Vec<(Path, &'a BNode)>) {
            let p = prefix.child(node.label.to_step());
            out.push((p.clone(), node));
            for c in &node.children {
                go(c, &p, out);
            }
        }
        let mut out = Vec::new();
        for n in &self.roots.0 {
            go(n, &Path::root(), &mut out);
        }
        out
    }

    /// Adds `oid` to the manipulation set of every node (used by the `map`
    /// backtrace, which has no path information: everything may have been
    /// restructured).
    pub fn mark_all_manipulated(&mut self, oid: OpId) {
        self.edit().mark_all_manipulated(oid);
    }

    /// All contributing paths (paths to nodes with `c = true`).
    pub fn contributing_paths(&self) -> Vec<Path> {
        self.nodes()
            .into_iter()
            .filter(|(_, n)| n.contributing)
            .map(|(p, _)| p)
            .collect()
    }

    /// All influencing paths (nodes with `c = false`).
    pub fn influencing_paths(&self) -> Vec<Path> {
        self.nodes()
            .into_iter()
            .filter(|(_, n)| !n.contributing)
            .map(|(p, _)| p)
            .collect()
    }
}

/// The top-level nodes of one [`ProvTree`], where its mutations run (each
/// method is the one of the same name on [`ProvTree`]). Outside this module
/// it is reached only through [`ProvTree::edit`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub(crate) struct Forest(Vec<BNode>);

impl Forest {
    pub(crate) fn insert(&mut self, path: &Path, contributing: bool) {
        let mut nodes = &mut self.0;
        for step in path.steps() {
            let idx = match nodes.iter().position(|n| n.label.matches(step)) {
                Some(i) => i,
                None => {
                    let node = BNode::new(NodeLabel::from_step(step), contributing);
                    let at = nodes.partition_point(|n| n.label < node.label);
                    nodes.insert(at, node);
                    at
                }
            };
            nodes[idx].contributing |= contributing;
            nodes = &mut nodes[idx].children;
        }
    }

    pub(crate) fn contains(&self, path: &Path) -> bool {
        let Some((first, rest)) = path.steps().split_first() else {
            return false;
        };
        let mut frontier: Vec<&BNode> = self.0.iter().filter(|n| n.label.matches(first)).collect();
        for step in rest {
            frontier = frontier
                .into_iter()
                .flat_map(|n| &n.children)
                .filter(|c| c.label.matches(step))
                .collect();
        }
        !frontier.is_empty()
    }

    /// Detaches all nodes matching `path`, returning them.
    fn detach(&mut self, path: &Path) -> Vec<BNode> {
        fn go(nodes: &mut Vec<BNode>, steps: &[Step], out: &mut Vec<BNode>) {
            let Some((step, rest)) = steps.split_first() else {
                return;
            };
            if rest.is_empty() {
                let mut i = 0;
                while i < nodes.len() {
                    if nodes[i].label.matches(step) {
                        out.push(nodes.remove(i));
                    } else {
                        i += 1;
                    }
                }
            } else {
                for n in nodes.iter_mut() {
                    if n.label.matches(step) {
                        go(&mut n.children, rest, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        if !path.is_empty() {
            go(&mut self.0, path.steps(), &mut out);
        }
        out
    }

    pub(crate) fn remove_nodes(&mut self, path: &Path) {
        let _ = self.detach(path);
    }

    pub(crate) fn manipulate_path(&mut self, m_in: &Path, m_out: &Path, oid: OpId) -> bool {
        let detached = self.detach(m_out);
        if detached.is_empty() {
            return false;
        }
        self.graft(m_in, detached, oid);
        true
    }

    pub(crate) fn manipulate_paths(&mut self, mappings: &[(Path, Path)], oid: OpId) -> bool {
        let detached: Vec<(&Path, Vec<BNode>)> = mappings
            .iter()
            .map(|(m_in, m_out)| (m_in, self.detach(m_out)))
            .collect();
        let mut changed = false;
        for (m_in, nodes) in detached {
            if !nodes.is_empty() {
                self.graft(m_in, nodes, oid);
                changed = true;
            }
        }
        changed
    }

    /// Re-hangs detached nodes under `m_in` (relabelled with its terminal
    /// step), recording `oid` in their manipulation sets.
    fn graft(&mut self, m_in: &Path, detached: Vec<BNode>, oid: OpId) {
        let Some(terminal) = m_in.steps().last() else {
            return;
        };
        let prefix = Path::new(m_in.steps()[..m_in.len() - 1].iter().cloned());
        for mut node in detached {
            node.label = NodeLabel::from_step(terminal);
            node.manipulated.insert(oid);
            let contributing = node.contributing;
            // Ensure the prefix exists, then merge the node under it.
            self.insert(&prefix, contributing);
            let slot = if prefix.is_empty() {
                &mut self.0
            } else {
                &mut self
                    .find_mut(&prefix)
                    .expect("prefix just inserted")
                    .children
            };
            merge_sibling(slot, node);
        }
    }

    fn find_mut(&mut self, path: &Path) -> Option<&mut BNode> {
        fn go<'a>(nodes: &'a mut [BNode], steps: &[Step]) -> Option<&'a mut BNode> {
            let (step, rest) = steps.split_first()?;
            let idx = nodes.iter().position(|n| n.label.matches(step))?;
            let node = &mut nodes[idx];
            if rest.is_empty() {
                Some(node)
            } else {
                go(&mut node.children, rest)
            }
        }
        go(&mut self.0, path.steps())
    }

    pub(crate) fn access_path(&mut self, path: &Path, oid: OpId) {
        // Mark existing matching chains first.
        let mut marked_any = self.mark_access(path, oid);
        if !marked_any {
            // Materialize the path as influencing nodes.
            self.insert(path, false);
            marked_any = self.mark_access(path, oid);
        }
        debug_assert!(marked_any || path.is_empty());
    }

    fn mark_access(&mut self, path: &Path, oid: OpId) -> bool {
        fn go(nodes: &mut [BNode], steps: &[Step], oid: OpId) -> bool {
            let Some((step, rest)) = steps.split_first() else {
                return true;
            };
            let mut any = false;
            for n in nodes.iter_mut() {
                if n.label.matches(step) && (rest.is_empty() || go(&mut n.children, rest, oid)) {
                    n.accessed.insert(oid);
                    any = true;
                }
            }
            any
        }
        go(&mut self.0, path.steps(), oid)
    }

    pub(crate) fn fill_placeholder(&mut self, prefix: &Path, pos: u32) {
        let steps = prefix.steps();
        let Some((Step::AnyPos, init)) = steps.split_last() else {
            return;
        };
        let parent_path = Path::new(init.iter().cloned());
        let children = if parent_path.is_empty() {
            &mut self.0
        } else {
            match self.find_mut(&parent_path) {
                Some(n) => &mut n.children,
                None => return,
            }
        };
        if let Some(idx) = children.iter().position(|c| c.label == NodeLabel::AnyPos) {
            let mut node = children.remove(idx);
            node.label = NodeLabel::Pos(pos);
            merge_sibling(children, node);
        }
    }

    pub(crate) fn merge(&mut self, other: Forest) {
        for node in other.0 {
            merge_sibling(&mut self.0, node);
        }
    }

    pub(crate) fn retain_roots(&mut self, keep: impl Fn(&str) -> bool) {
        self.0.retain(|n| match &n.label {
            NodeLabel::Attr(a) => keep(a),
            _ => true,
        });
    }

    pub(crate) fn mark_all_manipulated(&mut self, oid: OpId) {
        fn go(node: &mut BNode, oid: OpId) {
            node.manipulated.insert(oid);
            for c in &mut node.children {
                go(c, oid);
            }
        }
        for n in &mut self.0 {
            go(n, oid);
        }
    }
}

impl fmt::Display for NodeLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeLabel::Attr(a) => write!(f, "{a}"),
            NodeLabel::Pos(i) => write!(f, "[{i}]"),
            NodeLabel::AnyPos => write!(f, "[pos]"),
        }
    }
}

impl fmt::Display for ProvTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(node: &BNode, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{}{}", "  ".repeat(depth), node.label)?;
            if !node.contributing {
                write!(f, " (influencing)")?;
            }
            if !node.accessed.is_empty() {
                let ops: Vec<String> = node.accessed.iter().map(u32::to_string).collect();
                write!(f, " a{{{}}}", ops.join(","))?;
            }
            if !node.manipulated.is_empty() {
                let ops: Vec<String> = node.manipulated.iter().map(u32::to_string).collect();
                write!(f, " m{{{}}}", ops.join(","))?;
            }
            writeln!(f)?;
            for c in &node.children {
                go(c, depth + 1, f)?;
            }
            Ok(())
        }
        for n in self.roots() {
            go(n, 0, f)?;
        }
        Ok(())
    }
}

/// The backtracing structure `B = {{⟨id, T⟩}}` (Def. 6.2).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Backtrace {
    /// Identifier/tree pairs.
    pub entries: Vec<(pebble_dataflow::ItemId, ProvTree)>,
}

impl Backtrace {
    /// Empty structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Groups entries by id, merging trees of equal ids (Alg. 2 l. 2); the
    /// result is ordered by id, and the trees of one id merge in entry
    /// order (the sort is stable).
    pub fn merge_by_id(&mut self) {
        self.merge_by_id_with(ProvTree::merge);
    }

    /// [`Backtrace::merge_by_id`], folding each later tree of an id into
    /// the kept one with `merge`. Returns the number of entries folded.
    pub(crate) fn merge_by_id_with(
        &mut self,
        mut merge: impl FnMut(&mut ProvTree, ProvTree),
    ) -> usize {
        if self.entries.windows(2).all(|w| w[0].0 < w[1].0) {
            return 0;
        }
        self.entries.sort_by_key(|(id, _)| *id);
        let before = self.entries.len();
        let mut merged: Vec<(pebble_dataflow::ItemId, ProvTree)> = Vec::with_capacity(before);
        for (id, tree) in self.entries.drain(..) {
            match merged.last_mut() {
                Some((kept_id, kept)) if *kept_id == id => merge(kept, tree),
                _ => merged.push((id, tree)),
            }
        }
        self.entries = merged;
        before - self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn tree(paths: &[&str]) -> ProvTree {
        let owned: Vec<Path> = paths.iter().map(|s| Path::parse(s)).collect();
        ProvTree::from_paths(owned.iter())
    }

    #[test]
    fn insert_and_contains() {
        let t = tree(&["user.id_str", "tweets[2].text", "tweets[3].text"]);
        assert!(t.contains(&Path::parse("user.id_str")));
        assert!(t.contains(&Path::parse("tweets[2]")));
        assert!(t.contains(&Path::parse("tweets[pos].text"))); // placeholder match
        assert!(!t.contains(&Path::parse("tweets[4]")));
        assert_eq!(t.len(), 7); // user, id_str, tweets, [2], text, [3], text
    }

    #[test]
    fn manipulate_renames_root_attr() {
        // select text → tweet: undo mapping ⟨text, tweet⟩.
        let mut t = tree(&["tweet"]);
        assert!(t.manipulate_path(&Path::attr("text"), &Path::attr("tweet"), 8));
        assert!(t.contains(&Path::attr("text")));
        assert!(!t.contains(&Path::attr("tweet")));
        let (_, n) = &t.nodes()[0];
        assert!(n.manipulated.contains(&8));
    }

    #[test]
    fn manipulate_relocates_subtree() {
        // flatten: undo ⟨user_mentions[pos], m_user⟩ — m_user.id_str
        // becomes user_mentions.[pos].id_str (Ex. 6.5).
        let mut t = tree(&["m_user.id_str"]);
        assert!(t.manipulate_path(&Path::parse("user_mentions[pos]"), &Path::attr("m_user"), 5));
        assert!(t.contains(&Path::parse("user_mentions[pos].id_str")));
        // Fill the placeholder with the recorded position (mergeTrees).
        t.fill_placeholder(&Path::parse("user_mentions[pos]"), 2);
        assert!(t.contains(&Path::parse("user_mentions[2].id_str")));
        // No placeholder label survives the merge substitution.
        assert!(t.nodes().iter().all(|(_, n)| n.label != NodeLabel::AnyPos));
    }

    #[test]
    fn manipulate_missing_out_is_noop() {
        let mut t = tree(&["a.b"]);
        assert!(!t.manipulate_path(&Path::attr("x"), &Path::attr("zz"), 1));
        assert!(t.contains(&Path::parse("a.b")));
    }

    #[test]
    fn manipulate_aggregation_example_6_6() {
        // Tree: tweets.2.text and tweets.3.text; member at pos 2 undoes
        // ⟨tweet, tweets[2]⟩; then the other positions are removed.
        let mut t = tree(&["tweets[2].text", "tweets[3].text", "user.id_str"]);
        let out = Path::parse("tweets[pos]").fill_placeholder(2);
        assert!(t.contains(&out));
        assert!(t.manipulate_path(&Path::attr("tweet"), &out, 9));
        assert!(t.contains(&Path::parse("tweet.text")));
        t.remove_nodes(&Path::attr("tweets"));
        assert!(!t.contains(&Path::parse("tweets[3]")));
        assert!(t.contains(&Path::parse("user.id_str")));
    }

    #[test]
    fn access_marks_existing_and_creates_influencing() {
        let mut t = tree(&["user.id_str"]);
        t.access_path(&Path::parse("user.name"), 9);
        t.access_path(&Path::parse("user.id_str"), 9);
        let nodes = t.nodes();
        let name = nodes
            .iter()
            .find(|(p, _)| *p == Path::parse("user.name"))
            .unwrap()
            .1;
        assert!(!name.contributing);
        assert!(name.accessed.contains(&9));
        let id = nodes
            .iter()
            .find(|(p, _)| *p == Path::parse("user.id_str"))
            .unwrap()
            .1;
        assert!(id.contributing);
        assert!(id.accessed.contains(&9));
        // The shared parent `user` is marked accessed too.
        let user = nodes
            .iter()
            .find(|(p, _)| *p == Path::attr("user"))
            .unwrap()
            .1;
        assert!(user.accessed.contains(&9));
    }

    #[test]
    fn merge_unions_flags() {
        let mut a = tree(&["x.y"]);
        let mut b = ProvTree::new();
        b.insert(&Path::parse("x.z"), false);
        b.access_path(&Path::parse("x.z"), 4);
        a.merge(b);
        assert!(a.contains(&Path::parse("x.y")));
        assert!(a.contains(&Path::parse("x.z")));
        let x = a.nodes()[0].1;
        assert!(x.contributing); // true wins
    }

    #[test]
    fn merge_by_id_groups_entries() {
        let mut b = Backtrace::new();
        b.entries.push((1, tree(&["a"])));
        b.entries.push((2, tree(&["b"])));
        b.entries.push((1, tree(&["c"])));
        b.merge_by_id();
        assert_eq!(b.entries.len(), 2);
        assert_eq!(b.entries[0].1.len(), 2); // a and c under id 1
    }

    /// The first-seen linear scan `merge_by_id` replaced (quadratic in the
    /// entry count) — kept as the reference the fast version must equal.
    fn merge_by_id_first_seen_scan(b: &mut Backtrace) {
        let mut merged: Vec<(pebble_dataflow::ItemId, ProvTree)> = Vec::new();
        for (id, tree) in b.entries.drain(..) {
            match merged.iter_mut().find(|(i, _)| *i == id) {
                Some((_, t)) => t.merge(tree),
                None => merged.push((id, tree)),
            }
        }
        merged.sort_by_key(|(id, _)| *id);
        b.entries = merged;
    }

    fn random_tree(rng: &mut StdRng) -> ProvTree {
        const PATHS: [&str; 8] = [
            "a", "a.b", "c[1].x", "c[2].x", "c[pos].y", "d.e.f", "g[3]", "h",
        ];
        let mut t = ProvTree::new();
        for _ in 0..rng.gen_range(0..4usize) {
            let path = Path::parse(PATHS[rng.gen_range(0..PATHS.len())]);
            if rng.gen_bool(0.5) {
                t.insert(&path, rng.gen_bool(0.5));
            } else {
                t.access_path(&path, rng.gen_range(1..4u32));
            }
        }
        t
    }

    #[test]
    fn merge_by_id_equals_first_seen_scan() {
        let mut rng = StdRng::seed_from_u64(21);
        for case in 0..300 {
            let n = rng.gen_range(0..40usize);
            let id_space = rng.gen_range(1..30u64);
            let mut entries: Vec<_> = (0..n)
                .map(|_| (rng.gen_range(0..id_space), random_tree(&mut rng)))
                .collect();
            match case % 3 {
                // Already sorted, duplicates adjacent.
                0 => entries.sort_by_key(|(id, _)| *id),
                // Strictly ascending: the early-out.
                1 => {
                    entries.sort_by_key(|(id, _)| *id);
                    entries.dedup_by_key(|(id, _)| *id);
                }
                _ => {}
            }
            let mut fast = Backtrace {
                entries: entries.clone(),
            };
            let mut reference = Backtrace { entries };
            fast.merge_by_id();
            merge_by_id_first_seen_scan(&mut reference);
            assert_eq!(fast, reference, "case {case}");
        }
    }

    /// `insert`, `merge`, `manipulate_path` and `fill_placeholder` find and
    /// place siblings by binary search, which relies on every sibling list
    /// being strictly ascending by label — and must keep it so.
    #[test]
    fn siblings_stay_sorted_by_label() {
        fn assert_sorted(nodes: &[BNode]) {
            assert!(nodes.windows(2).all(|w| w[0].label < w[1].label));
            for n in nodes {
                assert_sorted(&n.children);
            }
        }
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..300 {
            let mut t = random_tree(&mut rng);
            t.merge(random_tree(&mut rng));
            t.manipulate_path(&Path::parse("c[pos].z"), &Path::parse("a"), 5);
            t.manipulate_path(&Path::parse("b"), &Path::parse("d.e"), 6);
            t.fill_placeholder(&Path::parse("c[pos]"), rng.gen_range(1..4u32));
            assert_sorted(t.roots());
        }
    }

    /// A clone shares its nodes until one side writes: every mutator
    /// changes the clone it is applied to and leaves the original as it was
    /// rendered before.
    #[test]
    fn mutators_copy_on_write() {
        let original = tree(&["a.b", "c[pos].x", "d"]);
        let before = original.to_string();
        type Mutator = fn(&mut ProvTree);
        let mutators: [(&str, Mutator); 9] = [
            ("insert", |t| t.insert(&Path::parse("e.f"), true)),
            ("manipulate_path", |t| {
                t.manipulate_path(&Path::attr("z"), &Path::attr("d"), 1);
            }),
            ("manipulate_paths", |t| {
                t.manipulate_paths(&[(Path::attr("y"), Path::parse("a.b"))], 2);
            }),
            ("access_path", |t| t.access_path(&Path::parse("a.q"), 3)),
            ("fill_placeholder", |t| {
                t.fill_placeholder(&Path::parse("c[pos]"), 4)
            }),
            ("merge", |t| t.merge(tree(&["g"]))),
            ("retain_roots", |t| t.retain_roots(|name| name == "a")),
            ("remove_nodes", |t| t.remove_nodes(&Path::attr("d"))),
            ("mark_all_manipulated", |t| t.mark_all_manipulated(5)),
        ];
        for (name, mutate) in mutators {
            let mut copy = original.clone();
            assert_eq!(copy.alloc_id(), original.alloc_id());
            mutate(&mut copy);
            assert_ne!(copy.to_string(), before, "{name} changed nothing");
            assert_eq!(original.to_string(), before, "{name} wrote through");
        }
        // Merging a shared tree in copies it out, too.
        let mut other = tree(&["g"]);
        other.merge(original.clone());
        assert_eq!(original.to_string(), before);
    }

    #[test]
    fn mark_all_manipulated_for_map() {
        let mut t = tree(&["a.b", "c"]);
        t.mark_all_manipulated(7);
        assert!(t.nodes().iter().all(|(_, n)| n.manipulated.contains(&7)));
    }

    #[test]
    fn retain_roots_prunes_other_schema() {
        let mut t = tree(&["keep.x", "drop.y"]);
        t.retain_roots(|name| name == "keep");
        assert!(t.contains(&Path::parse("keep.x")));
        assert!(!t.contains(&Path::attr("drop")));
    }

    #[test]
    fn contributing_and_influencing_partition() {
        let mut t = tree(&["a"]);
        t.access_path(&Path::attr("b"), 1);
        assert_eq!(t.contributing_paths(), vec![Path::attr("a")]);
        assert_eq!(t.influencing_paths(), vec![Path::attr("b")]);
    }

    #[test]
    fn display_renders_markers() {
        let mut t = tree(&["user.id_str"]);
        t.access_path(&Path::parse("user.name"), 9);
        let s = t.to_string();
        assert!(s.contains("user"));
        assert!(s.contains("name (influencing) a{9}"));
    }
}
