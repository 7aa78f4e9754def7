//! Use-case layer (Secs. 1 and 7.3.5): data-usage heatmaps, auditing
//! reports, and co-access statistics for vertical partitioning.
//!
//! These analyses consume backtraced provenance over a common source
//! dataset, typically merged across a workload of scenarios (the paper
//! merges D1–D5 for Fig. 10).

use std::collections::BTreeMap;

use pebble_dataflow::hash::FxHashMap;
use pebble_nested::Path;

use crate::backtrace::SourceProvenance;
use crate::btree::NodeLabel;

/// Usage statistics for one top-level source item.
#[derive(Clone, Debug, Default)]
pub struct ItemUsage {
    /// How often the top-level item (tuple) contributed to a traced result
    /// — the leftmost heatmap column of Fig. 10.
    pub tuple_count: usize,
    /// Per top-level attribute: how often it *contributed*.
    pub contributing: BTreeMap<String, usize>,
    /// Per top-level attribute: how often it was accessed or manipulated
    /// without contributing (*influencing* only).
    pub influencing: BTreeMap<String, usize>,
}

impl ItemUsage {
    /// Total usage count of an attribute (contributing + influencing).
    pub fn total(&self, attr: &str) -> usize {
        self.contributing.get(attr).copied().unwrap_or(0)
            + self.influencing.get(attr).copied().unwrap_or(0)
    }
}

/// A usage heatmap over a source dataset (Fig. 10): per item index, tuple
/// and per-attribute counters.
#[derive(Clone, Debug, Default)]
pub struct Heatmap {
    /// Usage per source item index.
    pub items: BTreeMap<usize, ItemUsage>,
    /// All attribute names observed, in first-seen order.
    pub attributes: Vec<String>,
}

impl Heatmap {
    /// Empty heatmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges the provenance of one traced query over `source` into the
    /// heatmap. Call once per scenario to accumulate a workload view.
    pub fn absorb(&mut self, prov: &SourceProvenance) {
        for entry in &prov.entries {
            let usage = self.items.entry(entry.index).or_default();
            usage.tuple_count += 1;
            for node in entry.tree.roots() {
                let NodeLabel::Attr(name) = &node.label else {
                    continue;
                };
                if !self.attributes.iter().any(|a| a == name) {
                    self.attributes.push(name.clone());
                }
                let slot = if node.contributing {
                    usage.contributing.entry(name.clone()).or_insert(0)
                } else {
                    usage.influencing.entry(name.clone()).or_insert(0)
                };
                *slot += 1;
            }
        }
    }

    /// Items whose tuple count is zero within `0..n` (cold items).
    pub fn cold_items(&self, n: usize) -> Vec<usize> {
        (0..n)
            .filter(|i| self.items.get(i).is_none_or(|u| u.tuple_count == 0))
            .collect()
    }

    /// Attributes never used across all items (cold attributes) — the
    /// candidates for vertical partitioning into cold storage.
    pub fn cold_attributes<'a>(&self, all_attributes: &'a [String]) -> Vec<&'a String> {
        all_attributes
            .iter()
            .filter(|a| self.items.values().all(|u| u.total(a) == 0))
            .collect()
    }

    /// Renders the heatmap as a text table for `n` items over the given
    /// attribute columns (Fig. 10's layout: tuple column first).
    pub fn render(&self, n: usize, attributes: &[String]) -> String {
        let mut out = String::new();
        out.push_str("item  tuple");
        for a in attributes {
            out.push_str(&format!("  {a:>12}"));
        }
        out.push('\n');
        for i in 0..n {
            let empty = ItemUsage::default();
            let u = self.items.get(&i).unwrap_or(&empty);
            out.push_str(&format!("{i:>4}  {:>5}", u.tuple_count));
            for a in attributes {
                let c = u.contributing.get(a).copied().unwrap_or(0);
                let f = u.influencing.get(a).copied().unwrap_or(0);
                if c + f == 0 {
                    out.push_str(&format!("  {:>12}", "."));
                } else if f > 0 && c == 0 {
                    out.push_str(&format!("  {:>11}i", f));
                } else {
                    out.push_str(&format!("  {:>12}", c + f));
                }
            }
            out.push('\n');
        }
        out
    }
}

/// GDPR-style auditing report (Sec. 7.3.5): which attributes of which items
/// were *leaked* (contributing to the exposed result) vs merely
/// *influencing* (accessed, relevant for reconstruction-attack risk).
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Per source item index: leaked attribute paths.
    pub leaked: BTreeMap<usize, Vec<Path>>,
    /// Per source item index: influencing-only attribute paths.
    pub influencing: BTreeMap<usize, Vec<Path>>,
}

impl AuditReport {
    /// Builds the report from traced provenance over one source.
    pub fn from_provenance(prov: &SourceProvenance) -> Self {
        let mut report = AuditReport::default();
        for entry in &prov.entries {
            let leaked = entry.tree.contributing_paths();
            let influencing = entry.tree.influencing_paths();
            if !leaked.is_empty() {
                report.leaked.entry(entry.index).or_default().extend(leaked);
            }
            if !influencing.is_empty() {
                report
                    .influencing
                    .entry(entry.index)
                    .or_default()
                    .extend(influencing);
            }
        }
        report
    }

    /// Merges another report (e.g. from another scenario of the audited
    /// workload).
    pub fn merge(&mut self, other: AuditReport) {
        for (idx, mut paths) in other.leaked {
            self.leaked.entry(idx).or_default().append(&mut paths);
        }
        for (idx, mut paths) in other.influencing {
            self.influencing.entry(idx).or_default().append(&mut paths);
        }
    }

    /// Items with at least one leaked attribute.
    pub fn leaked_items(&self) -> Vec<usize> {
        self.leaked.keys().copied().collect()
    }
}

/// Counts how often pairs of top-level attributes contribute together in
/// the same provenance tree — the co-access signal for data-layout
/// optimization ("author and title are frequently processed together").
pub fn co_access_pairs(provs: &[&SourceProvenance]) -> Vec<((String, String), usize)> {
    let mut counts: FxHashMap<(String, String), usize> = FxHashMap::default();
    for prov in provs {
        for entry in &prov.entries {
            let mut attrs: Vec<&str> = entry
                .tree
                .roots()
                .iter()
                .filter_map(|n| match &n.label {
                    NodeLabel::Attr(a) if n.contributing => Some(a.as_str()),
                    _ => None,
                })
                .collect();
            attrs.sort_unstable();
            attrs.dedup();
            for i in 0..attrs.len() {
                for j in i + 1..attrs.len() {
                    *counts
                        .entry((attrs[i].to_string(), attrs[j].to_string()))
                        .or_insert(0) += 1;
                }
            }
        }
    }
    let mut out: Vec<_> = counts.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backtrace::TracedItem;
    use crate::btree::ProvTree;

    fn prov(entries: Vec<(usize, ProvTree)>) -> SourceProvenance {
        SourceProvenance {
            read_op: 0,
            source: "s".into(),
            entries: entries
                .into_iter()
                .map(|(index, tree)| TracedItem {
                    id: index as u64 + 1,
                    index,
                    tree,
                })
                .collect(),
        }
    }

    fn tree(contributing: &[&str], influencing: &[&str]) -> ProvTree {
        let mut t = ProvTree::new();
        for p in contributing {
            t.insert(&Path::parse(p), true);
        }
        for p in influencing {
            t.insert(&Path::parse(p), false);
        }
        t
    }

    #[test]
    fn heatmap_counts_contributions() {
        let mut h = Heatmap::new();
        h.absorb(&prov(vec![
            (0, tree(&["title"], &["year"])),
            (2, tree(&["title", "author"], &[])),
        ]));
        h.absorb(&prov(vec![(0, tree(&["author"], &[]))]));
        assert_eq!(h.items[&0].tuple_count, 2);
        assert_eq!(h.items[&0].contributing["title"], 1);
        assert_eq!(h.items[&0].influencing["year"], 1);
        assert_eq!(h.items[&2].contributing["author"], 1);
        assert_eq!(h.cold_items(4), vec![1, 3]);
    }

    #[test]
    fn heatmap_render_shapes() {
        let mut h = Heatmap::new();
        h.absorb(&prov(vec![(0, tree(&["title"], &["year"]))]));
        let attrs = vec!["title".to_string(), "year".to_string(), "ee".to_string()];
        let s = h.render(2, &attrs);
        assert!(s.contains("tuple"));
        assert!(s.lines().count() == 3);
        assert!(s.contains("1i") || s.contains(" i")); // influencing marker
        let cold = h.cold_attributes(&attrs);
        assert_eq!(cold, [&"ee".to_string()]);
    }

    #[test]
    fn audit_report_partitions_leakage() {
        let p = prov(vec![
            (0, tree(&["name"], &["year"])),
            (1, tree(&[], &["year"])),
        ]);
        let r = AuditReport::from_provenance(&p);
        assert_eq!(r.leaked_items(), vec![0]);
        assert!(r.influencing.contains_key(&1));
        let mut r2 = AuditReport::default();
        r2.merge(r);
        assert_eq!(r2.leaked_items(), vec![0]);
    }

    #[test]
    fn co_access_counts_pairs() {
        let p = prov(vec![
            (0, tree(&["author", "title"], &[])),
            (1, tree(&["author", "title", "year"], &[])),
            (2, tree(&["author"], &[])),
        ]);
        let pairs = co_access_pairs(&[&p]);
        assert_eq!(pairs[0], (("author".to_string(), "title".to_string()), 2));
    }
}
