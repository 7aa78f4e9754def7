//! Nested values and data items (Def. 4.1 of the paper).
//!
//! A [`Value`] is either a constant, a [`DataItem`] (an ordered list of
//! uniquely named attribute/value pairs), an ordered *bag* (list with
//! duplicates), or a *set* (list without duplicates). Datasets processed by
//! the dataflow engine are lists of top-level [`DataItem`]s.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::label::Label;

/// A nested value: constant, data item, bag, or set.
///
/// Bags keep insertion order and duplicates; sets keep insertion order of
/// first occurrences and reject duplicates (see [`Value::set_from`]).
///
/// `Double` values compare and hash via [`f64::total_cmp`] / bit patterns so
/// that `Value` can serve as a grouping key.
#[derive(Debug, Clone)]
pub enum Value {
    /// Absent / undefined value (e.g. the dangling side of a union).
    Null,
    /// Boolean constant.
    Bool(bool),
    /// 64-bit integer constant.
    Int(i64),
    /// 64-bit floating point constant.
    Double(f64),
    /// String constant. Shared so that cloning a value — which the engine
    /// does once per operator a row passes through — never copies the text.
    Str(Arc<str>),
    /// A complex data item with named attributes.
    Item(DataItem),
    /// An ordered collection that may contain duplicates (`{{ … }}`).
    Bag(Vec<Value>),
    /// An ordered collection without duplicates (`{ … }`).
    Set(Vec<Value>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// Builds a set, dropping duplicates while keeping first-occurrence order.
    pub fn set_from(values: impl IntoIterator<Item = Value>) -> Self {
        let mut out: Vec<Value> = Vec::new();
        for v in values {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        Value::Set(out)
    }

    /// Returns the contained data item, if this is an `Item`.
    pub fn as_item(&self) -> Option<&DataItem> {
        match self {
            Value::Item(d) => Some(d),
            _ => None,
        }
    }

    /// Returns the elements if this is a bag or a set.
    pub fn as_collection(&self) -> Option<&[Value]> {
        match self {
            Value::Bag(vs) | Value::Set(vs) => Some(vs),
            _ => None,
        }
    }

    /// Returns the contained integer, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the contained double, widening integers.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(d) => Some(*d),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the contained string slice, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the contained boolean, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// True if the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Number of nested *value annotations* a Lipstick-style system would
    /// need: one per constant, item, and collection element, recursively.
    /// (Used by the baseline comparison of Sec. 2: 35 vs 5 annotations.)
    pub fn annotation_count(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) | Value::Int(_) | Value::Double(_) | Value::Str(_) => 1,
            Value::Item(d) => 1 + d.fields().map(|(_, v)| v.annotation_count()).sum::<usize>(),
            Value::Bag(vs) | Value::Set(vs) => {
                1 + vs.iter().map(Value::annotation_count).sum::<usize>()
            }
        }
    }

    /// Approximate in-memory footprint in bytes (used for provenance-size
    /// accounting in the Fig. 8 experiments).
    pub fn deep_size(&self) -> usize {
        let base = std::mem::size_of::<Value>();
        match self {
            Value::Str(s) => base + s.len(),
            Value::Item(d) => {
                base + d
                    .fields()
                    .map(|(n, v)| n.len() + v.deep_size())
                    .sum::<usize>()
            }
            Value::Bag(vs) | Value::Set(vs) => {
                base + vs.iter().map(Value::deep_size).sum::<usize>()
            }
            _ => base,
        }
    }

    fn variant_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Double(_) => 3,
            Value::Str(_) => 4,
            Value::Item(_) => 5,
            Value::Bag(_) => 6,
            Value::Set(_) => 7,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            // Numeric cross-type comparison so Int(1) == Double(1.0) in
            // predicates; ranks only break ties between distinct kinds.
            (Int(a), Double(b)) => (*a as f64).total_cmp(b),
            (Double(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Item(a), Item(b)) => a.cmp(b),
            (Bag(a), Bag(b)) | (Set(a), Set(b)) => a.cmp(b),
            (a, b) => a.variant_rank().cmp(&b.variant_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // Int and Double hash identically for integral values, matching
            // the Ord impl above (Int(1) == Double(1.0)).
            Value::Int(i) => {
                state.write_u8(2);
                (*i as f64).to_bits().hash(state);
            }
            Value::Double(d) => {
                state.write_u8(2);
                d.to_bits().hash(state);
            }
            Value::Str(s) => {
                state.write_u8(4);
                s.hash(state);
            }
            Value::Item(d) => {
                state.write_u8(5);
                d.hash(state);
            }
            Value::Bag(vs) => {
                state.write_u8(6);
                vs.hash(state);
            }
            Value::Set(vs) => {
                state.write_u8(7);
                vs.hash(state);
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<DataItem> for Value {
    fn from(v: DataItem) -> Self {
        Value::Item(v)
    }
}

/// A complex data item: an ordered list of `attribute: value` pairs with
/// unique attribute names (Def. 4.1).
///
/// The field list lives behind an [`Arc`]: cloning an item — the dominant
/// operation on the engine's pass-through hot path — bumps one reference
/// count instead of copying every label and value. Mutators copy-on-write
/// via [`Arc::make_mut`], so a uniquely-owned item mutates in place and a
/// shared one is detached first.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataItem {
    fields: Arc<Vec<(Label, Value)>>,
}

impl DataItem {
    /// Creates an empty data item.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a data item from `(name, value)` pairs.
    ///
    /// # Panics
    /// Panics if an attribute name occurs twice; attribute labels must be
    /// unique within a data item.
    pub fn from_fields(fields: impl IntoIterator<Item = (impl Into<Label>, Value)>) -> Self {
        let fields = fields.into_iter();
        let mut item = DataItem {
            fields: Arc::new(Vec::with_capacity(fields.size_hint().0)),
        };
        for (name, value) in fields {
            item.push(name, value);
        }
        item
    }

    /// Wraps pre-built fields without the per-push duplicate scan of
    /// [`DataItem::push`]. Callers must guarantee unique labels (checked in
    /// debug builds); the columnar kernels use this when the label set was
    /// validated once at plan time instead of once per row.
    pub fn from_parts(fields: Vec<(Label, Value)>) -> Self {
        debug_assert!(
            fields
                .iter()
                .enumerate()
                .all(|(i, (n, _))| fields[..i].iter().all(|(m, _)| m != n)),
            "duplicate attribute name in data item parts"
        );
        DataItem {
            fields: Arc::new(fields),
        }
    }

    /// The raw `(label, value)` pairs in attribute order. Unlike
    /// [`DataItem::fields`] this exposes the interned [`Label`]s, so
    /// scanning code can compare them by pointer.
    pub fn entries(&self) -> &[(Label, Value)] {
        &self.fields
    }

    /// Appends an attribute.
    ///
    /// # Panics
    /// Panics if the attribute name already exists.
    pub fn push(&mut self, name: impl Into<Label>, value: Value) {
        let name = name.into();
        assert!(
            self.position(&name).is_none(),
            "duplicate attribute name `{name}` in data item"
        );
        Arc::make_mut(&mut self.fields).push((name, value));
    }

    /// Index of the attribute called `name`. Comparing interned labels
    /// finds a match by pointer and usually rules one out by length, where
    /// the `&str` lookups below compare content on every field.
    fn position(&self, name: &Label) -> Option<usize> {
        self.fields.iter().position(|(n, _)| n == name)
    }

    /// Builder-style variant of [`DataItem::push`].
    pub fn with(mut self, name: impl Into<Label>, value: Value) -> Self {
        self.push(name, value);
        self
    }

    /// Looks up an attribute value by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields
            .iter()
            .find_map(|(n, v)| (*n == *name).then_some(v))
    }

    /// Mutable lookup by attribute name.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Value> {
        Arc::make_mut(&mut self.fields)
            .iter_mut()
            .find_map(|(n, v)| (*n == *name).then_some(v))
    }

    /// Replaces the value of `name`, or appends it if absent.
    pub fn set(&mut self, name: impl Into<Label>, value: Value) {
        let name = name.into();
        let at = self.position(&name);
        let fields = Arc::make_mut(&mut self.fields);
        match at {
            Some(i) => fields[i].1 = value,
            None => fields.push((name, value)),
        }
    }

    /// Removes an attribute, returning its value.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        let idx = self.fields.iter().position(|(n, _)| *n == *name)?;
        Some(Arc::make_mut(&mut self.fields).remove(idx).1)
    }

    /// Iterates over `(name, value)` pairs in attribute order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Attribute names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(n, _)| n.as_str())
    }

    /// Number of top-level attributes.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the item has no attributes.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Merges `other` into `self` for join results `⟨i, j⟩`. Name clashes
    /// from the right side are disambiguated with a `_r` suffix, mirroring
    /// how DISC systems qualify ambiguous columns.
    pub fn merged(&self, other: &DataItem) -> DataItem {
        let mut fields = Vec::with_capacity(self.len() + other.len());
        fields.extend_from_slice(&self.fields);
        let mut out = DataItem {
            fields: Arc::new(fields),
        };
        for (name, value) in other.fields.iter() {
            let mut name = name.clone();
            while out.position(&name).is_some() {
                name = Label::new(&format!("{name}_r"));
            }
            // `name` was just checked against every field of `out`.
            Arc::make_mut(&mut out.fields).push((name, value.clone()));
        }
        out
    }

    /// Allocated slots beyond the fields in use.
    #[cfg(test)]
    pub(crate) fn spare_capacity(&self) -> usize {
        self.fields.capacity() - self.fields.len()
    }

    /// See [`Value::deep_size`].
    pub fn deep_size(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .fields()
                .map(|(n, v)| n.len() + v.deep_size())
                .sum::<usize>()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Item(d) => write!(f, "{d}"),
            Value::Bag(vs) => {
                write!(f, "{{{{")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}}}")
            }
            Value::Set(vs) => {
                write!(f, "{{")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl fmt::Display for DataItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, (n, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}: {v}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item() -> DataItem {
        DataItem::from_fields([
            ("id_str", Value::str("lp")),
            ("name", Value::str("Lisa Paul")),
        ])
    }

    #[test]
    fn item_get_and_order() {
        let d = item();
        assert_eq!(d.get("id_str"), Some(&Value::str("lp")));
        assert_eq!(d.get("missing"), None);
        let names: Vec<_> = d.names().collect();
        assert_eq!(names, ["id_str", "name"]);
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicate_attribute_rejected() {
        DataItem::from_fields([("a", Value::Int(1)), ("a", Value::Int(2))]);
    }

    #[test]
    fn set_deduplicates_preserving_order() {
        let s = Value::set_from([Value::Int(2), Value::Int(1), Value::Int(2)]);
        assert_eq!(s, Value::Set(vec![Value::Int(2), Value::Int(1)]));
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(1), Value::Double(1.0));
        assert_ne!(Value::Int(1), Value::Double(1.5));
        assert!(Value::Int(1) < Value::Double(1.5));
    }

    #[test]
    fn hash_consistent_with_eq_for_numbers() {
        use std::collections::hash_map::DefaultHasher;
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(4)), h(&Value::Double(4.0)));
    }

    #[test]
    fn merged_disambiguates_clashes() {
        let l = DataItem::from_fields([("a", Value::Int(1))]);
        let r = DataItem::from_fields([("a", Value::Int(2)), ("b", Value::Int(3))]);
        let m = l.merged(&r);
        assert_eq!(m.get("a"), Some(&Value::Int(1)));
        assert_eq!(m.get("a_r"), Some(&Value::Int(2)));
        assert_eq!(m.get("b"), Some(&Value::Int(3)));
    }

    #[test]
    fn annotation_count_counts_every_nested_value() {
        // ⟨text, user_mentions: {{⟨id,name⟩}}⟩ => item(1) + text(1)
        //  + bag(1) + inner item(1) + id(1) + name(1) = 6
        let d = DataItem::from_fields([
            ("text", Value::str("hi")),
            ("user_mentions", Value::Bag(vec![Value::Item(item())])),
        ]);
        assert_eq!(Value::Item(d).annotation_count(), 6);
    }

    #[test]
    fn bag_vs_set_not_equal() {
        assert_ne!(Value::Bag(vec![]), Value::Set(vec![]));
    }

    #[test]
    fn remove_and_set() {
        let mut d = item();
        assert_eq!(d.remove("name"), Some(Value::str("Lisa Paul")));
        assert_eq!(d.len(), 1);
        d.set("id_str", Value::str("xx"));
        assert_eq!(d.get("id_str"), Some(&Value::str("xx")));
        d.set("fresh", Value::Int(1));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn display_round_shapes() {
        let d = DataItem::from_fields([("a", Value::Bag(vec![Value::Int(1), Value::Int(2)]))]);
        assert_eq!(format!("{d}"), "⟨a: {{1, 2}}⟩");
    }
}
