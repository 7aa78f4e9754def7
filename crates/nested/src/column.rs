//! Column-major batches of [`DataItem`]s.
//!
//! The engine's morsel scheduler moves rows as `Vec<DataItem>`; a
//! [`ColumnBatch`] is the transposed, Arrow-flavoured view of the same
//! rows: one [`Column`] per distinct attribute [`Label`], nested bags and
//! sets as offset+child arrays, strings as shared `Arc<str>` handles. The
//! conversion is *lossless* — [`ColumnBatch::to_items`] reproduces the
//! original items bit-for-bit, including attribute order, the bag/set
//! distinction, and the `Int` vs `Double` variant of numerically equal
//! values — because structural provenance ids are positional and any drift
//! in shape would change what an id points at.
//!
//! Two pieces of metadata make losslessness cheap:
//!
//! * **Shapes** — the distinct attribute-label sequences that occur in the
//!   batch, plus a per-row shape index. Real datasets have a handful of
//!   shapes, so this costs one small `u32` per row while preserving each
//!   item's exact field order (and which fields are missing).
//! * **Presence rows** — a column that is absent from some rows stores the
//!   ascending row indices that do hold it; dense columns store nothing.
//!
//! A [`SelectionVector`] lets filters *mark* surviving rows instead of
//! moving them; downstream kernels loop over the selection and derive
//! output ids from positions within it.

use std::collections::HashMap;
use std::sync::Arc;

use crate::label::Label;
use crate::value::{DataItem, Value};

/// The rows a filter kept, as ascending indices into the batch (or, for
/// chained kernels, into the previous stage's output). Marking survivors
/// instead of compacting them keeps every untouched column shareable and
/// makes output ids fall out of the position *within* the selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionVector {
    sel: Vec<u32>,
}

impl SelectionVector {
    /// Selects every row of an `n`-row batch.
    pub fn all(n: usize) -> Self {
        SelectionVector {
            sel: (0..n as u32).collect(),
        }
    }

    /// An empty selection.
    pub fn empty() -> Self {
        SelectionVector { sel: Vec::new() }
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.sel.len()
    }

    /// True if nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.sel.is_empty()
    }

    /// The selected row indices, ascending.
    pub fn indices(&self) -> &[u32] {
        &self.sel
    }

    /// Appends a row index (must be greater than the last one).
    pub fn push(&mut self, row: u32) {
        debug_assert!(self.sel.last().is_none_or(|&l| l < row));
        self.sel.push(row);
    }

    /// Keeps only the selected rows for which `keep` returns true. The
    /// closure receives `(position_in_selection, row_index)` so filter
    /// kernels can pair each survivor with its pre-filter position.
    pub fn retain(&mut self, mut keep: impl FnMut(usize, u32) -> bool) {
        let mut pos = 0;
        self.sel.retain(|&row| {
            let k = keep(pos, row);
            pos += 1;
            k
        });
    }

    /// Fraction of `total` rows selected (1.0 for an empty batch).
    #[cfg(test)]
    fn density(&self, total: usize) -> f64 {
        if total == 0 {
            1.0
        } else {
            self.sel.len() as f64 / total as f64
        }
    }
}

/// The values of one column, specialized by kind when the column is
/// uniform and falling back to [`ColumnData::Mixed`] otherwise. The
/// fallback is what guarantees losslessness: nulls, nested items, and
/// mixed-kind columns keep their exact [`Value`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// All values are `Value::Int`.
    Int(Vec<i64>),
    /// All values are `Value::Double` (never merged with `Int`, so the
    /// variant of numerically equal values survives the round-trip).
    Double(Vec<f64>),
    /// All values are `Value::Bool`.
    Bool(Vec<bool>),
    /// All values are `Value::Str`; the `Arc` handles are shared with the
    /// source rows, so building the column never copies text.
    Str(Vec<Arc<str>>),
    /// All values are bags (or all sets): Arrow-style list column. Row `i`
    /// owns child elements `offsets[i]..offsets[i + 1]`.
    List {
        /// True when the source values were `Value::Set`, false for bags.
        set: bool,
        /// `len + 1` ascending element offsets into `child`.
        offsets: Vec<u32>,
        /// The concatenated elements of every row's collection.
        child: Box<ColumnData>,
    },
    /// Anything else: nulls, nested items, or a mix of kinds.
    Mixed(Vec<Value>),
}

impl ColumnData {
    /// Builds the best-specialized column for `values`.
    fn from_values(values: Vec<Value>) -> ColumnData {
        if values.is_empty() {
            return ColumnData::Mixed(values);
        }
        if values.iter().all(|v| matches!(v, Value::Int(_))) {
            return ColumnData::Int(
                values
                    .iter()
                    .map(|v| match v {
                        Value::Int(i) => *i,
                        _ => unreachable!(),
                    })
                    .collect(),
            );
        }
        if values.iter().all(|v| matches!(v, Value::Double(_))) {
            return ColumnData::Double(
                values
                    .iter()
                    .map(|v| match v {
                        Value::Double(d) => *d,
                        _ => unreachable!(),
                    })
                    .collect(),
            );
        }
        if values.iter().all(|v| matches!(v, Value::Bool(_))) {
            return ColumnData::Bool(
                values
                    .iter()
                    .map(|v| match v {
                        Value::Bool(b) => *b,
                        _ => unreachable!(),
                    })
                    .collect(),
            );
        }
        if values.iter().all(|v| matches!(v, Value::Str(_))) {
            return ColumnData::Str(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Str(s) => s,
                        _ => unreachable!(),
                    })
                    .collect(),
            );
        }
        let all_bags = values.iter().all(|v| matches!(v, Value::Bag(_)));
        let all_sets = !all_bags && values.iter().all(|v| matches!(v, Value::Set(_)));
        if all_bags || all_sets {
            let total: usize = values
                .iter()
                .map(|v| v.as_collection().map_or(0, <[Value]>::len))
                .sum();
            if let Ok(total) = u32::try_from(total) {
                let mut offsets = Vec::with_capacity(values.len() + 1);
                let mut child = Vec::with_capacity(total as usize);
                offsets.push(0u32);
                for v in values {
                    match v {
                        Value::Bag(vs) | Value::Set(vs) => child.extend(vs),
                        _ => unreachable!(),
                    }
                    offsets.push(child.len() as u32);
                }
                return ColumnData::List {
                    set: all_sets,
                    offsets,
                    child: Box::new(ColumnData::from_values(child)),
                };
            }
        }
        ColumnData::Mixed(values)
    }

    /// Consumes the column back into its exact [`Value`]s, in row order.
    /// The inverse of [`ColumnData::from_values`] without per-value deep
    /// clones: typed columns rewrap, list columns split their child by the
    /// stored offsets.
    fn into_values(self) -> Vec<Value> {
        match self {
            ColumnData::Int(v) => v.into_iter().map(Value::Int).collect(),
            ColumnData::Double(v) => v.into_iter().map(Value::Double).collect(),
            ColumnData::Bool(v) => v.into_iter().map(Value::Bool).collect(),
            ColumnData::Str(v) => v.into_iter().map(Value::Str).collect(),
            ColumnData::List {
                set,
                offsets,
                child,
            } => {
                let mut elems = child.into_values().into_iter();
                offsets
                    .windows(2)
                    .map(|w| {
                        let vs: Vec<Value> = elems.by_ref().take((w[1] - w[0]) as usize).collect();
                        if set {
                            Value::Set(vs)
                        } else {
                            Value::Bag(vs)
                        }
                    })
                    .collect()
            }
            ColumnData::Mixed(v) => v,
        }
    }

    /// Number of values in the column.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Double(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::List { offsets, .. } => offsets.len() - 1,
            ColumnData::Mixed(v) => v.len(),
        }
    }

    /// True if the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reconstructs the exact [`Value`] stored at `idx`.
    pub fn value(&self, idx: usize) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v[idx]),
            ColumnData::Double(v) => Value::Double(v[idx]),
            ColumnData::Bool(v) => Value::Bool(v[idx]),
            ColumnData::Str(v) => Value::Str(Arc::clone(&v[idx])),
            ColumnData::List {
                set,
                offsets,
                child,
            } => {
                let lo = offsets[idx] as usize;
                let hi = offsets[idx + 1] as usize;
                let vs: Vec<Value> = (lo..hi).map(|j| child.value(j)).collect();
                if *set {
                    Value::Set(vs)
                } else {
                    Value::Bag(vs)
                }
            }
            ColumnData::Mixed(v) => v[idx].clone(),
        }
    }
}

/// One attribute column of a [`ColumnBatch`].
#[derive(Debug, Clone)]
pub struct Column {
    /// The interned attribute name this column stores.
    pub label: Label,
    /// Ascending indices of the rows that hold this attribute; `None` when
    /// the column is dense (present in every row).
    pub rows: Option<Vec<u32>>,
    /// The column's values, in row order.
    pub data: ColumnData,
}

/// A column-major batch of [`DataItem`]s. See the module docs for the
/// layout and the losslessness argument.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    len: usize,
    shapes: Vec<Vec<Label>>,
    /// Shape index per row; empty means every row has shape 0 (the
    /// uniform batches built by the dense constructors skip the per-row
    /// vector entirely).
    row_shapes: Vec<u32>,
    columns: Vec<Column>,
}

impl ColumnBatch {
    /// Transposes `items` into columns. Values move by shallow clone —
    /// strings and nested items bump an `Arc`; only collection spines are
    /// copied into offset+child form.
    pub fn from_items(items: &[DataItem]) -> ColumnBatch {
        struct Builder {
            values: Vec<Value>,
            rows: Vec<u32>,
        }
        let mut shapes: Vec<Vec<Label>> = Vec::new();
        let mut shape_index: HashMap<Vec<Label>, u32> = HashMap::new();
        let mut row_shapes = Vec::with_capacity(items.len());
        let mut order: Vec<Label> = Vec::new();
        let mut builders: HashMap<Label, Builder> = HashMap::new();
        for (row, item) in items.iter().enumerate() {
            let labels: Vec<Label> = item.entries().iter().map(|(l, _)| l.clone()).collect();
            let shape = *shape_index.entry(labels.clone()).or_insert_with(|| {
                shapes.push(labels);
                (shapes.len() - 1) as u32
            });
            row_shapes.push(shape);
            for (label, value) in item.entries() {
                let b = builders.entry(label.clone()).or_insert_with(|| {
                    order.push(label.clone());
                    Builder {
                        values: Vec::new(),
                        rows: Vec::new(),
                    }
                });
                b.values.push(value.clone());
                b.rows.push(row as u32);
            }
        }
        let columns = order
            .into_iter()
            .map(|label| {
                let b = builders.remove(&label).expect("builder for ordered label");
                let rows = (b.rows.len() != items.len()).then_some(b.rows);
                Column {
                    label,
                    rows,
                    data: ColumnData::from_values(b.values),
                }
            })
            .collect();
        ColumnBatch {
            len: items.len(),
            shapes,
            row_shapes,
            columns,
        }
    }

    /// Builds a batch from already-columnar output: every column is dense
    /// (present in all `len` rows) and every row shares the single shape
    /// given by `labels`. This is how vectorized select kernels assemble
    /// their projection results column-at-a-time.
    ///
    /// `labels` must be distinct and `cols` must align with `labels`, each
    /// holding exactly `len` values.
    #[cfg(test)]
    fn from_dense_columns(len: usize, labels: Vec<Label>, cols: Vec<Vec<Value>>) -> ColumnBatch {
        debug_assert_eq!(labels.len(), cols.len());
        debug_assert!(cols.iter().all(|c| c.len() == len));
        debug_assert!(labels
            .iter()
            .enumerate()
            .all(|(i, l)| !labels[..i].contains(l)));
        let columns = labels
            .iter()
            .cloned()
            .zip(cols)
            .map(|(label, values)| Column {
                label,
                rows: None,
                data: ColumnData::from_values(values),
            })
            .collect();
        ColumnBatch {
            len,
            shapes: vec![labels],
            row_shapes: Vec::new(),
            columns,
        }
    }

    /// Builds a batch of dense [`ColumnData::Mixed`] columns without any
    /// type-specialization scan.
    /// The right constructor for batches that flow *between* pipeline
    /// stages and are consumed within the same unit: specialization would
    /// cost several full passes per column and buy nothing before the
    /// batch is torn back down.
    ///
    /// `labels` must be distinct and `cols` must align with `labels`, each
    /// holding exactly `len` values.
    pub fn from_mixed_columns(
        len: usize,
        labels: Vec<Label>,
        cols: Vec<Vec<Value>>,
    ) -> ColumnBatch {
        debug_assert_eq!(labels.len(), cols.len());
        debug_assert!(cols.iter().all(|c| c.len() == len));
        debug_assert!(labels
            .iter()
            .enumerate()
            .all(|(i, l)| !labels[..i].contains(l)));
        let columns = labels
            .iter()
            .cloned()
            .zip(cols)
            .map(|(label, values)| Column {
                label,
                rows: None,
                data: ColumnData::Mixed(values),
            })
            .collect();
        ColumnBatch {
            len,
            shapes: vec![labels],
            row_shapes: Vec::new(),
            columns,
        }
    }

    /// Consumes an all-dense batch back into `(labels, columns)` with the
    /// exact row-order values — the inverse of
    /// [`ColumnBatch::from_mixed_columns`].
    ///
    /// Panics if any column is sparse (missing in some rows): such a batch
    /// has no dense column form.
    pub fn into_mixed_columns(self) -> (Vec<Label>, Vec<Vec<Value>>) {
        let mut labels = Vec::with_capacity(self.columns.len());
        let mut cols = Vec::with_capacity(self.columns.len());
        for c in self.columns {
            assert!(c.rows.is_none(), "sparse column {} in dense batch", c.label);
            labels.push(c.label);
            cols.push(c.data.into_values());
        }
        (labels, cols)
    }

    /// The shape index of `row`.
    fn shape_of(&self, row: usize) -> usize {
        if self.row_shapes.is_empty() {
            0
        } else {
            self.row_shapes[row] as usize
        }
    }

    /// Consumes the batch into row-major items, reproducing the originals
    /// exactly like [`ColumnBatch::to_items`] but moving values out of the
    /// columns instead of cloning them.
    pub fn into_items(self) -> Vec<DataItem> {
        let ColumnBatch {
            len,
            shapes,
            row_shapes,
            columns,
        } = self;
        let labels: Vec<Label> = columns.iter().map(|c| c.label.clone()).collect();
        let mut iters: Vec<std::vec::IntoIter<Value>> = columns
            .into_iter()
            .map(|c| c.data.into_values().into_iter())
            .collect();
        // Uniform batch whose single shape lists the columns in column
        // order (what the dense constructors build): zip the columns
        // straight into rows, skipping the per-field label lookup.
        if shapes.len() == 1 && shapes[0] == labels {
            return (0..len)
                .map(|_| {
                    let fields = labels
                        .iter()
                        .zip(&mut iters)
                        .map(|(label, it)| (label.clone(), it.next().expect("column underrun")))
                        .collect();
                    DataItem::from_parts(fields)
                })
                .collect();
        }
        let index: HashMap<&Label, usize> =
            labels.iter().enumerate().map(|(i, l)| (l, i)).collect();
        let mut out = Vec::with_capacity(len);
        for row in 0..len {
            let shape_idx = if row_shapes.is_empty() {
                0
            } else {
                row_shapes[row] as usize
            };
            let shape = &shapes[shape_idx];
            let mut fields = Vec::with_capacity(shape.len());
            for label in shape {
                let value = iters[index[label]].next().expect("column underrun");
                fields.push((label.clone(), value));
            }
            out.push(DataItem::from_parts(fields));
        }
        out
    }

    /// Transposes the batch back into row-major items, reproducing the
    /// originals exactly (see module docs).
    pub fn to_items(&self) -> Vec<DataItem> {
        let index: HashMap<&Label, usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| (&c.label, i))
            .collect();
        let mut cursors = vec![0usize; self.columns.len()];
        let mut out = Vec::with_capacity(self.len);
        for row in 0..self.len {
            let shape = &self.shapes[self.shape_of(row)];
            let mut fields = Vec::with_capacity(shape.len());
            for label in shape {
                let col = index[label];
                let c = &self.columns[col];
                let pos = cursors[col];
                debug_assert!(c.rows.as_ref().is_none_or(|rs| rs[pos] == row as u32));
                fields.push((label.clone(), c.data.value(pos)));
                cursors[col] = pos + 1;
            }
            out.push(DataItem::from_parts(fields));
        }
        out
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The attribute columns, in first-seen label order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Looks up the column for `label`, if any row has that attribute.
    pub fn column(&self, label: &Label) -> Option<&Column> {
        self.columns.iter().find(|c| c.label == *label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(items: Vec<DataItem>) {
        let batch = ColumnBatch::from_items(&items);
        assert_eq!(batch.len(), items.len());
        let back = batch.to_items();
        assert_eq!(back, items);
        for (a, b) in items.iter().zip(&back) {
            assert_eq!(a.to_string(), b.to_string());
        }
        assert_eq!(batch.into_items(), items);
    }

    #[test]
    fn dense_columns_roundtrip_through_into_items() {
        let labels = vec![Label::new("n"), Label::new("s")];
        let cols = vec![
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::str("a"), Value::str("b")],
        ];
        let batch = ColumnBatch::from_dense_columns(2, labels, cols);
        assert_eq!(
            batch.into_items(),
            vec![
                DataItem::from_fields([("n", Value::Int(1)), ("s", Value::str("a"))]),
                DataItem::from_fields([("n", Value::Int(2)), ("s", Value::str("b"))]),
            ]
        );
    }

    #[test]
    fn roundtrip_uniform_rows() {
        roundtrip(vec![
            DataItem::from_fields([("id", Value::Int(1)), ("name", Value::str("a"))]),
            DataItem::from_fields([("id", Value::Int(2)), ("name", Value::str("b"))]),
        ]);
    }

    #[test]
    fn roundtrip_missing_attributes_and_order() {
        roundtrip(vec![
            DataItem::from_fields([("a", Value::Int(1)), ("b", Value::str("x"))]),
            DataItem::from_fields([("b", Value::str("y"))]),
            // Different field order is a different shape and must survive.
            DataItem::from_fields([("b", Value::str("z")), ("a", Value::Int(3))]),
            DataItem::new(),
        ]);
    }

    #[test]
    fn roundtrip_nested_lists_and_items() {
        let mention = |id: i64| {
            Value::Item(DataItem::from_fields([
                ("id", Value::Int(id)),
                ("name", Value::str(format!("u{id}"))),
            ]))
        };
        roundtrip(vec![
            DataItem::from_fields([
                ("text", Value::str("hi")),
                ("mentions", Value::Bag(vec![mention(1), mention(2)])),
            ]),
            DataItem::from_fields([("text", Value::str("lo")), ("mentions", Value::Bag(vec![]))]),
        ]);
    }

    #[test]
    fn roundtrip_preserves_bag_vs_set_and_int_vs_double() {
        roundtrip(vec![
            DataItem::from_fields([("s", Value::Set(vec![Value::Int(1)])), ("n", Value::Int(1))]),
            DataItem::from_fields([("s", Value::Set(vec![Value::Int(2)])), ("n", Value::Int(2))]),
        ]);
        // Int(1) == Double(1.0) under Value::Eq; the variant must still
        // survive, so check it explicitly.
        let items = vec![
            DataItem::from_fields([("n", Value::Int(1))]),
            DataItem::from_fields([("n", Value::Double(1.0))]),
        ];
        let back = ColumnBatch::from_items(&items).to_items();
        assert!(matches!(back[0].get("n"), Some(Value::Int(1))));
        assert!(matches!(back[1].get("n"), Some(Value::Double(d)) if *d == 1.0));
    }

    #[test]
    fn roundtrip_nulls_and_mixed_kinds() {
        roundtrip(vec![
            DataItem::from_fields([("v", Value::Null)]),
            DataItem::from_fields([("v", Value::Int(2))]),
            DataItem::from_fields([("v", Value::str("three"))]),
        ]);
    }

    #[test]
    fn typed_columns_specialize() {
        let items = vec![
            DataItem::from_fields([("n", Value::Int(1)), ("s", Value::str("a"))]),
            DataItem::from_fields([("n", Value::Int(2)), ("s", Value::str("b"))]),
        ];
        let batch = ColumnBatch::from_items(&items);
        assert!(matches!(
            batch.column(&Label::new("n")).unwrap().data,
            ColumnData::Int(_)
        ));
        assert!(matches!(
            batch.column(&Label::new("s")).unwrap().data,
            ColumnData::Str(_)
        ));
        assert!(batch.column(&Label::new("n")).unwrap().rows.is_none());
    }

    #[test]
    fn list_columns_use_offsets() {
        let items = vec![
            DataItem::from_fields([("xs", Value::Bag(vec![Value::Int(1), Value::Int(2)]))]),
            DataItem::from_fields([("xs", Value::Bag(vec![]))]),
            DataItem::from_fields([("xs", Value::Bag(vec![Value::Int(3)]))]),
        ];
        let batch = ColumnBatch::from_items(&items);
        match &batch.column(&Label::new("xs")).unwrap().data {
            ColumnData::List {
                set,
                offsets,
                child,
            } => {
                assert!(!set);
                assert_eq!(offsets, &[0, 2, 2, 3]);
                assert!(matches!(**child, ColumnData::Int(_)));
            }
            other => panic!("expected list column, got {other:?}"),
        }
        roundtrip(items);
    }

    #[test]
    fn selection_vector_marks_rows() {
        let mut sel = SelectionVector::all(5);
        assert_eq!(sel.len(), 5);
        sel.retain(|_, row| row % 2 == 0);
        assert_eq!(sel.indices(), &[0, 2, 4]);
        assert_eq!(sel.density(5), 0.6);
        let mut positions = Vec::new();
        sel.retain(|pos, _| {
            positions.push(pos);
            true
        });
        assert_eq!(positions, [0, 1, 2]);
        assert!(SelectionVector::empty().is_empty());
    }
}
