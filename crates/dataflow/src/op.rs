//! Logical operators (Def. 4.5) with the semantics of Tab. 5 and static
//! output-schema inference.
//!
//! The supported algebra matches the paper: `read`, `filter`, `select`,
//! `map`, `join`, `union`, `flatten`, and `group-aggregate` (the paper's
//! `grouping` immediately followed by `aggregation`/nesting, fused as in
//! Spark's `groupBy(...).agg(...)`; the backtracing of Alg. 4 also treats
//! the pair as one step back to the grouping's input).

use std::fmt;
use std::sync::Arc;

use pebble_nested::{DataItem, DataType, Field, Path, Step, Value};

use crate::error::{EngineError, Result};
use crate::expr::{Expr, SelectExpr};

/// Operator identifier, unique within a [`crate::program::Program`].
pub type OpId = u32;

/// A named projection in a `select`.
#[derive(Clone, Debug)]
pub struct NamedExpr {
    /// Output attribute name.
    pub name: String,
    /// Projection expression.
    pub expr: SelectExpr,
}

impl NamedExpr {
    /// Creates a named projection.
    pub fn new(name: impl Into<String>, expr: SelectExpr) -> Self {
        NamedExpr {
            name: name.into(),
            expr,
        }
    }

    /// Shorthand: copy `path` under its last attribute name. A path with
    /// no attribute step (e.g. a bare index) falls back to the full path
    /// string as the output name rather than failing.
    pub fn path(path: &str) -> Self {
        let p = Path::parse(path);
        let name = last_attr_name(&p).unwrap_or_else(|| p.to_string());
        NamedExpr::new(name, SelectExpr::Path(p))
    }

    /// Shorthand: copy `path` under an explicit alias.
    pub fn aliased(name: impl Into<String>, path: &str) -> Self {
        NamedExpr::new(name, SelectExpr::path(path))
    }
}

/// Returns the name of the last attribute step of a path.
fn last_attr_name(p: &Path) -> Option<String> {
    p.steps().iter().rev().find_map(|s| match s {
        Step::Attr(n) => Some(n.clone()),
        _ => None,
    })
}

/// Grouping key: a path into the input and the output attribute name.
#[derive(Clone, Debug)]
pub struct GroupKey {
    /// Key path in the input schema.
    pub path: Path,
    /// Output attribute name.
    pub name: String,
}

impl GroupKey {
    /// Key named after the path's last attribute; a path with no attribute
    /// step falls back to the full path string as the output name.
    pub fn new(path: &str) -> Self {
        let p = Path::parse(path);
        GroupKey {
            name: last_attr_name(&p).unwrap_or_else(|| p.to_string()),
            path: p,
        }
    }

    /// Key with an explicit output name.
    pub fn aliased(name: impl Into<String>, path: &str) -> Self {
        GroupKey {
            path: Path::parse(path),
            name: name.into(),
        }
    }
}

/// Aggregation functions (Sec. 5.0.3): scalar-producing `A_c` and
/// collection-producing `A_B`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count of the group (scalar).
    Count,
    /// Numeric sum (scalar).
    Sum,
    /// Minimum by value order (scalar).
    Min,
    /// Maximum by value order (scalar).
    Max,
    /// Numeric average (scalar, `Double`).
    Avg,
    /// Nest the group's values into a bag (`collect_list`).
    CollectList,
    /// Nest the group's distinct values into a set (`collect_set`).
    CollectSet,
}

impl AggFunc {
    /// True for the collection-producing functions `A_B`.
    fn is_nesting(self) -> bool {
        matches!(self, AggFunc::CollectList | AggFunc::CollectSet)
    }
}

/// One aggregation `α(a) → name`.
#[derive(Clone, Debug)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Input path (ignored by `Count`, which counts group rows; use
    /// `Path::root()` there).
    pub input: Path,
    /// Output attribute name.
    pub output: String,
}

impl AggSpec {
    /// Creates an aggregation spec.
    pub fn new(func: AggFunc, input: &str, output: impl Into<String>) -> Self {
        AggSpec {
            func,
            input: if input.is_empty() {
                Path::root()
            } else {
                Path::parse(input)
            },
            output: output.into(),
        }
    }
}

/// Opaque item-level user-defined function for `map`.
#[derive(Clone)]
pub struct MapUdf {
    /// Display name.
    pub name: String,
    /// Implementation: full item in, full item out.
    pub f: Arc<dyn Fn(&DataItem) -> DataItem + Send + Sync>,
    /// Optional declared output type; `None` leaves the schema unknown
    /// (`DataType::Null`), which downstream operators treat as wildcard.
    pub output_schema: Option<DataType>,
}

impl fmt::Debug for MapUdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MapUdf({})", self.name)
    }
}

/// The operator kinds.
#[derive(Clone, Debug)]
pub enum OpKind {
    /// Scan a named source registered in the context.
    Read {
        /// Source name.
        source: String,
    },
    /// Keep items satisfying the predicate (Tab. 5 `Filter*`).
    Filter {
        /// Boolean predicate `φ(i)`.
        predicate: Expr,
    },
    /// Project/restructure each item (Tab. 5 `Select*`).
    Select {
        /// Output attributes in order.
        exprs: Vec<NamedExpr>,
    },
    /// Apply an opaque UDF per item (Tab. 5 `Map*`; provenance `A = M = ⊥`).
    Map {
        /// The function.
        udf: MapUdf,
    },
    /// Equi-join two inputs (Tab. 5 `Join`); result is `⟨i, j⟩` with right
    /// attribute names disambiguated on clash.
    Join {
        /// Pairs of (left path, right path) compared for equality.
        keys: Vec<(Path, Path)>,
    },
    /// Bag union of two type-compatible inputs (Tab. 5 `Union*`).
    Union,
    /// Unnest one element of the collection at `col` per output item
    /// (Tab. 5 `Flatten`): `r = ⟨i, new_attr: j⟩`, keeping all original
    /// attributes.
    Flatten {
        /// Collection attribute `a_col` to explode.
        col: Path,
        /// Name of the new attribute `a_new` holding one element.
        new_attr: String,
    },
    /// Grouping followed by aggregation/nesting (Tab. 5 `Grouping*` +
    /// `Aggregation`).
    GroupAggregate {
        /// Grouping keys `G`.
        keys: Vec<GroupKey>,
        /// Aggregations `A_c ∪ A_B`.
        aggs: Vec<AggSpec>,
    },
}

impl OpKind {
    /// The paper's operator type name (used in provenance structures and
    /// the backtracing dispatch of Alg. 1).
    pub fn type_name(&self) -> &'static str {
        match self {
            OpKind::Read { .. } => "read",
            OpKind::Filter { .. } => "filter",
            OpKind::Select { .. } => "select",
            OpKind::Map { .. } => "map",
            OpKind::Join { .. } => "join",
            OpKind::Union => "union",
            OpKind::Flatten { .. } => "flatten",
            OpKind::GroupAggregate { .. } => "aggregation",
        }
    }

    /// Whether the operator can invoke user code (a UDF) and therefore
    /// panic at row level. Drives both the per-row `catch_unwind` guards in
    /// the executor and the `udf` flag of the run report's operator table.
    pub fn can_panic(&self) -> bool {
        match self {
            OpKind::Filter { predicate } => predicate.contains_udf(),
            OpKind::Select { exprs } => exprs.iter().any(|ne| ne.expr.contains_udf()),
            OpKind::Map { .. } => true,
            _ => false,
        }
    }

    /// Number of inputs this operator requires.
    pub fn arity(&self) -> usize {
        match self {
            OpKind::Read { .. } => 0,
            OpKind::Join { .. } | OpKind::Union => 2,
            _ => 1,
        }
    }

    /// Infers the output schema given input schemas (in input order) and
    /// checks the operator's type preconditions.
    pub fn output_schema(&self, op: OpId, inputs: &[DataType]) -> Result<DataType> {
        match self {
            OpKind::Read { .. } => Err(EngineError::Internal(
                "read schema comes from the context, not from inference".into(),
            )),
            OpKind::Filter { predicate } => {
                let schema = &inputs[0];
                let t = predicate.infer_type(op, schema)?;
                if !matches!(t, DataType::Bool | DataType::Null) {
                    return Err(EngineError::TypeError {
                        op,
                        message: format!("filter predicate has type {t}, expected Bool"),
                    });
                }
                Ok(schema.clone())
            }
            OpKind::Select { exprs } => {
                let schema = &inputs[0];
                let mut fields = Vec::with_capacity(exprs.len());
                for ne in exprs {
                    if fields.iter().any(|f: &Field| f.name == ne.name) {
                        return Err(EngineError::TypeError {
                            op,
                            message: format!("duplicate output attribute `{}`", ne.name),
                        });
                    }
                    fields.push(Field::new(&ne.name, ne.expr.infer_type(op, schema)?));
                }
                Ok(DataType::Item(fields))
            }
            OpKind::Map { udf } => Ok(udf.output_schema.clone().unwrap_or(DataType::Null)),
            OpKind::Join { keys } => {
                let (left, right) = (&inputs[0], &inputs[1]);
                for (lp, rp) in keys {
                    resolve_or_err(op, left, lp)?;
                    resolve_or_err(op, right, rp)?;
                }
                Ok(merge_item_schemas(op, left, right)?.0)
            }
            OpKind::Union => inputs[0]
                .unify(&inputs[1])
                .ok_or_else(|| EngineError::TypeError {
                    op,
                    message: format!(
                        "union arms have incompatible types {} vs {}",
                        inputs[0], inputs[1]
                    ),
                }),
            OpKind::Flatten { col, new_attr } => {
                let schema = &inputs[0];
                if matches!(schema, DataType::Null) {
                    // Unknown input (empty source or opaque map upstream):
                    // the output stays unknown rather than partially known.
                    return Ok(DataType::Null);
                }
                let col_ty = resolve_or_err(op, schema, col)?;
                let elem = match &col_ty {
                    DataType::Bag(t) | DataType::Set(t) => (**t).clone(),
                    DataType::Null => DataType::Null,
                    other => {
                        return Err(EngineError::TypeError {
                            op,
                            message: format!(
                                "flatten target `{col}` has type {other}, expected a collection"
                            ),
                        })
                    }
                };
                let mut fields = match schema {
                    DataType::Item(fs) => fs.clone(),
                    DataType::Null => Vec::new(),
                    other => {
                        return Err(EngineError::TypeError {
                            op,
                            message: format!("flatten input is {other}, expected an item type"),
                        })
                    }
                };
                if fields.iter().any(|f| &f.name == new_attr) {
                    return Err(EngineError::TypeError {
                        op,
                        message: format!("flatten output attribute `{new_attr}` already exists"),
                    });
                }
                fields.push(Field::new(new_attr, elem));
                Ok(DataType::Item(fields))
            }
            OpKind::GroupAggregate { keys, aggs } => {
                let schema = &inputs[0];
                let mut fields = Vec::new();
                for k in keys {
                    let t = resolve_or_err(op, schema, &k.path)?;
                    if fields.iter().any(|f: &Field| f.name == k.name) {
                        return Err(EngineError::TypeError {
                            op,
                            message: format!("duplicate group key name `{}`", k.name),
                        });
                    }
                    fields.push(Field::new(&k.name, t));
                }
                for a in aggs {
                    let in_ty = if a.input.is_empty() {
                        if a.func.is_nesting() {
                            // Whole-item nesting: elements have the input
                            // item type (the paper's grouping operator).
                            schema.clone()
                        } else {
                            DataType::Null
                        }
                    } else {
                        resolve_or_err(op, schema, &a.input)?
                    };
                    let out_ty = agg_output_type(op, a.func, &in_ty)?;
                    if fields.iter().any(|f: &Field| f.name == a.output) {
                        return Err(EngineError::TypeError {
                            op,
                            message: format!("duplicate aggregate output `{}`", a.output),
                        });
                    }
                    fields.push(Field::new(&a.output, out_ty));
                }
                Ok(DataType::Item(fields))
            }
        }
    }
}

fn resolve_or_err(op: OpId, schema: &DataType, path: &Path) -> Result<DataType> {
    schema
        .resolve(path)
        .cloned()
        .ok_or_else(|| EngineError::UnresolvedPath {
            op,
            path: path.clone(),
            schema: schema.clone(),
        })
}

fn agg_output_type(op: OpId, func: AggFunc, input: &DataType) -> Result<DataType> {
    let numeric = |t: &DataType| matches!(t, DataType::Int | DataType::Double | DataType::Null);
    Ok(match func {
        AggFunc::Count => DataType::Int,
        AggFunc::Sum => {
            if !numeric(input) {
                return Err(EngineError::TypeError {
                    op,
                    message: format!("sum over non-numeric type {input}"),
                });
            }
            input.clone()
        }
        AggFunc::Avg => {
            if !numeric(input) {
                return Err(EngineError::TypeError {
                    op,
                    message: format!("avg over non-numeric type {input}"),
                });
            }
            DataType::Double
        }
        AggFunc::Min | AggFunc::Max => input.clone(),
        AggFunc::CollectList => DataType::bag(input.clone()),
        AggFunc::CollectSet => DataType::set(input.clone()),
    })
}

/// Merges two item schemas for a join result `⟨i, j⟩`, disambiguating right
/// attribute names on clash exactly as [`DataItem::merged`] does at run
/// time. Returns the merged schema and the right-side rename map
/// `(original name, output name)`.
pub fn merge_item_schemas(
    op: OpId,
    left: &DataType,
    right: &DataType,
) -> Result<(DataType, Vec<(String, String)>)> {
    let lf = match left {
        DataType::Item(fs) => fs.clone(),
        DataType::Null => Vec::new(),
        other => {
            return Err(EngineError::TypeError {
                op,
                message: format!("join input is {other}, expected an item type"),
            })
        }
    };
    let rf = match right {
        DataType::Item(fs) => fs.clone(),
        DataType::Null => Vec::new(),
        other => {
            return Err(EngineError::TypeError {
                op,
                message: format!("join input is {other}, expected an item type"),
            })
        }
    };
    let mut fields = lf;
    let mut renames = Vec::with_capacity(rf.len());
    for f in rf {
        let mut name = f.name.clone();
        while fields.iter().any(|g| g.name == name) {
            name.push_str("_r");
        }
        renames.push((f.name.clone(), name.clone()));
        fields.push(Field::new(name, f.ty));
    }
    Ok((DataType::Item(fields), renames))
}

/// Evaluates a grouping key path to a value (missing paths group under
/// `Null`).
pub fn key_value(item: &DataItem, path: &Path) -> Value {
    path.eval(item).cloned().unwrap_or(Value::Null)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tweet_schema() -> DataType {
        DataType::item([
            ("text", DataType::Str),
            (
                "user",
                DataType::item([("id_str", DataType::Str), ("name", DataType::Str)]),
            ),
            (
                "user_mentions",
                DataType::bag(DataType::item([
                    ("id_str", DataType::Str),
                    ("name", DataType::Str),
                ])),
            ),
            ("retweet_cnt", DataType::Int),
        ])
    }

    #[test]
    fn filter_preserves_schema() {
        let k = OpKind::Filter {
            predicate: Expr::col("retweet_cnt").eq(Expr::lit(0i64)),
        };
        let s = tweet_schema();
        assert_eq!(k.output_schema(1, std::slice::from_ref(&s)).unwrap(), s);
    }

    #[test]
    fn filter_rejects_non_boolean() {
        let k = OpKind::Filter {
            predicate: Expr::col("text"),
        };
        assert!(matches!(
            k.output_schema(1, &[tweet_schema()]),
            Err(EngineError::TypeError { .. })
        ));
    }

    #[test]
    fn select_schema_with_struct() {
        let k = OpKind::Select {
            exprs: vec![
                NamedExpr::aliased("tweet", "text"),
                NamedExpr::new(
                    "user",
                    SelectExpr::strct([
                        ("id_str", SelectExpr::path("user.id_str")),
                        ("name", SelectExpr::path("user.name")),
                    ]),
                ),
            ],
        };
        let out = k.output_schema(8, &[tweet_schema()]).unwrap();
        assert_eq!(
            out.to_string(),
            "⟨tweet: Str, user: ⟨id_str: Str, name: Str⟩⟩"
        );
    }

    #[test]
    fn flatten_schema_appends_element() {
        let k = OpKind::Flatten {
            col: Path::attr("user_mentions"),
            new_attr: "m_user".into(),
        };
        let out = k.output_schema(5, &[tweet_schema()]).unwrap();
        assert_eq!(
            out.field("m_user").unwrap().to_string(),
            "⟨id_str: Str, name: Str⟩"
        );
        // Original collection stays, matching Fig. 3.
        assert!(out.field("user_mentions").is_some());
    }

    #[test]
    fn flatten_rejects_scalar_target() {
        let k = OpKind::Flatten {
            col: Path::attr("text"),
            new_attr: "x".into(),
        };
        assert!(k.output_schema(5, &[tweet_schema()]).is_err());
    }

    #[test]
    fn union_unifies() {
        let k = OpKind::Union;
        let a = DataType::item([("x", DataType::Int)]);
        let b = DataType::item([("x", DataType::Double)]);
        assert_eq!(
            k.output_schema(7, &[a.clone(), b]).unwrap(),
            DataType::item([("x", DataType::Double)])
        );
        let c = DataType::item([("y", DataType::Int)]);
        assert!(k.output_schema(7, &[a, c]).is_err());
    }

    #[test]
    fn join_schema_renames_clashes() {
        let a = DataType::item([("k", DataType::Int), ("v", DataType::Str)]);
        let b = DataType::item([("k", DataType::Int), ("w", DataType::Str)]);
        let k = OpKind::Join {
            keys: vec![(Path::attr("k"), Path::attr("k"))],
        };
        let out = k.output_schema(3, &[a, b]).unwrap();
        assert_eq!(out.to_string(), "⟨k: Int, v: Str, k_r: Int, w: Str⟩");
    }

    #[test]
    fn group_aggregate_schema() {
        let k = OpKind::GroupAggregate {
            keys: vec![GroupKey::new("user")],
            aggs: vec![
                AggSpec::new(AggFunc::CollectList, "text", "tweets"),
                AggSpec::new(AggFunc::Count, "", "n"),
            ],
        };
        let out = k.output_schema(9, &[tweet_schema()]).unwrap();
        assert_eq!(
            out.to_string(),
            "⟨user: ⟨id_str: Str, name: Str⟩, tweets: {{Str}}, n: Int⟩"
        );
    }

    #[test]
    fn agg_type_errors() {
        let k = OpKind::GroupAggregate {
            keys: vec![GroupKey::new("user")],
            aggs: vec![AggSpec::new(AggFunc::Sum, "text", "s")],
        };
        assert!(k.output_schema(9, &[tweet_schema()]).is_err());
    }

    #[test]
    fn map_schema_unknown_unless_declared() {
        let udf = MapUdf {
            name: "id".into(),
            f: Arc::new(|d| d.clone()),
            output_schema: None,
        };
        let k = OpKind::Map { udf };
        assert_eq!(
            k.output_schema(2, &[tweet_schema()]).unwrap(),
            DataType::Null
        );
    }
}
