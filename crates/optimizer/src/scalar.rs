//! Scalar expression IR used inside the optimizer and executor.
//!
//! Column references carry [`ColumnId`]s (never positions), so expressions
//! survive algebraic rewrites unchanged. The IR also hosts the hooks the
//! paper's machinery needs: parameters for the *parameterization* rule,
//! [`ScalarExpr::ParamInDomain`] for runtime partition pruning (*startup
//! filters*, §4.1.5), and domain extraction for the constraint property
//! framework.

use crate::props::{ColumnId, Domains};
use dhqp_types::{DataType, Interval, IntervalSet, Value, ValueSet};
use std::collections::BTreeSet;
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn sql_symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Neq => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Mirror for operand swap.
    pub fn flip(&self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => *other,
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl ArithOp {
    pub fn sql_symbol(&self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    CountStar,
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    pub fn sql_name(&self) -> &'static str {
        match self {
            AggFunc::CountStar | AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }
}

/// One aggregate computation: `func([DISTINCT] arg)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggCall {
    pub func: AggFunc,
    /// `None` only for `COUNT(*)`.
    pub arg: Option<ScalarExpr>,
    pub distinct: bool,
    /// The column id under which the result is visible above the aggregate.
    pub output: ColumnId,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScalarExpr {
    Literal(Value),
    Column(ColumnId),
    /// `@name` query parameter, bound at execution start.
    Param(String),
    Cmp {
        op: CmpOp,
        left: Box<ScalarExpr>,
        right: Box<ScalarExpr>,
    },
    Arith {
        op: ArithOp,
        left: Box<ScalarExpr>,
        right: Box<ScalarExpr>,
    },
    /// N-ary conjunction (flattened for conjunct-level manipulation).
    And(Vec<ScalarExpr>),
    Or(Vec<ScalarExpr>),
    Not(Box<ScalarExpr>),
    IsNull {
        expr: Box<ScalarExpr>,
        negated: bool,
    },
    /// `expr LIKE 'pattern'` with a constant pattern.
    Like {
        expr: Box<ScalarExpr>,
        pattern: String,
        negated: bool,
    },
    /// `expr IN (v1, v2, ...)` over constants, sorted and deduplicated.
    InList {
        expr: Box<ScalarExpr>,
        list: ValueSet,
        negated: bool,
    },
    /// Scalar function call evaluated row-at-a-time (`UPPER`, `ABS`, ...).
    Func {
        name: String,
        args: Vec<ScalarExpr>,
    },
    Cast {
        expr: Box<ScalarExpr>,
        to: DataType,
    },
    /// Runtime-pruning predicate: true iff the parameter's value lies in
    /// `domain`. This is what a *startup filter* evaluates before its
    /// subtree runs (paper §4.1.5); it never references input columns.
    ParamInDomain {
        param: String,
        domain: IntervalSet,
    },
}

impl ScalarExpr {
    pub fn column(id: ColumnId) -> ScalarExpr {
        ScalarExpr::Column(id)
    }

    pub fn literal(v: Value) -> ScalarExpr {
        ScalarExpr::Literal(v)
    }

    pub fn cmp(op: CmpOp, left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Cmp {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    pub fn eq(left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::cmp(CmpOp::Eq, left, right)
    }

    /// Build a conjunction, flattening nested ANDs; `None` for empty input.
    pub fn and(preds: Vec<ScalarExpr>) -> Option<ScalarExpr> {
        let mut flat = Vec::new();
        for p in preds {
            match p {
                ScalarExpr::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => None,
            1 => Some(flat.into_iter().next().expect("len checked")),
            _ => Some(ScalarExpr::And(flat)),
        }
    }

    /// Split into top-level conjuncts.
    pub fn conjuncts(&self) -> Vec<ScalarExpr> {
        match self {
            ScalarExpr::And(list) => list.clone(),
            other => vec![other.clone()],
        }
    }

    /// All column ids referenced anywhere in the expression.
    pub fn columns(&self) -> BTreeSet<ColumnId> {
        let mut out = BTreeSet::new();
        self.visit(&mut |e| {
            if let ScalarExpr::Column(c) = e {
                out.insert(*c);
            }
        });
        out
    }

    /// Whether the expression references no input columns — such predicates
    /// are *startup-filter eligible* ("a startup filter predicate can not
    /// contain any references to columns or values in its input tree").
    pub fn is_column_free(&self) -> bool {
        self.columns().is_empty()
    }

    /// Whether the expression references any `@param`.
    pub fn has_params(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, ScalarExpr::Param(_) | ScalarExpr::ParamInDomain { .. }) {
                found = true;
            }
        });
        found
    }

    /// `col <op> v` or `v <op> col` with `v` column-free: the column, the
    /// operator as read with the column on the left, and `v`. The shape an
    /// index seeks on and the estimator takes a density for.
    pub fn column_comparison(&self) -> Option<(ColumnId, CmpOp, &ScalarExpr)> {
        let ScalarExpr::Cmp { op, left, right } = self else {
            return None;
        };
        match (left.as_ref(), right.as_ref()) {
            (ScalarExpr::Column(c), v) if v.is_column_free() => Some((*c, *op, v)),
            (v, ScalarExpr::Column(c)) if v.is_column_free() => Some((*c, op.flip(), v)),
            _ => None,
        }
    }

    /// Depth-first visit of the expression tree.
    pub fn visit(&self, f: &mut impl FnMut(&ScalarExpr)) {
        f(self);
        match self {
            ScalarExpr::Cmp { left, right, .. } | ScalarExpr::Arith { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            ScalarExpr::And(list) | ScalarExpr::Or(list) => {
                for e in list {
                    e.visit(f);
                }
            }
            ScalarExpr::Not(e)
            | ScalarExpr::IsNull { expr: e, .. }
            | ScalarExpr::Cast { expr: e, .. } => e.visit(f),
            ScalarExpr::Like { expr, .. } | ScalarExpr::InList { expr, .. } => expr.visit(f),
            ScalarExpr::Func { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            ScalarExpr::Literal(_)
            | ScalarExpr::Column(_)
            | ScalarExpr::Param(_)
            | ScalarExpr::ParamInDomain { .. } => {}
        }
    }

    /// Rewrite every column reference through `map` (used when translating
    /// correlated predicates into parameterized remote queries).
    pub fn map_columns(&self, map: &mut impl FnMut(ColumnId) -> ScalarExpr) -> ScalarExpr {
        match self {
            ScalarExpr::Column(c) => map(*c),
            ScalarExpr::Literal(v) => ScalarExpr::Literal(v.clone()),
            ScalarExpr::Param(p) => ScalarExpr::Param(p.clone()),
            ScalarExpr::ParamInDomain { param, domain } => ScalarExpr::ParamInDomain {
                param: param.clone(),
                domain: domain.clone(),
            },
            ScalarExpr::Cmp { op, left, right } => ScalarExpr::Cmp {
                op: *op,
                left: Box::new(left.map_columns(map)),
                right: Box::new(right.map_columns(map)),
            },
            ScalarExpr::Arith { op, left, right } => ScalarExpr::Arith {
                op: *op,
                left: Box::new(left.map_columns(map)),
                right: Box::new(right.map_columns(map)),
            },
            ScalarExpr::And(list) => {
                ScalarExpr::And(list.iter().map(|e| e.map_columns(map)).collect())
            }
            ScalarExpr::Or(list) => {
                ScalarExpr::Or(list.iter().map(|e| e.map_columns(map)).collect())
            }
            ScalarExpr::Not(e) => ScalarExpr::Not(Box::new(e.map_columns(map))),
            ScalarExpr::IsNull { expr, negated } => ScalarExpr::IsNull {
                expr: Box::new(expr.map_columns(map)),
                negated: *negated,
            },
            ScalarExpr::Like {
                expr,
                pattern,
                negated,
            } => ScalarExpr::Like {
                expr: Box::new(expr.map_columns(map)),
                pattern: pattern.clone(),
                negated: *negated,
            },
            ScalarExpr::InList {
                expr,
                list,
                negated,
            } => ScalarExpr::InList {
                expr: Box::new(expr.map_columns(map)),
                list: list.clone(),
                negated: *negated,
            },
            ScalarExpr::Func { name, args } => ScalarExpr::Func {
                name: name.clone(),
                args: args.iter().map(|e| e.map_columns(map)).collect(),
            },
            ScalarExpr::Cast { expr, to } => ScalarExpr::Cast {
                expr: Box::new(expr.map_columns(map)),
                to: *to,
            },
        }
    }

    /// The value domain this predicate implies for every column it
    /// constrains (the constraint property framework, §4.1.5): each row it
    /// calls TRUE holds values inside them. One walk over the paper's forms
    /// — comparisons with a literal in either operand order (`BETWEEN` is
    /// two), `[NOT] IN`-lists, and ANDs and ORs of them; anything else
    /// constrains nothing.
    pub fn domains(&self) -> Domains {
        self.domains_with(&mut |operand| match operand {
            ScalarExpr::Literal(v) => Some(v.clone()),
            _ => None,
        })
    }

    /// [`ScalarExpr::domains`] with a comparison's other operand valued by
    /// `operand` (an index read, as it opens, evaluates any operand of no
    /// column of its table); `None` constrains nothing.
    pub fn domains_with(&self, operand: &mut impl FnMut(&ScalarExpr) -> Option<Value>) -> Domains {
        match self {
            ScalarExpr::Cmp { op, left, right } => {
                let sides = [(left, right, *op), (right, left, op.flip())];
                let bound = sides.into_iter().find_map(|(c, v, op)| match c.as_ref() {
                    ScalarExpr::Column(c) => operand(v).map(|v| (*c, v, op)),
                    _ => None,
                });
                let Some((column, lit, op)) = bound else {
                    return Domains::default();
                };
                let domain = if lit.is_null() || matches!(lit, Value::Float(f) if f.is_nan()) {
                    // col <op> NULL is never true, nor is col <op> NaN.
                    IntervalSet::empty()
                } else if !bounds_exactly(&lit) {
                    return Domains::default();
                } else {
                    match op {
                        CmpOp::Eq => IntervalSet::point(lit),
                        CmpOp::Neq => IntervalSet::point(lit).complement(),
                        CmpOp::Lt => IntervalSet::single(Interval::less_than(lit)),
                        CmpOp::Le => IntervalSet::single(Interval::at_most(lit)),
                        CmpOp::Gt => IntervalSet::single(Interval::greater_than(lit)),
                        CmpOp::Ge => IntervalSet::single(Interval::at_least(lit)),
                    }
                };
                Domains::column(column, domain)
            }
            ScalarExpr::InList {
                expr,
                list,
                negated,
            } => {
                let ScalarExpr::Column(column) = expr.as_ref() else {
                    return Domains::default();
                };
                // NULLs sort first and match nothing.
                let values = &list[list.partition_point(Value::is_null)..];
                if !values.iter().all(bounds_exactly) {
                    return Domains::default();
                }
                let set = IntervalSet::from_points(values);
                Domains::column(*column, if *negated { set.complement() } else { set })
            }
            ScalarExpr::And(list) => {
                let mut domains = Domains::default();
                for p in list {
                    domains.meet(&p.domains_with(operand));
                }
                domains
            }
            ScalarExpr::Or(list) => list
                .iter()
                .map(|p| p.domains_with(operand))
                .reduce(|a, b| a.union(&b))
                .unwrap_or_default(),
            _ => Domains::default(),
        }
    }
}

/// Whether a literal can bound a domain. A number of magnitude 2^53 or more
/// compares as the `f64` it rounds to, and SQL calls that equal to several
/// integers that differ from each other (`9007199254740993 =
/// 9007199254740992.0 = 9007199254740992`); no interval holds exactly the
/// values such a number equals, so it bounds nothing.
fn bounds_exactly(v: &Value) -> bool {
    const EXACT: f64 = (1u64 << 53) as f64;
    match v {
        Value::Int(i) => i.unsigned_abs() < 1 << 53,
        Value::Float(f) => f.abs() < EXACT || !f.is_finite(),
        _ => true,
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Literal(v) => write!(f, "{}", v.to_sql_literal()),
            ScalarExpr::Column(c) => write!(f, "#{}", c.0),
            ScalarExpr::Param(p) => write!(f, "@{p}"),
            ScalarExpr::Cmp { op, left, right } => {
                write!(f, "({left} {} {right})", op.sql_symbol())
            }
            ScalarExpr::Arith { op, left, right } => {
                write!(f, "({left} {} {right})", op.sql_symbol())
            }
            ScalarExpr::And(list) => {
                write!(f, "(")?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            ScalarExpr::Or(list) => {
                write!(f, "(")?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            ScalarExpr::Not(e) => write!(f, "NOT {e}"),
            ScalarExpr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            ScalarExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                write!(
                    f,
                    "{expr} {}LIKE '{pattern}'",
                    if *negated { "NOT " } else { "" }
                )
            }
            ScalarExpr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "{expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", v.to_sql_literal())?;
                }
                write!(f, ")")
            }
            ScalarExpr::Func { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            ScalarExpr::Cast { expr, to } => write!(f, "CAST({expr} AS {to})"),
            ScalarExpr::ParamInDomain { param, domain } => {
                write!(f, "STARTUP(@{param} IN {domain})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(i: u32) -> ScalarExpr {
        ScalarExpr::Column(ColumnId(i))
    }

    fn lit(v: i64) -> ScalarExpr {
        ScalarExpr::Literal(Value::Int(v))
    }

    #[test]
    fn and_flattens() {
        let a = ScalarExpr::and(vec![
            ScalarExpr::eq(col(0), lit(1)),
            ScalarExpr::And(vec![
                ScalarExpr::eq(col(1), lit(2)),
                ScalarExpr::eq(col(2), lit(3)),
            ]),
        ])
        .unwrap();
        assert_eq!(a.conjuncts().len(), 3);
        assert!(ScalarExpr::and(vec![]).is_none());
    }

    #[test]
    fn column_collection() {
        let e = ScalarExpr::and(vec![
            ScalarExpr::eq(col(0), col(5)),
            ScalarExpr::cmp(CmpOp::Gt, col(3), lit(7)),
        ])
        .unwrap();
        let cols: Vec<u32> = e.columns().into_iter().map(|c| c.0).collect();
        assert_eq!(cols, vec![0, 3, 5]);
        assert!(!e.is_column_free());
        assert!(ScalarExpr::Param("x".into()).is_column_free());
    }

    #[test]
    fn param_detection() {
        assert!(ScalarExpr::eq(col(0), ScalarExpr::Param("p".into())).has_params());
        assert!(!ScalarExpr::eq(col(0), lit(1)).has_params());
        assert!(ScalarExpr::ParamInDomain {
            param: "p".into(),
            domain: IntervalSet::full()
        }
        .has_params());
    }

    #[test]
    fn domain_from_comparison_both_orders() {
        let gt = ScalarExpr::cmp(CmpOp::Gt, col(0), lit(50)).domains();
        let d = gt.get(ColumnId(0)).unwrap();
        assert!(!d.contains(&Value::Int(50)));
        assert!(d.contains(&Value::Int(51)));
        // 50 < col is the same constraint.
        let flipped = ScalarExpr::cmp(CmpOp::Lt, lit(50), col(0));
        assert_eq!(flipped.domains(), gt);
    }

    #[test]
    fn domain_from_paper_disjunction() {
        // CustomerId IN (1, 5) OR CustomerId BETWEEN 50 AND 100
        let c = ColumnId(0);
        let e = ScalarExpr::Or(vec![
            ScalarExpr::InList {
                expr: Box::new(col(0)),
                list: vec![Value::Int(1), Value::Int(5)].into(),
                negated: false,
            },
            ScalarExpr::And(vec![
                ScalarExpr::cmp(CmpOp::Ge, col(0), lit(50)),
                ScalarExpr::cmp(CmpOp::Le, col(0), lit(100)),
            ]),
        ]);
        let domains = e.domains();
        let d = domains.get(c).unwrap();
        assert_eq!(d.intervals().len(), 3);
        assert!(d.contains(&Value::Int(5)));
        assert!(d.contains(&Value::Int(75)));
        assert!(!d.contains(&Value::Int(20)));
    }

    #[test]
    fn domain_of_other_column_is_full() {
        let e = ScalarExpr::eq(col(0), lit(1));
        assert!(e.domains().get(ColumnId(9)).is_none());
        // Param comparisons contribute nothing statically.
        let p = ScalarExpr::eq(col(0), ScalarExpr::Param("p".into()));
        assert_eq!(p.domains(), Domains::default());
    }

    #[test]
    fn neq_and_not_in_via_complement() {
        let e = ScalarExpr::cmp(CmpOp::Neq, col(0), lit(7));
        let domains = e.domains();
        let d = domains.get(ColumnId(0)).unwrap();
        assert!(!d.contains(&Value::Int(7)));
        assert!(d.contains(&Value::Int(8)));
        let ni = ScalarExpr::InList {
            expr: Box::new(col(0)),
            list: vec![Value::Int(1), Value::Int(2)].into(),
            negated: true,
        };
        let domains = ni.domains();
        let d = domains.get(ColumnId(0)).unwrap();
        assert!(!d.contains(&Value::Int(1)));
        assert!(d.contains(&Value::Int(3)));
    }

    #[test]
    fn one_walk_gives_every_column() {
        // (x = 1 AND y > 2) OR x = 3: x is one of two points; y is
        // unconstrained, since the second branch says nothing about it.
        let e = ScalarExpr::Or(vec![
            ScalarExpr::And(vec![
                ScalarExpr::eq(col(0), lit(1)),
                ScalarExpr::cmp(CmpOp::Gt, col(1), lit(2)),
            ]),
            ScalarExpr::eq(col(0), lit(3)),
        ]);
        let d = e.domains();
        let points = IntervalSet::from_points(&[Value::Int(1), Value::Int(3)]);
        assert_eq!(d.get(ColumnId(0)), Some(&points));
        assert_eq!(d.get(ColumnId(1)), None);
        // A contradiction of its own empties the column.
        let null = ScalarExpr::eq(col(0), ScalarExpr::Literal(Value::Null));
        let apart = ScalarExpr::And(vec![
            ScalarExpr::cmp(CmpOp::Gt, col(0), lit(5)),
            ScalarExpr::cmp(CmpOp::Lt, col(0), lit(3)),
        ]);
        for e in [null, apart] {
            assert!(e.domains().get(ColumnId(0)).unwrap().is_empty(), "{e}");
        }
    }

    #[test]
    fn numbers_past_2_pow_53_bound_nothing() {
        // 2^53 + 1 and 2^53 both equal the float 2^53, not each other.
        let eq = |v: Value| ScalarExpr::eq(col(0), ScalarExpr::Literal(v));
        assert_eq!(eq(Value::Int((1 << 53) + 1)).domains(), Domains::default());
        assert_eq!(
            eq(Value::Float((1u64 << 53) as f64)).domains(),
            Domains::default()
        );
        let list = ScalarExpr::InList {
            expr: Box::new(col(0)),
            list: vec![Value::Int(1), Value::Int(1 << 53)].into(),
            negated: false,
        };
        assert_eq!(list.domains(), Domains::default());
        for exact in [Value::Int((1 << 53) - 1), Value::Float(f64::INFINITY)] {
            assert!(eq(exact).domains().get(ColumnId(0)).is_some());
        }
    }

    #[test]
    fn map_columns_rewrites() {
        let e = ScalarExpr::eq(col(0), col(1));
        let mapped = e.map_columns(&mut |c| {
            if c == ColumnId(1) {
                ScalarExpr::Param("p0".into())
            } else {
                ScalarExpr::Column(c)
            }
        });
        assert!(mapped.has_params());
        assert_eq!(mapped.columns().len(), 1);
    }

    #[test]
    fn display_forms() {
        let e = ScalarExpr::and(vec![
            ScalarExpr::cmp(CmpOp::Ge, col(0), lit(1)),
            ScalarExpr::Like {
                expr: Box::new(col(1)),
                pattern: "x%".into(),
                negated: false,
            },
        ])
        .unwrap();
        assert_eq!(e.to_string(), "((#0 >= 1) AND #1 LIKE 'x%')");
    }
}
