//! Logical property derivation: output columns, cardinality estimates, the
//! constraint-domain framework, keys and row widths.
//!
//! Histograms fetched from providers (§3.2.4) ride along in the properties
//! so every operator above a `Get` can refine estimates — this is the
//! machinery experiment E7 turns off to measure the paper's
//! "order of magnitude improvements on cardinality estimates" claim.

use crate::logical::{JoinKind, LogicalOp};
use crate::props::{derive_domains, ColumnId, ColumnRegistry, Domains, LogicalProps};
use crate::scalar::{CmpOp, ScalarExpr};
use dhqp_oledb::Histogram;
use dhqp_types::{DataType, IntervalBound, IntervalSet, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default selectivities when no histogram can answer (classic
/// System-R-style magic numbers).
pub const SEL_EQ_DEFAULT: f64 = 0.05;
pub const SEL_RANGE_DEFAULT: f64 = 1.0 / 3.0;
pub const SEL_LIKE_DEFAULT: f64 = 0.25;
pub const SEL_OTHER_DEFAULT: f64 = 0.5;
const DEFAULT_NDV: f64 = 100.0;

fn width_of(t: DataType) -> f64 {
    match t {
        DataType::Bool => 1.0,
        DataType::Int | DataType::Float => 8.0,
        DataType::Date => 4.0,
        DataType::Str => 24.0,
    }
}

/// Histograms available to an operator, keyed by column identity.
pub type HistogramMap = BTreeMap<ColumnId, Arc<Histogram>>;

/// Derive group properties for `op` given its children's properties.
pub fn derive_props(
    op: &LogicalOp,
    children: &[&LogicalProps],
    registry: &ColumnRegistry,
) -> LogicalProps {
    let inputs: Vec<(&[ColumnId], &Domains)> = children
        .iter()
        .map(|c| (c.columns.as_slice(), &c.domains))
        .collect();
    let (domains, empty) = derive_domains(op, &inputs);
    match op {
        LogicalOp::Get { meta, columns } => {
            let mut histograms = BTreeMap::new();
            if let Some(stats) = &meta.catalog.stats {
                for (pos, col) in meta.catalog.schema.columns().iter().enumerate() {
                    if let Some(h) = stats.histogram(&col.name) {
                        histograms.insert(meta.column_id(pos), Arc::clone(h));
                    }
                }
            }
            let keys = meta
                .catalog
                .indexes
                .iter()
                .filter(|ix| ix.unique && !ix.key_columns.is_empty())
                .filter_map(|ix| {
                    ix.key_columns
                        .iter()
                        .map(|name| {
                            meta.catalog
                                .schema
                                .index_of(name)
                                .map(|pos| meta.column_id(pos))
                        })
                        .collect()
                })
                .collect();
            let row_width = columns
                .iter()
                .map(|&c| width_of(registry.meta(c).data_type))
                .sum::<f64>()
                + 8.0;
            LogicalProps {
                columns: columns.clone(),
                cardinality: meta.estimated_rows(),
                row_width,
                domains,
                keys,
                histograms,
            }
        }
        LogicalOp::EmptyGet { columns } => LogicalProps {
            columns: columns.clone(),
            cardinality: 0.0,
            row_width: 8.0,
            domains,
            keys: Vec::new(),
            histograms: BTreeMap::new(),
        },
        LogicalOp::Values { columns, rows } => LogicalProps {
            columns: columns.clone(),
            cardinality: rows.len() as f64,
            row_width: columns
                .iter()
                .map(|&c| width_of(registry.meta(c).data_type))
                .sum::<f64>()
                + 8.0,
            domains,
            keys: Vec::new(),
            histograms: BTreeMap::new(),
        },
        LogicalOp::Filter { predicate } => {
            let child = children[0];
            let sel = predicate_selectivity(predicate, child);
            // A column the predicate confines to nothing: no row at all.
            let mut cardinality = if empty {
                0.0
            } else {
                (child.cardinality * sel).max(0.0)
            };
            // Every column of a unique key bound by equality: one row at
            // most, however the per-column densities multiply out.
            if !child.keys.is_empty() {
                let bound = equality_bound_columns(predicate);
                if child
                    .keys
                    .iter()
                    .any(|key| key.iter().all(|c| bound.contains(c)))
                {
                    cardinality = cardinality.min(1.0);
                }
            }
            LogicalProps {
                columns: child.columns.clone(),
                cardinality,
                row_width: child.row_width,
                domains,
                keys: child.keys.clone(),
                histograms: child.histograms.clone(),
            }
        }
        LogicalOp::StartupFilter { .. } => LogicalProps {
            domains,
            ..children[0].clone()
        },
        LogicalOp::Project { outputs } => {
            let child = children[0];
            let mut histograms = BTreeMap::new();
            // Child column -> the output that passes it through unchanged.
            let mut passed = BTreeMap::new();
            for (out, expr) in outputs {
                if let ScalarExpr::Column(src) = expr {
                    passed.entry(*src).or_insert(*out);
                    if let Some(h) = child.histograms.get(src) {
                        histograms.insert(*out, Arc::clone(h));
                    }
                }
            }
            // A key survives when every one of its columns does.
            let keys = child
                .keys
                .iter()
                .filter_map(|key| key.iter().map(|c| passed.get(c).copied()).collect())
                .collect();
            let row_width = outputs
                .iter()
                .map(|(c, _)| width_of(registry.meta(*c).data_type))
                .sum::<f64>()
                + 8.0;
            LogicalProps {
                columns: outputs.iter().map(|(c, _)| *c).collect(),
                cardinality: child.cardinality,
                row_width,
                domains,
                keys,
                histograms,
            }
        }
        LogicalOp::Join { kind, predicate } => {
            let (l, r) = (children[0], children[1]);
            let mut columns = l.columns.clone();
            if kind.produces_right() {
                columns.extend(r.columns.iter().copied());
            }
            let inner_card = join_cardinality(predicate.as_ref(), l, r);
            let cardinality = match kind {
                JoinKind::Inner => inner_card,
                JoinKind::Cross => l.cardinality * r.cardinality,
                JoinKind::LeftOuter => inner_card.max(l.cardinality),
                JoinKind::Semi => (l.cardinality * 0.5).max(1.0).min(l.cardinality),
                JoinKind::Anti => (l.cardinality * 0.5).max(0.0),
            };
            let mut histograms = l.histograms.clone();
            if kind.produces_right() {
                histograms.extend(r.histograms.iter().map(|(k, v)| (*k, Arc::clone(v))));
            }
            let keys = match kind {
                JoinKind::Semi | JoinKind::Anti => l.keys.clone(),
                _ => Vec::new(),
            };
            let row_width = l.row_width
                + if kind.produces_right() {
                    r.row_width
                } else {
                    0.0
                };
            LogicalProps {
                columns,
                cardinality,
                row_width,
                domains,
                keys,
                histograms,
            }
        }
        LogicalOp::Aggregate { group_by, aggs } => {
            let child = children[0];
            let mut columns = group_by.clone();
            columns.extend(aggs.iter().map(|a| a.output));
            let groups = if group_by.is_empty() {
                1.0
            } else {
                let groups: f64 = group_by.iter().map(|c| ndv(child, *c)).product();
                groups.min(child.cardinality).max(1.0)
            };
            let mut keys = Vec::new();
            if !group_by.is_empty() {
                keys.push(group_by.clone());
            }
            let row_width = columns
                .iter()
                .map(|&c| width_of(registry.meta(c).data_type))
                .sum::<f64>()
                + 8.0;
            LogicalProps {
                columns,
                cardinality: groups,
                row_width,
                domains,
                keys,
                histograms: BTreeMap::new(),
            }
        }
        LogicalOp::UnionAll { output } => {
            let cardinality = children.iter().map(|c| c.cardinality).sum();
            let row_width = children.first().map(|c| c.row_width).unwrap_or(8.0);
            LogicalProps {
                columns: output.clone(),
                cardinality,
                row_width,
                domains,
                keys: Vec::new(),
                histograms: BTreeMap::new(),
            }
        }
        LogicalOp::Limit { n } => {
            let child = children[0];
            LogicalProps {
                cardinality: child.cardinality.min(*n as f64),
                domains,
                ..child.clone()
            }
        }
    }
}

/// Extract `(left column, right column)` pairs from equality conjuncts that
/// bridge the two sides.
pub fn equi_key_columns(
    predicate: &ScalarExpr,
    l: &[ColumnId],
    r: &[ColumnId],
) -> Vec<(ColumnId, ColumnId)> {
    let mut out = Vec::new();
    for conj in predicate.conjuncts() {
        if let ScalarExpr::Cmp {
            op: CmpOp::Eq,
            left,
            right,
        } = &conj
        {
            if let (ScalarExpr::Column(a), ScalarExpr::Column(b)) = (left.as_ref(), right.as_ref())
            {
                if l.contains(a) && r.contains(b) {
                    out.push((*a, *b));
                } else if l.contains(b) && r.contains(a) {
                    out.push((*b, *a));
                }
            }
        }
    }
    out
}

/// Distinct values of a column as far as the optimizer knows: a unique key
/// has as many as the group has rows, a histogram's buckets are summed, and
/// a column that CHECK constraints (a partitioned view's member: the head
/// holds no statistics for it) or earlier predicates confine to fewer
/// whole values than the group has rows is taken to fill that domain.
/// `None` with none of the three.
fn known_ndv(props: &LogicalProps, col: ColumnId) -> Option<f64> {
    let rows = props.cardinality.max(1.0);
    if props.is_unique(col) {
        return Some(rows);
    }
    if let Some(h) = props.histograms.get(&col) {
        return Some(
            h.buckets
                .iter()
                .map(|b| b.distinct)
                .sum::<f64>()
                .clamp(1.0, rows),
        );
    }
    let values = discrete_values(props.domains.get(col)?)?;
    (values <= rows).then_some(values.max(1.0))
}

/// How many whole values (integers, days) a domain admits; `None` when it
/// is unbounded or over a type with no successor.
fn discrete_values(domain: &IntervalSet) -> Option<f64> {
    let ordinal = |v: &Value| match v {
        Value::Int(i) => Some(*i as f64),
        Value::Date(d) => Some(f64::from(*d)),
        _ => None,
    };
    domain.intervals().iter().try_fold(0.0, |sum, iv| {
        let low = match &iv.low {
            IntervalBound::Included(v) => ordinal(v)?,
            IntervalBound::Excluded(v) => ordinal(v)? + 1.0,
            IntervalBound::Unbounded => return None,
        };
        let high = match &iv.high {
            IntervalBound::Included(v) => ordinal(v)?,
            IntervalBound::Excluded(v) => ordinal(v)? - 1.0,
            IntervalBound::Unbounded => return None,
        };
        Some(sum + (high - low + 1.0).max(0.0))
    })
}

/// Estimated distinct values of a column.
pub fn ndv(props: &LogicalProps, col: ColumnId) -> f64 {
    known_ndv(props, col).unwrap_or_else(|| DEFAULT_NDV.min(props.cardinality.max(1.0)))
}

/// Inner-join cardinality estimate.
fn join_cardinality(predicate: Option<&ScalarExpr>, l: &LogicalProps, r: &LogicalProps) -> f64 {
    let cross = l.cardinality * r.cardinality;
    let Some(p) = predicate else { return cross };
    let keys = equi_key_columns(p, &l.columns, &r.columns);
    let mut card = cross;
    for (lc, rc) in &keys {
        // When one side joins on its unique key, containment gives the
        // classic FK estimate: one match per foreign-key row.
        let divisor = if l.is_unique(*lc) {
            ndv(l, *lc)
        } else if r.is_unique(*rc) {
            ndv(r, *rc)
        } else {
            ndv(l, *lc).max(ndv(r, *rc))
        };
        card /= divisor.max(1.0);
    }
    if keys.is_empty() {
        card *= predicate_selectivity(p, l).max(0.01);
    }
    // Residual non-equi conjuncts.
    let residual = p.conjuncts().len().saturating_sub(keys.len());
    for _ in 0..residual.min(2) {
        if !keys.is_empty() {
            card *= 0.9;
        }
    }
    card.max(0.0)
}

/// Columns a predicate's conjuncts pin to one value each.
fn equality_bound_columns(predicate: &ScalarExpr) -> Vec<ColumnId> {
    predicate
        .conjuncts()
        .iter()
        .filter_map(|conj| match conj.column_comparison() {
            Some((col, CmpOp::Eq, _)) => Some(col),
            _ => None,
        })
        .collect()
}

/// Selectivity of a filter predicate against its input.
pub fn predicate_selectivity(predicate: &ScalarExpr, input: &LogicalProps) -> f64 {
    let mut sel = 1.0;
    for conj in predicate.conjuncts() {
        sel *= conjunct_selectivity(&conj, input);
    }
    sel.clamp(0.0, 1.0)
}

/// Selectivity of `col = <one of n values>` from the column's density:
/// `n / ndv`. The System-R guess only when nothing says how many values
/// there are.
fn eq_selectivity(input: &LogicalProps, col: ColumnId, n: usize) -> f64 {
    match known_ndv(input, col) {
        Some(ndv) => (n as f64 / ndv).min(1.0),
        None => (SEL_EQ_DEFAULT * n as f64).min(0.8),
    }
}

/// A comparison of one column with values, estimated without looking at
/// the values (a `@param` has none at compile time; every numeric literal
/// of a cached statement is one).
fn value_blind_selectivity(conj: &ScalarExpr, input: &LogicalProps) -> Option<f64> {
    if let ScalarExpr::InList {
        expr,
        list,
        negated,
    } = conj
    {
        let ScalarExpr::Column(col) = expr.as_ref() else {
            return None;
        };
        let sel = eq_selectivity(input, *col, list.len());
        return Some(if *negated { 1.0 - sel } else { sel });
    }
    let (col, op, _) = conj.column_comparison()?;
    Some(match op {
        CmpOp::Eq => eq_selectivity(input, col, 1),
        CmpOp::Neq => 1.0 - eq_selectivity(input, col, 1),
        _ => SEL_RANGE_DEFAULT,
    })
}

fn conjunct_selectivity(conj: &ScalarExpr, input: &LogicalProps) -> f64 {
    // Single-column predicates: the histogram answers when the values are
    // known, the column's density when they are not.
    let cols = conj.columns();
    if cols.len() == 1 {
        let col = *cols.iter().next().expect("len checked");
        if let Some(dom) = conj.domains().get(col) {
            if dom.is_empty() {
                return 0.0;
            }
            if let Some(h) = input.histograms.get(&col) {
                // Never estimate zero rows for a satisfiable predicate, but
                // let the floor go down to one row of a large input.
                let floor = (1.0 / input.cardinality.max(1.0)).min(0.0001);
                return h.selectivity(dom).clamp(floor, 1.0);
            }
        }
        if let Some(sel) = value_blind_selectivity(conj, input) {
            return sel;
        }
    }
    match conj {
        ScalarExpr::Like { .. } => SEL_LIKE_DEFAULT,
        ScalarExpr::IsNull { negated, .. } => {
            if *negated {
                0.9
            } else {
                0.1
            }
        }
        ScalarExpr::Cmp { op, .. } => {
            if *op == CmpOp::Eq {
                SEL_EQ_DEFAULT
            } else {
                SEL_RANGE_DEFAULT
            }
        }
        ScalarExpr::Or(list) => {
            let mut pass = 0.0;
            for e in list {
                pass += conjunct_selectivity(e, input);
            }
            pass.min(1.0)
        }
        ScalarExpr::Literal(Value::Bool(b)) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        _ => SEL_OTHER_DEFAULT,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{test_table_meta, Locality, LogicalExpr, TableMeta};
    use dhqp_oledb::TableStatistics;
    use std::sync::Arc;

    fn table_with_hist(reg: &mut ColumnRegistry) -> Arc<TableMeta> {
        let meta = test_table_meta(0, "t", Locality::Local, &[("k", DataType::Int)], reg, 1000);
        let vals: Vec<Value> = (0..1000).map(Value::Int).collect();
        let mut stats = TableStatistics {
            row_count: Some(1000),
            ..Default::default()
        };
        stats.set_histogram("k", Histogram::build(&vals, 16, 0.0).unwrap());
        let mut m = (*meta).clone();
        Arc::make_mut(&mut m.catalog).stats = Some(Arc::new(stats));
        Arc::new(m)
    }

    fn props_of(tree: &LogicalExpr, reg: &ColumnRegistry) -> LogicalProps {
        let child_props: Vec<LogicalProps> =
            tree.children.iter().map(|c| props_of(c, reg)).collect();
        let refs: Vec<&LogicalProps> = child_props.iter().collect();
        derive_props(&tree.op, &refs, reg)
    }

    #[test]
    fn histogram_beats_default_selectivity() {
        let mut reg = ColumnRegistry::new();
        let meta = table_with_hist(&mut reg);
        let col = meta.column_id(0);
        // k < 100 is truly 10% selective.
        let pred = ScalarExpr::cmp(
            CmpOp::Lt,
            ScalarExpr::Column(col),
            ScalarExpr::literal(Value::Int(100)),
        );
        let tree = LogicalExpr::get(Arc::clone(&meta)).filter(pred.clone());
        let props = props_of(&tree, &reg);
        assert!(
            (props.cardinality - 100.0).abs() < 30.0,
            "histogram estimate {} should be near 100",
            props.cardinality
        );
        // Without the histogram the default range guess (1/3) applies.
        let mut bare = (*meta).clone();
        Arc::make_mut(&mut bare.catalog).stats = None;
        bare.id = 7;
        let tree = LogicalExpr::get(Arc::new(bare)).filter(pred);
        let props = props_of(&tree, &reg);
        assert!((props.cardinality - 333.0).abs() < 5.0);
    }

    /// A 16-bucket histogram over `f(0), …, f(rows - 1)`.
    fn int_histogram(rows: i64, f: impl Fn(i64) -> i64) -> Histogram {
        let mut vals: Vec<Value> = (0..rows).map(|i| Value::Int(f(i))).collect();
        vals.sort_by(Value::total_cmp);
        Histogram::build(&vals, 16, 0.0).unwrap()
    }

    /// 1 000 rows: `k` unique (index + histogram), `g` 25 values of 40
    /// rows each, `s` half zeros and 500 singletons (both with
    /// histograms), `u` with no statistics at all.
    fn density_table(reg: &mut ColumnRegistry) -> Arc<TableMeta> {
        let cols = [
            ("k", DataType::Int),
            ("g", DataType::Int),
            ("s", DataType::Int),
            ("u", DataType::Int),
        ];
        let mut m = (*test_table_meta(0, "t", Locality::Local, &cols, reg, 1000)).clone();
        Arc::make_mut(&mut m.catalog)
            .indexes
            .push(dhqp_oledb::IndexInfo {
                name: "pk".into(),
                key_columns: vec!["k".into()],
                unique: true,
            });
        let mut stats = TableStatistics {
            row_count: Some(1000),
            ..Default::default()
        };
        stats.set_histogram("k", int_histogram(1000, |i| i));
        stats.set_histogram("g", int_histogram(1000, |i| i % 25));
        stats.set_histogram("s", int_histogram(1000, |i| if i < 500 { 0 } else { i }));
        Arc::make_mut(&mut m.catalog).stats = Some(Arc::new(stats));
        Arc::new(m)
    }

    fn filtered_rows(meta: &Arc<TableMeta>, reg: &ColumnRegistry, pred: ScalarExpr) -> f64 {
        props_of(&LogicalExpr::get(Arc::clone(meta)).filter(pred), reg).cardinality
    }

    fn param(name: &str) -> ScalarExpr {
        ScalarExpr::Param(name.into())
    }

    #[test]
    fn unknown_values_take_the_columns_density() {
        let mut reg = ColumnRegistry::new();
        let meta = density_table(&mut reg);
        let col = |pos: usize| ScalarExpr::Column(meta.column_id(pos));
        let rows = |pred: ScalarExpr| filtered_rows(&meta, &reg, pred);
        // A unique key bound by equality is one row, with no special case.
        assert!((rows(ScalarExpr::eq(col(0), param("p"))) - 1.0).abs() < 1e-9);
        // ... either operand order.
        assert!((rows(ScalarExpr::eq(param("p"), col(0))) - 1.0).abs() < 1e-9);
        // A 25-value column: rows / 25, and the complement for `<>`.
        assert!((rows(ScalarExpr::eq(col(1), param("p"))) - 40.0).abs() < 1e-9);
        assert!((rows(ScalarExpr::cmp(CmpOp::Neq, col(1), param("p"))) - 960.0).abs() < 1e-9);
        // n unknown values: n / ndv.
        let either = ScalarExpr::Or(vec![
            ScalarExpr::eq(col(1), param("a")),
            ScalarExpr::eq(col(1), param("b")),
        ]);
        assert!((rows(either) - 80.0).abs() < 1e-9);
        // The density does not look at the value: `s = @p` is rows / 501
        // although half the rows hold one value...
        assert!((rows(ScalarExpr::eq(col(2), param("p"))) - 1000.0 / 501.0).abs() < 1e-9);
        // ... which a literal comparand still gets from the histogram.
        let zero = rows(ScalarExpr::eq(col(2), ScalarExpr::literal(Value::Int(0))));
        let dom = IntervalSet::point(Value::Int(0));
        let hist = meta.catalog.stats.as_ref().unwrap().histogram("s").unwrap();
        assert_eq!(zero, 1000.0 * hist.selectivity(&dom));
        assert!(zero >= 400.0, "the histogram sees the skew: {zero}");
        // A range with an unknown bound stays a guess.
        let range = rows(ScalarExpr::cmp(CmpOp::Gt, col(0), param("p")));
        assert!((range - 1000.0 * SEL_RANGE_DEFAULT).abs() < 1e-9);
    }

    #[test]
    fn a_key_without_a_histogram_still_has_a_density() {
        let mut reg = ColumnRegistry::new();
        let mut bare = (*density_table(&mut reg)).clone();
        Arc::make_mut(&mut bare.catalog).stats = None;
        let meta = Arc::new(bare);
        let k = ScalarExpr::Column(meta.column_id(0));
        let list = |negated| ScalarExpr::InList {
            expr: Box::new(k.clone()),
            list: (1..=3).map(Value::Int).collect(),
            negated,
        };
        assert!((filtered_rows(&meta, &reg, list(false)) - 3.0).abs() < 1e-9);
        assert!((filtered_rows(&meta, &reg, list(true)) - 997.0).abs() < 1e-9);
        let seven = ScalarExpr::eq(k.clone(), ScalarExpr::literal(Value::Int(7)));
        assert!((filtered_rows(&meta, &reg, seven) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_dense_check_domain_stands_in_for_missing_statistics() {
        // A partitioned view's member as the head sees it: a row count, a
        // CHECK range on the partitioning column, no histogram.
        let mut reg = ColumnRegistry::new();
        let cols = [("day", DataType::Date), ("qty", DataType::Int)];
        let mut m = (*test_table_meta(0, "li_97", Locality::Local, &cols, &mut reg, 3650)).clone();
        let year = |lo: i32, hi: i32| {
            IntervalSet::single(dhqp_types::Interval {
                low: IntervalBound::Included(Value::Date(lo)),
                high: IntervalBound::Excluded(Value::Date(hi)),
            })
        };
        Arc::make_mut(&mut m.catalog).checks = vec![(0, year(10_000, 10_365))];
        let meta = Arc::new(m);
        let col = |pos: usize| ScalarExpr::Column(meta.column_id(pos));
        // 365 days hold 3 650 rows: ten a day, not the 5 % guess (182).
        let one_day = filtered_rows(&meta, &reg, ScalarExpr::eq(col(0), param("d")));
        assert!((one_day - 10.0).abs() < 1e-9, "{one_day}");
        // `qty` has no domain: the constant.
        let qty = filtered_rows(&meta, &reg, ScalarExpr::eq(col(1), param("q")));
        assert!((qty - 3650.0 * SEL_EQ_DEFAULT).abs() < 1e-9);
        // A domain wider than the table says nothing about how many of its
        // values are present: the constant again.
        let mut sparse = (*meta).clone();
        Arc::make_mut(&mut sparse.catalog).checks = vec![(0, year(0, 100_000))];
        let sparse = Arc::new(sparse);
        let day = filtered_rows(&sparse, &reg, ScalarExpr::eq(col(0), param("d")));
        assert!((day - 3650.0 * SEL_EQ_DEFAULT).abs() < 1e-9);
        // Half-open domains admit no count.
        assert_eq!(
            discrete_values(&IntervalSet::single(dhqp_types::Interval::at_least(
                Value::Int(0)
            ))),
            None
        );
        assert_eq!(
            discrete_values(&IntervalSet::single(dhqp_types::Interval::between(
                Value::Int(3),
                Value::Int(7)
            ))),
            Some(5.0)
        );
    }

    #[test]
    fn a_literal_on_a_large_key_is_one_row() {
        // The histogram's floor is one row of the input, not a fixed
        // 1-in-10 000 that turns a key lookup on 20 000 rows into two.
        let mut reg = ColumnRegistry::new();
        let cols = [("k", DataType::Int)];
        let mut m = (*test_table_meta(0, "t", Locality::Local, &cols, &mut reg, 20_000)).clone();
        Arc::make_mut(&mut m.catalog)
            .indexes
            .push(dhqp_oledb::IndexInfo {
                name: "pk".into(),
                key_columns: vec!["k".into()],
                unique: true,
            });
        let mut stats = TableStatistics {
            row_count: Some(20_000),
            ..Default::default()
        };
        stats.set_histogram("k", int_histogram(20_000, |i| i));
        Arc::make_mut(&mut m.catalog).stats = Some(Arc::new(stats));
        let meta = Arc::new(m);
        // What an index range over the table is sized with.
        let table = props_of(&LogicalExpr::get(Arc::clone(&meta)), &reg);
        let k = ScalarExpr::Column(meta.column_id(0));
        let lit = ScalarExpr::eq(k.clone(), ScalarExpr::literal(Value::Int(77)));
        assert!((20_000.0 * predicate_selectivity(&lit, &table) - 1.0).abs() < 1e-6);
        let blind = ScalarExpr::eq(k, param("p"));
        assert!((20_000.0 * predicate_selectivity(&blind, &table) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_composite_key_fully_bound_is_one_row() {
        // lineitem-like: 6 000 rows, 1 500 orders of 4 lines each, unique
        // on (orderkey, linenumber) together and on neither alone.
        let mut reg = ColumnRegistry::new();
        let cols = [
            ("orderkey", DataType::Int),
            ("linenumber", DataType::Int),
            ("qty", DataType::Int),
        ];
        let mut m = (*test_table_meta(0, "l", Locality::Local, &cols, &mut reg, 6000)).clone();
        Arc::make_mut(&mut m.catalog)
            .indexes
            .push(dhqp_oledb::IndexInfo {
                name: "pk".into(),
                key_columns: vec!["orderkey".into(), "linenumber".into()],
                unique: true,
            });
        let mut stats = TableStatistics {
            row_count: Some(6000),
            ..Default::default()
        };
        stats.set_histogram("orderkey", int_histogram(6000, |i| i / 4));
        stats.set_histogram("linenumber", int_histogram(6000, |i| i % 4));
        Arc::make_mut(&mut m.catalog).stats = Some(Arc::new(stats));
        let meta = Arc::new(m);
        let col = |pos: usize| ScalarExpr::Column(meta.column_id(pos));
        let eq = |pos: usize, name: &str| ScalarExpr::eq(col(pos), param(name));

        let get = props_of(&LogicalExpr::get(Arc::clone(&meta)), &reg);
        assert_eq!(
            get.keys,
            vec![vec![meta.column_id(0), meta.column_id(1)]],
            "the pair is the key"
        );
        assert!(!get.is_unique(meta.column_id(0)));

        // Half the key: the order's four lines.
        let order = filtered_rows(&meta, &reg, eq(0, "o"));
        assert!((order - 4.0).abs() < 1e-9, "{order}");
        // The whole key: the densities multiply to 6000/1500/4 = 1; with a
        // third conjunct the product drops below, never above.
        let both = ScalarExpr::and(vec![eq(0, "o"), eq(1, "l")]).unwrap();
        assert!((filtered_rows(&meta, &reg, both.clone()) - 1.0).abs() < 1e-9);
        // Without a histogram on `orderkey` the product of the two
        // guesses would be 6000 × 0.05 × 1/4 = 75 rows; the key knows
        // better.
        let mut thin = (*meta).clone();
        let catalog = Arc::make_mut(&mut thin.catalog);
        Arc::make_mut(catalog.stats.as_mut().unwrap())
            .histograms
            .remove("orderkey");
        let thin = Arc::new(thin);
        assert!((filtered_rows(&thin, &reg, eq(0, "o")) - 300.0).abs() < 1e-9);
        assert!((filtered_rows(&thin, &reg, both) - 1.0).abs() < 1e-9);

        // The key rides through a projection only when both columns do...
        let tree = LogicalExpr::get(Arc::clone(&meta));
        let outs: Vec<ColumnId> = (0..3)
            .map(|i| reg.allocate(format!("o{i}"), "", DataType::Int, true))
            .collect();
        let project = |positions: &[usize]| {
            let outputs = positions
                .iter()
                .map(|&p| (outs[p], col(p)))
                .collect::<Vec<_>>();
            props_of(
                &LogicalExpr::new(LogicalOp::Project { outputs }, vec![tree.clone()]),
                &reg,
            )
            .keys
        };
        assert_eq!(project(&[1, 2, 0]), vec![vec![outs[0], outs[1]]]);
        assert!(project(&[0, 2]).is_empty());
        // ... and a GROUP BY's columns are a key of its output, together.
        let cnt = reg.allocate("cnt", "", DataType::Int, false);
        let agg = tree.clone().aggregate(
            vec![meta.column_id(0), meta.column_id(2)],
            vec![crate::scalar::AggCall {
                func: crate::scalar::AggFunc::CountStar,
                arg: None,
                distinct: false,
                output: cnt,
            }],
        );
        assert_eq!(
            props_of(&agg, &reg).keys,
            vec![vec![meta.column_id(0), meta.column_id(2)]]
        );
    }

    #[test]
    fn neither_histogram_nor_key_keeps_the_system_r_constants() {
        let mut reg = ColumnRegistry::new();
        let meta = density_table(&mut reg);
        let u = ScalarExpr::Column(meta.column_id(3));
        let rows = |pred: ScalarExpr| filtered_rows(&meta, &reg, pred);
        let near = |got: f64, want: f64| (got - want).abs() < 1e-9;
        assert!(near(
            rows(ScalarExpr::eq(u.clone(), param("p"))),
            1000.0 * SEL_EQ_DEFAULT
        ));
        assert!(near(
            rows(ScalarExpr::eq(
                u.clone(),
                ScalarExpr::literal(Value::Int(3))
            )),
            1000.0 * SEL_EQ_DEFAULT
        ));
        assert!(near(
            rows(ScalarExpr::cmp(CmpOp::Neq, u.clone(), param("p"))),
            1000.0 * (1.0 - SEL_EQ_DEFAULT)
        ));
        assert!(near(
            rows(ScalarExpr::cmp(CmpOp::Le, u.clone(), param("p"))),
            1000.0 * SEL_RANGE_DEFAULT
        ));
        let list = |n: i64| ScalarExpr::InList {
            expr: Box::new(u.clone()),
            list: (0..n).map(Value::Int).collect(),
            negated: false,
        };
        assert!(near(rows(list(3)), 1000.0 * 3.0 * SEL_EQ_DEFAULT));
        assert!(near(rows(list(40)), 800.0), "capped at 0.8");
    }

    #[test]
    fn filter_narrows_domain_and_detects_contradiction() {
        let mut reg = ColumnRegistry::new();
        let meta = test_table_meta(
            0,
            "t",
            Locality::Local,
            &[("k", DataType::Int)],
            &mut reg,
            100,
        );
        let col = meta.column_id(0);
        let gt50 = ScalarExpr::cmp(
            CmpOp::Gt,
            ScalarExpr::Column(col),
            ScalarExpr::literal(Value::Int(50)),
        );
        let eq20 = ScalarExpr::eq(ScalarExpr::Column(col), ScalarExpr::literal(Value::Int(20)));
        let tree = LogicalExpr::get(meta).filter(gt50).filter(eq20);
        let props = props_of(&tree, &reg);
        assert!(
            props.domains.get(col).is_some_and(IntervalSet::is_empty),
            "50<k AND k=20 is contradictory"
        );
        assert_eq!(props.cardinality, 0.0);
    }

    #[test]
    fn only_matched_rows_take_the_other_sides_domain() {
        use crate::logical::JoinKind;
        let mut reg = ColumnRegistry::new();
        let a = test_table_meta(
            0,
            "a",
            Locality::Local,
            &[("x", DataType::Int)],
            &mut reg,
            100,
        );
        let b = test_table_meta(
            1,
            "b",
            Locality::Local,
            &[("y", DataType::Int)],
            &mut reg,
            100,
        );
        let (x, y) = (a.column_id(0), b.column_id(0));
        let keys = ScalarExpr::InList {
            expr: Box::new(ScalarExpr::Column(y)),
            list: [1, 2].into_iter().map(Value::Int).collect(),
            negated: false,
        };
        // An outer join also keeps the left rows that found no match, an
        // anti join keeps only those: neither confines `x` to `y`'s keys.
        for (kind, confined) in [
            (JoinKind::Inner, true),
            (JoinKind::Semi, true),
            (JoinKind::LeftOuter, false),
            (JoinKind::Anti, false),
        ] {
            let join = LogicalExpr::join(
                kind,
                LogicalExpr::get(Arc::clone(&a)),
                LogicalExpr::get(Arc::clone(&b)).filter(keys.clone()),
                Some(ScalarExpr::eq(ScalarExpr::Column(x), ScalarExpr::Column(y))),
            );
            let props = props_of(&join, &reg);
            assert_eq!(props.domains.get(x).is_some(), confined, "{kind:?}");
        }
    }

    #[test]
    fn key_join_cardinality_is_fk_side() {
        let mut reg = ColumnRegistry::new();
        let mut nation = (*test_table_meta(
            0,
            "nation",
            Locality::Local,
            &[("nk", DataType::Int)],
            &mut reg,
            25,
        ))
        .clone();
        Arc::make_mut(&mut nation.catalog)
            .indexes
            .push(dhqp_oledb::IndexInfo {
                name: "pk".into(),
                key_columns: vec!["nk".into()],
                unique: true,
            });
        let nation = Arc::new(nation);
        let cust = test_table_meta(
            1,
            "customer",
            Locality::Local,
            &[("ck", DataType::Int), ("cnk", DataType::Int)],
            &mut reg,
            1500,
        );
        let join = LogicalExpr::join(
            crate::logical::JoinKind::Inner,
            LogicalExpr::get(Arc::clone(&cust)),
            LogicalExpr::get(Arc::clone(&nation)),
            Some(ScalarExpr::eq(
                ScalarExpr::Column(cust.column_id(1)),
                ScalarExpr::Column(nation.column_id(0)),
            )),
        );
        let props = props_of(&join, &reg);
        // Joining to a key: about one match per customer.
        assert!(
            (props.cardinality - 1500.0).abs() < 300.0,
            "estimate {} should be near 1500",
            props.cardinality
        );
    }

    #[test]
    fn union_all_merges_partition_domains() {
        let mut reg = ColumnRegistry::new();
        let mk = |id: u32, lo: i64, hi: i64, reg: &mut ColumnRegistry| {
            let mut m = (*test_table_meta(
                id,
                &format!("p{id}"),
                Locality::Local,
                &[("k", DataType::Int)],
                reg,
                100,
            ))
            .clone();
            Arc::make_mut(&mut m.catalog).checks = vec![(
                0,
                IntervalSet::single(dhqp_types::Interval::between(
                    Value::Int(lo),
                    Value::Int(hi),
                )),
            )];
            Arc::new(m)
        };
        let p1 = mk(0, 0, 9, &mut reg);
        let p2 = mk(1, 10, 19, &mut reg);
        let out = vec![reg.allocate("k", "v", DataType::Int, true)];
        let union = LogicalExpr::new(
            LogicalOp::UnionAll {
                output: out.clone(),
            },
            vec![LogicalExpr::get(p1), LogicalExpr::get(p2)],
        );
        let props = props_of(&union, &reg);
        assert_eq!(props.cardinality, 200.0);
        let dom = props.domains.get(out[0]).unwrap();
        assert!(dom.contains(&Value::Int(5)));
        assert!(dom.contains(&Value::Int(15)));
        assert!(!dom.contains(&Value::Int(25)));
    }

    #[test]
    fn aggregate_groups_bounded_by_input() {
        let mut reg = ColumnRegistry::new();
        let meta = table_with_hist(&mut reg);
        let col = meta.column_id(0);
        let out = reg.allocate("cnt", "", DataType::Int, false);
        let agg = LogicalExpr::get(meta).aggregate(
            vec![col],
            vec![crate::scalar::AggCall {
                func: crate::scalar::AggFunc::CountStar,
                arg: None,
                distinct: false,
                output: out,
            }],
        );
        let props = props_of(&agg, &reg);
        assert!(props.cardinality <= 1000.0);
        assert!(
            props.cardinality > 500.0,
            "k is unique-ish: {}",
            props.cardinality
        );
    }
}
