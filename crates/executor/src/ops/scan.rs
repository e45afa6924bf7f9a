//! Local access paths: table scans, index ranges, constant rowsets — and
//! the one resolver of what an index read covers, for SELECT and DML alike.

use crate::context::ExecContext;
use crate::eval::{eval_expr, RowEnv};
use dhqp_oledb::{KeyRange, MemRowset, Rowset, RowsetExt, Session};
use dhqp_optimizer::{Domains, ScalarExpr, TableMeta};
use dhqp_types::{Interval, IntervalSet, Result, Row};
use std::collections::HashMap;

/// Open a sequential scan over a local base table.
pub fn open_table_scan(meta: &TableMeta, ctx: &ExecContext) -> Result<Box<dyn Rowset>> {
    ctx.member_checks(None, &meta.table)
        .open_session(&ctx.catalog().local(), |s| s.open_rowset(&meta.table))
}

/// The key ranges a read of `meta`'s `index` covers, in key order,
/// resolved as it opens: `seek`'s domains (§5), each operand of no column
/// of the table evaluated in `ctx`, met with the table's CHECKs. Empty when a
/// column's domain comes out empty: no row qualifies. One range per
/// interval of the lead column, so a local read returns no row twice; a
/// remote index gets the hull, one request. `[KeyRange::all()]` when
/// nothing bounds the column.
pub fn key_ranges(
    meta: &TableMeta,
    index: &str,
    seek: Option<&ScalarExpr>,
    ctx: &ExecContext,
) -> Result<Vec<KeyRange>> {
    let Some(seek) = seek else {
        return Ok(vec![KeyRange::all()]);
    };
    let (positions, row) = (HashMap::new(), Row::new(Vec::new()));
    let env = RowEnv {
        positions: &positions,
        row: &row,
        ctx,
    };
    let mut failed = None;
    let mut domains = seek.domains_with(&mut |operand| {
        // An operand that reads the table's own columns bounds nothing.
        let mut bound = true;
        operand.visit(&mut |e| {
            if let ScalarExpr::Column(c) = e {
                bound &= ctx.binding(c.0).is_some();
            }
        });
        if !bound {
            return None;
        }
        eval_expr(operand, &env).map_err(|e| failed = Some(e)).ok()
    });
    if let Some(e) = failed {
        return Err(e);
    }
    let catalog = &meta.catalog;
    let ix = catalog.indexes.iter().find(|ix| ix.name == index);
    let lead = ix.and_then(|ix| catalog.schema.index_of(&ix.key_columns[0]));
    // Whether the predicate itself bounds the key: a CHECK range alone would
    // only re-read the whole table in key order.
    let hull = |key| domains.get(key).and_then(IntervalSet::hull);
    let bounded = |&key: &_| hull(key).is_some_and(|hull| hull != Interval::full());
    let key = lead.map(|pos| meta.column_id(pos)).filter(bounded);
    domains.meet(&Domains::of_checks(meta));
    if domains.is_unsatisfiable() {
        return Ok(Vec::new());
    }
    let Some(domain) = key.and_then(|key| domains.get(key)) else {
        return Ok(vec![KeyRange::all()]);
    };
    if meta.source.is_remote() {
        return Ok(domain.hull().iter().map(KeyRange::covering).collect());
    }
    Ok(domain.intervals().iter().map(KeyRange::covering).collect())
}

/// Read `ranges` (not empty) of `index` through `session`, one open per
/// range, their rows concatenated in range order.
fn open_ranges(
    session: &mut dyn Session,
    table: &str,
    index: &str,
    ranges: &[KeyRange],
) -> Result<Box<dyn Rowset>> {
    let mut rowset = session.open_index(table, index, &ranges[0])?;
    if ranges.len() == 1 {
        return Ok(rowset);
    }
    let mut rows = rowset.collect_rows()?;
    for range in &ranges[1..] {
        rows.extend(session.open_index(table, index, range)?.collect_rows()?);
    }
    Ok(Box::new(MemRowset::new(rowset.schema().clone(), rows)))
}

/// Open a local index range access (delivers key order, carries bookmarks).
pub fn open_index_range(
    meta: &TableMeta,
    index: &str,
    seek: Option<&ScalarExpr>,
    ctx: &ExecContext,
) -> Result<Box<dyn Rowset>> {
    let ranges = key_ranges(meta, index, seek, ctx)?;
    if ranges.is_empty() {
        return Ok(Box::new(MemRowset::empty(meta.catalog.schema.clone())));
    }
    ctx.member_checks(None, &meta.table)
        .open_session(&ctx.catalog().local(), |s| {
            open_ranges(s, &meta.table, index, &ranges)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_support::TestCatalog;
    use dhqp_oledb::RowsetExt;
    use dhqp_optimizer::props::ColumnRegistry;
    use dhqp_optimizer::{CmpOp, ColumnId, Locality};
    use dhqp_storage::{StorageEngine, TableDef};
    use dhqp_types::{Column, DataType, Schema, Value};
    use std::sync::Arc;

    fn setup() -> (ExecContext, Arc<TableMeta>) {
        let engine = Arc::new(StorageEngine::new("local"));
        engine
            .create_table(
                TableDef::new("t", Schema::new(vec![Column::not_null("k", DataType::Int)]))
                    .with_index("pk", &["k"], true),
            )
            .unwrap();
        let rows: Vec<Row> = (0..20).map(|i| Row::new(vec![Value::Int(i)])).collect();
        engine.insert_rows("t", &rows).unwrap();
        let mut reg = ColumnRegistry::new();
        let meta = dhqp_optimizer::logical::test_table_meta(
            0,
            "t",
            Locality::Local,
            &[("k", DataType::Int)],
            &mut reg,
            20,
        );
        let mut m = (*meta).clone();
        Arc::make_mut(&mut m.catalog).indexes = vec![dhqp_oledb::IndexInfo {
            name: "pk".into(),
            key_columns: vec!["k".into()],
            unique: true,
        }];
        let catalog = Arc::new(TestCatalog::with_local(engine));
        let mut params = HashMap::new();
        params.insert("lo".to_string(), Value::Int(5));
        let ctx = ExecContext::new(catalog, params, Arc::new(reg));
        (ctx, Arc::new(m))
    }

    #[test]
    fn table_scan_returns_all_rows() {
        let (ctx, meta) = setup();
        let mut rs = open_table_scan(&meta, &ctx).unwrap();
        assert_eq!(rs.count_rows().unwrap(), 20);
    }

    #[test]
    fn index_range_with_literal_and_param_bounds() {
        let (ctx, meta) = setup();
        // k in [@lo, 8]
        let k = || ScalarExpr::Column(meta.column_id(0));
        let seek = ScalarExpr::And(vec![
            ScalarExpr::cmp(CmpOp::Ge, k(), ScalarExpr::Param("lo".into())),
            ScalarExpr::cmp(CmpOp::Le, k(), ScalarExpr::literal(Value::Int(8))),
        ]);
        let mut rs = open_index_range(&meta, "pk", Some(&seek), &ctx).unwrap();
        let rows = rs.collect_rows().unwrap();
        assert_eq!(rows.len(), 4); // 5,6,7,8
        assert_eq!(rows[0].get(0), &Value::Int(5));
        assert!(rows[0].bookmark.is_some(), "index rows carry bookmarks");
    }

    #[test]
    fn correlation_binding_drives_range() {
        let (ctx, meta) = setup();
        let bound_ctx = ctx.with_bindings([(99u32, Value::Int(3))].into_iter().collect());
        let k = ScalarExpr::Column(meta.column_id(0));
        let seek = ScalarExpr::eq(ScalarExpr::Column(ColumnId(99)), k);
        let mut rs = open_index_range(&meta, "pk", Some(&seek), &bound_ctx).unwrap();
        let rows = rs.collect_rows().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int(3));
    }

    /// A local read seeks each interval once, in key order: overlapping
    /// and repeated values never return a row twice, and a domain the
    /// table's CHECK or a NULL empties reads nothing.
    #[test]
    fn a_local_read_seeks_each_interval_once() {
        let (ctx, meta) = setup();
        let k = || ScalarExpr::Column(meta.column_id(0));
        let lit = |v| ScalarExpr::literal(Value::Int(v));
        let keys = |seek: ScalarExpr, meta: &TableMeta| -> Vec<Value> {
            let mut rs = open_index_range(meta, "pk", Some(&seek), &ctx).unwrap();
            rs.collect_rows()
                .unwrap()
                .iter()
                .map(|r| r.get(0).clone())
                .collect()
        };
        let spread = ScalarExpr::Or(vec![
            ScalarExpr::InList {
                expr: Box::new(k()),
                list: [12, 3, 3].into_iter().map(Value::Int).collect(),
                negated: false,
            },
            ScalarExpr::eq(k(), lit(12)),
            ScalarExpr::cmp(CmpOp::Gt, k(), lit(17)),
        ]);
        let want: Vec<Value> = [3, 12, 18, 19].map(Value::Int).into();
        assert_eq!(keys(spread.clone(), &meta), want);
        assert_eq!(
            key_ranges(&meta, "pk", Some(&spread), &ctx).unwrap().len(),
            3
        );
        let never = ScalarExpr::eq(k(), ScalarExpr::literal(Value::Null));
        assert_eq!(key_ranges(&meta, "pk", Some(&never), &ctx).unwrap(), []);
        let mut checked = TableMeta::clone(&meta);
        let check = IntervalSet::single(Interval::between(Value::Int(0), Value::Int(9)));
        Arc::make_mut(&mut checked.catalog).checks.push((0, check));
        assert_eq!(keys(spread, &checked), [Value::Int(3)]);
        assert_eq!(
            key_ranges(&checked, "pk", Some(&ScalarExpr::eq(k(), lit(12))), &ctx).unwrap(),
            []
        );
    }
}
