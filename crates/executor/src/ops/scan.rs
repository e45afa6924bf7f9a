//! Local access paths: table scans, index ranges, constant rowsets.

use crate::context::ExecContext;
use crate::eval::{eval_expr, RowEnv};
use dhqp_oledb::{KeyRange, Rowset};
use dhqp_optimizer::physical::IndexRangeSpec;
use dhqp_optimizer::{ColumnId, TableMeta};
use dhqp_types::{Result, Row, Value};
use std::collections::HashMap;

/// Open a sequential scan over a local base table.
pub fn open_table_scan(meta: &TableMeta, ctx: &ExecContext) -> Result<Box<dyn Rowset>> {
    ctx.member_checks(None, &meta.table)
        .open_session(&ctx.catalog().local(), |s| s.open_rowset(&meta.table))
}

/// Evaluate an [`IndexRangeSpec`]'s bounds into a concrete [`KeyRange`].
/// Bound expressions are column-free in the local scope: literals, query
/// parameters or correlation bindings from an outer row.
pub fn resolve_range(spec: &IndexRangeSpec, ctx: &ExecContext) -> Result<KeyRange> {
    let empty_positions: HashMap<ColumnId, usize> = HashMap::new();
    let empty_row = Row::new(vec![]);
    let env = RowEnv {
        positions: &empty_positions,
        row: &empty_row,
        ctx,
    };
    let eval_bound = |bound: &Option<(Vec<dhqp_optimizer::ScalarExpr>, bool)>| -> Result<Option<(Vec<Value>, bool)>> {
        match bound {
            None => Ok(None),
            Some((exprs, inclusive)) => {
                let vals = exprs.iter().map(|e| eval_expr(e, &env)).collect::<Result<Vec<_>>>()?;
                Ok(Some((vals, *inclusive)))
            }
        }
    };
    Ok(KeyRange {
        low: eval_bound(&spec.low)?,
        high: eval_bound(&spec.high)?,
    })
}

/// Open a local index range access (delivers key order, carries bookmarks).
pub fn open_index_range(
    meta: &TableMeta,
    index: &str,
    spec: &IndexRangeSpec,
    ctx: &ExecContext,
) -> Result<Box<dyn Rowset>> {
    let range = resolve_range(spec, ctx)?;
    ctx.member_checks(None, &meta.table)
        .open_session(&ctx.catalog().local(), |s| {
            s.open_index(&meta.table, index, &range)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_support::TestCatalog;
    use dhqp_oledb::RowsetExt;
    use dhqp_optimizer::props::ColumnRegistry;
    use dhqp_optimizer::{Locality, ScalarExpr};
    use dhqp_storage::{StorageEngine, TableDef};
    use dhqp_types::{Column, DataType, Schema};
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
        let spec = IndexRangeSpec {
            low: Some((vec![ScalarExpr::Param("lo".into())], true)),
            high: Some((vec![ScalarExpr::literal(Value::Int(8))], true)),
        };
        let mut rs = open_index_range(&meta, "pk", &spec, &ctx).unwrap();
        let rows = rs.collect_rows().unwrap();
        assert_eq!(rows.len(), 4); // 5,6,7,8
        assert_eq!(rows[0].get(0), &Value::Int(5));
        assert!(rows[0].bookmark.is_some(), "index rows carry bookmarks");
    }

    #[test]
    fn correlation_binding_drives_range() {
        let (ctx, meta) = setup();
        let bound_ctx = ctx.with_bindings([(99u32, Value::Int(3))].into_iter().collect());
        let spec = IndexRangeSpec::eq(vec![ScalarExpr::Column(ColumnId(99))]);
        let mut rs = open_index_range(&meta, "pk", &spec, &bound_ctx).unwrap();
        let rows = rs.collect_rows().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int(3));
    }
}
