//! Row-level operators: filter, startup filter, projection.

use crate::context::ExecContext;
use crate::eval::{eval_expr, eval_predicate, positions_of, RowEnv};
use dhqp_oledb::{MemRowset, Rowset};
use dhqp_optimizer::{ColumnId, ScalarExpr};
use dhqp_types::{DhqpError, Result, Row, RowBatch, Schema};
use std::collections::HashMap;

/// An error a row raised after others of its batch were kept: the kept rows
/// arrive first and the error with the next pull, as
/// [`dhqp_oledb::IterRowset`] delivers a fault. `Err` at once when nothing
/// was kept.
fn hold(failed: &mut Option<DhqpError>, e: DhqpError, kept: &RowBatch) -> Result<()> {
    if kept.is_empty() {
        return Err(e);
    }
    *failed = Some(e);
    Ok(())
}

/// Streaming filter.
pub struct FilterRowset {
    inner: Box<dyn Rowset>,
    predicate: ScalarExpr,
    positions: HashMap<ColumnId, usize>,
    ctx: ExecContext,
    failed: Option<DhqpError>,
}

impl FilterRowset {
    pub fn new(
        inner: Box<dyn Rowset>,
        predicate: ScalarExpr,
        input_columns: &[ColumnId],
        ctx: ExecContext,
    ) -> Self {
        FilterRowset {
            inner,
            predicate,
            positions: positions_of(input_columns),
            ctx,
            failed: None,
        }
    }
}

impl Rowset for FilterRowset {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        // Pull whole chunks from the child and keep the survivors; loop so
        // a fully-filtered chunk never surfaces as an empty batch.
        loop {
            let Some(batch) = self.inner.next_batch(max)? else {
                return Ok(None);
            };
            let mut kept = RowBatch::with_capacity(batch.len());
            for row in batch {
                let env = RowEnv {
                    positions: &self.positions,
                    row: &row,
                    ctx: &self.ctx,
                };
                match eval_predicate(&self.predicate, &env) {
                    Ok(true) => kept.push(row),
                    Ok(false) => {}
                    Err(e) => {
                        hold(&mut self.failed, e, &kept)?;
                        break;
                    }
                }
            }
            if !kept.is_empty() {
                return Ok(Some(kept));
            }
        }
    }
}

/// Startup filter (paper §4.1.5): evaluates a column-free predicate *once*;
/// when false the child subtree is never opened. `open_child` is called
/// lazily so a pruned branch costs nothing — the runtime half of partition
/// elimination.
pub fn open_startup_filter(
    predicate: &ScalarExpr,
    schema: Schema,
    ctx: &ExecContext,
    open_child: impl FnOnce() -> Result<Box<dyn Rowset>>,
) -> Result<Box<dyn Rowset>> {
    let positions: HashMap<ColumnId, usize> = HashMap::new();
    let row = Row::new(vec![]);
    let env = RowEnv {
        positions: &positions,
        row: &row,
        ctx,
    };
    if eval_predicate(predicate, &env)? {
        open_child()
    } else {
        Ok(Box::new(MemRowset::empty(schema)))
    }
}

/// Computed projection.
pub struct ProjectRowset {
    inner: Box<dyn Rowset>,
    outputs: Vec<(ColumnId, ScalarExpr)>,
    positions: HashMap<ColumnId, usize>,
    schema: Schema,
    ctx: ExecContext,
    failed: Option<DhqpError>,
}

impl ProjectRowset {
    pub fn new(
        inner: Box<dyn Rowset>,
        outputs: Vec<(ColumnId, ScalarExpr)>,
        input_columns: &[ColumnId],
        schema: Schema,
        ctx: ExecContext,
    ) -> Self {
        ProjectRowset {
            inner,
            outputs,
            positions: positions_of(input_columns),
            schema,
            ctx,
            failed: None,
        }
    }
}

impl Rowset for ProjectRowset {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        let Some(batch) = self.inner.next_batch(max)? else {
            return Ok(None);
        };
        let mut out = RowBatch::with_capacity(batch.len());
        for row in batch {
            let env = RowEnv {
                positions: &self.positions,
                row: &row,
                ctx: &self.ctx,
            };
            let values = self.outputs.iter().map(|(_, e)| eval_expr(e, &env));
            match values.collect::<Result<Vec<_>>>() {
                Ok(values) => out.push(Row::new(values)),
                Err(e) => {
                    hold(&mut self.failed, e, &out)?;
                    break;
                }
            }
        }
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_support::TestCatalog;
    use dhqp_oledb::RowsetExt;
    use dhqp_optimizer::props::ColumnRegistry;
    use dhqp_optimizer::scalar::CmpOp;
    use dhqp_storage::StorageEngine;
    use dhqp_types::{Column, DataType, IntervalSet, Value};
    use std::sync::Arc;

    fn ctx() -> ExecContext {
        let catalog = Arc::new(TestCatalog::with_local(Arc::new(StorageEngine::new("l"))));
        let mut params = HashMap::new();
        params.insert("k".to_string(), Value::Int(15));
        ExecContext::new(catalog, params, Arc::new(ColumnRegistry::new()))
    }

    fn input() -> (Box<dyn Rowset>, Vec<ColumnId>) {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let rows = (0..10).map(|i| Row::new(vec![Value::Int(i)])).collect();
        (Box::new(MemRowset::new(schema, rows)), vec![ColumnId(0)])
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let (rs, cols) = input();
        let pred = ScalarExpr::cmp(
            CmpOp::Ge,
            ScalarExpr::Column(ColumnId(0)),
            ScalarExpr::literal(Value::Int(7)),
        );
        let mut f = FilterRowset::new(rs, pred, &cols, ctx());
        assert_eq!(f.count_rows().unwrap(), 3);
    }

    #[test]
    fn startup_filter_skips_child_entirely() {
        let c = ctx();
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        // @k = 15, domain [0,9]: prune.
        let pred = ScalarExpr::ParamInDomain {
            param: "k".into(),
            domain: IntervalSet::single(dhqp_types::Interval::between(
                Value::Int(0),
                Value::Int(9),
            )),
        };
        let mut opened = false;
        let mut rs = open_startup_filter(&pred, schema.clone(), &c, || {
            opened = true;
            let (rs, _) = input();
            Ok(rs)
        })
        .unwrap();
        assert_eq!(rs.count_rows().unwrap(), 0);
        assert!(
            !opened,
            "child must not be opened when startup predicate fails"
        );
        // Domain [10,19] passes.
        let pred = ScalarExpr::ParamInDomain {
            param: "k".into(),
            domain: IntervalSet::single(dhqp_types::Interval::between(
                Value::Int(10),
                Value::Int(19),
            )),
        };
        let mut rs = open_startup_filter(&pred, schema, &c, || Ok(input().0)).unwrap();
        assert_eq!(rs.count_rows().unwrap(), 10);
    }

    /// `1000 / (x - 150)` over `x` in 0..200: row 150 fails.
    fn failing_at_150() -> (Box<dyn Rowset>, ScalarExpr) {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let rows = (0..200).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let quotient = ScalarExpr::Arith {
            op: dhqp_optimizer::ArithOp::Div,
            left: Box::new(ScalarExpr::literal(Value::Int(1000))),
            right: Box::new(ScalarExpr::Arith {
                op: dhqp_optimizer::ArithOp::Sub,
                left: Box::new(ScalarExpr::Column(ColumnId(0))),
                right: Box::new(ScalarExpr::literal(Value::Int(150))),
            }),
        };
        (Box::new(MemRowset::new(schema, rows)), quotient)
    }

    /// Rows pulled `pull` at a time until the first error, which must come.
    fn rows_before_the_error(rowset: &mut dyn Rowset, pull: usize) -> usize {
        let mut delivered = 0;
        loop {
            match rowset.next_batch(pull) {
                Ok(Some(batch)) => delivered += batch.len(),
                Ok(None) => panic!("the stream must fail at row 150"),
                Err(e) => {
                    assert!(e.message().contains("division by zero"), "{e}");
                    return delivered;
                }
            }
        }
    }

    /// The rows before a failing row arrive first, whatever the pull.
    #[test]
    fn rows_before_a_failing_row_arrive_first() {
        for pull in [1, 64, 1_000] {
            let (rs, quotient) = failing_at_150();
            let keep = ScalarExpr::cmp(
                CmpOp::Gt,
                quotient,
                ScalarExpr::literal(Value::Int(-10_000)),
            );
            let mut filter = FilterRowset::new(rs, keep, &[ColumnId(0)], ctx());
            assert_eq!(
                rows_before_the_error(&mut filter, pull),
                150,
                "filter, pull {pull}"
            );

            let (rs, quotient) = failing_at_150();
            let schema = Schema::new(vec![Column::new("q", DataType::Int)]);
            let outputs = vec![(ColumnId(1), quotient)];
            let mut project = ProjectRowset::new(rs, outputs, &[ColumnId(0)], schema, ctx());
            assert_eq!(
                rows_before_the_error(&mut project, pull),
                150,
                "project, pull {pull}"
            );
        }
    }

    #[test]
    fn project_computes_expressions() {
        let (rs, cols) = input();
        let out_col = ColumnId(5);
        let outputs = vec![(
            out_col,
            ScalarExpr::Arith {
                op: dhqp_optimizer::ArithOp::Mul,
                left: Box::new(ScalarExpr::Column(ColumnId(0))),
                right: Box::new(ScalarExpr::literal(Value::Int(2))),
            },
        )];
        let schema = Schema::new(vec![Column::new("double_x", DataType::Int)]);
        let mut p = ProjectRowset::new(rs, outputs, &cols, schema, ctx());
        let rows = p.collect_rows().unwrap();
        assert_eq!(rows[3].get(0), &Value::Int(6));
        assert_eq!(rows.len(), 10);
    }
}
