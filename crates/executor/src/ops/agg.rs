//! Aggregation operators: hash aggregate and (order-exploiting) stream
//! aggregate.

use crate::context::ExecContext;
use crate::eval::{eval_expr, positions_of, RowEnv};
use dhqp_oledb::{MemRowset, RowCursor, Rowset};
use dhqp_optimizer::scalar::{AggCall, AggFunc};
use dhqp_optimizer::ColumnId;
use dhqp_types::{DhqpError, Result, Row, RowBatch, Schema, Value};
use std::collections::{HashMap, HashSet};

/// One running aggregate.
#[derive(Debug, Clone)]
struct Accumulator {
    func: AggFunc,
    distinct: bool,
    seen: HashSet<Value>,
    count: i64,
    sum: Value,
    min: Value,
    max: Value,
}

impl Accumulator {
    fn new(func: AggFunc, distinct: bool) -> Self {
        Accumulator {
            func,
            distinct,
            seen: HashSet::new(),
            count: 0,
            sum: Value::Null,
            min: Value::Null,
            max: Value::Null,
        }
    }

    fn update(&mut self, v: Value) -> Result<()> {
        if self.func == AggFunc::CountStar {
            self.count += 1;
            return Ok(());
        }
        if v.is_null() {
            return Ok(()); // aggregates ignore NULL inputs
        }
        if self.distinct && !self.seen.insert(v.clone()) {
            return Ok(());
        }
        self.count += 1;
        match self.func {
            AggFunc::Sum | AggFunc::Avg => {
                self.sum = if self.sum.is_null() {
                    v.clone()
                } else {
                    self.sum.add(&v)?
                };
            }
            AggFunc::Min => {
                if self.min.is_null() || v.sql_cmp(&self.min) == Some(std::cmp::Ordering::Less) {
                    self.min = v.clone();
                }
            }
            AggFunc::Max => {
                if self.max.is_null() || v.sql_cmp(&self.max) == Some(std::cmp::Ordering::Greater) {
                    self.max = v.clone();
                }
            }
            AggFunc::Count | AggFunc::CountStar => {}
        }
        Ok(())
    }

    fn finish(&self) -> Result<Value> {
        Ok(match self.func {
            AggFunc::CountStar | AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => self.sum.clone(),
            AggFunc::Min => self.min.clone(),
            AggFunc::Max => self.max.clone(),
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    self.sum
                        .cast(dhqp_types::DataType::Float)?
                        .div(&Value::Int(self.count))?
                }
            }
        })
    }
}

fn update_group(accs: &mut [Accumulator], aggs: &[AggCall], env: &RowEnv<'_>) -> Result<()> {
    for (acc, agg) in accs.iter_mut().zip(aggs) {
        let v = match &agg.arg {
            Some(e) => eval_expr(e, env)?,
            None => Value::Null, // COUNT(*) ignores the value anyway
        };
        acc.update(v)?;
    }
    Ok(())
}

fn finish_group(group_key: Vec<Value>, accs: &[Accumulator]) -> Result<Row> {
    let mut values = group_key;
    for acc in accs {
        values.push(acc.finish()?);
    }
    Ok(Row::new(values))
}

/// Hash aggregation (materializes all groups at open).
pub fn open_hash_aggregate(
    mut input: Box<dyn Rowset>,
    group_by: &[ColumnId],
    aggs: &[AggCall],
    input_columns: &[ColumnId],
    schema: Schema,
    ctx: &ExecContext,
) -> Result<MemRowset> {
    let positions = positions_of(input_columns);
    let group_pos: Vec<usize> = group_by
        .iter()
        .map(|c| {
            positions.get(c).copied().ok_or_else(|| {
                DhqpError::Execute(format!("group column #{} missing from input", c.0))
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let mut groups: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
    // Preserve first-seen group order for deterministic output.
    let mut order: Vec<Vec<Value>> = Vec::new();
    let pull = ctx.batch().batch_size;
    while let Some(batch) = input.next_batch(pull)? {
        for row in batch {
            let key: Vec<Value> = group_pos.iter().map(|&p| row.values[p].clone()).collect();
            let env = RowEnv {
                positions: &positions,
                row: &row,
                ctx,
            };
            let accs = groups.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                aggs.iter()
                    .map(|a| Accumulator::new(a.func, a.distinct))
                    .collect()
            });
            update_group(accs, aggs, &env)?;
        }
    }
    // Scalar aggregate over an empty input still yields one row.
    if group_by.is_empty() && groups.is_empty() {
        let accs: Vec<Accumulator> = aggs
            .iter()
            .map(|a| Accumulator::new(a.func, a.distinct))
            .collect();
        groups.insert(Vec::new(), accs);
        order.push(Vec::new());
    }
    let mut out = Vec::with_capacity(groups.len());
    for key in order {
        let accs = groups.remove(&key).expect("group recorded in order list");
        out.push(finish_group(key, &accs)?);
    }
    Ok(MemRowset::new(schema, out))
}

/// Stream aggregation over input sorted on the grouping columns: emits a
/// group as soon as the key changes (no hash table).
pub struct StreamAggregate {
    input: RowCursor,
    group_pos: Vec<usize>,
    aggs: Vec<AggCall>,
    positions: HashMap<ColumnId, usize>,
    schema: Schema,
    ctx: ExecContext,
    current_key: Option<Vec<Value>>,
    current_accs: Vec<Accumulator>,
    done: bool,
    emitted_any: bool,
}

impl StreamAggregate {
    pub fn new(
        input: Box<dyn Rowset>,
        group_by: &[ColumnId],
        aggs: Vec<AggCall>,
        input_columns: &[ColumnId],
        schema: Schema,
        ctx: ExecContext,
    ) -> Result<Self> {
        let positions = positions_of(input_columns);
        let group_pos: Vec<usize> = group_by
            .iter()
            .map(|c| {
                positions.get(c).copied().ok_or_else(|| {
                    DhqpError::Execute(format!("group column #{} missing from input", c.0))
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(StreamAggregate {
            input: RowCursor::new(input, ctx.batch().batch_size),
            group_pos,
            aggs,
            positions,
            schema,
            ctx,
            current_key: None,
            current_accs: Vec::new(),
            done: false,
            emitted_any: false,
        })
    }

    fn fresh_accs(&self) -> Vec<Accumulator> {
        self.aggs
            .iter()
            .map(|a| Accumulator::new(a.func, a.distinct))
            .collect()
    }

    /// Read input up to the next key change (or its end) and finish the
    /// group that closes there.
    fn next_group(&mut self) -> Result<Option<Row>> {
        if self.done {
            return Ok(None);
        }
        loop {
            match self.input.next_row()? {
                Some(row) => {
                    let key: Vec<Value> = self
                        .group_pos
                        .iter()
                        .map(|&p| row.values[p].clone())
                        .collect();
                    let boundary = self.current_key.as_ref().is_some_and(|k| *k != key);
                    let finished = if boundary {
                        let prev_key = self.current_key.take().expect("boundary implies key");
                        let accs = std::mem::take(&mut self.current_accs);
                        Some(finish_group(prev_key, &accs)?)
                    } else {
                        None
                    };
                    if self.current_key.is_none() {
                        self.current_key = Some(key);
                        self.current_accs = self.fresh_accs();
                    }
                    let env = RowEnv {
                        positions: &self.positions,
                        row: &row,
                        ctx: &self.ctx,
                    };
                    update_group(&mut self.current_accs, &self.aggs, &env)?;
                    if let Some(done_row) = finished {
                        self.emitted_any = true;
                        return Ok(Some(done_row));
                    }
                }
                None => {
                    self.done = true;
                    if let Some(key) = self.current_key.take() {
                        let accs = std::mem::take(&mut self.current_accs);
                        self.emitted_any = true;
                        return Ok(Some(finish_group(key, &accs)?));
                    }
                    // Scalar aggregate over empty input: one row.
                    if self.group_pos.is_empty() && !self.emitted_any {
                        let accs = self.fresh_accs();
                        return Ok(Some(finish_group(Vec::new(), &accs)?));
                    }
                    return Ok(None);
                }
            }
        }
    }
}

impl Rowset for StreamAggregate {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        let mut out = RowBatch::default();
        while out.len() < max.max(1) {
            match self.next_group()? {
                Some(group) => out.push(group),
                None => break,
            }
        }
        Ok((!out.is_empty()).then_some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_support::TestCatalog;
    use dhqp_oledb::{MemRowset, RowsetExt};
    use dhqp_optimizer::props::ColumnRegistry;
    use dhqp_optimizer::ScalarExpr;
    use dhqp_storage::StorageEngine;
    use dhqp_types::{Column, DataType};
    use std::sync::Arc;

    fn ctx() -> ExecContext {
        let catalog = Arc::new(TestCatalog::with_local(Arc::new(StorageEngine::new("l"))));
        ExecContext::new(catalog, HashMap::new(), Arc::new(ColumnRegistry::new()))
    }

    fn input(rows: Vec<(i64, Option<i64>)>) -> Box<dyn Rowset> {
        let schema = Schema::new(vec![
            Column::new("g", DataType::Int),
            Column::new("v", DataType::Int),
        ]);
        let rows = rows
            .into_iter()
            .map(|(g, v)| Row::new(vec![Value::Int(g), v.map_or(Value::Null, Value::Int)]))
            .collect();
        Box::new(MemRowset::new(schema, rows))
    }

    fn agg_schema() -> Schema {
        Schema::new(vec![
            Column::new("g", DataType::Int),
            Column::new("cnt", DataType::Int),
            Column::new("sum", DataType::Int),
        ])
    }

    fn calls() -> Vec<AggCall> {
        vec![
            AggCall {
                func: AggFunc::CountStar,
                arg: None,
                distinct: false,
                output: ColumnId(10),
            },
            AggCall {
                func: AggFunc::Sum,
                arg: Some(ScalarExpr::Column(ColumnId(1))),
                distinct: false,
                output: ColumnId(11),
            },
        ]
    }

    #[test]
    fn hash_aggregate_groups_and_ignores_nulls() {
        let rows = vec![
            (1, Some(10)),
            (2, Some(5)),
            (1, None),
            (1, Some(20)),
            (2, Some(5)),
        ];
        let mut agg = open_hash_aggregate(
            input(rows),
            &[ColumnId(0)],
            &calls(),
            &[ColumnId(0), ColumnId(1)],
            agg_schema(),
            &ctx(),
        )
        .unwrap();
        let out = agg.collect_rows().unwrap();
        assert_eq!(out.len(), 2);
        // Group 1: count 3 (COUNT(*) counts null rows), sum 30.
        assert_eq!(
            out[0].values,
            vec![Value::Int(1), Value::Int(3), Value::Int(30)]
        );
        assert_eq!(
            out[1].values,
            vec![Value::Int(2), Value::Int(2), Value::Int(10)]
        );
    }

    #[test]
    fn stream_aggregate_matches_hash_on_sorted_input() {
        let rows = vec![(1, Some(10)), (1, Some(20)), (2, Some(5)), (3, Some(1))];
        let mut s = StreamAggregate::new(
            input(rows.clone()),
            &[ColumnId(0)],
            calls(),
            &[ColumnId(0), ColumnId(1)],
            agg_schema(),
            ctx(),
        )
        .unwrap();
        let stream_out = s.collect_rows().unwrap();
        let mut h = open_hash_aggregate(
            input(rows),
            &[ColumnId(0)],
            &calls(),
            &[ColumnId(0), ColumnId(1)],
            agg_schema(),
            &ctx(),
        )
        .unwrap();
        let hash_out = h.collect_rows().unwrap();
        assert_eq!(stream_out, hash_out);
        assert_eq!(stream_out.len(), 3);
    }

    #[test]
    fn scalar_aggregate_on_empty_input_yields_one_row() {
        let mut agg = open_hash_aggregate(
            input(vec![]),
            &[],
            &calls(),
            &[ColumnId(0), ColumnId(1)],
            Schema::new(vec![
                Column::new("cnt", DataType::Int),
                Column::new("sum", DataType::Int),
            ]),
            &ctx(),
        )
        .unwrap();
        let out = agg.collect_rows().unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values, vec![Value::Int(0), Value::Null]);
    }

    #[test]
    fn min_max_avg_distinct() {
        let rows = vec![(1, Some(4)), (1, Some(4)), (1, Some(8))];
        let aggs = vec![
            AggCall {
                func: AggFunc::Min,
                arg: Some(ScalarExpr::Column(ColumnId(1))),
                distinct: false,
                output: ColumnId(10),
            },
            AggCall {
                func: AggFunc::Max,
                arg: Some(ScalarExpr::Column(ColumnId(1))),
                distinct: false,
                output: ColumnId(11),
            },
            AggCall {
                func: AggFunc::Avg,
                arg: Some(ScalarExpr::Column(ColumnId(1))),
                distinct: false,
                output: ColumnId(12),
            },
            AggCall {
                func: AggFunc::Count,
                arg: Some(ScalarExpr::Column(ColumnId(1))),
                distinct: true,
                output: ColumnId(13),
            },
        ];
        let schema = Schema::new(vec![
            Column::new("g", DataType::Int),
            Column::new("min", DataType::Int),
            Column::new("max", DataType::Int),
            Column::new("avg", DataType::Float),
            Column::new("cd", DataType::Int),
        ]);
        let mut agg = open_hash_aggregate(
            input(rows),
            &[ColumnId(0)],
            &aggs,
            &[ColumnId(0), ColumnId(1)],
            schema,
            &ctx(),
        )
        .unwrap();
        let out = agg.collect_rows().unwrap();
        assert_eq!(
            out[0].values,
            vec![
                Value::Int(1),
                Value::Int(4),
                Value::Int(8),
                Value::Float(16.0 / 3.0),
                Value::Int(2)
            ]
        );
    }
}
