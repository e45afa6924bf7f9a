//! Join operators: nested loops (with per-row inner rebinds — the vehicle
//! for remote index probes), hash join and merge join.

use crate::context::ExecContext;
use crate::eval::{eval_expr, eval_predicate, positions_of, RowEnv};
use dhqp_oledb::{MemRowset, RowCursor, Rowset, RowsetExt};
use dhqp_optimizer::{ColumnId, JoinKind, ScalarExpr};
use dhqp_types::{DhqpError, Result, Row, RowBatch, Schema, Value};
use std::collections::HashMap;

/// Factory re-opening the inner side of a nested-loop join under fresh
/// correlation bindings.
pub type InnerFactory = Box<dyn Fn(&ExecContext) -> Result<Box<dyn Rowset>> + Send>;

/// Does `combined` (a left row followed by a right row) pass the join's
/// predicate? No predicate passes everything.
pub(crate) fn passes(
    predicate: Option<&ScalarExpr>,
    positions: &HashMap<ColumnId, usize>,
    combined: &Row,
    ctx: &ExecContext,
) -> Result<bool> {
    predicate.map_or(Ok(true), |p| {
        let env = RowEnv {
            positions,
            row: combined,
            ctx,
        };
        eval_predicate(p, &env)
    })
}

/// `left` followed by `right`: the left values are copied (the row joins
/// again), the right ones moved.
fn concat(left: &Row, right: Row) -> Row {
    let mut values = Vec::with_capacity(left.values.len() + right.values.len());
    values.extend_from_slice(&left.values);
    values.extend(right.values);
    Row::new(values)
}

fn null_pad(left: &Row, right_width: usize) -> Row {
    let mut values = left.values.clone();
    values.resize(values.len() + right_width, Value::Null);
    Row::new(values)
}

/// Nested-loop join. The inner side is re-opened for every outer row with
/// that row's columns exposed as correlation bindings, which is what lets a
/// `RemoteRange` inner child seek on the current join key (§4.1.2).
///
/// The outer side is pipelined: a refill asks it for as many rows as the
/// caller still wants, never more, so `TOP n` above the join over-ships at
/// most `n − 1` outer rows. The inner side is read to its end for every
/// outer row — at the configured pull size — except by a semi or anti join,
/// which stops at the first match and so asks for one row at a time.
pub struct NestedLoopJoin {
    outer: RowCursor,
    inner_factory: InnerFactory,
    inner_pull: usize,
    kind: JoinKind,
    predicate: Option<ScalarExpr>,
    positions: HashMap<ColumnId, usize>,
    outer_columns: Vec<ColumnId>,
    inner_width: usize,
    schema: Schema,
    ctx: ExecContext,
    /// The outer row being joined and its inner side, between calls.
    current: Option<(Row, RowCursor)>,
    matched: bool,
}

impl NestedLoopJoin {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        outer: Box<dyn Rowset>,
        inner_factory: InnerFactory,
        kind: JoinKind,
        predicate: Option<ScalarExpr>,
        outer_columns: Vec<ColumnId>,
        inner_columns: Vec<ColumnId>,
        schema: Schema,
        ctx: ExecContext,
    ) -> Self {
        let mut combined = outer_columns.clone();
        combined.extend(inner_columns.iter().copied());
        let inner_pull = match kind {
            JoinKind::Semi | JoinKind::Anti => 1,
            JoinKind::Inner | JoinKind::Cross | JoinKind::LeftOuter => ctx.batch().batch_size,
        };
        NestedLoopJoin {
            outer: RowCursor::new(outer, 1),
            inner_factory,
            inner_pull,
            kind,
            predicate,
            positions: positions_of(&combined),
            outer_columns,
            inner_width: inner_columns.len(),
            schema,
            ctx,
            current: None,
            matched: false,
        }
    }

    fn rebind(&self, outer_row: &Row) -> ExecContext {
        let bindings: HashMap<u32, Value> = self
            .outer_columns
            .iter()
            .zip(outer_row.values.iter())
            .map(|(c, v)| (c.0, v.clone()))
            .collect();
        self.ctx.with_bindings(bindings)
    }
}

impl Rowset for NestedLoopJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        let max = max.max(1);
        let mut out = RowBatch::default();
        while out.len() < max {
            let (outer_row, mut inner) = match self.current.take() {
                Some(current) => current,
                None => {
                    self.outer.demand(max - out.len());
                    let Some(outer_row) = self.outer.next_row()? else {
                        break;
                    };
                    let inner = (self.inner_factory)(&self.rebind(&outer_row))?;
                    self.matched = false;
                    (outer_row, RowCursor::new(inner, self.inner_pull))
                }
            };
            // The outer row is borrowed for the whole inner loop; it is
            // copied once per joined row and moved out when it is itself
            // the output (semi, anti).
            let mut outer_done = false;
            let mut emit_outer = false;
            while out.len() < max {
                let Some(inner_row) = inner.next_row()? else {
                    match self.kind {
                        JoinKind::LeftOuter if !self.matched => {
                            out.push(null_pad(&outer_row, self.inner_width));
                        }
                        JoinKind::Anti => emit_outer = !self.matched,
                        _ => {}
                    }
                    outer_done = true;
                    break;
                };
                let combined = concat(&outer_row, inner_row);
                if !passes(
                    self.predicate.as_ref(),
                    &self.positions,
                    &combined,
                    &self.ctx,
                )? {
                    continue;
                }
                self.matched = true;
                match self.kind {
                    JoinKind::Inner | JoinKind::Cross | JoinKind::LeftOuter => out.push(combined),
                    // One match decides a semi or anti join's outer row.
                    JoinKind::Semi | JoinKind::Anti => {
                        emit_outer = self.kind == JoinKind::Semi;
                        outer_done = true;
                        break;
                    }
                }
            }
            if !outer_done {
                self.current = Some((outer_row, inner));
            } else if emit_outer {
                out.push(outer_row);
            }
        }
        Ok((!out.is_empty()).then_some(out))
    }
}

/// Hash join: builds on the right input, probes with the left. Both inputs
/// are read to their end at open, a batch at a time.
#[allow(clippy::too_many_arguments)]
pub fn open_hash_join(
    mut left: Box<dyn Rowset>,
    mut right: Box<dyn Rowset>,
    kind: JoinKind,
    left_keys: &[ScalarExpr],
    right_keys: &[ScalarExpr],
    residual: Option<&ScalarExpr>,
    left_columns: &[ColumnId],
    right_columns: &[ColumnId],
    schema: Schema,
    ctx: &ExecContext,
) -> Result<MemRowset> {
    if left_keys.len() != right_keys.len() || left_keys.is_empty() {
        return Err(DhqpError::Execute(
            "hash join requires matching key lists".into(),
        ));
    }
    let left_pos = positions_of(left_columns);
    let right_pos = positions_of(right_columns);
    let mut combined_cols = left_columns.to_vec();
    combined_cols.extend(right_columns.iter().copied());
    let combined_pos = positions_of(&combined_cols);
    let key_of = |keys: &[ScalarExpr], positions: &HashMap<ColumnId, usize>, row: &Row| {
        let env = RowEnv {
            positions,
            row,
            ctx,
        };
        keys.iter()
            .map(|k| eval_expr(k, &env))
            .collect::<Result<Vec<_>>>()
    };
    let pull = ctx.batch().batch_size;

    // Build phase: hash the right input (null keys never match).
    let mut table: HashMap<Vec<Value>, Vec<Row>> = HashMap::new();
    while let Some(batch) = right.next_batch(pull)? {
        for row in batch {
            let key = key_of(right_keys, &right_pos, &row)?;
            if !key.iter().any(Value::is_null) {
                table.entry(key).or_default().push(row);
            }
        }
    }

    // Probe phase.
    let right_width = right_columns.len();
    let mut out = Vec::new();
    while let Some(batch) = left.next_batch(pull)? {
        for lrow in batch {
            let key = key_of(left_keys, &left_pos, &lrow)?;
            let candidates: &[Row] = if key.iter().any(Value::is_null) {
                &[]
            } else {
                table.get(&key).map(|v| v.as_slice()).unwrap_or(&[])
            };
            let mut matched = false;
            for rrow in candidates {
                let combined = lrow.join(rrow);
                if !passes(residual, &combined_pos, &combined, ctx)? {
                    continue;
                }
                matched = true;
                match kind {
                    JoinKind::Inner | JoinKind::Cross | JoinKind::LeftOuter => out.push(combined),
                    JoinKind::Semi | JoinKind::Anti => break,
                }
            }
            match kind {
                JoinKind::LeftOuter if !matched => out.push(null_pad(&lrow, right_width)),
                JoinKind::Semi if matched => out.push(lrow),
                JoinKind::Anti if !matched => out.push(lrow),
                _ => {}
            }
        }
    }
    Ok(MemRowset::new(schema, out))
}

/// Merge join over inputs sorted ascending on the key columns (inner join
/// only; the optimizer requests the orderings via enforcers).
#[allow(clippy::too_many_arguments)]
pub fn open_merge_join(
    mut left: Box<dyn Rowset>,
    mut right: Box<dyn Rowset>,
    left_keys: &[ColumnId],
    right_keys: &[ColumnId],
    residual: Option<&ScalarExpr>,
    left_columns: &[ColumnId],
    right_columns: &[ColumnId],
    schema: Schema,
    ctx: &ExecContext,
) -> Result<MemRowset> {
    let lpos = positions_of(left_columns);
    let rpos = positions_of(right_columns);
    let lkey_pos: Vec<usize> = left_keys
        .iter()
        .map(|c| {
            lpos.get(c).copied().ok_or_else(|| {
                DhqpError::Execute(format!("merge key #{} missing from left input", c.0))
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let rkey_pos: Vec<usize> = right_keys
        .iter()
        .map(|c| {
            rpos.get(c).copied().ok_or_else(|| {
                DhqpError::Execute(format!("merge key #{} missing from right input", c.0))
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let mut combined_cols = left_columns.to_vec();
    combined_cols.extend(right_columns.iter().copied());
    let combined_pos = positions_of(&combined_cols);

    let pull = ctx.batch().batch_size;
    let lrows = left.collect_rows_batched(pull)?;
    let rrows = right.collect_rows_batched(pull)?;
    let key_of = |row: &Row, pos: &[usize]| -> Vec<Value> {
        pos.iter().map(|&p| row.values[p].clone()).collect()
    };
    let cmp_keys = |a: &[Value], b: &[Value]| -> std::cmp::Ordering {
        for (x, y) in a.iter().zip(b.iter()) {
            let o = x.total_cmp(y);
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    };

    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < lrows.len() && j < rrows.len() {
        let lk = key_of(&lrows[i], &lkey_pos);
        let rk = key_of(&rrows[j], &rkey_pos);
        // SQL semantics: null keys never join.
        if lk.iter().any(Value::is_null) {
            i += 1;
            continue;
        }
        if rk.iter().any(Value::is_null) {
            j += 1;
            continue;
        }
        match cmp_keys(&lk, &rk) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // Group boundaries on both sides.
                let mut i_end = i;
                while i_end < lrows.len()
                    && cmp_keys(&key_of(&lrows[i_end], &lkey_pos), &lk) == std::cmp::Ordering::Equal
                {
                    i_end += 1;
                }
                let mut j_end = j;
                while j_end < rrows.len()
                    && cmp_keys(&key_of(&rrows[j_end], &rkey_pos), &rk) == std::cmp::Ordering::Equal
                {
                    j_end += 1;
                }
                for lrow in &lrows[i..i_end] {
                    for rrow in &rrows[j..j_end] {
                        let combined = lrow.join(rrow);
                        if passes(residual, &combined_pos, &combined, ctx)? {
                            out.push(combined);
                        }
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    Ok(MemRowset::new(schema, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_support::TestCatalog;
    use dhqp_oledb::MemRowset;
    use dhqp_optimizer::props::ColumnRegistry;
    use dhqp_optimizer::scalar::CmpOp;
    use dhqp_storage::StorageEngine;
    use dhqp_types::{Column, DataType};
    use std::sync::Arc;

    fn ctx() -> ExecContext {
        let catalog = Arc::new(TestCatalog::with_local(Arc::new(StorageEngine::new("l"))));
        ExecContext::new(catalog, HashMap::new(), Arc::new(ColumnRegistry::new()))
    }

    fn ints(vals: &[i64]) -> (Box<dyn Rowset>, Schema) {
        let schema = Schema::new(vec![Column::new("v", DataType::Int)]);
        let rows = vals
            .iter()
            .map(|&i| Row::new(vec![Value::Int(i)]))
            .collect();
        (Box::new(MemRowset::new(schema.clone(), rows)), schema)
    }

    fn join_schema() -> Schema {
        Schema::new(vec![
            Column::new("l", DataType::Int),
            Column::new("r", DataType::Int),
        ])
    }

    fn eq_pred() -> ScalarExpr {
        ScalarExpr::eq(
            ScalarExpr::Column(ColumnId(0)),
            ScalarExpr::Column(ColumnId(1)),
        )
    }

    fn nlj(kind: JoinKind, left: &[i64], right: &'static [i64]) -> Vec<Row> {
        let (outer, _) = ints(left);
        let factory: InnerFactory = Box::new(move |_ctx| Ok(ints(right).0));
        let schema = if kind.produces_right() {
            join_schema()
        } else {
            Schema::new(vec![Column::new("l", DataType::Int)])
        };
        let mut j = NestedLoopJoin::new(
            outer,
            factory,
            kind,
            Some(eq_pred()),
            vec![ColumnId(0)],
            vec![ColumnId(1)],
            schema,
            ctx(),
        );
        j.collect_rows().unwrap()
    }

    #[test]
    fn nlj_inner() {
        let rows = nlj(JoinKind::Inner, &[1, 2, 3], &[2, 3, 3, 4]);
        // 2 matches once, 3 matches twice.
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn nlj_left_outer_pads_nulls() {
        let rows = nlj(JoinKind::LeftOuter, &[1, 2], &[2]);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].get(1).is_null());
        assert_eq!(rows[1].get(1), &Value::Int(2));
    }

    #[test]
    fn nlj_semi_and_anti() {
        let semi = nlj(JoinKind::Semi, &[1, 2, 3], &[2, 2, 3]);
        assert_eq!(semi.len(), 2);
        assert_eq!(semi[0].len(), 1, "semi join emits outer columns only");
        let anti = nlj(JoinKind::Anti, &[1, 2, 3], &[2, 2, 3]);
        assert_eq!(anti.len(), 1);
        assert_eq!(anti[0].get(0), &Value::Int(1));
    }

    #[test]
    fn hash_join_kinds() {
        let run = |kind: JoinKind| -> Vec<Row> {
            let (l, _) = ints(&[1, 2, 3]);
            let (r, _) = ints(&[2, 3, 3]);
            let schema = if kind.produces_right() {
                join_schema()
            } else {
                Schema::new(vec![Column::new("l", DataType::Int)])
            };
            let mut j = open_hash_join(
                l,
                r,
                kind,
                &[ScalarExpr::Column(ColumnId(0))],
                &[ScalarExpr::Column(ColumnId(1))],
                None,
                &[ColumnId(0)],
                &[ColumnId(1)],
                schema,
                &ctx(),
            )
            .unwrap();
            j.collect_rows().unwrap()
        };
        assert_eq!(run(JoinKind::Inner).len(), 3);
        assert_eq!(run(JoinKind::LeftOuter).len(), 4); // 1 padded
        assert_eq!(run(JoinKind::Semi).len(), 2);
        assert_eq!(run(JoinKind::Anti).len(), 1);
    }

    #[test]
    fn hash_join_null_keys_never_match() {
        let schema = Schema::new(vec![Column::new("v", DataType::Int)]);
        let l: Box<dyn Rowset> = Box::new(MemRowset::new(
            schema.clone(),
            vec![Row::new(vec![Value::Null]), Row::new(vec![Value::Int(1)])],
        ));
        let r: Box<dyn Rowset> = Box::new(MemRowset::new(
            schema,
            vec![Row::new(vec![Value::Null]), Row::new(vec![Value::Int(1)])],
        ));
        let mut j = open_hash_join(
            l,
            r,
            JoinKind::Inner,
            &[ScalarExpr::Column(ColumnId(0))],
            &[ScalarExpr::Column(ColumnId(1))],
            None,
            &[ColumnId(0)],
            &[ColumnId(1)],
            join_schema(),
            &ctx(),
        )
        .unwrap();
        assert_eq!(j.count_rows().unwrap(), 1, "NULL = NULL must not join");
    }

    #[test]
    fn merge_join_with_duplicates() {
        let (l, _) = ints(&[1, 2, 2, 3]);
        let (r, _) = ints(&[2, 2, 3, 4]);
        let mut j = open_merge_join(
            l,
            r,
            &[ColumnId(0)],
            &[ColumnId(1)],
            None,
            &[ColumnId(0)],
            &[ColumnId(1)],
            join_schema(),
            &ctx(),
        )
        .unwrap();
        // 2x2 group yields 4, 3 yields 1.
        assert_eq!(j.count_rows().unwrap(), 5);
    }

    #[test]
    fn nlj_rebinds_inner_via_correlation() {
        // Inner factory returns rows derived from the binding: simulate a
        // parameterized remote probe returning exactly the bound key.
        let (outer, _) = ints(&[5, 7]);
        let factory: InnerFactory = Box::new(|ctx| {
            let v = ctx.binding(0).cloned().unwrap();
            let schema = Schema::new(vec![Column::new("r", DataType::Int)]);
            Ok(Box::new(MemRowset::new(schema, vec![Row::new(vec![v])])))
        });
        let mut j = NestedLoopJoin::new(
            outer,
            factory,
            JoinKind::Inner,
            Some(eq_pred()),
            vec![ColumnId(0)],
            vec![ColumnId(1)],
            join_schema(),
            ctx(),
        );
        let rows = j.collect_rows().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(0), rows[0].get(1));
    }

    #[test]
    fn residual_predicate_filters_hash_matches() {
        let (l, _) = ints(&[1, 2, 3]);
        let (r, _) = ints(&[1, 2, 3]);
        // key match AND l < 3
        let residual = ScalarExpr::And(vec![
            eq_pred(),
            ScalarExpr::cmp(
                CmpOp::Lt,
                ScalarExpr::Column(ColumnId(0)),
                ScalarExpr::literal(Value::Int(3)),
            ),
        ]);
        let mut j = open_hash_join(
            l,
            r,
            JoinKind::Inner,
            &[ScalarExpr::Column(ColumnId(0))],
            &[ScalarExpr::Column(ColumnId(1))],
            Some(&residual),
            &[ColumnId(0)],
            &[ColumnId(1)],
            join_schema(),
            &ctx(),
        )
        .unwrap();
        assert_eq!(j.count_rows().unwrap(), 2);
    }
}
