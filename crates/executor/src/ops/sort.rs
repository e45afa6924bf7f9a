//! Order/limit/union/spool operators.

use crate::context::{ExecContext, SpoolData};
use crate::eval::positions_of;
use dhqp_oledb::{MemRowset, Rowset, RowsetExt};
use dhqp_optimizer::ColumnId;
use dhqp_types::{DhqpError, Result, Row, RowBatch, Schema};
use std::sync::Arc;

/// Full sort (materializing). NULLs sort first, per the engine's total
/// order.
pub fn open_sort(
    mut input: Box<dyn Rowset>,
    keys: &[(ColumnId, bool)],
    input_columns: &[ColumnId],
    ctx: &ExecContext,
) -> Result<Box<dyn Rowset>> {
    let positions = positions_of(input_columns);
    let key_pos: Vec<(usize, bool)> =
        keys.iter()
            .map(|(c, asc)| {
                positions.get(c).map(|&p| (p, *asc)).ok_or_else(|| {
                    DhqpError::Execute(format!("sort key #{} missing from input", c.0))
                })
            })
            .collect::<Result<Vec<_>>>()?;
    let schema = input.schema().clone();
    let mut rows = input.collect_rows_batched(ctx.batch().batch_size)?;
    rows.sort_by(|a, b| {
        for &(p, asc) in &key_pos {
            let o = a.values[p].total_cmp(&b.values[p]);
            if o != std::cmp::Ordering::Equal {
                return if asc { o } else { o.reverse() };
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(Box::new(MemRowset::new(schema, rows)))
}

/// First-n limiter (TOP).
pub struct TopRowset {
    inner: Box<dyn Rowset>,
    remaining: u64,
}

impl TopRowset {
    pub fn new(inner: Box<dyn Rowset>, n: u64) -> Self {
        TopRowset {
            inner,
            remaining: n,
        }
    }
}

impl Rowset for TopRowset {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        // Never over-pull past the limit: the child (possibly a metered
        // remote stream) only ships rows TOP will actually deliver.
        let want = (max.max(1) as u64).min(self.remaining) as usize;
        match self.inner.next_batch(want)? {
            Some(batch) => {
                self.remaining -= batch.len() as u64;
                Ok(Some(batch))
            }
            None => {
                self.remaining = 0;
                Ok(None)
            }
        }
    }
}

/// Per-branch permutations for a union: `perms[k][i]` is the position
/// within branch k's row that feeds output column i. `child_delivered[k]`
/// is branch k's actual output column order; `input_columns[k]` is the
/// column list whose i-th entry feeds output column i.
pub(crate) fn union_perms(
    child_delivered: &[Vec<ColumnId>],
    input_columns: &[Vec<ColumnId>],
) -> Result<Vec<Vec<usize>>> {
    child_delivered
        .iter()
        .zip(input_columns)
        .map(|(delivered, wanted)| {
            let pos = positions_of(delivered);
            wanted
                .iter()
                .map(|c| {
                    pos.get(c).copied().ok_or_else(|| {
                        DhqpError::Execute(format!(
                            "union input column #{} missing from child output",
                            c.0
                        ))
                    })
                })
                .collect()
        })
        .collect()
}

/// Reorder a batch's rows by a [`union_perms`] permutation. A batch already
/// in output order — an identity permutation over rows of its width, as
/// every prefetched batch is — is moved, not copied.
pub(crate) fn permute(batch: RowBatch, perm: &[usize]) -> RowBatch {
    let identity = perm.iter().enumerate().all(|(i, &p)| i == p);
    if identity && batch.iter().all(|row| row.values.len() == perm.len()) {
        return batch;
    }
    batch
        .into_iter()
        .map(|row| Row::new(perm.iter().map(|&p| row.values[p].clone()).collect()))
        .collect()
}

/// Bag union over children, permuting each child's physical column order to
/// the view's output order (children may deliver equivalent plans whose
/// column order differs).
pub struct UnionAllRowset {
    children: Vec<Box<dyn Rowset>>,
    /// `perms[k][i]`: position within child k's row feeding output column i.
    perms: Vec<Vec<usize>>,
    current: usize,
    schema: Schema,
}

impl UnionAllRowset {
    /// `child_delivered[k]` is child k's actual output column order;
    /// `input_columns[k]` is the column list whose i-th entry feeds output
    /// column i.
    pub fn new(
        children: Vec<Box<dyn Rowset>>,
        child_delivered: &[Vec<ColumnId>],
        input_columns: &[Vec<ColumnId>],
        schema: Schema,
    ) -> Result<Self> {
        let perms = union_perms(child_delivered, input_columns)?;
        Ok(UnionAllRowset {
            children,
            perms,
            current: 0,
            schema,
        })
    }
}

impl Rowset for UnionAllRowset {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        // Forward whole chunks from the current child, permuted to the
        // output order.
        while self.current < self.children.len() {
            match self.children[self.current].next_batch(max)? {
                Some(batch) => return Ok(Some(permute(batch, &self.perms[self.current]))),
                None => self.current += 1,
            }
        }
        Ok(None)
    }
}

/// Spool: materialize the child once per query execution, replay from the
/// shared cache on every rescan — "a spool to store a copy of the remote
/// results for subsequent accesses within the same query context without
/// having to request the data from the remote sources again" (§4.1.2).
pub fn open_spool(
    key: usize,
    ctx: &ExecContext,
    open_child: impl FnOnce() -> Result<Box<dyn Rowset>>,
) -> Result<Box<dyn Rowset>> {
    let data: SpoolData = match ctx.cached_spool(key) {
        Some(d) => d,
        None => dhqp_oledb::timed_wait(dhqp_oledb::WaitClass::Spool, || {
            let mut child = open_child()?;
            let schema = child.schema().clone();
            let rows = child.collect_rows_batched(ctx.batch().batch_size)?;
            let data: SpoolData = Arc::new((schema, rows));
            ctx.store_spool(key, Arc::clone(&data));
            Ok::<SpoolData, dhqp_types::DhqpError>(data)
        })?,
    };
    Ok(Box::new(MemRowset::new(data.0.clone(), data.1.clone())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_support::TestCatalog;
    use dhqp_optimizer::props::ColumnRegistry;
    use dhqp_storage::StorageEngine;
    use dhqp_types::{Column, DataType, Value};
    use std::collections::HashMap;

    fn ctx() -> ExecContext {
        let catalog = Arc::new(TestCatalog::with_local(Arc::new(StorageEngine::new("l"))));
        ExecContext::new(catalog, HashMap::new(), Arc::new(ColumnRegistry::new()))
    }

    fn ints(vals: &[i64]) -> Box<dyn Rowset> {
        let schema = Schema::new(vec![Column::new("v", DataType::Int)]);
        let rows = vals
            .iter()
            .map(|&i| Row::new(vec![Value::Int(i)]))
            .collect();
        Box::new(MemRowset::new(schema, rows))
    }

    #[test]
    fn sort_asc_desc_nulls_first() {
        let schema = Schema::new(vec![Column::new("v", DataType::Int)]);
        let rows = vec![
            Row::new(vec![Value::Int(3)]),
            Row::new(vec![Value::Null]),
            Row::new(vec![Value::Int(1)]),
        ];
        let input: Box<dyn Rowset> = Box::new(MemRowset::new(schema, rows));
        let mut sorted = open_sort(input, &[(ColumnId(0), true)], &[ColumnId(0)], &ctx()).unwrap();
        let out = sorted.collect_rows().unwrap();
        assert!(out[0].get(0).is_null());
        assert_eq!(out[1].get(0), &Value::Int(1));
        // Descending.
        let input = ints(&[1, 3, 2]);
        let mut sorted = open_sort(input, &[(ColumnId(0), false)], &[ColumnId(0)], &ctx()).unwrap();
        let out = sorted.collect_rows().unwrap();
        assert_eq!(out[0].get(0), &Value::Int(3));
    }

    #[test]
    fn top_limits() {
        let mut t = TopRowset::new(ints(&[1, 2, 3, 4]), 2);
        assert_eq!(t.count_rows().unwrap(), 2);
        let mut t = TopRowset::new(ints(&[1]), 5);
        assert_eq!(t.count_rows().unwrap(), 1);
        let mut t = TopRowset::new(ints(&[1, 2]), 0);
        assert_eq!(t.count_rows().unwrap(), 0);
    }

    #[test]
    fn union_permutes_children() {
        // Child 1 delivers (a, b); child 2 delivers (b, a) — output wants
        // each child's (a, b).
        let schema2 = Schema::new(vec![
            Column::new("x", DataType::Int),
            Column::new("y", DataType::Int),
        ]);
        let c1: Box<dyn Rowset> = Box::new(MemRowset::new(
            schema2.clone(),
            vec![Row::new(vec![Value::Int(1), Value::Int(2)])],
        ));
        let c2: Box<dyn Rowset> = Box::new(MemRowset::new(
            schema2.clone(),
            vec![Row::new(vec![Value::Int(20), Value::Int(10)])],
        ));
        let a1 = ColumnId(0);
        let b1 = ColumnId(1);
        let a2 = ColumnId(2);
        let b2 = ColumnId(3);
        let mut u = UnionAllRowset::new(
            vec![c1, c2],
            &[vec![a1, b1], vec![b2, a2]], // delivered orders
            &[vec![a1, b1], vec![a2, b2]], // wanted (i-th feeds output i)
            schema2,
        )
        .unwrap();
        let rows = u.collect_rows().unwrap();
        assert_eq!(rows[0].values, vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(rows[1].values, vec![Value::Int(10), Value::Int(20)]);
    }

    #[test]
    fn spool_materializes_once() {
        let ctx = ctx();
        let mut opens = 0;
        for _ in 0..3 {
            let mut rs = open_spool(77, &ctx, || {
                opens += 1;
                Ok(ints(&[1, 2, 3]))
            })
            .unwrap();
            assert_eq!(rs.count_rows().unwrap(), 3);
        }
        assert_eq!(opens, 1, "rescans must replay the cache");
    }
}
