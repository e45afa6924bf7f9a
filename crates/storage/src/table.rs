//! A table: heap + secondary indexes + CHECK constraints, kept consistent
//! across DML.

use crate::btree::BTreeIndex;
use crate::catalog::CheckConstraint;
use crate::heap::Heap;
use crate::txn::Batch;
use dhqp_oledb::{IndexInfo, KeyRange, TableSnapshot, TableStatistics};
use dhqp_types::{Cell, DhqpError, Result, Row, Schema, Value};
use std::sync::Arc;

/// A base table in the storage engine.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub schema: Schema,
    pub heap: Heap,
    pub indexes: Vec<BTreeIndex>,
    pub checks: Vec<CheckConstraint>,
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            heap: Heap::new(schema.columns().iter().map(|c| c.data_type)),
            schema,
            indexes: Vec::new(),
            checks: Vec::new(),
        }
    }

    /// Number of live rows.
    pub fn row_count(&self) -> u64 {
        self.heap.len() as u64
    }

    /// Add an empty secondary index over the named columns. A table that
    /// holds rows is refused: its keys would need admitting like a batch's.
    pub fn create_index(&mut self, name: &str, columns: &[&str], unique: bool) -> Result<()> {
        let why = if self.index(name).is_some() {
            "it already exists"
        } else if columns.is_empty() {
            "it has no key column"
        } else if !self.heap.is_empty() {
            "the table already holds rows"
        } else {
            let positions = columns.iter().map(|c| {
                self.schema.index_of(c).ok_or_else(|| {
                    DhqpError::Catalog(format!("no column '{c}' in table '{}'", self.name))
                })
            });
            let positions = positions.collect::<Result<_>>()?;
            self.indexes.push(BTreeIndex::new(name, positions, unique));
            return Ok(());
        };
        let table = &self.name;
        Err(DhqpError::Catalog(format!(
            "index '{name}' on '{table}': {why}"
        )))
    }

    /// The index named `name`, in any case.
    fn index(&self, name: &str) -> Option<&BTreeIndex> {
        let mut indexes = self.indexes.iter();
        indexes.find(|ix| ix.name.eq_ignore_ascii_case(name))
    }

    /// Validate CHECK constraints for a candidate row. SQL semantics: a
    /// constraint is violated only when it evaluates to FALSE; NULL passes.
    pub fn validate_checks(&self, row: &[Value]) -> Result<()> {
        for check in &self.checks {
            let pos = self.schema.index_of(&check.column).ok_or_else(|| {
                DhqpError::Catalog(format!(
                    "check constraint '{}' references unknown column '{}'",
                    check.name, check.column
                ))
            })?;
            let v = &row[pos];
            if !v.is_null() && !check.domain.contains(v) {
                return Err(DhqpError::Constraint(format!(
                    "value {v} for column '{}' violates CHECK constraint '{}' (domain {})",
                    check.column, check.name, check.domain
                )));
            }
        }
        Ok(())
    }

    /// What a candidate row must satisfy whatever else the table holds: the
    /// table's arity, each value NULL or of its column's declared type, and
    /// the CHECK constraints.
    pub fn validate_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(DhqpError::Execute(format!(
                "row arity {} does not match table '{}' arity {}",
                row.len(),
                self.name,
                self.schema.len()
            )));
        }
        for (v, c) in row.iter().zip(self.schema.columns()) {
            if v.data_type().is_some_and(|t| t != c.data_type) {
                return Err(DhqpError::Type(format!(
                    "a {} value does not fit column '{}' of table '{}' ({})",
                    v.type_name(),
                    c.name,
                    self.name,
                    c.data_type.sql_name()
                )));
            }
        }
        self.validate_checks(row)
    }

    pub(crate) fn duplicate_key(&self, index: &str) -> DhqpError {
        DhqpError::Constraint(format!(
            "duplicate key in unique index '{index}' on '{}'",
            self.name
        ))
    }

    /// Apply a batch [`Replay`](crate::txn::Replay) admitted, as it was
    /// admitted: the rows that leave take their index entries with them,
    /// while the heap still holds them, before the rows that arrive bring
    /// theirs. A replaced row that keeps an index's key keeps its entry
    /// there. Index maintenance cannot fail: admission made the one unique
    /// check. Nothing is probed here, so a failure is an engine invariant
    /// violation, not a user error; a bookmark or row the heap refuses is
    /// refused before anything changes.
    pub fn apply(&mut self, batch: &Batch<'_>) -> Result<()> {
        let Table { heap, indexes, .. } = self;
        for &bookmark in batch.leaving() {
            heap.live_index(bookmark)?;
        }
        for row in batch.arriving() {
            heap.check(row)?;
        }
        match batch {
            Batch::Insert(rows) => {
                heap.reserve(rows.len());
                let first = heap.next_bookmark();
                for row in rows.iter() {
                    heap.insert(&row.values)?;
                }
                for ix in indexes {
                    ix.insert(heap, (first..heap.next_bookmark()).collect());
                }
            }
            Batch::Delete(bookmarks) => {
                for ix in indexes {
                    ix.remove(heap, bookmarks);
                }
                for &bookmark in bookmarks.iter() {
                    heap.delete(bookmark)?;
                }
            }
            Batch::Update(bookmarks, rows) => {
                // Per index, the replaced rows whose key there changes.
                let mut moved: Vec<(usize, Vec<u64>)> = Vec::new();
                for (i, ix) in indexes.iter_mut().enumerate() {
                    let moving: Vec<u64> = bookmarks
                        .iter()
                        .zip(rows.iter())
                        .filter(|(&b, r)| ix.moves(heap, b, &r.values))
                        .map(|(&b, _)| b)
                        .collect();
                    if !moving.is_empty() {
                        ix.remove(heap, &moving);
                        moved.push((i, moving));
                    }
                }
                for (&bookmark, row) in bookmarks.iter().zip(rows.iter()) {
                    heap.update(bookmark, &row.values)?;
                }
                for (i, moving) in moved {
                    indexes[i].insert(heap, moving);
                }
            }
        }
        Ok(())
    }

    /// All live rows with bookmarks attached (table scan order).
    pub fn scan_rows(&self) -> Vec<Row> {
        self.heap
            .scan()
            .map(|(b, r)| Row::with_bookmark(r.into_vec(), b))
            .collect()
    }

    /// Index range scan: rows fetched through the named index in key order,
    /// with bookmarks attached.
    pub fn index_range(&self, index: &str, range: &KeyRange) -> Result<Vec<Row>> {
        let ix = self.index(index).ok_or_else(|| {
            DhqpError::Catalog(format!("no index '{index}' on table '{}'", self.name))
        })?;
        Ok(ix
            .range(&self.heap, range)
            .iter()
            .filter_map(|&b| {
                self.heap
                    .get(b)
                    .map(|r| Row::with_bookmark(r.into_vec(), b))
            })
            .collect())
    }

    /// Index metadata in provider form.
    pub fn index_infos(&self) -> Vec<IndexInfo> {
        self.indexes
            .iter()
            .map(|ix| IndexInfo {
                name: ix.name.clone(),
                key_columns: ix
                    .key_positions
                    .iter()
                    .map(|&p| self.schema.column(p).name.clone())
                    .collect(),
                unique: ix.unique,
            })
            .collect()
    }

    /// This table's catalog facts as one shareable snapshot, with `stats`.
    pub fn snapshot(&self, stats: Option<Arc<TableStatistics>>) -> TableSnapshot {
        let checks = self
            .checks
            .iter()
            .filter_map(|c| {
                let pos = self.schema.index_of(&c.column)?;
                Some((pos, c.domain.clone()))
            })
            .collect();
        TableSnapshot::new(self.schema.clone(), self.index_infos())
            .with_checks(checks)
            .with_stats(stats)
    }

    /// Non-null values of one column, sorted — histogram input.
    pub fn sorted_column_values(&self, column: &str) -> Result<Vec<Value>> {
        let pos = self.schema.index_of(column).ok_or_else(|| {
            DhqpError::Catalog(format!("no column '{column}' in table '{}'", self.name))
        })?;
        let mut vals: Vec<Value> = self
            .heap
            .column(pos)
            .filter(|v| *v != Cell::Null)
            .map(Cell::to_value)
            .collect();
        vals.sort_by(|a, b| a.total_cmp(b));
        Ok(vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhqp_types::{Column, DataType, Interval, IntervalSet};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("name", DataType::Str),
        ]);
        Table::new("t", schema)
    }

    fn row(id: i64, name: &str) -> Row {
        Row::new(vec![Value::Int(id), Value::Str(name.into())])
    }

    fn write(t: &mut Table, batch: Batch<'_>) -> Result<()> {
        crate::txn::tests::admit_and_apply(t, &batch)
    }

    fn insert(t: &mut Table, r: Row) -> Result<()> {
        write(t, Batch::Insert(vec![r].into()))
    }

    fn update(t: &mut Table, bookmark: u64, r: Row) -> Result<()> {
        write(t, Batch::Update(vec![bookmark].into(), vec![r].into()))
    }

    #[test]
    fn insert_and_scan() {
        let mut t = table();
        insert(&mut t, row(1, "a")).unwrap();
        insert(&mut t, row(2, "b")).unwrap();
        let rows = t.scan_rows();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].bookmark.is_some());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = table();
        assert!(insert(&mut t, Row::new(vec![Value::Int(1)])).is_err());
        let short = Batch::Insert(vec![Row::new(vec![Value::Int(1)])].into());
        assert!(t.apply(&short).is_err(), "the heap refuses it too");
    }

    #[test]
    fn index_maintained_across_dml() {
        let mut t = table();
        t.create_index("ix_id", &["id"], true).unwrap();
        insert(&mut t, row(5, "a")).unwrap();
        insert(&mut t, row(3, "b")).unwrap();
        // An index is created over an empty table only.
        assert!(t.create_index("ix_name", &["name"], false).is_err());
        // New inserts hit the index.
        insert(&mut t, row(4, "c")).unwrap();
        let hits = t.index_range("ix_id", &KeyRange::all()).unwrap();
        let ids: Vec<i64> = hits
            .iter()
            .map(|r| match r.get(0) {
                Value::Int(i) => *i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![3, 4, 5]);
        // Update moves the index entry; the row keeps its bookmark.
        update(&mut t, 0, row(9, "a2")).unwrap();
        let hits = t
            .index_range("ix_id", &KeyRange::eq(vec![Value::Int(9)]))
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].bookmark, Some(0));
        assert!(t
            .index_range("ix_id", &KeyRange::eq(vec![Value::Int(5)]))
            .unwrap()
            .is_empty());
        // Delete removes it.
        write(&mut t, Batch::Delete(vec![0].into())).unwrap();
        assert!(t
            .index_range("ix_id", &KeyRange::eq(vec![Value::Int(9)]))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn unique_violation_leaves_table_unchanged() {
        let mut t = table();
        t.create_index("ix_id", &["id"], true).unwrap();
        insert(&mut t, row(1, "a")).unwrap();
        assert!(insert(&mut t, row(1, "dup")).is_err());
        // A batch is refused whole: the rows before the clash stay out too.
        let batch = [row(10, "x"), row(1, "y"), row(11, "z")];
        assert!(write(&mut t, Batch::Insert(batch[..].into())).is_err());
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.indexes[0].len(), 1);
    }

    #[test]
    fn a_refused_update_leaves_table_and_indexes_unchanged() {
        let mut t = table();
        t.create_index("ix_id", &["id"], true).unwrap();
        t.create_index("ix_name", &["name"], false).unwrap();
        insert(&mut t, row(1, "a")).unwrap();
        insert(&mut t, row(2, "b")).unwrap();
        let state = |t: &Table| {
            let through = |ix| t.index_range(ix, &KeyRange::all()).unwrap();
            (t.scan_rows(), through("ix_id"), through("ix_name"))
        };
        let before = state(&t);
        let err = update(&mut t, 0, row(2, "z")).unwrap_err();
        assert!(
            err.to_string()
                .contains("duplicate key in unique index 'ix_id'"),
            "{err}"
        );
        assert!(update(&mut t, 0, Row::new(vec![Value::Int(7)])).is_err());
        assert_eq!(state(&t), before);
        // The row keeps its own key: an update that leaves it is no clash,
        // and neither is a key another row of the batch gives up.
        update(&mut t, 0, row(1, "a2")).unwrap();
        let shift = [row(2, "a3"), row(3, "b3")];
        write(&mut t, Batch::Update(vec![0, 1].into(), shift[..].into())).unwrap();
        assert_eq!(
            t.scan_rows(),
            [
                Row::with_bookmark(row(2, "a3").values, 0),
                Row::with_bookmark(row(3, "b3").values, 1)
            ]
        );
    }

    #[test]
    fn check_constraint_enforced_null_passes() {
        let mut t = table();
        t.checks.push(CheckConstraint {
            name: "ck_id".into(),
            column: "id".into(),
            domain: IntervalSet::single(Interval::between(Value::Int(0), Value::Int(10))),
        });
        assert!(insert(&mut t, row(5, "ok")).is_ok());
        assert!(insert(&mut t, row(50, "bad")).is_err());
        // NULL passes a CHECK (SQL semantics).
        let null_row = [Value::Null, Value::Str("n".into())];
        assert!(t.validate_checks(&null_row).is_ok());
    }

    #[test]
    fn sorted_column_values_excludes_nulls() {
        let mut t = table();
        insert(&mut t, row(3, "a")).unwrap();
        insert(&mut t, Row::new(vec![Value::Int(1), Value::Null])).unwrap();
        let vals = t.sorted_column_values("id").unwrap();
        assert_eq!(vals, vec![Value::Int(1), Value::Int(3)]);
        let names = t.sorted_column_values("name").unwrap();
        assert_eq!(names.len(), 1);
    }
}
