//! Buffered transactional writes: the storage-side half of two-phase commit.
//!
//! A `StorageEngine` is a 2PC *participant*: the coordinator (the `dhqp-dtc`
//! crate, standing in for Microsoft DTC) drives `prepare`/`commit`/`abort`
//! across participants; each participant buffers its writes until the
//! decision arrives.

use crate::btree::IndexKey;
use crate::table::Table;
use dhqp_types::{DhqpError, Result, Row};
use std::collections::{BTreeSet, HashSet};

/// One buffered write operation.
#[derive(Debug, Clone)]
pub enum PendingOp {
    Insert { table: String, row: Row },
    Delete { table: String, bookmark: u64 },
}

impl PendingOp {
    pub fn table(&self) -> &str {
        match self {
            PendingOp::Insert { table, .. } | PendingOp::Delete { table, .. } => table,
        }
    }

    /// Apply the operation to a table, at commit time. [`Replay`] has said
    /// at prepare time that it will succeed.
    pub fn apply(&self, t: &mut Table) -> Result<()> {
        match self {
            PendingOp::Insert { row, .. } => t.insert(&row.values).map(|_| ()),
            PendingOp::Delete { bookmark, .. } => t.delete(*bookmark).map(|_| ()),
        }
    }
}

/// Prepare-time validation of the ops buffered for one table: what
/// [`PendingOp::apply`] would answer, op by op in buffer order, read off the
/// live table and the ops admitted so far — without copying the table. A
/// delete needs a live row nobody deleted before it; an insert the table's
/// arity, its CHECKs, and for each unique index a key held by no live row
/// still undeleted and by no row inserted before it. (A row inserted under
/// the transaction has no bookmark until commit, so a delete never names
/// one.)
pub struct Replay<'t> {
    table: &'t Table,
    deleted: HashSet<u64>,
    /// Keys of the rows inserted so far, per index of the table (unique
    /// ones only).
    inserted: Vec<BTreeSet<IndexKey>>,
}

impl<'t> Replay<'t> {
    pub fn over(table: &'t Table) -> Self {
        Replay {
            table,
            deleted: HashSet::new(),
            inserted: vec![BTreeSet::new(); table.indexes.len()],
        }
    }

    /// Whether `op`, after the ops admitted before it, will apply.
    pub fn admit(&mut self, op: &PendingOp) -> Result<()> {
        let t = self.table;
        match op {
            PendingOp::Delete { bookmark, .. } => {
                t.heap.slot(*bookmark)?;
                if !self.deleted.insert(*bookmark) {
                    return Err(DhqpError::Execute(format!(
                        "bookmark {bookmark} already deleted"
                    )));
                }
            }
            PendingOp::Insert { row, .. } => {
                t.validate_row(&row.values)?;
                let unique = t.indexes.iter().zip(&mut self.inserted);
                for (ix, inserted) in unique.filter(|(ix, _)| ix.unique) {
                    let key = ix.key_of(&row.values);
                    let held = ix.seek(key.values()).any(|b| !self.deleted.contains(&b));
                    if held || !inserted.insert(key) {
                        return Err(t.duplicate_key(&ix.name));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Participant-side transaction lifecycle.
#[derive(Debug)]
pub enum TxnState {
    /// Accepting new operations.
    Active(Vec<PendingOp>),
    /// Voted yes; no further operations may be added.
    Prepared(Vec<PendingOp>),
}

impl TxnState {
    pub fn active() -> Self {
        TxnState::Active(Vec::new())
    }

    /// Mutable op buffer while still active, `None` once prepared.
    pub fn active_ops(&mut self) -> Option<&mut Vec<PendingOp>> {
        match self {
            TxnState::Active(ops) => Some(ops),
            TxnState::Prepared(_) => None,
        }
    }

    pub fn mark_prepared(&mut self) {
        if let TxnState::Active(ops) = self {
            *self = TxnState::Prepared(std::mem::take(ops));
        }
    }

    pub fn into_ops(self) -> Vec<PendingOp> {
        match self {
            TxnState::Active(ops) | TxnState::Prepared(ops) => ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhqp_types::{Column, DataType, Schema, Value};

    #[test]
    fn state_machine_transitions() {
        let mut s = TxnState::active();
        s.active_ops().unwrap().push(PendingOp::Delete {
            table: "t".into(),
            bookmark: 0,
        });
        s.mark_prepared();
        assert!(s.active_ops().is_none());
        assert_eq!(s.into_ops().len(), 1);
    }

    #[test]
    fn apply_round_trip() {
        let mut t = Table::new("t", Schema::new(vec![Column::not_null("x", DataType::Int)]));
        let ins = PendingOp::Insert {
            table: "t".into(),
            row: Row::new(vec![Value::Int(1)]),
        };
        ins.apply(&mut t).unwrap();
        assert_eq!(t.row_count(), 1);
        let del = PendingOp::Delete {
            table: "t".into(),
            bookmark: 0,
        };
        del.apply(&mut t).unwrap();
        assert_eq!(t.row_count(), 0);
        assert_eq!(ins.table(), "t");
    }

    /// `(id unique, tag unique, n CHECK 0..=9)` holding ids 0..4, tag = id.
    fn keyed() -> Table {
        use crate::catalog::CheckConstraint;
        use dhqp_types::{Interval, IntervalSet};
        let int = |name| Column::not_null(name, DataType::Int);
        let mut t = Table::new("k", Schema::new(vec![int("id"), int("tag"), int("n")]));
        t.create_index("pk", &["id"], true).unwrap();
        t.create_index("ux_tag", &["tag"], true).unwrap();
        t.create_index("ix_n", &["n"], false).unwrap();
        t.checks.push(CheckConstraint {
            name: "ck_n".into(),
            column: "n".into(),
            domain: IntervalSet::single(Interval::between(Value::Int(0), Value::Int(9))),
        });
        for id in 0..4 {
            t.insert(&keyed_row(id, id, 1).values).unwrap();
        }
        t
    }

    fn keyed_row(id: i64, tag: i64, n: i64) -> Row {
        Row::new(vec![Value::Int(id), Value::Int(tag), Value::Int(n)])
    }

    fn insert(id: i64, tag: i64, n: i64) -> PendingOp {
        PendingOp::Insert {
            table: "k".into(),
            row: keyed_row(id, tag, n),
        }
    }

    fn delete(bookmark: u64) -> PendingOp {
        PendingOp::Delete {
            table: "k".into(),
            bookmark,
        }
    }

    /// The first op of `ops` that [`Replay`] refuses, and the one that
    /// fails when the ops are applied to a copy of the table.
    fn first_refused(t: &Table, ops: &[PendingOp]) -> (Option<usize>, Option<usize>) {
        let mut replay = Replay::over(t);
        let mut scratch = t.clone();
        (
            ops.iter().position(|op| replay.admit(op).is_err()),
            ops.iter().position(|op| op.apply(&mut scratch).is_err()),
        )
    }

    #[test]
    fn replay_refuses_what_apply_would() {
        let t = keyed();
        for (ops, refused) in [
            // A key is free once its holder is deleted — in that order.
            (vec![delete(1), insert(1, 1, 2)], None),
            (vec![insert(1, 9, 2), delete(1)], Some(0)),
            // Either unique index refuses; the non-unique one never does.
            (vec![insert(9, 2, 1)], Some(0)),
            (vec![insert(8, 8, 1), insert(9, 9, 1)], None),
            // Two inserted rows collide with each other, not with the table.
            (vec![insert(8, 8, 1), insert(9, 8, 1)], Some(1)),
            (
                vec![delete(2), insert(2, 8, 1), insert(9, 2, 1), insert(2, 7, 1)],
                Some(3),
            ),
            // Bookmarks: beyond the heap, deleted twice.
            (vec![delete(99)], Some(0)),
            (vec![delete(3), delete(0), delete(3)], Some(2)),
            // Arity and CHECK.
            (
                vec![PendingOp::Insert {
                    table: "k".into(),
                    row: Row::new(vec![Value::Int(9)]),
                }],
                Some(0),
            ),
            (vec![insert(9, 9, 10)], Some(0)),
        ] {
            assert_eq!(first_refused(&t, &ops), (refused, refused), "{ops:?}");
        }
        // A row deleted before the transaction began dangles too.
        let mut holed = keyed();
        holed.delete(2).unwrap();
        let ops = [delete(1), delete(2)];
        assert_eq!(first_refused(&holed, &ops), (Some(1), Some(1)));
    }

    proptest::proptest! {
        /// Against the table copy it replaced: the same op lists pass, and
        /// the same op is the first to be refused.
        #[test]
        fn replay_agrees_with_applying_to_a_copy(
            ops in proptest::collection::vec(
                (proptest::any::<bool>(), 0i64..7, 0i64..7, 0i64..12), 0..10),
        ) {
            let t = keyed();
            let ops: Vec<PendingOp> = ops
                .into_iter()
                .map(|(is_delete, a, b, n)| match is_delete {
                    // A live row's bookmark or a dangling one — never the
                    // one a buffered insert will get (see `Replay`).
                    true => delete([0, 1, 2, 3, 99][a as usize % 5]),
                    false => insert(a, b, n),
                })
                .collect();
            let (replayed, applied) = first_refused(&t, &ops);
            proptest::prop_assert_eq!(replayed, applied);
        }
    }
}
