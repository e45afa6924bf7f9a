//! The storage engine catalog: named tables, constraints and statistics,
//! plus the one write path (DESIGN.md §24).

use crate::histogram::analyze_table;
use crate::table::Table;
use crate::txn::{Batch, Replay, TxnState};
use dhqp_oledb::{TableSnapshot, TableStatistics, TxnId};
use dhqp_types::{DhqpError, IntervalSet, Result, Row, Schema};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A single-column CHECK constraint expressed as a value domain — the form
/// the paper's constraint property framework consumes ("the range of values
/// in each member table is enforced by a CHECK constraint on a column
/// designated as the partitioning column", §4.1.5).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckConstraint {
    pub name: String,
    pub column: String,
    pub domain: IntervalSet,
}

/// Declarative table definition used at creation time.
#[derive(Debug, Clone)]
pub struct TableDef {
    pub name: String,
    pub schema: Schema,
    /// `(index name, key columns, unique)`.
    pub indexes: Vec<(String, Vec<String>, bool)>,
    pub checks: Vec<CheckConstraint>,
}

impl TableDef {
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        TableDef {
            name: name.into(),
            schema,
            indexes: Vec::new(),
            checks: Vec::new(),
        }
    }

    pub fn with_index(mut self, name: &str, columns: &[&str], unique: bool) -> Self {
        self.indexes.push((
            name.to_string(),
            columns.iter().map(|c| c.to_string()).collect(),
            unique,
        ));
        self
    }

    pub fn with_check(mut self, check: CheckConstraint) -> Self {
        self.checks.push(check);
        self
    }
}

/// A table and the snapshot of its catalog facts that binds share.
struct Entry {
    table: Table,
    /// Replaced whole by `ANALYZE` and by any access that may change the
    /// schema, an index or a CHECK ([`StorageEngine::with_table_mut`]);
    /// row writes leave it alone.
    catalog: Arc<TableSnapshot>,
}

impl Entry {
    fn missing(name: &str) -> DhqpError {
        DhqpError::Catalog(format!("table '{name}' does not exist"))
    }

    /// Rebuild the snapshot from the table as it is now, with `stats`.
    fn refresh(&mut self, stats: Option<Arc<TableStatistics>>) {
        self.catalog = Arc::new(self.table.snapshot(stats));
    }
}

/// An in-memory multi-table storage engine instance.
///
/// One `StorageEngine` plays the role of one server: the local SQL Server
/// instance, or — wrapped behind a simulated network link — a remote linked
/// server. Interior locking makes it shareable across sessions.
pub struct StorageEngine {
    name: String,
    tables: RwLock<BTreeMap<String, Entry>>,
    txns: Mutex<HashMap<TxnId, TxnState>>,
    /// Test hook: when true, `prepare` fails (2PC failure injection).
    fail_prepare: AtomicBool,
    /// Test hook: when true, `commit_txn` fails without consuming state,
    /// leaving the transaction recoverable (in-doubt at the coordinator).
    fail_commit: AtomicBool,
}

impl StorageEngine {
    pub fn new(name: impl Into<String>) -> Self {
        StorageEngine {
            name: name.into(),
            tables: RwLock::new(BTreeMap::new()),
            txns: Mutex::new(HashMap::new()),
            fail_prepare: AtomicBool::new(false),
            fail_commit: AtomicBool::new(false),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    pub fn create_table(&self, def: TableDef) -> Result<()> {
        let key = Self::key(&def.name);
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(DhqpError::Catalog(format!(
                "table '{}' already exists",
                def.name
            )));
        }
        let mut table = Table::new(def.name.clone(), def.schema);
        table.checks = def.checks;
        for (ix_name, cols, unique) in &def.indexes {
            let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
            table.create_index(ix_name, &col_refs, *unique)?;
        }
        let catalog = Arc::new(table.snapshot(None));
        tables.insert(key, Entry { table, catalog });
        Ok(())
    }

    pub fn drop_table(&self, name: &str) -> Result<()> {
        let key = Self::key(name);
        self.tables
            .write()
            .remove(&key)
            .map(|_| ())
            .ok_or_else(|| Entry::missing(name))
    }

    pub fn table_names(&self) -> Vec<String> {
        self.tables
            .read()
            .values()
            .map(|e| e.table.name.clone())
            .collect()
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(&Self::key(name))
    }

    /// Run `f` against a table under a read lock.
    pub fn with_table<R>(&self, name: &str, f: impl FnOnce(&Table) -> R) -> Result<R> {
        self.with_entry(name, |e| f(&e.table))
    }

    /// Run `f` against a table under a write lock. `f` may change what the
    /// table's catalog snapshot records (its schema, an index, a CHECK), so
    /// the snapshot is rebuilt afterwards, keeping its statistics.
    pub fn with_table_mut<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut Table) -> Result<R>,
    ) -> Result<R> {
        self.with_entry_mut(name, |e| {
            let out = f(&mut e.table);
            e.refresh(e.catalog.stats.clone());
            out
        })
    }

    fn with_entry_mut<R>(&self, name: &str, f: impl FnOnce(&mut Entry) -> Result<R>) -> Result<R> {
        let mut tables = self.tables.write();
        let e = tables
            .get_mut(&Self::key(name))
            .ok_or_else(|| Entry::missing(name))?;
        f(e)
    }

    // ---- the write path ----------------------------------------------------

    /// Autocommit insert of `rows`: [`StorageEngine::write`] of one batch.
    pub fn insert_rows(&self, table: &str, rows: &[Row]) -> Result<u64> {
        self.write(None, table, Batch::Insert(rows.into()))
    }

    /// Write `batch` to `table`. Under autocommit (`txn` `None`) it is
    /// admitted and applied under one write lock, so a refused batch
    /// changes nothing. Under `txn` an owned copy is buffered until the
    /// transaction prepares; its rows are held to the table's arity, types
    /// and CHECKs now, so the client learns of a violation at statement
    /// time.
    ///
    /// Locks are taken in one order everywhere: `tables`, then `txns`.
    pub fn write(&self, txn: Option<TxnId>, table: &str, batch: Batch<'_>) -> Result<u64> {
        let n = batch.rows();
        let Some(txn) = txn else {
            return self.with_entry_mut(table, |e| {
                Self::replay(&e.table, &self.txns.lock(), None).admit(&batch)?;
                // Row writes change no catalog fact: the snapshot stays.
                e.table.apply(&batch).map(|()| n)
            });
        };
        self.with_table(table, |t| {
            batch.arriving().try_for_each(|row| t.validate_row(row))
        })??;
        let mut txns = self.txns.lock();
        let state = txns.entry(txn).or_default();
        if state.prepared {
            return Err(DhqpError::Transaction(format!(
                "transaction {txn} is no longer active"
            )));
        }
        state.ops.push((Self::key(table), batch.into_owned()));
        Ok(n)
    }

    /// A replay over `table` holding what every prepared transaction but
    /// `except` writes to it.
    fn replay<'a>(
        table: &'a Table,
        txns: &'a HashMap<TxnId, TxnState>,
        except: Option<TxnId>,
    ) -> Replay<'a> {
        let mut replay = Replay::over(table);
        let key = Self::key(&table.name);
        let prepared = txns
            .iter()
            .filter(|(id, s)| s.prepared && Some(**id) != except);
        for (table, batch) in prepared.flat_map(|(_, s)| &s.ops) {
            if *table == key {
                replay.reserve(batch);
            }
        }
        replay
    }

    /// 2PC phase one: admit every buffered batch, table by table in buffer
    /// order, against the tables as they are and what the other prepared
    /// transactions hold. After `Ok`, this participant guarantees
    /// `commit_txn` will succeed, whatever autocommit writes and other
    /// transactions do meanwhile.
    pub fn prepare_txn(&self, txn: TxnId) -> Result<()> {
        if self.fail_prepare.load(Ordering::Relaxed) {
            return Err(DhqpError::Transaction(format!(
                "injected prepare failure on '{}' for txn {txn}",
                self.name
            )));
        }
        let tables = self.tables.read();
        let mut txns = self.txns.lock();
        // A participant that only read (no buffered writes) prepares
        // trivially.
        let Some(state) = txns.get(&txn) else {
            return Ok(());
        };
        if state.prepared {
            return Err(DhqpError::Transaction(format!(
                "transaction {txn} is no longer active"
            )));
        }
        let mut replays: HashMap<&str, Replay> = HashMap::new();
        for (table, batch) in &state.ops {
            let (key, entry) = tables
                .get_key_value(table)
                .ok_or_else(|| Entry::missing(table))?;
            let replay = replays
                .entry(key)
                .or_insert_with(|| Self::replay(&entry.table, &txns, Some(txn)));
            replay.admit(batch)?;
        }
        drop(replays);
        txns.get_mut(&txn).expect("buffered above").prepared = true;
        Ok(())
    }

    /// 2PC phase two: apply the buffered batches through the apply step
    /// autocommit uses, and name the tables whose rows changed. Unknown
    /// transactions commit trivially (read-only participant); one that
    /// never prepared is prepared first.
    pub fn commit_txn(&self, txn: TxnId) -> Result<Vec<String>> {
        // Fail *before* consuming the buffered state: a coordinator that saw
        // this error can re-deliver the commit during recovery and succeed.
        if self.fail_commit.load(Ordering::Relaxed) {
            return Err(DhqpError::Transaction(format!(
                "injected commit failure on '{}' for txn {txn}",
                self.name
            )));
        }
        if self.txns.lock().get(&txn).is_some_and(|s| !s.prepared) {
            self.prepare_txn(txn)?;
        }
        // The batches leave `txns` and reach the tables under one write
        // lock, so no admission finds them in neither place.
        let mut tables = self.tables.write();
        let Some(state) = self.txns.lock().remove(&txn) else {
            return Ok(Vec::new());
        };
        let mut written: Vec<String> = Vec::new();
        for (table, batch) in state.ops {
            let e = tables
                .get_mut(&table)
                .ok_or_else(|| DhqpError::Catalog(format!("table '{table}' vanished")))?;
            // Prepared batches were admitted; a failure here is an engine
            // invariant violation, not a user error.
            e.table.apply(&batch)?;
            if batch.rows() > 0 && !written.contains(&e.table.name) {
                written.push(e.table.name.clone());
            }
        }
        Ok(written)
    }

    /// 2PC phase two (failure path): discard buffered writes.
    pub fn abort_txn(&self, txn: TxnId) -> Result<()> {
        self.txns.lock().remove(&txn);
        Ok(())
    }

    /// Whether a transaction has buffered state here.
    pub fn has_txn(&self, txn: TxnId) -> bool {
        self.txns.lock().contains_key(&txn)
    }

    /// Failure-injection hook for 2PC tests/benches.
    pub fn set_fail_prepare(&self, fail: bool) {
        self.fail_prepare.store(fail, Ordering::Relaxed);
    }

    /// Failure-injection hook for the commit phase: while set, `commit_txn`
    /// errors without consuming the prepared state, modeling a participant
    /// that crashed between prepare and commit delivery.
    pub fn set_fail_commit(&self, fail: bool) {
        self.fail_commit.store(fail, Ordering::Relaxed);
    }

    // ---- statistics -------------------------------------------------------

    /// Build (or rebuild) histogram statistics for a table: the next bind
    /// sees them through a new catalog snapshot.
    pub fn analyze(&self, table: &str, buckets: usize) -> Result<()> {
        let stats = self.with_table(table, |t| analyze_table(t, buckets))??;
        self.with_entry_mut(table, |e| {
            e.refresh(Some(stats));
            Ok(())
        })
    }

    /// Statistics previously built by [`StorageEngine::analyze`].
    pub fn statistics(&self, table: &str) -> Option<Arc<TableStatistics>> {
        let tables = self.tables.read();
        tables.get(&Self::key(table))?.catalog.stats.clone()
    }

    /// What a bind reads of a table: its shared catalog snapshot and its
    /// live row count, under one lock.
    pub fn catalog(&self, table: &str) -> Result<(Arc<TableSnapshot>, u64)> {
        self.with_entry(table, |e| (Arc::clone(&e.catalog), e.table.row_count()))
    }

    fn with_entry<R>(&self, name: &str, f: impl FnOnce(&Entry) -> R) -> Result<R> {
        let tables = self.tables.read();
        let e = tables
            .get(&Self::key(name))
            .ok_or_else(|| Entry::missing(name))?;
        Ok(f(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhqp_types::{Column, DataType, Value};

    fn engine() -> StorageEngine {
        let e = StorageEngine::new("local");
        e.create_table(TableDef::new(
            "t",
            Schema::new(vec![Column::not_null("id", DataType::Int)]),
        ))
        .unwrap();
        e
    }

    /// [`engine`] with a unique index on `id`.
    fn unique_engine() -> StorageEngine {
        let e = StorageEngine::new("local");
        e.create_table(
            TableDef::new(
                "u",
                Schema::new(vec![Column::not_null("id", DataType::Int)]),
            )
            .with_index("pk", &["id"], true),
        )
        .unwrap();
        e
    }

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int(i)])
    }

    /// Buffer an insert of `rows` under `txn`.
    fn buffer(e: &StorageEngine, txn: TxnId, table: &str, rows: &[Row]) -> Result<u64> {
        e.write(Some(txn), table, Batch::Insert(rows.into()))
    }

    fn ids(e: &StorageEngine, table: &str) -> Vec<i64> {
        let rows = e.with_table(table, |t| t.scan_rows()).unwrap();
        let id = |r: &Row| match r.get(0) {
            Value::Int(i) => *i,
            other => panic!("id is an integer, got {other:?}"),
        };
        rows.iter().map(id).collect()
    }

    #[test]
    fn create_and_drop() {
        let e = engine();
        assert!(e.has_table("T"));
        assert!(e.create_table(TableDef::new("t", Schema::empty())).is_err());
        e.drop_table("t").unwrap();
        assert!(!e.has_table("t"));
        assert!(e.drop_table("t").is_err());
    }

    #[test]
    fn autocommit_dml_is_visible_immediately() {
        let e = engine();
        e.insert_rows("t", &[row(1), row(2)]).unwrap();
        assert_eq!(e.with_table("t", |t| t.row_count()).unwrap(), 2);
    }

    /// An autocommit update is held to the table's arity, as a buffered
    /// insert is: a one-column row on a two-column table is refused and the
    /// row stays as it was.
    #[test]
    fn autocommit_update_refuses_a_row_of_another_arity() {
        let e = StorageEngine::new("local");
        let int = |name| Column::not_null(name, DataType::Int);
        e.create_table(TableDef::new("w", Schema::new(vec![int("a"), int("b")])))
            .unwrap();
        let pair = Row::new(vec![Value::Int(1), Value::Int(2)]);
        e.insert_rows("w", std::slice::from_ref(&pair)).unwrap();
        let err = e
            .write(
                None,
                "w",
                Batch::Update(vec![0].into(), vec![row(7)].into()),
            )
            .unwrap_err();
        assert!(err.to_string().contains("row arity 1"), "{err}");
        assert!(buffer(&e, 1, "w", &[row(7)]).is_err());
        let rows = e.with_table("w", |t| t.scan_rows()).unwrap();
        assert_eq!(rows, [Row::with_bookmark(pair.values, 0)]);
    }

    /// A buffered row is held to the columns' declared types when it is
    /// buffered, as it is to the table's arity: a mistyped row never reaches
    /// phase two, and the rest of the transaction prepares and commits.
    #[test]
    fn txn_insert_refuses_a_mistyped_row_before_phase_two() {
        let e = engine();
        buffer(&e, 10, "t", &[row(1)]).unwrap();
        let mistyped = Row::new(vec![Value::Str("2".into())]);
        let err = buffer(&e, 10, "t", &[row(3), mistyped]).unwrap_err();
        assert_eq!(err.kind(), "type");
        assert!(
            err.to_string()
                .contains("a VARCHAR value does not fit column 'id' of table 't' (BIGINT)"),
            "{err}"
        );
        e.prepare_txn(10).unwrap();
        e.commit_txn(10).unwrap();
        let rows = e.with_table("t", |t| t.scan_rows()).unwrap();
        assert_eq!(rows, [Row::with_bookmark(row(1).values, 0)]);
    }

    #[test]
    fn txn_writes_invisible_until_commit() {
        let e = engine();
        buffer(&e, 7, "t", &[row(1)]).unwrap();
        assert_eq!(e.with_table("t", |t| t.row_count()).unwrap(), 0);
        e.prepare_txn(7).unwrap();
        e.commit_txn(7).unwrap();
        assert_eq!(e.with_table("t", |t| t.row_count()).unwrap(), 1);
        assert!(!e.has_txn(7));
    }

    #[test]
    fn abort_discards_buffered_writes() {
        let e = engine();
        buffer(&e, 8, "t", &[row(1)]).unwrap();
        e.abort_txn(8).unwrap();
        assert_eq!(e.with_table("t", |t| t.row_count()).unwrap(), 0);
    }

    #[test]
    fn prepare_failure_injection() {
        let e = engine();
        buffer(&e, 9, "t", &[row(1)]).unwrap();
        e.set_fail_prepare(true);
        assert!(e.prepare_txn(9).is_err());
        e.set_fail_prepare(false);
        e.abort_txn(9).unwrap();
    }

    #[test]
    fn prepare_detects_unique_violation_across_buffered_ops() {
        let e = unique_engine();
        buffer(&e, 1, "u", &[row(5), row(5)]).unwrap();
        assert!(
            e.prepare_txn(1).is_err(),
            "duplicate buffered keys must fail prepare"
        );
        e.abort_txn(1).unwrap();
        assert_eq!(e.with_table("u", |t| t.row_count()).unwrap(), 0);
    }

    /// The participant contract (DESIGN.md §22): a yes vote commits. Once
    /// transaction 7 has prepared keys 5 and 6, an autocommit insert of 6
    /// and a second transaction preparing 6 are refused, and 7 commits
    /// whole. (An autocommit write that did not see the prepared keys made
    /// 7's commit fail after applying row 5.)
    #[test]
    fn a_yes_vote_holds_against_autocommit_writes_and_other_prepares() {
        let e = unique_engine();
        buffer(&e, 7, "u", &[row(5), row(6)]).unwrap();
        e.prepare_txn(7).unwrap();
        let err = e.insert_rows("u", &[row(6)]).unwrap_err();
        assert_eq!(err.kind(), "constraint", "{err}");
        buffer(&e, 8, "u", &[row(6)]).unwrap();
        assert!(e.prepare_txn(8).is_err(), "a second yes vote for key 6");
        e.abort_txn(8).unwrap();
        e.insert_rows("u", &[row(7)]).unwrap();
        e.commit_txn(7).unwrap();
        assert_eq!(ids(&e, "u"), [7, 5, 6]);

        // The rows a prepared transaction deletes are its own until it
        // ends, and so are their keys, whichever way it ends.
        e.write(Some(9), "u", Batch::Delete(vec![0].into()))
            .unwrap();
        e.prepare_txn(9).unwrap();
        for refused in [
            e.write(None, "u", Batch::Delete(vec![0].into())),
            e.write(
                None,
                "u",
                Batch::Update(vec![0].into(), vec![row(70)].into()),
            ),
            e.insert_rows("u", &[row(7)]),
        ] {
            assert!(refused.is_err());
        }
        e.abort_txn(9).unwrap();
        assert_eq!(ids(&e, "u"), [7, 5, 6]);
        e.write(
            None,
            "u",
            Batch::Update(vec![0].into(), vec![row(70)].into()),
        )
        .unwrap();
        assert_eq!(ids(&e, "u"), [70, 5, 6]);
    }

    #[test]
    fn no_writes_after_prepare() {
        let e = engine();
        buffer(&e, 3, "t", &[row(1)]).unwrap();
        e.prepare_txn(3).unwrap();
        assert!(buffer(&e, 3, "t", &[row(2)]).is_err());
        e.commit_txn(3).unwrap();
    }

    #[test]
    fn analyze_builds_statistics() {
        let e = engine();
        let rows: Vec<Row> = (0..100).map(row).collect();
        e.insert_rows("t", &rows).unwrap();
        e.analyze("t", 8).unwrap();
        let stats = e.statistics("t").unwrap();
        assert_eq!(stats.row_count, Some(100));
        assert!(stats.histogram("id").is_some());
    }
}
