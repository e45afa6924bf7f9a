//! The storage engine exposed through the OLE DB-style traits.
//!
//! SQL Server's relational engine talks to its *own* storage engine through
//! OLE DB (paper Figure 1); `LocalDataSource` is that arrangement here. It
//! is a *base table* provider: rowsets, indexes, bookmarks, statistics and
//! transaction enlistment — but no command object (all query processing
//! happens in the relational engine above it). The fully SQL-capable remote
//! provider lives in `dhqp-providers` and wraps a whole engine.

use crate::catalog::StorageEngine;
use crate::table::Table;
use crate::txn::Batch;
use dhqp_oledb::{
    ColumnInfo, DataSource, KeyRange, MemRowset, ProviderCapabilities, Rowset, Session, SqlSupport,
    TableInfo, TableSnapshot, TxnId,
};
use dhqp_types::{DhqpError, Result, Row};
use std::sync::Arc;

/// An OLE DB-style data source over a [`StorageEngine`].
pub struct LocalDataSource {
    engine: Arc<StorageEngine>,
    /// One capability record for every table reference that binds here.
    caps: Arc<ProviderCapabilities>,
}

impl LocalDataSource {
    pub fn new(engine: Arc<StorageEngine>) -> Self {
        let caps = Arc::new(ProviderCapabilities {
            provider_name: "NATIVE-STORAGE".into(),
            sql_support: SqlSupport::None,
            proprietary_command: false,
            index_support: true,
            statistics_support: true,
            transaction_support: true,
            dialect: Default::default(),
            latency_hint_us: 0,
        });
        LocalDataSource { engine, caps }
    }

    pub fn engine(&self) -> &Arc<StorageEngine> {
        &self.engine
    }

    /// [`DataSource::capabilities`] as the shared record.
    pub fn shared_capabilities(&self) -> &Arc<ProviderCapabilities> {
        &self.caps
    }

    /// What a bind reads of a table ([`StorageEngine::catalog`]), with
    /// [`DataSource::table`]'s error when there is no such table.
    pub fn catalog(&self, name: &str) -> Result<(Arc<TableSnapshot>, u64)> {
        self.engine.catalog(name).map_err(|_| self.not_found(name))
    }

    fn not_found(&self, name: &str) -> DhqpError {
        DhqpError::Catalog(format!(
            "table '{name}' not found in source '{}'",
            self.name()
        ))
    }

    fn info(t: &Table) -> TableInfo {
        let columns = t
            .schema
            .columns()
            .iter()
            .map(|c| ColumnInfo {
                name: c.name.clone(),
                data_type: c.data_type,
                nullable: c.nullable,
            })
            .collect();
        TableInfo {
            name: t.name.clone(),
            columns,
            indexes: t.index_infos(),
            cardinality: Some(t.row_count()),
        }
    }
}

impl DataSource for LocalDataSource {
    fn name(&self) -> &str {
        self.engine.name()
    }

    fn capabilities(&self) -> ProviderCapabilities {
        (*self.caps).clone()
    }

    fn tables(&self) -> Result<Vec<TableInfo>> {
        self.engine
            .table_names()
            .iter()
            .map(|name| self.engine.with_table(name, Self::info))
            .collect()
    }

    /// The one table asked for, not every table's metadata.
    fn table(&self, name: &str) -> Result<TableInfo> {
        self.engine
            .with_table(name, Self::info)
            .map_err(|_| self.not_found(name))
    }

    fn create_session(&self) -> Result<Box<dyn Session>> {
        Ok(Box::new(self.local_session()))
    }
}

impl LocalDataSource {
    /// A session as its concrete type, for a caller that runs statements of
    /// its own on it ([`LocalSession::settle_ride`]).
    pub fn local_session(&self) -> LocalSession {
        LocalSession {
            engine: Arc::clone(&self.engine),
            txn: None,
            ride: Ride::Nothing,
            committed: Vec::new(),
        }
    }
}

/// What the coordinator asked to ride the session's next write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Ride {
    #[default]
    Nothing,
    /// The phase-one vote ([`Session::vote_with_next_write`]).
    Vote,
    /// Both phases ([`Session::commit_with_next_write`]).
    Commit,
}

/// A session over the local storage engine. When enlisted in a distributed
/// transaction, DML is buffered in the engine's 2PC participant state.
pub struct LocalSession {
    engine: Arc<StorageEngine>,
    txn: Option<TxnId>,
    ride: Ride,
    /// Tables whose writes the last commit made visible, until taken.
    committed: Vec<String>,
}

impl LocalSession {
    /// Run one write to `table`, buffered under the session's transaction if
    /// it has one. When the vote was asked to ride it the transaction is
    /// prepared right behind it, and a refusal answers in the write's place;
    /// when the commit was, it is prepared and committed, and any failure
    /// rolls it back.
    fn write(&mut self, table: &str, batch: Batch<'_>) -> Result<u64> {
        let written = self.engine.write(self.txn, table, batch);
        self.answer_ride(written)
    }

    /// [`Self::write`]'s answer to what rides a write, whose outcome is
    /// `written`.
    fn answer_ride(&mut self, written: Result<u64>) -> Result<u64> {
        let ride = std::mem::take(&mut self.ride);
        let Some(txn) = self.txn else {
            return written;
        };
        match ride {
            Ride::Nothing => written,
            Ride::Vote => written.and_then(|n| self.engine.prepare_txn(txn).map(|()| n)),
            Ride::Commit => {
                let outcome = written.and_then(|n| {
                    self.committed = self.engine.commit_txn(txn)?;
                    Ok(n)
                });
                if outcome.is_err() {
                    // Whichever step failed, the buffered writes are still
                    // there: roll them back.
                    self.engine.abort_txn(txn)?;
                }
                self.leave_transaction();
                outcome
            }
        }
    }

    /// The outcome arrived: a ride nobody collected (the write it was to
    /// ride never came) does not outlive its transaction.
    fn leave_transaction(&mut self) {
        self.txn = None;
        self.ride = Ride::Nothing;
    }

    /// Only an enlisted session can be asked, and only for its own
    /// transaction.
    fn ride_next_write(&mut self, txn: TxnId, ride: Ride) -> Result<()> {
        if self.txn != Some(txn) {
            return Err(DhqpError::Transaction(format!(
                "session on '{}' is not enlisted in transaction {txn}",
                self.engine.name()
            )));
        }
        self.ride = ride;
        Ok(())
    }

    /// The transaction this session is enlisted in.
    pub fn transaction(&self) -> Option<TxnId> {
        self.txn
    }

    /// The tables whose writes a commit on this session made visible since
    /// the last call — the ones whose derived structures (a full-text
    /// catalog) the engine above has to refresh.
    pub fn take_committed(&mut self) -> Vec<String> {
        std::mem::take(&mut self.committed)
    }

    /// Answer a vote or commit that is still waiting for its write. A
    /// statement run on this session in the place of that write calls this
    /// with its outcome, `ran`, when it is done. If it wrote nothing the
    /// ride has not been answered yet, and what the transaction buffered
    /// before it — nothing, for a participant that only read — is prepared
    /// (and committed) now. If it failed, that failure answers the ride as
    /// a failed write would: a no vote, or a commit rolled back.
    pub fn settle_ride<T>(&mut self, ran: Result<T>) -> Result<T> {
        match ran {
            Ok(out) => self.answer_ride(Ok(0)).map(|_| out),
            Err(e) => Err(self
                .answer_ride(Err(e))
                .expect_err("a failed write is answered with an error")),
        }
    }
}

impl Session for LocalSession {
    fn open_rowset(&mut self, table: &str) -> Result<Box<dyn Rowset>> {
        let (schema, rows) = self
            .engine
            .with_table(table, |t| (t.schema.clone(), t.scan_rows()))?;
        Ok(Box::new(MemRowset::new(schema, rows)))
    }

    fn open_index(
        &mut self,
        table: &str,
        index: &str,
        range: &KeyRange,
    ) -> Result<Box<dyn Rowset>> {
        let (schema, rows) = self.engine.with_table(table, |t| {
            t.index_range(index, range)
                .map(|rows| (t.schema.clone(), rows))
        })??;
        Ok(Box::new(MemRowset::new(schema, rows)))
    }

    fn fetch_by_bookmarks(&mut self, table: &str, bookmarks: &[u64]) -> Result<Vec<Row>> {
        self.engine.with_table(table, |t| {
            bookmarks
                .iter()
                .map(|&b| {
                    t.heap
                        .get(b)
                        .map(|r| Row::with_bookmark(r.into_vec(), b))
                        .ok_or_else(|| DhqpError::Execute(format!("dangling bookmark {b}")))
                })
                .collect::<Result<Vec<Row>>>()
        })?
    }

    fn check_schema(&mut self, table: &str, stamp: u64) -> Result<()> {
        if self.engine.with_table(table, |t| t.schema.stamp())? == stamp {
            return Ok(());
        }
        Err(DhqpError::SchemaDrift(format!(
            "table '{table}' on '{}' no longer has the columns this request was compiled against",
            self.engine.name()
        )))
    }

    fn histogram(&mut self, table: &str, column: &str) -> Result<Option<dhqp_oledb::Histogram>> {
        Ok(self
            .engine
            .statistics(table)
            .and_then(|s| s.histogram(column).map(|h| (**h).clone())))
    }

    fn join_transaction(&mut self, txn: TxnId) -> Result<()> {
        self.txn = Some(txn);
        self.ride = Ride::Nothing;
        Ok(())
    }

    fn prepare(&mut self, txn: TxnId) -> Result<()> {
        self.engine.prepare_txn(txn)
    }

    fn vote_with_next_write(&mut self, txn: TxnId) -> Result<()> {
        self.ride_next_write(txn, Ride::Vote)
    }

    fn commit_with_next_write(&mut self, txn: TxnId) -> Result<()> {
        self.ride_next_write(txn, Ride::Commit)
    }

    fn commit(&mut self, txn: TxnId) -> Result<()> {
        self.committed = self.engine.commit_txn(txn)?;
        self.leave_transaction();
        Ok(())
    }

    fn abort(&mut self, txn: TxnId) -> Result<()> {
        self.engine.abort_txn(txn)?;
        self.leave_transaction();
        Ok(())
    }

    fn insert(&mut self, table: &str, rows: &[Row]) -> Result<u64> {
        self.write(table, Batch::Insert(rows.into()))
    }

    fn delete_by_bookmarks(&mut self, table: &str, bookmarks: &[u64]) -> Result<u64> {
        self.write(table, Batch::Delete(bookmarks.into()))
    }

    /// In place on both paths: a row keeps its bookmark.
    fn update_by_bookmarks(
        &mut self,
        table: &str,
        bookmarks: &[u64],
        updates: &[Row],
    ) -> Result<u64> {
        self.write(table, Batch::Update(bookmarks.into(), updates.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableDef;
    use dhqp_oledb::RowsetExt;
    use dhqp_types::{Column, DataType, Schema, Value};

    fn source() -> LocalDataSource {
        let engine = Arc::new(StorageEngine::new("srv1"));
        engine
            .create_table(
                TableDef::new(
                    "emp",
                    Schema::new(vec![
                        Column::not_null("id", DataType::Int),
                        Column::new("dept", DataType::Str),
                    ]),
                )
                .with_index("pk_emp", &["id"], true),
            )
            .unwrap();
        engine
            .insert_rows(
                "emp",
                &[
                    Row::new(vec![Value::Int(1), Value::Str("hr".into())]),
                    Row::new(vec![Value::Int(2), Value::Str("eng".into())]),
                    Row::new(vec![Value::Int(3), Value::Str("eng".into())]),
                ],
            )
            .unwrap();
        engine.analyze("emp", 4).unwrap();
        LocalDataSource::new(engine)
    }

    #[test]
    fn metadata_reports_indexes_and_cardinality() {
        let ds = source();
        let t = ds.table("EMP").unwrap();
        assert_eq!(t.cardinality, Some(3));
        assert_eq!(t.indexes.len(), 1);
        assert!(ds.table("nope").is_err());
    }

    #[test]
    fn session_opens_rowsets_and_indexes() {
        let ds = source();
        let mut s = ds.create_session().unwrap();
        assert_eq!(s.open_rowset("emp").unwrap().count_rows().unwrap(), 3);
        let mut idx = s
            .open_index("emp", "pk_emp", &KeyRange::eq(vec![Value::Int(2)]))
            .unwrap();
        let rows = idx.collect_rows().unwrap();
        assert_eq!(rows.len(), 1);
        let bm = rows[0].bookmark.unwrap();
        let fetched = s.fetch_by_bookmarks("emp", &[bm]).unwrap();
        assert_eq!(fetched[0].get(1), &Value::Str("eng".into()));
    }

    #[test]
    fn histogram_flows_through_session() {
        let ds = source();
        let mut s = ds.create_session().unwrap();
        assert!(s.histogram("emp", "id").unwrap().is_some());
        assert!(s.histogram("emp", "ghost").unwrap().is_none());
    }

    #[test]
    fn enlisted_session_buffers_until_commit() {
        let ds = source();
        let mut s = ds.create_session().unwrap();
        s.join_transaction(42).unwrap();
        s.insert("emp", &[Row::new(vec![Value::Int(9), Value::Null])])
            .unwrap();
        assert_eq!(ds.engine().with_table("emp", |t| t.row_count()).unwrap(), 3);
        s.prepare(42).unwrap();
        s.commit(42).unwrap();
        assert_eq!(ds.engine().with_table("emp", |t| t.row_count()).unwrap(), 4);
    }

    #[test]
    fn a_vote_rides_the_next_write_and_a_refusal_answers_in_its_place() {
        let ds = source();
        let row = |id| Row::new(vec![Value::Int(id), Value::Null]);
        let mut s = ds.create_session().unwrap();
        // Only an enlisted session can be asked, and only for its own txn.
        assert_eq!(
            s.vote_with_next_write(42).unwrap_err().kind(),
            "transaction"
        );
        s.join_transaction(42).unwrap();
        assert!(s.vote_with_next_write(41).is_err());
        s.insert("emp", &[row(8)]).unwrap();
        s.vote_with_next_write(42).unwrap();
        s.insert("emp", &[row(9)]).unwrap();
        // Prepared: the explicit verb has nothing left to do, and no write
        // may follow the vote.
        assert!(s.prepare(42).is_err());
        assert!(s.insert("emp", &[row(10)]).is_err());
        s.commit(42).unwrap();
        assert_eq!(ds.engine().with_table("emp", |t| t.row_count()).unwrap(), 5);

        let mut s = ds.create_session().unwrap();
        s.join_transaction(43).unwrap();
        s.vote_with_next_write(43).unwrap();
        ds.engine().set_fail_prepare(true);
        let err = s.insert("emp", &[row(11)]).unwrap_err();
        assert!(err.to_string().contains("prepare failure"), "{err}");
        // The request was for one write: the next one carries no vote.
        s.insert("emp", &[row(12)]).unwrap();
        s.abort(43).unwrap();
        assert!(!ds.engine().has_txn(43));
        assert_eq!(ds.engine().with_table("emp", |t| t.row_count()).unwrap(), 5);
    }

    #[test]
    fn a_vote_nobody_collected_does_not_outlive_its_transaction() {
        let ds = source();
        let row = |id| Row::new(vec![Value::Int(id), Value::Null]);
        let rows = || ds.engine().with_table("emp", |t| t.row_count()).unwrap();
        // The write the vote was to ride never came: whichever way the
        // transaction ends, and even if no outcome was delivered before the
        // session joins the next one, the next transaction's first write is
        // not taken for its last.
        for (txn, end) in [(50, "commit"), (52, "abort"), (54, "none")] {
            let mut s = ds.local_session();
            s.join_transaction(txn).unwrap();
            s.vote_with_next_write(txn).unwrap();
            match end {
                "commit" => s.commit(txn).unwrap(),
                "abort" => s.abort(txn).unwrap(),
                _ => {}
            }
            let before = rows();
            s.join_transaction(txn + 1).unwrap();
            s.insert("emp", &[row(txn as i64)]).unwrap();
            s.vote_with_next_write(txn + 1).unwrap();
            s.insert("emp", &[row(txn as i64 + 1)]).unwrap();
            s.commit(txn + 1).unwrap();
            assert_eq!(rows(), before + 2, "after {end}");
        }

        // A statement run in the place of that write settles the vote when
        // it is done: what the transaction buffered before is prepared ...
        let mut s = ds.local_session();
        s.join_transaction(60).unwrap();
        s.insert("emp", &[row(60)]).unwrap();
        s.vote_with_next_write(60).unwrap();
        s.settle_ride(Ok(())).unwrap();
        assert!(
            s.insert("emp", &[row(61)]).is_err(),
            "prepared: no more writes"
        );
        // ... a refusal is the statement's answer ...
        let mut refusing = ds.local_session();
        refusing.join_transaction(62).unwrap();
        refusing.vote_with_next_write(62).unwrap();
        ds.engine().set_fail_prepare(true);
        assert!(refusing.settle_ride(Ok(())).is_err());
        ds.engine().set_fail_prepare(false);
        // ... and with no vote waiting there is nothing to settle.
        let mut idle = ds.local_session();
        idle.settle_ride(Ok(())).unwrap();
        idle.join_transaction(63).unwrap();
        idle.insert("emp", &[row(63)]).unwrap();
        idle.settle_ride(Ok(())).unwrap();
        idle.insert("emp", &[row(64)]).unwrap();
        assert_eq!(idle.transaction(), Some(63));
        for (session, txn) in [(&mut s, 60), (&mut refusing, 62), (&mut idle, 63)] {
            session.abort(txn).unwrap();
            assert_eq!(session.transaction(), None);
        }
    }

    #[test]
    fn a_commit_rides_the_next_write_all_or_nothing() {
        let ds = source();
        let row = |id| Row::new(vec![Value::Int(id), Value::Null]);
        let rows = || ds.engine().with_table("emp", |t| t.row_count()).unwrap();
        // Committed with the write: visible at once, and the session has
        // left the transaction.
        let mut s = ds.local_session();
        s.join_transaction(70).unwrap();
        s.insert("emp", &[row(70)]).unwrap();
        s.commit_with_next_write(70).unwrap();
        assert_eq!(s.insert("emp", &[row(71)]).unwrap(), 1);
        assert_eq!(rows(), 5);
        assert_eq!(s.transaction(), None);
        assert!(!ds.engine().has_txn(70));
        assert_eq!(s.take_committed(), ["emp"]);
        assert!(s.take_committed().is_empty());

        // A failed write, a refused prepare, a failed commit: each rolls
        // the whole transaction back, and the session is out of it.
        for (txn, failure) in [(72, "write"), (74, "prepare"), (76, "commit")] {
            let mut s = ds.local_session();
            s.join_transaction(txn).unwrap();
            s.insert("emp", &[row(txn as i64)]).unwrap();
            s.commit_with_next_write(txn).unwrap();
            ds.engine().set_fail_prepare(failure == "prepare");
            ds.engine().set_fail_commit(failure == "commit");
            let table = if failure == "write" { "ghost" } else { "emp" };
            assert!(
                s.insert(table, &[row(txn as i64 + 1)]).is_err(),
                "{failure}"
            );
            ds.engine().set_fail_prepare(false);
            ds.engine().set_fail_commit(false);
            assert_eq!(rows(), 5, "{failure}");
            assert!(!ds.engine().has_txn(txn), "{failure}");
            assert_eq!(s.transaction(), None, "{failure}");
            assert!(s.take_committed().is_empty(), "{failure}");
        }

        // A statement that ran in the place of the write and wrote nothing
        // settles it: what the transaction buffered before commits.
        let mut s = ds.local_session();
        s.join_transaction(78).unwrap();
        s.insert("emp", &[row(78)]).unwrap();
        s.commit_with_next_write(78).unwrap();
        s.settle_ride(Ok(())).unwrap();
        assert_eq!(rows(), 6);
        assert_eq!(s.transaction(), None);
        assert_eq!(s.take_committed(), ["emp"]);

        // One that failed before it wrote answers it with its failure: what
        // the transaction buffered before is rolled back, and the session's
        // next write is a write of its own.
        let mut s = ds.local_session();
        s.join_transaction(80).unwrap();
        s.insert("emp", &[row(80)]).unwrap();
        s.commit_with_next_write(80).unwrap();
        let failed: Result<()> = Err(DhqpError::Execute("divide by zero".into()));
        assert!(s.settle_ride(failed).is_err());
        assert!(!ds.engine().has_txn(80));
        assert_eq!(s.transaction(), None);
        assert_eq!(rows(), 6);
        s.insert("emp", &[row(81)]).unwrap();
        assert_eq!(rows(), 7);
        assert!(s.take_committed().is_empty());
    }

    #[test]
    fn capability_class_is_index_provider() {
        let ds = source();
        assert_eq!(ds.capabilities().class(), dhqp_oledb::ProviderClass::Index);
        assert!(!ds.capabilities().has_command());
    }
}
