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
    /// its own on it ([`LocalSession::settle_vote`]).
    pub fn local_session(&self) -> LocalSession {
        LocalSession {
            engine: Arc::clone(&self.engine),
            txn: None,
            vote_with_next_write: false,
        }
    }
}

/// A session over the local storage engine. When enlisted in a distributed
/// transaction, DML is buffered in the engine's 2PC participant state.
pub struct LocalSession {
    engine: Arc<StorageEngine>,
    txn: Option<TxnId>,
    /// The coordinator asked for the phase-one vote with the next write.
    vote_with_next_write: bool,
}

impl LocalSession {
    /// Run one write, buffered under the session's transaction if it has
    /// one. When the vote was asked to ride this write the transaction is
    /// prepared right behind it, and a refusal answers in the write's place.
    fn write(
        &mut self,
        write: impl FnOnce(&StorageEngine, Option<TxnId>) -> Result<u64>,
    ) -> Result<u64> {
        let vote = std::mem::take(&mut self.vote_with_next_write);
        let n = write(&self.engine, self.txn)?;
        if let (true, Some(txn)) = (vote, self.txn) {
            self.engine.prepare_txn(txn)?;
        }
        Ok(n)
    }

    /// The outcome arrived: a vote nobody collected (the write it was to
    /// ride never came) does not outlive its transaction.
    fn leave_transaction(&mut self) {
        self.txn = None;
        self.vote_with_next_write = false;
    }

    /// The transaction this session is enlisted in.
    pub fn transaction(&self) -> Option<TxnId> {
        self.txn
    }

    /// Answer a vote that is still waiting for its write. A statement run on
    /// this session in the place of that write calls this when it is done: if
    /// it wrote nothing the vote has not been given yet, and what the
    /// transaction buffered before it — nothing, for a participant that only
    /// read — is prepared now.
    pub fn settle_vote(&mut self) -> Result<()> {
        self.write(|_, _| Ok(0)).map(|_| ())
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
                        .map(|r| Row::with_bookmark(r.to_vec(), b))
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
        self.vote_with_next_write = false;
        Ok(())
    }

    fn prepare(&mut self, txn: TxnId) -> Result<()> {
        self.engine.prepare_txn(txn)
    }

    fn vote_with_next_write(&mut self, txn: TxnId) -> Result<()> {
        if self.txn != Some(txn) {
            return Err(DhqpError::Transaction(format!(
                "session on '{}' is not enlisted in transaction {txn}",
                self.engine.name()
            )));
        }
        self.vote_with_next_write = true;
        Ok(())
    }

    fn commit(&mut self, txn: TxnId) -> Result<()> {
        self.engine.commit_txn(txn)?;
        self.leave_transaction();
        Ok(())
    }

    fn abort(&mut self, txn: TxnId) -> Result<()> {
        self.engine.abort_txn(txn)?;
        self.leave_transaction();
        Ok(())
    }

    fn insert(&mut self, table: &str, rows: &[Row]) -> Result<u64> {
        self.write(|engine, txn| match txn {
            Some(txn) => engine.txn_insert(txn, table, rows),
            None => engine.insert_rows(table, rows),
        })
    }

    fn delete_by_bookmarks(&mut self, table: &str, bookmarks: &[u64]) -> Result<u64> {
        self.write(|engine, txn| match txn {
            Some(txn) => engine.txn_delete(txn, table, bookmarks),
            None => engine.delete_bookmarks(table, bookmarks),
        })
    }

    fn update_by_bookmarks(
        &mut self,
        table: &str,
        bookmarks: &[u64],
        updates: &[Row],
    ) -> Result<u64> {
        self.write(|engine, txn| match txn {
            // Model an update as delete+insert inside the buffer.
            Some(txn) => {
                engine.txn_delete(txn, table, bookmarks)?;
                engine.txn_insert(txn, table, updates)
            }
            None => engine.update_bookmarks(table, bookmarks, updates),
        })
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
        s.settle_vote().unwrap();
        assert!(
            s.insert("emp", &[row(61)]).is_err(),
            "prepared: no more writes"
        );
        // ... a refusal is the statement's answer ...
        let mut refusing = ds.local_session();
        refusing.join_transaction(62).unwrap();
        refusing.vote_with_next_write(62).unwrap();
        ds.engine().set_fail_prepare(true);
        assert!(refusing.settle_vote().is_err());
        ds.engine().set_fail_prepare(false);
        // ... and with no vote waiting there is nothing to settle.
        let mut idle = ds.local_session();
        idle.settle_vote().unwrap();
        idle.join_transaction(63).unwrap();
        idle.insert("emp", &[row(63)]).unwrap();
        idle.settle_vote().unwrap();
        idle.insert("emp", &[row(64)]).unwrap();
        assert_eq!(idle.transaction(), Some(63));
        for (session, txn) in [(&mut s, 60), (&mut refusing, 62), (&mut idle, 63)] {
            session.abort(txn).unwrap();
            assert_eq!(session.transaction(), None);
        }
    }

    #[test]
    fn capability_class_is_index_provider() {
        let ds = source();
        assert_eq!(ds.capabilities().class(), dhqp_oledb::ProviderClass::Index);
        assert!(!ds.capabilities().has_command());
    }
}
