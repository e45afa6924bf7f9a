//! Session pooling: connect to a data source once, reuse the session.
//!
//! In the paper's object model (§3.1.1, Fig. 3) the data source is
//! initialised once and the *session* is the reusable unit of work.
//! [`PooledDataSource`] decorates any [`DataSource`] accordingly:
//! `create_session` hands out an idle session when it has one and connects
//! only when it has none, and a session goes back to the idle list when the
//! caller is done with it.
//!
//! "Done" is decided by a *lease* shared between the session handle and
//! every command and rowset opened through it: the wire session is checked
//! in when the last of them is dropped, so a rowset still being drained
//! keeps its session out of the pool even after the handle that opened it
//! is gone — one in-flight result per session, as on a real connection.
//!
//! A session is closed instead of checked in when
//! * any call on it, or on a command or rowset opened through it, returned
//!   a retryable error (`Timeout`/`Unavailable`): the connection may be
//!   broken, and whoever retries must not draw it again;
//! * it joined a distributed transaction that neither `commit` nor `abort`
//!   has acknowledged, nor the write a commit rode
//!   ([`Session::commit_with_next_write`]) answered: it still carries the
//!   transaction's state ([`Enlistment`]);
//! * it failed to join one: a join that failed half-way leaves the
//!   session's transactional state unknown;
//! * the idle list already holds [`MAX_IDLE_SESSIONS`];
//! * the pool itself is gone (its data source was dropped).

use crate::datasource::{Command, DataSource, Session};
use crate::layer::{CommandLayer, CommandVerb, Enlistment, Reply, SessionLayer, SourceLayer, Verb};
use crate::rowset::Rowset;
use dhqp_types::{Result, RowBatch, Schema};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

/// Most idle sessions a pool keeps; a session checked in beyond that is
/// closed.
pub const MAX_IDLE_SESSIONS: usize = 8;

/// Point-in-time pool counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Connect requests sent to the wrapped source (cold opens), failed
    /// ones included — each cost a round trip.
    pub connects: u64,
    /// `create_session` calls answered from the idle list (warm opens).
    pub reuses: u64,
    /// Sessions idle right now.
    pub idle: usize,
}

/// What outlives the data source handle: checked-out leases hold it weakly,
/// so a lease returning after the pool was dropped closes its session.
#[derive(Default)]
struct PoolState {
    idle: Mutex<Vec<Box<dyn Session>>>,
    connects: AtomicU64,
    reuses: AtomicU64,
}

impl PoolState {
    fn idle(&self) -> MutexGuard<'_, Vec<Box<dyn Session>>> {
        self.idle
            .lock()
            .expect("no panic while the idle list is locked")
    }
}

/// A [`DataSource`] whose sessions are pooled.
pub struct PooledDataSource {
    inner: Arc<dyn DataSource>,
    state: Arc<PoolState>,
}

impl PooledDataSource {
    pub fn new(inner: Arc<dyn DataSource>) -> Self {
        PooledDataSource {
            inner,
            state: Arc::default(),
        }
    }

    pub fn stats(&self) -> PoolStats {
        PoolStats {
            connects: self.state.connects.load(Ordering::Relaxed),
            reuses: self.state.reuses.load(Ordering::Relaxed),
            idle: self.state.idle().len(),
        }
    }

    /// Zero `connects` and `reuses`; idle sessions stay.
    pub fn reset_counters(&self) {
        self.state.connects.store(0, Ordering::Relaxed);
        self.state.reuses.store(0, Ordering::Relaxed);
    }
}

impl SourceLayer for PooledDataSource {
    fn inner(&self) -> &dyn DataSource {
        &*self.inner
    }

    fn session(&self) -> Result<Box<dyn Session>> {
        // Own statement: the idle list must be unlocked during a connect.
        let idle = self.state.idle().pop();
        let session = match idle {
            Some(session) => {
                self.state.reuses.fetch_add(1, Ordering::Relaxed);
                session
            }
            None => {
                self.state.connects.fetch_add(1, Ordering::Relaxed);
                self.inner.create_session()?
            }
        };
        Ok(Box::new(PooledSession {
            session: Some(session),
            lease: Arc::new(Lease {
                pool: Arc::downgrade(&self.state),
                parked: Mutex::new(None),
                broken: AtomicBool::new(false),
                enlistment: Enlistment::default(),
            }),
        }))
    }
}

/// One checked-out session, shared by its handle and everything opened
/// through it. Dropping the last holder checks the session in (or closes
/// it, see the module docs). The flags are read only there, and the `Arc`
/// orders that drop after every holder's writes, so they are `Relaxed`.
struct Lease {
    pool: Weak<PoolState>,
    /// The wire session, parked here by the handle's drop so that rowsets
    /// outliving the handle keep it checked out.
    parked: Mutex<Option<Box<dyn Session>>>,
    broken: AtomicBool,
    enlistment: Enlistment,
}

impl Lease {
    /// Pass a result through, marking the session broken on a retryable
    /// error.
    fn watch<T>(&self, result: Result<T>) -> Result<T> {
        if matches!(&result, Err(e) if e.is_retryable()) {
            self.broken.store(true, Ordering::Relaxed);
        }
        result
    }

    /// Tie a rowset or command a reply carries to this lease.
    fn lend(self: &Arc<Self>, reply: Reply) -> Reply {
        match reply {
            Reply::Rowset(inner) => Reply::Rowset(Box::new(PooledRowset {
                inner,
                lease: Arc::clone(self),
            })),
            Reply::Command(inner) => Reply::Command(Box::new(PooledCommand {
                inner,
                lease: Arc::clone(self),
                text: String::new(),
            })),
            reply => reply,
        }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        // A poisoned slot means a panic unwound through the handle's drop:
        // the session is not known to be good.
        let Ok(Some(session)) = self.parked.get_mut().map(Option::take) else {
            return;
        };
        if *self.broken.get_mut() || self.enlistment.is_enlisted() {
            return;
        }
        let Some(pool) = self.pool.upgrade() else {
            return;
        };
        if let Ok(mut idle) = pool.idle.lock() {
            if idle.len() < MAX_IDLE_SESSIONS {
                idle.push(session);
            }
        };
    }
}

struct PooledSession {
    /// `Some` until drop, which parks it in the lease.
    session: Option<Box<dyn Session>>,
    lease: Arc<Lease>,
}

impl Drop for PooledSession {
    fn drop(&mut self) {
        if let Ok(mut parked) = self.lease.parked.lock() {
            *parked = self.session.take();
        }
    }
}

impl SessionLayer for PooledSession {
    fn call(&mut self, verb: Verb<'_>) -> Result<Reply> {
        let session = self
            .session
            .as_deref_mut()
            .expect("the session is present until the handle drops");
        let reply = self.lease.watch(verb.send(session));
        if matches!(verb, Verb::JoinTransaction(_)) && reply.is_err() {
            self.lease.broken.store(true, Ordering::Relaxed);
        }
        self.lease.enlistment.answered(&verb, reply.is_ok());
        Ok(self.lease.lend(reply?))
    }
}

struct PooledCommand {
    inner: Box<dyn Command>,
    lease: Arc<Lease>,
    /// The text set last.
    text: String,
}

impl CommandLayer for PooledCommand {
    fn call(&mut self, verb: CommandVerb<'_>) -> Result<Reply> {
        let execute = match verb {
            CommandVerb::SetText(text) => {
                self.text = text.to_string();
                false
            }
            CommandVerb::BindParameter(..) => false,
            CommandVerb::Execute() => true,
        };
        let reply = self.lease.watch(verb.send(&mut *self.inner));
        if execute {
            self.lease.enlistment.executed(&self.text);
        }
        Ok(self.lease.lend(reply?))
    }
}

/// Field order matters: the wrapped rowset is dropped before the lease, so
/// the session is idle only once its result is closed.
struct PooledRowset {
    inner: Box<dyn Rowset>,
    lease: Arc<Lease>,
}

impl Rowset for PooledRowset {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        self.lease.watch(self.inner.next_batch(max))
    }

    fn size_hint(&self) -> Option<usize> {
        self.inner.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasource::TxnId;
    use crate::rowset::{IterRowset, MemRowset, RowsetExt};
    use crate::{ProviderCapabilities, TableInfo};
    use dhqp_types::{Column, DataType, DhqpError, Row, Value};
    use std::sync::atomic::AtomicUsize;

    /// A source that counts its connects and live sessions; sessions serve
    /// three int rows and can be told to fail the next read.
    #[derive(Default)]
    struct CountingSource {
        connects: AtomicUsize,
        live: Arc<AtomicUsize>,
        fail_next_read: Arc<AtomicBool>,
    }

    struct CountingSession {
        live: Arc<AtomicUsize>,
        fail_next_read: Arc<AtomicBool>,
    }

    impl Drop for CountingSession {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl DataSource for CountingSource {
        fn name(&self) -> &str {
            "counting"
        }

        fn capabilities(&self) -> ProviderCapabilities {
            ProviderCapabilities::simple("counting")
        }

        fn tables(&self) -> Result<Vec<TableInfo>> {
            Ok(vec![])
        }

        fn create_session(&self) -> Result<Box<dyn Session>> {
            self.connects.fetch_add(1, Ordering::SeqCst);
            self.live.fetch_add(1, Ordering::SeqCst);
            Ok(Box::new(CountingSession {
                live: Arc::clone(&self.live),
                fail_next_read: Arc::clone(&self.fail_next_read),
            }))
        }
    }

    impl Session for CountingSession {
        fn open_rowset(&mut self, table: &str) -> Result<Box<dyn Rowset>> {
            let schema = Schema::new(vec![Column::not_null("x", DataType::Int)]);
            if table == "timeout" {
                return Err(DhqpError::Timeout("open timed out".into()));
            }
            if self.fail_next_read.swap(false, Ordering::SeqCst) {
                let dropped = [Err(DhqpError::Unavailable("stream dropped".into()))];
                return Ok(Box::new(IterRowset::new(schema, dropped.into_iter())));
            }
            let rows = (0..3).map(|i| Row::new(vec![Value::Int(i)])).collect();
            Ok(Box::new(MemRowset::new(schema, rows)))
        }

        fn join_transaction(&mut self, txn: TxnId) -> Result<()> {
            if txn == 0 {
                return Err(DhqpError::Transaction("join failed".into()));
            }
            Ok(())
        }

        fn commit(&mut self, txn: TxnId) -> Result<()> {
            if txn == 13 {
                return Err(DhqpError::Transaction("commit not delivered".into()));
            }
            Ok(())
        }

        fn abort(&mut self, _txn: TxnId) -> Result<()> {
            Ok(())
        }

        fn commit_with_next_write(&mut self, _txn: TxnId) -> Result<()> {
            Ok(())
        }

        fn insert(&mut self, table: &str, rows: &[Row]) -> Result<u64> {
            if table == "refused" {
                return Err(DhqpError::Transaction("rolled back".into()));
            }
            Ok(rows.len() as u64)
        }
    }

    fn pooled() -> (Arc<CountingSource>, PooledDataSource) {
        let source = Arc::new(CountingSource::default());
        let pool = PooledDataSource::new(Arc::clone(&source) as Arc<dyn DataSource>);
        (source, pool)
    }

    fn stats(connects: u64, reuses: u64, idle: usize) -> PoolStats {
        PoolStats {
            connects,
            reuses,
            idle,
        }
    }

    #[test]
    fn pooled_decorators_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<PooledDataSource>();
        assert_send::<PooledSession>();
        assert_send::<PooledCommand>();
        assert_send::<PooledRowset>();
    }

    #[test]
    fn a_dropped_session_is_reused() {
        let (source, pool) = pooled();
        for _ in 0..3 {
            let mut s = pool.create_session().unwrap();
            assert_eq!(s.open_rowset("t").unwrap().count_rows().unwrap(), 3);
        }
        assert_eq!(source.connects.load(Ordering::SeqCst), 1);
        assert_eq!(pool.stats(), stats(1, 2, 1));
        pool.reset_counters();
        assert_eq!(pool.stats(), stats(0, 0, 1), "a reset keeps idle sessions");
    }

    #[test]
    fn a_rowset_keeps_the_session_out_after_its_handle_is_dropped() {
        let (source, pool) = pooled();
        let mut first = {
            let mut s = pool.create_session().unwrap();
            s.open_rowset("t").unwrap()
        };
        assert_eq!(pool.stats().idle, 0, "the open result still owns it");
        // A second open while the first result is in flight needs its own
        // session.
        let mut second = pool.create_session().unwrap().open_rowset("t").unwrap();
        assert_eq!(source.connects.load(Ordering::SeqCst), 2);
        assert_eq!(first.count_rows().unwrap(), 3);
        assert_eq!(second.count_rows().unwrap(), 3);
        drop(first);
        assert_eq!(pool.stats().idle, 1);
        drop(second);
        assert_eq!(pool.stats(), stats(2, 0, 2));
    }

    #[test]
    fn a_retryable_error_anywhere_on_the_lease_closes_the_session() {
        let (source, pool) = pooled();
        // From the session itself.
        let mut s = pool.create_session().unwrap();
        assert!(s.open_rowset("timeout").is_err());
        drop(s);
        assert_eq!(pool.stats().idle, 0);
        assert_eq!(source.live.load(Ordering::SeqCst), 0);
        // From a rowset, after the handle is gone.
        source.fail_next_read.store(true, Ordering::SeqCst);
        let mut rs = pool.create_session().unwrap().open_rowset("t").unwrap();
        assert!(rs.next().unwrap_err().is_retryable());
        drop(rs);
        assert_eq!(pool.stats(), stats(2, 0, 0));
        assert_eq!(source.live.load(Ordering::SeqCst), 0);
        // A permanent error says nothing about the connection.
        let mut s = pool.create_session().unwrap();
        assert!(matches!(s.create_command(), Err(DhqpError::Unsupported(_))));
        drop(s);
        assert_eq!(pool.stats().idle, 1);
    }

    #[test]
    fn a_session_in_a_transaction_stays_out_until_the_outcome_is_acknowledged() {
        let (source, pool) = pooled();
        let mut s = pool.create_session().unwrap();
        s.join_transaction(7).unwrap();
        s.commit(7).unwrap();
        drop(s);
        assert_eq!(pool.stats().idle, 1, "committed: poolable again");

        let mut s = pool.create_session().unwrap();
        s.join_transaction(13).unwrap();
        assert!(s.commit(13).is_err());
        // In doubt: whoever holds the session can still deliver the
        // outcome; dropping it now would close it.
        s.abort(13).unwrap();
        drop(s);
        assert_eq!(pool.stats().idle, 1);

        let mut s = pool.create_session().unwrap();
        s.join_transaction(13).unwrap();
        assert!(s.commit(13).is_err());
        drop(s);
        assert_eq!(pool.stats().idle, 0, "unresolved: closed, not pooled");
        assert_eq!(source.live.load(Ordering::SeqCst), 0);

        let mut s = pool.create_session().unwrap();
        assert!(s.join_transaction(0).is_err());
        drop(s);
        assert_eq!(pool.stats().idle, 0, "a failed join: closed, not pooled");
    }

    #[test]
    fn a_session_whose_commit_rode_a_write_is_back_once_the_write_is_answered() {
        let (_, pool) = pooled();
        let row = [Row::new(vec![Value::Int(1)])];
        // Committed, or rolled back: either answer ends the transaction.
        for table in ["t", "refused"] {
            let mut s = pool.create_session().unwrap();
            s.join_transaction(7).unwrap();
            s.insert("t", &row).unwrap();
            s.commit_with_next_write(7).unwrap();
            let _ = s.insert(table, &row);
            drop(s);
        }
        assert_eq!(pool.stats(), stats(1, 1, 1));
        // A write that carried no commit leaves the session enlisted.
        let mut s = pool.create_session().unwrap();
        s.join_transaction(8).unwrap();
        s.insert("t", &row).unwrap();
        drop(s);
        assert_eq!(pool.stats().idle, 0);
    }

    #[test]
    fn the_idle_list_is_capped() {
        let (source, pool) = pooled();
        let sessions: Vec<_> = (0..MAX_IDLE_SESSIONS + 3)
            .map(|_| pool.create_session().unwrap())
            .collect();
        assert_eq!(source.live.load(Ordering::SeqCst), MAX_IDLE_SESSIONS + 3);
        drop(sessions);
        assert_eq!(pool.stats().idle, MAX_IDLE_SESSIONS);
        assert_eq!(source.live.load(Ordering::SeqCst), MAX_IDLE_SESSIONS);
    }

    #[test]
    fn dropping_the_pool_closes_idle_and_returning_sessions() {
        let (source, pool) = pooled();
        let held = pool.create_session().unwrap();
        drop(pool.create_session().unwrap());
        assert_eq!(source.live.load(Ordering::SeqCst), 2);
        drop(pool);
        assert_eq!(source.live.load(Ordering::SeqCst), 1, "idle one closed");
        drop(held);
        assert_eq!(
            source.live.load(Ordering::SeqCst),
            0,
            "no pool to return to"
        );
    }
}
