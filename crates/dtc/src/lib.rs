//! The distributed transaction coordinator — the Microsoft DTC analog.
//!
//! "SQL Server uses the Microsoft Distributed Transaction Coordinator to
//! ensure atomicity of transactions across data sources" (paper §2).
//! Sessions enlist via the OLE DB-style `join_transaction`; the coordinator
//! drives classic presumed-abort two-phase commit:
//!
//! 1. **Prepare**: every participant must durably promise to commit.
//!    Any refusal aborts everyone.
//! 2. **Commit/Abort**: the decision is taken, then delivered to all
//!    participants.
//!
//! Phase one need not be a message of its own. A caller that knows a
//! participant's last write sends it through
//! [`DistributedTransaction::write_and_vote`], and a provider that
//! implements [`Session::vote_with_next_write`] answers the vote with that
//! write. `commit()` then asks only whoever is left — every participant,
//! for callers that drive sessions through `session_mut` alone. Every
//! participant is owed the outcome, so a caller enlists only the sessions
//! that write: a server a statement only read from is none.
//! A participant that voted early and is aborted afterwards (another one
//! refused, or failed a write) is in no different position from one aborted
//! after an explicit prepare: nothing was decided, so abort is presumed.
//!
//! Once every other participant has voted, the last one's vote *is* the
//! decision (the last-agent optimization): [`DistributedTransaction::
//! write_and_commit`] sends its last write with
//! [`Session::commit_with_next_write`], and a provider that implements it
//! prepares and commits with that write. Its `Ok` is the decision `Committed`,
//! delivered to the others; its error is a no, and everyone is aborted. A
//! two-member write then costs three requests, not four.
//!
//! Failure injection in the storage engine (`set_fail_prepare`,
//! `set_fail_commit`) lets tests and benches exercise the abort path and
//! the in-doubt/recovery path.
//!
//! A participant that fails *after* the decision was taken leaves the
//! transaction **in doubt**: the coordinator keeps the participant's session
//! in an in-doubt store together with the outcome it missed, and
//! [`TransactionCoordinator::recover`] re-delivers that outcome until every
//! participant has acknowledged it. A decided transaction with no
//! participant left owing an answer leaves nothing behind but the counters.

use dhqp_oledb::{emit_event, has_hook, record_wait, Session, TxnId, WaitClass};
use dhqp_types::{DhqpError, Result};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Raise a `2pc` state-transition event when the current thread's activity
/// scope carries an event hook.
fn txn_event(txn: TxnId, state: &str, detail: &str) {
    if has_hook() {
        emit_event(
            "2pc",
            &[
                ("txn", txn.to_string()),
                ("state", state.to_string()),
                ("detail", detail.to_string()),
            ],
        );
    }
}

/// Final decision for a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Committed,
    Aborted,
}

/// Coordinator counters, including in-doubt/recovery telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DtcStats {
    /// Transactions decided `Committed`.
    pub commits: u64,
    /// Transactions decided `Aborted`.
    pub aborts: u64,
    /// Transactions currently in doubt (decision taken, delivery pending).
    pub in_doubt: u64,
    /// In-doubt transactions fully resolved by [`TransactionCoordinator::recover`].
    pub recovered: u64,
    /// Phase-one votes that arrived with a participant's last write instead
    /// of answering a `prepare` message.
    pub votes_ridden: u64,
    /// Commit decisions that rode the last participant's last write instead
    /// of a `commit` message of their own.
    pub commits_ridden: u64,
}

/// What one [`TransactionCoordinator::recover`] pass accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// In-doubt transactions whose every participant acknowledged the
    /// outcome during this pass.
    pub resolved: u64,
    /// In-doubt transactions with at least one participant still failing.
    pub still_in_doubt: u64,
}

/// An in-doubt transaction: the decision is taken, but at least one
/// participant has not acknowledged it. The coordinator keeps the decision
/// and the unacknowledged sessions so recovery can re-deliver it.
struct InDoubt {
    txn: TxnId,
    outcome: Outcome,
    participants: Vec<(String, Box<dyn Session>)>,
}

/// The coordinator: allocates transaction ids and keeps what is in doubt.
#[derive(Default)]
pub struct TransactionCoordinator {
    next_txn: AtomicU64,
    in_doubt: Mutex<Vec<InDoubt>>,
    commits: AtomicU64,
    aborts: AtomicU64,
    recovered: AtomicU64,
    votes_ridden: AtomicU64,
    commits_ridden: AtomicU64,
}

impl TransactionCoordinator {
    pub fn new() -> Arc<Self> {
        Arc::new(TransactionCoordinator::default())
    }

    /// Begin a distributed transaction.
    pub fn begin(self: &Arc<Self>) -> DistributedTransaction {
        let id = self.next_txn.fetch_add(1, Ordering::Relaxed) + 1;
        DistributedTransaction {
            coordinator: Arc::clone(self),
            id,
            participants: Vec::new(),
            finished: false,
        }
    }

    /// Committed/aborted counters (bench telemetry).
    pub fn stats(&self) -> (u64, u64) {
        (
            self.commits.load(Ordering::Relaxed),
            self.aborts.load(Ordering::Relaxed),
        )
    }

    /// Full coordinator telemetry, including the in-doubt/recovery counters.
    pub fn telemetry(&self) -> DtcStats {
        DtcStats {
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            in_doubt: self.in_doubt.lock().len() as u64,
            recovered: self.recovered.load(Ordering::Relaxed),
            votes_ridden: self.votes_ridden.load(Ordering::Relaxed),
            commits_ridden: self.commits_ridden.load(Ordering::Relaxed),
        }
    }

    /// Transaction ids currently in doubt, oldest first.
    pub fn in_doubt_txns(&self) -> Vec<TxnId> {
        self.in_doubt.lock().iter().map(|d| d.txn).collect()
    }

    /// Resolve in-doubt transactions.
    ///
    /// For each in-doubt transaction the decision it was marked with is
    /// re-delivered to every unacknowledged participant: `Committed`
    /// re-sends the commit, `Aborted` the abort. Participants that fail
    /// again stay in the in-doubt store for a later pass.
    pub fn recover(&self) -> RecoveryReport {
        let pending = std::mem::take(&mut *self.in_doubt.lock());
        let mut report = RecoveryReport::default();
        let mut still = Vec::new();
        for entry in pending {
            let mut failed = Vec::new();
            for (name, mut session) in entry.participants {
                let delivery = match entry.outcome {
                    Outcome::Committed => session.commit(entry.txn),
                    Outcome::Aborted => session.abort(entry.txn),
                };
                if delivery.is_err() {
                    failed.push((name, session));
                }
            }
            if failed.is_empty() {
                report.resolved += 1;
                self.recovered.fetch_add(1, Ordering::Relaxed);
            } else {
                report.still_in_doubt += 1;
                still.push(InDoubt {
                    participants: failed,
                    ..entry
                });
            }
        }
        self.in_doubt.lock().extend(still);
        report
    }

    /// Keep `participants`, which did not acknowledge `outcome`, for
    /// [`Self::recover`].
    fn mark_in_doubt(
        &self,
        txn: TxnId,
        outcome: Outcome,
        participants: Vec<(String, Box<dyn Session>)>,
    ) {
        self.in_doubt.lock().push(InDoubt {
            txn,
            outcome,
            participants,
        });
    }

    fn record(&self, outcome: Outcome) {
        match outcome {
            Outcome::Committed => self.commits.fetch_add(1, Ordering::Relaxed),
            Outcome::Aborted => self.aborts.fetch_add(1, Ordering::Relaxed),
        };
    }
}

/// Where a participant stands in phase one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Vote {
    /// Not asked yet: `commit()` sends it the explicit `prepare`.
    Pending,
    /// Voted yes with its last write.
    Ridden,
    /// Committed with its last write: it is owed nothing.
    Decided,
}

struct Participant {
    name: String,
    session: Box<dyn Session>,
    vote: Vote,
}

/// An in-flight distributed transaction owning its enlisted sessions.
pub struct DistributedTransaction {
    coordinator: Arc<TransactionCoordinator>,
    id: TxnId,
    participants: Vec<Participant>,
    finished: bool,
}

impl DistributedTransaction {
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Enlist a session (calls the provider's `join_transaction`, the
    /// `ITransactionJoin` analog). The transaction owns the session until
    /// completion.
    pub fn enlist(&mut self, name: impl Into<String>, mut session: Box<dyn Session>) -> Result<()> {
        if self.finished {
            return Err(DhqpError::Transaction(
                "transaction already completed".into(),
            ));
        }
        session.join_transaction(self.id)?;
        self.participants.push(Participant {
            name: name.into(),
            session,
            vote: Vote::Pending,
        });
        Ok(())
    }

    fn participant_mut(&mut self, name: &str) -> Result<&mut Participant> {
        self.participants
            .iter_mut()
            .find(|p| p.name == name)
            .ok_or_else(|| DhqpError::Transaction(format!("no participant '{name}' enlisted")))
    }

    /// Mutable access to an enlisted session for running work under the
    /// transaction.
    pub fn session_mut(&mut self, name: &str) -> Result<&mut Box<dyn Session>> {
        self.participant_mut(name).map(|p| &mut p.session)
    }

    pub fn participant_names(&self) -> Vec<String> {
        self.participants.iter().map(|p| p.name.clone()).collect()
    }

    /// Run `write`, the last write `name` makes under this transaction,
    /// and take the participant's vote with its answer
    /// ([`Session::vote_with_next_write`]). A provider without that call
    /// just runs the write and is asked in [`Self::commit`]. An error from a
    /// write that carried the vote is a no vote: everyone is aborted, as
    /// after a refused `prepare`.
    pub fn write_and_vote<T>(
        &mut self,
        name: &str,
        write: impl FnOnce(&mut dyn Session) -> Result<T>,
    ) -> Result<T> {
        let id = self.id;
        let participant = self.participant_mut(name)?;
        match participant.session.vote_with_next_write(id) {
            Ok(()) => {}
            Err(DhqpError::Unsupported(_)) => return write(participant.session.as_mut()),
            Err(e) => return Err(e),
        }
        match write(participant.session.as_mut()) {
            Ok(out) => {
                participant.vote = Vote::Ridden;
                self.coordinator
                    .votes_ridden
                    .fetch_add(1, Ordering::Relaxed);
                Ok(out)
            }
            Err(e) => Err(self.refused(name, e)),
        }
    }

    /// Run `write`, the last write the last participant `name` makes, with
    /// the commit riding it ([`Session::commit_with_next_write`]), once every
    /// other participant has voted. `write` must send that write as its
    /// first request on the session. `Ok` from it is the decision:
    /// `Committed`, delivered to the others as by
    /// [`Self::commit`]. An error is a no: everyone is aborted, as after a
    /// refused `prepare` — `name` too, which rolled back already if the
    /// write reached it (aborting it again is harmless), and may not have
    /// if the error came from the way there. A provider without the call,
    /// or a participant that has not voted yet, gets the write with its vote
    /// and then `commit()`, as before.
    pub fn write_and_commit<T>(
        mut self,
        name: &str,
        write: impl FnOnce(&mut dyn Session) -> Result<T>,
    ) -> Result<T> {
        if self.finished {
            return Err(DhqpError::Transaction(
                "transaction already completed".into(),
            ));
        }
        let id = self.id;
        let undecided = self
            .participants
            .iter()
            .any(|p| p.name != name && p.vote == Vote::Pending);
        let asked = match undecided {
            true => Err(DhqpError::Unsupported("a participant has not voted".into())),
            false => self
                .participant_mut(name)?
                .session
                .commit_with_next_write(id),
        };
        match asked {
            Ok(()) => {}
            Err(DhqpError::Unsupported(_)) => {
                let out = self.write_and_vote(name, write)?;
                return self.commit().map(|()| out);
            }
            Err(e) => return Err(e),
        }
        if has_hook() {
            let names = self.participant_names();
            txn_event(id, "preparing", &self.phase_one_detail(&names));
        }
        let participant = self.participant_mut(name)?;
        match write(participant.session.as_mut()) {
            Ok(out) => {
                // Committed at `name`: nothing may abort it from here on.
                participant.vote = Vote::Decided;
                self.finished = true;
                self.coordinator
                    .votes_ridden
                    .fetch_add(1, Ordering::Relaxed);
                self.coordinator
                    .commits_ridden
                    .fetch_add(1, Ordering::Relaxed);
                let detail = format!("'{name}' committed with its last write");
                self.deliver_commit(&detail).map(|()| out)
            }
            Err(e) => Err(self.refused(name, e)),
        }
    }

    /// `name` voted no with `cause`. Presumed abort: tell everyone —
    /// participants that already promised included — then report the cause.
    fn refused(&mut self, name: &str, cause: DhqpError) -> DhqpError {
        for p in self.participants.iter_mut() {
            let _ = p.session.abort(self.id);
        }
        self.finished = true;
        self.coordinator.record(Outcome::Aborted);
        txn_event(self.id, "aborted", &format!("'{name}' refused prepare"));
        DhqpError::Transaction(format!("participant '{name}' refused prepare: {cause}"))
    }

    /// Record `Aborted` and deliver it everywhere. Participants that fail
    /// to acknowledge go to the in-doubt store, and recovery re-delivers it.
    fn abort_everyone(&mut self) {
        self.finished = true;
        self.coordinator.record(Outcome::Aborted);
        let mut failed = Vec::new();
        for mut p in std::mem::take(&mut self.participants) {
            if p.session.abort(self.id).is_err() {
                failed.push((p.name, p.session));
            }
        }
        if !failed.is_empty() {
            self.coordinator
                .mark_in_doubt(self.id, Outcome::Aborted, failed);
        }
    }

    /// The `preparing` event's detail: every participant, then those not
    /// asked to prepare because they voted with their last write.
    fn phase_one_detail(&self, names: &[String]) -> String {
        let mut detail = names.join(",");
        let voted = self.participants.iter().filter(|p| p.vote == Vote::Ridden);
        let who: Vec<&str> = voted.map(|p| p.name.as_str()).collect();
        if !who.is_empty() {
            detail.push_str(&format!("; voted early: {}", who.join(",")));
        }
        detail
    }

    /// Two-phase commit. On any prepare failure every participant is
    /// aborted and the prepare error is returned.
    pub fn commit(mut self) -> Result<()> {
        if self.finished {
            return Err(DhqpError::Transaction(
                "transaction already completed".into(),
            ));
        }
        let names = self.participant_names();
        if has_hook() {
            txn_event(self.id, "preparing", &self.phase_one_detail(&names));
        }
        // Phase one: unanimous prepare, asked of whoever has not voted yet.
        // The whole vote-collection loop is one DTC_PREPARE wait — the
        // coordinator is blocked on participants for its full duration.
        let mut pending = self
            .participants
            .iter_mut()
            .filter(|p| p.vote == Vote::Pending)
            .peekable();
        if pending.peek().is_some() {
            let phase_one = Instant::now();
            let mut refusal: Option<(String, DhqpError)> = None;
            for p in pending {
                if let Err(e) = p.session.prepare(self.id) {
                    refusal = Some((p.name.clone(), e));
                    break;
                }
            }
            record_wait(WaitClass::DtcPrepare, phase_one.elapsed());
            if let Some((name, e)) = refusal {
                return Err(self.refused(&name, e));
            }
        }
        self.finished = true;
        self.deliver_commit("every vote is yes")
    }

    /// Record `Committed` and deliver it to every participant that has not
    /// decided already.
    fn deliver_commit(&mut self, detail: &str) -> Result<()> {
        // The decision is taken before phase two.
        self.coordinator.record(Outcome::Committed);
        txn_event(self.id, "committing", detail);
        // Phase two: deliver commit to *every* participant even when some
        // fail — a prepared participant that missed the decision must still
        // receive it eventually. Failures leave the transaction in doubt.
        let phase_two = Instant::now();
        let mut failed = Vec::new();
        let mut causes = Vec::new();
        let owed = std::mem::take(&mut self.participants);
        for mut p in owed.into_iter().filter(|p| p.vote != Vote::Decided) {
            if let Err(e) = p.session.commit(self.id) {
                causes.push(format!("'{}': {e}", p.name));
                failed.push((p.name, p.session));
            }
        }
        record_wait(WaitClass::DtcCommit, phase_two.elapsed());
        if failed.is_empty() {
            txn_event(self.id, "committed", "all participants acknowledged");
            return Ok(());
        }
        txn_event(self.id, "in_doubt", &causes.join(", "));
        self.coordinator
            .mark_in_doubt(self.id, Outcome::Committed, failed);
        Err(DhqpError::Transaction(format!(
            "transaction {} is in doubt: decided Committed but commit delivery failed for {} \
             (run recover() to resolve)",
            self.id,
            causes.join(", ")
        )))
    }

    /// Abort everywhere.
    pub fn abort(mut self) -> Result<()> {
        if !self.finished {
            self.abort_everyone();
        }
        Ok(())
    }
}

impl Drop for DistributedTransaction {
    fn drop(&mut self) {
        // Presumed abort: a dropped in-flight transaction rolls back.
        if !self.finished {
            self.abort_everyone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhqp_oledb::{DataSource, Reply, SessionLayer, Verb};
    use dhqp_storage::{LocalDataSource, StorageEngine, TableDef};
    use dhqp_types::{Column, DataType, Row, Schema, Value};

    fn engine(name: &str) -> Arc<StorageEngine> {
        let e = Arc::new(StorageEngine::new(name));
        e.create_table(TableDef::new(
            "t",
            Schema::new(vec![Column::not_null("x", DataType::Int)]),
        ))
        .unwrap();
        e
    }

    fn session_for(e: &Arc<StorageEngine>) -> Box<dyn Session> {
        LocalDataSource::new(Arc::clone(e))
            .create_session()
            .unwrap()
    }

    fn row(v: i64) -> Row {
        Row::new(vec![Value::Int(v)])
    }

    type Calls = Arc<Mutex<Vec<&'static str>>>;

    /// The verbs that ride a write.
    const RIDES: [&str; 2] = ["vote_with_next_write", "commit_with_next_write"];

    /// Forwards every call, noting each by name; of the verbs that ride a
    /// write, only those it lists.
    struct Noting(Box<dyn Session>, Calls, &'static [&'static str]);

    impl SessionLayer for Noting {
        fn call(&mut self, verb: Verb<'_>) -> Result<Reply> {
            if RIDES.contains(&verb.name()) && !self.2.contains(&verb.name()) {
                return Err(DhqpError::Unsupported("not forwarded".into()));
            }
            self.1.lock().push(verb.name());
            verb.send(&mut *self.0)
        }
    }

    fn noting(e: &Arc<StorageEngine>, rides: &'static [&'static str]) -> (Box<dyn Session>, Calls) {
        let calls = Calls::default();
        let session = Noting(session_for(e), Arc::clone(&calls), rides);
        (Box::new(session), calls)
    }

    fn noting_session_for(e: &Arc<StorageEngine>) -> (Box<dyn Session>, Calls) {
        noting(e, &RIDES)
    }

    /// The calls that are requests of their own: a join and a ride go with
    /// the request after them.
    fn requests(calls: &Calls) -> usize {
        let calls = calls.lock();
        let riding = |c: &&&str| **c == "join_transaction" || RIDES.contains(*c);
        calls.iter().filter(|c| !riding(c)).count()
    }

    /// `(kind, state, detail)` of every event.
    struct Capture(Mutex<Vec<[String; 3]>>);

    impl dhqp_oledb::EventHook for Capture {
        fn emit(&self, kind: &'static str, attrs: &[(&'static str, String)]) {
            let attr = |name| {
                let found = attrs.iter().find(|(k, _)| *k == name);
                found.map(|(_, v)| v.clone()).unwrap_or_default()
            };
            self.0
                .lock()
                .push([kind.to_string(), attr("state"), attr("detail")]);
        }
    }

    #[test]
    fn two_phase_commit_across_two_engines() {
        let (e1, e2) = (engine("s1"), engine("s2"));
        let dtc = TransactionCoordinator::new();
        let mut txn = dtc.begin();
        txn.enlist("s1", session_for(&e1)).unwrap();
        txn.enlist("s2", session_for(&e2)).unwrap();
        txn.session_mut("s1")
            .unwrap()
            .insert("t", &[row(1)])
            .unwrap();
        txn.session_mut("s2")
            .unwrap()
            .insert("t", &[row(2)])
            .unwrap();
        // Invisible before commit.
        assert_eq!(e1.with_table("t", |t| t.row_count()).unwrap(), 0);
        assert_eq!(txn.participant_names(), ["s1", "s2"]);
        txn.commit().unwrap();
        assert_eq!(e1.with_table("t", |t| t.row_count()).unwrap(), 1);
        assert_eq!(e2.with_table("t", |t| t.row_count()).unwrap(), 1);
        assert_eq!(dtc.stats(), (1, 0));
        assert!(dtc.in_doubt_txns().is_empty());
    }

    #[test]
    fn prepare_failure_aborts_everyone() {
        let (e1, e2) = (engine("s1"), engine("s2"));
        e2.set_fail_prepare(true);
        let dtc = TransactionCoordinator::new();
        let mut txn = dtc.begin();
        let id = txn.id();
        txn.enlist("s1", session_for(&e1)).unwrap();
        txn.enlist("s2", session_for(&e2)).unwrap();
        txn.session_mut("s1")
            .unwrap()
            .insert("t", &[row(1)])
            .unwrap();
        txn.session_mut("s2")
            .unwrap()
            .insert("t", &[row(2)])
            .unwrap();
        let err = txn.commit().unwrap_err();
        assert!(err.to_string().contains("refused prepare"), "{err}");
        // Atomicity: neither side applied.
        assert_eq!(e1.with_table("t", |t| t.row_count()).unwrap(), 0);
        assert_eq!(e2.with_table("t", |t| t.row_count()).unwrap(), 0);
        assert_eq!(dtc.stats(), (0, 1));
        // No dangling participant state.
        assert!(!e1.has_txn(id));
        assert!(!e2.has_txn(id));
    }

    #[test]
    fn a_participant_that_voted_with_its_write_is_not_prepared_again() {
        let (e1, e2) = (engine("s1"), engine("s2"));
        let dtc = TransactionCoordinator::new();
        let mut txn = dtc.begin();
        let (s1, calls1) = noting_session_for(&e1);
        let (s2, calls2) = noting_session_for(&e2);
        txn.enlist("s1", s1).unwrap();
        txn.enlist("s2", s2).unwrap();
        let n = txn
            .write_and_vote("s1", |s| s.insert("t", &[row(1)]))
            .unwrap();
        assert_eq!(n, 1);
        // s2 is driven the old way.
        txn.session_mut("s2")
            .unwrap()
            .insert("t", &[row(2)])
            .unwrap();
        txn.commit().unwrap();
        assert_eq!(
            *calls1.lock(),
            [
                "join_transaction",
                "vote_with_next_write",
                "insert",
                "commit"
            ]
        );
        assert_eq!(
            *calls2.lock(),
            ["join_transaction", "insert", "prepare", "commit"]
        );
        assert_eq!(e1.with_table("t", |t| t.row_count()).unwrap(), 1);
        assert_eq!(e2.with_table("t", |t| t.row_count()).unwrap(), 1);
        assert_eq!(dtc.stats(), (1, 0));
        assert_eq!(dtc.telemetry().votes_ridden, 1);
    }

    #[test]
    fn a_provider_without_the_call_is_prepared_explicitly() {
        let e1 = engine("s1");
        let dtc = TransactionCoordinator::new();
        let mut txn = dtc.begin();
        let calls = Calls::default();
        let plain = Noting(session_for(&e1), Arc::clone(&calls), &[]);
        txn.enlist("s1", Box::new(plain)).unwrap();
        txn.write_and_vote("s1", |s| s.insert("t", &[row(1)]))
            .unwrap();
        txn.commit().unwrap();
        assert_eq!(
            *calls.lock(),
            ["join_transaction", "insert", "prepare", "commit"]
        );
        assert_eq!(dtc.telemetry().votes_ridden, 0);
        assert_eq!(e1.with_table("t", |t| t.row_count()).unwrap(), 1);
    }

    #[test]
    fn the_last_participant_commits_with_its_write() {
        use dhqp_oledb::{install_scope, ActivityScope};

        let hook = Arc::new(Capture(Mutex::new(Vec::new())));
        let _g = install_scope(ActivityScope::new(vec![], Some(hook.clone())));
        let engines = [engine("s1"), engine("s2"), engine("s3")];
        let dtc = TransactionCoordinator::new();
        let mut txn = dtc.begin();
        let mut calls = Vec::new();
        for (i, e) in engines.iter().enumerate() {
            let (session, noted) = noting_session_for(e);
            txn.enlist(format!("s{}", i + 1), session).unwrap();
            calls.push(noted);
        }
        txn.write_and_vote("s1", |s| s.insert("t", &[row(1)]))
            .unwrap();
        txn.write_and_vote("s2", |s| s.insert("t", &[row(2)]))
            .unwrap();
        let n = txn
            .write_and_commit("s3", |s| s.insert("t", &[row(3)]))
            .unwrap();
        assert_eq!(n, 1);
        let voted = [
            "join_transaction",
            "vote_with_next_write",
            "insert",
            "commit",
        ];
        assert_eq!(*calls[0].lock(), voted);
        assert_eq!(*calls[1].lock(), voted);
        assert_eq!(
            *calls[2].lock(),
            ["join_transaction", "commit_with_next_write", "insert"]
        );
        // Three members, five requests: 2N - 1.
        assert_eq!(calls.iter().map(requests).sum::<usize>(), 5);
        for e in &engines {
            assert_eq!(e.with_table("t", |t| t.row_count()).unwrap(), 1);
        }
        assert_eq!(dtc.stats(), (1, 0));
        let t = dtc.telemetry();
        assert_eq!((t.votes_ridden, t.commits_ridden, t.in_doubt), (3, 1, 0));
        let events = hook.0.lock();
        let states: Vec<&str> = events.iter().map(|[_, state, _]| state.as_str()).collect();
        assert_eq!(states, ["preparing", "committing", "committed"]);
        assert_eq!(events[0][2], "s1,s2,s3; voted early: s1,s2");
        assert_eq!(events[1][2], "'s3' committed with its last write");
    }

    #[test]
    fn write_and_commit_falls_back_to_the_vote_and_a_commit_message() {
        // The last participant's provider does not take the call.
        let (e1, e2) = (engine("s1"), engine("s2"));
        let dtc = TransactionCoordinator::new();
        let mut txn = dtc.begin();
        let (s1, calls1) = noting_session_for(&e1);
        let (s2, calls2) = noting(&e2, &RIDES[..1]);
        txn.enlist("s1", s1).unwrap();
        txn.enlist("s2", s2).unwrap();
        txn.write_and_vote("s1", |s| s.insert("t", &[row(1)]))
            .unwrap();
        txn.write_and_commit("s2", |s| s.insert("t", &[row(2)]))
            .unwrap();
        let voted = [
            "join_transaction",
            "vote_with_next_write",
            "insert",
            "commit",
        ];
        assert_eq!(*calls1.lock(), voted);
        assert_eq!(*calls2.lock(), voted);

        // Another participant has not voted yet: everyone is prepared.
        let mut txn = dtc.begin();
        let (s1, calls1) = noting(&e1, &[]);
        let (s2, calls2) = noting_session_for(&e2);
        txn.enlist("s1", s1).unwrap();
        txn.enlist("s2", s2).unwrap();
        txn.write_and_vote("s1", |s| s.insert("t", &[row(3)]))
            .unwrap();
        txn.write_and_commit("s2", |s| s.insert("t", &[row(4)]))
            .unwrap();
        assert_eq!(
            *calls1.lock(),
            ["join_transaction", "insert", "prepare", "commit"]
        );
        assert_eq!(*calls2.lock(), voted);
        assert_eq!(e1.with_table("t", |t| t.row_count()).unwrap(), 2);
        assert_eq!(e2.with_table("t", |t| t.row_count()).unwrap(), 2);
        let t = dtc.telemetry();
        assert_eq!((t.commits, t.votes_ridden, t.commits_ridden), (2, 3, 0));
    }

    #[test]
    fn a_no_from_the_last_participant_aborts_everyone() {
        // Refused at the last participant: it rolled back itself, and is
        // told to abort like the one that voted.
        let (e1, e2) = (engine("s1"), engine("s2"));
        let dtc = TransactionCoordinator::new();
        let mut txn = dtc.begin();
        let id = txn.id();
        let (s1, calls1) = noting_session_for(&e1);
        let (s2, calls2) = noting_session_for(&e2);
        txn.enlist("s1", s1).unwrap();
        txn.enlist("s2", s2).unwrap();
        txn.write_and_vote("s1", |s| s.insert("t", &[row(1)]))
            .unwrap();
        e2.set_fail_prepare(true);
        let err = txn
            .write_and_commit("s2", |s| s.insert("t", &[row(2)]))
            .unwrap_err();
        e2.set_fail_prepare(false);
        assert!(err.to_string().contains("'s2' refused prepare"), "{err}");
        assert_eq!(calls1.lock().last(), Some(&"abort"));
        assert_eq!(
            *calls2.lock(),
            [
                "join_transaction",
                "commit_with_next_write",
                "insert",
                "abort"
            ]
        );
        assert!(!e1.has_txn(id) && !e2.has_txn(id));
        assert_eq!(dtc.stats(), (0, 1));

        // The error came before the write reached the last participant, so
        // it has not rolled back what it buffered earlier: the abort does.
        let mut txn = dtc.begin();
        let id = txn.id();
        txn.enlist("s1", session_for(&e1)).unwrap();
        txn.enlist("s2", session_for(&e2)).unwrap();
        txn.write_and_vote("s1", |s| s.insert("t", &[row(3)]))
            .unwrap();
        txn.session_mut("s2")
            .unwrap()
            .insert("t", &[row(4)])
            .unwrap();
        let err = txn
            .write_and_commit("s2", |_| -> Result<u64> {
                Err(DhqpError::Execute("divide by zero".into()))
            })
            .unwrap_err();
        assert!(err.to_string().contains("divide by zero"), "{err}");
        assert!(!e1.has_txn(id) && !e2.has_txn(id));
        for e in [&e1, &e2] {
            assert_eq!(e.with_table("t", |t| t.row_count()).unwrap(), 0);
        }
        assert_eq!(dtc.stats(), (0, 2));
        assert_eq!(dtc.telemetry().commits_ridden, 0);
    }

    #[test]
    fn no_abort_reaches_a_participant_that_decided_with_its_write() {
        let (e1, e2) = (engine("s1"), engine("s2"));
        let dtc = TransactionCoordinator::new();
        // Committed at the last participant, then the other's commit fails:
        // in doubt there only, and nothing — not the failure, not the drop
        // of the transaction — aborts the one that committed.
        e1.set_fail_commit(true);
        let mut txn = dtc.begin();
        let id = txn.id();
        let (s1, _) = noting_session_for(&e1);
        let (s2, calls2) = noting_session_for(&e2);
        txn.enlist("s1", s1).unwrap();
        txn.enlist("s2", s2).unwrap();
        txn.write_and_vote("s1", |s| s.insert("t", &[row(3)]))
            .unwrap();
        let err = txn
            .write_and_commit("s2", |s| s.insert("t", &[row(4)]))
            .unwrap_err();
        assert!(err.to_string().contains("in doubt"), "{err}");
        assert!(!calls2.lock().contains(&"abort"));
        assert_eq!(e2.with_table("t", |t| t.row_count()).unwrap(), 1);
        assert_eq!(dtc.stats(), (1, 0));
        assert_eq!(dtc.in_doubt_txns(), [id]);
        e1.set_fail_commit(false);
        assert_eq!(dtc.recover().resolved, 1);
        assert_eq!(e1.with_table("t", |t| t.row_count()).unwrap(), 1);
        assert_eq!(dtc.stats(), (1, 0));
        assert_eq!(dtc.telemetry().commits_ridden, 1);
    }

    #[test]
    fn a_refused_ridden_vote_aborts_those_who_already_voted() {
        let (e1, e2) = (engine("s1"), engine("s2"));
        e2.set_fail_prepare(true);
        let dtc = TransactionCoordinator::new();
        let mut txn = dtc.begin();
        let id = txn.id();
        let (s1, calls1) = noting_session_for(&e1);
        txn.enlist("s1", s1).unwrap();
        txn.enlist("s2", session_for(&e2)).unwrap();
        txn.write_and_vote("s1", |s| s.insert("t", &[row(1)]))
            .unwrap();
        assert!(e1.has_txn(id), "s1 holds a prepared transaction");
        let err = txn
            .write_and_vote("s2", |s| s.insert("t", &[row(2)]))
            .unwrap_err();
        assert_eq!(err.kind(), "transaction");
        assert!(err.to_string().contains("'s2' refused prepare"), "{err}");
        // Everyone was told at once; the transaction is over.
        assert_eq!(calls1.lock().last(), Some(&"abort"));
        assert!(!e1.has_txn(id) && !e2.has_txn(id));
        assert!(txn.commit().is_err());
        assert_eq!(e1.with_table("t", |t| t.row_count()).unwrap(), 0);
        assert_eq!(e2.with_table("t", |t| t.row_count()).unwrap(), 0);
        assert_eq!(dtc.stats(), (0, 1), "aborted once, not again on drop");
        assert!(dtc.in_doubt_txns().is_empty());
    }

    #[test]
    fn a_failed_write_after_a_ridden_vote_aborts_the_prepared_participant() {
        let (e1, e2) = (engine("s1"), engine("s2"));
        let dtc = TransactionCoordinator::new();
        let id = {
            let mut txn = dtc.begin();
            txn.enlist("s1", session_for(&e1)).unwrap();
            txn.enlist("s2", session_for(&e2)).unwrap();
            txn.write_and_vote("s1", |s| s.insert("t", &[row(1)]))
                .unwrap();
            // Not the last write, so no vote rides it: the error is the
            // write's own and dropping the transaction aborts.
            let err = txn
                .session_mut("s2")
                .unwrap()
                .insert("ghost", &[row(2)])
                .unwrap_err();
            assert_eq!(err.kind(), "catalog");
            txn.id()
        };
        assert!(!e1.has_txn(id) && !e2.has_txn(id));
        assert_eq!(e1.with_table("t", |t| t.row_count()).unwrap(), 0);
        assert_eq!(dtc.stats(), (0, 1));
    }

    #[test]
    fn commit_failure_after_ridden_votes_is_in_doubt_until_recovered() {
        let (e1, e2) = (engine("s1"), engine("s2"));
        e2.set_fail_commit(true);
        let dtc = TransactionCoordinator::new();
        let mut txn = dtc.begin();
        let id = txn.id();
        txn.enlist("s1", session_for(&e1)).unwrap();
        txn.enlist("s2", session_for(&e2)).unwrap();
        txn.write_and_vote("s1", |s| s.insert("t", &[row(1)]))
            .unwrap();
        txn.write_and_vote("s2", |s| s.insert("t", &[row(2)]))
            .unwrap();
        let err = txn.commit().unwrap_err();
        assert!(err.to_string().contains("in doubt"), "{err}");
        assert_eq!(dtc.stats(), (1, 0));
        assert_eq!(e1.with_table("t", |t| t.row_count()).unwrap(), 1);
        assert!(e2.has_txn(id));
        assert_eq!(dtc.in_doubt_txns(), vec![id]);
        e2.set_fail_commit(false);
        assert_eq!(dtc.recover().resolved, 1);
        assert_eq!(e2.with_table("t", |t| t.row_count()).unwrap(), 1);
        assert!(!e2.has_txn(id));
        assert_eq!(dtc.telemetry().votes_ridden, 2);
    }

    #[test]
    fn explicit_abort_discards_work() {
        let e1 = engine("s1");
        let dtc = TransactionCoordinator::new();
        let mut txn = dtc.begin();
        txn.enlist("s1", session_for(&e1)).unwrap();
        txn.session_mut("s1")
            .unwrap()
            .insert("t", &[row(1)])
            .unwrap();
        txn.abort().unwrap();
        assert_eq!(e1.with_table("t", |t| t.row_count()).unwrap(), 0);
        assert_eq!(dtc.stats(), (0, 1));
    }

    #[test]
    fn dropped_transaction_presumes_abort() {
        let e1 = engine("s1");
        let dtc = TransactionCoordinator::new();
        {
            let mut txn = dtc.begin();
            txn.enlist("s1", session_for(&e1)).unwrap();
            txn.session_mut("s1")
                .unwrap()
                .insert("t", &[row(1)])
                .unwrap();
            // dropped without commit
        }
        assert_eq!(e1.with_table("t", |t| t.row_count()).unwrap(), 0);
        assert_eq!(dtc.stats(), (0, 1));
    }

    #[test]
    fn commit_phase_failure_leaves_transaction_in_doubt() {
        let (e1, e2) = (engine("s1"), engine("s2"));
        e2.set_fail_commit(true);
        let dtc = TransactionCoordinator::new();
        let mut txn = dtc.begin();
        txn.enlist("s1", session_for(&e1)).unwrap();
        txn.enlist("s2", session_for(&e2)).unwrap();
        txn.session_mut("s1")
            .unwrap()
            .insert("t", &[row(1)])
            .unwrap();
        txn.session_mut("s2")
            .unwrap()
            .insert("t", &[row(2)])
            .unwrap();
        let id = txn.id();
        let err = txn.commit().unwrap_err();
        assert!(err.to_string().contains("in doubt"), "{err}");
        // The decision stands: it was Committed, and the healthy
        // participant applied its writes.
        assert_eq!(dtc.stats(), (1, 0));
        assert_eq!(e1.with_table("t", |t| t.row_count()).unwrap(), 1);
        // The failed participant still buffers its state for recovery.
        assert!(e2.has_txn(id));
        assert_eq!(dtc.in_doubt_txns(), vec![id]);
        assert_eq!(dtc.telemetry().in_doubt, 1);
    }

    #[test]
    fn recover_redelivers_commit_from_the_log() {
        let (e1, e2) = (engine("s1"), engine("s2"));
        e2.set_fail_commit(true);
        let dtc = TransactionCoordinator::new();
        let mut txn = dtc.begin();
        txn.enlist("s1", session_for(&e1)).unwrap();
        txn.enlist("s2", session_for(&e2)).unwrap();
        txn.session_mut("s2")
            .unwrap()
            .insert("t", &[row(2)])
            .unwrap();
        txn.commit().unwrap_err();

        // While the participant is still down, recovery makes no progress.
        let stuck = dtc.recover();
        assert_eq!(
            stuck,
            RecoveryReport {
                resolved: 0,
                still_in_doubt: 1
            }
        );

        // Participant heals; recovery replays the Committed outcome.
        e2.set_fail_commit(false);
        let healed = dtc.recover();
        assert_eq!(
            healed,
            RecoveryReport {
                resolved: 1,
                still_in_doubt: 0
            }
        );
        assert_eq!(e2.with_table("t", |t| t.row_count()).unwrap(), 1);
        assert!(dtc.in_doubt_txns().is_empty());
        let stats = dtc.telemetry();
        assert_eq!((stats.in_doubt, stats.recovered), (0, 1));
        // The commit/abort counters are unchanged by recovery.
        assert_eq!(dtc.stats(), (1, 0));
    }

    #[test]
    fn recover_presumes_abort_without_a_commit_record() {
        // Forge an in-doubt entry marked Aborted (no commit was decided):
        // recovery must roll it back.
        let e1 = engine("s1");
        let dtc = TransactionCoordinator::new();
        let mut session = session_for(&e1);
        session.join_transaction(99).unwrap();
        session.insert("t", &[row(1)]).unwrap();
        assert!(e1.has_txn(99));
        dtc.mark_in_doubt(99, Outcome::Aborted, vec![("s1".into(), session)]);
        let report = dtc.recover();
        assert_eq!(
            report,
            RecoveryReport {
                resolved: 1,
                still_in_doubt: 0
            }
        );
        assert!(!e1.has_txn(99));
        assert_eq!(e1.with_table("t", |t| t.row_count()).unwrap(), 0);
    }

    #[test]
    fn commit_reports_dtc_waits_and_2pc_events() {
        use dhqp_oledb::{install_scope, ActivityScope, WaitStats};

        let waits = Arc::new(WaitStats::default());
        let hook = Arc::new(Capture(Mutex::new(Vec::new())));
        let _g = install_scope(ActivityScope::new(
            vec![Arc::clone(&waits)],
            Some(hook.clone()),
        ));

        let (e1, e2) = (engine("s1"), engine("s2"));
        let dtc = TransactionCoordinator::new();
        let mut txn = dtc.begin();
        txn.enlist("s1", session_for(&e1)).unwrap();
        txn.enlist("s2", session_for(&e2)).unwrap();
        txn.session_mut("s1")
            .unwrap()
            .insert("t", &[row(1)])
            .unwrap();
        txn.commit().unwrap();

        // Both phases were accounted: one prepare wait, one commit wait.
        let snap = waits.snapshot();
        assert_eq!(snap.get(WaitClass::DtcPrepare).count, 1);
        assert_eq!(snap.get(WaitClass::DtcCommit).count, 1);
        // The 2PC state machine narrated its transitions in order.
        let states = |hook: &Capture| -> Vec<String> {
            let events = std::mem::take(&mut *hook.0.lock());
            events
                .into_iter()
                .map(|[kind, state, _]| {
                    assert_eq!(kind, "2pc");
                    state
                })
                .collect()
        };
        assert_eq!(hook.0.lock()[0][2], "s1,s2");
        assert_eq!(states(&hook), vec!["preparing", "committing", "committed"]);

        // Votes that rode a write: the same transitions, `preparing` says
        // who is not asked, and with nobody left to ask the coordinator
        // never waits in phase one.
        let mut txn = dtc.begin();
        txn.enlist("s1", session_for(&e1)).unwrap();
        txn.enlist("s2", session_for(&e2)).unwrap();
        txn.write_and_vote("s1", |s| s.insert("t", &[row(2)]))
            .unwrap();
        txn.write_and_vote("s2", |s| s.insert("t", &[row(3)]))
            .unwrap();
        txn.commit().unwrap();
        let snap = waits.snapshot();
        assert_eq!(snap.get(WaitClass::DtcPrepare).count, 1);
        assert_eq!(snap.get(WaitClass::DtcCommit).count, 2);
        assert_eq!(hook.0.lock()[0][2], "s1,s2; voted early: s1,s2");
        assert_eq!(states(&hook), vec!["preparing", "committing", "committed"]);
    }

    #[test]
    fn transaction_ids_are_unique() {
        let dtc = TransactionCoordinator::new();
        let a = dtc.begin();
        let b = dtc.begin();
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn unknown_participant_lookup_fails() {
        let dtc = TransactionCoordinator::new();
        let mut txn = dtc.begin();
        assert!(txn.session_mut("ghost").is_err());
        txn.abort().unwrap();
    }
}
