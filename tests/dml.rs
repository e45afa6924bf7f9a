//! UPDATE/DELETE row location (DESIGN.md "DML row location"): the rows a
//! write touches are found by one index seek over the hull of the
//! predicate's key domain, through the executor's access operator on the
//! server's pooled session, and the full table is read only when no seek
//! applies.
//!
//! A member whose provider takes a whole UPDATE/DELETE as SQL text is not
//! located at all: the statement is shipped and runs inside the member's
//! transaction (DESIGN.md §22 "Pushed writes"). Which way a write goes is
//! decided by the provider's capabilities, so the spy can also lower the
//! SQL level it reports.
//!
//! The differential suite runs one statement list against eight set-ups —
//! a 4-member networked federation of engines that take the pushed
//! statement and vote with it, the same federation reporting ODBC-core SQL
//! (rows located by index seek, votes riding the bookmark writes), one with
//! pushing and locating members side by side, one whose providers offer
//! neither index access nor that vote (the scan path and the explicit
//! `prepare`, the reference for the wire), the four members behind two
//! linked servers and behind one (one participant, in a transaction only
//! when a statement sends it more than one write), the four members as
//! local tables under a local view, and a single engine holding every row
//! in one plain table (the reference for the answer) — and requires
//! identical `rows_affected` and identical table contents after every
//! statement. The wire tests then pin what a statement ships and in how many
//! requests, on links that carry no fault plan (DESIGN.md "2PC messages ride
//! the data requests").

use dhqp::{Engine, EngineDataSource, MetricsSnapshot, ParallelConfig};
use dhqp::{EventConfig, EventKind};
use dhqp_netsim::{
    FaultConfig, NetworkConfig, NetworkLink, NetworkedDataSource, TXN_VERB_WIRE_BYTES,
};
use dhqp_oledb::{
    DataSource, ProviderCapabilities, Reply, Session, SessionLayer, SourceLayer, SqlSupport,
    TrafficSnapshot, Verb,
};
use dhqp_storage::{Batch, CheckConstraint, StorageEngine, TableDef};
use dhqp_types::{Column, DataType, DhqpError, Interval, IntervalSet, Result, Row, Schema, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const MEMBERS: i64 = 4;
const PER_MEMBER: i64 = 50;

// ---------------------------------------------------------------------------
// A provider wrapper that records every session call and can withhold
// IRowsetIndex.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum IndexAccess {
    /// Whatever the wrapped provider offers.
    Native,
    /// `caps.index_support = false`: the DHQP must not even try.
    Unadvertised,
    /// Advertised, listed in the metadata, but `open_index` answers
    /// `Unsupported`.
    Broken,
}

/// What the provider behind a spy says it takes as SQL text.
#[derive(Clone, Copy, PartialEq)]
enum SqlLevel {
    /// The wrapped engine's own, SQL-92: a whole UPDATE/DELETE is pushed.
    Native,
    /// `caps.sql_support = OdbcCore`: SELECTs are still pushed, the rows a
    /// write touches are located from the head.
    OdbcCore,
}

/// Which of the calls that ride a write a spy forwards; without them the
/// provider behind it votes only when asked to `prepare`, and commits only
/// when told.
#[derive(Clone, Copy, PartialEq)]
enum Rides {
    Neither,
    /// `vote_with_next_write`.
    Vote,
    /// `vote_with_next_write` and `commit_with_next_write`.
    Both,
}

/// `(when, session id, method)` in call order, across all sessions of a
/// source; `when` orders calls across sources too.
type CallLog = Arc<Mutex<Vec<(u64, u64, &'static str)>>>;

static CLOCK: AtomicU64 = AtomicU64::new(0);

struct Spy {
    inner: Arc<dyn DataSource>,
    index: IndexAccess,
    rides: Rides,
    sql: SqlLevel,
    log: CallLog,
    sessions: AtomicU64,
}

impl Spy {
    fn new(
        inner: Arc<dyn DataSource>,
        index: IndexAccess,
        rides: Rides,
        sql: SqlLevel,
    ) -> (Arc<Self>, CallLog) {
        let log = CallLog::default();
        let spy = Arc::new(Spy {
            inner,
            index,
            rides,
            sql,
            log: Arc::clone(&log),
            sessions: AtomicU64::new(0),
        });
        (spy, log)
    }
}

impl SourceLayer for Spy {
    fn inner(&self) -> &dyn DataSource {
        &*self.inner
    }
    fn advertise(&self, mut caps: ProviderCapabilities) -> ProviderCapabilities {
        if self.index == IndexAccess::Unadvertised {
            caps.index_support = false;
        }
        if self.sql == SqlLevel::OdbcCore {
            caps.sql_support = SqlSupport::OdbcCore;
        }
        caps
    }
    fn session(&self) -> Result<Box<dyn Session>> {
        Ok(Box::new(SpySession {
            inner: self.inner.create_session()?,
            id: self.sessions.fetch_add(1, Ordering::Relaxed),
            index: self.index,
            rides: self.rides,
            log: Arc::clone(&self.log),
        }))
    }
}

struct SpySession {
    inner: Box<dyn Session>,
    id: u64,
    index: IndexAccess,
    rides: Rides,
    log: CallLog,
}

impl SessionLayer for SpySession {
    fn call(&mut self, verb: Verb<'_>) -> Result<Reply> {
        match verb {
            Verb::FetchByBookmarks(..) | Verb::Histogram(..) | Verb::CheckSchema(..) => {}
            Verb::VoteWithNextWrite(_) if self.rides == Rides::Neither => {
                return Err(DhqpError::Unsupported("votes on prepare only".into()));
            }
            Verb::CommitWithNextWrite(_) if self.rides != Rides::Both => {
                return Err(DhqpError::Unsupported("commits when told only".into()));
            }
            Verb::VoteWithNextWrite(_) | Verb::CommitWithNextWrite(_) => {}
            _ => {
                let when = CLOCK.fetch_add(1, Ordering::SeqCst);
                self.log.lock().unwrap().push((when, self.id, verb.name()));
            }
        }
        if matches!(verb, Verb::OpenIndex(..)) && self.index != IndexAccess::Native {
            return Err(DhqpError::Unsupported("no IRowsetIndex here".into()));
        }
        verb.send(&mut *self.inner)
    }
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// `(id, balance, owner, score)`: unique index on `id`, non-unique index on
/// `owner` (NULL for every 13th id), nothing on `balance` and `score`.
fn create_accounts(storage: &StorageEngine, table: &str, lo: i64, hi: i64, check: bool) {
    let mut def = TableDef::new(
        table,
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::not_null("balance", DataType::Int),
            Column::new("owner", DataType::Str),
            Column::new("score", DataType::Float),
        ]),
    )
    .with_index(&format!("pk_{table}"), &["id"], true)
    .with_index(&format!("ix_{table}_owner"), &["owner"], false);
    if check {
        def = def.with_check(CheckConstraint {
            name: format!("ck_{table}"),
            column: "id".into(),
            domain: member_domain(lo, hi),
        });
    }
    storage.create_table(def).unwrap();
    let rows: Vec<Row> = (lo..=hi)
        .map(|id| {
            let owner = if id % 13 == 0 {
                Value::Null
            } else {
                Value::Str(format!("owner_{}", id % 10))
            };
            Row::new(vec![
                Value::Int(id),
                Value::Int(100),
                owner,
                Value::Float((id % 8) as f64 / 8.0),
            ])
        })
        .collect();
    storage.insert_rows(table, &rows).unwrap();
}

fn member_domain(lo: i64, hi: i64) -> IntervalSet {
    IntervalSet::single(Interval::between(Value::Int(lo), Value::Int(hi)))
}

/// A head engine with `acct_all` over `acct_0..3`, ids `[50·i, 50·i + 49]`,
/// member `i` on linked server `m{i % servers}`.
struct Federation {
    head: Engine,
    /// The engine behind each linked server.
    servers: Vec<Engine>,
    links: Vec<NetworkLink>,
    logs: Vec<CallLog>,
}

/// Four members on four servers whose rows are located from the head,
/// behind spies that forward neither call that rides a write. `reliable` links
/// carry no fault plan whatever `DHQP_FAULT_SEED` says — for the tests that
/// count requests and rows.
fn federation(index: IndexAccess, reliable: bool) -> Federation {
    federation_on(MEMBERS, index, reliable, false)
}

/// Members on `servers` servers whose rows are located from the head.
fn federation_on(servers: i64, index: IndexAccess, reliable: bool, votes: bool) -> Federation {
    let rides = [if votes { Rides::Both } else { Rides::Neither }];
    federation_with(servers, index, reliable, &rides, &[SqlLevel::OdbcCore])
}

/// Members on `servers` servers that take a pushed UPDATE/DELETE, seek and
/// vote: engines as they are.
fn pushing(servers: i64, reliable: bool) -> Federation {
    let sql = [SqlLevel::Native];
    federation_with(servers, IndexAccess::Native, reliable, &[Rides::Both], &sql)
}

/// Create member `i`'s table `acct_{i}` in `storage`; returns its entry in
/// the view's member list, on `server`.
fn create_member(
    storage: &StorageEngine,
    i: i64,
    server: Option<String>,
) -> (Option<String>, String, IntervalSet) {
    let (lo, hi) = (i * PER_MEMBER, (i + 1) * PER_MEMBER - 1);
    let table = format!("acct_{i}");
    create_accounts(storage, &table, lo, hi, true);
    (server, table, member_domain(lo, hi))
}

/// Server `i` reports the SQL level `sql[i % sql.len()]` and forwards
/// `rides[i % rides.len()]`.
fn federation_with(
    servers: i64,
    index: IndexAccess,
    reliable: bool,
    rides: &[Rides],
    sql: &[SqlLevel],
) -> Federation {
    let head = Engine::new("head");
    let (mut links, mut logs) = (Vec::new(), Vec::new());
    let engines: Vec<Engine> = (0..servers)
        .map(|i| Engine::new(format!("member{i}")))
        .collect();
    let view_members: Vec<_> = (0..MEMBERS)
        .map(|i| {
            let storage = engines[(i % servers) as usize].storage();
            create_member(storage, i, Some(format!("m{}", i % servers)))
        })
        .collect();
    for (i, member) in engines.iter().cloned().enumerate() {
        let source = Arc::new(EngineDataSource::new(member));
        let (spy, log) = Spy::new(source, index, rides[i % rides.len()], sql[i % sql.len()]);
        let link = NetworkLink::new(format!("m{i}"), NetworkConfig::lan());
        let source = if reliable {
            NetworkedDataSource::reliable(spy, link.clone())
        } else {
            NetworkedDataSource::new(spy, link.clone())
        };
        head.add_linked_server(&format!("m{i}"), Arc::new(source))
            .unwrap();
        links.push(link);
        logs.push(log);
    }
    head.define_partitioned_view("acct_all", "id", view_members)
        .unwrap();
    Federation {
        head,
        servers: engines,
        links,
        logs,
    }
}

/// The four members as local tables of one engine, under a local view.
fn local_view() -> Engine {
    let engine = Engine::new("solo-view");
    let view_members = (0..MEMBERS)
        .map(|i| create_member(engine.storage(), i, None))
        .collect();
    engine
        .define_partitioned_view("acct_all", "id", view_members)
        .unwrap();
    engine
}

/// Every row of the four members in one plain local table named like the
/// view, so the same statement text runs against it.
fn unfederated() -> Engine {
    let engine = Engine::new("solo");
    create_accounts(
        engine.storage(),
        "acct_all",
        0,
        MEMBERS * PER_MEMBER - 1,
        false,
    );
    engine
}

impl Federation {
    fn traffic(&self) -> Vec<TrafficSnapshot> {
        self.links.iter().map(NetworkLink::snapshot).collect()
    }

    /// Connect requests each link's session pool has sent so far.
    fn connects(&self) -> Vec<u64> {
        let stats = self
            .head
            .query("SELECT name, connects FROM sys.dm_link_stats ORDER BY name")
            .unwrap();
        assert_eq!(stats.len(), self.links.len());
        stats
            .rows
            .iter()
            .map(|r| match r.get(1) {
                Value::Int(n) => *n as u64,
                other => panic!("connects is an integer, got {other:?}"),
            })
            .collect()
    }

    /// Run `sql`, returning `rows_affected` and each link's traffic delta.
    fn run(&self, sql: &str, params: &[(&str, Value)]) -> (u64, Vec<TrafficSnapshot>) {
        let before = self.traffic();
        let n = affected(&self.head, sql, params).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let delta = self
            .traffic()
            .iter()
            .zip(&before)
            .map(|(a, b)| a.since(b))
            .collect();
        (n, delta)
    }

    /// [`Federation::run`], plus each link's requests net of the connects
    /// its pool made meanwhile. Whether a statement finds a session idle
    /// depends on what ran before it (the fixture's statistics fetch leaves
    /// one), so pins on a statement's own round trips count these.
    fn run_net_of_connects(
        &self,
        sql: &str,
        params: &[(&str, Value)],
    ) -> (u64, Vec<TrafficSnapshot>, Vec<u64>) {
        let connects = self.connects();
        let (n, delta) = self.run(sql, params);
        let net = requests(&delta)
            .iter()
            .zip(self.connects().iter().zip(&connects))
            .map(|(requests, (after, before))| requests - (after - before))
            .collect();
        (n, delta, net)
    }

    /// Forget the calls logged so far (the logs start empty: defining the
    /// view fetches metadata only).
    fn clear_logs(&self) {
        for log in &self.logs {
            log.lock().unwrap().clear();
        }
    }

    /// The session calls `member` saw since the last `clear_logs`, which
    /// must all have come through one session.
    fn calls(&self, member: usize) -> Vec<&'static str> {
        let log = self.logs[member].lock().unwrap();
        assert!(
            log.iter().all(|(_, session, _)| *session == log[0].1),
            "more than one session: {log:?}"
        );
        log.iter().map(|(_, _, call)| *call).collect()
    }

    /// When each logged `call` happened, over all members.
    fn times_of(&self, calls: &[&str]) -> Vec<u64> {
        let logs = self.logs.iter().map(|log| log.lock().unwrap());
        logs.flat_map(|log| {
            let hits = log.iter().filter(|(_, _, call)| calls.contains(call));
            hits.map(|(when, _, _)| *when).collect::<Vec<_>>()
        })
        .collect()
    }
}

fn affected(
    engine: &Engine,
    sql: &str,
    params: &[(&str, Value)],
) -> std::result::Result<u64, String> {
    let params: HashMap<String, Value> = params
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    engine
        .execute_with_params(sql, params)
        .map(|r| r.rows_affected.expect("DML reports rows_affected"))
        .map_err(|e| e.kind().to_string())
}

/// `acct_all` as a sorted multiset of rendered rows.
fn contents(engine: &Engine) -> Vec<String> {
    let r = engine
        .query("SELECT id, balance, owner, score FROM acct_all")
        .unwrap();
    let mut rows: Vec<String> = r.rows.iter().map(|r| format!("{:?}", r.values)).collect();
    rows.sort();
    rows
}

/// What the DML counters moved by between two snapshots:
/// `(seeks, scans, rows located)`.
fn dml_reads(before: &MetricsSnapshot, after: &MetricsSnapshot) -> (u64, u64, u64) {
    (
        after.dml_seeks - before.dml_seeks,
        after.dml_scans - before.dml_scans,
        after.dml_rows_located - before.dml_rows_located,
    )
}

// ---------------------------------------------------------------------------
// Differential suite
// ---------------------------------------------------------------------------

type Stmt = (&'static str, Vec<(&'static str, Value)>);

fn statements() -> Vec<Stmt> {
    let int = Value::Int;
    let lit = |sql: &'static str| (sql, Vec::new());
    vec![
        // Key equality, IN lists on one and on several members.
        lit("UPDATE acct_all SET balance = balance + 5 WHERE id = 17"),
        lit("UPDATE acct_all SET balance = balance - 3 WHERE id IN (3, 4, 40)"),
        lit("UPDATE acct_all SET balance = balance + 7 WHERE id IN (10, 60, 110, 160)"),
        lit("UPDATE acct_all SET balance = balance + 1 WHERE id = 5 OR id = 170"),
        // Ranges: closed across a member boundary, open on either side,
        // with a hole.
        lit("UPDATE acct_all SET balance = balance + 2 WHERE id BETWEEN 45 AND 55"),
        lit("UPDATE acct_all SET balance = balance * 2 WHERE id > 190"),
        lit("UPDATE acct_all SET balance = balance - 1 WHERE id <= 2"),
        lit("UPDATE acct_all SET balance = 9 WHERE id <> 50 AND id BETWEEN 48 AND 52"),
        lit("DELETE FROM acct_all WHERE id >= 195"),
        // Predicates the key index cannot serve, alone and beside one it
        // can.
        lit("UPDATE acct_all SET balance = 0 WHERE score > 0.8"),
        lit("UPDATE acct_all SET score = score + 0.5 WHERE balance = 0 AND id < 30"),
        lit("UPDATE acct_all SET balance = 1 WHERE id = 5 OR balance = 9"),
        lit("DELETE FROM acct_all WHERE id IN (20, 21, 22) AND score = 0.625"),
        // The secondary index, NULL keys included.
        lit("UPDATE acct_all SET balance = balance + 11 WHERE owner = 'owner_3'"),
        lit("UPDATE acct_all SET owner = 'late' WHERE owner > 'owner_8'"),
        lit("DELETE FROM acct_all WHERE owner = 'owner_5' AND id >= 100"),
        lit("UPDATE acct_all SET owner = 'nobody' WHERE owner IS NULL AND id < 60"),
        // Never-true and empty matches.
        lit("UPDATE acct_all SET balance = -1 WHERE id = NULL"),
        lit("UPDATE acct_all SET balance = -1 WHERE id > 10 AND id < 5"),
        lit("DELETE FROM acct_all WHERE id = 100000"),
        lit("DELETE FROM acct_all WHERE id = 17 AND balance = -1"),
        // Literals that are not the key's type: sought uncast, same answer.
        lit("UPDATE acct_all SET balance = balance + 13 WHERE id = 17.0"),
        lit("UPDATE acct_all SET balance = balance + 13 WHERE id = 17.5"),
        lit("UPDATE acct_all SET balance = balance + 1 WHERE id < 2.5"),
        lit("UPDATE acct_all SET balance = balance + 1 WHERE id = '17'"),
        lit("UPDATE acct_all SET score = 0.0 WHERE score = 0"),
        // Parameters: folded before pruning and seeking.
        (
            "UPDATE acct_all SET balance = balance + 4 WHERE id = @id",
            vec![("id", int(142))],
        ),
        (
            "UPDATE acct_all SET balance = @b WHERE id BETWEEN @lo AND @hi",
            vec![("b", int(55)), ("lo", int(98)), ("hi", int(101))],
        ),
        (
            "DELETE FROM acct_all WHERE id IN (@a, @b)",
            vec![("a", int(33)), ("b", int(133))],
        ),
        (
            "UPDATE acct_all SET balance = balance + 1 WHERE id = @id",
            vec![("id", Value::Float(44.0))],
        ),
        (
            "UPDATE acct_all SET balance = balance + 1 WHERE id = @id",
            vec![("id", Value::Null)],
        ),
        // Partition-key moves: to other members, within one member.
        lit("DELETE FROM acct_all WHERE id IN (107, 158)"),
        lit("UPDATE acct_all SET id = id + 100 WHERE id IN (7, 58)"),
        lit("UPDATE acct_all SET id = 199 WHERE id = 150"),
        (
            "UPDATE acct_all SET id = @to, balance = 1 WHERE id = @from",
            vec![("to", int(33)), ("from", int(183))],
        ),
        // A row moved into a range its own statement still selects (id 58
        // left for 158 above) is not found and moved a second time.
        lit("UPDATE acct_all SET id = id + 50, balance = balance + 1 WHERE id IN (8, 58)"),
        // What a pushed statement has to carry across: a function only the
        // head knows (stays located), float and quoted-string literals, a
        // date folded from a parameter, a negative operand.
        lit("UPDATE acct_all SET balance = DATE(balance, 3) WHERE id IN (30, 80)"),
        lit("UPDATE acct_all SET score = score * 1.5 + 0.125 WHERE score < 0.3 AND id > 20"),
        lit("UPDATE acct_all SET owner = 'O''Brien' WHERE owner = 'late' OR owner LIKE '%_9'"),
        lit("UPDATE acct_all SET balance = balance - -2 WHERE owner = 'O''Brien' AND id <> 69"),
        (
            "UPDATE acct_all SET owner = @day WHERE id IN (31, 131) AND ABS(balance) >= @least",
            vec![("day", Value::Date(10_561)), ("least", int(0))],
        ),
        lit("UPDATE acct_all SET owner = UPPER(owner), score = NULL WHERE LEN(owner) = 4"),
        // DELETE + re-INSERT, then the whole table.
        lit("DELETE FROM acct_all WHERE id IN (25, 125)"),
        lit("INSERT INTO acct_all (id, balance, owner, score) VALUES \
             (25, 100, 'back', 0.25), (125, 100, 'back', 0.75)"),
        lit("UPDATE acct_all SET balance = balance + 1"),
        lit("DELETE FROM acct_all WHERE score >= 0.5"),
    ]
}

#[test]
fn seek_scan_and_unfederated_agree_on_every_statement() {
    let pushed = pushing(MEMBERS, false);
    let mixed_levels = [SqlLevel::Native, SqlLevel::OdbcCore];
    let both = [Rides::Both];
    let mixed = federation_with(MEMBERS, IndexAccess::Native, false, &both, &mixed_levels);
    let seek = federation_on(MEMBERS, IndexAccess::Native, false, true);
    let scan = federation(IndexAccess::Unadvertised, false);
    // Two tables per participant: the vote rides the second statement.
    let two_servers = pushing(2, false);
    let one_server = pushing(1, false);
    let solo_view = local_view();
    let solo = unfederated();
    assert_eq!(contents(&seek.head), contents(&solo));
    let federated = [
        ("pushed", &pushed.head),
        ("pushed and located members", &mixed.head),
        ("seek path", &seek.head),
        ("scan path", &scan.head),
        ("two servers", &two_servers.head),
        ("one server", &one_server.head),
        ("local view", &solo_view),
    ];
    for (sql, params) in statements() {
        let want = affected(&solo, sql, &params);
        let rows = contents(&solo);
        for (name, head) in federated {
            assert_eq!(affected(head, sql, &params), want, "{name}: {sql}");
            assert_eq!(contents(head), rows, "{name} after: {sql}");
        }
    }
    // Which path ran is read off the counters, not forced by a switch.
    let metrics = |engine: &Engine| engine.metrics();
    let (pushed_m, mixed_m) = (metrics(&pushed.head), metrics(&mixed.head));
    let (seek_m, scan_m, solo_m) = (metrics(&seek.head), metrics(&scan.head), metrics(&solo));
    assert!(seek_m.dml_seeks > 0 && solo_m.dml_seeks > 0);
    assert!(seek_m.dml_scans > 0, "non-key predicates still scan");
    assert_eq!(scan_m.dml_seeks, 0, "no seek without index_support");
    assert!(seek_m.dml_rows_located < scan_m.dml_rows_located);
    // Below SQL-92, and at home, nothing is pushed; an engine is sent every
    // write but the key moves and the function it does not know.
    let none = [seek_m.dml_pushed, scan_m.dml_pushed, solo_m.dml_pushed];
    assert_eq!(none, [0, 0, 0]);
    assert_eq!(metrics(&solo_view).dml_pushed, 0);
    assert!(pushed_m.dml_pushed > mixed_m.dml_pushed && mixed_m.dml_pushed > 0);
    assert!(pushed_m.dml_seeks > 0 && pushed_m.dml_seeks < mixed_m.dml_seeks);
    assert_eq!(pushed_m.dml_scans, 0, "a key move is sought by its key");
    // A statement is a transaction when it sends more than one write
    // request: the located paths agree whether the votes rode or not, and a
    // pushed statement is sent to every member its predicate may select,
    // rows or none, so it is a transaction at least as often.
    assert!(seek_m.dtc_votes_ridden > 0 && scan_m.dtc_votes_ridden == 0);
    assert!(pushed_m.dtc_votes_ridden > 0 && mixed_m.dtc_votes_ridden > 0);
    assert_eq!(seek_m.dtc_commits, scan_m.dtc_commits);
    assert!(scan_m.dtc_commits <= mixed_m.dtc_commits);
    assert!(mixed_m.dtc_commits <= pushed_m.dtc_commits);
    for m in [&pushed_m, &mixed_m, &seek_m, &scan_m] {
        assert_eq!(m.dtc_aborts, 0);
    }
    // Counting requests, not servers, the decision does not depend on how
    // the members are spread: one server, two and four commit alike.
    for servers in [&two_servers.head, &one_server.head] {
        let m = metrics(servers);
        assert_eq!(
            (m.dtc_commits, m.dtc_aborts, m.dml_pushed),
            (pushed_m.dtc_commits, 0, pushed_m.dml_pushed)
        );
    }
}

/// The Halloween problem: a partition-key UPDATE whose rows land, still
/// selected, in a member the statement has yet to visit. Locating every
/// row before the first write keeps the moved rows from being found — and
/// updated — again, whatever the writes do after: here two members share a
/// participant, which takes the statement's writes in one transaction.
#[test]
fn rows_a_statement_moved_are_not_located_again() {
    // An engine would take the statement whole, were it not moving the key.
    let one_server = pushing(1, true);
    let mut calls = Vec::new();
    for (name, engine) in [
        ("local view", &local_view()),
        ("one server", &one_server.head),
    ] {
        affected(
            engine,
            "DELETE FROM acct_all WHERE id <> 60 AND id <> 120",
            &[],
        )
        .unwrap();
        one_server.clear_logs();
        let sql = "UPDATE acct_all SET id = id + 50, balance = balance + 1 \
                   WHERE id >= 0 AND id < 150";
        assert_eq!(affected(engine, sql, &[]), Ok(2), "{name}");
        calls = one_server.calls(0);
        let left = engine
            .query("SELECT id, balance FROM acct_all ORDER BY id")
            .unwrap();
        let left: Vec<_> = left.rows.iter().map(|r| r.values.clone()).collect();
        let int = Value::Int;
        assert_eq!(left, [[int(110), int(101)], [int(170), int(101)]], "{name}");
    }
    // One participant sent several writes: a transaction, as for the
    // pushed DELETE before it. Three members read, then the participant
    // joins and takes one request per table and kind of write, the last
    // carrying the commit.
    assert_eq!(one_server.head.dtc().stats(), (2, 0));
    let (reads, writes) = calls.split_at(3);
    assert_eq!(reads, ["open_index"; 3]);
    assert_eq!(
        writes,
        [
            "join_transaction",
            "delete_by_bookmarks",
            "delete_by_bookmarks",
            "insert",
            "insert"
        ]
    );
}

// ---------------------------------------------------------------------------
// Wire and path assertions (links without a fault plan)
// ---------------------------------------------------------------------------

/// Rows and requests per link of one statement on the seek federation and
/// on the scan federation, and the seek's requests net of connects.
fn both_paths(
    sql: &str,
    params: &[(&str, Value)],
) -> (Vec<TrafficSnapshot>, Vec<TrafficSnapshot>, Vec<u64>) {
    let seek = federation(IndexAccess::Native, true);
    let scan = federation(IndexAccess::Unadvertised, true);
    let (n_seek, seek_delta, seek_net) = seek.run_net_of_connects(sql, params);
    let (n_scan, scan_delta) = scan.run(sql, params);
    assert_eq!(n_seek, n_scan, "{sql}");
    (seek_delta, scan_delta, seek_net)
}

fn rows(delta: &[TrafficSnapshot]) -> Vec<u64> {
    delta.iter().map(|d| d.rows).collect()
}

fn requests(delta: &[TrafficSnapshot]) -> Vec<u64> {
    delta.iter().map(|d| d.requests).collect()
}

#[test]
fn seek_ships_the_rows_its_range_holds_in_the_scans_round_trips() {
    // Two members, one row each: the scan ships both member tables.
    let (seek, scan, _) = both_paths(
        "UPDATE acct_all SET balance = balance + 1 WHERE id IN (10, 60)",
        &[],
    );
    assert_eq!(rows(&seek), [1, 1, 0, 0]);
    assert_eq!(rows(&scan), [50, 50, 0, 0]);
    assert_eq!(requests(&seek), requests(&scan));
    assert!(seek.iter().zip(&scan).all(|(a, b)| a.bytes <= b.bytes));

    // One seek per member over the hull [10, 20]: 11 rows for 2 hits.
    let (seek, scan, net) = both_paths("DELETE FROM acct_all WHERE id IN (10, 20)", &[]);
    assert_eq!(rows(&seek), [11, 0, 0, 0]);
    assert_eq!(requests(&seek), requests(&scan));
    assert_eq!(net, [2, 0, 0, 0], "one read, one write");

    // The member's CHECK range closes the hull: [45, 49] and [50, 55].
    let (seek, scan, _) = both_paths(
        "UPDATE acct_all SET balance = 0 WHERE id BETWEEN 45 AND 55",
        &[],
    );
    assert_eq!(rows(&seek), [5, 6, 0, 0]);
    assert_eq!(requests(&seek), requests(&scan));

    // ... and bounds an open range: id > 190 reads [191, 199] only.
    let (seek, _, _) = both_paths("UPDATE acct_all SET balance = 0 WHERE id > 190", &[]);
    assert_eq!(rows(&seek), [0, 0, 0, 9]);

    // A hole does not split the seek: 3 hits, 5 rows, one read.
    let (seek, scan, _) = both_paths(
        "UPDATE acct_all SET balance = 0 WHERE id IN (100, 104) OR id = 102",
        &[],
    );
    assert_eq!(rows(&seek), [0, 0, 5, 0]);
    assert_eq!(requests(&seek), requests(&scan));
}

#[test]
fn counters_tell_seek_from_scan() {
    let fed = federation(IndexAccess::Native, true);
    let reads = |sql: &str| {
        let before = fed.head.metrics();
        let (n, _) = fed.run(sql, &[]);
        (n, dml_reads(&before, &fed.head.metrics()))
    };
    assert_eq!(
        reads("UPDATE acct_all SET balance = 1 WHERE id IN (10, 20)"),
        (2, (1, 0, 11))
    );
    // Non-key predicate: every member is read in full.
    assert_eq!(
        reads("UPDATE acct_all SET balance = 2 WHERE balance = 1"),
        (2, (0, 4, 200))
    );
    // The secondary index serves a predicate the key index cannot.
    assert_eq!(
        reads("UPDATE acct_all SET balance = 3 WHERE owner = 'owner_4'"),
        (19, (4, 0, 19))
    );
    // A float literal on the INT key seeks as SQL compares it, uncast.
    assert_eq!(
        reads("UPDATE acct_all SET balance = 4 WHERE id = 17.0"),
        (1, (1, 0, 1))
    );
    // sys.dm_os_counters serves the same numbers; reset zeroes them.
    let dmv = fed
        .head
        .query("SELECT value FROM sys.dm_os_counters WHERE name = 'dml_seeks'")
        .unwrap();
    assert_eq!(dmv.scalar(), Some(&Value::Int(6)));
    fed.head.reset_metrics();
    let m = fed.head.metrics();
    assert_eq!((m.dml_seeks, m.dml_scans, m.dml_rows_located), (0, 0, 0));
}

/// B-tree order agrees with SQL at zero, so a float zero bounds a seek like
/// any other key: `score = 0.0` reads both zeros through the index.
#[test]
fn a_float_zero_key_seeks_both_zeros() {
    let engine = Engine::new("zeros");
    let schema = Schema::new(vec![
        Column::not_null("id", DataType::Int),
        Column::new("score", DataType::Float),
    ]);
    let def = TableDef::new("scores", schema).with_index("ix_score", &["score"], false);
    engine.create_table(def).unwrap();
    let rows: Vec<Row> = [-0.0, 0.0, 0.5, 1.0]
        .into_iter()
        .zip(0..)
        .map(|(score, id)| Row::new(vec![Value::Int(id), Value::Float(score)]))
        .collect();
    engine.insert("scores", &rows).unwrap();
    let before = engine.metrics();
    let sql = "UPDATE scores SET id = id + 10 WHERE score = 0.0";
    assert_eq!(affected(&engine, sql, &[]), Ok(2));
    assert_eq!(dml_reads(&before, &engine.metrics()), (1, 0, 2), "one seek");
    let moved = engine
        .query("SELECT id FROM scores WHERE id >= 10")
        .unwrap();
    assert_eq!(moved.len(), 2);
}

#[test]
fn empty_key_domain_reads_nothing() {
    let fed = federation(IndexAccess::Native, true);
    let before = fed.head.metrics();
    for sql in [
        "UPDATE acct_all SET balance = 0 WHERE id = NULL",
        "DELETE FROM acct_all WHERE id > 10 AND id < 5",
        // A plain linked-server table has no member pruning in front of
        // the seek: the empty domain itself suppresses the read.
        "UPDATE m1.db.dbo.acct_1 SET balance = 0 WHERE id > 70 AND id < 60",
        "DELETE FROM m1.db.dbo.acct_1 WHERE id = NULL",
    ] {
        let (n, delta) = fed.run(sql, &[]);
        assert_eq!(n, 0, "{sql}");
        assert_eq!(requests(&delta), [0, 0, 0, 0], "{sql}");
    }
    assert_eq!(dml_reads(&before, &fed.head.metrics()), (0, 0, 0));
}

/// An empty domain reads nothing where no index can be used either: the
/// resolver is asked at table level, so a provider without index support
/// is sent no request.
#[test]
fn an_empty_domain_reads_nothing_without_an_index() {
    let fed = federation(IndexAccess::Unadvertised, true);
    let before = fed.head.metrics();
    for sql in [
        "DELETE FROM m3.db.dbo.acct_3 WHERE id > 5 AND id < 3",
        "UPDATE m3.db.dbo.acct_3 SET balance = 0 WHERE id = NULL",
        // No key bound: every member is bound, and none is read.
        "DELETE FROM acct_all WHERE balance > 5 AND balance < 3",
    ] {
        let (n, delta) = fed.run(sql, &[]);
        assert_eq!(n, 0, "{sql}");
        assert_eq!(requests(&delta), [0, 0, 0, 0], "{sql}");
    }
    assert_eq!(dml_reads(&before, &fed.head.metrics()), (0, 0, 0));
}

/// A located write drains its read at once, so it starts no thread even
/// with parallel dispatch on: no prefetcher, no exchange worker.
#[test]
fn a_located_write_spawns_no_thread() {
    let fed = federation(IndexAccess::Native, true);
    fed.head.set_parallel_config(ParallelConfig::parallel());
    for (sql, updated, reads) in [
        (
            "UPDATE acct_all SET balance = 5 WHERE id IN (10, 60, 110, 160)",
            4,
            (4, 0, 4),
        ),
        (
            "UPDATE acct_all SET balance = 6 WHERE balance = 5",
            4,
            (0, 4, 200),
        ),
    ] {
        let before = fed.head.metrics();
        assert_eq!(fed.run(sql, &[]).0, updated, "{sql}");
        let after = fed.head.metrics();
        assert_eq!(dml_reads(&before, &after), reads, "{sql}");
        let threads = |m: &MetricsSnapshot| (m.remote_prefetches, m.exchange_workers);
        assert_eq!(threads(&after), threads(&before), "{sql}");
    }
}

#[test]
fn param_predicates_prune_and_seek() {
    let fed = federation(IndexAccess::Native, true);
    let (n, delta, net) = fed.run_net_of_connects(
        "UPDATE acct_all SET balance = balance + 1 WHERE id = @id",
        &[("id", Value::Int(142))],
    );
    assert_eq!(n, 1);
    // One member, one link, one row; a single participant needs no 2PC.
    assert_eq!(rows(&delta), [0, 0, 1, 0]);
    assert_eq!(net, [0, 0, 2, 0], "one read, one write");
    assert_eq!(fed.head.dtc().stats(), (0, 0));
    assert_eq!(fed.calls(2), ["open_index", "update_by_bookmarks"]);
    assert_eq!(
        fed.head
            .query("SELECT balance FROM acct_all WHERE id = 142")
            .unwrap()
            .scalar(),
        Some(&Value::Int(101))
    );

    // Two parameters on two members: 2PC over exactly those two.
    let (n, delta) = fed.run(
        "DELETE FROM acct_all WHERE id = @a OR id = @b",
        &[("a", Value::Int(3)), ("b", Value::Int(153))],
    );
    assert_eq!(n, 2);
    assert_eq!(rows(&delta), [1, 0, 0, 1]);
    assert_eq!(fed.head.dtc().stats(), (1, 0));

    // A parameter with no value supplied still fails, as it always did.
    assert!(affected(&fed.head, "DELETE FROM acct_all WHERE id = @missing", &[]).is_err());
}

#[test]
fn seek_runs_on_the_enlisted_session_before_any_write() {
    let fed = federation(IndexAccess::Native, true);
    let (n, _) = fed.run(
        "UPDATE acct_all SET balance = balance - 1 WHERE id IN (10, 60)",
        &[],
    );
    assert_eq!(n, 2);
    assert_eq!(fed.head.dtc().stats(), (1, 0));
    for member in [0, 1] {
        // One session per participant: it locates the rows, joins the
        // transaction, writes them and takes both 2PC phases. No command
        // object: this provider reports ODBC-core SQL.
        assert_eq!(
            fed.calls(member),
            [
                "open_index",
                "join_transaction",
                "update_by_bookmarks",
                "prepare",
                "commit",
            ]
        );
    }
    assert!(fed.calls(2).is_empty() && fed.calls(3).is_empty());

    // Partition-key moves: every row is located, at every participant,
    // before the first write anywhere; however many rows move, a member
    // sees one delete, and a destination only ever one insert.
    fed.run("DELETE FROM acct_all WHERE id IN (105, 106, 156)", &[]);
    fed.clear_logs();
    let (n, _) = fed.run(
        "UPDATE acct_all SET id = id + 100 WHERE id IN (5, 6, 56)",
        &[],
    );
    assert_eq!(n, 3);
    for source in [0, 1] {
        assert_eq!(
            fed.calls(source),
            [
                "open_index",
                "join_transaction",
                "delete_by_bookmarks",
                "prepare",
                "commit"
            ]
        );
    }
    for destination in [2, 3] {
        assert_eq!(
            fed.calls(destination),
            ["join_transaction", "insert", "prepare", "commit"]
        );
    }
    let last_read = fed.times_of(&["open_index"]).into_iter().max();
    let first_write = fed.times_of(&["delete_by_bookmarks", "insert"]);
    assert!(last_read < first_write.into_iter().min());
    assert_eq!(
        fed.head.metrics().dtc_votes_ridden,
        0,
        "the spies do not vote"
    );
}

/// A partition-key UPDATE whose row stays on its member sends that member
/// one write: no transaction, whichever members the row could have gone to.
#[test]
fn a_key_move_that_stays_on_its_member_begins_no_transaction() {
    let fed = federation(IndexAccess::Native, true);
    fed.run("DELETE FROM acct_all WHERE id = 199", &[]);
    fed.clear_logs();
    let stats = fed.head.dtc().stats();
    let (n, _, net) = fed.run_net_of_connects("UPDATE acct_all SET id = 199 WHERE id = 150", &[]);
    assert_eq!((n, net), (1, vec![0, 0, 0, 2]), "one read, one write");
    assert_eq!(fed.head.dtc().stats(), stats);
    assert_eq!(fed.calls(3), ["open_index", "update_by_bookmarks"]);
}

/// A located statement that matches no row writes nothing: each member is
/// sent its read and nothing else — no join, no outcome — and there is no
/// transaction to commit.
#[test]
fn a_located_statement_that_matches_no_row_sends_only_its_reads() {
    let fed = federation(IndexAccess::Native, true);
    let (n, delta, net) = fed.run_net_of_connects("DELETE FROM acct_all WHERE balance = -5", &[]);
    assert_eq!((n, net), (0, vec![1; 4]));
    assert_eq!(rows(&delta), [50; 4]);
    assert_eq!(fed.head.dtc().stats(), (0, 0));
    for member in 0..4 {
        assert_eq!(fed.calls(member), ["open_rowset"]);
    }
}

/// What a cross-site write costs on the wire. Shipped as a statement, per
/// participant: the statement(+join, +vote) → `commit`. Located, once
/// enlistment and the vote ride the data requests: `open_index`(+join) →
/// write(+vote) → `commit`, in the bytes of the five messages it used to be.
/// The last participant to write decides: its last request carries the
/// commit in the vote's place, and no `commit` follows it — one request and
/// 16 bytes less.
#[test]
fn two_phase_commit_messages_ride_the_data_requests() {
    let pushed = pushing(MEMBERS, true);
    let voting = federation_on(MEMBERS, IndexAccess::Native, true, true);
    // Behind spies that do not vote only the join rides; the bytes are the
    // same but for the decider's saved `commit`, the explicit `prepare` is
    // one more request per writer.
    let explicit = federation(IndexAccess::Native, true);
    let bytes = |delta: &[TrafficSnapshot]| delta.iter().map(|d| d.bytes).collect::<Vec<_>>();
    let (mut votes, mut pushed_votes) = (0, 0);
    // `decider`: the last member the located path writes to under 2PC;
    // `voters`: how many vote with a write.
    for (sql, shipped, ridden, prepared, decider, voters, update_bytes) in [
        (
            "UPDATE acct_all SET balance = balance - 1 WHERE id IN (10, 60)",
            [2, 1, 0, 0],
            [3, 2, 0, 0],
            [4, 4, 0, 0],
            Some(1),
            2,
            Some(237),
        ),
        (
            "DELETE FROM acct_all WHERE id IN (10, 160)",
            [2, 0, 0, 1],
            [3, 0, 0, 2],
            [4, 0, 0, 4],
            Some(3),
            2,
            None,
        ),
        // The insert is a participant's first and last request.
        (
            "INSERT INTO acct_all (id, balance) VALUES (10, 1), (160, 1)",
            [2, 0, 0, 1],
            [2, 0, 0, 1],
            [3, 0, 0, 3],
            Some(3),
            2,
            None,
        ),
        // A member that locates nothing (id 70 has another score) is no
        // participant: it is sent its read and nothing else, and the one
        // write left is autocommit. Sent the statement, it finds that out
        // itself, and — last — commits with it all the same.
        (
            "DELETE FROM acct_all WHERE id IN (20, 70) AND score = 0.5",
            [2, 1, 0, 0],
            [2, 1, 0, 0],
            [2, 1, 0, 0],
            None,
            0,
            None,
        ),
    ] {
        let (n_pushed, delta_pushed, net_pushed) = pushed.run_net_of_connects(sql, &[]);
        let (n, delta, net) = voting.run_net_of_connects(sql, &[]);
        let (n_ref, delta_ref, net_ref) = explicit.run_net_of_connects(sql, &[]);
        assert_eq!((n_pushed, net_pushed), (n_ref, shipped.to_vec()), "{sql}");
        assert_eq!((n, net), (n_ref, ridden.to_vec()), "{sql}");
        assert_eq!(net_ref, prepared, "only the join rides: {sql}");
        let mut saved = bytes(&delta);
        if let Some(decider) = decider {
            saved[decider] += TXN_VERB_WIRE_BYTES;
        }
        assert_eq!(saved, bytes(&delta_ref), "a verb keeps its bytes: {sql}");
        if let Some(want) = update_bytes {
            assert_eq!(delta[0].bytes, want, "{sql}");
        }
        // No row crosses the link in either direction, so the statement is
        // the smaller message too.
        if !sql.starts_with("INSERT") {
            assert_eq!(rows(&delta_pushed), [0; 4], "{sql}");
            let located = bytes(&delta);
            let smaller = bytes(&delta_pushed).into_iter().zip(located);
            assert!(smaller.clone().all(|(a, b)| a <= b), "{sql}: {smaller:?}");
        }
        votes += voters;
        pushed_votes += shipped.iter().filter(|r| **r > 0).count() as u64;
        assert_eq!(voting.head.metrics().dtc_votes_ridden, votes, "{sql}");
        assert_eq!(
            pushed.head.metrics().dtc_votes_ridden,
            pushed_votes,
            "{sql}"
        );
    }
    assert_eq!(pushed.head.dtc().stats(), (4, 0));
    for fed in [&voting, &explicit] {
        assert_eq!(fed.head.dtc().stats(), (3, 0));
    }
    assert_eq!(pushed.head.metrics().dtc_commits_ridden, 4);
    assert_eq!(voting.head.metrics().dtc_commits_ridden, 3);
    let m = explicit.head.metrics();
    assert_eq!((m.dtc_votes_ridden, m.dtc_commits_ridden), (0, 0));
    assert_eq!(
        voting.calls(1),
        [
            "open_index",
            "join_transaction",
            "update_by_bookmarks",
            "open_index"
        ]
    );
    assert_eq!(
        pushed.calls(1),
        [
            "join_transaction",
            "create_command",
            "join_transaction",
            "create_command"
        ]
    );
    let m = pushed.head.metrics();
    assert_eq!((m.dml_pushed, m.dml_seeks, m.dml_scans), (6, 0, 0));

    // A provider that takes the statement but votes only when asked to
    // `prepare` (what fedbench's traced pass puts between head and link).
    let sql = [SqlLevel::Native];
    let asked = federation_with(MEMBERS, IndexAccess::Native, true, &[Rides::Neither], &sql);
    let (n, _, net) = asked.run_net_of_connects(
        "UPDATE acct_all SET balance = balance - 1 WHERE id IN (10, 60)",
        &[],
    );
    assert_eq!((n, net), (2, vec![3, 3, 0, 0]));
    assert_eq!(
        asked.calls(1),
        ["join_transaction", "create_command", "prepare", "commit"]
    );
}

/// The last participant commits with its write only when its provider takes
/// the call and every other participant has voted; otherwise each keeps the
/// messages it had before.
#[test]
fn a_ridden_commit_needs_the_call_and_every_other_vote() {
    let sql = "UPDATE acct_all SET balance = balance - 1 WHERE id IN (10, 60)";
    let (joined, sent) = ("join_transaction", "create_command");
    for (rides, net, calls0, calls1) in [
        // Member 1 votes with its statement, and commits when told.
        (
            [Rides::Both, Rides::Vote],
            [2, 2, 0, 0],
            vec![joined, sent, "commit"],
            vec![joined, sent, "commit"],
        ),
        // Member 0 votes only when asked: phase one waits for it, and member
        // 1 votes with its statement instead of deciding.
        (
            [Rides::Neither, Rides::Both],
            [3, 2, 0, 0],
            vec![joined, sent, "prepare", "commit"],
            vec![joined, sent, "commit"],
        ),
    ] {
        let native = [SqlLevel::Native];
        let fed = federation_with(MEMBERS, IndexAccess::Native, true, &rides, &native);
        let (n, _, got) = fed.run_net_of_connects(sql, &[]);
        assert_eq!((n, got), (2, net.to_vec()));
        assert_eq!(fed.calls(0), calls0);
        assert_eq!(fed.calls(1), calls1);
        let m = fed.head.metrics();
        assert_eq!((m.dtc_commits, m.dtc_commits_ridden), (1, 0));
    }
}

/// One participant, so no transaction: the statement is the whole exchange.
#[test]
fn an_autocommit_pushed_write_is_one_request() {
    let pushed = pushing(MEMBERS, true);
    let located = federation_on(MEMBERS, IndexAccess::Native, true, true);
    for (sql, link, n_want) in [
        ("DELETE FROM m3.db.dbo.acct_3 WHERE id >= 197", 3, 3),
        (
            "UPDATE m1.db.dbo.acct_1 SET owner = 'x', balance = balance * 2 WHERE id < 52",
            1,
            2,
        ),
        // A view statement that prunes to one member.
        ("UPDATE acct_all SET balance = 0 WHERE id = 142", 2, 1),
        // No WHERE clause at all.
        ("UPDATE m0.db.dbo.acct_0 SET score = 0.5", 0, 50),
    ] {
        pushed.clear_logs();
        let (n, delta, net) = pushed.run_net_of_connects(sql, &[]);
        let (n_ref, _, net_ref) = located.run_net_of_connects(sql, &[]);
        assert_eq!((n, n_ref), (n_want, n_want), "{sql}");
        assert_eq!((net[link], net_ref[link]), (1, 2), "{sql}");
        assert_eq!(net.iter().sum::<u64>(), 1, "{sql}");
        assert_eq!(rows(&delta), [0; 4], "{sql}");
        assert_eq!(pushed.calls(link), ["create_command"], "{sql}");
        assert_eq!(contents(&pushed.head), contents(&located.head), "{sql}");
    }
    assert_eq!(pushed.head.dtc().stats(), (0, 0));
    let m = pushed.head.metrics();
    assert_eq!((m.dml_pushed, m.dml_seeks, m.dml_scans), (4, 0, 0));
    let dmv = pushed
        .head
        .query("SELECT value FROM sys.dm_os_counters WHERE name = 'dml_pushed'")
        .unwrap();
    assert_eq!(dmv.scalar(), Some(&Value::Int(4)));
    // A key domain that proves the predicate empty still sends nothing.
    let (n, _, net) = pushed.run_net_of_connects(
        "DELETE FROM m1.db.dbo.acct_1 WHERE id > 70 AND id < 60",
        &[],
    );
    assert_eq!((n, net), (0, vec![0; 4]));
    assert_eq!(pushed.head.metrics().dml_pushed, 4);
}

/// A pushed statement that matches nothing at a member writes nothing there,
/// so the vote it carries has no write to ride: the member answers it when
/// the statement is done. The participant still costs two requests, and the
/// pooled session carries no stale "vote with the next write" into its next
/// transaction — where it writes twice, and must vote with the second.
#[test]
fn a_pushed_statement_that_writes_nothing_still_votes() {
    let fed = pushing(MEMBERS, true);
    fed.run("DELETE FROM acct_all WHERE id = 105", &[]);
    fed.clear_logs();
    // id 70 has another score: nothing to write at member 1.
    let sql = "UPDATE acct_all SET balance = 7 WHERE id IN (20, 70) AND score = 0.5";
    let (n, _, net) = fed.run_net_of_connects(sql, &[]);
    assert_eq!((n, net), (1, vec![2, 1, 0, 0]));
    assert_eq!(fed.head.dtc().stats(), (1, 0));
    let m = fed.head.metrics();
    assert_eq!((m.dtc_votes_ridden, m.dtc_commits_ridden), (2, 1));
    let pushed = ["join_transaction", "create_command"];
    assert_eq!(fed.calls(1), pushed);
    assert!(!fed.servers[1].storage().has_txn(1), "nothing left behind");

    // 5 → 55 and 55 → 105: member 1 gives up a row and takes one in.
    let (n, _, net) =
        fed.run_net_of_connects("UPDATE acct_all SET id = id + 50 WHERE id IN (5, 55)", &[]);
    // Member 2, written last, takes its one row in with the commit.
    assert_eq!((n, net), (2, vec![3, 4, 1, 0]));
    assert_eq!(
        fed.calls(1)[pushed.len()..],
        [
            "open_index",
            "join_transaction",
            "delete_by_bookmarks",
            "insert",
            "commit"
        ]
    );
    assert_eq!(fed.head.dtc().stats(), (2, 0));
    let ids = fed
        .head
        .query("SELECT id FROM acct_all WHERE id IN (5, 55, 105) ORDER BY id")
        .unwrap();
    let ids: Vec<_> = ids.rows.iter().map(|r| r.get(0).clone()).collect();
    assert_eq!(ids, [Value::Int(55), Value::Int(105)]);

    // Two tables on one participant, the second statement writing nothing:
    // what the first one buffered is what the vote is about. (id 120 has
    // score 0; acct_0 and acct_2 live on server 0.)
    let fed = pushing(2, true);
    let sql = "UPDATE acct_all SET balance = 7 WHERE id IN (20, 70, 120) AND score > 0.1";
    let before = contents(&fed.head);
    fed.servers[0].storage().set_fail_prepare(true);
    assert_eq!(affected(&fed.head, sql, &[]), Err("transaction".into()));
    fed.servers[0].storage().set_fail_prepare(false);
    assert_eq!(contents(&fed.head), before);
    fed.clear_logs();
    let (n, _, net) = fed.run_net_of_connects(sql, &[]);
    assert_eq!((n, net), (2, vec![3, 1]));
    assert_eq!(
        fed.calls(0),
        [
            "join_transaction",
            "create_command",
            "create_command",
            "commit"
        ]
    );
    assert_eq!(fed.head.dtc().stats(), (1, 1));

    // The same at the participant that decides: what its first statement
    // buffered is what the commit is about. (id 168 has score 0; acct_1 and
    // acct_3 live on server 1, written last.)
    let sql = "UPDATE acct_all SET balance = 8 WHERE id IN (20, 70, 168) AND score > 0.1";
    let before = contents(&fed.head);
    fed.servers[1].storage().set_fail_prepare(true);
    assert_eq!(affected(&fed.head, sql, &[]), Err("transaction".into()));
    fed.servers[1].storage().set_fail_prepare(false);
    assert_eq!(contents(&fed.head), before);
    fed.clear_logs();
    let (n, _, net) = fed.run_net_of_connects(sql, &[]);
    assert_eq!((n, net), (2, vec![2, 2]));
    assert_eq!(
        fed.calls(1),
        ["join_transaction", "create_command", "create_command"]
    );
    assert_eq!(fed.head.dtc().stats(), (2, 2));
    assert!((1..=4).all(|txn| !fed.servers[1].storage().has_txn(txn)));
}

/// The participant that decides can fail a pushed statement before it
/// writes anything: here its second statement divides by zero while
/// computing the new values. That failure answers the commit the statement
/// carried, so the member rolls back what its first statement buffered, and
/// its pooled session takes no transaction into its next statement.
#[test]
fn a_pushed_statement_that_fails_before_writing_at_the_decider_rolls_it_back() {
    // acct_1 (id 70) and acct_3 (id 168) live on server 1, written last.
    let fed = pushing(2, true);
    let sql = "UPDATE acct_all SET balance = balance / (id - 168) WHERE id IN (20, 70, 168)";
    assert!(affected(&fed.head, sql, &[]).is_err());
    assert_eq!(fed.head.dtc().stats(), (0, 1));
    for member in &fed.servers {
        assert!(!member.storage().has_txn(1));
    }
    // The next statement runs on the same pooled session, and commits on
    // its own only what it wrote.
    let sql = "UPDATE m1.db.dbo.acct_3 SET balance = 9 WHERE id = 168";
    assert_eq!(affected(&fed.head, sql, &[]), Ok(1));
    assert_eq!(
        fed.calls(1),
        [
            "join_transaction",
            "create_command",
            "create_command",
            "abort",
            "create_command"
        ]
    );
    let changed = fed
        .head
        .query("SELECT id, balance FROM acct_all WHERE balance <> 100")
        .unwrap();
    let changed: Vec<_> = changed.rows.iter().map(|r| r.values.clone()).collect();
    assert_eq!(changed, [vec![Value::Int(168), Value::Int(9)]]);
    assert_eq!(fed.head.dtc().stats(), (0, 1));
}

/// A write is sent once. With a plan that faults DML text too, the injected
/// error fails the statement and nothing re-issues it; under the default
/// plan (every `DHQP_FAULT_SEED` CI leg) DML text is exempt from injection.
#[test]
fn a_pushed_write_is_never_re_sent() {
    let one_fault = |reads_only| FaultConfig {
        reads_only,
        ..FaultConfig::one_transient_per_link(7)
    };
    for (reads_only, outcome) in [(false, Err("unavailable".to_string())), (true, Ok(1))] {
        let member = Engine::new("member");
        create_member(member.storage(), 0, None);
        let source = Arc::new(EngineDataSource::new(member.clone()));
        let (spy, log) = Spy::new(source, IndexAccess::Native, Rides::Both, SqlLevel::Native);
        let link = NetworkLink::new("m0", NetworkConfig::lan());
        let faulty = NetworkedDataSource::with_faults(spy, link.clone(), one_fault(reads_only));
        let head = Engine::new("head");
        head.add_linked_server("m0", Arc::new(faulty)).unwrap();
        let sql = "UPDATE m0.db.dbo.acct_0 SET balance = 0 WHERE id = 10";
        assert_eq!(
            affected(&head, sql, &[]),
            outcome,
            "reads_only={reads_only}"
        );
        let commands = log
            .lock()
            .unwrap()
            .iter()
            .map(|(.., call)| *call)
            .collect::<Vec<_>>();
        assert_eq!(commands, ["create_command"], "reads_only={reads_only}");
        assert_eq!(link.faults_injected(), u64::from(!reads_only));
        let balance = member
            .query("SELECT balance FROM acct_0 WHERE id = 10")
            .unwrap();
        let want = if reads_only { 0 } else { 100 };
        assert_eq!(balance.scalar(), Some(&Value::Int(want)));
        assert_eq!(head.metrics().remote_retries, 0);
    }
}

/// Atomicity with a pushed participant: a member whose statement fails a
/// CHECK, and one whose ridden vote refuses, abort every participant —
/// pushed or located, already voted or not — with no table changed; and the
/// located participants were all read before anything was written.
#[test]
fn a_refused_pushed_write_aborts_every_participant() {
    let levels = [SqlLevel::Native, SqlLevel::OdbcCore];
    let fed = federation_with(MEMBERS, IndexAccess::Native, true, &[Rides::Both], &levels);
    // Members 0 and 2 take the statement, 1 and 3 are located.
    let non_negative = CheckConstraint {
        name: "ck_balance".into(),
        column: "balance".into(),
        domain: IntervalSet::single(Interval::at_least(Value::Int(0))),
    };
    let add_check = |t: &mut dhqp_storage::Table| {
        t.checks.push(non_negative.clone());
        Ok(())
    };
    fed.servers[2]
        .storage()
        .with_table_mut("acct_2", add_check)
        .unwrap();
    for member in &fed.servers {
        member.set_event_config(EventConfig::only(&[
            EventKind::QueryStart,
            EventKind::QueryEnd,
        ]));
    }
    let before = contents(&fed.head);
    let statement_events = |member: &Engine| {
        let events = member.recent_events();
        let of = |kind| events.iter().filter(|e| e.kind == kind).count();
        let failed = events
            .iter()
            .filter(|e| e.attrs.iter().any(|(k, _)| k == "error"));
        (
            of(EventKind::QueryStart),
            of(EventKind::QueryEnd),
            failed.count(),
        )
    };

    // The happy path first: reads of located members precede every write.
    fed.clear_logs();
    let sql = "UPDATE acct_all SET balance = balance - 10 WHERE id IN (10, 60, 110, 160)";
    assert_eq!(affected(&fed.head, sql, &[]), Ok(4));
    let last_read = fed.times_of(&["open_index"]).into_iter().max();
    let first_write = fed.times_of(&["create_command", "update_by_bookmarks"]);
    assert!(last_read < first_write.into_iter().min());
    assert_eq!(
        fed.calls(0),
        ["join_transaction", "create_command", "commit"]
    );
    assert_eq!(
        fed.calls(1),
        [
            "open_index",
            "join_transaction",
            "update_by_bookmarks",
            "commit"
        ]
    );
    // The pushed text is a statement of the member's own: one start, one end.
    assert_eq!(statement_events(&fed.servers[0]), (1, 1, 0));
    assert_eq!(statement_events(&fed.servers[1]), (0, 0, 0));
    affected(&fed.head, "UPDATE acct_all SET balance = 100", &[]).unwrap();
    assert_eq!(contents(&fed.head), before);

    // Member 2's CHECK refuses the statement it was sent; members 0 and 1
    // have voted yes by then.
    let sql = "UPDATE acct_all SET balance = balance - 101 WHERE id IN (10, 60, 110)";
    assert_eq!(affected(&fed.head, sql, &[]), Err("transaction".into()));
    assert_eq!(contents(&fed.head), before);

    // Member 0's statement runs, and its vote — riding the statement — is
    // refused. Again the member saw one statement, which failed.
    let seen = statement_events(&fed.servers[0]);
    fed.servers[0].storage().set_fail_prepare(true);
    let sql = "UPDATE acct_all SET balance = balance - 1 WHERE id IN (10, 60)";
    assert_eq!(affected(&fed.head, sql, &[]), Err("transaction".into()));
    fed.servers[0].storage().set_fail_prepare(false);
    assert_eq!(contents(&fed.head), before);
    let now = statement_events(&fed.servers[0]);
    assert_eq!((now.0 - seen.0, now.1 - seen.1, now.2 - seen.2), (1, 1, 1));

    let (commits, aborts) = fed.head.dtc().stats();
    assert_eq!((commits, aborts), (2, 2));
    assert_eq!(fed.head.dtc().telemetry().in_doubt, 0);
    for member in &fed.servers {
        assert!((1..=4).all(|txn| !member.storage().has_txn(txn)));
    }
    // The sessions went back to their pools usable.
    assert_eq!(
        affected(&fed.head, "DELETE FROM acct_all WHERE id IN (10, 60)", &[]),
        Ok(2)
    );
}

/// What the member refuses before it writes anything: command text whose
/// target is not a plain table of its own. (The head never sends such text;
/// a member is handed one here through a view of the same name.)
#[test]
fn a_pushed_statement_writes_a_plain_local_table_or_nothing() {
    let fed = pushing(1, true);
    let member = &fed.servers[0];
    let halves = (0..2)
        .map(|i| {
            (
                None,
                format!("acct_{i}"),
                member_domain(i * PER_MEMBER, (i + 1) * PER_MEMBER - 1),
            )
        })
        .collect();
    member
        .define_partitioned_view("acct_low", "id", halves)
        .unwrap();
    let source = EngineDataSource::new(member.clone());
    let mut session = source.create_session().unwrap();
    let mut run = |sql: &str| {
        let mut command = session.create_command().unwrap();
        command.set_text(sql).unwrap();
        command.execute().map(|_| ()).map_err(|e| e.kind())
    };
    assert_eq!(
        run("UPDATE acct_low SET balance = 1 WHERE id = 10"),
        Err("unsupported")
    );
    assert_eq!(
        run("DELETE FROM elsewhere.db.dbo.t WHERE id = 10"),
        Err("unsupported")
    );
    assert_eq!(
        run("INSERT INTO acct_low (id, balance) VALUES (1000, 1)"),
        Err("unsupported")
    );
    assert_eq!(run("UPDATE acct_0 SET balance = 1 WHERE id = 10"), Ok(()));
    assert_eq!(run("SELECT id FROM acct_low WHERE id = 10"), Ok(()));
    // The member's own users write its view as before.
    assert_eq!(
        affected(
            member,
            "UPDATE acct_low SET balance = 2 WHERE id IN (10, 60)",
            &[]
        ),
        Ok(2)
    );
}

/// A member's full-text index follows a pushed write that committed with
/// the statement (autocommit); under a transaction the write is still
/// buffered when the statement ends, as a bookmark write's is, and the
/// index follows the commit — a `commit` message, or the write it rode.
#[test]
fn a_members_fulltext_index_follows_an_autocommit_pushed_write() {
    let indexed = |fed: &Federation| {
        for (i, member) in fed.servers.iter().enumerate() {
            let table = format!("acct_{i}");
            member
                .create_fulltext_index(&table, "id", "owner", &format!("ft_{i}"))
                .unwrap();
        }
    };
    let (pushed, located) = (
        pushing(MEMBERS, true),
        federation_on(MEMBERS, IndexAccess::Native, true, true),
    );
    indexed(&pushed);
    indexed(&located);
    let found = |fed: &Federation, member: usize, word: &str| {
        let sql =
            format!("SELECT id FROM acct_{member} WHERE CONTAINS(owner, '{word}') ORDER BY id");
        let hits = fed.servers[member].query(&sql).unwrap();
        hits.rows
            .iter()
            .map(|r| r.get(0).clone())
            .collect::<Vec<_>>()
    };
    let sql = "UPDATE acct_all SET owner = 'fresh words' WHERE id = 10";
    assert_eq!(affected(&pushed.head, sql, &[]), Ok(1));
    assert_eq!(affected(&located.head, sql, &[]), Ok(1));
    assert_eq!(found(&pushed, 0, "fresh"), [Value::Int(10)]);
    // Two participants: whichever way the rows were written, the index
    // follows the commit.
    let sql = "UPDATE acct_all SET owner = 'later words' WHERE id IN (11, 61)";
    assert_eq!(affected(&pushed.head, sql, &[]), Ok(2));
    assert_eq!(affected(&located.head, sql, &[]), Ok(2));
    for fed in [&pushed, &located] {
        assert_eq!(found(fed, 0, "later"), [Value::Int(11)]);
        assert_eq!(found(fed, 1, "later"), [Value::Int(61)]);
    }
    assert_eq!(contents(&pushed.head), contents(&located.head));
    // The head's own tables follow a write through a view of them as well.
    let solo = local_view();
    solo.create_fulltext_index("acct_1", "id", "owner", "ft_solo")
        .unwrap();
    assert_eq!(affected(&solo, sql, &[]), Ok(2));
    let hits = solo
        .query("SELECT id FROM acct_1 WHERE CONTAINS(owner, 'later')")
        .unwrap();
    assert_eq!(hits.scalar(), Some(&Value::Int(61)));
}

#[test]
fn unsupported_open_index_falls_back_to_the_scan() {
    let fed = federation(IndexAccess::Broken, true);
    let before = fed.head.metrics();
    let (n, delta) = fed.run("UPDATE acct_all SET balance = 7 WHERE id = 60", &[]);
    assert_eq!(n, 1);
    assert_eq!(rows(&delta), [0, 50, 0, 0]);
    assert_eq!(
        fed.calls(1),
        ["open_index", "open_rowset", "update_by_bookmarks"]
    );
    assert_eq!(dml_reads(&before, &fed.head.metrics()), (0, 1, 50));

    // Unadvertised: not even tried.
    let fed = federation(IndexAccess::Unadvertised, true);
    fed.run("UPDATE acct_all SET balance = 7 WHERE id = 60", &[]);
    assert_eq!(fed.calls(1), ["open_rowset", "update_by_bookmarks"]);
}

#[test]
fn local_and_linked_tables_seek_too() {
    // A plain local table.
    let solo = unfederated();
    let before = solo.metrics();
    assert_eq!(
        affected(
            &solo,
            "UPDATE acct_all SET balance = 1 WHERE id BETWEEN 10 AND 12",
            &[]
        ),
        Ok(3)
    );
    assert_eq!(
        affected(&solo, "DELETE FROM acct_all WHERE owner = 'owner_7'", &[]),
        Ok(19)
    );
    assert_eq!(dml_reads(&before, &solo.metrics()), (2, 0, 22));

    // A four-part linked-server table: no CHECK range to close the hull.
    let fed = federation(IndexAccess::Native, true);
    let (n, delta, net) =
        fed.run_net_of_connects("DELETE FROM m3.db.dbo.acct_3 WHERE id >= 197", &[]);
    assert_eq!(n, 3);
    assert_eq!(rows(&delta), [0, 0, 0, 3]);
    assert_eq!(net, [0, 0, 0, 2], "one read, one write");
}

/// An UPDATE a unique index refuses leaves the table as it was: the new
/// keys are probed before the heap or any index changes, as an INSERT's
/// are.
#[test]
fn a_refused_unique_key_update_leaves_the_table_unchanged() {
    let engine = Engine::new("solo");
    let schema = Schema::new(vec![
        Column::not_null("id", DataType::Int),
        Column::new("name", DataType::Str),
    ]);
    engine
        .create_table(TableDef::new("t", schema).with_index("ix_id", &["id"], true))
        .unwrap();
    let row = |id, name: &str| Row::new(vec![Value::Int(id), Value::Str(name.into())]);
    engine.insert("t", &[row(1, "a"), row(2, "b")]).unwrap();

    let err = engine
        .execute("UPDATE t SET id = 2 WHERE id = 1")
        .unwrap_err();
    assert_eq!(err.kind(), "constraint");
    assert!(
        err.to_string()
            .contains("duplicate key in unique index 'ix_id'"),
        "{err}"
    );
    let read = |sql: &str| -> Vec<Vec<Value>> {
        let r = engine.query(sql).unwrap();
        r.rows.into_iter().map(|r| r.values).collect()
    };
    assert_eq!(
        read("SELECT id, name FROM t ORDER BY id"),
        [row(1, "a").values, row(2, "b").values]
    );
    assert_eq!(
        read("SELECT name FROM t WHERE id = 1"),
        [vec![Value::Str("a".into())]]
    );
}

#[test]
fn no_knob_was_added() {
    let knobs = unfederated()
        .query("SELECT * FROM sys.dm_os_knobs")
        .unwrap();
    assert_eq!(knobs.len(), 24);
}

/// `(id, name, d)`, one row `(1, 'a', 1995-01-01)`.
fn typed_table() -> Engine {
    let engine = Engine::new("solo");
    let schema = Schema::new(vec![
        Column::not_null("id", DataType::Int),
        Column::new("name", DataType::Str),
        Column::new("d", DataType::Date),
    ]);
    engine.create_table(TableDef::new("t", schema)).unwrap();
    engine
        .execute("INSERT INTO t (id, name, d) VALUES (1, 'a', '1995-01-01')")
        .unwrap();
    engine
}

/// A value that fails the cast to its column's declared type refuses the
/// statement and leaves the table as it was; before, it was stored as it
/// was, and `SUM(id)` failed on the string later.
#[test]
fn a_value_that_fails_its_cast_refuses_the_statement() {
    let engine = typed_table();
    let read = || {
        let r = engine
            .query("SELECT id, name, d FROM t ORDER BY id")
            .unwrap();
        r.rows.into_iter().map(|r| r.values).collect::<Vec<_>>()
    };
    let before = read();
    for (sql, why) in [
        (
            "INSERT INTO t (id, name, d) VALUES ('abc', 'b', '1995-01-02')",
            "cannot cast VARCHAR to BIGINT",
        ),
        (
            "INSERT INTO t (id, name, d) VALUES (3, 'c', 'not a date')",
            "cannot cast VARCHAR to DATE",
        ),
        (
            "UPDATE t SET id = 'zzz' WHERE name = 'a'",
            "cannot cast VARCHAR to BIGINT",
        ),
    ] {
        let err = engine.execute(sql).unwrap_err();
        assert_eq!(err.kind(), "type", "{sql}: {err}");
        assert!(err.to_string().contains(why), "{sql}: {err}");
        assert_eq!(read(), before, "{sql}");
    }
    let sum = engine.query("SELECT SUM(id) FROM t").unwrap();
    assert_eq!(sum.rows[0].values, [Value::Int(1)]);
    // A value that casts is still coerced to its column's type.
    engine
        .execute("INSERT INTO t (id, name, d) VALUES ('2', 'b', '1995-01-02')")
        .unwrap();
    assert_eq!(read()[1][0], Value::Int(2));
}

/// The same holds where the statement runs: an UPDATE pushed to an
/// `acct_all` member as text fails its cast there, every participant rolls
/// back, and no member stores the string.
#[test]
fn a_pushed_write_that_fails_its_cast_changes_no_member() {
    let fed = pushing(MEMBERS, true);
    let before = contents(&fed.head);
    let pushed = fed.head.metrics().dml_pushed;
    let err = fed
        .head
        .execute("UPDATE acct_all SET balance = 'zzz' WHERE id BETWEEN 40 AND 60")
        .unwrap_err();
    assert!(
        err.to_string().contains("cannot cast VARCHAR to BIGINT"),
        "{err}"
    );
    assert_eq!(
        fed.head.metrics().dml_pushed - pushed,
        2,
        "both members took the text"
    );
    assert_eq!(contents(&fed.head), before);
    let sum = fed.head.query("SELECT SUM(balance) FROM acct_all").unwrap();
    assert_eq!(sum.rows[0].values, [Value::Int(100 * MEMBERS * PER_MEMBER)]);
}

// ---------------------------------------------------------------------------
// One write path: a statement's writes to a table are admitted whole, then
// applied (DESIGN.md §24), so a refused statement changes nothing.
// ---------------------------------------------------------------------------

/// `table (id unique, name)` in `storage` holding `ids`, named `'r{id}'`,
/// its ids held to `range` by a CHECK when one is given.
fn create_keyed(storage: &StorageEngine, table: &str, ids: &[i64], range: Option<(i64, i64)>) {
    let schema = Schema::new(vec![
        Column::not_null("id", DataType::Int),
        Column::new("name", DataType::Str),
    ]);
    let mut def = TableDef::new(table, schema).with_index(&format!("pk_{table}"), &["id"], true);
    if let Some((lo, hi)) = range {
        def = def.with_check(CheckConstraint {
            name: format!("ck_{table}"),
            column: "id".into(),
            domain: member_domain(lo, hi),
        });
    }
    storage.create_table(def).unwrap();
    let rows: Vec<Row> = ids
        .iter()
        .map(|&id| Row::new(vec![Value::Int(id), Value::Str(format!("r{id}"))]))
        .collect();
    storage.insert_rows(table, &rows).unwrap();
}

/// `(id, name)` of every row of `table`, by id.
fn keyed_rows(engine: &Engine, table: &str) -> Vec<(i64, String)> {
    let r = engine
        .query(&format!("SELECT id, name FROM {table} ORDER BY id"))
        .unwrap();
    r.rows
        .iter()
        .map(|r| match (r.get(0), r.get(1)) {
            (Value::Int(id), Value::Str(name)) => (*id, name.clone()),
            other => panic!("an (id, name) row, got {other:?}"),
        })
        .collect()
}

/// One engine with `t` holding `ids`.
fn keyed_table(ids: &[i64]) -> Engine {
    let engine = Engine::new("solo");
    create_keyed(engine.storage(), "t", ids, None);
    engine
}

/// `t` as a view over `t_0` (ids 0..=99) on server `m0` and `t_1`
/// (100..=199) on `m1`, each holding the `ids` in its range: a statement
/// that writes both runs in a two-member distributed transaction. `sql`
/// picks whether the members take the statement as text or the head
/// locates the rows and writes them by bookmark.
fn keyed_pair(ids: &[i64], sql: SqlLevel) -> Engine {
    let head = Engine::new("head");
    let mut members = Vec::new();
    for (m, (lo, hi)) in [(0, 99), (100, 199)].into_iter().enumerate() {
        let server = Engine::new(format!("member{m}"));
        let table = format!("t_{m}");
        let mine: Vec<i64> = ids
            .iter()
            .copied()
            .filter(|id| (lo..=hi).contains(id))
            .collect();
        create_keyed(server.storage(), &table, &mine, Some((lo, hi)));
        let source = Arc::new(EngineDataSource::new(server));
        let (spy, _) = Spy::new(source, IndexAccess::Native, Rides::Both, sql);
        let link = NetworkLink::new(format!("m{m}"), NetworkConfig::lan());
        let source = NetworkedDataSource::reliable(spy, link);
        head.add_linked_server(&format!("m{m}"), Arc::new(source))
            .unwrap();
        members.push((Some(format!("m{m}")), table, member_domain(lo, hi)));
    }
    head.define_partitioned_view("t", "id", members).unwrap();
    head
}

fn named(rows: &[i64]) -> Vec<(i64, String)> {
    rows.iter().map(|&id| (id, format!("r{id}"))).collect()
}

/// Fault (a): SQL checks a unique key once the statement's old keys have
/// left, so shifting every id by one is no clash. Row by row, 1 → 2 met
/// the 2 that was about to leave, and the statement was refused.
#[test]
fn a_statement_checks_unique_keys_once_its_old_keys_have_left() {
    let engine = keyed_table(&[1, 2]);
    assert_eq!(affected(&engine, "UPDATE t SET id = id + 1", &[]), Ok(2));
    assert_eq!(
        keyed_rows(&engine, "t"),
        [(2, "r1".to_string()), (3, "r2".to_string())]
    );
    // Two rows trade keys.
    assert_eq!(affected(&engine, "UPDATE t SET id = 5 - id", &[]), Ok(2));
    assert_eq!(
        keyed_rows(&engine, "t"),
        [(2, "r2".to_string()), (3, "r1".to_string())]
    );
}

/// Fault (b): a multi-row INSERT refused by its second row leaves no row
/// behind; the first one stayed.
#[test]
fn a_refused_insert_leaves_no_row_behind() {
    let engine = keyed_table(&[1, 2]);
    let sql = "INSERT INTO t VALUES (10, 'x'), (1, 'y'), (11, 'z')";
    assert_eq!(affected(&engine, sql, &[]), Err("constraint".to_string()));
    assert_eq!(keyed_rows(&engine, "t"), named(&[1, 2]));
}

/// Fault (c): an UPDATE refused by its second row leaves the first as it
/// was; it was rewritten, 1 → 5.
#[test]
fn a_refused_update_leaves_every_row_as_it_was() {
    let engine = keyed_table(&[1, 2, 10]);
    let sql = "UPDATE t SET id = id * 5 WHERE id < 10";
    assert_eq!(affected(&engine, sql, &[]), Err("constraint".to_string()));
    assert_eq!(keyed_rows(&engine, "t"), named(&[1, 2, 10]));
}

/// Faults (a) to (c) where each statement writes two members on two
/// servers: one distributed transaction, every member's writes admitted
/// at prepare, whether the members take the text or the head writes the
/// rows it located.
#[test]
fn the_same_statements_agree_inside_a_two_member_distributed_transaction() {
    for sql_level in [SqlLevel::Native, SqlLevel::OdbcCore] {
        let engine = keyed_pair(&[1, 2, 101, 102], sql_level);
        let sql = "UPDATE t SET id = id + 1";
        assert_eq!(affected(&engine, sql, &[]), Ok(4));
        assert_eq!(
            keyed_rows(&engine, "t"),
            [
                (2, "r1".to_string()),
                (3, "r2".to_string()),
                (102, "r101".to_string()),
                (103, "r102".to_string())
            ]
        );

        let engine = keyed_pair(&[1, 2, 101], sql_level);
        let sql = "INSERT INTO t VALUES (10, 'x'), (1, 'y'), (110, 'z')";
        assert_eq!(affected(&engine, sql, &[]), Err("transaction".to_string()));
        assert_eq!(keyed_rows(&engine, "t"), named(&[1, 2, 101]));

        let engine = keyed_pair(&[1, 2, 10, 101, 102, 110], sql_level);
        let sql = "UPDATE t SET id = id + 8 WHERE id IN (1, 2, 101, 102)";
        assert_eq!(affected(&engine, sql, &[]), Err("transaction".to_string()));
        assert_eq!(keyed_rows(&engine, "t"), named(&[1, 2, 10, 101, 102, 110]));
        let (commits, aborts) = engine.dtc().stats();
        assert_eq!((commits, aborts), (0, 1));
    }
}

/// Fault (d): a row that moves between two members of a view on one server
/// is a delete at one and an insert at the other. The insert was refused
/// and the delete had applied, so the row was gone; now the two run in one
/// transaction, whose commit rides the insert, and a refusal undoes both.
#[test]
fn a_refused_move_between_members_on_one_server_changes_nothing() {
    let local = Engine::new("solo-view");
    let one_server = Engine::new("head");
    let member = Engine::new("member0");
    for (engine, storage, server) in [
        (&local, local.storage(), None),
        (&one_server, member.storage(), Some("m0".to_string())),
    ] {
        create_keyed(storage, "p_low", &[1], Some((0, 99)));
        create_keyed(storage, "p_high", &[101], Some((100, 199)));
        if server.is_some() {
            let source = Arc::new(EngineDataSource::new(member.clone()));
            let link = NetworkLink::new("m0", NetworkConfig::lan());
            let source = NetworkedDataSource::reliable(source, link);
            engine.add_linked_server("m0", Arc::new(source)).unwrap();
        }
        let members = vec![
            (server.clone(), "p_low".to_string(), member_domain(0, 99)),
            (
                server.clone(),
                "p_high".to_string(),
                member_domain(100, 199),
            ),
        ];
        engine
            .define_partitioned_view("all_k", "id", members)
            .unwrap();
        let name = if server.is_some() {
            "one server"
        } else {
            "local view"
        };

        let sql = "UPDATE all_k SET id = 101 WHERE id = 1";
        let refused = affected(engine, sql, &[]);
        assert!(refused.is_err(), "{name}");
        assert_eq!(keyed_rows(engine, "all_k"), named(&[1, 101]), "{name}");
        assert_eq!(refused, Err("transaction".to_string()), "{name}");
        assert_eq!(engine.dtc().stats(), (0, 1), "{name}");

        // A move that is admitted commits whole.
        let sql = "UPDATE all_k SET id = 150 WHERE id = 1";
        assert_eq!(affected(engine, sql, &[]), Ok(1), "{name}");
        let moved = [(101, "r101".to_string()), (150, "r1".to_string())];
        assert_eq!(keyed_rows(engine, "all_k"), moved, "{name}");
        assert_eq!(engine.dtc().stats(), (1, 1), "{name}");
        // One request, to one table: no transaction.
        let sql = "UPDATE all_k SET name = 'same' WHERE id = 150";
        assert_eq!(affected(engine, sql, &[]), Ok(1), "{name}");
        assert_eq!(engine.dtc().stats(), (1, 1), "{name}");
    }
}

type Hook = Arc<Mutex<Option<Box<dyn FnOnce() + Send>>>>;

/// Runs the hook it holds, if any, when its next rowset is opened.
struct OnRead(Arc<dyn DataSource>, Hook);

impl SourceLayer for OnRead {
    fn inner(&self) -> &dyn DataSource {
        &*self.0
    }
    fn session(&self) -> Result<Box<dyn Session>> {
        let inner = self.0.create_session()?;
        Ok(Box::new(OnReadSession(inner, Arc::clone(&self.1))))
    }
}

struct OnReadSession(Box<dyn Session>, Hook);

impl SessionLayer for OnReadSession {
    fn call(&mut self, verb: Verb<'_>) -> Result<Reply> {
        if matches!(verb, Verb::OpenIndex(..) | Verb::OpenRowset(..)) {
            let hook = self.1.lock().unwrap().take();
            hook.into_iter().for_each(|hook| hook());
        }
        verb.send(&mut *self.0)
    }
}

/// A partition-key UPDATE writes a moved row through the linked server the
/// statement bound for its destination: the name re-registered while the
/// statement locates its rows sends the row nowhere else.
#[test]
fn a_moved_row_lands_in_the_registration_the_statement_bound() {
    let head = Engine::new("head");
    let (a, b, later) = (Engine::new("a"), Engine::new("b"), Engine::new("later"));
    let members = vec![
        create_member(a.storage(), 0, Some("a".into())),
        create_member(b.storage(), 1, Some("b".into())),
    ];
    create_member(later.storage(), 1, None);
    later.execute("DELETE FROM acct_1").unwrap();
    let hook = Hook::default();
    let at_a = OnRead(Arc::new(EngineDataSource::new(a)), Arc::clone(&hook));
    head.add_linked_server("a", Arc::new(at_a)).unwrap();
    head.add_linked_server("b", Arc::new(EngineDataSource::new(b.clone())))
        .unwrap();
    head.define_partitioned_view("acct_all", "id", members)
        .unwrap();
    affected(&head, "DELETE FROM acct_all WHERE id = 60", &[]).unwrap();

    let (engine, replacement) = (head.clone(), later.clone());
    *hook.lock().unwrap() = Some(Box::new(move || {
        let source = Arc::new(EngineDataSource::new(replacement));
        engine.add_linked_server("b", source).unwrap();
    }));
    let sql = "UPDATE acct_all SET id = 60 WHERE id = 10";
    assert_eq!(affected(&head, sql, &[]), Ok(1));
    assert!(hook.lock().unwrap().is_none(), "b was re-registered");
    let ids = |engine: &Engine| {
        engine
            .query("SELECT id FROM acct_1 WHERE id = 60")
            .unwrap()
            .len()
    };
    assert_eq!((ids(&b), ids(&later)), (1, 0));
}

/// An UPDATE under a transaction replaces each row in place, as under
/// autocommit: every row keeps its bookmark, and after N committed UPDATEs
/// of a member's row the member's next insert gets bookmark k, its row
/// count — not k + N, as when a buffered UPDATE was a delete and an insert
/// and every one left a dead slot behind.
#[test]
fn a_transactional_update_keeps_its_bookmark() {
    const UPDATES: u64 = 5;
    let k = PER_MEMBER as u64;
    for fed in [
        pushing(2, true),
        federation_on(2, IndexAccess::Native, true, true),
    ] {
        let bookmarks = |server: &Engine, table: &str| -> Vec<u64> {
            let rows = server.storage().with_table(table, |t| t.scan_rows());
            rows.unwrap().iter().map(|r| r.bookmark.unwrap()).collect()
        };
        let (m0, m1) = (&fed.servers[0], &fed.servers[1]);
        let before = [bookmarks(m0, "acct_0"), bookmarks(m1, "acct_1")];
        let commits = fed.head.dtc().stats().0;
        for _ in 0..UPDATES {
            let sql = "UPDATE acct_all SET balance = balance + 1 WHERE id IN (7, 57)";
            assert_eq!(affected(&fed.head, sql, &[]), Ok(2));
        }
        assert_eq!(fed.head.dtc().stats().0 - commits, UPDATES);
        assert_eq!([bookmarks(m0, "acct_0"), bookmarks(m1, "acct_1")], before);
        let balance = fed
            .head
            .query("SELECT balance FROM acct_all WHERE id = 57")
            .unwrap();
        assert_eq!(balance.rows[0].values, [Value::Int(100 + UPDATES as i64)]);

        // Row 49 leaves and comes back: the slot it gets is the next one.
        let storage = m0.storage();
        storage
            .write(None, "acct_0", Batch::Delete(vec![49].into()))
            .unwrap();
        let row = Row::new(vec![
            Value::Int(49),
            Value::Int(100),
            Value::Null,
            Value::Null,
        ]);
        storage.insert_rows("acct_0", &[row]).unwrap();
        assert_eq!(bookmarks(m0, "acct_0").last(), Some(&k));
    }
}
