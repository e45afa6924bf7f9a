//! Pooled linked-server sessions (DESIGN.md "Session pool"): a remote open
//! connects only when its server has no idle session, a session that may
//! be broken or that still carries a distributed transaction never
//! re-enters the pool, and none of it changes an answer.
//!
//! Every count below is read from the links (`NetworkLink::snapshot`) and
//! from the pools' own counters (`sys.dm_link_stats`, `Engine::metrics`);
//! links are `reliable` (no fault plan, whatever `DHQP_FAULT_SEED` says)
//! unless a test arms one explicitly.

use dhqp::{Engine, EngineDataSource, FaultConfig, ParallelConfig, RetryPolicy};
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
use dhqp_oledb::{DataSource, ProviderCapabilities, RowsetExt, SourceLayer, MAX_IDLE_SESSIONS};
use dhqp_storage::{CheckConstraint, StorageEngine, TableDef};
use dhqp_types::{Column, DataType, Interval, IntervalSet, Row, Schema, Value};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const MEMBERS: i64 = 2;
const PER_MEMBER: i64 = 50;

fn balance_of(id: i64) -> i64 {
    1000 + 3 * id
}

fn create_accounts(storage: &StorageEngine, table: &str, lo: i64, hi: i64, check: bool) {
    let mut def = TableDef::new(
        table,
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::not_null("balance", DataType::Int),
        ]),
    )
    .with_index(&format!("pk_{table}"), &["id"], true);
    if check {
        def = def.with_check(CheckConstraint {
            name: format!("ck_{table}"),
            column: "id".into(),
            domain: IntervalSet::single(Interval::between(Value::Int(lo), Value::Int(hi))),
        });
    }
    storage.create_table(def).unwrap();
    let rows: Vec<Row> = (lo..=hi)
        .map(|id| Row::new(vec![Value::Int(id), Value::Int(balance_of(id))]))
        .collect();
    storage.insert_rows(table, &rows).unwrap();
}

/// A member as a provider without the statistics extension: fetching its
/// table metadata is one `tables()` request and opens no session, so the
/// pool is still cold when the first statement runs.
struct NoStatistics(EngineDataSource);

impl SourceLayer for NoStatistics {
    fn inner(&self) -> &dyn DataSource {
        &self.0
    }

    fn advertise(&self, caps: ProviderCapabilities) -> ProviderCapabilities {
        ProviderCapabilities {
            statistics_support: false,
            ..caps
        }
    }
}

/// A head engine with `acct_all` over `acct_0`/`acct_1` on the linked
/// servers `m0`/`m1`, ids `[50·i, 50·i + 49]`.
struct Federation {
    head: Engine,
    members: Vec<Engine>,
    links: Vec<NetworkLink>,
}

/// What a member's provider and link look like.
#[derive(Clone, Copy)]
enum Member {
    /// The engine's own provider behind a link with no fault plan.
    Reliable,
    /// The same, behind a link armed with this plan.
    Faulty(FaultConfig),
    /// [`NoStatistics`] behind a link with no fault plan.
    ColdPool,
}

fn member_source(engine: &Engine, link: &NetworkLink, kind: Member) -> Arc<dyn DataSource> {
    let provider = EngineDataSource::new(engine.clone());
    Arc::new(match kind {
        Member::Reliable => NetworkedDataSource::reliable(Arc::new(provider), link.clone()),
        Member::Faulty(plan) => {
            NetworkedDataSource::with_faults(Arc::new(provider), link.clone(), plan)
        }
        Member::ColdPool => {
            NetworkedDataSource::reliable(Arc::new(NoStatistics(provider)), link.clone())
        }
    })
}

fn federation(kind: impl Fn(usize) -> Member) -> Federation {
    federation_of(MEMBERS, kind)
}

/// The same over `members` linked servers.
fn federation_of(members: i64, kind: impl Fn(usize) -> Member) -> Federation {
    let member_count = members;
    let head = Engine::new("head");
    // Counts below are per statement and serial; retries must not sleep.
    head.set_parallel_config(ParallelConfig::serial());
    head.set_retry_policy(RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        attempt_deadline: None,
        query_deadline: None,
    });
    let (mut members, mut links, mut view_members) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..member_count {
        let member = Engine::new(format!("member{i}"));
        let (lo, hi) = (i * PER_MEMBER, (i + 1) * PER_MEMBER - 1);
        let table = format!("acct_{i}");
        create_accounts(member.storage(), &table, lo, hi, true);
        let link = NetworkLink::new(format!("m{i}"), NetworkConfig::lan());
        let source = member_source(&member, &link, kind(i as usize));
        head.add_linked_server(&format!("m{i}"), source).unwrap();
        view_members.push((
            Some(format!("m{i}")),
            table,
            IntervalSet::single(Interval::between(Value::Int(lo), Value::Int(hi))),
        ));
        members.push(member);
        links.push(link);
    }
    head.define_partitioned_view("acct_all", "id", view_members)
        .unwrap();
    Federation {
        head,
        members,
        links,
    }
}

/// Every account in one plain local table: the reference for answers.
fn unfederated() -> Engine {
    unfederated_of(MEMBERS)
}

fn unfederated_of(members: i64) -> Engine {
    let engine = Engine::new("solo");
    create_accounts(
        engine.storage(),
        "acct_all",
        0,
        members * PER_MEMBER - 1,
        false,
    );
    engine
}

/// One server's pool, as `sys.dm_link_stats` reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pool {
    connects: u64,
    idle: u64,
}

impl Federation {
    fn pools(&self) -> Vec<Pool> {
        let stats = self
            .head
            .query("SELECT name, connects, sessions_idle FROM sys.dm_link_stats ORDER BY name")
            .unwrap();
        assert_eq!(stats.len(), self.links.len());
        let int = |v: &Value| match v {
            Value::Int(n) => *n as u64,
            other => panic!("expected an integer, got {other:?}"),
        };
        stats
            .rows
            .iter()
            .map(|r| Pool {
                connects: int(r.get(1)),
                idle: int(r.get(2)),
            })
            .collect()
    }

    fn requests(&self) -> Vec<u64> {
        self.links.iter().map(|l| l.snapshot().requests).collect()
    }

    /// The point lookup of `id` by the four-part name of its member table
    /// (no view in front).
    fn lookup_sql(id: i64) -> String {
        let m = id / PER_MEMBER;
        format!("SELECT id, balance FROM m{m}.db.dbo.acct_{m} WHERE id = {id}")
    }
}

/// Rows as a sorted multiset of rendered values.
fn multiset(engine: &Engine, sql: &str) -> Vec<String> {
    let mut rows: Vec<String> = engine
        .query(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .rows
        .iter()
        .map(|r| format!("{:?}", r.values))
        .collect();
    rows.sort();
    rows
}

#[test]
fn first_lookup_connects_and_later_ones_reuse_the_session() {
    let fed = federation(|_| Member::ColdPool);
    let oracle = unfederated();
    assert_eq!(
        fed.pools(),
        [Pool {
            connects: 0,
            idle: 0
        }; 2]
    );

    let mut before = fed.requests();
    for (nth, id) in [7, 7, 31, 0, 49].into_iter().enumerate() {
        assert_eq!(
            multiset(&fed.head, &Federation::lookup_sql(id)),
            multiset(
                &oracle,
                &format!("SELECT id, balance FROM acct_all WHERE id = {id}")
            )
        );
        let after = fed.requests();
        let expected = if nth == 0 { 2 } else { 1 };
        assert_eq!(after[0] - before[0], expected, "lookup #{nth}");
        assert_eq!(after[1], before[1], "m1 is not touched");
        before = after;
    }
    assert_eq!(
        fed.pools()[0],
        Pool {
            connects: 1,
            idle: 1
        }
    );
    let m = fed.head.metrics();
    assert_eq!((m.session_connects, m.session_reuses), (1, 4));

    // The counters reset with the rest of the metrics; the pool does not.
    fed.head.reset_metrics();
    let m = fed.head.metrics();
    assert_eq!((m.session_connects, m.session_reuses), (0, 0));
    assert_eq!(
        fed.pools()[0],
        Pool {
            connects: 0,
            idle: 1
        }
    );
    fed.head.query(&Federation::lookup_sql(8)).unwrap();
    assert_eq!(fed.requests()[0] - before[0], 1, "still warm");
    assert_eq!(fed.head.metrics().session_reuses, 1);

    // Both engines list the counters, and no knob came with the pool.
    let counters = fed
        .head
        .query("SELECT name FROM sys.dm_os_counters WHERE name LIKE 'session_%'")
        .unwrap();
    assert_eq!(counters.len(), 2);
    assert_eq!(
        oracle.query("SELECT * FROM sys.dm_os_knobs").unwrap().len(),
        24
    );
}

/// With the session pooled and the schema stamp riding the open, a warm
/// read through the view costs what the plan costs: one request per member
/// it opens — the open itself — on whichever thread that open runs.
#[test]
fn a_warm_view_read_costs_one_request_per_member_it_opens() {
    let oracle = unfederated_of(4);
    let range = "SELECT id, balance FROM acct_all WHERE balance >= 0";
    let point = "SELECT id, balance FROM acct_all WHERE id = 77";
    for parallel in [ParallelConfig::serial(), ParallelConfig::parallel()] {
        let fed = federation_of(4, |_| Member::Reliable);
        fed.head.set_parallel_config(parallel.clone());
        // Twice each: plans cached, one session idle in every pool.
        for sql in [range, point, range, point] {
            assert_eq!(multiset(&fed.head, sql), multiset(&oracle, sql));
        }
        let cost = |sql: &str| -> Vec<u64> {
            let before = fed.requests();
            fed.head.query(sql).unwrap();
            let after = fed.requests();
            after.iter().zip(&before).map(|(a, b)| a - b).collect()
        };
        assert_eq!(cost(range), [1, 1, 1, 1], "{parallel:?}");
        assert_eq!(cost(point), [0, 1, 0, 0], "{parallel:?}");
        let m = fed.head.metrics();
        assert_eq!(m.session_connects, 4, "{parallel:?}: {m:?}");
    }
}

#[test]
fn a_dropped_stream_is_retried_on_another_session() {
    let drop_once = FaultConfig {
        seed: 5,
        stream_drops: 1.0,
        max_faults: 1,
        ..FaultConfig::none()
    };
    let fed = federation(|i| {
        if i == 0 {
            Member::Faulty(drop_once)
        } else {
            Member::Reliable
        }
    });
    let oracle = unfederated();
    let scan = "SELECT id, balance FROM m0.db.dbo.acct_0";
    let want = multiset(&oracle, "SELECT id, balance FROM acct_all WHERE id < 50");

    // The fixture's statistics fetch left one session idle.
    let warm = fed.pools()[0];
    assert_eq!(
        warm,
        Pool {
            connects: 1,
            idle: 1
        }
    );

    // The stream drops after a few rows; the retry layer reopens and
    // rewinds. The reopen cannot draw the dropped session (it is still
    // checked out, and broken) ...
    assert_eq!(multiset(&fed.head, scan), want);
    assert_eq!(fed.links[0].faults_injected(), 1);
    assert_eq!(fed.head.metrics().remote_retries, 1);
    // ... so it connected, and the broken one was closed, not checked in.
    assert_eq!(
        fed.pools()[0],
        Pool {
            connects: 2,
            idle: 1
        }
    );

    // Steady again: same answer, no connect, same idle count.
    let before = fed.requests();
    assert_eq!(multiset(&fed.head, scan), want);
    assert_eq!(fed.requests()[0] - before[0], 1);
    assert_eq!(
        fed.pools()[0],
        Pool {
            connects: 2,
            idle: 1
        }
    );
}

#[test]
fn a_session_is_open_to_injection_again_after_its_transaction_commits() {
    // One command error, reads only: 2PC traffic is exempt, so the budget
    // is still whole when the cross-member UPDATE has committed.
    let fed = federation(|i| {
        if i == 0 {
            Member::Faulty(FaultConfig::one_transient_per_link(9))
        } else {
            Member::Reliable
        }
    });
    let n = fed
        .head
        .execute("UPDATE acct_all SET balance = balance + 1 WHERE id IN (10, 60)")
        .unwrap()
        .rows_affected;
    assert_eq!(n, Some(2));
    assert_eq!(fed.head.dtc().stats(), (1, 0));
    assert_eq!(fed.links[0].faults_injected(), 0);
    // Both participants are back in their pools, on the session the
    // statistics fetch had connected.
    assert_eq!(
        fed.pools(),
        [Pool {
            connects: 1,
            idle: 1
        }; 2]
    );

    // The read draws m0's once-enlisted session. It is an ordinary session
    // again: the fault fires (and is retried on a fresh connection).
    let got = fed.head.query(&Federation::lookup_sql(10)).unwrap();
    assert_eq!(got.value(0, 1), &Value::Int(balance_of(10) + 1));
    assert_eq!(
        fed.links[0].faults_injected(),
        1,
        "a session that stayed exempt after commit would never fault"
    );
    assert_eq!(
        fed.pools()[0],
        Pool {
            connects: 2,
            idle: 1
        }
    );
}

/// The same when the transaction's commit rode the faulty member's write:
/// the answer to that write ends the enlistment on the link and in the pool,
/// with no `commit` message to do it.
#[test]
fn a_session_that_committed_with_its_write_is_open_to_injection_again() {
    let fed = federation(|i| {
        if i == 1 {
            Member::Faulty(FaultConfig::one_transient_per_link(9))
        } else {
            Member::Reliable
        }
    });
    let n = fed
        .head
        .execute("UPDATE acct_all SET balance = balance + 1 WHERE id IN (10, 60)")
        .unwrap()
        .rows_affected;
    assert_eq!(n, Some(2));
    let m = fed.head.metrics();
    assert_eq!((m.dtc_commits, m.dtc_commits_ridden), (1, 1));
    assert_eq!(fed.links[1].faults_injected(), 0);
    assert_eq!(
        fed.pools(),
        [Pool {
            connects: 1,
            idle: 1
        }; 2]
    );

    // The read draws m1's once-enlisted session, and the fault fires.
    let got = fed.head.query(&Federation::lookup_sql(60)).unwrap();
    assert_eq!(got.value(0, 1), &Value::Int(balance_of(60) + 1));
    assert_eq!(
        fed.links[1].faults_injected(),
        1,
        "a session that stayed exempt after its ridden commit would never fault"
    );
    assert_eq!(
        fed.pools()[1],
        Pool {
            connects: 2,
            idle: 1
        }
    );
}

/// Every participant's session goes back to its pool, the decider's
/// included: a steady stream of two-member writes connects once per member.
#[test]
fn two_member_writes_reuse_their_sessions() {
    let fed = federation(|_| Member::Reliable);
    let sql = "UPDATE acct_all SET balance = balance + 1 WHERE id IN (10, 60)";
    fed.head.execute(sql).unwrap();
    let connects = fed.head.metrics().session_connects;
    for _ in 0..100 {
        fed.head.execute(sql).unwrap();
    }
    let m = fed.head.metrics();
    assert_eq!(m.session_connects, connects);
    assert_eq!((m.dtc_commits, m.dtc_commits_ridden), (101, 101));
    let got = fed.head.query(&Federation::lookup_sql(60)).unwrap();
    assert_eq!(got.value(0, 1), &Value::Int(balance_of(60) + 101));
}

#[test]
fn an_in_doubt_participant_stays_out_of_the_pool_until_recovery() {
    let fed = federation(|_| Member::Reliable);
    assert_eq!(
        fed.pools(),
        [Pool {
            connects: 1,
            idle: 1
        }; 2]
    );

    // m1 writes last and commits with its write, so only m0 — told the
    // outcome in a message of its own — can miss it.
    fed.members[0].storage().set_fail_commit(true);
    let err = fed
        .head
        .execute("UPDATE acct_all SET balance = balance + 1 WHERE id IN (10, 60)")
        .unwrap_err();
    assert!(err.to_string().contains("in doubt"), "{err}");
    assert_eq!(fed.head.metrics().dtc_in_doubt, 1);
    // m1 committed and is idle again; m0's session is parked in the
    // coordinator with its prepared transaction.
    assert_eq!(
        fed.pools(),
        [
            Pool {
                connects: 1,
                idle: 0
            },
            Pool {
                connects: 1,
                idle: 1
            }
        ]
    );

    // Work on m0 meanwhile gets a session of its own.
    fed.head.query(&Federation::lookup_sql(11)).unwrap();
    assert_eq!(
        fed.pools()[0],
        Pool {
            connects: 2,
            idle: 1
        }
    );

    // Recovery that cannot deliver keeps the session; one that can
    // releases it into the pool.
    assert_eq!(fed.head.dtc().recover().still_in_doubt, 1);
    assert_eq!(fed.pools()[0].idle, 1);
    fed.members[0].storage().set_fail_commit(false);
    assert_eq!(fed.head.dtc().recover().resolved, 1);
    assert_eq!(
        fed.pools()[0],
        Pool {
            connects: 2,
            idle: 2
        }
    );
    let got = fed.head.query(&Federation::lookup_sql(10)).unwrap();
    assert_eq!(got.value(0, 1), &Value::Int(balance_of(10) + 1));
}

#[test]
fn re_registering_a_server_drops_its_pool() {
    let fed = federation(|_| Member::Reliable);
    fed.head.query(&Federation::lookup_sql(7)).unwrap();
    assert_eq!(
        fed.pools()[0],
        Pool {
            connects: 1,
            idle: 1
        }
    );
    let old_requests = fed.requests()[0];
    let connects_so_far = fed.head.metrics().session_connects;

    // Point `m0` at another engine holding different balances.
    let replacement = Engine::new("replacement");
    create_accounts(replacement.storage(), "acct_0", 0, PER_MEMBER - 1, true);
    replacement
        .execute("UPDATE acct_0 SET balance = 0 - id")
        .unwrap();
    let link = NetworkLink::new("m0-new", NetworkConfig::lan());
    let source = member_source(&replacement, &link, Member::ColdPool);
    let old = Arc::downgrade(&fed.head.linked_server("m0").unwrap());
    fed.head.add_linked_server("m0", source).unwrap();

    // The old pool went with the registration, idle session included ...
    assert!(
        old.upgrade().is_none(),
        "something still holds the old pool"
    );
    assert_eq!(
        fed.pools()[0],
        Pool {
            connects: 0,
            idle: 0
        }
    );
    // ... but not its share of the engine-wide totals, which only a reset
    // may take back down.
    assert_eq!(fed.head.metrics().session_connects, connects_so_far);
    // The next open connects to the new source.
    let got = fed.head.query(&Federation::lookup_sql(7)).unwrap();
    assert_eq!(got.value(0, 1), &Value::Int(-7));
    assert_eq!(fed.head.metrics().session_connects, connects_so_far + 1);
    assert_eq!(
        fed.pools()[0],
        Pool {
            connects: 1,
            idle: 1
        }
    );
    assert_eq!(
        fed.requests()[0],
        old_requests,
        "nothing more on the old link"
    );
    // Metadata, connect, execute.
    assert_eq!(link.snapshot().requests, 3);
}

#[test]
fn four_threads_share_one_engine_and_its_pools() {
    const THREADS: usize = 4;
    const LOOKUPS: usize = 200;
    let fed = federation(|_| Member::Reliable);
    let oracle = unfederated();
    // Compile once per member table, so the threads run plan-cache hits
    // (or, with the cache off, recompiles against cached metadata).
    for id in [0, PER_MEMBER] {
        fed.head.query(&Federation::lookup_sql(id)).unwrap();
    }
    let pools = fed.pools();
    let requests = fed.requests();
    let statements = fed.head.metrics().selects;

    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (head, oracle, start) = (fed.head.clone(), &oracle, &start);
            scope.spawn(move || {
                start.wait();
                for k in 0..LOOKUPS {
                    let id = ((t * LOOKUPS + k) * 37 % (MEMBERS * PER_MEMBER) as usize) as i64;
                    assert_eq!(
                        multiset(&head, &Federation::lookup_sql(id)),
                        multiset(
                            oracle,
                            &format!("SELECT id, balance FROM acct_all WHERE id = {id}")
                        ),
                        "thread {t}, lookup {k}"
                    );
                }
            });
        }
    });

    let ran = (THREADS * LOOKUPS) as u64;
    assert_eq!(fed.head.metrics().selects - statements, ran);
    let after = fed.pools();
    let mut connects = 0;
    for (m, (now, then)) in after.iter().zip(&pools).enumerate() {
        assert!(
            now.connects <= THREADS as u64,
            "m{m}: at most one session per concurrent statement: {now:?}"
        );
        assert!(now.idle <= MAX_IDLE_SESSIONS as u64, "m{m}: {now:?}");
        assert_eq!(now.idle, now.connects, "m{m}: every session came back");
        connects += now.connects - then.connects;
    }
    // One request per statement, plus one per connect: nothing else.
    let sent: u64 = fed
        .requests()
        .iter()
        .zip(&requests)
        .map(|(now, then)| now - then)
        .sum();
    assert_eq!(sent, ran + connects);
}

#[test]
fn an_open_result_keeps_its_session_to_itself() {
    let fed = federation(|_| Member::Reliable);
    let m0 = fed.head.linked_server("m0").unwrap();
    assert_eq!(
        fed.pools()[0],
        Pool {
            connects: 1,
            idle: 1
        }
    );

    // The handle is dropped at the end of the statement; the rowset lives.
    let mut first = m0.create_session().unwrap().open_rowset("acct_0").unwrap();
    assert_eq!(
        fed.pools()[0],
        Pool {
            connects: 1,
            idle: 0
        }
    );
    assert!(first.next().unwrap().is_some());

    // A second open on the same server must not share that session.
    let mut second = m0.create_session().unwrap().open_rowset("acct_0").unwrap();
    assert_eq!(
        fed.pools()[0],
        Pool {
            connects: 2,
            idle: 0
        }
    );
    assert_eq!(second.count_rows().unwrap(), PER_MEMBER as u64);
    assert_eq!(first.count_rows().unwrap(), PER_MEMBER as u64 - 1);

    drop(first);
    assert_eq!(
        fed.pools()[0],
        Pool {
            connects: 2,
            idle: 1
        }
    );
    drop(second);
    assert_eq!(
        fed.pools()[0],
        Pool {
            connects: 2,
            idle: 2
        }
    );
}
