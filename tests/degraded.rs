//! Member health, circuit breakers and graceful degradation: a federation
//! with a dead member must either fail *fast* (one breaker trip instead of
//! a retry storm per query) or, under `DegradedMode::Prune`, answer from
//! the surviving members with an explicit warning — never silently drop
//! rows without saying so.
//!
//! All faults come from seeded [`FaultConfig`] plans, so every run sees
//! the same fault schedule and the same breaker transitions.

use dhqp::{
    BreakerConfig, BreakerState, DegradedMode, Engine, EngineDataSource, EventConfig, EventKind,
    FaultConfig, ParallelConfig, RetryPolicy,
};
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
use dhqp_oledb::{DataSource, ProviderCapabilities, SourceLayer, SqlSupport};
use dhqp_storage::TableDef;
use dhqp_types::{Column, DataType, Row, Schema, Value};
use dhqp_workload::tpch::{self, TpchScale};
use std::sync::Arc;
use std::time::Duration;

/// Head engine federating four members holding the seven `lineitem_9x`
/// partitions, each behind a link armed with `config(member_index)`. Also
/// defines `lineitem_survivors`, the same view minus `skip_member`'s
/// partitions — the reference answer for a degraded run.
fn federation_with_faults(
    skip_member: usize,
    config: impl Fn(usize) -> Option<FaultConfig>,
) -> (Engine, Vec<NetworkLink>) {
    let head = Engine::new("head");
    let members: Vec<Engine> = (1..=4)
        .map(|i| Engine::new(format!("member{i}-engine")))
        .collect();
    let engines: Vec<&dhqp_storage::StorageEngine> =
        members.iter().map(|e| e.storage().as_ref()).collect();
    let parts = tpch::create_lineitem_partitions(&engines, &TpchScale::tiny(), 17).unwrap();

    let mut links = Vec::new();
    for (i, m) in members.iter().enumerate() {
        let link = NetworkLink::new(format!("member{}", i + 1), NetworkConfig::lan());
        let inner: Arc<dyn dhqp_oledb::DataSource> = Arc::new(EngineDataSource::new(m.clone()));
        let wrapped = match config(i) {
            Some(cfg) => NetworkedDataSource::with_faults(inner, link.clone(), cfg),
            None => NetworkedDataSource::reliable(inner, link.clone()),
        };
        head.add_linked_server(&format!("member{}", i + 1), Arc::new(wrapped))
            .unwrap();
        links.push(link);
    }
    let all: Vec<(Option<String>, String, _)> = parts
        .into_iter()
        .map(|(idx, table, domain)| (Some(format!("member{}", idx + 1)), table, domain))
        .collect();
    let survivors: Vec<_> = all
        .iter()
        .filter(|(server, _, _)| server.as_deref() != Some(&format!("member{}", skip_member + 1)))
        .cloned()
        .collect();
    head.define_partitioned_view("lineitem_all", "l_commitdate", all)
        .unwrap();
    head.define_partitioned_view("lineitem_survivors", "l_commitdate", survivors)
        .unwrap();
    (head, links)
}

/// Rows as sorted value vectors: bag equality independent of delivery order.
fn multiset(rows: &[Row], width: usize) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = rows
        .iter()
        .map(|r| (0..width).map(|i| r.get(i).clone()).collect())
        .collect();
    out.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    out
}

const SCAN: &str = "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem_all";
const SURVIVOR_SCAN: &str = "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem_survivors";

fn fast_retries() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        attempt_deadline: None,
        query_deadline: None,
    }
}

/// `DegradedMode::Prune`: the dead member's partitions are skipped, the
/// surviving multiset is exact, and the degradation is loudly visible in
/// EXPLAIN ANALYZE and `sys.dm_exec_requests`.
#[test]
fn prune_mode_answers_from_surviving_members() {
    // Reference: the same data with member 2's partitions excluded at
    // view-definition time (what a correct prune must reproduce).
    let (clean, _links) = federation_with_faults(1, |_| None);
    let expected = multiset(&clean.query(SURVIVOR_SCAN).unwrap().rows, 3);
    let all_rows = clean.query(SCAN).unwrap().rows.len();
    assert!(expected.len() < all_rows, "member 2 must hold rows");

    for parallel in [false, true] {
        let (head, _links) = federation_with_faults(1, |i| (i == 1).then(|| FaultConfig::dead(21)));
        head.set_retry_policy(fast_retries());
        head.set_degraded_mode(DegradedMode::Prune);
        head.set_parallel_config(if parallel {
            ParallelConfig::parallel()
        } else {
            ParallelConfig::serial()
        });

        // First run burns the retry budget on member2, trips its breaker,
        // and prunes it; the answer is exactly the survivors' rows.
        let got = head.query(SCAN).unwrap();
        assert_eq!(
            multiset(&got.rows, 3),
            expected,
            "pruned run must equal the survivors view (parallel={parallel})"
        );
        let m = head.metrics();
        assert!(m.members_pruned >= 1, "parallel={parallel}: {m:?}");

        // Second run hits an Open breaker: pruned again, this time via
        // fail-fast (no fresh retry storm), and EXPLAIN ANALYZE says so.
        let report = head.execute_analyze(SCAN).unwrap();
        assert_eq!(multiset(&report.result.rows, 3), expected);
        assert_eq!(report.record.pruned, vec!["member2".to_string()]);
        let rendered = report.render();
        assert!(
            rendered.contains("[degraded: pruned members=member2]"),
            "parallel={parallel}:\n{rendered}"
        );
        let m = head.metrics();
        assert!(m.breaker_fast_fails >= 1, "parallel={parallel}: {m:?}");

        // The statement ring records how many members each query lost.
        let r = head
            .query("SELECT sql, pruned_members FROM sys.dm_exec_requests")
            .unwrap();
        assert!(
            r.rows
                .iter()
                .any(|row| matches!(row.get(1), Value::Int(n) if *n >= 1)),
            "parallel={parallel}: {r:?}"
        );
    }
}

/// Default `DegradedMode::Fail`: the first query burns one retry budget
/// and trips the breaker; later queries reject in O(1) without touching
/// the wire, surfacing a breaker error and the CIRCUIT_OPEN wait class.
#[test]
fn fail_mode_fails_fast_after_one_breaker_trip() {
    let (head, _links) = federation_with_faults(1, |i| (i == 1).then(|| FaultConfig::dead(5)));
    // Pin the policy: the suite may run under DHQP_DEGRADED=prune.
    head.set_degraded_mode(DegradedMode::Fail);
    // ... and the dispatch: the dead member holds two partitions, which
    // exchange workers (DHQP_PARALLEL=1) would fail concurrently, each
    // burning its own retry budget; the counts below are serial ones.
    head.set_parallel_config(ParallelConfig::serial());
    head.set_retry_policy(fast_retries());

    // Query 1: a full retry budget, then the give-up reason chain.
    let err = head.query(SCAN).unwrap_err();
    assert_eq!(err.kind(), "unavailable", "{err}");
    assert!(
        err.message().contains("giving up after 3 attempts"),
        "{err}"
    );
    assert!(
        err.message().contains("last error kind: unavailable"),
        "{err}"
    );
    let m1 = head.metrics();
    assert_eq!(m1.remote_transient_errors, 3, "{m1:?}");

    // Query 2: the breaker is Open — no new wire attempts, no new retries.
    let err = head.query(SCAN).unwrap_err();
    assert_eq!(err.kind(), "unavailable", "{err}");
    assert!(err.message().contains("circuit breaker open"), "{err}");
    let m2 = head.metrics();
    assert_eq!(
        m2.remote_transient_errors, m1.remote_transient_errors,
        "fail-fast must not touch the wire: {m2:?}"
    );
    assert!(m2.breaker_fast_fails >= 1, "{m2:?}");

    // The rejection is accounted as a CIRCUIT_OPEN wait...
    let r = head
        .query(
            "SELECT wait_type, waiting_tasks_count FROM sys.dm_os_wait_stats \
             WHERE wait_type = 'CIRCUIT_OPEN'",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert!(matches!(r.value(0, 1), Value::Int(n) if *n >= 1), "{r:?}");

    // ...and the health registry shows exactly one trip.
    let health = head.link_health();
    assert_eq!(health.len(), 4, "{health:?}");
    let sick = health.iter().find(|l| l.server == "member2").unwrap();
    assert_eq!(sick.state, BreakerState::Open, "{sick:?}");
    assert_eq!(sick.opens, 1, "{sick:?}");
    assert!(sick.consecutive_failures >= 1, "{sick:?}");
    assert!(sick.last_error.is_some(), "{sick:?}");
    for l in health.iter().filter(|l| l.server != "member2") {
        assert_eq!(l.state, BreakerState::Closed, "{l:?}");
    }
}

/// The deterministic cooldown: an Open breaker absorbs `cooldown`
/// rejected admissions, then lets one probe through; a successful probe
/// closes the breaker and the member serves traffic again.
#[test]
fn cooldown_probe_readmits_recovered_member() {
    let (clean, _links) = federation_with_faults(1, |_| None);
    let expected = multiset(&clean.query(SCAN).unwrap().rows, 3);

    // Member 2 fails exactly 3 commands (= one full retry budget), then
    // recovers: the outage is real but transient.
    let (head, _links) = federation_with_faults(1, |i| {
        (i == 1).then(|| FaultConfig {
            seed: 13,
            command_errors: 1.0,
            max_faults: 3,
            ..FaultConfig::none()
        })
    });
    head.set_degraded_mode(DegradedMode::Fail);
    // The counts below are serial ones: under DHQP_PARALLEL=1 the dead
    // member's two partitions fail concurrently, each with its own budget.
    head.set_parallel_config(ParallelConfig::serial());
    head.set_retry_policy(fast_retries());
    head.set_event_config(EventConfig::all());
    let cooldown = head.breaker_config().cooldown;

    // Trip: the give-up opens the breaker.
    head.query(SCAN).unwrap_err();
    assert_eq!(
        head.link_health()
            .iter()
            .find(|l| l.server == "member2")
            .unwrap()
            .state,
        BreakerState::Open
    );

    // Cooldown: the next `cooldown` admissions are rejected outright.
    for i in 0..cooldown {
        let err = head.query(SCAN).unwrap_err();
        assert!(
            err.message().contains("circuit breaker open"),
            "query {i}: {err}"
        );
    }

    // Probe: the next admission goes through, succeeds (the fault budget
    // is spent), closes the breaker, and the full answer is back.
    let got = head.query(SCAN).unwrap();
    assert_eq!(multiset(&got.rows, 3), expected);
    let sick = head
        .link_health()
        .into_iter()
        .find(|l| l.server == "member2")
        .unwrap();
    assert_eq!(sick.state, BreakerState::Closed, "{sick:?}");
    assert_eq!(sick.opens, 1, "{sick:?}");
    assert_eq!(sick.probes, 1, "{sick:?}");

    // The whole episode is on the event bus.
    let kinds: Vec<EventKind> = head.recent_events().into_iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EventKind::BreakerOpen), "{kinds:?}");
    assert!(kinds.contains(&EventKind::BreakerClose), "{kinds:?}");
}

/// `Engine::reset_metrics` zeroes the resettable health counters (opens,
/// probes, fast-fails) but must NOT close an Open breaker: clearing stats
/// does not make a dead member healthy.
#[test]
fn reset_metrics_clears_counters_but_not_breaker_state() {
    let (head, _links) = federation_with_faults(1, |i| (i == 1).then(|| FaultConfig::dead(9)));
    head.set_degraded_mode(DegradedMode::Fail);
    head.set_retry_policy(fast_retries());
    head.query(SCAN).unwrap_err(); // trip
    head.query(SCAN).unwrap_err(); // fast-fail
    let before = head
        .link_health()
        .into_iter()
        .find(|l| l.server == "member2")
        .unwrap();
    assert_eq!(before.state, BreakerState::Open);
    assert_eq!(before.opens, 1);
    assert!(head.metrics().breaker_fast_fails >= 1);

    head.reset_metrics();

    let after = head
        .link_health()
        .into_iter()
        .find(|l| l.server == "member2")
        .unwrap();
    assert_eq!(after.opens, 0, "opens must reset: {after:?}");
    assert_eq!(after.probes, 0, "probes must reset: {after:?}");
    assert_eq!(
        after.state,
        BreakerState::Open,
        "breaker state must survive a metrics reset: {after:?}"
    );
    assert_eq!(head.metrics().breaker_fast_fails, 0);

    // And the surviving Open state still rejects without the wire.
    let err = head.query(SCAN).unwrap_err();
    assert!(err.message().contains("circuit breaker open"), "{err}");
}

/// `DHQP_BREAKER=0` semantics: with breakers disabled every query burns
/// its own full retry budget against the dead member — the pre-breaker
/// behavior, kept reachable as an escape hatch.
#[test]
fn disabled_breaker_retries_every_query() {
    let (head, _links) = federation_with_faults(1, |i| (i == 1).then(|| FaultConfig::dead(33)));
    head.set_degraded_mode(DegradedMode::Fail);
    // The counts below are serial ones: under DHQP_PARALLEL=1 the dead
    // member's two partitions fail concurrently, each with its own budget.
    head.set_parallel_config(ParallelConfig::serial());
    head.set_retry_policy(fast_retries());
    head.set_breaker_config(BreakerConfig::disabled());

    for _ in 0..2 {
        let err = head.query(SCAN).unwrap_err();
        assert!(
            err.message().contains("giving up after 3 attempts"),
            "{err}"
        );
    }
    let m = head.metrics();
    assert_eq!(
        m.remote_transient_errors, 6,
        "two full retry budgets: {m:?}"
    );
    assert_eq!(m.breaker_fast_fails, 0, "{m:?}");
}

/// A provider that takes no UPDATE/DELETE text, so a write's rows are
/// located from the head.
struct BelowSql92(Arc<dyn DataSource>);

impl SourceLayer for BelowSql92 {
    fn inner(&self) -> &dyn DataSource {
        &*self.0
    }
    fn advertise(&self, mut caps: ProviderCapabilities) -> ProviderCapabilities {
        caps.sql_support = SqlSupport::OdbcCore;
        caps
    }
}

/// A head whose linked server `member` (one table `t(k)`) sits behind a
/// dead link, pinned like the federation tests above; and that link.
fn dead_member() -> (Engine, NetworkLink) {
    let member = Engine::new("member-engine");
    let schema = Schema::new(vec![Column::not_null("k", DataType::Int)]);
    member.create_table(TableDef::new("t", schema)).unwrap();
    member
        .insert("t", &[Row::new(vec![Value::Int(1)])])
        .unwrap();
    let link = NetworkLink::new("member", NetworkConfig::lan());
    let source = Arc::new(BelowSql92(Arc::new(EngineDataSource::new(member))));
    let dead = NetworkedDataSource::with_faults(source, link.clone(), FaultConfig::dead(7));
    let head = Engine::new("head");
    head.add_linked_server("member", Arc::new(dead)).unwrap();
    head.set_degraded_mode(DegradedMode::Fail);
    head.set_parallel_config(ParallelConfig::serial());
    head.set_retry_policy(fast_retries());
    (head, link)
}

/// The first `sql` burns one retry budget and opens `member`'s breaker; the
/// second is refused by it without a wire attempt or a request.
fn trips_once_then_fails_fast(sql: &str) {
    let (head, link) = dead_member();
    let err = head.execute(sql).unwrap_err();
    assert!(
        err.message().contains("giving up after 3 attempts"),
        "{err}"
    );
    let sick = head.link_health();
    let sick = sick.iter().find(|l| l.server == "member").unwrap();
    assert_eq!(
        (sick.state, sick.opens),
        (BreakerState::Open, 1),
        "{sick:?}"
    );

    let errors = head.metrics().remote_transient_errors;
    let requests = link.snapshot().requests;
    let err = head.execute(sql).unwrap_err();
    assert!(err.message().contains("circuit breaker open"), "{err}");
    assert_eq!(head.metrics().remote_transient_errors, errors);
    assert_eq!(link.snapshot().requests, requests, "not even a connect");
}

#[test]
fn located_dml_read_opens_the_breaker() {
    trips_once_then_fails_fast("UPDATE member.db.dbo.t SET k = 2 WHERE k = 1");
}

#[test]
fn openquery_bind_opens_the_breaker() {
    trips_once_then_fails_fast("SELECT * FROM OPENQUERY(member, 'SELECT k FROM t') q");
}

/// The breaker lives on the link, not on the source behind it: re-pointing
/// a tripped name at a healthy source keeps it Open with the same trip
/// count, statements keep failing fast through the cooldown, and the probe
/// — the first request the new source sees — closes it.
#[test]
fn a_re_registered_name_keeps_its_open_breaker() {
    let sql = "SELECT * FROM OPENQUERY(member, 'SELECT k FROM t') q";
    let (head, _dead) = dead_member();
    head.execute(sql).unwrap_err();
    let health = |head: &Engine| {
        let links = head.link_health();
        links.into_iter().find(|l| l.server == "member").unwrap()
    };
    let tripped = health(&head);
    assert_eq!((tripped.state, tripped.opens), (BreakerState::Open, 1));

    let healthy = Engine::new("healthy-engine");
    let schema = Schema::new(vec![Column::not_null("k", DataType::Int)]);
    healthy.create_table(TableDef::new("t", schema)).unwrap();
    healthy
        .insert("t", &[Row::new(vec![Value::Int(5)])])
        .unwrap();
    let link = NetworkLink::new("member-new", NetworkConfig::lan());
    let source =
        NetworkedDataSource::reliable(Arc::new(EngineDataSource::new(healthy)), link.clone());
    head.add_linked_server("member", Arc::new(source)).unwrap();
    let r = head
        .query("SELECT state, opens FROM sys.dm_link_health WHERE server = 'member'")
        .unwrap();
    assert_eq!(r.value(0, 0), &Value::Str("open".into()), "{r:?}");
    assert_eq!(r.value(0, 1), &Value::Int(1), "{r:?}");

    for i in 0..head.breaker_config().cooldown {
        let err = head.execute(sql).unwrap_err();
        assert!(err.message().contains("circuit breaker open"), "{i}: {err}");
        assert_eq!(link.snapshot().requests, 0, "{i}: the new source was asked");
    }
    let got = head.query(sql).unwrap();
    assert_eq!(got.value(0, 0), &Value::Int(5));
    assert!(link.snapshot().requests > 0, "the probe went elsewhere");
    let closed = health(&head);
    assert_eq!(
        (closed.state, closed.opens, closed.probes),
        (BreakerState::Closed, 1, 1),
        "{closed:?}"
    );
}

/// `sys.dm_link_health` serves one row per linked server through the
/// ordinary provider pipeline (filter pushed locally like any DMV).
#[test]
fn dm_link_health_lists_every_link() {
    let (head, _links) = federation_with_faults(1, |_| None);
    let r = head
        .query("SELECT server, state, opens, probes, last_error FROM sys.dm_link_health")
        .unwrap();
    assert_eq!(r.rows.len(), 4, "{r:?}");
    for row in &r.rows {
        assert_eq!(row.get(1), &Value::Str("closed".into()), "{row:?}");
        assert_eq!(row.get(2), &Value::Int(0), "{row:?}");
        assert_eq!(row.get(4), &Value::Null, "{row:?}");
    }

    // After a trip, the quarantined member is queryable by state.
    let (head, _links) = federation_with_faults(1, |i| (i == 1).then(|| FaultConfig::dead(2)));
    head.set_degraded_mode(DegradedMode::Fail);
    head.set_retry_policy(fast_retries());
    head.query(SCAN).unwrap_err();
    let r = head
        .query("SELECT server FROM sys.dm_link_health WHERE state = 'open'")
        .unwrap();
    assert_eq!(r.rows.len(), 1, "{r:?}");
    assert_eq!(r.value(0, 0), &Value::Str("member2".into()));
}

/// All members down in prune mode: degrading to an empty answer would be
/// lying — the query must fail, naming the quarantined members. The serial
/// union refuses before it hands out a rowset, the parallel exchange at the
/// end of its merged stream, once every worker has given up on its member.
#[test]
fn prune_mode_with_every_member_dead_still_errors() {
    for parallel in [ParallelConfig::serial(), ParallelConfig::parallel()] {
        let (head, _links) = federation_with_faults(0, |_| Some(FaultConfig::dead(3)));
        head.set_retry_policy(fast_retries());
        head.set_degraded_mode(DegradedMode::Prune);
        head.set_parallel_config(parallel.clone());
        let err = head.query(SCAN).unwrap_err();
        assert_eq!(err.kind(), "unavailable", "{parallel:?}: {err}");
        assert!(
            err.message().contains("pruned every member"),
            "all-members-pruned must not return an empty result ({parallel:?}): {err}"
        );
        for member in ["member1", "member2", "member3", "member4"] {
            assert!(err.message().contains(member), "{parallel:?}: {err}");
        }
    }
}
