//! Semi-join reduction under chaos: the reduction is an optimization,
//! never a semantic change. A dead probe link must surface an error
//! (never partial results), with the shipped predicate's fingerprint
//! preserved in `sys.dm_link_health` so a filter-ship failure is
//! distinguishable from a plain scan failure; a plan-time cardinality
//! undershoot must ship its keys in blocks of `max_keys`, answering what
//! the unreduced plan answers; and degraded-mode pruning must stay visibly
//! distinct from runtime startup pruning when both fire in one query.

use dhqp::{DegradedMode, Engine, EngineDataSource, FaultConfig, RetryPolicy};
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
use dhqp_storage::TableDef;
use dhqp_types::{Column, DataType, Interval, IntervalSet, Row, Schema, Value};
use std::sync::Arc;
use std::time::Duration;

const JOIN: &str = "SELECT d.id, f.val FROM dim d JOIN member1.db.dbo.fact f ON d.id = f.id";

fn fast_retries() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        attempt_deadline: None,
        query_deadline: None,
    }
}

fn table_def(name: &str, value_col: Column) -> TableDef {
    TableDef::new(
        name,
        Schema::new(vec![Column::not_null("id", DataType::Int), value_col]),
    )
}

/// Link `member` into `head` behind a netsim link armed with `fault`.
fn link_member(head: &Engine, name: &str, member: &Engine, fault: Option<FaultConfig>) {
    let link = NetworkLink::new(name, NetworkConfig::lan());
    let inner: Arc<dyn dhqp_oledb::DataSource> = Arc::new(EngineDataSource::new(member.clone()));
    let wrapped = match fault {
        Some(cfg) => NetworkedDataSource::with_faults(inner, link, cfg),
        None => NetworkedDataSource::reliable(inner, link),
    };
    head.add_linked_server(name, Arc::new(wrapped)).unwrap();
}

/// A small local `dim` (6 keys) in the head and a wide wholly-remote
/// `fact` (240 rows, 40 distinct keys) on `member1`: the shape the
/// semi-join reduction rule rewrites. Returns `(head, member1)` — the
/// member engine is kept alive so more fact rows can be added.
fn semijoin_federation(fault: Option<FaultConfig>) -> (Engine, Engine) {
    sized_federation(6, 240, 40, fault)
}

/// The same shape at any size: `dim_keys` build keys against `fact_rows`
/// remote rows over `fact_ndv` distinct probe keys.
fn sized_federation(
    dim_keys: i64,
    fact_rows: i64,
    fact_ndv: i64,
    fault: Option<FaultConfig>,
) -> (Engine, Engine) {
    let head = Engine::new("sj-head");
    head.storage()
        .create_table(table_def("dim", Column::new("tag", DataType::Str)))
        .unwrap();
    let dim_rows: Vec<Row> = (1..=dim_keys)
        .map(|id| Row::new(vec![Value::Int(id), Value::Str(format!("d{id}"))]))
        .collect();
    head.storage().insert_rows("dim", &dim_rows).unwrap();
    head.storage().analyze("dim", 8).unwrap();

    let m1 = Engine::new("sj-member1");
    m1.storage()
        .create_table(table_def("fact", Column::new("val", DataType::Str)))
        .unwrap();
    let fact_rows: Vec<Row> = (0..fact_rows)
        .map(|i| {
            Row::new(vec![
                Value::Int((i % fact_ndv) + 1),
                Value::Str(format!("payload-{i:04}-{}", "x".repeat(96))),
            ])
        })
        .collect();
    m1.storage().insert_rows("fact", &fact_rows).unwrap();
    m1.storage().analyze("fact", 8).unwrap();
    link_member(&head, "member1", &m1, fault);
    // Pin the rewrite on: the suite may run under DHQP_SEMIJOIN=0.
    let mut config = head.optimizer_config();
    config.enable_semijoin = true;
    head.set_optimizer_config(config);
    (head, m1)
}

/// EXPLAIN ANALYZE on a reduced join: the plan node announces itself and
/// the runtime annotation reports the key count and the extra bytes the
/// key set's `IN`-list added to the shipped statement.
#[test]
fn explain_analyze_annotates_the_reduction() {
    let (head, _m1) = semijoin_federation(None);
    let report = head.execute_analyze(JOIN).unwrap();
    assert!(!report.result.rows.is_empty());
    let rendered = report.render();
    assert!(rendered.contains("SemiJoinReduce"), "{rendered}");
    assert!(rendered.contains("[semijoin: keys=6 bytes="), "{rendered}");
    // The wire annotation carries the *reduced* statement that was shipped.
    assert!(rendered.contains("IN ("), "{rendered}");
    let m = head.metrics();
    assert!(m.semijoin_reductions >= 1, "{m:?}");
    assert!(m.semijoin_filter_bytes > 0, "{m:?}");
}

/// The admission rule (DESIGN.md §16): a reduction is offered only when
/// the build side has fewer distinct keys than the probe column. A probe
/// side already bound to its unique key is one row; shipping every `dim`
/// key to fetch that row again would only add an `IN`-list to the wire.
#[test]
fn a_key_bound_probe_side_is_fetched_without_an_in_list() {
    let (head, m1) = semijoin_federation(None);
    // Many wide rows: were the reduction offered, its narrow reduced
    // statement would out-cost both the full-row index seek and the plain
    // pushed query (which is charged the member's scan), and be picked.
    let mut columns = vec![
        Column::not_null("id", DataType::Int),
        Column::new("dim_id", DataType::Int),
    ];
    columns.extend((0..48).map(|i| Column::new(format!("note{i}"), DataType::Str)));
    m1.storage()
        .create_table(TableDef::new("account", Schema::new(columns)).with_index(
            "pk_account",
            &["id"],
            true,
        ))
        .unwrap();
    let accounts: Vec<Row> = (1..=2400)
        .map(|id| {
            let mut row = vec![Value::Int(id), Value::Int(id % 40 + 1)];
            row.extend((0..48).map(|i| Value::Str(format!("note-{id}-{i}"))));
            Row::new(row)
        })
        .collect();
    m1.storage().insert_rows("account", &accounts).unwrap();
    m1.storage().analyze("account", 8).unwrap();

    let bound = |id: i64| {
        format!(
            "SELECT d.tag, a.id FROM dim d JOIN member1.db.dbo.account a \
             ON d.id = a.dim_id WHERE a.id = {id}"
        )
    };
    // Compiled with the literal in hand, then served as the cached
    // template: neither may reduce.
    for id in [3, 5] {
        let report = head.execute_analyze(&bound(id)).unwrap();
        let rendered = report.render();
        assert_eq!(report.result.rows.len(), 1, "{rendered}");
        assert!(!rendered.contains("SemiJoinReduce"), "{rendered}");
        assert!(!rendered.contains("[semijoin:"), "{rendered}");
        assert!(!rendered.contains("IN ("), "{rendered}");
    }
    let m = head.metrics();
    assert_eq!(m.semijoin_reductions, 0, "{m:?}");
    assert_eq!(m.semijoin_filter_bytes, 0, "{m:?}");

    // The same join without the key bound: 6 keys against a column of
    // 40 values do reduce, and still are.
    let report = head
        .execute_analyze(
            "SELECT d.tag, a.id FROM dim d JOIN member1.db.dbo.account a ON d.id = a.dim_id",
        )
        .unwrap();
    let rendered = report.render();
    assert!(rendered.contains("[semijoin: keys=6 bytes="), "{rendered}");
    assert_eq!(report.result.rows.len(), 360, "{rendered}");
}

/// The build side is empty at drive time although the plan, compiled and
/// cached while `dim` held six keys, chose the reduction: the join answers
/// empty without opening the probe side — not one request on member1's
/// link.
#[test]
fn an_empty_build_side_answers_without_touching_the_link() {
    let (head, _m1) = semijoin_federation(None);
    head.set_plan_cache_enabled(true);
    assert!(!head.query(JOIN).unwrap().rows.is_empty());
    head.execute("DELETE FROM dim").unwrap();
    let requests = || {
        let r = head
            .query("SELECT requests FROM sys.dm_link_stats WHERE name = 'member1'")
            .unwrap();
        match r.value(0, 0) {
            Value::Int(n) => *n,
            other => panic!("{other:?}"),
        }
    };
    let before = requests();
    let report = head.execute_analyze(JOIN).unwrap();
    let rendered = report.render();
    assert_eq!(requests(), before, "{rendered}");
    assert!(report.result.rows.is_empty(), "{rendered}");
    assert!(rendered.contains("SemiJoinReduce"), "{rendered}");
    assert!(rendered.contains("[semijoin: keys=0"), "{rendered}");
}

/// E18's headline point: 16 build keys against a 2 400-row remote fact
/// over 200 probe keys is admitted (16 < 200) and chosen.
#[test]
fn e18_sixteen_key_reduction_is_still_chosen() {
    let (head, _m1) = sized_federation(16, 2400, 200, None);
    let report = head.execute_analyze(JOIN).unwrap();
    let rendered = report.render();
    assert!(rendered.contains("[semijoin: keys=16 bytes="), "{rendered}");
    assert_eq!(report.result.rows.len(), 16 * 12, "{rendered}");
}

/// E18's crossover (§4.1.5: minimize what crosses the link): against the
/// unreduced fetch of the same join, 16 build keys cut member1's link
/// bytes at least 2× and ship fewer rows; at 200 build keys, past
/// `semijoin_max_keys` = 64, the optimizer keeps the unreduced fetch and
/// ships exactly what it ships.
#[test]
fn e18_reduction_cuts_link_bytes_until_max_keys_keeps_the_plain_fetch() {
    // (rows, bytes) member1's link carries for the warm join, and the plan.
    let run = |keys: i64, reduce: bool| {
        let (head, _m1) = sized_federation(keys, 2400, 200, None);
        let mut config = head.optimizer_config();
        config.enable_semijoin = reduce;
        config.semijoin_max_keys = 64;
        head.set_optimizer_config(config);
        let traffic = || {
            let r = head
                .query("SELECT rows, bytes FROM sys.dm_link_stats")
                .unwrap();
            match (r.value(0, 0), r.value(0, 1)) {
                (Value::Int(rows), Value::Int(bytes)) => (*rows, *bytes),
                other => panic!("{other:?}"),
            }
        };
        let answer = head.query(JOIN).unwrap().rows.len();
        let before = traffic();
        assert_eq!(head.query(JOIN).unwrap().rows.len(), answer);
        let after = traffic();
        let plan = head.explain(JOIN).unwrap().plan_text;
        ((after.0 - before.0, after.1 - before.1), plan)
    };

    let ((reduced_rows, reduced_bytes), plan) = run(16, true);
    let ((plain_rows, plain_bytes), _) = run(16, false);
    assert!(plan.contains("SemiJoinReduce(@member1 keys=64:"), "{plan}");
    assert!(reduced_rows < plain_rows, "{reduced_rows} vs {plain_rows}");
    assert!(
        2 * reduced_bytes <= plain_bytes,
        "{reduced_bytes} B reduced vs {plain_bytes} B plain"
    );

    let (past_max, plan) = run(200, true);
    assert!(!plan.contains("SemiJoinReduce"), "{plan}");
    assert_eq!(past_max, run(200, false).0);
}

/// A dead probe link: the reduced open burns its retry budget and the
/// query errors — no partial results. The give-up that tripped the breaker
/// stays attributed to the exact shipped predicate in
/// `sys.dm_link_health`.
#[test]
fn dead_probe_link_errors_and_fingerprints_the_shipped_predicate() {
    let (head, _m1) = semijoin_federation(Some(FaultConfig::dead(11)));
    head.set_degraded_mode(DegradedMode::Fail);
    head.set_retry_policy(fast_retries());

    let err = head.query(JOIN).unwrap_err();
    assert_eq!(err.kind(), "unavailable", "{err}");
    let m = head.metrics();
    assert_eq!(m.semijoin_reductions, 0, "{m:?}");

    // The breaker opened on the tagged reduced-statement give-up, so the
    // recorded last error names the filter-ship.
    let health = head.link_health();
    let sick = health.iter().find(|l| l.server == "member1").unwrap();
    let last = sick.last_error.as_deref().unwrap_or_default();
    assert!(last.contains("shipped predicate fp="), "{sick:?}");
    assert!(last.contains("keys=6"), "{sick:?}");

    // And the reason chain is queryable through the DMV like any other.
    let r = head
        .query("SELECT last_error FROM sys.dm_link_health WHERE server = 'member1'")
        .unwrap();
    assert_eq!(r.rows.len(), 1, "{r:?}");
    assert!(
        matches!(r.value(0, 0), Value::Str(s) if s.contains("shipped predicate fp=")),
        "{r:?}"
    );
}

/// `dim` grown by `ids` after ANALYZE: the optimizer still believes the
/// six keys it was analyzed with.
fn grow_dim(head: &Engine, ids: std::ops::RangeInclusive<i64>) {
    let extra: Vec<Row> = ids
        .map(|id| Row::new(vec![Value::Int(id), Value::Str(format!("d{id}"))]))
        .collect();
    head.storage().insert_rows("dim", &extra).unwrap();
}

/// `JOIN`'s rows, sorted, and member1's link traffic for it as
/// `(requests, bytes)`, measured on a warm second run.
fn answer_and_traffic(head: &Engine) -> (Vec<String>, (i64, i64)) {
    let traffic = || {
        let r = head
            .query("SELECT requests, bytes FROM sys.dm_link_stats WHERE name = 'member1'")
            .unwrap();
        match (r.value(0, 0), r.value(0, 1)) {
            (Value::Int(requests), Value::Int(bytes)) => (*requests, *bytes),
            other => panic!("{other:?}"),
        }
    };
    head.query(JOIN).unwrap();
    let before = traffic();
    let mut rows: Vec<String> = head
        .query(JOIN)
        .unwrap()
        .rows
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    rows.sort();
    let after = traffic();
    (rows, (after.0 - before.0, after.1 - before.1))
}

/// Plan-time cardinality undershoot: the rule fired against stale
/// statistics (ndv=6 under `max_keys` 10), drive time finds 20 distinct
/// keys, and the executor ships them as two blocks of ten — answering
/// what the reduction-off engine answers.
#[test]
fn oversized_key_set_ships_in_blocks_of_max_keys() {
    let (head, _m1) = semijoin_federation(None);
    grow_dim(&head, 7..=20);
    let mut config = head.optimizer_config();
    config.semijoin_max_keys = 10;
    head.set_optimizer_config(config);

    let report = head.execute_analyze(JOIN).unwrap();
    let rendered = report.render();
    assert!(
        rendered.contains("SemiJoinReduce(@member1 keys=10:"),
        "{rendered}"
    );
    assert!(rendered.contains("[semijoin: keys=20 bytes="), "{rendered}");
    let (got, (requests, _)) = answer_and_traffic(&head);
    assert_eq!(requests, 2, "{rendered}");
    let m = head.metrics();
    assert!(m.semijoin_reductions >= 1, "{m:?}");
    assert!(m.semijoin_filter_bytes > 0, "{m:?}");

    // Reference: the same data with the reduction rule disabled.
    let (off, _m1) = semijoin_federation(None);
    grow_dim(&off, 7..=20);
    let mut config = off.optimizer_config();
    config.enable_semijoin = false;
    off.set_optimizer_config(config);
    assert_eq!(got, answer_and_traffic(&off).0);
}

/// Past `max_keys` by far: 200 build keys behind statistics that promise
/// six ship as ⌈200/64⌉ = 4 requests of `IN`-lists against a fact of 400
/// probe keys — the same answer as the reduction-off engine's plain fetch,
/// for fewer bytes on member1's link.
#[test]
fn two_hundred_stale_keys_ship_in_four_requests_for_fewer_bytes() {
    let run = |reduce: bool| {
        let (head, _m1) = sized_federation(6, 2400, 400, None);
        grow_dim(&head, 7..=200);
        let mut config = head.optimizer_config();
        config.enable_semijoin = reduce;
        config.semijoin_max_keys = 64;
        head.set_optimizer_config(config);
        let plan = head.explain(JOIN).unwrap().plan_text;
        (answer_and_traffic(&head), plan)
    };
    let ((reduced, (requests, reduced_bytes)), plan) = run(true);
    assert!(plan.contains("SemiJoinReduce(@member1 keys=64:"), "{plan}");
    assert_eq!(requests, 4, "{plan}");
    let ((plain, (_, plain_bytes)), plain_plan) = run(false);
    assert!(!plain_plan.contains("SemiJoinReduce"), "{plain_plan}");
    assert_eq!(reduced.len(), 200 * 6);
    assert_eq!(reduced, plain);
    assert!(
        reduced_bytes < plain_bytes,
        "{reduced_bytes} B reduced vs {plain_bytes} B plain"
    );
}

/// One query, both prune channels: degraded mode quarantines the dead
/// member while runtime startup pruning skips the out-of-range member —
/// and the two must be reported distinctly (a skipped-by-predicate member
/// is healthy, a quarantined one is not). The all-members-gone error must
/// NOT fire: the startup skip proves the empty answer is legitimate.
#[test]
fn degraded_prune_and_startup_prune_report_distinctly() {
    let head = Engine::new("dpv-head");
    let m1 = Engine::new("dpv-member1");
    let m2 = Engine::new("dpv-member2");
    for (m, table, ids) in [(&m1, "part_lo", 1i64..=10), (&m2, "part_hi", 50..=59)] {
        m.storage()
            .create_table(table_def(table, Column::new("tag", DataType::Str)))
            .unwrap();
        let rows: Vec<Row> = ids
            .map(|id| Row::new(vec![Value::Int(id), Value::Str(format!("t{id}"))]))
            .collect();
        m.storage().insert_rows(table, &rows).unwrap();
        m.storage().analyze(table, 8).unwrap();
    }
    // member1 (holding the qualifying range) is dead; member2 is healthy
    // but irrelevant to the parameter value.
    link_member(&head, "member1", &m1, Some(FaultConfig::dead(7)));
    link_member(&head, "member2", &m2, None);
    head.define_partitioned_view(
        "part_all",
        "id",
        vec![
            (
                Some("member1".into()),
                "part_lo".into(),
                IntervalSet::single(Interval::less_than(Value::Int(50))),
            ),
            (
                Some("member2".into()),
                "part_hi".into(),
                IntervalSet::single(Interval::at_least(Value::Int(50))),
            ),
        ],
    )
    .unwrap();
    head.set_retry_policy(fast_retries());
    head.set_degraded_mode(DegradedMode::Prune);
    head.set_runtime_prune(true);
    head.set_plan_cache_enabled(true);

    const Q: &str = "SELECT id, tag FROM part_all WHERE id = 7";
    // First run trips member1's breaker (retry storm → give-up → prune)
    // and startup-skips member2 without ever opening a connection.
    let cold = head.query(Q).unwrap();
    assert!(cold.rows.is_empty(), "{cold:?}");

    // Second run: member1 fast-fail-prunes on the Open breaker; the
    // report names each member under its own channel.
    let report = head.execute_analyze(Q).unwrap();
    assert!(report.result.rows.is_empty());
    assert_eq!(report.record.pruned, vec!["member1".to_string()]);
    assert_eq!(report.record.startup_pruned, vec!["member2".to_string()]);
    let rendered = report.render();
    assert!(
        rendered.contains("[degraded: pruned members=member1]"),
        "{rendered}"
    );
    assert!(
        rendered.contains("[startup: skipped members=member2]"),
        "{rendered}"
    );
    let m = head.metrics();
    assert!(m.members_pruned >= 1, "{m:?}");
    assert!(m.startup_members_skipped >= 1, "{m:?}");
}
