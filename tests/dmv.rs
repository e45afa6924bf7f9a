//! DMV integration tests: the built-in `sys` provider served through the
//! ordinary linked-server machinery, plus the hierarchical tracer.

use dhqp::{
    Engine, EngineBuilder, EngineDataSource, EventConfig, FaultConfig, QueryResult, RetryPolicy,
    TraceConfig, WaitClass, SYS_SERVER,
};
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
use dhqp_oledb::RowsetExt;
use dhqp_storage::{StorageEngine, TableDef};
use dhqp_types::{Column, DataType, Interval, IntervalSet, Row, Schema, Value};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Column position by name (DMV assertions shouldn't depend on order).
fn col(r: &QueryResult, name: &str) -> usize {
    r.schema
        .columns()
        .iter()
        .position(|c| c.name == name)
        .unwrap_or_else(|| panic!("column {name} missing from {:?}", r.schema))
}

fn local_with_table() -> Engine {
    let engine = Engine::new("local");
    engine
        .create_table(TableDef::new(
            "t",
            Schema::new(vec![Column::not_null("a", DataType::Int)]),
        ))
        .unwrap();
    engine
        .insert(
            "t",
            &[
                Row::new(vec![Value::Int(1)]),
                Row::new(vec![Value::Int(2)]),
                Row::new(vec![Value::Int(3)]),
            ],
        )
        .unwrap();
    engine
}

/// Local engine plus one remote server behind a metered (accounting-only)
/// LAN link.
fn distributed() -> Engine {
    let remote = Engine::new("remote-engine");
    remote
        .create_table(TableDef::new(
            "t",
            Schema::new(vec![Column::not_null("a", DataType::Int)]),
        ))
        .unwrap();
    remote
        .insert(
            "t",
            &[Row::new(vec![Value::Int(1)]), Row::new(vec![Value::Int(2)])],
        )
        .unwrap();
    let local = Engine::new("local");
    let link = NetworkLink::new("link-srv", NetworkConfig::lan());
    local
        .add_linked_server(
            "srv",
            Arc::new(NetworkedDataSource::new(
                Arc::new(EngineDataSource::new(remote)),
                link,
            )),
        )
        .unwrap();
    local
}

#[test]
fn every_dmv_selects_through_the_ordinary_pipeline() {
    let engine = local_with_table();
    engine.query("SELECT a FROM t").unwrap();

    let r = engine.query("SELECT * FROM sys.dm_exec_requests").unwrap();
    assert!(!r.rows.is_empty(), "the SELECT above is in the ring");
    for name in ["sql", "kind", "rows", "elapsed_ms", "ok", "error"] {
        col(&r, name);
    }

    let r = engine
        .query("SELECT * FROM sys.dm_exec_query_stats")
        .unwrap();
    for name in [
        "template",
        "execution_count",
        "total_rows",
        "total_elapsed_ms",
        "avg_elapsed_ms",
    ] {
        col(&r, name);
    }

    let r = engine.query("SELECT * FROM sys.dm_link_stats").unwrap();
    assert!(
        r.rows.is_empty(),
        "no linked servers registered (sys itself is excluded): {r:?}"
    );

    let r = engine.query("SELECT * FROM sys.dm_os_counters").unwrap();
    let name_col = col(&r, "name");
    let value_col = col(&r, "value");
    let selects = r
        .rows
        .iter()
        .find(|row| row.get(name_col) == &Value::Str("selects".into()))
        .expect("selects counter row");
    assert!(
        matches!(selects.get(value_col), Value::Int(n) if *n >= 1),
        "{selects:?}"
    );
    assert!(
        r.rows
            .iter()
            .any(|row| row.get(name_col) == &Value::Str("query_latency_p99_us".into())),
        "query-latency percentile counters missing"
    );
}

#[test]
fn dm_exec_requests_reflects_the_just_executed_query() {
    let engine = local_with_table();
    engine.query("SELECT a FROM t WHERE a = 2").unwrap();
    assert!(engine.query("SELECT nope FROM t").is_err());

    let r = engine
        .query("SELECT sql, kind, rows, ok, error FROM sys.dm_exec_requests")
        .unwrap();
    let (sql_c, kind_c, rows_c, ok_c, err_c) = (
        col(&r, "sql"),
        col(&r, "kind"),
        col(&r, "rows"),
        col(&r, "ok"),
        col(&r, "error"),
    );
    let good = r
        .rows
        .iter()
        .find(|row| row.get(sql_c) == &Value::Str("SELECT a FROM t WHERE a = 2".into()))
        .expect("executed query visible in dm_exec_requests");
    assert_eq!(good.get(kind_c), &Value::Str("SELECT".into()));
    assert_eq!(good.get(rows_c), &Value::Int(1));
    assert_eq!(good.get(ok_c), &Value::Bool(true));
    assert_eq!(good.get(err_c), &Value::Null);

    let bad = r
        .rows
        .iter()
        .find(|row| row.get(sql_c) == &Value::Str("SELECT nope FROM t".into()))
        .expect("failed query visible too");
    assert_eq!(bad.get(ok_c), &Value::Bool(false));
    assert!(
        matches!(bad.get(err_c), Value::Str(msg) if msg.contains("nope")),
        "error column carries the failure: {bad:?}"
    );
}

#[test]
fn dm_exec_query_stats_joins_against_a_user_table() {
    let engine = local_with_table();
    engine
        .create_table(TableDef::new(
            "thresholds",
            Schema::new(vec![
                Column::not_null("n", DataType::Int),
                Column::not_null("label", DataType::Str),
            ]),
        ))
        .unwrap();
    engine
        .insert(
            "thresholds",
            &[
                Row::new(vec![Value::Int(2), Value::Str("twice".into())]),
                Row::new(vec![Value::Int(3), Value::Str("thrice".into())]),
            ],
        )
        .unwrap();
    // Same fingerprint three times → one cache entry with three executions
    // (the view lists plan-cache entries: on, whatever DHQP_PLAN_CACHE says).
    engine.set_plan_cache_enabled(true);
    for _ in 0..3 {
        engine.query("SELECT a FROM t WHERE a = 1").unwrap();
    }

    // DMV rows participate in joins like any other rowset.
    let r = engine
        .query(
            "SELECT s.template, l.label FROM sys.dm_exec_query_stats s, thresholds l \
             WHERE s.execution_count = l.n",
        )
        .unwrap();
    let (template_c, label_c) = (col(&r, "template"), col(&r, "label"));
    let hit = r
        .rows
        .iter()
        .find(|row| matches!(row.get(template_c), Value::Str(t) if t.contains("WHERE a =")))
        .expect("the repeated query's fingerprint joined");
    assert_eq!(hit.get(label_c), &Value::Str("thrice".into()));
}

/// `sys.dm_exec_query_stats` is a fold of the statements' records: after N
/// executions of one template, `execution_count` is N, `total_rows` the
/// records' Σ rows and `total_elapsed_ms` their Σ `elapsed` — kept in whole
/// µs, so each execution may lose under 1 µs to truncation.
#[test]
fn dm_exec_query_stats_folds_the_statement_records() {
    let engine = local_with_table();
    engine.set_plan_cache_enabled(true);
    let records: Vec<_> = [1, 3, 2, 9, 0]
        .iter()
        .map(|a| {
            let sql = format!("SELECT a FROM t WHERE a <= {a}");
            let (result, record) = engine.execute_recorded(&sql, Default::default());
            result.unwrap();
            record
        })
        .collect();

    let r = engine
        .query("SELECT * FROM sys.dm_exec_query_stats")
        .unwrap();
    let row = r
        .rows
        .iter()
        .find(|row| matches!(row.get(col(&r, "template")), Value::Str(t) if t.contains("a <=")))
        .expect("the template's entry");
    assert_eq!(row.get(col(&r, "execution_count")), &Value::Int(5));
    let rows: u64 = records.iter().map(|record| record.rows).sum();
    assert_eq!(rows, 1 + 3 + 2 + 3);
    assert_eq!(row.get(col(&r, "total_rows")), &Value::Int(rows as i64));
    let Value::Float(ms) = row.get(col(&r, "total_elapsed_ms")) else {
        panic!("{row:?}")
    };
    let stored_ns = (ms * 1000.0).round() as u128 * 1000;
    let elapsed_ns: u128 = records.iter().map(|record| record.elapsed.as_nanos()).sum();
    assert!(
        stored_ns <= elapsed_ns && elapsed_ns < stored_ns + 1000 * records.len() as u128,
        "stored {stored_ns} ns, records {elapsed_ns} ns"
    );
}

#[test]
fn dm_link_stats_reports_nonzero_percentiles_after_a_distributed_query() {
    let local = distributed();
    local.query("SELECT a FROM srv.db.dbo.t").unwrap();

    let r = local
        .query("SELECT name, requests, bytes, p50_ms, p99_ms FROM sys.dm_link_stats ORDER BY p99_ms DESC")
        .unwrap();
    assert_eq!(r.rows.len(), 1, "one row per registered link: {r:?}");
    let (name_c, req_c, bytes_c, p50_c, p99_c) = (
        col(&r, "name"),
        col(&r, "requests"),
        col(&r, "bytes"),
        col(&r, "p50_ms"),
        col(&r, "p99_ms"),
    );
    let row = &r.rows[0];
    assert_eq!(row.get(name_c), &Value::Str("srv".into()));
    assert!(matches!(row.get(req_c), Value::Int(n) if *n > 0));
    assert!(matches!(row.get(bytes_c), Value::Int(n) if *n > 0));
    // lan() models 0.5 ms round trips even though it never sleeps; the
    // log-bucketed histogram clamps the percentile to the observed max.
    for c in [p50_c, p99_c] {
        assert!(
            matches!(row.get(c), Value::Float(ms) if *ms >= 0.5),
            "percentile not populated: {row:?}"
        );
    }
}

#[test]
fn dm_os_wait_stats_lists_every_class_and_clears() {
    let local = distributed();
    local.query("SELECT a FROM srv.db.dbo.t").unwrap();

    let r = local.query("SELECT * FROM sys.dm_os_wait_stats").unwrap();
    let (type_c, count_c, time_c, max_c) = (
        col(&r, "wait_type"),
        col(&r, "waiting_tasks_count"),
        col(&r, "wait_time_ms"),
        col(&r, "max_wait_time_ms"),
    );
    assert_eq!(
        r.rows.len(),
        WaitClass::ALL.len(),
        "one row per wait class, zeros included: {r:?}"
    );
    let net = r
        .rows
        .iter()
        .find(|row| row.get(type_c) == &Value::Str("NETWORK_IO".into()))
        .expect("NETWORK_IO row");
    assert!(
        matches!(net.get(count_c), Value::Int(n) if *n > 0),
        "{net:?}"
    );
    assert!(
        matches!(net.get(time_c), Value::Float(ms) if *ms > 0.0),
        "{net:?}"
    );
    assert!(
        matches!(net.get(max_c), Value::Float(ms) if *ms > 0.0),
        "{net:?}"
    );
    // A class the workload never touched still serves its zero row.
    let dtc = r
        .rows
        .iter()
        .find(|row| row.get(type_c) == &Value::Str("DTC_PREPARE".into()))
        .expect("DTC_PREPARE row");
    assert_eq!(dtc.get(count_c), &Value::Int(0));

    // DBCC SQLPERF CLEAR analog: the remote class goes back to zero (the
    // clearing query itself only compiles — sys is local).
    local.clear_wait_stats();
    let r = local
        .query("SELECT wait_type, waiting_tasks_count FROM sys.dm_os_wait_stats")
        .unwrap();
    let net = r
        .rows
        .iter()
        .find(|row| row.get(0) == &Value::Str("NETWORK_IO".into()))
        .unwrap();
    assert_eq!(net.get(1), &Value::Int(0), "clear zeroed the class");
}

#[test]
fn dm_xe_recent_events_serves_the_ring() {
    let engine = local_with_table();
    engine.set_event_config(EventConfig::all());
    engine.query("SELECT a FROM t").unwrap();

    let r = engine
        .query("SELECT seq, timestamp_ms, kind, detail FROM sys.dm_xe_recent_events")
        .unwrap();
    let (seq_c, kind_c, detail_c) = (col(&r, "seq"), col(&r, "kind"), col(&r, "detail"));
    assert!(!r.rows.is_empty());
    // Sequence numbers are strictly increasing (the ring serves oldest
    // first) and the lifecycle events carry their payloads.
    let seqs: Vec<i64> = r
        .rows
        .iter()
        .map(|row| match row.get(seq_c) {
            Value::Int(n) => *n,
            other => panic!("non-integer seq: {other:?}"),
        })
        .collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
    let start = r
        .rows
        .iter()
        .find(|row| row.get(kind_c) == &Value::Str("query_start".into()))
        .expect("query_start event");
    assert!(
        matches!(start.get(detail_c), Value::Str(d) if d.contains("SELECT a FROM t")),
        "{start:?}"
    );
    let end = r
        .rows
        .iter()
        .find(|row| row.get(kind_c) == &Value::Str("query_end".into()))
        .expect("query_end event");
    assert!(
        matches!(end.get(detail_c), Value::Str(d) if d.contains("rows=3")),
        "{end:?}"
    );

    // A disabled bus serves an empty view (explicit config wins over any
    // DHQP_EVENTS=1 in the environment — the CI matrix arms events).
    let quiet = local_with_table();
    quiet.set_event_config(EventConfig::disabled());
    quiet.query("SELECT a FROM t").unwrap();
    let r = quiet
        .query("SELECT kind FROM sys.dm_xe_recent_events")
        .unwrap();
    assert!(r.rows.is_empty(), "{r:?}");
}

#[test]
fn dm_exec_requests_attributes_the_dominant_wait() {
    let local = distributed();
    // The trace's root span carries the statement's own wait totals.
    local.set_trace_config(TraceConfig::enabled());
    let sql = "SELECT a FROM srv.db.dbo.t";
    let (result, record) = local.execute_recorded(sql, Default::default());
    result.unwrap();
    let trace = record.trace.as_ref().expect("tracing is armed");
    assert_eq!(trace.sql, sql);
    // `wait.<CLASS>` = `<count>x/<total>us`, one attribute per class waited on.
    let totals: Vec<(&str, u64)> = trace
        .root
        .attrs
        .iter()
        .filter_map(|(key, value)| {
            let class = key.strip_prefix("wait.")?;
            let total = value.split_once('/')?.1.strip_suffix("us")?;
            Some((class, total.parse().expect("microseconds")))
        })
        .collect();

    let r = local
        .query("SELECT sql, dominant_wait FROM sys.dm_exec_requests")
        .unwrap();
    let (sql_c, wait_c) = (col(&r, "sql"), col(&r, "dominant_wait"));
    let remote_query = r
        .rows
        .iter()
        .find(|row| row.get(sql_c) == &Value::Str(sql.into()))
        .expect("remote query in the ring");
    // Which class that is depends on the box: real compile time races one
    // modeled 0.5 ms round trip (and, when the CI matrix arms
    // DHQP_FAULT_SEED, a retry backoff). What the column promises is the
    // class this statement waited on longest, by its own totals.
    let (longest, _) = totals
        .iter()
        .max_by_key(|(_, total_us)| *total_us)
        .expect("the statement waited on something");
    assert_eq!(
        remote_query.get(wait_c),
        &Value::Str(longest.to_string()),
        "{totals:?}"
    );
    let network = totals.iter().find(|(class, _)| *class == "NETWORK_IO");
    assert!(matches!(network, Some((_, us)) if *us > 0), "{totals:?}");
}

#[test]
fn tracing_disabled_leaves_no_spans() {
    let engine = local_with_table();
    // Explicit config wins over any DHQP_TRACE=1 in the environment (the
    // CI matrix runs this suite with tracing armed).
    engine.set_trace_config(TraceConfig::disabled());
    let (result, record) = engine.execute_recorded("SELECT a FROM t", Default::default());
    result.unwrap();
    let report = engine.execute_analyze("SELECT a FROM t").unwrap();
    for record in [&record, &report.record] {
        assert!(record.trace.is_none(), "no spans when disarmed");
    }
}

#[test]
fn traced_distributed_analyze_covers_all_phases() {
    let local = distributed();
    local.set_trace_config(TraceConfig::enabled());
    // The second half asserts the hit path: pin the cache on, like the
    // trace switch, against the CI leg that runs with DHQP_PLAN_CACHE=0.
    local.set_plan_cache_enabled(true);

    // Fresh engine → plan-cache miss → the full compile shows up.
    let report = local
        .execute_analyze("SELECT a FROM srv.db.dbo.t WHERE a = 1")
        .unwrap();
    let trace = report
        .record
        .trace
        .as_ref()
        .expect("report carries the trace");
    assert_eq!(report.record.sql, trace.sql);
    for stage in ["parse", "bind", "optimize", "execute"] {
        assert!(
            trace.find(stage).is_some(),
            "missing {stage}:\n{}",
            trace.render()
        );
    }
    // Optimize carries per-rule application counts from the memo search.
    let optimize = trace.find("optimize").unwrap();
    assert!(
        optimize.attrs.iter().any(|(k, _)| k.starts_with("rule.")),
        "no rule counts: {:?}",
        optimize.attrs
    );
    // Execute has one child per operator, annotated with self time.
    let execute = trace.find("execute").unwrap();
    assert!(!execute.children.is_empty(), "no operator spans");
    fn any_attr(span: &dhqp::TraceSpan, key: &str) -> bool {
        span.attr(key).is_some() || span.children.iter().any(|c| any_attr(c, key))
    }
    assert!(
        any_attr(execute, "self_us"),
        "no self times:\n{}",
        trace.render()
    );
    assert!(
        any_attr(execute, "rows"),
        "no row counts:\n{}",
        trace.render()
    );

    // The rendered report embeds the span tree; the JSON export is valid
    // enough to carry the same names.
    let rendered = report.render();
    assert!(rendered.contains("-- trace:"), "{rendered}");
    let json = trace.to_json();
    assert!(json.contains("\"name\":\"optimize\""), "{json}");

    // A second run is a plan-cache hit: compile spans collapse into a
    // plan-cache marker, execution is still traced per-operator.
    let report = local
        .execute_analyze("SELECT a FROM srv.db.dbo.t WHERE a = 1")
        .unwrap();
    let hit = report.record.trace.as_ref().unwrap();
    let marker = hit.find("plan-cache").expect("hit path traced");
    assert_eq!(marker.attr("hit"), Some("true"));
    assert!(hit.find("optimize").is_none(), "hit skips the compile");
    assert!(hit.find("execute").is_some());
}

#[test]
fn recent_query_capacity_is_configurable() {
    let engine = EngineBuilder::new("local").recent_query_capacity(2).build();
    engine
        .create_table(TableDef::new(
            "t",
            Schema::new(vec![Column::not_null("a", DataType::Int)]),
        ))
        .unwrap();
    for i in 0..4 {
        engine
            .query(&format!("SELECT a FROM t WHERE a = {i}"))
            .unwrap();
    }
    let recent = engine.recent_queries();
    assert_eq!(recent.len(), 2, "ring bounded by the configured capacity");
    assert_eq!(recent[1].sql, "SELECT a FROM t WHERE a = 3");
}

#[test]
fn sys_views_survive_ordering_and_projection() {
    // The README's canonical example: order links by tail latency.
    let local = distributed();
    local.query("SELECT a FROM srv.db.dbo.t").unwrap();
    let r = local
        .query("SELECT * FROM sys.dm_link_stats ORDER BY p99_ms DESC")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].get(col(&r, "name")), &Value::Str("srv".into()));
}

/// `name(id, val)`, indexed on `id`, holding `(id, val)` for each id given.
fn keyed(storage: &StorageEngine, name: &str, ids: impl Iterator<Item = i64>, val: &str) {
    let schema = Schema::new(vec![
        Column::not_null("id", DataType::Int),
        Column::new("val", DataType::Str),
    ]);
    let def = TableDef::new(name, schema).with_index(&format!("ix_{name}"), &["id"], false);
    storage.create_table(def).unwrap();
    let rows: Vec<Row> = ids
        .map(|id| Row::new(vec![Value::Int(id), Value::Str(val.to_string())]))
        .collect();
    storage.insert_rows(name, &rows).unwrap();
    storage.analyze(name, 8).unwrap();
}

/// `sys.dm_os_counters` as its provider serves it: opening the rowset is not
/// a statement, so no counter moves while it is read.
fn served_counters(engine: &Engine) -> Vec<(String, i64)> {
    let sys = engine.linked_server(SYS_SERVER).unwrap();
    let mut session = sys.create_session().unwrap();
    let rows = session
        .open_rowset("dm_os_counters")
        .unwrap()
        .collect_rows();
    let cell = |row: &Row| match (row.get(0), row.get(1)) {
        (Value::Str(name), Value::Int(value)) => (name.clone(), *value),
        other => panic!("{other:?}"),
    };
    rows.unwrap().iter().map(cell).collect()
}

/// Every counter family moves — a retried fault, a DTC commit, a semi-join
/// reduction, a DML seek and a pushed write, a plan-cache hit and miss, a
/// pool connect — and the two accounts of them agree: `sys.dm_os_counters`
/// is `Engine::metrics().counters()` row for row plus the five latency
/// rows, every name once, and after `reset_metrics` every row reads 0 but
/// the durable DTC outcomes.
#[test]
fn counter_accounts_reconcile() {
    let head = Engine::new("head");
    head.set_plan_cache_enabled(true);
    let mut config = head.optimizer_config();
    config.enable_semijoin = true;
    head.set_optimizer_config(config);
    head.set_retry_policy(RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        attempt_deadline: None,
        query_deadline: None,
    });
    keyed(head.storage(), "dim", 1..=6, "d");
    let (m1, m2) = (Engine::new("m1"), Engine::new("m2"));
    // A wide, wholly remote probe side: 6 build keys against 40.
    keyed(
        m1.storage(),
        "fact",
        (0..240).map(|i| i % 40 + 1),
        &"x".repeat(96),
    );
    keyed(m1.storage(), "acct", 0..10, "a");
    keyed(m2.storage(), "acct", 10..20, "a");
    let member = |engine: &Engine, faults: Option<FaultConfig>| {
        let provider = Arc::new(EngineDataSource::new(engine.clone()));
        let link = NetworkLink::new(engine.name(), NetworkConfig::lan());
        Arc::new(match faults {
            Some(plan) => NetworkedDataSource::with_faults(provider, link, plan),
            None => NetworkedDataSource::reliable(provider, link),
        })
    };
    let faults = FaultConfig::one_transient_per_link(11);
    head.add_linked_server("srv1", member(&m1, Some(faults)))
        .unwrap();
    head.add_linked_server("srv2", member(&m2, None)).unwrap();
    let range = |lo, hi| IntervalSet::single(Interval::between(Value::Int(lo), Value::Int(hi)));
    let members = vec![
        (Some("srv1".to_string()), "acct".to_string(), range(0, 9)),
        (Some("srv2".to_string()), "acct".to_string(), range(10, 19)),
    ];
    head.define_partitioned_view("acct_all", "id", members)
        .unwrap();

    for sql in [
        "SELECT d.id, f.val FROM dim d JOIN srv1.db.dbo.fact f ON d.id = f.id WHERE d.id <= 3",
        "SELECT val FROM dim WHERE id = 1",
        "SELECT val FROM dim WHERE id = 1",
        "UPDATE dim SET val = 'e' WHERE id = 2",
        "UPDATE acct_all SET val = 'b' WHERE id >= 5 AND id < 15",
    ] {
        head.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }

    let metrics = head.metrics();
    let served = served_counters(&head);
    assert_eq!(head.metrics(), metrics, "reading the view moved a counter");
    let counted: Vec<(String, i64)> = metrics
        .counters()
        .into_iter()
        .map(|(name, value)| (name.to_string(), value as i64))
        .collect();
    let (rows, latency) = served.split_at(counted.len());
    assert_eq!(rows, counted);
    let latency: Vec<&str> = latency.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(latency.len(), 5, "{latency:?}");
    assert!(latency
        .iter()
        .all(|name| name.starts_with("query_latency_")));
    let names: HashSet<&str> = served.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names.len(), served.len(), "a counter named twice");
    for moved in [
        metrics.remote_retries,
        metrics.dtc_commits,
        metrics.dtc_commits_ridden,
        metrics.semijoin_reductions,
        metrics.dml_seeks,
        metrics.dml_pushed,
        metrics.plan_cache_hits,
        metrics.plan_cache_misses,
        metrics.session_connects,
    ] {
        assert!(moved > 0, "a counter family never moved: {metrics:?}");
    }

    // The coordinator's outcome log is durable state: reset leaves it.
    head.reset_metrics();
    for (row, before) in served_counters(&head).iter().zip(&served) {
        let durable = row.0.starts_with("dtc_");
        assert_eq!(row.1, if durable { before.1 } else { 0 }, "{}", row.0);
    }
}
