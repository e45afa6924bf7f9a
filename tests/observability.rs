//! Observability integration tests: `EXPLAIN ANALYZE` over distributed
//! plans, the engine metrics registry and the recent-query ring.

use dhqp::{
    Engine, EngineBuilder, EngineDataSource, EventConfig, EventKind, FaultConfig, ParallelConfig,
    RetryPolicy, StatementKind, StatementRecord, TraceConfig, WaitClass,
};
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
use dhqp_storage::TableDef;
use dhqp_types::{Column, DataType, Row, Schema, Value};
use dhqp_workload::tpch::{self, TpchScale};
use std::sync::Arc;
use std::time::Duration;

/// Local engine + two remote servers: remote0 holds customer, remote1
/// holds supplier, nation stays local — the Figure 4 layout split across
/// two links so a join must touch both servers.
fn two_server_setup(scale: TpchScale) -> (Engine, NetworkLink, NetworkLink) {
    use rand::SeedableRng;
    let remote0 = Engine::new("remote0-engine");
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    tpch::create_customer(remote0.storage(), &scale, &mut rng).unwrap();
    remote0.storage().analyze("customer", 24).unwrap();

    let remote1 = Engine::new("remote1-engine");
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    tpch::create_supplier(remote1.storage(), &scale, &mut rng).unwrap();
    remote1.storage().analyze("supplier", 24).unwrap();

    let local = Engine::new("local");
    tpch::create_nation(local.storage(), &scale).unwrap();
    local.analyze("nation", 8).unwrap();

    let link0 = NetworkLink::new("link-remote0", NetworkConfig::lan());
    let link1 = NetworkLink::new("link-remote1", NetworkConfig::lan());
    local
        .add_linked_server(
            "remote0",
            Arc::new(NetworkedDataSource::new(
                Arc::new(EngineDataSource::new(remote0)),
                link0.clone(),
            )),
        )
        .unwrap();
    local
        .add_linked_server(
            "remote1",
            Arc::new(NetworkedDataSource::new(
                Arc::new(EngineDataSource::new(remote1)),
                link1.clone(),
            )),
        )
        .unwrap();
    (local, link0, link1)
}

const TWO_SERVER_JOIN: &str = "SELECT c.c_name, c.c_address, c.c_phone \
     FROM remote0.tpch.dbo.customer c, remote1.tpch.dbo.supplier s, nation n \
     WHERE c.c_nationkey = n.n_nationkey AND n.n_nationkey = s.s_nationkey";

#[test]
fn explain_analyze_distributed_join_reports_wire_activity() {
    let (local, _l0, _l1) = two_server_setup(TpchScale::tiny());
    let expected_rows = local.query(TWO_SERVER_JOIN).unwrap().len();
    assert!(expected_rows > 0, "scenario must produce rows");

    let report = local.execute_analyze(TWO_SERVER_JOIN).unwrap();
    assert_eq!(
        report.result.len(),
        expected_rows,
        "ANALYZE returns the query's own rows"
    );

    // The root operator's actual row count matches what came back.
    let root = &report.record.operators[0];
    assert!(root.runtime.is_some(), "root node executed");
    assert_eq!(root.rows(), expected_rows as u64);

    // Both servers appear as remote nodes with shipped text and nonzero
    // traffic deltas.
    let operators = report.record.operators.iter().enumerate();
    let remotes: Vec<_> = operators.filter(|(_, op)| op.remote().is_some()).collect();
    let servers: Vec<&str> = remotes
        .iter()
        .map(|(_, op)| op.remote().unwrap().server.as_str())
        .collect();
    assert!(servers.contains(&"remote0"), "remote0 missing: {servers:?}");
    assert!(servers.contains(&"remote1"), "remote1 missing: {servers:?}");
    for (id, op) in &remotes {
        let trace = op.remote().unwrap();
        assert!(!trace.sql.is_empty(), "node {id} has no shipped text");
        assert!(trace.traffic.requests > 0, "node {id} recorded no requests");
        assert!(trace.traffic.bytes > 0, "node {id} recorded no bytes");
        assert!(op.rows() > 0, "node {id} produced no rows");
    }

    // The rendered report carries the wire and SQL annotations.
    let rendered = report.render();
    assert!(rendered.contains("actual_rows="), "{rendered}");
    assert!(rendered.contains("[wire @remote0:"), "{rendered}");
    assert!(rendered.contains("[wire @remote1:"), "{rendered}");
    assert!(rendered.contains("[shipped: "), "{rendered}");
    assert!(
        rendered.contains("rules fired"),
        "optimizer telemetry missing:\n{rendered}"
    );
}

#[test]
fn figure4_cardinality_estimates_within_bounds() {
    // Satellite: cardinality sanity over the Figure 4 remote-join plan.
    // With fresh statistics on every table, the root estimate must land
    // within an order of magnitude of the actual row count.
    let (local, _l0, _l1) = two_server_setup(TpchScale::small());
    let report = local.execute_analyze(TWO_SERVER_JOIN).unwrap();
    let actual = report.record.operators[0].rows() as f64;
    let est = report.plan.est_rows;
    assert!(actual > 0.0);
    assert!(
        est <= actual * 10.0 && est >= actual / 10.0,
        "root estimate off by more than 10x: est={est:.0} actual={actual:.0}\n{}",
        report.render()
    );
}

#[test]
fn explain_and_explain_analyze_through_execute() {
    let (local, _l0, _l1) = two_server_setup(TpchScale::tiny());

    let r = local.execute("EXPLAIN SELECT n_name FROM nation").unwrap();
    assert_eq!(r.schema.columns()[0].name, "plan");
    let text: Vec<String> = r.rows.iter().map(|row| row.get(0).to_string()).collect();
    assert!(text.iter().any(|l| l.contains("est_rows")), "{text:?}");
    assert!(
        !text.iter().any(|l| l.contains("actual_rows")),
        "plain EXPLAIN must not execute: {text:?}"
    );

    let r = local
        .execute("EXPLAIN ANALYZE SELECT n_name FROM nation")
        .unwrap();
    let text: Vec<String> = r.rows.iter().map(|row| row.get(0).to_string()).collect();
    assert!(text.iter().any(|l| l.contains("actual_rows=")), "{text:?}");

    let m = local.metrics();
    assert_eq!(m.explains, 1);
    assert_eq!(m.explain_analyzes, 1);
}

#[test]
fn metrics_count_statements_and_recent_queries() {
    let engine = Engine::new("local");
    engine
        .create_table(TableDef::new(
            "t",
            Schema::new(vec![Column::not_null("a", DataType::Int)]),
        ))
        .unwrap();

    engine.execute("INSERT INTO t (a) VALUES (1)").unwrap();
    engine.execute("INSERT INTO t (a) VALUES (2)").unwrap();
    engine.execute("UPDATE t SET a = 3 WHERE a = 2").unwrap();
    engine.execute("SELECT a FROM t").unwrap();
    engine.execute("DELETE FROM t WHERE a = 3").unwrap();
    assert!(engine.execute("FROB GARBAGE").is_err());
    assert!(engine.execute("SELECT missing_col FROM t").is_err());

    let m = engine.metrics();
    assert_eq!(m.inserts, 2);
    assert_eq!(m.updates, 1);
    assert_eq!(m.selects, 2, "failed binds still count as SELECT attempts");
    assert_eq!(m.deletes, 1);
    assert_eq!(m.statement_errors, 2, "one parse error + one bind error");
    assert_eq!(m.statements(), 6, "parse failures are not classified");

    let recent = engine.recent_queries();
    assert_eq!(recent.len(), 6, "unparseable text never reaches the ring");
    assert_eq!(recent[0].kind, Some(StatementKind::Insert));
    assert_eq!(recent[0].rows, 1);
    assert!(recent[0].ok());
    let last = recent.last().unwrap();
    assert_eq!(last.kind, Some(StatementKind::Select));
    assert_eq!(last.sql, "SELECT missing_col FROM t");
    assert!(!last.ok());
}

#[test]
fn metadata_cache_hits_on_repeat_queries() {
    let (local, _l0, _l1) = two_server_setup(TpchScale::tiny());
    let sql = "SELECT COUNT(*) AS n FROM remote0.tpch.dbo.customer";

    local.query(sql).unwrap();
    let first = local.metrics();
    assert!(
        first.meta_cache_misses > 0,
        "first query must fetch remote metadata"
    );

    local.query(sql).unwrap();
    local.query(sql).unwrap();
    let after = local.metrics();
    assert_eq!(
        after.meta_cache_misses, first.meta_cache_misses,
        "repeat queries must not re-fetch metadata"
    );
    assert!(
        after.meta_cache_hits > first.meta_cache_hits,
        "repeat queries hit the cache"
    );
}

#[test]
fn linked_server_reregistration_invalidates_stale_metadata() {
    let local = Engine::new("local");

    let old = Engine::new("old-remote");
    old.create_table(TableDef::new(
        "t",
        Schema::new(vec![Column::not_null("a", DataType::Int)]),
    ))
    .unwrap();
    old.insert("t", &[Row::new(vec![Value::Int(1)])]).unwrap();
    local
        .add_linked_server("srv", Arc::new(EngineDataSource::new(old)))
        .unwrap();
    local.query("SELECT a FROM srv.db.dbo.t").unwrap();
    // The old schema has no column b.
    assert!(local.query("SELECT b FROM srv.db.dbo.t").is_err());

    // Re-point 'srv' at an engine whose t has an extra column. Without
    // invalidation the cached single-column schema would still bind.
    let new = Engine::new("new-remote");
    new.create_table(TableDef::new(
        "t",
        Schema::new(vec![
            Column::not_null("a", DataType::Int),
            Column::not_null("b", DataType::Str),
        ]),
    ))
    .unwrap();
    new.insert(
        "t",
        &[Row::new(vec![Value::Int(2), Value::Str("x".into())])],
    )
    .unwrap();
    local
        .add_linked_server("srv", Arc::new(EngineDataSource::new(new)))
        .unwrap();

    let r = local.query("SELECT b FROM srv.db.dbo.t").unwrap();
    assert_eq!(r.value(0, 0), &Value::Str("x".into()));
}

#[test]
fn dtc_outcomes_surface_in_metrics() {
    let engine = Engine::new("local");
    let remote = Engine::new("remote");
    remote
        .create_table(TableDef::new(
            "t",
            Schema::new(vec![Column::not_null("a", DataType::Int)]),
        ))
        .unwrap();
    let source: Arc<dyn dhqp_oledb::DataSource> = Arc::new(EngineDataSource::new(remote));

    let mut txn = engine.dtc().begin();
    txn.enlist("srv", source.create_session().unwrap()).unwrap();
    txn.commit().unwrap();

    let mut txn = engine.dtc().begin();
    txn.enlist("srv", source.create_session().unwrap()).unwrap();
    txn.abort().unwrap();

    let m = engine.metrics();
    assert_eq!(m.dtc_commits, 1);
    assert_eq!(m.dtc_aborts, 1);
}

#[test]
fn fulltext_searches_are_counted() {
    let engine = Engine::new("local");
    engine
        .create_table(
            TableDef::new(
                "docs",
                Schema::new(vec![
                    Column::not_null("id", DataType::Int),
                    Column::new("body", DataType::Str),
                ]),
            )
            .with_index("pk_docs", &["id"], true),
        )
        .unwrap();
    engine
        .insert(
            "docs",
            &[Row::new(vec![
                Value::Int(1),
                Value::Str("distributed query processing".into()),
            ])],
        )
        .unwrap();
    engine
        .create_fulltext_index("docs", "id", "body", "docs_ft")
        .unwrap();
    assert_eq!(engine.metrics().fulltext_searches, 0);

    let r = engine
        .query("SELECT id FROM docs WHERE CONTAINS(body, 'query')")
        .unwrap();
    assert_eq!(r.len(), 1);
    assert!(engine.metrics().fulltext_searches >= 1);
}

#[test]
fn link_histograms_report_the_modeled_latency_distribution() {
    // A deterministic link: 3 ms per round trip, no bandwidth term, no
    // sleeping — every percentile must come out of the accounting model.
    let cfg = NetworkConfig {
        latency_us: 3_000,
        bytes_per_ms: 0,
        simulate_delay: false,
    };
    let remote = Engine::new("remote");
    remote
        .create_table(TableDef::new(
            "t",
            Schema::new(vec![Column::not_null("a", DataType::Int)]),
        ))
        .unwrap();
    remote
        .insert("t", &[Row::new(vec![Value::Int(1)])])
        .unwrap();
    let local = Engine::new("local");
    let link = NetworkLink::new("fixed-link", cfg);
    local
        .add_linked_server(
            "srv",
            Arc::new(NetworkedDataSource::new(
                Arc::new(EngineDataSource::new(remote)),
                link.clone(),
            )),
        )
        .unwrap();
    for _ in 0..5 {
        local.query("SELECT a FROM srv.db.dbo.t").unwrap();
    }

    let hist = link.latency_histogram();
    assert!(hist.count >= 5, "every round trip recorded: {hist:?}");
    let summary = link.latency_summary();
    assert_eq!(summary.max_us, 3_000, "modeled time is exact");
    // 3 000 µs lands in the [2048, 4096) log bucket whose upper edge the
    // percentile clamps to the observed max — so with one fixed latency
    // every percentile is exactly the configured value.
    assert_eq!(summary.p50_us, 3_000);
    assert_eq!(summary.p95_us, 3_000);
    assert_eq!(summary.p99_us, 3_000);
    assert!(
        link.payload_histogram().count > 0,
        "payload sizes recorded alongside latencies"
    );

    // The same distribution surfaces in EXPLAIN ANALYZE's wire lines.
    let rendered = local
        .execute_analyze("SELECT a FROM srv.db.dbo.t")
        .unwrap()
        .render();
    assert!(rendered.contains("[link latency: p50=3.00ms"), "{rendered}");
}

#[test]
fn slow_query_log_captures_threshold_crossers() {
    // A zero threshold turns the slow-query ring into "everything".
    let engine = EngineBuilder::new("local")
        .slow_query_threshold(Some(Duration::ZERO))
        .build();
    engine
        .create_table(TableDef::new(
            "t",
            Schema::new(vec![Column::not_null("a", DataType::Int)]),
        ))
        .unwrap();
    engine.query("SELECT a FROM t").unwrap();
    let slow = engine.slow_queries();
    assert_eq!(slow.len(), 1);
    assert_eq!(slow[0].sql, "SELECT a FROM t");

    // Without an armed threshold nothing is retained.
    let quiet = Engine::new("quiet");
    quiet
        .create_table(TableDef::new(
            "t",
            Schema::new(vec![Column::not_null("a", DataType::Int)]),
        ))
        .unwrap();
    quiet.query("SELECT a FROM t").unwrap();
    assert!(quiet.slow_queries().is_empty());
}

#[test]
fn explain_analyze_reports_self_time_with_adaptive_units() {
    let (local, _l0, _l1) = two_server_setup(TpchScale::tiny());
    let rendered = local.execute_analyze(TWO_SERVER_JOIN).unwrap().render();
    assert!(rendered.contains(" time="), "{rendered}");
    assert!(rendered.contains(" self="), "{rendered}");
    // Sub-millisecond operators render in µs, not 0.00ms.
    assert!(
        !rendered.contains("self=0.00ms"),
        "adaptive units collapsed: {rendered}"
    );
}

/// One plan × runtime walk: the operator spans and the EXPLAIN ANALYZE
/// lines are two renderings of `record.operators`, so for every node of the
/// two-server join the span's `self_us` is the self time the report prints.
#[test]
fn operator_spans_and_explain_analyze_agree_on_self_time() {
    let (local, _l0, _l1) = two_server_setup(TpchScale::tiny());
    local.set_trace_config(TraceConfig::enabled());
    let report = local.execute_analyze(TWO_SERVER_JOIN).unwrap();
    let rendered = report.render();
    // The tree comes first, one line per operator in pre-order, each
    // followed by its indented `[...]` annotations.
    let lines: Vec<&str> = rendered
        .lines()
        .take_while(|l| !l.starts_with("--"))
        .filter(|l| !l.trim_start().starts_with('['))
        .collect();
    fn collect(span: &dhqp::TraceSpan, out: &mut Vec<(usize, u128)>) {
        if let (Some(node), Some(self_us)) = (span.attr("node"), span.attr("self_us")) {
            out.push((node.parse().unwrap(), self_us.parse().unwrap()));
        }
        span.children.iter().for_each(|c| collect(c, out));
    }
    let trace = report.record.trace.as_ref().expect("tracing is armed");
    let mut spans = Vec::new();
    collect(trace.find("execute").unwrap(), &mut spans);
    let operators = &report.record.operators;
    assert!(operators.len() >= 5, "two remotes, nation, two joins");
    assert_eq!(
        (lines.len(), spans.len()),
        (operators.len(), operators.len())
    );
    for (at, (node, self_us)) in spans.into_iter().enumerate() {
        assert_eq!(node, at, "spans are in pre-order");
        assert_eq!(self_us, operators[node].self_time.as_micros());
        let printed = match self_us {
            us if us < 1_000 => format!(" self={us}µs"),
            us if us < 1_000_000 => format!(" self={:.2}ms", us as f64 / 1_000.0),
            us => format!(" self={:.2}s", us as f64 / 1_000_000.0),
        };
        assert!(
            lines[node].ends_with(&printed),
            "{printed}: {}",
            lines[node]
        );
    }
}

/// Four sessions on one shared engine, fifty distinct traced statements
/// each, started together: what a session gets back is the record of the
/// statement it sent, never the one that happened to finish last.
#[test]
fn each_statement_gets_its_own_record_under_concurrency() {
    use dhqp::PlanCacheConfig;
    const SESSIONS: usize = 4;
    const STATEMENTS: i64 = 50;
    let engine = EngineBuilder::new("shared")
        .trace_config(TraceConfig::enabled())
        .plan_cache_config(PlanCacheConfig::default())
        .build();
    engine
        .create_table(TableDef::new(
            "t",
            Schema::new(vec![Column::not_null("a", DataType::Int)]),
        ))
        .unwrap();
    let rows: Vec<Row> = (0..STATEMENTS)
        .map(|a| Row::new(vec![Value::Int(a)]))
        .collect();
    engine.insert("t", &rows).unwrap();

    let start = std::sync::Barrier::new(SESSIONS);
    std::thread::scope(|scope| {
        for session in 0..SESSIONS {
            let (engine, start) = (engine.clone(), &start);
            scope.spawn(move || {
                start.wait();
                for k in 1..=STATEMENTS {
                    // The alias tells the sessions' templates apart, the
                    // bound tells one session's statements apart.
                    let sql = format!("SELECT a AS c{session} FROM t WHERE a < {k}");
                    let (result, record) = engine.execute_recorded(&sql, Default::default());
                    assert_eq!(result.unwrap().len() as i64, k, "{sql}");
                    let template = dhqp_sqlfront::fingerprint(&sql).unwrap().template;
                    let trace = record.trace.as_ref().expect("tracing is armed");
                    assert_eq!(
                        (record.sql.as_str(), trace.sql.as_str(), record.rows as i64),
                        (sql.as_str(), sql.as_str(), k)
                    );
                    assert_eq!(record.fingerprint.as_ref(), Some(&template), "{sql}");
                    assert_eq!(trace.root.elapsed, record.elapsed, "{sql}");
                }
            });
        }
    });
    assert_eq!(
        engine.metrics().selects,
        SESSIONS as u64 * STATEMENTS as u64
    );
}

/// Head engine federating four members that hold the seven `lineitem_9x`
/// partitions, each behind a *timed* LAN link (so blocking is real wall
/// time) armed with exactly one transient fault.
fn flaky_parallel_federation() -> (Engine, Vec<NetworkLink>) {
    let head = Engine::new("head");
    let members: Vec<Engine> = (1..=4)
        .map(|i| Engine::new(format!("member{i}-engine")))
        .collect();
    let engines: Vec<&dhqp_storage::StorageEngine> =
        members.iter().map(|e| e.storage().as_ref()).collect();
    let parts = tpch::create_lineitem_partitions(&engines, &TpchScale::tiny(), 17).unwrap();

    let mut links = Vec::new();
    for (i, m) in members.iter().enumerate() {
        let link = NetworkLink::new(format!("member{}", i + 1), NetworkConfig::lan_timed());
        let inner: Arc<dyn dhqp_oledb::DataSource> = Arc::new(EngineDataSource::new(m.clone()));
        let wrapped = NetworkedDataSource::with_faults(
            inner,
            link.clone(),
            FaultConfig::one_transient_per_link(42),
        );
        head.add_linked_server(&format!("member{}", i + 1), Arc::new(wrapped))
            .unwrap();
        links.push(link);
    }
    let view_members = parts
        .into_iter()
        .map(|(idx, table, domain)| (Some(format!("member{}", idx + 1)), table, domain))
        .collect();
    head.define_partitioned_view("lineitem_all", "l_commitdate", view_members)
        .unwrap();
    (head, links)
}

const FEDERATION_SCAN: &str = "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem_all";

fn fast_retries() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        attempt_deadline: None,
        query_deadline: None,
    }
}

/// The PR's acceptance scenario: one parallel, fault-injected federation
/// query must light up the wait-stats DMV consistently with the per-query
/// `[waits:]` report, surface retry/fault events through the event bus,
/// and export a Perfetto trace with one track per exchange worker.
#[test]
fn parallel_flaky_federation_reports_waits_events_and_worker_tracks() {
    let (head, links) = flaky_parallel_federation();
    head.set_retry_policy(fast_retries());
    head.set_parallel_config(ParallelConfig::parallel());
    head.set_event_config(EventConfig::all());
    head.set_trace_config(TraceConfig::enabled());

    let report = head.execute_analyze(FEDERATION_SCAN).unwrap();
    let scale = TpchScale::tiny();
    assert_eq!(
        report.result.len(),
        scale.orders * scale.lineitems_per_order,
        "faults and instrumentation must not change the answer"
    );
    let faults: u64 = links.iter().map(NetworkLink::faults_injected).sum();
    assert_eq!(faults, links.len() as u64, "one injected fault per link");

    // (a) Per-query wait accounting: the statement blocked on the wire,
    // on retry backoff and on the exchange's bounded channel.
    let waits = report.record.waits;
    let net = waits.get(WaitClass::NetworkIo);
    assert!(
        net.count > 0 && net.total_us > 0,
        "no NETWORK_IO: {waits:?}"
    );
    let backoff = waits.get(WaitClass::RetryBackoff);
    assert!(
        backoff.count >= faults && backoff.total_us > 0,
        "every injected fault sleeps one backoff: {waits:?}"
    );
    let exchange_waits = waits.get(WaitClass::ExchangeQueueFull).count
        + waits.get(WaitClass::ExchangeQueueEmpty).count;
    assert!(exchange_waits > 0, "no exchange-channel waits: {waits:?}");
    let rendered = report.render();
    assert!(rendered.contains("-- [waits:"), "{rendered}");
    assert!(rendered.contains("NETWORK_IO="), "{rendered}");
    assert!(rendered.contains("RETRY_BACKOFF="), "{rendered}");

    // Engine-cumulative accounting dominates the per-query snapshot, and
    // `sys.dm_os_wait_stats` serves exactly that accounting.
    let cumulative = head.wait_stats();
    for class in WaitClass::ALL {
        assert!(
            cumulative.get(class).count >= waits.get(class).count,
            "engine-cumulative {} lost waits",
            class.name()
        );
    }
    let r = head
        .query("SELECT wait_type, waiting_tasks_count, wait_time_ms FROM sys.dm_os_wait_stats")
        .unwrap();
    assert_eq!(r.rows.len(), WaitClass::ALL.len());
    for (class, expected) in [
        (WaitClass::NetworkIo, net),
        (WaitClass::RetryBackoff, backoff),
    ] {
        let row = r
            .rows
            .iter()
            .find(|row| row.get(0) == &Value::Str(class.name().to_string()))
            .unwrap_or_else(|| panic!("{} row missing", class.name()));
        assert!(
            matches!(row.get(1), Value::Int(n) if *n as u64 >= expected.count),
            "DMV undercounts {}: {row:?}",
            class.name()
        );
        assert!(
            matches!(row.get(2), Value::Float(ms) if *ms > 0.0),
            "DMV reports no wait time for {}: {row:?}",
            class.name()
        );
    }

    // (b) The event bus saw the faults, the retries and the exchange
    // lifecycle — both through the API and through the DMV.
    let events = head.recent_events();
    for kind in [
        EventKind::QueryStart,
        EventKind::QueryEnd,
        EventKind::FaultInjected,
        EventKind::RetryAttempt,
        EventKind::ExchangeSpawn,
        EventKind::ExchangeDrain,
    ] {
        assert!(
            events.iter().any(|e| e.kind == kind),
            "no {} event: {events:?}",
            kind.name()
        );
    }
    let retry = events
        .iter()
        .find(|e| e.kind == EventKind::RetryAttempt)
        .unwrap();
    assert!(
        retry.detail().contains("attempt=") && retry.detail().contains("backoff_ms="),
        "{retry:?}"
    );
    let r = head
        .query("SELECT kind FROM sys.dm_xe_recent_events")
        .unwrap();
    for kind in ["retry", "fault"] {
        assert!(
            r.rows
                .iter()
                .any(|row| row.get(0) == &Value::Str(kind.to_string())),
            "{kind} missing from dm_xe_recent_events: {r:?}"
        );
    }

    // (c) The Perfetto export is a trace_event document with one thread
    // track per exchange worker (7 branches under the 8-worker cap).
    let trace = report.record.trace.as_ref().expect("tracing was armed");
    let json = trace.to_chrome_json();
    assert!(
        json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
        "{json}"
    );
    assert!(json.ends_with("]}"), "{json}");
    assert!(json.contains("\"name\":\"query\""), "{json}");
    for worker in 0..7u64 {
        assert!(
            json.contains(&format!("\"name\":\"worker-{worker}\"")),
            "worker {worker} has no track:\n{json}"
        );
        assert!(
            json.contains(&format!("\"tid\":{}", worker + 1)),
            "worker {worker} shares a track:\n{json}"
        );
    }
}

#[test]
fn wait_accounting_covers_compile_stats_fetch_and_spool() {
    let (local, _l0, _l1) = two_server_setup(TpchScale::tiny());
    assert!(
        local.wait_stats().is_empty(),
        "programmatic setup runs no statements"
    );
    // The outer join pins the remote table on the inner side: the first
    // open builds a spool (SPOOL), binding fetches remote metadata and
    // statistics (STATS_FETCH) over the accounting-only link (NETWORK_IO),
    // and the statement itself compiles (PLAN_COMPILE).
    let sql = "SELECT COUNT(*) AS n FROM nation n LEFT OUTER JOIN remote1.tpch.dbo.supplier s \
               ON s.s_suppkey > n.n_nationkey";
    local.query(sql).unwrap();
    let w = local.wait_stats();
    for class in [
        WaitClass::PlanCompile,
        WaitClass::StatsFetch,
        WaitClass::Spool,
        WaitClass::NetworkIo,
    ] {
        assert!(
            w.get(class).count > 0,
            "no {} waits recorded: {w:?}",
            class.name()
        );
    }

    // DBCC SQLPERF CLEAR analog: zeroed without touching other state.
    local.clear_wait_stats();
    assert!(local.wait_stats().is_empty());
    assert!(local.metrics().selects >= 1, "clear leaves counters alone");
}

#[test]
fn reset_metrics_clears_counters_rings_and_waits() {
    let engine = Engine::new("local");
    engine
        .create_table(TableDef::new(
            "t",
            Schema::new(vec![Column::not_null("a", DataType::Int)]),
        ))
        .unwrap();
    engine.execute("INSERT INTO t (a) VALUES (1)").unwrap();
    engine.query("SELECT a FROM t").unwrap();
    assert!(engine.metrics().statements() >= 2);
    assert!(!engine.recent_queries().is_empty());
    assert!(engine.wait_stats().get(WaitClass::PlanCompile).count > 0);

    engine.reset_metrics();
    let m = engine.metrics();
    assert_eq!(m.statements(), 0);
    assert_eq!(m.inserts, 0);
    assert!(engine.recent_queries().is_empty());
    assert!(engine.wait_stats().is_empty());

    // The engine keeps working, and counting resumes from zero.
    engine.query("SELECT a FROM t").unwrap();
    assert_eq!(engine.metrics().selects, 1);
    assert_eq!(engine.recent_queries().len(), 1);
}

#[test]
fn slow_query_events_carry_the_dominant_wait() {
    let remote = Engine::new("remote");
    remote
        .create_table(TableDef::new(
            "t",
            Schema::new(vec![Column::not_null("a", DataType::Int)]),
        ))
        .unwrap();
    remote
        .insert("t", &[Row::new(vec![Value::Int(1)])])
        .unwrap();
    // Zero threshold: every statement is "slow". The builder arms events,
    // exercising the config path the `DHQP_EVENTS` env knob feeds.
    let local = EngineBuilder::new("local")
        .slow_query_threshold(Some(Duration::ZERO))
        .event_config(EventConfig::all())
        .build();
    let link = NetworkLink::new("slow-link", NetworkConfig::lan());
    local
        .add_linked_server(
            "srv",
            Arc::new(NetworkedDataSource::new(
                Arc::new(EngineDataSource::new(remote)),
                link,
            )),
        )
        .unwrap();
    local.query("SELECT a FROM srv.db.dbo.t").unwrap();

    // The slow-query ring attributes the statement to its dominant wait
    // class: the modeled 0.5 ms round trips dwarf compile time, unless
    // the CI matrix arms fault injection (DHQP_FAULT_SEED) and the retry
    // backoff sleeps are longer still. Either way the attribution is the
    // wire, not the compiler.
    let slow = local.slow_queries();
    let dominant = slow[0].dominant_wait().expect("slow query carries a wait");
    assert!(
        dominant == "NETWORK_IO" || dominant == "RETRY_BACKOFF",
        "{slow:?}"
    );

    // The event stream carries the same attribution.
    let event = local
        .recent_events()
        .into_iter()
        .find(|e| e.kind == EventKind::SlowQuery)
        .expect("zero threshold makes every statement slow");
    assert!(
        event
            .detail()
            .contains(&format!("dominant_wait={dominant}")),
        "{event:?}"
    );

    // Filtered configs drop other kinds: only() keeps what it names.
    assert!(local.event_config().wants(EventKind::QueryStart));
    local.set_event_config(EventConfig::only(&[EventKind::SlowQuery]));
    assert!(!local.event_config().wants(EventKind::QueryStart));
    local.query("SELECT a FROM srv.db.dbo.t").unwrap();
    let events = local.recent_events();
    assert!(!events.is_empty(), "slow_query still captured");
    assert!(
        events.iter().all(|e| e.kind == EventKind::SlowQuery),
        "{events:?}"
    );
}

#[test]
fn jsonl_sink_streams_engine_events() {
    use std::sync::Mutex;
    #[derive(Clone, Default)]
    struct Buf(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for Buf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let engine = Engine::new("local");
    engine.set_event_config(EventConfig::all());
    let buf = Buf::default();
    engine.add_event_sink(Box::new(dhqp::JsonlSink::new(buf.clone())));
    engine
        .create_table(TableDef::new(
            "t",
            Schema::new(vec![Column::not_null("a", DataType::Int)]),
        ))
        .unwrap();
    engine.query("SELECT a FROM t").unwrap();

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "sink saw no events");
    assert!(
        lines.iter().all(|l| l.starts_with("{\"seq\":")),
        "{lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.contains("\"kind\":\"query_end\"")),
        "{lines:?}"
    );
}

#[test]
fn spool_hits_and_remote_roundtrips_are_counted() {
    let (local, _l0, _l1) = two_server_setup(TpchScale::tiny());
    // Outer join pins the remote table on the inner side; the spool
    // answers every rescan after the first from its cache.
    let sql = "SELECT COUNT(*) AS n FROM nation n LEFT OUTER JOIN remote1.tpch.dbo.supplier s \
               ON s.s_suppkey > n.n_nationkey";
    local.query(sql).unwrap();
    let m = local.metrics();
    assert!(
        m.remote_roundtrips > 0,
        "the supplier fetch crosses the link"
    );
    assert!(m.spool_builds >= 1, "the inner subtree is spooled");
    assert!(
        m.spool_hits >= 1,
        "rescans are served from the spool: {m:?}"
    );
}

#[test]
fn batch_flush_events_land_on_the_ring_behind_the_mask() {
    use dhqp::BatchConfig;
    let (local, link0, _l1) = two_server_setup(TpchScale::tiny());
    local.set_batch_config(BatchConfig::batched(4));
    local.set_event_config(EventConfig::only(&[EventKind::BatchFlush]));

    let r = local
        .query("SELECT c_custkey FROM remote0.tpch.dbo.customer")
        .unwrap();
    assert!(!r.rows.is_empty());

    let events = local.recent_events();
    assert!(!events.is_empty(), "no batch_flush events captured");
    assert!(
        events.iter().all(|e| e.kind == EventKind::BatchFlush),
        "mask must admit only batch_flush: {events:?}"
    );
    let flushes: Vec<_> = events
        .iter()
        .filter(|e| e.detail().contains("link=link-remote0"))
        .collect();
    assert!(
        !flushes.is_empty(),
        "no flush attributed to the customer link"
    );
    for e in &flushes {
        assert!(
            e.detail().contains("rows=") && e.detail().contains("bytes="),
            "flush event missing row/byte attrs: {e:?}"
        );
    }
    // Every result row shipped in exactly one flush: the event stream's
    // row total matches the rows the scan pulled across the wire (the
    // link's grand total also counts bind-time metadata reads, which go
    // row-at-a-time and emit no flushes).
    let event_rows: u64 = flushes
        .iter()
        .filter_map(|e| {
            e.detail()
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix("rows="))
                .and_then(|v| v.parse::<u64>().ok())
        })
        .sum();
    assert_eq!(event_rows, r.rows.len() as u64, "flush events lose rows");
    assert!(
        link0.snapshot().rows >= event_rows,
        "wire accounting can never trail the flushed rows"
    );

    // With batch_flush masked out, the same query records nothing.
    local.set_event_config(EventConfig::only(&[EventKind::SlowQuery]));
    local
        .query("SELECT c_custkey FROM remote0.tpch.dbo.customer")
        .unwrap();
    assert!(
        local.recent_events().is_empty(),
        "masked batch_flush still captured"
    );
}

// ---- Perfetto export validity -------------------------------------------

/// A minimal strict JSON value — the test's own parser, so "parseable"
/// means parseable by the grammar, not by substring luck.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Recursive-descent JSON parser: rejects trailing garbage, unterminated
/// strings, bad escapes and malformed numbers.
fn parse_json(s: &str) -> Result<Json, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("non-string key {other:?}")),
                };
                expect(b, pos, b':')?;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut out = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(out));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex =
                                    b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(&c) if c < 0x20 => {
                        return Err(format!("unescaped control byte 0x{c:02x}"))
                    }
                    Some(_) => {
                        // Multi-byte UTF-8 sequences pass through verbatim.
                        let start = *pos;
                        while *pos < b.len() && b[*pos] & 0xc0 == 0x80 || *pos == start {
                            *pos += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?,
                        );
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|t| t.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at {start}"))
        }
        None => Err("unexpected end of input".into()),
    }
}

/// The Perfetto export under parallel chaos must be *parseable* JSON (by
/// the grammar, not substring checks) whose trace_event stream gives each
/// exchange worker its own thread track with the wait slices riding on it.
#[test]
fn chrome_trace_export_parses_with_one_track_per_exchange_worker() {
    let (head, links) = flaky_parallel_federation();
    head.set_retry_policy(fast_retries());
    head.set_parallel_config(ParallelConfig::parallel());
    head.set_trace_config(TraceConfig::enabled());

    let (result, record) = head.execute_recorded(FEDERATION_SCAN, Default::default());
    result.unwrap();
    let faults: u64 = links.iter().map(NetworkLink::faults_injected).sum();
    assert_eq!(faults, links.len() as u64, "chaos leg armed");

    let trace = record.trace.as_ref().expect("tracing was armed");
    let json = trace.to_chrome_json();
    let doc = parse_json(&json).unwrap_or_else(|e| panic!("unparseable export: {e}\n{json}"));

    assert_eq!(
        doc.get("displayTimeUnit"),
        Some(&Json::Str("ms".to_string()))
    );
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents missing or not an array: {doc:?}");
    };
    assert!(!events.is_empty());
    // Every event is a complete slice with the full field set.
    for ev in events {
        assert_eq!(ev.get("ph"), Some(&Json::Str("X".to_string())), "{ev:?}");
        assert_eq!(ev.get("pid").and_then(Json::as_num), Some(1.0), "{ev:?}");
        for field in ["name", "ts", "dur", "tid", "args"] {
            assert!(ev.get(field).is_some(), "{field} missing: {ev:?}");
        }
    }
    // The query's own track is tid 0; each of the 7 partition branches
    // runs on its worker's private track (tid = N+1), and no two workers
    // share one.
    let root = events
        .iter()
        .find(|e| e.get("name") == Some(&Json::Str("query".to_string())))
        .expect("root span");
    assert_eq!(root.get("tid").and_then(Json::as_num), Some(0.0));
    let mut worker_tids = Vec::new();
    for worker in 0..7u64 {
        let name = Json::Str(format!("worker-{worker}"));
        let ev = events
            .iter()
            .find(|e| e.get("name") == Some(&name))
            .unwrap_or_else(|| panic!("worker-{worker} has no slice"));
        let tid = ev.get("tid").and_then(Json::as_num).unwrap();
        assert_eq!(tid, worker as f64 + 1.0, "worker-{worker} off-track");
        assert!(!worker_tids.contains(&tid.to_bits()), "shared track");
        worker_tids.push(tid.to_bits());
    }
}

// ---- one statement lifecycle ---------------------------------------------------

/// Head engine for the lifecycle tests: a local `docs` table with a
/// full-text index, `rt` on linked server `srv`, and `acct_all`
/// partitioned over a local and a remote member. Events (start/end only),
/// tracing and the Query Store are armed; the link injects no faults so the
/// fixture reads the same under every CI leg. Returns `(head, remote)`.
fn lifecycle_fixture(plan_cache: bool) -> (Engine, Engine) {
    use dhqp::{PlanCacheConfig, QueryStoreConfig};
    use dhqp_workload::accounts::create_account_partition;
    let remote = Engine::new("remote");
    remote
        .create_table(TableDef::new(
            "rt",
            Schema::new(vec![
                Column::not_null("k", DataType::Int),
                Column::not_null("v", DataType::Int),
            ]),
        ))
        .unwrap();
    let rows: Vec<Row> = (0..20)
        .map(|k| Row::new(vec![Value::Int(k), Value::Int(k % 3)]))
        .collect();
    remote.insert("rt", &rows).unwrap();
    let hi = create_account_partition(remote.storage(), "acct_hi", 100, 119, 7).unwrap();

    let head = EngineBuilder::new("head")
        .plan_cache_config(PlanCacheConfig {
            enabled: plan_cache,
            ..PlanCacheConfig::default()
        })
        .trace_config(TraceConfig::enabled())
        .event_config(EventConfig::only(&[
            EventKind::QueryStart,
            EventKind::QueryEnd,
        ]))
        .query_store_config(QueryStoreConfig {
            enabled: true,
            ..QueryStoreConfig::default()
        })
        .build();
    head.create_table(
        TableDef::new(
            "docs",
            Schema::new(vec![
                Column::not_null("id", DataType::Int),
                Column::not_null("body", DataType::Str),
            ]),
        )
        .with_index("pk_docs", &["id"], true),
    )
    .unwrap();
    let docs: Vec<Row> = ["remote query plans", "local plans", "query stores"]
        .iter()
        .enumerate()
        .map(|(i, body)| Row::new(vec![Value::Int(i as i64), Value::Str(body.to_string())]))
        .collect();
    head.insert("docs", &docs).unwrap();
    head.create_fulltext_index("docs", "id", "body", "docs_ft")
        .unwrap();
    let lo = create_account_partition(head.storage(), "acct_lo", 0, 19, 5).unwrap();
    head.add_linked_server(
        "srv",
        Arc::new(NetworkedDataSource::reliable(
            Arc::new(EngineDataSource::new(remote.clone())),
            NetworkLink::new("lifecycle-link", NetworkConfig::lan()),
        )),
    )
    .unwrap();
    head.define_partitioned_view(
        "acct_all",
        "id",
        vec![
            (None, "acct_lo".to_string(), lo),
            (Some("srv".to_string()), "acct_hi".to_string(), hi),
        ],
    )
    .unwrap();
    (head, remote)
}

fn lifecycle_head(plan_cache: bool) -> Engine {
    lifecycle_fixture(plan_cache).0
}

/// A row multiset in comparable form.
fn sorted(rows: Vec<Row>) -> Vec<String> {
    let mut rows: Vec<String> = rows.iter().map(|row| format!("{row:?}")).collect();
    rows.sort();
    rows
}

fn start_end_counts(engine: &Engine) -> (usize, usize) {
    let events = engine.recent_events();
    let count = |kind| events.iter().filter(|e| e.kind == kind).count();
    (count(EventKind::QueryStart), count(EventKind::QueryEnd))
}

fn query_store_executions(engine: &Engine) -> u64 {
    engine
        .query_store_queries()
        .iter()
        .map(|q| q.executions())
        .sum()
}

/// Every way of sending a SELECT runs the same begin → compile → run →
/// finish pipeline: SELECT corpus × entry point × plan-cache state, each
/// cell on a fresh engine, checking what every observability surface saw
/// of exactly one statement.
#[test]
fn every_entry_point_runs_one_statement_lifecycle() {
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Entry {
        Execute,
        ExplainAnalyzeText,
        ExecuteAnalyze,
    }
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Cache {
        ColdMiss,
        WarmHit,
        Disabled,
    }
    // (statement, value of its `@top` parameter, whether the plan cache
    // may hold it): local, remote pushdown, partitioned view, full-text
    // (compiled afresh every time), user parameter.
    let corpus: [(&str, Option<i64>, bool); 5] = [
        ("SELECT id FROM docs WHERE id >= 1", None, true),
        ("SELECT k FROM srv.db.dbo.rt WHERE v = 1", None, true),
        (
            "SELECT id, balance FROM acct_all WHERE id >= 10 AND id <= 105",
            None,
            true,
        ),
        (
            "SELECT id FROM docs WHERE CONTAINS(body, 'plans')",
            None,
            false,
        ),
        ("SELECT k FROM srv.db.dbo.rt WHERE k < @top", Some(4), true),
    ];
    for (sql, top, cacheable) in corpus {
        let params: std::collections::HashMap<String, Value> = top
            .iter()
            .map(|top| ("top".to_string(), Value::Int(*top)))
            .collect();
        let expected = sorted(
            lifecycle_head(false)
                .query_with_params(sql, params.clone())
                .unwrap()
                .rows,
        );
        assert!(!expected.is_empty(), "{sql}");
        for cache in [Cache::ColdMiss, Cache::WarmHit, Cache::Disabled] {
            for entry in [
                Entry::Execute,
                Entry::ExplainAnalyzeText,
                Entry::ExecuteAnalyze,
            ] {
                let cell = format!("{sql} / {entry:?} / {cache:?}");
                let head = lifecycle_head(cache != Cache::Disabled);
                if cache == Cache::WarmHit {
                    head.query_with_params(sql, params.clone()).unwrap();
                }
                let sent = match entry {
                    Entry::ExplainAnalyzeText => format!("EXPLAIN ANALYZE {sql}"),
                    _ => sql.to_string(),
                };
                // Restarting the event session empties its ring.
                head.set_event_config(head.event_config());
                let before = head.metrics();
                let ring_before = head.recent_queries().len();
                let stored_before = query_store_executions(&head);

                let (rows, text, record) = match entry {
                    Entry::Execute => {
                        let (r, record) = head.execute_recorded(&sent, params.clone());
                        (Some(r.unwrap().rows), None, record)
                    }
                    Entry::ExplainAnalyzeText => {
                        let (r, record) = head.execute_recorded(&sent, params.clone());
                        let rows = r.unwrap().rows;
                        let lines: Vec<String> =
                            rows.iter().map(|row| row.get(0).to_string()).collect();
                        (None, Some(lines.join("\n")), record)
                    }
                    Entry::ExecuteAnalyze => {
                        let report = head
                            .execute_analyze_with_params(&sent, params.clone())
                            .unwrap();
                        (
                            Some(report.result.rows.clone()),
                            Some(report.render()),
                            Arc::clone(&report.record),
                        )
                    }
                };
                let cache_hit = (entry == Entry::ExecuteAnalyze).then_some(record.cache_hit);

                let want_hit = match cache {
                    _ if !cacheable => None,
                    Cache::ColdMiss => Some(false),
                    Cache::WarmHit => Some(true),
                    Cache::Disabled => None,
                };
                if let Some(rows) = rows {
                    assert_eq!(sorted(rows), expected, "{cell}");
                }
                if let Some(hit) = cache_hit {
                    assert_eq!(hit, want_hit, "{cell}");
                }
                if let Some(text) = &text {
                    assert!(text.contains("actual_rows="), "{cell}: {text}");
                    let marker = match want_hit {
                        Some(true) => text.contains("[plan cache: hit]"),
                        Some(false) => text.contains("[plan cache: miss]"),
                        None => !text.contains("[plan cache:"),
                    };
                    assert!(marker, "{cell}: {text}");
                }

                let after = head.metrics();
                let kind = if entry == Entry::Execute {
                    assert_eq!(after.selects, before.selects + 1, "{cell}");
                    StatementKind::Select
                } else {
                    assert_eq!(
                        after.explain_analyzes,
                        before.explain_analyzes + 1,
                        "{cell}"
                    );
                    StatementKind::ExplainAnalyze
                };
                assert_eq!(after.statements(), before.statements() + 1, "{cell}");
                assert_eq!(after.statement_errors, before.statement_errors, "{cell}");

                let ring = head.recent_queries();
                assert_eq!(ring.len(), ring_before + 1, "{cell}");
                let last = ring.last().unwrap();
                assert!(
                    Arc::ptr_eq(last, &record),
                    "{cell}: the ring holds the record"
                );
                assert_eq!(
                    (last.sql.as_str(), last.kind, last.ok()),
                    (sent.as_str(), Some(kind), true),
                    "{cell}"
                );
                assert_eq!(last.rows, expected.len() as u64, "{cell}");
                assert_eq!(last.fingerprint.is_some(), want_hit.is_some(), "{cell}");

                assert_eq!(start_end_counts(&head), (1, 1), "{cell}");

                let trace = record.trace.as_ref().expect("tracing is armed");
                assert_eq!(trace.sql, sent, "{cell}");
                assert_eq!(trace.root.elapsed, record.elapsed, "{cell}: one stopwatch");
                let stages: Vec<&str> = trace
                    .root
                    .children
                    .iter()
                    .map(|s| s.name.as_str())
                    .collect();
                let want_stages: &[&str] = if want_hit == Some(true) {
                    &["plan-cache", "execute"]
                } else {
                    &["parse", "bind", "optimize", "execute"]
                };
                assert_eq!(stages, want_stages, "{cell}");

                assert_eq!(query_store_executions(&head), stored_before + 1, "{cell}");
            }
        }
    }
}

/// `Engine::execute_analyze` is a statement like any other: it lands on
/// every surface `execute("EXPLAIN ANALYZE …")` lands on.
#[test]
fn execute_analyze_is_accounted_like_explain_analyze_text() {
    let latency_count = |engine: &Engine| {
        let r = engine
            .query("SELECT value FROM sys.dm_os_counters WHERE name = 'query_latency_count'")
            .unwrap();
        match r.value(0, 0) {
            Value::Int(n) => *n,
            other => panic!("{other:?}"),
        }
    };
    // A point read of the partitioned view: the remote member is skipped at
    // startup, which the ring entry's annotations record.
    let sql = "SELECT balance FROM acct_all WHERE id = 5";
    let mut seen = Vec::new();
    for through_api in [false, true] {
        let head = lifecycle_head(true);
        let count_before = latency_count(&head);
        let sent = if through_api {
            head.execute_analyze(sql).unwrap();
            sql.to_string()
        } else {
            let text = format!("EXPLAIN ANALYZE {sql}");
            head.execute(&text).unwrap();
            text
        };
        let m = head.metrics();
        let last = head
            .recent_queries()
            .into_iter()
            .rfind(|q| q.kind == Some(StatementKind::ExplainAnalyze))
            .unwrap_or_else(|| panic!("no ring entry (through_api={through_api})"));
        assert_eq!(last.sql, sent);
        // The reading statement itself is the +1 on top of the analyzed one.
        let latency_samples = latency_count(&head) - count_before - 1;
        let ends = head
            .recent_events()
            .iter()
            .filter(|e| e.kind == EventKind::QueryEnd && e.detail().contains("EXPLAIN ANALYZE"))
            .count();
        seen.push((
            m.explain_analyzes,
            last.rows,
            last.fingerprint.clone(),
            last.annotations(),
            latency_samples,
            ends,
        ));
        if head.runtime_prune_enabled() {
            let annotations = last.annotations().unwrap_or_default();
            assert!(annotations.contains("[startup: "), "{last:?}");
        }
    }
    assert_eq!(seen[0], seen[1], "(text, api)");
    let (explain_analyzes, rows, fingerprint, _, latency_samples, ends) = &seen[1];
    assert_eq!(
        (*explain_analyzes, *rows, *latency_samples, *ends),
        (1, 1, 1, 1)
    );
    assert!(fingerprint.is_some(), "fingerprinted: {seen:?}");

    // Past an armed threshold it reaches the slow-query ring too.
    let slow = EngineBuilder::new("slow")
        .slow_query_threshold(Some(Duration::ZERO))
        .build();
    slow.create_table(TableDef::new(
        "t",
        Schema::new(vec![Column::not_null("a", DataType::Int)]),
    ))
    .unwrap();
    slow.execute_analyze("SELECT a FROM t WHERE a = 1").unwrap();
    let ring = slow.slow_queries();
    assert_eq!(ring.len(), 1, "{ring:?}");
    assert_eq!(ring[0].kind, Some(StatementKind::ExplainAnalyze));
}

/// Every `query_start` is matched by exactly one `query_end` carrying the
/// failure, and the failure is counted once — whichever stage raised it.
#[test]
fn every_error_exit_ends_the_statement_it_started() {
    type Call = fn(&Engine, &str) -> (Option<String>, Arc<StatementRecord>);
    let execute: Call = |e, sql| {
        let (result, record) = e.execute_recorded(sql, Default::default());
        (result.err().map(|e| e.to_string()), record)
    };
    let analyze: Call = |e, sql| {
        let (report, record) = e.execute_analyze_recorded(sql, Default::default());
        (report.err().map(|e| e.to_string()), record)
    };
    // (what fails, statement, entry point, classified?)
    let cases: [(&str, &str, Call, bool); 8] = [
        ("parse", "FROB GARBAGE", execute, false),
        ("parse", "SELECT FROM WHERE", execute, false),
        ("parse", "FROB GARBAGE", analyze, false),
        (
            "unsupported",
            "INSERT INTO docs (id, body) VALUES (9, 'x')",
            analyze,
            false,
        ),
        ("bind", "SELECT missing FROM docs", execute, true),
        ("bind", "SELECT missing FROM docs", analyze, true),
        (
            "execute",
            "SELECT k FROM srv.db.dbo.rt WHERE v = 1",
            execute,
            true,
        ),
        (
            "dml",
            "INSERT INTO docs (id, body) VALUES (0, 'duplicate key')",
            execute,
            true,
        ),
    ];
    for (stage, sql, call, classified) in cases {
        let (head, remote) = lifecycle_fixture(true);
        if stage == "execute" {
            // Compile against the live table, then drop it behind the
            // cached plan and the cached metadata.
            head.execute(sql).unwrap();
            remote.storage().drop_table("rt").unwrap();
        }
        head.set_event_config(head.event_config());
        let before = head.metrics();
        let ring_before = head.recent_queries().len();
        let (message, record) = call(&head, sql);
        let message = message.unwrap_or_else(|| panic!("{stage}: {sql} must fail"));
        let after = head.metrics();
        assert_eq!(start_end_counts(&head), (1, 1), "{stage}: {sql}");
        let end = head
            .recent_events()
            .into_iter()
            .find(|e| e.kind == EventKind::QueryEnd)
            .unwrap();
        let error = end.attrs.iter().find(|(k, _)| k == "error");
        assert_eq!(
            error.map(|(_, v)| v.as_str()),
            Some(message.as_str()),
            "{stage}: {sql}"
        );
        assert_eq!(
            after.statement_errors,
            before.statement_errors + 1,
            "{stage}: {sql}"
        );
        // Text that never classified as a statement stays off the ring and
        // out of the per-kind counters.
        let classified = classified as usize;
        assert_eq!(
            head.recent_queries().len(),
            ring_before + classified,
            "{stage}: {sql}"
        );
        assert_eq!(
            after.statements(),
            before.statements() + classified as u64,
            "{stage}: {sql}"
        );
        let trace = record.trace.as_ref().expect("tracing is armed");
        assert_eq!(trace.sql, sql, "{stage}: {sql}");
        assert_eq!(record.error.as_deref(), Some(message.as_str()));
    }
}

// ---- one configuration per statement ---------------------------------------------

/// A statement runs under the knobs it began with. An event sink turns the
/// Query Store and cardinality feedback on and switches to row-at-a-time
/// shipping and the prune policy right after the in-flight SELECT has
/// compiled (`plan_cache_miss`), before it runs: that SELECT is not
/// observed, ships batched like an untouched engine's, and answers the
/// same; the next statement sees all four.
#[test]
fn a_knob_flipped_mid_statement_applies_from_the_next_statement() {
    use dhqp::{BatchConfig, DegradedMode, Event, EventSink, PlanCacheConfig, QueryStoreConfig};
    use std::sync::atomic::{AtomicBool, Ordering};

    struct FlipOnCompile {
        engine: Engine,
        flipped: AtomicBool,
    }
    impl EventSink for FlipOnCompile {
        fn consume(&self, event: &Event) {
            if event.kind == EventKind::PlanCacheMiss && !self.flipped.swap(true, Ordering::SeqCst)
            {
                self.engine.set_query_store_enabled(true);
                self.engine.set_card_feedback(true);
                self.engine.set_batch_config(BatchConfig::batched(1));
                self.engine.set_degraded_mode(DegradedMode::Prune);
            }
        }
    }

    /// `rt` (20 rows) behind a fault-free link; every knob the test reads is
    /// pinned, so it reads the same under every CI leg.
    fn fixture() -> (Engine, NetworkLink) {
        let remote = Engine::new("remote");
        remote
            .create_table(TableDef::new(
                "rt",
                Schema::new(vec![
                    Column::not_null("k", DataType::Int),
                    Column::not_null("v", DataType::Int),
                ]),
            ))
            .unwrap();
        let rows: Vec<Row> = (0..20)
            .map(|k| Row::new(vec![Value::Int(k), Value::Int(k % 3)]))
            .collect();
        remote.insert("rt", &rows).unwrap();
        let head = EngineBuilder::new("head")
            .plan_cache_config(PlanCacheConfig::default())
            .query_store_config(QueryStoreConfig::default())
            .card_feedback(false)
            .batch_config(BatchConfig::batched(1024))
            .parallel_config(ParallelConfig::serial())
            .degraded_mode(DegradedMode::Fail)
            .trace_config(TraceConfig::disabled())
            .slow_query_threshold(None)
            .event_config(EventConfig::only(&[EventKind::PlanCacheMiss]))
            .build();
        let link = NetworkLink::new("flip-link", NetworkConfig::lan());
        head.add_linked_server(
            "srv",
            Arc::new(NetworkedDataSource::reliable(
                Arc::new(EngineDataSource::new(remote)),
                link.clone(),
            )),
        )
        .unwrap();
        (head, link)
    }
    let sql = "SELECT k, v FROM srv.db.dbo.rt";

    let (plain, plain_link) = fixture();
    let want = plain.query(sql).unwrap();
    let plain_wire = plain_link.snapshot();
    assert!(plain_wire.batches < plain_wire.rows, "{plain_wire:?}");

    let (head, link) = fixture();
    head.add_event_sink(Box::new(FlipOnCompile {
        engine: head.clone(),
        flipped: AtomicBool::new(false),
    }));
    let got = head.query(sql).unwrap();
    let in_flight = link.snapshot();
    assert!(head.query_store_enabled(), "the sink fired");
    assert_eq!(
        head.query_store_len(),
        0,
        "the in-flight SELECT was observed"
    );
    assert_eq!(sorted(got.rows), sorted(want.rows.clone()));
    assert_eq!(
        in_flight, plain_wire,
        "the in-flight SELECT shipped unbatched"
    );

    assert!(head.card_feedback_enabled());
    assert_eq!(head.batch_config(), BatchConfig::batched(1));
    assert_eq!(head.degraded_mode(), DegradedMode::Prune);
    let next = head.query(sql).unwrap();
    assert_eq!(sorted(next.rows), sorted(want.rows));
    assert_eq!(head.query_store_len(), 1, "the next statement is observed");
    let next_wire = link.snapshot().since(&in_flight);
    assert_eq!(next_wire.batches, next_wire.rows, "{next_wire:?}");
    // The sink holds the engine; dropping the bus drops the sink.
    head.set_event_config(EventConfig::disabled());
}

// ---- member streams ----------------------------------------------------------------

/// A member engine holding `t(k, v)` with 300 rows, recording its own
/// `query_start`/`query_end` and query store, behind a fault-free link from
/// a head that pulls 64 rows at a time on its own thread.
fn streaming_member() -> (Engine, Engine, NetworkLink) {
    use dhqp::{BatchConfig, QueryStoreConfig};
    let member = EngineBuilder::new("member")
        .event_config(EventConfig::only(&[
            EventKind::QueryStart,
            EventKind::QueryEnd,
        ]))
        .query_store_config(QueryStoreConfig {
            enabled: true,
            ..QueryStoreConfig::default()
        })
        .build();
    member
        .create_table(TableDef::new(
            "t",
            Schema::new(vec![
                Column::not_null("k", DataType::Int),
                Column::not_null("v", DataType::Int),
            ]),
        ))
        .unwrap();
    let rows: Vec<Row> = (0..300)
        .map(|k| Row::new(vec![Value::Int(k), Value::Int(k % 7)]))
        .collect();
    member.insert("t", &rows).unwrap();
    let head = Engine::new("head");
    head.set_parallel_config(ParallelConfig::serial());
    head.set_batch_config(BatchConfig::batched(64));
    let link = NetworkLink::new("m", NetworkConfig::lan());
    let source = EngineDataSource::new(member.clone());
    head.add_linked_server(
        "m",
        Arc::new(NetworkedDataSource::reliable(
            Arc::new(source),
            link.clone(),
        )),
    )
    .unwrap();
    (head, member, link)
}

/// A member's SELECT is a stream: a TOP 1 over 300 rows ships the one row
/// the head reads, and the member statement ends once — when the head drops
/// the stream — with the rows it delivered, counted but not learned from.
#[test]
fn a_dropped_member_stream_ends_its_statement_once() {
    let (head, member, link) = streaming_member();
    let sql = "SELECT TOP 1 k FROM m.db.dbo.t";
    let plan = head.explain(sql).unwrap().plan_text;
    assert!(plan.starts_with("Top"), "TOP stays at the head: {plan}");
    link.reset();
    member.set_event_config(member.event_config());
    let (result, head_record) = head.execute_recorded(sql, Default::default());
    assert_eq!(result.unwrap().len(), 1);

    assert_eq!(start_end_counts(&member), (1, 1));
    let record = member.recent_queries().pop().unwrap();
    assert!(record.sql.contains("FROM [t]"), "{}", record.sql);
    assert_eq!(record.error, None);
    // The member is in scope only while a pull runs: the link's round trip
    // is the head's wait, not the member's.
    assert_eq!(head_record.waits.get(WaitClass::NetworkIo).count, 1);
    assert_eq!(record.waits.get(WaitClass::NetworkIo).count, 0);
    let shipped = link.snapshot().rows;
    assert_eq!(record.rows, shipped);
    assert_eq!(shipped, 1, "the head pulled one row and dropped the rest");
    assert_eq!(
        query_store_executions(&member),
        0,
        "a dropped stream is not learned from"
    );

    // Read to its end, the same statement is learned from.
    head.query("SELECT k FROM m.db.dbo.t").unwrap();
    let record = member.recent_queries().pop().unwrap();
    assert_eq!(record.rows, 300);
    assert_eq!(query_store_executions(&member), 1);
}

/// An error the member's operator tree raises part-way reaches the head
/// with its message, after the batches that came before it crossed the
/// link; the member's own record carries the same failure.
#[test]
fn a_member_error_mid_stream_follows_the_rows_before_it() {
    let (head, member, link) = streaming_member();
    // Pushed whole to the member, which fails at k = 150: its filter hands
    // over the 150 rows before that one first, whatever the pull.
    let sql = "SELECT k FROM m.db.dbo.t WHERE 1000 / (k - 150) > -10000";
    let plan = head.explain(sql).unwrap().plan_text;
    assert!(
        plan.contains("WHERE ((1000 /"),
        "the predicate is pushed: {plan}"
    );
    link.reset();
    member.set_event_config(member.event_config());
    let err = head.query(sql).unwrap_err();
    assert!(err.message().contains("division by zero"), "{err}");
    assert_eq!(link.snapshot().rows, 150);

    assert_eq!(start_end_counts(&member), (1, 1));
    let record = member.recent_queries().pop().unwrap();
    assert!(
        record
            .error
            .as_deref()
            .is_some_and(|e| e.contains("division by zero")),
        "{record:?}"
    );
}
