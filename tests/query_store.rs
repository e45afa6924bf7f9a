//! Query Store integration: per-fingerprint plan/runtime history, the
//! estimate-vs-actual skew ledger, plan-change/regression detection, the
//! cardinality feedback loop (E19's semi-join crossover correction), the
//! `sys.dm_os_knobs` provenance view and the slow-query ring's
//! fingerprint/annotation tags.

use dhqp::{
    BatchConfig, Engine, EngineBuilder, EngineDataSource, EventConfig, EventKind, FaultConfig,
    ParallelConfig, RetryPolicy,
};
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
use dhqp_oledb::{DataSource, Reply, Session, SessionLayer, SourceLayer, Verb};
use dhqp_storage::TableDef;
use dhqp_types::{Column, DataType, Row, Schema, Value};
use std::collections::HashMap;
use std::sync::{mpsc, Arc, Mutex};
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

fn fact_row(id: i64, i: usize) -> Row {
    Row::new(vec![
        Value::Int(id),
        Value::Str(format!("payload-{i:04}-{}", "x".repeat(96))),
    ])
}

/// Link `member` into `head` behind a netsim link; returns the link so
/// tests can meter wire traffic.
fn link_member(
    head: &Engine,
    name: &str,
    member: &Engine,
    config: NetworkConfig,
    fault: Option<FaultConfig>,
) -> NetworkLink {
    let link = NetworkLink::new(name, config);
    let inner: Arc<dyn dhqp_oledb::DataSource> = Arc::new(EngineDataSource::new(member.clone()));
    let wrapped = match fault {
        Some(cfg) => NetworkedDataSource::with_faults(inner, link.clone(), cfg),
        None => NetworkedDataSource::reliable(inner, link.clone()),
    };
    head.add_linked_server(name, Arc::new(wrapped)).unwrap();
    link
}

/// Pin the knobs the suite's environment legs would otherwise perturb, so
/// plan choice and traffic accounting stay deterministic under every leg.
fn pin_knobs(head: &Engine) {
    head.set_plan_cache_enabled(true);
    head.set_batch_config(BatchConfig::batched(1024));
    let mut config = head.optimizer_config();
    config.enable_semijoin = true;
    config.semijoin_max_keys = 64;
    head.set_optimizer_config(config);
}

/// E19's fixture: a 24-key local `dim` (analyzed) joined against a wholly
/// remote `fact` that starts *tiny* (12 rows, never analyzed) so the head
/// caches a cardinality of 12 — then grows 210x behind the cached
/// statistics. Returns `(head, member, link)`.
fn skewed_federation() -> (Engine, Engine, NetworkLink) {
    let head = Engine::new("qs-head");
    head.storage()
        .create_table(table_def("dim", Column::new("tag", DataType::Str)))
        .unwrap();
    let dim_rows: Vec<Row> = (1..=24)
        .map(|id| Row::new(vec![Value::Int(id), Value::Str(format!("d{id}"))]))
        .collect();
    head.storage().insert_rows("dim", &dim_rows).unwrap();
    head.storage().analyze("dim", 8).unwrap();

    let m1 = Engine::new("qs-member1");
    m1.storage()
        .create_table(table_def("fact", Column::new("val", DataType::Str)))
        .unwrap();
    let seed: Vec<Row> = (0..12).map(|i| fact_row(i as i64 + 1, i)).collect();
    m1.storage().insert_rows("fact", &seed).unwrap();
    // Deliberately NOT analyzed: the head sees cardinality (live row
    // count) but no histograms, exactly the thin-metadata remote case.
    let link = link_member(&head, "member1", &m1, NetworkConfig::lan(), None);
    pin_knobs(&head);
    (head, m1, link)
}

/// Grow the remote fact to 2520 rows directly on the member engine: the
/// head's cached statistics (TTL 60s) still say 12.
fn grow_fact(m1: &Engine) {
    let extra: Vec<Row> = (0..2508)
        .map(|i| fact_row(((12 + i) % 840) as i64 + 1, i + 12))
        .collect();
    m1.storage().insert_rows("fact", &extra).unwrap();
}

fn sorted_rows(rows: &[Row]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

/// E19 end to end: one skewed execution is enough. The store records the
/// ≥10x estimate-vs-actual skew, the feedback loop overwrites the cached
/// cardinality and purges the stale plan, and the very next compilation
/// flips to the semi-join reduction — shipping a fraction of the bytes.
#[test]
fn feedback_corrects_semijoin_crossover_after_one_skewed_execution() {
    let (head, m1, link) = skewed_federation();
    head.set_query_store_enabled(true);
    head.set_card_feedback(true);
    head.set_event_config(EventConfig::all());

    // Execution 1 (fact = 12 rows): full fetch is the right plan, and the
    // compile caches cardinality 12.
    let r1 = head.query(JOIN).unwrap();
    assert_eq!(r1.rows.len(), 12, "{r1:?}");
    assert_eq!(head.query_store_len(), 1);
    let queries = head.query_store_queries();
    assert_eq!(queries[0].plans.len(), 1);
    assert!(
        !queries[0].plans[0].plan_text.contains("SemiJoinReduce"),
        "tiny fact must not be worth a reduction:\n{}",
        queries[0].plans[0].plan_text
    );
    // The stored text is the plan as EXPLAIN renders it.
    let explained = head.explain(JOIN).unwrap();
    assert_eq!(queries[0].plans[0].plan_text, explained.plan_text);

    // The table explodes behind the cached statistics.
    grow_fact(&m1);

    // Execution 2: the stale plan ships all 2520 rows. The store books the
    // skew; the feedback loop corrects the cache and purges the plan.
    let before2 = link.snapshot().bytes;
    let r2 = head.query(JOIN).unwrap();
    let bytes_stale = link.snapshot().bytes - before2;
    assert!(r2.rows.len() > r1.rows.len(), "{}", r2.rows.len());
    let m = head.metrics();
    assert!(m.card_feedback_applied >= 1, "{m:?}");

    // The skew is queryable through the runtime-stats DMV.
    let skews = head
        .query("SELECT max_skew, max_skew_operator FROM sys.query_store_runtime_stats")
        .unwrap();
    assert_eq!(skews.rows.len(), 1, "{skews:?}");
    assert!(
        matches!(skews.value(0, 0), Value::Float(s) if *s >= 10.0),
        "skew under 10x: {skews:?}"
    );
    assert!(
        matches!(skews.value(0, 1), Value::Str(op) if !op.is_empty()),
        "{skews:?}"
    );

    // Execution 3: recompilation costs with the fed-back cardinality and
    // flips to the reduction; EXPLAIN ANALYZE says so explicitly.
    let before3 = link.snapshot().bytes;
    let report = head.execute_analyze(JOIN).unwrap();
    let bytes_reduced = link.snapshot().bytes - before3;
    let rendered = report.render();
    assert!(
        rendered.contains("SemiJoinReduce(@member1 keys=64:"),
        "{rendered}"
    );
    assert!(rendered.contains("-- [feedback: applied]"), "{rendered}");
    assert!(rendered.contains("[semijoin: keys=24 bytes="), "{rendered}");
    assert_eq!(sorted_rows(&report.result.rows), sorted_rows(&r2.rows));
    assert!(
        bytes_reduced * 4 < bytes_stale,
        "reduction saved no traffic: stale={bytes_stale} reduced={bytes_reduced}"
    );

    // The store now holds two plans under one fingerprint, and the switch
    // was announced on the event bus. (The DMV reads above were SELECTs
    // too, so the store also fingerprints them — filter to the join.)
    let q = head
        .query("SELECT template, plan_count, execution_count FROM sys.query_store_query")
        .unwrap();
    let row = q
        .rows
        .iter()
        .find(|row| matches!(row.get(0), Value::Str(t) if t.contains("fact")))
        .unwrap_or_else(|| panic!("join fingerprint missing: {q:?}"));
    assert_eq!(row.get(1), &Value::Int(2), "{q:?}");
    assert_eq!(row.get(2), &Value::Int(3), "{q:?}");
    let change = head
        .recent_events()
        .into_iter()
        .find(|e| e.kind == EventKind::PlanChange)
        .expect("plan_change event");
    assert!(change.detail().contains("new_plan_hash="), "{change:?}");

    // And the skew that triggered it all stays on the *old* plan's ledger.
    let queries = head.query_store_queries();
    let join_stats = queries
        .iter()
        .find(|q| q.template.contains("fact"))
        .expect("join fingerprint");
    let old_plan = join_stats
        .plans
        .iter()
        .find(|p| !p.plan_text.contains("SemiJoinReduce"))
        .expect("stale plan retained");
    assert!(old_plan.max_skew() >= 10.0, "{:?}", old_plan.max_skew());
}

/// Parks the first call on any of its sessions once armed: says so on the
/// gate's sender, then waits on its receiver.
type Gate = Arc<Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>>;

struct Parking {
    inner: Arc<dyn DataSource>,
    gate: Gate,
}

impl SourceLayer for Parking {
    fn inner(&self) -> &dyn DataSource {
        &*self.inner
    }

    fn session(&self) -> dhqp_types::Result<Box<dyn Session>> {
        Ok(Box::new(ParkingSession {
            inner: self.inner.create_session()?,
            gate: Arc::clone(&self.gate),
        }))
    }
}

struct ParkingSession {
    inner: Box<dyn Session>,
    gate: Gate,
}

impl SessionLayer for ParkingSession {
    fn call(&mut self, verb: Verb<'_>) -> dhqp_types::Result<Reply> {
        let gate = self.gate.lock().unwrap().take();
        if let Some((parked, release)) = gate {
            parked.send(()).unwrap();
            release.recv().unwrap();
        }
        verb.send(&mut *self.inner)
    }
}

/// Feedback is about the server a statement bound against. One that
/// observes a grown table on a source replaced while it ran must not
/// correct the statistics of the server now registered under that name.
#[test]
fn feedback_from_a_replaced_server_is_dropped() {
    const SCAN: &str = "SELECT id, val FROM member1.db.dbo.fact";
    let head = Engine::new("fb-head");
    let fact = |name: &str| {
        let member = Engine::new(name);
        member
            .storage()
            .create_table(table_def("fact", Column::new("val", DataType::Str)))
            .unwrap();
        let seed: Vec<Row> = (0..12).map(|i| fact_row(i as i64 + 1, i)).collect();
        member.storage().insert_rows("fact", &seed).unwrap();
        member
    };
    let old = fact("fb-old");
    let gate = Gate::default();
    let parking = Parking {
        inner: Arc::new(EngineDataSource::new(old.clone())),
        gate: Arc::clone(&gate),
    };
    head.add_linked_server("member1", Arc::new(parking))
        .unwrap();
    pin_knobs(&head);
    head.set_card_feedback(true);
    assert_eq!(head.query(SCAN).unwrap().rows.len(), 12);

    // The old fact grows behind the cached cardinality, and the statement
    // that will see it parks on its first request.
    grow_fact(&old);
    let (parked_tx, parked) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    *gate.lock().unwrap() = Some((parked_tx, release_rx));
    let stale = {
        let head = head.clone();
        std::thread::spawn(move || head.query(SCAN).map(|r| r.rows.len()))
    };
    parked.recv().unwrap();
    let new = fact("fb-new");
    head.add_linked_server("member1", Arc::new(EngineDataSource::new(new)))
        .unwrap();
    assert_eq!(head.query(SCAN).unwrap().rows.len(), 12);
    release.send(()).unwrap();
    assert_eq!(stale.join().unwrap().unwrap(), 2520);

    let m = head.metrics();
    assert_eq!(m.card_feedback_applied, 0, "{m:?}");
    let report = head.execute_analyze(SCAN).unwrap();
    assert_eq!(report.result.rows.len(), 12);
    assert!(!report.record.feedback, "{}", report.render());
}

/// A plan switch to a *slower* plan is a regression: flagged on the plan
/// row, counted in `plan_regressions`, and announced with
/// `regressed=true`. The timed WAN makes the byte difference wall time.
#[test]
fn slower_plan_switch_is_flagged_as_regression() {
    let head = Engine::new("reg-head");
    head.storage()
        .create_table(table_def("dim", Column::new("tag", DataType::Str)))
        .unwrap();
    let dim_rows: Vec<Row> = (1..=6)
        .map(|id| Row::new(vec![Value::Int(id), Value::Str(format!("d{id}"))]))
        .collect();
    head.storage().insert_rows("dim", &dim_rows).unwrap();
    head.storage().analyze("dim", 8).unwrap();

    let m1 = Engine::new("reg-member1");
    m1.storage()
        .create_table(table_def("fact", Column::new("val", DataType::Str)))
        .unwrap();
    let fact_rows: Vec<Row> = (0..3000)
        .map(|i| fact_row((i % 40) as i64 + 1, i))
        .collect();
    m1.storage().insert_rows("fact", &fact_rows).unwrap();
    m1.storage().analyze("fact", 8).unwrap();
    link_member(&head, "member1", &m1, NetworkConfig::wan_timed(), None);
    pin_knobs(&head);

    // Warm up off the books: compile (and its WAN statistics fetches)
    // must not pollute the fast plan's average.
    let warm = head.query(JOIN).unwrap();
    assert!(!warm.rows.is_empty());

    head.set_query_store_enabled(true);
    head.set_event_config(EventConfig::all());
    for _ in 0..3 {
        head.query(JOIN).unwrap();
    }
    let queries = head.query_store_queries();
    assert_eq!(queries[0].plans.len(), 1);
    assert!(
        queries[0].plans[0]
            .plan_text
            .contains("SemiJoinReduce(@member1 keys=64:"),
        "{}",
        queries[0].plans[0].plan_text
    );

    // Force the fetch-everything plan: ~9x the bytes over a timed WAN.
    let mut config = head.optimizer_config();
    config.enable_semijoin = false;
    head.set_optimizer_config(config);
    head.query(JOIN).unwrap();

    let m = head.metrics();
    assert!(m.plan_regressions >= 1, "{m:?}");
    let change = head
        .recent_events()
        .into_iter()
        .find(|e| e.kind == EventKind::PlanChange)
        .expect("plan_change event");
    assert!(change.detail().contains("regressed=true"), "{change:?}");

    let plans = head
        .query("SELECT plan_id, regressed FROM sys.query_store_plan")
        .unwrap();
    assert_eq!(plans.rows.len(), 2, "{plans:?}");
    assert!(
        plans
            .rows
            .iter()
            .any(|row| row.get(1) == &Value::Bool(true)),
        "no plan flagged regressed: {plans:?}"
    );
}

/// The store is an observer, never a participant: identical answers with
/// the store+feedback armed under parallel chaos and with everything off
/// on a clean serial engine.
#[test]
fn store_and_feedback_never_change_answers() {
    let build = |name: &str, armed: bool| {
        let head = Engine::new(format!("{name}-head"));
        head.storage()
            .create_table(table_def("dim", Column::new("tag", DataType::Str)))
            .unwrap();
        let dim_rows: Vec<Row> = (1..=24)
            .map(|id| Row::new(vec![Value::Int(id), Value::Str(format!("d{id}"))]))
            .collect();
        head.storage().insert_rows("dim", &dim_rows).unwrap();
        head.storage().analyze("dim", 8).unwrap();
        let m1 = Engine::new(format!("{name}-member1"));
        m1.storage()
            .create_table(table_def("fact", Column::new("val", DataType::Str)))
            .unwrap();
        let fact_rows: Vec<Row> = (0..240).map(|i| fact_row((i % 40) as i64 + 1, i)).collect();
        m1.storage().insert_rows("fact", &fact_rows).unwrap();
        m1.storage().analyze("fact", 8).unwrap();
        let fault = armed.then(|| FaultConfig::one_transient_per_link(5));
        link_member(&head, "member1", &m1, NetworkConfig::lan(), fault);
        pin_knobs(&head);
        if armed {
            head.set_retry_policy(fast_retries());
            head.set_parallel_config(ParallelConfig::parallel());
            head.set_query_store_enabled(true);
            head.set_card_feedback(true);
        } else {
            head.set_parallel_config(ParallelConfig::serial());
            head.set_query_store_enabled(false);
            head.set_card_feedback(false);
        }
        head
    };
    let armed = build("qsdiff-on", true);
    let plain = build("qsdiff-off", false);
    // Two rounds: the second may replay a cached plan or recompile after
    // feedback — either way the answer must not move.
    let want = plain.query(JOIN).unwrap();
    for round in 0..2 {
        let got = armed.query(JOIN).unwrap();
        assert_eq!(
            sorted_rows(&got.rows),
            sorted_rows(&want.rows),
            "round {round}"
        );
    }
    assert!(armed.query_store_len() >= 1);
    assert_eq!(plain.query_store_len(), 0, "store was off");
}

/// `sys.dm_os_knobs` dumps every `DHQP_*` knob with provenance: `env`
/// when the environment supplied the value the engine still runs with,
/// `builder` when a builder method or setter moved it off the default,
/// `default` otherwise — judged against what the engine resolved when it
/// was built. The environment is a fake: no test thread mutates the
/// process environment its siblings read.
#[test]
fn dm_os_knobs_reports_every_knob_with_provenance() {
    let env = HashMap::from([
        ("DHQP_FAULT_SEED", "9"),
        ("DHQP_BATCH_SIZE", "77"),
        ("DHQP_RETRY_ATTEMPTS", "5"),
        ("DHQP_SEMIJOIN", "1"),
    ]);
    let head =
        EngineBuilder::from_lookup("knobs", |name| env.get(name).map(|v| v.to_string())).build();
    head.set_stats_ttl(Duration::from_millis(1234));
    head.set_query_store_capacity(77);
    // Supplied by the environment, then overridden by a setter.
    head.set_retry_policy(RetryPolicy::no_retry());

    let r = head
        .query("SELECT name, value, source FROM sys.dm_os_knobs")
        .unwrap();
    assert_eq!(r.rows.len(), 24, "{r:?}");
    let knob = |name: &str| -> (String, String) {
        let row = r
            .rows
            .iter()
            .find(|row| row.get(0) == &Value::Str(name.to_string()))
            .unwrap_or_else(|| panic!("{name} missing: {r:?}"));
        match (row.get(1), row.get(2)) {
            (Value::Str(v), Value::Str(s)) => (v.clone(), s.clone()),
            _ => panic!("{name} row is not (Str, Str): {row:?}"),
        }
    };
    let is = |name: &str, value: &str, source: &str| {
        assert_eq!(
            knob(name),
            (value.to_string(), source.to_string()),
            "{name}"
        );
    };
    is("DHQP_FAULT_SEED", "9", "env");
    is("DHQP_BATCH_SIZE", "77", "env");
    // Named by the environment, even though the value is the default's.
    is("DHQP_SEMIJOIN", "true", "env");
    is("DHQP_RETRY_ATTEMPTS", "1", "builder");
    is("DHQP_STATS_TTL_MS", "1234", "builder");
    is("DHQP_QUERY_STORE_SIZE", "77", "builder");
    // Nothing in the fake environment or this test touches the rest.
    is("DHQP_PARALLEL", "false", "default");
    is("DHQP_BREAKER", "true", "default");
    is("DHQP_DEGRADED", "fail", "default");
    is("DHQP_PLAN_CACHE", "true", "default");
    is("DHQP_SLOW_QUERY_MS", "off", "default");
    is("DHQP_EVENTS", "off", "default");
    is("DHQP_QUERY_STORE", "false", "default");
    is("DHQP_CARD_FEEDBACK", "false", "default");
}

/// Slow-query ring entries explain themselves: the plan-cache fingerprint
/// joins against store rows and the annotation summary compresses the
/// semi-join ship — in the ring and on the `slow_query` event alike.
#[test]
fn slow_query_ring_carries_fingerprint_and_annotations() {
    let head = EngineBuilder::new("slowring")
        .slow_query_threshold(Some(Duration::ZERO))
        .build();
    head.storage()
        .create_table(table_def("dim", Column::new("tag", DataType::Str)))
        .unwrap();
    let dim_rows: Vec<Row> = (1..=6)
        .map(|id| Row::new(vec![Value::Int(id), Value::Str(format!("d{id}"))]))
        .collect();
    head.storage().insert_rows("dim", &dim_rows).unwrap();
    head.storage().analyze("dim", 8).unwrap();
    let m1 = Engine::new("slowring-member1");
    m1.storage()
        .create_table(table_def("fact", Column::new("val", DataType::Str)))
        .unwrap();
    let fact_rows: Vec<Row> = (0..240).map(|i| fact_row((i % 40) as i64 + 1, i)).collect();
    m1.storage().insert_rows("fact", &fact_rows).unwrap();
    m1.storage().analyze("fact", 8).unwrap();
    link_member(&head, "member1", &m1, NetworkConfig::lan(), None);
    pin_knobs(&head);
    head.set_event_config(EventConfig::all());

    head.query(JOIN).unwrap();

    let slow = head.slow_queries();
    let entry = slow
        .iter()
        .find(|q| q.sql.contains("fact"))
        .unwrap_or_else(|| panic!("join missing from slow ring: {slow:?}"));
    let fp = entry.fingerprint.as_deref().expect("fingerprint tag");
    assert!(fp.starts_with("SELECT"), "{fp}");
    let ann = entry.annotations().expect("annotation summary");
    assert!(ann.contains("[semijoin: keys=6 bytes="), "{ann}");

    let ev = head
        .recent_events()
        .into_iter()
        .find(|e| e.kind == EventKind::SlowQuery && e.detail().contains("fact"))
        .expect("slow_query event");
    let detail = ev.detail();
    assert!(detail.contains("fingerprint=SELECT"), "{detail}");
    assert!(detail.contains("[semijoin: keys=6"), "{detail}");
}

/// Disabling the store drops its history; DMV rowsets degrade to empty,
/// not errors.
#[test]
fn disabling_the_store_clears_history() {
    let (head, _m1, _link) = skewed_federation();
    head.set_query_store_enabled(true);
    head.query(JOIN).unwrap();
    assert_eq!(head.query_store_len(), 1);
    head.set_query_store_enabled(false);
    assert_eq!(head.query_store_len(), 0);
    let q = head
        .query("SELECT query_id FROM sys.query_store_query")
        .unwrap();
    assert!(q.rows.is_empty(), "{q:?}");
    let p = head
        .query("SELECT plan_id FROM sys.query_store_plan")
        .unwrap();
    assert!(p.rows.is_empty(), "{p:?}");
}
