//! Differential harness for the parameterized plan cache: the same SQL
//! corpus must return identical multisets whether plans are compiled
//! fresh or served from cache, whether every partitioned-view member is
//! local or federated over the network, whether execution is serial or
//! parallel, and whether the links are clean or injecting seeded faults.
//!
//! The corpus deliberately mixes cacheable shapes (auto-parameterizable
//! comparisons, joins, aggregates, unions) with shapes the fast path
//! declines (scalar subqueries, IN lists, string predicates), so every
//! run exercises both the cached and the classic pipeline.

use dhqp::{BatchConfig, Engine, EngineDataSource, FaultConfig, ParallelConfig, RetryPolicy};
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
use dhqp_storage::TableDef;
use dhqp_types::{value::parse_date, Column, DataType, Interval, IntervalSet, Row, Schema, Value};
use std::sync::Arc;

/// Every SELECT replayed by each differential leg.
const CORPUS: &[&str] = &[
    // Auto-parameterizable integer comparisons.
    "SELECT id, tag FROM a_all WHERE id = 7",
    "SELECT id, tag FROM a_all WHERE id = 23",
    "SELECT id FROM a_all WHERE id > 30 AND id <= 37",
    "SELECT id, score FROM b_all WHERE score >= 25",
    "SELECT id FROM b_all WHERE id BETWEEN 5 AND 12",
    // Float literals.
    "SELECT id FROM b_all WHERE score > 10.5",
    // Arithmetic and modulo over parameterized literals.
    "SELECT id, id * 2 + 1 AS odd FROM a_all WHERE id % 4 = 0",
    "SELECT id FROM b_all WHERE score - 3 < 20 AND score / 2 > 4",
    // String predicates stay literal (never parameterized).
    "SELECT id FROM a_all WHERE tag = 'red'",
    "SELECT id, tag FROM a_all WHERE tag LIKE 'b%'",
    // Date-string coercion against a DATE column.
    "SELECT id FROM ev_all WHERE day >= '2004-06-01'",
    "SELECT id FROM ev_all WHERE day BETWEEN '2004-01-01' AND '2004-06-30'",
    // NULL semantics.
    "SELECT id FROM a_all WHERE tag IS NULL",
    "SELECT id FROM b_all WHERE score IS NOT NULL AND score < 15",
    // IN lists (declined by the fingerprinter's NoParam zone).
    "SELECT id FROM a_all WHERE id IN (1, 2, 3, 33)",
    "SELECT id FROM a_all WHERE tag IN ('green', 'blue') AND id < 20",
    // Joins, inner and outer.
    "SELECT a_all.id, b_all.score FROM a_all JOIN b_all ON a_all.id = b_all.id \
     WHERE b_all.score > 12",
    "SELECT a_all.id, b_all.score FROM a_all LEFT JOIN b_all ON a_all.id = b_all.id \
     WHERE a_all.id <= 10",
    // Aggregates, GROUP BY, HAVING.
    "SELECT COUNT(*) AS n FROM a_all WHERE id >= 15",
    "SELECT tag, COUNT(*) AS n, MAX(id) AS hi FROM a_all GROUP BY tag",
    "SELECT tag, SUM(id) AS s FROM a_all WHERE id > 4 GROUP BY tag HAVING SUM(id) > 50",
    "SELECT COUNT(DISTINCT tag) AS tags FROM a_all",
    // DISTINCT / TOP / ORDER BY.
    "SELECT DISTINCT tag FROM a_all WHERE id < 30",
    "SELECT TOP 5 id, score FROM b_all ORDER BY score DESC, id",
    // Scalar functions.
    "SELECT id, UPPER(tag) AS t FROM a_all WHERE id = 3",
    "SELECT id, ABS(score - 40) AS d FROM b_all WHERE id < 6",
    // UNION / UNION ALL.
    "SELECT id FROM a_all WHERE id < 4 UNION SELECT id FROM b_all WHERE id < 4",
    "SELECT id FROM a_all WHERE id = 5 UNION ALL SELECT id FROM b_all WHERE id = 5",
    // Subqueries: EXISTS caches, scalar subqueries fall through.
    "SELECT id FROM a_all WHERE EXISTS (SELECT 1 FROM b_all WHERE b_all.id = a_all.id \
     AND b_all.score > 30)",
    "SELECT id FROM b_all WHERE score > (SELECT MIN(score) FROM b_all) AND id < 10",
    // CAST.
    "SELECT CAST(id AS FLOAT) AS f FROM a_all WHERE id = 11",
    // Column pruning through a wide view (DESIGN.md §20): a narrow read, a
    // column only the pushed predicate reads, the partitioning column
    // alone, a reordered list, a column listed twice, no column at all,
    // aggregates that are not split into per-member partials, and `*`.
    "SELECT grp, val FROM w_all WHERE id BETWEEN 10 AND 30",
    "SELECT val FROM w_all WHERE note = 'n1'",
    "SELECT id FROM w_all WHERE grp = 2",
    "SELECT note, id FROM w_all WHERE id > 25",
    "SELECT id, note, id FROM w_all WHERE id < 6",
    "SELECT COUNT(*) AS n FROM w_all WHERE val > 3.5",
    "SELECT grp, AVG(val) AS m FROM w_all GROUP BY grp",
    "SELECT COUNT(DISTINCT note) AS n FROM w_all WHERE id < 30",
    "SELECT * FROM w_all WHERE id BETWEEN 17 AND 20",
    // CONTAINS binds as its hit list, which may cross the join to the one
    // remote table: with a residual predicate there, and with no hit at all.
    "SELECT n.id, c.score FROM notes n JOIN c_all c ON n.id = c.id \
     WHERE CONTAINS(n.body, 'alpha') AND c.score > 1",
    "SELECT n.id, c.score FROM notes n JOIN c_all c ON n.id = c.id \
     WHERE CONTAINS(n.body, 'xylophone')",
];

/// The corpus statements with an uncorrelated scalar subquery, which the
/// binder runs eagerly, each with that subquery.
const BIND_TIME_SUBQUERIES: &[(&str, &str)] = &[(
    "SELECT id FROM b_all WHERE score > (SELECT MIN(score) FROM b_all) AND id < 10",
    "SELECT MIN(score) FROM b_all",
)];

/// Deterministic seed rows shared by every engine variant.
fn a_rows() -> Vec<Row> {
    (1..=40)
        .map(|id| {
            let tag = match id % 4 {
                0 => Value::Null,
                1 => Value::Str("red".into()),
                2 => Value::Str("green".into()),
                _ => Value::Str("blue".into()),
            };
            Row::new(vec![Value::Int(id), tag])
        })
        .collect()
}

fn b_rows() -> Vec<Row> {
    (1..=30)
        .map(|id| {
            let score = if id % 7 == 0 {
                Value::Null
            } else {
                Value::Int((id * 13) % 47)
            };
            Row::new(vec![Value::Int(id), score])
        })
        .collect()
}

fn ev_rows() -> Vec<Row> {
    [
        (1, "2004-01-15"),
        (2, "2004-03-02"),
        (3, "2004-06-15"),
        (4, "2004-09-09"),
        (5, "2004-12-15"),
    ]
    .iter()
    .map(|(id, day)| Row::new(vec![Value::Int(*id), Value::Date(parse_date(day).unwrap())]))
    .collect()
}

/// `(id, grp, val, note)`: the one table wide enough that most statements
/// read only some of its columns.
fn w_rows() -> Vec<Row> {
    (1..=36)
        .map(|id| {
            let note = if id % 6 == 0 {
                Value::Null
            } else {
                Value::Str(format!("n{}", id % 3))
            };
            Row::new(vec![
                Value::Int(id),
                Value::Int(id % 4),
                Value::Float(id as f64 / 4.0),
                note,
            ])
        })
        .collect()
}

fn table_def(name: &str, value_cols: Vec<Column>) -> TableDef {
    let mut columns = vec![Column::not_null("id", DataType::Int)];
    columns.extend(value_cols);
    TableDef::new(name, Schema::new(columns))
}

/// Split `rows` into a `<cut` member and a `>=cut` member on `id`, loading
/// each half into the matching storage engine.
fn load_split(
    engines: [&dhqp_storage::StorageEngine; 2],
    base: &str,
    value_cols: Vec<Column>,
    rows: Vec<Row>,
    cut: i64,
) -> Vec<(String, IntervalSet)> {
    let (lo, hi): (Vec<Row>, Vec<Row>) = rows
        .into_iter()
        .partition(|r| matches!(r.get(0), Value::Int(v) if *v < cut));
    let halves = [
        (
            lo,
            IntervalSet::single(Interval::less_than(Value::Int(cut))),
        ),
        (hi, IntervalSet::single(Interval::at_least(Value::Int(cut)))),
    ];
    let mut members = Vec::new();
    for (i, ((rows, domain), engine)) in halves.into_iter().zip(engines).enumerate() {
        let table = format!("{base}_p{i}");
        engine
            .create_table(table_def(&table, value_cols.clone()))
            .unwrap();
        engine.insert_rows(&table, &rows).unwrap();
        engine.analyze(&table, 8).unwrap();
        members.push((table, domain));
    }
    members
}

/// A full-text-indexed `notes(id, body)` in `head`, and `c_all`: a
/// one-member view over `c_p0(id, score)` on `member` (the head itself when
/// `None`), so the CONTAINS statements join one table.
fn add_contains_tables(head: &Engine, member: Option<(&str, &Engine)>) {
    head.create_table(table_def("notes", vec![Column::new("body", DataType::Str)]))
        .unwrap();
    let notes: Vec<Row> = (1..=40)
        .map(|id| {
            let word = if id % 3 == 0 { "alpha" } else { "beta" };
            Row::new(vec![
                Value::Int(id),
                Value::Str(format!("{word} note {id}")),
            ])
        })
        .collect();
    head.insert("notes", &notes).unwrap();
    head.create_fulltext_index("notes", "id", "body", "notes_ft")
        .unwrap();
    let (server, storage) = match member {
        Some((name, engine)) => (Some(name.to_string()), engine.storage()),
        None => (None, head.storage()),
    };
    let c = table_def("c_p0", vec![Column::new("score", DataType::Int)]);
    storage
        .create_table(c.with_index("pk_c_p0", &["id"], true))
        .unwrap();
    let rows: Vec<Row> = (1..=200)
        .map(|id| Row::new(vec![Value::Int(id), Value::Int(id % 5)]))
        .collect();
    storage.insert_rows("c_p0", &rows).unwrap();
    storage.analyze("c_p0", 8).unwrap();
    head.define_partitioned_view(
        "c_all",
        "id",
        vec![(server, "c_p0".into(), IntervalSet::full())],
    )
    .unwrap();
}

/// All the views with every member table in the head engine itself.
fn local_engine() -> Engine {
    let head = Engine::new("head-local");
    for (base, value_cols, rows, cut) in datasets() {
        let members = load_split(
            [head.storage().as_ref(), head.storage().as_ref()],
            base,
            value_cols,
            rows,
            cut,
        );
        head.define_partitioned_view(
            &format!("{base}_all"),
            "id",
            members.into_iter().map(|(t, d)| (None, t, d)).collect(),
        )
        .unwrap();
    }
    add_contains_tables(&head, None);
    head
}

fn datasets() -> Vec<(&'static str, Vec<Column>, Vec<Row>, i64)> {
    let w_cols = vec![
        Column::not_null("grp", DataType::Int),
        Column::not_null("val", DataType::Float),
        Column::new("note", DataType::Str),
    ];
    vec![
        ("a", vec![Column::new("tag", DataType::Str)], a_rows(), 21),
        ("b", vec![Column::new("score", DataType::Int)], b_rows(), 16),
        ("ev", vec![Column::new("day", DataType::Date)], ev_rows(), 3),
        ("w", w_cols, w_rows(), 19),
    ]
}

/// All three views federated: the low half of every table on `member1`,
/// the high half on `member2`, both behind LAN links. `faults` arms each
/// link with a seeded chaos plan (the engine's standard retry policy must
/// absorb it without changing answers).
fn distributed_engine(faults: Option<u64>) -> Engine {
    distributed_engine_full(faults).0
}

/// Like [`distributed_engine`], but also hands back the member engines and
/// cloned link handles so tests can seed member-resident tables and read
/// per-link traffic counters.
fn distributed_engine_full(faults: Option<u64>) -> (Engine, Vec<Engine>, Vec<NetworkLink>) {
    let head = Engine::new("head-dist");
    let m1 = Engine::new("member1-engine");
    let m2 = Engine::new("member2-engine");
    let mut links = Vec::new();
    for (i, m) in [&m1, &m2].iter().enumerate() {
        let link = NetworkLink::new(format!("member{}", i + 1), NetworkConfig::lan());
        links.push(link.clone());
        let inner: Arc<dyn dhqp_oledb::DataSource> = Arc::new(EngineDataSource::new((*m).clone()));
        let wrapped = match faults {
            Some(seed) => NetworkedDataSource::with_faults(
                inner,
                link,
                FaultConfig::one_transient_per_link(seed),
            ),
            None => NetworkedDataSource::new(inner, link),
        };
        head.add_linked_server(&format!("member{}", i + 1), Arc::new(wrapped))
            .unwrap();
    }
    if faults.is_some() {
        head.set_retry_policy(RetryPolicy::standard());
    }
    for (base, value_cols, rows, cut) in datasets() {
        let members = load_split(
            [m1.storage().as_ref(), m2.storage().as_ref()],
            base,
            value_cols,
            rows,
            cut,
        );
        head.define_partitioned_view(
            &format!("{base}_all"),
            "id",
            members
                .into_iter()
                .enumerate()
                .map(|(i, (t, d))| (Some(format!("member{}", i + 1)), t, d))
                .collect(),
        )
        .unwrap();
    }
    add_contains_tables(&head, Some(("member1", &m1)));
    (head, vec![m1, m2], links)
}

/// One corpus statement's outcome: a sorted stringified multiset of rows,
/// or the error text. Errors participate in the diff too — both sides must
/// fail the same statements.
fn outcome(engine: &Engine, sql: &str) -> std::result::Result<Vec<String>, String> {
    match engine.execute(sql) {
        Ok(r) => {
            let mut rows: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
            rows.sort();
            Ok(rows)
        }
        Err(e) => Err(e.to_string()),
    }
}

fn run_corpus(engine: &Engine) -> Vec<(String, std::result::Result<Vec<String>, String>)> {
    CORPUS
        .iter()
        .map(|sql| (sql.to_string(), outcome(engine, sql)))
        .collect()
}

fn assert_same(
    label_a: &str,
    a: &[(String, std::result::Result<Vec<String>, String>)],
    label_b: &str,
    b: &[(String, std::result::Result<Vec<String>, String>)],
) {
    for ((sql, ra), (_, rb)) in a.iter().zip(b) {
        assert_eq!(ra, rb, "{label_a} vs {label_b} diverged on: {sql}");
    }
}

/// Corpus statements that are meant to fail, each with the error it is
/// meant to fail with. Every other statement must answer on the all-local
/// engine: a statement that fails on every leg compares equal, so an error
/// off this list is a fault the diff cannot see.
const MEANT_TO_FAIL: &[(&str, &str)] = &[];

#[test]
fn all_local_matches_distributed() {
    let local = local_engine();
    let dist = distributed_engine(None);
    let a = run_corpus(&local);
    let unexpected: Vec<String> = a
        .iter()
        .filter_map(|(sql, outcome)| {
            match (outcome, MEANT_TO_FAIL.iter().find(|(s, _)| s == sql)) {
                (Ok(_), None) => None,
                (Err(e), Some((_, want))) if e.contains(want) => None,
                (outcome, meant) => Some(format!("{sql}: {outcome:?}, meant: {meant:?}")),
            }
        })
        .collect();
    assert!(unexpected.is_empty(), "all-local: {unexpected:#?}");
    let b = run_corpus(&dist);
    assert_same("all-local", &a, "distributed", &b);
    // Sanity: the corpus must actually return data, not 30 empty sets.
    let non_empty = a
        .iter()
        .filter(|(_, r)| matches!(r, Ok(v) if !v.is_empty()))
        .count();
    assert!(
        non_empty >= 20,
        "corpus too degenerate: {non_empty} non-empty"
    );
}

#[test]
fn cold_cache_matches_warm_cache() {
    let dist = distributed_engine(None);
    // This test is about the cache: force it on even under a
    // DHQP_PLAN_CACHE=0 suite leg.
    dist.set_plan_cache_enabled(true);
    let cold = run_corpus(&dist);
    let warm = run_corpus(&dist);
    assert_same("cold-cache", &cold, "warm-cache", &warm);
    let m = dist.metrics();
    assert!(
        m.plan_cache_hits > 0,
        "warm pass must serve cached plans: {m:?}"
    );
    assert!(m.plan_cache_misses > 0, "cold pass must compile: {m:?}");
}

#[test]
fn cache_disabled_matches_cache_enabled() {
    let on = distributed_engine(None);
    on.set_plan_cache_enabled(true);
    let off = distributed_engine(None);
    off.set_plan_cache_enabled(false);
    // Warm the enabled engine so its second pass is fully cache-served.
    run_corpus(&on);
    let a = run_corpus(&on);
    let b = run_corpus(&off);
    assert_same("cache-on(warm)", &a, "cache-off", &b);
    assert_eq!(off.metrics().plan_cache_hits, 0);
    assert_eq!(off.metrics().plan_cache_misses, 0);
}

/// Every statement of the corpus, federated and dispatched serially with
/// tracing and the start/end events armed, returns one record that agrees
/// with its result and with itself: the row count is the result's, the
/// operators' self times fit in the execute span and the span in `elapsed`
/// (serial dispatch: one thread's time is counted once), and the ring and
/// the event bus each received that record, once. On a second, warm pass
/// the bytes and requests its remote operators account for are exactly
/// what crossed the links under serial dispatch, and no less under
/// parallel dispatch.
#[test]
fn every_statement_record_reconciles() {
    use dhqp::{EventConfig, EventKind, TraceConfig};
    let (head, _members, links) = distributed_engine_full(None);
    head.set_parallel_config(ParallelConfig::serial());
    head.set_trace_config(TraceConfig::enabled());
    let start_end = EventConfig::only(&[EventKind::QueryStart, EventKind::QueryEnd]);
    for sql in CORPUS.iter().copied().chain(["FROB GARBAGE"]) {
        head.set_event_config(start_end); // a new session: an empty ring
        let (result, record) = head.execute_recorded(sql, Default::default());
        assert_eq!(record.sql, sql);
        assert_eq!(record.ok(), result.is_ok(), "{sql}");
        assert_eq!(record.rows, result.map_or(0, |r| r.len() as u64), "{sql}");

        let trace = record.trace.as_ref().expect("tracing is armed");
        assert_eq!(trace.root.elapsed, record.elapsed, "{sql}");
        if let Some(execute) = trace.find("execute") {
            let self_time: std::time::Duration =
                record.operators.iter().map(|op| op.self_time).sum();
            assert!(!record.operators.is_empty(), "{sql}");
            assert!(self_time <= execute.elapsed, "{sql}\n{}", trace.render());
            assert!(
                execute.elapsed <= record.elapsed,
                "{sql}\n{}",
                trace.render()
            );
        }

        let events = head.recent_events();
        let ends: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::QueryEnd)
            .collect();
        assert_eq!(ends.len(), 1, "{sql}: {events:?}");
        let attrs = ends[0].attrs.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        let want = record.query_end_attrs();
        assert!(
            attrs.eq(want.iter().map(|(k, v)| (*k, v.as_str()))),
            "{sql}"
        );
        let ring = head.recent_queries();
        let entries = ring.iter().filter(|q| std::sync::Arc::ptr_eq(q, &record));
        // DESIGN.md §21: text that never classified reaches `query_end` and
        // the error counter, not the ring.
        assert_eq!(entries.count(), usize::from(record.kind.is_some()), "{sql}");
    }
    let (result, unparsed) = head.execute_recorded("FROB GARBAGE", Default::default());
    assert!(result.is_err() && unparsed.kind.is_none() && unparsed.error.is_some());
    assert_eq!(
        unparsed.query_end_attrs()[0],
        ("kind", "UNCLASSIFIED".into())
    );

    // The pass above fetched metadata, statistics and pooled sessions once,
    // and spent a chaos leg's one transient fault per link.
    let wire = || {
        links.iter().fold((0, 0), |(bytes, requests), link| {
            let s = link.snapshot();
            (bytes + s.bytes, requests + s.requests)
        })
    };
    // The one request class no operator accounts for: an uncorrelated
    // scalar subquery runs at bind time, before the plan opens, so its
    // traffic is measured on its own.
    let bind_time = |sql: &str| {
        BIND_TIME_SUBQUERIES
            .iter()
            .find(|(statement, _)| *statement == sql)
            .map_or((0, 0), |(_, subquery)| {
                head.execute_recorded(subquery, Default::default())
                    .1
                    .link_traffic()
            })
    };
    // A remote read is charged what its own calls put on the link from the
    // calling thread, so the equality holds under both dispatches.
    for parallel in [ParallelConfig::serial(), ParallelConfig::parallel()] {
        head.set_parallel_config(parallel.clone());
        for sql in CORPUS.iter().copied().chain(["FROB GARBAGE"]) {
            let subquery = bind_time(sql);
            let before = wire();
            let (_, record) = head.execute_recorded(sql, Default::default());
            let after = wire();
            let operators = record.link_traffic();
            let charged = (operators.0 + subquery.0, operators.1 + subquery.1);
            let crossed = (after.0 - before.0, after.1 - before.1);
            assert_eq!(charged, crossed, "{sql} under {parallel:?}");
        }
    }
}

/// The estimator's monotonicity rule over whole plans: no filter, project,
/// sort, top or grouped aggregate is estimated above its only input —
/// compiled with the literals in hand (cache off) and as the cached
/// template (every numeric literal a parameter).
#[test]
fn no_operator_is_estimated_above_its_only_input() {
    let local = local_engine();
    let (dist, _links) = semijoin_engine(None, true);
    for engine in [&local, &dist] {
        for plan_cache in [false, true] {
            engine.set_plan_cache_enabled(plan_cache);
            let semijoins = if std::ptr::eq(engine, &dist) {
                SEMIJOIN_CORPUS
            } else {
                &[]
            };
            for sql in CORPUS.iter().chain(semijoins) {
                let Ok(report) = engine.execute_analyze(sql) else {
                    continue; // statements the corpus keeps for their error
                };
                if let Some(node) = report.plan.estimate_inversion() {
                    panic!(
                        "{} at {} rows above its input's {} (plan cache {plan_cache}): {sql}\n{}",
                        node.describe(),
                        node.est_rows,
                        node.children[0].est_rows,
                        report.plan.display_indent()
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_execution_matches_serial() {
    let serial = distributed_engine(None);
    let par = distributed_engine(None);
    par.set_parallel_config(ParallelConfig::parallel());
    // Replay twice on the parallel engine so cached plans execute under
    // parallel dispatch too.
    run_corpus(&par);
    let a = run_corpus(&serial);
    let b = run_corpus(&par);
    assert_same("serial", &a, "parallel", &b);
    // One plan in both dispatch modes: a union decides how it runs its
    // members when it opens.
    let explain = |engine: &Engine, sql: &str| {
        engine
            .explain(sql)
            .map(|e| e.plan_text)
            .map_err(|e| e.to_string())
    };
    for sql in CORPUS {
        assert_eq!(explain(&serial, sql), explain(&par, sql), "{sql}");
    }
}

#[test]
fn faulted_links_with_retry_match_clean_links() {
    let clean = distributed_engine(None);
    let flaky = distributed_engine(Some(1));
    run_corpus(&flaky); // cold pass: compile under injected faults
    let a = run_corpus(&clean);
    let b = run_corpus(&flaky); // warm pass: cached plans under faults
    assert_same("clean-links", &a, "faulted-links", &b);
    let m = flaky.metrics();
    assert!(
        m.remote_retries > 0,
        "fault plan never fired — test is vacuous: {m:?}"
    );
}

#[test]
fn batched_shipping_matches_row_at_a_time() {
    let row = distributed_engine(None);
    row.set_batch_config(BatchConfig::batched(1));
    let batch = distributed_engine(None);
    batch.set_batch_config(BatchConfig::batched(7));
    // Replay twice on the batched engine so cached plans execute under
    // batched dispatch too.
    run_corpus(&batch);
    let a = run_corpus(&row);
    let b = run_corpus(&batch);
    assert_same("row-at-a-time", &a, "batched", &b);
}

// ---------------------------------------------------------------------------
// semi-join reduction and runtime startup pruning axes
// ---------------------------------------------------------------------------

/// Joins whose probe side lives wholly on `member1` — the shape the
/// semi-join reduction rule rewrites into a key-ship + reduced fetch.
const SEMIJOIN_CORPUS: &[&str] = &[
    "SELECT d.id, f.val FROM dim d JOIN member1.db.dbo.fact f ON d.id = f.id",
    "SELECT d.id, d.tag, f.val FROM dim d JOIN member1.db.dbo.fact f ON d.id = f.id \
     WHERE d.id <= 3",
    "SELECT d.id FROM dim d WHERE EXISTS \
     (SELECT * FROM member1.db.dbo.fact f WHERE f.id = d.id)",
    "SELECT COUNT(*) AS n FROM dim d JOIN member1.db.dbo.fact f ON d.id = f.id",
];

/// Seed a small local `dim` in the head and a wide, wholly-remote `fact`
/// on `member1`: 6 build keys against 40 distinct probe keys over 240
/// rows, so the reduced fetch returns ~15% of the unreduced bytes.
fn add_semijoin_tables(head: &Engine, m1: &Engine) {
    head.storage()
        .create_table(table_def("dim", vec![Column::new("tag", DataType::Str)]))
        .unwrap();
    let dim_rows: Vec<Row> = (1..=6)
        .map(|id| Row::new(vec![Value::Int(id), Value::Str(format!("d{id}"))]))
        .collect();
    head.storage().insert_rows("dim", &dim_rows).unwrap();
    head.storage().analyze("dim", 8).unwrap();

    m1.storage()
        .create_table(table_def("fact", vec![Column::new("val", DataType::Str)]))
        .unwrap();
    let fact_rows: Vec<Row> = (0..240)
        .map(|i| {
            Row::new(vec![
                Value::Int((i % 40) + 1),
                Value::Str(format!("payload-{i:04}-{}", "x".repeat(96))),
            ])
        })
        .collect();
    m1.storage().insert_rows("fact", &fact_rows).unwrap();
    m1.storage().analyze("fact", 8).unwrap();
}

/// A distributed engine with the semi-join fixture loaded and the
/// reduction rule forced on or off (independent of `DHQP_SEMIJOIN`).
fn semijoin_engine(faults: Option<u64>, enabled: bool) -> (Engine, Vec<NetworkLink>) {
    let (head, members, links) = distributed_engine_full(faults);
    add_semijoin_tables(&head, &members[0]);
    let mut config = head.optimizer_config();
    config.enable_semijoin = enabled;
    head.set_optimizer_config(config);
    (head, links)
}

/// Tentpole axis: reduced and unreduced plans must return identical
/// multisets, and the reduction must move strictly fewer bytes over the
/// probe-side link.
#[test]
fn semijoin_reduction_matches_unreduced_and_ships_fewer_bytes() {
    let (on, links_on) = semijoin_engine(None, true);
    let (off, links_off) = semijoin_engine(None, false);
    let a: Vec<_> = SEMIJOIN_CORPUS
        .iter()
        .map(|sql| (sql.to_string(), outcome(&on, sql)))
        .collect();
    let b: Vec<_> = SEMIJOIN_CORPUS
        .iter()
        .map(|sql| (sql.to_string(), outcome(&off, sql)))
        .collect();
    assert_same("semijoin-on", &a, "semijoin-off", &b);
    assert!(
        a.iter()
            .all(|(_, r)| matches!(r, Ok(rows) if !rows.is_empty())),
        "semi-join corpus must return data: {a:?}"
    );
    let m = on.metrics();
    assert!(
        m.semijoin_reductions > 0,
        "the reduction never fired — axis is vacuous: {m:?}"
    );
    assert!(m.semijoin_filter_bytes > 0, "{m:?}");
    // Off, no statement ships an `IN`-list of keys (one key per request,
    // which the reduction counters also count, still may).
    for sql in SEMIJOIN_CORPUS {
        let plan = off.explain(sql).unwrap().plan_text;
        assert!(!plan.contains("IN (@__keys0)"), "{plan}");
    }

    // Byte differential on the warmed engines: one reduced join vs its
    // unreduced twin, measured at the member1 link.
    for l in links_on.iter().chain(&links_off) {
        l.reset();
    }
    on.query(SEMIJOIN_CORPUS[0]).unwrap();
    off.query(SEMIJOIN_CORPUS[0]).unwrap();
    let reduced = links_on[0].snapshot();
    let unreduced = links_off[0].snapshot();
    assert!(
        reduced.bytes < unreduced.bytes,
        "reduction must ship strictly fewer bytes: reduced={} unreduced={}",
        reduced.bytes,
        unreduced.bytes
    );
    assert!(
        reduced.rows < unreduced.rows,
        "reduction must ship strictly fewer rows: reduced={} unreduced={}",
        reduced.rows,
        unreduced.rows
    );
}

/// Runtime startup pruning axis: eagerly skipping non-qualifying members
/// at drive time must be invisible in results — the lazy startup filters
/// it replaces already contributed nothing.
#[test]
fn runtime_pruning_matches_lazy_startup_filters() {
    let eager = distributed_engine(None);
    eager.set_runtime_prune(true);
    eager.set_plan_cache_enabled(true);
    let lazy = distributed_engine(None);
    lazy.set_runtime_prune(false);
    lazy.set_plan_cache_enabled(true);
    // Warm both so the corpus replays cached parameterized plans — the
    // shape that carries startup filters instead of compile-time pruning.
    run_corpus(&eager);
    run_corpus(&lazy);
    let a = run_corpus(&eager);
    let b = run_corpus(&lazy);
    assert_same("eager-startup-prune", &a, "lazy-startup-filters", &b);
    let m = eager.metrics();
    assert!(
        m.startup_members_skipped > 0,
        "runtime pruning never fired — axis is vacuous: {m:?}"
    );
    assert_eq!(
        lazy.metrics().startup_members_skipped,
        0,
        "the knob must gate the skip"
    );
}

/// The expanded chaos stack: semi-join reduction, runtime pruning,
/// parallel dispatch, batched shipping and seeded link faults together
/// against the plain serial unreduced pipeline.
#[test]
fn semijoin_prune_chaos_stack_matches_plain() {
    let (plain, _) = semijoin_engine(None, false);
    plain.set_runtime_prune(false);
    plain.set_batch_config(BatchConfig::batched(1));
    let (chaos, _) = semijoin_engine(Some(5), true);
    chaos.set_runtime_prune(true);
    chaos.set_batch_config(BatchConfig::batched(3));
    chaos.set_parallel_config(ParallelConfig::parallel());
    let corpus: Vec<&str> = CORPUS.iter().chain(SEMIJOIN_CORPUS).copied().collect();
    let run = |e: &Engine| -> Vec<_> {
        corpus
            .iter()
            .map(|sql| (sql.to_string(), outcome(e, sql)))
            .collect()
    };
    run(&chaos); // cold pass: compile (and fault) under the full stack
    let a = run(&plain);
    let b = run(&chaos);
    assert_same("plain-serial-unreduced", &a, "semijoin-prune-chaos", &b);
    let m = chaos.metrics();
    assert!(
        m.remote_retries > 0,
        "fault plan never fired — test is vacuous: {m:?}"
    );
    assert!(
        m.semijoin_reductions > 0,
        "the reduction never fired under chaos: {m:?}"
    );
}

#[test]
fn batched_parallel_faulted_matches_serial_row_clean() {
    // The full chaos stack: batching, exchanges, prefetch, and seeded link
    // faults on one side; the plain serial row pipeline on the other.
    let plain = distributed_engine(None);
    plain.set_batch_config(BatchConfig::batched(1));
    let chaos = distributed_engine(Some(3));
    chaos.set_batch_config(BatchConfig::batched(5));
    chaos.set_parallel_config(ParallelConfig::parallel());
    run_corpus(&chaos); // cold pass: compile under faults
    let a = run_corpus(&plain);
    let b = run_corpus(&chaos);
    assert_same("serial-row-clean", &a, "batched-parallel-faulted", &b);
    let m = chaos.metrics();
    assert!(
        m.remote_retries > 0,
        "fault plan never fired - test is vacuous: {m:?}"
    );
}

/// A correlated EXISTS over two views keeps the inner column its lifted
/// predicate reads (it failed with "unresolved column" on every leg, which
/// the diff alone compares equal): its rows are the ids computed straight
/// from the seed rows.
#[test]
fn correlated_exists_answers_the_seed_rows() {
    let sql = "SELECT id FROM a_all WHERE EXISTS (SELECT 1 FROM b_all WHERE b_all.id = a_all.id \
               AND b_all.score > 30)";
    assert!(CORPUS.contains(&sql));
    let b = b_rows();
    let mut want: Vec<String> = a_rows()
        .iter()
        .filter(|a| {
            b.iter().any(|b| {
                b.get(0) == a.get(0) && matches!(b.get(1), Value::Int(score) if *score > 30)
            })
        })
        .map(|a| format!("{:?}", Row::new(vec![a.get(0).clone()])))
        .collect();
    want.sort();
    assert_eq!(want.len(), 6);
    for engine in [local_engine(), distributed_engine(None)] {
        assert_eq!(outcome(&engine, sql), Ok(want.clone()), "{}", engine.name());
    }
}

/// An `IN` list's literal is coerced as the same literal compared with `=`
/// is, so the two forms select and delete the same rows, local and
/// federated: a FLOAT is not truncated and a string is not parsed against
/// an INT key, and a date string against a DATE column is a date either way.
#[test]
fn in_literals_match_what_equality_matches() {
    // (view, column, literal, rows it matches)
    let cases = [
        ("a_all", "id", "17", 1),
        ("a_all", "id", "17.5", 0),
        ("a_all", "id", "'17'", 0),
        ("a_all", "id", "NULL", 0),
        ("ev_all", "day", "'2004-06-15'", 1),
    ];
    let engines: [fn() -> Engine; 2] = [local_engine, || distributed_engine(None)];
    for (view, column, literal, matches) in cases {
        for open in engines {
            let engine = open();
            let name = engine.name().to_string();
            let count = |predicate: &str| -> Result<usize, String> {
                let sql = format!("SELECT id FROM {view} WHERE {predicate}");
                engine
                    .query(&sql)
                    .map(|r| r.len())
                    .map_err(|e| e.to_string())
            };
            let eq = format!("{column} = {literal}");
            let inlist = format!("{column} IN ({literal})");
            assert_eq!(count(&eq), Ok(matches), "{name}: SELECT … {eq}");
            assert_eq!(count(&inlist), Ok(matches), "{name}: SELECT … {inlist}");
            for predicate in [eq, inlist] {
                let engine = open();
                let sql = format!("DELETE FROM {view} WHERE {predicate}");
                let deleted = engine.execute(&sql).map(|r| r.rows_affected);
                assert_eq!(
                    deleted.map_err(|e| e.to_string()),
                    Ok(Some(matches as u64)),
                    "{name}: {sql}"
                );
            }
        }
    }
}
