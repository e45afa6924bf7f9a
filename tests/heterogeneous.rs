//! Heterogeneous-source integration tests: CSV files, spreadsheets, the
//! Access-like SQL provider, mail files, full-text catalogs — the paper's
//! §2.2–§2.4 scenarios end to end.

use dhqp::{Engine, EngineDataSource};
use dhqp_fulltext::FullTextProvider;
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
use dhqp_oledb::{DataSource, SqlSupport};
use dhqp_optimizer::OptimizerConfig;
use dhqp_providers::{CsvProvider, MailboxProvider, MiniSqlProvider, Sheet, SpreadsheetProvider};
use dhqp_storage::{StorageEngine, TableDef};
use dhqp_types::{value::parse_date, Column, DataType, Row, Schema, Value};
use dhqp_workload::docs::generate_documents;
use dhqp_workload::mailgen::{generate_mailbox, MailboxSpec};
use dhqp_workload::tpch::{self, TpchScale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn csv_linked_server_queries() {
    let engine = Engine::new("local");
    let csv = CsvProvider::new(
        "files",
        &[("scores.csv", "player,score\nann,10\nbeth,25\ncleo,17\n")],
    )
    .unwrap();
    engine.add_linked_server("files", Arc::new(csv)).unwrap();
    let r = engine
        .query("SELECT player FROM files.fs.dbo.[scores.csv] WHERE score > 15 ORDER BY score DESC")
        .unwrap();
    assert_eq!(r.len(), 2);
    assert_eq!(r.value(0, 0), &Value::Str("beth".into()));
    // Simple provider: everything is computed locally, but it still works.
    let plan = engine
        .explain("SELECT COUNT(*) AS n FROM files.fs.dbo.[scores.csv]")
        .unwrap();
    assert!(
        !plan.plan_text.contains("RemoteQuery"),
        "{}",
        plan.plan_text
    );
}

#[test]
fn spreadsheet_join_with_local_table() {
    let engine = Engine::new("local");
    engine
        .create_table(TableDef::new(
            "quota",
            Schema::new(vec![
                Column::not_null("quarter", DataType::Str),
                Column::not_null("target", DataType::Float),
            ]),
        ))
        .unwrap();
    engine
        .insert(
            "quota",
            &[
                Row::new(vec![Value::Str("Q1".into()), Value::Float(100_000.0)]),
                Row::new(vec![Value::Str("Q2".into()), Value::Float(120_000.0)]),
            ],
        )
        .unwrap();
    let mut sheet = Sheet::new(
        "Actuals",
        vec![
            ("Quarter".into(), DataType::Str),
            ("Amount".into(), DataType::Float),
        ],
    );
    sheet
        .push_row(vec![Value::Str("Q1".into()), Value::Float(110_000.0)])
        .unwrap();
    sheet
        .push_row(vec![Value::Str("Q2".into()), Value::Float(90_000.0)])
        .unwrap();
    engine
        .add_linked_server(
            "xls",
            Arc::new(SpreadsheetProvider::new("book.xls", vec![sheet])),
        )
        .unwrap();
    let r = engine
        .query(
            "SELECT q.quarter FROM quota q, xls.book.dbo.Actuals a \
             WHERE q.quarter = a.Quarter AND a.Amount >= q.target",
        )
        .unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r.value(0, 0), &Value::Str("Q1".into()));
}

#[test]
fn minisql_provider_receives_pushdown_within_its_level() {
    // An ODBC-Core provider gets single-statement pushdown for joins but
    // the engine must handle GROUP BY itself.
    let storage = Arc::new(StorageEngine::new("access"));
    storage
        .create_table(TableDef::new(
            "Customers",
            Schema::new(vec![
                Column::not_null("Emailaddr", DataType::Str),
                Column::not_null("City", DataType::Str),
            ]),
        ))
        .unwrap();
    let rows: Vec<Row> = (0..20)
        .map(|i| {
            Row::new(vec![
                Value::Str(format!("c{i}@x.example")),
                Value::Str(if i % 4 == 0 {
                    "Seattle".into()
                } else {
                    format!("City{}", i % 3)
                }),
            ])
        })
        .collect();
    storage.insert_rows("Customers", &rows).unwrap();
    let provider = MiniSqlProvider::new("AccessDb", storage, SqlSupport::OdbcCore).unwrap();
    let engine = Engine::new("local");
    engine.add_linked_server("acc", Arc::new(provider)).unwrap();

    // Filter pushdown works at ODBC Core.
    let sql = "SELECT Emailaddr FROM acc.db.dbo.Customers WHERE City = 'Seattle'";
    let plan = engine.explain(sql).unwrap();
    assert!(plan.plan_text.contains("RemoteQuery"), "{}", plan.plan_text);
    assert_eq!(engine.query(sql).unwrap().len(), 5);

    // GROUP BY exceeds the level: stays local, still answers.
    let sql = "SELECT City, COUNT(*) AS n FROM acc.db.dbo.Customers GROUP BY City";
    let plan = engine.explain(sql).unwrap();
    assert!(
        plan.plan_text.contains("HashAggregate") || plan.plan_text.contains("StreamAggregate"),
        "aggregate must run locally for an ODBC-Core source:\n{}",
        plan.plan_text
    );
    assert_eq!(engine.query(sql).unwrap().len(), 4);
}

#[test]
fn sql_minimum_provider_gets_only_simple_pushdown() {
    let storage = Arc::new(StorageEngine::new("mini"));
    storage
        .create_table(TableDef::new(
            "t",
            Schema::new(vec![
                Column::not_null("k", DataType::Int),
                Column::not_null("v", DataType::Int),
            ]),
        ))
        .unwrap();
    let rows: Vec<Row> = (0..50)
        .map(|i| Row::new(vec![Value::Int(i), Value::Int(i % 7)]))
        .collect();
    storage.insert_rows("t", &rows).unwrap();
    let provider = MiniSqlProvider::new("minidb", storage, SqlSupport::Minimum).unwrap();
    let engine = Engine::new("local");
    engine
        .add_linked_server("mini", Arc::new(provider))
        .unwrap();

    // Conjunctive comparison: pushable at SQL Minimum.
    let sql = "SELECT k FROM mini.db.dbo.t WHERE k > 40 AND v = 1";
    let plan = engine.explain(sql).unwrap();
    assert!(plan.plan_text.contains("RemoteQuery"), "{}", plan.plan_text);
    assert!(!engine.query(sql).unwrap().is_empty());

    // OR exceeds SQL Minimum: the filter must run locally.
    let sql = "SELECT k FROM mini.db.dbo.t WHERE k = 1 OR k = 2";
    let plan = engine.explain(sql).unwrap();
    assert!(
        plan.plan_text.contains("Filter"),
        "OR predicate stays local at SQL Minimum:\n{}",
        plan.plan_text
    );
    assert_eq!(engine.query(sql).unwrap().len(), 2);
}

/// 500 rows `t(k, v)` on a SQL-Minimum or ODBC-Core source `mini`, behind
/// a reliable simulated link, and one local row `o(id, k)` per outer key:
/// `PROBED` picks two of them.
fn minisql_probe_fixture(level: SqlSupport, outer_keys: &[Option<i64>]) -> (Engine, NetworkLink) {
    let storage = Arc::new(StorageEngine::new("mini"));
    storage
        .create_table(TableDef::new(
            "t",
            Schema::new(vec![
                Column::not_null("k", DataType::Int),
                Column::not_null("v", DataType::Int),
            ]),
        ))
        .unwrap();
    let rows: Vec<Row> = (0..500)
        .map(|i| Row::new(vec![Value::Int(i), Value::Int(i * 3)]))
        .collect();
    storage.insert_rows("t", &rows).unwrap();
    let engine = Engine::new("local");
    engine
        .create_table(TableDef::new(
            "o",
            Schema::new(vec![
                Column::not_null("id", DataType::Int),
                Column::new("k", DataType::Int),
            ]),
        ))
        .unwrap();
    let outer: Vec<Row> = (1..)
        .zip(outer_keys)
        .map(|(id, k)| Row::new(vec![Value::Int(id), k.map_or(Value::Null, Value::Int)]))
        .collect();
    engine.insert("o", &outer).unwrap();
    engine.analyze("o", 2).unwrap();
    let provider = MiniSqlProvider::new("minidb", storage, level).unwrap();
    let link = NetworkLink::new("mini", NetworkConfig::lan());
    let linked = NetworkedDataSource::reliable(Arc::new(provider), link.clone());
    engine.add_linked_server("mini", Arc::new(linked)).unwrap();
    (engine, link)
}

const PROBED: [Option<i64>; 2] = [Some(31), Some(402)];

const MINI_JOIN: &str = "SELECT o.id, t.v FROM o, mini.db.dbo.t t WHERE o.k = t.k";

/// Run `sql` under EXPLAIN ANALYZE: the plan, the text each remote
/// operator shipped last, and the answer rows sorted.
fn shipped_and_answer(engine: &Engine, sql: &str) -> (String, Vec<String>, Vec<String>) {
    let report = engine.execute_analyze(sql).unwrap();
    let shipped: Vec<String> = report
        .record
        .operators
        .iter()
        .filter_map(|op| op.remote().map(|r| r.sql.clone()))
        .collect();
    let mut rows: Vec<String> = report
        .result
        .rows
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    rows.sort();
    (report.plan.display_indent(), shipped, rows)
}

/// Whether `plan` probes its remote side with one key per request: a
/// one-key `SemiJoinReduce`, and no nested loop re-opening a remote query.
fn probes_one_key_per_request(plan: &str) -> bool {
    let nested_remote_query = plan
        .lines()
        .zip(plan.lines().skip(1))
        .any(|(a, b)| a.contains("NestedLoopJoin") && b.contains("RemoteQuery"));
    plan.contains("SemiJoinReduce(@mini keys=1: ") && !nested_remote_query
}

/// A SQL-Minimum or ODBC-Core source is probed with one outer key per
/// request (the parameterized remote query of §4.1.2): each probe ships
/// `k = <outer key>` with the key as a literal, never a marker, and the
/// join answers what the plan that reads the whole table answers.
#[test]
fn minisql_source_probed_through_correlation_parameter() {
    for level in [SqlSupport::Minimum, SqlSupport::OdbcCore] {
        let (engine, _) = minisql_probe_fixture(level, &PROBED);
        // Semi-join reduction off, whatever the environment says, so the
        // parameterized probe competes with reading the whole table only.
        engine.set_optimizer_config(OptimizerConfig {
            enable_semijoin: false,
            ..engine.optimizer_config()
        });

        let run = |engine: &Engine| shipped_and_answer(engine, MINI_JOIN);

        let (plan, shipped, probed) = run(&engine);
        assert!(probes_one_key_per_request(&plan), "{level:?}:\n{plan}");
        assert_eq!(shipped.len(), 1, "{level:?}: {shipped:?}\n{plan}");
        assert!(
            !shipped[0].contains('@') && shipped[0].contains("[k] = 402"),
            "{level:?}: the last probe ships its key as a literal: {}",
            shipped[0]
        );
        assert_eq!(probed.len(), 2, "{level:?}: {probed:?}");

        engine.set_optimizer_config(OptimizerConfig {
            enable_remote_param: false,
            ..engine.optimizer_config()
        });
        let (plan, shipped, read) = run(&engine);
        assert!(!plan.contains("SemiJoinReduce"), "{level:?}:\n{plan}");
        assert!(
            shipped.iter().all(|text| !text.contains("[k] =")),
            "{level:?}: {shipped:?}"
        );
        assert_eq!(probed, read, "{level:?}");
    }
}

/// A NULL outer key joins nothing, so the one-key probe never ships it:
/// the link sees one request per distinct non-NULL key, and the answer is
/// the plan's that reads the whole table.
#[test]
fn minisql_probe_ships_no_request_for_a_null_key() {
    for level in [SqlSupport::Minimum, SqlSupport::OdbcCore] {
        let (engine, link) = minisql_probe_fixture(level, &[None, Some(402)]);
        engine.set_optimizer_config(OptimizerConfig {
            enable_semijoin: false,
            ..engine.optimizer_config()
        });
        let (plan, _, _) = shipped_and_answer(&engine, MINI_JOIN);
        assert!(probes_one_key_per_request(&plan), "{level:?}:\n{plan}");

        link.reset();
        let (_, _, probed) = shipped_and_answer(&engine, MINI_JOIN);
        let traffic = link.snapshot();
        assert_eq!(traffic.requests, 1, "{level:?}: {traffic:?}\n{plan}");
        assert_eq!(traffic.rows, 1, "{level:?}: {traffic:?}");

        engine.set_optimizer_config(OptimizerConfig {
            enable_remote_param: false,
            ..engine.optimizer_config()
        });
        let (_, _, read) = shipped_and_answer(&engine, MINI_JOIN);
        assert_eq!(probed, read, "{level:?}");
        assert_eq!(probed.len(), 1, "{level:?}: {probed:?}");
    }
}

/// The semi-join reduction reaches an ODBC-Core source that has no nested
/// SELECT: the decoder ANDs `k IN (@__keys0)` into the probe statement's own
/// WHERE, and the two build keys cross as literals in one request. SQL
/// Minimum has no `IN`, so its decoder offers no reduced statement.
#[test]
fn minisql_source_reduced_by_the_semijoin_key_set() {
    for level in [SqlSupport::Minimum, SqlSupport::OdbcCore] {
        let (engine, _) = minisql_probe_fixture(level, &PROBED);
        engine.set_optimizer_config(OptimizerConfig {
            enable_semijoin: true,
            ..engine.optimizer_config()
        });
        let (plan, shipped, reduced) = shipped_and_answer(&engine, MINI_JOIN);
        engine.set_optimizer_config(OptimizerConfig {
            enable_semijoin: false,
            ..engine.optimizer_config()
        });
        let (_, _, plain) = shipped_and_answer(&engine, MINI_JOIN);
        assert_eq!(reduced, plain, "{level:?}:\n{plan}");
        assert_eq!(reduced.len(), 2, "{level:?}: {reduced:?}");
        // `keys=64:`, not `keys=1:`, marks the all-keys form.
        if level == SqlSupport::Minimum {
            assert!(!plan.contains("keys=64:"), "{plan}");
            continue;
        }
        assert!(!plan.contains("keys=1:"), "{plan}");
        assert!(plan.contains("SemiJoinReduce(@mini keys=64:"), "{plan}");
        assert_eq!(shipped.len(), 1, "{shipped:?}\n{plan}");
        let text = &shipped[0];
        assert!(text.contains("IN (31, 402)"), "{text}");
        assert!(!text.contains('@'), "{text}");
        assert!(!text.contains("(SELECT"), "no derived table: {text}");
    }
}

/// The §2.2 scenario: OPENROWSET against the MSIDXS full-text provider.
#[test]
fn openrowset_fulltext_documents() {
    let engine = Engine::new("local");
    let service = Arc::clone(engine.fulltext_service());
    service.create_catalog("DQLiterature").unwrap();
    for doc in generate_documents(40, 5) {
        service.index_document("DQLiterature", doc).unwrap();
    }
    let svc = Arc::clone(&service);
    engine.register_openrowset_provider(
        "MSIDXS",
        Arc::new(move |catalog: &str| {
            Ok(Arc::new(FullTextProvider::new(Arc::clone(&svc), catalog)) as Arc<dyn DataSource>)
        }),
    );
    // The paper's §2.2 query, modulo dialect details.
    let r = engine
        .query(
            "SELECT FS.path FROM OPENROWSET('MSIDXS','DQLiterature',\
             'Select Path, Directory, FileName, size, Create, Write from SCOPE() \
              where CONTAINS(''\"parallel database\" OR \"heterogeneous query\"'')') AS FS",
        )
        .unwrap();
    assert!(!r.is_empty());
    for row in &r.rows {
        let Value::Str(path) = row.get(0) else {
            panic!("path must be a string")
        };
        assert!(
            path.contains("databases"),
            "only database-topic docs match: {path}"
        );
    }
    // Rank-ordered TOP via the provider's rank column.
    let r = engine
        .query(
            "SELECT FS.path, FS.rank FROM OPENROWSET('MSIDXS','DQLiterature',\
             'Select path, rank from SCOPE() where CONTAINS(''database'')') AS FS \
             WHERE FS.rank > 100",
        )
        .unwrap();
    assert!(!r.is_empty());
}

/// The §2.3 scenario: CONTAINS over a relational table joined on row
/// identity.
#[test]
fn contains_over_relational_table() {
    let engine = Engine::new("local");
    engine
        .create_table(
            TableDef::new(
                "articles",
                Schema::new(vec![
                    Column::not_null("id", DataType::Int),
                    Column::not_null("title", DataType::Str),
                    Column::new("body", DataType::Str),
                ]),
            )
            .with_index("pk_articles", &["id"], true),
        )
        .unwrap();
    engine
        .insert(
            "articles",
            &[
                Row::new(vec![
                    Value::Int(1),
                    Value::Str("running guide".into()),
                    Value::Str("The runner ran a marathon in the rain".into()),
                ]),
                Row::new(vec![
                    Value::Int(2),
                    Value::Str("db notes".into()),
                    Value::Str("Parallel database systems overview".into()),
                ]),
                Row::new(vec![
                    Value::Int(3),
                    Value::Str("cooking".into()),
                    Value::Str("Pasta with garlic".into()),
                ]),
            ],
        )
        .unwrap();
    engine
        .create_fulltext_index("articles", "id", "body", "articles_ft")
        .unwrap();

    // Inflection folding: 'run' matches 'runner'/'ran' (§2.3).
    let r = engine
        .query("SELECT title FROM articles WHERE CONTAINS(body, 'run') ORDER BY title")
        .unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r.value(0, 0), &Value::Str("running guide".into()));

    // Full-text predicate combined with relational predicates.
    let r = engine
        .query("SELECT id FROM articles WHERE CONTAINS(body, 'database OR pasta') AND id > 2")
        .unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r.value(0, 0), &Value::Int(3));

    // Index maintenance after DML through the engine.
    engine.execute("DELETE FROM articles WHERE id = 2").unwrap();
    let r = engine
        .query("SELECT id FROM articles WHERE CONTAINS(body, 'database')")
        .unwrap();
    assert!(r.is_empty(), "deleted rows must leave the full-text index");
    // ... the service itself, not only the semi-join back to the table.
    let service = engine.fulltext_service();
    let doc_count = || {
        service
            .with_catalog("articles_ft", |c| c.doc_count())
            .unwrap()
    };
    let keys = |q: &str| service.query_keys("articles_ft", q).unwrap();
    assert!(keys("database").is_empty(), "{:?}", keys("database"));
    assert_eq!(doc_count(), 2);
    // An UPDATE of the text column: the new text is found, the old is not.
    engine
        .execute("UPDATE articles SET body = 'Risotto with mushrooms' WHERE id = 3")
        .unwrap();
    assert!(keys("pasta").is_empty(), "{:?}", keys("pasta"));
    assert_eq!(keys("risotto"), [(3, 1000)]);
    assert_eq!(keys("run"), [(1, 1000)]);
    assert_eq!(doc_count(), 2);
    // A catalog indexes one column: a rebuild from a second would erase the
    // first's rows. Binding the same column again is a plain refresh.
    assert!(engine
        .create_fulltext_index("articles", "id", "title", "articles_ft")
        .is_err());
    engine
        .create_fulltext_index("articles", "id", "body", "articles_ft")
        .unwrap();
    assert_eq!(keys("risotto"), [(3, 1000)]);
}

/// `docs` (full-text indexed on `body`, ids from 0) in a head that reaches
/// `customers` TPC-H customers (keys from 0) on `remote0` over a counting
/// link, and an all-local engine holding both tables as the oracle.
struct FullTextJoin {
    head: Engine,
    member: Engine,
    link: NetworkLink,
    oracle: Engine,
}

const FT_JOIN: &str = "SELECT d.id, c.c_name FROM docs d JOIN remote0.tpch.dbo.customer c \
                       ON d.id = c.c_custkey WHERE CONTAINS(d.body, '{term}') AND c.c_acctbal > 0";

fn fulltext_join(customers: usize) -> FullTextJoin {
    let docs: Vec<Row> = generate_documents(1200, 29)
        .into_iter()
        .enumerate()
        .map(|(i, d)| Row::new(vec![Value::Int(i as i64), Value::Str(d.raw)]))
        .collect();
    let with_docs = |name: &str| {
        let engine = Engine::new(name);
        let schema = Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("body", DataType::Str),
        ]);
        engine
            .create_table(TableDef::new("docs", schema).with_index("pk_docs", &["id"], true))
            .unwrap();
        engine.insert("docs", &docs).unwrap();
        engine
            .create_fulltext_index("docs", "id", "body", "docs_ft")
            .unwrap();
        engine.analyze("docs", 24).unwrap();
        engine
    };
    let (head, oracle) = (with_docs("ft-head"), with_docs("ft-oracle"));
    let member = Engine::new("ft-remote0");
    let scale = TpchScale {
        customers,
        ..TpchScale::small()
    };
    for engine in [&oracle, &member] {
        let mut rng = StdRng::seed_from_u64(11);
        tpch::create_customer(engine.storage(), &scale, &mut rng).unwrap();
        engine.analyze("customer", 24).unwrap();
    }
    let link = NetworkLink::new("remote0", NetworkConfig::lan());
    let source: Arc<dyn DataSource> = Arc::new(EngineDataSource::new(member.clone()));
    let linked = NetworkedDataSource::reliable(source, link.clone());
    head.add_linked_server("remote0", Arc::new(linked)).unwrap();
    // Bind once, so the metadata and statistics requests are behind us.
    head.explain("SELECT c_name FROM remote0.tpch.dbo.customer")
        .unwrap();
    FullTextJoin {
        head,
        member,
        link,
        oracle,
    }
}

impl FullTextJoin {
    /// The search service's keys for `term`, sorted.
    fn hits(&self, term: &str) -> Vec<i64> {
        let hits = self.head.fulltext_service().query_keys("docs_ft", term);
        let mut keys: Vec<i64> = hits.unwrap().iter().map(|&(k, _)| k as i64).collect();
        keys.sort_unstable();
        keys
    }

    /// Run `sql` at the head; the rows, the oracle's rows (both sorted), and
    /// the traffic it put on the link.
    fn run(&self, sql: &str) -> (Vec<Row>, Vec<Row>, dhqp_oledb::TrafficSnapshot) {
        let before = self.link.snapshot();
        let mut got = self.head.query(sql).unwrap().rows;
        let traffic = self.link.snapshot().since(&before);
        let local = sql.replace("remote0.tpch.dbo.", "");
        let mut want = self.oracle.query(&local).unwrap().rows;
        got.sort_by(|a, b| a.values[0].total_cmp(&b.values[0]));
        want.sort_by(|a, b| a.values[0].total_cmp(&b.values[0]));
        (got, want, traffic)
    }
}

/// §2.3 with the table on the far side of a link (E4): CONTAINS binds as
/// `d.id IN (<hits>)`, and across `d.id = c.c_custkey` the hit list is
/// shipped to `remote0`, which returns the matching customers instead of
/// the whole table.
#[test]
fn contains_ships_its_hit_list_across_a_remote_join() {
    let fed = fulltext_join(3000);
    for term in ["pasta", "latency", "compiler", "garlic AND basil", "join"] {
        let hits = fed.hits(term);
        assert!(hits.len() > 25, "{term}: {} hits", hits.len());
        let sql = FT_JOIN.replace("{term}", term);
        let (got, want, traffic) = fed.run(&sql);
        assert_eq!(got, want, "{term}");
        assert_eq!(traffic.requests, 1, "{term}");
        // Every customer the link carried joins a hit.
        assert_eq!(traffic.rows, want.len() as u64, "{term}");
        let shipped = fed.member.recent_queries().last().unwrap().sql.clone();
        let list = shipped
            .split(" IN (")
            .nth(1)
            .unwrap_or_else(|| panic!("{shipped}"));
        let list = &list[..list.find(')').unwrap()];
        let keys: Vec<i64> = list.split(", ").map(|k| k.parse().unwrap()).collect();
        assert_eq!(keys, hits, "{term}: {shipped}");
    }
    // A term that matches nothing is an empty answer found at the head.
    let (got, _, traffic) = fed.run(&FT_JOIN.replace("{term}", "xylophone"));
    assert!(got.is_empty());
    assert_eq!((traffic.requests, traffic.bytes), (0, 0));
}

/// The key set is costed, not forced: against a 25-row remote table a
/// list of hundreds of keys costs more to ship than the rows it could
/// save, so the plain fetch is kept and the hits filter only `docs`.
#[test]
fn contains_keeps_the_plain_fetch_of_a_table_smaller_than_its_hit_list() {
    let fed = fulltext_join(25);
    let term = "join";
    assert!(fed.hits(term).len() > 100);
    let sql = FT_JOIN.replace("{term}", term);
    let plan = fed.head.explain(&sql).unwrap().plan_text;
    let remote: Vec<&str> = plan.lines().filter(|l| l.contains("RemoteQuery")).collect();
    assert_eq!(remote.len(), 1, "{plan}");
    assert!(!remote[0].contains(" IN ("), "{plan}");
    assert!(
        plan.lines()
            .any(|l| !l.contains("RemoteQuery") && l.contains(" IN (")),
        "the hit list filters docs at the head:\n{plan}"
    );
    let (got, want, traffic) = fed.run(&sql);
    assert_eq!(got, want);
    assert_eq!(traffic.requests, 1);
    let positive = fed
        .oracle
        .query("SELECT c_custkey FROM customer WHERE c_acctbal > 0")
        .unwrap();
    assert_eq!(traffic.rows, positive.len() as u64);
}

/// An `IN`-list compiles in about linear time: its literals are sorted
/// once, its domain is built without a union per key and intersected by a
/// merge walk. Ten times the keys may take at most 25 times as long to
/// EXPLAIN (linear predicts about 10, a quadratic compile about 100).
#[test]
fn in_list_explain_time_grows_linearly() {
    let fed = fulltext_join(3000);
    let explain = |n: i64| {
        let keys: Vec<String> = (0..n).map(|k| (k * 7 % 3000).to_string()).collect();
        let sql = format!(
            "SELECT c_name FROM remote0.tpch.dbo.customer WHERE c_custkey IN ({})",
            keys.join(", ")
        );
        (0..3)
            .map(|_| {
                let t = std::time::Instant::now();
                fed.head.explain(&sql).unwrap();
                t.elapsed()
            })
            .min()
            .unwrap()
    };
    explain(10);
    let (short, long) = (explain(200), explain(2000));
    assert!(
        long <= short * 25,
        "200 keys: {short:?}, 2 000 keys: {long:?}"
    );
}

/// The §2.4 salesman scenario: unanswered mail from Seattle customers in
/// the last two days, joining a mail file with an Access-style customer
/// table.
#[test]
fn salesman_email_scenario() {
    let today = parse_date("2004-06-14").unwrap();
    let engine = Engine::new("local");

    // Mail file provider (d:\mail\smith.mmf).
    let spec = MailboxSpec {
        owner: "smith@corp.example".into(),
        customers: MailboxSpec::customer_addresses(12),
        inbound: 40,
        reply_fraction: 0.5,
        today,
    };
    let mailbox =
        MailboxProvider::from_text("d:\\mail\\smith.mmf", &generate_mailbox(&spec, 21)).unwrap();
    engine.add_linked_server("mail", Arc::new(mailbox)).unwrap();

    // Access-style Customers table: half the customers are in Seattle.
    let storage = Arc::new(StorageEngine::new("enterprise.mdb"));
    storage
        .create_table(TableDef::new(
            "Customers",
            Schema::new(vec![
                Column::not_null("Emailaddr", DataType::Str),
                Column::not_null("City", DataType::Str),
                Column::new("Address", DataType::Str),
            ]),
        ))
        .unwrap();
    let rows: Vec<Row> = spec
        .customers
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            Row::new(vec![
                Value::Str(addr.clone()),
                Value::Str(if i % 2 == 0 { "Seattle" } else { "Portland" }.into()),
                Value::Str(format!("{i} Pine St")),
            ])
        })
        .collect();
    storage.insert_rows("Customers", &rows).unwrap();
    engine
        .add_linked_server(
            "access",
            Arc::new(
                MiniSqlProvider::new("enterprise.mdb", storage, SqlSupport::OdbcCore).unwrap(),
            ),
        )
        .unwrap();

    // The paper's §2.4 query, in the engine's dialect.
    let sql = "SELECT m1.msgid, m1.from_addr, c.Address \
               FROM mail.mbx.dbo.messages m1, access.db.dbo.Customers c \
               WHERE m1.date >= DATE '2004-06-12' \
                 AND m1.from_addr = c.Emailaddr AND c.City = 'Seattle' \
                 AND m1.to_addr = 'smith@corp.example' \
                 AND NOT EXISTS (SELECT * FROM mail.mbx.dbo.messages m2 \
                                 WHERE m2.inreplyto = m1.msgid)";
    let r = engine.query(sql).unwrap();
    assert!(!r.is_empty(), "some recent Seattle mail must be unanswered");
    // Cross-check each result row against first principles.
    let all_mail = engine
        .query("SELECT msgid, from_addr, date, inreplyto FROM mail.mbx.dbo.messages")
        .unwrap();
    for row in &r.rows {
        let Value::Str(msgid) = row.get(0) else {
            panic!()
        };
        let parent = all_mail
            .rows
            .iter()
            .find(|m| matches!(m.get(0), Value::Str(s) if s == msgid))
            .expect("result must be a real message");
        assert!(matches!(parent.get(2), Value::Date(d) if *d >= today - 2));
        let answered = all_mail
            .rows
            .iter()
            .any(|m| matches!(m.get(3), Value::Str(s) if s == msgid));
        assert!(!answered, "{msgid} was answered");
    }
}

#[test]
fn three_source_federated_join() {
    // Local + remote engine + CSV in one statement.
    let engine = Engine::new("local");
    engine
        .create_table(TableDef::new(
            "regions",
            Schema::new(vec![
                Column::not_null("region_id", DataType::Int),
                Column::not_null("region", DataType::Str),
            ]),
        ))
        .unwrap();
    engine
        .insert(
            "regions",
            &[
                Row::new(vec![Value::Int(1), Value::Str("west".into())]),
                Row::new(vec![Value::Int(2), Value::Str("east".into())]),
            ],
        )
        .unwrap();

    let remote = Engine::new("sales-engine");
    remote
        .create_table(TableDef::new(
            "sales",
            Schema::new(vec![
                Column::not_null("store_id", DataType::Int),
                Column::not_null("amount", DataType::Int),
            ]),
        ))
        .unwrap();
    remote
        .storage()
        .insert_rows(
            "sales",
            &[
                Row::new(vec![Value::Int(10), Value::Int(500)]),
                Row::new(vec![Value::Int(11), Value::Int(700)]),
                Row::new(vec![Value::Int(10), Value::Int(250)]),
            ],
        )
        .unwrap();
    let link = NetworkLink::new("sales-link", NetworkConfig::lan());
    engine
        .add_linked_server(
            "salesrv",
            Arc::new(NetworkedDataSource::new(
                Arc::new(EngineDataSource::new(remote)),
                link,
            )),
        )
        .unwrap();

    let csv = CsvProvider::new(
        "files",
        &[("stores.csv", "store_id,region_id\n10,1\n11,2\n")],
    )
    .unwrap();
    engine.add_linked_server("files", Arc::new(csv)).unwrap();

    let r = engine
        .query(
            "SELECT r.region, SUM(s.amount) AS total \
             FROM regions r, files.fs.dbo.[stores.csv] st, salesrv.db.dbo.sales s \
             WHERE r.region_id = st.region_id AND st.store_id = s.store_id \
             GROUP BY r.region ORDER BY r.region",
        )
        .unwrap();
    assert_eq!(r.len(), 2);
    assert_eq!(r.value(0, 0), &Value::Str("east".into()));
    assert_eq!(r.value(0, 1), &Value::Int(700));
    assert_eq!(r.value(1, 1), &Value::Int(750));
}
