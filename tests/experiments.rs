//! The paper's Table 1, Table 2 and Figure 2 as assertions: the counts each
//! artifact claims that no other suite checks. EXPERIMENTS.md names, for
//! every claim E1–E19, the test that holds it.

use dhqp::{Engine, EngineDataSource};
use dhqp_fulltext::FullTextProvider;
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
use dhqp_oledb::{DataSource, SqlSupport};
use dhqp_providers::{CsvProvider, MiniSqlProvider};
use dhqp_storage::{StorageEngine, TableDef};
use dhqp_types::{Column, DataType, Row, Schema, Value};
use dhqp_workload::docs::generate_documents;
use std::collections::BTreeSet;
use std::sync::Arc;

const ROWS: i64 = 3000;

/// `t(k, grp, v)`: `k` = 0..3000, `grp` = k mod 20, `v` = 7k mod 500.
fn table() -> (Schema, Vec<Row>) {
    let schema = Schema::new(
        ["k", "grp", "v"]
            .map(|name| Column::not_null(name, DataType::Int))
            .to_vec(),
    );
    let rows = (0..ROWS)
        .map(|k| {
            Row::new(vec![
                Value::Int(k),
                Value::Int(k % 20),
                Value::Int(k * 7 % 500),
            ])
        })
        .collect();
    (schema, rows)
}

/// How many rows of `t` satisfy `keep(v)`, and how many groups they form.
fn truth(keep: impl Fn(i64) -> bool) -> (i64, i64) {
    let (rows, groups) =
        (0..ROWS)
            .filter(|k| keep(k * 7 % 500))
            .fold((0, BTreeSet::new()), |(n, mut groups), k| {
                groups.insert(k % 20);
                (n + 1, groups)
            });
    (rows, groups.len() as i64)
}

/// One engine reaching the same `t` at every Table-2 level, each behind a
/// metered fault-free link of its own: `simple` (CSV rowsets, no command),
/// `minimum` and `odbccore` (SQL at that level over a storage engine) and
/// `sql92` (a whole engine).
fn one_table_every_level() -> (Engine, Vec<(&'static str, NetworkLink)>) {
    let (schema, rows) = table();
    let mut csv = String::from("k,grp,v\n");
    for r in &rows {
        csv.push_str(&format!("{},{},{}\n", r.get(0), r.get(1), r.get(2)));
    }
    let storage = |name: &str| {
        let s = Arc::new(StorageEngine::new(name));
        s.create_table(TableDef::new("t", schema.clone())).unwrap();
        s.insert_rows("t", &rows).unwrap();
        s
    };
    let sql92 = Engine::new("sql92-engine");
    sql92
        .create_table(TableDef::new("t", schema.clone()))
        .unwrap();
    sql92.storage().insert_rows("t", &rows).unwrap();
    let sources: [(&str, Arc<dyn DataSource>); 4] = [
        (
            "simple",
            Arc::new(CsvProvider::new("csv", &[("t", &csv)]).unwrap()),
        ),
        (
            "minimum",
            Arc::new(MiniSqlProvider::new("mdb", storage("min"), SqlSupport::Minimum).unwrap()),
        ),
        (
            "odbccore",
            Arc::new(MiniSqlProvider::new("mdb", storage("odbc"), SqlSupport::OdbcCore).unwrap()),
        ),
        ("sql92", Arc::new(EngineDataSource::new(sql92))),
    ];
    let engine = Engine::new("local");
    let links = sources
        .into_iter()
        .map(|(name, source)| {
            let link = NetworkLink::new(name, NetworkConfig::lan());
            let metered = NetworkedDataSource::reliable(source, link.clone());
            engine.add_linked_server(name, Arc::new(metered)).unwrap();
            (name, link)
        })
        .collect();
    (engine, links)
}

/// Run `sql` twice — the first run fetches the source's metadata — and
/// return the second run's sorted answer and the rows `link` carried for it.
fn rows_shipped(engine: &Engine, link: &NetworkLink, sql: &str) -> (Vec<String>, i64) {
    engine.query(sql).unwrap();
    link.reset();
    let result = engine.query(sql).unwrap();
    let mut answer: Vec<String> = result.rows.iter().map(|r| format!("{r:?}")).collect();
    answer.sort();
    (answer, link.snapshot().rows as i64)
}

/// Table 1: one dialect reaches relational, desktop-SQL, simple tabular and
/// full-text sources. Each SQL class is sent as much of one statement as its
/// language takes — the relational engine all of it (one row per group
/// comes back), the ODBC-core source the filter, the CSV source nothing —
/// and all three give the same answer. The full-text class speaks its own
/// language and is reached by pass-through.
#[test]
fn table1_every_provider_class_answers_one_query_shape() {
    let (engine, links) = one_table_every_level();
    let (matching, groups) = truth(|v| v < 50);
    let mut answers = Vec::new();
    for (class, want) in [("sql92", groups), ("odbccore", matching), ("simple", ROWS)] {
        let link = &links.iter().find(|(name, _)| *name == class).unwrap().1;
        let sql =
            format!("SELECT grp, COUNT(*) AS n FROM {class}.db.dbo.t WHERE v < 50 GROUP BY grp");
        let (answer, shipped) = rows_shipped(&engine, link, &sql);
        assert_eq!(shipped, want, "{class}");
        answers.push(answer);
    }
    assert_eq!(answers[0].len() as i64, groups);
    assert!(answers.iter().all(|a| *a == answers[0]), "{answers:?}");

    let service = Arc::clone(engine.fulltext_service());
    service.create_catalog("lit").unwrap();
    for doc in generate_documents(50, 1) {
        service.index_document("lit", doc).unwrap();
    }
    engine.register_openrowset_provider(
        "MSIDXS",
        Arc::new(move |catalog: &str| {
            Ok(
                Arc::new(FullTextProvider::new(Arc::clone(&service), catalog))
                    as Arc<dyn DataSource>,
            )
        }),
    );
    let hits = engine
        .query(
            "SELECT FS.path FROM OPENROWSET('MSIDXS','lit',\
             'Select path, rank from SCOPE() where CONTAINS(''database'')') AS FS",
        )
        .unwrap();
    let want = engine
        .fulltext_service()
        .query_keys("lit", "database")
        .unwrap();
    assert!(!want.is_empty());
    assert_eq!(hits.len(), want.len());
}

/// Table 2 / §3.3: plans "fully use" a source's capabilities "while not
/// overshooting". One table behind four levels gets a disjunctive filter
/// under an aggregate: OR is not in SQL Minimum, so that level ships the
/// table like the simple provider; ODBC core takes the filter; SQL-92 the
/// filter and the aggregate. Rows over the link: simple = minimum >
/// odbc-core > sql-92, the same answer from each.
#[test]
fn table2_rows_shipped_fall_with_the_capability_level() {
    let (engine, links) = one_table_every_level();
    let (matching, groups) = truth(|v| !(50..=450).contains(&v));
    let (answers, shipped): (Vec<_>, Vec<_>) = links
        .iter()
        .map(|(level, link)| {
            let sql = format!(
                "SELECT grp, COUNT(*) AS n FROM {level}.db.dbo.t \
                 WHERE v < 50 OR v > 450 GROUP BY grp"
            );
            rows_shipped(&engine, link, &sql)
        })
        .unzip();
    assert_eq!(shipped, [ROWS, ROWS, matching, groups]);
    assert!(ROWS > matching && matching > groups, "{shipped:?}");
    assert!(answers.iter().all(|a| *a == answers[0]), "{answers:?}");
}

/// A plan-cache template reaches a provider without parameter markers: its
/// `v < @__lit0 OR v > @__lit1` crosses the link with the values substituted
/// as literals, so the ODBC-core source filters the cached run exactly as it
/// filters the run compiled from the text.
#[test]
fn table2_odbc_core_source_keeps_its_filter_through_the_plan_cache() {
    let (engine, links) = one_table_every_level();
    engine.set_plan_cache_enabled(true);
    let link = &links
        .iter()
        .find(|(name, _)| *name == "odbccore")
        .unwrap()
        .1;
    let sql = "SELECT grp, COUNT(*) AS n FROM odbccore.db.dbo.t \
               WHERE v < 50 OR v > 450 GROUP BY grp";
    let shipped = || {
        link.reset();
        engine.query(sql).unwrap();
        link.snapshot().rows as i64
    };
    let hits = engine.metrics().plan_cache_hits;
    let cold = shipped();
    let cached = shipped();
    assert_eq!(engine.metrics().plan_cache_hits, hits + 1);
    let (matching, _) = truth(|v| !(50..=450).contains(&v));
    assert_eq!((cold, cached), (matching, matching));
    assert_eq!(matching, 594);
}

/// Figure 2 / §2.3: `CONTAINS` is the search service's (key, rank) rowset
/// joined back to the table on row identity. Its stemmer folds inflections,
/// so it finds the rows a `LIKE` scan for the same word misses, and the
/// rowset comes back in rank order.
#[test]
fn figure2_contains_finds_inflected_forms_like_misses_in_rank_order() {
    let engine = Engine::new("local");
    let schema = Schema::new(vec![
        Column::not_null("id", DataType::Int),
        Column::new("body", DataType::Str),
    ]);
    engine
        .create_table(TableDef::new("articles", schema).with_index("pk", &["id"], true))
        .unwrap();
    let bodies = [
        "distributed queries over many linked servers",
        "queries queried query",
        "a query processor",
        "pasta with garlic",
    ];
    let rows: Vec<Row> = (1..)
        .zip(bodies)
        .map(|(id, body)| Row::new(vec![Value::Int(id), Value::Str(body.into())]))
        .collect();
    engine.insert("articles", &rows).unwrap();
    engine
        .create_fulltext_index("articles", "id", "body", "ft")
        .unwrap();
    let ids = |sql: &str| {
        let mut ids: Vec<Value> = engine
            .query(sql)
            .unwrap()
            .rows
            .iter()
            .map(|r| r.get(0).clone())
            .collect();
        ids.sort_by(Value::total_cmp);
        ids
    };
    let contains = ids("SELECT id FROM articles WHERE CONTAINS(body, 'query')");
    let like = ids("SELECT id FROM articles WHERE body LIKE '%query%'");
    assert_eq!(contains, [1, 2, 3].map(Value::Int));
    assert_eq!(like, [2, 3].map(Value::Int));

    // Rank: matches per word of the row — 3 of 3, 1 of 3, 1 of 6.
    let ranked = engine.fulltext_service().query_keys("ft", "query").unwrap();
    let keys: Vec<u64> = ranked.iter().map(|(key, _)| *key).collect();
    assert_eq!(keys, [2, 3, 1]);
    assert!(ranked.windows(2).all(|w| w[0].1 > w[1].1), "{ranked:?}");
}
