//! One conformance suite for every in-tree provider (DESIGN.md §25). Each
//! provider runs bare, under `PooledDataSource`, under
//! `NetworkedDataSource::reliable` and under the pool-over-link stack that
//! `Engine::add_linked_server` builds, and [`conforms`] checks that
//! - its capabilities are honest: claimed index support means `open_index`
//!   agrees with `open_rowset` plus the range as a filter, and a claimed SQL
//!   level means it runs what the decoder emits at that level;
//! - `check_schema` refuses exactly when `PartitionedView::validate_member`
//!   would;
//! - a vote that rides a write stands or falls with that write;
//! - its metadata is honest: every listed table opens with exactly the
//!   listed columns, and each value fits its column;
//! - a wrapped source answers every verb as the bare one does.
//!
//! A new provider is one more [`Subject`] in `every_provider_conforms`.

use dhqp::{Engine, EngineDataSource, EventConfig, SYS_SERVER};
use dhqp_federation::{MemberTable, PartitionedView};
use dhqp_fulltext::{FullTextProvider, SearchService};
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
use dhqp_oledb::{
    DataSource, KeyRange, PooledDataSource, Rowset, RowsetExt, SqlSupport, TableInfo,
};
use dhqp_providers::{CsvProvider, MailboxProvider, MiniSqlProvider, Sheet, SpreadsheetProvider};
use dhqp_storage::{LocalDataSource, StorageEngine, TableDef};
use dhqp_types::{Column, DataType, DhqpError, IntervalSet, Result, Row, Schema, Value};
use dhqp_workload::docs::generate_documents;
use std::cmp::Ordering;
use std::fmt::Debug;
use std::sync::{Arc, OnceLock};

/// A provider under test: a fresh instance per call, the table it serves,
/// and command text in its language, when it has one.
struct Subject {
    name: &'static str,
    make: fn() -> Arc<dyn DataSource>,
    table: &'static str,
    command: Option<&'static str>,
}

const MISSING: &str = "no_such_table";

/// `t(k, v, grp)`: `k` = 0..40, `v` = 7k mod 50, `grp` = k mod 4.
fn t_rows() -> Vec<Row> {
    (0..40)
        .map(|k| {
            Row::new(vec![
                Value::Int(k),
                Value::Int(k * 7 % 50),
                Value::Int(k % 4),
            ])
        })
        .collect()
}

fn t_def() -> TableDef {
    let columns = ["k", "v", "grp"].map(|c| Column::not_null(c, DataType::Int));
    TableDef::new("t", Schema::new(columns.to_vec()))
        .with_index("pk_t", &["k"], true)
        .with_index("ix_t_v", &["v"], false)
}

fn storage_with_t(name: &str) -> Arc<StorageEngine> {
    let storage = Arc::new(StorageEngine::new(name));
    storage.create_table(t_def()).unwrap();
    storage.insert_rows("t", &t_rows()).unwrap();
    storage.analyze("t", 4).unwrap();
    storage
}

fn engine_with_t(name: &str) -> Engine {
    let engine = Engine::new(name);
    engine.create_table(t_def()).unwrap();
    engine.storage().insert_rows("t", &t_rows()).unwrap();
    engine.storage().analyze("t", 4).unwrap();
    engine
}

fn csv() -> Arc<dyn DataSource> {
    let mut text = String::from("k,v,grp\n");
    for row in t_rows() {
        let [k, v, grp] = [0, 1, 2].map(|i| row.get(i).to_string());
        text.push_str(&format!("{k},{v},{grp}\n"));
    }
    Arc::new(CsvProvider::new("csv", &[("t", &text)]).unwrap())
}

fn spreadsheet() -> Arc<dyn DataSource> {
    let columns = ["k", "v", "grp"].map(|c| (c.to_string(), DataType::Int));
    let mut sheet = Sheet::new("t", columns.to_vec());
    for row in t_rows() {
        sheet.push_row(row.values).unwrap();
    }
    Arc::new(SpreadsheetProvider::new("book", vec![sheet]))
}

fn mailbox() -> Arc<dyn DataSource> {
    let text = "Msg-Id: <1>\nFrom: a@example.com\nTo: b@example.com\nDate: 2004-06-12\n\
                Subject: order\n\nfirst body\nMsg-Id: <2>\nFrom: b@example.com\n\
                To: a@example.com\nDate: 2004-06-13\nSubject: re: order\nIn-Reply-To: <1>\n\n\
                second body\n";
    Arc::new(MailboxProvider::from_text("inbox.mmf", text).unwrap())
}

fn fulltext() -> Arc<dyn DataSource> {
    let service = Arc::new(SearchService::new());
    service.create_catalog("docs").unwrap();
    for doc in generate_documents(20, 1) {
        service.index_document("docs", doc).unwrap();
    }
    Arc::new(FullTextProvider::new(service, "docs"))
}

fn mini_sql(level: SqlSupport) -> Arc<dyn DataSource> {
    Arc::new(MiniSqlProvider::new("mdb", storage_with_t("mdb"), level).unwrap())
}

/// An engine's own `sys` provider, as the engine registered it. It holds its
/// engine weakly, so the engine lives as long as the test binary. The engine
/// has done some work first — a plan-cached and a failed statement, over a
/// linked server, with the query store and events on — so every view has
/// rows to check.
fn sys() -> Arc<dyn DataSource> {
    static HOST: OnceLock<Engine> = OnceLock::new();
    let host = HOST.get_or_init(|| {
        let host = Engine::new("sys-host");
        host.add_linked_server("m", Arc::new(link(csv()))).unwrap();
        host.set_plan_cache_enabled(true);
        host.set_query_store_enabled(true);
        host.set_event_config(EventConfig::all());
        host.query("SELECT k FROM m.db.dbo.t WHERE k = 1").unwrap();
        host.query("SELECT nope FROM m.db.dbo.t").unwrap_err();
        host
    });
    host.linked_server(SYS_SERVER).unwrap()
}

#[test]
fn every_provider_conforms() {
    const SELECT: Option<&str> = Some("SELECT k, v FROM t WHERE k < 3");
    let subjects = [
        Subject {
            name: "storage",
            make: || Arc::new(LocalDataSource::new(storage_with_t("local"))),
            table: "t",
            command: None,
        },
        Subject {
            name: "csv",
            make: csv,
            table: "t",
            command: None,
        },
        Subject {
            name: "spreadsheet",
            make: spreadsheet,
            table: "t",
            command: None,
        },
        Subject {
            name: "mailbox",
            make: mailbox,
            table: "messages",
            command: None,
        },
        Subject {
            name: "minisql minimum",
            make: || mini_sql(SqlSupport::Minimum),
            table: "t",
            command: SELECT,
        },
        Subject {
            name: "minisql odbc-core",
            make: || mini_sql(SqlSupport::OdbcCore),
            table: "t",
            command: SELECT,
        },
        Subject {
            name: "fulltext",
            make: fulltext,
            table: "SCOPE",
            command: Some("Select path, rank from SCOPE() where CONTAINS('database')"),
        },
        Subject {
            name: "engine",
            make: || Arc::new(EngineDataSource::new(engine_with_t("member"))),
            table: "t",
            command: SELECT,
        },
        Subject {
            name: "sys",
            make: sys,
            table: "dm_os_knobs",
            command: None,
        },
    ];
    for subject in &subjects {
        conforms(subject);
    }
}

/// Puts a provider under a wrapper.
type Wrap = fn(Arc<dyn DataSource>) -> Arc<dyn DataSource>;

/// The suite: every property, for the provider bare and under each wrapper.
fn conforms(subject: &Subject) {
    let reference = transcript(&*(subject.make)(), subject);
    assert!(reference.len() > 20, "{}: {reference:#?}", subject.name);
    let wrappers: [(&str, Wrap); 4] = [
        ("bare", |source| source),
        ("pooled", |source| Arc::new(PooledDataSource::new(source))),
        ("linked", |source| Arc::new(link(source))),
        ("pooled over linked", |source| {
            let head = Engine::new("head");
            head.add_linked_server("m", Arc::new(link(source))).unwrap();
            head.linked_server("m").unwrap()
        }),
    ];
    for (wrapping, wrap) in wrappers {
        let at = format!("{} {wrapping}", subject.name);
        let source = wrap((subject.make)());
        index_support_is_honest(&*source, subject.table, &at);
        sql_level_is_honest(&source, &at);
        check_schema_agrees_with_validate_member(&*source, subject.table, &at);
        a_ridden_vote_stands_or_falls_with_its_write(&*source, subject.table, &at);
        a_ridden_commit_stands_or_falls_with_its_write(&*source, subject.table, &at);
        metadata_is_honest(&*source, &at);
        let wrapped = transcript(&*wrap((subject.make)()), subject);
        for (answer, bare) in wrapped.iter().zip(&reference) {
            assert_eq!(answer, bare, "{at}");
        }
        assert_eq!(wrapped.len(), reference.len(), "{at}");
    }
}

/// A reliable link that adds no latency, so capabilities compare equal.
fn link(source: Arc<dyn DataSource>) -> NetworkedDataSource {
    NetworkedDataSource::reliable(source, NetworkLink::new("wire", NetworkConfig::untimed()))
}

fn show<T: Debug>(result: Result<T>) -> String {
    match result {
        Ok(value) => format!("{value:?}"),
        Err(e) => format!("error {}: {}", e.kind(), e.message()),
    }
}

/// A rowset drained, as rows in the order it delivered them.
fn rows(opened: Result<Box<dyn Rowset>>) -> Result<Vec<Row>> {
    opened?.collect_rows()
}

/// Rows' values as a multiset.
fn values(rows: &[Row]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| format!("{:?}", r.values)).collect();
    out.sort();
    out
}

/// Every verb on a fresh session, and what came back.
fn transcript(source: &dyn DataSource, subject: &Subject) -> Vec<String> {
    let table = subject.table;
    let mut out = vec![
        format!("name {}", source.name()),
        format!("capabilities {:?}", source.capabilities()),
        format!("tables {}", show(source.tables())),
        format!("table {}", show(source.table(table))),
        format!("missing table {}", show(source.table(MISSING))),
    ];
    let info = source.table(table).ok();
    let mut s = source.create_session().unwrap();
    let read = rows(s.open_rowset(table));
    out.push(format!(
        "open_rowset {}",
        show(read.as_ref().map_err(Clone::clone))
    ));
    out.push(format!(
        "open_rowset missing {}",
        show(rows(s.open_rowset(MISSING)))
    ));
    for index in info.iter().flat_map(|t| &t.indexes) {
        let all = rows(s.open_index(table, &index.name, &KeyRange::all()));
        out.push(format!("open_index {} {}", index.name, show(all)));
    }
    let no_index = rows(s.open_index(table, MISSING, &KeyRange::all()));
    out.push(format!("open_index missing {}", show(no_index)));
    let marks: Vec<u64> = read
        .iter()
        .flatten()
        .filter_map(|r| r.bookmark)
        .take(2)
        .collect();
    let fetched = s.fetch_by_bookmarks(table, &marks);
    out.push(format!("fetch_by_bookmarks {marks:?} {}", show(fetched)));
    let stamp = info.as_ref().map_or(0, TableInfo::schema_stamp);
    out.push(format!(
        "check_schema {}",
        show(s.check_schema(table, stamp))
    ));
    out.push(format!(
        "check_schema drift {}",
        show(s.check_schema(table, stamp ^ 1))
    ));
    out.push(format!(
        "check_schema missing {}",
        show(s.check_schema(MISSING, stamp))
    ));
    let column = info.as_ref().map_or("k", |t| t.columns[0].name.as_str());
    out.push(format!("histogram {}", show(s.histogram(table, column))));
    out.push(format!(
        "histogram missing {}",
        show(s.histogram(table, MISSING))
    ));
    match s.create_command() {
        Ok(mut command) => {
            let text = subject
                .command
                .expect("a command-capable subject speaks a language");
            out.push(format!("set_text {}", show(command.set_text(text))));
            out.push(format!(
                "bind_parameter {}",
                show(command.bind_parameter(0, Value::Int(1)))
            ));
            let answer = command
                .execute()
                .and_then(|r| r.into_rowset()?.collect_rows());
            out.push(format!("execute {}", show(answer)));
        }
        Err(e) => out.push(format!("create_command {}", show::<()>(Err(e)))),
    }
    let row = |k: i64| [Row::new(vec![Value::Int(k), Value::Int(1), Value::Int(2)])];
    out.push(format!("join_transaction {}", show(s.join_transaction(7))));
    out.push(format!("insert {}", show(s.insert(table, &row(100)))));
    out.push(format!(
        "vote_with_next_write {}",
        show(s.vote_with_next_write(7))
    ));
    out.push(format!("insert voted {}", show(s.insert(table, &row(101)))));
    out.push(format!("prepare {}", show(s.prepare(7))));
    out.push(format!("commit {}", show(s.commit(7))));
    out.push(format!("abort unknown {}", show(s.abort(8))));
    out.push(format!("prepare unknown {}", show(s.prepare(8))));
    out.push(format!(
        "commit_with_next_write unknown {}",
        show(s.commit_with_next_write(8))
    ));
    let marks = [marks.first().copied().unwrap_or(0)];
    out.push(format!(
        "update {}",
        show(s.update_by_bookmarks(table, &marks, &row(102)))
    ));
    out.push(format!(
        "delete {}",
        show(s.delete_by_bookmarks(table, &marks))
    ));
    let after = rows(s.open_rowset(table)).map(|rows| values(&rows));
    out.push(format!("open_rowset after writes {}", show(after)));
    out
}

/// Claimed index support: each listed index, under a few ranges, delivers
/// what a scan filtered by the range delivers, in key order, with
/// bookmarks.
fn index_support_is_honest(source: &dyn DataSource, table: &str, at: &str) {
    if !source.capabilities().index_support {
        return;
    }
    let info = source.table(table).unwrap();
    assert!(!info.indexes.is_empty(), "{at}: claims indexes, lists none");
    let mut s = source.create_session().unwrap();
    let scan = rows(s.open_rowset(table)).unwrap();
    for index in &info.indexes {
        let key_of = |row: &Row| -> Vec<Value> {
            let key = index.key_columns.iter();
            key.map(|c| row.get(info.column_index(c).unwrap()).clone())
                .collect()
        };
        let key = key_of(&scan[scan.len() / 2]);
        let ranges = [
            KeyRange::all(),
            KeyRange::eq(key.clone()),
            KeyRange {
                low: Some((key.clone(), false)),
                high: None,
            },
            KeyRange {
                low: None,
                high: Some((key, true)),
            },
        ];
        for range in ranges {
            let opened = rows(s.open_index(table, &index.name, &range)).unwrap();
            let filtered: Vec<Row> = scan
                .iter()
                .filter(|r| range.contains(&key_of(r)))
                .cloned()
                .collect();
            let what = format!("{at}: {} over {range:?}", index.name);
            assert_eq!(values(&opened), values(&filtered), "{what}");
            let keys: Vec<Vec<Value>> = opened.iter().map(key_of).collect();
            let ordered = |a: &[Value], b: &[Value]| {
                let order = a.iter().zip(b).map(|(x, y)| x.total_cmp(y));
                order.fold(Ordering::Equal, Ordering::then) != Ordering::Greater
            };
            assert!(
                keys.windows(2).all(|w| ordered(&w[0], &w[1])),
                "{what}: key order"
            );
            assert!(opened.iter().all(|r| r.bookmark.is_some()), "{what}");
        }
    }
}

/// Claimed SQL: linked to an engine, the provider answers every statement
/// as a local copy of `t` does, and a statement within its level is pushed
/// whole, so the answer came from running the decoder's text.
fn sql_level_is_honest(source: &Arc<dyn DataSource>, at: &str) {
    let caps = source.capabilities();
    if caps.sql_support == SqlSupport::None || caps.proprietary_command {
        return;
    }
    // (statement, the level that takes its filter or aggregate, what the
    // pushed text then holds)
    let statements = [
        (
            "SELECT k, v FROM {t} WHERE v < 10",
            SqlSupport::Minimum,
            "WHERE",
        ),
        (
            "SELECT k FROM {t} WHERE v >= 10 AND v < 20",
            SqlSupport::Minimum,
            "AND",
        ),
        (
            "SELECT k FROM {t} WHERE v < 5 OR v > 45",
            SqlSupport::OdbcCore,
            " OR ",
        ),
        (
            "SELECT k FROM {t} WHERE grp IN (1, 3) AND v < 20",
            SqlSupport::OdbcCore,
            " IN ",
        ),
        (
            "SELECT grp, COUNT(*) AS n FROM {t} GROUP BY grp",
            SqlSupport::Sql92,
            "GROUP BY",
        ),
        (
            "SELECT k FROM {t} WHERE v + k > 60",
            SqlSupport::Sql92,
            " + ",
        ),
    ];
    let head = Engine::new("head");
    head.add_linked_server("srv", Arc::clone(source)).unwrap();
    let oracle = engine_with_t("oracle");
    for (sql, level, pushed) in statements {
        let remote = sql.replace("{t}", "srv.db.dbo.t");
        let linked = head
            .query(&remote)
            .unwrap_or_else(|e| panic!("{at}: {remote}: {e}"));
        let local = oracle.query(&sql.replace("{t}", "t")).unwrap();
        assert_eq!(values(&linked.rows), values(&local.rows), "{at}: {sql}");
        if caps.sql_support >= level {
            let plan = head.explain(&remote).unwrap().plan_text;
            let shipped = plan.lines().find(|l| l.contains("RemoteQuery"));
            assert!(
                shipped.is_some_and(|l| l.contains(pushed)),
                "{at}: {sql} is within {level:?} but not pushed:\n{plan}"
            );
        }
    }
}

/// `check_schema` with the stamp of a snapshot refuses exactly when the
/// view check against that snapshot fails; a missing table keeps its own
/// error. A provider that does not check stamps says so for every one.
fn check_schema_agrees_with_validate_member(source: &dyn DataSource, table: &str, at: &str) {
    let current = source.table(table).unwrap();
    let mut snapshots = vec![current.clone()];
    let mut changed = |change: &dyn Fn(&mut TableInfo)| {
        let mut snapshot = current.clone();
        change(&mut snapshot);
        snapshots.push(snapshot);
    };
    changed(&|t| {
        t.columns
            .iter_mut()
            .for_each(|c| c.name = c.name.to_uppercase())
    });
    changed(&|t| t.columns.last_mut().unwrap().name.push('x'));
    changed(&|t| {
        let last = t.columns.last_mut().unwrap();
        last.data_type = match last.data_type {
            DataType::Int => DataType::Str,
            _ => DataType::Int,
        };
    });
    changed(&|t| t.columns.push(t.columns[0].clone()));
    if current.columns.len() > 1 {
        changed(&|t| drop(t.columns.pop()));
    }
    let mut s = source.create_session().unwrap();
    let mut answered = Vec::new();
    for snapshot in &snapshots {
        let member = MemberTable {
            server: None,
            table: table.into(),
            check: IntervalSet::full(),
            schema_snapshot: snapshot.clone(),
        };
        let view = PartitionedView::define("v", &current.columns[0].name, vec![member]).unwrap();
        let validated = view.validate_member(0, &current);
        match s.check_schema(table, snapshot.schema_stamp()) {
            Err(DhqpError::Unsupported(_)) => answered.push(false),
            Ok(()) => {
                assert!(validated.is_ok(), "{at}: {snapshot:?} accepted");
                answered.push(true);
            }
            Err(e) => {
                assert!(validated.is_err(), "{at}: {snapshot:?} refused: {e}");
                assert_eq!(e.kind(), "schema-drift", "{at}: {e}");
                answered.push(true);
            }
        }
    }
    assert!(
        answered.iter().all(|&a| a == answered[0]),
        "{at}: {answered:?}"
    );
    if answered[0] {
        let missing = s.check_schema(MISSING, current.schema_stamp()).unwrap_err();
        assert_ne!(missing.kind(), "schema-drift", "{at}: {missing}");
    }
}

/// A vote asked to ride a write goes with that write: a write that fails
/// carries no vote, so the transaction stays open and aborts clean; a write
/// that succeeds is the yes vote, after which no write is taken, and the
/// commit applies exactly it.
fn a_ridden_vote_stands_or_falls_with_its_write(source: &dyn DataSource, table: &str, at: &str) {
    let caps = source.capabilities();
    if !caps.transaction_support {
        return;
    }
    let count = || {
        let mut s = source.create_session().unwrap();
        rows(s.open_rowset(table)).unwrap().len()
    };
    let row = |k: i64| [Row::new(vec![Value::Int(k), Value::Int(1), Value::Int(2)])];
    let before = count();

    let mut s = source.create_session().unwrap();
    s.join_transaction(21).unwrap();
    assert_eq!(s.insert(table, &row(200)).unwrap(), 1, "{at}");
    if let Err(e) = s.vote_with_next_write(21) {
        assert!(matches!(e, DhqpError::Unsupported(_)), "{at}: {e}");
        s.abort(21).unwrap();
        return;
    }
    assert!(s.insert(MISSING, &row(201)).is_err(), "{at}");
    let after_failed = s.insert(table, &row(202));
    let taken = matches!(after_failed, Ok(1));
    assert!(
        taken,
        "{at}: the vote went with the failed write: {after_failed:?}"
    );
    s.abort(21).unwrap();
    assert_eq!(count(), before, "{at}");

    let mut s = source.create_session().unwrap();
    s.join_transaction(22).unwrap();
    s.vote_with_next_write(22).unwrap();
    assert_eq!(s.insert(table, &row(203)).unwrap(), 1, "{at}");
    let after_vote = s.insert(table, &row(204));
    assert!(after_vote.is_err(), "{at}: a write after the vote");
    s.commit(22).unwrap();
    assert_eq!(count(), before + 1, "{at}");
}

/// A commit asked to ride a write goes with that write, all or nothing: a
/// write that fails rolls the transaction back, what was buffered before it
/// included; one that succeeds commits it, with no message after it.
fn a_ridden_commit_stands_or_falls_with_its_write(source: &dyn DataSource, table: &str, at: &str) {
    if !source.capabilities().transaction_support {
        return;
    }
    let count = || {
        let mut s = source.create_session().unwrap();
        rows(s.open_rowset(table)).unwrap().len()
    };
    let row = |k: i64| [Row::new(vec![Value::Int(k), Value::Int(1), Value::Int(2)])];
    let before = count();

    let mut s = source.create_session().unwrap();
    s.join_transaction(31).unwrap();
    assert_eq!(s.insert(table, &row(300)).unwrap(), 1, "{at}");
    if let Err(e) = s.commit_with_next_write(31) {
        assert!(matches!(e, DhqpError::Unsupported(_)), "{at}: {e}");
        s.abort(31).unwrap();
        return;
    }
    assert!(s.insert(MISSING, &row(301)).is_err(), "{at}");
    drop(s);
    assert_eq!(count(), before, "{at}: rolled back with the failed write");

    let mut s = source.create_session().unwrap();
    s.join_transaction(32).unwrap();
    assert_eq!(s.insert(table, &row(302)).unwrap(), 1, "{at}");
    s.commit_with_next_write(32).unwrap();
    assert_eq!(s.insert(table, &row(303)).unwrap(), 1, "{at}");
    drop(s);
    assert_eq!(count(), before + 2, "{at}: committed with the write");
}

/// Every table `tables()` lists opens through `open_rowset` with exactly
/// the listed columns — names, types and nullability — and every value it
/// delivers is NULL only in a nullable column and otherwise of the column's
/// type.
fn metadata_is_honest(source: &dyn DataSource, at: &str) {
    let mut s = source.create_session().unwrap();
    for info in source.tables().unwrap() {
        let what = format!("{at}: {}", info.name);
        let opened = s.open_rowset(&info.name);
        let mut rowset = opened.unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(rowset.schema(), &info.schema(), "{what}");
        for row in rowset.collect_rows().unwrap() {
            assert_eq!(row.values.len(), info.columns.len(), "{what}: {row:?}");
            for (value, column) in row.values.iter().zip(&info.columns) {
                match value.data_type() {
                    None => assert!(column.nullable, "{what}: NULL in {}", column.name),
                    Some(ty) => assert_eq!(ty, column.data_type, "{what}: {value:?} in {column:?}"),
                }
            }
        }
    }
}
