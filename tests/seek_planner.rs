//! One seek planner (DESIGN.md §18): a predicate's key intervals decide
//! what an index read covers, for a SELECT's access operator and a DML
//! statement's row location alike (`ops::scan::key_ranges`).
//!
//! The fixture is a local `t(id, v)` with a unique index on `id` and
//! 10 000 rows: `id` runs 0..=9 999, `v = id * 10`.

use dhqp::{Engine, EngineBuilder, MetricsSnapshot};
use dhqp_storage::TableDef;
use dhqp_types::{Column, DataType, Row, Schema, Value};
use std::collections::HashMap;

fn fixture() -> Engine {
    // Exact counts are asserted: the shipped defaults, whatever `DHQP_*`
    // leg the suite runs in.
    let engine = EngineBuilder::from_lookup("seek", |_| None).build();
    let schema = Schema::new(vec![
        Column::not_null("id", DataType::Int),
        Column::not_null("v", DataType::Int),
    ]);
    let def = TableDef::new("t", schema).with_index("pk_t", &["id"], true);
    engine.create_table(def).unwrap();
    let rows: Vec<Row> = (0..10_000)
        .map(|id| Row::new(vec![Value::Int(id), Value::Int(id * 10)]))
        .collect();
    engine.insert("t", &rows).unwrap();
    engine
}

fn params(values: &[(&str, Value)]) -> HashMap<String, Value> {
    values
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

/// What one SELECT of `v` did.
#[derive(Debug)]
struct Read {
    /// The ids of the rows it returned, sorted.
    ids: Vec<i64>,
    /// The label of its table access operator, and the rows that read.
    access: String,
    read: u64,
    cache_hit: Option<bool>,
}

fn select(engine: &Engine, sql: &str, values: &[(&str, Value)]) -> Read {
    let report = engine.execute_analyze_with_params(sql, params(values));
    let report = report.unwrap_or_else(|e| panic!("{sql}: {e}"));
    let mut ids: Vec<i64> = report
        .result
        .rows
        .iter()
        .map(|r| match r.get(0) {
            Value::Int(v) => *v / 10,
            other => panic!("{sql}: {other:?}"),
        })
        .collect();
    ids.sort();
    let record = &report.record;
    let access = record
        .operators
        .iter()
        .find(|op| op.label.starts_with("IndexRange") || op.label.starts_with("TableScan"));
    Read {
        ids,
        access: access.map_or_else(|| "none".into(), |op| op.label.clone()),
        read: access.map_or(0, |op| op.rows()),
        cache_hit: record.cache_hit,
    }
}

/// What the DML counters moved by: `(seeks, scans, rows located)`.
fn dml_reads(before: &MetricsSnapshot, after: &MetricsSnapshot) -> (u64, u64, u64) {
    (
        after.dml_seeks - before.dml_seeks,
        after.dml_scans - before.dml_scans,
        after.dml_rows_located - before.dml_rows_located,
    )
}

/// `DELETE FROM t WHERE <predicate>`: rows deleted, and how they were
/// located.
fn delete(engine: &Engine, predicate: &str, values: &[(&str, Value)]) -> (u64, (u64, u64, u64)) {
    let before = engine.metrics();
    let sql = format!("DELETE FROM t WHERE {predicate}");
    let result = engine.execute_with_params(&sql, params(values));
    let deleted = result
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .rows_affected;
    let deleted = deleted.expect("a DELETE reports the rows it affected");
    (deleted, dml_reads(&before, &engine.metrics()))
}

/// The bounds on the key are met whatever order they come in, and a DELETE
/// reads an `IN`-list or an `OR` on the key one range per value.
#[test]
fn bounds_meet_in_any_order_and_a_delete_seeks_each_value() {
    let engine = fixture();
    for sql in [
        "SELECT v FROM t WHERE id > 5 AND id > 9990",
        "SELECT v FROM t WHERE id > 9990 AND id > 5",
    ] {
        let read = select(&engine, sql, &[]);
        assert_eq!(read.ids, (9991..10_000).collect::<Vec<_>>(), "{sql}");
        assert_eq!(
            (read.read, &read.access[..]),
            (9, "IndexRange(t.pk_t)"),
            "{sql}"
        );
    }
    // A bound is any expression of no column of `t`: cached, `-1` is
    // `0 - @__lit0`.
    let read = select(&engine, "SELECT v FROM t WHERE id > -1 AND id < 3", &[]);
    assert_eq!((read.ids, read.read), (vec![0, 1, 2], 3));
    assert_eq!(delete(&engine, "id = -1 + 31", &[]), (1, (1, 0, 1)));
    // One seek, two ranges: the 2 rows, not the 51 of the hull [10, 60].
    assert_eq!(delete(&engine, "id IN (10, 60)", &[]), (2, (1, 0, 2)));
    assert_eq!(delete(&engine, "id = 20 OR id = 70", &[]), (2, (1, 0, 2)));
}

/// A value named twice, or NULL, in a seek list: each row is located once,
/// and a NULL seeks nothing — also when a cached plan runs again with NULL.
#[test]
fn duplicates_and_nulls_in_a_seek_list() {
    let engine = fixture();
    let either = "id = @a OR id = @b";
    let same = [("a", Value::Int(20)), ("b", Value::Int(20))];
    let null_a = [("a", Value::Null), ("b", Value::Int(60))];
    let read = select(&engine, &format!("SELECT v FROM t WHERE {either}"), &same);
    assert_eq!(read.ids, [20]);
    let read = select(&engine, &format!("SELECT v FROM t WHERE {either}"), &null_a);
    assert_eq!(read.ids, [60]);
    assert_eq!(delete(&engine, "id IN (10, 10)", &[]), (1, (1, 0, 1)));
    assert_eq!(delete(&engine, either, &same), (1, (1, 0, 1)));
    assert_eq!(delete(&engine, either, &null_a), (1, (1, 0, 1)));
    for predicate in ["id IN (NULL)", "id = NULL"] {
        let read = select(&engine, &format!("SELECT v FROM t WHERE {predicate}"), &[]);
        assert_eq!((read.ids.len(), read.read), (0, 0), "{predicate}: {read:?}");
        assert_eq!(
            delete(&engine, predicate, &[]),
            (0, (0, 0, 0)),
            "{predicate}"
        );
    }

    let one = "SELECT v FROM t WHERE id = @a";
    let read = select(&engine, one, &[("a", Value::Int(30))]);
    assert_eq!((read.ids, read.read), (vec![30], 1));
    let read = select(&engine, one, &[("a", Value::Null)]);
    assert_eq!(read.cache_hit, Some(true), "the plan compiled above");
    assert_eq!((read.ids.len(), read.read), (0, 0));
    assert_eq!(read.access, "IndexRange(t.pk_t)");
}

/// One rule for a bound whose type is not the key's, the same through a
/// SELECT and a DELETE: the bound seeks at its own value, uncast, where SQL
/// compares it. A NaN, like a NULL, equals nothing and reads nothing. A
/// number of magnitude 2^53 or more bounds no domain (SQL calls it equal
/// to several integers), so it reads the whole index or table.
#[test]
fn a_bound_of_another_type_seeks_as_sql_compares_it() {
    const BIG: i64 = (1 << 53) + 1;
    // (predicate, @p, ids returned, rows read)
    let cases: [(&str, Option<Value>, &[i64], u64); 6] = [
        ("id = 17.0", None, &[17], 1),
        ("id > 9995.5", None, &[9996, 9997, 9998, 9999], 4),
        ("id = @p", Some(Value::Float(f64::NAN)), &[], 0),
        ("id > @p", Some(Value::Float(f64::NAN)), &[], 0),
        ("id = @p", Some(Value::Float(-0.0)), &[0], 1),
        ("id = @p", Some(Value::Int(BIG)), &[], 10_000),
    ];
    for (predicate, p, ids, read) in cases {
        let values: Vec<(&str, Value)> = p.into_iter().map(|v| ("p", v)).collect();
        let engine = fixture();
        let got = select(
            &engine,
            &format!("SELECT v FROM t WHERE {predicate}"),
            &values,
        );
        assert_eq!(
            (&got.ids[..], got.read),
            (ids, read),
            "{predicate} {values:?}"
        );
        assert_eq!(got.access, "IndexRange(t.pk_t)", "{predicate} {values:?}");
        let located = match read {
            0 => (0, 0, 0),
            10_000 => (0, 1, read),
            _ => (1, 0, read),
        };
        let want = (ids.len() as u64, located);
        assert_eq!(
            delete(&engine, predicate, &values),
            want,
            "{predicate} {values:?}"
        );
    }
}

/// A DELETE or a SELECT whose predicate's domain is empty reads nothing
/// on a table with no index too: the resolver is asked at table level.
#[test]
fn an_empty_domain_locates_nothing_without_an_index() {
    let engine = EngineBuilder::from_lookup("seek", |_| None).build();
    let schema = Schema::new(vec![
        Column::not_null("id", DataType::Int),
        Column::not_null("v", DataType::Int),
    ]);
    engine.create_table(TableDef::new("n", schema)).unwrap();
    let rows: Vec<Row> = (0..1_000)
        .map(|id| Row::new(vec![Value::Int(id), Value::Int(id * 10)]))
        .collect();
    engine.insert("n", &rows).unwrap();
    // A SELECT, cold and served from the plan cache, whose template bounds
    // are `@__lit0` and `@__lit1`: no compile-time domain is empty.
    for (predicate, ids, read) in [
        ("id > 5 AND id < 3", vec![], 0),
        ("id > 997", vec![998, 999], 1_000),
    ] {
        let sql = format!("SELECT v FROM n WHERE {predicate}");
        for cache_hit in [false, true] {
            let got = select(&engine, &sql, &[]);
            let want = (Some(cache_hit), ids.clone(), "TableScan(n)", read);
            let seen = (got.cache_hit, got.ids, got.access.as_str(), got.read);
            assert_eq!(seen, want, "{predicate}");
        }
    }
    let delete = |predicate: &str| {
        let before = engine.metrics();
        let sql = format!("DELETE FROM n WHERE {predicate}");
        let deleted = engine.execute(&sql).unwrap().rows_affected.unwrap();
        (deleted, dml_reads(&before, &engine.metrics()))
    };
    for predicate in ["id > 5 AND id < 3", "id = NULL"] {
        assert_eq!(delete(predicate), (0, (0, 0, 0)), "{predicate}");
    }
    // A predicate it cannot rule out reads the table whole.
    assert_eq!(delete("id > 997"), (2, (0, 1, 1_000)));
}
