//! Broader SQL surface coverage: outer joins, coercions, DML corner cases
//! (including Halloween protection, §4.1.4), chained federations and error
//! paths.

use dhqp::{Engine, EngineDataSource};
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
use dhqp_storage::TableDef;
use dhqp_types::{value::parse_date, Column, DataType, Row, Schema, Value};
use std::collections::HashMap;
use std::sync::Arc;

fn engine_ab() -> Engine {
    let e = Engine::new("local");
    e.create_table(TableDef::new(
        "a",
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("tag", DataType::Str),
        ]),
    ))
    .unwrap();
    e.create_table(TableDef::new(
        "b",
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("score", DataType::Int),
        ]),
    ))
    .unwrap();
    e.insert(
        "a",
        &[
            Row::new(vec![Value::Int(1), Value::Str("x".into())]),
            Row::new(vec![Value::Int(2), Value::Str("y".into())]),
            Row::new(vec![Value::Int(3), Value::Null]),
        ],
    )
    .unwrap();
    e.insert(
        "b",
        &[
            Row::new(vec![Value::Int(2), Value::Int(20)]),
            Row::new(vec![Value::Int(3), Value::Int(30)]),
            Row::new(vec![Value::Int(4), Value::Int(40)]),
        ],
    )
    .unwrap();
    e
}

#[test]
fn left_and_right_outer_joins() {
    let e = engine_ab();
    let l = e
        .query("SELECT a.id, b.score FROM a LEFT OUTER JOIN b ON a.id = b.id ORDER BY a.id")
        .unwrap();
    assert_eq!(l.len(), 3);
    assert!(l.value(0, 1).is_null(), "a.id=1 has no match");
    assert_eq!(l.value(1, 1), &Value::Int(20));
    // RIGHT OUTER normalizes to LEFT with swapped sides.
    let r = e
        .query("SELECT a.id, b.score FROM a RIGHT OUTER JOIN b ON a.id = b.id ORDER BY b.score")
        .unwrap();
    assert_eq!(r.len(), 3);
    assert!(
        r.rows.iter().any(|row| row.get(0).is_null()),
        "b.id=4 keeps a NULL a side"
    );
}

#[test]
fn date_string_coercion_and_between() {
    let e = Engine::new("d");
    e.create_table(TableDef::new(
        "ev",
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::not_null("day", DataType::Date),
        ]),
    ))
    .unwrap();
    let d = |s: &str| Value::Date(parse_date(s).unwrap());
    e.insert(
        "ev",
        &[
            Row::new(vec![Value::Int(1), d("2004-01-15")]),
            Row::new(vec![Value::Int(2), d("2004-06-15")]),
            Row::new(vec![Value::Int(3), d("2004-12-15")]),
        ],
    )
    .unwrap();
    // Plain string literals coerce against DATE columns (T-SQL style).
    let r = e
        .query("SELECT id FROM ev WHERE day >= '2004-06-01'")
        .unwrap();
    assert_eq!(r.len(), 2);
    let r = e
        .query("SELECT id FROM ev WHERE day BETWEEN '2004-02-01' AND '2004-07-01'")
        .unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r.value(0, 0), &Value::Int(2));
}

#[test]
fn in_list_cast_and_arithmetic() {
    let e = engine_ab();
    let r = e
        .query("SELECT id FROM b WHERE id IN (2, 4, 9) ORDER BY id")
        .unwrap();
    assert_eq!(r.len(), 2);
    let r = e
        .query("SELECT CAST(score AS VARCHAR) AS s FROM b WHERE id = 2")
        .unwrap();
    assert_eq!(r.value(0, 0), &Value::Str("20".into()));
    let r = e
        .query("SELECT score * 2 + 1 AS x FROM b WHERE id = 3")
        .unwrap();
    assert_eq!(r.value(0, 0), &Value::Int(61));
    let r = e
        .query("SELECT score FROM b WHERE score % 3 = 0 ORDER BY score")
        .unwrap();
    assert_eq!(r.len(), 1); // 30
}

#[test]
fn halloween_protection_each_row_updated_once() {
    // §4.1.4 mentions spools for Halloween protection; here the DML path
    // materializes its target set before writing, so an update whose SET
    // re-qualifies rows for its own WHERE clause still touches each row
    // exactly once.
    let e = Engine::new("h");
    e.create_table(TableDef::new(
        "pay",
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::not_null("salary", DataType::Int),
        ]),
    ))
    .unwrap();
    let rows: Vec<Row> = (0..20)
        .map(|i| Row::new(vec![Value::Int(i), Value::Int(50 + i)]))
        .collect();
    e.insert("pay", &rows).unwrap();
    let n = e
        .execute("UPDATE pay SET salary = salary + 100 WHERE salary < 1000")
        .unwrap();
    assert_eq!(n.rows_affected, Some(20));
    // Every salary rose by exactly 100 — no row was revisited.
    let r = e
        .query("SELECT MIN(salary) AS lo, MAX(salary) AS hi FROM pay")
        .unwrap();
    assert_eq!(r.value(0, 0), &Value::Int(150));
    assert_eq!(r.value(0, 1), &Value::Int(169));
}

#[test]
fn insert_from_select_and_params() {
    let e = engine_ab();
    e.create_table(TableDef::new(
        "b_archive",
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("score", DataType::Int),
        ]),
    ))
    .unwrap();
    let mut params = HashMap::new();
    params.insert("cut".to_string(), Value::Int(25));
    let n = e
        .execute_with_params(
            "INSERT INTO b_archive SELECT id, score FROM b WHERE score > @cut",
            params.clone(),
        )
        .unwrap();
    assert_eq!(n.rows_affected, Some(2));
    let n = e
        .execute_with_params("DELETE FROM b WHERE score > @cut", params)
        .unwrap();
    assert_eq!(n.rows_affected, Some(2));
    assert_eq!(
        e.query("SELECT COUNT(*) AS n FROM b").unwrap().scalar(),
        Some(&Value::Int(1))
    );
}

#[test]
fn chained_federation_via_openquery() {
    // local → mid → far: the pass-through text handed to `mid` itself uses
    // OPENQUERY against `far` — autonomous sources composing, as the
    // architecture's layering allows.
    let far = Engine::new("far-engine");
    far.create_table(TableDef::new(
        "secrets",
        Schema::new(vec![Column::not_null("v", DataType::Int)]),
    ))
    .unwrap();
    far.insert(
        "secrets",
        &[
            Row::new(vec![Value::Int(41)]),
            Row::new(vec![Value::Int(42)]),
        ],
    )
    .unwrap();

    let mid = Engine::new("mid-engine");
    mid.add_linked_server(
        "far",
        Arc::new(NetworkedDataSource::new(
            Arc::new(EngineDataSource::new(far)),
            NetworkLink::new("mid-far", NetworkConfig::lan()),
        )),
    )
    .unwrap();

    let local = Engine::new("local");
    local
        .add_linked_server(
            "mid",
            Arc::new(NetworkedDataSource::new(
                Arc::new(EngineDataSource::new(mid)),
                NetworkLink::new("local-mid", NetworkConfig::lan()),
            )),
        )
        .unwrap();

    let r = local
        .query(
            "SELECT q.v FROM OPENQUERY(mid, \
             'SELECT f.v FROM OPENQUERY(far, ''SELECT v FROM secrets'') f WHERE f.v > 41') q",
        )
        .unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r.value(0, 0), &Value::Int(42));

    // Four-part names also traverse one hop transparently.
    let r = local
        .query("SELECT COUNT(*) AS n FROM OPENQUERY(mid, 'SELECT v FROM far.db.dbo.secrets') q")
        .unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(2)));
}

/// Pass-through text is classified read or write by its first six bytes;
/// here byte six falls inside `É`. The member takes the text for a write,
/// runs it on the session and answers with its own error.
#[test]
fn openquery_text_split_mid_character_is_the_members_error() {
    let member = Engine::new("member-engine");
    let local = Engine::new("local");
    local
        .add_linked_server("m", Arc::new(EngineDataSource::new(member.clone())))
        .unwrap();
    let err = local
        .query("SELECT * FROM OPENQUERY(m, 'aÉÉÉ')")
        .unwrap_err();
    let own = member.query("aÉÉÉ").unwrap_err();
    assert_eq!(err.kind(), own.kind(), "{err}");
    assert!(err.to_string().contains(own.message()), "{err} vs {own}");
}

#[test]
fn qualified_wildcard_and_aliases() {
    let e = engine_ab();
    let r = e
        .query("SELECT b.* FROM a, b WHERE a.id = b.id ORDER BY b.id")
        .unwrap();
    assert_eq!(r.schema.len(), 2);
    assert_eq!(r.len(), 2);
    // Output alias usable in ORDER BY.
    let r = e
        .query("SELECT score * 10 AS big FROM b ORDER BY big DESC")
        .unwrap();
    assert_eq!(r.value(0, 0), &Value::Int(400));
}

#[test]
fn error_paths_across_features() {
    let e = engine_ab();
    // Ambiguous column.
    assert_eq!(e.query("SELECT id FROM a, b").unwrap_err().kind(), "bind");
    // CONTAINS without a full-text index.
    assert_eq!(
        e.query("SELECT id FROM a WHERE CONTAINS(tag, 'x')")
            .unwrap_err()
            .kind(),
        "bind"
    );
    // Unknown linked server in a four-part name.
    assert_eq!(
        e.query("SELECT * FROM ghost.db.dbo.t").unwrap_err().kind(),
        "catalog"
    );
    // Scalar subquery with more than one row.
    assert_eq!(
        e.query("SELECT id FROM a WHERE id = (SELECT id FROM b)")
            .unwrap_err()
            .kind(),
        "execute"
    );
    // GROUP BY violation.
    assert_eq!(
        e.query("SELECT tag, COUNT(*) AS n FROM a GROUP BY id")
            .unwrap_err()
            .kind(),
        "bind"
    );
    // Division by zero at runtime.
    assert_eq!(
        e.query("SELECT 1 / (id - id) AS boom FROM a")
            .unwrap_err()
            .kind(),
        "execute"
    );
}

#[test]
fn distinct_interacts_with_order_and_top() {
    let e = engine_ab();
    e.insert("b", &[Row::new(vec![Value::Int(9), Value::Int(20)])])
        .unwrap();
    let r = e
        .query("SELECT DISTINCT score FROM b ORDER BY score")
        .unwrap();
    assert_eq!(r.len(), 3); // 20, 30, 40
    let r = e
        .query("SELECT DISTINCT TOP 2 score FROM b ORDER BY score DESC")
        .unwrap();
    assert_eq!(r.len(), 2);
    assert_eq!(r.value(0, 0), &Value::Int(40));
}

#[test]
fn scalar_functions() {
    let e = engine_ab();
    let r = e
        .query("SELECT UPPER(tag) AS u, LEN(tag) AS l FROM a WHERE id = 1")
        .unwrap();
    assert_eq!(r.value(0, 0), &Value::Str("X".into()));
    assert_eq!(r.value(0, 1), &Value::Int(1));
    let r = e
        .query("SELECT ABS(0 - score) AS m FROM b WHERE id = 2")
        .unwrap();
    assert_eq!(r.value(0, 0), &Value::Int(20));
}

#[test]
fn union_all_and_union_distinct() {
    let e = engine_ab();
    let r = e
        .query("SELECT id FROM a UNION ALL SELECT id FROM b ORDER BY id")
        .unwrap();
    assert_eq!(r.len(), 6); // 1,2,3 + 2,3,4
    let r = e
        .query("SELECT id FROM a UNION SELECT id FROM b ORDER BY id")
        .unwrap();
    assert_eq!(r.len(), 4); // 1,2,3,4 deduplicated
    assert_eq!(r.value(0, 0), &Value::Int(1));
    assert_eq!(r.value(3, 0), &Value::Int(4));
    // TOP over a union.
    let r = e
        .query("SELECT TOP 2 id FROM a UNION SELECT id FROM b ORDER BY id DESC")
        .unwrap();
    assert_eq!(r.len(), 2);
    assert_eq!(r.value(0, 0), &Value::Int(4));
    // Arity mismatch errors.
    assert_eq!(
        e.query("SELECT id, tag FROM a UNION ALL SELECT id FROM b")
            .unwrap_err()
            .kind(),
        "bind"
    );
}

#[test]
fn union_spans_local_and_remote() {
    let remote = Engine::new("r-engine");
    remote
        .create_table(TableDef::new(
            "t",
            Schema::new(vec![Column::not_null("v", DataType::Int)]),
        ))
        .unwrap();
    remote
        .insert("t", &[Row::new(vec![Value::Int(100)])])
        .unwrap();
    let local = engine_ab();
    local
        .add_linked_server(
            "r",
            Arc::new(NetworkedDataSource::new(
                Arc::new(EngineDataSource::new(remote)),
                NetworkLink::new("u", NetworkConfig::lan()),
            )),
        )
        .unwrap();
    let r = local
        .query("SELECT id FROM a UNION ALL SELECT v FROM r.db.dbo.t ORDER BY id DESC")
        .unwrap();
    assert_eq!(r.len(), 4);
    assert_eq!(r.value(0, 0), &Value::Int(100));
}

#[test]
fn count_distinct_through_engine() {
    let e = engine_ab();
    e.insert("b", &[Row::new(vec![Value::Int(9), Value::Int(20)])])
        .unwrap();
    let r = e
        .query("SELECT COUNT(DISTINCT score) AS d, COUNT(score) AS c FROM b")
        .unwrap();
    assert_eq!(r.value(0, 0), &Value::Int(3)); // 20, 30, 40
    assert_eq!(r.value(0, 1), &Value::Int(4));
}

#[test]
fn having_without_group_by() {
    let e = engine_ab();
    let r = e
        .query("SELECT COUNT(*) AS n FROM b HAVING COUNT(*) > 2")
        .unwrap();
    assert_eq!(r.len(), 1);
    let r = e
        .query("SELECT COUNT(*) AS n FROM b HAVING COUNT(*) > 5")
        .unwrap();
    assert_eq!(r.len(), 0);
}
