//! End-to-end integration tests: the engine over local tables.

use dhqp::Engine;
use dhqp_storage::TableDef;
use dhqp_types::{Column, DataType, Row, Schema, Value};

fn engine_with_emp() -> Engine {
    let engine = Engine::new("local");
    engine
        .create_table(
            TableDef::new(
                "emp",
                Schema::new(vec![
                    Column::not_null("id", DataType::Int),
                    Column::new("name", DataType::Str),
                    Column::new("dept", DataType::Str),
                    Column::new("salary", DataType::Int),
                ]),
            )
            .with_index("pk_emp", &["id"], true),
        )
        .unwrap();
    let people = [
        (1, "alice", "eng", 120),
        (2, "bob", "eng", 100),
        (3, "carol", "hr", 90),
        (4, "dave", "hr", 80),
        (5, "erin", "sales", 110),
    ];
    let rows: Vec<Row> = people
        .iter()
        .map(|(id, name, dept, sal)| {
            Row::new(vec![
                Value::Int(*id),
                Value::Str(name.to_string()),
                Value::Str(dept.to_string()),
                Value::Int(*sal),
            ])
        })
        .collect();
    engine.insert("emp", &rows).unwrap();
    engine.analyze("emp", 8).unwrap();
    engine
}

#[test]
fn select_star() {
    let e = engine_with_emp();
    let r = e.query("SELECT * FROM emp").unwrap();
    assert_eq!(r.len(), 5);
    assert_eq!(r.schema.len(), 4);
    assert_eq!(r.column("salary"), Some(3));
}

#[test]
fn filter_and_projection() {
    let e = engine_with_emp();
    let r = e
        .query("SELECT name, salary FROM emp WHERE dept = 'eng' AND salary > 100")
        .unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r.value(0, 0), &Value::Str("alice".into()));
}

#[test]
fn order_by_and_top() {
    let e = engine_with_emp();
    let r = e
        .query("SELECT TOP 2 name FROM emp ORDER BY salary DESC")
        .unwrap();
    assert_eq!(r.len(), 2);
    assert_eq!(r.value(0, 0), &Value::Str("alice".into()));
    assert_eq!(r.value(1, 0), &Value::Str("erin".into()));
}

#[test]
fn group_by_having() {
    let e = engine_with_emp();
    let r = e
        .query(
            "SELECT dept, COUNT(*) AS n, SUM(salary) AS total FROM emp \
             GROUP BY dept HAVING COUNT(*) >= 2 ORDER BY dept",
        )
        .unwrap();
    assert_eq!(r.len(), 2);
    assert_eq!(r.value(0, 0), &Value::Str("eng".into()));
    assert_eq!(r.value(0, 1), &Value::Int(2));
    assert_eq!(r.value(0, 2), &Value::Int(220));
}

#[test]
fn distinct() {
    let e = engine_with_emp();
    let r = e
        .query("SELECT DISTINCT dept FROM emp ORDER BY dept")
        .unwrap();
    assert_eq!(r.len(), 3);
}

#[test]
fn self_join() {
    let e = engine_with_emp();
    let r = e
        .query(
            "SELECT a.name, b.name FROM emp a, emp b \
             WHERE a.dept = b.dept AND a.id < b.id ORDER BY a.id",
        )
        .unwrap();
    assert_eq!(r.len(), 2); // (alice,bob), (carol,dave)
}

#[test]
fn exists_subquery() {
    let e = engine_with_emp();
    // Departments that have someone earning over 100.
    let r = e
        .query(
            "SELECT DISTINCT dept FROM emp e WHERE EXISTS \
             (SELECT * FROM emp x WHERE x.dept = e.dept AND x.salary > 100) ORDER BY dept",
        )
        .unwrap();
    assert_eq!(r.len(), 2); // eng, sales
}

#[test]
fn not_exists_subquery() {
    let e = engine_with_emp();
    let r = e
        .query(
            "SELECT name FROM emp e WHERE NOT EXISTS \
             (SELECT * FROM emp x WHERE x.dept = e.dept AND x.salary > e.salary)",
        )
        .unwrap();
    // Top earner in each department.
    assert_eq!(r.len(), 3);
}

#[test]
fn in_subquery_and_scalar_subquery() {
    let e = engine_with_emp();
    let r = e
        .query("SELECT name FROM emp WHERE dept IN (SELECT dept FROM emp WHERE salary >= 110)")
        .unwrap();
    assert_eq!(r.len(), 3); // eng x2 + sales
    let r = e
        .query("SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)")
        .unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r.value(0, 0), &Value::Str("alice".into()));
}

#[test]
fn parameters_and_startup_semantics() {
    let e = engine_with_emp();
    let mut params = std::collections::HashMap::new();
    params.insert("d".to_string(), Value::Str("hr".into()));
    let r = e
        .query_with_params("SELECT COUNT(*) AS n FROM emp WHERE dept = @d", params)
        .unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(2)));
}

#[test]
fn dml_insert_update_delete() {
    let e = engine_with_emp();
    let r = e
        .execute("INSERT INTO emp (id, name, dept, salary) VALUES (6, 'frank', 'eng', 95)")
        .unwrap();
    assert_eq!(r.rows_affected, Some(1));
    let r = e
        .execute("UPDATE emp SET salary = salary + 10 WHERE dept = 'eng'")
        .unwrap();
    assert_eq!(r.rows_affected, Some(3));
    let check = e.query("SELECT salary FROM emp WHERE id = 6").unwrap();
    assert_eq!(check.value(0, 0), &Value::Int(105));
    let r = e.execute("DELETE FROM emp WHERE salary < 100").unwrap();
    assert_eq!(r.rows_affected, Some(2)); // dave 80, carol 90
    assert_eq!(
        e.query("SELECT COUNT(*) AS n FROM emp").unwrap().scalar(),
        Some(&Value::Int(4))
    );
}

#[test]
fn unique_index_enforced_via_sql() {
    let e = engine_with_emp();
    let err = e
        .execute("INSERT INTO emp (id, name) VALUES (1, 'dup')")
        .unwrap_err();
    assert_eq!(err.kind(), "constraint");
}

#[test]
fn explain_renders_plan() {
    let e = engine_with_emp();
    let plan = e.explain("SELECT name FROM emp WHERE id = 3").unwrap();
    let text = plan.render();
    assert!(text.contains("emp"), "{text}");
    assert!(plan.est_cost > 0.0);
}

#[test]
fn select_without_from() {
    let e = Engine::new("bare");
    let r = e.query("SELECT 1 + 2 AS three, 'x' AS s").unwrap();
    assert_eq!(r.value(0, 0), &Value::Int(3));
    assert_eq!(r.value(0, 1), &Value::Str("x".into()));
}

/// `-0.0` and `0.0` are one value to SQL, and so to everything that orders
/// or hashes values: an index seek, a range, a parameter, a hash join and a
/// grouping see both zeros where a scan does.
#[test]
fn float_zeros_are_one_value_everywhere() {
    let e = Engine::new("zeros");
    let schema = || {
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("f", DataType::Float),
        ])
    };
    let indexed = TableDef::new("indexed", schema()).with_index("ix_f", &["f"], false);
    for def in [indexed, TableDef::new("plain", schema())] {
        e.create_table(def).unwrap();
    }
    let row = |id: i64, f: f64| Row::new(vec![Value::Int(id), Value::Float(f)]);
    let mut rows: Vec<Row> = (0..40).map(|i| row(i, 10.0 + i as f64)).collect();
    rows.extend([row(100, -0.0), row(101, 0.0)]);
    for table in ["indexed", "plain"] {
        e.insert(table, &rows).unwrap();
        e.analyze(table, 8).unwrap();
    }
    let count = |sql: &str, z: f64| {
        let params = [("z".to_string(), Value::Float(z))].into_iter().collect();
        e.query_with_params(sql, params).unwrap().scalar().cloned()
    };
    for table in ["indexed", "plain"] {
        for (predicate, z) in [
            ("f = 0.0", 0.0),
            ("f >= 0.0 AND f < 1.5", 0.0),
            ("f = @z", 0.0),
        ] {
            let sql = format!("SELECT COUNT(*) AS n FROM {table} WHERE {predicate}");
            assert_eq!(count(&sql, z), Some(Value::Int(2)), "{sql}");
        }
    }
    let zero = |table: &str, f: f64| {
        let def = TableDef::new(table, schema());
        e.create_table(def).unwrap();
        e.insert(table, &[row(1, f)]).unwrap();
    };
    zero("neg", -0.0);
    zero("pos", 0.0);
    let sql = "SELECT COUNT(*) AS n FROM neg JOIN pos ON neg.f = pos.f";
    assert_eq!(count(sql, 0.0), Some(Value::Int(1)), "{sql}");
    let groups = e
        .query("SELECT f, COUNT(*) AS n FROM plain WHERE f < 1.0 GROUP BY f")
        .unwrap();
    assert_eq!(groups.len(), 1, "one zero group");
    assert_eq!(groups.value(0, 1), &Value::Int(2));
}

#[test]
fn errors_surface_cleanly() {
    let e = engine_with_emp();
    assert_eq!(e.query("SELECT nope FROM emp").unwrap_err().kind(), "bind");
    assert_eq!(
        e.query("SELECT * FROM ghost").unwrap_err().kind(),
        "catalog"
    );
    assert_eq!(e.query("SELEKT").unwrap_err().kind(), "parse");
    // Missing parameter value.
    let err = e
        .query("SELECT * FROM emp WHERE id = @missing")
        .unwrap_err();
    assert_eq!(err.kind(), "execute");
}
