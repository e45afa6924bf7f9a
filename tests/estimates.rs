//! Estimates as plans: what the density estimator (DESIGN.md §5) decides
//! on the wire for the Fig.-4 join family, cached and uncached.
//!
//! A cached statement is compiled as its auto-parameterised template
//! (`c_custkey = @__lit0`), an uncached one with the literal in hand. A
//! key-anchored statement must get the same plan either way — the
//! histogram that sees the literal and the density that does not agree on
//! a unique key — and the Figure-4 choice (join at the remote server, or
//! ship the tables) must still go both ways.

use dhqp::{Engine, EngineBuilder, EngineDataSource, PlanCacheConfig};
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
use dhqp_optimizer::{PhysNode, PhysicalOp};
use dhqp_workload::tpch::{self, TpchScale};
use std::sync::Arc;

/// `head` holds `nation` and `region`; `remote0` holds `customer` and
/// `supplier` behind one link — fedbench's layout for these four tables.
fn federation(plan_cache: bool) -> (Engine, NetworkLink) {
    use rand::SeedableRng;
    let scale = TpchScale::small();
    // Exact request counts are asserted: both engines run under the
    // shipped defaults whatever `DHQP_*` leg the suite is in, and the link
    // carries no chaos plan.
    let remote0 = EngineBuilder::from_lookup("remote0-engine", |_| None).build();
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    tpch::create_customer(remote0.storage(), &scale, &mut rng).unwrap();
    tpch::create_supplier(remote0.storage(), &scale, &mut rng).unwrap();
    remote0.storage().analyze("customer", 24).unwrap();
    remote0.storage().analyze("supplier", 24).unwrap();

    let head = EngineBuilder::from_lookup("head", |_| None)
        .plan_cache_config(PlanCacheConfig {
            enabled: plan_cache,
            ..Default::default()
        })
        .build();
    tpch::create_region(head.storage()).unwrap();
    tpch::create_nation(head.storage(), &scale).unwrap();
    head.analyze("nation", 8).unwrap();
    head.analyze("region", 8).unwrap();

    let link = NetworkLink::new("link-remote0", NetworkConfig::lan());
    head.add_linked_server(
        "remote0",
        Arc::new(NetworkedDataSource::reliable(
            Arc::new(EngineDataSource::new(remote0)),
            link.clone(),
        )),
    )
    .unwrap();
    (head, link)
}

const C: &str = "remote0.tpch.dbo.customer c";
const S: &str = "remote0.tpch.dbo.supplier s";
const NATION: &str = "JOIN nation n ON c.c_nationkey = n.n_nationkey";
const REGION: &str = "JOIN region r ON n.n_regionkey = r.r_regionkey";
const SUPPLIER: &str = "JOIN remote0.tpch.dbo.supplier s ON c.c_nationkey = s.s_nationkey";
const NATION2: &str = "JOIN nation n2 ON s.s_nationkey = n2.n_nationkey";
const S_NATION: &str = "JOIN nation n ON s.s_nationkey = n.n_nationkey";

/// One statement shape: FROM text, what is selected, the anchor predicate
/// with `{}` for its literal, and whether `customer` and `supplier` are
/// joined by a predicate of their own.
struct Shape {
    from: String,
    select: &'static str,
    anchor: &'static str,
    joins_c_to_s: bool,
}

/// The nine `JOIN … ON` shapes of fedbench's Fig.-4 family.
fn join_on_shapes() -> Vec<Shape> {
    let on_customer = |from: String, select, joins_c_to_s| Shape {
        from,
        select,
        anchor: "c.c_custkey = {}",
        joins_c_to_s,
    };
    let on_supplier = |from: String, select| Shape {
        from,
        select,
        anchor: "s.s_suppkey = {}",
        joins_c_to_s: false,
    };
    vec![
        on_customer(format!("{C} {NATION}"), "c.c_name, n.n_name", false),
        on_supplier(format!("{S} {S_NATION}"), "s.s_name, n.n_name"),
        on_customer(format!("{C} {SUPPLIER}"), "c.c_name, s.s_name", true),
        on_customer(
            format!("{C} {NATION} {REGION}"),
            "c.c_name, n.n_name, r.r_name",
            false,
        ),
        on_supplier(
            format!("{S} {S_NATION} {REGION}"),
            "s.s_name, n.n_name, r.r_name",
        ),
        on_customer(
            format!("{C} {SUPPLIER} {NATION}"),
            "c.c_name, s.s_name, n.n_name",
            true,
        ),
        on_customer(
            format!("{C} {SUPPLIER} {NATION} {REGION}"),
            "c.c_name, s.s_name, n.n_name, r.r_name",
            true,
        ),
        on_customer(
            format!("{C} {SUPPLIER} {NATION} {NATION2}"),
            "c.c_name, s.s_name, n.n_name, n2.n_regionkey",
            true,
        ),
        on_customer(
            format!("{C} {SUPPLIER} {NATION} {REGION} {NATION2}"),
            "c.c_name, s.s_name, r.r_name, n2.n_name",
            true,
        ),
    ]
}

impl Shape {
    fn sql(&self, key: i64) -> String {
        format!(
            "SELECT {} FROM {} WHERE {}",
            self.select,
            self.from,
            self.anchor.replace("{}", &key.to_string())
        )
    }
}

/// What one run of one statement did: its plan, its answer, and the link
/// requests it cost.
struct Run {
    plan: PhysNode,
    rows: Vec<String>,
    requests: u64,
    rendered: String,
}

fn run(engine: &Engine, link: &NetworkLink, sql: &str) -> Run {
    let before = link.snapshot().requests;
    let report = engine.execute_analyze(sql).unwrap();
    let requests = link.snapshot().requests - before;
    let mut rows: Vec<String> = report
        .result
        .rows
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    rows.sort();
    assert_no_inversion(&report.plan, sql);
    Run {
        rendered: report.render(),
        plan: report.plan,
        rows,
        requests,
    }
}

fn assert_no_inversion(plan: &PhysNode, sql: &str) {
    if let Some(node) = plan.estimate_inversion() {
        panic!(
            "{} is estimated at {} rows above its input's {}: {sql}\n{}",
            node.describe(),
            node.est_rows,
            node.children[0].est_rows,
            plan.display_indent()
        );
    }
}

fn remote_queries(plan: &PhysNode) -> Vec<String> {
    let mut out = Vec::new();
    fn walk(node: &PhysNode, out: &mut Vec<String>) {
        if let PhysicalOp::RemoteQuery { sql, .. } = &node.op {
            out.push(sql.clone());
        }
        for c in &node.children {
            walk(c, out);
        }
    }
    walk(plan, &mut out);
    out
}

fn remote_accesses(plan: &PhysNode) -> usize {
    plan.count_ops(&mut |op| op.is_remote())
}

#[test]
fn key_anchored_joins_cost_the_same_requests_cached_and_uncached() {
    let (cold, cold_link) = federation(false);
    let (warm, warm_link) = federation(true);
    for shape in join_on_shapes() {
        // First literal: metadata and statistics arrive, the template is
        // compiled and cached on the warm engine.
        let first = shape.sql(7);
        run(&cold, &cold_link, &first);
        run(&warm, &warm_link, &first);
        for key in [42, 181] {
            let sql = shape.sql(key);
            let uncached = run(&cold, &cold_link, &sql);
            let cached = run(&warm, &warm_link, &sql);
            assert!(
                cached.rendered.contains("[plan cache: hit]"),
                "{sql}\n{}",
                cached.rendered
            );
            assert!(!uncached.rendered.contains("[plan cache: hit]"), "{sql}");
            assert_eq!(cached.rows, uncached.rows, "{sql}");
            assert!(!cached.rows.is_empty(), "{sql}");
            assert_eq!(
                cached.requests, uncached.requests,
                "{sql}\ncached:\n{}\nuncached:\n{}",
                cached.rendered, uncached.rendered
            );
            if !shape.joins_c_to_s {
                continue;
            }
            // The Figure-4 decision on real cardinalities: ≈ 8 suppliers
            // share the one customer's nation, so the join runs at the
            // remote server and ships its result in one request.
            for r in [&cached, &uncached] {
                let shipped = remote_queries(&r.plan);
                assert_eq!(remote_accesses(&r.plan), 1, "{sql}\n{}", r.rendered);
                assert_eq!(shipped.len(), 1, "{sql}\n{}", r.rendered);
                assert!(
                    shipped[0].contains("INNER JOIN [supplier]"),
                    "{sql}\n{}",
                    r.rendered
                );
                assert_eq!(r.requests, 1, "{sql}\n{}", r.rendered);
            }
        }
    }
}

#[test]
fn comma_joined_example1_anchored_on_a_key_answers_correctly() {
    // No `c`–`s` predicate exists until equalities are closed
    // transitively (ROADMAP *Small debts*), so the plan is whatever the
    // cost model makes of a cross product; only the answer is pinned.
    let (cold, cold_link) = federation(false);
    let (warm, warm_link) = federation(true);
    let sql = |key: i64| {
        format!(
            "SELECT c.c_name, s.s_name, n.n_name FROM {C}, {S}, nation n \
             WHERE c.c_nationkey = n.n_nationkey AND n.n_nationkey = s.s_nationkey \
             AND c.c_custkey = {key}"
        )
    };
    run(&warm, &warm_link, &sql(7));
    for key in [42, 181] {
        let cached = run(&warm, &warm_link, &sql(key));
        let uncached = run(&cold, &cold_link, &sql(key));
        assert!(cached.rendered.contains("[plan cache: hit]"));
        assert_eq!(cached.rows, uncached.rows);
        // The same answer as the explicit-join spelling of the statement.
        let spelled = format!(
            "SELECT c.c_name, s.s_name, n.n_name FROM {C} {SUPPLIER} {NATION} \
             WHERE c.c_custkey = {key}"
        );
        assert_eq!(cached.rows, run(&cold, &cold_link, &spelled).rows);
        assert!(!cached.rows.is_empty());
    }
}

#[test]
fn unanchored_joins_still_ship_the_two_tables() {
    // The other side of Figure 4: without a key anchor the remote join's
    // result is far larger than the two tables, and they travel
    // separately — cached or not.
    let example1 = format!(
        "SELECT c.c_name, c.c_address, c.c_phone FROM {C}, {S}, nation n \
         WHERE c.c_nationkey = n.n_nationkey AND n.n_nationkey = s.s_nationkey"
    );
    // scan_ship's `fig4_join`: a 75-customer window.
    let window = |lo: i64| {
        format!(
            "SELECT c.c_name, c.c_address, c.c_phone FROM {C}, {S}, nation n \
             WHERE c.c_nationkey = n.n_nationkey AND n.n_nationkey = s.s_nationkey \
             AND c.c_custkey >= {lo} AND c.c_custkey < {}",
            lo + 75
        )
    };
    for plan_cache in [false, true] {
        let (head, link) = federation(plan_cache);
        run(&head, &link, &window(300));
        for sql in [example1.clone(), window(900)] {
            let r = run(&head, &link, &sql);
            let shipped = remote_queries(&r.plan);
            assert_eq!(
                remote_accesses(&r.plan),
                2,
                "customer and supplier are read separately: {sql}\n{}",
                r.rendered
            );
            assert!(
                shipped.iter().all(|s| !s.contains("JOIN")),
                "no join is pushed: {sql}\n{}",
                r.rendered
            );
            assert_eq!(r.requests, 2, "{sql}\n{}", r.rendered);
            assert!(!r.rows.is_empty(), "{sql}");
        }
    }
}

#[test]
fn a_key_equality_range_prints_one_row() {
    let (head, link) = federation(true);
    let sql = |key: i64| format!("SELECT c.c_name, c.c_phone FROM {C} WHERE c.c_custkey = {key}");
    run(&head, &link, &sql(7));
    let r = run(&head, &link, &sql(42));
    let range = r
        .plan
        .find_op(&mut |op| matches!(op, PhysicalOp::RemoteRange { .. }))
        .unwrap_or_else(|| panic!("a key lookup seeks the remote index:\n{}", r.rendered));
    assert_eq!(range.est_rows, 1.0, "{}", r.rendered);
    assert!(
        r.rendered.contains("pk_customer)  est_rows=1 "),
        "{}",
        r.rendered
    );
    assert_eq!(r.rows.len(), 1);

    // Locally the same: nation's key.
    let r = run(
        &head,
        &link,
        "SELECT n_name FROM nation WHERE n_nationkey = 3",
    );
    let range = r
        .plan
        .find_op(&mut |op| matches!(op, PhysicalOp::IndexRange { .. }))
        .unwrap_or_else(|| panic!("a local key lookup seeks the index:\n{}", r.rendered));
    assert_eq!(range.est_rows, 1.0, "{}", r.rendered);
}

/// Every estimated `rows=` figure of `sql`'s EXPLAIN text, in plan order.
fn explained_rows(engine: &Engine, sql: &str) -> Vec<String> {
    let plan = engine.explain(sql).unwrap().plan_text;
    plan.split_whitespace()
        .filter_map(|word| word.strip_prefix("rows="))
        .map(str::to_string)
        .collect()
}

/// A local table's catalog facts are as fresh at the next compile as the
/// storage engine holding them, with the plan cache off: its live row
/// count after an insert, a direct `StorageEngine::analyze` (which moves
/// no schema epoch, as fedbench's `remote0` fixture calls it), and an
/// `Engine::analyze`. The figures were recorded before catalog snapshots
/// were shared and must not move.
#[test]
fn the_next_compile_sees_inserts_and_either_analyze() {
    use dhqp_storage::TableDef;
    use dhqp_types::{Column, DataType, Row, Schema, Value};
    let engine = EngineBuilder::from_lookup("fresh", |_| None)
        .plan_cache_config(PlanCacheConfig {
            enabled: false,
            ..Default::default()
        })
        .build();
    engine
        .create_table(
            TableDef::new(
                "f",
                Schema::new(vec![
                    Column::not_null("k", DataType::Int),
                    Column::not_null("v", DataType::Int),
                ]),
            )
            .with_index("pk_f", &["k"], true),
        )
        .unwrap();
    let insert = |keys: std::ops::Range<i64>, v: &dyn Fn(i64) -> i64| {
        let rows: Vec<Row> = keys
            .map(|k| Row::new(vec![Value::Int(k), Value::Int(v(k))]))
            .collect();
        engine.insert("f", &rows).unwrap();
    };
    let statements = [
        "SELECT k, v FROM f",
        "SELECT k FROM f WHERE v = 7",
        "SELECT v FROM f WHERE k < 50",
        "SELECT v FROM f WHERE k = 3",
    ];
    let explained = || -> Vec<Vec<String>> {
        statements
            .iter()
            .map(|sql| explained_rows(&engine, sql))
            .collect()
    };
    insert(0..100, &|k| k % 10);
    let mut steps = vec![("created", explained())];
    // Skewed rows: `v = 7` becomes most of the table.
    insert(100..400, &|_| 7);
    steps.push(("inserted", explained()));
    engine.storage().analyze("f", 8).unwrap();
    steps.push(("storage analyze", explained()));
    insert(400..1000, &|k| k % 3);
    engine.analyze("f", 16).unwrap();
    steps.push(("engine analyze", explained()));
    let expected = [
        (
            "created",
            r#"[["100"], ["5", "5", "100"], ["33", "33", "33"], ["1", "1", "1"]]"#,
        ),
        (
            "inserted",
            r#"[["400"], ["20", "20", "400"], ["133", "133", "133"], ["1", "1", "1"]]"#,
        ),
        (
            "storage analyze",
            r#"[["400"], ["110", "110", "400"], ["51", "51", "51"], ["1", "1", "1"]]"#,
        ),
        (
            "engine analyze",
            r#"[["1000"], ["70", "70", "1000"], ["51", "51", "51"], ["1", "1", "1"]]"#,
        ),
    ];
    for ((step, rows), (want_step, want)) in steps.iter().zip(expected) {
        assert_eq!(*step, want_step);
        assert_eq!(format!("{rows:?}"), want, "{step}");
    }
}
