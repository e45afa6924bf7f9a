//! Distributed partitioned views (§4.1.5): static and runtime pruning,
//! DML routing, partition-key moves, delayed schema validation and 2PC
//! atomicity.

use dhqp::{Engine, EngineDataSource};
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
use dhqp_types::{value::parse_date, Column, DataType, Schema, Value};
use dhqp_workload::tpch::{self, TpchScale};
use std::collections::HashMap;
use std::sync::Arc;

/// A local engine plus two remote member engines holding the seven
/// `lineitem_9x` partitions; the `lineitem_all` DPV unions them.
struct Federation {
    local: Engine,
    remotes: Vec<Engine>,
    links: Vec<NetworkLink>,
}

fn dpv_setup(scale: TpchScale) -> Federation {
    let local = Engine::new("head");
    let r1 = Engine::new("member1-engine");
    let r2 = Engine::new("member2-engine");
    // Partition years 1992..=1998 over [local, r1, r2] round robin.
    let engines = [
        local.storage().as_ref(),
        r1.storage().as_ref(),
        r2.storage().as_ref(),
    ];
    let members = tpch::create_lineitem_partitions(&engines, &scale, 17).unwrap();

    let mut links = Vec::new();
    for (i, remote) in [&r1, &r2].iter().enumerate() {
        let link = NetworkLink::new(format!("member{}", i + 1), NetworkConfig::lan());
        local
            .add_linked_server(
                &format!("member{}", i + 1),
                Arc::new(NetworkedDataSource::new(
                    Arc::new(EngineDataSource::new((*remote).clone())),
                    link.clone(),
                )),
            )
            .unwrap();
        links.push(link);
    }
    let view_members = members
        .into_iter()
        .map(|(idx, table, domain)| {
            let server = match idx {
                0 => None,
                i => Some(format!("member{i}")),
            };
            (server, table, domain)
        })
        .collect();
    local
        .define_partitioned_view("lineitem_all", "l_commitdate", view_members)
        .unwrap();
    Federation {
        local,
        remotes: vec![r1, r2],
        links,
    }
}

#[test]
fn view_unions_all_partitions() {
    let fed = dpv_setup(TpchScale::tiny());
    let scale = TpchScale::tiny();
    let r = fed
        .local
        .query("SELECT COUNT(*) AS n FROM lineitem_all")
        .unwrap();
    assert_eq!(
        r.scalar(),
        Some(&Value::Int(
            (scale.orders * scale.lineitems_per_order) as i64
        ))
    );
}

#[test]
fn static_pruning_touches_one_partition() {
    let fed = dpv_setup(TpchScale::tiny());
    let sql = "SELECT COUNT(*) AS n FROM lineitem_all \
               WHERE l_commitdate >= '1995-01-01' AND l_commitdate <= '1995-12-31'";
    let plan = fed.local.explain(sql).unwrap();
    // 1995 lives on exactly one member; the others are pruned at compile
    // time, so the plan touches a single lineitem_95 access.
    let touched = plan.plan_text.matches("lineitem_9").count();
    assert_eq!(
        touched, 1,
        "static pruning must leave one member:\n{}",
        plan.plan_text
    );
    assert!(plan.plan_text.contains("lineitem_95"), "{}", plan.plan_text);
    // And it answers correctly.
    let n = fed.local.query(sql).unwrap();
    assert!(matches!(n.scalar(), Some(Value::Int(c)) if *c > 0));
}

#[test]
fn pruning_ablation_touches_everything() {
    let fed = dpv_setup(TpchScale::tiny());
    let mut config = fed.local.optimizer_config();
    config.simplify.constraint_pruning = false;
    fed.local.set_optimizer_config(config);
    let plan = fed
        .local
        .explain(
            "SELECT COUNT(*) AS n FROM lineitem_all WHERE l_commitdate >= '1995-01-01' \
                  AND l_commitdate <= '1995-12-31'",
        )
        .unwrap();
    let touched = plan.plan_text.matches("lineitem_9").count();
    assert_eq!(
        touched, 7,
        "without pruning all members are scanned:\n{}",
        plan.plan_text
    );
}

#[test]
fn contradictory_predicate_prunes_whole_view() {
    let fed = dpv_setup(TpchScale::tiny());
    let plan = fed
        .local
        .explain("SELECT COUNT(*) AS n FROM lineitem_all WHERE l_commitdate > '2005-01-01'")
        .unwrap();
    assert!(
        plan.plan_text.contains("Empty"),
        "out-of-range predicate reduces the view to an empty plan:\n{}",
        plan.plan_text
    );
    let r = fed
        .local
        .query("SELECT COUNT(*) AS n FROM lineitem_all WHERE l_commitdate > '2005-01-01'")
        .unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(0)));
}

/// The contradiction rule sees through every operator: a filter the view's
/// CHECK ranges contradict above an aggregate or an outer join over the
/// view is an empty plan that sends nothing, and answers what the unpruned
/// plan answers.
#[test]
fn contradictions_above_other_operators_prune_the_view() {
    let fed = dpv_setup(TpchScale::tiny());
    let statements = [
        "SELECT l_commitdate, COUNT(*) AS n FROM lineitem_all \
         GROUP BY l_commitdate HAVING l_commitdate > '2005-01-01'",
        "SELECT a.l_orderkey FROM lineitem_92 a LEFT JOIN lineitem_all b \
         ON a.l_orderkey = b.l_orderkey WHERE b.l_commitdate > '2005-01-01'",
    ];
    let mut answers = Vec::new();
    for sql in statements {
        let plan = fed.local.explain(sql).unwrap();
        assert!(
            plan.plan_text.contains("Empty"),
            "{sql}\n{}",
            plan.plan_text
        );
        for l in &fed.links {
            l.reset();
        }
        answers.push(fed.local.query(sql).unwrap().rows);
        let requests: Vec<u64> = fed.links.iter().map(|l| l.snapshot().requests).collect();
        assert_eq!(requests, [0, 0], "{sql}");
    }
    let mut config = fed.local.optimizer_config();
    config.simplify.constraint_pruning = false;
    fed.local.set_optimizer_config(config);
    for (sql, pruned) in statements.into_iter().zip(answers) {
        let plan = fed.local.explain(sql).unwrap();
        assert!(!plan.plan_text.contains("Empty"), "{}", plan.plan_text);
        assert_eq!(fed.local.query(sql).unwrap().rows, pruned, "{sql}");
        assert!(pruned.is_empty());
    }
}

/// `k = NULL` is never true: a remote table filtered by it is not read.
#[test]
fn a_comparison_with_null_sends_nothing() {
    let fed = dpv_setup(TpchScale::tiny());
    let table = "member1.tpch.dbo.lineitem_93";
    // Fetch the table's metadata first, then count what the statement sends.
    fed.local
        .query(&format!("SELECT COUNT(*) AS n FROM {table}"))
        .unwrap();
    fed.links[0].reset();
    let sql = format!("SELECT l_orderkey FROM {table} WHERE l_orderkey = NULL");
    assert!(fed.local.query(&sql).unwrap().rows.is_empty());
    assert_eq!(fed.links[0].snapshot().requests, 0);
}

#[test]
fn runtime_pruning_with_startup_filters() {
    let fed = dpv_setup(TpchScale::tiny());
    let sql = "SELECT COUNT(*) AS n FROM lineitem_all WHERE l_commitdate = @d";
    // Parameterized date: compile-time pruning is impossible; the plan
    // carries startup filters instead (§4.1.5).
    let mut params = HashMap::new();
    params.insert(
        "d".to_string(),
        Value::Date(parse_date("1994-06-15").unwrap()),
    );
    let plan = fed.local.explain_with_params(sql, params.clone()).unwrap();
    assert!(
        plan.plan_text.contains("StartupFilter"),
        "parameterized DPV queries need startup filters:\n{}",
        plan.plan_text
    );
    // At execution only the 1994 member (on member2: year index 2) runs:
    // warm metadata first, then measure traffic.
    fed.local.query_with_params(sql, params.clone()).unwrap();
    for l in &fed.links {
        l.reset();
    }
    fed.local.query_with_params(sql, params.clone()).unwrap();
    // 1994 is year index 2 → engine index 2 % 3 = 2 → member2 (links[1]).
    let m1 = fed.links[0].snapshot();
    let m2 = fed.links[1].snapshot();
    assert_eq!(
        m1.requests, 0,
        "member1 must be skipped by its startup filter"
    );
    assert!(m2.requests > 0, "member2 holds 1994 and must run");
}

#[test]
fn insert_routes_to_member_by_partition_value() {
    let fed = dpv_setup(TpchScale::tiny());
    let n = fed
        .local
        .execute(
            "INSERT INTO lineitem_all (l_orderkey, l_linenumber, l_suppkey, l_quantity, \
             l_extendedprice, l_commitdate) VALUES \
             (9001, 1, 0, 5, 10.0, '1993-07-04'), \
             (9001, 2, 0, 6, 12.0, '1997-02-11')",
        )
        .unwrap();
    assert_eq!(n.rows_affected, Some(2));
    // 1993 → engine index 1 (member1); 1997 → index 5 % 3 = 2 (member2).
    let r = fed.remotes[0]
        .query("SELECT l_linenumber FROM lineitem_93 WHERE l_orderkey = 9001")
        .unwrap();
    assert_eq!(r.len(), 1);
    let r = fed.remotes[1]
        .query("SELECT l_linenumber FROM lineitem_97 WHERE l_orderkey = 9001")
        .unwrap();
    assert_eq!(r.len(), 1);
    // Out-of-range partition values are constraint violations.
    let err = fed
        .local
        .execute(
            "INSERT INTO lineitem_all (l_orderkey, l_linenumber, l_suppkey, l_quantity, \
             l_extendedprice, l_commitdate) VALUES (9002, 1, 0, 1, 1.0, '2009-01-01')",
        )
        .unwrap_err();
    assert_eq!(err.kind(), "constraint");
}

#[test]
fn delete_through_view_prunes_members() {
    let fed = dpv_setup(TpchScale::tiny());
    let before = fed
        .local
        .query("SELECT COUNT(*) AS n FROM lineitem_all")
        .unwrap();
    let deleted = fed
        .local
        .execute("DELETE FROM lineitem_all WHERE l_commitdate < '1993-01-01'")
        .unwrap();
    assert!(deleted.rows_affected.unwrap() > 0);
    let after = fed
        .local
        .query("SELECT COUNT(*) AS n FROM lineitem_all")
        .unwrap();
    let (Some(Value::Int(b)), Some(Value::Int(a))) = (before.scalar(), after.scalar()) else {
        panic!("counts");
    };
    assert_eq!(a + deleted.rows_affected.unwrap() as i64, *b);
    // 1992 partition is now empty.
    let r = fed
        .local
        .query("SELECT COUNT(*) AS n FROM lineitem_92")
        .unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(0)));
}

#[test]
fn update_moving_partition_key_relocates_row() {
    let fed = dpv_setup(TpchScale::tiny());
    fed.local
        .execute(
            "INSERT INTO lineitem_all (l_orderkey, l_linenumber, l_suppkey, l_quantity, \
             l_extendedprice, l_commitdate) VALUES (7777, 1, 0, 5, 10.0, '1992-06-01')",
        )
        .unwrap();
    // Move the row from 1992 (local member) to 1996 (member engine).
    let n = fed
        .local
        .execute("UPDATE lineitem_all SET l_commitdate = '1996-06-01' WHERE l_orderkey = 7777")
        .unwrap();
    assert_eq!(n.rows_affected, Some(1));
    let gone = fed
        .local
        .query("SELECT COUNT(*) AS n FROM lineitem_92 WHERE l_orderkey = 7777")
        .unwrap();
    assert_eq!(gone.scalar(), Some(&Value::Int(0)));
    let moved = fed
        .local
        .query(
            "SELECT COUNT(*) AS n FROM lineitem_all WHERE l_orderkey = 7777 \
                AND l_commitdate = '1996-06-01'",
        )
        .unwrap();
    assert_eq!(moved.scalar(), Some(&Value::Int(1)));
}

#[test]
fn multi_member_dml_is_atomic_under_failure() {
    let fed = dpv_setup(TpchScale::tiny());
    let before = fed
        .local
        .query("SELECT COUNT(*) AS n FROM lineitem_all")
        .unwrap();
    // Inject a prepare failure on member1's engine, then attempt an insert
    // spanning local + member1 + member2.
    fed.remotes[0].storage().set_fail_prepare(true);
    let err = fed
        .local
        .execute(
            "INSERT INTO lineitem_all (l_orderkey, l_linenumber, l_suppkey, l_quantity, \
             l_extendedprice, l_commitdate) VALUES \
             (8001, 1, 0, 1, 1.0, '1992-03-03'), \
             (8001, 2, 0, 1, 1.0, '1993-03-03'), \
             (8001, 3, 0, 1, 1.0, '1994-03-03')",
        )
        .unwrap_err();
    assert_eq!(err.kind(), "transaction");
    fed.remotes[0].storage().set_fail_prepare(false);
    // Atomicity: nothing was applied anywhere.
    let after = fed
        .local
        .query("SELECT COUNT(*) AS n FROM lineitem_all")
        .unwrap();
    assert_eq!(before.scalar(), after.scalar());
    let (commits, aborts) = fed.local.dtc().stats();
    assert_eq!((commits, aborts), (0, 1));
}

#[test]
fn delayed_schema_validation_detects_drift() {
    let fed = dpv_setup(TpchScale::tiny());
    // Plans compile against the definition-time snapshot...
    fed.local
        .query("SELECT COUNT(*) AS n FROM lineitem_all")
        .unwrap();
    // ...then a member's schema changes behind the federation's back.
    fed.remotes[0].storage().drop_table("lineitem_93").unwrap();
    fed.remotes[0]
        .storage()
        .create_table(dhqp_storage::TableDef::new(
            "lineitem_93",
            Schema::new(vec![Column::not_null("something_else", DataType::Int)]),
        ))
        .unwrap();
    fed.local.clear_metadata_cache();
    let err = fed
        .local
        .query("SELECT COUNT(*) AS n FROM lineitem_all")
        .unwrap_err();
    assert_eq!(err.kind(), "schema-drift", "{err}");
}

#[test]
fn local_partitioned_view_works_without_servers() {
    // All members local: a plain (non-distributed) partitioned view.
    let engine = Engine::new("solo");
    for (table, lo, hi) in [("p_low", 0, 99), ("p_high", 100, 199)] {
        engine
            .create_table(
                dhqp_storage::TableDef::new(
                    table,
                    Schema::new(vec![
                        Column::not_null("k", DataType::Int),
                        Column::new("v", DataType::Str),
                    ]),
                )
                .with_check(dhqp_storage::CheckConstraint {
                    name: format!("ck_{table}"),
                    column: "k".into(),
                    domain: dhqp_types::IntervalSet::single(dhqp_types::Interval::between(
                        Value::Int(lo),
                        Value::Int(hi),
                    )),
                }),
            )
            .unwrap();
    }
    engine
        .define_partitioned_view(
            "all_k",
            "k",
            vec![
                (
                    None,
                    "p_low".into(),
                    dhqp_types::IntervalSet::single(dhqp_types::Interval::between(
                        Value::Int(0),
                        Value::Int(99),
                    )),
                ),
                (
                    None,
                    "p_high".into(),
                    dhqp_types::IntervalSet::single(dhqp_types::Interval::between(
                        Value::Int(100),
                        Value::Int(199),
                    )),
                ),
            ],
        )
        .unwrap();
    engine
        .execute("INSERT INTO all_k (k, v) VALUES (5, 'a'), (150, 'b')")
        .unwrap();
    assert_eq!(
        engine
            .query("SELECT COUNT(*) AS n FROM p_low")
            .unwrap()
            .scalar(),
        Some(&Value::Int(1))
    );
    let r = engine.query("SELECT v FROM all_k WHERE k = 150").unwrap();
    assert_eq!(r.value(0, 0), &Value::Str("b".into()));
    let plan = engine.explain("SELECT v FROM all_k WHERE k = 150").unwrap();
    assert!(
        !plan.plan_text.contains("p_low"),
        "pruned:\n{}",
        plan.plan_text
    );
}

#[test]
fn aggregates_over_view_ship_partials_not_rows() {
    let fed = dpv_setup(TpchScale::tiny());
    let sql = "SELECT COUNT(*) AS n, SUM(l_quantity) AS q FROM lineitem_all";
    // Warm metadata, then measure.
    let expected = fed.local.query(sql).unwrap();
    for l in &fed.links {
        l.reset();
    }
    let r = fed.local.query(sql).unwrap();
    assert_eq!(r.rows, expected.rows);
    let shipped: u64 = fed.links.iter().map(|l| l.snapshot().rows).sum();
    // Two remote members hold 2-3 partitions each; each ships one partial
    // row per partition, not its raw lineitems.
    assert!(
        shipped <= 7,
        "partial aggregation should ship one row per member, shipped {shipped}"
    );
    // The plan shows the split: a global combine above the union, with
    // per-branch partials either as local aggregate operators or folded
    // into the pushed remote statements (GROUP-BY-less COUNT/SUM).
    let plan = fed.local.explain(sql).unwrap();
    let local_partials = plan.plan_text.matches("Aggregate").count();
    let remote_partials = plan.plan_text.matches("COUNT(*)").count();
    assert!(
        local_partials + remote_partials >= 8,
        "7 partials + 1 global:\n{}",
        plan.plan_text
    );
}

#[test]
fn grouped_aggregate_over_view_is_correct() {
    let fed = dpv_setup(TpchScale::tiny());
    // Group by supplier across all partitions; verify against the same
    // data loaded monolithically.
    let r = fed
        .local
        .query(
            "SELECT l_suppkey, COUNT(*) AS n, MAX(l_quantity) AS mx FROM lineitem_all \
             GROUP BY l_suppkey ORDER BY l_suppkey",
        )
        .unwrap();
    let mono = Engine::new("mono");
    {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let scale = TpchScale::tiny();
        let rows = tpch::lineitem_rows(&scale, &mut rng);
        mono.create_table(dhqp_storage::TableDef::new(
            "lineitem",
            tpch::lineitem_schema(),
        ))
        .unwrap();
        mono.insert("lineitem", &rows).unwrap();
    }
    let want = mono
        .query(
            "SELECT l_suppkey, COUNT(*) AS n, MAX(l_quantity) AS mx FROM lineitem \
             GROUP BY l_suppkey ORDER BY l_suppkey",
        )
        .unwrap();
    assert_eq!(r.rows, want.rows);
}

#[test]
fn avg_and_distinct_aggregates_stay_unsplit_but_correct() {
    let fed = dpv_setup(TpchScale::tiny());
    let r = fed
        .local
        .query("SELECT AVG(l_quantity) AS a, COUNT(DISTINCT l_suppkey) AS d FROM lineitem_all")
        .unwrap();
    // AVG/DISTINCT cannot be combined from partials; the plan must keep a
    // single global aggregate (no per-branch split).
    let plan = fed
        .local
        .explain("SELECT AVG(l_quantity) AS a, COUNT(DISTINCT l_suppkey) AS d FROM lineitem_all")
        .unwrap();
    let aggs = plan.plan_text.matches("Aggregate").count();
    assert_eq!(aggs, 1, "{}", plan.plan_text);
    // And the answer matches a monolithic computation.
    let mono = Engine::new("mono2");
    {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let rows = tpch::lineitem_rows(&TpchScale::tiny(), &mut rng);
        mono.create_table(dhqp_storage::TableDef::new(
            "lineitem",
            tpch::lineitem_schema(),
        ))
        .unwrap();
        mono.insert("lineitem", &rows).unwrap();
    }
    let want = mono
        .query("SELECT AVG(l_quantity) AS a, COUNT(DISTINCT l_suppkey) AS d FROM lineitem")
        .unwrap();
    assert_eq!(r.rows, want.rows);
}
