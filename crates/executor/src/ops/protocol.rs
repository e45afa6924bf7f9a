//! The rowset protocol, checked once for every operator and decorator: the
//! same rows in the same order whatever `max` the caller pulls with and
//! however `next` and `next_batch` calls are mixed; never `Some` of an empty
//! batch, never more than `max` rows, and `None` stays `None`.

use crate::context::test_support::TestCatalog;
use crate::context::{BatchConfig, ExecContext};
use crate::health::{Breaker, BreakerConfig, HealthRegistry};
use crate::ops::agg::{open_hash_aggregate, StreamAggregate};
use crate::ops::exchange::{BranchFactory, ExchangeRowset};
use crate::ops::filter::{FilterRowset, ProjectRowset};
use crate::ops::join::{open_hash_join, open_merge_join, InnerFactory, NestedLoopJoin};
use crate::ops::remote::open_remote_scan;
use crate::ops::retry::{RetryPolicy, RetryState};
use crate::ops::sort::{open_sort, open_spool, TopRowset, UnionAllRowset};
use crate::stats::{RuntimeStatsCollector, StatsRowset};
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
use dhqp_oledb::{DataSource, IterRowset, MemRowset, PooledDataSource, Rowset};
use dhqp_optimizer::logical::test_table_meta;
use dhqp_optimizer::props::ColumnRegistry;
use dhqp_optimizer::scalar::{AggCall, AggFunc, CmpOp};
use dhqp_optimizer::{ArithOp, ColumnId, JoinKind, Locality, ScalarExpr, TableMeta};
use dhqp_storage::{LocalDataSource, StorageEngine, TableDef};
use dhqp_types::{Column, DataType, Row, Schema, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Ten sorted values with duplicates: groups for the aggregates, matches
/// and misses for the joins.
const INPUT: [i64; 10] = [0, 0, 1, 1, 1, 2, 3, 3, 4, 5];
const OTHER: [i64; 5] = [1, 3, 3, 4, 7];

const L: ColumnId = ColumnId(0);
const R: ColumnId = ColumnId(1);

fn schema(names: &[&str]) -> Schema {
    Schema::new(
        names
            .iter()
            .map(|n| Column::new(*n, DataType::Int))
            .collect(),
    )
}

fn rows(vals: &[i64]) -> Vec<Row> {
    vals.iter()
        .map(|&v| Row::new(vec![Value::Int(v)]))
        .collect()
}

fn mem(vals: &[i64]) -> Box<dyn Rowset> {
    Box::new(MemRowset::new(schema(&["v"]), rows(vals)))
}

/// A context whose catalog holds `INPUT` as table `t` behind linked server
/// `r`: pooled sessions over a metered link over local storage, with retries
/// and a breaker armed, so a remote scan wears every decorator.
fn remote_setup() -> (ExecContext, Arc<TableMeta>) {
    let engine = Arc::new(StorageEngine::new("r-engine"));
    engine
        .create_table(TableDef::new(
            "t",
            Schema::new(vec![Column::not_null("v", DataType::Int)]),
        ))
        .unwrap();
    engine.insert_rows("t", &rows(&INPUT)).unwrap();
    let link = NetworkLink::new("r", NetworkConfig::lan());
    let remote: Arc<dyn DataSource> = Arc::new(LocalDataSource::new(engine));
    let remote: Arc<dyn DataSource> = Arc::new(NetworkedDataSource::reliable(remote, link));
    let mut catalog = TestCatalog::with_local(Arc::new(StorageEngine::new("local")));
    catalog
        .remotes
        .insert("r".into(), Arc::new(PooledDataSource::new(remote)));
    let breaker = Breaker::new(
        "r",
        &Arc::new(HealthRegistry::new(BreakerConfig::standard())),
    );
    catalog.breakers.insert("r".into(), Arc::new(breaker));
    let mut registry = ColumnRegistry::new();
    let meta = test_table_meta(
        0,
        "t",
        Locality::remote("r"),
        &[("v", DataType::Int)],
        &mut registry,
        INPUT.len() as u64,
    );
    let ctx = ExecContext::new(Arc::new(catalog), HashMap::new(), Arc::new(registry))
        .with_retry(RetryPolicy::standard());
    (ctx, meta)
}

fn eq_lr() -> ScalarExpr {
    ScalarExpr::eq(ScalarExpr::Column(L), ScalarExpr::Column(R))
}

fn nlj(kind: JoinKind, ctx: &ExecContext) -> Box<dyn Rowset> {
    let inner: InnerFactory = Box::new(|_| Ok(mem(&OTHER)));
    let names: &[&str] = if kind.produces_right() {
        &["l", "r"]
    } else {
        &["l"]
    };
    Box::new(NestedLoopJoin::new(
        mem(&INPUT),
        inner,
        kind,
        Some(eq_lr()),
        vec![L],
        vec![R],
        schema(names),
        ctx.clone(),
    ))
}

fn count_star() -> Vec<AggCall> {
    vec![AggCall {
        func: AggFunc::CountStar,
        arg: None,
        distinct: false,
        output: ColumnId(9),
    }]
}

/// Every `Rowset` the engine builds, each over fresh inputs.
fn every_rowset(ctx: &ExecContext, remote: &TableMeta) -> Vec<(&'static str, Box<dyn Rowset>)> {
    let at_least_2 = ScalarExpr::cmp(
        CmpOp::Ge,
        ScalarExpr::Column(L),
        ScalarExpr::literal(Value::Int(2)),
    );
    let doubled = ScalarExpr::Arith {
        op: ArithOp::Mul,
        left: Box::new(ScalarExpr::Column(L)),
        right: Box::new(ScalarExpr::literal(Value::Int(2))),
    };
    let one_col = [vec![L], vec![L]];
    let branch: BranchFactory = Box::new(|_| Ok(mem(&INPUT)));
    let collector = Arc::new(RuntimeStatsCollector::new());
    vec![
        ("MemRowset", mem(&INPUT)),
        (
            "IterRowset",
            Box::new(IterRowset::new(
                schema(&["v"]),
                rows(&INPUT).into_iter().map(Ok),
            )),
        ),
        (
            "Filter",
            Box::new(FilterRowset::new(
                mem(&INPUT),
                at_least_2,
                &[L],
                ctx.clone(),
            )),
        ),
        (
            "Project",
            Box::new(ProjectRowset::new(
                mem(&INPUT),
                vec![(ColumnId(9), doubled)],
                &[L],
                schema(&["v2"]),
                ctx.clone(),
            )),
        ),
        ("Top", Box::new(TopRowset::new(mem(&INPUT), 7))),
        (
            "UnionAll",
            Box::new(
                UnionAllRowset::new(
                    vec![mem(&INPUT), mem(&OTHER)],
                    &one_col,
                    &one_col,
                    schema(&["v"]),
                )
                .unwrap(),
            ),
        ),
        (
            "HashAggregate",
            Box::new(
                open_hash_aggregate(
                    mem(&INPUT),
                    &[L],
                    &count_star(),
                    &[L],
                    schema(&["v", "n"]),
                    ctx,
                )
                .unwrap(),
            ),
        ),
        (
            "StreamAggregate",
            Box::new(
                StreamAggregate::new(
                    mem(&INPUT),
                    &[L],
                    count_star(),
                    &[L],
                    schema(&["v", "n"]),
                    ctx.clone(),
                )
                .unwrap(),
            ),
        ),
        (
            "Sort",
            open_sort(mem(&INPUT), &[(L, false)], &[L], ctx).unwrap(),
        ),
        ("Spool", open_spool(77, ctx, || Ok(mem(&INPUT))).unwrap()),
        ("NestedLoopJoin[Inner]", nlj(JoinKind::Inner, ctx)),
        ("NestedLoopJoin[LeftOuter]", nlj(JoinKind::LeftOuter, ctx)),
        ("NestedLoopJoin[Semi]", nlj(JoinKind::Semi, ctx)),
        ("NestedLoopJoin[Anti]", nlj(JoinKind::Anti, ctx)),
        (
            "HashJoin",
            Box::new(
                open_hash_join(
                    mem(&INPUT),
                    mem(&OTHER),
                    JoinKind::Inner,
                    &[ScalarExpr::Column(L)],
                    &[ScalarExpr::Column(R)],
                    None,
                    &[L],
                    &[R],
                    schema(&["l", "r"]),
                    ctx,
                )
                .unwrap(),
            ),
        ),
        (
            "MergeJoin",
            Box::new(
                open_merge_join(
                    mem(&INPUT),
                    mem(&OTHER),
                    &[L],
                    &[R],
                    None,
                    &[L],
                    &[R],
                    schema(&["l", "r"]),
                    ctx,
                )
                .unwrap(),
            ),
        ),
        (
            // One branch, so arrival order is the branch's order.
            "Exchange",
            Box::new(
                ExchangeRowset::new(
                    vec![branch],
                    &one_col[..1],
                    &one_col[..1],
                    schema(&["v"]),
                    ctx,
                    0,
                )
                .unwrap(),
            ),
        ),
        (
            "Prefetch",
            Box::new(ExchangeRowset::prefetch(mem(&INPUT), ctx)),
        ),
        (
            "Retry",
            RetryState::new(&RetryPolicy::standard(), ctx.counters())
                .rewind_by(ctx.batch().batch_size)
                .open(Box::new(|| Ok(mem(&INPUT))))
                .unwrap(),
        ),
        (
            "Stats",
            Box::new(StatsRowset::new(mem(&INPUT), 0, Arc::clone(&collector))),
        ),
        (
            "Retry(Pooled(Metered(scan)))",
            open_remote_scan(remote, ctx, 0).unwrap(),
        ),
        (
            // A stats collector attached: every pull runs under a charge.
            "Charged(Retry(Pooled(Metered(scan))))",
            open_remote_scan(remote, &ctx.clone().with_stats(collector), 1).unwrap(),
        ),
    ]
}

/// Drain by `next_batch(max)` alone, checking every batch and the end.
fn drain(name: &str, mut rs: Box<dyn Rowset>, max: usize) -> Vec<Row> {
    let mut out = Vec::new();
    while let Some(batch) = rs.next_batch(max).unwrap() {
        assert!(!batch.is_empty(), "{name}: Some(empty) at max={max}");
        assert!(
            batch.len() <= max,
            "{name}: {} rows at max={max}",
            batch.len()
        );
        out.extend(batch);
    }
    assert!(
        rs.next_batch(max).unwrap().is_none(),
        "{name}: None unstuck"
    );
    assert!(rs.next().unwrap().is_none(), "{name}: None unstuck");
    out
}

#[test]
fn every_rowset_speaks_one_protocol() {
    let (ctx, remote) = remote_setup();
    // Consumers inside the operators pull at 1, at 4 (a pull that divides
    // nothing evenly) and at the default.
    for pull in [1, 4, 1024] {
        let ctx = ctx.clone().with_batch(BatchConfig::batched(pull));
        let want: Vec<(&str, Vec<Row>)> = every_rowset(&ctx, &remote)
            .into_iter()
            .map(|(name, rs)| (name, drain(name, rs, 1024)))
            .collect();
        for (name, rows) in &want {
            assert!(!rows.is_empty(), "{name} produced nothing");
        }
        for max in [1, 3] {
            for ((name, rs), (_, want)) in every_rowset(&ctx, &remote).into_iter().zip(&want) {
                assert_eq!(&drain(name, rs, max), want, "{name} at max={max}");
            }
        }
        // `next` and `next_batch` calls interleaved.
        for ((name, mut rs), (_, want)) in every_rowset(&ctx, &remote).into_iter().zip(&want) {
            let mut got = Vec::new();
            while let Some(row) = rs.next().unwrap() {
                got.push(row);
                let Some(batch) = rs.next_batch(3).unwrap() else {
                    break;
                };
                assert!(!batch.is_empty() && batch.len() <= 3, "{name}: interleaved");
                got.extend(batch);
            }
            assert!(rs.next().unwrap().is_none(), "{name}: None unstuck");
            assert_eq!(&got, want, "{name} interleaved, pull={pull}");
        }
    }
}
