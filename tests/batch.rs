//! Batched row shipping: the chunked pull path must change *when* rows
//! cross the wire (K rows per round trip instead of one) without changing
//! *what* crosses it — identical multisets, identical per-link byte and
//! row accounting, and batch-boundary-exact retry rewinds under seeded
//! faults. `DHQP_BATCH_SIZE=1` must degenerate to the classic per-row
//! behavior round trip for round trip.

use dhqp::{BatchConfig, Engine, EngineDataSource, FaultConfig, ParallelConfig, RetryPolicy};
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
use dhqp_oledb::TrafficSnapshot;
use dhqp_types::{Row, Value};
use dhqp_workload::tpch::{self, TpchScale};
use std::sync::Arc;
use std::time::Duration;

/// Head engine federating four members holding the seven `lineitem_9x`
/// partitions, each behind a link armed with `config(member_index)`.
fn federation_with_faults(
    config: impl Fn(usize) -> Option<FaultConfig>,
) -> (Engine, Vec<NetworkLink>) {
    let head = Engine::new("head");
    let members: Vec<Engine> = (1..=4)
        .map(|i| Engine::new(format!("member{i}-engine")))
        .collect();
    let engines: Vec<&dhqp_storage::StorageEngine> =
        members.iter().map(|e| e.storage().as_ref()).collect();
    let parts = tpch::create_lineitem_partitions(&engines, &TpchScale::tiny(), 17).unwrap();

    let mut links = Vec::new();
    for (i, m) in members.iter().enumerate() {
        let link = NetworkLink::new(format!("member{}", i + 1), NetworkConfig::lan());
        let inner: Arc<dyn dhqp_oledb::DataSource> = Arc::new(EngineDataSource::new(m.clone()));
        let wrapped = match config(i) {
            Some(cfg) => NetworkedDataSource::with_faults(inner, link.clone(), cfg),
            None => NetworkedDataSource::reliable(inner, link.clone()),
        };
        head.add_linked_server(&format!("member{}", i + 1), Arc::new(wrapped))
            .unwrap();
        links.push(link);
    }
    let view_members = parts
        .into_iter()
        .map(|(idx, table, domain)| (Some(format!("member{}", idx + 1)), table, domain))
        .collect();
    head.define_partitioned_view("lineitem_all", "l_commitdate", view_members)
        .unwrap();
    (head, links)
}

fn federation() -> (Engine, Vec<NetworkLink>) {
    federation_with_faults(|_| None)
}

fn fast_retries() -> RetryPolicy {
    RetryPolicy {
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        ..RetryPolicy::standard()
    }
}

/// Rows as sorted value vectors: bag equality independent of delivery order.
fn multiset(rows: &[Row], width: usize) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = rows
        .iter()
        .map(|r| (0..width).map(|i| r.get(i).clone()).collect())
        .collect();
    out.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    out
}

/// Each link's traffic since [`reset`], net of the connects (one 32-byte
/// request each) its session pool made meanwhile. With parallel exchange
/// two partitions of one member open at once and the pool grows to that
/// peak once; which of two runs pays for the growth is a matter of timing,
/// not of the batch size under test.
fn measure(head: &Engine, links: &[NetworkLink]) -> Vec<TrafficSnapshot> {
    let pools = head
        .query("SELECT name, connects FROM sys.dm_link_stats ORDER BY name")
        .unwrap();
    assert_eq!(pools.len(), links.len());
    links
        .iter()
        .zip(&pools.rows)
        .map(|(link, pool)| {
            assert_eq!(pool.get(0), &Value::Str(link.name().to_string()));
            let Value::Int(connects) = pool.get(1) else {
                panic!("connects is an integer: {pool:?}")
            };
            let mut traffic = link.snapshot();
            traffic.requests -= *connects as u64;
            traffic.bytes -= 32 * *connects as u64;
            traffic
        })
        .collect()
}

/// Zero the link counters and (with the rest of the head's metrics) the
/// pools' connect counts; idle sessions stay.
fn reset(head: &Engine, links: &[NetworkLink]) {
    for l in links {
        l.reset();
    }
    head.reset_metrics();
}

const SCAN: &str = "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem_all";

#[test]
fn batched_multiset_matches_row_mode_across_serial_parallel_and_faults() {
    // Reference answer: classic per-row serial pipeline, clean links.
    let (reference, _links) = federation();
    reference.set_batch_config(BatchConfig::batched(1));
    reference.set_parallel_config(ParallelConfig::serial());
    let want = multiset(&reference.query(SCAN).unwrap().rows, 3);
    let scale = TpchScale::tiny();
    assert_eq!(want.len(), scale.orders * scale.lineitems_per_order);

    for parallel in [false, true] {
        for fault_seed in [None, Some(42)] {
            let (head, _links) =
                federation_with_faults(|_| fault_seed.map(FaultConfig::one_transient_per_link));
            head.set_batch_config(BatchConfig::batched(5));
            head.set_parallel_config(if parallel {
                ParallelConfig::parallel()
            } else {
                ParallelConfig::serial()
            });
            if fault_seed.is_some() {
                head.set_retry_policy(fast_retries());
            }
            let got = head.query(SCAN).unwrap();
            assert_eq!(
                multiset(&got.rows, 3),
                want,
                "batched run diverged (parallel={parallel}, faults={fault_seed:?})"
            );
            if fault_seed.is_some() {
                let m = head.metrics();
                assert!(
                    m.remote_retries > 0,
                    "fault plan never fired (parallel={parallel}): {m:?}"
                );
            }
        }
    }
}

#[test]
fn batching_ships_identical_bytes_in_fewer_round_trips() {
    let (head, links) = federation();
    // Warm the metadata cache so both measured runs bind identically.
    head.set_batch_config(BatchConfig::batched(1));
    head.query(SCAN).unwrap();

    reset(&head, &links);
    head.query(SCAN).unwrap();
    let row_traffic = measure(&head, &links);

    head.set_batch_config(BatchConfig::batched(64));
    reset(&head, &links);
    head.query(SCAN).unwrap();
    let batch_traffic = measure(&head, &links);

    for (link, (r, b)) in links.iter().zip(row_traffic.iter().zip(&batch_traffic)) {
        let name = link.name();
        assert_eq!(r.rows, b.rows, "row count changed on '{name}'");
        assert_eq!(r.bytes, b.bytes, "byte count changed on '{name}'");
        assert_eq!(r.requests, b.requests, "request count changed on '{name}'");
        // In row mode every row is its own flush; batching coalesces.
        assert_eq!(r.batches, r.rows, "row mode must flush per row on '{name}'");
        assert!(
            b.batches < b.rows || b.rows <= 1,
            "batch mode never coalesced on '{name}': {b:?}"
        );
        let avg = b.rows_per_round_trip().unwrap();
        assert!(avg > 1.0, "gauge must exceed 1 when batching: {avg}");
    }
}

#[test]
fn batch_size_one_degenerates_to_row_mode_accounting() {
    let (head, links) = federation();
    head.set_batch_config(BatchConfig::batched(1));
    head.query(SCAN).unwrap(); // warm metadata

    reset(&head, &links);
    head.query(SCAN).unwrap();
    let row_traffic = measure(&head, &links);

    head.set_batch_config(BatchConfig::batched(1));
    reset(&head, &links);
    head.query(SCAN).unwrap();
    let one_traffic = measure(&head, &links);

    // K=1 is exactly the classic behavior: same rows, bytes, requests AND
    // the same number of round trips (batches == rows).
    assert_eq!(row_traffic, one_traffic);
    for t in &one_traffic {
        assert_eq!(t.batches, t.rows);
        assert_eq!(t.rows_per_round_trip(), Some(1.0));
    }
}

#[test]
fn mid_batch_fault_rewinds_on_batch_boundaries_without_changing_answers() {
    // Seeded stream drops land mid-stream — with a 5-row batch size the
    // fault window re-slices the final pre-fault batch, the retry rewind
    // then skips whole delivered batches and re-slices the tail.
    let (clean, _cl) = federation();
    clean.set_batch_config(BatchConfig::batched(5));
    let want = multiset(&clean.query(SCAN).unwrap().rows, 3);

    for seed in [7, 11, 42] {
        let (head, links) =
            federation_with_faults(|_| Some(FaultConfig::one_transient_per_link(seed)));
        head.set_batch_config(BatchConfig::batched(5));
        head.set_retry_policy(fast_retries());
        let got = head.query(SCAN).unwrap();
        assert_eq!(multiset(&got.rows, 3), want, "seed {seed} changed answers");
        let faults: u64 = links.iter().map(NetworkLink::faults_injected).sum();
        assert!(faults > 0, "seed {seed} injected nothing");
        assert!(head.metrics().remote_retries >= faults);
    }
}

#[test]
fn attempt_deadlines_and_batch_rewinds_compose_without_double_counting() {
    // The two retry triggers at once, on different links: member 1 stalls
    // one open past the attempt deadline (a Timeout retry), while member 3
    // drops two result streams mid-flight (batch-boundary rewinds). The
    // rewind must skip exactly the delivered batches — any off-by-one
    // double-counts or loses rows and breaks the multiset.
    let (clean, _cl) = federation();
    clean.set_batch_config(BatchConfig::batched(3));
    let want = multiset(&clean.query(SCAN).unwrap().rows, 3);

    for seed in [7u64, 11, 42] {
        let (head, _links) = federation_with_faults(|i| match i {
            0 => Some(FaultConfig {
                seed,
                stalls: 1.0,
                stall_ms: 25,
                max_faults: 1,
                ..FaultConfig::none()
            }),
            2 => Some(FaultConfig {
                seed,
                stream_drops: 1.0,
                max_faults: 2,
                ..FaultConfig::none()
            }),
            _ => None,
        });
        head.set_batch_config(BatchConfig::batched(3));
        head.set_retry_policy(RetryPolicy {
            max_attempts: 4,
            attempt_deadline: Some(Duration::from_millis(8)),
            ..fast_retries()
        });
        let got = head.query(SCAN).unwrap();
        assert_eq!(multiset(&got.rows, 3), want, "seed {seed} changed answers");
        let m = head.metrics();
        assert!(
            m.remote_deadline_hits >= 1,
            "seed {seed}: stall never timed out: {m:?}"
        );
        assert!(m.remote_retries >= 1, "seed {seed}: nothing retried: {m:?}");
    }
}

#[test]
fn gauge_surfaces_in_dmv_and_explain_analyze() {
    let (head, _links) = federation();
    head.set_batch_config(BatchConfig::batched(16));
    head.query(SCAN).unwrap();

    let r = head
        .query("SELECT name, rows, rows_per_round_trip FROM sys.dm_link_stats")
        .unwrap();
    assert_eq!(r.rows.len(), 4, "one row per member link: {r:?}");
    for row in &r.rows {
        match row.get(2) {
            Value::Float(avg) => assert!(
                *avg > 1.0,
                "batched link should average >1 row per trip: {row:?}"
            ),
            other => panic!("rows_per_round_trip not a float: {other:?}"),
        }
    }

    let report = head.execute_analyze(SCAN).unwrap();
    let rendered = report.render();
    assert!(
        rendered.contains("[link batch: avg="),
        "EXPLAIN ANALYZE must show the per-link batch gauge:\n{rendered}"
    );
}

/// A head holding `nation`, with three linked servers behind one metered
/// link each: `remote0` (customer, supplier) and `remote1` (supplier,
/// orders) are SQL engines that take pushed statements; `store` (customer,
/// orders) is an index provider the head scans and seeks by rowset.
fn join_federation() -> (Engine, Vec<NetworkLink>) {
    use rand::SeedableRng;
    let scale = TpchScale::tiny();
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let remote0 = Engine::new("remote0-engine");
    tpch::create_customer(remote0.storage(), &scale, &mut rng).unwrap();
    tpch::create_supplier(remote0.storage(), &scale, &mut rng).unwrap();
    let remote1 = Engine::new("remote1-engine");
    tpch::create_supplier(remote1.storage(), &scale, &mut rng).unwrap();
    tpch::create_orders(remote1.storage(), &scale, &mut rng).unwrap();
    let store = Arc::new(dhqp_storage::StorageEngine::new("store-engine"));
    tpch::create_customer(&store, &scale, &mut rng).unwrap();
    tpch::create_orders(&store, &scale, &mut rng).unwrap();
    for (engine, tables) in [
        (remote0.storage(), ["customer", "supplier"]),
        (remote1.storage(), ["supplier", "orders"]),
        (&store, ["customer", "orders"]),
    ] {
        for table in tables {
            engine.analyze(table, 24).unwrap();
        }
    }
    let head = Engine::new("head");
    tpch::create_nation(head.storage(), &scale).unwrap();
    head.analyze("nation", 8).unwrap();

    let sources: [(&str, Arc<dyn dhqp_oledb::DataSource>); 3] = [
        ("remote0", Arc::new(EngineDataSource::new(remote0))),
        ("remote1", Arc::new(EngineDataSource::new(remote1))),
        ("store", Arc::new(dhqp_storage::LocalDataSource::new(store))),
    ];
    let mut links = Vec::new();
    for (name, source) in sources {
        let link = NetworkLink::new(name, NetworkConfig::lan());
        head.add_linked_server(
            name,
            Arc::new(NetworkedDataSource::reliable(source, link.clone())),
        )
        .unwrap();
        links.push(link);
    }
    // Pin the rewrite on: the suite may run under DHQP_SEMIJOIN=0.
    let mut config = head.optimizer_config();
    config.enable_semijoin = true;
    head.set_optimizer_config(config);
    (head, links)
}

/// Run `sql` at batch size 1 and at 64, each on warm metadata and a warm
/// plan, and return each link's traffic under each.
fn traffic_per_mode(head: &Engine, links: &[NetworkLink], sql: &str) -> [Vec<TrafficSnapshot>; 2] {
    [BatchConfig::batched(1), BatchConfig::batched(64)].map(|mode| {
        head.set_batch_config(mode);
        head.query(sql).unwrap();
        reset(head, links);
        head.query(sql).unwrap();
        measure(head, links)
    })
}

#[test]
fn joins_sorts_and_spools_pull_their_remote_inputs_by_the_batch() {
    let (head, links) = join_federation();
    let default_config = head.optimizer_config();
    // Hash joins priced out and the full search forced: the one way this
    // optimizer picks a merge join over two remote scans.
    let mut merge_config = default_config.clone();
    merge_config.forced_phase = Some(dhqp_optimizer::OptimizationPhase::Full);
    merge_config.cost.hash_build_row = 1000.0;
    merge_config.cost.hash_probe_row = 1000.0;

    // (what the statement is here for, the operators its plan must hold,
    // the optimizer configuration, the statement)
    let statements = [
        (
            "the Fig.-4 three-way join",
            &["HashJoin", "NestedLoopJoin[Cross]", "Spool"][..],
            &default_config,
            "SELECT c.c_name, c.c_address, c.c_phone \
             FROM remote0.t.dbo.customer c, remote0.t.dbo.supplier s, nation n \
             WHERE c.c_nationkey = n.n_nationkey AND n.n_nationkey = s.s_nationkey",
        ),
        (
            "a hash join with a remote build and a remote probe",
            &["HashJoin", "@remote0", "@remote1"][..],
            &default_config,
            "SELECT c.c_name, s.s_name FROM remote0.t.dbo.customer c \
             JOIN remote1.t.dbo.supplier s ON c.c_nationkey = s.s_nationkey",
        ),
        (
            "a merge join",
            &["MergeJoin", "Sort", "RemoteScan"][..],
            &merge_config,
            "SELECT c.c_name, o.o_totalprice FROM store.t.dbo.customer c \
             JOIN store.t.dbo.orders o ON c.c_custkey = o.o_custkey",
        ),
        (
            "a semi-join reduction",
            &["SemiJoinReduce(@remote1 keys=64:"][..],
            &default_config,
            "SELECT n.n_name, o.o_totalprice FROM nation n \
             JOIN remote1.t.dbo.orders o ON n.n_nationkey = o.o_custkey",
        ),
        (
            "ORDER BY over a remote scan",
            &["Sort", "RemoteScan"][..],
            &default_config,
            "SELECT o_orderkey, o_totalprice FROM store.t.dbo.orders ORDER BY o_totalprice",
        ),
        (
            "a spooled nested-loop inner",
            &["NestedLoopJoin[LeftOuter]", "Spool"][..],
            &default_config,
            "SELECT COUNT(*) AS n FROM nation n \
             LEFT OUTER JOIN remote1.t.dbo.supplier s ON s.s_suppkey > n.n_nationkey",
        ),
        (
            "a remote index range",
            &["RemoteRange"][..],
            &default_config,
            "SELECT o_orderkey, o_totalprice FROM store.t.dbo.orders \
             WHERE o_orderkey BETWEEN 10 AND 40",
        ),
    ];
    for (what, operators, config, sql) in statements {
        head.set_optimizer_config(config.clone());
        let plan = head.execute_analyze(sql).unwrap().render();
        for op in operators {
            assert!(plan.contains(op), "{what}: no {op} in\n{plan}");
        }
        let [row, batch] = traffic_per_mode(&head, &links, sql);
        let mut shipped = 0;
        for (link, (r, b)) in links.iter().zip(row.iter().zip(&batch)) {
            let name = link.name();
            assert_eq!(r.rows, b.rows, "{what}: rows on '{name}'");
            assert_eq!(r.bytes, b.bytes, "{what}: bytes on '{name}'");
            assert_eq!(r.requests, b.requests, "{what}: requests on '{name}'");
            assert_eq!(r.batches, r.rows, "{what}: row mode on '{name}'");
            // Every opened rowset ships ⌈rows / 64⌉ batches.
            assert!(
                b.batches <= b.requests + b.rows / 64,
                "{what}: '{name}' was pulled by the row: {b:?}"
            );
            shipped += b.rows;
        }
        assert!(shipped > 1, "{what}: nothing crossed a link");
    }
}

#[test]
fn top_over_a_remote_filter_ships_the_same_rows_at_any_batch_size() {
    // TOP asks its child for no more than it still needs and the filter
    // passes that on, so the scan stops at the fifth qualifying row whether
    // rows are asked for one at a time or sixty-four.
    let (head, links) = join_federation();
    // A prefetcher reads ahead of any demand; that is what it is for.
    head.set_parallel_config(ParallelConfig::serial());
    let sql = "SELECT TOP 5 c_custkey, c_name FROM store.t.dbo.customer WHERE c_acctbal > 5000";
    let plan = head.execute_analyze(sql).unwrap().render();
    for op in ["Top", "Filter", "RemoteScan"] {
        assert!(plan.contains(op), "no {op} in\n{plan}");
    }
    let [row, batch] = traffic_per_mode(&head, &links, sql);
    let (row, batch) = (&row[2], &batch[2]);
    assert_eq!((row.rows, row.bytes), (batch.rows, batch.bytes));
    let customers = TpchScale::tiny().customers as u64;
    assert!(
        row.rows > 5 && row.rows < customers,
        "the filter must reject some rows and TOP must stop the scan: {row:?}"
    );
    assert!(batch.batches < batch.rows, "{batch:?}");
}

#[test]
fn top_over_a_nested_loop_join_overships_less_than_n_outer_rows() {
    // The demand rule on a join: the outer side is asked for as many rows
    // as the caller still wants. One outer row can fill TOP n by itself, so
    // up to n − 1 of them may cross the link for nothing — never more.
    const N: u64 = 4;
    let (head, links) = join_federation();
    head.set_parallel_config(ParallelConfig::serial());
    let sql = "SELECT TOP 4 c.c_custkey, n.n_name FROM store.t.dbo.customer c, nation n \
               WHERE c.c_nationkey >= n.n_nationkey";
    let plan = head.execute_analyze(sql).unwrap().render();
    let outer = plan.find("RemoteScan").expect("remote outer");
    let inner = plan.find("Spool").expect("spooled local inner");
    assert!(
        plan.contains("NestedLoopJoin[Inner]") && outer < inner,
        "{plan}"
    );
    let [row, batch] = traffic_per_mode(&head, &links, sql);
    let (needed, shipped) = (row[2].rows, batch[2].rows);
    assert!(needed >= 1, "{row:?}");
    assert!(
        needed <= shipped && shipped < needed + N,
        "needed {needed} outer rows, shipped {shipped}"
    );
}
