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
    reference.set_batch_config(BatchConfig::row_at_a_time());
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
    head.set_batch_config(BatchConfig::row_at_a_time());
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
    head.set_batch_config(BatchConfig::row_at_a_time());
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
