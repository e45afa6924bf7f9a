//! Fault injection and retry: a flaky WAN must not change query answers.
//!
//! The seeded [`FaultConfig`] plans injected below the provider seam by
//! `NetworkedDataSource` are deterministic, so every run of this file sees
//! the same fault schedule. The executor's [`RetryPolicy`] absorbs the
//! transient faults; the assertions check the paper-level property that a
//! retried distributed scan is indistinguishable from a fault-free one.

use dhqp::{DegradedMode, Engine, EngineDataSource, FaultConfig, ParallelConfig, RetryPolicy};
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
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

/// Rows as sorted value vectors: bag equality independent of delivery order.
fn multiset(rows: &[Row], width: usize) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = rows
        .iter()
        .map(|r| (0..width).map(|i| r.get(i).clone()).collect())
        .collect();
    out.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    out
}

const SCAN: &str = "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem_all";

fn fast_retries() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        attempt_deadline: None,
        query_deadline: None,
    }
}

#[test]
fn flaky_wan_scan_matches_fault_free_run() {
    // Baseline: the same federation with no faults armed.
    let (clean, _clean_links) = federation_with_faults(|_| None);
    let expected = clean.query(SCAN).unwrap();
    let scale = TpchScale::tiny();
    assert_eq!(expected.len(), scale.orders * scale.lineitems_per_order);

    // Acceptance plan: exactly one transient command error per link.
    let (head, links) = federation_with_faults(|_| Some(FaultConfig::one_transient_per_link(42)));
    head.set_retry_policy(fast_retries());
    let flaky = head.query(SCAN).unwrap();
    assert_eq!(
        multiset(&expected.rows, 3),
        multiset(&flaky.rows, 3),
        "retried scan must be indistinguishable from the fault-free run"
    );

    // Every link injected its budgeted fault, and each injection shows up
    // as a transient error plus a retry in the engine metrics.
    let faults: u64 = links.iter().map(NetworkLink::faults_injected).sum();
    assert_eq!(faults, links.len() as u64, "one fault per link");
    let m = head.metrics();
    assert_eq!(m.remote_transient_errors, faults);
    assert_eq!(m.remote_retries, faults);
    assert_eq!(m.remote_deadline_hits, 0);

    // The wire tally still reports per-link traffic alongside the faults.
    for link in &links {
        let t = link.snapshot();
        assert!(t.requests > 0, "link {} saw no requests", link.name());
        assert!(t.rows > 0, "link {} shipped no rows", link.name());
    }
}

#[test]
fn parallel_and_serial_runs_agree_under_faults() {
    let (clean, _links) = federation_with_faults(|_| None);
    let expected = clean.query(SCAN).unwrap();

    // Fresh fault budget for each execution mode (budgets are per plan, so
    // build one federation per mode instead of reusing a drained one).
    for parallel in [false, true] {
        let (head, _links) =
            federation_with_faults(|_| Some(FaultConfig::one_transient_per_link(7)));
        head.set_retry_policy(fast_retries());
        head.set_parallel_config(if parallel {
            ParallelConfig::parallel()
        } else {
            ParallelConfig::serial()
        });
        let got = head.query(SCAN).unwrap();
        assert_eq!(
            multiset(&expected.rows, 3),
            multiset(&got.rows, 3),
            "parallel={parallel}"
        );
        assert!(head.metrics().remote_retries > 0, "parallel={parallel}");
    }
}

#[test]
fn mid_stream_drop_rewinds_without_duplicating_rows() {
    let (clean, _links) = federation_with_faults(|_| None);
    let expected = clean.query(SCAN).unwrap();

    // Member 2 drops one result stream mid-flight; the retry layer re-opens
    // and skips the rows already delivered.
    let (head, links) = federation_with_faults(|i| {
        (i == 1).then(|| FaultConfig {
            seed: 9,
            stream_drops: 1.0,
            max_faults: 1,
            ..FaultConfig::none()
        })
    });
    head.set_retry_policy(fast_retries());
    let got = head.query(SCAN).unwrap();
    assert_eq!(multiset(&expected.rows, 3), multiset(&got.rows, 3));
    assert_eq!(links[1].faults_injected(), 1);
    assert_eq!(head.metrics().remote_retries, 1);
}

#[test]
fn permanent_failure_surfaces_original_error_with_attempt_count() {
    // Member 3's link fails every command, forever (no fault budget).
    let (head, _links) = federation_with_faults(|i| {
        (i == 2).then(|| FaultConfig {
            seed: 5,
            command_errors: 1.0,
            ..FaultConfig::none()
        })
    });
    // Pin the policy: under DHQP_DEGRADED=prune this give-up would be
    // planned around instead of surfaced.
    head.set_degraded_mode(DegradedMode::Fail);
    head.set_retry_policy(fast_retries());
    let err = head.query(SCAN).unwrap_err();
    assert_eq!(err.kind(), "unavailable", "{err}");
    assert!(
        err.message().contains("giving up after 3 attempts"),
        "{err}"
    );
    let m = head.metrics();
    assert!(m.remote_transient_errors >= 3, "{m:?}");

    // Healthy members still answer afterwards.
    let r = head
        .query("SELECT l_orderkey FROM lineitem_all WHERE l_commitdate < '1993-01-01'")
        .unwrap();
    assert!(!r.is_empty());
}

#[test]
fn stalls_convert_to_timeouts_and_count_deadline_hits() {
    let (head, _links) = federation_with_faults(|i| {
        (i == 0).then(|| FaultConfig {
            seed: 3,
            stalls: 1.0,
            stall_ms: 30,
            ..FaultConfig::none()
        })
    });
    head.set_degraded_mode(DegradedMode::Fail);
    head.set_retry_policy(RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        attempt_deadline: Some(Duration::from_millis(5)),
        query_deadline: None,
    });
    let err = head.query(SCAN).unwrap_err();
    assert_eq!(err.kind(), "timeout", "{err}");
    let m = head.metrics();
    assert!(m.remote_deadline_hits >= 1, "{m:?}");
}

#[test]
fn explain_analyze_renders_per_node_retries() {
    let (head, _links) = federation_with_faults(|_| Some(FaultConfig::one_transient_per_link(11)));
    head.set_retry_policy(fast_retries());
    let report = head.execute_analyze(SCAN).unwrap();
    let rendered = report.render();
    assert!(rendered.contains("[retries=1]"), "{rendered}");
    let runtimes = report.record.operators.iter().flat_map(|op| &op.runtime);
    let retried: u64 = runtimes.map(|rt| rt.retries).sum();
    assert_eq!(retried, 4, "one retry per member link:\n{rendered}");
}
