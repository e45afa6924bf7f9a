//! Parallel remote execution (§4.1.5): a union opened with parallel
//! dispatch on runs DPV member branches on exchange workers, prefetching
//! overlaps remote fetches with consumption, and errors from any branch
//! surface unchanged. The plan is the same in both dispatch modes.

use dhqp::{Engine, EngineDataSource, ParallelConfig};
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
use dhqp_oledb::{
    Command, CommandLayer, CommandVerb, DataSource, IterRowset, Reply, Rowset, Session,
    SessionLayer, SourceLayer, TrafficSnapshot, Verb,
};
use dhqp_types::{DhqpError, Result, Row, Value};
use dhqp_workload::tpch::{self, TpchScale};
use std::sync::Arc;

/// Head engine federating four remote members that hold all seven
/// `lineitem_9x` partitions; `wrap` lets a test decorate each member's
/// data source (e.g. to inject faults) before it goes behind its link.
fn federation_with(
    wrap: impl Fn(Arc<dyn DataSource>, usize) -> Arc<dyn DataSource>,
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
        let inner = wrap(Arc::new(EngineDataSource::new(m.clone())), i);
        head.add_linked_server(
            &format!("member{}", i + 1),
            Arc::new(NetworkedDataSource::new(inner, link.clone())),
        )
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
    federation_with(|ds, _| ds)
}

/// Rows of a result as sorted value vectors (bag comparison independent of
/// delivery order, which an exchange does not preserve).
fn multiset(rows: &[Row], width: usize) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = rows
        .iter()
        .map(|r| (0..width).map(|i| r.get(i).clone()).collect())
        .collect();
    out.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    out
}

const SCAN: &str = "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem_all";

#[test]
fn parallel_dpv_union_matches_serial_multiset() {
    let (head, _links) = federation();
    let scale = TpchScale::tiny();

    head.set_parallel_config(ParallelConfig::serial());
    let serial_plan = head.explain(SCAN).unwrap().plan_text;
    assert!(serial_plan.contains("UnionAll"), "{serial_plan}");
    let serial = head.query(SCAN).unwrap();
    assert_eq!(serial.len(), scale.orders * scale.lineitems_per_order);

    head.set_parallel_config(ParallelConfig::parallel());
    let parallel_plan = head.explain(SCAN).unwrap().plan_text;
    assert_eq!(
        parallel_plan, serial_plan,
        "dispatch is decided where the union opens, not in the plan"
    );
    let before = head.metrics().parallel_exchanges;
    let parallel = head.query(SCAN).unwrap();
    assert_eq!(head.metrics().parallel_exchanges, before + 1);

    assert_eq!(multiset(&serial.rows, 3), multiset(&parallel.rows, 3));
}

#[test]
fn exchange_reports_workers_and_traffic_stays_exact() {
    let (head, links) = federation();
    // Warm the metadata cache so both measured runs bind identically.
    head.set_parallel_config(ParallelConfig::serial());
    head.query(SCAN).unwrap();

    let measure = |links: &[NetworkLink]| -> Vec<TrafficSnapshot> {
        links.iter().map(NetworkLink::snapshot).collect()
    };

    for l in &links {
        l.reset();
    }
    head.execute_analyze(SCAN).unwrap();
    let serial_traffic = measure(&links);
    let total_rows: u64 = serial_traffic.iter().map(|t| t.rows).sum();
    let scale = TpchScale::tiny();
    assert_eq!(
        total_rows,
        (scale.orders * scale.lineitems_per_order) as u64
    );

    head.set_parallel_config(ParallelConfig::parallel());
    for l in &links {
        l.reset();
    }
    let report = head.execute_analyze(SCAN).unwrap();
    let parallel_traffic = measure(&links);

    // Concurrency must not change what crosses each wire: per-link request,
    // row and byte counts are identical to the serial execution.
    assert_eq!(serial_traffic, parallel_traffic);

    // The report carries the exchange runtime: seven branches, one worker
    // each (under the default eight-worker cap).
    let exchange = report
        .record
        .operators
        .iter()
        .find_map(|op| op.runtime.as_ref()?.exchange.clone())
        .expect("parallel run records exchange runtime");
    assert_eq!(exchange.workers, 7);
    let rendered = report.render();
    assert!(rendered.contains("UnionAll"), "{rendered}");
    assert!(rendered.contains("[exchange: workers=7"), "{rendered}");

    // A worker drains the member stream it opened: no prefetcher relays it.
    let m = head.metrics();
    assert!(m.parallel_exchanges >= 1, "{m:?}");
    assert!(m.exchange_workers >= 7, "{m:?}");
    assert_eq!(m.remote_prefetches, 0, "{m:?}");

    // A lone remote read is consumed by the statement's own thread, so it
    // keeps its one prefetcher.
    head.reset_metrics();
    let one_year = "SELECT l_orderkey FROM lineitem_all WHERE l_commitdate < '1993-01-01'";
    assert!(!head.query(one_year).unwrap().is_empty());
    let m = head.metrics();
    assert_eq!((m.exchange_workers, m.remote_prefetches), (0, 1), "{m:?}");
}

#[test]
fn a_four_member_range_opens_one_thread_per_member() {
    // Four years on four members: one exchange worker each, and the worker
    // reads its member's stream itself (eight threads when each stream had
    // a prefetcher of its own).
    let (head, _links) = federation();
    head.set_parallel_config(ParallelConfig::parallel());
    let range = "SELECT l_orderkey, l_quantity FROM lineitem_all \
                 WHERE l_commitdate >= '1993-01-01' AND l_commitdate < '1997-01-01'";
    let serial = {
        head.set_parallel_config(ParallelConfig::serial());
        head.query(range).unwrap()
    };
    head.set_parallel_config(ParallelConfig::parallel());
    head.reset_metrics();
    let parallel = head.query(range).unwrap();
    let m = head.metrics();
    assert_eq!(m.parallel_exchanges, 1, "{m:?}");
    assert_eq!(m.exchange_workers + m.remote_prefetches, 4, "{m:?}");
    assert!(!serial.is_empty());
    assert_eq!(multiset(&serial.rows, 2), multiset(&parallel.rows, 2));
}

#[test]
fn a_cached_plan_survives_the_parallel_flip() {
    // Flipping the switch changes how a union opens, not what was
    // compiled: the plan cached under serial dispatch serves the parallel
    // run, and the one after it back under serial dispatch.
    let (head, _links) = federation();
    let rows = TpchScale::tiny().orders * TpchScale::tiny().lineitems_per_order;
    head.set_plan_cache_enabled(true);
    head.set_parallel_config(ParallelConfig::serial());
    assert_eq!(head.query(SCAN).unwrap().len(), rows);

    for (parallel, exchanges) in [
        (ParallelConfig::parallel(), 1),
        (ParallelConfig::serial(), 0),
    ] {
        head.set_parallel_config(parallel);
        let before = head.metrics();
        assert_eq!(head.query(SCAN).unwrap().len(), rows);
        let after = head.metrics();
        assert_eq!(after.plan_cache_hits, before.plan_cache_hits + 1);
        assert_eq!(after.plan_cache_misses, before.plan_cache_misses);
        assert_eq!(
            after.parallel_exchanges,
            before.parallel_exchanges + exchanges
        );
    }
}

// --- fault injection -------------------------------------------------------

/// Decorates a member so every rowset it serves fails after `fail_after`
/// rows, as a dropped connection mid-stream would.
struct FaultySource {
    inner: Arc<dyn DataSource>,
    fail_after: usize,
}

const FAULT: &str = "simulated link reset mid-stream";

impl SourceLayer for FaultySource {
    fn inner(&self) -> &dyn DataSource {
        &*self.inner
    }

    fn session(&self) -> Result<Box<dyn Session>> {
        Ok(Box::new(FaultySession {
            inner: self.inner.create_session()?,
            fail_after: self.fail_after,
        }))
    }
}

struct FaultySession {
    inner: Box<dyn Session>,
    fail_after: usize,
}

impl SessionLayer for FaultySession {
    fn call(&mut self, verb: Verb<'_>) -> Result<Reply> {
        Ok(match verb.send(&mut *self.inner)? {
            Reply::Rowset(rs) => Reply::Rowset(faulty(rs, self.fail_after)),
            Reply::Command(inner) => Reply::Command(Box::new(FaultyCommand {
                inner,
                fail_after: self.fail_after,
            })),
            reply => reply,
        })
    }
}

struct FaultyCommand {
    inner: Box<dyn Command>,
    fail_after: usize,
}

impl CommandLayer for FaultyCommand {
    fn call(&mut self, verb: CommandVerb<'_>) -> Result<Reply> {
        Ok(match verb.send(&mut *self.inner)? {
            Reply::Rowset(rs) => Reply::Rowset(faulty(rs, self.fail_after)),
            reply => reply,
        })
    }
}

/// The first `fail_after` rows of `inner`, then the connection drops.
fn faulty(mut inner: Box<dyn Rowset>, fail_after: usize) -> Box<dyn Rowset> {
    let schema = inner.schema().clone();
    let rows = std::iter::from_fn(move || inner.next().transpose());
    let dropped = Err(DhqpError::Provider(FAULT.into()));
    Box::new(IterRowset::new(
        schema,
        rows.take(fail_after).chain([dropped]),
    ))
}

#[test]
fn branch_fault_surfaces_original_error_through_exchange() {
    // Member 3 drops its connection three rows into every result stream.
    let (head, _links) = federation_with(|ds, i| {
        if i == 2 {
            Arc::new(FaultySource {
                inner: ds,
                fail_after: 3,
            })
        } else {
            ds
        }
    });
    head.set_parallel_config(ParallelConfig::parallel());

    let err = head.query(SCAN).unwrap_err();
    assert_eq!(err.kind(), "provider", "{err}");
    assert!(err.message().contains(FAULT), "{err}");

    // The failure cancels cleanly: healthy members still answer afterwards.
    let r = head
        .query("SELECT l_orderkey FROM lineitem_all WHERE l_commitdate < '1993-01-01'")
        .unwrap();
    assert!(!r.is_empty());
}

/// Two linked servers behind one shared link that really sleeps, read by a
/// union whose branches run on exchange workers at once: each remote read
/// is charged only what its own calls put on the link, so the statement's
/// record — and the Query Store's totals over its runs — add up to exactly
/// what crossed it (DESIGN.md §25).
#[test]
fn concurrent_reads_on_one_link_are_each_charged_their_own_traffic() {
    use dhqp::{BatchConfig, TraceConfig};
    use dhqp_storage::TableDef;
    use dhqp_types::{Column, DataType, Schema};

    let head = Engine::new("head");
    let link = NetworkLink::new("shared", NetworkConfig::lan_timed());
    for name in ["m1", "m2"] {
        let member = Engine::new(format!("{name}-engine"));
        let schema = Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::not_null("payload", DataType::Str),
        ]);
        member.create_table(TableDef::new("t", schema)).unwrap();
        let rows: Vec<Row> = (0..200)
            .map(|i| Row::new(vec![Value::Int(i), Value::Str(format!("{name}-{i:04}"))]))
            .collect();
        member.storage().insert_rows("t", &rows).unwrap();
        let source = EngineDataSource::new(member);
        let wired = NetworkedDataSource::reliable(Arc::new(source), link.clone());
        head.add_linked_server(name, Arc::new(wired)).unwrap();
    }
    head.set_parallel_config(ParallelConfig::parallel());
    head.set_batch_config(BatchConfig::batched(8));
    head.set_trace_config(TraceConfig::enabled());
    head.set_query_store_enabled(true);
    let sql = "SELECT id, payload FROM m1.db.dbo.t UNION ALL SELECT id, payload FROM m2.db.dbo.t";
    head.query(sql).unwrap(); // metadata and pooled sessions, fetched once
    head.clear_query_store();

    let exchanges = head.metrics().parallel_exchanges;
    let mut crossed = (0, 0);
    for _ in 0..5 {
        let before = link.snapshot();
        let (result, record) = head.execute_recorded(sql, Default::default());
        assert_eq!(result.unwrap().len(), 400);
        let delta = link.snapshot().since(&before);
        assert_eq!(record.link_traffic(), (delta.bytes, delta.requests));
        crossed = (crossed.0 + delta.bytes, crossed.1 + delta.requests);
    }
    assert_eq!(head.metrics().parallel_exchanges, exchanges + 5);
    let queries = head.query_store_queries();
    let plans: Vec<_> = queries.iter().flat_map(|q| &q.plans).collect();
    assert_eq!(plans.len(), 1, "{plans:?}");
    let stored = (plans[0].total_link_bytes, plans[0].total_link_requests);
    assert_eq!((plans[0].executions, stored), (5, crossed));
}
