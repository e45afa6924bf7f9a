//! The federation every workload runs against, and the un-federated oracle
//! holding the same rows in one engine.
//!
//! Layout (paper Example 1 + §4.1.5):
//!
//! * `head` — the engine statements are sent to. Local `nation`, `region`,
//!   `orders`, `dim` and the full-text-indexed `docs`.
//! * `remote0` — `customer`, `supplier` and the wide `fact` table (the
//!   engine lives on inside its `EngineDataSource`).
//! * `member1..4` — the seven yearly `lineitem_YY` tables (round-robin) and
//!   one `accounts_N` range each; the head defines `lineitem_all` and
//!   `accounts_all` over them.
//!
//! Data seeds are constants: `--seed` varies the statements, never the
//! tables, so expected answers move only with the literals.

use dhqp::{
    BatchConfig, BreakerConfig, DegradedMode, Engine, EngineBuilder, EngineDataSource, EventConfig,
    OptimizerConfig, ParallelConfig, PlanCacheConfig, QueryStoreConfig, RetryPolicy, TraceConfig,
};
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource, TrafficSnapshot};
use dhqp_oledb::DataSource;
use dhqp_storage::{StorageEngine, TableDef};
use dhqp_types::{Column, DataType, IntervalSet, Row, Schema, Value};
use dhqp_workload::accounts::create_account_partition;
use dhqp_workload::docs::generate_documents;
use dhqp_workload::tpch::{self, TpchScale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// Number of member servers behind `lineitem_all` / `accounts_all`.
pub const MEMBERS: usize = 4;
/// Opening balance of every account.
pub const OPENING_BALANCE: i64 = 1_000;
/// Keys per `dim.grp` group — the semi-join build side of one probe.
pub const DIM_GROUP: i64 = 16;

/// Data sizes. `full` is the scale EXPERIMENTS.md uses; `smoke` keeps the
/// crate's own tests under ten seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub name: &'static str,
    pub tpch: TpchScale,
    pub accounts_per_member: i64,
    pub docs: usize,
    pub dim_keys: i64,
    pub fact_rows: i64,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            name: "full",
            tpch: TpchScale::small(),
            accounts_per_member: 2_500,
            docs: 2_000,
            dim_keys: 512,
            fact_rows: 8_192,
        }
    }

    pub fn smoke() -> Self {
        Scale {
            name: "smoke",
            tpch: TpchScale {
                nations: 25,
                customers: 300,
                suppliers: 40,
                orders: 400,
                lineitems_per_order: 4,
            },
            accounts_per_member: 100,
            docs: 120,
            dim_keys: 64,
            fact_rows: 512,
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "full" => Some(Scale::full()),
            "smoke" => Some(Scale::smoke()),
            _ => None,
        }
    }

    pub fn is_full(&self) -> bool {
        self.name == "full"
    }

    pub fn accounts(&self) -> i64 {
        self.accounts_per_member * MEMBERS as i64
    }

    pub fn lineitems(&self) -> usize {
        self.tpch.orders * self.tpch.lineitems_per_order
    }

    /// One line for the run header.
    pub fn describe(&self) -> String {
        format!(
            "scale={} customers={} suppliers={} orders={} lineitems={} (7 yearly members on {} servers) \
             accounts={} (over {} members) docs={} dim={} fact={}",
            self.name,
            self.tpch.customers,
            self.tpch.suppliers,
            self.tpch.orders,
            self.lineitems(),
            MEMBERS,
            self.accounts(),
            MEMBERS,
            self.docs,
            self.dim_keys,
            self.fact_rows
        )
    }
}

/// The harness-side knobs of one fixture; everything a sensitivity run may
/// perturb without touching engine code.
#[derive(Debug, Clone)]
pub struct FixtureConfig {
    pub scale: Scale,
    pub link: NetworkConfig,
    pub parallel: ParallelConfig,
}

/// Links that really sleep: `latency_us` per round trip, 20 000 B/ms.
pub fn wan_links(latency_us: u64) -> NetworkConfig {
    NetworkConfig {
        latency_us,
        bytes_per_ms: 20_000,
        simulate_delay: true,
    }
}

/// Remove every `DHQP_*` variable so no knob silently follows the caller's
/// environment. Call before the first engine is built.
pub fn scrub_env() {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DHQP_"))
        .collect();
    for name in names {
        std::env::remove_var(name);
    }
}

/// An engine with every knob spelled out at its shipped default, except
/// `stats_ttl` (1 h, so no compile depends on the wall clock) and the
/// caller's `parallel` choice.
pub fn build_engine(name: &str, parallel: ParallelConfig) -> Engine {
    let optimizer = OptimizerConfig {
        enable_semijoin: true,
        semijoin_max_keys: 64,
        ..OptimizerConfig::default()
    };
    EngineBuilder::new(name)
        .optimizer_config(optimizer)
        // After optimizer_config: this also sets enable_parallel_union.
        .parallel_config(parallel)
        .retry_policy(RetryPolicy::standard())
        .batch_config(BatchConfig::batched(dhqp_executor::DEFAULT_BATCH_SIZE))
        .plan_cache_config(PlanCacheConfig::default())
        .stats_ttl(Duration::from_secs(3600))
        .recent_query_capacity(dhqp::metrics::RECENT_QUERY_CAPACITY)
        .slow_query_threshold(None)
        .trace_config(TraceConfig::disabled())
        .event_config(EventConfig::disabled())
        .breaker_config(BreakerConfig::standard())
        .degraded_mode(DegradedMode::Fail)
        .runtime_prune(true)
        .query_store_config(QueryStoreConfig::default())
        .card_feedback(false)
        .build()
}

/// Hook letting the traced run put a wrapper on both sides of each link.
/// `inner` wraps the provider before the link, `outer` wraps the
/// `NetworkedDataSource` after it; the untraced run passes identities.
pub trait SourceWrap {
    fn inner(&self, server: &str, source: Arc<dyn DataSource>) -> Arc<dyn DataSource>;
    fn outer(&self, server: &str, source: Arc<dyn DataSource>) -> Arc<dyn DataSource>;
}

/// No wrappers: the fixture end-to-end runs measure.
pub struct Unwrapped;

impl SourceWrap for Unwrapped {
    fn inner(&self, _: &str, source: Arc<dyn DataSource>) -> Arc<dyn DataSource> {
        source
    }
    fn outer(&self, _: &str, source: Arc<dyn DataSource>) -> Arc<dyn DataSource> {
        source
    }
}

pub struct Federation {
    pub head: Engine,
    pub members: Vec<Engine>,
    /// `remote0` first, then `member1..4`.
    pub links: Vec<NetworkLink>,
    pub scale: Scale,
}

impl Federation {
    pub fn build(config: &FixtureConfig, wrap: &dyn SourceWrap) -> Federation {
        let scale = config.scale;
        let head = build_engine("head", config.parallel.clone());
        let remote0 = build_engine("remote0-engine", ParallelConfig::serial());
        let members: Vec<Engine> = (1..=MEMBERS)
            .map(|i| build_engine(&format!("member{i}-engine"), ParallelConfig::serial()))
            .collect();

        load_head_tables(&head, &scale);
        load_remote0_tables(remote0.storage(), &scale);
        let member_storage: Vec<&StorageEngine> =
            members.iter().map(|m| m.storage().as_ref()).collect();
        let lineitem_members = tpch::create_lineitem_partitions(&member_storage, &scale.tpch, 17)
            .expect("lineitem partitions");
        let account_members = load_accounts(&member_storage, &scale);

        let mut links = Vec::new();
        let mut link_up = |server: &str, engine: &Engine| {
            let link = NetworkLink::new(server, config.link);
            let provider = wrap.inner(server, Arc::new(EngineDataSource::new(engine.clone())));
            // `reliable`: no fault plan, whatever the environment says.
            let wired = wrap.outer(
                server,
                Arc::new(NetworkedDataSource::reliable(provider, link.clone())),
            );
            head.add_linked_server(server, wired)
                .expect("linked server");
            links.push(link);
        };
        link_up("remote0", &remote0);
        for (i, member) in members.iter().enumerate() {
            link_up(&format!("member{}", i + 1), member);
        }

        let on_member = |(idx, table, domain): (usize, String, IntervalSet)| {
            (Some(format!("member{}", idx + 1)), table, domain)
        };
        head.define_partitioned_view(
            "lineitem_all",
            "l_commitdate",
            lineitem_members.into_iter().map(on_member).collect(),
        )
        .expect("lineitem_all");
        head.define_partitioned_view(
            "accounts_all",
            "id",
            account_members.into_iter().map(on_member).collect(),
        )
        .expect("accounts_all");

        Federation {
            head,
            members,
            links,
            scale,
        }
    }

    /// Σ over links of the wire counters.
    pub fn traffic(&self) -> TrafficSnapshot {
        self.links
            .iter()
            .map(NetworkLink::snapshot)
            .fold(TrafficSnapshot::default(), |a, b| a + b)
    }

    pub fn faults_injected(&self) -> u64 {
        self.links.iter().map(NetworkLink::faults_injected).sum()
    }

    /// Σ `balance` read straight from member storage (the 2PC invariant's
    /// second witness, independent of the view).
    pub fn stored_balance(&self) -> i64 {
        let tables: Vec<String> = (0..MEMBERS).map(|i| format!("accounts_{i}")).collect();
        let pairs: Vec<(&StorageEngine, &str)> = self
            .members
            .iter()
            .zip(&tables)
            .map(|(m, t)| (m.storage().as_ref(), t.as_str()))
            .collect();
        dhqp_workload::accounts::total_balance(&pairs).expect("member balances")
    }
}

/// The oracle: one engine, every table local, the two views defined over
/// local members. Federated SQL maps onto it by dropping the four-part
/// prefixes (see [`oracle_sql`]).
pub fn build_oracle(scale: &Scale) -> Engine {
    let oracle = build_engine("oracle", ParallelConfig::serial());
    load_head_tables(&oracle, scale);
    load_remote0_tables(oracle.storage(), scale);
    let storage = oracle.storage().as_ref();
    let lineitem_members =
        tpch::create_lineitem_partitions(&[storage], &scale.tpch, 17).expect("lineitem partitions");
    let account_members = load_accounts(&[storage], scale);
    let local = |(_, table, domain): (usize, String, IntervalSet)| (None, table, domain);
    oracle
        .define_partitioned_view(
            "lineitem_all",
            "l_commitdate",
            lineitem_members.into_iter().map(local).collect(),
        )
        .expect("lineitem_all");
    oracle
        .define_partitioned_view(
            "accounts_all",
            "id",
            account_members.into_iter().map(local).collect(),
        )
        .expect("accounts_all");
    oracle
}

/// Four-part prefix of `remote0`'s tables in federated statements.
pub const REMOTE0: &str = "remote0.tpch.dbo.";

/// The oracle's spelling of a federated statement.
pub fn oracle_sql(sql: &str) -> String {
    sql.replace(REMOTE0, "")
}

fn load_head_tables(engine: &Engine, scale: &Scale) {
    let storage = engine.storage();
    let mut rng = StdRng::seed_from_u64(13);
    tpch::create_region(storage).expect("region");
    tpch::create_nation(storage, &scale.tpch).expect("nation");
    tpch::create_orders(storage, &scale.tpch, &mut rng).expect("orders");

    engine
        .create_table(
            TableDef::new(
                "dim",
                Schema::new(vec![
                    Column::not_null("id", DataType::Int),
                    Column::not_null("grp", DataType::Int),
                ]),
            )
            .with_index("pk_dim", &["id"], true)
            .with_index("ix_dim_grp", &["grp"], false),
        )
        .expect("dim");
    let dim: Vec<Row> = (0..scale.dim_keys)
        .map(|id| Row::new(vec![Value::Int(id), Value::Int(id / DIM_GROUP)]))
        .collect();
    storage.insert_rows("dim", &dim).expect("dim rows");

    engine
        .create_table(
            TableDef::new(
                "docs",
                Schema::new(vec![
                    Column::not_null("id", DataType::Int),
                    Column::not_null("doc_type", DataType::Str),
                    Column::new("body", DataType::Str),
                ]),
            )
            .with_index("pk_docs", &["id"], true),
        )
        .expect("docs");
    let docs: Vec<Row> = generate_documents(scale.docs, 29)
        .into_iter()
        .enumerate()
        .map(|(i, d)| {
            Row::new(vec![
                Value::Int(i as i64),
                Value::Str(d.doc_type),
                Value::Str(d.raw),
            ])
        })
        .collect();
    storage.insert_rows("docs", &docs).expect("docs rows");
    engine
        .create_fulltext_index("docs", "id", "body", "docs_ft")
        .expect("docs full-text index");

    for (table, buckets) in [
        ("region", 8),
        ("nation", 8),
        ("orders", 24),
        ("dim", 32),
        ("docs", 24),
    ] {
        engine.analyze(table, buckets).expect("analyze");
    }
}

fn load_remote0_tables(storage: &StorageEngine, scale: &Scale) {
    let mut rng = StdRng::seed_from_u64(11);
    tpch::create_customer(storage, &scale.tpch, &mut rng).expect("customer");
    tpch::create_supplier(storage, &scale.tpch, &mut rng).expect("supplier");
    storage
        .create_table(
            TableDef::new(
                "fact",
                Schema::new(vec![
                    Column::not_null("id", DataType::Int),
                    Column::new("val", DataType::Str),
                ]),
            )
            .with_index("ix_fact_id", &["id"], false),
        )
        .expect("fact");
    let fact: Vec<Row> = (0..scale.fact_rows)
        .map(|i| {
            Row::new(vec![
                Value::Int(i % scale.dim_keys),
                Value::Str(format!("payload-{i:05}-{}", "x".repeat(96))),
            ])
        })
        .collect();
    storage.insert_rows("fact", &fact).expect("fact rows");
    for (table, buckets) in [("customer", 24), ("supplier", 24), ("fact", 32)] {
        storage.analyze(table, buckets).expect("analyze");
    }
}

/// `accounts_N` on engine `N % engines.len()`, ids `[N·apm, (N+1)·apm)`.
fn load_accounts(engines: &[&StorageEngine], scale: &Scale) -> Vec<(usize, String, IntervalSet)> {
    (0..MEMBERS)
        .map(|i| {
            let engine_idx = i % engines.len();
            let table = format!("accounts_{i}");
            let lo = i as i64 * scale.accounts_per_member;
            let domain = create_account_partition(
                engines[engine_idx],
                &table,
                lo,
                lo + scale.accounts_per_member - 1,
                OPENING_BALANCE,
            )
            .expect("accounts partition");
            engines[engine_idx].analyze(&table, 16).expect("analyze");
            (engine_idx, table, domain)
        })
        .collect()
}
