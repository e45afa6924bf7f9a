//! The engine: catalog, query pipeline and public API.

use crate::analyze::{text_result, AnalyzeReport};
use crate::binder::{Binder, FetchedTable};
use crate::dml;
use crate::dmv::{SysDataSource, SYS_SERVER};
use crate::events::{Event, EventBus, EventConfig, EventSink};
use crate::metrics::{
    EngineMetrics, MetricsSnapshot, QuerySummary, StatementKind, StatementTags,
    RECENT_QUERY_CAPACITY,
};
use crate::plan_cache::{self, CacheDeps, CachedSelect, PlanCache, PlanCacheConfig};
use crate::query_store::{self, ExecutionObservation, QueryStats, QueryStore, QueryStoreConfig};
use crate::result::QueryResult;
use crate::trace::{QueryTrace, TraceBuilder, TraceConfig};
use dhqp_dtc::TransactionCoordinator;
use dhqp_executor::{
    BatchConfig, BreakerConfig, DegradedMode, ExecContext, HealthRegistry, LinkHealthSnapshot,
    NodeRuntime, ParallelConfig, PruneLog, RetryPolicy, RuntimeStatsCollector, SourceCatalog,
};
use dhqp_federation::{LinkedServerRegistry, MemberTable, PartitionedView};
use dhqp_fulltext::SearchService;
use dhqp_oledb::{
    emit_event, has_hook, install_scope, record_wait, timed_wait, ActivityScope, DataSource,
    EventHook, RowsetExt, ScopeGuard, TableStatistics, WaitClass, WaitSnapshot, WaitStats,
};
use dhqp_optimizer::explain::ExplainPlan;
use dhqp_optimizer::{Optimizer, OptimizerConfig, PhysNode, PhysicalOp};
use dhqp_sqlfront::{fingerprint, parse_statement, SelectStmt, Statement, AUTO_PARAM_PREFIX};
use dhqp_storage::{LocalDataSource, StorageEngine, TableDef};
use dhqp_types::{DhqpError, IntervalSet, Result, Row, Schema, Value};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The distributed/heterogeneous query processor. Cheap to clone; clones
/// share all state.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<Inner>,
}

pub(crate) struct Inner {
    name: String,
    storage: Arc<StorageEngine>,
    local_source: Arc<LocalDataSource>,
    registry: RwLock<LinkedServerRegistry>,
    views: RwLock<HashMap<String, PartitionedView>>,
    fulltext: Arc<SearchService>,
    /// `(table, column)` → `(catalog, key column)` full-text bindings.
    ft_bindings: RwLock<HashMap<(String, String), (String, String)>>,
    /// Remote metadata cache: `(server, table)` → fetched bundle. Local
    /// tables are never cached (they are cheap and always fresh).
    meta_cache: RwLock<HashMap<(String, String), Arc<FetchedTable>>>,
    /// Parameterized plan cache: template text → cached compile.
    plan_cache: Mutex<PlanCache>,
    /// Per-linked-server invalidation epochs (lowercased names). Bumped on
    /// re-registration; cached plans depending on an older epoch are stale.
    server_epochs: RwLock<HashMap<String, u64>>,
    /// Bumped on local DDL, `ANALYZE`, DPV (re)definition and
    /// `clear_metadata_cache` — invalidates every cached plan.
    schema_epoch: AtomicU64,
    /// Bumped on optimizer/parallel configuration changes.
    config_epoch: AtomicU64,
    /// Max age of a cached remote metadata/statistics bundle before the
    /// bind path refetches it.
    stats_ttl: RwLock<Duration>,
    config: RwLock<OptimizerConfig>,
    parallel: RwLock<ParallelConfig>,
    retry: RwLock<RetryPolicy>,
    batch: RwLock<BatchConfig>,
    dtc: Arc<TransactionCoordinator>,
    metrics: EngineMetrics,
    /// Hierarchical span tracing switch (`DHQP_TRACE` /
    /// [`Engine::set_trace_config`]).
    trace: RwLock<TraceConfig>,
    /// The most recent finished trace, when tracing was armed.
    last_trace: Mutex<Option<Arc<QueryTrace>>>,
    /// The structured event bus (`DHQP_EVENTS` /
    /// [`Engine::set_event_config`]). Reconfiguring replaces the bus — the
    /// ring starts fresh, like restarting an XEvents session.
    events: RwLock<Arc<EventBus>>,
    /// Member health: one circuit breaker per linked server
    /// (`DHQP_BREAKER_*`), fed by retry give-ups and consulted before
    /// every remote open. Shared with every execution context.
    health: Arc<HealthRegistry>,
    /// What a query does when a DPV member is quarantined
    /// (`DHQP_DEGRADED`). Deliberately outside the config epoch: pruning
    /// is a drive-time decision, cached plans stay valid either way.
    degraded: RwLock<DegradedMode>,
    /// Runtime parameter-driven DPV pruning (`DHQP_RUNTIME_PRUNE`): skip
    /// union/exchange members whose startup predicate rejects the bound
    /// parameter values, without opening a connection. Like `degraded`,
    /// a drive-time decision outside the config epoch — the same cached
    /// plan prunes eagerly or lazily depending on the knob at execution.
    runtime_prune: RwLock<bool>,
    /// Query Store master switch (`DHQP_QUERY_STORE`). When on, every
    /// successful SELECT records its plan + runtime stats into
    /// `query_store` (and forces a runtime-stats collector).
    query_store_on: RwLock<bool>,
    /// Per-fingerprint plan/runtime history (`sys.query_store_*`).
    query_store: Mutex<QueryStore>,
    /// Cardinality feedback loop (`DHQP_CARD_FEEDBACK`): write observed
    /// remote cardinalities back into `meta_cache` after execution.
    card_feedback: RwLock<bool>,
}

// DMV accessors: read-only state snapshots the `sys` provider
// (crate::dmv) materializes into rowsets at open time.
impl Inner {
    pub(crate) fn dmv_recent(&self) -> Vec<QuerySummary> {
        self.metrics.recent_queries()
    }

    pub(crate) fn dmv_plan_entries(&self) -> Vec<(String, Arc<CachedSelect>)> {
        self.plan_cache.lock().entries()
    }

    /// Every linked server's pooled face by name — the `sys` provider
    /// itself is excluded (it has no wire).
    pub(crate) fn dmv_links(&self) -> Vec<(String, Arc<dhqp_oledb::PooledDataSource>)> {
        Self::pools_of(&self.registry.read())
    }

    fn pools_of(
        registry: &LinkedServerRegistry,
    ) -> Vec<(String, Arc<dhqp_oledb::PooledDataSource>)> {
        registry
            .server_names()
            .into_iter()
            .filter(|name| name != SYS_SERVER)
            .filter_map(|name| {
                let pool = registry.session_pool(&name).ok()?;
                Some((name, pool))
            })
            .collect()
    }

    /// Engine counters plus the session pools' `connects`/`reuses`. The
    /// live pools are summed under the registry lock that
    /// `Engine::add_linked_server` retires a replaced pool under, so a
    /// reader sees a pool's counts exactly once.
    pub(crate) fn dmv_metrics(&self) -> MetricsSnapshot {
        let dtc = self.dtc.telemetry();
        let registry = self.registry.read();
        let mut pools = dhqp_oledb::PoolStats::default();
        for (_, pool) in Self::pools_of(&registry) {
            let stats = pool.stats();
            pools.connects += stats.connects;
            pools.reuses += stats.reuses;
        }
        self.metrics.snapshot(dtc, pools)
    }

    pub(crate) fn dmv_query_latency(&self) -> dhqp_oledb::HistogramSnapshot {
        self.metrics.query_latency()
    }

    pub(crate) fn dmv_wait_stats(&self) -> WaitSnapshot {
        self.metrics.wait_snapshot()
    }

    pub(crate) fn dmv_recent_events(&self) -> Vec<Event> {
        self.events.read().recent()
    }

    /// Per-link breaker snapshots — the `sys.dm_link_health` rows. The
    /// built-in `sys` provider is excluded (it has no wire to break).
    pub(crate) fn dmv_link_health(&self) -> Vec<LinkHealthSnapshot> {
        self.health
            .snapshot()
            .into_iter()
            .filter(|l| l.server != SYS_SERVER)
            .collect()
    }

    /// The query store's per-fingerprint history — the data behind the
    /// three `sys.query_store_*` views.
    pub(crate) fn dmv_query_store(&self) -> Vec<QueryStats> {
        self.query_store.lock().snapshot()
    }

    /// Every effective `DHQP_*` knob as `(name, value, source)` — the
    /// `sys.dm_os_knobs` rows. `source` says where the effective value came
    /// from: `env` when the environment variable is set and the current
    /// value still matches what it resolves to, `builder` when a runtime
    /// setter or builder override diverged from the default, `default`
    /// otherwise.
    pub(crate) fn dmv_knobs(&self) -> Vec<(String, String, &'static str)> {
        fn source(name: &str, current: &str, env_effective: &str, default: &str) -> &'static str {
            if std::env::var(name).is_ok() && current == env_effective {
                "env"
            } else if current != default {
                "builder"
            } else {
                "default"
            }
        }
        fn opt_ms(d: Option<Duration>) -> String {
            d.map(|d| d.as_millis().to_string())
                .unwrap_or_else(|| "off".to_string())
        }
        fn events_value(c: &EventConfig) -> String {
            if c.enabled {
                format!("mask=0x{:04x}", c.mask)
            } else {
                "off".to_string()
            }
        }
        let mut rows: Vec<(String, String, &'static str)> = Vec::new();
        let mut knob = |name: &str, current: String, env_effective: String, default: String| {
            let src = source(name, &current, &env_effective, &default);
            rows.push((name.to_string(), current, src));
        };

        let parallel = self.parallel.read().clone();
        let parallel_env = ParallelConfig::from_env();
        knob(
            "DHQP_PARALLEL",
            parallel.enabled.to_string(),
            parallel_env.enabled.to_string(),
            false.to_string(),
        );

        let batch = self.batch.read().clone();
        let batch_env = BatchConfig::from_env();
        knob(
            "DHQP_BATCH",
            batch.enabled.to_string(),
            batch_env.enabled.to_string(),
            true.to_string(),
        );
        knob(
            "DHQP_BATCH_SIZE",
            batch.batch_size.to_string(),
            batch_env.batch_size.to_string(),
            dhqp_executor::DEFAULT_BATCH_SIZE.to_string(),
        );

        let retry = self.retry.read().clone();
        let retry_env = RetryPolicy::from_env();
        let retry_def = RetryPolicy::standard();
        knob(
            "DHQP_RETRY_ATTEMPTS",
            retry.max_attempts.to_string(),
            retry_env.max_attempts.to_string(),
            retry_def.max_attempts.to_string(),
        );
        knob(
            "DHQP_RETRY_BACKOFF_MS",
            retry.base_backoff.as_millis().to_string(),
            retry_env.base_backoff.as_millis().to_string(),
            retry_def.base_backoff.as_millis().to_string(),
        );
        knob(
            "DHQP_RETRY_MAX_BACKOFF_MS",
            retry.max_backoff.as_millis().to_string(),
            retry_env.max_backoff.as_millis().to_string(),
            retry_def.max_backoff.as_millis().to_string(),
        );
        knob(
            "DHQP_RETRY_DEADLINE_MS",
            opt_ms(retry.query_deadline),
            opt_ms(retry_env.query_deadline),
            opt_ms(retry_def.query_deadline),
        );

        let breaker = self.health.config();
        let breaker_env = BreakerConfig::from_env();
        let breaker_def = BreakerConfig::standard();
        knob(
            "DHQP_BREAKER",
            breaker.enabled.to_string(),
            breaker_env.enabled.to_string(),
            breaker_def.enabled.to_string(),
        );
        knob(
            "DHQP_BREAKER_THRESHOLD",
            breaker.failure_threshold.to_string(),
            breaker_env.failure_threshold.to_string(),
            breaker_def.failure_threshold.to_string(),
        );
        knob(
            "DHQP_BREAKER_COOLDOWN",
            breaker.cooldown.to_string(),
            breaker_env.cooldown.to_string(),
            breaker_def.cooldown.to_string(),
        );
        knob(
            "DHQP_BREAKER_WINDOW",
            breaker.rate_window.to_string(),
            breaker_env.rate_window.to_string(),
            breaker_def.rate_window.to_string(),
        );
        knob(
            "DHQP_BREAKER_ERROR_RATE",
            format!("{:.2}", breaker.error_rate),
            format!("{:.2}", breaker_env.error_rate),
            format!("{:.2}", breaker_def.error_rate),
        );

        let degraded = *self.degraded.read();
        let degraded_name = |d: DegradedMode| if d.is_prune() { "prune" } else { "fail" };
        knob(
            "DHQP_DEGRADED",
            degraded_name(degraded).to_string(),
            degraded_name(DegradedMode::from_env()).to_string(),
            degraded_name(DegradedMode::Fail).to_string(),
        );
        knob(
            "DHQP_RUNTIME_PRUNE",
            self.runtime_prune.read().to_string(),
            dhqp_executor::runtime_prune_from_env().to_string(),
            true.to_string(),
        );

        let (pc_enabled, pc_capacity) = {
            let pc = self.plan_cache.lock();
            (pc.enabled(), pc.capacity())
        };
        let pc_env = PlanCacheConfig::from_env();
        let pc_def = PlanCacheConfig::default();
        knob(
            "DHQP_PLAN_CACHE",
            pc_enabled.to_string(),
            pc_env.enabled.to_string(),
            pc_def.enabled.to_string(),
        );
        knob(
            "DHQP_PLAN_CACHE_SIZE",
            pc_capacity.to_string(),
            pc_env.capacity.to_string(),
            pc_def.capacity.to_string(),
        );

        knob(
            "DHQP_STATS_TTL_MS",
            self.stats_ttl.read().as_millis().to_string(),
            stats_ttl_from_env().as_millis().to_string(),
            Duration::from_secs(60).as_millis().to_string(),
        );
        knob(
            "DHQP_RECENT_QUERIES",
            self.metrics.recent_capacity().to_string(),
            recent_queries_from_env().to_string(),
            RECENT_QUERY_CAPACITY.to_string(),
        );
        knob(
            "DHQP_SLOW_QUERY_MS",
            opt_ms(self.metrics.slow_threshold()),
            opt_ms(slow_query_from_env()),
            opt_ms(None),
        );

        knob(
            "DHQP_TRACE",
            self.trace.read().enabled.to_string(),
            TraceConfig::from_env().enabled.to_string(),
            false.to_string(),
        );
        knob(
            "DHQP_EVENTS",
            events_value(&self.events.read().config()),
            events_value(&EventConfig::from_env()),
            events_value(&EventConfig::disabled()),
        );

        // OptimizerConfig::default() itself consults the environment, so
        // its values double as the env-effective ones; the hardcoded
        // fallbacks (semi-join on, 64 keys) are the true defaults.
        let config = self.config.read().clone();
        let opt_env = OptimizerConfig::default();
        knob(
            "DHQP_SEMIJOIN",
            config.enable_semijoin.to_string(),
            opt_env.enable_semijoin.to_string(),
            true.to_string(),
        );
        knob(
            "DHQP_SEMIJOIN_MAX_KEYS",
            config.semijoin_max_keys.to_string(),
            opt_env.semijoin_max_keys.to_string(),
            64.to_string(),
        );

        let qs_env = QueryStoreConfig::from_env();
        let qs_def = QueryStoreConfig::default();
        knob(
            "DHQP_QUERY_STORE",
            self.query_store_on.read().to_string(),
            qs_env.enabled.to_string(),
            qs_def.enabled.to_string(),
        );
        knob(
            "DHQP_QUERY_STORE_SIZE",
            self.query_store.lock().capacity().to_string(),
            qs_env.capacity.to_string(),
            qs_def.capacity.to_string(),
        );
        knob(
            "DHQP_CARD_FEEDBACK",
            self.card_feedback.read().to_string(),
            card_feedback_from_env().to_string(),
            false.to_string(),
        );

        // Test-harness knob: consumed by the network simulator's fault
        // injector, not engine state — reported straight from the
        // environment for a complete picture.
        let fault = std::env::var("DHQP_FAULT_SEED").ok();
        let fault_src = if fault.is_some() { "env" } else { "default" };
        rows.push((
            "DHQP_FAULT_SEED".to_string(),
            fault.unwrap_or_else(|| "unset".to_string()),
            fault_src,
        ));
        rows
    }
}

/// Builder for engines with non-default configuration.
pub struct EngineBuilder {
    name: String,
    config: OptimizerConfig,
    parallel: ParallelConfig,
    retry: RetryPolicy,
    batch: BatchConfig,
    plan_cache: PlanCacheConfig,
    stats_ttl: Duration,
    recent_queries: usize,
    slow_query: Option<Duration>,
    trace: TraceConfig,
    events: EventConfig,
    breaker: BreakerConfig,
    degraded: DegradedMode,
    runtime_prune: bool,
    query_store: QueryStoreConfig,
    card_feedback: bool,
}

/// Cardinality feedback on when `DHQP_CARD_FEEDBACK` is set (default off).
fn card_feedback_from_env() -> bool {
    std::env::var("DHQP_CARD_FEEDBACK")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// Default remote-statistics TTL, overridable via `DHQP_STATS_TTL_MS`.
fn stats_ttl_from_env() -> Duration {
    std::env::var("DHQP_STATS_TTL_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(Duration::from_secs(60))
}

/// Recent-query ring capacity, overridable via `DHQP_RECENT_QUERIES`.
fn recent_queries_from_env() -> usize {
    std::env::var("DHQP_RECENT_QUERIES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(RECENT_QUERY_CAPACITY)
}

/// Slow-query threshold: `DHQP_SLOW_QUERY_MS` arms the slow-query log.
fn slow_query_from_env() -> Option<Duration> {
    std::env::var("DHQP_SLOW_QUERY_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
}

impl EngineBuilder {
    pub fn new(name: impl Into<String>) -> Self {
        EngineBuilder {
            name: name.into(),
            config: OptimizerConfig::default(),
            parallel: ParallelConfig::from_env(),
            retry: RetryPolicy::from_env(),
            batch: BatchConfig::from_env(),
            plan_cache: PlanCacheConfig::from_env(),
            stats_ttl: stats_ttl_from_env(),
            recent_queries: recent_queries_from_env(),
            slow_query: slow_query_from_env(),
            trace: TraceConfig::from_env(),
            events: EventConfig::from_env(),
            breaker: BreakerConfig::from_env(),
            degraded: DegradedMode::from_env(),
            runtime_prune: dhqp_executor::runtime_prune_from_env(),
            query_store: QueryStoreConfig::from_env(),
            card_feedback: card_feedback_from_env(),
        }
    }

    pub fn optimizer_config(mut self, config: OptimizerConfig) -> Self {
        self.config = config;
        self
    }

    /// Parallel remote execution knobs (exchange workers, prefetch). Also
    /// switches the optimizer's parallel-union rule to match.
    pub fn parallel_config(mut self, parallel: ParallelConfig) -> Self {
        self.config.enable_parallel_union = parallel.enabled;
        self.parallel = parallel;
        self
    }

    /// Retry/backoff policy for remote opens and mid-stream rewinds.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Batched row shipping: chunked pulls across operators and links
    /// (`DHQP_BATCH` / `DHQP_BATCH_SIZE`).
    pub fn batch_config(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// Parameterized plan-cache knobs (enabled + capacity).
    pub fn plan_cache_config(mut self, plan_cache: PlanCacheConfig) -> Self {
        self.plan_cache = plan_cache;
        self
    }

    /// Max age of cached remote metadata/statistics before a refetch.
    pub fn stats_ttl(mut self, ttl: Duration) -> Self {
        self.stats_ttl = ttl;
        self
    }

    /// How many finished-statement summaries the recent-query ring
    /// (`sys.dm_exec_requests`) retains.
    pub fn recent_query_capacity(mut self, capacity: usize) -> Self {
        self.recent_queries = capacity;
        self
    }

    /// Arm the slow-query log: statements at or above `threshold` are
    /// retained in a separate ring ([`Engine::slow_queries`]).
    pub fn slow_query_threshold(mut self, threshold: Option<Duration>) -> Self {
        self.slow_query = threshold;
        self
    }

    /// Hierarchical span tracing (overrides `DHQP_TRACE`).
    pub fn trace_config(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Structured event capture (overrides `DHQP_EVENTS`).
    pub fn event_config(mut self, events: EventConfig) -> Self {
        self.events = events;
        self
    }

    /// Per-link circuit-breaker tuning (overrides `DHQP_BREAKER_*`).
    pub fn breaker_config(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// Quarantined-member policy: fail the statement or prune the member
    /// (overrides `DHQP_DEGRADED`).
    pub fn degraded_mode(mut self, degraded: DegradedMode) -> Self {
        self.degraded = degraded;
        self
    }

    /// Runtime parameter-driven DPV pruning (overrides
    /// `DHQP_RUNTIME_PRUNE`): evaluate startup predicates at drive time
    /// and skip non-qualifying members without a connection.
    pub fn runtime_prune(mut self, on: bool) -> Self {
        self.runtime_prune = on;
        self
    }

    /// Query Store knobs (overrides `DHQP_QUERY_STORE` /
    /// `DHQP_QUERY_STORE_SIZE`).
    pub fn query_store_config(mut self, query_store: QueryStoreConfig) -> Self {
        self.query_store = query_store;
        self
    }

    /// Cardinality feedback loop (overrides `DHQP_CARD_FEEDBACK`).
    pub fn card_feedback(mut self, on: bool) -> Self {
        self.card_feedback = on;
        self
    }

    pub fn build(self) -> Engine {
        let storage = Arc::new(StorageEngine::new(self.name.clone()));
        let local_source = Arc::new(LocalDataSource::new(Arc::clone(&storage)));
        let engine = Engine {
            inner: Arc::new(Inner {
                name: self.name,
                storage,
                local_source,
                registry: RwLock::new(LinkedServerRegistry::new()),
                views: RwLock::new(HashMap::new()),
                fulltext: Arc::new(SearchService::new()),
                ft_bindings: RwLock::new(HashMap::new()),
                meta_cache: RwLock::new(HashMap::new()),
                plan_cache: Mutex::new(PlanCache::new(self.plan_cache)),
                server_epochs: RwLock::new(HashMap::new()),
                schema_epoch: AtomicU64::new(0),
                config_epoch: AtomicU64::new(0),
                stats_ttl: RwLock::new(self.stats_ttl),
                config: RwLock::new(self.config),
                parallel: RwLock::new(self.parallel),
                retry: RwLock::new(self.retry),
                batch: RwLock::new(self.batch),
                dtc: TransactionCoordinator::new(),
                metrics: EngineMetrics::new(self.recent_queries, self.slow_query),
                trace: RwLock::new(self.trace),
                last_trace: Mutex::new(None),
                events: RwLock::new(Arc::new(EventBus::new(self.events))),
                health: Arc::new(HealthRegistry::new(self.breaker)),
                degraded: RwLock::new(self.degraded),
                runtime_prune: RwLock::new(self.runtime_prune),
                query_store_on: RwLock::new(self.query_store.enabled),
                query_store: Mutex::new(QueryStore::new(self.query_store.capacity)),
                card_feedback: RwLock::new(self.card_feedback),
            }),
        };
        // Every engine self-registers its DMVs as the built-in `sys`
        // linked server — observability rowsets flow through the same
        // provider machinery as any remote source. Registered directly on
        // the registry: no epochs exist yet to invalidate.
        let sys = Arc::new(SysDataSource::new(Arc::downgrade(&engine.inner)));
        engine
            .inner
            .registry
            .write()
            .add_linked_server(SYS_SERVER, sys)
            .expect("registering the built-in sys provider cannot fail");
        engine
    }
}

/// Adapter giving the executor access to this engine's sources.
struct EngineCatalog {
    inner: Arc<Inner>,
}

impl SourceCatalog for EngineCatalog {
    fn local(&self) -> Arc<dyn DataSource> {
        Arc::clone(&self.inner.local_source) as Arc<dyn DataSource>
    }

    fn linked(&self, server: &str) -> Result<Arc<dyn DataSource>> {
        self.inner.registry.read().linked_server(server)
    }
}

impl Engine {
    /// A new engine with default configuration.
    pub fn new(name: impl Into<String>) -> Engine {
        EngineBuilder::new(name).build()
    }

    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The engine's local storage.
    pub fn storage(&self) -> &Arc<StorageEngine> {
        &self.inner.storage
    }

    /// The local storage engine's OLE DB-style face (used when this engine
    /// is itself a remote source).
    pub fn local_data_source(&self) -> Arc<LocalDataSource> {
        Arc::clone(&self.inner.local_source)
    }

    /// The engine's distributed transaction coordinator.
    pub fn dtc(&self) -> &Arc<TransactionCoordinator> {
        &self.inner.dtc
    }

    /// The engine's full-text search service.
    pub fn fulltext_service(&self) -> &Arc<SearchService> {
        &self.inner.fulltext
    }

    // ---- catalog management ------------------------------------------------

    pub fn create_table(&self, def: TableDef) -> Result<()> {
        self.inner.storage.create_table(def)?;
        self.bump_schema_epoch();
        Ok(())
    }

    /// Insert rows into a local table directly (maintains full-text
    /// indexes).
    pub fn insert(&self, table: &str, rows: &[Row]) -> Result<u64> {
        let n = self.inner.storage.insert_rows(table, rows)?;
        self.refresh_fulltext_index(table)?;
        Ok(n)
    }

    /// Build statistics for a local table (§3.2.4). Invalidates cached
    /// plans — they were costed against the old statistics.
    pub fn analyze(&self, table: &str, buckets: usize) -> Result<()> {
        self.inner.storage.analyze(table, buckets)?;
        self.bump_schema_epoch();
        Ok(())
    }

    /// Define a linked server (paper §2.1), reached from then on through
    /// its own session pool. Re-registering a name closes the old source's
    /// idle sessions and drops any metadata cached for it — the new server
    /// may expose different schemas under the same table names — and bumps
    /// the server's epoch so every plan compiled against the old source is
    /// evicted too, statistics included. A replaced server's plan must
    /// never be reused.
    pub fn add_linked_server(&self, name: &str, source: Arc<dyn DataSource>) -> Result<()> {
        {
            let mut registry = self.inner.registry.write();
            let replaced = registry.session_pool(name).ok();
            registry.add_linked_server(name, source)?;
            if let Some(old) = replaced {
                self.inner.metrics.retire_session_pool(old.stats());
            }
        }
        let key = name.to_lowercase();
        // A freshly (re)defined link starts visible in sys.dm_link_health;
        // a pre-existing breaker keeps its state (re-pointing a name at a
        // new source does not vouch for the link being healthy).
        self.inner.health.ensure(&key);
        self.inner
            .meta_cache
            .write()
            .retain(|(server, _), _| server != &key);
        *self
            .inner
            .server_epochs
            .write()
            .entry(key.clone())
            .or_insert(0) += 1;
        let evicted = self.inner.plan_cache.lock().purge_server(&key);
        self.inner.metrics.record_plan_cache_evictions(evicted);
        Ok(())
    }

    pub fn linked_server(&self, name: &str) -> Result<Arc<dyn DataSource>> {
        self.inner.registry.read().linked_server(name)
    }

    /// Register an `OPENROWSET` provider factory.
    pub fn register_openrowset_provider(
        &self,
        name: &str,
        factory: dhqp_federation::linked::AdHocFactory,
    ) {
        self.inner.registry.write().register_provider(name, factory);
    }

    pub fn open_ad_hoc(&self, provider: &str, datasource: &str) -> Result<Arc<dyn DataSource>> {
        self.inner.registry.read().open_ad_hoc(provider, datasource)
    }

    /// Define a (distributed) partitioned view: each member is
    /// `(server-or-None, table, partition-column domain)` (§4.1.5).
    pub fn define_partitioned_view(
        &self,
        name: &str,
        partition_column: &str,
        members: Vec<(Option<String>, String, IntervalSet)>,
    ) -> Result<()> {
        let mut built = Vec::with_capacity(members.len());
        for (server, table, check) in members {
            let fetched = self.table_metadata(server.as_deref(), &table)?;
            if let Some(s) = &server {
                // Member links show up in sys.dm_link_health (Closed)
                // before any traffic touches them.
                self.inner.health.ensure(s);
            }
            built.push(MemberTable {
                server,
                table,
                check,
                schema_snapshot: fetched.info.clone(),
            });
        }
        let view = PartitionedView::define(name, partition_column, built)?;
        self.inner.views.write().insert(name.to_lowercase(), view);
        // (Re)defining a view changes what its name binds to.
        self.bump_schema_epoch();
        Ok(())
    }

    pub fn partitioned_view(&self, name: &str) -> Option<PartitionedView> {
        self.inner.views.read().get(&name.to_lowercase()).cloned()
    }

    /// Create a full-text index over a local table's text column, keyed by
    /// an integer key column (§2.3: indexes live *outside* the database
    /// engine, in the search service).
    pub fn create_fulltext_index(
        &self,
        table: &str,
        key_column: &str,
        text_column: &str,
        catalog: &str,
    ) -> Result<()> {
        if !self.inner.fulltext.has_catalog(catalog) {
            self.inner.fulltext.create_catalog(catalog)?;
        }
        self.inner.ft_bindings.write().insert(
            (table.to_lowercase(), text_column.to_lowercase()),
            (catalog.to_string(), key_column.to_string()),
        );
        self.refresh_fulltext_index(table)
    }

    /// Rebuild the full-text index entries for a table (index maintenance;
    /// invoked automatically after engine-mediated DML).
    pub fn refresh_fulltext_index(&self, table: &str) -> Result<()> {
        let bindings: Vec<((String, String), (String, String))> = self
            .inner
            .ft_bindings
            .read()
            .iter()
            .filter(|((t, _), _)| t.eq_ignore_ascii_case(table))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        for ((table, text_col), (catalog, key_col)) in bindings {
            let rows = self.inner.storage.with_table(&table, |t| {
                let key_pos = t.schema.index_of(&key_col);
                let text_pos = t.schema.index_of(&text_col);
                (key_pos, text_pos, t.scan_rows())
            })?;
            let (Some(key_pos), Some(text_pos), rows) = rows else {
                return Err(DhqpError::Catalog(format!(
                    "full-text binding on {table} references missing columns"
                )));
            };
            // Re-key the whole catalog for this table.
            let mut keys = Vec::new();
            for row in &rows {
                let Value::Int(k) = row.get(key_pos) else {
                    return Err(DhqpError::Type(
                        "full-text key column must be BIGINT".into(),
                    ));
                };
                let text = match row.get(text_pos) {
                    Value::Str(s) => s.clone(),
                    Value::Null => String::new(),
                    other => other.to_string(),
                };
                self.inner.fulltext.index_row(&catalog, *k as u64, &text)?;
                keys.push(*k as u64);
            }
        }
        Ok(())
    }

    pub(crate) fn fulltext_binding(&self, table: &str, column: &str) -> Option<(String, String)> {
        self.inner
            .ft_bindings
            .read()
            .get(&(table.to_lowercase(), column.to_lowercase()))
            .cloned()
    }

    pub(crate) fn fulltext_query(&self, catalog: &str, query: &str) -> Result<Vec<(u64, i64)>> {
        self.inner.metrics.record_fulltext_search();
        self.inner.fulltext.query_keys(catalog, query)
    }

    // ---- metadata ----------------------------------------------------------

    /// Fetch a table's metadata bundle, caching remote entries.
    pub(crate) fn table_metadata(
        &self,
        server: Option<&str>,
        table: &str,
    ) -> Result<Arc<FetchedTable>> {
        match server {
            None => {
                let info = self.inner.local_source.table(table)?;
                let stats = self.inner.storage.statistics(table);
                let checks = self.inner.storage.with_table(table, |t| {
                    t.checks
                        .iter()
                        .filter_map(|c| t.schema.index_of(&c.column).map(|p| (p, c.domain.clone())))
                        .collect::<Vec<_>>()
                })?;
                Ok(Arc::new(FetchedTable {
                    info,
                    stats,
                    caps: self.inner.local_source.capabilities(),
                    checks,
                    fetched_at: Instant::now(),
                    feedback: false,
                }))
            }
            Some(server) => {
                let key = (server.to_lowercase(), table.to_lowercase());
                let ttl = *self.inner.stats_ttl.read();
                if let Some(hit) = self.inner.meta_cache.read().get(&key) {
                    // A bundle past its TTL is treated as a miss: the
                    // optimizer must not cost against arbitrarily old
                    // remote statistics.
                    if hit.fetched_at.elapsed() <= ttl {
                        self.inner.metrics.record_meta_cache_hit();
                        if hit.stats.is_some() {
                            self.inner.metrics.record_stats_cache_hit();
                        }
                        return Ok(Arc::clone(hit));
                    }
                }
                self.inner.metrics.record_meta_cache_miss();
                let source = self.linked_server(server)?;
                // The whole remote fetch — schema plus per-column
                // histograms — is one STATS_FETCH wait: the compile is
                // blocked on the wire for its full duration.
                let (info, caps, stats) = timed_wait(WaitClass::StatsFetch, || -> Result<_> {
                    let info = source.table(table)?;
                    let caps = source.capabilities();
                    let stats = if caps.statistics_support {
                        let mut session = source.create_session()?;
                        let mut stats = TableStatistics {
                            row_count: info.cardinality,
                            ..Default::default()
                        };
                        for c in &info.columns {
                            if let Some(h) = session.histogram(table, &c.name)? {
                                stats.set_histogram(&c.name, h);
                            }
                        }
                        Some(stats)
                    } else {
                        None
                    };
                    Ok((info, caps, stats))
                })?;
                if stats.is_some() {
                    self.inner.metrics.record_stats_cache_miss();
                }
                let fetched = Arc::new(FetchedTable {
                    info,
                    stats,
                    caps,
                    checks: Vec::new(),
                    fetched_at: Instant::now(),
                    feedback: false,
                });
                self.inner
                    .meta_cache
                    .write()
                    .insert(key, Arc::clone(&fetched));
                Ok(fetched)
            }
        }
    }

    /// Capabilities of a server without fetching any table metadata.
    pub(crate) fn server_capabilities(
        &self,
        server: Option<&str>,
    ) -> Result<dhqp_oledb::ProviderCapabilities> {
        match server {
            None => Ok(self.inner.local_source.capabilities()),
            Some(s) => Ok(self.linked_server(s)?.capabilities()),
        }
    }

    /// Current (uncached) table info.
    pub(crate) fn fresh_table_info(
        &self,
        server: Option<&str>,
        table: &str,
    ) -> Result<dhqp_oledb::TableInfo> {
        match server {
            None => self.inner.local_source.table(table),
            Some(s) => self.linked_server(s)?.table(table),
        }
    }

    /// Drop cached remote metadata (after remote DDL/bulk changes). Also
    /// invalidates every cached plan — they may embed the stale schemas.
    pub fn clear_metadata_cache(&self) {
        self.inner.meta_cache.write().clear();
        self.bump_schema_epoch();
    }

    // ---- configuration -----------------------------------------------------

    pub fn optimizer_config(&self) -> OptimizerConfig {
        self.inner.config.read().clone()
    }

    pub fn set_optimizer_config(&self, config: OptimizerConfig) {
        *self.inner.config.write() = config;
        self.inner.config_epoch.fetch_add(1, Ordering::Relaxed);
    }

    pub fn parallel_config(&self) -> ParallelConfig {
        self.inner.parallel.read().clone()
    }

    /// Set the parallel remote-execution knobs. Keeps the optimizer's
    /// parallel-union rule in sync with the master switch, so plans and
    /// runtime agree on whether exchanges are wanted.
    pub fn set_parallel_config(&self, parallel: ParallelConfig) {
        self.inner.config.write().enable_parallel_union = parallel.enabled;
        *self.inner.parallel.write() = parallel;
        // Plans compiled under the old parallel-union setting are stale.
        self.inner.config_epoch.fetch_add(1, Ordering::Relaxed);
    }

    pub fn retry_policy(&self) -> RetryPolicy {
        self.inner.retry.read().clone()
    }

    /// Set the retry/backoff policy applied to remote opens and mid-stream
    /// rewinds on transient transport faults. Does *not* invalidate cached
    /// plans: retry is applied per execution, not baked into the plan.
    pub fn set_retry_policy(&self, retry: RetryPolicy) {
        *self.inner.retry.write() = retry;
    }

    pub fn batch_config(&self) -> BatchConfig {
        self.inner.batch.read().clone()
    }

    /// Set the batched-shipping knobs (on/off + rows per round trip). Like
    /// retry, batching is applied per execution and never changes plan
    /// shape, so cached plans stay valid.
    pub fn set_batch_config(&self, batch: BatchConfig) {
        *self.inner.batch.write() = batch;
    }

    pub fn degraded_mode(&self) -> DegradedMode {
        *self.inner.degraded.read()
    }

    pub fn runtime_prune_enabled(&self) -> bool {
        *self.inner.runtime_prune.read()
    }

    /// Toggle runtime parameter-driven DPV pruning. A drive-time decision
    /// like retry and degraded mode: cached plans keep their lazy startup
    /// filters and stay valid — the knob only decides whether members are
    /// skipped eagerly (no connection) or yield empty rowsets lazily.
    pub fn set_runtime_prune(&self, on: bool) {
        *self.inner.runtime_prune.write() = on;
    }

    /// Set the quarantined-member policy. Like retry and batching, this is
    /// a drive-time decision: the plan cache is deliberately untouched —
    /// the same cached plan prunes or fails depending on the mode at
    /// execution.
    pub fn set_degraded_mode(&self, degraded: DegradedMode) {
        *self.inner.degraded.write() = degraded;
    }

    pub fn breaker_config(&self) -> BreakerConfig {
        self.inner.health.config()
    }

    /// Replace the circuit-breaker tuning knobs. Existing breaker states
    /// survive (retuning thresholds must not heal a quarantined link);
    /// cached plans are unaffected.
    pub fn set_breaker_config(&self, breaker: BreakerConfig) {
        self.inner.health.set_config(breaker);
    }

    /// Per-link breaker snapshots, sorted by server — the
    /// `sys.dm_link_health` data. The built-in `sys` provider is excluded.
    pub fn link_health(&self) -> Vec<LinkHealthSnapshot> {
        self.inner.dmv_link_health()
    }

    // ---- plan & statistics caching -----------------------------------------

    /// Switch the parameterized plan cache on or off. Turning it off also
    /// drops every cached plan.
    pub fn set_plan_cache_enabled(&self, enabled: bool) {
        let mut cache = self.inner.plan_cache.lock();
        cache.set_enabled(enabled);
        if !enabled {
            let evicted = cache.clear();
            self.inner.metrics.record_plan_cache_evictions(evicted);
        }
    }

    pub fn plan_cache_enabled(&self) -> bool {
        self.inner.plan_cache.lock().enabled()
    }

    /// Bound the plan cache's entry count (LRU-evicting down if needed).
    pub fn set_plan_cache_capacity(&self, capacity: usize) {
        let evicted = self.inner.plan_cache.lock().set_capacity(capacity);
        self.inner.metrics.record_plan_cache_evictions(evicted);
    }

    /// Number of plans currently cached.
    pub fn plan_cache_len(&self) -> usize {
        self.inner.plan_cache.lock().len()
    }

    /// Max age of cached remote metadata/statistics before the bind path
    /// refetches over the wire.
    pub fn stats_ttl(&self) -> Duration {
        *self.inner.stats_ttl.read()
    }

    pub fn set_stats_ttl(&self, ttl: Duration) {
        *self.inner.stats_ttl.write() = ttl;
    }

    fn bump_schema_epoch(&self) {
        self.inner.schema_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Epoch snapshot for a plan compiled right now against `servers`.
    fn current_deps(&self, servers: Vec<String>) -> CacheDeps {
        let epochs = self.inner.server_epochs.read();
        CacheDeps {
            servers: servers
                .into_iter()
                .map(|s| {
                    let e = epochs.get(&s).copied().unwrap_or(0);
                    (s, e)
                })
                .collect(),
            schema_epoch: self.inner.schema_epoch.load(Ordering::Relaxed),
            config_epoch: self.inner.config_epoch.load(Ordering::Relaxed),
        }
    }

    fn deps_current(&self, deps: &CacheDeps) -> bool {
        if deps.schema_epoch != self.inner.schema_epoch.load(Ordering::Relaxed)
            || deps.config_epoch != self.inner.config_epoch.load(Ordering::Relaxed)
        {
            return false;
        }
        let epochs = self.inner.server_epochs.read();
        deps.servers
            .iter()
            .all(|(s, e)| epochs.get(s).copied().unwrap_or(0) == *e)
    }

    /// Look up a cached plan, validating its epochs. A stale entry is
    /// evicted and reported as a miss. A valid hit also credits one
    /// metadata-cache hit per remote dependency: the bind-time metadata
    /// consultation was avoided entirely.
    fn plan_cache_lookup(&self, key: &str) -> Option<Arc<CachedSelect>> {
        let entry = self.inner.plan_cache.lock().get(key)?;
        if self.deps_current(&entry.deps) {
            self.inner.metrics.record_plan_cache_hit();
            if has_hook() {
                emit_event("plan_cache_hit", &[("template", key.to_string())]);
            }
            for _ in &entry.deps.servers {
                self.inner.metrics.record_meta_cache_hit();
            }
            Some(entry)
        } else {
            if self.inner.plan_cache.lock().remove(key) {
                self.inner.metrics.record_plan_cache_evictions(1);
            }
            None
        }
    }

    // ---- query pipeline ----------------------------------------------------

    /// Begin one statement: install its activity scope — waits recorded
    /// anywhere on this thread (and on worker threads spawned under it) fan
    /// out to the engine-cumulative sink and a fresh per-query sink, and
    /// events reach the bus when it is armed — and emit `query_start`. The
    /// guard restores the previous scope on drop, so nested statements (a
    /// DMV query issued while serving another statement) account correctly.
    fn begin_statement<'a>(&self, sql: &'a str, analyze: bool) -> StatementRun<'a> {
        let waits = Arc::new(WaitStats::default());
        let bus = Arc::clone(&self.inner.events.read());
        let hook = bus
            .enabled()
            .then(|| Arc::clone(&bus) as Arc<dyn EventHook>);
        let activity = install_scope(ActivityScope::new(
            vec![self.inner.metrics.waits(), Arc::clone(&waits)],
            hook,
        ));
        if has_hook() {
            emit_event("query_start", &[("sql", sql.to_string())]);
        }
        StatementRun {
            _activity: activity,
            waits,
            sql,
            started: Instant::now(),
            tracer: self.trace_config().enabled.then(|| TraceBuilder::new(sql)),
            pruned: Arc::new(PruneLog::default()),
            kind: None,
            fingerprint: None,
            select: None,
            collector: None,
            analyze,
        }
    }

    /// Fingerprint + annotation summary carried into the recent/slow query
    /// rings and the `slow_query` event: the same `[semijoin: ...]` /
    /// `[degraded: ...]` / `[startup: ...]` markers EXPLAIN ANALYZE renders,
    /// condensed to one line so a slow statement can be triaged from
    /// `sys.dm_exec_requests` without re-running it.
    fn statement_tags(
        fingerprint: Option<&str>,
        runtime: Option<&HashMap<usize, NodeRuntime>>,
        pruned: &PruneLog,
    ) -> StatementTags {
        let mut parts: Vec<String> = Vec::new();
        if let Some(runtime) = runtime {
            let mut keys = 0u64;
            let mut bytes = 0u64;
            let mut fallback = false;
            for sj in runtime.values().filter_map(|rt| rt.semijoin.as_ref()) {
                keys += sj.keys;
                bytes += sj.filter_bytes;
                fallback |= sj.fallback;
            }
            if keys > 0 || fallback {
                parts.push(format!(
                    "[semijoin: keys={keys} bytes={bytes}{}]",
                    if fallback { " fallback" } else { "" }
                ));
            }
        }
        if !pruned.is_empty() {
            parts.push(format!("[degraded: {}]", pruned.members().join(",")));
        }
        if !pruned.startup_is_empty() {
            parts.push(format!("[startup: {}]", pruned.startup_members().join(",")));
        }
        StatementTags {
            fingerprint: fingerprint.map(|s| s.to_string()),
            annotations: (!parts.is_empty()).then(|| parts.join(" ")),
        }
    }

    /// Count one finished statement — a statement whose `kind` is still
    /// `None` only as an error — and emit the `query_end` that pairs its
    /// `query_start`, plus `slow_query` past the armed threshold.
    fn end_statement(
        &self,
        run: &StatementRun<'_>,
        elapsed: Duration,
        rows: u64,
        error: Option<String>,
        waits: &WaitSnapshot,
        tags: StatementTags,
    ) {
        let pruned = &run.pruned;
        let error_text = error.clone();
        let tags_for_event = tags.clone();
        let was_slow = self.inner.metrics.finish_statement(
            run.kind,
            run.sql,
            elapsed,
            rows,
            error,
            Some(waits),
            pruned.count(),
            tags,
        );
        if has_hook() {
            let elapsed_ms = format!("{:.3}", elapsed.as_secs_f64() * 1000.0);
            let dominant = waits.dominant().map(|class| class.name());
            let kind = run.kind.map_or("UNCLASSIFIED", |kind| kind.name());
            let mut attrs = vec![
                ("kind", kind.to_string()),
                ("rows", rows.to_string()),
                ("elapsed_ms", elapsed_ms.clone()),
            ];
            if let Some(class) = dominant {
                attrs.push(("dominant_wait", class.to_string()));
            }
            if !pruned.is_empty() {
                attrs.push(("pruned_members", pruned.members().join(",")));
            }
            if !pruned.startup_is_empty() {
                attrs.push((
                    "startup_skipped_members",
                    pruned.startup_members().join(","),
                ));
            }
            if let Some(e) = error_text {
                attrs.push(("error", e));
            }
            emit_event("query_end", &attrs);
            if was_slow {
                let mut slow_attrs = vec![
                    ("sql", run.sql.to_string()),
                    ("elapsed_ms", elapsed_ms),
                    ("dominant_wait", dominant.unwrap_or("NONE").to_string()),
                ];
                if let Some(fp) = tags_for_event.fingerprint {
                    slow_attrs.push(("fingerprint", fp));
                }
                if let Some(ann) = tags_for_event.annotations {
                    slow_attrs.push(("annotations", ann));
                }
                emit_event("slow_query", &slow_attrs);
            }
        }
    }

    /// Post-execution observability for one successful SELECT: record the
    /// execution into the query store (emitting `plan_change` — and
    /// bumping `plan_regressions` — when the fingerprint switched plans),
    /// then run the cardinality feedback loop.
    fn observe_execution(
        &self,
        template: &str,
        plan: &PhysNode,
        runtime: &HashMap<usize, NodeRuntime>,
        elapsed: Duration,
        rows: u64,
        waits: &WaitSnapshot,
    ) {
        if *self.inner.query_store_on.read() {
            let (link_bytes, link_requests) = query_store::link_traffic(runtime);
            let obs = ExecutionObservation {
                template: template.to_string(),
                plan_hash: query_store::plan_hash(plan),
                plan_text: plan.display_indent(),
                est_rows: plan.est_rows,
                est_cost: plan.est_cost,
                schema_epoch: self.inner.schema_epoch.load(Ordering::Relaxed),
                config_epoch: self.inner.config_epoch.load(Ordering::Relaxed),
                elapsed_us: elapsed.as_micros() as u64,
                rows,
                link_bytes,
                link_requests,
                dominant_wait: waits.dominant().map(|c| c.name()),
                operators: query_store::operator_observations(plan, runtime),
            };
            if let Some(notice) = self.inner.query_store.lock().record(obs) {
                if notice.regressed {
                    self.inner.metrics.record_plan_regression();
                }
                if has_hook() {
                    emit_event(
                        "plan_change",
                        &[
                            ("template", notice.template.clone()),
                            ("query_id", format!("{:016x}", notice.query_id)),
                            ("old_plan_hash", format!("{:016x}", notice.old_plan_hash)),
                            ("new_plan_hash", format!("{:016x}", notice.new_plan_hash)),
                            ("old_avg_us", notice.old_avg_us.to_string()),
                            ("new_avg_us", notice.new_avg_us.to_string()),
                            ("regressed", notice.regressed.to_string()),
                        ],
                    );
                }
            }
        }
        if *self.inner.card_feedback.read() {
            self.apply_card_feedback(plan, runtime);
        }
    }

    /// The cardinality feedback loop: overwrite the cached statistics
    /// bundle of any remote table whose whole, unfiltered fetch observed at
    /// least twice the cardinality the optimizer costed with, then purge
    /// the plans compiled against the stale bundle so the next compilation
    /// costs with truth. Feedback only ever *raises* cardinalities — a
    /// partially drained cursor undercounts, so shrinking on observation
    /// would be unsound. Corrected bundles drop their histograms (they
    /// described the stale snapshot) and carry the `feedback` flag EXPLAIN
    /// ANALYZE renders as `-- [feedback: applied]`.
    fn apply_card_feedback(&self, plan: &PhysNode, runtime: &HashMap<usize, NodeRuntime>) {
        let mut touched_servers: Vec<String> = Vec::new();
        for (server, table, observed) in feedback_candidates(plan, runtime) {
            let key = (server.to_lowercase(), table.to_lowercase());
            let cached = self.inner.meta_cache.read().get(&key).cloned();
            let Some(cached) = cached else { continue };
            let known = cached
                .info
                .cardinality
                .or_else(|| cached.stats.as_ref().and_then(|s| s.row_count))
                .unwrap_or(0);
            if observed < known.max(1).saturating_mul(2) {
                continue;
            }
            let mut info = cached.info.clone();
            info.cardinality = Some(observed);
            let corrected = Arc::new(FetchedTable {
                info,
                stats: Some(TableStatistics {
                    row_count: Some(observed),
                    ..TableStatistics::default()
                }),
                caps: cached.caps.clone(),
                checks: cached.checks.clone(),
                fetched_at: Instant::now(),
                feedback: true,
            });
            self.inner.meta_cache.write().insert(key.clone(), corrected);
            self.inner.metrics.record_card_feedback();
            if !touched_servers.contains(&key.0) {
                touched_servers.push(key.0);
            }
        }
        // Plans costed against the stale bundles must not be reused.
        for server in touched_servers {
            let evicted = self.inner.plan_cache.lock().purge_server(&server);
            self.inner.metrics.record_plan_cache_evictions(evicted);
        }
    }

    /// Run any statement without parameters.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.execute_with_params(sql, HashMap::new())
    }

    /// Run any statement with `@name` parameter values.
    pub fn execute_with_params(
        &self,
        sql: &str,
        params: HashMap<String, Value>,
    ) -> Result<QueryResult> {
        Ok(match self.run_statement(sql, params, false)? {
            Output::Rows(result) => result,
            Output::Report(report) => report.to_query_result(),
        })
    }

    /// Run a SELECT (alias of [`Engine::execute`] that asserts a rowset).
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.execute(sql)
    }

    pub fn query_with_params(
        &self,
        sql: &str,
        params: HashMap<String, Value>,
    ) -> Result<QueryResult> {
        self.execute_with_params(sql, params)
    }

    /// Optimize without executing: the plan and search telemetry.
    pub fn explain(&self, sql: &str) -> Result<ExplainPlan> {
        self.explain_with_params(sql, HashMap::new())
    }

    pub fn explain_with_params(
        &self,
        sql: &str,
        params: HashMap<String, Value>,
    ) -> Result<ExplainPlan> {
        let stmt = match parse_statement(sql)? {
            Statement::Select(stmt) => stmt,
            // Tolerate an explicit EXPLAIN wrapper.
            Statement::Explain { stmt, .. } => *stmt,
            _ => {
                return Err(DhqpError::Unsupported(
                    "EXPLAIN supports SELECT statements".into(),
                ))
            }
        };
        let compiled = self.compile_select(&stmt, &params, None)?;
        Ok(ExplainPlan::new(&compiled.plan, compiled.opt_stats))
    }

    /// Execute a SELECT with per-operator runtime statistics attached and
    /// return the full `EXPLAIN ANALYZE` report. Accepts a bare SELECT or
    /// an `EXPLAIN [ANALYZE]` wrapper. Counted like the same statement sent
    /// to [`Engine::execute`] as `EXPLAIN ANALYZE …` text.
    pub fn execute_analyze(&self, sql: &str) -> Result<AnalyzeReport> {
        self.execute_analyze_with_params(sql, HashMap::new())
    }

    pub fn execute_analyze_with_params(
        &self,
        sql: &str,
        params: HashMap<String, Value>,
    ) -> Result<AnalyzeReport> {
        match self.run_statement(sql, params, true)? {
            Output::Report(report) => Ok(*report),
            Output::Rows(_) => unreachable!("an analyze run ends in a report or an error"),
        }
    }

    /// The statement driver every entry point goes through: begin, compile,
    /// run, finish. `analyze` runs a SELECT (bare or under any `EXPLAIN`
    /// wrapper) as `EXPLAIN ANALYZE` and refuses everything else.
    fn run_statement(
        &self,
        sql: &str,
        params: HashMap<String, Value>,
        analyze: bool,
    ) -> Result<Output> {
        let mut run = self.begin_statement(sql, analyze);
        let ran = self.compile_and_run(&mut run, params);
        self.finish_statement(run, ran)
    }

    /// The compile and run stages of one statement. Whatever the epilogue
    /// reports about a statement that fails half-way is left on `run`.
    fn compile_and_run(
        &self,
        run: &mut StatementRun<'_>,
        mut params: HashMap<String, Value>,
    ) -> Result<QueryResult> {
        let tracer = run.tracer.as_ref();
        // Through the plan cache first: a SELECT (bare or under EXPLAIN
        // ANALYZE) is auto-parameterized and served from — or compiled
        // into — the cache. User parameters in the reserved namespace would
        // collide with the extracted literals, and plain EXPLAIN never
        // executes, so neither takes this path.
        let mut cached = None;
        if self.plan_cache_enabled() && !params.keys().any(|k| k.starts_with(AUTO_PARAM_PREFIX)) {
            let fp = fingerprint(run.sql).filter(|fp| run.analyze || fp.explain != Some(false));
            if let Some(fp) = fp {
                let mut merged = params.clone();
                merged.extend(fp.params);
                if let Some(found) = self.compile_cached(&fp.template, &merged, tracer) {
                    run.analyze |= fp.explain == Some(true);
                    run.kind = Some(select_kind(run.analyze));
                    run.fingerprint = Some(fp.template);
                    params = merged;
                    cached = Some(found);
                }
            }
        }
        // Everything the cache declined compiles from the original text, so
        // an error quotes the user's literals.
        let (compiled, cache_hit) = match cached {
            Some((compiled, hit)) => (compiled, Some(hit)),
            None => {
                let began = Instant::now();
                let parsed = parse_statement(run.sql)?;
                compile_stage(tracer, "parse", began);
                let select = match parsed {
                    Statement::Select(select) => select,
                    Statement::Explain { analyze, stmt } if analyze || run.analyze => {
                        run.analyze = true;
                        *stmt
                    }
                    Statement::Explain { stmt, .. } => {
                        run.kind = Some(StatementKind::Explain);
                        let compiled = self.compile_select(&stmt, &params, tracer)?;
                        let plan = ExplainPlan::new(&compiled.plan, compiled.opt_stats);
                        return Ok(text_result(&plan.render()));
                    }
                    _ if run.analyze => {
                        return Err(DhqpError::Unsupported(
                            "EXPLAIN ANALYZE supports SELECT statements".into(),
                        ))
                    }
                    Statement::Insert(stmt) => {
                        run.kind = Some(StatementKind::Insert);
                        return dml::run_insert(self, &stmt, &params);
                    }
                    Statement::Update(stmt) => {
                        run.kind = Some(StatementKind::Update);
                        return dml::run_update(self, &stmt, &params);
                    }
                    Statement::Delete(stmt) => {
                        run.kind = Some(StatementKind::Delete);
                        return dml::run_delete(self, &stmt, &params);
                    }
                };
                run.kind = Some(select_kind(run.analyze));
                let compiled = self.compile_select(&select, &params, tracer)?;
                (Arc::new(compiled), None)
            }
        };
        run.select = Some((Arc::clone(&compiled), cache_hit));
        // Per-operator spans need runtime stats, so tracing instruments the
        // plan even outside EXPLAIN ANALYZE — as do the query store and the
        // cardinality feedback loop (they consume per-operator actuals) and
        // an armed slow-query log (it wants annotation summaries).
        let instrument = run.analyze
            || tracer.is_some()
            || *self.inner.query_store_on.read()
            || *self.inner.card_feedback.read()
            || self.inner.metrics.slow_log_armed();
        run.collector = instrument.then(|| Arc::new(RuntimeStatsCollector::new()));
        let stats = run.collector.clone();
        self.run_plan(&compiled, params, stats, tracer, &run.pruned)
    }

    /// Compile through the plan cache: a current entry is a hit, anything
    /// else compiles the template once and caches it. `None` declines —
    /// the statement's compile is not pure, or the template failed to
    /// parse, bind or optimize — and the caller compiles the original text
    /// instead, which reproduces any error exactly.
    fn compile_cached(
        &self,
        template: &str,
        params: &HashMap<String, Value>,
        tracer: Option<&TraceBuilder>,
    ) -> Option<(Arc<CachedSelect>, bool)> {
        if let Some(entry) = self.plan_cache_lookup(template) {
            if let Some(tr) = tracer {
                tr.stage_with(
                    "plan-cache",
                    Instant::now(),
                    vec![("hit".to_string(), "true".to_string())],
                );
            }
            return Some((entry, true));
        }
        let began = Instant::now();
        let stmt = match parse_statement(template) {
            Ok(Statement::Select(stmt)) if plan_cache::is_cacheable(&stmt) => stmt,
            _ => return None,
        };
        compile_stage(tracer, "parse", began);
        let entry = Arc::new(self.compile_select(&stmt, params, tracer).ok()?);
        self.inner.metrics.record_plan_cache_miss();
        if has_hook() {
            emit_event("plan_cache_miss", &[("template", template.to_string())]);
        }
        let evicted = self
            .inner
            .plan_cache
            .lock()
            .insert(template.to_string(), Arc::clone(&entry));
        self.inner.metrics.record_plan_cache_evictions(evicted);
        Some((entry, false))
    }

    /// Bind and optimize one SELECT into a plan plus everything needed to
    /// run it (and, for the plan cache, to tell when it went stale). Each
    /// stage is a `PLAN_COMPILE` wait and, when `tracer` is given, a span.
    fn compile_select(
        &self,
        stmt: &SelectStmt,
        params: &HashMap<String, Value>,
        tracer: Option<&TraceBuilder>,
    ) -> Result<CachedSelect> {
        let began = Instant::now();
        let bound = Binder::new(self, params).bind_select(stmt)?;
        compile_stage(tracer, "bind", began);
        let optimizer = Optimizer::new(self.optimizer_config());
        let deps = self.current_deps(bound.dep_servers);
        let mut registry = bound.registry;
        let began = Instant::now();
        let (plan, opt_stats) = optimizer.optimize(bound.tree, &mut registry, bound.required)?;
        record_wait(WaitClass::PlanCompile, began.elapsed());
        if let Some(tr) = tracer {
            tr.stage_optimize(began, &opt_stats);
        }
        Ok(CachedSelect {
            plan,
            registry: Arc::new(registry),
            output: bound.output,
            view_members: bound.view_members,
            opt_stats,
            deps,
            stats_as_of: bound.stats_as_of,
            used_feedback: bound.used_feedback,
            execution_count: AtomicU64::new(0),
            total_elapsed_us: AtomicU64::new(0),
            total_rows: AtomicU64::new(0),
        })
    }

    /// Run one compiled plan: the execution itself, its fold into the
    /// plan's aggregates, and the `execute` span (with per-operator
    /// children when `stats` is attached).
    fn run_plan(
        &self,
        compiled: &CachedSelect,
        params: HashMap<String, Value>,
        stats: Option<Arc<RuntimeStatsCollector>>,
        tracer: Option<&TraceBuilder>,
        pruned: &Arc<PruneLog>,
    ) -> Result<QueryResult> {
        let began = Instant::now();
        let result = self.execute_plan(compiled, params, stats.clone(), pruned);
        if let Ok(r) = &result {
            compiled.note_execution(began.elapsed(), r.rows.len() as u64);
        }
        if let Some(tr) = tracer {
            match &stats {
                Some(c) => tr.stage_execute(began, &compiled.plan, &c.snapshot()),
                None => tr.stage("execute", began),
            }
        }
        result
    }

    /// The one epilogue, on every exit: snapshot the runtime stats once,
    /// finish and publish the trace, feed the query store and the
    /// cardinality feedback loop, build the report when the statement ran
    /// as EXPLAIN ANALYZE, and end the statement.
    fn finish_statement(
        &self,
        mut run: StatementRun<'_>,
        ran: Result<QueryResult>,
    ) -> Result<Output> {
        let waits = run.waits.snapshot();
        let elapsed = run.started.elapsed();
        let trace = run.tracer.take().map(|tracer| {
            tracer.set_waits(waits);
            Arc::new(tracer.finish())
        });
        if let Some(trace) = &trace {
            *self.inner.last_trace.lock() = Some(Arc::clone(trace));
        }
        let runtime = run.collector.take().map(|collector| collector.snapshot());
        let tags = Self::statement_tags(run.fingerprint.as_deref(), runtime.as_ref(), &run.pruned);
        // EXPLAIN ANALYZE counts the rows its SELECT produced, not the
        // lines of the report it may be rendered into.
        let rows = match &ran {
            Ok(r) => r.rows_affected.unwrap_or(r.rows.len() as u64),
            Err(_) => 0,
        };
        let output = ran.map(|result| {
            let Some((compiled, cache_hit)) = run.select.take() else {
                return Output::Rows(result);
            };
            if let Some(runtime) = &runtime {
                self.observe_execution(
                    run.fingerprint.as_deref().unwrap_or(run.sql),
                    &compiled.plan,
                    runtime,
                    elapsed,
                    rows,
                    &waits,
                );
            }
            if !run.analyze {
                return Output::Rows(result);
            }
            Output::Report(Box::new(AnalyzeReport {
                result,
                runtime: runtime.unwrap_or_default(),
                plan: compiled.plan.clone(),
                explain: ExplainPlan::new(&compiled.plan, compiled.opt_stats.clone()),
                cache_hit,
                stats_age: cache_hit.and_then(|_| compiled.stats_age()),
                trace,
                waits: Some(waits),
                pruned: run.pruned.members(),
                startup_pruned: run.pruned.startup_members(),
                feedback: compiled.used_feedback,
            }))
        });
        let error = output.as_ref().err().map(|e| e.to_string());
        self.end_statement(&run, elapsed, rows, error, &waits, tags);
        output
    }

    /// A SELECT inside another statement (INSERT ... SELECT, scalar
    /// subqueries): compiled and run, not a statement of its own. Prunes
    /// are tracked for the engine counters but not attributed to a summary.
    pub(crate) fn run_select(
        &self,
        stmt: &SelectStmt,
        params: &HashMap<String, Value>,
    ) -> Result<QueryResult> {
        let compiled = self.compile_select(stmt, params, None)?;
        let pruned = Arc::new(PruneLog::default());
        self.run_plan(&compiled, params.clone(), None, None, &pruned)
    }

    /// Execute one compiled plan. Delayed schema validation (§4.1.5) rides
    /// every execution: the context carries what the plan assumed about its
    /// partitioned-view members, and each member is re-checked on the
    /// session that opens it — so even a cached plan re-checks exactly the
    /// members it reads, and no member it does not open is contacted.
    fn execute_plan(
        &self,
        compiled: &CachedSelect,
        params: HashMap<String, Value>,
        stats: Option<Arc<RuntimeStatsCollector>>,
        pruned: &Arc<PruneLog>,
    ) -> Result<QueryResult> {
        let (plan, registry) = (&compiled.plan, &compiled.registry);
        let mut ctx = self
            .exec_context(params, Arc::clone(registry))
            .with_degraded(*self.inner.degraded.read())
            .with_pruned(Arc::clone(pruned))
            .with_view_members(&compiled.view_members);
        if let Some(collector) = stats {
            ctx = ctx.with_stats(collector);
        }
        let mut rowset = dhqp_executor::open(plan, &ctx)?;
        // The root drain is a drive point: with batching on, the engine
        // pulls DHQP_BATCH_SIZE-row chunks through the whole pipeline.
        let all_rows = if ctx.batch().enabled {
            rowset.collect_rows_batched(ctx.batch().batch_size)?
        } else {
            rowset.collect_rows()?
        };
        // Trim to the visible SELECT-list columns, in order.
        let mut positions = Vec::with_capacity(compiled.output.len());
        let mut columns = Vec::with_capacity(compiled.output.len());
        for (name, id) in &compiled.output {
            positions.push(plan.output.iter().position(|c| c == id).ok_or_else(|| {
                DhqpError::Execute(format!("output column '{name}' missing from plan"))
            })?);
            let m = registry.meta(*id);
            columns.push(dhqp_types::Column {
                name: name.clone(),
                data_type: m.data_type,
                nullable: m.nullable,
            });
        }
        let rows = all_rows
            .into_iter()
            .map(|r| Row::new(positions.iter().map(|&p| r.values[p].clone()).collect()))
            .collect();
        // Drop the operator tree now so instrumented operators flush their
        // runtime stats before the caller snapshots the collector.
        drop(rowset);
        Ok(QueryResult {
            schema: Schema::new(columns),
            rows,
            rows_affected: None,
        })
    }

    /// Evaluate an uncorrelated scalar subquery eagerly at bind time.
    pub(crate) fn evaluate_scalar_subquery(
        &self,
        stmt: &SelectStmt,
        params: &HashMap<String, Value>,
    ) -> Result<Value> {
        let result = self.run_select(stmt, params)?;
        if result.schema.len() != 1 {
            return Err(DhqpError::Bind(
                "scalar subquery must select exactly one column".into(),
            ));
        }
        match result.rows.len() {
            0 => Ok(Value::Null),
            1 => Ok(result.rows[0].get(0).clone()),
            n => Err(DhqpError::Execute(format!(
                "scalar subquery returned {n} rows"
            ))),
        }
    }

    /// The executor counters shared with every execution context (used by
    /// bind-time pass-through reads so their retries are counted too).
    pub(crate) fn exec_counters(&self) -> Arc<dhqp_executor::ExecCounters> {
        self.inner.metrics.exec_counters()
    }

    /// Count one UPDATE/DELETE row-location read (`dml_seeks` /
    /// `dml_scans` / `dml_rows_located`).
    pub(crate) fn record_dml_read(&self, seek: bool, rows: u64) {
        self.inner.metrics.record_dml_read(seek, rows);
    }

    /// Build an execution context for internal evaluation (DML paths).
    pub(crate) fn exec_context(
        &self,
        params: HashMap<String, Value>,
        registry: Arc<dhqp_optimizer::props::ColumnRegistry>,
    ) -> ExecContext {
        let catalog = Arc::new(EngineCatalog {
            inner: Arc::clone(&self.inner),
        });
        ExecContext::new(catalog, params, registry)
            .with_counters(self.inner.metrics.exec_counters())
            .with_parallel(self.parallel_config())
            .with_retry(self.retry_policy())
            .with_batch(self.batch_config())
            .with_health(Arc::clone(&self.inner.health))
            // DML never prunes: writing around a quarantined member would
            // silently lose rows, so internal contexts always fail.
            .with_degraded(DegradedMode::Fail)
            .with_runtime_prune(*self.inner.runtime_prune.read())
    }

    // ---- observability -----------------------------------------------------

    /// Point-in-time copy of every engine counter: statements by kind,
    /// metadata-cache hits/misses, spool-cache activity, remote round
    /// trips, DTC commit/abort outcomes and full-text searches.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.dmv_metrics()
    }

    /// The most recent statement summaries, oldest first. Ring capacity
    /// defaults to [`crate::metrics::RECENT_QUERY_CAPACITY`] and is set by
    /// [`EngineBuilder::recent_query_capacity`] / `DHQP_RECENT_QUERIES`.
    pub fn recent_queries(&self) -> Vec<QuerySummary> {
        self.inner.metrics.recent_queries()
    }

    /// Statements at or above the armed slow-query threshold
    /// ([`EngineBuilder::slow_query_threshold`] / `DHQP_SLOW_QUERY_MS`),
    /// oldest first. Empty when no threshold is armed.
    pub fn slow_queries(&self) -> Vec<QuerySummary> {
        self.inner.metrics.slow_queries()
    }

    /// Current hierarchical-tracing configuration.
    pub fn trace_config(&self) -> TraceConfig {
        *self.inner.trace.read()
    }

    /// Arm or disarm hierarchical span tracing. Overrides `DHQP_TRACE`.
    pub fn set_trace_config(&self, config: TraceConfig) {
        *self.inner.trace.write() = config;
    }

    /// The span tree of the most recent statement run with tracing armed,
    /// or `None` if no statement has been traced.
    pub fn last_trace(&self) -> Option<Arc<QueryTrace>> {
        self.inner.last_trace.lock().clone()
    }

    /// Cumulative per-class wait accounting since engine start (or the
    /// last clear) — the `sys.dm_os_wait_stats` data.
    pub fn wait_stats(&self) -> WaitSnapshot {
        self.inner.metrics.wait_snapshot()
    }

    /// Zero the wait accounting —
    /// `DBCC SQLPERF('sys.dm_os_wait_stats', CLEAR)`.
    pub fn clear_wait_stats(&self) {
        self.inner.metrics.clear_waits();
    }

    /// Zero every engine counter, query ring, latency histogram and wait
    /// class, plus the health registry's resettable counters (breaker
    /// opens, probes) and the session pools' connect/reuse counts. Breaker
    /// *state* survives — a metrics reset must not quietly re-admit a
    /// quarantined member — and so do idle pooled sessions. The DTC's
    /// outcome log and counters are durable state and are not touched;
    /// reset them by creating a new engine.
    pub fn reset_metrics(&self) {
        self.inner.metrics.reset();
        self.inner.health.reset_counters();
        for (_, pool) in self.inner.dmv_links() {
            pool.reset_counters();
        }
    }

    /// Current event-bus configuration.
    pub fn event_config(&self) -> EventConfig {
        self.inner.events.read().config()
    }

    /// Reconfigure event capture. Replaces the bus: the ring starts empty,
    /// like restarting an XEvents session. Overrides `DHQP_EVENTS`.
    pub fn set_event_config(&self, config: EventConfig) {
        *self.inner.events.write() = Arc::new(EventBus::new(config));
    }

    /// The retained events, oldest first — the `sys.dm_xe_recent_events`
    /// data. Empty when the bus is disabled.
    pub fn recent_events(&self) -> Vec<Event> {
        self.inner.events.read().recent()
    }

    /// Attach a sink observing every subsequently accepted event (dropped
    /// when the bus is replaced via [`Engine::set_event_config`]).
    pub fn add_event_sink(&self, sink: Box<dyn EventSink>) {
        self.inner.events.read().add_sink(sink);
    }

    // ---- query store & cardinality feedback --------------------------------

    pub fn query_store_enabled(&self) -> bool {
        *self.inner.query_store_on.read()
    }

    /// Switch the query store on or off. Turning it off drops the history
    /// (like `ALTER DATABASE ... SET QUERY_STORE = OFF` purging on reset).
    pub fn set_query_store_enabled(&self, enabled: bool) {
        *self.inner.query_store_on.write() = enabled;
        if !enabled {
            self.inner.query_store.lock().clear();
        }
    }

    /// Bound the number of fingerprints tracked (LRU-evicting down).
    pub fn set_query_store_capacity(&self, capacity: usize) {
        self.inner.query_store.lock().set_capacity(capacity);
    }

    /// Fingerprints currently tracked.
    pub fn query_store_len(&self) -> usize {
        self.inner.query_store.lock().len()
    }

    /// Point-in-time copy of the store: per-fingerprint plan + runtime
    /// history, the data behind the three `sys.query_store_*` DMVs.
    pub fn query_store_queries(&self) -> Vec<crate::query_store::QueryStats> {
        self.inner.query_store.lock().snapshot()
    }

    pub fn clear_query_store(&self) {
        self.inner.query_store.lock().clear();
    }

    pub fn card_feedback_enabled(&self) -> bool {
        *self.inner.card_feedback.read()
    }

    /// Toggle the cardinality feedback loop. A compile-side decision like
    /// statistics freshness, not a plan property: no epoch bump — the
    /// loop's own writebacks purge exactly the affected plans.
    pub fn set_card_feedback(&self, on: bool) {
        *self.inner.card_feedback.write() = on;
    }
}

/// What a statement hands back to its entry point.
enum Output {
    Rows(QueryResult),
    Report(Box<AnalyzeReport>),
}

/// What the compile and run stages leave for the epilogue, filled in as the
/// statement advances so an error exit reports as much as a success does.
struct StatementRun<'a> {
    /// Restores the enclosing statement's activity scope when this one ends.
    _activity: ScopeGuard,
    /// This statement's own wait sink.
    waits: Arc<WaitStats>,
    sql: &'a str,
    started: Instant,
    tracer: Option<TraceBuilder>,
    /// One prune log per statement: members degraded mode or startup
    /// pruning skip land here and surface in EXPLAIN ANALYZE /
    /// `sys.dm_exec_requests`.
    pruned: Arc<PruneLog>,
    /// `None` until the text classifies as a statement.
    kind: Option<StatementKind>,
    /// The plan-cache template, once the cache served or compiled the
    /// statement.
    fingerprint: Option<String>,
    /// The SELECT being executed: its compiled plan and plan-cache outcome
    /// (`Some(hit)` through the cache, `None` compiled uncached).
    select: Option<(Arc<CachedSelect>, Option<bool>)>,
    /// Its runtime stats, when a collector was attached.
    collector: Option<Arc<RuntimeStatsCollector>>,
    /// Whether it runs as EXPLAIN ANALYZE: the epilogue builds the report.
    analyze: bool,
}

/// How an executed SELECT is counted.
fn select_kind(analyze: bool) -> StatementKind {
    match analyze {
        true => StatementKind::ExplainAnalyze,
        false => StatementKind::Select,
    }
}

/// One finished compile stage: a `PLAN_COMPILE` wait and, when tracing, a
/// span.
fn compile_stage(tracer: Option<&TraceBuilder>, name: &str, began: Instant) {
    record_wait(WaitClass::PlanCompile, began.elapsed());
    if let Some(tr) = tracer {
        tr.stage(name, began);
    }
}

/// Full-table remote observations eligible for cardinality feedback:
/// `(server, table, observed rows per open)`. Only whole, unfiltered
/// fetches qualify — a `WHERE`/`JOIN`/`GROUP BY`/`TOP`-shaped statement or
/// a semi-join-reduced probe observes a subset of the table, and a
/// correlated (parameterized) statement observes one binding's slice —
/// so observed rows are a true lower bound on the table's cardinality.
fn feedback_candidates(
    plan: &PhysNode,
    runtime: &HashMap<usize, NodeRuntime>,
) -> Vec<(String, String, u64)> {
    /// The bare table of `SELECT <cols> FROM <table>` — `None` for any
    /// statement shape whose row count is not the table's.
    fn bare_table(sql: &str) -> Option<String> {
        let upper = sql.to_ascii_uppercase();
        const REDUCERS: [&str; 7] = [
            " WHERE ",
            " JOIN ",
            " GROUP BY ",
            " ORDER BY ",
            " TOP ",
            " DISTINCT ",
            " LIMIT ",
        ];
        if REDUCERS.iter().any(|m| upper.contains(m)) {
            return None;
        }
        let from = upper.find(" FROM ")?;
        let table = sql[from + " FROM ".len()..].trim();
        if table.is_empty() || table.starts_with('(') || table.contains(' ') {
            return None;
        }
        Some(
            table
                .trim_matches(|c| c == '[' || c == ']' || c == '"')
                .to_string(),
        )
    }
    fn walk(
        node: &PhysNode,
        id: usize,
        runtime: &HashMap<usize, NodeRuntime>,
        out: &mut Vec<(String, String, u64)>,
    ) {
        let target = match &node.op {
            PhysicalOp::RemoteScan { meta } => meta
                .source
                .server_name()
                .map(|s| (s.to_string(), meta.table.clone())),
            PhysicalOp::RemoteQuery {
                server,
                sql,
                params,
                ..
            } if params.is_empty() => bare_table(sql).map(|t| (server.to_string(), t)),
            _ => None,
        };
        if let (Some((server, table)), Some(rt)) = (target, runtime.get(&id)) {
            if let Some(avg) = rt.rows.checked_div(rt.opens) {
                out.push((server, table, avg));
            }
        }
        let mut child_id = id + 1;
        for child in &node.children {
            walk(child, child_id, runtime, out);
            child_id += child.subtree_size();
        }
    }
    let mut out = Vec::new();
    walk(plan, 0, runtime, &mut out);
    out
}
