//! Engine configuration: the builder, the runtime knob getters/setters and
//! the `sys.dm_os_knobs` rows that report where each effective value came
//! from.

use super::{Engine, Inner};
use crate::dmv::{SysDataSource, SYS_SERVER};
use crate::events::{EventBus, EventConfig};
use crate::metrics::{EngineMetrics, RECENT_QUERY_CAPACITY};
use crate::plan_cache::{PlanCache, PlanCacheConfig};
use crate::query_store::{QueryStore, QueryStoreConfig};
use crate::trace::TraceConfig;
use dhqp_dtc::TransactionCoordinator;
use dhqp_executor::{
    BatchConfig, BreakerConfig, DegradedMode, HealthRegistry, ParallelConfig, RetryPolicy,
};
use dhqp_federation::LinkedServerRegistry;
use dhqp_fulltext::SearchService;
use dhqp_optimizer::OptimizerConfig;
use dhqp_storage::{LocalDataSource, StorageEngine};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

impl Inner {
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

impl Engine {
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

    /// Current hierarchical-tracing configuration.
    pub fn trace_config(&self) -> TraceConfig {
        *self.inner.trace.read()
    }

    /// Arm or disarm hierarchical span tracing. Overrides `DHQP_TRACE`.
    pub fn set_trace_config(&self, config: TraceConfig) {
        *self.inner.trace.write() = config;
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
