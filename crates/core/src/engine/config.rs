//! Engine configuration: the builder, the runtime knob getters/setters —
//! every setter is one [`Engine::update`] over the engine's [`Knobs`].

use super::{Engine, Inner};
use crate::dmv::{SysDataSource, SYS_SERVER};
use crate::events::{EventBus, EventConfig};
use crate::knobs::{EnvKnobs, Knobs};
use crate::metrics::EngineMetrics;
use crate::plan_cache::{PlanCache, PlanCacheConfig};
use crate::query_store::{QueryStore, QueryStoreConfig};
use crate::trace::TraceConfig;
use dhqp_dtc::TransactionCoordinator;
use dhqp_executor::{
    BatchConfig, BreakerConfig, DegradedMode, HealthRegistry, ParallelConfig, RetryPolicy,
};
use dhqp_federation::AdHocProviders;
use dhqp_fulltext::SearchService;
use dhqp_optimizer::OptimizerConfig;
use dhqp_storage::{LocalDataSource, StorageEngine};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a knob change does to the engine beyond the value itself.
enum Effect {
    /// Read per statement; cached plans and every structure stay valid.
    None,
    /// Plan shape depends on it: bump `config_epoch`.
    StalePlans,
    /// Resize the plan cache; drop every plan when it is switched off.
    PlanCache,
    /// Resize the Query Store; drop its history when it is switched off.
    QueryStore,
    /// Hand the breakers their new tuning. Breaker *state* survives —
    /// retuning thresholds must not heal a quarantined link.
    Breakers,
    /// Replace the event bus: the ring starts empty and sinks are dropped,
    /// like restarting an XEvents session.
    EventSession,
}

/// Builder for engines with non-default configuration.
pub struct EngineBuilder {
    name: String,
    knobs: Knobs,
    /// What the environment resolved to, kept for `sys.dm_os_knobs`.
    env: EnvKnobs,
}

impl EngineBuilder {
    /// Start from the defaults overridden by the process environment.
    pub fn new(name: impl Into<String>) -> Self {
        Self::resolved(name.into(), Knobs::from_env())
    }

    /// [`EngineBuilder::new`] with `lookup` standing in for the process
    /// environment, so a test can set `DHQP_*` names without mutating it.
    pub fn from_lookup(name: impl Into<String>, lookup: impl Fn(&str) -> Option<String>) -> Self {
        Self::resolved(name.into(), Knobs::from_lookup(lookup))
    }

    fn resolved(name: String, env: EnvKnobs) -> Self {
        EngineBuilder {
            name,
            knobs: env.knobs.clone(),
            env,
        }
    }

    pub fn optimizer_config(mut self, config: OptimizerConfig) -> Self {
        self.knobs.optimizer = config;
        self
    }

    /// Parallel remote execution knobs (exchange workers, prefetch).
    pub fn parallel_config(mut self, parallel: ParallelConfig) -> Self {
        self.knobs.parallel = parallel;
        self
    }

    /// Retry/backoff policy for remote opens and mid-stream rewinds.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.knobs.retry = retry;
        self
    }

    /// Batched row shipping: chunked pulls across operators and links.
    pub fn batch_config(mut self, batch: BatchConfig) -> Self {
        self.knobs.batch = batch;
        self
    }

    /// Parameterized plan-cache knobs (enabled + capacity).
    pub fn plan_cache_config(mut self, plan_cache: PlanCacheConfig) -> Self {
        self.knobs.plan_cache = plan_cache;
        self
    }

    /// Max age of cached remote metadata/statistics before a refetch.
    pub fn stats_ttl(mut self, ttl: Duration) -> Self {
        self.knobs.stats_ttl = ttl;
        self
    }

    /// How many finished statements' records the recent-query ring
    /// (`sys.dm_exec_requests`) retains.
    pub fn recent_query_capacity(mut self, capacity: usize) -> Self {
        self.knobs.recent_queries = capacity;
        self
    }

    /// Arm the slow-query log: statements at or above `threshold` are
    /// retained in a separate ring ([`Engine::slow_queries`]).
    pub fn slow_query_threshold(mut self, threshold: Option<Duration>) -> Self {
        self.knobs.slow_query = threshold;
        self
    }

    /// Hierarchical span tracing.
    pub fn trace_config(mut self, trace: TraceConfig) -> Self {
        self.knobs.trace = trace;
        self
    }

    /// Structured event capture.
    pub fn event_config(mut self, events: EventConfig) -> Self {
        self.knobs.events = events;
        self
    }

    /// Per-link circuit-breaker tuning.
    pub fn breaker_config(mut self, breaker: BreakerConfig) -> Self {
        self.knobs.breaker = breaker;
        self
    }

    /// Quarantined-member policy: fail the statement or prune the member.
    pub fn degraded_mode(mut self, degraded: DegradedMode) -> Self {
        self.knobs.degraded = degraded;
        self
    }

    /// Runtime parameter-driven DPV pruning: evaluate startup predicates
    /// at drive time and skip non-qualifying members without a connection.
    pub fn runtime_prune(mut self, on: bool) -> Self {
        self.knobs.runtime_prune = on;
        self
    }

    /// Query Store knobs (enabled + capacity).
    pub fn query_store_config(mut self, query_store: QueryStoreConfig) -> Self {
        self.knobs.query_store = query_store;
        self
    }

    /// Cardinality feedback loop.
    pub fn card_feedback(mut self, on: bool) -> Self {
        self.knobs.card_feedback = on;
        self
    }

    pub fn build(self) -> Engine {
        let mut knobs = self.knobs;
        knobs.clamp();
        let storage = Arc::new(StorageEngine::new(self.name.clone()));
        let local_source = Arc::new(LocalDataSource::new(Arc::clone(&storage)));
        let engine = Engine {
            inner: Arc::new(Inner {
                name: self.name,
                storage,
                local_source,
                servers: RwLock::new(HashMap::new()),
                providers: RwLock::new(AdHocProviders::new()),
                views: RwLock::new(HashMap::new()),
                fulltext: Arc::new(SearchService::new()),
                ft_bindings: RwLock::new(HashMap::new()),
                plan_cache: Mutex::new(PlanCache::new(knobs.plan_cache.capacity)),
                schema_epoch: AtomicU64::new(0),
                config_epoch: AtomicU64::new(0),
                dtc: TransactionCoordinator::new(),
                metrics: EngineMetrics::new(knobs.recent_queries),
                events: RwLock::new(Arc::new(EventBus::new(knobs.events))),
                health: Arc::new(HealthRegistry::new(knobs.breaker)),
                query_store: Mutex::new(QueryStore::new(knobs.query_store.capacity)),
                knobs: RwLock::new(Arc::new(knobs)),
                env: self.env,
            }),
        };
        // Every engine self-registers its DMVs as the built-in `sys`
        // linked server — observability rowsets flow through the same
        // provider machinery as any remote source.
        let sys = Arc::new(SysDataSource::new(Arc::downgrade(&engine.inner)));
        engine.inner.register(SYS_SERVER, sys);
        engine
    }
}

impl Engine {
    /// The knobs in force right now. A statement takes this once, at begin.
    pub(crate) fn knobs(&self) -> Arc<Knobs> {
        Arc::clone(&self.inner.knobs.read())
    }

    /// The one way a knob changes after build. The write lock is held
    /// across the side effect, so a statement beginning meanwhile
    /// snapshots the old knobs with the old components or the new with the
    /// new, never a mix.
    fn update(&self, effect: Effect, change: impl FnOnce(&mut Knobs)) {
        let inner = &self.inner;
        let mut slot = inner.knobs.write();
        let mut knobs = Knobs::clone(&slot);
        change(&mut knobs);
        knobs.clamp();
        match effect {
            Effect::None => {}
            Effect::StalePlans => {
                inner.config_epoch.fetch_add(1, Ordering::Relaxed);
            }
            Effect::PlanCache => {
                let mut cache = inner.plan_cache.lock();
                let mut evicted = cache.set_capacity(knobs.plan_cache.capacity);
                if !knobs.plan_cache.enabled {
                    evicted += cache.clear();
                }
                inner
                    .metrics
                    .counters
                    .plan_cache_evictions
                    .add(evicted as u64);
            }
            Effect::QueryStore => {
                let mut store = inner.query_store.lock();
                store.set_capacity(knobs.query_store.capacity);
                if !knobs.query_store.enabled {
                    store.clear();
                }
            }
            Effect::Breakers => inner.health.set_config(knobs.breaker),
            Effect::EventSession => *inner.events.write() = Arc::new(EventBus::new(knobs.events)),
        }
        *slot = Arc::new(knobs);
    }

    pub fn optimizer_config(&self) -> OptimizerConfig {
        self.knobs().optimizer.clone()
    }

    pub fn set_optimizer_config(&self, config: OptimizerConfig) {
        self.update(Effect::StalePlans, |k| k.optimizer = config);
    }

    pub fn parallel_config(&self) -> ParallelConfig {
        self.knobs().parallel.clone()
    }

    /// Set the parallel remote-execution knobs. Whether a union dispatches
    /// its members in parallel is decided when it opens, so a cached plan
    /// serves both settings.
    pub fn set_parallel_config(&self, parallel: ParallelConfig) {
        self.update(Effect::None, |k| k.parallel = parallel);
    }

    pub fn retry_policy(&self) -> RetryPolicy {
        self.knobs().retry.clone()
    }

    /// Set the retry/backoff policy applied to remote opens and mid-stream
    /// rewinds on transient transport faults. Retry is applied per
    /// execution, not baked into the plan.
    pub fn set_retry_policy(&self, retry: RetryPolicy) {
        self.update(Effect::None, |k| k.retry = retry);
    }

    pub fn batch_config(&self) -> BatchConfig {
        self.knobs().batch.clone()
    }

    /// Set the batched-shipping knobs (on/off + rows per round trip).
    /// Batching never changes plan shape.
    pub fn set_batch_config(&self, batch: BatchConfig) {
        self.update(Effect::None, |k| k.batch = batch);
    }

    pub fn degraded_mode(&self) -> DegradedMode {
        self.knobs().degraded
    }

    /// Set the quarantined-member policy: the same cached plan prunes or
    /// fails depending on the mode its statement began under.
    pub fn set_degraded_mode(&self, degraded: DegradedMode) {
        self.update(Effect::None, |k| k.degraded = degraded);
    }

    pub fn runtime_prune_enabled(&self) -> bool {
        self.knobs().runtime_prune
    }

    /// Toggle runtime parameter-driven DPV pruning. Cached plans keep
    /// their lazy startup filters — the knob only decides whether members
    /// are skipped eagerly (no connection) or yield empty rowsets lazily.
    pub fn set_runtime_prune(&self, on: bool) {
        self.update(Effect::None, |k| k.runtime_prune = on);
    }

    pub fn breaker_config(&self) -> BreakerConfig {
        self.knobs().breaker
    }

    pub fn set_breaker_config(&self, breaker: BreakerConfig) {
        self.update(Effect::Breakers, |k| k.breaker = breaker);
    }

    pub fn plan_cache_enabled(&self) -> bool {
        self.knobs().plan_cache.enabled
    }

    pub fn set_plan_cache_enabled(&self, enabled: bool) {
        self.update(Effect::PlanCache, |k| k.plan_cache.enabled = enabled);
    }

    /// Bound the plan cache's entry count (LRU-evicting down if needed).
    pub fn set_plan_cache_capacity(&self, capacity: usize) {
        self.update(Effect::PlanCache, |k| k.plan_cache.capacity = capacity);
    }

    /// Number of plans currently cached.
    pub fn plan_cache_len(&self) -> usize {
        self.inner.plan_cache.lock().len()
    }

    /// Max age of cached remote metadata/statistics before the bind path
    /// refetches over the wire.
    pub fn stats_ttl(&self) -> Duration {
        self.knobs().stats_ttl
    }

    pub fn set_stats_ttl(&self, ttl: Duration) {
        self.update(Effect::None, |k| k.stats_ttl = ttl);
    }

    pub fn trace_config(&self) -> TraceConfig {
        self.knobs().trace
    }

    pub fn set_trace_config(&self, config: TraceConfig) {
        self.update(Effect::None, |k| k.trace = config);
    }

    pub fn event_config(&self) -> EventConfig {
        self.knobs().events
    }

    /// Reconfigure event capture; setting the current configuration again
    /// restarts the session all the same.
    pub fn set_event_config(&self, config: EventConfig) {
        self.update(Effect::EventSession, |k| k.events = config);
    }

    pub fn query_store_enabled(&self) -> bool {
        self.knobs().query_store.enabled
    }

    pub fn set_query_store_enabled(&self, enabled: bool) {
        self.update(Effect::QueryStore, |k| k.query_store.enabled = enabled);
    }

    /// Bound the number of fingerprints tracked (LRU-evicting down).
    pub fn set_query_store_capacity(&self, capacity: usize) {
        self.update(Effect::QueryStore, |k| k.query_store.capacity = capacity);
    }

    pub fn card_feedback_enabled(&self) -> bool {
        self.knobs().card_feedback
    }

    /// Toggle the cardinality feedback loop. No epoch bump: the loop's own
    /// writebacks purge exactly the plans they affect.
    pub fn set_card_feedback(&self, on: bool) {
        self.update(Effect::None, |k| k.card_feedback = on);
    }
}
