//! Execution context: parameter values, correlation bindings, data-source
//! resolution and the shared spool cache.

use crate::health::{Breaker, DegradedMode, PruneLog};
use crate::ops::retry::RetryPolicy;
use crate::schema_guard::{MemberChecks, MemberSchema, SchemaGuard};
use crate::stats::{ExecCounters, RuntimeStatsCollector};
use dhqp_oledb::DataSource;
use dhqp_optimizer::props::ColumnRegistry;
use dhqp_optimizer::ColumnId;
use dhqp_types::{Column, DhqpError, Result, Row, Schema, Value};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The sources one execution reads: the local store and the linked servers
/// its plan names. The engine hands each statement the servers its bind
/// resolved, so a name resolves against that short list only and never
/// against whatever the name is registered as by then (DESIGN.md §11);
/// tests provide small stubs.
pub trait SourceCatalog: Send + Sync {
    /// The local storage engine's data source.
    fn local(&self) -> Arc<dyn DataSource>;

    /// A linked server by name.
    fn linked(&self, server: &str) -> Result<Arc<dyn DataSource>>;

    /// The breaker a linked server's reads answer to; `None` (test stubs)
    /// means they are not gated.
    fn breaker(&self, _server: &str) -> Option<Arc<Breaker>> {
        None
    }
}

/// A materialized spool, shared across rescans of the same plan node.
pub type SpoolData = Arc<(Schema, Vec<Row>)>;

/// Knobs for intra-query parallel remote execution. Threaded through
/// [`ExecContext`] so every operator open sees the same settings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Master switch. On, a union with two or more remote members opens
    /// them on exchange workers, which drain what they open, and a remote
    /// rowset the statement's own thread reads is prefetched by one worker
    /// of its own; off, nothing leaves the consumer's thread.
    pub enabled: bool,
    /// Maximum worker threads per exchange; branches are distributed
    /// round-robin when there are more branches than workers.
    pub max_workers: usize,
    /// Bounded-channel capacity (rows, counted in pulls) between workers
    /// and their consumer — the backpressure window.
    pub exchange_queue: usize,
}

impl ParallelConfig {
    /// Everything off: the single-threaded pull pipeline.
    pub fn serial() -> Self {
        ParallelConfig {
            enabled: false,
            max_workers: 8,
            exchange_queue: 256,
        }
    }

    /// Exchange dispatch and prefetching on, with default sizing.
    pub fn parallel() -> Self {
        ParallelConfig {
            enabled: true,
            ..ParallelConfig::serial()
        }
    }
}

/// How many rows the engine asks for at a time. Every drain inside a
/// statement — the root, hash build and probe, sort, spool, aggregates,
/// exchange and prefetch workers — pulls [`BatchConfig::batch_size`] rows
/// through [`dhqp_oledb::Rowset::next_batch`], and the network layer ships
/// one simulated round trip per pull. Row at a time is batch size 1
/// through the same code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchConfig {
    /// Rows per chunk (`DHQP_BATCH_SIZE`, default 1024, clamped to ≥ 1).
    pub batch_size: usize,
}

/// Default rows per chunk.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

impl BatchConfig {
    /// An explicit chunk size.
    pub fn batched(batch_size: usize) -> Self {
        BatchConfig {
            batch_size: batch_size.max(1),
        }
    }
}

/// Per-execution state threaded through every operator.
#[derive(Clone)]
pub struct ExecContext {
    catalog: Arc<dyn SourceCatalog>,
    /// `@name` parameter values for this execution.
    params: Arc<HashMap<String, Value>>,
    /// Correlation bindings: outer-row column values visible to a
    /// re-opened inner subtree of a nested-loop join.
    bindings: Arc<HashMap<u32, Value>>,
    /// Spool cache keyed by plan-node address (stable for the duration of
    /// one query execution).
    spools: Arc<Mutex<HashMap<usize, SpoolData>>>,
    /// Column metadata snapshot from binding, used to build operator
    /// output schemas.
    registry: Arc<ColumnRegistry>,
    /// Engine-wide lock-free counters (remote round trips, spool cache
    /// activity). The engine passes its own shared instance so counts
    /// survive the execution.
    counters: Arc<ExecCounters>,
    /// Per-node runtime stats, attached only for `EXPLAIN ANALYZE` (or
    /// tests); `None` keeps the plain execution path unchanged.
    stats: Option<Arc<RuntimeStatsCollector>>,
    /// Intra-query parallelism knobs (exchange workers, prefetch).
    parallel: Arc<ParallelConfig>,
    /// Retry/backoff policy for idempotent remote reads.
    retry: Arc<RetryPolicy>,
    /// Vectorized-execution knobs (chunked pulls, batched wire shipping).
    batch: Arc<BatchConfig>,
    /// What to do when a DPV member is quarantined: fail or prune.
    degraded: DegradedMode,
    /// Runtime parameter-driven DPV pruning (§4.1.5): evaluate member
    /// startup predicates eagerly at drive time so non-qualifying members
    /// are skipped (and reported) before a connection or worker is spent
    /// on them. Off, startup filters still gate lazily — results are
    /// identical, only the reporting and the avoided opens differ.
    runtime_prune: bool,
    /// Members pruned during this execution (shared with the engine so the
    /// statement can report them after the drain).
    pruned: Arc<PruneLog>,
    /// Delayed schema validation for the partitioned-view members this
    /// plan reads; `None` when it reads none.
    schema_guard: Option<Arc<SchemaGuard>>,
    /// Whether what opens under this context is read by an exchange
    /// worker, which drains it itself, rather than by the statement's own
    /// thread.
    on_worker: bool,
}

impl ExecContext {
    pub fn new(
        catalog: Arc<dyn SourceCatalog>,
        params: HashMap<String, Value>,
        registry: Arc<ColumnRegistry>,
    ) -> Self {
        ExecContext {
            catalog,
            params: Arc::new(params),
            bindings: Arc::new(HashMap::new()),
            spools: Arc::new(Mutex::new(HashMap::new())),
            registry,
            counters: Arc::new(ExecCounters::default()),
            stats: None,
            parallel: Arc::new(ParallelConfig::serial()),
            retry: Arc::new(RetryPolicy::standard()),
            batch: Arc::new(BatchConfig::batched(DEFAULT_BATCH_SIZE)),
            degraded: DegradedMode::Fail,
            runtime_prune: true,
            pruned: Arc::new(PruneLog::default()),
            schema_guard: None,
            on_worker: false,
        }
    }

    /// Share the engine's lock-free execution counters with this context.
    pub fn with_counters(mut self, counters: Arc<ExecCounters>) -> Self {
        self.counters = counters;
        self
    }

    /// Attach a per-node runtime stats collector (`EXPLAIN ANALYZE`).
    pub fn with_stats(mut self, stats: Arc<RuntimeStatsCollector>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Override the parallel-execution knobs for this execution.
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = Arc::new(parallel);
        self
    }

    /// Override the retry policy for this execution.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Arc::new(retry);
        self
    }

    /// Override the vectorized-execution knobs for this execution.
    pub fn with_batch(mut self, batch: BatchConfig) -> Self {
        self.batch = Arc::new(batch);
        self
    }

    /// Override the degraded-mode policy for this execution.
    pub fn with_degraded(mut self, degraded: DegradedMode) -> Self {
        self.degraded = degraded;
        self
    }

    /// Override the runtime startup-pruning knob for this execution.
    pub fn with_runtime_prune(mut self, runtime_prune: bool) -> Self {
        self.runtime_prune = runtime_prune;
        self
    }

    /// The context of a branch an exchange worker opens and drains.
    pub fn for_worker(mut self) -> Self {
        self.on_worker = true;
        self
    }

    /// Share a per-statement prune log so the engine can report skipped
    /// members after the drain.
    pub fn with_pruned(mut self, pruned: Arc<PruneLog>) -> Self {
        self.pruned = pruned;
        self
    }

    /// Validate these partitioned-view members as the plan opens them
    /// (delayed schema validation, see [`crate::schema_guard`]).
    pub fn with_view_members(mut self, members: &Arc<[MemberSchema]>) -> Self {
        self.schema_guard = SchemaGuard::new(members);
        self
    }

    /// The view members a request naming `table` on `server` (`None` = the
    /// local source) reads.
    pub(crate) fn member_checks(&self, server: Option<&str>, table: &str) -> MemberChecks {
        match &self.schema_guard {
            Some(guard) => guard.checks_for_table(server, table),
            None => MemberChecks::default(),
        }
    }

    /// The view members a statement pushed down to `server` reads.
    pub(crate) fn member_checks_in_sql(&self, server: &str, sql: &str) -> MemberChecks {
        match &self.schema_guard {
            Some(guard) => guard.checks_in_sql(server, sql),
            None => MemberChecks::default(),
        }
    }

    pub fn parallel(&self) -> &ParallelConfig {
        &self.parallel
    }

    pub fn batch(&self) -> &BatchConfig {
        &self.batch
    }

    pub fn retry(&self) -> &RetryPolicy {
        &self.retry
    }

    pub fn counters(&self) -> &Arc<ExecCounters> {
        &self.counters
    }

    pub fn stats(&self) -> Option<&Arc<RuntimeStatsCollector>> {
        self.stats.as_ref()
    }

    pub fn degraded(&self) -> DegradedMode {
        self.degraded
    }

    pub fn runtime_prune(&self) -> bool {
        self.runtime_prune
    }

    pub fn on_worker(&self) -> bool {
        self.on_worker
    }

    pub fn pruned(&self) -> &Arc<PruneLog> {
        &self.pruned
    }

    /// Build the runtime schema for a list of output columns.
    pub fn schema_of(&self, columns: &[ColumnId]) -> Schema {
        Schema::new(
            columns
                .iter()
                .map(|&c| {
                    let m = self.registry.meta(c);
                    Column {
                        name: m.name.to_string(),
                        data_type: m.data_type,
                        nullable: m.nullable,
                    }
                })
                .collect(),
        )
    }

    pub fn catalog(&self) -> &Arc<dyn SourceCatalog> {
        &self.catalog
    }

    pub fn param(&self, name: &str) -> Result<&Value> {
        self.params
            .get(name)
            .ok_or_else(|| DhqpError::Execute(format!("missing value for parameter @{name}")))
    }

    pub fn binding(&self, column: u32) -> Option<&Value> {
        self.bindings.get(&column)
    }

    /// A child context with correlation bindings replaced (the nested-loop
    /// join's per-outer-row rebind). The spool cache is shared so inner
    /// spools survive rescans.
    pub fn with_bindings(&self, bindings: HashMap<u32, Value>) -> ExecContext {
        ExecContext {
            bindings: Arc::new(bindings),
            ..self.clone()
        }
    }

    pub fn cached_spool(&self, key: usize) -> Option<SpoolData> {
        let cached = self.spools.lock().expect("spool lock").get(&key).cloned();
        if cached.is_some() {
            self.counters.spool_hits.bump();
        }
        cached
    }

    pub fn store_spool(&self, key: usize, data: SpoolData) {
        self.counters.spool_builds.bump();
        self.spools.lock().expect("spool lock").insert(key, data);
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use dhqp_storage::{LocalDataSource, StorageEngine};

    /// A catalog over one local engine plus named remote sources, gated by
    /// the breakers in `breakers`.
    pub struct TestCatalog {
        pub local: Arc<dyn DataSource>,
        pub remotes: HashMap<String, Arc<dyn DataSource>>,
        pub breakers: HashMap<String, Arc<Breaker>>,
    }

    impl TestCatalog {
        pub fn with_local(engine: Arc<StorageEngine>) -> Self {
            TestCatalog {
                local: Arc::new(LocalDataSource::new(engine)),
                remotes: HashMap::new(),
                breakers: HashMap::new(),
            }
        }
    }

    impl SourceCatalog for TestCatalog {
        fn local(&self) -> Arc<dyn DataSource> {
            Arc::clone(&self.local)
        }

        fn linked(&self, server: &str) -> Result<Arc<dyn DataSource>> {
            self.remotes
                .get(server)
                .cloned()
                .ok_or_else(|| DhqpError::Catalog(format!("unknown linked server '{server}'")))
        }

        fn breaker(&self, server: &str) -> Option<Arc<Breaker>> {
            self.breakers.get(server).cloned()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhqp_storage::StorageEngine;

    #[test]
    fn params_and_bindings_resolve() {
        let catalog = Arc::new(test_support::TestCatalog::with_local(Arc::new(
            StorageEngine::new("local"),
        )));
        let mut params = HashMap::new();
        params.insert("id".to_string(), Value::Int(7));
        let ctx = ExecContext::new(catalog, params, Arc::new(ColumnRegistry::new()));
        assert_eq!(ctx.param("id").unwrap(), &Value::Int(7));
        assert!(ctx.param("missing").is_err());
        assert!(ctx.binding(3).is_none());
        let child = ctx.with_bindings([(3u32, Value::Int(9))].into_iter().collect());
        assert_eq!(child.binding(3), Some(&Value::Int(9)));
        // Params survive rebinding.
        assert_eq!(child.param("id").unwrap(), &Value::Int(7));
    }

    #[test]
    fn spool_cache_is_shared_across_rebinds() {
        let catalog = Arc::new(test_support::TestCatalog::with_local(Arc::new(
            StorageEngine::new("local"),
        )));
        let ctx = ExecContext::new(catalog, HashMap::new(), Arc::new(ColumnRegistry::new()));
        let data: SpoolData = Arc::new((Schema::empty(), vec![]));
        ctx.store_spool(42, Arc::clone(&data));
        let child = ctx.with_bindings(HashMap::new());
        assert!(child.cached_spool(42).is_some());
    }
}
