//! The engine: catalog, metadata and plan-cache epochs. The statement
//! driver lives in [`statement`], configuration (builder, knobs,
//! `sys.dm_os_knobs`) in [`config`], and per-statement accounting plus the
//! metrics/event accessors in [`observe`].

mod config;
mod observe;
mod statement;

pub use config::EngineBuilder;

use crate::binder::FetchedTable;
use crate::dmv::SYS_SERVER;
use crate::events::{Event, EventBus};
use crate::knobs::{EnvKnobs, KnobRow, Knobs, KNOBS};
use crate::metrics::EngineMetrics;
use crate::plan_cache::{CacheDeps, CachedSelect, PlanCache};
use crate::query_store::{QueryStats, QueryStore};
use crate::record::StatementRecord;
use dhqp_dtc::TransactionCoordinator;
use dhqp_executor::{
    DegradedMode, ExecContext, ExecCounters, HealthRegistry, LinkHealthSnapshot, MetricsSnapshot,
    SourceCatalog,
};
use dhqp_federation::{LinkedServerRegistry, MemberTable, PartitionedView};
use dhqp_fulltext::{InvertedIndex, SearchService};
use dhqp_oledb::{
    emit_event, has_hook, timed_wait, DataSource, TableSnapshot, TableStatistics, WaitClass,
    WaitSnapshot,
};
use dhqp_storage::{LocalDataSource, StorageEngine, TableDef};
use dhqp_types::{DhqpError, IntervalSet, Result, Row, Value};
use parking_lot::{Mutex, RwLock};
use std::borrow::Cow;
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
    views: RwLock<HashMap<String, Arc<PartitionedView>>>,
    fulltext: Arc<SearchService>,
    /// `(table, column)` → `(catalog, key column)` full-text bindings.
    ft_bindings: RwLock<HashMap<(String, String), (String, String)>>,
    /// Remote metadata cache: `(server, table)` → fetched bundle. Local
    /// tables are never cached (they are cheap and always fresh).
    meta_cache: RwLock<HashMap<(String, String), FetchedTable>>,
    /// Parameterized plan cache: template text → cached compile.
    plan_cache: Mutex<PlanCache>,
    /// Per-linked-server invalidation epochs (lowercased names). Bumped on
    /// re-registration; cached plans depending on an older epoch are stale.
    server_epochs: RwLock<HashMap<String, u64>>,
    /// Bumped on local DDL, `ANALYZE`, DPV (re)definition and
    /// `clear_metadata_cache` — invalidates every cached plan.
    schema_epoch: AtomicU64,
    /// Bumped on optimizer configuration changes.
    config_epoch: AtomicU64,
    /// Every knob, swapped whole by `Engine::update` (config.rs). A
    /// statement snapshots it once at begin and never reads the lock
    /// again, so it runs under exactly one configuration.
    knobs: RwLock<Arc<Knobs>>,
    /// What the environment resolved to at build (`sys.dm_os_knobs`).
    env: EnvKnobs,
    dtc: Arc<TransactionCoordinator>,
    metrics: EngineMetrics,
    /// The structured event bus, replaced whole by
    /// [`Engine::set_event_config`].
    events: RwLock<Arc<EventBus>>,
    /// Member health: one circuit breaker per linked server, fed by retry
    /// give-ups and consulted before every remote open. Shared with every
    /// execution context.
    health: Arc<HealthRegistry>,
    /// Per-fingerprint plan/runtime history (`sys.query_store_*`).
    query_store: Mutex<QueryStore>,
}

// DMV accessors: read-only state snapshots the `sys` provider
// (crate::dmv) materializes into rowsets at open time.
impl Inner {
    pub(crate) fn dmv_recent(&self) -> Vec<Arc<StatementRecord>> {
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

    /// The `sys.dm_os_knobs` rows, `(name, value, source)`: `env` when the
    /// environment named the knob at build and the value is still what
    /// that resolved to, else `builder` when it is off the default.
    pub(crate) fn dmv_knobs(&self) -> Vec<(&'static str, String, &'static str)> {
        let current = Arc::clone(&self.knobs.read());
        let (env, default) = (&self.env, Knobs::default());
        let row = |knob: &KnobRow| {
            let value = (knob.render)(&current);
            let source = if env.named.contains(&knob.name) && value == (knob.render)(&env.knobs) {
                "env"
            } else if value != (knob.render)(&default) {
                "builder"
            } else {
                "default"
            };
            (knob.name, value, source)
        };
        KNOBS.iter().map(row).collect()
    }

    /// The query store's per-fingerprint history — the data behind the
    /// three `sys.query_store_*` views.
    pub(crate) fn dmv_query_store(&self) -> Vec<QueryStats> {
        self.query_store.lock().snapshot()
    }
}

/// The executor's view of this engine's sources.
impl SourceCatalog for Inner {
    fn local(&self) -> Arc<dyn DataSource> {
        Arc::clone(&self.local_source) as Arc<dyn DataSource>
    }

    fn linked(&self, server: &str) -> Result<Arc<dyn DataSource>> {
        self.registry.read().linked_server(server)
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
                let (retired, counters) = (old.stats(), self.counters());
                counters.session_connects.add(retired.connects);
                counters.session_reuses.add(retired.reuses);
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
        self.counters().plan_cache_evictions.add(evicted as u64);
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
        let stats_ttl = self.stats_ttl();
        let mut built = Vec::with_capacity(members.len());
        for (server, table, check) in members {
            let fetched = self.table_metadata(server.as_deref(), &table, stats_ttl)?;
            if let Some(s) = &server {
                // Member links show up in sys.dm_link_health (Closed)
                // before any traffic touches them.
                self.inner.health.ensure(s);
            }
            let schema_snapshot = fetched.catalog.table_info(&table, fetched.cardinality);
            built.push(MemberTable {
                server,
                table,
                check,
                schema_snapshot,
            });
        }
        let view = PartitionedView::define(name, partition_column, built)?;
        self.inner
            .views
            .write()
            .insert(name.to_lowercase(), Arc::new(view));
        // (Re)defining a view changes what its name binds to.
        self.bump_schema_epoch();
        Ok(())
    }

    pub fn partitioned_view(&self, name: &str) -> Option<Arc<PartitionedView>> {
        self.inner.views.read().get(&name.to_lowercase()).cloned()
    }

    /// Create a full-text index over a local table's text column, keyed by
    /// an integer key column (§2.3: indexes live *outside* the database
    /// engine, in the search service). A catalog indexes one table column.
    pub fn create_fulltext_index(
        &self,
        table: &str,
        key_column: &str,
        text_column: &str,
        catalog: &str,
    ) -> Result<()> {
        let column = (table.to_lowercase(), text_column.to_lowercase());
        {
            let mut bindings = self.inner.ft_bindings.write();
            let taken = bindings
                .iter()
                .find(|(bound, (cat, _))| cat.eq_ignore_ascii_case(catalog) && **bound != column);
            if let Some(((t, c), _)) = taken {
                return Err(DhqpError::Catalog(format!(
                    "full-text catalog '{catalog}' already indexes {t}.{c}"
                )));
            }
            if !self.inner.fulltext.has_catalog(catalog) {
                self.inner.fulltext.create_catalog(catalog)?;
            }
            bindings.insert(column, (catalog.to_string(), key_column.to_string()));
        }
        self.refresh_fulltext_index(table)
    }

    /// Rebuild the full-text catalogs over a table's columns (index
    /// maintenance; invoked automatically after engine-mediated DML): each
    /// catalog is built afresh from the rows, read in place under the
    /// table's read lock, and swapped in whole — a deleted or rewritten row
    /// leaves nothing behind (DESIGN.md §24).
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
            let index = self.inner.storage.with_table(&table, |t| {
                let (Some(key_pos), Some(text_pos)) =
                    (t.schema.index_of(&key_col), t.schema.index_of(&text_col))
                else {
                    return Err(DhqpError::Catalog(format!(
                        "full-text binding on {table} references missing columns"
                    )));
                };
                let mut docs = Vec::with_capacity(t.heap.len());
                for (_, row) in t.heap.scan() {
                    let Value::Int(k) = &row[key_pos] else {
                        return Err(DhqpError::Type(
                            "full-text key column must be BIGINT".into(),
                        ));
                    };
                    let text = match &row[text_pos] {
                        Value::Str(s) => Cow::Borrowed(s.as_str()),
                        Value::Null => Cow::Borrowed(""),
                        other => Cow::Owned(other.to_string()),
                    };
                    docs.push((*k as u64, text));
                }
                Ok(InvertedIndex::build(
                    docs.iter().map(|(k, text)| (*k, text.as_ref())),
                ))
            })??;
            self.inner.fulltext.replace_index(&catalog, index)?;
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
        self.counters().fulltext_searches.bump();
        self.inner.fulltext.query_keys(catalog, query)
    }

    // ---- metadata ----------------------------------------------------------

    /// Fetch a table's metadata bundle; remote ones cache for `stats_ttl`.
    /// A local table's comes from storage as it is now: the snapshot
    /// storage replaced on its last `ANALYZE` or DDL, and the live row
    /// count.
    pub(crate) fn table_metadata(
        &self,
        server: Option<&str>,
        table: &str,
        stats_ttl: Duration,
    ) -> Result<FetchedTable> {
        match server {
            None => {
                let (catalog, rows) = self.inner.local_source.catalog(table)?;
                Ok(FetchedTable {
                    catalog,
                    caps: Arc::clone(self.inner.local_source.shared_capabilities()),
                    cardinality: Some(rows),
                    fetched_at: Instant::now(),
                    feedback: false,
                })
            }
            Some(server) => {
                let key = (server.to_lowercase(), table.to_lowercase());
                if let Some(hit) = self.inner.meta_cache.read().get(&key) {
                    // A bundle past its TTL is treated as a miss: the
                    // optimizer must not cost against arbitrarily old
                    // remote statistics.
                    if hit.fetched_at.elapsed() <= stats_ttl {
                        self.counters().meta_cache_hits.bump();
                        if hit.catalog.stats.is_some() {
                            self.counters().stats_cache_hits.bump();
                        }
                        return Ok(hit.clone());
                    }
                }
                self.counters().meta_cache_misses.bump();
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
                        Some(Arc::new(stats))
                    } else {
                        None
                    };
                    Ok((info, caps, stats))
                })?;
                if stats.is_some() {
                    self.counters().stats_cache_misses.bump();
                }
                let fetched = FetchedTable {
                    catalog: Arc::new(TableSnapshot::of(&info).with_stats(stats)),
                    caps: Arc::new(caps),
                    cardinality: info.cardinality,
                    fetched_at: Instant::now(),
                    feedback: false,
                };
                self.inner.meta_cache.write().insert(key, fetched.clone());
                Ok(fetched)
            }
        }
    }

    /// Capabilities of a server without fetching any table metadata.
    pub(crate) fn server_capabilities(
        &self,
        server: Option<&str>,
    ) -> Result<Arc<dhqp_oledb::ProviderCapabilities>> {
        match server {
            None => Ok(Arc::clone(self.inner.local_source.shared_capabilities())),
            Some(s) => Ok(Arc::new(self.linked_server(s)?.capabilities())),
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

    // ---- plan-cache epochs ------------------------------------------------------

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
            self.counters().plan_cache_hits.bump();
            if has_hook() {
                emit_event("plan_cache_hit", &[("template", key.to_string())]);
            }
            for _ in &entry.deps.servers {
                self.counters().meta_cache_hits.bump();
            }
            Some(entry)
        } else {
            if self.inner.plan_cache.lock().remove(key) {
                self.counters().plan_cache_evictions.bump();
            }
            None
        }
    }

    // ---- services for the binder and DML ----------------------------------------

    /// The engine's counters, shared with every execution context (and
    /// with bind-time pass-through reads, so their retries count too).
    pub(crate) fn counters(&self) -> &Arc<ExecCounters> {
        &self.inner.metrics.counters
    }

    /// The per-link breakers a bind-time pass-through read answers to.
    pub(crate) fn health(&self) -> &Arc<HealthRegistry> {
        &self.inner.health
    }

    /// Build an execution context under one statement's knobs.
    pub(crate) fn exec_context(
        &self,
        knobs: &Knobs,
        params: HashMap<String, Value>,
        registry: Arc<dhqp_optimizer::props::ColumnRegistry>,
    ) -> ExecContext {
        let catalog = Arc::clone(&self.inner) as Arc<dyn SourceCatalog>;
        ExecContext::new(catalog, params, registry)
            .with_counters(Arc::clone(self.counters()))
            .with_parallel(knobs.parallel.clone())
            .with_retry(knobs.retry.clone())
            .with_batch(knobs.batch.clone())
            .with_health(Arc::clone(&self.inner.health))
            // DML never prunes: writing around a quarantined member would
            // silently lose rows, so only `execute_plan` takes the knob.
            .with_degraded(DegradedMode::Fail)
            .with_runtime_prune(knobs.runtime_prune)
    }
}
