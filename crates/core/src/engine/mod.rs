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
    Breaker, DegradedMode, ExecContext, ExecCounters, HealthRegistry, LinkHealthSnapshot,
    MetricsSnapshot, SourceCatalog,
};
use dhqp_federation::{AdHocProviders, MemberTable, PartitionedView};
use dhqp_fulltext::{InvertedIndex, SearchService};
use dhqp_oledb::{
    emit_event, has_hook, timed_wait, DataSource, PooledDataSource, ProviderCapabilities,
    TableSnapshot, TableStatistics, WaitClass, WaitSnapshot,
};
use dhqp_storage::{LocalDataSource, StorageEngine, TableDef};
use dhqp_types::{Cell, DhqpError, IntervalSet, Result, Row, Value};
use parking_lot::{Mutex, RwLock};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// The distributed/heterogeneous query processor. Cheap to clone; clones
/// share all state.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<Inner>,
}

/// One linked server (paper §2.1): its session pool, the capabilities it
/// advertised when registered, its breaker, and the metadata bundles
/// fetched through it. Re-registering the name swaps in a new one whole;
/// what was fetched through the old one dies with it.
pub(crate) struct LinkedServer {
    /// The lowercased name it is registered under.
    pub name: String,
    pub pool: Arc<PooledDataSource>,
    pub caps: Arc<ProviderCapabilities>,
    /// Carried over from the registration it replaces, if any.
    pub breaker: Arc<Breaker>,
    /// Remote metadata bundles by lowercased table name, each good for the
    /// stats TTL.
    tables: RwLock<HashMap<String, FetchedTable>>,
}

impl LinkedServer {
    pub(crate) fn new(name: &str, source: Arc<dyn DataSource>, breaker: Arc<Breaker>) -> Self {
        LinkedServer {
            name: name.to_lowercase(),
            caps: Arc::new(source.capabilities()),
            pool: Arc::new(PooledDataSource::new(source)),
            breaker,
            tables: RwLock::default(),
        }
    }
}

pub(crate) struct Inner {
    name: String,
    storage: Arc<StorageEngine>,
    local_source: Arc<LocalDataSource>,
    /// Every linked server by lowercased name — the one per-server map.
    servers: RwLock<HashMap<String, Arc<LinkedServer>>>,
    providers: RwLock<AdHocProviders>,
    views: RwLock<HashMap<String, Arc<PartitionedView>>>,
    fulltext: Arc<SearchService>,
    /// `(table, column)` → `(catalog, key column)` full-text bindings.
    ft_bindings: RwLock<HashMap<(String, String), (String, String)>>,
    /// Parameterized plan cache: template text → cached compile.
    plan_cache: Mutex<PlanCache>,
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
    /// The breaker knobs and clock every linked server's breaker shares.
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

    /// Every linked server, sorted by name — the `sys` provider itself is
    /// excluded (it has no wire).
    pub(crate) fn dmv_links(&self) -> Vec<Arc<LinkedServer>> {
        let servers = self.servers.read();
        let mut links: Vec<_> = servers
            .values()
            .filter(|link| link.name != SYS_SERVER)
            .cloned()
            .collect();
        links.sort_by(|a, b| a.name.cmp(&b.name));
        links
    }

    /// Engine counters plus the session pools' `connects`/`reuses`. The
    /// live pools are summed under the lock that
    /// [`Inner::register`] retires a replaced pool under, so a reader sees
    /// a pool's counts exactly once.
    pub(crate) fn dmv_metrics(&self) -> MetricsSnapshot {
        let dtc = self.dtc.telemetry();
        let servers = self.servers.read();
        let mut pools = dhqp_oledb::PoolStats::default();
        for link in servers.values().filter(|link| link.name != SYS_SERVER) {
            let stats = link.pool.stats();
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
        self.dmv_links()
            .iter()
            .map(|link| link.breaker.snapshot())
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

impl Inner {
    /// Register `source` as `name`, swapped in whole under one write lock:
    /// the new registration takes over the breaker of the one it replaces,
    /// and the replaced pool's counts are folded into the engine's under
    /// the same lock. Returns the replaced server.
    fn register(&self, name: &str, source: Arc<dyn DataSource>) -> Option<Arc<LinkedServer>> {
        let mut servers = self.servers.write();
        let key = name.to_lowercase();
        let breaker = match servers.get(&key) {
            Some(old) => Arc::clone(&old.breaker),
            None => Arc::new(Breaker::new(&key, &self.health)),
        };
        let old = servers.insert(key, Arc::new(LinkedServer::new(name, source, breaker)))?;
        let (retired, counters) = (old.pool.stats(), &self.metrics.counters);
        counters.session_connects.add(retired.connects);
        counters.session_reuses.add(retired.reuses);
        Some(old)
    }
}

/// The sources one statement runs on: this engine's storage and the linked
/// servers the statement bound (DESIGN.md §11). A name resolves against
/// that short list only, so no registration the statement did not bind is
/// ever read or written.
struct StatementSources(Arc<LocalDataSource>, Vec<Arc<LinkedServer>>);

impl StatementSources {
    fn server(&self, name: &str) -> Result<&Arc<LinkedServer>> {
        let bound = self.1.iter().find(|l| l.name.eq_ignore_ascii_case(name));
        bound.ok_or_else(|| DhqpError::Catalog(format!("linked server '{name}' is not bound")))
    }
}

impl SourceCatalog for StatementSources {
    fn local(&self) -> Arc<dyn DataSource> {
        self.0.clone()
    }

    fn linked(&self, server: &str) -> Result<Arc<dyn DataSource>> {
        Ok(self.server(server)?.pool.clone())
    }

    fn breaker(&self, server: &str) -> Option<Arc<Breaker>> {
        Some(Arc::clone(&self.server(server).ok()?.breaker))
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
    /// its own session pool. Re-registering a name replaces the server
    /// whole: the old source's idle sessions and the metadata fetched
    /// through it go with it — the new server may expose different schemas
    /// under the same table names — and no plan compiled against it is
    /// reused, statistics included. Its breaker stays: re-pointing a name
    /// at a new source does not vouch for the link being healthy.
    pub fn add_linked_server(&self, name: &str, source: Arc<dyn DataSource>) -> Result<()> {
        if let Some(old) = self.inner.register(name, source) {
            let evicted = self.inner.plan_cache.lock().purge_server(&old);
            self.counters().plan_cache_evictions.add(evicted as u64);
        }
        Ok(())
    }

    pub fn linked_server(&self, name: &str) -> Result<Arc<dyn DataSource>> {
        Ok(self.link(name)?.pool.clone())
    }

    /// Register an `OPENROWSET` provider factory.
    pub fn register_openrowset_provider(
        &self,
        name: &str,
        factory: dhqp_federation::linked::AdHocFactory,
    ) {
        self.inner
            .providers
            .write()
            .register_provider(name, factory);
    }

    pub fn open_ad_hoc(&self, provider: &str, datasource: &str) -> Result<Arc<dyn DataSource>> {
        self.inner
            .providers
            .read()
            .open_ad_hoc(provider, datasource)
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
            let link = server.as_deref().map(|s| self.link(s)).transpose()?;
            let fetched = self.table_metadata(link.as_deref(), &table, stats_ttl)?;
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
                for (key, text) in t.heap.column(key_pos).zip(t.heap.column(text_pos)) {
                    let Cell::Int(k) = key else {
                        return Err(DhqpError::Type(
                            "full-text key column must be BIGINT".into(),
                        ));
                    };
                    let text = match text {
                        Cell::Str(s) => Cow::Borrowed(s),
                        Cell::Null => Cow::Borrowed(""),
                        other => Cow::Owned(other.to_value().to_string()),
                    };
                    docs.push((k as u64, text));
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

    /// Fetch a table's metadata bundle; a remote one is fetched through,
    /// and cached for `stats_ttl` in, the linked server given — the one
    /// the statement resolved, even if the name has been re-registered
    /// since. A local table's comes from storage as it is now: the
    /// snapshot storage replaced on its last `ANALYZE` or DDL, and the live
    /// row count.
    pub(crate) fn table_metadata(
        &self,
        server: Option<&LinkedServer>,
        table: &str,
        stats_ttl: Duration,
    ) -> Result<FetchedTable> {
        match server {
            None => {
                let (catalog, rows) = self.inner.local_source.catalog(table)?;
                Ok(FetchedTable {
                    catalog,
                    cardinality: Some(rows),
                    fetched_at: Instant::now(),
                    feedback: false,
                })
            }
            Some(link) => {
                let key = table.to_lowercase();
                if let Some(hit) = link.tables.read().get(&key) {
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
                // The whole remote fetch — schema plus per-column
                // histograms — is one STATS_FETCH wait: the compile is
                // blocked on the wire for its full duration.
                let (info, stats) = timed_wait(WaitClass::StatsFetch, || -> Result<_> {
                    let info = link.pool.table(table)?;
                    let stats = if link.caps.statistics_support {
                        let mut session = link.pool.create_session()?;
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
                    Ok((info, stats))
                })?;
                if stats.is_some() {
                    self.counters().stats_cache_misses.bump();
                }
                let fetched = FetchedTable {
                    catalog: Arc::new(TableSnapshot::of(&info).with_stats(stats)),
                    cardinality: info.cardinality,
                    fetched_at: Instant::now(),
                    feedback: false,
                };
                link.tables.write().insert(key, fetched.clone());
                Ok(fetched)
            }
        }
    }

    /// The linked server registered as `name` now.
    pub(crate) fn link(&self, name: &str) -> Result<Arc<LinkedServer>> {
        let servers = self.inner.servers.read();
        let link = servers.get(&name.to_lowercase()).cloned();
        link.ok_or_else(|| DhqpError::Catalog(format!("unknown linked server '{name}'")))
    }

    pub(crate) fn local_capabilities(&self) -> Arc<ProviderCapabilities> {
        Arc::clone(self.inner.local_source.shared_capabilities())
    }

    /// Drop cached remote metadata (after remote DDL/bulk changes). Also
    /// invalidates every cached plan — they may embed the stale schemas.
    pub fn clear_metadata_cache(&self) {
        for link in self.inner.servers.read().values() {
            link.tables.write().clear();
        }
        self.bump_schema_epoch();
    }

    // ---- plan-cache epochs ------------------------------------------------------

    fn bump_schema_epoch(&self) {
        self.inner.schema_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// What a plan compiled right now against `servers` depends on.
    fn current_deps(&self, servers: &[Arc<LinkedServer>]) -> CacheDeps {
        CacheDeps {
            servers: servers.iter().map(Arc::downgrade).collect(),
            schema_epoch: self.inner.schema_epoch.load(Ordering::Relaxed),
            config_epoch: self.inner.config_epoch.load(Ordering::Relaxed),
        }
    }

    /// Whether `link` is still what its name is registered as: a replaced
    /// server's plans and feedback are dropped.
    fn is_registered(&self, link: &Arc<LinkedServer>) -> bool {
        let servers = self.inner.servers.read();
        matches!(servers.get(&link.name), Some(now) if Arc::ptr_eq(now, link))
    }

    /// The servers a cached plan was compiled against, while the plan is
    /// current: no epoch has moved and each of them is still what its name
    /// is registered as. A hit runs on exactly these.
    fn deps_current(&self, deps: &CacheDeps) -> Option<Vec<Arc<LinkedServer>>> {
        let epochs = deps.schema_epoch == self.inner.schema_epoch.load(Ordering::Relaxed)
            && deps.config_epoch == self.inner.config_epoch.load(Ordering::Relaxed);
        let current = |link: &Weak<LinkedServer>| link.upgrade().filter(|l| self.is_registered(l));
        epochs.then(|| deps.servers.iter().map(current).collect())?
    }

    /// Look up a cached plan, validating its epochs, with the servers it
    /// runs on. A stale entry is evicted and reported as a miss. A hit
    /// credits one metadata-cache hit per server: the bind-time metadata
    /// consultation was avoided entirely.
    fn plan_cache_lookup(&self, key: &str) -> Option<(Arc<CachedSelect>, Vec<Arc<LinkedServer>>)> {
        let entry = self.inner.plan_cache.lock().get(key)?;
        if let Some(servers) = self.deps_current(&entry.deps) {
            self.counters().plan_cache_hits.bump();
            if has_hook() {
                emit_event("plan_cache_hit", &[("template", key.to_string())]);
            }
            self.counters().meta_cache_hits.add(servers.len() as u64);
            Some((entry, servers))
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

    /// Build an execution context under one statement's knobs, on the
    /// linked servers the statement bound.
    pub(crate) fn exec_context(
        &self,
        knobs: &Knobs,
        params: HashMap<String, Value>,
        registry: Arc<dhqp_optimizer::props::ColumnRegistry>,
        servers: &[Arc<LinkedServer>],
    ) -> ExecContext {
        let catalog = StatementSources(Arc::clone(&self.inner.local_source), servers.to_vec());
        ExecContext::new(Arc::new(catalog), params, registry)
            .with_counters(Arc::clone(self.counters()))
            .with_parallel(knobs.parallel.clone())
            .with_retry(knobs.retry.clone())
            .with_batch(knobs.batch.clone())
            // DML never prunes: writing around a quarantined member would
            // silently lose rows, so only `execute_plan` takes the knob.
            .with_degraded(DegradedMode::Fail)
            .with_runtime_prune(knobs.runtime_prune)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source(name: &str) -> Arc<dyn DataSource> {
        Arc::new(LocalDataSource::new(Arc::new(StorageEngine::new(name))))
    }

    #[test]
    fn add_resolve_replace() {
        let engine = Engine::new("head");
        engine
            .add_linked_server("DeptSQLSrvr", source("dept"))
            .unwrap();
        assert!(
            engine.linked_server("deptsqlsrvr").is_ok(),
            "names are case-insensitive"
        );
        let breaker = Arc::clone(&engine.link("deptsqlsrvr").unwrap().breaker);
        // Re-registration replaces the server whole, breaker excepted.
        engine
            .add_linked_server("DEPTSQLSRVR", source("x"))
            .unwrap();
        assert_eq!(engine.linked_server("deptsqlsrvr").unwrap().name(), "x");
        let link = engine.link("DeptSqlSrvr").unwrap();
        assert!(Arc::ptr_eq(&link.breaker, &breaker));
        let names: Vec<String> = engine
            .inner
            .dmv_links()
            .iter()
            .map(|l| l.name.clone())
            .collect();
        assert_eq!(names, vec!["deptsqlsrvr"]);
        assert!(engine.linked_server("other").is_err());
    }

    #[test]
    fn sessions_are_pooled_per_registration() {
        let engine = Engine::new("head");
        engine.add_linked_server("s", source("a")).unwrap();
        for _ in 0..3 {
            engine.linked_server("s").unwrap().create_session().unwrap();
        }
        let stats = engine.link("S").unwrap().pool.stats();
        assert_eq!((stats.connects, stats.reuses, stats.idle), (1, 2, 1));
        // A new registration starts with a new, empty pool.
        let old = engine.link("s").unwrap();
        engine.add_linked_server("s", source("b")).unwrap();
        let stats = engine.link("s").unwrap().pool.stats();
        assert_eq!((stats.connects, stats.reuses, stats.idle), (0, 0, 0));
        assert_eq!(
            old.pool.stats().idle,
            1,
            "the old pool goes with its last holder"
        );
    }
}
