//! Linked servers: named OLE DB data sources (paper §2.1) plus the ad-hoc
//! provider factories behind `OPENROWSET`.

use dhqp_oledb::{DataSource, PooledDataSource};
use dhqp_types::{DhqpError, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// Factory for ad-hoc (`OPENROWSET`) connections: given the datasource
/// string (e.g. a catalog name or file path), produce a data source.
pub type AdHocFactory = Arc<dyn Fn(&str) -> Result<Arc<dyn DataSource>> + Send + Sync>;

/// The registry of linked servers and OPENROWSET provider factories.
///
/// Every linked server is reached through a session pool that lives and
/// dies with its registration: callers keep calling `create_session()` on
/// what [`LinkedServerRegistry::linked_server`] returns and get an idle
/// session when there is one. Ad-hoc (`OPENROWSET`) sources are connected
/// per use and not pooled.
#[derive(Default, Clone)]
pub struct LinkedServerRegistry {
    servers: HashMap<String, Arc<PooledDataSource>>,
    providers: HashMap<String, AdHocFactory>,
}

impl LinkedServerRegistry {
    pub fn new() -> Self {
        LinkedServerRegistry::default()
    }

    /// Define a linked server name → data source association
    /// (`sp_addlinkedserver`). Re-registering a name replaces the old
    /// association and drops its pool, idle sessions included; callers
    /// caching metadata per server must invalidate it.
    pub fn add_linked_server(&mut self, name: &str, source: Arc<dyn DataSource>) -> Result<()> {
        self.servers
            .insert(name.to_lowercase(), Arc::new(PooledDataSource::new(source)));
        Ok(())
    }

    pub fn drop_linked_server(&mut self, name: &str) -> Result<()> {
        self.servers
            .remove(&name.to_lowercase())
            .map(|_| ())
            .ok_or_else(|| DhqpError::Catalog(format!("no linked server '{name}'")))
    }

    /// Resolve a linked server by name.
    pub fn linked_server(&self, name: &str) -> Result<Arc<dyn DataSource>> {
        self.session_pool(name)
            .map(|pool| pool as Arc<dyn DataSource>)
    }

    /// The pooled face of a linked server, for its counters.
    pub fn session_pool(&self, name: &str) -> Result<Arc<PooledDataSource>> {
        self.servers
            .get(&name.to_lowercase())
            .cloned()
            .ok_or_else(|| DhqpError::Catalog(format!("unknown linked server '{name}'")))
    }

    pub fn server_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.servers.keys().cloned().collect();
        names.sort();
        names
    }

    /// Register an OPENROWSET provider by name ('MSIDXS', 'Mail', ...).
    pub fn register_provider(&mut self, name: &str, factory: AdHocFactory) {
        self.providers.insert(name.to_lowercase(), factory);
    }

    /// Open an ad-hoc connection: `OPENROWSET('provider', 'datasource', ...)`.
    pub fn open_ad_hoc(&self, provider: &str, datasource: &str) -> Result<Arc<dyn DataSource>> {
        let factory = self
            .providers
            .get(&provider.to_lowercase())
            .ok_or_else(|| {
                DhqpError::Catalog(format!("no OLE DB provider registered as '{provider}'"))
            })?;
        factory(datasource)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhqp_storage::{LocalDataSource, StorageEngine};

    fn source(name: &str) -> Arc<dyn DataSource> {
        Arc::new(LocalDataSource::new(Arc::new(StorageEngine::new(name))))
    }

    #[test]
    fn add_resolve_drop() {
        let mut reg = LinkedServerRegistry::new();
        reg.add_linked_server("DeptSQLSrvr", source("dept"))
            .unwrap();
        assert!(
            reg.linked_server("deptsqlsrvr").is_ok(),
            "names are case-insensitive"
        );
        // Re-registration replaces the association.
        reg.add_linked_server("DEPTSQLSRVR", source("x")).unwrap();
        assert_eq!(reg.linked_server("deptsqlsrvr").unwrap().name(), "x");
        assert_eq!(reg.server_names(), vec!["deptsqlsrvr"]);
        reg.drop_linked_server("DeptSQLSrvr").unwrap();
        assert!(reg.linked_server("DeptSQLSrvr").is_err());
        assert!(reg.drop_linked_server("DeptSQLSrvr").is_err());
    }

    #[test]
    fn sessions_are_pooled_per_registration() {
        let mut reg = LinkedServerRegistry::new();
        reg.add_linked_server("s", source("a")).unwrap();
        for _ in 0..3 {
            reg.linked_server("s").unwrap().create_session().unwrap();
        }
        let stats = reg.session_pool("S").unwrap().stats();
        assert_eq!((stats.connects, stats.reuses, stats.idle), (1, 2, 1));
        // A new registration starts with a new, empty pool.
        let old = reg.session_pool("s").unwrap();
        reg.add_linked_server("s", source("b")).unwrap();
        let stats = reg.session_pool("s").unwrap().stats();
        assert_eq!((stats.connects, stats.reuses, stats.idle), (0, 0, 0));
        assert_eq!(
            old.stats().idle,
            1,
            "the old pool goes with its last holder"
        );
    }

    #[test]
    fn ad_hoc_factories() {
        let mut reg = LinkedServerRegistry::new();
        reg.register_provider(
            "MSIDXS",
            Arc::new(|ds: &str| {
                if ds == "DQLiterature" {
                    Ok(source("ft") as Arc<dyn DataSource>)
                } else {
                    Err(DhqpError::Catalog(format!("no catalog '{ds}'")))
                }
            }),
        );
        assert!(reg.open_ad_hoc("msidxs", "DQLiterature").is_ok());
        assert!(reg.open_ad_hoc("msidxs", "Other").is_err());
        assert!(reg.open_ad_hoc("unknown", "x").is_err());
    }
}
