//! The ad-hoc provider factories behind `OPENROWSET` (paper §2.1). Linked
//! servers themselves are the engine's: one `LinkedServer` per name.

use dhqp_oledb::DataSource;
use dhqp_types::{DhqpError, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// Factory for ad-hoc (`OPENROWSET`) connections: given the datasource
/// string (e.g. a catalog name or file path), produce a data source.
pub type AdHocFactory = Arc<dyn Fn(&str) -> Result<Arc<dyn DataSource>> + Send + Sync>;

/// The OPENROWSET provider factories by name. Ad-hoc sources are connected
/// per use and not pooled.
#[derive(Default, Clone)]
pub struct AdHocProviders {
    providers: HashMap<String, AdHocFactory>,
}

impl AdHocProviders {
    pub fn new() -> Self {
        AdHocProviders::default()
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
    fn ad_hoc_factories() {
        let mut reg = AdHocProviders::new();
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
