//! The "remote SQL Server" provider: a whole engine behind the OLE DB-style
//! traits.
//!
//! This realizes the paper's Figure 1 layering literally: "OLE DB is the
//! interface used by SQL Server to access its local storage engine, thus
//! the code patterns to access data from local and external sources are
//! almost identical." A pushed-down statement (the *build remote query*
//! rule's output) is re-parsed, re-optimized and executed by the remote
//! engine's own DHQP — remote sources are autonomous.
//!
//! Wrap an `EngineDataSource` in `dhqp_netsim::NetworkedDataSource` to put
//! it at the end of a simulated link.

use crate::engine::Engine;
use dhqp_oledb::{
    is_read_only, Command, CommandResult, DataSource, ProviderCapabilities, Reply, Session,
    SessionLayer, TableInfo, Verb,
};
use dhqp_storage::LocalSession;
use dhqp_types::Result;
use parking_lot::Mutex;
use std::sync::Arc;

/// An engine exposed as an OLE DB-style data source (SQL-92 level, index,
/// statistics and transaction support).
pub struct EngineDataSource {
    engine: Engine,
}

impl EngineDataSource {
    pub fn new(engine: Engine) -> Self {
        EngineDataSource { engine }
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl DataSource for EngineDataSource {
    fn name(&self) -> &str {
        self.engine.name()
    }

    fn capabilities(&self) -> ProviderCapabilities {
        ProviderCapabilities::sql_server("SQLOLEDB")
    }

    fn tables(&self) -> Result<Vec<TableInfo>> {
        self.engine.local_data_source().tables()
    }

    fn table(&self, name: &str) -> Result<TableInfo> {
        self.engine.local_data_source().table(name)
    }

    fn create_session(&self) -> Result<Box<dyn Session>> {
        Ok(Box::new(EngineSession {
            engine: self.engine.clone(),
            storage_session: Arc::new(Mutex::new(self.engine.local_data_source().local_session())),
        }))
    }
}

/// A session against a remote engine: base-table access goes straight to
/// its storage engine; commands go through its full query processor.
struct EngineSession {
    engine: Engine,
    /// Shared with the session's commands: a pushed INSERT/UPDATE/DELETE
    /// writes through it, so it is part of whatever transaction the session
    /// is enlisted in.
    storage_session: Arc<Mutex<LocalSession>>,
}

impl SessionLayer for EngineSession {
    fn call(&mut self, verb: Verb<'_>) -> Result<Reply> {
        match verb {
            Verb::CreateCommand() => Ok(Reply::Command(Box::new(EngineCommand {
                engine: self.engine.clone(),
                storage_session: Arc::clone(&self.storage_session),
                text: None,
            }))),
            verb => {
                let reply = verb.send(&mut *self.storage_session.lock());
                refresh_committed(&self.engine, &self.storage_session);
                reply
            }
        }
    }
}

/// Index what a commit on `session` made visible — a `commit`, or a write
/// the commit rode — as the engine does after a write of its own. The
/// outcome is decided by then: a catalog that fails to rebuild is not the
/// commit's failure, and keeps what the last refresh left in it.
fn refresh_committed(engine: &Engine, session: &Mutex<LocalSession>) {
    let committed = session.lock().take_committed();
    for table in committed {
        let _ = engine.refresh_fulltext_index(&table);
    }
}

struct EngineCommand {
    engine: Engine,
    storage_session: Arc<Mutex<LocalSession>>,
    text: Option<String>,
}

impl Command for EngineCommand {
    fn set_text(&mut self, text: &str) -> Result<()> {
        self.text = Some(text.to_string());
        Ok(())
    }

    fn execute(&mut self) -> Result<CommandResult> {
        let text = self
            .text
            .as_deref()
            .ok_or_else(|| dhqp_types::DhqpError::Provider("command has no text".into()))?;
        // A SELECT answers as a stream its consumer pulls, the member's
        // operator tree itself (DESIGN.md §14).
        if is_read_only(text) {
            return self.engine.open_statement(text);
        }
        // A statement that writes runs to completion on the session it was
        // sent through, inside the consumer's transaction if there is one.
        let ran = self
            .engine
            .execute_on_session(text, &mut self.storage_session.lock());
        refresh_committed(&self.engine, &self.storage_session);
        ran.map_err(|e| match e.is_retryable() {
            // A pushed-down statement that *writes* may have partially
            // applied before the failure; re-sending it is not idempotent.
            // Strip the retryable classification so no upstream retry
            // layer blindly re-issues it.
            true => dhqp_types::DhqpError::Provider(format!(
                "remote statement is not idempotent, refusing retry: {e}"
            )),
            false => e,
        })
    }
}
