//! OLE DB-style provider abstractions (paper §3).
//!
//! OLE DB defines a small object hierarchy — *data source* → *session* →
//! *command* → *rowset* (Figure 3 of the paper) — plus capability and
//! statistics extensions that let a query processor discover how much work a
//! source can do itself. This crate is the Rust rendering of that contract:
//!
//! | OLE DB                               | here                                   |
//! |--------------------------------------|----------------------------------------|
//! | `IDBInitialize` / `IDBCreateSession` | [`DataSource`]                         |
//! | session pooling (OLE DB services)    | [`PooledDataSource`]                   |
//! | service components (decorators)      | [`layer`]: [`SessionLayer`] etc.       |
//! | `IOpenRowset` / `IDBCreateCommand`   | [`Session`]                            |
//! | `ICommand::Execute`                  | [`Command`]                            |
//! | `IRowset`                            | [`Rowset`]                             |
//! | `IRowsetIndex` (seek/range)          | [`Session::open_index`] + [`KeyRange`] |
//! | `IRowsetLocate` (bookmarks)          | [`Session::fetch_by_bookmarks`]        |
//! | `IDBSchemaRowset` / `TABLES_INFO`    | [`schema::TableInfo`] rowsets          |
//! | histogram rowset extension           | [`statistics::Histogram`]              |
//! | `DBPROP_SQLSUPPORT` etc.             | [`capabilities::ProviderCapabilities`] |
//! | `ITransactionJoin`                   | [`Session::join_transaction`]          |
//!
//! Every data source in the system — including the engine's own local
//! storage engine, exactly as in SQL Server — plugs in through these traits.

pub mod capabilities;
pub mod datasource;
pub mod layer;
pub mod pool;
pub mod rowset;
pub mod schema;
pub mod statistics;
pub mod telemetry;
pub mod waits;

pub use capabilities::{
    DateLiteralStyle, Dialect, LimitSyntax, ProviderCapabilities, ProviderClass, SqlSupport,
};
pub use datasource::{
    is_read_only, Command, CommandResult, DataSource, KeyRange, Session, TrafficSnapshot, TxnId,
};
pub use layer::{CommandLayer, CommandVerb, Enlistment, Reply, SessionLayer, SourceLayer, Verb};
pub use pool::{PoolStats, PooledDataSource, MAX_IDLE_SESSIONS};
pub use rowset::{IterRowset, MemRowset, RowCursor, Rowset, RowsetExt};
pub use schema::{ColumnInfo, IndexInfo, SchemaRowsetKind, TableInfo, TableSnapshot};
pub use statistics::{Histogram, HistogramBucket, TableStatistics};
pub use telemetry::{HistogramSnapshot, LatencySummary, LogHistogram, HISTOGRAM_BUCKETS};
pub use waits::{
    charged, current_scope, emit_event, has_hook, install_scope, record_traffic, record_wait,
    timed_wait, ActivityScope, EventHook, ScopeGuard, WaitClass, WaitSnapshot, WaitStats,
    WaitTotals, WAIT_CLASSES,
};
