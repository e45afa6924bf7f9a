//! `dhqp` — a distributed/heterogeneous query processor in Rust.
//!
//! This crate is the top of the stack described in the paper's Figure 1: a
//! relational engine whose optimizer and executor treat every data source —
//! the local storage engine, remote engines, full-text catalogs, mail
//! files, spreadsheets, CSV files — through one OLE DB-style provider
//! abstraction.
//!
//! ```
//! use dhqp::Engine;
//! use dhqp_types::Value;
//!
//! let engine = Engine::new("local");
//! engine.execute("CREATE-less API: tables are defined programmatically").ok();
//! # let _ = engine;
//! ```
//!
//! See `examples/quickstart.rs` for the end-to-end tour: linked servers,
//! four-part names, `OPENROWSET`, full-text `CONTAINS`, partitioned views
//! and distributed transactions.

pub mod analyze;
pub mod binder;
pub(crate) mod dml;
pub mod dmv;
pub mod engine;
pub mod events;
pub mod knobs;
pub mod metrics;
pub mod plan_cache;
pub mod query_store;
pub mod record;
pub mod remote;
pub mod result;
pub mod trace;

pub use analyze::AnalyzeReport;
pub use dmv::SYS_SERVER;
pub use engine::{Engine, EngineBuilder};
pub use events::{Event, EventBus, EventConfig, EventKind, EventSink, JsonlSink};
pub use metrics::StatementKind;
pub use plan_cache::PlanCacheConfig;
pub use query_store::QueryStoreConfig;
pub use record::{OperatorRecord, StatementRecord};
pub use remote::EngineDataSource;
pub use result::QueryResult;
pub use trace::{QueryTrace, TraceConfig, TraceSpan};

pub use dhqp_dtc::{DtcStats, RecoveryReport};
pub use dhqp_executor::{
    BatchConfig, BreakerConfig, BreakerState, DegradedMode, HealthRegistry, LinkHealthSnapshot,
    MetricsSnapshot, ParallelConfig, RetryPolicy,
};
pub use dhqp_netsim::FaultConfig;
pub use dhqp_oledb::{WaitClass, WaitSnapshot, WaitStats, WaitTotals};
pub use dhqp_optimizer::{OptimizationPhase, OptimizerConfig};
