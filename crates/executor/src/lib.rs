//! The execution engine: Volcano-style operators over OLE DB rowsets.
//!
//! Every operator consumes and produces the [`dhqp_oledb::Rowset`]
//! abstraction, so local scans, remote query results and full-text rowsets
//! compose identically — the paper's layering argument (§3.1.2) made
//! executable. The remote family (`RemoteQuery`, `RemoteScan`,
//! `RemoteRange`, `SemiJoinReduce`), the rescannable spool operator and the
//! [`ops::filter`] startup filter implement the physical side of §4.1.2's
//! distributed implementation rules.
//!
//! Remote work can run concurrently: the [`ops::exchange`] module hosts the
//! exchange workers a union opens its members on and the remote-rowset
//! prefetcher (one such worker over one branch), both governed by the
//! [`ParallelConfig`] knobs on the execution context.

pub mod build;
pub mod context;
pub mod eval;
pub mod health;
pub mod ops;
pub mod schema_guard;
pub mod stats;

pub use build::open;
pub use context::{BatchConfig, ExecContext, ParallelConfig, SourceCatalog, DEFAULT_BATCH_SIZE};
pub use eval::{eval_expr, eval_predicate, RowEnv};
pub use health::{
    Admission, Breaker, BreakerConfig, BreakerState, DegradedMode, HealthRegistry,
    LinkHealthSnapshot, PruneLog,
};
pub use ops::retry::RetryPolicy;
pub use ops::semijoin::predicate_fingerprint;
pub use schema_guard::{MemberSchema, ValidateMember};
pub use stats::{
    ExchangeRuntime, ExecCounters, MetricsSnapshot, NodeRuntime, RemoteTrace,
    RuntimeStatsCollector, SemiJoinTrace, WorkerSpan,
};
