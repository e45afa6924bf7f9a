//! Simulated network links between the DHQP and remote providers.
//!
//! The paper's remote cost model "aims at finding plans with minimal network
//! traffic" (§4.1.3). To make that objective *observable* without real
//! machines, every remote data source in this repo is wrapped in a
//! [`NetworkLink`] that:
//!
//! * counts requests (round trips), rows and bytes in both directions, and
//! * optionally injects latency/bandwidth delay so wall-clock benchmarks
//!   reflect traffic differences, not just counters.
//!
//! Benches snapshot link stats before and after a query to report the
//! rows/bytes-shipped columns of the experiment tables.

//! Links can also misbehave on purpose: [`FaultConfig`]/[`FaultPlan`]
//! inject deterministic, seeded faults (refused connects, transient command
//! errors, mid-stream drops, stalls) through the same wrapper, so the
//! executor's retry and 2PC recovery paths are testable without real
//! network flakiness. `DHQP_FAULT_SEED=<n>` arms a default chaos plan.

pub mod fault;
pub mod link;
pub mod wrap;

pub use fault::{FaultConfig, FaultPlan};
pub use link::{
    HistogramSnapshot, LatencySummary, LinkStats, NetworkConfig, NetworkLink, TrafficSnapshot,
};
pub use wrap::{NetworkedDataSource, SCHEMA_STAMP_WIRE_BYTES, TXN_VERB_WIRE_BYTES};
