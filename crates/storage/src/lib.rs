//! The local storage engine.
//!
//! SQL Server accesses its own storage engine through OLE DB — "the code
//! patterns to access data from local and external sources are almost
//! identical" (paper §2). This crate follows suit: it implements heap
//! tables with bookmarks, B-tree secondary indexes with range seeks (an
//! index is its table's bookmarks in key order; the keys stay in the heap,
//! which stores each column at its declared type), CHECK constraints,
//! equi-depth histogram statistics and one write path (a batch admitted
//! whole, then applied, at once or at a two-phase commit) — and then
//! exposes all of it through the `dhqp_oledb` traits via
//! [`provider::LocalDataSource`].
//!
//! The same engine type doubles as the "remote SQL Server" when wrapped
//! behind a network-simulating provider, which is how the repo reproduces
//! distributed experiments on one machine.

pub mod btree;
pub mod catalog;
pub mod heap;
pub mod histogram;
pub mod provider;
pub mod table;
pub mod txn;

pub use catalog::{CheckConstraint, StorageEngine, TableDef};
pub use provider::{LocalDataSource, LocalSession};
pub use table::Table;
pub use txn::Batch;
