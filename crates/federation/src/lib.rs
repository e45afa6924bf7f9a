//! Federation support: ad-hoc (`OPENROWSET`) providers and distributed
//! partitioned views (paper §2.1, §4.1.5).
//!
//! "Linked server names associate a server name with an OLE DB data
//! source"; a distributed partitioned view "unions horizontally partitioned
//! data from a set of member tables across one or more servers, making the
//! data appear as if from one table", with per-member CHECK constraints on
//! the partitioning column feeding the constraint property framework.
//! Delayed schema validation (§4.1.5) is implemented by snapshotting member
//! schemas at definition time and re-checking them at execution, never at
//! compile time: [`PartitionedView::validate_member`] defines what "the same
//! schema" means, the executor sends the snapshot's
//! [`dhqp_oledb::TableInfo::schema_stamp`] with the request that opens a
//! member so the member can make that comparison itself, and calls
//! `validate_member` against freshly fetched metadata for providers that
//! cannot.

pub mod dpv;
pub mod linked;

pub use dpv::{MemberTable, PartitionedView};
pub use linked::AdHocProviders;
