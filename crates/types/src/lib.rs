//! Core data model shared by every layer of the `dhqp` federated query
//! engine: SQL values, rows, schemas, typed domain intervals (the substrate
//! of the paper's *constraint property framework*), and the common error
//! type.
//!
//! This crate deliberately has no knowledge of providers, plans or SQL text;
//! everything above it (the OLE DB-style provider traits, the storage engine,
//! the Cascades optimizer, the executor) speaks in these types.

pub mod batch;
pub mod error;
pub mod hash;
pub mod interval;
pub mod row;
pub mod value;
pub mod value_set;

pub use batch::RowBatch;
pub use error::{DhqpError, Result};
pub use hash::{fnv1a_64, hash_lines, Fnv1a};
pub use interval::{Interval, IntervalBound, IntervalSet};
pub use row::{schema_stamp, Column, Row, Schema};
pub use value::{Cell, DataType, Value};
pub use value_set::ValueSet;
