//! The Cascades-style cost-based optimizer with native distributed query
//! support (paper §4.1).
//!
//! Architecture, following the paper closely:
//!
//! * **One algebra for local and remote.** Logical operators are
//!   location-transparent; a [`logical::TableMeta`] tags each `Get` with its
//!   [`logical::Locality`] and provider capabilities. Exploration rules
//!   never look at locality; implementation rules do (§4.1.3).
//! * **Memo** ([`memo`]) stores equivalence classes (*groups*) of logical
//!   and physical expressions; duplicate detection prevents re-search.
//! * **Rules** ([`rules`]) are split into exploration (logical→logical) and
//!   implementation (logical→physical), each carrying a *promise* used to
//!   order application; operator *guidance* prunes rules that cannot match
//!   (§4.1.1).
//! * **Properties**: logical group properties include output columns, keys,
//!   cardinality and the constraint-domain framework (§4.1.5); physical
//!   properties track delivered sort order, with a Sort *enforcer* and the
//!   *spool over remote* enforcer (§4.1.2/4.1.4).
//! * **Phases** ([`search::OptimizationPhase`]): transaction-processing,
//!   quick-plan and full optimization, with cost-based early exit.
//! * **Decoder** ([`decoder`]): turns a remotable logical subtree back into
//!   provider-dialect SQL, honouring `DBPROP_SQLSUPPORT` levels and dialect
//!   details; the *build remote query* rule may pick any remotable
//!   alternative from a group (§4.1.4).

pub mod cardinality;
pub mod cost;
pub mod decoder;
pub mod explain;
pub mod logical;
pub mod memo;
pub mod physical;
pub mod props;
pub mod rules;
pub mod scalar;
pub mod search;

pub use logical::{JoinKind, Locality, LogicalExpr, LogicalOp, TableMeta};
pub use physical::{PhysNode, PhysicalOp};
pub use props::{derive_domains, ColumnId, ColumnMeta, ColumnRegistry, Domains};
pub use scalar::{AggCall, AggFunc, ArithOp, CmpOp, ScalarExpr};
pub use search::{OptimizationPhase, Optimizer, OptimizerConfig, OptimizerStats};
