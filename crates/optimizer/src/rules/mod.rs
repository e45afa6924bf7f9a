//! The rule engine: simplification, exploration and implementation rules
//! (paper §4.1.1–§4.1.2).
//!
//! * **Simplification rules** ([`simplify`]) are heuristic tree rewrites
//!   run before memo insertion — predicate splitting and pushdown,
//!   constant folding, static partition pruning and startup-filter
//!   introduction. SQL Server runs these in the same rule framework; we
//!   run them as a deterministic normalization pass with the same effect.
//! * **Exploration rules** ([`exploration`]) generate logical alternatives
//!   inside the memo: join commutation, locality-aware join association.
//! * **Implementation rules** ([`implementation`]) generate physical
//!   alternatives, including the remote family (*build remote query* is
//!   driven from the search loop via the decoder; *remote scan/range*,
//!   parameterized remote access and *spool over remote* live here).

pub mod exploration;
pub mod implementation;
pub mod simplify;

use crate::memo::GroupId;
use crate::physical::PhysicalOp;
use crate::props::{ColumnId, ColumnRegistry, RequiredProps};

/// What a physical alternative delivers in terms of ordering.
#[derive(Debug, Clone, PartialEq)]
pub enum Delivered {
    /// No guaranteed order.
    None,
    /// The ordering the node itself establishes (Sort, IndexRange, remote
    /// ORDER BY, merge join output).
    Keys(Vec<(ColumnId, bool)>),
    /// Passes through the order required of (and therefore delivered by)
    /// child `usize`.
    Inherit(usize),
}

/// A physical alternative produced by an implementation rule: a small tree
/// of concrete operators whose leaves either are self-contained (remote
/// queries, scans) or reference memo groups still to be optimized.
// `Node` dwarfs `ChildRef` because `PhysicalOp` inlines remote statement
// text; alternatives are short-lived rule outputs (a handful per group),
// so boxing would cost more churn than the padding costs in memory.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum PhysAlt {
    Node {
        op: PhysicalOp,
        /// Estimated output rows of this node (rule-supplied; the root node
        /// of an alternative may leave it 0 to inherit the group estimate).
        est_rows: f64,
        /// Additional cost beyond the standard per-op formula (e.g. spool
        /// rescan totals baked in by the rule).
        extra_cost: f64,
        children: Vec<PhysAlt>,
        delivered: Delivered,
    },
    /// A child still to be optimized: `(group, required properties,
    /// rescan multiplier)`.
    ChildRef {
        group: GroupId,
        required: RequiredProps,
        multiplier: f64,
    },
}

impl PhysAlt {
    pub fn node(op: PhysicalOp, children: Vec<PhysAlt>) -> PhysAlt {
        PhysAlt::Node {
            op,
            est_rows: 0.0,
            extra_cost: 0.0,
            children,
            delivered: Delivered::None,
        }
    }

    pub fn child(group: GroupId) -> PhysAlt {
        PhysAlt::ChildRef {
            group,
            required: RequiredProps::none(),
            multiplier: 1.0,
        }
    }

    pub fn child_with(group: GroupId, required: RequiredProps, multiplier: f64) -> PhysAlt {
        PhysAlt::ChildRef {
            group,
            required,
            multiplier,
        }
    }

    pub fn with_delivered(mut self, d: Delivered) -> PhysAlt {
        if let PhysAlt::Node { delivered, .. } = &mut self {
            *delivered = d;
        }
        self
    }

    pub fn with_rows(mut self, rows: f64) -> PhysAlt {
        if let PhysAlt::Node { est_rows, .. } = &mut self {
            *est_rows = rows;
        }
        self
    }

    pub fn with_extra_cost(mut self, cost: f64) -> PhysAlt {
        if let PhysAlt::Node { extra_cost, .. } = &mut self {
            *extra_cost = cost;
        }
        self
    }
}

/// Context shared by rule invocations.
pub struct RuleContext<'a> {
    pub registry: &'a ColumnRegistry,
    pub config: &'a crate::search::OptimizerConfig,
}
