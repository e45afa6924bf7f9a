//! Column identities and property structures.
//!
//! The optimizer names columns by stable [`ColumnId`]s rather than
//! positions, so algebraic rewrites (join commutation, reordering) never
//! need to renumber expressions. Positions are assigned only when a chosen
//! physical plan is extracted for execution.

use crate::scalar::ScalarExpr;
use dhqp_types::{DataType, IntervalSet};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A stable identity for one column produced somewhere in a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ColumnId(pub u32);

/// Descriptive metadata for a [`ColumnId`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnMeta {
    pub id: ColumnId,
    /// Base column name (`c_custkey`).
    pub name: String,
    /// The FROM-clause binding that introduced it (`c` in `customer c`),
    /// empty for derived columns.
    pub binding: String,
    pub data_type: DataType,
    pub nullable: bool,
}

/// Allocates and resolves [`ColumnId`]s for one optimization.
#[derive(Debug, Default, Clone)]
pub struct ColumnRegistry {
    metas: Vec<ColumnMeta>,
}

impl ColumnRegistry {
    pub fn new() -> Self {
        ColumnRegistry::default()
    }

    pub fn allocate(
        &mut self,
        name: impl Into<String>,
        binding: impl Into<String>,
        data_type: DataType,
        nullable: bool,
    ) -> ColumnId {
        let id = ColumnId(self.metas.len() as u32);
        self.metas.push(ColumnMeta {
            id,
            name: name.into(),
            binding: binding.into(),
            data_type,
            nullable,
        });
        id
    }

    pub fn meta(&self, id: ColumnId) -> &ColumnMeta {
        &self.metas[id.0 as usize]
    }

    pub fn len(&self) -> usize {
        self.metas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Display name: `binding.name` when a binding exists.
    pub fn qualified_name(&self, id: ColumnId) -> String {
        let m = self.meta(id);
        if m.binding.is_empty() {
            m.name.clone()
        } else {
            format!("{}.{}", m.binding, m.name)
        }
    }
}

/// Logical (group) properties — shared by every alternative in a memo group
/// (§4.1.1: "alternatives within a group should, by definition, have the
/// same logical properties").
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalProps {
    /// Output columns, in the group's canonical order.
    pub columns: Vec<ColumnId>,
    /// Estimated output cardinality.
    pub cardinality: f64,
    /// Estimated average row wire-width in bytes (drives the remote cost
    /// model's traffic estimates).
    pub row_width: f64,
    /// The constraint property framework (§4.1.5): per-column value domains
    /// derived from CHECK constraints and predicates. Absent columns are
    /// unconstrained.
    pub domains: BTreeMap<ColumnId, IntervalSet>,
    /// Unique keys of the output: each entry is a set of columns no two
    /// rows agree on (a one-column primary key, or a composite like
    /// `(l_orderkey, l_linenumber)`).
    pub keys: Vec<Vec<ColumnId>>,
    /// Histograms for columns that still carry base-table statistics
    /// (propagated upward from `Get`, §3.2.4).
    pub histograms: std::collections::BTreeMap<ColumnId, std::sync::Arc<dhqp_oledb::Histogram>>,
}

impl LogicalProps {
    /// Whether `id` alone is a unique key of the output.
    pub fn is_unique(&self, id: ColumnId) -> bool {
        self.keys.iter().any(|key| key.as_slice() == [id])
    }

    pub fn domain_of(&self, id: ColumnId) -> IntervalSet {
        self.domains
            .get(&id)
            .cloned()
            .unwrap_or_else(IntervalSet::full)
    }
}

/// Physical properties delivered by a physical plan: sort order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PhysicalProps {
    /// `(column, ascending)` pairs, outermost first; empty = no order.
    pub ordering: Vec<(ColumnId, bool)>,
}

impl PhysicalProps {
    pub fn none() -> Self {
        PhysicalProps::default()
    }

    pub fn ordered(ordering: Vec<(ColumnId, bool)>) -> Self {
        PhysicalProps { ordering }
    }

    /// Whether `self` satisfies a requirement `req` (prefix semantics: a
    /// delivered order satisfies any required prefix of itself).
    pub fn satisfies(&self, req: &PhysicalProps) -> bool {
        if req.ordering.is_empty() {
            return true;
        }
        self.ordering.len() >= req.ordering.len()
            && self.ordering[..req.ordering.len()] == req.ordering[..]
    }
}

/// Required properties used as the winner's-circle key during search.
pub type RequiredProps = PhysicalProps;

/// Sort keys expressed over scalar expressions before column resolution —
/// the optimizer only supports ordering on plain columns; anything else is
/// projected first by the binder.
pub fn ordering_from_exprs(keys: &[(ScalarExpr, bool)]) -> Option<Vec<(ColumnId, bool)>> {
    keys.iter()
        .map(|(e, asc)| match e {
            ScalarExpr::Column(c) => Some((*c, *asc)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_allocates_sequential_ids() {
        let mut reg = ColumnRegistry::new();
        let a = reg.allocate("a", "t", DataType::Int, false);
        let b = reg.allocate("b", "", DataType::Str, true);
        assert_eq!(a, ColumnId(0));
        assert_eq!(b, ColumnId(1));
        assert_eq!(reg.qualified_name(a), "t.a");
        assert_eq!(reg.qualified_name(b), "b");
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn ordering_satisfaction_is_prefix_based() {
        let c0 = ColumnId(0);
        let c1 = ColumnId(1);
        let delivered = PhysicalProps::ordered(vec![(c0, true), (c1, false)]);
        assert!(delivered.satisfies(&PhysicalProps::none()));
        assert!(delivered.satisfies(&PhysicalProps::ordered(vec![(c0, true)])));
        assert!(delivered.satisfies(&delivered.clone()));
        assert!(!delivered.satisfies(&PhysicalProps::ordered(vec![(c1, false)])));
        assert!(!delivered.satisfies(&PhysicalProps::ordered(vec![(c0, false)])));
        assert!(!PhysicalProps::none().satisfies(&PhysicalProps::ordered(vec![(c0, true)])));
    }

    #[test]
    fn ordering_from_exprs_rejects_non_columns() {
        use dhqp_types::Value;
        let cols = vec![(ScalarExpr::Column(ColumnId(2)), true)];
        assert_eq!(ordering_from_exprs(&cols), Some(vec![(ColumnId(2), true)]));
        let exprs = vec![(ScalarExpr::Literal(Value::Int(1)), true)];
        assert_eq!(ordering_from_exprs(&exprs), None);
    }
}
