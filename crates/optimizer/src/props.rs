//! Column identities and property structures.
//!
//! The optimizer names columns by stable [`ColumnId`]s rather than
//! positions, so algebraic rewrites (join commutation, reordering) never
//! need to renumber expressions. Positions are assigned only when a chosen
//! physical plan is extracted for execution.

use crate::cardinality::equi_key_columns;
use crate::logical::{JoinKind, LogicalOp, TableMeta};
use crate::scalar::ScalarExpr;
use dhqp_types::{DataType, IntervalSet};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A stable identity for one column produced somewhere in a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ColumnId(pub u32);

/// Descriptive metadata for a [`ColumnId`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnMeta {
    pub id: ColumnId,
    /// Base column name (`c_custkey`), shared with the table's catalog
    /// snapshot.
    pub name: Arc<str>,
    /// The FROM-clause binding that introduced it (`c` in `customer c`),
    /// shared by the binding's columns; empty for derived columns.
    pub binding: Arc<str>,
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
        name: impl Into<Arc<str>>,
        binding: impl Into<Arc<str>>,
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
            m.name.to_string()
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
    /// The constraint property framework (§4.1.5): per-column value domains,
    /// written only by [`derive_domains`].
    pub domains: Domains,
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
}

/// The values each column can hold (§4.1.5's constraint property
/// framework): every row a predicate calls TRUE, and every row a group
/// produces, holds a value inside its column's domain. An absent column is
/// unconstrained; a full set is never stored. NULL is in no domain, which
/// is what pruning needs: no comparison is TRUE for it.
///
/// There are two derivations: [`ScalarExpr::domains`] for a predicate and
/// [`derive_domains`] for a group from its children's. Static pruning,
/// startup filters, estimates, key sets and DML seeks read what they give.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Domains(BTreeMap<ColumnId, IntervalSet>);

impl Domains {
    /// `column` confined to `domain`.
    pub fn column(column: ColumnId, domain: IntervalSet) -> Domains {
        let mut out = Domains::default();
        out.set(column, domain);
        out
    }

    /// The seeds of a base table: its CHECK constraints, met column by
    /// column.
    pub fn of_checks(meta: &TableMeta) -> Domains {
        let mut out = Domains::default();
        for (pos, check) in &meta.catalog.checks {
            out.meet(&Domains::column(meta.column_id(*pos), check.clone()));
        }
        out
    }

    /// `column`'s domain; `None` when it is unconstrained.
    pub fn get(&self, column: ColumnId) -> Option<&IntervalSet> {
        self.0.get(&column)
    }

    fn set(&mut self, column: ColumnId, domain: IntervalSet) {
        if !domain.is_full() {
            self.0.insert(column, domain);
        }
    }

    /// Intersect with `other`, column by column (AND, a filter over its
    /// input). Whether a column `other` constrains came out empty: then no
    /// row qualifies.
    pub fn meet(&mut self, other: &Domains) -> bool {
        let mut emptied = false;
        for (&column, domain) in &other.0 {
            let met = match self.0.get(&column) {
                Some(mine) => mine.intersect(domain),
                None => domain.clone(),
            };
            emptied |= met.is_empty();
            self.0.insert(column, met);
        }
        emptied
    }

    /// Whether some column's domain is empty: no row qualifies.
    pub fn is_unsatisfiable(&self) -> bool {
        self.0.values().any(IntervalSet::is_empty)
    }

    /// Union, column by column (OR, UNION ALL over renamed branches): a
    /// column unconstrained on either side is unconstrained.
    pub fn union(&self, other: &Domains) -> Domains {
        let mut out = Domains::default();
        for (&column, domain) in &self.0 {
            if let Some(theirs) = other.0.get(&column) {
                out.set(column, domain.union(theirs));
            }
        }
        out
    }

    /// The domains of `(from, to)` pairs' `from` columns under the `to`
    /// names (a projection, a grouping, a union branch); every other column
    /// is dropped.
    pub fn rename(&self, pairs: impl IntoIterator<Item = (ColumnId, ColumnId)>) -> Domains {
        let mut out = Domains::default();
        for (from, to) in pairs {
            if let Some(domain) = self.0.get(&from) {
                out.0.insert(to, domain.clone());
            }
        }
        out
    }
}

/// A group's domains from its children's `(output columns, domains)`, and
/// whether the group provably holds no rows: a filter whose predicate's
/// domains meet its input's in an empty column. The only writer of
/// [`LogicalProps::domains`], and what static pruning and startup filters
/// read before the memo exists.
pub fn derive_domains(op: &LogicalOp, children: &[(&[ColumnId], &Domains)]) -> (Domains, bool) {
    let child = || children[0].1.clone();
    let domains = match op {
        LogicalOp::Get { meta, .. } => Domains::of_checks(meta),
        LogicalOp::EmptyGet { .. } | LogicalOp::Values { .. } => Domains::default(),
        LogicalOp::Filter { predicate } => {
            let mut domains = child();
            let empty = domains.meet(&predicate.domains());
            return (domains, empty);
        }
        LogicalOp::StartupFilter { .. } | LogicalOp::Limit { .. } => child(),
        LogicalOp::Project { outputs } => {
            children[0]
                .1
                .rename(outputs.iter().filter_map(|(out, e)| match e {
                    ScalarExpr::Column(src) => Some((*src, *out)),
                    _ => None,
                }))
        }
        LogicalOp::Aggregate { group_by, .. } => {
            children[0].1.rename(group_by.iter().map(|c| (*c, *c)))
        }
        // A partitioned view's combined domain: output `i` holds what any
        // branch's `i`-th column holds.
        LogicalOp::UnionAll { output } => children
            .iter()
            .map(|(columns, domains)| {
                domains.rename(columns.iter().copied().zip(output.iter().copied()))
            })
            .reduce(|a, b| a.union(&b))
            .unwrap_or_default(),
        LogicalOp::Join { kind, predicate } => {
            let ((l_cols, l), (r_cols, r)) = (children[0], children[1]);
            let mut domains = l.clone();
            if kind.produces_right() {
                domains.0.extend(r.0.iter().map(|(k, v)| (*k, v.clone())));
            }
            // An equi-join confines both columns to both domains — in the
            // rows that found a match. An outer join also keeps left rows
            // that found none, and an anti join keeps only those.
            for (lc, rc) in predicate
                .iter()
                .flat_map(|p| equi_key_columns(p, l_cols, r_cols))
            {
                let shared = match (domains.get(lc), domains.get(rc).or(r.get(rc))) {
                    (Some(a), Some(b)) => a.intersect(b),
                    (Some(d), None) | (None, Some(d)) => d.clone(),
                    (None, None) => continue,
                };
                if !matches!(kind, JoinKind::LeftOuter | JoinKind::Anti) {
                    domains.set(lc, shared.clone());
                }
                if kind.produces_right() {
                    domains.set(rc, shared);
                }
            }
            domains
        }
    };
    (domains, false)
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
