//! Exploration rules: logical → logical alternatives inside the memo
//! (paper §4.1.1–§4.1.2).
//!
//! Each rule carries a *promise* (application priority) and a *guidance*
//! check (`matches`) so the engine never attempts rules that cannot fire —
//! the paper's mechanism for keeping search cheap.

use crate::cardinality::equi_key_columns;
use crate::logical::{JoinKind, Locality, LogicalOp};
use crate::memo::{AltExpr, GroupId, MExpr, Memo};
use crate::props::{ColumnId, LogicalProps};
use crate::rules::RuleContext;
use crate::scalar::ScalarExpr;
use dhqp_oledb::ProviderCapabilities;
use dhqp_types::{IntervalBound, ValueSet};
use std::collections::BTreeSet;
use std::sync::Arc;

/// An exploration rule.
pub trait ExplorationRule: Sync {
    fn name(&self) -> &'static str;
    /// Higher promise = applied first (the paper's rule-ordering hook).
    fn promise(&self) -> u8;
    /// Guidance: can this rule possibly match the operator?
    fn matches(&self, op: &LogicalOp) -> bool;
    /// Produce alternative expressions for `expr` (which lives in `group`).
    fn apply(
        &self,
        expr: &MExpr,
        group: GroupId,
        memo: &Memo,
        ctx: &RuleContext<'_>,
    ) -> Vec<AltExpr>;
}

/// `A ⋈ B ≡ B ⋈ A` for inner/cross joins.
pub struct JoinCommute;

impl ExplorationRule for JoinCommute {
    fn name(&self) -> &'static str {
        "JoinCommute"
    }

    fn promise(&self) -> u8 {
        50
    }

    fn matches(&self, op: &LogicalOp) -> bool {
        matches!(op, LogicalOp::Join { kind, .. } if kind.commutable())
    }

    fn apply(
        &self,
        expr: &MExpr,
        _group: GroupId,
        _memo: &Memo,
        _ctx: &RuleContext<'_>,
    ) -> Vec<AltExpr> {
        let LogicalOp::Join { kind, predicate } = &expr.op else {
            return vec![];
        };
        vec![AltExpr::op(
            LogicalOp::Join {
                kind: *kind,
                predicate: predicate.clone(),
            },
            vec![
                AltExpr::Group(expr.children[1]),
                AltExpr::Group(expr.children[0]),
            ],
        )]
    }
}

/// `(A ⋈ B) ⋈ C ≡ A ⋈ (B ⋈ C)` with predicate redistribution.
///
/// When [`crate::search::OptimizerConfig::enable_locality_grouping`] is on,
/// the rule additionally generates the B⋈C grouping even without a
/// connecting predicate if B and C live on the same remote server — the
/// paper's *grouping joins based on locality* rule, whose rationale is
/// "finding solutions of pushing the largest possible sub-tree to the
/// remote source".
pub struct JoinAssociate;

impl JoinAssociate {
    /// Partition the combined conjunct set: those referencing only
    /// `inner_cols` go to the new inner join; the rest stay on top.
    fn split_conjuncts(
        all: Vec<ScalarExpr>,
        inner_cols: &BTreeSet<ColumnId>,
    ) -> (Vec<ScalarExpr>, Vec<ScalarExpr>) {
        let mut inner = Vec::new();
        let mut outer = Vec::new();
        for c in all {
            let cols = c.columns();
            if !cols.is_empty() && cols.iter().all(|x| inner_cols.contains(x)) {
                inner.push(c);
            } else {
                outer.push(c);
            }
        }
        (inner, outer)
    }

    /// The single remote server a group's leaves live on, if any.
    fn sole_remote(memo: &Memo, group: GroupId) -> Option<Locality> {
        let locs = group_localities(memo, group);
        if locs.len() == 1 && locs[0].is_remote() {
            Some(locs[0].clone())
        } else {
            None
        }
    }
}

impl ExplorationRule for JoinAssociate {
    fn name(&self) -> &'static str {
        "JoinAssociate"
    }

    fn promise(&self) -> u8 {
        30
    }

    fn matches(&self, op: &LogicalOp) -> bool {
        matches!(
            op,
            LogicalOp::Join {
                kind: JoinKind::Inner | JoinKind::Cross,
                ..
            }
        )
    }

    fn apply(
        &self,
        expr: &MExpr,
        _group: GroupId,
        memo: &Memo,
        ctx: &RuleContext<'_>,
    ) -> Vec<AltExpr> {
        let LogicalOp::Join {
            kind: top_kind,
            predicate: top_pred,
        } = &expr.op
        else {
            return vec![];
        };
        if !matches!(top_kind, JoinKind::Inner | JoinKind::Cross) {
            return vec![];
        }
        let left_group = expr.children[0];
        let c_group = expr.children[1];
        let mut out = Vec::new();
        // For each inner/cross join alternative in the left group:
        // (A ⋈ B) ⋈ C  →  A ⋈ (B ⋈ C)
        for &left_eid in &memo.group(left_group).exprs {
            let left_expr = memo.expr(left_eid).clone();
            let LogicalOp::Join {
                kind: lkind,
                predicate: lpred,
            } = &left_expr.op
            else {
                continue;
            };
            if !matches!(lkind, JoinKind::Inner | JoinKind::Cross) {
                continue;
            }
            let a_group = left_expr.children[0];
            let b_group = left_expr.children[1];
            let mut all = top_pred.as_ref().map(|p| p.conjuncts()).unwrap_or_default();
            all.extend(lpred.as_ref().map(|p| p.conjuncts()).unwrap_or_default());
            let inner_cols: BTreeSet<ColumnId> = memo
                .group(b_group)
                .props
                .columns
                .iter()
                .chain(memo.group(c_group).props.columns.iter())
                .copied()
                .collect();
            let (inner, outer) = Self::split_conjuncts(all, &inner_cols);
            let inner_connected = !inner.is_empty();
            // Avoid gratuitous cross products — unless the grouped sides
            // share a remote home (locality grouping).
            if !inner_connected {
                if !ctx.config.enable_locality_grouping {
                    continue;
                }
                let (Some(lb), Some(lc)) = (
                    Self::sole_remote(memo, b_group),
                    Self::sole_remote(memo, c_group),
                ) else {
                    continue;
                };
                if lb != lc {
                    continue;
                }
            }
            let inner_kind = if inner_connected {
                JoinKind::Inner
            } else {
                JoinKind::Cross
            };
            let inner_join = AltExpr::op(
                LogicalOp::Join {
                    kind: inner_kind,
                    predicate: ScalarExpr::and(inner),
                },
                vec![AltExpr::Group(b_group), AltExpr::Group(c_group)],
            );
            let outer_pred = ScalarExpr::and(outer);
            let outer_kind = if outer_pred.is_some() {
                JoinKind::Inner
            } else {
                JoinKind::Cross
            };
            out.push(AltExpr::op(
                LogicalOp::Join {
                    kind: outer_kind,
                    predicate: outer_pred,
                },
                vec![AltExpr::Group(a_group), inner_join],
            ));
        }
        out
    }
}

/// `A ⋈[l = r] B ≡ A ⋈[l = r] σ[r IN (P)](B)` when the domain A derives
/// for `l` (from `IN`-lists and `=` literals, a CONTAINS hit list among
/// them) meets B's domain for `r` in a finite set of points P, and the
/// mirror image. Every row of B that can join has its `r` equal to a member
/// of P, so the filter is implied and the group's rows do not change; the
/// search keeps the alternative only when it is cheaper, which for a remote
/// B means the list costs less to ship than the rows it saves (DESIGN.md
/// §16). The rule adds filters, never join predicates.
pub struct ImpliedKeySet;

impl ImpliedKeySet {
    /// `to_col IN (P)` over `to`, or `None` when the two columns differ in
    /// type, P is not a non-empty set of points of that type, or `to`
    /// already confines `to_col` to P.
    fn filter(
        from: &LogicalProps,
        from_col: ColumnId,
        to: &LogicalProps,
        to_col: ColumnId,
        ctx: &RuleContext<'_>,
    ) -> Option<LogicalOp> {
        let ty = ctx.registry.meta(from_col).data_type;
        if ctx.registry.meta(to_col).data_type != ty {
            return None;
        }
        let points = from.domains.get(from_col)?;
        // The rule meets its own filter again on every exploration pass: an
        // unconstrained `to_col` and one already confined to P are told
        // apart without building the intersection.
        let met;
        let shipped = match to.domains.get(to_col) {
            None => points,
            Some(to_domain) if to_domain == points => return None,
            Some(to_domain) => {
                met = points.intersect(to_domain);
                if met == *to_domain {
                    return None;
                }
                &met
            }
        };
        let list: ValueSet = shipped
            .intervals()
            .iter()
            .map(|iv| match (&iv.low, &iv.high) {
                (IntervalBound::Included(a), IntervalBound::Included(b))
                    if a == b && a.data_type() == Some(ty) =>
                {
                    Some(a.clone())
                }
                _ => None,
            })
            .collect::<Option<_>>()?;
        if list.is_empty() {
            return None;
        }
        let predicate = ScalarExpr::InList {
            expr: Box::new(ScalarExpr::Column(to_col)),
            list,
            negated: false,
        };
        Some(LogicalOp::Filter { predicate })
    }
}

impl ExplorationRule for ImpliedKeySet {
    fn name(&self) -> &'static str {
        "ImpliedKeySet"
    }

    fn promise(&self) -> u8 {
        40
    }

    fn matches(&self, op: &LogicalOp) -> bool {
        matches!(
            op,
            LogicalOp::Join {
                kind: JoinKind::Inner,
                predicate: Some(_),
            }
        )
    }

    fn apply(
        &self,
        expr: &MExpr,
        _group: GroupId,
        memo: &Memo,
        ctx: &RuleContext<'_>,
    ) -> Vec<AltExpr> {
        let LogicalOp::Join {
            predicate: Some(p), ..
        } = &expr.op
        else {
            return vec![];
        };
        let (lg, rg) = (expr.children[0], expr.children[1]);
        let (lp, rp) = (&memo.group(lg).props, &memo.group(rg).props);
        let filtered =
            |filter: LogicalOp, group: GroupId| AltExpr::op(filter, vec![AltExpr::Group(group)]);
        let mut out = Vec::new();
        for (l, r) in equi_key_columns(p, &lp.columns, &rp.columns) {
            if let Some(f) = Self::filter(lp, l, rp, r, ctx) {
                let children = vec![AltExpr::Group(lg), filtered(f, rg)];
                out.push(AltExpr::op(expr.op.clone(), children));
            }
            if let Some(f) = Self::filter(rp, r, lp, l, ctx) {
                let children = vec![filtered(f, lg), AltExpr::Group(rg)];
                out.push(AltExpr::op(expr.op.clone(), children));
            }
        }
        out
    }
}

/// Distinct source localities of a group's leaf tables (derived from its
/// first logical alternative; all alternatives share the same leaves).
pub fn group_localities(memo: &Memo, group: GroupId) -> Vec<Locality> {
    fn walk(memo: &Memo, group: GroupId, out: &mut Vec<Locality>, seen: &mut BTreeSet<u32>) {
        if !seen.insert(group.0) {
            return;
        }
        let Some(&eid) = memo.group(group).exprs.first() else {
            return;
        };
        let expr = memo.expr(eid);
        if let LogicalOp::Get { meta, .. } = &expr.op {
            if !out.contains(&meta.source) {
                out.push(meta.source.clone());
            }
        }
        // Values/EmptyGet contribute Local (they run locally).
        if matches!(
            expr.op,
            LogicalOp::Values { .. } | LogicalOp::EmptyGet { .. }
        ) && !out.contains(&Locality::Local)
        {
            out.push(Locality::Local);
        }
        for &c in &expr.children {
            walk(memo, c, out, seen);
        }
    }
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    walk(memo, group, &mut out, &mut seen);
    out
}

/// The one remote server a group lives wholly on, with the capabilities its
/// leaf tables carry; `None` for a local or mixed group.
pub fn remote_group_caps(
    memo: &Memo,
    group: GroupId,
) -> Option<(Arc<str>, Arc<ProviderCapabilities>)> {
    let [Locality::Remote(server)] = &group_localities(memo, group)[..] else {
        return None;
    };
    // Every leaf lives on `server`: the first one down carries its caps.
    let mut expr = memo.expr(*memo.group(group).exprs.first()?);
    loop {
        if let LogicalOp::Get { meta, .. } = &expr.op {
            return Some((Arc::clone(server), Arc::clone(&meta.caps)));
        }
        expr = memo.expr(*memo.group(*expr.children.first()?).exprs.first()?);
    }
}

/// The standard exploration rule set, promise-ordered.
pub fn all_rules() -> Vec<Box<dyn ExplorationRule>> {
    let mut rules: Vec<Box<dyn ExplorationRule>> = vec![
        Box::new(JoinCommute),
        Box::new(ImpliedKeySet),
        Box::new(JoinAssociate),
    ];
    rules.sort_by_key(|r| std::cmp::Reverse(r.promise()));
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{test_table_meta, LogicalExpr};
    use crate::props::ColumnRegistry;
    use crate::search::OptimizerConfig;
    use dhqp_types::DataType;
    use std::sync::Arc;

    fn ctx_with<'a>(registry: &'a ColumnRegistry, config: &'a OptimizerConfig) -> RuleContext<'a> {
        RuleContext { registry, config }
    }

    #[test]
    fn commute_swaps_children() {
        let mut reg = ColumnRegistry::new();
        let a = test_table_meta(
            0,
            "a",
            Locality::Local,
            &[("x", DataType::Int)],
            &mut reg,
            10,
        );
        let b = test_table_meta(
            1,
            "b",
            Locality::Local,
            &[("y", DataType::Int)],
            &mut reg,
            10,
        );
        let tree = LogicalExpr::join(
            JoinKind::Inner,
            LogicalExpr::get(Arc::clone(&a)),
            LogicalExpr::get(b),
            Some(ScalarExpr::eq(
                ScalarExpr::Column(a.column_id(0)),
                ScalarExpr::Column(ColumnId(1)),
            )),
        );
        let mut memo = Memo::new();
        let root = memo.insert_tree(&tree, &reg);
        let expr = memo.expr(memo.group(root).exprs[0]).clone();
        let config = OptimizerConfig::default();
        let alts = JoinCommute.apply(&expr, root, &memo, &ctx_with(&reg, &config));
        assert_eq!(alts.len(), 1);
        match &alts[0] {
            AltExpr::Op { children, .. } => {
                assert!(matches!(children[0], AltExpr::Group(g) if g == expr.children[1]));
                assert!(matches!(children[1], AltExpr::Group(g) if g == expr.children[0]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn three_way(reg: &mut ColumnRegistry, remote_bc: bool) -> (Memo, GroupId) {
        // A(x) ⋈[x=y] B(y) ⋈[a-connected? no: only A-B predicate] C(z)
        let loc_b = if remote_bc {
            Locality::remote("r0")
        } else {
            Locality::Local
        };
        let loc_c = if remote_bc {
            Locality::remote("r0")
        } else {
            Locality::Local
        };
        let a = test_table_meta(0, "a", Locality::Local, &[("x", DataType::Int)], reg, 10);
        let b = test_table_meta(1, "b", loc_b, &[("y", DataType::Int)], reg, 10);
        let c = test_table_meta(2, "c", loc_c, &[("z", DataType::Int)], reg, 10);
        let ab = LogicalExpr::join(
            JoinKind::Inner,
            LogicalExpr::get(Arc::clone(&a)),
            LogicalExpr::get(Arc::clone(&b)),
            Some(ScalarExpr::eq(
                ScalarExpr::Column(a.column_id(0)),
                ScalarExpr::Column(b.column_id(0)),
            )),
        );
        let abc = LogicalExpr::join(
            JoinKind::Inner,
            ab,
            LogicalExpr::get(Arc::clone(&c)),
            Some(ScalarExpr::eq(
                ScalarExpr::Column(a.column_id(0)),
                ScalarExpr::Column(c.column_id(0)),
            )),
        );
        let mut memo = Memo::new();
        let root = memo.insert_tree(&abc, reg);
        (memo, root)
    }

    #[test]
    fn associate_requires_connecting_predicate_locally() {
        let mut reg = ColumnRegistry::new();
        let (memo, root) = three_way(&mut reg, false);
        let expr = memo.expr(memo.group(root).exprs[0]).clone();
        let config = OptimizerConfig::default();
        // B and C are not connected by any predicate and are local: no
        // alternative (a cross product would be gratuitous).
        let alts = JoinAssociate.apply(&expr, root, &memo, &ctx_with(&reg, &config));
        assert!(alts.is_empty());
    }

    #[test]
    fn locality_grouping_allows_same_server_cross() {
        let mut reg = ColumnRegistry::new();
        let (memo, root) = three_way(&mut reg, true);
        let expr = memo.expr(memo.group(root).exprs[0]).clone();
        let config = OptimizerConfig::default();
        assert!(config.enable_locality_grouping);
        let alts = JoinAssociate.apply(&expr, root, &memo, &ctx_with(&reg, &config));
        assert_eq!(alts.len(), 1, "B⋈C share remote0, grouping is allowed");
        // With the flag off the alternative disappears.
        let config = OptimizerConfig {
            enable_locality_grouping: false,
            ..Default::default()
        };
        let alts = JoinAssociate.apply(&expr, root, &memo, &ctx_with(&reg, &config));
        assert!(alts.is_empty());
    }

    #[test]
    fn implied_key_set_filters_the_other_side_once() {
        use dhqp_types::Value;
        let mut reg = ColumnRegistry::new();
        let a = test_table_meta(
            0,
            "a",
            Locality::Local,
            &[("x", DataType::Int)],
            &mut reg,
            10,
        );
        let cols = [("y", DataType::Int), ("s", DataType::Str)];
        let b = test_table_meta(1, "b", Locality::remote("r0"), &cols, &mut reg, 1000);
        let (x, y, s) = (a.column_id(0), b.column_id(0), b.column_id(1));
        let keys = ScalarExpr::InList {
            expr: Box::new(ScalarExpr::Column(x)),
            list: [3, 1, 2].into_iter().map(Value::Int).collect(),
            negated: false,
        };
        let config = OptimizerConfig::default();
        let ctx = ctx_with(&reg, &config);
        let alternatives = |on: ColumnId| {
            let tree = LogicalExpr::join(
                JoinKind::Inner,
                LogicalExpr::get(Arc::clone(&a)).filter(keys.clone()),
                LogicalExpr::get(Arc::clone(&b)),
                Some(ScalarExpr::eq(
                    ScalarExpr::Column(x),
                    ScalarExpr::Column(on),
                )),
            );
            let mut memo = Memo::new();
            let root = memo.insert_tree(&tree, &reg);
            let expr = memo.expr(memo.group(root).exprs[0]).clone();
            let alts = ImpliedKeySet.apply(&expr, root, &memo, &ctx);
            (memo, root, alts)
        };
        let (mut memo, root, alts) = alternatives(y);
        assert_eq!(alts.len(), 1, "{alts:?}");
        let AltExpr::Op { children, .. } = &alts[0] else {
            panic!("{alts:?}")
        };
        let AltExpr::Op {
            op: LogicalOp::Filter { predicate },
            ..
        } = &children[1]
        else {
            panic!("{alts:?}")
        };
        assert_eq!(predicate.to_string(), format!("#{} IN (1, 2, 3)", y.0));
        // Over the filtered side both columns are confined: nothing more.
        let eid = memo.insert_alternative_tree(&alts[0], root, &reg).unwrap();
        let filtered = memo.expr(eid).clone();
        assert!(ImpliedKeySet.apply(&filtered, root, &memo, &ctx).is_empty());
        // Integer keys do not filter a string column.
        assert!(alternatives(s).2.is_empty());
    }

    #[test]
    fn group_localities_walks_leaves() {
        let mut reg = ColumnRegistry::new();
        let (memo, root) = three_way(&mut reg, true);
        let locs = group_localities(&memo, root);
        assert_eq!(locs.len(), 2);
    }

    #[test]
    fn guidance_prevents_mismatched_rules() {
        assert!(!JoinCommute.matches(&LogicalOp::Limit { n: 1 }));
        assert!(!JoinAssociate.matches(&LogicalOp::Join {
            kind: JoinKind::LeftOuter,
            predicate: None
        }));
        assert!(JoinCommute.matches(&LogicalOp::Join {
            kind: JoinKind::Cross,
            predicate: None
        }));
    }
}
