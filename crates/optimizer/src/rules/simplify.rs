//! Simplification: heuristic logical-tree rewrites run before memo
//! insertion (paper §4.1.1 "Simplification Rules perform heuristic tree
//! rewrites, generally early in the optimization process").
//!
//! Passes, in order:
//! 1. **Predicate split & pushdown** — conjuncts migrate toward the leaves:
//!    through projections (with substitution), into both sides of inner
//!    joins, into the preserved side of outer joins, into every branch of a
//!    UNION ALL (the partitioned-view path), merging adjacent filters. The
//!    paper's *splitting/merging predicates based on remotability* falls
//!    out of this: once split, each conjunct independently lands in the
//!    largest remotable subtree.
//! 2. **Constant folding** — literal-only predicates collapse to
//!    TRUE/FALSE; a FALSE filter becomes an `EmptyGet`.
//! 3. **Static partition pruning** (§4.1.5) — one bottom-up walk derives
//!    every node's column domains with `derive_domains`, as the memo will
//!    derive them; a filter that empties a column (a CHECK range it
//!    contradicts below any operator, or a contradiction of its own)
//!    reduces to `EmptyGet`, and empty UNION ALL branches are dropped.
//! 4. **Startup-filter introduction** (§4.1.5), in the same walk —
//!    parameterized equality predicates over a column with a domain gain
//!    a column-free `STARTUP(@p IN domain)` guard so pruning can happen at
//!    execution time.
//! 5. **Column pruning** — projections are pushed over base-table gets so
//!    only the columns a query actually consumes are produced; for remote
//!    tables this directly narrows the decoded SELECT list and therefore
//!    the wire traffic the cost model minimizes. A UNION ALL drops the
//!    same positions from its output list and from every branch, and a
//!    column only a pushed filter reads stops at that filter.
//! 6. **Partial aggregation through UNION ALL** — an aggregate over a
//!    partitioned view splits into per-member partial aggregates combined
//!    by a global aggregate, so each member ships one row per group
//!    instead of its raw rows (COUNT becomes SUM of partial counts).

use crate::logical::{JoinKind, LogicalExpr, LogicalOp};
use crate::props::{derive_domains, ColumnId, ColumnRegistry, Domains};
use crate::scalar::{AggCall, AggFunc, CmpOp, ScalarExpr};
use dhqp_types::{DataType, Value};
use std::collections::{BTreeSet, HashMap};

/// Options controlling which simplification passes run (ablation hooks).
#[derive(Debug, Clone, PartialEq)]
pub struct SimplifyOptions {
    pub pushdown: bool,
    pub constraint_pruning: bool,
    pub startup_filters: bool,
    pub column_pruning: bool,
    pub partial_aggregates: bool,
}

impl Default for SimplifyOptions {
    fn default() -> Self {
        SimplifyOptions {
            pushdown: true,
            constraint_pruning: true,
            startup_filters: true,
            column_pruning: true,
            partial_aggregates: true,
        }
    }
}

/// Run all enabled simplification passes.
pub fn simplify(
    tree: LogicalExpr,
    opts: &SimplifyOptions,
    registry: &mut ColumnRegistry,
) -> LogicalExpr {
    let tree = if opts.pushdown {
        push_filters(tree)
    } else {
        tree
    };
    let tree = fold_constants(tree);
    let tree = if opts.constraint_pruning || opts.startup_filters {
        constrain(tree, opts).0
    } else {
        tree
    };
    let tree = if opts.partial_aggregates {
        split_union_aggregates(tree, registry)
    } else {
        tree
    };
    if opts.column_pruning {
        prune_columns(tree, None)
    } else {
        tree
    }
}

// ---------------------------------------------------------------------------
// pass: partial aggregation through UNION ALL (partitioned views)
// ---------------------------------------------------------------------------

/// Split `Aggregate(UnionAll(b1..bn))` into
/// `AggregateGlobal(UnionAll(AggregatePartial(b1)..))`.
///
/// Applies to COUNT(*)/COUNT/SUM/MIN/MAX without DISTINCT; AVG and
/// DISTINCT aggregates keep the original shape. The payoff is the
/// partitioned-view case: each (possibly remote) member computes its
/// partial rows, so one row per group crosses each link instead of the
/// member's raw rows.
fn split_union_aggregates(tree: LogicalExpr, registry: &mut ColumnRegistry) -> LogicalExpr {
    let LogicalExpr { op, children } = tree;
    let mut children: Vec<LogicalExpr> = children
        .into_iter()
        .map(|c| split_union_aggregates(c, registry))
        .collect();
    let LogicalOp::Aggregate { group_by, aggs } = op else {
        return LogicalExpr { op, children };
    };
    let rebuild = |children: Vec<LogicalExpr>, group_by: Vec<ColumnId>, aggs: Vec<AggCall>| {
        LogicalExpr::new(LogicalOp::Aggregate { group_by, aggs }, children)
    };
    // Only directly over a union with at least two branches.
    let is_union =
        matches!(children[0].op, LogicalOp::UnionAll { .. }) && children[0].children.len() >= 2;
    if !is_union {
        return rebuild(children, group_by, aggs);
    }
    let splittable = aggs.iter().all(|a| {
        !a.distinct
            && matches!(
                a.func,
                AggFunc::CountStar | AggFunc::Count | AggFunc::Sum | AggFunc::Min | AggFunc::Max
            )
    });
    if !splittable {
        return rebuild(children, group_by, aggs);
    }
    let union = children.pop().expect("aggregate child");
    let LogicalOp::UnionAll { output: union_out } = &union.op else {
        unreachable!()
    };
    let union_out = union_out.clone();
    // Group columns must be plain union outputs (they are, by construction
    // of the binder: group exprs get pre-projected).
    let group_positions: Option<Vec<usize>> = group_by
        .iter()
        .map(|g| union_out.iter().position(|u| u == g))
        .collect();
    let Some(group_positions) = group_positions else {
        return rebuild(vec![union], group_by, aggs);
    };
    // Fresh ids for the partial-aggregate columns flowing through the new
    // union.
    let partial_ids: Vec<ColumnId> = aggs
        .iter()
        .map(|a| {
            let ty = match a.func {
                AggFunc::CountStar | AggFunc::Count => DataType::Int,
                _ => a
                    .arg
                    .as_ref()
                    .and_then(|e| crate::decoder::static_type(e, registry))
                    .unwrap_or(DataType::Float),
            };
            registry.allocate(format!("partial_{}", a.output.0), "", ty, true)
        })
        .collect();
    // Per-branch partial aggregates.
    let mut new_branches = Vec::with_capacity(union.children.len());
    for branch in union.children {
        let branch_cols = branch.output_columns();
        let map_col = |id: ColumnId| -> ScalarExpr {
            match union_out.iter().position(|u| *u == id) {
                Some(pos) => ScalarExpr::Column(branch_cols[pos]),
                None => ScalarExpr::Column(id),
            }
        };
        let branch_groups: Vec<ColumnId> =
            group_positions.iter().map(|&p| branch_cols[p]).collect();
        let branch_aggs: Vec<AggCall> = aggs
            .iter()
            .map(|a| {
                // Partial output ids are per-union-level; each branch can
                // reuse them because UnionAll maps children positionally.
                AggCall {
                    func: a.func,
                    arg: a.arg.as_ref().map(|e| e.map_columns(&mut |c| map_col(c))),
                    distinct: false,
                    output: registry.allocate("bpartial", "", DataType::Float, true),
                }
            })
            .collect();
        new_branches.push(branch.aggregate(branch_groups, branch_aggs));
    }
    // Mid-level union: group columns keep their original (view-level) ids,
    // partial aggregates get the fresh ids.
    let mut mid_out: Vec<ColumnId> = group_by.clone();
    mid_out.extend(partial_ids.iter().copied());
    let mid_union = LogicalExpr::new(LogicalOp::UnionAll { output: mid_out }, new_branches);
    // Global combination.
    let global_aggs: Vec<AggCall> = aggs
        .iter()
        .zip(&partial_ids)
        .map(|(a, &pid)| {
            let func = match a.func {
                AggFunc::CountStar | AggFunc::Count | AggFunc::Sum => AggFunc::Sum,
                AggFunc::Min => AggFunc::Min,
                AggFunc::Max => AggFunc::Max,
                AggFunc::Avg => unreachable!("filtered above"),
            };
            AggCall {
                func,
                arg: Some(ScalarExpr::Column(pid)),
                distinct: false,
                output: a.output,
            }
        })
        .collect();
    mid_union.aggregate(group_by, global_aggs)
}

// ---------------------------------------------------------------------------
// pass 5: column pruning
// ---------------------------------------------------------------------------

/// Narrow base-table outputs to the columns actually consumed above.
/// `required = None` means "everything" (at the root, the caller's own
/// projection defines its needs).
fn prune_columns(tree: LogicalExpr, required: Option<&BTreeSet<ColumnId>>) -> LogicalExpr {
    let LogicalExpr { op, children } = tree;
    match op {
        LogicalOp::Project { outputs } => {
            let mut needed = BTreeSet::new();
            for (_, e) in &outputs {
                needed.extend(e.columns());
            }
            let child = children.into_iter().next().expect("project child");
            let child = prune_columns(child, Some(&needed));
            // Narrowing below can leave this projection with nothing to do
            // (the child's columns under the same ids in the same order):
            // it would copy every row to produce the same row.
            let identity = outputs.iter().map(|(id, _)| *id).eq(child.output_columns())
                && outputs
                    .iter()
                    .all(|(id, e)| matches!(e, ScalarExpr::Column(c) if c == id));
            if identity {
                return child;
            }
            LogicalExpr::new(LogicalOp::Project { outputs }, vec![child])
        }
        LogicalOp::Filter { predicate } => {
            let child = children.into_iter().next().expect("filter child");
            // Keep Filter directly over Get (index fusion relies on that
            // shape) and project above the pair. A column only the
            // predicate reads has no reader above the filter, so it stops
            // here: for a remote table it never crosses the link.
            if matches!(child.op, LogicalOp::Get { .. }) {
                let filtered = LogicalExpr::new(LogicalOp::Filter { predicate }, vec![child]);
                return keep_required(filtered, required);
            }
            let needed = required.map(|r| {
                let mut n = r.clone();
                n.extend(predicate.columns());
                n
            });
            LogicalExpr::new(
                LogicalOp::Filter { predicate },
                vec![prune_columns(child, needed.as_ref())],
            )
        }
        LogicalOp::StartupFilter { predicate } => {
            // Startup predicates are column-free; pass requirements through.
            let child = children.into_iter().next().expect("startup child");
            LogicalExpr::new(
                LogicalOp::StartupFilter { predicate },
                vec![prune_columns(child, required)],
            )
        }
        LogicalOp::Limit { n } => {
            let child = children.into_iter().next().expect("limit child");
            LogicalExpr::new(LogicalOp::Limit { n }, vec![prune_columns(child, required)])
        }
        LogicalOp::Join { kind, predicate } => {
            let needed = required.map(|r| {
                let mut n = r.clone();
                if let Some(p) = &predicate {
                    n.extend(p.columns());
                }
                n
            });
            let pruned: Vec<LogicalExpr> = children
                .into_iter()
                .map(|c| prune_columns(c, needed.as_ref()))
                .collect();
            LogicalExpr::new(LogicalOp::Join { kind, predicate }, pruned)
        }
        LogicalOp::Aggregate { group_by, aggs } => {
            let mut needed: BTreeSet<ColumnId> = group_by.iter().copied().collect();
            for a in &aggs {
                if let Some(arg) = &a.arg {
                    needed.extend(arg.columns());
                }
            }
            let child = children.into_iter().next().expect("aggregate child");
            LogicalExpr::new(
                LogicalOp::Aggregate { group_by, aggs },
                vec![prune_columns(child, Some(&needed))],
            )
        }
        LogicalOp::UnionAll { output } => {
            // Children map to `output` by position, so the view's list and
            // every branch's list drop the same positions: the ones nothing
            // above reads (all but one when nothing is read at all — rows
            // must still be counted).
            let mut keep: Vec<usize> = (0..output.len())
                .filter(|&i| required.is_none_or(|r| r.contains(&output[i])))
                .collect();
            if keep.is_empty() {
                keep.push(0);
            }
            let pruned: Vec<LogicalExpr> = children
                .into_iter()
                .map(|branch| {
                    let cols = branch.output_columns();
                    let wanted: Vec<ColumnId> = keep.iter().map(|&i| cols[i]).collect();
                    let req: BTreeSet<ColumnId> = wanted.iter().copied().collect();
                    project_branch(prune_columns(branch, Some(&req)), &wanted)
                })
                .collect();
            let output = keep.iter().map(|&i| output[i]).collect();
            LogicalExpr::new(LogicalOp::UnionAll { output }, pruned)
        }
        LogicalOp::Get { meta, columns } => {
            let get = LogicalExpr::new(LogicalOp::Get { meta, columns }, vec![]);
            keep_required(get, required)
        }
        other => LogicalExpr {
            op: other,
            children,
        },
    }
}

/// Project `node` (a `Get`, or a `Filter` over one) down to the columns in
/// `required`, in the node's own (schema) order; no projection when every
/// column is required.
fn keep_required(node: LogicalExpr, required: Option<&BTreeSet<ColumnId>>) -> LogicalExpr {
    let Some(required) = required else {
        return node;
    };
    let columns = node.output_columns();
    let mut kept: Vec<ColumnId> = columns
        .iter()
        .copied()
        .filter(|c| required.contains(c))
        .collect();
    if kept.len() == columns.len() {
        return node;
    }
    if kept.is_empty() {
        // Something above still needs a row count (e.g. COUNT(*)): keep
        // one column.
        kept.push(columns[0]);
    }
    project_to(node, &kept)
}

/// A projection passing exactly `cols` through, in that order.
fn project_to(node: LogicalExpr, cols: &[ColumnId]) -> LogicalExpr {
    node.project(cols.iter().map(|&c| (c, ScalarExpr::Column(c))).collect())
}

/// Make a pruned union branch deliver exactly `wanted`. Usually it already
/// does (a member `Get` narrows itself). When a projection is needed it goes
/// *under* the branch's `StartupFilter`: the executor decides whether to open
/// a member by looking for that operator at the branch root.
fn project_branch(branch: LogicalExpr, wanted: &[ColumnId]) -> LogicalExpr {
    if branch.output_columns() == wanted {
        return branch;
    }
    if let LogicalOp::StartupFilter { .. } = branch.op {
        let LogicalExpr { op, children } = branch;
        let child = children.into_iter().next().expect("startup child");
        return LogicalExpr::new(op, vec![project_branch(child, wanted)]);
    }
    project_to(branch, wanted)
}

// ---------------------------------------------------------------------------
// pass 1: predicate pushdown
// ---------------------------------------------------------------------------

fn push_filters(tree: LogicalExpr) -> LogicalExpr {
    let LogicalExpr { op, children } = tree;
    // Rewrite children first.
    let mut children: Vec<LogicalExpr> = children.into_iter().map(push_filters).collect();
    match op {
        LogicalOp::Filter { predicate } => {
            let child = children.pop().expect("filter has one child");
            push_predicate_into(predicate.conjuncts(), child)
        }
        other => LogicalExpr {
            op: other,
            children,
        },
    }
}

/// Push a set of conjuncts into `child`, leaving what cannot sink as a
/// Filter above it.
fn push_predicate_into(conjuncts: Vec<ScalarExpr>, child: LogicalExpr) -> LogicalExpr {
    match child.op.clone() {
        LogicalOp::Filter { predicate } => {
            // Merge with the lower filter and retry as one unit.
            let mut all = predicate.conjuncts();
            all.extend(conjuncts);
            let grand = child
                .children
                .into_iter()
                .next()
                .expect("filter has one child");
            push_predicate_into(all, grand)
        }
        LogicalOp::Project { outputs } => {
            // Substitute projection definitions into the predicate, then
            // push below.
            let defs: HashMap<ColumnId, ScalarExpr> = outputs.iter().cloned().collect();
            let substituted: Vec<ScalarExpr> = conjuncts
                .iter()
                .map(|c| {
                    c.map_columns(&mut |id| {
                        defs.get(&id).cloned().unwrap_or(ScalarExpr::Column(id))
                    })
                })
                .collect();
            let grand = child
                .children
                .into_iter()
                .next()
                .expect("project has one child");
            let pushed = push_predicate_into(substituted, grand);
            LogicalExpr::new(LogicalOp::Project { outputs }, vec![pushed])
        }
        LogicalOp::Join { kind, predicate } => {
            let mut kids = child.children.into_iter();
            let left = kids.next().expect("join has two children");
            let right = kids.next().expect("join has two children");
            let left_cols: BTreeSet<ColumnId> = left.output_columns().into_iter().collect();
            let right_cols: BTreeSet<ColumnId> = right.output_columns().into_iter().collect();
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut to_join = Vec::new();
            let mut stay = Vec::new();
            for c in conjuncts {
                let cols = c.columns();
                let only_left = cols.iter().all(|x| left_cols.contains(x));
                let only_right = cols.iter().all(|x| right_cols.contains(x));
                match kind {
                    JoinKind::Inner | JoinKind::Cross => {
                        if only_left && !cols.is_empty() {
                            to_left.push(c);
                        } else if only_right && !cols.is_empty() {
                            to_right.push(c);
                        } else {
                            to_join.push(c);
                        }
                    }
                    JoinKind::Semi | JoinKind::Anti => {
                        // Output is left-only; all filter conjuncts reference
                        // left columns (or are column-free).
                        if only_left && !cols.is_empty() {
                            to_left.push(c);
                        } else {
                            stay.push(c);
                        }
                    }
                    JoinKind::LeftOuter => {
                        if only_left && !cols.is_empty() {
                            to_left.push(c);
                        } else {
                            // Pushing right/mixed predicates through a left
                            // outer join is not semantics-preserving.
                            stay.push(c);
                        }
                    }
                }
            }
            let left = if to_left.is_empty() {
                left
            } else {
                push_predicate_into(to_left, left)
            };
            let right = if to_right.is_empty() {
                right
            } else {
                push_predicate_into(to_right, right)
            };
            // Merge join-spanning conjuncts into the join predicate; a
            // cross join gaining a predicate becomes an inner join.
            let (kind, predicate) = if to_join.is_empty() {
                (kind, predicate)
            } else {
                let mut all = predicate.map(|p| p.conjuncts()).unwrap_or_default();
                all.extend(to_join);
                let kind = if kind == JoinKind::Cross {
                    JoinKind::Inner
                } else {
                    kind
                };
                (kind, ScalarExpr::and(all))
            };
            let join = LogicalExpr::join(kind, left, right, predicate);
            wrap_filter(join, stay)
        }
        LogicalOp::UnionAll { output } => {
            // Clone the predicate into every branch, remapping the view's
            // output columns to each member's columns by position.
            let new_children: Vec<LogicalExpr> = child
                .children
                .into_iter()
                .map(|branch| {
                    let branch_cols = branch.output_columns();
                    let remapped: Vec<ScalarExpr> = conjuncts
                        .iter()
                        .map(|c| {
                            c.map_columns(&mut |id| match output.iter().position(|&o| o == id) {
                                Some(pos) => ScalarExpr::Column(branch_cols[pos]),
                                None => ScalarExpr::Column(id),
                            })
                        })
                        .collect();
                    push_predicate_into(remapped, branch)
                })
                .collect();
            LogicalExpr::new(LogicalOp::UnionAll { output }, new_children)
        }
        // Leaves and everything else: the filter stays here.
        _ => wrap_filter(child, conjuncts),
    }
}

fn wrap_filter(child: LogicalExpr, conjuncts: Vec<ScalarExpr>) -> LogicalExpr {
    match ScalarExpr::and(conjuncts) {
        Some(p) => child.filter(p),
        None => child,
    }
}

// ---------------------------------------------------------------------------
// pass 2: constant folding
// ---------------------------------------------------------------------------

/// Evaluate a literal-only boolean expression; `None` when it references
/// columns/params or evaluates to UNKNOWN.
fn const_eval(e: &ScalarExpr) -> Option<bool> {
    match e {
        ScalarExpr::Literal(Value::Bool(b)) => Some(*b),
        ScalarExpr::Cmp { op, left, right } => {
            let (ScalarExpr::Literal(l), ScalarExpr::Literal(r)) = (left.as_ref(), right.as_ref())
            else {
                return None;
            };
            let ord = l.sql_cmp(r)?;
            Some(match op {
                CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                CmpOp::Neq => ord != std::cmp::Ordering::Equal,
                CmpOp::Lt => ord == std::cmp::Ordering::Less,
                CmpOp::Le => ord != std::cmp::Ordering::Greater,
                CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                CmpOp::Ge => ord != std::cmp::Ordering::Less,
            })
        }
        ScalarExpr::Not(inner) => const_eval(inner).map(|b| !b),
        ScalarExpr::And(list) => {
            let vals: Vec<Option<bool>> = list.iter().map(const_eval).collect();
            if vals.contains(&Some(false)) {
                Some(false)
            } else if vals.iter().all(|v| *v == Some(true)) {
                Some(true)
            } else {
                None
            }
        }
        ScalarExpr::Or(list) => {
            let vals: Vec<Option<bool>> = list.iter().map(const_eval).collect();
            if vals.contains(&Some(true)) {
                Some(true)
            } else if vals.iter().all(|v| *v == Some(false)) {
                Some(false)
            } else {
                None
            }
        }
        _ => None,
    }
}

fn fold_constants(tree: LogicalExpr) -> LogicalExpr {
    let LogicalExpr { op, children } = tree;
    let children: Vec<LogicalExpr> = children.into_iter().map(fold_constants).collect();
    if let LogicalOp::Filter { predicate } = &op {
        let mut kept = Vec::new();
        for c in predicate.conjuncts() {
            // `x IN ()` (a CONTAINS with no hits) is FALSE, or UNKNOWN for a
            // NULL `x`: as a conjunct it keeps no row either way. Under a NOT
            // the two differ, so `const_eval` does not fold it.
            let empty_list =
                matches!(&c, ScalarExpr::InList { list, negated: false, .. } if list.is_empty());
            match const_eval(&c).or(empty_list.then_some(false)) {
                Some(true) => {}
                Some(false) => {
                    let columns = children[0].output_columns();
                    return LogicalExpr::new(LogicalOp::EmptyGet { columns }, vec![]);
                }
                None => kept.push(c),
            }
        }
        let child = children.into_iter().next().expect("filter has one child");
        return wrap_filter(child, kept);
    }
    LogicalExpr { op, children }
}

// ---------------------------------------------------------------------------
// passes 3 and 4: static and runtime pruning (constraint property framework)
// ---------------------------------------------------------------------------

/// One bottom-up walk that derives each node's column domains with
/// [`derive_domains`] — what the memo will derive for its group — and
/// prunes from them (§4.1.5).
///
/// Static pruning: a filter whose predicate's domains meet its input's in
/// an empty column is an `EmptyGet`, the rule the filter's estimate applies
/// (a CHECK range it contradicts, however deep below, or a contradiction of
/// its own such as `k = NULL`); so is an inner, cross or semi join with an
/// empty input, and a UNION ALL drops its empty branches.
///
/// Startup filters: a `col = @param` conjunct (either operand order) over a
/// column its input confines gains a column-free `STARTUP(@param IN
/// domain)` guard above the filter, so the subtree runs only when the
/// parameter can match.
fn constrain(tree: LogicalExpr, opts: &SimplifyOptions) -> (LogicalExpr, Domains) {
    let LogicalExpr { mut op, children } = tree;
    let mut inputs: Vec<(LogicalExpr, Domains)> =
        children.into_iter().map(|c| constrain(c, opts)).collect();
    let is_empty = |node: &LogicalExpr| matches!(node.op, LogicalOp::EmptyGet { .. });
    if let (true, LogicalOp::UnionAll { output }) = (opts.constraint_pruning, &op) {
        inputs.retain(|(branch, _)| !is_empty(branch));
        match inputs.as_slice() {
            [] => return (empty_get(output.clone()), Domains::default()),
            // A single surviving member needs no union: a projection
            // renames its columns to the view's outputs, leaving the
            // member subtree free to be pushed whole to its server.
            [(branch, _)] => {
                let outputs = output
                    .iter()
                    .zip(branch.output_columns())
                    .map(|(&o, b)| (o, ScalarExpr::Column(b)))
                    .collect();
                op = LogicalOp::Project { outputs };
            }
            _ => {}
        }
    }
    let columns: Vec<Vec<ColumnId>> = inputs.iter().map(|(c, _)| c.output_columns()).collect();
    let derived: Vec<(&[ColumnId], &Domains)> = columns
        .iter()
        .zip(&inputs)
        .map(|(cols, (_, domains))| (cols.as_slice(), domains))
        .collect();
    let (domains, contradiction) = derive_domains(&op, &derived);
    let starved = matches!(
        op,
        LogicalOp::Join {
            kind: JoinKind::Inner | JoinKind::Cross | JoinKind::Semi,
            ..
        }
    ) && inputs.iter().any(|(c, _)| is_empty(c));
    let guards = match &op {
        LogicalOp::Filter { predicate } if opts.startup_filters => {
            startup_guards(predicate, &inputs[0].1)
        }
        _ => None,
    };
    let node = LogicalExpr::new(op, inputs.into_iter().map(|(c, _)| c).collect());
    if opts.constraint_pruning && (contradiction || starved) {
        return (empty_get(node.output_columns()), Domains::default());
    }
    match guards {
        Some(predicate) => (
            LogicalExpr::new(LogicalOp::StartupFilter { predicate }, vec![node]),
            domains,
        ),
        None => (node, domains),
    }
}

fn empty_get(columns: Vec<ColumnId>) -> LogicalExpr {
    LogicalExpr::new(LogicalOp::EmptyGet { columns }, vec![])
}

/// `STARTUP(@p IN domain)` for each `col = @p` conjunct of `predicate`
/// (either operand order) whose column `input` confines; `None` without
/// one.
fn startup_guards(predicate: &ScalarExpr, input: &Domains) -> Option<ScalarExpr> {
    let guards = predicate.conjuncts().into_iter().filter_map(|conj| {
        let ScalarExpr::Cmp {
            op: CmpOp::Eq,
            left,
            right,
        } = conj
        else {
            return None;
        };
        let (column, param) = match (*left, *right) {
            (ScalarExpr::Column(c), ScalarExpr::Param(p))
            | (ScalarExpr::Param(p), ScalarExpr::Column(c)) => (c, p),
            _ => return None,
        };
        let domain = input.get(column)?.clone();
        Some(ScalarExpr::ParamInDomain { param, domain })
    });
    ScalarExpr::and(guards.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{test_table_meta, Locality, TableMeta};
    use crate::props::ColumnRegistry;
    use dhqp_types::{DataType, Interval, IntervalSet};
    use std::sync::Arc;

    fn two_tables() -> (ColumnRegistry, Arc<TableMeta>, Arc<TableMeta>) {
        let mut reg = ColumnRegistry::new();
        let a = test_table_meta(
            0,
            "a",
            Locality::Local,
            &[("x", DataType::Int), ("y", DataType::Int)],
            &mut reg,
            100,
        );
        let b = test_table_meta(
            1,
            "b",
            Locality::Local,
            &[("z", DataType::Int)],
            &mut reg,
            100,
        );
        (reg, a, b)
    }

    fn eq_cc(l: ColumnId, r: ColumnId) -> ScalarExpr {
        ScalarExpr::eq(ScalarExpr::Column(l), ScalarExpr::Column(r))
    }

    fn cmp_ci(c: ColumnId, op: CmpOp, v: i64) -> ScalarExpr {
        ScalarExpr::cmp(
            op,
            ScalarExpr::Column(c),
            ScalarExpr::literal(Value::Int(v)),
        )
    }

    #[test]
    fn filter_splits_and_pushes_into_join_sides() {
        let (_, a, b) = two_tables();
        let pred = ScalarExpr::and(vec![
            cmp_ci(a.column_id(0), CmpOp::Gt, 5),  // left only
            cmp_ci(b.column_id(0), CmpOp::Lt, 9),  // right only
            eq_cc(a.column_id(1), b.column_id(0)), // join-spanning
        ])
        .unwrap();
        let tree = LogicalExpr::join(
            JoinKind::Cross,
            LogicalExpr::get(Arc::clone(&a)),
            LogicalExpr::get(Arc::clone(&b)),
            None,
        )
        .filter(pred);
        let out = simplify(
            tree,
            &SimplifyOptions::default(),
            &mut ColumnRegistry::new(),
        );
        // Cross join became inner with the spanning conjunct.
        match &out.op {
            LogicalOp::Join { kind, predicate } => {
                assert_eq!(*kind, JoinKind::Inner);
                assert!(predicate.is_some());
            }
            other => panic!("expected join at root, got {other:?}"),
        }
        // Each side gained its pushed filter.
        assert!(matches!(out.children[0].op, LogicalOp::Filter { .. }));
        assert!(matches!(out.children[1].op, LogicalOp::Filter { .. }));
    }

    #[test]
    fn left_outer_join_keeps_right_side_predicates_above() {
        let (_, a, b) = two_tables();
        let tree = LogicalExpr::join(
            JoinKind::LeftOuter,
            LogicalExpr::get(Arc::clone(&a)),
            LogicalExpr::get(Arc::clone(&b)),
            Some(eq_cc(a.column_id(1), b.column_id(0))),
        )
        .filter(cmp_ci(b.column_id(0), CmpOp::Gt, 3));
        let out = simplify(
            tree,
            &SimplifyOptions::default(),
            &mut ColumnRegistry::new(),
        );
        assert!(
            matches!(out.op, LogicalOp::Filter { .. }),
            "right-side predicate must stay above the outer join:\n{}",
            out.display_tree()
        );
    }

    #[test]
    fn adjacent_filters_merge() {
        let (_, a, _) = two_tables();
        let tree = LogicalExpr::get(Arc::clone(&a))
            .filter(cmp_ci(a.column_id(0), CmpOp::Gt, 1))
            .filter(cmp_ci(a.column_id(0), CmpOp::Lt, 10));
        let out = simplify(
            tree,
            &SimplifyOptions::default(),
            &mut ColumnRegistry::new(),
        );
        match &out.op {
            LogicalOp::Filter { predicate } => assert_eq!(predicate.conjuncts().len(), 2),
            other => panic!("expected single merged filter, got {other:?}"),
        }
        assert!(matches!(out.children[0].op, LogicalOp::Get { .. }));
    }

    #[test]
    fn predicate_substitutes_through_project() {
        let (mut reg, a, _) = two_tables();
        let derived = reg.allocate("double_x", "", DataType::Int, true);
        let tree = LogicalExpr::get(Arc::clone(&a))
            .project(vec![(
                derived,
                ScalarExpr::Arith {
                    op: crate::scalar::ArithOp::Mul,
                    left: Box::new(ScalarExpr::Column(a.column_id(0))),
                    right: Box::new(ScalarExpr::literal(Value::Int(2))),
                },
            )])
            .filter(cmp_ci(derived, CmpOp::Gt, 10));
        let out = simplify(
            tree,
            &SimplifyOptions::default(),
            &mut ColumnRegistry::new(),
        );
        assert!(matches!(out.op, LogicalOp::Project { .. }));
        // Column pruning may add an extra pass-through projection; the
        // filter must sit somewhere below the root project, directly over
        // the Get, with the substituted base-column predicate.
        let mut node = &out.children[0];
        while let LogicalOp::Project { .. } = &node.op {
            node = &node.children[0];
        }
        match &node.op {
            LogicalOp::Filter { predicate } => {
                assert!(predicate.columns().contains(&a.column_id(0)));
                assert!(!predicate.columns().contains(&derived));
                assert!(matches!(node.children[0].op, LogicalOp::Get { .. }));
            }
            other => panic!("filter should sink below project, got {other:?}"),
        }
    }

    #[test]
    fn constant_false_folds_to_empty() {
        let (_, a, _) = two_tables();
        let tree = LogicalExpr::get(Arc::clone(&a)).filter(ScalarExpr::cmp(
            CmpOp::Eq,
            ScalarExpr::literal(Value::Int(1)),
            ScalarExpr::literal(Value::Int(2)),
        ));
        let out = simplify(
            tree,
            &SimplifyOptions::default(),
            &mut ColumnRegistry::new(),
        );
        assert!(matches!(out.op, LogicalOp::EmptyGet { .. }));
        // TRUE conjuncts vanish.
        let tree = LogicalExpr::get(Arc::clone(&a)).filter(ScalarExpr::cmp(
            CmpOp::Lt,
            ScalarExpr::literal(Value::Int(1)),
            ScalarExpr::literal(Value::Int(2)),
        ));
        let out = simplify(
            tree,
            &SimplifyOptions::default(),
            &mut ColumnRegistry::new(),
        );
        assert!(matches!(out.op, LogicalOp::Get { .. }));
    }

    fn partitioned_view(
        reg: &mut ColumnRegistry,
    ) -> (LogicalExpr, Vec<ColumnId>, Vec<Arc<TableMeta>>) {
        wide_view(reg, &[])
    }

    /// Three partitions of k — [0,9], [10,19], [20,29] — each with the
    /// `extra` Int columns after it.
    fn wide_view(
        reg: &mut ColumnRegistry,
        extra: &[&str],
    ) -> (LogicalExpr, Vec<ColumnId>, Vec<Arc<TableMeta>>) {
        let names: Vec<&str> = std::iter::once("k").chain(extra.iter().copied()).collect();
        let cols: Vec<(&str, DataType)> = names.iter().map(|&n| (n, DataType::Int)).collect();
        let mut members = Vec::new();
        for i in 0..3u32 {
            let mut m =
                (*test_table_meta(i, &format!("p{i}"), Locality::Local, &cols, reg, 100)).clone();
            Arc::make_mut(&mut m.catalog).checks = vec![(
                0,
                IntervalSet::single(Interval::between(
                    Value::Int(i as i64 * 10),
                    Value::Int(i as i64 * 10 + 9),
                )),
            )];
            members.push(Arc::new(m));
        }
        let out: Vec<ColumnId> = names
            .iter()
            .map(|&n| reg.allocate(n, "v", DataType::Int, true))
            .collect();
        let union = LogicalExpr::new(
            LogicalOp::UnionAll {
                output: out.clone(),
            },
            members
                .iter()
                .map(|m| LogicalExpr::get(Arc::clone(m)))
                .collect(),
        );
        (union, out, members)
    }

    #[test]
    fn static_partition_pruning_eliminates_branches() {
        let mut reg = ColumnRegistry::new();
        let (view, out, _) = partitioned_view(&mut reg);
        // k = 15 touches only partition 1; a single survivor collapses to a
        // renaming projection over the member (so the member subtree can be
        // pushed whole).
        let tree = view.filter(cmp_ci(out[0], CmpOp::Eq, 15));
        let result = simplify(
            tree,
            &SimplifyOptions::default(),
            &mut ColumnRegistry::new(),
        );
        let mut node = &result;
        while let LogicalOp::Project { .. } = &node.op {
            node = &node.children[0];
        }
        match &node.op {
            LogicalOp::Filter { .. } => {
                let LogicalOp::Get { meta, .. } = &node.children[0].op else {
                    panic!("filter over member get: {}", result.display_tree());
                };
                assert_eq!(&*meta.alias, "p1");
            }
            other => panic!("expected collapsed member access, got {other:?}"),
        }
    }

    #[test]
    fn pruning_disabled_keeps_all_branches() {
        let mut reg = ColumnRegistry::new();
        let (view, out, _) = partitioned_view(&mut reg);
        let tree = view.filter(cmp_ci(out[0], CmpOp::Eq, 15));
        let opts = SimplifyOptions {
            constraint_pruning: false,
            ..Default::default()
        };
        let result = simplify(tree, &opts, &mut ColumnRegistry::new());
        match &result.op {
            LogicalOp::UnionAll { .. } => assert_eq!(result.children.len(), 3),
            other => panic!("expected union, got {other:?}"),
        }
    }

    #[test]
    fn fully_contradictory_filter_prunes_whole_view() {
        let mut reg = ColumnRegistry::new();
        let (view, out, _) = partitioned_view(&mut reg);
        let tree = view.filter(cmp_ci(out[0], CmpOp::Eq, 999));
        let result = simplify(
            tree,
            &SimplifyOptions::default(),
            &mut ColumnRegistry::new(),
        );
        assert!(matches!(result.op, LogicalOp::EmptyGet { .. }));
    }

    #[test]
    fn contradictions_prune_above_any_operator() {
        let mut reg = ColumnRegistry::new();
        let (view, out, _) = partitioned_view(&mut reg);
        // Pushdown stops at the aggregate; the union's domain for k reaches
        // the filter through it.
        let n = reg.allocate("n", "", DataType::Int, false);
        let count = AggCall {
            func: AggFunc::CountStar,
            arg: None,
            distinct: false,
            output: n,
        };
        let tree = view
            .aggregate(vec![out[0]], vec![count])
            .filter(cmp_ci(out[0], CmpOp::Gt, 99));
        let result = simplify(tree, &SimplifyOptions::default(), &mut reg);
        assert!(
            matches!(result.op, LogicalOp::EmptyGet { .. }),
            "{}",
            result.display_tree()
        );
        // `x = NULL` contradicts itself, CHECK or not.
        let (mut reg, a, _) = two_tables();
        let null = ScalarExpr::eq(
            ScalarExpr::Column(a.column_id(0)),
            ScalarExpr::literal(Value::Null),
        );
        let tree = LogicalExpr::get(a).filter(null);
        let result = simplify(tree, &SimplifyOptions::default(), &mut reg);
        assert!(matches!(result.op, LogicalOp::EmptyGet { .. }));
    }

    #[test]
    fn parameterized_filter_gains_startup_guards() {
        let mut reg = ColumnRegistry::new();
        let (view, out, members) = partitioned_view(&mut reg);
        // k = @k: unknown at compile time — every branch survives but gets
        // a startup filter guard.
        let tree = view.filter(ScalarExpr::eq(
            ScalarExpr::Column(out[0]),
            ScalarExpr::Param("k".into()),
        ));
        let result = simplify(
            tree,
            &SimplifyOptions::default(),
            &mut ColumnRegistry::new(),
        );
        match &result.op {
            LogicalOp::UnionAll { .. } => {
                assert_eq!(result.children.len(), 3);
                for (i, branch) in result.children.iter().enumerate() {
                    match &branch.op {
                        LogicalOp::StartupFilter { predicate } => {
                            let ScalarExpr::ParamInDomain { param, domain } = predicate else {
                                panic!("expected ParamInDomain, got {predicate}");
                            };
                            assert_eq!(param, "k");
                            assert_eq!(domain, &members[i].catalog.checks[0].1);
                        }
                        other => panic!("branch {i} missing startup filter: {other:?}"),
                    }
                }
            }
            other => panic!("expected union, got {other:?}"),
        }
    }

    #[test]
    fn column_pruning_narrows_gets() {
        let (_, a, b) = two_tables();
        // SELECT a.x FROM a, b WHERE a.y = b.z — a needs (x, y), b needs z.
        let join = LogicalExpr::join(
            JoinKind::Inner,
            LogicalExpr::get(Arc::clone(&a)),
            LogicalExpr::get(Arc::clone(&b)),
            Some(eq_cc(a.column_id(1), b.column_id(0))),
        );
        let tree = join.project(vec![(a.column_id(0), ScalarExpr::Column(a.column_id(0)))]);
        let out = simplify(
            tree,
            &SimplifyOptions::default(),
            &mut ColumnRegistry::new(),
        );
        // `a` keeps both columns (x projected, y joins); `b` keeps its one.
        let LogicalOp::Project { .. } = out.op else {
            panic!("root project")
        };
        let join = &out.children[0];
        assert!(matches!(join.op, LogicalOp::Join { .. }));
        // No spurious projection over a (it needs all its columns)...
        assert!(matches!(join.children[0].op, LogicalOp::Get { .. }));
        // ...and none over b either (single column, fully needed).
        assert!(matches!(join.children[1].op, LogicalOp::Get { .. }));

        // Narrow case: only a.x consumed anywhere.
        let tree = LogicalExpr::join(
            JoinKind::Inner,
            LogicalExpr::get(Arc::clone(&a)),
            LogicalExpr::get(Arc::clone(&b)),
            Some(eq_cc(a.column_id(0), b.column_id(0))),
        )
        .project(vec![(a.column_id(0), ScalarExpr::Column(a.column_id(0)))]);
        let out = simplify(
            tree,
            &SimplifyOptions::default(),
            &mut ColumnRegistry::new(),
        );
        let join = &out.children[0];
        match &join.children[0].op {
            LogicalOp::Project { outputs } => {
                assert_eq!(outputs.len(), 1, "a.y is not consumed and must be pruned");
                assert_eq!(outputs[0].0, a.column_id(0));
            }
            other => panic!("expected pruning projection over a, got {other:?}"),
        }
    }

    #[test]
    fn count_star_keeps_one_column() {
        let (mut reg, a, _) = two_tables();
        let out_col = reg.allocate("cnt", "", DataType::Int, false);
        let agg = LogicalExpr::get(Arc::clone(&a)).aggregate(
            vec![],
            vec![crate::scalar::AggCall {
                func: crate::scalar::AggFunc::CountStar,
                arg: None,
                distinct: false,
                output: out_col,
            }],
        );
        let tree = agg.project(vec![(out_col, ScalarExpr::Column(out_col))]);
        let out = simplify(
            tree,
            &SimplifyOptions::default(),
            &mut ColumnRegistry::new(),
        );
        // The root projection renames nothing and is dropped; COUNT(*)
        // needs no columns, but pruning must still leave one so rows can
        // be counted.
        assert!(matches!(out.op, LogicalOp::Aggregate { .. }));
        match &out.children[0].op {
            LogicalOp::Project { outputs } => assert_eq!(outputs.len(), 1),
            other => panic!("expected single-column projection, got {other:?}"),
        }
    }

    fn k_equals_param(k: ColumnId) -> ScalarExpr {
        ScalarExpr::eq(ScalarExpr::Column(k), ScalarExpr::Param("k".into()))
    }

    /// `Project(Filter(Get))` → the projected ids and the member's alias.
    fn narrowed_member(node: &LogicalExpr) -> (Vec<ColumnId>, String) {
        let LogicalOp::Project { outputs } = &node.op else {
            panic!("expected a projection:\n{}", node.display_tree());
        };
        let filter = &node.children[0];
        assert!(matches!(filter.op, LogicalOp::Filter { .. }));
        let LogicalOp::Get { meta, .. } = &filter.children[0].op else {
            panic!("Filter must sit directly on Get:\n{}", node.display_tree());
        };
        (
            outputs.iter().map(|(c, _)| *c).collect(),
            meta.alias.to_string(),
        )
    }

    #[test]
    fn column_pruning_narrows_union_branches() {
        let mut reg = ColumnRegistry::new();
        let (view, out, members) = wide_view(&mut reg, &["x", "y", "z"]);
        // SELECT x, z FROM v WHERE k = @k AND y > 5
        let pred = ScalarExpr::and(vec![k_equals_param(out[0]), cmp_ci(out[2], CmpOp::Gt, 5)]);
        let tree = project_to(view.filter(pred.unwrap()), &[out[1], out[3]]);
        let result = simplify(tree, &SimplifyOptions::default(), &mut reg);
        // The view and every branch keep positions 1 and 3; the statement's
        // own projection has nothing left to do and is gone.
        let LogicalOp::UnionAll { output } = &result.op else {
            panic!("expected the union at the root:\n{}", result.display_tree());
        };
        assert_eq!(output, &[out[1], out[3]]);
        assert_eq!(result.children.len(), 3);
        for (branch, m) in result.children.iter().zip(&members) {
            // Still rooted at the startup filter the executor looks for.
            assert!(
                matches!(branch.op, LogicalOp::StartupFilter { .. }),
                "{}",
                result.display_tree()
            );
            let (kept, alias) = narrowed_member(&branch.children[0]);
            assert_eq!(kept, [m.column_id(1), m.column_id(3)]);
            assert_eq!(alias, &*m.alias);
        }
    }

    #[test]
    fn a_branch_projection_goes_under_the_startup_filter() {
        let mut reg = ColumnRegistry::new();
        let (view, out, members) = wide_view(&mut reg, &["x", "y"]);
        // Without pushdown's filter merging, a branch can be
        // StartupFilter(Filter(Filter(Get))): the outer filter reads k, so
        // the branch comes back from the recursion one column too wide.
        let branches: Vec<LogicalExpr> = members
            .iter()
            .map(|m| {
                LogicalExpr::get(Arc::clone(m))
                    .filter(cmp_ci(m.column_id(2), CmpOp::Gt, 5))
                    .filter(k_equals_param(m.column_id(0)))
            })
            .collect();
        let tree = project_to(LogicalExpr::new(view.op, branches), &[out[1]]);
        let result = prune_columns(constrain(tree, &SimplifyOptions::default()).0, None);
        assert_eq!(result.output_columns(), [out[1]]);
        for (branch, m) in result.children.iter().zip(&members) {
            assert!(
                matches!(branch.op, LogicalOp::StartupFilter { .. }),
                "{}",
                result.display_tree()
            );
            assert_eq!(branch.output_columns(), [m.column_id(1)]);
        }
    }

    #[test]
    fn predicate_only_columns_stop_at_the_filter() {
        let (mut reg, a, _) = two_tables();
        // SELECT x FROM a WHERE y > 5: y is read by the filter and by
        // nothing above it.
        let tree = project_to(
            LogicalExpr::get(Arc::clone(&a)).filter(cmp_ci(a.column_id(1), CmpOp::Gt, 5)),
            &[a.column_id(0)],
        );
        let result = simplify(tree, &SimplifyOptions::default(), &mut reg);
        let (kept, _) = narrowed_member(&result);
        assert_eq!(kept, [a.column_id(0)]);
    }

    #[test]
    fn count_star_over_a_union_keeps_one_position() {
        let mut reg = ColumnRegistry::new();
        let (view, out, members) = wide_view(&mut reg, &["x", "y"]);
        let cnt = reg.allocate("cnt", "", DataType::Int, false);
        let tree = view.aggregate(
            vec![],
            vec![AggCall {
                func: AggFunc::CountStar,
                arg: None,
                distinct: false,
                output: cnt,
            }],
        );
        // Unsplit, the aggregate counts the union's rows and reads none of
        // its columns.
        let opts = SimplifyOptions {
            partial_aggregates: false,
            ..Default::default()
        };
        let result = simplify(tree, &opts, &mut reg);
        let union = &result.children[0];
        assert_eq!(union.output_columns(), [out[0]]);
        for (branch, m) in union.children.iter().zip(&members) {
            assert_eq!(branch.output_columns(), [m.column_id(0)]);
        }
    }

    #[test]
    fn distinct_union_requires_every_column() {
        let (mut reg, a, _) = two_tables();
        let a2 = test_table_meta(
            2,
            "a2",
            Locality::Local,
            &[("x", DataType::Int), ("y", DataType::Int)],
            &mut reg,
            100,
        );
        let out = vec![
            reg.allocate("x", "", DataType::Int, true),
            reg.allocate("y", "", DataType::Int, true),
        ];
        // SELECT x FROM (SELECT x, y FROM a UNION SELECT x, y FROM a2):
        // UNION's duplicate elimination groups by both columns, so the
        // narrower parent narrows nothing below it.
        let union = LogicalExpr::new(
            LogicalOp::UnionAll {
                output: out.clone(),
            },
            vec![
                LogicalExpr::get(Arc::clone(&a)),
                LogicalExpr::get(Arc::clone(&a2)),
            ],
        );
        let tree = project_to(union.aggregate(out.clone(), vec![]), &out[..1]);
        let result = simplify(tree, &SimplifyOptions::default(), &mut reg);
        fn check(node: &LogicalExpr) {
            match &node.op {
                LogicalOp::UnionAll { output } => assert_eq!(output.len(), 2),
                LogicalOp::Get { .. } => {}
                LogicalOp::Project { outputs } => {
                    assert!(
                        !matches!(node.children[0].op, LogicalOp::Get { .. }),
                        "a member was narrowed to {outputs:?}"
                    );
                }
                _ => {}
            }
            node.children.iter().for_each(check);
        }
        check(&result);
        assert_eq!(result.leaf_tables().len(), 2);
    }

    #[test]
    fn a_parent_reading_the_partitioning_column_keeps_it_alone() {
        let mut reg = ColumnRegistry::new();
        let (view, out, members) = wide_view(&mut reg, &["x", "y"]);
        // SELECT k FROM v WHERE k >= 5: members 0 (partly) .. 2.
        let tree = project_to(view.filter(cmp_ci(out[0], CmpOp::Ge, 5)), &out[..1]);
        let result = simplify(tree, &SimplifyOptions::default(), &mut reg);
        assert_eq!(result.output_columns(), [out[0]]);
        assert_eq!(result.children.len(), 3);
        for (branch, m) in result.children.iter().zip(&members) {
            let (kept, _) = narrowed_member(branch);
            assert_eq!(kept, [m.column_id(0)]);
        }
    }

    #[test]
    fn semi_join_left_predicates_push_left() {
        let (_, a, b) = two_tables();
        let tree = LogicalExpr::join(
            JoinKind::Semi,
            LogicalExpr::get(Arc::clone(&a)),
            LogicalExpr::get(Arc::clone(&b)),
            Some(eq_cc(a.column_id(1), b.column_id(0))),
        )
        .filter(cmp_ci(a.column_id(0), CmpOp::Gt, 2));
        let out = simplify(
            tree,
            &SimplifyOptions::default(),
            &mut ColumnRegistry::new(),
        );
        assert!(matches!(
            out.op,
            LogicalOp::Join {
                kind: JoinKind::Semi,
                ..
            }
        ));
        assert!(matches!(out.children[0].op, LogicalOp::Filter { .. }));
    }
}
