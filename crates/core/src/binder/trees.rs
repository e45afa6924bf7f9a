//! Pure walks over expression and operator trees the binder needs:
//! aggregate discovery in the AST, and correlation extraction / column
//! inventory over bound logical trees.

use dhqp_optimizer::logical::{LogicalExpr, LogicalOp};
use dhqp_optimizer::scalar::ScalarExpr;
use dhqp_optimizer::ColumnId;
use dhqp_sqlfront as ast;

/// Does the AST expression contain an aggregate call?
pub(super) fn contains_aggregate(e: &ast::Expr) -> bool {
    !find_aggregates(e).is_empty()
}

/// Aggregate sub-expressions, outermost first.
pub(super) fn find_aggregates(e: &ast::Expr) -> Vec<ast::Expr> {
    let mut out = Vec::new();
    collect_aggregates(e, &mut out);
    out
}

fn collect_aggregates(e: &ast::Expr, out: &mut Vec<ast::Expr>) {
    match e {
        ast::Expr::CountStar => out.push(e.clone()),
        ast::Expr::Function { name, .. }
            if matches!(name.as_str(), "COUNT" | "SUM" | "MIN" | "MAX" | "AVG") =>
        {
            out.push(e.clone())
        }
        ast::Expr::Binary { left, right, .. } => {
            collect_aggregates(left, out);
            collect_aggregates(right, out);
        }
        ast::Expr::Unary { operand, .. } => collect_aggregates(operand, out),
        ast::Expr::Between {
            expr, low, high, ..
        } => {
            collect_aggregates(expr, out);
            collect_aggregates(low, out);
            collect_aggregates(high, out);
        }
        ast::Expr::IsNull { expr, .. } | ast::Expr::Like { expr, .. } => {
            collect_aggregates(expr, out)
        }
        ast::Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, out);
            for i in list {
                collect_aggregates(i, out);
            }
        }
        ast::Expr::Function { args, .. } => {
            for a in args {
                collect_aggregates(a, out);
            }
        }
        ast::Expr::Cast { expr, .. } => collect_aggregates(expr, out),
        _ => {}
    }
}

/// Pull filters referencing columns outside `inner_cols` (correlation) out
/// of a bound subquery tree, returning the cleaned tree and the extracted
/// predicates.
pub(super) fn decorrelate(
    tree: LogicalExpr,
    inner_cols: &std::collections::BTreeSet<ColumnId>,
) -> (LogicalExpr, Vec<ScalarExpr>) {
    match tree.op.clone() {
        LogicalOp::Filter { predicate } => {
            let child = tree.children.into_iter().next().expect("filter child");
            let (child, mut extracted) = decorrelate(child, inner_cols);
            let mut keep = Vec::new();
            for conj in predicate.conjuncts() {
                let refs_outer = conj.columns().iter().any(|c| !inner_cols.contains(c));
                if refs_outer {
                    extracted.push(conj);
                } else {
                    keep.push(conj);
                }
            }
            let tree = match ScalarExpr::and(keep) {
                Some(p) => child.filter(p),
                None => child,
            };
            (tree, extracted)
        }
        // Projections/limits above correlated filters are preserved; only
        // filters directly on the spine are examined (sufficient for the
        // WHERE-clause subqueries the dialect accepts). A lifted conjunct
        // reads its inner columns from above the projection now, so the
        // projection passes them through.
        LogicalOp::Project { mut outputs } => {
            let child = tree.children.into_iter().next().expect("project child");
            let (child, extracted) = decorrelate(child, inner_cols);
            let below = child.output_columns();
            for c in extracted.iter().flat_map(ScalarExpr::columns) {
                if below.contains(&c) && !outputs.iter().any(|(o, _)| *o == c) {
                    outputs.push((c, ScalarExpr::Column(c)));
                }
            }
            (child.project(outputs), extracted)
        }
        _ => (tree, Vec::new()),
    }
}

/// Every column id defined by any operator inside a tree.
pub(super) fn all_defined_columns(tree: &LogicalExpr) -> std::collections::BTreeSet<ColumnId> {
    let mut out = std::collections::BTreeSet::new();
    fn walk(t: &LogicalExpr, out: &mut std::collections::BTreeSet<ColumnId>) {
        match &t.op {
            LogicalOp::Get { columns, .. }
            | LogicalOp::EmptyGet { columns }
            | LogicalOp::Values { columns, .. } => out.extend(columns.iter().copied()),
            LogicalOp::Project { outputs } => out.extend(outputs.iter().map(|(c, _)| *c)),
            LogicalOp::Aggregate { group_by, aggs } => {
                out.extend(group_by.iter().copied());
                out.extend(aggs.iter().map(|a| a.output));
            }
            LogicalOp::UnionAll { output } => out.extend(output.iter().copied()),
            _ => {}
        }
        for c in &t.children {
            walk(c, out);
        }
    }
    walk(tree, &mut out);
    out
}
