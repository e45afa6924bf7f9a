//! Physical operators and the extracted plan tree handed to the executor.

use crate::logical::{JoinKind, TableMeta};
use crate::props::ColumnId;
use crate::scalar::{AggCall, ScalarExpr};
use dhqp_types::Value;
use std::fmt::Write as _;
use std::sync::Arc;

/// Physical (implementable) operators. The remote family mirrors the
/// paper's implementation rules: *build remote query*, *remote
/// scan/range*, *spool over remote operation* (§4.1.2). *Remote fetch* is
/// subsumed: a remote index range returns covering rows.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalOp {
    /// Sequential scan of a local table.
    TableScan {
        meta: Arc<TableMeta>,
    },
    /// Local index range access, delivering key order: the key ranges the
    /// predicate `seek` names on the index's lead column, resolved when the
    /// read opens (`ops::scan::key_ranges`); `None` reads the whole index.
    IndexRange {
        meta: Arc<TableMeta>,
        index: String,
        seek: Option<ScalarExpr>,
    },
    Filter {
        predicate: ScalarExpr,
    },
    /// Column-free predicate evaluated once before opening the child
    /// (runtime partition pruning, §4.1.5).
    StartupFilter {
        predicate: ScalarExpr,
    },
    Project {
        outputs: Vec<(ColumnId, ScalarExpr)>,
    },
    /// Tuple-at-a-time join; inner child re-opened per outer row (with
    /// correlation bindings when parameterized).
    NestedLoopJoin {
        kind: JoinKind,
        predicate: Option<ScalarExpr>,
    },
    HashJoin {
        kind: JoinKind,
        left_keys: Vec<ScalarExpr>,
        right_keys: Vec<ScalarExpr>,
        residual: Option<ScalarExpr>,
    },
    /// Requires both inputs sorted on the key columns.
    MergeJoin {
        left_keys: Vec<ColumnId>,
        right_keys: Vec<ColumnId>,
        residual: Option<ScalarExpr>,
    },
    HashAggregate {
        group_by: Vec<ColumnId>,
        aggs: Vec<AggCall>,
    },
    /// Requires input sorted on the grouping columns.
    StreamAggregate {
        group_by: Vec<ColumnId>,
        aggs: Vec<AggCall>,
    },
    Sort {
        keys: Vec<(ColumnId, bool)>,
    },
    Top {
        n: u64,
    },
    /// `output[i]` is fed by `input_columns[k][i]` of child `k` (children
    /// may deliver their columns in any physical order; the executor
    /// permutes by column id).
    UnionAll {
        output: Vec<ColumnId>,
        input_columns: Vec<Vec<ColumnId>>,
    },
    /// Materializes its child on first open; rescans replay the cache
    /// without re-running the child (the *spool over remote* enforcer).
    Spool,
    /// A SQL statement pushed whole to a linked server — the product of the
    /// *build remote query* rule. `params` are bound at open time.
    RemoteQuery {
        server: Arc<str>,
        sql: String,
        columns: Vec<ColumnId>,
        params: Vec<RemoteParam>,
    },
    /// `IOpenRowset` against a remote base table.
    RemoteScan {
        meta: Arc<TableMeta>,
    },
    /// `IRowsetIndex` range against a remote index (key order delivered).
    RemoteRange {
        meta: Arc<TableMeta>,
        index: String,
        seek: Option<ScalarExpr>,
    },
    /// Key shipping (§4.1.2 parameterization, §4.1.5 semi-join
    /// reduction): the build child's distinct non-NULL join keys bind the
    /// key-set parameter of `sql` — or, for a provider that renders no
    /// statement, seek `index` — and what the remote returns is
    /// hash-joined back against the build rows. A request carries up to
    /// `per_request` keys (n ≥ 1; one through an index).
    SemiJoinReduce {
        kind: JoinKind,
        /// Join key column of the (local, cheap) build child.
        build_key: ColumnId,
        /// Join key column of the remote side.
        probe_key: ColumnId,
        residual: Option<ScalarExpr>,
        server: Arc<str>,
        /// Decoder-built statement for the remote side, `probe_key`
        /// restricted to the key-set parameter `@__keys0`; empty when the
        /// keys seek `index`.
        sql: String,
        /// Remote output columns, matching `sql`'s select-list order (the
        /// table's columns through an index).
        columns: Vec<ColumnId>,
        params: Vec<RemoteParam>,
        per_request: usize,
        /// The probe table and its index led by `probe_key`, opened as an
        /// `IRowsetIndex` range per request (§4.1.2, Table 2) in place of
        /// a statement.
        index: Option<(Arc<TableMeta>, String)>,
    },
    Values {
        columns: Vec<ColumnId>,
        rows: Arc<Vec<Vec<Value>>>,
    },
    /// Produces no rows (statically pruned).
    Empty {
        columns: Vec<ColumnId>,
    },
}

/// The placeholder a key-shipping request binds to its keys.
pub const KEY_SET: &str = "__keys0";

/// A `@name` placeholder in a remote statement's text, bound at open time.
#[derive(Debug, Clone, PartialEq)]
pub enum RemoteParam {
    /// A session query parameter of that name.
    Query(String),
    /// [`KEY_SET`]: one key-shipping request's keys, comma-separated.
    KeySet,
}

impl PhysicalOp {
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalOp::TableScan { .. } => "TableScan",
            PhysicalOp::IndexRange { .. } => "IndexRange",
            PhysicalOp::Filter { .. } => "Filter",
            PhysicalOp::StartupFilter { .. } => "StartupFilter",
            PhysicalOp::Project { .. } => "Project",
            PhysicalOp::NestedLoopJoin { .. } => "NestedLoopJoin",
            PhysicalOp::HashJoin { .. } => "HashJoin",
            PhysicalOp::MergeJoin { .. } => "MergeJoin",
            PhysicalOp::HashAggregate { .. } => "HashAggregate",
            PhysicalOp::StreamAggregate { .. } => "StreamAggregate",
            PhysicalOp::Sort { .. } => "Sort",
            PhysicalOp::Top { .. } => "Top",
            PhysicalOp::UnionAll { .. } => "UnionAll",
            PhysicalOp::Spool => "Spool",
            PhysicalOp::RemoteQuery { .. } => "RemoteQuery",
            PhysicalOp::RemoteScan { .. } => "RemoteScan",
            PhysicalOp::RemoteRange { .. } => "RemoteRange",
            PhysicalOp::SemiJoinReduce { .. } => "SemiJoinReduce",
            PhysicalOp::Values { .. } => "Values",
            PhysicalOp::Empty { .. } => "Empty",
        }
    }

    /// Whether this operator contacts a remote server when opened.
    pub fn is_remote(&self) -> bool {
        matches!(
            self,
            PhysicalOp::RemoteQuery { .. }
                | PhysicalOp::RemoteScan { .. }
                | PhysicalOp::RemoteRange { .. }
                | PhysicalOp::SemiJoinReduce { .. }
        )
    }
}

/// A node of the final physical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysNode {
    pub op: PhysicalOp,
    pub children: Vec<PhysNode>,
    /// Output columns in order — the executor resolves [`ColumnId`]s to row
    /// positions using these.
    pub output: Vec<ColumnId>,
    /// Optimizer estimates, kept for explain output and plan assertions.
    pub est_rows: f64,
    pub est_cost: f64,
}

impl PhysNode {
    pub fn new(op: PhysicalOp, children: Vec<PhysNode>, output: Vec<ColumnId>) -> Self {
        PhysNode {
            op,
            children,
            output,
            est_rows: 0.0,
            est_cost: 0.0,
        }
    }

    /// Number of nodes in this subtree (self included). Pre-order node ids
    /// used by runtime stats are derived from subtree sizes: a node at id
    /// `i` has its first child at `i + 1`, and each later child follows the
    /// previous sibling's whole subtree.
    pub fn subtree_size(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(PhysNode::subtree_size)
            .sum::<usize>()
    }

    /// Every node of this subtree as `(id, depth, node)` in pre-order — the
    /// one walk that hands out the ids [`PhysNode::subtree_size`] describes,
    /// so whatever pairs a plan with its runtime stats iterates this.
    pub fn preorder(&self) -> impl Iterator<Item = (usize, usize, &PhysNode)> {
        let mut pending = vec![(0, self)];
        std::iter::from_fn(move || {
            let (depth, node) = pending.pop()?;
            pending.extend(node.children.iter().rev().map(|c| (depth + 1, c)));
            Some((depth, node))
        })
        .enumerate()
        .map(|(id, (depth, node))| (id, depth, node))
    }

    /// One-line operator label (no estimates, no indent) — shared between
    /// `EXPLAIN` and `EXPLAIN ANALYZE` rendering.
    pub fn describe(&self) -> String {
        match &self.op {
            PhysicalOp::TableScan { meta } => format!("TableScan({})", meta.alias),
            PhysicalOp::IndexRange { meta, index, .. } => {
                format!("IndexRange({}.{index})", meta.alias)
            }
            PhysicalOp::Filter { predicate } => format!("Filter({predicate})"),
            PhysicalOp::StartupFilter { predicate } => format!("StartupFilter({predicate})"),
            PhysicalOp::NestedLoopJoin { kind, .. } => format!("NestedLoopJoin[{kind:?}]"),
            PhysicalOp::HashJoin { kind, .. } => format!("HashJoin[{kind:?}]"),
            PhysicalOp::RemoteQuery { server, sql, .. } => format!("RemoteQuery(@{server}: {sql})"),
            PhysicalOp::RemoteScan { meta } => format!(
                "RemoteScan(@{}.{})",
                meta.source.server_name().unwrap_or("?"),
                meta.table
            ),
            PhysicalOp::RemoteRange { meta, index, .. } => format!(
                "RemoteRange(@{}.{}.{index})",
                meta.source.server_name().unwrap_or("?"),
                meta.table
            ),
            PhysicalOp::SemiJoinReduce {
                server,
                sql,
                per_request,
                index,
                ..
            } => match index {
                Some((meta, index)) => {
                    format!(
                        "SemiJoinReduce(@{server} keys={per_request}: {}.{index})",
                        meta.alias
                    )
                }
                None => format!("SemiJoinReduce(@{server} keys={per_request}: {sql})"),
            },
            PhysicalOp::Sort { keys } => format!("Sort({} keys)", keys.len()),
            other => other.name().to_string(),
        }
    }

    /// Count operators matching a predicate anywhere in the plan.
    pub fn count_ops(&self, f: &mut impl FnMut(&PhysicalOp) -> bool) -> usize {
        let mut n = usize::from(f(&self.op));
        for c in &self.children {
            n += c.count_ops(f);
        }
        n
    }

    /// Find the first node whose operator matches.
    pub fn find_op(&self, f: &mut impl FnMut(&PhysicalOp) -> bool) -> Option<&PhysNode> {
        if f(&self.op) {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find_op(f))
    }

    /// The first operator estimated above its only input, if any. Joins
    /// (a semi-join reduction's one child is its build side), unions and a
    /// scalar aggregate (one row out of none) can exceed an input; nothing
    /// else can, whatever its predicate — the estimator's monotonicity
    /// rule, checked over whole plans by the test suites.
    pub fn estimate_inversion(&self) -> Option<&PhysNode> {
        let exempt = match &self.op {
            PhysicalOp::SemiJoinReduce { .. } => true,
            PhysicalOp::HashAggregate { group_by, .. }
            | PhysicalOp::StreamAggregate { group_by, .. } => group_by.is_empty(),
            _ => false,
        };
        if let ([child], false) = (self.children.as_slice(), exempt) {
            if self.est_rows > child.est_rows * (1.0 + 1e-9) {
                return Some(self);
            }
        }
        self.children.iter().find_map(PhysNode::estimate_inversion)
    }

    /// Indented single-line-per-operator rendering (the engine's
    /// `EXPLAIN`).
    pub fn display_indent(&self) -> String {
        let mut s = String::new();
        self.fmt_indent(&mut s, 0);
        s
    }

    fn fmt_indent(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        if matches!(self.op, PhysicalOp::StartupFilter { .. }) {
            // Startup filters pass their child through unchanged; an
            // estimate would just repeat the child's.
            let _ = writeln!(out, "{}", self.describe());
        } else {
            let _ = writeln!(out, "{}  rows={:.0}", self.describe(), self.est_rows);
        }
        for c in &self.children {
            c.fmt_indent(out, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{test_table_meta, Locality};
    use crate::props::ColumnRegistry;
    use dhqp_types::DataType;

    #[test]
    fn plan_tree_search_helpers() {
        let mut reg = ColumnRegistry::new();
        let meta = test_table_meta(
            0,
            "t",
            Locality::remote("r0"),
            &[("a", DataType::Int)],
            &mut reg,
            10,
        );
        let scan = PhysNode::new(
            PhysicalOp::RemoteScan {
                meta: Arc::clone(&meta),
            },
            vec![],
            meta.column_ids.clone(),
        );
        let spool = PhysNode::new(PhysicalOp::Spool, vec![scan], meta.column_ids.clone());
        assert_eq!(spool.count_ops(&mut |op| op.is_remote()), 1);
        assert!(spool
            .find_op(&mut |op| matches!(op, PhysicalOp::Spool))
            .is_some());
        assert!(spool
            .find_op(&mut |op| matches!(op, PhysicalOp::Sort { .. }))
            .is_none());
        let text = spool.display_indent();
        assert!(text.contains("Spool"));
        assert!(text.contains("RemoteScan(@r0.t)"));
    }

    #[test]
    fn preorder_hands_out_the_subtree_size_ids() {
        let leaf = || PhysNode::new(PhysicalOp::Spool, vec![], vec![]);
        let chain = PhysNode::new(PhysicalOp::Spool, vec![leaf()], vec![]);
        let root = PhysNode::new(PhysicalOp::Spool, vec![chain, leaf()], vec![]);
        let walk: Vec<(usize, usize)> = root.preorder().map(|(id, d, _)| (id, d)).collect();
        assert_eq!(walk, [(0, 0), (1, 1), (2, 2), (3, 1)]);
        // A later child follows its earlier sibling's whole subtree.
        let (second_child, _, node) = root.preorder().nth(3).unwrap();
        assert_eq!(second_child, 1 + root.children[0].subtree_size());
        assert!(std::ptr::eq(node, &root.children[1]));
    }
}
