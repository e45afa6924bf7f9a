//! Logical operators and the pre-memo logical expression tree.
//!
//! "At the beginning of optimization, both local and distributed queries are
//! algebrized in the same way, i.e., the same logical operator is used no
//! matter the data source is local or remote, except that the remote data
//! sources are tagged with a flag indicating their level of remotability"
//! (paper §4.1.3). Here that flag is [`TableMeta::source`]
//! ([`Locality`]) plus the provider capability snapshot on the metadata.

use crate::props::ColumnId;
use crate::scalar::{AggCall, ScalarExpr};
use dhqp_oledb::{ProviderCapabilities, TableSnapshot};
use dhqp_types::{Schema, Value};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Where a base table lives.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Locality {
    Local,
    /// A linked server, by name.
    Remote(Arc<str>),
}

impl Locality {
    pub fn remote(name: &str) -> Locality {
        Locality::Remote(Arc::from(name))
    }

    pub fn is_remote(&self) -> bool {
        matches!(self, Locality::Remote(_))
    }

    pub fn server_name(&self) -> Option<&str> {
        match self {
            Locality::Local => None,
            Locality::Remote(s) => Some(s),
        }
    }
}

impl fmt::Display for Locality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Locality::Local => f.write_str("local"),
            Locality::Remote(s) => write!(f, "remote:{s}"),
        }
    }
}

/// Join kinds in the logical algebra. `RightOuter` is normalized to
/// `LeftOuter` by the binder; EXISTS/IN subqueries arrive as `Semi`/`Anti`
/// (the paper's semi-join unrolling, §4.1.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    Inner,
    Cross,
    LeftOuter,
    Semi,
    Anti,
}

impl JoinKind {
    /// Whether left/right children may be swapped by the commute rule.
    pub fn commutable(&self) -> bool {
        matches!(self, JoinKind::Inner | JoinKind::Cross)
    }

    /// Whether the join's output includes right-side columns.
    pub fn produces_right(&self) -> bool {
        matches!(
            self,
            JoinKind::Inner | JoinKind::Cross | JoinKind::LeftOuter
        )
    }
}

/// Everything the optimizer knows about one base table reference. The
/// binder allocates only what is this reference's own — its id, alias and
/// column ids — and points at the table's shared catalog snapshot and its
/// provider's capability record.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Unique per FROM-clause reference within one optimization (two scans
    /// of the same table get different ids — they are distinct leaves).
    pub id: u32,
    pub source: Locality,
    /// Table name as known to the source.
    pub table: String,
    /// FROM-clause binding (alias), shared with the column registry.
    pub alias: Arc<str>,
    /// One [`ColumnId`] per schema column, in schema order.
    pub column_ids: Vec<ColumnId>,
    /// Cardinality from TABLES_INFO, if the provider reports one.
    pub cardinality: Option<u64>,
    /// Schema, index list, CHECK domains (the constraint property
    /// framework's seeds) and histogram statistics (§3.2.4).
    pub catalog: Arc<TableSnapshot>,
    /// Capability record of the owning provider.
    pub caps: Arc<ProviderCapabilities>,
}

impl TableMeta {
    /// The [`ColumnId`] of a schema column by position.
    pub fn column_id(&self, position: usize) -> ColumnId {
        self.column_ids[position]
    }

    /// Position of a column id within this table, if it belongs to it.
    pub fn position_of(&self, id: ColumnId) -> Option<usize> {
        self.column_ids.iter().position(|&c| c == id)
    }

    /// The estimated row count, defaulting pessimistically when unknown.
    pub fn estimated_rows(&self) -> f64 {
        self.cardinality.map(|c| c as f64).unwrap_or(1000.0)
    }
}

impl PartialEq for TableMeta {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for TableMeta {}
impl Hash for TableMeta {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

/// Logical relational operators.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LogicalOp {
    /// Scan of a base table (local or remote — same operator, §4.1.3).
    Get {
        meta: Arc<TableMeta>,
        columns: Vec<ColumnId>,
    },
    /// A statically pruned subtree: produces no rows (constraint framework
    /// reduced a predicate to constant false, §4.1.5).
    EmptyGet { columns: Vec<ColumnId> },
    /// Row filter. One child.
    Filter { predicate: ScalarExpr },
    /// Column-free filter evaluated once before the subtree runs (runtime
    /// partition pruning, §4.1.5). One child.
    StartupFilter { predicate: ScalarExpr },
    /// Computed projection defining new column ids. One child.
    Project {
        outputs: Vec<(ColumnId, ScalarExpr)>,
    },
    /// Binary join. Two children.
    Join {
        kind: JoinKind,
        predicate: Option<ScalarExpr>,
    },
    /// Grouped aggregation. One child.
    Aggregate {
        group_by: Vec<ColumnId>,
        aggs: Vec<AggCall>,
    },
    /// Bag union; `output[i]` is fed by each child's i-th column. N children
    /// (the partitioned-view expansion, §4.1.5).
    UnionAll { output: Vec<ColumnId> },
    /// First-n. One child.
    Limit { n: u64 },
    /// Constant rows (INSERT ... VALUES, a full-text hit list, tests).
    /// Shared: the memo clones and hashes operators freely, and a hit list
    /// is hundreds of rows.
    Values {
        columns: Vec<ColumnId>,
        rows: Arc<Vec<Vec<Value>>>,
    },
}

impl LogicalOp {
    /// Short operator name for explain output.
    pub fn name(&self) -> &'static str {
        match self {
            LogicalOp::Get { .. } => "Get",
            LogicalOp::EmptyGet { .. } => "EmptyGet",
            LogicalOp::Filter { .. } => "Filter",
            LogicalOp::StartupFilter { .. } => "StartupFilter",
            LogicalOp::Project { .. } => "Project",
            LogicalOp::Join { .. } => "Join",
            LogicalOp::Aggregate { .. } => "Aggregate",
            LogicalOp::UnionAll { .. } => "UnionAll",
            LogicalOp::Limit { .. } => "Limit",
            LogicalOp::Values { .. } => "Values",
        }
    }

    /// Number of children this operator requires, `None` for variadic.
    pub fn arity(&self) -> Option<usize> {
        match self {
            LogicalOp::Get { .. } | LogicalOp::EmptyGet { .. } | LogicalOp::Values { .. } => {
                Some(0)
            }
            LogicalOp::Filter { .. }
            | LogicalOp::StartupFilter { .. }
            | LogicalOp::Project { .. }
            | LogicalOp::Aggregate { .. }
            | LogicalOp::Limit { .. } => Some(1),
            LogicalOp::Join { .. } => Some(2),
            LogicalOp::UnionAll { .. } => None,
        }
    }
}

/// A logical expression tree (pre-memo form, as produced by the binder and
/// consumed by [`crate::search::Optimizer::optimize`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LogicalExpr {
    pub op: LogicalOp,
    pub children: Vec<LogicalExpr>,
}

impl LogicalExpr {
    pub fn new(op: LogicalOp, children: Vec<LogicalExpr>) -> Self {
        debug_assert!(
            op.arity().is_none_or(|a| a == children.len()),
            "arity mismatch for {op:?}"
        );
        LogicalExpr { op, children }
    }

    pub fn get(meta: Arc<TableMeta>) -> Self {
        let columns = meta.column_ids.clone();
        LogicalExpr::new(LogicalOp::Get { meta, columns }, vec![])
    }

    pub fn filter(self, predicate: ScalarExpr) -> Self {
        LogicalExpr::new(LogicalOp::Filter { predicate }, vec![self])
    }

    pub fn project(self, outputs: Vec<(ColumnId, ScalarExpr)>) -> Self {
        LogicalExpr::new(LogicalOp::Project { outputs }, vec![self])
    }

    pub fn join(
        kind: JoinKind,
        left: LogicalExpr,
        right: LogicalExpr,
        predicate: Option<ScalarExpr>,
    ) -> Self {
        LogicalExpr::new(LogicalOp::Join { kind, predicate }, vec![left, right])
    }

    pub fn aggregate(self, group_by: Vec<ColumnId>, aggs: Vec<AggCall>) -> Self {
        LogicalExpr::new(LogicalOp::Aggregate { group_by, aggs }, vec![self])
    }

    pub fn limit(self, n: u64) -> Self {
        LogicalExpr::new(LogicalOp::Limit { n }, vec![self])
    }

    /// Output columns of this subtree, derived structurally.
    pub fn output_columns(&self) -> Vec<ColumnId> {
        match &self.op {
            LogicalOp::Get { columns, .. }
            | LogicalOp::EmptyGet { columns }
            | LogicalOp::Values { columns, .. } => columns.clone(),
            LogicalOp::Filter { .. }
            | LogicalOp::StartupFilter { .. }
            | LogicalOp::Limit { .. } => self.children[0].output_columns(),
            LogicalOp::Project { outputs } => outputs.iter().map(|(c, _)| *c).collect(),
            LogicalOp::Join { kind, .. } => {
                let mut cols = self.children[0].output_columns();
                if kind.produces_right() {
                    cols.extend(self.children[1].output_columns());
                }
                cols
            }
            LogicalOp::Aggregate { group_by, aggs } => {
                let mut cols = group_by.clone();
                cols.extend(aggs.iter().map(|a| a.output));
                cols
            }
            LogicalOp::UnionAll { output } => output.clone(),
        }
    }

    /// All `Get` leaves under this tree.
    pub fn leaf_tables(&self) -> Vec<&Arc<TableMeta>> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves<'a>(&'a self, out: &mut Vec<&'a Arc<TableMeta>>) {
        if let LogicalOp::Get { meta, .. } = &self.op {
            out.push(meta);
        }
        for c in &self.children {
            c.collect_leaves(out);
        }
    }

    /// The set of distinct source localities under this tree — the basis of
    /// the locality-grouping rules ("grouping joins based on locality",
    /// §4.1.2). A tree whose set is one remote server is remoting-eligible.
    pub fn localities(&self) -> Vec<Locality> {
        let mut out: Vec<Locality> = Vec::new();
        for meta in self.leaf_tables() {
            if !out.contains(&meta.source) {
                out.push(meta.source.clone());
            }
        }
        out
    }

    /// Pretty tree rendering for tests and debugging.
    pub fn display_tree(&self) -> String {
        let mut s = String::new();
        self.fmt_tree(&mut s, 0);
        s
    }

    fn fmt_tree(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        for _ in 0..depth {
            out.push_str("  ");
        }
        match &self.op {
            LogicalOp::Get { meta, .. } => {
                let _ = writeln!(out, "Get({} @ {})", meta.alias, meta.source);
            }
            LogicalOp::Filter { predicate } => {
                let _ = writeln!(out, "Filter({predicate})");
            }
            LogicalOp::StartupFilter { predicate } => {
                let _ = writeln!(out, "StartupFilter({predicate})");
            }
            LogicalOp::Join { kind, predicate } => {
                let _ = match predicate {
                    Some(p) => writeln!(out, "Join[{kind:?}]({p})"),
                    None => writeln!(out, "Join[{kind:?}]"),
                };
            }
            other => {
                let _ = writeln!(out, "{}", other.name());
            }
        }
        for c in &self.children {
            c.fmt_tree(out, depth + 1);
        }
    }
}

/// Test helper: build a [`TableMeta`] with the given columns and locality.
pub fn test_table_meta(
    id: u32,
    alias: &str,
    source: Locality,
    columns: &[(&str, dhqp_types::DataType)],
    registry: &mut crate::props::ColumnRegistry,
    cardinality: u64,
) -> Arc<TableMeta> {
    use dhqp_types::Column;
    let schema = Schema::new(
        columns
            .iter()
            .map(|(n, t)| Column::new(*n, *t))
            .collect::<Vec<_>>(),
    );
    let column_ids = columns
        .iter()
        .map(|(n, t)| registry.allocate(*n, alias, *t, true))
        .collect();
    let caps = if source.is_remote() {
        ProviderCapabilities::sql_server("SQLOLEDB")
    } else {
        ProviderCapabilities::simple("NATIVE")
    };
    Arc::new(TableMeta {
        id,
        source,
        table: alias.to_string(),
        alias: Arc::from(alias),
        column_ids,
        cardinality: Some(cardinality),
        catalog: Arc::new(TableSnapshot::new(schema, Vec::new())),
        caps: Arc::new(caps),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::ColumnRegistry;
    use crate::scalar::CmpOp;
    use dhqp_types::DataType;

    fn setup() -> (ColumnRegistry, Arc<TableMeta>, Arc<TableMeta>) {
        let mut reg = ColumnRegistry::new();
        let t1 = test_table_meta(
            0,
            "customer",
            Locality::remote("remote0"),
            &[("c_custkey", DataType::Int), ("c_nationkey", DataType::Int)],
            &mut reg,
            1500,
        );
        let t2 = test_table_meta(
            1,
            "nation",
            Locality::Local,
            &[("n_nationkey", DataType::Int)],
            &mut reg,
            25,
        );
        (reg, t1, t2)
    }

    #[test]
    fn output_columns_flow_through_operators() {
        let (_, cust, nation) = setup();
        let join = LogicalExpr::join(
            JoinKind::Inner,
            LogicalExpr::get(Arc::clone(&cust)),
            LogicalExpr::get(Arc::clone(&nation)),
            Some(ScalarExpr::eq(
                ScalarExpr::Column(cust.column_id(1)),
                ScalarExpr::Column(nation.column_id(0)),
            )),
        );
        assert_eq!(join.output_columns().len(), 3);
        let filtered = join.clone().filter(ScalarExpr::cmp(
            CmpOp::Gt,
            ScalarExpr::Column(cust.column_id(0)),
            ScalarExpr::literal(Value::Int(10)),
        ));
        assert_eq!(filtered.output_columns().len(), 3);
        // Semi join drops right columns.
        let semi = LogicalExpr::join(
            JoinKind::Semi,
            LogicalExpr::get(Arc::clone(&cust)),
            LogicalExpr::get(Arc::clone(&nation)),
            None,
        );
        assert_eq!(semi.output_columns().len(), 2);
    }

    #[test]
    fn localities_deduplicate() {
        let (_, cust, nation) = setup();
        let join = LogicalExpr::join(
            JoinKind::Cross,
            LogicalExpr::join(
                JoinKind::Cross,
                LogicalExpr::get(Arc::clone(&cust)),
                LogicalExpr::get(Arc::clone(&cust)),
                None,
            ),
            LogicalExpr::get(nation),
            None,
        );
        let locs = join.localities();
        assert_eq!(locs.len(), 2);
        assert!(locs.contains(&Locality::remote("remote0")));
        assert!(locs.contains(&Locality::Local));
    }

    #[test]
    fn table_meta_identity_is_by_id() {
        let (_, cust, _) = setup();
        let mut clone = (*cust).clone();
        clone.alias = "different".into();
        assert_eq!(*cust, clone, "same id means equal regardless of payload");
    }

    #[test]
    fn display_tree_renders_hierarchy() {
        let (_, cust, nation) = setup();
        let tree = LogicalExpr::join(
            JoinKind::Inner,
            LogicalExpr::get(cust),
            LogicalExpr::get(nation),
            None,
        )
        .limit(5);
        let s = tree.display_tree();
        assert!(s.contains("Limit"));
        assert!(s.contains("Get(customer @ remote:remote0)"));
        assert!(s.contains("Get(nation @ local)"));
    }
}
