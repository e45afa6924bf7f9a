//! The binder/algebrizer: name resolution and AST → logical algebra.
//!
//! "At the beginning of optimization, both local and distributed queries
//! are algebrized in the same way" (§4.1.3): every FROM item — local table,
//! four-part linked-server name, partitioned view, OPENROWSET source —
//! becomes the same logical `Get`/`UnionAll`/`Values` operators, tagged
//! with locality through [`TableMeta`].
//!
//! Subquery handling follows §4.1.4: EXISTS / IN subqueries are unrolled
//! into semi/anti-joins here (the simplification-time transform); the
//! decoder later refuses to remote the semi-join shape, which is exactly
//! the paper's "no direct SQL corollary" situation.

mod trees;

use crate::engine::{Engine, LinkedServer};
use crate::knobs::Knobs;
use dhqp_executor::ops::retry::{ReopenFactory, RetryState};
use dhqp_executor::{Breaker, MemberSchema, RetryPolicy};
use dhqp_oledb::{
    is_read_only, DataSource, ProviderCapabilities, Rowset, RowsetExt, TableSnapshot,
};
use dhqp_optimizer::logical::{JoinKind, LogicalExpr, LogicalOp, TableMeta};
use dhqp_optimizer::props::{ColumnRegistry, PhysicalProps, RequiredProps};
use dhqp_optimizer::scalar::{AggCall, AggFunc, ArithOp, CmpOp, ScalarExpr};
use dhqp_optimizer::{ColumnId, Locality};
use dhqp_sqlfront as ast;
use dhqp_types::{DataType, DhqpError, Result, Value};
use std::collections::HashMap;
use std::sync::Arc;
use trees::{all_defined_columns, contains_aggregate, decorrelate, find_aggregates};

/// A bound query block: tree, visible outputs, root ordering requirement.
type BoundBlock = (LogicalExpr, Vec<(String, ColumnId)>, RequiredProps);

/// A fully bound SELECT, ready for the optimizer.
pub struct BoundSelect {
    pub tree: LogicalExpr,
    /// The execution-time column registry snapshot.
    pub registry: ColumnRegistry,
    /// Visible output columns `(name, id)`, in SELECT-list order (hidden
    /// ORDER BY helper columns are appended after these in the plan).
    pub output: Vec<(String, ColumnId)>,
    /// Root ordering requirement from ORDER BY.
    pub required: RequiredProps,
    /// What the plan assumes about every partitioned-view member the query
    /// may read (the definition-time snapshots it was bound against) —
    /// consumed by delayed schema validation as the executor opens them.
    pub view_members: Arc<[MemberSchema]>,
    /// Every linked server this bind resolved — the plan cache holds the
    /// plan current while each is still the registered one.
    pub(crate) servers: Vec<Arc<LinkedServer>>,
    /// When the oldest remote metadata/statistics bundle used here was
    /// fetched (`None` for purely local binds).
    pub stats_as_of: Option<std::time::Instant>,
    /// Whether any consulted statistics bundle was written by the
    /// cardinality feedback loop — surfaced as `[feedback: applied]`.
    pub used_feedback: bool,
}

/// One name visible in a FROM scope.
#[derive(Clone)]
struct BoundColumn {
    name: Arc<str>,
    id: ColumnId,
    #[allow(dead_code)] // kept for diagnostics and future type checking
    data_type: DataType,
}

/// One FROM-clause binding: alias → columns (+ the base-table metadata when
/// the binding is a plain table, needed by full-text rewriting).
#[derive(Clone)]
struct Binding {
    alias: Arc<str>,
    columns: Vec<BoundColumn>,
    table: Option<Arc<TableMeta>>,
}

impl Binding {
    /// A base table's binding: its alias and columns, shared with `meta`.
    fn of_table(meta: &Arc<TableMeta>) -> Binding {
        let columns = meta
            .catalog
            .schema
            .columns()
            .iter()
            .zip(&meta.catalog.names)
            .zip(&meta.column_ids)
            .map(|((c, name), &id)| BoundColumn {
                name: Arc::clone(name),
                id,
                data_type: c.data_type,
            })
            .collect();
        Binding {
            alias: Arc::clone(&meta.alias),
            columns,
            table: Some(Arc::clone(meta)),
        }
    }
}

/// Lexical scope: bindings of the current SELECT plus an optional outer
/// scope for correlated subqueries.
struct Scope<'a> {
    bindings: Vec<Binding>,
    outer: Option<&'a Scope<'a>>,
}

impl<'a> Scope<'a> {
    fn resolve(&self, parts: &[String]) -> Result<&BoundColumn> {
        match parts {
            [col] => {
                let mut found: Option<&BoundColumn> = None;
                for b in &self.bindings {
                    if let Some(c) = b.columns.iter().find(|c| c.name.eq_ignore_ascii_case(col)) {
                        if found.is_some() {
                            return Err(DhqpError::Bind(format!("ambiguous column '{col}'")));
                        }
                        found = Some(c);
                    }
                }
                if let Some(c) = found {
                    return Ok(c);
                }
                if let Some(outer) = self.outer {
                    return outer.resolve(parts);
                }
                Err(DhqpError::Bind(format!("unknown column '{col}'")))
            }
            [alias, col] => {
                for b in &self.bindings {
                    if b.alias.eq_ignore_ascii_case(alias) {
                        return b
                            .columns
                            .iter()
                            .find(|c| c.name.eq_ignore_ascii_case(col))
                            .ok_or_else(|| {
                                DhqpError::Bind(format!("no column '{col}' in '{alias}'"))
                            });
                    }
                }
                if let Some(outer) = self.outer {
                    return outer.resolve(parts);
                }
                Err(DhqpError::Bind(format!("unknown table alias '{alias}'")))
            }
            other => Err(DhqpError::Bind(format!(
                "column references use 1 or 2 parts, got {}",
                other.len()
            ))),
        }
    }

    /// The base-table binding owning a column id, if any.
    fn table_of(&self, id: ColumnId) -> Option<&Binding> {
        self.bindings
            .iter()
            .find(|b| b.columns.iter().any(|c| c.id == id))
            .or_else(|| self.outer.and_then(|o| o.table_of(id)))
    }
}

/// The binder. One instance per top-level statement.
pub struct Binder<'e> {
    engine: &'e Engine,
    /// The knobs of the statement being bound (metadata TTL, the retry
    /// policy of bind-time reads, nested SELECTs).
    knobs: Arc<Knobs>,
    registry: ColumnRegistry,
    next_table_id: u32,
    params: &'e HashMap<String, Value>,
    /// Bind a supplied `@param` as its value (UPDATE/DELETE binds).
    fold_params: bool,
    view_members: Vec<MemberSchema>,
    /// Every linked server resolved so far, once per statement: what its
    /// fetches go through and its plan depends on.
    servers: Vec<Arc<LinkedServer>>,
    stats_as_of: Option<std::time::Instant>,
    used_feedback: bool,
}

impl<'e> Binder<'e> {
    /// A binder under the engine's current knobs, for a caller that is
    /// not one of the engine's own statements.
    pub fn new(engine: &'e Engine, params: &'e HashMap<String, Value>) -> Self {
        Binder::for_statement(engine, engine.knobs(), params)
    }

    /// A binder under the knobs the statement in flight began with.
    pub(crate) fn for_statement(
        engine: &'e Engine,
        knobs: Arc<Knobs>,
        params: &'e HashMap<String, Value>,
    ) -> Self {
        Binder {
            engine,
            knobs,
            registry: ColumnRegistry::new(),
            next_table_id: 0,
            params,
            fold_params: false,
            view_members: Vec::new(),
            servers: Vec::new(),
            stats_as_of: None,
            used_feedback: false,
        }
    }

    /// For UPDATE/DELETE: every `@param` with a supplied value binds as
    /// that literal. DML is never plan-cached, so the values in hand are
    /// the only ones the bound predicate will ever see, and as literals
    /// they reach `ScalarExpr::domains` — member pruning and the
    /// row-location seek — like any constant.
    pub(crate) fn for_dml(mut self) -> Self {
        self.fold_params = true;
        self
    }

    /// The linked server `name` names in this statement: resolved on first
    /// use, then the same one for the rest of the bind, whatever happens to
    /// the registration meanwhile.
    pub(crate) fn link(&mut self, name: &str) -> Result<Arc<LinkedServer>> {
        if let Some(link) = self
            .servers
            .iter()
            .find(|l| l.name.eq_ignore_ascii_case(name))
        {
            return Ok(Arc::clone(link));
        }
        let link = self.engine.link(name)?;
        self.servers.push(Arc::clone(&link));
        Ok(link)
    }

    /// The linked servers this bind has resolved so far.
    pub(crate) fn servers(&self) -> &[Arc<LinkedServer>] {
        &self.servers
    }

    /// Snapshot of the registry built so far (DML paths).
    pub fn registry_snapshot(&self) -> ColumnRegistry {
        self.registry.clone()
    }

    /// Bind expressions with no table scope (INSERT ... VALUES).
    pub fn bind_standalone_exprs(&mut self, exprs: &[ast::Expr]) -> Result<Vec<ScalarExpr>> {
        let scope = Scope {
            bindings: vec![],
            outer: None,
        };
        exprs.iter().map(|e| self.bind_expr(e, &scope)).collect()
    }

    /// Fetch one table's metadata for DML binding.
    pub fn bind_dml_table(&mut self, server: Option<&str>, table: &str) -> Result<Arc<TableMeta>> {
        self.fetch_table_meta(server, table, table)
    }

    /// Bind an expression against one table's columns (DML WHERE/SET).
    pub fn bind_expr_in_table(
        &mut self,
        e: &ast::Expr,
        meta: &Arc<TableMeta>,
    ) -> Result<ScalarExpr> {
        let scope = Scope {
            bindings: vec![Binding::of_table(meta)],
            outer: None,
        };
        self.bind_expr(e, &scope)
    }

    /// Bind a full SELECT statement.
    pub fn bind_select(mut self, stmt: &ast::SelectStmt) -> Result<BoundSelect> {
        let (tree, output, required) = self.bind_select_inner(stmt, None)?;
        Ok(BoundSelect {
            tree,
            registry: self.registry,
            output,
            required,
            view_members: self.view_members.into(),
            servers: self.servers,
            stats_as_of: self.stats_as_of,
            used_feedback: self.used_feedback,
        })
    }

    fn bind_select_inner(
        &mut self,
        stmt: &ast::SelectStmt,
        outer: Option<&Scope<'_>>,
    ) -> Result<BoundBlock> {
        if !stmt.union_branches.is_empty() {
            return self.bind_union(stmt, outer);
        }
        if stmt.from.is_empty() {
            return self.bind_table_less_select(stmt);
        }
        // FROM: bind each item, cross-joining multiple entries.
        let mut tree: Option<LogicalExpr> = None;
        let mut bindings: Vec<Binding> = Vec::new();
        for item in &stmt.from {
            let (item_tree, item_bindings) = self.bind_table_ref(item, outer)?;
            tree = Some(match tree {
                None => item_tree,
                Some(t) => LogicalExpr::join(JoinKind::Cross, t, item_tree, None),
            });
            bindings.extend(item_bindings);
        }
        let mut tree = tree.expect("non-empty FROM");
        let scope = Scope { bindings, outer };

        // WHERE: conjunct-level dispatch (subqueries → semi/anti joins,
        // everything else → filter).
        if let Some(where_clause) = &stmt.where_clause {
            let mut filters = Vec::new();
            for conj in where_clause.clone().split_conjuncts() {
                tree = self.bind_where_conjunct(conj, tree, &scope, &mut filters)?;
            }
            if let Some(p) = ScalarExpr::and(filters) {
                tree = tree.filter(p);
            }
        }

        // Aggregation.
        let has_aggs = stmt.projections.iter().any(|p| match p {
            ast::SelectItem::Expr { expr, .. } => contains_aggregate(expr),
            _ => false,
        }) || stmt.having.as_ref().is_some_and(contains_aggregate);
        let mut agg_outputs: Vec<(ast::Expr, ColumnId)> = Vec::new();
        let mut group_cols: Vec<ColumnId> = Vec::new();
        if !stmt.group_by.is_empty() || has_aggs {
            let (new_tree, groups, aggs) =
                self.bind_aggregate(stmt, tree, &scope, &mut agg_outputs)?;
            tree = new_tree;
            group_cols = groups;
            let _ = aggs;
            if let Some(having) = &stmt.having {
                let pred = self.bind_agg_expr(having, &scope, &group_cols, &agg_outputs)?;
                tree = tree.filter(pred);
            }
        }

        // Projections.
        let mut outputs: Vec<(ColumnId, ScalarExpr)> = Vec::new();
        let mut visible: Vec<(String, ColumnId)> = Vec::new();
        for item in &stmt.projections {
            match item {
                ast::SelectItem::Wildcard => {
                    for b in &scope.bindings {
                        for c in &b.columns {
                            outputs.push((c.id, ScalarExpr::Column(c.id)));
                            visible.push((c.name.to_string(), c.id));
                        }
                    }
                }
                ast::SelectItem::QualifiedWildcard(alias) => {
                    let b = scope
                        .bindings
                        .iter()
                        .find(|b| b.alias.eq_ignore_ascii_case(alias))
                        .ok_or_else(|| DhqpError::Bind(format!("unknown alias '{alias}'")))?;
                    for c in &b.columns {
                        outputs.push((c.id, ScalarExpr::Column(c.id)));
                        visible.push((c.name.to_string(), c.id));
                    }
                }
                ast::SelectItem::Expr { expr, alias } => {
                    let bound = if group_cols.is_empty() && agg_outputs.is_empty() {
                        self.bind_expr(expr, &scope)?
                    } else {
                        self.bind_agg_expr(expr, &scope, &group_cols, &agg_outputs)?
                    };
                    let (id, name) = match (&bound, alias) {
                        (ScalarExpr::Column(id), None) => {
                            let name = self.registry.meta(*id).name.to_string();
                            (*id, name)
                        }
                        (ScalarExpr::Column(id), Some(a)) => (*id, a.clone()),
                        (_, alias) => {
                            let name = alias
                                .clone()
                                .unwrap_or_else(|| format!("col{}", outputs.len()));
                            let ty = dhqp_optimizer::decoder::static_type(&bound, &self.registry)
                                .unwrap_or(DataType::Str);
                            let id = self.registry.allocate(name.clone(), "", ty, true);
                            (id, name)
                        }
                    };
                    outputs.push((id, bound));
                    visible.push((name, id));
                }
            }
        }
        if outputs.is_empty() {
            return Err(DhqpError::Bind("SELECT list is empty".into()));
        }

        // ORDER BY: output aliases or in-scope columns; non-column
        // expressions must be given an alias in the SELECT list first.
        let mut ordering: Vec<(ColumnId, bool)> = Vec::new();
        for item in &stmt.order_by {
            let id = match &item.expr {
                ast::Expr::Column(parts) if parts.len() == 1 => {
                    // Prefer an output alias; fall back to scope.
                    match visible
                        .iter()
                        .find(|(n, _)| n.eq_ignore_ascii_case(&parts[0]))
                    {
                        Some((_, id)) => *id,
                        None => scope.resolve(parts)?.id,
                    }
                }
                ast::Expr::Column(parts) => scope.resolve(parts)?.id,
                other => {
                    return Err(DhqpError::Unsupported(format!(
                        "ORDER BY supports column references only (alias the expression): {other:?}"
                    )))
                }
            };
            // Hidden passthrough if the order column is not projected.
            if !outputs.iter().any(|(c, _)| *c == id) {
                outputs.push((id, ScalarExpr::Column(id)));
            }
            ordering.push((id, item.ascending));
        }

        tree = tree.project(outputs);

        // DISTINCT = group by all visible outputs.
        if stmt.distinct {
            let cols: Vec<ColumnId> = visible.iter().map(|(_, id)| *id).collect();
            tree = tree.aggregate(cols, vec![]);
            if !ordering.is_empty() {
                // Ordering columns must survive the distinct; hidden order
                // columns cannot (they would change the grouping).
                for (id, _) in &ordering {
                    if !visible.iter().any(|(_, v)| v == id) {
                        return Err(DhqpError::Unsupported(
                            "ORDER BY column must appear in SELECT DISTINCT list".into(),
                        ));
                    }
                }
            }
        }

        if let Some(n) = stmt.top {
            tree = tree.limit(n);
        }
        Ok((tree, visible, PhysicalProps::ordered(ordering)))
    }

    /// `SELECT ... UNION [ALL] SELECT ...`: bind each branch, align by
    /// position, and union. ORDER BY/TOP on the statement apply to the
    /// combined result; plain UNION deduplicates via group-by-all.
    fn bind_union(
        &mut self,
        stmt: &ast::SelectStmt,
        outer: Option<&Scope<'_>>,
    ) -> Result<BoundBlock> {
        // Re-bind the first branch without its union/order/top decorations.
        let mut first = stmt.clone();
        first.union_branches = Vec::new();
        first.order_by = Vec::new();
        first.top = None;
        let (first_tree, first_out, _) = self.bind_select_inner(&first, outer)?;
        let mut all_distinct = false;
        let mut branches = vec![first_tree];
        for (branch, all) in &stmt.union_branches {
            let (tree, out, _) = self.bind_select_inner(branch, outer)?;
            if out.len() != first_out.len() {
                return Err(DhqpError::Bind(format!(
                    "UNION branches select {} vs {} columns",
                    first_out.len(),
                    out.len()
                )));
            }
            if !all {
                all_distinct = true;
            }
            branches.push(tree);
        }
        // The union's output columns take the first branch's names/types.
        let mut out_cols = Vec::with_capacity(first_out.len());
        let mut visible = Vec::with_capacity(first_out.len());
        for (name, id) in &first_out {
            let m = self.registry.meta(*id).clone();
            let out = self
                .registry
                .allocate(m.name.clone(), "", m.data_type, true);
            out_cols.push(out);
            visible.push((name.clone(), out));
        }
        let mut tree = LogicalExpr::new(
            LogicalOp::UnionAll {
                output: out_cols.clone(),
            },
            branches,
        );
        if all_distinct || stmt.distinct {
            tree = tree.aggregate(out_cols.clone(), vec![]);
        }
        // ORDER BY on union outputs (names resolve against the first
        // branch's aliases).
        let mut ordering = Vec::new();
        for item in &stmt.order_by {
            let ast::Expr::Column(parts) = &item.expr else {
                return Err(DhqpError::Unsupported(
                    "UNION ORDER BY supports output column names".into(),
                ));
            };
            let name = parts.last().expect("non-empty column parts");
            let (_, id) = visible
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(name))
                .ok_or_else(|| DhqpError::Bind(format!("unknown UNION output column '{name}'")))?;
            ordering.push((*id, item.ascending));
        }
        if let Some(n) = stmt.top {
            tree = tree.limit(n);
        }
        Ok((tree, visible, PhysicalProps::ordered(ordering)))
    }

    /// SELECT without FROM: a single constant row.
    fn bind_table_less_select(&mut self, stmt: &ast::SelectStmt) -> Result<BoundBlock> {
        let scope = Scope {
            bindings: vec![],
            outer: None,
        };
        let mut columns = Vec::new();
        let mut exprs = Vec::new();
        let mut visible = Vec::new();
        for (i, item) in stmt.projections.iter().enumerate() {
            let ast::SelectItem::Expr { expr, alias } = item else {
                return Err(DhqpError::Bind("SELECT * requires a FROM clause".into()));
            };
            let bound = self.bind_expr(expr, &scope)?;
            let name = alias.clone().unwrap_or_else(|| format!("col{i}"));
            let ty = dhqp_optimizer::decoder::static_type(&bound, &self.registry)
                .unwrap_or(DataType::Str);
            let id = self.registry.allocate(name.clone(), "", ty, true);
            columns.push(id);
            exprs.push((id, bound));
            visible.push((name, id));
        }
        let _ = columns;
        // One empty row to project constants over.
        let one_row = LogicalExpr::new(
            LogicalOp::Values {
                columns: vec![],
                rows: Arc::new(vec![vec![]]),
            },
            vec![],
        );
        let tree = one_row.project(exprs);
        Ok((tree, visible, PhysicalProps::none()))
    }

    // ------------------------------------------------------------------
    // FROM-clause binding
    // ------------------------------------------------------------------

    fn bind_table_ref(
        &mut self,
        item: &ast::TableRef,
        outer: Option<&Scope<'_>>,
    ) -> Result<(LogicalExpr, Vec<Binding>)> {
        match item {
            ast::TableRef::Named { name, alias } => self.bind_named_table(name, alias.as_deref()),
            ast::TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                let (ltree, lbind) = self.bind_table_ref(left, outer)?;
                let (rtree, rbind) = self.bind_table_ref(right, outer)?;
                let mut bindings = lbind;
                bindings.extend(rbind);
                let join_kind = match kind {
                    ast::JoinKind::Inner => JoinKind::Inner,
                    ast::JoinKind::Cross => JoinKind::Cross,
                    ast::JoinKind::LeftOuter => JoinKind::LeftOuter,
                    // A RIGHT OUTER JOIN B ≡ B LEFT OUTER JOIN A.
                    ast::JoinKind::RightOuter => JoinKind::LeftOuter,
                };
                let (ltree, rtree) = if matches!(kind, ast::JoinKind::RightOuter) {
                    (rtree, ltree)
                } else {
                    (ltree, rtree)
                };
                let predicate = match on {
                    Some(e) => {
                        let scope = Scope {
                            bindings: bindings.clone(),
                            outer,
                        };
                        Some(self.bind_expr(e, &scope)?)
                    }
                    None => None,
                };
                Ok((
                    LogicalExpr::join(join_kind, ltree, rtree, predicate),
                    bindings,
                ))
            }
            ast::TableRef::Derived { query, alias } => {
                let (tree, output, _required) = self.bind_select_inner(query, None)?;
                let columns = output
                    .iter()
                    .map(|(name, id)| BoundColumn {
                        name: name.as_str().into(),
                        id: *id,
                        data_type: self.registry.meta(*id).data_type,
                    })
                    .collect();
                Ok((
                    tree,
                    vec![Binding {
                        alias: alias.as_str().into(),
                        columns,
                        table: None,
                    }],
                ))
            }
            ast::TableRef::OpenRowset {
                provider,
                datasource,
                query,
                alias,
            } => {
                let source = self.engine.open_ad_hoc(provider, datasource)?;
                let alias = alias
                    .clone()
                    .ok_or_else(|| DhqpError::Bind("OPENROWSET requires an alias".into()))?;
                self.materialize_pass_through(&source, None, query, &alias)
            }
            ast::TableRef::OpenQuery {
                server,
                query,
                alias,
            } => {
                let link = self.link(server)?;
                let alias = alias.clone().unwrap_or_else(|| server.clone());
                let source = Arc::clone(&link.pool) as Arc<dyn DataSource>;
                self.materialize_pass_through(&source, Some(&link.breaker), query, &alias)
            }
        }
    }

    /// Execute a pass-through command (or plain rowset open) on an
    /// autonomous source and bind the result as constant rows.
    ///
    /// Pass-through results are *values to the optimizer*: the provider's
    /// language is opaque (§3.3 "DHQP supports only pass-through queries
    /// against this provider"), so nothing can be pushed into it anyway.
    /// The read answers to `breaker`: an `OPENQUERY` linked server has
    /// one, an ad hoc `OPENROWSET` source none.
    fn materialize_pass_through(
        &mut self,
        source: &Arc<dyn DataSource>,
        breaker: Option<&Arc<Breaker>>,
        query: &str,
        alias: &str,
    ) -> Result<(LogicalExpr, Vec<Binding>)> {
        let has_command = source.capabilities().has_command();
        // Pass-through text we can prove is a read (or a plain table open)
        // may be re-sent on transient link faults; anything else runs once.
        let idempotent = !has_command || is_read_only(query);
        let policy = if idempotent {
            self.knobs.retry.clone()
        } else {
            RetryPolicy::no_retry()
        };
        let factory: ReopenFactory = {
            let source = Arc::clone(source);
            let query = query.to_string();
            Box::new(move || {
                let mut session = source.create_session()?;
                if has_command {
                    let mut cmd = session.create_command()?;
                    cmd.set_text(&query)?;
                    cmd.execute()?.into_rowset()
                } else {
                    // Simple provider: the "query" is a table name.
                    session.open_rowset(query.trim())
                }
            })
        };
        let pull = self.knobs.batch.batch_size;
        let mut rowset = RetryState::new(&policy, self.engine.counters())
            .gated(breaker.cloned())
            .rewind_by(pull)
            .open(factory)?;
        let schema = rowset.schema().clone();
        let rows: Vec<Vec<Value>> = rowset
            .collect_rows_batched(pull)?
            .into_iter()
            .map(|r| r.values)
            .collect();
        let alias: Arc<str> = alias.into();
        let mut columns = Vec::new();
        let mut bound_cols = Vec::new();
        for c in schema.columns() {
            let name: Arc<str> = c.name.as_str().into();
            let id = self.registry.allocate(
                Arc::clone(&name),
                Arc::clone(&alias),
                c.data_type,
                c.nullable,
            );
            columns.push(id);
            bound_cols.push(BoundColumn {
                name,
                id,
                data_type: c.data_type,
            });
        }
        let tree = LogicalExpr::new(
            LogicalOp::Values {
                columns,
                rows: Arc::new(rows),
            },
            vec![],
        );
        Ok((
            tree,
            vec![Binding {
                alias,
                columns: bound_cols,
                table: None,
            }],
        ))
    }

    fn bind_named_table(
        &mut self,
        name: &ast::ObjectName,
        alias: Option<&str>,
    ) -> Result<(LogicalExpr, Vec<Binding>)> {
        let table_name = name.object().to_string();
        let mut server = name.server().map(str::to_string);
        // A two-part `sys.<view>` name addresses the built-in DMV provider:
        // SQL Server's `sys` schema, served here as a linked server.
        if server.is_none() && name.0.len() == 2 && name.0[0].eq_ignore_ascii_case("sys") {
            server = Some(crate::dmv::SYS_SERVER.to_string());
        }
        // A one-part name may be a partitioned view.
        if server.is_none() && name.0.len() == 1 {
            if let Some(view) = self.engine.partitioned_view(&table_name) {
                return self.bind_partitioned_view(&view, alias);
            }
        }
        let alias = alias
            .map(str::to_string)
            .unwrap_or_else(|| table_name.clone());
        let meta = self.fetch_table_meta(server.as_deref(), &table_name, &alias)?;
        let binding = Binding::of_table(&meta);
        Ok((LogicalExpr::get(meta), vec![binding]))
    }

    /// A [`TableMeta`] over a table's shared catalog snapshot: the bind
    /// allocates only the reference's alias and fresh column ids.
    fn fetch_table_meta(
        &mut self,
        server: Option<&str>,
        table: &str,
        alias: &str,
    ) -> Result<Arc<TableMeta>> {
        let link = server.map(|s| self.link(s)).transpose()?;
        let fetched = self
            .engine
            .table_metadata(link.as_deref(), table, self.knobs.stats_ttl)?;
        let (source, caps) = match server.zip(link) {
            Some((name, link)) => {
                let at = fetched.fetched_at;
                self.stats_as_of = Some(self.stats_as_of.map_or(at, |prev| prev.min(at)));
                self.used_feedback |= fetched.feedback;
                (Locality::remote(name), Arc::clone(&link.caps))
            }
            None => (Locality::Local, self.engine.local_capabilities()),
        };
        Ok(Arc::new(self.table_meta(
            source,
            table,
            alias.into(),
            fetched.cardinality,
            fetched.catalog,
            caps,
        )))
    }

    /// One table reference: a fresh id and fresh column ids over `catalog`.
    fn table_meta(
        &mut self,
        source: Locality,
        table: &str,
        alias: Arc<str>,
        cardinality: Option<u64>,
        catalog: Arc<TableSnapshot>,
        caps: Arc<ProviderCapabilities>,
    ) -> TableMeta {
        let column_ids = catalog
            .schema
            .columns()
            .iter()
            .zip(&catalog.names)
            .map(|(c, name)| {
                self.registry.allocate(
                    Arc::clone(name),
                    Arc::clone(&alias),
                    c.data_type,
                    c.nullable,
                )
            })
            .collect();
        let id = self.next_table_id;
        self.next_table_id += 1;
        TableMeta {
            id,
            source,
            table: table.to_string(),
            alias,
            column_ids,
            cardinality,
            catalog,
            caps,
        }
    }

    /// Record what this bind assumes about member `i` of `view`: the stamp
    /// of its definition-time snapshot for providers that check it as part
    /// of the open, the full [`PartitionedView::validate_member`]
    /// comparison for those that cannot. A member the statement names twice
    /// (a self-join of the view) is expected once.
    ///
    /// [`PartitionedView::validate_member`]: dhqp_federation::PartitionedView::validate_member
    fn expect_member_schema(&mut self, view: &Arc<dhqp_federation::PartitionedView>, i: usize) {
        let member = &view.members[i];
        let (server, table) = (member.server.as_deref(), member.table.as_str());
        if self.view_members.iter().any(|m| m.is(server, table)) {
            return;
        }
        let view = Arc::clone(view);
        self.view_members.push(MemberSchema {
            server: member.server.clone(),
            table: member.table.clone(),
            stamp: member.schema_snapshot.schema_stamp(),
            validate: Box::new(move |current| view.validate_member(i, current)),
        });
    }

    /// Expand a partitioned view into `UnionAll` over member `Get`s, each
    /// carrying its CHECK domain for the constraint framework (§4.1.5).
    fn bind_partitioned_view(
        &mut self,
        view: &Arc<dhqp_federation::PartitionedView>,
        alias: Option<&str>,
    ) -> Result<(LogicalExpr, Vec<Binding>)> {
        let alias = alias
            .map(str::to_string)
            .unwrap_or_else(|| view.name.clone());
        let mut children = Vec::with_capacity(view.members.len());
        for (i, member) in view.members.iter().enumerate() {
            self.expect_member_schema(view, i);
            // Delayed schema validation (§4.1.5): compile against the
            // definition-time snapshot WITHOUT contacting the member; the
            // live check happens at execution, only for members the plan
            // actually touches. The snapshot carries the member's CHECK
            // range on the partitioning column. The member's server is
            // still resolved: the plan goes stale if it is replaced.
            let (source, caps) = match &member.server {
                None => (Locality::Local, self.engine.local_capabilities()),
                Some(srv) => (Locality::remote(srv), Arc::clone(&self.link(srv)?.caps)),
            };
            let meta = self.table_meta(
                source,
                &member.table,
                format!("{alias}__p{i}").into(),
                member.schema_snapshot.cardinality,
                Arc::clone(&view.catalogs[i]),
                caps,
            );
            children.push(LogicalExpr::get(Arc::new(meta)));
        }
        // The view's output columns.
        let first = &view.catalogs[0];
        let alias: Arc<str> = alias.into();
        let mut out_cols = Vec::new();
        let mut bound_cols = Vec::new();
        for (c, name) in first.schema.columns().iter().zip(&first.names) {
            let id = self.registry.allocate(
                Arc::clone(name),
                Arc::clone(&alias),
                c.data_type,
                c.nullable,
            );
            out_cols.push(id);
            bound_cols.push(BoundColumn {
                name: Arc::clone(name),
                id,
                data_type: c.data_type,
            });
        }
        let tree = LogicalExpr::new(LogicalOp::UnionAll { output: out_cols }, children);
        Ok((
            tree,
            vec![Binding {
                alias,
                columns: bound_cols,
                table: None,
            }],
        ))
    }

    // ------------------------------------------------------------------
    // WHERE-conjunct dispatch
    // ------------------------------------------------------------------

    fn bind_where_conjunct(
        &mut self,
        conj: ast::Expr,
        tree: LogicalExpr,
        scope: &Scope<'_>,
        filters: &mut Vec<ScalarExpr>,
    ) -> Result<LogicalExpr> {
        match conj {
            ast::Expr::Exists { subquery, negated } => {
                let kind = if negated {
                    JoinKind::Anti
                } else {
                    JoinKind::Semi
                };
                self.bind_subquery_join(tree, &subquery, kind, None, scope)
            }
            ast::Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                let probe = self.bind_expr(&expr, scope)?;
                let kind = if negated {
                    JoinKind::Anti
                } else {
                    JoinKind::Semi
                };
                self.bind_subquery_join(tree, &subquery, kind, Some(probe), scope)
            }
            other => {
                filters.push(self.bind_expr(&other, scope)?);
                Ok(tree)
            }
        }
    }

    /// EXISTS / IN subquery → semi or anti join (§4.1.4 unrolling).
    fn bind_subquery_join(
        &mut self,
        outer_tree: LogicalExpr,
        subquery: &ast::SelectStmt,
        kind: JoinKind,
        probe: Option<ScalarExpr>,
        scope: &Scope<'_>,
    ) -> Result<LogicalExpr> {
        let (sub_tree, sub_output, _) = self.bind_select_inner(subquery, Some(scope))?;
        // Split the subquery's own filters that reference outer columns into
        // join predicates (decorrelation). "Inner" means defined anywhere
        // inside the subquery tree.
        let sub_cols = all_defined_columns(&sub_tree);
        let (inner_tree, mut join_preds) = decorrelate(sub_tree, &sub_cols);
        if let Some(probe) = probe {
            let target = sub_output
                .first()
                .map(|(_, id)| *id)
                .ok_or_else(|| DhqpError::Bind("IN subquery selects no columns".into()))?;
            join_preds.push(ScalarExpr::eq(probe, ScalarExpr::Column(target)));
        }
        let predicate = ScalarExpr::and(join_preds);
        if predicate.is_none() && kind == JoinKind::Anti {
            // NOT EXISTS with no correlation: anti-join against everything.
            return Ok(LogicalExpr::join(kind, outer_tree, inner_tree, None));
        }
        Ok(LogicalExpr::join(kind, outer_tree, inner_tree, predicate))
    }

    /// `CONTAINS(column, 'query')` → `key IN (<hits>)`: the search service
    /// answers with the keys of the matching rows (§2.3, Fig. 2), and the
    /// relational side keeps the rows whose full-text key is one of them —
    /// a predicate like any other, pushed to the indexed table and, across
    /// an equi-join, to the other side (DESIGN.md §16).
    fn bind_contains(&mut self, args: &[ast::Expr], scope: &Scope<'_>) -> Result<ScalarExpr> {
        let [col_expr, ast::Expr::Literal(Value::Str(query))] = args else {
            return Err(DhqpError::Bind(
                "CONTAINS takes a column and a string literal".into(),
            ));
        };
        let ast::Expr::Column(parts) = col_expr else {
            return Err(DhqpError::Bind(
                "CONTAINS requires a plain column reference".into(),
            ));
        };
        let bound = scope.resolve(parts)?.clone();
        let binding = scope
            .table_of(bound.id)
            .ok_or_else(|| DhqpError::Bind("CONTAINS column must come from a base table".into()))?;
        let meta = binding.table.clone().ok_or_else(|| {
            DhqpError::Bind("CONTAINS requires a full-text indexed base table".into())
        })?;
        let (catalog, key_column) = self
            .engine
            .fulltext_binding(&meta.table, &bound.name)
            .ok_or_else(|| {
                DhqpError::Bind(format!(
                    "no full-text index on {}.{}",
                    meta.table, bound.name
                ))
            })?;
        let key_pos = meta.catalog.schema.index_of(&key_column).ok_or_else(|| {
            DhqpError::Bind(format!("full-text key column '{key_column}' missing"))
        })?;
        let hits = self.engine.fulltext_query(&catalog, query)?;
        Ok(ScalarExpr::InList {
            expr: Box::new(ScalarExpr::Column(meta.column_id(key_pos))),
            list: hits
                .into_iter()
                .map(|(k, _)| Value::Int(k as i64))
                .collect(),
            negated: false,
        })
    }

    // ------------------------------------------------------------------
    // aggregation
    // ------------------------------------------------------------------

    fn bind_aggregate(
        &mut self,
        stmt: &ast::SelectStmt,
        mut tree: LogicalExpr,
        scope: &Scope<'_>,
        agg_outputs: &mut Vec<(ast::Expr, ColumnId)>,
    ) -> Result<(LogicalExpr, Vec<ColumnId>, Vec<AggCall>)> {
        // Group-by expressions: plain columns used directly, computed
        // expressions pre-projected.
        let mut pre_project: Vec<(ColumnId, ScalarExpr)> = tree
            .output_columns()
            .into_iter()
            .map(|c| (c, ScalarExpr::Column(c)))
            .collect();
        let mut need_pre_project = false;
        let mut group_cols = Vec::new();
        for g in &stmt.group_by {
            let bound = self.bind_expr(g, scope)?;
            match bound {
                ScalarExpr::Column(id) => group_cols.push(id),
                computed => {
                    let ty = dhqp_optimizer::decoder::static_type(&computed, &self.registry)
                        .unwrap_or(DataType::Str);
                    let id =
                        self.registry
                            .allocate(format!("gexpr{}", group_cols.len()), "", ty, true);
                    pre_project.push((id, computed));
                    group_cols.push(id);
                    need_pre_project = true;
                }
            }
        }
        if need_pre_project {
            tree = tree.project(pre_project);
        }
        // Aggregate calls: collect from projections and HAVING.
        let mut calls: Vec<AggCall> = Vec::new();
        let collect = |binder: &mut Binder<'_>,
                       e: &ast::Expr,
                       calls: &mut Vec<AggCall>,
                       agg_outputs: &mut Vec<(ast::Expr, ColumnId)>|
         -> Result<()> {
            for agg_ast in find_aggregates(e) {
                if agg_outputs.iter().any(|(seen, _)| seen == &agg_ast) {
                    continue;
                }
                let (func, arg, distinct) = match &agg_ast {
                    ast::Expr::CountStar => (AggFunc::CountStar, None, false),
                    ast::Expr::Function {
                        name,
                        args,
                        distinct,
                    } => {
                        let func = match name.as_str() {
                            "COUNT" => AggFunc::Count,
                            "SUM" => AggFunc::Sum,
                            "MIN" => AggFunc::Min,
                            "MAX" => AggFunc::Max,
                            "AVG" => AggFunc::Avg,
                            other => {
                                return Err(DhqpError::Bind(format!("unknown aggregate '{other}'")))
                            }
                        };
                        let arg = args
                            .first()
                            .ok_or_else(|| DhqpError::Bind(format!("{name} requires an argument")))
                            .and_then(|a| binder.bind_expr(a, scope))?;
                        (func, Some(arg), *distinct)
                    }
                    other => return Err(DhqpError::Bind(format!("not an aggregate: {other:?}"))),
                };
                let ty = match func {
                    AggFunc::CountStar | AggFunc::Count => DataType::Int,
                    AggFunc::Avg => DataType::Float,
                    _ => arg
                        .as_ref()
                        .and_then(|a| dhqp_optimizer::decoder::static_type(a, &binder.registry))
                        .unwrap_or(DataType::Float),
                };
                let out = binder
                    .registry
                    .allocate(format!("agg{}", calls.len()), "", ty, true);
                calls.push(AggCall {
                    func,
                    arg,
                    distinct,
                    output: out,
                });
                agg_outputs.push((agg_ast, out));
            }
            Ok(())
        };
        for item in &stmt.projections {
            if let ast::SelectItem::Expr { expr, .. } = item {
                collect(self, expr, &mut calls, agg_outputs)?;
            }
        }
        if let Some(h) = &stmt.having {
            collect(self, h, &mut calls, agg_outputs)?;
        }
        tree = tree.aggregate(group_cols.clone(), calls.clone());
        Ok((tree, group_cols, calls))
    }

    /// Bind an expression in post-aggregate scope: aggregate sub-expressions
    /// resolve to their output columns; plain columns must be group columns.
    fn bind_agg_expr(
        &mut self,
        e: &ast::Expr,
        scope: &Scope<'_>,
        group_cols: &[ColumnId],
        agg_outputs: &[(ast::Expr, ColumnId)],
    ) -> Result<ScalarExpr> {
        if let Some((_, out)) = agg_outputs.iter().find(|(seen, _)| seen == e) {
            return Ok(ScalarExpr::Column(*out));
        }
        match e {
            ast::Expr::Column(_) => {
                let bound = self.bind_expr(e, scope)?;
                if let ScalarExpr::Column(id) = &bound {
                    if !group_cols.contains(id) {
                        return Err(DhqpError::Bind(format!(
                            "column {} must appear in GROUP BY or an aggregate",
                            self.registry.qualified_name(*id)
                        )));
                    }
                }
                Ok(bound)
            }
            ast::Expr::Binary { op, left, right } => {
                let l = self.bind_agg_expr(left, scope, group_cols, agg_outputs)?;
                let r = self.bind_agg_expr(right, scope, group_cols, agg_outputs)?;
                self.combine_binary(*op, l, r)
            }
            ast::Expr::Unary {
                op: ast::UnaryOp::Not,
                operand,
            } => Ok(ScalarExpr::Not(Box::new(self.bind_agg_expr(
                operand,
                scope,
                group_cols,
                agg_outputs,
            )?))),
            other => self.bind_expr(other, scope),
        }
    }

    // ------------------------------------------------------------------
    // scalar expression binding
    // ------------------------------------------------------------------

    fn bind_expr(&mut self, e: &ast::Expr, scope: &Scope<'_>) -> Result<ScalarExpr> {
        match e {
            ast::Expr::Literal(v) => Ok(ScalarExpr::Literal(v.clone())),
            ast::Expr::Column(parts) => Ok(ScalarExpr::Column(scope.resolve(parts)?.id)),
            ast::Expr::Param(p) => {
                let folded = self.fold_params.then(|| self.params.get(p)).flatten();
                Ok(match folded {
                    Some(v) => ScalarExpr::Literal(v.clone()),
                    None => ScalarExpr::Param(p.clone()),
                })
            }
            ast::Expr::Unary { op, operand } => {
                let inner = self.bind_expr(operand, scope)?;
                Ok(match op {
                    ast::UnaryOp::Not => ScalarExpr::Not(Box::new(inner)),
                    ast::UnaryOp::Neg => ScalarExpr::Arith {
                        op: ArithOp::Sub,
                        left: Box::new(ScalarExpr::literal(Value::Int(0))),
                        right: Box::new(inner),
                    },
                })
            }
            ast::Expr::Binary { op, left, right } => {
                let l = self.bind_expr(left, scope)?;
                let r = self.bind_expr(right, scope)?;
                self.combine_binary(*op, l, r)
            }
            ast::Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = self.bind_expr(expr, scope)?;
                let lo = self.bind_expr(low, scope)?;
                let hi = self.bind_expr(high, scope)?;
                let (v2, lo) = self.coerce_pair(v.clone(), lo);
                let (v3, hi) = self.coerce_pair(v2, hi);
                let range = ScalarExpr::And(vec![
                    ScalarExpr::cmp(CmpOp::Ge, v3.clone(), lo),
                    ScalarExpr::cmp(CmpOp::Le, v3, hi),
                ]);
                Ok(if *negated {
                    ScalarExpr::Not(Box::new(range))
                } else {
                    range
                })
            }
            ast::Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = self.bind_expr(expr, scope)?;
                let ast::Expr::Literal(Value::Str(p)) = pattern.as_ref() else {
                    return Err(DhqpError::Unsupported(
                        "LIKE patterns must be string literals".into(),
                    ));
                };
                Ok(ScalarExpr::Like {
                    expr: Box::new(v),
                    pattern: p.clone(),
                    negated: *negated,
                })
            }
            ast::Expr::IsNull { expr, negated } => Ok(ScalarExpr::IsNull {
                expr: Box::new(self.bind_expr(expr, scope)?),
                negated: *negated,
            }),
            ast::Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = self.bind_expr(expr, scope)?;
                let vtype = dhqp_optimizer::decoder::static_type(&v, &self.registry);
                let values = list
                    .iter()
                    .map(|item| match self.bind_expr(item, scope)? {
                        ScalarExpr::Literal(val) => Ok(coerce_literal(val, vtype)),
                        _ => Err(DhqpError::Unsupported(
                            "IN lists must contain literals".into(),
                        )),
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(ScalarExpr::InList {
                    expr: Box::new(v),
                    list: values.into(),
                    negated: *negated,
                })
            }
            ast::Expr::ScalarSubquery(sub) => {
                // Uncorrelated scalar subqueries evaluate eagerly at bind
                // time (documented substitution; correlated ones are
                // unsupported).
                let v = self
                    .engine
                    .evaluate_scalar_subquery(sub, self.params, &self.knobs)?;
                Ok(ScalarExpr::Literal(v))
            }
            ast::Expr::Exists { .. } | ast::Expr::InSubquery { .. } => Err(DhqpError::Unsupported(
                "EXISTS/IN subqueries are supported as top-level WHERE conjuncts".into(),
            )),
            ast::Expr::CountStar => Err(DhqpError::Bind(
                "COUNT(*) is only valid with GROUP BY context".into(),
            )),
            ast::Expr::Function { name, args, .. } => {
                if matches!(name.as_str(), "COUNT" | "SUM" | "MIN" | "MAX" | "AVG") {
                    return Err(DhqpError::Bind(format!(
                        "aggregate {name} not allowed here"
                    )));
                }
                if name == "CONTAINS" {
                    return self.bind_contains(args, scope);
                }
                let bound = args
                    .iter()
                    .map(|a| self.bind_expr(a, scope))
                    .collect::<Result<Vec<_>>>()?;
                Ok(ScalarExpr::Func {
                    name: name.clone(),
                    args: bound,
                })
            }
            ast::Expr::Cast { expr, type_name } => {
                let to = match type_name.to_ascii_uppercase().as_str() {
                    "INT" | "BIGINT" | "INTEGER" => DataType::Int,
                    "FLOAT" | "REAL" | "DOUBLE" => DataType::Float,
                    "VARCHAR" | "TEXT" | "CHAR" => DataType::Str,
                    "DATE" | "DATETIME" => DataType::Date,
                    "BIT" | "BOOL" | "BOOLEAN" => DataType::Bool,
                    other => {
                        return Err(DhqpError::Bind(format!("unknown type '{other}' in CAST")))
                    }
                };
                Ok(ScalarExpr::Cast {
                    expr: Box::new(self.bind_expr(expr, scope)?),
                    to,
                })
            }
        }
    }

    fn combine_binary(
        &mut self,
        op: ast::BinaryOp,
        l: ScalarExpr,
        r: ScalarExpr,
    ) -> Result<ScalarExpr> {
        use ast::BinaryOp as B;
        Ok(match op {
            B::And => ScalarExpr::and(vec![l, r]).expect("two operands"),
            B::Or => ScalarExpr::Or(vec![l, r]),
            B::Add | B::Sub | B::Mul | B::Div | B::Mod => {
                let aop = match op {
                    B::Add => ArithOp::Add,
                    B::Sub => ArithOp::Sub,
                    B::Mul => ArithOp::Mul,
                    B::Div => ArithOp::Div,
                    _ => ArithOp::Mod,
                };
                ScalarExpr::Arith {
                    op: aop,
                    left: Box::new(l),
                    right: Box::new(r),
                }
            }
            B::Eq | B::Neq | B::Lt | B::Le | B::Gt | B::Ge => {
                let cop = match op {
                    B::Eq => CmpOp::Eq,
                    B::Neq => CmpOp::Neq,
                    B::Lt => CmpOp::Lt,
                    B::Le => CmpOp::Le,
                    B::Gt => CmpOp::Gt,
                    _ => CmpOp::Ge,
                };
                let (l, r) = self.coerce_pair(l, r);
                ScalarExpr::cmp(cop, l, r)
            }
        })
    }

    /// Contextual literal coercion ([`coerce_literal`]) of both sides of a
    /// comparison.
    fn coerce_pair(&self, l: ScalarExpr, r: ScalarExpr) -> (ScalarExpr, ScalarExpr) {
        let lt = dhqp_optimizer::decoder::static_type(&l, &self.registry);
        let rt = dhqp_optimizer::decoder::static_type(&r, &self.registry);
        let coerce = |e: ScalarExpr, other: Option<DataType>| match e {
            ScalarExpr::Literal(v) => ScalarExpr::Literal(coerce_literal(v, other)),
            e => e,
        };
        (coerce(l, rt), coerce(r, lt))
    }
}

/// Metadata bundle fetched by the engine for one table: a handle on its
/// shared catalog snapshot, so a clone costs one reference count.
#[derive(Clone)]
pub struct FetchedTable {
    pub catalog: Arc<TableSnapshot>,
    /// The row count: live for a local table; as reported by TABLES_INFO
    /// (or corrected by feedback) for a remote one.
    pub cardinality: Option<u64>,
    /// When this bundle was fetched — drives the statistics-cache TTL and
    /// the statistics age `EXPLAIN ANALYZE` reports for cached plans.
    pub fetched_at: std::time::Instant,
    /// True when the bundle was written by the cardinality feedback loop
    /// (observed rows, not provider-advertised statistics).
    pub feedback: bool,
}

/// The one contextual literal coercion, for a comparison's operand and an
/// `IN` list's items alike: a string literal compared with a DATE becomes a
/// date literal (T-SQL behaviour the paper's examples rely on:
/// `L_COMMITDATE >= '1992-1-1'`). Every other literal keeps its type, so
/// `id IN (17.5)` matches exactly the rows `id = 17.5` does.
fn coerce_literal(v: Value, other: Option<DataType>) -> Value {
    match (&v, other) {
        (Value::Str(_), Some(DataType::Date)) => v.cast(DataType::Date).unwrap_or(v),
        _ => v,
    }
}
