//! The decoder: logical trees back into provider-dialect SQL (§4.1.3).
//!
//! "The decoder takes a logical query tree as its input and decodes it into
//! an equivalent SQL statement. [...] When composing the SQL statement, the
//! decoder responds to different parameter settings of the connection [...]
//! e.g. the SQL dialect the remote sources support."
//!
//! Capability gating follows §3.3's `DBPROP_SQLSUPPORT` levels: a
//! SQL-Minimum provider receives only single-table conjunctive selections;
//! ODBC-Core adds joins, ORDER BY and richer predicates; SQL-92 adds
//! grouping. Semi/anti joins are never decoded — "an abstract operator
//! (such as a semi-join) with no direct SQL corollary" (§4.1.4) — and when
//! one alternative of a memo group is undecodable the decoder simply tries
//! the group's other alternatives ("pick any remotable tree from the same
//! group").

use crate::logical::{JoinKind, LogicalOp, TableMeta};
use crate::memo::{GroupId, Memo};
use crate::physical::{RemoteParam, KEY_SET};
use crate::props::{ColumnId, ColumnRegistry};
use crate::scalar::{AggFunc, ScalarExpr};
use dhqp_oledb::{LimitSyntax, ProviderCapabilities, SqlSupport};
use dhqp_types::{DataType, Value};
use std::collections::{BTreeSet, HashMap};

/// A column restricted to one key (`= @__keys0`) or to all keys (`IN
/// (@__keys0)`) of a key-shipping request (see [`Decoder::build`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySet {
    One(ColumnId),
    All(ColumnId),
}

/// A fully rendered remote statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RemoteSql {
    pub sql: String,
    /// Parameters the statement references.
    pub params: Vec<RemoteParam>,
    /// Output columns, matching the group's canonical column order.
    pub columns: Vec<ColumnId>,
    /// `IN`-list literals the text carries outbound, for the cost model.
    pub keys: usize,
}

/// Partially composed SELECT; composable until an aggregate/limit forces a
/// derived-table wrap.
#[derive(Debug, Clone)]
struct SqlQuery {
    /// `(column id, SQL fragment)` — the SELECT list in child order.
    select: Vec<(ColumnId, String)>,
    from: String,
    wheres: Vec<String>,
    group_by: Vec<String>,
    aggregated: bool,
    /// `IN`-list literals the text carries.
    keys: usize,
}

impl SqlQuery {
    fn is_simple(&self) -> bool {
        !self.aggregated
    }

    fn fragment_of(&self, id: ColumnId) -> Option<&str> {
        self.select
            .iter()
            .find(|(c, _)| *c == id)
            .map(|(_, f)| f.as_str())
    }

    fn colmap(&self) -> HashMap<ColumnId, String> {
        self.select.iter().map(|(c, f)| (*c, f.clone())).collect()
    }

    /// Render as a complete SELECT with output columns aliased `c<id>`, in
    /// `order` (which must be a subset of the select list).
    fn render(
        &self,
        order: &[ColumnId],
        dialect: &dhqp_oledb::Dialect,
        top: Option<u64>,
        order_by: &[String],
    ) -> Option<String> {
        let mut sql = String::from("SELECT ");
        if let Some(n) = top {
            match dialect.limit_syntax {
                LimitSyntax::Top => sql.push_str(&format!("TOP {n} ")),
                LimitSyntax::Limit | LimitSyntax::None => {}
            }
        }
        for (i, id) in order.iter().enumerate() {
            if i > 0 {
                sql.push_str(", ");
            }
            let frag = self.fragment_of(*id)?;
            sql.push_str(&format!(
                "{frag} AS {}",
                dialect.quote_ident(&format!("c{}", id.0))
            ));
        }
        sql.push_str(" FROM ");
        sql.push_str(&self.from);
        if !self.wheres.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&self.wheres.join(" AND "));
        }
        if !self.group_by.is_empty() {
            sql.push_str(" GROUP BY ");
            sql.push_str(&self.group_by.join(", "));
        }
        if !order_by.is_empty() {
            sql.push_str(" ORDER BY ");
            sql.push_str(&order_by.join(", "));
        }
        if let (Some(n), LimitSyntax::Limit) = (top, dialect.limit_syntax) {
            sql.push_str(&format!(" LIMIT {n}"));
        }
        Some(sql)
    }
}

/// Decoder for one target server.
pub struct Decoder<'a> {
    memo: &'a Memo,
    caps: &'a ProviderCapabilities,
    server: &'a str,
    cache: HashMap<GroupId, Option<SqlQuery>>,
    scalars: ScalarRenderer<'a>,
    derived_counter: u32,
}

/// Scalar rendering for one provider: the part of the decoder that needs
/// no memo.
struct ScalarRenderer<'a> {
    caps: &'a ProviderCapabilities,
    /// Parameters the rendered text references.
    params: BTreeSet<String>,
}

impl<'a> Decoder<'a> {
    pub fn new(memo: &'a Memo, caps: &'a ProviderCapabilities, server: &'a str) -> Self {
        Decoder {
            memo,
            caps,
            server,
            cache: HashMap::new(),
            scalars: ScalarRenderer {
                caps,
                params: BTreeSet::new(),
            },
            derived_counter: 0,
        }
    }

    /// Build the complete remote statement for a group: the *build remote
    /// query* implementation rule's core. `key_set` restricts a column to
    /// the key-set parameter `@__keys0`, which a key-shipping operator binds
    /// at drive time: `= @__keys0` for one key per request, `IN (@__keys0)`
    /// for the whole set. The keys are not counted in `keys`, which the
    /// text does not carry.
    pub fn build(
        &mut self,
        group: GroupId,
        key_set: Option<KeySet>,
        ordering: &[(ColumnId, bool)],
        top: Option<u64>,
    ) -> Option<RemoteSql> {
        if self.caps.sql_support == SqlSupport::None || self.caps.proprietary_command {
            return None;
        }
        // SQL Minimum renders no `IN`, so it cannot take a whole key set.
        if matches!(key_set, Some(KeySet::All(_))) && self.caps.sql_support == SqlSupport::Minimum {
            return None;
        }
        let mut q = self.decode_group(group)?;
        let out_cols: Vec<ColumnId> = self.memo.group(group).props.columns.clone();
        let mut params = Vec::new();
        if let Some(key_set) = key_set {
            if !q.is_simple() {
                // The wrapped text is this statement's own, so its alias
                // need not stay unique across the statements built here.
                let mark = self.derived_counter;
                q = self.wrap(q)?;
                self.derived_counter = mark;
            }
            let restriction = match key_set {
                KeySet::One(probe) => format!("({} = @{KEY_SET})", q.fragment_of(probe)?),
                KeySet::All(probe) => format!("({} IN (@{KEY_SET}))", q.fragment_of(probe)?),
            };
            q.wheres.push(restriction);
            params.push(RemoteParam::KeySet);
        }
        let order_by: Vec<String> = if ordering.is_empty() {
            Vec::new()
        } else {
            if !self.caps.sql_support.supports_order_by() {
                return None;
            }
            let map = q.colmap();
            ordering
                .iter()
                .map(|(c, asc)| {
                    map.get(c)
                        .map(|f| format!("{f} {}", if *asc { "ASC" } else { "DESC" }))
                })
                .collect::<Option<Vec<_>>>()?
        };
        if top.is_some() && self.caps.dialect.limit_syntax == LimitSyntax::None {
            return None;
        }
        let sql = q.render(&out_cols, &self.caps.dialect, top, &order_by)?;
        params.extend(self.scalars.params.iter().cloned().map(RemoteParam::Query));
        Some(RemoteSql {
            sql,
            params,
            columns: out_cols,
            keys: q.keys,
        })
    }

    /// Decode a group by trying each logical alternative until one works —
    /// the §4.1.4 "pick any remotable tree from the same group" extension.
    fn decode_group(&mut self, group: GroupId) -> Option<SqlQuery> {
        if let Some(cached) = self.cache.get(&group) {
            return cached.clone();
        }
        // Mark in-progress to break any accidental cycles.
        self.cache.insert(group, None);
        let expr_ids = self.memo.group(group).exprs.clone();
        for eid in expr_ids {
            let mexpr = self.memo.expr(eid).clone();
            if let Some(q) = self.decode_expr(&mexpr.op, &mexpr.children) {
                self.cache.insert(group, Some(q.clone()));
                return Some(q);
            }
        }
        self.cache.insert(group, None);
        None
    }

    fn decode_expr(&mut self, op: &LogicalOp, children: &[GroupId]) -> Option<SqlQuery> {
        match op {
            LogicalOp::Get { meta, columns } => {
                if meta.source.server_name() != Some(self.server) {
                    return None;
                }
                let alias = format!("t{}", meta.id);
                let from = format!(
                    "{} AS {}",
                    self.caps.dialect.quote_ident(&meta.table),
                    self.caps.dialect.quote_ident(&alias)
                );
                let select = columns
                    .iter()
                    .map(|&c| {
                        let pos = meta.position_of(c)?;
                        let col_name = &meta.catalog.schema.column(pos).name;
                        Some((
                            c,
                            format!(
                                "{}.{}",
                                self.caps.dialect.quote_ident(&alias),
                                self.caps.dialect.quote_ident(col_name)
                            ),
                        ))
                    })
                    .collect::<Option<Vec<_>>>()?;
                Some(SqlQuery {
                    select,
                    from,
                    wheres: Vec::new(),
                    group_by: Vec::new(),
                    aggregated: false,
                    keys: 0,
                })
            }
            LogicalOp::Filter { predicate } => {
                let mut q = self.decode_group(children[0])?;
                if !q.is_simple() {
                    q = self.wrap(q)?;
                }
                let map = q.colmap();
                let frag = self.scalars.render_expr(predicate, &map)?;
                q.wheres.push(frag);
                q.keys += in_list_keys(predicate);
                Some(q)
            }
            LogicalOp::Project { outputs } => {
                let q = self.decode_group(children[0])?;
                let q = if q.is_simple() { q } else { self.wrap(q)? };
                let map = q.colmap();
                let select = outputs
                    .iter()
                    .map(|(c, e)| Some((*c, self.scalars.render_expr(e, &map)?)))
                    .collect::<Option<Vec<_>>>()?;
                let keys = q.keys + outputs.iter().map(|(_, e)| in_list_keys(e)).sum::<usize>();
                Some(SqlQuery { select, keys, ..q })
            }
            LogicalOp::Join { kind, predicate } => {
                if !self.caps.sql_support.supports_joins() {
                    return None;
                }
                let join_word = match kind {
                    JoinKind::Inner => "INNER JOIN",
                    JoinKind::Cross => "CROSS JOIN",
                    JoinKind::LeftOuter => "LEFT OUTER JOIN",
                    // No direct SQL corollary (§4.1.4) without correlated
                    // EXISTS rewriting, which we do not remote.
                    JoinKind::Semi | JoinKind::Anti => return None,
                };
                let l = self.decode_group(children[0])?;
                let r = self.decode_group(children[1])?;
                let l = if l.is_simple() { l } else { self.wrap(l)? };
                let mut r = if r.is_simple() { r } else { self.wrap(r)? };
                let mut select = l.select.clone();
                select.extend(r.select.iter().cloned());
                let full_map: HashMap<ColumnId, String> =
                    select.iter().map(|(c, f)| (*c, f.clone())).collect();
                let mut on = match predicate {
                    Some(p) => self.scalars.render_expr(p, &full_map)?,
                    None => "1 = 1".to_string(),
                };
                let mut wheres = l.wheres.clone();
                match kind {
                    JoinKind::LeftOuter => {
                        // Right-side residual predicates must join the ON
                        // clause to preserve outer-join semantics.
                        for w in r.wheres.drain(..) {
                            on = format!("{on} AND {w}");
                        }
                    }
                    _ => wheres.extend(r.wheres.iter().cloned()),
                }
                let from = if *kind == JoinKind::Cross && predicate.is_none() {
                    format!("{} CROSS JOIN {}", l.from, r.from)
                } else {
                    format!("{} {join_word} {} ON {on}", l.from, r.from)
                };
                Some(SqlQuery {
                    select,
                    from,
                    wheres,
                    group_by: Vec::new(),
                    aggregated: false,
                    keys: l.keys + r.keys + predicate.as_ref().map_or(0, in_list_keys),
                })
            }
            LogicalOp::Aggregate { group_by, aggs } => {
                if !self.caps.sql_support.supports_group_by() {
                    return None;
                }
                let q = self.decode_group(children[0])?;
                let q = if q.is_simple() { q } else { self.wrap(q)? };
                let map = q.colmap();
                let mut select = Vec::new();
                let mut group_frags = Vec::new();
                for g in group_by {
                    let frag = map.get(g)?.clone();
                    select.push((*g, frag.clone()));
                    group_frags.push(frag);
                }
                for agg in aggs {
                    let inner = match (&agg.func, &agg.arg) {
                        (AggFunc::CountStar, _) => "*".to_string(),
                        (_, Some(a)) => self.scalars.render_expr(a, &map)?,
                        (_, None) => return None,
                    };
                    let frag = format!(
                        "{}({}{inner})",
                        agg.func.sql_name(),
                        if agg.distinct { "DISTINCT " } else { "" }
                    );
                    select.push((agg.output, frag));
                }
                Some(SqlQuery {
                    select,
                    from: q.from,
                    wheres: q.wheres,
                    group_by: group_frags,
                    aggregated: true,
                    keys: q.keys
                        + aggs
                            .iter()
                            .filter_map(|a| a.arg.as_ref())
                            .map(in_list_keys)
                            .sum::<usize>(),
                })
            }
            // TOP inside a subtree needs a derived wrap; only supported at
            // statement root (handled by `build`). UnionAll members may live
            // on different servers, startup filters and empties are local by
            // nature, Values has no remote home.
            LogicalOp::Limit { .. }
            | LogicalOp::UnionAll { .. }
            | LogicalOp::StartupFilter { .. }
            | LogicalOp::EmptyGet { .. }
            | LogicalOp::Values { .. } => None,
        }
    }

    /// Wrap a query as a derived table (needs nested-SELECT support).
    fn wrap(&mut self, q: SqlQuery) -> Option<SqlQuery> {
        if !self.caps.dialect.nested_select {
            return None;
        }
        let cols: Vec<ColumnId> = q.select.iter().map(|(c, _)| *c).collect();
        let rendered = q.render(&cols, &self.caps.dialect, None, &[])?;
        self.derived_counter += 1;
        let alias = format!("d{}", self.derived_counter);
        let quoted = self.caps.dialect.quote_ident(&alias);
        let select = cols
            .iter()
            .map(|&c| {
                (
                    c,
                    format!(
                        "{quoted}.{}",
                        self.caps.dialect.quote_ident(&format!("c{}", c.0))
                    ),
                )
            })
            .collect();
        Some(SqlQuery {
            select,
            from: format!("({rendered}) AS {quoted}"),
            wheres: Vec::new(),
            group_by: Vec::new(),
            aggregated: false,
            keys: q.keys,
        })
    }
}

impl ScalarRenderer<'_> {
    /// Render a scalar expression, or `None` when the dialect/level cannot
    /// express it ("not overshooting its limitations", §3.3).
    fn render_expr(&mut self, e: &ScalarExpr, map: &HashMap<ColumnId, String>) -> Option<String> {
        let minimum = self.caps.sql_support == SqlSupport::Minimum;
        Some(match e {
            ScalarExpr::Literal(v) => self.caps.dialect.literal(v),
            ScalarExpr::Column(c) => map.get(c)?.clone(),
            ScalarExpr::Param(p) => {
                self.params.insert(p.clone());
                format!("@{p}")
            }
            ScalarExpr::Cmp { op, left, right } => format!(
                "({} {} {})",
                self.render_expr(left, map)?,
                op.sql_symbol(),
                self.render_expr(right, map)?
            ),
            ScalarExpr::Arith { op, left, right } => {
                if minimum {
                    return None;
                }
                format!(
                    "({} {} {})",
                    self.render_expr(left, map)?,
                    op.sql_symbol(),
                    self.render_expr(right, map)?
                )
            }
            ScalarExpr::And(list) => {
                let parts: Vec<String> = list
                    .iter()
                    .map(|p| self.render_expr(p, map))
                    .collect::<Option<_>>()?;
                format!("({})", parts.join(" AND "))
            }
            ScalarExpr::Or(list) => {
                if minimum {
                    return None;
                }
                let parts: Vec<String> = list
                    .iter()
                    .map(|p| self.render_expr(p, map))
                    .collect::<Option<_>>()?;
                format!("({})", parts.join(" OR "))
            }
            ScalarExpr::Not(inner) => {
                if minimum {
                    return None;
                }
                format!("NOT ({})", self.render_expr(inner, map)?)
            }
            ScalarExpr::IsNull { expr, negated } => {
                if minimum {
                    return None;
                }
                format!(
                    "({} IS {}NULL)",
                    self.render_expr(expr, map)?,
                    if *negated { "NOT " } else { "" }
                )
            }
            ScalarExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                if minimum {
                    return None;
                }
                format!(
                    "({} {}LIKE '{}')",
                    self.render_expr(expr, map)?,
                    if *negated { "NOT " } else { "" },
                    pattern.replace('\'', "''")
                )
            }
            ScalarExpr::InList {
                expr,
                list,
                negated,
            } => {
                if minimum {
                    return None;
                }
                let vals: Vec<String> = list.iter().map(|v| self.caps.dialect.literal(v)).collect();
                format!(
                    "({} {}IN ({}))",
                    self.render_expr(expr, map)?,
                    if *negated { "NOT " } else { "" },
                    vals.join(", ")
                )
            }
            ScalarExpr::Func { name, args } => {
                // Conservative whitelist of portable scalar functions.
                if minimum || !matches!(name.as_str(), "UPPER" | "LOWER" | "ABS" | "LEN") {
                    return None;
                }
                let parts: Vec<String> = args
                    .iter()
                    .map(|a| self.render_expr(a, map))
                    .collect::<Option<_>>()?;
                format!("{name}({})", parts.join(", "))
            }
            ScalarExpr::Cast { expr, to } => {
                if minimum {
                    return None;
                }
                format!(
                    "CAST({} AS {})",
                    self.render_expr(expr, map)?,
                    to.sql_name()
                )
            }
            // Startup predicates are evaluated by the local executor only.
            ScalarExpr::ParamInDomain { .. } => return None,
        })
    }
}

/// `IN`-list literals in `e`: what its rendered text sends outbound.
fn in_list_keys(e: &ScalarExpr) -> usize {
    let mut keys = 0;
    e.visit(&mut |node| {
        if let ScalarExpr::InList { list, .. } = node {
            keys += list.len();
        }
    });
    keys
}

/// Render `exprs`, scalar expressions over the columns of the one base
/// table `meta`, for the provider that owns it — the scalar half of *build
/// remote query*, for statements that name their table themselves (pushed
/// UPDATE/DELETE). A column is its bare quoted name. `None` when the
/// provider's level or dialect cannot express one of them, or when the text
/// would not read back as the same expression: an unbound parameter, a
/// boolean (rendered `0`/`1`), a float with no finite spelling, the one
/// integer whose magnitude has no literal.
pub fn render_table_scalars<'e>(
    meta: &TableMeta,
    exprs: impl IntoIterator<Item = &'e ScalarExpr>,
) -> Option<Vec<String>> {
    let dialect = &meta.caps.dialect;
    let names = meta.catalog.schema.columns().iter();
    let map: HashMap<ColumnId, String> = names
        .zip(&meta.column_ids)
        .map(|(column, id)| (*id, dialect.quote_ident(&column.name)))
        .collect();
    let mut scalars = ScalarRenderer {
        caps: &meta.caps,
        params: BTreeSet::new(),
    };
    let reads_back = |v: &Value| match v {
        Value::Bool(_) | Value::Int(i64::MIN) => false,
        Value::Float(f) => f.is_finite(),
        _ => true,
    };
    let mut rendered = Vec::new();
    for e in exprs {
        let mut exact = true;
        e.visit(&mut |node| match node {
            ScalarExpr::Literal(v) => exact &= reads_back(v),
            ScalarExpr::InList { list, .. } => exact &= list.iter().all(reads_back),
            _ => {}
        });
        if !exact {
            return None;
        }
        rendered.push(scalars.render_expr(e, &map)?);
    }
    scalars.params.is_empty().then_some(rendered)
}

/// Data type of a scalar expression where statically known (used by the
/// binder and the remote-param machinery).
pub fn static_type(e: &ScalarExpr, registry: &ColumnRegistry) -> Option<DataType> {
    match e {
        ScalarExpr::Literal(v) => v.data_type(),
        ScalarExpr::Column(c) => Some(registry.meta(*c).data_type),
        ScalarExpr::Cast { to, .. } => Some(*to),
        ScalarExpr::Cmp { .. }
        | ScalarExpr::And(_)
        | ScalarExpr::Or(_)
        | ScalarExpr::Not(_)
        | ScalarExpr::IsNull { .. }
        | ScalarExpr::Like { .. }
        | ScalarExpr::InList { .. }
        | ScalarExpr::ParamInDomain { .. } => Some(DataType::Bool),
        ScalarExpr::Arith { left, right, .. } => {
            match (static_type(left, registry), static_type(right, registry)) {
                (Some(DataType::Float), _) | (_, Some(DataType::Float)) => Some(DataType::Float),
                (Some(DataType::Date), _) => Some(DataType::Date),
                (Some(t), _) => Some(t),
                _ => None,
            }
        }
        ScalarExpr::Param(_) | ScalarExpr::Func { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{test_table_meta, Locality, LogicalExpr, TableMeta};
    use crate::scalar::CmpOp;
    use std::sync::Arc;

    fn remote_pair() -> (
        ColumnRegistry,
        Memo,
        GroupId,
        Arc<TableMeta>,
        Arc<TableMeta>,
    ) {
        let mut reg = ColumnRegistry::new();
        let c = test_table_meta(
            0,
            "customer",
            Locality::remote("remote0"),
            &[("c_custkey", DataType::Int), ("c_nationkey", DataType::Int)],
            &mut reg,
            1500,
        );
        let s = test_table_meta(
            1,
            "supplier",
            Locality::remote("remote0"),
            &[("s_suppkey", DataType::Int), ("s_nationkey", DataType::Int)],
            &mut reg,
            100,
        );
        let tree = LogicalExpr::join(
            JoinKind::Inner,
            LogicalExpr::get(Arc::clone(&c)),
            LogicalExpr::get(Arc::clone(&s)),
            Some(ScalarExpr::eq(
                ScalarExpr::Column(c.column_id(1)),
                ScalarExpr::Column(s.column_id(1)),
            )),
        );
        let mut memo = Memo::new();
        let root = memo.insert_tree(&tree, &reg);
        (reg, memo, root, c, s)
    }

    #[test]
    fn decodes_paper_join_to_sql() {
        let (_, memo, root, ..) = remote_pair();
        let caps = ProviderCapabilities::sql_server("SQLOLEDB");
        let mut d = Decoder::new(&memo, &caps, "remote0");
        let out = d.build(root, None, &[], None).unwrap();
        assert_eq!(
            out.sql,
            "SELECT [t0].[c_custkey] AS [c0], [t0].[c_nationkey] AS [c1], \
             [t1].[s_suppkey] AS [c2], [t1].[s_nationkey] AS [c3] \
             FROM [customer] AS [t0] INNER JOIN [supplier] AS [t1] \
             ON ([t0].[c_nationkey] = [t1].[s_nationkey])"
        );
        assert_eq!(out.columns.len(), 4);
        assert!(out.params.is_empty());
    }

    #[test]
    fn minimum_level_rejects_joins_but_takes_simple_filters() {
        let (reg, memo, root, c, _) = remote_pair();
        let mut caps = ProviderCapabilities::sql_server("EXCELISH");
        caps.sql_support = SqlSupport::Minimum;
        let mut d = Decoder::new(&memo, &caps, "remote0");
        assert!(
            d.build(root, None, &[], None).is_none(),
            "joins exceed SQL Minimum"
        );

        // A single-table select with a simple comparison decodes.
        let mut memo2 = Memo::new();
        let filter = LogicalExpr::get(Arc::clone(&c)).filter(ScalarExpr::cmp(
            CmpOp::Gt,
            ScalarExpr::Column(c.column_id(0)),
            ScalarExpr::literal(Value::Int(10)),
        ));
        let g = memo2.insert_tree(&filter, &reg);
        let mut d = Decoder::new(&memo2, &caps, "remote0");
        let out = d.build(g, None, &[], None).unwrap();
        assert!(out.sql.contains("WHERE ([t0].[c_custkey] > 10)"));

        // ...but an OR predicate exceeds Minimum.
        let mut memo3 = Memo::new();
        let or_filter = LogicalExpr::get(Arc::clone(&c)).filter(ScalarExpr::Or(vec![
            ScalarExpr::eq(
                ScalarExpr::Column(c.column_id(0)),
                ScalarExpr::literal(Value::Int(1)),
            ),
            ScalarExpr::eq(
                ScalarExpr::Column(c.column_id(0)),
                ScalarExpr::literal(Value::Int(2)),
            ),
        ]));
        let g3 = memo3.insert_tree(&or_filter, &reg);
        let mut d = Decoder::new(&memo3, &caps, "remote0");
        assert!(d.build(g3, None, &[], None).is_none());
    }

    #[test]
    fn wrong_server_does_not_decode() {
        let (_, memo, root, ..) = remote_pair();
        let caps = ProviderCapabilities::sql_server("SQLOLEDB");
        let mut d = Decoder::new(&memo, &caps, "other-server");
        assert!(d.build(root, None, &[], None).is_none());
    }

    #[test]
    fn one_key_per_request_is_an_equality_even_at_sql_minimum() {
        let (reg, memo, root, c, _) = remote_pair();
        let mut caps = ProviderCapabilities::sql_server("SQLOLEDB");
        let one = Some(KeySet::One(c.column_id(0)));
        let out = Decoder::new(&memo, &caps, "remote0")
            .build(root, one, &[], None)
            .unwrap();
        assert!(out.sql.contains("([t0].[c_custkey] = @__keys0)"));
        assert_eq!(out.params, [RemoteParam::KeySet]);
        // SQL Minimum has no IN, but it has `=`.
        caps.sql_support = SqlSupport::Minimum;
        let mut memo = Memo::new();
        let get = memo.insert_tree(&LogicalExpr::get(Arc::clone(&c)), &reg);
        let out = Decoder::new(&memo, &caps, "remote0")
            .build(get, one, &[], None)
            .unwrap();
        assert!(
            out.sql.ends_with("WHERE ([t0].[c_custkey] = @__keys0)"),
            "{}",
            out.sql
        );
    }

    #[test]
    fn ordering_and_top_render() {
        let (_, memo, root, c, _) = remote_pair();
        let caps = ProviderCapabilities::sql_server("SQLOLEDB");
        let mut d = Decoder::new(&memo, &caps, "remote0");
        let out = d
            .build(root, None, &[(c.column_id(0), false)], Some(10))
            .unwrap();
        assert!(out.sql.starts_with("SELECT TOP 10 "));
        assert!(out.sql.ends_with("ORDER BY [t0].[c_custkey] DESC"));
    }

    #[test]
    fn aggregate_requires_sql92() {
        let mut reg = ColumnRegistry::new();
        let t = test_table_meta(
            0,
            "orders",
            Locality::remote("r"),
            &[("o_k", DataType::Int)],
            &mut reg,
            100,
        );
        let out_col = reg.allocate("cnt", "", DataType::Int, false);
        let agg = LogicalExpr::get(Arc::clone(&t)).aggregate(
            vec![t.column_id(0)],
            vec![crate::scalar::AggCall {
                func: AggFunc::CountStar,
                arg: None,
                distinct: false,
                output: out_col,
            }],
        );
        let mut memo = Memo::new();
        let g = memo.insert_tree(&agg, &reg);
        let caps = ProviderCapabilities::sql_server("SQLOLEDB");
        let mut d = Decoder::new(&memo, &caps, "r");
        let out = d.build(g, None, &[], None).unwrap();
        assert!(out.sql.contains("GROUP BY [t0].[o_k]"));
        assert!(out.sql.contains("COUNT(*) AS [c1]"));

        let mut odbc = caps.clone();
        odbc.sql_support = SqlSupport::OdbcCore;
        let mut d = Decoder::new(&memo, &odbc, "r");
        assert!(
            d.build(g, None, &[], None).is_none(),
            "GROUP BY exceeds ODBC Core"
        );
    }

    #[test]
    fn semi_join_has_no_sql_corollary() {
        let mut reg = ColumnRegistry::new();
        let a = test_table_meta(
            0,
            "a",
            Locality::remote("r"),
            &[("x", DataType::Int)],
            &mut reg,
            10,
        );
        let b = test_table_meta(
            1,
            "b",
            Locality::remote("r"),
            &[("y", DataType::Int)],
            &mut reg,
            10,
        );
        let semi = LogicalExpr::join(
            JoinKind::Semi,
            LogicalExpr::get(Arc::clone(&a)),
            LogicalExpr::get(b),
            Some(ScalarExpr::eq(
                ScalarExpr::Column(a.column_id(0)),
                ScalarExpr::Column(ColumnId(1)),
            )),
        );
        let mut memo = Memo::new();
        let g = memo.insert_tree(&semi, &reg);
        let caps = ProviderCapabilities::sql_server("SQLOLEDB");
        let mut d = Decoder::new(&memo, &caps, "r");
        assert!(d.build(g, None, &[], None).is_none());
    }

    #[test]
    fn decoder_picks_a_remotable_alternative_from_the_group() {
        // First alternative in the group is a semi join (not decodable);
        // a second, decodable inner-join alternative is inserted by hand —
        // the §4.1.4 framework extension lets the decoder use it.
        let (reg, _, _, c, s) = remote_pair();
        let semi = LogicalExpr::join(
            JoinKind::Semi,
            LogicalExpr::get(Arc::clone(&c)),
            LogicalExpr::get(Arc::clone(&s)),
            Some(ScalarExpr::eq(
                ScalarExpr::Column(c.column_id(1)),
                ScalarExpr::Column(s.column_id(1)),
            )),
        );
        let mut memo = Memo::new();
        let root = memo.insert_tree(&semi, &reg);
        let caps = ProviderCapabilities::sql_server("SQLOLEDB");
        let mut d = Decoder::new(&memo, &caps, "remote0");
        assert!(
            d.build(root, None, &[], None).is_none(),
            "semi join alone is undecodable"
        );

        // Insert an inner-join alternative into the same group (the test
        // stands in for a rule that produced it).
        let root_expr = memo.expr(memo.group(root).exprs[0]).clone();
        let LogicalOp::Join { predicate, .. } = &root_expr.op else {
            panic!("join")
        };
        memo.insert_alternative(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                predicate: predicate.clone(),
            },
            root_expr.children.clone(),
            root,
        )
        .expect("new alternative");
        let mut d = Decoder::new(&memo, &caps, "remote0");
        let out = d
            .build(root, None, &[], None)
            .expect("second alternative decodes");
        assert!(out.sql.contains("INNER JOIN"));
    }

    #[test]
    fn keys_count_only_the_in_lists_the_text_carries() {
        let (reg, _, _, c, _) = remote_pair();
        let key = || ScalarExpr::Column(c.column_id(0));
        let in_list = |keys: &[i64]| ScalarExpr::InList {
            expr: Box::new(key()),
            list: keys
                .iter()
                .map(|&k| Value::Int(k))
                .collect::<Vec<_>>()
                .into(),
            negated: false,
        };
        // An IN-list ORed with a function no provider is sent: the first
        // alternative renders the list, then fails.
        let soundex = ScalarExpr::Func {
            name: "SOUNDEX".into(),
            args: vec![ScalarExpr::Column(c.column_id(1))],
        };
        let unrenderable = ScalarExpr::Or(vec![
            in_list(&[1, 2, 3]),
            ScalarExpr::eq(soundex, ScalarExpr::literal(Value::Int(0))),
        ]);
        let mut memo = Memo::new();
        let root = memo.insert_tree(&LogicalExpr::get(Arc::clone(&c)).filter(unrenderable), &reg);
        let caps = ProviderCapabilities::sql_server("SQLOLEDB");
        assert!(Decoder::new(&memo, &caps, "remote0")
            .build(root, None, &[], None)
            .is_none());
        // The alternative that decodes carries no list, so nothing is counted ...
        let children = memo.expr(memo.group(root).exprs[0]).children.clone();
        let gt = ScalarExpr::cmp(CmpOp::Gt, key(), ScalarExpr::literal(Value::Int(10)));
        memo.insert_alternative(LogicalOp::Filter { predicate: gt }, children, root)
            .expect("new alternative");
        let mut d = Decoder::new(&memo, &caps, "remote0");
        let out = d.build(root, None, &[], None).unwrap();
        assert!(!out.sql.contains(" IN "), "{}", out.sql);
        assert_eq!(out.keys, 0);
        // ... and a list the text does carry is.
        let mut memo = Memo::new();
        let listed = LogicalExpr::get(Arc::clone(&c)).filter(in_list(&[4, 5]));
        let root = memo.insert_tree(&listed, &reg);
        let out = Decoder::new(&memo, &caps, "remote0")
            .build(root, None, &[], None)
            .unwrap();
        assert!(out.sql.contains("IN (4, 5)"), "{}", out.sql);
        assert_eq!(out.keys, 2);
    }

    #[test]
    fn a_key_set_restricts_the_probe_column_and_adds_no_keys() {
        let (mut reg, _, _, c, _) = remote_pair();
        let listed = ScalarExpr::InList {
            expr: Box::new(ScalarExpr::Column(c.column_id(1))),
            list: vec![Value::Int(1), Value::Int(2), Value::Int(3)].into(),
            negated: false,
        };
        let mut memo = Memo::new();
        let root = memo.insert_tree(&LogicalExpr::get(Arc::clone(&c)).filter(listed), &reg);
        let caps = ProviderCapabilities::sql_server("SQLOLEDB");
        let mut d = Decoder::new(&memo, &caps, "remote0");
        let base = d.build(root, None, &[], None).unwrap();
        let reduced = d
            .build(root, Some(KeySet::All(c.column_id(0))), &[], None)
            .unwrap();
        assert_eq!(
            reduced.sql,
            format!("{} AND ([t0].[c_custkey] IN (@__keys0))", base.sql)
        );
        // The placeholder carries no literal: costing sees the base's keys.
        assert_eq!((base.keys, reduced.keys), (3, 3));
        assert_eq!(reduced.params, [RemoteParam::KeySet]);

        // SQL Minimum has no IN.
        let mut minimum = caps.clone();
        minimum.sql_support = SqlSupport::Minimum;
        let mut memo = Memo::new();
        let get = memo.insert_tree(&LogicalExpr::get(Arc::clone(&c)), &reg);
        let mut d = Decoder::new(&memo, &minimum, "remote0");
        assert!(d.build(get, None, &[], None).is_some());
        assert!(d
            .build(get, Some(KeySet::All(c.column_id(0))), &[], None)
            .is_none());

        // An aggregated probe side is restricted from outside a derived
        // table, which a provider without nested selects cannot read.
        let cnt = reg.allocate("cnt", "", DataType::Int, false);
        let agg = LogicalExpr::get(Arc::clone(&c)).aggregate(
            vec![c.column_id(0)],
            vec![crate::scalar::AggCall {
                func: AggFunc::CountStar,
                arg: None,
                distinct: false,
                output: cnt,
            }],
        );
        let mut memo = Memo::new();
        let g = memo.insert_tree(&agg, &reg);
        let mut d = Decoder::new(&memo, &caps, "remote0");
        let out = d
            .build(g, Some(KeySet::All(c.column_id(0))), &[], None)
            .unwrap();
        assert!(
            out.sql
                .ends_with(") AS [d1] WHERE ([d1].[c0] IN (@__keys0))"),
            "{}",
            out.sql
        );
        let mut flat = caps.clone();
        flat.dialect.nested_select = false;
        let mut d = Decoder::new(&memo, &flat, "remote0");
        assert!(d.build(g, None, &[], None).is_some());
        assert!(d
            .build(g, Some(KeySet::All(c.column_id(0))), &[], None)
            .is_none());
    }

    #[test]
    fn table_scalars_use_bare_column_names_and_read_back_exactly() {
        let mut reg = ColumnRegistry::new();
        let columns = [("id", DataType::Int), ("owner", DataType::Str)];
        let t = test_table_meta(0, "acct", Locality::remote("r"), &columns, &mut reg, 10);
        let (id, owner) = (t.column_id(0), t.column_id(1));
        let lit = |v| ScalarExpr::literal(v);
        let exprs = [
            ScalarExpr::eq(ScalarExpr::Column(owner), lit(Value::Str("O'Brien".into()))),
            ScalarExpr::InList {
                expr: Box::new(ScalarExpr::Column(id)),
                list: vec![Value::Int(-3), Value::Float(0.125), Value::Float(2.0)].into(),
                negated: false,
            },
        ];
        assert_eq!(
            render_table_scalars(&t, &exprs).unwrap(),
            ["([owner] = 'O''Brien')", "([id] IN (-3, 0.125, 2.0))"]
        );
        // The provider's level still applies ...
        let mut minimum = TableMeta::clone(&t);
        Arc::make_mut(&mut minimum.caps).sql_support = SqlSupport::Minimum;
        assert_eq!(render_table_scalars(&minimum, &exprs[1..]), None);
        assert!(render_table_scalars(&minimum, &exprs[..1]).is_some());
        // ... a column of another table has no name here, and text that
        // would not read back as the same expression is not written.
        for e in [
            ScalarExpr::Column(ColumnId(99)),
            ScalarExpr::Param("p".into()),
            lit(Value::Bool(true)),
            lit(Value::Float(f64::NAN)),
            lit(Value::Int(i64::MIN)),
            ScalarExpr::InList {
                expr: Box::new(ScalarExpr::Column(id)),
                list: vec![Value::Bool(false)].into(),
                negated: true,
            },
        ] {
            assert_eq!(render_table_scalars(&t, [&e]), None, "{e:?}");
        }
    }

    #[test]
    fn date_literals_follow_dialect() {
        let mut reg = ColumnRegistry::new();
        let t = test_table_meta(
            0,
            "l",
            Locality::remote("r"),
            &[("d", DataType::Date)],
            &mut reg,
            10,
        );
        let pred = ScalarExpr::cmp(
            CmpOp::Ge,
            ScalarExpr::Column(t.column_id(0)),
            ScalarExpr::literal(Value::Date(
                dhqp_types::value::parse_date("1992-01-01").unwrap(),
            )),
        );
        let tree = LogicalExpr::get(Arc::clone(&t)).filter(pred);
        let mut memo = Memo::new();
        let g = memo.insert_tree(&tree, &reg);
        let mut caps = ProviderCapabilities::sql_server("ORAOLEDB");
        caps.dialect.date_literal = dhqp_oledb::capabilities::DateLiteralStyle::Keyword;
        let mut d = Decoder::new(&memo, &caps, "r");
        let out = d.build(g, None, &[], None).unwrap();
        assert!(out.sql.contains("DATE '1992-01-01'"), "{}", out.sql);
    }
}
