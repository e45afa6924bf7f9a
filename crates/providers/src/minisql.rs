//! A desktop-DBMS provider (the Microsoft Access stand-in): a *SQL
//! provider* in the §3.3 sense, but a limited one. Its command object
//! interprets a restricted dialect directly over its own storage:
//!
//! * `SqlSupport::Minimum` — single-table SELECT, conjunctive comparison
//!   predicates, projection.
//! * `SqlSupport::OdbcCore` — adds inner joins (comma or ANSI), ORDER BY,
//!   TOP, IN/BETWEEN/LIKE/IS NULL.
//!
//! No GROUP BY, no subqueries, no derived tables — the DHQP's decoder must
//! not overshoot these limits, and tests verify the provider rejects what
//! its advertised level excludes.

use dhqp_oledb::{
    ColumnInfo, Command, CommandResult, DataSource, KeyRange, MemRowset, ProviderCapabilities,
    Rowset, Session, SqlSupport, TableInfo,
};
use dhqp_sqlfront::{
    parse_statement, BinaryOp, Expr, JoinKind, SelectItem, SelectStmt, Statement, TableRef, UnaryOp,
};
use dhqp_storage::StorageEngine;
use dhqp_types::{value::like_match, Column, DhqpError, Result, Row, Schema, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// A provider with a restricted SQL interpreter over a private storage
/// engine.
pub struct MiniSqlProvider {
    name: String,
    engine: Arc<StorageEngine>,
    level: SqlSupport,
}

impl MiniSqlProvider {
    /// `level` must be `Minimum` or `OdbcCore`; full SQL-92 sources are the
    /// engine-wrapping provider in the core crate.
    pub fn new(
        name: impl Into<String>,
        engine: Arc<StorageEngine>,
        level: SqlSupport,
    ) -> Result<Self> {
        if !matches!(level, SqlSupport::Minimum | SqlSupport::OdbcCore) {
            return Err(DhqpError::Provider(
                "MiniSqlProvider supports SQL Minimum or ODBC Core levels only".into(),
            ));
        }
        Ok(MiniSqlProvider {
            name: name.into(),
            engine,
            level,
        })
    }

    pub fn engine(&self) -> &Arc<StorageEngine> {
        &self.engine
    }
}

impl DataSource for MiniSqlProvider {
    fn name(&self) -> &str {
        &self.name
    }

    fn capabilities(&self) -> ProviderCapabilities {
        ProviderCapabilities {
            provider_name: "DHQP-JET".into(),
            sql_support: self.level,
            proprietary_command: false,
            index_support: false,
            statistics_support: false,
            transaction_support: false,
            dialect: dhqp_oledb::Dialect {
                // Access-style brackets, no nested SELECT support.
                nested_select: false,
                ..Default::default()
            },
            latency_hint_us: 300,
        }
    }

    fn tables(&self) -> Result<Vec<TableInfo>> {
        let mut out = Vec::new();
        for name in self.engine.table_names() {
            let info = self.engine.with_table(&name, |t| TableInfo {
                name: t.name.clone(),
                columns: t
                    .schema
                    .columns()
                    .iter()
                    .map(|c| ColumnInfo {
                        name: c.name.clone(),
                        data_type: c.data_type,
                        nullable: c.nullable,
                    })
                    .collect(),
                indexes: Vec::new(),
                cardinality: Some(t.row_count()),
            })?;
            out.push(info);
        }
        Ok(out)
    }

    fn create_session(&self) -> Result<Box<dyn Session>> {
        Ok(Box::new(MiniSession {
            engine: Arc::clone(&self.engine),
            level: self.level,
        }))
    }
}

struct MiniSession {
    engine: Arc<StorageEngine>,
    level: SqlSupport,
}

impl Session for MiniSession {
    fn open_rowset(&mut self, table: &str) -> Result<Box<dyn Rowset>> {
        let (schema, rows) = self
            .engine
            .with_table(table, |t| (t.schema.clone(), t.scan_rows()))?;
        Ok(Box::new(MemRowset::new(schema, rows)))
    }

    fn open_index(
        &mut self,
        _table: &str,
        _index: &str,
        _range: &KeyRange,
    ) -> Result<Box<dyn Rowset>> {
        Err(DhqpError::Unsupported(
            "MiniSqlProvider exposes no indexes".into(),
        ))
    }

    fn create_command(&mut self) -> Result<Box<dyn Command>> {
        Ok(Box::new(MiniCommand {
            engine: Arc::clone(&self.engine),
            level: self.level,
            text: None,
        }))
    }
}

struct MiniCommand {
    engine: Arc<StorageEngine>,
    level: SqlSupport,
    text: Option<String>,
}

impl Command for MiniCommand {
    fn set_text(&mut self, text: &str) -> Result<()> {
        self.text = Some(text.to_string());
        Ok(())
    }

    fn execute(&mut self) -> Result<CommandResult> {
        let text = self
            .text
            .as_deref()
            .ok_or_else(|| DhqpError::Provider("command has no text".into()))?;
        let stmt = parse_statement(text)?;
        let Statement::Select(select) = stmt else {
            return Err(DhqpError::Unsupported(
                "MiniSqlProvider executes SELECT only".into(),
            ));
        };
        let rowset = Interpreter {
            engine: &self.engine,
            level: self.level,
        }
        .run(&select)?;
        Ok(CommandResult::Rowset(rowset))
    }
}

/// One FROM-clause binding: alias + schema + materialized rows.
struct Binding {
    alias: String,
    schema: Schema,
    rows: Vec<Row>,
}

struct Interpreter<'a> {
    engine: &'a StorageEngine,
    level: SqlSupport,
}

impl<'a> Interpreter<'a> {
    fn run(&self, select: &SelectStmt) -> Result<Box<dyn Rowset>> {
        if !select.group_by.is_empty() || select.having.is_some() || select.distinct {
            return Err(DhqpError::Unsupported(
                "provider does not support GROUP BY/HAVING/DISTINCT".into(),
            ));
        }
        if !select.union_branches.is_empty() {
            return Err(DhqpError::Unsupported(
                "provider does not support UNION".into(),
            ));
        }
        if select.from.is_empty() {
            return Err(DhqpError::Unsupported(
                "provider requires a FROM clause".into(),
            ));
        }
        // Flatten FROM into bindings + join predicates.
        let mut bindings = Vec::new();
        let mut predicates = Vec::new();
        for r in &select.from {
            self.flatten(r, &mut bindings, &mut predicates)?;
        }
        if bindings.len() > 1 && !self.level.supports_joins() {
            return Err(DhqpError::Unsupported(
                "provider does not support joins".into(),
            ));
        }
        if let Some(w) = &select.where_clause {
            self.check_level(w)?;
            predicates.push(w.clone());
        }
        if !select.order_by.is_empty() && !self.level.supports_order_by() {
            return Err(DhqpError::Unsupported(
                "provider does not support ORDER BY".into(),
            ));
        }

        // Nested-loop evaluation over the cartesian space with all
        // predicates applied (good enough for a desktop-DBMS stand-in).
        let env_schema: Vec<(String, Schema)> = bindings
            .iter()
            .map(|b| (b.alias.clone(), b.schema.clone()))
            .collect();
        let mut current: Vec<Row> = vec![Row::new(vec![])];
        for b in &bindings {
            let mut next = Vec::new();
            for partial in &current {
                for row in &b.rows {
                    next.push(partial.join(row));
                }
            }
            current = next;
        }
        let mut kept = Vec::new();
        'rows: for row in current {
            for p in &predicates {
                if eval_bool(p, &env_schema, &row)? != Some(true) {
                    continue 'rows;
                }
            }
            kept.push(row);
        }

        // ORDER BY before projection (keys refer to base columns).
        if !select.order_by.is_empty() {
            let mut keyed: Vec<(Vec<Value>, Row)> = kept
                .into_iter()
                .map(|row| {
                    let keys = select
                        .order_by
                        .iter()
                        .map(|item| eval_expr(&item.expr, &env_schema, &row))
                        .collect::<Result<Vec<_>>>()?;
                    Ok((keys, row))
                })
                .collect::<Result<Vec<_>>>()?;
            keyed.sort_by(|(ka, _), (kb, _)| {
                for (i, item) in select.order_by.iter().enumerate() {
                    let o = ka[i].total_cmp(&kb[i]);
                    if o != Ordering::Equal {
                        return if item.ascending { o } else { o.reverse() };
                    }
                }
                Ordering::Equal
            });
            kept = keyed.into_iter().map(|(_, r)| r).collect();
        }
        if let Some(n) = select.top {
            kept.truncate(n as usize);
        }

        // Projection.
        let mut out_columns: Vec<Column> = Vec::new();
        let mut projections: Vec<Expr> = Vec::new();
        for (i, item) in select.projections.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    for (alias, schema) in &env_schema {
                        for c in schema.columns() {
                            out_columns.push(c.clone());
                            projections.push(Expr::Column(vec![alias.clone(), c.name.clone()]));
                        }
                    }
                }
                SelectItem::QualifiedWildcard(alias) => {
                    let (_, schema) = env_schema
                        .iter()
                        .find(|(a, _)| a.eq_ignore_ascii_case(alias))
                        .ok_or_else(|| DhqpError::Bind(format!("unknown alias '{alias}'")))?;
                    for c in schema.columns() {
                        out_columns.push(c.clone());
                        projections.push(Expr::Column(vec![alias.clone(), c.name.clone()]));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    self.check_level(expr)?;
                    let name = alias.clone().unwrap_or_else(|| match expr {
                        Expr::Column(parts) => parts.last().cloned().unwrap_or_default(),
                        _ => format!("expr{i}"),
                    });
                    // Output type inferred from the first row lazily; use
                    // Str as a safe placeholder when empty.
                    out_columns.push(Column::new(name, dhqp_types::DataType::Str));
                    projections.push(expr.clone());
                }
            }
        }
        let mut out_rows = Vec::with_capacity(kept.len());
        for row in &kept {
            let values = projections
                .iter()
                .map(|e| eval_expr(e, &env_schema, row))
                .collect::<Result<Vec<_>>>()?;
            out_rows.push(Row::new(values));
        }
        // Refine column types from data.
        for (c, col) in out_columns.iter_mut().enumerate() {
            if let Some(v) = out_rows.iter().map(|r| r.get(c)).find(|v| !v.is_null()) {
                if let Some(t) = v.data_type() {
                    col.data_type = t;
                }
            }
        }
        Ok(Box::new(MemRowset::new(Schema::new(out_columns), out_rows)))
    }

    fn flatten(
        &self,
        r: &TableRef,
        bindings: &mut Vec<Binding>,
        predicates: &mut Vec<Expr>,
    ) -> Result<()> {
        match r {
            TableRef::Named { name, alias } => {
                if name.0.len() > 1 {
                    return Err(DhqpError::Unsupported(
                        "provider does not accept qualified table names".into(),
                    ));
                }
                let table = name.object().to_string();
                let (schema, rows) = self
                    .engine
                    .with_table(&table, |t| (t.schema.clone(), t.scan_rows()))?;
                bindings.push(Binding {
                    alias: alias.clone().unwrap_or(table),
                    schema,
                    rows,
                });
                Ok(())
            }
            TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                if !self.level.supports_joins() {
                    return Err(DhqpError::Unsupported(
                        "provider does not support joins".into(),
                    ));
                }
                if !matches!(kind, JoinKind::Inner | JoinKind::Cross) {
                    return Err(DhqpError::Unsupported(
                        "provider supports inner/cross joins only".into(),
                    ));
                }
                self.flatten(left, bindings, predicates)?;
                self.flatten(right, bindings, predicates)?;
                if let Some(p) = on {
                    self.check_level(p)?;
                    predicates.push(p.clone());
                }
                Ok(())
            }
            TableRef::Derived { .. } | TableRef::OpenRowset { .. } | TableRef::OpenQuery { .. } => {
                Err(DhqpError::Unsupported(
                    "provider does not support derived tables".into(),
                ))
            }
        }
    }

    /// Enforce the advertised SQL level on an expression.
    fn check_level(&self, e: &Expr) -> Result<()> {
        if self.level >= SqlSupport::OdbcCore {
            return check_no_subqueries(e);
        }
        // SQL Minimum: conjunctive comparisons over columns/literals only.
        match e {
            Expr::Literal(_) | Expr::Column(_) => Ok(()),
            Expr::Binary { op, left, right } => {
                if op.is_comparison() || *op == BinaryOp::And {
                    self.check_level(left)?;
                    self.check_level(right)
                } else {
                    Err(DhqpError::Unsupported(format!(
                        "operator {} exceeds SQL Minimum",
                        op.sql_symbol()
                    )))
                }
            }
            other => Err(DhqpError::Unsupported(format!(
                "expression form exceeds SQL Minimum: {other:?}"
            ))),
        }
    }
}

fn check_no_subqueries(e: &Expr) -> Result<()> {
    match e {
        Expr::Exists { .. } | Expr::InSubquery { .. } | Expr::ScalarSubquery(_) => Err(
            DhqpError::Unsupported("provider does not support subqueries".into()),
        ),
        Expr::Binary { left, right, .. } => {
            check_no_subqueries(left)?;
            check_no_subqueries(right)
        }
        Expr::Unary { operand, .. } => check_no_subqueries(operand),
        Expr::Between {
            expr, low, high, ..
        } => {
            check_no_subqueries(expr)?;
            check_no_subqueries(low)?;
            check_no_subqueries(high)
        }
        Expr::InList { expr, list, .. } => {
            check_no_subqueries(expr)?;
            list.iter().try_for_each(check_no_subqueries)
        }
        Expr::Like { expr, pattern, .. } => {
            check_no_subqueries(expr)?;
            check_no_subqueries(pattern)
        }
        Expr::IsNull { expr, .. } => check_no_subqueries(expr),
        _ => Ok(()),
    }
}

/// Resolve a column reference against the bound schemas.
fn resolve(parts: &[String], env: &[(String, Schema)], row: &Row) -> Result<Value> {
    let mut offset = 0;
    match parts {
        [col] => {
            for (_, schema) in env {
                if let Some(i) = schema.index_of(col) {
                    return Ok(row.values[offset + i].clone());
                }
                offset += schema.len();
            }
            Err(DhqpError::Bind(format!("unknown column '{col}'")))
        }
        [alias, col] => {
            for (a, schema) in env {
                if a.eq_ignore_ascii_case(alias) {
                    let i = schema.index_of(col).ok_or_else(|| {
                        DhqpError::Bind(format!("no column '{col}' in '{alias}'"))
                    })?;
                    return Ok(row.values[offset + i].clone());
                }
                offset += schema.len();
            }
            Err(DhqpError::Bind(format!("unknown alias '{alias}'")))
        }
        other => Err(DhqpError::Bind(format!(
            "unsupported column reference {other:?}"
        ))),
    }
}

/// AST-level scalar evaluation (three-valued through `eval_bool`).
fn eval_expr(e: &Expr, env: &[(String, Schema)], row: &Row) -> Result<Value> {
    match e {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(parts) => resolve(parts, env, row),
        Expr::Unary {
            op: UnaryOp::Neg,
            operand,
        } => {
            let v = eval_expr(operand, env, row)?;
            Value::Int(0).sub(&v).or_else(|_| Value::Float(0.0).sub(&v))
        }
        Expr::Binary { op, left, right }
            if !op.is_comparison() && *op != BinaryOp::And && *op != BinaryOp::Or =>
        {
            let l = eval_expr(left, env, row)?;
            let r = eval_expr(right, env, row)?;
            match op {
                BinaryOp::Add => l.add(&r),
                BinaryOp::Sub => l.sub(&r),
                BinaryOp::Mul => l.mul(&r),
                BinaryOp::Div => l.div(&r),
                BinaryOp::Mod => match (l, r) {
                    (Value::Int(a), Value::Int(b)) if b != 0 => Ok(Value::Int(a % b)),
                    _ => Err(DhqpError::Execute("bad modulo".into())),
                },
                _ => unreachable!("guarded above"),
            }
        }
        other => Ok(match eval_bool(other, env, row)? {
            Some(b) => Value::Bool(b),
            None => Value::Null,
        }),
    }
}

fn eval_bool(e: &Expr, env: &[(String, Schema)], row: &Row) -> Result<Option<bool>> {
    match e {
        Expr::Binary { op, left, right } if op.is_comparison() => {
            let l = eval_expr(left, env, row)?;
            // Contextual coercion: a string literal compared with a date.
            let mut r = eval_expr(right, env, row)?;
            if let (Value::Date(_), Value::Str(_)) = (&l, &r) {
                r = r.cast(dhqp_types::DataType::Date)?;
            }
            let mut l = l;
            if let (Value::Str(_), Value::Date(_)) = (&l, &r) {
                l = l.cast(dhqp_types::DataType::Date)?;
            }
            Ok(l.sql_cmp(&r).map(|o| match op {
                BinaryOp::Eq => o == Ordering::Equal,
                BinaryOp::Neq => o != Ordering::Equal,
                BinaryOp::Lt => o == Ordering::Less,
                BinaryOp::Le => o != Ordering::Greater,
                BinaryOp::Gt => o == Ordering::Greater,
                BinaryOp::Ge => o != Ordering::Less,
                _ => unreachable!("comparison guarded"),
            }))
        }
        Expr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => {
            let l = eval_bool(left, env, row)?;
            let r = eval_bool(right, env, row)?;
            Ok(match (l, r) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            })
        }
        Expr::Binary {
            op: BinaryOp::Or,
            left,
            right,
        } => {
            let l = eval_bool(left, env, row)?;
            let r = eval_bool(right, env, row)?;
            Ok(match (l, r) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            })
        }
        Expr::Unary {
            op: UnaryOp::Not,
            operand,
        } => Ok(eval_bool(operand, env, row)?.map(|b| !b)),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval_expr(expr, env, row)?;
            let lo = eval_expr(low, env, row)?;
            let hi = eval_expr(high, env, row)?;
            let in_range = match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                (Some(a), Some(b)) => Some(a != Ordering::Less && b != Ordering::Greater),
                _ => None,
            };
            Ok(in_range.map(|b| b != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_expr(expr, env, row)?;
            if v.is_null() {
                return Ok(None);
            }
            let mut unknown = false;
            for item in list {
                let iv = eval_expr(item, env, row)?;
                match v.sql_eq(&iv) {
                    Some(true) => return Ok(Some(!negated)),
                    None => unknown = true,
                    Some(false) => {}
                }
            }
            Ok(if unknown { None } else { Some(*negated) })
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval_expr(expr, env, row)?;
            let p = eval_expr(pattern, env, row)?;
            match (v, p) {
                (Value::Null, _) | (_, Value::Null) => Ok(None),
                (Value::Str(s), Value::Str(p)) => Ok(Some(like_match(&s, &p) != *negated)),
                _ => Err(DhqpError::Type("LIKE requires strings".into())),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_expr(expr, env, row)?;
            Ok(Some(v.is_null() != *negated))
        }
        Expr::Literal(Value::Bool(b)) => Ok(Some(*b)),
        Expr::Literal(Value::Null) => Ok(None),
        other => Err(DhqpError::Unsupported(format!(
            "expression not supported by this provider: {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhqp_oledb::{ProviderClass, RowsetExt};
    use dhqp_storage::TableDef;
    use dhqp_types::DataType;

    fn access_db(level: SqlSupport) -> MiniSqlProvider {
        let engine = Arc::new(StorageEngine::new("enterprise.mdb"));
        engine
            .create_table(TableDef::new(
                "Customers",
                Schema::new(vec![
                    Column::not_null("Emailaddr", DataType::Str),
                    Column::not_null("City", DataType::Str),
                    Column::new("Address", DataType::Str),
                ]),
            ))
            .unwrap();
        engine
            .insert_rows(
                "Customers",
                &[
                    Row::new(vec![
                        Value::Str("buyer@seattle.example".into()),
                        Value::Str("Seattle".into()),
                        Value::Str("12 Pine St".into()),
                    ]),
                    Row::new(vec![
                        Value::Str("cust@portland.example".into()),
                        Value::Str("Portland".into()),
                        Value::Str("9 Oak Ave".into()),
                    ]),
                ],
            )
            .unwrap();
        engine
            .create_table(TableDef::new(
                "Orders",
                Schema::new(vec![
                    Column::not_null("Emailaddr", DataType::Str),
                    Column::not_null("Total", DataType::Int),
                ]),
            ))
            .unwrap();
        engine
            .insert_rows(
                "Orders",
                &[
                    Row::new(vec![
                        Value::Str("buyer@seattle.example".into()),
                        Value::Int(250),
                    ]),
                    Row::new(vec![
                        Value::Str("buyer@seattle.example".into()),
                        Value::Int(90),
                    ]),
                ],
            )
            .unwrap();
        MiniSqlProvider::new("AccessCustomers", engine, level).unwrap()
    }

    fn run(p: &MiniSqlProvider, sql: &str) -> Result<Vec<Row>> {
        let mut s = p.create_session().unwrap();
        let mut cmd = s.create_command()?;
        cmd.set_text(sql)?;
        cmd.execute()?.into_rowset()?.collect_rows()
    }

    #[test]
    fn classifies_as_sql_provider() {
        let p = access_db(SqlSupport::OdbcCore);
        assert_eq!(p.capabilities().class(), ProviderClass::Sql);
        assert!(!p.capabilities().dialect.nested_select);
    }

    #[test]
    fn single_table_select_where() {
        let p = access_db(SqlSupport::Minimum);
        let rows = run(
            &p,
            "SELECT Emailaddr, Address FROM Customers WHERE City = 'Seattle'",
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(1), &Value::Str("12 Pine St".into()));
    }

    #[test]
    fn minimum_level_rejects_joins_or_and_order() {
        let p = access_db(SqlSupport::Minimum);
        assert!(run(
            &p,
            "SELECT * FROM Customers c, Orders o WHERE c.Emailaddr = o.Emailaddr"
        )
        .is_err());
        assert!(run(&p, "SELECT * FROM Customers WHERE City = 'a' OR City = 'b'").is_err());
        assert!(run(&p, "SELECT * FROM Customers ORDER BY City").is_err());
    }

    #[test]
    fn odbc_core_joins_and_order_by() {
        let p = access_db(SqlSupport::OdbcCore);
        let rows = run(
            &p,
            "SELECT c.City, o.Total FROM Customers c INNER JOIN Orders o \
             ON c.Emailaddr = o.Emailaddr ORDER BY o.Total DESC",
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(1), &Value::Int(250));
        // TOP applies after ordering.
        let rows = run(
            &p,
            "SELECT TOP 1 o.Total FROM Customers c, Orders o \
             WHERE c.Emailaddr = o.Emailaddr ORDER BY o.Total",
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int(90));
    }

    #[test]
    fn odbc_core_rejects_group_by_and_subqueries() {
        let p = access_db(SqlSupport::OdbcCore);
        assert!(run(&p, "SELECT City, COUNT(*) FROM Customers GROUP BY City").is_err());
        assert!(run(
            &p,
            "SELECT * FROM Customers WHERE Emailaddr IN (SELECT Emailaddr FROM Orders)"
        )
        .is_err());
        assert!(run(&p, "SELECT * FROM (SELECT City FROM Customers) d").is_err());
    }

    #[test]
    fn like_between_in_at_odbc_core() {
        let p = access_db(SqlSupport::OdbcCore);
        let rows = run(
            &p,
            "SELECT City FROM Customers WHERE Emailaddr LIKE '%seattle%'",
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        let rows = run(
            &p,
            "SELECT Total FROM Orders WHERE Total BETWEEN 100 AND 300",
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        let rows = run(
            &p,
            "SELECT City FROM Customers WHERE City IN ('Seattle', 'Boise')",
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn decoder_style_aliased_output() {
        // The DHQP decoder emits [tN].[col] AS [cM] shapes — ensure they run.
        let p = access_db(SqlSupport::OdbcCore);
        let rows = run(
            &p,
            "SELECT [t0].[City] AS [c7] FROM [Customers] AS [t0] WHERE ([t0].[City] = 'Seattle')",
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn dml_commands_rejected() {
        let p = access_db(SqlSupport::OdbcCore);
        assert!(run(&p, "DELETE FROM Customers").is_err());
    }
}
