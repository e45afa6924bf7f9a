//! Remote access paths: the executor side of the paper's *build remote
//! query*, *remote scan* and *remote range* rules (§4.1.2).
//!
//! A remote query's parameters (`@__lit0`-style plan-cache literals,
//! `@user` parameters and a key-shipping request's `@__keys0` key set) are
//! substituted as literals of the provider's dialect into the SQL text
//! before it crosses the link — no provider ever receives a parameter
//! marker, and the traffic accounting stays honest.

use crate::context::ExecContext;
use crate::eval::{eval_expr, RowEnv};
use crate::health::Breaker;
use crate::ops::retry::{ReopenFactory, RetryState};
use crate::ops::scan::key_ranges;
use crate::schema_guard::MemberChecks;
use crate::stats::RuntimeStatsCollector;
use dhqp_oledb::{charged, DataSource, Dialect, MemRowset, Rowset, Session, TrafficSnapshot};
use dhqp_optimizer::physical::{RemoteParam, KEY_SET};
use dhqp_optimizer::{ColumnId, Locality, ScalarExpr, TableMeta};
use dhqp_types::{DhqpError, Result, Row, RowBatch, Schema, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Substitute `@name` placeholders with literals of `dialect` in one
/// left-to-right scan, a parameter's values comma-separated. At each `@`
/// the longest matching parameter name wins (so `@p10` is never clobbered
/// by `@p1`), and substituted literals are never rescanned — a string value
/// containing `@name` cannot be re-substituted.
pub fn substitute_params(sql: &str, params: &[(&str, &[Value])], dialect: &Dialect) -> String {
    let mut ordered: Vec<&(&str, &[Value])> = params.iter().collect();
    ordered.sort_by_key(|(n, _)| std::cmp::Reverse(n.len()));
    let mut out = String::with_capacity(sql.len());
    let mut rest = sql;
    while let Some(at) = rest.find('@') {
        out.push_str(&rest[..at]);
        let after = &rest[at + 1..];
        match ordered.iter().find(|(name, _)| after.starts_with(name)) {
            Some((name, values)) => {
                for (i, value) in values.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&dialect.literal(value));
                }
                rest = &after[name.len()..];
            }
            None => {
                out.push('@');
                rest = after;
            }
        }
    }
    out.push_str(rest);
    out
}

/// The exact text a remote query ships for the current parameter values, a
/// key-set parameter bound to `keys`, spelled in the provider's `dialect` —
/// what `EXPLAIN ANALYZE` reports as the decoder-emitted SQL.
pub fn remote_query_text(
    sql: &str,
    params: &[RemoteParam],
    keys: &[Value],
    dialect: &Dialect,
    ctx: &ExecContext,
) -> Result<String> {
    let bound = params
        .iter()
        .map(|p| match p {
            RemoteParam::Query(name) => Ok((name.as_str(), std::slice::from_ref(ctx.param(name)?))),
            RemoteParam::KeySet => Ok((KEY_SET, keys)),
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(substitute_params(sql, &bound, dialect))
}

/// A linked server as one plan node reaches it, resolved once when the node
/// opens against the statement's own servers: the source its open, every
/// retry and every later request go to, the breaker they answer to, and
/// the view members it reads.
#[derive(Clone)]
pub(crate) struct Remote {
    server: Arc<str>,
    pub(crate) source: Arc<dyn DataSource>,
    breaker: Option<Arc<Breaker>>,
    checks: MemberChecks,
}

impl Remote {
    /// `server` as the statement bound it, for a node that reads `checks`.
    pub(crate) fn new(server: &Arc<str>, checks: MemberChecks, ctx: &ExecContext) -> Result<Self> {
        Ok(Remote {
            source: ctx.catalog().linked(server)?,
            breaker: ctx.catalog().breaker(server),
            server: Arc::clone(server),
            checks,
        })
    }
}

/// The tail shared by every remote open path: lease a session on `remote`
/// that carries its schema checks, run `verb` on it, all through the
/// breaker-gated retry loop. With a stats collector attached, the open and
/// every later pull are charged to `node`, labelled with `request` (the
/// shipped text, or the rowset interface used). Exchange workers and the
/// prefetcher inherit the gate because their branch opens land here too.
fn open_via_breaker(
    remote: Remote,
    ctx: &ExecContext,
    node: usize,
    op_tag: Option<String>,
    request: impl FnOnce() -> String,
    mut verb: impl FnMut(&mut dyn Session) -> Result<Box<dyn Rowset>> + Send + 'static,
) -> Result<Box<dyn Rowset>> {
    let (counters, reopen) = (Arc::clone(ctx.counters()), Arc::clone(&remote.source));
    let factory: ReopenFactory = Box::new(move || {
        remote.checks.open_session(&reopen, |session| {
            counters.remote_roundtrips.bump();
            verb(session)
        })
    });
    let open = RetryState::new(ctx.retry(), ctx.counters())
        .gated(remote.breaker)
        .on_node(node, ctx.stats())
        .tagged(op_tag)
        .rewind_by(ctx.batch().batch_size);
    let Some(collector) = ctx.stats() else {
        return open.open(factory);
    };
    let (opened, traffic) = charged(|| open.open(factory));
    let (sql, collector) = (request(), Arc::clone(collector));
    match opened {
        Ok(inner) => Ok(Box::new(ChargedRowset {
            inner,
            traffic,
            node,
            sql,
            server: remote.server,
            source: remote.source,
            collector,
        })),
        Err(e) => {
            collector.record_remote(node, &remote.server, sql, traffic, remote.source.latency());
            Err(e)
        }
    }
}

/// A remote open's rowset under a stats collector: its node is charged what
/// the open, retries included, and each pull put on the wire from the
/// calling thread ([`charged`]), its own traffic only. Recorded on close; a
/// failed open records at once.
struct ChargedRowset {
    inner: Box<dyn Rowset>,
    traffic: TrafficSnapshot,
    node: usize,
    sql: String,
    server: Arc<str>,
    source: Arc<dyn DataSource>,
    collector: Arc<RuntimeStatsCollector>,
}

impl Rowset for ChargedRowset {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        let (batch, traffic) = charged(|| self.inner.next_batch(max));
        self.traffic = self.traffic + traffic;
        batch
    }

    fn size_hint(&self) -> Option<usize> {
        self.inner.size_hint()
    }
}

impl Drop for ChargedRowset {
    fn drop(&mut self) {
        let (sql, latency) = (std::mem::take(&mut self.sql), self.source.latency());
        let collector = &self.collector;
        collector.record_remote(self.node, &self.server, sql, self.traffic, latency);
    }
}

/// Execute a pushed-down SQL statement on a linked server. The open (and
/// any mid-stream rewind) is retried on transient transport faults: a
/// pushed-down SELECT is idempotent, so re-issuing the same text is safe.
pub fn open_remote_query(
    server: &Arc<str>,
    sql: &str,
    params: &[RemoteParam],
    ctx: &ExecContext,
    node: usize,
) -> Result<Box<dyn Rowset>> {
    let remote = Remote::new(server, ctx.member_checks_in_sql(server, sql), ctx)?;
    let text = remote_query_text(sql, params, &[], &remote.source.capabilities().dialect, ctx)?;
    open_remote_text(remote, text, None, ctx, node)
}

/// Ship one statement to a linked server through the breaker-gated retry
/// path, tagging any give-up with the caller's operation descriptor.
/// `remote`'s checks are the view members the statement reads, resolved
/// from its template (substituted literals must not name a member by
/// accident).
pub(crate) fn open_remote_text(
    remote: Remote,
    text: String,
    op_tag: Option<String>,
    ctx: &ExecContext,
    node: usize,
) -> Result<Box<dyn Rowset>> {
    let shipped = ctx.stats().map(|_| text.clone());
    let request = || shipped.unwrap_or_default();
    open_via_breaker(remote, ctx, node, op_tag, request, move |session| {
        let mut command = session.create_command()?;
        command.set_text(&text)?;
        command.execute()?.into_rowset()
    })
}

/// The server every base-table open (`scan`, `range`) of a remote `meta`
/// starts from.
fn remote_table(meta: &TableMeta, ctx: &ExecContext, op: &str) -> Result<Remote> {
    let Locality::Remote(server) = &meta.source else {
        return Err(DhqpError::Execute(format!("remote {op} of a local table")));
    };
    Remote::new(server, ctx.member_checks(Some(server), &meta.table), ctx)
}

/// `IOpenRowset` against a remote base table (ships the whole table).
pub fn open_remote_scan(
    meta: &TableMeta,
    ctx: &ExecContext,
    node: usize,
) -> Result<Box<dyn Rowset>> {
    let remote = remote_table(meta, ctx, "scan")?;
    let table = meta.table.clone();
    let request = || format!("IOpenRowset([{}])", meta.table);
    open_via_breaker(remote, ctx, node, None, request, move |session| {
        session.open_rowset(&table)
    })
}

/// `IRowsetIndex` range against a remote index: one request over the
/// hull of what `seek` covers ([`key_ranges`]), none when that is nothing.
pub fn open_remote_range(
    meta: &TableMeta,
    index: &str,
    seek: Option<&ScalarExpr>,
    ctx: &ExecContext,
    node: usize,
) -> Result<Box<dyn Rowset>> {
    let Some(range) = key_ranges(meta, index, seek, ctx)?.pop() else {
        return Ok(Box::new(MemRowset::empty(meta.catalog.schema.clone())));
    };
    let remote = remote_table(meta, ctx, "range")?;
    let (table, index_name) = (meta.table.clone(), index.to_string());
    let request = || format!("IRowsetIndex([{}].[{index}] range)", meta.table);
    open_via_breaker(remote, ctx, node, None, request, move |session| {
        session.open_index(&table, &index_name, &range)
    })
}

/// Evaluate a list of column-free expressions (used by DML routing).
pub fn eval_standalone(
    exprs: &[dhqp_optimizer::ScalarExpr],
    ctx: &ExecContext,
) -> Result<Vec<Value>> {
    let positions: HashMap<ColumnId, usize> = HashMap::new();
    let row = Row::new(vec![]);
    let env = RowEnv {
        positions: &positions,
        row: &row,
        ctx,
    };
    exprs.iter().map(|e| eval_expr(e, &env)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substitution_orders_by_length() {
        let sql = "SELECT * FROM t WHERE a = @p1 AND b = @p10";
        let out = substitute_params(
            sql,
            &[("p1", &[Value::Int(1)]), ("p10", &[Value::Int(10)])],
            &Dialect::default(),
        );
        assert_eq!(out, "SELECT * FROM t WHERE a = 1 AND b = 10");
    }

    #[test]
    fn substitution_quotes_strings() {
        let out = substitute_params(
            "WHERE n = @name",
            &[("name", &[Value::Str("O'Brien".into())])],
            &Dialect::default(),
        );
        assert_eq!(out, "WHERE n = 'O''Brien'");
    }

    #[test]
    fn substitution_never_rescans_substituted_literals() {
        // A string literal containing "@q" must not be re-substituted when
        // @q is bound too (the old repeated-replace implementation did).
        let out = substitute_params(
            "SELECT @p, @q",
            &[("p", &[Value::Str("@q".into())]), ("q", &[Value::Int(1)])],
            &Dialect::default(),
        );
        assert_eq!(out, "SELECT '@q', 1");
    }

    #[test]
    fn substitution_leaves_unknown_placeholders_and_trailing_text() {
        let out = substitute_params(
            "a = @p AND b = @unknown @",
            &[("p", &[Value::Int(5)])],
            &Dialect::default(),
        );
        assert_eq!(out, "a = 5 AND b = @unknown @");
    }

    #[test]
    fn substitution_spells_dates_in_the_providers_dialect() {
        let day = Value::Date(dhqp_types::value::parse_date("1992-01-01").unwrap());
        let params = [("d", std::slice::from_ref(&day))];
        let escape = Dialect {
            date_literal: dhqp_oledb::DateLiteralStyle::OdbcEscape,
            ..Dialect::default()
        };
        let out = substitute_params("WHERE day = @d", &params, &escape);
        assert_eq!(out, "WHERE day = {d '1992-01-01'}");
        // The default dialect spells every value as `Value::to_sql_literal`.
        let plain = substitute_params("WHERE day = @d", &params, &Dialect::default());
        assert_eq!(plain, format!("WHERE day = {}", day.to_sql_literal()));
    }

    #[test]
    fn a_key_set_substitutes_as_a_list_in_the_providers_dialect() {
        let days: Vec<Value> = ["1994-03-01", "1995-12-31"]
            .iter()
            .map(|d| Value::Date(dhqp_types::value::parse_date(d).unwrap()))
            .collect();
        let escape = Dialect {
            date_literal: dhqp_oledb::DateLiteralStyle::OdbcEscape,
            ..Dialect::default()
        };
        let out = substitute_params(
            "WHERE ([t0].[day] IN (@__keys0))",
            &[("__keys0", &days)],
            &escape,
        );
        assert_eq!(
            out,
            "WHERE ([t0].[day] IN ({d '1994-03-01'}, {d '1995-12-31'}))"
        );
    }
}
