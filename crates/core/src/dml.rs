//! DML execution: INSERT / UPDATE / DELETE against local tables, remote
//! tables and (distributed) partitioned views, with 2PC when a statement
//! sends more than one write request (paper §2: "SQL Server uses the
//! Microsoft Distributed Transaction Coordinator to ensure atomicity of
//! transactions across data sources").
//!
//! Every statement runs in three steps: **locate** every row it touches (or
//! route every row it inserts), collect the writes that follow into one
//! [`WritePlan`], and only then **apply** the plan. Nothing is written while
//! rows are still being located, so a statement never meets its own writes
//! (the Halloween problem), and the head knows, before its first write,
//! which servers it writes to and each one's last write — the one its 2PC
//! vote rides, or for the last participant, the commit. [`apply`]
//! decides the statement's transaction from that plan alone, and a server
//! the statement only read from is no participant.
//!
//! A table on a provider that takes the whole UPDATE/DELETE as SQL text
//! ([`pushed_statement`]) is not located at all: the plan carries the
//! statement, and the member finds and writes the rows itself, inside the
//! session's transaction.

use crate::binder::Binder;
use crate::engine::{Engine, LinkedServer};
use crate::knobs::Knobs;
use crate::result::QueryResult;
use dhqp_executor::eval::{eval_expr, eval_predicate, positions_of, RowEnv};
use dhqp_executor::ops::scan::key_ranges;
use dhqp_executor::{ExecContext, ParallelConfig};
use dhqp_federation::PartitionedView;
use dhqp_oledb::{CommandResult, DataSource, KeyRange, RowsetExt, Session, SqlSupport};
use dhqp_optimizer::decoder::render_table_scalars;
use dhqp_optimizer::logical::TableMeta;
use dhqp_optimizer::{PhysNode, PhysicalOp, ScalarExpr};
use dhqp_sqlfront as ast;
use dhqp_storage::LocalSession;
use dhqp_types::{DhqpError, Result, Row, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// What a DML statement targets.
enum Target {
    View(Arc<PartitionedView>),
    /// `(server, table)`; server None = local.
    Table(Option<String>, String),
}

/// `ambient`: the statement writes through the session it arrived on
/// ([`apply`]), which reaches this server's own tables only —
/// any other target is refused here, before anything is read or written.
fn resolve_target(engine: &Engine, name: &ast::ObjectName, ambient: bool) -> Result<Target> {
    let view = match name.0.len() {
        1 => engine.partitioned_view(name.object()),
        _ => None,
    };
    if ambient && (view.is_some() || name.server().is_some()) {
        return Err(DhqpError::Unsupported(format!(
            "a statement sent through a command object writes a plain table of this server, \
             and '{}' is not one",
            name.object()
        )));
    }
    Ok(match view {
        Some(view) => Target::View(view),
        None => Target::Table(name.server().map(str::to_string), name.object().to_string()),
    })
}

/// Where a table lives: this server's own storage (`None`), or the linked
/// server the statement resolved — once, when it was bound: its sessions
/// are opened on that registration's pool, and its reads gated by that
/// registration's breaker, whatever happens to the name meanwhile.
type Server = Option<Arc<LinkedServer>>;

/// `server` as the statement resolves it, through `binder`: once per name.
fn resolve(binder: &mut Binder, server: &Option<String>) -> Result<Server> {
    server.as_deref().map(|s| binder.link(s)).transpose()
}

/// Key identifying one participant server in a multi-site statement.
fn server_key(server: &Server) -> &str {
    server.as_ref().map_or("(local)", |link| &link.name)
}

/// `server`'s source: a linked server's sessions are leased from its pool.
fn source(engine: &Engine, server: &Server) -> Arc<dyn DataSource> {
    match server {
        None => engine.local_data_source(),
        Some(link) => link.pool.clone(),
    }
}

/// Write `plan` and commit. A plan of one request is written on its server's
/// session as it is. A plan of more runs under one distributed transaction
/// over the servers it writes to, in the order the statement first wrote to
/// them: each one's session joins with its first write, its last request
/// carries its vote, and the last one's carries the commit. Then index what
/// became visible: the local tables written, unless the statement wrote
/// under a consumer's transaction, whose commit does it
/// ([`LocalSession::take_committed`]).
///
/// Each server's writes lease a plain session from its source; a pool hands
/// back the session checked in last, so a server's writes go through the
/// one that located their rows. `ambient` is the session a consumer sent the
/// statement on as command text ([`Engine::execute_on_session`]), and the
/// statement writes through it instead: under the consumer's transaction
/// when the session is enlisted in one, whose outcome is the consumer's to
/// decide. Its one target is a plain local table ([`resolve_target`]), so it
/// makes at most one write — the one a vote or commit the consumer asked
/// for rides.
fn apply(engine: &Engine, ambient: Option<&mut LocalSession>, plan: &WritePlan) -> Result<Applied> {
    let mut applied = Applied::default();
    let writers = plan.writers();
    let requests: usize = writers.iter().map(|(_, ops)| ops.len()).sum();
    let consumer_txn = ambient.as_ref().is_some_and(|s| s.transaction().is_some());
    match ambient {
        None if requests > 1 => {
            let mut txn = engine.dtc().begin();
            let mut decider = None;
            for (i, (writer, ops)) in writers.iter().enumerate() {
                let session = source(engine, &writer.server).create_session()?;
                txn.enlist(writer.key(), session)?;
                let (last, ops) = ops.split_last().expect("a listed table is written");
                for op in ops {
                    op.apply(txn.session_mut(writer.key())?.as_mut(), &mut applied)?;
                }
                match i + 1 < writers.len() {
                    true => txn.write_and_vote(writer.key(), |s| last.apply(s, &mut applied))?,
                    false => decider = Some((writer.key(), last)),
                }
            }
            let (key, last) = decider.expect("two requests or more");
            txn.write_and_commit(key, |s| last.apply(s, &mut applied))?;
        }
        // One request, or an ambient session's writes: the statement's
        // outcome, once it is done, answers a vote or commit the consumer
        // asked its write to carry (`Engine::run_statement`).
        mut ambient => {
            for (writer, ops) in &writers {
                let mut leased;
                let session: &mut dyn Session = match ambient.as_deref_mut() {
                    Some(session) => session,
                    None => {
                        leased = source(engine, &writer.server).create_session()?;
                        leased.as_mut()
                    }
                };
                for op in ops {
                    op.apply(session, &mut applied)?;
                }
            }
        }
    }
    if !consumer_txn {
        for table in plan.tables.iter().filter(|t| t.server.is_none()) {
            engine.refresh_fulltext_index(&table.table)?;
        }
    }
    Ok(applied)
}

// ---------------------------------------------------------------------------
// The write plan
// ---------------------------------------------------------------------------

/// Everything one statement writes to one table, coalesced: whatever
/// number of rows it deletes, updates in place, moves out or takes in, the
/// table sees at most one request of each kind.
#[derive(Default)]
struct TableWrites {
    server: Server,
    table: String,
    delete: Vec<u64>,
    update: (Vec<u64>, Vec<Row>),
    insert: Vec<Row>,
    /// The whole UPDATE/DELETE in the provider's dialect
    /// ([`pushed_statement`]): the table's rows were not located, and
    /// nothing else is listed for it.
    statement: Option<String>,
}

impl TableWrites {
    /// [`server_key`] of `server`: tables with one key share a participant.
    fn key(&self) -> &str {
        server_key(&self.server)
    }
}

/// The writes of one statement; a table is listed only if something is
/// written to it.
#[derive(Default)]
struct WritePlan {
    tables: Vec<TableWrites>,
}

impl WritePlan {
    /// The entry for `table` on `server`, added on first use.
    fn table(&mut self, server: &Server, table: &str) -> &mut TableWrites {
        let key = server_key(server);
        let listed = self
            .tables
            .iter()
            .position(|t| t.key() == key && t.table == table);
        let at = listed.unwrap_or_else(|| {
            self.tables.push(TableWrites {
                server: server.clone(),
                table: table.to_string(),
                ..TableWrites::default()
            });
            self.tables.len() - 1
        });
        &mut self.tables[at]
    }

    /// Each server the plan writes to, in the order the statement first
    /// wrote to it, with its requests.
    fn writers(&self) -> Vec<(&TableWrites, Vec<WriteOp<'_>>)> {
        let mut writers: Vec<(&TableWrites, Vec<WriteOp>)> = Vec::new();
        for table in &self.tables {
            if !writers
                .iter()
                .any(|(writer, _)| writer.key() == table.key())
            {
                let ops = participant_ops(self.tables.iter().filter(|t| t.key() == table.key()));
                writers.push((table, ops));
            }
        }
        writers
    }
}

/// One request of a plan.
enum WriteOp<'p> {
    Delete(&'p str, &'p [u64]),
    Update(&'p str, &'p [u64], &'p [Row]),
    Insert(&'p str, &'p [Row]),
    /// Command text the provider runs itself.
    Statement(&'p str),
}

/// A participant's requests in the order they are sent: deletes, then
/// in-place updates, then inserts, so that a key one row gives up is free
/// before another row takes it; pushed statements (other tables, no moved
/// rows) after them.
fn participant_ops<'p>(tables: impl Iterator<Item = &'p TableWrites> + Clone) -> Vec<WriteOp<'p>> {
    let deletes = tables.clone().filter(|t| !t.delete.is_empty());
    let updates = tables.clone().filter(|t| !t.update.0.is_empty());
    let inserts = tables.clone().filter(|t| !t.insert.is_empty());
    deletes
        .map(|t| WriteOp::Delete(&t.table, &t.delete))
        .chain(updates.map(|t| WriteOp::Update(&t.table, &t.update.0, &t.update.1)))
        .chain(inserts.map(|t| WriteOp::Insert(&t.table, &t.insert)))
        .chain(tables.filter_map(|t| t.statement.as_deref().map(WriteOp::Statement)))
        .collect()
}

/// Row counts the providers reported, by kind of request.
#[derive(Default)]
struct Applied {
    deleted: u64,
    updated: u64,
    inserted: u64,
    /// Rows pushed statements reported as updated or deleted.
    pushed: u64,
}

impl WriteOp<'_> {
    fn apply(&self, session: &mut dyn Session, applied: &mut Applied) -> Result<()> {
        match *self {
            WriteOp::Delete(table, bookmarks) => {
                applied.deleted += session.delete_by_bookmarks(table, bookmarks)?
            }
            WriteOp::Update(table, bookmarks, rows) => {
                applied.updated += session.update_by_bookmarks(table, bookmarks, rows)?
            }
            WriteOp::Insert(table, rows) => applied.inserted += session.insert(table, rows)?,
            // Sent once: a write is never re-sent, whatever the error says.
            WriteOp::Statement(text) => {
                let mut command = session.create_command()?;
                command.set_text(text)?;
                match command.execute()? {
                    CommandResult::RowCount(n) => applied.pushed += n,
                    CommandResult::Rowset(_) => {
                        return Err(DhqpError::Provider(format!(
                            "a pushed write answered with a rowset: {text}"
                        )))
                    }
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// INSERT
// ---------------------------------------------------------------------------

pub fn run_insert(
    engine: &Engine,
    knobs: &Arc<Knobs>,
    stmt: &ast::InsertStmt,
    params: &HashMap<String, Value>,
    ambient: Option<&mut LocalSession>,
) -> Result<QueryResult> {
    let target = resolve_target(engine, &stmt.table, ambient.is_some())?;
    let mut binder = Binder::for_statement(engine, Arc::clone(knobs), params);
    let source_rows: Vec<Vec<Value>> = match &stmt.source {
        ast::InsertSource::Values(rows) => {
            let mut bound_rows = Vec::with_capacity(rows.len());
            for row in rows {
                bound_rows.push(binder.bind_standalone_exprs(row)?);
            }
            let registry = Arc::new(binder.registry_snapshot());
            let ctx = engine.exec_context(knobs, params.clone(), registry, &[]);
            bound_rows
                .into_iter()
                .map(|exprs| dhqp_executor::ops::remote::eval_standalone(&exprs, &ctx))
                .collect::<Result<Vec<_>>>()?
        }
        ast::InsertSource::Select(select) => {
            let result = engine.run_select(select, params, knobs)?;
            result.rows.into_iter().map(|r| r.values).collect()
        }
    };
    let mut plan = WritePlan::default();
    match &target {
        Target::Table(server, table) => {
            let server = resolve(&mut binder, server)?;
            let info = source(engine, &server).table(table)?;
            let arrange = |values| arrange_row(&stmt.columns, &info.columns, values);
            let rows = source_rows
                .into_iter()
                .map(arrange)
                .collect::<Result<Vec<_>>>()?;
            if !rows.is_empty() {
                plan.table(&server, table).insert = rows;
            }
        }
        // Every row is routed before any is written, so a row no member
        // takes aborts the statement with nothing done.
        Target::View(view) => {
            let info = &view.members[0].schema_snapshot;
            for values in source_rows {
                let row = arrange_row(&stmt.columns, &info.columns, values)?;
                let member = &view.members[view.route(row.get(view.partition_column))?];
                let server = resolve(&mut binder, &member.server)?;
                plan.table(&server, &member.table).insert.push(row);
            }
        }
    }
    let applied = apply(engine, ambient, &plan)?;
    Ok(QueryResult::rows_affected(applied.inserted))
}

/// Arrange a source row into full table-column order, applying the column
/// list and coercing to declared types.
fn arrange_row(
    columns: &[String],
    table_columns: &[dhqp_oledb::ColumnInfo],
    values: Vec<Value>,
) -> Result<Row> {
    let expected = if columns.is_empty() {
        table_columns.len()
    } else {
        columns.len()
    };
    if values.len() != expected {
        return Err(DhqpError::Execute(format!(
            "INSERT supplies {} values for {} columns",
            values.len(),
            expected
        )));
    }
    let mut out = vec![Value::Null; table_columns.len()];
    if columns.is_empty() {
        for (i, v) in values.into_iter().enumerate() {
            out[i] = v;
        }
    } else {
        for (name, v) in columns.iter().zip(values) {
            let pos = table_columns
                .iter()
                .position(|c| c.name.eq_ignore_ascii_case(name))
                .ok_or_else(|| DhqpError::Bind(format!("unknown INSERT column '{name}'")))?;
            out[pos] = v;
        }
    }
    // Coerce to declared types (string dates → DATE etc.); a value that
    // fails its cast refuses the statement.
    for (v, c) in out.iter_mut().zip(table_columns) {
        if !v.is_null() && v.data_type() != Some(c.data_type) {
            *v = v.cast(c.data_type)?;
        }
    }
    Ok(Row::new(out))
}

// ---------------------------------------------------------------------------
// UPDATE / DELETE: binding and row location
// ---------------------------------------------------------------------------

/// One table an UPDATE/DELETE writes, bound once for the statement.
struct BoundTarget {
    server: Server,
    meta: Arc<TableMeta>,
    /// The WHERE clause over `meta`'s columns, supplied parameters folded
    /// to literals.
    predicate: Option<ScalarExpr>,
    /// UPDATE SET list as `(schema position, value)`; empty for DELETE.
    assignments: Vec<(usize, ScalarExpr)>,
    /// Index into the view's members when the table is one.
    member: Option<usize>,
}

/// Everything an UPDATE/DELETE writes: the tables its WHERE clause can
/// touch, and the context its expressions evaluate in.
struct WriteSet {
    view: Option<Arc<PartitionedView>>,
    /// The server of each of the view's members, where a moved row may go.
    members: Vec<Server>,
    targets: Vec<BoundTarget>,
    ctx: ExecContext,
}

impl WriteSet {
    fn bind(
        engine: &Engine,
        knobs: &Arc<Knobs>,
        target: Target,
        where_clause: Option<&ast::Expr>,
        assignments: &[(String, ast::Expr)],
        params: &HashMap<String, Value>,
    ) -> Result<WriteSet> {
        let mut binder = Binder::for_statement(engine, Arc::clone(knobs), params).for_dml();
        let mut bind = |server: &Option<String>, table: &str, member| -> Result<BoundTarget> {
            let meta = binder.bind_dml_table(server.as_deref(), table)?;
            let server = resolve(&mut binder, server)?;
            let predicate = where_clause
                .map(|e| binder.bind_expr_in_table(e, &meta))
                .transpose()?;
            let assignments = assignments
                .iter()
                .map(|(col, e)| {
                    let pos =
                        meta.catalog.schema.index_of(col).ok_or_else(|| {
                            DhqpError::Bind(format!("unknown UPDATE column '{col}'"))
                        })?;
                    Ok((pos, binder.bind_expr_in_table(e, &meta)?))
                })
                .collect::<Result<Vec<_>>>()?;
            Ok(BoundTarget {
                server,
                meta,
                predicate,
                assignments,
                member,
            })
        };
        let (view, targets) = match target {
            Target::Table(server, table) => (None, vec![bind(&server, &table, None)?]),
            Target::View(view) => {
                // Static pruning (§4.1.5): member 0's bound predicate gives
                // the partitioning-column domain that decides which other
                // members are bound, and written, at all.
                let mut bind_member = |m: usize| -> Result<BoundTarget> {
                    let member = &view.members[m];
                    let mut bound = bind(&member.server, &member.table, Some(m))?;
                    // The member's CHECK range, as a SELECT's member `Get`
                    // carries it (`Binder::bind_partitioned_view`).
                    let meta = Arc::make_mut(&mut bound.meta);
                    Arc::make_mut(&mut meta.catalog)
                        .checks
                        .push((view.partition_column, member.check.clone()));
                    Ok(bound)
                };
                let first = bind_member(0)?;
                let key = first.meta.column_id(view.partition_column);
                let domains = first.predicate.as_ref().map(ScalarExpr::domains);
                let members = match domains.as_ref().and_then(|d| d.get(key)) {
                    Some(domain) => view.members_for_domain(domain),
                    None => (0..view.members.len()).collect(),
                };
                let mut first = Some(first);
                let mut targets = Vec::with_capacity(members.len());
                for m in members {
                    targets.push(match first.take_if(|_| m == 0) {
                        Some(bound) => bound,
                        None => bind_member(m)?,
                    });
                }
                (Some(view), targets)
            }
        };
        let members = view.iter().flat_map(|v| &v.members);
        let members = members
            .map(|m| resolve(&mut binder, &m.server))
            .collect::<Result<_>>()?;
        let registry = Arc::new(binder.registry_snapshot());
        // Located rows are drained at once: a prefetch thread would only
        // relay them.
        let ctx = engine.exec_context(knobs, params.clone(), registry, binder.servers());
        let ctx = ctx.with_parallel(ParallelConfig::serial());
        Ok(WriteSet {
            view,
            members,
            targets,
            ctx,
        })
    }

    /// Put the whole write to `target` into `plan` as one statement if its
    /// provider takes it; `false` when its rows have to be located. A key
    /// domain that proves the predicate selects nothing still sends nothing.
    fn push(&self, engine: &Engine, target: &BoundTarget, plan: &mut WritePlan) -> Result<bool> {
        let Some(text) = pushed_statement(target, self.view.as_deref()) else {
            return Ok(false);
        };
        if self.access(target)?.is_some() {
            plan.table(&target.server, &target.meta.table).statement = Some(text);
            engine.counters().dml_pushed.bump();
        }
        Ok(true)
    }

    /// How the rows `target`'s predicate selects are reached: `None` when
    /// its domain is empty (no row qualifies, nothing is read);
    /// `Some(Some(index))`, the ranges [`key_ranges`] — a SELECT's resolver
    /// too — gives the first index whose lead column the predicate bounds;
    /// `Some(None)`, the whole table. A table with no usable index asks the
    /// resolver under a name its catalog lacks: empty or whole.
    fn access<'t>(&self, target: &'t BoundTarget) -> Result<Option<Option<&'t str>>> {
        let meta = &target.meta;
        let seekable = target.server.is_none() || meta.caps.index_support;
        let indexes = meta.catalog.indexes.iter().filter(|_| seekable);
        for index in indexes.map(|ix| ix.name.as_str()).chain([""]) {
            let ranges = key_ranges(meta, index, target.predicate.as_ref(), &self.ctx)?;
            if ranges.is_empty() {
                return Ok(None);
            }
            if ranges != [KeyRange::all()] {
                return Ok(Some(Some(index)));
            }
        }
        Ok(Some(None))
    }

    /// Read the rows of `target` that [`WriteSet::access`] reaches, bookmarks
    /// attached, through the executor's access operator: the server's
    /// breaker, retries and pooled session are a SELECT's. The read is
    /// drained here, before the statement's first write.
    fn locate_rows(&self, target: &BoundTarget) -> Result<Vec<Row>> {
        let Some(mut index) = self.access(target)? else {
            return Ok(Vec::new());
        };
        let read = |index: Option<&str>| {
            let (meta, seek) = (Arc::clone(&target.meta), target.predicate.clone());
            let output = meta.column_ids.clone();
            let op = match (index.map(str::to_string), meta.source.is_remote()) {
                (Some(index), false) => PhysicalOp::IndexRange { meta, index, seek },
                (Some(index), true) => PhysicalOp::RemoteRange { meta, index, seek },
                (None, false) => PhysicalOp::TableScan { meta },
                (None, true) => PhysicalOp::RemoteScan { meta },
            };
            let mut rowset =
                dhqp_executor::open(&PhysNode::new(op, Vec::new(), output), &self.ctx)?;
            rowset.collect_rows_batched(self.ctx.batch().batch_size)
        };
        let rows = match read(index) {
            // Index metadata without IRowsetIndex behind it.
            Err(DhqpError::Unsupported(_)) if index.is_some() => {
                index = None;
                read(None)?
            }
            rows => rows?,
        };
        let counters = self.ctx.counters();
        match index {
            Some(_) => counters.dml_seeks.bump(),
            None => counters.dml_scans.bump(),
        }
        counters.dml_rows_located.add(rows.len() as u64);
        Ok(rows)
    }

    /// Add to `plan` what the statement does to the rows located in
    /// `target`, of those its full predicate keeps (a seek covers one
    /// column's intervals): a DELETE deletes them; an UPDATE updates each
    /// in place, or — when the target is a view member and the new
    /// partitioning key belongs to another member — deletes it here and
    /// inserts it there.
    fn plan_writes(&self, target: &BoundTarget, plan: &mut WritePlan) -> Result<()> {
        let meta = &target.meta;
        let positions = positions_of(&meta.column_ids);
        let (mut gone, mut in_place) = (Vec::new(), (Vec::new(), Vec::new()));
        for row in self.locate_rows(target)? {
            let env = RowEnv {
                positions: &positions,
                row: &row,
                ctx: &self.ctx,
            };
            let keep = target.predicate.as_ref().map(|p| eval_predicate(p, &env));
            if keep.transpose()? == Some(false) {
                continue;
            }
            let bookmark = row
                .bookmark
                .ok_or_else(|| DhqpError::Execute("row without bookmark".into()))?;
            if target.assignments.is_empty() {
                gone.push(bookmark);
                continue;
            }
            let mut new_row = Row::new(row.values.clone());
            for (pos, e) in &target.assignments {
                let mut v = eval_expr(e, &env)?;
                let declared = meta.catalog.schema.column(*pos).data_type;
                if !v.is_null() && v.data_type() != Some(declared) {
                    v = v.cast(declared)?;
                }
                new_row.values[*pos] = v;
            }
            if let (Some(view), Some(my_member)) = (&self.view, target.member) {
                let dest = view.route(new_row.get(view.partition_column))?;
                if dest != my_member {
                    gone.push(bookmark);
                    let table = &view.members[dest].table;
                    plan.table(&self.members[dest], table).insert.push(new_row);
                    continue;
                }
            }
            in_place.0.push(bookmark);
            in_place.1.push(new_row);
        }
        if !gone.is_empty() || !in_place.0.is_empty() {
            let here = plan.table(&target.server, &meta.table);
            (here.delete, here.update) = (gone, in_place);
        }
        Ok(())
    }
}

/// *Build remote query* (§4.1.2) for a write: the UPDATE/DELETE of `target`
/// as one statement in its provider's dialect. `None` when the rows have to
/// be located from here instead: the table is local; its provider is not a
/// full SQL command provider (below SQL-92, or speaking a command language
/// of its own); the predicate or a SET expression is beyond what the
/// dialect expresses; or a SET assigns the view's partitioning column, so a
/// row may have to leave for another member.
fn pushed_statement(target: &BoundTarget, view: Option<&PartitionedView>) -> Option<String> {
    target.server.as_ref()?;
    let meta = &target.meta;
    if meta.caps.sql_support != SqlSupport::Sql92 || meta.caps.proprietary_command {
        return None;
    }
    let moves = |(pos, _): &(usize, ScalarExpr)| view.is_some_and(|v| v.partition_column == *pos);
    if target.assignments.iter().any(moves) {
        return None;
    }
    let values = target.assignments.iter().map(|(_, e)| e);
    let mut texts = render_table_scalars(meta, values.chain(&target.predicate))?.into_iter();
    let quote = |name: &str| meta.caps.dialect.quote_ident(name);
    let sets: Vec<String> = target
        .assignments
        .iter()
        .zip(&mut texts)
        .map(|((pos, _), value)| {
            format!(
                "{} = {value}",
                quote(&meta.catalog.schema.column(*pos).name)
            )
        })
        .collect();
    let mut sql = match sets.is_empty() {
        true => format!("DELETE FROM {}", quote(&meta.table)),
        false => format!("UPDATE {} SET {}", quote(&meta.table), sets.join(", ")),
    };
    if let Some(predicate) = texts.next() {
        sql.push_str(" WHERE ");
        sql.push_str(&predicate);
    }
    Some(sql)
}

// ---------------------------------------------------------------------------
// UPDATE / DELETE
// ---------------------------------------------------------------------------

pub fn run_update(
    engine: &Engine,
    knobs: &Arc<Knobs>,
    stmt: &ast::UpdateStmt,
    params: &HashMap<String, Value>,
    ambient: Option<&mut LocalSession>,
) -> Result<QueryResult> {
    let (table, predicate, sets) = (&stmt.table, stmt.where_clause.as_ref(), &stmt.assignments);
    run_write(engine, knobs, table, predicate, sets, params, ambient)
}

pub fn run_delete(
    engine: &Engine,
    knobs: &Arc<Knobs>,
    stmt: &ast::DeleteStmt,
    params: &HashMap<String, Value>,
    ambient: Option<&mut LocalSession>,
) -> Result<QueryResult> {
    let (table, predicate) = (&stmt.table, stmt.where_clause.as_ref());
    run_write(engine, knobs, table, predicate, &[], params, ambient)
}

/// An UPDATE of `assignments`, or without any a DELETE: each target's whole
/// statement pushed, or its rows located and their writes planned; then the
/// plan applied. A moved row counts once, deleted at one member and
/// inserted at another.
fn run_write(
    engine: &Engine,
    knobs: &Arc<Knobs>,
    table: &ast::ObjectName,
    where_clause: Option<&ast::Expr>,
    assignments: &[(String, ast::Expr)],
    params: &HashMap<String, Value>,
    ambient: Option<&mut LocalSession>,
) -> Result<QueryResult> {
    let target = resolve_target(engine, table, ambient.is_some())?;
    let set = WriteSet::bind(engine, knobs, target, where_clause, assignments, params)?;
    let mut plan = WritePlan::default();
    for target in &set.targets {
        if !set.push(engine, target, &mut plan)? {
            set.plan_writes(target, &mut plan)?;
        }
    }
    let applied = apply(engine, ambient, &plan)?;
    let n = applied.updated + applied.deleted + applied.pushed;
    Ok(QueryResult::rows_affected(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhqp_oledb::ProviderCapabilities;
    use dhqp_optimizer::logical::{test_table_meta, Locality};
    use dhqp_optimizer::{ArithOp, ColumnRegistry};
    use dhqp_providers::{MiniSqlProvider, Sheet, SpreadsheetProvider};
    use dhqp_storage::StorageEngine;
    use dhqp_types::DataType;

    /// `UPDATE acct SET balance = balance - 1 WHERE id = 7`, or the DELETE
    /// with that predicate, against a provider with `caps`.
    fn target(caps: ProviderCapabilities, update: bool) -> BoundTarget {
        let columns = [("id", DataType::Int), ("balance", DataType::Int)];
        let mut registry = ColumnRegistry::new();
        let meta = test_table_meta(
            0,
            "acct",
            Locality::remote("m"),
            &columns,
            &mut registry,
            100,
        );
        let column = |pos| ScalarExpr::Column(meta.column_id(pos));
        let less_one = ScalarExpr::Arith {
            op: ArithOp::Sub,
            left: Box::new(column(1)),
            right: Box::new(ScalarExpr::literal(Value::Int(1))),
        };
        let head = Engine::new("head");
        let sheet = SpreadsheetProvider::new("xls", Vec::new());
        head.add_linked_server("m", Arc::new(sheet)).unwrap();
        BoundTarget {
            server: Some(head.link("m").unwrap()),
            predicate: Some(ScalarExpr::eq(
                column(0),
                ScalarExpr::literal(Value::Int(7)),
            )),
            assignments: if update {
                vec![(1, less_one)]
            } else {
                Vec::new()
            },
            member: None,
            meta: Arc::new(TableMeta {
                caps: Arc::new(caps),
                ..TableMeta::clone(&meta)
            }),
        }
    }

    #[test]
    fn only_a_full_sql_command_provider_is_sent_the_statement() {
        let engine = ProviderCapabilities::sql_server("SQLOLEDB");
        assert_eq!(
            pushed_statement(&target(engine.clone(), true), None).as_deref(),
            Some("UPDATE [acct] SET [balance] = ([balance] - 1) WHERE ([id] = 7)")
        );
        assert_eq!(
            pushed_statement(&target(engine.clone(), false), None).as_deref(),
            Some("DELETE FROM [acct] WHERE ([id] = 7)")
        );
        let no_where = BoundTarget {
            predicate: None,
            ..target(engine.clone(), false)
        };
        assert_eq!(
            pushed_statement(&no_where, None).as_deref(),
            Some("DELETE FROM [acct]")
        );

        // Below SQL-92, or speaking a command language of its own: located.
        let storage = Arc::new(StorageEngine::new("mdb"));
        let minisql = MiniSqlProvider::new("mdb", storage, SqlSupport::OdbcCore).unwrap();
        let sheet = SpreadsheetProvider::new("xls", vec![Sheet::new("acct", Vec::new())]);
        let proprietary = ProviderCapabilities {
            proprietary_command: true,
            ..engine.clone()
        };
        for caps in [minisql.capabilities(), sheet.capabilities(), proprietary] {
            let name = caps.provider_name.clone();
            assert_eq!(
                pushed_statement(&target(caps.clone(), true), None),
                None,
                "{name}"
            );
            assert_eq!(pushed_statement(&target(caps, false), None), None, "{name}");
        }

        // Nor is a local table, an expression the dialect cannot say, or a
        // parameter nobody supplied.
        let local = BoundTarget {
            server: None,
            ..target(engine.clone(), true)
        };
        assert_eq!(pushed_statement(&local, None), None);
        for value in [
            ScalarExpr::Param("missing".into()),
            ScalarExpr::Func {
                name: "DATE".into(),
                args: vec![ScalarExpr::literal(Value::Int(1))],
            },
            ScalarExpr::literal(Value::Float(f64::INFINITY)),
            ScalarExpr::literal(Value::Bool(true)),
        ] {
            let unsayable = BoundTarget {
                assignments: vec![(1, value)],
                ..target(engine.clone(), true)
            };
            assert_eq!(pushed_statement(&unsayable, None), None);
        }
    }

    /// Counts the allocations each thread asks for; every call goes on to
    /// `System` unchanged.
    mod counting {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        struct Counting;

        thread_local! {
            static ASKED: Cell<u64> = const { Cell::new(0) };
        }

        fn ask() {
            // `try_with`: the slot is gone while the thread is torn down.
            let _ = ASKED.try_with(|asked| asked.set(asked.get() + 1));
        }

        // SAFETY: every call is forwarded unchanged to `System`, which
        // upholds the `GlobalAlloc` contract; the counter never allocates.
        unsafe impl GlobalAlloc for Counting {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                ask();
                // SAFETY: same layout the caller vouched for.
                unsafe { System.alloc(layout) }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                // SAFETY: `ptr` came from `System` with this layout.
                unsafe { System.dealloc(ptr, layout) }
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                ask();
                // SAFETY: forwarded with the caller's guarantees intact.
                unsafe { System.realloc(ptr, layout, new_size) }
            }
        }

        #[global_allocator]
        static COUNTING: Counting = Counting;

        /// How many allocations `f` asked for on this thread.
        pub(super) fn asked(f: impl FnOnce()) -> u64 {
            let before = ASKED.with(Cell::get);
            f();
            ASKED.with(Cell::get) - before
        }
    }

    /// An INSERT into `accounts_all` routes each row to its member's entry
    /// in the plan: one push, and no allocation of the row's own. Over four
    /// members, one of them local, 2 048 rows ask for at most one more
    /// allocation per member than 1 024 — a vector doubling — where the
    /// participant key made as a `String` asked for one per row.
    #[test]
    fn routing_rows_into_a_write_plan_allocates_nothing_per_row() {
        let head = Engine::new("head");
        for name in ["m1", "m2", "m3"] {
            let sheet = SpreadsheetProvider::new("xls", Vec::new());
            head.add_linked_server(name, Arc::new(sheet)).unwrap();
        }
        let mut servers: Vec<Server> = vec![None];
        servers.extend(["m1", "m2", "m3"].map(|name| Some(head.link(name).unwrap())));
        let tables = ["accounts_0", "accounts_1", "accounts_2", "accounts_3"];
        let route = |n: i64| {
            let rows: Vec<Row> = (0..n)
                .map(|id| Row::new(vec![Value::Int(id), Value::Int(1_000)]))
                .collect();
            let mut plan = WritePlan::default();
            let asked = counting::asked(|| {
                for (i, row) in rows.into_iter().enumerate() {
                    let member = i % tables.len();
                    plan.table(&servers[member], tables[member])
                        .insert
                        .push(row);
                }
            });
            assert_eq!(plan.writers().len(), 4);
            assert!(plan.tables.iter().all(|t| t.insert.len() as i64 == n / 4));
            asked
        };
        let (n, twice) = (route(1_024), route(2_048));
        assert!(
            twice <= n + 4,
            "1 024 rows asked for {n} allocations, 2 048 for {twice}"
        );
    }

    #[test]
    fn a_set_on_the_partitioning_column_is_located() {
        let engine = ProviderCapabilities::sql_server("SQLOLEDB");
        let by = |partition_column| PartitionedView {
            name: "acct_all".into(),
            columns: vec!["id".into(), "balance".into()],
            partition_column,
            members: Vec::new(),
            catalogs: Vec::new(),
        };
        let member = BoundTarget {
            member: Some(0),
            ..target(engine, true)
        };
        assert!(pushed_statement(&member, Some(&by(0))).is_some());
        assert_eq!(pushed_statement(&member, Some(&by(1))), None);
    }
}
