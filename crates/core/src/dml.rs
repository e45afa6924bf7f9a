//! DML execution: INSERT / UPDATE / DELETE against local tables, remote
//! tables and (distributed) partitioned views, with 2PC when a statement
//! touches more than one server (paper §2: "SQL Server uses the Microsoft
//! Distributed Transaction Coordinator to ensure atomicity of transactions
//! across data sources").
//!
//! Every statement runs in three steps: **locate** every row it touches (or
//! route every row it inserts), collect the writes that follow into one
//! [`WritePlan`], and only then **apply** the plan. Nothing is written while
//! rows are still being located, so a statement never meets its own writes
//! (the Halloween problem), and the head knows each participant's last
//! write — the one its 2PC vote rides.

use crate::binder::Binder;
use crate::engine::Engine;
use crate::knobs::Knobs;
use crate::result::QueryResult;
use dhqp_dtc::DistributedTransaction;
use dhqp_executor::eval::{eval_expr, eval_predicate, positions_of, RowEnv};
use dhqp_executor::ops::retry::with_retries;
use dhqp_executor::ExecContext;
use dhqp_federation::PartitionedView;
use dhqp_oledb::{DataSource, KeyRange, RowsetExt, Session};
use dhqp_optimizer::logical::TableMeta;
use dhqp_optimizer::ScalarExpr;
use dhqp_sqlfront as ast;
use dhqp_types::{DhqpError, Interval, Result, Row, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// What a DML statement targets.
enum Target {
    View(PartitionedView),
    /// `(server, table)`; server None = local.
    Table(Option<String>, String),
}

fn resolve_target(engine: &Engine, name: &ast::ObjectName) -> Result<Target> {
    if name.0.len() == 1 {
        if let Some(view) = engine.partitioned_view(name.object()) {
            return Ok(Target::View(view));
        }
    }
    Ok(Target::Table(
        name.server().map(str::to_string),
        name.object().to_string(),
    ))
}

/// Key identifying one participant server in a multi-site statement.
fn server_key(server: &Option<String>) -> String {
    server.as_deref().unwrap_or("(local)").to_lowercase()
}

fn source_for(engine: &Engine, server: &Option<String>) -> Result<Arc<dyn DataSource>> {
    match server {
        None => Ok(engine.local_data_source() as Arc<dyn DataSource>),
        Some(s) => engine.linked_server(s),
    }
}

/// The per-server sessions of one statement: plain autocommit sessions
/// when it has a single participant, sessions enlisted in one distributed
/// transaction when it spans several.
enum Sessions<'e> {
    AutoCommit(&'e Engine, HashMap<String, Box<dyn Session>>),
    Enlisted(&'e Engine, DistributedTransaction),
}

impl<'e> Sessions<'e> {
    /// `participants` are the servers the statement may write to.
    fn new(engine: &'e Engine, participants: &[Option<String>]) -> Self {
        let servers: HashSet<String> = participants.iter().map(server_key).collect();
        if servers.len() <= 1 {
            Sessions::AutoCommit(engine, HashMap::new())
        } else {
            Sessions::Enlisted(engine, engine.dtc().begin())
        }
    }

    /// The statement's one session for `server`, connected (and enlisted)
    /// on first use.
    fn session(&mut self, server: &Option<String>) -> Result<&mut Box<dyn Session>> {
        let key = server_key(server);
        match self {
            Sessions::AutoCommit(engine, sessions) => {
                if !sessions.contains_key(&key) {
                    let session = source_for(engine, server)?.create_session()?;
                    sessions.insert(key.clone(), session);
                }
                Ok(sessions.get_mut(&key).expect("inserted above"))
            }
            Sessions::Enlisted(engine, txn) => {
                if !txn.participant_names().contains(&key) {
                    let session = source_for(engine, server)?.create_session()?;
                    txn.enlist(key.clone(), session)?;
                }
                txn.session_mut(&key)
            }
        }
    }

    /// Write `plan`, participant by participant in the order the statement
    /// first wrote to them, and commit. Under 2PC a participant's last
    /// request carries its vote, and one enlisted to locate rows that turned
    /// out to have none is read-only.
    fn apply(mut self, plan: &WritePlan) -> Result<Applied> {
        let mut applied = Applied::default();
        let mut written: Vec<&str> = Vec::new();
        for first in &plan.tables {
            if written.contains(&first.key.as_str()) {
                continue;
            }
            written.push(&first.key);
            let ops = participant_ops(plan.tables.iter().filter(|t| t.key == first.key));
            let Some((last, rest)) = ops.split_last() else {
                continue;
            };
            for op in rest {
                op.apply(self.session(&first.server)?.as_mut(), &mut applied)?;
            }
            // An INSERT's only request may also be the participant's first.
            self.session(&first.server)?;
            match &mut self {
                Sessions::AutoCommit(..) => {
                    last.apply(self.session(&first.server)?.as_mut(), &mut applied)?
                }
                Sessions::Enlisted(_, txn) => {
                    txn.write_and_vote(&first.key, |s| last.apply(s, &mut applied))?
                }
            }
        }
        if let Sessions::Enlisted(_, mut txn) = self {
            for name in txn.participant_names() {
                if !written.contains(&name.as_str()) {
                    txn.read_only(&name)?;
                }
            }
            txn.commit()?;
        }
        Ok(applied)
    }
}

// ---------------------------------------------------------------------------
// The write plan
// ---------------------------------------------------------------------------

/// Everything one statement writes to one table, coalesced: whatever
/// number of rows it deletes, updates in place, moves out or takes in, the
/// table sees at most one request of each kind.
#[derive(Default)]
struct TableWrites {
    /// [`server_key`] of `server`: tables with one key share a participant.
    key: String,
    server: Option<String>,
    table: String,
    delete: Vec<u64>,
    update: (Vec<u64>, Vec<Row>),
    insert: Vec<Row>,
}

/// The writes of one statement; a table is listed only if something is
/// written to it.
#[derive(Default)]
struct WritePlan {
    tables: Vec<TableWrites>,
}

impl WritePlan {
    /// The entry for `table` on `server`, added on first use.
    fn table(&mut self, server: &Option<String>, table: &str) -> &mut TableWrites {
        let key = server_key(server);
        let listed = self
            .tables
            .iter()
            .position(|t| t.key == key && t.table == table);
        let at = listed.unwrap_or_else(|| {
            self.tables.push(TableWrites {
                key,
                server: server.clone(),
                table: table.to_string(),
                ..TableWrites::default()
            });
            self.tables.len() - 1
        });
        &mut self.tables[at]
    }
}

/// One request of a plan.
enum WriteOp<'p> {
    Delete(&'p str, &'p [u64]),
    Update(&'p str, &'p [u64], &'p [Row]),
    Insert(&'p str, &'p [Row]),
}

/// A participant's requests in the order they are sent: deletes, then
/// in-place updates, then inserts, so that a key one row gives up is free
/// before another row takes it.
fn participant_ops<'p>(tables: impl Iterator<Item = &'p TableWrites> + Clone) -> Vec<WriteOp<'p>> {
    let deletes = tables.clone().filter(|t| !t.delete.is_empty());
    let updates = tables.clone().filter(|t| !t.update.0.is_empty());
    let inserts = tables.filter(|t| !t.insert.is_empty());
    deletes
        .map(|t| WriteOp::Delete(&t.table, &t.delete))
        .chain(updates.map(|t| WriteOp::Update(&t.table, &t.update.0, &t.update.1)))
        .chain(inserts.map(|t| WriteOp::Insert(&t.table, &t.insert)))
        .collect()
}

/// Row counts the providers reported, by kind of request.
#[derive(Default)]
struct Applied {
    deleted: u64,
    updated: u64,
    inserted: u64,
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
) -> Result<QueryResult> {
    let target = resolve_target(engine, &stmt.table)?;
    let source_rows: Vec<Vec<Value>> = match &stmt.source {
        ast::InsertSource::Values(rows) => {
            let mut binder = Binder::for_statement(engine, Arc::clone(knobs), params);
            let mut bound_rows = Vec::with_capacity(rows.len());
            for row in rows {
                bound_rows.push(binder.bind_standalone_exprs(row)?);
            }
            let registry = Arc::new(binder.registry_snapshot());
            let ctx = engine.exec_context(knobs, params.clone(), registry);
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
    let local_table = match &target {
        Target::Table(server, table) => {
            let info = engine.fresh_table_info(server.as_deref(), table)?;
            let arrange = |values| arrange_row(&stmt.columns, &info.columns, values);
            let rows = source_rows
                .into_iter()
                .map(arrange)
                .collect::<Result<Vec<_>>>()?;
            if !rows.is_empty() {
                plan.table(server, table).insert = rows;
            }
            server.is_none().then_some(table)
        }
        // Every row is routed before any is written, so a row no member
        // takes aborts the statement with nothing done.
        Target::View(view) => {
            let info = &view.members[0].schema_snapshot;
            for values in source_rows {
                let row = arrange_row(&stmt.columns, &info.columns, values)?;
                let member = &view.members[view.route(row.get(view.partition_column))?];
                plan.table(&member.server, &member.table).insert.push(row);
            }
            None
        }
    };
    let participants: Vec<_> = plan.tables.iter().map(|t| t.server.clone()).collect();
    let n = Sessions::new(engine, &participants).apply(&plan)?.inserted;
    if let Some(table) = local_table {
        engine.refresh_fulltext_index(table)?;
    }
    Ok(QueryResult::rows_affected(n))
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
    // Coerce to declared types (string dates → DATE etc.).
    for (v, c) in out.iter_mut().zip(table_columns) {
        if !v.is_null() && v.data_type() != Some(c.data_type) {
            if let Ok(cast) = v.cast(c.data_type) {
                *v = cast;
            }
        }
    }
    Ok(Row::new(out))
}

// ---------------------------------------------------------------------------
// UPDATE / DELETE: binding and row location
// ---------------------------------------------------------------------------

/// One table an UPDATE/DELETE writes, bound once for the statement.
struct BoundTarget {
    server: Option<String>,
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
    view: Option<PartitionedView>,
    targets: Vec<BoundTarget>,
    ctx: ExecContext,
}

impl WriteSet {
    fn bind(
        engine: &Engine,
        knobs: &Arc<Knobs>,
        name: &ast::ObjectName,
        where_clause: Option<&ast::Expr>,
        assignments: &[(String, ast::Expr)],
        params: &HashMap<String, Value>,
    ) -> Result<WriteSet> {
        let mut binder = Binder::for_statement(engine, Arc::clone(knobs), params).for_dml();
        let mut bind = |server: &Option<String>, table: &str, member| -> Result<BoundTarget> {
            let meta = binder.bind_dml_table(server.as_deref(), table)?;
            let predicate = where_clause
                .map(|e| binder.bind_expr_in_table(e, &meta))
                .transpose()?;
            let assignments = assignments
                .iter()
                .map(|(col, e)| {
                    let pos = meta
                        .schema
                        .index_of(col)
                        .ok_or_else(|| DhqpError::Bind(format!("unknown UPDATE column '{col}'")))?;
                    Ok((pos, binder.bind_expr_in_table(e, &meta)?))
                })
                .collect::<Result<Vec<_>>>()?;
            Ok(BoundTarget {
                server: server.clone(),
                meta,
                predicate,
                assignments,
                member,
            })
        };
        let (view, targets) = match resolve_target(engine, name)? {
            Target::Table(server, table) => (None, vec![bind(&server, &table, None)?]),
            Target::View(view) => {
                // Static pruning (§4.1.5): member 0's bound predicate gives
                // the partitioning-column domain that decides which other
                // members are bound, and written, at all.
                let mut bind_member = |m: usize| {
                    let member = &view.members[m];
                    bind(&member.server, &member.table, Some(m))
                };
                let first = bind_member(0)?;
                let members = match &first.predicate {
                    Some(p) => view.members_for_domain(
                        &p.domain_for(first.meta.column_id(view.partition_column)),
                    ),
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
        let ctx = engine.exec_context(knobs, params.clone(), Arc::new(binder.registry_snapshot()));
        Ok(WriteSet { view, targets, ctx })
    }

    /// Servers the bound targets live on.
    fn participants(&self) -> Vec<Option<String>> {
        self.targets.iter().map(|t| t.server.clone()).collect()
    }

    /// A write to a plain local table may have changed indexed text.
    fn refresh_fulltext(&self, engine: &Engine) -> Result<()> {
        match (&self.view, self.targets.as_slice()) {
            (None, [target]) if target.server.is_none() => {
                engine.refresh_fulltext_index(&target.meta.table)
            }
            _ => Ok(()),
        }
    }

    /// The index seek that reaches every row `predicate` can select in
    /// `target`: the first index whose leading key column the predicate
    /// bounds, over the hull of that column's domain (narrowed by the CHECK
    /// range when the column partitions a view member). One seek is one
    /// request, like the scan it replaces; splitting a hull with holes into
    /// a seek per interval would trade round trips for bytes, a cost
    /// decision this path does not take.
    fn plan_seek(&self, target: &BoundTarget, predicate: &ScalarExpr) -> Seek {
        let meta = &target.meta;
        if target.server.is_some() && !meta.caps.index_support {
            return Seek::Unbounded;
        }
        for index in &meta.indexes {
            let Some(lead) = meta.schema.index_of(&index.key_columns[0]) else {
                continue;
            };
            let mut domain = predicate.domain_for(meta.column_id(lead));
            if domain.hull() == Some(Interval::full()) {
                // The predicate does not bound this key; a CHECK range
                // alone would only re-read the whole member in key order.
                continue;
            }
            if let (Some(view), Some(m)) = (&self.view, target.member) {
                if view.partition_column == lead {
                    domain = domain.intersect(&view.members[m].check);
                }
            }
            let Some(hull) = domain.hull() else {
                return Seek::NoRows;
            };
            if let Some(range) = KeyRange::covering(&hull, meta.schema.column(lead).data_type) {
                return Seek::Range(index.name.clone(), range);
            }
        }
        Seek::Unbounded
    }

    /// Read the rows of `target` its predicate selects, bookmarks attached,
    /// through the statement's own session for that server — the one that
    /// issues the bookmark writes afterwards, enlisted or not.
    fn locate_rows(
        &self,
        engine: &Engine,
        knobs: &Arc<Knobs>,
        sessions: &mut Sessions,
        target: &BoundTarget,
    ) -> Result<Vec<Row>> {
        let table = &target.meta.table;
        let mut seek = match target.predicate.as_ref().map(|p| self.plan_seek(target, p)) {
            Some(Seek::NoRows) => return Ok(Vec::new()),
            Some(Seek::Range(index, range)) => Some((index, range)),
            Some(Seek::Unbounded) | None => None,
        };
        let session = sessions.session(&target.server)?;
        // Row location is a read: a transient fault here is absorbed by
        // re-reading, while the bookmark write that follows never retries.
        let rows = with_retries(&knobs.retry, &engine.exec_counters(), || {
            if let Some((index, range)) = &seek {
                match session.open_index(table, index, range) {
                    Ok(mut rowset) => return rowset.collect_rows(),
                    // Index metadata without IRowsetIndex behind it.
                    Err(DhqpError::Unsupported(_)) => seek = None,
                    Err(e) => return Err(e),
                }
            }
            session.open_rowset(table)?.collect_rows()
        })?;
        engine.record_dml_read(seek.is_some(), rows.len() as u64);
        let Some(predicate) = &target.predicate else {
            return Ok(rows);
        };
        // The seek covers a hull on one column; the full predicate decides.
        let positions = positions_of(&target.meta.column_ids);
        let mut out = Vec::new();
        for row in rows {
            let env = RowEnv {
                positions: &positions,
                row: &row,
                ctx: &self.ctx,
            };
            if eval_predicate(predicate, &env)? {
                out.push(row);
            }
        }
        Ok(out)
    }
}

/// How the rows a predicate can select are read.
enum Seek {
    /// The key domain is empty: no row qualifies, nothing is read.
    NoRows,
    /// `(index, range)`.
    Range(String, KeyRange),
    /// No index bounds the predicate — read the whole table.
    Unbounded,
}

fn bookmark_of(row: &Row) -> Result<u64> {
    row.bookmark
        .ok_or_else(|| DhqpError::Execute("row without bookmark".into()))
}

// ---------------------------------------------------------------------------
// DELETE
// ---------------------------------------------------------------------------

pub fn run_delete(
    engine: &Engine,
    knobs: &Arc<Knobs>,
    stmt: &ast::DeleteStmt,
    params: &HashMap<String, Value>,
) -> Result<QueryResult> {
    let set = WriteSet::bind(
        engine,
        knobs,
        &stmt.table,
        stmt.where_clause.as_ref(),
        &[],
        params,
    )?;
    let mut sessions = Sessions::new(engine, &set.participants());
    let mut plan = WritePlan::default();
    for target in &set.targets {
        let rows = set.locate_rows(engine, knobs, &mut sessions, target)?;
        if !rows.is_empty() {
            let bookmarks = rows.iter().map(bookmark_of).collect::<Result<Vec<_>>>()?;
            plan.table(&target.server, &target.meta.table).delete = bookmarks;
        }
    }
    let n = sessions.apply(&plan)?.deleted;
    set.refresh_fulltext(engine)?;
    Ok(QueryResult::rows_affected(n))
}

// ---------------------------------------------------------------------------
// UPDATE
// ---------------------------------------------------------------------------

pub fn run_update(
    engine: &Engine,
    knobs: &Arc<Knobs>,
    stmt: &ast::UpdateStmt,
    params: &HashMap<String, Value>,
) -> Result<QueryResult> {
    let set = WriteSet::bind(
        engine,
        knobs,
        &stmt.table,
        stmt.where_clause.as_ref(),
        &stmt.assignments,
        params,
    )?;
    // Partition-key updates may move rows to any member, so every member
    // becomes a potential participant.
    let participants = match &set.view {
        Some(view)
            if stmt
                .assignments
                .iter()
                .any(|(c, _)| view.columns[view.partition_column].eq_ignore_ascii_case(c)) =>
        {
            view.members.iter().map(|m| m.server.clone()).collect()
        }
        _ => set.participants(),
    };
    let mut sessions = Sessions::new(engine, &participants);
    let mut plan = WritePlan::default();
    for target in &set.targets {
        let rows = set.locate_rows(engine, knobs, &mut sessions, target)?;
        set.plan_update(target, rows, &mut plan)?;
    }
    let applied = sessions.apply(&plan)?;
    set.refresh_fulltext(engine)?;
    // A moved row is deleted at one member and inserted at another.
    let n = applied.updated + applied.deleted;
    Ok(QueryResult::rows_affected(n))
}

impl WriteSet {
    /// Add to `plan` what the UPDATE does to `rows`, the rows located in
    /// `target`: an in-place update, or — when the target is a view member
    /// and the new partitioning key belongs to another member — a delete
    /// here and an insert there.
    fn plan_update(
        &self,
        target: &BoundTarget,
        rows: Vec<Row>,
        plan: &mut WritePlan,
    ) -> Result<()> {
        let meta = &target.meta;
        let positions = positions_of(&meta.column_ids);
        let (mut moved_out, mut in_place) = (Vec::new(), (Vec::new(), Vec::new()));
        for row in rows {
            let bookmark = bookmark_of(&row)?;
            let mut new_row = row.clone();
            let env = RowEnv {
                positions: &positions,
                row: &row,
                ctx: &self.ctx,
            };
            for (pos, e) in &target.assignments {
                let mut v = eval_expr(e, &env)?;
                let declared = meta.schema.column(*pos).data_type;
                if !v.is_null() && v.data_type() != Some(declared) {
                    if let Ok(cast) = v.cast(declared) {
                        v = cast;
                    }
                }
                new_row.values[*pos] = v;
            }
            new_row.bookmark = None;
            if let (Some(view), Some(my_member)) = (&self.view, target.member) {
                let dest = view.route(new_row.get(view.partition_column))?;
                if dest != my_member {
                    moved_out.push(bookmark);
                    let dest = &view.members[dest];
                    plan.table(&dest.server, &dest.table).insert.push(new_row);
                    continue;
                }
            }
            in_place.0.push(bookmark);
            in_place.1.push(new_row);
        }
        if !moved_out.is_empty() || !in_place.0.is_empty() {
            let here = plan.table(&target.server, &meta.table);
            (here.delete, here.update) = (moved_out, in_place);
        }
        Ok(())
    }
}
