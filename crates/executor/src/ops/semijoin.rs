//! Key shipping: the executor half of the paper's parameterized remote
//! access (§4.1.2) and semi-join reduction (§4.1.5 byte minimization).
//!
//! A request binds the remote statement's key-set parameter `@__keys0` to
//! up to `n` distinct non-NULL join keys of the build (outer) child,
//! spelled in the provider's dialect — or, for a provider that takes no
//! statement, opens an `IRowsetIndex` range of its index over one key — so
//! only matching rows cross the link; they are hash-joined back against the
//! build rows, re-checking the full predicate. The outer side is read a
//! block at a time until the rows read hold `n` keys or it ends, and the
//! keys ship `n` to a request; short of the end, fewer than `n` left over
//! wait for more rows. `k` distinct keys thus cost ⌈k/n⌉ requests (a key
//! met again after it shipped ships again). Nothing ships at open, and an
//! empty key set answers with zero round trips.

use crate::context::ExecContext;
use crate::eval::positions_of;
use crate::ops::join::{open_hash_join, passes};
use crate::ops::remote::{open_remote_range, open_remote_text, remote_query_text, Remote};
use crate::stats::SemiJoinTrace;
use dhqp_oledb::{Dialect, MemRowset, RowCursor, Rowset, RowsetExt};
use dhqp_optimizer::physical::{PhysNode, PhysicalOp, RemoteParam};
use dhqp_optimizer::{ColumnId, JoinKind, ScalarExpr, TableMeta};
use dhqp_types::{DhqpError, Result, Row, RowBatch, Schema, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Stable 64-bit FNV-1a fingerprint of a shipped predicate, rendered as
/// 16 hex digits. Short enough for an error message, stable enough that
/// `sys.dm_link_health` can correlate repeated failures of the same
/// filter-ship shape.
pub fn predicate_fingerprint(text: &str) -> String {
    format!("{:016x}", dhqp_types::fnv1a_64(text))
}

/// Open a `SemiJoinReduce` node over its (already opened) build child.
/// Nothing is read or shipped until the first pull.
pub fn open_semijoin_reduce(
    plan: &PhysNode,
    build: Box<dyn Rowset>,
    ctx: &ExecContext,
    node: usize,
) -> Result<Box<dyn Rowset>> {
    let PhysicalOp::SemiJoinReduce {
        kind,
        build_key,
        probe_key,
        residual,
        server,
        sql,
        columns,
        params,
        per_request,
        index,
    } = &plan.op
    else {
        unreachable!("open_semijoin_reduce on {}", plan.op.name());
    };
    let build_columns = plan.children[0].output.clone();
    let at = |columns: &[ColumnId], key: &ColumnId, side: &str| {
        columns.iter().position(|c| c == key).ok_or_else(|| {
            DhqpError::Execute(format!(
                "semi-join {side} key #{} is not among the {side} side's outputs",
                key.0
            ))
        })
    };
    let key_pos = [
        at(&build_columns, build_key, "build")?,
        at(columns, probe_key, "probe")?,
    ];
    let remote = Remote::new(server, ctx.member_checks_in_sql(server, sql), ctx)?;
    let dialect = remote.source.capabilities().dialect;
    let unbound = remote_query_text(sql, params, &[], &dialect, ctx)?.len();
    Ok(Box::new(KeyShipping {
        kind: *kind,
        join_keys: [
            ScalarExpr::Column(*build_key),
            ScalarExpr::Column(*probe_key),
        ],
        key_pos,
        residual: residual.clone(),
        remote,
        dialect,
        sql: sql.clone(),
        params: params.clone(),
        unbound,
        index: index.clone(),
        per_request: *per_request,
        build_columns,
        columns: columns.clone(),
        ctx: ctx.clone(),
        node,
        outer: Some(build),
        held: Vec::new(),
        joined: MemRowset::empty(ctx.schema_of(&plan.output)),
        trace: None,
    }))
}

/// A `SemiJoinReduce` being read.
struct KeyShipping {
    kind: JoinKind,
    /// The build and the probe join key.
    join_keys: [ScalarExpr; 2],
    /// Where the join key sits in a build row and in a remote row.
    key_pos: [usize; 2],
    residual: Option<ScalarExpr>,
    /// The probe side's server and its dialect, both resolved once at open:
    /// whatever keys are bound, the statement reads the same members.
    remote: Remote,
    dialect: Dialect,
    sql: String,
    params: Vec<RemoteParam>,
    /// Length of `sql` rendered with no keys: a request's text is longer by
    /// its rendered key list.
    unbound: usize,
    /// The probe table and the index a request seeks in place of `sql`.
    index: Option<(Arc<TableMeta>, String)>,
    /// Keys one request carries at most.
    per_request: usize,
    build_columns: Vec<ColumnId>,
    columns: Vec<ColumnId>,
    ctx: ExecContext,
    node: usize,
    /// The build child, read a block at a time — at most the caller's
    /// demand, so `TOP n` over one key per request sends at most `n`
    /// requests — and dropped at its end.
    outer: Option<Box<dyn Rowset>>,
    /// Outer rows read but not shipped for yet: their keys are short of a
    /// whole request.
    held: Vec<Row>,
    /// Joined rows not handed on yet.
    joined: MemRowset,
    /// What this open has shipped so far; `None` before its first round.
    trace: Option<SemiJoinTrace>,
}

impl KeyShipping {
    /// The next rows to ship for, and their distinct non-NULL join keys in
    /// first-seen order: the held rows, then outer blocks until the rows
    /// hold `per_request` keys or the outer side ends. Short of the end,
    /// only whole blocks of keys ship; the rows of the rest are held.
    fn pending(&mut self, max: usize) -> Result<(Vec<Row>, Vec<Value>)> {
        let (mut rows, mut keys, mut seen) = (Vec::new(), Vec::new(), HashSet::new());
        let mut block = std::mem::take(&mut self.held);
        loop {
            for row in block {
                let key = row.get(self.key_pos[0]);
                if !key.is_null() && seen.insert(key.clone()) {
                    keys.push(key.clone());
                }
                rows.push(row);
            }
            if keys.len() >= self.per_request {
                break;
            }
            let Some(outer) = self.outer.as_mut() else {
                break;
            };
            let Some(next) = outer.next_batch(max)? else {
                self.outer = None;
                break;
            };
            block = next.into_rows();
        }
        if self.outer.is_some() {
            let whole = keys.len() / self.per_request * self.per_request;
            let rest: HashSet<Value> = keys.drain(whole..).collect();
            (self.held, rows) = rows
                .into_iter()
                .partition(|row| rest.contains(row.get(self.key_pos[0])));
        }
        Ok((rows, keys))
    }

    /// Ship `keys` in requests of up to `per_request` keys each, and join
    /// what comes back against `rows`.
    fn ship(&mut self, rows: Vec<Row>, keys: &[Value]) -> Result<()> {
        let (mut fetched, mut filter_bytes) = (Vec::new(), 0);
        for block in keys.chunks(self.per_request) {
            let remote = match &self.index {
                Some((meta, index)) => {
                    let seek = ScalarExpr::InList {
                        expr: Box::new(self.join_keys[1].clone()),
                        list: block.to_vec().into(),
                        negated: false,
                    };
                    open_remote_range(meta, index, Some(&seek), &self.ctx, self.node)?
                }
                None => {
                    let (sql, params, dialect) = (&self.sql, &self.params, &self.dialect);
                    let text = remote_query_text(sql, params, block, dialect, &self.ctx)?;
                    filter_bytes += text.len().saturating_sub(self.unbound) as u64;
                    let fp = predicate_fingerprint(&text);
                    let tag = format!("shipped predicate fp={fp} keys={}", block.len());
                    open_remote_text(self.remote.clone(), text, Some(tag), &self.ctx, self.node)?
                }
            };
            fetched.extend(self.fetch(remote, block, &rows)?);
        }
        self.report(keys.len() as u64, filter_bytes);
        let fetched = MemRowset::new(self.ctx.schema_of(&self.columns), fetched);
        let build = MemRowset::new(self.ctx.schema_of(&self.build_columns), rows);
        self.joined = open_hash_join(
            Box::new(build),
            Box::new(fetched),
            self.kind,
            &self.join_keys[..1],
            &self.join_keys[1..],
            self.residual.as_ref(),
            &self.build_columns,
            &self.columns,
            self.joined.schema().clone(),
            &self.ctx,
        )?;
        Ok(())
    }

    /// One request's rowset, read as far as the join back needs it: to its
    /// end, or by a semi join until every row of `rows` holding one of
    /// `keys` has matched.
    fn fetch(&self, mut remote: Box<dyn Rowset>, keys: &[Value], rows: &[Row]) -> Result<Vec<Row>> {
        if self.kind != JoinKind::Semi {
            return remote.collect_rows_batched(self.ctx.batch().batch_size);
        }
        let mut waiting: HashMap<&Value, Vec<&Row>> = keys.iter().map(|k| (k, vec![])).collect();
        for row in rows {
            if let Some(same_key) = waiting.get_mut(row.get(self.key_pos[0])) {
                same_key.push(row);
            }
        }
        let positions = positions_of(&[&self.build_columns[..], &self.columns].concat());
        let (mut remote, mut kept) = (RowCursor::new(remote, 1), Vec::new());
        let residual = self.residual.as_ref();
        while !waiting.is_empty() {
            let Some(row) = remote.next_row()? else {
                break;
            };
            let Some(same_key) = waiting.get_mut(row.get(self.key_pos[1])) else {
                continue;
            };
            let mut still = Vec::with_capacity(same_key.len());
            for outer in same_key.iter() {
                if !passes(residual, &positions, &outer.join(&row), &self.ctx)? {
                    still.push(*outer);
                }
            }
            let matched = still.len() < same_key.len();
            if still.is_empty() {
                waiting.remove(row.get(self.key_pos[1]));
            } else {
                *same_key = still;
            }
            if matched {
                kept.push(row);
            }
        }
        Ok(kept)
    }

    /// Count one round of shipping, and attribute this open's running
    /// total to its node (a rescan starts its own).
    fn report(&mut self, keys: u64, filter_bytes: u64) {
        let counters = self.ctx.counters();
        if self.trace.is_none() {
            counters.semijoin_reductions.bump();
        }
        counters.semijoin_filter_bytes.add(filter_bytes);
        let trace = self.trace.get_or_insert_with(SemiJoinTrace::default);
        trace.keys += keys;
        trace.filter_bytes += filter_bytes;
        if let Some(collector) = self.ctx.stats() {
            collector.record_semijoin(self.node, *trace);
        }
    }
}

impl Rowset for KeyShipping {
    fn schema(&self) -> &Schema {
        self.joined.schema()
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        loop {
            if let Some(batch) = self.joined.next_batch(max)? {
                return Ok(Some(batch));
            }
            if self.outer.is_none() {
                return Ok(None);
            }
            let (rows, keys) = self.pending(max)?;
            self.ship(rows, &keys)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::open;
    use crate::context::test_support::TestCatalog;
    use crate::context::BatchConfig;
    use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
    use dhqp_oledb::{DataSource, SqlSupport};
    use dhqp_optimizer::logical::test_table_meta;
    use dhqp_optimizer::props::ColumnRegistry;
    use dhqp_optimizer::scalar::CmpOp;
    use dhqp_optimizer::{Locality, TableMeta};
    use dhqp_providers::MiniSqlProvider;
    use dhqp_storage::{LocalDataSource, StorageEngine, TableDef};
    use dhqp_types::{Column, DataType};
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::Arc;

    /// Local `o(id, k)` holding `outer` and, behind one metered link, an
    /// ODBC-Core source `mini` with `t(k, v)`: 24 rows, keys 0..8 three
    /// times each, `v` = the row number. The same table is also linked as
    /// `ix`, a provider that opens its index `ix_t_k` on `k` (`t_ix`).
    struct Fixture {
        ctx: ExecContext,
        link: NetworkLink,
        o: Arc<TableMeta>,
        t: Arc<TableMeta>,
        t_ix: Arc<TableMeta>,
    }

    fn fixture(outer: &[(i64, Option<i64>)]) -> Fixture {
        let int_pair = |a: &str, b: &str| {
            Schema::new(vec![
                Column::new(a, DataType::Int),
                Column::new(b, DataType::Int),
            ])
        };
        let remote = Arc::new(StorageEngine::new("mini"));
        let def = TableDef::new("t", int_pair("k", "v")).with_index("ix_t_k", &["k"], false);
        remote.create_table(def).unwrap();
        let rows: Vec<Row> = (0..24)
            .map(|i| Row::new(vec![Value::Int(i % 8), Value::Int(i)]))
            .collect();
        remote.insert_rows("t", &rows).unwrap();
        let local = Arc::new(StorageEngine::new("local"));
        local
            .create_table(TableDef::new("o", int_pair("id", "k")))
            .unwrap();
        let rows: Vec<Row> = outer
            .iter()
            .map(|&(id, k)| Row::new(vec![Value::Int(id), k.map_or(Value::Null, Value::Int)]))
            .collect();
        local.insert_rows("o", &rows).unwrap();

        let mut registry = ColumnRegistry::new();
        let ints = [("id", DataType::Int), ("k", DataType::Int)];
        let o = test_table_meta(0, "o", Locality::Local, &ints, &mut registry, 8);
        let ints = [("k", DataType::Int), ("v", DataType::Int)];
        let t = test_table_meta(1, "t", Locality::remote("mini"), &ints, &mut registry, 24);
        let mut t_ix = (*t).clone();
        t_ix.source = Locality::remote("ix");
        Arc::make_mut(&mut t_ix.catalog).indexes = vec![dhqp_oledb::IndexInfo {
            name: "ix_t_k".into(),
            key_columns: vec!["k".into()],
            unique: false,
        }];
        let link = NetworkLink::new("mini", NetworkConfig::lan());
        let indexed = LocalDataSource::new(Arc::clone(&remote));
        let provider = MiniSqlProvider::new("minidb", remote, SqlSupport::OdbcCore).unwrap();
        let mut catalog = TestCatalog::with_local(local);
        let sources: [(&str, Arc<dyn DataSource>); 2] =
            [("mini", Arc::new(provider)), ("ix", Arc::new(indexed))];
        for (name, source) in sources {
            let linked = NetworkedDataSource::reliable(source, link.clone());
            catalog.remotes.insert(name.into(), Arc::new(linked));
        }
        let ctx = ExecContext::new(Arc::new(catalog), HashMap::new(), Arc::new(registry));
        let t_ix = Arc::new(t_ix);
        Fixture {
            ctx,
            link,
            o,
            t,
            t_ix,
        }
    }

    impl Fixture {
        /// `SELECT k, v FROM t`, restricted by `restriction`.
        fn sql(&self, restriction: &str) -> String {
            let [k, v] = [self.t.column_ids[0].0, self.t.column_ids[1].0];
            format!("SELECT [t0].[k] AS [c{k}], [t0].[v] AS [c{v}] FROM [t] AS [t0]{restriction}")
        }

        fn outer(&self) -> PhysNode {
            let o = Arc::clone(&self.o);
            PhysNode::new(
                PhysicalOp::TableScan { meta: o },
                vec![],
                self.o.column_ids.clone(),
            )
        }

        fn output(&self, kind: JoinKind) -> Vec<ColumnId> {
            let mut output = self.o.column_ids.clone();
            if kind == JoinKind::Inner {
                output.extend(&self.t.column_ids);
            }
            output
        }

        /// `o.k = t.k`, and `t.v >= o.id` when `ranged`.
        fn predicate(&self, ranged: bool) -> ScalarExpr {
            let col = |meta: &TableMeta, i: usize| ScalarExpr::Column(meta.column_id(i));
            let eq = ScalarExpr::eq(col(&self.o, 1), col(&self.t, 0));
            let ge = ScalarExpr::cmp(CmpOp::Ge, col(&self.t, 1), col(&self.o, 0));
            match ranged {
                true => ScalarExpr::and(vec![eq, ge]).unwrap(),
                false => eq,
            }
        }

        /// Key shipping at `per_request` keys per request: `k = @__keys0`
        /// for one, `k IN (@__keys0)` for more, as the decoder renders them.
        fn shipping(&self, kind: JoinKind, ranged: bool, per_request: usize) -> PhysNode {
            let op = PhysicalOp::SemiJoinReduce {
                kind,
                build_key: self.o.column_id(1),
                probe_key: self.t.column_id(0),
                residual: Some(self.predicate(ranged)),
                server: Arc::from("mini"),
                sql: match per_request {
                    1 => self.sql(" WHERE ([t0].[k] = @__keys0)"),
                    _ => self.sql(" WHERE ([t0].[k] IN (@__keys0))"),
                },
                columns: self.t.column_ids.clone(),
                params: vec![RemoteParam::KeySet],
                per_request,
                index: None,
            };
            PhysNode::new(op, vec![self.outer()], self.output(kind))
        }

        /// Key shipping through `ix_t_k` at `ix`, one key per request.
        fn through_index(&self, kind: JoinKind, ranged: bool) -> PhysNode {
            let mut plan = self.shipping(kind, ranged, 1);
            let PhysicalOp::SemiJoinReduce {
                server,
                sql,
                params,
                index,
                ..
            } = &mut plan.op
            else {
                unreachable!()
            };
            *server = Arc::from("ix");
            sql.clear();
            params.clear();
            *index = Some((Arc::clone(&self.t_ix), "ix_t_k".into()));
            plan
        }

        /// The unreduced plan: fetch all of `t`, hash-join it.
        fn unreduced(&self, kind: JoinKind, ranged: bool) -> PhysNode {
            let fetch = PhysicalOp::RemoteQuery {
                server: Arc::from("mini"),
                sql: self.sql(""),
                columns: self.t.column_ids.clone(),
                params: vec![],
            };
            let join = PhysicalOp::HashJoin {
                kind,
                left_keys: vec![ScalarExpr::Column(self.o.column_id(1))],
                right_keys: vec![ScalarExpr::Column(self.t.column_id(0))],
                residual: Some(self.predicate(ranged)),
            };
            let children = vec![
                self.outer(),
                PhysNode::new(fetch, vec![], self.t.column_ids.clone()),
            ];
            PhysNode::new(join, children, self.output(kind))
        }

        /// The rows `plan` answers at `batch` rows per pull, and the
        /// statements it sent (each also costs the unpooled session a
        /// connect request on the link).
        fn run(&self, plan: &PhysNode, batch: usize) -> (Vec<Row>, u64) {
            let ctx = self.ctx.clone().with_batch(BatchConfig::batched(batch));
            let before = (
                self.link.snapshot().requests,
                ctx.counters().remote_roundtrips.get(),
            );
            let rows = open(plan, &ctx)
                .unwrap()
                .collect_rows_batched(batch)
                .unwrap();
            let sent = ctx.counters().remote_roundtrips.get() - before.1;
            assert_eq!(self.link.snapshot().requests - before.0, 2 * sent);
            (rows, sent)
        }
    }

    fn sorted(mut rows: Vec<Row>) -> Vec<String> {
        let mut rows: Vec<String> = rows.drain(..).map(|r| format!("{:?}", r.values)).collect();
        rows.sort();
        rows
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every `n` keys per request, and one key per request through an
        /// index, answers what fetching the whole table and hash-joining it
        /// answers — NULL, duplicate and missing outer keys, an empty outer
        /// side, a residual beyond the key — and ships ⌈distinct non-NULL
        /// keys / n⌉ requests when one block holds them all; one key per
        /// request also keeps the outer order.
        #[test]
        fn every_n_keys_per_request_answers_like_the_unreduced_fetch(
            keys in prop::collection::vec(prop::option::of(0i64..12), 0..10),
            semi in any::<bool>(),
            ranged in any::<bool>(),
            batch in 1usize..5,
        ) {
            let outer: Vec<(i64, Option<i64>)> = (0..).zip(keys.iter().copied()).collect();
            let f = fixture(&outer);
            let kind = if semi { JoinKind::Semi } else { JoinKind::Inner };
            let (want, _) = f.run(&f.unreduced(kind, ranged), batch);

            let distinct = keys.iter().flatten().collect::<HashSet<_>>().len() as u64;
            let by_text = [1, 2, 3, 64].map(|n| (n, f.shipping(kind, ranged, n)));
            for (n, plan) in by_text.into_iter().chain([(1, f.through_index(kind, ranged))]) {
                let form = plan.describe();
                let (got, _) = f.run(&plan, batch);
                if n == 1 {
                    prop_assert_eq!((&form, &got), (&form, &want));
                }
                prop_assert_eq!((&form, sorted(got)), (&form, sorted(want.clone())));
                let (_, requests) = f.run(&plan, 1024);
                prop_assert_eq!((&form, requests), (&form, distinct.div_ceil(n as u64)));
            }
        }
    }

    /// `TOP n` over the one-key form, by statement or through an index,
    /// sends at most `n` requests when every key matches: it asks for `n`
    /// rows, and each key answers at least one.
    #[test]
    fn top_n_over_one_key_per_request_sends_at_most_n_requests() {
        let outer: Vec<(i64, Option<i64>)> = (0..8).map(|i| (i, Some(i))).collect();
        let f = fixture(&outer);
        for kind in [JoinKind::Inner, JoinKind::Semi] {
            for probe in [f.shipping(kind, false, 1), f.through_index(kind, false)] {
                let form = probe.describe();
                for n in 1..=4 {
                    let output = probe.output.clone();
                    let top = PhysNode::new(PhysicalOp::Top { n }, vec![probe.clone()], output);
                    for batch in [1, 3, 1024] {
                        let (rows, requests) = f.run(&top, batch);
                        let at = format!("{form} {kind:?} n={n} batch={batch}");
                        assert_eq!(rows.len() as u64, n, "{at}");
                        assert!(requests <= n, "{at}: {requests} requests");
                    }
                }
            }
        }
    }

    /// Nothing ships at open: a node dropped before its first pull sent
    /// no request, whatever `n` it carries.
    #[test]
    fn an_unpulled_open_sends_no_request() {
        let outer: Vec<(i64, Option<i64>)> = (0..8).map(|i| (i, Some(i % 3))).collect();
        let f = fixture(&outer);
        for n in [1, 64] {
            let before = f.link.snapshot().requests;
            drop(open(&f.shipping(JoinKind::Inner, false, n), &f.ctx).unwrap());
            assert_eq!(f.link.snapshot().requests, before, "n={n}");
        }
    }

    #[test]
    fn fingerprint_is_stable_and_shape_sensitive() {
        let a = predicate_fingerprint("WHERE [c3] IN (1, 2)");
        assert_eq!(a, predicate_fingerprint("WHERE [c3] IN (1, 2)"));
        assert_ne!(a, predicate_fingerprint("WHERE [c3] IN (1, 3)"));
        assert_eq!(a.len(), 16);
        // Known FNV-1a answers: the fingerprints `sys.dm_link_health` has
        // been showing did not move with the hash's home.
        assert_eq!(predicate_fingerprint(""), "cbf29ce484222325");
        assert_eq!(predicate_fingerprint("a"), "af63dc4c8601ec8c");
    }
}
