//! Key shipping: the executor half of the paper's parameterized remote
//! access (§4.1.2) and semi-join reduction (§4.1.5 byte minimization).
//!
//! A request binds the remote statement's key-set parameter `@__keys0` to
//! distinct non-NULL join keys of the build (outer) child, spelled in the
//! provider's dialect, so only matching rows cross the link; they are
//! hash-joined back against the build rows, re-checking the full predicate.
//! One key per request reads the outer side a block at a time; all keys at
//! once drain it, and fall back to the unreduced statement — never a
//! semantic change — past `max_keys` keys (the estimate undershot) or when
//! the reduced open exhausts its retries. An empty key set answers locally
//! with zero round trips.

use crate::context::ExecContext;
use crate::eval::positions_of;
use crate::ops::join::{open_hash_join, passes};
use crate::ops::remote::{open_remote_text, remote_query_text};
use crate::stats::SemiJoinTrace;
use dhqp_oledb::{MemRowset, RowCursor, Rowset, RowsetExt};
use dhqp_optimizer::physical::{KeysPerRequest, PhysNode, PhysicalOp, RemoteParam};
use dhqp_optimizer::{ColumnId, JoinKind, ScalarExpr};
use dhqp_types::{DhqpError, Result, Row, RowBatch, Schema, Value};
use std::collections::HashSet;
use std::sync::Arc;

/// Stable 64-bit FNV-1a fingerprint of a shipped predicate, rendered as
/// 16 hex digits. Short enough for an error message, stable enough that
/// `sys.dm_link_health` can correlate repeated failures of the same
/// filter-ship shape.
pub fn predicate_fingerprint(text: &str) -> String {
    format!("{:016x}", dhqp_types::fnv1a_64(text))
}

/// Open a `SemiJoinReduce` node over its (already opened) build child: all
/// keys ship and join back now, one key per request as rows are read.
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
    } = &plan.op
    else {
        unreachable!("open_semijoin_reduce on {}", plan.op.name());
    };
    let build_columns = plan.children[0].output.clone();
    let key_pos = build_columns
        .iter()
        .position(|c| c == build_key)
        .ok_or_else(|| {
            DhqpError::Execute(format!(
                "semi-join build key #{} is not among the build child's outputs",
                build_key.0
            ))
        })?;
    let mut shipping = KeyShipping {
        kind: *kind,
        join_keys: [
            ScalarExpr::Column(*build_key),
            ScalarExpr::Column(*probe_key),
        ],
        key_pos,
        residual: residual.clone(),
        server: Arc::clone(server),
        sql: sql.clone(),
        params: params.clone(),
        build_columns,
        columns: columns.clone(),
        ctx: ctx.clone(),
        node,
        outer: build,
        joined: MemRowset::empty(ctx.schema_of(&plan.output)),
    };
    if let KeysPerRequest::All {
        max_keys,
        unreduced,
    } = per_request
    {
        shipping.all_keys(*max_keys, unreduced)?;
    }
    Ok(Box::new(shipping))
}

/// A `SemiJoinReduce` being read.
struct KeyShipping {
    kind: JoinKind,
    /// The build and the probe join key.
    join_keys: [ScalarExpr; 2],
    /// Where the build key sits in a build row.
    key_pos: usize,
    residual: Option<ScalarExpr>,
    server: Arc<str>,
    sql: String,
    params: Vec<RemoteParam>,
    build_columns: Vec<ColumnId>,
    columns: Vec<ColumnId>,
    ctx: ExecContext,
    node: usize,
    /// The build child: drained at open by the all-keys form, read a
    /// block at a time — at most the caller's demand, so `TOP n` above
    /// sends at most `n` requests — by the one-key form.
    outer: Box<dyn Rowset>,
    /// Joined rows not handed on yet.
    joined: MemRowset,
}

impl KeyShipping {
    /// The distinct non-NULL join keys of `rows`, in first-seen order.
    fn keys(&self, rows: &[Row]) -> Vec<Value> {
        let mut seen = HashSet::new();
        let keys = rows.iter().map(|row| row.get(self.key_pos));
        keys.filter(|v| !v.is_null() && seen.insert(*v))
            .cloned()
            .collect()
    }

    /// `template` with the key set bound to `keys`.
    fn text(&self, template: &str, keys: &[Value]) -> Result<String> {
        remote_query_text(&self.server, template, &self.params, keys, &self.ctx)
    }

    fn open(&self, text: String, op_tag: Option<String>) -> Result<Box<dyn Rowset>> {
        // Whatever keys are bound, the statement reads the same members.
        let checks = self.ctx.member_checks_in_sql(&self.server, &self.sql);
        open_remote_text(&self.server, text, checks, op_tag, &self.ctx, self.node)
    }

    /// Hash-join `remote` back against `build`, in build-row order.
    fn join_back(&mut self, build: Vec<Row>, remote: Box<dyn Rowset>) -> Result<()> {
        let build = MemRowset::new(self.ctx.schema_of(&self.build_columns), build);
        self.joined = open_hash_join(
            Box::new(build),
            remote,
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

    /// All keys in one request, or the unreduced statement past `max_keys`
    /// or when the reduced open gives up on a transient fault (on a dead
    /// link that open fails too, as the unreduced plan would have).
    fn all_keys(&mut self, max_keys: usize, unreduced: &str) -> Result<()> {
        let ctx = self.ctx.clone();
        // Drained and closed here, like the one-key form's after its last row.
        let empty = Box::new(MemRowset::empty(self.joined.schema().clone()));
        let build = std::mem::replace(&mut self.outer, empty)
            .collect_rows_batched(ctx.batch().batch_size)?;
        let keys = self.keys(&build);
        let mut trace = SemiJoinTrace {
            keys: keys.len() as u64,
            ..SemiJoinTrace::default()
        };
        // The reduced open, `Err(None)` past the key-set ceiling; none for
        // an empty key set, whose inner/semi join is empty by construction.
        let reduced = match keys.len() {
            0 => None,
            n if n > max_keys => Some(Err(None)),
            n => {
                let (base, reduced) = (self.text(unreduced, &[])?, self.text(&self.sql, &keys)?);
                trace.filter_bytes = reduced.len().saturating_sub(base.len()) as u64;
                let fp = predicate_fingerprint(&reduced);
                let tag = format!("shipped predicate fp={fp} keys={n}");
                Some(self.open(reduced, Some(tag)).map_err(Some))
            }
        };
        let remote = match reduced {
            None => None,
            Some(Ok(remote)) => Some(remote),
            Some(Err(Some(e))) if !e.is_retryable() => return Err(e),
            Some(Err(_)) => {
                trace.fallback = true;
                trace.filter_bytes = 0;
                ctx.counters().semijoin_fallbacks.bump();
                Some(self.open(self.text(unreduced, &[])?, None)?)
            }
        };
        if !trace.fallback {
            ctx.counters().semijoin_reductions.bump();
            ctx.counters().semijoin_filter_bytes.add(trace.filter_bytes);
        }
        if let Some(remote) = remote {
            self.join_back(build, remote)?;
        }
        if let Some(collector) = ctx.stats() {
            collector.record_semijoin(self.node, trace);
        }
        Ok(())
    }

    /// One request for `key`, read as far as the join back needs it: to
    /// its end, or by a semi join until every outer row of `block` with
    /// that key has matched.
    fn fetch(&self, key: &Value, block: &[Row]) -> Result<Vec<Row>> {
        let text = self.text(&self.sql, std::slice::from_ref(key))?;
        let mut remote = self.open(text, None)?;
        if self.kind != JoinKind::Semi {
            return remote.collect_rows_batched(self.ctx.batch().batch_size);
        }
        let positions = positions_of(&[&self.build_columns[..], &self.columns].concat());
        let mut waiting: Vec<&Row> = block
            .iter()
            .filter(|r| r.get(self.key_pos) == key)
            .collect();
        let (mut remote, mut kept) = (RowCursor::new(remote, 1), Vec::new());
        let residual = self.residual.as_ref();
        while !waiting.is_empty() {
            let Some(row) = remote.next_row()? else {
                break;
            };
            let mut still = Vec::with_capacity(waiting.len());
            for outer in &waiting {
                if !passes(residual, &positions, &outer.join(&row), &self.ctx)? {
                    still.push(*outer);
                }
            }
            if still.len() < waiting.len() {
                kept.push(row);
            }
            waiting = still;
        }
        Ok(kept)
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
            // One key per request: the next block of outer rows.
            let Some(block) = self.outer.next_batch(max)? else {
                return Ok(None);
            };
            let (block, mut fetched) = (block.into_rows(), Vec::new());
            for key in self.keys(&block) {
                fetched.extend(self.fetch(&key, &block)?);
            }
            let fetched = MemRowset::new(self.ctx.schema_of(&self.columns), fetched);
            self.join_back(block, Box::new(fetched))?;
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
    use dhqp_storage::{StorageEngine, TableDef};
    use dhqp_types::{Column, DataType};
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Local `o(id, k)` holding `outer` and, behind a metered link, an
    /// ODBC-Core source `mini` with `t(k, v)`: 24 rows, keys 0..8 three
    /// times each, `v` = the row number.
    struct Fixture {
        ctx: ExecContext,
        link: NetworkLink,
        o: Arc<TableMeta>,
        t: Arc<TableMeta>,
    }

    fn fixture(outer: &[(i64, Option<i64>)]) -> Fixture {
        let int_pair = |a: &str, b: &str| {
            Schema::new(vec![
                Column::new(a, DataType::Int),
                Column::new(b, DataType::Int),
            ])
        };
        let remote = Arc::new(StorageEngine::new("mini"));
        remote
            .create_table(TableDef::new("t", int_pair("k", "v")))
            .unwrap();
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
        let link = NetworkLink::new("mini", NetworkConfig::lan());
        let provider = MiniSqlProvider::new("minidb", remote, SqlSupport::OdbcCore).unwrap();
        let mut catalog = TestCatalog::with_local(local);
        catalog.remotes.insert(
            "mini".into(),
            Arc::new(NetworkedDataSource::reliable(
                Arc::new(provider),
                link.clone(),
            )) as Arc<dyn DataSource>,
        );
        let ctx = ExecContext::new(Arc::new(catalog), HashMap::new(), Arc::new(registry));
        Fixture { ctx, link, o, t }
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

        fn shipping(&self, kind: JoinKind, ranged: bool, per_request: KeysPerRequest) -> PhysNode {
            let op = PhysicalOp::SemiJoinReduce {
                kind,
                build_key: self.o.column_id(1),
                probe_key: self.t.column_id(0),
                residual: Some(self.predicate(ranged)),
                server: Arc::from("mini"),
                sql: match per_request {
                    KeysPerRequest::One => self.sql(" WHERE ([t0].[k] = @__keys0)"),
                    KeysPerRequest::All { .. } => self.sql(" WHERE ([t0].[k] IN (@__keys0))"),
                },
                columns: self.t.column_ids.clone(),
                params: vec![RemoteParam::KeySet],
                per_request,
            };
            PhysNode::new(op, vec![self.outer()], self.output(kind))
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

        /// One key per request and all keys at once answer what fetching
        /// the whole table and hash-joining it answers — NULL, duplicate
        /// and missing outer keys, an empty outer side, a residual beyond
        /// the key — and the one-key form also keeps the outer order and
        /// ships one request per distinct non-NULL key when one block
        /// holds them all.
        #[test]
        fn one_key_and_all_keys_answer_like_the_unreduced_fetch(
            keys in prop::collection::vec(prop::option::of(0i64..12), 0..10),
            semi in any::<bool>(),
            ranged in any::<bool>(),
            batch in 1usize..5,
        ) {
            let outer: Vec<(i64, Option<i64>)> = (0..).zip(keys.iter().copied()).collect();
            let f = fixture(&outer);
            let kind = if semi { JoinKind::Semi } else { JoinKind::Inner };
            let (want, _) = f.run(&f.unreduced(kind, ranged), batch);

            let (one, _) = f.run(&f.shipping(kind, ranged, KeysPerRequest::One), batch);
            prop_assert_eq!(&one, &want);
            let all = KeysPerRequest::All { max_keys: 64, unreduced: f.sql("") };
            let (all, _) = f.run(&f.shipping(kind, ranged, all), batch);
            prop_assert_eq!(sorted(all), sorted(want));

            let distinct: HashSet<i64> = keys.iter().flatten().copied().collect();
            let (_, requests) = f.run(&f.shipping(kind, ranged, KeysPerRequest::One), 1024);
            prop_assert_eq!(requests, distinct.len() as u64);
        }
    }

    /// `TOP n` over the one-key form sends at most `n` requests when every
    /// key matches: it asks for `n` rows, and each key answers at least one.
    #[test]
    fn top_n_over_one_key_per_request_sends_at_most_n_requests() {
        let outer: Vec<(i64, Option<i64>)> = (0..8).map(|i| (i, Some(i))).collect();
        let f = fixture(&outer);
        for kind in [JoinKind::Inner, JoinKind::Semi] {
            for n in 1..=4 {
                let probe = f.shipping(kind, false, KeysPerRequest::One);
                let output = probe.output.clone();
                let top = PhysNode::new(PhysicalOp::Top { n }, vec![probe], output);
                for batch in [1, 3, 1024] {
                    let (rows, requests) = f.run(&top, batch);
                    assert_eq!(rows.len() as u64, n, "{kind:?} n={n} batch={batch}");
                    assert!(
                        requests <= n,
                        "{kind:?} n={n} batch={batch}: {requests} requests"
                    );
                }
            }
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
