//! Plan-to-operator translation: open a [`PhysNode`] tree as a rowset.

use crate::context::ExecContext;
use crate::eval::{eval_predicate, RowEnv};
use crate::ops::agg::{open_hash_aggregate, StreamAggregate};
use crate::ops::exchange::{BranchFactory, ExchangeRowset};
use crate::ops::filter::{open_startup_filter, FilterRowset, ProjectRowset};
use crate::ops::join::{open_hash_join, open_merge_join, InnerFactory, NestedLoopJoin};
use crate::ops::remote::{open_remote_query, open_remote_range, open_remote_scan};
use crate::ops::scan::{key_ranges, open_index_range, open_table_scan};
use crate::ops::semijoin::open_semijoin_reduce;
use crate::ops::sort::{open_sort, open_spool, TopRowset, UnionAllRowset};
use crate::stats::StatsRowset;
use dhqp_oledb::{MemRowset, Rowset};
use dhqp_optimizer::{ColumnId, PhysNode, PhysicalOp};
use dhqp_types::{DhqpError, Result, Row};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Open a physical plan as a rowset. Re-entrant: nested-loop joins call
/// back into the builder for every outer row, with fresh correlation
/// bindings.
///
/// Every node is addressed by its **pre-order id** (root = 0, first child =
/// 1, each later child follows the previous sibling's subtree). Ids key
/// both the spool cache and the runtime stats collector; they are stable
/// across rescans even though nested-loop joins clone their inner subtree.
pub fn open(plan: &PhysNode, ctx: &ExecContext) -> Result<Box<dyn Rowset>> {
    open_node(plan, ctx, 0)
}

/// Pre-order id of `plan.children[k]` given the parent's id.
fn child_id(plan: &PhysNode, id: usize, k: usize) -> usize {
    id + 1
        + plan.children[..k]
            .iter()
            .map(PhysNode::subtree_size)
            .sum::<usize>()
}

/// Open one node: build its rowset, then (only when a stats collector is
/// attached) wrap it so rows/time land on this node's id. A remote node's
/// shipped text and wire traffic are charged where it opens
/// (`ops::remote`).
fn open_node(plan: &PhysNode, ctx: &ExecContext, id: usize) -> Result<Box<dyn Rowset>> {
    let Some(collector) = ctx.stats() else {
        return build_node(plan, ctx, id);
    };
    let collector = Arc::clone(collector);
    let inner = build_node(plan, ctx, id)?;
    Ok(Box::new(StatsRowset::new(inner, id, collector)))
}

/// First linked server a subtree would touch, if any — the member identity
/// degraded-mode pruning quarantines by. A DPV member branch is rooted at
/// (or wraps) exactly one remote operator, so the first hit is the member.
fn branch_server(plan: &PhysNode) -> Option<&str> {
    match &plan.op {
        PhysicalOp::RemoteQuery { server, .. } | PhysicalOp::SemiJoinReduce { server, .. } => {
            Some(server)
        }
        PhysicalOp::RemoteScan { meta } | PhysicalOp::RemoteRange { meta, .. } => {
            meta.source.server_name()
        }
        _ => plan.children.iter().find_map(branch_server),
    }
}

/// First base table a subtree reads — the member identity reported for a
/// startup-pruned *local* DPV member, where there is no linked server.
fn branch_table(plan: &PhysNode) -> Option<String> {
    match &plan.op {
        PhysicalOp::TableScan { meta } | PhysicalOp::IndexRange { meta, .. } => {
            Some(meta.table.clone())
        }
        _ => plan.children.iter().find_map(branch_table),
    }
}

/// Runtime parameter-driven pruning (§4.1.5): does this union member
/// start with a startup filter whose column-free predicate is false for the
/// current parameter values? When it does, the member is skipped
/// before a connection, worker thread, or breaker admission is spent on
/// it. With the knob off the startup filter still gates lazily inside the
/// member, so results are identical either way — only the reporting and
/// the avoided opens differ.
fn startup_prunes(member: &PhysNode, ctx: &ExecContext) -> Result<bool> {
    if !ctx.runtime_prune() {
        return Ok(false);
    }
    let PhysicalOp::StartupFilter { predicate } = &member.op else {
        return Ok(false);
    };
    let positions: HashMap<ColumnId, usize> = HashMap::new();
    let row = Row::new(vec![]);
    let env = RowEnv {
        positions: &positions,
        row: &row,
        ctx,
    };
    Ok(!eval_predicate(predicate, &env)?)
}

/// Record one startup-pruned member on the startup channel (distinct from
/// degraded-mode quarantine) and in the engine counters.
fn skip_startup_member(member: &PhysNode, ctx: &ExecContext) {
    let label = branch_server(member)
        .map(str::to_string)
        .or_else(|| branch_table(member))
        .unwrap_or_else(|| "local".to_string());
    ctx.pruned().record_startup(&label);
    ctx.counters().startup_members_skipped.bump();
}

/// Quarantine one union member: note it in the per-query prune log
/// (EXPLAIN ANALYZE, `sys.dm_exec_requests`) and the engine counters.
fn prune_member(server: &str, ctx: &ExecContext) {
    ctx.pruned().record(server);
    ctx.counters().members_pruned.bump();
}

/// Open one union member under the degraded-mode policy. In prune mode a
/// remote member whose open fails with a transport error (breaker fail-fast
/// or a genuinely exhausted retry budget) is quarantined — counted in
/// `quarantined` and opened as an empty rowset — instead of failing the
/// statement. Everything else (fail mode, local members, permanent errors)
/// propagates.
fn open_member(
    c: &PhysNode,
    ctx: &ExecContext,
    cid: usize,
    quarantined: &AtomicUsize,
) -> Result<Box<dyn Rowset>> {
    match open_node(c, ctx, cid) {
        Err(e) if ctx.degraded().is_prune() && e.is_retryable() => match branch_server(c) {
            Some(server) => {
                prune_member(server, ctx);
                quarantined.fetch_add(1, Ordering::Relaxed);
                Ok(Box::new(MemRowset::empty(ctx.schema_of(&c.output))))
            }
            None => Err(e),
        },
        other => other,
    }
}

/// Open a union's members: on exchange workers when parallel dispatch is on
/// and at least two members reach a remote server, so member servers work
/// concurrently (§4.1.5) instead of paying each link's latency in sequence;
/// otherwise one after the other, in branch order. Either way a
/// startup-pruned member is skipped before a connection, worker or breaker
/// admission is spent on it, a quarantined one opens empty, and a union all
/// of whose members were quarantined is refused rather than answered "no
/// rows" (an all-startup-pruned view is an honest empty answer: the lazy
/// filters would have produced the same). The exchange can only tell once
/// every worker has tried its open, so it asks at the end of its stream.
fn open_union(
    plan: &PhysNode,
    input_columns: &[Vec<ColumnId>],
    ctx: &ExecContext,
    id: usize,
) -> Result<Box<dyn Rowset>> {
    let remote_members = plan
        .children
        .iter()
        .filter(|c| c.count_ops(&mut PhysicalOp::is_remote) > 0)
        .count();
    let mut live = Vec::with_capacity(plan.children.len());
    for (k, c) in plan.children.iter().enumerate() {
        if startup_prunes(c, ctx)? {
            skip_startup_member(c, ctx);
        } else {
            live.push(k);
        }
    }
    // Delivered and wanted columns stay index-aligned with the live members.
    let delivered: Vec<Vec<ColumnId>> = live
        .iter()
        .map(|&k| plan.children[k].output.clone())
        .collect();
    let inputs: Vec<Vec<ColumnId>> = live.iter().map(|&k| input_columns[k].clone()).collect();
    let schema = ctx.schema_of(&plan.output);
    let members = plan.children.len();
    let quarantined = Arc::new(AtomicUsize::new(0));
    let verdict = {
        let (quarantined, pruned) = (Arc::clone(&quarantined), Arc::clone(ctx.pruned()));
        move || {
            if members > 0 && quarantined.load(Ordering::Relaxed) == members {
                return Err(DhqpError::Unavailable(format!(
                    "degraded mode pruned every member of the partitioned view \
                     (quarantined: {})",
                    pruned.members().join(", ")
                )));
            }
            Ok(())
        }
    };
    if ctx.parallel().enabled && remote_members >= 2 && !live.is_empty() {
        // Workers re-enter the builder with the member's own pre-order id,
        // so per-branch instrumentation (stats, wire probes) lands on the
        // right node.
        let branches = live
            .iter()
            .map(|&k| {
                let member = plan.children[k].clone();
                let (cid, quarantined) = (child_id(plan, id, k), Arc::clone(&quarantined));
                Box::new(move |cx: &ExecContext| open_member(&member, cx, cid, &quarantined))
                    as BranchFactory
            })
            .collect();
        let exchange = ExchangeRowset::new(branches, &delivered, &inputs, schema, ctx, id)?;
        return Ok(Box::new(exchange.at_end(Box::new(verdict))));
    }
    let children = live
        .iter()
        .map(|&k| open_member(&plan.children[k], ctx, child_id(plan, id, k), &quarantined))
        .collect::<Result<Vec<_>>>()?;
    verdict()?;
    Ok(Box::new(UnionAllRowset::new(
        children, &delivered, &inputs, schema,
    )?))
}

/// With parallel dispatch on, a remote rowset the statement's own thread
/// reads — a lone remote rowset, or a serial union's member — is drained
/// ahead of it by one exchange worker of its own, so the next pull crosses
/// the link while the current one is consumed. One opened on an exchange
/// worker is drained by that worker: a second thread would only relay it.
fn maybe_prefetch(inner: Box<dyn Rowset>, ctx: &ExecContext) -> Box<dyn Rowset> {
    if !ctx.parallel().enabled || ctx.on_worker() {
        return inner;
    }
    ctx.counters().remote_prefetches.bump();
    Box::new(ExchangeRowset::prefetch(inner, ctx))
}

fn build_node(plan: &PhysNode, ctx: &ExecContext, id: usize) -> Result<Box<dyn Rowset>> {
    match &plan.op {
        PhysicalOp::TableScan { meta } => open_table_scan(meta, ctx),
        PhysicalOp::IndexRange { meta, index, seek } => {
            open_index_range(meta, index, seek.as_ref(), ctx)
        }
        PhysicalOp::RemoteScan { meta } => {
            Ok(maybe_prefetch(open_remote_scan(meta, ctx, id)?, ctx))
        }
        PhysicalOp::RemoteRange { meta, index, seek } => Ok(maybe_prefetch(
            open_remote_range(meta, index, seek.as_ref(), ctx, id)?,
            ctx,
        )),
        PhysicalOp::RemoteQuery {
            server,
            sql,
            params,
            ..
        } => Ok(maybe_prefetch(
            open_remote_query(server, sql, params, ctx, id)?,
            ctx,
        )),
        PhysicalOp::SemiJoinReduce { .. } => {
            let build = open_node(&plan.children[0], ctx, child_id(plan, id, 0))?;
            open_semijoin_reduce(plan, build, ctx, id)
        }
        PhysicalOp::Filter { predicate } => {
            // A domain the predicate empties reads nothing, index or not
            // (as a DML statement's row location); if the resolver cannot
            // tell, the filter decides row by row.
            if let PhysicalOp::TableScan { meta } | PhysicalOp::RemoteScan { meta } =
                &plan.children[0].op
            {
                if key_ranges(meta, "", Some(predicate), ctx).is_ok_and(|r| r.is_empty()) {
                    return Ok(Box::new(MemRowset::empty(ctx.schema_of(&plan.output))));
                }
            }
            let child = open_node(&plan.children[0], ctx, child_id(plan, id, 0))?;
            Ok(Box::new(FilterRowset::new(
                child,
                predicate.clone(),
                &plan.children[0].output,
                ctx.clone(),
            )))
        }
        PhysicalOp::StartupFilter { predicate } => {
            let schema = ctx.schema_of(&plan.output);
            let child_plan = &plan.children[0];
            let cid = child_id(plan, id, 0);
            open_startup_filter(predicate, schema, ctx, || open_node(child_plan, ctx, cid))
        }
        PhysicalOp::Project { outputs } => {
            let child = open_node(&plan.children[0], ctx, child_id(plan, id, 0))?;
            let schema = ctx.schema_of(&plan.output);
            Ok(Box::new(ProjectRowset::new(
                child,
                outputs.clone(),
                &plan.children[0].output,
                schema,
                ctx.clone(),
            )))
        }
        PhysicalOp::NestedLoopJoin { kind, predicate } => {
            let outer = open_node(&plan.children[0], ctx, child_id(plan, id, 0))?;
            let inner_plan = Arc::new(plan.children[1].clone());
            let inner_id = child_id(plan, id, 1);
            let factory: InnerFactory = {
                let inner_plan = Arc::clone(&inner_plan);
                Box::new(move |child_ctx: &ExecContext| open_node(&inner_plan, child_ctx, inner_id))
            };
            let schema = ctx.schema_of(&plan.output);
            Ok(Box::new(NestedLoopJoin::new(
                outer,
                factory,
                *kind,
                predicate.clone(),
                plan.children[0].output.clone(),
                inner_plan.output.clone(),
                schema,
                ctx.clone(),
            )))
        }
        PhysicalOp::HashJoin {
            kind,
            left_keys,
            right_keys,
            residual,
        } => {
            let left = open_node(&plan.children[0], ctx, child_id(plan, id, 0))?;
            let right = open_node(&plan.children[1], ctx, child_id(plan, id, 1))?;
            let schema = ctx.schema_of(&plan.output);
            Ok(Box::new(open_hash_join(
                left,
                right,
                *kind,
                left_keys,
                right_keys,
                residual.as_ref(),
                &plan.children[0].output,
                &plan.children[1].output,
                schema,
                ctx,
            )?))
        }
        PhysicalOp::MergeJoin {
            left_keys,
            right_keys,
            residual,
        } => {
            let left = open_node(&plan.children[0], ctx, child_id(plan, id, 0))?;
            let right = open_node(&plan.children[1], ctx, child_id(plan, id, 1))?;
            let schema = ctx.schema_of(&plan.output);
            Ok(Box::new(open_merge_join(
                left,
                right,
                left_keys,
                right_keys,
                residual.as_ref(),
                &plan.children[0].output,
                &plan.children[1].output,
                schema,
                ctx,
            )?))
        }
        PhysicalOp::HashAggregate { group_by, aggs } => {
            let child = open_node(&plan.children[0], ctx, child_id(plan, id, 0))?;
            let schema = ctx.schema_of(&plan.output);
            Ok(Box::new(open_hash_aggregate(
                child,
                group_by,
                aggs,
                &plan.children[0].output,
                schema,
                ctx,
            )?))
        }
        PhysicalOp::StreamAggregate { group_by, aggs } => {
            let child = open_node(&plan.children[0], ctx, child_id(plan, id, 0))?;
            let schema = ctx.schema_of(&plan.output);
            Ok(Box::new(StreamAggregate::new(
                child,
                group_by,
                aggs.clone(),
                &plan.children[0].output,
                schema,
                ctx.clone(),
            )?))
        }
        PhysicalOp::Sort { keys } => {
            let child = open_node(&plan.children[0], ctx, child_id(plan, id, 0))?;
            open_sort(child, keys, &plan.children[0].output, ctx)
        }
        PhysicalOp::Top { n } => {
            let child = open_node(&plan.children[0], ctx, child_id(plan, id, 0))?;
            Ok(Box::new(TopRowset::new(child, *n)))
        }
        PhysicalOp::UnionAll { input_columns, .. } => open_union(plan, input_columns, ctx, id),
        PhysicalOp::Spool => {
            // Keyed by pre-order node id: stable across the inner-subtree
            // clones a nested-loop join makes per rescan (a raw pointer
            // would not be).
            let child_plan = &plan.children[0];
            let cid = child_id(plan, id, 0);
            open_spool(id, ctx, || open_node(child_plan, ctx, cid))
        }
        PhysicalOp::Values { rows, .. } => {
            let schema = ctx.schema_of(&plan.output);
            let rows = rows.iter().map(|vals| Row::new(vals.clone())).collect();
            Ok(Box::new(MemRowset::new(schema, rows)))
        }
        PhysicalOp::Empty { .. } => {
            let schema = ctx.schema_of(&plan.output);
            Ok(Box::new(MemRowset::empty(schema)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_support::TestCatalog;
    use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
    use dhqp_oledb::{DataSource, RowsetExt};
    use dhqp_optimizer::logical::test_table_meta;
    use dhqp_optimizer::props::ColumnRegistry;
    use dhqp_optimizer::{ColumnId, JoinKind, Locality, ScalarExpr};
    use dhqp_storage::{LocalDataSource, StorageEngine, TableDef};
    use dhqp_types::{Column, DataType, Schema, Value};
    use std::collections::HashMap;

    /// Local engine with t(k, v) plus a "remote" engine r with the same
    /// table behind the catalog's linked-server map.
    fn setup() -> (
        ExecContext,
        Arc<dhqp_optimizer::TableMeta>,
        Arc<dhqp_optimizer::TableMeta>,
    ) {
        let mut registry = ColumnRegistry::new();
        let local_engine = Arc::new(StorageEngine::new("local"));
        let remote_engine = Arc::new(StorageEngine::new("r-engine"));
        for engine in [&local_engine, &remote_engine] {
            engine
                .create_table(
                    TableDef::new(
                        "t",
                        Schema::new(vec![
                            Column::not_null("k", DataType::Int),
                            Column::not_null("v", DataType::Int),
                        ]),
                    )
                    .with_index("pk_t", &["k"], true),
                )
                .unwrap();
            let rows: Vec<Row> = (0..8)
                .map(|i| Row::new(vec![Value::Int(i), Value::Int(i * 10)]))
                .collect();
            engine.insert_rows("t", &rows).unwrap();
        }
        let local_meta = {
            let m = test_table_meta(
                0,
                "t",
                Locality::Local,
                &[("k", DataType::Int), ("v", DataType::Int)],
                &mut registry,
                8,
            );
            let mut m2 = (*m).clone();
            Arc::make_mut(&mut m2.catalog).indexes = vec![dhqp_oledb::IndexInfo {
                name: "pk_t".into(),
                key_columns: vec!["k".into()],
                unique: true,
            }];
            Arc::new(m2)
        };
        let remote_meta = {
            let m = test_table_meta(
                1,
                "t",
                Locality::remote("r"),
                &[("k", DataType::Int), ("v", DataType::Int)],
                &mut registry,
                8,
            );
            let mut m2 = (*m).clone();
            Arc::make_mut(&mut m2.catalog).indexes = vec![dhqp_oledb::IndexInfo {
                name: "pk_t".into(),
                key_columns: vec!["k".into()],
                unique: true,
            }];
            Arc::new(m2)
        };
        let mut catalog = TestCatalog::with_local(local_engine);
        // Behind a metered link, so a test can see how "r" was read.
        catalog.remotes.insert(
            "r".into(),
            Arc::new(NetworkedDataSource::reliable(
                Arc::new(LocalDataSource::new(remote_engine)),
                NetworkLink::new("r", NetworkConfig::lan()),
            )) as Arc<dyn DataSource>,
        );
        let ctx = ExecContext::new(Arc::new(catalog), HashMap::new(), Arc::new(registry));
        (ctx, local_meta, remote_meta)
    }

    #[test]
    fn nested_loop_rescans_spooled_inner_once() {
        let (ctx, local, remote) = setup();
        // NLJ: local t as outer (8 rows), spooled remote scan as inner.
        let outer = PhysNode::new(
            PhysicalOp::TableScan {
                meta: Arc::clone(&local),
            },
            vec![],
            local.column_ids.clone(),
        );
        let inner_scan = PhysNode::new(
            PhysicalOp::RemoteScan {
                meta: Arc::clone(&remote),
            },
            vec![],
            remote.column_ids.clone(),
        );
        let spool = PhysNode::new(
            PhysicalOp::Spool,
            vec![inner_scan],
            remote.column_ids.clone(),
        );
        let pred = ScalarExpr::eq(
            ScalarExpr::Column(local.column_id(0)),
            ScalarExpr::Column(remote.column_id(0)),
        );
        let mut out_cols = local.column_ids.clone();
        out_cols.extend(remote.column_ids.iter().copied());
        let join = PhysNode::new(
            PhysicalOp::NestedLoopJoin {
                kind: JoinKind::Inner,
                predicate: Some(pred),
            },
            vec![outer, spool],
            out_cols,
        );
        let rows = open(&join, &ctx).unwrap().collect_rows().unwrap();
        assert_eq!(rows.len(), 8, "equi self-match across engines");
    }

    #[test]
    fn startup_filter_gates_whole_subtree() {
        let (ctx, local, _) = setup();
        let scan = PhysNode::new(
            PhysicalOp::TableScan {
                meta: Arc::clone(&local),
            },
            vec![],
            local.column_ids.clone(),
        );
        let blocked = PhysNode::new(
            PhysicalOp::StartupFilter {
                predicate: ScalarExpr::literal(Value::Bool(false)),
            },
            vec![scan.clone()],
            local.column_ids.clone(),
        );
        assert_eq!(open(&blocked, &ctx).unwrap().count_rows().unwrap(), 0);
        let passed = PhysNode::new(
            PhysicalOp::StartupFilter {
                predicate: ScalarExpr::literal(Value::Bool(true)),
            },
            vec![scan],
            local.column_ids.clone(),
        );
        assert_eq!(open(&passed, &ctx).unwrap().count_rows().unwrap(), 8);
    }

    #[test]
    fn union_all_permutes_mismatched_child_orders() {
        let (ctx, local, remote) = setup();
        let child1 = PhysNode::new(
            PhysicalOp::TableScan {
                meta: Arc::clone(&local),
            },
            vec![],
            local.column_ids.clone(),
        );
        let child2 = PhysNode::new(
            PhysicalOp::RemoteScan {
                meta: Arc::clone(&remote),
            },
            vec![],
            remote.column_ids.clone(),
        );
        // Output columns: fresh ids fed by (k, v) of each child, but child2's
        // feeding list is reversed (v, k) to force a permutation.
        let out = vec![ColumnId(100), ColumnId(101)];
        let union = PhysNode {
            op: PhysicalOp::UnionAll {
                output: out.clone(),
                input_columns: vec![
                    local.column_ids.clone(),
                    vec![remote.column_id(1), remote.column_id(0)],
                ],
            },
            children: vec![child1, child2],
            output: out,
            est_rows: 16.0,
            est_cost: 0.0,
        };
        // schema_of needs registry entries for 100/101 — use a local ctx
        // with a registry containing them.
        let mut registry = ColumnRegistry::new();
        for _ in 0..100 {
            registry.allocate("pad", "", DataType::Int, true);
        }
        registry.allocate("c100", "", DataType::Int, true);
        registry.allocate("c101", "", DataType::Int, true);
        let ctx2 = ExecContext::new(
            Arc::clone(ctx.catalog()),
            HashMap::new(),
            Arc::new(registry),
        );
        let rows = open(&union, &ctx2).unwrap().collect_rows().unwrap();
        assert_eq!(rows.len(), 16);
        // First half: (k, v); second half: (v, k).
        assert_eq!(rows[0].values, vec![Value::Int(0), Value::Int(0)]);
        assert_eq!(rows[9].values, vec![Value::Int(10), Value::Int(1)]);
    }
}
