//! Implementation rules: logical → physical alternatives (paper §4.1.2).
//!
//! "Examples of remote implementation rules are: building SQL statements
//! from trees to run on remote sources, building remote scan/range/fetch,
//! adding spool on top of remote operations." The *build remote query* rule
//! itself is driven from the search loop (it applies to whole groups via
//! the decoder); everything else lives here.

use crate::cardinality::{equi_key_columns, ndv, predicate_selectivity};
use crate::decoder::{Decoder, KeySet, RemoteSql};
use crate::logical::{JoinKind, LogicalOp, TableMeta};
use crate::memo::{GroupId, MExpr, Memo};
use crate::physical::PhysicalOp;
use crate::props::{ColumnId, PhysicalProps, RequiredProps};
use crate::rules::exploration::remote_group_caps;
use crate::rules::{Delivered, PhysAlt, RuleContext};
use crate::scalar::{CmpOp, ScalarExpr};
use crate::search::OptimizationPhase;
use std::sync::Arc;

/// Generate all physical alternatives for one logical expression.
pub fn implementations(
    expr: &MExpr,
    memo: &Memo,
    ctx: &RuleContext<'_>,
    required: &RequiredProps,
    phase: OptimizationPhase,
) -> Vec<PhysAlt> {
    match &expr.op {
        LogicalOp::Get { meta, .. } => implement_get(meta, memo, expr, required),
        LogicalOp::EmptyGet { columns } => {
            vec![PhysAlt::node(
                PhysicalOp::Empty {
                    columns: columns.clone(),
                },
                vec![],
            )]
        }
        LogicalOp::Values { columns, rows } => {
            vec![PhysAlt::node(
                PhysicalOp::Values {
                    columns: columns.clone(),
                    rows: rows.clone(),
                },
                vec![],
            )
            .with_rows(rows.len() as f64)]
        }
        LogicalOp::Filter { predicate } => implement_filter(predicate, expr, memo, ctx),
        LogicalOp::StartupFilter { predicate } => {
            vec![PhysAlt::node(
                PhysicalOp::StartupFilter {
                    predicate: predicate.clone(),
                },
                vec![PhysAlt::child_with(
                    expr.children[0],
                    RequiredProps::none(),
                    ctx.config.cost.startup_pass_probability,
                )],
            )
            .with_delivered(Delivered::Inherit(0))]
        }
        LogicalOp::Project { outputs } => {
            vec![PhysAlt::node(
                PhysicalOp::Project {
                    outputs: outputs.clone(),
                },
                vec![PhysAlt::child(expr.children[0])],
            )]
        }
        LogicalOp::Join { kind, predicate } => {
            implement_join(*kind, predicate.as_ref(), expr, memo, ctx, required, phase)
        }
        LogicalOp::Aggregate { group_by, aggs } => {
            let mut out = vec![PhysAlt::node(
                PhysicalOp::HashAggregate {
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                },
                vec![PhysAlt::child(expr.children[0])],
            )];
            if phase >= OptimizationPhase::Full && !group_by.is_empty() {
                let ordering: Vec<(ColumnId, bool)> = group_by.iter().map(|&c| (c, true)).collect();
                out.push(
                    PhysAlt::node(
                        PhysicalOp::StreamAggregate {
                            group_by: group_by.clone(),
                            aggs: aggs.clone(),
                        },
                        vec![PhysAlt::child_with(
                            expr.children[0],
                            PhysicalProps::ordered(ordering.clone()),
                            1.0,
                        )],
                    )
                    .with_delivered(Delivered::Keys(ordering)),
                );
            }
            out
        }
        LogicalOp::Limit { n } => {
            // TOP passes its parent's ordering requirement through to its
            // child (ORDER BY + TOP) and preserves it.
            vec![PhysAlt::node(
                PhysicalOp::Top { n: *n },
                vec![PhysAlt::child_with(expr.children[0], required.clone(), 1.0)],
            )
            .with_delivered(Delivered::Keys(required.ordering.clone()))]
        }
        LogicalOp::UnionAll { output } => {
            let input_columns: Vec<Vec<ColumnId>> = expr
                .children
                .iter()
                .map(|&g| memo.group(g).props.columns.clone())
                .collect();
            vec![PhysAlt::node(
                PhysicalOp::UnionAll {
                    output: output.clone(),
                    input_columns,
                },
                expr.children.iter().map(|&g| PhysAlt::child(g)).collect(),
            )]
        }
    }
}

fn implement_get(
    meta: &Arc<TableMeta>,
    _memo: &Memo,
    _expr: &MExpr,
    required: &RequiredProps,
) -> Vec<PhysAlt> {
    let mut out = Vec::new();
    let remote = meta.source.is_remote();
    if remote {
        out.push(PhysAlt::node(
            PhysicalOp::RemoteScan {
                meta: Arc::clone(meta),
            },
            vec![],
        ));
    } else {
        out.push(PhysAlt::node(
            PhysicalOp::TableScan {
                meta: Arc::clone(meta),
            },
            vec![],
        ));
    }
    // An ordered full-index scan when it can satisfy the requirement
    // directly (ascending key order only).
    if !required.ordering.is_empty() && (!remote || meta.caps.index_support) {
        if let Some(index) = index_delivering(meta, &required.ordering) {
            let delivered = Delivered::Keys(required.ordering.clone());
            let op = index_read(remote, Arc::clone(meta), index, None);
            out.push(PhysAlt::node(op, vec![]).with_delivered(delivered));
        }
    }
    out
}

/// Name of an index whose ascending key order satisfies `ordering`.
fn index_delivering(meta: &TableMeta, ordering: &[(ColumnId, bool)]) -> Option<String> {
    'ix: for ix in &meta.catalog.indexes {
        if ix.key_columns.len() < ordering.len() {
            continue;
        }
        for (i, (col, asc)) in ordering.iter().enumerate() {
            if !asc {
                continue 'ix;
            }
            let pos = meta.catalog.schema.index_of(&ix.key_columns[i]);
            if pos.map(|p| meta.column_id(p)) != Some(*col) {
                continue 'ix;
            }
        }
        return Some(ix.name.clone());
    }
    None
}

fn implement_filter(
    predicate: &ScalarExpr,
    expr: &MExpr,
    memo: &Memo,
    ctx: &RuleContext<'_>,
) -> Vec<PhysAlt> {
    let mut out = Vec::new();
    // Column-free predicates become startup filters ("the predicate can be
    // evaluated before the subtree of the filter has been executed").
    if predicate.is_column_free() {
        out.push(
            PhysAlt::node(
                PhysicalOp::StartupFilter {
                    predicate: predicate.clone(),
                },
                vec![PhysAlt::child_with(
                    expr.children[0],
                    RequiredProps::none(),
                    ctx.config.cost.startup_pass_probability,
                )],
            )
            .with_delivered(Delivered::Inherit(0)),
        );
        return out;
    }
    out.push(
        PhysAlt::node(
            PhysicalOp::Filter {
                predicate: predicate.clone(),
            },
            vec![PhysAlt::child(expr.children[0])],
        )
        .with_delivered(Delivered::Inherit(0)),
    );
    // Index fusion: Filter ∘ Get → (residual Filter ∘) IndexRange.
    let child_group = memo.group(expr.children[0]);
    let child_props = &child_group.props;
    for &eid in &child_group.exprs {
        let child_expr = memo.expr(eid);
        let LogicalOp::Get { meta, .. } = &child_expr.op else {
            continue;
        };
        let remote = meta.source.is_remote();
        if remote && !meta.caps.index_support {
            continue;
        }
        for ix in &meta.catalog.indexes {
            let Some(lead_pos) = meta.catalog.schema.index_of(&ix.key_columns[0]) else {
                continue;
            };
            let lead_col = meta.column_id(lead_pos);
            let Some(seek) = seek_predicate(predicate, lead_col, &meta.column_ids) else {
                continue;
            };
            // The range returns what the conjuncts it seeks on let through —
            // the same estimator the filter above it is sized with, so the
            // two can never be inverted.
            let rows =
                (child_props.cardinality * predicate_selectivity(&seek, child_props)).max(1.0);
            let access = index_read(remote, Arc::clone(meta), ix.name.clone(), Some(seek));
            // Residual re-check of the full predicate keeps this correct
            // even when the range only partially covers it.
            out.push(PhysAlt::node(
                PhysicalOp::Filter {
                    predicate: predicate.clone(),
                },
                vec![PhysAlt::node(access, vec![]).with_rows(rows)],
            ));
        }
    }
    out
}

/// `RemoteRange` or `IndexRange` over `index`.
fn index_read(
    remote: bool,
    meta: Arc<TableMeta>,
    index: String,
    seek: Option<ScalarExpr>,
) -> PhysicalOp {
    match remote {
        true => PhysicalOp::RemoteRange { meta, index, seek },
        false => PhysicalOp::IndexRange { meta, index, seek },
    }
}

/// The conjuncts of `predicate` an index led by column `key` seeks on: the
/// comparisons of `key` by `=`, `<`, `<=`, `>` or `>=` with an expression
/// of no column of `table` — literals, `@param`s, an outer row's columns
/// (`id = -5` is `id = 0 - @__lit0` once cached). The key ranges they name
/// are resolved when the read opens (`ops::scan::key_ranges` in the
/// executor).
fn seek_predicate(predicate: &ScalarExpr, key: ColumnId, table: &[ColumnId]) -> Option<ScalarExpr> {
    let operand = |e: &ScalarExpr| e.columns().iter().all(|c| !table.contains(c));
    let seeks = |conj: &ScalarExpr| match conj {
        ScalarExpr::Cmp { op, left, right } if *op != CmpOp::Neq => {
            match (left.as_ref(), right.as_ref()) {
                (ScalarExpr::Column(c), v) | (v, ScalarExpr::Column(c)) if *c == key => operand(v),
                _ => false,
            }
        }
        _ => false,
    };
    ScalarExpr::and(predicate.conjuncts().into_iter().filter(seeks).collect())
}

#[allow(clippy::too_many_arguments)]
fn implement_join(
    kind: JoinKind,
    predicate: Option<&ScalarExpr>,
    expr: &MExpr,
    memo: &Memo,
    ctx: &RuleContext<'_>,
    required: &RequiredProps,
    phase: OptimizationPhase,
) -> Vec<PhysAlt> {
    let (lg, rg) = (expr.children[0], expr.children[1]);
    let l_card = memo.group(lg).props.cardinality.max(1.0);
    let r_card = memo.group(rg).props.cardinality.max(1.0);
    let mut out = Vec::new();

    // Plain nested loops: inner re-opened per outer row.
    out.push(
        PhysAlt::node(
            PhysicalOp::NestedLoopJoin {
                kind,
                predicate: predicate.cloned(),
            },
            vec![
                PhysAlt::child(lg),
                PhysAlt::child_with(rg, RequiredProps::none(), l_card),
            ],
        )
        .with_delivered(Delivered::Inherit(0)),
    );
    // Outer-ordered variant when the parent wants an order the outer side
    // can deliver (nested loops preserve outer order).
    if !required.ordering.is_empty() {
        out.push(
            PhysAlt::node(
                PhysicalOp::NestedLoopJoin {
                    kind,
                    predicate: predicate.cloned(),
                },
                vec![
                    PhysAlt::child_with(lg, required.clone(), 1.0),
                    PhysAlt::child_with(rg, RequiredProps::none(), l_card),
                ],
            )
            .with_delivered(Delivered::Keys(required.ordering.clone())),
        );
    }

    if phase >= OptimizationPhase::QuickPlan {
        // Spool over the inner child: materialize once, replay per rescan —
        // "it is often beneficial to spool results from a remote source if
        // multiple scans of the data are expected" (§4.1.4).
        if ctx.config.enable_spool {
            let spool_cost = r_card * ctx.config.cost.spool_write_row
                + (l_card - 1.0).max(0.0) * r_card * ctx.config.cost.spool_read_row;
            out.push(
                PhysAlt::node(
                    PhysicalOp::NestedLoopJoin {
                        kind,
                        predicate: predicate.cloned(),
                    },
                    vec![
                        PhysAlt::child(lg),
                        PhysAlt::node(PhysicalOp::Spool, vec![PhysAlt::child(rg)])
                            .with_rows(r_card)
                            .with_extra_cost(spool_cost),
                    ],
                )
                .with_delivered(Delivered::Inherit(0)),
            );
        }

        let equi = predicate
            .map(|p| {
                let (l, r) = (&memo.group(lg).props, &memo.group(rg).props);
                equi_key_columns(p, &l.columns, &r.columns)
            })
            .unwrap_or_default();
        if !equi.is_empty() && kind != JoinKind::Cross {
            let left_keys: Vec<ScalarExpr> =
                equi.iter().map(|(l, _)| ScalarExpr::Column(*l)).collect();
            let right_keys: Vec<ScalarExpr> =
                equi.iter().map(|(_, r)| ScalarExpr::Column(*r)).collect();
            out.push(PhysAlt::node(
                PhysicalOp::HashJoin {
                    kind,
                    left_keys,
                    right_keys,
                    residual: predicate.cloned(),
                },
                vec![PhysAlt::child(lg), PhysAlt::child(rg)],
            ));
            // Merge join needs both inputs sorted on the keys.
            if phase >= OptimizationPhase::Full && kind == JoinKind::Inner {
                let l_order: Vec<(ColumnId, bool)> = equi.iter().map(|(l, _)| (*l, true)).collect();
                let r_order: Vec<(ColumnId, bool)> = equi.iter().map(|(_, r)| (*r, true)).collect();
                out.push(
                    PhysAlt::node(
                        PhysicalOp::MergeJoin {
                            left_keys: equi.iter().map(|(l, _)| *l).collect(),
                            right_keys: equi.iter().map(|(_, r)| *r).collect(),
                            residual: predicate.cloned(),
                        },
                        vec![
                            PhysAlt::child_with(lg, PhysicalProps::ordered(l_order.clone()), 1.0),
                            PhysAlt::child_with(rg, PhysicalProps::ordered(r_order), 1.0),
                        ],
                    )
                    .with_delivered(Delivered::Keys(l_order)),
                );
            }
            // Key shipping: the build side's join keys go to a remote
            // probe side, one per request (§4.1.2 "parameterization enables
            // pushing parameters into the remote sources") or up to
            // `semijoin_max_keys` at once (§4.1.5 semi-join reduction).
            if matches!(kind, JoinKind::Inner | JoinKind::Semi) {
                out.extend(bind_join_variants(
                    kind, predicate, lg, rg, &equi, memo, ctx,
                ));
            }
        }
    }
    out
}

/// Key-shipping alternatives for a join whose probe (right) group lives
/// wholly on one remote server: one key per request (a `SemiJoinReduce`
/// over `probe = @__keys0`, or over a remote index led by the probe column
/// for a provider that renders no such statement), or `semijoin_max_keys`
/// keys per request (`probe IN (@__keys0)`).
fn bind_join_variants(
    kind: JoinKind,
    predicate: Option<&ScalarExpr>,
    lg: GroupId,
    rg: GroupId,
    equi: &[(ColumnId, ColumnId)],
    memo: &Memo,
    ctx: &RuleContext<'_>,
) -> Vec<PhysAlt> {
    let Some((server, caps)) = remote_group_caps(memo, rg) else {
        return Vec::new();
    };
    let (build_col, probe_col) = equi[0];
    let (build, probe) = (&memo.group(lg).props, &memo.group(rg).props);
    let (l_card, r_card) = (build.cardinality.max(1.0), probe.cardinality.max(1.0));
    let probe_ndv = ndv(probe, probe_col);
    let cost = &ctx.config.cost;
    let mut decoder = Decoder::new(memo, &caps, &server);
    let ship = |remote: RemoteSql, per_request, index| PhysicalOp::SemiJoinReduce {
        kind,
        build_key: build_col,
        probe_key: probe_col,
        residual: predicate.cloned(),
        server: Arc::clone(&server),
        sql: remote.sql,
        columns: remote.columns,
        params: remote.params,
        per_request,
        index,
    };
    let mut out = Vec::new();

    if ctx.config.enable_remote_param {
        // One key per request: the decoder's `probe = @__keys0` statement,
        // or else a range of a remote index the probe column leads.
        let one_key = match decoder.build(rg, Some(KeySet::One(probe_col)), &[], None) {
            Some(remote) => Some(ship(remote, 1, None)),
            None if caps.index_support => probe_index(memo, rg, probe_col).map(|(meta, index)| {
                let columns = meta.column_ids.clone();
                let remote = RemoteSql {
                    columns,
                    ..RemoteSql::default()
                };
                ship(remote, 1, Some((meta, index)))
            }),
            None => None,
        };
        // Priced as the nested loop it stands for: `l_card` probes of
        // `per_probe` rows each (at the join's row width), plus the loop's
        // CPU over them.
        if let Some(one_key) = one_key {
            let per_probe = (r_card / probe_ndv).max(1.0);
            let right = if kind.produces_right() {
                probe.row_width
            } else {
                0.0
            };
            let width = build.row_width + right;
            let probes = cost.remote_result(&caps, 0.0, per_probe, width, per_probe) * l_card;
            let loop_cpu = l_card * per_probe * cost.cpu_row;
            out.push(
                PhysAlt::node(one_key, vec![PhysAlt::child(lg)])
                    .with_extra_cost(loop_cpu + probes)
                    .with_delivered(Delivered::Inherit(0)),
            );
        }
    }

    // Up to `semijoin_max_keys` keys per request, all of them in one when
    // the estimate holds. Past the key-set ceiling the reduction never pays;
    // don't offer it — this is the Fig.-4-style crossover as the build side
    // scales. Nor does a list that names every value the probe column has
    // (a probe side already bound to its key, say): it ships keys to fetch
    // the same rows.
    let keys = ndv(build, build_col);
    if !ctx.config.enable_semijoin
        || keys > ctx.config.semijoin_max_keys as f64
        || keys >= probe_ndv
    {
        return out;
    }
    let Some(remote) = decoder.build(rg, Some(KeySet::All(probe_col)), &[], None) else {
        return out;
    };
    // Wire cost of the reduced fetch, charged here where the probe group's
    // cardinality is visible: the remote returns the right group filtered
    // by the shipped keys — `r_card × keys/ndv(probe)` rows — NOT the final
    // join output (the local join-back does that reduction). This is the
    // cardinality-dependent crossover: as the build side's key count grows
    // toward the probe side's distinct count, the reduction stops paying.
    let fetch_rows = r_card * keys / probe_ndv;
    let shipped = keys + remote.keys as f64;
    let wire = cost.remote_result(&caps, shipped, fetch_rows, probe.row_width, r_card);
    let per_request = ctx.config.semijoin_max_keys.max(1);
    out.push(
        PhysAlt::node(ship(remote, per_request, None), vec![PhysAlt::child(lg)])
            .with_extra_cost(wire + fetch_rows * cost.hash_probe_row),
    );
    out
}

/// A bare remote table in `group` and the name of one of its indexes led
/// by `probe_col`.
fn probe_index(
    memo: &Memo,
    group: GroupId,
    probe_col: ColumnId,
) -> Option<(Arc<TableMeta>, String)> {
    memo.group(group).exprs.iter().find_map(|&eid| {
        let LogicalOp::Get { meta, .. } = &memo.expr(eid).op else {
            return None;
        };
        let schema = &meta.catalog.schema;
        let ix = meta.catalog.indexes.iter().find(|ix| {
            schema
                .index_of(&ix.key_columns[0])
                .map(|p| meta.column_id(p))
                == Some(probe_col)
        })?;
        Some((Arc::clone(meta), ix.name.clone()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{test_table_meta, Locality, LogicalExpr};
    use crate::props::ColumnRegistry;
    use crate::search::OptimizerConfig;
    use dhqp_types::DataType;

    struct Fixture {
        registry: ColumnRegistry,
        nation: Arc<TableMeta>,
        customer: Arc<TableMeta>,
    }

    /// Local `nation` (25 rows, key `nk`) and remote `customer` (5 000
    /// rows, key `ck`, index-capable server).
    fn fixture() -> Fixture {
        let mut registry = ColumnRegistry::new();
        let keyed = |meta: Arc<TableMeta>, key: &str| {
            let mut m = (*meta).clone();
            Arc::make_mut(&mut m.catalog)
                .indexes
                .push(dhqp_oledb::IndexInfo {
                    name: format!("pk_{}", m.table),
                    key_columns: vec![key.into()],
                    unique: true,
                });
            Arc::new(m)
        };
        let nation = test_table_meta(
            0,
            "nation",
            Locality::Local,
            &[("nk", DataType::Int)],
            &mut registry,
            25,
        );
        let customer = test_table_meta(
            1,
            "customer",
            Locality::remote("r0"),
            &[("ck", DataType::Int), ("cnk", DataType::Int)],
            &mut registry,
            5000,
        );
        Fixture {
            registry,
            nation: keyed(nation, "nk"),
            customer: keyed(customer, "ck"),
        }
    }

    /// Every alternative the rules offer for the root expression of `tree`.
    fn root_alternatives(tree: &LogicalExpr, f: &Fixture) -> Vec<PhysAlt> {
        let mut memo = Memo::new();
        let root = memo.insert_tree(tree, &f.registry);
        let config = OptimizerConfig::default();
        let ctx = RuleContext {
            registry: &f.registry,
            config: &config,
        };
        let expr = memo.expr(memo.group(root).exprs[0]).clone();
        implementations(
            &expr,
            &memo,
            &ctx,
            &RequiredProps::none(),
            OptimizationPhase::QuickPlan,
        )
    }

    fn key_eq_param(meta: &TableMeta) -> ScalarExpr {
        ScalarExpr::eq(
            ScalarExpr::Column(meta.column_id(0)),
            ScalarExpr::Param("p".into()),
        )
    }

    #[test]
    fn a_semijoin_that_cannot_reduce_is_not_offered() {
        let f = fixture();
        let on = ScalarExpr::eq(
            ScalarExpr::Column(f.nation.column_id(0)),
            ScalarExpr::Column(f.customer.column_id(1)),
        );
        let offered = |probe: LogicalExpr| {
            let join = LogicalExpr::join(
                JoinKind::Inner,
                LogicalExpr::get(Arc::clone(&f.nation)),
                probe,
                Some(on.clone()),
            );
            root_alternatives(&join, &f).iter().any(|alt| {
                matches!(
                    alt,
                    PhysAlt::Node {
                        op: PhysicalOp::SemiJoinReduce {
                            per_request: 64,
                            ..
                        },
                        ..
                    }
                )
            })
        };
        // 25 nation keys against the whole customer table: fewer keys
        // than the probe column has values, the list reduces.
        assert!(offered(LogicalExpr::get(Arc::clone(&f.customer))));
        // The probe side already bound to its key is one row; 25 keys
        // shipped to fetch it again reduce nothing.
        assert!(!offered(
            LogicalExpr::get(Arc::clone(&f.customer)).filter(key_eq_param(&f.customer))
        ));
    }

    #[test]
    fn a_range_is_sized_by_the_conjuncts_it_covers() {
        let f = fixture();
        let k = ScalarExpr::Column(f.customer.column_id(0));
        let range_rows = |pred: ScalarExpr| {
            let tree = LogicalExpr::get(Arc::clone(&f.customer)).filter(pred);
            let found: Vec<f64> = root_alternatives(&tree, &f)
                .iter()
                .filter_map(|alt| match alt {
                    PhysAlt::Node { children, .. } => match children.first() {
                        Some(PhysAlt::Node {
                            op: PhysicalOp::RemoteRange { .. },
                            est_rows,
                            ..
                        }) => Some(*est_rows),
                        _ => None,
                    },
                    PhysAlt::ChildRef { .. } => None,
                })
                .collect();
            assert_eq!(found.len(), 1, "one index, one range alternative");
            found[0]
        };
        // A bound unique key: one row.
        assert_eq!(range_rows(key_eq_param(&f.customer)), 1.0);
        // The equality is what the range seeks on; the residual `<>` is
        // the filter's, so the range stays at (not below) the filter.
        let neq = ScalarExpr::cmp(CmpOp::Neq, k.clone(), ScalarExpr::Param("q".into()));
        let both = ScalarExpr::and(vec![key_eq_param(&f.customer), neq]).unwrap();
        assert_eq!(range_rows(both), 1.0);
        // Both bounds unknown: the estimator's two range guesses, not a
        // third constant of the rule's own.
        let between = ScalarExpr::and(vec![
            ScalarExpr::cmp(CmpOp::Ge, k.clone(), ScalarExpr::Param("lo".into())),
            ScalarExpr::cmp(CmpOp::Lt, k.clone(), ScalarExpr::Param("hi".into())),
        ])
        .unwrap();
        let tree = LogicalExpr::get(Arc::clone(&f.customer)).filter(between.clone());
        let mut memo = Memo::new();
        let root = memo.insert_tree(&tree, &f.registry);
        assert_eq!(range_rows(between), memo.group(root).props.cardinality);
    }
}
