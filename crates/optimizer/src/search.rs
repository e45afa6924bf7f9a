//! The phased, memoizing plan search (paper §4.1.1).
//!
//! "Rules are split into different optimization phases consisting of a
//! round of exploration rules followed by implementation rules. Early
//! phases have a restricted set of rules enabled to attempt to find a good
//! plan quickly. If the cost of the best solution found after a phase is
//! acceptable, the solution is returned." SQL Server's three phases —
//! transaction processing, quick plan and full optimization — are
//! reproduced here, including cost-threshold early exit.

use crate::cost::CostModel;
use crate::decoder::Decoder;
use crate::logical::{LogicalExpr, LogicalOp};
use crate::memo::{GroupId, Memo, Winner};
use crate::physical::{PhysNode, PhysicalOp};
use crate::props::{ColumnId, ColumnRegistry, RequiredProps};
use crate::rules::exploration::{all_rules, remote_group_caps, ExplorationRule};
use crate::rules::implementation::implementations;
use crate::rules::simplify::{simplify, SimplifyOptions};
use crate::rules::{Delivered, PhysAlt, RuleContext};
use dhqp_types::{DhqpError, Result};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// SQL Server's optimization phases, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OptimizationPhase {
    /// Minimal rule set for cheap OLTP-style plans: scans, filters, nested
    /// loops, remote query pushdown — no exploration.
    TransactionProcessing,
    /// Adds join commutation, implied key sets, hash joins, spools and
    /// parameterized remote access.
    QuickPlan,
    /// Adds join re-association (with locality grouping), merge joins,
    /// stream aggregates.
    Full,
}

impl OptimizationPhase {
    pub fn name(&self) -> &'static str {
        match self {
            OptimizationPhase::TransactionProcessing => "transaction-processing",
            OptimizationPhase::QuickPlan => "quick-plan",
            OptimizationPhase::Full => "full",
        }
    }

    fn exploration_rules(&self) -> Vec<Box<dyn ExplorationRule>> {
        match self {
            OptimizationPhase::TransactionProcessing => Vec::new(),
            OptimizationPhase::QuickPlan => all_rules()
                .into_iter()
                .filter(|r| r.name() != "JoinAssociate")
                .collect(),
            OptimizationPhase::Full => all_rules(),
        }
    }
}

/// Optimizer configuration, including the ablation switches the benchmark
/// suite flips.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerConfig {
    /// Run exactly this phase instead of the adaptive ladder.
    pub forced_phase: Option<OptimizationPhase>,
    /// *Spool over remote operation* enforcer (E8 ablation).
    pub enable_spool: bool,
    /// *Grouping joins based on locality* (E1 ablation).
    pub enable_locality_grouping: bool,
    /// Parameterized remote access paths (E10 ablation).
    pub enable_remote_param: bool,
    /// The *build remote query* rule; off forces row shipping via remote
    /// scans (E1/E3 ablation).
    pub enable_remote_query: bool,
    /// Semi-join reduction: collect the small build side's join keys at
    /// drive time and bind them to the remote statement's key-set
    /// `IN`-list, cutting returned rows before they cross the link.
    /// On by default (`DHQP_SEMIJOIN`).
    pub enable_semijoin: bool,
    /// Keys per request of the all-keys semi-join reduction, and its
    /// admission ceiling: past this many estimated build keys it is not
    /// considered. `DHQP_SEMIJOIN_MAX_KEYS`, default 64.
    pub semijoin_max_keys: usize,
    pub simplify: SimplifyOptions,
    pub cost: CostModel,
    /// Early-exit thresholds: stop after a phase whose best cost is below.
    pub tp_cost_threshold: f64,
    pub quick_cost_threshold: f64,
    /// Fixpoint guard for exploration passes per phase.
    pub max_exploration_passes: usize,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            forced_phase: None,
            enable_spool: true,
            enable_locality_grouping: true,
            enable_remote_param: true,
            enable_remote_query: true,
            enable_semijoin: true,
            semijoin_max_keys: 64,
            simplify: SimplifyOptions::default(),
            cost: CostModel::default(),
            tp_cost_threshold: 500.0,
            quick_cost_threshold: 500_000.0,
            max_exploration_passes: 4,
        }
    }
}

/// Search telemetry, reported through EXPLAIN and the E9 bench.
#[derive(Debug, Clone, Default)]
pub struct OptimizerStats {
    pub groups: usize,
    pub exprs: usize,
    pub rules_fired: usize,
    /// Applications per rule name, summed over phases and sorted by name.
    /// Covers the exploration rules plus the group-level *build remote
    /// query* rule and the Sort enforcer, so a trace can show where the
    /// memo search spent its alternatives. (The enforcer entries are not
    /// part of `rules_fired`, which keeps its original exploration-only
    /// meaning.)
    pub rule_counts: Vec<(&'static str, usize)>,
    /// `(phase, best cost found, time spent)` per executed phase.
    pub phases: Vec<(OptimizationPhase, f64, Duration)>,
    /// True when a phase threshold stopped the ladder early.
    pub early_exit: bool,
}

/// The optimizer entry point.
pub struct Optimizer {
    pub config: OptimizerConfig,
}

impl Optimizer {
    pub fn new(config: OptimizerConfig) -> Self {
        Optimizer { config }
    }

    pub fn with_defaults() -> Self {
        Optimizer::new(OptimizerConfig::default())
    }

    /// Optimize a logical tree into a physical plan meeting `required`.
    /// The registry is mutable because simplification may introduce derived
    /// columns (partial aggregates).
    pub fn optimize(
        &self,
        tree: LogicalExpr,
        registry: &mut ColumnRegistry,
        required: RequiredProps,
    ) -> Result<(PhysNode, OptimizerStats)> {
        let config = &self.config;
        let tree = simplify(tree, &config.simplify, registry);
        let mut memo = Memo::new();
        let root = memo.insert_tree(&tree, registry);
        let mut stats = OptimizerStats::default();
        let phases: Vec<OptimizationPhase> = match config.forced_phase {
            Some(p) => vec![p],
            None => vec![
                OptimizationPhase::TransactionProcessing,
                OptimizationPhase::QuickPlan,
                OptimizationPhase::Full,
            ],
        };
        let mut best: Option<Winner> = None;
        let mut rule_counts: HashMap<&'static str, usize> = HashMap::new();
        let n_phases = phases.len();
        for (i, phase) in phases.into_iter().enumerate() {
            let t0 = Instant::now();
            let mut driver = SearchDriver {
                memo: &mut memo,
                registry,
                config,
                phase,
                leaf_rows_cache: HashMap::new(),
                rules_fired: 0,
                rule_counts: HashMap::new(),
            };
            driver.explore_all();
            driver.clear_winners();
            let winner = driver.optimize_group(root, &required);
            stats.rules_fired += driver.rules_fired;
            for (name, n) in driver.rule_counts {
                *rule_counts.entry(name).or_insert(0) += n;
            }
            let elapsed = t0.elapsed();
            if let Some(w) = winner {
                stats.phases.push((phase, w.cost, elapsed));
                let threshold = match phase {
                    OptimizationPhase::TransactionProcessing => config.tp_cost_threshold,
                    OptimizationPhase::QuickPlan => config.quick_cost_threshold,
                    OptimizationPhase::Full => f64::INFINITY,
                };
                let good_enough = w.cost <= threshold;
                let keep = best.as_ref().is_none_or(|b| w.cost < b.cost);
                if keep {
                    best = Some(w);
                }
                if good_enough && i + 1 < n_phases {
                    stats.early_exit = true;
                    break;
                }
            } else {
                stats.phases.push((phase, f64::INFINITY, elapsed));
            }
        }
        stats.groups = memo.group_count();
        stats.exprs = memo.expr_count();
        stats.rule_counts = rule_counts.into_iter().collect();
        stats.rule_counts.sort_unstable();
        let best =
            best.ok_or_else(|| DhqpError::Optimize("no physical plan found for query".into()))?;
        let mut plan = best.plan;
        plan.est_cost = best.cost;
        Ok((plan, stats))
    }
}

/// One phase's worth of search state.
struct SearchDriver<'a> {
    memo: &'a mut Memo,
    registry: &'a ColumnRegistry,
    config: &'a OptimizerConfig,
    phase: OptimizationPhase,
    leaf_rows_cache: HashMap<GroupId, f64>,
    rules_fired: usize,
    rule_counts: HashMap<&'static str, usize>,
}

impl<'a> SearchDriver<'a> {
    /// Run this phase's exploration rules over the whole memo to fixpoint
    /// (bounded by `max_exploration_passes`).
    fn explore_all(&mut self) {
        let rules = self.phase.exploration_rules();
        if rules.is_empty() {
            return;
        }
        let ctx = RuleContext {
            registry: self.registry,
            config: self.config,
        };
        for _pass in 0..self.config.max_exploration_passes {
            let mut changed = false;
            let group_count = self.memo.group_count();
            for g in 0..group_count {
                let gid = GroupId(g as u32);
                let expr_ids = self.memo.group(gid).exprs.clone();
                for eid in expr_ids {
                    let mexpr = self.memo.expr(eid).clone();
                    for rule in &rules {
                        if !rule.matches(&mexpr.op) {
                            continue;
                        }
                        for alt in rule.apply(&mexpr, gid, self.memo, &ctx) {
                            if self
                                .memo
                                .insert_alternative_tree(&alt, gid, self.registry)
                                .is_some()
                            {
                                changed = true;
                                self.rules_fired += 1;
                                *self.rule_counts.entry(rule.name()).or_insert(0) += 1;
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Winners computed under an earlier (smaller) rule set are stale once a
    /// new phase adds alternatives.
    fn clear_winners(&mut self) {
        for g in 0..self.memo.group_count() {
            self.memo.group_mut(GroupId(g as u32)).winners.clear();
        }
    }

    /// Sum of leaf-table cardinalities under a group — the work a remote
    /// server must at least perform to answer a pushed query.
    fn leaf_rows(&mut self, group: GroupId) -> f64 {
        if let Some(&v) = self.leaf_rows_cache.get(&group) {
            return v;
        }
        // Temporarily mark to avoid re-walking shared subtrees.
        self.leaf_rows_cache.insert(group, 0.0);
        let first = self.memo.group(group).exprs.first().copied();
        let v = match first {
            None => 0.0,
            Some(eid) => {
                let mexpr = self.memo.expr(eid).clone();
                match &mexpr.op {
                    LogicalOp::Get { meta, .. } => meta.estimated_rows(),
                    _ => mexpr.children.iter().map(|&c| self.leaf_rows(c)).sum(),
                }
            }
        };
        self.leaf_rows_cache.insert(group, v);
        v
    }

    /// Find the cheapest plan for `group` delivering `required`.
    fn optimize_group(&mut self, group: GroupId, required: &RequiredProps) -> Option<Winner> {
        if let Some(cached) = self.memo.group(group).winners.get(required) {
            return cached.clone();
        }
        // In-progress marker (also memoizes failure).
        self.memo
            .group_mut(group)
            .winners
            .insert(required.clone(), None);

        let mut best: Option<Winner> = None;
        let ctx = RuleContext {
            registry: self.registry,
            config: self.config,
        };

        // Implementation rules over every logical alternative.
        let expr_ids = self.memo.group(group).exprs.clone();
        for eid in expr_ids {
            let mexpr = self.memo.expr(eid).clone();
            let alts = implementations(&mexpr, self.memo, &ctx, required, self.phase);
            for alt in alts {
                let delivered = alt_delivered(&alt);
                if !delivered.satisfies(required) {
                    continue;
                }
                if let Some((cost, plan)) = self.build_alt(&alt, group) {
                    if best.as_ref().is_none_or(|b| cost < b.cost) {
                        best = Some(Winner { cost, plan });
                    }
                }
            }
        }

        // The *build remote query* rule, applied at group level: when every
        // leaf lives on one SQL-capable remote server, ship the whole
        // subtree as one statement (§4.1.2). ORDER BY is pushed too when
        // the requirement asks for it.
        if self.config.enable_remote_query {
            if let Some(w) = self.try_remote_query(group, required) {
                *self.rule_counts.entry("BuildRemoteQuery").or_insert(0) += 1;
                if best.as_ref().is_none_or(|b| w.cost < b.cost) {
                    best = Some(w);
                }
            }
        }

        // Sort enforcer: satisfy an ordering requirement by sorting the
        // cheapest unordered plan. Not valid for order-sensitive groups:
        // `Sort(Top(x))` selects different rows than `Top(Sort(x))`, so a
        // Limit group must receive its order from below.
        let order_sensitive = self
            .memo
            .group(group)
            .exprs
            .iter()
            .any(|&e| matches!(self.memo.expr(e).op, LogicalOp::Limit { .. }));
        if !required.ordering.is_empty() && !order_sensitive {
            if let Some(unordered) = self.optimize_group(group, &RequiredProps::none()) {
                let props = &self.memo.group(group).props;
                let sort_cost = self.config.cost.sort(props.cardinality);
                let cost = unordered.cost + sort_cost;
                if best.as_ref().is_none_or(|b| cost < b.cost) {
                    *self.rule_counts.entry("SortEnforcer").or_insert(0) += 1;
                    let output = unordered.plan.output.clone();
                    let mut node = PhysNode::new(
                        PhysicalOp::Sort {
                            keys: required.ordering.clone(),
                        },
                        vec![unordered.plan],
                        output,
                    );
                    node.est_rows = props.cardinality;
                    node.est_cost = cost;
                    best = Some(Winner { cost, plan: node });
                }
            }
        }

        self.memo
            .group_mut(group)
            .winners
            .insert(required.clone(), best.clone());
        best
    }

    /// Attempt to decode the whole group into one remote statement.
    fn try_remote_query(&mut self, group: GroupId, required: &RequiredProps) -> Option<Winner> {
        let (server, caps) = remote_group_caps(self.memo, group)?;
        let mut decoder = Decoder::new(self.memo, &caps, &server);
        let remote = decoder.build(group, None, &required.ordering, None)?;
        let props = &self.memo.group(group).props;
        let (card, width) = (props.cardinality, props.row_width);
        let leaf_rows = self.leaf_rows(group);
        let cost =
            self.config
                .cost
                .remote_result(&caps, remote.keys as f64, card, width, leaf_rows);
        let mut node = PhysNode::new(
            PhysicalOp::RemoteQuery {
                server,
                sql: remote.sql,
                columns: remote.columns.clone(),
                params: remote.params,
            },
            vec![],
            remote.columns,
        );
        node.est_rows = card;
        node.est_cost = cost;
        Some(Winner { cost, plan: node })
    }

    /// Recursively cost and materialize a physical alternative.
    fn build_alt(&mut self, alt: &PhysAlt, group: GroupId) -> Option<(f64, PhysNode)> {
        match alt {
            PhysAlt::ChildRef {
                group: g,
                required,
                multiplier,
            } => {
                let w = self.optimize_group(*g, required)?;
                Some((w.cost * multiplier, w.plan))
            }
            PhysAlt::Node {
                op,
                est_rows,
                extra_cost,
                children,
                ..
            } => {
                let mut child_nodes = Vec::with_capacity(children.len());
                let mut child_cost_sum = 0.0;
                for c in children {
                    let (cost, node) = self.build_alt(c, group)?;
                    child_cost_sum += cost;
                    child_nodes.push(node);
                }
                let props = &self.memo.group(group).props;
                let rows = if *est_rows > 0.0 {
                    *est_rows
                } else {
                    props.cardinality
                };
                let local = self.op_cost(op, rows, &child_nodes) + extra_cost;
                let cost = local + child_cost_sum;
                let output = node_output(op, &child_nodes);
                let mut node = PhysNode::new(op.clone(), child_nodes, output);
                node.est_rows = rows;
                node.est_cost = cost;
                Some((cost, node))
            }
        }
    }

    /// Local cost of one operator given its (already built) children.
    fn op_cost(&self, op: &PhysicalOp, rows: f64, children: &[PhysNode]) -> f64 {
        let m = &self.config.cost;
        let c0 = children.first().map(|c| c.est_rows).unwrap_or(0.0);
        let c1 = children.get(1).map(|c| c.est_rows).unwrap_or(0.0);
        match op {
            PhysicalOp::TableScan { meta } => meta.estimated_rows() * m.scan_row,
            PhysicalOp::IndexRange { .. } => m.index_seek + rows * m.index_row,
            PhysicalOp::RemoteScan { meta } => {
                let w = meta.catalog.schema.estimated_row_width() as f64 + 8.0;
                m.remote_result(
                    &meta.caps,
                    0.0,
                    meta.estimated_rows(),
                    w,
                    meta.estimated_rows(),
                )
            }
            PhysicalOp::RemoteRange { meta, .. } => {
                let w = meta.catalog.schema.estimated_row_width() as f64 + 8.0;
                m.remote_result(&meta.caps, 0.0, rows, w, rows)
            }
            // Local terms only: the build side (c0) hashes locally and the
            // join output probes back. The wire cost — which depends on the
            // *probe group's* cardinality, not the join output — is extra
            // cost from the rule, which prices one key per request whole.
            PhysicalOp::SemiJoinReduce { per_request: 1, .. } => 0.0,
            PhysicalOp::SemiJoinReduce { .. } => c0 * m.hash_build_row + rows * m.hash_probe_row,
            PhysicalOp::Filter { .. } => c0 * m.cpu_row,
            PhysicalOp::StartupFilter { .. } => 1.0,
            PhysicalOp::Project { .. } => c0 * m.cpu_row,
            PhysicalOp::NestedLoopJoin { .. } => (c0 * c1.max(1.0)).max(c0) * m.cpu_row,
            PhysicalOp::HashJoin { .. } => {
                c1 * m.hash_build_row + c0 * m.hash_probe_row + rows * m.cpu_row
            }
            PhysicalOp::MergeJoin { .. } => (c0 + c1) * m.cpu_row + rows * m.cpu_row,
            PhysicalOp::HashAggregate { .. } => c0 * m.hash_build_row + rows * m.cpu_row,
            PhysicalOp::StreamAggregate { .. } => c0 * m.cpu_row,
            PhysicalOp::Sort { .. } => m.sort(c0),
            PhysicalOp::Top { .. } => rows * m.cpu_row,
            PhysicalOp::UnionAll { .. } => {
                children.iter().map(|c| c.est_rows).sum::<f64>() * m.cpu_row * 0.1
            }
            // Costed where they are built: a spool by its rule's extra cost,
            // a remote query by the build-remote-query rule.
            PhysicalOp::Spool | PhysicalOp::RemoteQuery { .. } => 0.0,
            PhysicalOp::Values { .. } | PhysicalOp::Empty { .. } => rows.max(1.0) * m.cpu_row,
        }
    }
}

/// The ordering an alternative's root delivers.
fn alt_delivered(alt: &PhysAlt) -> RequiredProps {
    match alt {
        PhysAlt::ChildRef { required, .. } => required.clone(),
        PhysAlt::Node {
            delivered,
            children,
            ..
        } => match delivered {
            Delivered::None => RequiredProps::none(),
            Delivered::Keys(k) => RequiredProps::ordered(k.clone()),
            Delivered::Inherit(i) => children.get(*i).map(alt_delivered).unwrap_or_default(),
        },
    }
}

/// Output column list of a physical node given its children.
fn node_output(op: &PhysicalOp, children: &[PhysNode]) -> Vec<ColumnId> {
    match op {
        PhysicalOp::TableScan { meta }
        | PhysicalOp::IndexRange { meta, .. }
        | PhysicalOp::RemoteScan { meta }
        | PhysicalOp::RemoteRange { meta, .. } => meta.column_ids.clone(),
        PhysicalOp::RemoteQuery { columns, .. } => columns.clone(),
        PhysicalOp::SemiJoinReduce { kind, columns, .. } => {
            let mut out = children[0].output.clone();
            if kind.produces_right() {
                out.extend(columns.iter().copied());
            }
            out
        }
        PhysicalOp::Filter { .. }
        | PhysicalOp::StartupFilter { .. }
        | PhysicalOp::Sort { .. }
        | PhysicalOp::Top { .. }
        | PhysicalOp::Spool => children[0].output.clone(),
        PhysicalOp::Project { outputs } => outputs.iter().map(|(c, _)| *c).collect(),
        PhysicalOp::NestedLoopJoin { kind, .. } | PhysicalOp::HashJoin { kind, .. } => {
            let mut out = children[0].output.clone();
            if kind.produces_right() {
                out.extend(children[1].output.iter().copied());
            }
            out
        }
        PhysicalOp::MergeJoin { .. } => {
            let mut out = children[0].output.clone();
            out.extend(children[1].output.iter().copied());
            out
        }
        PhysicalOp::HashAggregate { group_by, aggs }
        | PhysicalOp::StreamAggregate { group_by, aggs } => {
            let mut out = group_by.clone();
            out.extend(aggs.iter().map(|a| a.output));
            out
        }
        PhysicalOp::UnionAll { output, .. } => output.clone(),
        PhysicalOp::Values { columns, .. } | PhysicalOp::Empty { columns } => columns.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{test_table_meta, JoinKind, Locality, TableMeta};
    use crate::props::PhysicalProps;
    use crate::scalar::{AggCall, AggFunc, CmpOp, ScalarExpr};
    use dhqp_types::{DataType, Value};
    use std::sync::Arc;

    struct Fixture {
        registry: ColumnRegistry,
        local: Arc<TableMeta>,
        remote_a: Arc<TableMeta>,
        remote_b: Arc<TableMeta>,
    }

    fn fixture() -> Fixture {
        let mut registry = ColumnRegistry::new();
        let local = test_table_meta(
            0,
            "nation",
            Locality::Local,
            &[("nk", DataType::Int), ("nname", DataType::Str)],
            &mut registry,
            25,
        );
        let remote_a = test_table_meta(
            1,
            "customer",
            Locality::remote("r0"),
            &[("ck", DataType::Int), ("cnk", DataType::Int)],
            &mut registry,
            5000,
        );
        let remote_b = test_table_meta(
            2,
            "supplier",
            Locality::remote("r0"),
            &[("sk", DataType::Int), ("snk", DataType::Int)],
            &mut registry,
            200,
        );
        Fixture {
            registry,
            local,
            remote_a,
            remote_b,
        }
    }

    fn eq(l: ColumnId, r: ColumnId) -> ScalarExpr {
        ScalarExpr::eq(ScalarExpr::Column(l), ScalarExpr::Column(r))
    }

    #[test]
    fn fully_remote_selective_tree_becomes_one_remote_query() {
        let f = fixture();
        // A selective filter makes the join output far smaller than the
        // base tables, so pushing the whole statement minimizes traffic.
        let tree = LogicalExpr::join(
            JoinKind::Inner,
            LogicalExpr::get(Arc::clone(&f.remote_a)),
            LogicalExpr::get(Arc::clone(&f.remote_b)).filter(ScalarExpr::cmp(
                CmpOp::Eq,
                ScalarExpr::Column(f.remote_b.column_id(0)),
                ScalarExpr::literal(Value::Int(3)),
            )),
            Some(eq(f.remote_a.column_id(1), f.remote_b.column_id(1))),
        );
        let (plan, _) = Optimizer::with_defaults()
            .optimize(tree, &mut f.registry.clone(), RequiredProps::none())
            .unwrap();
        assert!(
            matches!(plan.op, PhysicalOp::RemoteQuery { .. }),
            "{}",
            plan.display_indent()
        );
    }

    #[test]
    fn fully_remote_exploding_join_ships_tables_not_result() {
        let f = fixture();
        // With a 10 000-row join output vs 5 200 base rows, separate
        // access wins — the Figure 4 reasoning applied within one server.
        let tree = LogicalExpr::join(
            JoinKind::Inner,
            LogicalExpr::get(Arc::clone(&f.remote_a)),
            LogicalExpr::get(Arc::clone(&f.remote_b)),
            Some(eq(f.remote_a.column_id(1), f.remote_b.column_id(1))),
        );
        let (plan, _) = Optimizer::with_defaults()
            .optimize(tree, &mut f.registry.clone(), RequiredProps::none())
            .unwrap();
        assert!(
            !matches!(plan.op, PhysicalOp::RemoteQuery { .. }),
            "join output exceeds inputs; must not push:\n{}",
            plan.display_indent()
        );
    }

    #[test]
    fn mixed_locality_example1_shape_avoids_pushed_join() {
        let f = fixture();
        // (customer ⋈ nation) ⋈ supplier with nation as the middle key —
        // the optimizer should not ship customer⋈supplier.
        let tree = LogicalExpr::join(
            JoinKind::Inner,
            LogicalExpr::join(
                JoinKind::Inner,
                LogicalExpr::get(Arc::clone(&f.remote_a)),
                LogicalExpr::get(Arc::clone(&f.local)),
                Some(eq(f.remote_a.column_id(1), f.local.column_id(0))),
            ),
            LogicalExpr::get(Arc::clone(&f.remote_b)),
            Some(eq(f.local.column_id(0), f.remote_b.column_id(1))),
        );
        let (plan, stats) = Optimizer::with_defaults()
            .optimize(tree, &mut f.registry.clone(), RequiredProps::none())
            .unwrap();
        let text = plan.display_indent();
        let remote_joins = plan.count_ops(
            &mut |op| matches!(op, PhysicalOp::RemoteQuery { sql, .. } if sql.contains("JOIN")),
        );
        assert_eq!(remote_joins, 0, "no pushed customer⋈supplier:\n{text}");
        assert!(stats.phases.len() >= 2, "remote plans escalate past TP");
    }

    #[test]
    fn ordering_requirement_is_enforced_or_delivered() {
        let f = fixture();
        let tree = LogicalExpr::get(Arc::clone(&f.local));
        let required = PhysicalProps::ordered(vec![(f.local.column_id(1), true)]);
        let (plan, _) = Optimizer::with_defaults()
            .optimize(tree, &mut f.registry.clone(), required)
            .unwrap();
        // No index on nname: a Sort enforcer must appear at the root.
        assert!(
            matches!(plan.op, PhysicalOp::Sort { .. }),
            "{}",
            plan.display_indent()
        );
    }

    #[test]
    fn remote_order_by_is_pushed_when_possible() {
        let f = fixture();
        let tree = LogicalExpr::get(Arc::clone(&f.remote_a));
        let required = PhysicalProps::ordered(vec![(f.remote_a.column_id(0), true)]);
        let (plan, _) = Optimizer::with_defaults()
            .optimize(tree, &mut f.registry.clone(), required)
            .unwrap();
        match &plan.op {
            PhysicalOp::RemoteQuery { sql, .. } => {
                assert!(sql.contains("ORDER BY"), "{sql}");
            }
            PhysicalOp::Sort { .. } => {} // also legal: local sort of remote scan
            other => panic!("unexpected root {other:?}"),
        }
    }

    #[test]
    fn aggregate_gets_hash_implementation() {
        let f = fixture();
        let mut registry = f.registry.clone();
        let out = registry.allocate("cnt", "", DataType::Int, false);
        let tree = LogicalExpr::get(Arc::clone(&f.local)).aggregate(
            vec![f.local.column_id(1)],
            vec![AggCall {
                func: AggFunc::CountStar,
                arg: None,
                distinct: false,
                output: out,
            }],
        );
        let (plan, _) = Optimizer::with_defaults()
            .optimize(tree, &mut registry, RequiredProps::none())
            .unwrap();
        assert!(
            plan.count_ops(&mut |op| matches!(
                op,
                PhysicalOp::HashAggregate { .. } | PhysicalOp::StreamAggregate { .. }
            )) == 1,
            "{}",
            plan.display_indent()
        );
    }

    #[test]
    fn forced_phases_all_produce_valid_plans() {
        let f = fixture();
        for phase in [
            OptimizationPhase::TransactionProcessing,
            OptimizationPhase::QuickPlan,
            OptimizationPhase::Full,
        ] {
            let tree = LogicalExpr::join(
                JoinKind::Inner,
                LogicalExpr::get(Arc::clone(&f.local)),
                LogicalExpr::get(Arc::clone(&f.remote_b)),
                Some(eq(f.local.column_id(0), f.remote_b.column_id(1))),
            );
            let config = OptimizerConfig {
                forced_phase: Some(phase),
                ..Default::default()
            };
            let (plan, stats) = Optimizer::new(config)
                .optimize(tree, &mut f.registry.clone(), RequiredProps::none())
                .unwrap();
            assert!(plan.est_cost.is_finite());
            assert_eq!(stats.phases.len(), 1);
        }
    }

    #[test]
    fn phase_costs_are_monotonically_non_increasing() {
        let f = fixture();
        let tree = LogicalExpr::join(
            JoinKind::Inner,
            LogicalExpr::join(
                JoinKind::Inner,
                LogicalExpr::get(Arc::clone(&f.remote_a)),
                LogicalExpr::get(Arc::clone(&f.local)),
                Some(eq(f.remote_a.column_id(1), f.local.column_id(0))),
            ),
            LogicalExpr::get(Arc::clone(&f.remote_b)),
            Some(eq(f.local.column_id(0), f.remote_b.column_id(1))),
        );
        let mut last = f64::INFINITY;
        for phase in [
            OptimizationPhase::TransactionProcessing,
            OptimizationPhase::QuickPlan,
            OptimizationPhase::Full,
        ] {
            let config = OptimizerConfig {
                forced_phase: Some(phase),
                ..Default::default()
            };
            let (plan, _) = Optimizer::new(config)
                .optimize(tree.clone(), &mut f.registry.clone(), RequiredProps::none())
                .unwrap();
            assert!(
                plan.est_cost <= last + 1e-6,
                "{} cost {} regressed from {last}",
                phase.name(),
                plan.est_cost
            );
            last = plan.est_cost;
        }
    }

    #[test]
    fn cheap_local_plan_exits_early() {
        let f = fixture();
        let tree = LogicalExpr::get(Arc::clone(&f.local)).filter(ScalarExpr::cmp(
            CmpOp::Eq,
            ScalarExpr::Column(f.local.column_id(0)),
            ScalarExpr::literal(Value::Int(3)),
        ));
        let (_, stats) = Optimizer::with_defaults()
            .optimize(tree, &mut f.registry.clone(), RequiredProps::none())
            .unwrap();
        assert!(stats.early_exit, "trivial local lookup should exit at TP");
        assert_eq!(stats.phases.len(), 1);
    }

    #[test]
    fn empty_get_plans_to_empty() {
        let f = fixture();
        let tree = LogicalExpr::get(Arc::clone(&f.local)).filter(ScalarExpr::cmp(
            CmpOp::Eq,
            ScalarExpr::literal(Value::Int(1)),
            ScalarExpr::literal(Value::Int(2)),
        ));
        let (plan, _) = Optimizer::with_defaults()
            .optimize(tree, &mut f.registry.clone(), RequiredProps::none())
            .unwrap();
        assert!(
            matches!(plan.op, PhysicalOp::Empty { .. }),
            "{}",
            plan.display_indent()
        );
    }

    #[test]
    fn disabled_remote_query_falls_back_to_scans() {
        let f = fixture();
        let tree = LogicalExpr::get(Arc::clone(&f.remote_a));
        let config = OptimizerConfig {
            enable_remote_query: false,
            ..Default::default()
        };
        let (plan, _) = Optimizer::new(config)
            .optimize(tree, &mut f.registry.clone(), RequiredProps::none())
            .unwrap();
        assert!(
            matches!(plan.op, PhysicalOp::RemoteScan { .. }),
            "{}",
            plan.display_indent()
        );
    }
}
