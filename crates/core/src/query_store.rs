//! Query Store: per-fingerprint plan and runtime history.
//!
//! SQL Server's Query Store persists, for every query fingerprint, each
//! distinct physical plan the optimizer produced and aggregated runtime
//! statistics per plan — the raw material for plan-regression detection
//! and history-driven costing. The paper's distributed optimizer (§4.1)
//! costs remote operators from cached statistics that can be arbitrarily
//! stale; this module closes the loop by remembering what each plan
//! *estimated* versus what it *observed*, per operator, so skewed
//! estimates become visible (`sys.query_store_runtime_stats`) and the
//! engine can feed observed remote cardinalities back into the statistics
//! cache (`DHQP_CARD_FEEDBACK`).
//!
//! The store is bounded (LRU over fingerprints, capped plans per
//! fingerprint) and epoch-aware: each plan records the schema/config
//! epochs it was compiled under, so a plan change caused by an explicit
//! reconfiguration is distinguishable from one caused by drifting
//! statistics.

use crate::record::StatementRecord;
use dhqp_sqlfront::fnv1a_64;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Default fingerprint capacity when `DHQP_QUERY_STORE_SIZE` is unset.
pub const DEFAULT_QUERY_STORE_CAPACITY: usize = 128;

/// Distinct plans remembered per fingerprint; the oldest plan is evicted
/// when a fingerprint accumulates more (plan-shape churn is the signal,
/// unbounded history is not).
pub const MAX_PLANS_PER_QUERY: usize = 8;

/// A new plan counts as regressed when its average wall time exceeds the
/// previous plan's average by this factor.
pub const REGRESSION_FACTOR: f64 = 1.5;

/// Query-store knobs (`DHQP_QUERY_STORE`, `DHQP_QUERY_STORE_SIZE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryStoreConfig {
    /// Master switch. Off by default: the store costs one runtime-stats
    /// collector per query when enabled.
    pub enabled: bool,
    /// Maximum fingerprints tracked; least-recently-executed evicted.
    pub capacity: usize,
}

impl Default for QueryStoreConfig {
    fn default() -> Self {
        QueryStoreConfig {
            enabled: false,
            capacity: DEFAULT_QUERY_STORE_CAPACITY,
        }
    }
}

/// Stable identity of a query fingerprint template.
pub fn query_id(template: &str) -> u64 {
    fnv1a_64(template)
}

/// One operator's estimated-vs-actual record inside a plan.
#[derive(Debug, Clone)]
pub struct OperatorStats {
    /// Pre-order node id (matches EXPLAIN ANALYZE and the trace).
    pub node_id: usize,
    /// `PhysNode::describe()` label.
    pub operator: String,
    /// Optimizer's cardinality estimate for this operator.
    pub est_rows: f64,
    /// Rows produced, summed over executions and rescans.
    pub total_rows: u64,
    /// Opens summed over executions (rescans included).
    pub total_opens: u64,
    /// Executions in which this operator was opened at least once.
    pub executions: u64,
}

impl OperatorStats {
    /// Average rows per execution that actually opened the operator.
    pub fn avg_rows(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.total_rows as f64 / self.executions as f64
        }
    }

    /// Symmetric estimate-vs-actual ratio (≥ 1.0 when observed): how many
    /// times the estimate was off, in either direction. `0.0` means the
    /// operator was never opened — no observation, no skew claim.
    pub fn skew(&self) -> f64 {
        if self.total_opens == 0 {
            return 0.0;
        }
        skew_ratio(self.est_rows, self.avg_rows())
    }
}

/// Symmetric ratio between an estimate and an observation, both clamped
/// to ≥ 1 so empty results don't divide by zero.
pub fn skew_ratio(est: f64, actual: f64) -> f64 {
    let est = est.max(1.0);
    let actual = actual.max(1.0);
    if actual >= est {
        actual / est
    } else {
        est / actual
    }
}

/// Aggregated history of one distinct plan for one fingerprint.
#[derive(Debug, Clone)]
pub struct PlanStats {
    /// 1-based ordinal within the fingerprint (order of first sighting).
    pub plan_id: u64,
    /// Shape hash from [`crate::record::plan_hash`].
    pub plan_hash: u64,
    /// Rendered plan tree as of first sighting.
    pub plan_text: String,
    /// Root cardinality estimate at compile time.
    pub est_rows: f64,
    /// Root cost estimate at compile time.
    pub est_cost: f64,
    /// Schema epoch the plan was first recorded under.
    pub compile_schema_epoch: u64,
    /// Config epoch the plan was first recorded under.
    pub compile_config_epoch: u64,
    /// Executions recorded against this plan.
    pub executions: u64,
    /// Result rows, summed.
    pub total_rows: u64,
    /// Wall time, summed.
    pub total_elapsed_us: u64,
    /// Link bytes shipped (all remote operators), summed.
    pub total_link_bytes: u64,
    /// Remote requests issued, summed.
    pub total_link_requests: u64,
    /// Executions per dominant wait class name.
    pub wait_tally: HashMap<&'static str, u64>,
    /// Set when this plan arrived slower than the fingerprint's previous
    /// plan (see [`REGRESSION_FACTOR`]).
    pub regressed: bool,
    /// Per-operator estimated-vs-actual records.
    pub operators: Vec<OperatorStats>,
    /// LRU tick of the last execution (store-internal ordering).
    pub last_active: u64,
}

impl PlanStats {
    pub fn avg_elapsed_us(&self) -> u64 {
        self.total_elapsed_us
            .checked_div(self.executions)
            .unwrap_or(0)
    }

    /// Wait class that dominated the most executions, if any.
    pub fn dominant_wait(&self) -> Option<&'static str> {
        self.wait_tally
            .iter()
            .max_by_key(|(name, n)| (**n, *name))
            .map(|(name, _)| *name)
    }

    /// Worst per-operator skew observed in this plan.
    pub fn max_skew(&self) -> f64 {
        self.operators.iter().map(|o| o.skew()).fold(0.0, f64::max)
    }
}

/// History for one fingerprint template.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// [`query_id`] of the template.
    pub query_id: u64,
    /// Fingerprint template (raw SQL when the statement didn't
    /// parameterize).
    pub template: String,
    /// Distinct plans, oldest first; bounded by [`MAX_PLANS_PER_QUERY`].
    pub plans: Vec<PlanStats>,
    /// Plan hash of the most recent execution.
    pub last_plan_hash: Option<u64>,
    /// LRU tick of the last execution.
    pub last_active: u64,
    /// Next plan ordinal to hand out.
    next_plan_id: u64,
}

impl QueryStats {
    /// Total executions across all plans.
    pub fn executions(&self) -> u64 {
        self.plans.iter().map(|p| p.executions).sum()
    }
}

/// Outcome of recording an execution whose plan differs from the
/// fingerprint's previous plan — the engine turns this into a
/// `plan_change` event and, when `regressed`, a `plan_regressions` bump.
#[derive(Debug, Clone)]
pub struct PlanChangeNotice {
    pub query_id: u64,
    pub template: String,
    pub old_plan_hash: u64,
    pub new_plan_hash: u64,
    /// Average wall time of the previous plan (0 when it was evicted).
    pub old_avg_us: u64,
    /// Average wall time of the new plan including this execution.
    pub new_avg_us: u64,
    pub regressed: bool,
}

/// The store proper: bounded LRU over fingerprints.
#[derive(Debug)]
pub struct QueryStore {
    capacity: usize,
    tick: u64,
    entries: HashMap<u64, QueryStats>,
}

impl QueryStore {
    pub fn new(capacity: usize) -> Self {
        QueryStore {
            capacity: capacity.max(1),
            tick: 0,
            entries: HashMap::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn clear(&mut self) {
        self.entries.clear();
    }

    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.entries.len() > self.capacity {
            self.evict_lru();
        }
    }

    fn evict_lru(&mut self) {
        if let Some(&victim) = self
            .entries
            .iter()
            .min_by_key(|(id, q)| (q.last_active, **id))
            .map(|(id, _)| id)
        {
            self.entries.remove(&victim);
        }
    }

    /// Record one successful execution that ran with a stats collector
    /// (`record.operators` is the plan), compiled under the given epochs.
    /// Returns a notice when the fingerprint switched plans.
    pub fn record(
        &mut self,
        record: &StatementRecord,
        schema_epoch: u64,
        config_epoch: u64,
    ) -> Option<PlanChangeNotice> {
        let (root, plan_hash) = (record.operators.first()?, record.plan_hash?);
        self.tick += 1;
        let tick = self.tick;
        let qid = query_id(record.template());
        if !self.entries.contains_key(&qid) {
            while self.entries.len() >= self.capacity {
                self.evict_lru();
            }
            self.entries.insert(
                qid,
                QueryStats {
                    query_id: qid,
                    template: record.template().to_string(),
                    plans: Vec::new(),
                    last_plan_hash: None,
                    last_active: tick,
                    next_plan_id: 1,
                },
            );
        }
        let entry = self.entries.get_mut(&qid).expect("just inserted");
        entry.last_active = tick;
        let previous_hash = entry.last_plan_hash;
        let old_avg_us = previous_hash
            .filter(|h| *h != plan_hash)
            .and_then(|h| entry.plans.iter().find(|p| p.plan_hash == h))
            .map(|p| p.avg_elapsed_us());

        if !entry.plans.iter().any(|p| p.plan_hash == plan_hash) {
            while entry.plans.len() >= MAX_PLANS_PER_QUERY {
                if let Some(pos) = entry
                    .plans
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, p)| p.last_active)
                    .map(|(i, _)| i)
                {
                    entry.plans.remove(pos);
                }
            }
            let plan_id = entry.next_plan_id;
            entry.next_plan_id += 1;
            // The plan as `EXPLAIN` renders it (`PhysNode::display_indent`).
            let mut plan_text = String::new();
            for op in &record.operators {
                let _ = write!(plan_text, "{}{}", "  ".repeat(op.depth), op.label);
                if !op.passthrough {
                    let _ = write!(plan_text, "  rows={:.0}", op.est_rows);
                }
                plan_text.push('\n');
            }
            entry.plans.push(PlanStats {
                plan_id,
                plan_hash,
                plan_text,
                est_rows: root.est_rows,
                est_cost: root.est_cost,
                compile_schema_epoch: schema_epoch,
                compile_config_epoch: config_epoch,
                executions: 0,
                total_rows: 0,
                total_elapsed_us: 0,
                total_link_bytes: 0,
                total_link_requests: 0,
                wait_tally: HashMap::new(),
                regressed: false,
                operators: Vec::new(),
                last_active: tick,
            });
        }
        let plan = entry
            .plans
            .iter_mut()
            .find(|p| p.plan_hash == plan_hash)
            .expect("just inserted");
        let (link_bytes, link_requests) = record.link_traffic();
        plan.last_active = tick;
        plan.executions += 1;
        plan.total_rows += record.rows;
        plan.total_elapsed_us += record.elapsed.as_micros() as u64;
        plan.total_link_bytes += link_bytes;
        plan.total_link_requests += link_requests;
        if let Some(wait) = record.dominant_wait() {
            *plan.wait_tally.entry(wait).or_insert(0) += 1;
        }
        for (node_id, op) in record.operators.iter().enumerate() {
            match plan.operators.iter_mut().find(|o| o.node_id == node_id) {
                Some(agg) => {
                    agg.total_rows += op.rows();
                    agg.total_opens += op.opens();
                    if op.opens() > 0 {
                        agg.executions += 1;
                    }
                }
                None => plan.operators.push(OperatorStats {
                    node_id,
                    operator: op.label.clone(),
                    est_rows: op.est_rows,
                    total_rows: op.rows(),
                    total_opens: op.opens(),
                    executions: u64::from(op.opens() > 0),
                }),
            }
        }

        let notice = match previous_hash {
            Some(old) if old != plan_hash => {
                let new_avg_us = plan.avg_elapsed_us();
                let old_avg = old_avg_us.unwrap_or(0);
                let regressed =
                    old_avg > 0 && new_avg_us as f64 > old_avg as f64 * REGRESSION_FACTOR;
                if regressed {
                    plan.regressed = true;
                }
                Some(PlanChangeNotice {
                    query_id: qid,
                    template: entry.template.clone(),
                    old_plan_hash: old,
                    new_plan_hash: plan_hash,
                    old_avg_us: old_avg,
                    new_avg_us,
                    regressed,
                })
            }
            _ => None,
        };
        entry.last_plan_hash = Some(plan_hash);
        notice
    }

    /// Snapshot for DMVs and tests, most-recently-executed first.
    pub fn snapshot(&self) -> Vec<QueryStats> {
        let mut all: Vec<QueryStats> = self.entries.values().cloned().collect();
        all.sort_by_key(|q| std::cmp::Reverse(q.last_active));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::OperatorRecord;
    use dhqp_executor::{NodeRuntime, RemoteTrace};
    use dhqp_oledb::{TrafficSnapshot, WaitClass, WaitStats};
    use std::time::Duration;

    /// One execution of `template` under the plan `hash` stands for: a
    /// lone remote `HashJoin` estimated at 10 rows that produced 200 and
    /// shipped 64 bytes in one request.
    fn obs(template: &str, hash: u64, elapsed_us: u64) -> StatementRecord {
        let runtime = NodeRuntime {
            opens: 1,
            rows: 200,
            remote: Some(RemoteTrace {
                traffic: TrafficSnapshot {
                    requests: 1,
                    bytes: 64,
                    ..TrafficSnapshot::default()
                },
                ..RemoteTrace::default()
            }),
            ..NodeRuntime::default()
        };
        let waits = WaitStats::default();
        waits.record(WaitClass::NetworkIo, Duration::from_micros(1));
        StatementRecord {
            fingerprint: Some(template.to_string()),
            plan_hash: Some(hash),
            waits: waits.snapshot(),
            operators: vec![OperatorRecord {
                depth: 0,
                label: "HashJoin".into(),
                est_rows: 10.0,
                est_cost: 100.0,
                passthrough: false,
                runtime: Some(runtime),
                self_time: Duration::ZERO,
            }],
            ..StatementRecord::select("q", Duration::from_micros(elapsed_us), 5)
        }
    }

    #[test]
    fn aggregates_per_plan() {
        let mut store = QueryStore::new(8);
        assert!(store.record(&obs("q1", 7, 1_000), 1, 1).is_none());
        assert!(store.record(&obs("q1", 7, 3_000), 1, 1).is_none());
        let snap = store.snapshot();
        assert_eq!(snap.len(), 1);
        let plan = &snap[0].plans[0];
        assert_eq!(plan.executions, 2);
        assert_eq!(plan.avg_elapsed_us(), 2_000);
        assert_eq!(plan.total_link_bytes, 128);
        assert_eq!(plan.dominant_wait(), Some("NETWORK_IO"));
        // est 10 vs avg actual 200 → 20x skew.
        assert!((plan.operators[0].skew() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn plan_change_and_regression() {
        let mut store = QueryStore::new(8);
        store.record(&obs("q1", 7, 1_000), 1, 1);
        // Faster new plan: change notice, no regression.
        let notice = store
            .record(&obs("q1", 8, 500), 1, 1)
            .expect("plan changed");
        assert_eq!(notice.old_plan_hash, 7);
        assert!(!notice.regressed);
        // Much slower third plan: regression flagged on the plan row.
        let notice = store
            .record(&obs("q1", 9, 50_000), 1, 1)
            .expect("plan changed");
        assert!(notice.regressed);
        let snap = store.snapshot();
        let q = &snap[0];
        assert_eq!(q.plans.len(), 3);
        assert!(q.plans.iter().find(|p| p.plan_hash == 9).unwrap().regressed);
        assert!(!q.plans.iter().find(|p| p.plan_hash == 8).unwrap().regressed);
    }

    #[test]
    fn lru_eviction_is_bounded() {
        let mut store = QueryStore::new(2);
        store.record(&obs("q1", 1, 10), 1, 1);
        store.record(&obs("q2", 1, 10), 1, 1);
        store.record(&obs("q1", 1, 10), 1, 1); // refresh q1
        store.record(&obs("q3", 1, 10), 1, 1); // evicts q2
        let names: Vec<String> = store
            .snapshot()
            .iter()
            .map(|q| q.template.clone())
            .collect();
        assert_eq!(names, vec!["q3".to_string(), "q1".to_string()]);
    }

    #[test]
    fn skew_handles_empty_results() {
        assert_eq!(skew_ratio(0.0, 0.0), 1.0);
        assert!((skew_ratio(100.0, 1.0) - 100.0).abs() < 1e-9);
        assert!((skew_ratio(1.0, 100.0) - 100.0).abs() < 1e-9);
    }
}
