//! The statement record: everything the engine learned about one finished
//! statement, built once by the statement driver's epilogue (DESIGN.md §21)
//! and handed out behind an `Arc`. The query rings, `sys.dm_exec_requests`,
//! the `query_end`/`slow_query` events, the Query Store, cardinality
//! feedback, EXPLAIN ANALYZE and the trace's operator spans all read this
//! one value; none of them is told a fact the record does not hold.

use crate::metrics::StatementKind;
use crate::trace::QueryTrace;
use dhqp_executor::{NodeRuntime, RemoteTrace};
use dhqp_oledb::WaitSnapshot;
use dhqp_optimizer::{PhysNode, PhysicalOp};
use dhqp_sqlfront::Fnv1a;
use std::collections::HashMap;
use std::time::Duration;

/// One finished statement.
#[derive(Debug, Clone)]
pub struct StatementRecord {
    /// The statement text as submitted.
    pub sql: String,
    /// `None` for text that never classified as a statement (it did not
    /// parse): such a record reaches `query_end` and the error counter but
    /// no ring and no per-kind count.
    pub kind: Option<StatementKind>,
    /// Plan-cache fingerprint template, when the statement parameterized —
    /// the join key against plan-cache and query-store rows.
    pub fingerprint: Option<String>,
    /// Plan-cache outcome: `Some(true)` served from cache, `Some(false)`
    /// compiled and inserted, `None` when the statement bypassed the cache.
    pub cache_hit: Option<bool>,
    /// Shape hash of the executed plan (see [`plan_hash`]); `None` without
    /// [`StatementRecord::operators`].
    pub plan_hash: Option<u64>,
    /// End-to-end wall time from statement begin, the one stopwatch: the
    /// trace root, the ring, `query_end` and the Query Store all report it.
    pub elapsed: Duration,
    /// Rows returned (queries) or affected (DML); 0 on error. An EXPLAIN
    /// ANALYZE counts the rows its SELECT produced, not report lines.
    pub rows: u64,
    /// The failure message; `None` means the statement succeeded.
    pub error: Option<String>,
    /// What this statement blocked on, by class.
    pub waits: WaitSnapshot,
    /// DPV members degraded mode pruned while serving it, sorted.
    pub pruned: Vec<String>,
    /// DPV members whose startup predicate rejected the parameter values,
    /// sorted. These were healthy, just provably irrelevant.
    pub startup_pruned: Vec<String>,
    /// Age of the oldest remote statistics bundle a cache-served plan was
    /// costed against.
    pub stats_age: Option<Duration>,
    /// Whether the compile consulted feedback-corrected statistics.
    pub feedback: bool,
    /// The executed plan paired with its runtime stats, in pre-order (an
    /// operator's index is its node id). Empty unless the statement ran a
    /// SELECT with a stats collector attached: EXPLAIN ANALYZE, tracing,
    /// the Query Store, cardinality feedback or an armed slow-query log.
    pub operators: Vec<OperatorRecord>,
    /// The span tree, when tracing was armed.
    pub trace: Option<QueryTrace>,
}

/// One plan operator: what the optimizer believed and what happened.
#[derive(Debug, Clone)]
pub struct OperatorRecord {
    pub depth: usize,
    /// `PhysNode::describe()`.
    pub label: String,
    pub est_rows: f64,
    pub est_cost: f64,
    /// A startup filter passes its child's rows through, so an estimate
    /// would only repeat the child's.
    pub passthrough: bool,
    /// `None` when the operator never opened (behind a failed startup
    /// filter, or replayed from a spool).
    pub runtime: Option<NodeRuntime>,
    /// Cursor time minus the direct children's: the executor's cumulative
    /// timings nest.
    pub self_time: Duration,
}

impl OperatorRecord {
    pub fn rows(&self) -> u64 {
        self.runtime.as_ref().map_or(0, |rt| rt.rows)
    }

    pub fn opens(&self) -> u64 {
        self.runtime.as_ref().map_or(0, |rt| rt.opens)
    }

    /// Cumulative cursor time (children included).
    pub fn time(&self) -> Duration {
        self.runtime
            .as_ref()
            .map_or(Duration::ZERO, |rt| rt.next_time)
    }

    /// What the operator did on the wire, for remote nodes.
    pub fn remote(&self) -> Option<&RemoteTrace> {
        self.runtime.as_ref()?.remote.as_ref()
    }
}

/// Pair a plan with its runtime stats: the one plan × runtime walk.
pub(crate) fn operators(
    plan: &PhysNode,
    mut runtime: HashMap<usize, NodeRuntime>,
) -> Vec<OperatorRecord> {
    let mut out: Vec<OperatorRecord> = Vec::with_capacity(runtime.len());
    // Ids of the path from the root to the node being visited.
    let mut path: Vec<usize> = Vec::new();
    for (id, depth, node) in plan.preorder() {
        let runtime = runtime.remove(&id);
        let time = runtime.as_ref().map_or(Duration::ZERO, |rt| rt.next_time);
        path.truncate(depth);
        if let Some(&parent) = path.last() {
            out[parent].self_time = out[parent].self_time.saturating_sub(time);
        }
        path.push(id);
        out.push(OperatorRecord {
            depth,
            label: node.describe(),
            est_rows: node.est_rows,
            est_cost: node.est_cost,
            passthrough: matches!(node.op, PhysicalOp::StartupFilter { .. }),
            runtime,
            self_time: time,
        });
    }
    out
}

/// Stable identity of a physical plan shape: FNV-1a over the pre-order
/// operator labels. A label renders operator + access path + shipped SQL
/// but no cardinality estimates, so the hash survives statistics drift and
/// changes only when the *shape* changes. Depth is part of the identity: a
/// chain and a flat list of the same operators must hash differently.
pub fn plan_hash(operators: &[OperatorRecord]) -> u64 {
    let mut h = Fnv1a::new();
    for op in operators {
        h.write(&[op.depth.min(255) as u8]);
        h.write_line(&op.label);
    }
    h.finish()
}

impl StatementRecord {
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }

    /// The kind's display name; `UNCLASSIFIED` for text that did not parse.
    pub fn kind_name(&self) -> &'static str {
        self.kind.map_or("UNCLASSIFIED", |kind| kind.name())
    }

    /// The wait class that dominated this statement's waited time, if it
    /// waited at all — a slow query's one-word diagnosis.
    pub fn dominant_wait(&self) -> Option<&'static str> {
        self.waits.dominant().map(|class| class.name())
    }

    /// The Query Store key: the fingerprint, or the raw text when the
    /// statement did not parameterize.
    pub fn template(&self) -> &str {
        self.fingerprint.as_deref().unwrap_or(&self.sql)
    }

    /// Bytes and requests all remote operators put on the wire.
    pub fn link_traffic(&self) -> (u64, u64) {
        self.operators
            .iter()
            .filter_map(OperatorRecord::remote)
            .fold((0, 0), |(bytes, requests), remote| {
                (
                    bytes + remote.traffic.bytes,
                    requests + remote.traffic.requests,
                )
            })
    }

    /// The `[semijoin: ...]` / `[degraded: ...]` / `[startup: ...]`
    /// markers EXPLAIN ANALYZE renders, condensed to one line so a slow
    /// statement can be triaged from `sys.dm_exec_requests` without
    /// re-running it. `None` when nothing noteworthy happened.
    pub fn annotations(&self) -> Option<String> {
        let mut parts: Vec<String> = Vec::new();
        let (mut keys, mut bytes) = (0, 0);
        let runtimes = self.operators.iter().filter_map(|op| op.runtime.as_ref());
        for sj in runtimes.filter_map(|rt| rt.semijoin.as_ref()) {
            keys += sj.keys;
            bytes += sj.filter_bytes;
        }
        if keys > 0 {
            parts.push(format!("[semijoin: keys={keys} bytes={bytes}]"));
        }
        if !self.pruned.is_empty() {
            parts.push(format!("[degraded: {}]", self.pruned.join(",")));
        }
        if !self.startup_pruned.is_empty() {
            parts.push(format!("[startup: {}]", self.startup_pruned.join(",")));
        }
        (!parts.is_empty()).then(|| parts.join(" "))
    }

    fn elapsed_ms(&self) -> String {
        format!("{:.3}", self.elapsed.as_secs_f64() * 1000.0)
    }

    /// The `query_end` payload.
    pub fn query_end_attrs(&self) -> Vec<(&'static str, String)> {
        let mut attrs = vec![
            ("kind", self.kind_name().to_string()),
            ("rows", self.rows.to_string()),
            ("elapsed_ms", self.elapsed_ms()),
        ];
        if let Some(class) = self.dominant_wait() {
            attrs.push(("dominant_wait", class.to_string()));
        }
        if !self.pruned.is_empty() {
            attrs.push(("pruned_members", self.pruned.join(",")));
        }
        if !self.startup_pruned.is_empty() {
            attrs.push(("startup_skipped_members", self.startup_pruned.join(",")));
        }
        if let Some(error) = &self.error {
            attrs.push(("error", error.clone()));
        }
        attrs
    }

    /// The `slow_query` payload.
    pub fn slow_query_attrs(&self) -> Vec<(&'static str, String)> {
        let dominant = self.dominant_wait().unwrap_or("NONE");
        let mut attrs = vec![
            ("sql", self.sql.clone()),
            ("elapsed_ms", self.elapsed_ms()),
            ("dominant_wait", dominant.to_string()),
        ];
        if let Some(fingerprint) = &self.fingerprint {
            attrs.push(("fingerprint", fingerprint.clone()));
        }
        if let Some(annotations) = self.annotations() {
            attrs.push(("annotations", annotations));
        }
        attrs
    }
}

#[cfg(test)]
impl StatementRecord {
    /// A successful uninstrumented SELECT, for unit tests to fill in.
    pub(crate) fn select(sql: &str, elapsed: Duration, rows: u64) -> StatementRecord {
        StatementRecord {
            sql: sql.to_string(),
            kind: Some(StatementKind::Select),
            fingerprint: None,
            cache_hit: None,
            plan_hash: None,
            elapsed,
            rows,
            error: None,
            waits: WaitSnapshot::default(),
            pruned: Vec::new(),
            startup_pruned: Vec::new(),
            stats_age: None,
            feedback: false,
            operators: Vec::new(),
            trace: None,
        }
    }
}
