//! What the engine records about the statements it runs: the begin/end
//! bookkeeping around each one, the post-execution hooks (Query Store,
//! cardinality feedback) and the accessors over metrics, rings, traces
//! and events.

use super::statement::StatementRun;
use super::Engine;
use crate::binder::FetchedTable;
use crate::events::{Event, EventSink};
use crate::metrics::{MetricsSnapshot, QuerySummary, StatementTags};
use crate::query_store::{self, ExecutionObservation};
use crate::trace::{QueryTrace, TraceBuilder};
use dhqp_executor::{LinkHealthSnapshot, NodeRuntime, PruneLog};
use dhqp_oledb::{
    emit_event, has_hook, install_scope, ActivityScope, EventHook, TableStatistics, WaitSnapshot,
    WaitStats,
};
use dhqp_optimizer::{PhysNode, PhysicalOp};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

impl Engine {
    /// Begin one statement: install its activity scope — waits recorded
    /// anywhere on this thread (and on worker threads spawned under it) fan
    /// out to the engine-cumulative sink and a fresh per-query sink, and
    /// events reach the bus when it is armed — and emit `query_start`. The
    /// guard restores the previous scope on drop, so nested statements (a
    /// DMV query issued while serving another statement) account correctly.
    pub(super) fn begin_statement<'a>(&self, sql: &'a str, analyze: bool) -> StatementRun<'a> {
        let waits = Arc::new(WaitStats::default());
        // Knobs and bus under one guard: `Engine::update` replaces the bus
        // while holding the write lock, so the pair is consistent.
        let (knobs, bus) = {
            let knobs = self.inner.knobs.read();
            (Arc::clone(&knobs), Arc::clone(&self.inner.events.read()))
        };
        let hook = bus
            .enabled()
            .then(|| Arc::clone(&bus) as Arc<dyn EventHook>);
        let activity = install_scope(ActivityScope::new(
            vec![self.inner.metrics.waits(), Arc::clone(&waits)],
            hook,
        ));
        if has_hook() {
            emit_event("query_start", &[("sql", sql.to_string())]);
        }
        StatementRun {
            _activity: activity,
            tracer: knobs.trace.enabled.then(|| TraceBuilder::new(sql)),
            knobs,
            waits,
            sql,
            started: Instant::now(),
            pruned: Arc::new(PruneLog::default()),
            kind: None,
            fingerprint: None,
            select: None,
            collector: None,
            analyze,
        }
    }

    /// Fingerprint + annotation summary carried into the recent/slow query
    /// rings and the `slow_query` event: the same `[semijoin: ...]` /
    /// `[degraded: ...]` / `[startup: ...]` markers EXPLAIN ANALYZE renders,
    /// condensed to one line so a slow statement can be triaged from
    /// `sys.dm_exec_requests` without re-running it.
    pub(super) fn statement_tags(
        fingerprint: Option<&str>,
        runtime: Option<&HashMap<usize, NodeRuntime>>,
        pruned: &PruneLog,
    ) -> StatementTags {
        let mut parts: Vec<String> = Vec::new();
        if let Some(runtime) = runtime {
            let mut keys = 0u64;
            let mut bytes = 0u64;
            let mut fallback = false;
            for sj in runtime.values().filter_map(|rt| rt.semijoin.as_ref()) {
                keys += sj.keys;
                bytes += sj.filter_bytes;
                fallback |= sj.fallback;
            }
            if keys > 0 || fallback {
                parts.push(format!(
                    "[semijoin: keys={keys} bytes={bytes}{}]",
                    if fallback { " fallback" } else { "" }
                ));
            }
        }
        if !pruned.is_empty() {
            parts.push(format!("[degraded: {}]", pruned.members().join(",")));
        }
        if !pruned.startup_is_empty() {
            parts.push(format!("[startup: {}]", pruned.startup_members().join(",")));
        }
        StatementTags {
            fingerprint: fingerprint.map(|s| s.to_string()),
            annotations: (!parts.is_empty()).then(|| parts.join(" ")),
        }
    }

    /// Count one finished statement — a statement whose `kind` is still
    /// `None` only as an error — and emit the `query_end` that pairs its
    /// `query_start`, plus `slow_query` past the armed threshold.
    pub(super) fn end_statement(
        &self,
        run: &StatementRun<'_>,
        elapsed: Duration,
        rows: u64,
        error: Option<String>,
        waits: &WaitSnapshot,
        tags: StatementTags,
    ) {
        let pruned = &run.pruned;
        let error_text = error.clone();
        let tags_for_event = tags.clone();
        let was_slow = self.inner.metrics.finish_statement(
            run.kind,
            run.sql,
            elapsed,
            rows,
            error,
            Some(waits),
            pruned.count(),
            tags,
        );
        if has_hook() {
            let elapsed_ms = format!("{:.3}", elapsed.as_secs_f64() * 1000.0);
            let dominant = waits.dominant().map(|class| class.name());
            let kind = run.kind.map_or("UNCLASSIFIED", |kind| kind.name());
            let mut attrs = vec![
                ("kind", kind.to_string()),
                ("rows", rows.to_string()),
                ("elapsed_ms", elapsed_ms.clone()),
            ];
            if let Some(class) = dominant {
                attrs.push(("dominant_wait", class.to_string()));
            }
            if !pruned.is_empty() {
                attrs.push(("pruned_members", pruned.members().join(",")));
            }
            if !pruned.startup_is_empty() {
                attrs.push((
                    "startup_skipped_members",
                    pruned.startup_members().join(","),
                ));
            }
            if let Some(e) = error_text {
                attrs.push(("error", e));
            }
            emit_event("query_end", &attrs);
            if was_slow {
                let mut slow_attrs = vec![
                    ("sql", run.sql.to_string()),
                    ("elapsed_ms", elapsed_ms),
                    ("dominant_wait", dominant.unwrap_or("NONE").to_string()),
                ];
                if let Some(fp) = tags_for_event.fingerprint {
                    slow_attrs.push(("fingerprint", fp));
                }
                if let Some(ann) = tags_for_event.annotations {
                    slow_attrs.push(("annotations", ann));
                }
                emit_event("slow_query", &slow_attrs);
            }
        }
    }

    /// Post-execution observability for one successful SELECT: record the
    /// execution into the query store (emitting `plan_change` — and
    /// bumping `plan_regressions` — when the fingerprint switched plans),
    /// then run the cardinality feedback loop.
    pub(super) fn observe_execution(
        &self,
        run: &StatementRun<'_>,
        plan: &PhysNode,
        runtime: &HashMap<usize, NodeRuntime>,
        elapsed: Duration,
        rows: u64,
        waits: &WaitSnapshot,
    ) {
        let template = run.fingerprint.as_deref().unwrap_or(run.sql);
        if run.knobs.query_store.enabled {
            let (link_bytes, link_requests) = query_store::link_traffic(runtime);
            let obs = ExecutionObservation {
                template: template.to_string(),
                plan_hash: query_store::plan_hash(plan),
                plan_text: plan.display_indent(),
                est_rows: plan.est_rows,
                est_cost: plan.est_cost,
                schema_epoch: self.inner.schema_epoch.load(Ordering::Relaxed),
                config_epoch: self.inner.config_epoch.load(Ordering::Relaxed),
                elapsed_us: elapsed.as_micros() as u64,
                rows,
                link_bytes,
                link_requests,
                dominant_wait: waits.dominant().map(|c| c.name()),
                operators: query_store::operator_observations(plan, runtime),
            };
            if let Some(notice) = self.inner.query_store.lock().record(obs) {
                if notice.regressed {
                    self.inner.metrics.record_plan_regression();
                }
                if has_hook() {
                    emit_event(
                        "plan_change",
                        &[
                            ("template", notice.template.clone()),
                            ("query_id", format!("{:016x}", notice.query_id)),
                            ("old_plan_hash", format!("{:016x}", notice.old_plan_hash)),
                            ("new_plan_hash", format!("{:016x}", notice.new_plan_hash)),
                            ("old_avg_us", notice.old_avg_us.to_string()),
                            ("new_avg_us", notice.new_avg_us.to_string()),
                            ("regressed", notice.regressed.to_string()),
                        ],
                    );
                }
            }
        }
        if run.knobs.card_feedback {
            self.apply_card_feedback(plan, runtime);
        }
    }

    /// The cardinality feedback loop: overwrite the cached statistics
    /// bundle of any remote table whose whole, unfiltered fetch observed at
    /// least twice the cardinality the optimizer costed with, then purge
    /// the plans compiled against the stale bundle so the next compilation
    /// costs with truth. Feedback only ever *raises* cardinalities — a
    /// partially drained cursor undercounts, so shrinking on observation
    /// would be unsound. Corrected bundles drop their histograms (they
    /// described the stale snapshot) and carry the `feedback` flag EXPLAIN
    /// ANALYZE renders as `-- [feedback: applied]`.
    fn apply_card_feedback(&self, plan: &PhysNode, runtime: &HashMap<usize, NodeRuntime>) {
        let mut touched_servers: Vec<String> = Vec::new();
        for (server, table, observed) in feedback_candidates(plan, runtime) {
            let key = (server.to_lowercase(), table.to_lowercase());
            let cached = self.inner.meta_cache.read().get(&key).cloned();
            let Some(cached) = cached else { continue };
            let known = cached
                .info
                .cardinality
                .or_else(|| cached.stats.as_ref().and_then(|s| s.row_count))
                .unwrap_or(0);
            if observed < known.max(1).saturating_mul(2) {
                continue;
            }
            let mut info = cached.info.clone();
            info.cardinality = Some(observed);
            let corrected = Arc::new(FetchedTable {
                info,
                stats: Some(TableStatistics {
                    row_count: Some(observed),
                    ..TableStatistics::default()
                }),
                caps: cached.caps.clone(),
                checks: cached.checks.clone(),
                fetched_at: Instant::now(),
                feedback: true,
            });
            self.inner.meta_cache.write().insert(key.clone(), corrected);
            self.inner.metrics.record_card_feedback();
            if !touched_servers.contains(&key.0) {
                touched_servers.push(key.0);
            }
        }
        // Plans costed against the stale bundles must not be reused.
        for server in touched_servers {
            let evicted = self.inner.plan_cache.lock().purge_server(&server);
            self.inner.metrics.record_plan_cache_evictions(evicted);
        }
    }

    /// Per-link breaker snapshots, sorted by server — the
    /// `sys.dm_link_health` data. The built-in `sys` provider is excluded.
    pub fn link_health(&self) -> Vec<LinkHealthSnapshot> {
        self.inner.dmv_link_health()
    }

    /// Point-in-time copy of every engine counter: statements by kind,
    /// metadata-cache hits/misses, spool-cache activity, remote round
    /// trips, DTC commit/abort outcomes and full-text searches.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.dmv_metrics()
    }

    /// The most recent statement summaries, oldest first. Ring capacity
    /// defaults to [`crate::metrics::RECENT_QUERY_CAPACITY`] and is set by
    /// [`EngineBuilder::recent_query_capacity`] / `DHQP_RECENT_QUERIES`.
    pub fn recent_queries(&self) -> Vec<QuerySummary> {
        self.inner.metrics.recent_queries()
    }

    /// Statements at or above the armed slow-query threshold
    /// ([`EngineBuilder::slow_query_threshold`] / `DHQP_SLOW_QUERY_MS`),
    /// oldest first. Empty when no threshold is armed.
    pub fn slow_queries(&self) -> Vec<QuerySummary> {
        self.inner.metrics.slow_queries()
    }

    /// The span tree of the most recent statement run with tracing armed,
    /// or `None` if no statement has been traced.
    pub fn last_trace(&self) -> Option<Arc<QueryTrace>> {
        self.inner.last_trace.lock().clone()
    }

    /// Cumulative per-class wait accounting since engine start (or the
    /// last clear) — the `sys.dm_os_wait_stats` data.
    pub fn wait_stats(&self) -> WaitSnapshot {
        self.inner.metrics.wait_snapshot()
    }

    /// Zero the wait accounting —
    /// `DBCC SQLPERF('sys.dm_os_wait_stats', CLEAR)`.
    pub fn clear_wait_stats(&self) {
        self.inner.metrics.clear_waits();
    }

    /// Zero every engine counter, query ring, latency histogram and wait
    /// class, plus the health registry's resettable counters (breaker
    /// opens, probes) and the session pools' connect/reuse counts. Breaker
    /// *state* survives — a metrics reset must not quietly re-admit a
    /// quarantined member — and so do idle pooled sessions. The DTC's
    /// outcome log and counters are durable state and are not touched;
    /// reset them by creating a new engine.
    pub fn reset_metrics(&self) {
        self.inner.metrics.reset();
        self.inner.health.reset_counters();
        for (_, pool) in self.inner.dmv_links() {
            pool.reset_counters();
        }
    }

    /// The retained events, oldest first — the `sys.dm_xe_recent_events`
    /// data. Empty when the bus is disabled.
    pub fn recent_events(&self) -> Vec<Event> {
        self.inner.events.read().recent()
    }

    /// Attach a sink observing every subsequently accepted event (dropped
    /// when the bus is replaced via [`Engine::set_event_config`]).
    pub fn add_event_sink(&self, sink: Box<dyn EventSink>) {
        self.inner.events.read().add_sink(sink);
    }

    /// Fingerprints currently tracked.
    pub fn query_store_len(&self) -> usize {
        self.inner.query_store.lock().len()
    }

    /// Point-in-time copy of the store: per-fingerprint plan + runtime
    /// history, the data behind the three `sys.query_store_*` DMVs.
    pub fn query_store_queries(&self) -> Vec<crate::query_store::QueryStats> {
        self.inner.query_store.lock().snapshot()
    }

    pub fn clear_query_store(&self) {
        self.inner.query_store.lock().clear();
    }
}

/// Full-table remote observations eligible for cardinality feedback:
/// `(server, table, observed rows per open)`. Only whole, unfiltered
/// fetches qualify — a `WHERE`/`JOIN`/`GROUP BY`/`TOP`-shaped statement or
/// a semi-join-reduced probe observes a subset of the table, and a
/// correlated (parameterized) statement observes one binding's slice —
/// so observed rows are a true lower bound on the table's cardinality.
fn feedback_candidates(
    plan: &PhysNode,
    runtime: &HashMap<usize, NodeRuntime>,
) -> Vec<(String, String, u64)> {
    /// The bare table of `SELECT <cols> FROM <table>` — `None` for any
    /// statement shape whose row count is not the table's.
    fn bare_table(sql: &str) -> Option<String> {
        let upper = sql.to_ascii_uppercase();
        const REDUCERS: [&str; 7] = [
            " WHERE ",
            " JOIN ",
            " GROUP BY ",
            " ORDER BY ",
            " TOP ",
            " DISTINCT ",
            " LIMIT ",
        ];
        if REDUCERS.iter().any(|m| upper.contains(m)) {
            return None;
        }
        let from = upper.find(" FROM ")?;
        let table = sql[from + " FROM ".len()..].trim();
        if table.is_empty() || table.starts_with('(') || table.contains(' ') {
            return None;
        }
        Some(
            table
                .trim_matches(|c| c == '[' || c == ']' || c == '"')
                .to_string(),
        )
    }
    fn walk(
        node: &PhysNode,
        id: usize,
        runtime: &HashMap<usize, NodeRuntime>,
        out: &mut Vec<(String, String, u64)>,
    ) {
        let target = match &node.op {
            PhysicalOp::RemoteScan { meta } => meta
                .source
                .server_name()
                .map(|s| (s.to_string(), meta.table.clone())),
            PhysicalOp::RemoteQuery {
                server,
                sql,
                params,
                ..
            } if params.is_empty() => bare_table(sql).map(|t| (server.to_string(), t)),
            _ => None,
        };
        if let (Some((server, table)), Some(rt)) = (target, runtime.get(&id)) {
            if let Some(avg) = rt.rows.checked_div(rt.opens) {
                out.push((server, table, avg));
            }
        }
        let mut child_id = id + 1;
        for child in &node.children {
            walk(child, child_id, runtime, out);
            child_id += child.subtree_size();
        }
    }
    let mut out = Vec::new();
    walk(plan, 0, runtime, &mut out);
    out
}
