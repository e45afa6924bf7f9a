//! What the engine records about the statements it runs: the begin
//! bookkeeping, the readers the epilogue hands each finished
//! [`StatementRecord`] to (counters and rings, events, Query Store,
//! cardinality feedback) and the accessors over metrics, rings and events.

use super::statement::StatementRun;
use super::{Engine, LinkedServer};
use crate::binder::FetchedTable;
use crate::events::{Event, EventSink};
use crate::knobs::Knobs;
use crate::plan_cache::CachedSelect;
use crate::record::{OperatorRecord, StatementRecord};
use crate::trace::TraceBuilder;
use dhqp_executor::{LinkHealthSnapshot, MetricsSnapshot, PruneLog};
use dhqp_oledb::{
    emit_event, has_hook, install_scope, ActivityScope, EventHook, ScopeGuard, TableStatistics,
    WaitSnapshot, WaitStats,
};
use dhqp_optimizer::{PhysNode, PhysicalOp};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

impl Engine {
    /// Begin one statement: install its activity scope — waits recorded
    /// anywhere on this thread (and on worker threads spawned under it) fan
    /// out to the engine-cumulative sink and a fresh per-query sink, and
    /// events reach the bus when it is armed — and emit `query_start`. The
    /// guard restores the previous scope on drop, so nested statements (a
    /// DMV query issued while serving another statement) account correctly;
    /// a streamed statement suspends it between pulls.
    pub(super) fn begin_statement(&self, sql: &str, analyze: bool) -> (StatementRun, ScopeGuard) {
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
        let started = Instant::now();
        let run = StatementRun {
            tracer: knobs.trace.enabled.then(|| TraceBuilder::new(sql, started)),
            knobs,
            waits,
            sql: sql.to_string(),
            started,
            executing: None,
            pruned: Arc::new(PruneLog::default()),
            kind: None,
            fingerprint: None,
            select: None,
            servers: Vec::new(),
            collector: None,
            analyze,
        };
        (run, activity)
    }

    /// Count one finished statement — onto the recent ring, and the slow
    /// ring past the threshold it began under — and emit the `query_end`
    /// that pairs its `query_start`, plus `slow_query` when it was slow.
    pub(super) fn publish(&self, record: &Arc<StatementRecord>, slow_query: Option<Duration>) {
        let was_slow = self.inner.metrics.finish_statement(record, slow_query);
        if has_hook() {
            emit_event("query_end", &record.query_end_attrs());
            if was_slow {
                emit_event("slow_query", &record.slow_query_attrs());
            }
        }
    }

    /// Post-execution observability for one successful SELECT: fold the
    /// record's `elapsed` and `rows` into its plan's
    /// `sys.dm_exec_query_stats` aggregates, record the execution into the
    /// query store (emitting `plan_change` — and bumping `plan_regressions`
    /// — when the fingerprint switched plans), then run the cardinality
    /// feedback loop. The last two read `record.operators`; either knob
    /// attaches the collector that fills it.
    pub(super) fn observe_execution(
        &self,
        knobs: &Knobs,
        compiled: &CachedSelect,
        servers: &[Arc<LinkedServer>],
        record: &StatementRecord,
    ) {
        compiled.execution_count.fetch_add(1, Ordering::Relaxed);
        compiled
            .total_elapsed_us
            .fetch_add(record.elapsed.as_micros() as u64, Ordering::Relaxed);
        compiled
            .total_rows
            .fetch_add(record.rows, Ordering::Relaxed);
        if knobs.query_store.enabled {
            let schema_epoch = self.inner.schema_epoch.load(Ordering::Relaxed);
            let config_epoch = self.inner.config_epoch.load(Ordering::Relaxed);
            let mut store = self.inner.query_store.lock();
            if let Some(notice) = store.record(record, schema_epoch, config_epoch) {
                if notice.regressed {
                    self.counters().plan_regressions.bump();
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
        if knobs.card_feedback {
            self.apply_card_feedback(compiled, servers, &record.operators);
        }
    }

    /// The cardinality feedback loop: overwrite the cached statistics
    /// bundle of any remote table whose whole, unfiltered fetch observed at
    /// least twice the cardinality the optimizer costed with, then purge
    /// the plans compiled against the stale bundle so the next compilation
    /// costs with truth. The bundle is the one in the linked server the
    /// statement bound and ran on, found among `servers`; if that server has
    /// been replaced since, the observation is about a source nobody reads
    /// any more and is dropped.
    /// Feedback only ever *raises* cardinalities — a partially drained
    /// cursor undercounts, so shrinking on observation would be unsound.
    /// Corrected bundles drop their histograms (they described the stale
    /// snapshot) and carry the `feedback` flag EXPLAIN ANALYZE renders as
    /// `-- [feedback: applied]`.
    fn apply_card_feedback(
        &self,
        compiled: &CachedSelect,
        servers: &[Arc<LinkedServer>],
        operators: &[OperatorRecord],
    ) {
        for (name, table, observed) in feedback_candidates(&compiled.plan, operators) {
            let bound = servers.iter().find(|l| l.name.eq_ignore_ascii_case(&name));
            let Some(link) = bound.filter(|link| self.is_registered(link)) else {
                continue;
            };
            let key = table.to_lowercase();
            let cached = link.tables.read().get(&key).cloned();
            let Some(cached) = cached else { continue };
            let known = cached
                .cardinality
                .or_else(|| cached.catalog.stats.as_ref().and_then(|s| s.row_count))
                .unwrap_or(0);
            if observed < known.max(1).saturating_mul(2) {
                continue;
            }
            let stats = TableStatistics {
                row_count: Some(observed),
                ..TableStatistics::default()
            };
            let catalog = (*cached.catalog).clone().with_stats(Some(Arc::new(stats)));
            let corrected = FetchedTable {
                catalog: Arc::new(catalog),
                cardinality: Some(observed),
                fetched_at: Instant::now(),
                feedback: true,
            };
            link.tables.write().insert(key, corrected);
            self.counters().card_feedback_applied.bump();
            // Plans costed against the stale bundle must not be reused.
            let evicted = self.inner.plan_cache.lock().purge_server(link);
            self.counters().plan_cache_evictions.add(evicted as u64);
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

    /// The most recent statements' records, oldest first. Ring capacity
    /// defaults to [`crate::metrics::RECENT_QUERY_CAPACITY`] and is set by
    /// [`EngineBuilder::recent_query_capacity`] / `DHQP_RECENT_QUERIES`.
    pub fn recent_queries(&self) -> Vec<Arc<StatementRecord>> {
        self.inner.metrics.recent_queries()
    }

    /// Statements at or above the armed slow-query threshold
    /// ([`EngineBuilder::slow_query_threshold`] / `DHQP_SLOW_QUERY_MS`),
    /// oldest first. Empty when no threshold is armed.
    pub fn slow_queries(&self) -> Vec<Arc<StatementRecord>> {
        self.inner.metrics.slow_queries()
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
    /// class, plus every link breaker's resettable counters (breaker
    /// opens, probes) and the session pools' connect/reuse counts. Breaker
    /// *state* survives — a metrics reset must not quietly re-admit a
    /// quarantined member — and so do idle pooled sessions. The DTC's
    /// outcome log and counters are durable state and are not touched;
    /// reset them by creating a new engine.
    pub fn reset_metrics(&self) {
        self.inner.metrics.reset();
        for link in self.inner.dmv_links() {
            link.breaker.reset_counters();
            link.pool.reset_counters();
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
    operators: &[OperatorRecord],
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
    let mut out = Vec::new();
    for ((_, _, node), op) in plan.preorder().zip(operators) {
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
        if let (Some((server, table)), Some(avg)) = (target, op.rows().checked_div(op.opens())) {
            out.push((server, table, avg));
        }
    }
    out
}
