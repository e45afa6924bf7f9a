//! Engine-wide observability: lock-free counters plus a bounded ring of
//! recent statement records.
//!
//! Counter updates on the query path are single relaxed atomic increments;
//! the only lock is around the recent-query ring, taken once per statement
//! (never per row). [`MetricsSnapshot`] is a plain-value copy safe to hold
//! across further engine activity.

use crate::record::StatementRecord;
use dhqp_dtc::DtcStats;
use dhqp_executor::ExecCounters;
use dhqp_oledb::{HistogramSnapshot, LogHistogram, PoolStats, WaitSnapshot, WaitStats};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default capacity of the recent-query ring; override per engine with
/// [`crate::EngineBuilder::recent_query_capacity`] or `DHQP_RECENT_QUERIES`.
pub const RECENT_QUERY_CAPACITY: usize = 32;

/// How many records the slow-query ring retains (the ring only fills
/// when a threshold is armed, so a fixed bound suffices).
pub const SLOW_QUERY_CAPACITY: usize = 32;

/// Statement classification for the per-kind query counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatementKind {
    Select,
    Insert,
    Update,
    Delete,
    /// `EXPLAIN` (plan only).
    Explain,
    /// `EXPLAIN ANALYZE` (plan plus execution).
    ExplainAnalyze,
}

impl StatementKind {
    /// Display name, as surfaced in `sys.dm_exec_requests`.
    pub fn name(&self) -> &'static str {
        match self {
            StatementKind::Select => "SELECT",
            StatementKind::Insert => "INSERT",
            StatementKind::Update => "UPDATE",
            StatementKind::Delete => "DELETE",
            StatementKind::Explain => "EXPLAIN",
            StatementKind::ExplainAnalyze => "EXPLAIN ANALYZE",
        }
    }
}

/// Point-in-time copy of every engine counter. DTC commit/abort counts are
/// read from the transaction coordinator at snapshot time; spool and remote
/// counts come from the executor counters the engine shares with every
/// execution context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub selects: u64,
    pub inserts: u64,
    pub updates: u64,
    pub deletes: u64,
    pub explains: u64,
    pub explain_analyzes: u64,
    /// Statements that failed (including parse errors).
    pub statement_errors: u64,
    pub meta_cache_hits: u64,
    pub meta_cache_misses: u64,
    /// Parameterized plan-cache activity. A hit skips parse, bind and
    /// optimize entirely; hits also credit one `meta_cache_hits` per remote
    /// server the cached plan depends on (metadata consultation avoided
    /// altogether).
    pub plan_cache_hits: u64,
    pub plan_cache_misses: u64,
    /// Plans dropped by LRU pressure or epoch invalidation.
    pub plan_cache_evictions: u64,
    /// Remote statistics bundles served from (or fetched into) the TTL'd
    /// metadata cache at bind time.
    pub stats_cache_hits: u64,
    pub stats_cache_misses: u64,
    pub fulltext_searches: u64,
    pub spool_hits: u64,
    pub spool_builds: u64,
    pub remote_roundtrips: u64,
    /// Exchange operators that ran with parallel branch dispatch.
    pub parallel_exchanges: u64,
    /// Worker threads those exchanges spawned, summed.
    pub exchange_workers: u64,
    /// Remote rowsets that ran behind a prefetching decorator.
    pub remote_prefetches: u64,
    /// Remote attempts re-issued after a transient transport fault.
    pub remote_retries: u64,
    /// Transient transport faults observed on the remote path (whether or
    /// not a retry ultimately succeeded).
    pub remote_transient_errors: u64,
    /// Remote attempts abandoned because a per-attempt or per-query
    /// deadline expired.
    pub remote_deadline_hits: u64,
    /// Remote opens rejected without touching the wire because the link's
    /// circuit breaker was open.
    pub breaker_fast_fails: u64,
    /// DPV members skipped by degraded-mode pruning, summed over
    /// statements.
    pub members_pruned: u64,
    /// DPV members skipped at drive time because their startup predicate
    /// rejected the runtime parameter values (`DHQP_RUNTIME_PRUNE`).
    pub startup_members_skipped: u64,
    /// Remote fetches reduced by a shipped semi-join `IN`-list filter.
    pub semijoin_reductions: u64,
    /// Semi-join reductions abandoned at runtime (key count past the
    /// splice ceiling, or the reduced open exhausted its retry budget).
    pub semijoin_fallbacks: u64,
    /// Extra request bytes spent shipping semi-join filters, summed — the
    /// price paid for the result-byte savings.
    pub semijoin_filter_bytes: u64,
    /// Query-store plan changes whose new plan averaged slower than the
    /// fingerprint's previous plan.
    pub plan_regressions: u64,
    /// Observed remote cardinalities written back into the statistics
    /// cache by the feedback loop (`DHQP_CARD_FEEDBACK`).
    pub card_feedback_applied: u64,
    /// UPDATE/DELETE row-location reads answered by one index seek over
    /// the hull of the predicate's key domain.
    pub dml_seeks: u64,
    /// UPDATE/DELETE row-location reads that read the whole table.
    pub dml_scans: u64,
    /// Rows those reads returned, before the predicate re-check — against
    /// `rows_affected`, the price of seeking a hull rather than each
    /// interval.
    pub dml_rows_located: u64,
    /// UPDATE/DELETE writes shipped to a table's provider as one statement
    /// instead of being located from here: no read, so none of the three
    /// counters above moves for them.
    pub dml_pushed: u64,
    /// Connect requests the linked servers' session pools sent (cold
    /// opens) since the last reset; a replaced registration's count stays
    /// in, so the total never goes backwards between resets.
    pub session_connects: u64,
    /// Sessions those pools handed out from their idle lists (warm opens).
    pub session_reuses: u64,
    pub dtc_commits: u64,
    pub dtc_aborts: u64,
    /// Distributed transactions currently in doubt (decision logged,
    /// delivery pending at some participant).
    pub dtc_in_doubt: u64,
    /// In-doubt transactions resolved by `recover()`.
    pub dtc_recovered: u64,
    /// Phase-one votes that rode a participant's last write instead of
    /// answering a `prepare` message — one saved round trip each.
    pub dtc_votes_ridden: u64,
}

impl MetricsSnapshot {
    /// Total statements counted, across every kind.
    pub fn statements(&self) -> u64 {
        self.selects
            + self.inserts
            + self.updates
            + self.deletes
            + self.explains
            + self.explain_analyzes
    }

    /// Every counter as a `(name, value)` row — the shape
    /// `sys.dm_os_counters` serves, kept here so the DMV cannot drift from
    /// the snapshot struct.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("selects", self.selects),
            ("inserts", self.inserts),
            ("updates", self.updates),
            ("deletes", self.deletes),
            ("explains", self.explains),
            ("explain_analyzes", self.explain_analyzes),
            ("statement_errors", self.statement_errors),
            ("meta_cache_hits", self.meta_cache_hits),
            ("meta_cache_misses", self.meta_cache_misses),
            ("plan_cache_hits", self.plan_cache_hits),
            ("plan_cache_misses", self.plan_cache_misses),
            ("plan_cache_evictions", self.plan_cache_evictions),
            ("stats_cache_hits", self.stats_cache_hits),
            ("stats_cache_misses", self.stats_cache_misses),
            ("fulltext_searches", self.fulltext_searches),
            ("spool_hits", self.spool_hits),
            ("spool_builds", self.spool_builds),
            ("remote_roundtrips", self.remote_roundtrips),
            ("parallel_exchanges", self.parallel_exchanges),
            ("exchange_workers", self.exchange_workers),
            ("remote_prefetches", self.remote_prefetches),
            ("remote_retries", self.remote_retries),
            ("remote_transient_errors", self.remote_transient_errors),
            ("remote_deadline_hits", self.remote_deadline_hits),
            ("breaker_fast_fails", self.breaker_fast_fails),
            ("members_pruned", self.members_pruned),
            ("startup_members_skipped", self.startup_members_skipped),
            ("semijoin_reductions", self.semijoin_reductions),
            ("semijoin_fallbacks", self.semijoin_fallbacks),
            ("semijoin_filter_bytes", self.semijoin_filter_bytes),
            ("plan_regressions", self.plan_regressions),
            ("card_feedback_applied", self.card_feedback_applied),
            ("dml_seeks", self.dml_seeks),
            ("dml_scans", self.dml_scans),
            ("dml_rows_located", self.dml_rows_located),
            ("dml_pushed", self.dml_pushed),
            ("session_connects", self.session_connects),
            ("session_reuses", self.session_reuses),
            ("dtc_commits", self.dtc_commits),
            ("dtc_aborts", self.dtc_aborts),
            ("dtc_in_doubt", self.dtc_in_doubt),
            ("dtc_recovered", self.dtc_recovered),
            ("dtc_votes_ridden", self.dtc_votes_ridden),
        ]
    }
}

/// The engine's live counters (one per [`crate::Engine`], shared by all
/// clones).
#[derive(Debug)]
pub(crate) struct EngineMetrics {
    selects: AtomicU64,
    inserts: AtomicU64,
    updates: AtomicU64,
    deletes: AtomicU64,
    explains: AtomicU64,
    explain_analyzes: AtomicU64,
    statement_errors: AtomicU64,
    meta_cache_hits: AtomicU64,
    meta_cache_misses: AtomicU64,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    plan_cache_evictions: AtomicU64,
    stats_cache_hits: AtomicU64,
    stats_cache_misses: AtomicU64,
    fulltext_searches: AtomicU64,
    plan_regressions: AtomicU64,
    card_feedback_applied: AtomicU64,
    dml_seeks: AtomicU64,
    dml_scans: AtomicU64,
    dml_rows_located: AtomicU64,
    dml_pushed: AtomicU64,
    /// Connects and reuses of session pools whose registration has been
    /// replaced: the live pools own their counts, these keep the totals
    /// from going backwards when a pool goes.
    retired_session_connects: AtomicU64,
    retired_session_reuses: AtomicU64,
    exec: Arc<ExecCounters>,
    recent_capacity: usize,
    recent: Mutex<VecDeque<Arc<StatementRecord>>>,
    /// Statements at or above the slow-query threshold they began under.
    slow: Mutex<VecDeque<Arc<StatementRecord>>>,
    /// End-to-end statement latency in microseconds, every statement kind.
    query_latency: LogHistogram,
    /// Engine-cumulative wait accounting — `sys.dm_os_wait_stats`. Shared
    /// as a sink with the activity scope the engine installs per statement.
    waits: Arc<WaitStats>,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        EngineMetrics::new(RECENT_QUERY_CAPACITY)
    }
}

impl EngineMetrics {
    pub fn new(recent_capacity: usize) -> Self {
        EngineMetrics {
            selects: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            explains: AtomicU64::new(0),
            explain_analyzes: AtomicU64::new(0),
            statement_errors: AtomicU64::new(0),
            meta_cache_hits: AtomicU64::new(0),
            meta_cache_misses: AtomicU64::new(0),
            plan_cache_hits: AtomicU64::new(0),
            plan_cache_misses: AtomicU64::new(0),
            plan_cache_evictions: AtomicU64::new(0),
            stats_cache_hits: AtomicU64::new(0),
            stats_cache_misses: AtomicU64::new(0),
            fulltext_searches: AtomicU64::new(0),
            plan_regressions: AtomicU64::new(0),
            card_feedback_applied: AtomicU64::new(0),
            dml_seeks: AtomicU64::new(0),
            dml_scans: AtomicU64::new(0),
            dml_rows_located: AtomicU64::new(0),
            dml_pushed: AtomicU64::new(0),
            retired_session_connects: AtomicU64::new(0),
            retired_session_reuses: AtomicU64::new(0),
            exec: Arc::new(ExecCounters::default()),
            recent_capacity: recent_capacity.max(1),
            recent: Mutex::new(VecDeque::new()),
            slow: Mutex::new(VecDeque::new()),
            query_latency: LogHistogram::default(),
            waits: Arc::new(WaitStats::default()),
        }
    }

    /// The engine-cumulative wait sink (installed into every statement's
    /// activity scope alongside the per-query sink).
    pub fn waits(&self) -> Arc<WaitStats> {
        Arc::clone(&self.waits)
    }

    /// Point-in-time copy of the cumulative wait stats.
    pub fn wait_snapshot(&self) -> WaitSnapshot {
        self.waits.snapshot()
    }

    /// Zero the wait accounting only —
    /// `DBCC SQLPERF('sys.dm_os_wait_stats', CLEAR)`.
    pub fn clear_waits(&self) {
        self.waits.clear();
    }

    /// Zero every counter, ring and histogram — the full
    /// `DBCC SQLPERF(..., CLEAR)` analog. The DTC's own counters live on
    /// the coordinator and are not touched.
    pub fn reset(&self) {
        for counter in [
            &self.selects,
            &self.inserts,
            &self.updates,
            &self.deletes,
            &self.explains,
            &self.explain_analyzes,
            &self.statement_errors,
            &self.meta_cache_hits,
            &self.meta_cache_misses,
            &self.plan_cache_hits,
            &self.plan_cache_misses,
            &self.plan_cache_evictions,
            &self.stats_cache_hits,
            &self.stats_cache_misses,
            &self.fulltext_searches,
            &self.plan_regressions,
            &self.card_feedback_applied,
            &self.dml_seeks,
            &self.dml_scans,
            &self.dml_rows_located,
            &self.dml_pushed,
            &self.retired_session_connects,
            &self.retired_session_reuses,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
        self.exec.reset();
        self.recent.lock().clear();
        self.slow.lock().clear();
        self.query_latency.clear();
        self.waits.clear();
    }

    /// The executor counters this engine shares with its execution
    /// contexts, so spool/remote activity survives each execution.
    pub fn exec_counters(&self) -> Arc<ExecCounters> {
        Arc::clone(&self.exec)
    }

    pub fn record_meta_cache_hit(&self) {
        self.meta_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_meta_cache_miss(&self) {
        self.meta_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_plan_cache_hit(&self) {
        self.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_plan_cache_miss(&self) {
        self.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_plan_cache_evictions(&self, n: usize) {
        if n > 0 {
            self.plan_cache_evictions
                .fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    pub fn record_stats_cache_hit(&self) {
        self.stats_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_stats_cache_miss(&self) {
        self.stats_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_fulltext_search(&self) {
        self.fulltext_searches.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_plan_regression(&self) {
        self.plan_regressions.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_card_feedback(&self) {
        self.card_feedback_applied.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one UPDATE/DELETE row-location read and the rows it returned.
    pub fn record_dml_read(&self, seek: bool, rows: u64) {
        let path = if seek {
            &self.dml_seeks
        } else {
            &self.dml_scans
        };
        path.fetch_add(1, Ordering::Relaxed);
        self.dml_rows_located.fetch_add(rows, Ordering::Relaxed);
    }

    /// Count one UPDATE/DELETE write shipped as a statement.
    pub fn record_dml_pushed(&self) {
        self.dml_pushed.fetch_add(1, Ordering::Relaxed);
    }

    /// Keep the counts of a session pool whose registration was replaced.
    pub fn retire_session_pool(&self, pool: PoolStats) {
        self.retired_session_connects
            .fetch_add(pool.connects, Ordering::Relaxed);
        self.retired_session_reuses
            .fetch_add(pool.reuses, Ordering::Relaxed);
    }

    /// Count one finished statement and push its record onto the ring —
    /// and onto the slow ring when it took `slow_threshold` (the knob the
    /// statement began under) or longer, which is what this returns. A
    /// record whose `kind` is `None` is text that never classified as a
    /// statement (it did not parse): only the error is counted — no
    /// per-kind count, ring entry or latency sample.
    pub fn finish_statement(
        &self,
        record: &Arc<StatementRecord>,
        slow_threshold: Option<Duration>,
    ) -> bool {
        let Some(kind) = record.kind else {
            self.statement_errors.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        let counter = match kind {
            StatementKind::Select => &self.selects,
            StatementKind::Insert => &self.inserts,
            StatementKind::Update => &self.updates,
            StatementKind::Delete => &self.deletes,
            StatementKind::Explain => &self.explains,
            StatementKind::ExplainAnalyze => &self.explain_analyzes,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if record.error.is_some() {
            self.statement_errors.fetch_add(1, Ordering::Relaxed);
        }
        self.query_latency.record(record.elapsed.as_micros() as u64);
        let push = |ring: &Mutex<VecDeque<Arc<StatementRecord>>>, capacity: usize| {
            let mut ring = ring.lock();
            if ring.len() >= capacity {
                ring.pop_front();
            }
            ring.push_back(Arc::clone(record));
        };
        let was_slow = slow_threshold.is_some_and(|threshold| record.elapsed >= threshold);
        if was_slow {
            push(&self.slow, SLOW_QUERY_CAPACITY);
        }
        push(&self.recent, self.recent_capacity);
        was_slow
    }

    /// Most-recent-last copy of the query ring.
    pub fn recent_queries(&self) -> Vec<Arc<StatementRecord>> {
        self.recent.lock().iter().cloned().collect()
    }

    /// Most-recent-last copy of the slow-query ring (empty unless a
    /// threshold is armed).
    pub fn slow_queries(&self) -> Vec<Arc<StatementRecord>> {
        self.slow.lock().iter().cloned().collect()
    }

    /// End-to-end statement latency distribution (microseconds).
    pub fn query_latency(&self) -> HistogramSnapshot {
        self.query_latency.snapshot()
    }

    /// `pools` is the sum over the session pools registered now; retired
    /// pools' counts are added here.
    pub fn snapshot(&self, dtc: DtcStats, pools: PoolStats) -> MetricsSnapshot {
        let exec = self.exec.snapshot();
        MetricsSnapshot {
            selects: self.selects.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            explains: self.explains.load(Ordering::Relaxed),
            explain_analyzes: self.explain_analyzes.load(Ordering::Relaxed),
            statement_errors: self.statement_errors.load(Ordering::Relaxed),
            meta_cache_hits: self.meta_cache_hits.load(Ordering::Relaxed),
            meta_cache_misses: self.meta_cache_misses.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.plan_cache_misses.load(Ordering::Relaxed),
            plan_cache_evictions: self.plan_cache_evictions.load(Ordering::Relaxed),
            stats_cache_hits: self.stats_cache_hits.load(Ordering::Relaxed),
            stats_cache_misses: self.stats_cache_misses.load(Ordering::Relaxed),
            fulltext_searches: self.fulltext_searches.load(Ordering::Relaxed),
            plan_regressions: self.plan_regressions.load(Ordering::Relaxed),
            card_feedback_applied: self.card_feedback_applied.load(Ordering::Relaxed),
            dml_seeks: self.dml_seeks.load(Ordering::Relaxed),
            dml_scans: self.dml_scans.load(Ordering::Relaxed),
            dml_rows_located: self.dml_rows_located.load(Ordering::Relaxed),
            dml_pushed: self.dml_pushed.load(Ordering::Relaxed),
            session_connects: pools.connects
                + self.retired_session_connects.load(Ordering::Relaxed),
            session_reuses: pools.reuses + self.retired_session_reuses.load(Ordering::Relaxed),
            spool_hits: exec.spool_hits,
            spool_builds: exec.spool_builds,
            remote_roundtrips: exec.remote_roundtrips,
            parallel_exchanges: exec.parallel_exchanges,
            exchange_workers: exec.exchange_workers,
            remote_prefetches: exec.remote_prefetches,
            remote_retries: exec.remote_retries,
            remote_transient_errors: exec.remote_transient_errors,
            remote_deadline_hits: exec.remote_deadline_hits,
            breaker_fast_fails: exec.breaker_fast_fails,
            members_pruned: exec.members_pruned,
            startup_members_skipped: exec.startup_members_skipped,
            semijoin_reductions: exec.semijoin_reductions,
            semijoin_fallbacks: exec.semijoin_fallbacks,
            semijoin_filter_bytes: exec.semijoin_filter_bytes,
            dtc_commits: dtc.commits,
            dtc_aborts: dtc.aborts,
            dtc_in_doubt: dtc.in_doubt,
            dtc_recovered: dtc.recovered,
            dtc_votes_ridden: dtc.votes_ridden,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhqp_oledb::WaitClass;

    fn select(sql: &str, elapsed: Duration, rows: u64) -> Arc<StatementRecord> {
        Arc::new(StatementRecord::select(sql, elapsed, rows))
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let m = EngineMetrics::default();
        for i in 0..(RECENT_QUERY_CAPACITY + 5) {
            let record = select(&format!("SELECT {i}"), Duration::from_millis(1), i as u64);
            m.finish_statement(&record, None);
        }
        let recent = m.recent_queries();
        assert_eq!(recent.len(), RECENT_QUERY_CAPACITY);
        assert_eq!(recent.first().unwrap().sql, "SELECT 5");
        assert_eq!(recent.last().unwrap().sql, "SELECT 36");
        assert_eq!(
            m.snapshot(DtcStats::default(), PoolStats::default())
                .selects,
            (RECENT_QUERY_CAPACITY + 5) as u64
        );
    }

    #[test]
    fn ring_capacity_is_configurable() {
        let m = EngineMetrics::new(3);
        for i in 0..5 {
            m.finish_statement(&select(&format!("SELECT {i}"), Duration::ZERO, 0), None);
        }
        let recent = m.recent_queries();
        assert_eq!(recent.len(), 3);
        assert_eq!(recent.first().unwrap().sql, "SELECT 2");
    }

    #[test]
    fn errors_carry_their_message() {
        let m = EngineMetrics::default();
        let failed = Arc::new(StatementRecord {
            error: Some("table 'missing' not found".into()),
            ..StatementRecord::select("SELECT * FROM missing", Duration::ZERO, 0)
        });
        m.finish_statement(&failed, None);
        let q = &m.recent_queries()[0];
        assert!(!q.ok());
        assert_eq!(q.error.as_deref(), Some("table 'missing' not found"));
        assert_eq!(
            m.snapshot(DtcStats::default(), PoolStats::default())
                .statement_errors,
            1
        );
    }

    #[test]
    fn slow_query_log_gates_on_threshold() {
        let m = EngineMetrics::default();
        let armed = Some(Duration::from_millis(10));
        assert!(!m.finish_statement(&select("fast", Duration::from_millis(1), 0), armed));
        assert!(m.finish_statement(&select("slow", Duration::from_millis(25), 0), armed));
        let slow = m.slow_queries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].sql, "slow");
        // Disarmed, nothing is logged, regardless of elapsed time.
        let off = EngineMetrics::default();
        assert!(!off.finish_statement(&select("slow", Duration::from_secs(5), 0), None));
        assert!(off.slow_queries().is_empty());
    }

    #[test]
    fn query_latency_histogram_records_every_statement() {
        let m = EngineMetrics::default();
        m.finish_statement(&select("q", Duration::from_micros(700), 1), None);
        let h = m.query_latency();
        assert_eq!(h.count, 1);
        assert_eq!(h.max, 700);
    }

    #[test]
    fn dominant_wait_lands_on_the_summary() {
        let m = EngineMetrics::default();
        let armed = Some(Duration::from_millis(1));
        let waits = WaitStats::default();
        waits.record(WaitClass::NetworkIo, Duration::from_millis(5));
        waits.record(WaitClass::RetryBackoff, Duration::from_millis(50));
        let waited = Arc::new(StatementRecord {
            waits: waits.snapshot(),
            ..StatementRecord::select("SELECT 1", Duration::from_millis(40), 1)
        });
        assert!(m.finish_statement(&waited, armed));
        let q = &m.slow_queries()[0];
        assert_eq!(q.dominant_wait(), Some("RETRY_BACKOFF"));
        // A statement that never waited carries no attribution.
        assert!(!m.finish_statement(&select("SELECT 2", Duration::ZERO, 1), armed));
        assert_eq!(m.recent_queries().last().unwrap().dominant_wait(), None);
    }

    #[test]
    fn reset_zeroes_counters_rings_and_waits() {
        let m = EngineMetrics::default();
        m.record_meta_cache_hit();
        m.record_plan_cache_miss();
        m.record_dml_read(true, 2);
        m.record_dml_read(false, 40);
        m.exec_counters().add_remote_roundtrip();
        m.waits().record(WaitClass::Spool, Duration::from_millis(3));
        let record = select("SELECT 1", Duration::from_millis(2), 1);
        assert!(m.finish_statement(&record, Some(Duration::ZERO)));
        m.reset();
        let s = m.snapshot(DtcStats::default(), PoolStats::default());
        assert_eq!(s, MetricsSnapshot::default());
        assert!(m.recent_queries().is_empty());
        assert!(m.slow_queries().is_empty());
        assert_eq!(m.query_latency().count, 0);
        assert!(m.wait_snapshot().is_empty());
    }

    #[test]
    fn snapshot_merges_exec_and_dtc_counters() {
        let m = EngineMetrics::default();
        m.exec_counters().add_remote_roundtrip();
        m.record_meta_cache_miss();
        m.record_meta_cache_hit();
        m.record_fulltext_search();
        let failed_delete = Arc::new(StatementRecord {
            kind: Some(StatementKind::Delete),
            error: Some("boom".into()),
            ..StatementRecord::select("DELETE FROM t", Duration::ZERO, 3)
        });
        m.finish_statement(&failed_delete, None);
        m.exec_counters().add_remote_retry();
        m.exec_counters().add_remote_transient_error();
        m.exec_counters().add_remote_deadline_hit();
        m.retire_session_pool(PoolStats {
            connects: 2,
            reuses: 5,
            idle: 1,
        });
        let s = m.snapshot(
            DtcStats {
                commits: 7,
                aborts: 2,
                in_doubt: 1,
                recovered: 4,
                votes_ridden: 9,
            },
            PoolStats {
                connects: 1,
                reuses: 3,
                idle: 0,
            },
        );
        assert_eq!((s.session_connects, s.session_reuses), (3, 8));
        assert_eq!(s.remote_roundtrips, 1);
        assert_eq!(s.remote_retries, 1);
        assert_eq!(s.remote_transient_errors, 1);
        assert_eq!(s.remote_deadline_hits, 1);
        assert_eq!(s.dtc_in_doubt, 1);
        assert_eq!(s.dtc_recovered, 4);
        assert_eq!(s.dtc_votes_ridden, 9);
        assert_eq!(s.meta_cache_hits, 1);
        assert_eq!(s.meta_cache_misses, 1);
        assert_eq!(s.fulltext_searches, 1);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.statement_errors, 1);
        assert_eq!(s.dtc_commits, 7);
        assert_eq!(s.dtc_aborts, 2);
        assert_eq!(s.statements(), 1);
    }
}
