//! Engine-wide observability: the counter table's live set plus a bounded
//! ring of recent statement records.
//!
//! Counter updates on the query path are single relaxed atomic increments;
//! the only lock is around the recent-query ring, taken once per statement
//! (never per row). Every counter is one row of the table in
//! [`dhqp_executor::stats`]; [`MetricsSnapshot`] is its plain-value copy.

use crate::record::StatementRecord;
use dhqp_dtc::DtcStats;
use dhqp_executor::{ExecCounters, MetricsSnapshot};
use dhqp_oledb::{HistogramSnapshot, LogHistogram, PoolStats, WaitSnapshot, WaitStats};
use parking_lot::Mutex;
use std::collections::VecDeque;
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

/// The engine's counters, rings and latency histogram (one per
/// [`crate::Engine`], shared by all clones).
#[derive(Debug)]
pub(crate) struct EngineMetrics {
    /// Every engine counter ([`dhqp_executor::stats`] declares them),
    /// shared with the execution contexts so spool and remote activity
    /// survives each execution.
    pub counters: Arc<ExecCounters>,
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
            counters: Arc::new(ExecCounters::default()),
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
        self.counters.reset();
        self.recent.lock().clear();
        self.slow.lock().clear();
        self.query_latency.clear();
        self.waits.clear();
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
        let c = &self.counters;
        let Some(kind) = record.kind else {
            c.statement_errors.bump();
            return false;
        };
        match kind {
            StatementKind::Select => &c.selects,
            StatementKind::Insert => &c.inserts,
            StatementKind::Update => &c.updates,
            StatementKind::Delete => &c.deletes,
            StatementKind::Explain => &c.explains,
            StatementKind::ExplainAnalyze => &c.explain_analyzes,
        }
        .bump();
        if record.error.is_some() {
            c.statement_errors.bump();
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

    /// The counters plus what their owners keep: `pools` is the sum over
    /// the session pools registered now, `dtc` the coordinator's outcomes.
    pub fn snapshot(&self, dtc: DtcStats, pools: PoolStats) -> MetricsSnapshot {
        let counted = self.counters.snapshot();
        MetricsSnapshot {
            session_connects: counted.session_connects + pools.connects,
            session_reuses: counted.session_reuses + pools.reuses,
            dtc_commits: dtc.commits,
            dtc_aborts: dtc.aborts,
            dtc_in_doubt: dtc.in_doubt,
            dtc_recovered: dtc.recovered,
            dtc_votes_ridden: dtc.votes_ridden,
            dtc_commits_ridden: dtc.commits_ridden,
            ..counted
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
        let c = &m.counters;
        c.meta_cache_hits.bump();
        c.plan_cache_misses.bump();
        c.dml_seeks.bump();
        c.dml_rows_located.add(42);
        c.remote_roundtrips.bump();
        c.session_connects.add(2);
        m.waits().record(WaitClass::Spool, Duration::from_millis(3));
        let record = select("SELECT 1", Duration::from_millis(2), 1);
        assert!(m.finish_statement(&record, Some(Duration::ZERO)));
        let before = m.snapshot(DtcStats::default(), PoolStats::default());
        assert!(before.counters().iter().any(|&(_, v)| v > 0));
        m.reset();
        let s = m.snapshot(DtcStats::default(), PoolStats::default());
        assert_eq!(s, MetricsSnapshot::default());
        assert!(s.counters().iter().all(|&(_, v)| v == 0));
        assert!(m.recent_queries().is_empty());
        assert!(m.slow_queries().is_empty());
        assert_eq!(m.query_latency().count, 0);
        assert!(m.wait_snapshot().is_empty());
    }

    #[test]
    fn snapshot_merges_exec_and_dtc_counters() {
        let m = EngineMetrics::default();
        let c = &m.counters;
        c.remote_roundtrips.bump();
        c.meta_cache_misses.bump();
        c.meta_cache_hits.bump();
        c.fulltext_searches.bump();
        let failed_delete = Arc::new(StatementRecord {
            kind: Some(StatementKind::Delete),
            error: Some("boom".into()),
            ..StatementRecord::select("DELETE FROM t", Duration::ZERO, 3)
        });
        m.finish_statement(&failed_delete, None);
        c.remote_retries.bump();
        c.remote_transient_errors.bump();
        c.remote_deadline_hits.bump();
        // A replaced pool's counts, folded in when its registration went.
        c.session_connects.add(2);
        c.session_reuses.add(5);
        let s = m.snapshot(
            DtcStats {
                commits: 7,
                aborts: 2,
                in_doubt: 1,
                recovered: 4,
                votes_ridden: 9,
                commits_ridden: 6,
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
        assert_eq!(s.dtc_commits_ridden, 6);
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
