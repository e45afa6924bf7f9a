//! Per-operator runtime statistics (the `EXPLAIN ANALYZE` substrate) and
//! the engine's one counter table.
//!
//! Collection is designed to stay off the per-row hot path: each opened
//! operator accumulates its row count and cursor time in plain local fields
//! inside [`StatsRowset`] and flushes them into the shared collector exactly
//! once, on drop. The only synchronized operations happen at open/close
//! (one mutex acquisition per operator open) and the engine counters are
//! lock-free atomics bumped at open time or once per statement, never per
//! row.

use dhqp_oledb::{LatencySummary, Rowset, TrafficSnapshot};
use dhqp_types::{Result, Schema};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One engine counter. Relaxed: a count publishes no other data.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Count one.
    pub fn bump(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Declares every engine counter from one row each: its [`Counter`] in
/// [`ExecCounters`], its field in [`MetricsSnapshot`], its part of `reset`
/// and its `sys.dm_os_counters` row. A `filled` row is a snapshot field with
/// no counter here: its owner fills it in when the engine takes a snapshot.
macro_rules! counters {
    (
        counted { $($(#[$doc:meta])* $counted:ident,)* }
        filled { $($(#[$filled_doc:meta])* $filled:ident,)* }
    ) => {
        /// The engine's live counters: one set per engine, shared with every
        /// execution context it builds. Read them with
        /// [`ExecCounters::snapshot`].
        #[derive(Debug, Default)]
        pub struct ExecCounters {
            $($(#[$doc])* pub $counted: Counter,)*
        }

        /// Point-in-time copy of every engine counter, safe to hold across
        /// further engine activity.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[$doc])* pub $counted: u64,)*
            $($(#[$filled_doc])* pub $filled: u64,)*
        }

        impl ExecCounters {
            /// Every counter's value now; the `filled` fields read 0.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($counted: self.$counted.get(),)*
                    ..MetricsSnapshot::default()
                }
            }

            /// Zero every counter (`DBCC SQLPERF(..., CLEAR)`).
            pub fn reset(&self) {
                $(self.$counted.0.store(0, Ordering::Relaxed);)*
            }
        }

        impl MetricsSnapshot {
            /// Every field as a `(name, value)` row, in table order — the
            /// rows `sys.dm_os_counters` serves.
            pub fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![
                    $((stringify!($counted), self.$counted),)*
                    $((stringify!($filled), self.$filled),)*
                ]
            }
        }
    };
}

counters! {
    counted {
        /// SELECT statements finished.
        selects,
        /// INSERT statements finished.
        inserts,
        /// UPDATE statements finished.
        updates,
        /// DELETE statements finished.
        deletes,
        /// `EXPLAIN` statements finished.
        explains,
        /// `EXPLAIN ANALYZE` statements finished.
        explain_analyzes,
        /// Statements that failed (including parse errors).
        statement_errors,
        /// Remote metadata bundles served from the TTL'd metadata cache at
        /// bind time.
        meta_cache_hits,
        /// Remote metadata bundles fetched over the link at bind time.
        meta_cache_misses,
        /// Parameterized plan-cache activity. A hit skips parse, bind and
        /// optimize entirely; hits also credit one `meta_cache_hits` per
        /// remote server the cached plan depends on (metadata consultation
        /// avoided altogether).
        plan_cache_hits,
        plan_cache_misses,
        /// Plans dropped by LRU pressure or epoch invalidation.
        plan_cache_evictions,
        /// Remote statistics bundles served from (or fetched into) the TTL'd
        /// metadata cache at bind time.
        stats_cache_hits,
        stats_cache_misses,
        /// Full-text catalog searches run for `CONTAINS`.
        fulltext_searches,
        /// Spool rescans served from the in-memory cache instead of
        /// re-running (and possibly re-shipping) the child.
        spool_hits,
        /// Spool first-time materializations.
        spool_builds,
        /// Remote opens: one per `IOpenRowset`/`IRowsetIndex`/command
        /// execution issued against a linked server.
        remote_roundtrips,
        /// Unions that opened their members on exchange workers (a serial
        /// open does not count, nor does a prefetcher).
        parallel_exchanges,
        /// Worker threads those exchanges spawned, summed.
        exchange_workers,
        /// Remote rowsets drained ahead of their consumer by a prefetch
        /// worker.
        remote_prefetches,
        /// Remote attempts re-issued after a transient transport fault.
        remote_retries,
        /// Transient transport faults observed on the remote path (whether
        /// or not a retry ultimately succeeded).
        remote_transient_errors,
        /// Remote attempts abandoned because a per-attempt or per-query
        /// deadline expired.
        remote_deadline_hits,
        /// Remote opens rejected without touching the wire because the
        /// link's circuit breaker was open (no retry budget burned).
        breaker_fast_fails,
        /// DPV members skipped by degraded-mode pruning, summed over
        /// statements.
        members_pruned,
        /// DPV members skipped at drive time because their startup predicate
        /// rejected the runtime parameter values (`DHQP_RUNTIME_PRUNE`).
        startup_members_skipped,
        /// Key-shipping (`SemiJoinReduce`) opens whose remote fetches were
        /// reduced to the build side's join keys.
        semijoin_reductions,
        /// Request bytes spent on shipped key lists, summed over requests —
        /// the price paid for the result-byte savings.
        semijoin_filter_bytes,
        /// Query-store plan changes whose new plan averaged slower than the
        /// fingerprint's previous plan.
        plan_regressions,
        /// Observed remote cardinalities written back into the statistics
        /// cache by the feedback loop (`DHQP_CARD_FEEDBACK`).
        card_feedback_applied,
        /// UPDATE/DELETE row-location reads answered by one index seek over
        /// the hull of the predicate's key domain.
        dml_seeks,
        /// UPDATE/DELETE row-location reads that read the whole table.
        dml_scans,
        /// Rows those reads returned, before the predicate re-check —
        /// against `rows_affected`, the price of seeking a hull rather than
        /// each interval.
        dml_rows_located,
        /// UPDATE/DELETE writes shipped to a table's provider as one
        /// statement instead of being located from here: no read, so none of
        /// the three counters above moves for them.
        dml_pushed,
        /// Connect requests the linked servers' session pools sent (cold
        /// opens) since the last reset. The counter keeps the counts of
        /// pools whose registration was replaced and a snapshot adds the
        /// live pools', so the total never goes backwards between resets.
        session_connects,
        /// Sessions those pools handed out from their idle lists (warm
        /// opens), kept the same way.
        session_reuses,
    }
    filled {
        /// Distributed transactions committed, from the coordinator.
        dtc_commits,
        /// Distributed transactions aborted, from the coordinator.
        dtc_aborts,
        /// Distributed transactions currently in doubt (decision taken,
        /// delivery pending at some participant).
        dtc_in_doubt,
        /// In-doubt transactions resolved by `recover()`.
        dtc_recovered,
        /// Phase-one votes that rode a participant's last write instead of
        /// answering a `prepare` message — one saved round trip each.
        dtc_votes_ridden,
        /// Commit decisions that rode the last participant's last write
        /// instead of a `commit` message of their own — one saved round trip
        /// each.
        dtc_commits_ridden,
    }
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
}

/// What one remote plan node actually did on the wire.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RemoteTrace {
    /// Linked-server name the node talked to.
    pub server: String,
    /// Exact command text shipped (decoder-emitted SQL with parameters
    /// substituted), or a rowset-interface description for scan/range/fetch
    /// access paths.
    pub sql: String,
    /// Requests/rows/bytes the node's own calls put on the wire, as the link
    /// charged them to the calling thread (`dhqp_oledb::charged`), summed
    /// over rescans.
    pub traffic: TrafficSnapshot,
    /// Round-trip latency percentiles of the link this node crossed, as of
    /// the node's last close. Cumulative link history, not a per-node
    /// delta — percentiles of a difference are not well-defined — so this
    /// describes the wire the node used, attributed to the plan shape.
    pub link_latency: Option<LatencySummary>,
}

/// One exchange worker's lifetime, relative to its exchange's open instant
/// — the substrate for the Perfetto per-worker timeline tracks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSpan {
    /// Microseconds from exchange open to the worker's first instruction.
    pub start_us: u64,
    /// Worker lifetime (spawn to exit), microseconds.
    pub elapsed_us: u64,
    /// Time the worker spent blocked on a full output channel, µs.
    pub send_wait_us: u64,
    /// Rows this worker produced into the channel.
    pub rows: u64,
}

/// What one parallel exchange open actually did: how many workers it ran
/// and how their busy time overlapped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExchangeRuntime {
    /// Worker threads the exchange spawned (max over rescans).
    pub workers: u64,
    /// Per-worker busy time (spawn to exit), summed over workers and opens.
    pub busy: Duration,
    /// Wall time from open to the last worker's exit, summed over opens.
    pub wall: Duration,
    /// Per-worker timelines of the last open (rescans replace, not append,
    /// so a trace renders one coherent set of tracks).
    pub worker_spans: Vec<WorkerSpan>,
}

impl ExchangeRuntime {
    /// Time saved by concurrency: how much of the workers' combined busy
    /// time ran in parallel rather than stretching the wall clock. Zero for
    /// a single worker (or a fully serialized schedule).
    pub fn overlap(&self) -> Duration {
        self.busy.saturating_sub(self.wall)
    }
}

/// What one key-shipping open actually shipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SemiJoinTrace {
    /// Distinct non-NULL build-side join keys shipped.
    pub keys: u64,
    /// Bytes of the rendered key lists, summed over requests.
    pub filter_bytes: u64,
}

/// Runtime facts about one plan node, keyed by its pre-order id.
#[derive(Debug, Clone, Default)]
pub struct NodeRuntime {
    /// Successful opens; values above 1 are rescans (nested-loop inners,
    /// spool replays).
    pub opens: u64,
    /// Rows produced, summed over all opens.
    pub rows: u64,
    /// Cumulative wall time spent inside this operator's `next` (includes
    /// children's time, as in SQL Server showplan).
    pub next_time: Duration,
    /// Wire activity for remote nodes.
    pub remote: Option<RemoteTrace>,
    /// Worker fan-out and overlap for parallel exchange nodes.
    pub exchange: Option<ExchangeRuntime>,
    /// Remote operations this node re-issued after transient faults.
    pub retries: u64,
    /// Drive-time key shipping for semi-join-reduction nodes.
    pub semijoin: Option<SemiJoinTrace>,
}

/// Collects per-node runtime stats for one query execution. Cheap enough
/// to attach only when `EXPLAIN ANALYZE` (or a test) asks for it.
#[derive(Debug, Default)]
pub struct RuntimeStatsCollector {
    nodes: Mutex<HashMap<usize, NodeRuntime>>,
}

impl RuntimeStatsCollector {
    pub fn new() -> Self {
        RuntimeStatsCollector::default()
    }

    /// Run `f` on `node`'s entry, made on first use, under the lock.
    fn with_node<T>(&self, node: usize, f: impl FnOnce(&mut NodeRuntime) -> T) -> T {
        f(self
            .nodes
            .lock()
            .expect("stats lock")
            .entry(node)
            .or_default())
    }

    pub fn record_open(&self, node: usize) {
        self.with_node(node, |n| n.opens += 1);
    }

    /// Merge one operator's accumulated row count and cursor time
    /// (called once per open, from `StatsRowset::drop`).
    pub fn flush(&self, node: usize, rows: u64, next_time: Duration) {
        self.with_node(node, |n| {
            n.rows += rows;
            n.next_time += next_time;
        });
    }

    /// Attribute a traffic delta (and the shipped command text) to a remote
    /// node. Traffic accumulates over rescans; the text of the last open
    /// wins, which only matters for parameterized rescans where each open
    /// ships different literals.
    pub fn record_remote(
        &self,
        node: usize,
        server: &str,
        sql: String,
        delta: TrafficSnapshot,
        link_latency: Option<LatencySummary>,
    ) {
        self.with_node(node, |n| {
            let trace = n.remote.get_or_insert_with(|| RemoteTrace {
                server: server.to_string(),
                ..RemoteTrace::default()
            });
            trace.traffic = trace.traffic + delta;
            trace.sql = sql;
            trace.link_latency = link_latency.or(trace.link_latency);
        });
    }

    /// Attribute one parallel exchange run (worker count, combined busy
    /// time, wall time, per-worker timelines) to its node. Counts and times
    /// accumulate over rescans; worker spans are replaced by the last open.
    pub fn record_exchange(
        &self,
        node: usize,
        workers: u64,
        busy: Duration,
        wall: Duration,
        spans: Vec<WorkerSpan>,
    ) {
        self.with_node(node, |n| {
            let entry = n.exchange.get_or_insert_with(ExchangeRuntime::default);
            entry.workers = entry.workers.max(workers);
            entry.busy += busy;
            entry.wall += wall;
            if !spans.is_empty() {
                entry.worker_spans = spans;
            }
        });
    }

    /// Attribute one semi-join reduction's drive-time shipping facts to its
    /// node (the last open wins — rescans re-collect keys from scratch).
    pub fn record_semijoin(&self, node: usize, trace: SemiJoinTrace) {
        self.with_node(node, |n| n.semijoin = Some(trace));
    }

    /// Attribute `n` transient-fault retries to a remote node.
    pub fn record_retries(&self, node: usize, n: u64) {
        self.with_node(node, |entry| entry.retries += n);
    }

    /// Stats for one node, if it ever opened.
    pub fn node(&self, node: usize) -> Option<NodeRuntime> {
        self.nodes.lock().expect("stats lock").get(&node).cloned()
    }

    /// Full copy of the per-node map.
    pub fn snapshot(&self) -> HashMap<usize, NodeRuntime> {
        self.nodes.lock().expect("stats lock").clone()
    }
}

/// Decorator recording rows produced and cumulative `next` time for one
/// operator open. All accumulation is in local fields; the collector is
/// touched once, on drop.
pub struct StatsRowset {
    inner: Box<dyn Rowset>,
    node: usize,
    collector: Arc<RuntimeStatsCollector>,
    rows: u64,
    next_time: Duration,
}

impl StatsRowset {
    pub fn new(inner: Box<dyn Rowset>, node: usize, collector: Arc<RuntimeStatsCollector>) -> Self {
        collector.record_open(node);
        StatsRowset {
            inner,
            node,
            collector,
            rows: 0,
            next_time: Duration::ZERO,
        }
    }
}

impl Rowset for StatsRowset {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<dhqp_types::RowBatch>> {
        let start = Instant::now();
        let batch = self.inner.next_batch(max);
        self.next_time += start.elapsed();
        if let Ok(Some(b)) = &batch {
            // Row-accurate: EXPLAIN ANALYZE reports the same actual_rows
            // whether the operator was cursored by row or by chunk.
            self.rows += b.len() as u64;
        }
        batch
    }

    fn size_hint(&self) -> Option<usize> {
        self.inner.size_hint()
    }
}

impl Drop for StatsRowset {
    fn drop(&mut self) {
        self.collector.flush(self.node, self.rows, self.next_time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhqp_oledb::MemRowset;
    use dhqp_types::{Column, DataType, Row, Value};

    fn three_rows() -> Box<dyn Rowset> {
        let schema = Schema::new(vec![Column::not_null("x", DataType::Int)]);
        let rows = (0..3).map(|i| Row::new(vec![Value::Int(i)])).collect();
        Box::new(MemRowset::new(schema, rows))
    }

    #[test]
    fn stats_flush_on_drop_and_accumulate_over_opens() {
        let collector = Arc::new(RuntimeStatsCollector::new());
        for _ in 0..2 {
            let mut rs = StatsRowset::new(three_rows(), 5, Arc::clone(&collector));
            while rs.next().unwrap().is_some() {}
        }
        let node = collector.node(5).unwrap();
        assert_eq!(node.opens, 2);
        assert_eq!(node.rows, 6);
        assert!(collector.node(99).is_none());
    }

    #[test]
    fn partial_consumption_counts_only_produced_rows() {
        let collector = Arc::new(RuntimeStatsCollector::new());
        {
            let mut rs = StatsRowset::new(three_rows(), 0, Arc::clone(&collector));
            rs.next().unwrap();
        }
        assert_eq!(collector.node(0).unwrap().rows, 1);
    }

    #[test]
    fn counters_snapshot() {
        let c = ExecCounters::default();
        c.remote_roundtrips.bump();
        c.spool_builds.bump();
        c.spool_hits.add(2);
        let s = c.snapshot();
        assert_eq!(s.remote_roundtrips, 1);
        assert_eq!(s.spool_builds, 1);
        assert_eq!(s.spool_hits, 2);
        c.reset();
        assert_eq!(c.snapshot(), MetricsSnapshot::default());
    }
}
