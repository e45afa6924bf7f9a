//! Transparent retry for idempotent remote reads, behind the link's circuit
//! breaker.
//!
//! Remote opens (scans, ranges, bookmark fetches, pushed-down queries,
//! bind-time pass-through reads, and the scan or range a DML statement
//! locates its rows with) are read-only and deterministic, so a transient
//! transport fault — [`DhqpError::Unavailable`], [`DhqpError::Timeout`] —
//! can be absorbed by re-issuing the operation: bounded attempts,
//! deterministic exponential backoff, and an optional per-query deadline.
//! Mid-stream faults rewind by re-opening the rowset and skipping the rows
//! already delivered (provider row order is deterministic for the same
//! request).
//!
//! A [`RetryState`] with a gate is the only code that talks to a link's
//! [`Breaker`]: it admits before the first attempt (an Open breaker fails
//! fast, with no wire use), runs the one attempt loop that the open and the
//! rewind share, and reports how the operation ended exactly once — a retry
//! give-up as a failure, success or a permanent error as success (the link
//! answered) — plus a mid-stream give-up once.
//!
//! Permanent errors — anything the provider said about the request itself —
//! are never retried; DML writes and enlisted-transaction traffic never
//! reach this layer (the DTC owns those failure semantics, and the fault
//! injector exempts them too).

use crate::health::{Admission, Breaker};
use crate::stats::{ExecCounters, RuntimeStatsCollector};
use dhqp_oledb::waits::{emit_event, has_hook, record_wait, WaitClass};
use dhqp_oledb::Rowset;
use dhqp_types::{DhqpError, Result, RowBatch, Schema};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retry knobs, threaded through the execution context like
/// [`crate::ParallelConfig`] so every remote open sees the same policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try included). `1` disables
    /// retrying entirely.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per attempt after that.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Wall-clock ceiling for one attempt: a failing attempt that ran
    /// longer than this is reported as a deadline hit (and the error
    /// becomes [`DhqpError::Timeout`]).
    pub attempt_deadline: Option<Duration>,
    /// Wall-clock budget across *all* attempts of one operation; once a
    /// retry would exceed it, the operation fails with a timeout instead
    /// of backing off again.
    pub query_deadline: Option<Duration>,
}

impl RetryPolicy {
    /// Three attempts, 10 ms → 100 ms deterministic exponential backoff,
    /// no deadlines.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            attempt_deadline: None,
            query_deadline: None,
        }
    }

    /// Single attempt: transient errors surface immediately.
    pub fn no_retry() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::standard()
        }
    }

    /// Deterministic backoff before attempt `attempt + 1` (attempts are
    /// 1-based): `base * 2^(attempt-1)`, capped at `max_backoff`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }
}

/// Append the give-up reason chain — attempt count, wall time burned, the
/// kind of the last underlying error and, when the operation shipped a
/// semi-join key set, that predicate's fingerprint — to a transient error
/// that exhausted its retries, preserving the variant (and hence `kind()`).
/// The base message is the last underlying error's own text, so a chaos
/// failure is diagnosable from the string alone, and the fingerprint lets
/// `sys.dm_link_health` distinguish filter-ship failures from plain scans.
fn give_up(e: DhqpError, attempts: u32, elapsed: Duration, op_tag: Option<&str>) -> DhqpError {
    let tag = op_tag.map(|t| format!("; {t}")).unwrap_or_default();
    let note = format!(
        " (giving up after {attempts} attempts in {elapsed:.1?}; last error kind: {}{tag})",
        e.kind()
    );
    match e {
        DhqpError::Unavailable(m) => DhqpError::Unavailable(m + &note),
        DhqpError::Timeout(m) => DhqpError::Timeout(m + &note),
        other => other,
    }
}

/// Re-opens a remote rowset from scratch. `FnMut` because a rewind can
/// re-open any number of times; `Send` because exchange workers and the
/// prefetcher move rowsets across threads.
pub type ReopenFactory = Box<dyn FnMut() -> Result<Box<dyn Rowset>> + Send>;

/// One retried remote operation: its policy, where retries and faults are
/// counted, the attempt counter and start instant, and the breaker it
/// answers to. Built per operation, then spent by [`RetryState::open`].
pub struct RetryState {
    policy: RetryPolicy,
    counters: Arc<ExecCounters>,
    stats: Option<(usize, Arc<RuntimeStatsCollector>)>,
    /// Operation descriptor appended to the give-up reason chain (e.g. the
    /// shipped-predicate fingerprint of a semi-join-reduced open).
    op_tag: Option<String>,
    /// The breaker of the linked server read. A give-up spends it, so one
    /// operation never reports two failures.
    gate: Option<Arc<Breaker>>,
    /// Rows per pull while a rewind skips what was delivered.
    rewind_chunk: usize,
    started: Instant,
    attempt: u32,
}

impl RetryState {
    pub fn new(policy: &RetryPolicy, counters: &Arc<ExecCounters>) -> Self {
        RetryState {
            policy: policy.clone(),
            counters: Arc::clone(counters),
            stats: None,
            op_tag: None,
            gate: None,
            rewind_chunk: 1,
            started: Instant::now(),
            attempt: 1,
        }
    }

    /// Answer to a linked server's breaker. Without one (a local table, an
    /// ad hoc `OPENROWSET` source) nothing is gated.
    pub fn gated(mut self, breaker: Option<Arc<Breaker>>) -> Self {
        self.gate = breaker;
        self
    }

    /// Land retries on plan node `node` of `collector`, too.
    pub(crate) fn on_node(
        mut self,
        node: usize,
        collector: Option<&Arc<RuntimeStatsCollector>>,
    ) -> Self {
        self.stats = collector.map(|c| (node, Arc::clone(c)));
        self
    }

    /// Stamp `op_tag` onto any give-up reason chain — how a
    /// semi-join-reduced open names its shipped predicate in
    /// `sys.dm_link_health` last-error.
    pub(crate) fn tagged(mut self, op_tag: Option<String>) -> Self {
        self.op_tag = op_tag;
        self
    }

    /// Skip delivered rows `chunk` at a time on a rewind: whole skipped
    /// batches cross the wire as single round trips, and the final partial
    /// chunk is re-sliced to land exactly on the delivered count.
    pub fn rewind_by(mut self, chunk: usize) -> Self {
        self.rewind_chunk = chunk.max(1);
        self
    }

    /// Ask the breaker for the link. A rejection touches no wire, burns no
    /// retry budget and leases no session, but is counted and accounted as
    /// a `CIRCUIT_OPEN` wait.
    fn admit(&self) -> Result<()> {
        let Some(breaker) = &self.gate else {
            return Ok(());
        };
        let checked = Instant::now();
        let Admission::Reject {
            consecutive_failures,
        } = breaker.admit()
        else {
            return Ok(());
        };
        self.counters.breaker_fast_fails.bump();
        // Near-zero time was spent, but the rejection must be countable
        // (and attributable as a dominant wait).
        record_wait(
            WaitClass::CircuitOpen,
            checked.elapsed().max(Duration::from_micros(1)),
        );
        Err(DhqpError::Unavailable(format!(
            "linked server '{}' unavailable: circuit breaker open after \
             {consecutive_failures} consecutive retry-exhausted failures (fail-fast)",
            breaker.server()
        )))
    }

    /// The one attempt loop: run `op` until it succeeds, fails permanently
    /// or the budget is spent.
    fn attempts<T>(&mut self, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        loop {
            let attempt_started = Instant::now();
            match op() {
                Err(e) if e.is_retryable() => self.absorb(e, attempt_started.elapsed())?,
                done => return done,
            }
        }
    }

    /// Account one transient failure of the current attempt (which took
    /// `attempt_elapsed`) and decide: `Ok(())` to back off and retry, or
    /// the give-up to surface, which the breaker hears about.
    fn absorb(&mut self, error: DhqpError, attempt_elapsed: Duration) -> Result<()> {
        let verdict = self.backoff_or_give_up(error, attempt_elapsed);
        if let Err(e) = &verdict {
            if let Some(breaker) = self.gate.take() {
                breaker.record_failure(e.message());
            }
        }
        verdict
    }

    fn backoff_or_give_up(&mut self, error: DhqpError, attempt_elapsed: Duration) -> Result<()> {
        if self.policy.max_attempts <= 1 {
            return Err(error);
        }
        self.counters.remote_transient_errors.bump();
        let error = match self.policy.attempt_deadline {
            Some(limit) if attempt_elapsed >= limit => {
                self.counters.remote_deadline_hits.bump();
                DhqpError::Timeout(format!(
                    "attempt deadline ({limit:?}) exceeded: {}",
                    error.message()
                ))
            }
            _ => error,
        };
        if self.attempt >= self.policy.max_attempts {
            return Err(give_up(
                error,
                self.attempt,
                self.started.elapsed(),
                self.op_tag.as_deref(),
            ));
        }
        let backoff = self.policy.backoff(self.attempt);
        if let Some(deadline) = self.policy.query_deadline {
            if self.started.elapsed() + backoff >= deadline {
                self.counters.remote_deadline_hits.bump();
                return Err(DhqpError::Timeout(format!(
                    "query deadline ({deadline:?}) exceeded after {} attempts: {}",
                    self.attempt,
                    error.message()
                )));
            }
        }
        if has_hook() {
            emit_event(
                "retry",
                &[
                    ("attempt", self.attempt.to_string()),
                    ("backoff_ms", backoff.as_millis().to_string()),
                    ("error", error.message().to_string()),
                ],
            );
        }
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
            record_wait(WaitClass::RetryBackoff, backoff);
        }
        self.attempt += 1;
        self.counters.remote_retries.bump();
        if let Some((node, collector)) = &self.stats {
            collector.record_retries(*node, 1);
        }
        Ok(())
    }

    /// Open a remote rowset: admit, run the attempt loop, and report an
    /// outcome that was not a give-up (a give-up reported itself and spent
    /// the gate) as the link answering. Then keep retrying transparently on
    /// mid-stream transient faults: the stream is re-opened and already
    /// delivered rows are skipped. Ungated with `max_attempts == 1`, the
    /// factory runs once and its rowset comes back unwrapped.
    pub fn open(mut self, mut factory: ReopenFactory) -> Result<Box<dyn Rowset>> {
        self.admit()?;
        let opened = self.attempts(&mut factory);
        if let Some(breaker) = &self.gate {
            breaker.record_success();
        }
        let inner = opened?;
        if self.gate.is_none() && self.policy.max_attempts <= 1 {
            return Ok(inner);
        }
        let schema = inner.schema().clone();
        Ok(Box::new(RetryRowset {
            factory,
            inner,
            schema,
            delivered: 0,
            state: self,
        }))
    }
}

/// A rowset that survives transient mid-stream faults by re-opening its
/// source and fast-forwarding past the rows it already produced.
struct RetryRowset {
    factory: ReopenFactory,
    inner: Box<dyn Rowset>,
    schema: Schema,
    /// Rows already handed to the consumer — the rewind skip count.
    delivered: u64,
    state: RetryState,
}

impl RetryRowset {
    /// Re-open the stream and skip `delivered` rows. Transient faults
    /// during the rewind consume attempts from the same budget.
    fn rewind(&mut self, cause: DhqpError, attempt_elapsed: Duration) -> Result<()> {
        self.state.absorb(cause, attempt_elapsed)?;
        let (factory, delivered, chunk) =
            (&mut self.factory, self.delivered, self.state.rewind_chunk);
        self.inner = self
            .state
            .attempts(|| reopen_past(factory, delivered, chunk))?;
        Ok(())
    }
}

/// Re-open through `factory` and pull `delivered` rows, `chunk` at a time,
/// the last pull re-sliced to land exactly on the count.
fn reopen_past(
    factory: &mut ReopenFactory,
    delivered: u64,
    chunk: usize,
) -> Result<Box<dyn Rowset>> {
    let mut rs = factory()?;
    let mut skipped: u64 = 0;
    while skipped < delivered {
        let want = (delivered - skipped).min(chunk as u64) as usize;
        match rs.next_batch(want)? {
            Some(batch) => skipped += batch.len() as u64,
            None => {
                return Err(DhqpError::Execute(format!(
                    "remote stream shrank during retry rewind ({skipped} of {delivered} rows)"
                )))
            }
        }
    }
    Ok(rs)
}

impl Rowset for RetryRowset {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        loop {
            let attempt_started = Instant::now();
            match self.inner.next_batch(max) {
                Ok(Some(batch)) => {
                    // Delivered advances by whole batches, so a later rewind
                    // lands exactly on a batch boundary of what the consumer
                    // actually saw (a partially shipped batch was never
                    // counted and is re-pulled from scratch).
                    self.delivered += batch.len() as u64;
                    return Ok(Some(batch));
                }
                Ok(None) => return Ok(None),
                Err(e) if e.is_retryable() => self.rewind(e, attempt_started.elapsed())?,
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{BreakerConfig, BreakerState, HealthRegistry};
    use dhqp_oledb::{IterRowset, MemRowset, RowsetExt};
    use dhqp_types::{Column, DataType, Row, Value};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn int_schema() -> Schema {
        Schema::new(vec![Column::not_null("x", DataType::Int)])
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n).map(|i| Row::new(vec![Value::Int(i)])).collect()
    }

    /// Ten rows, but each of the first `open_faults` opens fails and each
    /// of the first `stream_faults` streams drops after three rows.
    fn flaky_factory(open_faults: u32, stream_faults: u32) -> ReopenFactory {
        let opens = Arc::new(AtomicU32::new(0));
        Box::new(move || {
            let k = opens.fetch_add(1, Ordering::Relaxed);
            if k < open_faults {
                return Err(DhqpError::Unavailable("injected connect fault".into()));
            }
            if k < open_faults + stream_faults {
                Ok(drop_after(3))
            } else {
                Ok(Box::new(MemRowset::new(int_schema(), rows(10))))
            }
        })
    }

    /// The first `n` of the ten rows, then the stream drops.
    fn drop_after(n: usize) -> Box<dyn Rowset> {
        let dropped = Err(DhqpError::Unavailable("injected stream drop".into()));
        let stream = rows(10).into_iter().take(n).map(Ok).chain([dropped]);
        Box::new(IterRowset::new(int_schema(), stream))
    }

    fn fast() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            attempt_deadline: None,
            query_deadline: None,
        }
    }

    fn counters() -> Arc<ExecCounters> {
        Arc::new(ExecCounters::default())
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(25),
            ..RetryPolicy::standard()
        };
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(25));
        assert_eq!(p.backoff(30), Duration::from_millis(25));
    }

    #[test]
    fn transient_open_fault_is_absorbed() {
        let c = counters();
        let mut rs = RetryState::new(&fast(), &c)
            .open(flaky_factory(1, 0))
            .unwrap();
        assert_eq!(rs.count_rows().unwrap(), 10);
        let s = c.snapshot();
        assert_eq!(s.remote_retries, 1);
        assert_eq!(s.remote_transient_errors, 1);
    }

    #[test]
    fn mid_stream_fault_rewinds_without_duplicating_rows() {
        let c = counters();
        let mut rs = RetryState::new(&fast(), &c)
            .open(flaky_factory(0, 1))
            .unwrap();
        let got = rs.collect_rows().unwrap();
        assert_eq!(got.len(), 10, "no duplicates, no gaps");
        assert!(got
            .iter()
            .enumerate()
            .all(|(i, r)| r.get(0) == &Value::Int(i as i64)));
        assert_eq!(c.snapshot().remote_retries, 1);
    }

    #[test]
    fn attempts_are_bounded_and_reported() {
        let c = counters();
        let err = match RetryState::new(&fast(), &c).open(flaky_factory(99, 0)) {
            Err(e) => e,
            Ok(_) => panic!("permanent flakiness must surface"),
        };
        assert_eq!(err.kind(), "unavailable");
        assert!(
            err.message().contains("giving up after 3 attempts"),
            "{err}"
        );
        // The reason chain: underlying error text, elapsed time, last kind.
        assert!(err.message().contains("injected connect fault"), "{err}");
        assert!(
            err.message().contains("last error kind: unavailable"),
            "{err}"
        );
        assert_eq!(c.snapshot().remote_transient_errors, 3);
        assert_eq!(c.snapshot().remote_retries, 2);
    }

    #[test]
    fn give_up_chain_carries_the_operation_tag() {
        let c = counters();
        let err = match RetryState::new(&fast(), &c)
            .tagged(Some("shipped predicate fp=deadbeef keys=4".into()))
            .open(flaky_factory(99, 0))
        {
            Err(e) => e,
            Ok(_) => panic!("permanent flakiness must surface"),
        };
        assert!(
            err.message().contains("giving up after 3 attempts"),
            "{err}"
        );
        assert!(
            err.message()
                .contains("last error kind: unavailable; shipped predicate fp=deadbeef keys=4"),
            "tag must ride the reason chain: {err}"
        );
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let c = counters();
        let factory: ReopenFactory =
            Box::new(|| Err(DhqpError::Catalog("unknown table 'nope'".into())));
        let err = match RetryState::new(&fast(), &c).open(factory) {
            Err(e) => e,
            Ok(_) => panic!(),
        };
        assert_eq!(err.kind(), "catalog");
        assert_eq!(c.snapshot().remote_retries, 0);
    }

    #[test]
    fn query_deadline_stops_retrying() {
        let c = counters();
        let policy = RetryPolicy {
            max_attempts: 100,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(50),
            attempt_deadline: None,
            query_deadline: Some(Duration::from_millis(20)),
        };
        let err = match RetryState::new(&policy, &c).open(flaky_factory(99, 0)) {
            Err(e) => e,
            Ok(_) => panic!(),
        };
        assert_eq!(err.kind(), "timeout");
        assert!(err.message().contains("query deadline"), "{err}");
        assert_eq!(c.snapshot().remote_deadline_hits, 1);
    }

    #[test]
    fn no_retry_policy_returns_inner_unwrapped() {
        let c = counters();
        let err = match RetryState::new(&RetryPolicy::no_retry(), &c).open(flaky_factory(1, 0)) {
            Err(e) => e,
            Ok(_) => panic!("single attempt must surface the fault"),
        };
        assert_eq!(err.kind(), "unavailable");
        assert_eq!(c.snapshot().remote_transient_errors, 0);
    }

    #[test]
    fn batched_pull_rewinds_mid_batch_fault_without_duplicates() {
        // The stream drops after 3 rows — mid-way through the first 4-row
        // batch. The 3 rows before the drop are delivered as a short batch,
        // the rewind skips exactly those, and the consumer still sees all
        // 10 exactly once.
        let c = counters();
        let mut rs = RetryState::new(&fast(), &c)
            .rewind_by(4)
            .open(flaky_factory(0, 1))
            .unwrap();
        let mut got = Vec::new();
        while let Some(batch) = rs.next_batch(4).unwrap() {
            assert!(batch.len() <= 4);
            got.extend(batch.into_rows());
        }
        assert_eq!(got.len(), 10, "no duplicates, no gaps");
        assert!(got
            .iter()
            .enumerate()
            .all(|(i, r)| r.get(0) == &Value::Int(i as i64)));
        assert_eq!(c.snapshot().remote_retries, 1);
    }

    #[test]
    fn batched_rewind_reslices_final_partial_chunk() {
        // Deliver 7 rows (two full 3-row batches and the one row before the
        // drop): the rewind must fast-forward exactly 7 rows — two 3-row
        // pulls and a last one re-sliced to 1 — and resume at row 7.
        let opens = Arc::new(AtomicU32::new(0));
        let factory: ReopenFactory = Box::new(move || {
            let k = opens.fetch_add(1, Ordering::Relaxed);
            if k == 0 {
                Ok(drop_after(7))
            } else {
                Ok(Box::new(MemRowset::new(int_schema(), rows(10))))
            }
        });
        let c = counters();
        let mut rs = RetryState::new(&fast(), &c)
            .rewind_by(3)
            .open(factory)
            .unwrap();
        let mut got = Vec::new();
        while let Some(batch) = rs.next_batch(3).unwrap() {
            got.extend(batch.into_rows());
        }
        assert_eq!(got.len(), 10);
        assert!(got
            .iter()
            .enumerate()
            .all(|(i, r)| r.get(0) == &Value::Int(i as i64)));
        assert_eq!(c.snapshot().remote_retries, 1);
    }

    #[test]
    fn retries_land_on_the_node_runtime() {
        let c = counters();
        let collector = Arc::new(RuntimeStatsCollector::new());
        let mut rs = RetryState::new(&fast(), &c)
            .on_node(4, Some(&collector))
            .open(flaky_factory(1, 1))
            .unwrap();
        assert_eq!(rs.count_rows().unwrap(), 10);
        assert_eq!(collector.node(4).unwrap().retries, 2);
    }

    /// A breaker that never trips, so every report stays visible as the
    /// failure streak.
    fn patient_breaker() -> Arc<Breaker> {
        breaker(BreakerConfig {
            failure_threshold: 100,
            ..BreakerConfig::standard()
        })
    }

    fn breaker(config: BreakerConfig) -> Arc<Breaker> {
        Arc::new(Breaker::new("m1", &Arc::new(HealthRegistry::new(config))))
    }

    fn streak(breaker: &Breaker) -> u32 {
        breaker.snapshot().consecutive_failures
    }

    #[test]
    fn mid_stream_give_up_records_one_failure_on_the_gate() {
        // The open succeeds, the stream drops after 3 rows, and every
        // re-open fails: the rewind spends the budget and gives up.
        let opens = Arc::new(AtomicU32::new(0));
        let factory: ReopenFactory = Box::new(move || {
            if opens.fetch_add(1, Ordering::Relaxed) == 0 {
                Ok(drop_after(3))
            } else {
                Err(DhqpError::Unavailable("injected connect fault".into()))
            }
        });
        let health = patient_breaker();
        let c = counters();
        let mut rs = RetryState::new(&fast(), &c)
            .gated(Some(Arc::clone(&health)))
            .open(factory)
            .unwrap();
        assert_eq!(streak(&health), 0, "the open reported success");
        let err = loop {
            match rs.next_batch(1) {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("the stream must give up"),
                Err(e) => break e,
            }
        };
        assert!(
            err.message().contains("giving up after 3 attempts"),
            "{err}"
        );
        assert_eq!(streak(&health), 1);
        // Pulling again reports nothing more.
        let _ = rs.next_batch(1);
        assert_eq!(streak(&health), 1);
        let last = health.snapshot().last_error.clone().unwrap();
        assert!(last.contains("injected connect fault"), "{last}");
    }

    #[test]
    fn an_open_breaker_fails_fast_without_an_attempt() {
        let health = breaker(BreakerConfig::standard());
        health.record_failure("dead");
        let calls = Arc::new(AtomicU32::new(0));
        let counted = Arc::clone(&calls);
        let factory: ReopenFactory = Box::new(move || {
            counted.fetch_add(1, Ordering::Relaxed);
            Ok(Box::new(MemRowset::new(int_schema(), rows(10))))
        });
        let c = counters();
        let err = match RetryState::new(&fast(), &c)
            .gated(Some(Arc::clone(&health)))
            .open(factory)
        {
            Err(e) => e,
            Ok(_) => panic!("an Open breaker must reject"),
        };
        assert_eq!(err.kind(), "unavailable");
        assert!(err.message().contains("circuit breaker open"), "{err}");
        assert_eq!(calls.load(Ordering::Relaxed), 0, "no attempt");
        assert_eq!(c.snapshot().breaker_fast_fails, 1);
        // Another server's breaker is not consulted.
        let m2 = Breaker::new(
            "m2",
            &Arc::new(HealthRegistry::new(BreakerConfig::standard())),
        );
        let mut rs = RetryState::new(&fast(), &c)
            .gated(Some(Arc::new(m2)))
            .open(flaky_factory(0, 0))
            .unwrap();
        assert_eq!(rs.count_rows().unwrap(), 10);
    }

    #[test]
    fn a_probe_that_meets_a_permanent_error_closes_the_breaker() {
        let health = breaker(BreakerConfig {
            cooldown: 1,
            ..BreakerConfig::standard()
        });
        health.record_failure("dead");
        assert!(matches!(health.admit(), Admission::Reject { .. }));
        let c = counters();
        let factory: ReopenFactory =
            Box::new(|| Err(DhqpError::Catalog("unknown table 'nope'".into())));
        let open = RetryState::new(&fast(), &c)
            .gated(Some(Arc::clone(&health)))
            .open(factory);
        assert_eq!(open.err().map(|e| e.kind()), Some("catalog"));
        assert_eq!(health.state(), BreakerState::Closed, "the link answered");
        assert_eq!(c.snapshot().remote_retries, 0);
    }

    #[test]
    fn a_gated_open_retries_in_the_same_loop() {
        let health = patient_breaker();
        let c = counters();
        let mut rs = RetryState::new(&fast(), &c)
            .gated(Some(Arc::clone(&health)))
            .open(flaky_factory(1, 0))
            .unwrap();
        assert_eq!(rs.count_rows().unwrap(), 10);
        assert_eq!(c.snapshot().remote_retries, 1);
        assert_eq!(streak(&health), 0);
        let err = match RetryState::new(&fast(), &c)
            .gated(Some(Arc::clone(&health)))
            .open(flaky_factory(99, 0))
        {
            Err(e) => e,
            Ok(_) => panic!("permanent flakiness must surface"),
        };
        assert!(
            err.message().contains("giving up after 3 attempts"),
            "{err}"
        );
        assert_eq!(streak(&health), 1, "one give-up, one failure");
    }
}
