//! Intra-query parallelism for remote work: the exchange operator and the
//! remote-rowset prefetcher.
//!
//! The paper's distributed partitioned views (§4.1.5) assume member servers
//! work concurrently, but a single-threaded pull pipeline pays every link's
//! latency in sequence. [`ExchangeRowset`] runs each union branch on a
//! worker thread, funneling rows through one bounded channel to the
//! consumer cursor; [`PrefetchRowset`] pipelines the next batch of a remote
//! rowset on a background worker while the consumer drains the current one.
//!
//! Error contract: the first branch error to reach the channel is the one
//! the consumer surfaces (original [`dhqp_types::DhqpError`], not a wrapper);
//! after that the cursor is done and remaining workers unwind cleanly —
//! dropping the receiver makes their blocked sends fail, and the drop path
//! joins every worker before returning.

use crate::context::{ExecContext, ParallelConfig};
use crate::ops::sort::union_perms;
use crate::stats::{RuntimeStatsCollector, WorkerSpan};
use dhqp_oledb::waits::{
    current_scope, emit_event, has_hook, install_scope, record_wait, WaitClass,
};
use dhqp_oledb::{RowCursor, Rowset};
use dhqp_optimizer::ColumnId;
use dhqp_types::{Result, Row, RowBatch, Schema};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Opens one exchange branch. Boxed so the builder can capture the branch's
/// plan subtree and pre-order id; `Send` because it runs on a worker thread.
pub type BranchFactory = Box<dyn FnOnce(&ExecContext) -> Result<Box<dyn Rowset>> + Send>;

/// A verdict on the whole exchange that only exists once every branch has
/// finished (see [`ExchangeRowset::at_end`]).
pub type EndCheck = Box<dyn FnOnce() -> Result<()> + Send>;

/// Parallel bag union: branches open and drain on worker threads, the
/// consumer pulls merged row batches (arrival order) from a bounded channel.
/// Each channel slot carries a whole [`RowBatch`], so the queue bound is
/// expressed in batches (`exchange_queue / batch_size`) to keep the buffered
/// row budget roughly constant whichever batch size is configured.
pub struct ExchangeRowset {
    /// A caller may ask for fewer rows than a worker shipped at once; the
    /// cursor hands such a batch on in pieces.
    merged: RowCursor<MergedBranches>,
}

/// The consumer end of the workers' channel. Read only through the cursor
/// in [`ExchangeRowset`], which asks for `pull` rows at a time — the size
/// the workers fill their batches to.
struct MergedBranches {
    rx: Option<Receiver<Result<RowBatch>>>,
    workers: Vec<JoinHandle<WorkerSpan>>,
    worker_count: usize,
    opened: Instant,
    schema: Schema,
    done: bool,
    stats: Option<(usize, Arc<RuntimeStatsCollector>)>,
    at_end: Option<EndCheck>,
}

impl ExchangeRowset {
    /// Spawn workers immediately: branch k goes to worker `k % n` where
    /// `n = min(branches, max_workers)`, so every branch's provider SQL is
    /// dispatched concurrently up to the worker cap.
    pub fn new(
        branches: Vec<BranchFactory>,
        child_delivered: &[Vec<ColumnId>],
        input_columns: &[Vec<ColumnId>],
        schema: Schema,
        cfg: &ParallelConfig,
        ctx: &ExecContext,
        node: usize,
    ) -> Result<ExchangeRowset> {
        let perms = union_perms(child_delivered, input_columns)?;
        let n = branches.len().min(cfg.max_workers).max(1);
        let branch_count = branches.len();
        let pull = ctx.batch().batch_size;
        // Queue depth in batches: with batching off (pull = 1) this is the
        // historical row-granular bound, unchanged.
        let depth = cfg.exchange_queue.max(1).div_ceil(pull).max(1);
        let (tx, rx) = sync_channel::<Result<RowBatch>>(depth);
        let mut assigned: Vec<Vec<(BranchFactory, Vec<usize>)>> =
            (0..n).map(|_| Vec::new()).collect();
        for (k, (open, perm)) in branches.into_iter().zip(perms).enumerate() {
            assigned[k % n].push((open, perm));
        }
        let opened = Instant::now();
        let workers: Vec<JoinHandle<WorkerSpan>> = assigned
            .into_iter()
            .map(|work| {
                let tx = tx.clone();
                let wctx = ctx.clone();
                // Waits a worker incurs (link time, channel backpressure)
                // must land in the spawning statement's sinks, so the
                // consumer's activity scope rides into the thread.
                let scope = current_scope();
                std::thread::spawn(move || {
                    let _scope = install_scope(scope);
                    run_branches(work, &wctx, &tx, opened, pull)
                })
            })
            .collect();
        if has_hook() {
            emit_event(
                "exchange_spawn",
                &[
                    ("node", node.to_string()),
                    ("workers", n.to_string()),
                    ("branches", branch_count.to_string()),
                ],
            );
        }
        // Only worker-held senders remain: the channel disconnects exactly
        // when the last branch finishes.
        drop(tx);
        ctx.counters().parallel_exchanges.bump();
        ctx.counters().exchange_workers.add(n as u64);
        let stats = ctx.stats().map(|c| (node, Arc::clone(c)));
        let merged = MergedBranches {
            rx: Some(rx),
            workers,
            worker_count: n,
            opened,
            schema,
            done: false,
            stats,
            at_end: None,
        };
        Ok(ExchangeRowset {
            merged: RowCursor::new(merged, pull),
        })
    }

    /// Run `check` when the merged stream ends cleanly — every branch
    /// drained and every worker joined — and surface its error in place of
    /// the end of stream. How the builder refuses an exchange whose every
    /// member was quarantined instead of answering "no rows".
    pub fn at_end(mut self, check: EndCheck) -> Self {
        self.merged.child_mut().at_end = Some(check);
        self
    }
}

impl MergedBranches {
    /// All senders gone: every branch drained.
    fn finish(&mut self) -> Result<()> {
        self.done = true;
        self.shutdown();
        self.at_end.take().map_or(Ok(()), |check| check())
    }

    /// Receive the next batch from the channel (lock-free fast path, blocking
    /// fallback charged to EXCHANGE_QUEUE_EMPTY). `Err(())` = all senders
    /// gone, i.e. every branch drained.
    fn recv_batch(&mut self) -> std::result::Result<Result<RowBatch>, ()> {
        let Some(rx) = &self.rx else {
            return Err(());
        };
        match rx.try_recv() {
            Ok(item) => Ok(item),
            Err(TryRecvError::Disconnected) => Err(()),
            Err(TryRecvError::Empty) => {
                let t0 = Instant::now();
                let out = rx.recv().map_err(|_| ());
                record_wait(WaitClass::ExchangeQueueEmpty, t0.elapsed());
                out
            }
        }
    }

    /// Drop the receiver (failing any blocked sends), join every worker and
    /// record the exchange runtime. Idempotent. A worker panic is re-raised
    /// on the consumer thread (unless it is already unwinding) — branch
    /// errors travel through the channel, so a panicking worker is a bug
    /// that must not be swallowed by the join.
    fn shutdown(&mut self) {
        self.rx = None;
        if self.workers.is_empty() {
            return;
        }
        let mut busy = Duration::ZERO;
        let mut spans = Vec::with_capacity(self.workers.len());
        for handle in self.workers.drain(..) {
            match handle.join() {
                Ok(span) => {
                    busy += Duration::from_micros(span.elapsed_us);
                    spans.push(span);
                }
                Err(panic) => {
                    if !std::thread::panicking() {
                        std::panic::resume_unwind(panic);
                    }
                }
            }
        }
        if has_hook() {
            let rows: u64 = spans.iter().map(|s| s.rows).sum();
            emit_event(
                "exchange_drain",
                &[
                    ("workers", spans.len().to_string()),
                    ("rows", rows.to_string()),
                    ("busy_us", busy.as_micros().to_string()),
                    ("wall_us", self.opened.elapsed().as_micros().to_string()),
                ],
            );
        }
        if let Some((node, collector)) = self.stats.take() {
            collector.record_exchange(
                node,
                self.worker_count as u64,
                busy,
                self.opened.elapsed(),
                spans,
            );
        }
    }
}

/// Push one result into the bounded channel: a free slot costs a lock-free
/// `try_send`; a full channel falls back to the blocking send and the
/// blocked time is charged to `EXCHANGE_QUEUE_FULL`. Returns `false` when
/// the consumer hung up.
fn send_with_backpressure(
    tx: &SyncSender<Result<RowBatch>>,
    item: Result<RowBatch>,
    span: &mut WorkerSpan,
) -> bool {
    match tx.try_send(item) {
        Ok(()) => true,
        Err(TrySendError::Disconnected(_)) => false,
        Err(TrySendError::Full(item)) => {
            let t0 = Instant::now();
            let ok = tx.send(item).is_ok();
            let waited = t0.elapsed();
            record_wait(WaitClass::ExchangeQueueFull, waited);
            span.send_wait_us += waited.as_micros() as u64;
            ok
        }
    }
}

/// Worker body: open and drain each assigned branch in turn, permuting rows
/// to the output column order and shipping `pull`-row batches. Returns the
/// worker's timeline (offsets relative to `opened`, the exchange's open
/// instant). A send failure means the consumer hung up — stop quietly.
fn run_branches(
    work: Vec<(BranchFactory, Vec<usize>)>,
    ctx: &ExecContext,
    tx: &SyncSender<Result<RowBatch>>,
    opened: Instant,
    pull: usize,
) -> WorkerSpan {
    let start = Instant::now();
    let mut span = WorkerSpan {
        start_us: opened.elapsed().as_micros() as u64,
        ..WorkerSpan::default()
    };
    'branches: for (open, perm) in work {
        let mut rowset = match open(ctx) {
            Ok(rs) => rs,
            Err(e) => {
                let _ = send_with_backpressure(tx, Err(e), &mut span);
                break 'branches;
            }
        };
        loop {
            match rowset.next_batch(pull) {
                Ok(Some(batch)) => {
                    let mut out = RowBatch::with_capacity(batch.len());
                    for row in batch {
                        let values = perm.iter().map(|&p| row.values[p].clone()).collect();
                        out.push(Row::new(values));
                    }
                    let n = out.len() as u64;
                    if !send_with_backpressure(tx, Ok(out), &mut span) {
                        break 'branches;
                    }
                    span.rows += n;
                }
                Ok(None) => break,
                Err(e) => {
                    let _ = send_with_backpressure(tx, Err(e), &mut span);
                    break 'branches;
                }
            }
        }
    }
    span.elapsed_us = start.elapsed().as_micros() as u64;
    span
}

impl Rowset for MergedBranches {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        if self.done {
            return Ok(None);
        }
        match self.recv_batch() {
            Ok(Ok(batch)) => {
                debug_assert!(batch.len() <= max, "workers fill batches to the pull size");
                Ok(Some(batch))
            }
            // First error wins: surface it once, then the cursor is done
            // (shutdown cancels the remaining workers).
            Ok(Err(e)) => {
                self.done = true;
                self.shutdown();
                Err(e)
            }
            Err(()) => self.finish().map(|()| None),
        }
    }
}

impl Rowset for ExchangeRowset {
    fn schema(&self) -> &Schema {
        self.merged.schema()
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        self.merged.next_batch(max)
    }
}

impl Drop for MergedBranches {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Pipelines a (typically remote) rowset: a background worker pulls rows
/// ahead of the consumer so link latency and transfer time overlap with
/// consumer work. Row order is preserved — batches flow through a FIFO
/// channel.
pub struct PrefetchRowset {
    ahead: RowCursor<Prefetched>,
}

/// The consumer end of the prefetch worker's channel; like
/// [`MergedBranches`], read only through the cursor in front of it, at the
/// size the worker fills its batches to.
struct Prefetched {
    rx: Option<Receiver<Result<RowBatch>>>,
    worker: Option<JoinHandle<()>>,
    schema: Schema,
}

impl PrefetchRowset {
    /// The worker asks the source for `pull` rows per call — one round trip
    /// each over a link — and hands the consumer batches of up to
    /// `batch_rows` (at least one pull), `queue_depth` of them ahead. Rows
    /// pulled before a fault are handed over before the fault is.
    pub fn new(
        mut inner: Box<dyn Rowset>,
        pull: usize,
        batch_rows: usize,
        queue_depth: usize,
    ) -> Self {
        let schema = inner.schema().clone();
        let pull = pull.max(1);
        let batch_rows = batch_rows.max(pull);
        let (tx, rx) = sync_channel::<Result<RowBatch>>(queue_depth.max(1));
        // The prefetcher drains a metered remote rowset off-thread; its
        // link waits must land in the spawning statement's sinks too.
        let scope = current_scope();
        let worker = std::thread::spawn(move || {
            let _scope = install_scope(scope);
            let mut ahead: Vec<Row> = Vec::new();
            let hand_over = |ahead: &mut Vec<Row>| {
                ahead.is_empty() || tx.send(Ok(std::mem::take(ahead).into())).is_ok()
            };
            loop {
                match inner.next_batch(pull) {
                    Ok(Some(batch)) => {
                        ahead.extend(batch);
                        // Another pull might not fit.
                        if ahead.len() + pull > batch_rows && !hand_over(&mut ahead) {
                            return;
                        }
                    }
                    Ok(None) => {
                        hand_over(&mut ahead);
                        return;
                    }
                    Err(e) => {
                        if hand_over(&mut ahead) {
                            let _ = tx.send(Err(e));
                        }
                        return;
                    }
                }
            }
        });
        let ahead = Prefetched {
            rx: Some(rx),
            worker: Some(worker),
            schema,
        };
        PrefetchRowset {
            ahead: RowCursor::new(ahead, batch_rows),
        }
    }
}

impl Rowset for Prefetched {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        let Some(rx) = &self.rx else {
            return Ok(None);
        };
        match rx.recv() {
            Ok(Ok(batch)) => {
                debug_assert!(batch.len() <= max, "the worker fills batches to batch_rows");
                Ok(Some(batch))
            }
            // An error or the worker's exit ends the stream.
            Ok(Err(e)) => {
                self.rx = None;
                Err(e)
            }
            Err(_) => {
                self.rx = None;
                Ok(None)
            }
        }
    }
}

impl Rowset for PrefetchRowset {
    fn schema(&self) -> &Schema {
        self.ahead.schema()
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        self.ahead.next_batch(max)
    }
}

impl Drop for Prefetched {
    fn drop(&mut self) {
        // Hang up first so a worker blocked on a full queue exits, then
        // join it — all wire traffic is accounted before the drop returns.
        self.rx = None;
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_support::TestCatalog;
    use crate::context::BatchConfig;
    use dhqp_oledb::{IterRowset, MemRowset, RowsetExt};
    use dhqp_optimizer::props::ColumnRegistry;
    use dhqp_storage::StorageEngine;
    use dhqp_types::{Column, DataType, DhqpError, Value};
    use std::collections::HashMap;

    fn ctx() -> ExecContext {
        let catalog = Arc::new(TestCatalog::with_local(Arc::new(StorageEngine::new("l"))));
        ExecContext::new(catalog, HashMap::new(), Arc::new(ColumnRegistry::new()))
    }

    fn int_schema() -> Schema {
        Schema::new(vec![Column::new("v", DataType::Int)])
    }

    fn ints(vals: Vec<i64>) -> BranchFactory {
        Box::new(move |_| {
            let rows = vals
                .iter()
                .map(|&i| Row::new(vec![Value::Int(i)]))
                .collect();
            Ok(Box::new(MemRowset::new(int_schema(), rows)) as Box<dyn Rowset>)
        })
    }

    /// Yields `ok` rows, then fails with a provider error.
    fn faulty(ok: i64) -> Box<dyn Rowset> {
        let reset = Err(DhqpError::Provider("link reset mid-stream".into()));
        let stream = (0..ok).map(|i| Ok(Row::new(vec![Value::Int(i)])));
        Box::new(IterRowset::new(int_schema(), stream.chain([reset])))
    }

    fn exchange(branches: Vec<BranchFactory>, cfg: &ParallelConfig) -> ExchangeRowset {
        exchange_in(branches, cfg, &ctx())
    }

    fn exchange_in(
        branches: Vec<BranchFactory>,
        cfg: &ParallelConfig,
        ctx: &ExecContext,
    ) -> ExchangeRowset {
        let cols = vec![vec![ColumnId(0)]; branches.len()];
        ExchangeRowset::new(branches, &cols, &cols, int_schema(), cfg, ctx, 0).unwrap()
    }

    #[test]
    fn merges_branches_as_a_multiset() {
        let mut rs = exchange(
            vec![ints(vec![1, 2]), ints(vec![3]), ints(vec![4, 5, 6])],
            &ParallelConfig::parallel(),
        );
        let mut got: Vec<i64> = rs
            .collect_rows()
            .unwrap()
            .iter()
            .map(|r| match r.get(0) {
                Value::Int(i) => *i,
                other => panic!("unexpected value {other:?}"),
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6]);
        // Exhausted cursor stays exhausted.
        assert!(rs.next().unwrap().is_none());
    }

    #[test]
    fn more_branches_than_workers_still_covers_all() {
        let cfg = ParallelConfig {
            max_workers: 2,
            ..ParallelConfig::parallel()
        };
        let branches: Vec<BranchFactory> = (0..7).map(|i| ints(vec![i])).collect();
        let mut rs = exchange(branches, &cfg);
        assert_eq!(rs.count_rows().unwrap(), 7);
    }

    #[test]
    fn first_error_wins_and_workers_unwind() {
        let faulty: BranchFactory = Box::new(|_| Ok(faulty(2)));
        let mut rs = exchange(
            vec![ints((0..100).collect()), faulty, ints((0..100).collect())],
            &ParallelConfig {
                exchange_queue: 4,
                ..ParallelConfig::parallel()
            },
        );
        let err = loop {
            match rs.next() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("stream ended without surfacing the branch error"),
                Err(e) => break e,
            }
        };
        assert!(
            matches!(&err, DhqpError::Provider(m) if m.contains("link reset")),
            "original provider error must surface, got {err:?}"
        );
        // After the error the cursor is done, not wedged.
        assert!(rs.next().unwrap().is_none());
    }

    #[test]
    fn open_failure_propagates() {
        let bad: BranchFactory =
            Box::new(|_| Err(DhqpError::Provider("connection refused".into())));
        let mut rs = exchange(vec![bad], &ParallelConfig::parallel());
        let err = rs.next().unwrap_err();
        assert!(matches!(&err, DhqpError::Provider(m) if m.contains("connection refused")));
    }

    #[test]
    fn exchange_records_runtime_stats() {
        let collector = Arc::new(RuntimeStatsCollector::new());
        let ctx = ctx().with_stats(Arc::clone(&collector));
        let cols = vec![vec![ColumnId(0)]; 2];
        let branches = vec![ints(vec![1]), ints(vec![2])];
        let mut rs = ExchangeRowset::new(
            branches,
            &cols,
            &cols,
            int_schema(),
            &ParallelConfig::parallel(),
            &ctx,
            7,
        )
        .unwrap();
        assert_eq!(rs.count_rows().unwrap(), 2);
        drop(rs);
        let ex = collector.node(7).unwrap().exchange.unwrap();
        assert_eq!(ex.workers, 2);
        assert_eq!(ctx.counters().snapshot().parallel_exchanges, 1);
        assert_eq!(ctx.counters().snapshot().exchange_workers, 2);
    }

    #[test]
    fn branch_error_after_consumer_drop_is_silent() {
        // The branch yields one row, dawdles, then fails — by which time
        // the consumer has dropped the receiver. The worker's error send
        // fails; that result must be dropped — not unwrapped — so the
        // unwind stays clean (shutdown re-raises worker panics, so a
        // spurious panic here would fail this test). Workers pull one row
        // at a time, so the good row is on its way before the source is
        // asked for the one that fails.
        let slow: BranchFactory = Box::new(|_| {
            let mut yielded = false;
            let stream = std::iter::from_fn(move || {
                if yielded {
                    std::thread::sleep(Duration::from_millis(50));
                    return Some(Err(DhqpError::Provider("late link reset".into())));
                }
                yielded = true;
                Some(Ok(Row::new(vec![Value::Int(0)])))
            });
            Ok(Box::new(IterRowset::new(int_schema(), stream)) as Box<dyn Rowset>)
        });
        let ctx = ctx().with_batch(BatchConfig::batched(1));
        let mut rs = exchange_in(vec![slow], &ParallelConfig::parallel(), &ctx);
        assert!(rs.next().unwrap().is_some());
        drop(rs);
    }

    #[test]
    fn early_drop_cancels_workers() {
        let branches: Vec<BranchFactory> = (0..4).map(|_| ints((0..10_000).collect())).collect();
        let mut rs = exchange(
            branches,
            &ParallelConfig {
                exchange_queue: 2,
                ..ParallelConfig::parallel()
            },
        );
        // Take a couple of rows, then drop with workers blocked on the full
        // channel; Drop must join them without deadlocking.
        rs.next().unwrap();
        rs.next().unwrap();
        drop(rs);
    }

    #[test]
    fn prefetch_preserves_order_and_completes() {
        for pull in [1, 16] {
            let rows: Vec<Row> = (0..103).map(|i| Row::new(vec![Value::Int(i)])).collect();
            let inner: Box<dyn Rowset> = Box::new(MemRowset::new(int_schema(), rows));
            let mut rs = PrefetchRowset::new(inner, pull, 16, 2);
            let got = rs.collect_rows().unwrap();
            assert_eq!(got.len(), 103);
            assert!(got
                .iter()
                .enumerate()
                .all(|(i, r)| r.get(0) == &Value::Int(i as i64)));
            assert!(rs.next().unwrap().is_none());
        }
    }

    #[test]
    fn prefetch_surfaces_buffered_rows_before_error() {
        let mut rs = PrefetchRowset::new(faulty(3), 1, 2, 2);
        let mut seen = 0;
        let err = loop {
            match rs.next() {
                Ok(Some(_)) => seen += 1,
                Ok(None) => panic!("error swallowed"),
                Err(e) => break e,
            }
        };
        assert_eq!(seen, 3, "rows before the fault must be delivered");
        assert!(matches!(err, DhqpError::Provider(_)));
        assert!(rs.next().unwrap().is_none());
    }

    #[test]
    fn prefetch_early_drop_joins_worker() {
        let rows: Vec<Row> = (0..10_000).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let inner: Box<dyn Rowset> = Box::new(MemRowset::new(int_schema(), rows));
        let mut rs = PrefetchRowset::new(inner, 8, 8, 1);
        rs.next().unwrap();
        drop(rs);
    }
}
