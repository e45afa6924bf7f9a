//! Intra-query parallelism for remote work: worker threads that drain
//! branches into one bounded channel.
//!
//! The paper's distributed partitioned views (§4.1.5) assume member servers
//! work concurrently, but a single-threaded pull pipeline pays every link's
//! latency in sequence. [`ExchangeRowset::new`] runs each union branch on a
//! worker thread, funneling rows through one bounded channel to the
//! consumer cursor; [`ExchangeRowset::prefetch`] is the same worker over one
//! open remote rowset, pulling its next batch while the consumer drains the
//! current one. A worker drains what its branch opens itself: a remote
//! rowset opened on a worker gets no prefetcher of its own, so a member
//! stream costs one thread.
//!
//! Error contract: the first branch error to reach the channel is the one
//! the consumer surfaces (original [`dhqp_types::DhqpError`], not a wrapper);
//! after that the cursor is done and remaining workers unwind cleanly —
//! dropping the receiver makes their blocked sends fail, and the drop path
//! joins every worker before returning. A worker that panicked re-raises its
//! panic on the consumer thread when it is joined.

use crate::context::ExecContext;
use crate::ops::sort::{permute, union_perms};
use crate::stats::{RuntimeStatsCollector, WorkerSpan};
use dhqp_oledb::waits::{
    current_scope, emit_event, has_hook, install_scope, record_wait, WaitClass,
};
use dhqp_oledb::{RowCursor, Rowset};
use dhqp_optimizer::ColumnId;
use dhqp_types::{Result, RowBatch, Schema};
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Branches drained on worker threads; the consumer pulls row batches
/// (arrival order across branches, branch order within one) from a bounded
/// channel. Each channel slot carries a whole [`RowBatch`], so the queue
/// bound is expressed in batches (`exchange_queue / batch_size`) to keep the
/// buffered row budget roughly constant whichever batch size is configured.
pub struct ExchangeRowset {
    /// A caller may ask for fewer rows than a worker shipped at once; the
    /// cursor hands such a batch on in pieces.
    merged: RowCursor<Workers>,
}

/// The consumer end of the workers' channel. Read only through the cursor
/// in [`ExchangeRowset`], which asks for `pull` rows at a time — the size
/// the workers fill their batches to.
struct Workers {
    rx: Option<Receiver<Result<RowBatch>>>,
    handles: Vec<JoinHandle<WorkerSpan>>,
    /// Workers that returned rather than panicked.
    returned: Arc<AtomicUsize>,
    opened: Instant,
    schema: Schema,
    done: bool,
    /// The union node whose runtime this exchange records; `None` for a
    /// prefetcher, which the exchange counters and events do not see.
    node: Option<usize>,
    stats: Option<Arc<RuntimeStatsCollector>>,
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
        ctx: &ExecContext,
        node: usize,
    ) -> Result<ExchangeRowset> {
        let perms = union_perms(child_delivered, input_columns)?;
        let n = branches.len().min(ctx.parallel().max_workers).max(1);
        let branch_count = branches.len();
        let mut assigned: Vec<Vec<(BranchFactory, Vec<usize>)>> =
            (0..n).map(|_| Vec::new()).collect();
        for (k, branch) in branches.into_iter().zip(perms).enumerate() {
            assigned[k % n].push(branch);
        }
        let mut workers = Workers::spawn(assigned, schema, ctx);
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
        ctx.counters().parallel_exchanges.bump();
        ctx.counters().exchange_workers.add(n as u64);
        workers.node = Some(node);
        workers.stats = ctx.stats().cloned();
        Ok(ExchangeRowset {
            merged: RowCursor::new(workers, ctx.batch().batch_size),
        })
    }

    /// The prefetcher: one worker drains the already-open `inner` ahead of
    /// its consumer, so link latency and transfer time overlap with
    /// consumer work. Row order is preserved and rows move through as they
    /// arrived; rows pulled before a fault are handed over before the fault
    /// is.
    pub fn prefetch(inner: Box<dyn Rowset>, ctx: &ExecContext) -> ExchangeRowset {
        let schema = inner.schema().clone();
        let identity = (0..schema.len()).collect();
        let open: BranchFactory = Box::new(move |_| Ok(inner));
        ExchangeRowset {
            merged: RowCursor::new(
                Workers::spawn(vec![vec![(open, identity)]], schema, ctx),
                ctx.batch().batch_size,
            ),
        }
    }

    /// Run `check` when the merged stream ends cleanly — every branch
    /// drained and every worker joined — and surface its error in place of
    /// the end of stream. How the builder refuses a union whose every
    /// member was quarantined instead of answering "no rows".
    pub fn at_end(mut self, check: EndCheck) -> Self {
        self.merged.child_mut().at_end = Some(check);
        self
    }
}

impl Workers {
    /// One worker thread per entry of `assigned`, each opening and draining
    /// its branches in turn into one channel of `exchange_queue` rows,
    /// counted in pulls of the configured batch size.
    fn spawn(
        assigned: Vec<Vec<(BranchFactory, Vec<usize>)>>,
        schema: Schema,
        ctx: &ExecContext,
    ) -> Workers {
        let pull = ctx.batch().batch_size;
        // At pull = 1 the bound is `exchange_queue` rows exactly.
        let depth = ctx.parallel().exchange_queue.max(1).div_ceil(pull).max(1);
        let (tx, rx) = sync_channel::<Result<RowBatch>>(depth);
        let opened = Instant::now();
        let returned = Arc::new(AtomicUsize::new(0));
        let handles = assigned
            .into_iter()
            .map(|work| {
                let (tx, returned) = (tx.clone(), Arc::clone(&returned));
                let wctx = ctx.clone().for_worker();
                // Waits a worker incurs (link time, channel backpressure)
                // must land in the spawning statement's sinks, so the
                // consumer's activity scope rides into the thread.
                let scope = current_scope();
                std::thread::spawn(move || {
                    let _scope = install_scope(scope);
                    let span = run_branches(work, &wctx, &tx, opened, pull);
                    // Counted before `tx` drops, so a disconnect that finds
                    // fewer returns than workers means one panicked.
                    returned.fetch_add(1, Ordering::Release);
                    span
                })
            })
            .collect();
        // Only worker-held senders remain once `tx` drops here: the channel
        // disconnects exactly when the last branch finishes.
        Workers {
            rx: Some(rx),
            handles,
            returned,
            opened,
            schema,
            done: false,
            node: None,
            stats: None,
            at_end: None,
        }
    }

    /// All senders gone: every branch drained.
    fn finish(&mut self) -> Result<()> {
        self.done = true;
        // A union accounts its workers now. A prefetcher whose worker
        // returned is joined when dropped, so the thread's exit overlaps the
        // consumer's remaining work; one whose worker did not panicked, and
        // the join re-raises it.
        if self.node.is_some() || self.returned.load(Ordering::Acquire) < self.handles.len() {
            self.shutdown();
        }
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

    /// Drop the receiver (failing any blocked sends), join every worker and,
    /// for a union, record the exchange runtime. Idempotent. A worker panic
    /// is re-raised on the consumer thread (unless it is already unwinding)
    /// — branch errors travel through the channel, so a panicking worker is
    /// a bug that must not be swallowed by the join or read as the end of
    /// the stream.
    fn shutdown(&mut self) {
        self.rx = None;
        let workers = self.handles.len() as u64;
        let mut spans = Vec::with_capacity(self.handles.len());
        for handle in self.handles.drain(..) {
            match handle.join() {
                Ok(span) => spans.push(span),
                Err(panic) => {
                    if !std::thread::panicking() {
                        std::panic::resume_unwind(panic);
                    }
                }
            }
        }
        let Some(node) = self.node.take() else {
            return;
        };
        let busy: Duration = spans
            .iter()
            .map(|s| Duration::from_micros(s.elapsed_us))
            .sum();
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
        if let Some(collector) = self.stats.take() {
            collector.record_exchange(node, workers, busy, self.opened.elapsed(), spans);
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
                    let n = batch.len() as u64;
                    if !send_with_backpressure(tx, Ok(permute(batch, &perm)), &mut span) {
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

impl Rowset for Workers {
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

impl Drop for Workers {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_support::TestCatalog;
    use crate::context::BatchConfig;
    use crate::context::ParallelConfig;
    use dhqp_oledb::{IterRowset, MemRowset, RowsetExt};
    use dhqp_optimizer::props::ColumnRegistry;
    use dhqp_storage::StorageEngine;
    use dhqp_types::{Column, DataType, DhqpError, Row, Value};
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
        let ctx = ctx.clone().with_parallel(cfg.clone());
        ExchangeRowset::new(branches, &cols, &cols, int_schema(), &ctx, 0).unwrap()
    }

    /// A prefetcher pulling `pull` rows at a time.
    fn prefetch(inner: Box<dyn Rowset>, pull: usize) -> ExchangeRowset {
        ExchangeRowset::prefetch(inner, &ctx().with_batch(BatchConfig::batched(pull)))
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
        let mut rs = ExchangeRowset::new(branches, &cols, &cols, int_schema(), &ctx, 7).unwrap();
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
            let mut rs = prefetch(inner, pull);
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
        let mut rs = prefetch(faulty(3), 1);
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
        let mut rs = prefetch(inner, 8);
        rs.next().unwrap();
        drop(rs);
    }

    #[test]
    fn prefetch_worker_panic_reraises_on_the_consumer() {
        // The source panics when asked for its sixth row: a bug, not a
        // provider error. The consumer must not read the dead worker as the
        // end of a five-row answer.
        let mut yielded = 0;
        let stream = std::iter::from_fn(move || {
            assert!(yielded < 5, "source bug at row {}", yielded + 1);
            yielded += 1;
            Some(Ok(Row::new(vec![Value::Int(yielded)])))
        });
        let inner: Box<dyn Rowset> = Box::new(IterRowset::new(int_schema(), stream));
        let mut rs = prefetch(inner, 2);
        let drained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rs.count_rows()));
        assert!(
            drained.is_err(),
            "a worker panic must re-raise, got {drained:?}"
        );
    }
}
