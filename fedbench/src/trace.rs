//! The harness-side span recorder and the `TimedDataSource` wrapper.
//!
//! Spans are recorded from fedbench's own files, around the calls into each
//! layer (no span lives inside the engine): `name`, `start`, `end`, the span
//! that caused it, and the statement id all spans of one statement share.
//! They stay in memory until the run ends and are then written as
//! Chrome-trace JSON (open in `chrome://tracing` or ui.perfetto.dev).
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover (their union, so children that ran in
//! parallel on exchange workers are not subtracted twice).

use dhqp_oledb::{
    Command, CommandResult, DataSource, Histogram, KeyRange, LatencySummary, ProviderCapabilities,
    Rowset, Session, TableInfo, TrafficSnapshot, TxnId,
};
use dhqp_types::{Result, Row, RowBatch, Schema, Value};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    /// 0 = a statement's root span.
    pub parent: u32,
    pub stmt: u32,
    pub tid: u32,
    /// Calls this span stands for: 1, or [`PULL_SAMPLE`] for a sampled
    /// row-at-a-time pull (see [`TimedRowset`]).
    pub weight: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    next_tid: AtomicU32,
    /// Statement currently executing (one session thread ⇒ one at a time).
    stmt: AtomicU32,
    /// Innermost open span of the session thread: the parent of spans that
    /// start on a thread with no open span of its own (exchange workers,
    /// the prefetcher).
    session_top: AtomicU32,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    /// Small per-thread id for the Chrome-trace `tid` field (0 = unset).
    static TID: Cell<u32> = const { Cell::new(0) };
    /// Set on the thread that calls [`Recorder::statement`].
    static IS_SESSION: Cell<bool> = const { Cell::new(false) };
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            next_id: AtomicU32::new(1),
            next_tid: AtomicU32::new(1),
            stmt: AtomicU32::new(0),
            session_top: AtomicU32::new(0),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn tid(&self) -> u32 {
        TID.with(|t| {
            if t.get() == 0 {
                t.set(self.next_tid.fetch_add(1, Ordering::Relaxed));
            }
            t.get()
        })
    }

    /// Begin the root span of statement `stmt`; the calling thread becomes
    /// the session thread.
    pub fn statement(&self, stmt: u32, name: &'static str) -> SpanGuard<'_> {
        IS_SESSION.with(|s| s.set(true));
        self.stmt.store(stmt, Ordering::Relaxed);
        self.enter(name)
    }

    /// Begin a span under the innermost open span of this thread, or — on
    /// a worker thread with none — under the session thread's.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        self.enter_weighted(name, 1)
    }

    fn enter_weighted(&self, name: &'static str, weight: u32) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let session = IS_SESSION.with(Cell::get);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = match s.last() {
                Some(&p) => p,
                None if session => 0,
                None => self.session_top.load(Ordering::Relaxed),
            };
            s.push(id);
            parent
        });
        if session {
            self.session_top.store(id, Ordering::Relaxed);
        }
        SpanGuard {
            rec: self,
            name,
            id,
            parent,
            session,
            weight,
            stmt: self.stmt.load(Ordering::Relaxed),
            start_ns: self.now_ns(),
        }
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("recorder mutex"))
    }
}

pub struct SpanGuard<'r> {
    rec: &'r Recorder,
    name: &'static str,
    id: u32,
    parent: u32,
    session: bool,
    weight: u32,
    stmt: u32,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.rec.now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        if self.session {
            self.rec.session_top.store(self.parent, Ordering::Relaxed);
        }
        let span = Span {
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            id: self.id,
            parent: self.parent,
            stmt: self.stmt,
            tid: self.rec.tid(),
            weight: self.weight,
        };
        // Drop must not panic: a poisoned mutex just loses the span.
        if let Ok(mut spans) = self.rec.spans.lock() {
            spans.push(span);
        }
    }
}

// ---- analysis -------------------------------------------------------------

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Totals and self times by span name, each span counted `weight` times.
/// A child of the same weight as its parent covers its own interval; a
/// sampled child of an unsampled parent stands for `weight` sequential
/// calls, so it covers `weight ×` its duration (capped by the parent).
pub fn totals(spans: &[Span]) -> HashMap<&'static str, NameTotals> {
    let mut children: HashMap<u32, Vec<&Span>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(s);
        }
    }
    let mut out: HashMap<&'static str, NameTotals> = HashMap::new();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or_default();
        let same: Vec<(u64, u64)> = kids
            .iter()
            .filter(|k| k.weight == s.weight)
            .map(|k| (k.start_ns, k.end_ns))
            .collect();
        let scaled: u64 = kids
            .iter()
            .filter(|k| k.weight != s.weight)
            .map(|k| k.dur_ns() * u64::from(k.weight) / u64::from(s.weight))
            .sum();
        let child_ns = (covered(same, s.start_ns, s.end_ns) + scaled).min(s.dur_ns());
        let w = u64::from(s.weight);
        let t = out.entry(s.name).or_default();
        t.count += w;
        t.total_ns += s.dur_ns() * w;
        t.self_ns += (s.dur_ns() - child_ns) * w;
    }
    out
}

/// Write at most `max_stmts` statements' spans as Chrome-trace JSON.
pub fn write_chrome_trace(
    path: &std::path::Path,
    spans: &[Span],
    max_stmts: u32,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\":[\n")?;
    let mut first = true;
    for s in spans.iter().filter(|s| s.stmt < max_stmts) {
        if !first {
            out.write_all(b",\n")?;
        }
        first = false;
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"stmt\":{},\"weight\":{}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(""),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.stmt,
            s.weight
        )?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

// ---- TimedDataSource ------------------------------------------------------

/// Span names of one side of a link.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub meta: &'static str,
    pub session: &'static str,
    pub open: &'static str,
    pub execute: &'static str,
    pub pull: &'static str,
    pub fetch: &'static str,
    pub write: &'static str,
    pub txn: &'static str,
}

/// Above the `NetworkedDataSource`: provider time + wire.
pub const OUTER: Side = Side {
    meta: "netsim.meta",
    session: "netsim.session",
    open: "netsim.open",
    execute: "netsim.execute",
    pull: "netsim.pull",
    fetch: "netsim.fetch",
    write: "netsim.write",
    txn: "netsim.txn",
};

/// Below it: the remote provider alone.
pub const INNER: Side = Side {
    meta: "providers.meta",
    session: "providers.session",
    open: "providers.open",
    execute: "providers.execute",
    pull: "providers.pull",
    fetch: "providers.fetch",
    write: "providers.write",
    txn: "providers.txn",
};

/// A `DataSource` that records a span around every call crossing it, using
/// only the public `DataSource`/`Session`/`Command`/`Rowset` traits.
pub struct TimedDataSource {
    inner: Arc<dyn DataSource>,
    rec: Arc<Recorder>,
    side: Side,
}

impl TimedDataSource {
    pub fn new(inner: Arc<dyn DataSource>, rec: Arc<Recorder>, side: Side) -> Self {
        TimedDataSource { inner, rec, side }
    }
}

impl DataSource for TimedDataSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capabilities(&self) -> ProviderCapabilities {
        self.inner.capabilities()
    }

    fn tables(&self) -> Result<Vec<TableInfo>> {
        let _s = self.rec.enter(self.side.meta);
        self.inner.tables()
    }

    fn create_session(&self) -> Result<Box<dyn Session>> {
        let _s = self.rec.enter(self.side.session);
        Ok(Box::new(TimedSession {
            inner: self.inner.create_session()?,
            rec: Arc::clone(&self.rec),
            side: self.side,
        }))
    }

    fn traffic(&self) -> Option<TrafficSnapshot> {
        self.inner.traffic()
    }

    fn latency(&self) -> Option<LatencySummary> {
        self.inner.latency()
    }

    fn table(&self, name: &str) -> Result<TableInfo> {
        let _s = self.rec.enter(self.side.meta);
        self.inner.table(name)
    }
}

struct TimedSession {
    inner: Box<dyn Session>,
    rec: Arc<Recorder>,
    side: Side,
}

impl TimedSession {
    fn rowset(&self, inner: Box<dyn Rowset>) -> Box<dyn Rowset> {
        Box::new(TimedRowset::new(
            inner,
            Arc::clone(&self.rec),
            self.side.pull,
        ))
    }
}

impl Session for TimedSession {
    fn open_rowset(&mut self, table: &str) -> Result<Box<dyn Rowset>> {
        let _s = self.rec.enter(self.side.open);
        let inner = self.inner.open_rowset(table)?;
        Ok(self.rowset(inner))
    }

    fn create_command(&mut self) -> Result<Box<dyn Command>> {
        Ok(Box::new(TimedCommand {
            inner: self.inner.create_command()?,
            rec: Arc::clone(&self.rec),
            side: self.side,
        }))
    }

    fn open_index(
        &mut self,
        table: &str,
        index: &str,
        range: &KeyRange,
    ) -> Result<Box<dyn Rowset>> {
        let _s = self.rec.enter(self.side.open);
        let inner = self.inner.open_index(table, index, range)?;
        Ok(self.rowset(inner))
    }

    fn fetch_by_bookmarks(&mut self, table: &str, bookmarks: &[u64]) -> Result<Vec<Row>> {
        let _s = self.rec.enter(self.side.fetch);
        self.inner.fetch_by_bookmarks(table, bookmarks)
    }

    fn histogram(&mut self, table: &str, column: &str) -> Result<Option<Histogram>> {
        let _s = self.rec.enter(self.side.meta);
        self.inner.histogram(table, column)
    }

    fn join_transaction(&mut self, txn: TxnId) -> Result<()> {
        let _s = self.rec.enter(self.side.txn);
        self.inner.join_transaction(txn)
    }

    fn prepare(&mut self, txn: TxnId) -> Result<()> {
        let _s = self.rec.enter(self.side.txn);
        self.inner.prepare(txn)
    }

    fn commit(&mut self, txn: TxnId) -> Result<()> {
        let _s = self.rec.enter(self.side.txn);
        self.inner.commit(txn)
    }

    fn abort(&mut self, txn: TxnId) -> Result<()> {
        let _s = self.rec.enter(self.side.txn);
        self.inner.abort(txn)
    }

    fn insert(&mut self, table: &str, rows: &[Row]) -> Result<u64> {
        let _s = self.rec.enter(self.side.write);
        self.inner.insert(table, rows)
    }

    fn delete_by_bookmarks(&mut self, table: &str, bookmarks: &[u64]) -> Result<u64> {
        let _s = self.rec.enter(self.side.write);
        self.inner.delete_by_bookmarks(table, bookmarks)
    }

    fn update_by_bookmarks(
        &mut self,
        table: &str,
        bookmarks: &[u64],
        updates: &[Row],
    ) -> Result<u64> {
        let _s = self.rec.enter(self.side.write);
        self.inner.update_by_bookmarks(table, bookmarks, updates)
    }
}

struct TimedCommand {
    inner: Box<dyn Command>,
    rec: Arc<Recorder>,
    side: Side,
}

impl Command for TimedCommand {
    fn set_text(&mut self, text: &str) -> Result<()> {
        self.inner.set_text(text)
    }

    fn bind_parameter(&mut self, ordinal: usize, value: Value) -> Result<()> {
        self.inner.bind_parameter(ordinal, value)
    }

    fn execute(&mut self) -> Result<CommandResult> {
        let _s = self.rec.enter(self.side.execute);
        Ok(match self.inner.execute()? {
            CommandResult::Rowset(inner) => CommandResult::Rowset(Box::new(TimedRowset::new(
                inner,
                Arc::clone(&self.rec),
                self.side.pull,
            ))),
            count => count,
        })
    }
}

/// Row-at-a-time pulls are timed one call in this many: joins and DML pull
/// whole member tables through `next()`, and two clock reads per row on
/// both sides of the link would cost more than the rows do.
pub const PULL_SAMPLE: u32 = 16;

struct TimedRowset {
    inner: Box<dyn Rowset>,
    rec: Arc<Recorder>,
    name: &'static str,
    /// `next()` calls so far. The wrappers on the two sides of a link see
    /// the same call sequence, so they sample the same calls and the
    /// sampled spans nest.
    pulls: u32,
}

impl TimedRowset {
    fn new(inner: Box<dyn Rowset>, rec: Arc<Recorder>, name: &'static str) -> Self {
        TimedRowset {
            inner,
            rec,
            name,
            pulls: 0,
        }
    }
}

impl Rowset for TimedRowset {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next(&mut self) -> Result<Option<Row>> {
        let ordinal = self.pulls;
        self.pulls = self.pulls.wrapping_add(1);
        // The first call often does the real fetch: timed, weight 1. After
        // it, the middle call of every PULL_SAMPLE stands for all of them.
        let _s = if ordinal == 0 {
            self.rec.enter(self.name)
        } else if ordinal % PULL_SAMPLE == PULL_SAMPLE / 2 {
            self.rec.enter_weighted(self.name, PULL_SAMPLE)
        } else {
            return self.inner.next();
        };
        self.inner.next()
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        let _s = self.rec.enter(self.name);
        self.inner.next_batch(max)
    }

    fn size_hint(&self) -> Option<usize> {
        self.inner.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start_ns, end_ns, name| Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            stmt: 0,
            tid: 1,
            weight: 1,
        };
        // Two children overlapping on [20, 30]: union covers 10..40 = 30.
        let spans = [
            span(1, 0, 0, 100, "root"),
            span(2, 1, 10, 30, "child"),
            span(3, 1, 20, 40, "child"),
        ];
        let t = totals(&spans);
        assert_eq!(t["root"].self_ns, 70);
        assert_eq!(t["child"].total_ns, 40);
        assert_eq!(t["child"].self_ns, 40);
    }

    #[test]
    fn a_sampled_child_stands_for_its_weight() {
        let span = |id, parent, start_ns, end_ns, name, weight| Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            stmt: 0,
            tid: 1,
            weight,
        };
        // One sampled pull of 5 ns stands for 16 of them inside the parent;
        // its own nested child (same weight) covers 2 of its 5 ns.
        let spans = [
            span(1, 0, 0, 200, "root", 1),
            span(2, 1, 10, 15, "outer", 16),
            span(3, 2, 11, 13, "inner", 16),
        ];
        let t = totals(&spans);
        assert_eq!(t["root"].self_ns, 200 - 80);
        assert_eq!(t["outer"].total_ns, 80);
        assert_eq!(t["outer"].self_ns, 48);
        assert_eq!(t["inner"].count, 16);
    }

    #[test]
    fn nesting_follows_the_thread_stack() {
        let rec = Recorder::new();
        {
            let _root = rec.statement(7, "root");
            let _stage = rec.enter("stage");
            let _leaf = rec.enter("leaf");
        }
        let spans = rec.take();
        let by_name = |n: &str| *spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("root").parent, 0);
        assert_eq!(by_name("stage").parent, by_name("root").id);
        assert_eq!(by_name("leaf").parent, by_name("stage").id);
        assert!(spans.iter().all(|s| s.stmt == 7));
    }
}
