//! The rowset — OLE DB's unifying tabular abstraction (paper §3.1.2).
//!
//! "Base table providers present their data in the form of rowsets. Query
//! processors present the result of queries in the form of rowsets." Every
//! executor operator both consumes and produces this trait, so components
//! layer freely regardless of where the rows came from.
//!
//! One protocol, block-oriented like `IRowset::GetNextRows`:
//!
//! * [`Rowset::next_batch`] is the cursor every rowset implements: up to
//!   `max` rows per call. `max` is the caller's demand, and a rowset that
//!   passes rows through asks its own child for no more than that.
//! * [`Rowset::next`] is `next_batch(1)`; no implementor writes it.
//! * A consumer that wants its input row by row puts a [`RowCursor`] over
//!   it, the one replay buffer; [`RowsetExt::collect_rows_batched`] is the
//!   one drain.
//! * A source that produces rows one at a time — a third-party provider,
//!   a test double — is an iterator behind [`IterRowset`].

use dhqp_types::{DhqpError, Result, Row, RowBatch, Schema};

/// A pull-based stream of rows with a fixed schema.
pub trait Rowset: Send {
    /// The shape of every row this rowset yields.
    fn schema(&self) -> &Schema;

    /// Fetch up to `max` rows (a `max` of 0 asks for 1); `None` at end of
    /// stream, and on every call after it; never `Some` of an empty batch.
    /// One call is one channel send and, over a link, one simulated round
    /// trip. After an error the rowset is in an unspecified state.
    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>>;

    /// Fetch the next row: a batch of one.
    fn next(&mut self) -> Result<Option<Row>> {
        Ok(self.next_batch(1)?.and_then(|b| b.into_iter().next()))
    }

    /// Remaining row count, when the rowset knows it exactly (materialized
    /// rowsets do). `None` means unknown; used to pre-size collections.
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// Chunk for drains that run outside a statement and so have no configured
/// batch size to pull with (tests, a provider reading its own rowset).
const DRAIN_CHUNK: usize = 1024;

/// Extension helpers available on every rowset.
pub trait RowsetExt: Rowset {
    /// Drain the rowset into a vector, pulling `chunk` rows per call and
    /// pre-sized from [`Rowset::size_hint`] when the remaining count is
    /// known. Inside a statement `chunk` is the configured pull size.
    fn collect_rows_batched(&mut self, chunk: usize) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(self.size_hint().unwrap_or(0));
        while let Some(batch) = self.next_batch(chunk)? {
            out.extend(batch);
        }
        Ok(out)
    }

    /// [`RowsetExt::collect_rows_batched`] at a default chunk.
    fn collect_rows(&mut self) -> Result<Vec<Row>> {
        self.collect_rows_batched(DRAIN_CHUNK)
    }

    /// Count remaining rows by draining them.
    fn count_rows(&mut self) -> Result<u64> {
        Ok(self.collect_rows()?.len() as u64)
    }
}

impl<T: Rowset + ?Sized> RowsetExt for T {}

impl Rowset for Box<dyn Rowset> {
    fn schema(&self) -> &Schema {
        self.as_ref().schema()
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        self.as_mut().next_batch(max)
    }

    fn size_hint(&self) -> Option<usize> {
        self.as_ref().size_hint()
    }
}

/// The consumer side of the protocol for an operator that handles its input
/// a row at a time, or hands it on in smaller pieces than it arrived in:
/// rows are pulled from `child` a batch at a time and replayed from
/// `buffered`. How many rows a refill asks for is the consumer's demand —
/// the configured pull size when it will read the whole input, its own
/// caller's `max` when it passes rows through ([`RowCursor::demand`]).
pub struct RowCursor<C: Rowset = Box<dyn Rowset>> {
    child: C,
    buffered: std::vec::IntoIter<Row>,
    pull: usize,
}

impl<C: Rowset> RowCursor<C> {
    pub fn new(child: C, pull: usize) -> Self {
        RowCursor {
            child,
            buffered: Vec::new().into_iter(),
            pull: pull.max(1),
        }
    }

    pub fn schema(&self) -> &Schema {
        self.child.schema()
    }

    pub fn child_mut(&mut self) -> &mut C {
        &mut self.child
    }

    /// Ask the child for `pull` rows per refill from now on.
    pub fn demand(&mut self, pull: usize) {
        self.pull = pull.max(1);
    }

    /// The next row, refilling the buffer with one pull when it runs dry.
    pub fn next_row(&mut self) -> Result<Option<Row>> {
        if self.buffered.len() == 0 {
            match self.child.next_batch(self.pull)? {
                Some(batch) => self.buffered = batch.into_rows().into_iter(),
                None => return Ok(None),
            }
        }
        Ok(self.buffered.next())
    }

    /// Up to `max` rows: what is buffered first, so mixed cursoring never
    /// reorders rows; otherwise one pull, handed on whole when it fits and
    /// buffered for the following calls when it does not.
    pub fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        let max = max.max(1);
        if self.buffered.len() == 0 {
            match self.child.next_batch(self.pull)? {
                Some(batch) if batch.len() <= max => return Ok(Some(batch)),
                Some(batch) => self.buffered = batch.into_rows().into_iter(),
                None => return Ok(None),
            }
        }
        Ok(Some(self.buffered.by_ref().take(max).collect()))
    }
}

/// Adapter for a source that produces rows one at a time: any
/// `Iterator<Item = Result<Row>>` is a rowset. A batch ends early at an
/// error, so the rows before a fault are delivered and the call after them
/// fails.
pub struct IterRowset<I> {
    schema: Schema,
    rows: std::iter::Fuse<I>,
    failed: Option<DhqpError>,
}

impl<I: Iterator<Item = Result<Row>>> IterRowset<I> {
    pub fn new(schema: Schema, rows: I) -> Self {
        IterRowset {
            schema,
            rows: rows.fuse(),
            failed: None,
        }
    }
}

impl<I: Iterator<Item = Result<Row>> + Send> Rowset for IterRowset<I> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        let mut batch = RowBatch::default();
        while batch.len() < max.max(1) {
            match self.rows.next() {
                Some(Ok(row)) => batch.push(row),
                Some(Err(e)) if batch.is_empty() => return Err(e),
                Some(Err(e)) => {
                    self.failed = Some(e);
                    break;
                }
                None => break,
            }
        }
        Ok((!batch.is_empty()).then_some(batch))
    }
}

/// A fully materialized in-memory rowset; the workhorse for providers that
/// compute results eagerly (schema rowsets, full-text results, spools).
pub struct MemRowset {
    schema: Schema,
    rows: std::vec::IntoIter<Row>,
}

impl MemRowset {
    pub fn new(schema: Schema, rows: Vec<Row>) -> Self {
        MemRowset {
            schema,
            rows: rows.into_iter(),
        }
    }

    pub fn empty(schema: Schema) -> Self {
        MemRowset::new(schema, Vec::new())
    }

    /// Rows remaining to be delivered.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.len() == 0
    }
}

impl Rowset for MemRowset {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        let take = max.max(1).min(self.rows.len());
        if take == 0 {
            return Ok(None);
        }
        Ok(Some(self.rows.by_ref().take(take).collect()))
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhqp_types::{Column, DataType, Value};

    fn schema() -> Schema {
        Schema::new(vec![Column::new("x", DataType::Int)])
    }

    fn ints(n: i64) -> Vec<Row> {
        (0..n).map(|i| Row::new(vec![Value::Int(i)])).collect()
    }

    fn rs() -> MemRowset {
        MemRowset::new(schema(), ints(5))
    }

    #[test]
    fn collect_drains_all_rows() {
        let mut r = rs();
        assert_eq!(r.collect_rows().unwrap().len(), 5);
        assert!(r.next().unwrap().is_none());
    }

    #[test]
    fn count_rows() {
        assert_eq!(rs().count_rows().unwrap(), 5);
    }

    #[test]
    fn boxed_rowset_delegates() {
        let mut b: Box<dyn Rowset> = Box::new(rs());
        assert_eq!(b.schema().len(), 1);
        assert_eq!(b.size_hint(), Some(5));
        assert_eq!(b.collect_rows().unwrap().len(), 5);
    }

    #[test]
    fn mem_rowset_len_tracks_remaining() {
        let mut r = rs();
        assert_eq!(r.len(), 5);
        assert!(!r.is_empty());
        r.next().unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(r.size_hint(), Some(4));
    }

    #[test]
    fn next_batch_chunks_and_terminates() {
        let mut r = rs();
        let b = r.next_batch(2).unwrap().unwrap();
        assert_eq!(b.len(), 2);
        let b = r.next_batch(100).unwrap().unwrap();
        assert_eq!(b.len(), 3); // partial final batch
        assert!(r.next_batch(2).unwrap().is_none());
    }

    #[test]
    fn iter_rowset_batches_a_row_source_and_delivers_rows_before_an_error() {
        // A source that only knows how to produce the next row.
        let mut r = IterRowset::new(schema(), ints(5).into_iter().map(Ok));
        assert_eq!(r.next_batch(3).unwrap().unwrap().len(), 3);
        assert_eq!(r.next_batch(3).unwrap().unwrap().len(), 2);
        assert!(r.next_batch(3).unwrap().is_none());
        assert!(r.next().unwrap().is_none());
        assert_eq!(r.size_hint(), None);

        // An error mid-batch ends the batch; the next call reports it.
        let faulty = ints(2)
            .into_iter()
            .map(Ok)
            .chain([Err(DhqpError::Provider("link reset".into()))])
            .chain(ints(1).into_iter().map(Ok));
        let mut r = IterRowset::new(schema(), faulty);
        assert_eq!(r.next_batch(8).unwrap().unwrap().len(), 2);
        assert!(matches!(r.next_batch(8), Err(DhqpError::Provider(_))));
    }

    #[test]
    fn row_cursor_replays_a_pull_in_order_whatever_the_caller_asks_for() {
        let mut c = RowCursor::new(rs(), 4);
        // One pull of 4 is handed on as a row, a batch of 2, and the rest.
        assert_eq!(c.next_row().unwrap().unwrap().get(0), &Value::Int(0));
        assert_eq!(c.next_batch(2).unwrap().unwrap().len(), 2);
        assert_eq!(c.next_batch(9).unwrap().unwrap().len(), 1);
        // The buffer is dry: the next pull fits the caller and passes whole.
        c.demand(9);
        let last = c.next_batch(9).unwrap().unwrap();
        assert_eq!(last.rows()[0].get(0), &Value::Int(4));
        assert!(c.next_row().unwrap().is_none());
        assert!(c.next_batch(1).unwrap().is_none());
    }

    #[test]
    fn count_rows_uses_batch_path() {
        // The count must be exact across partial final batches.
        let mut r = MemRowset::new(schema(), ints(2500));
        assert_eq!(r.count_rows().unwrap(), 2500);
    }
}
