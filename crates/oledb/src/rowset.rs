//! The rowset — OLE DB's unifying tabular abstraction (paper §3.1.2).
//!
//! "Base table providers present their data in the form of rowsets. Query
//! processors present the result of queries in the form of rowsets." Every
//! executor operator both consumes and produces this trait, so components
//! layer freely regardless of where the rows came from.
//!
//! The trait has two cursoring styles over one stream:
//!
//! * [`Rowset::next`] — the classic row-at-a-time pull.
//! * [`Rowset::next_batch`] — the vectorized pull: up to `max` rows per
//!   call as a [`RowBatch`]. The provided implementation coalesces `next`
//!   calls, so every existing rowset already speaks the batch protocol;
//!   hot-path operators override it to hand whole chunks through.

use dhqp_types::{Result, Row, RowBatch, Schema};

/// A pull-based stream of rows with a fixed schema.
pub trait Rowset: Send {
    /// The shape of every row this rowset yields.
    fn schema(&self) -> &Schema;

    /// Fetch the next row, `None` at end of stream. Errors are sticky: after
    /// an error the rowset is in an unspecified state.
    fn next(&mut self) -> Result<Option<Row>>;

    /// Fetch up to `max` rows as one batch; `None` at end of stream, never
    /// `Some` of an empty batch. The default coalesces [`Rowset::next`]
    /// calls (the compatibility shim); batch-native rowsets override it to
    /// move whole chunks — one channel send, one simulated round trip —
    /// per call.
    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        let max = max.max(1);
        let mut batch = RowBatch::with_capacity(max);
        while batch.len() < max {
            match self.next()? {
                Some(row) => batch.push(row),
                None => break,
            }
        }
        if batch.is_empty() {
            Ok(None)
        } else {
            Ok(Some(batch))
        }
    }

    /// Remaining row count, when the rowset knows it exactly (materialized
    /// rowsets do). `None` means unknown; used to pre-size collections.
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// Extension helpers available on every rowset.
pub trait RowsetExt: Rowset {
    /// Drain the rowset into a vector, pre-sized from
    /// [`Rowset::size_hint`] when the remaining count is known.
    fn collect_rows(&mut self) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(self.size_hint().unwrap_or(0));
        while let Some(r) = self.next()? {
            out.push(r);
        }
        Ok(out)
    }

    /// Drain the rowset through the batch protocol, pulling `chunk` rows
    /// per call — the vectorized drain the engine uses when batching is on.
    fn collect_rows_batched(&mut self, chunk: usize) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(self.size_hint().unwrap_or(0));
        while let Some(batch) = self.next_batch(chunk)? {
            out.extend(batch);
        }
        Ok(out)
    }

    /// Count remaining rows. Uses the batch path so counting a batch-native
    /// rowset moves chunks, not one row per call.
    fn count_rows(&mut self) -> Result<u64> {
        let mut n = 0u64;
        while let Some(batch) = self.next_batch(COUNT_CHUNK)? {
            n += batch.len() as u64;
        }
        Ok(n)
    }
}

/// Batch granularity used by [`RowsetExt::count_rows`].
const COUNT_CHUNK: usize = 1024;

impl<T: Rowset + ?Sized> RowsetExt for T {}

impl Rowset for Box<dyn Rowset> {
    fn schema(&self) -> &Schema {
        self.as_ref().schema()
    }

    fn next(&mut self) -> Result<Option<Row>> {
        self.as_mut().next()
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        self.as_mut().next_batch(max)
    }

    fn size_hint(&self) -> Option<usize> {
        self.as_ref().size_hint()
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

    fn next(&mut self) -> Result<Option<Row>> {
        Ok(self.rows.next())
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

    fn rs() -> MemRowset {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let rows = (0..5).map(|i| Row::new(vec![Value::Int(i)])).collect();
        MemRowset::new(schema, rows)
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
    fn default_next_batch_coalesces_next_calls() {
        // A rowset with no override still speaks the batch protocol.
        struct OneByOne(std::vec::IntoIter<Row>, Schema);
        impl Rowset for OneByOne {
            fn schema(&self) -> &Schema {
                &self.1
            }
            fn next(&mut self) -> Result<Option<Row>> {
                Ok(self.0.next())
            }
        }
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let rows: Vec<Row> = (0..5).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let mut r = OneByOne(rows.into_iter(), schema);
        assert_eq!(r.next_batch(3).unwrap().unwrap().len(), 3);
        assert_eq!(r.next_batch(3).unwrap().unwrap().len(), 2);
        assert!(r.next_batch(3).unwrap().is_none());
        assert_eq!(r.size_hint(), None);
    }

    #[test]
    fn count_rows_uses_batch_path() {
        // MemRowset's native batches move chunks; the count must still be
        // exact across partial final batches.
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let rows = (0..2500).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let mut r = MemRowset::new(schema, rows);
        assert_eq!(r.count_rows().unwrap(), 2500);
    }
}
