//! Heap files: unordered row storage addressed by bookmark.
//!
//! A bookmark is a stable slot number — the storage-level identity OLE DB's
//! `IRowsetLocate` exposes and the *remote fetch* access path uses to pull
//! base rows located through an index.
//!
//! Every slot holds exactly `arity` values, so the heap is one array: the
//! row at bookmark `b` is `values[b * arity..(b + 1) * arity]`, and a row
//! costs no allocation of its own (DESIGN.md §24).

use dhqp_types::{DhqpError, Result, Value};

/// An unordered collection of rows in stable slots.
#[derive(Debug, Clone)]
pub struct Heap {
    arity: usize,
    /// Every slot's values, slot after slot; a deleted slot's are NULL.
    values: Vec<Value>,
    /// Whether each slot holds a row; its length is the slot count.
    live_slots: Vec<bool>,
    live: usize,
}

impl Heap {
    /// An empty heap whose rows have `arity` values.
    pub fn new(arity: usize) -> Self {
        Heap {
            arity,
            values: Vec::new(),
            live_slots: Vec::new(),
            live: 0,
        }
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Room for `rows` more rows without growing the array.
    pub fn reserve(&mut self, rows: usize) {
        self.values.reserve(rows.saturating_mul(self.arity));
        self.live_slots.reserve(rows);
    }

    /// Append a row, returning its bookmark. Slots are never reused, so
    /// bookmarks stay unique for the heap's lifetime (deleted bookmarks
    /// dangle rather than aliasing new rows). A row of another arity is
    /// refused: it would spill into the next slot.
    pub fn insert(&mut self, values: &[Value]) -> Result<u64> {
        if values.len() != self.arity {
            return Err(self.arity_mismatch(values.len()));
        }
        self.values.extend_from_slice(values);
        let bookmark = self.live_slots.len() as u64;
        self.live_slots.push(true);
        self.live += 1;
        Ok(bookmark)
    }

    /// Fetch by bookmark.
    pub fn get(&self, bookmark: u64) -> Option<&[Value]> {
        self.slot(bookmark).ok()
    }

    /// The live row at `bookmark`, or why there is none.
    pub fn slot(&self, bookmark: u64) -> Result<&[Value]> {
        let at = self.live_index(bookmark)?;
        Ok(&self.values[at * self.arity..(at + 1) * self.arity])
    }

    /// Delete by bookmark; returns the removed values. The slot's values
    /// become NULL, so what they owned is freed.
    pub fn delete(&mut self, bookmark: u64) -> Result<Vec<Value>> {
        let at = self.live_index(bookmark)?;
        self.live_slots[at] = false;
        self.live -= 1;
        Ok(self
            .values_mut(at)
            .iter_mut()
            .map(|v| std::mem::replace(v, Value::Null))
            .collect())
    }

    /// Replace the row at `bookmark`, returning the old values.
    pub fn update(&mut self, bookmark: u64, values: &[Value]) -> Result<Vec<Value>> {
        let at = self.live_index(bookmark)?;
        if values.len() != self.arity {
            return Err(self.arity_mismatch(values.len()));
        }
        Ok(self
            .values_mut(at)
            .iter_mut()
            .zip(values)
            .map(|(slot, new)| std::mem::replace(slot, new.clone()))
            .collect())
    }

    /// Iterate live rows with their bookmarks, in slot order.
    pub fn scan(&self) -> impl Iterator<Item = (u64, &[Value])> + '_ {
        let arity = self.arity;
        self.live_slots
            .iter()
            .enumerate()
            .filter(|(_, live)| **live)
            .map(move |(at, _)| (at as u64, &self.values[at * arity..(at + 1) * arity]))
    }

    fn live_index(&self, bookmark: u64) -> Result<usize> {
        let at = usize::try_from(bookmark)
            .ok()
            .filter(|&at| at < self.live_slots.len())
            .ok_or_else(|| DhqpError::Execute(format!("invalid bookmark {bookmark}")))?;
        if !self.live_slots[at] {
            return Err(DhqpError::Execute(format!(
                "bookmark {bookmark} already deleted"
            )));
        }
        Ok(at)
    }

    fn values_mut(&mut self, at: usize) -> &mut [Value] {
        &mut self.values[at * self.arity..(at + 1) * self.arity]
    }

    fn arity_mismatch(&self, given: usize) -> DhqpError {
        DhqpError::Execute(format!(
            "row arity {given} does not match heap arity {}",
            self.arity
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: i64) -> [Value; 1] {
        [Value::Int(i)]
    }

    #[test]
    fn insert_assigns_increasing_bookmarks() {
        let mut h = Heap::new(1);
        assert_eq!(h.insert(&row(1)).unwrap(), 0);
        assert_eq!(h.insert(&row(2)).unwrap(), 1);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn delete_frees_slot_without_reuse() {
        let mut h = Heap::new(1);
        let b = h.insert(&row(1)).unwrap();
        h.delete(b).unwrap();
        assert!(h.get(b).is_none());
        assert_eq!(h.len(), 0);
        // New insert gets a fresh bookmark, never the deleted one.
        assert_eq!(h.insert(&row(2)).unwrap(), 1);
        assert!(h.delete(b).is_err(), "double delete must fail");
    }

    #[test]
    fn update_replaces_in_place() {
        let mut h = Heap::new(1);
        let b = h.insert(&row(1)).unwrap();
        let old = h.update(b, &row(9)).unwrap();
        assert_eq!(old, row(1));
        assert_eq!(h.get(b).unwrap(), &row(9));
    }

    #[test]
    fn scan_skips_deleted() {
        let mut h = Heap::new(1);
        let a = h.insert(&row(1)).unwrap();
        h.insert(&row(2)).unwrap();
        h.delete(a).unwrap();
        let rows: Vec<_> = h.scan().collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, 1);
    }

    #[test]
    fn invalid_bookmark_errors() {
        let mut h = Heap::new(1);
        assert!(h.delete(42).is_err());
        assert!(h.update(42, &row(0)).is_err());
        assert!(h.get(42).is_none());
    }

    #[test]
    fn a_row_of_another_arity_is_refused_and_leaves_the_heap_as_it_was() {
        let mut h = Heap::new(2);
        let b = h.insert(&[Value::Int(1), Value::Int(2)]).unwrap();
        for wrong in [vec![], vec![Value::Int(7)], vec![Value::Null; 3]] {
            let err = h.insert(&wrong).unwrap_err().to_string();
            assert!(err.contains("does not match heap arity 2"), "{err}");
            assert!(h.update(b, &wrong).is_err());
        }
        assert_eq!(h.len(), 1);
        assert_eq!(
            h.scan().collect::<Vec<_>>(),
            [(0, &[Value::Int(1), Value::Int(2)][..])]
        );
        assert_eq!(h.insert(&[Value::Int(3), Value::Int(4)]).unwrap(), 1);
    }

    fn value() -> impl proptest::Strategy<Value = Value> {
        use proptest::prelude::*;
        prop_oneof![
            Just(Value::Null),
            any::<i64>().prop_map(Value::Int),
            "[a-z]{0,12}".prop_map(Value::Str),
        ]
    }

    /// The error the model expects for a bookmark it holds no row at.
    fn missing(model: &[Option<Vec<Value>>], bookmark: u64) -> String {
        let why = match model.get(bookmark as usize) {
            None => format!("invalid bookmark {bookmark}"),
            Some(_) => format!("bookmark {bookmark} already deleted"),
        };
        DhqpError::Execute(why).to_string()
    }

    proptest::proptest! {
        /// Against one `Option<Vec<Value>>` per slot: the same rows, the
        /// same bookmarks (never one twice), scans in slot order, the same
        /// errors for a bookmark past the heap and one already deleted.
        /// Each op is `(kind, bookmark, values)`; a row is the first
        /// `arity` values, and bookmarks run a little past the slots made.
        #[test]
        fn heap_agrees_with_a_slot_per_row_model(
            arity in 0usize..5,
            ops in proptest::collection::vec(
                (0u8..9, 0u64..24, proptest::collection::vec(value(), 4..5)), 0..40),
        ) {
            use proptest::prop_assert_eq;
            let mut heap = Heap::new(arity);
            let mut model: Vec<Option<Vec<Value>>> = Vec::new();
            for (kind, b, mut row) in ops {
                row.truncate(arity);
                match kind {
                    0..=2 => {
                        let bookmark = heap.insert(&row).unwrap();
                        // Never a bookmark handed out before.
                        prop_assert_eq!(bookmark, model.len() as u64);
                        model.push(Some(row));
                    }
                    3 | 4 => {
                        let want = match model.get_mut(b as usize).and_then(Option::take) {
                            Some(old) => Ok(old),
                            None => Err(missing(&model, b)),
                        };
                        prop_assert_eq!(heap.delete(b).map_err(|e| e.to_string()), want);
                    }
                    5 | 6 => {
                        let want = match model.get_mut(b as usize) {
                            Some(Some(old)) => Ok(std::mem::replace(old, row.clone())),
                            _ => Err(missing(&model, b)),
                        };
                        prop_assert_eq!(heap.update(b, &row).map_err(|e| e.to_string()), want);
                    }
                    7 => {
                        let want = model.get(b as usize).and_then(|s| s.as_deref());
                        prop_assert_eq!(heap.get(b), want);
                        prop_assert_eq!(
                            heap.slot(b).map_err(|e| e.to_string()),
                            want.ok_or_else(|| missing(&model, b))
                        );
                    }
                    _ => {
                        let want: Vec<(u64, &[Value])> = model
                            .iter()
                            .enumerate()
                            .filter_map(|(b, s)| Some((b as u64, s.as_deref()?)))
                            .collect();
                        prop_assert_eq!(heap.scan().collect::<Vec<_>>(), want);
                    }
                }
                prop_assert_eq!(heap.len(), model.iter().flatten().count());
            }
        }
    }
}
