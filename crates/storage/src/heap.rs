//! Heap files: unordered row storage addressed by bookmark.
//!
//! A bookmark is a stable slot number — the storage-level identity OLE DB's
//! `IRowsetLocate` exposes, and what an index range returns with each row
//! so that a write can address it.
//!
//! A heap keeps one array per column at the column's declared type, with a
//! NULL bit per slot beside it: the value of column `c` at bookmark `b` is
//! `columns[c]`'s `b`-th entry, and an INT costs 8 B rather than a 24-B
//! `Value` (DESIGN.md §24). Rows cross the storage boundary as `Value`s,
//! built when they are read; a one-column reader and an index reading its
//! keys take one value at a time in place, as a [`Cell`].

use dhqp_types::{Cell, DataType, DhqpError, Result, Value};

/// An unordered collection of rows in stable slots.
#[derive(Debug, Clone)]
pub struct Heap {
    columns: Vec<Column>,
    /// Whether each slot holds a row; its length is the slot count.
    live_slots: Vec<bool>,
    live: usize,
}

/// One column's values, one per slot, at the column's declared type. A
/// NULL slot's entry is not read; a string there is empty, so it owns no
/// allocation.
#[derive(Debug, Clone)]
enum Values {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<Box<str>>),
    Date(Vec<i32>),
}

#[derive(Debug, Clone)]
struct Column {
    values: Values,
    /// One bit per slot, set where the slot holds NULL.
    nulls: Vec<u64>,
}

impl Column {
    fn new(data_type: DataType) -> Self {
        let values = match data_type {
            DataType::Bool => Values::Bool(Vec::new()),
            DataType::Int => Values::Int(Vec::new()),
            DataType::Float => Values::Float(Vec::new()),
            DataType::Str => Values::Str(Vec::new()),
            DataType::Date => Values::Date(Vec::new()),
        };
        Column {
            values,
            nulls: Vec::new(),
        }
    }

    fn data_type(&self) -> DataType {
        match self.values {
            Values::Bool(_) => DataType::Bool,
            Values::Int(_) => DataType::Int,
            Values::Float(_) => DataType::Float,
            Values::Str(_) => DataType::Str,
            Values::Date(_) => DataType::Date,
        }
    }

    fn reserve(&mut self, rows: usize) {
        match &mut self.values {
            Values::Bool(v) => v.reserve(rows),
            Values::Int(v) => v.reserve(rows),
            Values::Float(v) => v.reserve(rows),
            Values::Str(v) => v.reserve(rows),
            Values::Date(v) => v.reserve(rows),
        }
    }

    /// Append slot `at`, which is the column's length, holding `value`.
    fn push(&mut self, at: usize, value: &Value) {
        if at.is_multiple_of(64) {
            self.nulls.push(0);
        }
        match &mut self.values {
            Values::Bool(v) => v.push(false),
            Values::Int(v) => v.push(0),
            Values::Float(v) => v.push(0.0),
            Values::Str(v) => v.push(Box::default()),
            Values::Date(v) => v.push(0),
        }
        self.set(at, value);
    }

    /// Store `value` at slot `at`; the heap has checked its type. NULL sets
    /// the slot's bit and empties a string, freeing it.
    fn set(&mut self, at: usize, value: &Value) {
        match (&mut self.values, value) {
            (Values::Bool(v), Value::Bool(b)) => v[at] = *b,
            (Values::Int(v), Value::Int(i)) => v[at] = *i,
            (Values::Float(v), Value::Float(f)) => v[at] = *f,
            (Values::Str(v), Value::Str(s)) => v[at] = s.as_str().into(),
            (Values::Str(v), _) => v[at] = Box::default(),
            (Values::Date(v), Value::Date(d)) => v[at] = *d,
            _ => {}
        }
        let bit = 1 << (at % 64);
        if value.is_null() {
            self.nulls[at / 64] |= bit;
        } else {
            self.nulls[at / 64] &= !bit;
        }
    }

    /// Move the value out of slot `at`, leaving NULL; a string moves rather
    /// than being copied.
    fn take(&mut self, at: usize) -> Value {
        if self.is_null(at) {
            return Value::Null;
        }
        let old = match &mut self.values {
            Values::Str(v) => Value::Str(std::mem::take(&mut v[at]).into()),
            _ => self.cell(at).to_value(),
        };
        self.set(at, &Value::Null);
        old
    }

    fn is_null(&self, at: usize) -> bool {
        self.nulls[at / 64] & (1 << (at % 64)) != 0
    }

    fn cell(&self, at: usize) -> Cell<'_> {
        if self.is_null(at) {
            return Cell::Null;
        }
        match &self.values {
            Values::Bool(v) => Cell::Bool(v[at]),
            Values::Int(v) => Cell::Int(v[at]),
            Values::Float(v) => Cell::Float(v[at]),
            Values::Str(v) => Cell::Str(&v[at]),
            Values::Date(v) => Cell::Date(v[at]),
        }
    }
}

impl Heap {
    /// An empty heap whose rows hold one value of each of `types`.
    pub fn new(types: impl IntoIterator<Item = DataType>) -> Self {
        Heap {
            columns: types.into_iter().map(Column::new).collect(),
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

    /// Room for `rows` more rows without growing the arrays.
    pub fn reserve(&mut self, rows: usize) {
        for c in &mut self.columns {
            c.reserve(rows);
            c.nulls.reserve(rows.div_ceil(64));
        }
        self.live_slots.reserve(rows);
    }

    /// Append a row, returning its bookmark. Slots are never reused, so
    /// bookmarks stay unique for the heap's lifetime (deleted bookmarks
    /// dangle rather than aliasing new rows). A row of another arity, or
    /// with a non-NULL value of another type than its column's, is refused:
    /// it has no place in the columns.
    pub fn insert(&mut self, values: &[Value]) -> Result<u64> {
        self.check(values)?;
        let at = self.live_slots.len();
        for (c, v) in self.columns.iter_mut().zip(values) {
            c.push(at, v);
        }
        self.live_slots.push(true);
        self.live += 1;
        Ok(at as u64)
    }

    /// Fetch by bookmark.
    pub fn get(&self, bookmark: u64) -> Option<Box<[Value]>> {
        self.slot(bookmark).ok()
    }

    /// The live row at `bookmark`, or why there is none.
    pub fn slot(&self, bookmark: u64) -> Result<Box<[Value]>> {
        let at = self.live_index(bookmark)?;
        Ok(self.row(at))
    }

    /// Delete by bookmark; returns the removed values. The slot's values
    /// become NULL, so what they owned is freed.
    pub fn delete(&mut self, bookmark: u64) -> Result<Box<[Value]>> {
        let at = self.live_index(bookmark)?;
        self.live_slots[at] = false;
        self.live -= 1;
        Ok(self.columns.iter_mut().map(|c| c.take(at)).collect())
    }

    /// Replace the row at `bookmark`. A row the heap refuses on insert is
    /// refused here too, and leaves the slot as it was.
    pub fn update(&mut self, bookmark: u64, values: &[Value]) -> Result<()> {
        let at = self.live_index(bookmark)?;
        self.check(values)?;
        for (c, v) in self.columns.iter_mut().zip(values) {
            c.set(at, v);
        }
        Ok(())
    }

    /// The bookmark the next insert gets.
    pub fn next_bookmark(&self) -> u64 {
        self.live_slots.len() as u64
    }

    /// Iterate live rows with their bookmarks, in slot order.
    pub fn scan(&self) -> impl Iterator<Item = (u64, Box<[Value]>)> + '_ {
        self.live_at().map(|at| (at as u64, self.row(at)))
    }

    /// The value of column `pos` at `bookmark`, read in place. The slot must
    /// exist; a deleted row's values read as NULL.
    #[inline]
    pub fn cell(&self, pos: usize, bookmark: u64) -> Cell<'_> {
        self.columns[pos].cell(bookmark as usize)
    }

    /// One column's values of the live rows, in slot order, read in place.
    pub fn column(&self, pos: usize) -> impl Iterator<Item = Cell<'_>> + '_ {
        let column = &self.columns[pos];
        self.live_at().map(move |at| column.cell(at))
    }

    fn live_at(&self) -> impl Iterator<Item = usize> + '_ {
        self.live_slots
            .iter()
            .enumerate()
            .filter(|(_, live)| **live)
            .map(|(at, _)| at)
    }

    fn row(&self, at: usize) -> Box<[Value]> {
        self.columns.iter().map(|c| c.cell(at).to_value()).collect()
    }

    /// The slot of the live row at `bookmark`, or why there is none.
    pub(crate) fn live_index(&self, bookmark: u64) -> Result<usize> {
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

    /// Whether `values` fit the columns: the heap's arity, and each value
    /// NULL or of its column's type.
    pub(crate) fn check(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.columns.len() {
            return Err(DhqpError::Execute(format!(
                "row arity {} does not match heap arity {}",
                values.len(),
                self.columns.len()
            )));
        }
        for (pos, (c, v)) in self.columns.iter().zip(values).enumerate() {
            if v.data_type().is_some_and(|t| t != c.data_type()) {
                return Err(DhqpError::Type(format!(
                    "a {} value does not fit heap column {pos} of type {}",
                    v.type_name(),
                    c.data_type().sql_name()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: i64) -> Box<[Value]> {
        Box::new([Value::Int(i)])
    }

    fn ints(arity: usize) -> Heap {
        Heap::new(vec![DataType::Int; arity])
    }

    #[test]
    fn insert_assigns_increasing_bookmarks() {
        let mut h = ints(1);
        assert_eq!(h.insert(&row(1)).unwrap(), 0);
        assert_eq!(h.insert(&row(2)).unwrap(), 1);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn delete_frees_slot_without_reuse() {
        let mut h = ints(1);
        let b = h.insert(&row(1)).unwrap();
        assert_eq!(h.delete(b).unwrap(), row(1));
        assert!(h.get(b).is_none());
        assert_eq!(h.len(), 0);
        // New insert gets a fresh bookmark, never the deleted one.
        assert_eq!(h.insert(&row(2)).unwrap(), 1);
        assert!(h.delete(b).is_err(), "double delete must fail");
    }

    #[test]
    fn update_replaces_in_place() {
        let mut h = ints(1);
        let b = h.insert(&row(1)).unwrap();
        h.update(b, &row(9)).unwrap();
        assert_eq!(h.get(b).unwrap(), row(9));
    }

    #[test]
    fn scan_skips_deleted() {
        let mut h = ints(1);
        let a = h.insert(&row(1)).unwrap();
        h.insert(&row(2)).unwrap();
        h.delete(a).unwrap();
        let rows: Vec<_> = h.scan().collect();
        assert_eq!(rows, [(1, row(2))]);
    }

    #[test]
    fn invalid_bookmark_errors() {
        let mut h = ints(1);
        assert!(h.delete(42).is_err());
        assert!(h.update(42, &row(0)).is_err());
        assert!(h.get(42).is_none());
    }

    #[test]
    fn a_row_of_another_arity_is_refused_and_leaves_the_heap_as_it_was() {
        let mut h = ints(2);
        let b = h.insert(&[Value::Int(1), Value::Int(2)]).unwrap();
        for wrong in [vec![], vec![Value::Int(7)], vec![Value::Null; 3]] {
            let err = h.insert(&wrong).unwrap_err().to_string();
            assert!(err.contains("does not match heap arity 2"), "{err}");
            assert!(h.update(b, &wrong).is_err());
        }
        assert_eq!(h.len(), 1);
        assert_eq!(
            h.scan().collect::<Vec<_>>(),
            [(0, [Value::Int(1), Value::Int(2)].into())]
        );
        assert_eq!(h.insert(&[Value::Int(3), Value::Int(4)]).unwrap(), 1);
    }

    #[test]
    fn a_value_of_another_type_is_refused_and_null_fits_every_column() {
        let mut h = Heap::new([DataType::Int, DataType::Str]);
        let b = h.insert(&[Value::Int(1), Value::Str("a".into())]).unwrap();
        let wrong = [Value::Str("1".into()), Value::Str("b".into())];
        let err = h.insert(&wrong).unwrap_err().to_string();
        assert!(
            err.contains("a VARCHAR value does not fit heap column 0 of type BIGINT"),
            "{err}"
        );
        assert!(h.update(b, &wrong).is_err());
        assert_eq!(*h.get(b).unwrap(), [Value::Int(1), Value::Str("a".into())]);
        h.update(b, &[Value::Null, Value::Null]).unwrap();
        assert_eq!(*h.get(b).unwrap(), [Value::Null, Value::Null]);
        assert_eq!(h.column(1).collect::<Vec<_>>(), [Cell::Null]);
    }

    const TYPES: [DataType; 5] = [
        DataType::Bool,
        DataType::Int,
        DataType::Float,
        DataType::Str,
        DataType::Date,
    ];

    /// One drawn value: `(pick, bits, text)`.
    type Draw = (u8, u64, String);

    /// The value a draw gives a column of type `ty`: `pick` 0 is NULL, 1 a
    /// value of another type, anything else one of `ty` — for FLOAT, `-0.0`
    /// and a NaN with sign and payload bits among them.
    fn value_of(ty: DataType, (pick, bits, text): &Draw) -> Value {
        let of = |ty| match ty {
            DataType::Bool => Value::Bool(bits & 1 == 0),
            DataType::Int => Value::Int(*bits as i64),
            DataType::Float => Value::Float(match bits % 4 {
                0 => -0.0,
                1 => f64::from_bits(0xfff8_0000_0000_0000 | (bits >> 2 & 0xffff)),
                _ => f64::from_bits(*bits),
            }),
            DataType::Str => Value::Str(text.clone()),
            DataType::Date => Value::Date(*bits as i32),
        };
        let at = TYPES.iter().position(|t| *t == ty).unwrap();
        match pick {
            0 => Value::Null,
            1 => of(TYPES[(at + 1 + (bits % 4) as usize) % TYPES.len()]),
            _ => of(ty),
        }
    }

    /// A row as its values' exact representations: a float by its bits, so
    /// `-0.0` is not `0.0`, NaN equals itself, and no INT equals a FLOAT.
    fn exact(row: &[Value]) -> Vec<String> {
        row.iter()
            .map(|v| match v {
                Value::Float(f) => format!("Float({:#x})", f.to_bits()),
                v => format!("{v:?}"),
            })
            .collect()
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
        /// Against one `Option<Vec<Value>>` per slot, over a random schema
        /// of 0–4 columns: the same rows bit for bit, the same bookmarks
        /// (never one twice), scans and column reads in slot order, the
        /// same errors for a bookmark past the heap and one already
        /// deleted, and a row holding a value of another type than its
        /// column's refused by insert and update with the heap unchanged.
        /// Each op is `(kind, bookmark, draws)`; a row takes one draw per
        /// column, and bookmarks run a little past the slots made.
        #[test]
        fn heap_agrees_with_a_slot_per_row_model(
            schema in proptest::collection::vec(0usize..5, 0..5),
            ops in proptest::collection::vec(
                (0u8..9, 0u64..24, proptest::collection::vec(
                    (0u8..8, 0u64..u64::MAX, "[a-z]{0,12}"), 4..5)),
                0..40),
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let types: Vec<DataType> = schema.iter().map(|&t| TYPES[t]).collect();
            let mut heap = Heap::new(types.iter().copied());
            let mut model: Vec<Option<Vec<Value>>> = Vec::new();
            let rows = |model: &[Option<Vec<Value>>]| -> Vec<(u64, Vec<String>)> {
                model
                    .iter()
                    .enumerate()
                    .filter_map(|(b, s)| Some((b as u64, exact(s.as_deref()?))))
                    .collect()
            };
            for (kind, b, draws) in ops {
                let row: Vec<Value> =
                    types.iter().zip(&draws).map(|(t, d)| value_of(*t, d)).collect();
                let fits = row
                    .iter()
                    .zip(&types)
                    .all(|(v, t)| v.data_type().is_none_or(|vt| vt == *t));
                match kind {
                    0..=2 => match heap.insert(&row) {
                        Ok(bookmark) => {
                            prop_assert!(fits, "{row:?} was stored in {types:?}");
                            // Never a bookmark handed out before.
                            prop_assert_eq!(bookmark, model.len() as u64);
                            model.push(Some(row));
                        }
                        Err(e) => {
                            prop_assert!(!fits, "{row:?} was refused: {e}");
                            prop_assert_eq!(e.kind(), "type");
                        }
                    },
                    3 | 4 => {
                        let want = match model.get_mut(b as usize).and_then(Option::take) {
                            Some(old) => Ok(exact(&old)),
                            None => Err(missing(&model, b)),
                        };
                        let got = heap.delete(b).map(|old| exact(&old));
                        prop_assert_eq!(got.map_err(|e| e.to_string()), want);
                    }
                    5 | 6 => {
                        let got = heap.update(b, &row).map_err(|e| e.to_string());
                        match model.get_mut(b as usize) {
                            Some(Some(old)) if fits => {
                                prop_assert_eq!(got, Ok(()));
                                *old = row;
                            }
                            Some(Some(_)) => prop_assert!(
                                got.as_ref().is_err_and(|e| e.contains("does not fit")),
                                "{got:?}"
                            ),
                            _ => prop_assert_eq!(got, Err(missing(&model, b))),
                        }
                    }
                    7 => {
                        let want = model.get(b as usize).and_then(|s| s.as_deref()).map(exact);
                        prop_assert_eq!(heap.get(b).map(|r| exact(&r)), want.clone());
                        prop_assert_eq!(
                            heap.slot(b).map(|r| exact(&r)).map_err(|e| e.to_string()),
                            want.ok_or_else(|| missing(&model, b))
                        );
                    }
                    _ => {
                        for pos in 0..types.len() {
                            let column: Vec<Vec<String>> =
                                heap.column(pos).map(|v| exact(&[v.to_value()])).collect();
                            let want: Vec<Vec<String>> = rows(&model)
                                .into_iter()
                                .map(|(_, r)| vec![r[pos].clone()])
                                .collect();
                            prop_assert_eq!(column, want);
                        }
                    }
                }
                let scanned: Vec<(u64, Vec<String>)> =
                    heap.scan().map(|(b, r)| (b, exact(&r))).collect();
                prop_assert_eq!(scanned, rows(&model));
                prop_assert_eq!(heap.len(), model.iter().flatten().count());
            }
        }
    }
}
