//! Ordered secondary indexes with range seeks — the `IRowsetIndex`
//! capability that makes a provider an *index provider* (paper §3.3).
//!
//! An index is one array of its table's live bookmarks, sorted by (key,
//! bookmark): 8 B per row, and no copy of the key. A key is read in place
//! from the heap's typed columns ([`Heap::cell`]), so every search takes
//! the heap the index belongs to, and orders stored keys and bound keys
//! alike by [`Cell::total_cmp`] (DESIGN.md §24). Range scans yield
//! bookmarks in key order, so the optimizer can rely on the delivered sort
//! order as a physical property; the base rows are then fetched by
//! bookmark, as `IRowsetLocate` does.
//!
//! An index refuses nothing. Whether a unique index may take a key is
//! decided once, when [`Replay`](crate::txn::Replay) admits the batch that
//! brings it, so adding and removing entries cannot fail.

use crate::heap::Heap;
use dhqp_oledb::KeyRange;
use dhqp_types::{Cell, Value};
use std::cmp::Ordering;

/// Where a bound key sits among the entries whose key equals or extends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tie {
    Before,
    After,
}

/// A B-tree index over a table's key columns.
#[derive(Debug, Clone)]
pub struct BTreeIndex {
    pub name: String,
    /// Positions of the key columns within the table schema, in key order;
    /// at least one (`Table::create_index` refuses none).
    pub key_positions: Vec<usize>,
    pub unique: bool,
    /// The live rows' bookmarks, sorted by (key, bookmark).
    order: Vec<u64>,
}

impl BTreeIndex {
    pub fn new(name: impl Into<String>, key_positions: Vec<usize>, unique: bool) -> Self {
        BTreeIndex {
            name: name.into(),
            key_positions,
            unique,
            order: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Every entry's bookmark, in key order.
    pub fn bookmarks(&self) -> &[u64] {
        &self.order
    }

    /// This index's key of `row`, a full table row, read in place.
    pub(crate) fn key<'a>(
        &'a self,
        row: &'a [Value],
    ) -> impl ExactSizeIterator<Item = Cell<'a>> + Clone + 'a {
        self.key_positions.iter().map(|&pos| row[pos].as_cell())
    }

    /// The key of the heap's row at `bookmark`, read in place.
    fn stored<'a>(
        &'a self,
        heap: &'a Heap,
        bookmark: u64,
    ) -> impl ExactSizeIterator<Item = Cell<'a>> + Clone + 'a {
        self.key_positions
            .iter()
            .map(move |&pos| heap.cell(pos, bookmark))
    }

    /// The entry at `bookmark` against `key`, on their shared prefix.
    fn prefix_cmp<'c>(
        &self,
        heap: &Heap,
        bookmark: u64,
        key: impl Iterator<Item = Cell<'c>>,
    ) -> Ordering {
        self.stored(heap, bookmark)
            .zip(key)
            .map(|(a, b)| a.total_cmp(&b))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// Whether the entry at `bookmark` orders before `key` placed by `tie`.
    /// An entry that `key` extends is a shorter key, and sorts before it
    /// whatever the tie.
    fn before<'c>(
        &self,
        heap: &Heap,
        bookmark: u64,
        key: impl ExactSizeIterator<Item = Cell<'c>>,
        tie: Tie,
    ) -> bool {
        let longer = key.len() > self.key_positions.len();
        match self.prefix_cmp(heap, bookmark, key) {
            Ordering::Equal => longer || tie == Tie::After,
            o => o.is_lt(),
        }
    }

    /// The entries from `low` to `high`, each key placed by its tie: one
    /// binary search for the first, then a walk to the last, since what is
    /// found is read anyway.
    fn span<'c, K>(&self, heap: &Heap, (low, from): (K, Tie), (high, to): (K, Tie)) -> &[u64]
    where
        K: ExactSizeIterator<Item = Cell<'c>> + Clone,
    {
        let start = self
            .order
            .partition_point(|&b| self.before(heap, b, low.clone(), from));
        let run = self.order[start..]
            .iter()
            .take_while(|&&b| self.before(heap, b, high.clone(), to))
            .count();
        &self.order[start..start + run]
    }

    /// The entries whose key equals or extends `key`, in bookmark order.
    pub(crate) fn holding<'c>(
        &self,
        heap: &Heap,
        key: impl ExactSizeIterator<Item = Cell<'c>> + Clone,
    ) -> &[u64] {
        self.span(heap, (key.clone(), Tie::Before), (key, Tie::After))
    }

    /// Range scan in key order, a key's rows in bookmark order; yields
    /// bookmarks. Bound keys may be prefixes of the full key (prefix seek):
    /// an inclusive bound takes in every key extending it, an exclusive one
    /// none. An inverted range is empty.
    pub fn range(&self, heap: &Heap, range: &KeyRange) -> &[u64] {
        fn bound(
            bound: &Option<(Vec<Value>, bool)>,
            inclusive: Tie,
            exclusive: Tie,
        ) -> (impl ExactSizeIterator<Item = Cell<'_>> + Clone, Tie) {
            let (key, tie) = match bound {
                None => (&[][..], inclusive),
                Some((key, true)) => (&key[..], inclusive),
                Some((key, false)) => (&key[..], exclusive),
            };
            (key.iter().map(Value::as_cell), tie)
        }
        let low = bound(&range.low, Tie::Before, Tie::After);
        self.span(heap, low, bound(&range.high, Tie::After, Tie::Before))
    }

    /// Bookmarks for a key match, ascending: `range` of [`KeyRange::eq`].
    pub fn seek(&self, heap: &Heap, key: &[Value]) -> &[u64] {
        self.holding(heap, key.iter().map(Value::as_cell))
    }

    /// Add the entries of `arriving`, rows the heap holds. They are sorted,
    /// each row's first key column read once, and merged into the entries
    /// in one pass from the back, each placed by a binary search among the
    /// entries not yet moved: a load is O(k log k), and a write moves every
    /// entry at most once. Nothing is checked: a unique index's keys were
    /// admitted by [`Replay`](crate::txn::Replay), so this cannot fail.
    pub fn insert(&mut self, heap: &Heap, mut arriving: Vec<u64>) {
        match self.key_positions.split_first() {
            Some((&first, rest)) if arriving.len() > 1 => {
                // Each row's first key column is read once, not per comparison.
                let mut keyed: Vec<(Cell, u64)> =
                    arriving.iter().map(|&b| (heap.cell(first, b), b)).collect();
                keyed.sort_unstable_by(|(x, a), (y, b)| {
                    x.total_cmp(y).then_with(|| rows_cmp(heap, rest, *a, *b))
                });
                for (slot, (_, b)) in arriving.iter_mut().zip(keyed) {
                    *slot = b;
                }
            }
            // No key column orders the rows, or there is one row at most.
            _ => arriving.sort_unstable(),
        }
        let mut end = self.order.len();
        self.order.resize(end + arriving.len(), 0);
        for (j, &b) in arriving.iter().enumerate().rev() {
            let at = self.order[..end]
                .partition_point(|&e| rows_cmp(heap, &self.key_positions, e, b).is_lt());
            self.order.copy_within(at..end, at + j + 1);
            self.order[at + j] = b;
            end = at;
        }
    }

    /// Take out the entries of `leaving`, rows the heap still holds as they
    /// were indexed; a bookmark the index does not hold changes nothing.
    pub fn remove(&mut self, heap: &Heap, leaving: &[u64]) {
        let mut gone: Vec<usize> = leaving
            .iter()
            .filter(|&&b| heap.live_index(b).is_ok())
            .filter_map(|&b| {
                let at = self
                    .order
                    .partition_point(|&e| rows_cmp(heap, &self.key_positions, e, b).is_lt());
                (self.order.get(at) == Some(&b)).then_some(at)
            })
            .collect();
        gone.sort_unstable();
        gone.dedup();
        // Close each gap by moving the run of entries after it down.
        let Some(&first) = gone.first() else {
            return;
        };
        let mut to = first;
        for (i, &at) in gone.iter().enumerate() {
            let end = gone.get(i + 1).copied().unwrap_or(self.order.len());
            self.order.copy_within(at + 1..end, to);
            to += end - at - 1;
        }
        self.order.truncate(to);
    }

    /// Whether replacing the heap's row at `bookmark` by `row` changes its
    /// key here.
    pub(crate) fn moves(&self, heap: &Heap, bookmark: u64, row: &[Value]) -> bool {
        self.prefix_cmp(heap, bookmark, self.key(row)).is_ne()
    }
}

/// How the heap's rows `a` and `b` order on the columns at `positions`,
/// then by bookmark: with every key column, the order of the entries.
fn rows_cmp(heap: &Heap, positions: &[usize], a: u64, b: u64) -> Ordering {
    positions
        .iter()
        .map(|&pos| heap.cell(pos, a).total_cmp(&heap.cell(pos, b)))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
        .then(a.cmp(&b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhqp_types::DataType;

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    /// An index over every column of an INT heap, both kept in step.
    struct Indexed {
        heap: Heap,
        ix: BTreeIndex,
    }

    impl Indexed {
        fn new(columns: usize, unique: bool) -> Self {
            Indexed {
                heap: Heap::new(vec![DataType::Int; columns]),
                ix: BTreeIndex::new("ix", (0..columns).collect(), unique),
            }
        }

        /// Store `row` and index it.
        fn add(&mut self, row: &[Value]) -> u64 {
            let b = self.heap.insert(row).unwrap();
            self.ix.insert(&self.heap, vec![b]);
            b
        }

        fn add_ints(&mut self, vals: &[i64]) -> u64 {
            self.add(&ints(vals))
        }

        fn delete(&mut self, bookmarks: &[u64]) {
            self.ix.remove(&self.heap, bookmarks);
            for &b in bookmarks {
                self.heap.delete(b).unwrap();
            }
        }

        fn range(&self, range: &KeyRange) -> Vec<u64> {
            self.ix.range(&self.heap, range).to_vec()
        }

        fn seek(&self, key: &[Value]) -> Vec<u64> {
            self.ix.seek(&self.heap, key).to_vec()
        }
    }

    /// Bookmark `i` holds `vals[i]`.
    fn index_with(vals: &[i64]) -> Indexed {
        let mut ix = Indexed::new(1, false);
        for &v in vals {
            ix.add_ints(&[v]);
        }
        ix
    }

    fn bounded(low: Option<(&[i64], bool)>, high: Option<(&[i64], bool)>) -> KeyRange {
        KeyRange {
            low: low.map(|(k, inc)| (ints(k), inc)),
            high: high.map(|(k, inc)| (ints(k), inc)),
        }
    }

    #[test]
    fn range_scan_is_ordered_and_bounded() {
        let vals = [5, 3, 9, 1, 7];
        let ix = index_with(&vals);
        let r = bounded(Some((&[3], true)), Some((&[7], true)));
        let hits: Vec<i64> = ix.range(&r).iter().map(|&b| vals[b as usize]).collect();
        assert_eq!(hits, vec![3, 5, 7]);
        let r = bounded(Some((&[3], false)), Some((&[7], false)));
        let hits: Vec<i64> = ix.range(&r).iter().map(|&b| vals[b as usize]).collect();
        assert_eq!(hits, vec![5]);
        // An inverted range is empty, not a panic.
        assert_eq!(
            ix.range(&bounded(Some((&[7], true)), Some((&[3], true)))),
            []
        );
        assert_eq!(
            ix.range(&bounded(Some((&[5], false)), Some((&[5], false)))),
            []
        );
    }

    #[test]
    fn unbounded_range_returns_everything_sorted() {
        let vals = [5, 3, 9];
        let ix = index_with(&vals);
        let hits: Vec<i64> = ix
            .range(&KeyRange::all())
            .iter()
            .map(|&b| vals[b as usize])
            .collect();
        assert_eq!(hits, vec![3, 5, 9]);
    }

    /// Rows sharing a key come back in bookmark order, after a delete too.
    #[test]
    fn duplicates_allowed_on_non_unique() {
        let mut ix = Indexed::new(1, false);
        // Bookmarks 0, 1, 3 and 4 hold 1, 8 holds 0; the 9s leave at once.
        for v in [1, 1, 9, 1, 1, 9, 9, 9, 0] {
            ix.add_ints(&[v]);
        }
        ix.delete(&[7, 2, 6, 5]);
        assert_eq!(ix.range(&KeyRange::all()), [8, 0, 1, 3, 4]);
        assert_eq!(ix.seek(&ints(&[1])), [0, 1, 3, 4]);
        ix.delete(&[1]);
        // Removing a bookmark the index does not hold changes nothing.
        ix.ix.remove(&ix.heap, &[1, 7, 99]);
        assert_eq!(ix.seek(&ints(&[1])), [0, 3, 4]);
        assert_eq!(ix.range(&KeyRange::eq(ints(&[1]))), [0, 3, 4]);
        assert_eq!(ix.range(&KeyRange::all()), [8, 0, 3, 4]);
        assert_eq!(ix.ix.len(), 4);
    }

    #[test]
    fn exact_seek_via_keyrange_eq() {
        let ix = index_with(&[2, 4, 4, 6]);
        assert_eq!(ix.range(&KeyRange::eq(ints(&[4]))), [1, 2]);
    }

    /// Exclusive and inclusive bounds on a composite prefix.
    #[test]
    fn composite_prefix_seek() {
        let mut ix = Indexed::new(2, false);
        for k in [[1, 10], [1, 20], [2, 10], [2, 20], [3, 10]] {
            ix.add_ints(&k);
        }
        let hits = |low, high| ix.range(&bounded(low, high));
        // Prefix seek on a = 1 returns both (1,10) and (1,20).
        assert_eq!(ix.range(&KeyRange::eq(ints(&[1]))), [0, 1]);
        assert_eq!(ix.seek(&ints(&[1])), [0, 1]);
        // Inclusive prefix bounds take in every key extending them ...
        assert_eq!(hits(Some((&[2], true)), Some((&[3], true))), [2, 3, 4]);
        // ... exclusive ones none.
        assert_eq!(hits(Some((&[1], false)), Some((&[3], false))), [2, 3]);
        assert_eq!(hits(Some((&[1], false)), None), [2, 3, 4]);
        assert_eq!(hits(None, Some((&[2], false))), [0, 1]);
        // Full-key bounds.
        assert_eq!(
            hits(Some((&[1, 10], false)), Some((&[2, 20], false))),
            [1, 2]
        );
        assert_eq!(hits(Some((&[1, 20], true)), Some((&[2, 10], true))), [1, 2]);
        // Mixed: a full-key low bound, a prefix high bound.
        assert_eq!(hits(Some((&[1, 15], true)), Some((&[2], true))), [1, 2, 3]);
    }

    /// `[1] < [1, 0] < [1, 0, 0] < [2]`: a bound key the stored key extends
    /// sorts before it, and one extending the stored key sorts after it,
    /// whichever way the bound is placed.
    #[test]
    fn shorter_key_sorts_before_extension() {
        let mut ix = Indexed::new(2, false);
        ix.add_ints(&[1, 0]);
        ix.add_ints(&[2, 0]);
        let hits = |low, high| ix.range(&bounded(low, high));
        assert_eq!(hits(Some((&[1], true)), Some((&[1], true))), [0]);
        assert_eq!(hits(None, Some((&[1], false))), []);
        for inclusive in [true, false] {
            assert_eq!(hits(Some((&[1, 0, 0], inclusive)), None), [1]);
            assert_eq!(hits(None, Some((&[1, 0, 0], inclusive))), [0]);
        }
        assert_eq!(ix.seek(&ints(&[1, 0, 0])), []);
    }

    /// NULL first, `-0.0` one key with `0.0`, NaN after every number, and
    /// an INT probe finding a FLOAT key — and the other way round — as
    /// `Value::total_cmp` orders them.
    #[test]
    fn keys_read_in_place_order_as_values_do() {
        let nan = f64::NAN;
        let floats = [nan, 1.0, f64::NEG_INFINITY, -0.0, 0.0, -1.0, 2.5];
        let mut fx = Indexed {
            heap: Heap::new([DataType::Float]),
            ix: BTreeIndex::new("f", vec![0], false),
        };
        let mut rows: Vec<Value> = floats.iter().map(|&f| Value::Float(f)).collect();
        rows.push(Value::Null);
        for row in &rows {
            fx.add(std::slice::from_ref(row));
        }
        let mut by_value: Vec<u64> = (0..rows.len() as u64).collect();
        by_value.sort_by(|&a, &b| {
            rows[a as usize]
                .total_cmp(&rows[b as usize])
                .then(a.cmp(&b))
        });
        assert_eq!(fx.ix.bookmarks(), by_value);
        assert_eq!(fx.ix.bookmarks(), [7, 2, 5, 3, 4, 1, 6, 0]);
        assert_eq!(fx.seek(&[Value::Null]), [7]);
        assert_eq!(fx.seek(&[Value::Float(0.0)]), [3, 4]);
        assert_eq!(fx.seek(&[Value::Float(-0.0)]), [3, 4]);
        assert_eq!(fx.seek(&[Value::Int(0)]), [3, 4]);
        assert_eq!(fx.seek(&[Value::Int(1)]), [1]);
        assert_eq!(fx.seek(&[Value::Float(nan)]), [0]);
        let r = KeyRange {
            low: Some((vec![Value::Null], false)),
            high: Some((vec![Value::Int(2)], true)),
        };
        assert_eq!(fx.range(&r), [2, 5, 3, 4, 1]);

        let ix = index_with(&[3, -1, 2]);
        assert_eq!(ix.seek(&[Value::Float(2.0)]), [2]);
        assert_eq!(ix.seek(&[Value::Float(2.5)]), []);
        let r = KeyRange {
            low: Some((vec![Value::Float(-0.5)], true)),
            high: Some((vec![Value::Float(nan)], false)),
        };
        assert_eq!(ix.range(&r), [2, 0]);
    }

    proptest::proptest! {
        /// A range scan returns exactly the entries `KeyRange::contains`
        /// admits, in (key, bookmark) order.
        #[test]
        fn range_agrees_with_key_range_contains(
            rows in proptest::collection::vec((0i64..4, 0i64..4), 0..24),
            low in proptest::option::of((proptest::collection::vec(0i64..4, 0..3), proptest::any::<bool>())),
            high in proptest::option::of((proptest::collection::vec(0i64..4, 0..3), proptest::any::<bool>())),
        ) {
            let mut ix = Indexed::new(2, false);
            for &(x, y) in &rows {
                ix.add_ints(&[x, y]);
            }
            let range = KeyRange {
                low: low.map(|(k, inc)| (ints(&k), inc)),
                high: high.map(|(k, inc)| (ints(&k), inc)),
            };
            let mut expected: Vec<(i64, i64, u64)> = rows
                .iter()
                .enumerate()
                .filter(|(_, &(x, y))| range.contains(&ints(&[x, y])))
                .map(|(b, &(x, y))| (x, y, b as u64))
                .collect();
            expected.sort();
            let expected: Vec<u64> = expected.into_iter().map(|(_, _, b)| b).collect();
            proptest::prop_assert_eq!(ix.range(&range), expected);
        }
    }
}
