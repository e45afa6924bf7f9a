//! Ordered secondary indexes with range seeks — the `IRowsetIndex`
//! capability that makes a provider an *index provider* (paper §3.3).
//!
//! An index is one ordered set of `(key, bookmark)` entries; the rows
//! bearing a key are the entries sharing it, in bookmark order. A
//! one-column key is held inline, and so is every bookmark, so an entry of a
//! one-column index costs no allocation of its own (DESIGN.md §24). Range
//! scans yield bookmarks in key order, so the optimizer can rely on the
//! delivered sort order as a physical property; they find their bounds by
//! borrowing the bound keys, never copying them.

use dhqp_oledb::KeyRange;
use dhqp_types::{DhqpError, Result, Value};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::ops::Bound;

/// A key ordered by [`Value::total_cmp`] lexicographically. Shorter keys
/// order before longer keys sharing the prefix, which makes prefix seeks
/// natural.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexKey(Columns);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Columns {
    One(Value),
    Many(Box<[Value]>),
}

impl IndexKey {
    pub fn values(&self) -> &[Value] {
        match &self.0 {
            Columns::One(v) => std::slice::from_ref(v),
            Columns::Many(vs) => vs,
        }
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (self.values(), other.values());
        lexicographic(a, b).then(a.len().cmp(&b.len()))
    }
}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Compare on the shared prefix only.
fn lexicographic(a: &[Value], b: &[Value]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.total_cmp(y))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// A place in index order: a key and where it sits among the entries whose
/// key equals or extends it. Every stored entry is one; a range or seek
/// builds others from its borrowed bound keys.
#[derive(Clone, Copy)]
struct Probe<'k> {
    key: &'k [Value],
    tie: Tie,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Tie {
    /// Before every such entry.
    Before,
    /// The entry with this bookmark — and, being the shorter key, before
    /// every entry extending it.
    At(u64),
    /// After every such entry.
    After,
}

impl<'k> Probe<'k> {
    /// A range bound, placed by `inclusive` or `exclusive`. No bound is the
    /// empty prefix, inclusive: every key extends it.
    fn bound(bound: &'k Option<(Vec<Value>, bool)>, inclusive: Tie, exclusive: Tie) -> Self {
        match bound {
            None => Probe {
                key: &[],
                tie: inclusive,
            },
            Some((key, is_inclusive)) => Probe {
                key,
                tie: if *is_inclusive { inclusive } else { exclusive },
            },
        }
    }

    fn order(&self, other: &Probe) -> Ordering {
        let (a, b) = (self.key, other.key);
        lexicographic(a, b).then_with(|| match a.len().cmp(&b.len()) {
            Ordering::Equal => self.tie.cmp(&other.tie),
            Ordering::Less if self.tie == Tie::After => Ordering::Greater,
            Ordering::Less => Ordering::Less,
            Ordering::Greater if other.tie == Tie::After => Ordering::Less,
            Ordering::Greater => Ordering::Greater,
        })
    }
}

/// What the entry set is searched by: entries and borrowed probes alike.
trait Place {
    fn place(&self) -> Probe<'_>;
}

impl Place for Probe<'_> {
    fn place(&self) -> Probe<'_> {
        *self
    }
}

impl Ord for dyn Place + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.place().order(&other.place())
    }
}

impl PartialOrd for dyn Place + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for dyn Place + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for dyn Place + '_ {}

#[derive(Debug, Clone)]
struct Entry {
    key: IndexKey,
    bookmark: u64,
}

impl Place for Entry {
    fn place(&self) -> Probe<'_> {
        Probe {
            key: self.key.values(),
            tie: Tie::At(self.bookmark),
        }
    }
}

impl<'a> Borrow<dyn Place + 'a> for Entry {
    fn borrow(&self) -> &(dyn Place + 'a) {
        self
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.place().order(&other.place())
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Entry {}

/// A B-tree index over a table's key columns.
#[derive(Debug, Clone)]
pub struct BTreeIndex {
    pub name: String,
    /// Positions of the key columns within the table schema, in key order.
    pub key_positions: Vec<usize>,
    pub unique: bool,
    entries: BTreeSet<Entry>,
}

impl BTreeIndex {
    pub fn new(name: impl Into<String>, key_positions: Vec<usize>, unique: bool) -> Self {
        BTreeIndex {
            name: name.into(),
            key_positions,
            unique,
            entries: BTreeSet::new(),
        }
    }

    /// Extract this index's key from a full table row.
    pub fn key_of(&self, row: &[Value]) -> IndexKey {
        IndexKey(match self.key_positions[..] {
            [i] => Columns::One(row[i].clone()),
            ref positions => Columns::Many(positions.iter().map(|&i| row[i].clone()).collect()),
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn insert(&mut self, key: IndexKey, bookmark: u64) -> Result<()> {
        if self.unique && self.holds(&key) {
            return Err(DhqpError::Constraint(format!(
                "duplicate key in unique index '{}'",
                self.name
            )));
        }
        self.insert_unchecked(key, bookmark);
        Ok(())
    }

    /// Whether some row bears `key`.
    pub(crate) fn holds(&self, key: &IndexKey) -> bool {
        self.seek(key.values()).next().is_some()
    }

    /// [`insert`](Self::insert) of a key admitted already
    /// ([`Replay`](crate::txn::Replay)).
    pub(crate) fn insert_unchecked(&mut self, key: IndexKey, bookmark: u64) {
        self.entries.insert(Entry { key, bookmark });
    }

    pub fn remove(&mut self, key: &IndexKey, bookmark: u64) {
        let at = Probe {
            key: key.values(),
            tie: Tie::At(bookmark),
        };
        self.entries.remove(&at as &dyn Place);
    }

    /// Range scan in key order, a key's rows in bookmark order; yields
    /// bookmarks. Bound keys may be prefixes of the full key (prefix seek):
    /// an inclusive bound takes in every key extending it, an exclusive one
    /// none.
    pub fn range(&self, range: &KeyRange) -> impl Iterator<Item = u64> + '_ {
        let low = Probe::bound(&range.low, Tie::Before, Tie::After);
        let high = Probe::bound(&range.high, Tie::After, Tie::Before);
        self.between(&low, &high)
    }

    /// Bookmarks for an exact key match, ascending.
    pub fn seek(&self, key: &[Value]) -> impl Iterator<Item = u64> + '_ {
        let low = Probe {
            key,
            tie: Tie::At(0),
        };
        let high = Probe {
            key,
            tie: Tie::At(u64::MAX),
        };
        self.between(&low, &high)
    }

    fn between(&self, low: &dyn Place, high: &dyn Place) -> impl Iterator<Item = u64> + '_ {
        // `BTreeSet::range` panics on an inverted range; it is just empty.
        // A seek's bounds may equal its first and last entries: inclusive.
        (low <= high)
            .then(|| {
                self.entries
                    .range::<dyn Place, _>((Bound::Included(low), Bound::Included(high)))
            })
            .into_iter()
            .flatten()
            .map(|e| e.bookmark)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    /// The key of a row of `vals` in an index over all its columns.
    fn key(vals: &[i64]) -> IndexKey {
        BTreeIndex::new("k", (0..vals.len()).collect(), false).key_of(&ints(vals))
    }

    /// Bookmark `i` holds `vals[i]`.
    fn index_with(vals: &[i64]) -> BTreeIndex {
        let mut ix = BTreeIndex::new("ix", vec![0], false);
        for (i, &v) in vals.iter().enumerate() {
            ix.insert(key(&[v]), i as u64).unwrap();
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
        let hits: Vec<i64> = ix.range(&r).map(|b| vals[b as usize]).collect();
        assert_eq!(hits, vec![3, 5, 7]);
        let r = bounded(Some((&[3], false)), Some((&[7], false)));
        let hits: Vec<i64> = ix.range(&r).map(|b| vals[b as usize]).collect();
        assert_eq!(hits, vec![5]);
        // An inverted range is empty, not a panic.
        assert_eq!(
            ix.range(&bounded(Some((&[7], true)), Some((&[3], true))))
                .count(),
            0
        );
        assert_eq!(
            ix.range(&bounded(Some((&[5], false)), Some((&[5], false))))
                .count(),
            0
        );
    }

    #[test]
    fn unbounded_range_returns_everything_sorted() {
        let vals = [5, 3, 9];
        let ix = index_with(&vals);
        let hits: Vec<i64> = ix
            .range(&KeyRange::all())
            .map(|b| vals[b as usize])
            .collect();
        assert_eq!(hits, vec![3, 5, 9]);
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let mut ix = BTreeIndex::new("u", vec![0], true);
        ix.insert(key(&[1]), 0).unwrap();
        assert!(ix.insert(key(&[1]), 1).is_err());
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn a_deleted_unique_key_can_be_inserted_again() {
        let mut ix = BTreeIndex::new("u", vec![0], true);
        ix.insert(key(&[1]), 0).unwrap();
        ix.remove(&key(&[1]), 0);
        assert!(ix.is_empty());
        ix.insert(key(&[1]), 5).unwrap();
        assert_eq!(ix.seek(&ints(&[1])).collect::<Vec<_>>(), [5]);
        assert!(ix.insert(key(&[1]), 6).is_err());
    }

    /// Rows sharing a key come back in bookmark order, after a delete too.
    #[test]
    fn duplicates_allowed_on_non_unique() {
        let mut ix = BTreeIndex::new("n", vec![0], false);
        for b in [7, 2, 9, 4] {
            ix.insert(key(&[1]), b).unwrap();
        }
        ix.insert(key(&[0]), 8).unwrap();
        assert_eq!(ix.seek(&ints(&[1])).collect::<Vec<_>>(), [2, 4, 7, 9]);
        ix.remove(&key(&[1]), 2);
        // Removing a bookmark the key does not hold changes nothing.
        ix.remove(&key(&[1]), 8);
        assert_eq!(ix.seek(&ints(&[1])).collect::<Vec<_>>(), [4, 7, 9]);
        let all: Vec<u64> = ix.range(&KeyRange::eq(ints(&[1]))).collect();
        assert_eq!(all, [4, 7, 9]);
        assert_eq!(ix.range(&KeyRange::all()).collect::<Vec<_>>(), [8, 4, 7, 9]);
        assert_eq!(ix.len(), 4);
    }

    #[test]
    fn exact_seek_via_keyrange_eq() {
        let ix = index_with(&[2, 4, 4, 6]);
        let hits: Vec<u64> = ix.range(&KeyRange::eq(ints(&[4]))).collect();
        assert_eq!(hits, [1, 2]);
    }

    /// Exclusive and inclusive bounds on a composite prefix.
    #[test]
    fn composite_prefix_seek() {
        let mut ix = BTreeIndex::new("c", vec![0, 1], false);
        let keys = [[1, 10], [1, 20], [2, 10], [2, 20], [3, 10]];
        for (i, k) in keys.iter().enumerate() {
            ix.insert(key(k), i as u64).unwrap();
        }
        let hits = |low, high| -> Vec<u64> { ix.range(&bounded(low, high)).collect() };
        // Prefix seek on a = 1 returns both (1,10) and (1,20).
        assert_eq!(
            ix.range(&KeyRange::eq(ints(&[1]))).collect::<Vec<_>>(),
            [0, 1]
        );
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

    #[test]
    fn shorter_key_sorts_before_extension() {
        assert!(key(&[1]) < key(&[1, 0]));
        assert!(key(&[1, 0]) < key(&[2]));
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
            let mut ix = BTreeIndex::new("p", vec![0, 1], false);
            for (b, &(x, y)) in rows.iter().enumerate() {
                ix.insert(key(&[x, y]), b as u64).unwrap();
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
            proptest::prop_assert_eq!(ix.range(&range).collect::<Vec<_>>(), expected);
        }
    }
}
