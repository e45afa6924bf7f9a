//! The one storage write path (DESIGN.md §24): a request's writes to one
//! table are one [`Batch`], admitted whole by [`Replay`], then applied by
//! [`Table::apply`] — at once under autocommit, or at commit by the 2PC
//! participant that buffered it (§22). Admission is the one unique check:
//! index maintenance trusts it and cannot fail.

use crate::btree::BTreeIndex;
use crate::table::Table;
use dhqp_types::{DhqpError, Result, Row, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// One request's writes to one table. Autocommit borrows the caller's
/// rows (`Batch::Insert(rows.into())`); a transaction buffers an owned
/// copy.
#[derive(Debug, Clone)]
pub enum Batch<'r> {
    Insert(Cow<'r, [Row]>),
    Delete(Cow<'r, [u64]>),
    /// The row at each bookmark is replaced, in place, by the row at the
    /// same position.
    Update(Cow<'r, [u64]>, Cow<'r, [Row]>),
}

impl Batch<'_> {
    /// How many rows it writes.
    pub fn rows(&self) -> u64 {
        match self {
            Batch::Insert(rows) => rows.len() as u64,
            Batch::Delete(bookmarks) | Batch::Update(bookmarks, _) => bookmarks.len() as u64,
        }
    }

    pub fn into_owned(self) -> Batch<'static> {
        match self {
            Batch::Insert(rows) => Batch::Insert(Cow::Owned(rows.into_owned())),
            Batch::Delete(bookmarks) => Batch::Delete(Cow::Owned(bookmarks.into_owned())),
            Batch::Update(bookmarks, rows) => Batch::Update(
                Cow::Owned(bookmarks.into_owned()),
                Cow::Owned(rows.into_owned()),
            ),
        }
    }

    /// The stored rows it deletes or replaces.
    pub(crate) fn leaving(&self) -> &[u64] {
        match self {
            Batch::Insert(_) => &[],
            Batch::Delete(bookmarks) | Batch::Update(bookmarks, _) => bookmarks,
        }
    }

    /// The rows it stores: inserted, or each replacing the row that
    /// [`Batch::leaving`] names at its position.
    pub(crate) fn arriving(&self) -> impl ExactSizeIterator<Item = &[Value]> + Clone {
        let rows: &[Row] = match self {
            Batch::Insert(rows) | Batch::Update(_, rows) => rows,
            Batch::Delete(_) => &[],
        };
        rows.iter().map(|r| r.values.as_slice())
    }
}

/// Whether [`Table::apply`] will take batches, in order, read off the live
/// table without copying it. A batch is admitted as a set: the rows it
/// deletes or replaces leave before the rows it inserts or replaces arrive,
/// so `id = id + 1` over unique ids is no clash. A bookmark must name a
/// live row not deleted before; an arriving row needs the table's arity,
/// column types and CHECKs, and per unique index a key held by no row that
/// stays and no row that arrived before it. (A row inserted under a
/// transaction has no bookmark until commit, so no later batch names one.)
///
/// A yes vote holds whether the other prepared transactions commit or
/// abort ([`Replay::reserve`]): nobody else may delete or replace a row one
/// of them writes, and the keys such a row has now and will have stay
/// held, as do the keys of the rows one of them inserts.
pub struct Replay<'a> {
    table: &'a Table,
    /// Rows the admitted batches deleted (`None`) or replaced, with the
    /// row that replaced them.
    touched: HashMap<u64, Option<&'a [Value]>>,
    /// Rows prepared transactions delete or replace.
    locked: HashSet<u64>,
    /// Each unique index, with the rows arrived so far sorted by its key.
    arrived: Vec<(&'a BTreeIndex, Vec<&'a [Value]>)>,
}

impl<'a> Replay<'a> {
    pub fn over(table: &'a Table) -> Self {
        let unique = table.indexes.iter().filter(|ix| ix.unique);
        Replay {
            table,
            touched: HashMap::new(),
            locked: HashSet::new(),
            arrived: unique.map(|ix| (ix, Vec::new())).collect(),
        }
    }

    /// Hold what `batch`, buffered by a prepared transaction, will do at
    /// its commit, without asking whether it may: it was admitted when the
    /// transaction voted.
    pub fn reserve(&mut self, batch: &'a Batch<'_>) {
        self.locked.extend(batch.leaving());
        // Held, not judged: a row given one key and then another holds both.
        for (ix, arrived) in &mut self.arrived {
            arrive(ix, arrived, batch.arriving());
        }
    }

    /// Whether `batch`, after the batches admitted before it, will apply.
    /// On `Err` the replay is spent.
    pub fn admit(&mut self, batch: &'a Batch<'_>) -> Result<()> {
        let t = self.table;
        if matches!(batch, Batch::Update(b, rows) if b.len() != rows.len()) {
            return Err(DhqpError::Execute(
                "update bookmark/row arity mismatch".into(),
            ));
        }
        for &bookmark in batch.leaving() {
            t.heap.live_index(bookmark)?;
            if self.locked.contains(&bookmark) {
                return Err(DhqpError::Transaction(format!(
                    "row {bookmark} of '{}' is written by a prepared transaction",
                    t.name
                )));
            }
            match self.touched.insert(bookmark, None) {
                None => {}
                Some(None) => {
                    let gone = format!("bookmark {bookmark} already deleted");
                    return Err(DhqpError::Execute(gone));
                }
                // Replaced by an earlier batch: that row's keys leave.
                Some(Some(replaced)) => {
                    for (ix, arrived) in &mut self.arrived {
                        let cmp = key_order(ix);
                        if let Ok(at) = arrived.binary_search_by(|r| cmp(r, replaced)) {
                            arrived.remove(at);
                        }
                    }
                }
            }
        }
        for row in batch.arriving() {
            t.validate_row(row)?;
        }
        for (&bookmark, row) in batch.leaving().iter().zip(batch.arriving()) {
            self.touched.insert(bookmark, Some(row));
        }
        for (ix, arrived) in &mut self.arrived {
            let stays = |b: &u64| !self.touched.contains_key(b);
            let held = |row| ix.holding(&t.heap, ix.key(row)).iter().any(stays);
            let rows = batch.arriving();
            if (!ix.is_empty() && rows.clone().any(held)) || arrive(ix, arrived, rows) {
                return Err(t.duplicate_key(&ix.name));
            }
        }
        Ok(())
    }
}

/// How two rows order on `ix`'s key, as the index orders keys: by
/// `Value::total_cmp`, column by column.
fn key_order(ix: &BTreeIndex) -> impl Fn(&[Value], &[Value]) -> Ordering + Copy + '_ {
    // Nearly every key has one column: the first is read outside the loop.
    let key = ix.key_positions.split_first();
    let (&first, rest) = key.expect("an index has a key column");
    move |a, b| {
        a[first].total_cmp(&b[first]).then_with(|| {
            let mut rest = rest.iter().map(|&p| a[p].total_cmp(&b[p]));
            rest.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
        })
    }
}

/// Add `rows` to `keys`, rows sorted by `ix`'s key: `rows` are sorted once,
/// then merged in from the back, each placed by a binary search among the
/// keys not yet moved, so no key moves twice. Whether one of `rows` has the
/// key of another or of a row before them.
fn arrive<'a>(
    ix: &BTreeIndex,
    keys: &mut Vec<&'a [Value]>,
    rows: impl Iterator<Item = &'a [Value]>,
) -> bool {
    let cmp = key_order(ix);
    let n = keys.len();
    keys.extend(rows);
    keys[n..].sort_unstable_by(|a, b| cmp(a, b));
    let mut clash = keys[n..].windows(2).any(|w| cmp(w[0], w[1]).is_eq());
    // Nothing before them, or every one of them after it: they stay put.
    if n == 0 || n == keys.len() || cmp(keys[n - 1], keys[n]).is_lt() {
        return clash;
    }
    // The merge overwrites the rows' places, so it reads a copy past them.
    let (k, mut end) = (keys.len() - n, n);
    keys.extend_from_within(n..);
    for j in (0..k).rev() {
        let key = keys[n + k + j];
        let at = keys[..end].partition_point(|r| cmp(r, key).is_lt());
        clash |= keys[at..end].first().is_some_and(|r| cmp(r, key).is_eq());
        keys.copy_within(at..end, at + j + 1);
        (keys[at + j], end) = (key, at);
    }
    keys.truncate(n + k);
    clash
}

/// A participant's transaction: the batches it buffered, in order, each
/// with its table's catalog key, and whether it voted yes — after which no
/// batch may be added.
#[derive(Debug, Default)]
pub struct TxnState {
    pub ops: Vec<(String, Batch<'static>)>,
    pub prepared: bool,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::catalog::{CheckConstraint, StorageEngine, TableDef};
    use dhqp_oledb::{KeyRange, TxnId};
    use dhqp_types::{Column, DataType, Interval, IntervalSet, Schema};
    use std::collections::{BTreeMap, BTreeSet};
    use std::slice;

    /// Active, then prepared — no further batch, no second vote — then
    /// gone at commit.
    #[test]
    fn state_machine_transitions() {
        let e = keyed_engine();
        e.write(Some(1), "k", delete(&[0])).unwrap();
        e.prepare_txn(1).unwrap();
        assert!(e.write(Some(1), "k", delete(&[1])).is_err());
        assert!(e.prepare_txn(1).is_err());
        assert!(e.has_txn(1));
        e.commit_txn(1).unwrap();
        assert!(!e.has_txn(1));
        assert_eq!(e.with_table("k", |t| t.row_count()).unwrap(), 3);
    }

    #[test]
    fn apply_round_trip() {
        let mut t = Table::new("t", Schema::new(vec![Column::not_null("x", DataType::Int)]));
        let rows = [Row::new(vec![Value::Int(1)])];
        t.apply(&Batch::Insert(rows[..].into())).unwrap();
        assert_eq!(t.row_count(), 1);
        t.apply(&delete(&[0])).unwrap();
        assert_eq!(t.row_count(), 0);
        assert_eq!(Batch::Insert(rows[..].into()).into_owned().rows(), 1);
    }

    /// The write path without a catalog: admit `batch` to `t`, then apply
    /// it.
    pub(crate) fn admit_and_apply(t: &mut Table, batch: &Batch<'_>) -> Result<()> {
        Replay::over(t).admit(batch)?;
        t.apply(batch)
    }

    /// A one-column table of `data_type`, NULLs allowed, with one index
    /// over the column.
    fn single(data_type: DataType, unique: bool) -> Table {
        let mut t = Table::new("s", Schema::new(vec![Column::new("v", data_type)]));
        t.create_index("ix", &["v"], unique).unwrap();
        t
    }

    /// An insert of one-column rows.
    fn values(values: &[Value]) -> Batch<'static> {
        let rows = values.iter().map(|v| Row::new(vec![v.clone()]));
        Batch::Insert(rows.collect::<Vec<_>>().into())
    }

    fn ints(ints: &[i64]) -> Batch<'static> {
        values(&ints.iter().map(|&i| Value::Int(i)).collect::<Vec<_>>())
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let mut t = single(DataType::Int, true);
        admit_and_apply(&mut t, &ints(&[1])).unwrap();
        assert!(admit_and_apply(&mut t, &ints(&[1])).is_err());
        assert_eq!(t.indexes[0].len(), 1);
        // Two arriving rows sharing a key are refused together.
        assert!(admit_and_apply(&mut t, &ints(&[2, 3, 2])).is_err());
        assert_eq!(t.indexes[0].bookmarks(), [0]);
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn a_deleted_unique_key_can_be_inserted_again() {
        let mut t = single(DataType::Int, true);
        admit_and_apply(&mut t, &ints(&[1])).unwrap();
        admit_and_apply(&mut t, &delete(&[0])).unwrap();
        assert!(t.indexes[0].is_empty());
        admit_and_apply(&mut t, &ints(&[1])).unwrap();
        assert_eq!(t.indexes[0].seek(&t.heap, &[Value::Int(1)]), [1]);
        assert!(admit_and_apply(&mut t, &ints(&[1])).is_err());
    }

    /// A unique FLOAT index holds one of `-0.0` and `0.0`, and a NULL
    /// beside it.
    #[test]
    fn keys_read_in_place_order_as_values_do() {
        let mut t = single(DataType::Float, true);
        admit_and_apply(&mut t, &values(&[Value::Float(-0.0)])).unwrap();
        assert!(admit_and_apply(&mut t, &values(&[Value::Float(0.0)])).is_err());
        admit_and_apply(&mut t, &values(&[Value::Null])).unwrap();
        assert_eq!(t.indexes[0].bookmarks(), [1, 0]);
    }

    /// `Replay` holds two keys as one exactly where the index orders them
    /// as one (`Value::total_cmp`): `-0.0` and `0.0`, a NaN and the same
    /// NaN, two NULLs. Each pair clashes inside one batch, across two
    /// batches of one replay, against a key a prepared transaction holds
    /// and against a held row; a non-unique index takes all of them.
    #[test]
    fn replay_orders_keys_as_the_index_does() {
        let pairs = [
            (Value::Float(-0.0), Value::Float(0.0)),
            (Value::Float(f64::NAN), Value::Float(f64::NAN)),
            (Value::Null, Value::Null),
        ];
        for (a, b) in pairs {
            let (first, second) = (values(slice::from_ref(&a)), values(slice::from_ref(&b)));
            let both = values(&[a.clone(), b.clone()]);
            for unique in [true, false] {
                let case = format!("{a:?} then {b:?}, unique: {unique}");
                let mut t = single(DataType::Float, unique);
                assert_eq!(Replay::over(&t).admit(&both).is_err(), unique, "{case}");
                let mut replay = Replay::over(&t);
                replay.admit(&first).unwrap();
                assert_eq!(replay.admit(&second).is_err(), unique, "{case}");
                let mut replay = Replay::over(&t);
                replay.reserve(&first);
                assert_eq!(replay.admit(&second).is_err(), unique, "{case}");
                admit_and_apply(&mut t, &first).unwrap();
                assert_eq!(Replay::over(&t).admit(&second).is_err(), unique, "{case}");
                if !unique {
                    admit_and_apply(&mut t, &both).unwrap();
                    assert_eq!(t.indexes[0].seek(&t.heap, slice::from_ref(&b)).len(), 3);
                }
            }
        }
    }

    proptest::proptest! {
        /// `arrive` keeps the keys sorted, and reports a clash exactly when
        /// a key arrives that a batch before it or another row of its own
        /// batch has.
        #[test]
        fn arrive_keeps_keys_sorted_and_sees_every_clash(
            batches in proptest::collection::vec(proptest::collection::vec(0i64..40, 0..6), 0..8),
        ) {
            let ix = BTreeIndex::new("ix", vec![0], true);
            let rows: Vec<Vec<Vec<Value>>> = batches
                .iter()
                .map(|b| b.iter().map(|&i| vec![Value::Int(i)]).collect())
                .collect();
            let mut keys: Vec<&[Value]> = Vec::new();
            let mut model: Vec<i64> = Vec::new();
            for (batch, ints) in rows.iter().zip(&batches) {
                let clash = arrive(&ix, &mut keys, batch.iter().map(Vec::as_slice));
                let distinct: BTreeSet<i64> = ints.iter().copied().collect();
                let twice = distinct.len() < ints.len() || ints.iter().any(|i| model.contains(i));
                proptest::prop_assert_eq!(clash, twice);
                model.extend(ints);
                model.sort_unstable();
                let held: Vec<Value> = keys.iter().map(|k| k[0].clone()).collect();
                let want: Vec<Value> = model.iter().map(|&i| Value::Int(i)).collect();
                proptest::prop_assert_eq!(held, want);
            }
        }
    }

    /// `k (id unique, tag unique, n CHECK 0..=9)` holding ids 0..4,
    /// tag = id, n = 1, at bookmarks 0..4.
    fn keyed_engine() -> StorageEngine {
        let int = |name| Column::not_null(name, DataType::Int);
        let def = TableDef::new("k", Schema::new(vec![int("id"), int("tag"), int("n")]))
            .with_index("pk", &["id"], true)
            .with_index("ux_tag", &["tag"], true)
            .with_index("ix_n", &["n"], false)
            .with_check(CheckConstraint {
                name: "ck_n".into(),
                column: "n".into(),
                domain: IntervalSet::single(Interval::between(Value::Int(0), Value::Int(9))),
            });
        let e = StorageEngine::new("local");
        e.create_table(def).unwrap();
        let rows: Vec<Row> = (0..4).map(|id| keyed_row(id, id, 1)).collect();
        e.insert_rows("k", &rows).unwrap();
        e
    }

    fn keyed() -> Table {
        keyed_engine().with_table("k", Table::clone).unwrap()
    }

    fn keyed_row(id: i64, tag: i64, n: i64) -> Row {
        Row::new(vec![Value::Int(id), Value::Int(tag), Value::Int(n)])
    }

    fn insert(rows: &[(i64, i64, i64)]) -> Batch<'static> {
        let rows = rows.iter().map(|&(id, tag, n)| keyed_row(id, tag, n));
        Batch::Insert(rows.collect::<Vec<_>>().into())
    }

    fn delete(bookmarks: &[u64]) -> Batch<'static> {
        Batch::Delete(bookmarks.to_vec().into())
    }

    fn update(rows: &[(u64, (i64, i64, i64))]) -> Batch<'static> {
        let bookmarks = rows.iter().map(|(b, _)| *b).collect::<Vec<_>>();
        let rows = rows
            .iter()
            .map(|(_, (id, tag, n))| keyed_row(*id, *tag, *n));
        Batch::Update(bookmarks.into(), rows.collect::<Vec<_>>().into())
    }

    /// `k`'s rows by bookmark: what the model of the table holds.
    type Model = BTreeMap<u64, Vec<Value>>;

    fn model_of(t: &Table) -> Model {
        t.heap.scan().map(|(b, r)| (b, r.into_vec())).collect()
    }

    /// The reference for one batch: apply it to a copy of `rows`, inserted
    /// rows taking bookmarks from `next`. `None` when it names a bookmark
    /// the copy does not hold (gone, or named before in the batch), or when
    /// the rows after it break `k`'s arity, CHECK or a unique key.
    fn applied(rows: &Model, batch: &Batch<'_>, next: &mut u64) -> Option<Model> {
        let mut copy = rows.clone();
        for b in batch.leaving() {
            copy.remove(b)?;
        }
        let bookmarks = batch.leaving().iter().map(|&b| Some(b));
        for (bookmark, row) in bookmarks
            .chain(std::iter::repeat(None))
            .zip(batch.arriving())
        {
            let at = bookmark.unwrap_or_else(|| {
                *next += 1;
                *next - 1
            });
            copy.insert(at, row.to_vec());
        }
        let in_check = |r: &Vec<Value>| matches!(r[2], Value::Int(n) if (0..=9).contains(&n));
        let valid = copy.values().all(|r| r.len() == 3 && in_check(r));
        let distinct = |col: usize| {
            let keys: BTreeSet<String> = copy.values().map(|r| format!("{:?}", r[col])).collect();
            keys.len() == copy.len()
        };
        (valid && distinct(0) && distinct(1)).then_some(copy)
    }

    /// The first batch of `batches` that [`Replay`] refuses, and the first
    /// the reference refuses; when neither refuses any, the batches
    /// applied to a copy of the table leave it as the reference does.
    fn first_refused(t: &Table, batches: &[Batch<'_>]) -> (Option<usize>, Option<usize>) {
        let mut replay = Replay::over(t);
        let replayed = batches.iter().position(|b| replay.admit(b).is_err());
        let (mut model, mut next) = (model_of(t), t.heap.scan().count() as u64);
        let mut refused = None;
        for (i, batch) in batches.iter().enumerate() {
            match applied(&model, batch, &mut next) {
                Some(after) => model = after,
                None => {
                    refused = Some(i);
                    break;
                }
            }
        }
        if (replayed, refused) == (None, None) {
            let mut copy = t.clone();
            batches.iter().for_each(|b| copy.apply(b).unwrap());
            assert_eq!(model_of(&copy), model);
            assert_eq!(indexed(&copy), indexed_model(&model));
        }
        (replayed, refused)
    }

    /// Each index's `(key, bookmark)` entries, read through the index.
    fn indexed(t: &Table) -> Vec<Vec<(Value, u64)>> {
        let through = |ix: usize| {
            let rows = t
                .index_range(&t.indexes[ix].name, &KeyRange::all())
                .unwrap();
            let key = t.indexes[ix].key_positions[0];
            let entries = rows
                .iter()
                .map(|r| (r.get(key).clone(), r.bookmark.unwrap()));
            entries.collect()
        };
        (0..t.indexes.len()).map(through).collect()
    }

    /// [`indexed`] as the model's rows say it must be.
    fn indexed_model(model: &Model) -> Vec<Vec<(Value, u64)>> {
        let by = |col: usize| {
            let mut entries: Vec<(Value, u64)> =
                model.iter().map(|(b, r)| (r[col].clone(), *b)).collect();
            entries.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            entries
        };
        vec![by(0), by(1), by(2)]
    }

    #[test]
    fn replay_refuses_what_apply_would() {
        let t = keyed();
        for (batches, refused) in [
            // A key is free once its holder is deleted — in that order.
            (vec![delete(&[1]), insert(&[(1, 1, 2)])], None),
            (vec![insert(&[(1, 9, 2)]), delete(&[1])], Some(0)),
            // Either unique index refuses; the non-unique one never does.
            (vec![insert(&[(9, 2, 1)])], Some(0)),
            (vec![insert(&[(8, 8, 1), (9, 9, 1)])], None),
            // Two inserted rows collide with each other, not with the table.
            (vec![insert(&[(8, 8, 1)]), insert(&[(9, 8, 1)])], Some(1)),
            (vec![insert(&[(8, 8, 1), (9, 8, 1)])], Some(0)),
            // A refused row refuses its whole batch, wherever it sits.
            (
                vec![insert(&[(10, 10, 1), (1, 11, 1), (11, 12, 1)])],
                Some(0),
            ),
            (
                vec![
                    delete(&[2]),
                    insert(&[(2, 8, 1), (9, 2, 1)]),
                    insert(&[(2, 7, 1)]),
                ],
                Some(2),
            ),
            // A batch is a set: old keys leave before new keys arrive.
            (vec![update(&[(0, (1, 0, 1)), (1, (2, 1, 1))])], Some(0)),
            (
                vec![update(&[
                    (0, (1, 0, 1)),
                    (1, (2, 1, 1)),
                    (2, (3, 2, 1)),
                    (3, (4, 3, 1)),
                ])],
                None,
            ),
            (vec![update(&[(3, (0, 3, 1)), (0, (3, 0, 1))])], None),
            // A row replaced twice gives up the key it was given first.
            (
                vec![
                    update(&[(0, (7, 0, 1))]),
                    update(&[(0, (8, 0, 1))]),
                    insert(&[(7, 7, 1)]),
                ],
                None,
            ),
            (
                vec![update(&[(0, (7, 0, 1))]), insert(&[(7, 7, 1)])],
                Some(1),
            ),
            // Bookmarks: beyond the heap, deleted twice, named twice.
            (vec![delete(&[99])], Some(0)),
            (vec![update(&[(99, (9, 9, 1))])], Some(0)),
            (vec![delete(&[3, 0]), delete(&[3])], Some(1)),
            (vec![delete(&[3, 3])], Some(0)),
            (vec![update(&[(3, (9, 9, 1)), (3, (8, 8, 1))])], Some(0)),
            (vec![delete(&[3]), update(&[(3, (9, 9, 1))])], Some(1)),
            // Arity and CHECK.
            (
                vec![Batch::Insert(vec![Row::new(vec![Value::Int(9)])].into())],
                Some(0),
            ),
            (vec![insert(&[(9, 9, 10)])], Some(0)),
            (vec![update(&[(1, (1, 1, 10))])], Some(0)),
        ] {
            assert_eq!(
                first_refused(&t, &batches),
                (refused, refused),
                "{batches:?}"
            );
        }
        // A row deleted before the transaction began dangles too.
        let mut holed = keyed();
        holed.apply(&delete(&[2])).unwrap();
        let batches = [delete(&[1]), delete(&[2])];
        assert_eq!(first_refused(&holed, &batches), (Some(1), Some(1)));
        // The batch arity: one row per bookmark.
        let short = Batch::Update(vec![0, 1].into(), vec![keyed_row(5, 5, 1)].into());
        assert!(Replay::over(&t).admit(&short).is_err());
    }

    /// A batch from generated numbers: `kind` picks insert, delete or
    /// update, `pick` a bookmark from `bookmarks`.
    fn batch_of(kind: u8, rows: &[(i64, i64, i64, u64)], bookmarks: &[u64]) -> Batch<'static> {
        let bookmark = |pick: u64| bookmarks[pick as usize % bookmarks.len()];
        match kind % 3 {
            0 => insert(
                &rows
                    .iter()
                    .map(|&(a, b, n, _)| (a, b, n))
                    .collect::<Vec<_>>(),
            ),
            1 => delete(&rows.iter().map(|r| bookmark(r.3)).collect::<Vec<_>>()),
            _ => update(
                &rows
                    .iter()
                    .map(|&(a, b, n, pick)| (bookmark(pick), (a, b, n)))
                    .collect::<Vec<_>>(),
            ),
        }
    }

    /// `(id, tag, n, bookmark pick)`: a tag is mostly its id's, and one
    /// `n` in eleven breaks the CHECK.
    fn rows() -> impl proptest::Strategy<Value = Vec<(i64, i64, i64, u64)>> {
        let row = (0i64..12, 0i64..4, 0i64..11, 0u64..16);
        let row = proptest::Strategy::prop_map(row, |(id, shift, n, pick)| {
            (id, if shift == 0 { (id + 1) % 12 } else { id }, n, pick)
        });
        proptest::collection::vec(row, 1..3)
    }

    proptest::proptest! {
        /// Against the reference that applies each batch to a copy and
        /// checks what the table holds after it: the same batch lists
        /// pass, and the same batch is the first to be refused.
        #[test]
        fn replay_agrees_with_applying_to_a_copy(
            batches in proptest::collection::vec((0u8..3, rows()), 0..5),
        ) {
            let t = keyed();
            // A live row's bookmark or a dangling one — never one a
            // buffered insert will get (see `Replay`).
            let bookmarks = [0, 1, 2, 3, 99];
            let batches: Vec<Batch> = batches
                .iter()
                .map(|(kind, rows)| batch_of(*kind, rows, &bookmarks))
                .collect();
            let (replayed, applied) = first_refused(&t, &batches);
            proptest::prop_assert_eq!(replayed, applied);
        }
    }

    /// What the engine's `k` must hold, and what each transaction buffered.
    struct Reference {
        rows: Model,
        /// The heap's next bookmark.
        next: u64,
        /// Per transaction: its batches, and whether it voted yes.
        txns: BTreeMap<TxnId, (Vec<Batch<'static>>, bool)>,
    }

    impl Reference {
        /// Whether `batches`, of `txn` or autocommit (`None`), are admitted
        /// now: each applies to a copy of the rows ([`applied`]), names no
        /// row another prepared transaction writes, and leaves no row but
        /// such a one with a key a prepared transaction's rows arrive with.
        /// A transaction's inserted rows take bookmarks nobody names.
        fn admits(&self, txn: Option<TxnId>, batches: &[Batch<'_>]) -> Option<Model> {
            let prepared = self
                .txns
                .iter()
                .filter(|(id, (_, yes))| *yes && Some(**id) != txn);
            let held: Vec<&Batch> = prepared.flat_map(|(_, (b, _))| b).collect();
            let locked: HashSet<u64> = held.iter().flat_map(|b| b.leaving()).copied().collect();
            let reserved: Vec<(String, String)> = held
                .iter()
                .flat_map(|b| b.arriving())
                .map(|r| (format!("{:?}", r[0]), format!("{:?}", r[1])))
                .collect();
            let mut next = match txn {
                None => self.next,
                Some(_) => 1 << 40,
            };
            let mut rows = self.rows.clone();
            for batch in batches {
                if batch.leaving().iter().any(|b| locked.contains(b)) {
                    return None;
                }
                rows = applied(&rows, batch, &mut next)?;
                let clash = rows
                    .iter()
                    .filter(|(b, _)| !locked.contains(b))
                    .any(|(_, r)| {
                        let (id, tag) = (format!("{:?}", r[0]), format!("{:?}", r[1]));
                        reserved.iter().any(|(i, t)| *i == id || *t == tag)
                    });
                if clash {
                    return None;
                }
            }
            Some(rows)
        }

        /// Commit `batches` into the rows, inserted rows taking the heap's
        /// next bookmarks.
        fn commit(&mut self, batches: &[Batch<'_>]) {
            for batch in batches {
                self.rows = applied(&self.rows, batch, &mut self.next).expect("admitted");
            }
        }
    }

    /// The table's rows and each index's entries.
    fn state(e: &StorageEngine) -> (Model, Vec<Vec<(Value, u64)>>) {
        e.with_table("k", |t| (model_of(t), indexed(t))).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Random interleavings of autocommit batches, buffered batches,
        /// prepare, commit and abort over three transactions. A yes vote
        /// always commits; a refused batch leaves the table and its indexes
        /// as they were; and the table is always what the reference says.
        #[test]
        fn every_yes_vote_commits_and_a_refused_batch_changes_nothing(
            steps in proptest::collection::vec((0u8..10, 1u64..4, 0u8..3, rows()), 1..32),
        ) {
            // The rows loaded, those autocommit inserts, and a dangling one.
            let bookmarks = [0, 1, 2, 3, 4, 5, 99];
            let e = keyed_engine();
            let mut reference = Reference {
                rows: state(&e).0,
                next: 4,
                txns: BTreeMap::new(),
            };
            for (step, txn, kind, rows) in &steps {
                let (step, txn) = (*step, *txn);
                let before = state(&e);
                match step {
                    // Autocommit, weighted like the buffered writes.
                    0..=2 => {
                        let batch = batch_of(*kind, rows, &bookmarks);
                        let want = reference.admits(None, std::slice::from_ref(&batch));
                        let got = e.write(None, "k", batch.clone());
                        proptest::prop_assert!(got.is_ok() == want.is_some(), "{:?}: {:?}", batch, got);
                        match want {
                            Some(rows) => {
                                if let Batch::Insert(inserted) = &batch {
                                    reference.next += inserted.len() as u64;
                                }
                                reference.rows = rows;
                            }
                            None => proptest::prop_assert_eq!(state(&e), before),
                        }
                    }
                    3..=5 => {
                        let batch = batch_of(*kind, rows, &bookmarks);
                        let prepared = reference.txns.get(&txn).is_some_and(|t| t.1);
                        let valid = batch.arriving().all(|r| matches!(r[2], Value::Int(n) if n <= 9));
                        let got = e.write(Some(txn), "k", batch.clone());
                        proptest::prop_assert_eq!(got.is_ok(), valid && !prepared);
                        if got.is_ok() {
                            reference.txns.entry(txn).or_default().0.push(batch);
                        }
                        proptest::prop_assert_eq!(state(&e), before);
                    }
                    6 | 7 => {
                        let got = e.prepare_txn(txn);
                        let want = match reference.txns.get(&txn) {
                            None => true,
                            Some((_, true)) => false,
                            Some((batches, false)) => reference.admits(Some(txn), batches).is_some(),
                        };
                        proptest::prop_assert!(got.is_ok() == want, "prepare {}: {:?}", txn, got);
                        if let (true, Some(t)) = (want, reference.txns.get_mut(&txn)) {
                            t.1 = true;
                        }
                        proptest::prop_assert_eq!(state(&e), before);
                    }
                    8 => {
                        let got = e.commit_txn(txn);
                        let want = match reference.txns.get(&txn) {
                            None => true,
                            Some((_, true)) => {
                                proptest::prop_assert!(got.is_ok(), "a yes vote did not commit: {:?}", got);
                                true
                            }
                            Some((batches, false)) => reference.admits(Some(txn), batches).is_some(),
                        };
                        proptest::prop_assert!(got.is_ok() == want, "commit {}: {:?}", txn, got);
                        if want {
                            if let Some((batches, _)) = reference.txns.remove(&txn) {
                                reference.commit(&batches);
                            }
                        } else {
                            proptest::prop_assert_eq!(state(&e), before);
                        }
                    }
                    _ => {
                        e.abort_txn(txn).unwrap();
                        reference.txns.remove(&txn);
                        proptest::prop_assert_eq!(state(&e), before);
                    }
                }
                let (rows, indexes) = state(&e);
                proptest::prop_assert_eq!(&indexes, &indexed_model(&rows));
                proptest::prop_assert_eq!(rows, reference.rows.clone());
            }
        }
    }
}
