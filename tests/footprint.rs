//! What the three in-memory structures hold, counted exactly
//! (DESIGN.md §24), and what the catalog costs a bind and a cached plan
//! (DESIGN.md §11): this binary installs its own counting allocator, and
//! counts per thread, so the numbers do not depend on what else runs.
//!
//! * The fedbench `docs_ft` catalog — `generate_documents(2000, 29)` —
//!   held 4 911 079 B in 63 227 allocations as one position list per
//!   (term, document); its contiguous posting lists hold 1 702 141 B in 243.
//! * A 10 000-row unique one-column index held 1 489 262 B in 21 665
//!   allocations (a `Vec<Value>` key and a `Vec<u64>` of one bookmark per
//!   row); with the key and the bookmark inline, 636 014 B in 1 665; as one
//!   array of bookmarks in key order, the key read from the heap, 80 332 B
//!   in 4.

use dhqp::{EngineBuilder, EngineDataSource};
use dhqp_fulltext::{InvertedIndex, SearchService};
use dhqp_oledb::DataSource;
use dhqp_oledb::KeyRange;
use dhqp_storage::txn::Replay;
use dhqp_storage::{Batch, LocalDataSource, StorageEngine, Table, TableDef};
use dhqp_types::{Column, DataType, Row, Schema, Value};
use dhqp_workload::accounts::create_account_partition;
use dhqp_workload::docs::generate_documents;
use dhqp_workload::tpch::{self, TpchScale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    /// Live bytes and live allocations made by this thread.
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
    /// Allocations and bytes this thread asked for, frees not subtracted.
    static MADE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: i64, allocations: i64) {
    // `try_with`: the slot is gone while the thread is torn down.
    let _ = LIVE.try_with(|live| {
        let (b, a) = live.get();
        live.set((b + bytes, a + allocations));
    });
}

fn asked(bytes: usize) {
    let _ = MADE.try_with(|made| {
        let (a, b) = made.get();
        made.set((a + 1, b + bytes as u64));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain thread-local statistics
// that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64, 1);
        asked(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64), -1);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64, 0);
        asked(new_size);
        // SAFETY: forwarded with the caller's guarantees intact.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What `make`'s result holds live: `(bytes, allocations)`.
fn held<T>(make: impl FnOnce() -> T) -> ((i64, i64), T) {
    let (b0, a0) = LIVE.with(Cell::get);
    let value = make();
    let (b1, a1) = LIVE.with(Cell::get);
    ((b1 - b0, a1 - a0), value)
}

/// What `make` asked the allocator for: `(allocations, bytes)`.
fn made<T>(make: impl FnOnce() -> T) -> ((u64, u64), T) {
    let (a0, b0) = MADE.with(Cell::get);
    let value = make();
    let (a1, b1) = MADE.with(Cell::get);
    ((a1 - a0, b1 - b0), value)
}

/// An eight-column table definition, keyed on `c0`.
fn wide(name: &str) -> TableDef {
    let columns = (0..8)
        .map(|j| Column::not_null(format!("c{j}"), DataType::Int))
        .collect();
    TableDef::new(name, Schema::new(columns)).with_index(&format!("pk_{name}"), &["c0"], true)
}

#[test]
fn the_docs_catalog_holds_under_two_megabytes() {
    let docs: Vec<(u64, String)> = generate_documents(2000, 29)
        .into_iter()
        .enumerate()
        .map(|(i, d)| (i as u64, d.raw))
        .collect();
    let svc = SearchService::new();
    svc.create_catalog("docs_ft").unwrap();
    let ((bytes, allocations), ()) = held(|| {
        let index = InvertedIndex::build(docs.iter().map(|(k, t)| (*k, t.as_str())));
        svc.replace_index("docs_ft", index).unwrap();
    });
    assert_eq!(
        svc.with_catalog("docs_ft", |c| c.doc_count()).unwrap(),
        2000
    );
    assert!(bytes <= 2_000_000, "catalog holds {bytes} B");
    assert!(
        allocations <= 1_000,
        "catalog holds {allocations} allocations"
    );
}

#[test]
fn a_unique_one_column_index_holds_under_a_megabyte() {
    let table = |indexed: bool| {
        let schema = Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::not_null("balance", DataType::Int),
        ]);
        let mut t = Table::new("w", schema);
        if indexed {
            t.create_index("pk_w", &["id"], true).unwrap();
        }
        let rows: Vec<Row> = (0..10_000)
            .map(|i| Row::new(vec![Value::Int(i), Value::Int(i)]))
            .collect();
        t.apply(&Batch::Insert(rows.into())).unwrap();
        t
    };
    let (plain, _t) = held(|| table(false));
    let (indexed, t) = held(|| table(true));
    let (bytes, allocations) = (indexed.0 - plain.0, indexed.1 - plain.1);
    assert_eq!(t.indexes[0].len(), 10_000);
    assert!(bytes <= 80_400, "index holds {bytes} B");
    assert!(allocations <= 4, "index holds {allocations} allocations");
}

/// An UPDATE that keeps every index key — `dml_2pc`'s `SET balance = …` —
/// leaves the index as it was, byte for byte and in the same allocation,
/// and the whole apply asks the allocator for nothing.
#[test]
fn an_update_of_a_non_key_column_leaves_the_index_in_place() {
    let schema = Schema::new(vec![
        Column::not_null("id", DataType::Int),
        Column::not_null("balance", DataType::Int),
    ]);
    let mut t = Table::new("acct", schema);
    t.create_index("pk_acct", &["id"], true).unwrap();
    let rows: Vec<Row> = (0..2_500)
        .map(|i| Row::new(vec![Value::Int((i * 7) % 2_500), Value::Int(1_000)]))
        .collect();
    t.apply(&Batch::Insert(rows.into())).unwrap();
    let before = t.indexes[0].bookmarks().to_vec();
    let at = t.indexes[0].bookmarks().as_ptr();

    let rows = [
        Row::new(vec![Value::Int(7), Value::Int(999)]),
        Row::new(vec![Value::Int(14), Value::Int(1_001)]),
    ];
    let update = Batch::Update(vec![1, 2].into(), rows[..].into());
    let ((asked, _), applied) = made(|| t.apply(&update));
    applied.unwrap();
    assert_eq!(asked, 0, "the update asked for {asked} allocations");
    assert_eq!(t.indexes[0].bookmarks(), before);
    assert_eq!(t.indexes[0].bookmarks().as_ptr(), at);
    assert_eq!(
        t.index_range("pk_acct", &KeyRange::eq(vec![Value::Int(14)]))
            .unwrap()[0]
            .values,
        [Value::Int(14), Value::Int(1_001)]
    );

    // A key that changes moves its entry and nothing else.
    let moved = [Row::new(vec![Value::Int(2_500), Value::Int(0)])];
    t.apply(&Batch::Update(vec![1].into(), moved[..].into()))
        .unwrap();
    let mut expected = before.clone();
    expected.retain(|&b| b != 1);
    expected.push(1);
    assert_eq!(t.indexes[0].bookmarks(), expected);
}

/// A point write's allocations on a 2 500-row `accounts`-shaped table with
/// one unique index, whose arrays already have room for another row.
/// Admitting a one-row INSERT asks for the replay's list of unique indexes
/// and one list of arrived keys; a one-row UPDATE that keeps its key also
/// for the map of rows it touches. Applying the INSERT asks for the list of
/// arriving bookmarks only: when the index made its own unique check, it
/// also asked for each arriving entry's place, 2 allocations.
#[test]
fn a_point_write_asks_for_an_allocation_or_two() {
    let schema = Schema::new(vec![
        Column::not_null("id", DataType::Int),
        Column::not_null("balance", DataType::Int),
    ]);
    let mut t = Table::new("acct", schema);
    t.create_index("pk_acct", &["id"], true).unwrap();
    let row = |id: i64| Row::new(vec![Value::Int(id), Value::Int(1_000)]);
    let rows: Vec<Row> = (0..2_500).map(row).collect();
    t.apply(&Batch::Insert(rows.into())).unwrap();
    // One more row grows every array past its length.
    t.apply(&Batch::Insert(vec![row(2_500)].into())).unwrap();

    let inserted = [row(2_501)];
    let insert = Batch::Insert(inserted[..].into());
    let kept = [Row::new(vec![Value::Int(7), Value::Int(999)])];
    let update = Batch::Update(vec![7].into(), kept[..].into());
    let ((admit_insert, _), admitted) = made(|| Replay::over(&t).admit(&insert));
    admitted.unwrap();
    let ((admit_update, _), admitted) = made(|| Replay::over(&t).admit(&update));
    admitted.unwrap();
    let ((apply_insert, _), applied) = made(|| t.apply(&insert));
    applied.unwrap();
    assert!(
        admit_insert <= 2,
        "admitting the insert asked for {admit_insert} allocations"
    );
    assert!(
        admit_update <= 3,
        "admitting the update asked for {admit_update} allocations"
    );
    assert!(
        apply_insert <= 1,
        "applying the insert asked for {apply_insert} allocations"
    );
    assert_eq!(t.indexes[0].len(), 2_502);
}

/// The fedbench fixture's 23 indexes — the head's, `remote0`'s and the
/// members', as the oracle holds them in one engine — hold one 8-B
/// bookmark per row: 63 646 entries in 515 763 B. As one `BTreeSet` of
/// `(key, bookmark)` entries they held 3 569 043 B.
#[test]
fn the_fixture_indexes_hold_a_bookmark_per_row() {
    let storage = fixture_shaped();
    let mut indexes = 0;
    let mut entries = 0;
    let mut bytes = 0;
    for name in storage.table_names() {
        let taken = storage
            .with_table_mut(&name, |t| Ok(std::mem::take(&mut t.indexes)))
            .unwrap();
        indexes += taken.len();
        entries += taken.iter().map(|ix| ix.len()).sum::<usize>();
        let ((freed, _), ()) = held(|| drop(taken));
        bytes -= freed;
    }
    assert_eq!((indexes, entries), (23, 63_646));
    assert!(bytes <= 600_000, "the fixture's indexes hold {bytes} B");
}

/// The tables of the fedbench fixture at its full scale, with their
/// indexes, in one storage engine. Only the keys matter here, so the text
/// columns are short.
fn fixture_shaped() -> StorageEngine {
    let storage = StorageEngine::new("fixture");
    let scale = TpchScale::small();
    let mut rng = StdRng::seed_from_u64(13);
    tpch::create_region(&storage).unwrap();
    tpch::create_nation(&storage, &scale).unwrap();
    tpch::create_orders(&storage, &scale, &mut rng).unwrap();
    tpch::create_customer(&storage, &scale, &mut rng).unwrap();
    tpch::create_supplier(&storage, &scale, &mut rng).unwrap();
    tpch::create_lineitem_partitions(&[&storage], &scale, 17).unwrap();
    for i in 0..4 {
        let lo = i * 2_500;
        create_account_partition(&storage, &format!("accounts_{i}"), lo, lo + 2_499, 1_000)
            .unwrap();
    }
    let int = |name| Column::not_null(name, DataType::Int);
    let keyed = |name: &str, second: Column, indexes: &[(&str, &str, bool)], rows: Vec<Row>| {
        let mut def = TableDef::new(name, Schema::new(vec![int("id"), second]));
        for &(ix, column, unique) in indexes {
            def = def.with_index(ix, &[column], unique);
        }
        storage.create_table(def).unwrap();
        storage.insert_rows(name, &rows).unwrap();
    };
    let pair = |id: i64, second: Value| Row::new(vec![Value::Int(id), second]);
    let dim = (0..512).map(|id| pair(id, Value::Int(id / 16))).collect();
    let ixs = [("pk_dim", "id", true), ("ix_dim_grp", "grp", false)];
    keyed("dim", int("grp"), &ixs, dim);
    let text = || Column::not_null("body", DataType::Str);
    let docs = (0..2_000)
        .map(|id| pair(id, Value::Str("d".into())))
        .collect();
    keyed("docs", text(), &[("pk_docs", "id", true)], docs);
    let fact = (0..8_192)
        .map(|i| pair(i % 512, Value::Str("f".into())))
        .collect();
    keyed("fact", text(), &[("ix_fact_id", "id", false)], fact);
    storage
}

/// A heap holds one array per column at the column's declared type, with
/// a NULL bit per slot (DESIGN.md §24), so loading a table allocates its
/// strings and a few arrays, not one `Vec` per row, and an INT costs 8 B,
/// not a 24-B `Value`. `insert_rows` of 10 000 `(BIGINT, VARCHAR)` rows
/// with 10-byte names:
///
/// * one `Option<Row>` per slot, each pointing at its own `Vec<Value>`:
///   1 235 360 B live in 20 001 allocations, 20 014 asked for; deleting
///   every other row freed 290 000 B in 10 000 allocations;
/// * one `Vec<Value>`, reserved once, and a live flag per slot: 590 000 B
///   live in 10 002 allocations, 10 003 asked for;
/// * one array per column — `i64`s, `Box<str>`s — and a live flag per
///   slot: 352 512 B live in 10 005 allocations, 10 006 asked for.
///   Deleting every other row frees its string, 50 000 B in 5 000
///   allocations; the slot keeps its 8-B integer and an empty string.
#[test]
fn a_heap_holds_one_array_per_column() {
    // What a row costs on its way in and out of the heap, not in it: the
    // heap stores no `Value`.
    assert_eq!(std::mem::size_of::<Value>(), 24);
    let storage = StorageEngine::new("local");
    let schema = Schema::new(vec![
        Column::not_null("id", DataType::Int),
        Column::not_null("name", DataType::Str),
    ]);
    storage.create_table(TableDef::new("h", schema)).unwrap();
    let rows: Vec<Row> = (0..10_000)
        .map(|i| Row::new(vec![Value::Int(i), Value::Str(format!("name_{i:05}"))]))
        .collect();
    let name_bytes = 10;

    let ((bytes, allocations), ((asked, _), n)) =
        held(|| made(|| storage.insert_rows("h", &rows).unwrap()));
    assert_eq!(n, 10_000);
    assert!(
        asked <= 10_000 + 8,
        "loading asked for {asked} allocations for 10 000 strings"
    );
    assert!(
        allocations <= 10_000 + 8,
        "the heap holds {allocations} allocations"
    );
    assert!(bytes <= 400_000, "the heap holds {bytes} B");

    let every_other: Vec<u64> = (0..10_000).step_by(2).collect();
    let ((freed_bytes, freed_allocations), _) = held(|| {
        storage
            .write(None, "h", Batch::Delete(every_other[..].into()))
            .unwrap()
    });
    assert_eq!(freed_allocations, -5_000, "a delete frees the row's string");
    assert!(
        -freed_bytes >= 5_000 * name_bytes,
        "deleting 5 000 rows freed {} B",
        -freed_bytes
    );
    assert_eq!(storage.with_table("h", |t| t.row_count()).unwrap(), 5_000);
}

/// A `lineitem`-shaped table — four INT, one FLOAT and one DATE — holds
/// 24 000 rows in 1 098 000 B: 44 B of values and a live flag per row, six
/// NULL bits. As one `Vec<Value>` it held 6 × 24 + 1 = 145 B per row,
/// 3 480 000 B.
#[test]
fn a_numeric_heap_costs_its_declared_types() {
    let storage = StorageEngine::new("local");
    let int = |name| Column::not_null(name, DataType::Int);
    let schema = Schema::new(vec![
        int("l_orderkey"),
        int("l_partkey"),
        int("l_suppkey"),
        int("l_linenumber"),
        Column::not_null("l_extendedprice", DataType::Float),
        Column::not_null("l_shipdate", DataType::Date),
    ]);
    storage.create_table(TableDef::new("l", schema)).unwrap();
    let rows: Vec<Row> = (0..24_000)
        .map(|i| {
            let mut values: Vec<Value> = (0..4).map(|k| Value::Int(i * 4 + k)).collect();
            values.push(Value::Float(i as f64 * 1.5));
            values.push(Value::Date(9_000 + (i % 2_500) as i32));
            Row::new(values)
        })
        .collect();
    let ((bytes, allocations), n) = held(|| storage.insert_rows("l", &rows).unwrap());
    assert_eq!(n, 24_000);
    assert!(bytes <= 1_200_000, "the heap holds {bytes} B");
    assert!(
        allocations <= 16,
        "the heap holds {allocations} allocations"
    );
}

/// A table lookup costs the one table asked for: the provider default
/// built every table's metadata (columns, indexes, row count) to return
/// one, on every local table reference of every bind.
#[test]
fn one_table_lookup_allocates_the_same_whatever_the_catalog_holds() {
    let local = |tables: usize| {
        let storage = Arc::new(StorageEngine::new("local"));
        for i in 0..tables {
            storage.create_table(wide(&format!("t{i}"))).unwrap();
        }
        LocalDataSource::new(storage)
    };
    let lookup = |source: &dyn DataSource| {
        let (asked, info) = made(|| source.table("T0").unwrap());
        assert_eq!((info.name.as_str(), info.columns.len()), ("t0", 8));
        asked
    };
    let (one, many) = (local(1), local(64));
    assert_eq!(lookup(&one), lookup(&many));
    let missing = many.table("t64").unwrap_err();
    assert_eq!(missing.kind(), "catalog");
    assert!(
        missing
            .to_string()
            .contains("table 't64' not found in source 'local'"),
        "{missing}"
    );

    // A member engine's source answers through the same lookup.
    let engine = |tables: usize| {
        let engine = EngineBuilder::from_lookup("member", |_| None).build();
        for i in 0..tables {
            engine.create_table(wide(&format!("t{i}"))).unwrap();
        }
        EngineDataSource::new(engine)
    };
    assert_eq!(lookup(&engine(1)), lookup(&engine(64)));
}

/// A cached plan points at its table's statistics instead of holding a
/// copy: two engines whose one table differs only in histogram size (16
/// against 256 buckets on each of eight columns) hold the same bytes per
/// cached plan. A copy per plan held 9.1 KB against 85.9 KB.
#[test]
fn a_cached_plan_holds_no_copy_of_its_statistics() {
    let per_plan = |buckets: usize| -> i64 {
        // Defaults whatever `DHQP_*` leg runs the suite: the plan cache
        // is on and every statement compiles on this thread.
        let engine = EngineBuilder::from_lookup("stats", |_| None).build();
        engine.create_table(wide("w")).unwrap();
        let rows: Vec<Row> = (0..4096i64)
            .map(|i| {
                Row::new(
                    (0..8)
                        .map(|j| Value::Int((i * (2 * j + 1)) % 4096))
                        .collect(),
                )
            })
            .collect();
        engine.insert("w", &rows).unwrap();
        engine.analyze("w", buckets).unwrap();
        // 32 templates, one per projection: even ones seek the key, odd
        // ones scan.
        let statements = (1..=32u32).map(|mask| {
            let columns: Vec<String> = (0..6)
                .filter(|j| mask & (1 << j) != 0)
                .map(|j| format!("c{j}"))
                .collect();
            let filter = if mask % 2 == 0 {
                "c0 = 17"
            } else {
                "c1 > 4000"
            };
            format!("SELECT {} FROM w WHERE {filter}", columns.join(", "))
        });
        for sql in statements {
            engine.execute(&sql).unwrap();
        }
        assert_eq!(engine.plan_cache_len(), 32);
        let (live, _) = LIVE.with(Cell::get);
        engine.set_plan_cache_enabled(false);
        assert_eq!(engine.plan_cache_len(), 0);
        let (evicted, _) = LIVE.with(Cell::get);
        (live - evicted) / 32
    };
    let (small, large) = (per_plan(16), per_plan(256));
    assert!(
        (large - small).abs() < 1024,
        "a cached plan holds {small} B over 16-bucket histograms and {large} B over 256"
    );
}
