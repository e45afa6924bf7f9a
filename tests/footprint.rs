//! What the two in-memory access structures hold, counted exactly
//! (DESIGN.md §24): this binary installs its own counting allocator, and
//! counts per thread, so the numbers do not depend on what else runs.
//!
//! * The fedbench `docs_ft` catalog — `generate_documents(2000, 29)` —
//!   held 4 911 079 B in 63 227 allocations as one position list per
//!   (term, document); its contiguous posting lists hold 1 702 141 B in 243.
//! * A 10 000-row unique one-column index held 1 489 262 B in 21 665
//!   allocations (a `Vec<Value>` key and a `Vec<u64>` of one bookmark per
//!   row); with the key and the bookmark inline, 636 014 B in 1 665.

use dhqp_fulltext::{InvertedIndex, SearchService};
use dhqp_storage::Table;
use dhqp_types::{Column, DataType, Row, Schema, Value};
use dhqp_workload::docs::generate_documents;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Live bytes and live allocations made by this thread.
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: i64, allocations: i64) {
    // `try_with`: the slot is gone while the thread is torn down.
    let _ = LIVE.try_with(|live| {
        let (b, a) = live.get();
        live.set((b + bytes, a + allocations));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain thread-local statistics
// that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64, 1);
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
        for i in 0..10_000 {
            t.insert(Row::new(vec![Value::Int(i), Value::Int(i)]))
                .unwrap();
        }
        t
    };
    let (plain, _t) = held(|| table(false));
    let (indexed, t) = held(|| table(true));
    let (bytes, allocations) = (indexed.0 - plain.0, indexed.1 - plain.1);
    assert_eq!(t.indexes[0].len(), 10_000);
    assert!(bytes <= 950_000, "index holds {bytes} B");
    assert!(
        allocations <= 2_000,
        "index holds {allocations} allocations"
    );
}
