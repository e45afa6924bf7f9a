//! Building a third-party provider — the extensibility claim of the paper
//! ("it suffices to build an OLE DB provider that exposes the capabilities
//! of the data source and the new provider can be plugged-in").
//!
//! This ~100-line provider exposes an in-memory key/value changelog as a
//! rowset; the DHQP supplies all querying on top (simple-provider class).
//! A provider implements the traits directly, as here; a decorator around
//! one (a meter, a cache, a fault injector) is a layer from
//! `dhqp_oledb::layer` and writes only what it changes. A provider added to
//! the tree joins `tests/conformance.rs`, which runs it bare and under the
//! pool and the link.
//!
//! ```text
//! cargo run --example custom_provider
//! ```

use dhqp::Engine;
use dhqp_oledb::{
    ColumnInfo, DataSource, MemRowset, ProviderCapabilities, Rowset, Session, TableInfo,
};
use dhqp_types::{Column, DataType, DhqpError, Interval, IntervalSet, Result, Row, Schema, Value};
use std::sync::Arc;

/// The data: an append-only changelog of (seq, key, op, value).
struct Changelog {
    entries: Vec<(i64, String, &'static str, Option<i64>)>,
}

/// The provider: ~60 lines to join the federation.
struct ChangelogProvider {
    log: Arc<Changelog>,
}

impl DataSource for ChangelogProvider {
    fn name(&self) -> &str {
        "changelog"
    }

    fn capabilities(&self) -> ProviderCapabilities {
        // Mandatory interfaces only: connect + named rowsets (§3.3 simple
        // provider). The DHQP does the rest.
        ProviderCapabilities::simple("EXAMPLE-CHANGELOG")
    }

    fn tables(&self) -> Result<Vec<TableInfo>> {
        Ok(vec![TableInfo {
            name: "events".into(),
            columns: vec![
                ColumnInfo::not_null("seq", DataType::Int),
                ColumnInfo::not_null("key", DataType::Str),
                ColumnInfo::not_null("op", DataType::Str),
                ColumnInfo::new("value", DataType::Int),
            ],
            indexes: Vec::new(),
            cardinality: Some(self.log.entries.len() as u64),
        }])
    }

    fn create_session(&self) -> Result<Box<dyn Session>> {
        Ok(Box::new(ChangelogSession {
            log: Arc::clone(&self.log),
        }))
    }
}

struct ChangelogSession {
    log: Arc<Changelog>,
}

// `open_rowset` is the whole session: every other `Session` method keeps
// its `Unsupported` default, and the DHQP works around each one. That
// includes `check_schema` — when this table is a member of a partitioned
// view (below), the engine cannot hand the member a schema stamp to check,
// so it fetches `tables()` and compares the columns itself before the open.
impl Session for ChangelogSession {
    fn open_rowset(&mut self, table: &str) -> Result<Box<dyn Rowset>> {
        if !table.eq_ignore_ascii_case("events") {
            return Err(DhqpError::Catalog(format!(
                "changelog has no table '{table}'"
            )));
        }
        let schema = Schema::new(vec![
            Column::not_null("seq", DataType::Int),
            Column::not_null("key", DataType::Str),
            Column::not_null("op", DataType::Str),
            Column::new("value", DataType::Int),
        ]);
        let rows = self
            .log
            .entries
            .iter()
            .enumerate()
            .map(|(i, (seq, key, op, value))| {
                Row::with_bookmark(
                    vec![
                        Value::Int(*seq),
                        Value::Str(key.clone()),
                        Value::Str(op.to_string()),
                        value.map_or(Value::Null, Value::Int),
                    ],
                    i as u64,
                )
            })
            .collect();
        // A source that produces its rows one at a time need not collect them:
        // `IterRowset::new(schema, iter)` makes any `Iterator<Item = Result<Row>>` a rowset.
        Ok(Box::new(MemRowset::new(schema, rows)))
    }
}

fn main() -> Result<()> {
    let log = Arc::new(Changelog {
        entries: vec![
            (1, "alpha".into(), "set", Some(10)),
            (2, "beta".into(), "set", Some(5)),
            (3, "alpha".into(), "set", Some(20)),
            (4, "beta".into(), "del", None),
            (5, "gamma".into(), "set", Some(7)),
            (6, "alpha".into(), "set", Some(30)),
        ],
    });
    let engine = Engine::new("local");
    engine.add_linked_server("changelog", Arc::new(ChangelogProvider { log }))?;

    // The provider knows nothing about SQL; the DHQP layers filtering,
    // grouping and ordering on top of its rowsets.
    let sql = "SELECT key, COUNT(*) AS writes, MAX(value) AS last_value \
               FROM changelog.db.dbo.events WHERE op = 'set' \
               GROUP BY key ORDER BY key";
    println!("{sql}\n");
    println!("{}", engine.query(sql)?.to_table());

    // Latest event per key via a correlated NOT EXISTS.
    let sql = "SELECT e.key, e.op, e.value FROM changelog.db.dbo.events e \
               WHERE NOT EXISTS (SELECT * FROM changelog.db.dbo.events newer \
                                 WHERE newer.key = e.key AND newer.seq > e.seq) \
               ORDER BY e.key";
    println!("{sql}\n");
    println!("{}", engine.query(sql)?.to_table());

    // A simple provider can hold a partitioned-view member too: delayed
    // schema validation falls back to the provider's metadata.
    engine.define_partitioned_view(
        "events_all",
        "seq",
        vec![(
            Some("changelog".to_string()),
            "events".to_string(),
            IntervalSet::single(Interval::at_least(Value::Int(1))),
        )],
    )?;
    let sql = "SELECT COUNT(*) AS events FROM events_all WHERE seq >= 3";
    println!("{sql}\n");
    println!("{}", engine.query(sql)?.to_table());
    Ok(())
}
