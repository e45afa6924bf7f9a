//! Data source, session and command objects (paper §3.1.1, Figure 3).
//!
//! The calling sequence mirrors OLE DB's: instantiate a data source
//! (`CoCreateInstance` + `IDBInitialize`), create a session
//! (`IDBCreateSession`), then either open a rowset directly on a named table
//! (`IOpenRowset`) or create a command, set its text, and execute it
//! (`IDBCreateCommand` → `ICommand::Execute`).
//!
//! Default method bodies return [`DhqpError::Unsupported`], so a *simple
//! provider* in the sense of §3.3 only implements `open_rowset` and gets
//! everything else — querying, indexing, statistics — layered on top by the
//! DHQP, exactly as the paper prescribes.

use crate::capabilities::ProviderCapabilities;
use crate::rowset::Rowset;
use crate::schema::TableInfo;
use crate::statistics::Histogram;
use crate::telemetry::LatencySummary;
use dhqp_types::{DhqpError, Interval, IntervalBound, Result, Row, Value};
use serde::{Deserialize, Serialize};

/// Identifier of a distributed transaction, handed out by the coordinator.
pub type TxnId = u64;

/// Wire traffic: a point-in-time copy of a source's counters (subtract two
/// to get what crossed between them), or what one remote call was charged.
/// Defined here (rather than in the network simulator) so a link can charge
/// it to the calling thread ([`crate::record_traffic`]) and the engine can
/// read it without knowing how a source is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TrafficSnapshot {
    pub requests: u64,
    pub rows: u64,
    pub bytes: u64,
    /// Row-shipping transfers: one per wire flush. Row-at-a-time cursoring
    /// records one per row; batched cursoring one per chunk, so
    /// `rows / batches` is the observed rows-per-round-trip gauge.
    #[serde(default)]
    pub batches: u64,
}

impl TrafficSnapshot {
    /// Traffic that happened between `earlier` and `self`. Saturating:
    /// snapshots taken across a link reset (or passed in the wrong order)
    /// clamp to zero instead of panicking on underflow.
    pub fn since(&self, earlier: &TrafficSnapshot) -> TrafficSnapshot {
        TrafficSnapshot {
            requests: self.requests.saturating_sub(earlier.requests),
            rows: self.rows.saturating_sub(earlier.rows),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            batches: self.batches.saturating_sub(earlier.batches),
        }
    }

    /// True when no traffic at all was recorded.
    pub fn is_zero(&self) -> bool {
        *self == TrafficSnapshot::default()
    }

    /// Average rows shipped per wire flush (`None` before any row shipped).
    pub fn rows_per_round_trip(&self) -> Option<f64> {
        if self.batches == 0 {
            None
        } else {
            Some(self.rows as f64 / self.batches as f64)
        }
    }
}

impl std::ops::Add for TrafficSnapshot {
    type Output = TrafficSnapshot;
    fn add(self, rhs: TrafficSnapshot) -> TrafficSnapshot {
        TrafficSnapshot {
            requests: self.requests + rhs.requests,
            rows: self.rows + rhs.rows,
            bytes: self.bytes + rhs.bytes,
            batches: self.batches + rhs.batches,
        }
    }
}

/// The connection abstraction: locate/activate a provider and describe it.
pub trait DataSource: Send + Sync {
    /// Linked-server-visible name of this data source instance.
    fn name(&self) -> &str;

    /// Capability set the optimizer plans against (`IDBProperties`/
    /// `IDBInfo`).
    fn capabilities(&self) -> ProviderCapabilities;

    /// Table metadata (`IDBSchemaRowset`): every table this source exposes,
    /// with columns, indexes and cardinality where known.
    fn tables(&self) -> Result<Vec<TableInfo>>;

    /// Create a unit-of-work session.
    fn create_session(&self) -> Result<Box<dyn Session>>;

    /// Cumulative wire-traffic counters for reaching this source, when it is
    /// metered (e.g. wrapped in a simulated network link); local sources
    /// return `None`. Per-link totals (`sys.dm_link_stats`) read it; a
    /// remote plan node is charged its own traffic by the link itself
    /// ([`crate::charged`]), not from these counters.
    fn traffic(&self) -> Option<TrafficSnapshot> {
        None
    }

    /// Per-request latency percentiles (microseconds) for reaching this
    /// source, when it is metered. Like [`DataSource::traffic`], local
    /// sources return `None`; simulated links report their modeled
    /// round-trip distribution.
    fn latency(&self) -> Option<LatencySummary> {
        None
    }

    /// Convenience metadata lookup.
    fn table(&self, name: &str) -> Result<TableInfo> {
        self.tables()?
            .into_iter()
            .find(|t| t.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                DhqpError::Catalog(format!(
                    "table '{}' not found in source '{}'",
                    name,
                    self.name()
                ))
            })
    }
}

/// A seek range over an index (`IRowsetIndex::SetRange`): bounds are
/// composite key prefixes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KeyRange {
    /// Lower bound key prefix and whether it is inclusive.
    pub low: Option<(Vec<Value>, bool)>,
    /// Upper bound key prefix and whether it is inclusive.
    pub high: Option<(Vec<Value>, bool)>,
}

impl KeyRange {
    /// The unbounded range: full index scan in key order.
    pub fn all() -> Self {
        KeyRange::default()
    }

    /// Exact-match seek on a key prefix.
    pub fn eq(key: Vec<Value>) -> Self {
        KeyRange {
            low: Some((key.clone(), true)),
            high: Some((key, true)),
        }
    }

    /// The seek range over every key in `interval`, bounds at its own
    /// values, uncast: keys are ordered by [`Value::total_cmp`], which
    /// agrees with SQL wherever SQL compares two values (INT with FLOAT,
    /// both zeros), so a bound of another type is placed as SQL compares it.
    pub fn covering(interval: &Interval) -> KeyRange {
        let bound = |b: &IntervalBound| match b {
            IntervalBound::Unbounded => None,
            IntervalBound::Included(v) => Some((vec![v.clone()], true)),
            IntervalBound::Excluded(v) => Some((vec![v.clone()], false)),
        };
        KeyRange {
            low: bound(&interval.low),
            high: bound(&interval.high),
        }
    }

    /// Whether a key (compared column-wise on the shared prefix) falls in
    /// the range.
    pub fn contains(&self, key: &[Value]) -> bool {
        fn cmp_prefix(key: &[Value], bound: &[Value]) -> std::cmp::Ordering {
            for (k, b) in key.iter().zip(bound.iter()) {
                let o = k.total_cmp(b);
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        }
        if let Some((lo, inclusive)) = &self.low {
            match cmp_prefix(key, lo) {
                std::cmp::Ordering::Less => return false,
                std::cmp::Ordering::Equal if !inclusive => return false,
                _ => {}
            }
        }
        if let Some((hi, inclusive)) = &self.high {
            match cmp_prefix(key, hi) {
                std::cmp::Ordering::Greater => return false,
                std::cmp::Ordering::Equal if !inclusive => return false,
                _ => {}
            }
        }
        true
    }
}

/// Result of executing a command: either tabular data or an affected-row
/// count (DML).
pub enum CommandResult {
    Rowset(Box<dyn Rowset>),
    RowCount(u64),
}

impl CommandResult {
    pub fn into_rowset(self) -> Result<Box<dyn Rowset>> {
        match self {
            CommandResult::Rowset(r) => Ok(r),
            CommandResult::RowCount(_) => Err(DhqpError::Provider(
                "command returned a row count, expected a rowset".into(),
            )),
        }
    }

    pub fn into_row_count(self) -> Result<u64> {
        match self {
            CommandResult::RowCount(n) => Ok(n),
            CommandResult::Rowset(_) => Err(DhqpError::Provider(
                "command returned a rowset, expected a row count".into(),
            )),
        }
    }
}

/// Whether command text is a plain `SELECT`, the one test of "this only
/// reads" that fault injection, retries and a provider running pushed text
/// share. Conservative: anything else counts as a write.
pub fn is_read_only(text: &str) -> bool {
    text.trim_start()
        .get(..6)
        .is_some_and(|head| head.eq_ignore_ascii_case("select"))
}

/// The answer of an optional verb a provider has not claimed.
fn unsupported<T>(what: &str) -> Result<T> {
    Err(DhqpError::Unsupported(what.into()))
}

/// The command object (`ICommand`): a textual query in whatever language the
/// provider speaks (Table 1 of the paper lists T-SQL, the Index Server
/// query language, MDX, LDAP, ...).
pub trait Command: Send {
    /// Set the command text (`ICommandText::SetCommandText`).
    fn set_text(&mut self, text: &str) -> Result<()>;

    /// Bind a positional parameter (enables the *parameterization*
    /// exploration rule of §4.1.2).
    fn bind_parameter(&mut self, ordinal: usize, value: Value) -> Result<()> {
        let _ = (ordinal, value);
        unsupported("provider does not support command parameters")
    }

    /// Execute and return rows or an affected count.
    fn execute(&mut self) -> Result<CommandResult>;
}

/// The session object: transactional scope + rowset factory.
#[allow(unused_variables)]
pub trait Session: Send {
    /// Open a rowset over a named base table (`IOpenRowset`). The one
    /// mandatory data-access method: every provider supports it.
    fn open_rowset(&mut self, table: &str) -> Result<Box<dyn Rowset>>;

    /// Create a command object, for providers with query support.
    fn create_command(&mut self) -> Result<Box<dyn Command>> {
        unsupported("provider has no command support")
    }

    /// Open a rowset over an index restricted to a key range
    /// (`IRowsetIndex`). Rows come back in key order carrying bookmarks.
    fn open_index(
        &mut self,
        table: &str,
        index: &str,
        range: &KeyRange,
    ) -> Result<Box<dyn Rowset>> {
        unsupported("provider has no index support")
    }

    /// Fetch base-table rows by bookmark (`IRowsetLocate`), in the order
    /// given; the basis of the *remote fetch* access path.
    fn fetch_by_bookmarks(&mut self, table: &str, bookmarks: &[u64]) -> Result<Vec<Row>> {
        unsupported("provider has no bookmark support")
    }

    /// Delayed schema validation (§4.1.5) as part of the open: the consumer
    /// announces that the next request on this session reads `table` and was
    /// compiled against a column list stamping to `stamp`
    /// ([`TableInfo::schema_stamp`]). A provider that implements this
    /// compares against the *live, full* column list of `table` and refuses
    /// with [`DhqpError::SchemaDrift`] on a mismatch (a missing table keeps
    /// its own error). It costs no round trip of its own: on the wire the
    /// stamp rides the request that follows. The default `Unsupported` is
    /// the capability signal — the consumer then fetches
    /// [`DataSource::table`] and compares the columns itself, so a provider
    /// that implements nothing stays exactly as safe, one metadata request
    /// dearer.
    fn check_schema(&mut self, table: &str, stamp: u64) -> Result<()> {
        unsupported("provider does not check schema stamps")
    }

    /// Histogram over one column (the §3.2.4 statistics extension), `None`
    /// when the provider keeps no statistics for it.
    fn histogram(&mut self, table: &str, column: &str) -> Result<Option<Histogram>> {
        Ok(None)
    }

    /// Enlist this session in a distributed transaction
    /// (`ITransactionJoin::JoinTransaction`). Writes made through this
    /// session then commit or abort with the coordinator's decision. The
    /// consumer does not wait for the answer: on the wire, enlistment goes
    /// with the first request made under the transaction.
    fn join_transaction(&mut self, txn: TxnId) -> Result<()> {
        unsupported("provider cannot enlist in distributed transactions")
    }

    /// 2PC phase one: promise to commit `txn`. Must be durable before
    /// returning Ok.
    fn prepare(&mut self, txn: TxnId) -> Result<()> {
        unsupported("provider cannot prepare")
    }

    /// Phase one as part of a write: the consumer announces that the next
    /// `insert`/`delete_by_bookmarks`/`update_by_bookmarks` on this session
    /// is the last one it makes under `txn`, and asks for the vote with its
    /// answer. A provider that implements this prepares `txn` right after
    /// that write — with everything [`Session::prepare`] promises — and
    /// answers a refusal in the write's place; `Ok` from the write is then a
    /// yes vote, and no write may follow it. Like [`Session::check_schema`]
    /// it costs no round trip of its own, and the default `Unsupported` is
    /// the capability signal: the coordinator then sends the explicit
    /// `prepare` as before.
    fn vote_with_next_write(&mut self, txn: TxnId) -> Result<()> {
        unsupported("provider votes only when asked to prepare")
    }

    /// Both phases as part of a write — the last-agent optimization: every
    /// other participant has voted yes, so this one's vote is the decision.
    /// The consumer announces that the next write on this session (a write
    /// verb, or a command that writes) is the last one it makes under `txn`;
    /// a provider that implements this runs that write, then prepares and
    /// commits `txn` right behind it, all or nothing. `Ok` from the write
    /// means committed; an error means `txn` was rolled back here, whether
    /// the write, the prepare or the commit failed. Either way the session
    /// has left the transaction when the write is answered, and no `commit`
    /// or `abort` follows. It costs no round trip of its own, and the
    /// default `Unsupported` is the capability signal: the coordinator then
    /// asks for the vote with the write ([`Session::vote_with_next_write`])
    /// and sends `commit` after it.
    fn commit_with_next_write(&mut self, txn: TxnId) -> Result<()> {
        unsupported("provider commits only when told the outcome")
    }

    /// 2PC phase two: make `txn`'s writes visible.
    fn commit(&mut self, txn: TxnId) -> Result<()> {
        unsupported("provider cannot commit")
    }

    /// 2PC phase two (failure path): discard `txn`'s writes.
    fn abort(&mut self, txn: TxnId) -> Result<()> {
        unsupported("provider cannot abort")
    }

    /// Insert rows into a base table. Providers that only support command
    /// text can leave this unimplemented; the DHQP will send INSERT
    /// statements instead.
    fn insert(&mut self, table: &str, rows: &[Row]) -> Result<u64> {
        unsupported("provider does not support direct inserts")
    }

    /// Delete rows by bookmark. Returns the number deleted.
    fn delete_by_bookmarks(&mut self, table: &str, bookmarks: &[u64]) -> Result<u64> {
        unsupported("provider does not support direct deletes")
    }

    /// Update rows by bookmark: `updates[i]` replaces the row at
    /// `bookmarks[i]`.
    fn update_by_bookmarks(
        &mut self,
        table: &str,
        bookmarks: &[u64],
        updates: &[Row],
    ) -> Result<u64> {
        unsupported("provider does not support direct updates")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowset::MemRowset;
    use dhqp_types::Schema;

    struct NullSession;
    impl Session for NullSession {
        fn open_rowset(&mut self, _table: &str) -> Result<Box<dyn Rowset>> {
            Ok(Box::new(MemRowset::empty(Schema::empty())))
        }
    }

    #[test]
    fn trait_objects_cross_threads() {
        // The executor's exchange workers and prefetchers move sessions,
        // commands and rowsets onto worker threads while sharing the data
        // source itself — the trait bounds must guarantee it.
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        fn assert_send<T: Send + ?Sized>() {}
        assert_send_sync::<dyn DataSource>();
        assert_send::<dyn Session>();
        assert_send::<dyn Command>();
        assert_send::<dyn Rowset>();
        assert_send::<Box<dyn Rowset>>();
        assert_send_sync::<std::sync::Arc<dyn DataSource>>();
    }

    #[test]
    fn defaults_are_unsupported() {
        let mut s = NullSession;
        assert!(s.open_rowset("t").is_ok());
        assert!(matches!(s.create_command(), Err(DhqpError::Unsupported(_))));
        assert!(matches!(
            s.open_index("t", "i", &KeyRange::all()),
            Err(DhqpError::Unsupported(_))
        ));
        assert!(matches!(
            s.fetch_by_bookmarks("t", &[1]),
            Err(DhqpError::Unsupported(_))
        ));
        assert!(matches!(
            s.check_schema("t", 0),
            Err(DhqpError::Unsupported(_))
        ));
        assert!(s.histogram("t", "c").unwrap().is_none());
        assert!(matches!(
            s.join_transaction(1),
            Err(DhqpError::Unsupported(_))
        ));
        assert!(matches!(
            s.vote_with_next_write(1),
            Err(DhqpError::Unsupported(_))
        ));
        assert!(matches!(
            s.commit_with_next_write(1),
            Err(DhqpError::Unsupported(_))
        ));
    }

    #[test]
    fn key_range_membership() {
        let r = KeyRange {
            low: Some((vec![Value::Int(10)], true)),
            high: Some((vec![Value::Int(20)], false)),
        };
        assert!(!r.contains(&[Value::Int(9)]));
        assert!(r.contains(&[Value::Int(10)]));
        assert!(r.contains(&[Value::Int(19)]));
        assert!(!r.contains(&[Value::Int(20)]));
        assert!(KeyRange::all().contains(&[Value::Int(123)]));
        let eq = KeyRange::eq(vec![Value::Int(5)]);
        assert!(eq.contains(&[Value::Int(5)]));
        assert!(!eq.contains(&[Value::Int(6)]));
    }

    #[test]
    fn covering_range_places_each_bound_as_sql_compares_it() {
        let int = |v| Value::Int(v);
        assert_eq!(
            KeyRange::covering(&Interval::between(int(3), int(9))),
            KeyRange {
                low: Some((vec![int(3)], true)),
                high: Some((vec![int(9)], true)),
            }
        );
        assert_eq!(
            KeyRange::covering(&Interval::greater_than(int(3))),
            KeyRange {
                low: Some((vec![int(3)], false)),
                high: None,
            }
        );
        assert_eq!(KeyRange::covering(&Interval::full()), KeyRange::all());
        // A bound of another type holds the keys SQL calls equal to it or
        // between: 17.0 holds the INT 17, (5.5, +inf) starts at 6, 3.5 and
        // '3' hold no INT, and a float zero holds both zeros.
        let holds = |interval: Interval, key: Value| {
            KeyRange::covering(&interval).contains(std::slice::from_ref(&key))
        };
        assert!(holds(Interval::point(Value::Float(17.0)), int(17)));
        assert!(!holds(Interval::greater_than(Value::Float(5.5)), int(5)));
        assert!(holds(Interval::greater_than(Value::Float(5.5)), int(6)));
        for v in [Value::Float(3.5), Value::Str("3".into())] {
            assert!((0..=5).all(|k| !holds(Interval::point(v.clone()), int(k))));
        }
        for zero in [0.0, -0.0] {
            assert!(holds(
                Interval::point(Value::Float(-0.0)),
                Value::Float(zero)
            ));
        }
    }

    #[test]
    fn composite_key_prefix_comparison() {
        // Range on (a) only; keys are (a, b).
        let r = KeyRange {
            low: Some((vec![Value::Int(3)], true)),
            high: Some((vec![Value::Int(3)], true)),
        };
        assert!(r.contains(&[Value::Int(3), Value::Int(999)]));
        assert!(!r.contains(&[Value::Int(4), Value::Int(0)]));
    }

    #[test]
    fn command_result_accessors() {
        let r = CommandResult::RowCount(3);
        assert_eq!(r.into_row_count().unwrap(), 3);
        let r = CommandResult::Rowset(Box::new(MemRowset::empty(Schema::empty())));
        assert!(r.into_rowset().is_ok());
        let r = CommandResult::RowCount(3);
        assert!(r.into_rowset().is_err());
    }
}
