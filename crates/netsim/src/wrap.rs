//! Wrapping a provider behind a simulated link.
//!
//! `NetworkedDataSource` decorates any [`DataSource`] so that every session
//! interaction — opening rowsets, executing commands, fetching by bookmark,
//! DML, 2PC messages — is metered through a [`NetworkLink`]. The inner
//! provider is unaware; the DHQP above is unaware; only the link sees the
//! traffic. This is the measurement seam for every distributed experiment.
//!
//! The same seam injects faults: when a [`FaultPlan`] is attached, session
//! opens can be refused, command executions can fail or stall, and result
//! streams can drop mid-flight — all deterministically, per
//! [`crate::fault`]. Sessions enlisted in a distributed transaction are
//! never faulted (their work is not idempotent and must reach the 2PC
//! layer, whose failure semantics are exercised separately) until the
//! transaction's outcome is acknowledged, or the write its commit rode is
//! answered — a pooled session outlives its transaction — and `reads_only`
//! plans exempt DML command text too.
//!
//! Four calls are *not* round trips, because the consumer does not need
//! their answer before it sends its next request: [`Session::check_schema`]
//! (a schema stamp pipelined with the open it guards),
//! [`Session::join_transaction`] (enlistment, sent with the first request
//! made under the transaction), [`Session::vote_with_next_write`] (the
//! phase-one vote, answered with the participant's last write) and
//! [`Session::commit_with_next_write`] (both phases, answered the same way;
//! the answer to that write also ends the enlistment). Accepted,
//! each only adds its bytes — [`SCHEMA_STAMP_WIRE_BYTES`],
//! [`TXN_VERB_WIRE_BYTES`] — to the session's next request; refused, it is
//! charged as that request, because the member's answer to it was the
//! refusal; `Unsupported` by the provider, nothing crosses the wire.

use crate::fault::{FaultConfig, FaultPlan};
use crate::link::NetworkLink;
use dhqp_oledb::{emit_event, has_hook, is_read_only};
use dhqp_oledb::{
    Command, CommandLayer, CommandVerb, DataSource, Enlistment, LatencySummary,
    ProviderCapabilities, Reply, Rowset, Session, SessionLayer, SourceLayer, TrafficSnapshot, Verb,
};
use dhqp_types::{DhqpError, Result, Row, RowBatch, Schema};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Wire size of one schema stamp riding a request: the 64-bit stamp itself
/// (the table it vouches for is already named by the request).
pub const SCHEMA_STAMP_WIRE_BYTES: u64 = 8;

/// Wire size of one 2PC verb (join, prepare, commit, abort): the verb and
/// the transaction id, whether it is a message of its own or rides one.
pub const TXN_VERB_WIRE_BYTES: u64 = 16;

/// Count one injected fault on `link`, and raise a `fault` event for it if
/// the current thread's activity scope carries an event hook (attribute
/// strings are only built when someone is listening).
fn record_fault(link: &NetworkLink, site: &str, detail: &str) {
    link.record_fault();
    if has_hook() {
        emit_event(
            "fault",
            &[
                ("link", link.name().to_string()),
                ("site", site.to_string()),
                ("detail", detail.to_string()),
            ],
        );
    }
}

/// A data source reachable only across a simulated network link.
pub struct NetworkedDataSource {
    inner: Arc<dyn DataSource>,
    link: NetworkLink,
    faults: Option<Arc<FaultPlan>>,
}

impl NetworkedDataSource {
    /// Wrap `inner` behind `link`. When `DHQP_FAULT_SEED` is set in the
    /// environment the link also carries that seed's chaos plan (one
    /// transient read fault per link), so the whole test suite can run
    /// under fault injection without per-callsite changes.
    pub fn new(inner: Arc<dyn DataSource>, link: NetworkLink) -> Self {
        Self::armed(inner, link, FaultConfig::from_env())
    }

    /// Wrap with an explicit fault plan (chaos tests).
    pub fn with_faults(inner: Arc<dyn DataSource>, link: NetworkLink, config: FaultConfig) -> Self {
        Self::armed(inner, link, Some(config))
    }

    /// Wrap with injection disabled even if `DHQP_FAULT_SEED` is set —
    /// for tests asserting exact traffic parity.
    pub fn reliable(inner: Arc<dyn DataSource>, link: NetworkLink) -> Self {
        Self::armed(inner, link, None)
    }

    fn armed(inner: Arc<dyn DataSource>, link: NetworkLink, faults: Option<FaultConfig>) -> Self {
        let faults = faults.map(|config| Arc::new(FaultPlan::new(link.name(), config)));
        NetworkedDataSource {
            inner,
            link,
            faults,
        }
    }

    pub fn link(&self) -> &NetworkLink {
        &self.link
    }
}

impl SourceLayer for NetworkedDataSource {
    fn inner(&self) -> &dyn DataSource {
        &*self.inner
    }

    fn advertise(&self, mut caps: ProviderCapabilities) -> ProviderCapabilities {
        // Advertise the link latency so the optimizer's remote cost model
        // sees it (connection property, §4.1.3).
        caps.latency_hint_us = caps.latency_hint_us.max(self.link.config().latency_us);
        caps
    }

    fn metadata<T>(&self, ask: impl FnOnce(&dyn DataSource) -> Result<T>) -> Result<T> {
        // Metadata round trip; schema rowsets are small, charge a nominal
        // payload.
        self.link.record_request(64);
        ask(&*self.inner)
    }

    fn link_traffic(&self) -> Option<TrafficSnapshot> {
        Some(self.link.snapshot())
    }

    fn link_latency(&self) -> Option<LatencySummary> {
        Some(self.link.latency_summary())
    }

    fn session(&self) -> Result<Box<dyn Session>> {
        self.link.record_request(32);
        if let Some(plan) = &self.faults {
            if let Err(e) = plan.on_connect(self.link.name()) {
                record_fault(&self.link, "connect", e.message());
                return Err(e);
            }
        }
        Ok(Box::new(NetworkedSession {
            inner: self.inner.create_session()?,
            wire: Arc::new(Wire {
                link: self.link.clone(),
                faults: self.faults.clone(),
                enlistment: Enlistment::default(),
                piggyback: AtomicU64::new(0),
            }),
        }))
    }
}

/// One session's end of the link, shared with the session's commands.
struct Wire {
    link: NetworkLink,
    faults: Option<Arc<FaultPlan>>,
    /// Whether the session is in a distributed transaction: enlisted work
    /// is exempt from injection.
    enlistment: Enlistment,
    /// Bytes of accepted schema stamps and 2PC verbs waiting for the request
    /// they ride — for a pushed-down statement, a command's `execute`.
    piggyback: AtomicU64,
}

impl Wire {
    /// Record one round trip of `bytes` plus whatever was waiting to ride it.
    fn request(&self, bytes: u64) {
        let riding = self.piggyback.swap(0, Ordering::Relaxed);
        self.link.record_request(bytes + riding);
    }

    /// Account for a call that is pipelined with the session's next request
    /// (module docs): accepted, its `bytes` wait for that request; refused,
    /// the refusal was the answer to a request of `refused_bytes`.
    fn ride(&self, outcome: Result<Reply>, bytes: u64, refused_bytes: u64) -> Result<Reply> {
        match outcome {
            Ok(reply) => {
                self.piggyback.fetch_add(bytes, Ordering::Relaxed);
                Ok(reply)
            }
            // Nothing crossed the wire: the consumer learns from the
            // provider's capabilities, not from a round trip, that it has to
            // do without.
            Err(e @ DhqpError::Unsupported(_)) => Err(e),
            Err(e) => {
                self.request(refused_bytes);
                Err(e)
            }
        }
    }

    /// The fault plan, unless the session is enlisted (module docs).
    fn plan(&self) -> Option<&FaultPlan> {
        let enlisted = self.enlistment.is_enlisted();
        self.faults.as_deref().filter(|_| !enlisted)
    }

    /// Fail with an injected fault.
    fn fault<T>(&self, site: &str, e: DhqpError) -> Result<T> {
        record_fault(&self.link, site, e.message());
        Err(e)
    }

    /// Stream-drop decision for a rowset about to be served: `Some(n)`
    /// means the stream fails after delivering `n` rows.
    fn stream_drop(&self, plan: &FaultPlan) -> Option<u64> {
        let at = plan.on_stream()?;
        record_fault(&self.link, "stream", &format!("drop after {at} rows"));
        Some(at)
    }

    /// A rowset that crosses this wire.
    fn metered(&self, inner: Box<dyn Rowset>, drop_at: Option<u64>) -> Reply {
        Reply::Rowset(Box::new(MeteredRowset {
            inner,
            link: self.link.clone(),
            drop_at,
            delivered: 0,
        }))
    }
}

/// What a session verb costs on the wire (module docs).
enum Cost {
    /// Nothing crosses the wire.
    Free,
    /// A round trip of this many bytes.
    Request(u64),
    /// A rowset or index open: a read request, which may be faulted.
    Open(u64),
    /// Pipelined with the next request: `bytes` when accepted, a request of
    /// `refused` bytes when refused.
    Rides { bytes: u64, refused: u64 },
}

struct NetworkedSession {
    inner: Box<dyn Session>,
    wire: Arc<Wire>,
}

fn rows_wire_size(rows: &[Row]) -> u64 {
    rows.iter().map(|r| r.wire_size() as u64).sum()
}

impl SessionLayer for NetworkedSession {
    fn call(&mut self, verb: Verb<'_>) -> Result<Reply> {
        let cost = match verb {
            Verb::OpenRowset(table) => Cost::Open(32 + table.len() as u64),
            Verb::OpenIndex(table, index, _) => {
                Cost::Open(48 + table.len() as u64 + index.len() as u64)
            }
            Verb::CreateCommand() => Cost::Free,
            Verb::FetchByBookmarks(_, bookmarks) | Verb::DeleteByBookmarks(_, bookmarks) => {
                Cost::Request(32 + 8 * bookmarks.len() as u64)
            }
            Verb::CheckSchema(table, _) => Cost::Rides {
                bytes: SCHEMA_STAMP_WIRE_BYTES,
                refused: 32 + table.len() as u64 + SCHEMA_STAMP_WIRE_BYTES,
            },
            Verb::Histogram(..) => Cost::Request(32),
            Verb::JoinTransaction(_)
            | Verb::VoteWithNextWrite(_)
            | Verb::CommitWithNextWrite(_) => Cost::Rides {
                bytes: TXN_VERB_WIRE_BYTES,
                refused: TXN_VERB_WIRE_BYTES,
            },
            Verb::Prepare(_) | Verb::Commit(_) | Verb::Abort(_) => {
                Cost::Request(TXN_VERB_WIRE_BYTES)
            }
            Verb::Insert(_, rows) => Cost::Request(32 + rows_wire_size(rows)),
            Verb::UpdateByBookmarks(_, bookmarks, updates) => {
                Cost::Request(32 + 8 * bookmarks.len() as u64 + rows_wire_size(updates))
            }
        };
        let wire = &self.wire;
        let mut drop_at = None;
        match cost {
            Cost::Request(bytes) => wire.request(bytes),
            Cost::Open(bytes) => {
                wire.request(bytes);
                if let Some(plan) = wire.plan() {
                    if let Err(e) = plan.on_open(wire.link.name()) {
                        return wire.fault("open", e);
                    }
                    drop_at = wire.stream_drop(plan);
                }
            }
            Cost::Free | Cost::Rides { .. } => {}
        }
        let reply = verb.send(&mut *self.inner);
        let reply = match cost {
            Cost::Rides { bytes, refused } => wire.ride(reply, bytes, refused),
            _ => reply,
        };
        // Once joined, this session carries transactional state; faults on
        // it would force non-idempotent resends, so injection stops — with
        // the request the join rides — until the outcome is acknowledged.
        wire.enlistment.answered(&verb, reply.is_ok());
        Ok(match reply? {
            Reply::Rowset(rowset) => wire.metered(rowset, drop_at),
            Reply::Command(inner) => Reply::Command(Box::new(NetworkedCommand {
                inner,
                wire: Arc::clone(wire),
                text: String::new(),
                text_len: 0,
            })),
            Reply::Rows(rows) => {
                wire.link
                    .record_rows(rows.len() as u64, rows_wire_size(&rows));
                Reply::Rows(rows)
            }
            Reply::Histogram(Some(h)) => {
                // A histogram ships one (upper, rows, distinct) triple per
                // step.
                let steps = h.buckets.len() as u64;
                wire.link.record_rows(steps, 24 * steps);
                Reply::Histogram(Some(h))
            }
            reply => reply,
        })
    }
}

/// A rowset whose rows are metered as they cross the link, and which may
/// carry an injected mid-stream drop.
struct MeteredRowset {
    inner: Box<dyn Rowset>,
    link: NetworkLink,
    /// Injected fault: fail after this many rows were delivered.
    drop_at: Option<u64>,
    delivered: u64,
}

impl Rowset for MeteredRowset {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_batch(&mut self, max: usize) -> Result<Option<RowBatch>> {
        // One simulated round trip per chunk: one latency/bandwidth charge,
        // one NETWORK_IO wait slice, one fault window. Rows and bytes are
        // counted per row, so traffic totals are byte-identical at every
        // batch size — only the flush count (and the amortized waits)
        // differ.
        let mut want = max.max(1);
        if let Some(at) = self.drop_at {
            // Re-slice the chunk at the fault boundary: the rows before the
            // drop are delivered, the call after the boundary fails.
            let remaining = (at - self.delivered.min(at)) as usize;
            if remaining == 0 {
                return Err(DhqpError::Unavailable(format!(
                    "injected fault: stream dropped after {} rows on '{}'",
                    self.delivered,
                    self.link.name()
                )));
            }
            want = want.min(remaining);
        }
        let batch = match self.inner.next_batch(want)? {
            Some(b) => b,
            None => return Ok(None),
        };
        self.delivered += batch.len() as u64;
        self.link
            .record_rows(batch.len() as u64, batch.wire_size() as u64);
        // A pull of one row is a row fetch, not a flush: at batch size 1
        // an event per row would only wrap the ring.
        if max > 1 && has_hook() {
            emit_event(
                "batch_flush",
                &[
                    ("link", self.link.name().to_string()),
                    ("rows", batch.len().to_string()),
                    ("bytes", batch.wire_size().to_string()),
                ],
            );
        }
        Ok(Some(batch))
    }
}

struct NetworkedCommand {
    inner: Box<dyn Command>,
    wire: Arc<Wire>,
    text: String,
    text_len: u64,
}

impl CommandLayer for NetworkedCommand {
    fn call(&mut self, verb: CommandVerb<'_>) -> Result<Reply> {
        match &verb {
            CommandVerb::SetText(text) => {
                self.text_len = text.len() as u64;
                self.text = text.to_string();
            }
            CommandVerb::BindParameter(_, value) => self.text_len += value.wire_size() as u64,
            CommandVerb::Execute() => {
                // The command text crosses the wire on execute.
                let wire = &self.wire;
                wire.request(self.text_len.max(16));
                let mut drop_at = None;
                if let Some(plan) = wire.plan() {
                    if let Err(e) = plan.on_command(wire.link.name(), &self.text) {
                        return wire.fault("command", e);
                    }
                    if is_read_only(&self.text) {
                        drop_at = wire.stream_drop(plan);
                    }
                }
                let reply = verb.send(&mut *self.inner);
                wire.enlistment.executed(&self.text);
                return Ok(match reply? {
                    Reply::Rowset(rowset) => wire.metered(rowset, drop_at),
                    reply => reply,
                });
            }
        }
        verb.send(&mut *self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::NetworkConfig;
    use dhqp_oledb::{CommandResult, KeyRange, RowsetExt, TableInfo, TxnId};
    use dhqp_storage::{LocalDataSource, StorageEngine, TableDef};
    use dhqp_types::{Column, DataType, Value};

    /// Minimal command-capable provider: any command returns ten int rows
    /// (the storage-crate `LocalDataSource` has no command support).
    struct StubSource;

    fn ten_rows() -> Box<dyn Rowset> {
        let schema = Schema::new(vec![Column::not_null("x", DataType::Int)]);
        let rows = (0..10).map(|i| Row::new(vec![Value::Int(i)])).collect();
        Box::new(dhqp_oledb::MemRowset::new(schema, rows))
    }

    impl DataSource for StubSource {
        fn name(&self) -> &str {
            "stub"
        }

        fn capabilities(&self) -> ProviderCapabilities {
            ProviderCapabilities::simple("stub")
        }

        fn tables(&self) -> Result<Vec<TableInfo>> {
            Ok(vec![])
        }

        fn create_session(&self) -> Result<Box<dyn Session>> {
            Ok(Box::new(StubSession))
        }
    }

    struct StubSession;

    impl Session for StubSession {
        fn open_rowset(&mut self, _table: &str) -> Result<Box<dyn Rowset>> {
            Ok(ten_rows())
        }

        fn create_command(&mut self) -> Result<Box<dyn Command>> {
            Ok(Box::new(StubCommand))
        }

        fn join_transaction(&mut self, _txn: TxnId) -> Result<()> {
            Ok(())
        }

        fn abort(&mut self, _txn: TxnId) -> Result<()> {
            Ok(())
        }
    }

    /// [`StubSource`] whose sessions accept any schema stamp.
    struct StampingStub;

    impl DataSource for StampingStub {
        fn name(&self) -> &str {
            "stamping-stub"
        }

        fn capabilities(&self) -> ProviderCapabilities {
            ProviderCapabilities::simple("stub")
        }

        fn tables(&self) -> Result<Vec<TableInfo>> {
            Ok(vec![])
        }

        fn create_session(&self) -> Result<Box<dyn Session>> {
            Ok(Box::new(StampingSession))
        }
    }

    struct StampingSession;

    impl Session for StampingSession {
        fn open_rowset(&mut self, _table: &str) -> Result<Box<dyn Rowset>> {
            Ok(ten_rows())
        }

        fn create_command(&mut self) -> Result<Box<dyn Command>> {
            Ok(Box::new(StubCommand))
        }

        fn check_schema(&mut self, _table: &str, _stamp: u64) -> Result<()> {
            Ok(())
        }
    }

    struct StubCommand;

    impl Command for StubCommand {
        fn set_text(&mut self, _text: &str) -> Result<()> {
            Ok(())
        }

        fn bind_parameter(&mut self, _ordinal: usize, _value: Value) -> Result<()> {
            Ok(())
        }

        fn execute(&mut self) -> Result<CommandResult> {
            Ok(CommandResult::Rowset(ten_rows()))
        }
    }

    fn remote_engine() -> Arc<StorageEngine> {
        let engine = Arc::new(StorageEngine::new("remote0"));
        engine
            .create_table(
                TableDef::new("t", Schema::new(vec![Column::not_null("x", DataType::Int)]))
                    .with_index("pk", &["x"], true),
            )
            .unwrap();
        let rows: Vec<Row> = (0..10).map(|i| Row::new(vec![Value::Int(i)])).collect();
        engine.insert_rows("t", &rows).unwrap();
        engine
    }

    fn networked() -> NetworkedDataSource {
        let link = NetworkLink::new("link-r0", NetworkConfig::untimed());
        NetworkedDataSource::reliable(Arc::new(LocalDataSource::new(remote_engine())), link)
    }

    fn faulty(config: FaultConfig) -> NetworkedDataSource {
        let link = NetworkLink::new("link-r0", NetworkConfig::untimed());
        NetworkedDataSource::with_faults(
            Arc::new(LocalDataSource::new(remote_engine())),
            link,
            config,
        )
    }

    fn faulty_stub(config: FaultConfig) -> NetworkedDataSource {
        let link = NetworkLink::new("link-r0", NetworkConfig::untimed());
        NetworkedDataSource::with_faults(Arc::new(StubSource), link, config)
    }

    #[test]
    fn networked_decorators_cross_threads() {
        // Exchange workers open sessions and drain metered rowsets off the
        // consumer thread; the whole decorator stack must be Send (and the
        // shared source Sync).
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<NetworkedDataSource>();
        assert_send::<NetworkedSession>();
        assert_send::<MeteredRowset>();
        assert_send::<NetworkedCommand>();
    }

    #[test]
    fn rowset_traffic_is_metered_per_row() {
        let ds = networked();
        let mut s = ds.create_session().unwrap();
        let before = ds.link().snapshot();
        let mut rs = s.open_rowset("t").unwrap();
        assert_eq!(rs.count_rows().unwrap(), 10);
        let delta = ds.link().snapshot().since(&before);
        assert_eq!(delta.rows, 10);
        assert_eq!(delta.requests, 1);
        assert_eq!(delta.bytes, 33 + 10 * 16); // request header + 10 rows of (8 hdr + 8 int)
    }

    #[test]
    fn batched_pull_ships_one_round_trip_per_chunk() {
        // Same rows, same bytes — but one wire flush per chunk instead of
        // one per row.
        let per_row = {
            let ds = networked();
            let mut s = ds.create_session().unwrap();
            let before = ds.link().snapshot();
            let mut rs = s.open_rowset("t").unwrap();
            while rs.next().unwrap().is_some() {}
            ds.link().snapshot().since(&before)
        };
        let batched = {
            let ds = networked();
            let mut s = ds.create_session().unwrap();
            let before = ds.link().snapshot();
            let mut rs = s.open_rowset("t").unwrap();
            while rs.next_batch(4).unwrap().is_some() {}
            ds.link().snapshot().since(&before)
        };
        assert_eq!(per_row.rows, 10);
        assert_eq!(per_row.batches, 10);
        assert_eq!(batched.rows, 10);
        assert_eq!(batched.batches, 3); // 4 + 4 + 2
        assert_eq!(per_row.bytes, batched.bytes);
        assert_eq!(per_row.requests, batched.requests);
    }

    #[test]
    fn injected_stream_drop_reslices_a_mid_fault_batch() {
        let ds = faulty(FaultConfig {
            stream_drops: 1.0,
            max_faults: 1,
            ..FaultConfig::none()
        });
        let mut s = ds.create_session().unwrap();
        let mut rs = s.open_rowset("t").unwrap();
        let mut delivered = 0u64;
        let err = loop {
            match rs.next_batch(4) {
                Ok(Some(b)) => {
                    assert!(b.len() <= 4);
                    delivered += b.len() as u64;
                }
                Ok(None) => panic!("stream must drop before completion"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), "unavailable");
        assert!((1..10).contains(&delivered), "delivered={delivered}");
        assert!(err.message().contains(&format!("after {delivered} rows")));
        // The delivered prefix is exactly what the link metered.
        assert_eq!(ds.link().snapshot().rows, delivered);
        // Budget spent: a reopened stream completes, batched.
        let mut rs = s.open_rowset("t").unwrap();
        let mut total = 0;
        while let Some(b) = rs.next_batch(4).unwrap() {
            total += b.len();
        }
        assert_eq!(total, 10);
    }

    fn stamp_of_t() -> u64 {
        TableInfo::new(
            "t",
            vec![dhqp_oledb::ColumnInfo::not_null("x", DataType::Int)],
        )
        .schema_stamp()
    }

    #[test]
    fn an_accepted_schema_stamp_rides_the_open_it_guards() {
        let ds = networked();
        let mut s = ds.create_session().unwrap();
        let before = ds.link().snapshot();
        s.check_schema("t", stamp_of_t()).unwrap();
        assert!(
            ds.link().snapshot().since(&before).is_zero(),
            "an accepted stamp is not a round trip of its own"
        );
        let _open = s.open_rowset("t").unwrap();
        let delta = ds.link().snapshot().since(&before);
        assert_eq!(delta.requests, 1);
        assert_eq!(delta.bytes, 33 + SCHEMA_STAMP_WIRE_BYTES);
        // The stamp rode that request and no later one.
        let _again = s.open_rowset("t").unwrap();
        let delta = ds.link().snapshot().since(&before);
        assert_eq!(delta.requests, 2);
        assert_eq!(delta.bytes, 2 * 33 + SCHEMA_STAMP_WIRE_BYTES);
    }

    #[test]
    fn a_refused_schema_stamp_is_charged_as_the_request_it_refused() {
        let ds = networked();
        let mut s = ds.create_session().unwrap();
        let before = ds.link().snapshot();
        let err = s.check_schema("t", stamp_of_t() ^ 1).unwrap_err();
        assert_eq!(err.kind(), "schema-drift");
        let delta = ds.link().snapshot().since(&before);
        assert_eq!(delta.requests, 1);
        assert_eq!(delta.bytes, 33 + SCHEMA_STAMP_WIRE_BYTES);
        // A table that is gone is refused with the provider's own error.
        let err = s.check_schema("gone", 0).unwrap_err();
        assert_eq!(err.kind(), "catalog");
        assert_eq!(ds.link().snapshot().since(&before).requests, 2);
    }

    #[test]
    fn a_provider_without_schema_stamps_puts_nothing_on_the_wire() {
        let link = NetworkLink::new("link-r0", NetworkConfig::untimed());
        let ds = NetworkedDataSource::reliable(Arc::new(StubSource), link);
        let mut s = ds.create_session().unwrap();
        let before = ds.link().snapshot();
        let err = s.check_schema("t", 7).unwrap_err();
        assert!(matches!(err, DhqpError::Unsupported(_)), "{err}");
        assert!(ds.link().snapshot().since(&before).is_zero());
        let _open = s.open_rowset("t").unwrap();
        assert_eq!(ds.link().snapshot().since(&before).bytes, 33);
    }

    #[test]
    fn a_faulted_open_and_its_retry_each_carry_the_stamp_and_count_once() {
        let ds = faulty(FaultConfig::one_transient_per_link(5));
        let attempt = |ds: &NetworkedDataSource| -> Result<u64> {
            let mut s = ds.create_session()?;
            s.check_schema("t", stamp_of_t())?;
            s.open_rowset("t")?.count_rows()
        };
        let connect = 32;
        let open = 33 + SCHEMA_STAMP_WIRE_BYTES;
        let before = ds.link().snapshot();
        assert!(attempt(&ds).unwrap_err().is_retryable());
        let delta = ds.link().snapshot().since(&before);
        assert_eq!((delta.requests, delta.bytes), (2, connect + open));
        // The retry is a new session: nothing of the lost request carries
        // over, so the stamp is sent again — once.
        assert_eq!(attempt(&ds).unwrap(), 10);
        let delta = ds.link().snapshot().since(&before);
        assert_eq!(delta.requests, 4);
        assert_eq!(delta.bytes, 2 * (connect + open) + 10 * 16);
    }

    #[test]
    fn a_schema_stamp_rides_a_command_execute_too() {
        let link = NetworkLink::new("link-r0", NetworkConfig::untimed());
        let ds = NetworkedDataSource::reliable(Arc::new(StampingStub), link);
        let mut s = ds.create_session().unwrap();
        let before = ds.link().snapshot();
        s.check_schema("t", 7).unwrap();
        let mut cmd = s.create_command().unwrap();
        let text = "SELECT [x] FROM [t]";
        cmd.set_text(text).unwrap();
        let _rows = cmd.execute().unwrap();
        let delta = ds.link().snapshot().since(&before);
        assert_eq!(delta.requests, 1);
        assert_eq!(delta.bytes, text.len() as u64 + SCHEMA_STAMP_WIRE_BYTES);
    }

    #[test]
    fn an_accepted_join_rides_the_next_request() {
        let ds = networked();
        let mut s = ds.create_session().unwrap();
        let before = ds.link().snapshot();
        s.join_transaction(7).unwrap();
        assert!(
            ds.link().snapshot().since(&before).is_zero(),
            "an accepted join is not a round trip of its own"
        );
        let _open = s.open_rowset("t").unwrap();
        let delta = ds.link().snapshot().since(&before);
        assert_eq!((delta.requests, delta.bytes), (1, 33 + TXN_VERB_WIRE_BYTES));
        // The outcome is a message of its own, and carries nothing over.
        s.abort(7).unwrap();
        let delta = ds.link().snapshot().since(&before);
        assert_eq!(
            (delta.requests, delta.bytes),
            (2, 33 + 2 * TXN_VERB_WIRE_BYTES)
        );
    }

    #[test]
    fn a_refused_join_is_charged_as_the_request_it_refused() {
        struct Refusing;
        impl Session for Refusing {
            fn open_rowset(&mut self, _table: &str) -> Result<Box<dyn Rowset>> {
                Ok(ten_rows())
            }
            fn join_transaction(&mut self, txn: TxnId) -> Result<()> {
                Err(DhqpError::Transaction(format!("no room for txn {txn}")))
            }
        }
        struct RefusingSource;
        impl DataSource for RefusingSource {
            fn name(&self) -> &str {
                "refusing"
            }
            fn capabilities(&self) -> ProviderCapabilities {
                ProviderCapabilities::simple("stub")
            }
            fn tables(&self) -> Result<Vec<TableInfo>> {
                Ok(vec![])
            }
            fn create_session(&self) -> Result<Box<dyn Session>> {
                Ok(Box::new(Refusing))
            }
        }
        let config = FaultConfig {
            stream_drops: 1.0,
            ..FaultConfig::none()
        };
        let link = NetworkLink::new("link-r0", NetworkConfig::untimed());
        let ds = NetworkedDataSource::with_faults(Arc::new(RefusingSource), link, config);
        let mut s = ds.create_session().unwrap();
        let before = ds.link().snapshot();
        assert_eq!(s.join_transaction(7).unwrap_err().kind(), "transaction");
        let delta = ds.link().snapshot().since(&before);
        assert_eq!((delta.requests, delta.bytes), (1, TXN_VERB_WIRE_BYTES));
        // Not enlisted: the session stays open to injection.
        assert!(s.open_rowset("t").unwrap().count_rows().is_err());
    }

    #[test]
    fn a_vote_rides_the_write_it_was_asked_with() {
        let ds = networked();
        let row = |x| [Row::new(vec![Value::Int(x)])];
        let insert = 32 + 16;
        let mut s = ds.create_session().unwrap();
        s.join_transaction(7).unwrap();
        let before = ds.link().snapshot();
        s.insert("t", &row(10)).unwrap();
        let delta = ds.link().snapshot().since(&before);
        assert_eq!(
            (delta.requests, delta.bytes),
            (1, insert + TXN_VERB_WIRE_BYTES),
            "the join rode the first write"
        );
        s.vote_with_next_write(7).unwrap();
        assert_eq!(ds.link().snapshot().since(&before).requests, 1);
        s.insert("t", &row(11)).unwrap();
        let delta = ds.link().snapshot().since(&before);
        assert_eq!(
            (delta.requests, delta.bytes),
            (2, 2 * (insert + TXN_VERB_WIRE_BYTES))
        );
        s.commit(7).unwrap();
        // Asked of a session that is not in the transaction, the refusal is
        // the answer to a request.
        let before = ds.link().snapshot();
        assert_eq!(s.vote_with_next_write(7).unwrap_err().kind(), "transaction");
        let delta = ds.link().snapshot().since(&before);
        assert_eq!((delta.requests, delta.bytes), (1, TXN_VERB_WIRE_BYTES));
    }

    #[test]
    fn a_commit_rides_the_write_and_its_answer_ends_the_enlistment() {
        let ds = faulty(FaultConfig {
            stream_drops: 1.0,
            ..FaultConfig::none()
        });
        let row = |x| [Row::new(vec![Value::Int(x)])];
        let insert = 32 + 16;
        for (txn, table) in [(7, "t"), (9, "ghost")] {
            let mut s = ds.create_session().unwrap();
            s.join_transaction(txn).unwrap();
            let before = ds.link().snapshot();
            s.commit_with_next_write(txn).unwrap();
            assert!(ds.link().snapshot().since(&before).is_zero());
            // Committed (or, refused, rolled back) with the write: the join
            // and the commit ride it, and nothing follows.
            let answer = s.insert(table, &row(10));
            assert_eq!(answer.is_ok(), table == "t");
            let delta = ds.link().snapshot().since(&before);
            assert_eq!(
                (delta.requests, delta.bytes),
                (1, insert + 2 * TXN_VERB_WIRE_BYTES)
            );
            // An ordinary session again: the next read is faulted.
            assert!(s.open_rowset("t").unwrap().count_rows().is_err());
        }
        assert_eq!(ds.link().faults_injected(), 2);
    }

    #[test]
    fn a_provider_that_votes_only_on_prepare_puts_nothing_on_the_wire() {
        let link = NetworkLink::new("link-r0", NetworkConfig::untimed());
        let ds = NetworkedDataSource::reliable(Arc::new(StubSource), link);
        let mut s = ds.create_session().unwrap();
        s.join_transaction(7).unwrap();
        let before = ds.link().snapshot();
        let err = s.vote_with_next_write(7).unwrap_err();
        assert!(matches!(err, DhqpError::Unsupported(_)), "{err}");
        assert!(ds.link().snapshot().since(&before).is_zero());
        // Only the join is waiting for the next request.
        let _open = s.open_rowset("t").unwrap();
        let delta = ds.link().snapshot().since(&before);
        assert_eq!((delta.requests, delta.bytes), (1, 33 + TXN_VERB_WIRE_BYTES));
    }

    #[test]
    fn index_open_counts_one_round_trip() {
        let ds = networked();
        let mut s = ds.create_session().unwrap();
        let before = ds.link().snapshot();
        let mut rs = s
            .open_index("t", "pk", &KeyRange::eq(vec![Value::Int(3)]))
            .unwrap();
        assert_eq!(rs.count_rows().unwrap(), 1);
        let delta = ds.link().snapshot().since(&before);
        assert_eq!(delta.requests, 1);
        assert_eq!(delta.rows, 1);
    }

    #[test]
    fn bookmark_fetch_meters_request_and_rows() {
        let ds = networked();
        let mut s = ds.create_session().unwrap();
        let mut rs = s.open_rowset("t").unwrap();
        let bm = rs.collect_rows().unwrap()[0].bookmark.unwrap();
        let before = ds.link().snapshot();
        let rows = s.fetch_by_bookmarks("t", &[bm]).unwrap();
        assert_eq!(rows.len(), 1);
        let delta = ds.link().snapshot().since(&before);
        assert_eq!(delta.requests, 1);
        assert_eq!(delta.rows, 1);
    }

    #[test]
    fn capabilities_carry_link_latency() {
        let engine = Arc::new(StorageEngine::new("r"));
        let link = NetworkLink::new("l", NetworkConfig::lan());
        let ds = NetworkedDataSource::reliable(Arc::new(LocalDataSource::new(engine)), link);
        assert_eq!(ds.capabilities().latency_hint_us, 500);
    }

    #[test]
    fn injected_command_error_is_transient_and_budgeted() {
        let ds = faulty_stub(FaultConfig::one_transient_per_link(3));
        let run = |ds: &NetworkedDataSource| -> Result<u64> {
            let mut s = ds.create_session()?;
            let mut cmd = s.create_command()?;
            cmd.set_text("SELECT x FROM t")?;
            cmd.execute()?.into_rowset()?.count_rows()
        };
        let err = run(&ds).unwrap_err();
        assert_eq!(err.kind(), "unavailable");
        assert!(err.is_retryable());
        assert_eq!(ds.link().faults_injected(), 1);
        // Budget of one: the retry succeeds.
        assert_eq!(run(&ds).unwrap(), 10);
        assert_eq!(ds.link().faults_injected(), 1);
    }

    #[test]
    fn injected_stream_drop_fails_mid_stream() {
        let ds = faulty(FaultConfig {
            stream_drops: 1.0,
            max_faults: 1,
            ..FaultConfig::none()
        });
        let mut s = ds.create_session().unwrap();
        let mut rs = s.open_rowset("t").unwrap();
        let mut delivered = 0;
        let err = loop {
            match rs.next() {
                Ok(Some(_)) => delivered += 1,
                Ok(None) => panic!("stream must drop before completion"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), "unavailable");
        assert!(delivered >= 1, "drop lands mid-stream, not before row one");
        assert!(err.message().contains("stream dropped"), "{err}");
        // Budget spent: a reopened stream completes.
        assert_eq!(s.open_rowset("t").unwrap().count_rows().unwrap(), 10);
    }

    #[test]
    fn enlisted_sessions_are_never_faulted() {
        let ds = faulty_stub(FaultConfig {
            command_errors: 1.0,
            stream_drops: 1.0,
            reads_only: false,
            ..FaultConfig::none()
        });
        let mut s = ds.create_session().unwrap();
        let before = ds.link().snapshot();
        s.join_transaction(41).unwrap();
        // Both the rowset and the command path stay clean under a plan
        // that otherwise faults every operation — from the join call on, so
        // the request the join rides is covered too.
        assert_eq!(s.open_rowset("t").unwrap().count_rows().unwrap(), 10);
        assert_eq!(ds.link().snapshot().since(&before).requests, 1);
        let mut cmd = s.create_command().unwrap();
        cmd.set_text("SELECT x FROM t").unwrap();
        assert_eq!(
            cmd.execute()
                .unwrap()
                .into_rowset()
                .unwrap()
                .count_rows()
                .unwrap(),
            10
        );
        assert_eq!(ds.link().faults_injected(), 0);
        s.abort(41).unwrap();
        // The exemption ends with the transaction: a session that is
        // reused afterwards is faulted like any other.
        assert!(s.open_rowset("t").is_err());
        assert_eq!(ds.link().faults_injected(), 1);
    }

    #[test]
    fn connect_refusal_counts_a_fault() {
        let ds = faulty(FaultConfig {
            connect_refusals: 1.0,
            max_faults: 1,
            ..FaultConfig::none()
        });
        let err = ds.create_session().map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), "unavailable");
        assert_eq!(ds.link().faults_injected(), 1);
        assert!(ds.create_session().is_ok());
    }
}
