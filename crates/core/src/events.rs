//! XEvents-style structured event bus: a bounded ring of typed events.
//!
//! SQL Server's Extended Events expose engine internals as a stream of
//! typed, filterable events; this module is that surface for the DHQP.
//! The engine publishes lifecycle events (query start/end, plan-cache
//! hit/miss, slow query), and the layers below it — the network simulator,
//! the retry rowset, the exchange, the transaction coordinator — raise
//! events through the thread-local [`dhqp_oledb::EventHook`] the engine
//! installs per statement, which this bus implements.
//!
//! Events land in a bounded lock-free-claim ring (an atomic sequence
//! counter claims a slot; each slot is an independent mutex, so concurrent
//! publishers never contend on one lock) and are served back as
//! `sys.dm_xe_recent_events`. Pluggable [`EventSink`]s observe every
//! accepted event as it is published — [`JsonlSink`] streams them as JSON
//! lines.
//!
//! The bus is configured per engine via [`EventConfig`]: disabled entirely
//! (the default — publishing is a single load then return), all kinds
//! (`DHQP_EVENTS=1`), or a comma-separated subset of kind names
//! (`DHQP_EVENTS=retry,fault`).

use crate::trace::json_escape;
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of event kinds (mask-indexed filtering).
pub const EVENT_KINDS: usize = 14;
const _: () = assert!(EVENT_KINDS <= 16, "EventConfig::mask is a u16");

/// The typed event taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A statement entered the engine.
    QueryStart,
    /// A statement finished (successfully or not).
    QueryEnd,
    /// A remote attempt was re-issued after a transient fault.
    RetryAttempt,
    /// The network simulator injected a fault.
    FaultInjected,
    /// A fingerprinted SELECT was served from the plan cache.
    PlanCacheHit,
    /// A fingerprinted SELECT was compiled and inserted.
    PlanCacheMiss,
    /// An exchange spawned its worker threads.
    ExchangeSpawn,
    /// An exchange joined its workers and reported their spans.
    ExchangeDrain,
    /// A 2PC state transition (preparing/committing/committed/...).
    TwoPhaseCommit,
    /// A statement crossed the armed slow-query threshold.
    SlowQuery,
    /// A metered link shipped one batch (one round trip) of rows.
    BatchFlush,
    /// A link's circuit breaker tripped open (member quarantined).
    BreakerOpen,
    /// A link's circuit breaker closed again (member re-admitted).
    BreakerClose,
    /// A fingerprint's latest execution used a different plan than its
    /// query-store history (regressions flagged in the attrs).
    PlanChange,
}

impl EventKind {
    /// Every kind, in declaration order: `ALL[i] as usize == i`, the
    /// kind's bit in [`EventConfig::mask`].
    pub const ALL: [EventKind; EVENT_KINDS] = [
        EventKind::QueryStart,
        EventKind::QueryEnd,
        EventKind::RetryAttempt,
        EventKind::FaultInjected,
        EventKind::PlanCacheHit,
        EventKind::PlanCacheMiss,
        EventKind::ExchangeSpawn,
        EventKind::ExchangeDrain,
        EventKind::TwoPhaseCommit,
        EventKind::SlowQuery,
        EventKind::BatchFlush,
        EventKind::BreakerOpen,
        EventKind::BreakerClose,
        EventKind::PlanChange,
    ];

    /// The wire/display name, shared with the low-layer emitters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::QueryStart => "query_start",
            EventKind::QueryEnd => "query_end",
            EventKind::RetryAttempt => "retry",
            EventKind::FaultInjected => "fault",
            EventKind::PlanCacheHit => "plan_cache_hit",
            EventKind::PlanCacheMiss => "plan_cache_miss",
            EventKind::ExchangeSpawn => "exchange_spawn",
            EventKind::ExchangeDrain => "exchange_drain",
            EventKind::TwoPhaseCommit => "2pc",
            EventKind::SlowQuery => "slow_query",
            EventKind::BatchFlush => "batch_flush",
            EventKind::BreakerOpen => "breaker_open",
            EventKind::BreakerClose => "breaker_close",
            EventKind::PlanChange => "plan_change",
        }
    }

    /// Parse a kind name (as emitted below the engine or listed in
    /// `DHQP_EVENTS`).
    pub fn from_name(name: &str) -> Option<EventKind> {
        EventKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// One published event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic publication sequence number (bus-wide).
    pub seq: u64,
    /// Microseconds since the bus was created.
    pub timestamp_us: u64,
    pub kind: EventKind,
    /// Free-form `(key, value)` payload.
    pub attrs: Vec<(String, String)>,
}

impl Event {
    /// The payload flattened as `k=v k=v` — the DMV's `detail` column.
    pub fn detail(&self) -> String {
        let mut out = String::new();
        for (i, (k, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let _ = write!(out, "{k}={v}");
        }
        out
    }

    /// One hand-rolled JSON object (the offline serde shim is marker-only).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"seq\":{},\"timestamp_us\":{},\"kind\":\"{}\",\"attrs\":{{",
            self.seq,
            self.timestamp_us,
            self.kind.name()
        );
        for (i, (k, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
        }
        out.push_str("}}");
        out
    }
}

/// Default ring capacity ([`EventConfig::capacity`]).
pub const EVENT_RING_CAPACITY: usize = 256;

/// Per-engine event-bus configuration: the master switch, a per-kind
/// filter mask and the ring capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventConfig {
    pub enabled: bool,
    /// Bit `i` set ⇒ `EventKind::ALL[i]` is captured.
    pub mask: u16,
    /// Ring slots; the newest `capacity` events are retained.
    pub capacity: usize,
}

impl Default for EventConfig {
    fn default() -> Self {
        EventConfig::disabled()
    }
}

impl EventConfig {
    /// Bus off: publishing returns immediately, nothing is retained.
    pub fn disabled() -> Self {
        EventConfig {
            enabled: false,
            mask: 0,
            capacity: EVENT_RING_CAPACITY,
        }
    }

    /// Capture every kind.
    pub fn all() -> Self {
        EventConfig {
            enabled: true,
            mask: u16::MAX,
            capacity: EVENT_RING_CAPACITY,
        }
    }

    /// Capture only the listed kinds.
    pub fn only(kinds: &[EventKind]) -> Self {
        let mut mask = 0u16;
        for k in kinds {
            mask |= 1 << *k as usize;
        }
        EventConfig {
            enabled: mask != 0,
            mask,
            capacity: EVENT_RING_CAPACITY,
        }
    }

    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Whether `kind` passes the filter.
    pub fn wants(&self, kind: EventKind) -> bool {
        self.enabled && self.mask & (1 << kind as usize) != 0
    }
}

/// Receiver observing every accepted event at publication time.
pub trait EventSink: Send + Sync {
    fn consume(&self, event: &Event);
}

/// Streams each event as one JSON line into a writer (a file, a captured
/// buffer in tests, ...).
pub struct JsonlSink<W: std::io::Write + Send> {
    writer: Mutex<W>,
}

impl<W: std::io::Write + Send> JsonlSink<W> {
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer: Mutex::new(writer),
        }
    }
}

impl<W: std::io::Write + Send> EventSink for JsonlSink<W> {
    fn consume(&self, event: &Event) {
        let mut w = self.writer.lock();
        let _ = writeln!(std::io::Write::by_ref(&mut *w), "{}", event.to_json());
    }
}

/// The bounded event ring. An atomic sequence counter claims a slot per
/// publication (`seq % capacity`); each slot is its own mutex, so
/// concurrent publishers from exchange workers contend only when they wrap
/// onto the same slot.
pub struct EventBus {
    config: EventConfig,
    epoch: Instant,
    seq: AtomicU64,
    slots: Vec<Mutex<Option<Event>>>,
    sinks: Mutex<Vec<Box<dyn EventSink>>>,
}

impl EventBus {
    pub fn new(config: EventConfig) -> Self {
        let capacity = config.capacity.max(1);
        EventBus {
            config,
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            sinks: Mutex::new(Vec::new()),
        }
    }

    pub fn config(&self) -> EventConfig {
        self.config
    }

    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Attach a sink observing every subsequently accepted event.
    pub fn add_sink(&self, sink: Box<dyn EventSink>) {
        self.sinks.lock().push(sink);
    }

    /// Publish one event (dropped unless the filter wants its kind).
    pub fn publish(&self, kind: EventKind, attrs: Vec<(String, String)>) {
        if !self.config.wants(kind) {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let event = Event {
            seq,
            timestamp_us: self.epoch.elapsed().as_micros() as u64,
            kind,
            attrs,
        };
        for sink in self.sinks.lock().iter() {
            sink.consume(&event);
        }
        *self.slots[(seq % self.slots.len() as u64) as usize].lock() = Some(event);
    }

    /// The retained events, oldest first (at most `capacity` of them).
    pub fn recent(&self) -> Vec<Event> {
        let mut events: Vec<Event> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().clone())
            .collect();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Total events accepted since creation (including overwritten ones).
    pub fn published(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }
}

/// The bridge from the low layers: string-keyed events raised through the
/// thread-local scope are translated into typed events. Unknown kinds are
/// dropped (an older emitter against a newer taxonomy must not panic).
impl dhqp_oledb::EventHook for EventBus {
    fn emit(&self, kind: &'static str, attrs: &[(&'static str, String)]) {
        if let Some(kind) = EventKind::from_name(kind) {
            self.publish(
                kind,
                attrs
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(bus: &EventBus, kind: EventKind, n: u64) {
        bus.publish(kind, vec![("n".to_string(), n.to_string())]);
    }

    #[test]
    fn ring_retains_the_newest_events_in_order() {
        let bus = EventBus::new(EventConfig::all().with_capacity(4));
        for i in 0..10 {
            ev(&bus, EventKind::RetryAttempt, i);
        }
        let recent = bus.recent();
        assert_eq!(recent.len(), 4);
        let seqs: Vec<u64> = recent.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(recent[0].detail(), "n=6");
        assert_eq!(bus.published(), 10);
    }

    #[test]
    fn filter_mask_drops_unwanted_kinds() {
        let bus = EventBus::new(EventConfig::only(&[EventKind::FaultInjected]));
        ev(&bus, EventKind::QueryStart, 0);
        ev(&bus, EventKind::FaultInjected, 1);
        ev(&bus, EventKind::SlowQuery, 2);
        let recent = bus.recent();
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].kind, EventKind::FaultInjected);
        // Disabled bus drops everything.
        let off = EventBus::new(EventConfig::disabled());
        ev(&off, EventKind::FaultInjected, 3);
        assert!(off.recent().is_empty());
    }

    #[test]
    fn all_lists_kinds_in_discriminant_order() {
        for (i, kind) in EventKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?}");
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(EventKind::from_name("nope"), None);
    }

    #[test]
    fn env_parsing_covers_all_shapes() {
        // The constructors the `DHQP_EVENTS` row (knobs.rs) dispatches to.
        assert!(!EventConfig::disabled().wants(EventKind::QueryStart));
        assert!(EventConfig::all().wants(EventKind::TwoPhaseCommit));
        let subset = EventConfig::only(&[EventKind::RetryAttempt, EventKind::FaultInjected]);
        assert!(subset.wants(EventKind::RetryAttempt));
        assert!(!subset.wants(EventKind::QueryEnd));
        assert!(!EventConfig::only(&[]).enabled);
    }

    #[test]
    fn jsonl_sink_streams_valid_lines() {
        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Buf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Buf::default();
        let bus = EventBus::new(EventConfig::all());
        bus.add_sink(Box::new(JsonlSink::new(buf.clone())));
        bus.publish(
            EventKind::FaultInjected,
            vec![("detail".to_string(), "drop \"mid\" stream".to_string())],
        );
        bus.publish(EventKind::QueryEnd, vec![]);
        let text = String::from_utf8(buf.0.lock().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"seq\":0,"));
        assert!(lines[0].contains("\"kind\":\"fault\""));
        assert!(lines[0].contains("drop \\\"mid\\\" stream"));
        assert!(lines[1].contains("\"kind\":\"query_end\""));
    }

    #[test]
    fn hook_translates_string_kinds() {
        use dhqp_oledb::EventHook as _;
        let bus = EventBus::new(EventConfig::all());
        bus.emit("retry", &[("attempt", "2".to_string())]);
        bus.emit("unknown_kind", &[]); // dropped, not a panic
        let recent = bus.recent();
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].kind, EventKind::RetryAttempt);
        assert_eq!(recent[0].detail(), "attempt=2");
    }

    #[test]
    fn concurrent_publishers_never_lose_sequences() {
        let bus = Arc::new(EventBus::new(EventConfig::all().with_capacity(64)));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let bus = Arc::clone(&bus);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        ev(&bus, EventKind::ExchangeSpawn, i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(bus.published(), 400);
        let recent = bus.recent();
        assert_eq!(recent.len(), 64);
        // Strictly increasing sequence numbers — no slot double-counting.
        assert!(recent.windows(2).all(|w| w[0].seq < w[1].seq));
    }
}
