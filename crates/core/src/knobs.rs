//! The knob table: every `DHQP_*` switch declared once (DESIGN.md §23).
//!
//! [`Knobs`] is the plain value an engine runs under. [`KNOBS`] has one row
//! per environment name — its meaning, how a string sets it (parse +
//! clamp) and how its value prints — from which [`Knobs::from_lookup`],
//! the `sys.dm_os_knobs` rows and the README table ([`render_markdown`])
//! are derived. Resolution order: [`Knobs::default`] → the environment,
//! once, at [`crate::EngineBuilder::new`] → builder methods and setters.

use crate::events::{EventConfig, EventKind};
use crate::metrics::RECENT_QUERY_CAPACITY;
use crate::plan_cache::PlanCacheConfig;
use crate::query_store::QueryStoreConfig;
use crate::trace::TraceConfig;
use dhqp_executor::{
    BatchConfig, BreakerConfig, DegradedMode, ParallelConfig, RetryPolicy, DEFAULT_BATCH_SIZE,
};
use dhqp_optimizer::OptimizerConfig;
use std::time::Duration;

/// Everything that configures how an engine compiles, runs and observes a
/// statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Knobs {
    pub optimizer: OptimizerConfig,
    pub parallel: ParallelConfig,
    pub retry: RetryPolicy,
    pub batch: BatchConfig,
    pub breaker: BreakerConfig,
    /// What a query does when a DPV member is quarantined.
    pub degraded: DegradedMode,
    pub plan_cache: PlanCacheConfig,
    pub query_store: QueryStoreConfig,
    pub trace: TraceConfig,
    pub events: EventConfig,
    /// Max age of a cached remote metadata/statistics bundle before the
    /// bind path refetches it.
    pub stats_ttl: Duration,
    /// Recent-query ring capacity (`sys.dm_exec_requests`).
    pub recent_queries: usize,
    /// Slow-query log threshold; `None` disarms it.
    pub slow_query: Option<Duration>,
    /// Skip DPV members whose startup predicate rejects the bound
    /// parameters before opening them (off: they yield empty lazily).
    pub runtime_prune: bool,
    /// Write observed remote cardinalities back into the metadata cache.
    pub card_feedback: bool,
    /// Reported only: the network simulator's fault injector sits below
    /// this crate and reads `DHQP_FAULT_SEED` itself.
    pub fault_seed: Option<u64>,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            optimizer: OptimizerConfig::default(),
            parallel: ParallelConfig::serial(),
            retry: RetryPolicy::standard(),
            batch: BatchConfig::batched(DEFAULT_BATCH_SIZE),
            breaker: BreakerConfig::standard(),
            degraded: DegradedMode::Fail,
            plan_cache: PlanCacheConfig::default(),
            query_store: QueryStoreConfig::default(),
            trace: TraceConfig::disabled(),
            events: EventConfig::disabled(),
            stats_ttl: Duration::from_secs(60),
            recent_queries: RECENT_QUERY_CAPACITY,
            slow_query: None,
            runtime_prune: true,
            card_feedback: false,
            fault_seed: None,
        }
    }
}

/// What the environment resolved to when an engine was built: what
/// `sys.dm_os_knobs` judges `env` against, not the environment of the day.
#[derive(Debug, Clone)]
pub struct EnvKnobs {
    pub knobs: Knobs,
    /// The names the environment supplied (parsable or not).
    pub named: Vec<&'static str>,
}

impl Knobs {
    /// The defaults overridden by whatever `lookup` returns for each name
    /// in [`KNOBS`].
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> EnvKnobs {
        let mut env = EnvKnobs {
            knobs: Knobs::default(),
            named: Vec::new(),
        };
        for row in KNOBS {
            if let Some(text) = lookup(row.name) {
                (row.apply)(&mut env.knobs, &text);
                env.named.push(row.name);
            }
        }
        env
    }

    /// [`Knobs::from_lookup`] over the process environment.
    pub fn from_env() -> EnvKnobs {
        Knobs::from_lookup(|name| std::env::var(name).ok())
    }

    /// Raise the capacities a builder method or setter may have been
    /// handed as 0 to the 1 the structures they size run with.
    pub(crate) fn clamp(&mut self) {
        self.plan_cache.capacity = self.plan_cache.capacity.max(1);
        self.query_store.capacity = self.query_store.capacity.max(1);
        self.recent_queries = self.recent_queries.max(1);
    }
}

/// How a row reads its string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// On/off, by [`parse_switch`].
    Switch,
    /// An unsigned integer, by [`parse_number`] (milliseconds for `*_MS`).
    Number,
    /// Anything else; the row's meaning spells the accepted values.
    Text,
}

/// One `DHQP_*` knob.
pub struct KnobRow {
    pub name: &'static str,
    pub kind: Kind,
    pub meaning: &'static str,
    /// Parse + clamp `text` into the knob; text that does not parse (or is
    /// empty) leaves it as it was.
    pub apply: fn(&mut Knobs, &str),
    /// The knob's current value as `sys.dm_os_knobs` prints it.
    pub render: fn(&Knobs) -> String,
}

/// The one on/off rule: trimmed; empty = unset; `0` (or `false`, which is
/// how a switch prints) = off; anything else = on.
pub fn parse_switch(text: &str) -> Option<bool> {
    match text.trim() {
        "" => None,
        t => Some(t != "0" && !t.eq_ignore_ascii_case("false")),
    }
}

/// The one numeric rule: trimmed, unsigned; anything else is unset.
pub fn parse_number(text: &str) -> Option<u64> {
    text.trim().parse().ok()
}

fn opt_millis(text: &str) -> Option<Duration> {
    parse_number(text).map(Duration::from_millis)
}

fn opt_millis_text(d: Option<Duration>) -> String {
    d.map_or_else(|| "off".to_string(), |d| d.as_millis().to_string())
}

macro_rules! knob {
    ($name:literal, $kind:ident, $meaning:literal, $apply:expr, $render:expr) => {
        KnobRow {
            name: $name,
            kind: Kind::$kind,
            meaning: $meaning,
            apply: $apply,
            render: $render,
        }
    };
}

/// An on/off field.
macro_rules! switch {
    ($name:literal, $($f:ident).+, $meaning:literal) => {
        knob!(
            $name,
            Switch,
            $meaning,
            |k, v| k.$($f).+ = parse_switch(v).unwrap_or(k.$($f).+),
            |k| k.$($f).+.to_string()
        )
    };
}

/// An integer field of type `$ty`, saturated into it and raised to `$min`.
macro_rules! number {
    ($name:literal, $($f:ident).+ : $ty:ty, $min:literal, $meaning:literal) => {
        knob!(
            $name,
            Number,
            $meaning,
            |k, v| {
                if let Some(n) = parse_number(v) {
                    k.$($f).+ = <$ty>::try_from(n).unwrap_or(<$ty>::MAX).max($min);
                }
            },
            |k| k.$($f).+.to_string()
        )
    };
}

/// A `Duration` field, in milliseconds.
macro_rules! millis {
    ($name:literal, $($f:ident).+, $meaning:literal) => {
        knob!(
            $name,
            Number,
            $meaning,
            |k, v| k.$($f).+ = opt_millis(v).unwrap_or(k.$($f).+),
            |k| k.$($f).+.as_millis().to_string()
        )
    };
}

/// Every knob, in `sys.dm_os_knobs` order.
#[rustfmt::skip] // one or two lines per row, so the table reads as one
pub const KNOBS: &[KnobRow] = &[
    knob!("DHQP_PARALLEL", Switch,
        "parallel remote execution: a union with two or more remote members opens them on \
         exchange workers, which drain what they open, and a remote rowset the statement's \
         own thread reads is prefetched",
        |k, v| match parse_switch(v) {
            Some(true) => k.parallel = ParallelConfig::parallel(),
            Some(false) => k.parallel = ParallelConfig::serial(),
            None => {}
        },
        |k| k.parallel.enabled.to_string()),
    number!("DHQP_BATCH_SIZE", batch.batch_size: usize, 1,
        "rows per batch across operators and links (≥ 1; 1 = row at a time)"),
    number!("DHQP_RETRY_ATTEMPTS", retry.max_attempts: u32, 1,
        "attempts per idempotent remote read, first try included (≥ 1; 1 = no retry)"),
    millis!("DHQP_RETRY_BACKOFF_MS", retry.base_backoff,
        "backoff before the second attempt; doubles per attempt"),
    millis!("DHQP_RETRY_MAX_BACKOFF_MS", retry.max_backoff, "backoff ceiling"),
    knob!("DHQP_RETRY_DEADLINE_MS", Number,
        "wall-clock budget across all attempts of one remote operation",
        |k, v| k.retry.query_deadline = opt_millis(v).or(k.retry.query_deadline),
        |k| opt_millis_text(k.retry.query_deadline)),
    switch!("DHQP_BREAKER", breaker.enabled,
        "per-link circuit breakers; off = every admission passes"),
    number!("DHQP_BREAKER_THRESHOLD", breaker.failure_threshold: u32, 1,
        "consecutive retry-exhausted failures that open a breaker (≥ 1)"),
    number!("DHQP_BREAKER_COOLDOWN", breaker.cooldown: u32, 1,
        "rejected admissions an open breaker absorbs before one probe (≥ 1)"),
    knob!("DHQP_DEGRADED", Text,
        "a quarantined DPV member fails the statement (`fail`) or is skipped (`prune`)",
        |k, v| match v.trim().to_ascii_lowercase().as_str() {
            "prune" => k.degraded = DegradedMode::Prune,
            "fail" => k.degraded = DegradedMode::Fail,
            _ => {}
        },
        |k| if k.degraded.is_prune() { "prune" } else { "fail" }.to_string()),
    switch!("DHQP_RUNTIME_PRUNE", runtime_prune,
        "skip DPV members whose startup predicate rejects the bound parameters without \
         opening them"),
    switch!("DHQP_PLAN_CACHE", plan_cache.enabled,
        "parameterized plan cache; off = every statement compiles"),
    number!("DHQP_PLAN_CACHE_SIZE", plan_cache.capacity: usize, 1, "cached plans kept, LRU (≥ 1)"),
    millis!("DHQP_STATS_TTL_MS", stats_ttl,
        "max age of cached remote metadata/statistics before a refetch"),
    number!("DHQP_RECENT_QUERIES", recent_queries: usize, 1,
        "statements the `sys.dm_exec_requests` ring keeps (≥ 1)"),
    knob!("DHQP_SLOW_QUERY_MS", Number,
        "arms the slow-query log: statements at or above this are kept",
        |k, v| k.slow_query = opt_millis(v).or(k.slow_query),
        |k| opt_millis_text(k.slow_query)),
    switch!("DHQP_TRACE", trace.enabled, "hierarchical span tracing of every statement"),
    knob!("DHQP_EVENTS", Text,
        "event capture: `0` off, `1`/`all` every kind, or a comma-separated list of kind \
         names (unknown names are ignored)",
        |k, v| match v.trim() {
            "" => {}
            "0" => k.events = EventConfig::disabled(),
            v if v == "1" || v.eq_ignore_ascii_case("all") => k.events = EventConfig::all(),
            v => {
                let kinds: Vec<EventKind> =
                    v.split(',').filter_map(|name| EventKind::from_name(name.trim())).collect();
                k.events = EventConfig::only(&kinds);
            }
        },
        |k| match k.events.enabled {
            true => format!("mask=0x{:04x}", k.events.mask),
            false => "off".to_string(),
        }),
    switch!("DHQP_SEMIJOIN", optimizer.enable_semijoin,
        "semi-join reduction: ship the small side's join keys as an IN-list"),
    number!("DHQP_SEMIJOIN_MAX_KEYS", optimizer.semijoin_max_keys: usize, 0,
        "keys per request of the all-keys semi-join reduction, and its admission ceiling"),
    switch!("DHQP_QUERY_STORE", query_store.enabled,
        "per-fingerprint plan and runtime history (`sys.query_store_*`)"),
    number!("DHQP_QUERY_STORE_SIZE", query_store.capacity: usize, 1,
        "fingerprints the Query Store tracks, LRU (≥ 1)"),
    switch!("DHQP_CARD_FEEDBACK", card_feedback,
        "cardinality feedback: a whole-table remote fetch that observed at least twice the \
         known row count corrects the cached statistics"),
    knob!("DHQP_FAULT_SEED", Number,
        "test harness: every simulated link injects one seeded transient fault per fault \
         site (read by the network simulator, reported here)",
        |k, v| k.fault_seed = parse_number(v).or(k.fault_seed),
        |k| k.fault_seed.map_or_else(|| "unset".to_string(), |seed| seed.to_string())),
];

/// The README's knob table, generated so it cannot drift from [`KNOBS`].
pub fn render_markdown() -> String {
    let default = Knobs::default();
    let mut out = String::from("| Knob | Default | Reads as | Meaning |\n|---|---|---|---|\n");
    for row in KNOBS {
        let kind = match row.kind {
            Kind::Switch => "switch",
            Kind::Number => "number",
            Kind::Text => "text",
        };
        let default = (row.render)(&default);
        out.push_str(&format!(
            "| `{}` | `{default}` | {kind} | {} |\n",
            row.name, row.meaning
        ));
    }
    out
}
