//! The built-in `sys` provider: dynamic management views served through
//! the ordinary OLE DB-style provider model.
//!
//! SQL Server exposes its own internals as `sys.dm_exec_*` rowsets; this
//! module does the same by registering a *simple provider* (§3.3 — only
//! `open_rowset`, no query support) under the linked-server name `sys` in
//! every engine. Observability data therefore enters plans as normal `Get`
//! operators: the optimizer plans a RemoteScan, the executor opens a
//! rowset, and filtering/joining/ordering over DMV rows is handled by the
//! DHQP exactly as for any other provider — the paper's abstraction,
//! dogfooded.
//!
//! Views:
//! * `sys.dm_exec_requests` — the recent-query ring, one row per finished
//!   statement (including its error, if any).
//! * `sys.dm_exec_query_stats` — per-fingerprint execution aggregates from
//!   the parameterized plan cache.
//! * `sys.dm_link_stats` — per-linked-server wire traffic, modeled
//!   round-trip latency percentiles, and the session pool's connect count
//!   and idle sessions.
//! * `sys.dm_link_health` — per-linked-server circuit-breaker state from
//!   the health registry (§15): breaker state, failure streak, trip and
//!   probe counts, and the last error that fed the breaker.
//! * `sys.dm_os_counters` — the engine's [`crate::MetricsSnapshot`] plus
//!   end-to-end query-latency percentiles, as `(name, value)` rows.
//! * `sys.dm_os_wait_stats` — cumulative per-class wait accounting (one
//!   row per [`dhqp_oledb::WaitClass`], zeros included).
//! * `sys.dm_xe_recent_events` — the event bus's retained ring, oldest
//!   first (empty unless events are enabled).
//! * `sys.query_store_query` — one row per tracked fingerprint (§17):
//!   identity, template and execution totals.
//! * `sys.query_store_plan` — one row per distinct physical plan of a
//!   fingerprint: shape hash, compile-time estimates and epochs, the
//!   regression flag and the rendered plan text.
//! * `sys.query_store_runtime_stats` — per-plan aggregated runtime: wall
//!   time, result rows, link traffic, dominant wait, and the worst
//!   estimate-vs-actual skew with the operator that produced it.
//! * `sys.dm_os_knobs` — every effective `DHQP_*` knob with its value and
//!   provenance (`env` / `builder` / `default`).
//!
//! Rows materialize at rowset-open time from live engine state; the
//! provider holds only a weak reference to the engine, since the engine's
//! own registry owns the provider.

use crate::engine::Inner;
use dhqp_oledb::{
    ColumnInfo, DataSource, MemRowset, ProviderCapabilities, Rowset, Session, TableInfo, WaitClass,
};
use dhqp_types::{DataType, DhqpError, Result, Row, Value};
use std::sync::{Arc, Weak};

/// The linked-server name every engine registers its DMV provider under.
pub const SYS_SERVER: &str = "sys";

const DM_EXEC_REQUESTS: &str = "dm_exec_requests";
const DM_EXEC_QUERY_STATS: &str = "dm_exec_query_stats";
const DM_LINK_STATS: &str = "dm_link_stats";
const DM_LINK_HEALTH: &str = "dm_link_health";
const DM_OS_COUNTERS: &str = "dm_os_counters";
const DM_OS_WAIT_STATS: &str = "dm_os_wait_stats";
const DM_XE_RECENT_EVENTS: &str = "dm_xe_recent_events";
const QUERY_STORE_QUERY: &str = "query_store_query";
const QUERY_STORE_PLAN: &str = "query_store_plan";
const QUERY_STORE_RUNTIME_STATS: &str = "query_store_runtime_stats";
const DM_OS_KNOBS: &str = "dm_os_knobs";

/// The `sys` data source. Holds a weak engine reference: the engine's
/// linked-server registry owns this provider, so a strong one would leak
/// the engine in a cycle.
pub struct SysDataSource {
    inner: Weak<Inner>,
}

impl SysDataSource {
    pub(crate) fn new(inner: Weak<Inner>) -> Self {
        SysDataSource { inner }
    }

    fn engine(&self) -> Result<Arc<Inner>> {
        self.inner
            .upgrade()
            .ok_or_else(|| DhqpError::Provider("sys provider outlived its engine".into()))
    }
}

fn requests_info() -> TableInfo {
    TableInfo::new(
        DM_EXEC_REQUESTS,
        vec![
            ColumnInfo::not_null("sql", DataType::Str),
            ColumnInfo::not_null("kind", DataType::Str),
            ColumnInfo::not_null("rows", DataType::Int),
            ColumnInfo::not_null("elapsed_ms", DataType::Float),
            ColumnInfo::not_null("ok", DataType::Bool),
            ColumnInfo::new("error", DataType::Str),
            // NULL when the statement never blocked.
            ColumnInfo::new("dominant_wait", DataType::Str),
            // DPV members degraded mode skipped during this statement.
            ColumnInfo::not_null("pruned_members", DataType::Int),
            // Plan-cache fingerprint template; NULL for statements that
            // didn't auto-parameterize.
            ColumnInfo::new("fingerprint", DataType::Str),
            // Condensed `[semijoin: ...]`/`[degraded: ...]`/`[startup: ...]`
            // markers; NULL when nothing noteworthy happened.
            ColumnInfo::new("annotations", DataType::Str),
        ],
    )
}

fn query_stats_info() -> TableInfo {
    TableInfo::new(
        DM_EXEC_QUERY_STATS,
        vec![
            ColumnInfo::not_null("template", DataType::Str),
            ColumnInfo::not_null("execution_count", DataType::Int),
            ColumnInfo::not_null("total_rows", DataType::Int),
            ColumnInfo::not_null("total_elapsed_ms", DataType::Float),
            ColumnInfo::not_null("avg_elapsed_ms", DataType::Float),
        ],
    )
}

fn link_stats_info() -> TableInfo {
    TableInfo::new(
        DM_LINK_STATS,
        vec![
            ColumnInfo::not_null("name", DataType::Str),
            ColumnInfo::not_null("requests", DataType::Int),
            ColumnInfo::not_null("rows", DataType::Int),
            ColumnInfo::not_null("bytes", DataType::Int),
            // Mean rows shipped per round trip; NULL before any traffic.
            ColumnInfo::new("rows_per_round_trip", DataType::Float),
            // NULL for unmetered sources (no simulated link in between).
            ColumnInfo::new("p50_ms", DataType::Float),
            ColumnInfo::new("p95_ms", DataType::Float),
            ColumnInfo::new("p99_ms", DataType::Float),
            ColumnInfo::new("max_ms", DataType::Float),
            // The server's session pool: connect requests sent since the
            // registration (or the last metrics reset), and sessions idle
            // now. `requests - connects` is the work the opens themselves
            // cost.
            ColumnInfo::not_null("connects", DataType::Int),
            ColumnInfo::not_null("sessions_idle", DataType::Int),
        ],
    )
}

fn link_health_info() -> TableInfo {
    TableInfo::new(
        DM_LINK_HEALTH,
        vec![
            ColumnInfo::not_null("server", DataType::Str),
            ColumnInfo::not_null("state", DataType::Str),
            ColumnInfo::not_null("consecutive_failures", DataType::Int),
            ColumnInfo::not_null("opens", DataType::Int),
            ColumnInfo::not_null("probes", DataType::Int),
            // Logical-clock tick of the last state transition; 0 = never.
            ColumnInfo::not_null("last_transition", DataType::Int),
            // NULL until the link's first recorded failure.
            ColumnInfo::new("last_error", DataType::Str),
        ],
    )
}

fn os_counters_info() -> TableInfo {
    TableInfo::new(
        DM_OS_COUNTERS,
        vec![
            ColumnInfo::not_null("name", DataType::Str),
            ColumnInfo::not_null("value", DataType::Int),
        ],
    )
}

fn wait_stats_info() -> TableInfo {
    TableInfo::new(
        DM_OS_WAIT_STATS,
        vec![
            ColumnInfo::not_null("wait_type", DataType::Str),
            ColumnInfo::not_null("waiting_tasks_count", DataType::Int),
            ColumnInfo::not_null("wait_time_ms", DataType::Float),
            ColumnInfo::not_null("max_wait_time_ms", DataType::Float),
        ],
    )
}

fn xe_recent_events_info() -> TableInfo {
    TableInfo::new(
        DM_XE_RECENT_EVENTS,
        vec![
            ColumnInfo::not_null("seq", DataType::Int),
            ColumnInfo::not_null("timestamp_ms", DataType::Float),
            ColumnInfo::not_null("kind", DataType::Str),
            ColumnInfo::not_null("detail", DataType::Str),
        ],
    )
}

fn query_store_query_info() -> TableInfo {
    TableInfo::new(
        QUERY_STORE_QUERY,
        vec![
            // FNV-1a hashes rendered as fixed-width hex: joinable across
            // the three views without i64 overflow concerns.
            ColumnInfo::not_null("query_id", DataType::Str),
            ColumnInfo::not_null("template", DataType::Str),
            ColumnInfo::not_null("plan_count", DataType::Int),
            ColumnInfo::not_null("execution_count", DataType::Int),
            ColumnInfo::new("last_plan_hash", DataType::Str),
        ],
    )
}

fn query_store_plan_info() -> TableInfo {
    TableInfo::new(
        QUERY_STORE_PLAN,
        vec![
            ColumnInfo::not_null("query_id", DataType::Str),
            ColumnInfo::not_null("plan_id", DataType::Int),
            ColumnInfo::not_null("plan_hash", DataType::Str),
            ColumnInfo::not_null("est_rows", DataType::Float),
            ColumnInfo::not_null("est_cost", DataType::Float),
            ColumnInfo::not_null("compile_schema_epoch", DataType::Int),
            ColumnInfo::not_null("compile_config_epoch", DataType::Int),
            // The plan arrived measurably slower than the fingerprint's
            // previous plan (see query_store::REGRESSION_FACTOR).
            ColumnInfo::not_null("regressed", DataType::Bool),
            ColumnInfo::not_null("plan_text", DataType::Str),
        ],
    )
}

fn query_store_runtime_stats_info() -> TableInfo {
    TableInfo::new(
        QUERY_STORE_RUNTIME_STATS,
        vec![
            ColumnInfo::not_null("query_id", DataType::Str),
            ColumnInfo::not_null("plan_id", DataType::Int),
            ColumnInfo::not_null("execution_count", DataType::Int),
            ColumnInfo::not_null("total_rows", DataType::Int),
            ColumnInfo::not_null("total_elapsed_ms", DataType::Float),
            ColumnInfo::not_null("avg_elapsed_ms", DataType::Float),
            ColumnInfo::not_null("total_link_bytes", DataType::Int),
            ColumnInfo::not_null("total_link_requests", DataType::Int),
            // NULL when no execution of this plan ever blocked.
            ColumnInfo::new("dominant_wait", DataType::Str),
            // Worst per-operator estimate-vs-actual ratio (≥ 1.0; 0.0
            // when no operator was ever opened) and where it happened.
            ColumnInfo::not_null("max_skew", DataType::Float),
            ColumnInfo::new("max_skew_operator", DataType::Str),
        ],
    )
}

fn os_knobs_info() -> TableInfo {
    TableInfo::new(
        DM_OS_KNOBS,
        vec![
            ColumnInfo::not_null("name", DataType::Str),
            ColumnInfo::not_null("value", DataType::Str),
            // env | builder | default.
            ColumnInfo::not_null("source", DataType::Str),
        ],
    )
}

fn ms(us: u64) -> Value {
    Value::Float(us as f64 / 1000.0)
}

fn hex64(v: u64) -> Value {
    Value::Str(format!("{v:016x}"))
}

impl DataSource for SysDataSource {
    fn name(&self) -> &str {
        SYS_SERVER
    }

    fn capabilities(&self) -> ProviderCapabilities {
        // A simple provider: SqlSupport::None, no indexes, no statistics.
        // The DHQP layers everything — DMV filtering and joins run locally.
        ProviderCapabilities::simple(SYS_SERVER)
    }

    fn tables(&self) -> Result<Vec<TableInfo>> {
        let engine = self.engine()?;
        Ok(vec![
            requests_info().with_cardinality(engine.dmv_recent().len() as u64),
            query_stats_info().with_cardinality(engine.dmv_plan_entries().len() as u64),
            link_stats_info().with_cardinality(engine.dmv_links().len() as u64),
            link_health_info().with_cardinality(engine.dmv_link_health().len() as u64),
            os_counters_info().with_cardinality(engine.dmv_metrics().counters().len() as u64 + 5),
            wait_stats_info().with_cardinality(WaitClass::ALL.len() as u64),
            xe_recent_events_info().with_cardinality(engine.dmv_recent_events().len() as u64),
            query_store_query_info().with_cardinality(engine.dmv_query_store().len() as u64),
            query_store_plan_info().with_cardinality(
                engine
                    .dmv_query_store()
                    .iter()
                    .map(|q| q.plans.len() as u64)
                    .sum(),
            ),
            query_store_runtime_stats_info().with_cardinality(
                engine
                    .dmv_query_store()
                    .iter()
                    .map(|q| q.plans.len() as u64)
                    .sum(),
            ),
            os_knobs_info().with_cardinality(crate::knobs::KNOBS.len() as u64),
        ])
    }

    fn create_session(&self) -> Result<Box<dyn Session>> {
        Ok(Box::new(SysSession {
            inner: self.inner.clone(),
        }))
    }
}

struct SysSession {
    inner: Weak<Inner>,
}

impl Session for SysSession {
    /// Materialize the requested view from live engine state. The one
    /// mandatory provider method — everything else stays at the
    /// unsupported defaults, exercising the simple-provider path.
    fn open_rowset(&mut self, table: &str) -> Result<Box<dyn Rowset>> {
        let engine = self
            .inner
            .upgrade()
            .ok_or_else(|| DhqpError::Provider("sys provider outlived its engine".into()))?;
        let (info, rows) = match table.to_lowercase().as_str() {
            DM_EXEC_REQUESTS => (requests_info(), requests_rows(&engine)),
            DM_EXEC_QUERY_STATS => (query_stats_info(), query_stats_rows(&engine)),
            DM_LINK_STATS => (link_stats_info(), link_stats_rows(&engine)),
            DM_LINK_HEALTH => (link_health_info(), link_health_rows(&engine)),
            DM_OS_COUNTERS => (os_counters_info(), os_counters_rows(&engine)),
            DM_OS_WAIT_STATS => (wait_stats_info(), wait_stats_rows(&engine)),
            DM_XE_RECENT_EVENTS => (xe_recent_events_info(), xe_recent_events_rows(&engine)),
            QUERY_STORE_QUERY => (query_store_query_info(), query_store_query_rows(&engine)),
            QUERY_STORE_PLAN => (query_store_plan_info(), query_store_plan_rows(&engine)),
            QUERY_STORE_RUNTIME_STATS => (
                query_store_runtime_stats_info(),
                query_store_runtime_stats_rows(&engine),
            ),
            DM_OS_KNOBS => (os_knobs_info(), engine.dmv_knobs()),
            other => {
                return Err(DhqpError::Catalog(format!(
                    "table '{other}' not found in source '{SYS_SERVER}'"
                )))
            }
        };
        Ok(Box::new(MemRowset::new(info.schema(), rows)))
    }
}

fn requests_rows(engine: &Inner) -> Vec<Row> {
    let text = |s: Option<String>| s.map_or(Value::Null, Value::Str);
    engine
        .dmv_recent()
        .iter()
        .map(|q| {
            Row::new(vec![
                Value::Str(q.sql.clone()),
                Value::Str(q.kind_name().to_string()),
                Value::Int(q.rows as i64),
                Value::Float(q.elapsed.as_secs_f64() * 1000.0),
                Value::Bool(q.ok()),
                text(q.error.clone()),
                text(q.dominant_wait().map(str::to_string)),
                Value::Int(q.pruned.len() as i64),
                text(q.fingerprint.clone()),
                text(q.annotations()),
            ])
        })
        .collect()
}

fn query_store_query_rows(engine: &Inner) -> Vec<Row> {
    engine
        .dmv_query_store()
        .into_iter()
        .map(|q| {
            let executions = q.executions();
            Row::new(vec![
                hex64(q.query_id),
                Value::Str(q.template),
                Value::Int(q.plans.len() as i64),
                Value::Int(executions as i64),
                q.last_plan_hash.map(hex64).unwrap_or(Value::Null),
            ])
        })
        .collect()
}

fn query_store_plan_rows(engine: &Inner) -> Vec<Row> {
    let mut rows = Vec::new();
    for q in engine.dmv_query_store() {
        for p in &q.plans {
            rows.push(Row::new(vec![
                hex64(q.query_id),
                Value::Int(p.plan_id as i64),
                hex64(p.plan_hash),
                Value::Float(p.est_rows),
                Value::Float(p.est_cost),
                Value::Int(p.compile_schema_epoch as i64),
                Value::Int(p.compile_config_epoch as i64),
                Value::Bool(p.regressed),
                Value::Str(p.plan_text.clone()),
            ]));
        }
    }
    rows
}

fn query_store_runtime_stats_rows(engine: &Inner) -> Vec<Row> {
    let mut rows = Vec::new();
    for q in engine.dmv_query_store() {
        for p in &q.plans {
            let max_skew = p.max_skew();
            let max_skew_operator = p
                .operators
                .iter()
                .filter(|o| o.skew() > 0.0)
                .max_by(|a, b| a.skew().total_cmp(&b.skew()))
                .map(|o| Value::Str(o.operator.clone()))
                .unwrap_or(Value::Null);
            rows.push(Row::new(vec![
                hex64(q.query_id),
                Value::Int(p.plan_id as i64),
                Value::Int(p.executions as i64),
                Value::Int(p.total_rows as i64),
                Value::Float(p.total_elapsed_us as f64 / 1000.0),
                Value::Float(p.avg_elapsed_us() as f64 / 1000.0),
                Value::Int(p.total_link_bytes as i64),
                Value::Int(p.total_link_requests as i64),
                p.dominant_wait()
                    .map(|w| Value::Str(w.to_string()))
                    .unwrap_or(Value::Null),
                Value::Float(max_skew),
                max_skew_operator,
            ]));
        }
    }
    rows
}

fn query_stats_rows(engine: &Inner) -> Vec<Row> {
    use std::sync::atomic::Ordering;
    engine
        .dmv_plan_entries()
        .into_iter()
        .map(|(template, entry)| {
            let count = entry.execution_count.load(Ordering::Relaxed);
            let total_us = entry.total_elapsed_us.load(Ordering::Relaxed);
            let total_ms = total_us as f64 / 1000.0;
            let avg_ms = if count == 0 {
                0.0
            } else {
                total_ms / count as f64
            };
            Row::new(vec![
                Value::Str(template),
                Value::Int(count as i64),
                Value::Int(entry.total_rows.load(Ordering::Relaxed) as i64),
                Value::Float(total_ms),
                Value::Float(avg_ms),
            ])
        })
        .collect()
}

fn link_stats_rows(engine: &Inner) -> Vec<Row> {
    engine
        .dmv_links()
        .into_iter()
        .map(|(name, source)| {
            let t = source.traffic().unwrap_or_default();
            let pool = source.stats();
            let (p50, p95, p99, max) = match source.latency() {
                Some(l) => (ms(l.p50_us), ms(l.p95_us), ms(l.p99_us), ms(l.max_us)),
                None => (Value::Null, Value::Null, Value::Null, Value::Null),
            };
            let per_trip = match t.rows_per_round_trip() {
                Some(v) => Value::Float(v),
                None => Value::Null,
            };
            Row::new(vec![
                Value::Str(name),
                Value::Int(t.requests as i64),
                Value::Int(t.rows as i64),
                Value::Int(t.bytes as i64),
                per_trip,
                p50,
                p95,
                p99,
                max,
                Value::Int(pool.connects as i64),
                Value::Int(pool.idle as i64),
            ])
        })
        .collect()
}

fn link_health_rows(engine: &Inner) -> Vec<Row> {
    engine
        .dmv_link_health()
        .into_iter()
        .map(|l| {
            Row::new(vec![
                Value::Str(l.server),
                Value::Str(l.state.name().to_string()),
                Value::Int(l.consecutive_failures as i64),
                Value::Int(l.opens as i64),
                Value::Int(l.probes as i64),
                Value::Int(l.last_transition as i64),
                l.last_error.map(Value::Str).unwrap_or(Value::Null),
            ])
        })
        .collect()
}

fn wait_stats_rows(engine: &Inner) -> Vec<Row> {
    let snapshot = engine.dmv_wait_stats();
    WaitClass::ALL
        .iter()
        .map(|&class| {
            let t = snapshot.get(class);
            Row::new(vec![
                Value::Str(class.name().to_string()),
                Value::Int(t.count as i64),
                ms(t.total_us),
                ms(t.max_us),
            ])
        })
        .collect()
}

fn xe_recent_events_rows(engine: &Inner) -> Vec<Row> {
    engine
        .dmv_recent_events()
        .into_iter()
        .map(|e| {
            Row::new(vec![
                Value::Int(e.seq as i64),
                ms(e.timestamp_us),
                Value::Str(e.kind.name().to_string()),
                Value::Str(e.detail()),
            ])
        })
        .collect()
}

fn os_counters_rows(engine: &Inner) -> Vec<Row> {
    let mut rows: Vec<Row> = engine
        .dmv_metrics()
        .counters()
        .into_iter()
        .map(|(name, value)| Row::new(vec![Value::Str(name.to_string()), Value::Int(value as i64)]))
        .collect();
    // End-to-end statement latency percentiles, in microseconds (integer
    // counters, so they share the (name, value) shape).
    let latency = engine.dmv_query_latency();
    for (name, value) in [
        ("query_latency_count", latency.count),
        ("query_latency_p50_us", latency.percentile(50.0)),
        ("query_latency_p95_us", latency.percentile(95.0)),
        ("query_latency_p99_us", latency.percentile(99.0)),
        ("query_latency_max_us", latency.max),
    ] {
        rows.push(Row::new(vec![
            Value::Str(name.to_string()),
            Value::Int(value as i64),
        ]));
    }
    rows
}
