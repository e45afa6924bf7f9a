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
//! Each view is one column table — `(name, type, nullable, getter)` per
//! column — over the items its engine state yields (see `VIEWS`). The
//! same table gives the view's `TableInfo` and its rows, and `tables()`
//! counts the rows it would serve, so what the provider lists is what a
//! rowset opened on it holds.
//!
//! Rows materialize at rowset-open time from live engine state; the
//! provider holds only a weak reference to the engine, since the engine's
//! own registry owns the provider.

use crate::engine::Inner;
use crate::events::Event;
use crate::query_store::{PlanStats, QueryStats};
use crate::record::StatementRecord;
use dhqp_executor::LinkHealthSnapshot;
use dhqp_oledb::{
    ColumnInfo, DataSource, LatencySummary, MemRowset, PoolStats, ProviderCapabilities, Rowset,
    Session, TableInfo, TrafficSnapshot, WaitClass, WaitTotals,
};
use dhqp_types::DataType::{self, Bool, Float, Int, Str};
use dhqp_types::{DhqpError, Result, Row, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// The linked-server name every engine registers its DMV provider under.
pub const SYS_SERVER: &str = "sys";

/// One column of a view: what `TableInfo` lists for it, and its value in
/// the row one item of the view's source becomes.
struct Col<T> {
    name: &'static str,
    ty: DataType,
    nullable: bool,
    get: fn(&T) -> Value,
}

/// A NOT NULL column.
fn col<T>(name: &'static str, ty: DataType, get: fn(&T) -> Value) -> Col<T> {
    Col {
        name,
        ty,
        nullable: false,
        get,
    }
}

/// A column that may hold NULL.
fn nullable<T>(name: &'static str, ty: DataType, get: fn(&T) -> Value) -> Col<T> {
    Col {
        nullable: true,
        ..col(name, ty, get)
    }
}

/// A view's columns and rows, both read from one column table.
type View = (Vec<ColumnInfo>, Vec<Row>);

fn view<T>(items: impl IntoIterator<Item = T>, cols: &[Col<T>]) -> View {
    let columns = cols.iter().map(|c| ColumnInfo {
        name: c.name.to_string(),
        data_type: c.ty,
        nullable: c.nullable,
    });
    let row = |item: T| Row::new(cols.iter().map(|c| (c.get)(&item)).collect());
    (columns.collect(), items.into_iter().map(row).collect())
}

/// How a view builds from its engine's state.
type Build = fn(&Inner) -> View;

/// Every view, in `tables()` order.
const VIEWS: [(&str, Build); 11] = [
    ("dm_exec_requests", requests),
    ("dm_exec_query_stats", query_stats),
    ("dm_link_stats", link_stats),
    ("dm_link_health", link_health),
    ("dm_os_counters", os_counters),
    ("dm_os_wait_stats", wait_stats),
    ("dm_xe_recent_events", xe_recent_events),
    ("query_store_query", query_store_query),
    ("query_store_plan", query_store_plan),
    ("query_store_runtime_stats", query_store_runtime_stats),
    ("dm_os_knobs", os_knobs),
];

fn int(n: u64) -> Value {
    Value::Int(n as i64)
}

fn ms(us: u64) -> Value {
    Value::Float(us as f64 / 1000.0)
}

fn hex64(v: u64) -> Value {
    Value::Str(format!("{v:016x}"))
}

fn text(s: Option<impl Into<String>>) -> Value {
    s.map_or(Value::Null, |s| Value::Str(s.into()))
}

/// The recent-query ring, one row per finished statement (including its
/// error, if any).
fn requests(engine: &Inner) -> View {
    view(
        engine.dmv_recent(),
        &[
            col("sql", Str, |q: &Arc<StatementRecord>| {
                Value::Str(q.sql.clone())
            }),
            col("kind", Str, |q| Value::Str(q.kind_name().to_string())),
            col("rows", Int, |q| int(q.rows)),
            col("elapsed_ms", Float, |q| {
                Value::Float(q.elapsed.as_secs_f64() * 1000.0)
            }),
            col("ok", Bool, |q| Value::Bool(q.ok())),
            nullable("error", Str, |q| text(q.error.clone())),
            // NULL when the statement never blocked.
            nullable("dominant_wait", Str, |q| text(q.dominant_wait())),
            // DPV members degraded mode skipped during this statement.
            col("pruned_members", Int, |q| int(q.pruned.len() as u64)),
            // Plan-cache fingerprint template; NULL for statements that
            // didn't auto-parameterize.
            nullable("fingerprint", Str, |q| text(q.fingerprint.clone())),
            // Condensed `[semijoin: ...]`/`[degraded: ...]`/`[startup: ...]`
            // markers; NULL when nothing noteworthy happened.
            nullable("annotations", Str, |q| text(q.annotations())),
        ],
    )
}

/// Per-fingerprint execution aggregates from the parameterized plan cache.
fn query_stats(engine: &Inner) -> View {
    // (template, executions, total rows, total µs), each loaded once.
    let entries = engine.dmv_plan_entries().into_iter().map(|(template, e)| {
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        let (count, rows) = (load(&e.execution_count), load(&e.total_rows));
        (template, count, rows, load(&e.total_elapsed_us))
    });
    view(
        entries,
        &[
            col("template", Str, |e: &(String, u64, u64, u64)| {
                Value::Str(e.0.clone())
            }),
            col("execution_count", Int, |e| int(e.1)),
            col("total_rows", Int, |e| int(e.2)),
            col("total_elapsed_ms", Float, |e| ms(e.3)),
            col("avg_elapsed_ms", Float, |e| {
                Value::Float(if e.1 == 0 {
                    0.0
                } else {
                    e.3 as f64 / 1000.0 / e.1 as f64
                })
            }),
        ],
    )
}

/// Per-linked-server wire traffic, modeled round-trip latency percentiles,
/// and the session pool's connect count and idle sessions.
fn link_stats(engine: &Inner) -> View {
    type Link = (String, TrafficSnapshot, PoolStats, Option<LatencySummary>);
    let links = engine.dmv_links().into_iter().map(|link| {
        let pool = &link.pool;
        let traffic = pool.traffic().unwrap_or_default();
        (link.name.clone(), traffic, pool.stats(), pool.latency())
    });
    view(
        links,
        &[
            col("name", Str, |l: &Link| Value::Str(l.0.clone())),
            col("requests", Int, |l| int(l.1.requests)),
            col("rows", Int, |l| int(l.1.rows)),
            col("bytes", Int, |l| int(l.1.bytes)),
            // Mean rows shipped per round trip; NULL before any traffic.
            nullable("rows_per_round_trip", Float, |l| {
                l.1.rows_per_round_trip().map_or(Value::Null, Value::Float)
            }),
            // NULL for unmetered sources (no simulated link in between).
            nullable("p50_ms", Float, |l| {
                l.3.map_or(Value::Null, |t| ms(t.p50_us))
            }),
            nullable("p95_ms", Float, |l| {
                l.3.map_or(Value::Null, |t| ms(t.p95_us))
            }),
            nullable("p99_ms", Float, |l| {
                l.3.map_or(Value::Null, |t| ms(t.p99_us))
            }),
            nullable("max_ms", Float, |l| {
                l.3.map_or(Value::Null, |t| ms(t.max_us))
            }),
            // The server's session pool: connect requests sent since the
            // registration (or the last metrics reset), and sessions idle
            // now. `requests - connects` is the work the opens themselves
            // cost.
            col("connects", Int, |l| int(l.2.connects)),
            col("sessions_idle", Int, |l| int(l.2.idle as u64)),
        ],
    )
}

/// Per-linked-server circuit-breaker state from the health registry (§15):
/// breaker state, failure streak, trip and probe counts, and the last
/// error that fed the breaker.
fn link_health(engine: &Inner) -> View {
    view(
        engine.dmv_link_health(),
        &[
            col("server", Str, |l: &LinkHealthSnapshot| {
                Value::Str(l.server.clone())
            }),
            col("state", Str, |l| Value::Str(l.state.name().to_string())),
            col("consecutive_failures", Int, |l| {
                int(l.consecutive_failures.into())
            }),
            col("opens", Int, |l| int(l.opens)),
            col("probes", Int, |l| int(l.probes)),
            // Logical-clock tick of the last state transition; 0 = never.
            col("last_transition", Int, |l| int(l.last_transition)),
            // NULL until the link's first recorded failure.
            nullable("last_error", Str, |l| text(l.last_error.clone())),
        ],
    )
}

/// The engine's [`crate::MetricsSnapshot`] plus end-to-end query-latency
/// percentiles, as `(name, value)` rows.
fn os_counters(engine: &Inner) -> View {
    // Latency percentiles in microseconds: integer counters, so they share
    // the (name, value) shape.
    let latency = engine.dmv_query_latency();
    let rows = engine.dmv_metrics().counters().into_iter().chain([
        ("query_latency_count", latency.count),
        ("query_latency_p50_us", latency.percentile(50.0)),
        ("query_latency_p95_us", latency.percentile(95.0)),
        ("query_latency_p99_us", latency.percentile(99.0)),
        ("query_latency_max_us", latency.max),
    ]);
    view(
        rows,
        &[
            col("name", Str, |c: &(&str, u64)| Value::Str(c.0.to_string())),
            col("value", Int, |c| int(c.1)),
        ],
    )
}

/// Cumulative per-class wait accounting: one row per [`WaitClass`], zeros
/// included.
fn wait_stats(engine: &Inner) -> View {
    let snapshot = engine.dmv_wait_stats();
    view(
        WaitClass::ALL.map(|class| (class, snapshot.get(class))),
        &[
            col("wait_type", Str, |w: &(WaitClass, WaitTotals)| {
                Value::Str(w.0.name().to_string())
            }),
            col("waiting_tasks_count", Int, |w| int(w.1.count)),
            col("wait_time_ms", Float, |w| ms(w.1.total_us)),
            col("max_wait_time_ms", Float, |w| ms(w.1.max_us)),
        ],
    )
}

/// The event bus's retained ring, oldest first (empty unless events are
/// enabled).
fn xe_recent_events(engine: &Inner) -> View {
    view(
        engine.dmv_recent_events(),
        &[
            col("seq", Int, |e: &Event| int(e.seq)),
            col("timestamp_ms", Float, |e| ms(e.timestamp_us)),
            col("kind", Str, |e| Value::Str(e.kind.name().to_string())),
            col("detail", Str, |e| Value::Str(e.detail())),
        ],
    )
}

/// One row per tracked fingerprint (§17): identity, template and execution
/// totals.
fn query_store_query(engine: &Inner) -> View {
    view(
        engine.dmv_query_store(),
        &[
            // FNV-1a hashes rendered as fixed-width hex: joinable across
            // the three views without i64 overflow concerns.
            col("query_id", Str, |q: &QueryStats| hex64(q.query_id)),
            col("template", Str, |q| Value::Str(q.template.clone())),
            col("plan_count", Int, |q| int(q.plans.len() as u64)),
            col("execution_count", Int, |q| int(q.executions())),
            nullable("last_plan_hash", Str, |q| {
                q.last_plan_hash.map_or(Value::Null, hex64)
            }),
        ],
    )
}

/// Every plan of every tracked fingerprint, with its fingerprint's id.
fn query_store_plans(engine: &Inner) -> impl Iterator<Item = (u64, PlanStats)> {
    engine.dmv_query_store().into_iter().flat_map(|q| {
        let id = q.query_id;
        q.plans.into_iter().map(move |p| (id, p))
    })
}

/// One row per distinct physical plan of a fingerprint: shape hash,
/// compile-time estimates and epochs, the regression flag and the rendered
/// plan text.
fn query_store_plan(engine: &Inner) -> View {
    view(
        query_store_plans(engine),
        &[
            col("query_id", Str, |p: &(u64, PlanStats)| hex64(p.0)),
            col("plan_id", Int, |p| int(p.1.plan_id)),
            col("plan_hash", Str, |p| hex64(p.1.plan_hash)),
            col("est_rows", Float, |p| Value::Float(p.1.est_rows)),
            col("est_cost", Float, |p| Value::Float(p.1.est_cost)),
            col("compile_schema_epoch", Int, |p| {
                int(p.1.compile_schema_epoch)
            }),
            col("compile_config_epoch", Int, |p| {
                int(p.1.compile_config_epoch)
            }),
            // The plan arrived measurably slower than the fingerprint's
            // previous plan (see query_store::REGRESSION_FACTOR).
            col("regressed", Bool, |p| Value::Bool(p.1.regressed)),
            col("plan_text", Str, |p| Value::Str(p.1.plan_text.clone())),
        ],
    )
}

/// Per-plan aggregated runtime: wall time, result rows, link traffic,
/// dominant wait, and the worst estimate-vs-actual skew with the operator
/// that produced it.
fn query_store_runtime_stats(engine: &Inner) -> View {
    view(
        query_store_plans(engine),
        &[
            col("query_id", Str, |p: &(u64, PlanStats)| hex64(p.0)),
            col("plan_id", Int, |p| int(p.1.plan_id)),
            col("execution_count", Int, |p| int(p.1.executions)),
            col("total_rows", Int, |p| int(p.1.total_rows)),
            col("total_elapsed_ms", Float, |p| ms(p.1.total_elapsed_us)),
            col("avg_elapsed_ms", Float, |p| ms(p.1.avg_elapsed_us())),
            col("total_link_bytes", Int, |p| int(p.1.total_link_bytes)),
            col("total_link_requests", Int, |p| int(p.1.total_link_requests)),
            // NULL when no execution of this plan ever blocked.
            nullable("dominant_wait", Str, |p| text(p.1.dominant_wait())),
            // Worst per-operator estimate-vs-actual ratio (≥ 1.0; 0.0
            // when no operator was ever opened) and where it happened.
            col("max_skew", Float, |p| Value::Float(p.1.max_skew())),
            nullable("max_skew_operator", Str, |p| {
                let skewed = p.1.operators.iter().filter(|o| o.skew() > 0.0);
                text(
                    skewed
                        .max_by(|a, b| a.skew().total_cmp(&b.skew()))
                        .map(|o| o.operator.clone()),
                )
            }),
        ],
    )
}

/// Every effective `DHQP_*` knob with its value and provenance.
fn os_knobs(engine: &Inner) -> View {
    view(
        engine.dmv_knobs(),
        &[
            col("name", Str, |k: &(&str, String, &str)| {
                Value::Str(k.0.to_string())
            }),
            col("value", Str, |k| Value::Str(k.1.clone())),
            // env | builder | default.
            col("source", Str, |k| Value::Str(k.2.to_string())),
        ],
    )
}

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
}

/// The view named `table` (any case), materialized from live engine state.
fn open(inner: &Weak<Inner>, table: &str) -> Result<(TableInfo, Vec<Row>)> {
    let engine = inner
        .upgrade()
        .ok_or_else(|| DhqpError::Provider("sys provider outlived its engine".into()))?;
    let Some((name, build)) = VIEWS
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case(table))
    else {
        return Err(DhqpError::Catalog(format!(
            "table '{table}' not found in source '{SYS_SERVER}'"
        )));
    };
    let (columns, rows) = build(&engine);
    Ok((TableInfo::new(*name, columns), rows))
}

/// A view's metadata, its cardinality the rows it serves now.
fn describe(inner: &Weak<Inner>, table: &str) -> Result<TableInfo> {
    let (info, rows) = open(inner, table)?;
    Ok(info.with_cardinality(rows.len() as u64))
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
        VIEWS
            .iter()
            .map(|(name, _)| describe(&self.inner, name))
            .collect()
    }

    fn table(&self, name: &str) -> Result<TableInfo> {
        describe(&self.inner, name)
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
        let (info, rows) = open(&self.inner, table)?;
        Ok(Box::new(MemRowset::new(info.schema(), rows)))
    }
}
