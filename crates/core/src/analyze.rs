//! `EXPLAIN ANALYZE`: execute a plan with runtime statistics attached and
//! render the physical tree annotated with what actually happened —
//! actual vs estimated rows, rescans, per-operator wall time, and for
//! remote nodes the exact SQL shipped plus the requests/rows/bytes that
//! crossed the link.
//!
//! Node numbering follows the executor's pre-order ids (root = 0, each
//! child's id is its parent's id plus one plus the subtree sizes of its
//! earlier siblings), so runtime facts line up with the rendered tree even
//! for subtrees the nested-loop join re-opens per outer row.

use crate::record::{OperatorRecord, StatementRecord};
use crate::result::QueryResult;
use dhqp_optimizer::explain::ExplainPlan;
use dhqp_optimizer::PhysNode;
use dhqp_types::{Column, DataType, Row, Schema, Value};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Everything `EXPLAIN ANALYZE` learned about one execution.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    /// The query's own result (the rows the plain SELECT would return).
    pub result: QueryResult,
    /// The optimized physical plan that was executed.
    pub plan: PhysNode,
    /// Optimizer-side telemetry for the same statement.
    pub explain: ExplainPlan,
    /// The statement's record: per-operator runtime (`operators`, indexed
    /// by pre-order node id), plan-cache outcome, waits, pruned members,
    /// the trace when tracing was armed.
    pub record: Arc<StatementRecord>,
}

/// Adaptive duration formatting: µs below 1 ms, ms below 1 s, else s.
pub(crate) fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

impl AnalyzeReport {
    /// The full human-readable report: annotated plan tree followed by the
    /// optimizer's search telemetry.
    pub fn render(&self) -> String {
        let record = &self.record;
        let mut out = String::new();
        for op in &record.operators {
            render_operator(op, &mut out);
        }
        if !record.pruned.is_empty() {
            let _ = writeln!(
                out,
                "-- [degraded: pruned members={}]",
                record.pruned.join(", ")
            );
        }
        if !record.startup_pruned.is_empty() {
            let _ = writeln!(
                out,
                "-- [startup: skipped members={}]",
                record.startup_pruned.join(", ")
            );
        }
        if let Some(hit) = record.cache_hit {
            let _ = write!(out, "-- [plan cache: {}]", if hit { "hit" } else { "miss" });
            if let Some(age) = record.stats_age {
                let _ = write!(out, " statistics age: {age:.2?}");
            }
            out.push('\n');
        }
        if record.feedback {
            out.push_str("-- [feedback: applied]\n");
        }
        let stats = &self.explain.stats;
        let _ = writeln!(
            out,
            "-- est_rows={:.0} est_cost={:.0} memo: {} groups / {} exprs, {} rules fired",
            self.explain.est_rows,
            self.explain.est_cost,
            stats.groups,
            stats.exprs,
            stats.rules_fired
        );
        for (phase, cost, dur) in &stats.phases {
            let _ = writeln!(
                out,
                "-- phase {}: best cost {:.0} in {:.2?}",
                phase.name(),
                cost,
                dur
            );
        }
        if stats.early_exit {
            out.push_str("-- early exit: phase threshold met\n");
        }
        let waits = record.waits.nonzero();
        if !waits.is_empty() {
            out.push_str("-- [waits:");
            for (class, totals) in waits {
                let _ = write!(
                    out,
                    " {}={}x/{}",
                    class.name(),
                    totals.count,
                    fmt_duration(Duration::from_micros(totals.total_us))
                );
            }
            out.push_str("]\n");
        }
        if let Some(trace) = &record.trace {
            out.push_str("-- trace:\n");
            for line in trace.render().lines() {
                let _ = writeln!(out, "--   {line}");
            }
        }
        out
    }

    /// The report as a one-column rowset, the shape `execute("EXPLAIN
    /// ANALYZE ...")` returns.
    pub fn to_query_result(&self) -> QueryResult {
        text_result(&self.render())
    }
}

/// A one-column `plan` rowset with one row per text line.
pub(crate) fn text_result(text: &str) -> QueryResult {
    QueryResult {
        schema: Schema::new(vec![Column::not_null("plan", DataType::Str)]),
        rows: text
            .lines()
            .map(|l| Row::new(vec![Value::Str(l.to_string())]))
            .collect(),
        rows_affected: None,
    }
}

fn render_operator(op: &OperatorRecord, out: &mut String) {
    let pad = "  ".repeat(op.depth);
    let label = &op.label;
    // A subtree behind a failed startup filter (or a spool replay) never
    // opens.
    let Some(rt) = &op.runtime else {
        let _ = writeln!(
            out,
            "{pad}{label}  est_rows={:.0} (never executed)",
            op.est_rows
        );
        return;
    };
    let rescans = rt.opens.saturating_sub(1);
    let cum = fmt_duration(rt.next_time);
    let own = fmt_duration(op.self_time);
    if op.passthrough {
        let _ = writeln!(
            out,
            "{pad}{label}  actual_rows={} rescans={rescans} time={cum} self={own}",
            rt.rows
        );
    } else {
        // Skew: how far off the estimate was, per execution that opened
        // the node (rescans average out).
        let avg_rows = rt.rows as f64 / rt.opens.max(1) as f64;
        let skew = crate::query_store::skew_ratio(op.est_rows, avg_rows);
        let _ = writeln!(
            out,
            "{pad}{label}  est_rows={:.0} actual_rows={} skew={skew:.1}x rescans={rescans} time={cum} self={own}",
            op.est_rows, rt.rows
        );
    }
    if rt.retries > 0 {
        let _ = writeln!(out, "{pad}    [retries={}]", rt.retries);
    }
    if let Some(ex) = &rt.exchange {
        let _ = writeln!(
            out,
            "{pad}    [exchange: workers={} busy={:.2?} wall={:.2?} overlap={:.2?}]",
            ex.workers,
            ex.busy,
            ex.wall,
            ex.overlap()
        );
    }
    if let Some(sj) = &rt.semijoin {
        let _ = writeln!(
            out,
            "{pad}    [semijoin: keys={} bytes={}]",
            sj.keys, sj.filter_bytes
        );
    }
    if let Some(remote) = &rt.remote {
        let _ = writeln!(
            out,
            "{pad}    [wire @{}: requests={} rows={} bytes={}]",
            remote.server, remote.traffic.requests, remote.traffic.rows, remote.traffic.bytes
        );
        if let Some(avg) = remote.traffic.rows_per_round_trip() {
            let _ = writeln!(out, "{pad}    [link batch: avg={avg:.1}]");
        }
        if let Some(l) = &remote.link_latency {
            let _ = writeln!(
                out,
                "{pad}    [link latency: p50={} p95={} p99={} max={}]",
                fmt_duration(Duration::from_micros(l.p50_us)),
                fmt_duration(Duration::from_micros(l.p95_us)),
                fmt_duration(Duration::from_micros(l.p99_us)),
                fmt_duration(Duration::from_micros(l.max_us)),
            );
        }
        let _ = writeln!(out, "{pad}    [shipped: {}]", remote.sql);
    }
}
