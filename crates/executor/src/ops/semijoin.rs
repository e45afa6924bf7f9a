//! Semi-join reduction: the executor half of the paper's §4.1.5 byte
//! minimization.
//!
//! The optimizer's `SemiJoinReduce` operator arrives with the *unreduced*
//! remote statement already decoded. At drive time this module drains the
//! build (local/cheap) child, collects its distinct non-NULL join keys,
//! splices them into the statement as an `IN`-list over the probe column,
//! and ships the reduced text — so only matching rows ever cross the link.
//! The reduced rows are then hash-joined back against the buffered build
//! rows, which also re-checks the full join predicate.
//!
//! Runtime fallbacks keep the reduction an optimization, never a semantic
//! change:
//! - more distinct keys than `max_keys` → ship the unreduced statement
//!   (the optimizer's cardinality estimate was wrong; an oversized
//!   `IN`-list would cost more than it saves);
//! - the reduced open exhausts its retry budget on a transient fault →
//!   re-open with the unreduced statement rather than surfacing an error
//!   (or partial results) the unreduced plan would not have had;
//! - an empty key set → answer the inner/semi join locally with zero
//!   round trips.

use crate::context::ExecContext;
use crate::ops::join::open_hash_join;
use crate::ops::remote::{open_remote_text, remote_query_text};
use crate::stats::SemiJoinTrace;
use dhqp_oledb::{MemRowset, Rowset, RowsetExt};
use dhqp_optimizer::physical::RemoteParam;
use dhqp_optimizer::{ColumnId, JoinKind, ScalarExpr};
use dhqp_types::{DhqpError, Result, Value};
use std::collections::HashSet;

/// Everything the builder destructures out of a `SemiJoinReduce` plan node.
pub struct SemiJoinSpec<'a> {
    pub kind: JoinKind,
    pub build_key: ColumnId,
    pub probe_key: ColumnId,
    pub residual: Option<&'a ScalarExpr>,
    pub server: &'a str,
    pub sql: &'a str,
    pub params: &'a [RemoteParam],
    pub columns: &'a [ColumnId],
    pub max_keys: usize,
}

/// Render the reduced remote statement: wrap the (parameter-substituted)
/// base statement as a derived table and restrict the probe column to the
/// collected keys. NULL keys are dropped — `x IN (..., NULL)` can never
/// match more rows, only ship more bytes — and an empty (or all-NULL) key
/// set degenerates to the provably-empty `WHERE 1=0`.
pub fn semijoin_remote_sql(base_sql: &str, probe_column: &str, keys: &[Value]) -> String {
    let literals: Vec<String> = keys
        .iter()
        .filter(|v| !v.is_null())
        .map(Value::to_sql_literal)
        .collect();
    if literals.is_empty() {
        format!("SELECT * FROM ({base_sql}) AS [__sj] WHERE 1=0")
    } else {
        format!(
            "SELECT * FROM ({base_sql}) AS [__sj] WHERE [{probe_column}] IN ({})",
            literals.join(", ")
        )
    }
}

/// Stable 64-bit FNV-1a fingerprint of a shipped predicate, rendered as
/// 16 hex digits. Short enough for an error message, stable enough that
/// `sys.dm_link_health` can correlate repeated failures of the same
/// filter-ship shape.
pub fn predicate_fingerprint(text: &str) -> String {
    format!("{:016x}", dhqp_types::fnv1a_64(text))
}

/// Open a `SemiJoinReduce` node: collect keys from the (already opened)
/// build child, fetch the reduced remote side, and hash-join the two.
pub fn open_semijoin_reduce(
    spec: SemiJoinSpec<'_>,
    mut build: Box<dyn Rowset>,
    build_columns: &[ColumnId],
    output: &[ColumnId],
    ctx: &ExecContext,
    node: usize,
) -> Result<Box<dyn Rowset>> {
    let schema = ctx.schema_of(output);
    let key_pos = build_columns
        .iter()
        .position(|c| *c == spec.build_key)
        .ok_or_else(|| {
            DhqpError::Execute(format!(
                "semi-join build key #{} is not among the build child's outputs",
                spec.build_key.0
            ))
        })?;
    let build_rows = build.collect_rows_batched(ctx.batch().pull_size())?;
    let mut seen = HashSet::new();
    let mut keys = Vec::new();
    for row in &build_rows {
        let v = row.get(key_pos);
        if !v.is_null() && seen.insert(v.clone()) {
            keys.push(v.clone());
        }
    }

    if keys.is_empty() {
        // No joinable build rows: an inner/semi join is empty by
        // construction. Zero round trips, zero bytes.
        ctx.counters().semijoin_reductions.bump();
        if let Some(collector) = ctx.stats() {
            collector.record_semijoin(node, SemiJoinTrace::default());
        }
        return Ok(Box::new(MemRowset::empty(schema)));
    }

    let base = remote_query_text(spec.server, spec.sql, spec.params, ctx)?;
    // Reduced or not, the statement reads the same view members.
    let checks = ctx.member_checks_in_sql(spec.server, spec.sql);
    let open_shipped = |text: &str, op_tag: Option<String>| {
        open_remote_text(
            spec.server,
            text.to_string(),
            checks.clone(),
            op_tag,
            ctx,
            node,
        )
    };
    let probe_column = format!("c{}", spec.probe_key.0);
    let mut trace = SemiJoinTrace {
        keys: keys.len() as u64,
        filter_bytes: 0,
        fallback: false,
    };
    let remote: Box<dyn Rowset> = if keys.len() <= spec.max_keys {
        let reduced = semijoin_remote_sql(&base, &probe_column, &keys);
        let filter_bytes = reduced.len().saturating_sub(base.len()) as u64;
        let tag = format!(
            "shipped predicate fp={} keys={}",
            predicate_fingerprint(&reduced),
            keys.len()
        );
        match open_shipped(&reduced, Some(tag)) {
            Ok(rs) => {
                trace.filter_bytes = filter_bytes;
                ctx.counters().semijoin_reductions.bump();
                ctx.counters().semijoin_filter_bytes.add(filter_bytes);
                rs
            }
            Err(e) if e.is_retryable() => {
                // Retry budget exhausted on the reduced open: fall back to
                // the unreduced statement. If the link is genuinely dead
                // this open fails too and the error propagates — exactly
                // what the unreduced plan would have done; the reduction
                // never turns a full answer into a partial one.
                trace.fallback = true;
                ctx.counters().semijoin_fallbacks.bump();
                open_shipped(&base, None)?
            }
            Err(e) => return Err(e),
        }
    } else {
        // More distinct keys than the splice threshold: the plan-time
        // cardinality estimate undershot, abandon the reduction.
        trace.fallback = true;
        ctx.counters().semijoin_fallbacks.bump();
        open_shipped(&base, None)?
    };

    let left: Box<dyn Rowset> = Box::new(MemRowset::new(ctx.schema_of(build_columns), build_rows));
    let left_keys = [ScalarExpr::Column(spec.build_key)];
    let right_keys = [ScalarExpr::Column(spec.probe_key)];
    let join = open_hash_join(
        left,
        remote,
        spec.kind,
        &left_keys,
        &right_keys,
        spec.residual,
        build_columns,
        spec.columns,
        schema,
        ctx,
    )?;

    if let Some(collector) = ctx.stats() {
        collector.record_semijoin(node, trace);
    }
    Ok(Box::new(join))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_list_renders_escaped_literals_and_drops_nulls() {
        let sql = semijoin_remote_sql(
            "SELECT [a] AS [c3] FROM [t]",
            "c3",
            &[
                Value::Int(1),
                Value::Str("O'Brien".into()),
                Value::Null,
                Value::Int(2),
            ],
        );
        assert_eq!(
            sql,
            "SELECT * FROM (SELECT [a] AS [c3] FROM [t]) AS [__sj] \
             WHERE [c3] IN (1, 'O''Brien', 2)"
        );
    }

    #[test]
    fn empty_or_all_null_key_set_degenerates_to_provably_empty() {
        let base = "SELECT [a] AS [c3] FROM [t]";
        let expect = "SELECT * FROM (SELECT [a] AS [c3] FROM [t]) AS [__sj] WHERE 1=0";
        assert_eq!(semijoin_remote_sql(base, "c3", &[]), expect);
        assert_eq!(
            semijoin_remote_sql(base, "c3", &[Value::Null, Value::Null]),
            expect
        );
    }

    #[test]
    fn fingerprint_is_stable_and_shape_sensitive() {
        let a = predicate_fingerprint("WHERE [c3] IN (1, 2)");
        assert_eq!(a, predicate_fingerprint("WHERE [c3] IN (1, 2)"));
        assert_ne!(a, predicate_fingerprint("WHERE [c3] IN (1, 3)"));
        assert_eq!(a.len(), 16);
        // Known FNV-1a answers: the fingerprints `sys.dm_link_health` has
        // been showing did not move with the hash's home.
        assert_eq!(predicate_fingerprint(""), "cbf29ce484222325");
        assert_eq!(predicate_fingerprint("a"), "af63dc4c8601ec8c");
    }
}
