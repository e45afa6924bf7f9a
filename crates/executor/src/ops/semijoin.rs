//! Semi-join reduction: the executor half of the paper's §4.1.5 byte
//! minimization.
//!
//! The optimizer's `SemiJoinReduce` operator arrives with two decoded
//! remote statements: the reduced one, whose probe column is restricted to
//! the key-set parameter `IN (@__keys0)`, and the unreduced one. At drive
//! time this module drains the build (local/cheap) child, binds its
//! distinct non-NULL join keys to the key set — spelled in the provider's
//! dialect like every other shipped value — and ships the reduced text, so
//! only matching rows ever cross the link. The reduced rows are then
//! hash-joined back against the buffered build rows, which also re-checks
//! the full join predicate.
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
use dhqp_optimizer::physical::{PhysNode, PhysicalOp};
use dhqp_optimizer::ScalarExpr;
use dhqp_types::{DhqpError, Result};
use std::collections::HashSet;

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
    plan: &PhysNode,
    mut build: Box<dyn Rowset>,
    ctx: &ExecContext,
    node: usize,
) -> Result<Box<dyn Rowset>> {
    let PhysicalOp::SemiJoinReduce {
        kind,
        build_key,
        probe_key,
        residual,
        server,
        sql,
        unreduced,
        columns,
        params,
        max_keys,
    } = &plan.op
    else {
        unreachable!("open_semijoin_reduce on {}", plan.op.name());
    };
    let build_columns = &plan.children[0].output;
    let schema = ctx.schema_of(&plan.output);
    let key_pos = build_columns
        .iter()
        .position(|c| c == build_key)
        .ok_or_else(|| {
            DhqpError::Execute(format!(
                "semi-join build key #{} is not among the build child's outputs",
                build_key.0
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

    let base = remote_query_text(server, unreduced, params, &[], ctx)?;
    // Reduced or not, the statement reads the same view members.
    let checks = ctx.member_checks_in_sql(server, unreduced);
    let open_shipped = |text: &str, op_tag: Option<String>| {
        open_remote_text(server, text.to_string(), checks.clone(), op_tag, ctx, node)
    };
    let mut trace = SemiJoinTrace {
        keys: keys.len() as u64,
        filter_bytes: 0,
        fallback: false,
    };
    let remote: Box<dyn Rowset> = if keys.len() <= *max_keys {
        let reduced = remote_query_text(server, sql, params, &keys, ctx)?;
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
        // More distinct keys than the key-set ceiling: the plan-time
        // cardinality estimate undershot, abandon the reduction.
        trace.fallback = true;
        ctx.counters().semijoin_fallbacks.bump();
        open_shipped(&base, None)?
    };

    let left: Box<dyn Rowset> = Box::new(MemRowset::new(ctx.schema_of(build_columns), build_rows));
    let join = open_hash_join(
        left,
        remote,
        *kind,
        &[ScalarExpr::Column(*build_key)],
        &[ScalarExpr::Column(*probe_key)],
        residual.as_ref(),
        build_columns,
        columns,
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
