//! Observability walkthrough: `EXPLAIN`, `EXPLAIN ANALYZE`, the structured
//! [`dhqp::AnalyzeReport`], engine metrics and the recent-query ring — over
//! the paper's Example 1 distributed join.
//!
//! ```text
//! cargo run --example explain_analyze
//! ```

use dhqp::{Engine, EngineDataSource};
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
use dhqp_workload::tpch::{self, TpchScale};
use std::sync::Arc;

fn main() -> dhqp_types::Result<()> {
    let scale = TpchScale::tiny();
    // remote0 hosts customer and supplier; nation stays local (Example 1).
    let remote = Engine::new("remote0-engine");
    {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        tpch::create_customer(remote.storage(), &scale, &mut rng)?;
        tpch::create_supplier(remote.storage(), &scale, &mut rng)?;
        remote.storage().analyze("customer", 24)?;
        remote.storage().analyze("supplier", 24)?;
    }
    let local = Engine::new("local");
    tpch::create_nation(local.storage(), &scale)?;
    local.analyze("nation", 8)?;
    let link = NetworkLink::new("remote0-wire", NetworkConfig::lan());
    local.add_linked_server(
        "remote0",
        Arc::new(NetworkedDataSource::new(
            Arc::new(EngineDataSource::new(remote)),
            link.clone(),
        )),
    )?;

    let example1 = "SELECT c.c_name, c.c_address, c.c_phone \
                    FROM remote0.tpch.dbo.customer c, remote0.tpch.dbo.supplier s, nation n \
                    WHERE c.c_nationkey = n.n_nationkey AND n.n_nationkey = s.s_nationkey";

    // 1. Plain EXPLAIN: the optimized plan plus search telemetry, no
    //    execution. Available as a statement or via Engine::explain.
    println!("== EXPLAIN (estimates only) ==");
    for row in local.execute(&format!("EXPLAIN {example1}"))?.rows {
        println!("{}", row.get(0));
    }

    // 2. EXPLAIN ANALYZE: run the plan with per-operator instrumentation.
    //    Every node shows actual vs estimated rows, rescans and cursor
    //    time; remote nodes show the shipped SQL and wire traffic.
    println!("\n== EXPLAIN ANALYZE (executed) ==");
    for row in local.execute(&format!("EXPLAIN ANALYZE {example1}"))?.rows {
        println!("{}", row.get(0));
    }

    // 3. The structured report: per-node runtime facts for tooling.
    let report = local.execute_analyze(example1)?;
    println!("\n== structured AnalyzeReport ==");
    println!("result rows: {}", report.result.len());
    for (id, op) in report.record.operators.iter().enumerate() {
        let Some(trace) = op.remote() else { continue };
        println!(
            "node {id}: @{} shipped {} request(s), {} row(s), {} byte(s)",
            trace.server, trace.traffic.requests, trace.traffic.rows, trace.traffic.bytes
        );
        println!("         text: {}", trace.sql);
    }

    // 4. Engine-wide metrics: lock-free counters across all executions.
    let m = local.metrics();
    println!("\n== Engine::metrics() ==");
    println!("statements             : {}", m.statements());
    println!("  selects / explains   : {} / {}", m.selects, m.explains);
    println!("  explain analyzes     : {}", m.explain_analyzes);
    println!(
        "meta cache hit / miss  : {} / {}",
        m.meta_cache_hits, m.meta_cache_misses
    );
    println!("remote round trips     : {}", m.remote_roundtrips);
    println!(
        "spool builds / hits    : {} / {}",
        m.spool_builds, m.spool_hits
    );
    println!(
        "dtc commits / aborts   : {} / {}",
        m.dtc_commits, m.dtc_aborts
    );

    // 5. The recent-query ring: the last statements with outcome and time.
    println!("\n== Engine::recent_queries() ==");
    for q in local.recent_queries() {
        let sql: String = q.sql.chars().take(60).collect();
        println!(
            "[{}] {} rows={} in {:.2?}: {sql}...",
            if q.ok() { "ok" } else { "ERR" },
            q.kind_name(),
            q.rows,
            q.elapsed
        );
    }
    Ok(())
}
