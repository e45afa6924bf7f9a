//! The paper's Example 1 / Figure 4, live: cost-based choice between
//! pushing `customer ⋈ supplier` to the remote server (plan a) and joining
//! `supplier ⋈ nation` locally first (plan b) — and, anchored on a customer
//! key, the same choice going the other way.
//!
//! ```text
//! cargo run --release --example figure4_tpch
//! ```

use dhqp::{Engine, EngineDataSource};
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
use dhqp_workload::tpch::{self, TpchScale};
use std::sync::Arc;

fn main() -> dhqp_types::Result<()> {
    let scale = TpchScale::small();
    // remote0 hosts customer and supplier (as in Example 1).
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
                    FROM remote0.tpch10g.dbo.customer c, remote0.tpch10g.dbo.supplier s, nation n \
                    WHERE c.c_nationkey = n.n_nationkey AND n.n_nationkey = s.s_nationkey";

    println!("== Example 1 ==\n{example1}\n");
    println!("== optimizer's plan (expect plan b: separate remote access) ==");
    println!("{}", local.explain(example1)?.render());

    // Execute and measure (metadata warmed by the explain/first run).
    local.query(example1)?;
    link.reset();
    let t0 = std::time::Instant::now();
    let chosen = local.query(example1)?;
    let chosen_time = t0.elapsed();
    let chosen_traffic = link.snapshot();

    // Force plan (a) with a pass-through join.
    let plan_a = "SELECT j.c_name, j.c_address, j.c_phone FROM \
                  OPENQUERY(remote0, 'SELECT c.c_name, c.c_address, c.c_phone, c.c_nationkey \
                   FROM customer c, supplier s WHERE c.c_nationkey = s.s_nationkey') j, nation n \
                  WHERE j.c_nationkey = n.n_nationkey";
    local.query(plan_a)?;
    link.reset();
    let t0 = std::time::Instant::now();
    let forced = local.query(plan_a)?;
    let forced_time = t0.elapsed();
    let forced_traffic = link.snapshot();

    assert_eq!(chosen.len(), forced.len());
    println!(
        "== traffic comparison (same {} result rows) ==",
        chosen.len()
    );
    println!(
        "plan (b) optimizer-chosen : {:>9} bytes, {:>6} rows shipped, {:>10.2?}",
        chosen_traffic.bytes, chosen_traffic.rows, chosen_time
    );
    println!(
        "plan (a) forced pushed-join: {:>9} bytes, {:>6} rows shipped, {:>10.2?}",
        forced_traffic.bytes, forced_traffic.rows, forced_time
    );
    println!(
        "\nplan (a) ships {:.1}x the bytes of plan (b) — the optimizer avoided \
         sending the customer⋈supplier intermediate result over the network, \
         exactly as Figure 4 describes.",
        forced_traffic.bytes as f64 / chosen_traffic.bytes.max(1) as f64
    );

    // The same decision, the other way: anchored on one customer key the
    // join result is a handful of rows, and plan (a) — the join at the
    // remote server, one request — is the cheap one. The statement runs
    // from the plan cache as the template `c_custkey = @__lit0`, so the
    // estimate comes from the key's density, not from the literal.
    let anchored = |key: i64| {
        format!(
            "SELECT c.c_name, s.s_name FROM remote0.tpch10g.dbo.customer c \
             JOIN remote0.tpch10g.dbo.supplier s ON c.c_nationkey = s.s_nationkey \
             WHERE c.c_custkey = {key}"
        )
    };
    local.query(&anchored(7))?;
    link.reset();
    let report = local.execute_analyze(&anchored(42))?;
    let traffic = link.snapshot();
    println!("\n== anchored on a customer key (expect plan a: one pushed join) ==");
    println!("{}", report.render());
    println!(
        "{} rows in {} request, {} bytes — no table is shipped.",
        report.result.len(),
        traffic.requests,
        traffic.bytes
    );
    Ok(())
}
