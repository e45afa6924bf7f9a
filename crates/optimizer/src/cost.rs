//! The cost model.
//!
//! Local operators are costed with classic per-row CPU/IO rates. Remote
//! operators follow the paper's model (§4.1.3): "SQL Server DHQP defines a
//! simple cost model based on the output cardinality of a remote operator.
//! It aims at finding plans with minimal network traffic" — so the dominant
//! terms for remote ops are per-request latency and `rows × width` wire
//! bytes, with only a nominal charge for the work the autonomous remote
//! system performs itself.
//!
//! One cost unit ≈ one microsecond of local work; network terms are
//! expressed in the same unit via [`CostModel::net_byte`].

use dhqp_oledb::ProviderCapabilities;

/// Tunable cost constants. The defaults produce the paper's Figure 4 plan
/// choice on TPC-H-shaped data.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Per-row cost of a local sequential scan.
    pub scan_row: f64,
    /// Fixed cost of positioning an index cursor.
    pub index_seek: f64,
    /// Per-row cost of an index range read.
    pub index_row: f64,
    /// Per-row cost of evaluating a predicate or projection.
    pub cpu_row: f64,
    /// Per-row cost of inserting into a hash table.
    pub hash_build_row: f64,
    /// Per-row cost of probing a hash table.
    pub hash_probe_row: f64,
    /// Per-comparison cost during sorting (multiplied by n·log₂n).
    pub sort_cmp: f64,
    /// Per-row cost of writing a spool.
    pub spool_write_row: f64,
    /// Per-row cost of replaying a spooled row.
    pub spool_read_row: f64,
    /// Cost per byte shipped over a link (the minimal-network-traffic
    /// objective lives here).
    pub net_byte: f64,
    /// Cost charged per remote round trip on top of the provider's
    /// advertised latency.
    pub request_overhead: f64,
    /// Nominal per-row charge for work executed by the autonomous remote
    /// system (it has its own optimizer; we mostly care about traffic).
    pub remote_exec_row: f64,
    /// Expected probability that a startup filter lets its subtree run; the
    /// expected-cost multiplier for runtime-pruned branches.
    pub startup_pass_probability: f64,
    /// Bytes one rendered key literal occupies inside a shipped `IN`-list
    /// (a pushed key set's or semi-join reduction's outbound payload).
    pub semijoin_key_width: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            scan_row: 1.0,
            index_seek: 20.0,
            index_row: 1.2,
            cpu_row: 0.2,
            hash_build_row: 2.0,
            hash_probe_row: 1.0,
            sort_cmp: 0.3,
            spool_write_row: 1.0,
            spool_read_row: 0.1,
            net_byte: 0.05,
            request_overhead: 100.0,
            remote_exec_row: 0.05,
            startup_pass_probability: 0.5,
            semijoin_key_width: 12.0,
        }
    }
}

impl CostModel {
    /// Latency charge for one round trip to a provider.
    pub fn round_trip(&self, caps: &ProviderCapabilities) -> f64 {
        self.request_overhead + caps.latency_hint_us as f64
    }

    /// Wire cost of shipping `rows` of `width`-byte rows.
    pub fn transfer(&self, rows: f64, width: f64) -> f64 {
        rows.max(0.0) * width.max(1.0) * self.net_byte
    }

    /// Cost of sorting `rows` rows.
    pub fn sort(&self, rows: f64) -> f64 {
        let n = rows.max(2.0);
        n * n.log2() * self.sort_cmp
    }

    /// Cost of a remote operator that ships `keys` literals outbound as
    /// `IN`-list text — a key set pushed into the statement, or semi-join
    /// reduction's drive-time keys — and returns `out_rows` of `width`
    /// bytes, where the remote side must process roughly
    /// `remote_input_rows`. "Based on the output cardinality of a remote
    /// operator": the output terms dominate unless the list is long, which
    /// is the crossover a key set or a reduction has to win.
    pub fn remote_result(
        &self,
        caps: &ProviderCapabilities,
        keys: f64,
        out_rows: f64,
        width: f64,
        remote_input_rows: f64,
    ) -> f64 {
        self.round_trip(caps)
            + self.transfer(keys, self.semijoin_key_width)
            + self.transfer(out_rows, width)
            + out_rows.max(0.0) * self.cpu_row
            + remote_input_rows.max(0.0) * self.remote_exec_row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps() -> ProviderCapabilities {
        ProviderCapabilities::sql_server("SQLOLEDB")
    }

    #[test]
    fn remote_cost_scales_with_output_not_input() {
        let m = CostModel::default();
        // Same remote work, small vs large result: result size dominates.
        let small = m.remote_result(&caps(), 0.0, 100.0, 50.0, 1_000_000.0);
        let large = m.remote_result(&caps(), 0.0, 1_000_000.0, 50.0, 1_000_000.0);
        assert!(large > small * 10.0, "large={large} small={small}");
    }

    #[test]
    fn figure4_shape_pushdown_loses_when_intermediate_result_is_large() {
        // Figure 4: plan (a) ships customer⋈supplier (a large join result);
        // plan (b) ships customer and supplier separately. With TPC-H-like
        // cardinalities the join result is ~customer × supplier-per-nation,
        // far larger than the two base tables.
        let m = CostModel::default();
        let customers = 150_000.0;
        let suppliers = 10_000.0;
        let nations = 25.0;
        let join_out = customers * suppliers / nations; // ≈ 60M pairs
        let plan_a = m.remote_result(&caps(), 0.0, join_out, 60.0, customers + suppliers);
        let plan_b = m.remote_result(&caps(), 0.0, customers, 40.0, customers)
            + m.remote_result(&caps(), 0.0, suppliers, 20.0, suppliers);
        assert!(plan_b < plan_a / 100.0, "plan_b={plan_b} plan_a={plan_a}");
    }

    #[test]
    fn sort_is_superlinear() {
        let m = CostModel::default();
        assert!(m.sort(20_000.0) > 2.0 * m.sort(10_000.0));
        assert!(m.sort(0.0) >= 0.0);
    }

    #[test]
    fn round_trip_includes_provider_latency() {
        let m = CostModel::default();
        let mut c = caps();
        c.latency_hint_us = 5_000;
        assert!(m.round_trip(&c) > 5_000.0);
    }
}
