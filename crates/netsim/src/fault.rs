//! Deterministic fault injection for simulated links.
//!
//! A [`FaultConfig`] describes *what* can go wrong on a link (connect
//! refusals, transient command errors, mid-stream rowset drops, stalls) and
//! with what probability; a [`FaultPlan`] turns that into *when* it goes
//! wrong: each injection site keeps a monotone operation counter, and the
//! decision for operation `k` is a pure hash of `(seed, link, site, k)`.
//! The same seed therefore produces the same fault schedule on every run —
//! chaos tests are reproducible bit-for-bit, and a retry that re-issues
//! operation `k+1` is not re-punished for operation `k`'s fault.
//!
//! Faults are injected by [`crate::NetworkedDataSource`], i.e. below the
//! OLE DB provider seam, so every provider inherits them without knowing.

use dhqp_oledb::is_read_only;
use dhqp_types::{DhqpError, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What can go wrong on one link, and how often.
///
/// Probabilities are in `[0.0, 1.0]`; `0.0` disables a fault class. The
/// plan draws one deterministic uniform per (site, operation) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed mixed into every fault decision. Two links with the same seed
    /// still fault independently (the link name is mixed in too).
    pub seed: u64,
    /// Probability that a session open is refused outright.
    pub connect_refusals: f64,
    /// Probability that a command execution or rowset/index open fails
    /// before producing rows.
    pub command_errors: f64,
    /// Probability that a streaming rowset drops mid-stream (the fault
    /// fires on one deterministic row of the stream, not row zero).
    pub stream_drops: f64,
    /// Probability that a command stalls: the link sleeps `stall_ms` and
    /// then reports a deadline hit ([`DhqpError::Timeout`]).
    pub stalls: f64,
    /// Simulated stall duration before the timeout surfaces.
    pub stall_ms: u64,
    /// Total faults this plan may inject across all sites; `0` means
    /// unlimited. A budget of 1 yields exactly one transient failure.
    pub max_faults: u64,
    /// When true, only read-only work (commands whose text starts with
    /// `SELECT`, rowset/index opens) is faulted; DML and 2PC traffic is
    /// exempt so chaos runs never duplicate non-idempotent work.
    pub reads_only: bool,
}

impl FaultConfig {
    /// A plan that injects nothing (useful as an explicit "reliable" knob).
    pub fn none() -> Self {
        FaultConfig {
            seed: 0,
            connect_refusals: 0.0,
            command_errors: 0.0,
            stream_drops: 0.0,
            stalls: 0.0,
            stall_ms: 0,
            max_faults: 0,
            reads_only: true,
        }
    }

    /// The acceptance-criteria plan: exactly one transient command error
    /// per link, reads only. A retrying executor must produce results
    /// identical to the fault-free run.
    pub fn one_transient_per_link(seed: u64) -> Self {
        FaultConfig {
            seed,
            command_errors: 1.0,
            max_faults: 1,
            ..FaultConfig::none()
        }
    }

    /// A permanently dead member: every read command and rowset open
    /// fails, with no fault budget, so retries never succeed — the shape
    /// that trips a circuit breaker rather than riding it out. (Connects
    /// are left alone so metadata operations at definition time still
    /// resolve; only query traffic is dead.)
    pub fn dead(seed: u64) -> Self {
        FaultConfig {
            seed,
            command_errors: 1.0,
            ..FaultConfig::none()
        }
    }

    /// Chaos plan from the environment: `DHQP_FAULT_SEED=<n>` enables
    /// [`FaultConfig::one_transient_per_link`] with that seed. Unset, empty
    /// or `0` disables injection.
    pub fn from_env() -> Option<Self> {
        let seed = std::env::var("DHQP_FAULT_SEED").ok()?.trim().parse().ok()?;
        if seed == 0 {
            return None;
        }
        Some(FaultConfig::one_transient_per_link(seed))
    }
}

/// Injection sites a plan distinguishes; each keeps its own counter so
/// connect decisions never perturb command decisions.
#[derive(Debug, Clone, Copy)]
enum Site {
    Connect = 1,
    Command = 2,
    Stream = 3,
    Stall = 4,
}

/// One link's fault schedule: the config plus per-site operation counters
/// and the remaining fault budget.
#[derive(Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    link_hash: u64,
    connects: AtomicU64,
    commands: AtomicU64,
    streams: AtomicU64,
    injected: AtomicU64,
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash of the combined
/// (seed, link, site, op) identity.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl FaultPlan {
    pub fn new(link_name: &str, config: FaultConfig) -> Self {
        FaultPlan {
            config,
            link_hash: dhqp_types::fnv1a_64(link_name),
            connects: AtomicU64::new(0),
            commands: AtomicU64::new(0),
            streams: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> FaultConfig {
        self.config
    }

    /// Faults this plan has injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Deterministic uniform in `[0, 1)` for operation `op` at `site`.
    fn uniform(&self, site: Site, op: u64) -> f64 {
        let x = splitmix64(
            self.config.seed.wrapping_mul(0x9e3779b97f4a7c15)
                ^ self.link_hash.rotate_left(17)
                ^ ((site as u64) << 56)
                ^ op,
        );
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Draw the decision for one operation; consumes budget when it fires.
    fn decide(&self, site: Site, counter: &AtomicU64, probability: f64) -> bool {
        if probability <= 0.0 {
            return false;
        }
        let op = counter.fetch_add(1, Ordering::Relaxed);
        if self.uniform(site, op) >= probability {
            return false;
        }
        // Respect the budget without over-counting under concurrency: claim
        // a slot, back out if the budget was already exhausted.
        if self.config.max_faults > 0 {
            let claimed = self.injected.fetch_add(1, Ordering::Relaxed);
            if claimed >= self.config.max_faults {
                self.injected.fetch_sub(1, Ordering::Relaxed);
                return false;
            }
        } else {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Fault decision for a session open. `Err(Unavailable)` on refusal.
    pub fn on_connect(&self, link_name: &str) -> Result<()> {
        if self.decide(Site::Connect, &self.connects, self.config.connect_refusals) {
            return Err(DhqpError::Unavailable(format!(
                "injected fault: connection refused by '{link_name}'"
            )));
        }
        Ok(())
    }

    /// Fault decision for a command execution (read-only text only, when
    /// `reads_only` is set). A stall sleeps then times out; a command
    /// error is instantaneous.
    pub fn on_command(&self, link_name: &str, text: &str) -> Result<()> {
        if self.config.reads_only && !is_read_only(text) {
            return Ok(());
        }
        self.read_fault(link_name)
    }

    /// Fault decision for a rowset or index open. Opens are inherently
    /// read-only requests, so they share the command fault classes (and
    /// the command operation counter).
    pub fn on_open(&self, link_name: &str) -> Result<()> {
        self.read_fault(link_name)
    }

    fn read_fault(&self, link_name: &str) -> Result<()> {
        if self.decide(Site::Stall, &self.commands, self.config.stalls) {
            if self.config.stall_ms > 0 {
                std::thread::sleep(Duration::from_millis(self.config.stall_ms));
            }
            return Err(DhqpError::Timeout(format!(
                "injected fault: command stalled past deadline on '{link_name}'"
            )));
        }
        if self.decide(Site::Command, &self.commands, self.config.command_errors) {
            return Err(DhqpError::Unavailable(format!(
                "injected fault: transient command error on '{link_name}'"
            )));
        }
        Ok(())
    }

    /// Fault decision for one rowset stream: when it fires, returns the
    /// deterministic row index at which the stream drops.
    pub fn on_stream(&self) -> Option<u64> {
        if !self.decide(Site::Stream, &self.streams, self.config.stream_drops) {
            return None;
        }
        // Drop between rows 1 and 8 so the fault lands mid-stream, after
        // some rows were already delivered.
        let op = self.streams.load(Ordering::Relaxed);
        Some(1 + splitmix64(self.config.seed ^ self.link_hash ^ op) % 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_across_plans() {
        let a = FaultPlan::new("wan1", FaultConfig::one_transient_per_link(7));
        let b = FaultPlan::new("wan1", FaultConfig::one_transient_per_link(7));
        let seq_a: Vec<bool> = (0..16)
            .map(|_| a.on_command("wan1", "SELECT 1").is_err())
            .collect();
        let seq_b: Vec<bool> = (0..16)
            .map(|_| b.on_command("wan1", "SELECT 1").is_err())
            .collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn budget_caps_total_injections() {
        let plan = FaultPlan::new("m1", FaultConfig::one_transient_per_link(1));
        let errors = (0..32)
            .filter(|_| plan.on_command("m1", "SELECT x FROM t").is_err())
            .count();
        assert_eq!(errors, 1);
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn reads_only_plans_exempt_dml() {
        let plan = FaultPlan::new(
            "m1",
            FaultConfig {
                command_errors: 1.0,
                ..FaultConfig::none()
            },
        );
        assert!(plan.on_command("m1", "INSERT INTO t VALUES (1)").is_ok());
        assert!(plan.on_command("m1", "UPDATE t SET x = 1").is_ok());
        assert!(plan.on_command("m1", "  select x FROM t").is_err());
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn connect_refusals_surface_as_unavailable() {
        let plan = FaultPlan::new(
            "m1",
            FaultConfig {
                connect_refusals: 1.0,
                max_faults: 1,
                ..FaultConfig::none()
            },
        );
        let err = plan.on_connect("m1").unwrap_err();
        assert_eq!(err.kind(), "unavailable");
        assert!(err.message().contains("connection refused"), "{err}");
        // Budget spent: the next connect succeeds.
        assert!(plan.on_connect("m1").is_ok());
    }

    #[test]
    fn stream_drops_pick_a_mid_stream_row() {
        let plan = FaultPlan::new(
            "m1",
            FaultConfig {
                stream_drops: 1.0,
                ..FaultConfig::none()
            },
        );
        let at = plan.on_stream().expect("certain drop fires");
        assert!((1..=8).contains(&at), "{at}");
        // Deterministic: an identical plan picks the same row.
        let twin = FaultPlan::new(
            "m1",
            FaultConfig {
                stream_drops: 1.0,
                ..FaultConfig::none()
            },
        );
        assert_eq!(twin.on_stream(), Some(at));
    }

    #[test]
    fn stalls_surface_as_timeout() {
        let plan = FaultPlan::new(
            "m1",
            FaultConfig {
                stalls: 1.0,
                stall_ms: 1,
                max_faults: 1,
                ..FaultConfig::none()
            },
        );
        let err = plan.on_command("m1", "SELECT 1").unwrap_err();
        assert_eq!(err.kind(), "timeout");
        assert!(err.is_retryable());
    }

    #[test]
    fn different_links_fault_at_different_operations() {
        // With a 50% rate, two links sharing one seed should not produce
        // identical decision sequences (the link name is mixed in).
        let cfg = FaultConfig {
            command_errors: 0.5,
            ..FaultConfig::none()
        };
        let a = FaultPlan::new("member1", cfg);
        let b = FaultPlan::new("member2", cfg);
        let seq_a: Vec<bool> = (0..64)
            .map(|_| a.on_command("a", "SELECT 1").is_err())
            .collect();
        let seq_b: Vec<bool> = (0..64)
            .map(|_| b.on_command("b", "SELECT 1").is_err())
            .collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn env_plan_parses_seed() {
        // Touching the process environment is race-prone in parallel test
        // runs, so exercise the parse path only when the variable is unset.
        if std::env::var("DHQP_FAULT_SEED").is_err() {
            assert!(FaultConfig::from_env().is_none());
        }
        let c = FaultConfig::one_transient_per_link(9);
        assert_eq!(c.seed, 9);
        assert_eq!(c.max_faults, 1);
        assert!(c.reads_only);
    }
}
