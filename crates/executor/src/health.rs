//! Member health: per-link circuit breakers and the degraded-mode policy
//! that lets DPV execution plan around quarantined members.
//!
//! Every linked server owns one [`Breaker`]; the engine's
//! [`HealthRegistry`] is what they share — the tuning knobs and the logical
//! clock. The state machine is the classic three-state breaker:
//!
//! ```text
//!            consecutive give-ups >= threshold
//!   Closed ────────────────────────────────────▶ Open
//!     ▲                                           │
//!     │ probe succeeds                            │ `cooldown` rejected
//!     │                                           │ admissions elapse
//!     │              probe fails                  ▼
//!   HalfOpen ◀────────────────────────────── (admit one probe)
//!      └──────────────── reopens ▲
//! ```
//!
//! While HalfOpen every other admission is rejected until the probe
//! reports, so parallel readers of a recovering link send one request, not
//! one retry budget each. The retry layer (`ops::retry`) is the only
//! caller: it admits, and reports every admitted operation's outcome.
//!
//! Determinism: the cooldown is not wall-clock time. It is counted in
//! *rejected admissions on that link* — the same operation clock the
//! netsim fault plans use — so under a fixed fault seed the exact
//! admission at which a breaker re-probes is reproducible bit for bit,
//! independent of machine speed or thread scheduling on other links.
//!
//! Failures that feed the breaker are *retry-exhausted* remote operations
//! (the retry layer already absorbed transient faults); a single give-up
//! therefore represents `max_attempts` consecutive wire errors, which is
//! why the default `failure_threshold` is 1. Transitions are published as
//! `breaker_open` / `breaker_close` events through the thread-local
//! activity hook, and fail-fast rejections surface as the `CIRCUIT_OPEN`
//! wait class.

use dhqp_oledb::waits::emit_event;
use std::sync::{Arc, Mutex, MutexGuard};

/// One breaker's position in the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: every admission passes.
    #[default]
    Closed,
    /// Quarantined: admissions are rejected without touching the wire
    /// until the cooldown elapses.
    Open,
    /// Probing: one admission has been let through to test the link; the
    /// rest are rejected until it reports.
    HalfOpen,
}

impl BreakerState {
    /// Lowercase name as shown by `sys.dm_link_health`.
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Breaker tuning knobs (`DHQP_BREAKER_*` environment family).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Master switch (`DHQP_BREAKER=0` disables): when off, every
    /// admission passes and no state is tracked.
    pub enabled: bool,
    /// Consecutive retry-exhausted failures that open a Closed breaker.
    /// Each one already stands for a full retry budget burned, so the
    /// default is 1.
    pub failure_threshold: u32,
    /// Rejected admissions an Open breaker absorbs before letting one
    /// probe through (the deterministic cooldown clock).
    pub cooldown: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig::standard()
    }
}

impl BreakerConfig {
    pub fn standard() -> Self {
        BreakerConfig {
            enabled: true,
            failure_threshold: 1,
            cooldown: 4,
        }
    }

    /// Breakers off: every admission passes (the pre-PR-8 behavior).
    pub fn disabled() -> Self {
        BreakerConfig {
            enabled: false,
            ..BreakerConfig::standard()
        }
    }
}

/// What happens when a remote operation asks to use a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker Closed (or disabled): proceed normally.
    Allow,
    /// Breaker was Open and the cooldown elapsed: proceed, but this
    /// operation is the half-open probe — its outcome decides the link.
    Probe,
    /// Breaker Open and still cooling, or HalfOpen with its probe out:
    /// fail fast without touching the wire. Carries the failure streak for
    /// the error message.
    Reject {
        /// Consecutive give-ups recorded when the breaker opened.
        consecutive_failures: u32,
    },
}

/// Point-in-time copy of one link's breaker, as served by
/// `sys.dm_link_health`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkHealthSnapshot {
    pub server: String,
    pub state: BreakerState,
    /// Current retry-exhausted failure streak.
    pub consecutive_failures: u32,
    /// Times the breaker tripped Closed/HalfOpen → Open (resettable).
    pub opens: u64,
    /// Half-open probes admitted (resettable).
    pub probes: u64,
    /// Registry clock value of the last state transition (0 = never).
    pub last_transition: u64,
    /// Message of the failure that last fed the breaker.
    pub last_error: Option<String>,
}

#[derive(Debug, Default)]
struct LinkBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    rejections_since_open: u32,
    opens: u64,
    probes: u64,
    last_transition: u64,
    last_error: Option<String>,
}

/// Engine-wide member health: the breaker knobs and the logical operation
/// clock every link's [`Breaker`] reads. Shared by reference between the
/// engine (knob changes) and every breaker it hands out.
#[derive(Debug)]
pub struct HealthRegistry {
    /// The knobs, and the clock: it advances once per observed admission
    /// or outcome, across all links, and timestamps transitions without
    /// touching the wall clock.
    inner: Mutex<(BreakerConfig, u64)>,
}

impl HealthRegistry {
    pub fn new(config: BreakerConfig) -> Self {
        HealthRegistry {
            inner: Mutex::new((config, 0)),
        }
    }

    /// Replace the tuning knobs; existing breaker states survive.
    pub fn set_config(&self, config: BreakerConfig) {
        self.inner.lock().expect("health lock").0 = config;
    }

    /// Advance the clock for one admission or outcome: the knobs and the
    /// new tick, or `None` when breakers are off and nothing is tracked.
    fn tick(&self) -> Option<(BreakerConfig, u64)> {
        let mut g = self.inner.lock().expect("health lock");
        if !g.0.enabled {
            return None;
        }
        g.1 += 1;
        Some(*g)
    }
}

/// One linked server's circuit breaker, fed by the executor's retry
/// give-ups and consulted before every remote read of that server. It
/// lives on the link: a re-registration of the name carries it over,
/// since re-pointing a name at a new source does not vouch for the link.
#[derive(Debug)]
pub struct Breaker {
    server: String,
    health: Arc<HealthRegistry>,
    link: Mutex<LinkBreaker>,
}

impl Breaker {
    /// A Closed breaker for `server`, on `health`'s knobs and clock.
    pub fn new(server: &str, health: &Arc<HealthRegistry>) -> Self {
        Breaker {
            server: server.to_string(),
            health: Arc::clone(health),
            link: Mutex::new(LinkBreaker::default()),
        }
    }

    /// The linked server this breaker guards.
    pub fn server(&self) -> &str {
        &self.server
    }

    fn link(&self) -> MutexGuard<'_, LinkBreaker> {
        self.link.lock().expect("breaker lock")
    }

    /// Ask to use the link. Advances the operation clock; an Open breaker
    /// counts the rejection toward its cooldown and eventually converts
    /// the admission into the half-open probe. A HalfOpen breaker rejects,
    /// counting toward no cooldown, until its probe reports.
    pub fn admit(&self) -> Admission {
        let mut link = self.link();
        let Some((config, now)) = self.health.tick() else {
            return Admission::Allow;
        };
        match link.state {
            BreakerState::Closed => Admission::Allow,
            BreakerState::HalfOpen => Admission::Reject {
                consecutive_failures: link.consecutive_failures,
            },
            BreakerState::Open => {
                link.rejections_since_open += 1;
                if link.rejections_since_open > config.cooldown {
                    link.state = BreakerState::HalfOpen;
                    link.probes += 1;
                    link.last_transition = now;
                    Admission::Probe
                } else {
                    Admission::Reject {
                        consecutive_failures: link.consecutive_failures,
                    }
                }
            }
        }
    }

    /// Record a retry-exhausted (or otherwise terminal transport) failure
    /// on the link. May trip the breaker, publishing `breaker_open`.
    pub fn record_failure(&self, error: &str) {
        let opened = {
            let mut link = self.link();
            let Some((config, now)) = self.health.tick() else {
                return;
            };
            link.consecutive_failures += 1;
            link.last_error = Some(error.to_string());
            let trip = match link.state {
                BreakerState::Open => false,
                // A failed probe reopens immediately.
                BreakerState::HalfOpen => true,
                BreakerState::Closed => link.consecutive_failures >= config.failure_threshold,
            };
            if trip {
                link.state = BreakerState::Open;
                link.opens += 1;
                link.rejections_since_open = 0;
                link.last_transition = now;
                Some(link.consecutive_failures)
            } else {
                None
            }
        };
        if let Some(streak) = opened {
            emit_event(
                "breaker_open",
                &[
                    ("server", self.server.clone()),
                    ("consecutive_failures", streak.to_string()),
                    ("error", error.to_string()),
                ],
            );
        }
    }

    /// Record a successful remote operation on the link. Closes a probing
    /// (or stale Open) breaker, publishing `breaker_close`.
    pub fn record_success(&self) {
        let closed = {
            let mut link = self.link();
            let Some((_, now)) = self.health.tick() else {
                return;
            };
            link.consecutive_failures = 0;
            match link.state {
                BreakerState::Closed => None,
                // HalfOpen: the probe succeeded. Open: an operation
                // admitted before the trip came back healthy — equally
                // fresh evidence, close rather than hold the quarantine.
                BreakerState::HalfOpen | BreakerState::Open => {
                    link.state = BreakerState::Closed;
                    link.rejections_since_open = 0;
                    link.last_transition = now;
                    Some(link.probes)
                }
            }
        };
        if let Some(probes) = closed {
            emit_event(
                "breaker_close",
                &[
                    ("server", self.server.clone()),
                    ("probes", probes.to_string()),
                ],
            );
        }
    }

    /// Current state of the breaker.
    pub fn state(&self) -> BreakerState {
        self.link().state
    }

    /// The breaker as `sys.dm_link_health` shows it.
    pub fn snapshot(&self) -> LinkHealthSnapshot {
        let l = self.link();
        LinkHealthSnapshot {
            server: self.server.clone(),
            state: l.state,
            consecutive_failures: l.consecutive_failures,
            opens: l.opens,
            probes: l.probes,
            last_transition: l.last_transition,
            last_error: l.last_error.clone(),
        }
    }

    /// `DBCC SQLPERF` analog: zero the resettable counters (opens,
    /// probes). Breaker *state* deliberately survives — a quarantined
    /// link stays quarantined across a metrics reset.
    pub fn reset_counters(&self) {
        let mut l = self.link();
        l.opens = 0;
        l.probes = 0;
    }
}

/// What a query does when a DPV member is quarantined: fail the statement
/// (default) or prune the member and serve the survivors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradedMode {
    /// Propagate the member's `Unavailable` error (fail fast, but fail).
    #[default]
    Fail,
    /// Skip quarantined members at drive time and warn in EXPLAIN
    /// ANALYZE / `sys.dm_exec_requests`.
    Prune,
}

impl DegradedMode {
    pub fn is_prune(&self) -> bool {
        matches!(self, DegradedMode::Prune)
    }
}

/// Per-query record of skipped DPV members, kept as two distinct channels
/// so the report never conflates *why* a member was skipped:
///
/// - **degraded**: quarantined by [`DegradedMode::Prune`] after a health
///   failure — surfaced as the `-- [degraded: ...]` EXPLAIN ANALYZE line
///   and the `pruned_members` column of `sys.dm_exec_requests`;
/// - **startup**: eliminated by runtime parameter-driven pruning (the
///   member's startup predicate evaluated false for this execution's
///   parameter values) — surfaced as the `-- [startup: ...]` line.
#[derive(Debug, Default)]
pub struct PruneLog {
    members: Mutex<Vec<String>>,
    startup: Mutex<Vec<String>>,
}

impl PruneLog {
    /// Note one degraded-mode pruned member (deduplicated; rescans prune
    /// once).
    pub fn record(&self, server: &str) {
        let mut g = self.members.lock().expect("prune lock");
        if !g.iter().any(|m| m == server) {
            g.push(server.to_string());
        }
    }

    /// Note one member skipped by runtime startup-predicate pruning
    /// (deduplicated).
    pub fn record_startup(&self, member: &str) {
        let mut g = self.startup.lock().expect("prune lock");
        if !g.iter().any(|m| m == member) {
            g.push(member.to_string());
        }
    }

    pub fn count(&self) -> u64 {
        self.members.lock().expect("prune lock").len() as u64
    }

    pub fn startup_count(&self) -> u64 {
        self.startup.lock().expect("prune lock").len() as u64
    }

    pub fn is_empty(&self) -> bool {
        self.members.lock().expect("prune lock").is_empty()
    }

    pub fn startup_is_empty(&self) -> bool {
        self.startup.lock().expect("prune lock").is_empty()
    }

    /// Degraded-mode pruned member names, sorted for stable rendering.
    pub fn members(&self) -> Vec<String> {
        let mut out = self.members.lock().expect("prune lock").clone();
        out.sort();
        out
    }

    /// Startup-pruned member names, sorted for stable rendering.
    pub fn startup_members(&self) -> Vec<String> {
        let mut out = self.startup.lock().expect("prune lock").clone();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, cooldown: u32) -> Breaker {
        let health = HealthRegistry::new(BreakerConfig {
            failure_threshold: threshold,
            cooldown,
            ..BreakerConfig::standard()
        });
        Breaker::new("m1", &Arc::new(health))
    }

    #[test]
    fn trips_on_consecutive_giveups_and_cools_down_into_a_probe() {
        let h = breaker(2, 3);
        assert_eq!(h.admit(), Admission::Allow);
        h.record_failure("boom");
        assert_eq!(h.state(), BreakerState::Closed, "below threshold");
        h.record_failure("boom");
        assert_eq!(h.state(), BreakerState::Open);
        // Cooldown: exactly `cooldown` rejections, then one probe.
        for _ in 0..3 {
            assert!(matches!(h.admit(), Admission::Reject { .. }));
        }
        assert_eq!(h.admit(), Admission::Probe);
        assert_eq!(h.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn probe_success_closes_and_probe_failure_reopens() {
        let h = breaker(1, 1);
        h.record_failure("dead");
        assert!(matches!(h.admit(), Admission::Reject { .. }));
        assert_eq!(h.admit(), Admission::Probe);
        h.record_failure("still dead");
        assert_eq!(h.state(), BreakerState::Open, "failed probe reopens");
        assert!(matches!(h.admit(), Admission::Reject { .. }));
        assert_eq!(h.admit(), Admission::Probe);
        h.record_success();
        assert_eq!(h.state(), BreakerState::Closed);
        assert_eq!(h.admit(), Admission::Allow);
        let snap = h.snapshot();
        assert_eq!(snap.opens, 2);
        assert_eq!(snap.probes, 2);
        assert_eq!(snap.consecutive_failures, 0);
    }

    #[test]
    fn half_open_admits_one_probe_until_it_reports() {
        let h = breaker(1, 2);
        h.record_failure("dead");
        for _ in 0..2 {
            assert!(matches!(h.admit(), Admission::Reject { .. }));
        }
        assert_eq!(h.admit(), Admission::Probe);
        // Parallel readers of the recovering link wait for the probe.
        for _ in 0..3 {
            assert!(matches!(h.admit(), Admission::Reject { .. }));
        }
        assert_eq!(h.state(), BreakerState::HalfOpen);
        assert_eq!(h.snapshot().probes, 1, "one probe, not four");
        h.record_success();
        assert_eq!(h.admit(), Admission::Allow);
    }

    #[test]
    fn success_clears_the_streak() {
        let h = breaker(2, 1);
        h.record_failure("x");
        h.record_success();
        h.record_failure("x");
        assert_eq!(h.state(), BreakerState::Closed, "streak was broken");
    }

    #[test]
    fn reset_counters_keeps_state_but_zeroes_opens_and_probes() {
        let h = breaker(1, 1);
        h.record_failure("dead");
        assert!(matches!(h.admit(), Admission::Reject { .. }));
        assert_eq!(h.admit(), Admission::Probe);
        h.record_failure("dead again");
        let before = h.snapshot();
        assert_eq!((before.opens, before.probes), (2, 1));
        h.reset_counters();
        let after = h.snapshot();
        assert_eq!((after.opens, after.probes), (0, 0));
        assert_eq!(after.state, BreakerState::Open, "reset must not heal");
        assert_eq!(after.consecutive_failures, before.consecutive_failures);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let health = Arc::new(HealthRegistry::new(BreakerConfig::disabled()));
        let h = Breaker::new("m1", &health);
        h.record_failure("x");
        h.record_failure("x");
        assert_eq!(h.admit(), Admission::Allow);
        assert_eq!(h.state(), BreakerState::Closed);
        let snap = h.snapshot();
        assert_eq!((snap.consecutive_failures, snap.last_transition), (0, 0));
        assert_eq!(snap.last_error, None);
    }

    #[test]
    fn links_are_isolated() {
        let h = breaker(1, 4);
        let m2 = Breaker::new("m2", &h.health);
        h.record_failure("x");
        assert!(matches!(h.admit(), Admission::Reject { .. }));
        assert_eq!(m2.admit(), Admission::Allow);
        assert_eq!(m2.snapshot().server, "m2");
        assert_eq!(m2.state(), BreakerState::Closed);
        // One clock for both: m2's admission came after m1's trip.
        assert_eq!(h.snapshot().last_transition, 1);
        m2.record_failure("y");
        assert_eq!(m2.snapshot().last_transition, 4);
    }

    #[test]
    fn prune_log_deduplicates_and_sorts() {
        let log = PruneLog::default();
        assert!(log.is_empty());
        log.record("m3");
        log.record("m1");
        log.record("m3");
        assert_eq!(log.count(), 2);
        assert_eq!(log.members(), vec!["m1".to_string(), "m3".to_string()]);
    }

    #[test]
    fn startup_channel_is_distinct_from_the_degraded_channel() {
        let log = PruneLog::default();
        log.record("dead-member");
        log.record_startup("out-of-range-member");
        log.record_startup("out-of-range-member");
        assert_eq!(log.count(), 1);
        assert_eq!(log.startup_count(), 1);
        assert!(!log.startup_is_empty());
        assert_eq!(log.members(), vec!["dead-member".to_string()]);
        assert_eq!(
            log.startup_members(),
            vec!["out-of-range-member".to_string()]
        );
    }

    #[test]
    fn degraded_mode_defaults_to_fail() {
        assert_eq!(DegradedMode::default(), DegradedMode::Fail);
        assert!(DegradedMode::Prune.is_prune());
        assert!(!DegradedMode::Fail.is_prune());
    }
}
