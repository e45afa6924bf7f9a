//! Wait-state accounting and the activity scope low layers report into.
//!
//! SQL Server's signature diagnostic surface is `sys.dm_os_wait_stats`:
//! every blocking point in the engine is tagged with a *wait class* and
//! accumulates `(count, total_time, max_time)` per class. This module is
//! that taxonomy for the DHQP — the modeled link round trips, retry
//! backoff sleeps, exchange channel stalls, spool materialization, 2PC
//! votes and the compile path all report here.
//!
//! It lives in `dhqp_oledb` for the same layering reason as
//! [`LogHistogram`](crate::LogHistogram): the network simulator, the
//! executor and the transaction coordinator all block, but none of them may
//! depend on the engine crate that aggregates and serves the numbers. They
//! instead call the free functions [`record_wait`] / [`emit_event`], which
//! fan out to whatever [`ActivityScope`] the engine installed on the
//! current thread (a no-op when nothing is installed, so library users who
//! never arm the engine pay one thread-local read per blocking point).
//!
//! Worker threads (exchange branches, the prefetcher) are spawned while a
//! scope is installed; the spawner captures [`current_scope`] and installs
//! it in the worker body so waits incurred off the consumer thread still
//! land in the same per-query and engine-cumulative sinks.
//!
//! A link reports its traffic beside its waits, through [`record_traffic`],
//! into the charge of the remote call running on the calling thread
//! ([`charged`]). A charge never rides into a worker or a nested scope.

use crate::TrafficSnapshot;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Why time elapsed: the engine's wait-class taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitClass {
    /// Modeled link round-trip and transfer time (netsim delay model).
    NetworkIo,
    /// Retry backoff sleeps between attempts on a transient remote error.
    RetryBackoff,
    /// An exchange producer blocked because the bounded channel was full.
    ExchangeQueueFull,
    /// The exchange consumer blocked because no producer had a row ready.
    ExchangeQueueEmpty,
    /// Spool miss: materializing the child rowset into the shared cache.
    Spool,
    /// 2PC phase one: collecting prepare votes from every participant.
    DtcPrepare,
    /// 2PC phase two: delivering the commit decision.
    DtcCommit,
    /// Compile path: parse + bind + optimize for one statement.
    PlanCompile,
    /// Fetching remote table metadata/histograms for the stats cache.
    StatsFetch,
    /// A remote operation rejected fast because the link's circuit
    /// breaker was open (no wire traffic, no backoff burned).
    CircuitOpen,
}

/// Number of wait classes (array-indexed accounting).
pub const WAIT_CLASSES: usize = 10;

impl WaitClass {
    /// Every class, in DMV display order: `ALL[i] as usize == i`, the
    /// class's slot in [`WaitStats`].
    pub const ALL: [WaitClass; WAIT_CLASSES] = [
        WaitClass::NetworkIo,
        WaitClass::RetryBackoff,
        WaitClass::ExchangeQueueFull,
        WaitClass::ExchangeQueueEmpty,
        WaitClass::Spool,
        WaitClass::DtcPrepare,
        WaitClass::DtcCommit,
        WaitClass::PlanCompile,
        WaitClass::StatsFetch,
        WaitClass::CircuitOpen,
    ];

    /// The SQL Server-style ALL_CAPS wait-type name.
    pub fn name(self) -> &'static str {
        match self {
            WaitClass::NetworkIo => "NETWORK_IO",
            WaitClass::RetryBackoff => "RETRY_BACKOFF",
            WaitClass::ExchangeQueueFull => "EXCHANGE_QUEUE_FULL",
            WaitClass::ExchangeQueueEmpty => "EXCHANGE_QUEUE_EMPTY",
            WaitClass::Spool => "SPOOL",
            WaitClass::DtcPrepare => "DTC_PREPARE",
            WaitClass::DtcCommit => "DTC_COMMIT",
            WaitClass::PlanCompile => "PLAN_COMPILE",
            WaitClass::StatsFetch => "STATS_FETCH",
            WaitClass::CircuitOpen => "CIRCUIT_OPEN",
        }
    }
}

/// Per-class `(count, total, max)` atomics — the same relaxed lock-free
/// idiom as [`LogHistogram`](crate::LogHistogram), so recording from
/// exchange workers costs three `fetch_add`-class operations and no locks.
#[derive(Debug, Default)]
pub struct WaitStats {
    counts: [AtomicU64; WAIT_CLASSES],
    total_us: [AtomicU64; WAIT_CLASSES],
    max_us: [AtomicU64; WAIT_CLASSES],
}

impl WaitStats {
    /// Record one wait of `d` under `class`.
    pub fn record(&self, class: WaitClass, d: Duration) {
        let i = class as usize;
        let us = d.as_micros() as u64;
        self.counts[i].fetch_add(1, Ordering::Relaxed);
        self.total_us[i].fetch_add(us, Ordering::Relaxed);
        self.max_us[i].fetch_max(us, Ordering::Relaxed);
    }

    /// Point-in-time copy of every class.
    pub fn snapshot(&self) -> WaitSnapshot {
        let mut classes = [WaitTotals::default(); WAIT_CLASSES];
        for (i, slot) in classes.iter_mut().enumerate() {
            *slot = WaitTotals {
                count: self.counts[i].load(Ordering::Relaxed),
                total_us: self.total_us[i].load(Ordering::Relaxed),
                max_us: self.max_us[i].load(Ordering::Relaxed),
            };
        }
        WaitSnapshot { classes }
    }

    /// Zero every class — `DBCC SQLPERF('sys.dm_os_wait_stats', CLEAR)`.
    pub fn clear(&self) {
        for i in 0..WAIT_CLASSES {
            self.counts[i].store(0, Ordering::Relaxed);
            self.total_us[i].store(0, Ordering::Relaxed);
            self.max_us[i].store(0, Ordering::Relaxed);
        }
    }
}

/// One class's accumulated totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitTotals {
    pub count: u64,
    pub total_us: u64,
    pub max_us: u64,
}

/// A point-in-time copy of a [`WaitStats`], indexed by [`WaitClass`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitSnapshot {
    classes: [WaitTotals; WAIT_CLASSES],
}

impl WaitSnapshot {
    pub fn get(&self, class: WaitClass) -> WaitTotals {
        self.classes[class as usize]
    }

    /// `(class, totals)` for every class with at least one wait.
    pub fn nonzero(&self) -> Vec<(WaitClass, WaitTotals)> {
        WaitClass::ALL
            .iter()
            .map(|&c| (c, self.get(c)))
            .filter(|(_, t)| t.count > 0)
            .collect()
    }

    pub fn is_empty(&self) -> bool {
        self.classes.iter().all(|t| t.count == 0)
    }

    /// The class that accounts for the most waited time, if any time was
    /// waited at all — a slow query's one-word diagnosis. A consumer
    /// waiting on its own producers (`EXCHANGE_QUEUE_EMPTY`) is no
    /// diagnosis, so it ranks only when no other class waited (SQL Server's
    /// CXCONSUMER rule).
    pub fn dominant(&self) -> Option<WaitClass> {
        WaitClass::ALL
            .iter()
            .copied()
            .filter(|c| self.get(*c).total_us > 0)
            .max_by_key(|c| (*c != WaitClass::ExchangeQueueEmpty, self.get(*c).total_us))
    }
}

/// Receiver for structured events raised below the engine crate (retry
/// attempts, injected faults, exchange worker lifecycle, 2PC transitions).
/// The engine's event bus implements this and translates the string kinds
/// into its typed event ring.
pub trait EventHook: Send + Sync {
    fn emit(&self, kind: &'static str, attrs: &[(&'static str, String)]);
}

/// What the engine installs per statement: the wait sinks every blocking
/// point reports into, plus the optional event hook.
#[derive(Clone, Default)]
pub struct ActivityScope {
    sinks: Vec<Arc<WaitStats>>,
    hook: Option<Arc<dyn EventHook>>,
}

impl ActivityScope {
    pub fn new(sinks: Vec<Arc<WaitStats>>, hook: Option<Arc<dyn EventHook>>) -> Self {
        ActivityScope { sinks, hook }
    }
}

thread_local! {
    static CURRENT: RefCell<ActivityScope> = RefCell::new(ActivityScope::default());
    /// The traffic charged so far to the remote call running on this thread.
    static CHARGE: Cell<Option<TrafficSnapshot>> = const { Cell::new(None) };
}

/// Install `scope` on this thread until the returned guard drops, restoring
/// whatever was installed before (statements nest: a DMV query issued while
/// handling another statement sees its own scope, then the outer one
/// again). The thread's charge is set aside meanwhile: a member statement
/// pulled inside a remote call keeps its own links' traffic out of it.
pub fn install_scope(scope: ActivityScope) -> ScopeGuard {
    let (previous, charge) = (CURRENT.replace(scope), CHARGE.take());
    ScopeGuard { previous, charge }
}

/// The scope currently installed on this thread (empty when none). Spawners
/// capture this and re-install it inside worker threads.
pub fn current_scope() -> ActivityScope {
    CURRENT.with(|c| c.borrow().clone())
}

/// Restores the previously installed scope and charge on drop.
pub struct ScopeGuard {
    previous: ActivityScope,
    charge: Option<TrafficSnapshot>,
}

impl ScopeGuard {
    /// Restore the previous scope now and hand back the one this guard
    /// installed, to be installed again later — how a statement that is
    /// pulled by its consumer is in scope only while a pull runs.
    pub fn suspend(self) -> ActivityScope {
        let mut guard = std::mem::ManuallyDrop::new(self);
        let previous = std::mem::take(&mut guard.previous);
        CHARGE.set(guard.charge);
        CURRENT.replace(previous)
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CHARGE.set(self.charge);
        CURRENT.set(std::mem::take(&mut self.previous));
    }
}

/// Record one wait into every sink of the current thread's scope.
pub fn record_wait(class: WaitClass, d: Duration) {
    CURRENT.with(|c| {
        for sink in &c.borrow().sinks {
            sink.record(class, d);
        }
    });
}

/// Add `delta` to the charge of the remote call running on this thread, if
/// there is one. Links call this beside [`record_wait`].
pub fn record_traffic(delta: TrafficSnapshot) {
    if let Some(charge) = CHARGE.get() {
        CHARGE.set(Some(charge + delta));
    }
}

/// Run `f` under a fresh charge and return what it gathered: what links
/// recorded from this thread meanwhile, less what nested charges and scopes
/// kept. The outer charge is restored after, on unwind too.
pub fn charged<T>(f: impl FnOnce() -> T) -> (T, TrafficSnapshot) {
    struct Outer(Option<TrafficSnapshot>);
    impl Drop for Outer {
        fn drop(&mut self) {
            CHARGE.set(self.0);
        }
    }
    let _outer = Outer(CHARGE.replace(Some(TrafficSnapshot::default())));
    let out = f();
    (out, CHARGE.get().unwrap_or_default())
}

/// Raise one structured event through the current thread's hook, if any.
/// `attrs` are only rendered by the receiver, so an un-hooked thread pays
/// for building them — callers on hot paths should check [`has_hook`]
/// first when attribute construction allocates.
pub fn emit_event(kind: &'static str, attrs: &[(&'static str, String)]) {
    CURRENT.with(|c| {
        if let Some(hook) = &c.borrow().hook {
            hook.emit(kind, attrs);
        }
    });
}

/// Whether the current thread's scope carries an event hook.
pub fn has_hook() -> bool {
    CURRENT.with(|c| c.borrow().hook.is_some())
}

/// Time `f` and record the elapsed time under `class`.
pub fn timed_wait<T>(class: WaitClass, f: impl FnOnce() -> T) -> T {
    let t0 = std::time::Instant::now();
    let out = f();
    record_wait(class, t0.elapsed());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot_per_class() {
        let w = WaitStats::default();
        w.record(WaitClass::NetworkIo, Duration::from_micros(500));
        w.record(WaitClass::NetworkIo, Duration::from_micros(1500));
        w.record(WaitClass::RetryBackoff, Duration::from_millis(10));
        let s = w.snapshot();
        assert_eq!(s.get(WaitClass::NetworkIo).count, 2);
        assert_eq!(s.get(WaitClass::NetworkIo).total_us, 2000);
        assert_eq!(s.get(WaitClass::NetworkIo).max_us, 1500);
        assert_eq!(s.get(WaitClass::RetryBackoff).count, 1);
        assert_eq!(s.dominant(), Some(WaitClass::RetryBackoff));
        assert_eq!(s.nonzero().len(), 2);
        w.clear();
        assert!(w.snapshot().is_empty());
        assert_eq!(w.snapshot().dominant(), None);
    }

    #[test]
    fn scope_fans_out_and_restores() {
        let engine = Arc::new(WaitStats::default());
        let query = Arc::new(WaitStats::default());
        record_wait(WaitClass::Spool, Duration::from_millis(1)); // no scope: dropped
        {
            let _g = install_scope(ActivityScope::new(
                vec![Arc::clone(&engine), Arc::clone(&query)],
                None,
            ));
            record_wait(WaitClass::Spool, Duration::from_millis(2));
            {
                // Nested statement gets its own scope...
                let inner = Arc::new(WaitStats::default());
                let _g2 = install_scope(ActivityScope::new(vec![Arc::clone(&inner)], None));
                record_wait(WaitClass::Spool, Duration::from_millis(4));
                assert_eq!(inner.snapshot().get(WaitClass::Spool).count, 1);
            }
            // ...and the outer scope is back after it finishes.
            record_wait(WaitClass::Spool, Duration::from_millis(8));
        }
        record_wait(WaitClass::Spool, Duration::from_millis(16)); // dropped again
        for sink in [&engine, &query] {
            let t = sink.snapshot().get(WaitClass::Spool);
            assert_eq!(t.count, 2);
            assert_eq!(t.total_us, 10_000);
        }
    }

    #[test]
    fn a_suspended_scope_records_only_while_reinstalled() {
        let outer = Arc::new(WaitStats::default());
        let inner = Arc::new(WaitStats::default());
        let _g = install_scope(ActivityScope::new(vec![Arc::clone(&outer)], None));
        let parked = install_scope(ActivityScope::new(vec![Arc::clone(&inner)], None)).suspend();
        record_wait(WaitClass::Spool, Duration::from_millis(1)); // the outer scope's
        let parked = install_scope(parked).suspend();
        let _resumed = install_scope(parked);
        record_wait(WaitClass::Spool, Duration::from_millis(2)); // the inner scope's
        assert_eq!(outer.snapshot().get(WaitClass::Spool).total_us, 1_000);
        assert_eq!(inner.snapshot().get(WaitClass::Spool).total_us, 2_000);
    }

    #[test]
    fn worker_threads_inherit_a_captured_scope() {
        let sink = Arc::new(WaitStats::default());
        let _g = install_scope(ActivityScope::new(vec![Arc::clone(&sink)], None));
        let scope = current_scope();
        std::thread::spawn(move || {
            let _g = install_scope(scope);
            record_wait(WaitClass::ExchangeQueueFull, Duration::from_millis(3));
        })
        .join()
        .unwrap();
        assert_eq!(sink.snapshot().get(WaitClass::ExchangeQueueFull).count, 1);
    }

    #[test]
    fn events_reach_the_hook() {
        use std::sync::Mutex;
        struct Capture(Mutex<Vec<String>>);
        impl EventHook for Capture {
            fn emit(&self, kind: &'static str, attrs: &[(&'static str, String)]) {
                self.0
                    .lock()
                    .unwrap()
                    .push(format!("{kind}:{}", attrs.len()));
            }
        }
        let hook = Arc::new(Capture(Mutex::new(Vec::new())));
        assert!(!has_hook());
        emit_event("dropped", &[]);
        {
            let _g = install_scope(ActivityScope::new(vec![], Some(hook.clone())));
            assert!(has_hook());
            emit_event("retry", &[("server", "m1".to_string())]);
        }
        assert_eq!(hook.0.lock().unwrap().as_slice(), ["retry:1"]);
    }

    #[test]
    fn timed_wait_records_elapsed() {
        let sink = Arc::new(WaitStats::default());
        let _g = install_scope(ActivityScope::new(vec![Arc::clone(&sink)], None));
        let out = timed_wait(WaitClass::PlanCompile, || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(out, 7);
        let t = sink.snapshot().get(WaitClass::PlanCompile);
        assert_eq!(t.count, 1);
        assert!(t.total_us >= 1500, "{t:?}");
    }

    #[test]
    fn a_consumer_waiting_on_its_producers_dominates_only_alone() {
        let w = WaitStats::default();
        assert_eq!(w.snapshot().dominant(), None);
        w.record(WaitClass::ExchangeQueueEmpty, Duration::from_micros(3_398));
        assert_eq!(w.snapshot().dominant(), Some(WaitClass::ExchangeQueueEmpty));
        w.record(WaitClass::NetworkIo, Duration::from_micros(2_000));
        w.record(WaitClass::PlanCompile, Duration::from_micros(281));
        w.record(WaitClass::StatsFetch, Duration::from_micros(28));
        assert_eq!(w.snapshot().dominant(), Some(WaitClass::NetworkIo));
    }

    fn bytes(n: u64) -> TrafficSnapshot {
        TrafficSnapshot {
            requests: 1,
            bytes: n,
            ..TrafficSnapshot::default()
        }
    }

    #[test]
    fn nested_charges_each_gather_only_their_own_traffic() {
        record_traffic(bytes(1)); // no charge: dropped
        let (((), inner), outer) = charged(|| {
            record_traffic(bytes(2));
            let inner = charged(|| record_traffic(bytes(4)));
            record_traffic(bytes(8));
            inner
        });
        assert_eq!(inner, bytes(4));
        assert_eq!(outer, bytes(2) + bytes(8));
        assert_eq!(charged(|| ()).1, TrafficSnapshot::default());
    }

    #[test]
    fn a_scope_installed_inside_a_charge_keeps_its_traffic() {
        let ((), charge) = charged(|| {
            record_traffic(bytes(1));
            let parked = {
                let _member = install_scope(ActivityScope::default());
                record_traffic(bytes(2)); // the member's, no charge of ours
                let (_, own) = charged(|| record_traffic(bytes(4)));
                assert_eq!(own, bytes(4));
                install_scope(ActivityScope::default()).suspend()
            };
            record_traffic(bytes(8));
            let resumed = install_scope(parked);
            record_traffic(bytes(16)); // a pull of the suspended statement
            let _parked = resumed.suspend();
            record_traffic(bytes(32));
        });
        assert_eq!(charge, bytes(1) + bytes(8) + bytes(32));
    }

    #[test]
    fn a_spawned_thread_starts_uncharged() {
        let (uncharged, charge) = charged(|| {
            record_traffic(bytes(1));
            std::thread::spawn(|| {
                record_traffic(bytes(2));
                CHARGE.get().is_none()
            })
            .join()
            .unwrap()
        });
        assert!(uncharged);
        assert_eq!(charge, bytes(1));
    }

    #[test]
    fn a_panic_inside_a_charge_restores_the_outer_one() {
        let ((), charge) = charged(|| {
            record_traffic(bytes(1));
            let unwound = std::panic::catch_unwind(|| {
                charged(|| {
                    record_traffic(bytes(2));
                    panic!("a failing pull");
                })
            });
            assert!(unwound.is_err());
            record_traffic(bytes(4));
        });
        assert_eq!(charge, bytes(1) + bytes(4));
        assert_eq!(CHARGE.get(), None);
    }

    #[test]
    fn all_lists_classes_in_discriminant_order() {
        for (i, class) in WaitClass::ALL.into_iter().enumerate() {
            assert_eq!(class as usize, i, "{class:?}");
        }
    }

    #[test]
    fn class_names_are_screaming_snake() {
        for c in WaitClass::ALL {
            assert!(c
                .name()
                .chars()
                .all(|ch| ch.is_ascii_uppercase() || ch == '_' || ch.is_ascii_digit()));
        }
        assert_eq!(WaitClass::ALL.len(), WAIT_CLASSES);
    }
}
