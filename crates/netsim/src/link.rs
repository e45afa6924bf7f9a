//! Link configuration, accounting and delay model.

pub use dhqp_oledb::TrafficSnapshot;
use dhqp_oledb::{record_traffic, record_wait, WaitClass};
pub use dhqp_oledb::{HistogramSnapshot, LatencySummary, LogHistogram};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Static link parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// One-way request latency in microseconds, charged per round trip.
    pub latency_us: u64,
    /// Link bandwidth in bytes per millisecond (e.g. 100_000 ≈ 100 MB/s).
    pub bytes_per_ms: u64,
    /// When false the link only accounts; when true it also sleeps so
    /// wall-clock measurements include simulated transfer time.
    pub simulate_delay: bool,
}

impl NetworkConfig {
    /// A fast LAN: 0.5 ms round trips, ~100 MB/s, accounting only.
    pub fn lan() -> Self {
        NetworkConfig {
            latency_us: 500,
            bytes_per_ms: 100_000,
            simulate_delay: false,
        }
    }

    /// A LAN with delay simulation enabled — used by benches so network
    /// traffic shows up in wall time.
    pub fn lan_timed() -> Self {
        NetworkConfig {
            simulate_delay: true,
            ..NetworkConfig::lan()
        }
    }

    /// A slow WAN: 20 ms round trips, ~2 MB/s.
    pub fn wan_timed() -> Self {
        NetworkConfig {
            latency_us: 20_000,
            bytes_per_ms: 2_000,
            simulate_delay: true,
        }
    }

    /// Accounting-only link with zero parameters (unit tests).
    pub fn untimed() -> Self {
        NetworkConfig {
            latency_us: 0,
            bytes_per_ms: 0,
            simulate_delay: false,
        }
    }

    /// Simulated wire time for a payload of `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        if self.bytes_per_ms == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(bytes.saturating_mul(1000) / self.bytes_per_ms)
    }
}

/// Monotonic counters for one link (shared across sessions/rowsets).
#[derive(Debug, Default)]
pub struct LinkStats {
    pub requests: AtomicU64,
    pub rows: AtomicU64,
    pub bytes: AtomicU64,
    /// Row-shipping transfers: one per [`NetworkLink::record_rows`] call.
    /// Row-at-a-time cursoring flushes one row per call, batched cursoring
    /// K rows, so `rows / batches` gauges the realized batch size.
    pub batches: AtomicU64,
    /// Faults the link's fault plan injected (not part of
    /// [`TrafficSnapshot`]: faults are not wire traffic).
    pub faults: AtomicU64,
    /// Modeled per-request round-trip times, in microseconds. Recorded from
    /// the delay model whether or not the link actually sleeps, so
    /// accounting-only LANs still report their configured latency
    /// distribution.
    pub latency: LogHistogram,
    /// Per-transfer payload sizes in bytes (requests and row batches).
    pub payload: LogHistogram,
}

// `TrafficSnapshot` lives in `dhqp_oledb` (re-exported above) so a link can
// charge it to the calling thread (`record_traffic`) and the engine can read
// totals through `DataSource::traffic`, neither knowing the simulator.

/// A shared handle to one simulated link.
#[derive(Clone)]
pub struct NetworkLink {
    name: Arc<str>,
    config: NetworkConfig,
    stats: Arc<LinkStats>,
}

impl NetworkLink {
    pub fn new(name: impl Into<String>, config: NetworkConfig) -> Self {
        NetworkLink {
            name: name.into().into(),
            config,
            stats: Arc::new(LinkStats::default()),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn config(&self) -> NetworkConfig {
        self.config
    }

    /// Record one round trip carrying `request_bytes` of command/request
    /// payload, sleeping for the configured latency when simulation is on.
    pub fn record_request(&self, request_bytes: u64) {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(request_bytes, Ordering::Relaxed);
        record_traffic(TrafficSnapshot {
            requests: 1,
            bytes: request_bytes,
            ..TrafficSnapshot::default()
        });
        let d = Duration::from_micros(self.config.latency_us)
            + self.config.transfer_time(request_bytes);
        self.stats.latency.record(d.as_micros() as u64);
        self.stats.payload.record(request_bytes);
        // Wait accounting uses the modeled duration whether or not the link
        // sleeps (same contract as the latency histogram above), so
        // accounting-only LANs report deterministic NETWORK_IO totals.
        if !d.is_zero() {
            record_wait(WaitClass::NetworkIo, d);
        }
        if self.config.simulate_delay && !d.is_zero() {
            std::thread::sleep(d);
        }
    }

    /// Record `rows` result rows totalling `bytes` on the wire. Returns the
    /// simulated transfer duration (already slept when simulation is on).
    pub fn record_rows(&self, rows: u64, bytes: u64) -> Duration {
        self.stats.rows.fetch_add(rows, Ordering::Relaxed);
        self.stats.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        record_traffic(TrafficSnapshot {
            requests: 0,
            rows,
            bytes,
            batches: 1,
        });
        self.stats.payload.record(bytes);
        let d = self.config.transfer_time(bytes);
        if !d.is_zero() {
            record_wait(WaitClass::NetworkIo, d);
        }
        if self.config.simulate_delay && !d.is_zero() {
            std::thread::sleep(d);
        }
        d
    }

    /// Record one injected fault on this link.
    pub fn record_fault(&self) {
        self.stats.faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Faults injected on this link since creation (or the last reset).
    pub fn faults_injected(&self) -> u64 {
        self.stats.faults.load(Ordering::Relaxed)
    }

    /// Current counter values.
    pub fn snapshot(&self) -> TrafficSnapshot {
        TrafficSnapshot {
            requests: self.stats.requests.load(Ordering::Relaxed),
            rows: self.stats.rows.load(Ordering::Relaxed),
            bytes: self.stats.bytes.load(Ordering::Relaxed),
            batches: self.stats.batches.load(Ordering::Relaxed),
        }
    }

    /// Modeled per-request round-trip time distribution (microseconds).
    pub fn latency_histogram(&self) -> HistogramSnapshot {
        self.stats.latency.snapshot()
    }

    /// Per-transfer payload size distribution (bytes).
    pub fn payload_histogram(&self) -> HistogramSnapshot {
        self.stats.payload.snapshot()
    }

    /// p50/p95/p99 of the modeled round-trip time (microseconds).
    pub fn latency_summary(&self) -> LatencySummary {
        self.stats.latency.snapshot().latency_summary()
    }

    /// Reset all counters (benches do this between measurements).
    pub fn reset(&self) {
        self.stats.requests.store(0, Ordering::Relaxed);
        self.stats.rows.store(0, Ordering::Relaxed);
        self.stats.bytes.store(0, Ordering::Relaxed);
        self.stats.batches.store(0, Ordering::Relaxed);
        self.stats.faults.store(0, Ordering::Relaxed);
        self.stats.latency.clear();
        self.stats.payload.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetworkLink>();
        assert_send_sync::<LinkStats>();
        assert_send_sync::<NetworkConfig>();
    }

    #[test]
    fn concurrent_accounting_stays_exact() {
        // Parallel exchange branches meter the same link from several
        // worker threads; the atomic counters must not lose updates.
        let link = NetworkLink::new("r0", NetworkConfig::untimed());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let link = link.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        link.record_request(10);
                        link.record_rows(3, 48);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = link.snapshot();
        assert_eq!(s.requests, 4000);
        assert_eq!(s.rows, 12_000);
        assert_eq!(s.bytes, 4000 * 10 + 4000 * 48);
    }

    #[test]
    fn accounting_accumulates() {
        let link = NetworkLink::new("r0", NetworkConfig::untimed());
        link.record_request(100);
        link.record_rows(10, 800);
        link.record_rows(5, 400);
        let s = link.snapshot();
        assert_eq!(s.requests, 1);
        assert_eq!(s.rows, 15);
        assert_eq!(s.bytes, 1300);
        assert_eq!(s.batches, 2);
        assert_eq!(s.rows_per_round_trip(), Some(7.5));
    }

    #[test]
    fn rows_per_round_trip_gauges_flush_size() {
        let link = NetworkLink::new("r0", NetworkConfig::untimed());
        assert_eq!(link.snapshot().rows_per_round_trip(), None);
        // Row-at-a-time: one flush per row → gauge of 1.
        for _ in 0..4 {
            link.record_rows(1, 16);
        }
        assert_eq!(link.snapshot().rows_per_round_trip(), Some(1.0));
        link.reset();
        // Batched: one flush per chunk → gauge of the chunk size.
        link.record_rows(8, 128);
        link.record_rows(8, 128);
        assert_eq!(link.snapshot().rows_per_round_trip(), Some(8.0));
    }

    #[test]
    fn snapshot_diff() {
        let link = NetworkLink::new("r0", NetworkConfig::untimed());
        link.record_rows(10, 100);
        let before = link.snapshot();
        link.record_rows(7, 70);
        let delta = link.snapshot().since(&before);
        assert_eq!(delta.rows, 7);
        assert_eq!(delta.bytes, 70);
        assert_eq!(delta.requests, 0);
    }

    #[test]
    fn reset_zeroes_counters() {
        let link = NetworkLink::new("r0", NetworkConfig::untimed());
        link.record_request(5);
        link.record_fault();
        link.reset();
        assert_eq!(link.snapshot(), TrafficSnapshot::default());
        assert_eq!(link.faults_injected(), 0);
    }

    #[test]
    fn latency_histogram_tracks_model_without_sleeping() {
        // An accounting-only LAN must still report its modeled round-trip
        // distribution: 500µs latency + 1000B at 100_000 B/ms = 510µs per
        // request, so every percentile clamps to the 510µs maximum.
        let link = NetworkLink::new("r0", NetworkConfig::lan());
        for _ in 0..10 {
            link.record_request(1000);
        }
        let s = link.latency_summary();
        assert_eq!(s.count, 10);
        assert!(s.p50_us >= 510 && s.p50_us <= 1023, "p50={}", s.p50_us);
        assert_eq!(s.max_us, 510);
        assert!(s.p99_us >= s.p50_us.min(s.max_us));
        let bytes = link.payload_histogram();
        assert_eq!(bytes.count, 10);
        link.reset();
        assert!(link.latency_histogram().is_empty());
        assert!(link.payload_histogram().is_empty());
    }

    #[test]
    fn faults_are_counted_separately_from_traffic() {
        let link = NetworkLink::new("r0", NetworkConfig::untimed());
        link.record_request(5);
        link.record_fault();
        link.record_fault();
        assert_eq!(link.faults_injected(), 2);
        assert_eq!(link.snapshot().requests, 1);
    }

    #[test]
    fn snapshot_diff_across_reset_saturates() {
        // Regression: `since` across a link reset (or with arguments in the
        // wrong order) used to underflow and panic; it must clamp to zero.
        let link = NetworkLink::new("r0", NetworkConfig::untimed());
        link.record_request(100);
        link.record_rows(10, 800);
        let before = link.snapshot();
        link.reset();
        link.record_rows(2, 20);
        let delta = link.snapshot().since(&before);
        assert_eq!(delta, TrafficSnapshot::default());
        // Wrong-order subtraction clamps too.
        let newer = {
            link.record_rows(5, 50);
            link.snapshot()
        };
        let older = TrafficSnapshot::default();
        assert_eq!(older.since(&newer), TrafficSnapshot::default());
    }

    #[test]
    fn clones_share_counters() {
        let a = NetworkLink::new("r0", NetworkConfig::untimed());
        let b = a.clone();
        a.record_rows(1, 10);
        b.record_rows(2, 20);
        assert_eq!(a.snapshot().rows, 3);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let cfg = NetworkConfig {
            latency_us: 0,
            bytes_per_ms: 1000,
            simulate_delay: false,
        };
        assert_eq!(cfg.transfer_time(1000), Duration::from_millis(1));
        assert_eq!(cfg.transfer_time(0), Duration::ZERO);
        assert_eq!(
            NetworkConfig::untimed().transfer_time(1_000_000),
            Duration::ZERO
        );
    }

    #[test]
    fn timed_link_sleeps_for_latency() {
        let cfg = NetworkConfig {
            latency_us: 2000,
            bytes_per_ms: 0,
            simulate_delay: true,
        };
        let link = NetworkLink::new("slow", cfg);
        let t0 = std::time::Instant::now();
        link.record_request(0);
        assert!(t0.elapsed() >= Duration::from_micros(1800));
    }
}
