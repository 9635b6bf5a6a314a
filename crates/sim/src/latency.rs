//! User-perceived latency estimation.
//!
//! The paper motivates the constant cost model with institutional
//! proxies that "mainly aim at reducing end user latency by optimizing
//! the hit rate". This module closes that loop: given a simulation
//! report, it estimates the latency end users experienced under a
//! two-link model — a fast local link for cache hits and a slow wide-area
//! link for misses — and the speedup over running without a cache.
//!
//! The model is deliberately simple (per-request setup time plus
//! size-proportional transfer time per link); it converts the abstract
//! hit/byte-hit rates into the quantity institutions actually buy
//! proxies for.

use serde::{Deserialize, Serialize};

use webcache_trace::ByteSize;

use crate::metrics::HitStats;
use crate::simulator::SimulationReport;

/// One network link: fixed per-request setup latency plus bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// Per-request setup latency in milliseconds (connection + request).
    pub setup_ms: f64,
    /// Sustained bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
}

impl LinkModel {
    /// Creates a link model.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive and finite.
    pub fn new(setup_ms: f64, bandwidth_bytes_per_sec: f64) -> Self {
        assert!(
            setup_ms.is_finite() && setup_ms >= 0.0,
            "setup latency must be non-negative"
        );
        assert!(
            bandwidth_bytes_per_sec.is_finite() && bandwidth_bytes_per_sec > 0.0,
            "bandwidth must be positive"
        );
        LinkModel {
            setup_ms,
            bandwidth_bytes_per_sec,
        }
    }

    /// Time to deliver `bytes` over this link, in milliseconds.
    pub fn transfer_ms(&self, bytes: ByteSize) -> f64 {
        self.setup_ms + bytes.as_f64() / self.bandwidth_bytes_per_sec * 1000.0
    }
}

/// A two-link latency model: hits served over `local`, misses over
/// `origin`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Proxy-to-client link used for cache hits.
    pub local: LinkModel,
    /// Origin-to-client path used for misses.
    pub origin: LinkModel,
}

impl LatencyModel {
    /// A 2001-flavoured default: 5 ms / 10 MB/s locally,
    /// 150 ms / 300 KB/s to the origin.
    pub fn campus_2001() -> Self {
        LatencyModel {
            local: LinkModel::new(5.0, 10_000_000.0),
            origin: LinkModel::new(150.0, 300_000.0),
        }
    }

    /// Estimates latency totals for one measurement bucket.
    pub fn estimate_stats(&self, stats: &HitStats) -> LatencyEstimate {
        let misses = stats.requests - stats.hits;
        let miss_bytes = stats.bytes_requested - stats.bytes_hit;
        let hit_ms = stats.hits as f64 * self.local.setup_ms
            + stats.bytes_hit as f64 / self.local.bandwidth_bytes_per_sec * 1000.0;
        let miss_ms = misses as f64 * self.origin.setup_ms
            + miss_bytes as f64 / self.origin.bandwidth_bytes_per_sec * 1000.0;
        let no_cache_ms = stats.requests as f64 * self.origin.setup_ms
            + stats.bytes_requested as f64 / self.origin.bandwidth_bytes_per_sec * 1000.0;
        LatencyEstimate {
            requests: stats.requests,
            total_ms: hit_ms + miss_ms,
            no_cache_total_ms: no_cache_ms,
        }
    }

    /// Estimates latency for a full simulation report (overall bucket).
    pub fn estimate(&self, report: &SimulationReport) -> LatencyEstimate {
        self.estimate_stats(&report.overall())
    }
}

/// Latency totals for one bucket of requests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyEstimate {
    /// Requests covered.
    pub requests: u64,
    /// Total latency with the cache, in milliseconds.
    pub total_ms: f64,
    /// Total latency if every request had gone to the origin.
    pub no_cache_total_ms: f64,
}

impl LatencyEstimate {
    /// Mean per-request latency with the cache.
    pub fn mean_ms(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_ms / self.requests as f64
        }
    }

    /// Latency saved relative to no cache, as a fraction in `[0, 1]`.
    pub fn savings(&self) -> f64 {
        if self.no_cache_total_ms == 0.0 {
            0.0
        } else {
            1.0 - self.total_ms / self.no_cache_total_ms
        }
    }

    /// Speedup factor (`no-cache latency / cached latency`).
    pub fn speedup(&self) -> f64 {
        if self.total_ms == 0.0 {
            1.0
        } else {
            self.no_cache_total_ms / self.total_ms
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(requests: u64, hits: u64, bytes_req: u64, bytes_hit: u64) -> HitStats {
        HitStats {
            requests,
            hits,
            bytes_requested: u128::from(bytes_req),
            bytes_hit: u128::from(bytes_hit),
            modification_misses: 0,
        }
    }

    #[test]
    fn link_transfer_time() {
        let link = LinkModel::new(10.0, 1_000_000.0);
        assert_eq!(link.transfer_ms(ByteSize::ZERO), 10.0);
        assert_eq!(link.transfer_ms(ByteSize::new(1_000_000)), 1_010.0);
    }

    #[test]
    fn all_hits_cost_only_local_link() {
        let m = LatencyModel::campus_2001();
        let e = m.estimate_stats(&stats(10, 10, 10_000, 10_000));
        assert!((e.total_ms - (10.0 * 5.0 + 1.0)).abs() < 1e-9);
        assert!(e.savings() > 0.9);
        assert!(e.speedup() > 10.0);
    }

    #[test]
    fn all_misses_match_no_cache_baseline() {
        let m = LatencyModel::campus_2001();
        let e = m.estimate_stats(&stats(10, 0, 10_000, 0));
        assert!((e.total_ms - e.no_cache_total_ms).abs() < 1e-9);
        assert_eq!(e.savings(), 0.0);
        assert!((e.speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn higher_hit_rate_means_lower_latency() {
        let m = LatencyModel::campus_2001();
        let worse = m.estimate_stats(&stats(100, 20, 1_000_000, 200_000));
        let better = m.estimate_stats(&stats(100, 60, 1_000_000, 600_000));
        assert!(better.total_ms < worse.total_ms);
        assert!(better.mean_ms() < worse.mean_ms());
        assert!(better.savings() > worse.savings());
    }

    #[test]
    fn empty_bucket_is_neutral() {
        let m = LatencyModel::campus_2001();
        let e = m.estimate_stats(&stats(0, 0, 0, 0));
        assert_eq!(e.mean_ms(), 0.0);
        assert_eq!(e.savings(), 0.0);
        assert_eq!(e.speedup(), 1.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = LinkModel::new(1.0, 0.0);
    }
}
