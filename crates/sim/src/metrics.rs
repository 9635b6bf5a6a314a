//! Hit-rate and byte-hit-rate accounting.

use std::ops::AddAssign;

use serde::{Deserialize, Serialize};

use webcache_trace::ByteSize;

/// Request/hit counters for one measurement bucket (overall or one
/// document type). Bytes are summed in `u128`, so they stay exact when a
/// trace's transfers add up past `u64::MAX`.
///
/// *Hit rate* is the fraction of requests served from the cache; *byte
/// hit rate* is the fraction of requested bytes served from the cache.
/// Institutional proxies optimize the former, backbone proxies the latter
/// (paper, Section 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HitStats {
    /// Counted requests (excludes warm-up).
    pub requests: u64,
    /// Requests served from the cache.
    pub hits: u64,
    /// Bytes requested.
    pub bytes_requested: u128,
    /// Bytes served from the cache.
    pub bytes_hit: u128,
    /// Misses caused by document modifications (size change < 5%).
    pub modification_misses: u64,
}

impl HitStats {
    /// Records a request of the given transfer size.
    pub fn record(&mut self, transfer: ByteSize, hit: bool) {
        let bytes = u128::from(transfer.as_u64());
        self.requests += 1;
        self.bytes_requested += bytes;
        if hit {
            self.hits += 1;
            self.bytes_hit += bytes;
        }
    }

    /// `hits / requests`, or 0 for an empty bucket.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }

    /// `bytes_hit / bytes_requested`, or 0 for an empty bucket.
    pub fn byte_hit_rate(&self) -> f64 {
        if self.bytes_requested == 0 {
            0.0
        } else {
            self.bytes_hit as f64 / self.bytes_requested as f64
        }
    }
}

impl AddAssign for HitStats {
    fn add_assign(&mut self, rhs: HitStats) {
        self.requests += rhs.requests;
        self.hits += rhs.hits;
        self.bytes_requested += rhs.bytes_requested;
        self.bytes_hit += rhs.bytes_hit;
        self.modification_misses += rhs.modification_misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_compute() {
        let mut s = HitStats::default();
        s.record(ByteSize::new(100), true);
        s.record(ByteSize::new(300), false);
        assert_eq!(s.hit_rate(), 0.5);
        assert_eq!(s.byte_hit_rate(), 0.25);
        assert_eq!(s.requests, 2);
        assert_eq!(s.bytes_requested, 400);
    }

    #[test]
    fn empty_bucket_rates_are_zero() {
        let s = HitStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.byte_hit_rate(), 0.0);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = HitStats::default();
        a.record(ByteSize::new(10), true);
        let mut b = HitStats::default();
        b.record(ByteSize::new(30), false);
        b.modification_misses = 2;
        a += b;
        assert_eq!(a.requests, 2);
        assert_eq!(a.hits, 1);
        assert_eq!(a.bytes_requested, 40);
        assert_eq!(a.modification_misses, 2);
    }
}
