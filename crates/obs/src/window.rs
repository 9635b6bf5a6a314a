//! Windowed percentile histograms.
//!
//! A [`WindowedHistogram`] is a ring of `K` log2-bucket histograms (the
//! same fixed buckets as
//! [`registry::Histogram`](crate::registry::Histogram)) rotated
//! explicitly by the owner — one rotation per anomaly window, replay
//! pass, or whatever cadence the caller picks. The record path is lock-free:
//! load the current slot index, then two relaxed `fetch_add`s (the
//! bucket and the value sum; the count is the bucket sum).
//! [`WindowedHistogram::record_counts`] adds a batch the same way, one
//! `fetch_add` per non-empty bucket. Serve's latency observer batches
//! each replay per handle, so it pays that handful of `fetch_add`s only
//! when a batch is flushed, not per request.
//! Quantile estimation aggregates all `K` windows, so an estimate
//! always covers the trailing `K` rotation periods and old traffic ages
//! out as slots are recycled.
//!
//! Precision note: a recorder racing a rotation may land its sample one
//! window off. Both windows are inside the trailing aggregate, so
//! quantiles are unaffected; only the per-window attribution can be off
//! by one sample. That is the price of the lock-free record path and is
//! acceptable for observability.
//!
//! [`QuantileGauges`] packages the common export shape: four registry
//! gauges labelled `quantile="p50" | "p90" | "p99" | "p999"`, refreshed
//! from a histogram by [`QuantileGauges::publish`].
//!
//! ```
//! use webcache_obs::window::WindowedHistogram;
//!
//! let h = WindowedHistogram::new(4);
//! for v in 1..=100u64 {
//!     h.record(v);
//! }
//! let p50 = h.quantile(0.5).unwrap();
//! assert!((32.0..=64.0).contains(&p50), "{p50}");
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::registry::{bucket_index, Gauge, Registry, BUCKETS};

/// The quantiles exported by [`QuantileGauges`], as `(label, q)` pairs.
pub const QUANTILES: [(&str, f64); 4] =
    [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)];

#[derive(Debug)]
struct WindowCells {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for WindowCells {
    fn default() -> Self {
        WindowCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl WindowCells {
    fn clear(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }
}

#[derive(Debug)]
struct WindowedCells {
    windows: Box<[WindowCells]>,
    current: AtomicUsize,
    rotations: AtomicU64,
}

/// A ring of log2-bucket histograms with an explicit rotation cadence.
///
/// Cloning shares the ring, so one handle can record from hot paths
/// (possibly many threads) while another rotates and reads quantiles.
#[derive(Debug, Clone)]
pub struct WindowedHistogram(Arc<WindowedCells>);

impl WindowedHistogram {
    /// Creates a ring of `windows` histograms (clamped to at least 2 —
    /// one being filled plus at least one full trailing window).
    pub fn new(windows: usize) -> Self {
        let windows = windows.max(2);
        WindowedHistogram(Arc::new(WindowedCells {
            windows: (0..windows).map(|_| WindowCells::default()).collect(),
            current: AtomicUsize::new(0),
            rotations: AtomicU64::new(0),
        }))
    }

    /// Number of windows in the ring.
    pub fn windows(&self) -> usize {
        self.0.windows.len()
    }

    /// Total rotations so far.
    pub fn rotations(&self) -> u64 {
        self.0.rotations.load(Ordering::Relaxed)
    }

    /// Records one observation into the current window (lock-free).
    #[inline]
    pub fn record(&self, v: u64) {
        let w = &self.0.windows[self.0.current.load(Ordering::Relaxed)];
        w.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        w.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Adds a batch of observations to the current window: `buckets[b]`
    /// more in bucket `b` (the layout of
    /// [`bucket_index`](crate::registry::bucket_index)) and `sum` more
    /// to the value sum. Equivalent to recording each observation
    /// with [`WindowedHistogram::record`], for one `fetch_add` per
    /// non-empty bucket.
    pub fn record_counts(&self, buckets: &[u64; BUCKETS], sum: u64) {
        let w = &self.0.windows[self.0.current.load(Ordering::Relaxed)];
        for (cell, &n) in w.buckets.iter().zip(buckets) {
            if n > 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
        if sum > 0 {
            w.sum.fetch_add(sum, Ordering::Relaxed);
        }
    }

    /// Advances to the next window, recycling (clearing) the oldest.
    ///
    /// The next slot is cleared *before* the current index moves, so
    /// records issued after the publish land in a clean window. Call
    /// from one place (the pass/window boundary), not concurrently.
    pub fn rotate(&self) {
        let cur = self.0.current.load(Ordering::Relaxed);
        let next = (cur + 1) % self.0.windows.len();
        self.0.windows[next].clear();
        self.0.current.store(next, Ordering::Release);
        self.0.rotations.fetch_add(1, Ordering::Relaxed);
    }

    /// Per-bucket counts aggregated over every window in the ring.
    pub fn aggregate_buckets(&self) -> [u64; BUCKETS] {
        let mut total = [0u64; BUCKETS];
        for w in self.0.windows.iter() {
            for (t, b) in total.iter_mut().zip(w.buckets.iter()) {
                *t += b.load(Ordering::Relaxed);
            }
        }
        total
    }

    /// Observations across every window in the ring: the sum of the
    /// bucket counts.
    pub fn count(&self) -> u64 {
        self.aggregate_buckets().iter().sum()
    }

    /// Sum of observed values across every window in the ring.
    pub fn sum(&self) -> u64 {
        self.0
            .windows
            .iter()
            .map(|w| w.sum.load(Ordering::Relaxed))
            .sum()
    }

    /// Estimates the `q`-quantile (`0 < q <= 1`) over the trailing
    /// windows, or `None` when no observations are retained.
    ///
    /// Nearest-rank walk over the aggregated log2 buckets with linear
    /// interpolation inside the landing bucket, so the estimate is
    /// exact to within one log2 bucket (a factor-of-two resolution, the
    /// same as the underlying histogram).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_from_buckets(&self.aggregate_buckets(), q)
    }
}

/// Nearest-rank quantile over log2 bucket counts (shared with tests and
/// the registry [`crate::registry::Histogram`] via
/// [`crate::registry::Histogram::bucket_counts`]).
pub fn quantile_from_buckets(counts: &[u64; BUCKETS], q: f64) -> Option<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    // Nearest rank: the smallest rank r with r >= q * total, at least 1.
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cumulative = 0u64;
    for (b, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let before = cumulative;
        cumulative += count;
        if cumulative >= rank {
            let lo = if b == 0 {
                0.0
            } else {
                (1u64 << (b - 1)) as f64
            };
            if b == BUCKETS - 1 {
                // Catch-all: no finite upper bound to interpolate to.
                return Some(lo);
            }
            let hi = (1u64 << b) as f64;
            let into = (rank - before) as f64 / count as f64;
            return Some(lo + (hi - lo) * into);
        }
    }
    unreachable!("rank <= total")
}

/// Four registry gauges (`quantile="p50" | "p90" | "p99" | "p999"`)
/// published from a [`WindowedHistogram`].
#[derive(Debug, Clone)]
pub struct QuantileGauges {
    gauges: [Gauge; QUANTILES.len()],
}

impl QuantileGauges {
    /// Registers the four quantile gauges under `name`, appending a
    /// `quantile` label to `labels`.
    pub fn register(registry: &Registry, name: &str, help: &str, labels: &[(&str, &str)]) -> Self {
        let gauges = std::array::from_fn(|i| {
            let mut all: Vec<(&str, &str)> = labels.to_vec();
            all.push(("quantile", QUANTILES[i].0));
            registry.gauge(name, help, &all)
        });
        QuantileGauges { gauges }
    }

    /// Refreshes every gauge from the histogram's trailing windows
    /// (absent quantiles — empty histogram — publish as 0).
    pub fn publish(&self, h: &WindowedHistogram) {
        let counts = h.aggregate_buckets();
        for (gauge, &(_, q)) in self.gauges.iter().zip(QUANTILES.iter()) {
            gauge.set(quantile_from_buckets(&counts, q).unwrap_or(0.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = WindowedHistogram::new(4);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn window_count_is_clamped_to_two() {
        assert_eq!(WindowedHistogram::new(0).windows(), 2);
        assert_eq!(WindowedHistogram::new(1).windows(), 2);
        assert_eq!(WindowedHistogram::new(7).windows(), 7);
    }

    #[test]
    fn quantiles_walk_the_distribution() {
        let h = WindowedHistogram::new(3);
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        // Exact p50 = 500 (bucket (256,512]), p99 = 990 (bucket
        // (512,1024]); the estimate must land in the same bucket.
        assert!((256.0..=512.0).contains(&p50), "{p50}");
        assert!((512.0..=1024.0).contains(&p99), "{p99}");
        assert!(p50 <= p99);
    }

    #[test]
    fn rotation_ages_out_old_windows() {
        let h = WindowedHistogram::new(2);
        for _ in 0..100 {
            h.record(1_000_000);
        }
        assert!(h.quantile(0.5).unwrap() > 500_000.0);
        // Two rotations on a 2-ring recycle the slot holding the old
        // samples; only the new cheap traffic remains.
        h.rotate();
        for _ in 0..100 {
            h.record(1);
        }
        h.rotate();
        for _ in 0..10 {
            h.record(1);
        }
        assert!(h.quantile(0.999).unwrap() <= 1.0);
        assert_eq!(h.rotations(), 2);
    }

    #[test]
    fn single_value_pins_every_quantile_bucket() {
        let h = WindowedHistogram::new(4);
        h.record(42);
        for q in [0.5, 0.9, 0.99, 0.999] {
            let est = h.quantile(q).unwrap();
            assert!((32.0..=64.0).contains(&est), "q={q}: {est}");
        }
    }

    #[test]
    fn catch_all_bucket_reports_its_lower_bound() {
        let h = WindowedHistogram::new(2);
        h.record(u64::MAX);
        let est = h.quantile(0.5).unwrap();
        assert_eq!(est, (1u64 << (BUCKETS - 2)) as f64);
    }

    #[test]
    fn quantile_gauges_publish_to_registry() {
        let r = Registry::new();
        let h = WindowedHistogram::new(2);
        let q = QuantileGauges::register(&r, "lat_us", "Latency.", &[("doc_type", "HTML")]);
        for v in 1..=100u64 {
            h.record(v);
        }
        q.publish(&h);
        let text = r.prometheus_text();
        assert!(
            text.contains("lat_us{doc_type=\"HTML\",quantile=\"p50\"}"),
            "{text}"
        );
        assert!(
            text.contains("lat_us{doc_type=\"HTML\",quantile=\"p999\"}"),
            "{text}"
        );
        // p50 of 1..=100 is 50: bucket (32, 64].
        let p50_line = text
            .lines()
            .find(|l| l.contains("quantile=\"p50\""))
            .unwrap();
        let v: f64 = p50_line.split_whitespace().last().unwrap().parse().unwrap();
        assert!((32.0..=64.0).contains(&v), "{p50_line}");
    }

    #[test]
    fn record_counts_equals_recording_each_value() {
        let (one_by_one, batched) = (WindowedHistogram::new(3), WindowedHistogram::new(3));
        let values = [0u64, 1, 2, 3, 700, 701, 1 << 40, u64::MAX / 4];
        let mut buckets = [0u64; BUCKETS];
        for &v in &values {
            one_by_one.record(v);
            buckets[bucket_index(v)] += 1;
        }
        batched.record_counts(&buckets, values.iter().sum());
        assert_eq!(batched.aggregate_buckets(), one_by_one.aggregate_buckets());
        assert_eq!(batched.sum(), one_by_one.sum());
        assert_eq!(batched.count(), values.len() as u64);
        // A batch lands in the current window and ages out with it.
        batched.rotate();
        batched.rotate();
        batched.rotate();
        assert_eq!(batched.count(), 0);
    }

    #[test]
    fn concurrent_records_are_not_lost() {
        let h = WindowedHistogram::new(4);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for v in 0..10_000u64 {
                        h.record(v % 512);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
    }
}
