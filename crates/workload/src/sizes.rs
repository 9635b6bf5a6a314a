//! Per-type document-size models.

use rand::Rng;
use serde::{Deserialize, Serialize};

use webcache_trace::ByteSize;

use crate::dist::LogNormal;

/// A log-normal document-size distribution with hard clamping bounds,
/// calibrated directly from the mean and median the paper reports per
/// document type (Tables 4/5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SizeModel {
    /// Target mean size in bytes.
    pub mean: f64,
    /// Target median size in bytes.
    pub median: f64,
    /// Smallest generated size in bytes.
    pub min: u64,
    /// Largest generated size in bytes.
    pub max: u64,
}

impl SizeModel {
    /// Log-normal model with conventional web-document clamping bounds.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < median ≤ mean` and `min < max`.
    pub fn log_normal(mean: f64, median: f64, min: u64, max: u64) -> Self {
        assert!(min < max, "need min < max clamp bounds");
        // Validate the calibration eagerly.
        let _ = LogNormal::from_mean_median(mean, median);
        SizeModel {
            mean,
            median,
            min,
            max,
        }
    }

    /// Draws one document size.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> ByteSize {
        let raw = LogNormal::from_mean_median(self.mean, self.median).sample(rng);
        ByteSize::new((raw.round() as u64).clamp(self.min, self.max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lognormal_sample_statistics() {
        let m = SizeModel::log_normal(10_000.0, 3_000.0, 30, 100_000_000);
        let mut rng = StdRng::seed_from_u64(21);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| m.sample(&mut rng).as_f64()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean / 10_000.0 - 1.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn clamping_is_enforced() {
        let m = SizeModel::log_normal(10_000.0, 3_000.0, 5_000, 20_000);
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..5_000 {
            let s = m.sample(&mut rng).as_u64();
            assert!((5_000..=20_000).contains(&s));
        }
    }

    #[test]
    #[should_panic(expected = "min < max")]
    fn inverted_bounds_rejected() {
        let _ = SizeModel::log_normal(10.0, 5.0, 100, 100);
    }
}
