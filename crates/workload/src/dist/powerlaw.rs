//! Discrete bounded power law — inter-reference gap distribution.

use rand::Rng;

/// A discrete power law over `1..=max`: `P(n) ∝ n^−β` (approximately).
///
/// This is the generative counterpart of the temporal-correlation law the
/// paper measures: the probability that a document is requested again
/// after `n` intervening requests is proportional to `n^−β` for equally
/// popular documents.
///
/// Sampling draws from the continuous density `x^−β` on `[1, max+1)` by
/// inverse CDF and floors the result — `O(1)` per sample with no lookup
/// table, and the log-log slope (the only property the study depends on)
/// is preserved exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPowerLaw {
    beta: f64,
    max: u64,
    /// `max + 1`, the upper end of the continuous support.
    hi: f64,
    /// `hi^(1−β) − 1`, the inverse CDF's scale (unused at β = 1).
    span: f64,
    /// `1 / (1−β)`, the inverse CDF's exponent (unused at β = 1).
    inv_e: f64,
}

impl BoundedPowerLaw {
    /// Creates a power law with exponent `beta > 0` over `1..=max`.
    ///
    /// # Panics
    ///
    /// Panics unless `beta` is positive and finite and `max ≥ 1`.
    pub fn new(beta: f64, max: u64) -> Self {
        assert!(
            beta.is_finite() && beta > 0.0,
            "β must be positive and finite, got {beta}"
        );
        assert!(max >= 1, "max gap must be at least 1");
        let hi = (max + 1) as f64;
        let e = 1.0 - beta;
        BoundedPowerLaw {
            beta,
            max,
            hi,
            span: hi.powf(e) - 1.0,
            inv_e: 1.0 / e,
        }
    }

    /// The exponent β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The largest producible gap.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Draws one gap in `1..=max`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let x = if (self.beta - 1.0).abs() < 1e-9 {
            // β = 1: F(x) = ln x / ln hi  ⇒  x = hi^u.
            self.hi.powf(u)
        } else {
            // F(x) = (x^(1−β) − 1) / (hi^(1−β) − 1).
            (1.0 + u * self.span).powf(self.inv_e)
        };
        (x.floor() as u64).clamp(1, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Measures the realized log-log slope of a gap sample using base-2
    /// bucket densities (mirror of the estimator in webcache-stats).
    fn realized_slope(samples: &[u64]) -> f64 {
        let mut buckets = [0u64; 40];
        for &g in samples {
            buckets[(63 - g.max(1).leading_zeros()) as usize] += 1;
        }
        let total = samples.len() as f64;
        let pts: Vec<(f64, f64, f64)> = buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| {
                let width = (1u64 << b) as f64;
                (
                    (1.5 * width).ln(),
                    (c as f64 / (total * width)).ln(),
                    c as f64,
                )
            })
            .collect();
        let wsum: f64 = pts.iter().map(|p| p.2).sum();
        let mx = pts.iter().map(|p| p.0 * p.2).sum::<f64>() / wsum;
        let my = pts.iter().map(|p| p.1 * p.2).sum::<f64>() / wsum;
        let sxy: f64 = pts.iter().map(|p| p.2 * (p.0 - mx) * (p.1 - my)).sum();
        let sxx: f64 = pts.iter().map(|p| p.2 * (p.0 - mx).powi(2)).sum();
        sxy / sxx
    }

    #[test]
    fn samples_stay_in_bounds() {
        let d = BoundedPowerLaw::new(1.5, 1000);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let g = d.sample(&mut rng);
            assert!((1..=1000).contains(&g));
        }
    }

    #[test]
    fn realized_slope_matches_beta() {
        let mut rng = StdRng::seed_from_u64(4);
        for beta in [0.6, 1.0, 1.5, 2.0] {
            let d = BoundedPowerLaw::new(beta, (1 << 14) - 1);
            let samples: Vec<u64> = (0..60_000).map(|_| d.sample(&mut rng)).collect();
            let slope = -realized_slope(&samples);
            assert!((slope - beta).abs() < 0.25, "β = {beta}, realized {slope}");
        }
    }

    #[test]
    fn larger_beta_means_shorter_gaps() {
        let mut rng = StdRng::seed_from_u64(6);
        let short = BoundedPowerLaw::new(2.0, 10_000);
        let long = BoundedPowerLaw::new(0.6, 10_000);
        let mean = |d: &BoundedPowerLaw, rng: &mut StdRng| {
            (0..20_000).map(|_| d.sample(rng)).sum::<u64>() as f64 / 20_000.0
        };
        assert!(mean(&short, &mut rng) * 5.0 < mean(&long, &mut rng));
    }

    #[test]
    fn max_one_always_returns_one() {
        let d = BoundedPowerLaw::new(1.0, 1);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 1);
        }
    }

    #[test]
    fn accessors() {
        let d = BoundedPowerLaw::new(0.9, 77);
        assert_eq!(d.beta(), 0.9);
        assert_eq!(d.max(), 77);
    }

    #[test]
    #[should_panic(expected = "β must be positive")]
    fn non_positive_beta_rejected() {
        let _ = BoundedPowerLaw::new(-1.0, 10);
    }

    #[test]
    #[should_panic(expected = "max gap")]
    fn zero_max_rejected() {
        let _ = BoundedPowerLaw::new(1.0, 0);
    }
}
