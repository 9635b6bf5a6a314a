//! Bounded Zipf-like distribution over ranks `1..=n`.

use rand::Rng;

/// A Zipf-like law: `P(rank = ρ) ∝ ρ^−α` for ρ in `1..=n`.
///
/// Sampling uses inverse-CDF lookup over a precomputed cumulative table,
/// numerically exact for any α ≥ 0 (α = 0 degenerates to the uniform
/// distribution). A guide table splits `[0, 1)` into `n` equal buckets and
/// records, per bucket, the first CDF entry that falls in it or above, so
/// a draw binary-searches only the few entries of its own bucket: `O(n)`
/// construction, `O(1)` expected work per sample.
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use webcache_workload::dist::Zipf;
///
/// let zipf = Zipf::new(100, 1.0);
/// let mut rng = StdRng::seed_from_u64(1);
/// let rank = zipf.sample(&mut rng);
/// assert!((1..=100).contains(&rank));
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative probabilities; `cdf[i]` = P(rank ≤ i+1).
    cdf: Vec<f64>,
    /// `guide[j]` = the first `i` with `bucket(cdf[i]) >= j`, or `n` when
    /// there is none, for `j` in `0..=n + 1`.
    guide: Vec<u32>,
    alpha: f64,
}

impl Zipf {
    /// Creates a Zipf distribution over `1..=n` with exponent `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or above `u32::MAX`, or `alpha` is negative or
    /// not finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            u32::try_from(n).is_ok(),
            "Zipf supports at most u32::MAX ranks"
        );
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "Zipf exponent must be finite and non-negative, got {alpha}"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // The bucket map `bucket(x) = (x · n) as usize` is monotone, so the
        // CDF entries fall into non-decreasing buckets and one sweep fills
        // the guide.
        let mut guide = Vec::with_capacity(n + 2);
        let mut i = 0;
        for j in 0..=n + 1 {
            while i < n && bucket(cdf[i], n) < j {
                i += 1;
            }
            guide.push(i as u32);
        }
        Zipf { cdf, guide, alpha }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the distribution is over an empty support (never true).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The configured exponent α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Probability of the given rank (1-based).
    ///
    /// # Panics
    ///
    /// Panics when `rank` is out of `1..=n`.
    pub fn pmf(&self, rank: usize) -> f64 {
        assert!((1..=self.cdf.len()).contains(&rank), "rank out of range");
        let hi = self.cdf[rank - 1];
        let lo = if rank >= 2 { self.cdf[rank - 2] } else { 0.0 };
        hi - lo
    }

    /// Draws a rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank_of(rng.gen())
    }

    /// The rank whose CDF step holds `u`, for `u` in `[0, 1)`: one more
    /// than the index of the first cdf entry ≥ `u` (the last rank when
    /// rounding leaves every entry below `u`).
    ///
    /// Entries before `guide[j]` map to buckets below `j = bucket(u)`, so
    /// by monotonicity each is < `u`; the entry at `guide[j + 1]` maps
    /// above `j`, so it is > `u`. The first entry ≥ `u` therefore lies in
    /// `guide[j]..=guide[j + 1]`, and searching that range alone finds the
    /// index a search of the whole table finds.
    fn rank_of(&self, u: f64) -> usize {
        let j = bucket(u, self.cdf.len());
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        // partition_point returns the count of elements < u, i.e. the
        // offset of the first entry ≥ u within the bucket's range.
        let idx = lo + self.cdf[lo..hi].partition_point(|&c| c < u);
        idx.min(self.cdf.len() - 1) + 1
    }
}

/// The guide-table bucket of a probability `x` in `[0, 1]` for `n` ranks:
/// `(x·n) as usize`, in `0..=n` and monotone in `x`.
fn bucket(x: f64, n: usize) -> usize {
    (x * n as f64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(50, 0.8);
        let total: f64 = (1..=50).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pmf_follows_power_law() {
        let z = Zipf::new(1000, 1.2);
        let ratio = z.pmf(1) / z.pmf(10);
        assert!((ratio - 10f64.powf(1.2)).abs() / ratio < 1e-9);
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for r in 1..=10 {
            assert!((z.pmf(r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn samples_match_pmf() {
        let z = Zipf::new(20, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let mut counts = [0u64; 21];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for r in [1usize, 2, 5, 10, 20] {
            let observed = counts[r] as f64 / n as f64;
            let expected = z.pmf(r);
            assert!(
                (observed - expected).abs() < 0.01,
                "rank {r}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn single_rank_always_sampled() {
        let z = Zipf::new(1, 2.0);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 1);
        }
        assert_eq!(z.len(), 1);
        assert!(!z.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_alpha_rejected() {
        let _ = Zipf::new(10, -0.5);
    }

    #[test]
    #[should_panic(expected = "at most u32::MAX ranks")]
    fn ranks_beyond_the_guide_index_rejected() {
        let _ = Zipf::new(u32::MAX as usize + 1, 1.0);
    }

    /// The sampler before the guide table: a binary search over the
    /// whole cumulative table.
    fn full_table_rank(z: &Zipf, u: f64) -> usize {
        z.cdf.partition_point(|&c| c < u).min(z.cdf.len() - 1) + 1
    }

    #[test]
    fn guide_table_rank_equals_a_full_table_search() {
        // α = 2 flattens the tail into plateaus of equal cdf entries.
        for n in [1usize, 2, 3, 7, 1000, 65_537] {
            for alpha in [0.0, 0.45, 0.85, 2.0] {
                let z = Zipf::new(n, alpha);
                let mut probes = vec![0.0, 1.0f64.next_down()];
                for &c in &z.cdf {
                    probes.extend([c.next_down(), c, c.next_up()]);
                }
                // Draws come from [0, 1).
                for u in probes.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                    assert_eq!(
                        z.rank_of(u),
                        full_table_rank(&z, u),
                        "n = {n}, α = {alpha}, u = {u:e}"
                    );
                }
            }
        }
    }
}
