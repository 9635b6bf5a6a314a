//! Temporal placement of a document's references.
//!
//! The generator controls temporal correlation by drawing the gaps
//! between successive references to a document from a bounded power law
//! `P(n) ∝ n^−β` (see [`BoundedPowerLaw`]) and laying the references out
//! on a continuous position axis `[0, horizon)`, where `horizon` equals
//! the total number of requests. After all documents' references are
//! merged and sorted, one unit of the axis holds one request on average,
//! so the realized inter-reference *request* gaps follow the same
//! power-law slope.
//!
//! When a document's gap chain would overshoot the horizon it is scaled
//! down multiplicatively. A power law is scale-invariant — multiplying
//! every gap by a constant shifts the log-log line without changing its
//! slope — so the correction does not bias β.

use rand::Rng;

use crate::dist::BoundedPowerLaw;

/// Draws `count` reference positions in `[0, horizon)` whose successive
/// gaps follow `gaps`, sorted ascending.
///
/// # Panics
///
/// Panics if `horizon` is not positive and finite.
pub fn place_references<R: Rng + ?Sized>(
    rng: &mut R,
    count: u64,
    horizon: f64,
    gaps: &BoundedPowerLaw,
) -> Vec<f64> {
    let mut positions = vec![0.0; count as usize];
    place_into(rng, horizon, gaps, &mut positions, |p| p);
    positions
}

/// Writes the positions [`place_references`] draws for `refs.len()`
/// references, one into each item of `refs` through `position`, with the
/// same random draws. The gap chain's offsets are written first and then
/// rescaled in place, so the caller's storage is the only buffer.
///
/// # Panics
///
/// Panics if `horizon` is not positive and finite.
pub(crate) fn place_into<R: Rng + ?Sized, T>(
    rng: &mut R,
    horizon: f64,
    gaps: &BoundedPowerLaw,
    refs: &mut [T],
    position: impl Fn(&mut T) -> &mut f64,
) {
    assert!(
        horizon.is_finite() && horizon > 0.0,
        "horizon must be positive, got {horizon}"
    );
    match &mut *refs {
        [] => {}
        [only] => *position(only) = rng.gen::<f64>() * horizon,
        [first, rest @ ..] => {
            let mut acc = 0.0;
            *position(first) = 0.0;
            for r in rest.iter_mut() {
                acc += gaps.sample(rng) as f64;
                *position(r) = acc;
            }
            let span = acc;
            // Leave the chain unscaled whenever it fits somewhere in the
            // horizon; otherwise compress it to 90% of the horizon.
            let scale = if span < horizon * 0.9 {
                1.0
            } else {
                horizon * 0.9 / span
            };
            let start = rng.gen::<f64>() * (horizon - span * scale).max(f64::MIN_POSITIVE);
            for r in refs.iter_mut() {
                let o = position(r);
                *o = start + *o * scale;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn law() -> BoundedPowerLaw {
        BoundedPowerLaw::new(1.2, 1000)
    }

    #[test]
    fn counts_and_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(place_references(&mut rng, 0, 100.0, &law()).is_empty());
        for k in [1u64, 2, 17, 300] {
            let pos = place_references(&mut rng, k, 10_000.0, &law());
            assert_eq!(pos.len(), k as usize);
            assert!(pos.iter().all(|&p| (0.0..10_000.0).contains(&p)), "k={k}");
        }
    }

    #[test]
    fn positions_are_sorted_strictly() {
        let mut rng = StdRng::seed_from_u64(2);
        let pos = place_references(&mut rng, 500, 1e6, &law());
        for w in pos.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn long_chains_are_compressed_to_fit() {
        let mut rng = StdRng::seed_from_u64(3);
        // 1000 references with gaps up to 1000 into a tiny horizon.
        let pos = place_references(&mut rng, 1000, 50.0, &law());
        assert_eq!(pos.len(), 1000);
        assert!(pos.iter().all(|&p| (0.0..50.0).contains(&p)));
    }

    #[test]
    fn scaling_preserves_gap_ratios() {
        // Same seed: the compressed chain's gap ratios equal the
        // uncompressed chain's (multiplicative scaling only).
        let a = place_references(&mut StdRng::seed_from_u64(9), 100, 1e9, &law());
        let b = place_references(&mut StdRng::seed_from_u64(9), 100, 40.0, &law());
        let ratios = |v: &[f64]| -> Vec<f64> {
            v.windows(2)
                .map(|w| w[1] - w[0])
                .collect::<Vec<_>>()
                .windows(2)
                .map(|g| g[1] / g[0])
                .collect()
        };
        for (ra, rb) in ratios(&a).iter().zip(ratios(&b).iter()) {
            assert!((ra - rb).abs() < 1e-6, "{ra} vs {rb}");
        }
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn rejects_bad_horizon() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = place_references(&mut rng, 3, 0.0, &law());
    }
}
