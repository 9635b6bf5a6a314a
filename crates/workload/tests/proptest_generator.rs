//! Property tests for the workload generator: budget exactness,
//! determinism, distribution support bounds and scaling laws.

use proptest::prelude::*;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use webcache_trace::DocumentType;
use webcache_workload::dist::{BoundedPowerLaw, LogNormal, Zipf};
use webcache_workload::temporal::place_references;
use webcache_workload::{SizeModel, TypeProfile, WorkloadProfile};

fn arb_type_profile() -> impl Strategy<Value = TypeProfile> {
    (
        1u64..300,
        0u64..900,
        0.0f64..1.5,
        0.2f64..2.0,
        0.0f64..0.2,
        0.0f64..0.2,
        0.0f64..1.0,
    )
        .prop_map(|(docs, extra, alpha, beta, modr, intr, corr)| TypeProfile {
            distinct_documents: docs,
            requests: docs + extra,
            alpha,
            beta,
            size_model: SizeModel::log_normal(8_192.0, 2_048.0, 30, 1 << 24),
            modification_rate: modr,
            interrupt_rate: intr,
            size_popularity_correlation: corr,
        })
}

/// `BoundedPowerLaw::sample` as it was before its constants were
/// precomputed: `hi`, `hi^(1−β) − 1` and `1 / (1−β)` derived on every call.
fn per_call_gap(beta: f64, max: u64, rng: &mut StdRng) -> u64 {
    let u: f64 = rng.gen();
    let hi = (max + 1) as f64;
    let x = if (beta - 1.0).abs() < 1e-9 {
        hi.powf(u)
    } else {
        let e = 1.0 - beta;
        (1.0 + u * (hi.powf(e) - 1.0)).powf(1.0 / e)
    };
    (x.floor() as u64).clamp(1, max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The generator hits the request and document budgets exactly, for
    /// any valid profile.
    #[test]
    fn budgets_are_exact(
        tp_a in arb_type_profile(),
        tp_b in arb_type_profile(),
        seed in 0u64..1_000,
    ) {
        let mut profile = WorkloadProfile::empty("prop");
        profile.types[DocumentType::Image] = tp_a;
        profile.types[DocumentType::Application] = tp_b;
        let trace = profile.build_trace(seed);
        prop_assert_eq!(trace.len() as u64, profile.total_requests());
        prop_assert_eq!(trace.distinct_documents() as u64, profile.total_documents());
        let by_type = trace.requests_by_type();
        prop_assert_eq!(by_type[DocumentType::Image], tp_a.requests);
        prop_assert_eq!(by_type[DocumentType::Application], tp_b.requests);
    }

    /// Same seed, same trace; the generator is a pure function.
    #[test]
    fn generation_is_deterministic(tp in arb_type_profile(), seed in 0u64..100) {
        let mut profile = WorkloadProfile::empty("prop");
        profile.types[DocumentType::Html] = tp;
        prop_assert_eq!(profile.build_trace(seed), profile.build_trace(seed));
    }

    /// Scaling preserves the per-type request proportions (within
    /// rounding) and never produces requests < documents.
    #[test]
    fn scaling_is_proportional(factor_denom in 1.0f64..64.0) {
        let p = WorkloadProfile::dfn().scaled(1.0 / factor_denom);
        p.validate();
        let full = WorkloadProfile::dfn();
        for (ty, tp) in p.types.iter() {
            let orig = &full.types[ty];
            prop_assert!(tp.requests >= tp.distinct_documents);
            let want = orig.requests as f64 / factor_denom;
            prop_assert!(
                (tp.requests as f64 - want).abs() <= want * 0.01 + tp.distinct_documents as f64,
                "{ty}: scaled requests {} vs expected {want}", tp.requests
            );
        }
    }

    /// Zipf samples stay in range and the first rank is modal for α > 0.
    #[test]
    fn zipf_support(n in 2usize..500, alpha in 0.0f64..2.0, seed in 0u64..50) {
        let z = Zipf::new(n, alpha);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let r = z.sample(&mut rng);
            prop_assert!((1..=n).contains(&r));
        }
        // PMF is non-increasing in rank.
        for r in 1..n {
            prop_assert!(z.pmf(r) >= z.pmf(r + 1) - 1e-15);
        }
    }

    /// Log-normal samples respect their support.
    #[test]
    fn size_distributions_support(seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ln = LogNormal::from_mean_median(10_000.0, 2_500.0);
        for _ in 0..100 {
            prop_assert!(ln.sample(&mut rng) > 0.0);
        }
    }

    /// Power-law gaps respect their bounds for any β and max.
    #[test]
    fn powerlaw_support(beta in 0.1f64..3.5, max in 1u64..100_000, seed in 0u64..50) {
        let d = BoundedPowerLaw::new(beta, max);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let g = d.sample(&mut rng);
            prop_assert!((1..=max).contains(&g));
        }
    }

    /// Precomputing the inverse CDF's constants moves no draw: from
    /// identical RNG states, `sample` returns the gap the per-call formula
    /// returns, at β = 1 exactly and across β's range.
    #[test]
    fn powerlaw_matches_the_per_call_formula(
        beta in prop_oneof![Just(1.0), 0.1f64..3.5],
        max in 1u64..10_000_000,
        seed in 0u64..u64::MAX,
    ) {
        let d = BoundedPowerLaw::new(beta, max);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert_eq!(d.sample(&mut rng), per_call_gap(beta, max, &mut reference));
        }
    }

    /// Reference placement yields exactly `count` strictly increasing
    /// positions within the horizon.
    #[test]
    fn placement_is_sorted_and_bounded(
        count in 0u64..500,
        horizon in 1.0f64..1e7,
        beta in 0.2f64..2.5,
        seed in 0u64..50,
    ) {
        let gaps = BoundedPowerLaw::new(beta, 10_000);
        let mut rng = StdRng::seed_from_u64(seed);
        let pos = place_references(&mut rng, count, horizon, &gaps);
        prop_assert_eq!(pos.len(), count as usize);
        for w in pos.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        for &p in &pos {
            prop_assert!((0.0..horizon).contains(&p));
        }
    }

    /// SizeModel samples always honour the clamp bounds.
    #[test]
    fn size_model_clamps(
        min in 30u64..1_000,
        extra in 1u64..1_000_000,
        seed in 0u64..50,
    ) {
        let max = min + extra;
        // Keep mean/median within the clamp so the model is sensible.
        let median = (min + extra / 4).max(31) as f64;
        let mean = median * 2.0;
        let m = SizeModel::log_normal(mean, median, min, max);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let s = m.sample(&mut rng).as_u64();
            prop_assert!((min..=max).contains(&s));
        }
    }
}

mod mix_props {
    use proptest::prelude::*;
    use webcache_trace::{DocumentType, TypeMap};
    use webcache_workload::{blend, shift_mix, WorkloadProfile};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// blend() produces valid profiles at any t and interpolates
        /// every per-type request budget monotonically.
        #[test]
        fn blend_is_valid_and_monotone(t in 0.0f64..=1.0) {
            let dfn = WorkloadProfile::dfn();
            let rtp = WorkloadProfile::rtp();
            let mid = blend(&dfn, &rtp, t);
            mid.validate();
            for ty in DocumentType::ALL {
                let (a, b) = (dfn.types[ty].requests, rtp.types[ty].requests);
                let (lo, hi) = (a.min(b), a.max(b));
                prop_assert!(
                    (lo..=hi).contains(&mid.types[ty].requests),
                    "{ty} at t={t}"
                );
            }
        }

        /// shift_mix keeps total volume within 1% and always yields a
        /// valid profile, for any target mix and blend factor.
        #[test]
        fn shift_mix_is_volume_preserving(
            weights in prop::collection::vec(0.01f64..1.0, 5),
            t in 0.0f64..=1.0,
        ) {
            let total: f64 = weights.iter().sum();
            let mut target: TypeMap<f64> = TypeMap::default();
            for (ty, w) in DocumentType::ALL.iter().zip(&weights) {
                target[*ty] = w / total;
            }
            let dfn = WorkloadProfile::dfn().scaled(1.0 / 256.0);
            let shifted = shift_mix(&dfn, &target, t);
            shifted.validate();
            let ratio = shifted.total_requests() as f64 / dfn.total_requests() as f64;
            prop_assert!((ratio - 1.0).abs() < 0.01, "volume ratio {ratio}");
        }
    }
}
