//! Property tests for the statistics substrate: descriptive invariants,
//! regression laws and estimator recovery.

use proptest::prelude::*;

use webcache_stats::correlation::GapHistogram;
use webcache_stats::descriptive::{median, quantile_sorted};
use webcache_stats::popularity::alpha_from_counts;
use webcache_stats::regression::{fit_line, fit_power_law};
use webcache_stats::Summary;

proptest! {
    /// Summary statistics respect their defining inequalities.
    #[test]
    fn summary_invariants(samples in prop::collection::vec(0.0f64..1e9, 1..500)) {
        let s = Summary::from_samples(&samples);
        prop_assert_eq!(s.count, samples.len());
        prop_assert!(s.min <= s.median && s.median <= s.max);
        prop_assert!(s.min <= s.mean && s.mean <= s.max + 1e-9);
        prop_assert!(s.std_dev >= 0.0);
        prop_assert!(s.cov() >= 0.0);
    }

    /// Shifting all samples shifts mean/median and leaves std_dev alone.
    #[test]
    fn summary_shift_equivariance(
        samples in prop::collection::vec(0.0f64..1e6, 2..100),
        shift in 0.0f64..1e6,
    ) {
        let a = Summary::from_samples(&samples);
        let shifted: Vec<f64> = samples.iter().map(|x| x + shift).collect();
        let b = Summary::from_samples(&shifted);
        prop_assert!((b.mean - a.mean - shift).abs() < 1e-6 * (1.0 + a.mean + shift));
        prop_assert!((b.median - a.median - shift).abs() < 1e-6 * (1.0 + a.median + shift));
        prop_assert!((b.std_dev - a.std_dev).abs() < 1e-6 * (1.0 + a.std_dev));
    }

    /// Quantiles are monotone in q and bounded by the extremes.
    #[test]
    fn quantiles_are_monotone(
        mut samples in prop::collection::vec(0.0f64..1e9, 1..200),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        samples.sort_by(|a, b| a.total_cmp(b));
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let vlo = quantile_sorted(&samples, lo);
        let vhi = quantile_sorted(&samples, hi);
        prop_assert!(vlo <= vhi);
        prop_assert!(samples[0] <= vlo && vhi <= samples[samples.len() - 1]);
    }

    /// The median of any sample lies between its extremes.
    #[test]
    fn median_bounds(samples in prop::collection::vec(-1e9f64..1e9, 1..100)) {
        let m = median(&samples);
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(min <= m && m <= max);
    }

    /// fit_line recovers exact lines (through noise-free points).
    #[test]
    fn fit_line_recovers_exact_lines(
        slope in -100.0f64..100.0,
        intercept in -1000.0f64..1000.0,
        xs in prop::collection::btree_set(-1000i32..1000, 2..50),
    ) {
        let points: Vec<(f64, f64)> = xs
            .iter()
            .map(|&x| (x as f64, slope * x as f64 + intercept))
            .collect();
        let fit = fit_line(&points).unwrap();
        prop_assert!((fit.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        prop_assert!((fit.intercept - intercept).abs() < 1e-4 * (1.0 + intercept.abs()));
        prop_assert!(fit.r_squared > 1.0 - 1e-9);
    }

    /// fit_power_law recovers exponents of exact power laws.
    #[test]
    fn power_law_recovery(exponent in -3.0f64..-0.1, scale in 0.1f64..100.0) {
        let points: Vec<(f64, f64)> = (1..200)
            .map(|i| {
                let x = i as f64;
                (x, scale * x.powf(exponent))
            })
            .collect();
        let fit = fit_power_law(&points).unwrap();
        prop_assert!((fit.slope - exponent).abs() < 1e-6);
    }

    /// The α estimator recovers synthetic Zipf slopes within tolerance
    /// and is permutation-invariant.
    #[test]
    fn alpha_estimator_recovers_zipf(target in 0.4f64..1.4, n in 500usize..3000) {
        let counts: Vec<u64> = (1..=n)
            .map(|r| ((1e6 * (r as f64).powf(-target)).round() as u64).max(1))
            .collect();
        let alpha = alpha_from_counts(&counts).unwrap();
        prop_assert!(
            (alpha - target).abs() < 0.25,
            "target {target}, estimated {alpha}"
        );
    }

    /// The β estimator is scale-free: multiplying all gaps by a constant
    /// leaves the estimate (approximately) unchanged.
    #[test]
    fn beta_estimator_is_scale_free(
        gaps in prop::collection::vec(1u64..4096, 200..2000),
        factor in prop::sample::select(vec![2u64, 4, 8]),
    ) {
        let mut a = GapHistogram::new();
        let mut b = GapHistogram::new();
        for &g in &gaps {
            a.record(g);
            b.record(g * factor);
        }
        // Scaling can merge everything into fewer buckets, in which case
        // one side has no estimate; that's fine.
        if let (Some(ba), Some(bb)) = (a.beta(), b.beta()) {
            prop_assert!(
                (ba - bb).abs() < 0.4,
                "beta changed under scaling: {ba} vs {bb}"
            );
        }
    }

    /// Histogram merge is equivalent to recording the union.
    #[test]
    fn histogram_merge_is_union(
        xs in prop::collection::vec(1u64..100_000, 1..200),
        ys in prop::collection::vec(1u64..100_000, 1..200),
    ) {
        let mut a = GapHistogram::new();
        for &x in &xs { a.record(x); }
        let mut b = GapHistogram::new();
        for &y in &ys { b.record(y); }
        a.merge(&b);
        let mut both = GapHistogram::new();
        for &v in xs.iter().chain(ys.iter()) { both.record(v); }
        prop_assert_eq!(a, both);
    }
}

mod locality_props {
    use proptest::prelude::*;
    use webcache_stats::concentration::Concentration;
    use webcache_stats::StackDistances;
    use webcache_trace::{DenseTrace, DocumentType};

    fn trace_of(docs: &[u64]) -> DenseTrace {
        DenseTrace::from_requests(docs.iter().map(|&d| (d, 1, DocumentType::Html)))
    }

    proptest! {
        /// The concentration curve is monotone, bounded and anchored at
        /// (0, 0) and (1, 1) for any stream.
        #[test]
        fn concentration_curve_laws(docs in prop::collection::vec(0u64..50, 1..400)) {
            let c = Concentration::measure(&trace_of(&docs), None);
            let curve = c.curve(10);
            prop_assert_eq!(curve[0], (0.0, 0.0));
            let (x_last, y_last) = curve[curve.len() - 1];
            prop_assert_eq!(x_last, 1.0);
            prop_assert!((y_last - 1.0).abs() < 1e-12);
            for w in curve.windows(2) {
                prop_assert!(w[1].1 >= w[0].1 - 1e-12);
            }
        }

        /// The hit-rate ceiling equals 1 - distinct/requests, and the
        /// one-timer request share never exceeds the miss floor.
        #[test]
        fn ceiling_and_one_timers(docs in prop::collection::vec(0u64..50, 1..400)) {
            let t = trace_of(&docs);
            let c = Concentration::measure(&t, None);
            let expected = 1.0 - t.distinct_documents() as f64 / t.len() as f64;
            prop_assert!((c.hit_rate_ceiling() - expected).abs() < 1e-12);
            prop_assert!(c.one_timer_request_share() <= 1.0 - c.hit_rate_ceiling() + 1e-12);
        }

        /// Stack distances: cold + re-references = total, the LRU
        /// hit-rate curve is monotone in capacity, and the infinite-
        /// capacity hit rate equals the concentration ceiling.
        #[test]
        fn stack_distance_laws(docs in prop::collection::vec(0u64..40, 1..400)) {
            let t = trace_of(&docs);
            let s = StackDistances::measure(&t, None);
            let rerefs: u64 = (0..=s.max_distance()).map(|d| s.at(d)).sum();
            prop_assert_eq!(s.cold_references() + rerefs, s.total());
            let mut last = 0.0;
            for cap in [0usize, 1, 2, 4, 8, 16, 64, 1024] {
                let hr = s.lru_hit_rate(cap);
                prop_assert!(hr >= last - 1e-12);
                last = hr;
            }
            let ceiling = Concentration::measure(&t, None).hit_rate_ceiling();
            prop_assert!((s.lru_hit_rate(100_000) - ceiling).abs() < 1e-12);
        }

        /// The fast Fenwick implementation agrees with an explicit LRU
        /// stack on arbitrary streams.
        #[test]
        fn stack_distance_matches_naive(docs in prop::collection::vec(0u64..25, 1..200)) {
            let fast = StackDistances::measure(&trace_of(&docs), None);
            let mut stack: Vec<u64> = Vec::new();
            let mut cold = 0u64;
            let mut hist: Vec<u64> = Vec::new();
            for &d in &docs {
                match stack.iter().position(|&x| x == d) {
                    None => cold += 1,
                    Some(pos) => {
                        let dist = pos + 1;
                        if hist.len() <= dist {
                            hist.resize(dist + 1, 0);
                        }
                        hist[dist] += 1;
                        stack.remove(pos);
                    }
                }
                stack.insert(0, d);
            }
            prop_assert_eq!(fast.cold_references(), cold);
            for d in 0..hist.len().max(fast.max_distance() + 1) {
                prop_assert_eq!(fast.at(d), hist.get(d).copied().unwrap_or(0));
            }
        }
    }
}
