//! GreedyDual\* (Jin & Bestavros).
//!
//! GD\* refines GreedyDual-Size by exploiting *both* sources of temporal
//! locality in web request streams: long-term popularity (the in-cache
//! reference count `f(p)`) and short-term temporal correlation (the
//! workload parameter β). Each cached document carries
//!
//! ```text
//! H(p) = L + ( f(p) · c(p) / s(p) )^(1/β)
//! ```
//!
//! with the same `L`-inflation aging as GDS. The exponent `1/β` controls
//! the *rate of aging*: workloads with strong short-term correlation
//! (large β) flatten the value differences, making the scheme behave more
//! recency-like, while weakly correlated workloads (small β) amplify them,
//! making it behave more value-like.
//!
//! The novel feature of GD\* is that `f(p)` and β can be maintained
//! **online**: this module ships a [`BetaEstimator`] that fits the
//! inter-reference gap distribution on a log-log scale from a windowed
//! histogram, exactly how the workload characterization measures β
//! offline. A fixed β can be configured instead via [`BetaMode::Fixed`]
//! (used by the β ablation experiment).

use serde::{Deserialize, Serialize};

use webcache_obs::Reason;
use webcache_trace::{ByteSize, DocumentType, TypeMap};

use super::{GdsfRule, KeyRule, KeyedPolicy};
use crate::cost::CostModel;

/// How GD\* obtains the temporal-correlation exponent β.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BetaMode {
    /// Use a constant β for the whole run.
    Fixed(f64),
    /// Estimate β online from observed inter-reference gaps.
    Adaptive {
        /// β assumed before enough samples accumulate.
        initial: f64,
        /// Re-fit the estimate every this many gap samples.
        refresh_interval: u64,
    },
    /// Estimate a *separate* β per document type — the extension
    /// suggested by the paper's Section 4.4 analysis, which attributes
    /// GD\*'s RTP losses to per-type β values "much bigger than the
    /// overall slope ... dominated by the slope of image documents".
    AdaptivePerType {
        /// β assumed for each type before enough samples accumulate.
        initial: f64,
        /// Re-fit a type's estimate every this many of its gap samples.
        refresh_interval: u64,
    },
}

impl Default for BetaMode {
    /// Adaptive estimation starting from β = 1 (the GDSF special case),
    /// re-fitted every 10 000 gap samples.
    fn default() -> Self {
        BetaMode::Adaptive {
            initial: 1.0,
            refresh_interval: 10_000,
        }
    }
}

/// Online estimator of the temporal-correlation slope β.
///
/// Maintains a base-2 log-bucketed histogram of inter-reference gaps
/// (measured in requests) and fits `log P(gap) = −β·log gap + const` by
/// least squares over the non-empty buckets, using each bucket's count
/// density. β is clamped to `[0.05, 4.0]`.
///
/// ```
/// use webcache_core::policy::BetaEstimator;
///
/// let mut est = BetaEstimator::new();
/// // Strongly correlated stream: most re-references arrive immediately.
/// for gap in [1u64, 1, 1, 1, 2, 2, 4, 8] {
///     est.sample(gap);
/// }
/// assert!(est.estimate().unwrap() > 0.4);
/// ```
#[derive(Debug, Clone)]
pub struct BetaEstimator {
    /// `buckets[b]` counts gaps in `[2^b, 2^(b+1))`.
    buckets: [u64; 40],
    samples: u64,
}

impl Default for BetaEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl BetaEstimator {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        BetaEstimator {
            buckets: [0; 40],
            samples: 0,
        }
    }

    /// Records one inter-reference gap (in requests, ≥ 1).
    pub fn sample(&mut self, gap: u64) {
        let gap = gap.max(1);
        let bucket = (63 - gap.leading_zeros()) as usize; // floor(log2 gap)
        let bucket = bucket.min(self.buckets.len() - 1);
        self.buckets[bucket] += 1;
        self.samples += 1;
    }

    /// Number of gaps recorded so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Fits β. Returns `None` until at least two distinct histogram
    /// buckets are populated (a slope needs two points).
    pub fn estimate(&self) -> Option<f64> {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (b, &count) in self.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let width = (1u64 << b) as f64;
            let center = 1.5 * width;
            // Density: probability mass per unit gap.
            let density = count as f64 / (self.samples as f64 * width);
            xs.push(center.ln());
            ys.push(density.ln());
        }
        if xs.len() < 2 {
            return None;
        }
        // Weighted least squares, weighting each bucket by its sample
        // count: sparse tail buckets (often only partially covered by the
        // workload's maximum gap) carry little evidence and should not
        // steer the slope.
        let ws: Vec<f64> = self
            .buckets
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| c as f64)
            .collect();
        let wsum: f64 = ws.iter().sum();
        let mx = xs.iter().zip(&ws).map(|(x, w)| x * w).sum::<f64>() / wsum;
        let my = ys.iter().zip(&ws).map(|(y, w)| y * w).sum::<f64>() / wsum;
        let sxy: f64 = xs
            .iter()
            .zip(&ys)
            .zip(&ws)
            .map(|((x, y), w)| w * (x - mx) * (y - my))
            .sum();
        let sxx: f64 = xs.iter().zip(&ws).map(|(x, w)| w * (x - mx).powi(2)).sum();
        if sxx == 0.0 {
            return None;
        }
        let slope = sxy / sxx;
        Some((-slope).clamp(0.05, 4.0))
    }

    /// Drops all recorded samples (used when windowing).
    pub fn reset(&mut self) {
        *self = BetaEstimator::new();
    }
}

/// Per-document GD\* state. The size is not kept: the cache passes it
/// into every hook.
#[derive(Debug, Clone, Copy, Default)]
pub struct DocState {
    /// Document class (drives per-type β when enabled).
    ty: DocumentType,
    /// In-cache reference count `f(p)`.
    freq: u64,
    /// Policy clock value of the last reference.
    last_access: u64,
}

/// GreedyDual\*'s key rule and its β machinery. See the module-level
/// documentation above.
#[derive(Debug)]
pub struct GdStarRule {
    cost_model: CostModel,
    mode: BetaMode,
    beta: f64,
    estimator: BetaEstimator,
    last_refresh: u64,
    per_type_beta: TypeMap<f64>,
    per_type_estimators: TypeMap<BetaEstimator>,
    per_type_last_refresh: TypeMap<u64>,
    /// Counts policy events (inserts + hits) as a proxy for the request
    /// clock; gaps are measured in these units.
    clock: u64,
}

/// GreedyDual\*: the [`KeyedPolicy`] ranking by [`GdStarRule`].
pub type GdStar<M = ()> = KeyedPolicy<GdStarRule, M>;

impl Default for GdStar {
    /// GD*(1) with the default adaptive β estimation.
    fn default() -> Self {
        GdStar::new(CostModel::Constant, BetaMode::default())
    }
}

impl GdStar {
    /// Creates an empty GD\* tracker under the given cost model and β mode.
    pub fn new(cost_model: CostModel, mode: BetaMode) -> Self {
        KeyedPolicy::from(GdStarRule::new(cost_model, mode))
    }

    /// Convenience constructor for a fixed β.
    pub fn with_fixed_beta(cost_model: CostModel, beta: f64) -> Self {
        GdStar::new(cost_model, BetaMode::Fixed(beta))
    }

    /// Convenience constructor for the per-type adaptive mode with the
    /// default initial β and refresh interval.
    pub fn with_per_type_beta(cost_model: CostModel) -> Self {
        GdStar::new(
            cost_model,
            BetaMode::AdaptivePerType {
                initial: 1.0,
                refresh_interval: 2_000,
            },
        )
    }
}

impl GdStarRule {
    /// The GD\* rule under the given cost model and β mode.
    ///
    /// # Panics
    ///
    /// Panics unless the mode's (initial) β is positive and finite.
    pub fn new(cost_model: CostModel, mode: BetaMode) -> Self {
        let beta = match mode {
            BetaMode::Fixed(beta) => beta,
            BetaMode::Adaptive { initial, .. } | BetaMode::AdaptivePerType { initial, .. } => {
                initial
            }
        };
        assert!(
            beta.is_finite() && beta > 0.0,
            "β must be positive and finite, got {beta}"
        );
        GdStarRule {
            cost_model,
            mode,
            beta,
            estimator: BetaEstimator::new(),
            last_refresh: 0,
            per_type_beta: TypeMap::splat(beta),
            per_type_estimators: TypeMap::from_fn(|_| BetaEstimator::new()),
            per_type_last_refresh: TypeMap::default(),
            clock: 0,
        }
    }

    /// The β currently in effect (the global estimate; per-type mode
    /// additionally maintains [`GdStarRule::beta_for`]).
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The β currently in effect for documents of the given type.
    /// Outside [`BetaMode::AdaptivePerType`] this equals
    /// [`GdStarRule::beta`].
    pub fn beta_for(&self, ty: DocumentType) -> f64 {
        match self.mode {
            BetaMode::AdaptivePerType { .. } => self.per_type_beta[ty],
            _ => self.beta,
        }
    }

    /// Feeds one inter-reference gap to the estimator the β mode reads
    /// (none in [`BetaMode::Fixed`]) and re-fits β once its refresh
    /// interval has passed.
    fn sample_gap(&mut self, gap: u64, ty: DocumentType) {
        match self.mode {
            BetaMode::Adaptive {
                refresh_interval, ..
            } => {
                self.estimator.sample(gap);
                if self.estimator.samples() >= self.last_refresh + refresh_interval {
                    if let Some(beta) = self.estimator.estimate() {
                        self.beta = beta;
                    }
                    self.last_refresh = self.estimator.samples();
                }
            }
            BetaMode::AdaptivePerType {
                refresh_interval, ..
            } => {
                let est = &mut self.per_type_estimators[ty];
                est.sample(gap);
                if est.samples() >= self.per_type_last_refresh[ty] + refresh_interval {
                    if let Some(beta) = est.estimate() {
                        self.per_type_beta[ty] = beta;
                    }
                    self.per_type_last_refresh[ty] = est.samples();
                }
            }
            BetaMode::Fixed(_) => {}
        }
    }

    fn h_base(&self, freq: u64, size: ByteSize, ty: DocumentType) -> f64 {
        let value = GdsfRule(self.cost_model).value(freq, size);
        let exponent = 1.0 / self.beta_for(ty);
        // IEEE 754 pins pow(x, 1) = x exactly, so bypassing the (slow)
        // powf while β sits at its initial 1.0 — the entire run until
        // the first adaptive refit — cannot change any H value.
        if exponent == 1.0 {
            value
        } else {
            value.powf(exponent)
        }
    }
}

impl KeyRule for GdStarRule {
    type State = DocState;
    const AGES: bool = true;

    fn label(&self) -> String {
        format!("GD*({})", self.cost_model.tag())
    }

    fn insert(&mut self, size: ByteSize, doc_type: DocumentType) -> (DocState, f64) {
        self.clock += 1;
        let state = DocState {
            ty: doc_type,
            freq: 1,
            last_access: self.clock,
        };
        (state, self.h_base(1, size, doc_type))
    }

    /// An untyped hit keeps the type the document was last seen with.
    fn hit(&mut self, state: &mut DocState, size: ByteSize, doc_type: Option<DocumentType>) -> f64 {
        self.clock += 1;
        let ty = doc_type.unwrap_or(state.ty);
        state.freq += 1;
        state.ty = ty;
        let gap = self.clock - state.last_access;
        state.last_access = self.clock;
        self.sample_gap(gap, ty);
        self.h_base(state.freq, size, ty)
    }

    fn reason(&self, _: &DocState, h: f64, inflation: f64) -> Reason {
        Reason::greedy_dual(h, inflation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ReplacementPolicy;
    use webcache_trace::DocId;

    fn doc(i: u64) -> DocId {
        DocId::new(i)
    }

    #[test]
    fn frequency_raises_priority() {
        let mut p = GdStar::with_fixed_beta(CostModel::Constant, 1.0);
        p.on_insert(doc(1), ByteSize::new(10));
        p.on_insert(doc(2), ByteSize::new(10));
        p.on_hit(doc(1), ByteSize::new(10));
        // f(1)=2, f(2)=1, same size: doc 2 must go first.
        assert_eq!(p.evict(), Some(doc(2)));
    }

    #[test]
    fn beta_one_matches_gdsf_value() {
        let mut p = GdStar::with_fixed_beta(CostModel::Constant, 1.0);
        p.on_insert(doc(1), ByteSize::new(4));
        assert_eq!(p.key_of(doc(1)), Some(0.25), "H = (1·1/4)^(1/1)");
        p.on_hit(doc(1), ByteSize::new(4));
        assert_eq!(p.key_of(doc(1)), Some(0.5), "H = (2·1/4)^(1/1)");
    }

    #[test]
    fn small_beta_amplifies_value_differences() {
        // value < 1 and 1/β > 1 pushes H towards 0, the behaviour the paper
        // uses to explain GD*(1)'s weak multi-media hit rates.
        let mut half = GdStar::with_fixed_beta(CostModel::Constant, 0.5);
        let mut one = GdStar::with_fixed_beta(CostModel::Constant, 1.0);
        for p in [&mut half, &mut one] {
            p.on_insert(doc(1), ByteSize::new(1_000_000));
        }
        assert!(half.key_of(doc(1)).unwrap() < one.key_of(doc(1)).unwrap());
    }

    #[test]
    fn inflation_is_monotone_and_applied() {
        let mut p = GdStar::with_fixed_beta(CostModel::Constant, 1.0);
        p.on_insert(doc(1), ByteSize::new(2)); // H = 0.5
        assert_eq!(p.evict(), Some(doc(1)));
        assert_eq!(p.inflation(), 0.5);
        p.on_insert(doc(2), ByteSize::new(2));
        assert_eq!(p.key_of(doc(2)), Some(1.0));
    }

    #[test]
    fn frequency_resets_on_reinsertion() {
        let mut p = GdStar::with_fixed_beta(CostModel::Constant, 1.0);
        p.on_insert(doc(1), ByteSize::new(2));
        p.on_hit(doc(1), ByteSize::new(2));
        assert_eq!(p.state(doc(1)).map(|s| s.freq), Some(2));
        assert_eq!(p.evict(), Some(doc(1)));
        p.on_insert(doc(1), ByteSize::new(2));
        assert_eq!(
            p.state(doc(1)).map(|s| s.freq),
            Some(1),
            "f(p) is in-cache state"
        );
    }

    #[test]
    fn adaptive_beta_updates_from_gaps() {
        let mut p = GdStar::new(
            CostModel::Constant,
            BetaMode::Adaptive {
                initial: 1.0,
                refresh_interval: 50,
            },
        );
        p.on_insert(doc(1), ByteSize::new(10));
        p.on_insert(doc(2), ByteSize::new(10));
        // Alternate hits: every gap is exactly 2 requests -> after enough
        // samples the estimator has only one bucket, so β stays at the
        // initial value...
        for _ in 0..30 {
            p.on_hit(doc(1), ByteSize::new(10));
            p.on_hit(doc(2), ByteSize::new(10));
        }
        let before = p.rule().beta();
        // ...now mix in long gaps so two buckets populate and a refresh
        // fires.
        for i in 0..60 {
            for j in 0..20 {
                p.on_hit(doc(1 + (i + j) % 2), ByteSize::new(10));
            }
        }
        assert!(p.rule().estimator.samples() > 100);
        let _ = before; // β may or may not move; the contract is "no panic,
                        // stays positive".
        assert!(p.rule().beta() > 0.0);
    }

    #[test]
    fn per_type_beta_diverges_between_types() {
        use webcache_trace::DocumentType;
        let mut p = GdStar::new(
            CostModel::Constant,
            BetaMode::AdaptivePerType {
                initial: 1.0,
                refresh_interval: 64,
            },
        );
        // Multimedia hits arrive in immediate bursts (gaps of exactly 1
        // dominate, with one long gap per round); image re-references
        // always wait out a long filler run. After enough samples the
        // per-type estimates must separate, with multimedia's β (steeply
        // decaying gap distribution) the larger.
        p.on_insert_typed(DocId::new(1), ByteSize::new(10), DocumentType::Image);
        p.on_insert_typed(DocId::new(2), ByteSize::new(10), DocumentType::MultiMedia);
        let mut filler = 100u64;
        for round in 0..400u64 {
            // Multimedia: a burst of back-to-back hits.
            for _ in 0..6 {
                p.on_hit_typed(DocId::new(2), ByteSize::new(10), DocumentType::MultiMedia);
            }
            // Image: one hit per round after a long filler run.
            for _ in 0..8 + (round % 16) {
                p.on_insert_typed(DocId::new(filler), ByteSize::new(10), DocumentType::Other);
                filler += 1;
            }
            p.on_hit_typed(DocId::new(1), ByteSize::new(10), DocumentType::Image);
        }
        let b_mm = p.rule().beta_for(DocumentType::MultiMedia);
        let b_img = p.rule().beta_for(DocumentType::Image);
        assert!(
            b_mm > b_img,
            "multimedia β {b_mm} must exceed image β {b_img}"
        );
        // Types without samples keep the initial β.
        assert_eq!(p.rule().beta_for(DocumentType::Application), 1.0);
    }

    #[test]
    fn per_type_mode_tracks_type_changes() {
        use webcache_trace::DocumentType;
        let mut p = GdStar::with_per_type_beta(CostModel::Packet);
        p.on_insert_typed(DocId::new(1), ByteSize::new(100), DocumentType::Html);
        p.on_hit_typed(DocId::new(1), ByteSize::new(100), DocumentType::Html);
        assert_eq!(p.state(DocId::new(1)).map(|s| s.freq), Some(2));
        assert_eq!(p.evict(), Some(DocId::new(1)));
    }

    #[test]
    fn untyped_hooks_still_work_in_per_type_mode() {
        let mut p = GdStar::with_per_type_beta(CostModel::Constant);
        p.on_insert(DocId::new(5), ByteSize::new(10));
        p.on_hit(DocId::new(5), ByteSize::new(10));
        assert_eq!(p.len(), 1);
    }

    #[test]
    #[should_panic(expected = "β must be positive")]
    fn rejects_non_positive_beta() {
        let _ = GdStar::with_fixed_beta(CostModel::Constant, 0.0);
    }

    #[test]
    fn estimator_recovers_steep_slopes() {
        // Feed gaps from P(n) ∝ n^-2 over 1..1024 using deterministic
        // inverse-CDF sampling.
        let mut est = BetaEstimator::new();
        let norm: f64 = (1..=1024u64).map(|n| (n as f64).powf(-2.0)).sum();
        for i in 0..20_000u64 {
            let u = (i as f64 + 0.5) / 20_000.0;
            let mut acc = 0.0;
            let mut chosen = 1024;
            for n in 1..=1024u64 {
                acc += (n as f64).powf(-2.0) / norm;
                if acc >= u {
                    chosen = n;
                    break;
                }
            }
            est.sample(chosen);
        }
        let beta = est.estimate().unwrap();
        assert!(
            (beta - 2.0).abs() < 0.35,
            "expected β ≈ 2.0, estimated {beta}"
        );
    }

    #[test]
    fn estimator_recovers_shallow_slopes() {
        let mut est = BetaEstimator::new();
        let target = 0.8;
        let norm: f64 = (1..=4095u64).map(|n| (n as f64).powf(-target)).sum();
        for i in 0..40_000u64 {
            let u = (i as f64 + 0.5) / 40_000.0;
            let mut acc = 0.0;
            let mut chosen = 4095;
            for n in 1..=4095u64 {
                acc += (n as f64).powf(-target) / norm;
                if acc >= u {
                    chosen = n;
                    break;
                }
            }
            est.sample(chosen);
        }
        let beta = est.estimate().unwrap();
        assert!(
            (beta - target).abs() < 0.3,
            "expected β ≈ {target}, estimated {beta}"
        );
    }

    #[test]
    fn estimator_needs_two_buckets() {
        let mut est = BetaEstimator::new();
        assert_eq!(est.estimate(), None);
        for _ in 0..100 {
            est.sample(1);
        }
        assert_eq!(est.estimate(), None, "one bucket cannot define a slope");
        est.sample(100);
        assert!(est.estimate().is_some());
        est.reset();
        assert_eq!(est.samples(), 0);
    }

    #[test]
    fn estimator_zero_gap_clamps_to_one() {
        let mut est = BetaEstimator::new();
        est.sample(0);
        assert_eq!(est.samples(), 1);
    }
}
