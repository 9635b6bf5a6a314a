//! GreedyDual-Size-Frequency (Cherkasova).
//!
//! GDSF augments GreedyDual-Size with the in-cache reference count:
//!
//! ```text
//! H(p) = L + f(p) · c(p) / s(p)
//! ```
//!
//! It is exactly the β = 1 special case of GreedyDual\* — GD\* generalizes
//! the frequency weighting with the workload-adaptive exponent `1/β` —
//! and is the variant deployed in Squid as `heap GDSF`. It is included
//! both as a baseline in its own right and as the anchor point of the β
//! ablation (`GdStar::with_fixed_beta(cost, 1.0)` must agree with it).

use webcache_obs::Reason;
use webcache_trace::{ByteSize, DocumentType};

use super::KeyRule;
use crate::cost::CostModel;

/// GDSF's key rule under the given cost model:
/// `H(p) = L + f(p)·c(p)/s(p)`. See the module-level documentation above.
#[derive(Debug, Clone, Copy)]
pub struct GdsfRule(pub CostModel);

impl GdsfRule {
    /// `f(p)·c(p)/s(p)` for a document referenced `freq` times.
    pub(super) fn value(self, freq: u64, size: ByteSize) -> f64 {
        let s = size.as_f64().max(1.0);
        freq as f64 * self.0.cost(size) / s
    }
}

impl KeyRule for GdsfRule {
    /// The in-cache reference count `f(p)`.
    type State = u64;
    const AGES: bool = true;

    fn label(&self) -> String {
        format!("GDSF({})", self.0.tag())
    }

    fn insert(&mut self, size: ByteSize, _doc_type: DocumentType) -> (u64, f64) {
        (1, self.value(1, size))
    }

    fn hit(&mut self, freq: &mut u64, size: ByteSize, _doc_type: Option<DocumentType>) -> f64 {
        *freq += 1;
        self.value(*freq, size)
    }

    fn reason(&self, _: &u64, h: f64, inflation: f64) -> Reason {
        Reason::greedy_dual(h, inflation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{GdStar, KeyedPolicy, ReplacementPolicy};
    use webcache_trace::DocId;

    fn doc(i: u64) -> DocId {
        DocId::new(i)
    }

    #[test]
    fn frequency_and_size_both_matter() {
        let mut p = KeyedPolicy::from(GdsfRule(CostModel::Constant));
        p.on_insert(doc(1), ByteSize::new(100)); // H = 1/100
        p.on_insert(doc(2), ByteSize::new(100)); // H = 1/100
        p.on_hit(doc(1), ByteSize::new(100)); // H = 2/100
        assert_eq!(p.evict(), Some(doc(2)), "less frequent doc goes first");

        let mut p = KeyedPolicy::from(GdsfRule(CostModel::Constant));
        p.on_insert(doc(1), ByteSize::new(1_000));
        p.on_insert(doc(2), ByteSize::new(10));
        assert_eq!(p.evict(), Some(doc(1)), "larger doc goes first");
    }

    #[test]
    fn agrees_with_gdstar_beta_one() {
        // GDSF must produce the same eviction sequence as GD* with β = 1
        // on any shared input (same tie-breaking discipline).
        let mut gdsf = KeyedPolicy::from(GdsfRule(CostModel::Packet));
        let mut gdstar = GdStar::with_fixed_beta(CostModel::Packet, 1.0);

        let mut state = 42u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let mut tracked = std::collections::HashSet::new();
        for _ in 0..2000 {
            let d = doc(next() % 50);
            let s = ByteSize::new(next() % 100_000 + 1);
            match next() % 5 {
                0..=2 => {
                    if tracked.insert(d) {
                        gdsf.on_insert(d, s);
                        gdstar.on_insert(d, s);
                    } else {
                        gdsf.on_hit(d, s);
                        gdstar.on_hit(d, s);
                    }
                }
                3 => {
                    let a = gdsf.evict();
                    let b = gdstar.evict();
                    assert_eq!(a, b, "eviction sequences diverged");
                    if let Some(v) = a {
                        tracked.remove(&v);
                    }
                }
                _ => {
                    gdsf.remove(d);
                    gdstar.remove(d);
                    tracked.remove(&d);
                }
            }
            assert_eq!(gdsf.len(), gdstar.len());
        }
    }

    #[test]
    fn inflation_monotone_and_label() {
        let mut p = KeyedPolicy::from(GdsfRule(CostModel::Constant));
        assert_eq!(p.label(), "GDSF(1)");
        p.on_insert(doc(1), ByteSize::new(4));
        p.on_insert(doc(2), ByteSize::new(2));
        assert_eq!(p.evict(), Some(doc(1)));
        let l1 = p.inflation();
        assert_eq!(p.evict(), Some(doc(2)));
        assert!(p.inflation() >= l1);
    }

    #[test]
    fn hit_on_untracked_doc_is_ignored() {
        let mut p = KeyedPolicy::from(GdsfRule(CostModel::Constant));
        p.on_hit(doc(9), ByteSize::new(10));
        assert!(p.is_empty());
        assert_eq!(p.key_of(doc(9)), None);
    }
}
