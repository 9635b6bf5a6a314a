//! GreedyDual-Size (Cao & Irani).
//!
//! The first scheme to account for the high variability of both document
//! sizes and retrieval costs in the web. Each cached document `p` carries
//!
//! ```text
//! H(p) = L + c(p) / s(p)
//! ```
//!
//! where `s(p)` is the document size, `c(p)` the retrieval cost under the
//! configured [`CostModel`], and `L` the inflation value (initially 0, set
//! to the victim's `H` on every eviction — equivalent to the textbook
//! formulation that subtracts `H_min` from all documents, but `O(1)`).
//! `H` is re-established from the *current* `L` whenever the document is
//! referenced, so recently used documents float above long-untouched ones.
//!
//! GDS is online-optimal with respect to its cost function but ignores how
//! *often* a document was used — the gap GreedyDual\* fills.

use webcache_obs::Reason;
use webcache_trace::{ByteSize, DocumentType};

use super::KeyRule;
use crate::cost::CostModel;

/// GreedyDual-Size's key rule under the given cost model:
/// `H(p) = L + c(p)/s(p)`. See the module-level documentation above.
///
/// GDS recomputes `H` from the request's size on every touch, so it
/// keeps no per-document state.
#[derive(Debug, Clone, Copy)]
pub struct GdsRule(pub CostModel);

impl GdsRule {
    /// `c(p)/s(p)` — the utility density of a document of `size` bytes.
    fn value(self, size: ByteSize) -> f64 {
        // Degenerate zero-size documents get the best possible density so
        // they are never the reason for an eviction (they occupy no space).
        let s = size.as_f64().max(1.0);
        self.0.cost(size) / s
    }
}

impl KeyRule for GdsRule {
    type State = ();
    const AGES: bool = true;

    fn label(&self) -> String {
        format!("GDS({})", self.0.tag())
    }

    fn insert(&mut self, size: ByteSize, _doc_type: DocumentType) -> ((), f64) {
        ((), self.value(size))
    }

    fn hit(&mut self, _: &mut (), size: ByteSize, _doc_type: Option<DocumentType>) -> f64 {
        self.value(size)
    }

    fn reason(&self, _: &(), h: f64, inflation: f64) -> Reason {
        Reason::greedy_dual(h, inflation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{KeyedPolicy, ReplacementPolicy};
    use webcache_trace::DocId;

    fn doc(i: u64) -> DocId {
        DocId::new(i)
    }

    #[test]
    fn constant_cost_prefers_small_documents() {
        let mut p = KeyedPolicy::from(GdsRule(CostModel::Constant));
        p.on_insert(doc(1), ByteSize::new(100)); // H = 1/100
        p.on_insert(doc(2), ByteSize::new(10)); // H = 1/10
        assert_eq!(p.evict(), Some(doc(1)), "larger doc has smaller H");
    }

    #[test]
    fn packet_cost_softens_size_discrimination() {
        // Under packet cost, c grows with s, so the density gap between a
        // large and a small document is far smaller than under constant
        // cost.
        let small = ByteSize::new(1_000);
        let large = ByteSize::new(1_000_000);
        let ratio = |m: CostModel| (m.cost(small) / 1e3) / (m.cost(large) / 1e6);
        assert!(ratio(CostModel::Constant) > 100.0 * ratio(CostModel::Packet));
    }

    #[test]
    fn inflation_advances_and_lifts_new_entries() {
        let mut p = KeyedPolicy::from(GdsRule(CostModel::Constant));
        p.on_insert(doc(1), ByteSize::new(2)); // H = 0.5
        assert_eq!(p.evict(), Some(doc(1)));
        assert_eq!(p.inflation(), 0.5);
        p.on_insert(doc(2), ByteSize::new(2));
        assert_eq!(p.key_of(doc(2)), Some(1.0), "H = L + c/s = 0.5 + 0.5");
    }

    #[test]
    fn reference_restores_h_from_current_inflation() {
        let mut p = KeyedPolicy::from(GdsRule(CostModel::Constant));
        p.on_insert(doc(1), ByteSize::new(4)); // H = 0.25
        p.on_insert(doc(2), ByteSize::new(2)); // H = 0.5
        assert_eq!(p.evict(), Some(doc(1))); // L = 0.25
        p.on_insert(doc(3), ByteSize::new(1)); // H = 1.25
        p.on_hit(doc(2), ByteSize::new(2)); // H = 0.25 + 0.5 = 0.75
        assert_eq!(p.evict(), Some(doc(2)));
    }

    #[test]
    fn equal_h_ties_break_towards_older_touch() {
        let mut p = KeyedPolicy::from(GdsRule(CostModel::Constant));
        p.on_insert(doc(1), ByteSize::new(10));
        p.on_insert(doc(2), ByteSize::new(10));
        assert_eq!(p.evict(), Some(doc(1)));
    }

    #[test]
    fn zero_size_documents_are_not_preferred_victims() {
        let mut p = KeyedPolicy::from(GdsRule(CostModel::Constant));
        p.on_insert(doc(1), ByteSize::ZERO);
        p.on_insert(doc(2), ByteSize::new(1_000_000));
        assert_eq!(p.evict(), Some(doc(2)));
    }

    #[test]
    fn inflation_is_monotone() {
        let mut p = KeyedPolicy::from(GdsRule(CostModel::Packet));
        let mut last = 0.0;
        for i in 0..50 {
            p.on_insert(doc(i), ByteSize::new(100 + i * 37));
            if i % 2 == 0 {
                p.evict();
                assert!(p.inflation() >= last, "inflation must never decrease");
                last = p.inflation();
            }
        }
    }
}
