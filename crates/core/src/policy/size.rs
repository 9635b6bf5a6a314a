//! SIZE: evict the largest document first.
//!
//! The size-greedy baseline of Williams et al. — maximizes the *number* of
//! documents held and therefore the hit rate, at the expense of byte hit
//! rate. Ties between equally sized documents break towards the least
//! recently used.

use webcache_obs::Reason;
use webcache_trace::{ByteSize, DocumentType};

use super::KeyRule;

/// SIZE's key rule: the key is the negated document size (the heap pops
/// the minimum, so the largest document goes first), and it does not
/// age. See the module-level documentation above.
#[derive(Debug, Clone, Copy, Default)]
pub struct SizeRule;

impl KeyRule for SizeRule {
    type State = ();
    const AGES: bool = false;

    fn label(&self) -> String {
        "SIZE".to_owned()
    }

    fn insert(&mut self, size: ByteSize, _doc_type: DocumentType) -> ((), f64) {
        ((), -size.as_f64())
    }

    /// The cache passes the resident size on a hit, so the value stays
    /// put and only the tie-breaker refreshes: equal-size ties follow
    /// recency.
    fn hit(&mut self, _: &mut (), size: ByteSize, _doc_type: Option<DocumentType>) -> f64 {
        -size.as_f64()
    }

    fn reason(&self, _: &(), key: f64, _inflation: f64) -> Reason {
        // Keys are negated sizes; negate back for the audit record.
        Reason::size(-key)
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
    fn evicts_largest_first() {
        let mut p = KeyedPolicy::from(SizeRule);
        p.on_insert(doc(1), ByteSize::new(100));
        p.on_insert(doc(2), ByteSize::new(10_000));
        p.on_insert(doc(3), ByteSize::new(500));
        let order: Vec<u64> = std::iter::from_fn(|| p.evict().map(DocId::as_u64)).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn equal_sizes_tie_break_by_recency() {
        let mut p = KeyedPolicy::from(SizeRule);
        p.on_insert(doc(1), ByteSize::new(100));
        p.on_insert(doc(2), ByteSize::new(100));
        p.on_hit(doc(1), ByteSize::new(100));
        // doc 2 is now the least recently touched among equals.
        assert_eq!(p.evict(), Some(doc(2)));
        assert_eq!(p.evict(), Some(doc(1)));
    }

    #[test]
    fn hit_on_unknown_doc_is_ignored() {
        let mut p = KeyedPolicy::from(SizeRule);
        p.on_hit(doc(9), ByteSize::new(1));
        assert_eq!(p.len(), 0);
    }
}
