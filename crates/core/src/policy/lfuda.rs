//! Least Frequently Used with Dynamic Aging.
//!
//! Frequency-based with a recency correction under fixed cost and size
//! assumptions (paper, Section 3; Arlitt et al.). Each cached document `p`
//! carries the key
//!
//! ```text
//! K(p) = f(p) + L
//! ```
//!
//! where `f(p)` is the in-cache reference count and `L` is the *cache age*:
//! `L` starts at 0 and is set to the key of each evicted victim. Adding the
//! age when a document enters or is referenced lets newly inserted
//! documents compete with long-resident popular ones, avoiding the cache
//! pollution of plain LFU. LFU-DA achieves high byte hit rates because it
//! does not discriminate against large documents.

use webcache_obs::Reason;
use webcache_trace::{ByteSize, DocumentType};

use super::KeyRule;

/// LFU-DA's key rule: `K(p) = f(p) + L`, aged by the cache age `L`. See
/// the module-level documentation above.
#[derive(Debug, Clone, Copy, Default)]
pub struct LfuDaRule;

impl KeyRule for LfuDaRule {
    /// The in-cache reference count `f(p)`.
    type State = u64;
    const AGES: bool = true;

    fn label(&self) -> String {
        "LFU-DA".to_owned()
    }

    fn insert(&mut self, _size: ByteSize, _doc_type: DocumentType) -> (u64, f64) {
        (1, 1.0)
    }

    fn hit(&mut self, count: &mut u64, _size: ByteSize, _doc_type: Option<DocumentType>) -> f64 {
        *count += 1;
        *count as f64
    }

    fn reason(&self, &count: &u64, key: f64, _inflation: f64) -> Reason {
        Reason::lfu_da(key, count as f64)
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

    fn sz() -> ByteSize {
        ByteSize::new(1)
    }

    #[test]
    fn evicts_least_frequent_when_age_is_zero() {
        let mut p = KeyedPolicy::from(LfuDaRule);
        p.on_insert(doc(1), sz());
        p.on_insert(doc(2), sz());
        p.on_hit(doc(1), sz());
        assert_eq!(p.evict(), Some(doc(2)));
        assert_eq!(p.inflation(), 1.0);
    }

    #[test]
    fn age_advances_to_victim_key() {
        let mut p = KeyedPolicy::from(LfuDaRule);
        p.on_insert(doc(1), sz());
        for _ in 0..4 {
            p.on_hit(doc(1), sz());
        }
        assert_eq!(p.key_of(doc(1)), Some(5.0));
        assert_eq!(p.evict(), Some(doc(1)));
        assert_eq!(p.inflation(), 5.0);
        // A new document now starts at K = 1 + 5.
        p.on_insert(doc(2), sz());
        assert_eq!(p.key_of(doc(2)), Some(6.0));
    }

    #[test]
    fn aging_prevents_pollution() {
        // Build up a popular-but-stale document, then stream new ones
        // through a small cache; the stale document must eventually fall.
        let mut p = KeyedPolicy::from(LfuDaRule);
        p.on_insert(doc(0), sz());
        for _ in 0..10 {
            p.on_hit(doc(0), sz());
        }
        let mut evicted_stale = false;
        for next_doc in 1u64..=20 {
            // Keep exactly 2 tracked documents: insert one, evict one.
            p.on_insert(doc(next_doc), sz());
            if p.evict() == Some(doc(0)) {
                evicted_stale = true;
                break;
            }
        }
        assert!(
            evicted_stale,
            "dynamic aging must eventually evict the stale popular doc"
        );
    }

    #[test]
    fn keys_are_monotone_for_repeated_hits() {
        let mut p = KeyedPolicy::from(LfuDaRule);
        p.on_insert(doc(1), sz());
        let mut last = p.key_of(doc(1)).unwrap();
        for _ in 0..5 {
            p.on_hit(doc(1), sz());
            let k = p.key_of(doc(1)).unwrap();
            assert!(k > last);
            last = k;
        }
    }

    #[test]
    fn remove_does_not_age() {
        let mut p = KeyedPolicy::from(LfuDaRule);
        p.on_insert(doc(1), sz());
        p.on_hit(doc(1), sz());
        p.remove(doc(1));
        assert_eq!(p.inflation(), 0.0, "invalidation must not inflate the age");
    }
}
