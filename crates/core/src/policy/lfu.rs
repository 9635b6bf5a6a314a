//! Least Frequently Used (without aging).
//!
//! Evicts the document with the smallest in-cache reference count, breaking
//! ties towards the least recently used. Plain LFU suffers from *cache
//! pollution*: documents that were popular once keep large counts and are
//! never evicted — the defect that LFU-DA's dynamic aging repairs. Included
//! as a baseline for the aging ablation.

use webcache_obs::Reason;
use webcache_trace::{ByteSize, DocumentType};

use super::KeyRule;

/// LFU's key rule: the key is the in-cache reference count, and it does
/// not age. See the module-level documentation above.
#[derive(Debug, Clone, Copy, Default)]
pub struct LfuRule;

impl KeyRule for LfuRule {
    /// The in-cache reference count.
    type State = u64;
    const AGES: bool = false;

    fn label(&self) -> String {
        "LFU".to_owned()
    }

    fn insert(&mut self, _size: ByteSize, _doc_type: DocumentType) -> (u64, f64) {
        (1, 1.0)
    }

    fn hit(&mut self, count: &mut u64, _size: ByteSize, _doc_type: Option<DocumentType>) -> f64 {
        *count += 1;
        *count as f64
    }

    fn reason(&self, &count: &u64, _key: f64, _inflation: f64) -> Reason {
        Reason::frequency(count as f64)
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
    fn evicts_smallest_count() {
        let mut p = KeyedPolicy::from(LfuRule);
        p.on_insert(doc(1), sz());
        p.on_insert(doc(2), sz());
        p.on_hit(doc(1), sz());
        p.on_hit(doc(1), sz());
        p.on_hit(doc(2), sz());
        assert_eq!(p.state(doc(1)), Some(3));
        assert_eq!(p.state(doc(2)), Some(2));
        assert_eq!(p.evict(), Some(doc(2)));
    }

    #[test]
    fn ties_break_towards_older_access() {
        let mut p = KeyedPolicy::from(LfuRule);
        p.on_insert(doc(1), sz());
        p.on_insert(doc(2), sz());
        // Both have count 1; doc 1 was touched earlier, so it goes first.
        assert_eq!(p.evict(), Some(doc(1)));

        let mut p = KeyedPolicy::from(LfuRule);
        p.on_insert(doc(1), sz());
        p.on_insert(doc(2), sz());
        p.on_hit(doc(1), sz());
        p.on_hit(doc(2), sz());
        // Counts equal (2); doc 1's last access is older.
        assert_eq!(p.evict(), Some(doc(1)));
    }

    #[test]
    fn pollution_demonstration() {
        // A document with a huge historical count survives even though it
        // is never referenced again — the defect LFU-DA fixes.
        let mut p = KeyedPolicy::from(LfuRule);
        p.on_insert(doc(1), sz());
        for _ in 0..100 {
            p.on_hit(doc(1), sz());
        }
        for i in 2..10 {
            p.on_insert(doc(i), sz());
            p.on_hit(doc(i), sz());
        }
        for _ in 0..8 {
            let v = p.evict().unwrap();
            assert_ne!(v, doc(1), "stale popular doc pollutes the cache");
        }
    }

    #[test]
    fn remove_clears_count() {
        let mut p = KeyedPolicy::from(LfuRule);
        p.on_insert(doc(1), sz());
        p.remove(doc(1));
        assert_eq!(p.state(doc(1)), None);
        assert_eq!(p.len(), 0);
        // Re-insert starts the count over.
        p.on_insert(doc(1), sz());
        assert_eq!(p.state(doc(1)), Some(1));
    }
}
