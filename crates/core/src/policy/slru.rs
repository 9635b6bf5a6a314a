//! Segmented LRU.
//!
//! SLRU splits the recency order into a *probationary* and a *protected*
//! segment. Documents enter the probationary segment; a hit promotes a
//! document into the protected segment, whose capacity (counted in
//! documents here, as in the original disk-cache formulation) is bounded.
//! Overflowing the protected segment demotes its LRU document back to the
//! head of the probationary segment. Eviction always takes the
//! probationary LRU document.
//!
//! SLRU approximates frequency awareness with two bits of recency
//! history — cheaper than LFU-DA's heap, stronger than plain LRU against
//! the one-timer floods that dominate web traces (most documents in the
//! DFN/RTP workloads are referenced exactly once).

use webcache_trace::{ByteSize, DocId};

use super::lists::SlotLists;
use super::ReplacementPolicy;

/// The two segments, each most recent first.
const PROBATIONARY: u8 = 1;
const PROTECTED: u8 = 2;

/// Protected-segment capacity in documents.
const DEFAULT_PROTECTED_CAPACITY: usize = 4_096;

/// SLRU replacement state. See the module-level documentation above.
///
/// The segments are two lists of one `SlotLists`, which keeps their
/// lengths, so `len` and the protected bound are `O(1)`.
#[derive(Debug)]
pub struct Slru {
    lists: SlotLists<2>,
    /// Protected-segment capacity in documents; positive.
    protected_capacity: usize,
}

impl Slru {
    /// Creates an SLRU tracker with the default protected capacity.
    pub fn new() -> Self {
        Slru {
            lists: SlotLists::default(),
            protected_capacity: DEFAULT_PROTECTED_CAPACITY,
        }
    }
}

impl Default for Slru {
    fn default() -> Self {
        Slru::new()
    }
}

impl ReplacementPolicy for Slru {
    fn label(&self) -> String {
        "SLRU".to_owned()
    }

    fn on_insert(&mut self, doc: DocId, size: ByteSize) {
        self.lists.push_front(PROBATIONARY, doc, 0, size.as_u64());
    }

    fn on_hit(&mut self, doc: DocId, _size: ByteSize) {
        if self.lists.list_of(doc) == 0 {
            return;
        }
        self.lists.move_to_front(doc, PROTECTED);
        while self.lists.len(PROTECTED) > self.protected_capacity {
            // Demotion: back to the *head* of the probationary segment.
            let Some((victim, entry)) = self.lists.pop_back(PROTECTED) else {
                break;
            };
            self.lists
                .push_front(PROBATIONARY, victim, entry.tag, entry.size);
        }
    }

    fn evict(&mut self) -> Option<DocId> {
        // Probationary empty: fall back to the protected LRU.
        self.lists
            .pop_back(PROBATIONARY)
            .or_else(|| self.lists.pop_back(PROTECTED))
            .map(|(doc, _)| doc)
    }

    fn remove(&mut self, doc: DocId) {
        self.lists.unlink(doc);
    }

    fn len(&self) -> usize {
        self.lists.len(PROBATIONARY) + self.lists.len(PROTECTED)
    }

    fn prefetch(&self, doc: DocId) {
        self.lists.prefetch(doc);
    }

    fn reserve_slots(&mut self, n: usize) {
        self.lists.reserve(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(i: u64) -> DocId {
        DocId::new(i)
    }

    fn sz() -> ByteSize {
        ByteSize::new(1)
    }

    #[test]
    fn one_timers_evict_before_reused_documents() {
        let mut p = Slru::new();
        p.on_insert(doc(1), sz());
        p.on_hit(doc(1), sz()); // promoted
        for i in 2..6 {
            p.on_insert(doc(i), sz());
        }
        // Probationary order (LRU first): 2, 3, 4, 5. Doc 1 is protected.
        let order: Vec<u64> = (0..4).map(|_| p.evict().unwrap().as_u64()).collect();
        assert_eq!(order, vec![2, 3, 4, 5]);
        assert_eq!(p.evict(), Some(doc(1)), "protected falls back last");
    }

    #[test]
    fn protected_overflow_demotes_to_probationary() {
        let mut p = Slru {
            protected_capacity: 2,
            ..Slru::new()
        };
        for i in 1..=3 {
            p.on_insert(doc(i), sz());
            p.on_hit(doc(i), sz()); // promote all three
        }
        assert_eq!(
            p.lists.len(PROTECTED),
            2,
            "capacity bounds the protected set"
        );
        // Doc 1 was demoted to probationary head, so it evicts first.
        assert_eq!(p.evict(), Some(doc(1)));
    }

    #[test]
    fn repeated_hits_keep_document_protected() {
        let mut p = Slru {
            protected_capacity: 1,
            ..Slru::new()
        };
        p.on_insert(doc(1), sz());
        p.on_hit(doc(1), sz());
        p.on_hit(doc(1), sz());
        p.on_hit(doc(1), sz());
        assert_eq!(p.len(), 1);
        assert_eq!(p.lists.len(PROTECTED), 1);
        assert_eq!(p.evict(), Some(doc(1)));
        assert_eq!(p.evict(), None);
    }

    #[test]
    fn remove_keeps_both_segments_intact() {
        let mut p = Slru::new();
        for i in 0..10 {
            p.on_insert(doc(i), sz());
        }
        p.on_hit(doc(3), sz());
        p.remove(doc(0));
        p.remove(doc(3));
        p.remove(doc(99)); // unknown: no-op
        assert_eq!(p.len(), 8);
        let mut drained = Vec::new();
        while let Some(v) = p.evict() {
            drained.push(v.as_u64());
        }
        drained.sort_unstable();
        assert_eq!(drained, vec![1, 2, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn reinsert_after_eviction_starts_probationary() {
        let mut p = Slru::new();
        p.on_insert(doc(1), sz());
        p.on_hit(doc(1), sz());
        assert_eq!(p.evict(), Some(doc(1)));
        p.on_insert(doc(1), sz());
        assert_eq!(
            p.lists.len(PROTECTED),
            0,
            "history does not survive eviction"
        );
    }
}
