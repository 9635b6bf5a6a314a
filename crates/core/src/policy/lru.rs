//! Least Recently Used.
//!
//! The most widely deployed scheme. Recency-based: on replacement it
//! removes the document that has not been referenced for the longest
//! period of time. It neither discriminates by size nor uses frequency
//! information, which in the study makes it (together with LFU-DA) the
//! strongest scheme for multi-media *byte* hit rate and the weakest for
//! image/HTML hit rate.
//!
//! One list of the [`SlotLists`] core, most recently used at the front:
//! all operations are `O(1)`.

use webcache_trace::{ByteSize, DocId};

use super::lists::SlotLists;
use super::ReplacementPolicy;

/// The recency order, most recently used first.
const RECENCY: u8 = 1;

/// LRU replacement state. See the module-level documentation above.
#[derive(Debug, Default)]
pub struct Lru {
    lists: SlotLists<1>,
}

impl Lru {
    /// Creates an empty LRU tracker.
    pub fn new() -> Self {
        Lru::default()
    }
}

impl ReplacementPolicy for Lru {
    fn label(&self) -> String {
        "LRU".to_owned()
    }

    fn on_insert(&mut self, doc: DocId, size: ByteSize) {
        self.lists.push_front(RECENCY, doc, 0, size.as_u64());
    }

    fn on_hit(&mut self, doc: DocId, _size: ByteSize) {
        if self.lists.list_of(doc) == RECENCY {
            self.lists.move_to_front(doc, RECENCY);
        }
    }

    fn evict(&mut self) -> Option<DocId> {
        self.lists.pop_back(RECENCY).map(|(doc, _)| doc)
    }

    fn remove(&mut self, doc: DocId) {
        self.lists.unlink(doc);
    }

    fn len(&self) -> usize {
        self.lists.len(RECENCY)
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
    fn evicts_least_recently_used() {
        let mut lru = Lru::new();
        for i in 0..3 {
            lru.on_insert(doc(i), sz());
        }
        lru.on_hit(doc(0), sz()); // order (MRU..LRU): 0, 2, 1
        assert_eq!(lru.evict(), Some(doc(1)));
        assert_eq!(lru.evict(), Some(doc(2)));
        assert_eq!(lru.evict(), Some(doc(0)));
        assert_eq!(lru.evict(), None);
    }

    #[test]
    fn hit_on_head_is_noop() {
        let mut lru = Lru::new();
        lru.on_insert(doc(1), sz());
        lru.on_insert(doc(2), sz());
        lru.on_hit(doc(2), sz());
        assert_eq!(lru.evict(), Some(doc(1)));
    }

    #[test]
    fn hit_on_unknown_doc_is_ignored() {
        let mut lru = Lru::new();
        lru.on_insert(doc(1), sz());
        lru.on_hit(doc(99), sz());
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn remove_middle_keeps_list_intact() {
        let mut lru = Lru::new();
        for i in 0..5 {
            lru.on_insert(doc(i), sz());
        }
        lru.remove(doc(2));
        let order: Vec<u64> = std::iter::from_fn(|| lru.evict().map(DocId::as_u64)).collect();
        assert_eq!(order, vec![0, 1, 3, 4]);
    }
}
