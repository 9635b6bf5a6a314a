//! Least Recently Used.
//!
//! The most widely deployed scheme. Recency-based: on replacement it
//! removes the document that has not been referenced for the longest
//! period of time. It neither discriminates by size nor uses frequency
//! information, which in the study makes it (together with LFU-DA) the
//! strongest scheme for multi-media *byte* hit rate and the weakest for
//! image/HTML hit rate.
//!
//! Implemented as an intrusive doubly-linked list over a slab with a
//! position map — all operations are `O(1)`.

use webcache_trace::{ByteSize, DocId};

use super::{slot_entry, slot_of, ReplacementPolicy};
use crate::prefetch::prefetch_read;

#[derive(Debug, Clone, Copy)]
struct Node {
    doc: DocId,
    prev: Option<usize>,
    next: Option<usize>,
}

/// Sentinel marking an untracked document slot in [`Lru::map`].
const UNTRACKED: u32 = u32::MAX;

/// LRU replacement state. See the module-level documentation above.
#[derive(Debug, Default)]
pub struct Lru {
    /// Document slot -> node index; [`UNTRACKED`] = not in the cache.
    map: Vec<u32>,
    live: usize,
    nodes: Vec<Node>,
    free: Vec<usize>,
    /// Most recently used.
    head: Option<usize>,
    /// Least recently used (the eviction victim).
    tail: Option<usize>,
}

impl Lru {
    /// Creates an empty LRU tracker.
    pub fn new() -> Self {
        Lru::default()
    }

    /// The current victim-if-evicted-now, without removing it.
    pub fn peek_victim(&self) -> Option<DocId> {
        self.tail.map(|i| self.nodes[i].doc)
    }

    fn node_of(&self, doc: DocId) -> Option<usize> {
        match self.map.get(slot_of(doc)) {
            Some(&idx) if idx != UNTRACKED => Some(idx as usize),
            _ => None,
        }
    }

    fn push_front(&mut self, doc: DocId) -> usize {
        let node = Node {
            doc,
            prev: None,
            next: self.head,
        };
        let idx = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        if let Some(old_head) = self.head {
            self.nodes[old_head].prev = Some(idx);
        }
        self.head = Some(idx);
        if self.tail.is_none() {
            self.tail = Some(idx);
        }
        idx
    }

    fn unlink(&mut self, idx: usize) {
        let Node { prev, next, .. } = self.nodes[idx];
        match prev {
            Some(p) => self.nodes[p].next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.nodes[n].prev = prev,
            None => self.tail = prev,
        }
        self.free.push(idx);
    }
}

impl ReplacementPolicy for Lru {
    fn label(&self) -> String {
        "LRU".to_owned()
    }

    fn on_insert(&mut self, doc: DocId, _size: ByteSize) {
        debug_assert!(self.node_of(doc).is_none(), "double insert of {doc}");
        let idx = self.push_front(doc);
        *slot_entry(&mut self.map, slot_of(doc), UNTRACKED) = idx as u32;
        self.live += 1;
    }

    fn on_hit(&mut self, doc: DocId, _size: ByteSize) {
        if let Some(idx) = self.node_of(doc) {
            if self.head == Some(idx) {
                return;
            }
            self.unlink(idx);
            // `unlink` freed the slot; `push_front` reuses it immediately.
            let new_idx = self.push_front(doc);
            debug_assert_eq!(new_idx, idx);
            self.map[slot_of(doc)] = new_idx as u32;
        }
    }

    fn evict(&mut self) -> Option<DocId> {
        let idx = self.tail?;
        let doc = self.nodes[idx].doc;
        self.unlink(idx);
        self.map[slot_of(doc)] = UNTRACKED;
        self.live -= 1;
        Some(doc)
    }

    fn remove(&mut self, doc: DocId) {
        if let Some(idx) = self.node_of(doc) {
            self.unlink(idx);
            self.map[slot_of(doc)] = UNTRACKED;
            self.live -= 1;
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn prefetch(&self, doc: DocId) {
        prefetch_read(&self.map, slot_of(doc));
    }

    fn reserve_slots(&mut self, n: usize) {
        if self.map.len() < n {
            self.map.resize(n, UNTRACKED);
        }
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
        assert_eq!(lru.peek_victim(), Some(doc(1)));
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

    #[test]
    fn slots_are_reused() {
        let mut lru = Lru::new();
        for i in 0..100 {
            lru.on_insert(doc(i), sz());
            lru.evict();
        }
        assert!(lru.nodes.len() <= 2, "slab must recycle slots");
    }

    /// Differential test against the obvious Vec-based model.
    #[test]
    fn differential_against_vec_model() {
        let mut lru = Lru::new();
        let mut model: Vec<u64> = Vec::new(); // front = MRU

        let mut state = 12345u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };

        for step in 0..4000 {
            match next() % 4 {
                0 => {
                    let d = next() % 40;
                    if !model.contains(&d) {
                        lru.on_insert(doc(d), sz());
                        model.insert(0, d);
                    }
                }
                1 => {
                    let d = next() % 40;
                    lru.on_hit(doc(d), sz());
                    if let Some(pos) = model.iter().position(|&x| x == d) {
                        let d = model.remove(pos);
                        model.insert(0, d);
                    }
                }
                2 => {
                    let got = lru.evict().map(DocId::as_u64);
                    let expected = model.pop();
                    assert_eq!(got, expected, "step {step}");
                }
                _ => {
                    let d = next() % 40;
                    lru.remove(doc(d));
                    model.retain(|&x| x != d);
                }
            }
            assert_eq!(lru.len(), model.len(), "step {step}");
        }
    }
}
