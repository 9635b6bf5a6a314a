//! First In, First Out.
//!
//! The simplest baseline: evicts the document that entered the cache
//! earliest, ignoring recency, frequency, size and cost. Included for the
//! ablation comparisons of the wider replacement-policy literature.

use webcache_trace::{ByteSize, DocId};

use super::{PriorityKey, ReplacementPolicy};
use crate::pqueue::IndexedHeap;

/// FIFO replacement state. See the module-level documentation above.
#[derive(Debug, Default)]
pub struct Fifo {
    heap: IndexedHeap<DocId, PriorityKey>,
    seq: u64,
}

impl Fifo {
    /// Creates an empty FIFO tracker.
    pub fn new() -> Self {
        Fifo::default()
    }
}

impl ReplacementPolicy for Fifo {
    fn label(&self) -> String {
        "FIFO".to_owned()
    }

    fn on_insert(&mut self, doc: DocId, _size: ByteSize) {
        self.seq += 1;
        self.heap.insert(doc, PriorityKey::new(0.0, self.seq));
    }

    fn on_hit(&mut self, _doc: DocId, _size: ByteSize) {
        // Hits do not affect FIFO order.
    }

    fn evict(&mut self) -> Option<DocId> {
        self.heap.pop_min().map(|(doc, _)| doc)
    }

    fn remove(&mut self, doc: DocId) {
        self.heap.remove(doc);
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn reserve_slots(&mut self, n: usize) {
        self.heap.reserve(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(i: u64) -> DocId {
        DocId::new(i)
    }

    #[test]
    fn evicts_in_insertion_order_regardless_of_hits() {
        let mut f = Fifo::new();
        for i in 0..4 {
            f.on_insert(doc(i), ByteSize::new(1));
        }
        f.on_hit(doc(0), ByteSize::new(1));
        f.on_hit(doc(0), ByteSize::new(1));
        let order: Vec<u64> = std::iter::from_fn(|| f.evict().map(DocId::as_u64)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn reinsertion_moves_to_back() {
        let mut f = Fifo::new();
        f.on_insert(doc(1), ByteSize::new(1));
        f.on_insert(doc(2), ByteSize::new(1));
        f.remove(doc(1));
        f.on_insert(doc(1), ByteSize::new(1));
        assert_eq!(f.evict(), Some(doc(2)));
        assert_eq!(f.evict(), Some(doc(1)));
    }
}
