//! First In, First Out.
//!
//! The simplest baseline: evicts the document that entered the cache
//! earliest, ignoring recency, frequency, size and cost. Included for the
//! ablation comparisons of the wider replacement-policy literature.
//!
//! One list of the [`SlotLists`] core, newest at the front: a hit leaves
//! it alone and eviction pops its back.

use webcache_trace::{ByteSize, DocId};

use super::lists::SlotLists;
use super::ReplacementPolicy;

/// The insertion order, newest first.
const QUEUE: u8 = 1;

/// FIFO replacement state. See the module-level documentation above.
#[derive(Debug, Default)]
pub struct Fifo {
    lists: SlotLists<1>,
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

    fn on_insert(&mut self, doc: DocId, size: ByteSize) {
        self.lists.push_front(QUEUE, doc, 0, size.as_u64());
    }

    fn on_hit(&mut self, _doc: DocId, _size: ByteSize) {
        // Hits do not affect FIFO order.
    }

    fn evict(&mut self) -> Option<DocId> {
        self.lists.pop_back(QUEUE).map(|(doc, _)| doc)
    }

    fn remove(&mut self, doc: DocId) {
        self.lists.unlink(doc);
    }

    fn len(&self) -> usize {
        self.lists.len(QUEUE)
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
