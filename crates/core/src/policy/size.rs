//! SIZE: evict the largest document first.
//!
//! The size-greedy baseline of Williams et al. — maximizes the *number* of
//! documents held and therefore the hit rate, at the expense of byte hit
//! rate. Ties between equally sized documents break towards the least
//! recently used.

use webcache_obs::{HeapOp, MetricsSink};
use webcache_trace::{ByteSize, DocId};

use super::{PriorityKey, ReplacementPolicy};
use crate::pqueue::DenseIndexedHeap;

/// SIZE replacement state. See the module-level documentation above.
///
/// `M` is the [`MetricsSink`] receiving heap-cost events; the default
/// `()` compiles the instrumentation away entirely.
#[derive(Debug, Default)]
pub struct SizeBased<M: MetricsSink = ()> {
    heap: DenseIndexedHeap<DocId, PriorityKey>,
    seq: u64,
    sink: M,
}

impl SizeBased {
    /// Creates an empty SIZE tracker.
    pub fn new() -> Self {
        SizeBased::default()
    }
}

impl<M: MetricsSink> SizeBased<M> {
    /// Like [`SizeBased::new`], but routing internal events into `sink`.
    pub fn with_sink(sink: M) -> Self {
        SizeBased {
            heap: DenseIndexedHeap::new(),
            seq: 0,
            sink,
        }
    }
}

impl<M: MetricsSink> ReplacementPolicy for SizeBased<M> {
    fn label(&self) -> String {
        "SIZE".to_owned()
    }

    fn on_insert(&mut self, doc: DocId, size: ByteSize) {
        self.seq += 1;
        // The heap pops the minimum key; negate the size so the largest
        // document has the smallest key.
        let cost = self
            .heap
            .insert(doc, PriorityKey::new(-size.as_f64(), self.seq));
        self.sink.heap_op(HeapOp::Insert, cost);
    }

    fn on_hit(&mut self, doc: DocId, _size: ByteSize) {
        if self.heap.contains(doc) {
            // Refresh the tie-breaker so equal-size ties follow recency.
            let key = self.heap.key_of(doc).expect("contains checked");
            self.seq += 1;
            let cost = self.heap.update(
                doc,
                PriorityKey {
                    tie: self.seq,
                    ..key
                },
            );
            self.sink.heap_op(HeapOp::Update, cost);
        }
    }

    fn evict(&mut self) -> Option<DocId> {
        let (doc, key, cost) = self.heap.pop_min_counted()?;
        self.sink.heap_op(HeapOp::PopMin, cost);
        // Keys are negated sizes; negate back for the audit record.
        self.sink
            .evict_reason(webcache_obs::Reason::size(-key.value.get()));
        Some(doc)
    }

    fn remove(&mut self, doc: DocId) {
        if let Some((_, cost)) = self.heap.remove_counted(doc) {
            self.sink.heap_op(HeapOp::Remove, cost);
        }
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
    fn evicts_largest_first() {
        let mut p = SizeBased::new();
        p.on_insert(doc(1), ByteSize::new(100));
        p.on_insert(doc(2), ByteSize::new(10_000));
        p.on_insert(doc(3), ByteSize::new(500));
        let order: Vec<u64> = std::iter::from_fn(|| p.evict().map(DocId::as_u64)).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn equal_sizes_tie_break_by_recency() {
        let mut p = SizeBased::new();
        p.on_insert(doc(1), ByteSize::new(100));
        p.on_insert(doc(2), ByteSize::new(100));
        p.on_hit(doc(1), ByteSize::new(100));
        // doc 2 is now the least recently touched among equals.
        assert_eq!(p.evict(), Some(doc(2)));
        assert_eq!(p.evict(), Some(doc(1)));
    }

    #[test]
    fn hit_on_unknown_doc_is_ignored() {
        let mut p = SizeBased::new();
        p.on_hit(doc(9), ByteSize::new(1));
        assert_eq!(p.len(), 0);
    }
}
