//! Least Frequently Used (without aging).
//!
//! Evicts the document with the smallest in-cache reference count, breaking
//! ties towards the least recently used. Plain LFU suffers from *cache
//! pollution*: documents that were popular once keep large counts and are
//! never evicted — the defect that LFU-DA's dynamic aging repairs. Included
//! as a baseline for the aging ablation.

use webcache_obs::{HeapOp, MetricsSink};
use webcache_trace::{ByteSize, DocId};

use super::{slot_entry, slot_of, PriorityKey, ReplacementPolicy};
use crate::pqueue::DenseIndexedHeap;
use crate::prefetch::prefetch_read;

/// LFU replacement state. See the module-level documentation above.
///
/// `M` is the [`MetricsSink`] receiving heap-cost events; the default
/// `()` compiles the instrumentation away entirely.
#[derive(Debug, Default)]
pub struct Lfu<M: MetricsSink = ()> {
    heap: DenseIndexedHeap<DocId, PriorityKey>,
    /// Per-slot reference count; 0 = not tracked.
    counts: Vec<u64>,
    seq: u64,
    sink: M,
}

impl Lfu {
    /// Creates an empty LFU tracker.
    pub fn new() -> Self {
        Lfu::default()
    }
}

impl<M: MetricsSink> Lfu<M> {
    /// Like [`Lfu::new`], but routing internal events into `sink`.
    pub fn with_sink(sink: M) -> Self {
        Lfu {
            heap: DenseIndexedHeap::new(),
            counts: Vec::new(),
            seq: 0,
            sink,
        }
    }

    /// The in-cache reference count of `doc`, if tracked.
    pub fn reference_count(&self, doc: DocId) -> Option<u64> {
        match self.counts.get(slot_of(doc)) {
            Some(&count) if count > 0 => Some(count),
            _ => None,
        }
    }

    fn touch(&mut self, doc: DocId, op: HeapOp) {
        let count = slot_entry(&mut self.counts, slot_of(doc), 0);
        *count += 1;
        let count = *count;
        self.seq += 1;
        let cost = self
            .heap
            .upsert(doc, PriorityKey::new(count as f64, self.seq));
        self.sink.heap_op(op, cost);
    }
}

impl<M: MetricsSink> ReplacementPolicy for Lfu<M> {
    fn label(&self) -> String {
        "LFU".to_owned()
    }

    fn on_insert(&mut self, doc: DocId, _size: ByteSize) {
        debug_assert!(
            self.reference_count(doc).is_none(),
            "double insert of {doc}"
        );
        self.touch(doc, HeapOp::Insert);
    }

    fn on_hit(&mut self, doc: DocId, _size: ByteSize) {
        if self.reference_count(doc).is_some() {
            self.touch(doc, HeapOp::Update);
        }
    }

    fn evict(&mut self) -> Option<DocId> {
        let (doc, _, cost) = self.heap.pop_min_counted()?;
        self.sink.heap_op(HeapOp::PopMin, cost);
        let count = self.counts[slot_of(doc)];
        self.counts[slot_of(doc)] = 0;
        self.sink
            .evict_reason(webcache_obs::Reason::frequency(count as f64));
        Some(doc)
    }

    fn remove(&mut self, doc: DocId) {
        if self.reference_count(doc).is_some() {
            self.counts[slot_of(doc)] = 0;
            if let Some((_, cost)) = self.heap.remove_counted(doc) {
                self.sink.heap_op(HeapOp::Remove, cost);
            }
        }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn prefetch(&self, doc: DocId) {
        self.heap.prefetch(doc);
        prefetch_read(&self.counts, slot_of(doc));
    }

    fn reserve_slots(&mut self, n: usize) {
        self.heap.reserve(n);
        if self.counts.len() < n {
            self.counts.resize(n, 0);
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
    fn evicts_smallest_count() {
        let mut p = Lfu::new();
        p.on_insert(doc(1), sz());
        p.on_insert(doc(2), sz());
        p.on_hit(doc(1), sz());
        p.on_hit(doc(1), sz());
        p.on_hit(doc(2), sz());
        assert_eq!(p.reference_count(doc(1)), Some(3));
        assert_eq!(p.reference_count(doc(2)), Some(2));
        assert_eq!(p.evict(), Some(doc(2)));
    }

    #[test]
    fn ties_break_towards_older_access() {
        let mut p = Lfu::new();
        p.on_insert(doc(1), sz());
        p.on_insert(doc(2), sz());
        // Both have count 1; doc 1 was touched earlier, so it goes first.
        assert_eq!(p.evict(), Some(doc(1)));

        let mut p = Lfu::new();
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
        let mut p = Lfu::new();
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
        let mut p = Lfu::new();
        p.on_insert(doc(1), sz());
        p.remove(doc(1));
        assert_eq!(p.reference_count(doc(1)), None);
        assert_eq!(p.len(), 0);
        // Re-insert starts the count over.
        p.on_insert(doc(1), sz());
        assert_eq!(p.reference_count(doc(1)), Some(1));
    }
}
