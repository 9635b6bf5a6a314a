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

use webcache_obs::{HeapOp, MetricsSink};
use webcache_trace::{ByteSize, DocId};

use super::{slot_entry, slot_of, PriorityKey, ReplacementPolicy};
use crate::pqueue::DenseIndexedHeap;
use crate::prefetch::prefetch_read;

/// LFU-DA replacement state. See the module-level documentation above.
///
/// `M` is the [`MetricsSink`] receiving heap-cost and aging events; the
/// default `()` compiles the instrumentation away entirely.
#[derive(Debug, Default)]
pub struct LfuDa<M: MetricsSink = ()> {
    heap: DenseIndexedHeap<DocId, PriorityKey>,
    /// Per-slot reference count; 0 = not tracked.
    counts: Vec<u64>,
    /// Cache age `L`: the key value of the last evicted document.
    age: f64,
    seq: u64,
    sink: M,
}

impl LfuDa {
    /// Creates an empty LFU-DA tracker.
    pub fn new() -> Self {
        LfuDa::default()
    }
}

impl<M: MetricsSink> LfuDa<M> {
    /// Like [`LfuDa::new`], but routing internal events into `sink`.
    pub fn with_sink(sink: M) -> Self {
        LfuDa {
            heap: DenseIndexedHeap::new(),
            counts: Vec::new(),
            age: 0.0,
            seq: 0,
            sink,
        }
    }

    /// The current cache age `L`.
    pub fn cache_age(&self) -> f64 {
        self.age
    }

    /// The key `K(p) = f(p) + L` currently assigned to `doc`.
    pub fn key_of(&self, doc: DocId) -> Option<f64> {
        self.heap.key_of(doc).map(|k| k.value.get())
    }

    fn tracked(&self, doc: DocId) -> bool {
        self.counts.get(slot_of(doc)).copied().unwrap_or(0) > 0
    }

    fn touch(&mut self, doc: DocId, op: HeapOp) {
        let count = slot_entry(&mut self.counts, slot_of(doc), 0);
        *count += 1;
        let count = *count;
        self.seq += 1;
        let key = PriorityKey::new(count as f64 + self.age, self.seq);
        let cost = self.heap.upsert(doc, key);
        self.sink.heap_op(op, cost);
    }
}

impl<M: MetricsSink> ReplacementPolicy for LfuDa<M> {
    fn label(&self) -> String {
        "LFU-DA".to_owned()
    }

    fn on_insert(&mut self, doc: DocId, _size: ByteSize) {
        debug_assert!(!self.tracked(doc), "double insert of {doc}");
        self.touch(doc, HeapOp::Insert);
    }

    fn on_hit(&mut self, doc: DocId, _size: ByteSize) {
        if self.tracked(doc) {
            self.touch(doc, HeapOp::Update);
        }
    }

    fn evict(&mut self) -> Option<DocId> {
        let (doc, key, cost) = self.heap.pop_min_counted()?;
        self.sink.heap_op(HeapOp::PopMin, cost);
        let count = self.counts[slot_of(doc)];
        self.counts[slot_of(doc)] = 0;
        let key = key.value.get();
        self.sink
            .evict_reason(webcache_obs::Reason::lfu_da(key, count as f64));
        // Dynamic aging: the cache age inflates to the victim's key.
        self.age = key;
        self.sink.inflation(self.age);
        Some(doc)
    }

    fn remove(&mut self, doc: DocId) {
        if self.tracked(doc) {
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
    fn evicts_least_frequent_when_age_is_zero() {
        let mut p = LfuDa::new();
        p.on_insert(doc(1), sz());
        p.on_insert(doc(2), sz());
        p.on_hit(doc(1), sz());
        assert_eq!(p.evict(), Some(doc(2)));
        assert_eq!(p.cache_age(), 1.0);
    }

    #[test]
    fn age_advances_to_victim_key() {
        let mut p = LfuDa::new();
        p.on_insert(doc(1), sz());
        for _ in 0..4 {
            p.on_hit(doc(1), sz());
        }
        assert_eq!(p.key_of(doc(1)), Some(5.0));
        assert_eq!(p.evict(), Some(doc(1)));
        assert_eq!(p.cache_age(), 5.0);
        // A new document now starts at K = 1 + 5.
        p.on_insert(doc(2), sz());
        assert_eq!(p.key_of(doc(2)), Some(6.0));
    }

    #[test]
    fn aging_prevents_pollution() {
        // Build up a popular-but-stale document, then stream new ones
        // through a small cache; the stale document must eventually fall.
        let mut p = LfuDa::new();
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
        let mut p = LfuDa::new();
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
        let mut p = LfuDa::new();
        p.on_insert(doc(1), sz());
        p.on_hit(doc(1), sz());
        p.remove(doc(1));
        assert_eq!(p.cache_age(), 0.0, "invalidation must not inflate the age");
    }
}
