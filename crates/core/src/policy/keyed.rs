//! The one heap policy behind every key-ranked replacement scheme.
//!
//! LFU, SIZE, LFU-DA, LRU-2, GreedyDual-Size, GDSF and GreedyDual\* all
//! keep each cached document in a min-heap under a numeric key and evict
//! the smallest. They differ only in how the key is computed and whether it
//! ages. An aging scheme adds the inflation value `L` to every value it
//! computes; `L` starts at 0 and is set to the key of each victim, so
//! recently referenced documents float above long-untouched ones
//! (equivalent to the textbook formulation that subtracts the victim's
//! key from every document, but `O(1)`).
//!
//! [`KeyedPolicy`] owns everything the schemes share: the indexed heap,
//! the tie-breaking sequence, a per-slot state vector, `L`, and every
//! [`MetricsSink`] event. A [`KeyRule`] states the rest.

use std::fmt;
use std::mem;

use webcache_obs::{HeapOp, MetricsSink, Reason};
use webcache_trace::{prefetch_read, ByteSize, DocId, DocumentType};

use super::{slot_entry, slot_of, PriorityKey, ReplacementPolicy};
use crate::pqueue::IndexedHeap;

/// What distinguishes one key-ranked scheme from another: its
/// per-document state, whether it ages, its value on insert and on hit,
/// and its eviction-reason payload.
pub trait KeyRule: fmt::Debug + Send {
    /// Per-document state, kept in a slot-indexed vector; `()` for rules
    /// that compute their value from the request alone.
    type State: Copy + Default + fmt::Debug + Send;

    /// Whether keys age. An aging rule's key is `L + value`, and `L`
    /// rises to each victim's key; otherwise the key is the bare value
    /// and `L` stays 0.
    const AGES: bool;

    /// Human-readable label, e.g. `"GD*(P)"`.
    fn label(&self) -> String;

    /// A document enters the cache: its fresh state and its value.
    fn insert(&mut self, size: ByteSize, doc_type: DocumentType) -> (Self::State, f64);

    /// A tracked document was hit: updates its state and returns its new
    /// value. `doc_type` is `None` for an untyped hit.
    fn hit(
        &mut self,
        state: &mut Self::State,
        size: ByteSize,
        doc_type: Option<DocumentType>,
    ) -> f64;

    /// The audit record of a victim evicted at `key`, while the inflation
    /// value was `inflation`.
    fn reason(&self, state: &Self::State, key: f64, inflation: f64) -> Reason;
}

/// A replacement policy that evicts the document with the smallest key
/// under the rule `R`. Among equal keys the older touch (insert or hit)
/// evicts first, making every rule fully deterministic.
///
/// `M` is the [`MetricsSink`] receiving heap-cost, inflation and
/// eviction-reason events; the default `()` compiles the instrumentation
/// away entirely.
///
/// ```
/// use webcache_core::policy::{GdsRule, KeyedPolicy};
/// use webcache_core::{CostModel, ReplacementPolicy};
/// use webcache_trace::{ByteSize, DocId};
///
/// let mut gds = KeyedPolicy::from(GdsRule(CostModel::Constant));
/// gds.on_insert(DocId::new(1), ByteSize::new(2)); // H = 0 + 1/2
/// assert_eq!(gds.evict(), Some(DocId::new(1)));
/// assert_eq!(gds.inflation(), 0.5);
/// ```
#[derive(Debug)]
pub struct KeyedPolicy<R: KeyRule, M: MetricsSink = ()> {
    rule: R,
    heap: IndexedHeap<DocId, PriorityKey>,
    /// Per-slot rule state; meaningful while the slot is in the heap,
    /// which doubles as the presence check.
    states: Vec<R::State>,
    /// Inflation value `L`; stays 0 unless the rule ages.
    inflation: f64,
    /// Tie-breaking sequence number of the latest touch.
    seq: u64,
    sink: M,
}

impl<R: KeyRule> From<R> for KeyedPolicy<R> {
    fn from(rule: R) -> Self {
        KeyedPolicy::with_sink(rule, ())
    }
}

impl<R: KeyRule, M: MetricsSink> KeyedPolicy<R, M> {
    /// An empty policy ranking by `rule`, routing internal events into
    /// `sink`.
    pub fn with_sink(rule: R, sink: M) -> Self {
        KeyedPolicy {
            rule,
            heap: IndexedHeap::new(),
            states: Vec::new(),
            inflation: 0.0,
            seq: 0,
            sink,
        }
    }

    /// The key rule.
    pub fn rule(&self) -> &R {
        &self.rule
    }

    /// The current inflation value `L` (GreedyDual `L`, LFU-DA cache age).
    pub fn inflation(&self) -> f64 {
        self.inflation
    }

    /// The key currently assigned to `doc`, if tracked.
    pub fn key_of(&self, doc: DocId) -> Option<f64> {
        self.heap.key_of(doc).map(PriorityKey::value)
    }

    /// The heap key of `value` at the next sequence number.
    fn next_key(&mut self, value: f64) -> PriorityKey {
        self.seq += 1;
        // A non-aging key is the bare value, not `0.0 + value`: IEEE
        // turns `0.0 + -0.0` into `+0.0`, which orders differently.
        let value = if R::AGES {
            self.inflation + value
        } else {
            value
        };
        PriorityKey::new(value, self.seq)
    }

    fn insert(&mut self, doc: DocId, size: ByteSize, doc_type: DocumentType) {
        let (state, value) = self.rule.insert(size, doc_type);
        *slot_entry(&mut self.states, slot_of(doc), R::State::default()) = state;
        let key = self.next_key(value);
        let cost = self.heap.insert(doc, key);
        self.sink.heap_op(HeapOp::Insert, cost);
    }

    fn hit(&mut self, doc: DocId, size: ByteSize, doc_type: Option<DocumentType>) {
        if !self.heap.contains(doc) {
            return;
        }
        let state = &mut self.states[slot_of(doc)];
        let value = self.rule.hit(state, size, doc_type);
        let key = self.next_key(value);
        let cost = self.heap.update(doc, key);
        self.sink.heap_op(HeapOp::Update, cost);
    }

    /// The state of `doc`, if tracked.
    #[cfg(test)]
    pub(crate) fn state(&self, doc: DocId) -> Option<R::State> {
        self.heap.contains(doc).then(|| self.states[slot_of(doc)])
    }
}

impl<R: KeyRule, M: MetricsSink> ReplacementPolicy for KeyedPolicy<R, M> {
    fn label(&self) -> String {
        self.rule.label()
    }

    fn on_insert(&mut self, doc: DocId, size: ByteSize) {
        self.insert(doc, size, DocumentType::Other);
    }

    fn on_hit(&mut self, doc: DocId, size: ByteSize) {
        self.hit(doc, size, None);
    }

    fn on_insert_typed(&mut self, doc: DocId, size: ByteSize, doc_type: DocumentType) {
        self.insert(doc, size, doc_type);
    }

    fn on_hit_typed(&mut self, doc: DocId, size: ByteSize, doc_type: DocumentType) {
        self.hit(doc, size, Some(doc_type));
    }

    fn evict(&mut self) -> Option<DocId> {
        let (doc, key, cost) = self.heap.pop_min_counted()?;
        self.sink.heap_op(HeapOp::PopMin, cost);
        let key = key.value();
        let state = &self.states[slot_of(doc)];
        self.sink
            .evict_reason(self.rule.reason(state, key, self.inflation));
        if R::AGES {
            self.inflation = key;
            self.sink.inflation(key);
        }
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
        if self.states.len() < n {
            self.states.resize(n, R::State::default());
        }
    }

    fn prefetch(&self, doc: DocId) {
        self.heap.prefetch(doc);
        if mem::size_of::<R::State>() > 0 {
            prefetch_read(&self.states, slot_of(doc));
        }
    }
}
