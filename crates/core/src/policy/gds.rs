//! GreedyDual-Size (Cao & Irani).
//!
//! The first scheme to account for the high variability of both document
//! sizes and retrieval costs in the web. Each cached document `p` carries
//!
//! ```text
//! H(p) = L + c(p) / s(p)
//! ```
//!
//! where `s(p)` is the document size, `c(p)` the retrieval cost under the
//! configured [`CostModel`], and `L` the inflation value (initially 0, set
//! to the victim's `H` on every eviction — equivalent to the textbook
//! formulation that subtracts `H_min` from all documents, but `O(1)`).
//! `H` is re-established from the *current* `L` whenever the document is
//! referenced, so recently used documents float above long-untouched ones.
//!
//! GDS is online-optimal with respect to its cost function but ignores how
//! *often* a document was used — the gap GreedyDual\* fills.

use webcache_obs::{HeapOp, MetricsSink};
use webcache_trace::{ByteSize, DocId};

use super::{PriorityKey, ReplacementPolicy};
use crate::cost::CostModel;
use crate::pqueue::DenseIndexedHeap;

/// GreedyDual-Size replacement state. See the module-level documentation above.
///
/// GDS recomputes `H` from the request's size on every touch, so the heap
/// itself is the only per-document state — membership doubles as the
/// presence check.
///
/// `M` is the [`MetricsSink`] receiving heap-cost and inflation events;
/// the default `()` compiles the instrumentation away entirely.
#[derive(Debug)]
pub struct Gds<M: MetricsSink = ()> {
    cost_model: CostModel,
    heap: DenseIndexedHeap<DocId, PriorityKey>,
    /// Inflation value `L`.
    inflation: f64,
    seq: u64,
    sink: M,
}

impl Default for Gds {
    /// GDS(1): the constant cost model, as in the paper's notation.
    fn default() -> Self {
        Gds::new(CostModel::Constant)
    }
}

impl Gds {
    /// Creates an empty GDS tracker under the given cost model.
    pub fn new(cost_model: CostModel) -> Self {
        Gds::with_sink(cost_model, ())
    }
}

impl<M: MetricsSink> Gds<M> {
    /// Like [`Gds::new`], but routing internal events into `sink`.
    pub fn with_sink(cost_model: CostModel, sink: M) -> Self {
        Gds {
            cost_model,
            heap: DenseIndexedHeap::new(),
            inflation: 0.0,
            seq: 0,
            sink,
        }
    }

    /// The current inflation value `L`.
    pub fn inflation(&self) -> f64 {
        self.inflation
    }

    /// The `H` value currently assigned to `doc`.
    pub fn h_value(&self, doc: DocId) -> Option<f64> {
        self.heap.key_of(doc).map(|k| k.value.get())
    }

    /// `c(p)/s(p)` — the utility density of a document.
    fn value(&self, size: ByteSize) -> f64 {
        // Degenerate zero-size documents get the best possible density so
        // they are never the reason for an eviction (they occupy no space).
        let s = size.as_f64().max(1.0);
        self.cost_model.cost(size) / s
    }

    fn touch(&mut self, doc: DocId, size: ByteSize, op: HeapOp) {
        self.seq += 1;
        let key = PriorityKey::new(self.inflation + self.value(size), self.seq);
        let cost = self.heap.upsert(doc, key);
        self.sink.heap_op(op, cost);
    }
}

impl<M: MetricsSink> ReplacementPolicy for Gds<M> {
    fn label(&self) -> String {
        format!("GDS({})", self.cost_model.tag())
    }

    fn on_insert(&mut self, doc: DocId, size: ByteSize) {
        debug_assert!(!self.heap.contains(doc), "double insert of {doc}");
        self.touch(doc, size, HeapOp::Insert);
    }

    fn on_hit(&mut self, doc: DocId, size: ByteSize) {
        if self.heap.contains(doc) {
            self.touch(doc, size, HeapOp::Update);
        }
    }

    fn evict(&mut self) -> Option<DocId> {
        let (doc, key, cost) = self.heap.pop_min_counted()?;
        self.sink.heap_op(HeapOp::PopMin, cost);
        let h = key.value.get();
        self.sink
            .evict_reason(webcache_obs::Reason::greedy_dual(h, self.inflation));
        self.inflation = h;
        self.sink.inflation(self.inflation);
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

    fn prefetch(&self, doc: DocId) {
        self.heap.prefetch(doc);
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
    fn constant_cost_prefers_small_documents() {
        let mut p = Gds::new(CostModel::Constant);
        p.on_insert(doc(1), ByteSize::new(100)); // H = 1/100
        p.on_insert(doc(2), ByteSize::new(10)); // H = 1/10
        assert_eq!(p.evict(), Some(doc(1)), "larger doc has smaller H");
    }

    #[test]
    fn packet_cost_softens_size_discrimination() {
        // Under packet cost, c grows with s, so the density gap between a
        // large and a small document is far smaller than under constant
        // cost.
        let small = ByteSize::new(1_000);
        let large = ByteSize::new(1_000_000);
        let ratio = |m: CostModel| (m.cost(small) / 1e3) / (m.cost(large) / 1e6);
        assert!(ratio(CostModel::Constant) > 100.0 * ratio(CostModel::Packet));
    }

    #[test]
    fn inflation_advances_and_lifts_new_entries() {
        let mut p = Gds::new(CostModel::Constant);
        p.on_insert(doc(1), ByteSize::new(2)); // H = 0.5
        assert_eq!(p.evict(), Some(doc(1)));
        assert_eq!(p.inflation(), 0.5);
        p.on_insert(doc(2), ByteSize::new(2));
        assert_eq!(p.h_value(doc(2)), Some(1.0), "H = L + c/s = 0.5 + 0.5");
    }

    #[test]
    fn reference_restores_h_from_current_inflation() {
        let mut p = Gds::new(CostModel::Constant);
        p.on_insert(doc(1), ByteSize::new(4)); // H = 0.25
        p.on_insert(doc(2), ByteSize::new(2)); // H = 0.5
        assert_eq!(p.evict(), Some(doc(1))); // L = 0.25
        p.on_insert(doc(3), ByteSize::new(1)); // H = 1.25
        p.on_hit(doc(2), ByteSize::new(2)); // H = 0.25 + 0.5 = 0.75
        assert_eq!(p.evict(), Some(doc(2)));
    }

    #[test]
    fn equal_h_ties_break_towards_older_touch() {
        let mut p = Gds::new(CostModel::Constant);
        p.on_insert(doc(1), ByteSize::new(10));
        p.on_insert(doc(2), ByteSize::new(10));
        assert_eq!(p.evict(), Some(doc(1)));
    }

    #[test]
    fn zero_size_documents_are_not_preferred_victims() {
        let mut p = Gds::new(CostModel::Constant);
        p.on_insert(doc(1), ByteSize::ZERO);
        p.on_insert(doc(2), ByteSize::new(1_000_000));
        assert_eq!(p.evict(), Some(doc(2)));
    }

    #[test]
    fn inflation_is_monotone() {
        let mut p = Gds::new(CostModel::Packet);
        let mut last = 0.0;
        for i in 0..50 {
            p.on_insert(doc(i), ByteSize::new(100 + i * 37));
            if i % 2 == 0 {
                p.evict();
                assert!(p.inflation() >= last, "inflation must never decrease");
                last = p.inflation();
            }
        }
    }
}
