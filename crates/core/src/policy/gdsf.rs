//! GreedyDual-Size-Frequency (Cherkasova).
//!
//! GDSF augments GreedyDual-Size with the in-cache reference count:
//!
//! ```text
//! H(p) = L + f(p) · c(p) / s(p)
//! ```
//!
//! It is exactly the β = 1 special case of GreedyDual\* — GD\* generalizes
//! the frequency weighting with the workload-adaptive exponent `1/β` —
//! and is the variant deployed in Squid as `heap GDSF`. It is included
//! both as a baseline in its own right and as the anchor point of the β
//! ablation (`GdStar::with_fixed_beta(cost, 1.0)` must agree with it).

use webcache_obs::{HeapOp, MetricsSink};
use webcache_trace::{ByteSize, DocId};

use super::{slot_entry, slot_of, PriorityKey, ReplacementPolicy};
use crate::cost::CostModel;
use crate::pqueue::DenseIndexedHeap;
use crate::prefetch::prefetch_read;

/// GDSF replacement state. See the module-level documentation above.
///
/// `M` is the [`MetricsSink`] receiving heap-cost and inflation events;
/// the default `()` compiles the instrumentation away entirely.
#[derive(Debug)]
pub struct Gdsf<M: MetricsSink = ()> {
    cost_model: CostModel,
    heap: DenseIndexedHeap<DocId, PriorityKey>,
    /// Per-slot `(size, frequency)`; frequency 0 = not tracked.
    docs: Vec<(ByteSize, u64)>,
    inflation: f64,
    seq: u64,
    sink: M,
}

impl Default for Gdsf {
    /// GDSF(1): the constant cost model, as in the paper's notation.
    fn default() -> Self {
        Gdsf::new(CostModel::Constant)
    }
}

impl Gdsf {
    /// Creates an empty GDSF tracker under the given cost model.
    pub fn new(cost_model: CostModel) -> Self {
        Gdsf::with_sink(cost_model, ())
    }
}

impl<M: MetricsSink> Gdsf<M> {
    /// Like [`Gdsf::new`], but routing internal events into `sink`.
    pub fn with_sink(cost_model: CostModel, sink: M) -> Self {
        Gdsf {
            cost_model,
            heap: DenseIndexedHeap::new(),
            docs: Vec::new(),
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

    fn push_key(&mut self, doc: DocId, freq: u64, size: ByteSize, op: HeapOp) {
        let s = size.as_f64().max(1.0);
        let value = freq as f64 * self.cost_model.cost(size) / s;
        self.seq += 1;
        let cost = self
            .heap
            .upsert(doc, PriorityKey::new(self.inflation + value, self.seq));
        self.sink.heap_op(op, cost);
    }
}

impl<M: MetricsSink> ReplacementPolicy for Gdsf<M> {
    fn label(&self) -> String {
        format!("GDSF({})", self.cost_model.tag())
    }

    fn on_insert(&mut self, doc: DocId, size: ByteSize) {
        let state = slot_entry(&mut self.docs, slot_of(doc), (ByteSize::ZERO, 0));
        debug_assert!(state.1 == 0, "double insert of {doc}");
        *state = (size, 1);
        self.push_key(doc, 1, size, HeapOp::Insert);
    }

    fn on_hit(&mut self, doc: DocId, size: ByteSize) {
        let Some(state) = self.docs.get_mut(slot_of(doc)).filter(|s| s.1 > 0) else {
            return;
        };
        state.0 = size;
        state.1 += 1;
        let (size, freq) = *state;
        self.push_key(doc, freq, size, HeapOp::Update);
    }

    fn evict(&mut self) -> Option<DocId> {
        let (doc, key, cost) = self.heap.pop_min_counted()?;
        self.sink.heap_op(HeapOp::PopMin, cost);
        self.docs[slot_of(doc)] = (ByteSize::ZERO, 0);
        let h = key.value.get();
        self.sink
            .evict_reason(webcache_obs::Reason::greedy_dual(h, self.inflation));
        self.inflation = h;
        self.sink.inflation(self.inflation);
        Some(doc)
    }

    fn remove(&mut self, doc: DocId) {
        if let Some(state) = self.docs.get_mut(slot_of(doc)).filter(|s| s.1 > 0) {
            *state = (ByteSize::ZERO, 0);
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
        prefetch_read(&self.docs, slot_of(doc));
    }

    fn reserve_slots(&mut self, n: usize) {
        self.heap.reserve(n);
        if self.docs.len() < n {
            self.docs.resize(n, (ByteSize::ZERO, 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::GdStar;

    fn doc(i: u64) -> DocId {
        DocId::new(i)
    }

    #[test]
    fn frequency_and_size_both_matter() {
        let mut p = Gdsf::new(CostModel::Constant);
        p.on_insert(doc(1), ByteSize::new(100)); // H = 1/100
        p.on_insert(doc(2), ByteSize::new(100)); // H = 1/100
        p.on_hit(doc(1), ByteSize::new(100)); // H = 2/100
        assert_eq!(p.evict(), Some(doc(2)), "less frequent doc goes first");

        let mut p = Gdsf::new(CostModel::Constant);
        p.on_insert(doc(1), ByteSize::new(1_000));
        p.on_insert(doc(2), ByteSize::new(10));
        assert_eq!(p.evict(), Some(doc(1)), "larger doc goes first");
    }

    #[test]
    fn agrees_with_gdstar_beta_one() {
        // GDSF must produce the same eviction sequence as GD* with β = 1
        // on any shared input (same tie-breaking discipline).
        use crate::policy::ReplacementPolicy;
        let mut gdsf = Gdsf::new(CostModel::Packet);
        let mut gdstar = GdStar::with_fixed_beta(CostModel::Packet, 1.0);

        let mut state = 42u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let mut tracked = std::collections::HashSet::new();
        for _ in 0..2000 {
            let d = doc(next() % 50);
            let s = ByteSize::new(next() % 100_000 + 1);
            match next() % 5 {
                0..=2 => {
                    if tracked.insert(d) {
                        gdsf.on_insert(d, s);
                        gdstar.on_insert(d, s);
                    } else {
                        gdsf.on_hit(d, s);
                        gdstar.on_hit(d, s);
                    }
                }
                3 => {
                    let a = gdsf.evict();
                    let b = gdstar.evict();
                    assert_eq!(a, b, "eviction sequences diverged");
                    if let Some(v) = a {
                        tracked.remove(&v);
                    }
                }
                _ => {
                    gdsf.remove(d);
                    gdstar.remove(d);
                    tracked.remove(&d);
                }
            }
            assert_eq!(gdsf.len(), gdstar.len());
        }
    }

    #[test]
    fn inflation_monotone_and_label() {
        let mut p = Gdsf::new(CostModel::Constant);
        assert_eq!(p.label(), "GDSF(1)");
        p.on_insert(doc(1), ByteSize::new(4));
        p.on_insert(doc(2), ByteSize::new(2));
        assert_eq!(p.evict(), Some(doc(1)));
        let l1 = p.inflation();
        assert_eq!(p.evict(), Some(doc(2)));
        assert!(p.inflation() >= l1);
    }

    #[test]
    fn hit_on_untracked_doc_is_ignored() {
        let mut p = Gdsf::new(CostModel::Constant);
        p.on_hit(doc(9), ByteSize::new(10));
        assert!(p.is_empty());
        assert_eq!(p.h_value(doc(9)), None);
    }
}
