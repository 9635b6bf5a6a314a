//! LRU-K (O'Neil, O'Neil & Weikum).
//!
//! LRU-K evicts the document whose K-th most recent reference lies
//! furthest in the past (its *backward K-distance*); documents with
//! fewer than K references have infinite distance and evict first,
//! ordered by their oldest reference. K = 1 degenerates to LRU; K = 2 —
//! the variant implemented by [`LruK::two`] and used in the comparative
//! cache literature — discriminates one-timers sharply, the same goal
//! SLRU and the second-hit admission filter pursue by other means.

use webcache_trace::{ByteSize, DocId};

use super::{slot_of, PriorityKey, ReplacementPolicy};
use crate::pqueue::IndexedHeap;
use crate::prefetch::prefetch_read;

/// LRU-K replacement state. See the module-level documentation above.
///
/// Reference histories are flattened into one vector of `k` fixed rows
/// per document slot (`history[slot*k .. slot*k+k]`, oldest first, with
/// `lens[slot]` valid entries); K is a small constant (2 in the classic
/// variant), so the left-shift on overflow is a couple of word moves.
#[derive(Debug)]
pub struct LruK {
    k: usize,
    /// Flattened last-K reference times, `k` slots per document row.
    history: Vec<u64>,
    /// Valid entries per document row; 0 = not tracked.
    lens: Vec<u32>,
    /// Min-heap on the backward K-distance key.
    heap: IndexedHeap<DocId, PriorityKey>,
    clock: u64,
}

impl Default for LruK {
    /// The classic K = 2 variant ([`LruK::two`]).
    fn default() -> Self {
        LruK::two()
    }
}

impl LruK {
    /// Creates an LRU-K tracker.
    ///
    /// # Panics
    ///
    /// Panics when `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "LRU-K needs K ≥ 1");
        LruK {
            k,
            history: Vec::new(),
            lens: Vec::new(),
            heap: IndexedHeap::new(),
            clock: 0,
        }
    }

    /// The classic K = 2 variant.
    pub fn two() -> Self {
        LruK::new(2)
    }

    /// The configured K.
    pub fn k(&self) -> usize {
        self.k
    }

    fn tracked(&self, doc: DocId) -> bool {
        self.lens.get(slot_of(doc)).copied().unwrap_or(0) > 0
    }

    fn touch(&mut self, doc: DocId) {
        self.clock += 1;
        let slot = slot_of(doc);
        if slot >= self.lens.len() {
            self.lens.resize(slot + 1, 0);
            self.history.resize((slot + 1) * self.k, 0);
        }
        let row = slot * self.k;
        let len = self.lens[slot] as usize;
        if len < self.k {
            self.history[row + len] = self.clock;
            self.lens[slot] = (len + 1) as u32;
        } else {
            // Row full: shift out the oldest reference.
            self.history.copy_within(row + 1..row + self.k, row);
            self.history[row + self.k - 1] = self.clock;
        }
        // Priority: the K-th most recent reference time when available —
        // the min-heap then pops the *oldest* K-th reference, i.e. the
        // largest backward K-distance. Documents with fewer than K
        // references have infinite distance: keyed below every full
        // history (-1e18 + first reference), so they evict first, oldest
        // first.
        let key = if self.lens[slot] as usize == self.k {
            PriorityKey::new(self.history[row] as f64, doc.as_u64())
        } else {
            PriorityKey::new(-1e18 + self.history[row] as f64, doc.as_u64())
        };
        self.heap.upsert(doc, key);
    }
}

impl ReplacementPolicy for LruK {
    fn label(&self) -> String {
        format!("LRU-{}", self.k)
    }

    fn on_insert(&mut self, doc: DocId, _size: ByteSize) {
        debug_assert!(!self.tracked(doc), "double insert of {doc}");
        self.touch(doc);
    }

    fn on_hit(&mut self, doc: DocId, _size: ByteSize) {
        if self.tracked(doc) {
            self.touch(doc);
        }
    }

    fn evict(&mut self) -> Option<DocId> {
        let (doc, _) = self.heap.pop_min()?;
        self.lens[slot_of(doc)] = 0;
        Some(doc)
    }

    fn remove(&mut self, doc: DocId) {
        if self.tracked(doc) {
            self.lens[slot_of(doc)] = 0;
            self.heap.remove(doc);
        }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn prefetch(&self, doc: DocId) {
        self.heap.prefetch(doc);
        prefetch_read(&self.lens, slot_of(doc));
        prefetch_read(&self.history, slot_of(doc).saturating_mul(self.k));
    }

    fn reserve_slots(&mut self, n: usize) {
        self.heap.reserve(n);
        if self.lens.len() < n {
            self.lens.resize(n, 0);
            self.history.resize(n * self.k, 0);
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
    fn one_timers_evict_before_twice_referenced() {
        let mut p = LruK::two();
        p.on_insert(doc(1), sz());
        p.on_hit(doc(1), sz()); // doc 1 has 2 references
        p.on_insert(doc(2), sz()); // doc 2 has 1 (more recent than doc 1!)
        assert_eq!(p.evict(), Some(doc(2)), "infinite K-distance evicts first");
        assert_eq!(p.evict(), Some(doc(1)));
    }

    #[test]
    fn among_full_histories_oldest_kth_reference_loses() {
        let mut p = LruK::two();
        p.on_insert(doc(1), sz()); // t1
        p.on_insert(doc(2), sz()); // t2
        p.on_hit(doc(1), sz()); // t3: doc1 history [t1, t3]
        p.on_hit(doc(2), sz()); // t4: doc2 history [t2, t4]
        p.on_hit(doc(1), sz()); // t5: doc1 history [t3, t5]
                                // K-th most recent: doc1 -> t3, doc2 -> t2; doc2 is older.
        assert_eq!(p.evict(), Some(doc(2)));
    }

    #[test]
    fn among_partial_histories_oldest_first_reference_loses() {
        let mut p = LruK::new(3);
        p.on_insert(doc(1), sz());
        p.on_insert(doc(2), sz());
        p.on_hit(doc(1), sz()); // still only 2 < K references
        assert_eq!(p.evict(), Some(doc(1)), "doc 1's first reference is older");
    }

    #[test]
    fn k_equal_one_behaves_like_lru() {
        use crate::policy::Lru;
        let mut lruk = LruK::new(1);
        let mut lru = Lru::new();
        let ops: [(u64, bool); 12] = [
            (1, true),
            (2, true),
            (3, true),
            (1, false),
            (4, true),
            (2, false),
            (5, true),
            (3, false),
            (1, false),
            (6, true),
            (4, false),
            (2, false),
        ];
        for (d, is_insert) in ops {
            if is_insert {
                lruk.on_insert(doc(d), sz());
                lru.on_insert(doc(d), sz());
            } else {
                lruk.on_hit(doc(d), sz());
                lru.on_hit(doc(d), sz());
            }
        }
        loop {
            let a = lruk.evict();
            let b = lru.evict();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn history_is_bounded_to_k() {
        let mut p = LruK::two();
        p.on_insert(doc(1), sz());
        for _ in 0..10 {
            p.on_hit(doc(1), sz());
        }
        assert_eq!(p.lens[slot_of(doc(1))], 2);
        assert_eq!(p.k(), 2);
        assert_eq!(p.label(), "LRU-2");
    }

    #[test]
    fn remove_and_reinsert_forget_history() {
        let mut p = LruK::two();
        p.on_insert(doc(1), sz());
        p.on_hit(doc(1), sz());
        p.remove(doc(1));
        p.on_insert(doc(1), sz());
        p.on_insert(doc(2), sz());
        p.on_hit(doc(2), sz());
        // doc 1 is back to a partial history; it evicts before doc 2.
        assert_eq!(p.evict(), Some(doc(1)));
    }

    #[test]
    #[should_panic(expected = "K ≥ 1")]
    fn zero_k_rejected() {
        let _ = LruK::new(0);
    }
}
