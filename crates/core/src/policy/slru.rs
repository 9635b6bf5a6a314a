//! Segmented LRU.
//!
//! SLRU splits the recency order into a *probationary* and a *protected*
//! segment. Documents enter the probationary segment; a hit promotes a
//! document into the protected segment, whose capacity (counted in
//! documents here, as in the original disk-cache formulation) is bounded.
//! Overflowing the protected segment demotes its LRU document back to the
//! head of the probationary segment. Eviction always takes the
//! probationary LRU document.
//!
//! SLRU approximates frequency awareness with two bits of recency
//! history — cheaper than LFU-DA's heap, stronger than plain LRU against
//! the one-timer floods that dominate web traces (most documents in the
//! DFN/RTP workloads are referenced exactly once).

use std::collections::VecDeque;

use webcache_trace::{ByteSize, DocId};

use super::{slot_entry, slot_of, ReplacementPolicy};
use crate::prefetch::prefetch_read;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Probationary,
    Protected,
}

impl Segment {
    fn code(self) -> u8 {
        match self {
            Segment::Probationary => 1,
            Segment::Protected => 2,
        }
    }
}

/// Per-slot segment code: 0 = not tracked, 1 = probationary, 2 = protected.
const GONE: u8 = 0;

/// SLRU replacement state. See the module-level documentation above.
///
/// Both segments are kept as recency-ordered deques with lazy deletion
/// (stale handles are skipped on pop), plus a per-slot live-state vector
/// and running live counters (so `len`/`protected_len` are O(1)).
#[derive(Debug)]
pub struct Slru {
    /// Front = most recent. Entries are (doc, generation).
    probationary: VecDeque<(DocId, u64)>,
    protected: VecDeque<(DocId, u64)>,
    /// Per document slot: (segment code, generation of its live entry).
    state: Vec<(u8, u64)>,
    /// Live documents across both segments.
    live: usize,
    /// Live documents in the protected segment.
    protected_live: usize,
    /// Protected-segment capacity in documents.
    protected_capacity: usize,
    generation: u64,
}

impl Slru {
    /// Default protected-segment capacity.
    pub const DEFAULT_PROTECTED_CAPACITY: usize = 4_096;

    /// Creates an SLRU tracker with the default protected capacity.
    pub fn new() -> Self {
        Slru::with_protected_capacity(Self::DEFAULT_PROTECTED_CAPACITY)
    }

    /// Creates an SLRU tracker whose protected segment holds at most
    /// `capacity` documents.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn with_protected_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "protected capacity must be positive");
        Slru {
            probationary: VecDeque::new(),
            protected: VecDeque::new(),
            state: Vec::new(),
            live: 0,
            protected_live: 0,
            protected_capacity: capacity,
            generation: 0,
        }
    }

    /// Number of live documents in the protected segment.
    pub fn protected_len(&self) -> usize {
        self.protected_live
    }

    fn state_of(&self, doc: DocId) -> (u8, u64) {
        self.state.get(slot_of(doc)).copied().unwrap_or((GONE, 0))
    }

    /// Clears a live document's state, maintaining the counters.
    fn forget(&mut self, doc: DocId) {
        let slot = slot_of(doc);
        if self.state[slot].0 == Segment::Protected.code() {
            self.protected_live -= 1;
        }
        self.state[slot] = (GONE, 0);
        self.live -= 1;
    }

    fn push(&mut self, doc: DocId, segment: Segment) {
        self.generation += 1;
        let entry = (doc, self.generation);
        match segment {
            Segment::Probationary => self.probationary.push_front(entry),
            Segment::Protected => self.protected.push_front(entry),
        }
        let state = slot_entry(&mut self.state, slot_of(doc), (GONE, 0));
        let old = state.0;
        *state = (segment.code(), self.generation);
        if old == GONE {
            self.live += 1;
        }
        if old != Segment::Protected.code() && segment == Segment::Protected {
            self.protected_live += 1;
        } else if old == Segment::Protected.code() && segment != Segment::Protected {
            self.protected_live -= 1;
        }
    }

    /// Pops the live LRU entry of a queue, skipping stale handles.
    fn pop_live(
        queue: &mut VecDeque<(DocId, u64)>,
        state: &[(u8, u64)],
        segment: Segment,
    ) -> Option<DocId> {
        while let Some((doc, generation)) = queue.pop_back() {
            if state.get(slot_of(doc)).copied() == Some((segment.code(), generation)) {
                return Some(doc);
            }
        }
        None
    }

    fn demote_protected_overflow(&mut self) {
        while self.protected_live > self.protected_capacity {
            let Some(victim) = Self::pop_live(&mut self.protected, &self.state, Segment::Protected)
            else {
                break;
            };
            // Demotion: back to the *head* of the probationary segment.
            self.push(victim, Segment::Probationary);
        }
    }
}

impl Default for Slru {
    fn default() -> Self {
        Slru::new()
    }
}

impl ReplacementPolicy for Slru {
    fn label(&self) -> String {
        "SLRU".to_owned()
    }

    fn on_insert(&mut self, doc: DocId, _size: ByteSize) {
        debug_assert!(self.state_of(doc).0 == GONE, "double insert of {doc}");
        self.push(doc, Segment::Probationary);
    }

    fn on_hit(&mut self, doc: DocId, _size: ByteSize) {
        if self.state_of(doc).0 != GONE {
            self.push(doc, Segment::Protected);
            self.demote_protected_overflow();
        }
    }

    fn evict(&mut self) -> Option<DocId> {
        if let Some(doc) =
            Self::pop_live(&mut self.probationary, &self.state, Segment::Probationary)
        {
            self.forget(doc);
            return Some(doc);
        }
        // Probationary empty: fall back to the protected LRU.
        let doc = Self::pop_live(&mut self.protected, &self.state, Segment::Protected)?;
        self.forget(doc);
        Some(doc)
    }

    fn remove(&mut self, doc: DocId) {
        // Lazy deletion: clear the live state; stale queue handles are
        // skipped during pops.
        if self.state_of(doc).0 != GONE {
            self.forget(doc);
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn prefetch(&self, doc: DocId) {
        prefetch_read(&self.state, slot_of(doc));
    }

    fn reserve_slots(&mut self, n: usize) {
        if self.state.len() < n {
            self.state.resize(n, (GONE, 0));
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
    fn one_timers_evict_before_reused_documents() {
        let mut p = Slru::new();
        p.on_insert(doc(1), sz());
        p.on_hit(doc(1), sz()); // promoted
        for i in 2..6 {
            p.on_insert(doc(i), sz());
        }
        // Probationary order (LRU first): 2, 3, 4, 5. Doc 1 is protected.
        let order: Vec<u64> = (0..4).map(|_| p.evict().unwrap().as_u64()).collect();
        assert_eq!(order, vec![2, 3, 4, 5]);
        assert_eq!(p.evict(), Some(doc(1)), "protected falls back last");
    }

    #[test]
    fn protected_overflow_demotes_to_probationary() {
        let mut p = Slru::with_protected_capacity(2);
        for i in 1..=3 {
            p.on_insert(doc(i), sz());
            p.on_hit(doc(i), sz()); // promote all three
        }
        assert_eq!(p.protected_len(), 2, "capacity bounds the protected set");
        // Doc 1 was demoted to probationary head, so it evicts first.
        assert_eq!(p.evict(), Some(doc(1)));
    }

    #[test]
    fn repeated_hits_keep_document_protected() {
        let mut p = Slru::with_protected_capacity(1);
        p.on_insert(doc(1), sz());
        p.on_hit(doc(1), sz());
        p.on_hit(doc(1), sz());
        p.on_hit(doc(1), sz());
        assert_eq!(p.len(), 1);
        assert_eq!(p.protected_len(), 1);
        assert_eq!(p.evict(), Some(doc(1)));
        assert_eq!(p.evict(), None);
    }

    #[test]
    fn remove_is_lazy_but_correct() {
        let mut p = Slru::new();
        for i in 0..10 {
            p.on_insert(doc(i), sz());
        }
        p.on_hit(doc(3), sz());
        p.remove(doc(0));
        p.remove(doc(3));
        p.remove(doc(99)); // unknown: no-op
        assert_eq!(p.len(), 8);
        let mut drained = Vec::new();
        while let Some(v) = p.evict() {
            drained.push(v.as_u64());
        }
        drained.sort_unstable();
        assert_eq!(drained, vec![1, 2, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn reinsert_after_eviction_starts_probationary() {
        let mut p = Slru::new();
        p.on_insert(doc(1), sz());
        p.on_hit(doc(1), sz());
        assert_eq!(p.evict(), Some(doc(1)));
        p.on_insert(doc(1), sz());
        assert_eq!(p.protected_len(), 0, "history does not survive eviction");
    }

    #[test]
    #[should_panic(expected = "protected capacity")]
    fn zero_protected_capacity_rejected() {
        let _ = Slru::with_protected_capacity(0);
    }
}
