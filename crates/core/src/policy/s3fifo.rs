//! S3-FIFO: Simple, Scalable, Scan-resistant FIFO queues.
//!
//! S3-FIFO (Yang et al., SOSP '23) replaces LRU's reordering with three
//! plain FIFO queues: a *small* probationary queue absorbing new
//! documents, a *main* queue holding documents that earned a hit while
//! probationary, and a *ghost* queue remembering recently evicted
//! one-timers so their quick return goes straight to main. Each resident
//! document carries a 2-bit access counter instead of a recency
//! position; eviction scans from the FIFO tail, demoting or reinserting
//! hot entries (a CLOCK-style second chance) and evicting cold ones.
//!
//! The original sizes the small queue at 10% of cache *entries*; web
//! documents vary widely in size, so here the small queue targets 10% of
//! resident *bytes* (the policy never learns the cache's capacity — the
//! trait has no such channel — so resident bytes is the observable
//! proxy). The ghost queue is bounded by the resident document count.
//!
//! All queues use the lazy-deletion generation idiom shared with
//! [`Slru`](super::Slru) and [`Arc`](super::Arc): state lives in a
//! per-slot vector, queue handles are (doc, generation) pairs, and stale
//! handles are skipped on pop. FIFO insertion order *is* the queue
//! order.

use std::collections::VecDeque;

use webcache_obs::{MetricsSink, Reason};
use webcache_trace::{ByteSize, DocId};

use super::{slot_entry, slot_of, ReplacementPolicy};
use crate::prefetch::prefetch_read;

/// Per-slot location codes.
const NONE: u8 = 0;
const SMALL: u8 = 1;
const MAIN: u8 = 2;
const GHOST: u8 = 3;

/// Access counters saturate here (2 bits in the paper).
const FREQ_MAX: u8 = 3;

/// Per-slot state: (location, access count, generation, size in bytes).
type SlotState = (u8, u8, u64, u64);

const EMPTY: SlotState = (NONE, 0, 0, 0);

/// S3-FIFO replacement state. See the module-level documentation above.
///
/// `M` is the [`MetricsSink`] receiving eviction-reason events (queue
/// provenance: small or main, with the victim's 2-bit counter); the
/// default `()` compiles the instrumentation away entirely. S3-FIFO has
/// no heap, so it never emits heap-op events.
#[derive(Debug, Default)]
pub struct S3Fifo<M: MetricsSink = ()> {
    /// Front = newest. Entries are (doc, generation).
    small: VecDeque<(DocId, u64)>,
    main: VecDeque<(DocId, u64)>,
    ghost: VecDeque<(DocId, u64)>,
    state: Vec<SlotState>,
    small_count: usize,
    main_count: usize,
    ghost_count: usize,
    small_bytes: u64,
    main_bytes: u64,
    generation: u64,
    sink: M,
}

impl S3Fifo {
    /// Creates an empty S3-FIFO tracker.
    pub fn new() -> Self {
        S3Fifo::default()
    }
}

impl<M: MetricsSink> S3Fifo<M> {
    /// Like [`S3Fifo::new`], but routing eviction reasons into `sink`.
    pub fn with_sink(sink: M) -> Self {
        S3Fifo {
            small: VecDeque::new(),
            main: VecDeque::new(),
            ghost: VecDeque::new(),
            state: Vec::new(),
            small_count: 0,
            main_count: 0,
            ghost_count: 0,
            small_bytes: 0,
            main_bytes: 0,
            generation: 0,
            sink,
        }
    }

    fn state_of(&self, doc: DocId) -> SlotState {
        self.state.get(slot_of(doc)).copied().unwrap_or(EMPTY)
    }

    /// Stamps `doc` into a queue at the head. The caller maintains the
    /// counters.
    fn push(&mut self, doc: DocId, loc: u8, freq: u8, size: u64) {
        self.generation += 1;
        let entry = (doc, self.generation);
        match loc {
            SMALL => self.small.push_front(entry),
            MAIN => self.main.push_front(entry),
            GHOST => self.ghost.push_front(entry),
            _ => unreachable!("push to NONE"),
        }
        *slot_entry(&mut self.state, slot_of(doc), EMPTY) = (loc, freq, self.generation, size);
    }

    /// Pops the live tail entry of a queue, skipping stale handles.
    /// Returns (doc, freq, size).
    fn pop_live(
        queue: &mut VecDeque<(DocId, u64)>,
        state: &[SlotState],
        loc: u8,
    ) -> Option<(DocId, u8, u64)> {
        while let Some((doc, generation)) = queue.pop_back() {
            match state.get(slot_of(doc)) {
                Some(&(l, freq, g, size)) if l == loc && g == generation => {
                    return Some((doc, freq, size))
                }
                _ => {}
            }
        }
        None
    }

    fn clear_state(&mut self, doc: DocId) {
        if let Some(s) = self.state.get_mut(slot_of(doc)) {
            *s = EMPTY;
        }
    }

    /// Whether the next eviction should scan the small queue: small is
    /// above its 10%-of-resident-bytes target, or main is empty.
    fn evict_from_small(&self) -> bool {
        // Widened: a near-`u64::MAX` resident byte count must not wrap.
        let (small, main) = (u128::from(self.small_bytes), u128::from(self.main_bytes));
        self.small_count > 0 && (small * 10 > small + main || self.main_count == 0)
    }

    /// Drops ghost tail entries beyond the resident-count bound.
    fn trim_ghost(&mut self) {
        while self.ghost_count > self.small_count + self.main_count + 1 {
            let Some((doc, _, _)) = Self::pop_live(&mut self.ghost, &self.state, GHOST) else {
                break;
            };
            self.clear_state(doc);
            self.ghost_count -= 1;
        }
    }
}

impl<M: MetricsSink> ReplacementPolicy for S3Fifo<M> {
    fn label(&self) -> String {
        "S3-FIFO".to_owned()
    }

    fn on_insert(&mut self, doc: DocId, size: ByteSize) {
        let size = size.as_u64();
        match self.state_of(doc).0 {
            GHOST => {
                // A quick return after eviction: straight to main.
                self.ghost_count -= 1;
                self.push(doc, MAIN, 0, size);
                self.main_count += 1;
                self.main_bytes += size;
            }
            NONE => {
                self.push(doc, SMALL, 0, size);
                self.small_count += 1;
                self.small_bytes += size;
            }
            _ => unreachable!("insert of resident {doc}"),
        }
    }

    fn on_hit(&mut self, doc: DocId, _size: ByteSize) {
        // A hit only bumps the 2-bit counter; queue order never changes.
        if let Some(s) = self.state.get_mut(slot_of(doc)) {
            if s.0 == SMALL || s.0 == MAIN {
                s.1 = (s.1 + 1).min(FREQ_MAX);
            }
        }
    }

    fn evict(&mut self) -> Option<DocId> {
        loop {
            if self.evict_from_small() {
                let (doc, freq, size) = Self::pop_live(&mut self.small, &self.state, SMALL)?;
                self.small_count -= 1;
                self.small_bytes -= size;
                if freq > 0 {
                    // Earned a hit while probationary: promote to main
                    // (counter resets) and keep scanning.
                    self.push(doc, MAIN, 0, size);
                    self.main_count += 1;
                    self.main_bytes += size;
                    continue;
                }
                // Cold one-timer: evict, but remember it in ghost.
                self.push(doc, GHOST, 0, size);
                self.ghost_count += 1;
                self.trim_ghost();
                self.sink.evict_reason(Reason::s3_small(f64::from(freq)));
                return Some(doc);
            }
            if self.main_count > 0 {
                let (doc, freq, size) = Self::pop_live(&mut self.main, &self.state, MAIN)?;
                self.main_count -= 1;
                self.main_bytes -= size;
                if freq > 0 {
                    // Second chance: reinsert at the head, one credit
                    // spent.
                    self.push(doc, MAIN, freq - 1, size);
                    self.main_count += 1;
                    self.main_bytes += size;
                    continue;
                }
                // Main evictions are not ghosted: the document already
                // had its probationary chance.
                self.clear_state(doc);
                self.trim_ghost();
                self.sink.evict_reason(Reason::s3_main(f64::from(freq)));
                return Some(doc);
            }
            return None;
        }
    }

    fn remove(&mut self, doc: DocId) {
        let (loc, _, _, size) = self.state_of(doc);
        match loc {
            SMALL => {
                self.small_count -= 1;
                self.small_bytes -= size;
            }
            MAIN => {
                self.main_count -= 1;
                self.main_bytes -= size;
            }
            GHOST => self.ghost_count -= 1,
            _ => return,
        }
        self.clear_state(doc);
    }

    fn len(&self) -> usize {
        self.small_count + self.main_count
    }

    fn prefetch(&self, doc: DocId) {
        prefetch_read(&self.state, slot_of(doc));
    }

    fn reserve_slots(&mut self, n: usize) {
        if self.state.len() < n {
            self.state.resize(n, EMPTY);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(i: u64) -> DocId {
        DocId::new(i)
    }

    fn sz(n: u64) -> ByteSize {
        ByteSize::new(n)
    }

    #[test]
    fn one_timers_evict_in_fifo_order() {
        let mut p = S3Fifo::new();
        for i in 0..4 {
            p.on_insert(doc(i), sz(10));
        }
        let order: Vec<u64> = (0..4).map(|_| p.evict().unwrap().as_u64()).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(p.evict(), None);
    }

    #[test]
    fn probationary_hit_promotes_to_main() {
        let mut p = S3Fifo::new();
        p.on_insert(doc(0), sz(10));
        p.on_hit(doc(0), sz(10));
        for i in 1..5 {
            p.on_insert(doc(i), sz(10));
        }
        // The scan drains the cold one-timers; doc 0 rides out the scan
        // in main and evicts last.
        let order: Vec<u64> = (0..5).map(|_| p.evict().unwrap().as_u64()).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 0]);
    }

    #[test]
    fn ghost_return_goes_straight_to_main() {
        let mut p = S3Fifo::new();
        p.on_insert(doc(0), sz(10));
        p.on_insert(doc(1), sz(10));
        assert_eq!(p.evict(), Some(doc(0)), "doc 0 to ghost");
        p.on_insert(doc(0), sz(10)); // ghost hit
        assert_eq!(p.main_count, 1, "ghost return bypasses small");
        assert_eq!(p.evict(), Some(doc(1)), "small still drains first");
        assert_eq!(p.evict(), Some(doc(0)));
    }

    #[test]
    fn main_hits_get_second_chances() {
        let mut p = S3Fifo::new();
        p.on_insert(doc(0), sz(10));
        p.on_hit(doc(0), sz(10)); // probationary hit: will promote
        p.on_insert(doc(1), sz(10));
        assert_eq!(p.evict(), Some(doc(1)), "cold one-timer goes first");
        p.on_hit(doc(0), sz(10)); // now a main hit: one credit
        p.on_insert(doc(2), sz(10));
        assert_eq!(p.evict(), Some(doc(2)), "small drains before main");
        // Doc 0's credit buys one reinsertion; the scan then evicts it.
        assert_eq!(p.evict(), Some(doc(0)));
        assert_eq!(p.evict(), None);
    }

    #[test]
    fn remove_is_idempotent_and_clears_all_state() {
        let mut p = S3Fifo::new();
        for i in 0..6 {
            p.on_insert(doc(i), sz(100 * (i + 1)));
        }
        p.on_hit(doc(3), sz(400));
        p.remove(doc(5));
        p.remove(doc(5));
        p.remove(doc(99));
        assert_eq!(p.len(), 5);
        let mut drained = Vec::new();
        while let Some(v) = p.evict() {
            drained.push(v.as_u64());
        }
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ghost_queue_stays_bounded() {
        let mut p = S3Fifo::new();
        for i in 0..10_000u64 {
            p.on_insert(doc(i), sz(10));
            if p.len() > 4 {
                p.evict();
            }
        }
        assert!(
            p.ghost_count <= p.len() + 1,
            "ghost leaked: {}",
            p.ghost_count
        );
    }

    #[test]
    fn eviction_terminates_with_all_hot_entries() {
        let mut p = S3Fifo::new();
        for i in 0..8 {
            p.on_insert(doc(i), sz(10));
            for _ in 0..5 {
                p.on_hit(doc(i), sz(10));
            }
        }
        // Every entry is saturated-hot; the scan must still converge.
        let mut drained = 0;
        while p.evict().is_some() {
            drained += 1;
        }
        assert_eq!(drained, 8);
    }
}
