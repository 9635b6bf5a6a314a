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
//! The three queues are one [`SlotLists`], newest at each front, with
//! the access counter as each node's tag. FIFO insertion order *is* the
//! queue order. Ghost entries record size 0, since only their count
//! matters.

use webcache_obs::{MetricsSink, Reason};
use webcache_trace::{ByteSize, DocId};

use super::lists::SlotLists;
use super::ReplacementPolicy;

/// The queues.
const SMALL: u8 = 1;
const MAIN: u8 = 2;
const GHOST: u8 = 3;

/// Access counters saturate here (2 bits in the paper).
const FREQ_MAX: u8 = 3;

/// S3-FIFO replacement state. See the module-level documentation above.
///
/// `M` is the [`MetricsSink`] receiving eviction-reason events (queue
/// provenance: small or main, with the victim's 2-bit counter); the
/// default `()` compiles the instrumentation away entirely. S3-FIFO has
/// no heap, so it never emits heap-op events.
#[derive(Debug, Default)]
pub struct S3Fifo<M: MetricsSink = ()> {
    lists: SlotLists<3>,
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
            lists: SlotLists::default(),
            sink,
        }
    }

    /// Whether the next eviction should scan the small queue: small is
    /// above its 10%-of-resident-bytes target, or main is empty.
    fn evict_from_small(&self) -> bool {
        // Widened: a near-`u64::MAX` resident byte count must not wrap.
        let small = u128::from(self.lists.bytes(SMALL));
        let main = u128::from(self.lists.bytes(MAIN));
        self.lists.len(SMALL) > 0 && (small * 10 > small + main || self.lists.len(MAIN) == 0)
    }

    /// Drops ghost tail entries beyond the resident-count bound.
    fn trim_ghost(&mut self) {
        while self.lists.len(GHOST) > self.len() + 1 {
            self.lists.pop_back(GHOST);
        }
    }
}

impl<M: MetricsSink> ReplacementPolicy for S3Fifo<M> {
    fn label(&self) -> String {
        "S3-FIFO".to_owned()
    }

    fn on_insert(&mut self, doc: DocId, size: ByteSize) {
        let size = size.as_u64();
        match self.lists.list_of(doc) {
            GHOST => {
                // A quick return after eviction: straight to main.
                self.lists.unlink(doc);
                self.lists.push_front(MAIN, doc, 0, size);
            }
            0 => self.lists.push_front(SMALL, doc, 0, size),
            _ => unreachable!("insert of resident {doc}"),
        }
    }

    fn on_hit(&mut self, doc: DocId, _size: ByteSize) {
        // A hit only bumps the 2-bit counter; queue order never changes.
        if let Some(entry) = self.lists.entry(doc) {
            if entry.list != GHOST {
                self.lists.set_tag(doc, (entry.tag + 1).min(FREQ_MAX));
            }
        }
    }

    fn evict(&mut self) -> Option<DocId> {
        loop {
            if self.evict_from_small() {
                let (doc, entry) = self.lists.pop_back(SMALL)?;
                if entry.tag > 0 {
                    // Earned a hit while probationary: promote to main
                    // (counter resets) and keep scanning.
                    self.lists.push_front(MAIN, doc, 0, entry.size);
                    continue;
                }
                // Cold one-timer: evict, but remember it in ghost.
                self.lists.push_front(GHOST, doc, 0, 0);
                self.trim_ghost();
                self.sink
                    .evict_reason(Reason::s3_small(f64::from(entry.tag)));
                return Some(doc);
            }
            let (doc, entry) = self.lists.pop_back(MAIN)?;
            if entry.tag > 0 {
                // Second chance: reinsert at the head, one credit spent.
                self.lists.push_front(MAIN, doc, entry.tag - 1, entry.size);
                continue;
            }
            // Main evictions are not ghosted: the document already had
            // its probationary chance.
            self.trim_ghost();
            self.sink
                .evict_reason(Reason::s3_main(f64::from(entry.tag)));
            return Some(doc);
        }
    }

    fn remove(&mut self, doc: DocId) {
        self.lists.unlink(doc);
    }

    fn len(&self) -> usize {
        self.lists.len(SMALL) + self.lists.len(MAIN)
    }

    fn prefetch(&self, doc: DocId) {
        self.lists.prefetch(doc);
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
        assert_eq!(p.lists.len(MAIN), 1, "ghost return bypasses small");
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
            p.lists.len(GHOST) <= p.len() + 1,
            "ghost leaked: {}",
            p.lists.len(GHOST)
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
