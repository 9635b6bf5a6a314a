//! Adaptive Replacement Cache (ARC).
//!
//! ARC (Megiddo & Modha, FAST '03) balances recency against frequency
//! with four lists: `T1` (resident, seen once recently), `T2` (resident,
//! seen at least twice), and ghost lists `B1`/`B2` remembering documents
//! recently evicted from each side. A hit in a ghost list is evidence
//! the corresponding side deserves more room, so an adaptation target
//! `p` — the byte budget `T1` aspires to — moves toward the side that
//! would have hit. The result is scan resistance (one-timers churn `T1`
//! without displacing the proven `T2` set) with no tuning knob.
//!
//! The original operates on uniform blocks; web documents vary over five
//! orders of magnitude, so this adaptation is byte-valued: `p` is a byte
//! target, and a ghost hit moves it by the hit document's size scaled by
//! the usual `|B2|/|B1|` (or inverse) ratio. The policy never learns the
//! cache's capacity (the trait has no such channel), so `p` is clamped
//! to the currently resident bytes — the observable proxy for capacity.
//!
//! The four lists are one [`SlotLists`], most recent at each front. It
//! keeps every list's length and byte total; ghost entries record size
//! 0, since only their count matters. Ghost lists are bounded by the
//! resident document count, matching ARC's directory bound of twice the
//! cache size.

use webcache_obs::{MetricsSink, Reason};
use webcache_trace::{ByteSize, DocId};

use super::lists::SlotLists;
use super::ReplacementPolicy;

/// The lists: resident `T1`/`T2`, ghost `B1`/`B2`.
const T1: u8 = 1;
const T2: u8 = 2;
const B1: u8 = 3;
const B2: u8 = 4;

/// ARC replacement state. See the module-level documentation above.
///
/// `M` is the [`MetricsSink`] receiving eviction-reason events (queue
/// provenance: T1 or T2, with the adaptation target); the default `()`
/// compiles the instrumentation away entirely. ARC has no heap, so it
/// never emits heap-op events.
#[derive(Debug, Default)]
pub struct Arc<M: MetricsSink = ()> {
    lists: SlotLists<4>,
    /// Adaptation target: the byte budget T1 aspires to.
    p: u64,
    sink: M,
}

impl Arc {
    /// Creates an empty ARC tracker.
    pub fn new() -> Self {
        Arc::default()
    }
}

impl<M: MetricsSink> Arc<M> {
    /// Like [`Arc::new`], but routing eviction reasons into `sink`.
    pub fn with_sink(sink: M) -> Self {
        Arc {
            lists: SlotLists::default(),
            p: 0,
            sink,
        }
    }

    fn resident_bytes(&self) -> u64 {
        self.lists.bytes(T1) + self.lists.bytes(T2)
    }

    /// Drops ghost LRU entries so each directory stays within one of the
    /// resident count (ARC's `2c` directory bound, count-valued here).
    fn trim_ghosts(&mut self) {
        let bound = self.len() + 1;
        for ghost in [B1, B2] {
            while self.lists.len(ghost) > bound {
                self.lists.pop_back(ghost);
            }
        }
    }
}

impl<M: MetricsSink> ReplacementPolicy for Arc<M> {
    fn label(&self) -> String {
        "ARC".to_owned()
    }

    fn on_insert(&mut self, doc: DocId, size: ByteSize) {
        let size = size.as_u64();
        let (b1, b2) = (self.lists.len(B1) as u64, self.lists.len(B2) as u64);
        match self.lists.list_of(doc) {
            B1 => {
                // Recency ghost hit: grow the T1 target by this
                // document's size, scaled by the list-ratio learning
                // rate, clamped to what is observable as "capacity".
                let rate = (b2 / b1.max(1)).max(1);
                self.p = (self.p.saturating_add(rate.saturating_mul(size)))
                    .min(self.resident_bytes() + size);
                self.lists.unlink(doc);
                self.lists.push_front(T2, doc, 0, size);
            }
            B2 => {
                // Frequency ghost hit: shrink the T1 target.
                let rate = (b1 / b2.max(1)).max(1);
                self.p = self.p.saturating_sub(rate.saturating_mul(size));
                self.lists.unlink(doc);
                self.lists.push_front(T2, doc, 0, size);
            }
            0 => self.lists.push_front(T1, doc, 0, size),
            _ => unreachable!("insert of resident {doc}"),
        }
    }

    fn on_hit(&mut self, doc: DocId, _size: ByteSize) {
        if matches!(self.lists.list_of(doc), T1 | T2) {
            self.lists.move_to_front(doc, T2);
        }
    }

    fn evict(&mut self) -> Option<DocId> {
        // Evict from T1 when it meets its target (or T2 is empty),
        // remembering the victim in the matching ghost list. `>=` keeps
        // the initial `p = 0` state T1-draining, the classic behavior.
        let t1_bytes = self.lists.bytes(T1);
        let from_t1 = self.lists.len(T1) > 0 && (t1_bytes >= self.p || self.lists.len(T2) == 0);
        let (t1_bytes, target) = (t1_bytes as f64, self.p as f64);
        let (list, ghost, reason) = if from_t1 {
            (T1, B1, Reason::arc_t1(t1_bytes, target))
        } else {
            (T2, B2, Reason::arc_t2(t1_bytes, target))
        };
        let (victim, _) = self.lists.pop_back(list)?;
        self.lists.push_front(ghost, victim, 0, 0);
        self.sink.evict_reason(reason);
        self.trim_ghosts();
        Some(victim)
    }

    fn remove(&mut self, doc: DocId) {
        self.lists.unlink(doc);
    }

    fn len(&self) -> usize {
        self.lists.len(T1) + self.lists.len(T2)
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
    fn fresh_inserts_evict_fifo_like_from_t1() {
        let mut p = Arc::new();
        for i in 0..4 {
            p.on_insert(doc(i), sz(10));
        }
        assert_eq!(p.len(), 4);
        assert_eq!(p.evict(), Some(doc(0)), "T1 LRU evicts first");
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn hits_promote_to_t2_and_survive_scans() {
        let mut p = Arc::new();
        p.on_insert(doc(0), sz(10));
        p.on_hit(doc(0), sz(10)); // promoted to T2
        for i in 1..5 {
            p.on_insert(doc(i), sz(10));
        }
        // A scan of one-timers must drain T1 before touching doc 0.
        let order: Vec<u64> = (0..4).map(|_| p.evict().unwrap().as_u64()).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
        assert_eq!(p.evict(), Some(doc(0)));
        assert_eq!(p.evict(), None);
    }

    #[test]
    fn ghost_hit_reinserts_into_t2_and_adapts_target() {
        let mut p = Arc::new();
        p.on_insert(doc(0), sz(10));
        p.on_insert(doc(1), sz(10));
        assert_eq!(p.evict(), Some(doc(0)), "doc 0 to B1");
        let before = p.p;
        p.on_insert(doc(0), sz(10)); // B1 ghost hit
        assert!(p.p > before, "B1 hit must grow the T1 target");
        // Doc 0 is now in T2: the remaining T1 one-timer evicts first.
        assert_eq!(p.evict(), Some(doc(1)));
        assert_eq!(p.evict(), Some(doc(0)));
    }

    #[test]
    fn b2_ghost_hit_shrinks_the_target() {
        let mut p = Arc::new();
        p.on_insert(doc(0), sz(10));
        p.on_hit(doc(0), sz(10)); // T2
        assert_eq!(p.evict(), Some(doc(0)), "doc 0 to B2");
        // Grow p first via a B1 round-trip so the shrink is observable.
        p.on_insert(doc(1), sz(10));
        p.evict();
        p.on_insert(doc(1), sz(10));
        let before = p.p;
        p.on_insert(doc(0), sz(10)); // B2 ghost hit
        assert!(p.p < before, "B2 hit must shrink the T1 target");
    }

    #[test]
    fn remove_is_idempotent_and_clears_all_state() {
        let mut p = Arc::new();
        for i in 0..6 {
            p.on_insert(doc(i), sz(100 * (i + 1)));
        }
        p.on_hit(doc(3), sz(400));
        p.remove(doc(5));
        p.remove(doc(5));
        p.remove(doc(99)); // unknown: no-op
        assert_eq!(p.len(), 5);
        let mut drained = Vec::new();
        while let Some(v) = p.evict() {
            drained.push(v.as_u64());
        }
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ghost_lists_stay_bounded() {
        let mut p = Arc::new();
        for i in 0..10_000u64 {
            p.on_insert(doc(i), sz(10));
            if p.len() > 4 {
                p.evict();
            }
        }
        assert!(
            p.lists.len(B1) <= p.len() + 1,
            "B1 leaked: {}",
            p.lists.len(B1)
        );
        assert!(
            p.lists.len(B2) <= p.len() + 1,
            "B2 leaked: {}",
            p.lists.len(B2)
        );
    }

    #[test]
    fn reinsert_after_remove_starts_in_t1() {
        let mut p = Arc::new();
        p.on_insert(doc(1), sz(10));
        p.on_hit(doc(1), sz(10));
        p.remove(doc(1));
        p.on_insert(doc(1), sz(10));
        assert_eq!(p.lists.len(T1), 1, "explicit removal clears ghost history");
    }
}
