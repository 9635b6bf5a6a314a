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
//! Lists are recency-ordered deques with lazy deletion (the [`Slru`]
//! generation idiom): per-slot state records where a document lives and
//! the generation stamp of its live entry; stale queue handles are
//! skipped on pop. Ghost lists are bounded by the resident document
//! count, matching ARC's directory bound of twice the cache size.
//!
//! [`Slru`]: super::Slru

use std::collections::VecDeque;

use webcache_obs::{MetricsSink, Reason};
use webcache_trace::{ByteSize, DocId};

use super::{slot_entry, slot_of, ReplacementPolicy};
use crate::prefetch::prefetch_read;

/// Per-slot location codes.
const NONE: u8 = 0;
const T1: u8 = 1;
const T2: u8 = 2;
const B1: u8 = 3;
const B2: u8 = 4;

/// Per-slot state: (location, generation of live entry, size in bytes).
type SlotState = (u8, u64, u64);

const EMPTY: SlotState = (NONE, 0, 0);

/// ARC replacement state. See the module-level documentation above.
///
/// `M` is the [`MetricsSink`] receiving eviction-reason events (queue
/// provenance: T1 or T2, with the adaptation target); the default `()`
/// compiles the instrumentation away entirely. ARC has no heap, so it
/// never emits heap-op events.
#[derive(Debug, Default)]
pub struct Arc<M: MetricsSink = ()> {
    /// Front = most recent. Entries are (doc, generation).
    t1: VecDeque<(DocId, u64)>,
    t2: VecDeque<(DocId, u64)>,
    b1: VecDeque<(DocId, u64)>,
    b2: VecDeque<(DocId, u64)>,
    state: Vec<SlotState>,
    t1_count: usize,
    t2_count: usize,
    b1_count: usize,
    b2_count: usize,
    t1_bytes: u64,
    t2_bytes: u64,
    /// Adaptation target: the byte budget T1 aspires to.
    p: u64,
    generation: u64,
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
            t1: VecDeque::new(),
            t2: VecDeque::new(),
            b1: VecDeque::new(),
            b2: VecDeque::new(),
            state: Vec::new(),
            t1_count: 0,
            t2_count: 0,
            b1_count: 0,
            b2_count: 0,
            t1_bytes: 0,
            t2_bytes: 0,
            p: 0,
            generation: 0,
            sink,
        }
    }

    /// The current byte-valued adaptation target for `T1` (diagnostic).
    pub fn recency_target(&self) -> u64 {
        self.p
    }

    fn state_of(&self, doc: DocId) -> SlotState {
        self.state.get(slot_of(doc)).copied().unwrap_or(EMPTY)
    }

    /// Stamps `doc` into `list` at the MRU end and records its state.
    /// The caller maintains the counters.
    fn push(&mut self, doc: DocId, loc: u8, size: u64) {
        self.generation += 1;
        let entry = (doc, self.generation);
        match loc {
            T1 => self.t1.push_front(entry),
            T2 => self.t2.push_front(entry),
            B1 => self.b1.push_front(entry),
            B2 => self.b2.push_front(entry),
            _ => unreachable!("push to NONE"),
        }
        *slot_entry(&mut self.state, slot_of(doc), EMPTY) = (loc, self.generation, size);
    }

    /// Pops the live LRU entry of a queue, skipping stale handles.
    fn pop_live(
        queue: &mut VecDeque<(DocId, u64)>,
        state: &[SlotState],
        loc: u8,
    ) -> Option<(DocId, u64)> {
        while let Some((doc, generation)) = queue.pop_back() {
            match state.get(slot_of(doc)) {
                Some(&(l, g, size)) if l == loc && g == generation => return Some((doc, size)),
                _ => {}
            }
        }
        None
    }

    /// Clears a document's state without touching the queues (lazy).
    fn clear_state(&mut self, doc: DocId) {
        if let Some(s) = self.state.get_mut(slot_of(doc)) {
            *s = EMPTY;
        }
    }

    fn resident_bytes(&self) -> u64 {
        self.t1_bytes + self.t2_bytes
    }

    /// Drops ghost LRU entries so each directory stays within one of the
    /// resident count (ARC's `2c` directory bound, count-valued here).
    fn trim_ghosts(&mut self) {
        let bound = self.t1_count + self.t2_count + 1;
        while self.b1_count > bound {
            let Some((doc, _)) = Self::pop_live(&mut self.b1, &self.state, B1) else {
                break;
            };
            self.clear_state(doc);
            self.b1_count -= 1;
        }
        while self.b2_count > bound {
            let Some((doc, _)) = Self::pop_live(&mut self.b2, &self.state, B2) else {
                break;
            };
            self.clear_state(doc);
            self.b2_count -= 1;
        }
    }
}

impl<M: MetricsSink> ReplacementPolicy for Arc<M> {
    fn label(&self) -> String {
        "ARC".to_owned()
    }

    fn on_insert(&mut self, doc: DocId, size: ByteSize) {
        let size = size.as_u64();
        match self.state_of(doc).0 {
            B1 => {
                // Recency ghost hit: grow the T1 target by this
                // document's size, scaled by the list-ratio learning
                // rate, clamped to what is observable as "capacity".
                let rate = (self.b2_count as u64 / self.b1_count.max(1) as u64).max(1);
                self.p = (self.p.saturating_add(rate.saturating_mul(size)))
                    .min(self.resident_bytes() + size);
                self.b1_count -= 1;
                self.push(doc, T2, size);
                self.t2_count += 1;
                self.t2_bytes += size;
            }
            B2 => {
                // Frequency ghost hit: shrink the T1 target.
                let rate = (self.b1_count as u64 / self.b2_count.max(1) as u64).max(1);
                self.p = self.p.saturating_sub(rate.saturating_mul(size));
                self.b2_count -= 1;
                self.push(doc, T2, size);
                self.t2_count += 1;
                self.t2_bytes += size;
            }
            NONE => {
                self.push(doc, T1, size);
                self.t1_count += 1;
                self.t1_bytes += size;
            }
            _ => unreachable!("insert of resident {doc}"),
        }
    }

    fn on_hit(&mut self, doc: DocId, _size: ByteSize) {
        let (loc, _, size) = self.state_of(doc);
        match loc {
            T1 => {
                self.t1_count -= 1;
                self.t1_bytes -= size;
                self.push(doc, T2, size);
                self.t2_count += 1;
                self.t2_bytes += size;
            }
            T2 => self.push(doc, T2, size),
            _ => {}
        }
    }

    fn evict(&mut self) -> Option<DocId> {
        // Evict from T1 when it meets its target (or T2 is empty),
        // remembering the victim in the matching ghost list. `>=` keeps
        // the initial `p = 0` state T1-draining, the classic behavior.
        let from_t1 = self.t1_count > 0 && (self.t1_bytes >= self.p || self.t2_count == 0);
        let (t1_bytes, target) = (self.t1_bytes as f64, self.p as f64);
        let victim = if from_t1 {
            let (doc, size) = Self::pop_live(&mut self.t1, &self.state, T1)?;
            self.t1_count -= 1;
            self.t1_bytes -= size;
            self.push(doc, B1, size);
            self.b1_count += 1;
            self.sink.evict_reason(Reason::arc_t1(t1_bytes, target));
            doc
        } else {
            let (doc, size) = Self::pop_live(&mut self.t2, &self.state, T2)?;
            self.t2_count -= 1;
            self.t2_bytes -= size;
            self.push(doc, B2, size);
            self.b2_count += 1;
            self.sink.evict_reason(Reason::arc_t2(t1_bytes, target));
            doc
        };
        self.trim_ghosts();
        Some(victim)
    }

    fn remove(&mut self, doc: DocId) {
        let (loc, _, size) = self.state_of(doc);
        match loc {
            T1 => {
                self.t1_count -= 1;
                self.t1_bytes -= size;
            }
            T2 => {
                self.t2_count -= 1;
                self.t2_bytes -= size;
            }
            B1 => self.b1_count -= 1,
            B2 => self.b2_count -= 1,
            _ => return,
        }
        self.clear_state(doc);
    }

    fn len(&self) -> usize {
        self.t1_count + self.t2_count
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
        let before = p.recency_target();
        p.on_insert(doc(0), sz(10)); // B1 ghost hit
        assert!(
            p.recency_target() > before,
            "B1 hit must grow the T1 target"
        );
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
        let before = p.recency_target();
        p.on_insert(doc(0), sz(10)); // B2 ghost hit
        assert!(
            p.recency_target() < before,
            "B2 hit must shrink the T1 target"
        );
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
        assert!(p.b1_count <= p.len() + 1, "B1 leaked: {}", p.b1_count);
        assert!(p.b2_count <= p.len() + 1, "B2 leaked: {}", p.b2_count);
    }

    #[test]
    fn reinsert_after_remove_starts_in_t1() {
        let mut p = Arc::new();
        p.on_insert(doc(1), sz(10));
        p.on_hit(doc(1), sz(10));
        p.remove(doc(1));
        p.on_insert(doc(1), sz(10));
        assert_eq!(p.t1_count, 1, "explicit removal clears ghost history");
    }
}
