//! LRU-2 (O'Neil, O'Neil & Weikum).
//!
//! LRU-K evicts the document whose K-th most recent reference lies
//! furthest in the past (its *backward K-distance*); documents with
//! fewer than K references have infinite distance and evict first,
//! ordered by their oldest reference. K = 2 — the variant used in the
//! comparative cache literature — discriminates one-timers sharply, the
//! same goal SLRU and the second-hit admission filter pursue by other
//! means.
//!
//! As a [`KeyRule`], LRU-2 keys a document by its second-latest
//! reference time, so the smallest key has the largest backward
//! 2-distance. A one-timer's key is −1, below every reference time, and
//! the core's touch-sequence tie orders one-timers by their only
//! reference, oldest first. Reference times count the rule's own
//! touches (inserts and tracked hits) and stay exact in `f64` below
//! 2^53.

use std::mem;

use webcache_obs::Reason;
use webcache_trace::{ByteSize, DocumentType};

use super::KeyRule;

/// The key of a document referenced once: below every reference time.
const ONE_TIMER: f64 = -1.0;

/// LRU-2's key rule. See the module-level documentation above.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lru2Rule {
    /// Touches so far: the reference time of the latest touch.
    clock: u64,
}

impl KeyRule for Lru2Rule {
    /// The time of the document's latest reference.
    type State = u64;
    const AGES: bool = false;

    fn label(&self) -> String {
        "LRU-2".to_owned()
    }

    fn insert(&mut self, _size: ByteSize, _doc_type: DocumentType) -> (u64, f64) {
        self.clock += 1;
        (self.clock, ONE_TIMER)
    }

    fn hit(&mut self, latest: &mut u64, _size: ByteSize, _doc_type: Option<DocumentType>) -> f64 {
        self.clock += 1;
        mem::replace(latest, self.clock) as f64
    }

    fn reason(&self, &latest: &u64, key: f64, _inflation: f64) -> Reason {
        if key == ONE_TIMER {
            Reason::backward_k((self.clock - latest) as f64, 1.0)
        } else {
            Reason::backward_k((self.clock - key as u64) as f64, 2.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{KeyedPolicy, ReplacementPolicy};
    use webcache_obs::{FlightSink, ReasonChannel, ReasonKind};
    use webcache_trace::DocId;

    fn doc(i: u64) -> DocId {
        DocId::new(i)
    }

    fn sz() -> ByteSize {
        ByteSize::new(1)
    }

    #[test]
    fn one_timers_evict_before_twice_referenced() {
        let mut p = KeyedPolicy::from(Lru2Rule::default());
        p.on_insert(doc(1), sz());
        p.on_hit(doc(1), sz()); // doc 1 has 2 references
        p.on_insert(doc(2), sz()); // doc 2 has 1 (more recent than doc 1!)
        assert_eq!(p.evict(), Some(doc(2)), "infinite K-distance evicts first");
        assert_eq!(p.evict(), Some(doc(1)));
    }

    /// One-timers touched within a few requests of each other evict in
    /// the order of their only reference, whatever their slots.
    #[test]
    fn one_timers_evict_oldest_first() {
        let mut p = KeyedPolicy::from(Lru2Rule::default());
        for slot in (1..=10).rev() {
            p.on_insert(doc(slot), sz());
        }
        let order: Vec<u64> = std::iter::from_fn(|| p.evict().map(DocId::as_u64)).collect();
        assert_eq!(order, (1..=10).rev().collect::<Vec<_>>());
    }

    #[test]
    fn among_full_histories_oldest_kth_reference_loses() {
        let mut p = KeyedPolicy::from(Lru2Rule::default());
        p.on_insert(doc(1), sz()); // t1
        p.on_insert(doc(2), sz()); // t2
        p.on_hit(doc(1), sz()); // t3: doc1 history [t1, t3]
        p.on_hit(doc(2), sz()); // t4: doc2 history [t2, t4]
        p.on_hit(doc(1), sz()); // t5: doc1 history [t3, t5]
                                // K-th most recent: doc1 -> t3, doc2 -> t2; doc2 is older.
        assert_eq!(p.evict(), Some(doc(2)));
    }

    #[test]
    fn keys_are_the_second_latest_reference() {
        let mut p = KeyedPolicy::from(Lru2Rule::default());
        p.on_insert(doc(1), sz());
        assert_eq!(p.key_of(doc(1)), Some(ONE_TIMER));
        for _ in 0..10 {
            p.on_hit(doc(1), sz());
        }
        assert_eq!(p.state(doc(1)), Some(11));
        assert_eq!(p.key_of(doc(1)), Some(10.0));
        assert_eq!(p.label(), "LRU-2");
    }

    #[test]
    fn remove_and_reinsert_forget_history() {
        let mut p = KeyedPolicy::from(Lru2Rule::default());
        p.on_insert(doc(1), sz());
        p.on_hit(doc(1), sz());
        p.remove(doc(1));
        p.on_insert(doc(1), sz());
        p.on_insert(doc(2), sz());
        p.on_hit(doc(2), sz());
        // doc 1 is back to a partial history; it evicts before doc 2.
        assert_eq!(p.evict(), Some(doc(1)));
    }

    /// Each victim's reason counts the touches since its second-latest
    /// reference (or its only one) and how many references that is.
    #[test]
    fn every_eviction_reports_its_backward_distance() {
        let reasons = ReasonChannel::new();
        let mut p = KeyedPolicy::with_sink(Lru2Rule::default(), FlightSink::new(reasons.clone()));
        p.on_insert(doc(1), sz()); // t1
        p.on_insert(doc(2), sz()); // t2
        p.on_hit(doc(1), sz()); // t3: doc 1's second-latest reference is t1
        p.on_insert(doc(3), sz()); // t4
        p.on_hit(doc(3), sz()); // t5: doc 3's second-latest reference is t4
        let mut got = Vec::new();
        while let Some(victim) = p.evict() {
            let reason = reasons.pop().expect("one reason per victim");
            assert_eq!(reason.kind, ReasonKind::BackwardK);
            assert!(reason.a.is_finite() && reason.b.is_finite());
            got.push((victim.as_u64(), reason.a, reason.b));
        }
        // At t5: doc 2 is a one-timer referenced 3 touches ago; doc 1's
        // second-latest reference is 4 touches back, doc 3's 1.
        assert_eq!(got, vec![(2, 3.0, 1.0), (1, 4.0, 2.0), (3, 1.0, 2.0)]);
    }
}
