//! Cache admission control.
//!
//! Replacement decides *what to evict*; admission decides *what to let
//! in*. The proxy literature around the paper studied both: size
//! thresholds (LRU-THOLD — never cache documents above a limit, an
//! admission-side approximation of the SIZE policy) and frequency
//! filters (cache only on the second request, suppressing the one-timer
//! majority that both DFN and RTP exhibit). The modern cohort adds
//! TinyLFU: a [`FrequencySketch`]-backed filter that admits a candidate
//! only when its recent popularity clears a threshold, composable with
//! any replacement policy (`tinylfu+slru` is the W-TinyLFU layout).
//!
//! [`AdmissionSpec`] names a filter; it is the admission half of a
//! [`PolicySpec`](crate::PolicySpec). [`AdmissionController`] holds the
//! named filter's state, one variant per spec, and the
//! [`Cache`](crate::Cache) consults it before storing a fetched document;
//! rejected documents are forwarded to the client without being stored.
//! The set of filters is closed, so the controller is an enum the cache
//! matches on, not a trait object.

use std::collections::{HashMap, VecDeque};

use serde::{Deserialize, Serialize};

use webcache_obs::Reason;
use webcache_trace::{ByteSize, DocId};

use crate::sketch::FrequencySketch;

/// Admission policy selector: the declarative, serializable frontend.
///
/// [`AdmissionController::new`] builds the filter a spec names; the spec
/// itself carries no runtime state.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum AdmissionSpec {
    /// Admit everything (the paper's setting).
    #[default]
    All,
    /// Admit only documents of at most this size (LRU-THOLD).
    MaxSize(ByteSize),
    /// Admit a document only on its second fetch within a sliding window
    /// of recently seen fetches (a one-timer filter). The `usize` is the
    /// window capacity in distinct documents.
    SecondHit(usize),
    /// TinyLFU: admit under cache pressure only when the Count-Min
    /// frequency sketch estimates the candidate was requested at least
    /// twice in the recent sample window. While the cache has room,
    /// everything is admitted (the sketch still records).
    TinyLfu,
}

impl AdmissionSpec {
    /// A short label for composed policy names (`"TinyLFU"` in
    /// `"TinyLFU+SLRU"`), or `None` for [`AdmissionSpec::All`], which is
    /// invisible in labels.
    pub fn label_prefix(&self) -> Option<String> {
        match self {
            AdmissionSpec::All => None,
            AdmissionSpec::MaxSize(limit) => Some(format!("MAX:{}", limit.as_u64())),
            AdmissionSpec::SecondHit(window) => Some(format!("2HIT:{window}")),
            AdmissionSpec::TinyLfu => Some("TinyLFU".to_string()),
        }
    }
}

/// The frequency estimate a pressured TinyLFU candidate must reach.
pub const TINYLFU_ADMIT_THRESHOLD: u32 = 2;

/// One cache's admission filter: the state of the filter an
/// [`AdmissionSpec`] names, one variant per spec. Each variant keeps what
/// its latest verdict rests on, the flight recorder's reason payload.
#[derive(Debug)]
pub enum AdmissionController {
    /// [`AdmissionSpec::All`]: admits everything.
    All,
    /// [`AdmissionSpec::MaxSize`]: admits documents of at most `limit`
    /// bytes.
    MaxSize {
        /// The largest admitted size.
        limit: ByteSize,
        /// The size the latest verdict consulted.
        last_size: ByteSize,
    },
    /// [`AdmissionSpec::SecondHit`]: admits a document on its second
    /// fetch within the window.
    SecondHit(SecondHitFilter),
    /// [`AdmissionSpec::TinyLfu`]: every consulted candidate and every
    /// recorded hit feeds the sketch; under pressure a candidate's
    /// estimated recent frequency must reach [`TINYLFU_ADMIT_THRESHOLD`]
    /// (this is at least its second appearance in the sample window).
    TinyLfu {
        /// Recent frequencies of candidates and hits.
        sketch: FrequencySketch,
        /// The estimate the latest verdict consulted.
        last_estimate: u32,
    },
}

impl AdmissionController {
    /// The filter `spec` names, with empty state.
    ///
    /// # Panics
    ///
    /// Panics when a [`AdmissionSpec::SecondHit`] window is zero.
    pub fn new(spec: AdmissionSpec) -> Self {
        match spec {
            AdmissionSpec::All => AdmissionController::All,
            AdmissionSpec::MaxSize(limit) => AdmissionController::MaxSize {
                limit,
                last_size: ByteSize::ZERO,
            },
            AdmissionSpec::SecondHit(window) => {
                AdmissionController::SecondHit(SecondHitFilter::new(window))
            }
            AdmissionSpec::TinyLfu => AdmissionController::TinyLfu {
                sketch: FrequencySketch::new(),
                last_estimate: 0,
            },
        }
    }

    /// The spec this filter was built from.
    pub fn spec(&self) -> AdmissionSpec {
        match self {
            AdmissionController::All => AdmissionSpec::All,
            AdmissionController::MaxSize { limit, .. } => AdmissionSpec::MaxSize(*limit),
            AdmissionController::SecondHit(filter) => AdmissionSpec::SecondHit(filter.window),
            AdmissionController::TinyLfu { .. } => AdmissionSpec::TinyLfu,
        }
    }

    /// Decides whether a fetched document may enter the cache, updating
    /// the filter's state. `pressure` is `true` when storing the document
    /// would force evictions: TinyLFU guards only a contended cache and
    /// admits freely without pressure, while the hard predicates ignore
    /// the flag.
    pub fn admit(&mut self, doc: DocId, size: ByteSize, pressure: bool) -> bool {
        match self {
            AdmissionController::All => true,
            AdmissionController::MaxSize { limit, last_size } => {
                *last_size = size;
                size <= *limit
            }
            AdmissionController::SecondHit(filter) => filter.admit(doc),
            AdmissionController::TinyLfu {
                sketch,
                last_estimate,
            } => {
                *last_estimate = sketch.record(doc.as_u64());
                !pressure || *last_estimate >= TINYLFU_ADMIT_THRESHOLD
            }
        }
    }

    /// Observes a cache hit for `doc`. TinyLFU records it, so its sketch
    /// sees the whole access stream and not just the miss-fills; the
    /// other filters ignore hits.
    #[inline]
    pub fn record(&mut self, doc: DocId) {
        if let AdmissionController::TinyLfu { sketch, .. } = self {
            sketch.record(doc.as_u64());
        }
    }

    /// Number of documents the second-hit window remembers (`0` for the
    /// other filters).
    pub fn remembered(&self) -> usize {
        match self {
            AdmissionController::SecondHit(filter) => filter.pending.len(),
            _ => 0,
        }
    }

    /// The reason payload behind the latest admission verdict, for the
    /// flight recorder (the none-kind for [`AdmissionController::All`]).
    pub fn last_reason(&self) -> Reason {
        match self {
            AdmissionController::All => Reason::none(),
            AdmissionController::MaxSize { limit, last_size } => {
                Reason::max_size(last_size.as_f64(), limit.as_f64())
            }
            AdmissionController::SecondHit(filter) => Reason::second_hit(filter.last_seen),
            AdmissionController::TinyLfu { last_estimate, .. } => Reason::tinylfu(
                f64::from(*last_estimate),
                f64::from(TINYLFU_ADMIT_THRESHOLD),
            ),
        }
    }
}

/// The one-timer filter's state ([`AdmissionSpec::SecondHit`]).
///
/// Remembers up to `window` recently fetched documents in a
/// seq-stamped map + FIFO; a refetch while remembered is admitted and
/// consumes the entry. Memory is O(window) regardless of catalog size,
/// so the endless `WorkloadStream` cannot grow it.
#[derive(Debug)]
pub struct SecondHitFilter {
    window: usize,
    /// Live entries: slot → stamp of its `order` entry.
    pending: HashMap<u32, u64>,
    /// FIFO of (slot, stamp); entries whose stamp no longer matches
    /// `pending` are stale and skipped.
    order: VecDeque<(u32, u64)>,
    /// Monotone stamp distinguishing re-insertions of the same slot.
    seq: u64,
    /// Whether the latest verdict found the doc remembered
    /// (flight-recorder reason payload).
    last_seen: bool,
}

impl SecondHitFilter {
    /// A filter with the given window (distinct documents).
    ///
    /// # Panics
    ///
    /// Panics when `window` is zero.
    fn new(window: usize) -> Self {
        assert!(window > 0, "second-hit window must be positive");
        SecondHitFilter {
            window,
            pending: HashMap::new(),
            order: VecDeque::new(),
            seq: 0,
            last_seen: false,
        }
    }

    /// Admits `doc` if the window remembers it, otherwise remembers it.
    fn admit(&mut self, doc: DocId) -> bool {
        let slot = doc.as_u64() as u32;
        if self.pending.remove(&slot).is_some() {
            // Second fetch: admit. (The stale entry in `order` is
            // skipped when it surfaces.)
            self.last_seen = true;
            return true;
        }
        self.last_seen = false;
        self.seq += 1;
        self.pending.insert(slot, self.seq);
        self.order.push_back((slot, self.seq));
        // Bound the memory to the window, skipping stale entries.
        while self.pending.len() > self.window {
            let Some((old, stamp)) = self.order.pop_front() else {
                break;
            };
            if self.pending.get(&old) == Some(&stamp) {
                self.pending.remove(&old);
            }
        }
        // The FIFO itself can accumulate stale entries faster than the
        // window bound drains them; compact it amortized-O(1).
        if self.order.len() >= 2 * self.window + 2 {
            let pending = &self.pending;
            self.order
                .retain(|&(slot, stamp)| pending.get(&slot) == Some(&stamp));
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(i: u64) -> DocId {
        DocId::new(i)
    }

    #[test]
    fn admit_all() {
        let mut c = AdmissionController::new(AdmissionSpec::All);
        assert!(c.admit(doc(1), ByteSize::from_gib(10), true));
        assert_eq!(c.remembered(), 0);
    }

    #[test]
    fn max_size_threshold() {
        let mut c = AdmissionController::new(AdmissionSpec::MaxSize(ByteSize::new(1000)));
        assert!(
            c.admit(doc(1), ByteSize::new(1000), true),
            "boundary is inclusive"
        );
        assert!(!c.admit(doc(2), ByteSize::new(1001), true));
    }

    #[test]
    fn second_hit_admits_on_refetch() {
        let mut c = AdmissionController::new(AdmissionSpec::SecondHit(100));
        assert!(
            !c.admit(doc(1), ByteSize::new(10), true),
            "first fetch rejected"
        );
        assert!(
            c.admit(doc(1), ByteSize::new(10), true),
            "second fetch admitted"
        );
        // After admission the memory entry is consumed: a later fetch
        // (e.g. after eviction) starts the cycle over.
        assert!(!c.admit(doc(1), ByteSize::new(10), true));
    }

    #[test]
    fn second_hit_window_forgets_old_documents() {
        let mut c = AdmissionController::new(AdmissionSpec::SecondHit(2));
        c.admit(doc(1), ByteSize::new(1), true);
        c.admit(doc(2), ByteSize::new(1), true);
        c.admit(doc(3), ByteSize::new(1), true); // evicts doc 1 from the window
        assert_eq!(c.remembered(), 2);
        assert!(
            !c.admit(doc(1), ByteSize::new(1), true),
            "doc 1 was forgotten"
        );
    }

    #[test]
    fn second_hit_skips_stale_order_entries() {
        let mut c = AdmissionController::new(AdmissionSpec::SecondHit(2));
        c.admit(doc(1), ByteSize::new(1), true);
        // Consuming doc 1 leaves a stale `order` entry for it; filling
        // the window must still retain the two live docs.
        assert!(c.admit(doc(1), ByteSize::new(1), true));
        c.admit(doc(2), ByteSize::new(1), true);
        c.admit(doc(3), ByteSize::new(1), true);
        assert_eq!(c.remembered(), 2);
        assert!(
            c.admit(doc(2), ByteSize::new(1), true),
            "doc 2 must still be live"
        );
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = AdmissionController::new(AdmissionSpec::SecondHit(0));
    }

    /// Regression for the pre-redesign slow leak: the second-hit memory
    /// must stay O(window) while the catalog of distinct documents grows
    /// without bound (the endless `WorkloadStream` scenario).
    #[test]
    fn second_hit_memory_stays_bounded_under_growing_catalog() {
        let window = 64;
        let mut c = AdmissionController::new(AdmissionSpec::SecondHit(window));
        for i in 0..1_000_000u64 {
            c.admit(doc(i), ByteSize::new(1), true);
            assert!(c.remembered() <= window);
        }
        let AdmissionController::SecondHit(filter) = c else {
            panic!("a second-hit spec builds the second-hit filter");
        };
        // The internal FIFO must be bounded too, not just the live map.
        assert!(
            filter.order.len() <= 2 * window + 2,
            "order FIFO leaked: {} entries",
            filter.order.len()
        );
        assert_eq!(filter.pending.len(), window);
    }

    #[test]
    fn tinylfu_admits_freely_without_pressure_and_gates_under_pressure() {
        let mut c = AdmissionController::new(AdmissionSpec::TinyLfu);
        assert!(
            c.admit(doc(1), ByteSize::new(10), false),
            "no pressure: admit and record"
        );
        assert!(
            !c.admit(doc(2), ByteSize::new(10), true),
            "cold candidate rejected under pressure"
        );
        assert!(
            c.admit(doc(2), ByteSize::new(10), true),
            "second appearance clears the gate"
        );
        // Doc 1 was recorded during its pressure-free admission, so it
        // passes a later pressured re-check.
        assert!(c.admit(doc(1), ByteSize::new(10), true));
    }

    #[test]
    fn tinylfu_record_counts_toward_admission() {
        let mut c = AdmissionController::new(AdmissionSpec::TinyLfu);
        c.record(doc(9));
        assert!(
            c.admit(doc(9), ByteSize::new(10), true),
            "a recorded hit plus the candidate probe reaches the threshold"
        );
    }

    #[test]
    fn each_spec_builds_its_own_filter() {
        for spec in [
            AdmissionSpec::All,
            AdmissionSpec::MaxSize(ByteSize::new(4096)),
            AdmissionSpec::SecondHit(16),
            AdmissionSpec::TinyLfu,
        ] {
            assert_eq!(AdmissionController::new(spec).spec(), spec);
        }
    }

    #[test]
    fn spec_label_prefixes() {
        assert_eq!(AdmissionSpec::All.label_prefix(), None);
        assert_eq!(
            AdmissionSpec::TinyLfu.label_prefix().as_deref(),
            Some("TinyLFU")
        );
        assert_eq!(
            AdmissionSpec::SecondHit(16).label_prefix().as_deref(),
            Some("2HIT:16")
        );
        assert_eq!(
            AdmissionSpec::MaxSize(ByteSize::new(4096))
                .label_prefix()
                .as_deref(),
            Some("MAX:4096")
        );
    }
}
