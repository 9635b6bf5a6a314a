//! Replacement policies.
//!
//! A [`ReplacementPolicy`] tracks per-document bookkeeping (recency,
//! frequency, GreedyDual `H` values) and answers eviction queries; the
//! [`Cache`](crate::cache::Cache) owns the actual store and byte
//! accounting and drives the policy through the trait's lifecycle hooks.
//!
//! The key-ranked schemes — LFU, SIZE, LFU-DA, LRU-2, GDS, GDSF and
//! GD\* — are one [`KeyedPolicy`] each, differing only in their
//! [`KeyRule`]. The recency and queue schemes — LRU, FIFO, SLRU, ARC and
//! S3-FIFO — keep every document on one of a few slot-indexed intrusive
//! lists (one `SlotLists` core, in `lists.rs`).

use std::fmt;

use serde::{Deserialize, Serialize};

use webcache_trace::{ByteSize, DocId, DocumentType};

use crate::cost::CostModel;

mod arc;
mod fifo;
mod gds;
mod gdsf;
mod gdstar;
mod keyed;
mod lfu;
mod lfuda;
mod lists;
mod lru;
mod lru2;
mod s3fifo;
mod size;
mod slru;

pub use arc::Arc;
pub use fifo::Fifo;
pub use gds::GdsRule;
pub use gdsf::GdsfRule;
pub use gdstar::{BetaEstimator, BetaMode, GdStar, GdStarRule};
pub use keyed::{KeyRule, KeyedPolicy};
pub use lfu::LfuRule;
pub use lfuda::LfuDaRule;
pub use lru::Lru;
pub use lru2::Lru2Rule;
pub use s3fifo::S3Fifo;
pub use size::SizeRule;
pub use slru::Slru;

/// Bookkeeping interface implemented by every replacement scheme.
///
/// The contract, enforced by the cache and checked by the policy
/// conformance tests:
///
/// * `on_insert` is called exactly once for a document entering the cache;
///   the document is not already tracked.
/// * `on_hit` is called for accesses to tracked documents.
/// * `evict` removes and returns the policy's victim; it must return a
///   currently tracked document, and applies any aging side effects
///   (GreedyDual / LFU-DA cache-age updates).
/// * `remove` untracks a document without aging side effects (used for
///   invalidation after a document modification).
pub trait ReplacementPolicy: fmt::Debug + Send {
    /// Human-readable label, e.g. `"GD*(P)"`.
    fn label(&self) -> String;

    /// A document of the given size was inserted into the cache.
    fn on_insert(&mut self, doc: DocId, size: ByteSize);

    /// A tracked document was requested and served from the cache.
    fn on_hit(&mut self, doc: DocId, size: ByteSize);

    /// Type-aware insert hook. The cache calls this variant (it knows
    /// every document's [`DocumentType`]); the default forwards to
    /// [`ReplacementPolicy::on_insert`]. [`KeyedPolicy`] overrides it to
    /// hand the type to its rule; only GD\* (per-type β) reads it.
    fn on_insert_typed(&mut self, doc: DocId, size: ByteSize, doc_type: DocumentType) {
        let _ = doc_type;
        self.on_insert(doc, size);
    }

    /// Type-aware hit hook; the default forwards to
    /// [`ReplacementPolicy::on_hit`].
    fn on_hit_typed(&mut self, doc: DocId, size: ByteSize, doc_type: DocumentType) {
        let _ = doc_type;
        self.on_hit(doc, size);
    }

    /// Chooses, untracks and returns the eviction victim.
    ///
    /// Returns `None` when no documents are tracked.
    fn evict(&mut self) -> Option<DocId>;

    /// Untracks `doc` without any aging side effects.
    ///
    /// Called when a document is invalidated (e.g. modified at the origin
    /// server). Unknown documents are ignored.
    fn remove(&mut self, doc: DocId);

    /// Number of tracked documents.
    fn len(&self) -> usize;

    /// Whether no documents are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Announces that document handles will be dense slots `0..n`, so
    /// slot-indexed state can be sized once up front instead of growing
    /// on demand. Purely an optimization hint; the default does nothing.
    fn reserve_slots(&mut self, n: usize) {
        let _ = n;
    }

    /// Hints the CPU to load `doc`'s per-slot state, a few requests
    /// before the cache touches it (see [`webcache_trace::prefetch`]).
    /// Purely a hint: it changes no state and accepts any handle, tracked
    /// or not, in range or not. The default does nothing;
    /// [`KeyedPolicy`] hints its heap position and rule state for all
    /// seven key-ranked schemes, and LRU, SLRU, ARC and S3-FIFO hint their
    /// list node.
    fn prefetch(&self, doc: DocId) {
        let _ = doc;
    }
}

/// The slot a document handle indexes in per-document vectors.
///
/// Policies store per-document state in plain vectors indexed by
/// `doc.as_u64()`: the [`Cache`](crate::Cache) interns every real
/// document id to a dense slot before calling the policy hooks, so these
/// values are small contiguous integers, never sparse 64-bit ids.
#[inline]
pub(crate) fn slot_of(doc: DocId) -> usize {
    doc.as_u64() as usize
}

/// Grows `vec` with `fill` until `index` is in bounds, then returns the
/// element — the on-demand counterpart of
/// [`ReplacementPolicy::reserve_slots`].
#[inline]
pub(crate) fn slot_entry<T: Copy>(vec: &mut Vec<T>, index: usize, fill: T) -> &mut T {
    if index >= vec.len() {
        vec.resize(index + 1, fill);
    }
    &mut vec[index]
}

/// A heap key combining a priority value with a deterministic tie-breaker.
///
/// Smaller values evict first; among equal values, the smaller `tie` (the
/// older event) evicts first, making every policy fully deterministic.
///
/// The key is one `u128` rank, so the heap orders two keys with one
/// integer compare: the high half is the value's bits remapped so that
/// unsigned order is [`f64::total_cmp`] order, the low half is `tie`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct PriorityKey(u128);

/// The `f64` sign bit.
const SIGN: u64 = 1 << 63;

impl PriorityKey {
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub(crate) fn new(value: f64, tie: u64) -> Self {
        assert!(!value.is_nan(), "priority value must not be NaN");
        let bits = value.to_bits();
        // A negative value flips every bit, so a larger magnitude ranks
        // lower; a positive one only sets the sign bit, ranking above
        // every negative.
        let rank = bits ^ (((bits as i64 >> 63) as u64) | SIGN);
        PriorityKey(u128::from(rank) << 64 | u128::from(tie))
    }

    /// The priority value, with the exact bits it was built from.
    pub(crate) fn value(self) -> f64 {
        let rank = (self.0 >> 64) as u64;
        let bits = if rank & SIGN != 0 { rank ^ SIGN } else { !rank };
        f64::from_bits(bits)
    }
}

/// Identifies a replacement scheme; used to configure sweeps and to
/// construct policies.
///
/// [`PolicyKind::build`] is the single construction entry point — callers
/// never juggle the per-scheme constructors (`GdStar::new(cost_model,
/// mode)`, `KeyedPolicy::from(rule)`, …) directly.
///
/// ```
/// use webcache_core::{CostModel, PolicyKind};
///
/// let policy = PolicyKind::GdStar(CostModel::Packet).build();
/// assert_eq!(policy.label(), "GD*(P)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Least Recently Used.
    Lru,
    /// First In First Out.
    Fifo,
    /// Least Frequently Used (no aging; prone to cache pollution).
    Lfu,
    /// Evict the largest document first (SIZE, Williams et al.).
    SizeBased,
    /// Least Frequently Used with Dynamic Aging.
    LfuDa,
    /// Segmented LRU (two recency segments; promotion on re-reference).
    Slru,
    /// LRU-2: evict by backward-2 reference distance (O'Neil et al.).
    LruTwo,
    /// GreedyDual-Size under the given cost model.
    Gds(CostModel),
    /// GreedyDual-Size-Frequency under the given cost model (the β = 1
    /// special case of GreedyDual\*, as deployed in Squid).
    Gdsf(CostModel),
    /// GreedyDual\* under the given cost model, with online-adaptive β.
    GdStar(CostModel),
    /// Adaptive Replacement Cache (Megiddo & Modha): recency/frequency
    /// balance learned online from ghost-list hits.
    Arc,
    /// S3-FIFO (Yang et al.): small/main/ghost FIFO queues with 2-bit
    /// access counters; scan-resistant without any reordering.
    S3Fifo,
}

impl PolicyKind {
    /// The four schemes of the paper's constant-cost experiments
    /// (Figure 2): LRU, LFU-DA, GDS(1), GD\*(1).
    pub const PAPER_CONSTANT: [PolicyKind; 4] = [
        PolicyKind::Lru,
        PolicyKind::LfuDa,
        PolicyKind::Gds(CostModel::Constant),
        PolicyKind::GdStar(CostModel::Constant),
    ];

    /// The four schemes of the paper's packet-cost experiments
    /// (Figure 3): LRU, LFU-DA, GDS(P), GD\*(P).
    pub const PAPER_PACKET: [PolicyKind; 4] = [
        PolicyKind::Lru,
        PolicyKind::LfuDa,
        PolicyKind::Gds(CostModel::Packet),
        PolicyKind::GdStar(CostModel::Packet),
    ];

    /// Every kind, for exhaustive tests.
    pub const ALL: [PolicyKind; 15] = [
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Lfu,
        PolicyKind::SizeBased,
        PolicyKind::LfuDa,
        PolicyKind::Slru,
        PolicyKind::LruTwo,
        PolicyKind::Gds(CostModel::Constant),
        PolicyKind::Gds(CostModel::Packet),
        PolicyKind::Gdsf(CostModel::Constant),
        PolicyKind::Gdsf(CostModel::Packet),
        PolicyKind::GdStar(CostModel::Constant),
        PolicyKind::GdStar(CostModel::Packet),
        PolicyKind::Arc,
        PolicyKind::S3Fifo,
    ];

    /// Constructs a fresh policy instance of this kind.
    ///
    /// This is the only construction path the rest of the workspace uses;
    /// the per-scheme constructors remain available for code that needs
    /// non-default parameters (a fixed or per-type β).
    pub fn build(&self) -> Box<dyn ReplacementPolicy> {
        self.build_instrumented(())
    }

    /// Constructs a fresh policy instance routing internal events
    /// (heap-operation costs, inflation steps) into `sink`.
    ///
    /// The seven key-ranked schemes (LFU, SIZE, LFU-DA, LRU-2, GDS, GDSF,
    /// GD\*) are all built as one [`KeyedPolicy`], which reports every
    /// heap operation, inflation step and eviction reason. LRU, FIFO and
    /// SLRU (list schemes) take no sink and report no events — the sink
    /// is dropped for them. ARC and S3-FIFO are list schemes too, so they
    /// report no heap events, but they do report eviction *reasons*
    /// (queue provenance) through the sink's `evict_reason` channel.
    /// `build_instrumented(())` is exactly [`PolicyKind::build`].
    pub fn build_instrumented<M: webcache_obs::MetricsSink>(
        &self,
        sink: M,
    ) -> Box<dyn ReplacementPolicy> {
        match *self {
            PolicyKind::Lru => Box::new(Lru::new()),
            PolicyKind::Fifo => Box::new(Fifo::new()),
            PolicyKind::Lfu => Box::new(KeyedPolicy::with_sink(LfuRule, sink)),
            PolicyKind::SizeBased => Box::new(KeyedPolicy::with_sink(SizeRule, sink)),
            PolicyKind::LfuDa => Box::new(KeyedPolicy::with_sink(LfuDaRule, sink)),
            PolicyKind::Slru => Box::new(Slru::new()),
            PolicyKind::LruTwo => Box::new(KeyedPolicy::with_sink(Lru2Rule::default(), sink)),
            PolicyKind::Gds(cost) => Box::new(KeyedPolicy::with_sink(GdsRule(cost), sink)),
            PolicyKind::Gdsf(cost) => Box::new(KeyedPolicy::with_sink(GdsfRule(cost), sink)),
            PolicyKind::GdStar(cost) => Box::new(KeyedPolicy::with_sink(
                GdStarRule::new(cost, BetaMode::default()),
                sink,
            )),
            PolicyKind::Arc => Box::new(Arc::with_sink(sink)),
            PolicyKind::S3Fifo => Box::new(S3Fifo::with_sink(sink)),
        }
    }

    /// Parses a policy name as used on command lines and in config
    /// files. Accepts the paper's labels (case-insensitive, `*` or
    /// `star`): `lru`, `fifo`, `lfu`, `size`, `lfu-da`, `slru`,
    /// `gds(1)`, `gds(p)`, `gdsf(1)`, `gdsf(p)`, `gd*(1)`, `gd*(p)`
    /// (parentheses optional).
    ///
    /// ```
    /// use webcache_core::{CostModel, PolicyKind};
    /// assert_eq!(PolicyKind::parse("gd*(p)"), Some(PolicyKind::GdStar(CostModel::Packet)));
    /// assert_eq!(PolicyKind::parse("LFU-DA"), Some(PolicyKind::LfuDa));
    /// assert_eq!(PolicyKind::parse("nonsense"), None);
    /// ```
    pub fn parse(name: &str) -> Option<PolicyKind> {
        let normalized: String = name
            .to_ascii_lowercase()
            .chars()
            .filter(|c| !matches!(c, '(' | ')' | '-' | '_' | ' '))
            .collect();
        let normalized = normalized.replace("star", "*");
        Some(match normalized.as_str() {
            "lru" => PolicyKind::Lru,
            "fifo" => PolicyKind::Fifo,
            "lfu" => PolicyKind::Lfu,
            "size" => PolicyKind::SizeBased,
            "lfuda" => PolicyKind::LfuDa,
            "slru" => PolicyKind::Slru,
            "lru2" | "lruk" => PolicyKind::LruTwo,
            "gds" | "gds1" => PolicyKind::Gds(CostModel::Constant),
            "gdsp" => PolicyKind::Gds(CostModel::Packet),
            "gdsf" | "gdsf1" => PolicyKind::Gdsf(CostModel::Constant),
            "gdsfp" => PolicyKind::Gdsf(CostModel::Packet),
            "gd*" | "gd*1" => PolicyKind::GdStar(CostModel::Constant),
            "gd*p" => PolicyKind::GdStar(CostModel::Packet),
            "arc" => PolicyKind::Arc,
            "s3fifo" => PolicyKind::S3Fifo,
            _ => return None,
        })
    }

    /// The label the paper uses for this scheme.
    pub fn label(self) -> String {
        match self {
            PolicyKind::Lru => "LRU".to_owned(),
            PolicyKind::Fifo => "FIFO".to_owned(),
            PolicyKind::Lfu => "LFU".to_owned(),
            PolicyKind::SizeBased => "SIZE".to_owned(),
            PolicyKind::LfuDa => "LFU-DA".to_owned(),
            PolicyKind::Slru => "SLRU".to_owned(),
            PolicyKind::LruTwo => "LRU-2".to_owned(),
            PolicyKind::Gds(cost) => format!("GDS({})", cost.tag()),
            PolicyKind::Gdsf(cost) => format!("GDSF({})", cost.tag()),
            PolicyKind::GdStar(cost) => format!("GD*({})", cost.tag()),
            PolicyKind::Arc => "ARC".to_owned(),
            PolicyKind::S3Fifo => "S3-FIFO".to_owned(),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(i: u64) -> DocId {
        DocId::new(i)
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(PolicyKind::Lru.label(), "LRU");
        assert_eq!(PolicyKind::LfuDa.label(), "LFU-DA");
        assert_eq!(PolicyKind::Gds(CostModel::Constant).label(), "GDS(1)");
        assert_eq!(PolicyKind::Gds(CostModel::Packet).label(), "GDS(P)");
        assert_eq!(PolicyKind::GdStar(CostModel::Constant).label(), "GD*(1)");
        assert_eq!(PolicyKind::GdStar(CostModel::Packet).to_string(), "GD*(P)");
    }

    #[test]
    fn build_labels_agree_with_kind() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.build().label(), kind.label());
        }
    }

    #[test]
    fn default_impls_match_the_paper_defaults() {
        assert_eq!(GdStar::default().label(), "GD*(1)");
        assert_eq!(Lru::default().label(), "LRU");
        assert_eq!(Slru::default().label(), "SLRU");
    }

    /// Trait-contract conformance for every policy: insert/hit/evict/remove
    /// keep `len` consistent, eviction drains exactly the tracked set, and
    /// removed documents are never chosen as victims.
    #[test]
    fn conformance_lifecycle() {
        for kind in PolicyKind::ALL {
            let mut p = kind.build();
            assert!(p.is_empty(), "{kind}");
            assert_eq!(p.evict(), None, "{kind}");

            for i in 0..10 {
                p.on_insert(doc(i), ByteSize::new(100 * (i + 1)));
            }
            assert_eq!(p.len(), 10, "{kind}");
            p.on_hit(doc(3), ByteSize::new(400));
            p.on_hit(doc(3), ByteSize::new(400));
            p.remove(doc(5));
            p.remove(doc(5)); // idempotent
            assert_eq!(p.len(), 9, "{kind}");

            let mut victims = Vec::new();
            while let Some(v) = p.evict() {
                victims.push(v.as_u64());
            }
            victims.sort_unstable();
            assert_eq!(
                victims,
                vec![0, 1, 2, 3, 4, 6, 7, 8, 9],
                "{kind}: eviction must drain exactly the tracked set"
            );
            assert!(p.is_empty(), "{kind}");
        }
    }

    /// `prefetch` is a pure hint: one op sequence replayed with and
    /// without prefetches of every kind of handle interleaved — tracked,
    /// untracked, beyond the reserved slots, `u32::MAX` — must pick the
    /// same victims and track the same count.
    #[test]
    fn prefetch_never_changes_decisions() {
        use std::collections::HashSet;

        for kind in PolicyKind::ALL {
            let mut plain = kind.build();
            let mut hinted = kind.build();
            plain.reserve_slots(32);
            hinted.reserve_slots(32);
            let mut tracked: HashSet<u64> = HashSet::new();
            for i in 0u64..600 {
                for handle in [i % 40, (i * 13 + 5) % 40, 40 + i % 9, u32::MAX as u64] {
                    hinted.prefetch(doc(handle));
                }
                // Slots 32..40 lie beyond the reservation.
                let slot = (i * 31) % 40;
                let size = ByteSize::new(64 + (i * 97) % 4096);
                if tracked.insert(slot) {
                    plain.on_insert(doc(slot), size);
                    hinted.on_insert(doc(slot), size);
                } else {
                    plain.on_hit(doc(slot), size);
                    hinted.on_hit(doc(slot), size);
                }
                if i % 7 == 0 {
                    let victim = plain.evict();
                    assert_eq!(victim, hinted.evict(), "{kind} diverged at step {i}");
                    if let Some(v) = victim {
                        tracked.remove(&v.as_u64());
                    }
                }
                if i % 23 == 0 {
                    let gone = (i * 7) % 40;
                    plain.remove(doc(gone));
                    hinted.remove(doc(gone));
                    tracked.remove(&gone);
                }
                assert_eq!(plain.len(), hinted.len(), "{kind} at step {i}");
            }
            while let Some(victim) = plain.evict() {
                assert_eq!(Some(victim), hinted.evict(), "{kind} drain diverged");
            }
            assert!(hinted.is_empty(), "{kind}");
        }
    }

    #[test]
    fn parse_roundtrips_every_label() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(&kind.label()), Some(kind), "{kind}");
        }
        // Forgiving spellings.
        assert_eq!(
            PolicyKind::parse("GDStar(P)"),
            Some(PolicyKind::GdStar(CostModel::Packet))
        );
        assert_eq!(
            PolicyKind::parse("gds_1"),
            Some(PolicyKind::Gds(CostModel::Constant))
        );
        assert_eq!(PolicyKind::parse("lfu da"), Some(PolicyKind::LfuDa));
        assert_eq!(PolicyKind::parse(""), None);
        assert_eq!(PolicyKind::parse("gdq"), None);
    }

    /// The integer rank orders exactly as `(f64::total_cmp, tie)` and
    /// decodes back to the value's bits, across the float edges: signed
    /// zeros, infinities, subnormals, extremes and values near `-1e18`,
    /// where one `f64` step spans 128 integers.
    #[test]
    fn priority_key_orders_by_value_then_tie() {
        let a = PriorityKey::new(1.0, 5);
        let b = PriorityKey::new(1.0, 6);
        let c = PriorityKey::new(2.0, 0);
        assert!(a < b && b < c);
        let values = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1e18,
            -1e18 + 1.0,
            -1e18 + 12_345.0,
            -1.0,
            -f64::MIN_POSITIVE,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            1.0,
            3.5,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ];
        let ties = [0, 1, 7, u64::MAX - 1, u64::MAX];
        let keys: Vec<(f64, u64)> = values
            .iter()
            .flat_map(|&v| ties.iter().map(move |&t| (v, t)))
            .collect();
        for &(v, t) in &keys {
            let key = PriorityKey::new(v, t);
            assert_eq!(key.value().to_bits(), v.to_bits(), "{v:e} round-trips");
            for &(w, u) in &keys {
                let expected = v.total_cmp(&w).then(t.cmp(&u));
                assert_eq!(
                    key.cmp(&PriorityKey::new(w, u)),
                    expected,
                    "{v:e}/{t} vs {w:e}/{u}"
                );
            }
        }
        assert!(PriorityKey::new(-0.0, u64::MAX) < PriorityKey::new(0.0, 0));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn priority_key_rejects_nan() {
        let _ = PriorityKey::new(f64::NAN, 0);
    }

    #[test]
    fn instrumented_build_matches_plain_build_and_records_events() {
        use std::collections::HashSet;
        use webcache_obs::{PolicyProbe, Registry};
        use webcache_trace::ByteSize;

        for kind in PolicyKind::ALL {
            let registry = Registry::new();
            let probe = PolicyProbe::register(&registry, &kind.label());
            let mut plain = kind.build();
            let mut probed = kind.build_instrumented(probe);
            // Drive both instances with the same access sequence: the sink
            // must not perturb policy decisions.
            let mut tracked: HashSet<u64> = HashSet::new();
            for i in 0u64..400 {
                let slot = (i * 31) % 40;
                let d = webcache_trace::DocId::new(slot);
                let s = ByteSize::new(64 + (i * 97) % 4096);
                if tracked.insert(slot) {
                    plain.on_insert(d, s);
                    probed.on_insert(d, s);
                } else {
                    plain.on_hit(d, s);
                    probed.on_hit(d, s);
                }
                if i % 9 == 0 {
                    let a = plain.evict();
                    let b = probed.evict();
                    assert_eq!(a, b, "{kind} diverged at step {i}");
                    if let Some(v) = a {
                        tracked.remove(&v.as_u64());
                    }
                }
                assert_eq!(plain.len(), probed.len(), "{kind} at step {i}");
            }
            // The key-ranked policies must have reported operations; the
            // others drop the sink or report only eviction reasons.
            let key_ranked = !matches!(
                kind,
                PolicyKind::Lru
                    | PolicyKind::Fifo
                    | PolicyKind::Slru
                    | PolicyKind::Arc
                    | PolicyKind::S3Fifo
            );
            let text = registry.prometheus_text();
            let ops_reported = text
                .lines()
                .filter(|l| l.starts_with("webcache_heap_ops_total{"))
                .any(|l| !l.ends_with(" 0"));
            assert_eq!(
                ops_reported, key_ranked,
                "{kind}: heap-op metrics mismatch\n{text}"
            );
        }
    }
}
