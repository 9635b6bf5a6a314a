//! Property tests for the cache engine: the capacity invariant, policy
//! conformance under arbitrary op sequences, heap correctness against a
//! reference model, LRU-2 against a brute-force model, and GreedyDual
//! aging laws.

use std::collections::BTreeMap;

use proptest::prelude::*;

use webcache_core::policy::{
    BetaMode, GdStarRule, GdsRule, GdsfRule, KeyRule, KeyedPolicy, LfuDaRule, LfuRule, SizeRule,
};
use webcache_core::pqueue::IndexedHeap;
use webcache_core::{AdmissionSpec, Cache, CostModel, PolicyKind, ReplacementPolicy};
use webcache_obs::{FlightSink, Reason, ReasonChannel};
use webcache_trace::{ByteSize, DocId, DocumentType};

#[derive(Debug, Clone)]
enum Op {
    Access(u64),
    Insert(u64, u8, u32),
    Invalidate(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..64).prop_map(Op::Access),
        (0u64..64, 0u8..5, 1u32..5_000).prop_map(|(d, t, s)| Op::Insert(d, t, s)),
        (0u64..64).prop_map(Op::Invalidate),
    ]
}

fn arb_policy() -> impl Strategy<Value = PolicyKind> {
    prop::sample::select(PolicyKind::ALL.to_vec())
}

fn apply(cache: &mut Cache, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Access(d) => {
                cache.access(DocId::new(d));
            }
            Op::Insert(d, t, s) => {
                // Simulate the proxy: insert only on miss (access first).
                let doc = DocId::new(d);
                if !cache.access(doc) {
                    cache.insert(doc, DocumentType::ALL[t as usize], ByteSize::new(s as u64));
                }
            }
            Op::Invalidate(d) => {
                cache.invalidate(DocId::new(d));
            }
        }
    }
}

/// Documents the LRU-2 model test draws from.
const LRU2_DOCS: u64 = 256;

/// LRU-2 by brute force, sharing no code with the policy: each tracked
/// document's latest and second-latest reference time, counted in
/// inserts and tracked hits.
#[derive(Debug, Default)]
struct Lru2Model {
    clock: u64,
    refs: BTreeMap<u64, (u64, Option<u64>)>,
}

impl Lru2Model {
    fn insert(&mut self, doc: u64) {
        self.clock += 1;
        self.refs.insert(doc, (self.clock, None));
    }

    fn hit(&mut self, doc: u64) {
        if let Some(refs) = self.refs.get_mut(&doc) {
            self.clock += 1;
            *refs = (self.clock, Some(refs.0));
        }
    }

    /// The one-timer with the oldest reference if there is one, else the
    /// document with the oldest second-latest reference, with the reason
    /// LRU-2 must give for it.
    fn evict(&mut self) -> Option<(u64, Reason)> {
        let (&victim, &(latest, second)) =
            self.refs
                .iter()
                .min_by_key(|(_, &(latest, second))| match second {
                    None => (0, latest),
                    Some(second) => (1, second),
                })?;
        self.refs.remove(&victim);
        let (since, refs) = match second {
            None => (latest, 1.0),
            Some(second) => (second, 2.0),
        };
        Some((
            victim,
            Reason::backward_k((self.clock - since) as f64, refs),
        ))
    }
}

/// Drives `p` through `(doc, size, action, type)` ops — insert-or-hit,
/// hit, invalidate, evict — checking the aging laws after every op.
fn check_aging<R: KeyRule>(
    mut p: KeyedPolicy<R>,
    ops: &[(u64, u32, u8, u8)],
) -> Result<(), TestCaseError> {
    let mut tracked = std::collections::BTreeSet::new();
    let mut last_inflation = 0.0f64;
    for &(doc, size, action, ty) in ops {
        let doc = DocId::new(doc);
        let size = ByteSize::new(u64::from(size));
        let ty = DocumentType::ALL[ty as usize];
        match action {
            0 if tracked.insert(doc) => p.on_insert_typed(doc, size, ty),
            0 | 1 => p.on_hit_typed(doc, size, ty),
            2 => {
                p.remove(doc);
                tracked.remove(&doc);
            }
            _ => {
                if let Some(victim) = p.evict() {
                    tracked.remove(&victim);
                }
            }
        }
        let inflation = p.inflation();
        prop_assert!(inflation >= last_inflation, "{}: L decreased", p.label());
        last_inflation = inflation;
        if !R::AGES {
            prop_assert_eq!(inflation, 0.0, "{}: L moved", p.label());
            continue;
        }
        for &d in &tracked {
            let key = p.key_of(d).expect("tracked document has a key");
            prop_assert!(
                key >= inflation,
                "{}: key {} < L {}",
                p.label(),
                key,
                inflation
            );
        }
    }
    Ok(())
}

proptest! {
    /// Under arbitrary op sequences, every policy keeps the cache within
    /// capacity with consistent byte/occupancy accounting.
    #[test]
    fn cache_invariants_hold_for_all_policies(
        kind in arb_policy(),
        capacity in 1_000u64..50_000,
        ops in prop::collection::vec(arb_op(), 1..400),
    ) {
        let mut cache = Cache::new(ByteSize::new(capacity), kind.build(), AdmissionSpec::All);
        apply(&mut cache, &ops);
        cache.debug_validate();
        prop_assert!(cache.used_bytes() <= cache.capacity());
    }

    /// Cache behaviour is a pure function of the op sequence.
    #[test]
    fn cache_is_deterministic(
        kind in arb_policy(),
        ops in prop::collection::vec(arb_op(), 1..200),
    ) {
        let run = || {
            let mut cache = Cache::new(ByteSize::new(10_000), kind.build(), AdmissionSpec::All);
            apply(&mut cache, &ops);
            let mut docs: Vec<u64> = (0..64)
                .filter(|&d| cache.contains(DocId::new(d)))
                .collect();
            docs.sort_unstable();
            (docs, cache.used_bytes())
        };
        prop_assert_eq!(run(), run());
    }

    /// The indexed heap agrees with a BTreeMap reference model under
    /// arbitrary insert/update/pop/remove interleavings.
    #[test]
    fn heap_matches_reference_model(
        ops in prop::collection::vec((0u8..4, 0u32..32, 0u64..1_000), 1..300),
    ) {
        let mut heap: IndexedHeap<u32, (u64, u64)> = IndexedHeap::new();
        let mut model: BTreeMap<(u64, u64), u32> = BTreeMap::new();
        let mut keys: std::collections::HashMap<u32, (u64, u64)> =
            std::collections::HashMap::new();
        let mut tie = 0u64;

        for (op, item, key) in ops {
            match op {
                0 | 1 => {
                    let key = (key, tie);
                    tie += 1;
                    if let Some(old) = keys.insert(item, key) {
                        model.remove(&old);
                        heap.update(item, key);
                    } else {
                        heap.insert(item, key);
                    }
                    model.insert(key, item);
                }
                2 => {
                    let expected = model.iter().next().map(|(&k, &i)| (i, k));
                    let got = heap.pop_min();
                    prop_assert_eq!(got, expected);
                    if let Some((item, key)) = got {
                        model.remove(&key);
                        keys.remove(&item);
                    }
                }
                _ => {
                    let got = heap.remove(item);
                    let expected = keys.remove(&item);
                    prop_assert_eq!(got, expected);
                    if let Some(k) = expected {
                        model.remove(&k);
                    }
                }
            }
            prop_assert_eq!(heap.len(), model.len());
        }
    }

    /// LRU-2 evicts exactly the brute-force model's victims, each with
    /// the model's backward distance as its reason, under random insert,
    /// hit, remove and evict sequences, and a copy fed the same sequence
    /// under a random relabeling of slots evicts the relabeled victims:
    /// no decision depends on slot numbering.
    #[test]
    fn lru2_matches_a_brute_force_model(
        ops in prop::collection::vec((0u8..8, 0..LRU2_DOCS), 1_000..1_500),
        shuffle in prop::collection::vec(0u64..u64::MAX, LRU2_DOCS as usize),
    ) {
        let mut relabel: Vec<u64> = (0..LRU2_DOCS).collect();
        relabel.sort_by_key(|&d| shuffle[d as usize]);
        let reasons = ReasonChannel::new();
        let mut policy = PolicyKind::LruTwo.build_instrumented(FlightSink::new(reasons.clone()));
        let mut relabeled = PolicyKind::LruTwo.build();
        let mut model = Lru2Model::default();
        let size = ByteSize::new(1);
        let mut evictions = 0;
        for (step, &(op, d)) in ops.iter().enumerate() {
            let (doc, other) = (DocId::new(d), DocId::new(relabel[d as usize]));
            match op {
                0..=2 if !model.refs.contains_key(&d) => {
                    policy.on_insert(doc, size);
                    relabeled.on_insert(other, size);
                    model.insert(d);
                }
                0..=4 => {
                    policy.on_hit(doc, size);
                    relabeled.on_hit(other, size);
                    model.hit(d);
                }
                5 => {
                    policy.remove(doc);
                    relabeled.remove(other);
                    model.refs.remove(&d);
                }
                _ => {
                    let victim = policy.evict().map(DocId::as_u64);
                    let want = model.evict();
                    prop_assert_eq!(victim, want.map(|(v, _)| v), "step {}", step);
                    prop_assert_eq!(reasons.pop(), want.map(|(_, r)| r), "step {}", step);
                    let moved = relabeled.evict().map(DocId::as_u64);
                    prop_assert_eq!(moved, victim.map(|v| relabel[v as usize]), "step {}", step);
                    evictions += u64::from(victim.is_some());
                }
            }
            prop_assert_eq!(policy.len(), model.refs.len());
        }
        while let Some((victim, reason)) = model.evict() {
            prop_assert_eq!(policy.evict(), Some(DocId::new(victim)));
            prop_assert_eq!(reasons.pop(), Some(reason));
            prop_assert_eq!(relabeled.evict(), Some(DocId::new(relabel[victim as usize])));
            evictions += 1;
        }
        prop_assert!(policy.is_empty() && relabeled.is_empty());
        prop_assert!(evictions > 100, "only {} evictions", evictions);
    }

    /// The aging laws, for every key rule: the inflation value `L` never
    /// decreases; under the aging rules (LFU-DA, GDS, GDSF, GD\* with
    /// fixed or adaptive β) every tracked key stays at or above `L`; and
    /// the rules that do not age (LFU, SIZE) keep `L` at 0.
    #[test]
    fn aging_laws_hold_for_every_key_rule(
        cost in prop::sample::select(vec![CostModel::Constant, CostModel::Packet]),
        mode in prop_oneof![
            (0.2f64..3.0).prop_map(BetaMode::Fixed),
            Just(BetaMode::Adaptive { initial: 1.0, refresh_interval: 16 }),
            Just(BetaMode::AdaptivePerType { initial: 1.0, refresh_interval: 16 }),
        ],
        ops in prop::collection::vec((0u64..32, 0u32..100_000, 0u8..4, 0u8..5), 1..300),
    ) {
        check_aging(KeyedPolicy::from(LfuDaRule), &ops)?;
        check_aging(KeyedPolicy::from(GdsRule(cost)), &ops)?;
        check_aging(KeyedPolicy::from(GdsfRule(cost)), &ops)?;
        check_aging(KeyedPolicy::from(GdStarRule::new(cost, mode)), &ops)?;
        check_aging(KeyedPolicy::from(LfuRule), &ops)?;
        check_aging(KeyedPolicy::from(SizeRule), &ops)?;
    }

    /// Packet costs are monotone in size and bounded below by 3 for any
    /// non-empty document.
    #[test]
    fn packet_cost_monotone(a in 1u64..10_000_000, b in 1u64..10_000_000) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let cl = CostModel::Packet.cost(ByteSize::new(lo));
        let ch = CostModel::Packet.cost(ByteSize::new(hi));
        prop_assert!(cl <= ch);
        prop_assert!(cl >= 3.0);
    }

    /// Every policy's evict() drains exactly what was inserted, in some
    /// order, with no duplicates.
    #[test]
    fn eviction_drains_exactly_the_inserted_set(
        kind in arb_policy(),
        docs in prop::collection::btree_set(0u64..1_000, 1..100),
    ) {
        let mut p = kind.build();
        for &d in &docs {
            p.on_insert(DocId::new(d), ByteSize::new(d + 1));
        }
        let mut drained = Vec::new();
        while let Some(v) = p.evict() {
            drained.push(v.as_u64());
        }
        drained.sort_unstable();
        let expected: Vec<u64> = docs.into_iter().collect();
        prop_assert_eq!(drained, expected);
    }
}

mod admission_props {
    use proptest::prelude::*;
    use webcache_core::{AdmissionController, AdmissionSpec};
    use webcache_trace::{ByteSize, DocId};

    proptest! {
        /// The second-hit filter's memory never exceeds its window, and
        /// an admission is always preceded by exactly one rejection of
        /// the same document since its last admission.
        #[test]
        fn second_hit_memory_is_bounded(
            window in 1usize..64,
            fetches in prop::collection::vec(0u64..40, 1..500),
        ) {
            let mut c = AdmissionController::new(AdmissionSpec::SecondHit(window));
            let mut pending: std::collections::HashSet<u64> =
                std::collections::HashSet::new();
            for doc in fetches {
                let admitted = c.admit(DocId::new(doc), ByteSize::new(1), true);
                prop_assert!(c.remembered() <= window);
                if admitted {
                    // Must have been pending (seen once and not yet
                    // forgotten by the window).
                    prop_assert!(pending.remove(&doc));
                } else {
                    pending.insert(doc);
                }
            }
        }

        /// MaxSize admissions are exactly the size-threshold predicate.
        #[test]
        fn max_size_is_pure_predicate(
            limit in 1u64..1_000_000,
            sizes in prop::collection::vec(0u64..2_000_000, 1..100),
        ) {
            let mut c = AdmissionController::new(AdmissionSpec::MaxSize(ByteSize::new(limit)));
            for (i, &s) in sizes.iter().enumerate() {
                prop_assert_eq!(
                    c.admit(DocId::new(i as u64), ByteSize::new(s), true),
                    s <= limit
                );
            }
        }
    }
}

mod spec_round_trip {
    use proptest::prelude::*;
    use webcache_core::{AdmissionSpec, PolicyKind, PolicySpec};
    use webcache_trace::ByteSize;

    fn arb_admission() -> impl Strategy<Value = AdmissionSpec> {
        prop_oneof![
            Just(AdmissionSpec::All),
            Just(AdmissionSpec::TinyLfu),
            (1usize..1_000_000).prop_map(AdmissionSpec::SecondHit),
            (1u64..1u64 << 50).prop_map(|b| AdmissionSpec::MaxSize(ByteSize::new(b))),
        ]
    }

    proptest! {
        /// `Display` then `FromStr` is the identity for every spec: any
        /// admission half (arbitrary windows and byte ceilings) composed
        /// with any replacement kind survives the round trip.
        #[test]
        fn display_from_str_is_identity(
            admission in arb_admission(),
            replacement in prop::sample::select(PolicyKind::ALL.to_vec()),
        ) {
            let spec = PolicySpec::new(admission, replacement);
            let reparsed: PolicySpec = spec.to_string().parse().unwrap_or_else(|e| {
                panic!("{spec} failed to re-parse: {e}")
            });
            prop_assert_eq!(reparsed, spec);
        }

        /// The canonical label also parses after lowercasing — the form
        /// a user types on the command line.
        #[test]
        fn lowercased_label_also_parses(
            admission in arb_admission(),
            replacement in prop::sample::select(PolicyKind::ALL.to_vec()),
        ) {
            let spec = PolicySpec::new(admission, replacement);
            let lower: PolicySpec = spec.to_string().to_ascii_lowercase().parse().unwrap();
            prop_assert_eq!(lower, spec);
        }
    }
}
