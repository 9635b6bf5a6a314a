//! Clairvoyant (Belady-style) reference point.
//!
//! An offline "policy" that knows the future: on replacement it evicts
//! the resident document whose next reference is furthest away (never
//! referenced again first, largest size as tie-break). For uniform
//! object sizes this is Belady's provably optimal MIN; with variable
//! sizes the greedy variant is no longer optimal (the problem becomes
//! NP-hard) but remains the standard upper-bound comparator in the web
//! caching literature.
//!
//! The oracle shares the online simulator's methodology (warm-up,
//! modification rule) so its hit rates are directly comparable to
//! [`Simulator`](crate::Simulator) reports — "GD\*(1) reaches 87 % of
//! clairvoyant" is a more informative statement than any absolute
//! number.

use webcache_core::pqueue::IndexedHeap;
use webcache_trace::{ByteSize, DenseTrace, DocumentType, TypeMap};

use crate::metrics::HitStats;
use crate::simulator::{SimulationConfig, NO_TRANSFER};

/// Runs the clairvoyant policy over `trace` under `config` (capacity,
/// warm-up and modification rule are honoured; occupancy sampling is
/// ignored). It admits every document.
///
/// Per-document state lives in vectors indexed by the trace's dense
/// slots. Returns per-type hit statistics, comparable to an online
/// [`SimulationReport`](crate::SimulationReport)'s.
pub fn clairvoyant(trace: &DenseTrace, config: &SimulationConfig) -> TypeMap<HitStats> {
    let (docs, sizes, types) = (trace.docs(), trace.sizes(), trace.type_indices());
    let documents = trace.distinct_documents();

    // Precompute each request's next-reference index: next_use[i] is the
    // position of the next request to the same document, or u64::MAX.
    let mut next_use = vec![u64::MAX; docs.len()];
    let mut seen_at = vec![u64::MAX; documents];
    for (i, &slot) in docs.iter().enumerate().rev() {
        next_use[i] = std::mem::replace(&mut seen_at[slot as usize], i as u64);
    }

    // Max-heap on next use: evict the latest-next-use document first.
    // Key: (u64::MAX - next_use, then smaller size last). PriorityKey is
    // private to core; a plain tuple key works with IndexedHeap. The heap
    // holds exactly the resident documents.
    let mut heap: IndexedHeap<u32, (i64, i64)> = IndexedHeap::new();
    // Per slot: the resident copy's size (meaningful while in the heap).
    let mut resident_size = vec![0u64; documents];
    let mut used = 0u64;
    let capacity = config.capacity.as_u64();
    let warmup_end = ((docs.len() as f64) * config.warmup_fraction).floor() as usize;
    let rule = config.modification_rule;
    // Per slot: the last transfer size, or NO_TRANSFER.
    let mut last_transfer = vec![NO_TRANSFER; documents];
    let mut by_type: TypeMap<HitStats> = TypeMap::default();

    // Smaller key pops first. We want to *keep* soon-needed documents and
    // evict far-future ones, so key = -(next_use) (far future pops first),
    // tie: larger documents pop first (free more bytes per eviction).
    let key_of = |next: u64, size: u64| -> (i64, i64) {
        let next = next.min(i64::MAX as u64 - 1);
        (-(next as i64), -(size as i64))
    };

    for (i, &slot) in docs.iter().enumerate() {
        let transfer = sizes[i];
        let prev = std::mem::replace(&mut last_transfer[slot as usize], transfer);
        let modified = prev != NO_TRANSFER && rule.is_modification(prev, transfer);

        let resident = heap.contains(slot);
        let hit = resident && !modified;

        if modified && resident {
            used -= resident_size[slot as usize];
            heap.remove(slot);
        }

        if hit {
            // Refresh the document's key to its new next use.
            heap.update(slot, key_of(next_use[i], resident_size[slot as usize]));
        } else {
            // Fetch and admit, evicting far-future documents as needed.
            let size = transfer;
            // A clairvoyant cache never stores a dead document.
            if size <= capacity && next_use[i] != u64::MAX {
                // Summed exactly: near `u64::MAX`, `used + size` wraps.
                while u128::from(used) + u128::from(size) > u128::from(capacity) {
                    let (victim, _) = heap.pop_min().expect("over budget => non-empty");
                    used -= resident_size[victim as usize];
                }
                resident_size[slot as usize] = size;
                used += size;
                heap.insert(slot, key_of(next_use[i], size));
            }
        }

        if i >= warmup_end {
            let stats = &mut by_type[DocumentType::from_index(types[i] as usize)];
            stats.record(ByteSize::new(transfer), hit);
            if modified {
                stats.modification_misses += 1;
            }
        }
    }
    by_type
}

/// Convenience: the overall clairvoyant hit statistics.
pub fn clairvoyant_overall(trace: &DenseTrace, config: &SimulationConfig) -> HitStats {
    let mut total = HitStats::default();
    for (_, s) in clairvoyant(trace, config).iter() {
        total += *s;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcache_core::PolicyKind;
    use webcache_trace::{DocId, Request, Timestamp, Trace};
    use webcache_workload::WorkloadProfile;

    fn oracle_overall(trace: &Trace, config: &SimulationConfig) -> HitStats {
        clairvoyant_overall(&DenseTrace::build(trace), config)
    }

    fn trace(docs: &[u64]) -> Trace {
        docs.iter()
            .enumerate()
            .map(|(i, &d)| {
                Request::new(
                    Timestamp::from_millis(i as u64),
                    DocId::new(d),
                    DocumentType::Html,
                    ByteSize::new(100),
                )
            })
            .collect()
    }

    fn config(capacity: u64) -> SimulationConfig {
        SimulationConfig::builder()
            .capacity(ByteSize::new(capacity))
            .warmup_fraction(0.0)
            .build()
    }

    #[test]
    fn textbook_belady_beats_lru() {
        // The classic pattern where LRU fails and MIN succeeds:
        // cyclic a b c with capacity 2 blocks.
        let t = trace(&[0, 1, 2, 0, 1, 2, 0, 1, 2]);
        let oracle = oracle_overall(&t, &config(200));
        let lru = crate::Simulator::new(PolicyKind::Lru.build(), config(200))
            .run(&t)
            .overall();
        assert_eq!(lru.hits, 0, "LRU thrashes on the cycle");
        assert!(oracle.hits >= 3, "MIN keeps one document across the cycle");
    }

    #[test]
    fn infinite_capacity_matches_compulsory_miss_bound() {
        let t = trace(&[0, 1, 0, 2, 1, 0, 3, 2, 1, 0]);
        let oracle = oracle_overall(&t, &config(1_000_000));
        assert_eq!(oracle.requests - oracle.hits, t.distinct_documents() as u64);
    }

    #[test]
    fn oracle_dominates_every_online_policy_uniform_sizes() {
        // Pseudo-random uniform-size stream; clairvoyant MIN must beat or
        // match every online policy at every capacity.
        let mut state = 2024u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % 40
        };
        let stream: Vec<u64> = (0..2_000).map(|_| next()).collect();
        let t = trace(&stream);
        for blocks in [5u64, 10, 20] {
            let cap = blocks * 100;
            let oracle = oracle_overall(&t, &config(cap));
            for kind in PolicyKind::ALL {
                let online = crate::Simulator::new(kind.build(), config(cap))
                    .run(&t)
                    .overall();
                assert!(
                    oracle.hits >= online.hits,
                    "{kind} beat the oracle at {blocks} blocks: {} vs {}",
                    online.hits,
                    oracle.hits
                );
            }
        }
    }

    #[test]
    fn dead_documents_are_never_cached() {
        // Single-shot documents waste no space: a tiny cache still hits
        // every re-reference of the one hot document.
        let t = trace(&[0, 1, 0, 2, 0, 3, 0, 4, 0]);
        let oracle = oracle_overall(&t, &config(100));
        assert_eq!(oracle.hits, 4, "all re-references of doc 0 hit");
    }

    #[test]
    fn modifications_count_as_misses() {
        let t: Trace = vec![
            Request::new(
                Timestamp::ZERO,
                DocId::new(1),
                DocumentType::Html,
                ByteSize::new(100),
            ),
            Request::new(
                Timestamp::ZERO,
                DocId::new(1),
                DocumentType::Html,
                ByteSize::new(102),
            ),
            Request::new(
                Timestamp::ZERO,
                DocId::new(1),
                DocumentType::Html,
                ByteSize::new(102),
            ),
        ]
        .into();
        let oracle = oracle_overall(&t, &config(1_000));
        assert_eq!(oracle.hits, 1);
        assert_eq!(oracle.modification_misses, 1);
    }

    #[test]
    fn warmup_is_honoured() {
        let t = trace(&[0, 0, 0, 0]);
        let stats = oracle_overall(
            &t,
            &SimulationConfig::builder()
                .capacity(ByteSize::new(1_000))
                .warmup_fraction(0.5)
                .build(),
        );
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.hits, 2);
    }

    /// Two 10^19-byte documents cannot be resident together at any `u64`
    /// capacity, where a plain `u64` sum of their sizes wraps. The oracle
    /// keeps the second and does not cache the first one's last
    /// reference, so it hits once.
    #[test]
    fn documents_summing_past_u64_max_never_share_the_cache() {
        let huge = 10_000_000_000_000_000_000;
        let t: Trace = [1u64, 2, 1, 2]
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                Request::new(
                    Timestamp::from_millis(i as u64),
                    DocId::new(d),
                    DocumentType::Html,
                    ByteSize::new(huge),
                )
            })
            .collect();
        for capacity in [u64::MAX, u64::MAX - 1, huge] {
            let stats = oracle_overall(&t, &config(capacity));
            assert_eq!((stats.requests, stats.hits), (4, 1), "capacity {capacity}");
        }
    }

    #[test]
    fn per_type_stats_match_the_recorded_hashed_oracle() {
        // Recorded from the earlier oracle, which kept its per-document
        // state in hash maps keyed by document id: (requests, hits,
        // bytes requested, bytes hit, modification misses) per type, in
        // `DocumentType::ALL` order.
        type Row = (u64, u64, u128, u128, u64);
        let trace = WorkloadProfile::dfn().scaled(1.0 / 1024.0).build_trace(11);
        let dense = DenseTrace::build(&trace);
        assert_eq!(dense.overall_size().as_u64(), 31_109_002);
        let cases: [(f64, f64, [Row; 5]); 2] = [
            (
                0.05,
                0.1,
                [
                    (4336, 2348, 19342171, 10717614, 25),
                    (1263, 557, 8411896, 1832943, 16),
                    (9, 2, 4172651, 1657373, 0),
                    (274, 168, 14480814, 2722433, 0),
                    (23, 1, 501585, 997, 0),
                ],
            ),
            (
                0.01,
                0.0,
                [
                    (4842, 2001, 21070828, 8989759, 26),
                    (1391, 476, 9353418, 1578202, 16),
                    (9, 0, 4172651, 0, 0),
                    (295, 162, 15157711, 1221176, 0),
                    (24, 1, 519378, 997, 0),
                ],
            ),
        ];
        for (fraction, warmup, expected) in cases {
            let capacity = (dense.overall_size().as_u64() as f64 * fraction) as u64;
            let config = SimulationConfig::builder()
                .capacity(ByteSize::new(capacity))
                .warmup_fraction(warmup)
                .build();
            let stats = clairvoyant(&dense, &config);
            for (ty, want) in DocumentType::ALL.into_iter().zip(expected) {
                let s = stats[ty];
                let got = (
                    s.requests,
                    s.hits,
                    s.bytes_requested,
                    s.bytes_hit,
                    s.modification_misses,
                );
                assert_eq!(got, want, "{ty:?} at {fraction} (warm-up {warmup})");
            }
        }
    }
}
