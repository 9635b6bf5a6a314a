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

use std::collections::HashMap;

use webcache_core::pqueue::IndexedHeap;
use webcache_trace::{Trace, TypeMap};

use crate::metrics::HitStats;
use crate::simulator::{ModificationRule, SimulationConfig};

/// Runs the clairvoyant policy over `trace` under `config` (capacity,
/// warm-up and modification rule are honoured; occupancy sampling and
/// admission rules are ignored).
///
/// Returns per-type hit statistics, comparable to an online
/// [`SimulationReport`](crate::SimulationReport)'s.
pub fn clairvoyant(trace: &Trace, config: &SimulationConfig) -> TypeMap<HitStats> {
    // Precompute each request's next-reference index: next_use[i] is the
    // position of the next request to the same document, or u64::MAX.
    let n = trace.len();
    let mut next_use = vec![u64::MAX; n];
    let mut last_pos: HashMap<u64, usize> = HashMap::new();
    for (i, r) in trace.iter().enumerate() {
        if let Some(prev) = last_pos.insert(r.doc.as_u64(), i) {
            next_use[prev] = i as u64;
        }
    }

    // Max-heap on next use: evict the latest-next-use document first.
    // Key: (u64::MAX - next_use, then smaller size last). PriorityKey is
    // private to core; a plain tuple key works with IndexedHeap.
    let mut heap: IndexedHeap<u64, (i64, i64)> = IndexedHeap::new();
    let mut resident_size: HashMap<u64, u64> = HashMap::new();
    let mut used = 0u64;
    let capacity = config.capacity.as_u64();
    let warmup_end = trace.warmup_boundary(config.warmup_fraction);
    let rule: ModificationRule = config.modification_rule;
    let mut last_transfer: HashMap<u64, u64> = HashMap::new();
    let mut by_type: TypeMap<HitStats> = TypeMap::default();

    // Smaller key pops first. We want to *keep* soon-needed documents and
    // evict far-future ones, so key = -(next_use) (far future pops first),
    // tie: larger documents pop first (free more bytes per eviction).
    let key_of = |next: u64, size: u64| -> (i64, i64) {
        let next = next.min(i64::MAX as u64 - 1);
        (-(next as i64), -(size as i64))
    };

    for (i, r) in trace.iter().enumerate() {
        let doc = r.doc.as_u64();
        let transfer = r.size.as_u64();
        let prev = last_transfer.insert(doc, transfer);
        let modified = prev.is_some_and(|p| rule.is_modification(p, transfer));

        let resident = resident_size.contains_key(&doc);
        let hit = resident && !modified;

        if modified && resident {
            let size = resident_size.remove(&doc).expect("resident");
            used -= size;
            heap.remove(doc);
        }

        if hit {
            // Refresh the document's key to its new next use.
            heap.update(doc, key_of(next_use[i], resident_size[&doc]));
        } else {
            // Fetch and admit, evicting far-future documents as needed.
            let size = transfer;
            if size <= capacity {
                // A clairvoyant cache never stores a dead document.
                if next_use[i] != u64::MAX {
                    while used + size > capacity {
                        let (victim, _) = heap.pop_min().expect("over budget => non-empty");
                        used -= resident_size.remove(&victim).expect("resident");
                    }
                    resident_size.insert(doc, size);
                    used += size;
                    heap.insert(doc, key_of(next_use[i], size));
                }
            }
        }

        if i >= warmup_end {
            let stats = &mut by_type[r.doc_type];
            stats.record(r.size, hit);
            if modified {
                stats.modification_misses += 1;
            }
        }
    }
    by_type
}

/// Convenience: the overall clairvoyant hit statistics.
pub fn clairvoyant_overall(trace: &Trace, config: &SimulationConfig) -> HitStats {
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
    use webcache_trace::{ByteSize, DocId, DocumentType, Request, Timestamp};

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
        let oracle = clairvoyant_overall(&t, &config(200));
        let lru = crate::Simulator::new(PolicyKind::Lru.instantiate(), config(200))
            .run(&t)
            .overall();
        assert_eq!(lru.hits, 0, "LRU thrashes on the cycle");
        assert!(oracle.hits >= 3, "MIN keeps one document across the cycle");
    }

    #[test]
    fn infinite_capacity_matches_compulsory_miss_bound() {
        let t = trace(&[0, 1, 0, 2, 1, 0, 3, 2, 1, 0]);
        let oracle = clairvoyant_overall(&t, &config(1_000_000));
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
            let oracle = clairvoyant_overall(&t, &config(cap));
            for kind in PolicyKind::ALL {
                let online = crate::Simulator::new(kind.instantiate(), config(cap))
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
        let oracle = clairvoyant_overall(&t, &config(100));
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
        let oracle = clairvoyant_overall(&t, &config(1_000));
        assert_eq!(oracle.hits, 1);
        assert_eq!(oracle.modification_misses, 1);
    }

    #[test]
    fn warmup_is_honoured() {
        let t = trace(&[0, 0, 0, 0]);
        let stats = clairvoyant_overall(
            &t,
            &SimulationConfig::builder()
                .capacity(ByteSize::new(1_000))
                .warmup_fraction(0.5)
                .build(),
        );
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.hits, 2);
    }
}
