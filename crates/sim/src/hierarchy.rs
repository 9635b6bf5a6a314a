//! Two-level cache hierarchy simulation.
//!
//! The paper frames its two cost models through the proxy's position in
//! the network: institutional (leaf) proxies optimize hit rate, backbone
//! (parent) proxies optimize byte hit rate, and the workload the parent
//! sees is the *miss stream* of the leaves (cf. Mahanti, Williamson &
//! Eager's characterization of proxy hierarchies, cited as \[10\]). This
//! module makes that setting simulable: a row of leaf caches in front of
//! one shared parent cache.
//!
//! Requests are distributed over the leaves round-robin (the trace model
//! carries no client identities; round-robin spreads each document's
//! request chain across leaves, which is the conservative assumption for
//! leaf locality). A leaf miss consults the parent; a parent miss goes
//! to the origin. Both levels store the document on the way back
//! (store-through), and document modifications invalidate every level.

use serde::{Deserialize, Serialize};

use webcache_core::{Cache, PolicyKind, PolicySpec};
use webcache_trace::{ByteSize, DenseTrace, DocId, DocumentType};

use crate::metrics::HitStats;
use crate::simulator::ModificationRule;

/// Configuration of a two-level hierarchy run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Number of leaf (institutional) caches.
    pub leaf_count: usize,
    /// Byte capacity of each leaf cache.
    pub leaf_capacity: ByteSize,
    /// Policy spec of the leaves (admission + replacement).
    pub leaf_policy: PolicySpec,
    /// Byte capacity of the shared parent (backbone) cache.
    pub parent_capacity: ByteSize,
    /// Policy spec of the parent (admission + replacement).
    pub parent_policy: PolicySpec,
    /// Fraction of the trace used for warm-up (not counted).
    pub warmup_fraction: f64,
    /// Modification-detection rule (applied identically at both levels).
    pub modification_rule: ModificationRule,
}

impl HierarchyConfig {
    /// A hierarchy with the paper-motivated defaults: hit-rate-oriented
    /// GD\*(1) leaves and a byte-hit-rate-oriented GD\*(P) parent, 10%
    /// warm-up.
    pub fn new(leaf_count: usize, leaf_capacity: ByteSize, parent_capacity: ByteSize) -> Self {
        use webcache_core::CostModel;
        HierarchyConfig {
            leaf_count,
            leaf_capacity,
            leaf_policy: PolicyKind::GdStar(CostModel::Constant).into(),
            parent_capacity,
            parent_policy: PolicyKind::GdStar(CostModel::Packet).into(),
            warmup_fraction: 0.10,
            modification_rule: ModificationRule::default(),
        }
    }

    /// Overrides the leaf policy (a bare kind or a composed spec).
    #[must_use]
    pub fn with_leaf_policy(mut self, policy: impl Into<PolicySpec>) -> Self {
        self.leaf_policy = policy.into();
        self
    }

    /// Overrides the parent policy (a bare kind or a composed spec).
    #[must_use]
    pub fn with_parent_policy(mut self, policy: impl Into<PolicySpec>) -> Self {
        self.parent_policy = policy.into();
        self
    }

    /// Overrides the warm-up fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ fraction < 1`.
    #[must_use]
    pub fn with_warmup_fraction(mut self, fraction: f64) -> Self {
        assert!((0.0..1.0).contains(&fraction), "warm-up fraction in [0,1)");
        self.warmup_fraction = fraction;
        self
    }

    fn validate(&self) {
        assert!(self.leaf_count > 0, "hierarchy needs at least one leaf");
        assert!(
            !self.leaf_capacity.is_zero(),
            "leaf capacity must be positive"
        );
        assert!(
            !self.parent_capacity.is_zero(),
            "parent capacity must be positive"
        );
    }
}

/// The outcome of a hierarchy run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchyReport {
    /// Configuration of the run.
    pub config: HierarchyConfig,
    /// Requests resolved at the leaf level (aggregated over leaves).
    pub leaf: HitStats,
    /// Requests that missed a leaf, measured against the parent.
    pub parent: HitStats,
}

impl HierarchyReport {
    /// Fraction of all requests served without contacting the origin
    /// (leaf hit or parent hit) — the end-user view.
    pub fn combined_hit_rate(&self) -> f64 {
        if self.leaf.requests == 0 {
            return 0.0;
        }
        (self.leaf.hits + self.parent.hits) as f64 / self.leaf.requests as f64
    }

    /// Fraction of requested bytes that never crossed the parent–origin
    /// link — the backbone-traffic view.
    pub fn combined_byte_hit_rate(&self) -> f64 {
        if self.leaf.bytes_requested == 0 {
            return 0.0;
        }
        (self.leaf.bytes_hit + self.parent.bytes_hit) as f64 / self.leaf.bytes_requested as f64
    }
}

/// One cache of the hierarchy, addressed by the trace's dense document
/// slots so no request hashes an id. Each level numbers the slots it
/// stores in its own first-insert-attempt order, the numbering a
/// sparse-id [`Cache`] interns, so its policy and admission filter see
/// the same handles (and make the same decisions) as a [`Cache::new`]
/// fed the trace's ids.
struct Level {
    cache: Cache,
    /// Per trace slot: this cache's slot + 1, or 0 before the first
    /// insert attempt.
    local: Vec<u32>,
    assigned: u32,
}

impl Level {
    /// A level over a trace of `documents` slots. Its cache starts empty
    /// and grows to the slots it numbers, as a sparse-id cache would.
    fn new(capacity: ByteSize, spec: PolicySpec, documents: usize) -> Self {
        Level {
            cache: Cache::with_dense_slots(capacity, spec.build(), spec.admission, 0),
            local: vec![0; documents],
            assigned: 0,
        }
    }

    /// This cache's handle for trace `slot`, once it tried to store it.
    fn handle(&self, slot: u32) -> Option<DocId> {
        let local = self.local[slot as usize].checked_sub(1)?;
        Some(DocId::new(u64::from(local)))
    }

    fn access(&mut self, slot: u32) -> bool {
        self.handle(slot).is_some_and(|doc| self.cache.access(doc))
    }

    fn invalidate(&mut self, slot: u32) {
        if let Some(doc) = self.handle(slot) {
            self.cache.invalidate(doc);
        }
    }

    fn insert(&mut self, slot: u32, doc_type: DocumentType, size: ByteSize) {
        let local = &mut self.local[slot as usize];
        if *local == 0 {
            self.assigned += 1;
            *local = self.assigned;
        }
        let doc = DocId::new(u64::from(*local - 1));
        self.cache.insert(doc, doc_type, size);
    }
}

/// Runs a trace through a two-level hierarchy.
///
/// # Panics
///
/// Panics on an invalid configuration (zero leaves or capacities).
pub fn simulate_hierarchy(trace: &DenseTrace, config: HierarchyConfig) -> HierarchyReport {
    config.validate();
    let documents = trace.distinct_documents();
    let mut leaves: Vec<Level> = (0..config.leaf_count)
        .map(|_| Level::new(config.leaf_capacity, config.leaf_policy, documents))
        .collect();
    let mut parent = Level::new(config.parent_capacity, config.parent_policy, documents);

    let warmup_end = (trace.len() as f64 * config.warmup_fraction).floor() as usize;
    let mut leaf_stats = HitStats::default();
    let mut parent_stats = HitStats::default();
    let mut last_transfer: Vec<Option<u64>> = vec![None; documents];

    for index in 0..trace.len() {
        let (slot, size, doc_type) = trace.request(index);
        let transfer = size.as_u64();
        let prev = last_transfer[slot as usize].replace(transfer);
        let modified = prev.is_some_and(|p| config.modification_rule.is_modification(p, transfer));

        let (leaf_hit, parent_hit) = if modified {
            // Invalidate the stale copies everywhere.
            for l in leaves.iter_mut() {
                l.invalidate(slot);
            }
            parent.invalidate(slot);
            (false, false)
        } else if leaves[index % config.leaf_count].access(slot) {
            (true, false)
        } else {
            (false, parent.access(slot))
        };

        let leaf = &mut leaves[index % config.leaf_count];
        if !leaf_hit {
            leaf.insert(slot, doc_type, size);
            if !parent_hit {
                parent.insert(slot, doc_type, size);
            }
        }

        if index >= warmup_end {
            leaf_stats.record(size, leaf_hit);
            if modified {
                leaf_stats.modification_misses += 1;
            }
            if !leaf_hit {
                parent_stats.record(size, parent_hit);
            }
        }
    }

    HierarchyReport {
        config,
        leaf: leaf_stats,
        parent: parent_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcache_trace::{Request, Timestamp, Trace};

    fn trace(reqs: &[(u64, u64)]) -> DenseTrace {
        DenseTrace::from_requests(
            reqs.iter()
                .map(|&(doc, size)| (doc, size, DocumentType::Html)),
        )
    }

    fn config(leaves: usize, leaf_cap: u64, parent_cap: u64) -> HierarchyConfig {
        HierarchyConfig::new(leaves, ByteSize::new(leaf_cap), ByteSize::new(parent_cap))
            .with_leaf_policy(PolicyKind::Lru)
            .with_parent_policy(PolicyKind::Lru)
            .with_warmup_fraction(0.0)
    }

    #[test]
    fn leaf_hits_stay_at_leaves() {
        // One leaf: second access to the same doc hits the leaf, never
        // reaching the parent.
        let t = trace(&[(1, 100), (1, 100)]);
        let r = simulate_hierarchy(&t, config(1, 1_000, 1_000));
        assert_eq!(r.leaf.requests, 2);
        assert_eq!(r.leaf.hits, 1);
        assert_eq!(
            r.parent.requests, 1,
            "only the cold miss reached the parent"
        );
        assert_eq!(r.parent.hits, 0);
        assert_eq!(r.combined_hit_rate(), 0.5);
    }

    #[test]
    fn parent_serves_cross_leaf_sharing() {
        // Two leaves, round-robin: requests 0 and 1 go to different
        // leaves. Request 1 misses its leaf but hits the parent, which
        // learned the document from request 0's miss.
        let t = trace(&[(1, 100), (1, 100)]);
        let r = simulate_hierarchy(&t, config(2, 1_000, 1_000));
        assert_eq!(r.leaf.hits, 0);
        assert_eq!(r.parent.requests, 2);
        assert_eq!(r.parent.hits, 1);
        assert_eq!(r.combined_hit_rate(), 0.5);
        assert_eq!(r.combined_byte_hit_rate(), 0.5);
    }

    #[test]
    fn hierarchy_beats_isolated_leaves() {
        // A workload with heavy cross-leaf sharing: every document is
        // requested once per leaf. Without the parent every request
        // would miss; the parent converts all but the first occurrence.
        let reqs: Vec<(u64, u64)> = (0..50u64).flat_map(|d| [(d, 100), (d, 100)]).collect();
        let t = trace(&reqs);
        let with_parent = simulate_hierarchy(&t, config(2, 100_000, 100_000));
        let tiny_parent = simulate_hierarchy(&t, config(2, 100_000, 1));
        assert!(with_parent.combined_hit_rate() > tiny_parent.combined_hit_rate());
        assert_eq!(with_parent.combined_hit_rate(), 0.5);
    }

    #[test]
    fn modifications_invalidate_every_level() {
        // Doc served (100), re-served with a 2% size change: modification
        // — both leaf and parent copies must be dropped, and the
        // follow-up request must miss the leaf but hit the parent only if
        // re-inserted (it was, by the modified request).
        let t = trace(&[(1, 100), (1, 102), (1, 102), (1, 102)]);
        let r = simulate_hierarchy(&t, config(1, 1_000, 1_000));
        // Request 0: cold miss. Request 1: modification miss. Requests
        // 2, 3: leaf hits.
        assert_eq!(r.leaf.hits, 2);
        assert_eq!(r.leaf.modification_misses, 1);
    }

    #[test]
    fn warmup_excludes_early_requests() {
        let t = trace(&[(1, 100), (1, 100), (1, 100), (1, 100)]);
        let r = simulate_hierarchy(&t, config(1, 1_000, 1_000).with_warmup_fraction(0.5));
        assert_eq!(r.leaf.requests, 2);
        assert_eq!(r.leaf.hits, 2);
    }

    #[test]
    fn empty_trace_yields_zero_rates() {
        let r = simulate_hierarchy(&DenseTrace::default(), config(2, 100, 100));
        assert_eq!(r.combined_hit_rate(), 0.0);
        assert_eq!(r.combined_byte_hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn zero_leaves_rejected() {
        let _ = simulate_hierarchy(&DenseTrace::default(), config(0, 100, 100));
    }

    /// The hierarchy loop over sparse-id caches fed the trace's own ids:
    /// the reference the dense levels must reproduce exactly.
    fn sparse_reference(trace: &Trace, config: HierarchyConfig) -> HierarchyReport {
        let cache = |capacity, spec: PolicySpec| Cache::new(capacity, spec.build(), spec.admission);
        let mut leaves: Vec<Cache> = (0..config.leaf_count)
            .map(|_| cache(config.leaf_capacity, config.leaf_policy))
            .collect();
        let mut parent = cache(config.parent_capacity, config.parent_policy);
        let warmup_end = trace.warmup_boundary(config.warmup_fraction);
        let (mut leaf_stats, mut parent_stats) = (HitStats::default(), HitStats::default());
        let mut last_transfer = std::collections::HashMap::new();
        for (index, request) in trace.iter().enumerate() {
            let (doc, transfer) = (request.doc, request.size.as_u64());
            let prev = last_transfer.insert(doc, transfer);
            let modified =
                prev.is_some_and(|p| config.modification_rule.is_modification(p, transfer));
            let leaf = index % config.leaf_count;
            let (leaf_hit, parent_hit) = if modified {
                for l in leaves.iter_mut() {
                    l.invalidate(doc);
                }
                parent.invalidate(doc);
                (false, false)
            } else if leaves[leaf].access(doc) {
                (true, false)
            } else {
                (false, parent.access(doc))
            };
            if !leaf_hit {
                leaves[leaf].insert(doc, request.doc_type, request.size);
                if !parent_hit {
                    parent.insert(doc, request.doc_type, request.size);
                }
            }
            if index >= warmup_end {
                leaf_stats.record(request.size, leaf_hit);
                leaf_stats.modification_misses += u64::from(modified);
                if !leaf_hit {
                    parent_stats.record(request.size, parent_hit);
                }
            }
        }
        HierarchyReport {
            config,
            leaf: leaf_stats,
            parent: parent_stats,
        }
    }

    /// Every policy at both levels, with admission rules whose sketch or
    /// window reads the handle numbering, spread ids and modifications:
    /// the dense levels report exactly what sparse-id caches do.
    #[test]
    fn dense_levels_match_sparse_id_caches() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let t: Trace = (0..4_000u64)
            .map(|i| {
                let d = next() % 300;
                // One request in eight grows 2 bytes: a modification.
                let size = 100 + (d * 37) % 3_000 + 2 * u64::from(next() % 8 == 0);
                Request::new(
                    Timestamp::from_millis(i),
                    DocId::new((d + 1) << 40),
                    DocumentType::ALL[d as usize % DocumentType::ALL.len()],
                    ByteSize::new(size),
                )
            })
            .collect();
        let kinds = PolicyKind::ALL;
        let mut specs: Vec<PolicySpec> = kinds.iter().map(|&k| k.into()).collect();
        for spec in ["tinylfu+lru-2", "2hit:64+gds(1)", "tinylfu+arc"] {
            specs.push(PolicySpec::parse(spec).expect(spec));
        }
        for (i, &leaf) in specs.iter().enumerate() {
            let parent = specs[(i + 5) % specs.len()];
            let config = HierarchyConfig::new(3, ByteSize::new(40_000), ByteSize::new(150_000))
                .with_leaf_policy(leaf)
                .with_parent_policy(parent);
            let dense = simulate_hierarchy(&DenseTrace::build(&t), config);
            assert_eq!(dense, sparse_reference(&t, config), "{leaf} -> {parent}");
            assert!(
                dense.leaf.hits > 0 && dense.parent.hits > 0,
                "{leaf} -> {parent}"
            );
        }
    }
}
