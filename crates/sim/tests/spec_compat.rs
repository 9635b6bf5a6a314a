//! Spec-compatibility differential tests.
//!
//! The `PolicySpec` redesign must not move a single counter for the 13
//! pre-cohort policies: a spec with the default `All` admission half is
//! pinned bit-for-bit against the construction surface it replaced —
//! `Simulator::new(kind.build(), ..)` and `Cache::new` — across the
//! whole [`PolicyKind::LEGACY`] roster.

use webcache_core::{AdmissionSpec, Cache, PolicyKind, PolicySpec};
use webcache_sim::{SimulationConfig, Simulator};
use webcache_trace::{ByteSize, DocId, DocumentType, Request, Timestamp, Trace};

/// A deterministic mixed workload with sustained eviction churn at the
/// capacities below: 6000 requests over 400 documents, five types,
/// sizes up to 30 KB.
fn fixed_trace() -> Trace {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..6_000u64)
        .map(|i| {
            Request::new(
                Timestamp::from_millis(i),
                DocId::new(next() % 400),
                DocumentType::ALL[(next() % 5) as usize],
                ByteSize::new(next() % 30_000 + 1),
            )
        })
        .collect()
}

/// `Simulator::from_spec` with a bare kind (admission `All`) reproduces
/// the legacy `Simulator::new(kind.build(), ..)` report bit-for-bit —
/// every counter, every type, every occupancy sample — for each legacy
/// policy across a capacity grid.
#[test]
fn from_spec_matches_legacy_simulator_entry_point() {
    let trace = fixed_trace();
    for kind in PolicyKind::LEGACY {
        for capacity in [20_000u64, 200_000, 2_000_000] {
            let config = SimulationConfig::builder()
                .capacity(ByteSize::new(capacity))
                .warmup_fraction(0.2)
                .occupancy_samples(4)
                .build();
            let legacy = Simulator::new(kind.build(), config).run(&trace);
            let spec = PolicySpec::from(kind);
            assert_eq!(spec.admission, AdmissionSpec::All, "{kind:?}");
            let modern = Simulator::from_spec(spec, config).run(&trace);
            assert_eq!(legacy, modern, "{kind:?} diverged at capacity {capacity}");
        }
    }
}

/// An `All`-admission spec must not clobber an admission rule the
/// config already carries: `from_spec` folds the spec's admission half
/// over the config only when the spec names one.
#[test]
fn all_admission_spec_preserves_config_carried_rule() {
    let trace = fixed_trace();
    for kind in PolicyKind::LEGACY {
        let config = SimulationConfig::builder()
            .capacity(ByteSize::new(100_000))
            .admission_rule(AdmissionSpec::SecondHit(16))
            .build();
        let legacy = Simulator::new(kind.build(), config).run(&trace);
        let modern = Simulator::from_spec(kind, config).run(&trace);
        assert_eq!(legacy, modern, "{kind:?} diverged under config admission");
        assert_eq!(modern.policy, format!("2HIT:16+{}", kind.label()));
    }
}

/// `Cache::with_spec` on a bare kind is the legacy `Cache::new`: the
/// same access/insert stream produces the same hit sequence, the same
/// eviction victims in the same order, and the same label.
#[test]
fn with_spec_drives_identically_to_cache_new() {
    let trace = fixed_trace();
    let capacity = ByteSize::new(150_000);
    for kind in PolicyKind::LEGACY {
        let mut legacy = Cache::new(capacity, kind.build());
        let mut modern = Cache::with_spec(capacity, kind);
        assert_eq!(legacy.policy_label(), modern.policy_label(), "{kind:?}");
        for (i, req) in trace.iter().enumerate() {
            let hit_legacy = legacy.access(req.doc);
            let hit_modern = modern.access(req.doc);
            assert_eq!(hit_legacy, hit_modern, "{kind:?} hit diverged at {i}");
            if !hit_legacy {
                let out_legacy = legacy.insert(req.doc, req.doc_type, req.size);
                let out_modern = modern.insert(req.doc, req.doc_type, req.size);
                assert_eq!(
                    out_legacy.evicted, out_modern.evicted,
                    "{kind:?} victims diverged at {i}"
                );
            }
        }
    }
}
