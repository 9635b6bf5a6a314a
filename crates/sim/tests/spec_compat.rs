//! Spec-compatibility differential test.
//!
//! A spec with the default `All` admission half must not move a single
//! counter: `Simulator::from_spec(kind, ..)` is pinned bit-for-bit
//! against `Simulator::new(kind.build(), ..)` for every [`PolicyKind`].

use webcache_core::{AdmissionSpec, PolicyKind, PolicySpec};
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
/// `Simulator::new(kind.build(), ..)` bit-for-bit — every counter, every
/// type, every occupancy sample — for each policy across a capacity grid.
#[test]
fn from_spec_matches_simulator_new() {
    let trace = fixed_trace();
    for kind in PolicyKind::ALL {
        for capacity in [20_000u64, 200_000, 2_000_000] {
            let config = SimulationConfig::builder()
                .capacity(ByteSize::new(capacity))
                .warmup_fraction(0.2)
                .occupancy_samples(4)
                .build();
            let plain = Simulator::new(kind.build(), config).run(&trace);
            let spec = PolicySpec::from(kind);
            assert_eq!(spec.admission, AdmissionSpec::All, "{kind:?}");
            let from_spec = Simulator::from_spec(spec, config).run(&trace);
            assert_eq!(plain, from_spec, "{kind:?} diverged at capacity {capacity}");
        }
    }
}
