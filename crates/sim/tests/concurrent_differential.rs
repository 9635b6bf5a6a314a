//! Differential tests for the concurrent sharded driver.
//!
//! Two laws pin the driver to the serial simulator:
//!
//! 1. **N = 1 equivalence** — a single-shard engine is the serial cache
//!    with an extra layer of indirection, so its merged report must be
//!    *identical* (every counter, every type) to `Simulator::run_dense`
//!    for any trace, policy, capacity and warm-up — and, with reason
//!    channels, its flight records (reasons included) must equal the
//!    instrumented serial simulator's. `webcache serve` replays every
//!    plain pass this way.
//! 2. **Client-count independence** — the shard split fixes each
//!    shard's subsequence, so the merged report for a given shard count
//!    must not depend on how many client threads replayed it.

use proptest::prelude::*;

use webcache_core::{AdmissionSpec, PolicyKind, PolicySpec};
use webcache_obs::{FlightSink, ReasonChannel, SharedRecorder};
use webcache_sim::{
    ConcurrentSimulator, FlightObserver, ShardReasons, ShardedTrace, SimulationConfig, Simulator,
    WindowSpec, WindowedMetrics,
};
use webcache_trace::{ByteSize, DenseTrace, DocId, DocumentType, Request, Timestamp, Trace};

fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u64..60, 0u8..5, 1u64..100_000), 1..400).prop_map(|reqs| {
        reqs.into_iter()
            .enumerate()
            .map(|(i, (doc, ty, size))| {
                Request::new(
                    Timestamp::from_millis(i as u64),
                    DocId::new(doc),
                    DocumentType::ALL[ty as usize],
                    ByteSize::new(size),
                )
            })
            .collect()
    })
}

/// Every replacement kind, bare or composed with the TinyLFU admission
/// half — the sharded engine must agree with the serial simulator for
/// the full spec surface, not just the bare kinds.
fn arb_spec() -> impl Strategy<Value = PolicySpec> {
    (
        prop::sample::select(PolicyKind::ALL.to_vec()),
        prop_oneof![Just(AdmissionSpec::All), Just(AdmissionSpec::TinyLfu)],
    )
        .prop_map(|(replacement, admission)| PolicySpec {
            admission,
            replacement,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Law 1: the `N = 1` sharded engine reproduces the serial
    /// simulator counter-for-counter, for every policy.
    #[test]
    fn single_shard_engine_matches_serial_cache(
        trace in arb_trace(),
        spec in arb_spec(),
        capacity in 1_000u64..200_000,
        warmup in 0.0f64..0.5,
    ) {
        let dense = DenseTrace::build(&trace);
        let config = SimulationConfig::builder()
            .capacity(ByteSize::new(capacity))
            .warmup_fraction(warmup)
            .build();
        let serial = Simulator::from_spec(spec, config).run_dense(&dense);
        let concurrent = ConcurrentSimulator::new(spec, config)
            .run(&dense, 1, 1)
            .expect("1 is a valid shard count");
        prop_assert_eq!(&concurrent.policy, &serial.policy);
        prop_assert_eq!(concurrent.by_type(), serial.by_type());
        prop_assert_eq!(concurrent.requests, dense.len() as u64);
        prop_assert!(concurrent.completed);

        // With reason channels, the one-shard pass records exactly what
        // the instrumented serial simulator records, reasons included.
        // Every request adds at most three records, so nothing wraps.
        let ring_capacity = dense.len() * 3;
        let serial_ring = SharedRecorder::new(ring_capacity);
        let (evictions, admissions) = (ReasonChannel::new(), ReasonChannel::new());
        let mut serial_sim =
            Simulator::from_spec_instrumented(spec, config, FlightSink::new(evictions.clone()));
        serial_sim.set_admit_reasons(admissions.clone());
        let serial_flight = serial_sim.run_dense_observed(
            &dense,
            &mut FlightObserver::with_reasons(serial_ring.clone(), evictions, admissions),
        );
        let reasons = ShardReasons::default();
        let shard_ring = SharedRecorder::new(ring_capacity);
        let mut observers = [FlightObserver::with_reasons(
            shard_ring.clone(),
            reasons.evictions.clone(),
            reasons.admissions.clone(),
        )];
        let sharded = ShardedTrace::build(&dense, 1).unwrap();
        let recorded = ConcurrentSimulator::new(spec, config)
            .with_reasons(vec![reasons])
            .run_sharded_controlled(&dense, &sharded, 1, None, None, &mut observers);
        prop_assert_eq!(&recorded.policy, &serial_flight.policy);
        prop_assert_eq!(recorded.by_type(), serial_flight.by_type());
        prop_assert_eq!(recorded.by_type(), serial.by_type());
        // Reason payloads compare as raw bits.
        let records = |ring: &SharedRecorder| -> Vec<_> {
            ring.snapshot()
                .iter()
                .map(|r| (r.to_json(), r.reason.a.to_bits(), r.reason.b.to_bits()))
                .collect()
        };
        prop_assert_eq!(serial_ring.total(), serial_ring.snapshot().len() as u64, "ring wrapped");
        prop_assert_eq!(records(&shard_ring), records(&serial_ring));
    }

    /// Law 2: for a fixed shard count, the merged report and every
    /// per-shard summary are byte-identical whether 1, 2, 4 or 8 client
    /// threads replayed the trace.
    #[test]
    fn merged_report_is_independent_of_client_count(
        trace in arb_trace(),
        spec in arb_spec(),
        capacity in 1_000u64..200_000,
        shards in prop::sample::select(vec![2usize, 4, 8]),
    ) {
        let dense = DenseTrace::build(&trace);
        let config = SimulationConfig::new(ByteSize::new(capacity));
        let sharded = ShardedTrace::build(&dense, shards).unwrap();
        let sim = ConcurrentSimulator::new(spec, config);
        let baseline = sim.run_sharded(&dense, &sharded, 1);
        for clients in [2usize, 4, 8] {
            let report = sim.run_sharded(&dense, &sharded, clients);
            prop_assert_eq!(report.by_type(), baseline.by_type());
            prop_assert_eq!(report.requests, baseline.requests);
            prop_assert_eq!(report.per_shard.len(), baseline.per_shard.len());
            for (a, b) in report.per_shard.iter().zip(baseline.per_shard.iter()) {
                prop_assert_eq!(a.shard, b.shard);
                prop_assert_eq!(a.requests, b.requests);
                prop_assert_eq!(a.hits, b.hits);
                prop_assert_eq!(a.bytes_requested, b.bytes_requested);
                prop_assert_eq!(a.bytes_hit, b.bytes_hit);
                prop_assert_eq!(&a.by_type, &b.by_type);
            }
        }
    }
}

/// The `N = 1` engine also reproduces the serial *windowed* series:
/// events carry global indices, so a per-shard `WindowedMetrics` on a
/// single shard sees the exact event stream a serial observer would.
#[test]
fn single_shard_windowed_series_matches_serial() {
    let trace: Trace = (0..3_000u64)
        .map(|i| {
            Request::new(
                Timestamp::from_millis(i),
                DocId::new((i * 13 + 7) % 201),
                DocumentType::ALL[(i % 5) as usize],
                ByteSize::new(150 + (i % 77) * 11),
            )
        })
        .collect();
    let dense = DenseTrace::build(&trace);
    let config = SimulationConfig::builder()
        .capacity(ByteSize::new(30_000))
        .warmup_fraction(0.1)
        .build();
    let spec = WindowSpec::Requests(500);

    let mut serial_obs = WindowedMetrics::new(spec);
    let serial = Simulator::new(
        PolicyKind::GdStar(webcache_core::CostModel::Packet).build(),
        config,
    )
    .run_dense_observed(&dense, &mut serial_obs);

    let sharded = ShardedTrace::build(&dense, 1).unwrap();
    let mut observers = [WindowedMetrics::new(spec)];
    let report =
        ConcurrentSimulator::new(PolicyKind::GdStar(webcache_core::CostModel::Packet), config)
            .run_sharded_controlled(&dense, &sharded, 1, None, None, &mut observers);

    assert_eq!(report.by_type(), serial.by_type());
    let serial_windows = serial_obs.windows();
    let sharded_windows = observers[0].windows();
    assert_eq!(serial_windows.len(), sharded_windows.len());
    for (a, b) in serial_windows.iter().zip(sharded_windows.iter()) {
        assert_eq!(a.start_index, b.start_index);
        assert_eq!(a.end_index, b.end_index);
        assert_eq!(a.by_type, b.by_type);
        assert_eq!(a.churn, b.churn);
    }
}
