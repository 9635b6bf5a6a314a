//! Property tests for the flight recorder: ring wrap-around retention,
//! JSONL round-trip, and tear-free recording through the concurrent
//! sharded engine.
//!
//! The ring laws pin the forensics pipeline's foundation: whatever the
//! event volume, the recorder retains *exactly* the last `capacity`
//! records in arrival order, and the JSONL dump parses back bit-equal.
//! The concurrent law pins the per-shard recording path of `webcache
//! serve --shards N`: records merged across shard rings must all be
//! internally consistent with the replayed trace (no torn or invented
//! records under client-thread parallelism), and — reasons included —
//! must not depend on the client count.

use proptest::prelude::*;

use webcache_core::PolicyKind;
use webcache_obs::{
    merge_sorted, DecisionRecord, EventKind, FlightRecorder, Reason, SharedRecorder,
};
use webcache_sim::{
    ConcurrentReport, ConcurrentSimulator, FlightObserver, ShardReasons, ShardedTrace,
    SimulationConfig,
};
use webcache_trace::{ByteSize, DenseTrace, DocId, DocumentType, Request, Timestamp, Trace};

/// A deterministic but varied record for stress-filling rings.
fn sample_record(i: usize) -> DecisionRecord {
    let event = EventKind::ALL[i % EventKind::ALL.len()];
    let reason = match i % 3 {
        0 => Reason::none(),
        1 => Reason::greedy_dual(i as f64 * 0.5, i as f64 * 0.25),
        _ => Reason::frequency(i as f64),
    };
    DecisionRecord {
        index: i as u64,
        doc: (i as u64).wrapping_mul(31) % 97,
        doc_type: (i % 5) as u8,
        size: 100 + i as u64,
        event,
        reason,
    }
}

/// Parses `text` as a flight log, which must return rather than panic;
/// an accepted log holds at most one record per non-empty line.
fn check_jsonl_parse(text: &str) -> Result<(), TestCaseError> {
    if let Ok(records) = FlightRecorder::parse_jsonl(text) {
        let lines = text.lines().filter(|l| !l.trim().is_empty()).count();
        prop_assert!(
            records.len() <= lines,
            "{} records from {} lines",
            records.len(),
            lines
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `inspect --bundle` decodes files: the JSONL parser never panics
    /// on arbitrary text, lossily decoded bytes or strings of JSON's
    /// own characters.
    #[test]
    fn jsonl_parser_is_total(
        bytes in prop::collection::vec(0u8..=255, 0..512),
        jsonish in prop::collection::vec(
            prop::sample::select("{}[]\":,.-+eE0123456789 \n\\truenlfasx".chars().collect::<Vec<_>>()),
            0..512,
        ),
    ) {
        check_jsonl_parse(&String::from_utf8_lossy(&bytes))?;
        check_jsonl_parse(&jsonish.into_iter().collect::<String>())?;
    }

    /// Nor on a valid dump cut at a random offset with random bit flips.
    #[test]
    fn jsonl_parser_is_total_on_damaged_logs(
        total in 1usize..40,
        cut in 0.0f64..=1.0,
        flips in prop::collection::vec((0usize..1 << 16, 0u8..8), 0..8),
    ) {
        let mut ring = FlightRecorder::new(64);
        for i in 0..total {
            ring.record(sample_record(i));
        }
        let mut bytes = ring.to_jsonl().into_bytes();
        bytes.truncate((bytes.len() as f64 * cut) as usize);
        if !bytes.is_empty() {
            let len = bytes.len();
            for (at, bit) in flips {
                bytes[at % len] ^= 1 << bit;
            }
        }
        check_jsonl_parse(&String::from_utf8_lossy(&bytes))?;
    }

    /// Wrap-around retention: after `total` records, the ring holds
    /// exactly the last `min(total, capacity)` in arrival order, and
    /// `total()` counts everything ever recorded.
    #[test]
    fn ring_retains_exactly_the_last_capacity_records(
        capacity in 1usize..64,
        total in 0usize..300,
    ) {
        let mut ring = FlightRecorder::new(capacity);
        for i in 0..total {
            ring.record(sample_record(i));
        }
        prop_assert_eq!(ring.total(), total as u64);
        let snapshot = ring.snapshot();
        let retained = total.min(capacity);
        prop_assert_eq!(snapshot.len(), retained);
        for (k, record) in snapshot.iter().enumerate() {
            prop_assert_eq!(record, &sample_record(total - retained + k));
        }
        // `last(n)` is always a suffix of the snapshot.
        for n in [0usize, 1, capacity / 2, capacity, capacity + 5] {
            let last = ring.last(n);
            prop_assert_eq!(last.as_slice(), &snapshot[retained - n.min(retained)..]);
        }
    }

    /// The JSONL dump parses back to exactly the retained records, for
    /// every mix of event kinds and reason payloads.
    #[test]
    fn jsonl_round_trips_bit_equal(
        capacity in 1usize..48,
        total in 0usize..200,
    ) {
        let mut ring = FlightRecorder::new(capacity);
        for i in 0..total {
            ring.record(sample_record(i));
        }
        let parsed = FlightRecorder::parse_jsonl(&ring.to_jsonl()).unwrap();
        prop_assert_eq!(parsed, ring.snapshot());
    }
}

mod concurrent_no_tearing {
    use super::*;

    fn arb_trace() -> impl Strategy<Value = Trace> {
        prop::collection::vec((0u64..48, 0u8..5, 1u64..50_000), 1..300).prop_map(|reqs| {
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

    /// Replays `dense` with `clients` clients, one flight ring and one
    /// pair of reason channels per shard; returns the report and the
    /// merged records.
    fn record(
        kind: PolicyKind,
        config: SimulationConfig,
        dense: &DenseTrace,
        sharded: &ShardedTrace,
        clients: usize,
    ) -> (ConcurrentReport, Vec<DecisionRecord>) {
        let shards = sharded.shard_count();
        // Generous rings: nothing wraps, so the merged view is the
        // complete event history.
        let recorders: Vec<SharedRecorder> = (0..shards)
            .map(|_| SharedRecorder::new(dense.len() * 3 + 8))
            .collect();
        let reasons: Vec<ShardReasons> = (0..shards).map(|_| ShardReasons::default()).collect();
        let mut observers: Vec<FlightObserver> = recorders
            .iter()
            .zip(&reasons)
            .map(|(recorder, r)| {
                FlightObserver::with_reasons(
                    recorder.clone(),
                    r.evictions.clone(),
                    r.admissions.clone(),
                )
            })
            .collect();
        let report = ConcurrentSimulator::new(kind, config)
            .with_reasons(reasons)
            .run_sharded_controlled(dense, sharded, clients, None, None, &mut observers);
        (report, merge_sorted(&recorders))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Per-shard flight recording under client-thread parallelism
        /// never tears: every merged record matches the trace request at
        /// its index (access events) or a validly resident victim
        /// (evictions — insert before evict, never evicted twice), and
        /// the access records reproduce the replay's hit accounting.
        /// The merged records, reasons included, are the same for one
        /// client as for the drawn client count.
        #[test]
        fn sharded_recording_is_consistent_with_the_trace(
            trace in arb_trace(),
            kind in prop::sample::select(PolicyKind::ALL.to_vec()),
            capacity in 1_000u64..100_000,
            shards in prop::sample::select(vec![1usize, 2, 4, 8]),
            clients in 1usize..5,
        ) {
            let dense = DenseTrace::build(&trace);
            let sharded = ShardedTrace::build(&dense, shards).unwrap();
            let config = SimulationConfig::builder()
                .capacity(ByteSize::new(capacity))
                .warmup_fraction(0.0)
                .build();
            let (report, merged) = record(kind, config, &dense, &sharded, clients);
            let (_, single_client) = record(kind, config, &dense, &sharded, 1);
            let bits = |records: &[DecisionRecord]| -> Vec<_> {
                records
                    .iter()
                    .map(|r| (r.to_json(), r.reason.a.to_bits(), r.reason.b.to_bits()))
                    .collect()
            };
            prop_assert_eq!(bits(&merged), bits(&single_client), "client count changed the records");

            let mut accesses = 0u64;
            let mut hits = 0u64;
            let mut resident: std::collections::HashSet<u64> =
                std::collections::HashSet::new();
            for r in &merged {
                prop_assert!((r.index as usize) < trace.len(), "index out of range");
                let (slot, size, ty) = dense.request(r.index as usize);
                match r.event {
                    EventKind::Hit | EventKind::Miss | EventKind::ModificationMiss => {
                        accesses += 1;
                        hits += u64::from(r.event == EventKind::Hit);
                        prop_assert_eq!(r.doc, slot as u64, "torn access doc");
                        prop_assert_eq!(r.size, size.as_u64(), "torn access size");
                        prop_assert_eq!(r.doc_type, ty.index() as u8, "torn access type");
                    }
                    EventKind::Insert => {
                        prop_assert_eq!(r.doc, slot as u64, "insert of a foreign doc");
                        // A modification miss re-inserts a resident doc
                        // in place, so repeat inserts are legitimate.
                        resident.insert(r.doc);
                    }
                    EventKind::AdmissionReject => {
                        prop_assert_eq!(r.doc, slot as u64, "reject of a foreign doc");
                    }
                    EventKind::Evict => {
                        prop_assert!(
                            resident.remove(&r.doc),
                            "evicted doc {} was not resident", r.doc
                        );
                        prop_assert!(
                            (r.doc as usize) < dense.distinct_documents(),
                            "victim slot out of range"
                        );
                        prop_assert!(r.size > 0, "victim with zero size");
                    }
                }
            }
            prop_assert_eq!(accesses, trace.len() as u64, "access records lost");
            prop_assert_eq!(hits, report.overall().hits, "hit accounting diverged");
        }
    }
}
