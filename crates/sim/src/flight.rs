//! Bridging simulator events into the flight recorder.
//!
//! [`FlightObserver`] is an [`Observer`] that turns every replay event
//! into a [`DecisionRecord`] in a [`SharedRecorder`] ring. Reason
//! payloads arrive over two FIFO [`ReasonChannel`]s:
//!
//! * **evictions** — filled by an instrumented policy's
//!   [`FlightSink`](webcache_obs::FlightSink) (one reason per `evict()`
//!   victim, in victim order), drained one per
//!   [`Observer::on_evict`];
//! * **admissions** — filled by the cache at each Inserted /
//!   RejectedByAdmission outcome (see `Cache::set_admit_reasons`),
//!   drained one per [`Observer::on_insert`] /
//!   [`Observer::on_admission_reject`].
//!
//! Both pairings are exact because the simulator documents its event
//! order per request: `on_access`, then on a miss exactly one of
//! `on_insert` / `on_admission_reject`, then one `on_evict` per victim
//! in eviction order — and TooLarge outcomes emit neither an event nor
//! a reason. Un-instrumented policies (LRU, FIFO, SLRU, or any policy
//! built without a sink) simply leave the channel empty and the records
//! carry the none-kind reason.
//!
//! The ring is locked once per request, not once per event: the
//! observer stages a request's insert, reject and evict records and
//! appends them together with the next request's access record in one
//! [`SharedRecorder::record_all`] call, and flushes what is left at
//! [`Observer::on_run_end`] (which interrupted passes reach too). So
//! when a later observer in the same chain sees `on_access`, the ring
//! already holds every event up to and including that access; a reader
//! on another thread can lag by at most one request's insert and evict
//! records.

use webcache_core::Eviction;
use webcache_obs::flight::{DecisionRecord, EventKind, Reason, ReasonChannel, SharedRecorder};

use crate::observe::{AccessEvent, AccessKind, Observer};

/// Observer recording every replay event into a shared flight ring.
/// See the module-level documentation above.
#[derive(Debug, Clone)]
pub struct FlightObserver {
    recorder: SharedRecorder,
    evictions: Option<ReasonChannel>,
    admissions: Option<ReasonChannel>,
    /// The current request's records not yet in the ring.
    staged: Vec<DecisionRecord>,
}

impl FlightObserver {
    /// An observer recording plain events, without reason channels:
    /// every record carries the none-kind reason. `webcache serve`
    /// instead gives each shard [`FlightObserver::with_reasons`] over
    /// that shard's own channels.
    pub fn new(recorder: SharedRecorder) -> FlightObserver {
        FlightObserver {
            recorder,
            evictions: None,
            admissions: None,
            staged: Vec::new(),
        }
    }

    /// An observer that additionally stamps eviction records with
    /// reasons popped from `evictions` and insert/reject records with
    /// reasons popped from `admissions`.
    pub fn with_reasons(
        recorder: SharedRecorder,
        evictions: ReasonChannel,
        admissions: ReasonChannel,
    ) -> FlightObserver {
        FlightObserver {
            recorder,
            evictions: Some(evictions),
            admissions: Some(admissions),
            staged: Vec::new(),
        }
    }

    /// The ring this observer records into.
    pub fn recorder(&self) -> &SharedRecorder {
        &self.recorder
    }

    fn pop(channel: &Option<ReasonChannel>) -> Reason {
        channel
            .as_ref()
            .and_then(ReasonChannel::pop)
            .unwrap_or_default()
    }

    fn record(event: AccessEvent, kind: EventKind, reason: Reason) -> DecisionRecord {
        DecisionRecord {
            index: event.index,
            doc: event.doc.as_u64(),
            doc_type: event.doc_type.index() as u8,
            size: event.size.as_u64(),
            event: kind,
            reason,
        }
    }

    /// Appends the staged records to the ring under one lock.
    fn flush(&mut self) {
        if !self.staged.is_empty() {
            self.recorder.record_all(&self.staged);
            self.staged.clear();
        }
    }
}

impl Observer for FlightObserver {
    fn on_access(&mut self, event: AccessEvent, kind: AccessKind) {
        let kind = match kind {
            AccessKind::Hit => EventKind::Hit,
            AccessKind::Miss => EventKind::Miss,
            AccessKind::ModificationMiss => EventKind::ModificationMiss,
        };
        self.staged.push(Self::record(event, kind, Reason::none()));
        self.flush();
    }

    fn on_insert(&mut self, event: AccessEvent) {
        let reason = Self::pop(&self.admissions);
        self.staged
            .push(Self::record(event, EventKind::Insert, reason));
    }

    fn on_admission_reject(&mut self, event: AccessEvent) {
        let reason = Self::pop(&self.admissions);
        self.staged
            .push(Self::record(event, EventKind::AdmissionReject, reason));
    }

    fn on_evict(&mut self, at: AccessEvent, evicted: Eviction) {
        let reason = Self::pop(&self.evictions);
        self.staged.push(DecisionRecord {
            index: at.index,
            doc: evicted.doc.as_u64(),
            doc_type: evicted.doc_type.index() as u8,
            size: evicted.size.as_u64(),
            event: EventKind::Evict,
            reason,
        });
    }

    fn on_run_end(&mut self) {
        self.flush();
        // Defensive: a policy that emitted reasons nobody paired (e.g.
        // evictions driven outside the replay loop) must not poison the
        // next pass's pairing.
        if let Some(ch) = &self.evictions {
            ch.clear();
        }
        if let Some(ch) = &self.admissions {
            ch.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use webcache_core::PolicyKind;
    use webcache_obs::flight::{FlightSink, ReasonKind};
    use webcache_trace::{ByteSize, DocId, DocumentType, Request, Timestamp, Trace};

    use crate::{SimulationConfig, Simulator};

    fn trace(requests: &[(u64, u64)]) -> Trace {
        requests
            .iter()
            .enumerate()
            .map(|(i, &(doc, size))| {
                Request::new(
                    Timestamp::from_millis(i as u64),
                    DocId::new(doc),
                    DocumentType::Html,
                    ByteSize::new(size),
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
    fn records_full_event_stream_with_greedy_dual_reasons() {
        // Capacity one 80-byte doc; the third request evicts the first.
        let t = trace(&[(1, 80), (1, 80), (2, 80)]);
        let recorder = SharedRecorder::new(64);
        let evict_ch = ReasonChannel::new();
        let admit_ch = ReasonChannel::new();
        let observer =
            FlightObserver::with_reasons(recorder.clone(), evict_ch.clone(), admit_ch.clone());

        let policy = PolicyKind::Gds(webcache_core::CostModel::Constant)
            .build_instrumented(FlightSink::new(evict_ch));
        let mut sim = Simulator::new(policy, config(100));
        sim.set_admit_reasons(admit_ch);
        let mut obs = observer;
        sim.run_observed(&t, &mut obs);

        let records = recorder.snapshot();
        let kinds: Vec<EventKind> = records.iter().map(|r| r.event).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Miss,
                EventKind::Insert,
                EventKind::Hit,
                EventKind::Miss,
                EventKind::Insert,
                EventKind::Evict,
            ]
        );
        let evict = records.last().unwrap();
        assert_eq!(evict.reason.kind, ReasonKind::GreedyDual);
        assert!(evict.reason.a > 0.0, "victim H must be positive");
        // Channels fully drained: pairing was exact.
        assert!(obs.recorder().total() == 6);
    }

    /// The unstaged reference: one `SharedRecorder::record` call per
    /// event, reasons popped from its own channels.
    struct PerEvent {
        ring: SharedRecorder,
        evictions: ReasonChannel,
        admissions: ReasonChannel,
    }

    impl Observer for PerEvent {
        fn on_access(&mut self, event: AccessEvent, kind: AccessKind) {
            let kind = match kind {
                AccessKind::Hit => EventKind::Hit,
                AccessKind::Miss => EventKind::Miss,
                AccessKind::ModificationMiss => EventKind::ModificationMiss,
            };
            let record = FlightObserver::record(event, kind, Reason::none());
            self.ring.record(record);
        }

        fn on_insert(&mut self, event: AccessEvent) {
            let reason = self.admissions.pop().unwrap_or_default();
            let record = FlightObserver::record(event, EventKind::Insert, reason);
            self.ring.record(record);
        }

        fn on_admission_reject(&mut self, event: AccessEvent) {
            let reason = self.admissions.pop().unwrap_or_default();
            let record = FlightObserver::record(event, EventKind::AdmissionReject, reason);
            self.ring.record(record);
        }

        fn on_evict(&mut self, at: AccessEvent, evicted: Eviction) {
            self.ring.record(DecisionRecord {
                index: at.index,
                doc: evicted.doc.as_u64(),
                doc_type: evicted.doc_type.index() as u8,
                size: evicted.size.as_u64(),
                event: EventKind::Evict,
                reason: self.evictions.pop().unwrap_or_default(),
            });
        }
    }

    /// Asserts at every access that the ring's newest record is that
    /// access, as the anomaly trigger's snapshot needs.
    struct NewestIsCurrent {
        ring: SharedRecorder,
        accesses: usize,
    }

    impl Observer for NewestIsCurrent {
        fn on_access(&mut self, event: AccessEvent, _kind: AccessKind) {
            let newest = self.ring.last(1);
            let newest = newest.first().expect("the access is recorded");
            assert_eq!(
                (newest.index, newest.doc),
                (event.index, event.doc.as_u64())
            );
            assert!(matches!(
                newest.event,
                EventKind::Hit | EventKind::Miss | EventKind::ModificationMiss
            ));
            self.accesses += 1;
        }
    }

    #[test]
    fn staged_records_equal_the_per_event_stream() {
        // Mixed sizes through a small cache: multi-victim evictions,
        // TinyLFU rejections and a size change (modification miss).
        let requests: Vec<(u64, u64)> = (0..600u64)
            .map(|i| {
                let doc = (i * 7) % 41;
                let size = 40 + (doc % 9) * 30 + u64::from(i >= 300 && doc == 13) * 5;
                (doc, size)
            })
            .collect();
        let dense = webcache_trace::DenseTrace::build(&trace(&requests));
        let spec: webcache_core::PolicySpec = "tinylfu+gds1".parse().unwrap();
        let run = |staged: bool| -> Vec<DecisionRecord> {
            let evictions = ReasonChannel::new();
            let admissions = ReasonChannel::new();
            let mut sim = Simulator::from_spec_instrumented(
                spec,
                config(900),
                FlightSink::new(evictions.clone()),
            );
            sim.set_admit_reasons(admissions.clone());
            let ring = SharedRecorder::new(8192);
            if staged {
                let mut chain = (
                    FlightObserver::with_reasons(ring.clone(), evictions, admissions),
                    NewestIsCurrent {
                        ring: ring.clone(),
                        accesses: 0,
                    },
                );
                sim.run_dense_observed(&dense, &mut chain);
                assert_eq!(chain.1.accesses, dense.len());
            } else {
                let mut reference = PerEvent {
                    ring: ring.clone(),
                    evictions,
                    admissions,
                };
                sim.run_dense_observed(&dense, &mut reference);
            }
            ring.snapshot()
        };
        let staged = run(true);
        let reference = run(false);
        assert_eq!(staged, reference);
        for kind in [
            EventKind::ModificationMiss,
            EventKind::AdmissionReject,
            EventKind::Evict,
        ] {
            assert!(staged.iter().any(|r| r.event == kind), "{kind:?}");
        }
        assert!(staged
            .iter()
            .any(|r| r.event == EventKind::Evict && r.reason.kind == ReasonKind::GreedyDual));
    }

    #[test]
    fn uninstrumented_policy_records_none_reasons() {
        let t = trace(&[(1, 80), (2, 80), (3, 80)]);
        let recorder = SharedRecorder::new(64);
        let mut obs = FlightObserver::new(recorder.clone());
        let sim = Simulator::new(PolicyKind::Lru.build(), config(100));
        sim.run_observed(&t, &mut obs);
        assert!(recorder
            .snapshot()
            .iter()
            .all(|r| r.reason.kind == ReasonKind::None));
        assert!(recorder
            .snapshot()
            .iter()
            .any(|r| r.event == EventKind::Evict));
    }
}
